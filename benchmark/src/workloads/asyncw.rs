//! `async_64k`: 65 536 logical participants parked on an
//! `AsyncBarrier`, multiplexed by two executor driver threads.
//!
//! The loop is the benchmark's own, written against
//! `AsyncBarrier::waiter_for` and `wait_async`: a little seeded busy
//! work, then one crossing. Nobody outside the tasks can say when to
//! stop, so task 0 keeps the time: before it arrives for epoch `e` it
//! writes what epoch `e + 1` is to be (unstamped, stamped, or the end),
//! and every task reads that after epoch `e` releases — the barrier
//! itself orders the write before the reads.
//!
//! In a stamped epoch each crossing goes through a timing `Future`
//! wrapper: a participant arrives when its first poll begins and
//! observes the release when its resuming poll begins (or when its
//! first poll returns ready: the last arriver releases and goes on).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

use combar_rt::{AsyncBarrier, Deadline, Executor};
use combar_work::{busy_work, work_iters};

use crate::run::{Blocks, Ctx, Report};
use crate::stamps::now_ns;
use crate::stats::{percentile_of, Summary};

const PARTICIPANTS: u32 = 65_536;
const SHARDS: u32 = 16;
const WORK_MEAN: u32 = 4;
const SIGMA: f64 = 1.0;
/// Stamped epochs per block.
const STAMPED_EPOCHS: u64 = 4;
/// Room in the plan; a run uses a few hundred epochs.
const MAX_EPOCHS: usize = 1 << 14;
const SETUP_REPS: usize = 9;
/// Every 64th task keeps its own first-poll times; every 1024th also
/// keeps the stamps its spans are built from.
const SAMPLE_EVERY: u32 = 64;
const SPAN_EVERY: u32 = 1_024;
const DRAIN_BUDGET: Duration = Duration::from_secs(60);

const UNSTAMPED: u8 = 0;
const STAMPED: u8 = 1;
const END: u8 = 2;

/// Per-epoch stamps, folded with atomic max/min by every task. Spread
/// over lanes by task id so 65 536 tasks do not all hit one line.
#[repr(align(64))]
#[derive(Default)]
struct Lane {
    last_arrived: AtomicU64,
    first_resumed: AtomicU64,
    last_resumed: AtomicU64,
    polls: AtomicU64,
}

const LANES: usize = 16;

struct Shared {
    /// What each epoch is; index `e + 1` is written by task 0 before it
    /// arrives for epoch `e`.
    plan: Vec<AtomicU8>,
    /// `LANES` lanes per stamped epoch, in the order they occur.
    lanes: Vec<Lane>,
    seed: u64,
    /// What the sampled tasks hand back when they finish.
    first_polls: Mutex<Vec<u64>>,
    span_stamps: Mutex<Vec<TaskStamps>>,
    keeper: Mutex<Keeper>,
}

/// One sampled task's stamps for the run's last stamped epochs.
struct TaskStamps {
    tid: u32,
    /// Wall time of the stamped epochs below, read separately.
    wall: (u64, u64),
    /// `(work start, first poll start, first poll end, resume start,
    /// ready)` per epoch, with the epoch's stamped index.
    epochs: Vec<(usize, [u64; 5])>,
}

/// Task 0's record of the run.
#[derive(Default)]
struct Keeper {
    /// When task 0 resumed from each epoch.
    resumed: Vec<u64>,
    /// `(first epoch, epochs)` of each block's unstamped part, and the
    /// stamped index of its first stamped epoch.
    blocks: Vec<(usize, usize, usize)>,
}

impl Shared {
    fn new(seed: u64, stamped_epochs: usize) -> Shared {
        let lanes = (0..stamped_epochs * LANES)
            .map(|_| Lane {
                first_resumed: AtomicU64::new(u64::MAX),
                ..Lane::default()
            })
            .collect();
        Shared {
            plan: (0..MAX_EPOCHS).map(|_| AtomicU8::new(UNSTAMPED)).collect(),
            lanes,
            seed,
            first_polls: Mutex::new(Vec::new()),
            span_stamps: Mutex::new(Vec::new()),
            keeper: Mutex::new(Keeper::default()),
        }
    }

    fn lane(&self, stamped_index: usize, tid: u32) -> &Lane {
        &self.lanes[stamped_index * LANES + tid as usize % LANES]
    }

    /// `(last arrival, first resume, last resume, polls)` of a stamped epoch.
    fn epoch_stamps(&self, stamped_index: usize) -> (u64, u64, u64, u64) {
        let lanes = &self.lanes[stamped_index * LANES..(stamped_index + 1) * LANES];
        (
            lanes
                .iter()
                .map(|l| l.last_arrived.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            lanes
                .iter()
                .map(|l| l.first_resumed.load(Ordering::Relaxed))
                .min()
                .unwrap_or(0),
            lanes
                .iter()
                .map(|l| l.last_resumed.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            lanes.iter().map(|l| l.polls.load(Ordering::Relaxed)).sum(),
        )
    }
}

/// The timing wrapper around one `wait_async()` future.
struct Timed<'a, F> {
    inner: F,
    lane: &'a Lane,
    polls: u64,
    /// `[first poll start, first poll end, resume start, ready]`.
    stamps: [u64; 4],
}

impl<F: Future + Unpin> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t0 = now_ns();
        let polled = Pin::new(&mut self.inner).poll(cx);
        let t1 = now_ns();
        self.polls += 1;
        if self.polls == 1 {
            self.stamps[0] = t0;
            self.stamps[1] = t1;
            self.lane.last_arrived.fetch_max(t0, Ordering::Relaxed);
        }
        if polled.is_ready() {
            // The last arriver is ready on its first poll: it saw the
            // release when that poll returned, not when it began.
            let seen = if self.polls == 1 { t1 } else { t0 };
            self.stamps[2] = seen;
            self.stamps[3] = t1;
            self.lane.first_resumed.fetch_min(seen, Ordering::Relaxed);
            self.lane.last_resumed.fetch_max(seen, Ordering::Relaxed);
            self.lane.polls.fetch_add(self.polls, Ordering::Relaxed);
        }
        polled
    }
}

/// Task 0's clock: decides, epoch by epoch, what the next epoch is.
struct TimeKeeper {
    block_ns: u64,
    blocks: usize,
    /// Position inside the current block.
    block: usize,
    block_start_ns: u64,
    block_first_epoch: usize,
    stamped_left: u64,
    stamped_seen: usize,
    stamped_ns: u64,
    stamped_start_ns: u64,
}

impl TimeKeeper {
    /// Called by task 0 before it arrives for epoch `e` (which has mode
    /// `mode`): the mode of epoch `e + 1`.
    fn next(&mut self, e: usize, mode: u8, keeper: &mut Keeper) -> u8 {
        let now = now_ns();
        if mode == STAMPED {
            self.stamped_left -= 1;
            if self.stamped_left > 0 {
                return STAMPED;
            }
            // The block is over after epoch `e`; the next one opens
            // with an unstamped epoch. Block 0 is the warm-up.
            self.stamped_ns = now - self.stamped_start_ns;
            self.block += 1;
            self.block_first_epoch = e + 1;
            self.block_start_ns = now;
            return if self.block > self.blocks {
                END
            } else {
                UNSTAMPED
            };
        }
        let budget = self.block_ns.saturating_sub(self.stamped_ns);
        if now - self.block_start_ns < budget && e + 8 < MAX_EPOCHS {
            return UNSTAMPED;
        }
        // Epoch `e` closes the unstamped part.
        keeper.blocks.push((
            self.block_first_epoch,
            e + 1 - self.block_first_epoch,
            self.stamped_seen,
        ));
        self.stamped_left = STAMPED_EPOCHS;
        self.stamped_seen += STAMPED_EPOCHS as usize;
        self.stamped_start_ns = now;
        STAMPED
    }
}

async fn participant(
    tid: u32,
    barrier: AsyncBarrier,
    shared: Arc<Shared>,
    mut clock: Option<TimeKeeper>,
    span_from: usize,
) {
    let mut waiter = barrier.waiter_for(tid);
    let sampled = tid.is_multiple_of(SAMPLE_EVERY);
    let mut first_polls = Vec::new();
    let mut spans = tid.is_multiple_of(SPAN_EVERY).then(|| TaskStamps {
        tid,
        wall: (0, 0),
        epochs: Vec::new(),
    });
    let mut resumed = Vec::new();
    let mut stamped_index = 0;
    let mut e = 0usize;
    loop {
        let mode = shared.plan[e].load(Ordering::Acquire);
        if mode == END {
            break;
        }
        if let Some(clock) = clock.as_mut() {
            let next = clock.next(e, mode, &mut shared.keeper.lock().unwrap());
            shared.plan[e + 1].store(next, Ordering::Release);
        }
        let keep_spans = mode == STAMPED && stamped_index >= span_from;
        let work_start = if keep_spans { now_ns() } else { 0 };
        busy_work(work_iters(shared.seed, tid, e as u32, WORK_MEAN, SIGMA));
        if mode == STAMPED {
            let mut timed = Timed {
                inner: waiter.wait_async(),
                lane: shared.lane(stamped_index, tid),
                polls: 0,
                stamps: [0; 4],
            };
            (&mut timed).await.expect("async crossing failed");
            if sampled {
                first_polls.push(timed.stamps[1] - timed.stamps[0]);
            }
            if let Some(s) = spans.as_mut().filter(|_| keep_spans) {
                let [a, b, c, d] = timed.stamps;
                if s.epochs.is_empty() {
                    s.wall.0 = work_start;
                }
                s.epochs.push((stamped_index, [work_start, a, b, c, d]));
                s.wall.1 = now_ns();
            }
            stamped_index += 1;
        } else {
            waiter.wait_async().await.expect("async crossing failed");
        }
        if clock.is_some() {
            resumed.push(now_ns());
        }
        e += 1;
    }
    if sampled {
        shared.first_polls.lock().unwrap().append(&mut first_polls);
    }
    if let Some(s) = spans {
        shared.span_stamps.lock().unwrap().push(s);
    }
    if clock.is_some() {
        shared.keeper.lock().unwrap().resumed = resumed;
    }
}

/// Set-up: a barrier, an executor, and 65 536 spawned tasks. The plan
/// handed to a set-up repetition ends at epoch 0, so its tasks finish
/// as soon as they are first polled.
fn set_up(
    drivers: usize,
    shared: &Arc<Shared>,
    mut clock: Option<TimeKeeper>,
    span_from: usize,
) -> (AsyncBarrier, Executor, u64) {
    let t0 = now_ns();
    let barrier = AsyncBarrier::new(PARTICIPANTS, SHARDS);
    let exec = Executor::new(drivers);
    for tid in 0..PARTICIPANTS {
        let clock = if tid == 0 { clock.take() } else { None };
        exec.spawn(participant(
            tid,
            barrier.clone(),
            Arc::clone(shared),
            clock,
            span_from,
        ));
    }
    (barrier, exec, now_ns() - t0)
}

pub fn run(ctx: &Ctx) -> Report {
    let drivers = ctx.host.threads.min(2);
    ctx.host.admit("async_64k", drivers);
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let ended = Arc::new(Shared::new(ctx.seed, 0));
        ended.plan[0].store(END, Ordering::Release);
        let (_, exec, ns) = set_up(drivers, &ended, None, 0);
        setups.push(ns as f64 * 1e-9);
        assert!(
            exec.wait_idle(Deadline::after(DRAIN_BUDGET)),
            "set-up tasks did not finish"
        );
    }
    report.set("setup_s", Summary::of_blocks(&setups));
    report.set_value(
        "asyncb.spawn_ns_per_task",
        Summary::of_blocks(&setups).median * 1e9 / f64::from(PARTICIPANTS),
    );

    let blocks = ctx.blocks();
    let stamped_total = (blocks + 1) * STAMPED_EPOCHS as usize;
    let shared = Arc::new(Shared::new(ctx.seed, stamped_total));
    let start = now_ns();
    let clock = Some(TimeKeeper {
        block_ns: (ctx.block_seconds() * 1e9) as u64,
        blocks,
        block: 0,
        block_start_ns: start,
        block_first_epoch: 0,
        stamped_left: 0,
        stamped_seen: 0,
        stamped_ns: 0,
        stamped_start_ns: 0,
    });
    // Spans come from the last block's stamped epochs.
    let span_from = if ctx.traced {
        blocks * STAMPED_EPOCHS as usize
    } else {
        usize::MAX
    };
    let (barrier, exec, _) = set_up(drivers, &shared, clock, span_from);
    let drained = exec.wait_idle(Deadline::after(
        Duration::from_secs_f64(ctx.seconds) + DRAIN_BUDGET,
    ));

    let keeper = std::mem::take(&mut *shared.keeper.lock().unwrap());
    let epochs = keeper.resumed.len() as u64;
    report.attempted = epochs;
    let final_epoch_ok = drained
        && u64::from(barrier.epoch()) == epochs
        && exec.panics() == 0
        && !barrier.is_poisoned();
    if !final_epoch_ok {
        report.fail(
            1,
            format!(
                "drained={drained} final epoch {} of {epochs}, {} task panics, poisoned={}",
                barrier.epoch(),
                exec.panics(),
                barrier.is_poisoned()
            ),
        );
        return report;
    }

    let mut measured = Blocks::default();
    let (mut wake, mut drain, mut polls, mut crossings) = (Vec::new(), Vec::new(), 0, 0u64);
    // Block 0 is the warm-up: measured like the rest, then dropped.
    for &(first, n, stamped_index) in keeper.blocks.iter().skip(1) {
        let t0 = if first == 0 {
            start
        } else {
            keeper.resumed[first - 1]
        };
        let t1 = keeper.resumed[first + n - 1];
        measured.unstamped(n as u64, t1 - t0);
        let mut delays = Vec::with_capacity(STAMPED_EPOCHS as usize);
        for s in stamped_index..stamped_index + STAMPED_EPOCHS as usize {
            let (arrived, first_resumed, last_resumed, p) = shared.epoch_stamps(s);
            delays.push(last_resumed.saturating_sub(arrived));
            wake.push(first_resumed.saturating_sub(arrived));
            drain.push(last_resumed.saturating_sub(first_resumed));
            polls += p;
            crossings += u64::from(PARTICIPANTS);
        }
        let t2 = keeper.resumed[first + n - 1 + STAMPED_EPOCHS as usize];
        measured.stamped(&delays, t2 - t1);
    }
    measured.report(&mut report);
    measured.report_stamping_overhead(&mut report);

    if ctx.traced {
        let mut first_polls = std::mem::take(&mut *shared.first_polls.lock().unwrap());
        report.set_value(
            "asyncb.arrive_poll_ns_p50",
            percentile_of(&mut first_polls, 50.0) as f64,
        );
        report.set_value(
            "asyncb.polls_per_crossing",
            polls as f64 / crossings.max(1) as f64,
        );
        report.set_value(
            "asyncb.wake_span_p50_us",
            percentile_of(&mut wake, 50.0) as f64 / 1e3,
        );
        report.set_value(
            "asyncb.drain_span_p50_us",
            percentile_of(&mut drain, 50.0) as f64 / 1e3,
        );
        report.set_value("asyncb.final_epoch_ok", 1.0);
        spans_of(&shared, &mut report);
        layer_rungs(ctx.seed, &mut report);
    }
    report
}

/// `workload → episode → {work, wait → {arrive_phase, notify_phase}}`
/// for each sampled task over the last block's stamped epochs. A wait's
/// own time is what the task spent parked before the last participant
/// arrived, plus its resuming poll.
fn spans_of(shared: &Shared, report: &mut Report) {
    for task in shared.span_stamps.lock().unwrap().drain(..) {
        let root = report.spans.push("workload", task.wall, None, 0, task.tid);
        report.span_wall_ns += task.wall.1 - task.wall.0;
        for (index, [work, poll0, parked, resumed, ready]) in task.epochs {
            let id = index as u64;
            let ep = report
                .spans
                .push("episode", (work, ready), Some(root), id, task.tid);
            report
                .spans
                .push("work", (work, poll0), Some(ep), id, task.tid);
            let wait = report
                .spans
                .push("wait", (poll0, ready), Some(ep), id, task.tid);
            report
                .spans
                .push("arrive_phase", (poll0, parked), Some(wait), id, task.tid);
            let last_arrived = shared.epoch_stamps(index).0;
            let notify = (last_arrived.max(parked), resumed);
            if notify.1 > notify.0 {
                report
                    .spans
                    .push("notify_phase", notify, Some(wait), id, task.tid);
            }
        }
    }
    report.check_spans();
}

/// The `work` layer's two rungs, priced on this host in this process.
fn layer_rungs(seed: u64, report: &mut Report) {
    super::report_busy_ns_per_iter(report);
    const DRAWS: u32 = 2_000_000;
    let t0 = now_ns();
    let mut sum = 0u64;
    for tid in 0..DRAWS {
        sum += u64::from(work_iters(seed, tid, 7, WORK_MEAN, SIGMA));
    }
    std::hint::black_box(sum);
    report.set_value("work.draw_ns", (now_ns() - t0) as f64 / f64::from(DRAWS));
}
