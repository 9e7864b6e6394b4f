//! `rt_sigma0` and `rt_sigma25`: `T` real threads crossing the
//! runtime's barriers through `BarrierBuilder` and `dyn Waiter`.
//!
//! The same `T` threads live for the whole run and cross every kind in
//! every block, so kinds are interleaved in time and pool naturally:
//! equal episodes per gated kind, the block's rate over their summed
//! time, the block's p50 over their pooled delays.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use combar_rt::{AnyBarrier, AnyWaiter, BarrierBuilder, BarrierKind};
use combar_trace::TraceBook;
use combar_work::{busy_work, WorkModel};

use crate::run::{Blocks, Ctx, Report};
use crate::stamps::{episode_delays, now_ns, Crossing};
use crate::stats::{percentile_of, Summary};

/// A barrier kind and the names of its two per-kind metrics.
struct Kind {
    name: &'static str,
    kind: BarrierKind,
    rate: &'static str,
    p50: &'static str,
}

const fn kind(
    name: &'static str,
    kind: BarrierKind,
    rate: &'static str,
    p50: &'static str,
) -> Kind {
    Kind {
        name,
        kind,
        rate,
        p50,
    }
}

/// The first three are gated (pooled into the end-to-end metrics); the
/// rest are crossed in the traced run only.
#[rustfmt::skip]
const KINDS: [Kind; 6] = [
    kind("central", BarrierKind::Central, "rt.central.episodes_per_s", "rt.central.sync_delay_p50_ns"),
    kind("tree", BarrierKind::CombiningTree { degree: 2 }, "rt.tree.episodes_per_s", "rt.tree.sync_delay_p50_ns"),
    kind("dynamic", BarrierKind::Dynamic { degree: 2 }, "rt.dynamic.episodes_per_s", "rt.dynamic.sync_delay_p50_ns"),
    kind("dissemination", BarrierKind::Dissemination, "rt.dissemination.episodes_per_s", "rt.dissemination.sync_delay_p50_ns"),
    kind("tournament", BarrierKind::Tournament, "rt.tournament.episodes_per_s", "rt.tournament.sync_delay_p50_ns"),
    kind("blocking", BarrierKind::Blocking, "rt.blocking.episodes_per_s", "rt.blocking.sync_delay_p50_ns"),
];
const GATED: usize = 3;

/// Busy-work iterations per nominal microsecond. A constant, not a
/// calibration: the same seed must give the same iteration counts on
/// every host. `work.busy_ns_per_iter` reports what an iteration
/// really costs here.
const ITERS_PER_US: f64 = 800.0;
/// Extra busy work, every episode, for the highest-numbered thread: the
/// persistently slow participant (3 nominal µs on a 20 µs mean).
const SLOW_THREAD_EXTRA_ITERS: u32 = 2_400;

/// Episodes per kind crossed with a `TraceBook` attached (traced
/// run). Few: a writer keeps at most 65 536 events.
const BOOK_EPISODES: u64 = 4_096;
/// Stamped episodes per kind turned into spans (traced run).
const SPAN_EPISODES: usize = 1_024;
/// Set-up repetitions before every block; `setup_s` is the median of
/// them all.
const SETUP_REPS_PER_BLOCK: usize = 12;
/// A segment that makes no progress for this long is a hung barrier.
const WATCHDOG: Duration = Duration::from_secs(30);

pub fn run_sigma0(ctx: &Ctx) -> Report {
    run(ctx, "rt_sigma0", None, 16_384, 256)
}

pub fn run_sigma25(ctx: &Ctx) -> Report {
    // Mean 20 µs with fresh N(0, 5 µs) noise per thread and episode
    // (σ = 25%); `work` adds the persistently slow thread. The seed
    // moves only the noise draws: `WorkModel::systemic` would draw the
    // slow thread's bias from it too, and then each seed would be a
    // differently imbalanced workload with its own episode rate.
    let model = WorkModel::iid_normal(ctx.host.threads as u32, ctx.seed, 20.0, 5.0);
    run(ctx, "rt_sigma25", Some(model), 1_024, 16)
}

struct Built {
    barriers: Vec<AnyBarrier>,
    books: Vec<Arc<TraceBook>>,
}

fn build(kinds: &[Kind], threads: u32) -> Built {
    let books: Vec<_> = kinds.iter().map(|_| TraceBook::new()).collect();
    let barriers = kinds
        .iter()
        .zip(&books)
        .map(|(k, book)| {
            BarrierBuilder::new(k.kind, threads)
                .trace(Arc::clone(book))
                .build()
        })
        .collect();
    Built { barriers, books }
}

/// One thread's side of the set-up repetitions. Set-up is done by the
/// run's own threads: thread 0 builds every barrier, then every thread
/// makes its waiters and crosses each barrier once, so lazily
/// initialised state is paid for here and not in the first block.
/// Spawning the threads is left out on purpose: it is the operating
/// system's cost, not the barriers', and on this guest it swings
/// threefold with whether the other core is asleep.
struct SetUps<'a> {
    tid: usize,
    shared: &'a Shared,
    kinds: &'a [Kind],
    /// Thread 0's times: whole set-ups in seconds, builds in ns per kind.
    setups: Vec<f64>,
    builds: Vec<f64>,
}

impl SetUps<'_> {
    /// One repetition, in step with the other threads.
    fn rep(&mut self) -> Arc<Built> {
        let shared = self.shared;
        shared.control.wait();
        let t0 = now_ns();
        if self.tid == 0 {
            let built = Arc::new(build(self.kinds, shared.threads as u32));
            self.builds
                .push((now_ns() - t0) as f64 / self.kinds.len() as f64);
            *shared.built.lock().unwrap() = Some(built);
        }
        shared.control.wait();
        let built = Arc::clone(
            shared
                .built
                .lock()
                .unwrap()
                .as_ref()
                .expect("thread 0 published the barriers"),
        );
        for b in &built.barriers {
            b.waiter(self.tid as u32).wait();
        }
        shared.control.wait();
        if self.tid == 0 {
            self.setups.push((now_ns() - t0) as f64 * 1e-9);
        }
        built
    }
}

/// What thread 0 accumulates for one kind.
#[derive(Default)]
struct KindAcc {
    blocks: Blocks,
    arrive_phase: Vec<u64>,
    notify_phase: Vec<u64>,
    /// Thread time inside `wait()` and in total, over stamped segments.
    wait_ns: u64,
    thread_ns: u64,
    unsafe_episodes: u64,
    book_rate: f64,
    last_stamps: Vec<Vec<Crossing>>,
    last_start_ns: Vec<u64>,
}

/// Lines the threads up between segments, off the clock. It spins and
/// yields and never sleeps: a futex wake-up tends to put the woken
/// thread on the waker's core, and the next segment would then start
/// with both threads sharing one.
struct ControlBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl ControlBarrier {
    fn new(threads: usize) -> Self {
        ControlBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            std::hint::spin_loop();
            spins += 1;
            if spins.is_multiple_of(128) {
                std::thread::yield_now();
            }
        }
    }
}

struct Shared {
    threads: usize,
    control: ControlBarrier,
    /// Thread 0's "this chunk is the last" decision; see `unstamped`.
    stop: AtomicBool,
    /// Each thread's stamps of the segment just finished.
    stamps: Vec<Mutex<(u64, Vec<Crossing>)>>,
    /// Segments finished; the watchdog watches it move.
    progress: AtomicU64,
    /// The barriers of the set-up repetition in flight.
    built: Mutex<Option<Arc<Built>>>,
}

/// What thread 0 hands back.
struct Lead {
    accs: Vec<KindAcc>,
    setups: Vec<f64>,
    builds: Vec<f64>,
}

fn run(
    ctx: &Ctx,
    name: &str,
    model: Option<WorkModel>,
    stamped_episodes: u64,
    chunk: u64,
) -> Report {
    let threads = ctx.host.threads;
    ctx.host.admit(name, threads);
    let kinds = if ctx.traced {
        &KINDS[..]
    } else {
        &KINDS[..GATED]
    };
    let mut report = Report::default();

    let shared = Shared {
        threads,
        control: ControlBarrier::new(threads),
        stop: AtomicBool::new(false),
        stamps: (0..threads).map(|_| Mutex::new((0, Vec::new()))).collect(),
        progress: AtomicU64::new(0),
        built: Mutex::new(None),
    };
    let blocks = ctx.blocks();
    let (lead, counts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (shared, model) = (&shared, model.as_ref());
                s.spawn(move || {
                    let mut set_ups = SetUps {
                        tid,
                        shared,
                        kinds,
                        setups: Vec::new(),
                        builds: Vec::new(),
                    };
                    // The first set-up's barriers are the run's.
                    let built = set_ups.rep();
                    let waiters = built
                        .barriers
                        .iter()
                        .map(|b| b.waiter(tid as u32))
                        .collect();
                    let (lead, crossed) = Participant {
                        tid,
                        shared,
                        built: &built,
                        set_ups,
                        model,
                        waiters,
                        stamped_episodes,
                        chunk,
                        episode: vec![0; built.barriers.len()],
                        crossed: 0,
                    }
                    .run(ctx, blocks);
                    (lead, crossed, built)
                })
            })
            .collect();
        watch(&shared, &handles);
        let mut lead = None;
        let mut counts = Vec::new();
        for h in handles {
            match h.join() {
                Ok((l, crossed, built)) => {
                    counts.push(crossed);
                    lead = lead.or(l.map(|l| (l, built)));
                }
                Err(_) => counts.push(u64::MAX),
            }
        }
        (lead, counts)
    });

    report.attempted = counts
        .iter()
        .copied()
        .filter(|&c| c != u64::MAX)
        .max()
        .unwrap_or(0);
    if counts.iter().any(|&c| c != counts[0]) {
        report.fail(
            1,
            format!("threads crossed unequal episode counts: {counts:?}"),
        );
    }
    let Some((lead, built)) = lead else {
        report.fail(1, "thread 0 panicked");
        return report;
    };
    report.set("setup_s", Summary::of_blocks(&lead.setups));
    report.set("rt.build_ns", Summary::of_blocks(&lead.builds));
    fold(ctx, kinds, lead.accs, &mut report);
    if ctx.traced {
        book_metrics(&built.books, &mut report);
        layer_rungs(model.as_ref(), &mut report);
    }
    report
}

/// The main thread's only job besides joining: notice a hung barrier
/// and stop the process instead of hanging the driver.
fn watch<T>(shared: &Shared, handles: &[std::thread::ScopedJoinHandle<'_, T>]) {
    let mut seen = (
        shared.progress.load(Ordering::Relaxed),
        std::time::Instant::now(),
    );
    while !handles.iter().all(|h| h.is_finished()) {
        std::thread::sleep(Duration::from_millis(50));
        let now = shared.progress.load(Ordering::Relaxed);
        if now != seen.0 {
            seen = (now, std::time::Instant::now());
        } else if seen.1.elapsed() > WATCHDOG {
            eprintln!("rt.timeouts: no barrier progress for {WATCHDOG:?}; giving up");
            std::process::exit(1);
        }
    }
}

struct Participant<'a> {
    tid: usize,
    shared: &'a Shared,
    built: &'a Built,
    set_ups: SetUps<'a>,
    model: Option<&'a WorkModel>,
    waiters: Vec<AnyWaiter<'a>>,
    stamped_episodes: u64,
    /// Episodes between two looks at the clock in an unstamped segment.
    chunk: u64,
    /// Next episode number per kind: the work schedule's key.
    episode: Vec<u32>,
    crossed: u64,
}

impl Participant<'_> {
    #[inline]
    fn work(&mut self, kind: usize) {
        let e = self.episode[kind];
        self.episode[kind] = e.wrapping_add(1);
        if let Some(m) = self.model {
            let slow = self.tid + 1 == self.shared.threads;
            busy_work(
                m.work_iters(e, self.tid as u32, ITERS_PER_US)
                    + if slow { SLOW_THREAD_EXTRA_ITERS } else { 0 },
            );
        }
    }

    /// Crossings of `kind` with no stamps inside, for about
    /// `budget_ns`. Returns the episode count and elapsed ns.
    ///
    /// The threads must all stop at the same episode, so the decision
    /// rides the barrier under test: every `chunk` episodes thread 0
    /// writes the flag before it arrives and everyone reads it after
    /// the release, which orders the two. One clock read per chunk. The
    /// chunk must be at least two episodes: thread 0 then cannot write
    /// the next decision before a slow thread has read this one, because
    /// the crossing in between needs that thread's arrival.
    fn unstamped(&mut self, kind: usize, budget_ns: u64) -> (u64, u64) {
        let t0 = now_ns();
        let mut n = 0;
        loop {
            if self.tid == 0 {
                let stop = now_ns() - t0 >= budget_ns;
                self.shared.stop.store(stop, Ordering::Release);
            }
            self.work(kind);
            self.waiters[kind].wait();
            n += 1;
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            for _ in 1..self.chunk {
                self.work(kind);
                self.waiters[kind].wait();
            }
            n += self.chunk - 1;
        }
        self.crossed += n;
        (n, now_ns() - t0)
    }

    /// `n` crossings stamped before and after `wait()`, deposited for
    /// thread 0. Returns elapsed ns.
    fn stamped(&mut self, kind: usize, n: u64) -> u64 {
        let mut stamps = std::mem::take(&mut self.shared.stamps[self.tid].lock().unwrap().1);
        stamps.clear();
        let t0 = now_ns();
        for _ in 0..n {
            self.work(kind);
            let arrived_ns = now_ns();
            self.waiters[kind].wait();
            stamps.push(Crossing {
                arrived_ns,
                released_ns: now_ns(),
            });
        }
        let elapsed = now_ns() - t0;
        self.crossed += n;
        *self.shared.stamps[self.tid].lock().unwrap() = (t0, stamps);
        elapsed
    }

    fn run(mut self, ctx: &Ctx, blocks: usize) -> (Option<Lead>, u64) {
        let kinds = self.waiters.len();
        let lead = self.tid == 0;
        let mut accs: Vec<KindAcc> = (0..kinds).map(|_| KindAcc::default()).collect();

        // Every kind gets an equal slice of each block: a fixed count
        // of stamped episodes, and unstamped ones for the rest of it.
        let slice_ns = (ctx.block_seconds() / kinds as f64 * 1e9) as u64;
        let mut stamped_ns = vec![0u64; kinds];

        // Block 0 is the warm-up: measured like the rest, then dropped.
        for block in 0..=blocks {
            // Set-up is repeated a few times before every block, its
            // barriers dropped, and not two hundred times at the start:
            // a set-up takes microseconds and this host's speed drifts
            // from second to second, so repetitions packed into 3 ms
            // all see one speed.
            for _ in 0..SETUP_REPS_PER_BLOCK {
                self.set_ups.rep();
            }
            for k in 0..kinds {
                self.shared.control.wait();
                let budget = slice_ns.saturating_sub(stamped_ns[k]);
                let (n, plain_ns) = self.unstamped(k, budget);
                stamped_ns[k] = self.stamped(k, self.stamped_episodes);
                self.shared.control.wait();
                if lead {
                    self.shared.progress.fetch_add(1, Ordering::Relaxed);
                    if block > 0 {
                        self.collect(&mut accs[k], n, plain_ns, stamped_ns[k]);
                    }
                }
            }
        }

        if ctx.traced {
            for (k, acc) in accs.iter_mut().enumerate() {
                self.shared.control.wait();
                let guard = self.built.barriers[k].attach(self.tid as u32);
                let t0 = now_ns();
                for _ in 0..BOOK_EPISODES {
                    self.work(k);
                    self.waiters[k].wait();
                }
                let ns = now_ns() - t0;
                drop(guard);
                self.crossed += BOOK_EPISODES;
                acc.book_rate = BOOK_EPISODES as f64 / (ns as f64 * 1e-9);
            }
            self.shared.control.wait();
        }
        let lead = lead.then_some(Lead {
            accs,
            setups: self.set_ups.setups,
            builds: self.set_ups.builds,
        });
        (lead, self.crossed)
    }

    /// Thread 0, between segments: fold everyone's stamps into `acc`.
    fn collect(&self, acc: &mut KindAcc, n: u64, plain_ns: u64, stamped_ns: u64) {
        let mut starts = Vec::with_capacity(self.shared.threads);
        let stamps: Vec<Vec<Crossing>> = self
            .shared
            .stamps
            .iter()
            .map(|m| {
                let guard = m.lock().unwrap();
                starts.push(guard.0);
                guard.1.clone()
            })
            .collect();
        let delays = episode_delays(&stamps);
        acc.blocks.unstamped(n, plain_ns);
        let sync: Vec<u64> = delays.iter().map(|d| d.sync_ns).collect();
        acc.blocks.stamped(&sync, stamped_ns);
        acc.arrive_phase
            .extend(delays.iter().map(|d| d.arrive_phase_ns));
        acc.notify_phase
            .extend(delays.iter().map(|d| d.notify_phase_ns));
        acc.unsafe_episodes += delays.iter().filter(|d| !d.safe).count() as u64;
        for s in &stamps {
            acc.wait_ns += s.iter().map(|c| c.released_ns - c.arrived_ns).sum::<u64>();
        }
        acc.thread_ns += stamped_ns * self.shared.threads as u64;
        acc.last_stamps = stamps;
        acc.last_start_ns = starts;
    }
}

/// Turns thread 0's accumulators into metrics, checks and spans.
fn fold(ctx: &Ctx, kinds: &[Kind], mut accs: Vec<KindAcc>, report: &mut Report) {
    for (Kind { name, .. }, acc) in kinds.iter().zip(&accs) {
        if acc.unsafe_episodes > 0 {
            report.fail(
                acc.unsafe_episodes,
                format!("{name}: {} episodes released a thread before the last arrival (phase skew > 1)", acc.unsafe_episodes),
            );
        }
    }

    // Pool the gated kinds block by block.
    let mut pooled = Blocks::default();
    let blocks = accs[0].blocks.rates.len();
    let per_block = accs[0].blocks.delays.len() / blocks.max(1);
    for b in 0..blocks {
        let seconds = |rates: &dyn Fn(&Blocks) -> f64| -> f64 {
            accs[..GATED].iter().map(|a| 1.0 / rates(&a.blocks)).sum()
        };
        // Equal episodes per kind: the pooled rate is kinds / Σ(1/rate).
        pooled.rates.push(GATED as f64 / seconds(&|bl| bl.rates[b]));
        pooled
            .stamped_rates
            .push(GATED as f64 / seconds(&|bl| bl.stamped_rates[b]));
        let mut delays: Vec<u64> = accs[..GATED]
            .iter()
            .flat_map(|a| {
                a.blocks.delays[b * per_block..(b + 1) * per_block]
                    .iter()
                    .copied()
            })
            .collect();
        pooled.p50s.push(percentile_of(&mut delays, 50.0) as f64);
        pooled.delays.append(&mut delays);
    }
    pooled.report(report);
    pooled.report_stamping_overhead(report);

    let phase_p50 = |pick: &dyn Fn(&KindAcc) -> &Vec<u64>| -> Summary {
        let per_block: Vec<f64> = (0..blocks)
            .map(|b| {
                let mut v: Vec<u64> = accs[..GATED]
                    .iter()
                    .flat_map(|a| pick(a)[b * per_block..(b + 1) * per_block].iter().copied())
                    .collect();
                percentile_of(&mut v, 50.0) as f64
            })
            .collect();
        Summary::of_blocks(&per_block)
    };
    report.set("rt.arrive_phase_p50_ns", phase_p50(&|a| &a.arrive_phase));
    report.set("rt.notify_phase_p50_ns", phase_p50(&|a| &a.notify_phase));
    let wait: u64 = accs[..GATED].iter().map(|a| a.wait_ns).sum();
    let total: u64 = accs[..GATED].iter().map(|a| a.thread_ns).sum();
    report.set_value("rt.wait_share", wait as f64 / total.max(1) as f64);
    report.set_value("rt.timeouts", 0.0);

    if !ctx.traced {
        return;
    }
    for (k, acc) in kinds.iter().zip(&accs) {
        report.set(k.rate, acc.blocks.episodes_per_s());
        report.set(k.p50, acc.blocks.sync_delay_p50_ns());
    }
    let plain: f64 = accs[..GATED]
        .iter()
        .map(|a| 1.0 / a.blocks.episodes_per_s().median)
        .sum();
    let booked: f64 = accs[..GATED].iter().map(|a| 1.0 / a.book_rate).sum();
    report.set_value("trace.overhead_pct", (booked - plain) / plain * 100.0);
    for acc in accs.iter_mut().take(GATED) {
        spans_of(acc, report);
    }
    report.check_spans();
}

/// Counters and critical depth from the books filled while attached.
fn book_metrics(books: &[Arc<TraceBook>], report: &mut Report) {
    let mut counters = combar_trace::Counters::default();
    let (mut depth, mut episodes, mut dropped) = (0u64, 0u64, 0u64);
    for book in &books[..GATED] {
        counters.merge(&book.counters());
        dropped += book.dropped();
        for path in combar_trace::critical_paths(&book.drain()) {
            depth += u64::from(path.depth());
            episodes += 1;
        }
    }
    // Counters are summed over threads; an episode is one crossing by
    // all of them.
    let crossed = (BOOK_EPISODES * GATED as u64) as f64;
    report.set_value("rt.spins_per_episode", counters.spins as f64 / crossed);
    report.set_value("rt.yields_per_episode", counters.yields as f64 / crossed);
    report.set_value(
        "rt.cas_failures_per_episode",
        counters.cas_failures as f64 / crossed,
    );
    report.set_value(
        "rt.critical_depth_mean",
        depth as f64 / episodes.max(1) as f64,
    );
    report.set_value("trace.events_dropped", dropped as f64);
}

/// `workload → episode → {work, wait → {arrive_phase, notify_phase}}`
/// for the first `SPAN_EPISODES` of a kind's last stamped segment. A
/// wait's own time is what the thread spent waiting for the last
/// arriver; `arrive_phase` is the last arriver's combine, overlapped on
/// every waiter; `notify_phase` is the release reaching this thread.
fn spans_of(acc: &mut KindAcc, report: &mut Report) {
    let stamps = std::mem::take(&mut acc.last_stamps);
    let n = SPAN_EPISODES.min(stamps[0].len());
    let delays = episode_delays(&stamps.iter().map(|s| s[..n].to_vec()).collect::<Vec<_>>());
    let base = report.spans.len() as u64;
    let (mut first, mut last) = (u64::MAX, 0);
    for (tid, s) in stamps.iter().enumerate() {
        let start = acc.last_start_ns[tid];
        let end = s[n - 1].released_ns;
        first = first.min(start);
        last = last.max(end);
        let root = report
            .spans
            .push("workload", (start, end), None, base, tid as u32);
        let mut prev = start;
        for (e, c) in s[..n].iter().enumerate() {
            let id = base + e as u64;
            let l = stamps[delays[e].last_arriver][e];
            let ep =
                report
                    .spans
                    .push("episode", (prev, c.released_ns), Some(root), id, tid as u32);
            report
                .spans
                .push("work", (prev, c.arrived_ns), Some(ep), id, tid as u32);
            let wait = report.spans.push(
                "wait",
                (c.arrived_ns, c.released_ns),
                Some(ep),
                id,
                tid as u32,
            );
            let arrive = (
                l.arrived_ns.max(c.arrived_ns),
                l.released_ns.min(c.released_ns),
            );
            if arrive.1 > arrive.0 {
                report
                    .spans
                    .push("arrive_phase", arrive, Some(wait), id, tid as u32);
            }
            let notify = (l.released_ns.max(c.arrived_ns), c.released_ns);
            if notify.1 > notify.0 {
                report
                    .spans
                    .push("notify_phase", notify, Some(wait), id, tid as u32);
            }
            prev = c.released_ns;
        }
    }
    report.span_wall_ns += (last - first) * stamps.len() as u64;
}

/// The `work` layer's two rungs, priced on this host in this process.
fn layer_rungs(model: Option<&WorkModel>, report: &mut Report) {
    let Some(model) = model else { return };
    super::report_busy_ns_per_iter(report);
    const DRAWS: u32 = 2_000_000;
    let t0 = now_ns();
    let mut sum = 0u64;
    for e in 0..DRAWS {
        sum += u64::from(model.work_iters(e, e & 1, ITERS_PER_US));
    }
    std::hint::black_box(sum);
    report.set_value("work.draw_ns", (now_ns() - t0) as f64 / f64::from(DRAWS));
}
