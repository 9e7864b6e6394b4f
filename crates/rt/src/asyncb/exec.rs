//! The in-tree executor, timer, and `block_on` bridge for the async
//! epoch runtime: ≥ 1M logical participants over ≤ 8 *driver* OS
//! threads, zero dependencies, no `unsafe`.
//!
//! The executor is built around the barrier's notification phase, where
//! one poll (the releaser's) wakes every other task at once:
//!
//! * a [`Task`] is `Arc<{Mutex<Option<BoxFuture>>, queued flag}>`; the
//!   `queued` flag dedupes concurrent wakes, so a batch release waking
//!   the same task through several stale wakers costs one requeue and
//!   one poll;
//! * **queues**: every driver owns a local FIFO; one shared *injector*
//!   is the door for spawns, for wakes issued off the driver threads
//!   ([`Timer`], `block_on` callers, test threads) and for the tasks a
//!   killed driver leaves behind. A driver moves tasks to a private
//!   chunk (at most `CHUNK` per lock, and never more than its fair
//!   share of a short queue) and polls the chunk without touching a
//!   lock; every refill looks at its own queue *and* the injector, so a
//!   local stream of re-wakes cannot starve a spawn;
//! * **wake routing**: a wake issued on a driver thread for one of its
//!   executor's tasks goes into that thread's *wake buffer*, not into a
//!   lock. `AsyncBarrier`'s release fan-out closes the buffer once per
//!   shard (`close_wake_batch`), which puts the whole shard batch on
//!   **one** driver's queue in one transaction; successive batches
//!   rotate over the live drivers, so each driver resumes the tasks of
//!   its own shards and two drivers do not meet on one shard lock.
//!   Whatever a poll leaves in the buffer (a `yield_now`, a handful of
//!   ad-hoc wakes) goes to the polling driver's own queue when the poll
//!   returns — a buffered wake is therefore visible to the other
//!   drivers at the latest when the poll that issued it ends;
//! * **stealing**: a driver that finds its queue and the injector empty
//!   takes the back half of the first non-empty peer queue;
//! * **sleeping**: a driver with nothing to take parks on one condvar
//!   (20 ms safety timeout). An enqueue notifies only when the
//!   `sleepers` count says somebody is parked, and a driver that leaves
//!   work behind after a refill passes the notification on;
//! * a panicking task is counted and dropped, never unwound into the
//!   driver loop;
//! * [`Executor::kill_driver`] makes one driver exit cooperatively —
//!   the chaos hook for "driver-thread death". The dying driver closes
//!   its queue under the queue lock and hands its chunk and queue to
//!   the injector; a batch routed at a closed queue moves on to the
//!   next live driver, so nothing strands;
//! * [`Executor::stats`] exposes relaxed event counters (no clock
//!   reads) for count-based tests and attribution;
//! * [`Timer`] is one hierarchical timing wheel
//!   ([`combar_des::TickWheel`], ~1 ms ticks) + one thread delivering
//!   deadline wakes — the recovery path that turns a *lost* wakeup
//!   into a bounded retry instead of a hang, and the pacing primitive
//!   the session multiplexer sleeps on; insertion is O(1) where the
//!   old binary heap paid O(log n) per deadline at 10⁶ sleepers;
//! * [`block_on`] adapts any future to the synchronous
//!   [`crate::barrier::Waiter`] contract with a Mutex+Condvar parker,
//!   re-polling at the deadline so a bounded wait observes
//!   [`crate::BarrierError::Timeout`] even if no wake ever arrives.
//!
//! Everything here uses plain `std` primitives, *not* the
//! [`crate::sync`] facade: the executor is scheduling machinery, not
//! barrier protocol state, and model-checked fixtures drive
//! [`super::AsyncWaiter::poll_wait`] manually on virtual threads
//! instead of through an executor.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::pad::CachePadded;
use crate::spin::Deadline;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;
type TaskQueue = VecDeque<Arc<Task>>;

/// Most tasks a driver moves to its private chunk under one lock.
const CHUNK: usize = 64;
/// Buffered wakes after which a poll's first batch is routed without
/// waiting for the batch to close, so the first resume of a release
/// does not wait for a whole shard to be walked (`async_64k`: 37 µs
/// from last arrival to first resume with it, 250+ µs without).
const EARLY_FLUSH: usize = 128;
/// How long a parked driver sleeps before it looks again unprompted.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// One spawned logical participant: the future plus its requeue state.
struct Task {
    fut: Mutex<Option<BoxFuture>>,
    queued: AtomicBool,
    exec: Weak<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        // Dedupe: only the first wake between polls enqueues. The
        // driver clears the flag *before* polling, so a wake landing
        // mid-poll re-enqueues and the task is polled again — the
        // standard no-lost-wakeup handshake.
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        // On one of this executor's driver threads the wake joins the
        // thread's buffer; anywhere else it takes the injector.
        let exec = self.exec.as_ptr();
        let mut task = Some(self);
        with_driver(|ctx| {
            if std::ptr::eq(Arc::as_ptr(&ctx.shared), exec) {
                ctx.buffer(task.take().expect("taken only here"));
            }
        });
        if let Some(task) = task {
            if let Some(exec) = task.exec.upgrade() {
                exec.inject(task);
            }
        }
    }
}

/// A driver thread's side of the wake path, kept in a thread-local so
/// [`Task::wake`] can find it.
struct DriverCtx {
    shared: Arc<Shared>,
    me: usize,
    /// Wakes issued during the current poll that are on no queue yet.
    buf: Vec<Arc<Task>>,
    /// The driver the next closed batch goes to.
    cursor: usize,
    /// The current poll has routed its early first chunk.
    early_done: bool,
}

thread_local! {
    static DRIVER: RefCell<Option<DriverCtx>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's driver context. `None` off the
/// driver threads, with the context already borrowed, or with the
/// thread-local gone at thread exit.
fn with_driver<R>(f: impl FnOnce(&mut DriverCtx) -> R) -> Option<R> {
    DRIVER
        .try_with(|d| d.try_borrow_mut().ok()?.as_mut().map(f))
        .ok()
        .flatten()
}

impl DriverCtx {
    fn buffer(&mut self, task: Arc<Task>) {
        self.buf.push(task);
        if !self.early_done && self.buf.len() >= EARLY_FLUSH {
            self.early_done = true;
            self.route(false);
        }
    }

    /// Puts the buffer on the cursor driver's queue in one transaction.
    /// `close` ends the batch: the cursor moves on, so the next batch
    /// goes to the next live driver.
    fn route(&mut self, close: bool) {
        if self.buf.is_empty() {
            return;
        }
        let n = self.shared.locals.len();
        // A live driver always exists (the last one cannot be killed)
        // and its queue is open, so one lap finds a target; whatever
        // stays buffered goes to this driver's own queue at `end_poll`.
        for _ in 0..n {
            let target = &self.shared.locals[self.cursor % n];
            if !target.killed.load(Ordering::Acquire)
                && target.push_batch(&self.shared, &mut self.buf)
            {
                if close {
                    self.cursor += 1;
                }
                return;
            }
            self.cursor += 1;
        }
    }

    /// After a poll: what the poll left buffered goes to this driver's
    /// own queue (open for as long as the driver runs).
    fn end_poll(&mut self) {
        self.early_done = false;
        if !self.buf.is_empty() {
            let pushed = self.shared.locals[self.me].push_batch(&self.shared, &mut self.buf);
            debug_assert!(pushed, "a running driver's queue is open");
        }
    }
}

/// Closes the calling driver thread's wake buffer as one batch (see the
/// module docs); a no-op on any other thread, whose wakes went to the
/// injector one by one.
pub(super) fn close_wake_batch() {
    with_driver(|ctx| ctx.route(true));
}

/// One driver's queue and flags, on its own cache line.
struct Local {
    queue: Mutex<LocalQueue>,
    /// Cooperative kill flag (chaos: driver death).
    killed: AtomicBool,
    /// Polls this driver has finished.
    polls: AtomicU64,
}

struct LocalQueue {
    tasks: TaskQueue,
    /// The owner exited (killed) and drained the queue for the last
    /// time. Set and read under the queue lock, so a batch can never
    /// land behind the final drain.
    closed: bool,
}

impl Local {
    /// Appends `batch` unless the queue is closed.
    fn push_batch(&self, shared: &Shared, batch: &mut Vec<Arc<Task>>) -> bool {
        {
            let mut q = self.queue.lock().unwrap();
            if q.closed {
                return false;
            }
            q.tasks.extend(batch.drain(..));
        }
        shared.enqueued();
        true
    }
}

/// Event counters of one [`Executor`], all relaxed: each is exact once
/// the executor is idle, and none reads a clock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Polls of a future that have returned (a stale requeue of a
    /// finished task is not one).
    pub polls: u64,
    /// Lock acquisitions that put tasks on a run queue: one per spawn,
    /// one per wake from a non-driver thread, one per wake batch (routed
    /// at its close or left at the end of a poll), one per killed
    /// driver's hand-over. Chunk pops and steals are not counted.
    pub queue_transactions: u64,
    /// Condvar notifications issued because a driver was parked.
    pub notifies: u64,
    /// Times an idle driver took half of a peer's queue.
    pub steals: u64,
    /// Tasks a killed driver handed to the injector.
    pub migrated: u64,
}

#[derive(Default)]
struct Counters {
    queue_transactions: AtomicU64,
    notifies: AtomicU64,
    steals: AtomicU64,
    migrated: AtomicU64,
}

/// State shared by the drivers and the [`Executor`] handle.
struct Shared {
    injector: Mutex<TaskQueue>,
    locals: Box<[CachePadded<Local>]>,
    /// Drivers parked (or about to park) on `ready`. A driver raises
    /// it while holding `sleep` and *then* looks at the queues once
    /// more; an enqueuer looks at it *after* its queue lock is
    /// released. Whichever of the two queue-lock sections comes second
    /// sees the other side's write, so either the driver finds the task
    /// or the enqueuer finds the sleeper.
    sleepers: AtomicUsize,
    /// Held by a driver from raising `sleepers` until it waits, and by
    /// whoever notifies `ready`: a notification cannot fall between a
    /// driver's last look and its wait. Also serializes kills.
    sleep: Mutex<()>,
    ready: Condvar,
    shutdown: AtomicBool,
    /// Spawned minus completed tasks.
    active: AtomicU64,
    /// Tasks that completed by panicking (counted, not propagated).
    panics: AtomicU64,
    idle: Condvar,
    idle_lock: Mutex<()>,
    stats: Counters,
}

impl Shared {
    fn inject(&self, task: Arc<Task>) {
        self.inject_batch(std::iter::once(task));
    }

    fn inject_batch(&self, tasks: impl IntoIterator<Item = Arc<Task>>) {
        self.injector.lock().unwrap().extend(tasks);
        self.enqueued();
    }

    /// Bookkeeping after any enqueue, outside the queue lock.
    fn enqueued(&self) {
        self.stats
            .queue_transactions
            .fetch_add(1, Ordering::Relaxed);
        self.notify_if_asleep();
    }

    fn notify_if_asleep(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _sleep = self.sleep.lock().unwrap();
            self.ready.notify_one();
            self.stats.notifies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Moves a driver's share of `from` to its chunk: at most `CHUNK`,
    /// and of a short queue only one driver's part, so a few heavy
    /// tasks spread over the drivers instead of riding in one chunk.
    /// Returns whether `from` still holds tasks.
    fn take(&self, from: &mut TaskQueue, chunk: &mut TaskQueue) -> bool {
        let n = from.len().div_ceil(self.locals.len()).min(CHUNK);
        chunk.extend(from.drain(..n));
        !from.is_empty()
    }

    /// Refills `chunk` from the driver's own queue and the injector,
    /// else by stealing. Returns whether work was left behind that a
    /// parked driver could take.
    fn refill(&self, me: usize, chunk: &mut TaskQueue) -> bool {
        let mut more = self.take(&mut self.locals[me].queue.lock().unwrap().tasks, chunk);
        more |= self.take(&mut self.injector.lock().unwrap(), chunk);
        if chunk.is_empty() {
            more = self.steal(me, chunk);
        }
        more
    }

    /// Takes the back half of the first non-empty peer queue: a chunk
    /// of it to poll now, the rest onto the thief's own queue.
    fn steal(&self, me: usize, chunk: &mut TaskQueue) -> bool {
        let n = self.locals.len();
        for k in 1..n {
            let mut stolen = {
                let mut victim = self.locals[(me + k) % n].queue.lock().unwrap();
                if victim.tasks.is_empty() {
                    continue;
                }
                let keep = victim.tasks.len() / 2;
                victim.tasks.split_off(keep)
            };
            self.stats.steals.fetch_add(1, Ordering::Relaxed);
            let more = self.take(&mut stolen, chunk);
            if more {
                let mut own = self.locals[me].queue.lock().unwrap();
                own.tasks.append(&mut stolen);
            }
            return more;
        }
        false
    }

    /// Fills `chunk`, parking while there is nothing to take. Returns
    /// with an empty chunk after a wake-up, a time-out, or on shutdown
    /// or kill; the driver loop then looks at its flags again.
    fn next_chunk(&self, me: usize, chunk: &mut TaskQueue) {
        let mut more = self.refill(me, chunk);
        if chunk.is_empty() {
            let sleep = self.sleep.lock().unwrap();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            more = self.refill(me, chunk);
            if chunk.is_empty()
                && !self.shutdown.load(Ordering::Acquire)
                && !self.locals[me].killed.load(Ordering::Acquire)
            {
                drop(self.ready.wait_timeout(sleep, PARK_TIMEOUT).unwrap());
            } else {
                drop(sleep);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        if more {
            self.notify_if_asleep();
        }
    }

    /// A killed driver's last act: close its queue and hand the queue
    /// and its unpolled chunk to the injector. Its wake buffer is empty
    /// here — `end_poll` ran after the last poll.
    fn orphan(&self, me: usize, mut chunk: TaskQueue) {
        {
            let mut q = self.locals[me].queue.lock().unwrap();
            q.closed = true;
            chunk.append(&mut q.tasks);
        }
        self.stats
            .migrated
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        if !chunk.is_empty() {
            self.inject_batch(chunk);
        }
    }
}

/// A fixed pool of driver threads multiplexing parked logical
/// participants. Dropping the executor shuts the drivers down; any
/// still-pending tasks are dropped with it.
pub struct Executor {
    shared: Arc<Shared>,
    drivers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("drivers", &self.drivers.len())
            .field("active", &self.active())
            .finish()
    }
}

impl Executor {
    /// Starts `drivers` driver threads (at least one).
    pub fn new(drivers: usize) -> Self {
        let drivers = drivers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..drivers)
                .map(|_| {
                    CachePadded::new(Local {
                        queue: Mutex::new(LocalQueue {
                            tasks: VecDeque::new(),
                            closed: false,
                        }),
                        killed: AtomicBool::new(false),
                        polls: AtomicU64::new(0),
                    })
                })
                .collect(),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            idle: Condvar::new(),
            idle_lock: Mutex::new(()),
            stats: Counters::default(),
        });
        let handles = (0..drivers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("combar-driver-{i}"))
                    .spawn(move || drive(shared, i))
                    .expect("spawn driver thread")
            })
            .collect();
        Self {
            shared,
            drivers: handles,
        }
    }

    /// Spawns a logical participant.
    pub fn spawn<F>(&self, fut: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        let task = Arc::new(Task {
            fut: Mutex::new(Some(Box::pin(fut))),
            // Born queued: the initial push must not race a wake.
            queued: AtomicBool::new(true),
            exec: Arc::downgrade(&self.shared),
        });
        self.shared.inject(task);
    }

    /// Tasks spawned and not yet completed.
    pub fn active(&self) -> u64 {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Tasks that completed by panicking.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Acquire)
    }

    /// A snapshot of the event counters.
    pub fn stats(&self) -> ExecStats {
        let c = &self.shared.stats;
        ExecStats {
            polls: self
                .shared
                .locals
                .iter()
                .map(|l| l.polls.load(Ordering::Relaxed))
                .sum(),
            queue_transactions: c.queue_transactions.load(Ordering::Relaxed),
            notifies: c.notifies.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            migrated: c.migrated.load(Ordering::Relaxed),
        }
    }

    /// Number of driver threads still running (not killed).
    pub fn live_drivers(&self) -> usize {
        self.shared
            .locals
            .iter()
            .filter(|l| !l.killed.load(Ordering::Acquire))
            .count()
    }

    /// Cooperatively kills driver `i`: it exits after its current poll.
    /// Tasks it would have run drain on the surviving drivers. Returns
    /// `false` for an unknown or already-killed driver, or when it is
    /// the last driver alive (killing every driver would silently
    /// strand the task set).
    pub fn kill_driver(&self, i: usize) -> bool {
        let _sleep = self.shared.sleep.lock().unwrap();
        let Some(local) = self.shared.locals.get(i) else {
            return false;
        };
        if local.killed.load(Ordering::Acquire) || self.live_drivers() <= 1 {
            return false;
        }
        local.killed.store(true, Ordering::Release);
        self.shared.ready.notify_all();
        true
    }

    /// Blocks until every spawned task has completed, or the deadline
    /// passes. Returns whether the executor drained.
    pub fn wait_idle(&self, deadline: Deadline) -> bool {
        let mut guard = self.shared.idle_lock.lock().unwrap();
        loop {
            if self.shared.active.load(Ordering::Acquire) == 0 {
                return true;
            }
            let wait = match deadline.remaining() {
                Some(rem) if rem.is_zero() => return false,
                Some(rem) => rem.min(Duration::from_millis(50)),
                None => Duration::from_millis(50),
            };
            let (g, _timed_out) = self.shared.idle.wait_timeout(guard, wait).unwrap();
            guard = g;
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _sleep = self
                .shared
                .sleep
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.ready.notify_all();
        }
        for h in self.drivers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One driver thread's loop.
fn drive(shared: Arc<Shared>, me: usize) {
    DRIVER.with(|d| {
        *d.borrow_mut() = Some(DriverCtx {
            shared: Arc::clone(&shared),
            me,
            buf: Vec::new(),
            // A release's first batch goes to a peer: this driver is
            // busy walking the remaining shards.
            cursor: me + 1,
            early_done: false,
        });
    });
    let local = &shared.locals[me];
    let mut chunk = TaskQueue::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        if local.killed.load(Ordering::Acquire) {
            shared.orphan(me, std::mem::take(&mut chunk));
            break;
        }
        let Some(task) = chunk.pop_front() else {
            shared.next_chunk(me, &mut chunk);
            continue;
        };
        poll_task(&shared, local, &task);
        with_driver(DriverCtx::end_poll);
    }
    // Out of the thread-local first, then dropped: a future dropped
    // here may wake, and that wake must find the slot unborrowed.
    let ctx = DRIVER.with(|d| d.borrow_mut().take());
    drop(ctx);
}

fn poll_task(shared: &Shared, local: &Local, task: &Arc<Task>) {
    // Clear before polling: a wake arriving mid-poll re-enqueues.
    task.queued.store(false, Ordering::Release);
    let waker = Waker::from(Arc::clone(task));
    let mut cx = Context::from_waker(&waker);
    let mut fut_slot = task.fut.lock().unwrap();
    let Some(fut) = fut_slot.as_mut() else {
        return; // stale requeue of a completed task
    };
    let done = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
        Ok(Poll::Ready(())) => true,
        Ok(Poll::Pending) => false,
        Err(_) => {
            shared.panics.fetch_add(1, Ordering::AcqRel);
            true
        }
    };
    local.polls.fetch_add(1, Ordering::Relaxed);
    if done {
        *fut_slot = None;
        drop(fut_slot);
        if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = shared.idle_lock.lock().unwrap();
            shared.idle.notify_all();
        }
    }
}

/// Timer-wheel tick size: 2²⁰ ns ≈ 1.05 ms. Deadline wakes are
/// re-poll *hints* (the sleeping future re-checks its own clock), so
/// millisecond bucketing costs nothing semantically while making
/// registration O(1) instead of the heap's O(log n).
const TICK_SHIFT: u32 = 20;

/// The deadline store behind the timer lock: a hierarchical timing
/// wheel of coarse future deadlines plus an `imminent` side list with
/// precise `Instant`s.
///
/// Invariant: the wheel only holds entries whose tick is strictly
/// beyond its current tick *at insertion time*; anything at or before
/// current lands in `imminent`. The wheel's current tick only ever
/// advances to the earliest occupied bucket, so a late registration
/// can never be delayed by an earlier advance — it just rides the
/// side list, whose minimum bounds the next sleep exactly.
struct TimerWheel {
    base: Instant,
    wheel: combar_des::TickWheel<(Instant, Waker)>,
    imminent: Vec<(Instant, Waker)>,
    scratch: Vec<(Instant, Waker)>,
}

impl TimerWheel {
    fn new() -> Self {
        Self {
            base: Instant::now(),
            wheel: combar_des::TickWheel::new(),
            imminent: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.base).as_nanos() >> TICK_SHIFT) as u64
    }

    fn pending(&self) -> usize {
        self.wheel.len() + self.imminent.len()
    }

    fn insert(&mut self, at: Instant, waker: Waker) {
        let tick = self.tick_of(at);
        if tick <= self.wheel.current_tick() {
            self.imminent.push((at, waker));
        } else {
            self.wheel.insert(tick, (at, waker));
        }
    }

    /// Moves every waker due by `now` into `due` and returns the
    /// earliest pending deadline (a bucket's start is a lower bound
    /// for its entries, so sleeping until it never oversleeps).
    fn collect_due(&mut self, now: Instant, due: &mut Vec<Waker>) -> Option<Instant> {
        let mut i = 0;
        while i < self.imminent.len() {
            if self.imminent[i].0 <= now {
                due.push(self.imminent.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        let now_tick = self.tick_of(now);
        let mut keep = |_: &(Instant, Waker)| true;
        while let Some(tick) = self.wheel.next_event_tick(&mut keep) {
            if tick > now_tick {
                break;
            }
            self.wheel.drain_next(&mut keep, &mut self.scratch);
            for (at, waker) in self.scratch.drain(..) {
                if at <= now {
                    due.push(waker);
                } else {
                    self.imminent.push((at, waker));
                }
            }
        }
        let soon = self.imminent.iter().map(|&(at, _)| at).min();
        let wheel_next = self
            .wheel
            .next_event_tick(&mut keep)
            .map(|tick| self.base + Duration::from_nanos(tick.saturating_mul(1 << TICK_SHIFT)));
        match (soon, wheel_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

struct TimerShared {
    wheel: Mutex<TimerWheel>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// A deadline service: one thread, one timing wheel, many thousands
/// of *per-logical-participant* deadlines.
///
/// This is the structural fix the ISSUE's timing audit demands: a
/// bounded wait used to mean "this OS thread sleeps until the
/// deadline" ([`crate::spin::Deadline`] driven by the waiting thread's
/// own clock polling), which cannot work when thousands of logical
/// waiters share one driver thread. Here every parked waiter registers
/// `(deadline, waker)` and the timer wakes it for a re-poll; the
/// deadline belongs to the logical participant, never to whichever
/// driver happens to poll it.
///
/// Cloning shares the underlying service. The thread stops when the
/// last clone drops.
#[derive(Clone)]
pub struct Timer {
    shared: Arc<TimerShared>,
    _thread: Arc<TimerThread>,
}

struct TimerThread {
    shared: Arc<TimerShared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for TimerThread {
    fn drop(&mut self) {
        // Under the wheel lock: the timer thread looks at the flag with
        // the lock held just before it waits, so the store cannot fall
        // between that look and the wait and leave the notification
        // with nobody to hear it.
        {
            let _wheel = self
                .shared
                .wheel
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timer")
            .field("pending", &self.shared.wheel.lock().unwrap().pending())
            .finish()
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

impl Timer {
    /// Starts the timer thread.
    pub fn new() -> Self {
        let shared = Arc::new(TimerShared {
            wheel: Mutex::new(TimerWheel::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let s2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("combar-timer".into())
            .spawn(move || timer_loop(&s2))
            .expect("spawn timer thread");
        Self {
            _thread: Arc::new(TimerThread {
                shared: Arc::clone(&shared),
                handle: Mutex::new(Some(handle)),
            }),
            shared,
        }
    }

    /// Registers `waker` to be woken at (or shortly after) `at`.
    /// Registering the same waker repeatedly is fine — spurious wakes
    /// are part of the polling contract.
    pub fn register(&self, at: Instant, waker: Waker) {
        self.shared.wheel.lock().unwrap().insert(at, waker);
        self.shared.cv.notify_one();
    }

    /// A future that resolves at `at`.
    pub fn sleep_until(&self, at: Instant) -> Sleep {
        Sleep {
            timer: self.clone(),
            at,
        }
    }

    /// A future that resolves after `dur`.
    pub fn sleep(&self, dur: Duration) -> Sleep {
        self.sleep_until(Instant::now() + dur)
    }
}

fn timer_loop(shared: &TimerShared) {
    let mut due: Vec<Waker> = Vec::new();
    let mut wheel = shared.wheel.lock().unwrap();
    loop {
        // The flag and the wheel are read under the lock that
        // `TimerThread::drop` and `register` write under, and the lock
        // is held from here to the wait: neither a shutdown nor an
        // earlier deadline can slip in unheard.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        let wait = match wheel.collect_due(now, &mut due) {
            Some(at) => at.saturating_duration_since(now),
            None => Duration::from_millis(50),
        };
        if due.is_empty() {
            wheel = shared.cv.wait_timeout(wheel, wait).unwrap().0;
        } else {
            // Wake outside the wheel lock: a wake may synchronously
            // re-register.
            drop(wheel);
            for w in due.drain(..) {
                w.wake();
            }
            wheel = shared.wheel.lock().unwrap();
        }
    }
}

/// Future returned by [`Timer::sleep_until`].
#[derive(Debug)]
pub struct Sleep {
    timer: Timer,
    at: Instant,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.at {
            return Poll::Ready(());
        }
        self.timer.register(self.at, cx.waker().clone());
        // Re-check: the deadline may have passed between the test and
        // the registration racing the timer thread's sweep.
        if Instant::now() >= self.at {
            return Poll::Ready(());
        }
        Poll::Pending
    }
}

/// Future returned by [`yield_now`]: pending exactly once.
#[derive(Debug, Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            return Poll::Ready(());
        }
        self.yielded = true;
        // Wake-before-pending: the task goes straight back on the run
        // queue, behind everything already queued.
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Cooperatively yields the current task back to its driver.
///
/// The executor is cooperative: a task that loops without awaiting
/// starves every other task on its driver. Long-running multiplexer
/// loops (one task driving many sessions) await this between rounds so
/// peers interleave even on a single driver.
pub fn yield_now() -> YieldNow {
    YieldNow::default()
}

/// The `block_on` parker: one Mutex+Condvar token per blocking call.
struct Parker {
    lock: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        *self.lock.lock().unwrap() = true;
        self.cv.notify_one();
    }
}

/// Runs a future to completion on the calling OS thread.
///
/// This is the bridge that lets [`super::AsyncWaiter`] satisfy the
/// synchronous [`crate::barrier::Waiter`] contract: `wait_timeout`
/// builds a deadline-carrying wait future and blocks on it here. The
/// parker re-polls when woken *and* at `deadline`, so a future whose
/// wakeup was lost (or that needs to report [`super::AsyncWaiter`]'s
/// timeout) is guaranteed a poll at the deadline without any timer
/// thread involved.
pub fn block_on<F: Future>(fut: F, deadline: Deadline) -> F::Output {
    let parker = Arc::new(Parker {
        lock: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        let mut notified = parker.lock.lock().unwrap();
        while !*notified {
            match deadline.remaining() {
                Some(rem) if rem.is_zero() => break, // deadline poll
                Some(rem) => {
                    let (g, _t) = parker.cv.wait_timeout(notified, rem).unwrap();
                    notified = g;
                    if deadline.expired() {
                        break;
                    }
                }
                None => {
                    notified = parker.cv.wait(notified).unwrap();
                }
            }
        }
        *notified = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 42 }, Deadline::never()), 42);
    }

    #[test]
    fn executor_runs_tasks_to_completion() {
        let exec = Executor::new(2);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            exec.spawn(async move {
                hits.fetch_add(1, Ordering::AcqRel);
            });
        }
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(10))));
        assert_eq!(hits.load(Ordering::Acquire), 64);
        assert_eq!(exec.panics(), 0);
    }

    #[test]
    fn panicking_task_is_counted_not_propagated() {
        let exec = Executor::new(1);
        exec.spawn(async { panic!("task panic") });
        exec.spawn(async {});
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(10))));
        assert_eq!(exec.panics(), 1);
    }

    /// A resettable one-shot door a test thread opens for a task.
    #[derive(Default)]
    struct Gate {
        open: AtomicBool,
        waker: Mutex<Option<Waker>>,
    }

    impl Gate {
        fn open(&self) {
            self.open.store(true, Ordering::Release);
            if let Some(w) = self.waker.lock().unwrap().take() {
                w.wake();
            }
        }

        async fn pass(&self) {
            std::future::poll_fn(|cx| {
                if self.open.swap(false, Ordering::AcqRel) {
                    return Poll::Ready(());
                }
                *self.waker.lock().unwrap() = Some(cx.waker().clone());
                if self.open.swap(false, Ordering::AcqRel) {
                    return Poll::Ready(());
                }
                Poll::Pending
            })
            .await
        }
    }

    /// Pending once, with a clone of the task's waker left in `stash`.
    async fn park_in(stash: &Mutex<Vec<Waker>>) {
        let mut parked = false;
        std::future::poll_fn(|cx| {
            if parked {
                return Poll::Ready(());
            }
            parked = true;
            stash.lock().unwrap().push(cx.waker().clone());
            Poll::Pending
        })
        .await
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Deadline::after(Duration::from_secs(60));
        while !cond() {
            assert!(!deadline.expired(), "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn killed_driver_leaves_tasks_to_survivors() {
        let exec = Executor::new(2);
        assert!(exec.kill_driver(0));
        assert!(!exec.kill_driver(0), "double kill refused");
        assert!(!exec.kill_driver(1), "last driver must survive");
        assert_eq!(exec.live_drivers(), 1);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            exec.spawn(async move {
                hits.fetch_add(1, Ordering::AcqRel);
            });
        }
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(10))));
        assert_eq!(hits.load(Ordering::Acquire), 32);
    }

    /// A driver killed with a full local queue and a popped chunk:
    /// the first task a burst of wakes resumes holds its driver inside
    /// the poll until the test thread has killed exactly that driver.
    #[test]
    fn killed_driver_migrates_its_queue_and_chunk() {
        const PARKED: u32 = 1_000;
        let exec = Executor::new(2);
        let stash = Arc::new(Mutex::new(Vec::new()));
        let hits = Arc::new(AtomicU32::new(0));
        let first = Arc::new(AtomicBool::new(true));
        let (on_driver, which_driver) = std::sync::mpsc::channel::<usize>();
        let (killed, was_killed) = std::sync::mpsc::channel::<()>();
        let was_killed = Arc::new(Mutex::new(was_killed));
        for _ in 0..PARKED {
            let (stash, hits, first) = (Arc::clone(&stash), Arc::clone(&hits), Arc::clone(&first));
            let (on_driver, was_killed) = (on_driver.clone(), Arc::clone(&was_killed));
            exec.spawn(async move {
                park_in(&stash).await;
                if first.swap(false, Ordering::AcqRel) {
                    let me = with_driver(|ctx| ctx.me).expect("on a driver");
                    on_driver.send(me).unwrap();
                    was_killed.lock().unwrap().recv().unwrap();
                }
                hits.fetch_add(1, Ordering::AcqRel);
            });
        }
        wait_for("every task to park", || {
            exec.stats().polls == u64::from(PARKED)
        });
        // One poll wakes them all: the early chunk goes to the peer,
        // the rest to the waking driver's own queue.
        let burst = Arc::clone(&stash);
        exec.spawn(async move {
            for w in burst.lock().unwrap().drain(..) {
                w.wake();
            }
        });
        let victim = which_driver.recv().unwrap();
        assert!(exec.kill_driver(victim));
        killed.send(()).unwrap();
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(60))));
        assert_eq!(hits.load(Ordering::Acquire), PARKED);
        assert_eq!(exec.live_drivers(), 1);
        assert_eq!(exec.panics(), 0);
        let stats = exec.stats();
        assert!(stats.migrated >= 1, "nothing migrated: {stats:?}");
        assert_eq!(stats.polls, 2 * u64::from(PARKED) + 1);
    }

    /// One release of 16 × 4096 parked wakers is one queue transaction
    /// per shard (plus the early first chunk and the wake that opened
    /// the gate), not one per waker.
    #[test]
    fn release_costs_a_queue_transaction_per_shard() {
        use super::super::AsyncBarrier;
        const SHARDS: u32 = 16;
        const P: u32 = SHARDS * 4096;
        let barrier = AsyncBarrier::new(P, SHARDS);
        let exec = Executor::new(2);
        let gate = Arc::new(Gate::default());
        for tid in 0..P {
            let (barrier, gate) = (barrier.clone(), Arc::clone(&gate));
            exec.spawn(async move {
                let mut w = barrier.waiter_for(tid);
                if tid == P - 1 {
                    gate.pass().await;
                }
                w.wait_async().await.unwrap();
            });
        }
        wait_for("every task's first poll", || {
            exec.stats().polls == u64::from(P)
        });
        let before = exec.stats();
        assert_eq!(before.queue_transactions, u64::from(P), "one per spawn");
        gate.open();
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(120))));
        let after = exec.stats();
        assert_eq!(barrier.epoch(), 1);
        assert_eq!(after.polls - before.polls, u64::from(P));
        let transactions = after.queue_transactions - before.queue_transactions;
        assert!(
            transactions <= u64::from(SHARDS) + 2,
            "{transactions} queue transactions for one release of {SHARDS} shards"
        );
        assert_eq!(after.migrated, 0);
    }

    /// A wake from a thread that is no driver, with every driver
    /// parked, notifies one: the task is polled long before the parked
    /// drivers' safety time-out (which both have just started).
    #[test]
    fn foreign_wake_notifies_a_parked_driver() {
        const ROUNDS: usize = 101;
        let exec = Executor::new(2);
        let gate = Arc::new(Gate::default());
        let passed = Arc::new(AtomicU32::new(0));
        let (g, p) = (Arc::clone(&gate), Arc::clone(&passed));
        exec.spawn(async move {
            for _ in 0..ROUNDS {
                g.pass().await;
                p.fetch_add(1, Ordering::AcqRel);
            }
        });
        let mut waits = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            wait_for("both drivers to park", || {
                exec.shared.sleepers.load(Ordering::SeqCst) == 2
            });
            let t0 = Instant::now();
            gate.open();
            wait_for("the woken task's poll", || {
                passed.load(Ordering::Acquire) as usize > round
            });
            waits.push(t0.elapsed());
        }
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(10))));
        assert!(exec.stats().notifies >= 1, "{:?}", exec.stats());
        waits.sort();
        assert!(
            waits[ROUNDS / 2] < PARK_TIMEOUT / 4,
            "median wake-to-poll {:?}: the task waited out the park time-out",
            waits[ROUNDS / 2]
        );
    }

    /// `k` stale wakers of one task, all woken inside one poll on the
    /// only driver, cost one requeue and one poll.
    #[test]
    fn stale_wakers_cost_one_poll() {
        const K: usize = 64;
        let exec = Executor::new(1);
        let stash = Arc::new(Mutex::new(Vec::new()));
        let polls = Arc::new(AtomicU32::new(0));
        let (s, p) = (Arc::clone(&stash), Arc::clone(&polls));
        exec.spawn(std::future::poll_fn(move |cx| {
            if p.fetch_add(1, Ordering::AcqRel) == 0 {
                s.lock()
                    .unwrap()
                    .extend(std::iter::repeat_n(cx.waker().clone(), K));
                return Poll::Pending;
            }
            Poll::Ready(())
        }));
        wait_for("the first poll", || exec.stats().polls == 1);
        let before = exec.stats();
        exec.spawn(async move {
            for w in stash.lock().unwrap().drain(..) {
                w.wake();
            }
        });
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(10))));
        assert_eq!(polls.load(Ordering::Acquire), 2);
        let after = exec.stats();
        assert_eq!(
            after.polls - before.polls,
            2,
            "the waking task and one resume"
        );
        assert_eq!(
            after.queue_transactions - before.queue_transactions,
            2,
            "one spawn and one requeue"
        );
    }

    /// `TimerThread::drop` used to set the flag without the wheel lock,
    /// so the notification could land between the timer thread's look
    /// at the flag and its wait — and the drop then slept until the
    /// furthest registered deadline. A due waker that dawdles inside
    /// `wake` holds the timer thread in exactly that gap while the
    /// drop arrives.
    #[test]
    fn timer_with_a_far_registration_drops_promptly() {
        struct Dawdle(std::sync::mpsc::Sender<()>);
        impl Wake for Dawdle {
            fn wake(self: Arc<Self>) {
                let _ = self.0.send(());
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let far = Instant::now() + Duration::from_secs(90);
        let (done, dropped) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            for _ in 0..200 {
                let (entered, in_wake) = std::sync::mpsc::channel();
                let timer = Timer::new();
                timer.register(far, Waker::noop().clone());
                timer.register(Instant::now(), Waker::from(Arc::new(Dawdle(entered))));
                in_wake.recv().unwrap();
                drop(timer);
                done.send(()).unwrap();
            }
        });
        for i in 0..200 {
            dropped
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("drop {i} took more than 1 s"));
        }
        dropper.join().unwrap();
    }

    #[test]
    fn timer_fires_registered_wakers_and_sleep_completes() {
        let timer = Timer::new();
        let t0 = Instant::now();
        block_on(
            timer.sleep(Duration::from_millis(5)),
            Deadline::after(Duration::from_secs(10)),
        );
        assert!(t0.elapsed() >= Duration::from_millis(5));
        // An already-due sleep resolves immediately.
        block_on(timer.sleep_until(Instant::now()), Deadline::never());
    }

    #[test]
    fn yield_now_suspends_exactly_once_and_interleaves() {
        let polls = Arc::new(AtomicU32::new(0));
        let p = Arc::clone(&polls);
        block_on(
            async move {
                p.fetch_add(1, Ordering::AcqRel);
                yield_now().await;
                p.fetch_add(1, Ordering::AcqRel);
            },
            Deadline::after(Duration::from_secs(10)),
        );
        assert_eq!(polls.load(Ordering::Acquire), 2);
        // On a single driver, two yielding loops interleave instead of
        // one starving the other.
        let exec = Executor::new(1);
        let turns = Arc::new(AtomicU32::new(0));
        for _ in 0..2 {
            let turns = Arc::clone(&turns);
            exec.spawn(async move {
                for _ in 0..100 {
                    turns.fetch_add(1, Ordering::AcqRel);
                    yield_now().await;
                }
            });
        }
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(10))));
        assert_eq!(turns.load(Ordering::Acquire), 200);
        assert_eq!(exec.panics(), 0);
    }

    #[test]
    fn block_on_deadline_forces_a_poll() {
        // A future that never wakes itself: only the deadline re-poll
        // can observe the flag.
        struct Flagged(Arc<AtomicU32>);
        impl Future for Flagged {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                if self.0.load(Ordering::Acquire) >= 2 {
                    Poll::Ready(())
                } else {
                    self.0.fetch_add(1, Ordering::AcqRel);
                    Poll::Pending
                }
            }
        }
        let polls = Arc::new(AtomicU32::new(0));
        let t0 = Instant::now();
        block_on(
            Flagged(Arc::clone(&polls)),
            Deadline::after(Duration::from_millis(5)),
        );
        // First poll, deadline re-poll(s): at least two, and it did
        // not return before the deadline passed.
        assert!(polls.load(Ordering::Acquire) >= 2);
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
