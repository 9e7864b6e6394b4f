//! Reusable correctness harness for barrier implementations.
//!
//! The fundamental barrier contract is *lockstep*: when any thread
//! leaves episode `e`, every thread has entered episode `e` — so no
//! thread is ever more than one episode ahead of another. This module
//! packages that check (with optional adversarial staggering) so the
//! crate's own tests, the integration tests and downstream users can
//! soak-test any [`Barrier`] — including their own — identically.
//!
//! Two fault-tolerance provisions make contract violations *fail fast*
//! instead of wedging the whole test process:
//!
//! * a shared **abort flag**: the first worker to panic (skew
//!   violation, injected fault, unexpected error) flips it, and every
//!   other worker drains out at its next timeout instead of spinning
//!   forever on a barrier that will never release;
//! * a **watchdog** thread that converts a total lack of progress into
//!   a panic, so a deadlocked barrier fails the test rather than
//!   hanging CI.
//!
//! Both rely on every crossing being a bounded wait
//! ([`Waiter::wait_timeout`]): a worker parked in an infallible
//! `wait()` can observe neither the abort flag nor the watchdog.
//!
//! For runs with injected *deaths* (participants that stop arriving)
//! use [`chaos_torture_on`], and for deaths *and* comebacks
//! [`churn_torture_on`]: a survivor whose wait keeps timing out rescues
//! its episode through [`Waiter::evict_stragglers`], and the report
//! says who survived.

use crate::barrier::{Barrier, Waiter};
use crate::error::BarrierError;
use combar_chaos::{apply_transient, DeathMode, FaultKind, FaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How the harness perturbs thread timing to shake out races.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stagger {
    /// No artificial delays: maximal arrival rate.
    None,
    /// Deterministic mix of sleeps and yields, different per
    /// (thread, episode) — the default adversary.
    Mixed,
    /// One designated thread is systematically slow (models systemic
    /// load imbalance; drives dynamic placement's migration).
    SlowThread(u32),
    /// Seeded fault injection from `combar-chaos`: per-(thread,
    /// episode) stalls, yield storms and deaths. A `Die(Stall)` fault
    /// makes the thread stop participating (nobody evicts it, so peers
    /// wedge — use [`chaos_torture_on`] for death plans); a
    /// `Die(Panic)` fault panics the worker.
    Chaos(FaultPlan),
}

/// Outcome of a torture run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TortureReport {
    /// Episodes each thread completed.
    pub episodes: u32,
    /// Threads that participated.
    pub threads: u32,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Maximum phase skew ever observed (must be ≤ 1 for a correct
    /// barrier; the harness panics otherwise, so a returned report
    /// always carries 1 or 0 here).
    pub max_skew: u32,
    /// Total `BarrierError::Timeout` results observed (each is retried).
    pub timeouts: u64,
}

impl TortureReport {
    /// Mean wall time per episode.
    pub fn per_episode(&self) -> Duration {
        self.elapsed / self.episodes.max(1)
    }
}

/// Outcome of a [`chaos_torture_on`] or [`churn_torture_on`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Threads that started.
    pub threads: u32,
    /// Episodes asked of each thread (chaos), or of each thread the
    /// plan never kills before the run may end (churn).
    pub episodes: u32,
    /// Episodes actually completed, per thread.
    pub completed: Vec<u32>,
    /// Threads in lockstep from start to end: never dead, evicted,
    /// poisoned out, or given up.
    pub survivors: u32,
    /// Deaths the plan scheduled within the run's episode range.
    pub planned_deaths: u32,
    /// Comebacks the plan scheduled (honoured by churn runs only).
    pub planned_rejoins: u32,
    /// Successful rejoins observed in a churn run — scheduled comebacks
    /// plus any false-positive evictions healed the same way.
    pub rejoins: u32,
    /// Evictions performed by survivors' rescues
    /// ([`Waiter::evict_stragglers`]).
    pub evictions: u64,
    /// Total timeout results observed (each is retried).
    pub timeouts: u64,
    /// Threads that exhausted their retry budget and left mid-episode.
    pub gave_up: u32,
    /// Whether the barrier ended up poisoned.
    pub poisoned: bool,
    /// [`Barrier::live_count`] sampled by a churn run at full
    /// membership — after every scheduled rejoin landed, before the run
    /// wound down. `None` if it never got there (poison, give-up).
    pub live_at_full: Option<u32>,
    /// [`Barrier::critical_depth`] sampled at the same instant: the
    /// depth of the *healed* shape. `None` as above, or when the kind
    /// has no structural depth.
    pub depth_at_full: Option<u32>,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Maximum phase skew observed among threads in lockstep (≤ 1 or
    /// the run panicked).
    pub max_skew: u32,
}

/// Timeouts a soak worker sits through on one crossing before it gives
/// up.
const MAX_ATTEMPTS: u32 = 25;

/// Decrements the live-worker count on the way out and trips the abort
/// flag when leaving by panic, so peers drain instead of wedging.
struct WorkerGuard<'a>(&'a Soak);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort.store(true, Ordering::Release);
        }
        self.0.remaining.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run state shared by the workers of a torture run: the lockstep
/// bookkeeping plus, for the chaos and churn soaks, who is out of it
/// (dead, evicted, gave up).
struct Soak {
    plan: FaultPlan,
    step_timeout: Duration,
    threads: Vec<Slot>,
    max_skew: AtomicU32,
    abort: AtomicBool,
    /// Churn wind-down (the other runs end by episode count).
    stop: AtomicBool,
    remaining: AtomicU32,
    progress: AtomicU64,
    timeouts: AtomicU64,
    evictions: AtomicU64,
    gave_up: AtomicU32,
    poisoned: AtomicBool,
    start: Instant,
}

/// One thread's share of the [`Soak`] state.
#[derive(Default)]
struct Slot {
    /// Episode the thread last entered; frozen once it is excluded.
    phase: AtomicU32,
    crossings: AtomicU32,
    /// Out of the lockstep check: died, was evicted, or gave up.
    excluded: AtomicBool,
    rejoined: AtomicBool,
}

impl Soak {
    fn new(threads: u32, plan: FaultPlan, step_timeout: Duration) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(
            step_timeout > Duration::ZERO,
            "step timeout must be positive"
        );
        Self {
            plan,
            step_timeout,
            threads: (0..threads).map(|_| Slot::default()).collect(),
            max_skew: AtomicU32::new(0),
            abort: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            remaining: AtomicU32::new(threads),
            progress: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            gave_up: AtomicU32::new(0),
            poisoned: AtomicBool::new(false),
            start: Instant::now(),
        }
    }

    /// Panics when `progress` stops advancing for `stall_limit` while
    /// workers are still live: the deadlock becomes a test failure
    /// instead of a hang.
    fn watchdog(&self, stall_limit: Duration) {
        let mut last = self.progress.load(Ordering::Relaxed);
        let mut since = Instant::now();
        while self.remaining.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(10));
            let now = self.progress.load(Ordering::Relaxed);
            if now != last {
                last = now;
                since = Instant::now();
            } else if since.elapsed() > stall_limit && !self.aborted() {
                self.abort.store(true, Ordering::Release);
                panic!(
                    "watchdog: no barrier progress for {:.1}s — deadlock converted into failure",
                    since.elapsed().as_secs_f64()
                );
            }
        }
    }

    /// [`Self::watchdog`] with room for a worker to sit through
    /// [`MAX_ATTEMPTS`] timeouts on one crossing.
    fn soak_watchdog(&self) {
        self.watchdog((self.step_timeout * 8 * MAX_ATTEMPTS).max(Duration::from_secs(5)));
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn halted(&self) -> bool {
        self.aborted() || self.stop.load(Ordering::Acquire)
    }

    fn exclude(&self, tid: u32) {
        self.threads[tid as usize]
            .excluded
            .store(true, Ordering::Release);
    }

    fn is_excluded(&self, tid: u32) -> bool {
        self.threads[tid as usize].excluded.load(Ordering::Acquire)
    }

    /// Publishes that `tid` is entering episode `e` (its phase stays
    /// frozen once it is out of the check).
    fn enter(&self, tid: u32, e: u32) {
        if !self.is_excluded(tid) {
            self.threads[tid as usize]
                .phase
                .store(e + 1, Ordering::Release);
        }
    }

    /// One bounded wait, booked: a timeout is counted, poisoning is
    /// recorded, and any error but a timeout takes the thread out of
    /// the lockstep check.
    fn attempt(&self, w: &mut dyn Waiter, timeout: Duration) -> Result<(), BarrierError> {
        let r = w.wait_timeout(timeout);
        match r {
            Ok(()) => {}
            Err(BarrierError::Timeout) => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Err(BarrierError::Poisoned | BarrierError::Diverged) => {
                self.poisoned.store(true, Ordering::Release);
                self.exclude(w.tid());
            }
            Err(BarrierError::Evicted) => self.exclude(w.tid()),
        }
        r
    }

    /// One crossing of a soak worker: bounded waits until the episode
    /// releases, a rescue on every other timeout (on every one during
    /// wind-down, so leavers cannot wedge the rest), giving up after
    /// [`MAX_ATTEMPTS`]. `Err(Timeout)` means the thread is leaving
    /// (gave up, or the run aborted); other errors are
    /// [`Self::attempt`]'s.
    fn cross(&self, w: &mut dyn Waiter) -> Result<(), BarrierError> {
        let mut attempts = 0u32;
        loop {
            match self.attempt(w, self.step_timeout) {
                Err(BarrierError::Timeout) => {}
                done => return done,
            }
            if self.aborted() {
                return Err(BarrierError::Timeout);
            }
            attempts += 1;
            let cadence = if self.stop.load(Ordering::Acquire) {
                1
            } else {
                2
            };
            if attempts % cadence == 0 {
                // Peers are overdue: evict whoever this episode is
                // still missing. They are excluded *before* our own
                // arrival can release any later episode, so the skew
                // check never compares against an evictee.
                for t in w.evict_stragglers() {
                    self.exclude(t);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            if attempts >= MAX_ATTEMPTS {
                self.gave_up.fetch_add(1, Ordering::Relaxed);
                self.exclude(w.tid());
                return Err(BarrierError::Timeout);
            }
        }
    }

    /// Drives `rejoin_within` until `w` is readmitted. `false` when the
    /// run is winding down (or poisoned) instead.
    fn revive(&self, w: &mut dyn Waiter) -> bool {
        while !self.halted() {
            match w.rejoin_within(self.step_timeout) {
                Ok(true) => {
                    self.threads[w.tid() as usize]
                        .rejoined
                        .store(true, Ordering::Release);
                    return true;
                }
                // Not evicted yet: a survivor's rescue will get to us.
                Ok(false) => std::thread::sleep(Duration::from_micros(500)),
                Err(BarrierError::Timeout) => {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Err(BarrierError::Poisoned | BarrierError::Diverged) => {
                    self.poisoned.store(true, Ordering::Release);
                    return false;
                }
                Err(BarrierError::Evicted) => {} // evicted mid-attempt; try again
            }
        }
        false
    }

    /// Books `tid`'s completed crossing of episode `e` and, while it is
    /// in the check itself, asserts lockstep against every other thread
    /// still in it.
    fn crossed(&self, tid: u32, e: u32) {
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.threads[tid as usize]
            .crossings
            .fetch_add(1, Ordering::Relaxed);
        if self.aborted() || self.is_excluded(tid) {
            return;
        }
        for q in 0..self.threads.len() as u32 {
            if self.is_excluded(q) || self.plan.death_episode(q).is_some_and(|k| e + 1 >= k) {
                continue; // dead, churned or evicted; phase frozen
            }
            let ph = self.threads[q as usize].phase.load(Ordering::Acquire);
            let skew = ph.abs_diff(e + 1);
            self.max_skew.fetch_max(skew, Ordering::Relaxed);
            assert!(
                skew <= 1,
                "lockstep violated among survivors: tid {tid} at episode {e} saw phase {ph}"
            );
        }
    }

    fn crossings(&self) -> Vec<u32> {
        let count = |t: &Slot| t.crossings.load(Ordering::Relaxed);
        self.threads.iter().map(count).collect()
    }

    /// The finished run's report; `at_full` is a churn run's
    /// `(live_count, critical_depth)` sample.
    fn report(&self, episodes: u32, at_full: Option<(u32, Option<u32>)>) -> ChaosReport {
        let count = |f: &dyn Fn(u32) -> bool| {
            (0..self.threads.len() as u32).filter(|&t| f(t)).count() as u32
        };
        ChaosReport {
            threads: self.threads.len() as u32,
            episodes,
            completed: self.crossings(),
            survivors: count(&|t| !self.is_excluded(t)),
            planned_deaths: count(&|t| self.plan.death_episode(t).is_some_and(|k| k < episodes)),
            planned_rejoins: count(&|t| self.plan.rejoin_episode(t).is_some()),
            rejoins: count(&|t| self.threads[t as usize].rejoined.load(Ordering::Acquire)),
            evictions: self.evictions.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Acquire),
            live_at_full: at_full.map(|(live, _)| live),
            depth_at_full: at_full.and_then(|(_, depth)| depth),
            elapsed: self.start.elapsed(),
            max_skew: self.max_skew.load(Ordering::Relaxed),
        }
    }

    /// One worker of a chaos or churn soak: crosses through `w` until
    /// `episodes` are done or the run halts, playing out the plan's
    /// faults for its thread. With `heal`, a scheduled comeback is
    /// honoured and an eviction is answered by rejoining; without, the
    /// thread leaves instead.
    fn soak(&self, w: &mut dyn Waiter, episodes: u32, heal: bool) {
        let _guard = WorkerGuard(self);
        let tid = w.tid();
        let mut died = false;
        let mut e = 0u32;
        while e < episodes && !self.halted() {
            let mut crossed = false;
            match self.plan.fault(tid, e) {
                Some(FaultKind::Die(mode)) if !died => {
                    died = true;
                    self.exclude(tid);
                    if mode == DeathMode::Panic {
                        // Register an arrival and abandon it: the waiter
                        // is dropped mid-episode on the way out,
                        // poisoning the barrier. Stepping until a
                        // timeout guarantees the abandoned arrival did
                        // not itself release an episode.
                        while w.wait_timeout(Duration::ZERO) == Ok(()) {}
                        return;
                    }
                    // Goes silent before arriving: the waiter stays
                    // clean and survivors must evict.
                    let Some(back) = self.plan.rejoin_episode(tid).filter(|_| heal) else {
                        return; // dead for good
                    };
                    // Dormant until the survivors have crossed the
                    // comeback episode. The clock is `crossings`, which
                    // every thread keeps counting; `phases` stops at a
                    // thread's first exclusion, so it can freeze below
                    // `back` for good.
                    while self.crossings().into_iter().max() < Some(back) {
                        if self.halted() || self.poisoned.load(Ordering::Acquire) {
                            return;
                        }
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    if !self.revive(w) {
                        return;
                    }
                    // The next crossing completes the granting episode
                    // (skew-excluded from here on).
                }
                Some(FaultKind::Die(_)) => {} // the death above, once back
                Some(FaultKind::SpuriousWake) => {
                    // An extra early crossing attempt; resumes normally
                    // below if it merely times out.
                    self.enter(tid, e);
                    match self.attempt(w, Duration::ZERO) {
                        Ok(()) => crossed = true,
                        Err(BarrierError::Timeout) => {}
                        Err(_) => return,
                    }
                }
                Some(ref f) => apply_transient(f),
                None => {}
            }
            self.enter(tid, e);
            while !crossed {
                match self.cross(w) {
                    Ok(()) => crossed = true,
                    // A peer's rescue evicted us while we were merely
                    // slow: heal by rejoining, then cross.
                    Err(BarrierError::Evicted) if heal => {
                        if self.stop.load(Ordering::Acquire) || !self.revive(w) {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            self.crossed(tid, e);
            e += 1;
        }
    }
}

/// The lockstep soak under [`lockstep_torture_on`] and
/// [`work_torture_on`]: `make(tid)` hands each thread its waiter and
/// `work(tid, episode)` runs before each crossing. A crossing that
/// times out is retried; any other error fails the run.
fn lockstep_core<'a>(
    threads: u32,
    episodes: u32,
    stagger: Stagger,
    step: Duration,
    work: impl Fn(u32, u32) + Sync,
    make: impl Fn(u32) -> Box<dyn Waiter + 'a>,
) -> TortureReport {
    let plan = match stagger {
        Stagger::Chaos(plan) => plan,
        _ => FaultPlan::quiet(0),
    };
    let run = Soak::new(threads, plan, step);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (run, work) = (&run, &work);
            let mut w = make(tid);
            s.spawn(move || {
                let _guard = WorkerGuard(run);
                for e in 0..episodes {
                    if run.aborted() {
                        return;
                    }
                    match stagger {
                        Stagger::None => {}
                        Stagger::Mixed => match (e as u64 + tid as u64 * 13) % 7 {
                            0 => std::thread::sleep(Duration::from_micros(150)),
                            3 => std::thread::yield_now(),
                            _ => {}
                        },
                        Stagger::SlowThread(slow) => {
                            if tid == slow {
                                std::thread::sleep(Duration::from_micros(800));
                            }
                        }
                        Stagger::Chaos(plan) => match plan.fault(tid, e) {
                            Some(FaultKind::Die(DeathMode::Stall)) => return,
                            Some(FaultKind::Die(DeathMode::Panic)) => {
                                panic!("chaos: injected panic (tid {tid}, episode {e})")
                            }
                            Some(ref f) => apply_transient(f),
                            None => {}
                        },
                    }
                    work(tid, e);
                    run.enter(tid, e);
                    loop {
                        match run.attempt(&mut *w, step) {
                            Ok(()) => break,
                            Err(BarrierError::Timeout) if run.aborted() => return,
                            Err(BarrierError::Timeout) => {}
                            Err(err) => panic!(
                                "barrier failed under torture: {err} (tid {tid}, episode {e})"
                            ),
                        }
                    }
                    run.crossed(tid, e);
                }
            });
        }
        s.spawn(|| run.watchdog(Duration::from_secs(5)));
    });
    TortureReport {
        episodes,
        threads,
        elapsed: run.start.elapsed(),
        max_skew: run.max_skew.load(Ordering::Relaxed),
        timeouts: run.timeouts.load(Ordering::Relaxed),
    }
}

/// Runs one thread per participant of `barrier` for `episodes`
/// crossings (each a `wait_timeout(step)`, retried on timeout) and
/// asserts the lockstep contract on every one.
///
/// # Panics
///
/// Panics (from inside a worker) if any thread observes another more
/// than one episode away — i.e. if the barrier is broken — or, via the
/// watchdog, if no thread makes progress for several seconds.
pub fn lockstep_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    episodes: u32,
    stagger: Stagger,
    step: Duration,
) -> TortureReport {
    let idle = |_, _| {};
    lockstep_core(barrier.threads(), episodes, stagger, step, idle, |tid| {
        barrier.waiter(tid)
    })
}

/// [`lockstep_torture_on`] driven by a shared-seam work model instead
/// of an ad-hoc [`Stagger`]: before each crossing, thread `tid` burns
/// `model.work_iters(episode, tid, iters_per_us)` of real CPU work.
///
/// Because [`combar_work::WorkModel`] is a pure function of
/// `(seed, tid, episode)`, this reproduces *exactly* the imbalance
/// shape (systemic, evolving, heavy-tailed…) that the simulator and
/// the DES fault timelines study — the same seed stresses the same
/// "slow" threads here, on real barriers, that
/// `FaultTimeline::from_work_model` stalls in virtual time.
///
/// # Panics
///
/// Panics if `model.participants()` disagrees with the barrier's
/// thread count, or on any lockstep violation (as
/// [`lockstep_torture_on`]).
pub fn work_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    episodes: u32,
    model: &combar_work::WorkModel,
    iters_per_us: f64,
    step: Duration,
) -> TortureReport {
    let p = barrier.threads();
    assert_eq!(
        model.participants(),
        p,
        "work model sized for a different participant count"
    );
    let work = |tid, e| combar_work::busy_work(model.work_iters(e, tid, iters_per_us));
    lockstep_core(p, episodes, Stagger::None, step, work, |tid| {
        barrier.waiter(tid)
    })
}

/// Soak-tests `barrier` under a seeded [`FaultPlan`], including
/// participant deaths, asserting lockstep among the survivors.
///
/// Every crossing is a `wait_timeout(step_timeout)`; a thread whose
/// wait keeps timing out calls [`Waiter::evict_stragglers`] and the
/// evicted ids leave the lockstep check. Kinds without eviction evict
/// nobody — a wedged run then ends in give-ups rather than survival.
///
/// Threads scheduled to `Die(Stall)` silently stop arriving (their
/// waiter drops *clean*, no poisoning): survivors must evict them.
/// Threads scheduled to `Die(Panic)` abandon a registered arrival,
/// modelling a mid-episode crash: the barrier poisons and every peer
/// drains out with [`BarrierError::Poisoned`].
///
/// # Panics
///
/// Panics if two live participants drift more than one episode apart,
/// or (via the watchdog) if nothing progresses for far longer than
/// `step_timeout`.
pub fn chaos_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
) -> ChaosReport {
    let threads = barrier.threads();
    let run = Soak::new(threads, plan, step_timeout);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let run = &run;
            let mut w = barrier.waiter(tid);
            s.spawn(move || run.soak(&mut *w, episodes, false));
        }
        s.spawn(|| run.soak_watchdog());
    });
    run.report(episodes, None)
}

/// The churn soak under [`churn_torture_on`]: `make(tid)` hands each
/// thread its waiter and `probe()` reads `(live_count, critical_depth)`
/// off the barrier at full membership.
fn churn_core<'a>(
    threads: u32,
    min_episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
    probe: impl Fn() -> (u32, Option<u32>) + Sync,
    make: impl Fn(u32) -> Box<dyn Waiter + 'a>,
) -> ChaosReport {
    let run = Soak::new(threads, plan, step_timeout);
    let at_full = OnceLock::new();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let run = &run;
            let mut w = make(tid);
            s.spawn(move || run.soak(&mut *w, u32::MAX, true));
        }
        // Controller: stop once healed and soaked; sample the probe at
        // provably full membership.
        s.spawn(|| loop {
            if run.remaining.load(Ordering::Acquire) == 0 || run.aborted() {
                return;
            }
            let full = (0..threads).all(|t| {
                let slot = &run.threads[t as usize];
                let healed =
                    plan.rejoin_episode(t).is_none() || slot.rejoined.load(Ordering::Acquire);
                let soaked = plan.death_episode(t).is_some()
                    || slot.crossings.load(Ordering::Relaxed) >= min_episodes;
                healed && soaked
            });
            let poisoned = run.poisoned.load(Ordering::Acquire);
            if poisoned || full {
                if !poisoned {
                    let _ = at_full.set(probe());
                }
                run.stop.store(true, Ordering::Release);
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        });
        s.spawn(|| run.soak_watchdog());
    });
    run.report(min_episodes, at_full.get().copied())
}

/// Soak-tests `barrier` under a churn plan: scripted deaths *and*
/// scripted comebacks, exercising the full detect → evict → rejoin
/// loop end to end. Crossings are `wait_timeout(step_timeout)`, rescues
/// are [`Waiter::evict_stragglers`], revivals are
/// [`Waiter::rejoin_within`].
///
/// A thread whose plan schedules `Die(Stall)` with a rejoin episode
/// goes silent, waits until the surviving cohort has crossed that many
/// episodes (survivors evict it in the meantime), then drives the
/// rejoin protocol and resumes crossing. Threads a rescue evicts *by
/// mistake* (slow but alive) heal the same way: an `Evicted` result
/// flows into rejoin attempts.
///
/// Unlike [`chaos_torture_on`], the run is not bounded by an episode
/// count: workers cross until a controller observes that (a) every
/// scheduled rejoin has landed and (b) every continuously-live thread
/// has crossed at least `min_episodes`. At that moment — membership is
/// provably full — it samples [`Barrier::live_count`] and
/// [`Barrier::critical_depth`] (the *healed* shape) into the report and
/// stops the run. Threads that leave first are evicted by the remaining
/// ones' rescues, so wind-down cannot wedge.
///
/// # Panics
///
/// Panics if two continuously-live threads drift more than one episode
/// apart, or (via the watchdog) if nothing progresses for far longer
/// than `step_timeout`.
pub fn churn_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    min_episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
) -> ChaosReport {
    churn_core(
        barrier.threads(),
        min_episodes,
        plan,
        step_timeout,
        || (barrier.live_count(), barrier.critical_depth()),
        |tid| barrier.waiter(tid),
    )
}

/// Times `episodes` barrier crossings across `threads` threads without
/// the (cache-hostile) lockstep assertions — a quick throughput probe
/// for examples and benches. Returns mean wall time per episode.
pub fn time_episodes<F, G>(threads: u32, episodes: u32, make: F) -> Duration
where
    F: Fn(u32) -> G + Sync,
    G: FnMut() + Send,
{
    let counter = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let counter = &counter;
            let mut step = make(tid);
            s.spawn(move || {
                for _ in 0..episodes {
                    step();
                }
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), threads as u64);
    start.elapsed() / episodes.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::central::CentralBarrier;
    use crate::dynamic::DynamicBarrier;
    use crate::tree::TreeBarrier;
    use combar_chaos::ChaosConfig;

    const STEP: Duration = Duration::from_secs(5);

    /// A waiter with no barrier behind it: a crossing reports `Evicted`
    /// once if scripted to, and everything else succeeds at once.
    #[derive(Debug)]
    struct Scripted {
        tid: u32,
        evict_once: bool,
    }

    impl Waiter for Scripted {
        fn tid(&self) -> u32 {
            self.tid
        }
        fn try_wait(&mut self) -> Result<(), BarrierError> {
            self.wait_timeout(Duration::ZERO)
        }
        fn wait_timeout(&mut self, _: Duration) -> Result<(), BarrierError> {
            if std::mem::take(&mut self.evict_once) {
                Err(BarrierError::Evicted)
            } else {
                Ok(())
            }
        }
        fn rejoin_within(&mut self, _: Duration) -> Result<bool, BarrierError> {
            Ok(true)
        }
    }

    #[test]
    fn torture_passes_for_correct_barriers() {
        let b = CentralBarrier::new(3);
        let rep = lockstep_torture_on(&b, 80, Stagger::Mixed, STEP);
        assert_eq!(rep.episodes, 80);
        assert!(rep.max_skew <= 1);
        assert!(rep.per_episode() > Duration::ZERO);
    }

    #[test]
    fn torture_with_slow_thread_drives_dynamic_swaps() {
        let b = DynamicBarrier::mcs(6, 2);
        lockstep_torture_on(&b, 40, Stagger::SlowThread(5), STEP);
        assert!(b.swap_count() > 0);
    }

    /// The shared-seam work model drives real threads: a systemic
    /// model keeps the same threads slow every episode, which dynamic
    /// placement detects and converts into swaps — the runtime-side
    /// mirror of the simulator's balance study.
    #[test]
    fn work_torture_exercises_systemic_imbalance_on_real_barriers() {
        let p = 6u32;
        let model = combar_work::WorkModel::systemic(p, 0x10ad_ba1a, 300.0, 150.0, 10.0);
        let b = DynamicBarrier::mcs(p, 2);
        let rep = work_torture_on(&b as &dyn Barrier, 40, &model, 1.0, STEP);
        assert_eq!(rep.episodes, 40);
        assert!(rep.max_skew <= 1);
        assert!(
            b.swap_count() > 0,
            "persistent model-driven imbalance should trigger swaps"
        );
    }

    #[test]
    #[should_panic(expected = "different participant count")]
    fn work_torture_rejects_mismatched_model() {
        let model = combar_work::WorkModel::uniform(4, 1, 100.0);
        let b = CentralBarrier::new(3);
        let _ = work_torture_on(&b, 1, &model, 1.0, STEP);
    }

    /// A deliberately broken "barrier" (no synchronization at all) must
    /// be caught.
    #[test]
    fn torture_catches_a_broken_barrier() {
        let result = std::panic::catch_unwind(|| {
            let idle = |_, _| {};
            lockstep_core(3, 200, Stagger::Mixed, STEP, idle, |tid| {
                Box::new(Scripted {
                    tid,
                    evict_once: false,
                })
            });
        });
        assert!(result.is_err(), "a no-op barrier must fail the torture");
    }

    #[test]
    fn torture_under_transient_chaos() {
        let plan = FaultPlan::new(ChaosConfig {
            seed: 0xC0FFEE,
            stall_prob: 0.1,
            max_stall_us: 200,
            yield_prob: 0.2,
            max_yields: 8,
            spurious_prob: 0.0,
            ..ChaosConfig::default()
        });
        let b = TreeBarrier::combining(4, 2);
        let rep = lockstep_torture_on(&b, 60, Stagger::Chaos(plan), STEP);
        assert!(rep.max_skew <= 1);
    }

    #[test]
    fn chaos_torture_evicts_a_silent_death_and_survivors_finish() {
        let plan = FaultPlan::quiet(7).with_death(3, 5, DeathMode::Stall);
        let b = CentralBarrier::new(4);
        let rep = chaos_torture_on(&b, 40, plan, Duration::from_millis(100));
        assert_eq!(rep.planned_deaths, 1);
        assert_eq!(rep.survivors, 3);
        assert!(rep.evictions >= 1);
        assert!(!rep.poisoned);
        assert_eq!(
            rep.completed,
            [40, 40, 40, 5],
            "survivors finish every episode; the dead thread stopped at its death episode"
        );
    }

    #[test]
    fn chaos_torture_panic_death_poisons_the_run() {
        let plan = FaultPlan::quiet(11).with_death(2, 4, DeathMode::Panic);
        let b = CentralBarrier::new(3);
        let rep = chaos_torture_on(&b, 30, plan, Duration::from_millis(30));
        assert!(rep.poisoned, "an abandoned arrival must poison the barrier");
        assert!(rep.survivors <= 2);
    }

    #[test]
    fn churn_torture_heals_a_scheduled_comeback() {
        let plan = FaultPlan::quiet(13).with_churn(1, 6, DeathMode::Stall, 14);
        let b = CentralBarrier::new(4);
        let rep = churn_torture_on(&b, 30, plan, Duration::from_millis(50));
        assert_eq!(rep.planned_rejoins, 1);
        assert!(rep.rejoins >= 1, "the scheduled comeback must land");
        assert!(!rep.poisoned);
        assert_eq!(rep.gave_up, 0);
        assert_eq!(
            rep.live_at_full,
            Some(4),
            "at the probe point every thread must be live again"
        );
        assert!(rep.evictions >= 1, "survivors must have evicted the victim");
        for t in [0u32, 2, 3] {
            assert!(
                rep.completed[t as usize] >= 30,
                "continuously-live thread {t} must soak the minimum"
            );
        }
        assert!(rep.max_skew <= 1);
    }

    /// The come-back clock must keep running when every survivor has
    /// been evicted (and healed) once: scripted waiters, no barrier,
    /// no sleeps. Each survivor's first crossing reports `Evicted`, so
    /// all of them are skew-excluded — and stop publishing `phases` —
    /// before the corpse's come-back episode.
    #[test]
    fn churn_comeback_survives_every_survivor_being_evicted_once() {
        const SURVIVORS: u32 = 2;
        let plan = FaultPlan::quiet(31).with_churn(0, 1, DeathMode::Stall, 6);
        let rep = churn_core(
            1 + SURVIVORS,
            20,
            plan,
            Duration::from_millis(50),
            || (0, None),
            |tid| {
                Box::new(Scripted {
                    tid,
                    evict_once: tid != 0,
                })
            },
        );
        assert!(rep.live_at_full.is_some(), "the scheduled comeback landed");
        assert_eq!(rep.planned_rejoins, 1);
        assert_eq!(
            rep.rejoins,
            rep.planned_rejoins + SURVIVORS,
            "the corpse, and every survivor once"
        );
        assert_eq!((rep.gave_up, rep.poisoned), (0, false));
    }

    #[test]
    fn churn_torture_on_a_tree_restores_full_membership() {
        let plan = FaultPlan::quiet(29)
            .with_churn(2, 4, DeathMode::Stall, 10)
            .with_churn(5, 7, DeathMode::Stall, 16);
        let b = TreeBarrier::combining(6, 2);
        let rep = churn_torture_on(&b, 25, plan, Duration::from_millis(50));
        assert_eq!(rep.planned_rejoins, 2);
        assert!(rep.rejoins >= 2);
        assert!(!rep.poisoned);
        // Full membership at the probe point is the healed-state check;
        // the wind-down that follows deliberately re-degrades the tree
        // (leavers are evicted by whoever exits last), so no post-run
        // shape assertion is meaningful here.
        assert_eq!(rep.live_at_full, Some(6));
    }

    #[test]
    fn time_episodes_reports_positive_duration() {
        let b = TreeBarrier::combining(2, 2);
        let per = time_episodes(2, 200, |tid| {
            let mut w = b.waiter(tid);
            move || w.wait()
        });
        assert!(per > Duration::ZERO);
    }
}
