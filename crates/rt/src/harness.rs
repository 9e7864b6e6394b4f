//! Reusable correctness harness for barrier implementations.
//!
//! The fundamental barrier contract is *lockstep*: when any thread
//! leaves episode `e`, every thread has entered episode `e` — so no
//! thread is ever more than one episode ahead of another. This module
//! packages that check (with optional adversarial staggering) so the
//! crate's own tests, the integration tests and downstream users can
//! soak-test any barrier — including their own — identically.
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
//! Both require the step closures to use bounded waits
//! (`wait_timeout`): a worker parked in an infallible `wait()` can
//! observe neither the abort flag nor the watchdog.
//!
//! For runs with injected *deaths* (participants that stop arriving),
//! use [`chaos_torture`]: it drives eviction through a per-barrier
//! rescue closure and reports per-thread survival.

use crate::barrier::Barrier;
use crate::error::BarrierError;
use combar_chaos::{apply_transient, DeathMode, FaultKind, FaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
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
    /// makes the thread stop participating (peers wedge unless the
    /// step closures evict — prefer [`chaos_torture`] for death
    /// plans); a `Die(Panic)` fault panics the worker.
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

/// Decrements the live-worker count on the way out and trips the abort
/// flag when leaving by panic, so peers drain instead of wedging.
struct WorkerGuard<'a> {
    abort: &'a AtomicBool,
    remaining: &'a AtomicU32,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort.store(true, Ordering::Release);
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Panics when `progress` stops advancing while workers are still live:
/// the deadlock becomes a test failure instead of a hang.
fn watchdog(
    abort: &AtomicBool,
    remaining: &AtomicU32,
    progress: &AtomicU64,
    stall_limit: Duration,
) {
    let mut last = progress.load(Ordering::Relaxed);
    let mut since = Instant::now();
    while remaining.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(10));
        let now = progress.load(Ordering::Relaxed);
        if now != last {
            last = now;
            since = Instant::now();
        } else if since.elapsed() > stall_limit && !abort.load(Ordering::Acquire) {
            abort.store(true, Ordering::Release);
            panic!(
                "watchdog: no barrier progress for {:.1}s — deadlock converted into failure",
                since.elapsed().as_secs_f64()
            );
        }
    }
}

/// Runs `threads` threads for `episodes` barrier episodes and asserts
/// the lockstep contract on every crossing.
///
/// `make(tid)` builds each thread's step closure (typically
/// `move || waiter.wait_timeout(SOME_BOUND)`). A step returning
/// [`BarrierError::Timeout`] is retried; any other error fails the
/// run.
///
/// # Panics
///
/// Panics (from inside a worker) if any thread observes another more
/// than one episode away — i.e. if the barrier is broken — or, via the
/// watchdog, if no thread makes progress for several seconds.
pub fn lockstep_torture<F, G>(
    threads: u32,
    episodes: u32,
    stagger: Stagger,
    make: F,
) -> TortureReport
where
    F: Fn(u32) -> G + Sync,
    G: FnMut() -> Result<(), BarrierError> + Send,
{
    assert!(threads > 0, "need at least one thread");
    let phases: Vec<AtomicU32> = (0..threads).map(|_| AtomicU32::new(0)).collect();
    let max_skew = AtomicU32::new(0);
    let abort = AtomicBool::new(false);
    let remaining = AtomicU32::new(threads);
    let progress = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let plan = match stagger {
        Stagger::Chaos(p) => Some(p),
        _ => None,
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let phases = &phases;
            let max_skew = &max_skew;
            let abort = &abort;
            let remaining = &remaining;
            let progress = &progress;
            let timeouts = &timeouts;
            let mut step = make(tid);
            s.spawn(move || {
                let _guard = WorkerGuard { abort, remaining };
                'episodes: for e in 0..episodes {
                    if abort.load(Ordering::Acquire) {
                        break;
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
                            Some(FaultKind::Die(DeathMode::Stall)) => break 'episodes,
                            Some(FaultKind::Die(DeathMode::Panic)) => {
                                panic!("chaos: injected panic (tid {tid}, episode {e})")
                            }
                            Some(ref f) => apply_transient(f),
                            None => {}
                        },
                    }
                    phases[tid as usize].store(e + 1, Ordering::Release);
                    loop {
                        match step() {
                            Ok(()) => {
                                progress.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(BarrierError::Timeout) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                                if abort.load(Ordering::Acquire) {
                                    break 'episodes;
                                }
                            }
                            Err(err) => {
                                panic!(
                                    "barrier failed under torture: {err} (tid {tid}, episode {e})"
                                )
                            }
                        }
                    }
                    if abort.load(Ordering::Acquire) {
                        break;
                    }
                    for (q, ph) in phases.iter().enumerate() {
                        if plan
                            .and_then(|p| p.death_episode(q as u32))
                            .is_some_and(|k| e + 1 >= k)
                        {
                            continue; // peer died on schedule; its phase froze
                        }
                        let ph = ph.load(Ordering::Acquire);
                        let skew = ph.abs_diff(e + 1);
                        max_skew.fetch_max(skew, Ordering::Relaxed);
                        assert!(
                            skew <= 1,
                            "lockstep violated: tid {tid} at episode {e} saw phase {ph}"
                        );
                    }
                }
            });
        }
        let (abort, remaining, progress) = (&abort, &remaining, &progress);
        s.spawn(move || watchdog(abort, remaining, progress, Duration::from_secs(5)));
    });
    TortureReport {
        episodes,
        threads,
        elapsed: start.elapsed(),
        max_skew: max_skew.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
    }
}

/// Outcome of a [`chaos_torture`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Threads that started.
    pub threads: u32,
    /// Episodes requested per thread.
    pub episodes: u32,
    /// Episodes actually completed, per thread.
    pub completed: Vec<u32>,
    /// Threads still participating at the end (not dead, evicted,
    /// poisoned out, or given up).
    pub survivors: u32,
    /// Deaths the plan scheduled within the run's episode range.
    pub planned_deaths: u32,
    /// Evictions performed by rescue closures.
    pub evictions: u64,
    /// Total timeout results observed (each is retried).
    pub timeouts: u64,
    /// Threads that exhausted their retry budget.
    pub gave_up: u32,
    /// Whether the barrier ended up poisoned.
    pub poisoned: bool,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Maximum phase skew observed among live participants (≤ 1 or the
    /// run panicked).
    pub max_skew: u32,
}

/// Soak-tests a barrier under a seeded [`FaultPlan`], including
/// participant deaths, asserting lockstep among the survivors.
///
/// `make(tid)` builds each thread's pair of closures:
///
/// * **step**: one bounded barrier crossing, typically
///   `move |d| waiter.wait_timeout(d)`;
/// * **rescue**: invoked after repeated timeouts; it should evict the
///   stragglers wedging the barrier (e.g.
///   `move || rescue_stragglers(barrier, tid)`) and return the evicted ids
///   so the harness can exclude them from the lockstep check. Barriers
///   without eviction support may return an empty vec — the wedged run
///   then ends in give-ups rather than survival.
///
/// Threads scheduled to `Die(Stall)` silently stop arriving (their
/// waiter drops *clean*, no poisoning): survivors' rescues must evict
/// them. Threads scheduled to `Die(Panic)` abandon a registered
/// arrival, modelling a mid-episode crash: the barrier poisons and
/// every peer drains out with [`BarrierError::Poisoned`].
///
/// # Panics
///
/// Panics if two live participants drift more than one episode apart,
/// or (via the watchdog) if nothing progresses for far longer than
/// `step_timeout`.
pub fn chaos_torture<F, S, R>(
    threads: u32,
    episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
    make: F,
) -> ChaosReport
where
    F: Fn(u32) -> (S, R) + Sync,
    S: FnMut(Duration) -> Result<(), BarrierError> + Send,
    R: FnMut() -> Vec<u32> + Send,
{
    assert!(threads > 0, "need at least one thread");
    assert!(
        step_timeout > Duration::ZERO,
        "step timeout must be positive"
    );
    const MAX_ATTEMPTS: u32 = 25;
    let phases: Vec<AtomicU32> = (0..threads).map(|_| AtomicU32::new(0)).collect();
    let completed: Vec<AtomicU32> = (0..threads).map(|_| AtomicU32::new(0)).collect();
    let excluded: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    let max_skew = AtomicU32::new(0);
    let abort = AtomicBool::new(false);
    let remaining = AtomicU32::new(threads);
    let progress = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let evictions = AtomicU64::new(0);
    let gave_up = AtomicU32::new(0);
    let poisoned = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let phases = &phases;
            let completed = &completed;
            let excluded = &excluded;
            let max_skew = &max_skew;
            let abort = &abort;
            let remaining = &remaining;
            let progress = &progress;
            let timeouts = &timeouts;
            let evictions = &evictions;
            let gave_up = &gave_up;
            let poisoned = &poisoned;
            let (mut step, mut rescue) = make(tid);
            s.spawn(move || {
                let _guard = WorkerGuard { abort, remaining };
                'episodes: for e in 0..episodes {
                    if abort.load(Ordering::Acquire) {
                        break;
                    }
                    let mut done_early = false;
                    match plan.fault(tid, e) {
                        Some(FaultKind::Die(DeathMode::Stall)) => {
                            // Goes silent before arriving: the waiter
                            // drops clean and survivors must evict.
                            excluded[tid as usize].store(true, Ordering::Release);
                            break 'episodes;
                        }
                        Some(FaultKind::Die(DeathMode::Panic)) => {
                            // Register an arrival and abandon it: the
                            // step closure is dropped mid-episode on the
                            // way out, poisoning the barrier. Stepping
                            // until a timeout guarantees the abandoned
                            // arrival did not itself release an episode.
                            while step(Duration::ZERO) == Ok(()) {}
                            excluded[tid as usize].store(true, Ordering::Release);
                            break 'episodes;
                        }
                        Some(FaultKind::SpuriousWake) => {
                            // An extra early crossing attempt; resumes
                            // normally below if it merely times out.
                            phases[tid as usize].store(e + 1, Ordering::Release);
                            match step(Duration::ZERO) {
                                Ok(()) => done_early = true,
                                Err(BarrierError::Timeout) => {
                                    timeouts.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(BarrierError::Poisoned | BarrierError::Diverged) => {
                                    poisoned.store(true, Ordering::Release);
                                    excluded[tid as usize].store(true, Ordering::Release);
                                    break 'episodes;
                                }
                                Err(BarrierError::Evicted) => {
                                    excluded[tid as usize].store(true, Ordering::Release);
                                    break 'episodes;
                                }
                            }
                        }
                        Some(ref f) => apply_transient(f),
                        None => {}
                    }
                    phases[tid as usize].store(e + 1, Ordering::Release);
                    let mut attempts = 0u32;
                    if !done_early {
                        loop {
                            match step(step_timeout) {
                                Ok(()) => break,
                                Err(BarrierError::Timeout) => {
                                    timeouts.fetch_add(1, Ordering::Relaxed);
                                    if abort.load(Ordering::Acquire) {
                                        break 'episodes;
                                    }
                                    attempts += 1;
                                    if attempts % 2 == 0 {
                                        // Peers are overdue: evict whoever is
                                        // wedging the episode. Mark them
                                        // excluded *before* our own arrival
                                        // can release any later episode, so
                                        // the skew check below never compares
                                        // against an evictee.
                                        for t in rescue() {
                                            excluded[t as usize].store(true, Ordering::Release);
                                            evictions.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    if attempts >= MAX_ATTEMPTS {
                                        gave_up.fetch_add(1, Ordering::Relaxed);
                                        excluded[tid as usize].store(true, Ordering::Release);
                                        break 'episodes;
                                    }
                                }
                                Err(BarrierError::Poisoned | BarrierError::Diverged) => {
                                    poisoned.store(true, Ordering::Release);
                                    excluded[tid as usize].store(true, Ordering::Release);
                                    break 'episodes;
                                }
                                Err(BarrierError::Evicted) => {
                                    excluded[tid as usize].store(true, Ordering::Release);
                                    break 'episodes;
                                }
                            }
                        }
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                    completed[tid as usize].fetch_add(1, Ordering::Relaxed);
                    if abort.load(Ordering::Acquire) {
                        break;
                    }
                    for (q, ph) in phases.iter().enumerate() {
                        if excluded[q].load(Ordering::Acquire)
                            || plan
                                .death_episode(q as u32)
                                .is_some_and(|k| e + 1 >= k)
                        {
                            continue; // dead or evicted; phase frozen
                        }
                        let ph = ph.load(Ordering::Acquire);
                        let skew = ph.abs_diff(e + 1);
                        max_skew.fetch_max(skew, Ordering::Relaxed);
                        assert!(
                            skew <= 1,
                            "lockstep violated among survivors: tid {tid} at episode {e} saw phase {ph}"
                        );
                    }
                }
            });
        }
        let (abort, remaining, progress) = (&abort, &remaining, &progress);
        let stall_limit = (step_timeout * 8 * MAX_ATTEMPTS).max(Duration::from_secs(5));
        s.spawn(move || watchdog(abort, remaining, progress, stall_limit));
    });
    let planned_deaths = (0..threads)
        .filter(|&t| plan.death_episode(t).is_some_and(|k| k < episodes))
        .count() as u32;
    let excluded_count = excluded
        .iter()
        .filter(|x| x.load(Ordering::Acquire))
        .count() as u32;
    ChaosReport {
        threads,
        episodes,
        completed: completed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        survivors: threads - excluded_count,
        planned_deaths,
        evictions: evictions.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
        gave_up: gave_up.load(Ordering::Relaxed),
        poisoned: poisoned.load(Ordering::Acquire),
        elapsed: start.elapsed(),
        max_skew: max_skew.load(Ordering::Relaxed),
    }
}

/// What [`churn_torture`] asks a worker closure to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// One bounded barrier crossing (`wait_timeout`).
    Step,
    /// One bounded rejoin attempt (`rejoin_within`); returns `Ok(true)`
    /// once readmitted, `Ok(false)` if the waiter was never evicted.
    Revive,
}

/// Outcome of a [`churn_torture`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Threads that started.
    pub threads: u32,
    /// Barrier crossings each thread completed.
    pub crossings: Vec<u32>,
    /// Rejoins the plan scheduled (stall deaths with a comeback).
    pub planned_rejoins: u32,
    /// Successful rejoins observed — scheduled comebacks plus any
    /// false-positive evictions healed through the same protocol.
    pub rejoins: u32,
    /// Evictions performed by rescue closures.
    pub evictions: u64,
    /// Total timeout results observed (each is retried).
    pub timeouts: u64,
    /// Threads that exhausted a retry budget and left mid-episode.
    pub gave_up: u32,
    /// Whether the barrier ended up poisoned.
    pub poisoned: bool,
    /// `probe()` sampled once at full membership — after every
    /// scheduled rejoin landed, before the run wound down. `None` if
    /// the run aborted (poison, give-up) before reaching that state.
    pub probe_at_full: Option<u32>,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Maximum phase skew observed among continuously-live threads.
    pub max_skew: u32,
}

/// Soak-tests a barrier under a churn plan: scripted deaths *and*
/// scripted comebacks, exercising the full detect → detach → rejoin
/// loop end to end.
///
/// `make(tid)` builds each thread's closure pair:
///
/// * **worker** `FnMut(ChurnOp, Duration)`: [`ChurnOp::Step`] performs
///   one bounded crossing (`wait_timeout(d).map(|()| true)`),
///   [`ChurnOp::Revive`] one bounded rejoin attempt (`rejoin_within(d)`).
///   One closure handles both so it can own the waiter.
/// * **rescue** `FnMut() -> Vec<u32>`: evicts the stragglers wedging
///   the barrier (e.g. `|| rescue_stragglers(barrier, tid)`) and returns
///   their ids.
///
/// A thread whose plan schedules `Die(Stall)` with a rejoin episode
/// goes silent, waits until the surviving cohort has crossed that many
/// episodes (survivors detach it via rescue in the meantime), then
/// drives the rejoin protocol and resumes crossing. Threads the rescue
/// closures detach *by mistake* (slow but alive) heal the same way:
/// an `Evicted` step result flows into `Revive` attempts.
///
/// Unlike [`chaos_torture`], the run is not bounded by an episode
/// count: workers cross until a controller observes that (a) every
/// scheduled rejoin has landed and (b) every continuously-live thread
/// has crossed at least `min_episodes`. At that moment the controller
/// samples `probe()` — membership is provably full, so probing
/// e.g. `critical_depth()` measures the *healed* shape — and stops the
/// run. Threads that leave first are detached by the remaining ones'
/// rescues, so wind-down cannot wedge.
///
/// # Panics
///
/// Panics if two continuously-live threads drift more than one episode
/// apart, or (via the watchdog) if nothing progresses for far longer
/// than `step_timeout`.
pub fn churn_torture<F, W, R, P>(
    threads: u32,
    min_episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
    probe: P,
    make: F,
) -> ChurnReport
where
    F: Fn(u32) -> (W, R) + Sync,
    W: FnMut(ChurnOp, Duration) -> Result<bool, BarrierError> + Send,
    R: FnMut() -> Vec<u32> + Send,
    P: Fn() -> u32 + Sync,
{
    assert!(threads > 0, "need at least one thread");
    assert!(
        step_timeout > Duration::ZERO,
        "step timeout must be positive"
    );
    const MAX_ATTEMPTS: u32 = 25;
    let phases: Vec<AtomicU32> = (0..threads).map(|_| AtomicU32::new(0)).collect();
    let crossings: Vec<AtomicU32> = (0..threads).map(|_| AtomicU32::new(0)).collect();
    let excluded: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    let rejoined: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    let max_skew = AtomicU32::new(0);
    let abort = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let remaining = AtomicU32::new(threads);
    let progress = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let evictions = AtomicU64::new(0);
    let gave_up = AtomicU32::new(0);
    let poisoned = AtomicBool::new(false);
    let probe_at_full: AtomicU32 = AtomicU32::new(u32::MAX);
    let probed = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let phases = &phases;
            let crossings = &crossings;
            let excluded = &excluded;
            let rejoined = &rejoined;
            let max_skew = &max_skew;
            let abort = &abort;
            let stop = &stop;
            let remaining = &remaining;
            let progress = &progress;
            let timeouts = &timeouts;
            let evictions = &evictions;
            let gave_up = &gave_up;
            let poisoned = &poisoned;
            let (mut worker, mut rescue) = make(tid);
            let plan = &plan;
            s.spawn(move || {
                let _guard = WorkerGuard { abort, remaining };
                let death = plan.death_episode(tid);
                let comeback = plan.rejoin_episode(tid);
                let mut died = false;
                let mut e = 0u32;
                // Drives rejoin attempts until readmitted. Returns
                // false when the run is winding down instead.
                let revive = |worker: &mut W| -> Result<bool, ()> {
                    loop {
                        if abort.load(Ordering::Acquire) || stop.load(Ordering::Acquire) {
                            return Ok(false);
                        }
                        match worker(ChurnOp::Revive, step_timeout) {
                            Ok(true) => return Ok(true),
                            Ok(false) => {
                                // Not evicted yet: the survivors'
                                // rescue will detach us shortly.
                                std::thread::sleep(Duration::from_micros(500));
                            }
                            Err(BarrierError::Timeout) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(BarrierError::Poisoned | BarrierError::Diverged) => {
                                poisoned.store(true, Ordering::Release);
                                return Err(());
                            }
                            Err(BarrierError::Evicted) => {
                                // Evicted mid-attempt; just try again.
                            }
                        }
                    }
                };
                'run: loop {
                    if abort.load(Ordering::Acquire) || stop.load(Ordering::Acquire) {
                        break;
                    }
                    if !died && death == Some(e) {
                        died = true;
                        excluded[tid as usize].store(true, Ordering::Release);
                        match plan.fault(tid, e) {
                            Some(FaultKind::Die(DeathMode::Panic)) => {
                                // Abandon a registered arrival on the
                                // way out: the drop poisons the barrier.
                                while worker(ChurnOp::Step, Duration::ZERO) == Ok(true) {}
                                break 'run;
                            }
                            _ => {
                                let Some(back) = comeback else {
                                    break 'run; // dead for good, clean drop
                                };
                                // Dormant until the survivors have
                                // crossed the comeback episode. The
                                // clock is `crossings`, which every
                                // thread keeps counting; `phases` stops
                                // at a thread's first exclusion, so it
                                // can freeze below `back` for good.
                                loop {
                                    if abort.load(Ordering::Acquire)
                                        || stop.load(Ordering::Acquire)
                                        || poisoned.load(Ordering::Acquire)
                                    {
                                        break 'run;
                                    }
                                    let front = crossings
                                        .iter()
                                        .map(|c| c.load(Ordering::Relaxed))
                                        .max()
                                        .unwrap_or(0);
                                    if front >= back {
                                        break;
                                    }
                                    std::thread::sleep(Duration::from_micros(500));
                                }
                                match revive(&mut worker) {
                                    Ok(true) => {
                                        rejoined[tid as usize].store(true, Ordering::Release);
                                    }
                                    Ok(false) | Err(()) => break 'run,
                                }
                                // Fall through: the next Step completes
                                // the granting episode and crossing
                                // resumes (skew-excluded from here on).
                            }
                        }
                    } else if let Some(f) = plan.fault(tid, e) {
                        if !matches!(f, FaultKind::Die(_)) {
                            apply_transient(&f);
                        }
                    }
                    if !excluded[tid as usize].load(Ordering::Acquire) {
                        phases[tid as usize].store(e + 1, Ordering::Release);
                    }
                    let mut attempts = 0u32;
                    loop {
                        match worker(ChurnOp::Step, step_timeout) {
                            Ok(_) => break,
                            Err(BarrierError::Timeout) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                                if abort.load(Ordering::Acquire) {
                                    break 'run;
                                }
                                attempts += 1;
                                // During wind-down rescue on every
                                // timeout so leavers cannot wedge us.
                                let cadence = if stop.load(Ordering::Acquire) { 1 } else { 2 };
                                if attempts % cadence == 0 {
                                    for t in rescue() {
                                        excluded[t as usize].store(true, Ordering::Release);
                                        evictions.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                if attempts >= MAX_ATTEMPTS {
                                    gave_up.fetch_add(1, Ordering::Relaxed);
                                    excluded[tid as usize].store(true, Ordering::Release);
                                    break 'run;
                                }
                            }
                            Err(BarrierError::Poisoned | BarrierError::Diverged) => {
                                poisoned.store(true, Ordering::Release);
                                excluded[tid as usize].store(true, Ordering::Release);
                                break 'run;
                            }
                            Err(BarrierError::Evicted) => {
                                // A peer's rescue detached us while we
                                // were merely slow: heal by rejoining.
                                excluded[tid as usize].store(true, Ordering::Release);
                                if stop.load(Ordering::Acquire) {
                                    break 'run;
                                }
                                match revive(&mut worker) {
                                    Ok(true) => {
                                        rejoined[tid as usize].store(true, Ordering::Release);
                                        attempts = 0;
                                    }
                                    Ok(false) | Err(()) => break 'run,
                                }
                            }
                        }
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                    crossings[tid as usize].fetch_add(1, Ordering::Relaxed);
                    if !excluded[tid as usize].load(Ordering::Acquire) {
                        for (q, ph) in phases.iter().enumerate() {
                            if excluded[q].load(Ordering::Acquire)
                                || plan.death_episode(q as u32).is_some_and(|k| e + 1 >= k)
                            {
                                continue; // churned or evicted; phase frozen
                            }
                            let ph = ph.load(Ordering::Acquire);
                            let skew = ph.abs_diff(e + 1);
                            max_skew.fetch_max(skew, Ordering::Relaxed);
                            assert!(
                                skew <= 1,
                                "lockstep violated among live threads: tid {tid} at episode {e} saw phase {ph}"
                            );
                        }
                    }
                    e += 1;
                }
            });
        }
        // Controller: stop once healed and soaked; sample the probe at
        // provably full membership.
        {
            let (abort, stop, remaining) = (&abort, &stop, &remaining);
            let (crossings, rejoined, poisoned) = (&crossings, &rejoined, &poisoned);
            let (probed, probe_at_full, probe) = (&probed, &probe_at_full, &probe);
            let plan = &plan;
            s.spawn(move || loop {
                if remaining.load(Ordering::Acquire) == 0 || abort.load(Ordering::Acquire) {
                    return;
                }
                if poisoned.load(Ordering::Acquire) {
                    stop.store(true, Ordering::Release);
                    return;
                }
                let rejoins_met = (0..threads)
                    .filter(|&t| plan.rejoin_episode(t).is_some())
                    .all(|t| rejoined[t as usize].load(Ordering::Acquire));
                let soaked = (0..threads)
                    .filter(|&t| plan.death_episode(t).is_none())
                    .all(|t| crossings[t as usize].load(Ordering::Relaxed) >= min_episodes);
                if rejoins_met && soaked {
                    probe_at_full.store(probe(), Ordering::Release);
                    probed.store(true, Ordering::Release);
                    stop.store(true, Ordering::Release);
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            });
        }
        let (abort, remaining, progress) = (&abort, &remaining, &progress);
        let stall_limit = (step_timeout * 8 * MAX_ATTEMPTS).max(Duration::from_secs(5));
        s.spawn(move || watchdog(abort, remaining, progress, stall_limit));
    });
    let planned_rejoins = (0..threads)
        .filter(|&t| plan.rejoin_episode(t).is_some())
        .count() as u32;
    ChurnReport {
        threads,
        crossings: crossings
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        planned_rejoins,
        rejoins: rejoined
            .iter()
            .filter(|r| r.load(Ordering::Acquire))
            .count() as u32,
        evictions: evictions.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
        gave_up: gave_up.load(Ordering::Relaxed),
        poisoned: poisoned.load(Ordering::Acquire),
        probe_at_full: probed
            .load(Ordering::Acquire)
            .then(|| probe_at_full.load(Ordering::Acquire)),
        elapsed: start.elapsed(),
        max_skew: max_skew.load(Ordering::Relaxed),
    }
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

/// [`lockstep_torture`] over the unified [`Barrier`] trait: builds one
/// waiter per thread through the trait object and steps each with
/// `wait_timeout(step)`. If the barrier carries a trace sink
/// ([`crate::barrier::AnyBarrier::attach`] works too, but this path is
/// for plain trait objects), attach writers before calling.
pub fn lockstep_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    episodes: u32,
    stagger: Stagger,
    step: Duration,
) -> TortureReport {
    lockstep_torture(barrier.threads(), episodes, stagger, |tid| {
        let mut w = barrier.waiter(tid);
        move || w.wait_timeout(step)
    })
}

/// [`lockstep_torture`] driven by a shared-seam work model instead of
/// an ad-hoc [`Stagger`]: before each crossing, thread `tid` burns
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
/// [`lockstep_torture`]).
pub fn work_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    episodes: u32,
    model: &combar_work::WorkModel,
    iters_per_us: f64,
    step: Duration,
) -> TortureReport {
    assert_eq!(
        model.participants(),
        barrier.threads(),
        "work model sized for a different participant count"
    );
    lockstep_torture(barrier.threads(), episodes, Stagger::None, |tid| {
        let mut w = barrier.waiter(tid);
        let model = model.clone();
        let mut e = 0u32;
        move || {
            combar_work::busy_work(model.work_iters(e, tid, iters_per_us));
            let r = w.wait_timeout(step);
            if r.is_ok() {
                e += 1;
            }
            r
        }
    })
}

/// The rescue of a participant `tid` whose bounded wait just timed out:
/// evicts the stragglers wedging its episode and returns their ids.
///
/// [`Barrier::stragglers`] judges against whatever episode is in flight
/// *now*. If `tid` finds itself listed, the episode it timed out on has
/// released in the meantime and the list names the next episode's
/// not-yet-arrived participants — live threads — so nothing is evicted.
/// (An episode that releases between the listing and an eviction can
/// still cost a live thread its seat; it rejoins. Closing that needs a
/// rescue bound to the waiter's pending episode — ROADMAP item 2.)
pub fn rescue_stragglers<B: Barrier + ?Sized>(barrier: &B, tid: u32) -> Vec<u32> {
    let stragglers = barrier.stragglers();
    if stragglers.contains(&tid) {
        return Vec::new();
    }
    stragglers
        .into_iter()
        .filter(|&t| barrier.evict(t))
        .collect()
}

/// [`chaos_torture`] over the unified [`Barrier`] trait: steps are
/// bounded waits, rescues are [`rescue_stragglers`].
pub fn chaos_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
) -> ChaosReport {
    chaos_torture(barrier.threads(), episodes, plan, step_timeout, |tid| {
        let mut w = barrier.waiter(tid);
        (
            move |d: Duration| w.wait_timeout(d),
            move || rescue_stragglers(barrier, tid),
        )
    })
}

/// [`churn_torture`] over the unified [`Barrier`] trait: crossings are
/// bounded waits, revivals are `rejoin_within`, rescues are
/// [`rescue_stragglers`] and the full-membership probe is `live_count`.
pub fn churn_torture_on<B: Barrier + ?Sized>(
    barrier: &B,
    min_episodes: u32,
    plan: FaultPlan,
    step_timeout: Duration,
) -> ChurnReport {
    churn_torture(
        barrier.threads(),
        min_episodes,
        plan,
        step_timeout,
        || barrier.live_count(),
        |tid| {
            let mut w = barrier.waiter(tid);
            (
                move |op, d| match op {
                    ChurnOp::Step => w.wait_timeout(d).map(|()| true),
                    ChurnOp::Revive => w.rejoin_within(d),
                },
                move || rescue_stragglers(barrier, tid),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::central::CentralBarrier;
    use crate::dynamic::DynamicBarrier;
    use crate::tree::TreeBarrier;
    use combar_chaos::ChaosConfig;

    const STEP: Duration = Duration::from_secs(5);

    #[test]
    fn torture_passes_for_correct_barriers() {
        let b = CentralBarrier::new(3);
        let rep = lockstep_torture(3, 80, Stagger::Mixed, |_| {
            let mut w = b.waiter();
            move || w.wait_timeout(STEP)
        });
        assert_eq!(rep.episodes, 80);
        assert!(rep.max_skew <= 1);
        assert!(rep.per_episode() > Duration::ZERO);
    }

    #[test]
    fn torture_with_slow_thread_drives_dynamic_swaps() {
        let b = DynamicBarrier::mcs(6, 2);
        lockstep_torture(6, 40, Stagger::SlowThread(5), |tid| {
            let mut w = b.waiter(tid);
            move || w.wait_timeout(STEP)
        });
        assert!(b.swap_count() > 0);
    }

    /// The shared-seam work model drives real threads: a systemic
    /// model keeps the same threads slow every episode, which dynamic
    /// placement detects and converts into swaps — the runtime-side
    /// mirror of the simulator's balance study.
    #[test]
    fn work_torture_exercises_systemic_imbalance_on_real_barriers() {
        use crate::barrier::Barrier;
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
        let _ = work_torture_on(&b as &dyn crate::barrier::Barrier, 1, &model, 1.0, STEP);
    }

    /// A deliberately broken "barrier" (does nothing) must be caught.
    #[test]
    fn torture_catches_a_broken_barrier() {
        let result = std::panic::catch_unwind(|| {
            lockstep_torture(3, 200, Stagger::Mixed, |_| {
                move || {
                    // no synchronization at all
                    std::hint::spin_loop();
                    Ok(())
                }
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
        let rep = lockstep_torture(4, 60, Stagger::Chaos(plan), |tid| {
            let mut w = b.waiter(tid);
            move || w.wait_timeout(STEP)
        });
        assert!(rep.max_skew <= 1);
    }

    #[test]
    fn chaos_torture_evicts_a_silent_death_and_survivors_finish() {
        let plan = FaultPlan::quiet(7).with_death(3, 5, DeathMode::Stall);
        let b = CentralBarrier::new(4);
        let rep = chaos_torture(4, 40, plan, Duration::from_millis(100), |tid| {
            let b = &b;
            let mut w = b.waiter_for(tid);
            (
                move |d| w.wait_timeout(d),
                move || rescue_stragglers(b, tid),
            )
        });
        assert_eq!(rep.planned_deaths, 1);
        assert_eq!(rep.survivors, 3);
        assert!(rep.evictions >= 1);
        assert!(!rep.poisoned);
        for t in 0..3 {
            assert_eq!(
                rep.completed[t], 40,
                "survivor {t} must finish every episode"
            );
        }
        assert_eq!(
            rep.completed[3], 5,
            "the dead thread stopped at its death episode"
        );
    }

    #[test]
    fn chaos_torture_panic_death_poisons_the_run() {
        let plan = FaultPlan::quiet(11).with_death(2, 4, DeathMode::Panic);
        let b = CentralBarrier::new(3);
        let rep = chaos_torture(3, 30, plan, Duration::from_millis(30), |tid| {
            let b = &b;
            let mut w = b.waiter_for(tid);
            (
                move |d| w.wait_timeout(d),
                move || rescue_stragglers(b, tid),
            )
        });
        assert!(rep.poisoned, "an abandoned arrival must poison the barrier");
        assert!(rep.survivors <= 2);
    }

    #[test]
    fn churn_torture_heals_a_scheduled_comeback() {
        let plan = FaultPlan::quiet(13).with_churn(1, 6, DeathMode::Stall, 14);
        let b = CentralBarrier::new(4);
        let rep = churn_torture(
            4,
            30,
            plan,
            Duration::from_millis(50),
            || b.live_count(),
            |tid| {
                let b = &b;
                let mut w = b.waiter_for(tid);
                (
                    move |op, d| match op {
                        ChurnOp::Step => w.wait_timeout(d).map(|()| true),
                        ChurnOp::Revive => w.rejoin_within(d),
                    },
                    move || rescue_stragglers(b, tid),
                )
            },
        );
        assert_eq!(rep.planned_rejoins, 1);
        assert!(rep.rejoins >= 1, "the scheduled comeback must land");
        assert!(!rep.poisoned);
        assert_eq!(rep.gave_up, 0);
        assert_eq!(
            rep.probe_at_full,
            Some(4),
            "at the probe point every thread must be live again"
        );
        assert!(
            rep.evictions >= 1,
            "survivors must have detached the victim"
        );
        for t in [0u32, 2, 3] {
            assert!(
                rep.crossings[t as usize] >= 30,
                "continuously-live thread {t} must soak the minimum"
            );
        }
        assert!(rep.max_skew <= 1);
    }

    /// The come-back clock must keep running when every survivor has
    /// been evicted (and healed) once: scripted closures, no barrier,
    /// no sleeps. Each survivor's first step reports `Evicted`, so all
    /// of them are skew-excluded — and stop publishing `phases` —
    /// before the corpse's come-back episode.
    #[test]
    fn churn_comeback_survives_every_survivor_being_evicted_once() {
        const SURVIVORS: u32 = 2;
        let plan = FaultPlan::quiet(31).with_churn(0, 1, DeathMode::Stall, 6);
        let rep = churn_torture(
            1 + SURVIVORS,
            20,
            plan,
            Duration::from_millis(50),
            || 0,
            |tid| {
                let mut evict_once = tid != 0;
                (
                    move |op, _| match op {
                        ChurnOp::Step if std::mem::take(&mut evict_once) => {
                            Err(BarrierError::Evicted)
                        }
                        ChurnOp::Step | ChurnOp::Revive => Ok(true),
                    },
                    Vec::new,
                )
            },
        );
        assert!(rep.probe_at_full.is_some(), "the scheduled comeback landed");
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
        let rep = churn_torture(
            6,
            25,
            plan,
            Duration::from_millis(50),
            || b.live_count(),
            |tid| {
                let b = &b;
                let mut w = b.waiter(tid);
                (
                    move |op, d| match op {
                        ChurnOp::Step => w.wait_timeout(d).map(|()| true),
                        ChurnOp::Revive => w.rejoin_within(d),
                    },
                    move || rescue_stragglers(b, tid),
                )
            },
        );
        assert_eq!(rep.planned_rejoins, 2);
        assert!(rep.rejoins >= 2);
        assert!(!rep.poisoned);
        // Full membership at the probe point is the healed-state check;
        // the wind-down that follows deliberately re-degrades the tree
        // (leavers are detached by whoever exits last), so no
        // post-run shape assertion is meaningful here.
        assert_eq!(rep.probe_at_full, Some(6));
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
