//! Model-checked barrier conformance (`combar-check`).
//!
//! These tests run the *production* barrier protocols from `combar-rt`
//! under the deterministic schedule-exploration checker: every shadowed
//! atomic operation is a scheduler-controlled step, so a lost wakeup
//! shows up as a detected deadlock and a phase-safety violation as a
//! panic, in a schedule that replays from a printed `u64` token.
//!
//! Two exploration modes are used:
//!
//! * **exhaustive** — DFS over the full schedule space up to a
//!   preemption bound, for the small (2-thread) fixtures;
//! * **PCT** — seeded randomized priority schedules, for the 3-thread
//!   per-kind lockstep fixtures. The schedule count per kind is
//!   `COMBAR_CHECK_PCT` (default 200; CI runs 10 000).
//!
//! The phase-safety invariant asserted by the lockstep fixtures:
//! immediately after a thread completes episode `e` (0-indexed), every
//! peer has completed either `e` or `e + 1` episodes — i.e. barrier
//! episodes never overlap and never skip. A doubled arrival (e.g. from
//! a racing victor/victim swap) would release an episode early and
//! trip the lower bound; a lost arrival would deadlock.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

use combar_check::shadow::{spin_hint, steps, AtomicU32};
use combar_check::{vthread, Checker, FailureKind, Outcome};
use combar_rt::adaptive::WINDOW;
use combar_rt::counter::{Climb, CounterBarrier, CounterWaiter};
use combar_rt::{
    AdaptiveBarrier, AsyncBarrier, AsyncWaiter, BarrierError, CentralBarrier, DisseminationBarrier,
    DynamicBarrier, RejoinStatus, TournamentBarrier, TreeBarrier,
};
use std::sync::atomic::Ordering;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Seeded PCT schedules per barrier kind (`COMBAR_CHECK_PCT`, CI: 10000).
fn pct_schedules() -> u64 {
    std::env::var("COMBAR_CHECK_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// Runs an exhaustive lane — DFS to preemption `bound` under a
/// 2 M-schedule cap — requires the whole space to have been enumerated,
/// and prints the explored-schedule count (`--nocapture`). The lanes run
/// at bound 3, except the tournament's p = 3 lanes with two virtual
/// threads: they run at 2, where bound 3 costs 30–97 s each in debug.
fn expect_full_space(lane: &str, bound: u32, fx: impl Fn() + Sync) -> u64 {
    match Checker::exhaustive(bound)
        .max_schedules(2_000_000)
        .check(fx)
    {
        Outcome::Pass {
            schedules,
            complete,
        } => {
            assert!(complete, "{lane}: schedule space not fully enumerated");
            eprintln!("{lane}: {schedules} schedules, complete");
            schedules
        }
        Outcome::Fail(f) => panic!("{lane} failed model check: {f}"),
    }
}

fn tree_d2(p: u32) -> TreeBarrier {
    TreeBarrier::combining(p, 2)
}

fn dynamic_d2(p: u32) -> DynamicBarrier {
    DynamicBarrier::mcs(p, 2)
}

/// One fallible barrier-wait closure borrowing a barrier of type `B`.
type WaitFn<B> = for<'b> fn(&'b B, u32) -> Box<dyn FnMut() -> Result<(), BarrierError> + 'b>;

/// Builds a checker fixture: `p` virtual threads × `episodes` episodes
/// over a fresh barrier per schedule, with shadowed per-thread phase
/// counters asserting the phase-safety invariant after every episode.
fn lockstep_fixture<B, MkB>(
    p: u32,
    episodes: u32,
    mk_barrier: MkB,
    mk_wait: WaitFn<B>,
) -> impl Fn() + Sync
where
    B: Send + Sync + 'static,
    MkB: Fn(u32) -> B + Sync,
{
    move || {
        let b = Arc::new(mk_barrier(p));
        let phases: Arc<Vec<AtomicU32>> = Arc::new((0..p).map(|_| AtomicU32::new(0)).collect());
        let handles: Vec<_> = (0..p)
            .map(|tid| {
                let b = Arc::clone(&b);
                let phases = Arc::clone(&phases);
                vthread::spawn(move || {
                    let mut wait = mk_wait(&b, tid);
                    for e in 0..episodes {
                        wait().unwrap();
                        phases[tid as usize].store(e + 1, Ordering::SeqCst);
                        for (j, ph) in phases.iter().enumerate() {
                            if j == tid as usize {
                                continue;
                            }
                            let c = ph.load(Ordering::SeqCst);
                            assert!(
                                c == e || c == e + 1,
                                "phase safety violated: thread {tid} finished episode {e} \
                                 but peer {j} has completed {c}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    }
}

fn counter_wait<K: Climb>(
    b: &CounterBarrier<K>,
    tid: u32,
) -> Box<dyn FnMut() -> Result<(), BarrierError> + '_> {
    let mut w = b.waiter_for(tid);
    Box::new(move || w.try_wait())
}

fn dissemination_wait(
    b: &DisseminationBarrier,
    tid: u32,
) -> Box<dyn FnMut() -> Result<(), BarrierError> + '_> {
    let mut w = b.waiter(tid);
    Box::new(move || w.try_wait())
}

// ---------------------------------------------------------------------------
// Exhaustive exploration: 2-thread central barrier, preemption bound 3.
// ---------------------------------------------------------------------------

/// The acceptance fixture from the issue: every interleaving of a
/// 2-thread central-barrier episode up to preemption bound 3, fully
/// enumerated (no schedule cap hit), finds no deadlock, panic, or
/// phase violation.
#[test]
fn exhaustive_central_two_threads_full_space() {
    let fx = lockstep_fixture(2, 1, CentralBarrier::new, counter_wait);
    let schedules = expect_full_space("central p=2 lockstep", 3, fx);
    assert!(schedules > 10, "suspiciously few schedules: {schedules}");
}

// ---------------------------------------------------------------------------
// PCT lockstep per barrier kind: p = 3, 2 episodes.
// ---------------------------------------------------------------------------

#[test]
fn pct_lockstep_central() {
    let fx = lockstep_fixture(3, 2, CentralBarrier::new, counter_wait);
    Checker::pct(0x5eed_0001, 3, pct_schedules())
        .check(fx)
        .expect_pass();
}

#[test]
fn pct_lockstep_combining_tree() {
    let fx = lockstep_fixture(3, 2, |p| TreeBarrier::combining(p, 2), counter_wait);
    Checker::pct(0x5eed_0002, 3, pct_schedules())
        .check(fx)
        .expect_pass();
}

#[test]
fn pct_lockstep_mcs_tree() {
    let fx = lockstep_fixture(3, 2, |p| TreeBarrier::mcs(p, 2), counter_wait);
    Checker::pct(0x5eed_0003, 3, pct_schedules())
        .check(fx)
        .expect_pass();
}

#[test]
fn pct_lockstep_dissemination() {
    let fx = lockstep_fixture(3, 2, DisseminationBarrier::new, dissemination_wait);
    Checker::pct(0x5eed_0004, 3, pct_schedules())
        .check(fx)
        .expect_pass();
}

#[test]
fn pct_lockstep_tournament() {
    let fx = lockstep_fixture(3, 2, TournamentBarrier::new, counter_wait);
    Checker::pct(0x5eed_0005, 3, pct_schedules())
        .check(fx)
        .expect_pass();
}

/// Victor/victim swap linearizability. Dynamic-placement swaps are
/// triggered purely by arrival order (the last updater of a counter
/// wins it and swaps upward), so schedule exploration drives genuinely
/// different swap patterns. The phase-safety assertion is the
/// linearizability check: a swap that lost an arrival would deadlock,
/// one that doubled an arrival would release an episode early and trip
/// the phase bound. The tally asserts exploration actually exercised
/// swaps rather than vacuously passing. `p = 4` because `mcs(3, 2)`
/// collapses to one shared leaf (no swappable counter): the MCS owner
/// tree needs `p > degree + 1` before any counter has a single owner.
#[test]
fn pct_lockstep_dynamic_victor_victim_swaps() {
    let swap_runs = Arc::new(AtomicUsize::new(0));
    let tally = Arc::clone(&swap_runs);
    let fx = move || {
        let b = Arc::new(DynamicBarrier::mcs(4, 2));
        let phases: Arc<Vec<AtomicU32>> = Arc::new((0..4).map(|_| AtomicU32::new(0)).collect());
        let handles: Vec<_> = (0..4u32)
            .map(|tid| {
                let b = Arc::clone(&b);
                let phases = Arc::clone(&phases);
                vthread::spawn(move || {
                    let mut w = b.waiter(tid);
                    for e in 0..2u32 {
                        w.try_wait().unwrap();
                        phases[tid as usize].store(e + 1, Ordering::SeqCst);
                        for (j, ph) in phases.iter().enumerate() {
                            if j == tid as usize {
                                continue;
                            }
                            let c = ph.load(Ordering::SeqCst);
                            assert!(
                                c == e || c == e + 1,
                                "phase safety violated around a swap: thread {tid} finished \
                                 episode {e} but peer {j} has completed {c}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        if b.swap_count() > 0 {
            tally.fetch_add(1, StdOrdering::Relaxed);
        }
    };
    Checker::pct(0x5eed_0006, 3, pct_schedules())
        .check(fx)
        .expect_pass();
    assert!(
        swap_runs.load(StdOrdering::Relaxed) > 0,
        "no explored schedule performed a victor/victim swap"
    );
}

// ---------------------------------------------------------------------------
// Poisoning invariant (PR 1 fault model) under exhaustive exploration.
// ---------------------------------------------------------------------------

/// A waiter dropped mid-episode poisons the barrier. In every
/// interleaving the peer either crossed first (the doomed arrival
/// still completed the episode) or observes `Poisoned` — it never
/// spins forever, which the checker would report as a deadlock. The
/// tally asserts the poisoned outcome is actually reachable. One peer
/// thread holds every other seat (the extra ones arrive without
/// blocking before the first waits), so the schedule space stays that
/// of two threads at any `p`.
fn poisoning_never_strands_peer<K: Climb + 'static>(
    lane: &str,
    p: u32,
    make: fn(u32) -> CounterBarrier<K>,
) {
    let poisoned_runs = Arc::new(AtomicUsize::new(0));
    let tally = Arc::clone(&poisoned_runs);
    let fx = move || {
        let b = Arc::new(make(p));
        let doomed = {
            let b = Arc::clone(&b);
            vthread::spawn(move || {
                let mut w = b.waiter_for(1);
                w.try_arrive().unwrap();
                // Dropped with the episode pending: poisons the barrier.
                drop(w);
            })
        };
        let survivor = {
            let b = Arc::clone(&b);
            vthread::spawn(move || {
                let poisoned = |r: Result<(), BarrierError>| match r {
                    Ok(()) => false,
                    Err(BarrierError::Poisoned) => true,
                    Err(e) => panic!("unexpected barrier error: {e}"),
                };
                let mut ws: Vec<_> = (0..p)
                    .filter(|&tid| tid != 1)
                    .map(|tid| b.waiter_for(tid))
                    .collect();
                let mut saw_poison = false;
                for w in &mut ws[1..] {
                    saw_poison |= poisoned(w.try_arrive());
                }
                // A seat that did arrive merely departs here.
                for w in &mut ws {
                    saw_poison |= poisoned(w.try_wait());
                }
                saw_poison
            })
        };
        let saw_poison = survivor.join();
        doomed.join();
        if saw_poison {
            assert!(b.is_poisoned());
            tally.fetch_add(1, StdOrdering::Relaxed);
        }
    };
    expect_full_space(lane, 3, fx);
    assert!(
        poisoned_runs.load(StdOrdering::Relaxed) > 0,
        "{lane}: no explored schedule reached the poisoned outcome"
    );
}

#[test]
fn exhaustive_poisoning_never_strands_peer() {
    poisoning_never_strands_peer("central p=2 poisoning", 2, CentralBarrier::new);
}

#[test]
fn exhaustive_poisoning_never_strands_tree_peers() {
    poisoning_never_strands_peer("tree p=3 poisoning", 3, tree_d2);
}

#[test]
fn exhaustive_poisoning_never_strands_dynamic_peers() {
    poisoning_never_strands_peer("dynamic p=3 poisoning", 3, dynamic_d2);
}

#[test]
fn exhaustive_poisoning_never_strands_tournament_peers() {
    poisoning_never_strands_peer("tournament p=3 poisoning", 3, TournamentBarrier::new);
}

// ---------------------------------------------------------------------------
// Eviction + rejoin invariant, including the Roster rejoin race window.
// ---------------------------------------------------------------------------

/// Evict a straggler, cross episodes at reduced strength, then revive
/// it *concurrently* with the survivors' next episode. This drives the
/// roster's rejoin CAS directly against the sweep's proxy-delivery CAS
/// on the same slot: whichever CAS wins, the revived thread owes
/// arrivals for exactly the episodes its proxy did not cover, which it
/// discovers from its post-rejoin episode count. The survivors hold
/// their *final* episode until the revival has happened (a rejoin only
/// converges while peers keep crossing — the pending proxied episode
/// needs their arrivals). One thread holds every surviving seat, so
/// the race is enumerated to the same depth at any `p`. Every
/// interleaving must end with everyone at full strength.
fn arrive_all<K: Climb>(ws: &mut [CounterWaiter<'_, K>]) {
    for w in ws {
        w.try_arrive().unwrap();
    }
}

fn depart_all<K: Climb>(ws: &mut [CounterWaiter<'_, K>]) {
    for w in ws {
        w.try_depart().unwrap();
    }
}

/// The lane described above, enumerated to preemption `bound`.
/// `warmup` full-strength episodes, crossed single-threaded before the
/// first virtual thread exists (so they add no schedule), shift which
/// release the race lands on; `settled` runs on the barrier at the end
/// of every schedule.
fn evict_rejoin_converges<K: Climb + 'static>(
    lane: &str,
    bound: u32,
    p: u32,
    make: fn(u32) -> CounterBarrier<K>,
    warmup: u32,
    settled: fn(&CounterBarrier<K>),
) {
    let total = warmup + 4;
    let fx = move || {
        let b = Arc::new(make(p));
        for _ in 0..warmup {
            let mut all: Vec<_> = (0..p).map(|tid| b.waiter_for(tid)).collect();
            arrive_all(&mut all);
            depart_all(&mut all);
        }
        let rejoined = Arc::new(AtomicU32::new(0));
        let mut ws: Vec<_> = (0..p)
            .filter(|&tid| tid != 1)
            .map(|tid| b.waiter_for(tid))
            .collect();
        // Episode 1: thread 1 straggles (it has not even arrived) and
        // is evicted mid-episode; its arrival is delivered by proxy.
        arrive_all(&mut ws);
        assert!(b.evict(1));
        depart_all(&mut ws);
        // Episode 2 at reduced strength.
        arrive_all(&mut ws);
        depart_all(&mut ws);
        // Episode 3 races against the revival below.
        let revived = {
            let b = Arc::clone(&b);
            let rejoined = Arc::clone(&rejoined);
            vthread::spawn(move || {
                let mut w1 = b.waiter_for(1);
                assert!(w1.rejoin().unwrap());
                rejoined.store(1, Ordering::SeqCst);
                // Complete the episode the proxy already arrived for…
                w1.try_depart().unwrap();
                // …then arrive for every remaining episode ourselves.
                while w1.episodes() < total {
                    w1.try_wait().unwrap();
                }
                w1.episodes()
            })
        };
        arrive_all(&mut ws);
        depart_all(&mut ws);
        while rejoined.load(Ordering::SeqCst) == 0 {
            spin_hint();
        }
        while ws[0].episodes() < total {
            arrive_all(&mut ws);
            depart_all(&mut ws);
        }
        assert_eq!(revived.join(), total);
        assert_eq!(b.evicted_count(), 0);
        assert!(!b.is_poisoned());
        settled(&b);
    };
    expect_full_space(lane, bound, fx);
}

#[test]
fn exhaustive_evict_rejoin_converges() {
    evict_rejoin_converges(
        "central p=2 evict/rejoin",
        3,
        2,
        CentralBarrier::new,
        0,
        |_| {},
    );
}

#[test]
fn exhaustive_evict_rejoin_converges_on_the_tree() {
    evict_rejoin_converges("tree p=3 evict/rejoin", 3, 3, tree_d2, 0, |_| {});
}

#[test]
fn exhaustive_evict_rejoin_converges_on_the_dynamic_barrier() {
    evict_rejoin_converges("dynamic p=3 evict/rejoin", 3, 3, dynamic_d2, 0, |_| {});
}

/// The tournament's evicted tid 1 is rank 0's round-0 loser, so its
/// proxy is a flag store, and the revival races it.
#[test]
fn exhaustive_evict_rejoin_converges_on_the_tournament() {
    evict_rejoin_converges(
        "tournament p=3 evict/rejoin",
        2,
        3,
        TournamentBarrier::new,
        0,
        |b| b.validate_shape().unwrap(),
    );
}

/// An adaptive barrier whose policy flips between degree 2 and the flat
/// degree on every call and never reads σ̂, so the wall-clock arrival
/// stamps steer nothing and every schedule replays.
fn flipping_adaptive(p: u32) -> AdaptiveBarrier {
    let wide = AtomicBool::new(false);
    AdaptiveBarrier::new(
        p,
        Box::new(move |_, p| {
            if wide.fetch_xor(true, StdOrdering::Relaxed) {
                p
            } else {
                2
            }
        }),
    )
}

/// The degree switch meets the revival: `WINDOW - 3` warm-up episodes
/// make episode 3 — the one the rejoin CAS races against its release
/// and proxy sweep — the `WINDOW`-th release, so its releaser switches
/// the flat shape to degree 2 in the same quiescent window, and the
/// sweep after the bump walks the new shape.
#[test]
fn exhaustive_evict_rejoin_converges_on_the_adaptive_barrier() {
    assert_eq!(flipping_adaptive(3).current_degree(), 3);
    let warmup = WINDOW - 3;
    evict_rejoin_converges(
        "adaptive p=3 evict/rejoin",
        3,
        3,
        flipping_adaptive,
        warmup,
        |b| {
            assert_eq!(b.current_degree(), 2, "episode 3's release switched degree");
        },
    );
}

/// The last-active rule under the only race that can break it: at
/// p = 2 each thread evicts the other. Exactly one eviction may win —
/// two would leave nobody to arrive, and every proxy sweep would then
/// release an episode and never return — and the winner's proxy lets
/// the spared thread cross alone until the loser rejoins.
#[test]
fn exhaustive_racing_evictors_spare_the_last_active() {
    expect_full_space("central p=2 racing evictors", 3, racing_evictors);
}

/// A sink attached on another OS thread (another test tracing in the
/// same process) leaves a lane's schedule space as it is: an event tag
/// that costs a shadowed read would have to be guarded by the calling
/// thread's own sink (`combar_trace::attached`), not by the process-wide
/// `combar_trace::enabled`. An eviction's event is tagged with the
/// episode its roster CAS returned, so it reads nothing.
#[test]
fn exhaustive_space_ignores_a_trace_sink_on_another_thread() {
    let (attached_tx, attached) = std::sync::mpsc::channel();
    let (done, done_rx) = std::sync::mpsc::channel::<()>();
    let tracer = std::thread::spawn(move || {
        let book = combar_trace::TraceBook::new();
        let _sink = book.attach(0);
        attached_tx.send(()).unwrap();
        let _ = done_rx.recv();
    });
    attached.recv().unwrap();
    let beside = expect_full_space(
        "central p=2 racing evictors beside a sink",
        3,
        racing_evictors,
    );
    drop(done);
    tracer.join().unwrap();
    let alone = expect_full_space("central p=2 racing evictors", 3, racing_evictors);
    assert_eq!(beside, alone, "another thread's sink changed the space");
}

fn racing_evictors() {
    let b = Arc::new(CentralBarrier::new(2));
    let evictors: Vec<_> = [1u32, 0]
        .into_iter()
        .map(|victim| {
            let b = Arc::clone(&b);
            vthread::spawn(move || b.evict(victim))
        })
        .collect();
    let won: Vec<bool> = evictors.into_iter().map(|t| t.join()).collect();
    assert_eq!(won.iter().filter(|&&w| w).count(), 1, "evictions: {won:?}");
    let (spared, evicted) = if won[0] { (0, 1) } else { (1, 0) };
    assert!(b.is_evicted(evicted) && !b.is_evicted(spared));
    assert_eq!(b.evicted_count(), 1);
    let mut ws = b.waiter_for(spared);
    ws.try_wait().unwrap();
    ws.try_wait().unwrap();
    let mut we = b.waiter_for(evicted);
    assert_eq!(we.try_arrive(), Err(BarrierError::Evicted));
    assert!(we.rejoin().unwrap());
    ws.try_arrive().unwrap();
    we.try_depart().unwrap();
    ws.try_depart().unwrap();
    assert_eq!((ws.episodes(), we.episodes()), (3, 3));
    assert_eq!(b.evicted_count(), 0);
}

/// `C(a + b, a)`: the interleavings of two straight-line threads of
/// `a` and `b` atomic steps.
fn shuffles(a: u64, b: u64) -> f64 {
    (1..=a.min(b)).fold(1.0, |n, i| n * (a.max(b) + i) as f64 / i as f64)
}

/// The episode-bound rescue under the race it exists for: A arrives
/// for episode 1 and calls `evict_stragglers` while B arrives for 1 and
/// then for 2, so the rescue runs before, during and after episode 1's
/// release. In every interleaving: A is never evicted; B is evicted
/// only while still missing from episode 1 — the rescue names it
/// exactly when B's episode-1 `try_arrive` reports `Evicted` — and
/// never once it has arrived (its later arrivals `unwrap`); and each
/// thread counts exactly once per episode: a lost count deadlocks, a
/// doubled one releases the single-threaded third episode early. As in
/// the evict/rejoin lane one thread holds every seat but B's, and holds
/// its last episode until B's seat is settled (a rejoin only converges
/// while peers keep crossing).
///
/// The lane is two virtual threads synchronizing at two global
/// barriers, the program class whose executions Bodini et al. (arXiv
/// 1907.04243) count in closed form: episodes compose in series,
/// threads in parallel, so the unbounded total is `Π C(aₖ + bₖ, aₖ)`
/// over the per-episode step counts. It is printed — for the step
/// counts of the first, preemption-free schedule; the protocol's
/// control flow makes them schedule-dependent — beside what
/// preemption `bound` explores.
fn late_rescue_is_bound_to_its_episode<K: Climb + 'static>(
    lane: &str,
    bound: u32,
    p: u32,
    make: fn(u32) -> CounterBarrier<K>,
) {
    const TOTAL: u32 = 2;
    let first_counts = Arc::new(std::sync::OnceLock::new());
    let counts = Arc::clone(&first_counts);
    let fx = move || {
        let b = Arc::new(make(p));
        let settled = Arc::new(AtomicU32::new(0));
        let late = {
            let b = Arc::clone(&b);
            let settled = Arc::clone(&settled);
            vthread::spawn(move || {
                let mut wb = b.waiter_for(1);
                let evicted = match wb.try_arrive() {
                    Ok(()) => false,
                    Err(BarrierError::Evicted) => wb.rejoin().unwrap(),
                    Err(e) => panic!("unexpected barrier error: {e}"),
                };
                // Arrived, itself or by proxy: no rescue may touch B now.
                settled.store(1, Ordering::SeqCst);
                wb.try_depart().unwrap();
                let first = steps();
                while wb.episodes() < TOTAL {
                    wb.try_wait().unwrap();
                }
                (evicted, wb.episodes(), [first, steps() - first])
            })
        };
        let mut ws: Vec<_> = (0..p)
            .filter(|&tid| tid != 1)
            .map(|tid| b.waiter_for(tid))
            .collect();
        arrive_all(&mut ws);
        let rescued = ws[0].evict_stragglers();
        depart_all(&mut ws);
        let first = steps();
        while settled.load(Ordering::SeqCst) == 0 {
            spin_hint();
        }
        while ws[0].episodes() < TOTAL {
            arrive_all(&mut ws);
            depart_all(&mut ws);
        }
        let a_steps = [first, steps() - first];
        let (b_evicted, b_episodes, b_steps) = late.join();
        counts.get_or_init(|| (a_steps, b_steps));
        let expected: &[u32] = if b_evicted { &[1] } else { &[] };
        assert_eq!(rescued, expected, "the rescue and B disagree");
        assert_eq!(b_episodes, TOTAL);
        assert!(!b.is_evicted(0), "the rescuer lost its own seat");
        assert_eq!(b.evicted_count(), 0);
        assert!(!b.is_poisoned());
        let mut wb = b.waiter_for(1);
        arrive_all(&mut ws);
        assert_eq!(b.stragglers(), [1], "a doubled count released episode 3");
        wb.try_arrive().unwrap();
        depart_all(&mut ws);
        wb.try_depart().unwrap();
    };
    let schedules = expect_full_space(lane, bound, fx);
    let (a, b) = first_counts.get().expect("at least one schedule ran");
    let total: f64 = a.iter().zip(b).map(|(&a, &b)| shuffles(a, b)).product();
    eprintln!(
        "{lane}: {schedules} schedules at preemption bound {bound} of {total:.3e} unbounded \
         (fork/join with barriers, per-episode steps A {a:?} B {b:?})"
    );
}

#[test]
fn exhaustive_late_rescue_is_bound_to_its_episode() {
    late_rescue_is_bound_to_its_episode("central p=2 late rescue", 3, 2, CentralBarrier::new);
}

#[test]
fn exhaustive_late_rescue_is_bound_to_its_episode_on_the_tree() {
    late_rescue_is_bound_to_its_episode("tree p=3 late rescue", 3, 3, tree_d2);
}

#[test]
fn exhaustive_late_rescue_is_bound_to_its_episode_on_the_dynamic_barrier() {
    late_rescue_is_bound_to_its_episode("dynamic p=3 late rescue", 3, 3, dynamic_d2);
}

#[test]
fn exhaustive_late_rescue_is_bound_to_its_episode_on_the_tournament() {
    late_rescue_is_bound_to_its_episode("tournament p=3 late rescue", 2, 3, TournamentBarrier::new);
}

/// Co-players of one track release once. The tournament's champion is
/// evicted before anyone plays, so both of its losers — tid 1 in round
/// 0, tid 2 (after a bye) in round 1 — adopt its track when they store
/// its flag, and in the schedules where each stores before the other
/// reads, both reach the champion slot of the same episode. The release
/// ticket elects one: a second release would let a thread cross the
/// next episode without its peer, which the phase bound catches.
#[test]
fn exhaustive_co_adopters_release_once() {
    let fx = || {
        let b = Arc::new(TournamentBarrier::new(3));
        assert!(b.evict(0));
        let phases: Arc<Vec<AtomicU32>> = Arc::new((0..3).map(|_| AtomicU32::new(0)).collect());
        let adopters: Vec<_> = [1u32, 2]
            .into_iter()
            .map(|tid| {
                let (b, phases) = (Arc::clone(&b), Arc::clone(&phases));
                vthread::spawn(move || {
                    let mut w = b.waiter(tid);
                    for e in 0..2 {
                        w.try_wait().unwrap();
                        phases[tid as usize].store(e + 1, Ordering::SeqCst);
                        let peer = phases[3 - tid as usize].load(Ordering::SeqCst);
                        assert!(peer == e || peer == e + 1, "tid {tid} crossed {e} alone");
                    }
                })
            })
            .collect();
        for t in adopters {
            t.join();
        }
    };
    expect_full_space("tournament p=3 co-adopters", 2, fx);
}

/// Online tree reconfiguration under exhaustive exploration: two live
/// threads cross while one of them detaches a third that never showed
/// up. The detach's park/pending stores race the concurrent release —
/// the reconfiguration may fold in at episode 1's boundary or episode
/// 2's, and in every interleaving the survivors release both episodes
/// and the final shape byte-matches a fresh prune of the base topology
/// (`validate_shape`), with the orphaned subtree re-parented.
#[test]
fn exhaustive_tree_detach_reparents_with_zero_violations() {
    let fx = || {
        let b = Arc::new(TreeBarrier::combining(3, 2));
        let base_depth = b.base_depth();
        let t1 = {
            let b = Arc::clone(&b);
            vthread::spawn(move || {
                let mut w1 = b.waiter(1);
                w1.try_wait().unwrap();
                w1.try_wait().unwrap();
            })
        };
        let mut w0 = b.waiter(0);
        // Episode 1: thread 2 never arrives; declaring it dead races
        // thread 1's arrival and the release itself.
        w0.try_arrive().unwrap();
        assert!(b.detach(2));
        w0.try_depart().unwrap();
        // Episode 2 completes at (or after) the re-parented shape.
        w0.try_wait().unwrap();
        t1.join();
        assert_eq!(b.live_count(), 2);
        assert!(b.critical_depth() <= base_depth);
        assert!(!b.is_poisoned());
        b.validate_shape().unwrap();
    };
    expect_full_space("tree p=3 detach/re-parent", 3, fx);
}

/// The rejoin race under PCT: a detached thread files its attach
/// request, then its re-admission (the releaser's quiescent-window
/// grant + roster admit CAS) races both survivors' signal walks,
/// its own `try_rejoin` polling, and the first full-strength episode.
/// Clock-free throughout (`try_rejoin`/`try_wait` only), so every
/// schedule is deterministic. CI drives this at `COMBAR_CHECK_PCT=10000`.
#[test]
fn pct_tree_rejoin_race_with_survivor_episodes() {
    let fx = || {
        let b = Arc::new(TreeBarrier::combining(3, 2));
        let filed = Arc::new(AtomicU32::new(0));
        // Survivor 1: four episodes, holding episode 3 until the
        // attach request is provably filed (so its boundary grants it).
        let t1 = {
            let b = Arc::clone(&b);
            let filed = Arc::clone(&filed);
            vthread::spawn(move || {
                let mut w1 = b.waiter(1);
                w1.try_wait().unwrap();
                w1.try_wait().unwrap();
                while filed.load(Ordering::SeqCst) == 0 {
                    spin_hint();
                }
                w1.try_wait().unwrap();
                w1.try_wait().unwrap();
            })
        };
        // Survivor 0: episode 1 detaches the absent thread 2, then the
        // same ladder as survivor 1.
        let mut w0 = b.waiter(0);
        w0.try_arrive().unwrap();
        assert!(b.detach(2));
        w0.try_depart().unwrap();
        w0.try_wait().unwrap();
        // The corpse revives: files the attach, then polls. Episode
        // 3's releaser grants it, leaving the waiter mid-episode (its
        // arrival delivered by proxy): the first wait departs at once,
        // the second is a genuine full-strength crossing.
        let t2 = {
            let b = Arc::clone(&b);
            let filed = Arc::clone(&filed);
            vthread::spawn(move || {
                let mut w2 = b.waiter(2);
                assert_eq!(w2.try_rejoin().unwrap(), RejoinStatus::Pending);
                filed.store(1, Ordering::SeqCst);
                loop {
                    match w2.try_rejoin().unwrap() {
                        RejoinStatus::Rejoined => break,
                        RejoinStatus::Pending => spin_hint(),
                        RejoinStatus::NotEvicted => unreachable!("was detached"),
                    }
                }
                w2.try_wait().unwrap();
                w2.try_wait().unwrap();
            })
        };
        while filed.load(Ordering::SeqCst) == 0 {
            spin_hint();
        }
        w0.try_wait().unwrap();
        w0.try_wait().unwrap();
        t1.join();
        t2.join();
        assert_eq!(b.live_count(), 3);
        assert_eq!(b.evicted_count(), 0);
        assert!(!b.is_poisoned());
        b.validate_shape().unwrap();
    };
    Checker::pct(0x5eed_0007, 3, pct_schedules())
        .check(fx)
        .expect_pass();
}

// ---------------------------------------------------------------------------
// Async barrier: waker registration vs release, and cancel-while-parked.
// ---------------------------------------------------------------------------

/// A waker whose wake is a *shadowed* store, so the checker sees the
/// wakeup as a schedule point and a vthread can block on it with the
/// watched-location spin. A lost wakeup (parked waker never woken while
/// the epoch never advances for it) is then a detected deadlock.
///
/// Its clone is a shadowed RMW too. A parker clones its waker just
/// before pushing it onto the shard list (outside the lock), so the
/// checker can preempt it between its last epoch check and the push —
/// the window the re-check after the push exists to close, and one a
/// real executor's clone (an atomic refcount bump) also opens.
struct ShadowWake {
    woken: AtomicU32,
    clones: AtomicU32,
}

impl ShadowWake {
    fn waker() -> (Arc<Self>, Waker) {
        let flag = Arc::new(Self {
            woken: AtomicU32::new(0),
            clones: AtomicU32::new(0),
        });
        let data = Arc::into_raw(Arc::clone(&flag)).cast::<()>();
        // SAFETY: `data` is an `Arc<ShadowWake>` reference turned raw,
        // which is what every `SHADOW_WAKE` entry expects.
        let waker = unsafe { Waker::from_raw(RawWaker::new(data, &SHADOW_WAKE)) };
        (flag, waker)
    }

    fn woken(&self) -> bool {
        self.woken.load(Ordering::SeqCst) != 0
    }
}

static SHADOW_WAKE: RawWakerVTable =
    RawWakerVTable::new(shadow_clone, shadow_wake, shadow_wake_by_ref, shadow_drop);

// Each `Waker` built on `SHADOW_WAKE` owns one strong reference of an
// `Arc<ShadowWake>`, passed as `data`; `shadow_wake` and `shadow_drop`
// give it back.
unsafe fn shadow_clone(data: *const ()) -> RawWaker {
    let flag = data.cast::<ShadowWake>();
    // SAFETY: `data` is a live `Arc<ShadowWake>` reference (above); the
    // new waker owns the strong count added here.
    unsafe {
        (*flag).clones.fetch_add(1, Ordering::SeqCst);
        Arc::increment_strong_count(flag);
    }
    RawWaker::new(data, &SHADOW_WAKE)
}

unsafe fn shadow_wake(data: *const ()) {
    // SAFETY: the consumed waker's reference is live until the drop.
    unsafe {
        shadow_wake_by_ref(data);
        shadow_drop(data);
    }
}

unsafe fn shadow_wake_by_ref(data: *const ()) {
    // SAFETY: the borrowed waker keeps its reference alive.
    let flag = unsafe { &*data.cast::<ShadowWake>() };
    flag.woken.store(1, Ordering::SeqCst);
}

unsafe fn shadow_drop(data: *const ()) {
    // SAFETY: the dropped waker gives back the reference it owned.
    drop(unsafe { Arc::from_raw(data.cast::<ShadowWake>()) });
}

/// One full crossing the way an executor drives it: poll, and on
/// `Pending` block until the registered waker fires, then re-poll
/// (spurious wakes re-park with a fresh waker).
fn checked_async_wait(w: &mut AsyncWaiter) -> Result<(), BarrierError> {
    loop {
        let (flag, waker) = ShadowWake::waker();
        let mut cx = Context::from_waker(&waker);
        match w.poll_wait(&mut cx) {
            Poll::Ready(r) => return r,
            Poll::Pending => {
                while !flag.woken() {
                    spin_hint();
                }
            }
        }
    }
}

/// The tentpole race, fully enumerated: a parker pushing its waker onto
/// the shard list races the releaser's bump-epoch-then-take-batch
/// sweep. The protocol's ordering (epoch bump published *before* the
/// wait lists are taken, parker re-checks after pushing) is exactly
/// what this explores — a lost wakeup deadlocks, a premature release
/// trips the phase bound, a doubled release overshoots the final epoch.
fn async_park_vs_release(lane: &str, shards: u32) {
    const EPISODES: u32 = 2;
    let fx = || {
        let b = AsyncBarrier::new(2, shards);
        let phases: Arc<Vec<AtomicU32>> = Arc::new((0..2).map(|_| AtomicU32::new(0)).collect());
        let handles: Vec<_> = (0..2u32)
            .map(|tid| {
                let b = b.clone();
                let phases = Arc::clone(&phases);
                vthread::spawn(move || {
                    let mut w = b.waiter_for(tid);
                    for e in 0..EPISODES {
                        checked_async_wait(&mut w).unwrap();
                        phases[tid as usize].store(e + 1, Ordering::SeqCst);
                        let peer = phases[1 - tid as usize].load(Ordering::SeqCst);
                        assert!(
                            peer == e || peer == e + 1,
                            "phase safety violated: tid {tid} finished episode {e} \
                             but peer has completed {peer}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(b.epoch(), EPISODES, "exactly one release per episode");
        assert!(!b.is_poisoned());
    };
    let schedules = expect_full_space(lane, 3, fx);
    assert!(schedules > 10, "suspiciously few schedules: {schedules}");
}

/// One shard: the first arrival counts and parks in one lock section,
/// before the second can complete the shard and release, so no push
/// races the sweep here; the two-shard lane below keeps that race.
#[test]
fn exhaustive_async_park_vs_release_race() {
    async_park_vs_release("async p=2 park vs release", 1);
}

/// Two shards of one seat each: every arrival completes its shard, so
/// the one that does not release parks by push-then-re-check against
/// the other's sweep — the lane that fails if the re-check goes.
#[test]
fn exhaustive_async_two_shard_park_vs_release_race() {
    async_park_vs_release("async p=2 shards=2 park vs release", 2);
}

/// Cancel-while-parked under seeded PCT schedules (CI drives this at
/// `COMBAR_CHECK_PCT=10000`): one session arrives, possibly parks, then
/// cancels (graceful leave) — racing the peer's arrival, the release
/// fold, and its own stale waker in the shard list. The survivor
/// crosses two episodes and departs; its final leave proxies one
/// arrival into the epoch after its last crossing and, being the last
/// live seat, self-releases it — so in *every* interleaving the
/// drained barrier parks at exactly epoch 3. An overshoot means the
/// cancel double-counted (arrival standing *and* proxy delivered); a
/// wedged survivor (lost release) is a detected deadlock. The tally
/// asserts the parked-then-cancelled interleaving is actually
/// explored.
#[test]
fn pct_async_cancel_while_parked_no_wedge_no_double_release() {
    let parked_cancels = Arc::new(AtomicUsize::new(0));
    let tally = Arc::clone(&parked_cancels);
    let fx = move || {
        let b = AsyncBarrier::new(2, 1);
        let canceller = {
            let b = b.clone();
            let tally = Arc::clone(&tally);
            vthread::spawn(move || {
                let mut w = b.waiter_for(1);
                let (_flag, waker) = ShadowWake::waker();
                let mut cx = Context::from_waker(&waker);
                if w.poll_wait(&mut cx).is_pending() {
                    tally.fetch_add(1, StdOrdering::Relaxed);
                }
                // Cancel the session with the arrival standing (and the
                // waker possibly still parked on the shard).
                w.leave();
            })
        };
        let survivor = {
            let b = b.clone();
            vthread::spawn(move || {
                let mut w = b.waiter_for(0);
                // Episode 0 crosses with the canceller's arrival (live
                // or proxied); episode 1 at reduced strength.
                checked_async_wait(&mut w).unwrap();
                checked_async_wait(&mut w).unwrap();
                w.leave();
            })
        };
        canceller.join();
        survivor.join();
        assert_eq!(b.epoch(), 3, "cancel double-counted or lost a release");
        assert_eq!(b.live_count(), 0, "every session departed");
        assert!(!b.is_poisoned());
    };
    Checker::pct(0x5eed_0008, 3, pct_schedules())
        .check(fx)
        .expect_pass();
    assert!(
        parked_cancels.load(StdOrdering::Relaxed) > 0,
        "no explored schedule cancelled while parked"
    );
}

// ---------------------------------------------------------------------------
// The checker catches a real protocol bug and the token replays it.
// ---------------------------------------------------------------------------

/// A sense-reversing barrier whose releasing thread forgets the
/// release store: the classic lost-wakeup bug the checker exists to
/// catch.
struct BrokenBarrier {
    count: AtomicU32,
    sense: AtomicU32,
}

impl BrokenBarrier {
    fn new() -> Self {
        Self {
            count: AtomicU32::new(0),
            sense: AtomicU32::new(0),
        }
    }

    fn wait(&self) {
        let s = self.sense.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
            self.count.store(0, Ordering::SeqCst);
            // BUG (deliberate): the release store `self.sense.store(
            // s ^ 1, SeqCst)` is omitted, stranding the peer.
        } else {
            while self.sense.load(Ordering::SeqCst) == s {
                spin_hint();
            }
        }
    }
}

/// Acceptance criterion: the dropped-release-flag barrier is caught as
/// a deadlock, the failing schedule is minimized, and the printed
/// token alone reproduces the failure.
#[test]
fn broken_release_flag_caught_and_token_replays() {
    let fixture = || {
        let b = Arc::new(BrokenBarrier::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                vthread::spawn(move || b.wait())
            })
            .collect();
        for h in handles {
            h.join();
        }
    };
    let outcome = Checker::exhaustive(2).check(fixture);
    let failure = outcome
        .failure()
        .expect("dropped release flag must be caught")
        .clone();
    assert_eq!(failure.kind, FailureKind::Deadlock, "got: {failure}");
    assert!(!failure.schedule.is_empty());

    // The token alone — as printed in the failure report — replays it.
    let replay = Checker::replay(failure.token).check(fixture);
    let replayed = replay.failure().expect("token failed to reproduce");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
}

// ---------------------------------------------------------------------------
// Trace determinism under the checker.
// ---------------------------------------------------------------------------

/// Structured tracing is deterministic under schedule exploration: two
/// identical-seed PCT runs over a traced MCS-tree fixture produce
/// byte-identical merged event streams across every explored schedule.
/// Trace positions are per-writer logical ticks and every emission
/// site either reads no shadowed atomic or guards the read behind
/// `combar_trace::attached()`, so the recorded timeline is a pure
/// function of the schedule.
#[test]
fn traced_schedules_produce_identical_event_streams() {
    use combar_trace::TraceBook;

    fn traced_run(seed: u64) -> String {
        let log = Arc::new(std::sync::Mutex::new(String::new()));
        let sink = Arc::clone(&log);
        let fx = move || {
            let book = TraceBook::new();
            let b = Arc::new(TreeBarrier::mcs(3, 2));
            let handles: Vec<_> = (0..3)
                .map(|tid| {
                    let b = Arc::clone(&b);
                    let book = Arc::clone(&book);
                    vthread::spawn(move || {
                        let _g = book.attach(tid);
                        let mut w = b.waiter(tid);
                        for _ in 0..2 {
                            w.try_wait().unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            sink.lock()
                .unwrap()
                .push_str(&combar_trace::render(&book.drain()));
        };
        Checker::pct(seed, 3, 40).check(fx).expect_pass();
        let s = log.lock().unwrap().clone();
        assert!(s.contains("release"), "traced schedules must release");
        s
    }

    assert_eq!(traced_run(0x5eed_0011), traced_run(0x5eed_0011));
}

/// Debug helper: replay a failing token and dump the recorded trace.
/// Run manually: `cargo test --test model_check -- --ignored debug_replay --nocapture`
#[test]
#[ignore]
fn debug_replay() {
    let tok = u64::from_str_radix(
        std::env::var("COMBAR_DEBUG_TOKEN")
            .expect("set COMBAR_DEBUG_TOKEN")
            .trim_start_matches("0x"),
        16,
    )
    .unwrap();
    let fx = lockstep_fixture(3, 2, CentralBarrier::new, counter_wait);
    let out = Checker::replay(tok).check(fx);
    let f = out.failure().expect("token did not fail");
    eprintln!("== {f}");
    for ev in &f.trace {
        eprintln!(
            "step {:4}  t{}  {:?}  loc {:?}  val {:#x}",
            ev.step, ev.tid, ev.access, ev.loc, ev.value
        );
    }
}
