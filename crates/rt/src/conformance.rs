//! Barrier conformance: one shared contract matrix for every kind.
//!
//! Every barrier in this crate makes the same promises — lockstep
//! phasing, unbounded reuse through sense/epoch reversal, release only
//! after all arrivals, survival of waiter churn — but historically each
//! integration test restated those assertions by hand per kind. This
//! module names the kinds ([`BarrierKind`]) and packages the contracts
//! as reusable check functions so the full matrix (kind × contract ×
//! thread count) is written once and every new barrier joins it by
//! adding one enum variant. Type erasure comes from the unified
//! [`crate::barrier::Barrier`] trait: [`AnyBarrier`]/[`AnyWaiter`] are
//! thin newtypes over boxed trait objects (re-exported here from
//! [`crate::barrier`]), so the whole matrix doubles as a conformance
//! check on every kind's trait impl.
//!
//! The contracts:
//!
//! * [`check_lockstep`] — the fundamental guarantee, soaked under
//!   adversarial staggering via [`lockstep_torture_on`] for ≥ 100
//!   episodes;
//! * [`check_reuse_and_churn`] — back-to-back episodes at maximal
//!   arrival rate across *odd-length* phases with fresh waiters per
//!   phase, stressing sense reversal on both parities of the churn
//!   boundary;
//! * [`check_arrival_release_ordering`] — no release before every
//!   arrival of the episode, observed through per-thread signal stamps;
//! * [`check_fuzzy_slack`] — for kinds with an arrive/depart split,
//!   slack work between the phases completes before any peer departs
//!   the *next* episode (Gupta's fuzzy contract).
//!
//! Deeper, kind-specific behaviour (victor/victim migration, adaptive
//! degree policy, eviction) stays in dedicated tests; model-checked
//! interleaving coverage lives in `tests/model_check.rs` on top of
//! `combar-check`.

use crate::barrier::BarrierBuilder;
use crate::harness::{lockstep_torture_on, Stagger, TortureReport};
use crate::BarrierError;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

pub use crate::barrier::{AnyBarrier, AnyWaiter};

/// Episodes each conformance contract drives (the contract demands at
/// least 100 reuses of the same barrier object).
pub const CONFORMANCE_EPISODES: u32 = 120;

/// Bounded step so harness watchdog/abort machinery can drain a wedged
/// run instead of hanging the test binary.
const STEP: Duration = Duration::from_secs(5);

/// A barrier family (plus its shape parameters, where it has any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Single shared counter with sense reversal.
    Central,
    /// Central counter whose waiters sleep on a condvar instead of
    /// spinning (`Central × Park`).
    Blocking,
    /// Static combining tree of the given fan-in.
    CombiningTree {
        /// Fan-in of every counter in the tree.
        degree: u32,
    },
    /// MCS-style tree (each counter owned by one processor).
    McsTree {
        /// Fan-in bound of the owner subtrees.
        degree: u32,
    },
    /// Dissemination barrier (⌈log₂ p⌉ rounds of pairwise flags).
    Dissemination,
    /// Tournament barrier (statically paired winners per round).
    Tournament,
    /// MCS tree with the paper's dynamic victor/victim placement.
    Dynamic {
        /// Fan-in bound of the owner subtrees.
        degree: u32,
    },
    /// Adaptive-degree combining tree (spread-threshold stand-in
    /// policy; the analytic-model policy lives in the `combar` core
    /// crate and is exercised by its own test).
    Adaptive,
    /// Async epoch runtime: participants are parked wakers on sharded
    /// wait lists; release fans out as batched wakeups. The threaded
    /// matrix drives it through the blocking bridge; logical-scale
    /// coverage lives in [`crate::asyncb::conformance`].
    Async {
        /// Number of arrival shards.
        shards: u32,
    },
}

impl BarrierKind {
    /// The canonical matrix axis: one entry per family, plus extra
    /// degrees where shape changes the protocol (a degree-p combining
    /// tree collapses to a central barrier; degree 2 maximizes depth).
    pub fn all() -> Vec<BarrierKind> {
        vec![
            BarrierKind::Central,
            BarrierKind::Blocking,
            BarrierKind::CombiningTree { degree: 2 },
            BarrierKind::CombiningTree { degree: 8 },
            BarrierKind::McsTree { degree: 2 },
            BarrierKind::Dissemination,
            BarrierKind::Tournament,
            BarrierKind::Dynamic { degree: 2 },
            BarrierKind::Adaptive,
            BarrierKind::Async { shards: 4 },
        ]
    }

    /// Human-readable label used in assertion messages.
    pub fn label(&self) -> String {
        match self {
            BarrierKind::Central => "central".into(),
            BarrierKind::Blocking => "blocking".into(),
            BarrierKind::CombiningTree { degree } => format!("combining-tree(d={degree})"),
            BarrierKind::McsTree { degree } => format!("mcs-tree(d={degree})"),
            BarrierKind::Dissemination => "dissemination".into(),
            BarrierKind::Tournament => "tournament".into(),
            BarrierKind::Dynamic { degree } => format!("dynamic(d={degree})"),
            BarrierKind::Adaptive => "adaptive".into(),
            BarrierKind::Async { shards } => format!("async(s={shards})"),
        }
    }

    /// Whether this kind's waiters expose the fuzzy arrive/depart
    /// split ([`check_fuzzy_slack`] is a no-op for the rest): every kind
    /// but dissemination, whose rounds interleave both phases.
    pub fn supports_fuzzy(&self) -> bool {
        !matches!(self, BarrierKind::Dissemination)
    }

    /// Constructs a barrier of this kind for `p` threads, through the
    /// unified [`BarrierBuilder`] path.
    pub fn build(&self, p: u32) -> AnyBarrier {
        BarrierBuilder::new(*self, p).build()
    }
}

/// Contract 1 — lockstep: soaks the barrier under adversarial
/// staggering and asserts no thread ever runs more than one episode
/// ahead of another. Returns the harness report for further checks.
///
/// # Panics
///
/// Panics if the lockstep invariant is violated or the run wedges.
pub fn check_lockstep(kind: BarrierKind, p: u32, episodes: u32) -> TortureReport {
    let b = kind.build(p);
    let report = lockstep_torture_on(b.as_dyn(), episodes, Stagger::Mixed, STEP);
    assert_eq!(
        report.episodes,
        episodes,
        "{}: torture cut short",
        kind.label()
    );
    assert!(
        report.max_skew <= 1,
        "{}: lockstep skew {}",
        kind.label(),
        report.max_skew
    );
    report
}

/// Contract 2 — reuse and waiter churn: the same barrier object serves
/// ≥ 100 back-to-back episodes at maximal arrival rate, split into
/// *odd-length* phases with fresh waiters per phase so the churn
/// boundary lands on both parities of the internal sense/epoch
/// reversal (a waiter must resynchronize from barrier state, not
/// assume it was born at parity zero).
///
/// # Panics
///
/// Panics if any crossing fails or times out.
pub fn check_reuse_and_churn(kind: BarrierKind, p: u32) {
    let b = kind.build(p);
    // 5 phases × 21 episodes = 105 ≥ 100 total reuses.
    for phase in 0..5 {
        std::thread::scope(|s| {
            for tid in 0..p {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for e in 0..21u32 {
                        w.wait_timeout(STEP).unwrap_or_else(|err| {
                            panic!(
                                "{}: phase {phase} episode {e} tid {tid}: {err}",
                                kind.label()
                            )
                        });
                    }
                });
            }
        });
    }
}

/// Contract 3 — arrival/release ordering: a crossing may not return
/// until every participant has signalled the episode. Each thread
/// stamps a shared slot *before* stepping; after the step it must see
/// every peer's stamp at this episode or (at most) the next.
///
/// # Panics
///
/// Panics if any thread is released before a peer arrived.
pub fn check_arrival_release_ordering(kind: BarrierKind, p: u32) {
    let b = kind.build(p);
    let arrived: Vec<AtomicU32> = (0..p).map(|_| AtomicU32::new(0)).collect();
    std::thread::scope(|s| {
        for tid in 0..p {
            let b = &b;
            let arrived = &arrived;
            s.spawn(move || {
                let mut w = b.waiter(tid);
                for e in 0..CONFORMANCE_EPISODES {
                    arrived[tid as usize].store(e + 1, Ordering::Release);
                    w.wait_timeout(STEP).unwrap();
                    for (q, a) in arrived.iter().enumerate() {
                        let seen = a.load(Ordering::Acquire);
                        assert!(
                            seen == e + 1 || seen == e + 2,
                            "{}: released from episode {e} while peer {q} had \
                             only signalled {seen}",
                            kind.label()
                        );
                    }
                }
            });
        }
    });
}

/// Contract 4 — fuzzy slack: work done between `arrive` and `depart`
/// of episode `e` is complete before any thread departs episode
/// `e + 1`. Returns `false` (doing nothing) for kinds without the
/// split.
///
/// # Panics
///
/// Panics if a departure overtakes a peer's slack work.
pub fn check_fuzzy_slack(kind: BarrierKind, p: u32) -> bool {
    if !kind.supports_fuzzy() {
        return false;
    }
    const EPISODES: u32 = 100;
    let b = kind.build(p);
    let slack_units = AtomicU32::new(0);
    std::thread::scope(|s| {
        for tid in 0..p {
            let b = &b;
            let slack_units = &slack_units;
            s.spawn(move || {
                let mut any = b.waiter(tid);
                let w = any.as_fuzzy().expect("kind advertises fuzzy support");
                for e in 0..EPISODES {
                    w.arrive();
                    slack_units.fetch_add(1, Ordering::AcqRel);
                    w.depart();
                    // All arrivals for episode e happened; my own slack
                    // ran; at least p·e + my (e+1) units must exist.
                    let seen = slack_units.load(Ordering::Acquire);
                    assert!(
                        seen > e * p,
                        "{}: episode {e}: only {seen} slack units visible",
                        kind.label()
                    );
                }
            });
        }
    });
    assert_eq!(slack_units.load(Ordering::Relaxed), EPISODES * p);
    true
}

/// Contract 5 — bounded waiting through the erased path: a waiter whose
/// peers have not arrived observes [`BarrierError::Timeout`] *through
/// the `AnyWaiter` trait object*, the episode stays in flight (a
/// further wait resumes it rather than re-arriving), and the barrier
/// serves later episodes untouched. This is the contract the networked
/// epoch server's clients lean on: giving up on a bounded wait must
/// never corrupt the crossing.
///
/// # Panics
///
/// Panics if the lone waiter does not time out, or any subsequent
/// crossing fails.
pub fn check_wait_timeout(kind: BarrierKind, p: u32) {
    let b = kind.build(p);
    if p < 2 {
        // No peer to be late; the erased call must still complete.
        b.waiter(0).wait_timeout(STEP).unwrap();
        return;
    }
    let timed_out = AtomicU32::new(0);
    std::thread::scope(|s| {
        for tid in 0..p {
            let b = &b;
            let timed_out = &timed_out;
            s.spawn(move || {
                let mut w = b.waiter(tid);
                if tid == 0 {
                    // Alone at the barrier: the bounded wait gives up...
                    let r = w.wait_timeout(Duration::from_millis(10));
                    assert_eq!(
                        r,
                        Err(BarrierError::Timeout),
                        "{}: lone waiter must time out",
                        kind.label()
                    );
                    timed_out.store(1, Ordering::Release);
                    // ...and a later wait resumes the same episode.
                    w.wait_timeout(STEP)
                        .unwrap_or_else(|e| panic!("{}: resume: {e}", kind.label()));
                } else {
                    // Hold back until the timeout has provably fired.
                    while timed_out.load(Ordering::Acquire) == 0 {
                        std::hint::spin_loop();
                    }
                    w.wait_timeout(STEP)
                        .unwrap_or_else(|e| panic!("{}: late peer: {e}", kind.label()));
                }
                // The timeout must not have wounded the episode
                // machinery: further crossings stay clean.
                for e in 0..3 {
                    w.wait_timeout(STEP).unwrap_or_else(|err| {
                        panic!("{}: post-timeout episode {e}: {err}", kind.label())
                    });
                }
            });
        }
    });
}

/// Runs the full contract suite for one (kind, thread count) cell.
pub fn check_full_contract(kind: BarrierKind, p: u32) {
    check_lockstep(kind, p, CONFORMANCE_EPISODES);
    check_reuse_and_churn(kind, p);
    check_arrival_release_ordering(kind, p);
    check_fuzzy_slack(kind, p);
    check_wait_timeout(kind, p);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The axis covers every family and the erased dispatch works.
    #[test]
    fn matrix_axis_builds_and_steps() {
        for kind in BarrierKind::all() {
            let b = kind.build(1);
            let mut w = b.waiter(0);
            w.wait_timeout(STEP)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(
                kind.supports_fuzzy(),
                w.as_fuzzy().is_some(),
                "{}: fuzzy advertisement mismatch",
                kind.label()
            );
        }
    }

    /// One full cell, inside the crate, so `cargo test -p combar-rt`
    /// exercises the matrix machinery without the integration suite.
    #[test]
    fn full_contract_smoke() {
        check_full_contract(BarrierKind::Central, 3);
    }
}
