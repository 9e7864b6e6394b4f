//! Integration: kind-specific barrier behaviour that the shared
//! conformance matrix (`tests/conformance.rs`, built on
//! `combar_rt::conformance`) cannot express — topology-driven shapes,
//! the paper's migration mechanism, and the model-driven adaptive
//! policy. The per-kind lockstep/reuse/ordering/fuzzy contracts that
//! used to be restated here now live in the matrix.

use combar::model_policy;
use combar_rt::harness::{lockstep_torture_on, Stagger};
use combar_rt::{AdaptiveBarrier, Barrier, DynamicBarrier, TreeBarrier};
use combar_topo::Topology;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

const EPISODES: u32 = 120;
/// Bounded step so the harness watchdog/abort machinery can drain a
/// wedged run instead of hanging the test binary.
const STEP: Duration = Duration::from_secs(5);

/// The shared soak harness at this file's episode count and step bound.
fn torture(b: &dyn Barrier) {
    let report = lockstep_torture_on(b, EPISODES, Stagger::Mixed, STEP);
    assert_eq!(report.episodes, EPISODES);
    assert!(report.max_skew <= 1);
}

/// Trees built from an explicit ring topology (a shape the conformance
/// matrix's constructors do not produce) still honour lockstep.
#[test]
fn ring_mcs_tree_lockstep() {
    let topo = Topology::ring_mcs(8, 2, 4);
    torture(&TreeBarrier::from_topology(&topo));
}

/// Mixed staggering makes different threads slow in different
/// episodes, so the dynamic barrier must actually swap while staying
/// in lockstep.
#[test]
fn dynamic_barrier_swaps_under_stagger() {
    for (p, d) in [(6u32, 2u32), (8, 4)] {
        let b = DynamicBarrier::mcs(p, d);
        torture(&b);
        assert!(b.swap_count() > 0, "p={p} d={d} swapped 0 times");
    }
}

/// The adaptive barrier driven by the *paper's* analytic model as its
/// degree policy (the matrix exercises it with a stand-in threshold
/// policy; this is the composition the core crate ships).
#[test]
fn adaptive_barrier_lockstep_with_model_policy() {
    torture(&AdaptiveBarrier::new(4, model_policy(20.0)));
}

/// The dynamic barrier's migration matches the simulator's placement
/// semantics: a persistently slow thread converges to the root and the
/// average depth seen by the releaser drops accordingly.
#[test]
fn dynamic_migration_matches_paper_mechanism() {
    const P: u32 = 8;
    let b = DynamicBarrier::mcs(P, 2);
    let depth_after = AtomicU32::new(0);
    std::thread::scope(|s| {
        for tid in 0..P {
            let b = &b;
            let depth_after = &depth_after;
            s.spawn(move || {
                let mut w = b.waiter(tid);
                for _ in 0..25 {
                    if tid == 3 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    w.wait();
                }
                if tid == 3 {
                    depth_after.store(w.depth(), Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        depth_after.load(Ordering::Relaxed),
        1,
        "slow thread owns the root"
    );
}
