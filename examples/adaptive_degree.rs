//! The adaptive-degree barrier reacting to a workload whose imbalance
//! changes mid-run — the feasibility claim from the paper's conclusion.
//!
//! ```text
//! cargo run --release -p combar --example adaptive_degree
//! ```
//!
//! Part 1 exercises the real threaded [`AdaptiveBarrier`] with the
//! analytic model as its degree policy: a quiet phase, then a phase
//! where one thread injects multi-millisecond jitter. Part 2 shows the
//! same policy at simulator scale (4096 processors), where the degree
//! swings matter most.

use combar::combar_rt::adaptive::WINDOW;
use combar::combar_topo::default_degree_sweep;
use combar::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration as StdDuration;

fn main() {
    threaded_demo();
    simulated_demo();
}

/// Four real threads; imbalance switches on halfway through.
fn threaded_demo() {
    const THREADS: u32 = 4;
    const QUIET: u32 = 3 * WINDOW;
    const NOISY: u32 = 3 * WINDOW;

    println!(
        "adaptive barrier, {THREADS} threads, degrees {:?}, window {WINDOW} episodes",
        default_degree_sweep(THREADS)
    );
    let barrier = BarrierBuilder::new(BarrierKind::Adaptive, THREADS)
        .policy(model_policy(20.0))
        .build();
    let quiet_depth = AtomicU32::new(0);
    let noisy_depth = AtomicU32::new(0);
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let barrier = &barrier;
            let quiet_depth = &quiet_depth;
            let noisy_depth = &noisy_depth;
            s.spawn(move || {
                let mut w = barrier.waiter(tid);
                let depth = || {
                    barrier
                        .as_dyn()
                        .critical_depth()
                        .expect("adaptive barriers report their tree depth")
                };
                for e in 0..QUIET + NOISY {
                    if e >= QUIET && tid == 0 {
                        // phase 2: thread 0 becomes systematically slow
                        std::thread::sleep(StdDuration::from_millis(4));
                    }
                    w.wait();
                    if tid == 0 && e + 1 == QUIET {
                        quiet_depth.store(depth(), Ordering::Relaxed);
                    }
                }
                if tid == 0 {
                    noisy_depth.store(depth(), Ordering::Relaxed);
                }
            });
        }
    });
    println!(
        "  tree depth after quiet phase: {}, after imbalanced phase: {}",
        quiet_depth.load(Ordering::Relaxed),
        noisy_depth.load(Ordering::Relaxed)
    );
    assert!(
        noisy_depth.load(Ordering::Relaxed) <= quiet_depth.load(Ordering::Relaxed),
        "imbalance must not narrow (deepen) the tree"
    );
}

/// The same policy at 4096 simulated processors: compare a fixed
/// degree-4 barrier against re-picking the degree per imbalance phase.
fn simulated_demo() {
    println!("\nsimulated 4096 processors, t_c = 20 µs:");
    println!(
        "  {:>10} {:>12} {:>14} {:>14}",
        "σ/t_c", "adapted d", "fixed-4 delay", "adapted delay"
    );
    let advisor = DegreeAdvisor::new(4096, 20.0);
    for sigma_tc in [0.0, 12.5, 50.0, 100.0] {
        let sigma_us = sigma_tc * 20.0;
        let degree = advisor.recommend_for_sigma(sigma_us);
        let cfg = SweepConfig {
            sigma_us,
            reps: 10,
            ..SweepConfig::default()
        };
        let swept = sweep_degrees(4096, &[4, degree], &cfg);
        let fixed = swept
            .iter()
            .find(|r| r.degree == 4)
            .expect("degree 4 swept");
        let adapted = swept
            .iter()
            .find(|r| r.degree == degree)
            .expect("adapted swept");
        println!(
            "  {:>10} {:>12} {:>12.1}µs {:>12.1}µs",
            sigma_tc,
            degree,
            fixed.sync_delay.mean(),
            adapted.sync_delay.mean()
        );
        assert!(adapted.sync_delay.mean() <= fixed.sync_delay.mean() * 1.05);
    }
}
