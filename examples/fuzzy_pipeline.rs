//! Fuzzy barriers hiding synchronization behind independent work
//! (Gupta's construct, which Section 5 of the paper builds on).
//!
//! ```text
//! cargo run --release -p combar --example fuzzy_pipeline
//! ```
//!
//! A two-stage pipeline per iteration: a *dependent* stage whose
//! results every thread needs next iteration, and an *independent*
//! stage (the slack) that only feeds the local thread. A plain barrier
//! waits after both stages; the fuzzy barrier signals between them, so
//! barrier latency overlaps the slack. The example measures the idle
//! time at the enforce point both ways, plus the simulator's view of
//! why slack also matters for placement (arrival-order persistence).

use combar::prelude::*;
use combar_rng::stats::OnlineStats;
use std::sync::Mutex;

const THREADS: u32 = 4;
const EPISODES: u32 = 300;

/// Deterministic busy work of roughly `n` microseconds.
fn spin_us(n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n * 40 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
    acc
}

/// Runs the pipeline; `fuzzy = true` signals between the stages.
fn run(fuzzy: bool) -> (f64, f64) {
    let barrier = BarrierBuilder::new(BarrierKind::Central, THREADS).build();
    let idle = Mutex::new(OnlineStats::new());
    let total = Mutex::new(OnlineStats::new());
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let barrier = &barrier;
            let idle = &idle;
            let total = &total;
            s.spawn(move || {
                let mut w = barrier.waiter(tid);
                let mut my_idle = OnlineStats::new();
                let t0 = std::time::Instant::now();
                for e in 0..EPISODES {
                    // dependent stage: uneven across threads & episodes
                    spin_us(50 + ((tid as u64 * 31 + e as u64 * 17) % 200));
                    if fuzzy {
                        let f = w.as_fuzzy().expect("central barriers support fuzzy phases");
                        f.arrive();
                        spin_us(300); // independent slack, overlaps the wait
                        let t = std::time::Instant::now();
                        f.depart();
                        my_idle.push(t.elapsed().as_secs_f64() * 1e6);
                    } else {
                        spin_us(300); // same work, but before signalling
                        let t = std::time::Instant::now();
                        w.wait();
                        my_idle.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
                idle.lock().expect("no poisoning").merge(&my_idle);
                total
                    .lock()
                    .expect("no poisoning")
                    .push(t0.elapsed().as_secs_f64() * 1e3);
            });
        }
    });
    let idle_us = idle.lock().expect("no poisoning").mean();
    let total_ms = total.lock().expect("no poisoning").mean();
    (idle_us, total_ms)
}

fn main() {
    println!("fuzzy pipeline: {THREADS} threads × {EPISODES} episodes\n");
    let (plain_idle, plain_total) = run(false);
    let (fuzzy_idle, fuzzy_total) = run(true);
    println!("plain barrier: mean idle at barrier {plain_idle:.1} µs, wall {plain_total:.1} ms");
    println!("fuzzy barrier: mean idle at enforce {fuzzy_idle:.1} µs, wall {fuzzy_total:.1} ms");
    println!(
        "\n(on a multi-core host the fuzzy idle collapses toward zero; on a single core the \
         scheduler serializes the slack, so the gap narrows)"
    );

    // The simulator shows the second consequence of slack the paper
    // leans on: arrival order persists, making slow processors
    // predictable — the precondition for dynamic placement.
    let topo = Topology::mcs(512, 4);
    println!("\nsimulated 512 procs, σ = 250 µs: slack vs next-iteration persistence");
    for slack_us in [0.0, 1_000.0, 8_000.0] {
        let cfg = IterateConfig {
            slack: combar_des::Duration::from_us(slack_us),
            iterations: 60,
            warmup: 10,
            record_arrivals: true,
            ..IterateConfig::default()
        };
        let mut w = Workload::iid_normal(9_500.0, 250.0, 7);
        let rep = combar_sim::run_iterations(&topo, &cfg, &mut w);
        let mut rho = OnlineStats::new();
        for k in 0..rep.arrivals.len() - 1 {
            rho.push(combar_rng::stats::spearman(
                &rep.arrivals[k],
                &rep.arrivals[k + 1],
            ));
        }
        println!(
            "  slack {:>6.1} ms → rank correlation ρ = {:.2}",
            slack_us / 1e3,
            rho.mean()
        );
    }
}
