//! End-to-end determinism of the parallel execution layer.
//!
//! The contract of `combar-exec`: thread count is a pure performance
//! knob. Every experiment output — rendered tables included — must be
//! byte-identical whether a sweep runs on one worker or many, because
//! every RNG stream is keyed by cell identity, never by worker
//! identity. These tests drive real experiment pipelines (not
//! synthetic closures) under different thread counts and diff the
//! results exactly.

use combar_bench::experiments::goldens;
use combar_exec::{par_map, par_map_indexed, thread_count, with_thread_count, Sweep};
use combar_sim::{default_degree_sweep, optimal_degree, sweep_degrees, SweepConfig, TreeStyle};

/// The registry snapshot `file`, rendered at 1 worker and at each of
/// `pooled` workers, is the same bytes. `tests/golden.rs` makes this
/// check at 1 vs 4 for *every* snapshot the registry declares; the
/// four tests below keep the pipelines that motivated it under the
/// names the test floor knows.
fn render_is_thread_count_invariant(file: &str, pooled: &[usize]) {
    let render = goldens().find(|g| g.file == file).expect(file).render;
    let serial = with_thread_count(1, render);
    for &threads in pooled {
        assert_eq!(
            serial,
            with_thread_count(threads, render),
            "{threads} workers"
        );
    }
}

/// Figure 2: replications fanned out inside `sweep_degrees`.
#[test]
fn fig2_render_is_thread_count_invariant() {
    render_is_thread_count_invariant("fig2_small.txt", &[4]);
}

/// Figure 8 exercises the chained-iteration path (`run_modes` inside a
/// `Sweep`).
#[test]
fn fig8_render_is_thread_count_invariant() {
    render_is_thread_count_invariant("fig8_small.txt", &[4]);
}

/// The trace experiment drives *real runtime barriers* inside its
/// sweep cells; because each cell attaches its own `combar-trace` sink
/// on its own driver thread and trace positions are logical ticks, the
/// whole rendering — merged timelines included — is byte-identical.
#[test]
fn trace_render_is_thread_count_invariant() {
    render_is_thread_count_invariant("trace_small.txt", &[4]);
}

/// The scale experiment parallelizes its (p, k) grid over a `Sweep`
/// with every episode on the timing-wheel engine; its rendering —
/// degree tables, placement loop, and heap-vs-wheel mirror — is
/// byte-identical at 1 vs 2 vs 4 workers.
#[test]
fn scale_render_is_thread_count_invariant() {
    render_is_thread_count_invariant("scale_small.txt", &[2, 4]);
}

/// The optimal-degree search — `sweep_degrees` parallelizes over
/// replications and folds serially — lands on the same degree and the
/// same delay statistics bit-for-bit at any thread count.
fn sweep_is_thread_count_invariant(sigma_us: f64, reps: usize) {
    let cfg = SweepConfig {
        tc: combar_des::Duration::from_us(20.0),
        sigma_us,
        reps,
        seed: combar::presets::seeds::BASE,
        style: TreeStyle::Combining,
    };
    let degrees = default_degree_sweep(256);
    let run = || {
        let swept = sweep_degrees(256, &degrees, &cfg);
        let best = optimal_degree(&swept);
        (
            best.degree,
            best.sync_delay.mean().to_bits(),
            best.sync_delay.std_dev().to_bits(),
            swept
                .iter()
                .map(|r| r.sync_delay.mean().to_bits())
                .collect::<Vec<_>>(),
        )
    };
    let serial = with_thread_count(1, run);
    let pooled = with_thread_count(4, run);
    assert_eq!(serial, pooled);
}

#[test]
fn optimal_degree_search_is_thread_count_invariant() {
    sweep_is_thread_count_invariant(250.0, 8);
}

/// σ = 0 runs one replication, so the replication map has one item.
#[test]
fn zero_sigma_sweep_is_thread_count_invariant() {
    sweep_is_thread_count_invariant(0.0, 1);
}

/// Fewer replications than workers leaves workers without one.
#[test]
fn sweep_with_fewer_reps_than_threads_is_thread_count_invariant() {
    sweep_is_thread_count_invariant(250.0, 3);
}

/// A sweep's per-cell RNG streams do not depend on how cells are
/// chunked across workers.
#[test]
fn sweep_cell_seeds_are_chunking_invariant() {
    let params: Vec<u32> = (0..37).collect();
    let seeds_at = |threads: usize| {
        with_thread_count(threads, || {
            Sweep::new(0xfeed, params.clone()).run(|c| c.seed())
        })
    };
    assert_eq!(seeds_at(1), seeds_at(3));
    assert_eq!(seeds_at(1), seeds_at(4));
}

/// `par_map` keeps results in input order regardless of which worker
/// computed them.
#[test]
fn par_map_preserves_order() {
    let items: Vec<usize> = (0..1000).collect();
    let out = with_thread_count(4, || par_map(&items, |&x| x * 2));
    assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
}

/// Empty and singleton inputs short-circuit without spawning.
#[test]
fn par_map_handles_empty_and_singleton() {
    let empty: Vec<u32> = Vec::new();
    assert!(with_thread_count(4, || par_map(&empty, |&x| x)).is_empty());
    assert_eq!(with_thread_count(4, || par_map_indexed(1, |i| i)), vec![0]);
}

/// A panic inside a worker propagates to the caller with its original
/// payload.
#[test]
#[should_panic(expected = "cell 5 exploded")]
fn par_map_propagates_worker_panics() {
    with_thread_count(4, || {
        par_map_indexed(64, |i| {
            if i == 5 {
                panic!("cell 5 exploded");
            }
            i
        })
    });
}

/// `with_thread_count` overrides whatever `COMBAR_THREADS` or the
/// machine reports, and restores the previous setting afterwards.
#[test]
fn with_thread_count_overrides_and_restores() {
    let outer = thread_count();
    let inner = with_thread_count(3, thread_count);
    assert_eq!(inner, 3);
    assert_eq!(thread_count(), outer);
}
