//! Integration: the KSR1 machine model + SOR workload through the
//! whole stack (machine → sim → figures 12/13 trends).

use combar_des::Duration;
use combar_machine::{ring_topology, Grid, KsrParams, SorWork};
use combar_rng::stats;
use combar_sim::{run_iterations, IterateConfig, PlacementMode, WorkSource};

/// The calibration anchors from the paper's Section 7: d_y = 210 gives
/// ~9.5 ms iterations with σ ≈ 110 µs, and the communication count is
/// 4·⌈d_y/16⌉.
#[test]
fn paper_calibration_anchors() {
    let mut w = SorWork::paper_config(210, 3);
    assert_eq!(w.comm_events(), 56);
    assert!((w.analytic_mean_us() / 1000.0 - 9.5).abs() < 0.2);
    assert!((w.analytic_sigma_us() - 110.0).abs() < 5.0);
    // empirical check through the WorkSource interface
    let mut buf = vec![0.0; 5000];
    w.sample_episode(0, &mut buf);
    assert!((stats::mean(&buf) - w.analytic_mean_us()).abs() / w.analytic_mean_us() < 0.01);
}

/// Figure 12's driving mechanism end-to-end: larger d_y → more σ → a
/// wider tree wins.
#[test]
fn larger_dy_flips_the_degree_comparison() {
    let params = KsrParams::default();
    let delay = |degree: u32, dy: u32| {
        let topo = ring_topology(&params, degree);
        let mut work = SorWork::paper_config(dy, 17);
        let cfg = IterateConfig {
            tc: Duration::from_us(params.tc_us),
            iterations: 120,
            warmup: 10,
            mode: PlacementMode::Static,
            ..IterateConfig::default()
        };
        run_iterations(&topo, &cfg, &mut work).sync_delay.mean()
    };
    // tiny variance: degree 4 should beat a flat-ish degree-32 tree
    assert!(
        delay(4, 30) < delay(32, 30),
        "low σ should favor narrow trees"
    );
    // large variance: degree 32 should beat degree 4
    assert!(
        delay(32, 840) < delay(4, 840),
        "high σ should favor wide trees"
    );
}

/// Figure 13's zero-slack penalty: on the modelled KSR1, dynamic
/// placement without slack does not pay (speedup ≤ ~1), matching the
/// paper's "slower performance up to approximately a slack of 1 ms".
#[test]
fn zero_slack_dynamic_placement_does_not_pay() {
    let params = KsrParams::default();
    let run = |mode| {
        let topo = ring_topology(&params, 2);
        let mut work = SorWork::paper_config(210, 5);
        let cfg = IterateConfig {
            tc: Duration::from_us(params.tc_us),
            iterations: 120,
            warmup: 10,
            mode,
            ..IterateConfig::default()
        };
        run_iterations(&topo, &cfg, &mut work)
    };
    let stat = run(PlacementMode::Static);
    let dynamic = run(PlacementMode::Dynamic);
    let speedup = stat.sync_delay.mean() / dynamic.sync_delay.mean();
    assert!(
        speedup < 1.15,
        "zero slack should give no real speedup, got {speedup}"
    );
}

/// The numeric SOR kernel converges on a KSR1-sized problem: 56 bands
/// of 60 rows (the paper's d_x) by 210 columns.
#[test]
fn sor_kernel_converges_at_paper_scale() {
    // scaled down rows (56×60 = 3360 rows would be slow in CI): keep
    // the column dimension and band structure, 8 bands of 10 rows.
    let mut g = Grid::new(82, 210, 0.0, 1.0);
    let (iters, res) = g.solve(1e-4, 20_000);
    assert!(res < 1e-4, "residual {res} after {iters} iterations");
    // interior stays within boundary extremes (maximum principle)
    for i in 1..81 {
        for j in 1..209 {
            let v = g.get(i, j);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}

/// Band partitioning matches the machine's processor count the same
/// way the paper partitions the x-dimension.
#[test]
fn bands_cover_the_grid_for_56_processors() {
    let g = Grid::new(58, 30, 0.0, 1.0); // 56 interior rows
    let bands = g.row_bands(56);
    assert_eq!(bands.len(), 56);
    assert!(bands.iter().all(|&(_, len)| len == 1));
    let total: usize = bands.iter().map(|&(_, l)| l).sum();
    assert_eq!(total, 56);
}

/// The ring topology's shape interacts correctly with the whole
/// iteration pipeline: last-processor depth can never go below 2
/// (merge root is unswappable) and the static depth matches the tree.
#[test]
fn ring_depth_bounds_hold_through_iterations() {
    let params = KsrParams::default();
    let topo = ring_topology(&params, 16);
    assert_eq!(topo.depth(), 3);
    let mut work = SorWork::paper_config(210, 23);
    let cfg = IterateConfig {
        tc: Duration::from_us(params.tc_us),
        slack: Duration::from_us(4_000.0),
        iterations: 150,
        warmup: 10,
        mode: PlacementMode::Dynamic,
        record_arrivals: false,
        release_model: combar_sim::ReleaseModel::CentralFlag,
    };
    let rep = run_iterations(&topo, &cfg, &mut work);
    assert!(rep.releasing_depth.mean() >= 2.0 - 1e-9);
    assert!(rep.releasing_depth.mean() <= 3.0 + 1e-9);
}
