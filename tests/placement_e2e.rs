//! Integration: the dynamic placement barrier end to end through the
//! simulator — the paper's Figure 8/10/11/13 machinery.

use combar_des::Duration;
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{run_iterations, IterateConfig, IterateReport, PlacementMode, Topology, Workload};

fn run(
    topo: &Topology,
    slack_us: f64,
    mode: PlacementMode,
    sigma_us: f64,
    iters: usize,
    seed: u64,
) -> IterateReport {
    let cfg = IterateConfig {
        tc: Duration::from_us(20.0),
        slack: Duration::from_us(slack_us),
        iterations: iters,
        warmup: 15,
        mode,
        record_arrivals: false,
        release_model: combar_sim::ReleaseModel::CentralFlag,
    };
    let mut w = Workload::iid_normal(9_500.0, sigma_us, seed);
    run_iterations(topo, &cfg, &mut w)
}

/// Figure 8's three rows, in miniature at 512 processors: the
/// releasing depth falls monotonically-ish with slack, speedup grows,
/// overhead stays within the 1/(d+1) bound.
#[test]
fn figure8_shape_holds_at_512() {
    let topo = Topology::mcs(512, 4);
    let slacks = [0.0, 1_000.0, 4_000.0, 16_000.0];
    let mut depths = Vec::new();
    let mut speedups = Vec::new();
    for &s in &slacks {
        let stat = run(&topo, s, PlacementMode::Static, 250.0, 80, 42);
        let dynamic = run(&topo, s, PlacementMode::Dynamic, 250.0, 80, 42);
        depths.push(dynamic.releasing_depth.mean());
        speedups.push(stat.sync_delay.mean() / dynamic.sync_delay.mean());
        let bound = 1.0 + 1.0 / 5.0;
        assert!(dynamic.comm_overhead() <= bound + 1e-9);
        assert!(dynamic.comm_overhead() >= 1.0);
    }
    assert!(
        depths.last().unwrap() < &1.7,
        "ample slack depth {:?}",
        depths
    );
    assert!(depths.last().unwrap() < &depths[0]);
    assert!(speedups.last().unwrap() > &2.0, "speedups {speedups:?}");
    assert!(
        (0.8..1.3).contains(&speedups[0]),
        "slack-0 speedup {}",
        speedups[0]
    );
}

/// Under *systemic* imbalance (fixed slow processors), dynamic
/// placement helps even with modest slack: the same processor is late
/// every iteration, so prediction is easy.
#[test]
fn systemic_imbalance_is_the_easy_case() {
    let topo = Topology::mcs(256, 4);
    let cfg = |mode| IterateConfig {
        tc: Duration::from_us(20.0),
        slack: Duration::from_us(2_000.0),
        iterations: 80,
        warmup: 15,
        mode,
        record_arrivals: false,
        release_model: combar_sim::ReleaseModel::CentralFlag,
    };
    let mk = || {
        let mut seed_rng = Xoshiro256pp::seed_from_u64(7);
        Workload::systemic(256, 9_500.0, 300.0, 30.0, &mut seed_rng, 100)
    };
    let mut w1 = mk();
    let stat = run_iterations(&topo, &cfg(PlacementMode::Static), &mut w1);
    let mut w2 = mk();
    let dynamic = run_iterations(&topo, &cfg(PlacementMode::Dynamic), &mut w2);
    assert!(
        dynamic.sync_delay.mean() < stat.sync_delay.mean() * 0.75,
        "dynamic {} vs static {}",
        dynamic.sync_delay.mean(),
        stat.sync_delay.mean()
    );
    assert!(dynamic.releasing_depth.mean() < 2.0);
}

/// Evolving imbalance (slowly drifting biases) still benefits: recent
/// history remains a good predictor, as the paper argues.
#[test]
fn evolving_imbalance_still_benefits() {
    let topo = Topology::mcs(256, 4);
    let cfg = |mode| IterateConfig {
        tc: Duration::from_us(20.0),
        slack: Duration::from_us(4_000.0),
        iterations: 80,
        warmup: 15,
        mode,
        record_arrivals: false,
        release_model: combar_sim::ReleaseModel::CentralFlag,
    };
    let mut w1 = Workload::evolving(256, 9_500.0, 40.0, 30.0, 5);
    let stat = run_iterations(&topo, &cfg(PlacementMode::Static), &mut w1);
    let mut w2 = Workload::evolving(256, 9_500.0, 40.0, 30.0, 5);
    let dynamic = run_iterations(&topo, &cfg(PlacementMode::Dynamic), &mut w2);
    assert!(
        dynamic.sync_delay.mean() < stat.sync_delay.mean(),
        "dynamic {} vs static {}",
        dynamic.sync_delay.mean(),
        stat.sync_delay.mean()
    );
}

/// On the KSR ring topology the merge root never hosts a processor, so
/// the best achievable releasing depth is 2 — and dynamic placement
/// reaches (close to) it.
#[test]
fn ring_topology_floors_at_depth_two() {
    let topo = Topology::ring_mcs(56, 4, 32);
    let dynamic = run(&topo, 4_000.0, PlacementMode::Dynamic, 110.0, 150, 11);
    assert!(dynamic.releasing_depth.mean() >= 2.0 - 1e-9);
    assert!(
        dynamic.releasing_depth.mean() < 2.6,
        "depth {}",
        dynamic.releasing_depth.mean()
    );
}

/// Dynamic placement never loses badly: across degrees and slacks its
/// delay stays within a few percent of static even in the worst
/// (zero-slack) regime.
#[test]
fn dynamic_placement_is_never_catastrophic() {
    for degree in [2u32, 8] {
        let topo = Topology::mcs(128, degree);
        for slack in [0.0, 500.0, 8_000.0] {
            let stat = run(&topo, slack, PlacementMode::Static, 250.0, 60, 21);
            let dynamic = run(&topo, slack, PlacementMode::Dynamic, 250.0, 60, 21);
            let ratio = dynamic.sync_delay.mean() / stat.sync_delay.mean();
            assert!(
                ratio < 1.35,
                "degree {degree} slack {slack}: dynamic/static = {ratio}"
            );
        }
    }
}

/// Determinism: the whole iterated pipeline is a pure function of its
/// seed.
#[test]
fn iterated_runs_are_reproducible() {
    let topo = Topology::mcs(128, 4);
    let a = run(&topo, 2_000.0, PlacementMode::Dynamic, 250.0, 40, 77);
    let b = run(&topo, 2_000.0, PlacementMode::Dynamic, 250.0, 40, 77);
    assert_eq!(a.sync_delay.mean(), b.sync_delay.mean());
    assert_eq!(a.swaps, b.swaps);
    assert_eq!(a.releasing_depth.mean(), b.releasing_depth.mean());
}
