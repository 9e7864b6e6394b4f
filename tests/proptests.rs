//! Randomized-input tests over the core data structures and
//! invariants, driven by `combar_rng::check` (fixed seeds, replayable
//! cases — no external property-testing dependency).

use combar::combar_rng::check::randomized;
use combar_des::{Duration, FifoServer, SimTime};
use combar_rng::special::{normal_cdf, normal_quantile};
use combar_rng::stats::OnlineStats;
use combar_sim::{
    run_dissemination, run_episode, run_episode_with, Placement, ReleaseModel, Topology,
};

/// Every topology construction satisfies the structural validator for
/// arbitrary (p, d, ring) parameters.
#[test]
fn topologies_always_validate() {
    randomized(128, 0xA110, |g| {
        let p = g.u32_in(1, 300);
        let d = g.u32_in(2, 40);
        let ring = g.u32_in(1, 64);
        Topology::flat(p).validate().unwrap();
        Topology::combining(p, d).validate().unwrap();
        Topology::mcs(p, d).validate().unwrap();
        Topology::ring_mcs(p, d, ring).validate().unwrap();
    });
}

/// Combining-tree depth: increasing the degree never deepens the
/// tree, and depth is within the information-theoretic bounds.
#[test]
fn combining_depth_is_monotone_in_degree() {
    randomized(128, 0xA111, |g| {
        let p = g.u32_in(2, 2000);
        let mut prev_depth = u32::MAX;
        for d in [2u32, 3, 4, 8, 16, 64] {
            let t = Topology::combining(p, d);
            assert!(t.depth() <= prev_depth, "degree {d} deepened the tree");
            prev_depth = t.depth();
            // depth bounds: ≥ log_d p (capacity) and ≤ log_2 p + 1
            let cap = (d as u64).pow(t.depth());
            assert!(cap >= p as u64, "depth too small for capacity");
        }
    });
}

/// Arbitrary victor/target swap sequences keep the placement
/// consistent with the topology.
#[test]
fn random_swap_sequences_stay_consistent() {
    randomized(96, 0xA112, |g| {
        let p = g.u32_in(2, 128);
        let d = g.u32_in(1, 8);
        let topo = Topology::mcs(p, d);
        let mut placement = Placement::initial(&topo);
        for _ in 0..g.usize_in(0, 64) {
            let victor = g.u32_in(0, 128) % p;
            let target = g.u32_in(0, 256) % topo.num_counters() as u32;
            let _ = placement.try_swap(&topo, victor, target);
            placement.validate(&topo).unwrap();
        }
        // mean depth is invariant under any permutation of occupants
        let fresh = Placement::initial(&topo);
        assert!((placement.mean_depth(&topo) - fresh.mean_depth(&topo)).abs() < 1e-9);
    });
}

/// FIFO server: completions are monotone, no request finishes before
/// arrival + service, and total busy time equals the sum of service
/// times.
#[test]
fn fifo_server_conservation() {
    randomized(128, 0xA113, |g| {
        let gaps = g.vec_f64(0.0, 50.0, 1, 40);
        let mut server = FifoServer::new();
        let mut t = 0.0f64;
        let mut last_finish = 0.0f64;
        for &gap in &gaps {
            t += gap;
            let svc = server.serve(SimTime::from_us(t), Duration::from_us(20.0));
            assert!(svc.finish.as_us() >= t + 20.0 - 1e-12);
            assert!(svc.finish.as_us() >= last_finish);
            assert!(svc.start >= svc.arrival);
            last_finish = svc.finish.as_us();
        }
        assert_eq!(server.served(), gaps.len() as u64);
        assert!((server.total_service().as_us() - 20.0 * gaps.len() as f64).abs() < 1e-9);
    });
}

/// Episode invariants for arbitrary arrival vectors on arbitrary
/// trees:
/// * release ≥ last arrival + t_c (someone must update the root),
/// * sync delay ≥ t_c always,
/// * total updates = p + counters − 1,
/// * sync delay ≤ serialized bound (p + counters − 1)·t_c.
#[test]
fn episode_invariants() {
    randomized(128, 0xA114, |g| {
        let arrivals = g.vec_f64(0.0, 5000.0, 2, 80);
        let d = g.u32_in(2, 10);
        let mcs = g.flag();
        let p = arrivals.len() as u32;
        let topo = if mcs {
            Topology::mcs(p, d)
        } else {
            Topology::combining(p, d)
        };
        let tc = 20.0;
        let r = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(tc));
        let last = arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((r.last_arrival_us - last).abs() < 1e-12);
        assert!(r.release_us >= last + tc - 1e-9);
        assert!(r.sync_delay_us >= tc - 1e-9);
        assert_eq!(r.total_updates, p as u64 + topo.num_counters() as u64 - 1);
        let bound = (p as f64 + topo.num_counters() as f64 - 1.0) * tc;
        assert!(
            r.sync_delay_us <= bound + 1e-9,
            "{} > {}",
            r.sync_delay_us,
            bound
        );
        // the releasing processor must be a winner at the root
        assert_eq!(r.winners[topo.root() as usize], Some(r.releasing_proc));
    });
}

/// Shifting all arrivals by a constant shifts the release but not the
/// synchronization delay (the model's shift-invariance).
#[test]
fn sync_delay_is_shift_invariant() {
    randomized(128, 0xA115, |g| {
        let arrivals = g.vec_f64(0.0, 1000.0, 2, 50);
        let shift = g.f64_in(0.0, 10_000.0);
        let d = g.u32_in(2, 8);
        let p = arrivals.len() as u32;
        let topo = Topology::combining(p, d);
        let shifted: Vec<f64> = arrivals.iter().map(|&a| a + shift).collect();
        let r1 = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(20.0));
        let r2 = run_episode(&topo, topo.homes(), &shifted, Duration::from_us(20.0));
        assert!((r1.sync_delay_us - r2.sync_delay_us).abs() < 1e-6);
        assert_eq!(r1.releasing_proc, r2.releasing_proc);
    });
}

/// Φ and Φ⁻¹ are inverse, monotone, and symmetric.
#[test]
fn normal_cdf_quantile_roundtrip() {
    randomized(512, 0xA116, |g| {
        let p = g.f64_in(0.0005, 0.9995);
        let x = normal_quantile(p);
        assert!((normal_cdf(x) - p).abs() < 1e-10);
        // symmetry
        assert!((normal_quantile(1.0 - p) + x).abs() < 1e-8);
        // monotonicity
        let q = (p + 0.0004).min(0.99999);
        assert!(normal_quantile(q) >= x);
    });
}

/// Welford merge is order-independent and matches batch statistics.
#[test]
fn online_stats_merge_associative() {
    randomized(128, 0xA117, |g| {
        let a = g.vec_f64(-1e6, 1e6, 0, 50);
        let b = g.vec_f64(-1e6, 1e6, 0, 50);
        let mut whole = OnlineStats::new();
        for &x in a.iter().chain(&b) {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        for &x in &a {
            left.push(x);
        }
        let mut right = OnlineStats::new();
        for &x in &b {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        if whole.count() > 0 {
            assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
            assert!(
                (left.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance().abs())
            );
        }
    });
}

/// The analytic model is well-behaved on arbitrary valid inputs:
/// finite, at least L·t_c, and exactly Eq. 1 at σ = 0.
#[test]
fn model_outputs_are_sane() {
    use combar::model::BarrierModel;
    randomized(128, 0xA118, |g| {
        let exp = g.u32_in(1, 7);
        // an occasional exact σ = 0 exercises the Eq. 1 branch
        let sigma = if g.u32_in(0, 8) == 0 {
            0.0
        } else {
            g.f64_in(0.0, 5000.0)
        };
        let d = 4u32;
        let p = d.pow(exp);
        let m = BarrierModel::new(p, sigma, 20.0).unwrap();
        let est = m.sync_delay(d).unwrap();
        assert!(est.sync_delay_us.is_finite());
        assert!(est.sync_delay_us >= est.levels as f64 * 20.0 - 1e-9);
        if sigma == 0.0 {
            assert!((est.sync_delay_us - m.eq1_simultaneous_delay(d).unwrap()).abs() < 1e-9);
        }
    });
}

/// Dissemination invariants for arbitrary arrivals: completion
/// dominates every arrival by ⌈log₂ p⌉ messages on the late side.
#[test]
fn dissemination_invariants() {
    randomized(128, 0xA119, |g| {
        let arrivals = g.vec_f64(0.0, 2000.0, 2, 64);
        let t_msg = g.f64_in(1.0, 50.0);
        let r = run_dissemination(&arrivals, t_msg);
        let p = arrivals.len();
        let rounds = (p - 1).ilog2() + 1;
        assert_eq!(r.rounds, rounds);
        let last = arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(r.sync_delay_us >= rounds as f64 * t_msg - 1e-9);
        for (i, &f) in r.finish_us.iter().enumerate() {
            assert!(f >= arrivals[i] + rounds as f64 * t_msg - 1e-9);
            assert!(f >= last + t_msg - 1e-9, "proc {i}");
        }
        // upper bound: last + rounds·t_msg (all waiting resolves then)
        assert!(r.complete_us <= last + rounds as f64 * t_msg + 1e-9);
    });
}

/// The wakeup-tree release model: per-processor releases are all at
/// or after the root release, bounded by the total-notification
/// budget, and reduce to the central flag when notify = 0.
#[test]
fn wakeup_release_invariants() {
    randomized(128, 0xA11B, |g| {
        let arrivals = g.vec_f64(0.0, 1000.0, 2, 48);
        let d = g.u32_in(2, 6);
        // an occasional exact zero exercises the central-flag reduction
        let notify = if g.u32_in(0, 8) == 0 {
            0.0
        } else {
            g.f64_in(0.0, 10.0)
        };
        let p = arrivals.len() as u32;
        let topo = Topology::mcs(p, d);
        let r = run_episode_with(
            &topo,
            topo.homes(),
            &arrivals,
            Duration::from_us(20.0),
            ReleaseModel::WakeupTree { notify_us: notify },
        );
        let budget = (topo.num_counters() as f64 - 1.0 + p as f64) * notify;
        for &rel in &r.release_per_proc_us {
            assert!(rel >= r.release_us - 1e-9);
            assert!(rel <= r.release_us + budget + 1e-9);
        }
        if notify == 0.0 {
            assert!(r.release_per_proc_us.iter().all(|&x| x == r.release_us));
        }
    });
}

/// The generalized topology model equals the closed form on full
/// trees for arbitrary σ (the strict-generalization property).
#[test]
fn model_topo_generalizes_closed_form() {
    use combar::model::BarrierModel;
    use combar::model_topo::sync_delay_for_topology;
    randomized(96, 0xA11C, |g| {
        let exp = g.u32_in(1, 6);
        let sigma = g.f64_in(0.0, 3000.0);
        let d = 4u32;
        let p = d.pow(exp);
        let closed = BarrierModel::new(p, sigma, 20.0)
            .unwrap()
            .sync_delay(d)
            .unwrap();
        let topo = if p == 4 {
            Topology::flat(4)
        } else {
            Topology::combining(p, d)
        };
        // p = 4, d = 4 builds the flat tree in both framings
        let general =
            sync_delay_for_topology(&topo, sigma, 20.0, combar::LastArrival::default()).unwrap();
        assert!(
            (closed.sync_delay_us - general.sync_delay_us).abs() < 1e-9,
            "p={} σ={}: {} vs {}",
            p,
            sigma,
            closed.sync_delay_us,
            general.sync_delay_us
        );
    });
}

/// Random kill/rejoin schedules on the self-healing tree barrier.
/// Each episode detaches a random subset of the live threads (always
/// sparing at least one) and revives a random subset of the dead; the
/// whole schedule is driven single-threaded through the clock-free
/// `try_*` entry points, so failing cases replay from the seed. After
/// every episode boundary — a quiescent point, and the moment a
/// reconfiguration epoch publishes — the live shape must byte-match a
/// fresh prune of the base topology (`validate_shape`), the critical
/// depth must never exceed the fault-free depth, and the membership
/// count must equal the schedule's bookkeeping. Once every corpse has
/// rejoined, the barrier is back at full strength and base depth.
#[test]
fn random_churn_schedules_keep_the_tree_shape_valid() {
    use combar_rt::{RejoinStatus, TreeBarrier};
    randomized(48, 0xA11E, |g| {
        let p = g.u32_in(2, 20);
        let d = g.u32_in(2, 6);
        let b = if g.flag() {
            TreeBarrier::combining(p, d)
        } else {
            TreeBarrier::mcs(p, d)
        };
        let base_depth = b.base_depth();
        let mut ws: Vec<_> = (0..p).map(|t| b.waiter(t)).collect();
        let mut alive = vec![true; p as usize];
        let mut killed_at = vec![0u32; p as usize];
        let episodes = g.u32_in(6, 14);
        for ep in 0..episodes + 1 {
            let last_ep = ep == episodes;
            // Revive first so the attach request is filed before this
            // episode's releaser runs its quiescent window (the final
            // episode revives everyone).
            let revives: Vec<u32> = (0..p)
                .filter(|&t| {
                    !alive[t as usize]
                        && killed_at[t as usize] < ep
                        && (last_ep || g.u32_in(0, 2) == 0)
                })
                .collect();
            for &t in &revives {
                assert_eq!(
                    ws[t as usize].try_rejoin().unwrap(),
                    RejoinStatus::Pending,
                    "detached thread {t} must wait for a boundary grant"
                );
            }
            // Kill a subset of the live threads, sparing at least one;
            // the detach proxies the victim's arrival immediately, so
            // it must precede the survivors' arrivals to keep the
            // release (and thus the reconfiguration) on the last
            // survivor's signal.
            let alive_ids: Vec<u32> = (0..p).filter(|&t| alive[t as usize]).collect();
            let mut kills: Vec<u32> = Vec::new();
            for &t in &alive_ids {
                if !last_ep && alive_ids.len() - kills.len() > 1 && g.u32_in(0, 3) == 0 {
                    kills.push(t);
                }
            }
            for &t in &kills {
                assert!(b.detach(t), "detach of idle live thread {t}");
                alive[t as usize] = false;
                killed_at[t as usize] = ep;
            }
            for &t in &alive_ids {
                if !kills.contains(&t) {
                    ws[t as usize].try_arrive().unwrap();
                }
            }
            for &t in &alive_ids {
                if !kills.contains(&t) {
                    ws[t as usize].try_depart().unwrap();
                }
            }
            // The boundary granted every filed attach: the rejoiner
            // resumes mid-episode and departs at once.
            for &t in &revives {
                assert_eq!(ws[t as usize].try_rejoin().unwrap(), RejoinStatus::Rejoined);
                ws[t as usize].try_depart().unwrap();
                alive[t as usize] = true;
            }
            // Quiescent-point invariants after the reconfiguration.
            assert!(!b.is_poisoned());
            b.validate_shape()
                .unwrap_or_else(|e| panic!("episode {ep}: {e}"));
            assert!(b.critical_depth() <= base_depth);
            let alive_now = alive.iter().filter(|&&a| a).count() as u32;
            assert_eq!(b.live_count(), alive_now, "episode {ep}");
        }
        assert_eq!(b.live_count(), p, "every corpse rejoined");
        assert_eq!(b.evicted_count(), 0);
        assert_eq!(b.critical_depth(), base_depth);
    });
}

/// Work diffusion conserves total work units *exactly* for arbitrary
/// topologies, damping factors, and load vectors: every transfer is an
/// integer debit matched by an equal credit (a donor may legitimately
/// drain to zero — transfers clamp there, never below), and units only
/// move along real neighbour edges (an edgeless processor set never
/// moves anything).
#[test]
fn diffusion_conserves_total_work_units() {
    use combar_sim::{Diffuser, UNIT_SCALE};
    randomized(128, 0xA11F, |g| {
        let p = g.u32_in(2, 200);
        let d = g.u32_in(2, 8);
        let topo = if g.flag() {
            Topology::mcs(p, d)
        } else {
            Topology::combining(p, d)
        };
        let alpha = g.f64_in(0.05, 1.0);
        let mut diff = Diffuser::new(p as usize, topo.proc_edges(), alpha);
        let total = diff.total();
        assert_eq!(total, p as u64 * UNIT_SCALE);
        let unit_cost = g.f64_in(0.05, 50.0);
        for _ in 0..g.usize_in(1, 12) {
            let load = g.vec_f64(0.0, 5000.0, p as usize, p as usize + 1);
            diff.step(&load, unit_cost);
            assert_eq!(
                diff.units().iter().sum::<u64>(),
                total,
                "a diffusion step created or destroyed work"
            );
        }
        // no edges → nowhere to move work, however lopsided the load
        let mut isolated = Diffuser::new(p as usize, Vec::new(), alpha);
        let mut lopsided = vec![0.0; p as usize];
        lopsided[0] = 1e6;
        isolated.step(&lopsided, unit_cost);
        assert_eq!(isolated.moved(), 0);
        assert!(isolated.units().iter().all(|&u| u == UNIT_SCALE));
    });
}

/// Gamma sampling is always positive and its batch mean lands near αθ
/// for arbitrary parameters (loose band: 200 samples).
#[test]
fn gamma_samples_are_sane() {
    use combar_rng::{Distribution, Gamma};
    randomized(128, 0xA11D, |g| {
        let shape = g.f64_in(0.3, 20.0);
        let scale = g.f64_in(0.1, 10.0);
        let gamma = Gamma::new(shape, scale).unwrap();
        let n = 200;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = gamma.sample(g.rng());
            assert!(x > 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        // 200 samples: allow ±6 standard errors
        let se = (gamma.variance() / n as f64).sqrt();
        assert!(
            (mean - gamma.mean()).abs() < 6.0 * se + 1e-9,
            "shape {shape} scale {scale}: mean {mean} vs {}",
            gamma.mean()
        );
    });
}
