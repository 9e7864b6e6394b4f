//! Multi-iteration barrier simulation with fuzzy-barrier slack and
//! optional dynamic placement.
//!
//! A *fuzzy barrier* (Gupta) splits the barrier into a release phase
//! (signal arrival) and an enforce phase (wait), with independent
//! "slack" work scheduled between them. After signalling, a processor
//! performs `slack` of independent work and only then blocks at the
//! enforce point; its next iteration begins at
//! `max(own ready time, barrier release)`.
//!
//! This timing is what makes arrival order **persist** across
//! iterations (paper Section 5 / Figure 5): with zero slack everyone
//! restarts together and the next ordering is fresh noise, but with
//! slack larger than the arrival spread, late processors stay late —
//! which is exactly the predictability the dynamic placement barrier
//! exploits.

use crate::episode::{run_episode_with, ReleaseModel};
use combar_des::Duration;
use combar_exec::par_map;
use combar_rng::stats::OnlineStats;
use combar_topo::{Placement, ProcId, Topology};
use combar_work::WorkSource;

/// Whether processors stay at their construction-time counters or
/// migrate via the victor/victim swap protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Mellor-Crummey & Scott's static assignment.
    Static,
    /// The paper's dynamic placement barrier (Section 5.1).
    Dynamic,
}

/// Configuration of a multi-iteration run.
#[derive(Debug, Clone)]
pub struct IterateConfig {
    /// Counter update cost.
    pub tc: Duration,
    /// Fuzzy-barrier slack inserted between signal and enforce.
    pub slack: Duration,
    /// Iterations measured (after warm-up).
    pub iterations: usize,
    /// Warm-up iterations excluded from statistics (lets the dynamic
    /// placement converge; the paper measures 200 relaxations).
    pub warmup: usize,
    /// Static or dynamic placement.
    pub mode: PlacementMode,
    /// Record per-iteration arrival vectors (needed by the Figure 5
    /// persistence analysis; costs `p × iterations` floats).
    pub record_arrivals: bool,
    /// How the release reaches the processors (the paper assumes the
    /// idealized central flag).
    pub release_model: ReleaseModel,
}

impl Default for IterateConfig {
    fn default() -> Self {
        Self {
            tc: Duration::from_us(20.0),
            slack: Duration::ZERO,
            iterations: 200,
            warmup: 20,
            mode: PlacementMode::Static,
            record_arrivals: false,
            release_model: ReleaseModel::CentralFlag,
        }
    }
}

/// Aggregate results of a multi-iteration run.
#[derive(Debug, Clone)]
pub struct IterateReport {
    /// Synchronization delay per iteration.
    pub sync_delay: OnlineStats,
    /// Depth (path length in counters) of the releasing processor.
    pub releasing_depth: OnlineStats,
    /// Idle time per processor-iteration at the enforce point:
    /// `max(0, release − (signal done + slack))`. Gupta's fuzzy-barrier
    /// result — idle shrinking as slack grows — is measurable here.
    pub idle: OnlineStats,
    /// Mean communications per iteration, including swap overhead.
    pub comms_per_iter: f64,
    /// Baseline communications per iteration (counter updates only).
    pub base_comms_per_iter: f64,
    /// Total swaps applied.
    pub swaps: u64,
    /// Arrival vectors per measured iteration (when requested).
    pub arrivals: Vec<Vec<f64>>,
    /// Identity of the last arriver per measured iteration.
    pub last_arrivers: Vec<u32>,
}

impl IterateReport {
    /// Communication overhead ratio of dynamic placement
    /// (`≥ 1`; the paper's Figure 8 bottom rows).
    pub fn comm_overhead(&self) -> f64 {
        self.comms_per_iter / self.base_comms_per_iter
    }
}

/// Applies the paper's victor/victim swap protocol after one episode:
/// each processor that won anywhere positions itself at the *highest
/// swappable* counter where it arrived last. The KSR merge root owns no
/// processor and ring boundaries are never crossed, so such a winner
/// falls back to its ring's subtree root (paper Section 7, footnote 5).
///
/// `winners[c]` is the processor whose update completed counter `c`
/// (an [`crate::EpisodeResult::winners`] vector). Returns the number of
/// swaps applied. Shared by [`run_iterations`] and the balance runner
/// in [`crate::balance`].
pub fn apply_dynamic_swaps(
    topo: &Topology,
    placement: &mut Placement,
    winners: &[Option<ProcId>],
) -> u64 {
    let p = topo.num_procs() as usize;
    let mut swaps = 0u64;
    let mut wins: Vec<Vec<u32>> = vec![Vec::new(); p];
    for (c, w) in winners.iter().enumerate() {
        if let Some(pr) = *w {
            wins[pr as usize].push(c as u32);
        }
    }
    for (proc, wl) in wins.iter_mut().enumerate() {
        let proc = proc as u32;
        wl.sort_by_key(|&c| topo.path_len(c)); // highest first
        for &c in wl.iter() {
            if c == placement.home(proc) {
                break; // reached its own counter: nothing to gain
            }
            if placement.try_swap(topo, proc, c).is_some() {
                swaps += 1;
                break;
            }
        }
    }
    swaps
}

/// Runs `warmup + iterations` barrier episodes chained by fuzzy-barrier
/// timing.
///
/// `source` answers the per-episode work question through the shared
/// [`WorkSource`] seam: an RNG-driven [`combar_work::Workload`], a pure
/// [`combar_work::WorkModel`] or the KSR1 SOR model.
pub fn run_iterations<S: WorkSource + ?Sized>(
    topo: &Topology,
    cfg: &IterateConfig,
    source: &mut S,
) -> IterateReport {
    let p = topo.num_procs() as usize;
    let mut placement = Placement::initial(topo);
    let mut begin = vec![0.0f64; p];
    let mut works = vec![0.0f64; p];
    let mut arrivals = vec![0.0f64; p];

    let mut sync_delay = OnlineStats::new();
    let mut releasing_depth = OnlineStats::new();
    let mut idle = OnlineStats::new();
    let mut total_updates: u64 = 0;
    let mut total_swaps_measured: u64 = 0;
    let mut recorded: Vec<Vec<f64>> = Vec::new();
    let mut last_arrivers: Vec<u32> = Vec::new();

    let total_iters = cfg.warmup + cfg.iterations;
    for iter in 0..total_iters {
        source.sample_episode(iter as u32, &mut works);
        for i in 0..p {
            arrivals[i] = begin[i] + works[i];
        }
        let r = run_episode_with(
            topo,
            placement.homes(),
            &arrivals,
            cfg.tc,
            cfg.release_model,
        );

        let measured = iter >= cfg.warmup;
        if measured {
            sync_delay.push(r.sync_delay_us);
            releasing_depth.push(r.releasing_depth as f64);
            total_updates += r.total_updates;
            last_arrivers.push(r.last_arriver);
            if cfg.record_arrivals {
                // Record offsets relative to the iteration start so the
                // vectors are comparable across iterations.
                let min = arrivals.iter().copied().fold(f64::INFINITY, f64::min);
                recorded.push(arrivals.iter().map(|&a| a - min).collect());
            }
        }

        let mut swaps_this_iter = 0u64;
        if cfg.mode == PlacementMode::Dynamic {
            swaps_this_iter = apply_dynamic_swaps(topo, &mut placement, &r.winners);
        }
        if measured {
            total_swaps_measured += swaps_this_iter;
        }

        // Fuzzy-barrier chaining: slack after the signal, then enforce
        // (each processor departs when it *observes* the release).
        let slack = cfg.slack.as_us();
        for ((b, &done), &released) in begin
            .iter_mut()
            .zip(&r.signal_done_us)
            .zip(&r.release_per_proc_us)
        {
            let ready = done + slack;
            if measured {
                idle.push((released - ready).max(0.0));
            }
            *b = ready.max(released);
        }
    }

    let iters = cfg.iterations.max(1) as f64;
    let base = (p + topo.num_counters() - 1) as f64;
    IterateReport {
        sync_delay,
        releasing_depth,
        idle,
        comms_per_iter: (total_updates + total_swaps_measured) as f64 / iters,
        base_comms_per_iter: base,
        swaps: total_swaps_measured,
        arrivals: recorded,
        last_arrivers,
    }
}

/// Runs the static and dynamic placements of the same configuration as
/// a pair, in parallel on the `combar-exec` pool.
///
/// `make` constructs a fresh [`WorkSource`] per mode (typically a
/// seeded [`combar_work::Workload`], so both runs see identical random
/// inputs) — the paired comparison the paper's Figure 8 speedup columns
/// are built on. Returns `(static, dynamic)`.
pub fn run_modes<S, F>(
    topo: &Topology,
    cfg: &IterateConfig,
    make: F,
) -> (IterateReport, IterateReport)
where
    S: WorkSource,
    F: Fn() -> S + Sync,
{
    let modes = [PlacementMode::Static, PlacementMode::Dynamic];
    let mut reports = par_map(&modes, |&mode| {
        let mut source = make();
        let cfg = IterateConfig {
            mode,
            ..cfg.clone()
        };
        run_iterations(topo, &cfg, &mut source)
    });
    let dynamic = reports.pop().expect("two modes");
    let static_ = reports.pop().expect("two modes");
    (static_, dynamic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_rng::stats;
    use combar_work::Workload;

    fn cfg(slack_us: f64, mode: PlacementMode) -> IterateConfig {
        IterateConfig {
            tc: Duration::from_us(20.0),
            slack: Duration::from_us(slack_us),
            iterations: 60,
            warmup: 10,
            mode,
            record_arrivals: false,
            release_model: ReleaseModel::CentralFlag,
        }
    }

    #[test]
    fn static_run_reports_consistent_counts() {
        let topo = Topology::mcs(64, 4);
        let mut w = Workload::iid_normal(1000.0, 100.0, 1);
        let rep = run_iterations(&topo, &cfg(0.0, PlacementMode::Static), &mut w);
        assert_eq!(rep.sync_delay.count(), 60);
        assert_eq!(rep.idle.count(), 60 * 64);
        assert_eq!(rep.swaps, 0);
        assert!((rep.comm_overhead() - 1.0).abs() < 1e-12);
        assert!(rep.sync_delay.mean() > 0.0);
    }

    /// Gupta's fuzzy-barrier observation, measured end-to-end: mean
    /// idle time at the enforce point falls monotonically as slack
    /// grows. It does not reach zero in a *chained* run — with nobody
    /// clamped to the release, the arrival spread random-walks out to
    /// the order of the slack (the asymmetric arrival distribution the
    /// paper's Section 5 describes) — but it drops severalfold.
    #[test]
    fn idle_time_shrinks_with_slack() {
        let topo = Topology::mcs(128, 4);
        let sigma = 100.0;
        let mut idles = Vec::new();
        for slack in [0.0, 200.0, 400.0, 1600.0] {
            let mut w = Workload::iid_normal(10_000.0, sigma, 31);
            let rep = run_iterations(&topo, &cfg(slack, PlacementMode::Static), &mut w);
            if let Some(&prev) = idles.last() {
                assert!(
                    rep.idle.mean() <= prev + 1.0,
                    "slack {slack}: idle {} after {prev}",
                    rep.idle.mean()
                );
            }
            idles.push(rep.idle.mean());
        }
        let (no_slack, big_slack) = (idles[0], *idles.last().unwrap());
        assert!(
            big_slack < no_slack / 3.0,
            "idle should drop severalfold: {no_slack} -> {big_slack}"
        );
    }

    /// Dynamic placement with ample slack sends the slow processor to
    /// the top: the releasing depth approaches 1 while static stays at
    /// the tree depth.
    #[test]
    fn dynamic_placement_cuts_releasing_depth_with_slack() {
        let topo = Topology::mcs(256, 4);
        let make = || Workload::iid_normal(10_000.0, 100.0, 7);
        let slack = 4000.0; // ≫ arrival spread
        let stat = run_iterations(&topo, &cfg(slack, PlacementMode::Static), &mut make());
        let dyn_ = run_iterations(&topo, &cfg(slack, PlacementMode::Dynamic), &mut make());
        assert!(
            dyn_.releasing_depth.mean() < stat.releasing_depth.mean() - 0.5,
            "dynamic {} vs static {}",
            dyn_.releasing_depth.mean(),
            stat.releasing_depth.mean()
        );
        assert!(
            dyn_.sync_delay.mean() < stat.sync_delay.mean(),
            "dynamic {} vs static {}",
            dyn_.sync_delay.mean(),
            stat.sync_delay.mean()
        );
        assert!(dyn_.swaps > 0);
    }

    /// Paper Figure 8, slack = 0 column: with no slack the previous
    /// ordering carries no information, so dynamic ≈ static.
    #[test]
    fn dynamic_placement_useless_without_slack() {
        let topo = Topology::mcs(256, 4);
        let make = || Workload::iid_normal(10_000.0, 100.0, 9);
        let stat = run_iterations(&topo, &cfg(0.0, PlacementMode::Static), &mut make());
        let dyn_ = run_iterations(&topo, &cfg(0.0, PlacementMode::Dynamic), &mut make());
        let ratio = stat.sync_delay.mean() / dyn_.sync_delay.mean();
        assert!(
            (0.8..1.25).contains(&ratio),
            "speedup without slack should be ≈1, got {ratio}"
        );
    }

    /// Swap communication overhead is bounded by 1/(d+1) per processor
    /// (paper Section 5.1).
    #[test]
    fn comm_overhead_is_bounded() {
        let topo = Topology::mcs(256, 4);
        let mut w = Workload::iid_normal(10_000.0, 100.0, 11);
        let rep = run_iterations(&topo, &cfg(0.0, PlacementMode::Dynamic), &mut w);
        let bound = 1.0 + 1.0 / (4.0 + 1.0);
        assert!(
            rep.comm_overhead() <= bound + 1e-9,
            "overhead {} exceeds 1 + 1/(d+1) = {bound}",
            rep.comm_overhead()
        );
        assert!(rep.comm_overhead() >= 1.0);
    }

    /// With slack, arrival order persists (high rank correlation between
    /// consecutive iterations); without slack it does not.
    #[test]
    fn slack_induces_arrival_order_persistence() {
        let topo = Topology::mcs(128, 4);
        let mut base_cfg = cfg(0.0, PlacementMode::Static);
        base_cfg.record_arrivals = true;

        let corr_at = |slack_us: f64, seed: u64| -> f64 {
            let mut c = base_cfg.clone();
            c.slack = Duration::from_us(slack_us);
            let mut w = Workload::iid_normal(10_000.0, 100.0, seed);
            let rep = run_iterations(&topo, &c, &mut w);
            let mut corr = OnlineStats::new();
            for k in 0..rep.arrivals.len() - 1 {
                corr.push(stats::spearman(&rep.arrivals[k], &rep.arrivals[k + 1]));
            }
            corr.mean()
        };

        let no_slack = corr_at(0.0, 21);
        let big_slack = corr_at(4000.0, 21);
        assert!(no_slack < 0.3, "no-slack persistence = {no_slack}");
        assert!(big_slack > 0.6, "big-slack persistence = {big_slack}");
    }

    /// `run_modes` must reproduce two hand-rolled paired runs exactly.
    #[test]
    fn run_modes_matches_sequential_pair() {
        let topo = Topology::mcs(64, 4);
        let c = cfg(2000.0, PlacementMode::Static);
        let make = || Workload::iid_normal(10_000.0, 100.0, 17);
        let (stat, dyn_) = combar_exec::with_thread_count(4, || run_modes(&topo, &c, make));
        let by_hand_stat = run_iterations(&topo, &c, &mut make());
        let dyn_cfg = cfg(2000.0, PlacementMode::Dynamic);
        let by_hand_dyn = run_iterations(&topo, &dyn_cfg, &mut make());
        assert_eq!(stat.sync_delay.mean(), by_hand_stat.sync_delay.mean());
        assert_eq!(dyn_.sync_delay.mean(), by_hand_dyn.sync_delay.mean());
        assert_eq!(dyn_.swaps, by_hand_dyn.swaps);
    }

    #[test]
    fn ring_topology_runs_dynamic_without_crossing_rings() {
        let topo = Topology::ring_mcs(56, 4, 32);
        let mut w = Workload::iid_normal(9500.0, 110.0, 13);
        let rep = run_iterations(&topo, &cfg(2000.0, PlacementMode::Dynamic), &mut w);
        assert!(rep.sync_delay.mean() > 0.0);
        // with 56 procs and slack the releasing depth should shrink
        // below the static tree depth of 4 (degree-4 over 32 + merge)
        assert!(rep.releasing_depth.mean() < topo.depth() as f64);
    }
}
