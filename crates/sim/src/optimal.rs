//! Exhaustive optimal-degree search by simulation.
//!
//! Reproduces the methodology behind the paper's Figures 3 and 4: for a
//! given processor count and arrival spread, simulate a barrier episode
//! for every candidate degree (with common random numbers across
//! degrees, so the comparison is paired) and pick the degree with the
//! smallest mean synchronization delay.

use crate::episode::{Arrivals, EpisodeDelays, EpisodePlan, EpisodeScratch};
use combar_des::Duration;
use combar_exec::par_map_indexed;
use combar_rng::stats::OnlineStats;
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_topo::Topology;
use combar_work::normal_arrivals;

/// Which tree family the sweep builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeStyle {
    /// Classic combining trees (processors at the leaves).
    Combining,
    /// MCS-style owner trees (one processor per counter) — used by the
    /// paper's Section 4 comparison.
    Mcs,
}

/// Builds the topology for a `(p, degree)` pair in the given style.
/// A degree `>= p` yields the flat single counter.
pub fn build_tree(style: TreeStyle, p: u32, degree: u32) -> Topology {
    if degree >= p {
        return Topology::flat(p);
    }
    match style {
        TreeStyle::Combining => Topology::combining(p, degree),
        TreeStyle::Mcs => Topology::mcs(p, degree),
    }
}

/// Mean synchronization delay of one `(p, degree, σ)` cell.
#[derive(Debug, Clone)]
pub struct DegreeResult {
    /// The tree degree simulated.
    pub degree: u32,
    /// Tree depth of that degree.
    pub depth: u32,
    /// Synchronization delay statistics over the replications (µs).
    pub sync_delay: OnlineStats,
    /// Update-delay component statistics (µs).
    pub update_delay: OnlineStats,
    /// Contention-delay component statistics (µs).
    pub contention_delay: OnlineStats,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Counter update cost (the paper: 20 µs).
    pub tc: Duration,
    /// Arrival-time standard deviation in µs.
    pub sigma_us: f64,
    /// Replications per degree.
    pub reps: usize,
    /// Base RNG seed; each replication gets an independent stream.
    pub seed: u64,
    /// Tree family.
    pub style: TreeStyle,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            tc: Duration::from_us(20.0),
            sigma_us: 0.0,
            reps: 20,
            seed: 0x5eed,
            style: TreeStyle::Combining,
        }
    }
}

/// Simulates every degree in `degrees` for `p` processors.
///
/// Replication `r` uses the same arrival vector for every degree
/// (common random numbers), which sharpens the degree comparison the
/// paper makes; it is validated and sorted once, as one [`Arrivals`],
/// and shared by every degree. Each tree is checked and planned once,
/// as one [`EpisodePlan`] shared by every replication, and each
/// replication runs every plan through one [`EpisodeScratch`].
///
/// The trees are built, and the replications run, in parallel on the
/// `combar-exec` pool; the plans are derived serially, since each
/// fork-join spawns threads of its own. Each rep's RNG stream is
/// `split(cfg.seed, rep)` — keyed by the replication index, never by
/// the worker — and the per-degree statistics are folded serially in
/// rep order afterwards, so the accumulated means are bit-identical to
/// the historical serial loop for any thread count.
///
/// # Panics
///
/// Panics if `cfg.reps` is zero while `cfg.sigma_us > 0` (σ = 0 runs
/// its single deterministic replication regardless).
pub fn sweep_degrees(p: u32, degrees: &[u32], cfg: &SweepConfig) -> Vec<DegreeResult> {
    let topos = par_map_indexed(degrees.len(), |i| build_tree(cfg.style, p, degrees[i]));
    let plans: Vec<EpisodePlan> = topos
        .iter()
        .map(|t| EpisodePlan::new(t, t.homes()))
        .collect();
    let mut out: Vec<DegreeResult> = degrees
        .iter()
        .zip(&topos)
        .map(|(&degree, topo)| DegreeResult {
            degree,
            depth: topo.depth(),
            sync_delay: OnlineStats::new(),
            update_delay: OnlineStats::new(),
            contention_delay: OnlineStats::new(),
        })
        .collect();

    let reps = if cfg.sigma_us == 0.0 {
        1
    } else {
        // Zero-sample means read 0.0, which would crown the widest degree.
        assert!(
            cfg.reps > 0,
            "a sweep at σ > 0 needs at least one replication"
        );
        cfg.reps
    };
    let per_rep: Vec<Vec<EpisodeDelays>> = par_map_indexed(reps, |rep| {
        let mut rng = Xoshiro256pp::split(cfg.seed, rep as u64);
        let arrivals = Arrivals::new(&normal_arrivals(p as usize, cfg.sigma_us, &mut rng));
        let mut scratch = EpisodeScratch::default();
        plans
            .iter()
            .map(|plan| plan.run(&arrivals, cfg.tc, &mut scratch))
            .collect()
    });
    for delays in per_rep {
        for (res, d) in out.iter_mut().zip(delays) {
            res.sync_delay.push(d.sync_delay_us);
            res.update_delay.push(d.update_delay_us);
            res.contention_delay.push(d.contention_delay_us);
        }
    }
    out
}

/// The degree with the smallest mean synchronization delay. Numerical
/// ties (degrees 2 and 4 tie exactly at σ = 0: `2/ln 2 = 4/ln 4`) break
/// toward the wider tree, which uses fewer counters.
pub fn optimal_degree(results: &[DegreeResult]) -> &DegreeResult {
    assert!(!results.is_empty(), "at least one degree");
    let mut best = &results[0];
    for r in &results[1..] {
        let eps = 1e-9 * best.sync_delay.mean().abs().max(1.0);
        if r.sync_delay.mean() < best.sync_delay.mean() - eps
            || (r.sync_delay.mean() <= best.sync_delay.mean() + eps && r.degree > best.degree)
        {
            best = r;
        }
    }
    best
}

/// Synchronization speedup of the optimal degree relative to degree 4
/// (the paper's Figures 3/4 parenthesized numbers). Falls back to the
/// smallest simulated degree if 4 was not in the sweep.
pub fn speedup_vs_degree4(results: &[DegreeResult]) -> f64 {
    let best = optimal_degree(results);
    let four = results
        .iter()
        .find(|r| r.degree == 4)
        .unwrap_or_else(|| &results[0]);
    four.sync_delay.mean() / best.sync_delay.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_topo::default_degree_sweep;

    fn cfg(sigma_tc: f64, reps: usize) -> SweepConfig {
        SweepConfig {
            sigma_us: sigma_tc * 20.0,
            reps,
            ..SweepConfig::default()
        }
    }

    /// The classical result the paper starts from: with simultaneous
    /// arrivals the optimal combining-tree degree is small (2–4; the
    /// continuous optimum is e ≈ 2.7).
    #[test]
    fn simultaneous_arrivals_favor_small_degrees() {
        let degrees = default_degree_sweep(64);
        let res = sweep_degrees(64, &degrees, &cfg(0.0, 1));
        let best = optimal_degree(&res);
        assert!(
            best.degree <= 4,
            "optimal degree under zero imbalance = {}",
            best.degree
        );
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_reps_at_positive_sigma_is_rejected() {
        sweep_degrees(16, &[2, 4, 16], &cfg(6.2, 0));
    }

    /// The paper's Figure 3 anchor: at σ = 25·t_c with 64 processors, a
    /// single counter (degree = p) is optimal.
    #[test]
    fn wide_spread_favors_single_counter() {
        let degrees = default_degree_sweep(64);
        let res = sweep_degrees(64, &degrees, &cfg(25.0, 30));
        let best = optimal_degree(&res);
        assert!(
            best.degree >= 32,
            "optimal degree under σ=25tc should be wide, got {}",
            best.degree
        );
    }

    /// Optimal degree grows monotonically (weakly) with σ — the paper's
    /// central claim.
    #[test]
    fn optimal_degree_grows_with_sigma() {
        let degrees = default_degree_sweep(256);
        let mut prev = 0u32;
        for sigma_tc in [0.0, 6.2, 25.0, 100.0] {
            let res = sweep_degrees(256, &degrees, &cfg(sigma_tc, 12));
            let best = optimal_degree(&res).degree;
            assert!(
                best >= prev,
                "optimal degree shrank: σ={sigma_tc}tc gives {best} after {prev}"
            );
            prev = best;
        }
        assert!(prev > 4, "at σ=100tc the optimum should exceed 4");
    }

    #[test]
    fn zero_sigma_uses_single_deterministic_rep() {
        let res = sweep_degrees(64, &[4], &cfg(0.0, 50));
        assert_eq!(res[0].sync_delay.count(), 1);
        // Eq. 1: 3 levels · 4 · 20µs
        assert_eq!(res[0].sync_delay.mean(), 240.0);
        assert_eq!(res[0].contention_delay.mean(), 240.0 - 60.0);
    }

    #[test]
    fn speedup_vs_degree4_is_one_when_four_is_best() {
        let degrees = default_degree_sweep(64);
        let res = sweep_degrees(64, &degrees, &cfg(0.0, 1));
        let s = speedup_vs_degree4(&res);
        assert!(s <= 1.0 + 1e-12, "degree 4 optimal ⇒ speedup ≈ 1, got {s}");
        assert!(s > 0.9);
    }

    #[test]
    fn mcs_style_builds_and_runs() {
        let res = sweep_degrees(
            64,
            &[2, 4, 8],
            &SweepConfig {
                style: TreeStyle::Mcs,
                sigma_us: 100.0,
                reps: 5,
                ..SweepConfig::default()
            },
        );
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|r| r.sync_delay.mean() > 0.0));
    }

    #[test]
    fn results_are_deterministic_given_seed() {
        let a = sweep_degrees(64, &[4, 8], &cfg(6.2, 10));
        let b = sweep_degrees(64, &[4, 8], &cfg(6.2, 10));
        assert_eq!(a[0].sync_delay.mean(), b[0].sync_delay.mean());
        assert_eq!(a[1].sync_delay.mean(), b[1].sync_delay.mean());
    }
}
