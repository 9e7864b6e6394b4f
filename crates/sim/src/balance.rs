//! Closed-loop load balancing: trace-fed work diffusion layered on the
//! paper's dynamic placement.
//!
//! The paper (Section 5.1) adapts to systemic imbalance by moving *slow
//! processors* toward the barrier root — the sync-delay cost of the
//! imbalance shrinks, but the imbalance itself is untouched: the last
//! arrival is exactly as late as before. The diffusion literature
//! (Cybenko; Eijkhout) attacks the imbalance instead: move *work* from
//! loaded processors to their underloaded neighbours, a little per
//! step, until effective loads equalize.
//!
//! [`run_balance`] runs both, and their combination, through one
//! episode loop. Between episodes the controller consumes the
//! episode's own `combar-trace` timeline — per-processor arrival
//! lateness as the load vector, [`combar_trace::critical_paths`] for
//! the depth statistic — and feeds a [`Diffuser`] step over the barrier
//! tree's own neighbour graph ([`Topology::proc_edges`]). Work moves in
//! integer units, so the proptested "total work is conserved" invariant
//! is exact.
//!
//! The interesting comparison (the `balance` experiment) is under
//! *systemic* and *evolving* imbalance: dynamic placement can only cut
//! the synchronization delay, while diffusion cuts the episode time
//! itself — and the two compose, since placement handles whatever
//! residual noise diffusion cannot predict.

use crate::episode::run_episode_traced;
use crate::iterate::apply_dynamic_swaps;
use combar_des::Duration;
use combar_rng::stats::OnlineStats;
use combar_topo::{Placement, Topology};
use combar_trace::{critical_paths, Kind};
use combar_work::{Diffuser, WorkSource, UNIT_SCALE};

/// How the episode loop reacts to observed imbalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceRegime {
    /// Fixed homes, fixed work: the MCS baseline.
    Static,
    /// The paper's dynamic placement (victor/victim swaps), work fixed.
    Dynamic,
    /// Dynamic placement *plus* trace-fed work diffusion between
    /// episodes.
    DynamicDiffusion,
}

impl BalanceRegime {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            BalanceRegime::Static => "static",
            BalanceRegime::Dynamic => "dynamic",
            BalanceRegime::DynamicDiffusion => "dyn+diff",
        }
    }
}

/// Configuration of a balance run.
#[derive(Debug, Clone)]
pub struct BalanceConfig {
    /// Counter update cost.
    pub tc: Duration,
    /// Fuzzy-barrier slack between signal and enforce (dynamic
    /// placement needs slack ≫ noise to read the arrival order).
    pub slack: Duration,
    /// Measured episodes (after warm-up).
    pub episodes: usize,
    /// Warm-up episodes excluded from statistics.
    pub warmup: usize,
    /// The balancing regime under test.
    pub regime: BalanceRegime,
    /// Diffusion damping `alpha ∈ (0, 1]` (ignored outside
    /// [`BalanceRegime::DynamicDiffusion`]).
    pub alpha: f64,
    /// Trace-buffer capacity per episode; must cover `p` arrivals plus
    /// two events per counter update for the critical-path extraction
    /// to see the whole episode.
    pub trace_capacity: usize,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        Self {
            tc: Duration::from_us(20.0),
            slack: Duration::from_us(2000.0),
            episodes: 200,
            warmup: 20,
            regime: BalanceRegime::Static,
            alpha: 0.5,
            trace_capacity: 1 << 16,
        }
    }
}

/// Aggregate results of a balance run.
#[derive(Debug, Clone)]
pub struct BalanceReport {
    /// Episode makespan: barrier release minus the episode's earliest
    /// work start. Diffusion attacks this directly; placement cannot.
    pub episode_time: OnlineStats,
    /// Synchronization delay per episode (release − last arrival).
    pub sync_delay: OnlineStats,
    /// Depth (counters on the path) of the releasing processor.
    pub releasing_depth: OnlineStats,
    /// Critical-path depth from the unified trace
    /// ([`combar_trace::EpisodePath::depth`]) per episode.
    pub crit_depth: OnlineStats,
    /// Victor/victim swaps applied over the measured episodes.
    pub swaps: u64,
    /// Work units transferred by the diffuser over the whole run.
    pub units_moved: u64,
    /// Final max/min ratio of per-processor work units.
    pub unit_spread: f64,
    /// Episode 0's synchronization delay — the hook the `balance`
    /// experiment's DES mirror re-derives independently.
    pub first_sync_delay_us: f64,
    /// Episode 0's releasing processor (DES-mirror hook).
    pub first_releaser: u32,
}

/// Runs `warmup + episodes` chained barrier episodes under the chosen
/// [`BalanceRegime`], with work assignments drawn through the shared
/// [`WorkSource`] seam.
///
/// A pure source ([`combar_work::WorkModel`]) makes the entire run a
/// deterministic function of its seed — identical at any thread count
/// and, because episode 0 is reconstructible from the seed alone,
/// independently checkable by a DES mirror.
pub fn run_balance<S: WorkSource + ?Sized>(
    topo: &Topology,
    cfg: &BalanceConfig,
    source: &mut S,
) -> BalanceReport {
    let p = topo.num_procs() as usize;
    let mut placement = Placement::initial(topo);
    let mut diffuser = Diffuser::new(p, topo.proc_edges(), cfg.alpha);
    let unit_cost_us = source.mean_us() / UNIT_SCALE as f64;

    let mut begin = vec![0.0f64; p];
    let mut works = vec![0.0f64; p];
    let mut arrivals = vec![0.0f64; p];

    let mut episode_time = OnlineStats::new();
    let mut sync_delay = OnlineStats::new();
    let mut releasing_depth = OnlineStats::new();
    let mut crit_depth = OnlineStats::new();
    let mut swaps = 0u64;
    let mut first_sync_delay_us = 0.0;
    let mut first_releaser = 0u32;

    let total = cfg.warmup + cfg.episodes;
    for e in 0..total {
        source.sample_episode(e as u32, &mut works);
        let start = begin.iter().copied().fold(f64::INFINITY, f64::min);
        for i in 0..p {
            arrivals[i] = begin[i] + works[i] * diffuser.factor(i as u32);
        }

        let (r, trace) = run_episode_traced(
            topo,
            placement.homes(),
            &arrivals,
            cfg.tc,
            cfg.trace_capacity,
        );
        let events = trace.to_unified();
        let paths = critical_paths(&events);

        if e == 0 {
            first_sync_delay_us = r.sync_delay_us;
            first_releaser = r.releasing_proc;
        }
        let measured = e >= cfg.warmup;
        if measured {
            episode_time.push(r.release_us - start);
            sync_delay.push(r.sync_delay_us);
            releasing_depth.push(r.releasing_depth as f64);
            if let Some(path) = paths.first() {
                crit_depth.push(path.depth() as f64);
            }
        }

        if cfg.regime != BalanceRegime::Static {
            let s = apply_dynamic_swaps(topo, &mut placement, &r.winners);
            if measured {
                swaps += s;
            }
        }
        if cfg.regime == BalanceRegime::DynamicDiffusion {
            // Trace-fed load vector: each processor's arrival lateness
            // this episode (first Arrive record per tid; integer-ns
            // truncation only, so dropped records fall back to the
            // exact arrival we scheduled).
            let mut arrive_ns: Vec<Option<u64>> = vec![None; p];
            for ev in &events {
                if ev.kind == Kind::Arrive {
                    arrive_ns[ev.tid as usize].get_or_insert(ev.at);
                }
            }
            let load: Vec<f64> = (0..p)
                .map(|i| match arrive_ns[i] {
                    Some(at) => at as f64 / 1e3,
                    None => arrivals[i],
                })
                .collect();
            let min = load.iter().copied().fold(f64::INFINITY, f64::min);
            let lateness: Vec<f64> = load.iter().map(|&l| l - min).collect();
            diffuser.step(&lateness, unit_cost_us);
        }

        // Fuzzy-barrier chaining, as in `run_iterations`: slack after
        // the signal, then enforce at the observed release.
        let slack = cfg.slack.as_us();
        for ((b, &done), &released) in begin
            .iter_mut()
            .zip(&r.signal_done_us)
            .zip(&r.release_per_proc_us)
        {
            *b = (done + slack).max(released);
        }
    }

    BalanceReport {
        episode_time,
        sync_delay,
        releasing_depth,
        crit_depth,
        swaps,
        units_moved: diffuser.moved(),
        unit_spread: diffuser.unit_spread(),
        first_sync_delay_us,
        first_releaser,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_work::WorkModel;

    fn cfg(regime: BalanceRegime) -> BalanceConfig {
        BalanceConfig {
            episodes: 80,
            warmup: 20,
            regime,
            ..BalanceConfig::default()
        }
    }

    fn systemic(p: u32) -> WorkModel {
        WorkModel::systemic(p, 0xba1a_ce01, 1000.0, 200.0, 20.0)
    }

    #[test]
    fn static_regime_moves_nothing() {
        let topo = Topology::mcs(32, 4);
        let rep = run_balance(&topo, &cfg(BalanceRegime::Static), &mut systemic(32));
        assert_eq!(rep.swaps, 0);
        assert_eq!(rep.units_moved, 0);
        assert_eq!(rep.unit_spread, 1.0);
        assert_eq!(rep.episode_time.count(), 80);
        assert!(rep.crit_depth.mean() >= 1.0);
    }

    /// The headline claim of the `balance` experiment: under systemic
    /// bias, dynamic placement only re-routes the release (sync delay
    /// falls, makespan does not), while diffusion shortens the episode
    /// itself.
    #[test]
    fn diffusion_beats_dynamic_alone_on_episode_time() {
        let topo = Topology::mcs(64, 4);
        let stat = run_balance(&topo, &cfg(BalanceRegime::Static), &mut systemic(64));
        let dyn_ = run_balance(&topo, &cfg(BalanceRegime::Dynamic), &mut systemic(64));
        let diff = run_balance(
            &topo,
            &cfg(BalanceRegime::DynamicDiffusion),
            &mut systemic(64),
        );
        assert!(
            diff.episode_time.mean() < 0.95 * dyn_.episode_time.mean(),
            "diffusion {} vs dynamic {}",
            diff.episode_time.mean(),
            dyn_.episode_time.mean()
        );
        assert!(
            diff.episode_time.mean() < stat.episode_time.mean(),
            "diffusion {} vs static {}",
            diff.episode_time.mean(),
            stat.episode_time.mean()
        );
        assert!(diff.units_moved > 0, "the controller actually moved work");
        assert!(diff.unit_spread > 1.0, "slow processors shed units");
        assert!(dyn_.swaps > 0, "placement stays active alongside diffusion");
    }

    /// Evolving imbalance: the walk keeps shifting who is slow, and the
    /// controller keeps tracking it.
    #[test]
    fn diffusion_tracks_evolving_imbalance() {
        let topo = Topology::mcs(64, 4);
        let make = || WorkModel::evolving(64, 0xeb01_f1e5, 1000.0, 30.0, 10.0);
        let dyn_ = run_balance(&topo, &cfg(BalanceRegime::Dynamic), &mut make());
        let diff = run_balance(&topo, &cfg(BalanceRegime::DynamicDiffusion), &mut make());
        assert!(
            diff.episode_time.mean() < dyn_.episode_time.mean(),
            "diffusion {} vs dynamic {}",
            diff.episode_time.mean(),
            dyn_.episode_time.mean()
        );
        assert!(diff.units_moved > 0);
    }

    /// A pure source makes the whole run a function of its seed.
    #[test]
    fn balance_runs_are_deterministic() {
        let topo = Topology::combining(32, 4);
        let a = run_balance(
            &topo,
            &cfg(BalanceRegime::DynamicDiffusion),
            &mut systemic(32),
        );
        let b = run_balance(
            &topo,
            &cfg(BalanceRegime::DynamicDiffusion),
            &mut systemic(32),
        );
        assert_eq!(a.episode_time.mean(), b.episode_time.mean());
        assert_eq!(a.crit_depth.mean(), b.crit_depth.mean());
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(a.units_moved, b.units_moved);
        assert_eq!(a.first_sync_delay_us, b.first_sync_delay_us);
    }

    /// Episode 0 is reconstructible from the pure model alone — the
    /// agreement the experiment's DES mirror checks end-to-end.
    #[test]
    fn first_episode_matches_independent_des_replay() {
        let topo = Topology::mcs(48, 4);
        let c = cfg(BalanceRegime::Static);
        let rep = run_balance(&topo, &c, &mut systemic(48));
        let mut works = vec![0.0; 48];
        systemic(48).sample_episode(0, &mut works);
        let r = crate::episode::run_episode(&topo, topo.homes(), &works, c.tc);
        assert_eq!(rep.first_sync_delay_us, r.sync_delay_us);
        assert_eq!(rep.first_releaser, r.releasing_proc);
    }
}
