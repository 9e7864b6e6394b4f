//! The paper's closing claim, quantified: "the feasibility of barriers
//! that would adapt their degree at run time to minimize their
//! synchronization delay."
//!
//! A 4096-processor system runs through phases of different load
//! imbalance. Three barriers compete:
//!
//! * **fixed-4** — the classical choice;
//! * **adaptive** — after each window of iterations, estimate σ̂ from
//!   the observed arrival spreads and re-pick the degree with
//!   Algorithm 1 (exactly what `combar_rt::AdaptiveBarrier` does on
//!   real threads, here at simulator scale);
//! * **oracle** — the best fixed degree per phase, found by exhaustive
//!   search (the unreachable lower bound).

use crate::experiments::{seeds, Rendered};
use crate::table::{fmt_us, Table};
use combar::policy::DegreeAdvisor;
use combar::presets::TC_US;
use combar_des::Duration;
use combar_exec::Sweep;
use combar_rng::stats::{std_dev, OnlineStats};
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{
    build_tree, default_degree_sweep, normal_arrivals, optimal_degree, sweep_degrees, Arrivals,
    EpisodePlan, EpisodeScratch, SweepConfig, TreeStyle,
};

/// One imbalance phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Arrival spread during the phase, in t_c units.
    pub sigma_tc: f64,
    /// Barrier iterations in the phase.
    pub iterations: usize,
}

/// Result per phase.
#[derive(Debug, Clone)]
pub struct AdaptivePhaseResult {
    /// The phase parameters.
    pub phase: Phase,
    /// Mean delay of the fixed degree-4 barrier (µs).
    pub fixed4_us: f64,
    /// Mean delay of the adaptive barrier (µs).
    pub adaptive_us: f64,
    /// Mean delay of the per-phase oracle (µs).
    pub oracle_us: f64,
    /// Degree the adaptive barrier used for most of the phase.
    pub adapted_degree: u32,
    /// The oracle's degree.
    pub oracle_degree: u32,
}

/// Full adaptive-barrier experiment result.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// One row per phase.
    pub rows: Vec<AdaptivePhaseResult>,
    /// Processor count.
    pub p: u32,
    /// Re-decision window (iterations).
    pub window: usize,
}

/// Runs the adaptive-degree experiment. The phase script itself is
/// inherently sequential (the controller carries its degree and RNG
/// across phases), but each phase's oracle depends only on the phase's
/// σ, so the oracle searches evaluate up front as a parallel
/// [`Sweep`].
pub fn run(p: u32, phases: &[Phase], window: usize) -> AdaptiveResult {
    let tc = Duration::from_us(TC_US);
    let advisor = DegreeAdvisor::new(p, TC_US);
    let mut rng = Xoshiro256pp::seed_from_u64(seeds::adaptive());

    let oracles = Sweep::new(seeds::BASE, phases.to_vec()).run(|cell| {
        let cfg = SweepConfig {
            tc,
            sigma_us: cell.param.sigma_tc * TC_US,
            reps: 15,
            seed: seeds::adaptive_oracle(cell.param.sigma_tc),
            style: TreeStyle::Combining,
        };
        let swept = sweep_degrees(p, &default_degree_sweep(p), &cfg);
        optimal_degree(&swept).clone()
    });

    let mut rows = Vec::new();
    // The adaptive barrier starts at the classical degree and carries
    // its state across phases (it does not know where phases begin).
    let mut current_degree = 4u32;
    let mut window_spreads: Vec<f64> = Vec::new();

    for (&phase, oracle) in phases.iter().zip(&oracles) {
        let sigma_us = phase.sigma_tc * TC_US;
        let fixed_topo = build_tree(TreeStyle::Combining, p, 4);
        let fixed_plan = EpisodePlan::new(&fixed_topo, fixed_topo.homes());
        let mut scratch = EpisodeScratch::default();
        let mut fixed = OnlineStats::new();
        let mut adaptive = OnlineStats::new();
        let mut degree_use: std::collections::BTreeMap<u32, usize> = Default::default();

        for _ in 0..phase.iterations {
            let arrivals = normal_arrivals(p as usize, sigma_us, &mut rng);
            let sorted = Arrivals::new(&arrivals);
            // fixed-4
            let rf = fixed_plan.run(&sorted, tc, &mut scratch);
            fixed.push(rf.sync_delay_us);
            // adaptive: current degree, plus measurement
            let topo = build_tree(TreeStyle::Combining, p, current_degree);
            let ra = EpisodePlan::new(&topo, topo.homes()).run(&sorted, tc, &mut scratch);
            adaptive.push(ra.sync_delay_us);
            *degree_use.entry(current_degree).or_default() += 1;
            window_spreads.push(std_dev(&arrivals));
            if window_spreads.len() >= window {
                let sigma_hat = window_spreads.iter().sum::<f64>() / window_spreads.len() as f64;
                current_degree = advisor.recommend_for_sigma(sigma_hat);
                window_spreads.clear();
            }
        }

        let adapted_degree = degree_use
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .map(|(d, _)| d)
            .unwrap_or(current_degree);
        rows.push(AdaptivePhaseResult {
            phase,
            fixed4_us: fixed.mean(),
            adaptive_us: adaptive.mean(),
            oracle_us: oracle.sync_delay.mean(),
            adapted_degree,
            oracle_degree: oracle.degree,
        });
    }
    AdaptiveResult { rows, p, window }
}

impl AdaptiveResult {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Adaptive-degree barrier ({} procs, window {} iterations)",
                self.p, self.window
            ),
            &[
                "phase σ/tc",
                "fixed-4",
                "adaptive",
                "oracle",
                "adapted d",
                "oracle d",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{}", r.phase.sigma_tc),
                fmt_us(r.fixed4_us),
                fmt_us(r.adaptive_us),
                fmt_us(r.oracle_us),
                r.adapted_degree.to_string(),
                r.oracle_degree.to_string(),
            ]);
        }
        t.render()
    }
}

/// The `adaptive` experiment: four 50-iteration phases of shifting σ
/// at 4096 processors, or 1024 under `--quick`.
pub fn rendered(quick: bool) -> Rendered {
    let p = if quick { 1024 } else { 4096 };
    let phases = [0.0, 50.0, 12.5, 100.0].map(|sigma_tc| Phase {
        sigma_tc,
        iterations: 50,
    });
    Rendered::table(run(p, &phases, 10).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> Vec<Phase> {
        vec![
            Phase {
                sigma_tc: 0.0,
                iterations: 30,
            },
            Phase {
                sigma_tc: 50.0,
                iterations: 30,
            },
            Phase {
                sigma_tc: 12.5,
                iterations: 30,
            },
        ]
    }

    /// After the imbalance jumps, the adaptive barrier beats fixed-4
    /// and lands near the oracle.
    #[test]
    fn adaptive_tracks_the_oracle_after_a_shift() {
        let res = run(1024, &phases(), 10);
        let busy = &res.rows[1]; // σ = 50·t_c phase
        assert!(
            busy.adaptive_us < busy.fixed4_us,
            "adaptive {} vs fixed {}",
            busy.adaptive_us,
            busy.fixed4_us
        );
        assert!(
            busy.adaptive_us < busy.oracle_us * 1.7,
            "adaptive {} vs oracle {}",
            busy.adaptive_us,
            busy.oracle_us
        );
        assert!(busy.adapted_degree > 4);
    }

    /// In the quiet phase the adaptive barrier stays at (or returns to)
    /// the classical degree and pays nothing.
    #[test]
    fn adaptive_is_free_when_quiet() {
        let res = run(1024, &phases(), 10);
        let quiet = &res.rows[0];
        assert_eq!(quiet.adapted_degree, 4);
        assert!((quiet.adaptive_us / quiet.fixed4_us - 1.0).abs() < 0.05);
    }

    #[test]
    fn render_has_all_phases() {
        let res = run(256, &phases(), 10);
        let s = res.render();
        assert!(s.contains("oracle"));
        assert_eq!(res.rows.len(), 3);
    }
}
