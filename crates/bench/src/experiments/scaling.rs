//! Figures 9–11: synchronization delay vs system size.
//!
//! * Figure 9 — degree 4 vs the optimal degree, across p, for two
//!   moderate spreads: optimal-degree trees flatten the growth.
//! * Figure 10 — static vs dynamic placement at degree 4 under the
//!   "very small" σ = 3.14 ms: dynamic placement nearly neutralizes the
//!   tree depth.
//! * Figure 11 — both combined at degree 16: delay nearly independent
//!   of p.

use crate::experiments::seeds;
use crate::table::{fmt_us, Table};
use combar::presets::{ScalingSweep, TC_US};
use combar_des::Duration;
use combar_sim::{
    default_degree_sweep, optimal_degree, run_modes, sweep_degrees, IterateConfig, PlacementMode,
    SweepConfig, Topology, TreeStyle, Workload,
};

/// One Figure 9 point.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Processor count.
    pub p: u32,
    /// σ in t_c units.
    pub sigma_tc: f64,
    /// Mean delay of a degree-4 tree (µs).
    pub degree4_us: f64,
    /// Mean delay of the simulated-optimal degree (µs).
    pub optimal_us: f64,
    /// The optimal degree found.
    pub optimal_degree: u32,
}

/// One Figure 10/11 point.
#[derive(Debug, Clone)]
pub struct PlacementPoint {
    /// Processor count.
    pub p: u32,
    /// Tree degree used.
    pub degree: u32,
    /// Static placement mean delay (µs).
    pub static_us: f64,
    /// Dynamic placement mean delay (µs).
    pub dynamic_us: f64,
    /// Static releasing depth.
    pub static_depth: f64,
    /// Dynamic releasing depth.
    pub dynamic_depth: f64,
}

/// Combined result for Figures 9–11.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Figure 9 series.
    pub fig9: Vec<Fig9Point>,
    /// Figure 10 series (degree 4).
    pub fig10: Vec<PlacementPoint>,
    /// Figure 11 series (degree 16).
    pub fig11: Vec<PlacementPoint>,
    /// The preset used.
    pub preset: ScalingSweep,
}

/// Runs Figure 9 only. Each `(p, σ)` point is independently seeded, so
/// the grid evaluates as one parallel [`Sweep`](combar_exec::Sweep).
pub fn run_fig9(preset: &ScalingSweep) -> Vec<Fig9Point> {
    preset.fig9_sweep().run(|cell| {
        let &(p, sigma_tc) = cell.param;
        let cfg = SweepConfig {
            tc: Duration::from_us(TC_US),
            sigma_us: sigma_tc * TC_US,
            reps: preset.reps,
            seed: seeds::fig9(p),
            style: TreeStyle::Combining,
        };
        let swept = sweep_degrees(p, &default_degree_sweep(p), &cfg);
        let best = optimal_degree(&swept);
        let four = swept
            .iter()
            .find(|r| r.degree == 4)
            .or_else(|| swept.first())
            .expect("nonempty sweep");
        Fig9Point {
            p,
            sigma_tc,
            degree4_us: four.sync_delay.mean(),
            optimal_us: best.sync_delay.mean(),
            optimal_degree: best.degree,
        }
    })
}

/// Runs the static-vs-dynamic comparison for one degree across p
/// (Figure 10 with degree 4, Figure 11 with degree 16). The processor
/// axis evaluates as a parallel [`Sweep`](combar_exec::Sweep); inside
/// a cell the two modes share identical workload streams via
/// [`run_modes`].
pub fn run_placement(preset: &ScalingSweep, degree: u32) -> Vec<PlacementPoint> {
    preset.placement_sweep().run(|cell| {
        let &p = cell.param;
        let topo = Topology::mcs(p, degree);
        let cfg = IterateConfig {
            tc: Duration::from_us(TC_US),
            slack: Duration::from_us(preset.slack_us),
            iterations: preset.iterations,
            warmup: 10,
            mode: PlacementMode::Static,
            record_arrivals: false,
            release_model: combar_sim::ReleaseModel::CentralFlag,
        };
        let seed = seeds::placement(degree, p);
        // work mean ≫ σ so the fuzzy chaining stays realistic
        let mean = 3.0 * preset.small_sigma_us + 10_000.0;
        let (stat, dynamic) = run_modes(&topo, &cfg, || {
            Workload::iid_normal(mean, preset.small_sigma_us, seed)
        });
        PlacementPoint {
            p,
            degree,
            static_us: stat.sync_delay.mean(),
            dynamic_us: dynamic.sync_delay.mean(),
            static_depth: stat.releasing_depth.mean(),
            dynamic_depth: dynamic.releasing_depth.mean(),
        }
    })
}

/// Runs all three figures.
pub fn run(preset: &ScalingSweep) -> ScalingResult {
    ScalingResult {
        fig9: run_fig9(preset),
        fig10: run_placement(preset, 4),
        fig11: run_placement(preset, 16),
        preset: preset.clone(),
    }
}

impl ScalingResult {
    /// Renders Figure 9.
    pub fn render_fig9(&self) -> String {
        let mut t = Table::new(
            "Figure 9: delay vs p — degree 4 vs optimal degree",
            &["p", "σ/tc", "degree 4", "optimal", "opt degree"],
        );
        for pt in &self.fig9 {
            t.row(vec![
                pt.p.to_string(),
                format!("{}", pt.sigma_tc),
                fmt_us(pt.degree4_us),
                fmt_us(pt.optimal_us),
                pt.optimal_degree.to_string(),
            ]);
        }
        t.render()
    }

    /// Renders Figures 10/11.
    pub fn render_fig10_11(&self) -> String {
        let mut out = String::new();
        for (name, series) in [
            ("Figure 10 (degree 4)", &self.fig10),
            ("Figure 11 (degree 16)", &self.fig11),
        ] {
            let mut t = Table::new(
                format!(
                    "{name}: static vs dynamic placement (σ = {} µs)",
                    self.preset.small_sigma_us
                ),
                &["p", "static", "dynamic", "static depth", "dynamic depth"],
            );
            for pt in series {
                t.row(vec![
                    pt.p.to_string(),
                    fmt_us(pt.static_us),
                    fmt_us(pt.dynamic_us),
                    format!("{:.2}", pt.static_depth),
                    format!("{:.2}", pt.dynamic_depth),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_preset() -> ScalingSweep {
        ScalingSweep {
            procs: vec![16, 64, 256],
            fig9_sigma_tc: vec![12.5],
            iterations: 40,
            reps: 8,
            ..ScalingSweep::default()
        }
    }

    /// Figure 9's claim: optimal-degree delay grows more slowly with p
    /// than degree-4 delay, and never exceeds it.
    #[test]
    fn optimal_flattens_growth() {
        let pts = run_fig9(&small_preset());
        for pt in &pts {
            assert!(
                pt.optimal_us <= pt.degree4_us + 1e-9,
                "p={}: optimal {} vs degree4 {}",
                pt.p,
                pt.optimal_us,
                pt.degree4_us
            );
        }
        let first = &pts[0];
        let last = pts.last().unwrap();
        let d4_growth = last.degree4_us / first.degree4_us;
        let opt_growth = last.optimal_us / first.optimal_us;
        assert!(
            opt_growth <= d4_growth + 1e-9,
            "optimal should scale no worse: {opt_growth} vs {d4_growth}"
        );
    }

    /// Figure 10's claim: dynamic placement nearly neutralizes depth —
    /// the delay becomes almost independent of p.
    #[test]
    fn dynamic_placement_is_nearly_flat_in_p() {
        let pts = run_placement(&small_preset(), 4);
        for pt in &pts {
            assert!(
                pt.dynamic_us <= pt.static_us + 1e-9,
                "p={}: dynamic {} vs static {}",
                pt.p,
                pt.dynamic_us,
                pt.static_us
            );
            assert!(pt.dynamic_depth < pt.static_depth || pt.static_depth < 1.5);
        }
        let first = &pts[0];
        let last = pts.last().unwrap();
        // static grows with depth; dynamic grows far less
        let static_growth = last.static_us / first.static_us;
        let dyn_growth = last.dynamic_us / first.dynamic_us;
        assert!(
            dyn_growth < static_growth,
            "dynamic {dyn_growth} vs static {static_growth}"
        );
        assert!(
            dyn_growth < 1.8,
            "dynamic delay should be nearly constant, grew {dyn_growth}x"
        );
    }

    #[test]
    fn renders_have_every_p() {
        let preset = ScalingSweep {
            procs: vec![16, 64],
            fig9_sigma_tc: vec![12.5],
            iterations: 20,
            reps: 4,
            ..ScalingSweep::default()
        };
        let res = run(&preset);
        let s9 = res.render_fig9();
        let s10 = res.render_fig10_11();
        assert!(s9.contains("16") && s9.contains("64"));
        assert!(s10.contains("Figure 10") && s10.contains("Figure 11"));
    }
}
