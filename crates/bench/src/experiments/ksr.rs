//! Figures 12 and 13: the KSR1 SOR measurements, on the modelled
//! machine.
//!
//! * Figure 12 — sweep the y-dimension: larger `d_y` means more
//!   communication events, more variance, wider optimal trees (the
//!   paper: 4 → 32, speedups up to 23 %).
//! * Figure 13 — d_y = 210, degrees {2, 4, 16}: the last-processor
//!   depth and the dynamic-over-static speedup per slack (the paper:
//!   depth 4.38 → 1.67 at degree 2; speedups up to 1.73, with a penalty
//!   below ~1 ms of slack).

use crate::experiments::seeds;
use crate::table::Table;
use combar::presets::{Fig12, Fig13};
use combar_des::Duration;
use combar_exec::Sweep;
use combar_machine::{ring_topology, KsrParams, SorWork};
use combar_sim::{run_iterations, IterateConfig, IterateReport, PlacementMode};

fn iterate_cfg(
    params: &KsrParams,
    slack_us: f64,
    iterations: usize,
    warmup: usize,
    mode: PlacementMode,
) -> IterateConfig {
    IterateConfig {
        tc: Duration::from_us(params.tc_us),
        slack: Duration::from_us(slack_us),
        iterations,
        warmup,
        mode,
        record_arrivals: false,
        release_model: combar_sim::ReleaseModel::CentralFlag,
    }
}

/// One SOR run's identity: where, how long, and in which mode.
#[derive(Debug, Clone, Copy)]
struct SorRun {
    degree: u32,
    dy: u32,
    slack_us: f64,
    iterations: usize,
    warmup: usize,
    mode: PlacementMode,
    seed: u64,
}

fn run_sor(params: &KsrParams, run: SorRun) -> IterateReport {
    let topo = ring_topology(params, run.degree);
    let mut work = SorWork::new(params.clone(), 60, run.dy, run.seed);
    run_iterations(
        &topo,
        &iterate_cfg(params, run.slack_us, run.iterations, run.warmup, run.mode),
        &mut work,
    )
}

/// One Figure 12 row.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// y-dimension of the SOR grid.
    pub dy: u32,
    /// The work model's iteration-time standard deviation (µs).
    pub sigma_us: f64,
    /// Degree with the smallest mean synchronization delay.
    pub optimal_degree: u32,
    /// Speedup of that degree over degree 4.
    pub speedup_vs_4: f64,
    /// Mean delay at the optimal degree (µs).
    pub optimal_delay_us: f64,
}

/// Full Figure 12 result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// One row per d_y.
    pub rows: Vec<Fig12Row>,
    /// The preset used.
    pub preset: Fig12,
}

/// Runs the Figure 12 experiment. Each `d_y` row is independently
/// seeded (the degree scan within a row is a paired comparison over one
/// seed), so the axis evaluates as a parallel
/// [`Sweep`].
pub fn run_fig12(preset: &Fig12) -> Fig12Result {
    let params = KsrParams::default();
    let rows = preset.sweep().run(|cell| {
        let &dy = cell.param;
        let mut best: Option<(u32, f64)> = None;
        let mut degree4 = f64::NAN;
        for &d in &preset.degrees {
            let rep = run_sor(
                &params,
                SorRun {
                    degree: d,
                    dy,
                    slack_us: 0.0,
                    iterations: preset.iterations,
                    warmup: preset.warmup,
                    mode: PlacementMode::Static,
                    seed: seeds::fig12(dy),
                },
            );
            let delay = rep.sync_delay.mean();
            if d == 4 {
                degree4 = delay;
            }
            // wider-on-tie, as elsewhere
            let better = match best {
                None => true,
                Some((_, cur)) => delay < cur - 1e-9 * cur.max(1.0),
            };
            let tie_wider = matches!(best, Some((bd, cur)) if (delay - cur).abs() <= 1e-9 * cur.max(1.0) && d > bd);
            if better || tie_wider {
                best = Some((d, delay));
            }
        }
        let (optimal_degree, optimal_delay_us) = best.expect("at least one degree");
        Fig12Row {
            dy,
            sigma_us: SorWork::paper_config(dy, 0).analytic_sigma_us(),
            optimal_degree,
            speedup_vs_4: degree4 / optimal_delay_us,
            optimal_delay_us,
        }
    });
    Fig12Result {
        rows,
        preset: preset.clone(),
    }
}

impl Fig12Result {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 12: measured optimal degree, SOR on modelled KSR1 (56 procs)",
            &["d_y", "σ (µs)", "optimal degree", "speedup vs 4"],
        );
        for r in &self.rows {
            t.row(vec![
                r.dy.to_string(),
                format!("{:.0}", r.sigma_us),
                r.optimal_degree.to_string(),
                format!("{:.2}", r.speedup_vs_4),
            ]);
        }
        t.render()
    }
}

/// One Figure 13 cell.
#[derive(Debug, Clone)]
pub struct Fig13Cell {
    /// Tree degree.
    pub degree: u32,
    /// Fuzzy slack (µs).
    pub slack_us: f64,
    /// Mean releasing depth under dynamic placement.
    pub last_proc_depth: f64,
    /// Static / dynamic mean delay.
    pub sync_speedup: f64,
}

/// Full Figure 13 result.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// All (degree × slack) cells.
    pub cells: Vec<Fig13Cell>,
    /// The preset used.
    pub preset: Fig13,
}

/// Runs the Figure 13 experiment. Every `(degree, slack)` cell is
/// independently seeded, so the grid evaluates as one parallel
/// [`Sweep`]; inside a cell the static/dynamic
/// pair replays the same seed (paired comparison).
pub fn run_fig13(preset: &Fig13) -> Fig13Result {
    let params = KsrParams::default();
    let cells = preset.sweep().run(|cell| {
        let &(degree, slack) = cell.param;
        let base = SorRun {
            degree,
            dy: preset.dy,
            slack_us: slack,
            iterations: preset.iterations,
            warmup: preset.warmup,
            mode: PlacementMode::Static,
            seed: seeds::fig13(degree, slack),
        };
        let stat = run_sor(&params, base);
        let dynamic = run_sor(
            &params,
            SorRun {
                mode: PlacementMode::Dynamic,
                ..base
            },
        );
        Fig13Cell {
            degree,
            slack_us: slack,
            last_proc_depth: dynamic.releasing_depth.mean(),
            sync_speedup: stat.sync_delay.mean() / dynamic.sync_delay.mean(),
        }
    });
    Fig13Result {
        cells,
        preset: preset.clone(),
    }
}

impl Fig13Result {
    /// Looks up one cell.
    pub fn cell(&self, degree: u32, slack_us: f64) -> &Fig13Cell {
        self.cells
            .iter()
            .find(|c| c.degree == degree && c.slack_us == slack_us)
            .expect("cell exists")
    }

    /// Renders the paper-style table (one block per degree).
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = vec!["metric".into()];
        headers.extend(
            self.preset
                .slacks_us
                .iter()
                .map(|s| format!("{:.2}ms", s / 1000.0)),
        );
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut out = String::new();
        for &degree in &self.preset.degrees {
            let mut t = Table::new(
                format!(
                    "Figure 13: dynamic placement on modelled KSR1, degree {degree} (d_y = {})",
                    self.preset.dy
                ),
                &hdr_refs,
            );
            let mut depth = vec!["Last Proc Depth".to_string()];
            let mut speedup = vec!["Sync. Speedup".to_string()];
            for &s in &self.preset.slacks_us {
                let c = self.cell(degree, s);
                depth.push(format!("{:.2}", c.last_proc_depth));
                speedup.push(format!("{:.2}", c.sync_speedup));
            }
            t.row(depth);
            t.row(speedup);
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

/// Correlation ablation for Figure 13: how much of the dynamic
/// placement speedup survives when ring contention is *shared* (as on
/// real hardware) rather than independent? Our fig13 speedups overshoot
/// the paper's; shared contention is the suspected cause (see
/// EXPERIMENTS.md).
pub fn run_fig13_correlation(
    rhos: &[f64],
    slack_us: f64,
    iterations: usize,
) -> Vec<(f64, f64, f64)> {
    let params = KsrParams::default();
    Sweep::new(seeds::BASE, rhos.to_vec()).run(|cell| {
        let &rho = cell.param;
        let run_mode = |mode| {
            let topo = ring_topology(&params, 2);
            let mut work = SorWork::new(params.clone(), 60, 210, seeds::fig13_correlation(rho))
                .with_ring_correlation(rho);
            run_iterations(
                &topo,
                &iterate_cfg(&params, slack_us, iterations, 10, mode),
                &mut work,
            )
        };
        let stat = run_mode(PlacementMode::Static);
        let dynamic = run_mode(PlacementMode::Dynamic);
        (
            rho,
            stat.sync_delay.mean() / dynamic.sync_delay.mean(),
            dynamic.releasing_depth.mean(),
        )
    })
}

/// Renders the correlation ablation.
pub fn render_fig13_correlation(rows: &[(f64, f64, f64)], slack_us: f64) -> String {
    let mut t = Table::new(
        format!(
            "Ablation: Figure 13 speedup vs ring-contention correlation (degree 2, slack {:.1} ms)",
            slack_us / 1000.0
        ),
        &["ring corr ρ", "dynamic speedup", "last-proc depth"],
    );
    for &(rho, speedup, depth) in rows {
        t.row(vec![
            format!("{rho:.1}"),
            format!("{speedup:.2}"),
            format!("{depth:.2}"),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_optimal_degree_grows_with_dy() {
        let preset = Fig12 {
            dy: vec![30, 840],
            degrees: vec![2, 4, 8, 16, 32, 56],
            iterations: 60,
            warmup: 5,
        };
        let res = run_fig12(&preset);
        assert!(res.rows[0].sigma_us < res.rows[1].sigma_us);
        assert!(
            res.rows[1].optimal_degree >= res.rows[0].optimal_degree,
            "optimal degree should not shrink: {} then {}",
            res.rows[0].optimal_degree,
            res.rows[1].optimal_degree
        );
        assert!(res.rows[1].speedup_vs_4 >= 0.95);
    }

    #[test]
    fn fig13_slack_improves_dynamic_placement() {
        let preset = Fig13 {
            slacks_us: vec![0.0, 2_000.0],
            degrees: vec![2],
            iterations: 80,
            warmup: 10,
            ..Fig13::default()
        };
        let res = run_fig13(&preset);
        let none = res.cell(2, 0.0);
        let ample = res.cell(2, 2_000.0);
        assert!(
            ample.last_proc_depth < none.last_proc_depth,
            "depth {} vs {}",
            ample.last_proc_depth,
            none.last_proc_depth
        );
        assert!(ample.sync_speedup > 1.1, "speedup {}", ample.sync_speedup);
    }

    /// Finding (see EXPERIMENTS.md): shared ring contention does *not*
    /// collapse dynamic placement's benefit — the within-ring ordering
    /// that placement predicts is carried by the private component, and
    /// with total σ held fixed, sharing variance across a ring slightly
    /// *shrinks* the private spread, mildly helping prediction. The
    /// test pins that the speedup stays real and within a moderate band
    /// of the independent case.
    #[test]
    fn correlation_does_not_collapse_the_speedup() {
        let rows = run_fig13_correlation(&[0.0, 0.9], 2_000.0, 80);
        let (_, s0, _) = rows[0];
        let (_, s9, _) = rows[1];
        assert!(s0 > 1.2, "baseline speedup should be real ({s0})");
        assert!(
            s9 > s0 * 0.7 && s9 < s0 * 1.5,
            "ρ=0.9 speedup {s9} should stay near ρ=0's {s0}"
        );
    }

    #[test]
    fn renders_contain_paper_rows() {
        let res = run_fig12(&Fig12 {
            dy: vec![210],
            degrees: vec![4, 16],
            iterations: 30,
            warmup: 5,
        });
        assert!(res.render().contains("210"));
        let res13 = run_fig13(&Fig13 {
            slacks_us: vec![0.0],
            degrees: vec![4],
            iterations: 30,
            warmup: 5,
            ..Fig13::default()
        });
        assert!(res13.render().contains("Last Proc Depth"));
    }
}
