//! Figure 8: the dynamic placement barrier at 4096 processors.
//!
//! For degrees 4 and 16 and slacks 0–16 ms, the paper reports three
//! rows: the average tree depth seen by the last (releasing) processor,
//! the synchronization speedup of dynamic over static placement, and
//! the communication overhead of the swaps.

use crate::experiments::seeds;
use crate::table::Table;
use combar::presets::{Fig8, TC_US};
use combar_des::Duration;
use combar_sim::{run_modes, IterateConfig, PlacementMode, Topology, Workload};

/// One (degree, slack) measurement.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    /// Tree degree.
    pub degree: u32,
    /// Fuzzy slack (µs).
    pub slack_us: f64,
    /// Mean depth of the releasing processor under dynamic placement.
    pub last_proc_depth: f64,
    /// Static placement's releasing depth (for reference).
    pub static_depth: f64,
    /// Synchronization speedup: static delay / dynamic delay.
    pub sync_speedup: f64,
    /// Communication overhead ratio of the dynamic scheme (≥ 1).
    pub comm_overhead: f64,
}

/// Full Figure 8 result.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// All (degree × slack) cells.
    pub cells: Vec<Fig8Cell>,
    /// The preset used.
    pub preset: Fig8,
}

/// Runs the Figure 8 experiment. Every `(degree, slack)` cell is
/// independently seeded, so the grid evaluates as one parallel
/// [`Sweep`](combar_exec::Sweep); inside a cell the static/dynamic
/// pair shares identical workload streams (paired comparison) via
/// [`run_modes`].
pub fn run(preset: &Fig8) -> Fig8Result {
    let cells = preset.sweep().run(|cell| {
        let &(degree, slack) = cell.param;
        let topo = Topology::mcs(preset.p, degree);
        let cfg = IterateConfig {
            tc: Duration::from_us(TC_US),
            slack: Duration::from_us(slack),
            iterations: preset.iterations,
            warmup: preset.warmup,
            mode: PlacementMode::Static,
            record_arrivals: false,
            release_model: combar_sim::ReleaseModel::CentralFlag,
        };
        let seed = seeds::fig8(degree, slack);
        let (stat, dynamic) = run_modes(&topo, &cfg, || {
            Workload::iid_normal(preset.work_mean_us, preset.sigma_us, seed)
        });

        Fig8Cell {
            degree,
            slack_us: slack,
            last_proc_depth: dynamic.releasing_depth.mean(),
            static_depth: stat.releasing_depth.mean(),
            sync_speedup: stat.sync_delay.mean() / dynamic.sync_delay.mean(),
            comm_overhead: dynamic.comm_overhead(),
        }
    });
    Fig8Result {
        cells,
        preset: preset.clone(),
    }
}

impl Fig8Result {
    /// Looks up one cell.
    pub fn cell(&self, degree: u32, slack_us: f64) -> &Fig8Cell {
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
                .map(|s| format!("{:.0}ms", s / 1000.0)),
        );
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut out = String::new();
        for &degree in &self.preset.degrees {
            let mut t = Table::new(
                format!(
                    "Figure 8: dynamic placement, degree {degree} ({} procs, σ = {} µs)",
                    self.preset.p, self.preset.sigma_us
                ),
                &hdr_refs,
            );
            let mut depth = vec!["Last Proc Depth".to_string()];
            let mut speedup = vec!["Sync. Speedup".to_string()];
            let mut comm = vec!["Comm. Overhead".to_string()];
            for &s in &self.preset.slacks_us {
                let c = self.cell(degree, s);
                depth.push(format!("{:.2}", c.last_proc_depth));
                speedup.push(format!("{:.2}", c.sync_speedup));
                comm.push(format!("{:.2}", c.comm_overhead));
            }
            t.row(depth);
            t.row(speedup);
            t.row(comm);
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_preset() -> Fig8 {
        Fig8 {
            p: 256,
            slacks_us: vec![0.0, 4_000.0],
            degrees: vec![4],
            iterations: 60,
            warmup: 10,
            ..Fig8::default()
        }
    }

    /// The paper's three headline trends: depth falls toward 1 with
    /// slack, speedup rises above 1, and dynamic placement is useless
    /// at slack 0.
    #[test]
    fn depth_falls_and_speedup_rises_with_slack() {
        let res = run(&small_preset());
        let none = res.cell(4, 0.0);
        let ample = res.cell(4, 4_000.0);
        assert!(
            ample.last_proc_depth < none.last_proc_depth,
            "depth {} vs {}",
            ample.last_proc_depth,
            none.last_proc_depth
        );
        assert!(
            ample.last_proc_depth < 2.0,
            "depth → 1, got {}",
            ample.last_proc_depth
        );
        assert!(ample.sync_speedup > 1.5, "speedup {}", ample.sync_speedup);
        assert!(
            (0.75..1.3).contains(&none.sync_speedup),
            "slack-0 speedup ≈ 1, got {}",
            none.sync_speedup
        );
    }

    /// Communication overhead is bounded by 1 + 1/(d+1) and shrinks as
    /// prediction stabilizes (fewer swaps with more slack).
    #[test]
    fn comm_overhead_bounded_and_shrinking() {
        let res = run(&small_preset());
        let none = res.cell(4, 0.0);
        let ample = res.cell(4, 4_000.0);
        let bound = 1.0 + 1.0 / 5.0;
        assert!(none.comm_overhead <= bound + 1e-9);
        assert!(ample.comm_overhead <= none.comm_overhead + 0.01);
        assert!(ample.comm_overhead >= 1.0);
    }

    #[test]
    fn render_contains_paper_row_names() {
        let res = run(&small_preset());
        let s = res.render();
        for name in ["Last Proc Depth", "Sync. Speedup", "Comm. Overhead"] {
            assert!(s.contains(name));
        }
    }
}
