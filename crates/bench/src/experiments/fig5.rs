//! Figure 5 (reconstructed from the Section 5 text): persistence of
//! processor arrival order across iterations under fuzzy-barrier slack.
//!
//! The OCR lost the figure itself, but the text is explicit: with
//! slack, processors that are slow "remain significantly slower for the
//! next 20 iterations", and "a dynamic placement scheme is feasible
//! with fuzzy barriers when the slack is larger than the distribution
//! of processors after one iteration". We measure two persistence
//! statistics per slack value:
//!
//! * Spearman rank correlation between arrival orders `lag` iterations
//!   apart (averaged over the run);
//! * probability that the last processor is still in the slowest decile
//!   `lag` iterations later.

use crate::experiments::seeds;
use crate::table::Table;
use combar::presets::Fig5;
use combar_des::Duration;
use combar_rng::stats::{spearman, OnlineStats};
use combar_sim::{run_iterations, IterateConfig, PlacementMode, Topology, Workload};

/// Persistence at one (slack, lag) point.
#[derive(Debug, Clone)]
pub struct PersistenceCell {
    /// Fuzzy slack (µs).
    pub slack_us: f64,
    /// Iteration lag.
    pub lag: usize,
    /// Mean Spearman rank correlation of arrival orders.
    pub rank_corr: f64,
    /// P(last processor still in slowest decile after `lag`).
    pub last_in_decile: f64,
}

/// Full Figure 5 result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// All (slack × lag) cells.
    pub cells: Vec<PersistenceCell>,
    /// The preset used.
    pub preset: Fig5,
}

/// Runs the persistence experiment. Each slack value is an independent
/// chained run — its seed depends only on the slack — so the axis
/// evaluates as a parallel [`Sweep`](combar_exec::Sweep); the lag
/// analysis of each run stays inside its cell.
pub fn run(preset: &Fig5) -> Fig5Result {
    let topo = Topology::mcs(preset.p, 4);
    let cells: Vec<Vec<PersistenceCell>> = preset.sweep().run(|cell| {
        let &slack = cell.param;
        let cfg = IterateConfig {
            tc: Duration::from_us(combar::presets::TC_US),
            slack: Duration::from_us(slack),
            iterations: preset.iterations,
            warmup: 10,
            mode: PlacementMode::Static,
            record_arrivals: true,
            release_model: combar_sim::ReleaseModel::CentralFlag,
        };
        let mut workload =
            Workload::iid_normal(preset.work_mean_us, preset.sigma_us, seeds::fig5(slack));
        let rep = run_iterations(&topo, &cfg, &mut workload);

        preset
            .lags
            .iter()
            .map(|&lag| {
                let mut corr = OnlineStats::new();
                let mut hits = 0usize;
                let mut total = 0usize;
                let decile = (preset.p as usize).div_ceil(10);
                for k in 0..rep.arrivals.len().saturating_sub(lag) {
                    corr.push(spearman(&rep.arrivals[k], &rep.arrivals[k + lag]));
                    // was iteration k's last arriver still in the
                    // slowest decile at k+lag?
                    let last = rep.last_arrivers[k] as usize;
                    let future = &rep.arrivals[k + lag];
                    let mut slower = 0usize;
                    for &a in future.iter() {
                        if a > future[last] {
                            slower += 1;
                        }
                    }
                    if slower < decile {
                        hits += 1;
                    }
                    total += 1;
                }
                PersistenceCell {
                    slack_us: slack,
                    lag,
                    rank_corr: corr.mean(),
                    last_in_decile: hits as f64 / total.max(1) as f64,
                }
            })
            .collect()
    });
    Fig5Result {
        cells: cells.into_iter().flatten().collect(),
        preset: preset.clone(),
    }
}

impl Fig5Result {
    /// Looks up one cell.
    pub fn cell(&self, slack_us: f64, lag: usize) -> &PersistenceCell {
        self.cells
            .iter()
            .find(|c| c.slack_us == slack_us && c.lag == lag)
            .expect("cell exists")
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = vec!["slack".into()];
        for &lag in &self.preset.lags {
            headers.push(format!("ρ@lag{lag}"));
            headers.push(format!("P(decile)@{lag}"));
        }
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            format!(
                "Figure 5 (reconstructed): arrival-order persistence ({} procs, σ = {} µs)",
                self.preset.p, self.preset.sigma_us
            ),
            &hdr_refs,
        );
        for &slack in &self.preset.slacks_us {
            let mut row = vec![format!("{:.1}ms", slack / 1000.0)];
            for &lag in &self.preset.lags {
                let c = self.cell(slack, lag);
                row.push(format!("{:.2}", c.rank_corr));
                row.push(format!("{:.2}", c.last_in_decile));
            }
            t.row(row);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_preset() -> Fig5 {
        Fig5 {
            p: 256,
            slacks_us: vec![0.0, 2_000.0],
            lags: vec![1, 5],
            iterations: 50,
            ..Fig5::default()
        }
    }

    /// The Section 5 claim: persistence requires slack larger than the
    /// arrival spread.
    #[test]
    fn slack_creates_persistence() {
        let res = run(&small_preset());
        let none = res.cell(0.0, 1);
        let ample = res.cell(2_000.0, 1);
        assert!(none.rank_corr < 0.3, "no-slack ρ = {}", none.rank_corr);
        assert!(ample.rank_corr > 0.6, "slack ρ = {}", ample.rank_corr);
        assert!(ample.last_in_decile > none.last_in_decile);
    }

    /// Persistence decays with lag but survives several iterations
    /// under ample slack.
    #[test]
    fn persistence_decays_with_lag() {
        let res = run(&small_preset());
        let l1 = res.cell(2_000.0, 1);
        let l5 = res.cell(2_000.0, 5);
        assert!(l1.rank_corr >= l5.rank_corr - 0.05);
        assert!(l5.rank_corr > 0.2, "lag-5 ρ = {}", l5.rank_corr);
    }

    #[test]
    fn render_has_one_row_per_slack() {
        let res = run(&small_preset());
        let s = res.render();
        assert!(s.contains("0.0ms") && s.contains("2.0ms"));
    }
}
