//! Fuzzy-barrier idle time vs slack (the companion-paper result the
//! paper leans on in Section 5).
//!
//! Eichenberger & Abraham's earlier study — reference \[13\] — showed
//! "the expected idle time at a fuzzy barrier is inversely proportional
//! to the slack time". Here the chained iteration simulator measures
//! mean idle per processor-iteration against the slack, alongside the
//! arrival-spread growth that makes dynamic placement's predictions
//! possible.

use crate::experiments::{seeds, Rendered};
use crate::table::Table;
use combar::presets::TC_US;
use combar_des::Duration;
use combar_exec::Sweep;
use combar_rng::stats::{mean, std_dev, OnlineStats};
use combar_rng::{Histogram, SeedableRng, Xoshiro256pp};
use combar_sim::{run_iterations, IterateConfig, PlacementMode, Topology, Workload};

/// One slack point.
#[derive(Debug, Clone)]
pub struct FuzzyIdleRow {
    /// Fuzzy slack (µs).
    pub slack_us: f64,
    /// Mean idle per processor-iteration at the enforce point (µs).
    pub idle_us: f64,
    /// Mean synchronization delay (µs).
    pub sync_us: f64,
    /// Steady-state arrival spread (µs) — grows with slack as the
    /// chained begin-times decouple from the release.
    pub spread_us: f64,
}

/// Result of the idle-vs-slack sweep.
#[derive(Debug, Clone)]
pub struct FuzzyIdleResult {
    /// One row per slack.
    pub rows: Vec<FuzzyIdleRow>,
    /// Processor count.
    pub p: u32,
    /// Per-iteration work-time σ (µs).
    pub sigma_us: f64,
    /// Steady-state arrival-offset histogram at the largest slack,
    /// centred on the per-iteration mean — shows the *asymmetric*
    /// distribution the paper describes ("a few processors being much
    /// slower than average").
    pub asymmetry: Histogram,
    /// Skewness of those offsets (> 0 confirms the right tail).
    pub skewness: f64,
}

/// Runs the sweep. Each slack value is an independent chained run (its
/// seed depends only on the slack), so the axis evaluates as a parallel
/// [`Sweep`]; the asymmetry histogram and skewness are folded from the
/// cells' standardized offsets in grid order afterwards, keeping the
/// result identical for any thread count.
pub fn run(p: u32, sigma_us: f64, slacks_us: &[f64], iterations: usize) -> FuzzyIdleResult {
    let topo = Topology::mcs(p, 4);
    let max_slack = slacks_us.iter().copied().fold(0.0f64, f64::max);
    let cells: Vec<(FuzzyIdleRow, Option<Vec<f64>>)> = Sweep::new(seeds::BASE, slacks_us.to_vec())
        .run(|cell| {
            let &slack = cell.param;
            let cfg = IterateConfig {
                tc: Duration::from_us(TC_US),
                slack: Duration::from_us(slack),
                iterations,
                warmup: 15,
                mode: PlacementMode::Static,
                record_arrivals: true,
                release_model: combar_sim::ReleaseModel::CentralFlag,
            };
            let mut w = combar_sim::Seeded::new(
                Workload::iid_normal(10.0 * sigma_us + 1_000.0, sigma_us),
                Xoshiro256pp::seed_from_u64(seeds::fuzzy_idle(slack)),
            );
            let rep = run_iterations(&topo, &cfg, &mut w);
            let mut spread = OnlineStats::new();
            for a in &rep.arrivals {
                spread.push(std_dev(a));
            }
            let offsets = (slack == max_slack).then(|| {
                // standardized arrival offsets for the asymmetry view
                let mut zs = Vec::new();
                for a in &rep.arrivals {
                    let m = mean(a);
                    let s = std_dev(a).max(1e-9);
                    zs.extend(a.iter().map(|&x| (x - m) / s));
                }
                zs
            });
            let row = FuzzyIdleRow {
                slack_us: slack,
                idle_us: rep.idle.mean(),
                sync_us: rep.sync_delay.mean(),
                spread_us: spread.mean(),
            };
            (row, offsets)
        });
    let mut rows = Vec::with_capacity(cells.len());
    let mut asymmetry = Histogram::new(-4.0, 8.0, 24);
    let mut skew_num = 0.0f64;
    let mut skew_den = 0.0f64;
    let mut skew_n = 0usize;
    for (row, offsets) in cells {
        if let Some(zs) = offsets {
            for z in zs {
                asymmetry.record(z);
                skew_num += z * z * z;
                skew_den += z * z;
                skew_n += 1;
            }
        }
        rows.push(row);
    }
    let skewness = if skew_n > 0 {
        (skew_num / skew_n as f64) / (skew_den / skew_n as f64).powf(1.5)
    } else {
        0.0
    };
    FuzzyIdleResult {
        rows,
        p,
        sigma_us,
        asymmetry,
        skewness,
    }
}

impl FuzzyIdleResult {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Fuzzy idle vs slack ({} procs, work σ = {} µs)",
                self.p, self.sigma_us
            ),
            &["slack µs", "idle µs", "sync delay µs", "arrival spread µs"],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{:.0}", r.slack_us),
                format!("{:.1}", r.idle_us),
                format!("{:.1}", r.sync_us),
                format!("{:.0}", r.spread_us),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "
arrival-offset distribution at the largest slack (σ-units; skewness {:+.2}):
{}",
            self.skewness,
            self.asymmetry.render(40)
        ));
        out
    }
}

/// The `fuzzy-idle` experiment: 1024 processors × 120 iterations, or
/// 256 × 60 under `--quick`.
pub fn rendered(quick: bool) -> Rendered {
    let (p, iters) = if quick { (256, 60) } else { (1024, 120) };
    let slacks = [0.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 16_000.0];
    Rendered::table(run(p, 250.0, &slacks, iters).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_falls_and_spread_grows_with_slack() {
        let res = run(128, 100.0, &[0.0, 400.0, 1_600.0], 60);
        let first = &res.rows[0];
        let last = res.rows.last().unwrap();
        assert!(
            last.idle_us < first.idle_us / 2.0,
            "{} vs {}",
            last.idle_us,
            first.idle_us
        );
        assert!(
            last.spread_us > first.spread_us,
            "spread should grow: {} vs {}",
            last.spread_us,
            first.spread_us
        );
    }

    #[test]
    fn render_has_one_row_per_slack() {
        let res = run(64, 50.0, &[0.0, 800.0], 40);
        assert_eq!(res.rows.len(), 2);
        assert!(res.render().contains("arrival spread"));
        assert!(res.render().contains("skewness"));
    }

    /// The paper: with fuzzy barriers, "processor arrival times are
    /// asymmetrically distributed with a few processors being much
    /// slower than average" — positive skewness at large slack.
    #[test]
    fn large_slack_arrivals_are_right_skewed() {
        let res = run(128, 100.0, &[0.0, 3_200.0], 80);
        assert!(res.skewness > 0.3, "skewness {}", res.skewness);
        assert!(res.asymmetry.total() > 0);
    }
}
