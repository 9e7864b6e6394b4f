//! Section 4's side experiment: combining trees vs Mellor-Crummey &
//! Scott owner trees.
//!
//! The paper: "we noticed performance improvements of 5%, on average,
//! for all combining trees with an optimal degree of four. However,
//! this performance improvement vanishes when the optimal degree is
//! larger than four" — because the fraction of processors attached
//! above the leaves shrinks with the degree.

use crate::experiments::{seeds, Rendered};
use crate::table::{fmt_ratio, fmt_us, Table};
use combar::presets::TC_US;
use combar_des::Duration;
use combar_exec::par_map;
use combar_sim::{sweep_degrees, SweepConfig, TreeStyle};

/// One degree's comparison.
#[derive(Debug, Clone)]
pub struct McsRow {
    /// Tree degree.
    pub degree: u32,
    /// Combining-tree mean delay (µs).
    pub combining_us: f64,
    /// MCS owner-tree mean delay (µs).
    pub mcs_us: f64,
    /// `combining / mcs` — above 1 when MCS wins.
    pub mcs_advantage: f64,
}

/// Result of the comparison.
#[derive(Debug, Clone)]
pub struct McsResult {
    /// Per-degree rows.
    pub rows: Vec<McsRow>,
    /// Processor count.
    pub p: u32,
    /// σ in µs.
    pub sigma_us: f64,
}

/// Runs the comparison at `p` processors and spread `sigma_us` over the
/// given degrees. The two tree styles share one seed (paired
/// comparison) and evaluate in parallel via [`par_map`].
pub fn run(p: u32, sigma_us: f64, degrees: &[u32], reps: usize) -> McsResult {
    let base = SweepConfig {
        tc: Duration::from_us(TC_US),
        sigma_us,
        reps,
        seed: seeds::mcs(),
        style: TreeStyle::Combining,
    };
    let styles = [TreeStyle::Combining, TreeStyle::Mcs];
    let mut swept = par_map(&styles, |&style| {
        sweep_degrees(
            p,
            degrees,
            &SweepConfig {
                style,
                ..base.clone()
            },
        )
    });
    let mcs = swept.pop().expect("two styles");
    let comb = swept.pop().expect("two styles");
    let rows = comb
        .iter()
        .zip(&mcs)
        .map(|(c, m)| McsRow {
            degree: c.degree,
            combining_us: c.sync_delay.mean(),
            mcs_us: m.sync_delay.mean(),
            mcs_advantage: c.sync_delay.mean() / m.sync_delay.mean(),
        })
        .collect();
    McsResult { rows, p, sigma_us }
}

impl McsResult {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Section 4: combining vs MCS owner trees ({} procs, σ = {} µs)",
                self.p, self.sigma_us
            ),
            &["degree", "combining", "MCS", "MCS advantage"],
        );
        for r in &self.rows {
            t.row(vec![
                r.degree.to_string(),
                fmt_us(r.combining_us),
                fmt_us(r.mcs_us),
                fmt_ratio(r.mcs_advantage),
            ]);
        }
        t.render()
    }
}

/// The `sec4-mcs` experiment: 4096 processors × 20 replications, or
/// 256 × 10 under `--quick`.
pub fn rendered(quick: bool) -> Rendered {
    let (p, reps) = if quick { (256, 10) } else { (4096, 20) };
    Rendered::table(run(p, 250.0, &[2, 4, 8, 16, 64], reps).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MCS wins at small degrees (owners sit above the leaves) and the
    /// advantage shrinks as the degree grows, as the paper reports.
    #[test]
    fn mcs_advantage_shrinks_with_degree() {
        let res = run(4096, 0.0, &[2, 4, 16, 64], 1);
        let small = res.rows.iter().find(|r| r.degree == 4).unwrap();
        let large = res.rows.iter().find(|r| r.degree == 64).unwrap();
        assert!(
            small.mcs_advantage >= large.mcs_advantage - 0.02,
            "advantage should shrink: d4 {} vs d64 {}",
            small.mcs_advantage,
            large.mcs_advantage
        );
        assert!(small.mcs_advantage > 1.0, "MCS should win at degree 4");
    }

    #[test]
    fn render_lists_all_degrees() {
        let res = run(256, 124.0, &[4, 16], 5);
        let s = res.render();
        assert!(s.contains("MCS advantage"));
        assert_eq!(res.rows.len(), 2);
    }
}
