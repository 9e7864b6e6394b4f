//! Barrier-family shoot-out across load imbalance (beyond the paper).
//!
//! The paper compares combining-tree degrees against each other; the
//! wider literature also offers counter-free barriers (dissemination)
//! whose critical path is `⌈log₂ p⌉` messages independent of arrival
//! spread. This experiment lines up, per σ:
//!
//! * the flat counter (optimal at extreme imbalance),
//! * the classical degree-4 tree,
//! * the σ-optimal tree (the paper's contribution),
//! * the dissemination barrier (with `t_msg = t_c`).
//!
//! The crossover structure answers "when is any combining tree worth
//! it at all?"

use crate::experiments::{seeds, Rendered};
use crate::table::{fmt_us, Table};
use combar::presets::TC_US;
use combar_des::Duration;
use combar_exec::Sweep;
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{
    default_degree_sweep, mean_dissemination_delay, optimal_degree, sweep_degrees, SweepConfig,
    TreeStyle,
};

/// One σ row of the shoot-out.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Arrival spread in t_c units.
    pub sigma_tc: f64,
    /// Flat single-counter delay (µs).
    pub flat_us: f64,
    /// Degree-4 tree delay (µs).
    pub degree4_us: f64,
    /// σ-optimal tree delay (µs) and its degree.
    pub optimal_us: f64,
    /// The optimal degree.
    pub optimal_degree: u32,
    /// Dissemination delay (µs).
    pub dissemination_us: f64,
}

/// Runs the shoot-out at `p` processors. Each σ row is independently
/// seeded (by `p` alone, fresh per row), so the axis evaluates as a
/// parallel [`Sweep`].
pub fn run(p: u32, sigma_tcs: &[f64], reps: usize) -> Vec<BaselineRow> {
    let degrees = default_degree_sweep(p);
    Sweep::new(seeds::BASE, sigma_tcs.to_vec()).run(|cell| {
        let &sigma_tc = cell.param;
        let sigma_us = sigma_tc * TC_US;
        let cfg = SweepConfig {
            tc: Duration::from_us(TC_US),
            sigma_us,
            reps,
            seed: seeds::baseline(p),
            style: TreeStyle::Combining,
        };
        let swept = sweep_degrees(p, &degrees, &cfg);
        let best = optimal_degree(&swept);
        let four = swept.iter().find(|r| r.degree == 4).expect("4 in sweep");
        let flat = swept.iter().find(|r| r.degree == p).expect("p in sweep");
        let mut rng = Xoshiro256pp::seed_from_u64(seeds::dissemination(p));
        let diss = mean_dissemination_delay(
            p as usize,
            sigma_us,
            TC_US,
            if sigma_us == 0.0 { 1 } else { reps },
            &mut rng,
        );
        BaselineRow {
            sigma_tc,
            flat_us: flat.sync_delay.mean(),
            degree4_us: four.sync_delay.mean(),
            optimal_us: best.sync_delay.mean(),
            optimal_degree: best.degree,
            dissemination_us: diss.mean(),
        }
    })
}

/// Renders the table.
pub fn render(rows: &[BaselineRow], p: u32) -> String {
    let mut t = Table::new(
        format!("Baselines: barrier families vs imbalance ({p} procs, t_msg = t_c)"),
        &[
            "σ/tc",
            "flat",
            "degree 4",
            "optimal tree",
            "opt d",
            "dissemination",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{}", r.sigma_tc),
            fmt_us(r.flat_us),
            fmt_us(r.degree4_us),
            fmt_us(r.optimal_us),
            r.optimal_degree.to_string(),
            fmt_us(r.dissemination_us),
        ]);
    }
    t.render()
}

/// The `baselines` experiment: 1024 processors × 20 replications, or
/// 256 × 8 under `--quick`.
pub fn rendered(quick: bool) -> Rendered {
    let (p, reps) = if quick { (256, 8) } else { (1024, 20) };
    let rows = run(p, &[0.0, 1.6, 6.2, 12.5, 25.0, 50.0, 100.0], reps);
    Rendered::table(render(&rows, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expected crossover structure at 256 processors:
    /// * σ = 0 — dissemination (log₂ p messages, no contention) beats
    ///   every counter tree;
    /// * large σ — the optimal (≈flat) tree beats dissemination, whose
    ///   log₂ p path cannot shrink.
    #[test]
    fn crossover_structure_holds() {
        let rows = run(256, &[0.0, 100.0], 12);
        let quiet = &rows[0];
        let busy = &rows[1];
        assert!(
            quiet.dissemination_us < quiet.degree4_us,
            "σ=0: dissemination {} vs degree4 {}",
            quiet.dissemination_us,
            quiet.degree4_us
        );
        assert!(
            busy.optimal_us < busy.dissemination_us,
            "σ=100tc: optimal {} vs dissemination {}",
            busy.optimal_us,
            busy.dissemination_us
        );
        // flat is terrible quiet, great busy
        assert!(quiet.flat_us > 10.0 * quiet.degree4_us);
        assert!(busy.flat_us <= busy.degree4_us);
    }

    #[test]
    fn dissemination_is_flat_across_sigma() {
        let rows = run(64, &[0.0, 50.0], 10);
        let ratio = rows[1].dissemination_us / rows[0].dissemination_us;
        assert!((0.8..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn render_includes_all_families() {
        let rows = run(64, &[6.2], 5);
        let s = render(&rows, 64);
        for needle in ["flat", "degree 4", "optimal tree", "dissemination"] {
            assert!(s.contains(needle));
        }
    }
}
