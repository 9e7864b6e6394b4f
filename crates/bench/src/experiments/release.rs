//! Release-broadcast cost (beyond the paper's delay definition).
//!
//! The paper measures synchronization delay up to the root counter's
//! final update and assumes an O(1) shared-flag release. A wakeup tree
//! (Mellor-Crummey & Scott's broadcast-free design) pays
//! `O(d · depth)` notifications instead but generates no hot flag. This
//! experiment makes the trade explicit: time from root completion until
//! the *last* processor is released, per topology and release model —
//! the term a degree-selection model would need on machines where flag
//! invalidation storms are not free.

use crate::experiments::{seeds, Rendered};
use crate::table::Table;
use combar::presets::TC_US;
use combar_des::Duration;
use combar_exec::Sweep;
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{normal_arrivals, run_episode_with, ReleaseModel, Topology};

/// One measurement.
#[derive(Debug, Clone)]
pub struct ReleaseRow {
    /// Processor count.
    pub p: u32,
    /// Tree degree.
    pub degree: u32,
    /// Broadcast completion time beyond the root update for a wakeup
    /// tree (µs; the central flag's is 0 by assumption).
    pub wakeup_extra_us: f64,
    /// Mean per-processor release lag under the wakeup tree (µs).
    pub wakeup_mean_lag_us: f64,
}

/// Runs the sweep. `notify_us` is the per-notification cost; the KSR1's
/// cache-line transfer is a reasonable anchor (a few µs). Each `(p, d)`
/// cell draws a fresh RNG seeded by `p` alone (the degree columns are a
/// paired comparison), so the grid evaluates as one parallel [`Sweep`].
pub fn run(procs: &[u32], degrees: &[u32], notify_us: f64, reps: usize) -> Vec<ReleaseRow> {
    Sweep::grid2(seeds::BASE, procs, degrees).run(|cell| {
        let &(p, d) = cell.param;
        let topo = Topology::mcs(p, d);
        let mut extra = 0.0;
        let mut mean_lag = 0.0;
        let mut rng = Xoshiro256pp::seed_from_u64(seeds::release(p));
        for _ in 0..reps {
            let arrivals = normal_arrivals(p as usize, 250.0, &mut rng);
            let r = run_episode_with(
                &topo,
                topo.homes(),
                &arrivals,
                Duration::from_us(TC_US),
                ReleaseModel::WakeupTree { notify_us },
            );
            extra += (r.last_release_us() - r.release_us) / reps as f64;
            let lag: f64 = r
                .release_per_proc_us
                .iter()
                .map(|&x| x - r.release_us)
                .sum::<f64>()
                / p as f64;
            mean_lag += lag / reps as f64;
        }
        ReleaseRow {
            p,
            degree: d,
            wakeup_extra_us: extra,
            wakeup_mean_lag_us: mean_lag,
        }
    })
}

/// Renders the table.
pub fn render(rows: &[ReleaseRow], notify_us: f64) -> String {
    let mut t = Table::new(
        format!("Release broadcast: wakeup tree vs ideal flag (notify = {notify_us} µs)"),
        &[
            "p",
            "degree",
            "last-release extra µs",
            "mean release lag µs",
        ],
    );
    for r in rows {
        t.row(vec![
            r.p.to_string(),
            r.degree.to_string(),
            format!("{:.1}", r.wakeup_extra_us),
            format!("{:.1}", r.wakeup_mean_lag_us),
        ]);
    }
    t.render()
}

/// The `release` experiment: 10 replications per cell, or 3 under
/// `--quick`.
pub fn rendered(quick: bool) -> Rendered {
    let reps = if quick { 3 } else { 10 };
    let rows = run(&[64, 256, 1024, 4096], &[2, 4, 16], 2.0, reps);
    Rendered::table(render(&rows, 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wakeup cost grows with p at fixed degree (deeper tree, more
    /// notifications on the longest chain) and narrower trees pay less
    /// per level but have more levels — both directions are visible.
    #[test]
    fn wakeup_cost_scales_with_tree_size() {
        let rows = run(&[64, 1024], &[4], 2.0, 3);
        assert!(rows[1].wakeup_extra_us > rows[0].wakeup_extra_us);
        for r in &rows {
            assert!(r.wakeup_extra_us > 0.0);
            assert!(r.wakeup_mean_lag_us > 0.0);
            assert!(r.wakeup_mean_lag_us <= r.wakeup_extra_us);
        }
    }

    /// The broadcast completes within the serialized bound
    /// `(notifications on the longest chain) · notify`, which is far
    /// below p·notify for a tree.
    #[test]
    fn wakeup_is_sublinear_in_p() {
        let rows = run(&[1024], &[4], 2.0, 2);
        let r = &rows[0];
        assert!(
            r.wakeup_extra_us < 1024.0 * 2.0 / 4.0,
            "extra {} should be far below p·notify",
            r.wakeup_extra_us
        );
    }

    #[test]
    fn render_contains_rows() {
        let rows = run(&[64], &[4, 16], 2.0, 2);
        let s = render(&rows, 2.0);
        assert!(s.contains("wakeup tree"));
        assert_eq!(rows.len(), 2);
    }
}
