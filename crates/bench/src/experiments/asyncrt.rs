//! Beyond-paper experiment: the async epoch runtime at logical scale —
//! the *real* [`combar_rt::AsyncBarrier`] driven by the in-tree
//! executor, rendered as schedule invariants.
//!
//! Unlike the virtual-time models in this directory, every cell here
//! executes the production runtime: `p` logical participants (parked
//! wakers) cross [`AsyncLoad::episodes`] epochs on a driver pool sized
//! by `COMBAR_THREADS` (via [`combar_exec::thread_count`]), each doing
//! its seeded σ-imbalanced busy work before arriving. The table still
//! diffs byte-identically across runs and thread counts because every
//! column is either a protocol invariant the runtime must deliver
//! regardless of scheduling (arrival totals, exactly-one-release-per-
//! epoch, no poison, full drain) or a pure function of the seeded work
//! schedule (total and straggler statistics from
//! [`combar_work::work_iters`]). The registry tests diff the rendering
//! across thread counts — a schedule-dependent byte anywhere is a
//! determinism regression.
//!
//! The wall-clock companion (epochs/s, wakeup-batch latency, the
//! parked-waker hand-off per layer) is the `async_64k` workload of
//! `benchmark/`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::experiments::seeds;
use crate::table::Table;
use combar::presets::AsyncLoad;
use combar_rt::{AsyncBarrier, Deadline, Executor};
use combar_work::{busy_work, work_iters};

/// One (participants, σ) cell's outcome.
#[derive(Debug, Clone)]
pub struct AsyncRow {
    /// Logical participants.
    pub p: u32,
    /// Relative work imbalance σ/mean.
    pub sigma: f64,
    /// Arrivals counted at run time; the contract demands exactly
    /// `p · episodes`.
    pub arrivals: u64,
    /// The barrier's final epoch (exactly `episodes` on a clean run).
    pub final_epoch: u32,
    /// Seats still live after the run (0: every crossing completed).
    pub live: u32,
    /// Whether the run poisoned the barrier.
    pub poisoned: bool,
    /// Total scheduled work iterations (pure function of the seed).
    pub work_total: u64,
    /// Straggler factor: mean over epochs of (slowest participant's
    /// work / mean work), the deterministic imbalance the σ knob buys.
    pub straggler: f64,
}

/// Everything the async experiment produces.
#[derive(Debug, Clone)]
pub struct AsyncResult {
    /// The grid shape.
    pub preset: AsyncLoad,
    /// One row per (participants, σ), participants-major.
    pub rows: Vec<AsyncRow>,
}

/// Deterministic schedule statistics: total iterations and the mean
/// per-epoch straggler factor, straight from the pure work function.
fn schedule_stats(seed: u64, p: u32, episodes: u32, mean: u32, sigma: f64) -> (u64, f64) {
    let mut total = 0u64;
    let mut straggler_sum = 0.0f64;
    for e in 0..episodes {
        let mut epoch_total = 0u64;
        let mut epoch_max = 0u64;
        for tid in 0..p {
            let w = u64::from(work_iters(seed, tid, e, mean, sigma));
            epoch_total += w;
            epoch_max = epoch_max.max(w);
        }
        total += epoch_total;
        let epoch_mean = epoch_total as f64 / f64::from(p);
        if epoch_mean > 0.0 {
            straggler_sum += epoch_max as f64 / epoch_mean;
        }
    }
    (total, straggler_sum / f64::from(episodes.max(1)))
}

fn cell(preset: &AsyncLoad, p: u32, sigma: f64) -> AsyncRow {
    let seed = seeds::async_load(p, sigma);
    let b = AsyncBarrier::new(p, preset.shards);
    let exec = Executor::new(combar_exec::thread_count());
    let arrivals = Arc::new(AtomicU64::new(0));
    for tid in 0..p {
        let b = b.clone();
        let arrivals = Arc::clone(&arrivals);
        let episodes = preset.episodes;
        let mean = preset.work_mean;
        exec.spawn(async move {
            let mut w = b.waiter_for(tid);
            for e in 0..episodes {
                busy_work(work_iters(seed, tid, e, mean, sigma));
                arrivals.fetch_add(1, Ordering::AcqRel);
                w.wait_async().await.unwrap();
            }
        });
    }
    let drained = exec.wait_idle(Deadline::after(Duration::from_secs(240)));
    assert!(drained, "async cell p={p} σ={sigma} failed to drain");
    assert_eq!(exec.panics(), 0, "async cell p={p} σ={sigma} panicked");
    let (work_total, straggler) = schedule_stats(seed, p, preset.episodes, preset.work_mean, sigma);
    AsyncRow {
        p,
        sigma,
        arrivals: arrivals.load(Ordering::Acquire),
        final_epoch: b.epoch(),
        live: b.live_count(),
        poisoned: b.is_poisoned(),
        work_total,
        straggler,
    }
}

/// Runs the grid, participants-major then σ.
pub fn run(preset: &AsyncLoad) -> AsyncResult {
    let mut rows = Vec::new();
    for &p in &preset.participants {
        for &sigma in &preset.sigmas {
            rows.push(cell(preset, p, sigma));
        }
    }
    AsyncResult {
        preset: preset.clone(),
        rows,
    }
}

impl AsyncResult {
    /// Renders the table.
    pub fn render(&self) -> String {
        let pr = &self.preset;
        let mut t = Table::new(
            format!(
                "async: logical-scale epoch runtime (shards={}, epochs={}, work mean={} iters; invariant columns, byte-stable under any COMBAR_THREADS)",
                pr.shards, pr.episodes, pr.work_mean
            ),
            &[
                "participants",
                "sigma",
                "arrivals",
                "epoch",
                "live",
                "poisoned",
                "work_iters",
                "straggler",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.p.to_string(),
                format!("{:.1}", r.sigma),
                r.arrivals.to_string(),
                r.final_epoch.to_string(),
                r.live.to_string(),
                r.poisoned.to_string(),
                r.work_total.to_string(),
                format!("{:.2}", r.straggler),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> AsyncResult {
        run(&AsyncLoad::quick())
    }

    #[test]
    fn rendering_is_deterministic_across_driver_counts() {
        let one = combar_exec::with_thread_count(1, || result().render());
        let two = combar_exec::with_thread_count(2, || result().render());
        assert_eq!(one, two, "driver count leaked into the table");
    }

    #[test]
    fn every_cell_satisfies_the_contract() {
        let res = result();
        assert_eq!(
            res.rows.len(),
            res.preset.participants.len() * res.preset.sigmas.len()
        );
        for r in &res.rows {
            assert_eq!(r.arrivals, u64::from(r.p) * u64::from(res.preset.episodes));
            assert_eq!(r.final_epoch, res.preset.episodes);
            assert_eq!(r.live, r.p, "no seat departed");
            assert!(!r.poisoned);
        }
    }

    #[test]
    fn sigma_buys_deterministic_imbalance() {
        let res = result();
        // Rows come sigma-minor: for each p, σ=0 then σ=1.
        for pair in res.rows.chunks(2) {
            let (flat, skewed) = (&pair[0], &pair[1]);
            assert_eq!(flat.sigma, 0.0);
            assert!((flat.straggler - 1.0).abs() < 1e-9, "σ=0 has no straggler");
            assert!(
                skewed.straggler > 1.2,
                "σ={} straggler {} too flat",
                skewed.sigma,
                skewed.straggler
            );
        }
    }
}
