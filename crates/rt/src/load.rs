//! Deterministic load harness for the async epoch runtime
//! ([`crate::asyncb`]): many logical participants, few drivers,
//! σ-imbalanced per-epoch work.
//!
//! The paper's subject is what load imbalance does to a barrier; this
//! harness is that experiment restated for the async runtime. Every
//! participant does a deterministic, seeded amount of busy work before
//! each arrival — per-(participant, epoch) draws from an approximate
//! normal with relative spread [`LoadConfig::sigma`] — then crosses the
//! shared [`AsyncBarrier`]. With `p` in the hundreds of thousands and
//! a single-digit driver count, the run exercises exactly the regime
//! the runtime exists for: arrival combining through shards, one root
//! decision per epoch, and batched wakeup fan-out, all while the OS
//! sees only [`LoadConfig::drivers`] runnable threads.
//!
//! Everything is seeded and hash-derived (no RNG state shared between
//! participants), so a run is reproducible bit-for-bit across driver
//! counts: the *work schedule* ([`combar_work::work_iters`]) is a pure
//! function of `(seed, tid, epoch)`. It is a library function rather
//! than a test body so the `async_load` acceptance tiers share one
//! loop.

use std::time::{Duration, Instant};

use crate::{AsyncBarrier, Deadline, Executor};
use combar_work::{busy_work, work_iters};

/// Shape of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Logical participants (each one spawned task + one barrier seat).
    pub participants: u32,
    /// Arrival shards in the barrier's combining layer.
    pub shards: u32,
    /// Driver OS threads multiplexing the participants.
    pub drivers: usize,
    /// Epochs every participant crosses.
    pub episodes: u32,
    /// Mean busy-work iterations per participant per epoch.
    pub work_mean: u32,
    /// Relative imbalance: the per-(participant, epoch) work draw has
    /// standard deviation `sigma · work_mean` (clamped at zero).
    pub sigma: f64,
    /// Seed for the deterministic work schedule.
    pub seed: u64,
    /// Record wakeup-batch latency (one clock pair per release batch).
    pub record_latency: bool,
    /// How long the executor may take to drain after the last spawn.
    pub idle_budget: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            participants: 1024,
            shards: 8,
            drivers: 4,
            episodes: 20,
            work_mean: 32,
            sigma: 0.5,
            seed: 0xa57c_10ad,
            record_latency: false,
            idle_budget: Duration::from_secs(240),
        }
    }
}

/// Outcome of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// The configuration driven.
    pub cfg: LoadConfig,
    /// Wall-clock time from first spawn to executor drain.
    pub elapsed: Duration,
    /// Barrier epochs completed per second.
    pub epochs_per_sec: f64,
    /// Individual crossings (participants × episodes) per second.
    pub crossings_per_sec: f64,
    /// `(p50, p95, p99)` wakeup-batch latency in nanoseconds, when
    /// recording was enabled.
    pub wake_latency_ns: Option<(u64, u64, u64)>,
    /// The barrier's final epoch (equals `episodes` on a clean run).
    pub final_epoch: u32,
}

/// Runs the configured load to completion and reports.
///
/// # Panics
///
/// Panics when the run is not clean: a participant task panicked, the
/// barrier poisoned, the executor failed to drain within
/// [`LoadConfig::idle_budget`], or the final epoch is not exactly
/// [`LoadConfig::episodes`] (every epoch released exactly once).
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let b = AsyncBarrier::new(cfg.participants, cfg.shards);
    if cfg.record_latency {
        b.record_wake_latency();
    }
    let exec = Executor::new(cfg.drivers);
    let started = Instant::now();
    for tid in 0..cfg.participants {
        let b = b.clone();
        let cfg = *cfg;
        exec.spawn(async move {
            let mut w = b.waiter_for(tid);
            for e in 0..cfg.episodes {
                busy_work(work_iters(cfg.seed, tid, e, cfg.work_mean, cfg.sigma));
                w.wait_async().await.unwrap();
            }
        });
    }
    assert!(
        exec.wait_idle(Deadline::after(cfg.idle_budget)),
        "load run failed to drain within {:?} (epoch {} of {}, {} tasks live)",
        cfg.idle_budget,
        b.epoch(),
        cfg.episodes,
        exec.active(),
    );
    let elapsed = started.elapsed();
    assert_eq!(exec.panics(), 0, "participant task panicked");
    assert!(!b.is_poisoned(), "load run poisoned the barrier");
    assert_eq!(
        b.epoch(),
        cfg.episodes,
        "exactly one release per episode expected"
    );
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    LoadReport {
        cfg: *cfg,
        elapsed,
        epochs_per_sec: f64::from(cfg.episodes) / secs,
        crossings_per_sec: f64::from(cfg.episodes) * f64::from(cfg.participants) / secs,
        wake_latency_ns: b.wake_latency_percentiles(),
        final_epoch: b.epoch(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_schedule_is_deterministic_and_imbalanced() {
        let a = work_iters(7, 3, 5, 1000, 0.5);
        let b = work_iters(7, 3, 5, 1000, 0.5);
        assert_eq!(a, b, "pure in (seed, tid, epoch)");
        assert_ne!(
            work_iters(7, 3, 5, 1000, 0.5),
            work_iters(8, 3, 5, 1000, 0.5),
            "seed changes the draw"
        );
        assert_eq!(work_iters(7, 3, 5, 0, 0.5), 0, "zero mean is zero work");
        // σ = 0 collapses to the mean; σ > 0 actually spreads.
        let flat: Vec<u32> = (0..64).map(|t| work_iters(7, t, 0, 1000, 0.0)).collect();
        assert!(flat.iter().all(|&w| w == 1000));
        let spread: Vec<u32> = (0..64).map(|t| work_iters(7, t, 0, 1000, 0.5)).collect();
        let lo = *spread.iter().min().unwrap();
        let hi = *spread.iter().max().unwrap();
        assert!(lo < 1000 && hi > 1000, "spread [{lo}, {hi}] straddles mean");
        let mean = spread.iter().map(|&w| u64::from(w)).sum::<u64>() / 64;
        assert!((700..=1300).contains(&mean), "mean {mean} near nominal");
    }

    /// Frozen-seed equivalence across the `combar-work` fold: these
    /// values were produced by the pre-refactor in-crate `work_iters`
    /// (splitmix Irwin–Hall) and must never change — the `async`
    /// experiment's snapshot and the `COMBAR_THREADS` determinism
    /// checks both assume the work schedule is stable across
    /// refactors.
    #[test]
    #[allow(clippy::type_complexity)]
    fn work_schedule_matches_pre_refactor_frozen_values() {
        let cases: [((u64, u32, u32, u32, f64), u32); 7] = [
            ((0xa57c_10ad, 0, 0, 32, 0.5), 24),
            ((0xa57c_10ad, 1, 0, 32, 0.5), 41),
            ((0xa57c_10ad, 999_999, 99, 32, 0.5), 62),
            ((0xa57c_10ad, 12345, 7, 1000, 1.0), 883),
            ((0x1995_1ccc, 0, 0, 64, 0.25), 70),
            ((0x1995_1ccc, 65535, 5, 64, 0.25), 71),
            ((7, 3, 5, 1000, 0.5), 1976),
        ];
        for ((seed, tid, epoch, mean, sigma), want) in cases {
            assert_eq!(
                work_iters(seed, tid, epoch, mean, sigma),
                want,
                "work_iters({seed:#x}, {tid}, {epoch}, {mean}, {sigma})"
            );
        }
    }

    #[test]
    fn small_load_run_reports_cleanly() {
        let cfg = LoadConfig {
            participants: 256,
            shards: 4,
            drivers: 2,
            episodes: 10,
            work_mean: 16,
            sigma: 1.0,
            record_latency: true,
            ..LoadConfig::default()
        };
        let r = run_load(&cfg);
        assert_eq!(r.final_epoch, 10);
        assert!(r.epochs_per_sec > 0.0);
        assert!(r.crossings_per_sec >= r.epochs_per_sec);
        let (p50, p95, p99) = r.wake_latency_ns.expect("latency recorded");
        assert!(p50 <= p95 && p95 <= p99);
    }
}
