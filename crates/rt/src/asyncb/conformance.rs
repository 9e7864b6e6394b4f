//! Conformance checks at *logical* scale.
//!
//! The threaded harness in [`crate::conformance`] spawns one OS thread
//! per participant, which caps honest p at the low hundreds. These
//! drivers express the same contracts — release-after-all-arrivals,
//! lockstep reuse, membership churn, the timeout/resume contract — as
//! tasks on the in-tree [`Executor`], so a 4096-participant cell runs
//! on four driver threads.
//!
//! The ordering check is O(1) per crossing instead of O(p): every
//! participant increments a shared arrival total *before* waiting, and
//! asserts `total ≥ (e + 1) · p` *after* episode `e` releases. A
//! premature release (any peer not yet arrived) makes the inequality
//! fail for whoever crossed early; p² stamp scans would drown a
//! 4096-seat debug run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{AsyncBarrier, Executor, Timer};
use crate::error::BarrierError;
use crate::spin::Deadline;

/// Shape of one logical-scale conformance cell.
#[derive(Debug, Clone, Copy)]
pub struct LogicalConfig {
    /// Logical participants.
    pub p: u32,
    /// Arrival shards.
    pub shards: u32,
    /// Driver OS threads.
    pub drivers: usize,
    /// Barrier episodes each participant crosses.
    pub episodes: u32,
}

impl LogicalConfig {
    /// A cell of `p` logical participants on 4 drivers / 4 shards.
    pub fn logical(p: u32, episodes: u32) -> Self {
        Self {
            p,
            shards: 4,
            drivers: 4,
            episodes,
        }
    }
}

const IDLE_BUDGET: Duration = Duration::from_secs(240);

fn drain(exec: &Executor, what: &str) {
    assert!(
        exec.wait_idle(Deadline::after(IDLE_BUDGET)),
        "{what}: executor failed to drain within {IDLE_BUDGET:?}"
    );
    assert_eq!(exec.panics(), 0, "{what}: task panicked");
}

/// Release-after-all-arrivals plus lockstep reuse, at logical scale.
///
/// # Panics
///
/// Panics when the contract is violated or the run fails to drain.
pub fn check_logical_contract(cfg: LogicalConfig) {
    let b = AsyncBarrier::new(cfg.p, cfg.shards);
    let exec = Executor::new(cfg.drivers);
    let arrivals = Arc::new(AtomicU64::new(0));
    for tid in 0..cfg.p {
        let b = b.clone();
        let arrivals = Arc::clone(&arrivals);
        let p = u64::from(cfg.p);
        let episodes = cfg.episodes;
        exec.spawn(async move {
            let mut w = b.waiter_for(tid);
            for e in 0..episodes {
                arrivals.fetch_add(1, Ordering::AcqRel);
                w.wait_async().await.unwrap();
                let seen = arrivals.load(Ordering::Acquire);
                assert!(
                    seen >= u64::from(e + 1) * p,
                    "tid {tid} released from episode {e} after only {seen} arrivals"
                );
            }
        });
    }
    drain(&exec, "logical contract");
    assert_eq!(b.epoch(), cfg.episodes, "exactly one release per episode");
    assert!(!b.is_poisoned());
}

/// Membership churn at logical scale: a quarter of the seats leave
/// mid-run and rejoin at the next boundary; every crossing still
/// releases and nothing wedges or poisons.
///
/// A rejoiner is not part of epochs it was absent from, so after the
/// churn point its epoch numbering may trail its peers by one —
/// sessions therefore end with a graceful [`AsyncWaiter::leave`](super::AsyncWaiter::leave)
/// (exactly how a real session ends), letting stragglers finish among
/// the shrinking membership instead of waiting on departed peers.
///
/// # Panics
///
/// Panics when a participant observes an error or the run fails to
/// drain.
pub fn check_logical_churn(cfg: LogicalConfig) {
    let b = AsyncBarrier::new(cfg.p, cfg.shards);
    let exec = Executor::new(cfg.drivers);
    let churn_at = cfg.episodes / 2;
    for tid in 0..cfg.p {
        let b = b.clone();
        let episodes = cfg.episodes;
        exec.spawn(async move {
            let mut w = b.waiter_for(tid);
            for e in 0..episodes {
                if e == churn_at && tid % 4 == 1 {
                    w.leave();
                    assert_eq!(
                        w.wait_async().await,
                        Err(BarrierError::Evicted),
                        "a departed seat must not cross"
                    );
                    assert_eq!(w.rejoin(), Ok(true));
                }
                w.wait_async().await.unwrap();
            }
            w.leave();
        });
    }
    drain(&exec, "logical churn");
    assert_eq!(b.live_count(), 0, "every session departed");
    assert!(b.epoch() >= cfg.episodes);
    assert!(!b.is_poisoned());
}

/// The timeout/resume contract at logical scale: one participant's
/// bounded wait times out (its deadline is its own, not a driver
/// thread's), the arrival stays registered, and the same episode
/// resumes and completes once the held-back peers arrive.
///
/// # Panics
///
/// Panics when the contract is violated or the run fails to drain.
pub fn check_logical_timeout(cfg: LogicalConfig) {
    let b = AsyncBarrier::new(cfg.p, cfg.shards);
    let exec = Executor::new(cfg.drivers);
    let timer = Timer::new();
    let timed_out = Arc::new(AtomicBool::new(false));
    for tid in 0..cfg.p {
        let b = b.clone();
        let timer = timer.clone();
        let timed_out = Arc::clone(&timed_out);
        let episodes = cfg.episodes;
        exec.spawn(async move {
            let mut w = b.waiter_for(tid);
            if tid == 0 {
                let short = Instant::now() + Duration::from_millis(10);
                assert_eq!(
                    w.wait_deadline(short, &timer).await,
                    Err(BarrierError::Timeout),
                    "peers are held back; the bounded wait must expire"
                );
                timed_out.store(true, Ordering::Release);
                let long = Instant::now() + IDLE_BUDGET;
                assert_eq!(
                    w.wait_deadline(long, &timer).await,
                    Ok(()),
                    "the timed-out arrival must resume the same episode"
                );
            } else {
                // Hold back until the timeout was observed, so the
                // short deadline reliably fires first.
                while !timed_out.load(Ordering::Acquire) {
                    timer.sleep(Duration::from_millis(2)).await;
                }
                w.wait_async().await.unwrap();
            }
            // Reuse after the stutter: ordinary episodes still work.
            for _ in 0..episodes.min(5) {
                w.wait_async().await.unwrap();
            }
        });
    }
    drain(&exec, "logical timeout");
    assert!(!b.is_poisoned());
}
