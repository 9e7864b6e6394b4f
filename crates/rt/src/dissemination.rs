//! The dissemination barrier (Hensgen/Finkel/Manber; also in
//! Mellor-Crummey & Scott).
//!
//! A literature baseline with no combining tree at all: in round `r`
//! each thread signals the thread `2^r` positions ahead (mod `p`) and
//! waits for the thread `2^r` behind, completing in `⌈log₂ p⌉` rounds
//! with no single hot location. Its critical path is `⌈log₂ p⌉`
//! regardless of arrival spread, which makes it a useful contrast to
//! the paper's adaptive-degree trees: it can never exploit imbalance
//! the way a wide tree does.
//!
//! Signalling uses per-slot episode numbers instead of sense flags:
//! slot `(r, i)` holds the episode in which thread `i` was signalled in
//! round `r`, so no reset phase is needed.
//!
//! # Fault model
//!
//! Waits can be bounded ([`DisseminationWaiter::wait_timeout`]) — the
//! waiter checkpoints its round and resumes where it stopped, and the
//! partner store is idempotent so re-running a round is safe. A waiter
//! dropped mid-episode poisons the barrier. **Eviction is structurally
//! impossible** here: every thread is a distinct signalling *source* in
//! every round, so a proxy would have to impersonate the dead thread's
//! entire future signal schedule — equivalent to rebuilding the barrier
//! with `p-1` threads. Use a counter-tree barrier where graceful
//! degradation is required.

use crate::error::BarrierError;
use crate::pad::CachePadded;
use crate::spin::wait_for_epoch_fallible;
use crate::sync::{AtomicU32, Ordering};
use combar_trace as trace;
use std::time::{Duration, Instant};

/// A dissemination barrier for `p` threads.
#[derive(Debug)]
pub struct DisseminationBarrier {
    /// `flags[r][i]`: episode number signalled to thread `i` in round
    /// `r`.
    flags: Vec<Vec<CachePadded<AtomicU32>>>,
    /// Last completed episode, recorded so waiters created between
    /// phases resume from the live count.
    episode_hint: CachePadded<AtomicU32>,
    poison: CachePadded<AtomicU32>,
    rounds: u32,
    p: u32,
}

impl DisseminationBarrier {
    /// Creates a barrier for `p` threads.
    ///
    /// Prefer building through [`crate::BarrierBuilder`] when a
    /// trait-object ([`crate::Barrier`]) surface, supervision, or a
    /// trace sink is wanted; the direct constructor stays for
    /// statically-typed embedding.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: u32) -> Self {
        assert!(p > 0, "barrier needs at least one thread");
        let rounds = if p == 1 { 0 } else { (p - 1).ilog2() + 1 };
        let flags = (0..rounds)
            .map(|_| {
                (0..p)
                    .map(|_| CachePadded::new(AtomicU32::new(0)))
                    .collect()
            })
            .collect();
        Self {
            flags,
            episode_hint: CachePadded::new(AtomicU32::new(0)),
            poison: CachePadded::new(AtomicU32::new(0)),
            rounds,
            p,
        }
    }

    /// Number of participating threads.
    pub fn threads(&self) -> u32 {
        self.p
    }

    /// Number of rounds, `⌈log₂ p⌉`.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Whether a participant died mid-episode, wedging the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire) != 0
    }

    /// Creates the per-thread handle for thread `tid`.
    ///
    /// Waiters may be created at any quiescent point (no episode in
    /// flight): they resume from the barrier's last completed episode,
    /// so the barrier survives reuse across thread-team phases.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn waiter(&self, tid: u32) -> DisseminationWaiter<'_> {
        assert!(tid < self.p, "thread id out of range");
        DisseminationWaiter {
            barrier: self,
            tid,
            episode: self.episode_hint.load(Ordering::Acquire),
            round: 0,
            mid: false,
        }
    }
}

/// Per-thread handle to a [`DisseminationBarrier`].
///
/// Dropping a waiter mid-episode poisons the barrier: peers receive
/// [`BarrierError::Poisoned`] instead of spinning forever.
#[derive(Debug)]
pub struct DisseminationWaiter<'a> {
    barrier: &'a DisseminationBarrier,
    tid: u32,
    episode: u32,
    /// Resume point for a timed-out episode.
    round: u32,
    /// Whether an episode is in flight (entered but not completed).
    mid: bool,
}

impl DisseminationWaiter<'_> {
    /// A full barrier episode.
    ///
    /// Dissemination has no separable signal/enforce split — every
    /// round interleaves both — so it implements only `wait` (no fuzzy
    /// variant; the paper's fuzzy discussion applies to counter trees).
    ///
    /// # Panics
    ///
    /// Panics if the barrier is (or becomes) poisoned.
    pub fn wait(&mut self) {
        if let Err(e) = self.wait_deadline(None) {
            panic!("barrier wait failed: {e}");
        }
    }

    /// A full barrier episode bounded by `timeout`.
    ///
    /// On [`BarrierError::Timeout`] the rounds already completed stay
    /// completed: call a wait method again to resume the same episode
    /// at the round that stalled. A timed-out waiter must not simply be
    /// dropped — that poisons the barrier; retry until release instead.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// Unbounded fallible full barrier: like [`Self::wait`] but
    /// returning poisoning as an error instead of panicking. Reads no
    /// clock, so schedules stay deterministic under the `combar-check`
    /// model checker.
    pub fn try_wait(&mut self) -> Result<(), BarrierError> {
        self.wait_deadline(None)
    }

    fn wait_deadline(&mut self, deadline: Option<Instant>) -> Result<(), BarrierError> {
        let b = self.barrier;
        if b.is_poisoned() {
            return Err(BarrierError::Poisoned);
        }
        if !self.mid {
            self.episode = self.episode.wrapping_add(1);
            self.round = 0;
            self.mid = true;
            trace::emit(self.episode, self.tid, trace::Kind::Arrive);
        }
        while self.round < b.rounds {
            let r = self.round as usize;
            let partner = (self.tid + (1 << self.round)) % b.p;
            trace::emit(
                self.episode,
                self.tid,
                trace::Kind::CombineStart(self.round),
            );
            // Idempotent on resume: re-storing the same episode is fine.
            b.flags[r][partner as usize].store(self.episode, Ordering::Release);
            wait_for_epoch_fallible(
                &b.flags[r][self.tid as usize],
                self.episode,
                &b.poison,
                deadline,
            )?;
            trace::emit(self.episode, self.tid, trace::Kind::CombineEnd(self.round));
            self.round += 1;
        }
        // Benign race: every thread stores the same value.
        b.episode_hint.store(self.episode, Ordering::Release);
        self.mid = false;
        trace::emit(self.episode, self.tid, trace::Kind::Release);
        Ok(())
    }

    /// This thread's id.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

impl Drop for DisseminationWaiter<'_> {
    fn drop(&mut self) {
        if self.mid {
            self.barrier.poison.store(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn rounds_are_ceil_log2() {
        assert_eq!(DisseminationBarrier::new(1).rounds(), 0);
        assert_eq!(DisseminationBarrier::new(2).rounds(), 1);
        assert_eq!(DisseminationBarrier::new(3).rounds(), 2);
        assert_eq!(DisseminationBarrier::new(4).rounds(), 2);
        assert_eq!(DisseminationBarrier::new(5).rounds(), 3);
        assert_eq!(DisseminationBarrier::new(8).rounds(), 3);
        assert_eq!(DisseminationBarrier::new(9).rounds(), 4);
    }

    #[test]
    fn lockstep_for_non_power_of_two() {
        for p in [2usize, 3, 5, 8] {
            let barrier = DisseminationBarrier::new(p as u32);
            let phases: Vec<AtomicU32> = (0..p).map(|_| AtomicU32::new(0)).collect();
            std::thread::scope(|s| {
                for tid in 0..p {
                    let barrier = &barrier;
                    let phases = &phases;
                    s.spawn(move || {
                        let mut w = barrier.waiter(tid as u32);
                        for e in 0..150u32 {
                            phases[tid].store(e + 1, Ordering::Release);
                            w.wait();
                            for q in phases {
                                let ph = q.load(Ordering::Acquire);
                                assert!(
                                    ph == e + 1 || ph == e + 2,
                                    "p={p} episode {e}: phase {ph}"
                                );
                            }
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn single_thread_never_blocks() {
        let b = DisseminationBarrier::new(1);
        let mut w = b.waiter(0);
        for _ in 0..10 {
            w.wait();
        }
    }

    #[test]
    fn timeout_resumes_at_the_stalled_round() {
        let b = DisseminationBarrier::new(2);
        let mut w0 = b.waiter(0);
        // Alone, thread 0 stalls in round 0 waiting on thread 1.
        assert_eq!(
            w0.wait_timeout(Duration::from_millis(2)),
            Err(BarrierError::Timeout)
        );
        // Partner completes its episode concurrently with the resume.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w1 = b.waiter(1);
                w1.wait_timeout(Duration::from_secs(2)).unwrap();
            });
            w0.wait_timeout(Duration::from_secs(2)).unwrap();
        });
    }

    #[test]
    fn dropping_mid_episode_poisons_peers() {
        let b = DisseminationBarrier::new(3);
        {
            let mut dying = b.waiter(0);
            let _ = dying.wait_timeout(Duration::from_millis(1));
        }
        assert!(b.is_poisoned());
        let mut peer = b.waiter(1);
        assert_eq!(
            peer.wait_timeout(Duration::from_secs(1)),
            Err(BarrierError::Poisoned)
        );
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn waiter_bounds_checked() {
        let b = DisseminationBarrier::new(2);
        let _ = b.waiter(2);
    }
}
