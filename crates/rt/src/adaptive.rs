//! An adaptive-degree barrier.
//!
//! The paper closes Section 8 noting that its analytic model "indicates
//! the feasibility of barriers that would adapt their degree at run
//! time to minimize their synchronization delay". This module builds
//! that barrier: it measures the arrival-time spread σ̂ over a window of
//! episodes and switches between prebuilt combining trees of candidate
//! degrees according to a pluggable policy (the `combar` core crate
//! supplies the paper's analytic model as that policy).
//!
//! # Agreement without a leader
//!
//! All threads must use the *same* tree in every episode or the barrier
//! deadlocks. Instead of electing a reconfiguring leader, every thread
//! recomputes the decision independently from identical inputs:
//! arrival timestamps are written to per-thread slots, double-buffered
//! by window parity, so during window `w` every thread reads the
//! *complete, frozen* slots of window `w−1` (the final barrier of
//! window `w−1` orders all writes before any window-`w` read) and runs
//! the same deterministic float computation — hence every thread picks
//! the same tree.
//!
//! # Fault model
//!
//! Bounded waits ([`AdaptiveWaiter::wait_timeout`]), poisoning,
//! eviction, and detach are supported; both are applied to **every**
//! candidate tree, so proxies flow no matter which tree later windows
//! select. Each tree folds a detach into its shape at its *own* next
//! episode boundary — an idle candidate keeps the victim parked (and
//! proxy-covered) until a later window selects it, at which point its
//! first release applies the pending reconfiguration. Re-admission is
//! *not* supported: a rejoiner would have to reconcile the
//! pre-delivered proxy counts and per-tree shape epochs sitting in the
//! inactive trees, which cannot be done race-free without a
//! stop-the-world reconfiguration across all candidates. Rebuild the
//! barrier to re-admit a participant.

use crate::error::BarrierError;
use crate::heal::SelfHealing;
use crate::pad::CachePadded;
use crate::tree::{TreeBarrier, TreeWaiter};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Chooses a tree degree from the measured arrival spread.
///
/// Arguments: σ̂ in microseconds, thread count. The returned degree is
/// mapped to the nearest candidate.
pub type DegreePolicy = Box<dyn Fn(f64, u32) -> u32 + Send + Sync>;

/// An adaptive-degree combining-tree barrier.
pub struct AdaptiveBarrier {
    trees: Vec<TreeBarrier>,
    degrees: Vec<u32>,
    /// `slots[parity][tid]`: arrival timestamp (ns bits) for the window
    /// with that parity.
    slots: [Vec<CachePadded<AtomicU64>>; 2],
    policy: DegreePolicy,
    window: u32,
    start: Instant,
    p: u32,
    initial_idx: usize,
    /// Tree index in use this window (every waiter stores the same
    /// value; read by the eviction API to find stragglers).
    current: AtomicUsize,
}

impl std::fmt::Debug for AdaptiveBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveBarrier")
            .field("degrees", &self.degrees)
            .field("window", &self.window)
            .field("p", &self.p)
            .finish_non_exhaustive()
    }
}

impl AdaptiveBarrier {
    /// Creates an adaptive barrier for `p` threads over the given
    /// candidate degrees, re-deciding every `window` episodes.
    ///
    /// Prefer building through [`crate::BarrierBuilder`] when a
    /// trait-object ([`crate::Barrier`]) surface, supervision, or a
    /// trace sink is wanted; the direct constructor stays for
    /// statically-typed embedding.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`, `degrees` is empty, or `window == 0`.
    pub fn new(p: u32, degrees: &[u32], window: u32, policy: DegreePolicy) -> Self {
        assert!(p > 0, "barrier needs at least one thread");
        assert!(!degrees.is_empty(), "need at least one candidate degree");
        assert!(window > 0, "window must be positive");
        let mut degrees = degrees.to_vec();
        degrees.sort_unstable();
        degrees.dedup();
        let trees = degrees
            .iter()
            .map(|&d| TreeBarrier::combining(p, d))
            .collect();
        let mk = || {
            (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect()
        };
        // start near degree 4, the classical default
        let initial_idx = nearest_index(&degrees, 4);
        Self {
            trees,
            degrees,
            slots: [mk(), mk()],
            policy,
            window,
            start: Instant::now(),
            p,
            initial_idx,
            current: AtomicUsize::new(initial_idx),
        }
    }

    /// Number of participating threads.
    pub fn threads(&self) -> u32 {
        self.p
    }

    /// The candidate degrees (sorted, deduplicated).
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Creates the per-thread handle for thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn waiter(&self, tid: u32) -> AdaptiveWaiter<'_> {
        assert!(tid < self.p, "thread id out of range");
        AdaptiveWaiter {
            barrier: self,
            waiters: self.trees.iter().map(|t| t.waiter(tid)).collect(),
            tid,
            episode: 0,
            idx: self.initial_idx,
            mid: false,
        }
    }

    /// Whether a participant died mid-episode in any candidate tree.
    pub fn is_poisoned(&self) -> bool {
        self.trees.iter().any(|t| t.is_poisoned())
    }

    /// Number of currently evicted participants.
    pub fn evicted_count(&self) -> u32 {
        self.trees[self.current.load(Ordering::Acquire)].evicted_count()
    }

    /// Whether participant `tid` is currently evicted.
    pub fn is_evicted(&self, tid: u32) -> bool {
        self.trees[self.current.load(Ordering::Acquire)].is_evicted(tid)
    }

    /// Participants that have not arrived for the in-flight episode of
    /// the tree currently in use.
    pub fn stragglers(&self) -> Vec<u32> {
        self.trees[self.current.load(Ordering::Acquire)].stragglers()
    }

    /// Evicts participant `tid` from **every** candidate tree (so
    /// proxies flow no matter which tree later windows select).
    /// Refused — returning `false` — if `tid` already arrived for the
    /// in-flight episode of the current tree.
    ///
    /// This is the supervisor's call; a participant rescuing its own
    /// timed-out wait uses [`AdaptiveWaiter::evict_stragglers`].
    pub fn evict(&self, tid: u32) -> bool {
        let cur = self.current.load(Ordering::Acquire);
        if !self.trees[cur].evict(tid) {
            return false;
        }
        self.evict_from_idle(cur, tid);
        true
    }

    /// Completes an eviction the tree at `cur` accepted. Idle trees
    /// hold no in-flight arrival from `tid`, so these evictions cannot
    /// be refused.
    fn evict_from_idle(&self, cur: usize, tid: u32) {
        for (i, t) in self.trees.iter().enumerate() {
            if i != cur {
                t.evict(tid);
            }
        }
    }

    /// Declares `tid` dead in **every** candidate tree: evicts it and
    /// schedules its removal from each tree's live shape at that tree's
    /// own next episode boundary (idle candidates apply it when a later
    /// window selects them; until then proxies keep covering the slot).
    /// Refused when the thread has arrived for the in-flight episode of
    /// the current tree, or when it is the last live participant.
    /// Idempotent.
    pub fn detach(&self, tid: u32) -> bool {
        assert!(tid < self.p, "thread id out of range");
        let cur = self.current.load(Ordering::Acquire);
        if self.trees[cur].is_live(tid) && self.trees[cur].live_count() <= 1 {
            return false;
        }
        if !self.trees[cur].detach(tid) {
            return false;
        }
        for (i, t) in self.trees.iter().enumerate() {
            if i != cur {
                // Idle trees hold no in-flight arrival from `tid`, so
                // these detaches cannot be refused.
                t.detach(tid);
            }
        }
        true
    }

    /// Number of participants the current tree's live shape counts.
    /// (Idle candidates may lag until their next boundary.)
    pub fn live_count(&self) -> u32 {
        self.trees[self.current.load(Ordering::Acquire)].live_count()
    }

    /// Whether the current tree's live shape still counts `tid`.
    pub fn is_live(&self, tid: u32) -> bool {
        self.trees[self.current.load(Ordering::Acquire)].is_live(tid)
    }

    /// Shape reconfigurations applied by the current tree.
    pub fn shape_epoch(&self) -> u32 {
        self.trees[self.current.load(Ordering::Acquire)].shape_epoch()
    }

    /// The longest root path any live participant walks in the current
    /// tree.
    pub fn critical_depth(&self) -> u32 {
        self.trees[self.current.load(Ordering::Acquire)].critical_depth()
    }

    /// Checks the current tree's live shape against a fresh prune of
    /// its base topology; call only at a quiescent point. Only the
    /// current tree is checked: an idle candidate with an evicted
    /// participant legitimately holds that participant's in-flight
    /// proxy arrival (a partial episode) until a later window selects
    /// it, so it is not quiescent even when the barrier is.
    pub fn validate_shape(&self) -> Result<(), String> {
        let cur = self.current.load(Ordering::Acquire);
        self.trees[cur]
            .validate_shape()
            .map_err(|e| format!("degree-{} tree: {e}", self.degrees[cur]))
    }

    /// Deterministic decision from one window's frozen slots: compute
    /// σ̂ of the recorded arrival times and ask the policy.
    fn decide(&self, parity: usize) -> usize {
        let n = self.p as f64;
        let mut mean = 0.0f64;
        for s in &self.slots[parity] {
            mean += s.load(Ordering::Acquire) as f64;
        }
        mean /= n;
        let mut ss = 0.0f64;
        for s in &self.slots[parity] {
            let d = s.load(Ordering::Acquire) as f64 - mean;
            ss += d * d;
        }
        let sigma_us = if self.p > 1 {
            (ss / (n - 1.0)).sqrt() / 1e3
        } else {
            0.0
        };
        let wanted = (self.policy)(sigma_us, self.p);
        nearest_index(&self.degrees, wanted)
    }
}

impl SelfHealing for AdaptiveBarrier {
    fn threads(&self) -> u32 {
        AdaptiveBarrier::threads(self)
    }
    fn stragglers(&self) -> Vec<u32> {
        AdaptiveBarrier::stragglers(self)
    }
    fn fail(&self, tid: u32) -> bool {
        self.detach(tid)
    }
    fn is_poisoned(&self) -> bool {
        AdaptiveBarrier::is_poisoned(self)
    }
}

/// Index of the candidate nearest to `wanted` (ties go to the wider
/// tree, which degrades more gracefully under imbalance).
fn nearest_index(degrees: &[u32], wanted: u32) -> usize {
    let mut best = 0usize;
    let mut best_dist = u32::MAX;
    for (i, &d) in degrees.iter().enumerate() {
        let dist = d.abs_diff(wanted);
        if dist < best_dist || (dist == best_dist && d > degrees[best]) {
            best = i;
            best_dist = dist;
        }
    }
    best
}

/// Per-thread handle to an [`AdaptiveBarrier`].
///
/// Dropping a waiter mid-episode poisons the barrier (via the tree it
/// was crossing).
#[derive(Debug)]
pub struct AdaptiveWaiter<'a> {
    barrier: &'a AdaptiveBarrier,
    waiters: Vec<TreeWaiter<'a>>,
    tid: u32,
    episode: u32,
    idx: usize,
    /// Whether an episode is in flight (preamble done, tree wait not
    /// yet complete).
    mid: bool,
}

impl AdaptiveWaiter<'_> {
    /// Measurement/reconfiguration preamble, run once per episode.
    fn preamble(&mut self) {
        let b = self.barrier;
        let win = self.episode / b.window;
        if self.episode % b.window == 0 && win > 0 {
            // Decide from the previous window's frozen slots; every
            // thread computes the same index.
            self.idx = b.decide(((win - 1) % 2) as usize);
        }
        b.current.store(self.idx, Ordering::Release);
        let now_ns = b.start.elapsed().as_nanos() as u64;
        b.slots[(win % 2) as usize][self.tid as usize].store(now_ns, Ordering::Release);
        self.mid = true;
    }

    /// One barrier episode, including measurement and (at window
    /// boundaries) reconfiguration.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is poisoned or this participant evicted.
    pub fn wait(&mut self) {
        if !self.mid {
            self.preamble();
        }
        self.waiters[self.idx].wait();
        self.mid = false;
        self.episode += 1;
    }

    /// One barrier episode bounded by `timeout`.
    ///
    /// On [`BarrierError::Timeout`] the episode stays in flight: call a
    /// wait method again to resume it. A timed-out waiter must not
    /// simply be dropped — that poisons the barrier; retry, or have a
    /// peer evict it.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        if !self.mid {
            self.preamble();
        }
        self.waiters[self.idx].wait_timeout(timeout)?;
        self.mid = false;
        self.episode += 1;
        Ok(())
    }

    /// Unbounded fallible full barrier: like [`Self::wait`] but
    /// returning poisoning/eviction as an error instead of panicking.
    pub fn try_wait(&mut self) -> Result<(), BarrierError> {
        if !self.mid {
            self.preamble();
        }
        self.waiters[self.idx].try_wait()?;
        self.mid = false;
        self.episode += 1;
        Ok(())
    }

    /// The rescue after a timed-out wait: evicts every participant
    /// still missing from the episode this waiter is mid-way through —
    /// judged by the tree it is crossing, which declines once that
    /// episode has released — and returns their ids.
    pub fn evict_stragglers(&mut self) -> Vec<u32> {
        let evicted = self.waiters[self.idx].evict_stragglers();
        for &tid in &evicted {
            self.barrier.evict_from_idle(self.idx, tid);
        }
        evicted
    }

    /// The degree of the tree this thread is currently using.
    pub fn current_degree(&self) -> u32 {
        self.barrier.degrees[self.idx]
    }

    /// This thread's id.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn nearest_index_prefers_wider_on_ties() {
        assert_eq!(nearest_index(&[2, 4, 8], 4), 1);
        assert_eq!(nearest_index(&[2, 4, 8], 5), 1);
        assert_eq!(nearest_index(&[2, 4, 8], 6), 2); // tie 4 vs 8 → 8
        assert_eq!(nearest_index(&[2, 4, 8], 100), 2);
        assert_eq!(nearest_index(&[2, 4, 8], 1), 0);
    }

    #[test]
    fn lockstep_across_reconfigurations() {
        const P: usize = 4;
        let policy: DegreePolicy = Box::new(|sigma_us, _| if sigma_us > 100.0 { 8 } else { 2 });
        let barrier = AdaptiveBarrier::new(P as u32, &[2, 4, 8], 3, policy);
        let phases: Vec<AtomicU32> = (0..P).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..P {
                let barrier = &barrier;
                let phases = &phases;
                s.spawn(move || {
                    let mut w = barrier.waiter(tid as u32);
                    for e in 0..60u32 {
                        if (e as usize + tid) % 4 == 0 {
                            std::thread::sleep(Duration::from_micros(300));
                        }
                        phases[tid].store(e + 1, Ordering::Release);
                        w.wait();
                        for q in phases {
                            let ph = q.load(Ordering::Acquire);
                            assert!(ph == e + 1 || ph == e + 2, "episode {e}: phase {ph}");
                        }
                    }
                });
            }
        });
    }

    /// With a large injected arrival spread, the policy must widen the
    /// tree.
    #[test]
    fn widens_under_injected_imbalance() {
        const P: usize = 4;
        let policy: DegreePolicy = Box::new(|sigma_us, p| if sigma_us > 500.0 { p } else { 4 });
        let barrier = AdaptiveBarrier::new(P as u32, &[2, 4, P as u32], 4, policy);
        let final_degree = AtomicU32::new(0);
        std::thread::scope(|s| {
            for tid in 0..P {
                let barrier = &barrier;
                let final_degree = &final_degree;
                s.spawn(move || {
                    let mut w = barrier.waiter(tid as u32);
                    for _ in 0..16 {
                        if tid == 0 {
                            std::thread::sleep(Duration::from_millis(3));
                        }
                        w.wait();
                    }
                    if tid == 0 {
                        final_degree.store(w.current_degree(), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(final_degree.load(Ordering::Relaxed), P as u32);
    }

    #[test]
    fn single_thread_never_blocks() {
        let policy: DegreePolicy = Box::new(|_, _| 4);
        let b = AdaptiveBarrier::new(1, &[2, 4], 2, policy);
        let mut w = b.waiter(0);
        for _ in 0..10 {
            w.wait();
        }
        assert_eq!(w.current_degree(), 4);
    }

    /// Survivors keep crossing — including across a window boundary
    /// that switches trees — after a straggler is evicted.
    #[test]
    fn eviction_survives_tree_switches() {
        const P: u32 = 4;
        // Starts on the degree-8 tree (nearest to the default 4, ties
        // widen); the policy then steers every later window to degree 2,
        // so the evicted participant's proxies must flow in both trees.
        let policy: DegreePolicy = Box::new(|_, _| 2);
        let b = AdaptiveBarrier::new(P, &[2, 8], 5, policy);
        let dead = 3u32;
        std::thread::scope(|s| {
            for tid in 0..P {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    if tid == dead {
                        return; // never shows up
                    }
                    let mut evicted = false;
                    for _ in 0..40 {
                        loop {
                            match w.wait_timeout(Duration::from_millis(20)) {
                                Ok(()) => break,
                                Err(BarrierError::Timeout) => {
                                    if !evicted {
                                        b.evict(dead);
                                        evicted = true;
                                    }
                                }
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                });
            }
        });
        assert!(b.is_evicted(dead));
        assert!(!b.is_poisoned());
    }

    /// A detach is forwarded to every candidate tree and each folds it
    /// in at its own boundary, so survivors keep crossing — and the
    /// shape actually shrinks — across a window switch.
    #[test]
    fn detach_applies_across_tree_switches() {
        const P: u32 = 4;
        // Starts on the degree-8 tree; the policy steers every later
        // window to degree 2, so both trees must fold the detach in.
        let policy: DegreePolicy = Box::new(|_, _| 2);
        let b = AdaptiveBarrier::new(P, &[2, 8], 5, policy);
        let dead = 3u32;
        std::thread::scope(|s| {
            for tid in 0..P {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    if tid == dead {
                        return; // never shows up
                    }
                    let mut declared = false;
                    for _ in 0..40 {
                        loop {
                            match w.wait_timeout(Duration::from_millis(20)) {
                                Ok(()) => break,
                                Err(BarrierError::Timeout) => {
                                    if !declared {
                                        b.detach(dead);
                                        declared = true;
                                    }
                                }
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                });
            }
        });
        assert!(b.is_evicted(dead));
        assert!(!b.is_live(dead));
        assert_eq!(b.live_count(), P - 1);
        assert!(!b.is_poisoned());
        b.validate_shape().unwrap();
    }

    #[test]
    fn detach_refuses_last_live_participant() {
        let policy: DegreePolicy = Box::new(|_, _| 2);
        let b = AdaptiveBarrier::new(2, &[2], 4, policy);
        assert!(b.detach(1));
        let mut w0 = b.waiter(0);
        w0.wait_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(b.live_count(), 1);
        assert!(!b.detach(0), "cannot detach the last live participant");
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_degrees_rejected() {
        let policy: DegreePolicy = Box::new(|_, _| 4);
        let _ = AdaptiveBarrier::new(4, &[], 2, policy);
    }
}
