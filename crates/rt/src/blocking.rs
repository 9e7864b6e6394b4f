//! A blocking (sleeping) central barrier.
//!
//! The spinning barriers in this crate assume roughly one thread per
//! core — the paper's setting. When the host is oversubscribed
//! (CI machines, laptops, or barrier counts far above the core count),
//! spinning burns the very cycles the awaited thread needs. This
//! variant parks waiters on a condition variable instead.
//!
//! Unlike `std::sync::Barrier`, it supports the fuzzy
//! [`arrive`](BlockingWaiter::arrive)/[`depart`](BlockingWaiter::depart)
//! split, so it slots into the same [`crate::FuzzyWaiter`] harnesses as
//! the spinning barriers.
//!
//! # Fault model
//!
//! The full surface: bounded waits via
//! [`BlockingWaiter::wait_timeout`] (built on `Condvar::wait_timeout`),
//! poisoning on mid-episode drops, and eviction with re-admission.
//! Because the mutex serialises everything, eviction needs no proxy
//! machinery at all: an evicted participant is simply excluded from the
//! release count, and a rejoiner participates again from the next
//! episode.

use crate::error::BarrierError;
use crate::fuzzy::FuzzyWaiter;
use combar_trace as trace;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State {
    /// Which participants have arrived for the episode in flight.
    arrived: Vec<bool>,
    /// Which participants are currently evicted.
    evicted: Vec<bool>,
    generation: u64,
    poisoned: bool,
}

impl State {
    /// Evicts `tid` unless it is already evicted, has arrived for the
    /// episode in flight, or is the last participant still counted —
    /// with nobody left, the empty episode would release itself.
    /// Returns whether the eviction happened.
    fn evict(&mut self, tid: u32) -> bool {
        let t = tid as usize;
        let counted = self.evicted.iter().filter(|&&e| !e).count();
        if self.evicted[t] || self.arrived[t] || counted <= 1 {
            return false;
        }
        self.evicted[t] = true;
        if trace::enabled() {
            trace::emit(self.generation as u32, tid, trace::Kind::Evict(tid));
        }
        true
    }

    /// Releases the episode if every non-evicted participant arrived.
    /// Returns whether it did.
    fn release_if_complete(&mut self) -> bool {
        let complete = self
            .arrived
            .iter()
            .zip(&self.evicted)
            .all(|(&a, &e)| a || e);
        if complete {
            self.arrived.fill(false);
            self.generation += 1;
        }
        complete
    }
}

/// A sense-free blocking barrier for `p` threads.
#[derive(Debug)]
pub struct BlockingBarrier {
    state: Mutex<State>,
    cond: Condvar,
    next_id: AtomicU32,
    p: u32,
}

impl BlockingBarrier {
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
        Self {
            state: Mutex::new(State {
                arrived: vec![false; p as usize],
                evicted: vec![false; p as usize],
                generation: 0,
                poisoned: false,
            }),
            cond: Condvar::new(),
            next_id: AtomicU32::new(0),
            p,
        }
    }

    /// Number of participating threads.
    pub fn threads(&self) -> u32 {
        self.p
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The std mutex's own poisoning is folded into ours: a panic
        // while holding the lock also means a participant died.
        match self.state.lock() {
            Ok(g) => g,
            Err(e) => {
                let mut g = e.into_inner();
                g.poisoned = true;
                g
            }
        }
    }

    /// Creates the next per-thread handle (participant ids are assigned
    /// round-robin).
    ///
    /// Waiters may be created at any quiescent point; they inherit the
    /// barrier's current generation.
    pub fn waiter(&self) -> BlockingWaiter<'_> {
        let tid = self.next_id.fetch_add(1, Ordering::Relaxed) % self.p;
        self.waiter_for(tid)
    }

    /// Creates the per-thread handle for participant `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn waiter_for(&self, tid: u32) -> BlockingWaiter<'_> {
        assert!(tid < self.p, "thread id out of range");
        let generation = self.lock().generation;
        BlockingWaiter {
            barrier: self,
            tid,
            generation,
            pending: false,
        }
    }

    /// Whether a participant died mid-episode, wedging the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }

    /// Number of currently evicted participants.
    pub fn evicted_count(&self) -> u32 {
        self.lock().evicted.iter().filter(|&&e| e).count() as u32
    }

    /// Whether participant `tid` is currently evicted.
    pub fn is_evicted(&self, tid: u32) -> bool {
        self.lock().evicted[tid as usize]
    }

    /// Participants that have not arrived for the in-flight episode.
    pub fn stragglers(&self) -> Vec<u32> {
        let st = self.lock();
        (0..self.p)
            .filter(|&t| !st.arrived[t as usize] && !st.evicted[t as usize])
            .collect()
    }

    /// Evicts participant `tid` if it has not arrived for the episode
    /// in flight; it is excluded from release counts until it rejoins.
    /// Returns whether the eviction happened (never for the last
    /// participant still counted).
    ///
    /// This is the supervisor's call; a participant rescuing its own
    /// timed-out wait uses [`BlockingWaiter::evict_stragglers`].
    pub fn evict(&self, tid: u32) -> bool {
        assert!(tid < self.p, "thread id out of range");
        let mut st = self.lock();
        let evicted = st.evict(tid);
        if evicted && st.release_if_complete() {
            self.cond.notify_all();
        }
        evicted
    }
}

/// Per-thread handle to a [`BlockingBarrier`].
///
/// Dropping a waiter between `arrive` and a completed depart poisons
/// the barrier: peers receive [`BarrierError::Poisoned`] instead of
/// parking forever.
#[derive(Debug)]
pub struct BlockingWaiter<'a> {
    barrier: &'a BlockingBarrier,
    tid: u32,
    generation: u64,
    pending: bool,
}

impl BlockingWaiter<'_> {
    /// Signals arrival; never blocks. The caller may run slack work
    /// before [`Self::depart`].
    ///
    /// # Panics
    ///
    /// Panics if called twice without a depart, if the barrier is
    /// poisoned, or if this participant has been evicted.
    pub fn arrive(&mut self) {
        assert!(!self.pending, "arrive called twice without depart");
        if let Err(e) = self.try_arrive() {
            panic!("barrier arrive failed: {e}");
        }
    }

    /// Fallible arrival: errors with [`BarrierError::Poisoned`] or
    /// [`BarrierError::Evicted`] instead of panicking.
    pub fn try_arrive(&mut self) -> Result<(), BarrierError> {
        assert!(!self.pending, "arrive called twice without depart");
        let b = self.barrier;
        let mut st = b.lock();
        if st.poisoned {
            return Err(BarrierError::Poisoned);
        }
        let t = self.tid as usize;
        if st.evicted[t] {
            return Err(BarrierError::Evicted);
        }
        assert!(
            !st.arrived[t],
            "duplicate arrival for one episode (aliased waiters?)"
        );
        st.arrived[t] = true;
        self.pending = true;
        let episode = self.generation as u32;
        trace::emit(episode, self.tid, trace::Kind::Arrive);
        if st.release_if_complete() {
            trace::emit(episode, self.tid, trace::Kind::Win(0));
            trace::emit(episode, self.tid, trace::Kind::Release);
            b.cond.notify_all();
        } else {
            trace::emit(episode, self.tid, trace::Kind::Lose(0));
        }
        Ok(())
    }

    /// Parks until every thread of the episode has arrived.
    ///
    /// # Panics
    ///
    /// Panics if the barrier becomes poisoned while parked.
    pub fn depart(&mut self) {
        assert!(self.pending, "depart called without arrive");
        if let Err(e) = self.depart_deadline(None) {
            panic!("barrier depart failed: {e}");
        }
    }

    fn depart_deadline(&mut self, deadline: Option<Instant>) -> Result<(), BarrierError> {
        assert!(self.pending, "depart called without arrive");
        let b = self.barrier;
        let target = self.generation + 1;
        let mut st = b.lock();
        loop {
            if st.generation >= target {
                self.generation = target;
                self.pending = false;
                return Ok(());
            }
            if st.poisoned {
                return Err(BarrierError::Poisoned);
            }
            match deadline {
                None => st = b.cond.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let Some(remaining) = d.checked_duration_since(Instant::now()) else {
                        return Err(BarrierError::Timeout);
                    };
                    st = b
                        .cond
                        .wait_timeout(st, remaining)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

    fn wait_deadline(&mut self, deadline: Option<Instant>) -> Result<(), BarrierError> {
        if !self.pending {
            self.try_arrive()?;
        }
        self.depart_deadline(deadline)
    }

    /// A full barrier: `arrive` then `depart`.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is poisoned or this participant evicted.
    pub fn wait(&mut self) {
        if let Err(e) = self.wait_deadline(None) {
            panic!("barrier wait failed: {e}");
        }
    }

    /// A full barrier bounded by `timeout`.
    ///
    /// On [`BarrierError::Timeout`] the arrival stays registered: call
    /// a wait method again to resume the same episode rather than
    /// re-arriving. A timed-out waiter must not simply be dropped —
    /// that poisons the barrier; retry, or have a peer evict it.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// Unbounded fallible full barrier: like [`Self::wait`] but
    /// returning poisoning/eviction as an error instead of panicking.
    /// Reads no clock.
    pub fn try_wait(&mut self) -> Result<(), BarrierError> {
        self.wait_deadline(None)
    }

    /// Unbounded fallible depart: like [`Self::depart`] but returning
    /// poisoning as an error instead of panicking. Reads no clock.
    pub fn try_depart(&mut self) -> Result<(), BarrierError> {
        self.depart_deadline(None)
    }

    /// Re-admission after eviction: this participant counts again from
    /// the *next* episode (the lock serialises everything, so no
    /// mid-episode proxy state needs recovering). Returns `Ok(false)`
    /// if this participant was not evicted.
    pub fn rejoin(&mut self) -> Result<bool, BarrierError> {
        let b = self.barrier;
        let mut st = b.lock();
        if st.poisoned {
            return Err(BarrierError::Poisoned);
        }
        let t = self.tid as usize;
        if !st.evicted[t] {
            return Ok(false);
        }
        st.evicted[t] = false;
        self.generation = st.generation;
        self.pending = false;
        trace::emit(self.generation as u32, self.tid, trace::Kind::Rejoin);
        Ok(true)
    }

    /// The rescue after a timed-out wait: evicts every participant
    /// still missing from the episode this waiter's arrival is pending
    /// in, and returns their ids. Empty when no arrival is pending or
    /// the episode has released in the meantime (the generation is
    /// compared under the lock), so a late rescue never touches the
    /// next episode's participants.
    pub fn evict_stragglers(&mut self) -> Vec<u32> {
        let b = self.barrier;
        let mut st = b.lock();
        if !self.pending || st.generation != self.generation {
            return Vec::new();
        }
        let evicted: Vec<u32> = (0..b.p).filter(|&t| st.evict(t)).collect();
        if !evicted.is_empty() && st.release_if_complete() {
            b.cond.notify_all();
        }
        evicted
    }

    /// This thread's id.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

impl FuzzyWaiter for BlockingWaiter<'_> {
    fn arrive(&mut self) {
        BlockingWaiter::arrive(self)
    }
    fn depart(&mut self) {
        BlockingWaiter::depart(self)
    }
}

impl Drop for BlockingWaiter<'_> {
    fn drop(&mut self) {
        if self.pending {
            let mut st = self.barrier.lock();
            st.poisoned = true;
            self.barrier.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{lockstep_torture_on, Stagger};

    #[test]
    fn lockstep_under_heavy_oversubscription() {
        // 16 threads on however-few cores: spinning would crawl; the
        // blocking barrier must stay correct and brisk.
        let b = BlockingBarrier::new(16);
        let report = lockstep_torture_on(&b, 60, Stagger::Mixed, Duration::from_secs(10));
        assert!(report.max_skew <= 1);
    }

    #[test]
    fn fuzzy_split_works() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let b = BlockingBarrier::new(3);
        let acc = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let b = &b;
                let acc = &acc;
                s.spawn(move || {
                    let mut w = b.waiter();
                    for _ in 0..40 {
                        w.arrive();
                        acc.fetch_add(1, Ordering::Relaxed);
                        w.depart();
                    }
                });
            }
        });
        assert_eq!(acc.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn single_thread_never_blocks() {
        let b = BlockingBarrier::new(1);
        let mut w = b.waiter();
        for _ in 0..50 {
            w.wait();
        }
    }

    #[test]
    fn survives_waiter_churn() {
        let b = BlockingBarrier::new(4);
        for _ in 0..3 {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let b = &b;
                    s.spawn(move || {
                        let mut w = b.waiter();
                        for _ in 0..25 {
                            w.wait();
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn timeout_then_eviction_releases_survivor() {
        let b = BlockingBarrier::new(2);
        let mut w0 = b.waiter_for(0);
        assert_eq!(
            w0.wait_timeout(Duration::from_millis(2)),
            Err(BarrierError::Timeout)
        );
        assert_eq!(w0.evict_stragglers(), vec![1]);
        // Eviction completed the episode; the survivor resumes alone
        // for 100 further episodes.
        for _ in 0..100 {
            w0.wait_timeout(Duration::from_secs(2)).unwrap();
        }
        // Rejoin: participant 1 counts again from the next episode.
        let mut w1 = b.waiter_for(1);
        assert!(w1.rejoin().unwrap());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..10 {
                    w1.wait_timeout(Duration::from_secs(2)).unwrap();
                }
            });
            for _ in 0..10 {
                w0.wait_timeout(Duration::from_secs(2)).unwrap();
            }
        });
    }

    #[test]
    fn dropping_pending_waiter_poisons_peers() {
        let b = BlockingBarrier::new(2);
        {
            let mut dying = b.waiter_for(0);
            dying.try_arrive().unwrap();
        }
        assert!(b.is_poisoned());
        let mut peer = b.waiter_for(1);
        assert_eq!(peer.try_arrive(), Err(BarrierError::Poisoned));
    }

    #[test]
    #[should_panic(expected = "arrive called twice")]
    fn double_arrive_rejected() {
        let b = BlockingBarrier::new(2);
        let mut w = b.waiter();
        w.arrive();
        w.arrive();
    }
}
