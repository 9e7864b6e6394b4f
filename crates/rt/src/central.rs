//! The central (single-counter) barrier.
//!
//! The simplest software barrier: one shared counter plus an epoch
//! flag. Its synchronization delay grows linearly in `p` under
//! simultaneous arrival — the baseline the paper's Section 1 starts
//! from — but it is *optimal* under extreme load imbalance (the last
//! processor pays a single update), which is exactly the paper's
//! 64-processor σ = 25·t_c result.
//!
//! This file holds only what is central's own: the counter, the
//! one-update climb, and the expected count a detach shrinks. The
//! waiter life-cycle, fault model and self-healing are the shared
//! [`counter`](crate::counter) core's, and how waiters wait is its
//! [`Notify`]: the constructors below serve the spinning
//! [`CentralBarrier`] and the sleeping [`crate::BlockingBarrier`] alike.

use crate::counter::{sealed, Climb, CounterBarrier, CounterWaiter, Notify};
use crate::pad::CachePadded;
use crate::roster::Roster;
use crate::sync::{AtomicU32, Ordering};
use combar_trace as trace;

/// The central climb: one counter every thread updates once.
#[derive(Debug)]
pub struct Central {
    count: CachePadded<AtomicU32>,
    /// Arrivals that release an episode — the live count; rewritten
    /// only inside a releaser's quiescent window.
    expected: CachePadded<AtomicU32>,
    next_id: AtomicU32,
}

/// A sense-reversing central counter barrier for `p` threads.
pub type CentralBarrier = CounterBarrier<Central>;

/// Per-thread handle to a [`CentralBarrier`].
pub type CentralWaiter<'a> = CounterWaiter<'a, Central>;

impl<N: Notify> CounterBarrier<Central, N> {
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
        let kind = Central {
            count: CachePadded::new(AtomicU32::new(0)),
            expected: CachePadded::new(AtomicU32::new(p)),
            next_id: AtomicU32::new(0),
        };
        Self::with_climb(kind, p)
    }

    /// Creates the per-thread handle. Each thread must use its own;
    /// participant ids are assigned round-robin in creation order (use
    /// [`Self::waiter_for`] when eviction decisions must name a
    /// specific thread).
    pub fn waiter(&self) -> CounterWaiter<'_, Central, N> {
        let tid = self.kind().next_id.fetch_add(1, Ordering::Relaxed) % self.threads();
        self.waiter_for(tid)
    }
}

impl Central {
    /// One arrival count for `subject`; returns whether it was the last
    /// the episode expects.
    fn bump(&self, subject: u32, episode: u32) -> bool {
        let expected = self.expected.load(Ordering::Acquire);
        let prev = self.count.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev < expected, "more arrivals than the live count");
        if prev + 1 < expected {
            trace::emit(episode, subject, trace::Kind::Lose(0));
            return false;
        }
        trace::emit(episode, subject, trace::Kind::Win(0));
        // Last arriver: reset for the next episode before the release —
        // nobody re-enters until after it.
        self.count.store(0, Ordering::Relaxed);
        true
    }
}

impl sealed::Sealed for Central {}

impl Climb for Central {
    type Seat = ();

    fn seat(&self, _tid: u32) {}

    #[inline]
    fn climb(&self, tid: u32, _seat: &mut (), episode: u32, _: &Roster) -> bool {
        self.bump(tid, episode)
    }

    fn proxy_climb(&self, tid: u32, episode: u32, _: &Roster) -> bool {
        trace::emit(episode, tid, trace::Kind::ProxyArrival(0));
        self.bump(tid, episode)
    }

    fn reshape(&self, live: &[bool]) {
        let count = live.iter().filter(|&&l| l).count() as u32;
        self.expected.store(count, Ordering::Relaxed);
    }

    fn critical_depth(&self, _live: &[bool]) -> u32 {
        1 // one shared counter, regardless of p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::RejoinStatus;
    use std::sync::atomic::{AtomicU32, Ordering};

    crate::counter::lifecycle_tests!(CentralBarrier::new);

    /// An episode a proxy arrival completes goes through the one
    /// release path, so it is traced like any other (it used to emit
    /// nothing, and `critical_paths` silently skipped it).
    #[test]
    fn proxy_released_episode_is_traced() {
        let book = trace::TraceBook::new();
        let b = CentralBarrier::new(2);
        {
            let _g = book.attach(0);
            let mut w = b.waiter_for(0);
            w.try_arrive().unwrap();
            assert!(b.evict(1));
            w.try_depart().unwrap();
        }
        let paths = trace::critical_paths(&book.drain());
        assert_eq!(paths.len(), 1, "the proxy-released episode is reported");
        assert_eq!((paths[0].episode, paths[0].releaser), (0, 1));
        assert_eq!(paths[0].chain, vec![0]);
        assert_eq!((paths[0].arrivals, paths[0].proxied), (1, 1));
    }

    #[test]
    fn four_threads_stay_in_lockstep() {
        const P: usize = 4;
        const EPISODES: usize = 200;
        let barrier = CentralBarrier::new(P as u32);
        let phases: Vec<AtomicU32> = (0..P).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..P {
                let barrier = &barrier;
                let phases = &phases;
                s.spawn(move || {
                    let mut w = barrier.waiter();
                    for e in 0..EPISODES as u32 {
                        phases[tid].store(e + 1, Ordering::Release);
                        w.wait();
                        for q in phases {
                            let ph = q.load(Ordering::Acquire);
                            assert!(ph == e + 1 || ph == e + 2, "episode {e}: saw phase {ph}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn fuzzy_split_allows_work_between_phases() {
        const P: usize = 3;
        let barrier = CentralBarrier::new(P as u32);
        let acc = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..P {
                let barrier = &barrier;
                let acc = &acc;
                s.spawn(move || {
                    let mut w = barrier.waiter();
                    for _ in 0..50 {
                        w.arrive();
                        acc.fetch_add(1, Ordering::Relaxed); // slack work
                        w.depart();
                    }
                });
            }
        });
        assert_eq!(acc.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn detach_shrinks_expected_count_and_rejoin_restores() {
        let b = CentralBarrier::new(4);
        let mut ws: Vec<_> = (0..4).map(|t| b.waiter_for(t)).collect();
        let (w3, live) = ws.split_last_mut().unwrap();
        // Episode 1: thread 3 stalls; declare it dead (eviction proxy
        // releases the in-flight episode).
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        assert!(b.detach(3));
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(b.live_count(), 4, "detach applies only at a boundary");
        // Episode 2 still runs under the old count (3 covered by
        // proxy); its releaser folds the detach in.
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(b.live_count(), 3);
        assert_eq!(b.shape_epoch(), 1);
        // Episode 3 needs no proxy: the count no longer includes 3.
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        // Rejoin parks until a boundary grants it.
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Pending);
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        assert_eq!(b.live_count(), 4);
        assert_eq!(b.shape_epoch(), 2);
        w3.try_depart().unwrap(); // resumed mid-episode, departs at once
        for w in ws.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in ws.iter_mut() {
            w.try_depart().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = CentralBarrier::new(0);
    }
}
