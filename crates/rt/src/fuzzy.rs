//! Fuzzy barrier interface (Gupta, 1989).
//!
//! A fuzzy barrier splits synchronization into a **release** phase
//! (signal arrival) and an **enforce** phase (block), letting the
//! program execute *independent* operations — slack — in between. The
//! paper shows slack is what makes dynamic placement work: it preserves
//! arrival order across iterations, making the slow processor
//! predictable.
//!
//! The counter-barrier waiter (central, blocking, tree, dynamic,
//! adaptive, tournament — one type) and the async waiter expose
//! `arrive`/`depart`; this module names the split as a trait and adds a
//! convenience wrapper that times the phases.

use crate::counter::{Climb, CounterWaiter, Notify};
use std::time::{Duration, Instant};

/// A barrier participant that supports the fuzzy split.
pub trait FuzzyWaiter {
    /// Signal arrival (the release phase). Independent work may follow.
    fn arrive(&mut self);

    /// Block until all threads of the episode have arrived (the
    /// enforce phase).
    fn depart(&mut self);

    /// A complete barrier: arrive, then depart, with no slack.
    fn wait(&mut self) {
        self.arrive();
        self.depart();
    }
}

impl<K: Climb, N: Notify> FuzzyWaiter for CounterWaiter<'_, K, N> {
    fn arrive(&mut self) {
        CounterWaiter::arrive(self)
    }
    fn depart(&mut self) {
        CounterWaiter::depart(self)
    }
}

/// Statistics of one fuzzy episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzyTiming {
    /// Time spent in the arrive (signalling) call.
    pub signal: Duration,
    /// Time spent executing the slack closure.
    pub slack: Duration,
    /// Time spent blocked at the enforce point.
    pub idle: Duration,
}

/// Runs one fuzzy episode: signal, execute `slack_work`, then enforce;
/// returns where the time went. With enough slack, `idle` approaches
/// zero — Gupta's observation, and the regime where the paper's
/// dynamic placement pays off.
pub fn fuzzy_episode<W: FuzzyWaiter, F: FnOnce()>(waiter: &mut W, slack_work: F) -> FuzzyTiming {
    let t0 = Instant::now();
    waiter.arrive();
    let t1 = Instant::now();
    slack_work();
    let t2 = Instant::now();
    waiter.depart();
    let t3 = Instant::now();
    FuzzyTiming {
        signal: t1 - t0,
        slack: t2 - t1,
        idle: t3 - t2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::central::CentralBarrier;
    use crate::dynamic::DynamicBarrier;
    use crate::tree::TreeBarrier;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Exercise all three waiter kinds through the trait.
    #[test]
    fn trait_object_uniformity() {
        fn run_generic<W: FuzzyWaiter>(w: &mut W, n: u32) {
            for _ in 0..n {
                w.wait();
            }
        }
        let c = CentralBarrier::new(1);
        run_generic(&mut c.waiter(), 5);
        let t = TreeBarrier::combining(1, 4);
        run_generic(&mut t.waiter(0), 5);
        let d = DynamicBarrier::mcs(1, 4);
        run_generic(&mut d.waiter(0), 5);
    }

    #[test]
    fn fuzzy_episode_accounts_time() {
        let b = CentralBarrier::new(2);
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let b = &b;
                let done = &done;
                s.spawn(move || {
                    let mut w = b.waiter();
                    let t = fuzzy_episode(&mut w, || {
                        // measurable slack work
                        let mut acc = 0u64;
                        for i in 0..50_000u64 {
                            acc = acc.wrapping_add(i * i);
                        }
                        done.fetch_add(acc | 1, Ordering::Relaxed);
                    });
                    assert!(t.slack > Duration::ZERO);
                });
            }
        });
        assert_ne!(done.load(Ordering::Relaxed), 0);
    }

    /// The enforce point waits for every *arrival* (signal) — but not
    /// for slack work, which is independent by construction. Verify the
    /// arrival ordering half of that contract: after `depart`, every
    /// thread has signalled the current episode.
    #[test]
    fn enforce_waits_for_all_arrivals() {
        const P: usize = 3;
        let b = TreeBarrier::combining(P as u32, 2);
        let arrived = [const { AtomicU64::new(0) }; P];
        std::thread::scope(|s| {
            for tid in 0..P {
                let b = &b;
                let arrived = &arrived;
                s.spawn(move || {
                    let mut w = b.waiter(tid as u32);
                    for e in 0..40u64 {
                        arrived[tid].store(e + 1, Ordering::Release);
                        w.arrive();
                        w.depart();
                        for a in arrived {
                            let seen = a.load(Ordering::Acquire);
                            assert!(
                                seen == e + 1 || seen == e + 2,
                                "episode {e}: arrival count {seen}"
                            );
                        }
                    }
                });
            }
        });
    }
}
