//! The blocking (sleeping) central barrier: `Central × Park`.
//!
//! The spinning barriers in this crate assume roughly one thread per
//! core — the paper's setting. When the host is oversubscribed (CI
//! machines, laptops, or barrier counts far above the core count),
//! spinning burns the very cycles the awaited thread needs.
//! [`BlockingBarrier`] is the central counter barrier with the other
//! [`Notify`]: [`Park`], under which a waiter checks the epoch and
//! poison once and then sleeps until the release (or a poisoning) wakes
//! it.
//!
//! Park has no spin phase. A waiter that is woken when the epoch moves
//! costs the releaser one lock and one `notify_all`; a waiter that
//! spins first would win back the wake latency only when the release
//! is near, which is the regime the spinning barriers already cover.
//! Spin-then-park is left to a measured follow-up.
//!
//! Everything else — arrival, release, the fuzzy arrive/depart split,
//! bounded waits, poisoning, proxy eviction, detach, rejoin and
//! [`SelfHealing`](crate::SelfHealing) — is the
//! [`counter`](crate::counter) core's, so it behaves as on every other
//! counter barrier: an evicted participant's arrival is delivered by
//! proxy at each release, and a rejoined waiter resumes mid-episode
//! with that arrival already proxied. Park sleeps through the
//! [`Sleeper`] facade, so the model checker explores the production
//! wait and wake, and a skipped wake is a detected deadlock.

use crate::central::Central;
use crate::counter::{sealed, CounterBarrier, CounterWaiter, Notify};
use crate::error::BarrierError;
use crate::spin::epoch_outcome;
use crate::sync::{AtomicU32, Sleeper};
use std::time::Instant;

/// The sleeping notify: the waiter sleeps until the release wakes it.
#[derive(Debug, Default)]
pub struct Park {
    pub(crate) sleeper: Sleeper,
    /// Mutant switch: the release (and the poisoning) skips the wake.
    #[cfg(test)]
    skip_wake: bool,
}

impl sealed::Sealed for Park {}

impl Notify for Park {
    fn wait(
        &self,
        epoch: &AtomicU32,
        target: u32,
        poison: &AtomicU32,
        deadline: Option<Instant>,
    ) -> Result<(), BarrierError> {
        self.sleeper
            .sleep_until(deadline, || epoch_outcome(epoch, target, poison))
            .unwrap_or(Err(BarrierError::Timeout))
    }

    fn wake(&self) {
        #[cfg(test)]
        if self.skip_wake {
            return;
        }
        self.sleeper.wake_all();
    }
}

/// A central barrier for `p` threads whose waiters sleep instead of
/// spinning.
pub type BlockingBarrier = CounterBarrier<Central, Park>;

/// Per-thread handle to a [`BlockingBarrier`].
pub type BlockingWaiter<'a> = CounterWaiter<'a, Central, Park>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{lockstep_torture_on, Stagger};
    use combar_check::{vthread, Checker, FailureKind, Outcome};
    use std::sync::Arc;
    use std::time::Duration;

    crate::counter::lifecycle_tests!(BlockingBarrier::new);

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
        // The eviction's proxy completed the episode; the survivor
        // resumes alone for 100 further episodes.
        for _ in 0..100 {
            w0.wait_timeout(Duration::from_secs(2)).unwrap();
        }
        // Rejoin: participant 1 resumes mid-episode with its arrival
        // already proxied, so its first wait merely departs.
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
    #[should_panic(expected = "arrive called twice")]
    fn double_arrive_rejected() {
        let b = BlockingBarrier::new(2);
        let mut w = b.waiter();
        w.arrive();
        w.arrive();
    }

    /// Parks participant 0 of `b` in a wait bounded by five seconds,
    /// runs `wake` once the waiter is asleep on the condvar, and returns
    /// the wait's result and how long after `wake` it came back.
    fn park_then(b: &BlockingBarrier, wake: impl FnOnce()) -> (Result<(), BarrierError>, Duration) {
        use std::sync::atomic::Ordering;
        std::thread::scope(|s| {
            let parked = s.spawn(|| {
                let r = b.waiter_for(0).wait_timeout(Duration::from_secs(5));
                (r, Instant::now())
            });
            // Counted under the lock the wake takes: once it reads 1 the
            // wake cannot land before the sleep.
            while b.notify.sleeper.sleeping.load(Ordering::SeqCst) == 0 {
                assert!(!parked.is_finished(), "the waiter never slept");
                std::thread::yield_now();
            }
            let woken_at = Instant::now();
            wake();
            let (r, back) = parked.join().unwrap();
            (r, back.saturating_duration_since(woken_at))
        })
    }

    #[test]
    fn parked_peer_wakes_on_poison_evict_and_deadline() {
        let prompt = Duration::from_secs(1);

        let b = BlockingBarrier::new(3);
        let (r, after) = park_then(&b, || {
            let mut dying = b.waiter_for(1);
            dying.try_arrive().unwrap();
        });
        assert_eq!(r, Err(BarrierError::Poisoned));
        assert!(after < prompt, "poisoned peer woke after {after:?}");

        let b = BlockingBarrier::new(2);
        let (r, after) = park_then(&b, || assert!(b.evict(1)));
        assert_eq!(r, Ok(()), "the evict's proxy releases the episode");
        assert!(after < prompt, "released peer woke after {after:?}");

        // Nobody wakes this one: the condvar's own timeout must.
        let b = BlockingBarrier::new(2);
        let deadline = Duration::from_millis(50);
        let started = Instant::now();
        let r = b.waiter_for(0).wait_timeout(deadline);
        assert_eq!(r, Err(BarrierError::Timeout));
        let late = started.elapsed().saturating_sub(deadline);
        assert!(
            late < prompt,
            "timed-out peer woke {late:?} after its deadline"
        );
    }

    /// Two threads crossing two episodes, with the async lane's phase
    /// assertion: a release that does not wake the sleeper is a
    /// deadlock, an early release trips the phase bound.
    fn park_vs_release(make: fn(u32) -> BlockingBarrier) -> impl Fn() + Sync {
        use combar_check::shadow::AtomicU32;
        use std::sync::atomic::Ordering;
        const EPISODES: u32 = 2;
        move || {
            let b = Arc::new(make(2));
            let phases: Arc<[AtomicU32; 2]> = Arc::new(Default::default());
            let handles: Vec<_> = (0..2u32)
                .map(|tid| {
                    let b = Arc::clone(&b);
                    let phases = Arc::clone(&phases);
                    vthread::spawn(move || {
                        let mut w = b.waiter_for(tid);
                        for e in 0..EPISODES {
                            w.try_wait().unwrap();
                            phases[tid as usize].store(e + 1, Ordering::SeqCst);
                            let peer = phases[1 - tid as usize].load(Ordering::SeqCst);
                            assert!(
                                peer == e || peer == e + 1,
                                "phase safety violated: tid {tid} finished episode {e} \
                                 but peer has completed {peer}"
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert!(!b.is_poisoned());
        }
    }

    /// Every interleaving of the fixture above to preemption bound 3.
    fn explore(fx: impl Fn() + Sync) -> Outcome {
        Checker::exhaustive(3).max_schedules(2_000_000).check(fx)
    }

    #[test]
    fn exhaustive_park_vs_release_on_the_blocking_barrier() {
        match explore(park_vs_release(BlockingBarrier::new)) {
            Outcome::Pass {
                schedules,
                complete,
            } => {
                assert!(complete, "schedule space not fully enumerated");
                eprintln!("blocking p=2 park vs release: {schedules} schedules, complete");
            }
            Outcome::Fail(f) => panic!("blocking p=2 park vs release failed model check: {f}"),
        }
    }

    /// The mutant whose release skips Park's wake fails the lane as a
    /// deadlock, and the printed token alone replays it.
    #[test]
    fn park_vs_release_catches_a_skipped_wake() {
        fn lost_wakeup(p: u32) -> BlockingBarrier {
            let mut b = BlockingBarrier::new(p);
            b.notify.skip_wake = true;
            b
        }
        let fx = park_vs_release(lost_wakeup);
        let outcome = explore(&fx);
        let failure = outcome.failure().expect("a skipped wake must be caught");
        assert_eq!(failure.kind, FailureKind::Deadlock, "got: {failure}");
        eprintln!("blocking p=2 park vs release, wake skipped: {failure}");
        let replayed = Checker::replay(failure.token).check(&fx);
        let replayed = replayed.failure().expect("token failed to reproduce");
        assert_eq!(replayed.kind, FailureKind::Deadlock);
    }
}
