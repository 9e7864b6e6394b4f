//! The adaptive-degree barrier.
//!
//! The paper closes Section 8 noting that its analytic model "indicates
//! the feasibility of barriers that would adapt their degree at run
//! time to minimize their synchronization delay". This module builds
//! that barrier as a fourth [`Climb`] of the [`counter`](crate::counter)
//! core: one combining-tree shape per candidate degree (the powers of
//! two below `p`, then `p` itself, the flat counter), the index of the
//! shape in use, and one arrival stamp per thread. A climb stamps its
//! arrival and walks the current shape; the degree policy is pluggable
//! (the `combar` core crate supplies the paper's analytic model as that
//! policy).
//!
//! # The releaser decides
//!
//! Every thread of an episode must climb the same shape. The climb that
//! fills the root is already inside the releaser's quiescent window
//! (see the [core](crate::counter)): nobody else is climbing, and
//! nobody can start the next episode before the epoch bump. There, and
//! only there, it folds the episode's arrival spread σ — the standard
//! deviation of the stamps the episode's own arrivals left; it clears
//! them, so an evicted or detached thread's last stamp never counts —
//! into the window, and at every [`WINDOW`]-th release it hands the
//! window mean σ̂ to the [`DegreePolicy`] and stores the index of the
//! candidate nearest its answer. The epoch bump publishes that store
//! exactly as it publishes a membership reshape, and the proxy sweep
//! after the bump already walks the new shape.
//!
//! # Fault model
//!
//! The core's: bounded waits, poisoning, eviction, detach and rejoin. A
//! membership change rewrites *every* candidate shape in the quiescent
//! window, so an idle shape is never stale and a rejoiner is grafted
//! back into all of them at once.

use crate::counter::{sealed, Climb, CounterBarrier, CounterWaiter};
use crate::pad::CachePadded;
use crate::roster::Roster;
use crate::sync::{AtomicU32, Ordering};
use crate::tree::{combining_topology, Shape};
use combar_rng::stats::OnlineStats;
use combar_topo::default_degree_sweep;
use std::fmt;
// The stamps are plain `std` atomics, not the checker's shadow ones:
// they steer nothing but the policy's input, so a schedule point at
// each would multiply the model checker's schedules for nothing.
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Instant;

/// Releases per degree decision: σ̂ is the mean spread of the last
/// `WINDOW` episodes.
pub const WINDOW: u32 = 5;

/// Chooses a tree degree from the measured arrival spread.
///
/// Arguments: σ̂ in microseconds (the mean, over the last [`WINDOW`]
/// episodes, of each episode's arrival-time standard deviation) and the
/// thread count. The returned degree is mapped to the nearest
/// candidate.
pub type DegreePolicy = Box<dyn Fn(f64, u32) -> u32 + Send + Sync>;

/// The adaptive climb: one tree shape per candidate degree and the
/// releaser's choice among them.
///
/// Only releasers read the stamps and the window, so `Relaxed` suffices
/// for the stamps: each is stored before its writer's first counter
/// update, which the root's last updater acquires. `current` is stored
/// in the quiescent window and published, like a reshape, by the epoch
/// bump (`Release`) every later climber has acquired.
pub struct Adaptive {
    degrees: Vec<u32>,
    shapes: Vec<Shape>,
    current: AtomicU32,
    /// Arrival time of each thread's own climb this episode, in ns
    /// since `start` plus one; 0 is "no own arrival".
    stamps: Vec<CachePadded<AtomicU64>>,
    /// The open window's per-episode spreads (µs).
    window: Mutex<OnlineStats>,
    policy: DegreePolicy,
    start: Instant,
}

impl fmt::Debug for Adaptive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Adaptive")
            .field("degrees", &self.degrees)
            .field("current", &self.degrees[self.index()])
            .finish_non_exhaustive()
    }
}

impl Adaptive {
    fn index(&self) -> usize {
        self.current.load(Ordering::Acquire) as usize
    }

    fn shape(&self) -> &Shape {
        &self.shapes[self.index()]
    }

    /// The releaser's share of the quiescent window, run when a walk
    /// filled the root: folds this episode's spread into the window
    /// and, at its last release, asks the policy for the next shape.
    fn settle_if(&self, filled: bool) -> bool {
        if !filled {
            return false;
        }
        let mut window = self.window.lock().expect("only releasers lock it");
        window.push(self.take_spread_us());
        if window.count() == u64::from(WINDOW) {
            let wanted = (self.policy)(window.mean(), self.stamps.len() as u32);
            self.current.store(
                nearest_index(&self.degrees, wanted) as u32,
                Ordering::Relaxed,
            );
            *window = OnlineStats::new();
        }
        true
    }

    /// The sample standard deviation (µs) of the stamps this episode's
    /// own arrivals left, clearing them for the next episode.
    fn take_spread_us(&self) -> f64 {
        let mut arrivals = OnlineStats::new();
        for stamp in &self.stamps {
            match stamp.swap(0, Ordering::Relaxed) {
                0 => {}
                t => arrivals.push(t as f64),
            }
        }
        arrivals.std_dev() / 1e3
    }
}

impl sealed::Sealed for Adaptive {}

impl Climb for Adaptive {
    type Seat = ();

    fn seat(&self, _tid: u32) {}

    fn climb(&self, tid: u32, _seat: &mut (), episode: u32, _: &Roster) -> bool {
        let now = self.start.elapsed().as_nanos() as u64 + 1;
        self.stamps[tid as usize].store(now, Ordering::Relaxed);
        let shape = self.shape();
        self.settle_if(shape.walk(shape.home_of(tid), tid, episode, |_| {}))
    }

    fn proxy_climb(&self, tid: u32, episode: u32, _: &Roster) -> bool {
        self.settle_if(self.shape().proxy_walk(tid, episode))
    }

    fn reshape(&self, live: &[bool]) {
        for shape in &self.shapes {
            shape.rewrite(live);
        }
    }

    fn critical_depth(&self, live: &[bool]) -> u32 {
        self.shape().critical_depth(live)
    }
}

/// An adaptive-degree combining-tree barrier.
pub type AdaptiveBarrier = CounterBarrier<Adaptive>;

/// Per-thread handle to an [`AdaptiveBarrier`].
pub type AdaptiveWaiter<'a> = CounterWaiter<'a, Adaptive>;

impl AdaptiveBarrier {
    /// Creates an adaptive barrier for `p` threads. It starts on the
    /// candidate nearest degree 4, the classical default, and re-picks
    /// its degree with `policy` every [`WINDOW`] releases.
    ///
    /// Prefer building through [`crate::BarrierBuilder`] when a
    /// trait-object ([`crate::Barrier`]) surface, supervision, or a
    /// trace sink is wanted; the direct constructor stays for
    /// statically-typed embedding.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: u32, policy: DegreePolicy) -> Self {
        assert!(p > 0, "barrier needs at least one thread");
        let degrees = default_degree_sweep(p);
        let kind = Adaptive {
            shapes: degrees
                .iter()
                .map(|&d| Shape::new(&combining_topology(p, d)))
                .collect(),
            current: AtomicU32::new(nearest_index(&degrees, 4) as u32),
            degrees,
            stamps: (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            window: Mutex::new(OnlineStats::new()),
            policy,
            start: Instant::now(),
        };
        Self::with_climb(kind, p)
    }

    /// Creates the per-thread handle for thread `tid`; see
    /// [`Self::waiter_for`].
    pub fn waiter(&self, tid: u32) -> AdaptiveWaiter<'_> {
        self.waiter_for(tid)
    }

    /// The candidate degrees, ascending.
    pub fn degrees(&self) -> &[u32] {
        &self.kind().degrees
    }

    /// The degree of the shape the next episode climbs.
    pub fn current_degree(&self) -> u32 {
        let kind = self.kind();
        kind.degrees[kind.index()]
    }

    /// Checks every candidate shape against a fresh prune of its base
    /// topology; call only at a quiescent point (no episode in flight).
    pub fn validate_shape(&self) -> Result<(), String> {
        let live = self.live_mask();
        let kind = self.kind();
        for (shape, d) in kind.shapes.iter().zip(&kind.degrees) {
            shape
                .validate(&live)
                .map_err(|e| format!("degree-{d} shape: {e}"))?;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BarrierError;
    use crate::heal::RejoinStatus;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Answers degree 2 and the flat degree in turn, so every window
    /// boundary switches shapes (at `p ≥ 3`, where there are two).
    fn flipping() -> DegreePolicy {
        let wide = AtomicBool::new(false);
        Box::new(move |_, p| {
            if wide.fetch_xor(true, Ordering::Relaxed) {
                p
            } else {
                2
            }
        })
    }

    /// One episode, single-threaded: arrive all, then depart all.
    fn cross(ws: &mut [AdaptiveWaiter<'_>]) {
        for w in ws.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in ws.iter_mut() {
            w.try_depart().unwrap();
        }
    }

    crate::counter::lifecycle_tests!(|p| AdaptiveBarrier::new(p, flipping()));

    #[test]
    fn nearest_index_prefers_wider_on_ties() {
        assert_eq!(nearest_index(&[2, 4, 8], 4), 1);
        assert_eq!(nearest_index(&[2, 4, 8], 5), 1);
        assert_eq!(nearest_index(&[2, 4, 8], 6), 2); // tie 4 vs 8 → 8
        assert_eq!(nearest_index(&[2, 4, 8], 100), 2);
        assert_eq!(nearest_index(&[2, 4, 8], 1), 0);
    }

    #[test]
    fn candidates_are_the_degree_sweep_starting_nearest_four() {
        let cases: [(u32, &[u32], u32); 4] = [
            (1, &[1], 1),
            (3, &[2, 3], 3),
            (4, &[2, 4], 4),
            (8, &[2, 4, 8], 4),
        ];
        for (p, degrees, start) in cases {
            let b = AdaptiveBarrier::new(p, flipping());
            assert_eq!(b.degrees(), degrees, "p={p}");
            assert_eq!(b.current_degree(), start, "p={p}");
        }
    }

    #[test]
    fn lockstep_across_reconfigurations() {
        const P: usize = 4;
        let barrier = AdaptiveBarrier::new(P as u32, flipping());
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
    /// tree from its degree-4 start to the flat counter.
    #[test]
    fn widens_under_injected_imbalance() {
        const P: u32 = 8;
        let policy: DegreePolicy = Box::new(|sigma_us, p| if sigma_us > 500.0 { p } else { 4 });
        let barrier = AdaptiveBarrier::new(P, policy);
        assert_eq!(barrier.current_degree(), 4);
        std::thread::scope(|s| {
            for tid in 0..P {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut w = barrier.waiter(tid);
                    for _ in 0..2 * WINDOW {
                        if tid == 0 {
                            std::thread::sleep(Duration::from_millis(3));
                        }
                        w.wait();
                    }
                });
            }
        });
        assert_eq!(barrier.current_degree(), P);
    }

    /// A thread that stops arriving leaves no stamp behind: every σ̂ the
    /// policy sees is the survivors' own spread, however long ago the
    /// silent thread last arrived.
    #[test]
    fn evicted_threads_stamps_do_not_inflate_the_spread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let policy: DegreePolicy = Box::new(move |sigma_us, _| {
            log.lock().unwrap().push(sigma_us);
            2
        });
        let b = AdaptiveBarrier::new(4, policy);
        let mut ws: Vec<_> = (0..4).map(|t| b.waiter(t)).collect();
        cross(&mut ws);
        // Thread 3 goes silent and a rescue evicts it.
        let live = &mut ws[..3];
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        assert_eq!(live[0].evict_stragglers(), vec![3]);
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        for _ in 0..4 * WINDOW {
            std::thread::sleep(Duration::from_millis(2));
            cross(live);
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "22 releases make 4 decisions");
        assert!(seen.iter().all(|&s| s < 1000.0), "σ̂ (µs): {seen:?}");
    }

    /// Survivors keep crossing — including across a window boundary
    /// that switches trees — after a straggler is evicted.
    #[test]
    fn eviction_survives_tree_switches() {
        const P: u32 = 4;
        // Starts on the flat degree-4 shape; the policy steers every
        // window boundary to degree 2, so the evicted participant's
        // proxies must flow in both shapes.
        let policy: DegreePolicy = Box::new(|_, _| 2);
        let b = AdaptiveBarrier::new(P, policy);
        assert_eq!(b.current_degree(), 4);
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
        assert_eq!(b.current_degree(), 2);
        assert!(b.is_evicted(dead));
        assert!(!b.is_poisoned());
    }

    /// A detach rewrites every candidate shape at the boundary that
    /// folds it in, so survivors keep crossing — and the shape actually
    /// shrinks — across a window switch.
    #[test]
    fn detach_applies_across_tree_switches() {
        const P: u32 = 4;
        // Starts on the flat degree-4 shape; the policy steers every
        // window boundary to degree 2.
        let policy: DegreePolicy = Box::new(|_, _| 2);
        let b = AdaptiveBarrier::new(P, policy);
        assert_eq!(b.current_degree(), 4);
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
        assert_eq!(b.current_degree(), 2);
        assert!(b.is_evicted(dead));
        assert!(!b.is_live(dead));
        assert_eq!(b.live_count(), P - 1);
        assert!(!b.is_poisoned());
        b.validate_shape().unwrap();
    }

    /// A detached thread rejoins on a different degree than the one it
    /// left: the reshapes kept every candidate current, so the next
    /// switch lands on a full-strength shape too.
    #[test]
    fn rejoin_after_detach_restores_every_shape() {
        let b = AdaptiveBarrier::new(4, flipping());
        let mut ws: Vec<_> = (0..4).map(|t| b.waiter(t)).collect();
        assert!(b.detach(3));
        // Release 1 folds the detach in; release 5 switches 4 → 2.
        for _ in 0..WINDOW {
            cross(&mut ws[..3]);
        }
        assert_eq!((b.live_count(), b.current_degree()), (3, 2));
        b.validate_shape().unwrap();
        assert_eq!(ws[3].try_rejoin().unwrap(), RejoinStatus::Pending);
        cross(&mut ws[..3]);
        assert_eq!(ws[3].try_rejoin().unwrap(), RejoinStatus::Rejoined);
        ws[3].try_depart().unwrap(); // resumed mid-episode, departs at once
        assert_eq!(b.live_count(), 4);
        b.validate_shape().unwrap();
        // Release 10 switches back to the flat shape, at full strength.
        for _ in 0..WINDOW - 1 {
            cross(&mut ws);
        }
        assert_eq!((b.current_degree(), b.critical_depth()), (4, 1));
        b.validate_shape().unwrap();
    }
}
