//! The combining-tree barrier (static placement).
//!
//! A tree of padded atomic counters built from any `combar-topo`
//! [`Topology`]: classic combining trees (threads at the leaves),
//! MCS-style owner trees, or ring-constrained KSR trees. A thread
//! updates its home counter; whoever brings a counter to its fan-in
//! propagates to the parent; the root's last updater releases everyone
//! (the paper's "last processor … releases all the processors by
//! updating a shared variable").
//!
//! Counter resets happen *before* the release, so the structure is
//! immediately reusable: no thread can start the next episode until
//! after the release, which orders every reset before every
//! next-episode increment.
//!
//! This file holds only what is the tree's own: the counters and shape
//! arrays (`Shape`, which the dynamic and adaptive barriers climb too),
//! the static walk, and the re-prune a membership change triggers. The
//! waiter life-cycle, fault model and self-healing are the shared
//! [`counter`](crate::counter) core's.

use crate::counter::{sealed, Climb, CounterBarrier, CounterWaiter};
use crate::pad::CachePadded;
use crate::roster::Roster;
use crate::sync::{AtomicU32, Ordering};
use combar_topo::{CounterId, PrunedShape, Topology};
use combar_trace as trace;

/// Sentinel for "no parent" in the atomic parent array.
const NO_PARENT: u32 = u32::MAX;

fn padded(values: impl Iterator<Item = u32>) -> Vec<CachePadded<AtomicU32>> {
    values
        .map(|v| CachePadded::new(AtomicU32::new(v)))
        .collect()
}

/// The classic combining tree of `degree` over `p` threads; a degree of
/// `p` or more builds the flat counter.
pub(crate) fn combining_topology(p: u32, degree: u32) -> Topology {
    if degree >= p {
        Topology::flat(p)
    } else {
        Topology::combining(p, degree)
    }
}

/// The counters of a tree barrier and its live shape, indexed like the
/// base topology. The shape arrays are rewritten only inside a
/// releaser's quiescent window.
#[derive(Debug)]
pub(crate) struct Shape {
    counts: Vec<CachePadded<AtomicU32>>,
    fan_in: Vec<CachePadded<AtomicU32>>,
    parent: Vec<CachePadded<AtomicU32>>,
    path_len: Vec<CachePadded<AtomicU32>>,
    /// Current home counter of each thread.
    homes: Vec<CachePadded<AtomicU32>>,
    /// The immutable original topology every reconfiguration prunes.
    base: Topology,
}

impl Shape {
    pub(crate) fn new(topo: &Topology) -> Self {
        let nodes = topo.nodes();
        Self {
            counts: padded(nodes.iter().map(|_| 0)),
            fan_in: padded(nodes.iter().map(|n| n.fan_in())),
            parent: padded(nodes.iter().map(|n| n.parent.unwrap_or(NO_PARENT))),
            path_len: padded(nodes.iter().map(|n| n.path_len)),
            homes: padded(topo.homes().iter().copied()),
            base: topo.clone(),
        }
    }

    pub(crate) fn base(&self) -> &Topology {
        &self.base
    }

    pub(crate) fn home_of(&self, tid: u32) -> CounterId {
        self.homes[tid as usize].load(Ordering::Acquire)
    }

    pub(crate) fn set_home(&self, tid: u32, home: CounterId) {
        self.homes[tid as usize].store(home, Ordering::Release);
    }

    /// Path length (counters to the root, inclusive) from counter `c`.
    pub(crate) fn depth_from(&self, c: CounterId) -> u32 {
        self.path_len[c as usize].load(Ordering::Acquire)
    }

    pub(crate) fn critical_depth(&self, live: &[bool]) -> u32 {
        (0..live.len())
            .filter(|&t| live[t])
            .map(|t| self.depth_from(self.home_of(t as u32)))
            .max()
            .unwrap_or(0)
    }

    /// The signalling walk: increment from `start` upward; returns
    /// whether this walk filled the root. `subject`/`episode` tag the
    /// emitted trace events (the walking thread, or the proxied thread
    /// on eviction sweeps). `won(c)` runs after each counter `c` the
    /// walk fills and resets, before it moves on — the hook dynamic
    /// placement swaps from (inlined into each climb, so the static
    /// tree's empty hook costs nothing).
    #[inline]
    pub(crate) fn walk(
        &self,
        start: CounterId,
        subject: u32,
        episode: u32,
        mut won: impl FnMut(CounterId),
    ) -> bool {
        let mut c = start as usize;
        loop {
            let fan = self.fan_in[c].load(Ordering::Acquire);
            let prev = self.counts[c].fetch_add(1, Ordering::AcqRel);
            debug_assert!(prev < fan, "counter over-updated");
            if prev + 1 < fan {
                trace::emit(episode, subject, trace::Kind::Lose(c as u32));
                return false; // not last here: someone else will propagate
            }
            trace::emit(episode, subject, trace::Kind::Win(c as u32));
            // Last updater: reset for the next episode (safe before the
            // release — nobody re-enters until after it), then continue
            // upward.
            self.counts[c].store(0, Ordering::Relaxed);
            won(c as CounterId);
            let par = self.parent[c].load(Ordering::Acquire);
            if par == NO_PARENT {
                return true;
            }
            c = par as usize;
        }
    }

    /// [`Self::walk`] on behalf of evicted `tid`, from its current home.
    pub(crate) fn proxy_walk(&self, tid: u32, episode: u32) -> bool {
        let home = self.home_of(tid);
        trace::emit(episode, tid, trace::Kind::ProxyArrival(home));
        self.walk(home, tid, episode, |_| {})
    }

    /// Whether every counter reads zero (true between episodes).
    #[cfg(test)]
    pub(crate) fn at_rest(&self) -> bool {
        self.counts.iter().all(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// Checks the shape against a fresh prune of the base topology to
    /// `live`; call only at a quiescent point (no episode in flight).
    pub(crate) fn validate(&self, live: &[bool]) -> Result<(), String> {
        let shape = self.base.prune_shape(live);
        shape.validate()?;
        for c in 0..self.base.num_counters() {
            let fan = self.fan_in[c].load(Ordering::Acquire);
            if fan != shape.fan_in[c] {
                return Err(format!("counter {c}: fan_in {fan} != {}", shape.fan_in[c]));
            }
            let par = self.parent[c].load(Ordering::Acquire);
            let want = shape.parent[c].unwrap_or(NO_PARENT);
            if shape.retained[c] && par != want {
                return Err(format!("counter {c}: parent {par} != {want}"));
            }
            if shape.retained[c] {
                let pl = self.path_len[c].load(Ordering::Acquire);
                if pl != shape.path_len[c] {
                    return Err(format!(
                        "counter {c}: path_len {pl} != {}",
                        shape.path_len[c]
                    ));
                }
            }
            let count = self.counts[c].load(Ordering::Acquire);
            if count != 0 {
                return Err(format!("counter {c}: count {count} != 0 at quiescence"));
            }
        }
        for (t, want) in shape.home.iter().enumerate() {
            if let Some(want) = *want {
                let home = self.home_of(t as u32);
                if home != want {
                    return Err(format!("thread {t}: home {home} != {want}"));
                }
            }
        }
        Ok(())
    }

    /// Re-prunes the base topology to the `live` set and rewrites the
    /// shape arrays and every live thread's home to it; returns the
    /// pruned shape.
    pub(crate) fn rewrite(&self, live: &[bool]) -> PrunedShape {
        let shape = self.base.prune_shape(live);
        for c in 0..self.base.num_counters() {
            self.fan_in[c].store(shape.fan_in[c], Ordering::Relaxed);
            self.parent[c].store(shape.parent[c].unwrap_or(NO_PARENT), Ordering::Relaxed);
            self.path_len[c].store(shape.path_len[c], Ordering::Relaxed);
        }
        for (t, home) in shape.home.iter().enumerate() {
            if let Some(h) = home {
                self.homes[t].store(*h, Ordering::Relaxed);
            }
        }
        shape
    }
}

/// The static tree climb: every thread walks up from its fixed home.
#[derive(Debug)]
pub struct Tree {
    shape: Shape,
}

/// A static-placement tree barrier over an arbitrary topology.
///
/// # Examples
///
/// ```
/// use combar_rt::TreeBarrier;
///
/// let barrier = TreeBarrier::combining(4, 2);
/// std::thread::scope(|s| {
///     for tid in 0..4 {
///         let barrier = &barrier;
///         s.spawn(move || {
///             let mut w = barrier.waiter(tid);
///             for _ in 0..100 {
///                 w.wait(); // or w.arrive(); <slack work>; w.depart();
///             }
///         });
///     }
/// });
/// ```
pub type TreeBarrier = CounterBarrier<Tree>;

/// Per-thread handle to a [`TreeBarrier`].
pub type TreeWaiter<'a> = CounterWaiter<'a, Tree>;

impl TreeBarrier {
    /// Builds the barrier from a topology (one thread per processor).
    pub fn from_topology(topo: &Topology) -> Self {
        let kind = Tree {
            shape: Shape::new(topo),
        };
        Self::with_climb(kind, topo.num_procs())
    }

    /// A classic combining tree of the given degree over `p` threads
    /// (degree `>= p` builds the flat counter).
    ///
    /// Prefer building through [`crate::BarrierBuilder`] when a
    /// trait-object ([`crate::Barrier`]) surface, supervision, or a
    /// trace sink is wanted; the direct constructor stays for
    /// statically-typed embedding.
    pub fn combining(p: u32, degree: u32) -> Self {
        Self::from_topology(&combining_topology(p, degree))
    }

    /// An MCS-style owner tree of the given degree over `p` threads.
    ///
    /// Prefer building through [`crate::BarrierBuilder`] when a
    /// trait-object ([`crate::Barrier`]) surface, supervision, or a
    /// trace sink is wanted; the direct constructor stays for
    /// statically-typed embedding.
    pub fn mcs(p: u32, degree: u32) -> Self {
        Self::from_topology(&Topology::mcs(p, degree))
    }

    /// Creates the per-thread handle for thread `tid`; see
    /// [`Self::waiter_for`].
    pub fn waiter(&self, tid: u32) -> TreeWaiter<'_> {
        self.waiter_for(tid)
    }

    /// The construction degree.
    pub fn degree(&self) -> u32 {
        self.kind().shape.base.degree()
    }

    /// The fault-free depth of the base topology.
    pub fn base_depth(&self) -> u32 {
        self.kind().shape.base.depth()
    }

    /// Path length (counters to the root, inclusive) seen by `tid` in
    /// the current live shape.
    pub fn depth_of(&self, tid: u32) -> u32 {
        let shape = &self.kind().shape;
        shape.depth_from(shape.home_of(tid))
    }

    /// Checks the live shape against a fresh prune of the base
    /// topology; call only at a quiescent point (no episode in
    /// flight). Used by property tests and the soak job.
    pub fn validate_shape(&self) -> Result<(), String> {
        self.kind().shape.validate(&self.live_mask())
    }
}

impl sealed::Sealed for Tree {}

impl Climb for Tree {
    type Seat = ();

    fn seat(&self, _tid: u32) {}

    #[inline]
    fn climb(&self, tid: u32, _seat: &mut (), episode: u32, _: &Roster) -> bool {
        self.shape
            .walk(self.shape.home_of(tid), tid, episode, |_| {})
    }

    fn proxy_climb(&self, tid: u32, episode: u32, _: &Roster) -> bool {
        self.shape.proxy_walk(tid, episode)
    }

    fn reshape(&self, live: &[bool]) {
        self.shape.rewrite(live);
    }

    fn critical_depth(&self, live: &[bool]) -> u32 {
        self.shape.critical_depth(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BarrierError;
    use crate::heal::RejoinStatus;
    use crate::spin::Deadline;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    crate::counter::lifecycle_tests!(|p| TreeBarrier::combining(p, 2));

    fn lockstep_check(barrier: &TreeBarrier, episodes: u32) {
        let p = barrier.threads() as usize;
        let phases: Vec<AtomicU32> = (0..p).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..p {
                let phases = &phases;
                s.spawn(move || {
                    let mut w = barrier.waiter(tid as u32);
                    for e in 0..episodes {
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

    #[test]
    fn combining_tree_lockstep() {
        for (p, d) in [(4u32, 2u32), (8, 2), (6, 4), (5, 8)] {
            let b = TreeBarrier::combining(p, d);
            lockstep_check(&b, 100);
        }
    }

    #[test]
    fn mcs_tree_lockstep() {
        for (p, d) in [(4u32, 2u32), (7, 2), (8, 4)] {
            let b = TreeBarrier::mcs(p, d);
            lockstep_check(&b, 100);
        }
    }

    #[test]
    fn ring_tree_lockstep() {
        let topo = combar_topo::Topology::ring_mcs(6, 2, 3);
        let b = TreeBarrier::from_topology(&topo);
        lockstep_check(&b, 100);
    }

    #[test]
    fn depth_of_matches_topology() {
        let topo = combar_topo::Topology::mcs(8, 2);
        let b = TreeBarrier::from_topology(&topo);
        for tid in 0..8u32 {
            assert_eq!(b.depth_of(tid), topo.path_len(topo.home_of(tid)));
        }
    }

    #[test]
    fn counters_reset_between_episodes() {
        // After a complete episode every internal count must read 0.
        let b = TreeBarrier::combining(4, 2);
        let mut ws: Vec<_> = Vec::new();
        // single-threaded interleaving: arrive all, then check
        for tid in 0..4 {
            ws.push(b.waiter(tid));
        }
        for w in &mut ws {
            w.arrive();
        }
        for w in &mut ws {
            w.depart();
        }
        assert!(b.kind().shape.at_rest());
    }

    #[test]
    fn eviction_keeps_survivors_crossing_on_deep_trees() {
        // The straggler sits on a deep leaf; its whole root path must be
        // walked by proxy every episode.
        let b = TreeBarrier::combining(8, 2);
        let mut ws: Vec<_> = (0..7).map(|t| b.waiter(t)).collect();
        for w in &mut ws {
            w.try_arrive().unwrap();
        }
        assert_eq!(
            ws[0].wait_timeout(Duration::from_millis(2)),
            Err(BarrierError::Timeout)
        );
        assert_eq!(ws[0].evict_stragglers(), vec![7]);
        // The eviction's proxy released the in-flight episode; depart.
        for w in &mut ws {
            w.wait_timeout(Duration::from_millis(500)).unwrap();
        }
        // 120 further episodes, single-threaded: arrive all (the last
        // arrival plus the maintained proxy releases), then depart all.
        for _ in 0..120 {
            for w in &mut ws {
                w.try_arrive().unwrap();
            }
            for w in &mut ws {
                w.wait_timeout(Duration::from_millis(500)).unwrap();
            }
        }
        assert_eq!(b.evicted_count(), 1);
        assert!(b.is_evicted(7));
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn waiter_bounds_checked() {
        let b = TreeBarrier::combining(2, 2);
        let _ = b.waiter(2);
    }

    #[test]
    fn detach_reconfigures_and_rejoin_restores() {
        let b = TreeBarrier::combining(8, 2);
        let base_depth = b.base_depth();
        let mut ws: Vec<_> = (0..8).map(|t| b.waiter(t)).collect();
        let (w7, live) = ws.split_last_mut().unwrap();
        // Episode 1: thread 7 stalls; declare it dead (the eviction
        // half delivers the in-flight proxy and releases).
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        assert!(b.detach(7));
        assert!(b.is_evicted(7));
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(b.live_count(), 8, "detach applies only at a boundary");
        // Episode 2 still runs under the old shape (7 covered by
        // proxy); its releaser folds the detach into the live shape.
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(b.live_count(), 7);
        assert_eq!(b.shape_epoch(), 1);
        b.validate_shape().unwrap();
        assert!(b.critical_depth() <= base_depth);
        // Episode 3 needs no proxy at all: the shape no longer counts 7.
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        // Rejoin: the request parks until a boundary grants it.
        assert_eq!(w7.try_rejoin().unwrap(), RejoinStatus::Pending);
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(w7.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        assert_eq!(b.live_count(), 8);
        assert_eq!(b.shape_epoch(), 2);
        w7.try_depart().unwrap(); // resumed mid-episode, departs at once
        b.validate_shape().unwrap();
        assert_eq!(
            b.critical_depth(),
            base_depth,
            "full rejoin restores the shape"
        );
        for w in ws.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in ws.iter_mut() {
            w.try_depart().unwrap();
        }
    }

    #[test]
    fn rejoin_before_boundary_cancels_detach() {
        let b = TreeBarrier::combining(4, 2);
        let mut ws: Vec<_> = (0..4).map(|t| b.waiter(t)).collect();
        let (w3, live) = ws.split_last_mut().unwrap();
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        assert!(b.detach(3));
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        // Attach filed before any boundary applied the detach: the
        // releaser cancels it without ever recomputing the shape.
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Pending);
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        assert_eq!(b.shape_epoch(), 0, "no shape change ever applied");
        assert_eq!(b.live_count(), 4);
        w3.try_depart().unwrap();
        for w in ws.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in ws.iter_mut() {
            w.try_depart().unwrap();
        }
    }

    #[test]
    fn threaded_detach_then_rejoin_restores_lockstep() {
        let b = TreeBarrier::combining(8, 2);
        let silent_flag = AtomicU32::new(0);
        // Phase A (threaded): thread 7 crosses 20 episodes then goes
        // silent; a detacher thread declares it dead; survivors keep
        // crossing through the reconfiguration.
        std::thread::scope(|s| {
            for tid in 0..7u32 {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for _ in 0..200 {
                        loop {
                            match w.wait_timeout(Duration::from_millis(200)) {
                                Ok(()) => break,
                                Err(BarrierError::Timeout) => continue,
                                Err(e) => panic!("survivor hit {e}"),
                            }
                        }
                    }
                });
            }
            let silent = &silent_flag;
            let b2 = &b;
            s.spawn(move || {
                let mut w = b2.waiter(7);
                for _ in 0..20 {
                    w.try_wait().unwrap();
                }
                // Dies silently; the waiter drop is clean (not pending).
                silent.store(1, Ordering::Release);
            });
            let b3 = &b;
            s.spawn(move || {
                let deadline = Deadline::after(Duration::from_secs(20));
                while silent.load(Ordering::Acquire) == 0 {
                    assert!(!deadline.expired(), "victim never went silent");
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Provably silent now: declare (retrying while its last
                // arrival's episode is still in flight).
                while !b3.detach(7) {
                    assert!(!deadline.expired(), "never declared thread 7");
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        assert!(!b.is_poisoned());
        assert_eq!(b.live_count(), 7);
        b.validate_shape().unwrap();
        // Phase B (single-threaded): rejoin through the boundary grant.
        let mut w7 = b.waiter(7);
        assert_eq!(w7.try_rejoin().unwrap(), RejoinStatus::Pending);
        let mut live: Vec<_> = (0..7).map(|t| b.waiter(t)).collect();
        for w in &mut live {
            w.try_arrive().unwrap();
        }
        for w in &mut live {
            w.try_depart().unwrap();
        }
        assert_eq!(w7.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        w7.try_depart().unwrap();
        drop(live);
        drop(w7);
        assert_eq!(b.live_count(), 8);
        b.validate_shape().unwrap();
        lockstep_check(&b, 50);
    }
}
