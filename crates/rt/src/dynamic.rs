//! The dynamic placement barrier (paper Section 5.1, Figures 6–7).
//!
//! An MCS-style tree barrier in which a processor that arrives last in
//! a subtree **swaps positions** with the processor attached to that
//! subtree's root counter, so persistently slow processors migrate
//! toward the root and their critical path shrinks from `O(log p)`
//! toward `O(1)`.
//!
//! # Protocol
//!
//! Per the paper, each counter carries a `Local` field naming its
//! attached processor, and a displaced *victim* discovers the swap at
//! its next arrival, paying one extra communication. Two deliberate
//! engineering deviations from the paper's exact two-field scheme, both
//! forced by correctness concerns its prose leaves open:
//!
//! * **Victim notification is a per-processor `new_home` slot** rather
//!   than a per-counter `Destination` field. The paper's leaf counters
//!   hold up to `d+1` processors but have only one `Local`/`Destination`
//!   pair, so a swap whose victim lands on a shared leaf would falsely
//!   "displace" every other tenant of that leaf. A per-processor slot
//!   is unambiguous and costs the same single extra read.
//! * **Swaps cascade level by level** instead of being applied once at
//!   the top of the winning chain. The victor swaps *before* performing
//!   the increment that might lose, so every swap write is ordered
//!   before the barrier's release through the chain of `AcqRel`
//!   counter updates — otherwise a victim could re-enter the next
//!   episode before the swap became visible and two threads would
//!   update the same home counter. The net effect per episode is the
//!   same processor-to-top migration (the chain of owners rotates down
//!   one level), and the communication bound is unchanged: at most one
//!   swap per counter per episode, i.e. `1/(d+1)` extra communications
//!   per processor.
//!
//! # Under faults
//!
//! The waiter life-cycle, fault model and self-healing are the shared
//! [`counter`](crate::counter) core's, and the counters, shape arrays
//! and static walk are the tree's (`tree::Shape`); this file holds only
//! what placement adds to them.
//!
//! A proxy walk never swaps — the evicted thread is not present to
//! notice a displacement — but it does consume any displacement notice
//! left for the thread, so the proxy always signals the thread's live
//! (possibly migrated) home counter, and a rejoining waiter resumes
//! from that counter.
//!
//! A membership change re-prunes the tree like the static barrier's,
//! and **all placement state is reset to that pruned shape** — counter
//! owners, swappability, and every live thread's home. Migrations
//! learned before the fault are deliberately discarded (the
//! victim/victor assignment may reference the dead thread's counters);
//! the placement re-learns within a few episodes, which is the
//! transient-throughput-for-permanent-correctness trade the paper's
//! dynamic barrier needs under churn. Survivors learn their reset home
//! through the ordinary displacement-notice slot, so the victim-side
//! path of the climb needs no new code.

use crate::counter::{sealed, Climb, CounterBarrier, CounterWaiter};
use crate::pad::CachePadded;
use crate::roster::Roster;
use crate::sync::{AtomicU32, AtomicU64, Ordering};
use crate::tree::Shape;
use combar_topo::{CounterId, Topology};
use combar_trace as trace;

const INVALID: u32 = u32::MAX;

/// The dynamic-placement climb: the tree walk plus the victor/victim
/// swap.
#[derive(Debug)]
pub struct Dynamic {
    /// Counters, shape arrays and each thread's current home — kept
    /// current at swap time so fresh waiters (created between phases)
    /// and proxies start from the live placement.
    shape: Shape,
    /// Owner of each single-occupant counter (`INVALID` for shared
    /// leaves and the merge root).
    local: Vec<CachePadded<AtomicU32>>,
    /// Per-thread displacement notice: the new home counter, or
    /// `INVALID`.
    new_home: Vec<CachePadded<AtomicU32>>,
    /// Ring id per counter (`INVALID` for the merge root), used to keep
    /// swaps within rings on KSR-style topologies. A base property,
    /// untouched by reconfiguration.
    ring: Vec<u32>,
    /// Whether a counter may be a swap target (exactly one live
    /// occupant); 0/1, rewritten with the rest of the shape.
    swappable: Vec<CachePadded<AtomicU32>>,
    swaps: AtomicU64,
}

/// A dynamic placement tree barrier.
///
/// # Examples
///
/// A systematically slow thread migrates to the root (depth 1). Thread
/// 3 arrives last in every episode by construction: it waits until the
/// other three have counted themselves in for this episode.
///
/// ```
/// use combar_rt::DynamicBarrier;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let barrier = DynamicBarrier::mcs(4, 2);
/// let early = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     for tid in 0..4 {
///         let (barrier, early) = (&barrier, &early);
///         s.spawn(move || {
///             let mut w = barrier.waiter(tid);
///             for episode in 0..20 {
///                 if tid == 3 {
///                     while early.load(Ordering::Acquire) < 3 * (episode + 1) {
///                         std::thread::yield_now();
///                     }
///                 } else {
///                     early.fetch_add(1, Ordering::Release);
///                 }
///                 w.wait();
///             }
///             if tid == 3 {
///                 assert_eq!(w.depth(), 1); // owns the root now
///             }
///         });
///     }
/// });
/// assert!(barrier.swap_count() > 0);
/// ```
pub type DynamicBarrier = CounterBarrier<Dynamic>;

/// Per-thread handle to a [`DynamicBarrier`].
pub type DynamicWaiter<'a> = CounterWaiter<'a, Dynamic>;

impl DynamicBarrier {
    /// Builds the barrier from an owner-tree topology (MCS or ring-MCS;
    /// combining trees have no internal owners, so no swap could ever
    /// fire — they are rejected to catch misuse).
    ///
    /// # Panics
    ///
    /// Panics if no counter of the topology is swappable.
    pub fn from_topology(topo: &Topology) -> Self {
        assert!(
            !matches!(topo.kind(), combar_topo::TopologyKind::Combining)
                || topo.num_counters() == 1,
            "dynamic placement needs owner counters (use an MCS-style topology)"
        );
        // Tiny owner trees (p ≤ d+1) collapse to one shared leaf with
        // no swappable counter; the barrier then degenerates to static
        // behaviour, which is correct (there is no depth to save).
        let nodes = topo.nodes();
        let cell = |v: u32| CachePadded::new(AtomicU32::new(v));
        let kind = Dynamic {
            shape: Shape::new(topo),
            local: nodes
                .iter()
                .map(|n| {
                    cell(if n.procs.len() == 1 {
                        n.procs[0]
                    } else {
                        INVALID
                    })
                })
                .collect(),
            new_home: (0..topo.num_procs()).map(|_| cell(INVALID)).collect(),
            ring: nodes.iter().map(|n| n.ring.unwrap_or(INVALID)).collect(),
            swappable: nodes
                .iter()
                .map(|n| cell((n.procs.len() == 1) as u32))
                .collect(),
            swaps: AtomicU64::new(0),
        };
        Self::with_climb(kind, topo.num_procs())
    }

    /// An MCS owner tree of the given degree over `p` threads.
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
    pub fn waiter(&self, tid: u32) -> DynamicWaiter<'_> {
        self.waiter_for(tid)
    }

    /// The construction degree.
    pub fn degree(&self) -> u32 {
        self.kind().shape.base().degree()
    }

    /// The fault-free depth of the base topology.
    pub fn base_depth(&self) -> u32 {
        self.kind().shape.base().depth()
    }

    /// Total swaps applied so far.
    pub fn swap_count(&self) -> u64 {
        self.kind().swaps.load(Ordering::Relaxed)
    }
}

impl DynamicWaiter<'_> {
    /// Path length from this thread's current home to the root — the
    /// paper's "tree depth seen" metric. Reflects relocations the
    /// thread has already noticed.
    pub fn depth(&self) -> u32 {
        self.barrier().kind().shape.depth_from(*self.seat())
    }
}

impl Dynamic {
    /// Consumes `tid`'s displacement notice, if one is waiting, and
    /// returns the home it names.
    ///
    /// Also the proxy's first step, where it is safe against concurrent
    /// swaps: a swap victimising `tid` requires `tid`'s home counter to
    /// fill, which requires this very proxy's increment — so a notice
    /// consumed here happened-before the call, and no new notice can
    /// appear until after the increment that follows.
    fn take_notice(&self, tid: u32) -> Option<CounterId> {
        let slot = &self.new_home[tid as usize];
        let moved = slot.load(Ordering::Acquire);
        (moved != INVALID).then(|| {
            slot.store(INVALID, Ordering::Relaxed);
            moved
        })
    }

    /// Whether `target` is a legal swap destination for a thread homed
    /// at `from`.
    fn swap_ok(&self, from: CounterId, target: CounterId) -> bool {
        target != from
            && self.swappable[target as usize].load(Ordering::Acquire) != 0
            && self.ring[target as usize] == self.ring[from as usize]
    }

    /// Applies one swap: `tid` (homed at `from`) takes `target`,
    /// displacing its owner down to `from`. All plain stores — callers
    /// guarantee exclusivity (only the unique winner of `target`
    /// reaches this) and ordering (the writes precede the caller's next
    /// `AcqRel` counter update or the release itself).
    fn apply_swap(&self, tid: u32, from: CounterId, target: CounterId) {
        let victim = self.local[target as usize].load(Ordering::Acquire);
        debug_assert_ne!(victim, INVALID, "swappable counters always have an owner");
        self.local[target as usize].store(tid, Ordering::Release);
        if self.swappable[from as usize].load(Ordering::Acquire) != 0 {
            self.local[from as usize].store(victim, Ordering::Release);
        }
        self.new_home[victim as usize].store(from, Ordering::Release);
        self.shape.set_home(tid, target);
        self.shape.set_home(victim, from);
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }
}

impl sealed::Sealed for Dynamic {}

impl Climb for Dynamic {
    /// The first counter `fc`: where this thread's next climb starts.
    type Seat = CounterId;

    fn seat(&self, tid: u32) -> CounterId {
        self.shape.home_of(tid)
    }

    #[inline]
    fn climb(&self, tid: u32, fc: &mut CounterId, episode: u32, _: &Roster) -> bool {
        // Victim side (paper Figure 6d): notice a displacement before
        // touching any counter. One extra communication.
        if let Some(moved) = self.take_notice(tid) {
            *fc = moved;
        }
        // Victor side: swap upward at each new highest win, *before*
        // the next increment that might lose (see the module docs).
        self.shape.walk(*fc, tid, episode, |c| {
            if self.swap_ok(*fc, c) {
                self.apply_swap(tid, *fc, c);
                *fc = c;
                trace::emit(episode, tid, trace::Kind::Swap(c));
            }
        })
    }

    fn proxy_climb(&self, tid: u32, episode: u32, _: &Roster) -> bool {
        if let Some(moved) = self.take_notice(tid) {
            self.shape.set_home(tid, moved);
        }
        self.shape.proxy_walk(tid, episode)
    }

    fn reshape(&self, live: &[bool]) {
        let shape = self.shape.rewrite(live);
        // Recomputed below from the reset homes.
        for (local, swappable) in self.local.iter().zip(&self.swappable) {
            local.store(INVALID, Ordering::Relaxed);
            swappable.store(0, Ordering::Relaxed);
        }
        let mut occupants = vec![0u32; self.local.len()];
        for h in shape.home.iter().flatten() {
            occupants[*h as usize] += 1;
        }
        for (t, home) in shape.home.iter().enumerate() {
            // The reset home rides the ordinary displacement-notice
            // slot, overwriting any stale pre-fault notice; survivors
            // consume it (redundant or not) on their next arrival. A
            // thread outside the shape gets its slot voided, so a later
            // attach starts from the recomputed home.
            self.new_home[t].store(home.unwrap_or(INVALID), Ordering::Relaxed);
            // Single live occupant per counter ⇒ it owns the counter and
            // the counter is a swap target again.
            if let Some(h) = home.filter(|&h| occupants[h as usize] == 1) {
                self.local[h as usize].store(t as u32, Ordering::Relaxed);
                self.swappable[h as usize].store(1, Ordering::Relaxed);
            }
        }
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
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    crate::counter::lifecycle_tests!(|p| DynamicBarrier::mcs(p, 2));

    fn lockstep_check(barrier: &DynamicBarrier, episodes: u32, stagger: bool) {
        let p = barrier.threads() as usize;
        let phases: Vec<AtomicU32> = (0..p).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..p {
                let phases = &phases;
                s.spawn(move || {
                    let mut w = barrier.waiter(tid as u32);
                    for e in 0..episodes {
                        if stagger && (e as usize + tid) % 3 == 0 {
                            std::thread::yield_now();
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

    #[test]
    fn lockstep_under_contention() {
        for (p, d) in [(4u32, 2u32), (8, 2), (7, 4)] {
            let b = DynamicBarrier::mcs(p, d);
            lockstep_check(&b, 150, true);
        }
    }

    #[test]
    fn lockstep_on_ring_topology() {
        let topo = Topology::ring_mcs(8, 2, 4);
        let b = DynamicBarrier::from_topology(&topo);
        lockstep_check(&b, 150, true);
    }

    /// Runs `episodes` concurrent episodes on all `p` threads with
    /// `slow` the last arriver of every one, and returns `slow`'s final
    /// depth. Its arrival is gated on the other threads' arrivals, not
    /// delayed by a sleep that a loaded host's scheduler can outlast.
    fn last_arriver_depth(b: &DynamicBarrier, p: u32, slow: u32, episodes: u32) -> u32 {
        let arrived = AtomicU32::new(0);
        let depth = AtomicU32::new(0);
        std::thread::scope(|s| {
            for tid in 0..p {
                let (arrived, depth) = (&arrived, &depth);
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for episode in 1..=episodes {
                        if tid == slow {
                            while arrived.load(Ordering::Acquire) < (p - 1) * episode {
                                std::thread::yield_now();
                            }
                            w.wait();
                        } else {
                            w.try_arrive().unwrap();
                            arrived.fetch_add(1, Ordering::Release);
                            w.try_depart().unwrap();
                        }
                    }
                    if tid == slow {
                        depth.store(w.depth(), Ordering::Relaxed);
                    }
                });
            }
        });
        depth.into_inner()
    }

    /// The paper's headline behaviour: a systematically slow thread
    /// migrates to the root and sees depth 1.
    #[test]
    fn slow_thread_migrates_to_root() {
        let b = DynamicBarrier::mcs(8, 2);
        // Thread 7 starts on a deep leaf.
        let slow_depth = last_arriver_depth(&b, 8, 7, 30);
        assert_eq!(slow_depth, 1, "slow thread should own the root");
        assert!(b.swap_count() > 0);
    }

    /// Swaps never fire when the barrier degenerates (single thread).
    #[test]
    fn single_thread_never_blocks_or_swaps() {
        let b = DynamicBarrier::mcs(1, 4);
        let mut w = b.waiter(0);
        for _ in 0..50 {
            w.wait();
        }
        assert_eq!(b.swap_count(), 0);
        assert_eq!(w.depth(), 1);
    }

    /// On a ring topology, threads keep to their ring: the merge root
    /// is never owned.
    #[test]
    fn merge_root_never_acquires_an_owner() {
        let topo = Topology::ring_mcs(8, 2, 4);
        let root = topo.root() as usize;
        let b = DynamicBarrier::from_topology(&topo);
        std::thread::scope(|s| {
            for tid in 0..8u32 {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for e in 0..40 {
                        if (e + tid) % 5 == 0 {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        w.wait();
                    }
                });
            }
        });
        assert_eq!(b.kind().local[root].load(Ordering::Relaxed), INVALID);
    }

    /// After any number of episodes, the set of current homes (as seen
    /// by the waiters) must remain a permutation-compatible assignment:
    /// every counter's occupancy is intact, witnessed by the barrier
    /// still functioning and counters reading zero at rest.
    #[test]
    fn counters_rest_at_zero_after_swapping_episodes() {
        let b = DynamicBarrier::mcs(6, 2);
        std::thread::scope(|s| {
            for tid in 0..6u32 {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for e in 0..60 {
                        if (e + tid * 7) % 4 == 0 {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        w.wait();
                    }
                });
            }
        });
        assert!(b.kind().shape.at_rest());
    }

    /// Eviction must track migration: the dead thread is first swapped
    /// toward the root (it is slow), then evicted; proxies must walk
    /// its *migrated* home, and rejoin must resume from it.
    #[test]
    fn eviction_follows_migrated_home_and_rejoin_resumes() {
        let b = DynamicBarrier::mcs(6, 2);
        let dead = 5u32;
        std::thread::scope(|s| {
            for tid in 0..6u32 {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for _ in 0..20 {
                        if tid == dead {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        w.wait();
                    }
                    if tid == dead {
                        return; // goes silent (waiter dropped clean)
                    }
                    // Survivors time out, evict the straggler, and keep
                    // crossing for 120 further episodes.
                    let mut evicted = false;
                    for _ in 0..120 {
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
        // Rejoin resumes mid-episode from the live home; a full
        // all-hands episode then completes.
        let mut w = b.waiter(dead);
        assert!(w.rejoin().unwrap());
        let mut ws: Vec<_> = (0..5).map(|t| b.waiter(t)).collect();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..10 {
                    w.wait_timeout(Duration::from_secs(2)).unwrap();
                }
            });
            for w in &mut ws {
                s.spawn(move || {
                    for _ in 0..10 {
                        w.wait_timeout(Duration::from_secs(2)).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "owner counters")]
    fn combining_topology_rejected() {
        let _ = DynamicBarrier::from_topology(&Topology::combining(16, 4));
    }

    /// Detach reconfigures the shape (resetting learned placement) and
    /// rejoin restores the full base depth.
    #[test]
    fn detach_resets_placement_and_rejoin_restores() {
        let b = DynamicBarrier::mcs(8, 2);
        let base_depth = b.base_depth();
        let mut ws: Vec<_> = (0..8).map(|t| b.waiter(t)).collect();
        let (w7, live) = ws.split_last_mut().unwrap();
        // Episode 1: thread 7 stalls; declare it dead.
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        assert!(b.detach(7));
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        // Episode 2's releaser folds the detach in (placement reset).
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        assert_eq!(b.live_count(), 7);
        assert_eq!(b.shape_epoch(), 1);
        assert!(b.critical_depth() <= base_depth);
        // Episode 3 runs without any proxy; survivors consume their
        // placement-reset notices here.
        for w in live.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in live.iter_mut() {
            w.try_depart().unwrap();
        }
        // Rejoin parks until a boundary grants it.
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
        assert_eq!(
            b.critical_depth(),
            base_depth,
            "full rejoin restores the shape"
        );
        // A further all-hands episode crosses cleanly.
        for w in ws.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in ws.iter_mut() {
            w.try_depart().unwrap();
        }
        // Dynamic behaviour survives the churn: a slow thread still
        // migrates to the root afterwards.
        assert_eq!(
            last_arriver_depth(&b, 8, 0, 25),
            1,
            "placement re-learns after churn"
        );
    }
}
