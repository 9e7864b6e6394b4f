//! Participant roster for the graceful-degradation (eviction) protocol
//! of the counter-tree barriers.
//!
//! Each participant owns one packed `AtomicU64` slot:
//! `state << 32 | last`, where `state` is Active/Evicted/Parked and
//! `last` is the epoch-tagged target of its most recent arrival (own
//! or proxied).
//! Every transition — arrival, eviction, proxy delivery, re-admission —
//! is a single CAS on that slot, which makes the races between a slow
//! arriver and its evictor, between two evictors, and between a
//! maintainer and a rejoiner all linearizable:
//!
//! * **arrive vs evict**: both CAS from `(Active, last)`; exactly one
//!   wins, so the episode receives exactly one count for the thread
//!   (its own or the evictor's proxy), never zero or two.
//! * **proxy vs proxy**: a proxy for target `T` is the CAS
//!   `(Evicted, last≠T) → (Evicted, T)`; double delivery is impossible.
//! * **rejoin vs proxy**: the rejoiner CASes `(Evicted, last) →
//!   (Active, last)` and resumes as "arrived for `last`, pending
//!   depart", since `last` is exactly the episode its proxy covered.
//! * **detach vs rejoin**: a detacher parks the slot
//!   (`Evicted → Parked`) before scheduling the shape change; parking
//!   and the fast rejoin CAS cannot both win, so a participant is
//!   never simultaneously roster-active and shape-detached. A parked
//!   participant re-enters only via the releaser's boundary
//!   [`Roster::admit`].
//!
//! The invariant that makes stale maintainers harmless: episode `X`
//! cannot release until every evicted slot carries `last ≥ X`, so a
//! maintainer holding an outdated target always fails its CAS or skips.
//!
//! The rejoin-vs-maintain race (a rejoiner's `Evicted → Active` CAS
//! interleaved with a maintainer's proxy CAS on the same slot) is
//! explored under the deterministic scheduler in
//! `tests/model_check.rs::exhaustive_evict_rejoin_converges`: both CAS
//! orders occur across the schedule space and every interleaving
//! converges with exactly one count per thread per episode.

use crate::pad::CachePadded;
use crate::sync::{AtomicU32, AtomicU64, Ordering};

const ACTIVE: u32 = 0;
const EVICTED: u32 = 1;
/// Evicted *and* scheduled for (or already subject to) a membership
/// detach: the fast `rejoin` path is closed, and re-admission happens
/// only through the releaser's boundary reconfiguration
/// ([`Roster::admit`]). Parking linearizes the detach-vs-rejoin race on
/// the slot itself: a rejoiner's `Evicted → Active` CAS and a
/// detacher's `Evicted → Parked` CAS cannot both succeed.
const PARKED: u32 = 2;

fn pack(state: u32, last: u32) -> u64 {
    ((state as u64) << 32) | last as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Outcome of [`Roster::try_arrive`].
pub(crate) enum Arrival {
    /// The slot was claimed; the caller must signal the barrier.
    Claimed,
    /// The participant is evicted and must rejoin instead.
    Evicted,
}

/// Per-participant eviction state for one barrier. Public in a private
/// module only because the sealed [`crate::counter::Climb`] takes it.
#[derive(Debug)]
pub struct Roster {
    slots: Vec<CachePadded<AtomicU64>>,
    evicted: AtomicU32,
}

impl Roster {
    pub(crate) fn new(p: u32) -> Self {
        Self {
            slots: (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(pack(ACTIVE, 0))))
                .collect(),
            evicted: AtomicU32::new(0),
        }
    }

    /// Number of currently evicted participants, plus any eviction
    /// still being decided (see [`Roster::evict`]) — never fewer than
    /// the non-active slots. A single load, cheap enough for every
    /// release path.
    pub(crate) fn evicted_count(&self) -> u32 {
        self.evicted.load(Ordering::Acquire)
    }

    pub(crate) fn is_evicted(&self, tid: u32) -> bool {
        unpack(self.slots[tid as usize].load(Ordering::Acquire)).0 != ACTIVE
    }

    pub(crate) fn is_parked(&self, tid: u32) -> bool {
        unpack(self.slots[tid as usize].load(Ordering::Acquire)).0 == PARKED
    }

    /// The slot's epoch tag: the target of the participant's most
    /// recent (own or proxied) arrival. A freshly admitted participant
    /// reads this to resume as "arrived for `last`, pending depart".
    pub(crate) fn last_of(&self, tid: u32) -> u32 {
        unpack(self.slots[tid as usize].load(Ordering::Acquire)).1
    }

    /// Closes the fast rejoin path for an evicted participant, ahead of
    /// a membership detach at the next episode boundary. Fails if the
    /// participant is active (it came back) or already parked.
    pub(crate) fn park(&self, tid: u32) -> bool {
        let slot = &self.slots[tid as usize];
        loop {
            let s = slot.load(Ordering::Acquire);
            let (state, last) = unpack(s);
            if state != EVICTED {
                return state == PARKED;
            }
            if slot
                .compare_exchange(s, pack(PARKED, last), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Re-admits a parked participant; the releaser-side half of the
    /// attach protocol, called only inside the boundary reconfiguration
    /// window. The slot's `last` tag is necessarily the episode being
    /// released (maintenance stamps every non-active slot each release),
    /// so the admitted participant resumes as "arrived, pending depart"
    /// exactly like a fast-path rejoiner.
    pub(crate) fn admit(&self, tid: u32) -> bool {
        let slot = &self.slots[tid as usize];
        loop {
            let s = slot.load(Ordering::Acquire);
            let (state, last) = unpack(s);
            if state != PARKED {
                return false;
            }
            if slot
                .compare_exchange(s, pack(ACTIVE, last), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.evicted.fetch_sub(1, Ordering::AcqRel);
                return true;
            }
        }
    }

    /// Claims this participant's arrival for `target`.
    pub(crate) fn try_arrive(&self, tid: u32, target: u32) -> Arrival {
        let slot = &self.slots[tid as usize];
        loop {
            let s = slot.load(Ordering::Acquire);
            let (state, last) = unpack(s);
            if state != ACTIVE {
                return Arrival::Evicted;
            }
            assert!(
                last != target,
                "duplicate arrival for one episode (aliased waiters?)"
            );
            if slot
                .compare_exchange(s, pack(ACTIVE, target), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Arrival::Claimed;
            }
        }
    }

    /// Evicts `tid` if (and only if) it has not arrived for the episode
    /// in flight and is not the last active participant. On success
    /// the slot is already tagged with that episode's target, which is
    /// returned, and the caller **must** deliver the proxy signal for
    /// it exactly once.
    ///
    /// `episode` binds the eviction to one episode: `Some(e)` (a
    /// waiter's rescue, `e` being the episode its own arrival is
    /// pending in) declines once `e` is no longer the one in flight —
    /// whoever has not arrived *now* is late for a later episode, not
    /// missing from `e`. `None` (a supervisor's declaration) judges
    /// against whatever is in flight.
    ///
    /// The eviction is reserved on `evicted` *before* the slot leaves
    /// `Active` (and re-admission lowers `evicted` only *after* the
    /// slot is back), so the counter never under-counts the non-active
    /// slots; refusing a reservation that would reach `p` therefore
    /// keeps at least one slot active however many evictors race. With
    /// nobody left to arrive, every proxy sweep would release an
    /// episode and [`Roster::maintain`] would never return. A racing
    /// evictor may be refused on a reservation that is then rolled
    /// back; eviction is safe to retry.
    ///
    /// Every CAS retry reads the slot and *then* the epoch: a
    /// successful CAS proves the slot did not change from before the
    /// target was computed until the eviction took effect, and the
    /// in-flight episode cannot release without this slot changing, so
    /// the target — and with it the `episode` check — is never stale at
    /// the linearization point. (Read the other way round, the episode
    /// could release and `tid` re-arrive between the two loads, and the
    /// CAS would evict an arrived participant under a stale target;
    /// `tests/model_check.rs::exhaustive_late_rescue_*` finds that.)
    pub(crate) fn evict(&self, tid: u32, epoch: &AtomicU32, episode: Option<u32>) -> Option<u32> {
        if self.evicted.fetch_add(1, Ordering::AcqRel) + 1 >= self.slots.len() as u32 {
            self.evicted.fetch_sub(1, Ordering::AcqRel);
            return None; // would leave nobody active
        }
        let slot = &self.slots[tid as usize];
        loop {
            let s = slot.load(Ordering::Acquire);
            let target = epoch.load(Ordering::Acquire).wrapping_add(1);
            let (state, last) = unpack(s);
            if state != ACTIVE || last == target || episode.is_some_and(|e| e != target) {
                self.evicted.fetch_sub(1, Ordering::AcqRel);
                return None; // already evicted, it did arrive, or `episode` is over
            }
            if slot
                .compare_exchange(
                    s,
                    pack(EVICTED, target),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return Some(target);
            }
        }
    }

    /// Participants that have not arrived for the in-flight episode
    /// (candidates for [`Roster::evict`]); nobody when `episode` names
    /// an episode that is no longer the one in flight.
    pub(crate) fn stragglers(&self, epoch: &AtomicU32, episode: Option<u32>) -> Vec<u32> {
        let target = epoch.load(Ordering::Acquire).wrapping_add(1);
        if episode.is_some_and(|e| e != target) {
            return Vec::new();
        }
        (0..self.slots.len() as u32)
            .filter(|&t| {
                let (state, last) = unpack(self.slots[t as usize].load(Ordering::Acquire));
                state == ACTIVE && last != target
            })
            .collect()
    }

    /// Re-admits `tid`. Returns the epoch its latest proxy covered —
    /// the rejoined waiter must resume as "arrived for that episode,
    /// pending depart" — or `None` if the participant was not evicted.
    pub(crate) fn rejoin(&self, tid: u32) -> Option<u32> {
        let slot = &self.slots[tid as usize];
        loop {
            let s = slot.load(Ordering::Acquire);
            let (state, last) = unpack(s);
            if state != EVICTED {
                return None;
            }
            if slot
                .compare_exchange(s, pack(ACTIVE, last), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.evicted.fetch_sub(1, Ordering::AcqRel);
                return Some(last);
            }
        }
    }

    /// Post-release maintenance: deliver proxy arrivals for every
    /// evicted (or parked) participant for the next episode, looping
    /// while those proxies themselves complete episodes. Called by
    /// whoever bumps the barrier's epoch, whenever
    /// `evicted_count() > 0`.
    ///
    /// `signal(tid, target)` must perform the barrier's arrival walk
    /// for `tid` in the episode `target` ends — or, for a participant whose detach has already taken effect
    /// (the live shape no longer counts it), do nothing — and report
    /// whether it released the episode. The stamp itself still happens
    /// for detached slots: it keeps `last` equal to the in-flight
    /// target, which the boundary [`Roster::admit`] relies on.
    pub(crate) fn maintain<F: FnMut(u32, u32) -> bool>(&self, epoch: &AtomicU32, mut signal: F) {
        loop {
            if self.evicted.load(Ordering::Acquire) == 0 {
                return;
            }
            let target = epoch.load(Ordering::Acquire).wrapping_add(1);
            let mut released = false;
            for tid in 0..self.slots.len() as u32 {
                let slot = &self.slots[tid as usize];
                loop {
                    let s = slot.load(Ordering::Acquire);
                    let (state, last) = unpack(s);
                    if state == ACTIVE || last == target {
                        break;
                    }
                    if slot
                        .compare_exchange(
                            s,
                            pack(state, target),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        if signal(tid, target) {
                            released = true;
                        }
                        break;
                    }
                }
            }
            if !released {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrive_then_evict_loses() {
        let r = Roster::new(2);
        let epoch = AtomicU32::new(0);
        assert!(matches!(r.try_arrive(0, 1), Arrival::Claimed));
        assert!(
            r.evict(0, &epoch, None).is_none(),
            "arrived participant is not evictable"
        );
        assert!(r.evict(1, &epoch, None).is_some());
        assert!(r.is_evicted(1));
        assert!(matches!(r.try_arrive(1, 1), Arrival::Evicted));
        assert_eq!(r.evicted_count(), 1);
    }

    #[test]
    fn rejoin_restores_active_state() {
        let r = Roster::new(2);
        let epoch = AtomicU32::new(4);
        assert!(r.evict(0, &epoch, None).is_some());
        assert_eq!(
            r.rejoin(0),
            Some(5),
            "proxy target is the in-flight episode"
        );
        assert_eq!(r.rejoin(0), None, "double rejoin is a no-op");
        assert_eq!(r.evicted_count(), 0);
        assert!(!r.is_evicted(0));
    }

    #[test]
    fn evict_spares_the_last_active_slot() {
        let r = Roster::new(3);
        let epoch = AtomicU32::new(0);
        assert!(r.evict(0, &epoch, None).is_some());
        assert!(r.evict(1, &epoch, None).is_some());
        assert!(
            r.evict(2, &epoch, None).is_none(),
            "nobody would be left to arrive"
        );
        assert_eq!(r.evicted_count(), 2, "a refused reservation is undone");
        assert!(!r.is_evicted(2));
        // A slot coming back makes room again.
        assert_eq!(r.rejoin(0), Some(1));
        assert!(r.evict(2, &epoch, None).is_some());
        assert!(
            Roster::new(1).evict(0, &epoch, None).is_none(),
            "p = 1 is always last"
        );
    }

    #[test]
    fn stragglers_excludes_arrived_and_evicted() {
        let r = Roster::new(3);
        let epoch = AtomicU32::new(0);
        assert!(matches!(r.try_arrive(0, 1), Arrival::Claimed));
        assert!(r.evict(2, &epoch, None).is_some());
        assert_eq!(r.stragglers(&epoch, None), vec![1]);
    }

    #[test]
    fn episode_bound_eviction_declines_once_its_episode_is_over() {
        let r = Roster::new(3);
        let epoch = AtomicU32::new(0);
        assert_eq!(r.stragglers(&epoch, Some(1)), vec![0, 1, 2]);
        epoch.store(1, Ordering::Release); // episode 1 released
        assert!(r.stragglers(&epoch, Some(1)).is_empty());
        assert!(
            r.evict(0, &epoch, Some(1)).is_none(),
            "late for 2, not missing from 1"
        );
        assert_eq!(r.evicted_count(), 0, "a declined reservation is undone");
        assert!(r.evict(0, &epoch, Some(2)).is_some());
    }

    #[test]
    fn maintain_delivers_one_proxy_per_target() {
        let r = Roster::new(2);
        let epoch = AtomicU32::new(0);
        assert!(r.evict(1, &epoch, None).is_some()); // tags slot with target 1
        let mut calls = Vec::new();
        // Episode 1 not yet released: proxy for 1 already delivered by
        // the evictor, so maintain has nothing to do.
        r.maintain(&epoch, |t, _| {
            calls.push(t);
            false
        });
        assert!(calls.is_empty());
        // Release episode 1: maintain now delivers the proxy for 2.
        epoch.store(1, Ordering::Release);
        r.maintain(&epoch, |t, _| {
            calls.push(t);
            false
        });
        assert_eq!(calls, vec![1]);
    }

    #[test]
    fn park_closes_fast_rejoin_and_admit_reopens() {
        let r = Roster::new(2);
        let epoch = AtomicU32::new(3);
        assert!(!r.park(0), "active participant cannot be parked");
        assert!(r.evict(0, &epoch, None).is_some());
        assert!(r.park(0));
        assert!(r.park(0), "parking is idempotent");
        assert!(r.is_parked(0));
        assert!(r.is_evicted(0), "parked counts as evicted");
        assert_eq!(r.rejoin(0), None, "fast rejoin path is closed");
        assert_eq!(r.evicted_count(), 1);
        assert!(matches!(r.try_arrive(0, 4), Arrival::Evicted));
        assert!(r.admit(0));
        assert!(!r.admit(0), "double admit is a no-op");
        assert!(!r.is_evicted(0));
        assert_eq!(r.evicted_count(), 0);
    }

    #[test]
    fn maintain_stamps_parked_slots() {
        let r = Roster::new(2);
        let epoch = AtomicU32::new(0);
        assert!(r.evict(0, &epoch, None).is_some()); // tagged for target 1
        assert!(r.park(0));
        epoch.store(1, Ordering::Release);
        let mut calls = Vec::new();
        r.maintain(&epoch, |t, _| {
            calls.push(t);
            false
        });
        assert_eq!(calls, vec![0], "parked slot still stamped and offered");
        // After admission the slot resumes as arrived-for-2.
        assert!(r.admit(0));
        assert!(matches!(r.try_arrive(0, 3), Arrival::Claimed));
    }

    #[test]
    fn maintain_loops_while_proxies_release() {
        let r = Roster::new(2);
        let epoch = AtomicU32::new(0);
        assert!(r.evict(0, &epoch, None).is_some()); // slot tagged for target 1
        epoch.store(1, Ordering::Release); // the evictor's proxy released it
                                           // Every further proxy releases an episode; emulate three then
                                           // stop releasing.
        let mut n = 0;
        r.maintain(&epoch, |_, _| {
            n += 1;
            epoch.fetch_add(1, Ordering::AcqRel);
            n < 3
        });
        assert_eq!(n, 3);
    }
}
