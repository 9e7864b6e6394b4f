//! Dynamic placement bookkeeping: who is attached to which counter.
//!
//! The paper's dynamic placement barrier (Section 5) lets a processor
//! that arrived **last** in an entire subtree swap positions with the
//! processor attached to that subtree's root counter, so persistently
//! slow processors migrate toward the root and see a shorter update
//! path. This module implements the swap semantics shared by the
//! simulator and the threaded runtime:
//!
//! * the *victor* is the late processor; its new home is the highest
//!   counter at which it arrived last (always an internal counter with
//!   exactly one attached processor, or its own home — in which case
//!   nothing happens);
//! * the *victim* is the processor previously attached to that counter;
//!   it inherits the victor's old home and pays one extra communication
//!   (reading its `Destination` field, Figure 6d) on its next arrival —
//!   bounded by `1/(d+1)` extra communications per processor per
//!   episode;
//! * on KSR1 ring topologies, swaps never cross ring boundaries and the
//!   merge root (which owns no processor) is unswappable.

use crate::{CounterId, ProcId, Topology, TopologyKind};

/// A completed swap: `victor` moved to `counter`, displacing `victim`
/// down to the victor's former home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    /// The late processor that moved up.
    pub victor: ProcId,
    /// The processor that was displaced down.
    pub victim: ProcId,
    /// The victor's new home counter.
    pub counter: CounterId,
    /// The victim's new home counter (the victor's old one).
    pub old_home: CounterId,
}

/// Mutable processor↔counter assignment over a fixed [`Topology`].
///
/// Occupancy counts per counter are invariant under swaps, so the
/// fan-in of every counter — and therefore the barrier's correctness —
/// is preserved no matter how processors migrate.
///
/// # Examples
///
/// ```
/// use combar_topo::{Placement, Topology};
///
/// let topo = Topology::mcs(16, 4);
/// let mut placement = Placement::initial(&topo);
/// let root = topo.root();
/// let victor = 15; // some late processor
/// let swap = placement.try_swap(&topo, victor, root).unwrap();
/// assert_eq!(placement.home(victor), root);
/// assert_eq!(placement.home(swap.victim), swap.old_home);
/// placement.validate(&topo).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    home: Vec<CounterId>,
    /// Counter `c`'s occupants are `occupants[slots[c]..slots[c + 1]]`.
    /// A swap keeps every counter's occupant count, so the slots are
    /// fixed at construction.
    slots: Vec<u32>,
    occupants: Vec<ProcId>,
    swaps_applied: u64,
}

impl Placement {
    /// The initial placement of a topology (each processor at its
    /// construction-time home).
    pub fn initial(topo: &Topology) -> Self {
        let mut slots = Vec::with_capacity(topo.num_counters() + 1);
        let mut occupants = Vec::with_capacity(topo.num_procs() as usize);
        slots.push(0);
        for n in topo.nodes() {
            occupants.extend_from_slice(&n.procs);
            slots.push(occupants.len() as u32);
        }
        Self {
            home: topo.homes().to_vec(),
            slots,
            occupants,
            swaps_applied: 0,
        }
    }

    /// The current home counter of processor `p`.
    pub fn home(&self, p: ProcId) -> CounterId {
        self.home[p as usize]
    }

    /// The processor attached to counter `c`, when exactly one is (the
    /// swappable case); `None` for empty or multi-processor counters.
    pub fn owner(&self, c: CounterId) -> Option<ProcId> {
        match self.occupants(c) {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// All processors currently attached to counter `c`.
    pub fn occupants(&self, c: CounterId) -> &[ProcId] {
        &self.occupants[self.slots[c as usize] as usize..self.slots[c as usize + 1] as usize]
    }

    /// All current homes, indexed by processor.
    pub fn homes(&self) -> &[CounterId] {
        &self.home
    }

    /// Number of swaps applied so far.
    pub fn swaps_applied(&self) -> u64 {
        self.swaps_applied
    }

    /// Whether a swap of `victor` up to counter `target` is allowed:
    ///
    /// * `target` must differ from the victor's current home;
    /// * `target` must have exactly one occupant (internal counters do;
    ///   the KSR merge root and multi-processor leaves do not);
    /// * on ring topologies, `target` and the victor's home must lie in
    ///   the same ring.
    pub fn swap_allowed(&self, topo: &Topology, victor: ProcId, target: CounterId) -> bool {
        let home = self.home(victor);
        if target == home {
            return false;
        }
        if self.owner(target).is_none() {
            return false;
        }
        if topo.kind() == TopologyKind::RingMcs {
            let home_ring = topo.node(home).ring;
            let target_ring = topo.node(target).ring;
            if home_ring != target_ring {
                return false;
            }
        }
        true
    }

    /// Applies the victor/victim swap, if allowed; returns the swap
    /// record, or `None` when [`Placement::swap_allowed`] fails.
    pub fn try_swap(&mut self, topo: &Topology, victor: ProcId, target: CounterId) -> Option<Swap> {
        if !self.swap_allowed(topo, victor, target) {
            return None;
        }
        let old_home = self.home(victor);
        let victim = self.owner(target).expect("checked by swap_allowed");
        // Victor takes sole possession of the target counter.
        self.occupants[self.slots[target as usize] as usize] = victor;
        self.home[victor as usize] = target;
        // Victim replaces the victor among the old home's occupants.
        let (lo, hi) = (
            self.slots[old_home as usize] as usize,
            self.slots[old_home as usize + 1] as usize,
        );
        let slot = self.occupants[lo..hi]
            .iter()
            .position(|&p| p == victor)
            .expect("victor must occupy its home");
        self.occupants[lo + slot] = victim;
        self.home[victim as usize] = old_home;
        self.swaps_applied += 1;
        Some(Swap {
            victor,
            victim,
            counter: target,
            old_home,
        })
    }

    /// Checks that the placement is consistent: every processor occupies
    /// exactly its home counter, and occupancy counts match the
    /// topology's construction (so every counter's fan-in is intact).
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if self.home.len() != topo.num_procs() as usize {
            return Err("home table size mismatch".into());
        }
        if self.slots.len() != topo.num_counters() + 1 {
            return Err("occupants table size mismatch".into());
        }
        let mut counted = 0usize;
        for c in 0..topo.num_counters() {
            let occ = self.occupants(c as CounterId);
            if occ.len() != topo.node(c as CounterId).procs.len() {
                return Err(format!("counter {c} occupancy count changed"));
            }
            for &p in occ {
                counted += 1;
                if self.home[p as usize] != c as CounterId {
                    return Err(format!("proc {p} occupies {c} but home disagrees"));
                }
            }
        }
        if counted != self.home.len() {
            return Err("occupancy does not cover all processors".into());
        }
        Ok(())
    }

    /// Average path length (in counters) from each processor's current
    /// home to the root — the "tree depth seen" metric of the paper's
    /// Figures 8 and 13, averaged over all processors.
    pub fn mean_depth(&self, topo: &Topology) -> f64 {
        let total: u64 = self.home.iter().map(|&h| topo.path_len(h) as u64).sum();
        total as f64 / self.home.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn initial_placement_matches_topology() {
        let t = Topology::mcs(16, 4);
        let p = Placement::initial(&t);
        p.validate(&t).unwrap();
        for proc in 0..16u32 {
            assert_eq!(p.home(proc), t.home_of(proc));
            assert!(p.occupants(p.home(proc)).contains(&proc));
        }
    }

    #[test]
    fn root_owner_is_swappable_target() {
        let t = Topology::mcs(16, 4);
        let mut p = Placement::initial(&t);
        let root = t.root();
        let old_owner = p.owner(root).expect("MCS root owns one proc");
        // pick a leaf-attached processor
        let victor = (0..16u32)
            .find(|&q| t.node(p.home(q)).children.is_empty())
            .expect("some proc lives on a leaf");
        let old_home = p.home(victor);
        let swap = p
            .try_swap(&t, victor, root)
            .expect("swap should be allowed");
        assert_eq!(swap.victim, old_owner);
        assert_eq!(p.home(victor), root);
        assert_eq!(p.owner(root), Some(victor));
        assert_eq!(p.home(old_owner), old_home);
        assert!(p.occupants(old_home).contains(&old_owner));
        assert!(!p.occupants(old_home).contains(&victor));
        p.validate(&t).unwrap();
        assert_eq!(p.swaps_applied(), 1);
    }

    #[test]
    fn swap_to_own_home_is_noop() {
        let t = Topology::mcs(8, 2);
        let mut p = Placement::initial(&t);
        let home = p.home(3);
        assert!(p.try_swap(&t, 3, home).is_none());
        assert_eq!(p.swaps_applied(), 0);
    }

    #[test]
    fn multi_occupant_leaf_is_not_a_target() {
        let t = Topology::mcs(64, 4);
        let p = Placement::initial(&t);
        // find a leaf with more than one occupant
        let leaf = t
            .nodes()
            .iter()
            .find(|n| n.children.is_empty() && n.procs.len() > 1)
            .expect("degree-4 tree over 64 procs has multi-proc leaves");
        assert_eq!(p.owner(leaf.id), None);
        let outsider = t.node(t.root()).procs[0];
        assert!(!p.swap_allowed(&t, outsider, leaf.id));
    }

    #[test]
    fn combining_tree_internal_counters_are_not_targets() {
        let t = Topology::combining(16, 4);
        let p = Placement::initial(&t);
        let root = t.root();
        assert_eq!(p.owner(root), None); // no attached processor
        assert!(!p.swap_allowed(&t, 0, root));
    }

    #[test]
    fn repeated_swaps_remain_consistent() {
        let t = Topology::mcs(64, 4);
        let mut p = Placement::initial(&t);
        let root = t.root();
        for victor in 8..32u32 {
            let _ = p.try_swap(&t, victor, root);
            p.validate(&t).unwrap();
        }
        assert!(p.swaps_applied() >= 20);
    }

    #[test]
    fn merge_root_is_unswappable() {
        let t = Topology::ring_mcs(64, 4, 32);
        let mut p = Placement::initial(&t);
        let root = t.root();
        assert!(p.owner(root).is_none());
        assert!(p.try_swap(&t, 40, root).is_none());
    }

    #[test]
    fn swaps_cannot_cross_rings() {
        let t = Topology::ring_mcs(64, 4, 32);
        let mut p = Placement::initial(&t);
        // proc 40 lives in ring 1; ring 0's subtree root hosts proc 0.
        let ring0_root = t.home_of(0);
        assert_eq!(t.node(ring0_root).ring, Some(0));
        assert!(!p.swap_allowed(&t, 40, ring0_root));
        assert!(p.try_swap(&t, 40, ring0_root).is_none());
        // but swapping within ring 1 works: ring-1 subtree root hosts
        // proc 32.
        let ring1_root = t.home_of(32);
        assert_eq!(t.node(ring1_root).ring, Some(1));
        assert!(p.try_swap(&t, 40, ring1_root).is_some());
        p.validate(&t).unwrap();
    }

    #[test]
    fn swaps_preserve_mean_depth_but_shift_individuals() {
        let t = Topology::mcs(64, 2);
        let mut p = Placement::initial(&t);
        let before = p.mean_depth(&t);
        // choose a deep victor
        let victor = (0..64u32).max_by_key(|&q| t.path_len(p.home(q))).unwrap();
        let victor_depth_before = t.path_len(p.home(victor));
        p.try_swap(&t, victor, t.root()).unwrap();
        let after = p.mean_depth(&t);
        assert!(
            (after - before).abs() < 1e-12,
            "swap permutes, mean invariant"
        );
        assert_eq!(t.path_len(p.home(victor)), 1);
        assert!(victor_depth_before > 1);
    }
}
