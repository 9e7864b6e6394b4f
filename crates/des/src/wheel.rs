//! A hierarchical timing wheel over integer ticks.
//!
//! This is the shared data structure behind both this crate's
//! [`crate::WheelQueue`] and the async runtime's deadline `Timer`: a
//! tiered calendar queue in the classic Varghese–Lauck shape. Seven
//! levels of 64 slots each cover a horizon of `64⁷ = 2⁴²` ticks; an
//! event lands on the level where its tick first differs from the
//! wheel's current position (so near-horizon events — the ones that
//! dominate barrier simulation — get level 0 and O(1) handling), and a
//! binary-heap overflow tier holds everything beyond the horizon,
//! including the `+∞` "never" sentinel.
//!
//! The wheel deliberately does **not** order items *within* one tick:
//! [`TickWheel::drain_next`] hands the caller a whole tick's bucket and
//! the caller imposes its own exact order (the DES sorts by
//! `(SimTime, seq)`, the timer partitions by deadline). Because the
//! tick function is a monotone quantization of time, bucket order is
//! always consistent with time order, so exact total order is
//! recovered by sorting inside each bucket.
//!
//! Lazy cancellation is supported through the `keep` predicate every
//! draining entry point takes: items failing `keep` are dropped — and
//! accounted — wherever the wheel touches them, which includes every
//! cascade of a coarse bucket into finer levels. Tombstones therefore
//! never survive a cascade, and [`TickWheel::compact`] sweeps the
//! whole structure on demand (the queue layer triggers it when
//! tombstones outnumber live items).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits per level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Slot-index mask within a level.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels; beyond them lies the overflow heap.
const LEVELS: usize = 7;
/// Ticks covered by the wheels before the overflow tier takes over.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// One wheel level: 64 buckets plus a one-word occupancy bitmap, so
/// finding the next occupied bucket is a rotate plus trailing-zeros.
struct Level<T> {
    occupied: u64,
    slots: [Vec<(u64, T)>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Self {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// An overflow-tier entry, ordered by `(tick, insertion order)` so the
/// tier migrates back into the wheels deterministically.
struct Overflow<T> {
    tick: u64,
    ins: u64,
    item: T,
}

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.ins == other.ins
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.tick.cmp(&other.tick).then(self.ins.cmp(&other.ins))
    }
}

/// A hierarchical timing wheel holding items of type `T` keyed by an
/// absolute `u64` tick.
///
/// Ticks are opaque to the wheel; callers quantize their own notion of
/// time. Ticks earlier than the wheel's current position are clamped
/// to it (the caller enforces causality; the clamp keeps a benign
/// race — "schedule at the tick being drained" — well-defined).
pub struct TickWheel<T> {
    levels: Vec<Level<T>>,
    overflow: BinaryHeap<Reverse<Overflow<T>>>,
    /// Monotone insertion counter for deterministic overflow order.
    ins: u64,
    /// The wheel's current position: no stored item is earlier.
    current: u64,
    /// Total items stored (all levels plus overflow).
    len: usize,
}

impl<T> Default for TickWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TickWheel<T> {
    /// An empty wheel positioned at tick 0.
    pub fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            ins: 0,
            current: 0,
            len: 0,
        }
    }

    /// Total items stored, including any that a `keep` predicate would
    /// reject (tombstones are only discovered when touched).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current position. Items are never stored earlier.
    pub fn current_tick(&self) -> u64 {
        self.current
    }

    /// Inserts `item` at `tick` (clamped to the current position).
    pub fn insert(&mut self, tick: u64, item: T) {
        let tick = tick.max(self.current);
        self.len += 1;
        self.place(tick, item);
    }

    /// Files an item into the level where its tick first differs from
    /// `current` — the invariant that makes `slot = (tick >> shift) &
    /// 63` collision-free within a rotation — or into the overflow
    /// heap beyond the horizon.
    fn place(&mut self, tick: u64, item: T) {
        let diff = tick ^ self.current;
        if diff >> HORIZON_BITS != 0 {
            self.ins += 1;
            self.overflow.push(Reverse(Overflow {
                tick,
                ins: self.ins,
                item,
            }));
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        let shift = LEVEL_BITS * level as u32;
        let slot = ((tick >> shift) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level];
        lv.slots[slot].push((tick, item));
        lv.occupied |= 1 << slot;
    }

    /// The lowest occupied level, its earliest slot (in rotation order
    /// from `current`), and that bucket's starting tick.
    fn earliest_bucket(&self) -> Option<(usize, usize, u64)> {
        for (level, lv) in self.levels.iter().enumerate() {
            if lv.occupied == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let cur_bucket = self.current >> shift;
            let base = (cur_bucket & SLOT_MASK) as u32;
            // Rotate the bitmap so `base` is bit 0; the first set bit
            // is then the earliest slot at or after the cursor.
            let dist = lv.occupied.rotate_right(base).trailing_zeros() as u64;
            let slot = ((base as u64 + dist) & SLOT_MASK) as usize;
            let bucket_start = (cur_bucket + dist) << shift;
            return Some((level, slot, bucket_start));
        }
        None
    }

    /// Advances to — and returns — the exact tick of the earliest
    /// stored item passing `keep`, cascading coarse buckets down and
    /// dropping (and counting out) items that fail `keep` along the
    /// way. Returns `None` when nothing survives.
    ///
    /// After `Some(t)`, the earliest level-0 bucket holds every item
    /// at tick `t` and [`TickWheel::drain_next`] will drain it.
    pub fn next_event_tick(&mut self, keep: &mut dyn FnMut(&T) -> bool) -> Option<u64> {
        loop {
            let Some((level, slot, bucket_start)) = self.earliest_bucket() else {
                // Wheels empty: migrate the overflow tier's horizon in.
                let Reverse(head) = self.overflow.peek()?;
                self.current = self.current.max(head.tick);
                while let Some(Reverse(head)) = self.overflow.peek() {
                    if (head.tick ^ self.current) >> HORIZON_BITS != 0 {
                        break;
                    }
                    let Reverse(of) = self.overflow.pop().expect("peeked");
                    if keep(&of.item) {
                        self.place(of.tick, of.item);
                    } else {
                        self.len -= 1;
                    }
                }
                continue;
            };
            debug_assert!(bucket_start >= self.current);
            self.current = bucket_start;
            if level == 0 {
                // Purge tombstones before reporting: the bucket may
                // hold only dead items, in which case keep looking.
                let lv = &mut self.levels[0];
                let before = lv.slots[slot].len();
                lv.slots[slot].retain(|(_, item)| keep(item));
                self.len -= before - lv.slots[slot].len();
                if lv.slots[slot].is_empty() {
                    lv.occupied &= !(1 << slot);
                    continue;
                }
                return Some(bucket_start);
            }
            // Cascade: redistribute the coarse bucket relative to the
            // advanced cursor; survivors land on strictly finer levels.
            let lv = &mut self.levels[level];
            lv.occupied &= !(1 << slot);
            let items = std::mem::take(&mut lv.slots[slot]);
            for (tick, item) in items {
                debug_assert!(tick >= bucket_start);
                if keep(&item) {
                    self.place(tick, item);
                } else {
                    self.len -= 1;
                }
            }
        }
    }

    /// Drains the earliest non-empty tick's whole bucket (items
    /// passing `keep`, in insertion order) into `out`, returning that
    /// tick. The caller imposes any finer ordering.
    pub fn drain_next(
        &mut self,
        keep: &mut dyn FnMut(&T) -> bool,
        out: &mut Vec<T>,
    ) -> Option<u64> {
        let tick = self.next_event_tick(keep)?;
        let slot = (tick & SLOT_MASK) as usize;
        let lv = &mut self.levels[0];
        lv.occupied &= !(1 << slot);
        let items = std::mem::take(&mut lv.slots[slot]);
        for (t, item) in items {
            debug_assert_eq!(t, tick);
            self.len -= 1;
            if keep(&item) {
                out.push(item);
            }
        }
        Some(tick)
    }

    /// Sweeps every bucket and the overflow tier, dropping items that
    /// fail `keep`. O(len); the queue layer calls this when tombstones
    /// pile up far from the cursor, bounding memory at O(live).
    pub fn compact(&mut self, keep: &mut dyn FnMut(&T) -> bool) {
        let mut dropped = 0usize;
        for lv in &mut self.levels {
            if lv.occupied == 0 {
                continue;
            }
            for slot in 0..SLOTS {
                if lv.occupied & (1 << slot) == 0 {
                    continue;
                }
                let before = lv.slots[slot].len();
                lv.slots[slot].retain(|(_, item)| keep(item));
                dropped += before - lv.slots[slot].len();
                if lv.slots[slot].is_empty() {
                    lv.occupied &= !(1 << slot);
                }
            }
        }
        if !self.overflow.is_empty() {
            let before = self.overflow.len();
            let kept: Vec<Reverse<Overflow<T>>> = self
                .overflow
                .drain()
                .filter(|Reverse(of)| keep(&of.item))
                .collect();
            dropped += before - kept.len();
            self.overflow = BinaryHeap::from(kept);
        }
        self.len -= dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keep_all<T>() -> impl FnMut(&T) -> bool {
        |_| true
    }

    fn drain_all(w: &mut TickWheel<u64>) -> Vec<(u64, Vec<u64>)> {
        let mut out = Vec::new();
        let mut bucket = Vec::new();
        while let Some(t) = w.drain_next(&mut keep_all(), &mut bucket) {
            let mut items = std::mem::take(&mut bucket);
            items.sort_unstable();
            out.push((t, items));
        }
        out
    }

    #[test]
    fn drains_in_tick_order_across_levels() {
        let mut w = TickWheel::new();
        // Span all levels: near, mid, far, and beyond-horizon ticks.
        let ticks = [
            0u64,
            1,
            63,
            64,
            65,
            4095,
            4096,
            1 << 20,
            (1 << 36) + 17,
            (1 << 42) + 5, // overflow tier
            u64::MAX,      // "never" sentinel
        ];
        for (i, &t) in ticks.iter().enumerate() {
            w.insert(t, i as u64);
        }
        assert_eq!(w.len(), ticks.len());
        let drained = drain_all(&mut w);
        let got: Vec<u64> = drained.iter().map(|(t, _)| *t).collect();
        let mut want = ticks.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_items_share_one_bucket() {
        let mut w = TickWheel::new();
        for i in 0..10u64 {
            w.insert(100, i);
        }
        w.insert(99, 99);
        let drained = drain_all(&mut w);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0], (99, vec![99]));
        assert_eq!(drained[1], (100, (0..10).collect::<Vec<_>>()));
    }

    #[test]
    fn past_ticks_clamp_to_current() {
        let mut w = TickWheel::new();
        w.insert(50, 1);
        let mut bucket = Vec::new();
        assert_eq!(w.drain_next(&mut keep_all(), &mut bucket), Some(50));
        // 10 < current position 50: clamped, drains immediately next.
        w.insert(10, 2);
        bucket.clear();
        assert_eq!(w.drain_next(&mut keep_all(), &mut bucket), Some(50));
        assert_eq!(bucket, vec![2]);
    }

    #[test]
    fn keep_predicate_compacts_on_cascade() {
        let mut w = TickWheel::new();
        // A far tick forces at least one cascade before level 0.
        for i in 0..100u64 {
            w.insert(5000 + i, i);
        }
        assert_eq!(w.len(), 100);
        // Drop odd items wherever the wheel touches them.
        let mut keep = |v: &u64| v % 2 == 0;
        let mut bucket = Vec::new();
        let mut seen = Vec::new();
        while w.drain_next(&mut keep, &mut bucket).is_some() {
            seen.append(&mut bucket);
        }
        assert_eq!(seen.len(), 50);
        assert!(seen.iter().all(|v| v % 2 == 0));
        assert!(w.is_empty(), "dropped items must leave the count");
    }

    #[test]
    fn compact_drops_everywhere_including_overflow() {
        let mut w = TickWheel::new();
        for i in 0..64u64 {
            w.insert(i * 1000, i);
        }
        w.insert(1 << 50, 1000);
        w.insert(1 << 51, 1001);
        assert_eq!(w.len(), 66);
        w.compact(&mut |v| v % 2 == 0);
        assert_eq!(w.len(), 33); // 32 even wheel items + the even overflow one
        let drained: Vec<u64> = {
            let mut all = Vec::new();
            let mut b = Vec::new();
            while w.drain_next(&mut keep_all(), &mut b).is_some() {
                all.append(&mut b);
            }
            all
        };
        assert_eq!(drained.len(), 33);
        assert!(drained.contains(&1000));
        assert!(!drained.contains(&1001));
    }

    #[test]
    fn overflow_tier_reseeds_the_wheels() {
        let mut w = TickWheel::new();
        // Everything beyond the 2^42 horizon.
        let base = 1u64 << 43;
        for i in (0..200u64).rev() {
            w.insert(base + i * 7, i);
        }
        let drained = drain_all(&mut w);
        let ticks: Vec<u64> = drained.iter().map(|(t, _)| *t).collect();
        let want: Vec<u64> = (0..200u64).map(|i| base + i * 7).collect();
        assert_eq!(ticks, want);
    }

    #[test]
    fn next_event_tick_is_exact_not_bucket_start() {
        let mut w = TickWheel::new();
        // Lands on level 2 initially; its exact tick is 4100, while the
        // containing level-2 bucket starts at 4096.
        w.insert(4100, 7);
        assert_eq!(w.next_event_tick(&mut keep_all()), Some(4100));
        let mut bucket = Vec::new();
        assert_eq!(w.drain_next(&mut keep_all(), &mut bucket), Some(4100));
        assert_eq!(bucket, vec![7]);
    }

    #[test]
    fn interleaved_insert_and_drain_stays_ordered() {
        let mut w = TickWheel::new();
        let mut expect = Vec::new();
        let mut got = Vec::new();
        let mut bucket = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..50 {
            for _ in 0..20 {
                let t = w.current_tick() + step() % 10_000;
                expect.push(t);
                w.insert(t, t);
            }
            if round % 2 == 0 {
                while let Some(t) = w.drain_next(&mut keep_all(), &mut bucket) {
                    for &v in &bucket {
                        assert_eq!(v, t);
                        got.push(v);
                    }
                    bucket.clear();
                    if got.len() % 7 == 0 {
                        break; // leave some pending for the next round
                    }
                }
            }
        }
        while w.drain_next(&mut keep_all(), &mut bucket).is_some() {
            got.append(&mut bucket);
        }
        // Every inserted tick came back out, each bucket at its exact
        // tick, and the drain sequence is sorted (ticks clamped to the
        // cursor drain at the cursor, so compare multisets + order).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert!(got.windows(2).all(|p| {
            // non-decreasing except for clamped re-inserts, which can
            // only appear at the current cursor — still non-decreasing
            p[0] <= p[1] || p[1] >= w.current_tick()
        }));
    }
}
