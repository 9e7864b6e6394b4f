//! A pending-event set, abstracted.
//!
//! [`EventQueue`] is the seam between an event loop, which numbers its
//! events, and the data structure holding them pending. Two
//! implementations ship:
//!
//! * [`HeapQueue`] — a `BinaryHeap`, O(log n) per operation;
//! * [`WheelQueue`] — a hierarchical timing wheel
//!   ([`crate::wheel::TickWheel`]) with O(1) near-horizon scheduling.
//!
//! # Ordering contract
//!
//! Both implementations observe the same hard contract, stated here
//! once and tested differentially: events pop in ascending
//! `(time, seq)` order — **FIFO at equal time** — where `seq` is the
//! caller's monotone scheduling sequence number. Two events at the
//! same `SimTime` fire in the order they were scheduled, bit-for-bit
//! identically across queue implementations.
//!
//! # Cancellation
//!
//! Cancellation is lazy: a cancelled event stays in the queue as a
//! *tombstone* until the structure touches it, at which point it is
//! reaped (dropped and subtracted from the shared ledger). The
//! [`Cancellation`] token carries the accounting: it counts how many
//! queued events it guards, and `cancel()` moves that count onto a
//! shared ledger, so `queue.len() − ledger` counts live events exactly
//! even while tombstones are physically present. Both implementations
//! reap tombstones wherever they touch them — the heap on pop/peek, the
//! wheel additionally on every cascade — and [`EventQueue::compact`]
//! purges them eagerly.

use crate::time::SimTime;
use crate::wheel::TickWheel;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Shared count of queued-but-cancelled events (tombstones). Every
/// token sharing one ledger charges it; `queue.len() - ledger` is then
/// the exact live pending count.
pub(crate) type Ledger = Rc<Cell<u64>>;

#[derive(Debug)]
struct CancelInner {
    cancelled: Cell<bool>,
    /// Events currently queued under this token.
    queued: Cell<u64>,
    ledger: Ledger,
}

/// Token disarming the events queued under it (see
/// [`Event::cancellable`]). Cloneable; any clone cancels all events
/// scheduled under the token.
#[derive(Debug, Clone)]
pub struct Cancellation {
    inner: Rc<CancelInner>,
}

impl Default for Cancellation {
    fn default() -> Self {
        Self::with_ledger(Rc::new(Cell::new(0)))
    }
}

impl Cancellation {
    /// A standalone token with a ledger of its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token whose tombstones are counted on `ledger`.
    pub(crate) fn with_ledger(ledger: Ledger) -> Self {
        Self {
            inner: Rc::new(CancelInner {
                cancelled: Cell::new(false),
                queued: Cell::new(0),
                ledger,
            }),
        }
    }

    /// Disarms the associated event(s). Queued events become
    /// tombstones: invisible to `pop`, excluded from the ledger's
    /// live count, physically reclaimed when the queue next
    /// touches (or compacts) them.
    pub fn cancel(&self) {
        if !self.inner.cancelled.get() {
            self.inner.cancelled.set(true);
            let l = &self.inner.ledger;
            l.set(l.get() + self.inner.queued.get());
        }
    }

    /// Whether the event has been disarmed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.get()
    }

    /// Records one more queued event under this token. Events queued
    /// after cancellation are born dead and charged immediately.
    fn attach(&self) {
        self.inner.queued.set(self.inner.queued.get() + 1);
        if self.inner.cancelled.get() {
            let l = &self.inner.ledger;
            l.set(l.get() + 1);
        }
    }

    /// A guarded event left the queue alive (popped for execution).
    fn note_popped_live(&self) {
        self.inner.queued.set(self.inner.queued.get() - 1);
    }

    /// A tombstone was physically reclaimed.
    fn note_reaped(&self) {
        self.inner.queued.set(self.inner.queued.get() - 1);
        let l = &self.inner.ledger;
        l.set(l.get() - 1);
    }
}

/// A queued event: payload plus optional cancellation token.
///
/// Queues only ever inspect the token (to reap tombstones) and move
/// the payload.
pub struct Event<T> {
    payload: T,
    cancel: Option<Cancellation>,
}

impl<T> Event<T> {
    /// A plain, non-cancellable event.
    pub fn new(payload: T) -> Self {
        Self {
            payload,
            cancel: None,
        }
    }

    /// An event guarded by `token`; registers itself on the token's
    /// queued count so lazy-cancel accounting stays exact.
    pub fn cancellable(payload: T, token: &Cancellation) -> Self {
        token.attach();
        Self {
            payload,
            cancel: Some(token.clone()),
        }
    }

    /// Whether the guarding token (if any) has been cancelled.
    fn is_tombstone(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Reclaims a tombstone in place (the caller drops the event).
    fn reap_in_place(&self) {
        if let Some(c) = &self.cancel {
            c.note_reaped();
        }
    }

    /// Consumes a live event, yielding the payload.
    fn consume(self) -> T {
        if let Some(c) = &self.cancel {
            c.note_popped_live();
        }
        self.payload
    }
}

/// A pending-event set.
///
/// # Contract
///
/// * `pop_next` returns **live** events in strictly ascending
///   `(time, seq)` order — FIFO at equal time. Tombstones (events
///   whose [`Cancellation`] fired) are never returned; they are
///   reaped silently and identically by every implementation, so two
///   implementations fed the same schedule/cancel sequence pop the
///   same events at the same times in the same order.
/// * `seq` values are distinct per queue (the caller's monotone
///   counter); implementations may rely on `(time, seq)` being a
///   total order.
/// * `len` counts physical entries **including** unreaped tombstones;
///   subtract the tombstone ledger to count live events.
/// * `next_time` may mutate (reap through) the structure; it returns
///   the time `pop_next` would pop next.
pub trait EventQueue<T> {
    /// Enqueues `ev` at absolute time `at` with tie-break `seq`.
    fn schedule(&mut self, at: SimTime, seq: u64, ev: Event<T>);

    /// Removes and returns the earliest live event, reaping any
    /// tombstones encountered on the way.
    fn pop_next(&mut self) -> Option<(SimTime, u64, T)>;

    /// The time of the earliest live event, reaping tombstones ahead
    /// of it.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Physical entries held, including unreaped tombstones.
    fn len(&self) -> usize;

    /// Whether the queue holds no physical entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Eagerly reaps every tombstone, bounding memory at O(live).
    fn compact(&mut self);
}

struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    ev: Event<T>,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The binary-heap pending-event set: O(log n) per operation, no
/// setup cost.
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// An empty heap queue sized for `events` pending entries.
    pub fn with_capacity(events: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(events),
        }
    }
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn schedule(&mut self, at: SimTime, seq: u64, ev: Event<T>) {
        self.heap.push(Reverse(HeapEntry { at, seq, ev }));
    }

    fn pop_next(&mut self) -> Option<(SimTime, u64, T)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if entry.ev.is_tombstone() {
                entry.ev.reap_in_place();
                continue;
            }
            return Some((entry.at, entry.seq, entry.ev.consume()));
        }
        None
    }

    fn next_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if !entry.ev.is_tombstone() {
                return Some(entry.at);
            }
            let Reverse(dead) = self.heap.pop().expect("peeked");
            dead.ev.reap_in_place();
        }
        None
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn compact(&mut self) {
        if self.heap.iter().any(|Reverse(e)| e.ev.is_tombstone()) {
            let kept: Vec<Reverse<HeapEntry<T>>> = self
                .heap
                .drain()
                .filter(|Reverse(e)| {
                    if e.ev.is_tombstone() {
                        e.ev.reap_in_place();
                        false
                    } else {
                        true
                    }
                })
                .collect();
            self.heap = BinaryHeap::from(kept);
        }
    }
}

struct WheelEntry<T> {
    at: SimTime,
    seq: u64,
    ev: Event<T>,
}

/// Timing-wheel pending-event set: O(1) scheduling and popping for
/// the near-horizon events that dominate barrier episodes, an
/// overflow heap for far-future ones (including the `+∞` "never"
/// sentinel), and tombstone reaping folded into every wheel cascade.
///
/// Time is quantized to ticks of `resolution_us`; events sharing a
/// tick live in one bucket and are ordered exactly by `(time, seq)`
/// when the bucket is drained, so quantization never perturbs the
/// pop order — only the constant factors.
pub struct WheelQueue<T> {
    wheel: TickWheel<WheelEntry<T>>,
    /// The currently drained bucket, sorted *descending* by
    /// `(at, seq)` so popping is `Vec::pop` from the back.
    bucket: Vec<WheelEntry<T>>,
    /// Tick the current bucket was drained at.
    bucket_tick: u64,
    resolution_us: f64,
    scratch: Vec<WheelEntry<T>>,
}

impl<T> Default for WheelQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WheelQueue<T> {
    /// Default tick resolution: 1 µs — comfortably finer than the
    /// paper's `t_c = 20 µs` service times, with a `2⁴²` µs ≈ 50-day
    /// wheel horizon before the overflow tier engages.
    pub const DEFAULT_RESOLUTION_US: f64 = 1.0;

    /// A wheel queue at the default resolution.
    pub fn new() -> Self {
        Self::with_resolution(Self::DEFAULT_RESOLUTION_US)
    }

    /// A wheel queue with ticks of `resolution_us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics unless `resolution_us` is finite and positive.
    pub fn with_resolution(resolution_us: f64) -> Self {
        assert!(
            resolution_us.is_finite() && resolution_us > 0.0,
            "wheel resolution must be finite and positive, got {resolution_us}"
        );
        Self {
            wheel: TickWheel::new(),
            bucket: Vec::new(),
            bucket_tick: 0,
            resolution_us,
            scratch: Vec::new(),
        }
    }

    /// Monotone quantization of time to a wheel tick. The `as u64`
    /// cast saturates: negative → 0, `+∞` → `u64::MAX`, which routes
    /// "never" events to the overflow tier.
    fn tick_of(&self, at: SimTime) -> u64 {
        (at.as_us() / self.resolution_us) as u64
    }

    /// Refills `bucket` from the wheel's earliest tick, reaping
    /// tombstones the wheel touches. Returns `false` if nothing
    /// remains anywhere.
    fn load_bucket(&mut self) -> bool {
        debug_assert!(self.bucket.is_empty());
        let mut keep = |e: &WheelEntry<T>| {
            if e.ev.is_tombstone() {
                e.ev.reap_in_place();
                false
            } else {
                true
            }
        };
        let Some(tick) = self.wheel.drain_next(&mut keep, &mut self.scratch) else {
            return false;
        };
        // Exact order within the tick: descending (at, seq) so the
        // earliest pops from the back.
        self.scratch
            .sort_by(|a, b| b.at.cmp(&a.at).then(b.seq.cmp(&a.seq)));
        std::mem::swap(&mut self.bucket, &mut self.scratch);
        self.bucket_tick = tick;
        true
    }
}

impl<T> EventQueue<T> for WheelQueue<T> {
    fn schedule(&mut self, at: SimTime, seq: u64, ev: Event<T>) {
        let tick = self.tick_of(at);
        let entry = WheelEntry { at, seq, ev };
        // An event landing on the tick currently being drained must
        // join the live bucket — the wheel has already advanced past
        // that tick. (Causality caps it to the current tick; the
        // binary insert keeps the bucket's descending order.)
        if !self.bucket.is_empty() && tick <= self.bucket_tick {
            let pos = self
                .bucket
                .partition_point(|e| (e.at, e.seq) > (entry.at, entry.seq));
            self.bucket.insert(pos, entry);
        } else {
            self.wheel.insert(tick, entry);
        }
    }

    fn pop_next(&mut self) -> Option<(SimTime, u64, T)> {
        loop {
            match self.bucket.pop() {
                Some(entry) if entry.ev.is_tombstone() => entry.ev.reap_in_place(),
                Some(entry) => return Some((entry.at, entry.seq, entry.ev.consume())),
                None => {
                    if !self.load_bucket() {
                        return None;
                    }
                }
            }
        }
    }

    fn next_time(&mut self) -> Option<SimTime> {
        loop {
            match self.bucket.last() {
                Some(entry) if entry.ev.is_tombstone() => {
                    self.bucket.pop().expect("checked").ev.reap_in_place();
                }
                Some(entry) => return Some(entry.at),
                None => {
                    if !self.load_bucket() {
                        return None;
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.bucket.len() + self.wheel.len()
    }

    fn compact(&mut self) {
        self.bucket.retain(|e| {
            if e.ev.is_tombstone() {
                e.ev.reap_in_place();
                false
            } else {
                true
            }
        });
        self.wheel.compact(&mut |e: &WheelEntry<T>| {
            if e.ev.is_tombstone() {
                e.ev.reap_in_place();
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues() -> Vec<(&'static str, Box<dyn EventQueue<u32>>)> {
        vec![
            ("heap", Box::new(HeapQueue::new())),
            ("wheel", Box::new(WheelQueue::new())),
        ]
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        for (name, mut q) in queues() {
            q.schedule(SimTime::from_us(5.0), 0, Event::new(50));
            q.schedule(SimTime::from_us(1.0), 1, Event::new(10));
            q.schedule(SimTime::from_us(5.0), 2, Event::new(52));
            q.schedule(SimTime::from_us(5.2), 3, Event::new(53));
            q.schedule(SimTime::from_us(1.0), 4, Event::new(11));
            let mut got = Vec::new();
            while let Some((_, _, v)) = q.pop_next() {
                got.push(v);
            }
            assert_eq!(got, vec![10, 11, 50, 52, 53], "{name}");
        }
    }

    #[test]
    fn sub_resolution_times_keep_exact_order() {
        // Times inside one wheel tick (resolution 1 µs) must still
        // pop by exact (time, seq).
        for (name, mut q) in queues() {
            q.schedule(SimTime::from_us(0.9), 0, Event::new(9));
            q.schedule(SimTime::from_us(0.1), 1, Event::new(1));
            q.schedule(SimTime::from_us(0.5), 2, Event::new(5));
            let mut got = Vec::new();
            while let Some((t, _, v)) = q.pop_next() {
                got.push((t.as_us() * 10.0) as u32);
                got.push(v);
            }
            assert_eq!(got, vec![1, 1, 5, 5, 9, 9], "{name}");
        }
    }

    #[test]
    fn tombstones_are_invisible_and_reaped() {
        for (name, mut q) in queues() {
            let ledger: Ledger = Rc::new(Cell::new(0));
            let token = Cancellation::with_ledger(ledger.clone());
            q.schedule(SimTime::from_us(1.0), 0, Event::cancellable(100, &token));
            q.schedule(SimTime::from_us(2.0), 1, Event::new(2));
            q.schedule(SimTime::from_us(3.0), 2, Event::cancellable(300, &token));
            token.cancel();
            assert_eq!(ledger.get(), 2, "{name}: both queued events charged");
            assert_eq!(q.len(), 3, "{name}: physically still present");
            assert_eq!(q.next_time(), Some(SimTime::from_us(2.0)), "{name}");
            let popped: Vec<u32> = std::iter::from_fn(|| q.pop_next().map(|(_, _, v)| v)).collect();
            assert_eq!(popped, vec![2], "{name}");
            assert_eq!(ledger.get(), 0, "{name}: reaping repays the ledger");
            assert_eq!(q.len(), 0, "{name}");
        }
    }

    #[test]
    fn events_attached_after_cancel_are_born_dead() {
        for (name, mut q) in queues() {
            let ledger: Ledger = Rc::new(Cell::new(0));
            let token = Cancellation::with_ledger(ledger.clone());
            token.cancel();
            q.schedule(SimTime::from_us(1.0), 0, Event::cancellable(1, &token));
            assert_eq!(ledger.get(), 1, "{name}");
            assert_eq!(q.pop_next(), None, "{name}");
            assert_eq!(ledger.get(), 0, "{name}");
        }
    }

    #[test]
    fn compact_reclaims_tombstones_eagerly() {
        for (name, mut q) in queues() {
            let ledger: Ledger = Rc::new(Cell::new(0));
            let token = Cancellation::with_ledger(ledger.clone());
            for i in 0..1000u64 {
                q.schedule(
                    SimTime::from_us(10_000.0 + i as f64),
                    i,
                    Event::cancellable(i as u32, &token),
                );
            }
            q.schedule(SimTime::from_us(50.0), 2000, Event::new(7));
            token.cancel();
            assert_eq!(q.len(), 1001, "{name}");
            q.compact();
            assert_eq!(q.len(), 1, "{name}: only the live event survives");
            assert_eq!(ledger.get(), 0, "{name}");
            assert_eq!(
                q.pop_next(),
                Some((SimTime::from_us(50.0), 2000, 7)),
                "{name}"
            );
        }
    }

    #[test]
    fn infinity_is_a_far_future_event_not_an_error() {
        for (name, mut q) in queues() {
            q.schedule(SimTime::from_us(f64::INFINITY), 0, Event::new(99));
            q.schedule(SimTime::from_us(1.0), 1, Event::new(1));
            assert_eq!(q.pop_next().map(|(_, _, v)| v), Some(1), "{name}");
            assert_eq!(q.pop_next().map(|(_, _, v)| v), Some(99), "{name}");
        }
    }

    #[test]
    fn schedule_onto_the_draining_tick_joins_the_bucket() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        q.schedule(SimTime::from_us(5.0), 0, Event::new(0));
        q.schedule(SimTime::from_us(5.5), 1, Event::new(1));
        // Pop the first event of tick 5; the bucket now holds (5.5, 1).
        assert_eq!(q.pop_next(), Some((SimTime::from_us(5.0), 0, 0)));
        // Schedule back onto the in-flight tick, between the popped and
        // the pending event — exact order must hold.
        q.schedule(SimTime::from_us(5.2), 2, Event::new(2));
        assert_eq!(q.pop_next(), Some((SimTime::from_us(5.2), 2, 2)));
        assert_eq!(q.pop_next(), Some((SimTime::from_us(5.5), 1, 1)));
    }

    #[test]
    fn wheel_resolution_is_validated() {
        assert!(std::panic::catch_unwind(|| WheelQueue::<u32>::with_resolution(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| WheelQueue::<u32>::with_resolution(f64::NAN)).is_err());
        let _ = WheelQueue::<u32>::with_resolution(0.25);
    }
}
