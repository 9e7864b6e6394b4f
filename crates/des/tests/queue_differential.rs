//! Differential test: [`HeapQueue`] and [`WheelQueue`] are
//! observationally identical [`EventQueue`]s.
//!
//! The repo's hand-rolled property style: seeded splitmix64 streams
//! generate randomized schedule / cancel / pop interleavings, and the
//! two implementations must pop byte-identical `(time, seq, payload)`
//! sequences — the `(time, seq)` total order an event loop's
//! determinism rests on. Cancelled events must never
//! surface from either.

use combar_des::{Cancellation, Duration, Event, EventQueue, HeapQueue, SimTime, WheelQueue};

/// splitmix64 — the repo's standard seed hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One randomized scenario: a stream of operations derived purely from
/// `seed`, applied identically to both queues.
fn run_scenario(seed: u64, ops: usize, resolution_us: f64) {
    let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(ops);
    let mut wheel: WheelQueue<u64> = WheelQueue::with_resolution(resolution_us);
    // Tokens shared between the two queues: cancelling affects both
    // identically, as one token would guard events in one queue.
    let mut tokens_h: Vec<Cancellation> = Vec::new();
    let mut tokens_w: Vec<Cancellation> = Vec::new();
    let mut cancelled: Vec<bool> = Vec::new();
    let mut seq = 0u64;
    let mut live = 0i64;
    // Schedules never go backwards in time relative to the last pop —
    // an event loop's causality assert guarantees this in real use, and
    // the wheel clamps past ticks to its current tick while the heap
    // would not, so monotone schedules are part of the contract.
    let mut floor_us = 0.0f64;
    for step in 0..ops {
        let r = mix(seed ^ step as u64);
        match r % 10 {
            // 0..=5: schedule, sometimes cancellable, with coarse
            // times so equal-time FIFO ties actually happen.
            0..=5 => {
                let at = SimTime::from_us(floor_us + ((r >> 8) % 97) as f64 * 0.5);
                if r & (1 << 40) != 0 {
                    let th = Cancellation::default();
                    let tw = Cancellation::default();
                    heap.schedule(at, seq, Event::cancellable(seq, &th));
                    wheel.schedule(at, seq, Event::cancellable(seq, &tw));
                    tokens_h.push(th);
                    tokens_w.push(tw);
                    cancelled.push(false);
                } else {
                    heap.schedule(at, seq, Event::new(seq));
                    wheel.schedule(at, seq, Event::new(seq));
                }
                seq += 1;
                live += 1;
            }
            // 6..=7: cancel a random not-yet-cancelled token.
            6..=7 if !tokens_h.is_empty() => {
                let i = ((r >> 16) % tokens_h.len() as u64) as usize;
                if !cancelled[i] {
                    tokens_h[i].cancel();
                    tokens_w[i].cancel();
                    cancelled[i] = true;
                }
            }
            // 8..=9 (and the no-token cancel fallthrough): pop once.
            _ => {
                let h = heap.pop_next();
                let w = wheel.pop_next();
                assert_eq!(h, w, "seed {seed} step {step}: pop divergence");
                if let Some((t, s, payload)) = h {
                    assert_eq!(s, payload, "payload tracks seq in this harness");
                    assert!(t.as_us() >= floor_us, "pops must be time-ordered");
                    floor_us = t.as_us();
                    live -= 1;
                }
            }
        }
    }
    // Drain both to the end: the full tail must agree too, and every
    // live (non-cancelled) event must eventually surface.
    let mut drained = 0i64;
    loop {
        let h = heap.pop_next();
        let w = wheel.pop_next();
        assert_eq!(h, w, "seed {seed}: tail divergence");
        match h {
            Some((t, _, _)) => {
                assert!(t.as_us() >= floor_us);
                floor_us = t.as_us();
                drained += 1;
            }
            None => break,
        }
    }
    let dead = cancelled.iter().filter(|&&c| c).count() as i64;
    assert!(
        drained >= live - dead,
        "seed {seed}: drained {drained} of {live} live ({dead} cancelled)"
    );
    assert!(heap.is_empty() && wheel.is_empty(), "seed {seed}");
}

#[test]
fn random_churn_pops_identically() {
    for seed in 0..8 {
        run_scenario(mix(0xd1ff ^ seed), 4_000, 1.0);
    }
}

/// Coarse buckets force many events per tick (intra-bucket sorting);
/// fine buckets force deep cascades — both must stay identical.
#[test]
fn resolution_does_not_change_observable_order() {
    for &res in &[0.125, 1.0, 16.0, 1024.0] {
        run_scenario(0x000c_0a5e, 2_000, res);
    }
}

/// `next_time` agrees between implementations at every step and is
/// exactly the time of the following pop (peek must reap tombstones,
/// never report a cancelled event's time).
#[test]
fn peek_matches_pop_after_cancellations() {
    let mut heap: HeapQueue<u64> = HeapQueue::default();
    let mut wheel: WheelQueue<u64> = WheelQueue::new();
    let mut tokens = Vec::new();
    for i in 0..500u64 {
        let at = SimTime::from_us(((mix(i) % 200) as f64) * 0.25);
        if i % 3 == 0 {
            let th = Cancellation::default();
            let tw = Cancellation::default();
            heap.schedule(at, i, Event::cancellable(i, &th));
            wheel.schedule(at, i, Event::cancellable(i, &tw));
            tokens.push((th, tw));
        } else {
            heap.schedule(at, i, Event::new(i));
            wheel.schedule(at, i, Event::new(i));
        }
    }
    for (th, tw) in &tokens {
        th.cancel();
        tw.cancel();
    }
    loop {
        let peek_h = heap.next_time();
        let peek_w = wheel.next_time();
        assert_eq!(peek_h, peek_w);
        let pop_h = heap.pop_next();
        let pop_w = wheel.pop_next();
        assert_eq!(pop_h, pop_w);
        match pop_h {
            Some((t, s, _)) => {
                assert_eq!(peek_h, Some(t));
                assert!(s % 3 != 0, "cancelled events must never surface");
            }
            None => {
                assert_eq!(peek_h, None);
                break;
            }
        }
    }
}

/// Equal-time FIFO: a burst at one instant pops in schedule order from
/// both queues, interleaved with a second burst at a later instant.
#[test]
fn equal_time_bursts_pop_in_fifo_order() {
    let mut heap: HeapQueue<u64> = HeapQueue::default();
    let mut wheel: WheelQueue<u64> = WheelQueue::new();
    let t0 = SimTime::from_us(10.0);
    let t1 = t0 + Duration::from_us(0.25); // same wheel tick as t0
    for i in 0..64u64 {
        let at = if i % 2 == 0 { t0 } else { t1 };
        heap.schedule(at, i, Event::new(i));
        wheel.schedule(at, i, Event::new(i));
    }
    let mut last = (SimTime::ZERO, 0u64);
    for _ in 0..64 {
        let h = heap.pop_next().unwrap();
        let w = wheel.pop_next().unwrap();
        assert_eq!(h, w);
        assert!((h.0, h.1) > last || last == (SimTime::ZERO, 0));
        last = (h.0, h.1);
    }
}
