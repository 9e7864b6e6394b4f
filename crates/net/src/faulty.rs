//! [`FaultyTransport`]: a decorator that subjects any [`Transport`] to
//! a deterministic [`NetFaultPlan`] — drops, duplicates, bounded
//! delays, reorders, and disconnect windows.
//!
//! The decorator interprets two independent plan streams, one per
//! direction (`send_stream` for outbound frames, `recv_stream` for
//! inbound), indexed by a per-direction message counter. Given the same
//! plan and the same traffic, the injected fault *schedule* is
//! bit-identical across runs; what stays nondeterministic is only the
//! wall-clock interleaving of the underlying wire, which the protocol
//! tolerates by construction.
//!
//! Faults are applied on the decorated side:
//!
//! * `Drop` — the frame is discarded (outbound: never sent; inbound:
//!   received and thrown away).
//! * `Duplicate` — the frame goes through twice.
//! * `Delay(d)` — the frame is held back until `d` later frames have
//!   passed in the same direction (or, inbound, until the wire has
//!   stayed quiet for a full grace period — a late datagram still
//!   arrives eventually, but a caller polling in short slices must not
//!   shake one loose per poll).
//! * `Reorder` — the frame swaps places with its successor
//!   (held back exactly one frame).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use combar_chaos::{NetFault, NetFaultPlan};

use crate::transport::{NetError, Transport};

/// How long the inbound wire must stay continuously silent before a
/// held (delayed) frame is surfaced out of schedule. Tracked *across*
/// `recv_timeout` calls: a driver polling in 1 ms slices accumulates
/// toward one grace period instead of shaking a held frame loose per
/// poll (which would quietly neutralize `Delay` semantics), while a
/// genuinely quiet wire — no later traffic will ever advance the
/// release index — still delivers every held datagram eventually.
const QUIET_WIRE_GRACE: Duration = Duration::from_millis(10);

/// A [`Transport`] wrapper that injects wire faults from a
/// deterministic plan. See the module docs for semantics.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: NetFaultPlan,
    send_stream: u64,
    recv_stream: u64,
    send_idx: u64,
    recv_idx: u64,
    /// Outbound frames held by `Delay`/`Reorder`: `(release_at, frame)`
    /// released once `send_idx` reaches `release_at`.
    send_held: Vec<(u64, Vec<u8>)>,
    /// Inbound frames held by `Delay`/`Reorder`, in arrival order.
    recv_held: Vec<(u64, Vec<u8>)>,
    /// Inbound frames ready to deliver (duplicates, released holds).
    recv_ready: VecDeque<Vec<u8>>,
    /// Since when the inbound wire has been silent (`None` right after
    /// a frame is surfaced; re-armed on the next receive attempt).
    recv_quiet_since: Option<Instant>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, driving faults from `plan` streams
    /// `send_stream` (outbound) and `recv_stream` (inbound).
    ///
    /// The convention used by the client library is
    /// `send_stream = 2·session`, `recv_stream = 2·session + 1`, so one
    /// plan gives every session's every direction an independent,
    /// reproducible schedule.
    pub fn new(inner: T, plan: NetFaultPlan, send_stream: u64, recv_stream: u64) -> Self {
        Self {
            inner,
            plan,
            send_stream,
            recv_stream,
            send_idx: 0,
            recv_idx: 0,
            send_held: Vec::new(),
            recv_held: Vec::new(),
            recv_ready: VecDeque::new(),
            recv_quiet_since: None,
        }
    }

    /// Consumes the decorator, returning the underlying transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn flush_due_sends(&mut self) -> Result<(), NetError> {
        let idx = self.send_idx;
        let mut due: Vec<Vec<u8>> = Vec::new();
        self.send_held.retain_mut(|(at, f)| {
            if *at <= idx {
                due.push(std::mem::take(f));
                false
            } else {
                true
            }
        });
        for f in due {
            self.inner.send(&f)?;
        }
        Ok(())
    }

    fn release_due_recvs(&mut self) {
        let idx = self.recv_idx;
        let ready = &mut self.recv_ready;
        self.recv_held.retain_mut(|(at, f)| {
            if *at <= idx {
                ready.push_back(std::mem::take(f));
                false
            } else {
                true
            }
        });
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let idx = self.send_idx;
        self.send_idx += 1;
        match self.plan.fault(self.send_stream, idx) {
            None => self.inner.send(frame)?,
            Some(NetFault::Drop) => {}
            Some(NetFault::Duplicate) => {
                self.inner.send(frame)?;
                self.inner.send(frame)?;
            }
            Some(NetFault::Delay(d)) => {
                self.send_held.push((idx + u64::from(d), frame.to_vec()));
            }
            Some(NetFault::Reorder) => {
                self.send_held.push((idx + 1, frame.to_vec()));
            }
        }
        self.flush_due_sends()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let deadline = Instant::now() + timeout;
        // Arm the silence clock if it isn't running: quiet time
        // accumulates across calls so short polls sum toward the grace.
        self.recv_quiet_since.get_or_insert_with(Instant::now);
        // Look, then check the clock: a zero timeout still reads the
        // wire once (without blocking), like the endpoints it wraps.
        let mut looked = false;
        loop {
            if let Some(f) = self.recv_ready.pop_front() {
                return Ok(f);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() && looked {
                // Only after a full quiet-wire grace — not on every
                // caller-timeout expiry — does a held frame surface out
                // of schedule: a "delayed" datagram still arrives
                // eventually rather than wedging behind traffic that
                // never comes, oldest first (FIFO, like the wire).
                if !self.recv_held.is_empty()
                    && self
                        .recv_quiet_since
                        .is_some_and(|q| q.elapsed() >= QUIET_WIRE_GRACE)
                {
                    self.recv_quiet_since = None;
                    return Ok(self.recv_held.remove(0).1);
                }
                return Err(NetError::Timeout);
            }
            looked = true;
            match self.inner.recv_timeout(remaining) {
                Ok(frame) => {
                    self.recv_quiet_since = Some(Instant::now());
                    let idx = self.recv_idx;
                    self.recv_idx += 1;
                    match self.plan.fault(self.recv_stream, idx) {
                        None => self.recv_ready.push_back(frame),
                        Some(NetFault::Drop) => {}
                        Some(NetFault::Duplicate) => {
                            self.recv_ready.push_back(frame.clone());
                            self.recv_ready.push_back(frame);
                        }
                        Some(NetFault::Delay(d)) => {
                            self.recv_held.push((idx + u64::from(d), frame));
                        }
                        Some(NetFault::Reorder) => {
                            self.recv_held.push((idx + 1, frame));
                        }
                    }
                    self.release_due_recvs();
                }
                Err(NetError::Timeout) => continue, // re-check deadline
                Err(NetError::Closed) => {
                    // Drain anything still held, oldest first, before
                    // reporting EOF.
                    if !self.recv_held.is_empty() {
                        return Ok(self.recv_held.remove(0).1);
                    }
                    return Err(NetError::Closed);
                }
            }
        }
    }

    /// Identity boundary: a held or ready inbound frame was addressed
    /// to the *previous* incarnation of this endpoint (an evicted
    /// session whose id a rejoin just reused, or a pre-restart server
    /// talking to a resumed client). Replaying it into the new identity
    /// is a latent exactly-once violation — e.g. a stale `Release` for
    /// an epoch the reincarnated session never arrived for — so the
    /// boundary discards the backlog instead of delivering it.
    fn flush_stale(&mut self) {
        self.recv_held.clear();
        self.recv_ready.clear();
        self.recv_quiet_since = None;
        self.inner.flush_stale();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{HOLD, MAX_COPIES};
    use crate::simnet::{self, Episode, Scenario, Verdict};
    use crate::transport::loopback_pair;
    use combar_chaos::NetChaosConfig;

    const T: Duration = Duration::from_millis(50);

    #[test]
    fn quiet_plan_passes_traffic_through() {
        let (a, mut b) = loopback_pair();
        let mut f = FaultyTransport::new(a, NetFaultPlan::quiet(1), 0, 1);
        for i in 0..10u8 {
            f.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv_timeout(T).unwrap(), vec![i]);
        }
    }

    #[test]
    fn full_drop_plan_sends_nothing() {
        let (a, mut b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 2,
            drop_prob: 1.0,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(a, plan, 0, 1);
        for i in 0..8u8 {
            f.send(&[i]).unwrap();
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn full_duplicate_plan_doubles_every_frame() {
        let (a, mut b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 3,
            dup_prob: 1.0,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(a, plan, 0, 1);
        f.send(&[7]).unwrap();
        assert_eq!(b.recv_timeout(T).unwrap(), vec![7]);
        assert_eq!(b.recv_timeout(T).unwrap(), vec![7]);
    }

    #[test]
    fn inbound_faults_apply_on_receive_side() {
        let (mut a, b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 4,
            drop_prob: 1.0,
            ..NetChaosConfig::default()
        });
        // recv_stream = 9 is the all-drop stream here.
        let mut f = FaultyTransport::new(b, NetFaultPlan::quiet(0), 8, 9);
        f.plan = plan;
        a.send(&[1]).unwrap();
        assert_eq!(
            f.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn delayed_frames_are_released_by_later_traffic() {
        let (a, mut b) = loopback_pair();
        // Delay every frame by exactly 1 → consecutive pairs swap.
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 5,
            reorder_prob: 1.0,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(a, plan, 0, 1);
        f.send(&[1]).unwrap(); // held
        f.send(&[2]).unwrap(); // held; frame 1 released
        f.send(&[3]).unwrap(); // held; frame 2 released
        assert_eq!(b.recv_timeout(T).unwrap(), vec![1]);
        assert_eq!(b.recv_timeout(T).unwrap(), vec![2]);
    }

    #[test]
    fn quiet_wire_releases_held_frames_oldest_first() {
        let (mut a, b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 11,
            delay_prob: 1.0,
            max_delay_msgs: 8,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(b, plan, 0, 1);
        a.send(&[1]).unwrap();
        a.send(&[2]).unwrap();
        // Both inbound frames are delayed; on a quiet wire they must
        // surface in arrival order (FIFO, like a real late datagram),
        // not newest-first.
        assert_eq!(f.recv_timeout(Duration::from_millis(20)).unwrap(), vec![1]);
        assert_eq!(f.recv_timeout(Duration::from_millis(20)).unwrap(), vec![2]);
    }

    #[test]
    fn short_polls_do_not_shake_held_frames_loose() {
        let (mut a, b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 12,
            delay_prob: 1.0,
            max_delay_msgs: 8,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(b, plan, 0, 1);
        a.send(&[9]).unwrap();
        // A client-style 1 ms poll cadence: every expiry inside the
        // quiet-wire grace must report Timeout rather than leaking the
        // held frame, or Delay degenerates to a single poll's worth of
        // latency. So the frame surfaces no earlier than the grace after
        // `t0`, read before the first poll; a host stall only adds to it.
        let t0 = Instant::now();
        let frame = loop {
            match f.recv_timeout(Duration::from_millis(1)) {
                Ok(frame) => break frame,
                Err(NetError::Timeout) => {}
                Err(e) => panic!("unexpected error: {e:?}"),
            }
            assert!(t0.elapsed() < Duration::from_secs(2), "never surfaced");
        };
        assert_eq!(frame, vec![9]);
        let held = t0.elapsed();
        assert!(held >= QUIET_WIRE_GRACE, "held frame leaked after {held:?}");
    }

    #[test]
    fn flush_stale_drops_held_frames_across_an_identity_boundary() {
        let (mut a, b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 13,
            delay_prob: 1.0,
            max_delay_msgs: 8,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(b, plan, 0, 1);
        // A frame destined for the session's *first* incarnation gets
        // held by the delay fault...
        a.send(&[42]).unwrap();
        assert_eq!(
            f.recv_timeout(Duration::from_millis(1)),
            Err(NetError::Timeout),
            "frame should be held, not delivered"
        );
        // ...then the session is evicted and its id reused by a rejoin:
        // the boundary flushes the backlog. Without the flush, the held
        // frame would surface on the quiet wire below and be delivered
        // to the reincarnated session — the regression this test pins.
        f.flush_stale();
        assert_eq!(
            f.recv_timeout(QUIET_WIRE_GRACE + Duration::from_millis(20)),
            Err(NetError::Timeout),
            "stale pre-eviction frame was replayed to the reused session id"
        );
        // The new incarnation's own traffic still flows (the next frame
        // is fault-index 1, which this seed leaves clean — and even if
        // delayed it must eventually surface).
        a.send(&[7]).unwrap();
        let got = loop {
            match f.recv_timeout(Duration::from_millis(20)) {
                Ok(frame) => break frame,
                Err(NetError::Timeout) => continue,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        };
        assert_eq!(got, vec![7]);
    }

    /// The independence the client's and server's redundant copies rest
    /// on, checked on the plan the lossy workloads use. Drops on one
    /// stream are independent, so two copies in a row are both lost
    /// with probability p², and an episode of 16 sessions — an `Arrive`
    /// out and a `Release` in for each, on the `2·sid` / `2·sid + 1`
    /// streams — needs no repair (1 − p)³² = 19.4 % of the time with one
    /// copy of each frame and (1 − p²)³² = 92.3 % with two. Those rates
    /// hold only while every frame is copied; how often it is, is the
    /// copy rule's business (the next test). Burst loss gets no such
    /// benefit: inside a disconnect window the second copy falls with
    /// the first.
    #[test]
    fn independent_drops_lose_both_copies_at_p_squared() {
        let p = 0.05;
        let dropped =
            |plan: &NetFaultPlan, stream, idx| plan.fault(stream, idx) == Some(NetFault::Drop);
        // Of `pairs` adjacent index pairs: how many lose the first copy,
        // and how many lose both.
        let pair_drops = |plan: &NetFaultPlan, pairs: u64| {
            let first: Vec<u64> = (0..pairs).filter(|&i| dropped(plan, 0, 2 * i)).collect();
            let both = first
                .iter()
                .filter(|&&i| dropped(plan, 0, 2 * i + 1))
                .count();
            (first.len() as f64, both as f64)
        };
        let lossy = NetFaultPlan::new(NetChaosConfig::lossy(7, p));
        let both = pair_drops(&lossy, 200_000).1 / 200_000.0;
        assert!((both - p * p).abs() < 0.0006, "both copies lost: {both}");

        let repair_free = |copies: u64| {
            let episodes = 10_000;
            let clean = (0..episodes)
                .filter(|&e| {
                    (0..32)
                        .all(|stream| (0..copies).any(|c| !dropped(&lossy, stream, e * copies + c)))
                })
                .count();
            clean as f64 / episodes as f64
        };
        let (one, two) = (repair_free(1), repair_free(2));
        assert!((one - (1.0 - p).powi(32)).abs() < 0.015, "k = 1: {one}");
        assert!((two - (1.0 - p * p).powi(32)).abs() < 0.015, "k = 2: {two}");

        // The same 5 % mean loss as windows of eight drops.
        let bursty = NetFaultPlan::new(NetChaosConfig {
            seed: 7,
            disconnect_prob: p / 8.0,
            disconnect_len: 8,
            ..NetChaosConfig::default()
        });
        let (first, both) = pair_drops(&bursty, 20_000);
        assert!(
            both / first > 0.5,
            "a burst spared the second copy: {both} of {first}"
        );
    }

    /// Sixteen sessions on one shard in `simnet`, the real client and
    /// shard cores, crossing in rounds as the `served_*` workloads do (on
    /// their 10 ms request timeout and 200 µs tick) until each has crossed
    /// `episodes`. The wire plays `plan` until root episode `calm_from`,
    /// then goes quiet.
    fn copy_rule(plan: NetFaultPlan, episodes: u64, calm_from: u64) -> Verdict {
        let scenario = Scenario {
            plan: vec![(0, plan), (calm_from, NetFaultPlan::quiet(7))],
            lockstep: true,
            ..Scenario::new(16, episodes)
        };
        simnet::run(Instant::now(), 7, &scenario)
    }

    /// The copy rule under the client's and the shard's re-sends. At 5 %
    /// independent loss on both ways, 0.84 % of 5 000 episodes need a
    /// repair, a shard's `Overdue` round or a client's time-out (0.47 % of
    /// 50 000). The 17 that wait a client's time-out re-send are all among
    /// the first 90, while the shard's loss memory still holds one copy
    /// and sends no `Overdue`; none waits after the first 200. Frames per
    /// episode stay at 96: the rounds a session reads while it holds its
    /// next arrival keep its client at three copies. A quiet wire shows no
    /// evidence and, once the joins are done, sends 32 frames an episode,
    /// each once; bursts push a frame to three copies and never past; and
    /// once loss stops every frame is back to one copy within 2 · `HOLD`
    /// episodes.
    #[test]
    fn loss_memory_holds_copies_while_loss_persists_and_only_then() {
        const EPISODES: usize = 5_000;
        let calm = 2 * u64::from(HOLD);
        let most = |episodes: &[Episode]| episodes.iter().map(|e| e.most).max();
        let repairs = |e: &Episode| e.rounds + e.timeouts;
        let lossy = NetFaultPlan::new(NetChaosConfig::lossy(7, 0.05));
        let run = copy_rule(lossy, EPISODES as u64 + calm, EPISODES as u64);
        let (lossy, calmed) = run.episodes[..run.released as usize].split_at(EPISODES);
        let repaired = lossy.iter().filter(|e| repairs(e) > 0).count();
        let repaired = repaired as f64 / EPISODES as f64;
        assert!(repaired <= 0.03, "{repaired} of episodes repaired");
        let waited = lossy.iter().rposition(|e| e.timeouts > 0);
        assert!(waited < Some(200), "episode {waited:?} waited a re-send");
        assert_eq!(most(lossy), Some(MAX_COPIES));
        let last = calmed.last().map(|e| e.most);
        assert_eq!(last, Some(1), "loss stopped, copies held");

        let quiet = copy_rule(NetFaultPlan::quiet(7), calm, 0);
        assert!(quiet.episodes.iter().all(|e| repairs(e) == 0));
        // The joins take three episodes: all but the first session join
        // the second by proxy, and their arrivals for it are re-acked.
        let settled = &quiet.episodes[3..quiet.released as usize];
        assert!(settled.iter().all(|e| (e.frames, e.most) == (32, 1)));

        let bursty = NetFaultPlan::new(NetChaosConfig {
            seed: 7,
            disconnect_prob: 0.05 / 8.0,
            disconnect_len: 8,
            ..NetChaosConfig::default()
        });
        let bursty = copy_rule(bursty, 500, u64::MAX);
        assert!(bursty.episodes.iter().any(|e| repairs(e) > 0));
        assert_eq!(most(&bursty.episodes), Some(MAX_COPIES));
    }

    #[test]
    fn held_inbound_frame_surfaces_on_quiet_wire() {
        let (mut a, b) = loopback_pair();
        let plan = NetFaultPlan::new(NetChaosConfig {
            seed: 6,
            delay_prob: 1.0,
            max_delay_msgs: 8,
            ..NetChaosConfig::default()
        });
        let mut f = FaultyTransport::new(b, plan, 0, 1);
        a.send(&[9]).unwrap();
        // The only frame is held; once the wire goes quiet the decorator
        // must surface it instead of timing out forever.
        assert_eq!(f.recv_timeout(Duration::from_millis(20)).unwrap(), vec![9]);
    }
}
