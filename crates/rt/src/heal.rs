//! Self-healing supervision: heartbeat failure detection, membership
//! reconfiguration plumbing, and rejoin backoff.
//!
//! PR 1's eviction was one-way and caller-driven: some thread noticed a
//! timeout, called `evict_stragglers()`, and the barrier kept its
//! degraded shape forever. This module closes the loop:
//!
//! 1. **Detect** — [`Supervisor`] keeps one heartbeat slot per
//!    participant, bumped on every `wait*` entry by the integration
//!    layer (the torture harnesses, or any application loop). The grace
//!    window is a *lease* derived from the observed inter-arrival
//!    distribution — `mean + sigma_mult · σ̂`, echoing the paper's
//!    arrival-distribution model — and each consecutive miss doubles
//!    the window before death is declared, so transient yield storms do
//!    not cause false evictions. Heartbeats live outside the barriers
//!    themselves so the barrier hot paths stay clock-free for the
//!    deterministic model checker.
//! 2. **Reconfigure** — [`SelfHealing::fail`] evicts the participant
//!    (the immediate, proxy-based half from PR 1) *and* schedules a
//!    membership detach that the next episode's releaser applies in its
//!    quiescent window, re-parenting orphaned children onto the
//!    grandparent counter (see `Topology::prune_shape`).
//! 3. **Rejoin** — a detached thread re-requests membership through the
//!    roster; the releaser grafts it back at its original leaf at an
//!    episode boundary. [`JitterBackoff`] paces the polling with
//!    jittered exponential delays so a herd of rejoiners does not
//!    hammer the roster.
//!
//! `Membership` is the crate-internal half the counter-barrier core
//! ([`crate::counter`], under central, tree and dynamic) drives: the
//! live-shape flags plus the pending attach/detach requests, with the
//! apply step run only inside
//! the releaser's quiescent window (after the root counter resets,
//! before the epoch bump — every surviving waiter is provably spinning
//! at that instant, so the new shape publishes atomically with the
//! release).

use crate::pad::CachePadded;
use crate::roster::Roster;
use crate::spin::Deadline;
use crate::sync::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a single non-blocking rejoin poll
/// (`try_rejoin` on the barrier waiters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejoinStatus {
    /// The participant was not evicted; nothing to do.
    NotEvicted,
    /// Re-admission is requested but has not been granted yet; poll
    /// again (the grant happens at an episode boundary).
    Pending,
    /// The participant is active again and its waiter has resumed.
    Rejoined,
}

/// A barrier that supports supervised failure handling: straggler
/// enumeration plus declare-dead with shape reconfiguration.
pub trait SelfHealing {
    /// Number of participants the barrier was built for.
    fn threads(&self) -> u32;
    /// Participants that have not arrived for the episode in flight
    /// (death candidates; already-evicted participants are excluded).
    fn stragglers(&self) -> Vec<u32>;
    /// Declares `tid` dead: evicts it (delivering the in-flight proxy)
    /// and schedules the membership detach for the next episode
    /// boundary. Returns `false` if the participant could not be
    /// declared (it arrived, or was already declared). Idempotent and
    /// safe to retry.
    fn fail(&self, tid: u32) -> bool;
    /// Whether the barrier is poisoned beyond recovery.
    fn is_poisoned(&self) -> bool;
}

/// Tuning for the [`Supervisor`]'s lease-based failure detector.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Floor for the grace window, used before any inter-beat samples
    /// exist and as a lower clamp afterwards.
    pub min_grace: Duration,
    /// Grace = `mean + sigma_mult · σ̂` of the observed inter-beat
    /// intervals (the lease length).
    pub sigma_mult: f64,
    /// Consecutive missed (and exponentially widened) leases before a
    /// participant is declared dead.
    pub max_misses: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            min_grace: Duration::from_millis(5),
            sigma_mult: 4.0,
            max_misses: 3,
        }
    }
}

/// Lease-based failure detector over per-participant heartbeats.
///
/// Any thread may drive [`Supervisor::poll`]; detection is cooperative
/// and does not need a dedicated monitor thread. The supervisor never
/// touches barrier internals except through [`SelfHealing`].
///
/// The `_at` forms and [`Supervisor::lease_pass`] take the time as an
/// argument instead of reading the clock, so a caller that owns its
/// clock — a simulation, a protocol core stepped with virtual time —
/// gets the same lease arithmetic.
#[derive(Debug)]
pub struct Supervisor {
    start: Instant,
    cfg: SupervisorConfig,
    /// Nanoseconds since `start` of each participant's latest beat.
    beats: Vec<CachePadded<AtomicU64>>,
    /// Consecutive lease misses per participant.
    misses: Vec<CachePadded<AtomicU32>>,
    /// Pooled inter-beat statistics (count, sum µs, sum of squared µs).
    n: AtomicU64,
    sum_us: AtomicU64,
    sumsq_us: AtomicU64,
}

impl Supervisor {
    /// A supervisor for `p` participants with default tuning.
    pub fn new(p: u32) -> Self {
        Self::with_config(p, SupervisorConfig::default())
    }

    /// A supervisor for `p` participants.
    pub fn with_config(p: u32, cfg: SupervisorConfig) -> Self {
        Self::starting_at(p, cfg, Instant::now())
    }

    /// A supervisor for `p` participants whose clock starts at `start`:
    /// a participant that never beat has been silent since then.
    pub fn starting_at(p: u32, cfg: SupervisorConfig, start: Instant) -> Self {
        Self {
            start,
            cfg,
            beats: (0..p)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            misses: (0..p)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
            n: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            sumsq_us: AtomicU64::new(0),
        }
    }

    /// Appends participants up to `p` (never shrinks). A new one has
    /// never beaten, so it has been silent since the supervisor's
    /// start: beat it when it is admitted. For a caller that admits
    /// participants one at a time and sizes the supervisor by
    /// occupancy rather than by its bound.
    pub fn grow(&mut self, p: u32) {
        let p = p as usize;
        while self.beats.len() < p {
            self.beats.push(CachePadded::new(AtomicU64::new(0)));
            self.misses.push(CachePadded::new(AtomicU32::new(0)));
        }
    }

    /// Number of participants the supervisor holds a lease for.
    pub fn participants(&self) -> u32 {
        self.beats.len() as u32
    }

    /// Records a heartbeat for `tid`. Call on every barrier-wait entry.
    pub fn beat(&self, tid: u32) {
        self.beat_at(tid, Instant::now());
    }

    /// Records a heartbeat for `tid` at `now`.
    pub fn beat_at(&self, tid: u32, now: Instant) {
        let now = self.ns_at(now);
        let prev = self.beats[tid as usize].swap(now, Ordering::AcqRel);
        if prev != 0 {
            let delta_us = now.saturating_sub(prev) / 1_000;
            self.n.fetch_add(1, Ordering::Relaxed);
            self.sum_us.fetch_add(delta_us, Ordering::Relaxed);
            self.sumsq_us
                .fetch_add(delta_us.saturating_mul(delta_us), Ordering::Relaxed);
        }
        self.misses[tid as usize].store(0, Ordering::Release);
    }

    /// Restarts `tid`'s lease at `now` without recording an interval:
    /// for a participant that owed nothing before `now` (a served
    /// session its episode's release just answered), so its silence
    /// counts from then, not from its last beat.
    pub fn rearm_at(&self, tid: u32, now: Instant) {
        self.beats[tid as usize].store(self.ns_at(now), Ordering::Release);
        self.misses[tid as usize].store(0, Ordering::Release);
    }

    /// The current lease length: `mean + sigma_mult · σ̂` of the pooled
    /// inter-beat intervals, floored at `min_grace`. With fewer than
    /// two samples this is simply `min_grace`.
    pub fn grace(&self) -> Duration {
        let n = self.n.load(Ordering::Relaxed);
        if n < 2 {
            return self.cfg.min_grace;
        }
        let sum = self.sum_us.load(Ordering::Relaxed) as f64;
        let sumsq = self.sumsq_us.load(Ordering::Relaxed) as f64;
        let mean = sum / n as f64;
        let var = (sumsq / n as f64 - mean * mean).max(0.0);
        let grace_us = mean + self.cfg.sigma_mult * var.sqrt();
        self.cfg
            .min_grace
            .max(Duration::from_micros(grace_us as u64))
    }

    /// One detection pass: every straggler whose silence exceeds its
    /// current (exponentially widened) lease gets one more miss; a
    /// straggler over `max_misses` is declared dead via
    /// [`SelfHealing::fail`]. Returns the participants newly declared.
    ///
    /// Drive this from timeout paths (e.g. a torture-harness rescue
    /// closure): each call escalates at most one miss per straggler, so
    /// declaring death takes `max_misses` separate polls spread over
    /// the widening leases — a slow-but-alive thread that beats in
    /// between resets its count.
    pub fn poll<B: SelfHealing + ?Sized>(&self, barrier: &B) -> Vec<u32> {
        let mut declared = self.lease_pass(Instant::now(), barrier.stragglers());
        declared.retain(|&tid| {
            let failed = barrier.fail(tid);
            if failed {
                // Episode 0: the supervisor runs outside any episode;
                // heal events are correlated by subject, not episode.
                combar_trace::emit(0, tid, combar_trace::Kind::Heal(tid));
            }
            failed
        });
        declared
    }

    /// One detection pass over `stragglers` at `now`, the arithmetic of
    /// [`Supervisor::poll`] without a barrier: returns the stragglers
    /// over `max_misses` whose widened lease lapsed again, for the
    /// caller to declare dead.
    pub fn lease_pass(&self, now: Instant, stragglers: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let grace = self.grace();
        let now = self.ns_at(now);
        let mut declared = Vec::new();
        for tid in stragglers {
            let last = self.beats[tid as usize].load(Ordering::Acquire);
            let silent_ns = now.saturating_sub(last); // beat 0 = never: silent since start
            let misses = self.misses[tid as usize].load(Ordering::Acquire);
            let lease = grace.saturating_mul(1u32 << misses.min(16));
            if silent_ns < lease.as_nanos() as u64 {
                continue;
            }
            if misses >= self.cfg.max_misses {
                declared.push(tid);
            } else {
                self.misses[tid as usize].store(misses + 1, Ordering::Release);
            }
        }
        declared
    }

    fn ns_at(&self, now: Instant) -> u64 {
        // +1 so a beat at t=0 is distinguishable from "never beat".
        now.saturating_duration_since(self.start).as_nanos() as u64 + 1
    }
}

/// Jittered exponential backoff for rejoin polling: delays double from
/// `base` up to `max`, each scaled by a pseudo-random factor in
/// `[0.5, 1.0)` so simultaneous rejoiners desynchronize.
#[derive(Debug)]
pub struct JitterBackoff {
    state: u64,
    delay: Duration,
    max: Duration,
}

impl JitterBackoff {
    /// Backoff starting at `base`, capped at `max`, jittered from
    /// `seed` (use the thread id).
    ///
    /// Both durations are floored at 1 µs — a zero `base` (or cap)
    /// still makes forward progress instead of degenerating into a
    /// zero-sleep busy loop — and `base` is clamped to the cap, so the
    /// first delay already respects `max`.
    pub fn new(seed: u64, base: Duration, max: Duration) -> Self {
        let max = max.max(Duration::from_micros(1));
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            delay: base.max(Duration::from_micros(1)).min(max),
            max,
        }
    }

    /// The next delay to sleep before re-polling.
    pub fn next_delay(&mut self) -> Duration {
        // xorshift64* — tiny, seedable, good enough for jitter.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let out = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let frac = 0.5 + (out >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        let jittered = self.delay.mul_f64(frac).min(self.max);
        // Saturate rather than overflow: with a cap near `Duration::MAX`
        // the un-saturated doubling would panic after ~64 steps.
        self.delay = self.delay.saturating_mul(2).min(self.max);
        jittered
    }

    /// Sleeps for the next delay, clamped so it never overshoots
    /// `deadline`. Returns `false` once the deadline has expired.
    ///
    /// This blocks the calling **OS thread**, which is correct only
    /// when that thread serves a single participant (the
    /// thread-per-participant barriers). Never call it from an executor
    /// driver: one session's backoff nap would stall every other
    /// logical participant multiplexed onto that driver. Async code
    /// adds [`JitterBackoff::next_delay`] to its clock and parks on a
    /// timer instead.
    pub fn sleep(&mut self, deadline: Deadline) -> bool {
        let now = Instant::now();
        let mut d = self.next_delay();
        if let Some(rem) = deadline.remaining_at(now) {
            if rem.is_zero() {
                return false;
            }
            d = d.min(rem);
        }
        std::thread::sleep(d);
        true
    }
}

/// Crate-internal membership ledger for the counter barriers: which
/// participants the live shape counts, plus the attach requests the
/// next releaser should grant. Detach requests ride on the roster's
/// `Parked` state (see `roster.rs`), so membership transitions stay
/// linearizable on the roster slot.
#[derive(Debug)]
pub(crate) struct Membership {
    /// 1 while the live shape counts the participant.
    live: Vec<CachePadded<AtomicU32>>,
    attach_req: Vec<CachePadded<AtomicU32>>,
    /// Any boundary work queued? Checked (cheaply) on every release.
    pending: CachePadded<AtomicU32>,
    /// Number of reconfigurations applied (the "shape epoch").
    shape_epoch: CachePadded<AtomicU32>,
}

/// One membership change the releaser must fold into the shape.
pub(crate) enum Change {
    /// Remove from the live shape (roster slot is parked).
    Detach(u32),
    /// Graft back into the live shape and re-admit through the roster.
    Attach(u32),
}

impl Membership {
    pub(crate) fn new(p: u32) -> Self {
        Self {
            live: (0..p)
                .map(|_| CachePadded::new(AtomicU32::new(1)))
                .collect(),
            attach_req: (0..p)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
            pending: CachePadded::new(AtomicU32::new(0)),
            shape_epoch: CachePadded::new(AtomicU32::new(0)),
        }
    }

    pub(crate) fn is_live(&self, tid: u32) -> bool {
        self.live[tid as usize].load(Ordering::Acquire) == 1
    }

    pub(crate) fn live_count(&self) -> u32 {
        self.live.iter().map(|l| l.load(Ordering::Acquire)).sum()
    }

    pub(crate) fn live_mask(&self) -> Vec<bool> {
        self.live
            .iter()
            .map(|l| l.load(Ordering::Acquire) == 1)
            .collect()
    }

    pub(crate) fn shape_epoch(&self) -> u32 {
        self.shape_epoch.load(Ordering::Acquire)
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.pending.load(Ordering::Acquire) != 0
    }

    /// Parks `tid` in the roster (closing its fast rejoin path) and
    /// queues the detach for the next boundary. Fails if the roster
    /// slot is active.
    pub(crate) fn request_detach(&self, roster: &Roster, tid: u32) -> bool {
        if !roster.park(tid) {
            return false;
        }
        self.pending.store(1, Ordering::Release);
        true
    }

    /// Queues re-admission of a parked participant for the next
    /// boundary.
    pub(crate) fn request_attach(&self, tid: u32) {
        self.attach_req[tid as usize].store(1, Ordering::Release);
        self.pending.store(1, Ordering::Release);
    }

    /// Collects the boundary changes, updating the live flags. Must be
    /// called only inside the releaser's quiescent window. Returns the
    /// changes to fold into the shape (empty = nothing to recompute);
    /// the caller must then recompute its shape arrays, call
    /// [`Membership::grant`] for every `Attach`, and finally bump the
    /// barrier epoch (Release) to publish.
    ///
    /// A detach can never leave the live shape empty (a barrier with
    /// zero expected arrivals could never release an episode again):
    /// only a parked slot detaches, the roster always keeps one slot
    /// active, and an active slot is live.
    pub(crate) fn collect(&self, roster: &Roster) -> Vec<Change> {
        if self.pending.swap(0, Ordering::AcqRel) == 0 {
            return Vec::new();
        }
        let mut changes = Vec::new();
        let mut live_now = self.live_count();
        for tid in 0..self.live.len() as u32 {
            let parked = roster.is_parked(tid);
            let attach = self.attach_req[tid as usize].load(Ordering::Acquire) != 0;
            if attach {
                self.attach_req[tid as usize].store(0, Ordering::Relaxed);
                if parked {
                    if self.is_live(tid) {
                        // Detach cancelled before it ever applied: the
                        // shape never excluded the participant, so only
                        // the roster needs re-admission.
                        roster.admit(tid);
                    } else {
                        self.live[tid as usize].store(1, Ordering::Relaxed);
                        live_now += 1;
                        changes.push(Change::Attach(tid));
                    }
                }
                // A stale request for a non-parked slot is dropped.
            } else if parked && self.is_live(tid) {
                debug_assert!(live_now > 1, "detaching the last live participant");
                self.live[tid as usize].store(0, Ordering::Relaxed);
                live_now -= 1;
                changes.push(Change::Detach(tid));
            }
        }
        if !changes.is_empty() {
            self.shape_epoch.fetch_add(1, Ordering::AcqRel);
        }
        changes
    }

    /// Grants an attach after the shape recompute: re-admits the slot.
    /// The roster CAS publishes every prior shape store to the polling
    /// rejoiner.
    pub(crate) fn grant(&self, roster: &Roster, tid: u32) {
        let admitted = roster.admit(tid);
        debug_assert!(admitted, "attach granted for a non-parked slot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grace_tracks_interarrival_sigma() {
        let s = Supervisor::with_config(
            2,
            SupervisorConfig {
                min_grace: Duration::from_micros(10),
                sigma_mult: 4.0,
                max_misses: 3,
            },
        );
        assert_eq!(s.grace(), Duration::from_micros(10), "no samples yet");
        // Synthesize beats; real sleeps keep deltas positive.
        for _ in 0..5 {
            s.beat(0);
            std::thread::sleep(Duration::from_millis(1));
        }
        let g = s.grace();
        assert!(g >= Duration::from_micros(500), "grace too small: {g:?}");
    }

    #[test]
    fn leases_run_on_a_virtual_clock() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let s = Supervisor::starting_at(
            1,
            SupervisorConfig {
                min_grace: Duration::from_micros(10),
                sigma_mult: 4.0,
                max_misses: 2,
            },
            t0,
        );
        for k in 0..=4 {
            s.beat_at(0, at(k * 1_000));
        }
        assert_eq!(s.grace(), Duration::from_millis(1), "σ = 0: the mean");
        let misses = || s.misses[0].load(Ordering::Relaxed);
        let pass = |us: u64| s.lease_pass(at(us), [0]);
        // Last beat at 4 ms: each lease is the grace times 2^misses.
        assert!(pass(4_999).is_empty() && misses() == 0, "inside the lease");
        assert!(pass(5_000).is_empty() && misses() == 1);
        assert!(
            pass(5_000).is_empty() && misses() == 1,
            "one miss per lapse"
        );
        assert!(pass(5_999).is_empty() && misses() == 1, "widened to 2 ms");
        assert!(pass(6_000).is_empty() && misses() == 2);
        assert!(pass(7_999).is_empty() && misses() == 2, "widened to 4 ms");
        assert_eq!(pass(8_000), [0], "declared after max_misses");
        // A beat resets the count: its next lapse is a first miss again.
        s.beat_at(0, at(9_000));
        assert_eq!(misses(), 0);
        let lapse = 9_000 + s.grace().as_micros() as u64;
        assert!(pass(lapse).is_empty() && misses() == 1);
    }

    #[test]
    fn jitter_backoff_doubles_within_bounds() {
        let mut b = JitterBackoff::new(7, Duration::from_millis(1), Duration::from_millis(8));
        let mut prev_base = Duration::from_millis(1);
        for _ in 0..6 {
            let d = b.next_delay();
            assert!(d >= prev_base / 2, "jitter below half base: {d:?}");
            assert!(d <= Duration::from_millis(8), "jitter above cap: {d:?}");
            prev_base = (prev_base * 2).min(Duration::from_millis(8));
        }
        // Two seeds diverge.
        let mut b1 = JitterBackoff::new(1, Duration::from_millis(4), Duration::from_secs(1));
        let mut b2 = JitterBackoff::new(2, Duration::from_millis(4), Duration::from_secs(1));
        assert_ne!(b1.next_delay(), b2.next_delay());
    }

    #[test]
    fn jitter_backoff_zero_base_still_progresses() {
        let mut b = JitterBackoff::new(7, Duration::ZERO, Duration::from_millis(10));
        for _ in 0..8 {
            let d = b.next_delay();
            assert!(d > Duration::ZERO, "zero-duration delay busy-loops");
            assert!(d <= Duration::from_millis(10));
        }
        // Degenerate cap too: still nonzero, still bounded.
        let mut z = JitterBackoff::new(7, Duration::ZERO, Duration::ZERO);
        let d = z.next_delay();
        assert!(d > Duration::ZERO && d <= Duration::from_micros(1));
    }

    #[test]
    fn jitter_backoff_saturates_instead_of_overflowing() {
        // An effectively unbounded cap: repeated doubling must saturate,
        // not overflow-panic, and stay within the cap.
        let mut b = JitterBackoff::new(3, Duration::from_secs(u64::MAX / 4), Duration::MAX);
        for _ in 0..80 {
            assert!(b.next_delay() <= Duration::MAX);
        }
    }

    #[test]
    fn jitter_backoff_clamps_base_above_cap() {
        let cap = Duration::from_millis(2);
        let mut b = JitterBackoff::new(5, Duration::from_secs(10), cap);
        for _ in 0..8 {
            assert!(b.next_delay() <= cap, "delay escaped the cap");
        }
    }

    #[test]
    fn jitter_backoff_is_deterministic_per_seed() {
        let (base, max) = (Duration::from_millis(1), Duration::from_millis(16));
        let mut a = JitterBackoff::new(42, base, max);
        let mut b = JitterBackoff::new(42, base, max);
        let sa: Vec<_> = (0..12).map(|_| a.next_delay()).collect();
        let sb: Vec<_> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(sa, sb, "same seed must replay the same sequence");
        let mut c = JitterBackoff::new(43, base, max);
        let sc: Vec<_> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(sa, sc, "different seeds must diverge");
    }

    #[test]
    fn membership_detach_spares_last_live() {
        let m = Membership::new(2);
        let roster = Roster::new(2);
        let epoch = AtomicU32::new(0);
        assert!(roster.evict(0, &epoch, None).is_some());
        assert!(
            roster.evict(1, &epoch, None).is_none(),
            "the roster keeps one slot active"
        );
        assert!(m.request_detach(&roster, 0));
        assert!(!m.request_detach(&roster, 1), "an active slot cannot park");
        let changes = m.collect(&roster);
        assert_eq!(changes.len(), 1, "only one of the two can detach");
        assert_eq!(m.live_count(), 1);
        assert_eq!(m.shape_epoch(), 1);
        assert!(m.collect(&roster).is_empty(), "pending flag consumed");
    }

    #[test]
    fn membership_attach_cancels_unapplied_detach() {
        let m = Membership::new(2);
        let roster = Roster::new(2);
        let epoch = AtomicU32::new(0);
        assert!(roster.evict(0, &epoch, None).is_some());
        assert!(m.request_detach(&roster, 0));
        m.request_attach(0); // rejoin lands before any boundary
        let changes = m.collect(&roster);
        assert!(changes.is_empty(), "shape never excluded the thread");
        assert!(m.is_live(0));
        assert!(!roster.is_evicted(0), "roster re-admitted directly");
    }
}
