//! The async epoch runtime: logical participants as parked wakers.
//!
//! Every other barrier in this crate equates "participant" with "OS
//! thread" — a waiter spins or sleeps on its own stack, which caps
//! realistic p at hundreds. Here a participant is a *wait-list entry*:
//! [`AsyncWaiter::poll_wait`] registers the arrival, parks the task's
//! [`Waker`] on its shard's wait list, and returns `Poll::Pending`; a
//! handful of driver threads ([`Executor`]) multiplex millions of such
//! entries. The protocol is the sharded-counter/batched-release design
//! the hybrid-barrier literature converges on:
//!
//! * **Arrival**: each logical participant is statically mapped to one
//!   of ~driver-core many shards, in contiguous balanced seat blocks
//!   (seat `tid` of `p` goes to shard `⌊tid·shards / p⌋ mod shards`),
//!   the way the paper's combining tree gives each leaf counter a
//!   contiguous group. Arriving increments the shard's count under a
//!   cache-line-padded per-shard lock whose critical section is a
//!   handful of plain-integer ops; an arrival that leaves its shard
//!   incomplete parks its waker in that same section. The last
//!   arrival of a shard combines into the **root** (one counter for
//!   the whole barrier), so an epoch costs one root transition per
//!   *shard*, not per participant.
//! * **Release**: the arrival that completes the last shard becomes
//!   the releaser. It folds queued membership changes into each
//!   shard's expected count inside the root-locked quiescent window
//!   (exactly like the threaded barriers' releaser-side membership
//!   fold), publishes the new epoch, and only *then* takes each
//!   shard's parked-waker list and wakes it as one batch — the
//!   releaser never walks one million-entry list under a single lock,
//!   and on an [`Executor`] driver each shard's batch lands on one
//!   driver's run queue in one transaction.
//! * **No lost wakeups**: an arrival that leaves its shard incomplete
//!   parks under the lock that counted it, before the shard (and so
//!   the epoch) can complete. Any other park is `push waker; re-check
//!   epoch`: because the epoch bump happens before any wait list is
//!   taken, a waker pushed after its list was swept is guaranteed to
//!   observe the bumped epoch on the re-check and completes
//!   immediately. Spurious wakes (a stale waker swept into the next
//!   epoch's batch) are benign under the polling contract.
//! * **Cancellation safety**: dropping a parked [`WaitFuture`] leaves
//!   the arrival registered (the `wait_timeout` resume contract);
//!   dropping the *waiter* mid-episode leaves gracefully — the shard's
//!   `fold_epoch` stamp decides, atomically under the shard lock,
//!   whether the departing seat's detach made this epoch's membership
//!   fold or must proxy-arrive for the next epoch. The
//!   `tests/model_check.rs` fixtures explore exactly these races.
//!
//! Timing is **per logical participant**: a bounded wait carries its
//! own [`Deadline`] in the future, re-polled via [`Timer`] (async) or
//! the [`block_on`] parker (sync bridge) — never an OS-thread sleep,
//! which would stall the thousands of other waiters sharing the
//! driver. A seeded [`WakeFaultPlan`] can drop wakeups from release
//! batches; the deadline re-poll is what turns that loss into bounded
//! recovery instead of a hang.
//!
//! All cross-shard signalling (`epoch`, `poison`) goes through the
//! [`crate::sync`] facade so model-checked fixtures can explore the
//! park/release interleavings; the mutex-guarded sections contain no
//! facade operations, so the checker never deschedules a lock holder.

pub mod conformance;
mod exec;

pub use exec::{block_on, yield_now, ExecStats, Executor, Sleep, Timer, YieldNow};

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use combar_chaos::WakeFaultPlan;
use combar_trace as trace;

use crate::error::BarrierError;
use crate::pad::CachePadded;
use crate::spin::Deadline;
use crate::sync::{AtomicU32, Ordering};

/// One arrival shard: a padded lock over plain counters and the parked
/// wakers of the logical participants mapped here.
#[derive(Debug, Default)]
struct ShardState {
    /// Arrivals registered for the shard's current epoch.
    count: u32,
    /// Arrivals the current epoch expects from this shard.
    expected: u32,
    /// Seats leaving at the next membership fold.
    detach_q: u32,
    /// Seats joining at the next membership fold.
    attach_q: u32,
    /// The epoch whose boundary will next fold the queues. Reading it
    /// under the shard lock tells admit/leave, race-free against the
    /// releaser's sweep, which epoch a queued change lands in.
    fold_epoch: u32,
    /// Parked wakers awaiting this epoch's release (plus, possibly,
    /// stale entries that will be woken spuriously — benign).
    wakers: Vec<Waker>,
}

/// Root combine state. The root lock doubles as the membership
/// serializer: the releaser holds it across the whole fold sweep, and
/// `admit`/`leave` commit their live-count change under it, so the
/// sweep always sees a queue entry for every committed change.
#[derive(Debug)]
struct Root {
    /// Shards whose current epoch has completed.
    done: u32,
    /// Shards with `expected > 0` (the completion target).
    target: u32,
    /// Committed live seats (eager: updated at admit/leave, which the
    /// folds then catch up to).
    live: u32,
    /// A releaser is mid-sweep; completions observed meanwhile are
    /// picked up by its follow-up check instead of firing twice.
    releasing: bool,
    /// Next seat id handed to [`AsyncBarrier::admit`].
    next_id: u32,
}

/// Log₂-bucketed wakeup-batch latency histogram (nanoseconds per
/// released batch). Disabled by default so the release path stays
/// clock-free; the load benches enable it for the percentile columns.
#[derive(Debug)]
struct WakeLatency {
    enabled: std::sync::atomic::AtomicBool,
    // std atomics on purpose: measurement plumbing, not barrier
    // protocol state — it must not add model-checker schedule points.
    buckets: Vec<std::sync::atomic::AtomicU64>,
}

const LAT_BUCKETS: usize = 40; // 2^40 ns ≈ 18 min; plenty

impl WakeLatency {
    fn new() -> Self {
        Self {
            enabled: std::sync::atomic::AtomicBool::new(false),
            buckets: (0..LAT_BUCKETS)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        }
    }

    fn record(&self, ns: u64) {
        let b = (64 - ns.max(1).leading_zeros() as usize - 1).min(LAT_BUCKETS - 1);
        self.buckets[b].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The latency at quantile `q` (0..=1), as the upper edge of the
    /// histogram bucket it falls in.
    fn percentile(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(std::sync::atomic::Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << (i + 1));
            }
        }
        None
    }
}

/// Shared state behind every [`AsyncBarrier`] clone and waiter.
#[derive(Debug)]
struct Inner {
    threads: u32,
    shards: Box<[CachePadded<Mutex<ShardState>>]>,
    root: Mutex<Root>,
    /// Published epoch (release happens-before via this bump).
    epoch: AtomicU32,
    /// Non-zero once poisoned.
    poison: AtomicU32,
    /// Seeded lost-wakeup injection for the release fan-out.
    faults: Mutex<Option<WakeFaultPlan>>,
    /// The last fan-out's drained (empty) batch buffer, so a release
    /// swaps capacity into the shards instead of allocating it under
    /// their locks. Only the one releaser touches it.
    spare: Mutex<Vec<Waker>>,
    lat: WakeLatency,
}

impl Inner {
    /// Seat `tid`'s shard: `⌊tid·shards / p⌋ mod shards`, so seats
    /// `0..p` fill the shards in contiguous balanced blocks and later
    /// seats (`admit`) wrap into blocks the same way.
    fn shard_of(&self, tid: u32) -> u32 {
        let n = self.shards.len() as u64;
        (u64::from(tid) * n / u64::from(self.threads) % n) as u32
    }
}

/// The async-capable barrier: sharded arrival counters, one root
/// combine per epoch, batched wakeups per shard.
///
/// Clones share the barrier. Logical participants come from
/// [`AsyncBarrier::waiter_for`] (seats `0..p` the barrier was built
/// with) or [`AsyncBarrier::admit`] (membership growth at the next
/// epoch boundary).
#[derive(Debug, Clone)]
pub struct AsyncBarrier {
    inner: Arc<Inner>,
}

impl AsyncBarrier {
    /// A barrier for `participants` logical seats over `shards`
    /// arrival shards (clamped to ≥ 1; size it ~ driver cores). Seats
    /// are dealt in contiguous blocks whose sizes differ by at most
    /// one; see [`AsyncWaiter::shard`].
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn new(participants: u32, shards: u32) -> Self {
        assert!(participants > 0, "a barrier needs at least one seat");
        let (p, n) = (u64::from(participants), u64::from(shards.max(1)));
        // Shard s holds the seats t with ⌊t·n / p⌋ = s, the block
        // ⌈s·p / n⌉ .. ⌈(s+1)·p / n⌉ (empty for some s when p < n).
        let first_seat = |s: u64| (s * p).div_ceil(n);
        let shard_vec: Box<[CachePadded<Mutex<ShardState>>]> = (0..n)
            .map(|s| {
                let expected = (first_seat(s + 1) - first_seat(s)) as u32;
                CachePadded::new(Mutex::new(ShardState {
                    expected,
                    ..ShardState::default()
                }))
            })
            .collect();
        let target = shard_vec
            .iter()
            .filter(|s| s.lock().unwrap().expected > 0)
            .count() as u32;
        Self {
            inner: Arc::new(Inner {
                threads: participants,
                shards: shard_vec,
                root: Mutex::new(Root {
                    done: 0,
                    target,
                    live: participants,
                    releasing: false,
                    next_id: participants,
                }),
                epoch: AtomicU32::new(0),
                poison: AtomicU32::new(0),
                faults: Mutex::new(None),
                spare: Mutex::new(Vec::new()),
                lat: WakeLatency::new(),
            }),
        }
    }

    /// Installs a seeded lost-wakeup plan consulted by every release
    /// fan-out (chaos testing). Pass `None` to clear.
    pub fn inject_wake_faults(&self, plan: Option<WakeFaultPlan>) {
        *self.inner.faults.lock().unwrap() = plan;
    }

    /// Enables wakeup-batch latency recording (one `Instant` pair per
    /// released batch). Off by default so the release path reads no
    /// clock.
    pub fn record_wake_latency(&self) {
        self.inner
            .lat
            .enabled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// `(p50, p95, p99)` wakeup-batch latency in nanoseconds, if
    /// recording was enabled and at least one batch was released.
    pub fn wake_latency_percentiles(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.inner.lat.percentile(0.50)?,
            self.inner.lat.percentile(0.95)?,
            self.inner.lat.percentile(0.99)?,
        ))
    }

    /// Seats the barrier was built for.
    pub fn threads(&self) -> u32 {
        self.inner.threads
    }

    /// Number of arrival shards.
    pub fn shards(&self) -> u32 {
        self.inner.shards.len() as u32
    }

    /// The published epoch (completed releases since construction).
    pub fn epoch(&self) -> u32 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Committed live seats.
    pub fn live_count(&self) -> u32 {
        self.inner.root.lock().unwrap().live
    }

    /// Whether the barrier is poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.inner.poison.load(Ordering::Acquire) != 0
    }

    /// One-line snapshot of the protocol state, for wedge diagnostics
    /// in soak tests and bug reports.
    pub fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let r = self.inner.root.lock().unwrap();
        let mut s = format!(
            "epoch={} root{{done={} target={} live={} releasing={}}}",
            self.inner.epoch.load(Ordering::Acquire),
            r.done,
            r.target,
            r.live,
            r.releasing
        );
        for (i, sh) in self.inner.shards.iter().enumerate() {
            let st = sh.lock().unwrap();
            let _ = write!(
                s,
                " s{i}{{c={} e={} +{} -{} f={} w={}}}",
                st.count,
                st.expected,
                st.attach_q,
                st.detach_q,
                st.fold_epoch,
                st.wakers.len()
            );
        }
        s
    }

    /// Poisons the barrier and wakes every parked participant so they
    /// observe [`BarrierError::Poisoned`] instead of hanging.
    pub fn poison(&self) {
        self.inner.poison.store(1, Ordering::Release);
        for sh in self.inner.shards.iter() {
            let batch = std::mem::take(&mut sh.lock().unwrap().wakers);
            for w in batch {
                w.wake();
            }
        }
    }

    /// The handle for seat `tid` (0..p as built, or the id returned by
    /// [`AsyncBarrier::admit`]). At most one live waiter per seat; the
    /// epoch is snapped race-free from the seat's shard.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not a seat this barrier has handed out.
    pub fn waiter_for(&self, tid: u32) -> AsyncWaiter {
        let known = self.inner.root.lock().unwrap().next_id;
        assert!(tid < known, "tid {tid} out of range (seats 0..{known})");
        let shard = self.inner.shard_of(tid);
        let epoch = self.inner.shards[shard as usize].lock().unwrap().fold_epoch;
        AsyncWaiter {
            inner: Arc::clone(&self.inner),
            tid,
            shard,
            epoch,
            pending: false,
            left: false,
        }
    }

    /// Admits a brand-new seat: membership grows at the next epoch
    /// boundary (or immediately if the barrier has drained to zero
    /// seats, when no boundary could ever come). The returned waiter's
    /// first `wait` completes with the epoch that folds it in.
    pub fn admit(&self) -> AsyncWaiter {
        let inner = &self.inner;
        let mut r = inner.root.lock().unwrap();
        let tid = r.next_id;
        r.next_id += 1;
        let shard = inner.shard_of(tid);
        // Root is held across the shard update (root → shard is the
        // one permitted nesting order), serializing against the
        // releaser's fold sweep.
        let mut st = inner.shards[shard as usize].lock().unwrap();
        if r.live == 0 {
            // Drained barrier: no release will ever fold an attach, so
            // apply the membership now — quiescent by definition.
            r.live = 1;
            if st.expected == 0 {
                r.target += 1;
            }
            st.expected += 1;
            let epoch = st.fold_epoch;
            drop(st);
            drop(r);
            return AsyncWaiter {
                inner: Arc::clone(inner),
                tid,
                shard,
                epoch,
                pending: false,
                left: false,
            };
        }
        r.live += 1;
        st.attach_q += 1;
        let epoch = st.fold_epoch;
        drop(st);
        drop(r);
        // pending=true at the fold epoch: the first wait completes with
        // that epoch's release, after which the seat is expected.
        AsyncWaiter {
            inner: Arc::clone(inner),
            tid,
            shard,
            epoch,
            pending: true,
            left: false,
        }
    }

    /// Registers an arrival on `shard` and runs the release protocol
    /// if it completed the epoch. An arrival that leaves its shard
    /// incomplete parks `park` (if given) in the same lock section and
    /// returns `true`: neither the shard nor the epoch can complete
    /// before that section ends, so the release's sweep finds the
    /// waker. Called by waiters; exposed to the crate's model-check
    /// fixtures via the waiter API only.
    fn arrive(inner: &Arc<Inner>, shard: u32, by: u32, park: Option<Waker>) -> bool {
        {
            let mut st = inner.shards[shard as usize].lock().unwrap();
            st.count += 1;
            debug_assert!(
                st.count <= st.expected,
                "shard {shard}: {} arrivals for {} seats",
                st.count,
                st.expected
            );
            if st.expected == 0 || st.count < st.expected {
                if let Some(waker) = park {
                    st.wakers.push(waker);
                    return true;
                }
                return false;
            }
        }
        Self::shard_complete(inner, by);
        false
    }

    /// One shard finished its epoch: combine into the root; the
    /// completion that matches the target claims the release.
    fn shard_complete(inner: &Arc<Inner>, by: u32) {
        let fire = {
            let mut r = inner.root.lock().unwrap();
            r.done += 1;
            debug_assert!(r.done <= r.target, "root over-completed");
            if r.target > 0 && r.done == r.target && !r.releasing {
                r.releasing = true;
                true
            } else {
                false
            }
        };
        if fire {
            Self::release(inner, by);
        }
    }

    /// The release protocol. Exactly one thread runs this per epoch
    /// (guarded by `Root::releasing`); the loop handles an epoch that
    /// completes during its predecessor's own sweep (possible only via
    /// cancellation proxies, which may arrive before the bump).
    fn release(inner: &Arc<Inner>, by: u32) {
        loop {
            // Only this releaser bumps, so the load is stable.
            let e = inner.epoch.load(Ordering::Acquire);
            {
                let mut r = inner.root.lock().unwrap();
                debug_assert_eq!(r.done, r.target, "release without completion");
                let mut live = 0u32;
                let mut target = 0u32;
                for sh in inner.shards.iter() {
                    let mut st = sh.lock().unwrap();
                    debug_assert_eq!(st.count, st.expected, "incomplete shard at release");
                    debug_assert!(
                        st.detach_q <= st.expected + st.attach_q,
                        "more detaches than seats"
                    );
                    st.count = 0;
                    st.expected = st.expected + st.attach_q - st.detach_q;
                    st.attach_q = 0;
                    st.detach_q = 0;
                    st.fold_epoch = e.wrapping_add(1);
                    live += st.expected;
                    if st.expected > 0 {
                        target += 1;
                    }
                }
                debug_assert_eq!(r.live, live, "eager live count diverged from folds");
                r.done = 0;
                r.target = target;
            }
            trace::emit(e, by, trace::Kind::Release);
            // Publish the release *before* sweeping wait lists: a
            // parker that pushes after its list was taken re-checks
            // the epoch and observes this bump.
            inner.epoch.fetch_add(1, Ordering::Release);
            Self::fan_out(inner, e, by);
            // Follow-up: cancellation proxies may have completed the
            // *next* epoch while we swept. They could not fire (the
            // releasing flag was up), so it is on us to loop.
            let again = {
                let mut r = inner.root.lock().unwrap();
                if r.target > 0 && r.done == r.target {
                    true
                } else {
                    r.releasing = false;
                    false
                }
            };
            if !again {
                return;
            }
        }
    }

    /// Wakes each shard's parked batch, applying the lost-wakeup fault
    /// plan and recording per-batch latency when enabled. On a driver
    /// thread the wakes of one shard collect in the driver's buffer and
    /// reach one run queue together when the batch closes.
    fn fan_out(inner: &Arc<Inner>, epoch: u32, by: u32) {
        let faults = *inner.faults.lock().unwrap();
        let record = inner.lat.enabled.load(std::sync::atomic::Ordering::Acquire);
        let mut slot = 0u64;
        let mut batch = std::mem::take(&mut *inner.spare.lock().unwrap());
        for (si, sh) in inner.shards.iter().enumerate() {
            {
                let mut st = sh.lock().unwrap();
                if st.wakers.is_empty() {
                    continue;
                }
                // The shard gets the previous batch's drained buffer.
                std::mem::swap(&mut st.wakers, &mut batch);
            }
            trace::emit(epoch, by, trace::Kind::Wake(si as u32));
            let t0 = record.then(Instant::now);
            for w in batch.drain(..) {
                let dropped = faults.is_some_and(|p| p.drops_wake(epoch, slot));
                slot += 1;
                if !dropped {
                    w.wake();
                }
            }
            exec::close_wake_batch();
            if let Some(t0) = t0 {
                inner.lat.record(t0.elapsed().as_nanos() as u64);
            }
        }
        *inner.spare.lock().unwrap() = batch;
    }
}

/// One logical participant's handle. Single-owner mutable state, like
/// every waiter in this crate: `Send`, used from one task at a time.
///
/// Dropping the handle while an episode is in flight (arrived, not yet
/// released) leaves **gracefully**: the seat detaches at the proper
/// boundary and peers keep crossing — the async analogue of a session
/// disappearing, which must degrade membership, not poison a million
/// peers. Dropping an idle handle keeps the seat; build a fresh waiter
/// for the same tid to resume it.
pub struct AsyncWaiter {
    inner: Arc<Inner>,
    tid: u32,
    shard: u32,
    /// The epoch this seat is arriving for / awaiting the release of.
    epoch: u32,
    /// Whether the arrival for `epoch` is registered.
    pending: bool,
    /// The seat left the barrier; waits fail with `Evicted` until
    /// `rejoin`.
    left: bool,
}

impl std::fmt::Debug for AsyncWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncWaiter")
            .field("tid", &self.tid)
            .field("shard", &self.shard)
            .field("epoch", &self.epoch)
            .field("pending", &self.pending)
            .field("left", &self.left)
            .finish()
    }
}

impl AsyncWaiter {
    /// This seat's id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The shard this seat arrives on: `⌊tid·shards / p⌋ mod shards`
    /// for a barrier built with `p` seats. Seats `0..p` fill the
    /// shards in contiguous blocks (never decreasing with `tid`, sizes
    /// differing by at most one); admitted seats wrap into blocks the
    /// same way.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Core poll: arrive once, then park until the epoch's release
    /// (or the deadline). The deadline belongs to this *logical*
    /// participant; `timer` (if any) schedules the deadline re-poll so
    /// a lost wakeup cannot hang the wait.
    fn poll_step(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        timer: Option<&Timer>,
    ) -> Poll<Result<(), BarrierError>> {
        if self.left {
            return Poll::Ready(Err(BarrierError::Evicted));
        }
        if self.inner.poison.load(Ordering::Acquire) != 0 {
            return Poll::Ready(Err(BarrierError::Poisoned));
        }
        if !self.pending {
            trace::emit(self.epoch, self.tid, trace::Kind::Arrive);
            self.pending = true;
            // Wakers are cloned outside the shard lock: a clone may be
            // an atomic RMW on the task's header, and in a model-check
            // fixture it is a schedule point, which must not fall
            // inside a lock section.
            if AsyncBarrier::arrive(&self.inner, self.shard, self.tid, Some(waker.clone())) {
                trace::emit(self.epoch, self.tid, trace::Kind::Park(self.shard));
                if deadline.expired() {
                    // The arrival stands; the parked waker goes stale.
                    return Poll::Ready(Err(BarrierError::Timeout));
                }
                return self.parked(waker, deadline, timer);
            }
        }
        let released = self.epoch.wrapping_add(1);
        if self.reached(released) {
            self.epoch = released;
            self.pending = false;
            return Poll::Ready(Ok(()));
        }
        if deadline.expired() {
            // The arrival stands: a later wait resumes this episode.
            return Poll::Ready(Err(BarrierError::Timeout));
        }
        // Park, then re-check: the releaser bumps the epoch before
        // taking wait lists, so missing the sweep implies seeing the
        // bump here.
        let copy = waker.clone();
        self.inner.shards[self.shard as usize]
            .lock()
            .unwrap()
            .wakers
            .push(copy);
        trace::emit(self.epoch, self.tid, trace::Kind::Park(self.shard));
        if self.reached(released) {
            self.epoch = released;
            self.pending = false;
            return Poll::Ready(Ok(()));
        }
        self.parked(waker, deadline, timer)
    }

    /// The tail of every park: a poison that swept the lists before the
    /// push is caught here, and a bounded wait schedules its re-poll.
    fn parked(
        &self,
        waker: &Waker,
        deadline: Deadline,
        timer: Option<&Timer>,
    ) -> Poll<Result<(), BarrierError>> {
        if self.inner.poison.load(Ordering::Acquire) != 0 {
            return Poll::Ready(Err(BarrierError::Poisoned));
        }
        if let (Some(timer), Some(at)) = (timer, deadline.instant()) {
            timer.register(at, waker.clone());
        }
        Poll::Pending
    }

    fn reached(&self, target: u32) -> bool {
        self.inner
            .epoch
            .load(Ordering::Acquire)
            .wrapping_sub(target)
            <= u32::MAX / 2
    }

    /// Polls one barrier crossing: the episode's arrival is registered
    /// on first poll; `Poll::Pending` parks the waker until release.
    pub fn poll_wait(&mut self, cx: &mut Context<'_>) -> Poll<Result<(), BarrierError>> {
        self.poll_step(cx.waker(), Deadline::never(), None)
    }

    /// One full crossing as a future.
    pub fn wait_async(&mut self) -> WaitFuture<'_> {
        WaitFuture {
            waiter: self,
            deadline: Deadline::never(),
            timer: None,
        }
    }

    /// One crossing bounded by `deadline`, with the re-poll scheduled
    /// on `timer` — the per-logical-participant bounded wait. On
    /// [`BarrierError::Timeout`] the arrival stays registered; a later
    /// wait resumes the episode.
    pub fn wait_deadline(&mut self, deadline: Instant, timer: &Timer) -> WaitFuture<'_> {
        WaitFuture {
            waiter: self,
            deadline: Deadline::at(deadline),
            timer: Some(timer.clone()),
        }
    }

    /// Synchronous arrival without blocking — the fuzzy "release
    /// phase". No-op if the episode's arrival is already registered or
    /// the barrier is poisoned.
    pub fn arrive(&mut self) {
        if self.left || self.pending || self.inner.poison.load(Ordering::Acquire) != 0 {
            return;
        }
        trace::emit(self.epoch, self.tid, trace::Kind::Arrive);
        self.pending = true;
        AsyncBarrier::arrive(&self.inner, self.shard, self.tid, None);
    }

    /// Synchronous unbounded crossing (the sync-bridge path).
    pub fn try_wait(&mut self) -> Result<(), BarrierError> {
        let deadline = Deadline::never();
        block_on(
            WaitFuture {
                waiter: self,
                deadline,
                timer: None,
            },
            deadline,
        )
    }

    /// Synchronous bounded crossing: blocks the calling OS thread (the
    /// bridge into the threaded [`crate::barrier::Waiter`] contract).
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        let deadline = Deadline::after(timeout);
        block_on(
            WaitFuture {
                waiter: self,
                deadline,
                timer: None,
            },
            deadline,
        )
    }

    /// Synchronous crossing, panicking on failure.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is poisoned or this seat has left.
    pub fn wait(&mut self) {
        if let Err(e) = self.try_wait() {
            panic!("async barrier wait failed: {e}");
        }
    }

    /// Gracefully releases this seat. If an episode is in flight the
    /// already-registered arrival stands; if the membership fold for
    /// the current epoch has already run (a release sweep is racing
    /// us), the seat owes the *next* epoch one arrival and delivers it
    /// by proxy — both decided atomically under the shard lock via the
    /// `fold_epoch` stamp, so the epoch can neither wedge nor release
    /// twice. Waits fail with [`BarrierError::Evicted`] afterwards
    /// until [`AsyncWaiter::rejoin`].
    pub fn leave(&mut self) {
        if self.left {
            return;
        }
        self.left = true;
        let inner = Arc::clone(&self.inner);
        let mut proxy = false;
        let complete = {
            let mut r = inner.root.lock().unwrap();
            debug_assert!(r.live > 0);
            r.live -= 1;
            let mut st = inner.shards[self.shard as usize].lock().unwrap();
            st.detach_q += 1;
            let folded_past =
                st.fold_epoch.wrapping_sub(self.epoch.wrapping_add(1)) <= u32::MAX / 2;
            if !self.pending || folded_past {
                // Either this epoch still needs our arrival (never
                // registered), or our detach missed this epoch's fold
                // and the next epoch already counts us: proxy once.
                st.count += 1;
                proxy = true;
                st.expected > 0 && st.count == st.expected
            } else {
                false
            }
        };
        if proxy {
            trace::emit(self.epoch, self.tid, trace::Kind::ProxyArrival(self.shard));
        }
        self.pending = false;
        if complete {
            AsyncBarrier::shard_complete(&inner, self.tid);
        }
    }

    /// Rejoins after [`AsyncWaiter::leave`] (or a drop-while-pending
    /// elsewhere followed by `waiter_for`): files an attach that the
    /// next epoch boundary folds in; the following wait blocks until
    /// that boundary. Returns `Ok(false)` if the seat never left.
    pub fn rejoin(&mut self) -> Result<bool, BarrierError> {
        if self.inner.poison.load(Ordering::Acquire) != 0 {
            return Err(BarrierError::Poisoned);
        }
        if !self.left {
            return Ok(false);
        }
        let inner = Arc::clone(&self.inner);
        let mut r = inner.root.lock().unwrap();
        let mut st = inner.shards[self.shard as usize].lock().unwrap();
        if r.live == 0 {
            r.live = 1;
            if st.expected == 0 {
                r.target += 1;
            }
            st.expected += 1;
            self.epoch = st.fold_epoch;
            self.pending = false;
        } else {
            r.live += 1;
            st.attach_q += 1;
            self.epoch = st.fold_epoch;
            self.pending = true;
        }
        drop(st);
        drop(r);
        self.left = false;
        trace::emit(self.epoch, self.tid, trace::Kind::Rejoin);
        Ok(true)
    }

    /// Whether this seat has left the barrier.
    pub fn has_left(&self) -> bool {
        self.left
    }
}

impl Drop for AsyncWaiter {
    fn drop(&mut self) {
        // Mid-episode drop = the session vanished: degrade gracefully
        // instead of wedging (or poisoning) a million peers. An idle
        // drop keeps the seat for a future `waiter_for`.
        if self.pending && !self.left {
            self.leave();
        }
    }
}

/// Future for one barrier crossing; see [`AsyncWaiter::wait_async`] /
/// [`AsyncWaiter::wait_deadline`].
///
/// Dropping it mid-wait (cancellation) leaves the arrival registered —
/// the same contract as a timed-out synchronous wait: the waiter
/// resumes the episode on its next wait call.
#[derive(Debug)]
pub struct WaitFuture<'w> {
    waiter: &'w mut AsyncWaiter,
    deadline: Deadline,
    timer: Option<Timer>,
}

impl Future for WaitFuture<'_> {
    type Output = Result<(), BarrierError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.waiter
            .poll_step(cx.waker(), this.deadline, this.timer.as_ref())
    }
}

impl crate::fuzzy::FuzzyWaiter for AsyncWaiter {
    fn arrive(&mut self) {
        AsyncWaiter::arrive(self)
    }
    fn depart(&mut self) {
        if let Err(e) = self.try_wait() {
            panic!("async barrier depart failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossings(p: u32, shards: u32, episodes: u32) {
        let b = AsyncBarrier::new(p, shards);
        std::thread::scope(|s| {
            for tid in 0..p {
                let b = b.clone();
                s.spawn(move || {
                    let mut w = b.waiter_for(tid);
                    for _ in 0..episodes {
                        w.try_wait().unwrap();
                    }
                });
            }
        });
        assert_eq!(b.epoch(), episodes);
        assert!(!b.is_poisoned());
    }

    #[test]
    fn crossings_at_various_shapes() {
        crossings(1, 1, 5);
        crossings(2, 1, 20);
        crossings(5, 4, 20);
        crossings(8, 16, 10); // more shards than seats: some stay empty
    }

    /// `new`'s per-shard quotas and `shard()` follow one rule: seats
    /// `0..p` fill the shards in contiguous blocks whose sizes differ
    /// by at most one.
    #[test]
    fn seats_fill_shards_in_contiguous_balanced_blocks() {
        for p in 1..=257u32 {
            for shards in 1..=17u32 {
                let b = AsyncBarrier::new(p, shards);
                let mut sizes = vec![0u32; shards as usize];
                let mut prev = 0;
                for t in 0..p {
                    let s = b.waiter_for(t).shard();
                    assert!(
                        s >= prev,
                        "p={p} shards={shards}: seat {t} on {s} after {prev}"
                    );
                    prev = s;
                    sizes[s as usize] += 1;
                }
                for (s, &n) in sizes.iter().enumerate() {
                    let expected = b.inner.shards[s].lock().unwrap().expected;
                    assert_eq!(expected, n, "p={p} shards={shards}: shard {s}");
                }
                if p >= shards {
                    let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(*lo > 0 && hi - lo <= 1, "p={p} shards={shards}: {sizes:?}");
                }
            }
        }
    }

    /// Seats admitted beyond `p` wrap into the blocks and cross with
    /// the built ones.
    #[test]
    fn admitted_seats_wrap_into_blocks_and_cross() {
        const EPISODES: u32 = 10;
        for (p, shards, admits) in [(5, 4, 3), (7, 3, 4)] {
            let b = AsyncBarrier::new(p, shards);
            let admitted: Vec<AsyncWaiter> = (0..admits).map(|_| b.admit()).collect();
            std::thread::scope(|s| {
                let built = (0..p).map(|tid| b.waiter_for(tid));
                for mut w in built.chain(admitted) {
                    // An admitted seat's first wait is the boundary
                    // that folds it in; every seat ends at EPISODES.
                    s.spawn(move || {
                        for _ in 0..EPISODES {
                            w.try_wait().unwrap();
                        }
                    });
                }
            });
            assert_eq!(b.epoch(), EPISODES, "p={p} shards={shards}");
            assert_eq!(b.live_count(), p + admits);
        }
    }

    /// Counts its wakes.
    struct CountWake(std::sync::atomic::AtomicU32);

    impl std::task::Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn count_waker() -> (Arc<CountWake>, Waker) {
        let count = Arc::new(CountWake(std::sync::atomic::AtomicU32::new(0)));
        (Arc::clone(&count), Waker::from(count))
    }

    #[test]
    fn first_poll_short_of_its_shard_counts_and_parks_at_once() {
        let b = AsyncBarrier::new(2, 1);
        let mut w0 = b.waiter_for(0);
        let (woken, waker) = count_waker();
        assert!(w0.poll_wait(&mut Context::from_waker(&waker)).is_pending());
        assert!(
            b.debug_state().ends_with(" s0{c=1 e=2 +0 -0 f=0 w=1}"),
            "{}",
            b.debug_state()
        );
        b.waiter_for(1).try_wait().unwrap();
        assert_eq!(woken.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(w0.poll_wait(&mut Context::from_waker(&waker)).is_ready());
    }

    #[test]
    fn shard_completing_arrival_parks_exactly_once() {
        let b = AsyncBarrier::new(2, 2);
        let mut w0 = b.waiter_for(0);
        let (woken, waker) = count_waker();
        assert!(w0.poll_wait(&mut Context::from_waker(&waker)).is_pending());
        assert!(
            b.debug_state().contains(" s0{c=1 e=1 +0 -0 f=0 w=1}"),
            "{}",
            b.debug_state()
        );
        b.waiter_for(1).try_wait().unwrap();
        assert_eq!(woken.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(w0.poll_wait(&mut Context::from_waker(&waker)).is_ready());
        assert!(b.debug_state().ends_with(" s1{c=0 e=1 +0 -0 f=1 w=0}"));
    }

    #[test]
    fn async_tasks_cross_on_the_executor() {
        let p = 64;
        let b = AsyncBarrier::new(p, 4);
        let exec = Executor::new(2);
        for tid in 0..p {
            let b = b.clone();
            exec.spawn(async move {
                let mut w = b.waiter_for(tid);
                for _ in 0..30 {
                    w.wait_async().await.unwrap();
                }
            });
        }
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(60))));
        assert_eq!(b.epoch(), 30);
    }

    #[test]
    fn timeout_resumes_same_episode() {
        let b = AsyncBarrier::new(2, 2);
        let mut w0 = b.waiter_for(0);
        assert_eq!(
            w0.wait_timeout(Duration::from_millis(5)),
            Err(BarrierError::Timeout)
        );
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.waiter_for(1).try_wait().unwrap());
        w0.wait_timeout(Duration::from_secs(5)).unwrap();
        h.join().unwrap();
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    fn leave_mid_episode_unwedges_peers() {
        let b = AsyncBarrier::new(3, 2);
        let mut w0 = b.waiter_for(0);
        let mut w1 = b.waiter_for(1);
        w0.arrive(); // arrived, then vanishes
        w0.leave();
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            let mut w2 = b2.waiter_for(2);
            for _ in 0..3 {
                w2.try_wait().unwrap();
            }
        });
        for _ in 0..3 {
            w1.try_wait().unwrap();
        }
        h.join().unwrap();
        assert_eq!(b.live_count(), 2);
        assert_eq!(
            w0.try_wait(),
            Err(BarrierError::Evicted),
            "a departed seat must not silently re-arrive"
        );
    }

    #[test]
    fn drop_while_pending_leaves_gracefully() {
        let b = AsyncBarrier::new(2, 1);
        {
            let mut w0 = b.waiter_for(0);
            w0.arrive();
            // dropped here, mid-episode
        }
        b.waiter_for(1).try_wait().unwrap();
        assert_eq!(b.live_count(), 1);
        assert!(!b.is_poisoned());
    }

    #[test]
    fn admit_grows_membership_at_boundary() {
        let b = AsyncBarrier::new(1, 2);
        let mut w0 = b.waiter_for(0);
        let mut w9 = b.admit();
        assert_eq!(b.live_count(), 2);
        let h = std::thread::spawn(move || {
            // Completes with the boundary that folds the seat in, then
            // participates normally.
            w9.try_wait().unwrap();
            w9.try_wait().unwrap();
            w9.tid()
        });
        w0.try_wait().unwrap(); // releases epoch 0, folding the attach
        w0.try_wait().unwrap(); // epoch 1 now needs both seats
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(b.epoch(), 2);
    }

    #[test]
    fn drained_barrier_readmits_immediately() {
        let b = AsyncBarrier::new(1, 1);
        let mut w0 = b.waiter_for(0);
        w0.leave(); // proxy releases epoch 0, then live = 0
        assert_eq!(b.live_count(), 0);
        let mut w = b.admit();
        assert_eq!(b.live_count(), 1);
        w.try_wait().unwrap(); // alone: completes immediately
        assert!(!b.is_poisoned());
    }

    #[test]
    fn rejoin_after_leave() {
        let b = AsyncBarrier::new(2, 1);
        let mut w0 = b.waiter_for(0);
        let mut w1 = b.waiter_for(1);
        w0.leave();
        w1.try_wait().unwrap(); // crosses alone
        assert_eq!(w0.rejoin(), Ok(true));
        assert_eq!(w1.rejoin(), Ok(false));
        let h = std::thread::spawn(move || {
            w0.try_wait().unwrap();
            w0.try_wait().unwrap();
        });
        // w1 releases the boundary that folds w0 back in, then both
        // cross together.
        w1.try_wait().unwrap();
        w1.try_wait().unwrap();
        h.join().unwrap();
        assert_eq!(b.live_count(), 2);
    }

    #[test]
    fn poison_wakes_parked_waiters() {
        let b = AsyncBarrier::new(2, 1);
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.waiter_for(0).try_wait());
        // Let the waiter park, then poison.
        std::thread::sleep(Duration::from_millis(10));
        b.poison();
        assert_eq!(h.join().unwrap(), Err(BarrierError::Poisoned));
        assert_eq!(b.waiter_for(1).try_wait(), Err(BarrierError::Poisoned));
    }

    #[test]
    fn lost_wakeups_recover_via_deadline_repoll() {
        use combar_chaos::WakeChaosConfig;
        let p = 16;
        let b = AsyncBarrier::new(p, 2);
        b.inject_wake_faults(Some(WakeFaultPlan::new(WakeChaosConfig::lossy(3, 0.3))));
        let exec = Executor::new(2);
        let timer = Timer::new();
        for tid in 0..p {
            let b = b.clone();
            let timer = timer.clone();
            exec.spawn(async move {
                let mut w = b.waiter_for(tid);
                for _ in 0..20 {
                    // Every wait carries a per-logical deadline: a
                    // dropped wakeup costs one re-poll, never a hang.
                    loop {
                        let deadline = Instant::now() + Duration::from_millis(20);
                        match w.wait_deadline(deadline, &timer).await {
                            Ok(()) => break,
                            Err(BarrierError::Timeout) => continue,
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            });
        }
        assert!(
            exec.wait_idle(Deadline::after(Duration::from_secs(60))),
            "lost wakeups must not hang the run"
        );
        assert_eq!(b.epoch(), 20);
    }

    #[test]
    fn wake_latency_percentiles_record_when_enabled() {
        let b = AsyncBarrier::new(2, 1);
        assert_eq!(b.wake_latency_percentiles(), None);
        b.record_wake_latency();
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            let mut w = b2.waiter_for(0);
            for _ in 0..5 {
                w.try_wait().unwrap();
            }
        });
        let mut w = b.waiter_for(1);
        for _ in 0..5 {
            w.try_wait().unwrap();
        }
        h.join().unwrap();
        let (p50, p95, p99) = b.wake_latency_percentiles().expect("batches recorded");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn fuzzy_split_arrive_then_depart() {
        use crate::fuzzy::FuzzyWaiter as _;
        let b = AsyncBarrier::new(2, 1);
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            let mut w = b2.waiter_for(0);
            for _ in 0..10 {
                w.arrive();
                w.depart();
            }
        });
        let mut w = b.waiter_for(1);
        for _ in 0..10 {
            w.arrive();
            w.depart();
        }
        h.join().unwrap();
        assert_eq!(b.epoch(), 10);
    }
}
