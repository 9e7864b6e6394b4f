//! The counter-barrier core: one epoch / poison / evict / rejoin state
//! machine under the central, blocking, tree, dynamic, adaptive and
//! tournament barriers.
//!
//! The paper's central counter, degree-`d` combining tree and
//! dynamic-placement tree are one protocol: a thread updates a counter,
//! the last updater of a counter climbs to its parent, and the root's
//! last updater releases everyone through one shared epoch flag. They
//! differ only in degree (central is `d = p`) and in who sits where
//! (§5.1's victor/victim swap). The tournament is the degree-2 tree in
//! which a statically chosen winner advances (Mellor-Crummey & Scott,
//! TOCS 1991). [`Climb`] is that difference — the counters (or flags),
//! the walk, its proxy form and the shape rewrite a membership change
//! triggers; everything around it lives here, once: the waiter
//! life-cycle, the fault surface and the single release path.
//!
//! [`Notify`] is the second axis: how a waiter waits for the release
//! and how the release (or a poisoning) wakes it. The paper prices
//! arrival (the climb) and notification (the root's release) as two
//! terms; a barrier is one `Climb` × one `Notify`. [`Flag`], the
//! default, spins then yields on the epoch and needs no wake, so the
//! central, tree, dynamic and adaptive barriers are exactly their
//! climbs. [`Park`](crate::blocking::Park) sleeps until the release
//! wakes it: [`crate::BlockingBarrier`] is `Central × Park`, with the
//! same fault model as every other counter barrier.
//!
//! # Release path
//!
//! A climb (a waiter's own, a proxy's, or a resumed one) that fills the
//! root has already reset every counter it won, so at that instant no
//! counter holds a partial episode, every surviving waiter is waiting on
//! the epoch, and no proxy can start (all non-active roster slots are
//! stamped for the in-flight target). Inside that *quiescent window*
//! the releaser folds queued membership changes into the shape, emits
//! `Release`, and only then bumps the epoch: the Release bump publishes
//! the new shape to survivors, the roster re-admission CAS publishes it
//! to rejoiners, and reconfiguration never takes effect mid-episode.
//! (A tournament co-player may still be replaying the released
//! episode's track then; its flag values are stale to the next one.)
//! After the bump it sweeps proxy arrivals for every evicted slot into
//! the next episode. There is one such path, so an episode completed by
//! a proxy arrival is traced (`Win`/`Release`) exactly like one
//! completed by a waiter. The bump is followed by the notify's wake (a
//! no-op for [`Flag`]); so is the poisoning store of a dropped waiter.
//!
//! # Fault model
//!
//! * **Bounded waits.** [`CounterWaiter::wait_timeout`] bounds every
//!   wait; a timed-out arrival stays registered and the next wait call
//!   resumes the same episode.
//! * **Poisoning.** A waiter dropped between `arrive` and a completed
//!   depart (a panic unwinding through a fuzzy slack section) poisons
//!   the barrier: peers get [`BarrierError::Poisoned`] instead of
//!   waiting forever.
//! * **Eviction.** A participant that stops arriving can be evicted —
//!   by a peer whose own wait timed out
//!   ([`CounterWaiter::evict_stragglers`]) or by a supervisor
//!   ([`CounterBarrier::evict`]): its arrival is delivered by proxy for
//!   the in-flight episode and re-delivered at every later release, so
//!   the barrier keeps crossing at its old shape (and depth cost) with
//!   `p − evicted` threads. A waiter's rescue is bound to the episode
//!   its own arrival is pending in and does nothing once that episode
//!   has released: whoever is missing *then* is merely late for the
//!   next one. The last *active* participant is never evictable — with
//!   nobody left to arrive, proxies alone would release episodes
//!   forever — and the refusal is decided atomically, so racing
//!   evictors cannot both take the last two slots.
//! * **Detach.** [`CounterBarrier::detach`] ([`SelfHealing::fail`] from
//!   a supervisor) additionally removes the participant from the live
//!   shape at the next episode boundary: central shrinks its expected
//!   count, the trees re-prune the base topology
//!   (`Topology::prune_shape` — orphaned children re-parent onto the
//!   grandparent, single-survivor chains splice out).
//! * **Rejoin.** An evicted participant re-admits itself at once
//!   through the roster; a detached one files an attach request that
//!   the next releaser grants in its quiescent window, grafting the
//!   thread back at (the pruned position of) its original leaf, so full
//!   membership restores the exact original shape
//!   ([`CounterWaiter::try_rejoin`] / [`CounterWaiter::rejoin`] /
//!   [`CounterWaiter::rejoin_within`]).

use crate::error::BarrierError;
use crate::heal::{Change, JitterBackoff, Membership, RejoinStatus, SelfHealing};
use crate::pad::CachePadded;
use crate::roster::{Arrival, Roster};
use crate::spin::{epoch_outcome, wait_for_epoch_fallible, Backoff, Deadline};
use crate::sync::{AtomicU32, Ordering};
use combar_trace as trace;
use std::fmt;
use std::time::{Duration, Instant};

pub(crate) mod sealed {
    /// Keeps [`super::Climb`] and [`super::Notify`] closed: nameable
    /// (tests are generic over them) but implementable only inside this
    /// crate.
    pub trait Sealed {}
}

/// How a waiter waits for the release, and how the release wakes it.
/// Sealed — [`Flag`] and [`Park`](crate::blocking::Park) are its only
/// implementations.
pub trait Notify: sealed::Sealed + fmt::Debug + Default + Send + Sync {
    /// Waits until `epoch` reaches `target`, `poison` is set
    /// ([`BarrierError::Poisoned`]) or `deadline` passes
    /// ([`BarrierError::Timeout`]). The release check comes first, so a
    /// met target never reports a timeout or poisoning.
    fn wait(
        &self,
        epoch: &AtomicU32,
        target: u32,
        poison: &AtomicU32,
        deadline: Option<Instant>,
    ) -> Result<(), BarrierError>;

    /// Wakes every waiter; called after each epoch bump and after the
    /// poisoning store.
    fn wake(&self);
}

/// The global flag: waiters spin then yield on the epoch
/// ([`wait_for_epoch_fallible`]), so the epoch bump is the whole wake.
#[derive(Debug, Default, Clone, Copy)]
pub struct Flag;

impl sealed::Sealed for Flag {}

impl Notify for Flag {
    #[inline]
    fn wait(
        &self,
        epoch: &AtomicU32,
        target: u32,
        poison: &AtomicU32,
        deadline: Option<Instant>,
    ) -> Result<(), BarrierError> {
        wait_for_epoch_fallible(epoch, target, poison, deadline)
    }

    #[inline]
    fn wake(&self) {}
}

/// What differs between the counter barriers: the counters and the
/// walk over them. Sealed — the five kinds of this crate are its only
/// implementations, and it is not an extension point.
///
/// Every climb emits its own `Win`/`Lose` trace events, tagged with the
/// `tid`/`episode` it is given, and resets each counter it fills before
/// moving on, so a climb that returns `true` leaves the structure in
/// the quiescent window described in the [module docs](self). `episode`
/// is the number of episodes released before the one climbed for, and
/// `roster` tells which participants are evicted.
pub trait Climb: sealed::Sealed + fmt::Debug + Send + Sync {
    /// Whether a climb can stop short of its part of the episode (a
    /// tournament winner whose loser has not signalled). Only then does
    /// the depart wait call [`Self::resume`]; for the counter climbs the
    /// step compiles away.
    const RESUMES: bool = false;

    /// What a waiter carries from one episode to the next: nothing for
    /// the static kinds, the first counter for dynamic placement, where
    /// its climb stopped for the tournament.
    type Seat: fmt::Debug + Send + 'static;

    /// The seat a fresh (or just re-admitted) waiter of `tid` starts
    /// from.
    fn seat(&self, tid: u32) -> Self::Seat;

    /// `tid`'s own arrival; returns whether it filled the root.
    fn climb(&self, tid: u32, seat: &mut Self::Seat, episode: u32, roster: &Roster) -> bool;

    /// Goes on with a climb that stopped short, without waiting;
    /// returns whether it filled the root. The depart wait calls it
    /// between epoch looks, and only when [`Self::RESUMES`] is set.
    fn resume(&self, _tid: u32, _seat: &mut Self::Seat, _episode: u32, _roster: &Roster) -> bool {
        false
    }

    /// The arrival of evicted `tid`, performed by whoever evicted it or
    /// released the previous episode; emits `ProxyArrival` and returns
    /// whether it filled the root.
    fn proxy_climb(&self, tid: u32, episode: u32, roster: &Roster) -> bool;

    /// Rewrites the shape for the new live set. Called only inside the
    /// releaser's quiescent window, so plain stores suffice.
    fn reshape(&self, live: &[bool]);

    /// The longest chain of counters a live participant climbs.
    fn critical_depth(&self, live: &[bool]) -> u32;
}

/// A counter barrier: the shared state machine around one [`Climb`]
/// and one [`Notify`]. Used through its aliases
/// [`crate::CentralBarrier`], [`crate::BlockingBarrier`],
/// [`crate::TreeBarrier`], [`crate::DynamicBarrier`],
/// [`crate::AdaptiveBarrier`] and [`crate::TournamentBarrier`], which
/// add the constructors and the kind-specific accessors.
#[derive(Debug)]
pub struct CounterBarrier<K: Climb, N: Notify = Flag> {
    kind: K,
    pub(crate) notify: N,
    epoch: CachePadded<AtomicU32>,
    poison: CachePadded<AtomicU32>,
    roster: Roster,
    membership: Membership,
    p: u32,
}

impl<K: Climb, N: Notify> CounterBarrier<K, N> {
    pub(crate) fn with_climb(kind: K, p: u32) -> Self {
        Self {
            kind,
            notify: N::default(),
            epoch: CachePadded::new(AtomicU32::new(0)),
            poison: CachePadded::new(AtomicU32::new(0)),
            roster: Roster::new(p),
            membership: Membership::new(p),
            p,
        }
    }

    pub(crate) fn kind(&self) -> &K {
        &self.kind
    }

    pub(crate) fn live_mask(&self) -> Vec<bool> {
        self.membership.live_mask()
    }

    /// Number of participating threads.
    pub fn threads(&self) -> u32 {
        self.p
    }

    /// Creates the per-thread handle for participant `tid`.
    ///
    /// Waiters may be created at any quiescent point (no episode in
    /// flight): they inherit the barrier's current epoch (and, on the
    /// dynamic barrier, the thread's current home), so barriers survive
    /// being reused across thread-team phases.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn waiter_for(&self, tid: u32) -> CounterWaiter<'_, K, N> {
        assert!(tid < self.p, "thread id out of range");
        CounterWaiter {
            barrier: self,
            tid,
            epoch: self.epoch.load(Ordering::Acquire),
            seat: self.kind.seat(tid),
            pending: false,
            awaiting_attach: false,
        }
    }

    /// Whether a participant died mid-episode, wedging the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire) != 0
    }

    /// Number of currently evicted participants (may briefly count an
    /// eviction that is still being decided).
    pub fn evicted_count(&self) -> u32 {
        self.roster.evicted_count()
    }

    /// Whether participant `tid` is currently evicted.
    pub fn is_evicted(&self, tid: u32) -> bool {
        self.roster.is_evicted(tid)
    }

    /// Participants that have not arrived for the in-flight episode.
    pub fn stragglers(&self) -> Vec<u32> {
        self.roster.stragglers(&self.epoch, None)
    }

    /// Evicts participant `tid` if it has not arrived for the episode
    /// in flight, delivering its arrival by proxy so survivors release;
    /// every later release re-delivers the proxy. Returns whether the
    /// eviction happened: `false` if `tid` is already evicted, did
    /// arrive, or is the last active participant.
    ///
    /// This is the supervisor's call: it judges against whatever
    /// episode is in flight when it runs. A participant rescuing its
    /// own timed-out wait uses [`CounterWaiter::evict_stragglers`].
    pub fn evict(&self, tid: u32) -> bool {
        self.evict_in(tid, None)
    }

    /// [`Self::evict`], declined unless `episode` (when given) is still
    /// the one in flight.
    fn evict_in(&self, tid: u32, episode: Option<u32>) -> bool {
        assert!(tid < self.p, "thread id out of range");
        let Some(target) = self.roster.evict(tid, &self.epoch, episode) else {
            return false;
        };
        trace::emit(target.wrapping_sub(1), tid, trace::Kind::Evict(tid));
        if self.proxy_arrival(tid, target) {
            self.maintain();
        }
        true
    }

    /// Number of participants the live shape currently counts.
    pub fn live_count(&self) -> u32 {
        self.membership.live_count()
    }

    /// Whether the live shape still counts `tid` (detaches flip this at
    /// an episode boundary, not at declaration time).
    pub fn is_live(&self, tid: u32) -> bool {
        self.membership.is_live(tid)
    }

    /// Number of shape reconfigurations applied so far.
    pub fn shape_epoch(&self) -> u32 {
        self.membership.shape_epoch()
    }

    /// The longest chain of counters any *live* participant climbs —
    /// the barrier's current critical depth. Shrinks after detaches,
    /// returns to the base depth after full rejoin.
    pub fn critical_depth(&self) -> u32 {
        self.kind.critical_depth(&self.membership.live_mask())
    }

    /// Declares `tid` dead: evicts it if needed (delivering the
    /// in-flight proxy) and schedules its removal from the live shape
    /// for the next episode boundary. Fails (returning `false`) when
    /// the thread has arrived for the in-flight episode — it is
    /// provably alive right now — or when it is the last live
    /// participant (a barrier with nobody left could never release
    /// again). Idempotent.
    ///
    /// Until the boundary the proxy keeps covering the thread under the
    /// old shape; afterwards the shape simply stops counting it (the
    /// slot stays stamped so a later rejoin resumes cleanly).
    pub fn detach(&self, tid: u32) -> bool {
        assert!(tid < self.p, "thread id out of range");
        if self.membership.is_live(tid) && self.membership.live_count() <= 1 {
            return false;
        }
        let _ = self.evict(tid);
        self.membership.request_detach(&self.roster, tid)
    }

    /// Releases the episode whose root a climb just filled (the
    /// quiescent window; see the [module docs](self)).
    fn release(&self, subject: u32, episode: u32) {
        self.fold_membership();
        trace::emit(episode, subject, trace::Kind::Release);
        self.epoch.fetch_add(1, Ordering::Release);
        self.notify.wake();
    }

    /// Folds queued membership changes into the shape.
    fn fold_membership(&self) {
        if !self.membership.has_pending() {
            return;
        }
        let changes = self.membership.collect(&self.roster);
        if changes.is_empty() {
            return;
        }
        self.kind.reshape(&self.membership.live_mask());
        // Grants last: the roster CAS publishes the new shape to the
        // polling rejoiner (survivors get it from the epoch bump).
        for change in changes {
            match change {
                Change::Attach(tid) => self.membership.grant(&self.roster, tid),
                Change::Detach(tid) => debug_assert!(!self.membership.is_live(tid)),
            }
        }
    }

    /// One arrival on behalf of evicted `tid` for the episode that
    /// brings the epoch to `target` — the one its roster slot was just
    /// stamped for, even if that episode has released since; returns
    /// whether it released the episode.
    fn proxy_arrival(&self, tid: u32, target: u32) -> bool {
        let episode = target.wrapping_sub(1);
        let filled = self.kind.proxy_climb(tid, episode, &self.roster);
        if filled {
            self.release(tid, episode);
        }
        filled
    }

    /// Post-release proxy sweep for evicted participants. Detached
    /// slots are stamped but not climbed for — the live shape no longer
    /// counts them.
    fn maintain(&self) {
        self.roster.maintain(&self.epoch, |tid, target| {
            self.membership.is_live(tid) && self.proxy_arrival(tid, target)
        });
    }
}

impl<K: Climb, N: Notify> SelfHealing for CounterBarrier<K, N> {
    fn threads(&self) -> u32 {
        self.p
    }
    fn stragglers(&self) -> Vec<u32> {
        CounterBarrier::stragglers(self)
    }
    fn fail(&self, tid: u32) -> bool {
        self.detach(tid)
    }
    fn is_poisoned(&self) -> bool {
        CounterBarrier::is_poisoned(self)
    }
}

/// Per-thread handle to a [`CounterBarrier`] (aliased as
/// [`crate::CentralWaiter`], [`crate::BlockingWaiter`],
/// [`crate::TreeWaiter`], [`crate::DynamicWaiter`],
/// [`crate::AdaptiveWaiter`] and [`crate::TournamentWaiter`]).
///
/// Dropping a waiter between `arrive` and a completed depart (e.g. a
/// panic unwinding through the slack section of a fuzzy episode)
/// poisons the barrier: peers receive [`BarrierError::Poisoned`]
/// instead of waiting forever.
#[derive(Debug)]
pub struct CounterWaiter<'a, K: Climb, N: Notify = Flag> {
    barrier: &'a CounterBarrier<K, N>,
    tid: u32,
    epoch: u32,
    seat: K::Seat,
    pending: bool,
    /// An attach request is outstanding; waiting for a releaser grant.
    awaiting_attach: bool,
}

impl<'a, K: Climb, N: Notify> CounterWaiter<'a, K, N> {
    pub(crate) fn barrier(&self) -> &'a CounterBarrier<K, N> {
        self.barrier
    }

    pub(crate) fn seat(&self) -> &K::Seat {
        &self.seat
    }

    /// Signals arrival (the fuzzy barrier's release phase): climbs from
    /// this thread's counter. The caller may then run independent slack
    /// work before [`Self::depart`].
    ///
    /// # Panics
    ///
    /// Panics if called twice without a depart, if the barrier is
    /// poisoned, or if this participant has been evicted (use
    /// [`Self::try_arrive`] for the fallible form).
    pub fn arrive(&mut self) {
        if let Err(e) = self.try_arrive() {
            panic!("barrier arrive failed: {e}");
        }
    }

    /// Fallible arrival: errors with [`BarrierError::Poisoned`] or
    /// [`BarrierError::Evicted`] instead of panicking.
    pub fn try_arrive(&mut self) -> Result<(), BarrierError> {
        assert!(!self.pending, "arrive called twice without depart");
        let b = self.barrier;
        if b.is_poisoned() {
            return Err(BarrierError::Poisoned);
        }
        let target = self.epoch.wrapping_add(1);
        match b.roster.try_arrive(self.tid, target) {
            Arrival::Evicted => Err(BarrierError::Evicted),
            Arrival::Claimed => {
                self.pending = true;
                trace::emit(self.epoch, self.tid, trace::Kind::Arrive);
                if b.kind
                    .climb(self.tid, &mut self.seat, self.epoch, &b.roster)
                {
                    b.release(self.tid, self.epoch);
                    b.maintain();
                }
                Ok(())
            }
        }
    }

    /// Blocks until every thread of the current episode has arrived
    /// (the fuzzy barrier's enforce phase).
    ///
    /// # Panics
    ///
    /// Panics if called without an arrive, or if the barrier becomes
    /// poisoned while waiting.
    pub fn depart(&mut self) {
        if let Err(e) = self.depart_deadline(None) {
            panic!("barrier depart failed: {e}");
        }
    }

    fn depart_deadline(&mut self, deadline: Option<Instant>) -> Result<(), BarrierError> {
        assert!(self.pending, "depart called without arrive");
        let b = self.barrier;
        let target = self.epoch.wrapping_add(1);
        if K::RESUMES {
            self.resume_until(target, deadline)?;
        } else {
            b.notify.wait(&b.epoch, target, &b.poison, deadline)?;
        }
        self.epoch = target;
        self.pending = false;
        Ok(())
    }

    /// The depart wait of a climb that can stop short: between epoch
    /// looks it resumes the climb, so the climb's remaining waits get
    /// this wait's deadline and poison checks. It spins whatever the
    /// notify (the tournament, its one user, runs on [`Flag`]).
    fn resume_until(&mut self, target: u32, deadline: Option<Instant>) -> Result<(), BarrierError> {
        let b = self.barrier;
        let mut backoff = deadline.map_or_else(Backoff::new, Backoff::with_deadline);
        loop {
            if let Some(outcome) = epoch_outcome(&b.epoch, target, &b.poison) {
                return outcome;
            }
            if b.kind
                .resume(self.tid, &mut self.seat, self.epoch, &b.roster)
            {
                b.release(self.tid, self.epoch);
                b.maintain();
            } else if backoff.expired() {
                return Err(BarrierError::Timeout);
            } else {
                backoff.snooze();
            }
        }
    }

    fn wait_deadline(&mut self, deadline: Option<Instant>) -> Result<(), BarrierError> {
        if !self.pending {
            self.try_arrive()?;
        }
        self.depart_deadline(deadline)
    }

    /// A full barrier: `arrive` then `depart`.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is poisoned or this participant evicted.
    pub fn wait(&mut self) {
        if let Err(e) = self.wait_deadline(None) {
            panic!("barrier wait failed: {e}");
        }
    }

    /// A full barrier bounded by `timeout`.
    ///
    /// On [`BarrierError::Timeout`] the arrival stays registered: call
    /// a wait method again to resume the same episode rather than
    /// re-arriving. A timed-out waiter must not simply be dropped —
    /// that poisons the barrier (the episode still counts its arrival);
    /// retry, or have a peer evict it.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// Unbounded fallible full barrier: like [`Self::wait`] but
    /// returning poisoning/eviction as an error instead of panicking.
    /// Reads no clock, so schedules stay deterministic under the
    /// `combar-check` model checker.
    pub fn try_wait(&mut self) -> Result<(), BarrierError> {
        self.wait_deadline(None)
    }

    /// Unbounded fallible depart: like [`Self::depart`] but returning
    /// poisoning as an error instead of panicking. Reads no clock.
    pub fn try_depart(&mut self) -> Result<(), BarrierError> {
        self.depart_deadline(None)
    }

    /// Barrier episodes this waiter has completed (its local copy of
    /// the barrier epoch). After a rejoin, reflects the episode the
    /// proxied pending arrival belongs to minus one, so a revived
    /// participant can tell how many episodes its proxy already
    /// covered. The life-cycle is one type, so this is available on
    /// every counter waiter alike.
    pub fn episodes(&self) -> u32 {
        self.epoch
    }

    /// One non-blocking rejoin step. Reads no clock, so rejoin loops
    /// stay deterministic under the `combar-check` model checker.
    ///
    /// * Merely evicted (shape untouched) → re-admits immediately via
    ///   the fast roster path, returns [`RejoinStatus::Rejoined`].
    /// * Detached (or detach-parked) → files an attach request the next
    ///   episode's releaser grants inside its quiescent window, then
    ///   returns [`RejoinStatus::Pending`] until the grant lands.
    ///
    /// After `Rejoined` the waiter is mid-episode (its latest arrival
    /// was delivered by proxy, on the dynamic barrier from its live —
    /// possibly migrated — home): complete it with a wait call, which
    /// departs without re-arriving.
    pub fn try_rejoin(&mut self) -> Result<RejoinStatus, BarrierError> {
        let b = self.barrier;
        if b.is_poisoned() {
            return Err(BarrierError::Poisoned);
        }
        let (roster, tid) = (&b.roster, self.tid);
        let last = if self.awaiting_attach {
            if roster.is_evicted(tid) {
                return Ok(RejoinStatus::Pending);
            }
            // Granted: the admit CAS published the new shape, and the
            // slot's tag is the episode the grant released.
            self.awaiting_attach = false;
            roster.last_of(tid)
        } else if !roster.is_evicted(tid) {
            return Ok(RejoinStatus::NotEvicted);
        } else if roster.is_parked(tid) || !b.membership.is_live(tid) {
            b.membership.request_attach(tid);
            self.awaiting_attach = true;
            return Ok(RejoinStatus::Pending);
        } else {
            match roster.rejoin(tid) {
                Some(last) => last,
                // Lost the race with a detacher's park; a retry resolves it.
                None => return Ok(RejoinStatus::Pending),
            }
        };
        // Arrived for `last`, pending depart: proxies (fast path) or the
        // boundary reshape (attach path) kept the thread's place current.
        self.epoch = last.wrapping_sub(1);
        self.pending = true;
        self.seat = b.kind.seat(tid);
        trace::emit(self.epoch, tid, trace::Kind::Rejoin);
        Ok(RejoinStatus::Rejoined)
    }

    /// Re-admission after eviction: drives [`Self::try_rejoin`] until it
    /// resolves, spin-then-yield between polls. On success the waiter is
    /// mid-episode (its latest arrival was delivered by proxy): complete
    /// it with a wait call, which departs without re-arriving. Returns
    /// `Ok(false)` if this participant was not evicted.
    ///
    /// An attach can only be granted by an episode boundary, so for a
    /// detached participant this blocks until the live participants
    /// complete an episode; if they may be idle, prefer
    /// [`Self::rejoin_within`].
    pub fn rejoin(&mut self) -> Result<bool, BarrierError> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_rejoin()? {
                RejoinStatus::NotEvicted => return Ok(false),
                RejoinStatus::Rejoined => return Ok(true),
                RejoinStatus::Pending => backoff.snooze(),
            }
        }
    }

    /// [`Self::rejoin`] bounded by `timeout`, polling with jittered
    /// exponential backoff ([`crate::JitterBackoff`]) so simultaneous
    /// rejoiners desynchronize. Returns [`BarrierError::Timeout`] if no
    /// episode boundary granted the attach in time (the request stays
    /// filed; a later call resumes waiting for it).
    pub fn rejoin_within(&mut self, timeout: Duration) -> Result<bool, BarrierError> {
        let deadline = Deadline::after(timeout);
        let (base, max) = (Duration::from_micros(50), Duration::from_millis(5));
        let mut jitter = JitterBackoff::new(u64::from(self.tid) + 1, base, max);
        loop {
            match self.try_rejoin()? {
                RejoinStatus::NotEvicted => return Ok(false),
                RejoinStatus::Rejoined => return Ok(true),
                RejoinStatus::Pending if !jitter.sleep(deadline) => {
                    return Err(BarrierError::Timeout)
                }
                RejoinStatus::Pending => {}
            }
        }
    }

    /// The rescue after a timed-out wait: evicts every participant
    /// still missing from the episode this waiter's arrival is pending
    /// in, and returns their ids. Empty when no arrival is pending or
    /// the episode has released in the meantime — the rescue never
    /// reaches into a later episode, so it cannot evict a thread that
    /// is merely late for the next one (the caller included).
    pub fn evict_stragglers(&mut self) -> Vec<u32> {
        if !self.pending {
            return Vec::new();
        }
        let b = self.barrier;
        let episode = Some(self.epoch.wrapping_add(1));
        b.roster
            .stragglers(&b.epoch, episode)
            .into_iter()
            .filter(|&t| b.evict_in(t, episode))
            .collect()
    }

    /// This thread's participant id.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

impl<K: Climb, N: Notify> Drop for CounterWaiter<'_, K, N> {
    fn drop(&mut self) {
        if self.pending {
            self.barrier.poison.store(1, Ordering::Release);
            self.barrier.notify.wake();
        }
    }
}

/// Instantiates the [`lifecycle`] checks as `#[test]`s for the barrier
/// `$make(p)` constructs. A list after `$make;` replaces the checks that
/// need a proxy to release the episode it completes, which a climb that
/// releases in its depart cannot promise.
#[cfg(test)]
macro_rules! lifecycle_tests {
    ($make:expr) => {
        $crate::counter::lifecycle_tests!($make;
            evicting_everyone_spares_the_last_active_participant,
        );
    };
    ($make:expr; $($extra:ident,)*) => {
        $crate::counter::lifecycle_tests!(@ $make;
            single_thread_never_blocks,
            dropping_pending_waiter_poisons_peers,
            clean_drop_does_not_poison,
            evicting_an_arrived_thread_is_refused,
            detach_refuses_last_live_participant,
            eviction_lets_survivors_cross_and_rejoin_resumes,
            $($extra,)*
        );

        #[test]
        #[should_panic(expected = "arrive called twice")]
        fn double_arrive_is_rejected() {
            crate::counter::lifecycle::double_arrive_is_rejected($make)
        }

        #[test]
        #[should_panic(expected = "depart called without arrive")]
        fn depart_without_arrive_is_rejected() {
            crate::counter::lifecycle::depart_without_arrive_is_rejected($make)
        }
    };
    (@ $make:expr; $($check:ident,)*) => {
        $(
            #[test]
            fn $check() {
                crate::counter::lifecycle::$check($make)
            }
        )*
    };
}
#[cfg(test)]
pub(crate) use lifecycle_tests;

/// The shared life-cycle, tested once: each function takes a
/// constructor `make(p)` and [`lifecycle_tests!`] instantiates the set
/// in a kind's own test module, so every check runs over all five
/// climbs and both notifies.
#[cfg(test)]
pub(crate) mod lifecycle {
    use super::*;

    const LONG: Duration = Duration::from_millis(500);

    pub(crate) fn single_thread_never_blocks<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(1);
        let mut w = b.waiter_for(0);
        for _ in 0..100 {
            w.wait();
        }
        assert_eq!(w.episodes(), 100);
    }

    pub(crate) fn dropping_pending_waiter_poisons_peers<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(3);
        {
            let mut dying = b.waiter_for(0);
            dying.try_arrive().unwrap();
            // dropped here, mid-episode
        }
        assert!(b.is_poisoned());
        let mut peer = b.waiter_for(1);
        assert_eq!(peer.try_arrive(), Err(BarrierError::Poisoned));
        assert_eq!(peer.try_rejoin(), Err(BarrierError::Poisoned));
    }

    pub(crate) fn clean_drop_does_not_poison<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(1);
        {
            let mut w = b.waiter_for(0);
            w.wait();
        }
        assert!(!b.is_poisoned());
    }

    pub(crate) fn double_arrive_is_rejected<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(2);
        let mut w = b.waiter_for(0);
        w.arrive();
        w.arrive();
    }

    pub(crate) fn depart_without_arrive_is_rejected<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(2);
        let mut w = b.waiter_for(0);
        w.depart();
    }

    pub(crate) fn evicting_an_arrived_thread_is_refused<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(2);
        let mut w = b.waiter_for(0);
        w.try_arrive().unwrap();
        assert!(!b.evict(0), "arrived participant must not be evictable");
        assert_eq!(w.evict_stragglers(), vec![1]);
        w.wait_timeout(LONG).unwrap();
    }

    pub(crate) fn detach_refuses_last_live_participant<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(2);
        let mut w0 = b.waiter_for(0);
        assert!(b.detach(1));
        // The first boundary applies the detach; the second runs on
        // the shrunk shape alone.
        w0.try_wait().unwrap();
        w0.try_wait().unwrap();
        assert_eq!(b.live_count(), 1);
        assert!(!b.detach(0), "last live participant is not declarable");
        assert!(!b.is_evicted(0));
        w0.try_wait().unwrap();
    }

    /// Single-threaded orchestration of the full degradation cycle.
    pub(crate) fn eviction_lets_survivors_cross_and_rejoin_resumes<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(2);
        let mut alive = b.waiter_for(0);
        let mut lost = b.waiter_for(1);

        // Episode 1: tid 1 never arrives; the survivor times out, then
        // evicts the straggler and completes.
        alive.try_arrive().unwrap();
        assert_eq!(
            alive.wait_timeout(Duration::from_millis(2)),
            Err(BarrierError::Timeout)
        );
        assert_eq!(alive.evict_stragglers(), vec![1]);
        alive.wait_timeout(LONG).unwrap();

        // Survivor keeps crossing alone: proxies flow each release.
        for _ in 0..150 {
            alive.wait_timeout(LONG).unwrap();
        }
        assert_eq!(b.evicted_count(), 1);

        // The lost thread shows up late, learns of its eviction,
        // rejoins, and the pair is in lockstep again.
        assert_eq!(lost.try_arrive(), Err(BarrierError::Evicted));
        assert!(lost.rejoin().unwrap());
        assert_eq!(b.evicted_count(), 0);
        assert_eq!(lost.episodes(), 151, "151 episodes were covered by proxy");
        // The rejoined waiter resumes mid-episode (arrival proxied), so
        // its first wait merely departs; the pair then runs in lockstep.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..20 {
                    alive.wait_timeout(LONG).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..20 {
                    lost.wait_timeout(LONG).unwrap();
                }
            });
        });
    }

    /// A rescue that runs just after the episode it timed out on has
    /// released finds *every* live participant missing from the next
    /// one; being bound to its own episode it touches none of them.
    /// Barrier-level evictions are not bound, but stop at the last
    /// active participant: with nobody left to arrive, every proxy
    /// sweep would release an episode and never return.
    pub(crate) fn evicting_everyone_spares_the_last_active_participant<K: Climb, N: Notify>(
        make: impl Fn(u32) -> CounterBarrier<K, N>,
    ) {
        let b = make(3);
        let mut w0 = b.waiter_for(0);
        let mut w1 = b.waiter_for(1);
        w0.try_arrive().unwrap();
        w1.try_arrive().unwrap();
        assert_eq!(w0.evict_stragglers(), vec![2]); // releases episode 1
        assert_eq!(b.stragglers(), vec![0, 1], "judged against episode 2");
        assert!(w0.evict_stragglers().is_empty(), "episode 1 is over");
        assert!(b.evict(0));
        assert!(!b.evict(1), "the last active is spared");
        assert_eq!(b.evicted_count(), 2);
        assert!(!b.is_evicted(1));
        // Both waiters still cross: 0 learns of its eviction and
        // rejoins mid-episode 2, which 1's own arrival releases.
        w0.try_depart().unwrap();
        w1.try_depart().unwrap();
        assert_eq!(w0.try_arrive(), Err(BarrierError::Evicted));
        assert!(w0.rejoin().unwrap());
        w1.try_arrive().unwrap();
        w0.try_depart().unwrap();
        w1.try_depart().unwrap();
        for _ in 0..3 {
            w0.try_arrive().unwrap();
            w1.try_arrive().unwrap();
            w0.try_depart().unwrap();
            w1.try_depart().unwrap();
        }
    }
}
