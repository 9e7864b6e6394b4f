//! The tournament barrier (Hensgen, Finkel & Manber).
//!
//! Another classic `O(log p)` baseline: threads play ⌈log₂ p⌉ rounds of
//! statically paired matches. The pre-determined *loser* of each match
//! signals the winner and sits out; the winner waits for the signal and
//! advances. The champion releases everyone through the shared epoch
//! flag. Unlike the combining tree, every signal targets a statically
//! known location — no fetch-and-increment is needed at all, only
//! single-writer flags — which is why it appears as the minimum-
//! communication alternative in the literature the paper builds on.
//!
//! Like the dissemination barrier, the tournament has no useful
//! arrive/depart split (winners *block* inside the arrival phase
//! waiting for their losers), so it implements only `wait`.
//!
//! # Fault model: adoption instead of proxies
//!
//! The counter trees heal by *proxy*: an evictor walks the dead
//! thread's counters for it. That does not transfer to the tournament —
//! the dead thread is the unique signaller of its bracket, every
//! episode, forever. What does transfer is *idempotence*: the match
//! flags carry episode numbers, so replaying a bracket that was already
//! (partially) played stores the same values again and changes nothing.
//! Self-healing is therefore built from three pieces:
//!
//! * **Adoption** — every loser remembers which winner it signalled
//!   (its `watch`). If that winner is declared dead before the release
//!   arrives, the loser replays the dead winner's *entire* bracket from
//!   round 0 — and, chasing the chain, the bracket of any further dead
//!   winner it signals. Multiple adopters may co-play the same track;
//!   the flags are idempotent, so nobody can disagree.
//! * **Self-service** — a winner whose awaited subtree consists
//!   entirely of dead ranks stores its own flag (there is nobody left
//!   to adopt on that side). Flag stores go through a monotone
//!   ("store-max") CAS so a stale revenant replay can never clobber a
//!   fresher episode's signal.
//! * **A release ticket** — with adoption, several threads can finish
//!   the champion's track for the same episode; a CAS on the `applied`
//!   counter elects exactly one of them to reconfigure the bracket and
//!   publish the epoch.
//!
//! Membership changes (detach / rejoin-attach) are applied by the
//! ticket holder inside its quiescent window, as in the counter trees:
//! live threads are re-ranked densely (`rank_of` / `tid_of`) and the
//! round count shrinks to `⌈log₂ live⌉`, so a degraded barrier also
//! gets a *shorter* tournament, not just a tolerant one. A rejoiner
//! that comes back before its detach applied resumes fast; one that
//! was detached waits for the boundary grant, exactly like the tree
//! barriers (`heal::try_rejoin_step`).
//!
//! A thread that dies mid-bracket *without* being declared (evicted)
//! still poisons the barrier — detection is the supervisor's job, not
//! the bracket's.

use crate::error::BarrierError;
use crate::heal::{self, Change, Membership, RejoinStatus, SelfHealing};
use crate::pad::CachePadded;
use crate::roster::{Arrival, Roster};
use crate::spin::{Backoff, Deadline};
use crate::sync::{AtomicU32, Ordering};
use combar_trace as trace;
use std::time::{Duration, Instant};

/// Sentinel rank/tid for "not in the live bracket".
const INVALID: u32 = u32::MAX;

/// Whether epoch-valued `flag` has reached `target` (wrapping).
#[inline]
fn reached(flag: u32, target: u32) -> bool {
    flag.wrapping_sub(target) <= u32::MAX / 2
}

fn rounds_for(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        (n - 1).ilog2() + 1
    }
}

/// A tournament barrier for `p` threads.
#[derive(Debug)]
pub struct TournamentBarrier {
    /// `flags[r][w]`: episode number signalled to the winner at *rank*
    /// `w` in round `r`. Monotone per slot (store-max CAS), which makes
    /// replays by adopters idempotent and stale replays harmless.
    flags: Vec<Vec<CachePadded<AtomicU32>>>,
    epoch: CachePadded<AtomicU32>,
    poison: CachePadded<AtomicU32>,
    /// Release ticket: the last episode whose champion duties
    /// (reconfigure + epoch publish) were claimed. With adoption,
    /// several threads may finish the champion track; CAS `ep-1 → ep`
    /// elects exactly one.
    applied: CachePadded<AtomicU32>,
    /// Bracket position of each live tid, `INVALID` when detached.
    rank_of: Vec<CachePadded<AtomicU32>>,
    /// Inverse map: tid seated at each rank (`INVALID` above `live_n`).
    tid_of: Vec<CachePadded<AtomicU32>>,
    live_n: CachePadded<AtomicU32>,
    rounds_cur: CachePadded<AtomicU32>,
    roster: Roster,
    membership: Membership,
    base_rounds: u32,
    p: u32,
}

impl TournamentBarrier {
    /// Creates a barrier for `p` threads.
    ///
    /// Prefer building through [`crate::BarrierBuilder`] when a
    /// trait-object ([`crate::Barrier`]) surface, supervision, or a
    /// trace sink is wanted; the direct constructor stays for
    /// statically-typed embedding.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: u32) -> Self {
        assert!(p > 0, "barrier needs at least one thread");
        let base_rounds = rounds_for(p);
        let flags = (0..base_rounds)
            .map(|_| {
                (0..p)
                    .map(|_| CachePadded::new(AtomicU32::new(0)))
                    .collect()
            })
            .collect();
        Self {
            flags,
            epoch: CachePadded::new(AtomicU32::new(0)),
            poison: CachePadded::new(AtomicU32::new(0)),
            applied: CachePadded::new(AtomicU32::new(0)),
            rank_of: (0..p)
                .map(|t| CachePadded::new(AtomicU32::new(t)))
                .collect(),
            tid_of: (0..p)
                .map(|t| CachePadded::new(AtomicU32::new(t)))
                .collect(),
            live_n: CachePadded::new(AtomicU32::new(p)),
            rounds_cur: CachePadded::new(AtomicU32::new(base_rounds)),
            roster: Roster::new(p),
            membership: Membership::new(p),
            base_rounds,
            p,
        }
    }

    /// Number of participating threads.
    pub fn threads(&self) -> u32 {
        self.p
    }

    /// Number of rounds in the *current* bracket, `⌈log₂ live⌉`.
    /// Shrinks after detaches, returns to [`Self::base_rounds`] after
    /// full rejoin.
    pub fn rounds(&self) -> u32 {
        self.rounds_cur.load(Ordering::Acquire)
    }

    /// Number of rounds of the fault-free bracket, `⌈log₂ p⌉`.
    pub fn base_rounds(&self) -> u32 {
        self.base_rounds
    }

    /// Whether a participant died mid-episode, wedging the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire) != 0
    }

    /// Number of currently evicted participants.
    pub fn evicted_count(&self) -> u32 {
        self.roster.evicted_count()
    }

    /// Whether participant `tid` is currently evicted.
    pub fn is_evicted(&self, tid: u32) -> bool {
        self.roster.is_evicted(tid)
    }

    /// Number of participants the live bracket currently seats.
    pub fn live_count(&self) -> u32 {
        self.membership.live_count()
    }

    /// Whether the live bracket still seats `tid` (detaches flip this
    /// at an episode boundary, not at declaration time).
    pub fn is_live(&self, tid: u32) -> bool {
        self.membership.is_live(tid)
    }

    /// Number of bracket reconfigurations applied so far.
    pub fn shape_epoch(&self) -> u32 {
        self.membership.shape_epoch()
    }

    /// Participants that have not arrived for the in-flight episode.
    pub fn stragglers(&self) -> Vec<u32> {
        self.roster.stragglers(&self.epoch, None)
    }

    /// Evicts participant `tid` if it has not arrived for the episode
    /// in flight. No proxy walk happens — the survivors notice the
    /// death inside their own waits (adoption / self-service) and
    /// replay the dead thread's bracket themselves. Returns whether
    /// the eviction happened (the roster refuses the last active
    /// participant: somebody must be left to run the bracket).
    ///
    /// This is the supervisor's call; a participant rescuing its own
    /// timed-out wait uses [`TournamentWaiter::evict_stragglers`].
    pub fn evict(&self, tid: u32) -> bool {
        self.evict_in(tid, None)
    }

    /// [`Self::evict`], declined unless `episode` (when given) is still
    /// the one in flight.
    fn evict_in(&self, tid: u32, episode: Option<u32>) -> bool {
        assert!(tid < self.p, "thread id out of range");
        let ok = self.roster.evict(tid, &self.epoch, episode);
        if ok && trace::attached() {
            trace::emit(
                self.epoch.load(Ordering::Relaxed),
                tid,
                trace::Kind::Evict(tid),
            );
        }
        ok
    }

    /// Declares `tid` dead: evicts it if needed and schedules its
    /// removal from the bracket at the next episode boundary. Refused
    /// when the thread has arrived for the in-flight episode — i.e. it
    /// is provably alive right now — or when it is the last live
    /// participant. Idempotent.
    ///
    /// Until the boundary, survivors adopt the thread's bracket under
    /// the old shape; afterwards the shrunken bracket simply has no
    /// seat for it.
    pub fn detach(&self, tid: u32) -> bool {
        assert!(tid < self.p, "thread id out of range");
        if self.membership.is_live(tid) && self.membership.live_count() <= 1 {
            return false;
        }
        let _ = self.evict(tid);
        self.membership.request_detach(&self.roster, tid)
    }

    /// Checks the rank maps against the membership ledger; call only at
    /// a quiescent point (no episode in flight). Used by property tests
    /// and the soak job.
    pub fn validate_shape(&self) -> Result<(), String> {
        let mask = self.membership.live_mask();
        let n = mask.iter().filter(|&&m| m).count() as u32;
        if self.live_n.load(Ordering::Acquire) != n {
            return Err(format!(
                "live_n {} != membership live count {n}",
                self.live_n.load(Ordering::Acquire)
            ));
        }
        let mut next = 0u32;
        for t in 0..self.p {
            let r = self.rank_of[t as usize].load(Ordering::Acquire);
            if mask[t as usize] {
                if r != next {
                    return Err(format!("tid {t}: rank {r}, expected dense rank {next}"));
                }
                let back = self.tid_of[r as usize].load(Ordering::Acquire);
                if back != t {
                    return Err(format!("rank {r}: tid_of {back} != {t}"));
                }
                next += 1;
            } else if r != INVALID {
                return Err(format!("detached tid {t} still holds rank {r}"));
            }
        }
        let rounds = self.rounds_cur.load(Ordering::Acquire);
        if rounds != rounds_for(n) {
            return Err(format!("rounds {rounds} != ⌈log₂ {n}⌉ = {}", rounds_for(n)));
        }
        if rounds > self.base_rounds {
            return Err(format!(
                "rounds {rounds} exceeds base bracket {}",
                self.base_rounds
            ));
        }
        Ok(())
    }

    /// Creates the per-thread handle for thread `tid`.
    ///
    /// Waiters may be created at any quiescent point; they inherit the
    /// barrier's current epoch.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn waiter(&self, tid: u32) -> TournamentWaiter<'_> {
        assert!(tid < self.p, "thread id out of range");
        TournamentWaiter {
            barrier: self,
            tid,
            epoch: self.epoch.load(Ordering::Acquire),
            rank: self.rank_of[tid as usize].load(Ordering::Acquire),
            round: 0,
            watch: INVALID,
            lost: false,
            mid: false,
            preclaimed: false,
            awaiting_attach: false,
        }
    }

    /// Monotone flag store: only ever advances the slot (wrapping), so
    /// replays are idempotent and a stale adopter can never overwrite a
    /// fresher episode's signal.
    fn store_flag(&self, r: u32, w: u32, ep: u32) {
        let slot = &self.flags[r as usize][w as usize];
        let mut cur = slot.load(Ordering::Acquire);
        while !reached(cur, ep) {
            match slot.compare_exchange(cur, ep, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(c) => {
                    trace::count_cas_failure();
                    cur = c;
                }
            }
        }
    }

    /// Whether the seat at rank `k` is dead (evicted) or vacant.
    fn rank_dead(&self, k: u32) -> bool {
        let t = self.tid_of[k as usize].load(Ordering::Acquire);
        t == INVALID || self.roster.is_evicted(t)
    }

    /// Whether every seat in `[lo, lo + span)` (clipped to the live
    /// bracket) is dead — i.e. nobody on that side is left to signal
    /// or adopt.
    fn span_dead(&self, lo: u32, span: u32) -> bool {
        let n = self.live_n.load(Ordering::Acquire);
        (lo..(lo.saturating_add(span)).min(n)).all(|k| self.rank_dead(k))
    }

    /// Champion duties for episode `ep`, exactly once per episode: the
    /// `applied` ticket elects one of the (possibly several, thanks to
    /// adoption) threads that completed the champion track. The winner
    /// folds pending membership changes into the bracket inside this
    /// quiescent window — everyone else is provably spinning on the
    /// epoch or the roster — then publishes the epoch and restamps
    /// evicted slots for the next episode (no proxy walk: the stamp
    /// only keeps roster `last` tags current for rejoin).
    fn try_release(&self, ep: u32, subject: u32) -> bool {
        if self
            .applied
            .compare_exchange(ep.wrapping_sub(1), ep, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.apply_pending();
        trace::emit(ep, subject, trace::Kind::Release);
        self.epoch.store(ep, Ordering::Release);
        self.roster.maintain(&self.epoch, |_| false);
        true
    }

    /// Folds pending detaches/attaches into the bracket: re-rank live
    /// tids densely, shrink/grow the round count, then grant attaches
    /// (the admit CAS publishes the new maps to each rejoiner). Plain
    /// stores are safe here: survivors observe them via the Release
    /// epoch bump that follows.
    fn apply_pending(&self) {
        if !self.membership.has_pending() {
            return;
        }
        let changes = self.membership.collect(&self.roster);
        if changes.is_empty() {
            return;
        }
        let mut n = 0u32;
        for t in 0..self.p {
            if self.membership.is_live(t) {
                self.rank_of[t as usize].store(n, Ordering::Relaxed);
                self.tid_of[n as usize].store(t, Ordering::Relaxed);
                n += 1;
            } else {
                self.rank_of[t as usize].store(INVALID, Ordering::Relaxed);
            }
        }
        for k in n..self.p {
            self.tid_of[k as usize].store(INVALID, Ordering::Relaxed);
        }
        self.live_n.store(n, Ordering::Relaxed);
        self.rounds_cur.store(rounds_for(n), Ordering::Relaxed);
        for c in &changes {
            if let Change::Attach(t) = c {
                self.membership.grant(&self.roster, *t);
            }
        }
    }

    /// Replays the bracket of the dead rank `start` for episode `ep`,
    /// statelessly and idempotently, chasing the chain of further dead
    /// winners it signals. Returns once the track is delivered (or the
    /// episode released under us).
    fn play_adopted(
        &self,
        start: u32,
        ep: u32,
        subject: u32,
        deadline: Deadline,
    ) -> Result<(), BarrierError> {
        let mut z = start;
        let mut r = 0u32;
        loop {
            if reached(self.epoch.load(Ordering::Acquire), ep) {
                return Ok(()); // episode released; nothing is owed
            }
            if r >= self.rounds_cur.load(Ordering::Acquire) {
                // The adopted track reached the champion slot.
                self.try_release(ep, subject);
                return Ok(());
            }
            let stride = 1u32 << r;
            if z % (stride << 1) == 0 {
                // `z` wins round `r` (or takes a bye).
                let loser = z + stride;
                if loser < self.live_n.load(Ordering::Acquire) {
                    self.wait_flag_adopted(r, z, loser, stride, ep, deadline)?;
                    if reached(self.epoch.load(Ordering::Acquire), ep) {
                        return Ok(());
                    }
                }
                r += 1;
            } else {
                // `z` loses round `r`: deliver its signal, then chase
                // the chain if that winner is dead too.
                let w = z - stride;
                trace::emit(ep, subject, trace::Kind::ProxyArrival(r));
                self.store_flag(r, w, ep);
                if self.rank_dead(w) {
                    z = w;
                    r = 0;
                    continue;
                }
                return Ok(());
            }
        }
    }

    /// The flag wait inside an adopted replay: like the waiter's own
    /// winner wait, minus the self-eviction check (an adopter owes the
    /// track regardless of its own roster state) and plus an early-out
    /// when the episode releases under it.
    fn wait_flag_adopted(
        &self,
        r: u32,
        w: u32,
        loser: u32,
        span: u32,
        ep: u32,
        deadline: Deadline,
    ) -> Result<(), BarrierError> {
        let flag = &self.flags[r as usize][w as usize];
        let mut backoff = Backoff::new();
        loop {
            if reached(flag.load(Ordering::Acquire), ep) {
                return Ok(());
            }
            if reached(self.epoch.load(Ordering::Acquire), ep) {
                return Ok(());
            }
            if self.is_poisoned() {
                return Err(BarrierError::Poisoned);
            }
            if self.span_dead(loser, span) {
                self.store_flag(r, w, ep);
                return Ok(());
            }
            if deadline.expired() {
                return Err(BarrierError::Timeout);
            }
            backoff.snooze();
        }
    }
}

impl SelfHealing for TournamentBarrier {
    fn threads(&self) -> u32 {
        TournamentBarrier::threads(self)
    }
    fn stragglers(&self) -> Vec<u32> {
        TournamentBarrier::stragglers(self)
    }
    fn fail(&self, tid: u32) -> bool {
        self.detach(tid)
    }
    fn is_poisoned(&self) -> bool {
        TournamentBarrier::is_poisoned(self)
    }
}

/// Per-thread handle to a [`TournamentBarrier`].
///
/// Dropping a waiter mid-episode poisons the barrier — unless the
/// participant was already evicted, in which case survivors adopt its
/// bracket and the drop is clean.
#[derive(Debug)]
pub struct TournamentWaiter<'a> {
    barrier: &'a TournamentBarrier,
    tid: u32,
    epoch: u32,
    /// Bracket seat for the episode in flight (latched at entry; the
    /// bracket cannot be reshaped while a live seat is mid-episode).
    rank: u32,
    /// Resume point for a timed-out episode: next match round to play.
    round: u32,
    /// The winner rank this thread signalled — the bracket it must
    /// adopt if that winner is declared dead before the release.
    watch: u32,
    /// Whether this thread already lost its match this episode (and is
    /// now only waiting for the champion's release).
    lost: bool,
    /// Whether an episode is in flight (entered but not completed).
    mid: bool,
    /// A fast rejoin already tagged the roster slot for the in-flight
    /// episode; the next entry must not re-claim it.
    preclaimed: bool,
    /// An attach request is outstanding; waiting for a releaser grant.
    awaiting_attach: bool,
}

impl TournamentWaiter<'_> {
    /// One full barrier episode.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is (or becomes) poisoned, or if this
    /// participant was evicted (use the fallible variants to handle
    /// eviction gracefully).
    pub fn wait(&mut self) {
        if let Err(e) = self.wait_deadline(Deadline::never()) {
            panic!("barrier wait failed: {e}");
        }
    }

    /// One full barrier episode bounded by `timeout`.
    ///
    /// On [`BarrierError::Timeout`] the matches already played stay
    /// played: call a wait method again to resume the same episode at
    /// the match that stalled. A timed-out waiter must not simply be
    /// dropped — that poisons the barrier; retry until release instead.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
        self.wait_deadline(Deadline::after(timeout))
    }

    /// Like [`Self::wait_timeout`] with an absolute deadline
    /// (`None` = unbounded).
    pub fn wait_until(&mut self, deadline: Option<Instant>) -> Result<(), BarrierError> {
        self.wait_deadline(Deadline::from_instant(deadline))
    }

    /// Unbounded fallible full barrier: like [`Self::wait`] but
    /// returning poisoning/eviction as an error instead of panicking.
    /// Reads no clock, so schedules stay deterministic under the
    /// `combar-check` model checker.
    pub fn try_wait(&mut self) -> Result<(), BarrierError> {
        self.wait_deadline(Deadline::never())
    }

    fn wait_deadline(&mut self, deadline: Deadline) -> Result<(), BarrierError> {
        let b = self.barrier;
        if b.is_poisoned() {
            return Err(BarrierError::Poisoned);
        }
        if !self.mid {
            let target = b.epoch.load(Ordering::Acquire).wrapping_add(1);
            if self.preclaimed && b.roster.last_of(self.tid) == target {
                // A fast rejoin already tagged the slot for this
                // episode; claiming again would trip the duplicate-
                // arrival check.
                self.preclaimed = false;
            } else {
                self.preclaimed = false;
                match b.roster.try_arrive(self.tid, target) {
                    Arrival::Claimed => {}
                    Arrival::Evicted => return Err(BarrierError::Evicted),
                }
            }
            let rank = b.rank_of[self.tid as usize].load(Ordering::Acquire);
            debug_assert!(rank != INVALID, "active participant must hold a rank");
            self.epoch = target;
            self.rank = rank;
            self.round = 0;
            self.lost = false;
            self.watch = INVALID;
            self.mid = true;
            trace::emit(self.epoch, self.tid, trace::Kind::Arrive);
        }
        let rounds = b.rounds_cur.load(Ordering::Acquire);
        let n = b.live_n.load(Ordering::Acquire);
        while !self.lost && self.round < rounds {
            let r = self.round;
            let stride = 1u32 << r;
            if self.rank % (stride << 1) == 0 {
                // Winner of this round — if a paired loser exists
                // (bye: advance without waiting).
                let loser = self.rank + stride;
                if loser < n {
                    self.wait_flag(r, loser, stride, deadline)?;
                }
                trace::emit(self.epoch, self.tid, trace::Kind::Win(r));
                self.round += 1;
            } else {
                // Loser: signal the winner, remember whom to adopt if
                // it dies, and stop playing.
                let w = self.rank - stride;
                trace::emit(self.epoch, self.tid, trace::Kind::Lose(r));
                b.store_flag(r, w, self.epoch);
                self.watch = w;
                self.lost = true;
            }
        }
        if !self.lost {
            // Champion track complete (also the trivial single-seat
            // bracket, where rounds == 0). The ticket decides whether
            // this thread or a co-playing adopter does the release;
            // either way the epoch wait below falls through.
            b.try_release(self.epoch, self.tid);
        }
        let mut backoff = Backoff::new();
        loop {
            if reached(b.epoch.load(Ordering::Acquire), self.epoch) {
                self.mid = false;
                return Ok(());
            }
            if b.is_poisoned() {
                return Err(BarrierError::Poisoned);
            }
            if self.watch != INVALID && b.rank_dead(self.watch) {
                // Replay the dead winner's bracket; the next pass of
                // this loop observes the epoch if the replay (or a
                // co-playing adopter) released it.
                b.play_adopted(self.watch, self.epoch, self.tid, deadline)?;
            }
            if deadline.expired() {
                return Err(BarrierError::Timeout);
            }
            backoff.snooze();
        }
    }

    /// The winner-side flag wait, polling the fault state: poisoning,
    /// this thread's own eviction (its bracket now belongs to the
    /// adopters — back out), and an all-dead subtree (self-serve the
    /// signal nobody is left to send).
    fn wait_flag(
        &mut self,
        r: u32,
        loser: u32,
        span: u32,
        deadline: Deadline,
    ) -> Result<(), BarrierError> {
        let b = self.barrier;
        let flag = &b.flags[r as usize][self.rank as usize];
        let mut backoff = Backoff::new();
        loop {
            if reached(flag.load(Ordering::Acquire), self.epoch) {
                return Ok(());
            }
            if b.is_poisoned() {
                return Err(BarrierError::Poisoned);
            }
            if b.roster.is_evicted(self.tid) {
                return Err(BarrierError::Evicted);
            }
            if b.span_dead(loser, span) {
                trace::emit(self.epoch, self.tid, trace::Kind::ProxyArrival(r));
                b.store_flag(r, self.rank, self.epoch);
                continue;
            }
            if deadline.expired() {
                return Err(BarrierError::Timeout);
            }
            backoff.snooze();
        }
    }

    /// One non-blocking rejoin step. Tournament resume semantics:
    ///
    /// * Fast path (merely evicted): the roster slot is re-tagged for
    ///   the in-flight episode, but nobody *delivered* that bracket —
    ///   adoption is lazy — so the waiter replays the episode itself on
    ///   its next wait call (idempotently co-playing with any adopter).
    /// * Boundary grant (was detached): the granting releaser seats the
    ///   thread in the new bracket and publishes that episode's epoch
    ///   right after, so the waiter resumes as lost-in-that-episode and
    ///   its next wait call completes immediately.
    pub fn try_rejoin(&mut self) -> Result<RejoinStatus, BarrierError> {
        let b = self.barrier;
        if b.is_poisoned() {
            return Err(BarrierError::Poisoned);
        }
        let was_awaiting = self.awaiting_attach;
        let mut pending = false;
        let status = heal::try_rejoin_step(
            &b.roster,
            &b.membership,
            self.tid,
            &mut self.awaiting_attach,
            &mut self.epoch,
            &mut pending,
        );
        if matches!(status, RejoinStatus::Rejoined) {
            if was_awaiting {
                self.epoch = self.epoch.wrapping_add(1);
                self.mid = true;
                self.lost = true;
                self.watch = INVALID;
            } else {
                self.mid = false;
                self.preclaimed = true;
            }
            trace::emit(self.epoch, self.tid, trace::Kind::Rejoin);
        }
        Ok(status)
    }

    /// Re-admission after eviction: drives [`Self::try_rejoin`] until
    /// it resolves, spin-then-yield between polls. Returns `Ok(false)`
    /// if this participant was not evicted. Complete the rejoin with a
    /// wait call.
    ///
    /// An attach can only be granted by an episode boundary, so this
    /// blocks until the live participants complete an episode; if they
    /// may be idle, prefer [`Self::rejoin_within`].
    pub fn rejoin(&mut self) -> Result<bool, BarrierError> {
        let this = self;
        heal::drive_rejoin(move || this.try_rejoin())
    }

    /// Bounded [`Self::rejoin`], polling with jittered exponential
    /// backoff so simultaneous rejoiners desynchronize. On
    /// [`BarrierError::Timeout`] any filed attach request stays
    /// pending; a later call resumes waiting for it.
    pub fn rejoin_within(&mut self, timeout: Duration) -> Result<bool, BarrierError> {
        let tid = self.tid;
        let this = self;
        heal::drive_rejoin_within(tid, timeout, move || this.try_rejoin())
    }

    /// The rescue after a timed-out wait: evicts every participant
    /// still missing from the episode this waiter is mid-way through,
    /// and returns their ids. Empty when no episode is in flight for
    /// this waiter or it has released in the meantime, so a late
    /// rescue never touches the next episode's participants.
    pub fn evict_stragglers(&mut self) -> Vec<u32> {
        if !self.mid {
            return Vec::new();
        }
        let b = self.barrier;
        let episode = Some(self.epoch);
        b.roster
            .stragglers(&b.epoch, episode)
            .into_iter()
            .filter(|&t| b.evict_in(t, episode))
            .collect()
    }

    /// This thread's id.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

impl Drop for TournamentWaiter<'_> {
    fn drop(&mut self) {
        // A mid-episode drop wedges the bracket — unless the thread was
        // already declared dead, in which case adoption covers it.
        if self.mid && !self.barrier.roster.is_evicted(self.tid) {
            self.barrier.poison.store(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    const SHORT: Duration = Duration::from_millis(5);
    const LONG: Duration = Duration::from_secs(10);

    fn lockstep(p: usize, episodes: u32) {
        let barrier = TournamentBarrier::new(p as u32);
        let phases: Vec<AtomicU32> = (0..p).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..p {
                let barrier = &barrier;
                let phases = &phases;
                s.spawn(move || {
                    let mut w = barrier.waiter(tid as u32);
                    for e in 0..episodes {
                        if (e as usize + tid) % 5 == 0 {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        phases[tid].store(e + 1, Ordering::Release);
                        w.wait();
                        for q in phases {
                            let ph = q.load(Ordering::Acquire);
                            assert!(ph == e + 1 || ph == e + 2, "p={p} episode {e}: {ph}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn lockstep_power_of_two() {
        lockstep(4, 120);
        lockstep(8, 120);
    }

    #[test]
    fn lockstep_odd_counts_use_byes() {
        lockstep(3, 120);
        lockstep(5, 120);
        lockstep(7, 120);
    }

    #[test]
    fn single_thread_never_blocks() {
        let b = TournamentBarrier::new(1);
        let mut w = b.waiter(0);
        for _ in 0..50 {
            w.wait();
        }
    }

    #[test]
    fn two_threads_round_count() {
        assert_eq!(TournamentBarrier::new(2).rounds(), 1);
        assert_eq!(TournamentBarrier::new(3).rounds(), 2);
        assert_eq!(TournamentBarrier::new(8).rounds(), 3);
    }

    #[test]
    fn survives_waiter_churn() {
        let b = TournamentBarrier::new(3);
        for _ in 0..4 {
            std::thread::scope(|s| {
                for tid in 0..3u32 {
                    let b = &b;
                    s.spawn(move || {
                        let mut w = b.waiter(tid);
                        for _ in 0..25 {
                            w.wait();
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn timeout_resumes_at_the_stalled_match() {
        // Thread 0 (the eventual champion) stalls waiting for thread 1.
        let b = TournamentBarrier::new(2);
        let mut w0 = b.waiter(0);
        assert_eq!(
            w0.wait_timeout(Duration::from_millis(2)),
            Err(BarrierError::Timeout)
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w1 = b.waiter(1);
                w1.wait_timeout(Duration::from_secs(2)).unwrap();
            });
            w0.wait_timeout(Duration::from_secs(2)).unwrap();
        });
        // A loser's timeout while awaiting the release also resumes.
        let mut w1 = b.waiter(1);
        let mut w0 = b.waiter(0);
        assert_eq!(
            w1.wait_timeout(Duration::from_millis(2)),
            Err(BarrierError::Timeout)
        );
        w0.wait_timeout(Duration::from_secs(2)).unwrap();
        w1.wait_timeout(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn dropping_mid_episode_poisons_peers() {
        let b = TournamentBarrier::new(4);
        {
            let mut dying = b.waiter(0);
            let _ = dying.wait_timeout(Duration::from_millis(1));
        }
        assert!(b.is_poisoned());
        let mut peer = b.waiter(2);
        assert_eq!(
            peer.wait_timeout(Duration::from_secs(1)),
            Err(BarrierError::Poisoned)
        );
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn waiter_bounds_checked() {
        let b = TournamentBarrier::new(2);
        let _ = b.waiter(5);
    }

    #[test]
    fn evicted_straggler_is_adopted_and_rejoins_fast() {
        // p=2: thread 1 never shows up; thread 0 self-serves its flag
        // after the eviction and releases alone.
        let b = TournamentBarrier::new(2);
        let mut w0 = b.waiter(0);
        assert_eq!(w0.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(b.stragglers(), vec![1]);
        assert!(b.evict(1));
        w0.wait_timeout(LONG).unwrap();
        // Further episodes release without thread 1 (bracket unchanged,
        // the dead seat is self-served every time).
        w0.wait_timeout(LONG).unwrap();
        // Fast rejoin: the slot is tagged for the in-flight episode and
        // the rejoiner replays that episode itself.
        let mut w1 = b.waiter(1);
        assert_eq!(w1.rejoin(), Ok(true));
        std::thread::scope(|s| {
            s.spawn(|| w1.wait_timeout(LONG).unwrap());
            w0.wait_timeout(LONG).unwrap();
        });
        assert!(!b.is_poisoned());
        assert_eq!(b.evicted_count(), 0);
    }

    #[test]
    fn dead_champion_is_adopted_by_its_losers() {
        let b = TournamentBarrier::new(4);
        let mut w1 = b.waiter(1);
        let mut w2 = b.waiter(2);
        let mut w3 = b.waiter(3);
        // Everyone but the champion plays; the bracket stalls on rank 0.
        assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w3.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w2.wait_timeout(SHORT), Err(BarrierError::Timeout));
        // Declare the champion dead: its direct losers (1 and 2) watch
        // it, replay its track, and one of them wins the release ticket.
        assert!(b.evict(0));
        w1.wait_timeout(LONG).unwrap();
        w2.wait_timeout(LONG).unwrap();
        w3.wait_timeout(LONG).unwrap();
        assert!(!b.is_poisoned());
        // Fast rejoin; the rejoiner replays the in-flight episode.
        let mut w0 = b.waiter(0);
        assert_eq!(w0.rejoin(), Ok(true));
        std::thread::scope(|s| {
            s.spawn(|| w0.wait_timeout(LONG).unwrap());
            s.spawn(|| w1.wait_timeout(LONG).unwrap());
            s.spawn(|| w2.wait_timeout(LONG).unwrap());
            w3.wait_timeout(LONG).unwrap();
        });
        assert_eq!(b.evicted_count(), 0);
        assert!(!b.is_poisoned());
    }

    #[test]
    fn detach_shrinks_bracket_and_rejoin_restores() {
        let b = TournamentBarrier::new(4);
        let mut w0 = b.waiter(0);
        let mut w1 = b.waiter(1);
        let mut w2 = b.waiter(2);
        let mut w3 = b.waiter(3);
        assert_eq!(b.rounds(), 2);
        // Declare thread 3 dead before it ever arrives.
        assert!(b.detach(3));
        assert!(b.is_evicted(3));
        assert!(b.is_live(3), "detach applies only at the boundary");
        // Losers first (they park on the epoch), then the champion.
        assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w2.wait_timeout(SHORT), Err(BarrierError::Timeout));
        w0.wait_timeout(LONG).unwrap();
        w1.wait_timeout(LONG).unwrap();
        w2.wait_timeout(LONG).unwrap();
        // The boundary applied the detach: three seats, still 2 rounds.
        assert!(!b.is_live(3));
        assert_eq!(b.live_count(), 3);
        assert_eq!(b.shape_epoch(), 1);
        assert_eq!(b.rounds(), 2);
        b.validate_shape().unwrap();
        // An episode under the shrunken bracket (rank 2 takes a bye).
        assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w2.wait_timeout(SHORT), Err(BarrierError::Timeout));
        w0.wait_timeout(LONG).unwrap();
        w1.wait_timeout(LONG).unwrap();
        w2.wait_timeout(LONG).unwrap();
        // Rejoin goes through the boundary grant.
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Pending);
        assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w2.wait_timeout(SHORT), Err(BarrierError::Timeout));
        w0.wait_timeout(LONG).unwrap();
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        w3.wait_timeout(LONG).unwrap();
        w1.wait_timeout(LONG).unwrap();
        w2.wait_timeout(LONG).unwrap();
        assert_eq!(b.live_count(), 4);
        assert_eq!(b.shape_epoch(), 2);
        assert_eq!(b.rounds(), 2);
        b.validate_shape().unwrap();
        // Full-strength episode: 3 loses to 2, 1 to 0, 2 to 0.
        assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w3.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w2.wait_timeout(SHORT), Err(BarrierError::Timeout));
        w0.wait_timeout(LONG).unwrap();
        w1.wait_timeout(LONG).unwrap();
        w2.wait_timeout(LONG).unwrap();
        w3.wait_timeout(LONG).unwrap();
        assert!(!b.is_poisoned());
    }

    #[test]
    fn detach_shrinks_round_count() {
        // 5 seats need 3 rounds; detaching down to 4 needs only 2.
        let b = TournamentBarrier::new(5);
        assert_eq!(b.rounds(), 3);
        let mut w: Vec<_> = (0..5).map(|t| b.waiter(t)).collect();
        assert!(b.detach(4));
        // Losers of the 4-live episode (old bracket still: 1→0, 3→2,
        // 2→0; rank 4's track is self-served).
        assert_eq!(w[1].wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w[3].wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w[2].wait_timeout(SHORT), Err(BarrierError::Timeout));
        w[0].wait_timeout(LONG).unwrap();
        for loser in w.iter_mut().take(4).skip(1) {
            loser.wait_timeout(LONG).unwrap();
        }
        assert_eq!(b.live_count(), 4);
        assert_eq!(b.rounds(), 2, "bracket shrank with the membership");
        b.validate_shape().unwrap();
    }

    #[test]
    fn rejoin_before_boundary_cancels_detach() {
        let b = TournamentBarrier::new(2);
        let mut w0 = b.waiter(0);
        let mut w1 = b.waiter(1);
        assert!(b.detach(1));
        // The parked slot cannot rejoin fast; it files an attach.
        assert_eq!(w1.try_rejoin().unwrap(), RejoinStatus::Pending);
        // The next boundary cancels the never-applied detach: no
        // reconfiguration, just a roster re-admission.
        w0.wait_timeout(LONG).unwrap();
        assert_eq!(w1.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        w1.wait_timeout(LONG).unwrap();
        assert_eq!(b.shape_epoch(), 0, "cancelled detach never reshaped");
        assert_eq!(b.live_count(), 2);
        b.validate_shape().unwrap();
    }

    #[test]
    fn detach_refuses_last_live_participant() {
        let b = TournamentBarrier::new(2);
        assert!(b.detach(1));
        let mut w0 = b.waiter(0);
        w0.wait_timeout(LONG).unwrap(); // boundary applies the detach
        assert_eq!(b.live_count(), 1);
        assert!(!b.detach(0), "cannot detach the last live seat");
        assert!(b.is_live(0));
        w0.wait_timeout(LONG).unwrap();
    }

    #[test]
    fn threaded_detach_then_rejoin_restores_lockstep() {
        let b = TournamentBarrier::new(4);
        let silent_flag = AtomicU32::new(0);
        // Phase A (threaded): thread 3 crosses 20 episodes then goes
        // silent; a detacher thread declares it dead; survivors keep
        // crossing through the reconfiguration by adopting its bracket.
        std::thread::scope(|s| {
            for tid in 0..3u32 {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for _ in 0..200 {
                        loop {
                            match w.wait_timeout(Duration::from_millis(200)) {
                                Ok(()) => break,
                                Err(BarrierError::Timeout) => continue,
                                Err(e) => panic!("survivor hit {e}"),
                            }
                        }
                    }
                });
            }
            let silent = &silent_flag;
            let b2 = &b;
            s.spawn(move || {
                let mut w = b2.waiter(3);
                for _ in 0..20 {
                    w.try_wait().unwrap();
                }
                // Dies silently; the waiter drop is clean (not mid).
                silent.store(1, Ordering::Release);
            });
            let b3 = &b;
            s.spawn(move || {
                let deadline = Deadline::after(Duration::from_secs(20));
                while silent.load(Ordering::Acquire) == 0 {
                    assert!(!deadline.expired(), "victim never went silent");
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Provably silent now: declare (retrying while its last
                // arrival's episode is still in flight).
                while !b3.detach(3) {
                    assert!(!deadline.expired(), "never declared thread 3");
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        assert!(!b.is_poisoned());
        assert_eq!(b.live_count(), 3);
        b.validate_shape().unwrap();
        // Phase B (single-threaded): rejoin through the boundary grant.
        let mut w3 = b.waiter(3);
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Pending);
        let mut w0 = b.waiter(0);
        let mut w1 = b.waiter(1);
        let mut w2 = b.waiter(2);
        assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(w2.wait_timeout(SHORT), Err(BarrierError::Timeout));
        w0.wait_timeout(LONG).unwrap();
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        w3.wait_timeout(LONG).unwrap();
        w1.wait_timeout(LONG).unwrap();
        w2.wait_timeout(LONG).unwrap();
        assert_eq!(b.live_count(), 4);
        b.validate_shape().unwrap();
        drop((w0, w1, w2, w3));
        // Phase C (threaded): full-strength lockstep again.
        std::thread::scope(|s| {
            for tid in 0..4u32 {
                let b = &b;
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for _ in 0..50 {
                        w.wait();
                    }
                });
            }
        });
        assert!(!b.is_poisoned());
    }
}
