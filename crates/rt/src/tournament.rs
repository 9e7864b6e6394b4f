//! The tournament barrier (Hensgen, Finkel & Manber).
//!
//! Another classic `O(log p)` baseline: threads play ⌈log₂ p⌉ rounds of
//! statically paired matches. The pre-determined *loser* of each match
//! signals the winner and sits out; the winner waits for the signal and
//! advances; the champion's last match fills the root. Unlike the
//! combining tree, every signal targets a statically known location —
//! no fetch-and-increment is needed at all, only single-writer flags —
//! which is why it appears as the minimum-communication alternative in
//! the literature the paper builds on. In Mellor-Crummey & Scott's
//! terms (ACM TOCS 1991) it is a degree-2 combining tree in which a
//! statically chosen winner advances, so it is a fifth [`Climb`] of the
//! [`counter`](crate::counter) core: this file holds only the match
//! protocol — the flags, the rank maps and the track play. The waiter
//! life-cycle, fault model, membership and release path are the core's.
//!
//! # Climbing without waiting
//!
//! A climb plays every match it can without waiting. A loser stores
//! its flag and is done. A winner whose loser has not signalled yet
//! records the round in its seat and stops; the core's depart wait
//! resumes it between epoch looks ([`Climb::resume`]), so its flag
//! waits get the core's deadline and poison checks. The fuzzy split
//! falls out of it: a winner plays its remaining matches in `depart`.
//!
//! # Fault model: proxies and adoption
//!
//! The flags carry episode numbers and only ever advance (a store-max
//! CAS), so replaying a track that was already (partly) played stores
//! the same values again and changes nothing, and a stale replay can
//! never clobber a fresher episode's signal. Every way the bracket
//! heals is one non-blocking track play (`Bracket::play`):
//!
//! * **Proxy** — the core's proxy arrival for an evicted rank plays
//!   its track as far as it goes without waiting; for a pure loser that
//!   is its flag store.
//! * **Adoption** — a player that stores the flag of a dead winner
//!   carries on with that winner's track from round 0, chasing the
//!   chain through further dead winners. Whoever completes a dead
//!   winner's last match is thus the one who plays on for it, so a play
//!   that stops at a dead rank's match needs no resuming. Several
//!   players may co-play a track.
//! * **A release ticket** — with co-players, several threads can reach
//!   the champion slot for the same episode; a CAS on `applied` elects
//!   exactly one of them, so the core's release runs once per episode.
//!
//! A rejoined waiter replays its own track from round 0 in its depart:
//! its proxy may have stopped at a match that a live loser then
//! completed without adopting. Membership changes fold in the core's
//! quiescent window: live threads are re-ranked densely and the round
//! count shrinks to `⌈log₂ live⌉`, so a degraded barrier also gets a
//! *shorter* tournament, not just a tolerant one.

use crate::counter::{sealed, Climb, CounterBarrier, CounterWaiter};
use crate::pad::CachePadded;
use crate::roster::Roster;
use crate::sync::{AtomicU32, Ordering};
use combar_trace as trace;

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

/// The tournament climb: the match flags and the bracket's rank maps.
#[derive(Debug)]
pub struct Bracket {
    /// `flags[r][w]`: episode number signalled to the winner at *rank*
    /// `w` in round `r`. Monotone per slot (store-max CAS), which makes
    /// replays idempotent and stale replays harmless.
    flags: Vec<Vec<CachePadded<AtomicU32>>>,
    /// Release ticket: the last episode whose champion slot was
    /// claimed; CAS `ep - 1 → ep` elects exactly one co-player.
    applied: CachePadded<AtomicU32>,
    /// Bracket position of each live tid, `INVALID` when detached.
    rank_of: Vec<CachePadded<AtomicU32>>,
    /// Inverse map: tid seated at each rank (`INVALID` above `live_n`).
    tid_of: Vec<CachePadded<AtomicU32>>,
    live_n: CachePadded<AtomicU32>,
    rounds_cur: CachePadded<AtomicU32>,
    base_rounds: u32,
}

/// How a track play ended.
enum Play {
    /// It reached the champion slot and won the release ticket.
    Released,
    /// Its part is played: a loss stored, or the champion slot reached
    /// after a co-player took the ticket.
    Done,
    /// Rank `rank`'s match in round `round` still waits for its flag.
    Stalled { rank: u32, round: u32 },
}

/// A tournament barrier for `p` threads.
pub type TournamentBarrier = CounterBarrier<Bracket>;

/// Per-thread handle to a [`TournamentBarrier`].
pub type TournamentWaiter<'a> = CounterWaiter<'a, Bracket>;

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
        let padded = |v| CachePadded::new(AtomicU32::new(v));
        let kind = Bracket {
            flags: (0..base_rounds)
                .map(|_| (0..p).map(|_| padded(0)).collect())
                .collect(),
            applied: padded(0),
            rank_of: (0..p).map(padded).collect(),
            tid_of: (0..p).map(padded).collect(),
            live_n: padded(p),
            rounds_cur: padded(base_rounds),
            base_rounds,
        };
        Self::with_climb(kind, p)
    }

    /// Creates the per-thread handle for thread `tid`; see
    /// [`Self::waiter_for`].
    pub fn waiter(&self, tid: u32) -> TournamentWaiter<'_> {
        self.waiter_for(tid)
    }

    /// Number of rounds in the *current* bracket, `⌈log₂ live⌉`.
    /// Shrinks after detaches, returns to [`Self::base_rounds`] after
    /// full rejoin.
    pub fn rounds(&self) -> u32 {
        self.kind().rounds_cur.load(Ordering::Acquire)
    }

    /// Number of rounds of the fault-free bracket, `⌈log₂ p⌉`.
    pub fn base_rounds(&self) -> u32 {
        self.kind().base_rounds
    }

    /// Checks the rank maps against the membership ledger; call only at
    /// a quiescent point (no episode in flight). Used by property tests
    /// and the soak job.
    pub fn validate_shape(&self) -> Result<(), String> {
        let k = self.kind();
        let mask = self.live_mask();
        let n = mask.iter().filter(|&&m| m).count() as u32;
        let live_n = k.live_n.load(Ordering::Acquire);
        if live_n != n {
            return Err(format!("live_n {live_n} != membership live count {n}"));
        }
        let mut next = 0u32;
        for (t, &live) in mask.iter().enumerate() {
            let r = k.rank_of[t].load(Ordering::Acquire);
            if live {
                if r != next {
                    return Err(format!("tid {t}: rank {r}, expected dense rank {next}"));
                }
                let back = k.tid_of[r as usize].load(Ordering::Acquire);
                if back != t as u32 {
                    return Err(format!("rank {r}: tid_of {back} != {t}"));
                }
                next += 1;
            } else if r != INVALID {
                return Err(format!("detached tid {t} still holds rank {r}"));
            }
        }
        // `n ≤ p`, so a match here also keeps the bracket within the
        // base one.
        let rounds = self.rounds();
        if rounds != rounds_for(n) {
            return Err(format!("rounds {rounds} != ⌈log₂ {n}⌉ = {}", rounds_for(n)));
        }
        Ok(())
    }
}

impl Bracket {
    /// Monotone flag store: only ever advances the slot (wrapping), so
    /// replays are idempotent and a stale player can never overwrite a
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
    fn rank_dead(&self, roster: &Roster, k: u32) -> bool {
        let t = self.tid_of[k as usize].load(Ordering::Acquire);
        t == INVALID || roster.is_evicted(t)
    }

    /// Plays rank `z`'s track from round `r` in the episode after
    /// `episode`, without waiting, and carries on with the track of
    /// every dead winner it signals (adoption). `subject` tags the
    /// trace events.
    fn play(&self, roster: &Roster, mut z: u32, mut r: u32, subject: u32, episode: u32) -> Play {
        let ep = episode.wrapping_add(1);
        let n = self.live_n.load(Ordering::Acquire);
        let rounds = self.rounds_cur.load(Ordering::Acquire);
        loop {
            if r >= rounds {
                return match self.applied.compare_exchange(
                    episode,
                    ep,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => Play::Released,
                    Err(_) => Play::Done,
                };
            }
            let stride = 1u32 << r;
            if z % (stride << 1) == 0 {
                // `z` wins round `r`, or takes a bye.
                if z + stride < n
                    && !reached(
                        self.flags[r as usize][z as usize].load(Ordering::Acquire),
                        ep,
                    )
                {
                    return Play::Stalled { rank: z, round: r };
                }
                trace::emit(episode, subject, trace::Kind::Win(r));
                r += 1;
            } else {
                let w = z - stride;
                trace::emit(episode, subject, trace::Kind::Lose(r));
                self.store_flag(r, w, ep);
                if !self.rank_dead(roster, w) {
                    return Play::Done;
                }
                trace::emit(episode, subject, trace::Kind::ProxyArrival(r));
                (z, r) = (w, 0);
            }
        }
    }

    /// `tid`'s own track from round `round`; the seat keeps the round
    /// its own match stalled at.
    fn play_own(
        &self,
        roster: &Roster,
        tid: u32,
        round: u32,
        seat: &mut Option<u32>,
        episode: u32,
    ) -> bool {
        let rank = self.rank_of[tid as usize].load(Ordering::Acquire);
        *seat = None;
        match self.play(roster, rank, round, tid, episode) {
            Play::Released => true,
            Play::Stalled { rank: z, round } if z == rank => {
                *seat = Some(round);
                false
            }
            Play::Stalled { .. } | Play::Done => false,
        }
    }
}

impl sealed::Sealed for Bracket {}

impl Climb for Bracket {
    const RESUMES: bool = true;

    /// The round of its own track whose flag the waiter still waits
    /// for; `None` once its part of the episode is played.
    type Seat = Option<u32>;

    /// A re-admitted waiter replays its own track from round 0.
    fn seat(&self, _tid: u32) -> Option<u32> {
        Some(0)
    }

    fn climb(&self, tid: u32, seat: &mut Option<u32>, episode: u32, roster: &Roster) -> bool {
        self.play_own(roster, tid, 0, seat, episode)
    }

    fn resume(&self, tid: u32, seat: &mut Option<u32>, episode: u32, roster: &Roster) -> bool {
        match *seat {
            Some(round) => self.play_own(roster, tid, round, seat, episode),
            None => false,
        }
    }

    fn proxy_climb(&self, tid: u32, episode: u32, roster: &Roster) -> bool {
        trace::emit(episode, tid, trace::Kind::ProxyArrival(0));
        let rank = self.rank_of[tid as usize].load(Ordering::Acquire);
        matches!(self.play(roster, rank, 0, tid, episode), Play::Released)
    }

    fn reshape(&self, live: &[bool]) {
        let mut n = 0u32;
        for (t, &l) in live.iter().enumerate() {
            if l {
                self.rank_of[t].store(n, Ordering::Relaxed);
                self.tid_of[n as usize].store(t as u32, Ordering::Relaxed);
                n += 1;
            } else {
                self.rank_of[t].store(INVALID, Ordering::Relaxed);
            }
        }
        for k in &self.tid_of[n as usize..] {
            k.store(INVALID, Ordering::Relaxed);
        }
        self.live_n.store(n, Ordering::Relaxed);
        self.rounds_cur.store(rounds_for(n), Ordering::Relaxed);
    }

    fn critical_depth(&self, live: &[bool]) -> u32 {
        rounds_for(live.iter().filter(|&&l| l).count() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BarrierError;
    use crate::heal::RejoinStatus;
    use crate::spin::Deadline;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    // The shared life-cycle checks, less the one whose proxy releases
    // an episode that a tournament winner releases in its depart
    // (`tests/fault_injection.rs` checks the same last-active rule on
    // every evicting kind).
    crate::counter::lifecycle_tests!(TournamentBarrier::new;);

    const SHORT: Duration = Duration::from_millis(5);
    const LONG: Duration = Duration::from_secs(10);

    /// One episode on one thread: the waiters arrive in the order given,
    /// playing every match they can, then each departs.
    fn cross(ws: &mut [&mut TournamentWaiter<'_>]) {
        for w in ws.iter_mut() {
            w.try_arrive().unwrap();
        }
        for w in ws.iter_mut() {
            w.wait_timeout(LONG).unwrap();
        }
    }

    /// The conformance lockstep and arrival/release-ordering contracts
    /// at the odd counts, where the bracket has byes.
    #[test]
    fn lockstep_odd_counts_use_byes() {
        use crate::conformance::{check_arrival_release_ordering, check_lockstep, BarrierKind};
        for p in [3, 5, 7] {
            check_lockstep(BarrierKind::Tournament, p, 120);
            check_arrival_release_ordering(BarrierKind::Tournament, p);
        }
    }

    #[test]
    fn two_threads_round_count() {
        assert_eq!(TournamentBarrier::new(2).rounds(), 1);
        assert_eq!(TournamentBarrier::new(3).rounds(), 2);
        assert_eq!(TournamentBarrier::new(8).rounds(), 3);
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
    #[should_panic(expected = "thread id out of range")]
    fn waiter_bounds_checked() {
        let b = TournamentBarrier::new(2);
        let _ = b.waiter(5);
    }

    #[test]
    fn evicted_straggler_is_adopted_and_rejoins_fast() {
        // p=2: thread 1 never shows up; its proxy stores its flag on
        // eviction, and thread 0 releases alone.
        let b = TournamentBarrier::new(2);
        let mut w0 = b.waiter(0);
        assert_eq!(w0.wait_timeout(SHORT), Err(BarrierError::Timeout));
        assert_eq!(b.stragglers(), vec![1]);
        assert!(b.evict(1));
        w0.wait_timeout(LONG).unwrap();
        // Further episodes release without thread 1 (bracket unchanged,
        // each release's proxy sweep stores the dead seat's flag).
        w0.wait_timeout(LONG).unwrap();
        // Fast rejoin: the slot is tagged for the in-flight episode and
        // the rejoiner replays its track in its depart.
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
        // The champion is declared dead before anyone plays; its proxy
        // stops at its first match. Its round-0 loser adopts its track
        // and stops at round 1; the round-1 loser adopts it again and
        // releases.
        assert!(b.evict(0));
        cross(&mut [&mut w1, &mut w3, &mut w2]);
        assert!(!b.is_poisoned());
        // Fast rejoin; the rejoiner replays its track in its depart.
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
        // Losers first, then the champion.
        cross(&mut [&mut w1, &mut w2, &mut w0]);
        // The boundary applied the detach: three seats, still 2 rounds.
        assert!(!b.is_live(3));
        assert_eq!(b.live_count(), 3);
        assert_eq!(b.shape_epoch(), 1);
        assert_eq!(b.rounds(), 2);
        b.validate_shape().unwrap();
        // An episode under the shrunken bracket (rank 2 takes a bye).
        cross(&mut [&mut w1, &mut w2, &mut w0]);
        // Rejoin goes through the boundary grant.
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Pending);
        cross(&mut [&mut w1, &mut w2, &mut w0]);
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        w3.wait_timeout(LONG).unwrap();
        assert_eq!(b.live_count(), 4);
        assert_eq!(b.shape_epoch(), 2);
        assert_eq!(b.rounds(), 2);
        b.validate_shape().unwrap();
        // Full-strength episode: 3 loses to 2, 1 to 0, 2 to 0.
        cross(&mut [&mut w1, &mut w3, &mut w2, &mut w0]);
        assert!(!b.is_poisoned());
    }

    #[test]
    fn detach_shrinks_round_count() {
        // 5 seats need 3 rounds; detaching down to 4 needs only 2.
        let b = TournamentBarrier::new(5);
        assert_eq!(b.rounds(), 3);
        let [mut w0, mut w1, mut w2, mut w3] = [0, 1, 2, 3].map(|t| b.waiter(t));
        assert!(b.detach(4));
        // Losers of the 4-live episode first (old bracket still: 1→0,
        // 3→2, 2→0; rank 4's proxy stored its flag on the detach).
        cross(&mut [&mut w1, &mut w3, &mut w2, &mut w0]);
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
    fn threaded_detach_then_rejoin_restores_lockstep() {
        let b = TournamentBarrier::new(4);
        let silent_flag = AtomicU32::new(0);
        // Phase A (threaded): thread 3 crosses 20 episodes then goes
        // silent; a detacher thread declares it dead; survivors keep
        // crossing through the reconfiguration on its proxies.
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
                // Dies silently; the waiter drop is clean (not pending).
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
        let [mut w0, mut w1, mut w2, mut w3] = [0, 1, 2, 3].map(|t| b.waiter(t));
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Pending);
        cross(&mut [&mut w1, &mut w2, &mut w0]);
        assert_eq!(w3.try_rejoin().unwrap(), RejoinStatus::Rejoined);
        w3.wait_timeout(LONG).unwrap();
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
