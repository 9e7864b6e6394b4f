//! One shard of the epoch server as a pure protocol core.
//!
//! [`ShardCore`] owns everything a shard knows — its session table, slot
//! allocator and tombstones, the frame it counts arrivals for, each
//! session's memory of loss and the session-lease supervisor — and
//! [`ShardCore::step`] is the only way to change it: one [`Input`] at a
//! caller-supplied `now` in, one [`Effects`] value out, holding every
//! consequence outside the core. The core spawns nothing, locks nothing,
//! reads no clock and sends nothing; the driver in [`crate::server`]
//! does all of that, one step at a time. So the protocol can be stepped
//! in virtual time — by a test, a simulator or a model checker — and its
//! effects compared byte for byte.
//!
//! Two facts live in state shared by every shard, and the driver passes
//! them in with the input: whether a session is awaiting `Resume` (the
//! recovery's outstanding set), and whether recovery is still open.
//!
//! The root's half of the combining tree is [`crate::root`]'s core, which
//! takes every step's effects.
//!
//! **Loss repair.** A session that lost its `Release`, or whose next
//! `Arrive` was lost, would wait out its client's request timeout, and
//! the whole episode with it. So on the lease pass's tick the shard
//! re-sends the last release as a marked `Overdue` frame to a session
//! that has shown loss and has not arrived since, 1, 2, 4 and 8 ticks
//! after it, and counts each re-send as loss, as the client counts its
//! own. A client that lost the release takes it as the release; one
//! whose arrival was lost answers each round once with a re-arrival.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use combar_rt::Supervisor;
use combar_trace::Kind;

use crate::proto::{Redundancy, Request, Response, SessionId};
use crate::server::ServerConfig;

/// A connection, as the driver numbers them.
pub(crate) type ConnId = u64;

/// One input to [`ShardCore::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Input {
    /// A decoded request on a connection, and whether the recovery still
    /// awaits that session's `Resume`.
    Request(ConnId, Request, bool),
    /// The root released this episode: fan it out and open the next
    /// frame.
    Release(u64),
    /// Housekeeping — the session-lease pass, the re-send of overdue
    /// releases and the recovery grace — with whether any recovered
    /// session is still outstanding.
    Tick(bool),
}

/// How a session's membership changed. A step that moves the frame (a
/// release) changes no membership, so every change dates from the frame
/// the shard is at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delta {
    /// Admitted by `Hello`; `true` if this shard had evicted it before.
    Hello(bool),
    /// Re-admitted by `Resume` at its journaled coordinate, un-arrived:
    /// it retracts the shard's report for the frame.
    Resume,
    /// Left in order.
    Leave,
    /// Declared dead by its lease.
    Evict,
}

/// Everything one step changes outside the core.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Effects {
    /// Membership changes, in the order they happened.
    pub(crate) roster: Vec<(SessionId, Delta)>,
    /// Sessions the released episode credits one completion each: those
    /// that arrived for it explicitly.
    pub(crate) credits: Vec<SessionId>,
    /// The released episode, whose one `Release` frame goes to every
    /// `(connection, copies)` of `fanout`.
    pub(crate) release: Option<u64>,
    pub(crate) fanout: Vec<(ConnId, u32)>,
    /// Responses, each for one connection, in the order they were made:
    /// acks, re-acks, challenges and `Overdue` rounds.
    pub(crate) frames: Vec<(ConnId, Response)>,
    /// The frame this shard reported complete: once per frame, or again
    /// after a `Resume` retracted the report.
    pub(crate) report: Option<u64>,
    /// Sessions whose explicit arrival the journal's next episode record
    /// credits: the report's, or one that upgraded a proxy after it.
    pub(crate) completers: Vec<SessionId>,
    /// Sessions this full shard could not seat. Routes are sticky, so
    /// theirs must be dropped for a retry to probe a shard with headroom.
    pub(crate) unroute: Vec<SessionId>,
    /// The recovery grace lapsed: every session still outstanding is
    /// purged as evicted.
    pub(crate) purge: bool,
}

impl Effects {
    /// Whether the root has anything to take from the step: a membership
    /// change, a credit, a completer, a report or the recovery purge.
    pub(crate) fn for_root(&self) -> bool {
        !(self.roster.is_empty() && self.credits.is_empty() && self.completers.is_empty())
            || self.report.is_some()
            || self.purge
    }
}

pub(crate) struct Sess {
    conn: ConnId,
    slot: u32,
    /// Counted in the shard's live membership. A tombstone
    /// (`live == false`) answers late requests with `Evicted`.
    live: bool,
    /// The last frame this session arrived for (possibly by proxy).
    arrived_for: Option<u64>,
    /// Whether `arrived_for` was a real `Arrive` (true) or a join-side
    /// proxy (false). Only explicit arrivals are credited, so the ledger
    /// is an exactly-once oracle for retried arrivals.
    explicit: bool,
    /// The highest `seq` seen on the arrival `explicit` counts. Its
    /// copies share it; only a re-send carries a higher one.
    seq: u64,
    /// How many copies of each release to send, raised by each sign that
    /// a `Release` went missing: a client's re-sent arrival for an
    /// episode that has released, and each of the shard's own re-sends.
    redundancy: Redundancy,
    /// How many `Overdue` rounds of the release in hand the shard sent;
    /// `RESENDS` once the client's own re-send has taken over.
    resends: u32,
}

/// The most times the shard re-sends one release, at 1, 2, 4 and 8
/// ticks past it; after that, the client's own re-send takes over.
pub(crate) const RESENDS: u32 = 4;

/// The protocol state of one shard. See the module docs. The crate
/// reads `sessions`, `frame`, `live` and `arrived`; only a step writes
/// them.
pub(crate) struct ShardCore {
    idx: usize,
    /// This server's incarnation, stamped on every response.
    inc: u64,
    tick: Duration,
    capacity: u32,
    /// When outstanding recovered sessions are purged, if this server
    /// was recovered with any.
    recovery_deadline: Option<Instant>,
    /// Whether any recovered session was outstanding at the last tick.
    recovery_open: bool,
    pub(crate) sessions: BTreeMap<SessionId, Sess>,
    /// Slot → the live session holding it. Grows up to `capacity`, and
    /// `sup` with it: a shard holds a lease slot per seat it ever filled,
    /// not per seat it may fill.
    owners: Vec<Option<SessionId>>,
    free_slots: Vec<u32>,
    /// The episode this shard's bookkeeping is for. Trails the global
    /// episode until the release notice is stepped, so all local
    /// accounting stays frame-consistent.
    pub(crate) frame: u64,
    pub(crate) live: u64,
    pub(crate) arrived: u64,
    reported: bool,
    /// When `frame - 1` was released here; `None` before this shard's
    /// first release. A resumed server's sessions resume un-arrived, so
    /// none is re-sent a pre-crash release.
    released_at: Option<Instant>,
    sup: Supervisor,
    last_lease_poll: Instant,
    /// The time of the step in hand.
    now: Instant,
    /// The step in hand's effects.
    out: Effects,
}

impl ShardCore {
    /// Shard `idx` of a server of incarnation `inc`, opening at `frame`
    /// (a resumed server starts past epoch 0, and every shard must open
    /// at the recovered episode, or resuming clients would look "ahead"
    /// and be told `Diverged`).
    pub(crate) fn new(
        idx: usize,
        cfg: &ServerConfig,
        inc: u64,
        frame: u64,
        recovery_deadline: Option<Instant>,
        now: Instant,
    ) -> Self {
        Self {
            idx,
            inc,
            tick: cfg.tick,
            capacity: cfg.session_capacity,
            recovery_deadline,
            recovery_open: recovery_deadline.is_some(),
            sessions: BTreeMap::new(),
            owners: Vec::new(),
            free_slots: Vec::new(),
            frame,
            live: 0,
            arrived: 0,
            reported: false,
            released_at: None,
            sup: Supervisor::starting_at(0, cfg.lease, now),
            last_lease_poll: now,
            now,
            out: Effects::default(),
        }
    }

    /// Handles one input at `now`, then reports the frame complete if it
    /// now is, and returns what the step changed outside the core.
    pub(crate) fn step(&mut self, now: Instant, input: Input) -> Effects {
        self.now = now;
        match input {
            Input::Request(conn, req, awaiting) => match req {
                Request::Hello { session, .. } => self.on_hello(session, conn),
                Request::Arrive {
                    session,
                    episode,
                    seq,
                } => self.on_arrive(session, conn, episode, seq, awaiting),
                Request::Heartbeat { session, .. } => match self.sessions.get_mut(&session) {
                    Some(s) if s.live => {
                        s.conn = conn;
                        self.sup.beat_at(s.slot, now);
                    }
                    _ => self.challenge(session, conn, awaiting),
                },
                Request::Leave { session, .. } => self.on_leave(session),
                Request::Resume {
                    session,
                    next_episode,
                    ..
                } => self.on_resume(session, conn, next_episode, awaiting),
            },
            Input::Release(ep) => self.on_release(ep),
            Input::Tick(recovery_open) => {
                self.recovery_open = recovery_open;
                if recovery_open && self.recovery_deadline.is_some_and(|d| now >= d) {
                    self.out.purge = true;
                    self.recovery_open = false;
                }
                self.poll_leases();
            }
        }
        self.check_complete();
        std::mem::take(&mut self.out)
    }

    /// Answers a session this shard does not serve (unknown here, or a
    /// tombstone): one the recovery replay vouches for must prove its
    /// coordinate with `Resume` before anything else is honoured;
    /// everyone else gets the usual `Evicted` (rejoin via `Hello`).
    fn challenge(&mut self, session: SessionId, conn: ConnId, awaiting: bool) {
        let resp = if awaiting {
            Response::ResumeRequired {
                session,
                episode: self.frame,
                inc: self.inc,
            }
        } else {
            Response::Evicted {
                session,
                episode: self.frame,
                inc: self.inc,
            }
        };
        self.out.frames.push((conn, resp));
    }

    /// Seats `session` in a free slot — arrived by proxy for the
    /// in-flight frame if `proxy` — or, with none free, drops its route
    /// so the retry probes another shard, and returns `false`.
    fn admit(&mut self, session: SessionId, conn: ConnId, proxy: bool) -> bool {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None if self.owners.len() < self.capacity as usize => {
                self.owners.push(None);
                // The lease slot grows with the seat; it is beaten below.
                self.sup.grow(self.owners.len() as u32);
                self.owners.len() as u32 - 1
            }
            None => {
                self.out.unroute.push(session);
                return false;
            }
        };
        let sess = Sess {
            conn,
            slot,
            live: true,
            arrived_for: proxy.then_some(self.frame),
            explicit: false,
            seq: 0,
            redundancy: Redundancy::default(),
            resends: 0,
        };
        self.sessions.insert(session, sess);
        self.owners[slot as usize] = Some(session);
        self.sup.beat_at(slot, self.now);
        self.live += 1;
        self.arrived += u64::from(proxy);
        true
    }

    /// Folds a live session out of the membership, freeing its slot.
    fn fold_out(&mut self, arrived_for: Option<u64>, slot: u32) {
        self.live -= 1;
        if arrived_for == Some(self.frame) {
            self.arrived -= 1;
        }
        self.owners[slot as usize] = None;
        self.free_slots.push(slot);
    }

    /// Admission, re-admission after eviction, and `Hello`-retry re-ack
    /// all land here. A *new* session joins *arrived* for the in-flight
    /// frame (the join-side proxy arrival), so admission can never wedge
    /// the episode it lands in; its first real `Arrive` for this frame
    /// deduplicates. A `Hello` for an already-live session (a retry
    /// whose first copy landed, or a wire duplicate delivered frames
    /// later) only re-routes and re-acks: registering a proxy arrival
    /// here would let a stray duplicate complete an episode on the
    /// session's behalf and silently skip its credit.
    fn on_hello(&mut self, session: SessionId, conn: ConnId) {
        match self.sessions.get_mut(&session) {
            Some(s) if s.live => {
                s.conn = conn;
                self.sup.beat_at(s.slot, self.now);
            }
            tombstone => {
                let rejoining = tombstone.is_some();
                if !self.admit(session, conn, true) {
                    return;
                }
                self.out.roster.push((session, Delta::Hello(rejoining)));
            }
        }
        let welcome = Response::Welcome {
            session,
            episode: self.frame,
            inc: self.inc,
        };
        self.out.frames.push((conn, welcome));
    }

    fn on_arrive(
        &mut self,
        session: SessionId,
        conn: ConnId,
        episode: u64,
        seq: u64,
        awaiting: bool,
    ) {
        let (frame, inc) = (self.frame, self.inc);
        let Some(s) = self.sessions.get_mut(&session).filter(|s| s.live) else {
            return self.challenge(session, conn, awaiting);
        };
        s.conn = conn;
        self.sup.beat_at(s.slot, self.now);
        if episode < frame {
            // The episode already released; the first ack was lost.
            // Re-acking is the idempotent half of retry safety. An
            // arrival this session already made for that episode, sent
            // again, is the server's one sign that a `Release` went
            // missing: one more copy of the session's releases. Sent
            // again means a higher `seq`: a copy of the counted arrival,
            // stepped after the release it completed, is no such sign and
            // draws no frame, as that release has just gone out at the
            // session's copies. The catch-up arrival for a join epoch
            // released by proxy is re-acked, but is no sign either.
            let counted = s.arrived_for == Some(episode) && s.explicit;
            if counted && seq <= s.seq {
                return;
            }
            if counted {
                s.seq = seq;
                s.redundancy.raise();
                if episode + 1 == frame {
                    s.resends = RESENDS;
                }
            }
            self.out
                .frames
                .push((conn, Response::Release { episode, inc }));
        } else if episode > frame {
            // Cannot happen with honest clients; dropped defensively.
        } else if s.arrived_for != Some(frame) {
            s.arrived_for = Some(frame);
            s.explicit = true;
            s.seq = seq;
            self.arrived += 1;
            combar_trace::emit(frame as u32, session as u32, Kind::Arrive);
        } else if !s.explicit {
            // The real arrival caught up with its join-side proxy:
            // upgrade so this episode counts.
            s.explicit = true;
            s.seq = seq;
            combar_trace::emit(frame as u32, session as u32, Kind::Arrive);
            if self.reported {
                // The report already named its completers; name this
                // one too, so the journal's episode record credits it
                // (or the next one does — the counters are cumulative,
                // which makes that merge safe).
                self.out.completers.push(session);
            }
        } else {
            // A duplicate or re-sent arrival, counted exactly once. Its
            // `seq` is no loss once the episode releases.
            s.seq = s.seq.max(seq);
        }
    }

    /// Orderly departure folds immediately: a step *is* the quiescent
    /// window (no arrival can interleave), so removing the session now
    /// is indistinguishable from a boundary fold.
    fn on_leave(&mut self, session: SessionId) {
        if let Some(s) = self.sessions.remove(&session).filter(|s| s.live) {
            self.fold_out(s.arrived_for, s.slot);
            self.out.roster.push((session, Delta::Leave));
        }
    }

    /// The recovery handshake. A session the journal replay vouches for
    /// proves its next-expected episode:
    ///
    /// * `next == frame` — exact match: re-admit at the in-flight
    ///   frame, un-arrived (its real `Arrive` follows; no proxy credit),
    ///   and ack `Resumed`. No rejoin is counted — the session never
    ///   failed, the server did.
    /// * `next < frame` — the client missed releases (e.g. an epoch
    ///   journaled but never broadcast): re-ack `Release{next}` so it
    ///   catches up, and keep the challenge open for its next request.
    /// * `next > frame` — the client has observed epochs the journal
    ///   does not record: a journal suffix was lost. Explicit
    ///   `Diverged`, never silent epoch skew.
    fn on_resume(&mut self, session: SessionId, conn: ConnId, next: u64, awaiting: bool) {
        let (frame, inc) = (self.frame, self.inc);
        let resumed = Response::Resumed {
            session,
            episode: frame,
            inc,
        };
        let resp = match self.sessions.get_mut(&session) {
            // Duplicate Resume (the first ack was lost): re-ack.
            Some(s) if s.live => {
                s.conn = conn;
                self.sup.beat_at(s.slot, self.now);
                if next < frame {
                    Response::Release { episode: next, inc }
                } else {
                    resumed
                }
            }
            // Nothing vouches for this session here; the rejoin path
            // (fresh `Hello`) is the only way in.
            _ if !awaiting => return self.challenge(session, conn, false),
            _ if next > frame => Response::Diverged {
                session,
                expected: frame,
                inc,
            },
            _ if next < frame => Response::Release { episode: next, inc },
            _ => {
                if !self.admit(session, conn, false) {
                    return;
                }
                // It joins the frame un-arrived, so a report this shard
                // filed for the frame no longer holds: the root retracts
                // it with the delta, and the shard reports again once
                // the session arrives.
                self.reported = false;
                self.out.roster.push((session, Delta::Resume));
                resumed
            }
        };
        self.out.frames.push((conn, resp));
    }

    /// Declares a session dead: proxy its in-flight arrival (so the
    /// frame completes), fold it out of the live membership, and tell
    /// the client. PR 4's evict-then-detach, collapsed into one step
    /// because a step serializes both halves.
    fn evict(&mut self, session: SessionId) {
        let frame = self.frame;
        let Some(s) = self.sessions.get_mut(&session).filter(|s| s.live) else {
            return;
        };
        if s.arrived_for != Some(frame) {
            let proxy = Kind::ProxyArrival(self.idx as u32);
            combar_trace::emit(frame as u32, session as u32, proxy);
        }
        s.live = false;
        let (arrived_for, slot, conn) = (s.arrived_for.take(), s.slot, s.conn);
        self.fold_out(arrived_for, slot);
        combar_trace::emit(frame as u32, session as u32, Kind::Evict(session as u32));
        self.out.roster.push((session, Delta::Evict));
        self.challenge(session, conn, false);
    }

    /// Fans a completed episode out to this shard's arrived sessions —
    /// crediting the explicit ones, as many copies as each session's
    /// loss memory asks — and opens the next frame.
    fn on_release(&mut self, ep: u64) {
        self.out.release = Some(ep);
        for (&session, s) in &mut self.sessions {
            if s.live && s.arrived_for == Some(ep) {
                if s.explicit {
                    self.out.credits.push(session);
                }
                self.out.fanout.push((s.conn, s.redundancy.fresh()));
                s.resends = 0;
                // It owed nothing while it waited: its lease runs from here.
                self.sup.rearm_at(s.slot, self.now);
                combar_trace::emit(ep as u32, session as u32, Kind::Release);
            }
        }
        self.released_at = Some(self.now);
        self.frame = ep + 1;
        self.reported = false;
        // Admissions stepped after the global bump but before this
        // notice may already sit in the new frame; recount rather than
        // zero.
        self.arrived = self
            .sessions
            .values()
            .filter(|s| s.live && s.arrived_for == Some(self.frame))
            .count() as u64;
    }

    /// The upward half of the aggregation tree: report this shard
    /// complete, at most once per frame, naming the sessions that
    /// explicitly arrived (the journal credits them in the episode
    /// record).
    fn check_complete(&mut self) {
        // An empty shard reports immediately so it never blocks a
        // release — EXCEPT while recovered sessions are still resuming:
        // any of them may resume *into this shard*, and an early
        // `live == 0` report would stand after they do, releasing the
        // post-recovery epoch before they ever arrive.
        let empty_ok = self.live == 0 && !self.recovery_open;
        if self.reported || !(empty_ok || (self.live > 0 && self.arrived >= self.live)) {
            return;
        }
        self.reported = true;
        let frame = self.frame;
        self.out.report = Some(frame);
        self.out.completers.extend(
            self.sessions
                .iter()
                .filter(|(_, s)| s.live && s.arrived_for == Some(frame) && s.explicit)
                .map(|(&sid, _)| sid),
        );
    }

    /// Session-lease pass, at most once per tick: a live session that
    /// still owes the frame and outlived its (widened) lease is evicted,
    /// and then overdue releases are re-sent.
    fn poll_leases(&mut self) {
        if self.now.saturating_duration_since(self.last_lease_poll) < self.tick {
            return;
        }
        self.last_lease_poll = self.now;
        let frame = self.frame;
        let stragglers = self.sessions.values();
        let stragglers = stragglers.filter(|s| s.live && s.arrived_for != Some(frame));
        for slot in self.sup.lease_pass(self.now, stragglers.map(|s| s.slot)) {
            if let Some(session) = self.owners[slot as usize] {
                self.evict(session);
            }
        }
        self.resend_overdue();
    }

    /// A session the last release went to that has not arrived since
    /// (an eviction clears `arrived_for`, so it is live) gets that
    /// release again as `Overdue` rounds 1 to 4, 1, 2, 4 and 8 ticks after
    /// it, if its loss memory holds more than one copy. Its client either
    /// lost the release and takes the round as one, or lost its next
    /// arrival and answers the round with a re-arrival. To the shard a
    /// stalled or computing client looks the same, and on a clean wire a
    /// stall would otherwise raise the copies of every session it held
    /// up; one that has shown no loss is left to its client's re-send,
    /// which is evidence too. Each re-send is evidence of loss, so it raises the
    /// session's copies first and goes out at the raised count.
    fn resend_overdue(&mut self) {
        let Some(released) = self.released_at else {
            return;
        };
        let since = self.now.saturating_duration_since(released);
        let (episode, inc) = (self.frame - 1, self.inc);
        for s in self.sessions.values_mut() {
            let due = s.resends < RESENDS && since >= self.tick * (1 << s.resends);
            if due && s.arrived_for == Some(episode) && s.redundancy.copies() > 1 {
                s.resends += 1;
                s.redundancy.raise();
                let round = u64::from(s.resends);
                let overdue = Response::Overdue {
                    episode,
                    round,
                    inc,
                };
                let copies = s.redundancy.copies() as usize;
                self.out
                    .frames
                    .extend(std::iter::repeat_n((s.conn, overdue), copies));
            }
        }
    }
}

#[cfg(test)]
impl Delta {
    /// Whether the session joined.
    pub(crate) fn admits(self) -> bool {
        matches!(self, Delta::Hello(_) | Delta::Resume)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use combar_rt::SupervisorConfig;
    use std::fmt::Write;

    const TICK: Duration = Duration::from_micros(200);

    fn config(max_misses: u32) -> ServerConfig {
        ServerConfig {
            shards: 1,
            tick: TICK,
            session_capacity: 8,
            lease: SupervisorConfig {
                min_grace: Duration::from_millis(2),
                sigma_mult: 4.0,
                max_misses,
            },
            ..ServerConfig::default()
        }
    }

    /// A request from `session` on connection `session`.
    fn req(req: Request) -> Input {
        Input::Request(req.session(), req, false)
    }

    fn hello(session: SessionId) -> Input {
        req(Request::Hello { session, seq: 0 })
    }

    fn beat(session: SessionId) -> Input {
        req(Request::Heartbeat { session, seq: 0 })
    }

    fn arrive(session: SessionId, episode: u64, seq: u64) -> Input {
        req(Request::Arrive {
            session,
            episode,
            seq,
        })
    }

    /// Sessions 1 and 2 join at `t0` and their join epoch releases;
    /// then session 2 heartbeats every tick while session 1 stays
    /// silent. Returns every eviction as `(tick, session)`.
    fn lease_scenario(max_misses: u32, ticks: u32) -> Vec<(u32, SessionId)> {
        let t0 = Instant::now();
        let mut core = ShardCore::new(0, &config(max_misses), 0, 0, None, t0);
        core.step(t0, hello(1));
        core.step(t0, hello(2));
        let fanout = core.step(t0, Input::Release(0)).fanout;
        assert_eq!(fanout, [(1, 1), (2, 1)]);
        let mut evictions = Vec::new();
        for k in 1..=ticks {
            let now = t0 + TICK * k;
            core.step(now, beat(2));
            for (session, delta) in core.step(now, Input::Tick(false)).roster {
                assert_eq!(delta, Delta::Evict);
                evictions.push((k, session));
            }
        }
        evictions
    }

    #[test]
    fn a_silent_session_is_evicted_on_the_tick_its_lease_predicts() {
        for max_misses in [1, 2, 3] {
            // The survivor's beats are a tick apart, under `min_grace`,
            // so the grace is `min_grace`; each miss doubles it, and the
            // pass after `max_misses` of them declares.
            let cfg = config(max_misses);
            let due = cfg.lease.min_grace * (1 << max_misses);
            let due_tick = (due.as_nanos() / TICK.as_nanos()) as u32;
            let evictions = lease_scenario(max_misses, due_tick + 50);
            assert_eq!(evictions, [(due_tick, 1)], "max_misses {max_misses}");
        }
    }

    #[test]
    fn a_session_that_beats_every_tick_is_never_evicted() {
        let evictions = lease_scenario(2, 10_000);
        assert!(evictions.iter().all(|&(_, session)| session != 2));
    }

    /// The lease supervisor is sized by the seats a shard filled, not
    /// by its admission bound: a 4 096-seat shard holding 16 sessions
    /// keeps 16 lease slots.
    #[test]
    fn the_session_supervisor_grows_with_occupancy() {
        let t0 = Instant::now();
        let cfg = ServerConfig {
            session_capacity: 4_096,
            ..config(3)
        };
        let mut core = ShardCore::new(0, &cfg, 0, 0, None, t0);
        assert_eq!(core.sup.participants(), 0);
        for session in 0..16 {
            core.step(t0, hello(session));
        }
        assert_eq!((core.live, core.owners.len()), (16, 16));
        assert_eq!(core.sup.participants(), 16);
    }

    #[test]
    fn a_tombstoned_sessions_hello_is_one_rejoin() {
        let t0 = Instant::now();
        let mut core = ShardCore::new(0, &config(1), 0, 0, None, t0);
        core.step(t0, hello(1));
        core.step(t0, hello(2));
        core.step(t0, Input::Release(0));
        let mut now = t0;
        while core.live == 2 {
            now += TICK;
            core.step(now, beat(2));
            core.step(now, Input::Tick(false));
        }
        // The tombstone answers for the evicted session until it rejoins.
        let late = core.step(now, beat(1));
        assert!(matches!(late.frames[..], [(1, Response::Evicted { .. })]));
        let rejoin = core.step(now, hello(1));
        assert_eq!(rejoin.roster, [(1, Delta::Hello(true))]);
        // A duplicate `Hello` re-acks and admits nobody a second time.
        let duplicate = core.step(now, hello(1));
        assert!(duplicate.roster.is_empty());
        assert!(matches!(
            duplicate.frames[..],
            [(1, Response::Welcome { .. })]
        ));
        assert_eq!(core.live, 2);
    }

    /// Evidence of a lost `Release` is a re-send, never a copy: copies
    /// of the arrival that completed a frame — the redundant ones a
    /// client sends, a wire duplicate, the copies of an in-flight
    /// re-send — stepped after its release draw no frame and leave the
    /// session at one copy; a re-send with a higher `seq` is re-acked
    /// and raises it to two, for that session alone.
    #[test]
    fn a_copy_of_the_counted_arrival_is_no_evidence_and_a_resend_is() {
        let t0 = Instant::now();
        let mut core = ShardCore::new(0, &config(3), 0, 0, None, t0);
        core.step(t0, hello(1));
        core.step(t0, hello(2));
        core.step(t0, Input::Release(0));
        // Each session arrives for `episode` at `seq`; `1` again at
        // `seq + 1` while the frame is in flight. Returns the fan-out.
        let cross = |core: &mut ShardCore, episode, seq| {
            core.step(t0, arrive(1, episode, seq));
            core.step(t0, arrive(1, episode, seq + 1));
            core.step(t0, arrive(2, episode, seq));
            core.step(t0, Input::Release(episode)).fanout
        };
        assert_eq!(cross(&mut core, 1, 10), [(1, 1), (2, 1)]);
        for (session, seq) in [(1, 10), (1, 11), (1, 11), (2, 10)] {
            let fx = core.step(t0, arrive(session, 1, seq));
            assert_eq!(fx.frames, [], "a copy draws no frame");
        }
        assert_eq!(cross(&mut core, 2, 20), [(1, 1), (2, 1)], "copies");
        let fx = core.step(t0, arrive(2, 2, 21));
        assert_eq!(fx.frames, [(2, Response::Release { episode: 2, inc: 0 })]);
        assert_eq!(cross(&mut core, 3, 30), [(1, 1), (2, 2)], "a re-send");
    }

    /// A lease no test below outlives, unless it means to.
    fn patient() -> ServerConfig {
        let mut cfg = config(3);
        cfg.lease.min_grace = Duration::from_secs(3_600);
        cfg
    }

    /// `Overdue` rounds sent, as `(ticks after the release, connection,
    /// copies)`.
    type Resent = Vec<(u32, ConnId, usize)>;

    /// One episode on a clean wire, a tick at a time: the root releases
    /// the shard's frame at `now`; then each tick the shard ticks and
    /// session `i + 1` arrives `lags[i]` ticks after the release (`None`:
    /// it stays silent), for `ticks` ticks or until all have arrived.
    /// Returns the re-sent releases and the release's fan-out.
    fn episode(
        core: &mut ShardCore,
        now: &mut Instant,
        lags: &[Option<u32>],
        ticks: u32,
    ) -> (Resent, Vec<(ConnId, u32)>) {
        let ep = core.frame;
        let fanout = core.step(*now, Input::Release(ep)).fanout;
        let arrivals = |core: &mut ShardCore, now, k| {
            for (sid, _) in (1..).zip(lags).filter(|(_, &lag)| lag == Some(k)) {
                core.step(now, arrive(sid, ep + 1, ep + 1));
            }
        };
        arrivals(core, *now, 0);
        let (mut resent, inc) = (Resent::new(), core.inc);
        for k in 1..=ticks {
            *now += TICK;
            for (conn, resp) in core.step(*now, Input::Tick(false)).frames {
                let Response::Overdue {
                    episode,
                    round,
                    inc: at,
                } = resp
                else {
                    panic!("tick {k} sent {resp:?}");
                };
                assert_eq!((episode, at), (ep, inc));
                match resent.last_mut() {
                    Some(last) if (last.0, last.1) == (k, conn) => last.2 += 1,
                    _ => resent.push((k, conn, 1)),
                }
                let rounds = resent.iter().filter(|r| r.1 == conn).count() as u64;
                assert_eq!(round, rounds, "tick {k}: round of the re-send to {conn}");
            }
            arrivals(core, *now, k);
            if lags.iter().all(|lag| lag.is_some_and(|lag| lag <= k)) {
                break;
            }
        }
        (resent, fanout)
    }

    /// The root releases the shard's frame at `now`, and sessions
    /// `1..=sessions` re-send their arrival for it, as clients that lost
    /// the release do, before they arrive for the next: loss memory, so
    /// each one's releases now go out as two copies.
    fn lose_once(core: &mut ShardCore, now: Instant, sessions: u64) {
        let ep = core.frame;
        core.step(now, Input::Release(ep));
        for sid in 1..=sessions {
            core.step(now, arrive(sid, ep, ep + 1_000));
            core.step(now, arrive(sid, ep + 1, ep + 1_001));
        }
    }

    /// A session with loss memory that stops arriving gets its release
    /// again 1, 2, 4 and 8 ticks past it, each time raising its copies,
    /// and then no more; so does each release it is late for. One back
    /// before the first tick draws none. A client's own re-send ends the
    /// schedule.
    #[test]
    fn an_overdue_release_is_resent_at_one_two_four_and_eight_ticks() {
        let (t0, prompt, late) = (Instant::now(), [Some(0), Some(0)], [Some(40), Some(0)]);
        let mut now = t0;
        let mut core = ShardCore::new(0, &patient(), 0, 0, None, t0);
        core.step(now, hello(1));
        core.step(now, hello(2));
        episode(&mut core, &mut now, &prompt, 40);
        lose_once(&mut core, now, 1);
        for _ in 0..4 {
            assert_eq!(episode(&mut core, &mut now, &prompt, 40).0, []);
        }
        let schedule = [(1, 1, 3), (2, 1, 3), (4, 1, 3), (8, 1, 3)];
        assert_eq!(episode(&mut core, &mut now, &late, 40).0, schedule);
        let (resent, fanout) = episode(&mut core, &mut now, &late, 40);
        assert_eq!(fanout, [(1, 3), (2, 1)], "the re-sends raised the copies");
        assert_eq!(resent, schedule);

        // Lost again; after two re-sends the client re-sends its arrival.
        episode(&mut core, &mut now, &prompt, 40);
        let (ep, seq) = (core.frame, core.frame + 100);
        let (resent, _) = episode(&mut core, &mut now, &[None, Some(0)], 3);
        assert_eq!(resent, schedule[..2]);
        let reack = core.step(now, arrive(1, ep, seq)).frames;
        let release = Response::Release {
            episode: ep,
            inc: 0,
        };
        assert_eq!(reack, [(1, release)]);
        for _ in 0..40 {
            now += TICK;
            assert_eq!(core.step(now, Input::Tick(false)).frames, []);
        }
    }

    /// The re-send goes only to a live session the last release went to
    /// that has not arrived since: not to one that arrived, nor one that
    /// left, and not to one evicted, before or after its tombstone
    /// answers. Sessions 3 and 4 both miss the release; 4 heartbeats and
    /// gets the whole schedule, while 3 stays silent, and its lease of
    /// five ticks cuts its schedule short.
    #[test]
    fn no_release_is_resent_to_an_arrived_left_or_evicted_session() {
        let t0 = Instant::now();
        let mut now = t0;
        let mut cfg = config(0);
        cfg.lease.min_grace = TICK * 5;
        let mut core = ShardCore::new(0, &cfg, 0, 0, None, t0);
        (1..=4).for_each(|sid| drop(core.step(now, hello(sid))));
        episode(&mut core, &mut now, &[Some(0); 4], 40);
        lose_once(&mut core, now, 4);
        for _ in 0..12 {
            assert_eq!(episode(&mut core, &mut now, &[Some(0); 4], 40).0, []);
        }
        let ep = core.frame;
        core.step(now, Input::Release(ep));
        core.step(now, arrive(1, ep + 1, ep + 1));
        core.step(now, req(Request::Leave { session: 2, seq: 0 }));
        let (mut resent, mut evicted) = (vec![Vec::new(); 5], [None; 5]);
        for k in 1..=60 {
            now += TICK;
            core.step(now, beat(4));
            let fx = core.step(now, Input::Tick(false));
            for (sid, _) in fx.roster {
                evicted[sid as usize] = Some(k);
            }
            for (conn, resp) in fx.frames {
                let ticks = &mut resent[conn as usize];
                if matches!(resp, Response::Overdue { .. }) && ticks.last() != Some(&k) {
                    ticks.push(k);
                }
            }
            if k == 30 {
                let late = core.step(now, arrive(3, ep + 1, ep + 1)).frames;
                assert!(matches!(late[..], [(3, Response::Evicted { .. })]));
            }
        }
        assert_eq!(resent[1..3], [[], []], "arrived and left");
        assert_eq!(resent[4], [1, 2, 4, 8]);
        let cut = evicted[3].unwrap();
        assert!(cut <= 8, "evicted at tick {cut}, after the schedule");
        let before: Vec<u32> = [1, 2, 4, 8].into_iter().filter(|&k| k < cut).collect();
        assert_eq!(resent[3], before, "evicted at tick {cut}");
        assert_eq!(evicted[4], None);
    }

    /// A resumed server re-sends nothing it did not release itself: its
    /// sessions resume un-arrived, a session behind it is re-acked by
    /// `Resume` alone, and ticks send nothing until its own releases,
    /// whose re-sends then work as on a fresh server.
    #[test]
    fn a_resumed_server_resends_no_pre_crash_release() {
        let t0 = Instant::now();
        let mut now = t0 + TICK * 200;
        let mut core = ShardCore::new(0, &patient(), 1, 9, Some(t0 + TICK * 1_000), t0);
        let resume = |session, next_episode| {
            let resume = Request::Resume {
                session,
                next_episode,
                seq: 0,
            };
            Input::Request(session, resume, true)
        };
        core.step(t0, resume(1, 9));
        core.step(t0, resume(2, 9));
        let behind = core.step(t0, resume(3, 8)).frames;
        assert_eq!(behind, [(3, Response::Release { episode: 8, inc: 1 })]);
        for k in 1..=200 {
            let fx = core.step(t0 + TICK * k, Input::Tick(true));
            assert_eq!(fx.frames, [], "tick {k}");
        }
        core.step(now, arrive(1, 9, 1));
        core.step(now, arrive(2, 9, 1));
        lose_once(&mut core, now, 2);
        episode(&mut core, &mut now, &[Some(0), Some(0)], 40);
        let (resent, _) = episode(&mut core, &mut now, &[Some(40), Some(0)], 40);
        assert_eq!(resent.first(), Some(&(1, 1, 3)), "episode 11, a tick late");
    }

    /// A clean wire draws no re-send and keeps one copy per release,
    /// since its sessions have shown no loss: a lockstep one, every
    /// session back within a tick of each release; a session that
    /// computes for ten ticks; and sessions that all stall for 40 ticks
    /// every 50 episodes. To the shard the last two look like lost
    /// releases.
    #[test]
    fn a_clean_wire_draws_no_resend_from_a_prompt_computing_or_stalled_session() {
        for case in ["lockstep", "computing", "stalled"] {
            let t0 = Instant::now();
            let mut now = t0;
            let mut core = ShardCore::new(0, &patient(), 0, 0, None, t0);
            core.step(now, hello(1));
            core.step(now, hello(2));
            for e in 0..1_000 {
                let lags = match case {
                    "lockstep" => [Some(0), Some(1)],
                    "computing" => [Some(10), Some(0)],
                    _ => [Some(if e % 50 == 49 { 40 } else { 0 }); 2],
                };
                let (resent, fanout) = episode(&mut core, &mut now, &lags, 40);
                assert_eq!(resent, [], "{case}: episode {e}");
                assert_eq!(fanout, [(1, 1), (2, 1)], "{case}: episode {e}");
            }
        }
    }

    #[test]
    fn recovered_sessions_are_purged_at_the_grace_deadline_not_a_tick_earlier() {
        let t0 = Instant::now();
        let deadline = t0 + TICK * 500;
        let mut core = ShardCore::new(0, &config(3), 0, 9, Some(deadline), t0);
        // An empty shard holds its report while recovery is open.
        for k in 1..500 {
            let fx = core.step(t0 + TICK * k, Input::Tick(true));
            assert_eq!((fx.purge, fx.report), (false, None), "tick {k}");
        }
        let fx = core.step(deadline, Input::Tick(true));
        assert_eq!((fx.purge, fx.report), (true, Some(9)));
    }

    /// A splitmix64 stream: the script's only source of choices.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Ten thousand seeded inputs — every request kind from twelve
    /// sessions (four of them recovered, some over capacity) at random
    /// moments, an arrival's `seq` growing with the input's index as a
    /// client's does, releases whenever the shard reports — rendered
    /// effect by effect.
    fn script(seed: u64) -> String {
        let (t0, mut cfg) = (Instant::now(), config(2));
        cfg.lease.sigma_mult = 0.0; // leases the silences below can outlast
        let mut core = ShardCore::new(0, &cfg, 3, 0, Some(t0 + TICK * 1_000), t0);
        let mut recovered: Vec<SessionId> = (8..12).collect();
        let (mut rng, mut now, mut reported) = (seed, t0, None);
        let mut log = String::new();
        for seq in 0..10_000 {
            // Now and then a second passes in silence, and the leases
            // of whoever stays silent through the next ticks lapse.
            let pause = next(&mut rng) % 2_000;
            now += Duration::from_micros(if pause < 4 { 1_000_000 } else { pause });
            let (session, frame) = (next(&mut rng) % 12, core.frame);
            let input = match next(&mut rng) % 10 {
                // A one-shard root: release what the shard reported as
                // soon as it has a session.
                _ if reported == Some(frame) && core.live > 0 => Input::Release(frame),
                8 | 9 => Input::Tick(!recovered.is_empty()),
                kind => {
                    let request = match kind {
                        0 => Request::Hello { session, seq: 0 },
                        1..=4 => Request::Arrive {
                            session,
                            episode: frame.saturating_sub(next(&mut rng) % 2),
                            seq,
                        },
                        5 => Request::Heartbeat { session, seq: 0 },
                        6 => Request::Leave { session, seq: 0 },
                        _ => Request::Resume {
                            session,
                            next_episode: frame + 1 - next(&mut rng) % 3,
                            seq: 0,
                        },
                    };
                    Input::Request(session, request, recovered.contains(&session))
                }
            };
            let fx = core.step(now, input);
            reported = fx.report.or(reported);
            recovered.retain(|s| !fx.roster.iter().any(|d| d.0 == *s && d.1.admits()));
            if fx.purge {
                recovered.clear();
            }
            writeln!(log, "{input:?} -> {fx:?}").unwrap();
        }
        log
    }

    #[test]
    fn a_seeded_script_replays_byte_identical_effects() {
        let log = script(7);
        assert_eq!(log, script(7));
        // The script reaches every corner it is meant to exercise.
        for needle in [
            "Release(",
            "Evict)",
            "Hello(",
            "Resume)",
            "Leave)",
            "Diverged",
            "ResumeRequired",
            "purge: true",
        ] {
            assert!(log.contains(needle), "no {needle} in the script");
        }
        let resent = |line: &str| line.starts_with("Tick") && line.contains("Overdue {");
        assert!(log.lines().any(resent), "no tick re-sent a release");
        for field in ["credits", "completers", "unroute"] {
            let (any, empty) = (format!("{field}: ["), format!("{field}: []"));
            let filled = log.matches(&any).count() - log.matches(&empty).count();
            assert!(filled > 0, "{field} always empty");
        }
    }

    /// Asserts that the non-test part of a module's source `src` names
    /// none of `banned`: the guard of a sans-IO core.
    pub(crate) fn assert_sans_io(src: &str, banned: &[&str]) {
        let core = src.split("#[cfg(test)]").next().unwrap();
        for banned in banned {
            assert!(!core.contains(banned), "the core names {banned}");
        }
    }

    #[test]
    fn the_core_is_sans_io() {
        let banned = [
            "Instant::",
            ".elapsed()",
            "SystemTime",
            "std::thread",
            "std::sync",
            "mpsc",
            "Mutex",
            "Atomic",
            "Router",
            "OutSink",
            "Arc<Journal>",
        ];
        assert_sans_io(include_str!("shard.rs"), &banned);
    }
}
