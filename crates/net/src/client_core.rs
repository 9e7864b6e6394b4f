//! One client session as a pure protocol core.
//!
//! [`ClientCore`] owns all a [`BarrierClient`](crate::BarrierClient)
//! knows, and [`ClientCore::step`] is the only way to change it: one
//! [`Input`] at a caller-supplied `now` in, one [`Effects`] value out.
//! The core reads no clock, never blocks and holds no wire; the drive
//! loop in [`crate::client`] does. So, like [`crate::shard`]'s core, a
//! session steps in virtual time.
//!
//! **One re-send rule.** The request in flight — a `Hello` or an
//! `Arrive` — is re-sent by the first [`Input::Tick`] at or after its
//! deadline: `t = request_timeout` after it was sent or last re-sent,
//! plus a jitter in `[t/16, t/8)` from a session-seeded [`JitterBackoff`]
//! whose base and cap are both `t/8`, drawn anew at each re-send. The
//! jitter spreads a herd of re-senders; the pace never grows, because a
//! re-send also renews the session lease.
//!
//! **The shard's NACK.** The one other re-send is the shard's to ask
//! for: its tick re-sends an overdue release as [`Response::Overdue`]
//! `{episode, round}` to a session that has not arrived since. A client
//! still arriving for `episode` lost the release and takes the frame as
//! it. A client arriving for `episode + 1` re-arrives once per `round`
//! above the highest it has answered for this arrival, under the
//! deadline it has: so a lost arrival costs a tick, not a time-out, and
//! a copy or wire duplicate of one round sends nothing. Any other client
//! drops the frame. A bare stale `Release` never makes a client send:
//! the fan-out's later copies look just like it.
//!
//! **Loss memory.** A re-send of the arrival in flight adds a copy, up to
//! three, to every arrival the session sends ([`Redundancy`]) — fresh,
//! re-sent, answering an `Overdue`, or asked for again by a late
//! `Welcome` or a `Resumed`.

use std::time::{Duration, Instant};

use combar_rt::JitterBackoff;
use combar_trace::Kind;

use crate::client::ClientStats;
use crate::proto::{Redundancy, Request, Response, SessionId};

/// One input to [`ClientCore::step`]: an intent, a response or a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Input {
    /// Send a `Hello`: a join, or with `rejoin` a return after eviction.
    Join {
        rejoin: bool,
    },
    /// Arrive for the current episode, or re-send the arrival in flight.
    Arrive,
    Heartbeat,
    Leave,
    Response(Response),
    /// Re-send the request in flight if it is due.
    Tick,
}

/// What a step completed: a join, a release, or the membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Joined(u64),
    Released(u64),
    Evicted,
    Diverged,
}

/// Everything one step changes outside the core.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Effects {
    /// A request to send as this many identical frames.
    pub(crate) send: Option<(Request, u32)>,
    pub(crate) outcome: Option<Outcome>,
    /// Drop what the wire holds for an earlier membership, before `send`.
    pub(crate) flush_stale: bool,
    /// When the request in flight is re-sent, if one is.
    pub(crate) deadline: Option<Instant>,
}

/// The request in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
    Hello { rejoin: bool },
    Arrive,
}

/// The protocol state of one client session. See the module docs.
#[derive(Debug)]
pub(crate) struct ClientCore {
    pub(crate) session: SessionId,
    timeout: Duration,
    /// `timeout` plus the jitter drawn at the last re-send.
    wait: Duration,
    /// The next episode to arrive for.
    pub(crate) episode: u64,
    seq: u64,
    pub(crate) joined: bool,
    /// The request in flight and when it is re-sent.
    pub(crate) pending: Option<(Pending, Instant)>,
    jitter: JitterBackoff,
    /// The highest `Overdue` round answered for the arrival in flight.
    answered: u64,
    redundancy: Redundancy,
    /// Highest server incarnation seen: a frame stamped lower comes from
    /// a fenced zombie and is dropped unread.
    max_inc: u64,
    pub(crate) stats: ClientStats,
    out: Effects,
}

impl ClientCore {
    pub(crate) fn new(session: SessionId, timeout: Duration) -> Self {
        let mut jitter = JitterBackoff::new(session.wrapping_add(1), timeout / 8, timeout / 8);
        Self {
            session,
            timeout,
            wait: timeout + jitter.next_delay(),
            jitter,
            answered: 0,
            episode: 0,
            seq: 0,
            joined: false,
            pending: None,
            redundancy: Redundancy::default(),
            max_inc: 0,
            stats: ClientStats::default(),
            out: Effects::default(),
        }
    }

    /// Handles one input at `now` and returns what it changed outside
    /// the core.
    pub(crate) fn step(&mut self, now: Instant, input: Input) -> Effects {
        let session = self.session;
        match input {
            Input::Join { rejoin } => self.hello(now, rejoin),
            Input::Arrive => match self.pending {
                Some((Pending::Arrive, _)) => self.resend(now),
                _ => self.arrive(false, Some(now)),
            },
            Input::Heartbeat => {
                let seq = self.seq();
                self.out.send = Some((Request::Heartbeat { session, seq }, 1));
            }
            Input::Leave => {
                let seq = self.seq();
                self.out.send = Some((Request::Leave { session, seq }, 1));
                self.joined = false;
                self.pending = None;
            }
            Input::Response(resp) => self.on_response(resp),
            Input::Tick => match self.pending {
                Some((_, due)) if now >= due => self.resend(now),
                _ => {}
            },
        }
        self.out.deadline = self.pending.map(|(_, due)| due);
        std::mem::take(&mut self.out)
    }

    /// The `seq` of the next request sent.
    fn seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Re-sends the request in flight at `now`, under a new jitter.
    fn resend(&mut self, now: Instant) {
        self.stats.retries += 1;
        self.wait = self.timeout + self.jitter.next_delay();
        match self.pending {
            Some((Pending::Hello { rejoin }, _)) => self.hello(now, rejoin),
            _ => self.arrive(true, Some(now)),
        }
    }

    fn hello(&mut self, now: Instant, rejoin: bool) {
        let (session, seq) = (self.session, self.seq());
        self.out.send = Some((Request::Hello { session, seq }, 1));
        self.pending = Some((Pending::Hello { rejoin }, now + self.wait));
    }

    /// Sends the arrival for the current episode — a re-send of the one
    /// in flight is evidence of loss and adds a copy, any other takes the
    /// session's count and has answered no `Overdue` yet — and, sent at
    /// `now`, restarts its deadline.
    fn arrive(&mut self, resend: bool, now: Option<Instant>) {
        let copies = if resend {
            self.redundancy.raise();
            self.redundancy.copies()
        } else {
            self.answered = 0;
            self.redundancy.fresh()
        };
        let (session, episode, seq) = (self.session, self.episode, self.seq());
        combar_trace::emit(episode as u32, session as u32, Kind::Arrive);
        let arrive = Request::Arrive {
            session,
            episode,
            seq,
        };
        self.out.send = Some((arrive, copies));
        if let Some(now) = now {
            self.pending = Some((Pending::Arrive, now + self.wait));
        }
    }

    /// Reads no time: the protocol's re-arrivals keep the deadline of
    /// the arrival in flight.
    fn on_response(&mut self, resp: Response) {
        if resp.incarnation() < self.max_inc {
            return; // a fenced zombie's frame
        }
        self.max_inc = resp.incarnation();
        let me = self.session;
        let arriving = matches!(self.pending, Some((Pending::Arrive, _)));
        self.out.outcome = Some(match resp {
            Response::Welcome {
                session, episode, ..
            } if session == me && !arriving => {
                let Some((Pending::Hello { rejoin }, _)) = self.pending else {
                    return;
                };
                self.episode = episode;
                self.joined = true;
                self.pending = None;
                self.out.flush_stale = true; // the old membership's frames
                if rejoin {
                    self.stats.rejoins += 1;
                    combar_trace::emit(episode as u32, me as u32, Kind::Rejoin);
                }
                Outcome::Joined(episode)
            }
            // A `Hello` in flight supersedes the rest: it is stale.
            _ if !arriving => return,
            Response::Release { episode, .. } | Response::Overdue { episode, .. }
                if episode >= self.episode =>
            {
                // A later episode means the server provably released ours
                // too (episodes are sequential); catch up either way.
                let done = self.episode;
                self.episode = episode + 1;
                self.pending = None;
                self.stats.episodes += 1;
                combar_trace::emit(done as u32, me as u32, Kind::Release);
                Outcome::Released(done)
            }
            Response::Overdue { episode, round, .. }
                if episode + 1 == self.episode && round > self.answered =>
            {
                // The shard has not seen this arrival: it was lost, or
                // it is still on its way. Send it again, once a round.
                self.answered = round;
                return self.arrive(true, None);
            }
            Response::Evicted { session, .. } if session == me => {
                self.joined = false;
                self.pending = None;
                self.stats.evictions += 1;
                combar_trace::emit(self.episode as u32, me as u32, Kind::Evict(me as u32));
                Outcome::Evicted
            }
            Response::Welcome {
                session, episode, ..
            } if session == me && episode > self.episode => {
                // A duplicate `Hello` was re-processed at a later frame:
                // the server re-admitted us there; move up and re-arrive.
                self.episode = episode;
                return self.arrive(false, None);
            }
            Response::ResumeRequired { session, .. } if session == me => {
                // A restarted server asks us to prove our position.
                let next_episode = self.episode;
                let resume = Request::Resume {
                    session,
                    next_episode,
                    seq: self.seq(),
                };
                self.out.send = Some((resume, 1));
                return;
            }
            Response::Resumed {
                session, episode, ..
            } if session == me && episode == self.episode => {
                // Restored at the same epoch: drop what the wire holds
                // from the dead incarnation and re-arrive under the new.
                self.stats.resumes += 1;
                self.out.flush_stale = true;
                return self.arrive(false, None);
            }
            Response::Diverged { session, .. } if session == me => {
                // The recovered server is behind us: rewinding would
                // double-count episodes, so the session ends here.
                self.joined = false;
                self.pending = None;
                Outcome::Diverged
            }
            // Stale or duplicate releases, answered or stale `Overdue`
            // rounds, duplicate welcomes and cross-session noise are
            // dropped like loss.
            _ => return,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::shard::{self, ConnId, ShardCore};
    use combar_chaos::{NetChaosConfig, NetFault, NetFaultPlan};

    const T: Duration = Duration::from_millis(10);

    /// A joined session at episode 0, and the time it joined.
    fn joined(session: SessionId, timeout: Duration) -> (ClientCore, Instant) {
        let t0 = Instant::now();
        let mut core = ClientCore::new(session, timeout);
        core.step(t0, Input::Join { rejoin: false });
        let welcome = Response::Welcome {
            session,
            episode: 0,
            inc: 0,
        };
        let fx = core.step(t0, Input::Response(welcome));
        assert_eq!(fx.outcome, Some(Outcome::Joined(0)));
        (core, t0)
    }

    #[test]
    fn the_core_is_sans_io() {
        let banned = [
            "Instant::",
            ".elapsed()",
            "SystemTime",
            "std::thread",
            "sleep",
            "Transport",
            "Mutex",
            "Atomic",
        ];
        crate::shard::tests::assert_sans_io(include_str!("client_core.rs"), &banned);
    }

    /// The first re-send falls in `[t + t/16, t + t/8)` after the send,
    /// every later one too (no growth), a `Tick` before the deadline
    /// sends nothing, and a `Release` clears the deadline.
    #[test]
    fn the_resend_deadline_is_one_jittered_timeout_that_never_grows() {
        for timeout in [Duration::from_millis(1), T, Duration::from_millis(25)] {
            for session in 0..8 {
                let (mut core, mut now) = joined(session, timeout);
                let mut fx = core.step(now, Input::Arrive);
                for resend in 0..12 {
                    let due = fx.deadline.expect("an arrival in flight has a deadline");
                    let wait = due - now;
                    let (lo, hi) = (timeout + timeout / 16, timeout + timeout / 8);
                    assert!(lo <= wait && wait < hi, "{timeout:?} #{resend}: {wait:?}");
                    let early = core.step(due - Duration::from_nanos(1), Input::Tick);
                    assert_eq!(early.send, None, "re-sent before the deadline");
                    now = due;
                    fx = core.step(now, Input::Tick);
                    assert!(matches!(fx.send, Some((Request::Arrive { .. }, _))));
                }
                assert_eq!(core.stats.retries, 12);
                let release = Response::Release { episode: 0, inc: 0 };
                let fx = core.step(now, Input::Response(release));
                assert_eq!(fx.outcome, Some(Outcome::Released(0)));
                assert_eq!((fx.deadline, core.pending), (None, None));
                assert_eq!(
                    core.step(now + timeout * 9, Input::Tick),
                    Effects::default()
                );
            }
        }
    }

    /// A `Release` read while a re-send is overdue completes at once: no
    /// re-send, no nap first.
    #[test]
    fn a_release_read_while_a_resend_is_due_completes_at_once() {
        let (mut core, t0) = joined(3, T);
        core.step(t0, Input::Arrive);
        let late = t0 + T * 5;
        let release = Response::Release { episode: 0, inc: 0 };
        let fx = core.step(late, Input::Response(release));
        assert_eq!(fx.outcome, Some(Outcome::Released(0)));
        assert_eq!(fx.send, None);
        assert_eq!(core.stats.retries, 0);
    }

    /// The answer rules of a client arriving for episode 1 after the
    /// release of episode 0: the fan-out's later copies of that release
    /// send nothing; each `Overdue` round for episode 0 draws one
    /// re-arrival with one more copy and the deadline the arrival had,
    /// and its wire duplicates and lower rounds draw none; nor does a
    /// round for an older episode, nor one read while computing or with
    /// a `Hello` in flight. None is a time-out re-send. An `Overdue` for
    /// episode 1 completes the client, and the next arrival answers
    /// rounds afresh.
    #[test]
    fn an_overdue_round_is_answered_once_and_a_stale_release_never() {
        let overdue = |episode, round| {
            Input::Response(Response::Overdue {
                episode,
                round,
                inc: 0,
            })
        };
        let (mut core, t0) = joined(5, T);
        core.step(t0, Input::Arrive);
        let release = Input::Response(Response::Release { episode: 0, inc: 0 });
        assert_eq!(core.step(t0, release).outcome, Some(Outcome::Released(0)));
        assert_eq!(
            core.step(t0, overdue(0, 1)),
            Effects::default(),
            "computing"
        );
        let due = core.step(t0, Input::Arrive).deadline;
        let at = t0 + T / 2;
        for _ in 0..3 {
            assert_eq!(core.step(at, release).send, None, "a fan-out copy");
        }
        let mut copies = Vec::new();
        for round in 1..=u64::from(shard::RESENDS) {
            let fx = core.step(at, overdue(0, round));
            let Some((Request::Arrive { episode: 1, .. }, n)) = fx.send else {
                panic!("round {round} sent {:?}", fx.send);
            };
            copies.push(n);
            assert_eq!(fx.deadline, due, "round {round} moved the deadline");
            for stale in 1..=round {
                assert_eq!(core.step(at, overdue(0, stale)).send, None, "{stale}");
            }
            assert_eq!(core.step(at, release).send, None);
        }
        assert_eq!(copies, [2, 3, 3, 3]);
        assert_eq!(
            core.stats.retries, 0,
            "a re-arrival asked for is no time-out"
        );
        let fx = core.step(at, overdue(1, 2));
        assert_eq!((fx.outcome, fx.send), (Some(Outcome::Released(1)), None));
        core.step(at, Input::Arrive);
        let fx = core.step(at, overdue(0, 4));
        assert_eq!((fx.send, fx.outcome), (None, None), "an older episode's");
        let fx = core.step(at, overdue(1, 1));
        assert!(matches!(
            fx.send,
            Some((Request::Arrive { episode: 2, .. }, 3))
        ));

        let mut hello = ClientCore::new(6, T);
        hello.step(t0, Input::Join { rejoin: false });
        assert_eq!(
            hello.step(t0, overdue(0, 1)).send,
            None,
            "a `Hello` in flight"
        );
    }

    /// The in-memory wire between two clients and one shard, under a
    /// fault plan on the transport's stream convention: session `s`'s
    /// requests on stream `2·s`, its responses on `2·s + 1`.
    struct Wire {
        plan: NetFaultPlan,
        /// The next message index on each stream.
        next: [u64; 4],
        up: Vec<Request>,
        down: [Vec<Response>; 2],
        /// Episodes each client saw released.
        released: [u64; 2],
        /// Each session's arrivals sent since last read: the episode, and
        /// whether a copy got through.
        arrivals: [Vec<(u64, bool)>; 2],
    }

    impl Wire {
        /// Puts `copies` of `frame` on `stream`'s queue as the plan
        /// decides; how many arrive.
        fn carry<F: Copy>(
            &mut self,
            stream: usize,
            frame: F,
            copies: u32,
            queue: &mut Vec<F>,
        ) -> u32 {
            let mut arrived = 0;
            for _ in 0..copies {
                let idx = self.next[stream];
                self.next[stream] += 1;
                let n = match self.plan.fault(stream as u64, idx) {
                    Some(NetFault::Drop) => 0,
                    Some(NetFault::Duplicate) => 2,
                    _ => 1,
                };
                queue.extend(std::iter::repeat_n(frame, n));
                arrived += n as u32;
            }
            arrived
        }

        fn send(&mut self, req: Request, copies: u32) {
            let mut up = std::mem::take(&mut self.up);
            let arrived = self.carry(2 * req.session() as usize, req, copies, &mut up);
            self.up = up;
            if let Request::Arrive {
                session, episode, ..
            } = req
            {
                self.arrivals[session as usize].push((episode, arrived > 0));
            }
        }

        /// Sends `copies` of `resp` to session `to`; how many arrive.
        fn reply(&mut self, to: ConnId, resp: Response, copies: u32) -> u32 {
            let mut down = std::mem::take(&mut self.down[to as usize]);
            let arrived = self.carry(2 * to as usize + 1, resp, copies, &mut down);
            self.down[to as usize] = down;
            arrived
        }
    }

    /// Steps `input` into `core` (session `i`), puts what it sends on
    /// the wire and arrives again after each join and release, until
    /// `released[i]` passes `quota`.
    fn feed(core: &mut ClientCore, input: Input, at: Instant, wire: &mut Wire, quota: u64) {
        let i = core.session as usize;
        let mut fx = core.step(at, input);
        loop {
            if let Some((req, copies)) = fx.send {
                wire.send(req, copies);
            }
            match fx.outcome {
                Some(Outcome::Released(ep)) => {
                    assert_eq!(ep, wire.released[i], "session {i} crossed out of order");
                    wire.released[i] += 1;
                }
                Some(Outcome::Joined(_)) => {}
                None => return,
                Some(other) => panic!("session {i}: {other:?}"),
            }
            if wire.released[i] > quota {
                return;
            }
            fx = core.step(at, Input::Arrive);
        }
    }

    /// A lost arrival: its episode, the client's time-out re-sends when
    /// every copy of it was lost, and whether an answer to an `Overdue`
    /// got through before the client re-sent.
    type LostArrival = Option<(u64, u64, bool)>;

    /// Reads the arrivals `core` sent in its last `feed`, `answering` an
    /// `Overdue` or not: one whose every copy was lost opens `lost`, and
    /// an answer that got through, with no time-out re-send since, marks
    /// it repaired by the shard's NACK.
    fn note(lost: &mut LostArrival, core: &ClientCore, wire: &mut Wire, answering: bool) {
        let retries = core.stats.retries;
        for (episode, through) in wire.arrivals[core.session as usize].drain(..) {
            match lost {
                None if !through => *lost = Some((episode, retries, false)),
                Some((ep, at, answered)) if *ep == episode && *at == retries => {
                    *answered |= through && answering;
                }
                _ => {}
            }
        }
    }

    /// Two client cores and one shard core cross 1 000 episodes in
    /// virtual time, the shard ticking as often as the wire delivers,
    /// over a wire with 5 % independent drop and 5 % duplicate, and over
    /// one that loses 5 % of frames in windows of eight (where a frame's
    /// copies are lost together). On both the shard credits each session
    /// exactly the episodes its client saw released. The root releases
    /// by `release_ready` once both sessions are live, so episode 0 is
    /// both sessions' join-proxy episode, which credits nobody, and every
    /// later one is crossed by explicit arrivals. A release whose every
    /// copy was lost, and that a re-send from the shard's tick reached
    /// before its client re-sent, completes with no client re-send: the
    /// burst ended inside the shard's schedule and did not cost the
    /// client's timeout. So does an arrival whose every copy was lost
    /// and whose client answered a tick's `Overdue` with a re-arrival
    /// that got through: the shard counts it before the client times
    /// out, and the answer is no `retries`. Each cell has both repairs.
    #[test]
    fn two_clients_and_a_shard_cross_exactly_once_over_a_lossy_wire() {
        const EPISODES: u64 = 1_000;
        let bursty = NetChaosConfig {
            seed: 7,
            disconnect_prob: 0.05 / 8.0,
            disconnect_len: 8,
            ..NetChaosConfig::default()
        };
        for chaos in [NetChaosConfig::lossy(7, 0.05), bursty] {
            let (t0, tick) = (Instant::now(), Duration::from_micros(50));
            let cfg = ServerConfig {
                shards: 1,
                tick,
                lease: combar_rt::SupervisorConfig {
                    min_grace: Duration::from_secs(3_600),
                    ..ServerConfig::default().lease
                },
                ..ServerConfig::default()
            };
            let mut shard = ShardCore::new(0, &cfg, 0, 0, None, t0);
            let mut clients = [0, 1].map(|s| ClientCore::new(s, Duration::from_millis(1)));
            let mut wire = Wire {
                plan: NetFaultPlan::new(chaos),
                next: [0; 4],
                up: Vec::new(),
                down: [Vec::new(), Vec::new()],
                released: [0; 2],
                arrivals: [Vec::new(), Vec::new()],
            };
            let (mut credits, mut now, mut report) = ([0u64; 2], t0, None);
            // Per session: the episode whose every release copy was lost
            // and the client's re-sends then, whether a tick's re-send
            // reached it before the client re-sent; and how many such
            // releases the shard repaired.
            let mut lost: [Option<(u64, u64, bool)>; 2] = [None; 2];
            let mut by_shard = 0;
            // The same for arrivals, repaired by a re-arrival answering
            // an `Overdue`.
            let (mut lost_arrival, mut by_nack): ([LostArrival; 2], u64) = ([None; 2], 0);
            for core in &mut clients {
                feed(
                    core,
                    Input::Join { rejoin: false },
                    now,
                    &mut wire,
                    EPISODES,
                );
                note(
                    &mut lost_arrival[core.session as usize],
                    core,
                    &mut wire,
                    false,
                );
            }
            while wire.released.iter().any(|&r| r <= EPISODES) {
                now += tick;
                assert!(
                    now - t0 < Duration::from_secs(600),
                    "wedged: {:?}",
                    wire.released
                );
                let mut effects = Vec::new();
                for req in std::mem::take(&mut wire.up) {
                    let (i, arrived) = (req.session() as usize, shard.arrived);
                    effects.push(shard.step(now, shard::Input::Request(i as u64, req, false)));
                    let Request::Arrive { episode, .. } = req else {
                        continue;
                    };
                    match lost_arrival[i] {
                        Some((ep, at, answered)) if ep == episode && shard.arrived > arrived => {
                            let repaired = clients[i].stats.retries == at;
                            assert!(repaired || !answered, "{chaos:?}: {i} arriving for {ep}");
                            by_nack += u64::from(answered);
                            lost_arrival[i] = None;
                        }
                        _ => {}
                    }
                }
                let frame = shard.frame;
                let reports = [(true, report.map_or(0, |r: u64| r + 1), shard.live)];
                if shard.live == 2 && shard::release_ready(frame, reports, false, false, false) {
                    effects.push(shard.step(now, shard::Input::Release(frame)));
                }
                // The tick's frames are the shard's re-sent releases, each
                // of the last release.
                let mut tick = shard.step(now, shard::Input::Tick(false));
                for (conn, resp) in std::mem::take(&mut tick.frames) {
                    let retries = clients[conn as usize].stats.retries;
                    let arrived = wire.reply(conn, resp, 1);
                    if let Some((_, at, reached)) = &mut lost[conn as usize] {
                        *reached |= arrived > 0 && retries == *at;
                    }
                }
                effects.push(tick);
                for fx in effects {
                    report = fx.report.or(report);
                    for (conn, resp) in fx.frames {
                        wire.reply(conn, resp, 1);
                    }
                    if let Some(episode) = fx.release {
                        for (conn, copies) in fx.fanout {
                            let release = Response::Release { episode, inc: 0 };
                            if wire.reply(conn, release, copies) == 0 {
                                let retries = clients[conn as usize].stats.retries;
                                lost[conn as usize] = Some((episode, retries, false));
                            }
                        }
                    }
                    if fx.release.is_some_and(|episode| episode > 0) {
                        for s in fx.credits {
                            credits[s as usize] += 1;
                        }
                    }
                }
                // An arrival the shard never counted, for an episode that
                // released: a join epoch's, released by proxy.
                for lost in &mut lost_arrival {
                    *lost = lost.filter(|&(ep, ..)| ep >= shard.frame);
                }
                for core in &mut clients {
                    let i = core.session as usize;
                    let inbox = std::mem::take(&mut wire.down[i]);
                    for resp in inbox {
                        feed(core, Input::Response(resp), now, &mut wire, EPISODES);
                        let answering = matches!(resp, Response::Overdue { .. });
                        note(&mut lost_arrival[i], core, &mut wire, answering);
                    }
                    feed(core, Input::Tick, now, &mut wire, EPISODES);
                    note(&mut lost_arrival[i], core, &mut wire, false);
                    if let Some((ep, at, reached)) = lost[i].filter(|l| wire.released[i] > l.0) {
                        let repaired = core.stats.retries == at;
                        assert!(repaired || !reached, "{chaos:?}: session {i}, episode {ep}");
                        by_shard += u64::from(repaired);
                        lost[i] = None;
                    }
                }
            }
            let crossed = wire.released.map(|r| r - 1);
            assert_eq!(crossed, [EPISODES; 2]);
            assert_eq!(credits, crossed, "the ledger is exactly-once");
            let retries: u64 = clients.iter().map(|c| c.stats.retries).sum();
            assert!(retries > 0, "the wire lost nothing");
            assert!(by_shard > 0, "{chaos:?}: the shard repaired no release");
            assert!(by_nack > 0, "{chaos:?}: the shard repaired no arrival");
        }
    }
}
