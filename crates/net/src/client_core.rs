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
    use crate::shard;
    use crate::simnet::{self, Scenario};
    use combar_chaos::{NetChaosConfig, NetFaultPlan};

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

    /// Two client cores and one shard core cross 1 000 episodes each in
    /// `simnet`, the shard ticking every 50 µs, over a wire with 5 %
    /// independent drop and 5 % duplicate, and over one that loses 5 % of
    /// frames in windows of eight (where a frame's copies are lost
    /// together). On both the shard credits each session exactly the
    /// episodes its client saw released past its join. A release whose
    /// every copy was lost, and that a re-send from the shard's tick
    /// reached before its client re-sent, completes with no client
    /// re-send: the burst ended inside the shard's schedule and did not
    /// cost the client's timeout. So does an arrival whose every copy was
    /// lost and whose client answered a tick's `Overdue` with a
    /// re-arrival that got through: the shard counts it before the client
    /// times out, and the answer is no `retries`. `simnet` asserts both
    /// on every repair; each cell has both.
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
            let scenario = Scenario {
                plan: vec![(0, NetFaultPlan::new(chaos))],
                tick: Duration::from_micros(50),
                client_timeout: Duration::from_millis(1),
                ..Scenario::new(2, EPISODES)
            };
            let run = simnet::run(Instant::now(), 7, &scenario);
            assert!(run.crossed.iter().all(|&c| c >= EPISODES), "{chaos:?}");
            assert_eq!(run.credits, run.crossed, "the ledger is exactly-once");
            let timeouts = run.episodes.iter().map(|e| e.timeouts).sum::<u32>();
            assert!(timeouts > 0, "the wire lost nothing");
            assert!(run.by_shard > 0, "{chaos:?}: the shard repaired no release");
            assert!(run.by_nack > 0, "{chaos:?}: the shard repaired no arrival");
        }
    }
}
