//! The retrying, idempotent client: [`BarrierClient`].
//!
//! The client speaks the `proto` state machine over any [`Transport`]:
//!
//! ```text
//!        Hello ────────► Welcome{episode}      (join / rejoin)
//!        Arrive{episode} ► Release{episode}    (one barrier crossing)
//!        Heartbeat                              (lease renewal)
//!        Leave                                  (orderly departure)
//! ```
//!
//! Every request names its `(session, episode)` coordinate, so the
//! client retries freely: each attempt waits up to
//! [`ClientConfig::request_timeout`] for the matching response, then
//! re-sends after a [`JitterBackoff`] delay (PR 4's jittered
//! exponential backoff, so a herd of retrying clients desynchronizes).
//! A retried `Arrive` the server already counted is a no-op; one whose
//! episode already released is answered with a re-sent `Release` — the
//! wire can drop, duplicate, delay, or reorder anything and the episode
//! counters still advance exactly once.
//!
//! A re-send is also evidence of loss, and the session remembers loss.
//! Every re-send of the in-flight arrival (a
//! [`send_arrive`](BarrierClient::send_arrive) while one is pending —
//! the only re-send site, which [`await_release`](BarrierClient::await_release)
//! retries through too) adds one copy, up to three, to every arrival the
//! session sends: each is encoded once and handed to the transport that
//! many times, same bytes, same `seq`. The count drops by one copy after
//! 1 024 fresh arrivals in a row go out without a re-send, so it holds
//! while loss persists. The server keeps the same rule for the session's
//! releases, with a re-sent arrival for an already-released episode as
//! its evidence. With k independently faulted copies a frame is lost
//! with probability pᵏ instead of p, so at 5 % loss an episode of 16
//! sessions needs a repair about 1.6 % of the time instead of 81 %.
//! Only independent loss gets this: a burst (a `disconnect_prob`
//! window of the fault plan, a flapping link) drops all copies
//! together. A clean wire never re-sends, so its copy count stays at
//! one and its sequence of operations is exactly one frame per arrival.
//!
//! Errors map onto the runtime's [`BarrierError`]:
//! [`BarrierError::Timeout`] when attempts are exhausted (the operation
//! may simply be retried — state is unharmed),
//! [`BarrierError::Evicted`] when the server folded the session out
//! (call [`BarrierClient::rejoin`]), and [`BarrierError::Poisoned`]
//! when the transport is closed for good.
//!
//! A *restarted* server (recovered from its write-ahead journal)
//! challenges journaled-live sessions with `ResumeRequired`; the client
//! answers `Resume{next_episode}` proving its position, and either
//! continues seamlessly (`Resumed`), catches up from an idempotent
//! `Release` re-ack, or learns the recovered authority lost a journal
//! suffix it already observed — [`BarrierError::Diverged`], the one
//! error that means the epoch stream itself broke. Every response frame
//! carries the server's incarnation; frames from superseded
//! incarnations (a fenced zombie primary) are silently dropped.

use std::time::{Duration, Instant};

use combar_rt::{BarrierError, JitterBackoff};
use combar_trace::Kind;

use crate::proto::{Redundancy, Request, Response, SessionId};
use crate::transport::{NetError, Transport};

/// Retry tuning for [`BarrierClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// How long one attempt waits for its response before re-sending.
    pub request_timeout: Duration,
    /// Initial retry backoff (doubles per retry, jittered).
    pub backoff_base: Duration,
    /// Retry backoff cap.
    pub backoff_max: Duration,
    /// Attempts per operation before giving up with `Timeout`.
    pub max_attempts: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_millis(25),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            max_attempts: 40,
        }
    }
}

/// Client-side observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Episodes completed (successful [`BarrierClient::arrive`] calls).
    pub episodes: u64,
    /// Request re-sends after an attempt timed out.
    pub retries: u64,
    /// Evictions observed.
    pub evictions: u64,
    /// Successful rejoins after eviction.
    pub rejoins: u64,
    /// Successful `Resume` handshakes after a server restart proved the
    /// session's epoch position to the new incarnation.
    pub resumes: u64,
}

/// One client session of the epoch server. See the module docs.
#[derive(Debug)]
pub struct BarrierClient<T: Transport> {
    transport: T,
    session: SessionId,
    cfg: ClientConfig,
    /// The next episode to arrive for (set by `Welcome`, advanced by
    /// `Release`).
    episode: u64,
    seq: u64,
    joined: bool,
    /// An `Arrive` for the current episode is in flight (sent but not
    /// yet released) — `await_release` re-sends it on retry.
    arrive_pending: bool,
    /// How many copies of each arrival to send: raised by every
    /// re-send, lowered by a calm run of fresh arrivals.
    redundancy: Redundancy,
    /// Highest server incarnation observed. Frames stamped with a lower
    /// incarnation come from a fenced zombie (a dead server's delayed
    /// or split-brain traffic) and are dropped unconditionally — the
    /// client-side half of the fencing invariant.
    max_inc: u64,
    stats: ClientStats,
}

impl<T: Transport> BarrierClient<T> {
    /// Wraps a transport as the client for `session`. Call
    /// [`join`](Self::join) before arriving.
    pub fn new(transport: T, session: SessionId, cfg: ClientConfig) -> Self {
        Self {
            transport,
            session,
            cfg,
            episode: 0,
            seq: 0,
            joined: false,
            arrive_pending: false,
            redundancy: Redundancy::default(),
            max_inc: 0,
            stats: ClientStats::default(),
        }
    }

    /// The session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The next episode this client will arrive for.
    pub fn episode(&self) -> u64 {
        self.episode
    }

    /// Whether the client currently holds a membership.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Client-side counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn backoff(&self) -> JitterBackoff {
        // Seeded by session so concurrent clients desynchronize
        // deterministically.
        JitterBackoff::new(
            self.session.wrapping_add(1),
            self.cfg.backoff_base,
            self.cfg.backoff_max,
        )
    }

    fn send(&mut self, req: Request) -> Result<(), BarrierError> {
        self.send_copies(req, 1)
    }

    /// Encodes `req` once and hands the transport `copies` of it, all
    /// under one `seq`.
    fn send_copies(&mut self, req: Request, copies: u32) -> Result<(), BarrierError> {
        self.seq += 1;
        let frame = req.encode();
        for _ in 0..copies {
            match self.transport.send(&frame) {
                Ok(()) | Err(NetError::Timeout) => {} // best effort, like loss
                Err(NetError::Closed) => return Err(BarrierError::Poisoned),
            }
        }
        Ok(())
    }

    /// Decodes a frame and applies the fencing filter: malformed frames
    /// and frames from superseded incarnations are dropped (returning
    /// `None`), exactly as if the wire had lost them.
    fn accept(&mut self, frame: &[u8]) -> Option<Response> {
        let resp = Response::decode(frame).ok()?;
        let inc = resp.incarnation();
        if inc < self.max_inc {
            return None; // a fenced zombie's frame
        }
        self.max_inc = inc;
        Some(resp)
    }

    /// Joins (Hello → Welcome), retrying with backoff. On success the
    /// client is positioned at the server's current episode — the join
    /// lands as a proxy arrival there, so joining can never wedge an
    /// in-flight episode.
    pub fn join(&mut self) -> Result<u64, BarrierError> {
        let mut backoff = self.backoff();
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(backoff.next_delay());
            }
            self.send(Request::Hello {
                session: self.session,
                seq: self.seq,
            })?;
            let deadline = Instant::now() + self.cfg.request_timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match self.transport.recv_timeout(remaining) {
                    Ok(frame) => match self.accept(&frame) {
                        Some(Response::Welcome {
                            session, episode, ..
                        }) if session == self.session => {
                            self.episode = episode;
                            self.joined = true;
                            self.arrive_pending = false;
                            // A fresh membership: anything the wire
                            // still holds for the old one is stale.
                            self.transport.flush_stale();
                            return Ok(episode);
                        }
                        // Stale releases/evictions from a previous
                        // membership: superseded by the Hello in flight.
                        _ => continue,
                    },
                    Err(NetError::Timeout) => break,
                    Err(NetError::Closed) => return Err(BarrierError::Poisoned),
                }
            }
        }
        Err(BarrierError::Timeout)
    }

    /// Rejoins after an eviction. Identical to [`join`](Self::join) but
    /// counted (and traced) as a rejoin.
    pub fn rejoin(&mut self) -> Result<u64, BarrierError> {
        let ep = self.join()?;
        self.stats.rejoins += 1;
        combar_trace::emit(ep as u32, self.session as u32, Kind::Rejoin);
        Ok(ep)
    }

    /// Sends the arrival for the current episode without waiting for
    /// the release. Pair with [`await_release`](Self::await_release);
    /// a traffic generator multiplexing many sessions on one thread
    /// sends all arrivals first, then awaits all releases.
    ///
    /// Called again before the release, it re-sends the same arrival
    /// (idempotent, counted in [`ClientStats::retries`]) and adds a copy
    /// to it and to the arrivals after it, as the module docs describe.
    pub fn send_arrive(&mut self) -> Result<(), BarrierError> {
        if !self.joined {
            return Err(BarrierError::Evicted);
        }
        let copies = if self.arrive_pending {
            // A re-send is evidence of loss.
            self.stats.retries += 1;
            self.redundancy.raise();
            self.redundancy.copies()
        } else {
            self.redundancy.fresh()
        };
        let (session, episode) = (self.session, self.episode);
        combar_trace::emit(episode as u32, session as u32, Kind::Arrive);
        self.send_copies(
            Request::Arrive {
                session,
                episode,
                seq: self.seq,
            },
            copies,
        )?;
        self.arrive_pending = true;
        Ok(())
    }

    /// One bounded check for the release of the in-flight arrival: reads
    /// responses for at most `wait` and never sleeps. It never re-sends
    /// the in-flight arrival either; what it does send are the protocol's
    /// answers to what it reads — a fresh `Arrive` when a late `Welcome`
    /// re-admitted the session at a later episode or a `Resumed` restored
    /// it under a new server incarnation, and `Resume` to a
    /// `ResumeRequired` challenge.
    ///
    /// This is the non-blocking half a multiplexing driver needs: a
    /// thread juggling many sessions must never park on one session's
    /// release while its *other* sessions still owe the server arrivals
    /// — that is a distributed self-deadlock (every driver waits on a
    /// release only another driver's unsent arrival can unblock).
    /// `Err(Timeout)` just means "not yet"; re-send the arrival on your
    /// own schedule ([`send_arrive`](Self::send_arrive) re-sends are
    /// idempotent and renew the session lease) and poll again.
    ///
    /// The wire is looked at before the clock: a zero `wait` is one
    /// non-blocking receive, not a no-op.
    pub fn poll_release(&mut self, wait: Duration) -> Result<u64, BarrierError> {
        if !self.joined {
            return Err(BarrierError::Evicted);
        }
        if !self.arrive_pending {
            return Err(BarrierError::Timeout);
        }
        let deadline = Instant::now() + wait;
        let mut remaining = wait;
        loop {
            match self.transport.recv_timeout(remaining) {
                Ok(frame) => match self.accept(&frame) {
                    Some(Response::Release { episode, .. }) if episode >= self.episode => {
                        // episode > self.episode means the server
                        // provably released ours too (episodes are
                        // sequential); catch up either way.
                        let done = self.episode;
                        self.episode = episode + 1;
                        self.arrive_pending = false;
                        self.stats.episodes += 1;
                        combar_trace::emit(done as u32, self.session as u32, Kind::Release);
                        return Ok(done);
                    }
                    Some(Response::Evicted { session, .. }) if session == self.session => {
                        self.joined = false;
                        self.arrive_pending = false;
                        self.stats.evictions += 1;
                        combar_trace::emit(
                            self.episode as u32,
                            self.session as u32,
                            Kind::Evict(self.session as u32),
                        );
                        return Err(BarrierError::Evicted);
                    }
                    Some(Response::Welcome {
                        session, episode, ..
                    }) if session == self.session && episode > self.episode => {
                        // A duplicate Hello was re-processed at a
                        // later frame: the server re-admitted us
                        // there; move up and re-arrive.
                        self.episode = episode;
                        self.send(Request::Arrive {
                            session,
                            episode,
                            seq: self.seq,
                        })?;
                    }
                    Some(Response::ResumeRequired { session, .. }) if session == self.session => {
                        // A restarted server recovered us from its
                        // journal and challenges us to prove our epoch
                        // position before it counts anything.
                        self.send(Request::Resume {
                            session,
                            next_episode: self.episode,
                            seq: self.seq,
                        })?;
                    }
                    Some(Response::Resumed {
                        session, episode, ..
                    }) if session == self.session && episode == self.episode => {
                        // Position proven: membership restored at the
                        // same epoch. Drop anything the wire still
                        // holds from the dead incarnation, then
                        // re-arrive under the new one.
                        self.stats.resumes += 1;
                        self.transport.flush_stale();
                        self.send(Request::Arrive {
                            session,
                            episode: self.episode,
                            seq: self.seq,
                        })?;
                    }
                    Some(Response::Diverged { session, .. }) if session == self.session => {
                        // The recovered authority is *behind* us: it
                        // lost a journal suffix we observed. Surfacing
                        // is the only honest move — silently rewinding
                        // would double-count episodes.
                        self.joined = false;
                        self.arrive_pending = false;
                        return Err(BarrierError::Diverged);
                    }
                    // Stale releases for earlier episodes,
                    // duplicate welcomes, cross-session noise:
                    // drop, exactly like the wire would.
                    _ => {}
                },
                Err(NetError::Timeout) => return Err(BarrierError::Timeout),
                Err(NetError::Closed) => return Err(BarrierError::Poisoned),
            }
            remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(BarrierError::Timeout);
            }
        }
    }

    /// Waits for the release of the episode whose arrival is in flight,
    /// re-sending the (idempotent) `Arrive` through
    /// [`send_arrive`](Self::send_arrive) on each attempt timeout.
    ///
    /// `Ok(ep)` — episode `ep` completed; the client advances to
    /// `ep + 1`. `Err(Evicted)` — the server folded this session out;
    /// [`rejoin`](Self::rejoin) to continue. `Err(Timeout)` — attempts
    /// exhausted; calling again resumes safely.
    pub fn await_release(&mut self) -> Result<u64, BarrierError> {
        if !self.joined {
            return Err(BarrierError::Evicted);
        }
        if !self.arrive_pending {
            return Err(BarrierError::Timeout);
        }
        let mut backoff = self.backoff();
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
                self.send_arrive()?;
            }
            match self.poll_release(self.cfg.request_timeout) {
                Err(BarrierError::Timeout) => continue,
                other => return other,
            }
        }
        Err(BarrierError::Timeout)
    }

    /// One full barrier crossing: arrive at the current episode and
    /// wait for its release. Returns the completed episode number.
    pub fn arrive(&mut self) -> Result<u64, BarrierError> {
        self.send_arrive()?;
        self.await_release()
    }

    /// Renews the session lease without arriving — for clients whose
    /// inter-arrival work outlasts the server's grace window.
    pub fn heartbeat(&mut self) -> Result<(), BarrierError> {
        self.send(Request::Heartbeat {
            session: self.session,
            seq: self.seq,
        })
    }

    /// Leaves the membership at the next boundary (best effort; loss of
    /// the frame degenerates to a lease eviction, which is equivalent).
    pub fn leave(&mut self) -> Result<(), BarrierError> {
        let r = self.send(Request::Leave {
            session: self.session,
            seq: self.seq,
        });
        self.joined = false;
        self.arrive_pending = false;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::HOLD;
    use crate::transport::loopback_pair;

    /// A hand-rolled server half for protocol-level unit tests.
    fn expect_req(t: &mut impl Transport) -> Request {
        let frame = t.recv_timeout(Duration::from_secs(1)).expect("request");
        Request::decode(&frame).expect("well-formed request")
    }

    #[test]
    fn join_retries_until_welcome() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            // Swallow the first Hello (simulated loss), answer the
            // retry.
            let first = expect_req(&mut server_side);
            assert!(matches!(first, Request::Hello { session: 9, .. }));
            let second = expect_req(&mut server_side);
            assert!(matches!(second, Request::Hello { session: 9, .. }));
            server_side
                .send(
                    &Response::Welcome {
                        session: 9,
                        episode: 3,
                        inc: 0,
                    }
                    .encode(),
                )
                .unwrap();
        });
        let mut c = BarrierClient::new(
            client_side,
            9,
            ClientConfig {
                request_timeout: Duration::from_millis(10),
                ..ClientConfig::default()
            },
        );
        assert_eq!(c.join().unwrap(), 3);
        assert_eq!(c.episode(), 3);
        assert!(c.stats().retries >= 1);
        h.join().unwrap();
    }

    #[test]
    fn arrive_resends_idempotently_and_accepts_late_release() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            // Lose the first Arrive; ack the retry.
            let a1 = expect_req(&mut server_side);
            assert!(matches!(
                a1,
                Request::Arrive {
                    session: 4,
                    episode: 0,
                    ..
                }
            ));
            let a2 = expect_req(&mut server_side);
            assert_eq!(a1.session(), a2.session());
            server_side
                .send(&Response::Release { episode: 0, inc: 0 }.encode())
                .unwrap();
            // Held open until the client is done: the re-send's later
            // copies would find a closed wire, which is `Poisoned`.
            server_side
        });
        let mut c = BarrierClient::new(
            client_side,
            4,
            ClientConfig {
                request_timeout: Duration::from_millis(10),
                ..ClientConfig::default()
            },
        );
        c.joined = true; // skip Hello for this wire-level test
        assert_eq!(c.arrive().unwrap(), 0);
        assert_eq!(c.episode(), 1);
        assert!(c.stats().retries >= 1);
        h.join().unwrap();
    }

    /// Each re-send adds a copy: the first re-send and the arrivals after
    /// it reach the transport as two byte-identical frames, a second
    /// re-send makes it three, and each `HOLD` fresh arrivals without a
    /// re-send take one copy away again. Only the re-sends are retries.
    /// The hand-rolled server answers every arrival with two copies of
    /// its `Release`, as a server that has seen loss does: the client
    /// crosses each episode once.
    #[test]
    fn a_resend_doubles_the_next_arrivals_and_copies_count_once() {
        fn frames(server: &mut impl Transport) -> Vec<Vec<u8>> {
            std::iter::from_fn(|| server.recv_timeout(Duration::ZERO).ok()).collect()
        }
        fn release_twice(server: &mut impl Transport, episode: u64) {
            let release = Response::Release { episode, inc: 0 }.encode();
            server.send(&release).unwrap();
            server.send(&release).unwrap();
        }
        /// The arrival for `episode`, sent as `copies` identical frames.
        fn assert_sent(server: &mut impl Transport, episode: u64, copies: usize) {
            let sent = frames(server);
            assert_eq!(sent.len(), copies, "episode {episode}");
            assert!(sent.iter().all(|f| *f == sent[0]), "copies differ");
            let req = Request::decode(&sent[0]).unwrap();
            assert!(matches!(req, Request::Arrive { session: 4, episode: e, .. } if e == episode));
        }
        let (client_side, mut server_side) = loopback_pair();
        let mut c = BarrierClient::new(client_side, 4, ClientConfig::default());
        c.joined = true;
        c.send_arrive().unwrap();
        assert_sent(&mut server_side, 0, 1); // and dropped by the wire
        c.send_arrive().unwrap();
        assert_sent(&mut server_side, 0, 2); // the re-send has two copies itself
        release_twice(&mut server_side, 0);
        assert_eq!(c.poll_release(Duration::from_secs(1)), Ok(0));
        c.send_arrive().unwrap();
        assert_sent(&mut server_side, 1, 2);
        c.send_arrive().unwrap();
        assert_sent(&mut server_side, 1, 3); // a second re-send: three
        release_twice(&mut server_side, 1);
        assert_eq!(c.poll_release(Duration::from_secs(1)), Ok(1));
        let hold = u64::from(HOLD);
        for episode in 2..=2 * hold + 2 {
            c.send_arrive().unwrap();
            let calm = episode - 2; // fresh arrivals since the last re-send
            assert_sent(&mut server_side, episode, 3 - (calm / hold).min(2) as usize);
            release_twice(&mut server_side, episode);
            assert_eq!(c.poll_release(Duration::from_secs(1)), Ok(episode));
        }
        let stats = c.stats();
        assert_eq!(stats.retries, 2, "only the re-sends are retries");
        assert_eq!(stats.episodes, 2 * hold + 3);
        assert_eq!(c.episode(), stats.episodes, "each episode crossed once");
    }

    #[test]
    fn eviction_surfaces_and_blocks_until_rejoin() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            let _arrive = expect_req(&mut server_side);
            server_side
                .send(
                    &Response::Evicted {
                        session: 5,
                        episode: 0,
                        inc: 0,
                    }
                    .encode(),
                )
                .unwrap();
        });
        let mut c = BarrierClient::new(client_side, 5, ClientConfig::default());
        c.joined = true;
        assert_eq!(c.arrive(), Err(BarrierError::Evicted));
        assert!(!c.is_joined());
        assert_eq!(
            c.arrive(),
            Err(BarrierError::Evicted),
            "refuses until rejoin"
        );
        assert_eq!(c.stats().evictions, 1);
        h.join().unwrap();
    }

    #[test]
    fn resume_challenge_restores_membership_at_the_same_epoch() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            // The "restarted server": challenge the first Arrive,
            // expect a Resume proving episode 5, admit, then release.
            let a = expect_req(&mut server_side);
            assert!(matches!(a, Request::Arrive { episode: 5, .. }));
            server_side
                .send(
                    &Response::ResumeRequired {
                        session: 8,
                        episode: 5,
                        inc: 2,
                    }
                    .encode(),
                )
                .unwrap();
            let r = expect_req(&mut server_side);
            assert!(
                matches!(
                    r,
                    Request::Resume {
                        session: 8,
                        next_episode: 5,
                        ..
                    }
                ),
                "{r:?}"
            );
            server_side
                .send(
                    &Response::Resumed {
                        session: 8,
                        episode: 5,
                        inc: 2,
                    }
                    .encode(),
                )
                .unwrap();
            // The client re-arrives under the new incarnation.
            let a2 = expect_req(&mut server_side);
            assert!(matches!(a2, Request::Arrive { episode: 5, .. }));
            server_side
                .send(&Response::Release { episode: 5, inc: 2 }.encode())
                .unwrap();
        });
        let mut c = BarrierClient::new(client_side, 8, ClientConfig::default());
        c.joined = true;
        c.episode = 5;
        assert_eq!(c.arrive().unwrap(), 5);
        assert_eq!(c.stats().resumes, 1);
        assert_eq!(c.stats().evictions, 0, "a resume is not an eviction");
        h.join().unwrap();
    }

    #[test]
    fn zombie_incarnation_frames_are_dropped() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            let _a = expect_req(&mut server_side);
            // New incarnation speaks first, then a fenced zombie's
            // stale frames arrive: an eviction and a bogus release,
            // both stamped with the dead incarnation. Neither may act.
            server_side
                .send(
                    &Response::ResumeRequired {
                        session: 3,
                        episode: 7,
                        inc: 4,
                    }
                    .encode(),
                )
                .unwrap();
            server_side
                .send(
                    &Response::Evicted {
                        session: 3,
                        episode: 7,
                        inc: 2,
                    }
                    .encode(),
                )
                .unwrap();
            server_side
                .send(&Response::Release { episode: 9, inc: 2 }.encode())
                .unwrap();
            let r = expect_req(&mut server_side);
            assert!(matches!(r, Request::Resume { .. }));
            server_side
                .send(
                    &Response::Resumed {
                        session: 3,
                        episode: 7,
                        inc: 4,
                    }
                    .encode(),
                )
                .unwrap();
            let _a2 = expect_req(&mut server_side);
            server_side
                .send(&Response::Release { episode: 7, inc: 4 }.encode())
                .unwrap();
        });
        let mut c = BarrierClient::new(client_side, 3, ClientConfig::default());
        c.joined = true;
        c.episode = 7;
        assert_eq!(c.arrive().unwrap(), 7);
        assert_eq!(c.stats().evictions, 0, "zombie eviction must not land");
        assert_eq!(c.episode(), 8, "zombie Release{{9}} must not skip epochs");
        h.join().unwrap();
    }

    #[test]
    fn divergence_surfaces_as_its_own_error() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            let _a = expect_req(&mut server_side);
            server_side
                .send(
                    &Response::ResumeRequired {
                        session: 6,
                        episode: 2,
                        inc: 3,
                    }
                    .encode(),
                )
                .unwrap();
            let _r = expect_req(&mut server_side);
            // The recovered journal only reaches epoch 2; the client
            // claims 4 — a lost suffix.
            server_side
                .send(
                    &Response::Diverged {
                        session: 6,
                        expected: 2,
                        inc: 3,
                    }
                    .encode(),
                )
                .unwrap();
        });
        let mut c = BarrierClient::new(client_side, 6, ClientConfig::default());
        c.joined = true;
        c.episode = 4;
        assert_eq!(c.arrive(), Err(BarrierError::Diverged));
        assert!(!c.is_joined());
        h.join().unwrap();
    }

    #[test]
    fn zero_wait_poll_looks_at_the_wire_once() {
        let (client_side, mut server_side) = loopback_pair();
        let mut c = BarrierClient::new(client_side, 2, ClientConfig::default());
        c.joined = true;
        c.episode = 1;
        c.send_arrive().unwrap();
        let mut look = || c.poll_release(Duration::ZERO);
        assert_eq!(look(), Err(BarrierError::Timeout), "nothing there yet");
        // A stale release queued ahead of the real one: one look takes
        // one frame, whatever it is.
        for episode in [0, 1] {
            let release = Response::Release { episode, inc: 0 };
            server_side.send(&release.encode()).unwrap();
        }
        assert_eq!(look(), Err(BarrierError::Timeout), "took the stale frame");
        assert_eq!(look(), Ok(1));
    }

    #[test]
    fn closed_transport_is_poisoned() {
        let (client_side, server_side) = loopback_pair();
        drop(server_side);
        let mut c = BarrierClient::new(client_side, 6, ClientConfig::default());
        assert_eq!(c.join(), Err(BarrierError::Poisoned));
    }

    #[test]
    fn duplicate_releases_are_ignored() {
        let (client_side, mut server_side) = loopback_pair();
        let h = std::thread::spawn(move || {
            let _a = expect_req(&mut server_side);
            // Duplicate + stale releases around the real one.
            for ep in [0u64, 0, 0] {
                server_side
                    .send(
                        &Response::Release {
                            episode: ep,
                            inc: 0,
                        }
                        .encode(),
                    )
                    .unwrap();
            }
            // Skip any Arrive{0} retries that raced the releases.
            loop {
                let a2 = expect_req(&mut server_side);
                if matches!(a2, Request::Arrive { episode: 1, .. }) {
                    break;
                }
            }
            server_side
                .send(&Response::Release { episode: 1, inc: 0 }.encode())
                .unwrap();
        });
        let mut c = BarrierClient::new(client_side, 7, ClientConfig::default());
        c.joined = true;
        assert_eq!(c.arrive().unwrap(), 0);
        // The two duplicate Release{0} frames must not complete ep 1.
        assert_eq!(c.arrive().unwrap(), 1);
        assert_eq!(c.stats().episodes, 2);
        h.join().unwrap();
    }
}
