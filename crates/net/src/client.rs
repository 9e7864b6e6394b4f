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
//! client retries freely: the wire can drop, duplicate, delay or reorder
//! anything and the episode counters still advance exactly once. What
//! the session knows is the crate's sans-IO `client_core::ClientCore`,
//! whose docs state the one re-send rule and the copy rule; a
//! `BarrierClient` is that core under one drive loop, the only place
//! the client reads the clock or the transport.
//!
//! Errors are [`BarrierError`]s: `Timeout` (attempts exhausted; retry),
//! `Evicted` ([`rejoin`](BarrierClient::rejoin)), `Poisoned` (transport
//! closed), and `Diverged`: a server recovered from its journal, which
//! challenged the session to `Resume` its position, lost a suffix of the
//! epoch stream the session observed.

use std::time::{Duration, Instant};

use combar_rt::BarrierError;

use crate::client_core::{ClientCore, Input, Outcome, Pending};
use crate::proto::{Response, SessionId};
use crate::transport::{NetError, Transport};

/// Retry tuning for [`BarrierClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// How long a request waits for its response before it is re-sent
    /// (plus a jitter of a sixteenth to an eighth of it).
    pub request_timeout: Duration,
    /// Sends per blocking operation before giving up with `Timeout`.
    pub max_attempts: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_millis(25),
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
    /// `Resume` handshakes that proved the session to a restarted server.
    pub resumes: u64,
}

/// How long [`BarrierClient::drive`] reads the wire after its intent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Until {
    /// Not at all: the intent is sent and the call returns.
    Sent,
    /// For at most this long; with `true` re-sending what falls due.
    Wait(Duration, bool),
    /// Until an outcome, re-sending up to `max_attempts - 1` times.
    Outcome,
}

/// One client session of the epoch server. See the module docs.
#[derive(Debug)]
pub struct BarrierClient<T: Transport> {
    transport: T,
    max_attempts: u32,
    pub(crate) core: ClientCore,
}

impl<T: Transport> BarrierClient<T> {
    /// Wraps a transport as the client for `session`. Call
    /// [`join`](Self::join) before arriving.
    pub fn new(transport: T, session: SessionId, cfg: ClientConfig) -> Self {
        Self {
            transport,
            max_attempts: cfg.max_attempts,
            core: ClientCore::new(session, cfg.request_timeout),
        }
    }

    /// The session id.
    pub fn session(&self) -> SessionId {
        self.core.session
    }

    /// The next episode this client will arrive for.
    pub fn episode(&self) -> u64 {
        self.core.episode
    }

    /// Whether the client currently holds a membership.
    pub fn is_joined(&self) -> bool {
        self.core.joined
    }

    /// Client-side counters.
    pub fn stats(&self) -> ClientStats {
        self.core.stats
    }

    /// The drive loop: steps `intent` into the core, then hands it every
    /// response the wire delivers — and, where `until` allows, a `Tick`
    /// at each re-send deadline — until it reports an outcome. `Ok` is a
    /// join's or a release's episode.
    pub(crate) fn drive(
        &mut self,
        intent: Option<Input>,
        until: Until,
    ) -> Result<u64, BarrierError> {
        let mut now = Instant::now();
        if let Some(intent) = intent {
            self.apply(now, intent)?;
        }
        let (end, mut resends) = match until {
            Until::Sent => return Ok(self.core.episode),
            Until::Wait(wait, resend) => (Some(now + wait), if resend { u32::MAX } else { 0 }),
            Until::Outcome => (None, self.max_attempts.saturating_sub(1)),
        };
        loop {
            let due = self.core.pending.map(|(_, due)| due);
            let due = due.filter(|_| resends > 0 || end.is_none());
            if due.is_some_and(|due| due <= now) {
                if resends == 0 {
                    return Err(BarrierError::Timeout);
                }
                resends -= 1;
                self.apply(now, Input::Tick)?;
                continue;
            }
            let Some(wake) = due.into_iter().chain(end).min() else {
                return Err(BarrierError::Timeout);
            };
            let wait = wake.saturating_duration_since(now);
            let frame = match self.transport.recv_timeout(wait) {
                Ok(frame) => frame,
                Err(NetError::Timeout) => Vec::new(), // decodes to nothing
                Err(NetError::Closed) => return Err(BarrierError::Poisoned),
            };
            // A response's step reads no time; the clock is read to go on.
            if let Ok(resp) = Response::decode(&frame) {
                match self.apply(now, Input::Response(resp))? {
                    Some(Outcome::Joined(ep) | Outcome::Released(ep)) => return Ok(ep),
                    Some(Outcome::Evicted) => return Err(BarrierError::Evicted),
                    Some(Outcome::Diverged) => return Err(BarrierError::Diverged),
                    None => {}
                }
            }
            now = Instant::now();
            if end.is_some_and(|end| now >= end) {
                return Err(BarrierError::Timeout);
            }
        }
    }

    /// Steps one input and carries out its effects.
    fn apply(&mut self, now: Instant, input: Input) -> Result<Option<Outcome>, BarrierError> {
        let fx = self.core.step(now, input);
        if fx.flush_stale {
            self.transport.flush_stale();
        }
        if let Some((req, copies)) = fx.send {
            let frame = req.encode();
            for _ in 0..copies {
                match self.transport.send(&frame) {
                    Ok(()) | Err(NetError::Timeout) => {} // best effort, like loss
                    Err(NetError::Closed) => return Err(BarrierError::Poisoned),
                }
            }
        }
        Ok(fx.outcome)
    }

    /// Drives the arrival in flight: `Evicted` if the session is no
    /// member, `Timeout` if it has nothing to wait for.
    fn await_arrival(&mut self, until: Until) -> Result<u64, BarrierError> {
        match (self.core.joined, self.core.pending) {
            (false, _) => Err(BarrierError::Evicted),
            (true, Some((Pending::Arrive, _))) => self.drive(None, until),
            (true, _) => Err(BarrierError::Timeout),
        }
    }

    /// Joins (Hello → Welcome), re-sending until welcomed. On success
    /// the client is positioned at the server's current episode — the
    /// join lands as a proxy arrival there, so joining can never wedge
    /// an in-flight episode.
    pub fn join(&mut self) -> Result<u64, BarrierError> {
        self.drive(Some(Input::Join { rejoin: false }), Until::Outcome)
    }

    /// Rejoins after an eviction. Identical to [`join`](Self::join) but
    /// counted (and traced) as a rejoin.
    pub fn rejoin(&mut self) -> Result<u64, BarrierError> {
        self.drive(Some(Input::Join { rejoin: true }), Until::Outcome)
    }

    /// Sends the arrival for the current episode without waiting for its
    /// release. Called again before the release, it re-sends the arrival
    /// (idempotent, a [`ClientStats::retries`]) with one more copy.
    pub fn send_arrive(&mut self) -> Result<(), BarrierError> {
        if !self.core.joined {
            return Err(BarrierError::Evicted);
        }
        self.drive(Some(Input::Arrive), Until::Sent).map(drop)
    }

    /// One bounded check for the release of the in-flight arrival, the
    /// non-blocking half a multiplexing driver needs: reads responses for
    /// at most `wait` (zero is one look) and never re-sends the arrival,
    /// though it answers what it reads (`Resume`, a re-arrival).
    /// `Err(Timeout)` means "not yet": re-send with
    /// [`send_arrive`](Self::send_arrive) on your own schedule.
    pub fn poll_release(&mut self, wait: Duration) -> Result<u64, BarrierError> {
        self.await_arrival(Until::Wait(wait, false))
    }

    /// Waits for the release of the episode whose arrival is in flight,
    /// re-sending the (idempotent) `Arrive` at each deadline. `Ok(ep)`:
    /// episode `ep` completed. `Err(Evicted)`: [`rejoin`](Self::rejoin).
    /// `Err(Timeout)`: attempts exhausted; calling again resumes safely.
    pub fn await_release(&mut self) -> Result<u64, BarrierError> {
        self.await_arrival(Until::Outcome)
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
        self.drive(Some(Input::Heartbeat), Until::Sent).map(drop)
    }

    /// Leaves the membership at the next boundary (best effort; loss of
    /// the frame degenerates to a lease eviction, which is equivalent).
    pub fn leave(&mut self) -> Result<(), BarrierError> {
        self.drive(Some(Input::Leave), Until::Sent).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Request, HOLD};
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
        c.core.joined = true; // skip Hello for this wire-level test
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
        c.core.joined = true;
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

    /// The protocol's own re-arrival carries the session's copy count:
    /// raised to three copies by two re-sends, the arrival sent again
    /// after a restarted server's `Resumed` goes out as three frames.
    #[test]
    fn a_resumed_rearrival_carries_the_sessions_copies() {
        fn frames(server: &mut impl Transport) -> Vec<Vec<u8>> {
            std::iter::from_fn(|| server.recv_timeout(Duration::ZERO).ok()).collect()
        }
        let (client_side, mut server_side) = loopback_pair();
        let mut c = BarrierClient::new(client_side, 4, ClientConfig::default());
        c.core.joined = true;
        for copies in [1, 2, 3] {
            c.send_arrive().unwrap();
            assert_eq!(frames(&mut server_side).len(), copies);
        }
        let challenge = Response::ResumeRequired {
            session: 4,
            episode: 0,
            inc: 1,
        };
        server_side.send(&challenge.encode()).unwrap();
        assert_eq!(c.poll_release(Duration::ZERO), Err(BarrierError::Timeout));
        let resume = frames(&mut server_side);
        assert_eq!(resume.len(), 1);
        assert!(matches!(
            Request::decode(&resume[0]).unwrap(),
            Request::Resume {
                session: 4,
                next_episode: 0,
                ..
            }
        ));
        let resumed = Response::Resumed {
            session: 4,
            episode: 0,
            inc: 1,
        };
        server_side.send(&resumed.encode()).unwrap();
        assert_eq!(c.poll_release(Duration::ZERO), Err(BarrierError::Timeout));
        let sent = frames(&mut server_side);
        assert_eq!(sent.len(), 3, "the re-arrival ignored the copy count");
        assert!(sent.iter().all(|f| *f == sent[0]), "copies differ");
        let req = Request::decode(&sent[0]).unwrap();
        assert!(matches!(
            req,
            Request::Arrive {
                session: 4,
                episode: 0,
                ..
            }
        ));
        assert_eq!(c.stats().resumes, 1);
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
        c.core.joined = true;
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
        c.core.joined = true;
        c.core.episode = 5;
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
        c.core.joined = true;
        c.core.episode = 7;
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
        c.core.joined = true;
        c.core.episode = 4;
        assert_eq!(c.arrive(), Err(BarrierError::Diverged));
        assert!(!c.is_joined());
        h.join().unwrap();
    }

    #[test]
    fn zero_wait_poll_looks_at_the_wire_once() {
        let (client_side, mut server_side) = loopback_pair();
        let mut c = BarrierClient::new(client_side, 2, ClientConfig::default());
        c.core.joined = true;
        c.core.episode = 1;
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
        c.core.joined = true;
        assert_eq!(c.arrive().unwrap(), 0);
        // The two duplicate Release{0} frames must not complete ep 1.
        assert_eq!(c.arrive().unwrap(), 1);
        assert_eq!(c.stats().episodes, 2);
        h.join().unwrap();
    }
}
