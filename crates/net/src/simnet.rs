//! The served protocol as one seeded simulation, in virtual time.
//!
//! [`run`] steps the shipped cores as the router does: a [`ClientCore`]
//! per session, a [`ShardCore`] per shard (session `s` on the first live
//! shard from `s % shards`, connection `s`) and one [`RootCore`]. The root
//! takes each shard step's effects that carry anything for it; each
//! release it wins is appended to a `Journal::memory()` and stepped into
//! every live shard in index order; the shards beat and poll its lease at
//! their ticks. A shard may stall for good, and a server killed at a
//! scripted epoch restarts from its recovered journal [`RESTART`] later.
//! The wire plays a [`NetFaultPlan`] on streams `2·s` (requests) and
//! `2·s + 1` (responses): a `Drop` loses a copy, a `Duplicate` delivers
//! two, any other fault one, [`WIRE`] later.
//!
//! One event-driven clock jumps from event to event. Nothing here starts
//! a thread or reads the clock: the caller passes `t0`, and the seed draws
//! the ticks' jitter and every stall. Every session joins at `t0`, thinks
//! after each join and release, then arrives, or goes quiet for good if
//! it is silent; an evicted one rejoins at once, and a client reads its
//! wire only while it has a request in flight. A run ends once every live
//! session has crossed `episodes` past its last join and seen every
//! release.
//!
//! Every run asserts: a lost release (every copy dropped) completes on
//! the first `Overdue` to reach its client before the client re-sends; a
//! lost arrival whose client answered an `Overdue` is counted before the
//! client re-sends; no `Release` is sent before the ledger credits it; the
//! journal holds every release a client saw, at each restart and at the
//! end; and each session's ledger credits past its join epoch equal its
//! crossings. [`Verdict::answers`] counts the frames a shard sends back to
//! a live session's fresh arrival for an episode it has not released.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use combar_chaos::{NetFault, NetFaultPlan};
use combar_rng::{Rng, SplitMix64};
use combar_rt::SupervisorConfig;

use crate::client_core::{ClientCore, Input, Outcome};
use crate::journal::Journal;
use crate::proto::{Request, Response, SessionId};
use crate::recover::{recover, RecoveredState};
use crate::root::RootCore;
use crate::server::{ServerConfig, ServerCrash};
use crate::shard::{self, Delta, ShardCore};

/// One-way wire latency.
const WIRE: Duration = Duration::from_micros(10);
/// The longest stall on top of a shard tick or a session's think time.
const STALL: Duration = Duration::from_millis(7);
/// How long a crashed server stays down.
const RESTART: Duration = Duration::from_millis(20);
/// Virtual time after which a run that has not ended is wedged.
const HORIZON: Duration = Duration::from_secs(600);

/// A session: its think time after each join and release, the odds, at
/// each turn, of a stall on top, and whether it says nothing after its
/// join.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Session {
    pub(crate) think: Duration,
    pub(crate) stall: f64,
    pub(crate) silent: bool,
}

/// What [`run`] simulates.
#[derive(Debug, Clone)]
pub(crate) struct Scenario {
    pub(crate) sessions: Vec<Session>,
    pub(crate) shards: usize,
    /// Episodes each live session crosses past its last join.
    pub(crate) episodes: u64,
    /// The wire's fault plan from each root episode on, in order.
    pub(crate) plan: Vec<(u64, NetFaultPlan)>,
    /// A shard ticks a tick after the last plus a jitter of up to a
    /// tick, or at `shard_stall` odds a stall.
    pub(crate) tick: Duration,
    pub(crate) shard_stall: f64,
    pub(crate) client_timeout: Duration,
    pub(crate) lease: SupervisorConfig,
    /// A shard that stops for good at a time after `t0`.
    pub(crate) stalled: Option<(usize, Duration)>,
    pub(crate) crash: Option<ServerCrash>,
    /// Cross in rounds, as the `served_*` workloads do: a session that has
    /// its release holds its next arrival until every live one has.
    pub(crate) lockstep: bool,
}

impl Scenario {
    /// `sessions` prompt sessions on one shard over a quiet wire, on a
    /// 200 µs tick, a 10 ms client timeout, a lease no run outlasts and
    /// the default root lease.
    pub(crate) fn new(sessions: usize, episodes: u64) -> Self {
        Self {
            sessions: vec![Session::default(); sessions],
            shards: 1,
            episodes,
            plan: vec![(0, NetFaultPlan::quiet(0))],
            tick: Duration::from_micros(200),
            shard_stall: 0.0,
            client_timeout: Duration::from_millis(10),
            lease: SupervisorConfig {
                min_grace: Duration::from_secs(3_600),
                ..ServerConfig::default().lease
            },
            stalled: None,
            crash: None,
            lockstep: false,
        }
    }
}

/// What a root episode cost while in flight, its release included:
/// frames sent (each copy counted), the most copies of one, and the
/// repairs, the shard's `Overdue` rounds and clients' time-out re-sends;
/// and when it was released.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Episode {
    pub(crate) frames: u32,
    pub(crate) most: u32,
    pub(crate) rounds: u32,
    pub(crate) timeouts: u32,
    pub(crate) at: Duration,
}

/// What a run did.
#[derive(Debug, Default)]
pub(crate) struct Verdict {
    /// Episodes the root released, and the virtual time it took.
    pub(crate) released: u64,
    pub(crate) elapsed: Duration,
    /// Per session: releases its client saw past its last join, and the
    /// completions the ledger credited it since it crossed its join epoch.
    pub(crate) crossed: Vec<u64>,
    pub(crate) credits: Vec<u64>,
    /// Membership changes: when, whose, which, and the session's silence.
    pub(crate) roster: Vec<(Duration, SessionId, Delta, Duration)>,
    /// By root episode.
    pub(crate) episodes: Vec<Episode>,
    /// Lost releases an `Overdue` completed, and lost arrivals an answer
    /// to one got counted, before the client timed out.
    pub(crate) by_shard: u64,
    pub(crate) by_nack: u64,
    /// Frames the shards sent back to a live session's fresh arrival for
    /// an episode they had not released. (A join epoch released by proxy
    /// re-acks the late arrival for it, by design.)
    pub(crate) answers: u64,
    /// Of every event's time and kind and each frame's copies.
    pub(crate) digest: u64,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Copies of a request, and whether it is a fresh arrival.
    Up(Request, u32, bool),
    Down(SessionId, Response, u32),
    Tick(usize),
    Deadline(SessionId),
    /// The end of a think time.
    Turn(SessionId),
    Restart,
}

/// What the run knows of a session's client: its deadline event, when
/// it last sent (past `t0`), its last join, the next release it expects,
/// the ledger's credits when it crossed its join epoch, the credits its
/// shards gave it (since the last start, from the ledger the server
/// started with), and what reached it while it had no request in
/// flight (all a flush can drop: the wire keeps order).
#[derive(Clone, Default)]
struct Peer {
    deadline: Option<Instant>,
    last_sent: Duration,
    joined: Option<u64>,
    expect: u64,
    base: u64,
    owed: u64,
    dead: bool,
    inbox: VecDeque<Response>,
    /// A release whose every copy was lost, and the client's time-out
    /// re-sends then.
    lost_release: Option<(u64, u64)>,
    /// The same for an arrival, and whether an answer to an `Overdue`
    /// got through since with no time-out re-send.
    lost_arrival: Option<(u64, u64, bool)>,
}

struct Sim<'a> {
    scenario: &'a Scenario,
    cfg: ServerConfig,
    t0: Instant,
    now: Instant,
    rng: SplitMix64,
    /// Events by `(due, sequence)`.
    queue: BTreeMap<(Instant, u64), Event>,
    seq: u64,
    clients: Vec<ClientCore>,
    peers: Vec<Peer>,
    shards: Vec<ShardCore>,
    root: RootCore,
    journal: Arc<Journal>,
    /// Each stream's next message index.
    next: Vec<u64>,
    /// Sessions holding their next arrival for a lockstep round.
    held: Vec<SessionId>,
    /// Whether a session crossed or died since the end was checked.
    check: bool,
    verdict: Verdict,
}

/// Runs `scenario` from `t0` under `seed`. Panics if a client sees a
/// release out of order, an oracle fails or the run wedges.
pub(crate) fn run(t0: Instant, seed: u64, scenario: &Scenario) -> Verdict {
    let n = scenario.sessions.len();
    let cfg = ServerConfig {
        shards: scenario.shards,
        tick: scenario.tick,
        lease: scenario.lease,
        snapshot_every: Some(256),
        ..ServerConfig::default()
    };
    let client = |s| ClientCore::new(s, scenario.client_timeout);
    let mut sim = Sim {
        scenario,
        root: RootCore::new(&cfg, 0, None, t0),
        cfg,
        t0,
        now: t0,
        rng: SplitMix64::new(seed),
        queue: BTreeMap::new(),
        seq: 0,
        clients: (0..n as u64).map(client).collect(),
        peers: vec![Peer::default(); n],
        shards: Vec::new(),
        journal: Journal::memory(),
        next: vec![0; 2 * n],
        held: Vec::new(),
        check: false,
        verdict: Verdict {
            crossed: vec![0; n],
            episodes: vec![Episode::default()],
            ..Verdict::default()
        },
    };
    sim.start(None);
    (0..n as u64).for_each(|s| sim.client(s, Input::Join { rejoin: false }));
    while !(std::mem::take(&mut sim.check) && sim.finished()) {
        let ((at, seq), event) = sim.queue.pop_first().expect("the shards tick");
        assert!(at - t0 < HORIZON, "seed {seed}: wedged");
        sim.now = at;
        sim.mix(&[(at - t0).as_nanos() as u64, seq]);
        sim.event(event);
    }
    let state = sim.journaled();
    assert_eq!(state.epoch, sim.root.episode, "seed {seed}: unjournaled");
    for (s, peer) in (0..).zip(&sim.peers) {
        let (done, replayed) = (sim.completed(s), state.sessions.get(&s));
        let replayed = replayed.map_or(0, |r| r.stats.completed);
        assert_eq!(replayed, done, "seed {seed}: session {s}'s ledger");
        sim.verdict.credits.push(done - peer.base);
    }
    let verdict = &mut sim.verdict;
    assert_eq!(verdict.credits, verdict.crossed, "seed {seed}: credits");
    (verdict.released, verdict.elapsed) = (sim.root.episode, sim.now - t0);
    sim.verdict
}

impl Sim<'_> {
    /// Starts the server, from `state` if it restarts: a new incarnation
    /// of the root and of every shard, each shard ticking from now.
    fn start(&mut self, state: Option<&RecoveredState>) {
        let inc = self
            .journal
            .bump_incarnation()
            .expect("one server at a time");
        self.root = RootCore::new(&self.cfg, inc, state, self.now);
        let (frame, deadline) = (self.root.episode, self.root.recovery_deadline);
        let shard = |i| ShardCore::new(i, &self.cfg, inc, frame, deadline, self.now);
        self.shards = (0..self.cfg.shards).map(shard).collect();
        (0..self.cfg.shards).for_each(|i| self.schedule(self.now, Event::Tick(i)));
        for s in 0..self.peers.len() {
            self.peers[s].owed = self.completed(s as u64);
        }
    }

    /// Episodes the ledger credits session `s` with.
    fn completed(&self, s: SessionId) -> u64 {
        self.root.stats.get(&s).map_or(0, |st| st.completed)
    }

    /// The journal's replay, which holds every release a client saw.
    fn journaled(&self) -> RecoveredState {
        let state = recover(&self.journal).expect("the journal replays");
        for (s, peer) in self.peers.iter().enumerate() {
            let seen = peer.expect.saturating_sub(1);
            assert!(
                peer.expect <= state.epoch,
                "session {s} saw {seen}, not journaled"
            );
        }
        state
    }

    fn schedule(&mut self, at: Instant, event: Event) {
        self.queue.insert((at, self.seq), event);
        self.seq += 1;
    }

    fn mix(&mut self, words: &[u64]) {
        for &word in words {
            let digest = self.verdict.digest.rotate_left(5) ^ word;
            self.verdict.digest = digest.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finished(&self) -> bool {
        let episode = self.root.episode;
        let mut peers = self.peers.iter().zip(&self.verdict.crossed);
        peers.all(|(p, &c)| p.dead || (c >= self.scenario.episodes && p.expect == episode))
    }

    /// Whether `shard` serves: live at the root, not stalled, and its
    /// server up.
    fn serves(&self, shard: usize) -> bool {
        let stalled = self.scenario.stalled;
        let stalled = stalled.is_some_and(|(i, at)| i == shard && self.now - self.t0 >= at);
        self.root.leaves[shard].alive && !stalled && !self.root.halted
    }

    /// Puts `copies` of a frame on `stream`, charged to root episode
    /// `ep`; how many get through.
    fn carry(&mut self, stream: u64, copies: u32, ep: u64) -> u32 {
        let mut plans = self.scenario.plan.iter();
        let episode = self.root.episode;
        let plan = plans.rfind(|p| p.0 <= episode).expect("a plan").1;
        let mut through = 0;
        for _ in 0..copies {
            let idx = self.next[stream as usize];
            self.next[stream as usize] += 1;
            through += match plan.fault(stream, idx) {
                Some(NetFault::Drop) => 0,
                Some(NetFault::Duplicate) => 2,
                _ => 1,
            };
        }
        let cost = &mut self.verdict.episodes[ep as usize];
        cost.frames += copies;
        cost.most = cost.most.max(copies);
        self.mix(&[stream, u64::from(copies), u64::from(through)]);
        through
    }

    fn send_down(&mut self, s: SessionId, resp: Response, copies: u32, ep: u64) -> u32 {
        let through = self.carry(2 * s + 1, copies, ep);
        if through > 0 {
            self.schedule(self.now + WIRE, Event::Down(s, resp, through));
        }
        through
    }

    fn event(&mut self, event: Event) {
        match event {
            Event::Up(req, copies, fresh) => {
                let (s, i) = (req.session(), req.session() as usize);
                let arriving = match req {
                    Request::Arrive { episode, .. } => Some(episode),
                    _ => None,
                };
                self.mix(&[1, s]);
                for _ in 0..copies {
                    // The first live shard from its home, as the
                    // router's sticky routes come out; a request to a
                    // stalled shard or a crashed server is lost.
                    let m = self.shards.len();
                    let home = (0..m)
                        .map(|k| (i + k) % m)
                        .find(|&k| self.root.leaves[k].alive);
                    let Some(shard) = home.filter(|&k| self.serves(k)) else {
                        return;
                    };
                    let core = &self.shards[shard];
                    let unreleased = arriving.is_some_and(|ep| ep >= core.frame);
                    // Live: on a shard in the root's roster.
                    let live = self.root.roster.get(&s).is_some_and(Option::is_some);
                    let arrived = core.arrived;
                    let input = shard::Input::Request(s, req, self.root.recovered.contains(&s));
                    let (frames, won) = self.shard(shard, input);
                    self.verdict.answers += u64::from(fresh && live && unreleased) * frames;
                    let counted = self.shards[shard].arrived > arrived;
                    let peer = &mut self.peers[i];
                    let lost = peer
                        .lost_arrival
                        .filter(|l| counted && arriving == Some(l.0));
                    if let Some((ep, at, answered)) = lost {
                        let repaired = self.clients[i].stats.retries == at;
                        assert!(repaired || !answered, "session {s} arriving for {ep}");
                        self.verdict.by_nack += u64::from(answered);
                        peer.lost_arrival = None;
                    }
                    self.fan_out(won);
                }
            }
            Event::Down(s, resp, copies) => {
                self.mix(&[2, s]);
                let inbox = &mut self.peers[s as usize].inbox;
                (0..copies).for_each(|_| inbox.push_back(resp));
                self.read(s);
            }
            Event::Tick(shard) if self.serves(shard) => {
                self.mix(&[3, shard as u64]);
                let recovering = self.root.recovering();
                let (_, mut won) = self.shard(shard, shard::Input::Tick(recovering));
                // Each shard the lease declares dead is folded out, its
                // sessions told `Evicted`; the fold may complete the
                // episode.
                for dead in self.root.lease(shard, self.now) {
                    let ep = self.root.episode;
                    for (s, evicted) in self.root.declare_dead(dead as usize) {
                        self.member(s, Delta::Evict);
                        self.send_down(s, evicted, 1, ep);
                    }
                    won = won.or(self.win());
                }
                self.fan_out(won);
                let tick = self.scenario.tick;
                let stalled = self.rng.next_f64() < self.scenario.shard_stall;
                let jitter = if stalled { STALL } else { tick };
                let at = self.now + tick + jitter.mul_f64(self.rng.next_f64());
                self.schedule(at, Event::Tick(shard));
            }
            // A stalled shard's or a crashed server's ticker exits.
            Event::Tick(_) => {}
            Event::Deadline(s) => {
                self.mix(&[4, s]);
                self.peers[s as usize].deadline = None;
                self.client(s, Input::Tick);
            }
            Event::Turn(s) => {
                self.mix(&[5, s]);
                self.turn(s);
            }
            Event::Restart => {
                self.mix(&[6]);
                self.queue.retain(|_, e| !matches!(e, Event::Tick(_)));
                let state = self.journaled();
                self.start(Some(&state));
            }
        }
    }

    /// Client `s` reads its inbox while it has a request in flight.
    fn read(&mut self, s: SessionId) {
        while self.clients[s as usize].pending.is_some() {
            let Some(resp) = self.peers[s as usize].inbox.pop_front() else {
                return;
            };
            self.client(s, Input::Response(resp));
        }
    }

    /// Session `s` thinks after a join or a release, then takes its turn;
    /// in lockstep, unless it is behind, it holds it for the round.
    fn think(&mut self, s: SessionId) {
        if self.scenario.lockstep && self.peers[s as usize].expect == self.root.episode {
            self.held.push(s);
            let dead = self.peers.iter().filter(|p| p.dead).count();
            if self.held.len() + dead == self.peers.len() {
                let mut round = std::mem::take(&mut self.held);
                round.sort_unstable();
                round.into_iter().for_each(|s| self.turn(s));
            }
            return;
        }
        let session = self.scenario.sessions[s as usize];
        let mut think = session.think;
        if session.stall > 0.0 && self.rng.next_f64() < session.stall {
            think += STALL.mul_f64(self.rng.next_f64());
        }
        if think.is_zero() {
            self.turn(s);
        } else {
            self.schedule(self.now + think, Event::Turn(s));
        }
    }

    /// Session `s` arrives, or goes quiet if it is silent.
    fn turn(&mut self, s: SessionId) {
        if self.scenario.sessions[s as usize].silent {
            self.peers[s as usize].dead = true;
            self.check = true;
        } else {
            self.client(s, Input::Arrive);
        }
    }

    /// Steps `input` into client `s` and carries out its effects.
    fn client(&mut self, s: SessionId, input: Input) {
        let (i, ep) = (s as usize, self.root.episode);
        let client = &mut self.clients[i];
        let before = client.stats.retries;
        let fx = client.step(self.now, input);
        let retries = client.stats.retries;
        let peer = &mut self.peers[i];
        let overdue = match input {
            Input::Response(Response::Overdue { episode, .. }) => Some(episode),
            _ => None,
        };
        // An `Overdue` that reaches a client whose release was lost, with
        // no time-out re-send since, is that release.
        if let Some((lost, at)) = peer.lost_release {
            let reached = overdue.is_some_and(|ep| ep >= lost) && before == at;
            let done = fx.outcome == Some(Outcome::Released(lost));
            assert!(done || !reached, "session {s}: release {lost} not repaired");
        }
        if fx.flush_stale {
            peer.inbox.clear();
        }
        if let Some((req, copies)) = fx.send {
            peer.last_sent = self.now - self.t0;
            self.verdict.episodes[ep as usize].timeouts += u32::from(retries > before);
            let through = self.carry(2 * s, copies, ep);
            if let Request::Arrive { episode, .. } = req {
                let lost = &mut self.peers[i].lost_arrival;
                match lost {
                    None if through == 0 => *lost = Some((episode, retries, false)),
                    Some((ep, at, answered)) if *ep == episode && *at == retries => {
                        *answered |= through > 0 && overdue.is_some();
                    }
                    _ => {}
                }
            }
            if through > 0 {
                let fresh = input == Input::Arrive;
                self.schedule(self.now + WIRE, Event::Up(req, through, fresh));
            }
        }
        // An earlier deadline event re-arms for a later deadline.
        let armed = &mut self.peers[i].deadline;
        if let Some(due) = fx.deadline.filter(|&due| armed.is_none_or(|at| at > due)) {
            *armed = Some(due);
            self.schedule(due, Event::Deadline(s));
        }
        let peer = &mut self.peers[i];
        match fx.outcome {
            None => {}
            Some(Outcome::Joined(ep)) => {
                (peer.joined, peer.expect) = (Some(ep), ep);
                self.verdict.crossed[i] = 0;
                self.think(s);
            }
            Some(Outcome::Released(ep)) => {
                assert_eq!(ep, peer.expect, "session {s} crossed out of order");
                peer.expect = ep + 1;
                let past_join = peer.joined.is_some_and(|joined| joined < ep);
                self.verdict.crossed[i] += u64::from(past_join);
                if let Some((_, at)) = peer.lost_release.take() {
                    self.verdict.by_shard += u64::from(retries == at);
                }
                // An arrival never counted, for an episode that released:
                // a join epoch's, released by proxy.
                peer.lost_arrival = None;
                if peer.joined == Some(ep) {
                    self.peers[i].base = self.completed(s);
                }
                self.check = true;
                self.think(s);
            }
            Some(Outcome::Evicted) => {
                // What was lost belongs to the old membership.
                (peer.lost_release, peer.lost_arrival) = (None, None);
                self.client(s, Input::Join { rejoin: true });
            }
            Some(Outcome::Diverged) => panic!("session {s} diverged"),
        }
        self.read(s);
    }

    /// Records session `s`'s membership change.
    fn member(&mut self, s: SessionId, delta: Delta) {
        let at = self.now - self.t0;
        let quiet = at - self.peers[s as usize].last_sent;
        self.verdict.roster.push((at, s, delta, quiet));
    }

    /// Steps `input` into `shard`, hands its effects to the root and
    /// checks the release if they carry anything for it, as the router's
    /// driver does, then sends what the root handed back. Returns how
    /// many frames the step sent back, releases aside, and the episode
    /// it won.
    fn shard(&mut self, shard: usize, input: shard::Input) -> (u64, Option<u64>) {
        let fx = self.shards[shard].step(self.now, input);
        fx.roster
            .iter()
            .for_each(|&(s, delta)| self.member(s, delta));
        // The ledger must show each credit before its `Release` goes out.
        fx.credits
            .iter()
            .for_each(|&s| self.peers[s as usize].owed += 1);
        let (core, ep) = (&self.shards[shard], self.root.episode);
        let (sends, won) = if fx.for_root() {
            (
                self.root.apply(shard, core.frame, core.live, fx),
                self.win(),
            )
        } else {
            (fx, None)
        };
        if let Some(episode) = sends.release {
            let inc = self.root.inc;
            for (conn, copies) in sends.fanout {
                let credited = self.completed(conn) >= self.peers[conn as usize].owed;
                assert!(credited, "Release{{{episode}}} to {conn} before its credit");
                let release = Response::Release { episode, inc };
                if self.send_down(conn, release, copies, episode) == 0 {
                    let retries = self.clients[conn as usize].stats.retries;
                    self.peers[conn as usize].lost_release = Some((episode, retries));
                }
            }
        }
        for (k, &(conn, resp)) in sends.frames.iter().enumerate() {
            // A round goes out as its copies.
            let round = matches!(resp, Response::Overdue { .. });
            if round && (k == 0 || sends.frames[k - 1] != (conn, resp)) {
                self.verdict.episodes[ep as usize].rounds += 1;
            }
            self.send_down(conn, resp, 1, ep);
        }
        (sends.frames.len() as u64, won)
    }

    /// The root's release check; a won episode's batch is appended to
    /// the journal, and compacted when a snapshot is due, before the
    /// release goes anywhere.
    fn win(&mut self) -> Option<u64> {
        let release = self.root.release()?;
        let inc = self.root.inc;
        let journal = &self.journal;
        journal
            .append_batch(inc, &release.batch)
            .expect("one server at a time");
        if let Some(snapshot) = &release.snapshot {
            journal
                .compact(inc, snapshot)
                .expect("one server at a time");
        }
        self.verdict.episodes[release.episode as usize].at = self.now - self.t0;
        self.verdict.episodes.push(Episode::default());
        Some(release.episode)
    }

    /// Fans out each episode won as `Router::fan_out` does: into every
    /// serving shard in index order, any of whose steps may win the
    /// next; at the scripted crash epoch, into the first serving shard
    /// at most, and then the server dies, to restart [`RESTART`] later.
    fn fan_out(&mut self, mut won: Option<u64>) {
        while let Some(ep) = won.take() {
            let crash = self.scenario.crash.filter(|c| c.at_epoch == ep);
            let reach = crash.map_or(self.shards.len(), |c| usize::from(c.mid_broadcast));
            let serving: Vec<_> = (0..self.shards.len()).filter(|&k| self.serves(k)).collect();
            for &shard in serving.iter().take(reach) {
                won = won.or(self.shard(shard, shard::Input::Release(ep)).1);
            }
            if crash.is_some() {
                self.root.halt();
                self.schedule(self.now + RESTART, Event::Restart);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_chaos::NetChaosConfig;

    /// A seed and a scenario make the run: twice over, from two starting
    /// times, every event, frame copy, episode cost and membership change
    /// is the same; another seed moves the ticks and stalls, and the
    /// digest.
    #[test]
    fn the_same_seed_and_scenario_replay_the_same_run() {
        let mut scenario = Scenario::new(4, 200);
        scenario.shards = 2;
        scenario.plan[0].1 = NetFaultPlan::new(NetChaosConfig::lossy(7, 0.05));
        scenario.shard_stall = 0.01;
        scenario.sessions[1].think = Duration::from_micros(300);
        scenario.sessions[2].stall = 0.1;
        let t0 = Instant::now();
        let starts = [(t0, 7), (t0 + Duration::from_secs(1), 7), (t0, 8)];
        let [a, b, c] = starts.map(|(t0, seed)| run(t0, seed, &scenario));
        let replay = |run: &Verdict| (run.digest, run.episodes.clone(), run.roster.clone());
        assert_eq!(replay(&a), replay(&b));
        assert_ne!(a.digest, c.digest);
        for run in [a, b, c] {
            assert!(run.crossed.iter().all(|&c| c >= 200), "{:?}", run.crossed);
            assert_eq!(run.credits, run.crossed);
        }
    }

    /// A stalled shard is folded out by the root lease: eight sessions
    /// on four shards over a 5 % lossy wire, and shard 2 stops 20 ms in.
    /// On seeds 7 and 23 its sessions 2 and 6, and only they, are
    /// evicted, once each; they rejoin on live shards, and everyone
    /// crosses 30 episodes past its last join.
    #[test]
    fn a_stalled_shard_is_folded_out_by_the_root_lease() {
        let mut scenario = Scenario::new(8, 30);
        scenario.shards = 4;
        scenario.plan[0].1 = NetFaultPlan::new(NetChaosConfig::lossy(7, 0.05));
        scenario.stalled = Some((2, Duration::from_millis(20)));
        for seed in [7, 23] {
            let run = run(Instant::now(), seed, &scenario);
            let evicted = run.roster.iter().filter(|c| c.2 == Delta::Evict);
            assert_eq!(
                evicted.map(|c| c.1).collect::<Vec<_>>(),
                [2, 6],
                "seed {seed}"
            );
            let joins = run.roster.iter().filter(|c| matches!(c.2, Delta::Hello(_)));
            assert_eq!(joins.count(), 10, "seed {seed}");
            assert!(run.crossed.iter().all(|&c| c >= 30), "seed {seed}");
        }
    }

    /// Four sessions on two shards over a 5 % lossy wire, and the server
    /// killed at epoch 10: its append is durable, and its broadcast dies
    /// wholly or, mid-broadcast, after the first shard. It restarts from
    /// its journal, which holds every release a client saw (`run` checks
    /// at the restart and at the end). Every session proves itself with
    /// `Resume`, nobody is evicted or rejoins, and all cross 30 episodes.
    fn killed_at_epoch_10(mid_broadcast: bool) {
        let mut scenario = Scenario::new(4, 30);
        scenario.shards = 2;
        scenario.plan[0].1 = NetFaultPlan::new(NetChaosConfig::lossy(7, 0.05));
        scenario.crash = Some(ServerCrash {
            at_epoch: 10,
            mid_broadcast,
        });
        for seed in [7, 23] {
            let run = run(Instant::now(), seed, &scenario);
            let changes = run.roster.iter().map(|c| format!("{:?} ", c.2));
            let roster = "Hello(false) ".repeat(4) + &"Resume ".repeat(4);
            assert_eq!(changes.collect::<String>(), roster, "seed {seed}");
            assert!(run.crossed.iter().all(|&c| c >= 30), "seed {seed}");
        }
    }

    #[test]
    fn a_server_killed_at_an_epoch_restarts_and_its_sessions_resume() {
        killed_at_epoch_10(false);
    }

    #[test]
    fn a_server_killed_mid_broadcast_restarts_and_its_sessions_resume() {
        killed_at_epoch_10(true);
    }

    #[test]
    fn the_simulation_starts_no_thread_and_reads_no_clock() {
        let banned = ["thread::", "sleep(", "Instant::now"];
        crate::shard::tests::assert_sans_io(include_str!("simnet.rs"), &banned);
    }
}
