//! The served protocol as one seeded simulation, in virtual time.
//!
//! [`run`] steps the shipped cores: a [`ClientCore`] per session, a
//! [`ShardCore`] per shard (session `s` on shard `s % shards`, connection
//! `s`), and the root as [`release_ready`] over stamped reports, each
//! release stepped into every shard in index order as the router's
//! fan-out does. The wire plays a [`NetFaultPlan`] on streams `2·s`
//! (requests) and `2·s + 1` (responses): a `Drop` loses a copy, a
//! `Duplicate` delivers two, any other fault one, [`WIRE`] later. A
//! client reads its wire only while it has a request in flight.
//!
//! One event-driven clock jumps to the next delivery, client deadline,
//! shard tick or end of a think time. Nothing here starts a thread or
//! reads the clock: the caller passes `t0`, and the seed draws the ticks'
//! jitter and every stall. Every session joins at `t0`, thinks after
//! each join and release, then arrives, or goes quiet for good if it is
//! silent; an evicted one rejoins at once. A run ends once every live
//! session has crossed `episodes` past its last join and seen every
//! release.
//!
//! Three oracles hold on every run. A lost release (every copy dropped)
//! completes on the first `Overdue` that reaches its client before the
//! client re-sends. A lost arrival whose client answered an `Overdue`
//! with a copy that got through is counted before the client re-sends.
//! And [`Verdict::answers`] counts the frames a shard sends back to a
//! live session's fresh arrival for an episode it has not released.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use combar_chaos::{NetFault, NetFaultPlan};
use combar_rng::{Rng, SplitMix64};
use combar_rt::SupervisorConfig;

use crate::client_core::{ClientCore, Input, Outcome};
use crate::proto::{Request, Response, SessionId};
use crate::server::ServerConfig;
use crate::shard::{self, release_ready, Delta, ShardCore};

/// One-way wire latency.
const WIRE: Duration = Duration::from_micros(10);
/// The longest stall on top of a shard tick or a session's think time.
const STALL: Duration = Duration::from_millis(7);
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
    /// Cross in rounds, as the `served_*` workloads do: a session that has
    /// its release holds its next arrival until every live one has.
    pub(crate) lockstep: bool,
}

impl Scenario {
    /// `sessions` prompt sessions on one shard over a quiet wire, on a
    /// 200 µs tick, a 10 ms client timeout and a lease no run outlasts.
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
            lockstep: false,
        }
    }
}

/// What a root episode cost while in flight, its release included:
/// frames sent (each copy counted), the most copies of one, and the
/// repairs, the shard's `Overdue` rounds and clients' time-out re-sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Episode {
    pub(crate) frames: u32,
    pub(crate) most: u32,
    pub(crate) rounds: u32,
    pub(crate) timeouts: u32,
}

/// What a run did.
#[derive(Debug, Default)]
pub(crate) struct Verdict {
    /// Episodes the root released, and the virtual time it took.
    pub(crate) released: u64,
    pub(crate) elapsed: Duration,
    /// Per session: releases its client saw past its last join, and
    /// those its shard credited.
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
    /// Of every event's time and kind, frame, credit and roster change.
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
}

/// A session's client and what the run knows of it: its deadline
/// event, its last join, the next release it expects, whether its shard
/// holds it live, and what reached it while it had no request in flight
/// (all a flush can drop: the wire keeps order).
struct Peer {
    core: ClientCore,
    deadline: Option<Instant>,
    last_sent: Instant,
    joined: Option<u64>,
    expect: u64,
    dead: bool,
    member: bool,
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
    t0: Instant,
    now: Instant,
    rng: SplitMix64,
    /// Events by `(due, sequence)`.
    queue: BTreeMap<(Instant, u64), Event>,
    seq: u64,
    peers: Vec<Peer>,
    shards: Vec<ShardCore>,
    /// Each shard's stamped report: the frame it reported plus one.
    reported: Vec<u64>,
    /// The root's next episode, and each stream's next message index.
    episode: u64,
    next: Vec<u64>,
    /// Sessions holding their next arrival for a lockstep round.
    held: Vec<SessionId>,
    /// Whether a session crossed or died since the end was checked.
    check: bool,
    verdict: Verdict,
}

/// Runs `scenario` from `t0` under `seed`. Panics if a client sees a
/// release out of order or the run wedges.
pub(crate) fn run(t0: Instant, seed: u64, scenario: &Scenario) -> Verdict {
    let (n, shards) = (scenario.sessions.len(), scenario.shards);
    let cfg = ServerConfig {
        shards,
        tick: scenario.tick,
        lease: scenario.lease,
        ..ServerConfig::default()
    };
    let peer = |s| Peer {
        core: ClientCore::new(s, scenario.client_timeout),
        deadline: None,
        last_sent: t0,
        joined: None,
        expect: 0,
        dead: false,
        member: false,
        inbox: VecDeque::new(),
        lost_release: None,
        lost_arrival: None,
    };
    let mut sim = Sim {
        scenario,
        t0,
        now: t0,
        rng: SplitMix64::new(seed),
        queue: BTreeMap::new(),
        seq: 0,
        peers: (0..n as u64).map(peer).collect(),
        shards: (0..shards)
            .map(|i| ShardCore::new(i, &cfg, 0, 0, None, t0))
            .collect(),
        reported: vec![0; shards],
        episode: 0,
        next: vec![0; 2 * n],
        held: Vec::new(),
        check: false,
        verdict: Verdict {
            crossed: vec![0; n],
            credits: vec![0; n],
            episodes: vec![Episode::default()],
            ..Verdict::default()
        },
    };
    (0..shards).for_each(|shard| sim.schedule(t0, Event::Tick(shard)));
    (0..n as u64).for_each(|s| sim.client(s, Input::Join { rejoin: false }));
    while !(std::mem::take(&mut sim.check) && sim.finished()) {
        let ((at, seq), event) = sim.queue.pop_first().expect("the shards tick");
        assert!(at - t0 < HORIZON, "seed {seed}: wedged");
        sim.now = at;
        sim.mix(&[(at - t0).as_nanos() as u64, seq]);
        sim.event(event);
    }
    sim.verdict.released = sim.episode;
    sim.verdict.elapsed = sim.now - t0;
    sim.verdict
}

impl Sim<'_> {
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
        let mut peers = self.peers.iter().zip(&self.verdict.crossed);
        peers.all(|(p, &c)| p.dead || (c >= self.scenario.episodes && p.expect == self.episode))
    }

    /// Puts `copies` of a frame on `stream`, charged to root episode
    /// `ep`, mixing its `words` into the digest; how many get through.
    fn carry(&mut self, stream: u64, words: [u64; 3], copies: u32, ep: u64) -> u32 {
        let mut plans = self.scenario.plan.iter();
        let plan = plans.rfind(|p| p.0 <= self.episode).expect("a plan").1;
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
        self.mix(&words);
        through
    }

    fn send_down(&mut self, s: SessionId, resp: Response, copies: u32, ep: u64) -> u32 {
        let words = match resp {
            Response::Release { episode, .. } => [1, episode, 0],
            Response::Overdue { episode, round, .. } => [2, episode, round],
            Response::Welcome { episode, .. } => [3, episode, 0],
            _ => [4, 0, 0],
        };
        let through = self.carry(2 * s + 1, words, copies, ep);
        if through > 0 {
            self.schedule(self.now + WIRE, Event::Down(s, resp, through));
        }
        through
    }

    fn event(&mut self, event: Event) {
        match event {
            Event::Up(req, copies, fresh) => {
                let (s, i) = (req.session(), req.session() as usize);
                let shard = i % self.shards.len();
                let arriving = match req {
                    Request::Arrive { episode, .. } => Some(episode),
                    _ => None,
                };
                self.mix(&[1, s]);
                for _ in 0..copies {
                    let core = &self.shards[shard];
                    let unreleased = arriving.is_some_and(|ep| ep >= core.frame);
                    let (arrived, live) = (core.arrived, self.peers[i].member);
                    let frames = self.shard(shard, shard::Input::Request(s, req, false));
                    self.verdict.answers += u64::from(fresh && live && unreleased) * frames;
                    let counted = self.shards[shard].arrived > arrived;
                    let peer = &mut self.peers[i];
                    let lost = peer
                        .lost_arrival
                        .filter(|l| counted && arriving == Some(l.0));
                    if let Some((ep, at, answered)) = lost {
                        let repaired = peer.core.stats.retries == at;
                        assert!(repaired || !answered, "session {s} arriving for {ep}");
                        self.verdict.by_nack += u64::from(answered);
                        peer.lost_arrival = None;
                    }
                    self.root();
                }
            }
            Event::Down(s, resp, copies) => {
                self.mix(&[2, s]);
                let inbox = &mut self.peers[s as usize].inbox;
                (0..copies).for_each(|_| inbox.push_back(resp));
                self.read(s);
            }
            Event::Tick(shard) => {
                self.mix(&[3, shard as u64]);
                self.shard(shard, shard::Input::Tick(false));
                self.root();
                let tick = self.scenario.tick;
                let stalled = self.rng.next_f64() < self.scenario.shard_stall;
                let jitter = if stalled { STALL } else { tick };
                let at = self.now + tick + jitter.mul_f64(self.rng.next_f64());
                self.schedule(at, Event::Tick(shard));
            }
            Event::Deadline(s) => {
                self.mix(&[4, s]);
                self.peers[s as usize].deadline = None;
                self.client(s, Input::Tick);
            }
            Event::Turn(s) => {
                self.mix(&[5, s]);
                self.turn(s);
            }
        }
    }

    /// Client `s` reads its inbox while it has a request in flight.
    fn read(&mut self, s: SessionId) {
        while self.peers[s as usize].core.pending.is_some() {
            let Some(resp) = self.peers[s as usize].inbox.pop_front() else {
                return;
            };
            self.client(s, Input::Response(resp));
        }
    }

    /// Session `s` thinks after a join or a release, then takes its turn;
    /// in lockstep, unless it is behind, it holds it for the round.
    fn think(&mut self, s: SessionId) {
        if self.scenario.lockstep && self.peers[s as usize].expect == self.episode {
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
        let (i, ep) = (s as usize, self.episode);
        let peer = &mut self.peers[i];
        let before = peer.core.stats.retries;
        let fx = peer.core.step(self.now, input);
        let retries = peer.core.stats.retries;
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
            peer.last_sent = self.now;
            self.verdict.episodes[ep as usize].timeouts += u32::from(retries > before);
            let words = match req {
                Request::Arrive { episode, seq, .. } => [1, episode, seq],
                _ => [0, 0, req.session()],
            };
            let through = self.carry(2 * s, words, copies, ep);
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
                self.verdict.credits[i] = 0;
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
                self.check = true;
                self.think(s);
            }
            Some(Outcome::Evicted) => {
                // What was lost belongs to the old membership.
                (peer.lost_release, peer.lost_arrival) = (None, None);
                self.client(s, Input::Join { rejoin: true });
            }
            Some(Outcome::Diverged) => panic!("session {s} diverged without a restart"),
        }
        self.read(s);
    }

    /// Steps `input` into `shard` and carries out its effects, but for
    /// the root's: its report is only stamped. Returns how many frames
    /// the step sent back, releases aside.
    fn shard(&mut self, shard: usize, input: shard::Input) -> u64 {
        let fx = self.shards[shard].step(self.now, input);
        for (s, delta) in fx.roster {
            let peer = &mut self.peers[s as usize];
            peer.member = delta.admits();
            let quiet = self.now - peer.last_sent;
            self.verdict
                .roster
                .push((self.now - self.t0, s, delta, quiet));
            let kind = match delta {
                Delta::Hello(rejoin) => u64::from(rejoin),
                Delta::Resume => 2,
                Delta::Leave => 3,
                Delta::Evict => 4,
            };
            self.mix(&[s, kind]);
        }
        if let Some(episode) = fx.release {
            for s in fx.credits {
                let joined = self.peers[s as usize].joined;
                let past_join = joined.is_some_and(|joined| joined < episode);
                self.verdict.credits[s as usize] += u64::from(past_join);
                self.mix(&[10, s, episode]);
            }
            for (conn, copies) in fx.fanout {
                let release = Response::Release { episode, inc: 0 };
                if self.send_down(conn, release, copies, episode) == 0 {
                    let retries = self.peers[conn as usize].core.stats.retries;
                    self.peers[conn as usize].lost_release = Some((episode, retries));
                }
            }
        }
        for (k, &(conn, resp)) in fx.frames.iter().enumerate() {
            // A round goes out as its copies.
            let round = matches!(resp, Response::Overdue { .. });
            if round && (k == 0 || fx.frames[k - 1] != (conn, resp)) {
                self.verdict.episodes[self.episode as usize].rounds += 1;
            }
            self.send_down(conn, resp, 1, self.episode);
        }
        if let Some(frame) = fx.report {
            self.reported[shard] = frame + 1;
        }
        fx.frames.len() as u64
    }

    /// The root: releases each episode the reports complete, stepping it
    /// into every shard in index order.
    fn root(&mut self) {
        loop {
            let reports = self.shards.iter().zip(&self.reported);
            let reports = reports.map(|(shard, &report)| (true, report, shard.live));
            if !release_ready(self.episode, reports, false, false, false) {
                return;
            }
            self.episode += 1;
            self.verdict.episodes.push(Episode::default());
            for shard in 0..self.shards.len() {
                self.shard(shard, shard::Input::Release(self.episode - 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_chaos::NetChaosConfig;

    /// A seed and a scenario make the run: twice over, from two starting
    /// times, every event, frame, credit and membership change is the
    /// same; another seed moves the ticks and stalls, and the digest.
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

    #[test]
    fn the_simulation_starts_no_thread_and_reads_no_clock() {
        let banned = ["thread::", "sleep(", "Instant::now"];
        crate::shard::tests::assert_sans_io(include_str!("simnet.rs"), &banned);
    }
}
