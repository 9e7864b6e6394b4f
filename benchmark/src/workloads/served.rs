//! `served_clean` and `served_lossy`: 16 sessions against a journaled
//! one-shard `EpochServer`, all driven by **one** benchmark thread.
//!
//! One driver thread and one shard thread are the host's two cores, so
//! the numbers are the service's and not the scheduler's. The driver is
//! the multiplexing loop the split `send_arrive`/`poll_release` client
//! API exists for: send every arrival, then give each in-flight session
//! a short bounded poll, re-sending an arrival after a request timeout
//! of silence. A session has arrived when its `send_arrive` returns and
//! is released when its `poll_release` says `Ok`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use combar_chaos::{NetChaosConfig, NetFaultPlan};
use combar_net::journal::JournalRecord;
use combar_net::{
    loopback_pair, recover, BarrierClient, ClientConfig, EpochServer, FaultyTransport, Journal,
    Request, Response, ServerConfig, Transport,
};
use combar_rt::{BarrierError, SupervisorConfig};

use crate::run::{Blocks, Ctx, Report};
use crate::spans::SpanId;
use crate::stamps::{episode_delay, now_ns, Crossing};
use crate::stats::{percentile_of, Summary};
use crate::wire::{Counted, WireStats};

const SESSIONS: u64 = 16;
const REQUEST_TIMEOUT: Duration = Duration::from_millis(10);
/// One bounded poll. On a clean wire the first poll of an episode
/// blocks until the release arrives; under loss a round over sixteen
/// silent sessions stays well inside the request timeout.
const POLL: Duration = Duration::from_micros(200);
/// An episode that has not completed after this long is given up: the
/// run fails instead of hanging.
const GIVE_UP_NS: u64 = 5_000_000_000;

/// What differs between the two workloads.
#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    /// Drop and duplicate probability on every connection, each way.
    loss: Option<f64>,
    /// Stamped episodes per block, and how many of the last block's
    /// become spans in a traced run.
    stamped_episodes: u64,
    span_episodes: u64,
    /// Set-ups averaged into one set-up repetition.
    setup_batch: u64,
}

impl Shape {
    fn chaos(&self, seed: u64) -> Option<NetChaosConfig> {
        self.loss.map(|p| NetChaosConfig::lossy(seed, p))
    }
}

pub fn run_clean(ctx: &Ctx) -> Report {
    run(
        ctx,
        Shape {
            name: "served_clean",
            loss: None,
            stamped_episodes: 2_048,
            span_episodes: 256,
            setup_batch: 1,
        },
    )
}

pub fn run_lossy(ctx: &Ctx) -> Report {
    run(
        ctx,
        Shape {
            name: "served_lossy",
            loss: Some(0.05),
            // Stamps cost nothing next to a 10 ms retry, so a third of
            // each block is stamped: more samples behind each p50.
            stamped_episodes: 24,
            span_episodes: 8,
            // A join that loses a frame waits out a 10 ms request
            // timeout, so one set-up takes 1, 12, 23, ... ms depending
            // on which frames its fault plan drops. Each repetition
            // averages five set-ups under five different plans;
            // otherwise setup_s would be a step function of the seed.
            setup_batch: 5,
        },
    )
}

fn server_config() -> ServerConfig {
    ServerConfig {
        shards: 1,
        tick: Duration::from_micros(200),
        // Compaction keeps the in-memory journal, and with it this
        // process's peak memory, from growing with the episode rate.
        snapshot_every: Some(4_096),
        // No session here ever dies, so the lease only has to stay out
        // of the way: a shared host can freeze a sleeping driver for a
        // few hundred ms, and at the default 25 ms grace that reads as
        // sixteen dead sessions. Re-sent arrivals still renew it.
        lease: SupervisorConfig {
            min_grace: Duration::from_millis(250),
            ..ServerConfig::default().lease
        },
        ..ServerConfig::default()
    }
}

struct Session {
    client: BarrierClient<Box<dyn Transport>>,
    sent: bool,
    released: bool,
    last_send_ns: u64,
    crossing: Crossing,
    done: u64,
}

struct Driver {
    server: EpochServer,
    sessions: Vec<Session>,
    wire: Arc<WireStats>,
    polls: u64,
}

/// What a stamped episode records beyond its crossings.
#[derive(Default)]
struct Probe {
    send_ns: Vec<u64>,
    poll_ns: u64,
    /// `Some` while the episode's calls are also recorded as spans,
    /// under this parent.
    spans: Option<SpanId>,
    episode: u64,
}

impl Driver {
    /// Set-up: start the journaled server, connect and join every
    /// session, and bring them all to the same episode.
    fn start(chaos: Option<NetChaosConfig>) -> Driver {
        let server = EpochServer::start_journaled(server_config(), Journal::memory());
        let wire = Arc::new(WireStats::default());
        let mut sessions: Vec<Session> = Vec::with_capacity(SESSIONS as usize);
        for sid in 0..SESSIONS {
            // Joining sixteen sessions one after another can outlast a
            // lease on a lossy wire; keep the earlier ones alive.
            for joined in &mut sessions {
                let _ = joined.client.heartbeat();
            }
            sessions.push({
                let base = server.connect();
                let transport: Box<dyn Transport> = match chaos {
                    Some(c) => Box::new(Counted::new(
                        FaultyTransport::new(base, NetFaultPlan::new(c), 2 * sid, 2 * sid + 1),
                        Arc::clone(&wire),
                    )),
                    None => Box::new(Counted::new(base, Arc::clone(&wire))),
                };
                let cfg = ClientConfig {
                    request_timeout: REQUEST_TIMEOUT,
                    ..ClientConfig::default()
                };
                let mut client = BarrierClient::new(transport, sid, cfg);
                client
                    .join()
                    .unwrap_or_else(|e| panic!("session {sid} failed to join: {e:?}"));
                Session {
                    client,
                    sent: false,
                    released: false,
                    last_send_ns: 0,
                    crossing: Crossing::default(),
                    done: 0,
                }
            });
        }
        // A join is a proxy arrival for the episode in flight, so the
        // first session's joining episode completes before the second
        // joins and it is welcomed one episode earlier than the rest.
        // The driver crosses in lockstep, so a session that is behind
        // first catches up: its arrival for an already released episode
        // is answered at once with that episode's release.
        let front = sessions
            .iter()
            .map(|s| s.client.episode())
            .max()
            .unwrap_or(0);
        for s in &mut sessions {
            while s.client.episode() < front {
                s.client.arrive().unwrap_or_else(|e| {
                    panic!("session {} failed to catch up: {e:?}", s.client.session())
                });
                s.done += 1;
            }
        }
        Driver {
            server,
            sessions,
            wire,
            polls: 0,
        }
    }

    fn stop(mut self) {
        for s in &mut self.sessions {
            let _ = s.client.leave();
        }
        self.server.shutdown();
    }

    /// One episode: every session arrives and every session observes
    /// the release. `false` if it had to be given up.
    fn cross(&mut self, mut probe: Option<(&mut Probe, &mut Report)>) -> bool {
        let start = now_ns();
        let Driver {
            sessions,
            wire,
            polls,
            ..
        } = self;
        for s in sessions.iter_mut() {
            s.sent = false;
            s.released = false;
        }
        loop {
            for (sid, s) in sessions.iter_mut().enumerate() {
                if s.released {
                    continue;
                }
                if !s.client.is_joined() {
                    // Evicted: come back in and arrive afresh.
                    s.sent = false;
                    if s.client.rejoin().is_err() {
                        continue;
                    }
                }
                let t0 = now_ns();
                if s.sent && t0 - s.last_send_ns < REQUEST_TIMEOUT.as_nanos() as u64 {
                    continue;
                }
                match s.client.send_arrive() {
                    Ok(()) => {
                        let t1 = now_ns();
                        s.last_send_ns = t1;
                        if !s.sent {
                            s.sent = true;
                            s.crossing.arrived_ns = t1;
                        }
                        if let Some((p, report)) = probe.as_mut() {
                            p.send_ns.push(t1 - t0);
                            if let Some(parent) = p.spans {
                                report.spans.push(
                                    "send_arrive",
                                    (t0, t1),
                                    Some(parent),
                                    p.episode,
                                    sid as u32,
                                );
                            }
                        }
                    }
                    Err(BarrierError::Evicted) => {}
                    Err(e) => panic!("session {sid}: send_arrive: {e:?}"),
                }
            }
            // When the longest-silent session is due its re-send. A poll
            // that comes back empty past this point ends the round, so a
            // re-send is at most one `POLL` late and not a whole round of
            // sixteen (3.2 ms on a 10 ms timeout).
            let resend_at = sessions
                .iter()
                .filter(|s| s.sent && !s.released)
                .map(|s| s.last_send_ns)
                .min()
                .unwrap_or(u64::MAX)
                .saturating_add(REQUEST_TIMEOUT.as_nanos() as u64);
            for (sid, s) in sessions.iter_mut().enumerate() {
                if s.released || !s.sent {
                    continue;
                }
                let t0 = if probe.is_some() { now_ns() } else { 0 };
                let polled = s.client.poll_release(POLL);
                *polls += 1;
                let t1 = now_ns();
                if let Some((p, report)) = probe.as_mut() {
                    p.poll_ns += t1 - t0;
                    if let Some(parent) = p.spans {
                        let poll = report.spans.push(
                            "poll_release",
                            (t0, t1),
                            Some(parent),
                            p.episode,
                            sid as u32,
                        );
                        for wait in wire.waits.lock().unwrap().drain(..) {
                            report
                                .spans
                                .push("wire_wait", wait, Some(poll), p.episode, sid as u32);
                        }
                    }
                }
                match polled {
                    Ok(_) => {
                        s.released = true;
                        s.crossing.released_ns = t1;
                        s.done += 1;
                    }
                    Err(BarrierError::Timeout) if t1 >= resend_at => break,
                    Err(BarrierError::Timeout) => {}
                    Err(BarrierError::Evicted) => s.sent = false,
                    Err(e) => panic!("session {sid}: poll_release: {e:?}"),
                }
            }
            if sessions.iter().all(|s| s.released) {
                return true;
            }
            if now_ns() - start > GIVE_UP_NS {
                return false;
            }
        }
    }

    fn client_totals(&self) -> (u64, u64, u64) {
        self.sessions.iter().fold((0, 0, 0), |(r, e, j), s| {
            let st = s.client.stats();
            (r + st.retries, e + st.evictions, j + st.rejoins)
        })
    }
}

fn run(ctx: &Ctx, shape: Shape) -> Report {
    // The shard thread and the driver thread; the main thread only joins.
    ctx.host.admit(shape.name, 2);
    std::thread::scope(|s| {
        s.spawn(|| measure(ctx, shape)).join().unwrap_or_else(|_| {
            let mut r = Report::default();
            r.fail(1, "the driver thread panicked");
            r
        })
    })
}

fn measure(ctx: &Ctx, shape: Shape) -> Report {
    let Shape {
        stamped_episodes,
        span_episodes,
        ..
    } = shape;
    let chaos = shape.chaos(ctx.seed);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut plan = 0;
    let mut timed_set_up = || {
        let mut ns = 0;
        for _ in 0..shape.setup_batch {
            plan += 1;
            let t0 = now_ns();
            let driver = Driver::start(shape.chaos(ctx.seed.wrapping_add(plan)));
            ns += now_ns() - t0;
            driver.stop();
        }
        setups.push(ns as f64 * 1e-9 / shape.setup_batch as f64);
    };
    let mut driver = Driver::start(chaos);

    let block_ns = (ctx.block_seconds() * 1e9) as u64;
    let mut blocks = Blocks::default();
    let mut send_ns = Vec::new();
    let (mut poll_ns, mut sync_ns, mut wire_wait_ns) = (0u64, 0u64, 0u64);
    let (mut stamped_polls, mut stamped_done) = (0u64, 0u64);
    // Counters when the warm-up block ended, and the episodes since: the
    // measured blocks follow one another, so one difference covers them.
    let mut warm = driver.snapshot();
    let mut measured_episodes = 0;
    let mut stamped_ns = 0;
    // Block 0 is the warm-up: measured like the rest, then dropped.
    'blocks: for block in 0..=ctx.blocks() {
        // Set-up is repeated once before every block and not
        // twenty-five times at the start: this host's speed drifts from
        // second to second, and repetitions packed together all see
        // one speed. The run's own server idles meanwhile; its
        // sessions' 250 ms leases outlast a repetition (100 ms under
        // loss).
        timed_set_up();
        let t0 = now_ns();
        let mut episodes = 0;
        while episodes == 0 || now_ns() - t0 < block_ns.saturating_sub(stamped_ns) {
            report.attempted += 1;
            if !driver.cross(None) {
                report.fail(1, "an episode was given up after 5 s");
                break 'blocks;
            }
            episodes += 1;
        }
        let plain_ns = now_ns() - t0;

        // The stamped part; in a traced run the last block's first
        // episodes are also written out as spans.
        let spanned = ctx.traced && block == ctx.blocks();
        let mut probe = Probe::default();
        let mut delays = Vec::with_capacity(stamped_episodes as usize);
        let wire0 = driver.wire.counts();
        let polls0 = driver.polls;
        let root = spanned.then(|| {
            driver.wire.keep_waits.store(true, Ordering::Relaxed);
            report
                .spans
                .push("workload", (now_ns(), now_ns()), None, 0, 0)
        });
        let t0 = now_ns();
        let mut span_end = t0;
        for e in 0..stamped_episodes {
            report.attempted += 1;
            probe.episode = e;
            let t = now_ns();
            probe.spans = match root {
                Some(root) if e < span_episodes => {
                    Some(report.spans.push("episode", (t, t), Some(root), e, 0))
                }
                _ => None,
            };
            if !driver.cross(Some((&mut probe, &mut report))) {
                report.fail(1, "an episode was given up after 5 s");
                break 'blocks;
            }
            let crossings: Vec<Crossing> = driver.sessions.iter().map(|s| s.crossing).collect();
            delays.push(episode_delay(&crossings).sync_ns);
            if let Some(id) = probe.spans {
                span_end = now_ns();
                report.spans.set_end(id, span_end);
            }
        }
        stamped_ns = now_ns() - t0;
        if let Some(root) = root {
            driver.wire.keep_waits.store(false, Ordering::Relaxed);
            report.spans.set_start(root, t0);
            report.spans.set_end(root, span_end);
            report.span_wall_ns = span_end - t0;
        }
        if block > 0 {
            blocks.unstamped(episodes, plain_ns);
            blocks.stamped(&delays, stamped_ns);
            send_ns.append(&mut probe.send_ns);
            poll_ns += probe.poll_ns;
            sync_ns += delays.iter().sum::<u64>();
            wire_wait_ns += (driver.wire.counts() - wire0).recv_wait_ns;
            stamped_polls += driver.polls - polls0;
            stamped_done += stamped_episodes * SESSIONS;
            measured_episodes += episodes + stamped_episodes;
        } else {
            warm = driver.snapshot();
        }
    }
    if blocks.rates.is_empty() {
        driver.stop();
        return report;
    }
    blocks.report(&mut report);
    blocks.report_stamping_overhead(&mut report);
    report.set("setup_s", Summary::of_blocks(&setups));

    // The exactly-once ledger: the server may not credit a session with
    // more episodes than its client saw released, and what it credits
    // less is explained by the join-epoch proxy arrival (one) plus
    // evictions and rejoins.
    let ledger = driver.settled_ledger();
    let (mut excess, mut server_evictions) = (0, 0);
    for s in &driver.sessions {
        let st = ledger.get(&s.client.session()).copied().unwrap_or_default();
        server_evictions += st.evictions;
        excess += st.completed.saturating_sub(s.done);
        let slack = 1 + st.evictions + s.client.stats().rejoins;
        if st.completed > s.done || st.completed + slack < s.done {
            report.fail(
                1,
                format!(
                    "session {}: server completed {} vs client done {}",
                    s.client.session(),
                    st.completed,
                    s.done
                ),
            );
        }
    }
    let (retries, evictions, rejoins) = driver.client_totals();
    if evictions + server_evictions + rejoins > 0 {
        report.fail(
            evictions.max(1),
            format!("{evictions} client-seen and {server_evictions} server-side evictions, {rejoins} rejoins"),
        );
    }
    if chaos.is_some() && retries == 0 {
        report.fail(
            1,
            "a lossy wire produced no retries: the fault plan is not in the path",
        );
    }

    if ctx.traced {
        let e = measured_episodes.max(1) as f64;
        let now = driver.snapshot();
        let wire = now.wire - warm.wire;
        report.set_value(
            "net.client.send_arrive_ns_p50",
            percentile_of(&mut send_ns, 50.0) as f64,
        );
        report.set_value(
            "net.client.poll_busy_ns_per_episode",
            poll_ns.saturating_sub(wire_wait_ns) as f64 / (stamped_done / SESSIONS).max(1) as f64,
        );
        report.set_value(
            "net.client.polls_per_release",
            stamped_polls as f64 / stamped_done.max(1) as f64,
        );
        report.set_value(
            "net.client.retries_per_episode",
            (now.retries - warm.retries) as f64 / e,
        );
        report.set_value("net.client.rejoins", rejoins as f64);
        report.set_value(
            "net.transport.frames_out_per_episode",
            wire.frames_out as f64 / e,
        );
        report.set_value(
            "net.transport.frames_in_per_episode",
            wire.frames_in as f64 / e,
        );
        report.set_value(
            "net.transport.bytes_out_per_episode",
            wire.bytes_out as f64 / e,
        );
        report.set_value(
            "net.transport.bytes_in_per_episode",
            wire.bytes_in as f64 / e,
        );
        report.set_value(
            "net.server.wait_share",
            (wire_wait_ns as f64 / sync_ns.max(1) as f64).min(1.0),
        );
        report.set_value("net.server.evictions", server_evictions as f64);
        report.set_value("net.server.ledger_excess", excess as f64);
        report.check_spans();
    }
    driver.stop();
    if ctx.traced {
        // After the server's threads are gone: the ping-pong rung needs
        // an echo thread of its own.
        layer_rungs(&mut report);
    }
    report
}

/// Client and wire counters at a block boundary.
struct Snapshot {
    wire: crate::wire::WireCounts,
    retries: u64,
}

impl Driver {
    /// The server's per-session counters once they have caught up with
    /// the last release: a shard sends an episode's `Release` frames
    /// first and credits its completers after, so a read straight after
    /// the last `poll_release` can be one episode short.
    fn settled_ledger(&self) -> std::collections::HashMap<u64, combar_net::SessionStats> {
        let t0 = now_ns();
        loop {
            let ledger = self.server.session_stats();
            let settled = self.sessions.iter().all(|s| {
                let st = ledger.get(&s.client.session()).copied().unwrap_or_default();
                st.completed + 1 + st.evictions + s.client.stats().rejoins >= s.done
            });
            if settled || now_ns() - t0 > 200_000_000 {
                return ledger;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            wire: self.wire.counts(),
            retries: self.client_totals().0,
        }
    }
}

/// The rungs under a served episode, each priced on this host in this
/// process: the codec, a bare loopback round trip, a journal append
/// and the journal's replay.
fn layer_rungs(report: &mut Report) {
    const CODEC_REPS: u64 = 1_000_000;
    let arrive = Request::Arrive {
        session: 7,
        episode: 123_456,
        seq: 654_321,
    };
    let t0 = now_ns();
    for _ in 0..CODEC_REPS {
        std::hint::black_box(std::hint::black_box(&arrive).encode());
    }
    report.set_value(
        "net.proto.encode_ns",
        (now_ns() - t0) as f64 / CODEC_REPS as f64,
    );
    let release = Response::Release {
        episode: 123_456,
        inc: 1,
    }
    .encode();
    let t0 = now_ns();
    for _ in 0..CODEC_REPS {
        std::hint::black_box(Response::decode(std::hint::black_box(&release)).expect("own frame"));
    }
    report.set_value(
        "net.proto.decode_ns",
        (now_ns() - t0) as f64 / CODEC_REPS as f64,
    );

    const PINGS: usize = 20_000;
    let (mut near, mut far) = loopback_pair();
    let mut rtts = Vec::with_capacity(PINGS);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(frame) = far.recv_timeout(Duration::from_secs(1)) {
                if frame.is_empty() || far.send(&frame).is_err() {
                    break;
                }
            }
        });
        let frame = arrive.encode();
        for _ in 0..PINGS {
            let t0 = now_ns();
            near.send(&frame).expect("echo thread alive");
            near.recv_timeout(Duration::from_secs(1))
                .expect("echo within 1 s");
            rtts.push(now_ns() - t0);
        }
        near.send(&[]).expect("echo thread alive");
    });
    report.set_value(
        "net.transport.rtt_p50_ns",
        percentile_of(&mut rtts, 50.0) as f64,
    );

    // One 16-completer `Episode` per append, as the release winner
    // writes them, on a memory journal; then the read side replays it.
    const APPENDS: u64 = 20_000;
    let journal = Journal::memory();
    let inc = journal.bump_incarnation().expect("fresh journal");
    let joins: Vec<JournalRecord> = (0..SESSIONS)
        .map(|session| JournalRecord::Join {
            session,
            epoch: 0,
            rejoin: false,
        })
        .collect();
    journal.append_batch(inc, &joins).expect("unfenced");
    let roster_hash = combar_net::journal::roster_hash(0..SESSIONS);
    let mut appends = Vec::with_capacity(APPENDS as usize);
    let before = journal.len().expect("memory journal");
    for epoch in 0..APPENDS {
        let record = JournalRecord::Episode {
            epoch,
            inc,
            roster_hash,
            completers: (0..SESSIONS).map(|s| (s, epoch + 1)).collect(),
        };
        let t0 = now_ns();
        journal
            .append_batch(inc, std::slice::from_ref(&record))
            .expect("unfenced");
        appends.push(now_ns() - t0);
    }
    let bytes = journal.len().expect("memory journal") - before;
    report.set_value(
        "net.journal.append_ns_p50",
        percentile_of(&mut appends, 50.0) as f64,
    );
    report.set_value(
        "net.journal.bytes_per_episode",
        bytes as f64 / APPENDS as f64,
    );
    let t0 = now_ns();
    let state = recover(&journal).expect("own journal replays");
    let replay_s = (now_ns() - t0) as f64 * 1e-9;
    assert_eq!(
        state.epoch, APPENDS,
        "replay ends one past the last episode"
    );
    report.set_value(
        "net.recover.replay_records_per_s",
        (APPENDS + SESSIONS + 1) as f64 / replay_s,
    );
}
