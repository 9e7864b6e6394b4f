//! Acceptance test for crash recovery of the journaled epoch server
//! (`combar-net`): the barrier authority itself is killed repeatedly
//! mid-soak and the service must ride through on its write-ahead epoch
//! journal without wedging an epoch, double-counting an episode, or
//! silently rewinding a client.
//!
//! The flagship scenario is the issue's acceptance bar end to end:
//! 64 sessions over a wire dropping *and* duplicating 5% of frames,
//! while a seeded [`ServerFaultPlan`] kills the primary three times —
//! once scripted *mid-broadcast*, so some shards fanned the release
//! out and some did not — with a warm standby tailing the journal and
//! a recovery (journal replay + resume) after every crash:
//!
//! * every session still completes 200 consecutive episodes;
//! * the episode ledger stays exactly-once across all crashes: the
//!   durable journal, the recovered in-memory counters, and the
//!   clients' own completion counts agree within the documented
//!   structural slack (join proxies, evictions, resume re-acks);
//! * the journal's final epoch equals the served release count — the
//!   WAL-append-before-broadcast invariant held through every crash;
//! * clients prove their position through the `Resume` challenge (the
//!   soak asserts resumes were actually exercised, not just survived).
//!
//! A second test drives the split-brain script: the primary is deposed
//! *without* being stopped while traffic runs, a successor is promoted,
//! and the zombie — still serving its last believers — must be fenced
//! by the journal before it can extend the ledger.
//!
//! Companion coverage: journal/recovery unit tests live in
//! `crates/net/src/{journal,recover}.rs`, the deterministic
//! virtual-time replay is the `restart` experiment, and wall-clock
//! recovery latency is `crates/bench/benches/restart_recovery.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use combar::presets::seeds;
use combar_chaos::{NetChaosConfig, ServerFault, ServerFaultEvent, ServerFaultPlan};
use combar_net::{
    recover, BarrierClient, ClientConfig, FailoverCluster, Journal, MuxConfig, MuxReport,
    ServerConfig, ServerCrash, SessionMux, Transport,
};
use combar_rt::Executor;

const SESSIONS: u64 = 64;
const EPISODES: u64 = 200;
const KILLS: usize = 3;

fn base_cfg() -> ServerConfig {
    ServerConfig {
        shards: 4,
        tick: Duration::from_micros(200),
        // Generous resume window: 64 sessions must all re-prove their
        // position through a 5%-lossy wire after each crash before the
        // recovery purge starts evicting stragglers.
        recovery_grace: Duration::from_millis(500),
        // Exercise compaction mid-soak so recovery replays
        // snapshot + tail, not the full history.
        snapshot_every: if std::env::var_os("SOAK_DEBUG").is_some() {
            None
        } else {
            Some(50)
        },
        ..ServerConfig::default()
    }
}

/// The config for the primary serving *up to* the scripted fault
/// `next`: a mid-broadcast kill cannot be injected from outside (the
/// window between journal append and fan-out lives inside the release
/// winner), so it is scripted into the victim's own config instead.
fn cfg_for(next: Option<&ServerFaultEvent>) -> ServerConfig {
    let mut cfg = base_cfg();
    if let Some(ev) = next {
        if let ServerFault::Kill {
            mid_broadcast: true,
        } = ev.fault
        {
            cfg.crash = Some(ServerCrash {
                at_epoch: ev.epoch,
                mid_broadcast: true,
            });
        }
    }
    cfg
}

/// The client side of both scripts: `cfg` driven on `drivers` executor
/// threads, every session dialing whichever primary the cluster has.
fn drive(cluster: &FailoverCluster, cfg: &MuxConfig, drivers: usize) -> MuxReport {
    SessionMux::drive(
        &Executor::new(drivers),
        |_| Box::new(cluster.client_transport()),
        cfg,
    )
}

/// Client tuning for both scripts: a 10 ms re-send, and the blocking
/// 1 ms release poll.
fn mux_cfg(sessions: u64, episodes: u64, chaos: Option<NetChaosConfig>) -> MuxConfig {
    MuxConfig {
        sessions,
        episodes,
        client: ClientConfig {
            request_timeout: Duration::from_millis(10),
            ..ClientConfig::default()
        },
        chaos,
        poll: Duration::from_millis(1),
        ..MuxConfig::default()
    }
}

fn wait_until(deadline: Instant, what: &str, mut done: impl FnMut() -> bool) {
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The issue's acceptance scenario: k = 3 primary crashes (one
/// mid-broadcast) under the lossy acceptance wire, with warm-standby
/// tailing and journal recovery after every crash.
#[test]
fn restart_soak_acceptance() {
    let seed = seeds::restart(0.05, KILLS as u32);
    let plan = ServerFaultPlan::restart_soak(seed, EPISODES, KILLS);
    let script: Vec<ServerFaultEvent> = plan.iter().copied().collect();
    assert_eq!(script.len(), KILLS);

    let journal = Journal::memory();
    let cluster = FailoverCluster::start(cfg_for(script.first()), journal.clone());

    let cfg = mux_cfg(SESSIONS, EPISODES, Some(NetChaosConfig::lossy(seed, 0.05)));

    // Wall-clock recovery cost per crash (detection excluded: the soak
    // restarts eagerly; detection latency is the standby grace, asserted
    // separately below). Nanos so the monitor can stay lock-free.
    let recovery_ns: Vec<AtomicU64> = (0..KILLS).map(|_| AtomicU64::new(0)).collect();

    let report = std::thread::scope(|scope| {
        let driver = scope.spawn(|| drive(&cluster, &cfg, 8));
        let mut standby = cluster.attach_standby().expect("initial standby");
        for (i, ev) in script.iter().enumerate() {
            let deadline = Instant::now() + Duration::from_secs(120);
            let ServerFault::Kill { mid_broadcast } = ev.fault else {
                unreachable!("restart_soak scripts only kills");
            };
            if mid_broadcast {
                // The victim crashes itself inside the release winner;
                // the cluster notices the way a real one would — the
                // standby's journal tail goes silent past its grace.
                wait_until(deadline, "scripted mid-broadcast crash", || {
                    cluster.with_primary(|s| s.halted()).unwrap_or(true)
                });
                wait_until(deadline, "standby lease lapse", || {
                    standby.lapsed(Duration::from_millis(100))
                });
                // The standby tailed the live journal stream well past
                // its warm-start seed before the crash.
                assert!(
                    standby.epoch() >= ev.epoch,
                    "standby lagged: tailed to {} < crash epoch {}",
                    standby.epoch(),
                    ev.epoch
                );
            } else {
                wait_until(
                    deadline,
                    &format!("epoch {} before kill {i}", ev.epoch),
                    || cluster.with_primary(|s| s.episodes_released()).unwrap_or(0) > ev.epoch,
                );
                cluster.kill_primary();
            }
            let t0 = Instant::now();
            cluster
                .restart_primary_with(cfg_for(script.get(i + 1)))
                .expect("journal replay after crash");
            recovery_ns[i].store(t0.elapsed().as_nanos() as u64, Ordering::Release);
            // Rotate the standby onto the new primary (promotion
            // re-derives from the durable journal, so the old tail is
            // just stopped, never consulted).
            standby.stop();
            standby = cluster.attach_standby().expect("standby after restart");
        }
        standby.stop();
        driver.join().expect("session drivers must not panic")
    });

    // Degradation, never a wedge: every session ran the full schedule
    // across three authority crashes.
    for sid in 0..SESSIONS {
        assert_eq!(report.done(sid), EPISODES, "session {sid}");
    }
    // The crashes were actually ridden through, not dodged: clients
    // proved their position via the Resume challenge, and the lossy
    // wire forced retransmissions.
    let totals = report.totals();
    assert!(totals.resumes > 0, "no client exercised the resume path");
    assert!(totals.retries > 0, "lossy wire produced no retries");
    for (i, ns) in recovery_ns.iter().enumerate() {
        assert!(
            ns.load(Ordering::Acquire) > 0,
            "crash {i} recorded no recovery"
        );
    }

    // Exactly-once episode ledger, memory side: per session, the
    // recovered server counters and the client's own completions agree
    // within the documented structural slack — one join proxy, at most
    // one credited-but-unacked episode per eviction, one resume re-ack
    // per crash. Never more: a duplicate or replayed journal record
    // double-counting an episode would break the upper bound.
    let released = cluster
        .with_primary(|s| s.episodes_released())
        .expect("final primary");
    assert!(released >= EPISODES);
    let stats = cluster
        .with_primary(|s| s.session_stats())
        .expect("final primary");
    let kills = KILLS as u64;
    if std::env::var_os("SOAK_DEBUG").is_some() {
        let state = recover(&journal).expect("replay");
        for sid in 0..SESSIONS {
            let st = stats[&sid];
            let js = state.sessions[&sid].stats;
            eprintln!(
                "sid {sid}: done {} mem {} (ev {} rj {}) journal {} (ev {} rj {})",
                report.done(sid),
                st.completed,
                st.evictions,
                st.rejoins,
                js.completed,
                js.evictions,
                js.rejoins
            );
        }
        eprintln!("journal epoch {} released {released}", state.epoch);
        let (records, _) =
            combar_net::recover::decode_stream(&journal.read_all().expect("read journal"));
        for r in &records {
            if let combar_net::JournalRecord::Episode {
                epoch, completers, ..
            } = r
            {
                if completers.len() < 60 {
                    eprintln!("epoch {epoch}: only {} completers", completers.len());
                }
            }
        }
    }
    for sid in 0..SESSIONS {
        let st = stats[&sid];
        let done = report.done(sid);
        assert!(
            st.completed <= done + st.evictions + kills,
            "session {sid}: server credited {} > {done} client completions \
             (+{} evictions, +{kills} crashes) — an episode was double-counted",
            st.completed,
            st.evictions
        );
        assert!(
            st.completed + 1 + st.evictions + st.rejoins + kills >= done,
            "session {sid}: server credited only {} of {done} \
             (evictions {}, rejoins {})",
            st.completed,
            st.evictions,
            st.rejoins
        );
    }

    // Exactly-once, durable side: replaying the journal from scratch
    // must land on the exact epoch the final primary served (the WAL
    // invariant: every released epoch was appended first), with the
    // same per-session ledger bounds holding for the *replayed*
    // counters too.
    let state = recover(&journal).expect("final journal replay");
    assert!(!state.torn_tail, "journal ended mid-record");
    assert_eq!(
        state.epoch, released,
        "journal epoch and served releases disagree"
    );
    for sid in 0..SESSIONS {
        let js = state.sessions[&sid].stats;
        let done = report.done(sid);
        assert!(
            js.completed <= done + js.evictions + kills,
            "session {sid}: journal credits {} > {done} completions",
            js.completed
        );
        assert!(
            js.completed + 1 + js.evictions + js.rejoins + kills >= done,
            "session {sid}: journal credits only {} of {done}",
            js.completed
        );
    }
    cluster.shutdown();
}

/// The split-brain script under live traffic: depose the primary
/// without stopping it, promote a successor, and prove the zombie is
/// fenced out of the ledger while every session still finishes.
#[test]
fn split_brain_zombie_is_fenced_while_traffic_survives() {
    const SB_SESSIONS: u64 = 8;
    const SB_EPISODES: u64 = 60;
    let plan = ServerFaultPlan::new().with_split_brain(10);
    let ev = plan.next_after(0).expect("scripted split brain");

    let journal = Journal::memory();
    let cluster = FailoverCluster::start(base_cfg(), journal.clone());
    let cfg = mux_cfg(SB_SESSIONS, SB_EPISODES, None);

    let report = std::thread::scope(|scope| {
        let driver = scope.spawn(|| drive(&cluster, &cfg, 4));
        let deadline = Instant::now() + Duration::from_secs(60);
        wait_until(deadline, "traffic reaching the split-brain epoch", || {
            cluster.with_primary(|s| s.episodes_released()).unwrap_or(0) > ev.epoch
        });
        // Depose without stopping: the zombie keeps serving whoever
        // still talks to it. Promotion claims a higher incarnation
        // *before* replaying the journal, so from this line on the
        // zombie cannot append — and therefore cannot release.
        let zombie = cluster.detach_primary().expect("a primary to depose");
        cluster.promote().expect("promotion from the journal");
        let old_inc = zombie.incarnation();
        let new_inc = cluster
            .with_primary(|s| s.incarnation())
            .expect("promoted primary");
        assert!(
            new_inc > old_inc,
            "promotion must fence: {new_inc} <= {old_inc}"
        );

        // Feed the zombie a believer so it actually attempts a release
        // (its old sessions fall silent and lease out; once the
        // believer is the whole roster, its arrival completes an epoch
        // and the release winner hits the journal fence).
        let mut believer = BarrierClient::new(
            Box::new(zombie.connect()) as Box<dyn Transport>,
            9_999,
            ClientConfig::default(),
        );
        let _ = believer.join();
        wait_until(deadline, "zombie hitting the journal fence", || {
            let _ = believer.send_arrive();
            let _ = believer.poll_release(Duration::from_millis(2));
            zombie.fenced()
        });
        let frozen = zombie.episodes_released();
        // Keep pushing: a fenced zombie must never extend the ledger.
        for _ in 0..50 {
            let _ = believer.send_arrive();
            let _ = believer.poll_release(Duration::from_millis(1));
        }
        assert_eq!(
            zombie.episodes_released(),
            frozen,
            "fenced zombie released an epoch"
        );
        zombie.shutdown();
        driver.join().expect("session drivers must not panic")
    });

    for sid in 0..SB_SESSIONS {
        assert_eq!(report.done(sid), SB_EPISODES, "session {sid}");
    }
    assert!(
        report.totals().resumes > 0,
        "no client resumed onto the successor"
    );
    // The fence is visible in the durable record too: the journal's
    // replayed epoch reflects only un-fenced appends.
    let state = recover(&journal).expect("journal replay");
    let released = cluster
        .with_primary(|s| s.episodes_released())
        .expect("promoted primary");
    assert_eq!(state.epoch, released);
    cluster.shutdown();
}
