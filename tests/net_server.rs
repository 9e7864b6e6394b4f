//! Acceptance test for the networked epoch server (`combar-net`): the
//! barrier-as-a-service survives a hostile wire and hostile
//! membership without ever wedging an epoch or double-counting a
//! retried request.
//!
//! The flagship scenario is the issue's acceptance bar end to end:
//! 64 sessions over a [`FaultyTransport`] dropping *and* duplicating
//! 5% of frames in each direction, with k = 4 sessions crash-killed
//! mid-run and one whole shard stalled once episodes are flowing —
//!
//! * every survivor still completes 200 consecutive episodes;
//! * retries stay idempotent: the server-side `completed` counter
//!   advances at most once per session per episode no matter how many
//!   duplicate or retransmitted `Arrive`s the wire delivers;
//! * the killed sessions are lease-evicted (membership folds, the
//!   epoch keeps advancing) and never overrun their crash point;
//! * the stalled shard's orphans observe `Evicted` and rejoin through
//!   the surviving shards.
//!
//! Companion coverage: protocol-level unit tests live in
//! `crates/net/src/*`, the deterministic virtual-time replay is the
//! `server` experiment, and wall-clock throughput is
//! the `served_*` workloads of `benchmark/`.

use std::time::{Duration, Instant};

use combar::presets::seeds;
use combar_chaos::NetChaosConfig;
use combar_net::{ClientConfig, EpochServer, MuxConfig, ServerConfig, SessionMux};
use combar_rt::Executor;

/// The issue's acceptance scenario, plus a mid-run shard stall so the
/// rejoin path is exercised deterministically rather than only when
/// the lossy wire happens to trip a session lease.
#[test]
fn lossy_churn_acceptance() {
    const SESSIONS: u64 = 64;
    const EPISODES: u64 = 200;
    const KILL: [u64; 4] = [9, 21, 33, 45];
    const KILL_AFTER: u64 = 20;

    let server = EpochServer::start(ServerConfig {
        shards: 4,
        tick: Duration::from_micros(200),
        ..ServerConfig::default()
    });
    let cfg = MuxConfig {
        sessions: SESSIONS,
        episodes: EPISODES,
        // Re-send faster than the default so a dropped frame costs
        // ~10ms, not a whole lease grace; the session lease (server
        // default) still tolerates several consecutive drops without a
        // spurious eviction.
        client: ClientConfig {
            request_timeout: Duration::from_millis(10),
            ..ClientConfig::default()
        },
        chaos: Some(NetChaosConfig::lossy(seeds::server(0.05, 4), 0.05)),
        poll: Duration::from_millis(1),
        kill: KILL.to_vec(),
        script_after: KILL_AFTER,
        ..MuxConfig::default()
    };

    let report = std::thread::scope(|scope| {
        let handle = scope
            .spawn(|| SessionMux::drive(&Executor::new(8), |_| Box::new(server.connect()), &cfg));
        // Once episodes are flowing, stall one shard: its lease dies,
        // its sessions are folded out and must rejoin elsewhere.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.episodes_released() < 20 {
            assert!(Instant::now() < deadline, "server made no progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.stall_shard(1);
        handle.join().expect("session drivers must not panic")
    });

    // Degradation, never a wedge: every survivor ran the full schedule.
    for sid in (0..SESSIONS).filter(|s| !KILL.contains(s)) {
        assert_eq!(report.done(sid), EPISODES, "session {sid}");
    }
    // Crashed sessions stop exactly at their crash point.
    for sid in KILL {
        assert_eq!(report.done(sid), KILL_AFTER, "killed session {sid}");
    }
    // 5% loss on ~2·64·200 frames must have forced retransmissions,
    // and the stalled shard must have pushed at least one orphan
    // through the evict→rejoin path.
    let totals = report.totals();
    eprintln!(
        "lossy_churn_acceptance: {} retries, {} evictions, {} rejoins",
        totals.retries, totals.evictions, totals.rejoins
    );
    assert!(totals.retries > 0, "lossy wire produced no retries");
    assert!(totals.rejoins > 0, "no client observed evict→rejoin");
    assert!(
        totals.evictions >= totals.rejoins,
        "rejoins without evictions: {totals:?}"
    );
    assert!(server.episodes_released() >= EPISODES);

    // Idempotency oracle: however many duplicates and retries the wire
    // delivered, the server-side per-session episode counter advanced
    // at most once per episode the client completed. The tolerated
    // undercount is structural, never wire-induced: one join-frame
    // proxy, at most one in-flight episode per eviction, and at most
    // one stale-frame re-ack per rejoin.
    let stats = server.session_stats();
    for sid in 0..SESSIONS {
        let st = stats[&sid];
        let done = report.done(sid);
        assert!(
            st.completed <= done,
            "session {sid}: server counted {} > {done} client completions \
             (a retry or duplicate double-counted)",
            st.completed
        );
        assert!(
            st.completed + 1 + st.evictions + st.rejoins >= done,
            "session {sid}: server counted only {} of {done} \
             (evictions {}, rejoins {})",
            st.completed,
            st.evictions,
            st.rejoins
        );
    }
    // The crashed sessions were lease-evicted, not waited on forever.
    for sid in KILL {
        assert!(
            stats[&sid].evictions >= 1,
            "killed session {sid} was never evicted: {:?}",
            stats[&sid]
        );
    }
    server.shutdown();
}

/// Clean-wire sanity at the same scale: no chaos, no kills — zero
/// retries is *not* asserted (a slow driver may legitimately resend),
/// but evictions must not happen and counters must match exactly.
#[test]
fn clean_wire_counters_are_exact() {
    // A generous session lease: this test asserts zero evictions, so a
    // scheduler stall on a loaded CI host must not evict anyone.
    let server = EpochServer::start(ServerConfig {
        shards: 4,
        tick: Duration::from_micros(200),
        lease: combar_rt::SupervisorConfig {
            min_grace: Duration::from_secs(1),
            sigma_mult: 4.0,
            max_misses: 3,
        },
        ..ServerConfig::default()
    });
    let cfg = MuxConfig {
        sessions: 32,
        episodes: 50,
        client: ClientConfig::default(),
        poll: Duration::from_millis(1),
        ..MuxConfig::default()
    };
    let report = SessionMux::drive(&Executor::new(8), |_| Box::new(server.connect()), &cfg);
    assert_eq!(report.totals().episodes, 32 * 50);
    assert_eq!(report.totals().evictions, 0, "clean wire must not evict");
    let stats = server.session_stats();
    for sid in 0..32 {
        assert!(
            stats[&sid].completed <= 50,
            "session {sid} over-counted: {:?}",
            stats[&sid]
        );
    }
    server.shutdown();
}
