//! In-tree bench for crash recovery of the journaled epoch server:
//! wall-clock recovery latency (kill → journal replay → resumed
//! primary) of the *real* `combar-net` [`FailoverCluster`] while 64
//! sessions keep running over a 5% drop + duplicate wire.
//!
//! ```text
//! cargo bench -p combar-bench --bench restart_recovery > BENCH_restart.json
//! ```
//!
//! Prints the committed JSON to stdout and a human summary to stderr.
//! Two scenarios differ only in what recovery must replay: `cold`
//! (no compaction — the full journal history) and `snapshot`
//! (compaction every 25 epochs — snapshot plus a bounded tail). The
//! deterministic virtual-time companion is the `restart` experiment
//! (`experiments -- restart`), and the correctness soak is
//! `tests/net_restart.rs`.

use std::time::{Duration, Instant};

use combar::presets::seeds;
use combar_chaos::NetChaosConfig;
use combar_net::{ClientConfig, FailoverCluster, Journal, MuxConfig, ServerConfig, SessionMux};
use combar_rng::stats::nearest_rank;
use combar_rt::Executor;

const SESSIONS: u64 = 64;
const SHARDS: usize = 4;
const EPISODES: u64 = 150;
const KILLS: usize = 6;
const LOSS: f64 = 0.05;

struct ScenarioResult {
    name: &'static str,
    eps_per_sec: f64,
    recovery_p50_us: u64,
    recovery_p99_us: u64,
    recovery_max_us: u64,
    retries: u64,
    resumes: u64,
}

fn run(name: &'static str, snapshot_every: Option<u64>) -> ScenarioResult {
    let cfg = ServerConfig {
        shards: SHARDS,
        tick: Duration::from_micros(200),
        recovery_grace: Duration::from_millis(500),
        snapshot_every,
        ..ServerConfig::default()
    };
    let journal = Journal::memory();
    let cluster = FailoverCluster::start(cfg.clone(), journal);

    let sessions = MuxConfig {
        sessions: SESSIONS,
        episodes: EPISODES,
        client: ClientConfig {
            request_timeout: Duration::from_millis(10),
            ..ClientConfig::default()
        },
        chaos: Some(NetChaosConfig::lossy(
            seeds::restart(LOSS, KILLS as u32),
            LOSS,
        )),
        poll: Duration::from_millis(1),
        ..MuxConfig::default()
    };

    // Kill epochs evenly spaced through the schedule, away from both
    // ends so every crash interrupts live traffic.
    let kill_epochs: Vec<u64> = (1..=KILLS as u64)
        .map(|i| EPISODES * i / (KILLS as u64 + 1))
        .collect();

    let mut recoveries: Vec<Duration> = Vec::with_capacity(KILLS);
    let (report, elapsed) = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let t0 = Instant::now();
            let report = SessionMux::drive(
                &Executor::new(8),
                |_| Box::new(cluster.client_transport()),
                &sessions,
            );
            (report, t0.elapsed())
        });
        for &at in &kill_epochs {
            let deadline = Instant::now() + Duration::from_secs(120);
            while cluster.with_primary(|s| s.episodes_released()).unwrap_or(0) <= at {
                assert!(Instant::now() < deadline, "bench stalled before epoch {at}");
                std::thread::sleep(Duration::from_millis(1));
            }
            cluster.kill_primary();
            let t0 = Instant::now();
            cluster
                .restart_primary_with(cfg.clone())
                .expect("journal replay after crash");
            recoveries.push(t0.elapsed());
        }
        driver.join().expect("session drivers must not panic")
    });
    assert_eq!(
        report.totals().episodes,
        SESSIONS * EPISODES,
        "bench run wedged"
    );
    cluster.shutdown();

    recoveries.sort();
    let recovery_us = |q| nearest_rank(&recoveries, q).map_or(0, |d| d.as_micros() as u64);
    ScenarioResult {
        name,
        eps_per_sec: report.totals().episodes as f64 / elapsed.as_secs_f64(),
        recovery_p50_us: recovery_us(0.50),
        recovery_p99_us: recovery_us(0.99),
        recovery_max_us: recovery_us(1.0),
        retries: report.totals().retries,
        resumes: report.totals().resumes,
    }
}

fn main() {
    let scenarios = [run("cold", None), run("snapshot", Some(25))];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for s in &scenarios {
        eprintln!(
            "restart_recovery[{}]: {:.0} episodes/s, recovery p50 {}µs, p99 {}µs, \
             max {}µs, {} retries, {} resumes",
            s.name,
            s.eps_per_sec,
            s.recovery_p50_us,
            s.recovery_p99_us,
            s.recovery_max_us,
            s.retries,
            s.resumes
        );
    }
    println!("{{");
    println!("  \"bench\": \"restart_recovery\",");
    println!("  \"sessions\": {SESSIONS},");
    println!("  \"shards\": {SHARDS},");
    println!("  \"episodes_per_session\": {EPISODES},");
    println!("  \"loss\": {LOSS},");
    println!("  \"kills\": {KILLS},");
    println!("  \"host_cores\": {cores},");
    println!("  \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 < scenarios.len() { "," } else { "" };
        println!(
            "    {{\"name\": \"{}\", \"episodes_per_sec\": {:.1}, \"recovery_p50_us\": {}, \
             \"recovery_p99_us\": {}, \"recovery_max_us\": {}, \"retries\": {}, \
             \"resumes\": {}}}{sep}",
            s.name,
            s.eps_per_sec,
            s.recovery_p50_us,
            s.recovery_p99_us,
            s.recovery_max_us,
            s.retries,
            s.resumes
        );
    }
    println!("  ],");
    println!(
        "  \"note\": \"recovery = kill_primary → journal replay → resumed primary, measured on \
         the committing host over the in-process loopback transport while 64 lossy sessions keep \
         running; wall-clock numbers scale with host_cores and scheduler noise — the CI soak job \
         re-records this file on a runner as the BENCH_restart artifact. The deterministic \
         virtual-time grid for the recovery designs is the restart experiment's golden snapshot, \
         and the correctness bar is tests/net_restart.rs.\""
    );
    println!("}}");
}
