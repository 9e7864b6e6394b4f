//! Load acceptance for the async epoch runtime: logical participants
//! at scales no thread-per-participant harness can touch, driven by a
//! handful of OS threads.
//!
//! Three tiers:
//!
//! * an ungated ~64k-participant smoke (CI runs it on every push);
//! * the headline run — at least one million logical participants
//!   crossing 100 consecutive epochs on at most 8 drivers — gated
//!   behind `COMBAR_LOAD=1` (minutes of wall clock; DESIGN.md §14
//!   records a measured run);
//! * chaos: seeded lost wakeups, cancelled waits and a killed driver
//!   must never hang — every failure surfaces as a `BarrierError` and
//!   every wait is bounded by its own per-logical deadline.
//!
//! Plus the networked soak: [`SessionMux`] tasks on an executor
//! against a real `EpochServer`, with scripted
//! cancel-and-rejoin churn, a lossy wire and a killed driver, asserting
//! the server's exactly-once episode ledger. `COMBAR_SOAK=1` runs the
//! full soak; unset runs a bounded smoke of the same scenario.

use std::time::{Duration, Instant};

use combar_chaos::{WakeChaosConfig, WakeFaultPlan};
use combar_rt::load::{run_load, LoadConfig};
use combar_rt::{AsyncBarrier, BarrierError, Deadline, Executor, Timer};

fn env_set(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn smoke_64k_logical_participants() {
    let cfg = LoadConfig {
        participants: 1 << 16,
        shards: 16,
        drivers: 4,
        episodes: 6,
        work_mean: 8,
        sigma: 1.0,
        seed: 0x0001_0ad6_4000,
        record_latency: true,
        idle_budget: Duration::from_secs(240),
    };
    let r = run_load(&cfg);
    assert_eq!(r.final_epoch, cfg.episodes);
    let (p50, p95, p99) = r.wake_latency_ns.expect("latency recorded");
    assert!(p50 <= p95 && p95 <= p99);
    eprintln!(
        "64k smoke: {:.1} epochs/s, {:.0} crossings/s, wake p50/p95/p99 = {p50}/{p95}/{p99} ns",
        r.epochs_per_sec, r.crossings_per_sec
    );
}

/// The headline claim: ≥1M logical participants, 100 consecutive
/// epochs, ≤8 driver threads, σ-imbalanced per-epoch work. Gated —
/// takes minutes. DESIGN.md §14 holds a measured run of the same
/// shape.
#[test]
fn million_logical_participants_hundred_epochs() {
    if !env_set("COMBAR_LOAD") {
        eprintln!("COMBAR_LOAD unset; skipping the 1M-participant load run");
        return;
    }
    let cfg = LoadConfig {
        participants: 1 << 20,
        shards: 64,
        drivers: 8,
        episodes: 100,
        work_mean: 4,
        sigma: 1.0,
        seed: 0x010a_d100_0000,
        record_latency: true,
        idle_budget: Duration::from_secs(3600),
    };
    let r = run_load(&cfg);
    assert_eq!(
        r.final_epoch, 100,
        "100 consecutive epochs, each exactly once"
    );
    let (p50, p95, p99) = r.wake_latency_ns.expect("latency recorded");
    eprintln!(
        "1M load: {} participants x {} epochs in {:?}: {:.2} epochs/s, \
         {:.0} crossings/s, wake p50/p95/p99 = {p50}/{p95}/{p99} ns",
        cfg.participants, cfg.episodes, r.elapsed, r.epochs_per_sec, r.crossings_per_sec
    );
}

/// Lost wakeups, cancelled parked waits and a killed driver — all from
/// one seeded plan — never hang the run: every wait is deadline-bounded
/// per logical participant, a cancel leaves the arrival standing (the
/// next wait resumes the same episode), and the survivors drain the
/// dead driver's queue.
#[test]
fn chaos_lost_wakes_cancels_killed_driver_never_hang() {
    let p: u32 = 1024;
    let episodes: u32 = 12;
    let plan = WakeFaultPlan::new(WakeChaosConfig {
        seed: 0x000c_4a05,
        lost_wake_prob: 0.02,
        cancel_prob: 0.05,
        kill_drivers: 1,
        kill_after_epoch: 4,
    });
    let b = AsyncBarrier::new(p, 8);
    b.inject_wake_faults(Some(plan));
    let exec = Executor::new(4);
    let timer = Timer::new();
    for tid in 0..p {
        let b = b.clone();
        let timer = timer.clone();
        exec.spawn(async move {
            let mut w = b.waiter_for(tid);
            for e in 0..episodes {
                if plan.cancels(tid, e) {
                    // Cancel the parked wait: the expiring deadline
                    // drops the future mid-park. The arrival stands.
                    let now = Instant::now();
                    match w
                        .wait_deadline(now + Duration::from_micros(50), &timer)
                        .await
                    {
                        Ok(()) => continue,              // released before the cancel landed
                        Err(BarrierError::Timeout) => {} // cancelled; resume below
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
                // Every wait bounded by its own deadline: a lost wakeup
                // costs one re-poll, never a hang.
                loop {
                    let deadline = Instant::now() + Duration::from_millis(20);
                    match w.wait_deadline(deadline, &timer).await {
                        Ok(()) => break,
                        Err(BarrierError::Timeout) => continue,
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
        });
    }
    // The scripted driver death: wait for the epoch the plan names,
    // then kill from outside (the executor refuses to kill its last
    // driver, so this can never strand the run).
    let kill_at = plan.kills_driver(0).expect("driver 0 is scripted to die");
    let t0 = Instant::now();
    while b.epoch() <= kill_at && t0.elapsed() < Duration::from_secs(120) {
        std::thread::yield_now();
    }
    assert!(exec.kill_driver(0), "driver 0 killed once");
    assert!(
        exec.wait_idle(Deadline::after(Duration::from_secs(240))),
        "chaos must never hang: epoch {} of {episodes}, {} tasks live",
        b.epoch(),
        exec.active()
    );
    assert_eq!(exec.panics(), 0, "no task panicked");
    assert_eq!(exec.live_drivers(), 3, "exactly one driver died");
    assert_eq!(b.epoch(), episodes, "every epoch released exactly once");
    assert!(!b.is_poisoned());
}

/// A driver killed in the middle of back-to-back release storms: no
/// work between crossings, so at any instant a release fan-out is
/// routing shard batches at the drivers' queues or the drivers are
/// draining them. The waits are unbounded and no timer runs — a batch
/// stranded behind the dead driver's last drain would hang the run
/// instead of being papered over by a deadline re-poll.
#[test]
fn chaos_kill_during_release_storm_strands_nothing() {
    let p: u32 = 4096;
    let episodes: u32 = 300;
    for (round, kill_at) in [3u32, 40, 41, 150].into_iter().enumerate() {
        let b = AsyncBarrier::new(p, 8);
        let exec = Executor::new(3);
        for tid in 0..p {
            let b = b.clone();
            exec.spawn(async move {
                let mut w = b.waiter_for(tid);
                for _ in 0..episodes {
                    w.wait_async().await.expect("storm crossing failed");
                }
            });
        }
        let t0 = Instant::now();
        while b.epoch() < kill_at && t0.elapsed() < Duration::from_secs(120) {
            std::thread::yield_now();
        }
        let victim = round % 3;
        assert!(exec.kill_driver(victim), "driver {victim} killed once");
        assert!(
            exec.wait_idle(Deadline::after(Duration::from_secs(240))),
            "round {round}: stranded at epoch {} of {episodes}, {} tasks live, {:?}\n{}",
            b.epoch(),
            exec.active(),
            exec.stats(),
            b.debug_state()
        );
        assert_eq!(exec.panics(), 0, "no task panicked");
        assert_eq!(exec.live_drivers(), 2, "exactly one driver died");
        assert_eq!(b.epoch(), episodes, "every epoch released exactly once");
        assert!(!b.is_poisoned());
        eprintln!(
            "storm round {round}: killed {victim} at epoch >= {kill_at}: {:?}",
            exec.stats()
        );
    }
}

mod mux_soak {
    use super::*;
    use combar_net::{EpochServer, MuxConfig, ServerConfig, SessionMux};

    /// Churn soak over the network bridge: mux tasks multiplex client
    /// sessions on the shared executor, scripted sessions cancel
    /// mid-epoch and rejoin, the wire is lossy, and one driver dies
    /// mid-run. Exactly-once episode accounting must survive all of it.
    #[test]
    fn mux_churn_soak_exactly_once_ledger() {
        let soak = env_set("COMBAR_SOAK");
        if !soak {
            eprintln!("COMBAR_SOAK unset; running the bounded smoke variant");
        }
        let (sessions, episodes, loss) = if soak {
            (48, 120, 0.05)
        } else {
            (12, 20, 0.02)
        };
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            ..ServerConfig::default()
        });
        let cfg = MuxConfig {
            sessions,
            episodes,
            chaos: Some(combar_chaos::NetChaosConfig::lossy(0xa57c, loss)),
            cancel: (0..sessions).filter(|s| s % 5 == 2).collect(),
            script_after: episodes / 3,
            ..MuxConfig::default()
        };
        let exec = Executor::new(3);
        let report = std::thread::scope(|scope| {
            // One driver dies while traffic is in flight; the surviving
            // two keep every session's state machine moving.
            scope.spawn(|| {
                let deadline = Instant::now() + Duration::from_secs(60);
                while server.episodes_released() < episodes / 4 {
                    assert!(Instant::now() < deadline, "server made no progress");
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(exec.kill_driver(0));
            });
            SessionMux::drive(&exec, |_| Box::new(server.connect()), &cfg)
        });
        assert_eq!(
            report.totals().episodes,
            cfg.sessions * cfg.episodes,
            "every session finished its quota"
        );
        assert_eq!(
            report.cancels,
            cfg.cancel.len() as u64,
            "every scripted cancel performed"
        );
        let rejoins = report.totals().rejoins;
        assert!(
            rejoins >= report.cancels,
            "every cancel rejoined ({rejoins} rejoins, {} cancels)",
            report.cancels
        );
        report.assert_ledger(&server, &cfg);
        assert!(server.episodes_released() >= cfg.episodes);
        server.shutdown();
    }
}
