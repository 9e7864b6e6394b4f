//! Traffic generator: drives many client sessions against an
//! [`EpochServer`] from a bounded pool of driver threads.
//!
//! Sessions vastly outnumber threads: each driver owns
//! `sessions / drivers` clients (each on its own loopback connection,
//! optionally decorated with a [`FaultyTransport`]) and multiplexes
//! them in two phases per round — send every arrival, then await every
//! release — which is exactly what the split
//! [`BarrierClient::send_arrive`] / [`BarrierClient::await_release`]
//! API exists for. Thousands of sessions run on a handful of threads.
//!
//! Churn is built in: sessions listed in [`TrafficConfig::kill`] go
//! silent (no `Leave` — a crash, not a goodbye) after completing
//! [`TrafficConfig::kill_after`] episodes, exercising the server's
//! lease eviction while the survivors keep completing episodes.
//! Evicted survivors (e.g. orphans of a stalled shard) rejoin and
//! continue.
//!
//! The report aggregates per-session completion counts, client retry /
//! eviction / rejoin counters, and the arrive→release latency
//! distribution (microseconds, sorted, with percentile accessors).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use combar_chaos::{NetChaosConfig, NetFaultPlan};
use combar_rng::stats::nearest_rank;

use crate::client::{BarrierClient, ClientConfig};
use crate::faulty::FaultyTransport;
use crate::proto::SessionId;
use crate::server::EpochServer;
use crate::transport::Transport;
use combar_rt::BarrierError;

/// What to drive against the server.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Session ids `first_session .. first_session + sessions`.
    pub sessions: u64,
    /// First session id (ids double as chaos stream seeds).
    pub first_session: u64,
    /// Driver threads the sessions are multiplexed over.
    pub drivers: usize,
    /// Episodes every surviving session must complete.
    pub episodes: u64,
    /// Per-client retry tuning.
    pub client: ClientConfig,
    /// Wire chaos applied to every connection (client side), or `None`
    /// for a clean wire.
    pub chaos: Option<NetChaosConfig>,
    /// Sessions that crash (go silent) mid-run.
    pub kill: Vec<SessionId>,
    /// Episodes a to-be-killed session completes before going silent.
    pub kill_after: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            sessions: 8,
            first_session: 0,
            drivers: 2,
            episodes: 50,
            client: ClientConfig::default(),
            chaos: None,
            kill: Vec::new(),
            kill_after: 0,
        }
    }
}

/// Aggregated outcome of a traffic run.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Episodes completed per session (killed sessions stop at their
    /// kill point).
    pub completed: HashMap<SessionId, u64>,
    /// Arrive→release latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Total client-side request re-sends.
    pub retries: u64,
    /// Total evictions observed by clients.
    pub evictions: u64,
    /// Total successful rejoins.
    pub rejoins: u64,
    /// Total successful `Resume` handshakes (server-restart ride-throughs).
    pub resumes: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl TrafficReport {
    /// The `p`-th percentile latency (0 ≤ p ≤ 100), or 0 if empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        nearest_rank(&self.latencies_us, p / 100.0).unwrap_or(0)
    }

    /// Completed episodes summed over all sessions.
    pub fn total_episodes(&self) -> u64 {
        self.completed.values().sum()
    }

    /// Whether every session outside `kill` completed at least
    /// `episodes`.
    pub fn survivors_done(&self, cfg: &TrafficConfig) -> bool {
        (cfg.first_session..cfg.first_session + cfg.sessions)
            .filter(|s| !cfg.kill.contains(s))
            .all(|s| self.completed.get(&s).copied().unwrap_or(0) >= cfg.episodes)
    }
}

/// One driver thread's raw outcome: per-session completion counts,
/// latencies (µs), then retry / eviction / rejoin / resume totals.
type DriverOutcome = (Vec<(SessionId, u64)>, Vec<u64>, u64, u64, u64, u64);

struct DrivenSession {
    client: BarrierClient<Box<dyn Transport>>,
    done: u64,
    target: u64,
    in_flight: Option<Instant>,
    /// When the in-flight arrival was last put on the wire — re-sent
    /// (idempotently) after a request-timeout of silence, which also
    /// renews the session lease while the barrier waits on peers.
    last_send: Instant,
}

/// Runs the configured traffic to completion and reports.
///
/// Panics if a surviving session hits a non-recoverable error
/// (`Poisoned`) or cannot rejoin after eviction within the client's
/// attempt budget — a wedged epoch shows up as a test failure, not a
/// hang.
pub fn drive(server: &EpochServer, cfg: &TrafficConfig) -> TrafficReport {
    drive_with(|_| Box::new(server.connect()), cfg)
}

/// [`drive`] generalized over how sessions reach the server: `connect`
/// mints a base transport per session — a plain loopback, a
/// [`ReconnectTransport`](crate::ReconnectTransport) into a failover
/// cluster, anything. Wire chaos from [`TrafficConfig::chaos`] is
/// layered on top of whatever `connect` returns.
pub fn drive_with(
    connect: impl Fn(SessionId) -> Box<dyn Transport> + Sync,
    cfg: &TrafficConfig,
) -> TrafficReport {
    assert!(cfg.drivers >= 1 && cfg.sessions >= 1);
    let started = Instant::now();
    let connect = &connect;
    let results: Vec<DriverOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.drivers)
            .map(|d| {
                let cfg = cfg.clone();
                scope.spawn(move || drive_one(connect, &cfg, d))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut report = TrafficReport {
        completed: HashMap::new(),
        latencies_us: Vec::new(),
        retries: 0,
        evictions: 0,
        rejoins: 0,
        resumes: 0,
        elapsed: started.elapsed(),
    };
    for (completed, lats, retries, evictions, rejoins, resumes) in results {
        report.completed.extend(completed);
        report.latencies_us.extend(lats);
        report.retries += retries;
        report.evictions += evictions;
        report.rejoins += rejoins;
        report.resumes += resumes;
    }
    report.latencies_us.sort_unstable();
    report
}

fn drive_one(
    connect: &(impl Fn(SessionId) -> Box<dyn Transport> + Sync),
    cfg: &TrafficConfig,
    driver: usize,
) -> DriverOutcome {
    // Connect this driver's slice of sessions.
    let mut sessions: Vec<DrivenSession> = (cfg.first_session..cfg.first_session + cfg.sessions)
        .filter(|sid| (sid - cfg.first_session) as usize % cfg.drivers == driver)
        .map(|sid| {
            let base = connect(sid);
            let transport: Box<dyn Transport> = match &cfg.chaos {
                Some(chaos) => Box::new(FaultyTransport::new(
                    base,
                    NetFaultPlan::new(*chaos),
                    2 * sid,
                    2 * sid + 1,
                )),
                None => Box::new(base),
            };
            let target = if cfg.kill.contains(&sid) {
                cfg.kill_after.min(cfg.episodes)
            } else {
                cfg.episodes
            };
            DrivenSession {
                client: BarrierClient::new(transport, sid, cfg.client),
                done: 0,
                target,
                in_flight: None,
                last_send: Instant::now(),
            }
        })
        .collect();
    for s in &mut sessions {
        s.client
            .join()
            .unwrap_or_else(|e| panic!("session {} failed to join: {e:?}", s.client.session()));
    }
    let mut latencies = Vec::new();
    // The driver is a round-robin multiplexer: each round (re)sends
    // every owed arrival, then gives each in-flight session one short
    // poll for its release. It never parks on a single session — a
    // driver that blocked on session B's release while its session A
    // still owed the server an arrival would wedge every other driver
    // too (their sessions wait on A), a distributed self-deadlock that
    // only lease evictions could break.
    let poll = Duration::from_millis(1);
    while sessions.iter().any(|s| s.done < s.target) {
        // Phase 1: rejoin the evicted, (re)send every owed arrival.
        for s in sessions.iter_mut().filter(|s| s.done < s.target) {
            if !s.client.is_joined() {
                match s.client.rejoin() {
                    Ok(_) => s.in_flight = None,
                    Err(BarrierError::Timeout) => {} // next round
                    Err(e) => panic!("session {} rejoin: {e:?}", s.client.session()),
                }
                continue;
            }
            let resend =
                s.in_flight.is_some() && s.last_send.elapsed() >= cfg.client.request_timeout;
            if s.in_flight.is_none() || resend {
                match s.client.send_arrive() {
                    Ok(()) => {
                        s.last_send = Instant::now();
                        if s.in_flight.is_none() {
                            s.in_flight = Some(s.last_send);
                        }
                    }
                    Err(BarrierError::Evicted) => {} // rejoin next round
                    Err(e) => panic!("session {}: {e:?}", s.client.session()),
                }
            }
        }
        // Phase 2: one bounded poll per in-flight session.
        for s in sessions.iter_mut().filter(|s| s.done < s.target) {
            let Some(t0) = s.in_flight else { continue };
            match s.client.poll_release(poll) {
                Ok(_) => {
                    latencies.push(t0.elapsed().as_micros() as u64);
                    s.done += 1;
                    s.in_flight = None;
                    if s.done >= s.target {
                        if cfg.kill.contains(&s.client.session()) {
                            // Crash, not goodbye: go silent and let the
                            // lease evict us.
                        } else {
                            // Orderly departure so peers never wait on
                            // a finished session (loss degenerates to a
                            // lease eviction, which is equivalent).
                            let _ = s.client.leave();
                        }
                    }
                }
                Err(BarrierError::Evicted) => {
                    s.in_flight = None; // rejoin next round
                }
                Err(BarrierError::Timeout) => {
                    // Not yet; phase 1 re-sends after enough silence.
                }
                Err(e) => panic!("session {}: {e:?}", s.client.session()),
            }
        }
    }
    let mut completed = Vec::new();
    let (mut retries, mut evictions, mut rejoins, mut resumes) = (0, 0, 0, 0);
    for s in &sessions {
        completed.push((s.client.session(), s.done));
        let st = s.client.stats();
        retries += st.retries;
        evictions += st.evictions;
        rejoins += st.rejoins;
        resumes += st.resumes;
    }
    (completed, latencies, retries, evictions, rejoins, resumes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    #[test]
    fn clean_wire_traffic_completes() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            ..ServerConfig::default()
        });
        let cfg = TrafficConfig {
            sessions: 16,
            drivers: 4,
            episodes: 25,
            ..TrafficConfig::default()
        };
        let report = drive(&server, &cfg);
        assert!(report.survivors_done(&cfg), "{:?}", report.completed);
        assert_eq!(report.total_episodes(), 16 * 25);
        assert!(!report.latencies_us.is_empty());
        assert!(report.percentile_us(99.0) >= report.percentile_us(50.0));
        server.shutdown();
    }

    #[test]
    fn killed_sessions_do_not_wedge_survivors() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            lease: combar_rt::SupervisorConfig {
                min_grace: Duration::from_millis(2),
                sigma_mult: 4.0,
                max_misses: 2,
            },
            ..ServerConfig::default()
        });
        let cfg = TrafficConfig {
            sessions: 8,
            drivers: 2,
            episodes: 30,
            kill: vec![3, 5],
            kill_after: 5,
            ..TrafficConfig::default()
        };
        let report = drive(&server, &cfg);
        assert!(report.survivors_done(&cfg), "{:?}", report.completed);
        assert_eq!(report.completed[&3], 5, "killed session overran");
        server.shutdown();
    }
}
