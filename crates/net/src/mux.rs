//! Async session multiplexer: [`crate::traffic`]'s driver loop restated
//! as a task on the `combar-rt` executor.
//!
//! The threaded traffic generator dedicates one OS thread per driver
//! and spins its round loop; this module packages the same two-phase
//! loop — (re)send every owed arrival, then one short bounded poll per
//! in-flight session — as a single future, so *one process* can stack
//! many [`SessionMux`] tasks onto a handful of
//! [`combar_rt::Executor`] drivers next to hundreds of thousands of
//! in-process [`combar_rt::AsyncBarrier`] participants. That is the
//! bridge between the async epoch runtime and the networked epoch
//! server: logical participants and networked sessions are the same
//! commodity, multiplexed by the same drivers.
//!
//! Two rules keep the cooperative loop honest:
//!
//! * **Never park on one session.** [`BarrierClient::poll_release`]
//!   is called with a small budget (zero is one non-blocking look at
//!   the wire) so each session costs microseconds per round, and
//!   the task [`yield_now`]s between rounds — a mux that blocked on
//!   session B's release while its session A still owed an arrival
//!   would wedge every driver transitively (the distributed
//!   self-deadlock [`crate::traffic`] documents).
//! * **Pace, don't sleep.** Arrival re-sends are scheduled with
//!   [`JitterBackoff::next_deadline`] — the non-blocking form — against
//!   a clock sampled once per round; only an entirely idle round parks
//!   the task, on the shared [`Timer`], never on the OS clock.
//!
//! Churn is scripted the same way the threaded generator scripts kills:
//! sessions in [`MuxConfig::churn`] *cancel mid-epoch* — they leave at
//! an episode boundary with an arrival possibly still in flight — and
//! rejoin on the next round, exercising the server's exactly-once
//! ledger under client-initiated membership churn.

use std::time::{Duration, Instant};

use combar_chaos::{NetChaosConfig, NetFaultPlan};
use combar_rng::stats::nearest_rank;
use combar_rt::{yield_now, BarrierError, JitterBackoff, Timer};

use crate::client::{BarrierClient, ClientConfig};
use crate::faulty::FaultyTransport;
use crate::proto::SessionId;
use crate::server::EpochServer;
use crate::transport::Transport;

/// Shape of one multiplexed session group.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Session ids `first_session .. first_session + sessions`.
    pub sessions: u64,
    /// First session id (ids double as chaos stream seeds).
    pub first_session: u64,
    /// Episodes every session must complete.
    pub episodes: u64,
    /// Per-client retry tuning. Keep `request_timeout` and
    /// `max_attempts` small: `rejoin` blocks the driver for at most
    /// roughly their product, so milliseconds-scale settings keep the
    /// executor cooperative.
    pub client: ClientConfig,
    /// Wire chaos applied to every connection (client side), or `None`
    /// for a clean wire.
    pub chaos: Option<NetChaosConfig>,
    /// Per-session budget of one release poll; zero looks at the wire
    /// once without waiting.
    pub poll: Duration,
    /// How long an entirely idle round parks the task on the timer.
    pub nap: Duration,
    /// Sessions that cancel mid-run: leave (with an arrival possibly
    /// in flight) after completing [`MuxConfig::churn_after`] episodes,
    /// then rejoin and finish their quota.
    pub churn: Vec<SessionId>,
    /// Episodes a churning session completes before it cancels.
    pub churn_after: u64,
}

impl Default for MuxConfig {
    fn default() -> Self {
        Self {
            sessions: 8,
            first_session: 0,
            episodes: 25,
            client: ClientConfig {
                request_timeout: Duration::from_millis(2),
                backoff_base: Duration::from_micros(500),
                backoff_max: Duration::from_millis(2),
                max_attempts: 10,
            },
            chaos: None,
            poll: Duration::from_micros(10),
            nap: Duration::from_micros(200),
            churn: Vec::new(),
            churn_after: 0,
        }
    }
}

/// One session's view of its run — the client half of the ledger a
/// test reconciles against [`EpochServer::session_stats`]. The server
/// misses *voluntary* churn (an orderly `Leave` removes the session
/// outright, so the rejoin `Hello` finds no tombstone to count), so
/// exactly-once accounting needs the client-side rejoin count carried
/// here.
#[derive(Debug, Clone, Copy)]
pub struct SessionOutcome {
    /// The session id.
    pub session: SessionId,
    /// Episodes the client observed released.
    pub done: u64,
    /// The client's retry / eviction / rejoin counters.
    pub stats: crate::client::ClientStats,
}

/// Outcome of one [`SessionMux::run`].
#[derive(Debug, Clone, Default)]
pub struct MuxReport {
    /// Per-session completion counts and client-side ledger counters.
    pub completed: Vec<SessionOutcome>,
    /// Arrive→release latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Total client-side request re-sends.
    pub retries: u64,
    /// Total evictions observed by clients.
    pub evictions: u64,
    /// Total successful rejoins (evictions healed plus churn
    /// re-admissions).
    pub rejoins: u64,
    /// Scripted cancels actually performed.
    pub cancels: u64,
}

impl MuxReport {
    /// Completed episodes summed over all sessions.
    pub fn total_episodes(&self) -> u64 {
        self.completed.iter().map(|o| o.done).sum()
    }

    /// The `p`-th percentile latency (0 ≤ p ≤ 100), or 0 if empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        nearest_rank(&self.latencies_us, p / 100.0).unwrap_or(0)
    }

    /// Folds another report (e.g. a peer mux task's) into this one.
    pub fn merge(&mut self, other: &MuxReport) {
        self.completed.extend(other.completed.iter().copied());
        self.latencies_us.extend(other.latencies_us.iter().copied());
        self.latencies_us.sort_unstable();
        self.retries += other.retries;
        self.evictions += other.evictions;
        self.rejoins += other.rejoins;
        self.cancels += other.cancels;
    }
}

struct MuxSession {
    client: BarrierClient<Box<dyn Transport>>,
    done: u64,
    in_flight: Option<Instant>,
    /// When the in-flight arrival is next re-sent (idempotently) —
    /// jitter-paced so a thundering herd of re-sends decorrelates.
    resend_at: Instant,
    backoff: JitterBackoff,
    /// Scripted cancel still owed (None once performed or never due).
    cancel_at: Option<u64>,
}

impl MuxSession {
    fn fresh_backoff(sid: SessionId, cfg: &MuxConfig) -> JitterBackoff {
        JitterBackoff::new(
            sid ^ 0x6d75_785f,
            cfg.client.request_timeout,
            cfg.client.request_timeout * 8,
        )
    }
}

/// A group of client sessions driven by one async task.
pub struct SessionMux {
    cfg: MuxConfig,
    sessions: Vec<MuxSession>,
    cancels: u64,
}

impl SessionMux {
    /// Connects the `part`-th of `parts` equal slices of
    /// [`MuxConfig::sessions`] (session id modulo `parts`), each on its
    /// own loopback connection, decorated with a [`FaultyTransport`]
    /// when chaos is configured. The chaos stream seeds (`2·sid`,
    /// `2·sid + 1`) match [`crate::traffic`], so a mux run replays the
    /// same wire schedule as a threaded run of the same config.
    pub fn connect(server: &EpochServer, cfg: &MuxConfig, part: usize, parts: usize) -> Self {
        assert!(parts >= 1 && part < parts);
        let sessions = (cfg.first_session..cfg.first_session + cfg.sessions)
            .filter(|sid| (sid - cfg.first_session) as usize % parts == part)
            .map(|sid| {
                let base = server.connect();
                let transport: Box<dyn Transport> = match &cfg.chaos {
                    Some(chaos) => Box::new(FaultyTransport::new(
                        base,
                        NetFaultPlan::new(*chaos),
                        2 * sid,
                        2 * sid + 1,
                    )),
                    None => Box::new(base),
                };
                MuxSession {
                    client: BarrierClient::new(transport, sid, cfg.client),
                    done: 0,
                    in_flight: None,
                    resend_at: Instant::now(),
                    backoff: MuxSession::fresh_backoff(sid, cfg),
                    cancel_at: cfg
                        .churn
                        .contains(&sid)
                        .then_some(cfg.churn_after.min(cfg.episodes.saturating_sub(1))),
                }
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            sessions,
            cancels: 0,
        }
    }

    /// Joins every session (blocking; call before spawning the future
    /// onto an executor so admission retries never stall a driver).
    ///
    /// # Panics
    ///
    /// Panics if a session exhausts its attempt budget.
    pub fn join_all(&mut self) {
        for s in &mut self.sessions {
            s.client
                .join()
                .unwrap_or_else(|e| panic!("session {} failed to join: {e:?}", s.client.session()));
        }
    }

    /// Drives every session to its episode quota and reports.
    ///
    /// # Panics
    ///
    /// Panics on a non-recoverable error (`Poisoned`, or a rejoin
    /// rejected outright) — a wedged epoch is a test failure, not a
    /// hang.
    pub async fn run(mut self, timer: Timer) -> MuxReport {
        let mut latencies = Vec::new();
        while self.sessions.iter().any(|s| s.done < self.cfg.episodes) {
            let mut progress = false;
            // Phase 1: cancel the scripted, rejoin the evicted, (re)send
            // every owed arrival. One clock sample paces the round.
            let now = Instant::now();
            let episodes = self.cfg.episodes;
            for s in self.sessions.iter_mut().filter(|s| s.done < episodes) {
                if s.cancel_at == Some(s.done) {
                    // Cancel mid-epoch: the arrival (if any) stays on
                    // the server's books; Leave folds it out at the
                    // boundary. Rejoin next round.
                    s.cancel_at = None;
                    s.in_flight = None;
                    self.cancels += 1;
                    let _ = s.client.leave();
                    progress = true;
                    continue;
                }
                if !s.client.is_joined() {
                    match s.client.rejoin() {
                        Ok(_) => {
                            s.in_flight = None;
                            progress = true;
                        }
                        Err(BarrierError::Timeout) => {} // next round
                        Err(e) => panic!("session {} rejoin: {e:?}", s.client.session()),
                    }
                    continue;
                }
                if s.in_flight.is_none() || now >= s.resend_at {
                    match s.client.send_arrive() {
                        Ok(()) => {
                            s.resend_at = s.backoff.next_deadline(now);
                            if s.in_flight.is_none() {
                                s.in_flight = Some(now);
                                progress = true;
                            }
                        }
                        Err(BarrierError::Evicted) => {} // rejoin next round
                        Err(e) => panic!("session {}: {e:?}", s.client.session()),
                    }
                }
            }
            // Phase 2: one bounded poll per in-flight session.
            for s in self.sessions.iter_mut().filter(|s| s.done < episodes) {
                let Some(t0) = s.in_flight else { continue };
                match s.client.poll_release(self.cfg.poll) {
                    Ok(_) => {
                        latencies.push(t0.elapsed().as_micros() as u64);
                        s.done += 1;
                        s.in_flight = None;
                        s.backoff = MuxSession::fresh_backoff(s.client.session(), &self.cfg);
                        progress = true;
                        if s.done >= episodes {
                            // Orderly departure so peers never wait on a
                            // finished session.
                            let _ = s.client.leave();
                        }
                    }
                    Err(BarrierError::Evicted) => {
                        s.in_flight = None; // rejoin next round
                        progress = true;
                    }
                    Err(BarrierError::Timeout) => {} // not yet
                    Err(e) => panic!("session {}: {e:?}", s.client.session()),
                }
            }
            if progress {
                // Stay hot but let peer tasks on this driver run.
                yield_now().await;
            } else {
                // Nothing moved: park on the timer, not the OS clock.
                timer.sleep(self.cfg.nap).await;
            }
        }
        latencies.sort_unstable();
        let mut report = MuxReport {
            latencies_us: latencies,
            cancels: self.cancels,
            ..MuxReport::default()
        };
        for s in &self.sessions {
            let st = s.client.stats();
            report.completed.push(SessionOutcome {
                session: s.client.session(),
                done: s.done,
                stats: st,
            });
            report.retries += st.retries;
            report.evictions += st.evictions;
            report.rejoins += st.rejoins;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use combar_rt::{Deadline, Executor};
    use std::sync::{Arc, Mutex};

    /// Spawns `parts` mux tasks over `exec` and merges their reports.
    fn run_mux(server: &EpochServer, cfg: &MuxConfig, exec: &Executor, parts: usize) -> MuxReport {
        let timer = Timer::new();
        let reports = Arc::new(Mutex::new(MuxReport::default()));
        for part in 0..parts {
            let mut mux = SessionMux::connect(server, cfg, part, parts);
            mux.join_all();
            let timer = timer.clone();
            let reports = Arc::clone(&reports);
            exec.spawn(async move {
                let r = mux.run(timer).await;
                reports.lock().unwrap().merge(&r);
            });
        }
        assert!(
            exec.wait_idle(Deadline::after(Duration::from_secs(240))),
            "mux tasks failed to drain"
        );
        assert_eq!(exec.panics(), 0, "mux task panicked");
        let r = reports.lock().unwrap().clone();
        r
    }

    /// Every session's server-side ledger is exactly-once, reconciled
    /// against the client's view:
    ///
    /// * the server never credits more episodes than the client saw
    ///   released, except the one a scripted cancel abandoned in flight
    ///   (arrival released, client gone before the ack);
    /// * the server is never behind by more than one proxy-credited
    ///   episode per service interruption — the initial join plus each
    ///   rejoin (client-counted: the server cannot see voluntary churn).
    fn assert_ledger(server: &EpochServer, cfg: &MuxConfig, report: &MuxReport) {
        let stats = server.session_stats();
        for o in &report.completed {
            let st = stats.get(&o.session).copied().unwrap_or_default();
            let abandoned = u64::from(cfg.churn.contains(&o.session));
            assert!(
                st.completed <= o.done + abandoned,
                "session {}: server credited {} > client {} (+{abandoned})",
                o.session,
                st.completed,
                o.done
            );
            assert!(
                st.completed + 1 + st.evictions + o.stats.rejoins >= o.done,
                "session {}: ledger {st:?} + client {:?} cannot explain {} completions",
                o.session,
                o.stats,
                o.done
            );
        }
    }

    /// Pins the first `assert_ledger` slack term — the `+ 1` in the
    /// lower bound — at exact equality: a session's *joining* epoch is
    /// completed by its join-side proxy arrival, which deliberately
    /// does not tick the server's `completed` counter, while the client
    /// counts the (re-acked) release as done. One solo session whose
    /// join epoch provably releases before its first explicit arrival
    /// lands exhibits exactly `completed + 1 == done` — no more, no
    /// less — with zero evictions and rejoins, so nothing else can be
    /// hiding in the term.
    #[test]
    fn join_proxy_slack_is_exactly_one_episode() {
        let server = EpochServer::start(ServerConfig {
            shards: 1,
            tick: Duration::from_micros(200),
            lease: combar_rt::SupervisorConfig {
                min_grace: Duration::from_millis(200),
                sigma_mult: 4.0,
                max_misses: 3,
            },
            ..ServerConfig::default()
        });
        let cfg = MuxConfig {
            sessions: 1,
            episodes: 10,
            ..MuxConfig::default()
        };
        let timer = Timer::new();
        let exec = Executor::new(1);
        let mut mux = SessionMux::connect(&server, &cfg, 0, 1);
        mux.join_all();
        // A solo session's admission completes its joining epoch by
        // proxy at once; waiting here guarantees that release happened
        // before the mux sends the first explicit arrival, so the
        // explicit arrive is answered by a `Release` re-ack instead of
        // upgrading the proxy.
        std::thread::sleep(Duration::from_millis(10));
        let reports = Arc::new(Mutex::new(MuxReport::default()));
        {
            let timer = timer.clone();
            let reports = Arc::clone(&reports);
            exec.spawn(async move {
                let r = mux.run(timer).await;
                reports.lock().unwrap().merge(&r);
            });
        }
        assert!(exec.wait_idle(Deadline::after(Duration::from_secs(60))));
        assert_eq!(exec.panics(), 0);
        let report = reports.lock().unwrap().clone();
        let o = report.completed[0];
        assert_eq!(o.done, 10);
        let st = server.session_stats()[&o.session];
        assert_eq!(st.evictions, 0, "no lease noise may pollute the term");
        assert_eq!(o.stats.rejoins, 0);
        assert_eq!(
            st.completed + 1,
            o.done,
            "the join-proxy epoch must be exactly the one uncredited episode"
        );
        assert_ledger(&server, &cfg, &report);
        server.shutdown();
    }

    /// Pins the second `assert_ledger` slack term — `abandoned` in the
    /// upper bound — at exact equality: a scripted cancel whose
    /// in-flight arrival *releases* the epoch before the `Leave` frame
    /// is processed leaves the server crediting exactly one episode the
    /// client never saw acked (`completed == done + 1`).
    ///
    /// The interleaving is driven by hand on one shard (the shard's
    /// inbox is FIFO across connections, so send order from this thread
    /// is processing order), because the term is inherently a race in
    /// the mux loop: canceling *before* the releasing arrival would
    /// fold the arrival out with the session and no slack would arise.
    /// The canceller is also made to tick its joining epoch explicitly
    /// (its upgrade lands while a pacer still owes an arrival), so the
    /// join-proxy term from the test above provably contributes zero
    /// here and the `+1` measured is the abandoned episode alone.
    #[test]
    fn cancel_abandoned_arrival_is_credited_exactly_once_beyond_client() {
        use crate::transport::Transport;
        let server = EpochServer::start(ServerConfig {
            shards: 1,
            tick: Duration::from_micros(200),
            lease: combar_rt::SupervisorConfig {
                min_grace: Duration::from_millis(200),
                sigma_mult: 4.0,
                max_misses: 3,
            },
            ..ServerConfig::default()
        });
        let client_cfg = ClientConfig::default();
        let mk = |sid| {
            BarrierClient::new(
                Box::new(server.connect()) as Box<dyn Transport>,
                sid,
                client_cfg,
            )
        };
        let (mut a, mut c, mut d) = (mk(1), mk(2), mk(3));
        // Pacer c joins alone: epoch 0 releases at once by its join
        // proxy. c's arrival for it is answered by `Release{0}`, which
        // only a shard that has opened epoch 1 can have sent (a re-ack,
        // or the release its own fan-out just made), so d's `Hello`
        // provably lands at epoch 1 — an epoch held open by exactly one
        // owed arrival (c's).
        c.join().unwrap();
        assert_eq!(c.arrive().unwrap(), 0); // c now owes epoch 1
        d.join().unwrap();
        d.send_arrive().unwrap(); // d upgrades its join proxy: explicit
        a.join().unwrap(); // admitted mid-epoch-1 (proxy), epoch waits on c
        a.send_arrive().unwrap(); // a upgrades too: join epoch ticks explicitly
        c.send_arrive().unwrap(); // last owed arrival: epoch 1 releases
        assert_eq!(a.await_release().unwrap(), 1);
        assert_eq!(c.await_release().unwrap(), 1);
        assert_eq!(d.await_release().unwrap(), 1);
        // Three clean epochs, canceller never last so every tick is
        // explicit and fully acked.
        for epoch in 2..=4 {
            a.send_arrive().unwrap();
            d.send_arrive().unwrap();
            c.send_arrive().unwrap();
            assert_eq!(a.await_release().unwrap(), epoch);
            assert_eq!(c.await_release().unwrap(), epoch);
            assert_eq!(d.await_release().unwrap(), epoch);
        }
        // The cancel: a's arrival is the releasing one, then a leaves
        // without ever polling the ack.
        d.send_arrive().unwrap();
        c.send_arrive().unwrap();
        a.send_arrive().unwrap(); // releases epoch 5, credits a

        // The slack term needs the shard to process its own queued
        // `Release` (which ticks a's `completed`) before the `Leave`
        // folds a out. The credit is made inside that fan-out, so
        // seeing it on the ledger orders the two.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.session_stats()[&1].completed != 5 {
            assert!(Instant::now() < deadline, "epoch 5 never credited a");
            std::thread::yield_now();
        }
        a.leave().unwrap(); // processed after the release: gone before the ack
        assert_eq!(c.await_release().unwrap(), 5);
        assert_eq!(d.await_release().unwrap(), 5);
        let done_a = a.stats().episodes;
        assert_eq!(done_a, 4, "a acked epochs 1..=4 only");
        let st = server.session_stats()[&1];
        assert_eq!(st.evictions, 0, "orderly leave, not a lease lapse");
        assert_eq!(a.stats().rejoins, 0);
        assert_eq!(
            st.completed,
            done_a + 1,
            "exactly the abandoned in-flight episode is credited beyond the client"
        );
        server.shutdown();
    }

    #[test]
    fn clean_wire_mux_completes() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            ..ServerConfig::default()
        });
        let cfg = MuxConfig {
            sessions: 16,
            episodes: 25,
            ..MuxConfig::default()
        };
        let exec = Executor::new(2);
        let report = run_mux(&server, &cfg, &exec, 4);
        assert_eq!(report.total_episodes(), 16 * 25);
        assert_eq!(report.completed.len(), 16);
        assert!(report.latencies_us.len() as u64 >= 16 * 25);
        assert!(report.percentile_us(99.0) >= report.percentile_us(50.0));
        assert_ledger(&server, &cfg, &report);
        server.shutdown();
    }

    /// A zero poll budget is one non-blocking look per session per
    /// round, through the fault decorator too (a quiet plan, so the
    /// decorator is in the path and the test is not a lossy soak).
    #[test]
    fn zero_poll_budget_still_reads_the_wire() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            ..ServerConfig::default()
        });
        let cfg = MuxConfig {
            sessions: 8,
            episodes: 10,
            poll: Duration::ZERO,
            chaos: Some(NetChaosConfig::lossy(1, 0.0)),
            ..MuxConfig::default()
        };
        let exec = Executor::new(2);
        let report = run_mux(&server, &cfg, &exec, 2);
        assert_eq!(report.total_episodes(), 8 * 10);
        assert_ledger(&server, &cfg, &report);
        server.shutdown();
    }

    #[test]
    fn churned_sessions_cancel_rejoin_and_finish() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            ..ServerConfig::default()
        });
        let cfg = MuxConfig {
            sessions: 8,
            episodes: 20,
            churn: vec![1, 4, 6],
            churn_after: 7,
            ..MuxConfig::default()
        };
        let exec = Executor::new(2);
        let report = run_mux(&server, &cfg, &exec, 2);
        assert_eq!(report.cancels, 3, "every scripted cancel performed");
        assert!(report.rejoins >= 3, "every cancel rejoined");
        assert_eq!(report.total_episodes(), 8 * 20, "cancellers finish too");
        assert_ledger(&server, &cfg, &report);
        server.shutdown();
    }

    #[test]
    fn lossy_wire_mux_recovers() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            ..ServerConfig::default()
        });
        let cfg = MuxConfig {
            sessions: 8,
            episodes: 15,
            chaos: Some(NetChaosConfig::lossy(0x6d75785f, 0.05)),
            ..MuxConfig::default()
        };
        let exec = Executor::new(2);
        let report = run_mux(&server, &cfg, &exec, 2);
        assert_eq!(report.total_episodes(), 8 * 15);
        assert_ledger(&server, &cfg, &report);
        server.shutdown();
    }
}
