//! Crash recovery for the epoch server: journal replay, warm standby,
//! and a failover-cluster harness.
//!
//! The write-ahead invariant ([`crate::journal`]) is that every epoch a
//! client could possibly have observed was appended before its release
//! was broadcast. Replay therefore reconstructs a state that is *at or
//! ahead of* anything any client saw:
//!
//! * a client whose last acked epoch equals the replayed epoch resumes
//!   seamlessly (`Resume` → `Resumed`);
//! * a client *behind* the replayed epoch (the crash ate its `Release`
//!   frame, but the append survived) is healed by an idempotent
//!   `Release` re-ack;
//! * a client *ahead* of the replayed epoch proves the journal lost a
//!   durable suffix (truncation, disk rollback) — the server answers
//!   `Diverged` and the client surfaces
//!   [`BarrierError::Diverged`](combar_rt::BarrierError::Diverged)
//!   rather than silently rewinding the epoch stream.
//!
//! Replay cross-checks itself: every `Episode` record carries an
//! order-independent hash of the roster at release time, and [`apply`]
//! recomputes that hash from the membership deltas it replayed. A
//! mismatch means the journal is internally inconsistent and recovery
//! refuses to serve from it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::journal::{next_entry, roster_hash, Journal, JournalError, JournalRecord};
use crate::proto::SessionId;
use crate::server::{EpochServer, ServerConfig, SessionStats};
use crate::transport::{loopback_pair, ReconnectTransport, Transport};

/// Why journal replay refused to produce a servable state.
#[derive(Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// An `Episode` record's roster hash does not match the roster
    /// reconstructed from the membership deltas before it: the journal
    /// is internally inconsistent (lost or reordered deltas) and must
    /// not be served from.
    RosterMismatch {
        /// The episode whose hash failed.
        epoch: u64,
        /// The hash the record carries.
        expected: u64,
        /// The hash replay derived.
        derived: u64,
    },
    /// Reading the journal's backing store failed.
    Journal(JournalError),
}

impl core::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoverError::RosterMismatch {
                epoch,
                expected,
                derived,
            } => write!(
                f,
                "journal replay roster mismatch at epoch {epoch}: \
                 record says {expected:#x}, deltas derive {derived:#x}"
            ),
            RecoverError::Journal(e) => write!(f, "journal replay failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<JournalError> for RecoverError {
    fn from(e: JournalError) -> Self {
        RecoverError::Journal(e)
    }
}

/// One session's replayed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveredSession {
    /// Cumulative service counters as of the last journaled epoch.
    pub stats: SessionStats,
    /// Whether the session was in the live roster when the journal
    /// ended. Live sessions are expected back via `Resume`.
    pub live: bool,
}

/// The state a restarted (or promoted) server resumes from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveredState {
    /// The next epoch to serve: one past the last journaled episode.
    pub epoch: u64,
    /// The highest incarnation the journal has recorded.
    pub incarnation: u64,
    /// Every session the journal knows about.
    pub sessions: BTreeMap<SessionId, RecoveredSession>,
    /// Whether the journal ended in a torn (partially written) entry —
    /// the expected shape after a crash mid-append; the torn suffix is
    /// ignored, which is safe because a torn append was never followed
    /// by a broadcast.
    pub torn_tail: bool,
}

impl RecoveredState {
    /// The live roster implied by the replayed membership deltas.
    pub fn roster(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.sessions
            .iter()
            .filter(|(_, s)| s.live)
            .map(|(&sid, _)| sid)
    }
}

/// Folds one journal record into the replayed state. Standby tails call
/// this incrementally; [`recover`] calls it over the whole journal.
pub fn apply(state: &mut RecoveredState, record: &JournalRecord) -> Result<(), RecoverError> {
    match record {
        JournalRecord::Incarnation { inc } | JournalRecord::Heartbeat { inc } => {
            state.incarnation = state.incarnation.max(*inc);
        }
        JournalRecord::Join {
            session, rejoin, ..
        } => {
            let s = state.sessions.entry(*session).or_default();
            s.live = true;
            if *rejoin {
                s.stats.rejoins += 1;
            }
        }
        JournalRecord::Evict { session, .. } => {
            let s = state.sessions.entry(*session).or_default();
            s.live = false;
            s.stats.evictions += 1;
        }
        JournalRecord::Leave { session, .. } => {
            state.sessions.entry(*session).or_default().live = false;
        }
        JournalRecord::Episode {
            epoch,
            inc,
            roster_hash: expected,
            completers,
        } => {
            // A standby that replays the full journal after already
            // tailing a prefix sees old episodes again; cumulative
            // counters make reapplication harmless, but skipping keeps
            // the hash check honest (the roster has moved on).
            if *epoch < state.epoch {
                return Ok(());
            }
            let derived = roster_hash(state.roster());
            if derived != *expected {
                return Err(RecoverError::RosterMismatch {
                    epoch: *epoch,
                    expected: *expected,
                    derived,
                });
            }
            for &(sid, done) in completers {
                let s = state.sessions.entry(sid).or_default();
                s.stats.completed = s.stats.completed.max(done);
            }
            state.epoch = epoch + 1;
            state.incarnation = state.incarnation.max(*inc);
        }
        JournalRecord::Snapshot {
            epoch,
            inc,
            sessions,
        } => {
            if *epoch < state.epoch {
                return Ok(());
            }
            state.epoch = *epoch;
            state.incarnation = state.incarnation.max(*inc);
            state.sessions = sessions
                .iter()
                .map(|e| {
                    (
                        e.session,
                        RecoveredSession {
                            stats: e.stats,
                            live: e.live,
                        },
                    )
                })
                .collect();
        }
    }
    Ok(())
}

/// Decodes a raw journal byte stream into records plus a torn-tail
/// flag. A torn tail (length prefix or checksum cut short by a crash
/// mid-append) is a clean stop, not an error.
pub fn decode_stream(bytes: &[u8]) -> (Vec<JournalRecord>, bool) {
    let mut records = Vec::new();
    let mut at = 0;
    while let Some((rec, next)) = next_entry(bytes, at) {
        records.push(rec);
        at = next;
    }
    (records, at != bytes.len())
}

/// Replays the whole journal into a [`RecoveredState`].
pub fn recover(journal: &Journal) -> Result<RecoveredState, RecoverError> {
    let bytes = journal.read_all()?;
    let (records, torn) = decode_stream(&bytes);
    let mut state = RecoveredState {
        torn_tail: torn,
        ..RecoveredState::default()
    };
    for rec in &records {
        apply(&mut state, rec)?;
    }
    Ok(state)
}

/// A warm standby: tails the primary's replication stream (framed
/// journal entries teed by the release winner, plus heartbeats from the
/// lowest live shard) and tracks how far behind the primary it is and
/// when the primary was last heard from. Promotion itself goes through
/// [`FailoverCluster::promote`], which re-derives state from the
/// durable journal — the standby's tailed copy is a lag/liveness
/// monitor, never the source of truth, so a lossy replication stream
/// can delay a takeover but never corrupt one.
pub struct Standby {
    inner: Arc<StandbyInner>,
    handle: Option<JoinHandle<()>>,
}

struct StandbyInner {
    state: Mutex<RecoveredState>,
    /// Nanos since `base` when the primary was last heard from.
    last_heard: AtomicU64,
    base: Instant,
    stop: AtomicBool,
}

impl Standby {
    /// Starts tailing `transport`, seeded with `initial` (typically
    /// [`recover`] over the journal so the standby starts warm).
    pub fn spawn(mut transport: Box<dyn Transport>, initial: RecoveredState) -> Standby {
        let inner = Arc::new(StandbyInner {
            state: Mutex::new(initial),
            last_heard: AtomicU64::new(0),
            base: Instant::now(),
            stop: AtomicBool::new(false),
        });
        let tail = inner.clone();
        let handle = std::thread::Builder::new()
            .name("combar-net-standby".into())
            .spawn(move || {
                let mut buf: Vec<u8> = Vec::new();
                while !tail.stop.load(Ordering::Acquire) {
                    match transport.recv_timeout(Duration::from_millis(2)) {
                        Ok(frame) => {
                            // Any frame — even a heartbeat, even one we
                            // cannot yet parse because its tail is in
                            // the next frame — proves the primary is
                            // alive.
                            tail.beat();
                            buf.extend_from_slice(&frame);
                            let mut at = 0;
                            while let Some((rec, next)) = next_entry(&buf, at) {
                                at = next;
                                let mut st = tail.state.lock().unwrap_or_else(|e| e.into_inner());
                                // A tailed stream can carry records the
                                // journal-replayed seed already covers;
                                // apply() skips those. A hash mismatch
                                // here only stalls the monitor — the
                                // promotion path re-derives from the
                                // journal regardless.
                                let _ = apply(&mut st, &rec);
                            }
                            buf.drain(..at);
                        }
                        Err(crate::transport::NetError::Timeout) => {}
                        Err(crate::transport::NetError::Closed) => return,
                    }
                }
            })
            .expect("spawn standby thread");
        Standby {
            inner,
            handle: Some(handle),
        }
    }

    /// Whether the primary has been silent for longer than `grace`.
    /// Heartbeats arrive every server tick, so a well-chosen grace is
    /// several ticks — long enough to ride out scheduling noise, short
    /// enough to take over before clients exhaust their retry budgets.
    pub fn lapsed(&self, grace: Duration) -> bool {
        let heard = Duration::from_nanos(self.inner.last_heard.load(Ordering::Acquire));
        self.inner.base.elapsed().saturating_sub(heard) > grace
    }

    /// The epoch the standby's tailed state has reached (its lag behind
    /// the primary is the primary's epoch minus this).
    pub fn epoch(&self) -> u64 {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .epoch
    }

    /// Stops the tail thread.
    pub fn stop(mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl StandbyInner {
    fn beat(&self) {
        self.last_heard
            .store(self.base.elapsed().as_nanos() as u64, Ordering::Release);
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A one-journal failover cluster: at most one installed primary at a
/// time, a generation counter that tells [`ReconnectTransport`] clients
/// when to redial, and kill/restart/promote chaos hooks. This is the
/// harness the restart soaks drive; real deployments would replace the
/// in-process dial with a network address flip, and nothing else.
pub struct FailoverCluster {
    core: Arc<ClusterCore>,
}

struct ClusterCore {
    journal: Arc<Journal>,
    primary: Mutex<Option<EpochServer>>,
    generation: Arc<AtomicU64>,
    cfg: Mutex<ServerConfig>,
}

impl FailoverCluster {
    /// Starts a journaled primary and wraps it in a cluster handle.
    pub fn start(cfg: ServerConfig, journal: Arc<Journal>) -> FailoverCluster {
        let primary = EpochServer::start_journaled(cfg.clone(), journal.clone());
        FailoverCluster {
            core: Arc::new(ClusterCore {
                journal,
                primary: Mutex::new(Some(primary)),
                generation: Arc::new(AtomicU64::new(1)),
                cfg: Mutex::new(cfg),
            }),
        }
    }

    /// The shared journal.
    pub fn journal(&self) -> Arc<Journal> {
        self.core.journal.clone()
    }

    /// A self-healing client endpoint: dials the current primary and
    /// redials whenever the cluster generation moves (kill, restart,
    /// promotion). During an outage it behaves like a lossy wire.
    pub fn client_transport(&self) -> ReconnectTransport {
        let core = self.core.clone();
        let generation = core.generation.clone();
        ReconnectTransport::new(
            generation.clone(),
            Box::new(move || {
                let primary = core.primary.lock().unwrap_or_else(|e| e.into_inner());
                match primary.as_ref() {
                    Some(srv) if !srv.halted() => Some((
                        Box::new(srv.connect()) as Box<dyn Transport>,
                        core.generation.load(Ordering::Acquire),
                    )),
                    _ => None,
                }
            }),
        )
    }

    /// Kills the primary outright: halts it (ingress drops, shards
    /// exit, clients hear silence) and discards the handle. The journal
    /// survives; nothing else does.
    pub fn kill_primary(&self) {
        let server = {
            let mut primary = self.core.primary.lock().unwrap_or_else(|e| e.into_inner());
            primary.take()
        };
        if let Some(server) = server {
            server.halt();
            drop(server);
        }
        self.core.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Removes the primary from the cluster *without* halting it — the
    /// split-brain chaos hook. The returned server keeps running (a
    /// zombie that believes it is still the authority) while the
    /// cluster installs a successor; the fencing test drives both and
    /// proves the zombie cannot extend the ledger.
    pub fn detach_primary(&self) -> Option<EpochServer> {
        let server = {
            let mut primary = self.core.primary.lock().unwrap_or_else(|e| e.into_inner());
            primary.take()
        };
        self.core.generation.fetch_add(1, Ordering::AcqRel);
        server
    }

    /// Restarts from the journal: replays it, resumes a fresh server at
    /// the recovered epoch (with a new fencing incarnation), installs
    /// it, and bumps the generation so clients redial. Returns the
    /// recovered state the new primary was seeded with.
    pub fn restart_primary(&self) -> Result<RecoveredState, RecoverError> {
        let cfg = self
            .core
            .cfg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        self.restart_primary_with(cfg)
    }

    /// [`restart_primary`](Self::restart_primary) with a config
    /// override (e.g. a different shard count after "replacing the
    /// host" — recovery does not require the old topology).
    pub fn restart_primary_with(&self, cfg: ServerConfig) -> Result<RecoveredState, RecoverError> {
        // Fence *before* reading: claiming a higher incarnation first
        // locks any zombie predecessor out of the journal, so the
        // replay below cannot race a concurrent append — without this,
        // a deposed-but-running primary could journal (and ack!) an
        // epoch after the successor read the journal, and every client
        // that observed it would be told `Diverged` by a successor
        // that is honestly behind. (`resume` bumps again to claim the
        // new server's own incarnation; incarnations need only be
        // monotonic, not dense.)
        self.core
            .journal
            .bump_incarnation()
            .map_err(RecoverError::Journal)?;
        let state = recover(&self.core.journal)?;
        let server = EpochServer::resume(cfg.clone(), self.core.journal.clone(), state.clone());
        {
            let mut primary = self.core.primary.lock().unwrap_or_else(|e| e.into_inner());
            *primary = Some(server);
        }
        *self.core.cfg.lock().unwrap_or_else(|e| e.into_inner()) = cfg;
        self.core.generation.fetch_add(1, Ordering::AcqRel);
        Ok(state)
    }

    /// Attaches a warm standby to the current primary over an
    /// in-process pair: the primary tees journaled batches and
    /// heartbeats to it, and the standby seeds itself from a journal
    /// replay so it starts warm.
    pub fn attach_standby(&self) -> Result<Standby, RecoverError> {
        let seed = recover(&self.core.journal)?;
        let (tee, tail) = loopback_pair();
        {
            let primary = self.core.primary.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(srv) = primary.as_ref() {
                srv.attach_replica(Box::new(tee));
            }
        }
        Ok(Standby::spawn(Box::new(tail), seed))
    }

    /// Promotes a standby: re-derives state from the durable journal
    /// (NOT the standby's possibly-lagging tail), resumes a server with
    /// a fresh incarnation — which fences any zombie predecessor — and
    /// installs it. The standby handle should be stopped by the caller.
    pub fn promote(&self) -> Result<RecoveredState, RecoverError> {
        self.restart_primary()
    }

    /// Runs `f` against the installed primary, if any.
    pub fn with_primary<R>(&self, f: impl FnOnce(&EpochServer) -> R) -> Option<R> {
        let primary = self.core.primary.lock().unwrap_or_else(|e| e.into_inner());
        primary.as_ref().map(f)
    }

    /// Orderly shutdown of whatever primary is installed.
    pub fn shutdown(&self) {
        let server = {
            let mut primary = self.core.primary.lock().unwrap_or_else(|e| e.into_inner());
            primary.take()
        };
        if let Some(server) = server {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::snapshot_record;

    fn ep(epoch: u64, roster: &[SessionId], completers: &[(SessionId, u64)]) -> JournalRecord {
        JournalRecord::Episode {
            epoch,
            inc: 1,
            roster_hash: roster_hash(roster.iter().copied()),
            completers: completers.to_vec(),
        }
    }

    #[test]
    fn replay_reconstructs_epoch_roster_and_counters() {
        let journal = Journal::memory();
        journal
            .append_batch(
                1,
                &[
                    JournalRecord::Incarnation { inc: 1 },
                    JournalRecord::Join {
                        session: 7,
                        epoch: 0,
                        rejoin: false,
                    },
                    JournalRecord::Join {
                        session: 9,
                        epoch: 0,
                        rejoin: false,
                    },
                    ep(0, &[7, 9], &[(7, 1), (9, 1)]),
                    JournalRecord::Evict {
                        session: 9,
                        epoch: 1,
                    },
                    ep(1, &[7], &[(7, 2)]),
                ],
            )
            .unwrap();
        let state = recover(&journal).unwrap();
        assert_eq!(state.epoch, 2);
        assert!(!state.torn_tail);
        assert_eq!(state.roster().collect::<Vec<_>>(), vec![7]);
        assert_eq!(state.sessions[&7].stats.completed, 2);
        assert_eq!(state.sessions[&9].stats.completed, 1);
        assert_eq!(state.sessions[&9].stats.evictions, 1);
        assert!(!state.sessions[&9].live);
    }

    #[test]
    fn replay_rejects_a_roster_hash_mismatch() {
        let journal = Journal::memory();
        journal
            .append_batch(
                1,
                &[
                    JournalRecord::Join {
                        session: 7,
                        epoch: 0,
                        rejoin: false,
                    },
                    // Hash claims sessions {7, 8} but only 7 joined.
                    ep(0, &[7, 8], &[(7, 1)]),
                ],
            )
            .unwrap();
        match recover(&journal) {
            Err(RecoverError::RosterMismatch { epoch: 0, .. }) => {}
            other => panic!("expected roster mismatch, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_a_clean_stop_not_an_error() {
        let journal = Journal::memory();
        journal
            .append_batch(
                1,
                &[
                    JournalRecord::Join {
                        session: 3,
                        epoch: 0,
                        rejoin: false,
                    },
                    ep(0, &[3], &[(3, 1)]),
                ],
            )
            .unwrap();
        journal.truncate_tail(3).unwrap(); // crash mid-append
        let state = recover(&journal).unwrap();
        assert!(state.torn_tail);
        // The Join survived; the torn Episode did not.
        assert_eq!(state.epoch, 0);
        assert!(state.sessions[&3].live);
    }

    #[test]
    fn snapshot_replay_matches_full_history_replay() {
        let journal = Journal::memory();
        journal
            .append_batch(
                1,
                &[
                    JournalRecord::Incarnation { inc: 1 },
                    JournalRecord::Join {
                        session: 1,
                        epoch: 0,
                        rejoin: false,
                    },
                    JournalRecord::Join {
                        session: 2,
                        epoch: 0,
                        rejoin: false,
                    },
                    ep(0, &[1, 2], &[(1, 1), (2, 1)]),
                    ep(1, &[1, 2], &[(1, 2), (2, 2)]),
                ],
            )
            .unwrap();
        let full = recover(&journal).unwrap();
        let sessions: BTreeMap<SessionId, (bool, SessionStats)> = full
            .sessions
            .iter()
            .map(|(&sid, s)| (sid, (s.live, s.stats)))
            .collect();
        let snap = snapshot_record(full.epoch, 1, &sessions);
        journal.compact(1, &snap).unwrap();
        let compacted = recover(&journal).unwrap();
        assert_eq!(compacted.epoch, full.epoch);
        assert_eq!(compacted.sessions, full.sessions);
        // New history appended after the snapshot keeps replaying.
        journal
            .append_batch(1, &[ep(full.epoch, &[1, 2], &[(1, 3), (2, 3)])])
            .unwrap();
        let extended = recover(&journal).unwrap();
        assert_eq!(extended.epoch, full.epoch + 1);
        assert_eq!(extended.sessions[&1].stats.completed, 3);
    }

    #[test]
    fn clients_ride_through_a_kill_and_restart() {
        use crate::client::{BarrierClient, ClientConfig};
        let journal = Journal::memory();
        let cluster = FailoverCluster::start(
            ServerConfig {
                shards: 2,
                tick: Duration::from_micros(200),
                recovery_grace: Duration::from_millis(200),
                ..ServerConfig::default()
            },
            journal,
        );
        let mk = |sid| {
            BarrierClient::new(
                cluster.client_transport(),
                sid,
                ClientConfig {
                    request_timeout: Duration::from_millis(5),
                    max_attempts: 400,
                },
            )
        };
        let (a, b) = (mk(1), mk(2));
        // Clients complete 3 epochs, pause until the restart has
        // happened, then complete 3 more — so the second half provably
        // crosses the crash boundary.
        let restarted = AtomicBool::new(false);
        // A session that is alone completes every episode by itself:
        // nobody arrives until both have joined, or the first could run
        // its three epochs (and trigger the kill) before the second is
        // on the journal's roster.
        let both_joined = std::sync::Barrier::new(2);
        let run = |mut c: BarrierClient<ReconnectTransport>| {
            c.join().unwrap();
            both_joined.wait();
            for _ in 0..3 {
                c.arrive().unwrap();
            }
            while !restarted.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(500));
            }
            for _ in 0..3 {
                if let Err(e) = c.arrive() {
                    panic!("post-restart arrive failed: {e:?}");
                }
            }
            c
        };
        std::thread::scope(|s| {
            let ha = s.spawn(|| run(a));
            let hb = s.spawn(|| run(b));
            // Wait for the first half's epochs to land, then pull the
            // plug and restart.
            let t0 = Instant::now();
            while cluster.with_primary(|p| p.episodes_released()).unwrap_or(0) < 3 {
                assert!(t0.elapsed() < Duration::from_secs(10), "no progress");
                std::thread::sleep(Duration::from_millis(1));
            }
            cluster.kill_primary();
            std::thread::sleep(Duration::from_millis(5));
            let state = cluster.restart_primary().unwrap();
            restarted.store(true, Ordering::Release);
            assert!(state.epoch >= 3);
            assert_eq!(state.roster().count(), 2, "both sessions journaled live");
            let (a, b) = (ha.join().unwrap(), hb.join().unwrap());
            // Both sessions completed all 6 epochs with zero double
            // counting despite the crash.
            let stats = cluster
                .with_primary(|p| p.session_stats())
                .expect("primary installed");
            assert_eq!(a.stats().episodes, 6);
            assert_eq!(b.stats().episodes, 6);
            assert!(
                a.stats().resumes + a.stats().rejoins >= 1,
                "session 1 never re-proved itself: {:?}",
                a.stats()
            );
            for sid in [1u64, 2] {
                assert!(
                    stats[&sid].completed >= 5,
                    "server ledger lost session {sid}: {stats:?}"
                );
            }
        });
        cluster.shutdown();
    }

    #[test]
    fn fenced_zombie_primary_cannot_release() {
        use crate::client::{BarrierClient, ClientConfig};
        let journal = Journal::memory();
        let cluster = FailoverCluster::start(
            ServerConfig {
                shards: 1,
                tick: Duration::from_micros(200),
                recovery_grace: Duration::from_millis(50),
                ..ServerConfig::default()
            },
            journal.clone(),
        );
        // A client bound directly to the original primary (NOT via the
        // cluster dial): it will keep talking to the zombie.
        let zombie_conn = cluster
            .with_primary(|p| p.connect())
            .expect("primary installed");
        let mut stale = BarrierClient::new(
            zombie_conn,
            9,
            ClientConfig {
                request_timeout: Duration::from_millis(5),
                max_attempts: 40,
            },
        );
        stale.join().unwrap();
        stale.arrive().unwrap(); // epoch 0 releases and is journaled
        let zombie = cluster.detach_primary().expect("primary was installed");
        let zombie_inc = zombie.incarnation();
        // Promotion claims a newer incarnation from the shared journal.
        cluster.promote().unwrap();
        let new_inc = cluster.with_primary(|p| p.incarnation()).unwrap();
        assert!(new_inc > zombie_inc);
        let released_before = zombie.episodes_released();
        // The zombie still thinks it is the authority; drive it. Its
        // next release attempt must hit the journal fence and freeze it
        // forever — the client sees only silence (timeout), never a
        // zombie Release.
        let r = stale.arrive();
        assert!(
            r.is_err(),
            "zombie must not be able to release an epoch: {r:?}"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while !zombie.fenced() && Instant::now() < deadline {
            let _ = stale.send_arrive();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(zombie.fenced(), "zombie never hit the journal fence");
        assert_eq!(
            zombie.episodes_released(),
            released_before,
            "a fenced zombie extended the episode ledger"
        );
        // And the fenced epoch bump never reached the journal.
        let state = recover(&journal).unwrap();
        assert_eq!(state.epoch, released_before);
        zombie.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn lost_journal_suffix_surfaces_as_diverged() {
        use crate::client::{BarrierClient, ClientConfig};
        use combar_rt::BarrierError;
        let journal = Journal::memory();
        let cluster = FailoverCluster::start(
            ServerConfig {
                shards: 1,
                tick: Duration::from_micros(200),
                recovery_grace: Duration::from_millis(500),
                ..ServerConfig::default()
            },
            journal.clone(),
        );
        let mut c = BarrierClient::new(
            cluster.client_transport(),
            4,
            ClientConfig {
                request_timeout: Duration::from_millis(5),
                max_attempts: 400,
            },
        );
        c.join().unwrap();
        for _ in 0..4 {
            c.arrive().unwrap();
        }
        cluster.kill_primary();
        // "Disk rollback": lose the whole journal suffix back past
        // epochs the client already observed.
        let len = journal.len().unwrap();
        journal.truncate_tail(len / 2).unwrap();
        cluster.restart_primary().unwrap();
        // The client claims an epoch the recovered authority never
        // reached: the only honest answer is Diverged.
        let r = c.arrive();
        assert_eq!(r, Err(BarrierError::Diverged));
        assert!(!c.is_joined());
        cluster.shutdown();
    }

    #[test]
    fn standby_tails_frames_and_tracks_liveness() {
        let (mut tee, tail) = loopback_pair();
        let standby = Standby::spawn(Box::new(tail), RecoveredState::default());
        assert!(standby.lapsed(Duration::from_millis(0)));
        let mut bytes = Vec::new();
        for rec in [
            JournalRecord::Join {
                session: 4,
                epoch: 0,
                rejoin: false,
            },
            ep(0, &[4], &[(4, 1)]),
        ] {
            bytes.extend_from_slice(&crate::journal::frame_entry(&rec));
        }
        tee.send(&bytes).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while standby.epoch() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(standby.epoch(), 1);
        assert!(!standby.lapsed(Duration::from_millis(500)));
        // A bare heartbeat refreshes liveness without changing state.
        tee.send(&crate::journal::frame_entry(&JournalRecord::Heartbeat {
            inc: 1,
        }))
        .unwrap();
        standby.stop();
    }
}
