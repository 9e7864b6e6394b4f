//! The sharded epoch server: barrier-as-a-service.
//!
//! # Topology
//!
//! The server is a two-level combining tree in service clothing.
//! Sessions are partitioned across *shards* (leaf counters); each shard
//! is one thread that owns its sessions' membership and arrival state
//! outright, so every per-session transition happens at a quiescent
//! point by construction — the shard's message loop serializes arrivals,
//! evictions, and rejoins the same way PR 4's releaser window serializes
//! shape changes. A shard that observes all of its live sessions arrived
//! reports *one* batched completeness bit to the root (its
//! `shard_reported` slot — per-shard and stamped with the episode, so
//! a report keeps its identity: a dead shard's report is simply
//! ignored and a released episode's cannot count towards the next);
//! the shard whose report completes the root view performs the
//! release — bump the global episode, broadcast a `Release` control
//! message — and every shard
//! fans the release out to its own clients. Arrival traffic therefore
//! aggregates up the tree (sessions → shard → root) and the release
//! broadcasts back down, exactly the paper's arrival/release split.
//!
//! # Core and driver
//!
//! A shard is two halves. Its protocol — sessions, admissions, arrivals,
//! tombstones, the release fan-out, its completeness report and the
//! session leases — is `ShardCore` (`shard.rs`): a pure step function
//! from one input (a request, a release notice or a tick) at a given
//! `now` to one `Effects` value. This module is its driver: a shard
//! thread reads the clock once per turn, steps the core once per message
//! and once for housekeeping, and applies each step's effects to the
//! routes, the ledger, the outboxes and the root, whose `try_release`
//! wraps the CAS, journal append and broadcast around the pure
//! `release_ready`. The shard-lease poller, the router and the UDS pumps
//! are driver-only.
//!
//! # Liveness and degradation
//!
//! Two lease layers, both PR 4's [`Supervisor`]:
//!
//! * **Session leases** — each shard's core supervises its sessions;
//!   every request beats the session's slot, and the release it waited
//!   for restarts its lease. A live session that neither arrives nor
//!   heartbeats past its (exponentially widened) lease is evicted: its
//!   in-flight arrival is delivered by proxy and the membership folds
//!   without it, so an episode can never wedge on a dead client. The client observes [`Response::Evicted`] and may
//!   rejoin with a fresh `Hello`.
//! * **Shard leases** — every shard beats a root supervisor each loop
//!   tick; each shard is polled by exactly one peer (the lowest-indexed
//!   live shard polls everyone else, the second-lowest polls the
//!   lowest, so even the poller's own death is detected). A shard
//!   declared dead is folded out of the root view (episodes complete
//!   without it — its reported flag stops counting, never the other
//!   way), it observes the declaration and exits rather than serving on
//!   as a zombie, the sessions live on it are notified `Evicted`
//!   best-effort, and every routing assignment to it is cleared so
//!   rejoins land on surviving shards — graceful shard degradation
//!   rather than a wedged epoch.
//!
//! # Idempotency
//!
//! All request handling is coordinate-based (see `proto`): an `Arrive`
//! for the shard's current frame counts at most once; one for an
//! already-released frame is answered by re-sending `Release`; a
//! duplicate `Hello` re-sends `Welcome`. Retries are therefore always
//! safe, and per-session episode counters advance exactly once per
//! episode no matter what the wire does. A re-sent `Arrive` for the
//! episode that session last arrived for, once it has released, means
//! the `Release` was lost on the way: the re-ack arms the session's
//! next releases to go out twice (the client half of the rule is in
//! [`crate::client`]).
//!
//! # Crash recovery
//!
//! A server started with [`EpochServer::start_journaled`] write-ahead
//! journals every completed episode **before** broadcasting its
//! release (group commit: one append per epoch carries the episode
//! record plus every membership delta since the last one). The
//! invariant that buys everything else: *any epoch a client could have
//! observed is journaled.* After a crash, [`EpochServer::resume`]
//! replays the journal ([`crate::recover`]), seeds epoch / roster /
//! counters from it, claims a fresh **incarnation** (stamped on every
//! response frame and every append — the fencing token; the journal
//! rejects appends from superseded incarnations, and clients drop
//! frames from them), and *challenges* journaled-live sessions: their
//! next request is answered `ResumeRequired`, they prove their position
//! with `Resume{next_episode}`, and depending on how their epoch
//! compares to the recovered one they continue seamlessly (`Resumed`),
//! catch up from an idempotent `Release` re-ack, or — if they are
//! *ahead*, meaning the journal lost a durable suffix — get `Diverged`
//! rather than a silent epoch rewind. Until every recovered session
//! resumes (or `recovery_grace` lapses and the laggards are purged as
//! evicted) releases are paused, so the first resumer cannot race the
//! epoch forward alone.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use combar_rt::{Supervisor, SupervisorConfig};
use combar_trace::Kind;

use crate::journal::{frame_entry, roster_hash, Journal, JournalRecord};
use crate::proto::{Request, Response, SessionId};
use crate::recover::RecoveredState;
use crate::shard::{release_ready, ConnId, Delta, Input, ShardCore};
use crate::transport::{recv_handoff, Frame, LoopbackTransport, Transport};

/// Tuning for [`EpochServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (leaf aggregation points). Sessions hash across
    /// them; each shard is one thread.
    pub shards: usize,
    /// Shard loop tick: the bound on how long a shard sleeps between
    /// lease polls when no traffic arrives.
    pub tick: Duration,
    /// Per-shard session slot capacity (supervisor size). A `Hello`
    /// beyond capacity is dropped.
    pub session_capacity: u32,
    /// Session-lease failure detector tuning.
    pub lease: SupervisorConfig,
    /// Shard-lease failure detector tuning (root supervisor).
    pub shard_lease: SupervisorConfig,
    /// How long a *recovered* server waits for journaled-live sessions
    /// to prove themselves with `Resume` before purging the laggards as
    /// evicted. While any recovered session is still outstanding (and
    /// the grace has not lapsed) releases are paused — the recovered
    /// roster *is* the membership, and a barrier must not cross without
    /// its members.
    pub recovery_grace: Duration,
    /// If set, the release winner compacts the journal to
    /// `[Incarnation, Snapshot]` every N released epochs, bounding
    /// replay time on the next restart.
    pub snapshot_every: Option<u64>,
    /// Chaos hook: self-inflicted crash at a scripted epoch (see
    /// [`ServerCrash`]). `None` in production configurations.
    pub crash: Option<ServerCrash>,
}

/// A scripted whole-server crash, driven by the release winner: the
/// journal append for `at_epoch` completes (the WAL is honest — a
/// crash can lose *unjournaled* state only), then the process "dies"
/// mid-release. With `mid_broadcast` the `Release` fan-out reaches
/// exactly one shard first, modelling a crash halfway through the
/// broadcast loop — the nastiest spot, because some clients observe
/// the epoch and some do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// The epoch whose release triggers the crash.
    pub at_epoch: u64,
    /// Crash after delivering the release to only the first live shard
    /// (true) or after the full broadcast (false).
    pub mid_broadcast: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            tick: Duration::from_millis(1),
            session_capacity: 4096,
            // Wider than the runtime default: a spuriously evicted
            // session costs a rejoin plus an episode of churn, while a
            // genuinely dead one merely takes a few extra milliseconds
            // to fold out. Clients renew the lease with every
            // (idempotent) arrive re-send, so only true silence expires.
            lease: SupervisorConfig {
                min_grace: Duration::from_millis(25),
                sigma_mult: 4.0,
                max_misses: 3,
            },
            shard_lease: SupervisorConfig {
                min_grace: Duration::from_millis(10),
                sigma_mult: 4.0,
                max_misses: 3,
            },
            recovery_grace: Duration::from_millis(100),
            snapshot_every: None,
            crash: None,
        }
    }
}

/// Per-session service counters, exposed via
/// [`EpochServer::session_stats`]. `completed` advances exactly once
/// per episode the session participated in — the idempotency oracle
/// the acceptance test asserts against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Episodes this session completed (released while arrived).
    pub completed: u64,
    /// Times the session was evicted (lease expiry or shard death).
    pub evictions: u64,
    /// Times the session rejoined after an eviction.
    pub rejoins: u64,
}

enum OutSink {
    Chan(mpsc::Sender<Frame>),
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixDatagram),
}

impl OutSink {
    fn send(&self, frame: &[u8]) {
        match self {
            OutSink::Chan(tx) => {
                let _ = tx.send(Frame::new(frame));
            }
            #[cfg(unix)]
            OutSink::Uds(sock) => {
                // The socket is nonblocking: a client that stopped
                // draining its buffer gets wire loss (WouldBlock,
                // swallowed here), never a blocked shard thread.
                let _ = sock.send(frame);
            }
        }
    }
}

enum ShardMsg {
    /// A decoded client request, tagged with its connection.
    Net(ConnId, Request),
    /// The named episode completed; fan the release out and open the
    /// next frame.
    Release(u64),
    /// Test/chaos hook: the shard thread exits immediately without
    /// cleanup, simulating a crash. The shard lease detects it.
    Stall,
    /// Orderly shutdown.
    Shutdown,
}

#[derive(Clone, Copy)]
struct Assignment {
    shard: usize,
    conn: ConnId,
    /// Whether the session is live on `shard`: admitted there, and
    /// neither gone nor evicted since. A shard's death evicts exactly
    /// these.
    live: bool,
}

/// The journal-facing half of the ledger, mutated under one lock so
/// the release winner's drain sees an atomic snapshot: the pending
/// membership deltas *and* the roster they produced. The roster here —
/// not any per-shard view — is what the winner hashes into the episode
/// record, so recovery's delta-reconstructed roster matches it exactly
/// by construction.
#[derive(Default)]
struct LedgerBuf {
    /// Membership deltas since the last episode append, in event order.
    pending: Vec<JournalRecord>,
    /// The authoritative live roster.
    roster: BTreeSet<SessionId>,
}

/// Shared coordination state: the root of the aggregation tree.
struct Shared {
    /// The global current episode. Bumped (CAS) by the releasing shard.
    episode: AtomicU64,
    /// Per-shard "all my live sessions arrived" reports — the root state
    /// of the combining tree. Each holds the episode it is for, plus one
    /// (0: none yet); `release_ready` says why a report is keyed by shard
    /// and stamped with its episode.
    shard_reported: Vec<AtomicU64>,
    shard_alive: Vec<AtomicBool>,
    /// Live session count per shard (owner-written, root-read).
    live_sessions: Vec<AtomicU64>,
    /// Root failure detector over shard heartbeats.
    shard_super: Supervisor,
    /// Total episodes released since start.
    released: AtomicU64,
    stats: Mutex<HashMap<SessionId, SessionStats>>,
    shutdown: AtomicBool,
    /// This server's incarnation: 0 for an unjournaled server, else
    /// claimed from the journal at start. Stamped on every response
    /// frame and every episode append — the fencing token.
    incarnation: u64,
    /// The write-ahead epoch journal, if crash recovery is enabled.
    journal: Option<Arc<Journal>>,
    /// Pending journal deltas + authoritative roster (see [`LedgerBuf`]).
    ledger: Mutex<LedgerBuf>,
    /// Per-shard completer slots: `(session, cumulative completed)` for
    /// the sessions a shard reported explicitly arrived, drained by the
    /// release winner into the episode record.
    slots: Vec<Mutex<Vec<(SessionId, u64)>>>,
    /// Sessions the journal says were live but that have not yet proven
    /// themselves to this incarnation with `Resume` (or a fresh
    /// `Hello`).
    recovered: Mutex<BTreeSet<SessionId>>,
    /// Whether `recovered` still holds anyone — cleared when the last
    /// one proves itself or the grace purges the rest. Releases are
    /// paused while it is set.
    recovering: AtomicBool,
    /// When the recovery grace lapses and outstanding recovered
    /// sessions are purged as evicted.
    recovery_deadline: Option<Instant>,
    /// Replication stream to a warm standby: the winner tees every
    /// journaled batch here, best effort, and the lowest live shard
    /// beacons heartbeats so the standby can tell idle from dead.
    repl: Mutex<Option<Box<dyn Transport>>>,
    /// Compact the journal to a snapshot every this many released
    /// episodes (mirrored from [`ServerConfig::snapshot_every`]).
    snapshot_every: Option<u64>,
    /// Set when a journal append came back [`JournalError::Fenced`]:
    /// this server is a zombie — a newer incarnation owns the ledger —
    /// and must never release again.
    fenced: AtomicBool,
    /// Set by [`EpochServer::halt`] (and the scripted [`ServerCrash`]):
    /// the process is "dead". Ingress is dropped, shard loops exit,
    /// and — deliberately — client outboxes are *not* torn down, so a
    /// halted server looks like unbroken silence (timeouts), exactly
    /// like a crashed host, never like an orderly close.
    halted: AtomicBool,
    crash: Option<ServerCrash>,
}

impl Shared {
    fn total_sessions(&self) -> u64 {
        self.shard_alive
            .iter()
            .zip(&self.live_sessions)
            .filter(|(alive, _)| alive.load(Ordering::Acquire))
            .map(|(_, n)| n.load(Ordering::Acquire))
            .sum()
    }

    /// Records a session joining the roster. The delta is emitted only
    /// when the roster actually changes, which makes the call idempotent
    /// and silently correct for resumed sessions (already in the
    /// journaled roster).
    fn ledger_join(&self, session: SessionId, epoch: u64, rejoin: bool) {
        if self.journal.is_none() {
            return;
        }
        let mut lb = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        if lb.roster.insert(session) {
            lb.pending.push(JournalRecord::Join {
                session,
                epoch,
                rejoin,
            });
        }
    }

    /// Records a session leaving the roster (eviction or orderly
    /// leave). Emits only on an actual roster change.
    fn ledger_remove(&self, session: SessionId, epoch: u64, orderly: bool) {
        if self.journal.is_none() {
            return;
        }
        let mut lb = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        if lb.roster.remove(&session) {
            lb.pending.push(if orderly {
                JournalRecord::Leave { session, epoch }
            } else {
                JournalRecord::Evict { session, epoch }
            });
        }
    }

    /// Whether the recovery still awaits `session`'s `Resume`.
    fn awaiting_resume(&self, session: SessionId) -> bool {
        self.recovering.load(Ordering::Acquire)
            && self
                .recovered
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&session)
    }
}

/// Routes decoded requests to shard inboxes and responses back to
/// connections. Shared by every connection and shard.
struct Router {
    shard_tx: Vec<mpsc::Sender<ShardMsg>>,
    assign: Mutex<HashMap<SessionId, Assignment>>,
    outbox: Mutex<HashMap<ConnId, OutSink>>,
    /// Times the `outbox` lock was taken, so a test can hold a release
    /// fan-out to one.
    #[cfg(test)]
    outbox_locks: AtomicU64,
    next_conn: AtomicU64,
    /// Per-shard session slot capacity, mirrored from `ServerConfig` so
    /// `pick_shard` can steer admissions toward headroom.
    session_capacity: u64,
    shared: Arc<Shared>,
}

impl Router {
    /// First live shard *with admission headroom* at or after the
    /// session's home slot, probing forward so a dead or full home
    /// shard degrades to a neighbor. Fullness matters because
    /// assignments are sticky while the shard lives: a `Hello` routed
    /// to a shard with no free slot would otherwise pin every retry to
    /// that same shard until the client's attempts burn out. The
    /// published live-session counts are a racy approximation of slot
    /// occupancy; a losing race just drops the `Hello` at the shard
    /// (which clears the assignment) and the retry probes again.
    fn pick_shard(&self, session: SessionId) -> Option<usize> {
        let n = self.shard_tx.len();
        let home = (session % n as u64) as usize;
        (0..n).map(|k| (home + k) % n).find(|&s| {
            self.shared.shard_alive[s].load(Ordering::Acquire)
                && self.shared.live_sessions[s].load(Ordering::Acquire) < self.session_capacity
        })
    }

    /// Ingress: decode, resolve the session's shard (reassigning away
    /// from dead shards), enqueue. Malformed frames and frames for a
    /// fully-degraded server are dropped — the wire already taught
    /// clients to retry.
    fn route(&self, conn: ConnId, frame: &[u8]) {
        // A halted (crashed) server is a dead host: traffic to it
        // disappears without acknowledgement or error.
        if self.shared.halted.load(Ordering::Acquire) {
            return;
        }
        let Ok(req) = Request::decode(frame) else {
            return;
        };
        let session = req.session();
        let shard = {
            let mut assign = self.assign.lock().unwrap_or_else(|e| e.into_inner());
            match assign.get_mut(&session) {
                Some(a) => {
                    a.conn = conn;
                    if !self.shared.shard_alive[a.shard].load(Ordering::Acquire) {
                        match self.pick_shard(session) {
                            Some(s) => a.shard = s,
                            None => return,
                        }
                    }
                    a.shard
                }
                None => {
                    let Some(s) = self.pick_shard(session) else {
                        return;
                    };
                    let assignment = Assignment {
                        shard: s,
                        conn,
                        live: false, // until the shard admits it
                    };
                    assign.insert(session, assignment);
                    s
                }
            }
        };
        // A send failure means the shard thread is gone but not yet
        // declared dead: the frame is dropped, like traffic to a dead
        // host. The shard lease converts this to eviction + rerouting.
        let _ = self.shard_tx[shard].send(ShardMsg::Net(conn, req));
    }

    fn outbox(&self) -> std::sync::MutexGuard<'_, HashMap<ConnId, OutSink>> {
        #[cfg(test)]
        self.outbox_locks.fetch_add(1, Ordering::Relaxed);
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a loopback connection: frames the client sends are
    /// routed on its own thread, frames for it come back over `rx`.
    fn connect(self: &Arc<Self>) -> LoopbackTransport {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<Frame>();
        self.outbox().insert(conn, OutSink::Chan(tx));
        let router = Arc::clone(self);
        LoopbackTransport {
            tx: Box::new(move |frame: &[u8]| {
                router.route(conn, frame);
                Ok(())
            }),
            rx,
            hot: false,
        }
    }
}

/// Most messages one wake of a shard handles before it runs its
/// housekeeping again: a flood of traffic may delay a lease poll or the
/// shard's own heartbeat by one batch, never starve it.
const BATCH: usize = 64;

/// One shard thread: a [`ShardCore`] and everything the core may not
/// touch — the inbox, the clock, the root, the router's outboxes and
/// the journal's ledger.
struct ShardDriver {
    idx: usize,
    core: ShardCore,
    shared: Arc<Shared>,
    router: Arc<Router>,
    cfg: ServerConfig,
    /// The clock, read once per turn, after its wait.
    now: Instant,
    /// Last standby-heartbeat send (lowest live shard only).
    last_repl_beat: Instant,
    /// Whether the last inbox wait ended with a message: the spin-or-park
    /// state of [`recv_handoff`].
    inbox_hot: bool,
    /// The live shards at the last root-lease pass, kept so the pass
    /// allocates nothing on a turn.
    alive: Vec<u32>,
}

impl ShardDriver {
    fn new(idx: usize, shared: Arc<Shared>, router: Arc<Router>, cfg: ServerConfig) -> Self {
        let now = Instant::now();
        let frame = shared.episode.load(Ordering::Acquire);
        let inc = shared.incarnation;
        let core = ShardCore::new(idx, &cfg, inc, frame, shared.recovery_deadline, now);
        Self {
            idx,
            core,
            shared,
            router,
            cfg,
            now,
            last_repl_beat: now,
            inbox_hot: false,
            alive: Vec::new(),
        }
    }

    /// Steps the core with one input at this turn's `now`, then applies
    /// what the step did, in order: routing and the live count; the
    /// recovery; the ledger and the frames under one `stats` guard and
    /// one `outbox` lock — credit, then release, so a client that has
    /// seen its `Release` can never read a ledger that has not counted
    /// it (a step without frames takes no `outbox` lock, one without
    /// ledger effects no `stats` guard); then the report, filed with its
    /// completers, and the root's release check.
    fn step(&mut self, input: Input) {
        let fx = self.core.step(self.now, input);
        let (shared, router, idx, frame) =
            (&*self.shared, &*self.router, self.idx, self.core.frame);
        if !(fx.roster.is_empty() && fx.unroute.is_empty()) {
            let mut assign = router.assign.lock().unwrap_or_else(|e| e.into_inner());
            for &(session, delta) in &fx.roster {
                if let Some(a) = assign.get_mut(&session).filter(|a| a.shard == idx) {
                    a.live = delta.admits();
                }
            }
            for session in &fx.unroute {
                if assign.get(session).is_some_and(|a| a.shard == idx) {
                    assign.remove(session);
                }
            }
            drop(assign);
            shared.live_sessions[idx].store(self.core.live, Ordering::Release);
        }
        // Admissions prove their sessions to the recovery (a recovered
        // session greeting us with a fresh `Hello` rather than `Resume`
        // chose the rejoin path; either way it has proven itself to this
        // incarnation), and a lapsed grace purges the laggards.
        let mut laggards = BTreeSet::new();
        let recovery = fx.purge || fx.roster.iter().any(|d| d.1.admits());
        if recovery && shared.recovering.load(Ordering::Acquire) {
            let mut rec = shared.recovered.lock().unwrap_or_else(|e| e.into_inner());
            rec.retain(|s| !fx.roster.iter().any(|d| d.0 == *s && d.1.admits()));
            if fx.purge {
                laggards = std::mem::take(&mut *rec);
            }
            if rec.is_empty() {
                shared.recovering.store(false, Ordering::Release);
            }
        }
        let files = shared.journal.is_some() && !fx.completers.is_empty();
        let settles = files || !(fx.roster.is_empty() && fx.credits.is_empty());
        let stats = (settles || !laggards.is_empty()).then(|| {
            let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
            for session in laggards {
                stats.entry(session).or_default().evictions += 1;
                shared.ledger_remove(session, frame, false);
            }
            for &(session, delta) in &fx.roster {
                let entry = stats.entry(session).or_default();
                match delta {
                    // A local tombstone proves a rejoin; a session unknown
                    // here may still be rejoining cross-shard (its home
                    // shard died and routing moved it) — the global stats
                    // ledger records the eviction either way.
                    Delta::Hello(tombstone) => {
                        let rejoin = tombstone || entry.evictions > entry.rejoins;
                        if rejoin {
                            entry.rejoins += 1;
                            combar_trace::emit(frame as u32, session as u32, Kind::Rejoin);
                        }
                        shared.ledger_join(session, frame, rejoin);
                    }
                    // A roster no-op (still journaled live) but covers
                    // the corner where the session was purged a beat ago.
                    Delta::Resume => shared.ledger_join(session, frame, false),
                    Delta::Leave => shared.ledger_remove(session, frame, true),
                    Delta::Evict => {
                        entry.evictions += 1;
                        shared.ledger_remove(session, frame, false);
                    }
                }
            }
            for &session in &fx.credits {
                stats.entry(session).or_default().completed += 1;
            }
            if files {
                let done = |sid| stats.get(&sid).map_or(0, |e| e.completed) + 1;
                let filed = fx.completers.iter().map(|&sid| (sid, done(sid)));
                let mut slot = shared.slots[idx].lock().unwrap_or_else(|e| e.into_inner());
                slot.extend(filed);
            }
            stats
        });
        if !(fx.frames.is_empty() && fx.fanout.is_empty()) {
            let outbox = router.outbox();
            for (conn, resp) in &fx.frames {
                if let Some(sink) = outbox.get(conn) {
                    sink.send(&resp.encode());
                }
            }
            if let Some(episode) = fx.release {
                let inc = shared.incarnation;
                let frame = Response::Release { episode, inc }.encode();
                for &(conn, copies) in &fx.fanout {
                    if let Some(sink) = outbox.get(&conn) {
                        (0..copies).for_each(|_| sink.send(&frame));
                    }
                }
            }
        }
        drop(stats);
        if let Some(frame) = fx.report {
            shared.shard_reported[idx].store(frame + 1, Ordering::Release);
        }
        try_release(shared, router);
    }

    /// Root-lease pass over this shard's [`lease_targets`] in one
    /// snapshot of the live flags.
    fn poll_shards(&mut self) {
        let flags = &self.shared.shard_alive;
        let live = (0..flags.len()).filter(|&s| flags[s].load(Ordering::Acquire));
        self.alive.clear();
        self.alive.extend(live.map(|s| s as u32));
        let targets = lease_targets(&self.alive, self.idx as u32);
        let sup = &self.shared.shard_super;
        for shard in sup.lease_pass(self.now, targets.iter().copied()) {
            declare_shard_dead(&self.shared, &self.router, shard as usize);
        }
    }

    /// The lowest live shard beacons a heartbeat to any attached
    /// standby each tick, so it can tell an idle primary from a dead
    /// one.
    fn beacon(&mut self) {
        let lowest = (0..self.shared.shard_alive.len())
            .find(|&s| self.shared.shard_alive[s].load(Ordering::Acquire));
        if self.shared.journal.is_none()
            || lowest != Some(self.idx)
            || self.now.saturating_duration_since(self.last_repl_beat) < self.cfg.tick
        {
            return;
        }
        self.last_repl_beat = self.now;
        let mut repl = self.shared.repl.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = repl.as_mut() {
            let inc = self.shared.incarnation;
            let _ = t.send(&frame_entry(&JournalRecord::Heartbeat { inc }));
        }
    }

    /// A shard the root lease declared dead must stop serving even
    /// when the declaration was a false positive (a stalled-but-alive
    /// thread): its sessions were evicted and rerouted the moment it
    /// was declared, so anything it did from here — reporting its stale
    /// frame complete, answering sessions that rejoined elsewhere —
    /// would be a zombie copy of state that now lives on the surviving
    /// shards. A halted server is a "crashed" host: same silence.
    fn must_stop(&self) -> bool {
        !self.shared.shard_alive[self.idx].load(Ordering::Acquire)
            || self.shared.halted.load(Ordering::Acquire)
    }

    /// Steps `msgs` in order, looking at the stop flags before each
    /// one, so a death declaration or a scripted crash that lands in
    /// mid-batch leaves every later message unhandled. `false` once the
    /// shard must exit: flagged, `Stall` (simulated crash: no cleanup)
    /// or `Shutdown`.
    fn drain(&mut self, msgs: impl Iterator<Item = ShardMsg>) -> bool {
        for msg in msgs {
            if self.must_stop() {
                return false;
            }
            let input = match msg {
                ShardMsg::Net(conn, req) => {
                    let awaiting = self.shared.awaiting_resume(req.session());
                    Input::Request(conn, req, awaiting)
                }
                ShardMsg::Release(ep) => Input::Release(ep),
                ShardMsg::Stall | ShardMsg::Shutdown => return false,
            };
            self.step(input);
        }
        true
    }

    /// One wake of the shard loop: wait at most a tick for traffic
    /// (through the same spin-then-park hand-off as a client, see
    /// [`crate::transport`]), read the clock, drain at most [`BATCH`]
    /// queued messages, then run the housekeeping once for the batch and
    /// not once per message — the lease passes rate-limit themselves per
    /// tick anyway, and the shard's own beat only has to outrun a grace
    /// that is floored at `min_grace`. `false` once the shard must exit.
    fn turn(&mut self, inbox: &mpsc::Receiver<ShardMsg>) -> bool {
        if self.must_stop() {
            return false;
        }
        let first = match recv_handoff(inbox, self.cfg.tick, &mut self.inbox_hot) {
            Ok(msg) => Some(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => return false,
        };
        self.now = Instant::now();
        self.shared.shard_super.beat_at(self.idx as u32, self.now);
        let queued = std::iter::from_fn(|| inbox.try_recv().ok());
        if !self.drain(first.into_iter().chain(queued).take(BATCH)) || self.must_stop() {
            return false; // told to, or declared dead (or "crashed") meanwhile
        }
        // Membership may change without traffic (evictions), and so may
        // the recovery.
        self.step(Input::Tick(self.shared.recovering.load(Ordering::Acquire)));
        self.poll_shards();
        self.beacon();
        true
    }
}

/// The shards whose root lease shard `me` polls, given the live shards
/// in ascending order. Each target is polled by exactly one shard — the
/// lowest-indexed live shard *other than the target* (the supervisor's
/// miss counters escalate one miss per poll, so concurrent pollers of
/// the same target would fast-track a declaration). That is: the lowest
/// live shard polls every peer, and the second-lowest polls the lowest —
/// so the poller's own death is detected too, instead of silently
/// ending all detection.
fn lease_targets(alive: &[u32], me: u32) -> &[u32] {
    match alive {
        [lowest, peers @ ..] if *lowest == me => peers,
        [lowest, second, ..] if *second == me => std::slice::from_ref(lowest),
        _ => &[],
    }
}

/// The downward half of the root: if every live shard has reported the
/// current episode and any session exists, the winning CAS bumps the
/// episode (which expires the reports) and broadcasts the release. Any
/// shard (or the shard poller, after folding a dead shard out) may
/// perform it; the CAS guarantees exactly one winner per episode.
/// Reports are read *paired with liveness* — a dead shard's stale
/// report never counts — so a shard death can only delay a release,
/// never complete one early.
fn try_release(shared: &Shared, router: &Router) {
    let ep = shared.episode.load(Ordering::Acquire);
    let load = |a: &AtomicU64| a.load(Ordering::Acquire);
    let alive = shared.shard_alive.iter().map(|a| a.load(Ordering::Acquire));
    let reports = alive.zip(shared.shard_reported.iter().map(load));
    let shards = reports.zip(shared.live_sessions.iter().map(load));
    let shards = shards.map(|((alive, report), live)| (alive, report, live));
    // A halted server is dead and a fenced one is a zombie: neither may
    // ever release (the fence guard also stops a zombie from burning
    // phantom CAS bumps after its first rejected append). A recovered
    // server holds releases until every journaled-live session has
    // resumed (or the grace purges it): the recovered roster *is* the
    // membership, and crossing without it would let the first resumer
    // race ahead alone.
    let halted = shared.halted.load(Ordering::Acquire);
    let fenced = shared.fenced.load(Ordering::Acquire);
    let recovering = shared.recovering.load(Ordering::Acquire);
    if !release_ready(ep, shards, halted, fenced, recovering) {
        return;
    }
    if shared
        .episode
        .compare_exchange(ep, ep + 1, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return; // another shard released this episode
    }
    // The reports were for `ep`, so the CAS has just expired them: a
    // concurrent caller (the shard poller ticks into here at any
    // moment) cannot read them as the *next* episode's while the
    // journal append below runs, win the bumped CAS, and run a second
    // release in parallel — draining the completer slots out from
    // under us and appending episodes out of order, which recovery
    // would then skip as stale. No shard reports `ep + 1` until it
    // processes the Release broadcast at the bottom.
    // ── Write-ahead: journal the episode before any client can hear of
    // it. Group commit: the batch is every membership delta since the
    // last release plus one episode record — one append per epoch, not
    // per arrival.
    if let Some(journal) = &shared.journal {
        let (mut batch, hash) = {
            let mut lb = shared.ledger.lock().unwrap_or_else(|e| e.into_inner());
            // Drain + hash under one lock: the hash covers exactly the
            // roster the drained deltas produce, so recovery's replayed
            // roster matches by construction.
            let batch = std::mem::take(&mut lb.pending);
            (batch, roster_hash(lb.roster.iter().copied()))
        };
        let mut completers: BTreeMap<SessionId, u64> = BTreeMap::new();
        for (s, slot) in shared.slots.iter().enumerate() {
            if shared.shard_alive[s].load(Ordering::Acquire) {
                let drained = std::mem::take(&mut *slot.lock().unwrap_or_else(|e| e.into_inner()));
                for (sid, done) in drained {
                    // Cumulative counters: a stale entry (a late
                    // proxy→explicit upgrade that missed last epoch's
                    // drain) merges away under max.
                    let e = completers.entry(sid).or_insert(done);
                    *e = (*e).max(done);
                }
            }
        }
        batch.push(JournalRecord::Episode {
            epoch: ep,
            inc: shared.incarnation,
            roster_hash: hash,
            completers: completers.into_iter().collect(),
        });
        match journal.append_batch(shared.incarnation, &batch) {
            Err(_) => {
                // Fenced (or the backing store died): this server may
                // not extend the ledger. Freeze — no flag clears, no
                // released bump, above all no broadcast. Clients stop
                // hearing from us and fail over to the incarnation that
                // fenced us out.
                shared.fenced.store(true, Ordering::Release);
                return;
            }
            Ok(()) => {
                // Tee the batch to a warm standby, best effort — the
                // journal is the durable copy; this just keeps the
                // standby's lag near zero.
                let mut repl = shared.repl.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(t) = repl.as_mut() {
                    let mut bytes = Vec::new();
                    for rec in &batch {
                        bytes.extend_from_slice(&frame_entry(rec));
                    }
                    let _ = t.send(&bytes);
                }
                drop(repl);
                if let Some(every) = shared.snapshot_every {
                    let done = shared.released.load(Ordering::Acquire) + 1;
                    if every > 0 && done % every == 0 {
                        compact_journal(shared, journal, ep, &batch);
                    }
                }
            }
        }
    }
    shared.released.fetch_add(1, Ordering::Release);
    // ── Scripted crash window: the journal append above is durable,
    // the broadcast below is what dies — wholly (kill-at-epoch) or
    // halfway (kill-mid-broadcast: exactly one shard hears).
    if let Some(crash) = shared.crash {
        if ep == crash.at_epoch {
            if crash.mid_broadcast {
                if let Some(s) = (0..shared.shard_alive.len())
                    .find(|&s| shared.shard_alive[s].load(Ordering::Acquire))
                {
                    let _ = router.shard_tx[s].send(ShardMsg::Release(ep));
                }
                // Give the lucky shard a beat to fan out to *its*
                // clients before the lights go off, so some clients
                // observe the epoch and some never do.
                std::thread::sleep(Duration::from_millis(1));
            }
            shared.halted.store(true, Ordering::Release);
            return;
        }
    }
    for (s, tx) in router.shard_tx.iter().enumerate() {
        if shared.shard_alive[s].load(Ordering::Acquire) {
            let _ = tx.send(ShardMsg::Release(ep));
        }
    }
}

/// Compacts the journal to `[Incarnation, Snapshot]`. The snapshot
/// folds the just-appended episode's completers into the stats map
/// (their `completed` ticks land in the shards only after the
/// broadcast, which has not happened yet) so replay-from-snapshot and
/// replay-from-history agree exactly.
fn compact_journal(shared: &Shared, journal: &Journal, ep: u64, batch: &[JournalRecord]) {
    let mut sessions: BTreeMap<SessionId, (bool, SessionStats)> = {
        let stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        let roster = &shared
            .ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .roster;
        stats
            .iter()
            .map(|(&sid, &st)| (sid, (roster.contains(&sid), st)))
            .collect()
    };
    for rec in batch {
        if let JournalRecord::Episode { completers, .. } = rec {
            for &(sid, done) in completers {
                let entry = sessions
                    .entry(sid)
                    .or_insert((true, SessionStats::default()));
                entry.1.completed = entry.1.completed.max(done);
            }
        }
    }
    let snap = crate::journal::snapshot_record(ep + 1, shared.incarnation, &sessions);
    // A fence race here (a takeover between our append and this
    // compact) simply leaves the journal uncompacted; the new
    // incarnation owns compaction from now on.
    let _ = journal.compact(shared.incarnation, &snap);
}

/// Folds a dead shard out of the root: episodes complete without it,
/// the sessions live on it are evicted and told so best-effort, and
/// every assignment to it clears so rejoins land on live shards.
fn declare_shard_dead(shared: &Shared, router: &Router, shard: usize) {
    if !shared.shard_alive[shard].swap(false, Ordering::AcqRel) {
        return; // already declared
    }
    shared.live_sessions[shard].store(0, Ordering::Release);
    let episode = shared.episode.load(Ordering::Acquire);
    let mut orphans: Vec<(SessionId, ConnId)> = Vec::new();
    let mut assign = router.assign.lock().unwrap_or_else(|e| e.into_inner());
    assign.retain(|&session, a| {
        if a.shard == shard && a.live {
            orphans.push((session, a.conn));
        }
        a.shard != shard
    });
    drop(assign);
    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    let outbox = router.outbox();
    for (session, conn) in orphans {
        stats.entry(session).or_default().evictions += 1;
        shared.ledger_remove(session, episode, false);
        combar_trace::emit(episode as u32, session as u32, Kind::Evict(session as u32));
        let evicted = Response::Evicted {
            session,
            episode,
            inc: shared.incarnation,
        };
        if let Some(sink) = outbox.get(&conn) {
            sink.send(&evicted.encode());
        }
    }
    drop(outbox);
    drop(stats);
    // The dead shard may have been the missing report — and if it had
    // instead *already* reported, try_release now disregards that stale
    // flag (reports only count paired with a live shard), so a survivor
    // that still owes its own report keeps the episode open.
    try_release(shared, router);
}

fn run_shard(
    idx: usize,
    inbox: mpsc::Receiver<ShardMsg>,
    shared: Arc<Shared>,
    router: Arc<Router>,
    cfg: ServerConfig,
) {
    let mut st = ShardDriver::new(idx, shared, router, cfg);
    while st.turn(&inbox) {}
}

/// A running barrier-as-a-service instance. See the module docs.
pub struct EpochServer {
    router: Arc<Router>,
    shared: Arc<Shared>,
    shard_handles: Vec<JoinHandle<()>>,
    pump_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl EpochServer {
    /// Starts the shard threads and returns a handle for connecting
    /// clients and inspecting service state. No journal: the server is
    /// fast but mortal — a crash loses everything.
    pub fn start(cfg: ServerConfig) -> Self {
        Self::start_inner(cfg, None, None)
    }

    /// Starts a server that write-ahead-journals every completed
    /// episode (and membership delta) to `journal` before broadcasting
    /// its release. Claims a fresh incarnation, fencing out any older
    /// server still holding the journal.
    pub fn start_journaled(cfg: ServerConfig, journal: Arc<Journal>) -> Self {
        Self::start_inner(cfg, Some(journal), None)
    }

    /// Restarts a crashed server from its recovered journal state: the
    /// epoch counter resumes where the journal left off, journaled-live
    /// sessions are expected back via `Resume` (releases pause for
    /// `cfg.recovery_grace` until they all return or are purged), and a
    /// fresh incarnation fences out the dead predecessor.
    pub fn resume(cfg: ServerConfig, journal: Arc<Journal>, state: RecoveredState) -> Self {
        Self::start_inner(cfg, Some(journal), Some(state))
    }

    fn start_inner(
        cfg: ServerConfig,
        journal: Option<Arc<Journal>>,
        state: Option<RecoveredState>,
    ) -> Self {
        let (shared, router, inboxes) = Self::wire_up(&cfg, journal, state);
        let shard_handles = inboxes
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| {
                let shared = shared.clone();
                let router = router.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("combar-net-shard-{idx}"))
                    .spawn(move || run_shard(idx, rx, shared, router, cfg))
                    .expect("spawn shard thread")
            })
            .collect();
        Self {
            router,
            shared,
            shard_handles,
            pump_handles: Mutex::new(Vec::new()),
        }
    }

    /// Builds the root state, the router and one inbox per shard — all of
    /// a server except its threads, so a test can run a shard's loop by
    /// hand on an inbox it filled itself.
    fn wire_up(
        cfg: &ServerConfig,
        journal: Option<Arc<Journal>>,
        state: Option<RecoveredState>,
    ) -> (Arc<Shared>, Arc<Router>, Vec<mpsc::Receiver<ShardMsg>>) {
        assert!(cfg.shards >= 1, "need at least one shard");
        let shards = cfg.shards;
        let incarnation = match &journal {
            Some(j) => j
                .bump_incarnation()
                .expect("claim incarnation on a journal nobody else holds yet"),
            None => 0,
        };
        let epoch0 = state.as_ref().map_or(0, |s| s.epoch);
        let mut stats0 = HashMap::new();
        let mut ledger0 = LedgerBuf::default();
        let mut recovered0 = BTreeSet::new();
        if let Some(state) = &state {
            for (&sid, sess) in &state.sessions {
                stats0.insert(sid, sess.stats);
                if sess.live {
                    ledger0.roster.insert(sid);
                    recovered0.insert(sid);
                }
            }
        }
        let recovery_deadline = if recovered0.is_empty() {
            None
        } else {
            Some(Instant::now() + cfg.recovery_grace)
        };
        let shared = Arc::new(Shared {
            episode: AtomicU64::new(epoch0),
            shard_reported: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_alive: (0..shards).map(|_| AtomicBool::new(true)).collect(),
            live_sessions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_super: Supervisor::with_config(shards as u32, cfg.shard_lease),
            released: AtomicU64::new(epoch0),
            stats: Mutex::new(stats0),
            shutdown: AtomicBool::new(false),
            incarnation,
            journal,
            ledger: Mutex::new(ledger0),
            slots: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            recovering: AtomicBool::new(!recovered0.is_empty()),
            recovered: Mutex::new(recovered0),
            recovery_deadline,
            repl: Mutex::new(None),
            snapshot_every: cfg.snapshot_every,
            fenced: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            crash: cfg.crash,
        });
        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let router = Arc::new(Router {
            shard_tx: txs,
            assign: Mutex::new(HashMap::new()),
            outbox: Mutex::new(HashMap::new()),
            #[cfg(test)]
            outbox_locks: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            session_capacity: u64::from(cfg.session_capacity),
            shared: shared.clone(),
        });
        (shared, router, rxs)
    }

    /// Opens an in-process loopback connection. Cheap: two `mpsc`
    /// channels and a map entry, so thousands of sessions fit in one
    /// process.
    pub fn connect(&self) -> LoopbackTransport {
        self.router.connect()
    }

    /// Opens a Unix-domain datagram connection (real socketpairs with
    /// a per-connection server-side pump thread).
    ///
    /// Two pairs, one per direction, so each side's *send* socket can
    /// be nonblocking — a full buffer is wire loss, and a client that
    /// stops reading must never block a shard thread mid-broadcast —
    /// while each side's *recv* socket keeps its blocking read timeout.
    /// (One shared socketpair cannot do this: `O_NONBLOCK` lives on the
    /// open file description, so flipping it for sends would also make
    /// the receive path spin.)
    #[cfg(unix)]
    pub fn connect_uds(&self) -> std::io::Result<crate::transport::UdsTransport> {
        use std::os::unix::net::UnixDatagram;
        let (c2s_client, c2s_server) = UnixDatagram::pair()?;
        let (s2c_server, s2c_client) = UnixDatagram::pair()?;
        c2s_server.set_read_timeout(Some(Duration::from_millis(20)))?;
        c2s_client.set_nonblocking(true)?;
        s2c_server.set_nonblocking(true)?;
        let conn = self.router.next_conn.fetch_add(1, Ordering::Relaxed);
        self.router.outbox().insert(conn, OutSink::Uds(s2c_server));
        let router = self.router.clone();
        let shared = self.shared.clone();
        let pump = std::thread::Builder::new()
            .name(format!("combar-net-pump-{conn}"))
            .spawn(move || {
                let mut buf = [0u8; 256];
                loop {
                    if shared.shutdown.load(Ordering::Acquire)
                        || shared.halted.load(Ordering::Acquire)
                    {
                        return;
                    }
                    match c2s_server.recv(&mut buf) {
                        Ok(n) => router.route(conn, &buf[..n]),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue
                        }
                        Err(_) => return,
                    }
                }
            })?;
        self.pump_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(pump);
        Ok(crate::transport::UdsTransport {
            send_sock: c2s_client,
            recv_sock: s2c_client,
        })
    }

    /// The current global episode number.
    pub fn episode(&self) -> u64 {
        self.shared.episode.load(Ordering::Acquire)
    }

    /// Episodes released since start.
    pub fn episodes_released(&self) -> u64 {
        self.shared.released.load(Ordering::Acquire)
    }

    /// Shards not declared dead.
    pub fn live_shards(&self) -> u64 {
        let alive = self.shared.shard_alive.iter();
        alive.filter(|a| a.load(Ordering::Acquire)).count() as u64
    }

    /// Live sessions across live shards.
    pub fn live_sessions(&self) -> u64 {
        self.shared.total_sessions()
    }

    /// A snapshot of per-session service counters.
    pub fn session_stats(&self) -> HashMap<SessionId, SessionStats> {
        self.shared
            .stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Chaos hook: makes shard `idx` exit its loop without cleanup,
    /// simulating a crashed shard. The shard lease declares it dead and
    /// the service degrades onto the survivors.
    pub fn stall_shard(&self, idx: usize) {
        let _ = self.router.shard_tx[idx].send(ShardMsg::Stall);
    }

    /// Chaos hook: "kills" the whole server process. Ingress is dropped
    /// on the floor, every shard loop exits at its next tick, and —
    /// unlike [`shutdown`](Self::shutdown) — client connections are
    /// *not* closed: to a client the host simply went silent, exactly
    /// like a kernel panic. The journal (if any) keeps whatever was
    /// durably appended; nothing in flight survives.
    pub fn halt(&self) {
        self.shared.halted.store(true, Ordering::Release);
        for tx in &self.router.shard_tx {
            // Nudge parked shards so they notice the halt now rather
            // than at the next tick timeout.
            let _ = tx.send(ShardMsg::Shutdown);
        }
    }

    /// Whether this server has been fenced out by a newer incarnation
    /// (a journal append was rejected). A fenced server never releases.
    pub fn fenced(&self) -> bool {
        self.shared.fenced.load(Ordering::Acquire)
    }

    /// Whether [`halt`](Self::halt) (or a scripted [`ServerCrash`]) has
    /// "killed" this server.
    pub fn halted(&self) -> bool {
        self.shared.halted.load(Ordering::Acquire)
    }

    /// This server's fencing token: 0 when unjournaled, else the
    /// incarnation claimed from the journal at start.
    pub fn incarnation(&self) -> u64 {
        self.shared.incarnation
    }

    /// Attaches a warm-standby replication stream: every journaled
    /// batch is teed over `transport` (best effort) and the lowest live
    /// shard beacons heartbeats so the standby can tell an idle primary
    /// from a dead one.
    pub fn attach_replica(&self, transport: Box<dyn Transport>) {
        *self.shared.repl.lock().unwrap_or_else(|e| e.into_inner()) = Some(transport);
    }

    /// Stops every shard (and UDS pump) thread and waits for them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for tx in &self.router.shard_tx {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
        let pumps =
            std::mem::take(&mut *self.pump_handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in pumps {
            let _ = h.join();
        }
    }
}

impl Drop for EpochServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{BarrierClient, ClientConfig};
    use crate::proto::HOLD;
    use crate::transport::NetError;

    /// Fast ticks with a generous session lease: these tests exercise
    /// the protocol, not eviction, and must not lose a session to a
    /// scheduler stall on an oversubscribed CI host. Eviction tests
    /// configure their own short leases explicitly.
    fn quick_cfg(shards: usize) -> ServerConfig {
        ServerConfig {
            shards,
            tick: Duration::from_micros(200),
            lease: SupervisorConfig {
                min_grace: Duration::from_secs(1),
                sigma_mult: 4.0,
                max_misses: 3,
            },
            ..ServerConfig::default()
        }
    }

    #[test]
    fn single_client_advances_episodes() {
        let server = EpochServer::start(quick_cfg(2));
        let mut c = BarrierClient::new(server.connect(), 1, ClientConfig::default());
        c.join().unwrap();
        for i in 0..5 {
            let ep = c.arrive().unwrap();
            assert!(ep >= i, "episode {ep} below round {i}");
        }
        // Exactly-once bound: the join-frame proxy may race the first
        // real arrival, costing at most one count.
        let st = server.session_stats()[&1];
        assert!((4..=5).contains(&st.completed), "completed {st:?}");
        server.shutdown();
    }

    /// The credit for an episode is on the ledger no later than the
    /// `Release` that announces it: a client that reads the ledger
    /// straight after `arrive()` returns must find every episode it has
    /// seen released — and, the session being alone, not one more.
    #[test]
    fn ledger_is_never_behind_an_observed_release() {
        let server = EpochServer::start(quick_cfg(1));
        let mut c = BarrierClient::new(server.connect(), 1, ClientConfig::default());
        c.join().unwrap();
        // The join epoch was released by proxy (no credit); its re-ack
        // answers this arrive, so nothing is in flight at the read.
        c.arrive().unwrap();
        let base = server.session_stats()[&1].completed;
        for done in 1..=5_000 {
            c.arrive().unwrap();
            let seen = server.session_stats()[&1].completed;
            assert_eq!(seen, base + done, "ledger vs releases seen");
        }
        server.shutdown();
    }

    #[test]
    fn two_clients_rendezvous() {
        let server = EpochServer::start(quick_cfg(2));
        let t1 = server.connect();
        let t2 = server.connect();
        std::thread::scope(|s| {
            for (sid, t) in [(10u64, t1), (11u64, t2)] {
                s.spawn(move || {
                    let mut c = BarrierClient::new(t, sid, ClientConfig::default());
                    c.join().unwrap();
                    for _ in 0..20 {
                        c.arrive().unwrap();
                    }
                    // The two may have been welcomed one episode apart
                    // (the first join's proxy arrival releases an epoch
                    // on its own): whoever finishes first must not leave
                    // the other waiting out its lease for the last one.
                    c.leave().unwrap();
                });
            }
        });
        let stats = server.session_stats();
        assert!((19..=20).contains(&stats[&10].completed), "{stats:?}");
        assert!((19..=20).contains(&stats[&11].completed), "{stats:?}");
        server.shutdown();
    }

    /// A threaded smoke of [`only_the_silent_session_is_evicted`], on a
    /// session lease no host stall outlasts: a 250 ms floor, so the
    /// silent session is evicted a second after it joins, and the live
    /// client re-sends its first arrival for up to four.
    #[test]
    fn silent_session_is_evicted_and_survivors_proceed() {
        let server = EpochServer::start(lease_cfg(Duration::from_millis(250)));
        let mut dead = BarrierClient::new(server.connect(), 2, ClientConfig::default());
        dead.join().unwrap();
        let mut live = BarrierClient::new(server.connect(), 1, patient_client());
        live.join().unwrap();
        for _ in 0..10 {
            live.arrive().unwrap();
        }
        let stats = server.session_stats();
        assert!((9..=10).contains(&stats[&1].completed), "{stats:?}");
        assert_eq!(stats[&2].evictions, 1);
        server.shutdown();
    }

    /// A threaded smoke of [`an_evicted_session_rejoins`] on the same
    /// lease: session 1's arrivals wait out session 2's lease, session
    /// 2's next arrival learns of the eviction, and it rejoins.
    #[test]
    fn evicted_session_rejoins() {
        let server = EpochServer::start(lease_cfg(Duration::from_millis(250)));
        let mut a = BarrierClient::new(server.connect(), 1, patient_client());
        let mut b = BarrierClient::new(server.connect(), 2, ClientConfig::default());
        a.join().unwrap();
        b.join().unwrap();
        for _ in 0..8 {
            a.arrive().unwrap();
        }
        // The release of its join epoch may still be queued and answer
        // its first arrival; the next one learns of the eviction.
        let refused = (0..2).find_map(|_| b.arrive().err());
        assert_eq!(refused, Some(combar_rt::BarrierError::Evicted));
        b.rejoin().unwrap();
        let stats = server.session_stats();
        assert_eq!(stats[&2].rejoins, 1, "{stats:?}");
        server.shutdown();
    }

    /// A client that re-sends one request for up to four seconds.
    fn patient_client() -> ClientConfig {
        ClientConfig {
            max_attempts: 160,
            ..ClientConfig::default()
        }
    }

    /// A server in virtual time for the session-lease properties: two
    /// [`ShardCore`]s on [`lease_cfg`]'s 2 ms lease, and
    /// [`release_ready`] over their reports standing in for the root,
    /// each release stepped into both shards as the broadcast would.
    /// Session `s` is routed to shard `s % 2` on connection `s`.
    struct VirtualServer {
        t0: Instant,
        shards: Vec<ShardCore>,
        reported: Vec<u64>,
        episode: u64,
        credits: BTreeMap<SessionId, u64>,
        /// Every membership change, with when it was stepped.
        roster: Vec<(SessionId, Delta, Instant)>,
    }

    impl VirtualServer {
        /// Steps `input` into `shard` at `now`, then releases every
        /// episode the reports complete; returns the step's responses.
        fn step(&mut self, shard: usize, now: Instant, input: Input) -> Vec<(ConnId, Response)> {
            let fx = self.shards[shard].step(now, input);
            if let Some(frame) = fx.report {
                self.reported[shard] = frame + 1;
            }
            for session in fx.credits {
                *self.credits.entry(session).or_default() += 1;
            }
            let roster = fx
                .roster
                .into_iter()
                .map(|(session, delta)| (session, delta, now));
            self.roster.extend(roster);
            // Reports are stamped with their episode, so a release stepped
            // into one shard cannot complete the next before all have it.
            let shards = self.shards.iter().zip(&self.reported);
            let reports = shards.map(|(s, &r)| (true, r, s.live));
            if release_ready(self.episode, reports, false, false, false) {
                self.episode += 1;
                for shard in 0..self.shards.len() {
                    self.step(shard, now, Input::Release(self.episode - 1));
                }
            }
            fx.frames
        }

        /// A request from `session` (its connection), on its shard.
        fn request(&mut self, now: Instant, input: Input) -> Vec<(ConnId, Response)> {
            let Input::Request(conn, ..) = input else {
                unreachable!("not a request")
            };
            self.step(conn as usize % 2, now, input)
        }
    }

    /// A session lease of `min_grace` with two misses, on two shards.
    fn lease_cfg(min_grace: Duration) -> ServerConfig {
        ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            lease: SupervisorConfig {
                min_grace,
                sigma_mult: 4.0,
                max_misses: 2,
            },
            ..ServerConfig::default()
        }
    }

    /// Sessions 1 and 2 join a [`VirtualServer`]; then each shard ticks
    /// at each of its turns, session 1 arrives at its first turn after it
    /// sees its last arrival released, and `session_2` takes session 2's
    /// turn, 40 ms after the last, until it returns `true`. A turn comes
    /// a tick after the last plus a seeded jitter of up to a tick, and
    /// one of session 1's turns in ten and one of a shard's in a hundred
    /// is a stall of up to 7 ms.
    fn lease_run(
        seed: u64,
        mut session_2: impl FnMut(&mut VirtualServer, Instant) -> bool,
    ) -> VirtualServer {
        use crate::shard::tests::{arrive, hello};
        use combar_rng::Rng;
        let (tick, ms) = (Duration::from_micros(200), Duration::from_millis(1));
        let mut rng = combar_rng::SplitMix64::new(seed);
        let t0 = Instant::now();
        let cfg = lease_cfg(2 * ms);
        let mut server = VirtualServer {
            t0,
            shards: (0..2)
                .map(|i| ShardCore::new(i, &cfg, 0, 0, None, t0))
                .collect(),
            reported: vec![0; 2],
            episode: 0,
            credits: BTreeMap::new(),
            roster: Vec::new(),
        };
        server.request(t0, hello(1));
        server.request(t0, hello(2));
        // The turns of shard 0, shard 1 and the two sessions, and the
        // episode session 1 last arrived for (its join's).
        let (mut turns, mut last) = ([t0, t0, t0, t0 + 40 * ms], 0);
        loop {
            let (who, now) = (0..4)
                .map(|w| (w, turns[w]))
                .min_by_key(|&(_, t)| t)
                .unwrap();
            assert!(now - t0 < Duration::from_secs(1), "seed {seed}: stuck");
            if who == 3 {
                if session_2(&mut server, now) {
                    return server;
                }
                turns[3] = now + 40 * ms;
                continue;
            }
            if who < 2 {
                server.step(who, now, Input::Tick(false));
            } else if server.episode > last {
                last = server.episode;
                let answer = server.request(now, arrive(1, last, last));
                assert!(answer.is_empty(), "seed {seed}: {answer:?}");
            }
            let (odds, jitter) = (if who < 2 { 100 } else { 10 }, rng.next_f64());
            let stall = if rng.next_u64() % odds == 0 {
                7 * ms
            } else {
                tick
            };
            turns[who] = now + tick + stall.mul_f64(jitter);
        }
    }

    /// `silent_session_is_evicted_and_survivors_proceed` in virtual
    /// time: session 2 says nothing. On each of 100 seeds, it alone is
    /// evicted, once and no earlier than four 2 ms leases after it
    /// joined, and by its first turn session 1 has crossed more than ten
    /// episodes, each credited.
    #[test]
    fn only_the_silent_session_is_evicted() {
        for seed in 0..100 {
            let server = lease_run(seed, |_, _| true);
            let [_, _, (2, Delta::Evict, at)] = server.roster[..] else {
                panic!("seed {seed}: membership {:?}", server.roster);
            };
            let joined = at - server.t0;
            assert!(
                joined >= Duration::from_millis(8),
                "seed {seed}: {joined:?}"
            );
            assert!(
                server.episode > 10,
                "seed {seed}: {} episodes",
                server.episode
            );
            assert_eq!(server.credits[&1], server.episode - 1, "seed {seed}");
        }
    }

    /// `evicted_session_rejoins` in virtual time: session 2 arrives at
    /// each of its turns, so it is silent for 40 ms at a time. On each
    /// of 100 seeds, the first two silences outlast its lease: each ends
    /// in its eviction, no earlier than four 2 ms leases after its last
    /// request, and its arrival is answered `Evicted` and its `Hello`
    /// rejoins it. By then the lease has widened to the pauses it saw
    /// (`sigma_mult` times the pooled σ of the beat intervals), and the
    /// next two arrivals count. Session 1 is never evicted and is
    /// credited every episode released after the joins.
    #[test]
    fn an_evicted_session_rejoins() {
        use crate::shard::tests::{arrive, hello};
        for seed in 0..100 {
            let (mut evicted, mut quiet_since) = (Vec::new(), None);
            let server = lease_run(seed, |server, now| {
                let eviction = server.roster.last().copied();
                let eviction = eviction.filter(|c| c.1 == Delta::Evict);
                if let Some((session, _, at)) = eviction {
                    let silent = at - quiet_since.unwrap_or(server.t0);
                    assert_eq!(session, 2, "seed {seed}");
                    assert!(
                        silent >= Duration::from_millis(8),
                        "seed {seed}: {silent:?}"
                    );
                }
                let answer = server.request(now, arrive(2, server.episode, 0));
                if eviction.is_some() {
                    assert!(
                        matches!(answer[..], [(2, Response::Evicted { .. })]),
                        "{answer:?}"
                    );
                    server.request(now, hello(2));
                    assert_eq!(server.roster.last(), Some(&(2, Delta::Hello(true), now)));
                } else {
                    assert!(answer.is_empty(), "seed {seed}: {answer:?}");
                }
                evicted.push(eviction.is_some());
                quiet_since = Some(now);
                evicted.len() == 4
            });
            assert_eq!(evicted, [true, true, false, false], "seed {seed}");
            assert_eq!(server.credits[&1], server.episode - 1, "seed {seed}");
        }
    }

    /// The root lease in virtual time, on a four-shard server's
    /// `shard_lease` of a 2 ms floor and two misses: each shard beats at
    /// every turn and then polls its [`lease_targets`], as
    /// `ShardDriver::turn` does. A turn comes a tick after the last plus
    /// a seeded jitter of up to a tick, and one turn in a hundred is a
    /// stall of up to 7 ms. One shard — each in turn, the lowest and so
    /// the pollers included — stops after 50 ms. It alone is declared
    /// dead, no earlier than four 2 ms leases after its last beat (a
    /// miss at one lease, a second at two and the declaration at four)
    /// and within 40 ms, on each of 100 seeds.
    #[test]
    fn only_the_stalled_shard_is_declared_dead() {
        use combar_rng::{Rng, SplitMix64};
        let (tick, ms) = (Duration::from_micros(200), Duration::from_millis(1));
        let cfg = SupervisorConfig {
            min_grace: 2 * ms,
            sigma_mult: 4.0,
            max_misses: 2,
        };
        for (stalled, seed) in (0..4u32).flat_map(|s| (0..100u64).map(move |seed| (s, seed))) {
            let mut rng = SplitMix64::new(seed);
            let t0 = Instant::now();
            let sup = Supervisor::starting_at(4, cfg, t0);
            let (mut turns, mut alive) = ([t0; 4], vec![0, 1, 2, 3]);
            let (mut last_beat, mut declared) = (t0, Vec::new());
            while let Some(&me) = alive.iter().min_by_key(|&&s| turns[s as usize]) {
                let now = turns[me as usize];
                if now - t0 > 50 * ms + 40 * ms {
                    break;
                }
                let jitter = match rng.next_u64() % 100 {
                    0 => 7 * ms,
                    _ => tick,
                };
                turns[me as usize] = now + tick + jitter.mul_f64(rng.next_f64());
                if me == stalled && now - t0 > 50 * ms {
                    turns[me as usize] = t0 + Duration::from_secs(3_600);
                    continue;
                }
                sup.beat_at(me, now);
                if me == stalled {
                    last_beat = now;
                }
                for dead in sup.lease_pass(now, lease_targets(&alive, me).to_vec()) {
                    declared.push((dead, now - last_beat));
                    alive.retain(|&s| s != dead);
                }
            }
            let [(dead, silent)] = declared[..] else {
                panic!("seed {seed}, shard {stalled} stalled: {declared:?}");
            };
            assert_eq!(dead, stalled, "seed {seed}");
            assert!(silent >= 8 * ms && silent < 40 * ms, "{silent:?}");
        }
    }

    /// A threaded smoke of the same property, on a root lease no host
    /// stall outlasts: a 250 ms floor, so a stalled shard is declared
    /// after a second of silence, and its sessions' clients re-send for
    /// up to four.
    #[test]
    fn dead_shard_degrades_gracefully() {
        let server = EpochServer::start(ServerConfig {
            shards: 4,
            tick: Duration::from_micros(200),
            shard_lease: SupervisorConfig {
                min_grace: Duration::from_millis(250),
                sigma_mult: 4.0,
                max_misses: 2,
            },
            ..ServerConfig::default()
        });
        // Sessions 0..8 spread over 4 shards; shard 2 dies.
        let mut transports: Vec<_> = (0..8u64).map(|_| Some(server.connect())).collect();
        std::thread::scope(|s| {
            for sid in 0..8u64 {
                let t = transports[sid as usize].take().unwrap();
                let server = &server;
                s.spawn(move || {
                    let mut c = BarrierClient::new(t, sid, patient_client());
                    c.join().unwrap();
                    let mut done = 0u32;
                    while done < 30 {
                        if sid == 0 && done == 5 {
                            server.stall_shard(2);
                        }
                        match c.arrive() {
                            Ok(_) => done += 1,
                            Err(combar_rt::BarrierError::Evicted) => {
                                c.rejoin().unwrap();
                            }
                            Err(e) => panic!("session {sid}: {e:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(server.live_shards(), 3, "shard 2 not declared dead");
        for (sid, st) in server.session_stats() {
            assert!(
                st.completed + 1 + st.evictions + st.rejoins >= 30,
                "session {sid} stalled: {st:?}"
            );
        }
        server.shutdown();
    }

    /// The root must pair completeness reports with shard liveness: a
    /// shard that reported complete and then died must not leave a
    /// stale report that — against the post-death live count —
    /// releases the episode while a surviving shard's session still
    /// owes its arrival. (A bare `shards_done` counter had exactly
    /// this hazard: the count kept the dead shard's report while
    /// `live` lost the shard, so `done >= live` came true one genuine
    /// arrival short.)
    #[test]
    fn dead_shards_stale_report_cannot_release_early() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            tick: Duration::from_micros(200),
            // Sessions effectively never lease out; only the shard dies.
            lease: SupervisorConfig {
                min_grace: Duration::from_secs(30),
                sigma_mult: 4.0,
                max_misses: 30,
            },
            shard_lease: SupervisorConfig {
                min_grace: Duration::from_millis(2),
                sigma_mult: 4.0,
                max_misses: 2,
            },
            ..ServerConfig::default()
        });
        // Session 0 homes on shard 0, session 1 on shard 1.
        let mut c0 = BarrierClient::new(server.connect(), 0, ClientConfig::default());
        let mut c1 = BarrierClient::new(server.connect(), 1, ClientConfig::default());
        c0.join().unwrap();
        c1.join().unwrap();
        // Let the join-side proxy arrivals settle: shard 1's membership
        // (only session 1, proxy-arrived) is complete, so its reported
        // flag is up, while shard 0 waits on session 0's real arrival.
        std::thread::sleep(Duration::from_millis(10));
        let ep = server.episode();
        // The reported shard dies. (Shard 0 is a root poller, so its
        // peer's death is detected.)
        server.stall_shard(1);
        let t = Instant::now();
        while server.live_shards() != 1 {
            assert!(
                t.elapsed() < Duration::from_secs(5),
                "shard death undetected"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Session 0 still owes its arrival, so the in-flight episode
        // must stay open — the dead shard's report must not combine
        // with the shrunken live count into an early release.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            server.episode(),
            ep,
            "released on a dead shard's stale report"
        );
        // Session 0's real arrival (after draining any stale releases
        // of already-completed episodes) is what releases the episode.
        let t = Instant::now();
        while server.episode() == ep {
            c0.arrive().unwrap();
            assert!(
                t.elapsed() < Duration::from_secs(5),
                "no release after arrival"
            );
        }
        server.shutdown();
    }

    /// Shard 0 of a server without its threads, and that shard's inbox:
    /// the test is the shard thread.
    fn hand_cranked(cfg: ServerConfig) -> (ShardDriver, mpsc::Receiver<ShardMsg>) {
        let (shared, router, mut inboxes) = EpochServer::wire_up(&cfg, None, None);
        (ShardDriver::new(0, shared, router, cfg), inboxes.remove(0))
    }

    #[test]
    fn sixteen_queued_arrives_cost_one_turn_and_one_outbox_lock() {
        let (mut st, inbox) = hand_cranked(quick_cfg(1));
        let mut wires: Vec<_> = (0..16).map(|_| st.router.connect()).collect();
        let mut send_all = |req: &dyn Fn(u64) -> Request| {
            for (sid, w) in wires.iter_mut().enumerate() {
                while w.recv_timeout(Duration::ZERO).is_ok() {} // earlier replies
                w.send(&req(sid as u64).encode()).unwrap();
            }
        };
        // Sixteen joins, and the release of the join epoch that the
        // first of them completes by proxy: one batch.
        send_all(&|session| Request::Hello { session, seq: 0 });
        assert!(st.turn(&inbox));
        assert_eq!((st.core.frame, st.core.live, st.core.arrived), (1, 16, 0));
        // Sixteen arrivals and the release the last one causes: one
        // turn — so one housekeeping pass — and one lock of the outbox
        // for the whole fan-out.
        send_all(&|session| Request::Arrive {
            session,
            episode: 1,
            seq: 1,
        });
        let locks = st.router.outbox_locks.load(Ordering::Relaxed);
        assert!(st.turn(&inbox));
        assert_eq!(st.router.outbox_locks.load(Ordering::Relaxed) - locks, 1);
        assert_eq!(st.core.frame, 2, "the release rode in the arrivals' batch");
        assert!(inbox.try_recv().is_err(), "nothing left for a second turn");
        for w in &mut wires {
            let frame = w.recv_timeout(Duration::ZERO).expect("released");
            let release = Response::Release { episode: 1, inc: 0 };
            assert_eq!(Response::decode(&frame), Ok(release));
            assert_eq!(w.recv_timeout(Duration::ZERO), Err(NetError::Timeout));
        }
        let ledger = st.shared.stats.lock().unwrap();
        assert!((0..16).all(|sid| ledger[&sid].completed == 1), "{ledger:?}");
    }

    /// Every frame waiting on a hand-rolled wire, oldest first.
    fn drain_wire(w: &mut impl Transport) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| w.recv_timeout(Duration::ZERO).ok()).collect()
    }

    fn send_arrive_raw(w: &mut impl Transport, session: SessionId, episode: u64, seq: u64) {
        let arrive = Request::Arrive {
            session,
            episode,
            seq,
        };
        w.send(&arrive.encode()).unwrap();
    }

    /// A client wire that logs `(session, outbound, episode)` for every
    /// `Arrive` it sends and every `Release` it receives (`u64::MAX`
    /// for the episode of any other frame).
    struct Tally<T> {
        inner: T,
        session: SessionId,
        log: Arc<Mutex<Vec<(SessionId, bool, u64)>>>,
    }

    impl<T: Transport> Transport for Tally<T> {
        fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
            let episode = match Request::decode(frame) {
                Ok(Request::Arrive { episode, .. }) => episode,
                _ => u64::MAX,
            };
            self.log.lock().unwrap().push((self.session, true, episode));
            self.inner.send(frame)
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
            let frame = self.inner.recv_timeout(timeout)?;
            let episode = match Response::decode(&frame) {
                Ok(Response::Release { episode, .. }) => episode,
                _ => u64::MAX,
            };
            self.log
                .lock()
                .unwrap()
                .push((self.session, false, episode));
            Ok(frame)
        }

        fn flush_stale(&mut self) {
            self.inner.flush_stale();
        }
    }

    /// The clean wire is never armed: a thousand episodes of four real
    /// clients put exactly one `Arrive` and one `Release` per session
    /// per episode on the wire — `served_clean`'s sequence of
    /// operations, including its join and catch-up, which re-acks a
    /// join epoch released by proxy.
    #[test]
    fn a_clean_wire_sends_one_arrive_and_one_release_per_session_per_episode() {
        const SESSIONS: u64 = 4;
        const EPISODES: u64 = 1_000;
        let (st, inbox) = hand_cranked(quick_cfg(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        // No attempt may time out on a loaded host and re-send.
        let cfg = ClientConfig {
            request_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        };
        let mut clients: Vec<_> = (0..SESSIONS)
            .map(|session| {
                let wire = Tally {
                    inner: st.router.connect(),
                    session,
                    log: Arc::clone(&log),
                };
                BarrierClient::new(wire, session, cfg)
            })
            .collect();
        // Joining needs a shard that answers: run the loop on a helper
        // thread until every client is in and they all stand at one
        // episode, then take the shard back and crank it by hand.
        let running = AtomicBool::new(true);
        let (mut st, inbox) = std::thread::scope(|s| {
            let running = &running;
            let shard = s.spawn(move || {
                let mut st = st;
                while running.load(Ordering::Acquire) {
                    assert!(st.turn(&inbox));
                }
                (st, inbox)
            });
            for c in &mut clients {
                c.join().unwrap();
            }
            let front = clients.iter().map(|c| c.episode()).max().unwrap();
            for c in &mut clients {
                while c.episode() < front {
                    c.arrive().unwrap();
                }
            }
            running.store(false, Ordering::Release);
            shard.join().unwrap()
        });
        let first = clients[0].episode();
        let setup = log.lock().unwrap().len();
        for episode in first..first + EPISODES {
            for c in &mut clients {
                c.send_arrive().unwrap();
            }
            assert!(st.turn(&inbox));
            for c in &mut clients {
                assert_eq!(c.poll_release(Duration::from_secs(1)), Ok(episode));
            }
        }
        // What the catch-up left on a wire is an earlier episode's.
        let mut measured: Vec<_> = log.lock().unwrap()[setup..]
            .iter()
            .copied()
            .filter(|&(_, out, episode)| out || episode >= first)
            .collect();
        measured.sort_unstable();
        let expected: Vec<_> = (0..SESSIONS)
            .flat_map(|sid| [false, true].map(|out| (sid, out)))
            .flat_map(|(sid, out)| (first..first + EPISODES).map(move |e| (sid, out, e)))
            .collect();
        assert_eq!(measured, expected);
        assert!(clients.iter().all(|c| c.stats().retries == 0));
    }

    /// A re-sent arrival for a released episode is re-acked with one
    /// frame and adds a copy to that session's releases alone: its next
    /// release goes out as two frames, a second re-send makes every one
    /// after it three, each `HOLD` releases without a re-send take one
    /// copy away again, and every other session's releases stay at one
    /// frame, each fan-out still under one `outbox` lock. The session
    /// sends each arrival as many times as its releases come, as a
    /// client that has seen loss does, and the ledger credits every
    /// episode exactly once.
    #[test]
    fn a_reacked_arrive_doubles_that_sessions_next_releases() {
        const SESSIONS: u64 = 3;
        const ARMED: SessionId = 2;
        let hold = u64::from(HOLD);
        let last = 2 * hold + 3;
        // The copies of `Release{episode}` due to `session`.
        let copies = |session, episode: u64| match (session, episode) {
            (ARMED, 1 | 2) => episode as usize,
            (ARMED, _) => 3 - ((episode - 3) / hold).min(2) as usize,
            _ => 1,
        };
        let (mut st, inbox) = hand_cranked(quick_cfg(1));
        let mut wires: Vec<_> = (0..SESSIONS).map(|_| st.router.connect()).collect();
        for (session, w) in (0..).zip(&mut wires) {
            w.send(&Request::Hello { session, seq: 0 }.encode())
                .unwrap();
        }
        assert!(st.turn(&inbox));
        assert_eq!(st.core.frame, 1, "joined in one batch, epoch 0 by proxy");
        let release = |episode| Response::Release { episode, inc: 0 }.encode();
        for episode in 1..=last {
            for (session, w) in (0..).zip(&mut wires) {
                drain_wire(w);
                for _ in 0..copies(session, episode) {
                    send_arrive_raw(w, session, episode, 2 * episode);
                }
            }
            let locks = st.router.outbox_locks.load(Ordering::Relaxed);
            assert!(st.turn(&inbox));
            assert_eq!(st.router.outbox_locks.load(Ordering::Relaxed) - locks, 1);
            assert_eq!(st.core.frame, episode + 1);
            for (session, w) in (0..).zip(&mut wires) {
                assert_eq!(
                    drain_wire(w),
                    vec![release(episode); copies(session, episode)],
                    "session {session} episode {episode}"
                );
            }
            if episode <= 2 {
                // The armed session's `Release` is lost; it re-sends.
                let w = &mut wires[ARMED as usize];
                send_arrive_raw(w, ARMED, episode, 2 * episode + 1);
                assert!(st.turn(&inbox));
                assert_eq!(drain_wire(w), vec![release(episode)]);
            }
        }
        let ledger = st.shared.stats.lock().unwrap();
        for session in 0..SESSIONS {
            assert_eq!(ledger[&session].completed, last, "{ledger:?}");
        }
    }

    #[test]
    fn a_stop_in_mid_batch_leaves_every_later_message_unhandled() {
        let hello = |session| ShardMsg::Net(session, Request::Hello { session, seq: 0 });
        let joined = |st: &ShardDriver| {
            let mut sids: Vec<_> = st.core.sessions.keys().copied().collect();
            sids.sort_unstable();
            sids
        };
        // A simulated shard crash.
        let (mut st, _inbox) = hand_cranked(quick_cfg(1));
        assert!(!st.drain([hello(0), ShardMsg::Stall, hello(1)].into_iter()));
        assert_eq!(joined(&st), [0]);
        // A scripted whole-server crash, raised by the release that the
        // first message's own handling wins.
        let (mut st, _inbox) = hand_cranked(ServerConfig {
            crash: Some(ServerCrash {
                at_epoch: 0,
                mid_broadcast: false,
            }),
            ..quick_cfg(1)
        });
        assert!(!st.drain([hello(0), hello(1)].into_iter()));
        assert!(st.shared.halted.load(Ordering::Acquire));
        assert_eq!(joined(&st), [0]);
        // A death declaration by the root lease, landing between the
        // first message and the second.
        let (mut st, _inbox) = hand_cranked(quick_cfg(1));
        let shared = st.shared.clone();
        let msgs = [hello(0), hello(1), hello(2)].into_iter().enumerate();
        assert!(!st.drain(msgs.map(|(i, msg)| {
            if i == 1 {
                shared.shard_alive[0].store(false, Ordering::Release);
            }
            msg
        })));
        assert_eq!(joined(&st), [0]);
    }

    /// What a release winner preempted straight after its CAS leaves
    /// behind: the episode bumped, the reports it won on still standing.
    /// A second caller must not take them for the next episode's.
    #[test]
    fn reports_expire_with_the_episode_they_were_for() {
        let (st, inbox) = hand_cranked(quick_cfg(1));
        let shared = &st.shared;
        shared.live_sessions[0].store(1, Ordering::Release);
        shared.shard_reported[0].store(1, Ordering::Release); // episode 0
        shared.episode.store(1, Ordering::Release); // the winner's CAS
        try_release(shared, &st.router);
        assert_eq!(shared.episode.load(Ordering::Acquire), 1);
        assert!(inbox.try_recv().is_err(), "released with nobody arrived");
        // Once the shard reports episode 1 itself, it releases.
        shared.shard_reported[0].store(2, Ordering::Release);
        try_release(shared, &st.router);
        assert!(matches!(inbox.try_recv(), Ok(ShardMsg::Release(1))));
    }

    /// A one-shard server, hand-cranked, with session 0 joined and its
    /// join epoch released: the session owes frame 1.
    fn one_joined_session() -> (ShardDriver, mpsc::Receiver<ShardMsg>, LoopbackTransport) {
        let (mut st, inbox) = hand_cranked(quick_cfg(1));
        let mut wire = st.router.connect();
        wire.send(&Request::Hello { session: 0, seq: 0 }.encode())
            .unwrap();
        assert!(st.turn(&inbox));
        assert_eq!((st.core.frame, st.core.live), (1, 1));
        (st, inbox, wire)
    }

    fn evictions(st: &ShardDriver, session: SessionId) -> u64 {
        st.shared.stats.lock().unwrap()[&session].evictions
    }

    #[test]
    fn a_dead_shard_does_not_evict_a_session_that_left() {
        let (mut st, inbox, mut wire) = one_joined_session();
        wire.send(&Request::Leave { session: 0, seq: 1 }.encode())
            .unwrap();
        assert!(st.turn(&inbox));
        declare_shard_dead(&st.shared, &st.router, 0);
        assert_eq!(evictions(&st, 0), 0);
    }

    #[test]
    fn a_dead_shard_does_not_evict_a_lease_evicted_session_again() {
        let (mut st, _inbox, _wire) = one_joined_session();
        // Silent on a virtual clock until its lease declares it.
        while st.core.live > 0 {
            st.now += Duration::from_secs(10);
            st.step(Input::Tick(false));
        }
        assert_eq!(evictions(&st, 0), 1);
        declare_shard_dead(&st.shared, &st.router, 0);
        assert_eq!(evictions(&st, 0), 1);
    }

    #[test]
    fn idle_shard_never_spins_and_waits_out_its_tick() {
        use crate::transport::handoff_cost;
        let (mut st, inbox) = hand_cranked(quick_cfg(1));
        let tick = st.cfg.tick;
        // `(spins, parks)` of one turn; an idle one must last its tick.
        let turn = |st: &mut ShardDriver, idle: bool| {
            let t0 = Instant::now();
            let (alive, cost) = handoff_cost(|| st.turn(&inbox));
            assert!(alive);
            assert!(
                !idle || t0.elapsed() >= tick,
                "an idle turn cut its tick short"
            );
            cost
        };
        for _ in 0..3 {
            assert_eq!(turn(&mut st, true), (0, 1));
        }
        // Traffic makes the shard hot for exactly one more wait.
        let beat = Request::Heartbeat { session: 9, seq: 0 };
        st.router.shard_tx[0].send(ShardMsg::Net(0, beat)).unwrap();
        assert_eq!(turn(&mut st, false), (0, 0), "the message was waiting");
        let (spins, parks) = turn(&mut st, true);
        assert!(spins > 0 && parks <= 1, "hot: looked, then parked");
        assert_eq!(turn(&mut st, true), (0, 1), "cold again");
    }

    /// Router assignments are sticky, so a shard with no free session
    /// slot must shed the assignment when it drops a `Hello` — and the
    /// router must probe past full shards — or every retry lands on
    /// the same full shard until join() exhausts its attempts.
    #[test]
    fn full_shard_redirects_new_sessions_to_headroom() {
        let server = EpochServer::start(ServerConfig {
            shards: 2,
            session_capacity: 2,
            ..quick_cfg(2)
        });
        // Sessions 0, 2, 4 all home on shard 0 (session % 2); capacity
        // seats two, so the third must be admitted by shard 1.
        for sid in [0u64, 2, 4] {
            let mut c = BarrierClient::new(server.connect(), sid, ClientConfig::default());
            c.join()
                .unwrap_or_else(|e| panic!("session {sid} failed to join: {e:?}"));
        }
        assert_eq!(server.live_sessions(), 3);
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn uds_transport_reaches_the_server() {
        let server = EpochServer::start(quick_cfg(2));
        let t = server.connect_uds().unwrap();
        let mut c = BarrierClient::new(t, 77, ClientConfig::default());
        c.join().unwrap();
        for _ in 0..5 {
            c.arrive().unwrap();
        }
        let st = server.session_stats()[&77];
        assert!((4..=5).contains(&st.completed), "{st:?}");
        server.shutdown();
    }
}
