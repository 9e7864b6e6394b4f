//! The sharded epoch server: barrier-as-a-service.
//!
//! # Topology
//!
//! The server is a two-level combining tree in service clothing.
//! Sessions are partitioned across *shards* (leaf counters); each shard
//! owns its sessions' membership and arrival state behind its own lock,
//! so one step at a time serializes arrivals, evictions and rejoins at a
//! quiescent point by construction. As in the paper, each arrival
//! updates its counter itself: the thread that routes a request (a
//! client's `send`, a UDS pump) steps it into its shard on the spot. A
//! shard whose live sessions have all arrived reports *one* batched
//! completeness bit to the root; the step whose report completes the
//! root view wins the release, and its thread fans the release out into
//! every live shard, each of which sends it to its own clients. Arrivals
//! aggregate up the tree (sessions → shard → root) and the release
//! broadcasts back down: the paper's arrival/release split.
//!
//! # Core and driver
//!
//! The protocol is two pure cores, each a step from one input at a
//! given `now` to the effects it has outside: `ShardCore` (`shard.rs`)
//! for a shard's sessions, arrivals, tombstones, fan-out, report and
//! session leases, and `RootCore` (`root.rs`) for the episode, the
//! ledger, the journal batch, the recovery and the root lease. This
//! module is their driver. A step reads the clock, steps a shard's core
//! under the shard's lock and drops the routes it could not seat. If
//! the effects carry anything for the root, it applies them under the
//! root lock: the root books them and hands back the frames, and the
//! release check's winner appends its batch to the journal and tees it
//! to a standby before it lets the lock go. Then the frames go out. A
//! step runs on whichever thread brings its input: a request on the
//! thread that routes it, a release on the thread that won it, and a
//! tick on the shard's ticker thread, which waits out each tick and then
//! runs the tick step, the root-lease beat and pass, and the standby
//! beacon. Routing, the stop checks and [`EpochServer::episode`] take no
//! lock: they read atomic mirrors of the root, stored under its lock.
//!
//! # Lock order
//!
//! A shard's lock is outermost and held alone: no thread holds two
//! shard locks at once, and none takes one while it holds `assign`, the
//! root, `outbox` or `repl`. A step takes those inside its shard's lock,
//! one at a time, except that the root's holder appends to the journal
//! and then takes `repl`. A won release is fanned out only once the
//! winner has dropped its shard lock: one shard lock at a time, in index
//! order. The crash hook's lucky shard may be the winner's own.
//!
//! # Liveness and degradation
//!
//! Two lease layers, both PR 4's [`combar_rt::Supervisor`]:
//!
//! * **Session leases** — each shard's core supervises its sessions;
//!   every request beats the session's slot, and the release it waited
//!   for restarts its lease. A live session that neither arrives nor
//!   heartbeats past its (exponentially widened) lease is evicted: its
//!   in-flight arrival is delivered by proxy and the membership folds
//!   without it, so an episode can never wedge on a dead client. The
//!   client observes [`Response::Evicted`] and may rejoin with a fresh
//!   `Hello`.
//! * **Shard leases** — every shard beats the root lease at each tick,
//!   and each is polled by exactly one peer (see `root.rs`). A shard
//!   declared dead is folded out of the root view — episodes complete
//!   without it, as its report counts no more — and stepped no more:
//!   its ticker exits and requests still routed to it are dropped,
//!   rather than served by a zombie. The sessions live on it are told
//!   `Evicted` best effort, and every route to it is cleared, so rejoins
//!   land on surviving shards.
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
//! replays the journal ([`crate::recover()`]), seeds epoch / roster /
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use combar_rt::SupervisorConfig;

use crate::journal::{frame_entry, Journal, JournalRecord};
use crate::proto::{Request, Response, SessionId};
use crate::recover::RecoveredState;
use crate::root::RootCore;
use crate::shard::{ConnId, Effects, Input, ShardCore};
use crate::transport::{Frame, LoopbackTransport, Transport};

/// Tuning for [`EpochServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (leaf aggregation points). Sessions hash across
    /// them.
    pub shards: usize,
    /// Shard tick: how long a shard's ticker sleeps between runs of its
    /// housekeeping (lease passes, overdue re-sends, its root-lease
    /// beat).
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
                // swallowed here), never a blocked fan-out.
                let _ = sock.send(frame);
            }
        }
    }
}

/// What a shard's ticker thread can be told. Requests and releases
/// never pass through it: they are stepped by the thread that routes or
/// wins them.
enum ShardMsg {
    /// Test/chaos hook: the shard "crashes". Its ticker marks it stalled
    /// — every later request to it is dropped, like traffic to a dead
    /// host — and exits without cleanup; the shard lease detects it.
    Stall,
    /// Orderly shutdown, or a halted server's nudge.
    Shutdown,
}

#[derive(Clone, Copy)]
struct Assignment {
    shard: usize,
    conn: ConnId,
}

/// What every thread shares: the root under its lock, the mirrors of
/// the root that readers without the lock need, and the driver's own
/// flags and handles.
struct Shared {
    /// The root of the aggregation tree (see [`RootCore`]).
    root: Mutex<RootCore>,
    /// Mirrors of the root for readers that take no lock, stored under
    /// it by [`Shared::root`]: the episode, for [`EpochServer::episode`];
    /// each shard's liveness and live count, for `pick_shard`,
    /// `must_stop` and the fan-out; whether the recovery awaits anyone,
    /// so `route` looks a session's challenge up only while it does; and
    /// `halted`, for `route`, `must_stop` and the UDS pumps.
    episode: AtomicU64,
    shard_alive: Vec<AtomicBool>,
    live_sessions: Vec<AtomicU64>,
    recovering: AtomicBool,
    halted: AtomicBool,
    shutdown: AtomicBool,
    /// This server's incarnation: 0 for an unjournaled server, else
    /// claimed from the journal at start. Stamped on every response
    /// frame and every episode append — the fencing token.
    incarnation: u64,
    /// The write-ahead epoch journal, if crash recovery is enabled.
    journal: Option<Arc<Journal>>,
    /// Replication stream to a warm standby: the winner tees every
    /// journaled batch here, best effort, and the lowest live shard
    /// beacons heartbeats so the standby can tell idle from dead.
    repl: Mutex<Option<Box<dyn Transport>>>,
    crash: Option<ServerCrash>,
}

impl Shared {
    /// Runs `f` on the root under its lock, then stores the mirrors.
    fn root<R>(&self, f: impl FnOnce(&mut RootCore) -> R) -> R {
        let mut root = self.root.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut root);
        self.episode.store(root.episode, Ordering::Release);
        let mirrors = self.shard_alive.iter().zip(&self.live_sessions);
        for (leaf, (alive, live)) in root.leaves.iter().zip(mirrors) {
            alive.store(leaf.alive, Ordering::Release);
            live.store(leaf.live, Ordering::Release);
        }
        self.recovering.store(root.recovering(), Ordering::Release);
        self.halted.store(root.halted, Ordering::Release);
        out
    }

    /// The root's release, write-ahead: the winner appends the batch —
    /// and, once it is durable, tees it to a standby and compacts the
    /// journal when a snapshot is due — before anyone can hear of the
    /// episode, and returns it for the caller to fan out once it holds
    /// no shard lock ([`Router::fan_out`]). A refused append fences the
    /// root: no broadcast, ever again, and clients fail over to the
    /// incarnation that fenced us out. Exactly one caller wins an
    /// episode: the root lock serializes them, and the release expires
    /// the reports it was won on.
    fn release(&self, root: &mut RootCore) -> Option<u64> {
        let release = root.release()?;
        let (Some(journal), inc) = (&self.journal, self.incarnation) else {
            return Some(release.episode);
        };
        if journal.append_batch(inc, &release.batch).is_err() {
            root.fence();
            return None;
        }
        let mut repl = self.repl.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = repl.as_mut() {
            let bytes: Vec<u8> = release.batch.iter().flat_map(frame_entry).collect();
            let _ = t.send(&bytes);
        }
        drop(repl);
        if let Some(snapshot) = &release.snapshot {
            // A fence race here (a takeover between our append and this
            // compact) just leaves the journal uncompacted.
            let _ = journal.compact(inc, snapshot);
        }
        Some(release.episode)
    }
}

/// Owns the shards and routes decoded requests to them and responses
/// back to connections. Shared by every connection and shard ticker.
struct Router {
    /// Each shard's driver state, under its own lock: stepped by the
    /// thread that routes a request to the shard, by the thread that
    /// fans a release out, and by the shard's ticker.
    shards: Vec<Mutex<ShardDriver>>,
    /// Each shard ticker's inbox.
    tickers: Vec<mpsc::Sender<ShardMsg>>,
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
    /// mirrored live-session counts are a racy approximation of slot
    /// occupancy; a losing race just drops the `Hello` at the shard
    /// (which clears the assignment) and the retry probes again.
    fn pick_shard(&self, session: SessionId) -> Option<usize> {
        let n = self.shards.len();
        let home = (session % n as u64) as usize;
        (0..n).map(|k| (home + k) % n).find(|&s| {
            self.shared.shard_alive[s].load(Ordering::Acquire)
                && self.shared.live_sessions[s].load(Ordering::Acquire) < self.session_capacity
        })
    }

    /// Ingress: decode, resolve the session's shard (reassigning away
    /// from dead shards), and step the request into it on this thread,
    /// under the shard's lock; then fan out any release the step won.
    /// Malformed frames, frames for a fully-degraded server and frames
    /// for a shard that must stop are dropped — the wire already taught
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
            let mut assign = self.assign();
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
                    assign.insert(session, Assignment { shard: s, conn });
                    s
                }
            }
        };
        let won = {
            let mut st = self.shard(shard);
            // A stalled shard not yet declared dead drops the frame,
            // like traffic to a dead host; the shard lease converts that
            // to eviction and rerouting.
            if st.must_stop(&self.shared) {
                return;
            }
            let shared = &self.shared;
            let awaiting = shared.recovering.load(Ordering::Acquire)
                && shared.root(|root| root.recovered.contains(&session));
            st.step(self, Instant::now(), Input::Request(conn, req, awaiting))
        };
        self.fan_out(won);
    }

    /// Shard `idx`'s state, locked. See the module docs for the lock
    /// order: no other lock may be held while taking this one.
    fn shard(&self, idx: usize) -> std::sync::MutexGuard<'_, ShardDriver> {
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn assign(&self) -> std::sync::MutexGuard<'_, HashMap<SessionId, Assignment>> {
        self.assign.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fans out the episode a step won — `Input::Release` on every live
    /// shard in index order, one shard lock at a time — and then every
    /// episode a release step wins in turn: a shard whose sessions all
    /// arrived by proxy reports its next frame at once. Only the
    /// outermost caller does this, once it holds no shard lock. At the
    /// scripted crash epoch, whose append is durable, the broadcast is
    /// what dies: wholly (kill-at-epoch), or once the first live shard
    /// has sent its frames (kill-mid-broadcast), so some clients observe
    /// the epoch and some never do. What that step wins dies with it.
    fn fan_out(&self, mut won: Option<u64>) {
        while let Some(ep) = won.take() {
            let crash = self.shared.crash.filter(|c| c.at_epoch == ep);
            let reach = crash.map_or(self.shards.len(), |c| usize::from(c.mid_broadcast));
            let alive = |&idx: &usize| self.shared.shard_alive[idx].load(Ordering::Acquire);
            for idx in (0..self.shards.len()).filter(alive).take(reach) {
                let mut st = self.shard(idx);
                if !st.must_stop(&self.shared) {
                    // Only the last live shard's step can win the next
                    // episode: until it runs, that shard reports this one.
                    won = won.or(st.step(self, Instant::now(), Input::Release(ep)));
                }
            }
            if crash.is_some() {
                self.shared.root(RootCore::halt);
                return;
            }
        }
    }

    /// One pass of shard `idx`'s housekeeping, as its ticker runs it
    /// after each wait: the tick step (session leases, overdue re-sends,
    /// the recovery grace), the root-lease beat and pass over its peers
    /// and the standby beacon; then the fan-out of any release that won.
    /// `false` once the shard must stop.
    fn tick(&self, idx: usize) -> bool {
        let won = {
            let mut st = self.shard(idx);
            if st.must_stop(&self.shared) {
                return false;
            }
            let now = Instant::now();
            let recovering = self.shared.recovering.load(Ordering::Acquire);
            let won = st.step(self, now, Input::Tick(recovering));
            // A declaration can complete the episode too, but not one
            // the tick step already won: no shard reports the next
            // episode before its release is fanned out.
            let dead = self.shared.root(|root| root.lease(idx, now));
            let won = dead.into_iter().fold(won, |won, shard| {
                won.or(declare_shard_dead(self, shard as usize))
            });
            st.beacon(&self.shared, now);
            won
        };
        self.fan_out(won);
        true
    }

    /// One turn of shard `idx`'s ticker: wait out `tick` on its inbox,
    /// then [`tick`](Self::tick). `false` once the ticker must exit:
    /// stalled, told to stop, or the shard must stop.
    fn turn(&self, idx: usize, inbox: &mpsc::Receiver<ShardMsg>, tick: Duration) -> bool {
        match inbox.recv_timeout(tick) {
            Ok(ShardMsg::Stall) => {
                self.shard(idx).stalled = true;
                false
            }
            Ok(ShardMsg::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => false,
            Err(mpsc::RecvTimeoutError::Timeout) => self.tick(idx),
        }
    }

    /// Stalls shard `idx` (see [`ShardMsg::Stall`]).
    fn stall(&self, idx: usize) {
        let _ = self.tickers[idx].send(ShardMsg::Stall);
    }

    fn outbox(&self) -> std::sync::MutexGuard<'_, HashMap<ConnId, OutSink>> {
        #[cfg(test)]
        self.outbox_locks.fetch_add(1, Ordering::Relaxed);
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sends what a step sends, under one `outbox` lock: its frames, then
    /// its release's one encoded frame at each connection's copies. A
    /// step that sends nothing takes no lock.
    fn send(&self, sends: Effects) {
        if sends.frames.is_empty() && sends.fanout.is_empty() {
            return;
        }
        let outbox = self.outbox();
        for (conn, resp) in &sends.frames {
            if let Some(sink) = outbox.get(conn) {
                sink.send(&resp.encode());
            }
        }
        if let Some(episode) = sends.release {
            let inc = self.shared.incarnation;
            let frame = Response::Release { episode, inc }.encode();
            for &(conn, copies) in &sends.fanout {
                if let Some(sink) = outbox.get(&conn) {
                    (0..copies).for_each(|_| sink.send(&frame));
                }
            }
        }
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

/// One shard's driver state: a [`ShardCore`] and what only the driver
/// touches beside it. It lives in the [`Router`], under the shard's
/// lock, and holds no handle to the router: each step is given one.
struct ShardDriver {
    idx: usize,
    core: ShardCore,
    tick: Duration,
    /// Set when the shard's ticker took `Stall`: a crashed shard serves
    /// nothing more.
    stalled: bool,
    /// Last standby-heartbeat send (lowest live shard only).
    last_repl_beat: Instant,
}

impl ShardDriver {
    fn new(idx: usize, root: &RootCore, cfg: &ServerConfig, now: Instant) -> Self {
        let (frame, deadline) = (root.episode, root.recovery_deadline);
        Self {
            idx,
            core: ShardCore::new(idx, cfg, root.inc, frame, deadline, now),
            tick: cfg.tick,
            stalled: false,
            last_repl_beat: now,
        }
    }

    /// Steps the core with one input at `now`, drops the routes of the
    /// sessions it could not seat, and hands the effects to the root
    /// under its lock, which books them and checks the release before
    /// it hands the frames back; then sends them, so a client that has
    /// seen its `Release` never reads a ledger that has not counted it.
    /// A step with nothing for the root takes no root lock, and one that
    /// sends nothing no `outbox` lock. Returns the episode the release
    /// check won, for the caller to fan out once it holds no shard lock.
    fn step(&mut self, router: &Router, now: Instant, input: Input) -> Option<u64> {
        let mut fx = self.core.step(now, input);
        if !fx.unroute.is_empty() {
            let mut assign = router.assign();
            for session in std::mem::take(&mut fx.unroute) {
                if assign.get(&session).is_some_and(|a| a.shard == self.idx) {
                    assign.remove(&session);
                }
            }
        }
        let (sends, won) = if fx.for_root() {
            let (core, shared) = (&self.core, &*router.shared);
            shared.root(|root| {
                let sends = root.apply(self.idx, core.frame, core.live, fx);
                (sends, shared.release(root))
            })
        } else {
            (fx, None)
        };
        router.send(sends);
        won
    }

    /// The lowest live shard beacons a heartbeat to any attached
    /// standby each tick, so it can tell an idle primary from a dead
    /// one.
    fn beacon(&mut self, shared: &Shared, now: Instant) {
        let lowest =
            (0..shared.shard_alive.len()).find(|&s| shared.shard_alive[s].load(Ordering::Acquire));
        if shared.journal.is_none()
            || lowest != Some(self.idx)
            || now.saturating_duration_since(self.last_repl_beat) < self.tick
        {
            return;
        }
        self.last_repl_beat = now;
        let mut repl = shared.repl.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = repl.as_mut() {
            let inc = shared.incarnation;
            let _ = t.send(&frame_entry(&JournalRecord::Heartbeat { inc }));
        }
    }

    /// A shard the root lease declared dead must stop serving even
    /// when the declaration was a false positive (a stalled-but-alive
    /// thread): its sessions were evicted and rerouted the moment it
    /// was declared, so anything it did from here — reporting its stale
    /// frame complete, answering sessions that rejoined elsewhere —
    /// would be a zombie copy of state that now lives on the surviving
    /// shards. A stalled shard, a halted server (a "crashed" host) and a
    /// stopped one keep the same silence.
    fn must_stop(&self, shared: &Shared) -> bool {
        self.stalled
            || !shared.shard_alive[self.idx].load(Ordering::Acquire)
            || shared.halted.load(Ordering::Acquire)
            || shared.shutdown.load(Ordering::Acquire)
    }
}

/// Folds a dead shard out of the root ([`RootCore::declare_dead`]),
/// clears every route to it so rejoins land on live shards, and tells
/// its sessions they were evicted, best effort. Returns the episode the
/// fold completed, if it did: the dead shard may have been the missing
/// report, while a stale report of its own counts no more.
fn declare_shard_dead(router: &Router, shard: usize) -> Option<u64> {
    let shared = &*router.shared;
    let (evicted, won) = shared.root(|root| (root.declare_dead(shard), shared.release(root)));
    let mut assign = router.assign();
    let conn = |s| assign.get(&s).filter(|a| a.shard == shard).map(|a| a.conn);
    let frames = evicted
        .into_iter()
        .filter_map(|(s, resp)| Some((conn(s)?, resp)));
    let frames = frames.collect();
    assign.retain(|_, a| a.shard != shard);
    drop(assign);
    router.send(Effects {
        frames,
        ..Effects::default()
    });
    won
}

/// A running barrier-as-a-service instance. See the module docs.
pub struct EpochServer {
    router: Arc<Router>,
    shared: Arc<Shared>,
    shard_handles: Vec<JoinHandle<()>>,
    pump_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl EpochServer {
    /// Starts the shard tickers and returns a handle for connecting
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
                let router = router.clone();
                std::thread::Builder::new()
                    .name(format!("combar-net-shard-{idx}"))
                    .spawn(move || while router.turn(idx, &rx, cfg.tick) {})
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

    /// Builds the root, the router with its shards and one ticker inbox
    /// per shard — all of a server except its threads, so a test can
    /// route requests and tick shards by hand.
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
        let now = Instant::now();
        let root = RootCore::new(cfg, incarnation, state.as_ref(), now);
        let driver = |idx| Mutex::new(ShardDriver::new(idx, &root, cfg, now));
        let drivers = (0..shards).map(driver).collect();
        let shared = Arc::new(Shared {
            episode: AtomicU64::new(root.episode),
            shard_alive: (0..shards).map(|_| AtomicBool::new(true)).collect(),
            live_sessions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            recovering: AtomicBool::new(root.recovering()),
            root: Mutex::new(root),
            halted: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            incarnation,
            journal,
            repl: Mutex::new(None),
            crash: cfg.crash,
        });
        let (txs, rxs) = (0..shards).map(|_| mpsc::channel()).unzip();
        let router = Arc::new(Router {
            shards: drivers,
            tickers: txs,
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
    /// stops reading must never block a release mid-broadcast —
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
        self.shared.root(|root| root.released())
    }

    /// Shards not declared dead.
    pub fn live_shards(&self) -> u64 {
        let alive = self.shared.shard_alive.iter();
        alive.filter(|a| a.load(Ordering::Acquire)).count() as u64
    }

    /// Live sessions across live shards.
    pub fn live_sessions(&self) -> u64 {
        let live =
            |root: &mut RootCore| root.leaves.iter().filter(|l| l.alive).map(|l| l.live).sum();
        self.shared.root(live)
    }

    /// A snapshot of per-session service counters.
    pub fn session_stats(&self) -> HashMap<SessionId, SessionStats> {
        self.shared.root(|root| root.stats.clone())
    }

    /// Chaos hook: shard `idx` "crashes" — its ticker stops it serving
    /// and exits without cleanup. The shard lease declares it dead and
    /// the service degrades onto the survivors.
    pub fn stall_shard(&self, idx: usize) {
        self.router.stall(idx);
    }

    /// Chaos hook: "kills" the whole server process. Ingress is dropped
    /// on the floor, every shard ticker exits at once, and —
    /// unlike [`shutdown`](Self::shutdown) — client connections are
    /// *not* closed: to a client the host simply went silent, exactly
    /// like a kernel panic. The journal (if any) keeps whatever was
    /// durably appended; nothing in flight survives.
    pub fn halt(&self) {
        self.shared.root(RootCore::halt);
        for tx in &self.router.tickers {
            // Nudge parked tickers so they notice the halt now rather
            // than at the next tick timeout.
            let _ = tx.send(ShardMsg::Shutdown);
        }
    }

    /// Whether this server has been fenced out by a newer incarnation
    /// (a journal append was rejected). A fenced server never releases.
    pub fn fenced(&self) -> bool {
        self.shared.root(|root| root.fenced)
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

    /// Stops every shard ticker (and UDS pump) thread and waits for
    /// them. A stopped server handles no more traffic.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for tx in &self.router.tickers {
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
    use crate::root::lease_targets;
    use crate::shard::Delta;
    use crate::simnet::{self, Scenario};
    use crate::transport::NetError;
    use combar_rt::Supervisor;

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

    /// The [`LEASE`] on two shards, at a floor no host stall outlasts:
    /// 250 ms, so a silent session is evicted a second after it joins,
    /// and a live client re-sends its first arrival for up to four.
    fn smoke_cfg() -> ServerConfig {
        ServerConfig {
            lease: SupervisorConfig {
                min_grace: Duration::from_millis(250),
                ..LEASE
            },
            ..quick_cfg(2)
        }
    }

    /// A threaded smoke of [`only_the_silent_session_is_evicted`] on
    /// [`smoke_cfg`].
    #[test]
    fn silent_session_is_evicted_and_survivors_proceed() {
        let server = EpochServer::start(smoke_cfg());
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

    /// A threaded smoke of [`an_evicted_session_rejoins`] on
    /// [`smoke_cfg`]: session 1's arrivals wait out session 2's lease,
    /// session 2's next arrival learns of the eviction, and it rejoins.
    #[test]
    fn evicted_session_rejoins() {
        let server = EpochServer::start(smoke_cfg());
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

    const MS: Duration = Duration::from_millis(1);

    /// The session lease of the lease tests: a 2 ms floor, two misses.
    const LEASE: SupervisorConfig = SupervisorConfig {
        min_grace: Duration::from_millis(2),
        sigma_mult: 4.0,
        max_misses: 2,
    };

    /// Sessions 0 and 1 on two shards in `simnet`, on the [`LEASE`], each
    /// shard ticking every 200 µs plus a jitter of up to a tick and one
    /// tick in a hundred a stall of up to 7 ms. Session 0 arrives as soon
    /// as it has its release, but one turn in ten stalls up to 7 ms.
    /// Ends once each live session has crossed `episodes` past its last
    /// join.
    fn lease_scenario(episodes: u64) -> Scenario {
        let mut scenario = Scenario::new(2, episodes);
        (scenario.shards, scenario.shard_stall, scenario.lease) = (2, 0.01, LEASE);
        scenario.sessions[0].stall = 0.1;
        scenario
    }

    /// `silent_session_is_evicted_and_survivors_proceed` in virtual
    /// time: session 1 says nothing after its `Hello`. On each of 100
    /// seeds, it alone is evicted, once and no earlier than four 2 ms
    /// leases after it joined, and within 40 ms session 0 has crossed
    /// more than ten episodes, each credited, its arrivals drawing no
    /// response frame.
    #[test]
    fn only_the_silent_session_is_evicted() {
        let mut scenario = lease_scenario(11);
        scenario.sessions[1].silent = true;
        for seed in 0..100 {
            let run = simnet::run(Instant::now(), seed, &scenario);
            let [_, _, (at, 1, Delta::Evict, _)] = run.roster[..] else {
                panic!("seed {seed}: membership {:?}", run.roster);
            };
            assert!(at >= 8 * MS, "seed {seed}: {at:?}");
            assert!(run.released > 10, "seed {seed}: {} episodes", run.released);
            assert!(run.elapsed < 40 * MS, "seed {seed}: {:?}", run.elapsed);
            assert_eq!(run.credits[0], run.released - 1, "seed {seed}");
            assert_eq!(run.answers, 0, "seed {seed}");
        }
    }

    /// `evicted_session_rejoins` in virtual time: session 1 thinks for
    /// 40 ms before each arrival. On each of 100 seeds, its first two
    /// silences outlast its lease: each ends in its eviction, no earlier
    /// than four 2 ms leases after its last request, and at its next
    /// turn it reads `Evicted` and its `Hello` rejoins it. By then
    /// the lease has widened to the pauses it saw (`sigma_mult` times
    /// the pooled σ of the beat intervals), and its next two arrivals
    /// count. Session 0 is never evicted and is credited every episode
    /// released after the joins. A live session's arrival draws no
    /// response frame.
    #[test]
    fn an_evicted_session_rejoins() {
        let mut scenario = lease_scenario(1);
        scenario.sessions[1].think = 40 * MS;
        for seed in 0..100 {
            let run = simnet::run(Instant::now(), seed, &scenario);
            let changes = run.roster.iter().map(|c| format!("{}:{:?} ", c.1, c.2));
            let twice = "1:Evict 1:Hello(true) ";
            let roster = format!("0:Hello(false) 1:Hello(false) {twice}{twice}");
            assert_eq!(changes.collect::<String>(), roster, "seed {seed}");
            for &(_, _, delta, silent) in &run.roster {
                let early = delta == Delta::Evict && silent < 8 * MS;
                assert!(!early, "seed {seed}: evicted after {silent:?}");
            }
            assert_eq!(run.crossed[1], 1, "seed {seed}");
            assert_eq!(run.credits[0], run.released - 1, "seed {seed}");
            assert_eq!(run.answers, 0, "seed {seed}");
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

    /// The root pairs completeness reports with shard liveness: a shard
    /// that reported complete and then died must not leave a stale
    /// report that — against the post-death live count — releases the
    /// episode while a surviving shard's session still owes its arrival.
    /// (A bare `shards_done` counter had exactly this hazard.) In
    /// `simnet`, on seeds 7 and 23: session 0 on shard 0 thinks 300 ms
    /// before each arrival, session 1 on shard 1 arrives at once, and
    /// shard 1, which has reported the episode in flight, stalls 5 ms in.
    /// The default root lease declares it dead eight 10 ms leases after
    /// its last beat, at most two ticks before the stall, and session 1
    /// rejoins on shard 0; yet each episode waits for session 0's
    /// arrival, 300 ms after the last.
    #[test]
    fn dead_shards_stale_report_cannot_release_early() {
        let mut scenario = Scenario::new(2, 2);
        (scenario.shards, scenario.stalled) = (2, Some((1, 5 * MS)));
        scenario.sessions[0].think = 300 * MS;
        for seed in [7, 23] {
            let run = simnet::run(Instant::now(), seed, &scenario);
            let changes = run.roster.iter().map(|c| format!("{}:{:?} ", c.1, c.2));
            let roster = "0:Hello(false) 1:Hello(false) 1:Evict 1:Hello(false) ";
            assert_eq!(changes.collect::<String>(), roster, "seed {seed}");
            let evicted = run.roster[2].0;
            assert!(
                evicted >= 84 * MS && evicted < 200 * MS,
                "seed {seed}: {evicted:?}"
            );
            let released = &run.episodes[..run.released as usize];
            for pair in released.windows(2) {
                assert!(
                    pair[1].at >= pair[0].at + 300 * MS,
                    "seed {seed}: {released:?}"
                );
            }
        }
    }

    /// A server without its threads, and its shards' ticker inboxes: the
    /// test routes requests on its own thread and turns the tickers by
    /// hand.
    fn hand_cranked(cfg: ServerConfig) -> (Arc<Router>, Vec<mpsc::Receiver<ShardMsg>>) {
        let (_, router, inboxes) = EpochServer::wire_up(&cfg, None, None);
        (router, inboxes)
    }

    fn send_hello(w: &mut impl Transport, session: SessionId) {
        w.send(&Request::Hello { session, seq: 0 }.encode())
            .unwrap();
    }

    /// Each routed arrival is stepped before its `send` returns, and the
    /// one that completes the episode fans its release out before its
    /// own `send` returns: one `outbox` lock for all sixteen, and the
    /// ledger credits every session.
    #[test]
    fn a_routed_arrival_is_stepped_before_its_send_returns_and_the_last_fans_out() {
        let (router, _inboxes) = hand_cranked(quick_cfg(1));
        let mut wires: Vec<_> = (0..16).map(|_| router.connect()).collect();
        // The first join completes its join epoch alone, by proxy; the
        // rest join episode 1 arrived by proxy, so session 0's arrival
        // releases it.
        for (session, w) in (0..).zip(&mut wires) {
            send_hello(w, session);
        }
        send_arrive_raw(&mut wires[0], 0, 1, 1);
        assert_eq!(router.shard(0).core.frame, 2);
        wires.iter_mut().for_each(|w| drop(drain_wire(w)));
        let before = router.shared.root(|root| root.stats.clone());
        let locks = router.outbox_locks.load(Ordering::Relaxed);
        for (session, w) in (0..16).zip(&mut wires) {
            send_arrive_raw(w, session, 2, 2);
            let st = router.shard(0);
            let counted = if session < 15 {
                (2, session + 1)
            } else {
                (3, 0)
            };
            assert_eq!((st.core.frame, st.core.arrived), counted);
        }
        assert_eq!(router.outbox_locks.load(Ordering::Relaxed) - locks, 1);
        let release = Response::Release { episode: 2, inc: 0 }.encode();
        for w in &mut wires {
            assert_eq!(drain_wire(w), std::slice::from_ref(&release));
        }
        let ledger = router.shared.root(|root| root.stats.clone());
        for session in 0..16 {
            let done = ledger[&session].completed;
            assert_eq!(done, before[&session].completed + 1, "session {session}");
        }
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
        let (router, _inboxes) = hand_cranked(quick_cfg(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        // No attempt may time out on a loaded host and re-send.
        let cfg = ClientConfig {
            request_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        };
        let mut clients: Vec<_> = (0..SESSIONS)
            .map(|session| {
                let wire = Tally {
                    inner: router.connect(),
                    session,
                    log: Arc::clone(&log),
                };
                BarrierClient::new(wire, session, cfg)
            })
            .collect();
        // Each request is stepped on the thread that sends it, so the
        // clients join, catch up and cross with no shard thread.
        for c in &mut clients {
            c.join().unwrap();
        }
        let front = clients.iter().map(|c| c.episode()).max().unwrap();
        for c in &mut clients {
            while c.episode() < front {
                c.arrive().unwrap();
            }
        }
        // The first to join owes the episode the others joined arrived
        // by proxy, so its arrival releases it at once and theirs are
        // re-acked: cross it before counting.
        for c in &mut clients {
            c.arrive().unwrap();
        }
        let first = clients[0].episode();
        let setup = log.lock().unwrap().len();
        for episode in first..first + EPISODES {
            for c in &mut clients {
                c.send_arrive().unwrap();
            }
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
        let (router, _inboxes) = hand_cranked(quick_cfg(1));
        let mut wires: Vec<_> = (0..SESSIONS).map(|_| router.connect()).collect();
        for (session, w) in (0..).zip(&mut wires) {
            send_hello(w, session);
        }
        assert_eq!(router.shard(0).core.frame, 1, "epoch 0 released by proxy");
        let release = |episode| Response::Release { episode, inc: 0 }.encode();
        for episode in 1..=last {
            wires.iter_mut().for_each(|w| drop(drain_wire(w)));
            let locks = router.outbox_locks.load(Ordering::Relaxed);
            // Session 0, the first to join, arrives last: the others
            // joined episode 1 arrived by proxy. The armed session
            // arrives first, so every copy it sends is stepped before
            // the release (one stepped after it is re-acked, see
            // `shard::tests`).
            for session in [ARMED, 1, 0] {
                let w = &mut wires[session as usize];
                for _ in 0..copies(session, episode) {
                    send_arrive_raw(w, session, episode, 2 * episode);
                }
            }
            assert_eq!(router.outbox_locks.load(Ordering::Relaxed) - locks, 1);
            assert_eq!(router.shard(0).core.frame, episode + 1);
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
                assert_eq!(drain_wire(w), vec![release(episode)]);
            }
        }
        let ledger = router.shared.root(|root| root.stats.clone());
        for session in 0..SESSIONS {
            assert_eq!(ledger[&session].completed, last, "{ledger:?}");
        }
    }

    /// A stalled shard, a shard declared dead and a server halted by its
    /// crash hook each leave every later routed request unhandled.
    #[test]
    fn a_stalled_dead_or_halted_shard_leaves_every_later_request_unhandled() {
        let joined = |router: &Router| -> Vec<SessionId> {
            router.shard(0).core.sessions.keys().copied().collect()
        };
        // A simulated shard crash: its ticker takes `Stall`.
        let (router, inboxes) = hand_cranked(quick_cfg(1));
        let mut w = router.connect();
        send_hello(&mut w, 0);
        router.stall(0);
        assert!(!router.turn(0, &inboxes[0], Duration::ZERO));
        send_hello(&mut w, 1);
        assert_eq!(joined(&router), [0]);
        // A death declaration by the root lease.
        let (router, _inboxes) = hand_cranked(quick_cfg(1));
        let mut w = router.connect();
        send_hello(&mut w, 0);
        assert_eq!(declare_shard_dead(&router, 0), None);
        send_hello(&mut w, 1);
        assert_eq!(joined(&router), [0]);
        // A scripted whole-server crash, raised by the release that the
        // first request's own step wins: its welcome went out, the
        // release died with the host.
        let (router, _inboxes) = hand_cranked(ServerConfig {
            crash: Some(ServerCrash {
                at_epoch: 0,
                mid_broadcast: false,
            }),
            ..quick_cfg(1)
        });
        let mut w = router.connect();
        send_hello(&mut w, 0);
        assert!(router.shared.halted.load(Ordering::Acquire));
        send_hello(&mut w, 1);
        assert_eq!(joined(&router), [0]);
        let welcome = Response::Welcome {
            session: 0,
            episode: 0,
            inc: 0,
        };
        assert_eq!(drain_wire(&mut w), [welcome.encode()]);
    }

    /// A crash in mid-broadcast on two shards: the crash epoch's release
    /// reaches the first live shard's clients and nobody else's, whether
    /// the winning arrival came through that shard or the other one.
    /// Each case runs on a helper thread under a deadline, so a winner
    /// that kept its own shard's lock into the broadcast fails the test
    /// instead of hanging it.
    #[test]
    fn a_crash_in_mid_broadcast_releases_on_exactly_one_shard() {
        for winner in [1, 0] {
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let (router, _inboxes) = hand_cranked(ServerConfig {
                    crash: Some(ServerCrash {
                        at_epoch: 1,
                        mid_broadcast: true,
                    }),
                    ..quick_cfg(2)
                });
                // Session s homes on shard s; the second join completes
                // epoch 0, and both sessions owe epoch 1.
                let mut wires = [router.connect(), router.connect()];
                for (session, w) in (0..).zip(&mut wires) {
                    send_hello(w, session);
                }
                for w in &mut wires {
                    drain_wire(w);
                }
                for session in [1 - winner, winner] {
                    send_arrive_raw(&mut wires[session as usize], session, 1, 1);
                }
                let seen = wires.map(|mut w| drain_wire(&mut w));
                let _ = done_tx.send((router.shared.halted.load(Ordering::Acquire), seen));
            });
            let outcome = done_rx.recv_timeout(Duration::from_secs(10));
            let (halted, seen) = outcome.expect("the crash deadlocked");
            assert!(halted, "winner on shard {winner}");
            let release = Response::Release { episode: 1, inc: 0 }.encode();
            assert_eq!(seen, [vec![release], vec![]], "winner on shard {winner}");
        }
    }

    /// Four shards and sixteen sessions as `SessionMux` tasks on four
    /// client threads cross 500 episodes, and shard 2 stalls halfway:
    /// requests and releases are stepped on the client threads under
    /// the shard locks while the tickers tick, declare shard 2 dead and
    /// fan out what that completes. Every session finishes, the ledger
    /// is exactly-once, and the run has a deadline, so a deadlock fails
    /// the test instead of hanging it.
    #[test]
    fn four_shards_cross_on_client_threads_through_a_stalled_shard() {
        const EPISODES: u64 = 500;
        let server = Arc::new(EpochServer::start(ServerConfig {
            shard_lease: SupervisorConfig {
                min_grace: Duration::from_millis(50),
                sigma_mult: 4.0,
                max_misses: 2,
            },
            ..quick_cfg(4)
        }));
        let cfg = crate::MuxConfig {
            sessions: 16,
            episodes: EPISODES,
            client: ClientConfig {
                request_timeout: Duration::from_millis(10),
                ..ClientConfig::default()
            },
            poll: Duration::from_millis(1),
            ..crate::MuxConfig::default()
        };
        let run = {
            let (server, cfg) = (Arc::clone(&server), cfg.clone());
            std::thread::spawn(move || {
                let exec = combar_rt::Executor::new(4);
                crate::SessionMux::drive(&exec, |_| Box::new(server.connect()), &cfg)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let wait_for = |done: &dyn Fn() -> bool, what: &str| {
            while !done() {
                assert!(Instant::now() < deadline, "{what} by the deadline");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for(
            &|| server.episodes_released() >= EPISODES / 2,
            "half the episodes crossed",
        );
        server.stall_shard(2);
        wait_for(&|| run.is_finished(), "every session finished");
        let report = run.join().expect("no session driver panics");
        for sid in 0..16 {
            assert_eq!(report.done(sid), EPISODES, "session {sid}");
        }
        report.assert_ledger(&server, &cfg);
        assert!(!server.shared.shard_alive[2].load(Ordering::Acquire));
        let stats = server.session_stats();
        for sid in [2, 6, 10, 14] {
            assert!(
                stats[&sid].evictions >= 1,
                "session {sid}: {:?}",
                stats[&sid]
            );
        }
    }

    /// What a release leaves behind: the episode bumped, the reports it
    /// was won on still standing. A second release check must not take
    /// them for the next episode's.
    #[test]
    fn reports_expire_with_the_episode_they_were_for() {
        let (router, _inboxes) = hand_cranked(quick_cfg(1));
        let report = |frame| Effects {
            report: Some(frame),
            ..Effects::default()
        };
        router.shared.root(|root| {
            let _ = root.apply(0, 0, 1, report(0));
            assert_eq!(root.release().map(|r| r.episode), Some(0));
            assert_eq!(
                root.release().map(|r| r.episode),
                None,
                "released with nobody arrived"
            );
            assert_eq!(root.episode, 1);
            // Once the shard reports episode 1 itself, it releases.
            let _ = root.apply(0, 1, 1, report(1));
            assert_eq!(root.release().map(|r| r.episode), Some(1));
        });
    }

    /// A one-shard server, hand-cranked, with session 0 joined and its
    /// join epoch released: the session owes frame 1.
    fn one_joined_session() -> (Arc<Router>, LoopbackTransport) {
        let (router, _inboxes) = hand_cranked(quick_cfg(1));
        let mut wire = router.connect();
        send_hello(&mut wire, 0);
        let st = router.shard(0);
        assert_eq!((st.core.frame, st.core.live), (1, 1));
        drop(st);
        (router, wire)
    }

    fn evictions(router: &Router, session: SessionId) -> u64 {
        router.shared.root(|root| root.stats[&session].evictions)
    }

    #[test]
    fn a_dead_shard_does_not_evict_a_session_that_left() {
        let (router, mut wire) = one_joined_session();
        wire.send(&Request::Leave { session: 0, seq: 1 }.encode())
            .unwrap();
        assert_eq!(declare_shard_dead(&router, 0), None);
        assert_eq!(evictions(&router, 0), 0);
    }

    #[test]
    fn a_dead_shard_does_not_evict_a_lease_evicted_session_again() {
        let (router, _wire) = one_joined_session();
        // Silent on a virtual clock until its lease declares it.
        let mut now = Instant::now();
        let mut st = router.shard(0);
        while st.core.live > 0 {
            now += Duration::from_secs(10);
            assert_eq!(st.step(&router, now, Input::Tick(false)), None);
        }
        drop(st);
        assert_eq!(evictions(&router, 0), 1);
        assert_eq!(declare_shard_dead(&router, 0), None);
        assert_eq!(evictions(&router, 0), 1);
    }

    /// An idle ticker waits out its tick and never spins: nothing but
    /// `Stall` and `Shutdown` ever comes through its inbox.
    #[test]
    fn idle_shard_never_spins_and_waits_out_its_tick() {
        use crate::transport::handoff_cost;
        let (router, inboxes) = hand_cranked(quick_cfg(1));
        let tick = quick_cfg(1).tick;
        for _ in 0..3 {
            let t0 = Instant::now();
            let (alive, (spins, _)) = handoff_cost(|| router.turn(0, &inboxes[0], tick));
            assert!(alive);
            assert!(t0.elapsed() >= tick, "an idle turn cut its tick short");
            assert_eq!(spins, 0);
        }
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
