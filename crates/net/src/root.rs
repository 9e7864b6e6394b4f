//! The root of the epoch server's combining tree as a pure core.
//!
//! Shards are the tree's leaves ([`crate::shard`]); [`RootCore`] is its
//! root and owns everything the server knows above them: the episode in
//! flight; each shard's liveness, stamped report, live count and filed
//! completers; the ledger — the live roster, the membership deltas not
//! yet journaled and every session's [`SessionStats`]; the sessions a
//! recovery still awaits; the halted and fenced flags; the snapshot
//! cadence; and the root lease over the shards. Its steps: `apply` books
//! a shard step's effects and only then hands back the frames to send,
//! so a driver sends a `Release` only after its credit; `release`
//! returns a released episode with the journal batch its driver appends
//! before anyone hears of it (`fence` freezes a root whose append was
//! refused); `lease` and `declare_dead` run the root lease and fold a
//! dead shard out. The core reads no clock (its lease `Supervisor` takes
//! `now` as an argument), takes no lock and starts no thread: the
//! server's router steps it under one lock, and `simnet` in virtual time.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use combar_rt::Supervisor;
use combar_trace::Kind;

use crate::journal::{roster_hash, snapshot_record, JournalRecord};
use crate::proto::{Response, SessionId};
use crate::recover::RecoveredState;
use crate::server::{ServerConfig, SessionStats};
use crate::shard::{Delta, Effects};

/// One shard as the root sees it: whether it lives, its stamped report
/// and its live sessions, as its last applied step left them.
#[derive(Default)]
pub(crate) struct Leaf {
    pub(crate) alive: bool,
    /// The episode its last report was for, plus one (0: none yet).
    report: u64,
    pub(crate) live: u64,
    /// `(session, cumulative completed)` for the sessions it reported
    /// arrived explicitly, drained into the next episode record.
    completers: Vec<(SessionId, u64)>,
}

/// A released episode, and what the driver appends before anyone hears
/// of it.
#[derive(Debug)]
pub(crate) struct Release {
    pub(crate) episode: u64,
    /// The membership deltas since the last release and the episode's
    /// record: one append per epoch.
    pub(crate) batch: Vec<JournalRecord>,
    /// The snapshot to compact the journal to once the batch is durable,
    /// every `snapshot_every` episodes.
    pub(crate) snapshot: Option<JournalRecord>,
}

/// The root's state. See the module docs. The crate reads `episode`,
/// `leaves`, `inc`, `roster`, `stats`, `recovered`, `halted`, `fenced`
/// and `recovery_deadline`; only a step writes them.
pub(crate) struct RootCore {
    /// The episode in flight: every earlier one is released.
    pub(crate) episode: u64,
    pub(crate) leaves: Vec<Leaf>,
    /// This server's incarnation, stamped on its journal records and
    /// its `Evicted` frames.
    pub(crate) inc: u64,
    snapshot_every: Option<u64>,
    /// The live roster, each session with its shard (`None`: recovered,
    /// not yet resumed). Its keys are what an episode record hashes, so
    /// the roster recovery rebuilds from the deltas matches by
    /// construction.
    pub(crate) roster: BTreeMap<SessionId, Option<usize>>,
    /// Membership deltas since the last release, in event order.
    pending: Vec<JournalRecord>,
    pub(crate) stats: HashMap<SessionId, SessionStats>,
    /// Sessions the journal says were live that have not yet proven
    /// themselves to this incarnation with `Resume` (or a fresh `Hello`).
    /// Releases pause while any is left.
    pub(crate) recovered: BTreeSet<SessionId>,
    /// When the recovery grace lapses, if this root was recovered with
    /// live sessions.
    pub(crate) recovery_deadline: Option<Instant>,
    pub(crate) halted: bool,
    pub(crate) fenced: bool,
    /// The root lease over shard heartbeats, and the live shards at the
    /// last pass, kept so a pass allocates nothing.
    lease: Supervisor,
    alive: Vec<u32>,
}

impl RootCore {
    /// The root of a server of incarnation `inc`, started at `now` — from
    /// `state` if it restarts from a journal.
    pub(crate) fn new(
        cfg: &ServerConfig,
        inc: u64,
        state: Option<&RecoveredState>,
        now: Instant,
    ) -> Self {
        let leaf = |_| Leaf {
            alive: true,
            ..Leaf::default()
        };
        let mut root = Self {
            episode: state.map_or(0, |s| s.epoch),
            leaves: (0..cfg.shards).map(leaf).collect(),
            inc,
            snapshot_every: cfg.snapshot_every,
            roster: BTreeMap::new(),
            pending: Vec::new(),
            stats: HashMap::new(),
            recovered: BTreeSet::new(),
            recovery_deadline: None,
            halted: false,
            fenced: false,
            lease: Supervisor::starting_at(cfg.shards as u32, cfg.shard_lease, now),
            alive: Vec::new(),
        };
        for (&sid, sess) in state.iter().flat_map(|s| &s.sessions) {
            root.stats.insert(sid, sess.stats);
            if sess.live {
                root.roster.insert(sid, None);
                root.recovered.insert(sid);
            }
        }
        root.recovery_deadline = root.recovering().then(|| now + cfg.recovery_grace);
        root
    }

    /// Takes the effects of one step of shard `shard`, now at `frame`
    /// with `live` sessions. The ledger first: a lapsed recovery grace
    /// purges the laggards as evicted, admissions prove their sessions
    /// to the recovery, and membership changes, credits and completers
    /// are booked; then the report is filed. Only then come back the
    /// step's frames and release fan-out, its only effects left.
    pub(crate) fn apply(&mut self, shard: usize, frame: u64, live: u64, fx: Effects) -> Effects {
        self.leaves[shard].live = live;
        if fx.purge {
            for session in std::mem::take(&mut self.recovered) {
                self.stats.entry(session).or_default().evictions += 1;
                self.leave(session, frame, false);
            }
        }
        for &(session, delta) in &fx.roster {
            let entry = self.stats.entry(session).or_default();
            match delta {
                // A local tombstone proves a rejoin; a session unknown
                // here may still be rejoining cross-shard (its shard
                // died and routing moved it), and the ledger's evictions
                // say so either way.
                Delta::Hello(tombstone) => {
                    let rejoin = tombstone || entry.evictions > entry.rejoins;
                    if rejoin {
                        entry.rejoins += 1;
                        combar_trace::emit(frame as u32, session as u32, Kind::Rejoin);
                    }
                    self.join(session, shard, frame, rejoin);
                }
                // A roster no-op (still journaled live), but it covers
                // the corner where the session was purged a beat ago.
                // The session has not arrived: the shard's report for
                // the frame is retracted until it reports again.
                Delta::Resume => {
                    self.leaves[shard].report = 0;
                    self.join(session, shard, frame, false);
                }
                Delta::Leave => self.leave(session, frame, true),
                Delta::Evict => {
                    entry.evictions += 1;
                    self.leave(session, frame, false);
                }
            }
        }
        for &session in &fx.credits {
            self.stats.entry(session).or_default().completed += 1;
        }
        let stats = &self.stats;
        let done = |sid| stats.get(&sid).map_or(0, |e| e.completed) + 1;
        let filed = fx.completers.iter().map(|&sid| (sid, done(sid)));
        self.leaves[shard].completers.extend(filed);
        if let Some(frame) = fx.report {
            self.leaves[shard].report = frame + 1;
        }
        Effects {
            frames: fx.frames,
            release: fx.release,
            fanout: fx.fanout,
            ..Effects::default()
        }
    }

    /// Books `session` into the roster on `shard`, and proves it to the
    /// recovery. A delta is journaled only if the roster changed, so a
    /// resumed session, journaled live, adds none.
    fn join(&mut self, session: SessionId, shard: usize, epoch: u64, rejoin: bool) {
        self.recovered.remove(&session);
        if self.roster.insert(session, Some(shard)).is_none() {
            let join = JournalRecord::Join {
                session,
                epoch,
                rejoin,
            };
            self.pending.push(join);
        }
    }

    /// Books `session` out of the roster, in order or evicted.
    fn leave(&mut self, session: SessionId, epoch: u64, orderly: bool) {
        if self.roster.remove(&session).is_some() {
            self.pending.push(if orderly {
                JournalRecord::Leave { session, epoch }
            } else {
                JournalRecord::Evict { session, epoch }
            });
        }
    }

    /// Releases the episode in flight if [`release_ready`](Self::release_ready)
    /// says so, which expires every report for it: they were stamped with
    /// it. It returns the group commit to append first — every
    /// membership delta since the last release, then the episode's
    /// record, its roster hash over exactly the roster those deltas
    /// produce and its completers from the live shards' slots (a stale
    /// late one merges away under max: the counters are cumulative) —
    /// and the snapshot, when one is due.
    #[must_use = "a released episode must be journaled and fanned out"]
    pub(crate) fn release(&mut self) -> Option<Release> {
        if !self.release_ready() {
            return None;
        }
        let episode = self.episode;
        self.episode += 1;
        let mut completers = BTreeMap::new();
        for leaf in self.leaves.iter_mut().filter(|l| l.alive) {
            for (sid, done) in leaf.completers.drain(..) {
                let e = completers.entry(sid).or_insert(done);
                *e = (*e).max(done);
            }
        }
        let every = self.snapshot_every.filter(|&every| every > 0);
        let due = every.is_some_and(|every| (episode + 1) % every == 0);
        let snapshot = due.then(|| self.snapshot(episode, &completers));
        let mut batch = std::mem::take(&mut self.pending);
        batch.push(JournalRecord::Episode {
            epoch: episode,
            inc: self.inc,
            roster_hash: roster_hash(self.roster.keys().copied()),
            completers: completers.into_iter().collect(),
        });
        Some(Release {
            episode,
            batch,
            snapshot,
        })
    }

    /// The ledger once `episode` is released, as one snapshot record:
    /// its completers are folded in here, since their credits land only
    /// with the fan-out, so replay from the snapshot and replay from the
    /// history agree exactly.
    fn snapshot(&self, episode: u64, completers: &BTreeMap<SessionId, u64>) -> JournalRecord {
        let stats = self.stats.iter();
        let mut sessions: BTreeMap<_, _> = stats
            .map(|(&sid, &st)| (sid, (self.roster.contains_key(&sid), st)))
            .collect();
        for (&sid, &done) in completers {
            let entry = sessions
                .entry(sid)
                .or_insert((true, SessionStats::default()));
            entry.1.completed = entry.1.completed.max(done);
        }
        snapshot_record(episode + 1, self.inc, &sessions)
    }

    /// The journal refused the last release's batch: a newer incarnation
    /// owns the ledger. This root is a zombie and never releases again,
    /// and the refused episode does not count as released.
    pub(crate) fn fence(&mut self) {
        self.fenced = true;
    }

    /// The server is dead: it never releases again.
    pub(crate) fn halt(&mut self) {
        self.halted = true;
    }

    /// Shard `shard`'s root-lease beat at `now`, then its pass over the
    /// peers it polls ([`lease_targets`]): the shards the pass declares
    /// dead, each for [`declare_dead`](Self::declare_dead).
    pub(crate) fn lease(&mut self, shard: usize, now: Instant) -> Vec<u32> {
        self.lease.beat_at(shard as u32, now);
        let live = (0..self.leaves.len()).filter(|&s| self.leaves[s].alive);
        self.alive.clear();
        self.alive.extend(live.map(|s| s as u32));
        let targets = lease_targets(&self.alive, shard as u32);
        self.lease.lease_pass(now, targets.iter().copied())
    }

    /// Folds dead shard `shard` out: episodes complete without it, since
    /// its report counts no more, and the sessions live on it are
    /// evicted. Returns the `Evicted` frame for each, to send best
    /// effort; none if it was declared already.
    pub(crate) fn declare_dead(&mut self, shard: usize) -> Vec<(SessionId, Response)> {
        let leaf = &mut self.leaves[shard];
        if !leaf.alive {
            return Vec::new();
        }
        (leaf.alive, leaf.live) = (false, 0);
        let (episode, inc) = (self.episode, self.inc);
        let homed = self.roster.iter().filter(|(_, &home)| home == Some(shard));
        let orphans: Vec<SessionId> = homed.map(|(&session, _)| session).collect();
        let mut evicted = Vec::with_capacity(orphans.len());
        for session in orphans {
            self.stats.entry(session).or_default().evictions += 1;
            self.leave(session, episode, false);
            combar_trace::emit(episode as u32, session as u32, Kind::Evict(session as u32));
            let frame = Response::Evicted {
                session,
                episode,
                inc,
            };
            evicted.push((session, frame));
        }
        evicted
    }

    /// Whether the episode in flight may be released, given every
    /// shard's `(alive, report, live sessions)`.
    ///
    /// A report holds the episode it is for plus one (0: none yet), and
    /// counts only paired with a live shard. Paired, because a shard that
    /// reported and then died must not keep satisfying a bare count
    /// against the post-death live count while a survivor still owes its
    /// report — that released episodes early. Stamped, so a report
    /// expires with the release itself: flags cleared *after* the release
    /// left a window in which a second caller read the released episode's
    /// flags as the next one's and released an episode nobody had arrived
    /// for, which every client then crossed uncredited. A halted (dead),
    /// fenced (zombie) or recovering server never releases, and neither
    /// does one without sessions.
    fn release_ready(&self) -> bool {
        let (mut ready, mut sessions) = (!(self.halted || self.fenced || self.recovering()), 0);
        for leaf in self.leaves.iter().filter(|leaf| leaf.alive) {
            ready &= leaf.report == self.episode + 1;
            sessions += leaf.live;
        }
        ready && sessions > 0
    }

    /// Episodes released, counted from epoch 0.
    pub(crate) fn released(&self) -> u64 {
        self.episode - u64::from(self.fenced)
    }

    /// Whether any recovered session is still outstanding.
    pub(crate) fn recovering(&self) -> bool {
        !self.recovered.is_empty()
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
pub(crate) fn lease_targets(alive: &[u32], me: u32) -> &[u32] {
    match alive {
        [lowest, peers @ ..] if *lowest == me => peers,
        [lowest, second, ..] if *second == me => std::slice::from_ref(lowest),
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_root_is_sans_io() {
        let banned = [
            "Instant::now",
            ".elapsed()",
            "SystemTime",
            "std::thread",
            "std::sync",
            "mpsc",
            "Mutex",
            "Atomic",
            "Router",
            "OutSink",
            "Journal>",
            "append_batch",
            "Transport",
        ];
        crate::shard::tests::assert_sans_io(include_str!("root.rs"), &banned);
    }
}
