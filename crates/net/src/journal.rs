//! Write-ahead epoch journal: the crash-durable source of truth for
//! the epoch server's ledger.
//!
//! # What is journaled, and when
//!
//! The hot path stays **one append per epoch**, not per arrival: the
//! release winner batches every membership delta that happened during
//! the episode (joins, evictions, leaves) together with one compact
//! [`JournalRecord::Episode`] record — the completed epoch, a hash of
//! the live roster, and the cumulative per-session completed counters
//! of everyone who explicitly arrived — and appends the whole batch
//! with a single [`Journal::append_batch`] call **before** the
//! `Release` broadcast goes out. That ordering is the recovery
//! invariant: any release a client has observed is already journaled,
//! so a restarted server can never be *behind* a client (the converse,
//! a journaled-but-unbroadcast episode, is healed by the idempotent
//! re-ack of `Release` when the client resumes).
//!
//! # Framing
//!
//! The journal is a flat byte stream of length-delimited entries:
//!
//! ```text
//! [u32 len] [len bytes of record] [u32 checksum]
//! ```
//!
//! with the checksum an FNV-1a 64 fold (truncated to 32 bits) over the
//! record bytes. A torn tail — a partial entry from a crash mid-append
//! — is detected by length or checksum mismatch and treated as a clean
//! end of journal, never as corruption of earlier entries. Record tags
//! live in the 128+ range, disjoint from the wire protocol's 1–70, so
//! a journal byte stream can never be mis-framed as wire traffic (or
//! vice versa).
//!
//! # Fencing
//!
//! The journal is also the **fencing authority**: every append names
//! the incarnation of the server performing it, and an append with an
//! incarnation below the highest the journal has seen fails with
//! [`JournalError::Fenced`]. A zombie primary that lost its lease can
//! therefore never extend the ledger — its release fails at the
//! append, before any broadcast — no matter how stale its view is.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::proto::SessionId;
use crate::server::SessionStats;

const TAG_INCARNATION: u8 = 128;
const TAG_JOIN: u8 = 129;
const TAG_EVICT: u8 = 130;
const TAG_LEAVE: u8 = 131;
const TAG_EPISODE: u8 = 132;
const TAG_HEARTBEAT: u8 = 133;
const TAG_SNAPSHOT: u8 = 134;

/// One durable entry in the epoch journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A server incarnation took over the ledger (fresh start, restart
    /// recovery, or standby promotion). All subsequent records belong
    /// to this incarnation until the next such entry.
    Incarnation {
        /// The new (strictly increasing) incarnation number.
        inc: u64,
    },
    /// A session was admitted during the in-flight epoch.
    Join {
        /// The admitted session.
        session: SessionId,
        /// The epoch in flight when it joined.
        epoch: u64,
        /// Whether this join was counted as a rejoin after eviction.
        rejoin: bool,
    },
    /// A session's lease lapsed (or its shard died) and it was folded
    /// out of the membership.
    Evict {
        /// The evicted session.
        session: SessionId,
        /// The epoch in flight when it was evicted.
        epoch: u64,
    },
    /// A session departed cleanly.
    Leave {
        /// The departing session.
        session: SessionId,
        /// The epoch in flight when it left.
        epoch: u64,
    },
    /// An epoch completed. Appended by the release winner *before*
    /// the `Release` broadcast.
    Episode {
        /// The completed epoch.
        epoch: u64,
        /// Incarnation of the releasing server.
        inc: u64,
        /// Order-independent hash of the live roster at release time;
        /// recovery recomputes it from the replayed membership deltas
        /// and refuses to serve on mismatch.
        roster_hash: u64,
        /// `(session, cumulative completed counter after this epoch)`
        /// for every session that explicitly arrived.
        completers: Vec<(SessionId, u64)>,
    },
    /// Replication-stream liveness beacon (never stored): lets a warm
    /// standby distinguish "idle primary" from "dead primary".
    Heartbeat {
        /// Incarnation of the beaconing primary.
        inc: u64,
    },
    /// A compaction point: the full ledger state at `epoch`. Replay
    /// starts from the last snapshot and only replays the tail.
    Snapshot {
        /// The epoch the snapshot captures (equal to epochs released).
        epoch: u64,
        /// Incarnation that wrote the snapshot.
        inc: u64,
        /// Every session the ledger knows, with its liveness and
        /// cumulative counters.
        sessions: Vec<SnapEntry>,
    },
}

/// One session's entry in a [`JournalRecord::Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapEntry {
    /// The session.
    pub session: SessionId,
    /// Whether it was live (in the roster) at the snapshot epoch.
    pub live: bool,
    /// Its cumulative service counters.
    pub stats: SessionStats,
}

/// Why a journal operation failed.
#[derive(Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The appending incarnation has been superseded: a newer
    /// incarnation already wrote to the journal. The appender must
    /// stop serving (it is a zombie).
    Fenced {
        /// The incarnation that attempted the append.
        attempted: u64,
        /// The highest incarnation the journal has seen.
        current: u64,
    },
    /// Backing-store I/O failed.
    Io(String),
}

impl core::fmt::Display for JournalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JournalError::Fenced { attempted, current } => write!(
                f,
                "journal append fenced: incarnation {attempted} superseded by {current}"
            ),
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn get_u32(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// FNV-1a 64 over the record bytes, folded to 32 bits for the entry
/// trailer. Not cryptographic — it detects torn writes and random
/// corruption, which is all a local WAL needs.
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h >> 32) ^ h) as u32
}

/// splitmix64 finalizer — the per-session mix inside [`roster_hash`].
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-independent hash of a session roster: the wrapping sum of a
/// splitmix64 mix of each id. Commutative by construction, so the
/// release winner (hashing the authoritative roster set) and recovery
/// (hashing the roster reconstructed from membership deltas) agree
/// regardless of iteration order.
pub fn roster_hash(roster: impl IntoIterator<Item = SessionId>) -> u64 {
    roster
        .into_iter()
        .fold(0u64, |acc, sid| acc.wrapping_add(mix(sid)))
}

impl JournalRecord {
    /// Encodes the record body (no length/checksum framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            JournalRecord::Incarnation { inc } => {
                buf.push(TAG_INCARNATION);
                put_u64(&mut buf, *inc);
            }
            JournalRecord::Join {
                session,
                epoch,
                rejoin,
            } => {
                buf.push(TAG_JOIN);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *epoch);
                buf.push(u8::from(*rejoin));
            }
            JournalRecord::Evict { session, epoch } => {
                buf.push(TAG_EVICT);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *epoch);
            }
            JournalRecord::Leave { session, epoch } => {
                buf.push(TAG_LEAVE);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *epoch);
            }
            JournalRecord::Episode {
                epoch,
                inc,
                roster_hash,
                completers,
            } => {
                buf.push(TAG_EPISODE);
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *inc);
                put_u64(&mut buf, *roster_hash);
                buf.extend_from_slice(&(completers.len() as u32).to_le_bytes());
                for (sid, done) in completers {
                    put_u64(&mut buf, *sid);
                    put_u64(&mut buf, *done);
                }
            }
            JournalRecord::Heartbeat { inc } => {
                buf.push(TAG_HEARTBEAT);
                put_u64(&mut buf, *inc);
            }
            JournalRecord::Snapshot {
                epoch,
                inc,
                sessions,
            } => {
                buf.push(TAG_SNAPSHOT);
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *inc);
                buf.extend_from_slice(&(sessions.len() as u32).to_le_bytes());
                for s in sessions {
                    put_u64(&mut buf, s.session);
                    buf.push(u8::from(s.live));
                    put_u64(&mut buf, s.stats.completed);
                    put_u64(&mut buf, s.stats.evictions);
                    put_u64(&mut buf, s.stats.rejoins);
                }
            }
        }
        buf
    }

    /// Decodes one record body. `None` means malformed — the replayer
    /// treats it as corruption (or, at the stream tail, a torn write).
    /// Never panics, regardless of input.
    pub fn decode(body: &[u8]) -> Option<JournalRecord> {
        let tag = *body.first()?;
        let exact = |want: usize| if body.len() == want { Some(()) } else { None };
        match tag {
            TAG_INCARNATION => {
                exact(9)?;
                Some(JournalRecord::Incarnation {
                    inc: get_u64(body, 1)?,
                })
            }
            TAG_JOIN => {
                exact(18)?;
                Some(JournalRecord::Join {
                    session: get_u64(body, 1)?,
                    epoch: get_u64(body, 9)?,
                    rejoin: match body[17] {
                        0 => false,
                        1 => true,
                        _ => return None,
                    },
                })
            }
            TAG_EVICT => {
                exact(17)?;
                Some(JournalRecord::Evict {
                    session: get_u64(body, 1)?,
                    epoch: get_u64(body, 9)?,
                })
            }
            TAG_LEAVE => {
                exact(17)?;
                Some(JournalRecord::Leave {
                    session: get_u64(body, 1)?,
                    epoch: get_u64(body, 9)?,
                })
            }
            TAG_EPISODE => {
                let n = get_u32(body, 25)? as usize;
                exact(29 + n * 16)?;
                let mut completers = Vec::with_capacity(n);
                for i in 0..n {
                    completers.push((get_u64(body, 29 + i * 16)?, get_u64(body, 37 + i * 16)?));
                }
                Some(JournalRecord::Episode {
                    epoch: get_u64(body, 1)?,
                    inc: get_u64(body, 9)?,
                    roster_hash: get_u64(body, 17)?,
                    completers,
                })
            }
            TAG_HEARTBEAT => {
                exact(9)?;
                Some(JournalRecord::Heartbeat {
                    inc: get_u64(body, 1)?,
                })
            }
            TAG_SNAPSHOT => {
                let n = get_u32(body, 17)? as usize;
                exact(21 + n * 33)?;
                let mut sessions = Vec::with_capacity(n);
                for i in 0..n {
                    let at = 21 + i * 33;
                    sessions.push(SnapEntry {
                        session: get_u64(body, at)?,
                        live: match body[at + 8] {
                            0 => false,
                            1 => true,
                            _ => return None,
                        },
                        stats: SessionStats {
                            completed: get_u64(body, at + 9)?,
                            evictions: get_u64(body, at + 17)?,
                            rejoins: get_u64(body, at + 25)?,
                        },
                    });
                }
                Some(JournalRecord::Snapshot {
                    epoch: get_u64(body, 1)?,
                    inc: get_u64(body, 9)?,
                    sessions,
                })
            }
            _ => None,
        }
    }

    /// The incarnation this record claims, if it carries one.
    fn claimed_inc(&self) -> Option<u64> {
        match self {
            JournalRecord::Incarnation { inc }
            | JournalRecord::Episode { inc, .. }
            | JournalRecord::Heartbeat { inc }
            | JournalRecord::Snapshot { inc, .. } => Some(*inc),
            _ => None,
        }
    }
}

/// Frames one record as a length-delimited checksummed entry.
pub fn frame_entry(rec: &JournalRecord) -> Vec<u8> {
    let body = rec.encode();
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&checksum(&body).to_le_bytes());
    out
}

enum Backing {
    /// In-memory journal: the common case for tests and single-process
    /// deployments (survives *server* death because the journal Arc
    /// outlives the `EpochServer`).
    Mem(Vec<u8>),
    /// File-backed journal: survives whole-process death. Appends
    /// reopen the file per call — once per *epoch*, thanks to group
    /// commit, so the reopen cost never sits on the arrival hot path.
    File(PathBuf),
}

struct Inner {
    backing: Backing,
    /// Highest incarnation ever appended — the fencing watermark.
    max_inc: u64,
}

/// The write-ahead epoch journal. Shared (via `Arc`) between a primary
/// server, its potential restarts, and any warm standby.
pub struct Journal {
    inner: Mutex<Inner>,
}

impl Journal {
    /// A fresh in-memory journal.
    pub fn memory() -> Arc<Journal> {
        Arc::new(Journal {
            inner: Mutex::new(Inner {
                backing: Backing::Mem(Vec::new()),
                max_inc: 0,
            }),
        })
    }

    /// Opens (or creates) a file-backed journal, scanning any existing
    /// contents to restore the fencing watermark.
    pub fn open(path: impl Into<PathBuf>) -> Result<Arc<Journal>, JournalError> {
        let path = path.into();
        let bytes = match std::fs::File::open(&path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                buf
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::File::create(&path)?;
                Vec::new()
            }
            Err(e) => return Err(e.into()),
        };
        let max_inc = scan_max_inc(&bytes);
        Ok(Arc::new(Journal {
            inner: Mutex::new(Inner {
                backing: Backing::File(path),
                max_inc,
            }),
        }))
    }

    /// Appends a batch of records as one durable write, fencing on
    /// incarnation: if `inc` is below the highest incarnation the
    /// journal has seen, nothing is written and the caller must stop
    /// serving.
    pub fn append_batch(&self, inc: u64, records: &[JournalRecord]) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().expect("journal lock");
        if inc < inner.max_inc {
            return Err(JournalError::Fenced {
                attempted: inc,
                current: inner.max_inc,
            });
        }
        inner.max_inc = inner.max_inc.max(inc);
        let mut framed = Vec::new();
        for rec in records {
            framed.extend_from_slice(&frame_entry(rec));
        }
        match &mut inner.backing {
            Backing::Mem(buf) => buf.extend_from_slice(&framed),
            Backing::File(path) => {
                let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
                f.write_all(&framed)?;
                f.flush()?;
            }
        }
        Ok(())
    }

    /// Claims the next incarnation: bumps the watermark past everything
    /// seen so far, appends the [`JournalRecord::Incarnation`] entry,
    /// and returns the new number. Used by restart recovery and standby
    /// promotion; by construction any previous incarnation is fenced
    /// from this moment on.
    pub fn bump_incarnation(&self) -> Result<u64, JournalError> {
        let next = {
            let inner = self.inner.lock().expect("journal lock");
            inner.max_inc + 1
        };
        self.append_batch(next, &[JournalRecord::Incarnation { inc: next }])?;
        Ok(next)
    }

    /// The highest incarnation the journal has seen.
    pub fn max_incarnation(&self) -> u64 {
        self.inner.lock().expect("journal lock").max_inc
    }

    /// The full journal byte stream (snapshot copy).
    pub fn read_all(&self) -> Result<Vec<u8>, JournalError> {
        let inner = self.inner.lock().expect("journal lock");
        match &inner.backing {
            Backing::Mem(buf) => Ok(buf.clone()),
            Backing::File(path) => {
                let mut f = std::fs::File::open(path)?;
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                Ok(buf)
            }
        }
    }

    /// Total journal length in bytes, read without copying the journal.
    pub fn len(&self) -> Result<u64, JournalError> {
        let inner = self.inner.lock().expect("journal lock");
        match &inner.backing {
            Backing::Mem(buf) => Ok(buf.len() as u64),
            Backing::File(path) => Ok(std::fs::metadata(path)?.len()),
        }
    }

    /// Whether the journal holds no entries yet.
    pub fn is_empty(&self) -> Result<bool, JournalError> {
        Ok(self.len()? == 0)
    }

    /// Chops `bytes` off the journal tail — the `journal-truncate`
    /// chaos fault, simulating a crash that lost a durable suffix
    /// (e.g. a dying disk acking writes it never persisted). Recovery
    /// after this is exactly the scenario the `Diverged` protocol arm
    /// exists for.
    pub fn truncate_tail(&self, bytes: u64) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().expect("journal lock");
        match &mut inner.backing {
            Backing::Mem(buf) => {
                let keep = buf.len().saturating_sub(bytes as usize);
                buf.truncate(keep);
            }
            Backing::File(path) => {
                let len = std::fs::metadata(&*path)?.len();
                let f = std::fs::OpenOptions::new().write(true).open(&*path)?;
                f.set_len(len.saturating_sub(bytes))?;
            }
        }
        Ok(())
    }

    /// Compacts the journal to `[Incarnation, Snapshot]`: replay after
    /// this starts from the snapshot instead of the full history. The
    /// snapshot must capture the complete ledger state. Fenced like any
    /// append.
    pub fn compact(&self, inc: u64, snapshot: &JournalRecord) -> Result<(), JournalError> {
        debug_assert!(matches!(snapshot, JournalRecord::Snapshot { .. }));
        let mut inner = self.inner.lock().expect("journal lock");
        if inc < inner.max_inc {
            return Err(JournalError::Fenced {
                attempted: inc,
                current: inner.max_inc,
            });
        }
        let mut framed = frame_entry(&JournalRecord::Incarnation { inc });
        framed.extend_from_slice(&frame_entry(snapshot));
        match &mut inner.backing {
            // Keep the buffer's capacity: the next cycle appends into it
            // instead of regrowing a fresh one by doubling.
            Backing::Mem(buf) => {
                buf.clear();
                buf.extend_from_slice(&framed);
            }
            Backing::File(path) => {
                // Write-then-rename would be the production shape; a
                // truncating rewrite keeps the zero-dep store simple
                // and the compaction window is covered by the torn-tail
                // replay rule either way.
                let mut f = std::fs::File::create(&*path)?;
                f.write_all(&framed)?;
                f.flush()?;
            }
        }
        Ok(())
    }
}

/// Builds the snapshot record for a full ledger state.
pub fn snapshot_record(
    epoch: u64,
    inc: u64,
    sessions: &BTreeMap<SessionId, (bool, SessionStats)>,
) -> JournalRecord {
    JournalRecord::Snapshot {
        epoch,
        inc,
        sessions: sessions
            .iter()
            .map(|(&session, &(live, stats))| SnapEntry {
                session,
                live,
                stats,
            })
            .collect(),
    }
}

/// Scans a raw journal stream for the highest incarnation mentioned,
/// tolerating a torn tail.
fn scan_max_inc(bytes: &[u8]) -> u64 {
    let mut max = 0;
    let mut at = 0usize;
    while let Some((rec, next)) = next_entry(bytes, at) {
        if let Some(inc) = rec.claimed_inc() {
            max = max.max(inc);
        }
        at = next;
    }
    max
}

/// Decodes the entry starting at `at`, returning the record and the
/// offset of the following entry. `None` on a torn or corrupt entry —
/// the replayer stops there.
pub fn next_entry(bytes: &[u8], at: usize) -> Option<(JournalRecord, usize)> {
    let len = get_u32(bytes, at)? as usize;
    let body = bytes.get(at + 4..at + 4 + len)?;
    let sum = get_u32(bytes, at + 4 + len)?;
    if checksum(body) != sum {
        return None;
    }
    let rec = JournalRecord::decode(body)?;
    Some((rec, at + 4 + len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_cases() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Incarnation { inc: 3 },
            JournalRecord::Join {
                session: 7,
                epoch: 12,
                rejoin: true,
            },
            JournalRecord::Join {
                session: 8,
                epoch: 12,
                rejoin: false,
            },
            JournalRecord::Evict {
                session: 9,
                epoch: 13,
            },
            JournalRecord::Leave {
                session: 10,
                epoch: 14,
            },
            JournalRecord::Episode {
                epoch: 15,
                inc: 3,
                roster_hash: 0xdead_beef,
                completers: vec![(7, 15), (8, 14), (u64::MAX, 1)],
            },
            JournalRecord::Episode {
                epoch: 16,
                inc: 3,
                roster_hash: 0,
                completers: vec![],
            },
            JournalRecord::Heartbeat { inc: 3 },
            JournalRecord::Snapshot {
                epoch: 20,
                inc: 4,
                sessions: vec![
                    SnapEntry {
                        session: 7,
                        live: true,
                        stats: SessionStats {
                            completed: 20,
                            evictions: 1,
                            rejoins: 1,
                        },
                    },
                    SnapEntry {
                        session: 9,
                        live: false,
                        stats: SessionStats {
                            completed: 13,
                            evictions: 1,
                            rejoins: 0,
                        },
                    },
                ],
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for rec in record_cases() {
            assert_eq!(JournalRecord::decode(&rec.encode()), Some(rec));
        }
    }

    #[test]
    fn entries_roundtrip_through_framing() {
        let mut stream = Vec::new();
        for rec in record_cases() {
            stream.extend_from_slice(&frame_entry(&rec));
        }
        let mut at = 0;
        let mut decoded = Vec::new();
        while let Some((rec, next)) = next_entry(&stream, at) {
            decoded.push(rec);
            at = next;
        }
        assert_eq!(decoded, record_cases());
        assert_eq!(at, stream.len(), "replay consumed the whole stream");
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let mut stream = Vec::new();
        for rec in record_cases() {
            stream.extend_from_slice(&frame_entry(&rec));
        }
        let full = record_cases().len();
        // Truncate at every possible byte boundary: the replayed prefix
        // must always be an exact prefix of the full record sequence.
        for cut in 0..stream.len() {
            let cutstream = &stream[..cut];
            let mut at = 0;
            let mut n = 0;
            while let Some((rec, next)) = next_entry(cutstream, at) {
                assert_eq!(rec, record_cases()[n], "cut {cut} replayed a wrong record");
                n += 1;
                at = next;
            }
            assert!(n <= full);
        }
    }

    #[test]
    fn checksum_rejects_corruption() {
        let rec = JournalRecord::Episode {
            epoch: 5,
            inc: 1,
            roster_hash: 42,
            completers: vec![(1, 5)],
        };
        let mut entry = frame_entry(&rec);
        // Flip a payload bit: the checksum must catch it.
        entry[6] ^= 0x40;
        assert!(next_entry(&entry, 0).is_none());
    }

    /// Seeded corruption fuzz over journal entries, the journal half of
    /// the protocol-hardening satellite: bit flips, truncations, and
    /// appended noise must never panic the replayer, and any entry that
    /// *does* replay must re-encode to exactly the bytes consumed.
    #[test]
    fn corruption_fuzz_never_panics() {
        let mut state = 0x0605_0403_0201_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let cases = record_cases();
        for trial in 0..3000_u64 {
            let mut entry = if trial % 5 == 0 {
                let len = (next() % 48) as usize;
                (0..len).map(|_| (next() & 0xff) as u8).collect::<Vec<u8>>()
            } else {
                frame_entry(&cases[(next() % cases.len() as u64) as usize])
            };
            for _ in 0..=(next() % 3) {
                if entry.is_empty() {
                    break;
                }
                match next() % 3 {
                    0 => {
                        let at = (next() % entry.len() as u64) as usize;
                        entry[at] ^= 1 << (next() % 8);
                    }
                    1 => {
                        let cut = (next() % (entry.len() as u64 + 1)) as usize;
                        entry.truncate(cut);
                    }
                    _ => entry.push((next() & 0xff) as u8),
                }
            }
            if let Some((rec, consumed)) = next_entry(&entry, 0) {
                assert_eq!(
                    frame_entry(&rec),
                    entry[..consumed].to_vec(),
                    "replayed entry does not re-encode to consumed bytes"
                );
            }
        }
    }

    #[test]
    fn append_is_fenced_by_incarnation() {
        let j = Journal::memory();
        let inc1 = j.bump_incarnation().expect("first incarnation");
        assert_eq!(inc1, 1);
        j.append_batch(
            inc1,
            &[JournalRecord::Episode {
                epoch: 0,
                inc: inc1,
                roster_hash: 0,
                completers: vec![],
            }],
        )
        .expect("current incarnation appends");
        let inc2 = j.bump_incarnation().expect("second incarnation");
        assert_eq!(inc2, 2);
        // The old incarnation is now a zombie: its appends must fail
        // and must leave the journal untouched.
        let before = j.read_all().expect("read");
        let err = j
            .append_batch(
                inc1,
                &[JournalRecord::Episode {
                    epoch: 1,
                    inc: inc1,
                    roster_hash: 0,
                    completers: vec![],
                }],
            )
            .expect_err("zombie append must fence");
        assert_eq!(
            err,
            JournalError::Fenced {
                attempted: 1,
                current: 2
            }
        );
        assert_eq!(j.read_all().expect("read"), before);
    }

    #[test]
    fn roster_hash_is_order_independent() {
        let a = roster_hash([1, 2, 3, 100]);
        let b = roster_hash([100, 3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, roster_hash([1, 2, 3]));
        assert_eq!(roster_hash([]), 0);
    }

    #[test]
    fn file_backed_journal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "combar-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("epoch.wal");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).expect("open");
            let inc = j.bump_incarnation().expect("inc");
            j.append_batch(
                inc,
                &[
                    JournalRecord::Join {
                        session: 1,
                        epoch: 0,
                        rejoin: false,
                    },
                    JournalRecord::Episode {
                        epoch: 0,
                        inc,
                        roster_hash: roster_hash([1]),
                        completers: vec![(1, 1)],
                    },
                ],
            )
            .expect("append");
        }
        // "Process restart": reopen from disk.
        let j = Journal::open(&path).expect("reopen");
        assert_eq!(j.max_incarnation(), 1, "fencing watermark restored");
        let bytes = j.read_all().expect("read");
        let mut at = 0;
        let mut recs = Vec::new();
        while let Some((rec, next)) = next_entry(&bytes, at) {
            recs.push(rec);
            at = next;
        }
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[2], JournalRecord::Episode { epoch: 0, .. }));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn truncate_tail_loses_suffix_only() {
        let j = Journal::memory();
        let inc = j.bump_incarnation().expect("inc");
        for epoch in 0..3 {
            j.append_batch(
                inc,
                &[JournalRecord::Episode {
                    epoch,
                    inc,
                    roster_hash: 0,
                    completers: vec![],
                }],
            )
            .expect("append");
        }
        let entry_len = frame_entry(&JournalRecord::Episode {
            epoch: 0,
            inc,
            roster_hash: 0,
            completers: vec![],
        })
        .len() as u64;
        // Chop half of the last entry: replay must recover epochs 0–1.
        j.truncate_tail(entry_len / 2).expect("truncate");
        let bytes = j.read_all().expect("read");
        let mut at = 0;
        let mut epochs = Vec::new();
        while let Some((rec, next)) = next_entry(&bytes, at) {
            if let JournalRecord::Episode { epoch, .. } = rec {
                epochs.push(epoch);
            }
            at = next;
        }
        assert_eq!(epochs, vec![0, 1]);
    }

    #[test]
    fn compact_replaces_history_with_snapshot() {
        let j = Journal::memory();
        let inc = j.bump_incarnation().expect("inc");
        for epoch in 0..10 {
            j.append_batch(
                inc,
                &[JournalRecord::Episode {
                    epoch,
                    inc,
                    roster_hash: roster_hash([1, 2]),
                    completers: vec![(1, epoch + 1), (2, epoch + 1)],
                }],
            )
            .expect("append");
        }
        let mut sessions = BTreeMap::new();
        sessions.insert(
            1,
            (
                true,
                SessionStats {
                    completed: 10,
                    ..Default::default()
                },
            ),
        );
        sessions.insert(
            2,
            (
                true,
                SessionStats {
                    completed: 10,
                    ..Default::default()
                },
            ),
        );
        let before = j.len().expect("len");
        j.compact(inc, &snapshot_record(10, inc, &sessions))
            .expect("compact");
        assert!(j.len().expect("len") < before, "compaction shrank the log");
        let bytes = j.read_all().expect("read");
        let (first, at) = next_entry(&bytes, 0).expect("incarnation entry");
        assert_eq!(first, JournalRecord::Incarnation { inc });
        let (second, end) = next_entry(&bytes, at).expect("snapshot entry");
        match second {
            JournalRecord::Snapshot {
                epoch, sessions, ..
            } => {
                assert_eq!(epoch, 10);
                assert_eq!(sessions.len(), 2);
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        assert_eq!(end as u64, j.len().expect("len"));
    }

    /// Compaction keeps the in-memory buffer: cycles of one size append
    /// into the capacity the first of them grew, so the journal's memory
    /// is set by its largest cycle, not by how many cycles a run goes
    /// through.
    #[test]
    fn compaction_at_a_fixed_size_never_reallocates_the_buffer() {
        let j = Journal::memory();
        let inc = j.bump_incarnation().expect("inc");
        let sessions = BTreeMap::from([(1, (true, SessionStats::default()))]);
        let buffer = || match &j.inner.lock().expect("journal lock").backing {
            Backing::Mem(buf) => (buf.as_ptr(), buf.capacity()),
            Backing::File(_) => unreachable!("a memory journal"),
        };
        let mut grown = None;
        for cycle in 0..50_u64 {
            for epoch in cycle * 64..(cycle + 1) * 64 {
                let rec = JournalRecord::Episode {
                    epoch,
                    inc,
                    roster_hash: roster_hash([1]),
                    completers: vec![(1, epoch + 1)],
                };
                j.append_batch(inc, &[rec]).expect("append");
            }
            let epoch = (cycle + 1) * 64;
            j.compact(inc, &snapshot_record(epoch, inc, &sessions))
                .expect("compact");
            // The first cycle starts from a lone incarnation entry, the
            // rest from a snapshot: the second one sets the size.
            if cycle > 0 {
                let now = buffer();
                assert_eq!(*grown.get_or_insert(now), now, "cycle {cycle}");
            }
        }
    }

    /// `len` answers from the backing's own length — the buffer's, the
    /// file's metadata — and must agree with the bytes `read_all`
    /// copies out, through every operation that changes the length.
    #[test]
    fn len_matches_read_all_on_both_backings() {
        let dir = std::env::temp_dir().join(format!(
            "combar-journal-len-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("epoch.wal");
        let _ = std::fs::remove_file(&path);
        for j in [Journal::memory(), Journal::open(&path).expect("open")] {
            let agrees = |when: &str| {
                let bytes = j.read_all().expect("read").len() as u64;
                assert_eq!(j.len().expect("len"), bytes, "{when}");
                assert_eq!(j.is_empty().expect("is_empty"), bytes == 0, "{when}");
            };
            agrees("fresh");
            let inc = j.bump_incarnation().expect("inc");
            for epoch in 0..5 {
                let rec = JournalRecord::Episode {
                    epoch,
                    inc,
                    roster_hash: roster_hash([1]),
                    completers: vec![(1, epoch + 1)],
                };
                j.append_batch(inc, &[rec]).expect("append");
            }
            agrees("after appends");
            let sessions = BTreeMap::from([(1, (true, SessionStats::default()))]);
            j.compact(inc, &snapshot_record(5, inc, &sessions))
                .expect("compact");
            agrees("after compact");
            j.truncate_tail(7).expect("truncate");
            agrees("after truncate_tail");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
