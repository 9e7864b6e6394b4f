//! Structured barrier tracing with deterministic merged timelines.
//!
//! The paper's argument is about *where time goes inside a barrier
//! crossing* — which counters the releasing processor climbed, how deep
//! the combining chain ran, where the last arriver sat. This crate
//! gives the runtime barriers (and the DES, which mirrors the same
//! schema) a way to record exactly that, cheaply enough to leave the
//! call sites in release builds:
//!
//! * **One branch when disabled.** Every emission site starts with a
//!   single relaxed load of a global flag ([`enabled`]); the flag is
//!   only raised while at least one [`TraceBook`] sink is attached
//!   somewhere in the process, so un-traced runs pay one predictable
//!   branch per event site and nothing else.
//! * **Per-thread ring buffers, no locks on the hot path.** A thread
//!   that wants its events recorded attaches a thread-local writer to a
//!   [`TraceBook`] ([`TraceBook::attach`]); emission is a `Vec` push
//!   into that writer. The book's mutex is touched only when the guard
//!   drops (flush) or the log is drained — never per event.
//! * **Bounded.** Each writer holds at most its configured capacity;
//!   overflow is counted, not stored, so tracing a million-episode soak
//!   cannot exhaust memory.
//! * **Deterministic.** Events carry no wall-clock time: the `at` field
//!   is a per-writer logical tick (or DES virtual time, for simulated
//!   timelines). Merging sorts by `(episode, at, writer)` with a stable
//!   sort, so the merged timeline of a deterministic run is
//!   byte-identical across runs, thread counts, and `combar-check`
//!   replays.
//!
//! [`critical_paths`] folds a merged timeline into per-episode
//! critical-path records — the depth and counter chain climbed by the
//! releasing thread — which is the measured analogue of the paper's
//! "Last Proc Depth" row (Figure 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What happened at an event site.
///
/// The same schema serves the threaded runtime and the DES: `u32`
/// payloads name counters (for combining/winning events) or threads
/// (for membership events), as documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The subject thread arrived at the barrier for this episode.
    Arrive,
    /// The subject began combining into the named counter.
    CombineStart(u32),
    /// The subject finished combining into the named counter.
    CombineEnd(u32),
    /// The subject was the last arriver at the named counter and
    /// carries the episode upward (tree/tournament "winner").
    Win(u32),
    /// The subject arrived early at the named counter (or lost its
    /// tournament round) and waits for the release.
    Lose(u32),
    /// The subject released the episode (root winner / champion /
    /// last arriver at a central counter).
    Release,
    /// The subject's arrival was delivered by proxy (eviction,
    /// adoption); the payload names the counter it landed at.
    ProxyArrival(u32),
    /// The payload thread was evicted from the membership.
    Evict(u32),
    /// The payload thread was detected as a straggler by a supervisor
    /// or adopted by a healing peer.
    Heal(u32),
    /// The subject rejoined the barrier after an eviction.
    Rejoin,
    /// Dynamic placement moved the subject to the named counter.
    Swap(u32),
    /// The subject parked as a logical waiter (async runtime): its
    /// waker joined the named shard's wait list instead of a thread
    /// spinning.
    Park(u32),
    /// The subject released a batch of parked wakers from the named
    /// shard's wait list (async runtime fan-out).
    Wake(u32),
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Arrive => write!(f, "arrive"),
            Kind::CombineStart(c) => write!(f, "combine-start c{c}"),
            Kind::CombineEnd(c) => write!(f, "combine-end c{c}"),
            Kind::Win(c) => write!(f, "win c{c}"),
            Kind::Lose(c) => write!(f, "lose c{c}"),
            Kind::Release => write!(f, "release"),
            Kind::ProxyArrival(c) => write!(f, "proxy-arrival c{c}"),
            Kind::Evict(t) => write!(f, "evict t{t}"),
            Kind::Heal(t) => write!(f, "heal t{t}"),
            Kind::Rejoin => write!(f, "rejoin"),
            Kind::Swap(c) => write!(f, "swap->c{c}"),
            Kind::Park(s) => write!(f, "park s{s}"),
            Kind::Wake(s) => write!(f, "wake s{s}"),
        }
    }
}

/// One structured trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Barrier episode the event belongs to.
    pub episode: u32,
    /// Thread the event concerns (the *subject*; proxy events name the
    /// absent thread here and the acting thread in the payload).
    pub tid: u32,
    /// Logical position: a per-writer monotone tick in the threaded
    /// runtime, virtual nanoseconds in DES timelines. Never wall time.
    pub at: u64,
    /// What happened.
    pub kind: Kind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "e{} @{} t{} {}",
            self.episode, self.at, self.tid, self.kind
        )
    }
}

/// Cheap occurrence counters sampled at synchronization hot spots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Spin-loop hint iterations burned while waiting.
    pub spins: u64,
    /// Scheduler yields taken after the spin budget ran out.
    pub yields: u64,
    /// Failed compare-exchange attempts (contention retries).
    pub cas_failures: u64,
}

impl Counters {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &Counters) {
        self.spins += other.spins;
        self.yields += other.yields;
        self.cas_failures += other.cas_failures;
    }
}

/// Number of attached writers process-wide; emission sites check
/// `> 0` with one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Whether any trace sink is attached anywhere in the process. This is
/// the one branch every event site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

/// Whether the calling thread has a sink attached, i.e. whether its
/// [`emit`] calls are recorded. Guard an event tag that costs a shared
/// read with this rather than [`enabled`]: another thread's sink turns
/// `enabled` on, so a read behind it comes and goes with work the
/// caller never sees — under the model checker, a schedule point that
/// exists only while some other test traces.
#[inline]
pub fn attached() -> bool {
    enabled() && WRITER.with(|w| w.borrow().is_some())
}

struct Writer {
    book: Arc<TraceBook>,
    writer: u32,
    events: Vec<Event>,
    capacity: usize,
    tick: u64,
    dropped: u64,
    counters: Counters,
}

impl Writer {
    fn push(&mut self, episode: u32, tid: u32, kind: Kind) {
        let at = self.tick;
        self.tick += 1;
        if self.events.len() < self.capacity {
            self.events.push(Event {
                episode,
                tid,
                at,
                kind,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn flush(&mut self) {
        let mut state = self.book.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .streams
            .push((self.writer, std::mem::take(&mut self.events)));
        state.dropped += self.dropped;
        state.counters.merge(&self.counters);
        self.dropped = 0;
        self.counters = Counters::default();
    }
}

thread_local! {
    static WRITER: RefCell<Option<Writer>> = const { RefCell::new(None) };
}

/// Records an event into the calling thread's attached sink, if any.
///
/// Costs one relaxed flag load when tracing is disabled; threads
/// without an attached writer drop the event even while some other
/// thread traces, so concurrent traced and un-traced work never mix.
#[inline]
pub fn emit(episode: u32, tid: u32, kind: Kind) {
    if !enabled() {
        return;
    }
    emit_slow(episode, tid, kind);
}

#[inline(never)]
fn emit_slow(episode: u32, tid: u32, kind: Kind) {
    WRITER.with(|w| {
        if let Some(w) = w.borrow_mut().as_mut() {
            w.push(episode, tid, kind);
        }
    });
}

/// Adds `n` spin iterations to the calling thread's counters.
#[inline]
pub fn count_spins(n: u64) {
    if !enabled() {
        return;
    }
    WRITER.with(|w| {
        if let Some(w) = w.borrow_mut().as_mut() {
            w.counters.spins += n;
        }
    });
}

/// Adds one scheduler yield to the calling thread's counters.
#[inline]
pub fn count_yield() {
    if !enabled() {
        return;
    }
    WRITER.with(|w| {
        if let Some(w) = w.borrow_mut().as_mut() {
            w.counters.yields += 1;
        }
    });
}

/// Adds one failed compare-exchange to the calling thread's counters.
#[inline]
pub fn count_cas_failure() {
    if !enabled() {
        return;
    }
    WRITER.with(|w| {
        if let Some(w) = w.borrow_mut().as_mut() {
            w.counters.cas_failures += 1;
        }
    });
}

#[derive(Default)]
struct BookState {
    /// Flushed per-writer streams, each internally in emission order.
    streams: Vec<(u32, Vec<Event>)>,
    counters: Counters,
    dropped: u64,
}

/// A registry that per-thread writers flush into; drain it for the
/// merged, deterministically ordered timeline.
///
/// Create one per traced run, [`attach`](TraceBook::attach) every
/// participating thread, drop the guards (or let them fall out of
/// scope), then [`drain`](TraceBook::drain).
pub struct TraceBook {
    state: Mutex<BookState>,
    capacity: usize,
}

/// Default per-writer event capacity.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl TraceBook {
    /// Creates a book whose writers each hold up to [`DEFAULT_CAPACITY`]
    /// events.
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a book whose writers each hold up to `capacity` events;
    /// overflow is counted in [`dropped`](TraceBook::dropped).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(BookState::default()),
            capacity,
        })
    }

    /// Attaches the calling thread to this book under writer id
    /// `writer` (conventionally the thread's barrier tid). Until the
    /// returned guard drops, the thread's [`emit`]/counter calls land
    /// in a private buffer; the guard's drop flushes it into the book.
    ///
    /// Attaching replaces any writer already installed on the thread;
    /// the previous one is flushed to *its* book first. After the inner
    /// guard drops the thread is detached until the next attach (the
    /// earlier writer is not restored).
    pub fn attach(self: &Arc<Self>, writer: u32) -> SinkGuard {
        let new = Writer {
            book: Arc::clone(self),
            writer,
            events: Vec::new(),
            capacity: self.capacity,
            tick: 0,
            dropped: 0,
            counters: Counters::default(),
        };
        let prev = WRITER.with(|w| w.borrow_mut().replace(new));
        let had_prev = if let Some(mut prev) = prev {
            prev.flush();
            true
        } else {
            ACTIVE.fetch_add(1, Ordering::SeqCst);
            false
        };
        SinkGuard { had_prev }
    }

    /// Merged timeline: every flushed stream, stably sorted by
    /// `(episode, at, writer)` so the order is a pure function of the
    /// streams' contents.
    pub fn drain(&self) -> Vec<Event> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut streams = std::mem::take(&mut state.streams);
        streams.sort_by_key(|(writer, _)| *writer);
        let mut tagged: Vec<(u32, Event)> = Vec::new();
        for (writer, events) in streams {
            tagged.extend(events.into_iter().map(|e| (writer, e)));
        }
        tagged.sort_by_key(|(writer, e)| (e.episode, e.at, *writer));
        tagged.into_iter().map(|(_, e)| e).collect()
    }

    /// Counters accumulated by all flushed writers.
    pub fn counters(&self) -> Counters {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counters
    }

    /// Events dropped after writers filled their capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }
}

/// Detaches the thread-local writer installed by [`TraceBook::attach`],
/// flushing its buffer into the book.
pub struct SinkGuard {
    /// Whether the attach replaced an existing writer (re-attach on the
    /// same thread); if so the ACTIVE count was never incremented.
    had_prev: bool,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let writer = WRITER.with(|w| w.borrow_mut().take());
        if let Some(mut writer) = writer {
            writer.flush();
        }
        if !self.had_prev {
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The measured critical path of one episode: what the releasing
/// thread did on its way to the release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodePath {
    /// Episode number.
    pub episode: u32,
    /// Thread that emitted the `Release` (the measured last arriver).
    pub releaser: u32,
    /// Counters the releaser won, in climb order (leaf → root). Its
    /// length is the measured critical depth.
    pub chain: Vec<u32>,
    /// `Arrive` events observed in the episode.
    pub arrivals: u32,
    /// Proxy arrivals performed in the episode.
    pub proxied: u32,
    /// Placement swaps performed in the episode.
    pub swaps: u32,
    /// Logical span from the episode's first event to its release.
    pub span: u64,
}

impl EpisodePath {
    /// The measured critical depth: counters on the releasing chain.
    pub fn depth(&self) -> u32 {
        self.chain.len() as u32
    }
}

/// Folds a merged timeline into per-episode critical paths.
///
/// An episode contributes a record only if it contains a `Release`;
/// the releaser's `Win` chain within the episode is the measured
/// critical path. Works identically on runtime timelines (logical
/// ticks) and DES timelines (virtual time); timelines that carry no
/// win/lose records (the DES schema) fall back to the releaser's
/// `CombineStart` chain, which is the same leaf→root climb.
pub fn critical_paths(events: &[Event]) -> Vec<EpisodePath> {
    let mut by_episode: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_episode.entry(e.episode).or_default().push(e);
    }
    let mut out = Vec::new();
    for (episode, evs) in by_episode {
        let Some(release) = evs.iter().find(|e| e.kind == Kind::Release) else {
            continue;
        };
        let releaser = release.tid;
        let releaser_events = || {
            evs.iter()
                .filter(|e| e.tid == releaser && e.at <= release.at)
        };
        let mut chain: Vec<u32> = releaser_events()
            .filter_map(|e| match e.kind {
                Kind::Win(c) => Some(c),
                _ => None,
            })
            .collect();
        if chain.is_empty() {
            // DES timelines record combines, not win/lose: the
            // releaser's update chain is the same leaf→root climb.
            chain = releaser_events()
                .filter_map(|e| match e.kind {
                    Kind::CombineStart(c) => Some(c),
                    _ => None,
                })
                .collect();
        }
        let arrivals = evs.iter().filter(|e| e.kind == Kind::Arrive).count() as u32;
        let proxied = evs
            .iter()
            .filter(|e| matches!(e.kind, Kind::ProxyArrival(_)))
            .count() as u32;
        let swaps = evs
            .iter()
            .filter(|e| matches!(e.kind, Kind::Swap(_)))
            .count() as u32;
        let first = evs.iter().map(|e| e.at).min().unwrap_or(0);
        out.push(EpisodePath {
            episode,
            releaser,
            chain,
            arrivals,
            proxied,
            swaps,
            span: release.at.saturating_sub(first),
        });
    }
    out
}

/// Renders a timeline one event per line (the diffable form used by
/// golden snapshots and the determinism jobs).
pub fn render(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("{e}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests assert on [`attached`] rather than on [`enabled`]: `ACTIVE`
    /// is process-wide, so a sibling test tracing in parallel raises it
    /// under our feet.
    #[test]
    fn disabled_emission_is_dropped() {
        assert!(!attached());
        emit(0, 0, Kind::Arrive);
        let book = TraceBook::new();
        {
            let _g = book.attach(0);
            assert!(enabled() && attached());
            emit(0, 0, Kind::Arrive);
        }
        assert!(!attached());
        emit(1, 0, Kind::Arrive); // after detach: dropped again
        assert_eq!(book.drain().len(), 1);
    }

    #[test]
    fn events_merge_sorted_by_episode_then_tick() {
        let book = TraceBook::new();
        {
            let _g = book.attach(7);
            emit(0, 7, Kind::Arrive);
            emit(0, 7, Kind::Win(3));
            emit(0, 7, Kind::Release);
            emit(1, 7, Kind::Arrive);
        }
        let evs = book.drain();
        assert_eq!(evs.len(), 4);
        assert!(evs
            .windows(2)
            .all(|w| (w[0].episode, w[0].at) <= (w[1].episode, w[1].at)));
        assert_eq!(evs[2].kind, Kind::Release);
    }

    #[test]
    fn capacity_bounds_memory_and_counts_drops() {
        let book = TraceBook::with_capacity(2);
        {
            let _g = book.attach(0);
            for i in 0..5 {
                emit(i, 0, Kind::Arrive);
            }
        }
        assert_eq!(book.drain().len(), 2);
        assert_eq!(book.dropped(), 3);
    }

    #[test]
    fn counters_accumulate_per_writer_and_merge() {
        let book = TraceBook::new();
        {
            let _g = book.attach(0);
            count_spins(10);
            count_yield();
            count_cas_failure();
            count_cas_failure();
        }
        let c = book.counters();
        assert_eq!(c.spins, 10);
        assert_eq!(c.yields, 1);
        assert_eq!(c.cas_failures, 2);
    }

    #[test]
    fn multithreaded_streams_merge_deterministically() {
        let book = TraceBook::new();
        std::thread::scope(|s| {
            for tid in 0..4u32 {
                let book = &book;
                s.spawn(move || {
                    let _g = book.attach(tid);
                    for e in 0..3 {
                        emit(e, tid, Kind::Arrive);
                        emit(e, tid, Kind::Lose(0));
                    }
                });
            }
        });
        let a = book.drain();
        // Repeat with reversed spawn order: same merged bytes.
        let book2 = TraceBook::new();
        std::thread::scope(|s| {
            for tid in (0..4u32).rev() {
                let book2 = &book2;
                s.spawn(move || {
                    let _g = book2.attach(tid);
                    for e in 0..3 {
                        emit(e, tid, Kind::Arrive);
                        emit(e, tid, Kind::Lose(0));
                    }
                });
            }
        });
        assert_eq!(render(&a), render(&book2.drain()));
    }

    #[test]
    fn critical_path_reads_the_releasers_win_chain() {
        let book = TraceBook::new();
        {
            let _g = book.attach(0);
            // tid 2 climbs two levels and releases; tid 1 loses early.
            emit(0, 1, Kind::Arrive);
            emit(0, 1, Kind::Lose(4));
            emit(0, 2, Kind::Arrive);
            emit(0, 2, Kind::Win(4));
            emit(0, 2, Kind::Win(0));
            emit(0, 2, Kind::Release);
            // episode 1 never releases: excluded.
            emit(1, 1, Kind::Arrive);
        }
        let paths = critical_paths(&book.drain());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].episode, 0);
        assert_eq!(paths[0].releaser, 2);
        assert_eq!(paths[0].chain, vec![4, 0]);
        assert_eq!(paths[0].depth(), 2);
        assert_eq!(paths[0].arrivals, 2);
    }

    #[test]
    fn critical_path_falls_back_to_the_combine_chain() {
        // DES timelines carry CombineStart/End, never Win/Lose; the
        // releaser's update chain stands in for the win chain.
        let events = vec![
            Event {
                episode: 1,
                tid: 3,
                at: 10,
                kind: Kind::Arrive,
            },
            Event {
                episode: 1,
                tid: 3,
                at: 11,
                kind: Kind::CombineStart(6),
            },
            Event {
                episode: 1,
                tid: 3,
                at: 12,
                kind: Kind::CombineEnd(6),
            },
            Event {
                episode: 1,
                tid: 3,
                at: 13,
                kind: Kind::CombineStart(0),
            },
            Event {
                episode: 1,
                tid: 3,
                at: 14,
                kind: Kind::Release,
            },
        ];
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].chain, vec![6, 0]);
        assert_eq!(paths[0].depth(), 2);
    }

    #[test]
    fn reattach_on_same_thread_flushes_previous_writer() {
        let book = TraceBook::new();
        let g1 = book.attach(0);
        emit(0, 0, Kind::Arrive);
        let g2 = book.attach(1);
        emit(0, 1, Kind::Arrive);
        drop(g2);
        drop(g1);
        assert!(!attached());
        assert_eq!(book.drain().len(), 2);
    }

    #[test]
    fn display_is_stable() {
        let e = Event {
            episode: 3,
            tid: 2,
            at: 17,
            kind: Kind::Win(5),
        };
        assert_eq!(format!("{e}"), "e3 @17 t2 win c5");
    }
}
