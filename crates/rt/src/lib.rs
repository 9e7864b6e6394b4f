//! Threaded barrier runtime for the `combar` study.
//!
//! Real software barriers built on `std::sync::atomic` — the paper's
//! premise is that barriers made of *simple* hardware primitives
//! (fetch-and-increment under a lock; here, native atomics) can scale
//! to large machines when the tree degree matches the load imbalance
//! and slow processors are placed near the root:
//!
//! * [`CentralBarrier`] — one counter + sense-reversing epoch; the
//!   `O(p)` baseline that is nevertheless optimal under extreme
//!   imbalance — with [`BlockingBarrier`] as the sleeping variant for
//!   oversubscribed hosts (the same climb, waiters parked on a condvar);
//! * [`TreeBarrier`] — static combining tree of any degree over any
//!   `combar-topo` topology (combining, MCS, ring);
//! * [`DynamicBarrier`] — the paper's dynamic placement barrier
//!   (Section 5.1): victor/victim swaps migrate slow threads to the
//!   root;
//! * [`counter`] — what those, the adaptive and the tournament barrier
//!   share. They are one protocol (the last updater of a counter climbs
//!   to its parent, the root's last updater releases everyone through
//!   one epoch flag) that differs only in degree and in who sits where —
//!   a tournament is the degree-2 tree whose winners are chosen
//!   statically — so they are one type, [`CounterBarrier`], over five
//!   climbs and two notifies — the arrival and notification terms of the
//!   paper's delay: the epoch / poison / evict / rejoin state machine,
//!   the waiter life-cycle and the release path exist once, `central`,
//!   `tree`, `dynamic`, `adaptive` and `tournament` hold only their
//!   counters (or flags) and walks, and `blocking` only how a waiter
//!   sleeps and is woken;
//! * [`DisseminationBarrier`] and [`TournamentBarrier`] — the classic
//!   `⌈log₂ p⌉`-round baselines from the literature the paper builds
//!   on;
//! * [`fuzzy`] — the arrive/depart split (Gupta's fuzzy barrier) every
//!   counter-tree waiter supports;
//! * [`AdaptiveBarrier`] — reconfigures its degree at run time from the
//!   measured arrival spread (the feasibility claim of the paper's
//!   conclusion): its releaser picks one of the candidate tree shapes
//!   in the quiescent window, with the degree policy injected (the
//!   `combar` core crate supplies the analytic model as that policy);
//! * [`AsyncBarrier`] ([`asyncb`]) — the async epoch runtime: a
//!   participant is a parked waker on a sharded wait list, not an OS
//!   thread, so a handful of driver threads ([`asyncb::Executor`])
//!   multiplex millions of logical participants; arrivals combine
//!   through cache-padded shards into one root per epoch and release
//!   fans out as batched wakeups per shard; [`load`] is its
//!   deterministic σ-imbalanced load harness.
//!
//! # Unified API
//!
//! All ten kinds implement the [`Barrier`]/[`Waiter`] trait pair and
//! are constructed through [`BarrierBuilder`], which folds the
//! per-kind constructor signatures, the self-healing supervisor, and
//! the trace sink into one surface; [`conformance::AnyBarrier`] is the
//! owning `Box<dyn Barrier>` newtype the conformance matrix and the
//! chaos experiments run through. The direct constructors remain for
//! statically-typed embedding.
//!
//! # Observability
//!
//! Every barrier emits structured `combar-trace` events (arrivals,
//! per-counter win/lose, combines, releases, proxy arrivals, swaps,
//! evictions, heals, rejoins) through per-thread lock-free sinks, and
//! the spin/yield/CAS hot spots feed cheap occurrence counters. With
//! no sink attached every site costs one relaxed flag test, and no
//! emission site adds a schedule point under the model checker, so
//! traced and checked runs see the same protocol. `combar-trace`'s
//! `critical_paths` folds a drained timeline into the measured
//! critical depth per episode — the observable the paper's static
//! `O(log p)` vs dynamic `O(1)` placement claim is about.
//!
//! [`harness`] packages the lockstep soak test used throughout the
//! repository, so downstream barrier implementations can be tortured
//! identically, and [`conformance`] turns the shared barrier contract
//! (lockstep, reuse, arrival/release ordering, fuzzy slack) into a
//! type-erased matrix every kind is checked against. All hot state is
//! cache-padded ([`CachePadded`]); waiting is a spin that looks after
//! every hint and yields once per 20 µs ([`spin::Backoff`]), and on
//! every look once a yield comes back late, so the crate behaves on
//! machines with fewer cores than threads, or a sleep
//! ([`sync::Sleeper`]) on the blocking barrier.
//!
//! # Model checking
//!
//! All atomics and scheduling hints go through the [`sync`] facade:
//! by default they resolve to `combar-check`'s shadowed atomics, so
//! the whole runtime can execute under that crate's deterministic
//! schedule-exploration checker (see `tests/model_check.rs`); outside
//! a checked run the shadow ops cost one thread-local flag test.
//! Build with `--cfg combar_sync_raw` to compile the facade straight
//! to `std::sync::atomic` instead. Checked fixtures must avoid wall
//! clocks, so the barriers expose clock-free fallible crossings
//! (`try_wait`/`try_depart`) alongside `wait_timeout`.
//!
//! # Fault model
//!
//! Every barrier additionally exposes a fallible surface
//! ([`BarrierError`]):
//!
//! * **bounded waits** — `wait_timeout(Duration)` alongside the
//!   infallible `wait()`; a timed-out arrival stays registered and the
//!   next wait call resumes the same episode;
//! * **poisoning** — a waiter dropped mid-episode (typically a panic
//!   unwinding) permanently poisons the barrier, turning a would-be
//!   deadlock into prompt [`BarrierError::Poisoned`] errors for peers;
//! * **graceful degradation** — the counter barriers (central,
//!   blocking, tree, dynamic, adaptive, tournament) support *eviction*: a
//!   participant that stops arriving can be removed — by a peer whose
//!   own wait timed out ([`Waiter::evict_stragglers`], bound to the
//!   episode that waiter is in, so a rescue that runs late evicts
//!   nobody) or by a supervisor (`evict(tid)`) — and its arrivals are
//!   thereafter delivered by proxy at each release, so survivors keep
//!   crossing (never the last active participant: somebody must be
//!   left to arrive); on the tournament a loser that signals a dead
//!   winner also plays on for it (*adoption*). Only the dissemination
//!   barrier cannot recover — every thread is a structurally unique
//!   signaller in every round there;
//! * **self-healing** — eviction is the entry point of a full
//!   detect → reconfigure → rejoin loop ([`heal`]): a lease-based
//!   [`Supervisor`] turns heartbeat silence into `fail(tid)` calls, the
//!   next episode's releaser folds the membership change into the live
//!   shape inside its quiescent window (re-parenting orphaned subtrees,
//!   see `Topology::prune_shape`), and the corpse can later come back —
//!   `try_rejoin` (clock-free) / `rejoin` / `rejoin_within` (jittered
//!   exponential backoff, [`JitterBackoff`]) — restoring the fault-free
//!   shape at an episode boundary.
//!
//! [`harness::chaos_torture_on`] soaks any barrier under a seeded
//! `combar-chaos` fault plan, including participant deaths, and
//! [`harness::churn_torture_on`] drives scripted death *and* comeback
//! schedules through the whole self-healing loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod asyncb;
pub mod barrier;
pub mod blocking;
pub mod central;
pub mod conformance;
pub mod counter;
pub mod dissemination;
pub mod dynamic;
pub mod error;
pub mod fuzzy;
pub mod harness;
pub mod heal;
pub mod load;
pub mod pad;
mod roster;
pub mod spin;
pub mod sync;
pub mod tournament;
pub mod tree;

pub use adaptive::{AdaptiveBarrier, AdaptiveWaiter, DegreePolicy};
pub use asyncb::{yield_now, AsyncBarrier, AsyncWaiter, ExecStats, Executor, Timer, WaitFuture};
pub use barrier::{Barrier, BarrierBuilder, Waiter};
pub use blocking::{BlockingBarrier, BlockingWaiter};
pub use central::{CentralBarrier, CentralWaiter};
pub use conformance::{AnyBarrier, AnyWaiter, BarrierKind};
pub use counter::{CounterBarrier, CounterWaiter};
pub use dissemination::{DisseminationBarrier, DisseminationWaiter};
pub use dynamic::{DynamicBarrier, DynamicWaiter};
pub use error::BarrierError;
pub use fuzzy::{fuzzy_episode, FuzzyTiming, FuzzyWaiter};
pub use harness::{
    chaos_torture_on, lockstep_torture_on, time_episodes, work_torture_on, ChaosReport, Stagger,
    TortureReport,
};
pub use heal::{JitterBackoff, RejoinStatus, SelfHealing, Supervisor, SupervisorConfig};
pub use pad::CachePadded;
pub use spin::Deadline;
pub use tournament::{TournamentBarrier, TournamentWaiter};
pub use tree::{TreeBarrier, TreeWaiter};
