//! The unified barrier API: the [`Barrier`]/[`Waiter`] trait pair and
//! [`BarrierBuilder`].
//!
//! Historically every barrier family in this crate exposed its own
//! inherent surface and its own `::new` signature, and anything generic
//! over "a barrier" (the conformance matrix, the torture harnesses, the
//! bench experiments) dispatched through a hand-written enum. This
//! module names the common contract once:
//!
//! * [`Waiter`] — the per-thread handle: `wait` / `try_wait` /
//!   `wait_timeout`, the fuzzy arrive–depart split where the kind
//!   supports it ([`Waiter::as_fuzzy`]), and, for kinds with graceful
//!   degradation, the rescue of a timed-out wait
//!   ([`Waiter::evict_stragglers`], bound to the episode the waiter is
//!   in) and the rejoin surface.
//! * [`Barrier`] — the shared object: `waiter` hands out boxed trait
//!   objects, and a supervisor's fault-management capabilities
//!   (`stragglers`, `evict`, `detach`, …) default to no-ops so kinds
//!   without them (dissemination has no eviction story at all)
//!   implement only what they mean.
//! * [`BarrierBuilder`] — one construction path over all ten kinds,
//!   replacing the scattered `CentralBarrier::new` /
//!   `TreeBarrier::combining` / `AdaptiveBarrier::new(p, policy)`
//!   signatures, with optional supervisor configuration and a
//!   `combar-trace` sink.
//!
//! The conformance matrix's [`AnyBarrier`]/[`AnyWaiter`] are thin
//! newtypes over `Box<dyn Barrier>` / `Box<dyn Waiter>`, so the full
//! contract suite runs through the trait-object path — any drift
//! between a kind's inherent API and its trait impl breaks the matrix.
//!
//! Direct constructors remain available for tests that poke
//! kind-specific behaviour, but new generic code should take
//! `&dyn Barrier` (or `impl Barrier`) and build through the builder.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use combar_trace as trace;

use crate::adaptive::{AdaptiveBarrier, DegreePolicy};
use crate::asyncb::{AsyncBarrier, AsyncWaiter};
use crate::blocking::BlockingBarrier;
use crate::central::CentralBarrier;
use crate::conformance::BarrierKind;
use crate::counter::{Climb, CounterBarrier, CounterWaiter, Notify};
use crate::dissemination::{DisseminationBarrier, DisseminationWaiter};
use crate::dynamic::DynamicBarrier;
use crate::error::BarrierError;
use crate::fuzzy::FuzzyWaiter;
use crate::heal::{SelfHealing, Supervisor, SupervisorConfig};
use crate::tournament::TournamentBarrier;
use crate::tree::TreeBarrier;

/// The per-thread handle contract every barrier kind implements.
///
/// A waiter is single-owner mutable state bound to one participant id;
/// it may be created on any thread but must then be used from one
/// thread at a time (it is `Send`, not `Sync`).
pub trait Waiter: fmt::Debug + Send {
    /// This participant's id.
    fn tid(&self) -> u32;

    /// Unbounded fallible full barrier: returns poisoning/eviction as
    /// an error instead of panicking. Reads no clock, so schedules stay
    /// deterministic under the `combar-check` model checker.
    fn try_wait(&mut self) -> Result<(), BarrierError>;

    /// One full barrier episode bounded by `timeout`. On
    /// [`BarrierError::Timeout`] the episode stays in flight: call a
    /// wait method again to resume it rather than re-arrive.
    fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError>;

    /// One full barrier episode.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is poisoned or this participant evicted.
    fn wait(&mut self) {
        if let Err(e) = self.try_wait() {
            panic!("barrier wait failed: {e}");
        }
    }

    /// The fuzzy arrive/depart view, for kinds with a separable
    /// signal/enforce split. `None` (the default) for kinds without
    /// one (dissemination interleaves both phases).
    fn as_fuzzy(&mut self) -> Option<&mut dyn FuzzyWaiter> {
        None
    }

    /// The rescue after a timed-out wait: evicts every participant
    /// still missing from the episode this waiter has a pending arrival
    /// for, so the survivors release, and returns the evicted ids.
    /// Bound to that episode: once it has released (or when no arrival
    /// is pending) nothing is evicted, so a rescue that runs late never
    /// mistakes a thread that is merely late for the *next* episode —
    /// the caller included — for a dead one. Empty by default, for
    /// kinds without eviction.
    fn evict_stragglers(&mut self) -> Vec<u32> {
        Vec::new()
    }

    /// Re-admission after eviction: blocks until resolved. `Ok(false)`
    /// if this participant was never evicted — also the default for
    /// kinds without a rejoin protocol.
    fn rejoin(&mut self) -> Result<bool, BarrierError> {
        Ok(false)
    }

    /// Bounded [`Self::rejoin`]. The default ignores the bound and
    /// delegates, which is correct for kinds whose rejoin cannot block
    /// (or is unsupported).
    fn rejoin_within(&mut self, timeout: Duration) -> Result<bool, BarrierError> {
        let _ = timeout;
        self.rejoin()
    }
}

/// The shared-object contract every barrier kind implements.
///
/// Capability methods default to "not supported" no-ops so generic
/// callers can drive the full fault-management protocol against any
/// kind and simply observe `false`/empty where a kind has no such
/// protocol.
pub trait Barrier: fmt::Debug + Send + Sync {
    /// Number of participating threads the barrier was built for.
    fn threads(&self) -> u32;

    /// Creates the per-thread handle for participant `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    fn waiter<'a>(&'a self, tid: u32) -> Box<dyn Waiter + 'a>;

    /// Whether a participant died mid-episode, wedging the barrier.
    fn is_poisoned(&self) -> bool;

    /// Participants that have not arrived for the in-flight episode.
    /// Empty for kinds without arrival tracking.
    fn stragglers(&self) -> Vec<u32> {
        Vec::new()
    }

    /// Evicts participant `tid` if it has not arrived for whatever
    /// episode is in flight — a supervisor's call; a participant
    /// rescuing its own timed-out wait uses
    /// [`Waiter::evict_stragglers`]. `false` (refused) by default.
    fn evict(&self, tid: u32) -> bool {
        let _ = tid;
        false
    }

    /// Declares `tid` dead and schedules its removal from the live
    /// shape at the next episode boundary. `false` (refused) by
    /// default.
    fn detach(&self, tid: u32) -> bool {
        let _ = tid;
        false
    }

    /// Number of participants the live shape currently counts.
    fn live_count(&self) -> u32 {
        self.threads()
    }

    /// The *structural* critical depth: the longest chain of
    /// synchronization operations any participant executes per episode
    /// under the current shape. `None` when the kind has no meaningful
    /// static estimate. (The measured counterpart comes from
    /// `combar-trace` critical-path extraction.)
    fn critical_depth(&self) -> Option<u32> {
        None
    }

    /// The async capability: `Some` when this barrier's participants
    /// can be *logical* (parked wakers driven by an executor) rather
    /// than OS threads. Callers that hold one use
    /// [`AsyncBarrier::waiter_for`] / [`crate::asyncb::AsyncWaiter::poll_wait`]
    /// to multiplex many participants per thread; everyone else gets
    /// `None` and stays on the blocking surface.
    fn as_async(&self) -> Option<&AsyncBarrier> {
        None
    }
}

macro_rules! forward_wait {
    () => {
        fn tid(&self) -> u32 {
            Self::tid(self)
        }
        fn try_wait(&mut self) -> Result<(), BarrierError> {
            Self::try_wait(self)
        }
        fn wait_timeout(&mut self, timeout: Duration) -> Result<(), BarrierError> {
            Self::wait_timeout(self, timeout)
        }
        fn wait(&mut self) {
            Self::wait(self)
        }
    };
}

impl<K: Climb, N: Notify> Waiter for CounterWaiter<'_, K, N> {
    forward_wait!();
    fn as_fuzzy(&mut self) -> Option<&mut dyn FuzzyWaiter> {
        Some(self)
    }
    fn evict_stragglers(&mut self) -> Vec<u32> {
        Self::evict_stragglers(self)
    }
    fn rejoin(&mut self) -> Result<bool, BarrierError> {
        Self::rejoin(self)
    }
    fn rejoin_within(&mut self, timeout: Duration) -> Result<bool, BarrierError> {
        Self::rejoin_within(self, timeout)
    }
}

impl Waiter for DisseminationWaiter<'_> {
    forward_wait!();
}

impl<K: Climb, N: Notify> Barrier for CounterBarrier<K, N> {
    fn threads(&self) -> u32 {
        Self::threads(self)
    }
    fn waiter<'a>(&'a self, tid: u32) -> Box<dyn Waiter + 'a> {
        Box::new(self.waiter_for(tid))
    }
    fn is_poisoned(&self) -> bool {
        Self::is_poisoned(self)
    }
    fn stragglers(&self) -> Vec<u32> {
        Self::stragglers(self)
    }
    fn evict(&self, tid: u32) -> bool {
        Self::evict(self, tid)
    }
    fn detach(&self, tid: u32) -> bool {
        Self::detach(self, tid)
    }
    fn live_count(&self) -> u32 {
        Self::live_count(self)
    }
    fn critical_depth(&self) -> Option<u32> {
        Some(Self::critical_depth(self))
    }
}

impl Barrier for DisseminationBarrier {
    fn threads(&self) -> u32 {
        Self::threads(self)
    }
    fn waiter<'a>(&'a self, tid: u32) -> Box<dyn Waiter + 'a> {
        Box::new(self.waiter(tid))
    }
    fn is_poisoned(&self) -> bool {
        Self::is_poisoned(self)
    }
    fn critical_depth(&self) -> Option<u32> {
        Some(self.rounds()) // ⌈log₂ p⌉ rounds, arrival-order-blind
    }
}

impl Waiter for AsyncWaiter {
    forward_wait!();
    fn as_fuzzy(&mut self) -> Option<&mut dyn FuzzyWaiter> {
        Some(self)
    }
    fn rejoin(&mut self) -> Result<bool, BarrierError> {
        Self::rejoin(self)
    }
}

impl Barrier for AsyncBarrier {
    fn threads(&self) -> u32 {
        Self::threads(self)
    }
    fn waiter<'a>(&'a self, tid: u32) -> Box<dyn Waiter + 'a> {
        Box::new(self.waiter_for(tid))
    }
    fn is_poisoned(&self) -> bool {
        Self::is_poisoned(self)
    }
    fn live_count(&self) -> u32 {
        Self::live_count(self)
    }
    fn critical_depth(&self) -> Option<u32> {
        Some(2) // shard combine + root combine, regardless of p
    }
    fn as_async(&self) -> Option<&AsyncBarrier> {
        Some(self)
    }
}

/// One construction path over all ten barrier kinds.
///
/// The kind (with its shape parameters) picks the family; the optional
/// knobs configure the pieces that used to require calling each
/// family's own constructor:
///
/// ```
/// use combar_rt::barrier::BarrierBuilder;
/// use combar_rt::conformance::BarrierKind;
///
/// let b = BarrierBuilder::new(BarrierKind::Dynamic { degree: 2 }, 8).build();
/// let mut w = b.waiter(0);
/// # drop(w);
/// ```
///
/// For [`BarrierKind::Adaptive`], `policy` feeds `AdaptiveBarrier::new`;
/// the default is the conformance matrix's spread-threshold stand-in. A
/// supervisor config and a trace sink can be attached for any kind.
pub struct BarrierBuilder {
    kind: BarrierKind,
    participants: u32,
    policy: Option<DegreePolicy>,
    supervisor: Option<SupervisorConfig>,
    book: Option<Arc<trace::TraceBook>>,
}

impl fmt::Debug for BarrierBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BarrierBuilder")
            .field("kind", &self.kind)
            .field("participants", &self.participants)
            .finish_non_exhaustive()
    }
}

impl BarrierBuilder {
    /// Starts a builder for `participants` threads of the given kind.
    pub fn new(kind: BarrierKind, participants: u32) -> Self {
        Self {
            kind,
            participants,
            policy: None,
            supervisor: None,
            book: None,
        }
    }

    /// Degree policy for [`BarrierKind::Adaptive`]. Defaults to the
    /// spread-threshold stand-in used by the conformance matrix.
    pub fn policy(mut self, policy: DegreePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attaches a failure-detection supervisor with this configuration;
    /// [`AnyBarrier::supervisor`] exposes it after `build`.
    pub fn supervise(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = Some(cfg);
        self
    }

    /// Attaches a `combar-trace` sink. The builder does not install
    /// thread-local writers (attachment is inherently per-thread);
    /// participants call [`AnyBarrier::attach`] on their own thread,
    /// and the harness entry points do so automatically.
    pub fn trace(mut self, book: Arc<trace::TraceBook>) -> Self {
        self.book = Some(book);
        self
    }

    /// Builds the barrier behind the unified [`Barrier`] trait.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0` (or the kind's own shape
    /// constraints are violated, e.g. a tree degree below 2).
    pub fn build(self) -> AnyBarrier {
        let p = self.participants;
        let inner: Box<dyn Barrier> = match self.kind {
            BarrierKind::Central => Box::new(CentralBarrier::new(p)),
            BarrierKind::Blocking => Box::new(BlockingBarrier::new(p)),
            BarrierKind::CombiningTree { degree } => Box::new(TreeBarrier::combining(p, degree)),
            BarrierKind::McsTree { degree } => Box::new(TreeBarrier::mcs(p, degree)),
            BarrierKind::Dissemination => Box::new(DisseminationBarrier::new(p)),
            BarrierKind::Tournament => Box::new(TournamentBarrier::new(p)),
            BarrierKind::Dynamic { degree } => Box::new(DynamicBarrier::mcs(p, degree)),
            BarrierKind::Adaptive => {
                let policy = self.policy.unwrap_or_else(|| {
                    // Spread-threshold stand-in: prefer shallow trees
                    // while arrivals are tight, deep ones once they
                    // spread out.
                    Box::new(|sigma_us, _p| if sigma_us > 25.0 { 2 } else { 4 })
                });
                Box::new(AdaptiveBarrier::new(p, policy))
            }
            BarrierKind::Async { shards } => Box::new(AsyncBarrier::new(p, shards)),
        };
        let supervisor = self.supervisor.map(|cfg| Supervisor::with_config(p, cfg));
        AnyBarrier {
            inner,
            book: self.book,
            supervisor,
        }
    }
}

/// A barrier of any [`BarrierKind`]: a thin newtype over
/// `Box<dyn Barrier>`, optionally carrying the trace sink and
/// supervisor it was built with.
pub struct AnyBarrier {
    inner: Box<dyn Barrier>,
    book: Option<Arc<trace::TraceBook>>,
    supervisor: Option<Supervisor>,
}

impl fmt::Debug for AnyBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnyBarrier")
            .field("inner", &self.inner)
            .field("traced", &self.book.is_some())
            .field("supervised", &self.supervisor.is_some())
            .finish()
    }
}

impl AnyBarrier {
    /// Creates the per-thread handle for participant `tid`.
    pub fn waiter(&self, tid: u32) -> AnyWaiter<'_> {
        AnyWaiter(self.inner.waiter(tid))
    }

    /// The trait object itself, for callers generic over
    /// `&dyn Barrier`.
    pub fn as_dyn(&self) -> &dyn Barrier {
        &*self.inner
    }

    /// The trace sink the builder attached, if any.
    pub fn trace_book(&self) -> Option<&Arc<trace::TraceBook>> {
        self.book.as_ref()
    }

    /// Attaches the builder's trace sink to the *calling* thread,
    /// tagging its events with writer id `writer` (conventionally the
    /// tid). `None` when the barrier was built without a sink. Events
    /// flush when the returned guard drops — on this same thread.
    pub fn attach(&self, writer: u32) -> Option<trace::SinkGuard> {
        self.book.as_ref().map(|b| b.attach(writer))
    }

    /// The failure-detection supervisor the builder configured, if any.
    /// Drive it with [`Supervisor::beat`] from participants and
    /// [`Supervisor::poll`] (over `self`, which implements
    /// [`SelfHealing`]) from a monitor thread.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }
}

impl std::ops::Deref for AnyBarrier {
    type Target = dyn Barrier;
    fn deref(&self) -> &Self::Target {
        &*self.inner
    }
}

impl SelfHealing for AnyBarrier {
    fn threads(&self) -> u32 {
        self.inner.threads()
    }
    fn stragglers(&self) -> Vec<u32> {
        self.inner.stragglers()
    }
    fn fail(&self, tid: u32) -> bool {
        // Prefer the boundary-applied removal; fall back to plain
        // eviction for kinds that only degrade (no reconfiguration).
        self.inner.detach(tid) || self.inner.evict(tid)
    }
    fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// A waiter of any kind: a thin newtype over `Box<dyn Waiter>`. It
/// derefs to the trait object, so the [`Waiter`] methods resolve on it
/// without importing the trait.
#[derive(Debug)]
pub struct AnyWaiter<'b>(Box<dyn Waiter + 'b>);

impl<'b> std::ops::Deref for AnyWaiter<'b> {
    type Target = dyn Waiter + 'b;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::ops::DerefMut for AnyWaiter<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind builds through the builder, steps through the trait
    /// object, and advertises capabilities consistently.
    #[test]
    fn builder_covers_every_kind() {
        for kind in BarrierKind::all() {
            let b = BarrierBuilder::new(kind, 2).build();
            assert_eq!(b.threads(), 2, "{}", kind.label());
            assert!(!b.is_poisoned(), "{}", kind.label());
            assert!(b.critical_depth().is_some(), "{}", kind.label());
            std::thread::scope(|s| {
                for tid in 0..2 {
                    let b = &b;
                    s.spawn(move || {
                        let mut w = b.waiter(tid);
                        assert_eq!(w.tid(), tid);
                        for _ in 0..10 {
                            w.try_wait().unwrap();
                        }
                    });
                }
            });
        }
    }

    /// The fuzzy capability surfaces identically through the trait and
    /// the kind's own advertisement.
    #[test]
    fn fuzzy_capability_matches_kind() {
        for kind in BarrierKind::all() {
            let b = BarrierBuilder::new(kind, 1).build();
            let mut w = b.waiter(0);
            assert_eq!(
                w.as_fuzzy().is_some(),
                kind.supports_fuzzy(),
                "{}",
                kind.label()
            );
        }
    }

    /// A builder-attached trace sink records events for any kind.
    #[test]
    fn trace_sink_records_through_builder() {
        let book = trace::TraceBook::new();
        let b = BarrierBuilder::new(BarrierKind::Central, 1)
            .trace(Arc::clone(&book))
            .build();
        {
            let _g = b.attach(0).expect("sink was attached");
            let mut w = b.waiter(0);
            for _ in 0..3 {
                w.try_wait().unwrap();
            }
        }
        let events = book.drain();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == trace::Kind::Release)
                .count(),
            3
        );
    }

    /// The supervisor configured at build time declares a straggler
    /// through the `SelfHealing` impl on `AnyBarrier`, on a spinning and
    /// a sleeping kind.
    #[test]
    fn supervisor_heals_through_the_trait_object() {
        for kind in [
            BarrierKind::CombiningTree { degree: 2 },
            BarrierKind::Blocking,
        ] {
            let label = kind.label();
            let cfg = SupervisorConfig {
                min_grace: Duration::from_millis(2),
                ..SupervisorConfig::default()
            };
            let b = BarrierBuilder::new(kind, 2).supervise(cfg).build();
            let sup = b.supervisor().expect("configured");
            let mut w0 = b.waiter(0);
            assert_eq!(
                w0.wait_timeout(Duration::from_millis(5)),
                Err(BarrierError::Timeout),
                "{label}"
            );
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let declared = sup.poll(&b);
                if declared == vec![1] {
                    break;
                }
                assert!(
                    declared.is_empty(),
                    "{label}: unexpected declarations: {declared:?}"
                );
                assert!(
                    std::time::Instant::now() < deadline,
                    "{label}: straggler never declared"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // The declared detach folds into the live shape at an episode
            // boundary; cross until the shape reflects it.
            loop {
                w0.wait_timeout(Duration::from_secs(5)).unwrap();
                if b.live_count() == 1 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "{label}: detach never applied"
                );
            }
        }
    }
}
