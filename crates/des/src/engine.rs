//! The event-driven simulation engine.
//!
//! A minimal but complete discrete-event core: a pending-event set
//! ordered by `(time, sequence)` — the sequence number makes simultaneous
//! events fire in scheduling order, so runs are fully deterministic — and
//! a user state threaded through every handler.
//!
//! Handlers are `FnOnce(&mut Engine<S>)` closures; they read the clock
//! with [`Engine::now`], mutate `engine.state`, and schedule further
//! events. This "closures over shared state" style is the conventional
//! Rust shape for sequential DES (no processes/coroutines needed for the
//! barrier models in this workspace, which are naturally event-oriented:
//! *processor requests counter*, *counter update completes*).
//!
//! The pending-event set itself sits behind the [`EventQueue`] trait:
//! [`Engine::new`] keeps the original binary heap, while
//! [`EngineConfig`] selects the hierarchical timing wheel for
//! million-participant episodes — same `(time, seq)` total order,
//! different constant factors.

pub use crate::queue::Cancellation;
use crate::queue::{Event, EventQueue, HeapQueue, Ledger, WheelQueue};
use crate::time::{Duration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// Type-erased event action.
pub type Action<S> = Box<dyn FnOnce(&mut Engine<S>)>;

/// Which pending-event structure an [`EngineConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary heap: O(log n), zero setup, the [`Engine::new`] default.
    Heap,
    /// Hierarchical timing wheel: O(1) near-horizon scheduling, built
    /// for p ≥ 2¹⁴ episodes.
    Wheel,
}

/// Builder for an [`Engine`] with an explicit queue choice and
/// capacity hints.
///
/// ```
/// use combar_des::{EngineConfig, QueueKind, SimTime};
///
/// let mut eng = EngineConfig::new()
///     .queue(QueueKind::Wheel)
///     .events_hint(1 << 20)
///     .build(0u64);
/// eng.schedule_at(SimTime::from_us(1.0), |e| e.state += 1);
/// eng.run();
/// assert_eq!(eng.state, 1);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    queue: QueueKind,
    wheel_resolution_us: f64,
    events_hint: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineConfig {
    /// The default configuration: heap queue, 1 µs wheel resolution
    /// (if later switched), no capacity hint.
    pub fn new() -> Self {
        Self {
            queue: QueueKind::Heap,
            wheel_resolution_us: WheelQueue::<()>::DEFAULT_RESOLUTION_US,
            events_hint: 0,
        }
    }

    /// Selects the pending-event structure.
    pub fn queue(mut self, kind: QueueKind) -> Self {
        self.queue = kind;
        self
    }

    /// Tick size for [`QueueKind::Wheel`], in microseconds (events in
    /// one tick still fire in exact `(time, seq)` order).
    pub fn wheel_resolution_us(mut self, us: f64) -> Self {
        self.wheel_resolution_us = us;
        self
    }

    /// Expected pending-event count, used to pre-size the structure.
    pub fn events_hint(mut self, events: usize) -> Self {
        self.events_hint = events;
        self
    }

    /// Builds an engine at time zero over `state`.
    pub fn build<S: 'static>(&self, state: S) -> Engine<S> {
        Engine::with_boxed_queue(state, self.build_queue())
    }

    /// Builds the configured pending-event structure on its own, typed
    /// over a plain payload — for event loops that pop `(time, seq, T)`
    /// themselves instead of running closures on an [`Engine`]. The
    /// caller numbers the events; the `(time, seq)` contract of
    /// [`EventQueue`] is unchanged.
    pub fn build_queue<T: 'static>(&self) -> Box<dyn EventQueue<T>> {
        match self.queue {
            QueueKind::Heap => Box::new(HeapQueue::with_capacity(self.events_hint)),
            QueueKind::Wheel => Box::new(WheelQueue::with_resolution(self.wheel_resolution_us)),
        }
    }
}

/// A discrete-event simulation engine over user state `S`.
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    queue: Box<dyn EventQueue<Action<S>>>,
    /// Count of queued-but-cancelled events still physically present;
    /// shared with every [`Cancellation`] this engine hands out.
    ledger: Ledger,
    events_executed: u64,
    /// The user state, freely accessible to event handlers.
    pub state: S,
}

impl<S> Engine<S> {
    /// Creates an engine at time zero with the given state, using the
    /// default binary-heap queue.
    pub fn new(state: S) -> Self
    where
        S: 'static,
    {
        Self::with_queue(state, HeapQueue::new())
    }

    /// Creates an engine at time zero over a caller-supplied
    /// pending-event structure (see [`EventQueue`] for the ordering
    /// contract an implementation must honor).
    pub fn with_queue<Q>(state: S, queue: Q) -> Self
    where
        S: 'static,
        Q: EventQueue<Action<S>> + 'static,
    {
        Self::with_boxed_queue(state, Box::new(queue))
    }

    fn with_boxed_queue(state: S, queue: Box<dyn EventQueue<Action<S>>>) -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            queue,
            ledger: Rc::new(Cell::new(0)),
            events_executed: 0,
            state,
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Number of **live** events still pending. Cancelled events leave
    /// this count the moment their token fires, even while their
    /// tombstones await physical reclamation in the queue.
    pub fn events_pending(&self) -> usize {
        self.queue.len() - self.ledger.get() as usize
    }

    /// Enqueues a prepared event, assigning its sequence number and
    /// opportunistically compacting when tombstones dominate.
    fn schedule_event(&mut self, at: SimTime, ev: Event<Action<S>>) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, at = {}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.schedule(at, seq, ev);
        // Compact once tombstones are both numerous and the majority:
        // keeps memory O(live) under 100k-cancellation churn without
        // ever paying O(n) on a mostly-live queue.
        let dead = self.ledger.get() as usize;
        if dead >= 64 && dead * 2 >= self.queue.len() {
            self.queue.compact();
            debug_assert_eq!(self.ledger.get(), 0, "compact reaps every tombstone");
        }
    }

    /// Schedules `action` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (causality).
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        self.schedule_event(at, Event::new(Box::new(action)));
    }

    /// Schedules `action` after a delay from the current time.
    pub fn schedule_in<F>(&mut self, delay: Duration, action: F)
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        self.schedule_at(self.now + delay, action);
    }

    /// Schedules a cancellable event; the returned [`Cancellation`]
    /// token suppresses the action if triggered before the event fires.
    /// The cancelled event immediately leaves [`Engine::events_pending`]
    /// and its queue slot is lazily reclaimed (eagerly if tombstones
    /// pile up).
    ///
    /// Typical use: timeouts that are usually disarmed — e.g. a watchdog
    /// on barrier completion in soak tests.
    pub fn schedule_cancellable<F>(&mut self, at: SimTime, action: F) -> Cancellation
    where
        F: FnOnce(&mut Engine<S>) + 'static,
    {
        let token = Cancellation::with_ledger(self.ledger.clone());
        let guard = token.clone();
        // The queue already skips tombstones; the guard is defense in
        // depth for queues that might not.
        let ev = Event::cancellable(
            Box::new(move |eng: &mut Engine<S>| {
                if !guard.is_cancelled() {
                    action(eng);
                }
            }) as Action<S>,
            &token,
        );
        self.schedule_event(at, ev);
        token
    }

    /// Schedules `action` to run every `period`, starting at
    /// `first`, until the returned token is cancelled. The action runs
    /// at most `max_firings` times as a runaway guard.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (the simulation would never advance).
    pub fn schedule_periodic<F>(
        &mut self,
        first: SimTime,
        period: Duration,
        max_firings: u64,
        action: F,
    ) -> Cancellation
    where
        F: FnMut(&mut Engine<S>) + 'static,
    {
        assert!(
            period.as_us() > 0.0,
            "periodic events need a positive period"
        );
        let token = Cancellation::with_ledger(self.ledger.clone());
        let guard = token.clone();
        fn tick<S, F: FnMut(&mut Engine<S>) + 'static>(
            eng: &mut Engine<S>,
            mut action: F,
            guard: Cancellation,
            period: Duration,
            remaining: u64,
        ) {
            if guard.is_cancelled() || remaining == 0 {
                return;
            }
            action(eng);
            let next_remaining = remaining - 1;
            if next_remaining > 0 && !guard.is_cancelled() {
                let at = eng.now + period;
                let token = guard.clone();
                let ev = Event::cancellable(
                    Box::new(move |e: &mut Engine<S>| {
                        tick(e, action, guard, period, next_remaining)
                    }) as Action<S>,
                    &token,
                );
                eng.schedule_event(at, ev);
            }
        }
        let ev = Event::cancellable(
            Box::new(move |e: &mut Engine<S>| tick(e, action, guard, period, max_firings))
                as Action<S>,
            &token,
        );
        self.schedule_event(first, ev);
        token
    }

    /// Time of the next live pending event, if any. Takes `&mut self`
    /// because answering may reap cancelled events off the queue's
    /// front.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Executes the single next event. Returns `false` when the pending
    /// set is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop_next() {
            None => false,
            Some((time, _seq, action)) => {
                debug_assert!(time >= self.now);
                self.now = time;
                self.events_executed += 1;
                action(self);
                true
            }
        }
    }

    /// Runs until the pending set is empty; returns the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the next event would be strictly later than `until`
    /// (events exactly at `until` are executed); returns the time of the
    /// last executed event.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        while let Some(t) = self.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.now
    }

    /// Consumes the engine and returns the user state.
    pub fn into_state(self) -> S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every engine test runs against both queue implementations —
    /// the `(time, seq)` contract must make them indistinguishable.
    fn engines<S: Clone + 'static>(state: S) -> Vec<(&'static str, Engine<S>)> {
        vec![
            ("heap", Engine::new(state.clone())),
            (
                "wheel",
                EngineConfig::new().queue(QueueKind::Wheel).build(state),
            ),
        ]
    }

    #[test]
    fn events_fire_in_time_order() {
        for (name, mut eng) in engines(Vec::<u32>::new()) {
            eng.schedule_at(SimTime::from_us(3.0), |e| e.state.push(3));
            eng.schedule_at(SimTime::from_us(1.0), |e| e.state.push(1));
            eng.schedule_at(SimTime::from_us(2.0), |e| e.state.push(2));
            eng.run();
            assert_eq!(eng.state, vec![1, 2, 3], "{name}");
            assert_eq!(eng.events_executed(), 3, "{name}");
        }
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        for (name, mut eng) in engines(Vec::<u32>::new()) {
            for i in 0..10 {
                eng.schedule_at(SimTime::from_us(5.0), move |e| e.state.push(i));
            }
            eng.run();
            assert_eq!(eng.state, (0..10).collect::<Vec<_>>(), "{name}");
        }
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        for (name, mut eng) in engines(0u32) {
            fn tick(e: &mut Engine<u32>) {
                e.state += 1;
                if e.state < 5 {
                    e.schedule_in(Duration::from_us(1.0), tick);
                }
            }
            eng.schedule_at(SimTime::ZERO, tick);
            let end = eng.run();
            assert_eq!(eng.state, 5, "{name}");
            assert_eq!(end.as_us(), 4.0, "{name}");
        }
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        for (name, mut eng) in engines(Vec::<f64>::new()) {
            for i in 1..=10 {
                eng.schedule_at(SimTime::from_us(i as f64), move |e| {
                    let t = e.now().as_us();
                    e.state.push(t);
                });
            }
            eng.run_until(SimTime::from_us(5.0));
            assert_eq!(eng.state, vec![1.0, 2.0, 3.0, 4.0, 5.0], "{name}");
            assert_eq!(eng.events_pending(), 5, "{name}");
            eng.run();
            assert_eq!(eng.state.len(), 10, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut eng = Engine::new(());
        eng.schedule_at(SimTime::from_us(10.0), |e| {
            e.schedule_at(SimTime::from_us(5.0), |_| {});
        });
        eng.run();
    }

    #[test]
    fn clock_is_monotone_across_run() {
        for (name, mut eng) in engines((SimTime::ZERO, true)) {
            for i in (0..100).rev() {
                eng.schedule_at(SimTime::from_us(i as f64 * 0.5), |e| {
                    let now = e.now();
                    let (last, ok) = &mut e.state;
                    if now < *last {
                        *ok = false;
                    }
                    *last = now;
                });
            }
            eng.run();
            assert!(eng.state.1, "{name}: clock went backwards");
        }
    }

    #[test]
    fn into_state_returns_final_state() {
        let mut eng = Engine::new(41);
        eng.schedule_at(SimTime::from_us(1.0), |e| e.state += 1);
        eng.run();
        assert_eq!(eng.into_state(), 42);
    }

    #[test]
    fn empty_engine_runs_to_zero() {
        for (name, mut eng) in engines(()) {
            assert_eq!(eng.run(), SimTime::ZERO, "{name}");
            assert!(!eng.step(), "{name}");
            assert_eq!(eng.peek_time(), None, "{name}");
        }
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        for (name, mut eng) in engines(0u32) {
            let keep = eng.schedule_cancellable(SimTime::from_us(1.0), |e| e.state += 1);
            let kill = eng.schedule_cancellable(SimTime::from_us(2.0), |e| e.state += 10);
            kill.cancel();
            assert!(kill.is_cancelled(), "{name}");
            assert!(!keep.is_cancelled(), "{name}");
            eng.run();
            assert_eq!(eng.state, 1, "{name}");
        }
    }

    #[test]
    fn cancellation_mid_run_works() {
        // the first event cancels the second
        for (name, mut eng) in engines((0u32, None::<Cancellation>)) {
            let token = eng.schedule_cancellable(SimTime::from_us(5.0), |e| e.state.0 += 100);
            eng.state.1 = Some(token);
            eng.schedule_at(SimTime::from_us(1.0), |e| {
                e.state.1.take().expect("token stored").cancel();
            });
            eng.run();
            assert_eq!(eng.state.0, 0, "{name}");
        }
    }

    #[test]
    fn periodic_events_fire_until_cancelled() {
        for (name, mut eng) in engines((0u32, None::<Cancellation>)) {
            let token =
                eng.schedule_periodic(SimTime::from_us(10.0), Duration::from_us(5.0), 1000, |e| {
                    e.state.0 += 1
                });
            eng.state.1 = Some(token);
            // cancel after the event at t = 30 has fired (events at 10, 15,
            // 20, 25, 30 → 5 firings)
            eng.schedule_at(SimTime::from_us(31.0), |e| {
                e.state.1.take().expect("token stored").cancel();
            });
            eng.run();
            assert_eq!(eng.state.0, 5, "{name}");
        }
    }

    #[test]
    fn periodic_events_respect_max_firings() {
        for (name, mut eng) in engines(0u32) {
            let _token =
                eng.schedule_periodic(SimTime::ZERO, Duration::from_us(1.0), 3, |e| e.state += 1);
            eng.run();
            assert_eq!(eng.state, 3, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn zero_period_rejected() {
        let mut eng = Engine::new(());
        let _ = eng.schedule_periodic(SimTime::ZERO, Duration::ZERO, 10, |_| {});
    }

    #[test]
    fn cancelled_events_leave_the_pending_count_immediately() {
        for (name, mut eng) in engines(()) {
            let mut tokens = Vec::new();
            for i in 0..100 {
                tokens.push(eng.schedule_cancellable(SimTime::from_us(1.0 + i as f64), |_| {}));
            }
            eng.schedule_at(SimTime::from_us(500.0), |_| {});
            assert_eq!(eng.events_pending(), 101, "{name}");
            for t in &tokens {
                t.cancel();
            }
            // Pending reflects the cancellations before any reaping.
            assert_eq!(eng.events_pending(), 1, "{name}");
            eng.run();
            assert_eq!(eng.events_executed(), 1, "{name}: only the live event ran");
            assert_eq!(eng.events_pending(), 0, "{name}");
        }
    }

    #[test]
    fn cancellation_churn_keeps_memory_bounded() {
        // The regression test from the lazy-cancel accounting fix:
        // schedule/cancel 100k periodic events; neither queue may
        // accumulate tombstones (compaction triggers on majority-dead)
        // nor miscount events_pending.
        for (name, mut eng) in engines(()) {
            for i in 0..100_000u64 {
                let t = eng.schedule_periodic(
                    SimTime::from_us(1e6 + i as f64),
                    Duration::from_us(5.0),
                    10,
                    |_| {},
                );
                t.cancel();
                // Physical size stays O(live): tombstones never
                // exceed the compaction threshold by more than one
                // scheduling step.
                assert!(
                    eng.queue.len() <= 130,
                    "{name}: {} tombstones accumulated at i = {i}",
                    eng.queue.len()
                );
            }
            assert_eq!(eng.events_pending(), 0, "{name}");
            eng.run();
            assert_eq!(eng.events_executed(), 0, "{name}");
        }
    }

    #[test]
    fn wheel_engine_matches_heap_engine_event_for_event() {
        // A miniature end-to-end differential: a self-rescheduling
        // cascade with cancellations must produce identical histories.
        fn drive(mut eng: Engine<Vec<(u64, f64)>>) -> (Vec<(u64, f64)>, u64) {
            for i in 0..50u64 {
                let at = SimTime::from_us((i * 7 % 13) as f64 + 0.1 * i as f64);
                eng.schedule_at(at, move |e| {
                    let now = e.now();
                    e.state.push((i, now.as_us()));
                    if i % 3 == 0 {
                        e.schedule_in(Duration::from_us(2.5), move |e2| {
                            let n2 = e2.now().as_us();
                            e2.state.push((1000 + i, n2));
                        });
                    }
                });
                if i % 5 == 0 {
                    let tok = eng.schedule_cancellable(at + Duration::from_us(1.0), move |e| {
                        e.state.push((2000 + i, e.now().as_us()));
                    });
                    if i % 10 == 0 {
                        tok.cancel();
                    }
                }
            }
            eng.run();
            (eng.state.clone(), eng.events_executed())
        }
        let heap = drive(Engine::new(Vec::new()));
        let wheel = drive(
            EngineConfig::new()
                .queue(QueueKind::Wheel)
                .build(Vec::new()),
        );
        assert_eq!(heap, wheel);
    }
}
