//! Busy-wait strategy.
//!
//! The paper's barriers busy-wait on shared flags. A waiter here looks
//! at its flag once per [`Backoff::snooze`]: six exponential snoozes of
//! 1, 2, 4 … 32 `spin_loop` hints, then a *linger* of one hint per
//! look. Pure spinning would livelock the releaser off the CPU on a
//! machine with fewer cores than threads (including this repository's
//! CI), so a lingering waiter yields once per 20 µs quantum, and once a
//! yield comes back late (another thread needed the core) it yields on
//! every snooze until the wait ends.

use crate::error::BarrierError;
use crate::sync::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A point in time a wait must not outlive, or `None` for an unbounded
/// wait.
///
/// Every timed loop in the runtime — the fallible epoch waits, the
/// torture-harness watchdog, the supervisor's heartbeat grace windows,
/// the rejoin backoff — previously hand-rolled the same
/// `start = Instant::now()` arithmetic; this is the one shared form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn never() -> Self {
        Self { at: None }
    }

    /// A deadline at a fixed instant.
    pub fn at(at: Instant) -> Self {
        Self { at: Some(at) }
    }

    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self {
            at: Instant::now().checked_add(timeout),
        }
    }

    /// The underlying instant, if bounded.
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// Whether the deadline has passed. A `never` deadline never
    /// expires.
    ///
    /// Reads the OS clock (only when bounded); where many logical
    /// participants share one driver thread, prefer
    /// [`Deadline::expired_at`] with a single `Instant::now()` sampled
    /// per poll batch.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|d| Instant::now() >= d)
    }

    /// [`Deadline::expired`] against a caller-supplied `now` — the
    /// clock-injected form. A deadline is a per-wait value, not a
    /// per-OS-thread one: an async driver polling thousands of parked
    /// waits samples the clock once and checks each wait's own deadline
    /// against it.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.at.is_some_and(|d| now >= d)
    }

    /// Time left before expiry; `None` for an unbounded deadline,
    /// `Some(ZERO)` once expired.
    ///
    /// Reads the OS clock (only when bounded); see
    /// [`Deadline::remaining_at`] for the clock-injected form.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// [`Deadline::remaining`] against a caller-supplied `now`.
    pub fn remaining_at(&self, now: Instant) -> Option<Duration> {
        self.at.map(|d| d.saturating_duration_since(now))
    }

    /// Restarts the window: `timeout` from now. Used by watchdog-style
    /// loops that re-arm on progress.
    pub fn rearm(&mut self, timeout: Duration) {
        *self = Self::after(timeout);
    }
}

/// Snoozes in the exponential phase: 1, 2, 4 … 32 `spin_loop` hints,
/// 63 in all.
const SPIN_STEPS: u32 = 6;
/// How long a lingering wait spins between two yields.
const QUANTUM: Duration = Duration::from_micros(20);
/// A yield that took longer than this came back late: another thread
/// needed the core.
const LATE_YIELD: Duration = Duration::from_micros(2);
/// Linger snoozes per clock read.
const LOOKS_PER_CLOCK: u32 = 16;

/// What one linger snooze does before its caller looks again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Look {
    /// One `spin_loop` hint.
    Spin,
    /// One `yield_now`.
    Yield,
}

/// Spin-then-linger backoff, optionally bounded by a deadline.
///
/// A wait looks once per [`Backoff::snooze`], in two phases and a
/// fallback:
///
/// * **Exponential.** The first six snoozes spin 1, 2, 4 … 32
///   `spin_loop` hints, 63 in all.
/// * **Linger.** Each later snooze is one hint. The clock is read once
///   every 16 snoozes, and one `yield_now` is taken per quantum (20 µs)
///   of lingering, so a spinner that shares its core with the thread it
///   waits for still hands the core over. A look after every hint sees
///   a release within one pause, where a look per yield sees it up to a
///   `sched_yield` (≈ 350 ns on a 2-vCPU Xeon) late.
/// * **Late-yield fallback.** A yield that took longer than 2 µs came
///   back late: another thread ran on the core, so the host is
///   oversubscribed. From then on every snooze of the wait yields,
///   until [`Backoff::reset`].
///
/// Inside a checker session the linger phase is plain `spin_hint`s:
/// there a hint and a yield are the same schedule point, and a replay
/// must read no wall clock.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
    deadline: Deadline,
    /// Linger snoozes taken since the exponential phase ended.
    lingers: u32,
    /// Start of the current quantum of lingering (the first clock read,
    /// then each yield).
    quantum_start: Option<Instant>,
    /// A yield came back late: every later snooze yields.
    late: bool,
}

impl Backoff {
    /// Fresh backoff state with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh backoff state that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Deadline::at(deadline),
            ..Self::default()
        }
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline.instant()
    }

    /// Whether the deadline (if any) has passed.
    pub fn expired(&self) -> bool {
        self.deadline.expired()
    }

    /// One wait quantum like [`Backoff::snooze`], then reports whether
    /// the deadline has passed. Always returns `false` when no deadline
    /// was set.
    #[inline]
    pub fn snooze_expired(&mut self) -> bool {
        self.snooze();
        self.expired()
    }

    /// One wait between two looks: `1 << step` `spin_loop` hints in the
    /// exponential phase, then one linger step (see the type docs).
    #[inline]
    pub fn snooze(&mut self) {
        if self.step < SPIN_STEPS {
            for _ in 0..(1u32 << self.step) {
                crate::sync::spin_hint();
            }
            combar_trace::count_spins(1u64 << self.step);
            self.step += 1;
        } else {
            self.linger();
        }
    }

    /// One snooze past the exponential phase. Cold and out of line, so
    /// the exponential phase that `snooze` inlines into every wait loop
    /// stays the code it was.
    #[cold]
    #[inline(never)]
    fn linger(&mut self) {
        // To the checker a hint and a yield are the same schedule
        // point, and a replay must read no wall clock.
        if crate::sync::is_checked() {
            crate::sync::spin_hint();
            return;
        }
        if self.late {
            crate::sync::yield_now();
            combar_trace::count_yield();
            return;
        }
        let due = self.lingers % LOOKS_PER_CLOCK == 0;
        self.lingers = self.lingers.wrapping_add(1);
        if due {
            let now = Instant::now();
            if self.linger_at(now) == Look::Yield {
                crate::sync::yield_now();
                combar_trace::count_yield();
                self.yielded(now.elapsed());
                return;
            }
        }
        crate::sync::spin_hint();
        combar_trace::count_spins(1);
    }

    /// The linger decision at a clock read taken at `now`: spin while
    /// the current quantum lasts, yield once it is over and start the
    /// next. The first read starts the first quantum.
    fn linger_at(&mut self, now: Instant) -> Look {
        match self.quantum_start {
            Some(start) if now.saturating_duration_since(start) < QUANTUM => Look::Spin,
            Some(_) => {
                self.quantum_start = Some(now);
                Look::Yield
            }
            None => {
                self.quantum_start = Some(now);
                Look::Spin
            }
        }
    }

    /// Notes that a linger yield took `took`; a late one switches the
    /// rest of the wait to the yield-every-snooze fallback.
    fn yielded(&mut self, took: Duration) {
        if took > LATE_YIELD {
            self.late = true;
        }
    }

    /// Resets to the start of the exponential phase, forgetting any
    /// lingering and the late-yield fallback.
    pub fn reset(&mut self) {
        *self = Self {
            deadline: self.deadline,
            ..Self::default()
        };
    }

    /// Whether the wait is past the exponential phase (lingering or
    /// yielding).
    pub fn is_yielding(&self) -> bool {
        self.step >= SPIN_STEPS
    }
}

/// Spins until `flag` (an epoch counter) reaches at least `target`
/// (wrap-around aware, Acquire ordering on the successful read), a
/// poison flag becomes set ([`BarrierError::Poisoned`]; any non-zero
/// value aborts the wait) or the optional deadline passes
/// ([`BarrierError::Timeout`]). The release check runs first, so a wait
/// whose target is already met never reports a timeout or poisoning.
#[inline]
pub fn wait_for_epoch_fallible(
    flag: &AtomicU32,
    target: u32,
    poison: &AtomicU32,
    deadline: Option<Instant>,
) -> Result<(), BarrierError> {
    let mut backoff = match deadline {
        Some(d) => Backoff::with_deadline(d),
        None => Backoff::new(),
    };
    loop {
        if let Some(outcome) = epoch_outcome(flag, target, poison) {
            return outcome;
        }
        if backoff.expired() {
            return Err(BarrierError::Timeout);
        }
        backoff.snooze();
    }
}

/// The check every epoch wait repeats: `Ok` once `flag` has reached
/// `target` (wrap-around aware, Acquire), [`BarrierError::Poisoned`]
/// once `poison` is set, `None` while neither holds.
#[inline]
pub(crate) fn epoch_outcome(
    flag: &AtomicU32,
    target: u32,
    poison: &AtomicU32,
) -> Option<Result<(), BarrierError>> {
    if flag.load(Ordering::Acquire).wrapping_sub(target) <= u32::MAX / 2 {
        return Some(Ok(()));
    }
    if poison.load(Ordering::Acquire) != 0 {
        return Some(Err(BarrierError::Poisoned));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backoff_escalates_to_yielding() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..6 {
            b.snooze();
        }
        assert!(b.is_yielding());
        b.reset();
        assert!(!b.is_yielding());
    }

    /// A backoff past its exponential phase, as six snoozes leave it.
    fn lingering() -> Backoff {
        Backoff {
            step: SPIN_STEPS,
            ..Backoff::new()
        }
    }

    /// The trace counters `snoozes` snoozes of `b` add.
    fn counted(b: &mut Backoff, snoozes: u32) -> combar_trace::Counters {
        let book = combar_trace::TraceBook::new();
        let sink = book.attach(0);
        for _ in 0..snoozes {
            b.snooze();
        }
        drop(sink);
        book.counters()
    }

    #[test]
    fn exponential_phase_is_63_hints_and_no_clock() {
        let mut b = Backoff::new();
        let c = counted(&mut b, SPIN_STEPS);
        assert_eq!((c.spins, c.yields), (63, 0));
        assert!(b.is_yielding());
        assert_eq!((b.lingers, b.quantum_start), (0, None));
    }

    #[test]
    fn lingering_yields_at_most_once_per_quantum() {
        let t0 = Instant::now();
        let us = |n: u64| t0 + Duration::from_micros(n);
        let mut b = lingering();
        // One read per µs: the first read starts the quantum, and a
        // yield closes each 20 µs of lingering and starts the next.
        let yields: Vec<u64> = (0..=100)
            .filter(|&n| b.linger_at(us(n)) == Look::Yield)
            .collect();
        assert_eq!(yields, [20, 40, 60, 80, 100]);
        // Sparse reads: three quanta between two reads still yield once.
        let mut b = lingering();
        let looks: Vec<Look> = [0, 70, 75, 89, 90]
            .into_iter()
            .map(|n| b.linger_at(us(n)))
            .collect();
        use Look::{Spin, Yield};
        assert_eq!(looks, [Spin, Yield, Spin, Spin, Yield]);
    }

    #[test]
    fn a_late_yield_makes_every_later_snooze_yield() {
        let mut b = lingering();
        b.snooze();
        assert_eq!(b.lingers, 1);
        assert!(
            b.quantum_start.is_some(),
            "the first linger reads the clock"
        );
        b.yielded(LATE_YIELD);
        assert!(!b.late, "a yield of exactly the threshold is on time");
        b.yielded(LATE_YIELD + Duration::from_nanos(1));
        assert!(b.late);
        let c = counted(&mut b, 40);
        assert_eq!((c.spins, c.yields), (0, 40));
        assert_eq!(b.lingers, 1, "the fallback reads no clock");
    }

    #[test]
    fn reset_restores_the_exponential_phase() {
        let deadline = Instant::now() + Duration::from_secs(3600);
        let mut b = Backoff::with_deadline(deadline);
        counted(&mut b, SPIN_STEPS + 3);
        b.yielded(Duration::from_millis(1));
        b.reset();
        assert!(!b.is_yielding());
        assert!(!b.late);
        assert_eq!((b.lingers, b.quantum_start), (0, None));
        assert_eq!(b.deadline(), Some(deadline));
        let c = counted(&mut b, SPIN_STEPS);
        assert_eq!((c.spins, c.yields), (63, 0));
    }

    #[test]
    fn wait_for_epoch_returns_when_flag_advances() {
        let flag = Arc::new(AtomicU32::new(0));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..50 {
                std::thread::yield_now();
            }
            f2.store(3, Ordering::Release);
        });
        assert_eq!(
            wait_for_epoch_fallible(&flag, 3, &AtomicU32::new(0), None),
            Ok(())
        );
        assert!(flag.load(Ordering::Relaxed) >= 3);
        h.join().unwrap();
    }

    #[test]
    fn fallible_wait_reports_timeout_and_poison() {
        use std::time::Duration;
        let flag = AtomicU32::new(0);
        let poison = AtomicU32::new(0);
        // Deadline already passed → timeout, promptly.
        let deadline = Instant::now();
        assert_eq!(
            wait_for_epoch_fallible(&flag, 1, &poison, Some(deadline)),
            Err(BarrierError::Timeout)
        );
        // Released target wins even with an expired deadline.
        flag.store(1, Ordering::Release);
        assert_eq!(
            wait_for_epoch_fallible(&flag, 1, &poison, Some(deadline)),
            Ok(())
        );
        // Poison wins over an unmet target.
        poison.store(1, Ordering::Release);
        assert_eq!(
            wait_for_epoch_fallible(&flag, 2, &poison, None),
            Err(BarrierError::Poisoned)
        );
        // …but a met target wins over poison.
        assert_eq!(wait_for_epoch_fallible(&flag, 1, &poison, None), Ok(()));
        // Short real deadline actually elapses.
        poison.store(0, Ordering::Release);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(5);
        assert_eq!(
            wait_for_epoch_fallible(&flag, 2, &poison, Some(deadline)),
            Err(BarrierError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn backoff_deadline_expiry() {
        let mut b = Backoff::new();
        assert!(b.deadline().is_none());
        assert!(!b.expired());
        assert!(!b.snooze_expired());
        let mut b = Backoff::with_deadline(Instant::now());
        assert!(b.snooze_expired());
    }

    #[test]
    fn deadline_expiry_and_rearm() {
        use std::time::Duration;
        let never = Deadline::never();
        assert!(!never.expired());
        assert_eq!(never.remaining(), None);
        let past = Deadline::at(Instant::now());
        assert!(past.expired());
        assert_eq!(past.remaining(), Some(Duration::ZERO));
        let mut d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
        d.rearm(Duration::ZERO);
        assert!(d.expired());
    }

    #[test]
    fn deadline_clock_injection_matches_sampled_now() {
        use std::time::Duration;
        let now = Instant::now();
        let d = Deadline::at(now + Duration::from_secs(5));
        assert!(!d.expired_at(now));
        assert!(d.expired_at(now + Duration::from_secs(5)));
        assert!(d.expired_at(now + Duration::from_secs(6)));
        assert_eq!(d.remaining_at(now), Some(Duration::from_secs(5)));
        assert_eq!(
            d.remaining_at(now + Duration::from_secs(7)),
            Some(Duration::ZERO)
        );
        let never = Deadline::never();
        assert!(!never.expired_at(now + Duration::from_secs(3600)));
        assert_eq!(never.remaining_at(now), None);
    }

    #[test]
    fn wait_for_epoch_handles_wraparound() {
        // target just past a wrapped counter: u32::MAX wraps to 0, 1 …
        let flag = AtomicU32::new(u32::MAX);
        let poison = AtomicU32::new(0);
        let expired = Some(Instant::now());
        // already-satisfied target (flag − target small) returns at once
        assert_eq!(
            wait_for_epoch_fallible(&flag, u32::MAX, &poison, expired),
            Ok(())
        );
        // one past the wrap is not yet reached
        assert_eq!(
            wait_for_epoch_fallible(&flag, 0, &poison, expired),
            Err(BarrierError::Timeout)
        );
        flag.store(2, Ordering::Release); // wrapped past target 0
        assert_eq!(wait_for_epoch_fallible(&flag, 0, &poison, expired), Ok(()));
        assert_eq!(wait_for_epoch_fallible(&flag, 2, &poison, expired), Ok(()));
    }
}
