//! Busy-wait strategy.
//!
//! The paper's barriers busy-wait on shared flags. On a machine with
//! fewer cores than threads (including this repository's CI), pure
//! spinning livelocks the releaser off the CPU, so the waiter spins
//! briefly and then yields to the scheduler with exponential backoff —
//! the standard adaptive strategy.

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

    /// Wraps an optional instant (the shape the `wait_*_deadline`
    /// public APIs take).
    pub fn from_instant(at: Option<Instant>) -> Self {
        Self { at }
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

/// Exponential spin-then-yield backoff, optionally bounded by a
/// deadline.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
    deadline: Deadline,
}

impl Backoff {
    /// Fresh backoff state with no deadline.
    pub fn new() -> Self {
        Self {
            step: 0,
            deadline: Deadline::never(),
        }
    }

    /// Fresh backoff state that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            step: 0,
            deadline: Deadline::at(deadline),
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

    /// One wait quantum: a handful of `spin_loop` hints while the wait
    /// is young, escalating to `yield_now` once it is clear the awaited
    /// thread is not about to act.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step < 6 {
            for _ in 0..(1u32 << self.step) {
                crate::sync::spin_hint();
            }
            combar_trace::count_spins(1u64 << self.step);
            self.step += 1;
        } else {
            crate::sync::yield_now();
            combar_trace::count_yield();
        }
    }

    /// Resets to the spinning phase.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the backoff has escalated to yielding.
    pub fn is_yielding(&self) -> bool {
        self.step >= 6
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
        assert_eq!(Deadline::from_instant(None), Deadline::never());
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
