//! Synchronization facade: the barrier modules' only door to atomics,
//! scheduler hints and sleeping.
//!
//! Every barrier in this crate performs its shared-memory traffic
//! through these names instead of `std::sync::atomic` directly. They
//! resolve to [`combar_check`]'s shadow types, which behave exactly
//! like the `std` types outside a checker session (one thread-local
//! flag test of overhead per operation) and become schedule points
//! with happens-before recording inside one. That is what lets
//! `tests/model_check.rs` exhaustively explore barrier interleavings
//! against the *production* protocol code rather than a model of it.
//! [`Sleeper`] does the same for a waiter that sleeps instead of
//! spinning.
//!
//! Building with `RUSTFLAGS="--cfg combar_sync_raw"` strips the
//! instrumentation entirely and compiles the facade straight to
//! `std::sync::atomic` / `std::thread::yield_now` /
//! `std::hint::spin_loop` (and [`Sleeper`] to a bare `Mutex` +
//! `Condvar`) for overhead-sensitive benchmarking; the barrier sources
//! are identical either way.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

#[cfg(not(combar_sync_raw))]
pub use combar_check::shadow::{spin_hint, yield_now, AtomicU32, AtomicU64};

#[cfg(not(combar_sync_raw))]
pub(crate) use combar_check::shadow::is_checked;

#[cfg(combar_sync_raw)]
pub use std::sync::atomic::{AtomicU32, AtomicU64};

/// `std::thread::yield_now` (raw build).
#[cfg(combar_sync_raw)]
#[inline]
pub fn yield_now() {
    std::thread::yield_now();
}

/// `std::hint::spin_loop` (raw build).
#[cfg(combar_sync_raw)]
#[inline]
pub fn spin_hint() {
    std::hint::spin_loop();
}

/// No checker session exists in the raw build.
#[cfg(combar_sync_raw)]
#[inline]
pub(crate) fn is_checked() -> bool {
    false
}

pub use std::sync::atomic::Ordering;

/// Where a waiter sleeps: [`Sleeper::sleep_until`] blocks until a
/// readiness check passes, [`Sleeper::wake_all`] makes every sleeper
/// run it again.
///
/// Outside a checker session it is a `Mutex` + `Condvar`: the check
/// runs under the lock and the wake takes the lock before notifying, so
/// a wake that lands between a failed check and the sleep is not lost.
/// Inside a session it is a watched-location wait on a shadow wake
/// word: a sleeper re-runs its check only after the word changes, so a
/// release that forgets to wake is a detected deadlock, not a spinner
/// that happens to see the epoch move.
#[derive(Debug, Default)]
pub struct Sleeper {
    word: AtomicU32,
    /// Guards no data, so a lock poisoned by a panicking holder is
    /// still good to take.
    lock: Mutex<()>,
    cond: Condvar,
    /// Threads inside the condvar wait, counted under the lock, so a
    /// test can wake a sleeper it knows is asleep.
    #[cfg(test)]
    pub(crate) sleeping: std::sync::atomic::AtomicU32,
}

impl Sleeper {
    /// Blocks until `ready` returns `Some`, and returns it, or returns
    /// `None` once `deadline` has passed. `ready` runs before every
    /// sleep, so a condition that already holds never sleeps or times
    /// out. Inside a checker session the deadline is only checked
    /// between wakes (checked fixtures wait unbounded).
    pub fn sleep_until<T>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        if is_checked() {
            return self.watch_until(deadline, ready);
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = ready() {
                return Some(v);
            }
            #[cfg(test)]
            self.sleeping.fetch_add(1, Ordering::SeqCst);
            guard = match deadline {
                None => self
                    .cond
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.checked_duration_since(Instant::now())?;
                    let woken = self.cond.wait_timeout(guard, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            #[cfg(test)]
            self.sleeping.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn watch_until<T>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let mut seen = self.word.load(Ordering::SeqCst);
        loop {
            if let Some(v) = ready() {
                return Some(v);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            // The first hint may also return on a write to what `ready`
            // read; only a changed wake word runs `ready` again.
            loop {
                spin_hint();
                let word = self.word.load(Ordering::SeqCst);
                if word != seen {
                    seen = word;
                    break;
                }
            }
        }
    }

    /// Wakes every sleeper. Call it after the store that makes their
    /// check pass.
    pub fn wake_all(&self) {
        if is_checked() {
            self.word.fetch_add(1, Ordering::SeqCst);
            return;
        }
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.cond.notify_all();
    }
}
