//! Shadowed atomics and scheduling hints.
//!
//! Drop-in replacements for `std::sync::atomic::{AtomicU32, AtomicU64}`
//! plus `yield_now`/`spin_hint`. Outside a checker session every
//! operation is the raw `std` op behind one thread-local flag test;
//! inside one, every operation is a schedule point recorded in the
//! happens-before trace, and yields block until a write the yielding
//! thread has not yet observed (so spin loops terminate and lost
//! wakeups surface as deadlocks).
//!
//! During a panic unwind the shadow ops degrade to raw atomics: drop
//! handlers (e.g. barrier poisoning) must never re-enter the
//! scheduler from a dying thread.

use crate::exec::{self, with_session, Access};
use std::sync::atomic::Ordering;

#[inline]
fn instrumented<T>(
    addr: usize,
    access: Access,
    f: impl FnOnce() -> T,
    as_u64: impl FnOnce(&T) -> u64,
) -> T {
    if !exec::tls_active() || std::thread::panicking() {
        return f();
    }
    with_session(|sess, me| sess.scheduled_op(me, addr, access, f, as_u64))
}

/// Whether the calling thread is executing inside a checked schedule.
pub fn is_checked() -> bool {
    exec::tls_active()
}

/// Scheduled operations (shadow ops and scheduler-aware yields) the
/// calling virtual thread has executed so far in this schedule; 0
/// outside a checked run. Differences between two readings size a
/// program segment, e.g. for the closed-form interleaving counts of
/// fork/join-with-barrier programs.
pub fn steps() -> u64 {
    if !exec::tls_active() {
        return 0;
    }
    with_session(|sess, me| sess.steps_of(me))
}

/// `std::thread::yield_now`, scheduler-aware.
pub fn yield_now() {
    if !exec::tls_active() || std::thread::panicking() {
        std::thread::yield_now();
        return;
    }
    with_session(|sess, me| sess.yield_op(me));
}

/// `std::hint::spin_loop`, scheduler-aware: under the checker a spin
/// hint has the same watched-location blocking meaning as
/// [`yield_now`].
pub fn spin_hint() {
    if !exec::tls_active() || std::thread::panicking() {
        std::hint::spin_loop();
        return;
    }
    with_session(|sess, me| sess.yield_op(me));
}

macro_rules! shadow_atomic {
    ($name:ident, $std:ty, $int:ty) => {
        /// Shadowed atomic integer; see the module docs.
        #[derive(Debug, Default)]
        pub struct $name {
            real: $std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub fn new(v: $int) -> Self {
                Self {
                    real: <$std>::new(v),
                }
            }

            #[inline]
            fn addr(&self) -> usize {
                &self.real as *const $std as usize
            }

            /// Atomic load.
            #[inline]
            pub fn load(&self, order: Ordering) -> $int {
                instrumented(
                    self.addr(),
                    Access::Load,
                    || self.real.load(order),
                    |v| *v as u64,
                )
            }

            /// Atomic store.
            #[inline]
            pub fn store(&self, val: $int, order: Ordering) {
                instrumented(
                    self.addr(),
                    Access::Store,
                    || self.real.store(val, order),
                    |_| val as u64,
                )
            }

            /// Atomic add; returns the previous value.
            #[inline]
            pub fn fetch_add(&self, val: $int, order: Ordering) -> $int {
                instrumented(
                    self.addr(),
                    Access::Rmw,
                    || self.real.fetch_add(val, order),
                    |v| v.wrapping_add(val) as u64,
                )
            }

            /// Atomic subtract; returns the previous value.
            #[inline]
            pub fn fetch_sub(&self, val: $int, order: Ordering) -> $int {
                instrumented(
                    self.addr(),
                    Access::Rmw,
                    || self.real.fetch_sub(val, order),
                    |v| v.wrapping_sub(val) as u64,
                )
            }

            /// Atomic maximum; returns the previous value.
            #[inline]
            pub fn fetch_max(&self, val: $int, order: Ordering) -> $int {
                instrumented(
                    self.addr(),
                    Access::Rmw,
                    || self.real.fetch_max(val, order),
                    |v| (*v).max(val) as u64,
                )
            }

            /// Atomic swap; returns the previous value.
            #[inline]
            pub fn swap(&self, val: $int, order: Ordering) -> $int {
                instrumented(
                    self.addr(),
                    Access::Rmw,
                    || self.real.swap(val, order),
                    |_| val as u64,
                )
            }

            /// Atomic compare-exchange. A failed exchange still counts
            /// as a schedule point (and, conservatively, as a write
            /// for spinner wakeup).
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                instrumented(
                    self.addr(),
                    Access::Rmw,
                    || self.real.compare_exchange(current, new, success, failure),
                    |r| match r {
                        Ok(_) => new as u64,
                        Err(v) => *v as u64,
                    },
                )
            }

            /// Consumes the atomic and returns its value.
            pub fn into_inner(self) -> $int {
                self.real.into_inner()
            }
        }
    };
}

shadow_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
shadow_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
