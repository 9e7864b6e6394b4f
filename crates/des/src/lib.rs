//! Discrete-event simulation building blocks for the `combar` barrier
//! study.
//!
//! The paper obtains its optimal-degree tables with "a conventional
//! event driven simulator" in which "the contention for updating the
//! counters was accounted for". `combar-sim` computes that simulator's
//! episodes in one bottom-up pass per tree; this crate holds the parts
//! it and the experiments share, built from scratch:
//!
//! * [`SimTime`] / [`Duration`] — totally ordered `f64` microseconds
//!   (the study's natural unit; `t_c = 20 µs` on the KSR1);
//! * [`FifoServer`] — the contention model for a lock-protected counter
//!   (serve one update of `t_c` at a time, FIFO);
//! * [`EventQueue`] — a `(time, seq)`-ordered pending-event set, as a
//!   binary [`HeapQueue`] or a timing-wheel [`WheelQueue`] over the
//!   [`TickWheel`] the async runtime's timers also use;
//! * [`trace`] — bounded tracing for debugging barrier episodes;
//! * [`fault`] — episode-indexed fault timelines (stalls, deaths) so
//!   simulated degradation can mirror the runtime chaos harness.
//!
//! # Example: three processors hitting one counter
//!
//! ```
//! use combar_des::{FifoServer, SimTime, Duration};
//!
//! let mut counter = FifoServer::new();
//! let mut releases = vec![];
//! for arrival in [0.0, 0.0, 5.0] {
//!     let svc = counter.serve(SimTime::from_us(arrival), Duration::from_us(20.0));
//!     releases.push(svc.finish.as_us());
//! }
//! assert_eq!(releases, vec![20.0, 40.0, 60.0]); // serialized
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod queue;
pub mod server;
pub mod time;
pub mod trace;
pub mod wheel;

pub use fault::{FaultSpec, FaultTimeline, SimFault};
pub use queue::{Cancellation, Event, EventQueue, HeapQueue, WheelQueue};
pub use server::{FifoServer, Service};
pub use time::{Duration, SimTime};
pub use trace::{Trace, TraceEvent, TraceKind};
pub use wheel::TickWheel;

#[cfg(test)]
mod integration {
    use super::*;

    /// A miniature flat barrier: p processors update one counter; the
    /// last completion is the release. Checks the closed-form answer
    /// release = max(arrival) bounded below by serialized service.
    #[test]
    fn flat_barrier_release_time_matches_closed_form() {
        let tc = Duration::from_us(20.0);
        let arrivals = [0.0f64, 3.0, 3.0, 10.0, 100.0];
        let mut counter = FifoServer::new();
        let mut release = SimTime::ZERO;
        for &a in &arrivals {
            release = release.max(counter.serve(SimTime::from_us(a), tc).finish);
        }
        // Manual FIFO walk: 0→20, 3→40, 3→60, 10→80, 100→120.
        assert_eq!(release.as_us(), 120.0);
        assert_eq!(counter.served(), 5);
    }
}
