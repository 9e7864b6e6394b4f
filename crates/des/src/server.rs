//! FIFO server: the contention model for a lock-protected counter.
//!
//! The paper's simulator "accounted for the contention for updating the
//! counters": a counter guarded by a simple hardware lock serializes its
//! updaters. A [`FifoServer`] models exactly that — requests are served
//! one at a time, in arrival order, each occupying the server for its
//! service time. Because requests are presented in nondecreasing time
//! order, the server only needs to remember when it becomes free.

use crate::time::{Duration, SimTime};

/// Outcome of one service request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Service {
    /// When the request arrived (joined the queue).
    pub arrival: SimTime,
    /// When service began (arrival + queueing delay).
    pub start: SimTime,
    /// When service completed.
    pub finish: SimTime,
}

impl Service {
    /// Time spent waiting behind earlier requests.
    pub fn queueing_delay(&self) -> Duration {
        self.start - self.arrival
    }

    /// Total time from arrival to completion.
    pub fn sojourn(&self) -> Duration {
        self.finish - self.arrival
    }
}

/// A work-conserving FIFO single server.
#[derive(Debug, Clone)]
pub struct FifoServer {
    free_at: SimTime,
    last_arrival: SimTime,
    served: u64,
    total_wait: Duration,
    total_service: Duration,
}

impl Default for FifoServer {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoServer {
    /// Creates an idle server at time zero.
    pub fn new() -> Self {
        Self {
            free_at: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            served: 0,
            total_wait: Duration::ZERO,
            total_service: Duration::ZERO,
        }
    }

    /// Serves a request arriving at `arrival` needing `service` time.
    ///
    /// Requests must be submitted in nondecreasing arrival order (an
    /// event loop guarantees this when requests are issued at its
    /// current time).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `arrival` precedes an earlier request.
    pub fn serve(&mut self, arrival: SimTime, service: Duration) -> Service {
        debug_assert!(
            arrival >= self.last_arrival,
            "FIFO server requires nondecreasing arrivals: {} after {}",
            arrival,
            self.last_arrival
        );
        self.last_arrival = arrival;
        let start = arrival.max(self.free_at);
        let finish = start + service;
        self.free_at = finish;
        self.served += 1;
        self.total_wait += start - arrival;
        self.total_service += service;
        Service {
            arrival,
            start,
            finish,
        }
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Sum of queueing delays across all requests.
    pub fn total_wait(&self) -> Duration {
        self.total_wait
    }

    /// Sum of service times across all requests (busy time).
    pub fn total_service(&self) -> Duration {
        self.total_service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: f64 = 20.0; // the KSR1 counter update cost, µs

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = FifoServer::new();
        let svc = s.serve(SimTime::from_us(5.0), Duration::from_us(TC));
        assert_eq!(svc.start.as_us(), 5.0);
        assert_eq!(svc.finish.as_us(), 25.0);
        assert_eq!(svc.queueing_delay().as_us(), 0.0);
        assert_eq!(svc.sojourn().as_us(), TC);
    }

    #[test]
    fn simultaneous_arrivals_serialize() {
        let mut s = FifoServer::new();
        let t = SimTime::from_us(0.0);
        let d = Duration::from_us(TC);
        let a = s.serve(t, d);
        let b = s.serve(t, d);
        let c = s.serve(t, d);
        assert_eq!(a.finish.as_us(), 20.0);
        assert_eq!(b.start.as_us(), 20.0);
        assert_eq!(b.finish.as_us(), 40.0);
        assert_eq!(c.finish.as_us(), 60.0);
        assert_eq!(s.total_wait().as_us(), 0.0 + 20.0 + 40.0);
        assert_eq!(s.served(), 3);
    }

    #[test]
    fn spaced_arrivals_do_not_queue() {
        let mut s = FifoServer::new();
        let d = Duration::from_us(TC);
        for i in 0..5 {
            let svc = s.serve(SimTime::from_us(i as f64 * 100.0), d);
            assert_eq!(svc.queueing_delay().as_us(), 0.0);
        }
        assert_eq!(s.total_service().as_us(), 5.0 * TC);
    }

    #[test]
    fn partially_overlapping_arrivals_queue_partially() {
        let mut s = FifoServer::new();
        let d = Duration::from_us(TC);
        let _ = s.serve(SimTime::from_us(0.0), d); // busy 0–20
        let b = s.serve(SimTime::from_us(10.0), d); // waits 10
        assert_eq!(b.start.as_us(), 20.0);
        assert_eq!(b.queueing_delay().as_us(), 10.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_arrivals_panic_in_debug() {
        let mut s = FifoServer::new();
        s.serve(SimTime::from_us(10.0), Duration::from_us(1.0));
        s.serve(SimTime::from_us(5.0), Duration::from_us(1.0));
    }
}
