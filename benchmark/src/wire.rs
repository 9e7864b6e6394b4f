//! A `Transport` wrapper that counts what crosses it and times how long
//! the client sits in `recv_timeout`: the `net.transport` layer seen
//! from outside.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use combar_net::{NetError, Transport};

use crate::stamps::now_ns;

/// Shared by every connection of a run. One driver thread touches it,
/// so the atomics are never contended; they exist because a
/// `Transport` must be `Send`.
#[derive(Debug, Default)]
pub struct WireStats {
    pub frames_out: AtomicU64,
    pub bytes_out: AtomicU64,
    pub frames_in: AtomicU64,
    pub bytes_in: AtomicU64,
    /// `recv_timeout` calls, and the time spent inside them.
    pub recvs: AtomicU64,
    pub recv_wait_ns: AtomicU64,
    /// While set, every `recv_timeout` interval is also kept, for the
    /// traced run's `wire_wait` spans.
    pub keep_waits: AtomicBool,
    pub waits: Mutex<Vec<(u64, u64)>>,
}

/// A snapshot of the counters; subtract two to get a block's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    pub frames_out: u64,
    pub bytes_out: u64,
    pub frames_in: u64,
    pub bytes_in: u64,
    pub recvs: u64,
    pub recv_wait_ns: u64,
}

impl WireStats {
    pub fn counts(&self) -> WireCounts {
        WireCounts {
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            recv_wait_ns: self.recv_wait_ns.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for WireCounts {
    type Output = WireCounts;
    fn sub(self, earlier: WireCounts) -> WireCounts {
        WireCounts {
            frames_out: self.frames_out - earlier.frames_out,
            bytes_out: self.bytes_out - earlier.bytes_out,
            frames_in: self.frames_in - earlier.frames_in,
            bytes_in: self.bytes_in - earlier.bytes_in,
            recvs: self.recvs - earlier.recvs,
            recv_wait_ns: self.recv_wait_ns - earlier.recv_wait_ns,
        }
    }
}

pub struct Counted<T> {
    inner: T,
    stats: Arc<WireStats>,
}

impl<T: Transport> Counted<T> {
    pub fn new(inner: T, stats: Arc<WireStats>) -> Self {
        Counted { inner, stats }
    }
}

impl<T: Transport> Transport for Counted<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let t0 = now_ns();
        let got = self.inner.recv_timeout(timeout);
        let t1 = now_ns();
        self.stats.recvs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .recv_wait_ns
            .fetch_add(t1 - t0, Ordering::Relaxed);
        if self.stats.keep_waits.load(Ordering::Relaxed) {
            self.stats.waits.lock().unwrap().push((t0, t1));
        }
        if let Ok(frame) = &got {
            self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_in
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        got
    }

    fn flush_stale(&mut self) {
        self.inner.flush_stale();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_net::loopback_pair;

    /// Frames in = frames out on a bare loopback pair, byte for byte,
    /// and a timed-out receive counts as a call but not as a frame.
    #[test]
    fn frames_in_equal_frames_out_on_a_loopback_pair() {
        let (a, b) = loopback_pair();
        let (sa, sb) = (
            Arc::new(WireStats::default()),
            Arc::new(WireStats::default()),
        );
        let mut a = Counted::new(a, Arc::clone(&sa));
        let mut b = Counted::new(b, Arc::clone(&sb));
        let frames: [&[u8]; 3] = [b"arrive", b"", b"release-frame"];
        for f in frames {
            a.send(f).unwrap();
        }
        for f in frames {
            assert_eq!(b.recv_timeout(Duration::from_millis(100)).unwrap(), f);
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(1)),
            Err(NetError::Timeout)
        );
        let (out, inn) = (sa.counts(), sb.counts());
        assert_eq!(out.frames_out, 3);
        assert_eq!(inn.frames_in, out.frames_out);
        assert_eq!(inn.bytes_in, out.bytes_out);
        assert_eq!(out.bytes_out, 19);
        assert_eq!(inn.recvs, 4);
        assert!(
            inn.recv_wait_ns >= 1_000_000,
            "the timed-out receive waited its 1 ms"
        );
        assert_eq!((out.frames_in, inn.frames_out), (0, 0));
    }

    #[test]
    fn wait_intervals_are_kept_only_on_request_and_counts_subtract() {
        let (a, b) = loopback_pair();
        let stats = Arc::new(WireStats::default());
        let mut a = Counted::new(a, Arc::new(WireStats::default()));
        let mut b = Counted::new(b, Arc::clone(&stats));
        a.send(b"x").unwrap();
        b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert!(stats.waits.lock().unwrap().is_empty());
        let before = stats.counts();
        stats.keep_waits.store(true, Ordering::Relaxed);
        a.send(b"yz").unwrap();
        b.recv_timeout(Duration::from_millis(100)).unwrap();
        let waits = stats.waits.lock().unwrap().clone();
        assert_eq!(waits.len(), 1);
        assert!(waits[0].1 >= waits[0].0);
        let delta = stats.counts() - before;
        assert_eq!((delta.frames_in, delta.bytes_in, delta.recvs), (1, 2, 1));
    }
}
