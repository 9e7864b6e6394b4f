//! The zero-dependency [`Transport`] trait and its two concrete
//! endpoints: an in-process loopback channel and a Unix-domain
//! datagram socket.
//!
//! A transport is the *client side* of one connection: datagram
//! semantics (whole frames, no partial reads), bounded blocking
//! receive, and no delivery guarantees beyond best effort — the
//! protocol layer (`proto`) is built to tolerate loss, duplication,
//! and reordering, and the [`FaultyTransport`](crate::FaultyTransport)
//! decorator injects exactly those faults for testing.
//!
//! * [`LoopbackTransport`] — an `mpsc` pair routed straight into the
//!   server's shard inboxes. Cheap enough to open thousands of
//!   connections inside one process; this is what the traffic
//!   generator and the benches use. Its receive is the spin-then-park
//!   hand-off described below.
//! * [`UdsTransport`] — `UnixDatagram` socketpairs (Unix only), one
//!   per direction so the send half can be nonblocking (a full kernel
//!   buffer is wire loss, never a blocked sender) while the recv half
//!   keeps a blocking read timeout; received frames are pumped through
//!   a per-connection reader thread on the server side. Real file
//!   descriptors, real copies, real syscalls — the "crossed a process
//!   boundary"-shaped configuration.
//!
//! # The loopback hand-off: spin, then park
//!
//! Both ends of a loopback connection — a client in
//! [`LoopbackTransport::recv_timeout`] and a shard thread waiting on its
//! inbox — wait through one function, `recv_handoff`. A parked `mpsc`
//! receiver costs its sender a futex wake and itself a scheduler
//! round trip. While both ends parked on every frame, a bare ping-pong
//! cost 43–57 µs on the 2-vCPU reference host, against 30 ns of codec
//! and 0.6 µs of journal append, which made two wake-ups *the* served
//! episode. With a hot endpoint looking before it sleeps, the same
//! ping-pong costs about 1 µs (the benchmark's traced
//! `net.transport.rtt_p50_ns`), and a clean-wire episode of 16 sessions
//! about 23 µs, whose largest parts are the driver's 16 sends, the
//! shard's release step and the driver's reads of the release (DESIGN.md
//! §13 has the table). The rule:
//!
//! * **When it spins.** Only when the endpoint is *hot*: its previous
//!   wait ended with a frame. Traffic predicts traffic — a client that
//!   just got a `Release` is about to be answered again, a shard that
//!   just handled a batch is about to get the next arrivals. A wait
//!   that ends in `Timeout` (or `Closed`) leaves the endpoint cold, and
//!   a cold endpoint parks at once, so an idle server, a silent session
//!   and a lossy wire's timed-out polls never spin at all.
//! * **How.** `try_recv` under [`combar_rt::spin::Backoff`], the
//!   repository's one spin policy: 63 `spin_loop` hints in six
//!   exponential steps, then one hint per look with one `yield_now` per
//!   20 µs, and a yield on every look once a yield comes back late, so
//!   on an oversubscribed host the spinner hands its core to the thread
//!   it is waiting for.
//! * **For how long.** At most `SPIN_BUDGET` (50 µs), then
//!   `recv_timeout` for what is left of the caller's timeout. The bound
//!   is the classic one — spin for as long as a park would cost — taken
//!   from that measured round trip: a frame that comes inside the
//!   budget is received without either wake-up, and one that does not
//!   costs at most twice what parking straight away would have. The
//!   spin phase counts against the caller's timeout and never extends
//!   it; no wait returns `Timeout` early.
//! * **A zero timeout** is exactly one `try_recv`: no spin, no park, no
//!   clock read. Neither does any wait whose first look finds a frame:
//!   the spin clock starts after that look.
//!
//! # Frames cross inside the channel slot
//!
//! A loopback channel carries a crate-private `Frame`, which holds a
//! protocol frame's bytes inline — every `Request` and `Response`
//! encodes to at most `proto::MAX_FRAME` bytes — and falls back to a
//! `Vec` only for longer frames. The shard encodes a `Release` once and
//! copies its bytes into each copy's slot;
//! [`LoopbackTransport::recv_timeout`] builds the `Vec` the
//! [`Transport`] trait returns on the receiving thread, which also
//! frees it. A frame handed over as a `Vec` is a heap block allocated
//! on the sending thread and freed on the receiving one, and the
//! release fan-out sent 16 of them per clean-wire episode: the shard's
//! release step read about 8 µs with them and about 6 µs inline, and
//! the driver's 16 reads about 5.9 µs and 3.4 µs, against a 7–9 ns
//! decode (DESIGN.md §13 has the table).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use combar_rt::spin::Backoff;

use crate::proto::MAX_FRAME;

/// Why a transport operation did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No frame arrived within the timeout.
    Timeout,
    /// The peer endpoint is gone; no further traffic is possible.
    Closed,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Timeout => write!(f, "transport receive timed out"),
            NetError::Closed => write!(f, "transport closed by peer"),
        }
    }
}

impl std::error::Error for NetError {}

/// One client-side connection endpoint with datagram semantics.
///
/// Implementations are message-oriented: `send` transmits one whole
/// frame (best effort — a lossy decorator may drop it) and
/// `recv_timeout` delivers one whole frame or times out. The protocol
/// above never assumes delivery, ordering, or uniqueness.
pub trait Transport: Send {
    /// Sends one frame, best effort. `Err(Closed)` once the peer is
    /// gone for good.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Receives one frame, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError>;

    /// Discards any frames the transport is still holding for delivery
    /// (in-flight, delayed, or duplicated by a fault decorator).
    ///
    /// Called at identity boundaries — a session re-admitted under a
    /// reused id, a client resuming on a restarted server — where a
    /// stale held frame addressed to the *previous* incarnation of the
    /// endpoint must not be replayed into the new one. Plain transports
    /// hold nothing, so the default is a no-op.
    fn flush_stale(&mut self) {}
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        (**self).send(frame)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        (**self).recv_timeout(timeout)
    }
    fn flush_stale(&mut self) {
        (**self).flush_stale()
    }
}

/// How long a hot endpoint looks before it parks: about what a park
/// costs (a bare loopback ping-pong while both ends parked, two
/// wake-ups, measured 43–57 µs on the reference host). See the module
/// docs.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

#[cfg(test)]
thread_local! {
    /// `(empty looks that read the spin clock, parks)` made by
    /// `recv_handoff` on this thread, so a test can tell a spin from a
    /// park without a stopwatch.
    static HANDOFF_COUNTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// `(spins, parks)` that `f` cost this thread.
#[cfg(test)]
pub(crate) fn handoff_cost<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (s0, p0) = HANDOFF_COUNTS.with(std::cell::Cell::get);
    let r = f();
    let (s1, p1) = HANDOFF_COUNTS.with(std::cell::Cell::get);
    (r, (s1 - s0, p1 - p0))
}

#[inline]
fn count_handoff(_spins: u64, _parks: u64) {
    #[cfg(test)]
    HANDOFF_COUNTS.with(|c| {
        let (s, p) = c.get();
        c.set((s + _spins, p + _parks));
    });
}

/// The loopback wait, shared by both ends of a connection: one look,
/// then — only if the endpoint is `hot` — more looks under [`Backoff`]
/// for at most [`SPIN_BUDGET`], then a parked `recv_timeout` for the
/// rest of `timeout`. Leaves `hot` set iff the wait ended with a value.
/// See the module docs for the rule and its reasons.
pub(crate) fn recv_handoff<T>(
    rx: &mpsc::Receiver<T>,
    timeout: Duration,
    hot: &mut bool,
) -> Result<T, mpsc::RecvTimeoutError> {
    let spin_for = if *hot { SPIN_BUDGET } else { Duration::ZERO };
    let got = look_then_park(rx, timeout, spin_for);
    *hot = got.is_ok();
    got
}

/// [`recv_handoff`] with the spin budget as an argument (zero: park
/// straight after the first look), so a test can hold a wait in its
/// spin phase for as long as it needs. The first look comes before the
/// spin clock starts, so a frame that is already queued costs no clock
/// read.
fn look_then_park<T>(
    rx: &mpsc::Receiver<T>,
    timeout: Duration,
    spin_for: Duration,
) -> Result<T, mpsc::RecvTimeoutError> {
    use mpsc::{RecvTimeoutError, TryRecvError};
    let look = || match rx.try_recv() {
        Ok(v) => Some(Ok(v)),
        Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
        Err(TryRecvError::Empty) => None,
    };
    if let Some(got) = look() {
        return got;
    }
    let mut left = timeout;
    let budget = timeout.min(spin_for);
    if !budget.is_zero() {
        let start = Instant::now();
        let mut backoff = Backoff::new();
        loop {
            count_handoff(1, 0);
            let waited = start.elapsed();
            if waited >= budget {
                left = timeout.saturating_sub(waited);
                break;
            }
            backoff.snooze();
            if let Some(got) = look() {
                return got;
            }
        }
    }
    if left.is_zero() {
        return Err(RecvTimeoutError::Timeout);
    }
    count_handoff(0, 1);
    rx.recv_timeout(left)
}

/// One loopback frame in flight. A protocol frame — at most
/// [`MAX_FRAME`] bytes — rides inline in the channel slot, so crossing
/// threads moves no heap block allocated on one thread and freed on
/// the other (see the module docs). Longer frames (journal batches on
/// a raw pair, test payloads) fall back to a `Vec`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// `bytes[..len]` is the frame.
    Inline { len: u8, bytes: [u8; MAX_FRAME] },
    /// A frame longer than [`MAX_FRAME`].
    Heap(Vec<u8>),
}

impl Frame {
    /// A copy of `bytes`, inline when it fits.
    pub(crate) fn new(bytes: &[u8]) -> Frame {
        if bytes.len() > MAX_FRAME {
            return Frame::Heap(bytes.to_vec());
        }
        let mut inline = [0; MAX_FRAME];
        inline[..bytes.len()].copy_from_slice(bytes);
        Frame::Inline {
            len: bytes.len() as u8,
            bytes: inline,
        }
    }

    /// The frame as the [`Transport`] trait returns it; called on the
    /// receiving thread, which also frees the result.
    fn into_vec(self) -> Vec<u8> {
        match self {
            Frame::Inline { len, bytes } => bytes[..usize::from(len)].to_vec(),
            Frame::Heap(v) => v,
        }
    }
}

/// The sending half of a loopback endpoint: a closure into the
/// server's router.
pub(crate) type LoopbackTx = Box<dyn FnMut(&[u8]) -> Result<(), NetError> + Send>;

/// The in-process loopback endpoint: frames go out through a closure
/// into the server's router and come back over an `mpsc` channel.
pub struct LoopbackTransport {
    pub(crate) tx: LoopbackTx,
    pub(crate) rx: mpsc::Receiver<Frame>,
    /// Whether the previous receive ended with a frame (see
    /// `recv_handoff`). A fresh endpoint is cold.
    pub(crate) hot: bool,
}

impl std::fmt::Debug for LoopbackTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackTransport").finish_non_exhaustive()
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        (self.tx)(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        match recv_handoff(&self.rx, timeout, &mut self.hot) {
            Ok(f) => Ok(f.into_vec()),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

/// A symmetric in-process pair, for tests that need a raw wire without
/// a server behind it.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (atx, arx) = mpsc::channel::<Frame>();
    let (btx, brx) = mpsc::channel::<Frame>();
    let a = LoopbackTransport {
        tx: Box::new(move |f: &[u8]| atx.send(Frame::new(f)).map_err(|_| NetError::Closed)),
        rx: brx,
        hot: false,
    };
    let b = LoopbackTransport {
        tx: Box::new(move |f: &[u8]| btx.send(Frame::new(f)).map_err(|_| NetError::Closed)),
        rx: arx,
        hot: false,
    };
    (a, b)
}

/// A Unix-domain datagram endpoint: one connected socket per
/// direction. The send socket is nonblocking — a full kernel buffer is
/// wire loss, never a blocked caller — and the recv socket blocks
/// under a read timeout. The split is forced by the kernel:
/// `O_NONBLOCK` is a property of the open file description, so one
/// dual-use socket cannot be nonblocking for sends yet blocking (with
/// `SO_RCVTIMEO`) for receives.
#[cfg(unix)]
#[derive(Debug)]
pub struct UdsTransport {
    pub(crate) send_sock: std::os::unix::net::UnixDatagram,
    pub(crate) recv_sock: std::os::unix::net::UnixDatagram,
}

#[cfg(unix)]
impl Transport for UdsTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        match self.send_sock.send(frame) {
            Ok(_) => Ok(()),
            // A full socket buffer is wire loss, not a dead peer.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(()),
            Err(_) => Err(NetError::Closed),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        // A zero timeout means "do not block", which `set_read_timeout`
        // rejects; clamp to the shortest representable wait.
        let t = timeout.max(Duration::from_micros(1));
        if self.recv_sock.set_read_timeout(Some(t)).is_err() {
            return Err(NetError::Closed);
        }
        let mut buf = [0u8; 256];
        match self.recv_sock.recv(&mut buf) {
            Ok(n) => Ok(buf[..n].to_vec()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(NetError::Timeout)
            }
            Err(_) => Err(NetError::Closed),
        }
    }
}

/// A symmetric Unix-datagram pair (two socketpairs, one per
/// direction), for tests that need a real-socket wire without a server
/// behind it.
#[cfg(unix)]
pub fn uds_pair() -> std::io::Result<(UdsTransport, UdsTransport)> {
    use std::os::unix::net::UnixDatagram;
    let (a2b_send, a2b_recv) = UnixDatagram::pair()?;
    let (b2a_send, b2a_recv) = UnixDatagram::pair()?;
    a2b_send.set_nonblocking(true)?;
    b2a_send.set_nonblocking(true)?;
    Ok((
        UdsTransport {
            send_sock: a2b_send,
            recv_sock: b2a_recv,
        },
        UdsTransport {
            send_sock: b2a_send,
            recv_sock: a2b_recv,
        },
    ))
}

/// The dialing half of a [`ReconnectTransport`]: returns a fresh
/// connection to the *current* authority plus the generation it
/// belongs to, or `None` while no authority is serving (an outage).
pub type DialFn = Box<dyn FnMut() -> Option<(Box<dyn Transport>, u64)> + Send>;

/// A self-healing client endpoint: wraps a dialing closure and redials
/// whenever the shared generation counter moves past the generation of
/// its current connection (a server restart or standby takeover), or
/// whenever the connection reports `Closed`.
///
/// During an outage — the dial returns `None` — the transport behaves
/// like a dead-but-reachable wire: sends succeed (and vanish, which is
/// indistinguishable from loss), receives time out. That is exactly
/// the failure shape the retrying [`BarrierClient`](crate::BarrierClient)
/// already rides through, so a whole-server restart needs no new client
/// machinery below the protocol layer.
pub struct ReconnectTransport {
    dial: DialFn,
    generation: std::sync::Arc<std::sync::atomic::AtomicU64>,
    conn: Option<(Box<dyn Transport>, u64)>,
}

impl std::fmt::Debug for ReconnectTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReconnectTransport")
            .field("connected", &self.conn.is_some())
            .finish_non_exhaustive()
    }
}

impl ReconnectTransport {
    /// Wraps `dial` with generation-tracked redialing. `generation` is
    /// shared with whoever installs new authorities (the failover
    /// cluster bumps it on every kill/restart/promotion).
    pub fn new(
        generation: std::sync::Arc<std::sync::atomic::AtomicU64>,
        dial: DialFn,
    ) -> ReconnectTransport {
        ReconnectTransport {
            dial,
            generation,
            conn: None,
        }
    }

    fn ensure(&mut self) {
        let current = self.generation.load(std::sync::atomic::Ordering::Acquire);
        if let Some((_, gen)) = &self.conn {
            if *gen == current {
                return;
            }
            self.conn = None;
        }
        self.conn = (self.dial)();
    }
}

impl Transport for ReconnectTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.ensure();
        match &mut self.conn {
            // Outage: the frame vanishes, as on a lossy wire.
            None => Ok(()),
            Some((t, _)) => match t.send(frame) {
                Ok(()) => Ok(()),
                // A closed peer mid-outage is also just loss; drop the
                // connection so the next call redials.
                Err(_) => {
                    self.conn = None;
                    Ok(())
                }
            },
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.ensure();
        match &mut self.conn {
            None => {
                // Dead host: burn (a slice of) the timeout so callers
                // in a retry loop do not spin, then report silence.
                std::thread::sleep(timeout.min(Duration::from_millis(2)));
                Err(NetError::Timeout)
            }
            Some((t, _)) => match t.recv_timeout(timeout) {
                Ok(f) => Ok(f),
                Err(NetError::Timeout) => Err(NetError::Timeout),
                Err(NetError::Closed) => {
                    self.conn = None;
                    Err(NetError::Timeout)
                }
            },
        }
    }

    fn flush_stale(&mut self) {
        if let Some((t, _)) = &mut self.conn {
            t.flush_stale();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrips_frames() {
        let (mut a, mut b) = loopback_pair();
        a.send(b"hello").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b"world");
    }

    #[test]
    fn loopback_times_out_when_idle() {
        let (mut a, _b) = loopback_pair();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn loopback_reports_closed_peer() {
        let (mut a, b) = loopback_pair();
        drop(b);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(NetError::Closed)
        );
    }

    #[test]
    fn queued_frame_is_returned_hot_or_cold_without_parking() {
        let (mut a, mut b) = loopback_pair();
        for (frame, hot) in [(b"cold", false), (b"warm", true)] {
            b.send(frame).unwrap();
            assert_eq!(a.hot, hot);
            let (got, cost) = handoff_cost(|| a.recv_timeout(Duration::from_secs(1)));
            assert_eq!(got.unwrap(), frame);
            assert_eq!(cost, (0, 0), "first look finds it: no spin, no park");
        }
        // A hot endpoint draining a burst: every frame is found by the
        // first look, whatever the timeout, so none starts the spin
        // clock, and the endpoint stays hot throughout.
        let waits = [Duration::ZERO, Duration::from_micros(1), Duration::MAX];
        for i in 0..waits.len() {
            b.send(&[i as u8]).unwrap();
        }
        for (i, wait) in waits.into_iter().enumerate() {
            assert!(a.hot);
            let (got, cost) = handoff_cost(|| a.recv_timeout(wait));
            assert_eq!(got.unwrap(), [i as u8]);
            assert_eq!(cost, (0, 0), "hot, frame {i} queued: no spin, no park");
        }
    }

    #[test]
    fn every_protocol_frame_fits_inline() {
        use crate::proto::{Request, Response};
        let m = u64::MAX;
        let requests = [
            Request::Hello { session: m, seq: m },
            Request::Arrive {
                session: m,
                episode: m,
                seq: m,
            },
            Request::Heartbeat { session: m, seq: m },
            Request::Leave { session: m, seq: m },
            Request::Resume {
                session: m,
                next_episode: m,
                seq: m,
            },
        ];
        let responses = [
            Response::Welcome {
                session: m,
                episode: m,
                inc: m,
            },
            Response::Release { episode: m, inc: m },
            Response::Overdue {
                episode: m,
                round: m,
                inc: m,
            },
            Response::Evicted {
                session: m,
                episode: m,
                inc: m,
            },
            Response::ResumeRequired {
                session: m,
                episode: m,
                inc: m,
            },
            Response::Resumed {
                session: m,
                episode: m,
                inc: m,
            },
            Response::Diverged {
                session: m,
                expected: m,
                inc: m,
            },
        ];
        // Exhaustive matches: a new variant does not compile until it
        // is listed above, and a listed one is checked below.
        let request_kinds: std::collections::BTreeSet<u8> = requests
            .iter()
            .map(|r| match r {
                Request::Hello { .. } => 0,
                Request::Arrive { .. } => 1,
                Request::Heartbeat { .. } => 2,
                Request::Leave { .. } => 3,
                Request::Resume { .. } => 4,
            })
            .collect();
        let response_kinds: std::collections::BTreeSet<u8> = responses
            .iter()
            .map(|r| match r {
                Response::Welcome { .. } => 0,
                Response::Release { .. } => 1,
                Response::Overdue { .. } => 2,
                Response::Evicted { .. } => 3,
                Response::ResumeRequired { .. } => 4,
                Response::Resumed { .. } => 5,
                Response::Diverged { .. } => 6,
            })
            .collect();
        assert_eq!((request_kinds.len(), response_kinds.len()), (5, 7));
        let requests = requests.iter().map(Request::encode);
        let frames = requests.chain(responses.iter().map(Response::encode));
        for frame in frames {
            assert!(frame.len() <= MAX_FRAME, "{frame:?} would go to the heap");
            assert!(matches!(Frame::new(&frame), Frame::Inline { .. }));
        }
    }

    #[test]
    fn frames_at_the_inline_bounds_roundtrip_in_order() {
        let (mut a, mut b) = loopback_pair();
        let largest = [0xA5; MAX_FRAME];
        let over = [0x5A; MAX_FRAME + 1];
        let frames: [&[u8]; 4] = [&[], &largest, &over, &[]];
        assert!(matches!(Frame::new(&over), Frame::Heap(_)));
        for frame in frames {
            a.send(frame).unwrap();
        }
        for frame in frames {
            assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), frame);
        }
        assert_eq!(b.recv_timeout(Duration::ZERO), Err(NetError::Timeout));
    }

    #[test]
    fn idle_endpoint_spins_only_when_hot_and_never_returns_early() {
        let (mut a, mut b) = loopback_pair();
        let wait = Duration::from_millis(5);
        let timed_out_wait = |a: &mut LoopbackTransport| {
            let t0 = Instant::now();
            let (got, cost) = handoff_cost(|| a.recv_timeout(wait));
            assert_eq!(got, Err(NetError::Timeout));
            assert!(t0.elapsed() >= wait, "a {wait:?} wait returned early");
            cost
        };
        // A fresh endpoint is cold: it parks at once.
        assert_eq!(timed_out_wait(&mut a), (0, 1));
        // A frame makes it hot: the next wait looks before it parks, and
        // the looking comes out of the timeout, not on top of it.
        b.send(b"x").unwrap();
        a.recv_timeout(wait).unwrap();
        let (spins, parks) = timed_out_wait(&mut a);
        assert!(spins > 0, "a hot endpoint spins first");
        assert!(parks <= 1, "and parks for what is left, if anything is");
        // That wait timed out, so the endpoint is cold again.
        assert_eq!(timed_out_wait(&mut a), (0, 1));
    }

    #[test]
    fn zero_timeout_is_exactly_one_look() {
        let (mut a, mut b) = loopback_pair();
        b.send(b"x").unwrap();
        a.recv_timeout(Duration::ZERO).unwrap();
        assert!(a.hot);
        let (got, cost) = handoff_cost(|| a.recv_timeout(Duration::ZERO));
        assert_eq!(got, Err(NetError::Timeout));
        assert_eq!(cost, (0, 0), "hot, but a zero wait neither spins nor parks");
    }

    #[test]
    fn peer_dropped_during_the_spin_phase_reports_closed() {
        let (tx, rx) = mpsc::channel::<Frame>();
        // A spin budget as long as the timeout: the whole wait is spin
        // phase, so whenever the drop lands, it lands in it.
        let forever = Duration::from_secs(60);
        let (go, gone) = mpsc::channel::<()>();
        let dropper = std::thread::spawn(move || {
            gone.recv().unwrap();
            drop(tx);
        });
        go.send(()).unwrap();
        let (got, (_, parks)) = handoff_cost(|| look_then_park(&rx, forever, forever));
        assert_eq!(got, Err(mpsc::RecvTimeoutError::Disconnected));
        assert_eq!(parks, 0, "seen by a look, not by a wake-up");
        dropper.join().unwrap();
        // And through the endpoint it reads as `Closed`, hot or cold.
        for hot in [false, true] {
            let (mut a, b) = loopback_pair();
            a.hot = hot;
            drop(b);
            assert_eq!(a.recv_timeout(forever), Err(NetError::Closed));
            assert!(!a.hot);
        }
    }

    #[test]
    fn ten_thousand_ping_pongs_arrive_in_order_none_lost_or_duplicated() {
        let (mut near, mut far) = loopback_pair();
        let echo = std::thread::spawn(move || {
            while let Ok(frame) = far.recv_timeout(Duration::from_secs(10)) {
                far.send(&frame).unwrap();
            }
        });
        for i in 0..10_000u32 {
            near.send(&i.to_le_bytes()).unwrap();
            let back = near.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(back, i.to_le_bytes(), "ping {i}");
        }
        assert_eq!(
            near.recv_timeout(Duration::ZERO),
            Err(NetError::Timeout),
            "nothing beyond the 10 000 echoes"
        );
        drop(near);
        echo.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn uds_roundtrips_frames() {
        let (mut a, mut b) = uds_pair().unwrap();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b"pong");
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn reconnect_redials_on_generation_bump_and_blackholes_outages() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Arc, Mutex};

        let generation = Arc::new(AtomicU64::new(1));
        // The "cluster": a slot holding the server half of the current
        // wire, replaced on failover.
        let slot: Arc<Mutex<Option<LoopbackTransport>>> = Arc::new(Mutex::new(None));
        let dial_slot = Arc::clone(&slot);
        let dial_gen = Arc::clone(&generation);
        let mut rt = ReconnectTransport::new(
            Arc::clone(&generation),
            Box::new(move || {
                let gen = dial_gen.load(Ordering::Acquire);
                let (client, server) = loopback_pair();
                *dial_slot.lock().unwrap() = Some(server);
                Some((Box::new(client) as Box<dyn Transport>, gen))
            }),
        );

        // Generation 1: frames flow to the first server half.
        rt.send(b"one").unwrap();
        let mut srv1 = slot.lock().unwrap().take().unwrap();
        assert_eq!(srv1.recv_timeout(Duration::from_secs(1)).unwrap(), b"one");

        // Failover: bump the generation; the next send must redial and
        // land on the *new* server half, not the old one.
        generation.fetch_add(1, Ordering::Release);
        rt.send(b"two").unwrap();
        let mut srv2 = slot.lock().unwrap().take().unwrap();
        assert_eq!(srv2.recv_timeout(Duration::from_secs(1)).unwrap(), b"two");
        assert_eq!(
            srv1.recv_timeout(Duration::from_millis(5)),
            Err(NetError::Closed),
            "old wire is dead after redial"
        );
    }

    #[test]
    fn reconnect_outage_looks_like_a_lossy_wire() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        let generation = Arc::new(AtomicU64::new(1));
        let mut rt = ReconnectTransport::new(generation, Box::new(|| None));
        // No authority: sends succeed (and vanish), receives time out —
        // never `Closed`, which would surface as a poisoned barrier.
        rt.send(b"into the void").unwrap();
        assert_eq!(
            rt.recv_timeout(Duration::from_millis(5)),
            Err(NetError::Timeout)
        );
    }

    #[cfg(unix)]
    #[test]
    fn uds_send_never_blocks_on_a_full_buffer() {
        let (mut a, _b) = uds_pair().unwrap();
        // Nobody reads: the kernel buffer fills and further sends must
        // degrade to wire loss (Ok) instead of parking the caller —
        // the hang this guards against would block a shard thread for
        // as long as a client neglects its socket.
        let frame = [0u8; 200];
        for _ in 0..10_000 {
            a.send(&frame).unwrap();
        }
    }
}
