//! The wire protocol: message shapes and a zero-dependency binary
//! codec.
//!
//! Every message is one datagram-sized frame: a one-byte tag followed
//! by fixed-width little-endian `u64` fields. The protocol is designed
//! so *every client request is idempotent*:
//!
//! * [`Request::Arrive`] names its `(session, episode)` coordinate, so
//!   a retransmission of an arrival the server already counted is a
//!   no-op, and an arrival for an episode that already released is
//!   answered with the (re-sent) [`Response::Release`] rather than
//!   being counted again. Episode counters therefore advance exactly
//!   once per session per episode no matter how lossy the wire is.
//!   A *redundant* copy — one of the up to three identical frames a
//!   client that has seen loss sends per arrival, or a server per
//!   release (see `Redundancy`) — is therefore a duplicate by
//!   construction: the same bytes, the same `seq`, deduplicated by the
//!   same episode state as a wire duplicate.
//! * [`Request::Hello`] carries the session id chosen by the client;
//!   re-sending it re-delivers the same [`Response::Welcome`] with the
//!   session's *current* join epoch.
//! * [`Request::Resume`] proves the session's next-expected episode to
//!   a restarted server, so recovery either re-admits the session at
//!   its exact coordinate, re-acks a `Release` it missed, or surfaces
//!   an explicit [`Response::Diverged`] when the journal lost a suffix
//!   the client already observed — never a silent epoch skew.
//! * [`Response::Overdue`] is the shard's tick re-send of a release to
//!   a session that has not arrived since, marked with its `round`. To
//!   a client that lost the release it is that release; to one whose
//!   next arrival is lost it is a NACK, answered with one re-arrival per
//!   round. Copies of the fan-out and wire duplicates carry no new
//!   round, so no frame the client reads twice makes it send twice.
//! * `seq` is a per-session monotone request counter — dedup falls
//!   out of the episode state, not the sequence number, so a reordered
//!   retry can never corrupt state. Its one other reader is the
//!   server's loss memory: a re-sent arrival carries a higher `seq`
//!   than every copy of the one it repeats, which is how a re-send is
//!   told from a copy.
//!
//! Every server → client frame carries the server's **incarnation
//! number** (`inc`): restarts and standby takeovers bump it, and
//! clients drop frames whose incarnation is below the highest they
//! have seen, which fences a zombie primary's stale `Release` frames.
//!
//! Decoding is total and *exact*: a truncated, over-long, or
//! unknown-tag frame decodes to a [`FrameError`] and the receiver
//! drops it, which is exactly what a lossy transport already forces it
//! to tolerate. Decoding never panics and never mis-frames (a frame
//! with trailing garbage is rejected rather than silently accepted).

/// A client session identifier (chosen by the client at `Hello`).
pub type SessionId = u64;

/// The most copies of one frame [`Redundancy`] sends.
pub(crate) const MAX_COPIES: u32 = 3;

/// How many fresh frames in a row must go out without evidence of loss
/// before [`Redundancy`] drops one copy.
pub(crate) const HOLD: u32 = 1024;

/// One session's memory of loss at one end of the wire: how many
/// copies of each fresh frame to send.
///
/// Each piece of evidence adds one copy, up to [`MAX_COPIES`], and
/// starts the calm over. Each end counts its own re-sends: the client a
/// re-send of the in-flight `Arrive`, timed out or answering an
/// `Overdue`, the server each `Overdue` it sends on its tick. The server
/// also counts a re-sent arrival for an episode that has already
/// released. Each fresh frame sent without evidence counts toward a calm
/// of [`HOLD`]; a full calm drops one copy. So a session that
/// keeps losing frames keeps its copies, one whose loss has stopped is
/// back to one copy within `(MAX_COPIES - 1) · HOLD` frames, and a
/// clean wire, which never shows evidence, sends every frame once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Redundancy {
    copies: u32,
    calm: u32,
}

impl Default for Redundancy {
    fn default() -> Self {
        Self { copies: 1, calm: 0 }
    }
}

impl Redundancy {
    /// The current copy count.
    pub(crate) fn copies(&self) -> u32 {
        self.copies
    }

    /// One piece of evidence of loss: one copy more, up to
    /// [`MAX_COPIES`], and the calm starts over.
    pub(crate) fn raise(&mut self) {
        self.copies = (self.copies + 1).min(MAX_COPIES);
        self.calm = 0;
    }

    /// The copies of one fresh frame, which counts toward the calm.
    pub(crate) fn fresh(&mut self) -> u32 {
        let copies = self.copies;
        if copies > 1 {
            self.calm += 1;
            if self.calm == HOLD {
                self.copies -= 1;
                self.calm = 0;
            }
        }
        copies
    }
}

/// Why a frame failed to decode. The receiver's policy for every
/// variant is the same — drop the frame, as on a lossy wire — but the
/// distinction matters for diagnostics and for the corruption fuzz
/// tests that pin "malformed input can never panic or mis-frame".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Zero-length frame (no tag byte).
    Empty,
    /// The tag byte names no known message kind.
    UnknownTag(u8),
    /// The tag is known but the frame length does not match the
    /// message's exact wire size (truncated or trailing garbage).
    BadLength {
        /// The recognised tag.
        tag: u8,
        /// The offending frame length in bytes.
        len: usize,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            FrameError::Empty => write!(f, "empty frame"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::BadLength { tag, len } => {
                write!(f, "bad frame length {len} for tag {tag}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Client → server messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Join (or rejoin, after eviction) the barrier service.
    Hello {
        /// The session joining.
        session: SessionId,
        /// Request counter (diagnostics only).
        seq: u64,
    },
    /// Idempotent arrival of `session` at `episode`.
    Arrive {
        /// The arriving session.
        session: SessionId,
        /// The episode the client believes is current for it.
        episode: u64,
        /// Request counter: shared by the copies of one send, higher on
        /// a re-send.
        seq: u64,
    },
    /// Lease renewal without an arrival (a slow client keeping its
    /// membership alive mid-computation).
    Heartbeat {
        /// The session renewing its lease.
        session: SessionId,
        /// Request counter (diagnostics only).
        seq: u64,
    },
    /// Orderly departure: the session leaves the membership at the
    /// next episode boundary without being treated as a failure.
    Leave {
        /// The departing session.
        session: SessionId,
        /// Request counter (diagnostics only).
        seq: u64,
    },
    /// Resume a session on a restarted server: proves the episode the
    /// client expects next, so recovery can re-admit it at the exact
    /// coordinate (or detect divergence). Sent in response to
    /// [`Response::ResumeRequired`].
    Resume {
        /// The resuming session.
        session: SessionId,
        /// The next episode the client expects to be released.
        next_episode: u64,
        /// Request counter (diagnostics only).
        seq: u64,
    },
}

/// Server → client messages. Every variant carries the server's
/// incarnation number `inc` so clients can fence stale frames from a
/// superseded (zombie) primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Admission (or re-admission): the session participates starting
    /// at `episode`.
    Welcome {
        /// The admitted session.
        session: SessionId,
        /// First episode the session is expected to arrive for.
        episode: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
    /// The named episode completed; every participant may proceed.
    Release {
        /// The completed episode.
        episode: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
    /// The shard's tick re-send of an overdue `Release`: `episode`
    /// completed, and the session has not arrived for `episode + 1`
    /// since. A client still arriving for `episode` takes it as that
    /// `Release`; one arriving for `episode + 1` lost that arrival, or
    /// it is still in flight, and re-arrives once per `round` it has not
    /// answered. The marker is what tells a re-send from a later copy of
    /// the fan-out or a wire duplicate, which a client must never answer.
    Overdue {
        /// The released episode.
        episode: u64,
        /// Which re-send of that release this is, 1 to `RESENDS`.
        round: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
    /// The session's lease expired (or its shard died) and the
    /// membership was folded without it. The client surfaces
    /// `BarrierError::Evicted` and may `rejoin` via a fresh `Hello`.
    Evicted {
        /// The evicted session.
        session: SessionId,
        /// The episode during which the eviction happened.
        episode: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
    /// A recovered server knows this session from its journal but has
    /// not yet seen it this incarnation: the client must prove its
    /// coordinate with [`Request::Resume`] before any other request is
    /// honoured.
    ResumeRequired {
        /// The session being challenged.
        session: SessionId,
        /// The episode the server currently considers in-flight.
        episode: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
    /// Resume accepted: the session is re-admitted, expected to arrive
    /// for `episode` (the in-flight frame).
    Resumed {
        /// The resumed session.
        session: SessionId,
        /// The episode the session should arrive for next.
        episode: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
    /// Resume rejected: the client has observed releases beyond what
    /// the recovered journal records — a journal suffix was lost. The
    /// client surfaces `BarrierError::Diverged`; rejoining would risk
    /// double-completing epochs the authority no longer remembers.
    Diverged {
        /// The rejected session.
        session: SessionId,
        /// The highest next-episode the server can vouch for.
        expected: u64,
        /// Server incarnation issuing the frame.
        inc: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_ARRIVE: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_LEAVE: u8 = 4;
const TAG_RESUME: u8 = 5;
const TAG_WELCOME: u8 = 65;
const TAG_RELEASE: u8 = 66;
const TAG_EVICTED: u8 = 67;
const TAG_RESUME_REQUIRED: u8 = 68;
const TAG_RESUMED: u8 = 69;
const TAG_DIVERGED: u8 = 70;
const TAG_OVERDUE: u8 = 71;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    // Callers check the exact frame length first, so this slice is
    // always in bounds.
    let bytes: [u8; 8] = buf[at..at + 8].try_into().expect("length checked");
    u64::from_le_bytes(bytes)
}

/// Exact-length gate: a known tag with any other length is rejected,
/// so a truncated frame can never read garbage and a frame with
/// trailing bytes can never smuggle them past the codec.
fn expect_len(frame: &[u8], tag: u8, want: usize) -> Result<(), FrameError> {
    if frame.len() == want {
        Ok(())
    } else {
        Err(FrameError::BadLength {
            tag,
            len: frame.len(),
        })
    }
}

impl Request {
    /// The session this request belongs to.
    pub fn session(&self) -> SessionId {
        match *self {
            Request::Hello { session, .. }
            | Request::Arrive { session, .. }
            | Request::Heartbeat { session, .. }
            | Request::Leave { session, .. }
            | Request::Resume { session, .. } => session,
        }
    }

    /// Encodes the request as one frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(25);
        match *self {
            Request::Hello { session, seq } => {
                buf.push(TAG_HELLO);
                put_u64(&mut buf, session);
                put_u64(&mut buf, seq);
            }
            Request::Arrive {
                session,
                episode,
                seq,
            } => {
                buf.push(TAG_ARRIVE);
                put_u64(&mut buf, session);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, seq);
            }
            Request::Heartbeat { session, seq } => {
                buf.push(TAG_HEARTBEAT);
                put_u64(&mut buf, session);
                put_u64(&mut buf, seq);
            }
            Request::Leave { session, seq } => {
                buf.push(TAG_LEAVE);
                put_u64(&mut buf, session);
                put_u64(&mut buf, seq);
            }
            Request::Resume {
                session,
                next_episode,
                seq,
            } => {
                buf.push(TAG_RESUME);
                put_u64(&mut buf, session);
                put_u64(&mut buf, next_episode);
                put_u64(&mut buf, seq);
            }
        }
        buf
    }

    /// Decodes one frame; a [`FrameError`] means the frame is dropped,
    /// as on a lossy wire. Never panics, never mis-frames.
    pub fn decode(frame: &[u8]) -> Result<Request, FrameError> {
        let tag = *frame.first().ok_or(FrameError::Empty)?;
        match tag {
            TAG_HELLO => {
                expect_len(frame, tag, 17)?;
                Ok(Request::Hello {
                    session: get_u64(frame, 1),
                    seq: get_u64(frame, 9),
                })
            }
            TAG_ARRIVE => {
                expect_len(frame, tag, 25)?;
                Ok(Request::Arrive {
                    session: get_u64(frame, 1),
                    episode: get_u64(frame, 9),
                    seq: get_u64(frame, 17),
                })
            }
            TAG_HEARTBEAT => {
                expect_len(frame, tag, 17)?;
                Ok(Request::Heartbeat {
                    session: get_u64(frame, 1),
                    seq: get_u64(frame, 9),
                })
            }
            TAG_LEAVE => {
                expect_len(frame, tag, 17)?;
                Ok(Request::Leave {
                    session: get_u64(frame, 1),
                    seq: get_u64(frame, 9),
                })
            }
            TAG_RESUME => {
                expect_len(frame, tag, 25)?;
                Ok(Request::Resume {
                    session: get_u64(frame, 1),
                    next_episode: get_u64(frame, 9),
                    seq: get_u64(frame, 17),
                })
            }
            other => Err(FrameError::UnknownTag(other)),
        }
    }
}

impl Response {
    /// The incarnation number stamped on this frame.
    pub fn incarnation(&self) -> u64 {
        match *self {
            Response::Welcome { inc, .. }
            | Response::Release { inc, .. }
            | Response::Overdue { inc, .. }
            | Response::Evicted { inc, .. }
            | Response::ResumeRequired { inc, .. }
            | Response::Resumed { inc, .. }
            | Response::Diverged { inc, .. } => inc,
        }
    }

    /// Encodes the response as one frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(25);
        match *self {
            Response::Welcome {
                session,
                episode,
                inc,
            } => {
                buf.push(TAG_WELCOME);
                put_u64(&mut buf, session);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, inc);
            }
            Response::Release { episode, inc } => {
                buf.push(TAG_RELEASE);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, inc);
            }
            Response::Overdue {
                episode,
                round,
                inc,
            } => {
                buf.push(TAG_OVERDUE);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, round);
                put_u64(&mut buf, inc);
            }
            Response::Evicted {
                session,
                episode,
                inc,
            } => {
                buf.push(TAG_EVICTED);
                put_u64(&mut buf, session);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, inc);
            }
            Response::ResumeRequired {
                session,
                episode,
                inc,
            } => {
                buf.push(TAG_RESUME_REQUIRED);
                put_u64(&mut buf, session);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, inc);
            }
            Response::Resumed {
                session,
                episode,
                inc,
            } => {
                buf.push(TAG_RESUMED);
                put_u64(&mut buf, session);
                put_u64(&mut buf, episode);
                put_u64(&mut buf, inc);
            }
            Response::Diverged {
                session,
                expected,
                inc,
            } => {
                buf.push(TAG_DIVERGED);
                put_u64(&mut buf, session);
                put_u64(&mut buf, expected);
                put_u64(&mut buf, inc);
            }
        }
        buf
    }

    /// Decodes one frame; a [`FrameError`] means the frame is dropped.
    /// Never panics, never mis-frames.
    pub fn decode(frame: &[u8]) -> Result<Response, FrameError> {
        let tag = *frame.first().ok_or(FrameError::Empty)?;
        match tag {
            TAG_WELCOME => {
                expect_len(frame, tag, 25)?;
                Ok(Response::Welcome {
                    session: get_u64(frame, 1),
                    episode: get_u64(frame, 9),
                    inc: get_u64(frame, 17),
                })
            }
            TAG_RELEASE => {
                expect_len(frame, tag, 17)?;
                Ok(Response::Release {
                    episode: get_u64(frame, 1),
                    inc: get_u64(frame, 9),
                })
            }
            TAG_OVERDUE => {
                expect_len(frame, tag, 25)?;
                Ok(Response::Overdue {
                    episode: get_u64(frame, 1),
                    round: get_u64(frame, 9),
                    inc: get_u64(frame, 17),
                })
            }
            TAG_EVICTED => {
                expect_len(frame, tag, 25)?;
                Ok(Response::Evicted {
                    session: get_u64(frame, 1),
                    episode: get_u64(frame, 9),
                    inc: get_u64(frame, 17),
                })
            }
            TAG_RESUME_REQUIRED => {
                expect_len(frame, tag, 25)?;
                Ok(Response::ResumeRequired {
                    session: get_u64(frame, 1),
                    episode: get_u64(frame, 9),
                    inc: get_u64(frame, 17),
                })
            }
            TAG_RESUMED => {
                expect_len(frame, tag, 25)?;
                Ok(Response::Resumed {
                    session: get_u64(frame, 1),
                    episode: get_u64(frame, 9),
                    inc: get_u64(frame, 17),
                })
            }
            TAG_DIVERGED => {
                expect_len(frame, tag, 25)?;
                Ok(Response::Diverged {
                    session: get_u64(frame, 1),
                    expected: get_u64(frame, 9),
                    inc: get_u64(frame, 17),
                })
            }
            other => Err(FrameError::UnknownTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_cases() -> Vec<Request> {
        vec![
            Request::Hello { session: 7, seq: 1 },
            Request::Arrive {
                session: u64::MAX,
                episode: 200,
                seq: 3,
            },
            Request::Heartbeat {
                session: 0,
                seq: u64::MAX,
            },
            Request::Leave { session: 9, seq: 4 },
            Request::Resume {
                session: 11,
                next_episode: 42,
                seq: 5,
            },
        ]
    }

    fn response_cases() -> Vec<Response> {
        vec![
            Response::Welcome {
                session: 3,
                episode: 12,
                inc: 1,
            },
            Response::Release {
                episode: 0,
                inc: u64::MAX,
            },
            Response::Overdue {
                episode: 41,
                round: 4,
                inc: 2,
            },
            Response::Evicted {
                session: 5,
                episode: 77,
                inc: 2,
            },
            Response::ResumeRequired {
                session: 8,
                episode: 40,
                inc: 3,
            },
            Response::Resumed {
                session: 8,
                episode: 40,
                inc: 3,
            },
            Response::Diverged {
                session: 8,
                expected: 39,
                inc: 3,
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for r in request_cases() {
            assert_eq!(Request::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn responses_roundtrip() {
        for r in response_cases() {
            assert_eq!(Response::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn malformed_frames_decode_to_err() {
        assert_eq!(Request::decode(&[]), Err(FrameError::Empty));
        assert_eq!(
            Request::decode(&[99, 0, 0]),
            Err(FrameError::UnknownTag(99))
        );
        assert_eq!(
            Request::decode(&[TAG_ARRIVE, 1, 2]),
            Err(FrameError::BadLength {
                tag: TAG_ARRIVE,
                len: 3
            })
        );
        assert_eq!(
            Response::decode(&[TAG_RELEASE]),
            Err(FrameError::BadLength {
                tag: TAG_RELEASE,
                len: 1
            })
        );
        assert_eq!(Response::decode(&[0]), Err(FrameError::UnknownTag(0)));
        assert_eq!(Response::decode(&[]), Err(FrameError::Empty));
    }

    #[test]
    fn trailing_garbage_is_rejected_not_misframed() {
        // A correct frame with appended bytes must be rejected: a codec
        // that silently ignored the tail could mis-frame a concatenated
        // pair of datagrams as the first one.
        for r in request_cases() {
            let mut wire = r.encode();
            wire.push(0xAB);
            assert!(
                Request::decode(&wire).is_err(),
                "{r:?} accepted trailing byte"
            );
        }
        for r in response_cases() {
            let mut wire = r.encode();
            wire.push(0xAB);
            assert!(
                Response::decode(&wire).is_err(),
                "{r:?} accepted trailing byte"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for r in request_cases() {
            let wire = r.encode();
            for cut in 0..wire.len() {
                assert!(Request::decode(&wire[..cut]).is_err(), "{r:?} cut at {cut}");
            }
        }
        for r in response_cases() {
            let wire = r.encode();
            for cut in 0..wire.len() {
                assert!(
                    Response::decode(&wire[..cut]).is_err(),
                    "{r:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn request_and_response_tags_are_disjoint() {
        // A response frame must never decode as a request (and vice
        // versa): a faulty transport that cross-delivers frames gets a
        // clean drop, not a misparse.
        let resp = Response::Release { episode: 4, inc: 0 }.encode();
        assert!(Request::decode(&resp).is_err());
        let req = Request::Hello { session: 1, seq: 0 }.encode();
        assert!(Response::decode(&req).is_err());
    }

    /// Seeded corruption fuzz over every message kind: random bit
    /// flips, truncations, extensions, and pure-noise frames must
    /// either decode to *some* valid message (a flip landing in a
    /// payload field is indistinguishable from a different valid
    /// frame) or return an error — never panic. Where the corrupted
    /// frame does decode, re-encoding it must reproduce the frame
    /// byte-for-byte (no mis-framing: the codec read exactly what was
    /// on the wire).
    #[test]
    fn corruption_fuzz_never_panics_or_misframes() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64; // fixed seed
        let mut next = move || {
            // splitmix64: tiny, seedable, no dependencies.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };

        let reqs = request_cases();
        let resps = response_cases();
        for trial in 0..4000_u64 {
            let r = next();
            let mut wire = if trial % 4 == 0 {
                // Pure noise of random length 0..40.
                let len = (next() % 40) as usize;
                (0..len).map(|_| (next() & 0xff) as u8).collect::<Vec<u8>>()
            } else if trial % 2 == 0 {
                reqs[(r % reqs.len() as u64) as usize].encode()
            } else {
                resps[(r % resps.len() as u64) as usize].encode()
            };
            // Apply 1–3 corruptions.
            for _ in 0..=(next() % 3) {
                if wire.is_empty() {
                    break;
                }
                match next() % 3 {
                    0 => {
                        let at = (next() % wire.len() as u64) as usize;
                        wire[at] ^= 1 << (next() % 8);
                    }
                    1 => {
                        let cut = (next() % (wire.len() as u64 + 1)) as usize;
                        wire.truncate(cut);
                    }
                    _ => wire.push((next() & 0xff) as u8),
                }
            }
            if let Ok(req) = Request::decode(&wire) {
                assert_eq!(req.encode(), wire, "request mis-framed: {wire:?}");
            }
            if let Ok(resp) = Response::decode(&wire) {
                assert_eq!(resp.encode(), wire, "response mis-framed: {wire:?}");
            }
        }
    }
}
