//! Length-prefixed framing for inter-process links.
//!
//! A link between two broker processes is a byte stream (UDS or TCP).
//! Everything crossing it is a **frame**:
//!
//! ```text
//! [u32 len LE][u8 version][u8 tag][body ...]
//! ```
//!
//! `len` counts every byte after the length prefix (version + tag + body),
//! so a reader can split a stream into frames without understanding any
//! payload. The version byte rejects cross-version links at the first
//! frame; the tag selects a [`Frame`] variant; unknown tags, truncated
//! bodies and trailing bytes after a fixed-size body are explicit
//! [`CoreError`]s, never panics — a peer can feed this parser arbitrary
//! bytes, and the [`ProcessRuntime`](crate::ProcessRuntime) turns every
//! such error into a supervised link-down, not a dead thread.
//!
//! [`FrameReassembler`] is the receive-side state machine: bytes arrive in
//! arbitrary read-sized chunks (partial frames, many frames per read) and
//! come out as whole frames. Node payloads inside [`Frame::Msg`] stay as
//! raw bytes here — the runtime decodes them via the [`Wire`] trait, which
//! is the seam that keeps this crate ignorant of the broker protocol.

use crate::node::NodeId;
use rebeca_core::CoreError;

/// Version byte stamped into every frame. Bump on any incompatible change
/// to the frame layout *or* to the message codec it carries.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on the declared frame length (version + tag + body). Guards
/// the reassembler against a corrupt or hostile length prefix committing
/// it to a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

const LEN_PREFIX: usize = 4;

const TAG_MSG: u8 = 0;
const TAG_SET_LINK: u8 = 1;
const TAG_HELLO: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;

/// A type that can cross a process boundary inside a [`Frame::Msg`].
///
/// This is the seam between the transport (this crate, which moves opaque
/// payload bytes) and the protocol (`rebeca-broker`, which implements it
/// for `Message` via its codec). The simulator and sends between nodes of
/// one process never touch it — they move values, bit-for-bit as before.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a value from exactly `bytes`.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] decode error; implementations must also reject
    /// trailing bytes.
    fn decode(bytes: &[u8]) -> Result<Self, CoreError>;
}

/// One frame on an inter-process link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A node-to-node message; `payload` is the [`Wire`] encoding of the
    /// runtime's payload type.
    Msg {
        /// Sending node (global id space).
        from: NodeId,
        /// Destination node (global id space).
        to: NodeId,
        /// Encoded payload.
        payload: Vec<u8>,
    },
    /// Link-state propagation: the sending process flipped `a`↔`b`.
    SetLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// New state of the bidirectional link.
        up: bool,
    },
    /// Connection handshake: carries the sender's declared node count so a
    /// topology mismatch between processes fails at connect time, not as
    /// silent misrouting.
    Hello {
        /// Number of nodes the sending process has declared.
        nodes: u32,
    },
    /// Orderly end of stream; the peer's reader exits after this.
    Shutdown,
}

/// Appends the complete encoding of `frame` (length prefix included) to
/// `out`. The buffer may already hold earlier frames — a writer thread
/// coalesces many frames into one stream write.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    // hot-path: begin frame encoding — every cross-process send runs this;
    // appends into the caller's reused buffer, no fresh allocations.
    let start = begin_frame(out);
    match frame {
        Frame::Msg { from, to, payload } => {
            put_msg_header(*from, *to, out);
            out.extend_from_slice(payload);
        }
        Frame::SetLink { a, b, up } => {
            out.push(TAG_SET_LINK);
            out.extend_from_slice(&a.raw().to_le_bytes());
            out.extend_from_slice(&b.raw().to_le_bytes());
            out.push(u8::from(*up));
        }
        Frame::Hello { nodes } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&nodes.to_le_bytes());
        }
        Frame::Shutdown => out.push(TAG_SHUTDOWN),
    }
    end_frame(start, out);
    // hot-path: end
}

/// Appends a whole [`Frame::Msg`] carrying `msg` to `out`: the payload is
/// [`Wire::encode_into`]ed in place behind the header, so no payload buffer
/// is built and copied. The bytes equal `encode_frame` of the same `Msg`.
pub fn encode_msg_frame<W: Wire>(from: NodeId, to: NodeId, msg: &W, out: &mut Vec<u8>) {
    // hot-path: begin message framing — an event loop's every cross-process
    // send; one reused buffer, the payload written where it travels.
    let start = begin_frame(out);
    put_msg_header(from, to, out);
    msg.encode_into(out);
    end_frame(start, out);
    // hot-path: end
}

/// Appends the length placeholder and the version; returns where the frame
/// starts, for [`end_frame`].
#[inline]
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; LEN_PREFIX]);
    out.push(WIRE_VERSION);
    start
}

/// The `Msg` tag and its two node ids.
#[inline]
fn put_msg_header(from: NodeId, to: NodeId, out: &mut Vec<u8>) {
    out.push(TAG_MSG);
    out.extend_from_slice(&from.raw().to_le_bytes());
    out.extend_from_slice(&to.raw().to_le_bytes());
}

/// Patches the length prefix of the frame that starts at `start`.
#[inline]
fn end_frame(start: usize, out: &mut [u8]) {
    let len = (out.len() - start - LEN_PREFIX) as u32;
    out[start..start + LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
}

fn get_u32(body: &[u8], at: usize) -> Result<u32, CoreError> {
    match body.get(at..at + 4) {
        Some(b) => Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice"))),
        // `need`/`have` count the field's bytes from its own offset, so
        // the error reports what was actually available there — not a
        // hardwired `have: 0`.
        None => Err(CoreError::Truncated { need: 4, have: body.len().saturating_sub(at) }),
    }
}

/// Rejects bytes after a fixed-size frame body, mirroring the
/// trailing-byte rejection [`Wire::decode`] implementations perform on
/// `Msg` payloads: a frame whose declared length exceeds what its tag
/// consumes is corrupt, not padding.
fn reject_trailing(body: &[u8], expected: usize, what: &str) -> Result<(), CoreError> {
    if body.len() > expected {
        return Err(CoreError::Decode(format!(
            "{} trailing byte(s) after a {what} frame body of {expected} bytes",
            body.len() - expected
        )));
    }
    Ok(())
}

/// Decodes one frame body (the bytes *after* the length prefix).
///
/// # Errors
///
/// [`CoreError::Decode`] on a version mismatch, [`CoreError::BadTag`] on
/// an unknown frame tag, [`CoreError::Truncated`] on a body shorter than
/// its tag requires.
pub fn decode_frame(body: &[u8]) -> Result<Frame, CoreError> {
    if body.len() < 2 {
        return Err(CoreError::Truncated { need: 2, have: body.len() });
    }
    if body[0] != WIRE_VERSION {
        return Err(CoreError::Decode(format!(
            "wire version mismatch: peer speaks {}, this process speaks {WIRE_VERSION}",
            body[0]
        )));
    }
    match body[1] {
        TAG_MSG => {
            let from = NodeId::new(get_u32(body, 2)?);
            let to = NodeId::new(get_u32(body, 6)?);
            Ok(Frame::Msg { from, to, payload: body[10..].to_vec() })
        }
        TAG_SET_LINK => {
            let a = NodeId::new(get_u32(body, 2)?);
            let b = NodeId::new(get_u32(body, 6)?);
            let up = match body.get(10) {
                Some(0) => false,
                Some(1) => true,
                Some(&tag) => return Err(CoreError::BadTag { what: "link state", tag }),
                None => return Err(CoreError::Truncated { need: 1, have: 0 }),
            };
            reject_trailing(body, 11, "SetLink")?;
            Ok(Frame::SetLink { a, b, up })
        }
        TAG_HELLO => {
            let nodes = get_u32(body, 2)?;
            reject_trailing(body, 6, "Hello")?;
            Ok(Frame::Hello { nodes })
        }
        TAG_SHUTDOWN => {
            reject_trailing(body, 2, "Shutdown")?;
            Ok(Frame::Shutdown)
        }
        tag => Err(CoreError::BadTag { what: "frame", tag }),
    }
}

/// Receive-side state machine turning arbitrarily chunked stream bytes
/// back into whole frames.
///
/// Feed reads with [`push`](FrameReassembler::push); pull frames with
/// [`next_frame`](FrameReassembler::next_frame) until it returns
/// `Ok(None)` ("need more bytes"). Consumed bytes are compacted away
/// periodically, so a long-lived link runs in amortised O(bytes).
#[derive(Debug, Default)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
}

/// Compact once the consumed prefix exceeds this many bytes *and* the
/// majority of the buffer (amortises the memmove).
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        FrameReassembler::default()
    }

    /// Appends bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next whole frame, or `Ok(None)` if the buffered bytes
    /// end mid-frame (partial read — push more and retry).
    ///
    /// # Errors
    ///
    /// Any [`decode_frame`] error, or [`CoreError::Decode`] for a length
    /// prefix exceeding [`MAX_FRAME`]. Errors are sticky in practice: a
    /// stream that misframes once has lost sync, so callers should drop
    /// the link.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CoreError> {
        // hot-path: begin frame reassembly — every received byte funnels
        // through here; the steady state is pointer arithmetic over the
        // reused buffer (the one alloc is the decoded Msg payload itself).
        let avail = &self.buf[self.start..];
        if avail.len() < LEN_PREFIX {
            return Ok(None);
        }
        let len =
            u32::from_le_bytes(avail[..LEN_PREFIX].try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME {
            // lint: allow(hot-alloc) — error path; the link is dropped.
            return Err(CoreError::Decode(format!(
                "oversized frame: {len} bytes declared, cap is {MAX_FRAME}"
            )));
        }
        if avail.len() < LEN_PREFIX + len {
            return Ok(None);
        }
        let frame = decode_frame(&avail[LEN_PREFIX..LEN_PREFIX + len])?;
        self.start += LEN_PREFIX + len;
        if self.start > COMPACT_THRESHOLD && self.start * 2 > self.buf.len() {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        Ok(Some(frame))
        // hot-path: end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Msg { from: NodeId::new(1), to: NodeId::new(2), payload: vec![9, 8, 7] },
            Frame::Msg { from: NodeId::EXTERNAL, to: NodeId::new(0), payload: Vec::new() },
            Frame::SetLink { a: NodeId::new(0), b: NodeId::new(3), up: false },
            Frame::SetLink { a: NodeId::new(3), b: NodeId::new(0), up: true },
            Frame::Hello { nodes: 12 },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn frames_round_trip() {
        for f in sample_frames() {
            let mut out = Vec::new();
            encode_frame(&f, &mut out);
            let body = &out[LEN_PREFIX..];
            assert_eq!(decode_frame(body).expect("decode"), f);
        }
    }

    /// A payload type whose encoding is its bytes.
    struct Raw(Vec<u8>);

    impl Wire for Raw {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
            Ok(Raw(bytes.to_vec()))
        }
    }

    #[test]
    fn msg_frames_encoded_in_place_equal_encode_frame() {
        for payload in [Vec::new(), vec![9, 8, 7], vec![0xAB; 300]] {
            let (from, to) = (NodeId::new(3), NodeId::EXTERNAL);
            let mut want = vec![0xEE];
            encode_frame(&Frame::Msg { from, to, payload: payload.clone() }, &mut want);
            let mut got = vec![0xEE];
            encode_msg_frame(from, to, &Raw(payload), &mut got);
            assert_eq!(got, want, "appends after earlier bytes, byte for byte");
        }
    }

    #[test]
    fn reassembler_handles_byte_at_a_time_delivery() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        let mut re = FrameReassembler::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(1) {
            re.push(chunk);
            while let Some(f) = re.next_frame().expect("well-formed stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(re.pending_bytes(), 0);
    }

    #[test]
    fn reassembler_handles_coalesced_delivery() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        let mut re = FrameReassembler::new();
        re.push(&stream);
        let mut got = Vec::new();
        while let Some(f) = re.next_frame().expect("well-formed stream") {
            got.push(f);
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn truncated_bodies_and_bad_tags_error_cleanly() {
        // Body shorter than version+tag.
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[WIRE_VERSION]).is_err());
        // Unknown tag.
        assert!(matches!(
            decode_frame(&[WIRE_VERSION, 77]),
            Err(CoreError::BadTag { what: "frame", tag: 77 })
        ));
        // Version mismatch.
        assert!(matches!(
            decode_frame(&[WIRE_VERSION + 1, TAG_SHUTDOWN]),
            Err(CoreError::Decode(_))
        ));
        // Msg body cut inside the fixed fields.
        let mut out = Vec::new();
        encode_frame(
            &Frame::Msg { from: NodeId::new(1), to: NodeId::new(2), payload: vec![1] },
            &mut out,
        );
        for cut in 2..(out.len() - LEN_PREFIX).min(10) {
            assert!(decode_frame(&out[LEN_PREFIX..LEN_PREFIX + cut]).is_err(), "cut {cut}");
        }
        // Bad link-state byte.
        let mut out = Vec::new();
        encode_frame(&Frame::SetLink { a: NodeId::new(0), b: NodeId::new(1), up: true }, &mut out);
        let last = out.len() - 1;
        out[last] = 9;
        assert!(matches!(
            decode_frame(&out[LEN_PREFIX..]),
            Err(CoreError::BadTag { what: "link state", tag: 9 })
        ));
    }

    #[test]
    fn truncation_errors_report_actual_available_bytes() {
        // Hello needs a u32 at offset 2; give it two of the four bytes.
        let body = [WIRE_VERSION, TAG_HELLO, 7, 7];
        assert!(matches!(decode_frame(&body), Err(CoreError::Truncated { need: 4, have: 2 })));
        // Msg's `to` field at offset 6, one byte available there.
        let body = [WIRE_VERSION, TAG_MSG, 1, 2, 3, 4, 5];
        assert!(matches!(decode_frame(&body), Err(CoreError::Truncated { need: 4, have: 1 })));
        // Shorter than version + tag.
        assert!(matches!(
            decode_frame(&[WIRE_VERSION]),
            Err(CoreError::Truncated { need: 2, have: 1 })
        ));
    }

    #[test]
    fn trailing_bytes_after_fixed_size_bodies_are_rejected() {
        for frame in [
            Frame::SetLink { a: NodeId::new(0), b: NodeId::new(1), up: true },
            Frame::Hello { nodes: 4 },
            Frame::Shutdown,
        ] {
            let mut out = Vec::new();
            encode_frame(&frame, &mut out);
            let mut body = out[LEN_PREFIX..].to_vec();
            assert_eq!(decode_frame(&body).expect("exact body decodes"), frame);
            body.push(0);
            assert!(
                matches!(decode_frame(&body), Err(CoreError::Decode(_))),
                "{frame:?} accepted a trailing byte"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut re = FrameReassembler::new();
        re.push(&u32::MAX.to_le_bytes());
        assert!(matches!(re.next_frame(), Err(CoreError::Decode(_))));
    }

    #[test]
    fn reassembler_compacts_consumed_prefix() {
        let mut re = FrameReassembler::new();
        let mut stream = Vec::new();
        let payload = vec![0u8; 8 * 1024];
        for i in 0..32 {
            stream.clear();
            encode_frame(
                &Frame::Msg {
                    from: NodeId::new(i),
                    to: NodeId::new(i + 1),
                    payload: payload.clone(),
                },
                &mut stream,
            );
            re.push(&stream);
            assert!(re.next_frame().expect("ok").is_some());
        }
        assert_eq!(re.pending_bytes(), 0);
        // The consumed prefix must not grow without bound.
        assert!(re.buf.len() < 2 * (COMPACT_THRESHOLD + 16 * 1024), "buffer never compacted");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary bytes (the vendored proptest has no `u8` strategy, so
        /// sample `u32` and truncate).
        fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(0u32..256, len)
                .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
        }

        fn arb_frame() -> impl Strategy<Value = Frame> {
            prop_oneof![
                (any::<u32>(), any::<u32>(), arb_bytes(0..64)).prop_map(|(f, t, payload)| {
                    Frame::Msg { from: NodeId::new(f), to: NodeId::new(t), payload }
                }),
                (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(a, b, up)| {
                    Frame::SetLink { a: NodeId::new(a), b: NodeId::new(b), up }
                }),
                any::<u32>().prop_map(|nodes| Frame::Hello { nodes }),
                Just(Frame::Shutdown),
            ]
        }

        proptest! {
            /// Every frame round-trips through encode → decode.
            #[test]
            fn frame_round_trips(f in arb_frame()) {
                let mut out = Vec::new();
                encode_frame(&f, &mut out);
                prop_assert_eq!(decode_frame(&out[LEN_PREFIX..]).expect("decode"), f);
            }

            /// Appending junk to a fixed-size body is an error; appending
            /// junk to a Msg body just grows the payload (its length is
            /// the frame's). Either way: a value, never a panic.
            #[test]
            fn trailing_bytes_never_panic(f in arb_frame(), junk in 1usize..8) {
                let mut out = Vec::new();
                encode_frame(&f, &mut out);
                out.extend(std::iter::repeat_n(0xAAu8, junk));
                match (&f, decode_frame(&out[LEN_PREFIX..])) {
                    (Frame::Msg { .. }, Ok(Frame::Msg { payload, .. })) => {
                        prop_assert!(payload.ends_with(&[0xAA]));
                    }
                    (Frame::Msg { .. }, other) => {
                        prop_assert!(false, "Msg decoded to {other:?}");
                    }
                    (
                        Frame::SetLink { .. } | Frame::Hello { .. } | Frame::Shutdown,
                        result,
                    ) => prop_assert!(result.is_err(), "fixed-size body accepted trailing junk"),
                }
            }

            /// The reassembler survives arbitrary bytes under arbitrary
            /// read chunking: every outcome is a frame, "need more", or an
            /// error value — never a panic.
            #[test]
            fn reassembler_never_panics_on_arbitrary_bytes(
                bytes in arb_bytes(0..512),
                chunk in 1usize..17,
            ) {
                let mut re = FrameReassembler::new();
                'outer: for c in bytes.chunks(chunk) {
                    re.push(c);
                    loop {
                        match re.next_frame() {
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            // Sync is lost for good; a real reader drops
                            // the link here.
                            Err(_) => break 'outer,
                        }
                    }
                }
            }
        }
    }
}
