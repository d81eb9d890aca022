//! Wire framing for the TCP transport.
//!
//! Every unit on the socket is a *frame*:
//!
//! ```text
//! ┌─────────────┬──────────────────────────────┬─────────────┐
//! │ len: u32 LE │ body                         │ crc: u32 LE │
//! └─────────────┴──────────────────────────────┴─────────────┘
//!               │ kind: u8 │ seq: u64 LE │ payload …         │
//!               └──────────┴─────────────┴───────────────────┘
//! ```
//!
//! `len` covers the body only; `crc` is [`crate::codec::crc32`] over the
//! body, so a flipped bit anywhere in kind, sequence number or payload is
//! detected before any payload decoding happens. Payloads reuse the
//! [`crate::codec`] primitives (varints, length-prefixed byte strings),
//! and batch payloads carry each [`Message`] through its [`WireEncode`]
//! form — the same encoding the journal trusts.
//!
//! The frame kinds implement a deliberately small protocol:
//!
//! * `Hello` / `HelloAck` — handshake; payload is magic + version + the
//!   queue manager name, each side verifying the other.
//! * `Batch` / `Ack` — a batch of transmission-queue envelopes and its
//!   acknowledgment (sequence-matched, with accepted/deduplicated counts).
//! * `AckWin` — a *cumulative* acknowledgment: its `seq` is a watermark
//!   covering every batch up to and including that sequence number, so a
//!   receiver draining a pipelined window acks once per drain, not once
//!   per batch. Counts are deltas since the previous ack.
//! * `Ping` / `Pong` — heartbeats issued by the connection supervisor.
//!
//! Batch frames are assembled by [`Frame::batch_wire`] in one buffer: the
//! fixed header, the count, and each message's image behind its varint
//! length, the image's header, payload and property bytes copied straight
//! in ([`Message::wire_len`] sizes the buffer first).
//!
//! [`FrameReader`] is an incremental parser over a byte stream: it
//! tolerates short reads and read timeouts (frames split across segments
//! keep accumulating), which lets the acceptor poll its socket with a
//! bounded read timeout and still never lose framing.

use std::fmt;
use std::io::Read;

use bytes::Bytes;

use crate::codec::{crc32, CodecError, Decoder, Encoder, WireDecode, WireEncode};
use crate::message::Message;

/// Protocol magic, first field of every handshake payload (`"CMW1"`).
pub const MAGIC: u32 = 0x434D_5731;

/// Protocol version negotiated in the handshake. Version 4 carries each
/// message as the image of [`crate::codec`] (registered property names,
/// string values and queue names as one-byte codes, a conditional
/// message id as 16 bytes right after the flags byte, varint headers); a
/// peer of an earlier version is refused rather than misread.
pub const VERSION: u8 = 4;

/// Upper bound on one frame's body, guarding the decoder against
/// allocation bombs from corrupt or hostile length prefixes.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

/// Fixed body prefix: kind byte + sequence number.
const BODY_HEADER: usize = 1 + 8;

/// The kind of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameKind {
    /// Client handshake: magic, version, sender queue-manager name.
    Hello,
    /// Server handshake reply: magic, version, receiver name.
    HelloAck,
    /// A batch of transmission-queue envelopes.
    Batch,
    /// Acknowledgment of a batch: accepted + deduplicated counts.
    Ack,
    /// Heartbeat request.
    Ping,
    /// Heartbeat reply.
    Pong,
    /// Cumulative acknowledgment: `seq` is a watermark covering every
    /// batch up to and including it; counts are deltas since the last ack.
    AckWin,
}

// lint: registry-sink frame-kind
impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::HelloAck => 2,
            FrameKind::Batch => 3,
            FrameKind::Ack => 4,
            FrameKind::Ping => 5,
            FrameKind::Pong => 6,
            FrameKind::AckWin => 7,
        }
    }

    fn from_u8(v: u8) -> Result<FrameKind, FrameError> {
        Ok(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Batch,
            4 => FrameKind::Ack,
            5 => FrameKind::Ping,
            6 => FrameKind::Pong,
            7 => FrameKind::AckWin,
            other => return Err(FrameError::BadKind(other)),
        })
    }
}

/// Encoded length of a LEB128 varint.
fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros() as usize).max(1)).div_ceil(7)
}

/// A batch frame's payload: the message count, then each message's image
/// behind its varint length.
fn put_batch_payload(enc: &mut Encoder, messages: &[Message]) {
    enc.put_varint(messages.len() as u64);
    for msg in messages {
        enc.put_varint(msg.wire_len() as u64);
        msg.encode(enc);
    }
}

/// Errors produced while reading or decoding frames.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// The underlying stream failed (not a timeout; timeouts surface as
    /// [`FrameEvent::Idle`]).
    Io(std::io::Error),
    /// The byte stream violates the framing contract (bad length, CRC
    /// mismatch) and the connection cannot be trusted further.
    Corrupt(&'static str),
    /// A frame body failed to decode.
    Codec(CodecError),
    /// An unknown frame kind byte.
    BadKind(u8),
    /// A handshake payload carried the wrong magic or version.
    BadHandshake(&'static str),
    /// The frame body would exceed [`MAX_FRAME_BODY`]: the peer's decoder
    /// would reject it as implausible, so it must never hit the wire.
    TooLarge {
        /// The body size that was attempted.
        size: usize,
        /// The enforced ceiling ([`MAX_FRAME_BODY`]).
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Codec(e) => write!(f, "frame payload error: {e}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadHandshake(why) => write!(f, "bad handshake: {why}"),
            FrameError::TooLarge { size, max } => {
                write!(f, "frame body {size} bytes exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

/// One decoded frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sequence number; pairs batches/pings with their acks/pongs.
    pub seq: u64,
    /// Kind-specific payload bytes.
    pub payload: Bytes,
}

impl Frame {
    fn with_payload(kind: FrameKind, seq: u64, payload: Bytes) -> Frame {
        Frame { kind, seq, payload }
    }

    fn handshake_payload(name: &str) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u32(MAGIC);
        enc.put_u8(VERSION);
        enc.put_str(name);
        enc.finish()
    }

    /// Builds the client handshake frame carrying `name`.
    pub fn hello(name: &str) -> Frame {
        Frame::with_payload(FrameKind::Hello, 0, Frame::handshake_payload(name))
    }

    /// Builds the server handshake reply carrying `name`.
    pub fn hello_ack(name: &str) -> Frame {
        Frame::with_payload(FrameKind::HelloAck, 0, Frame::handshake_payload(name))
    }

    /// The wire footprint `msg` contributes to a batch payload: its
    /// [`WireEncode`] form plus the varint length prefix
    /// [`Frame::batch`] writes before it. The channel mover uses this to
    /// cut batches on a byte budget before [`Frame::encode`] would refuse
    /// the result.
    pub fn message_wire_len(msg: &Message) -> usize {
        let encoded = msg.wire_len();
        varint_len(encoded as u64) + encoded
    }

    /// Builds a batch frame carrying `messages` under sequence `seq`.
    ///
    /// Tests and diagnostics use this; the transport send path uses
    /// [`Frame::batch_wire`], which writes the identical bytes straight
    /// into the finished frame.
    pub fn batch(seq: u64, messages: &[Message]) -> Frame {
        let mut enc = Encoder::new();
        put_batch_payload(&mut enc, messages);
        Frame::with_payload(FrameKind::Batch, seq, enc.finish())
    }

    /// Assembles a batch frame's complete wire form (length, body, CRC)
    /// in one buffer, each message's image copied straight into it: the
    /// bytes of `Frame::batch(seq, messages).encode()` with one copy of
    /// each message instead of two.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the body would exceed
    /// [`MAX_FRAME_BODY`] (same contract as [`Frame::encode`]).
    pub fn batch_wire(seq: u64, messages: &[Message]) -> Result<Bytes, FrameError> {
        let body_len = BODY_HEADER
            + varint_len(messages.len() as u64)
            + messages.iter().map(Frame::message_wire_len).sum::<usize>();
        if body_len > MAX_FRAME_BODY {
            return Err(FrameError::TooLarge {
                size: body_len,
                max: MAX_FRAME_BODY,
            });
        }
        let mut enc = Encoder::with_capacity(4 + body_len + 4);
        enc.put_u32(body_len as u32);
        enc.put_u8(FrameKind::Batch.as_u8());
        enc.put_u64(seq);
        put_batch_payload(&mut enc, messages);
        let mut frame = enc.into_vec();
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());
        Ok(Bytes::from(frame))
    }

    /// Builds the acknowledgment for batch `seq`.
    pub fn ack(seq: u64, accepted: u64, deduplicated: u64) -> Frame {
        let mut enc = Encoder::new();
        enc.put_varint(accepted);
        enc.put_varint(deduplicated);
        Frame::with_payload(FrameKind::Ack, seq, enc.finish())
    }

    /// Builds a cumulative acknowledgment covering every batch sequence
    /// up to and including `watermark`; the counts are deltas since the
    /// receiver's previous ack on this connection.
    pub fn ack_win(watermark: u64, accepted: u64, deduplicated: u64) -> Frame {
        let mut enc = Encoder::new();
        enc.put_varint(accepted);
        enc.put_varint(deduplicated);
        Frame::with_payload(FrameKind::AckWin, watermark, enc.finish())
    }

    /// Builds a heartbeat request.
    pub fn ping(seq: u64) -> Frame {
        Frame::with_payload(FrameKind::Ping, seq, Bytes::new())
    }

    /// Builds a heartbeat reply.
    pub fn pong(seq: u64) -> Frame {
        Frame::with_payload(FrameKind::Pong, seq, Bytes::new())
    }

    /// Encodes the frame into its full wire form (length, body, CRC).
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the body would exceed
    /// [`MAX_FRAME_BODY`] — the receiving [`FrameReader`] rejects such a
    /// length as corrupt, so emitting it would wedge the connection in a
    /// reject/reconnect loop. (This also guards the `as u32` narrowing of
    /// the length prefix, which is impossible to overflow below the cap.)
    pub fn encode(&self) -> Result<Bytes, FrameError> {
        let mut body = Encoder::new();
        body.put_u8(self.kind.as_u8());
        body.put_u64(self.seq);
        let body_len = BODY_HEADER + self.payload.len();
        if body_len > MAX_FRAME_BODY {
            return Err(FrameError::TooLarge {
                size: body_len,
                max: MAX_FRAME_BODY,
            });
        }
        let mut out = Encoder::new();
        out.put_u32(body_len as u32);
        let body = body.finish();
        let mut framed = Vec::with_capacity(4 + body_len + 4);
        framed.extend_from_slice(&out.finish());
        framed.extend_from_slice(&body);
        framed.extend_from_slice(&self.payload);
        let crc = crc32(&framed[4..4 + body_len]);
        framed.extend_from_slice(&crc.to_le_bytes());
        Ok(Bytes::from(framed))
    }

    /// Decodes a handshake payload ([`Frame::hello`] / [`Frame::hello_ack`]),
    /// verifying magic and version, and returns the peer's name.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadHandshake`] on magic/version mismatch;
    /// [`FrameError::Codec`] on a malformed payload.
    pub fn decode_handshake(&self) -> Result<String, FrameError> {
        let mut dec = Decoder::new(self.payload.clone());
        if dec.get_u32()? != MAGIC {
            return Err(FrameError::BadHandshake("magic mismatch"));
        }
        if dec.get_u8()? != VERSION {
            return Err(FrameError::BadHandshake("version mismatch"));
        }
        Ok(dec.get_str()?)
    }

    /// Decodes a batch payload into its messages.
    ///
    /// # Errors
    ///
    /// [`FrameError::Codec`] when any message fails to decode.
    pub fn decode_batch(&self) -> Result<Vec<Message>, FrameError> {
        let mut dec = Decoder::new(self.payload.clone());
        let count = dec.get_varint()?;
        // Each message costs at least a length byte; a hostile count can
        // not force allocation beyond the already-bounded frame body.
        if count > self.payload.len() as u64 {
            return Err(FrameError::Corrupt("batch count exceeds payload"));
        }
        let mut messages = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let raw = dec.get_bytes()?;
            messages.push(Message::from_bytes(raw)?);
        }
        Ok(messages)
    }

    /// Decodes an ack payload into `(accepted, deduplicated)` counts.
    ///
    /// # Errors
    ///
    /// [`FrameError::Codec`] on a malformed payload.
    pub fn decode_ack(&self) -> Result<(u64, u64), FrameError> {
        let mut dec = Decoder::new(self.payload.clone());
        Ok((dec.get_varint()?, dec.get_varint()?))
    }
}

/// The outcome of one [`FrameReader::poll`].
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame was parsed.
    Frame(Frame),
    /// The read timed out before a complete frame arrived; partial bytes
    /// stay buffered and the caller may poll again.
    Idle,
    /// The peer closed the connection.
    Closed,
}

/// Incremental frame parser over a byte stream.
///
/// Keeps an internal buffer across polls so frames split over multiple
/// reads — or interleaved with read timeouts — are reassembled without
/// ever desynchronizing the stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads from `stream` until one complete frame is parsed, the read
    /// times out ([`FrameEvent::Idle`]), or the peer closes
    /// ([`FrameEvent::Closed`]).
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] on non-timeout stream failures;
    /// [`FrameError::Corrupt`] / [`FrameError::BadKind`] when the byte
    /// stream violates framing (the connection should be dropped).
    pub fn poll(&mut self, stream: &mut dyn Read) -> Result<FrameEvent, FrameError> {
        loop {
            if let Some(frame) = self.try_parse()? {
                return Ok(FrameEvent::Frame(frame));
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(FrameEvent::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FrameEvent::Idle)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Attempts to parse one frame from the buffered bytes.
    fn try_parse(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&self.buf[..4]);
        let body_len = u32::from_le_bytes(len_bytes) as usize;
        if !(BODY_HEADER..=MAX_FRAME_BODY).contains(&body_len) {
            return Err(FrameError::Corrupt("implausible frame length"));
        }
        let total = 4 + body_len + 4;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = &self.buf[4..4 + body_len];
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&self.buf[4 + body_len..total]);
        if crc32(body) != u32::from_le_bytes(crc_bytes) {
            return Err(FrameError::Corrupt("crc mismatch"));
        }
        let kind = FrameKind::from_u8(body[0])?;
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&body[1..9]);
        let seq = u64::from_le_bytes(seq_bytes);
        let payload = Bytes::from(body[BODY_HEADER..].to_vec());
        self.buf.drain(..total);
        Ok(Some(Frame { kind, seq, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_one(bytes: &[u8]) -> Frame {
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(bytes.to_vec());
        match reader.poll(&mut cursor).unwrap() {
            FrameEvent::Frame(f) => f,
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn handshake_roundtrips() {
        let frame = read_one(&Frame::hello("QM.SEND").encode().unwrap());
        assert_eq!(frame.kind, FrameKind::Hello);
        assert_eq!(frame.decode_handshake().unwrap(), "QM.SEND");
        let ack = read_one(&Frame::hello_ack("QM.RECV").encode().unwrap());
        assert_eq!(ack.kind, FrameKind::HelloAck);
        assert_eq!(ack.decode_handshake().unwrap(), "QM.RECV");
    }

    #[test]
    fn a_hello_of_an_earlier_version_is_refused() {
        // Version 1 spelled property names out, version 2 property values,
        // queue names and conditional ids; version 3 wrote a conditional id
        // after the other headers.
        for version in [1, 2, 3] {
            let mut payload = Encoder::new();
            payload.put_u32(MAGIC);
            payload.put_u8(version);
            payload.put_str("QM.OLD");
            let old = Frame::with_payload(FrameKind::Hello, 0, payload.finish());
            let frame = read_one(&old.encode().unwrap());
            assert!(matches!(
                frame.decode_handshake(),
                Err(FrameError::BadHandshake("version mismatch"))
            ));
        }
    }

    #[test]
    fn batch_roundtrips_messages() {
        let msgs = vec![
            Message::text("a").persistent(true).build(),
            Message::text("b").property("k", 7i64).build(),
        ];
        let frame = read_one(&Frame::batch(42, &msgs).encode().unwrap());
        assert_eq!(frame.kind, FrameKind::Batch);
        assert_eq!(frame.seq, 42);
        let back = frame.decode_batch().unwrap();
        assert_eq!(back, msgs);
    }

    #[test]
    fn ack_roundtrips_counts() {
        let frame = read_one(&Frame::ack(9, 5, 2).encode().unwrap());
        assert_eq!(frame.kind, FrameKind::Ack);
        assert_eq!(frame.seq, 9);
        assert_eq!(frame.decode_ack().unwrap(), (5, 2));
    }

    #[test]
    fn ack_win_roundtrips_watermark_and_counts() {
        let frame = read_one(&Frame::ack_win(37, 128, 3).encode().unwrap());
        assert_eq!(frame.kind, FrameKind::AckWin);
        assert_eq!(frame.seq, 37);
        assert_eq!(frame.decode_ack().unwrap(), (128, 3));
    }

    #[test]
    fn batch_wire_is_byte_identical_to_contiguous_encode() {
        for msgs in [
            vec![],
            vec![Message::text("a").build()],
            vec![
                Message::text("x".repeat(200)).property("k", 7i64).build(),
                Message::text("").persistent(true).build(),
                Message::text("y".repeat(5000)).build(),
            ],
        ] {
            let contiguous = Frame::batch(99, &msgs).encode().unwrap();
            let wire = Frame::batch_wire(99, &msgs).unwrap();
            assert_eq!(wire, contiguous);
            // And it parses back through the normal reader.
            let frame = read_one(&wire);
            assert_eq!(frame.decode_batch().unwrap(), msgs);
        }
    }

    #[test]
    fn batch_wire_refuses_oversized_bodies() {
        let huge = Message::text("x".repeat(MAX_FRAME_BODY)).build();
        assert!(matches!(
            Frame::batch_wire(1, std::slice::from_ref(&huge)),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn ping_pong_are_empty() {
        let ping = read_one(&Frame::ping(3).encode().unwrap());
        assert_eq!(ping.kind, FrameKind::Ping);
        assert!(ping.payload.is_empty());
        let pong = read_one(&Frame::pong(3).encode().unwrap());
        assert_eq!(pong.kind, FrameKind::Pong);
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut raw = Frame::ack(1, 1, 0).encode().unwrap().to_vec();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(raw);
        assert!(matches!(
            reader.poll(&mut cursor),
            Err(FrameError::Corrupt(_)) | Err(FrameError::BadKind(_))
        ));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut raw = Frame::ping(1).encode().unwrap().to_vec();
        raw[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(raw);
        assert!(matches!(
            reader.poll(&mut cursor),
            Err(FrameError::Corrupt("implausible frame length"))
        ));
    }

    #[test]
    fn frames_reassemble_across_split_reads() {
        // A reader that hands out one byte at a time: the frame must
        // reassemble across many short reads.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let msgs = vec![Message::text("split").build()];
        let mut stream = OneByte(Cursor::new(Frame::batch(7, &msgs).encode().unwrap().to_vec()));
        let mut reader = FrameReader::new();
        match reader.poll(&mut stream).unwrap() {
            FrameEvent::Frame(f) => assert_eq!(f.decode_batch().unwrap(), msgs),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn two_frames_in_one_buffer_parse_sequentially() {
        let mut raw = Frame::ping(1).encode().unwrap().to_vec();
        raw.extend_from_slice(&Frame::pong(2).encode().unwrap());
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(raw);
        let first = match reader.poll(&mut cursor).unwrap() {
            FrameEvent::Frame(f) => f,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.kind, FrameKind::Ping);
        let second = match reader.poll(&mut cursor).unwrap() {
            FrameEvent::Frame(f) => f,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.kind, FrameKind::Pong);
        assert!(matches!(
            reader.poll(&mut cursor).unwrap(),
            FrameEvent::Closed
        ));
    }

    #[test]
    fn oversized_body_refuses_to_encode() {
        let huge = Message::text("x".repeat(MAX_FRAME_BODY)).build();
        let err = Frame::batch(1, std::slice::from_ref(&huge))
            .encode()
            .unwrap_err();
        match err {
            FrameError::TooLarge { size, max } => {
                assert!(size > max);
                assert_eq!(max, MAX_FRAME_BODY);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn message_wire_len_matches_batch_payload_growth() {
        let a = Message::text("short").build();
        let b = Message::text("y".repeat(300)).property("k", 1i64).build();
        let empty = Frame::batch(0, &[]).payload.len();
        let one = Frame::batch(0, std::slice::from_ref(&a)).payload.len();
        let two = Frame::batch(0, &[a.clone(), b.clone()]).payload.len();
        assert_eq!(one - empty, Frame::message_wire_len(&a));
        assert_eq!(two - one, Frame::message_wire_len(&b));
    }

    #[test]
    fn eof_reports_closed() {
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(Vec::new());
        assert!(matches!(
            reader.poll(&mut cursor).unwrap(),
            FrameEvent::Closed
        ));
    }
}
