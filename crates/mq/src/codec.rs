//! Self-contained binary codec used for journal records and cross-manager
//! message framing.
//!
//! The format is deliberately simple: little-endian fixed-width integers,
//! LEB128 varints for lengths, length-prefixed UTF-8 strings, and a `u8` tag
//! per enum variant. [`crc32`] provides integrity checking for journal
//! framing ([`crate::journal`]).
//!
//! A [`Message`] has one image, which the journal and the wire both carry:
//!
//! ```text
//! id: u128 LE │ priority: u8 │ flags: u8 │ correlation id: u128 LE?
//! │ payload: varint len + bytes
//! │ property count: varint │ per property: name: wstr
//! │   │ value: tag u8 + value (Str as a wstr, I64 as a zigzag varint)
//! │ ttl: varint? │ expiry: varint? │ correlation id: str?
//! │ reply-to: str str? │ put time: varint? │ redelivery count: varint
//! ```
//!
//! A `wstr` ([`Encoder::put_wire_str`]) listed in
//! [`crate::obs::WIRE_STRING_REGISTRY`] is written as its position + 1;
//! any other string as `0` followed by the string. Bit 0 of `flags` is
//! persistence; each `?` header is present exactly when its own bit is
//! set, and an absent one takes no bytes. A correlation id of exactly 32
//! lowercase hex digits (a conditional message id) takes 16 bytes under
//! its own bit, at a fixed offset right after the flags, and reads back as
//! the same string; any other is a string.
//!
//! Inside a journal record ([`Encoder::put_image`], [`Decoder::get_image`])
//! an image differs from the message's own in two ways, and the wire never
//! does either:
//! * an image that follows another image with the same payload leaves its
//!   payload out and sets bit 7 of `flags`: a fan-out writes its payload
//!   once;
//! * the message id and the 16-byte correlation id are written relative
//!   to the id written just before them in the record ([`IdCursor`]):
//!   ids of one process are consecutive ([`MessageId::generate`]), so most
//!   take one or two bytes instead of sixteen.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use simtime::{Millis, Time};

use crate::message::{Message, MessageId, Priority, PropertyValue, QueueAddress};
use crate::obs::WIRE_STRING_REGISTRY;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// A declared length exceeds the remaining buffer (corruption guard).
    LengthOverrun {
        /// Declared length.
        declared: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A wire-string code beyond the registry this build knows.
    UnknownWireString(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::BadTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::LengthOverrun {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining {remaining} bytes"
                )
            }
            CodecError::UnknownWireString(code) => {
                write!(f, "unknown wire-string code {code}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Streaming encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Finishes encoding and returns the bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.put_u128_le(v);
    }

    /// Appends an `i64` as a zigzag varint: small magnitudes of either sign
    /// take few bytes.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(zigzag(v));
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_raw(v);
    }

    /// Appends already-encoded bytes as they are, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a string that may be well known: one listed in
    /// [`WIRE_STRING_REGISTRY`] as its code (position + 1, one byte), any
    /// other as `0` followed by the string. Property names, `Str` property
    /// values and queue names are written this way.
    pub fn put_wire_str(&mut self, v: &str) {
        match wire_string_codes().get(v) {
            Some(code) => self.put_varint(*code),
            None => {
                self.put_varint(0);
                self.put_str(v);
            }
        }
    }

    /// Appends an optional value: absence tag `0`, presence tag `1` + value.
    pub fn put_opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Encoder, &T)) {
        match v {
            None => self.put_u8(0),
            Some(inner) => {
                self.put_u8(1);
                f(self, inner);
            }
        }
    }
}

/// Streaming decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Creates a decoder over the given bytes.
    pub fn new(buf: Bytes) -> Decoder {
        Decoder { buf }
    }

    /// Bytes remaining to decode.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Whether all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.remaining() < n {
            Err(CodecError::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        self.need(16)?;
        Ok(self.buf.get_u128_le())
    }

    /// Reads an `i64` written with [`Encoder::put_zigzag`].
    pub fn get_zigzag(&mut self) -> Result<i64, CodecError> {
        self.get_varint().map(unzigzag)
    }

    /// Reads a boolean byte (`0` or `1`; anything else is a bad tag).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(CodecError::VarintOverflow);
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.get_varint()?;
        if len > self.buf.remaining() as u64 {
            return Err(CodecError::LengthOverrun {
                declared: len,
                remaining: self.buf.remaining(),
            });
        }
        Ok(self.buf.copy_to_bytes(len as usize))
    }

    /// Reads a varint that must fit a `u32`.
    pub fn get_varint_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.get_varint()?).map_err(|_| CodecError::VarintOverflow)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a string written with [`Encoder::put_wire_str`].
    pub fn get_wire_str(&mut self) -> Result<String, CodecError> {
        match self.get_varint()? {
            0 => self.get_str(),
            code => usize::try_from(code - 1)
                .ok()
                .and_then(|at| WIRE_STRING_REGISTRY.get(at))
                .map(|s| (*s).to_owned())
                .ok_or(CodecError::UnknownWireString(code)),
        }
    }

    /// Reads an optional value written with [`Encoder::put_opt`].
    pub fn get_opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Decoder) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(CodecError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

/// Types that can be written to an [`Encoder`].
pub trait WireEncode {
    /// Appends this value to the encoder.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encodes into a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

/// Types that can be read back from a [`Decoder`].
pub trait WireDecode: Sized {
    /// Decodes one value from the decoder.
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError>;

    /// Convenience: decodes from a byte buffer, requiring full consumption.
    fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(CodecError::LengthOverrun {
                declared: 0,
                remaining: dec.remaining(),
            });
        }
        Ok(v)
    }
}

impl WireEncode for PropertyValue {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PropertyValue::Str(s) => {
                enc.put_u8(0);
                enc.put_wire_str(s);
            }
            PropertyValue::I64(v) => {
                enc.put_u8(1);
                enc.put_zigzag(*v);
            }
            PropertyValue::Bool(b) => {
                enc.put_u8(3);
                enc.put_bool(*b);
            }
        }
    }
}

impl WireDecode for PropertyValue {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(PropertyValue::Str(dec.get_wire_str()?)),
            1 => Ok(PropertyValue::I64(dec.get_zigzag()?)),
            3 => Ok(PropertyValue::Bool(dec.get_bool()?)),
            tag => Err(CodecError::BadTag {
                what: "PropertyValue",
                tag,
            }),
        }
    }
}

impl WireEncode for QueueAddress {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.manager);
        enc.put_str(&self.queue);
    }
}

impl WireDecode for QueueAddress {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok(QueueAddress {
            manager: dec.get_str()?,
            queue: dec.get_str()?,
        })
    }
}

/// Process-wide count of full [`Message`] encodes, registered in every
/// manager's metrics hub as `mq.codec.encodes`. The journal and the
/// zero-copy send path share the image cached on the message
/// ([`Message::wire_bytes`]), so a message crossing the transport should
/// contribute exactly one encode — throughput tests assert that by
/// diffing this counter.
pub fn message_encodes() -> &'static std::sync::Arc<crate::stats::Counter> {
    static ENCODES: std::sync::OnceLock<std::sync::Arc<crate::stats::Counter>> =
        std::sync::OnceLock::new();
    ENCODES.get_or_init(Default::default)
}

impl Message {
    /// The message's encoded image, computed on first use and cached on
    /// the message (clones share the cache; any mutation invalidates it).
    /// The journal writes these bytes into its records and the transport
    /// builds batch frames from them without copying, so a durable message
    /// that crosses a channel is encoded once.
    pub fn wire_bytes(&self) -> Bytes {
        self.wire_cache()
            .get_or_init(|| WireEncode::to_bytes(self))
            .clone()
    }

    /// Encoded wire length without forcing a copy of the bytes out of the
    /// cache (used by the channel mover's byte-budget accounting).
    pub fn wire_len(&self) -> usize {
        self.wire_bytes().len()
    }
}

/// Where the flags byte sits in an image: after the id and the priority.
const FLAGS_AT: usize = 16 + 1;

/// Where a 16-byte correlation id sits in an image, when flags say one
/// is there: right after the flags.
const CORRELATION_AT: usize = FLAGS_AT + 1;

/// `v` with its sign in bit 0, so small magnitudes of either sign are
/// small numbers.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// The id last written (or read) in one journal record: each `u128` id of
/// the record is written relative to it ([`Encoder::put_id`]). Every record
/// starts from a fresh cursor (0), so no record refers to another, and its
/// first id, whose epoch is never 0, is written whole.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdCursor(u128);

impl Encoder {
    /// Appends `id` relative to the id before it in the record and moves
    /// the cursor to it: when the high halves match, the zigzag difference
    /// of the low halves plus one as a varint; otherwise a `0` escape and
    /// the id as a `u128`.
    pub fn put_id(&mut self, id: u128, cursor: &mut IdCursor) {
        let previous = std::mem::replace(&mut cursor.0, id);
        let delta = zigzag((id as u64).wrapping_sub(previous as u64) as i64);
        if id >> 64 == previous >> 64 && delta != u64::MAX {
            self.put_varint(delta + 1);
        } else {
            self.put_varint(0);
            self.put_u128(id);
        }
    }
}

impl Decoder {
    /// Reads an id written with [`Encoder::put_id`] and moves the cursor to
    /// it.
    pub fn get_id(&mut self, cursor: &mut IdCursor) -> Result<u128, CodecError> {
        let id = match self.get_varint()? {
            0 => self.get_u128()?,
            delta => {
                let low = (cursor.0 as u64).wrapping_add(unzigzag(delta - 1) as u64);
                cursor.0 >> 64 << 64 | u128::from(low)
            }
        };
        cursor.0 = id;
        Ok(id)
    }
}

/// The bytes [`Encoder::put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// The bits of a message image's flags byte: persistence, one presence
/// bit per optional header, and the journal's payload elision.
mod flag {
    /// The message survives a restart.
    pub(super) const PERSISTENT: u8 = 1;
    /// A time-to-live follows.
    pub(super) const TTL: u8 = 1 << 1;
    /// An absolute expiry follows.
    pub(super) const EXPIRY: u8 = 1 << 2;
    /// A correlation id follows as a string.
    pub(super) const CORRELATION: u8 = 1 << 3;
    /// A reply-to address follows.
    pub(super) const REPLY_TO: u8 = 1 << 4;
    /// An enqueue time follows.
    pub(super) const PUT_TIME: u8 = 1 << 5;
    /// A correlation id of 32 lowercase hex digits follows as a `u128`.
    pub(super) const CORRELATION_U128: u8 = 1 << 6;
    /// No payload follows: it is the previous image's in the same journal
    /// record.
    pub(super) const SAME_PAYLOAD: u8 = 1 << 7;
}

/// Registered wire string → its code (position + 1).
fn wire_string_codes() -> &'static HashMap<&'static str, u64> {
    static CODES: OnceLock<HashMap<&'static str, u64>> = OnceLock::new();
    CODES.get_or_init(|| {
        (1..)
            .zip(WIRE_STRING_REGISTRY)
            .map(|(code, s)| (*s, code))
            .collect()
    })
}

/// The value of a correlation id in the one form that reads back from a
/// `u128` unchanged: exactly 32 lowercase hex digits.
fn correlation_u128(corr: &str) -> Option<u128> {
    let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    if corr.len() != 32 || !corr.bytes().all(lower_hex) {
        return None;
    }
    u128::from_str_radix(corr, 16).ok()
}

impl WireEncode for Message {
    fn encode(&self, enc: &mut Encoder) {
        message_encodes().incr();
        enc.put_u128(self.id().as_u128());
        enc.put_u8(self.priority().level());
        let corr_u128 = self.correlation_id().and_then(correlation_u128);
        let headers = [
            (self.is_persistent(), flag::PERSISTENT),
            (self.ttl().is_some(), flag::TTL),
            (self.expiry().is_some(), flag::EXPIRY),
            (
                self.correlation_id().is_some() && corr_u128.is_none(),
                flag::CORRELATION,
            ),
            (self.reply_to().is_some(), flag::REPLY_TO),
            (self.put_time().is_some(), flag::PUT_TIME),
            (corr_u128.is_some(), flag::CORRELATION_U128),
        ];
        let flags = headers
            .iter()
            .filter(|(present, _)| *present)
            .fold(0, |f, (_, bit)| f | bit);
        enc.put_u8(flags);
        if let Some(id) = corr_u128 {
            enc.put_u128(id);
        }
        enc.put_bytes(self.payload());
        enc.put_varint(self.properties().count() as u64);
        for (name, value) in self.properties() {
            enc.put_wire_str(name);
            value.encode(enc);
        }
        if let Some(ttl) = self.ttl() {
            enc.put_varint(ttl.as_u64());
        }
        if let Some(expiry) = self.expiry() {
            enc.put_varint(expiry.as_millis());
        }
        if let (None, Some(corr)) = (corr_u128, self.correlation_id()) {
            enc.put_str(corr);
        }
        if let Some(reply_to) = self.reply_to() {
            reply_to.encode(enc);
        }
        if let Some(put_time) = self.put_time() {
            enc.put_varint(put_time.as_millis());
        }
        enc.put_varint(u64::from(self.redelivery_count()));
    }
}

impl Encoder {
    /// Appends `message`'s cached image ([`Message::wire_bytes`]) as the
    /// image that follows `previous` in a journal record, its message id
    /// and 16-byte correlation id written relative to `ids`
    /// ([`Encoder::put_id`]). When `previous` carries the same payload, the
    /// payload is left out and bit 7 of the flags byte says so;
    /// [`Decoder::get_image`] given that payload and cursor reads it back.
    pub fn put_image(&mut self, message: &Message, previous: Option<&Message>, ids: &mut IdCursor) {
        let image = message.wire_bytes();
        let id_at = |at: usize| image.slice(at..at + 16).get_u128_le();
        let payload = message.payload();
        let same_payload = previous.is_some_and(|p| p.payload() == payload);
        let flags = image[FLAGS_AT];
        self.put_id(id_at(0), ids);
        self.put_u8(image[FLAGS_AT - 1]);
        self.put_u8(if same_payload {
            flags | flag::SAME_PAYLOAD
        } else {
            flags
        });
        let mut rest = CORRELATION_AT;
        if flags & flag::CORRELATION_U128 != 0 {
            self.put_id(id_at(rest), ids);
            rest += 16;
        }
        if same_payload {
            // Only `WireEncode` fills the cache, so the payload's length is
            // a minimal varint.
            rest += varint_len(payload.len() as u64) + payload.len();
        }
        self.put_raw(&image[rest..]);
    }
}

impl WireDecode for Message {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        dec.get_message(None, Decoder::get_u128)
    }
}

impl Decoder {
    /// Reads an image written with [`Encoder::put_image`] after an image
    /// whose payload was `previous`, its ids relative to `ids`. An image
    /// that leaves its payload out where no previous payload exists is a
    /// `BadTag`.
    pub fn get_image(
        &mut self,
        previous: Option<&Bytes>,
        ids: &mut IdCursor,
    ) -> Result<Message, CodecError> {
        self.get_message(previous, |dec| dec.get_id(ids))
    }

    /// Reads an image whose ids `get_id` reads: whole on the wire, relative
    /// in a journal record.
    fn get_message(
        &mut self,
        previous: Option<&Bytes>,
        mut get_id: impl FnMut(&mut Decoder) -> Result<u128, CodecError>,
    ) -> Result<Message, CodecError> {
        let id = MessageId::from_u128(get_id(self)?);
        let priority = Priority::new(self.get_u8()?);
        let flags = self.get_u8()?;
        let both_correlations = flag::CORRELATION | flag::CORRELATION_U128;
        let same_payload = flags & flag::SAME_PAYLOAD != 0;
        if (same_payload && previous.is_none()) || flags & both_correlations == both_correlations {
            return Err(CodecError::BadTag {
                what: "message flags",
                tag: flags,
            });
        }
        let has = |bit: u8| flags & bit != 0;
        let correlation_u128 = has(flag::CORRELATION_U128)
            .then(|| get_id(self))
            .transpose()?;
        let payload = match previous.filter(|_| same_payload) {
            Some(payload) => payload.clone(),
            None => self.get_bytes()?,
        };
        let n_props = self.get_varint()?;
        let mut properties = BTreeMap::new();
        for _ in 0..n_props {
            let name = self.get_wire_str()?;
            let value = PropertyValue::decode(self)?;
            properties.insert(name, value);
        }
        let persistent = has(flag::PERSISTENT);
        let ttl = has(flag::TTL)
            .then(|| self.get_varint().map(Millis))
            .transpose()?;
        let expiry = has(flag::EXPIRY)
            .then(|| self.get_varint().map(Time))
            .transpose()?;
        let correlation_id = match correlation_u128 {
            Some(id) => Some(format!("{id:032x}")),
            None => has(flag::CORRELATION).then(|| self.get_str()).transpose()?,
        };
        let reply_to = has(flag::REPLY_TO)
            .then(|| QueueAddress::decode(self))
            .transpose()?;
        let put_time = has(flag::PUT_TIME)
            .then(|| self.get_varint().map(Time))
            .transpose()?;
        let redelivery_count = self.get_varint_u32()?;
        Ok(Message::from_parts(
            id,
            payload,
            properties,
            priority,
            persistent,
            ttl,
            expiry,
            correlation_id,
            reply_to,
            put_time,
            redelivery_count,
        ))
    }
}

fn crc32_table() -> &'static [u32; 256] {
    const POLY: u32 = 0xEDB8_8320;
    // Table computed once; 256 entries.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// Starts an incremental CRC-32 computation; feed slices through
/// [`crc32_update`] and close with [`crc32_finish`]. Lets the transport
/// checksum a frame assembled from scattered segments without first
/// flattening them into one buffer.
pub fn crc32_begin() -> u32 {
    0xFFFF_FFFF
}

/// Folds `data` into an in-progress CRC-32 state.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = state;
    for &byte in data {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// Finalizes an incremental CRC-32 state into the checksum value.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), used to frame journal records.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_begin(), data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_u128(u128::MAX - 1);
        enc.put_zigzag(-42);
        enc.put_zigzag(i64::MIN);
        enc.put_bool(true);
        enc.put_str("héllo");
        enc.put_bytes(&[1, 2, 3]);
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_u128().unwrap(), u128::MAX - 1);
        assert_eq!(dec.get_zigzag().unwrap(), -42);
        assert_eq!(dec.get_zigzag().unwrap(), i64::MIN);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_str().unwrap(), "héllo");
        assert_eq!(dec.get_bytes().unwrap().as_ref(), &[1, 2, 3]);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            assert_eq!(varint_len(v), enc.len(), "{v}");
            let mut dec = Decoder::new(enc.finish());
            assert_eq!(dec.get_varint().unwrap(), v);
            assert!(dec.is_exhausted());
        }
    }

    #[test]
    fn an_id_is_a_delta_within_its_epoch_and_whole_across_epochs() {
        let epoch = 0x1234_u128 << 64;
        let cases = [
            // (previous, id, bytes written)
            (epoch | 10, epoch | 11, 1),
            (epoch | 11, epoch | 11, 1),
            (epoch | 11, epoch | 10, 1),
            (epoch | 10, epoch | 73, 1),
            (epoch | 10, epoch | 74, 2),
            (epoch | 73, epoch | 10, 1),
            (epoch | 74, epoch | 10, 2),
            (epoch, epoch | u128::from(u64::MAX), 1),
            (epoch | u128::from(u64::MAX), epoch, 1),
            (0, epoch | 5, 17),
            (epoch | 5, (epoch << 1) | 5, 17),
            // The one low-half difference whose zigzag+1 would overflow.
            (epoch, epoch | 1 << 63, 17),
        ];
        for (previous, id, len) in cases {
            let mut enc = Encoder::new();
            enc.put_id(id, &mut IdCursor(previous));
            assert_eq!(enc.len(), len, "{previous:x} -> {id:x}");
            let mut cursor = IdCursor(previous);
            let mut dec = Decoder::new(enc.finish());
            assert_eq!(dec.get_id(&mut cursor).unwrap(), id);
            assert_eq!(cursor.0, id);
            assert!(dec.is_exhausted());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes would encode > 64 bits.
        let bytes = Bytes::from(vec![0xFFu8; 11]);
        let mut dec = Decoder::new(bytes);
        assert_eq!(dec.get_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn eof_detected() {
        let mut dec = Decoder::new(Bytes::from_static(&[1, 2]));
        assert_eq!(dec.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn length_overrun_detected() {
        let mut enc = Encoder::new();
        enc.put_varint(1000); // declared length far beyond actual content
        enc.put_u8(1);
        let mut dec = Decoder::new(enc.finish());
        assert!(matches!(
            dec.get_bytes(),
            Err(CodecError::LengthOverrun { declared: 1000, .. })
        ));
    }

    #[test]
    fn bad_bool_tag() {
        let mut dec = Decoder::new(Bytes::from_static(&[9]));
        assert_eq!(
            dec.get_bool(),
            Err(CodecError::BadTag {
                what: "bool",
                tag: 9
            })
        );
    }

    #[test]
    fn option_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_opt(None::<&u64>, |e, v| e.put_u64(*v));
        enc.put_opt(Some(&99u64), |e, v| e.put_u64(*v));
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_opt(|d| d.get_u64()).unwrap(), None);
        assert_eq!(dec.get_opt(|d| d.get_u64()).unwrap(), Some(99));
    }

    #[test]
    fn property_value_roundtrips() {
        roundtrip(&PropertyValue::Str("abc".into()));
        roundtrip(&PropertyValue::I64(-5));
        roundtrip(&PropertyValue::Bool(false));
    }

    #[test]
    fn queue_address_roundtrips() {
        roundtrip(&QueueAddress::new("QM1", "Q.A"));
    }

    #[test]
    fn full_message_roundtrips() {
        let mut msg = Message::text("payload")
            .property("str", "v")
            .property("int", -3i64)
            .property("bool", true)
            .priority(Priority::new(9))
            .persistent(true)
            .ttl(Millis(123))
            .correlation_id("corr")
            .reply_to(QueueAddress::new("QM2", "REPLY"))
            .build();
        msg.stamp_enqueue(Time(77));
        roundtrip(&msg);
    }

    #[test]
    fn minimal_message_roundtrips() {
        let msg = Message::builder(Bytes::new()).build();
        roundtrip(&msg);
    }

    #[test]
    fn absent_headers_take_no_bytes() {
        // id, priority, flags, empty payload length, property count,
        // redelivery count.
        let msg = Message::builder(Bytes::new()).build();
        assert_eq!(msg.to_bytes().len(), 16 + 1 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn registered_strings_are_one_byte_codes_and_others_literal() {
        for s in WIRE_STRING_REGISTRY {
            let mut enc = Encoder::new();
            enc.put_wire_str(s);
            assert_eq!(enc.len(), 1, "{s}");
            assert_eq!(Decoder::new(enc.finish()).get_wire_str().unwrap(), *s);
        }
        let bare = Message::builder(Bytes::new()).build().to_bytes().len();
        let with = |name: &str, value: &str| {
            let msg = Message::builder(Bytes::new()).property(name, value).build();
            let image = msg.to_bytes();
            assert_eq!(Message::from_bytes(image.clone()).unwrap(), msg);
            image.len() - bare
        };
        let (name, value) = (WIRE_STRING_REGISTRY[0], "DS.ACK.Q");
        // Name code, value tag, value code.
        assert_eq!(with(name, value), 3);
        // 0, length, the name; value tag, 0, length, the value.
        assert_eq!(
            with("app.dest", "Q.IN"),
            2 + "app.dest".len() + 1 + 2 + "Q.IN".len()
        );
    }

    #[test]
    fn an_image_after_one_with_the_same_payload_leaves_the_payload_out() {
        let payload = Bytes::from(vec![7u8; 200]);
        let first = Message::builder(payload.clone())
            .property("leaf", 0i64)
            .build();
        let second = Message::builder(payload).property("leaf", 1i64).build();
        let other = Message::text("other").build();
        let mut enc = Encoder::new();
        let mut ids = IdCursor::default();
        enc.put_image(&first, None, &mut ids);
        enc.put_image(&second, Some(&first), &mut ids);
        enc.put_image(&other, Some(&second), &mut ids);
        // The second image loses its payload's two length bytes and 200
        // payload bytes; a different payload is written in full. Each id
        // takes the bytes of its relative form instead of 16.
        let mut id_forms = Encoder::new();
        let mut cursor = IdCursor::default();
        for m in [&first, &second, &other] {
            id_forms.put_id(m.id().as_u128(), &mut cursor);
        }
        let full = first.wire_len() + second.wire_len() + other.wire_len();
        assert_eq!(enc.len(), full - 3 * 16 + id_forms.len() - 2 - 200);
        let mut dec = Decoder::new(enc.finish());
        let mut ids = IdCursor::default();
        let a = dec.get_image(None, &mut ids).unwrap();
        let b = dec.get_image(Some(a.payload()), &mut ids).unwrap();
        let c = dec.get_image(Some(b.payload()), &mut ids).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!((&a, &b, &c), (&first, &second, &other));
        // The copies read back share one buffer.
        assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
        // The message's own image, which the mover sends, is whole.
        assert_eq!(Message::from_bytes(second.wire_bytes()).unwrap(), second);
    }

    #[test]
    fn unknown_string_codes_and_invalid_flags_are_refused() {
        let msg = Message::text("x")
            .property(WIRE_STRING_REGISTRY[0], 1i64)
            .build();
        let image = msg.to_bytes().to_vec();
        // id 0..16, priority 16, flags 17, payload 18..20, count 20, code 21,
        // value tag 22.
        let unknown = WIRE_STRING_REGISTRY.len() as u8 + 1;
        let mut bad_code = image.clone();
        bad_code[21] = unknown;
        assert_eq!(
            Message::from_bytes(Bytes::from(bad_code)),
            Err(CodecError::UnknownWireString(u64::from(unknown)))
        );
        // Tag 2 names no property value type.
        let mut bad_value = image.clone();
        bad_value[22] = 2;
        assert_eq!(
            Message::from_bytes(Bytes::from(bad_value)),
            Err(CodecError::BadTag {
                what: "PropertyValue",
                tag: 2
            })
        );
        // A payload elision with no previous image to take the payload
        // from (a message's own image: the wire, a checkpoint row, the
        // first put of a record) is refused like both correlation bits.
        let both_correlations = flag::CORRELATION | flag::CORRELATION_U128;
        for bits in [flag::SAME_PAYLOAD, both_correlations] {
            let mut bad_flags = image.clone();
            bad_flags[17] |= bits;
            assert!(matches!(
                Message::from_bytes(Bytes::from(bad_flags)),
                Err(CodecError::BadTag {
                    what: "message flags",
                    ..
                })
            ));
        }
    }

    #[test]
    fn trailing_garbage_rejected_by_from_bytes() {
        let msg = Message::text("x").build();
        let mut raw = msg.to_bytes().to_vec();
        raw.push(0xAB);
        assert!(Message::from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_incremental_matches_one_shot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for split in [0, 1, 10, data.len()] {
            let mut state = crc32_begin();
            state = crc32_update(state, &data[..split]);
            state = crc32_update(state, &data[split..]);
            assert_eq!(crc32_finish(state), crc32(data));
        }
    }

    #[test]
    fn wire_bytes_caches_and_counts_one_encode() {
        // "One encode" is asserted on the cached image's identity (the
        // same buffer comes back), not on deltas of the process-wide
        // `mq.codec.encodes` counter: other tests encode in parallel.
        let msg = Message::text("cached").build();
        let before = message_encodes().get();
        let a = msg.wire_bytes();
        let b = msg.wire_bytes();
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr(), "second call re-encoded");
        assert_eq!(msg.wire_len(), a.len());
        assert!(message_encodes().get() > before, "the encode was counted");
        // Clones share the cached image; no further encode happens.
        let cloned = msg.clone();
        assert_eq!(cloned.wire_bytes().as_ptr(), a.as_ptr());
        // A mutation invalidates the cache on the mutated copy only.
        let mut mutated = msg.clone();
        mutated.set_property("k", 1i64);
        assert_ne!(mutated.wire_bytes(), a);
        assert_eq!(msg.wire_bytes().as_ptr(), a.as_ptr());
    }

    #[test]
    fn crc32_detects_bitflip() {
        let msg = Message::text("important").persistent(true).build();
        let bytes = msg.to_bytes();
        let good = crc32(&bytes);
        let mut flipped = bytes.to_vec();
        flipped[0] ^= 0x01;
        assert_ne!(crc32(&flipped), good);
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_property() -> impl Strategy<Value = PropertyValue> {
            prop_oneof![
                any::<String>().prop_map(PropertyValue::Str),
                any::<i64>().prop_map(PropertyValue::I64),
                any::<bool>().prop_map(PropertyValue::Bool),
            ]
        }

        proptest! {
            #[test]
            fn varint_roundtrips(v in any::<u64>()) {
                let mut enc = Encoder::new();
                enc.put_varint(v);
                prop_assert_eq!(varint_len(v), enc.len());
                let mut dec = Decoder::new(enc.finish());
                prop_assert_eq!(dec.get_varint().unwrap(), v);
            }

            #[test]
            fn strings_roundtrip(s in any::<String>()) {
                let mut enc = Encoder::new();
                enc.put_str(&s);
                enc.put_wire_str(&s);
                let mut dec = Decoder::new(enc.finish());
                prop_assert_eq!(dec.get_str().unwrap(), s.clone());
                prop_assert_eq!(dec.get_wire_str().unwrap(), s);
            }

            #[test]
            fn properties_roundtrip(p in arb_property()) {
                let bytes = p.to_bytes();
                prop_assert_eq!(PropertyValue::from_bytes(bytes).unwrap(), p);
            }

            #[test]
            fn arbitrary_message_roundtrips(
                payload in proptest::collection::vec(any::<u8>(), 0..256),
                keys in proptest::collection::btree_set("[a-z]{1,8}", 0..6),
                prio in 0u8..=9,
                persistent in any::<bool>(),
                ttl in proptest::option::of(0u64..10_000),
            ) {
                let mut builder = Message::builder(Bytes::from(payload));
                for (i, k) in keys.into_iter().enumerate() {
                    builder = builder.property(k, i as i64);
                }
                builder = builder.priority(Priority::new(prio)).persistent(persistent);
                if let Some(t) = ttl {
                    builder = builder.ttl(Millis(t));
                }
                let msg = builder.build();
                let back = Message::from_bytes(msg.to_bytes()).unwrap();
                prop_assert_eq!(back, msg);
            }

            // Decode renders a 16-byte correlation id back as the string
            // it was, so every correlation id — one character short or
            // long of an id, uppercase hex, non-ASCII — reads back and
            // re-encodes byte for byte, and only the canonical form takes
            // 16 bytes.
            #[test]
            fn arbitrary_correlation_ids_roundtrip_byte_identically(
                corr in prop_oneof![
                    "[0-9a-f]{31,33}",
                    "[0-9a-fA-F]{32}",
                    "[0-9a-fé]{16,32}",
                    any::<String>(),
                ],
            ) {
                let msg = Message::builder(Bytes::new()).correlation_id(corr.clone()).build();
                let image = msg.to_bytes();
                let back = Message::from_bytes(image.clone()).unwrap();
                prop_assert_eq!(back.correlation_id(), Some(corr.as_str()));
                prop_assert_eq!(back.to_bytes(), image.clone());
                let canonical = corr.len() == 32
                    && corr.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
                let mut literal = Encoder::new();
                literal.put_str(&corr);
                let bare = Message::builder(Bytes::new()).build().to_bytes().len();
                let expected = if canonical { 16 } else { literal.len() };
                prop_assert_eq!(image.len() - bare, expected);
            }

            #[test]
            fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
                // Must return an error or a value, never panic.
                let _ = Message::from_bytes(Bytes::from(bytes));
            }

            // The safety argument for feeding *socket* bytes into the
            // decoder (transport acceptor): any strict prefix of a valid
            // Message encoding must error. This is provable because
            // decoding is a deterministic left-to-right read, and the full
            // encoding decodes with nothing left over: a prefix takes the
            // same reads until one runs past its end (UnexpectedEof or a
            // length overrun).
            #[test]
            fn truncated_message_encoding_always_errors(
                payload in proptest::collection::vec(any::<u8>(), 0..64),
                keys in proptest::collection::btree_set("[a-z]{1,8}", 0..4),
                cut_seed in any::<u64>(),
            ) {
                let mut builder = Message::builder(Bytes::from(payload));
                for (i, k) in keys.into_iter().enumerate() {
                    builder = builder.property(k, i as i64);
                }
                let full = builder.build().to_bytes();
                // Never empty: the message id alone is 16 bytes.
                let cut = (cut_seed % full.len() as u64) as usize;
                let truncated = full.slice(0..cut);
                prop_assert!(
                    Message::from_bytes(truncated).is_err(),
                    "prefix of length {} of a {}-byte encoding decoded",
                    cut,
                    full.len()
                );
            }

            // A single flipped byte anywhere in the encoding must never
            // panic or over-read; it may legitimately decode (e.g. a flip
            // inside the payload body), but the decoder has to stay
            // total. (On the wire the frame CRC rejects such flips before
            // this decoder ever runs; this is defense in depth.)
            #[test]
            fn corrupted_message_encoding_never_panics(
                payload in proptest::collection::vec(any::<u8>(), 0..64),
                keys in proptest::collection::btree_set("[a-z]{1,8}", 0..4),
                pos_seed in any::<u64>(),
                flip in 1u8..=255,
            ) {
                let mut builder = Message::builder(Bytes::from(payload));
                for (i, k) in keys.into_iter().enumerate() {
                    builder = builder.property(k, i as i64);
                }
                let full = builder.build().to_bytes().to_vec();
                let pos = (pos_seed % full.len() as u64) as usize;
                let mut corrupt = full;
                corrupt[pos] ^= flip;
                let _ = Message::from_bytes(Bytes::from(corrupt));
            }
        }
    }
}
