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
//!   to the id written just before them ([`IdCursor`]), in the record or,
//!   in a segment file, in the frame before it: ids of one process are
//!   consecutive ([`MessageId::generate`]), so most take one or two bytes
//!   instead of sixteen.
//!
//! A journal record's queue names (`Encoder::put_queue_name`) take a third
//! form besides a registry code and a literal: a name spelled out earlier
//! in the record or, in a segment file, in a frame before it is written as
//! the one-byte code its `NameTable` gave it.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::{Buf, Bytes};
use simtime::{Millis, Time};

use crate::message::{
    Correlation, Message, MessageId, Priority, Properties, PropertyValue, QueueAddress,
};
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
    /// A value written in another form than the one encoding every
    /// encoder writes (what is wrong with it).
    NonCanonical(&'static str),
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
            CodecError::NonCanonical(what) => write!(f, "non-canonical encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Streaming encoder over a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an empty encoder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finishes encoding and returns the bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes encoding and returns the buffer itself.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// An encoder writing into `buf`, emptied first: a writer that encodes
    /// one frame after another keeps one buffer for all of them.
    pub(crate) fn reuse(mut buf: Vec<u8>) -> Encoder {
        buf.clear();
        Encoder { buf }
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
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends an `i64` as a zigzag varint: small magnitudes of either sign
    /// take few bytes.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(zigzag(v));
    }

    /// Appends a boolean as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a LEB128 varint.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a length-prefixed byte slice.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_raw(v);
    }

    /// Appends already-encoded bytes as they are, with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
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
    #[inline]
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
        let mut reader = SliceReader::new(&self.buf);
        let v = reader.get_varint()?;
        let read = self.buf.len() - reader.remaining();
        self.buf.advance(read);
        Ok(v)
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
        if len == 0 {
            // Not a slice: an empty value pins no buffer.
            return Ok(Bytes::new());
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
            code => registered_string(code).map(str::to_owned),
        }
    }

    /// Reads a queue name written with [`Encoder::put_queue_name`] under
    /// `names`, the table its writer was handed, and moves the table as the
    /// writer moved its own. A registered name is the one copy every read
    /// of it shares, and every other is the one copy its table holds.
    pub(crate) fn get_queue_name(
        &mut self,
        names: &mut NameTable,
    ) -> Result<Arc<str>, CodecError> {
        static REGISTERED: OnceLock<Vec<Arc<str>>> = OnceLock::new();
        let code = match self.get_u8()? {
            FILE_NAME_ESCAPE => u64::from(FILE_NAME_ESCAPE).saturating_add(self.get_varint()?),
            byte => u64::from(byte),
        };
        let found = match code {
            0 => {
                let text = self.get_bytes()?;
                let name: Arc<str> = std::str::from_utf8(&text)
                    .map_err(|_| CodecError::InvalidUtf8)?
                    .into();
                names.define(&name);
                return Ok(name);
            }
            code if code < FILE_NAME_CODE => REGISTERED
                .get_or_init(|| WIRE_STRING_REGISTRY.iter().map(|s| Arc::from(*s)).collect())
                .get(code as usize - 1),
            code => usize::try_from(code - FILE_NAME_CODE)
                .ok()
                .and_then(|at| names.names.get(at)),
        };
        found.cloned().ok_or(CodecError::UnknownWireString(code))
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

/// Reads the codec's primitives out of a borrowed slice, so what it reads
/// borrows from the slice: how a message's property section is read in
/// place.
#[derive(Debug)]
pub(crate) struct SliceReader<'a> {
    buf: &'a [u8],
}

impl<'a> SliceReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> SliceReader<'a> {
        SliceReader { buf }
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn get_u8(&mut self) -> Result<u8, CodecError> {
        let (first, rest) = self.buf.split_first().ok_or(CodecError::UnexpectedEof)?;
        self.buf = rest;
        Ok(*first)
    }

    /// Reads a LEB128 varint.
    pub(crate) fn get_varint(&mut self) -> Result<u64, CodecError> {
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

    /// Reads a string written with [`Encoder::put_wire_str`].
    fn get_wire_str(&mut self) -> Result<&'a str, CodecError> {
        match self.get_varint()? {
            0 => {
                let len = self.get_varint()?;
                if len > self.buf.len() as u64 {
                    return Err(CodecError::LengthOverrun {
                        declared: len,
                        remaining: self.buf.len(),
                    });
                }
                let (text, rest) = self.buf.split_at(len as usize);
                self.buf = rest;
                std::str::from_utf8(text).map_err(|_| CodecError::InvalidUtf8)
            }
            code => registered_string(code),
        }
    }

    /// Reads one property written with [`Encoder::put_property`].
    pub(crate) fn get_property(&mut self) -> Result<(&'a str, PropertyValue<'a>), CodecError> {
        let name = self.get_wire_str()?;
        let value = match self.get_u8()? {
            0 => PropertyValue::Str(self.get_wire_str()?),
            1 => PropertyValue::I64(unzigzag(self.get_varint()?)),
            3 => PropertyValue::Bool(match self.get_u8()? {
                0 => false,
                1 => true,
                tag => return Err(CodecError::BadTag { what: "bool", tag }),
            }),
            tag => {
                return Err(CodecError::BadTag {
                    what: "PropertyValue",
                    tag,
                })
            }
        };
        Ok((name, value))
    }
}

/// The registered string with wire code `code` (position + 1).
fn registered_string(code: u64) -> Result<&'static str, CodecError> {
    usize::try_from(code - 1)
        .ok()
        .and_then(|at| WIRE_STRING_REGISTRY.get(at))
        .copied()
        .ok_or(CodecError::UnknownWireString(code))
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

impl Encoder {
    /// Appends one property as a message's property section carries it:
    /// the name as a wire string, a value tag, then the value (`Str` as a
    /// wire string, `I64` as a zigzag varint, `Bool` as a byte).
    pub fn put_property(&mut self, name: &str, value: PropertyValue<'_>) {
        self.put_wire_str(name);
        match value {
            PropertyValue::Str(s) => {
                self.put_u8(0);
                self.put_wire_str(s);
            }
            PropertyValue::I64(v) => {
                self.put_u8(1);
                self.put_zigzag(v);
            }
            PropertyValue::Bool(b) => {
                self.put_u8(3);
                self.put_bool(b);
            }
        }
    }
}

/// The bytes [`Encoder::put_wire_str`] writes for `s`.
fn wire_str_len(s: &str) -> usize {
    match wire_string_codes().get(s) {
        Some(code) => varint_len(*code),
        None => 1 + varint_len(s.len() as u64) + s.len(),
    }
}

/// The bytes [`Encoder::put_property`] writes for `(name, value)`.
fn property_len(name: &str, value: PropertyValue<'_>) -> usize {
    wire_str_len(name)
        + 1
        + match value {
            PropertyValue::Str(s) => wire_str_len(s),
            PropertyValue::I64(v) => varint_len(zigzag(v)),
            PropertyValue::Bool(_) => 1,
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

impl Message {
    /// The message's image ([`WireEncode`]), assembled afresh: its
    /// header, payload and property bytes copied into one buffer.
    pub fn wire_bytes(&self) -> Bytes {
        let mut enc = Encoder::with_capacity(self.wire_len());
        self.encode(&mut enc);
        enc.finish()
    }

    /// The length of the message's image ([`WireEncode`]), worked out
    /// without assembling it: the channel mover cuts batches on a byte
    /// budget with it.
    pub fn wire_len(&self) -> usize {
        let correlation = self.correlation();
        let corr_u128 = correlation.and_then(Correlation::as_u128);
        let opt_varint = |v: Option<u64>| v.map_or(0, varint_len);
        16 + 1
            + 1
            + corr_u128.map_or(0, |_| 16)
            + varint_len(self.payload().len() as u64)
            + self.payload().len()
            + self.property_section().as_bytes().len()
            + opt_varint(self.ttl().map(Millis::as_u64))
            + opt_varint(self.expiry().map(Time::as_millis))
            + match (corr_u128, correlation) {
                (None, Some(corr)) => varint_len(corr.as_str().len() as u64) + corr.as_str().len(),
                _ => 0,
            }
            + self.reply_to().map_or(0, |r| {
                varint_len(r.manager.len() as u64)
                    + r.manager.len()
                    + varint_len(r.queue.len() as u64)
                    + r.queue.len()
            })
            + opt_varint(self.put_time().map(Time::as_millis))
            + varint_len(u64::from(self.redelivery_count()))
    }
}

/// `v` with its sign in bit 0, so small magnitudes of either sign are
/// small numbers.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// The id last written (or read): each `u128` id of a journal record is
/// written relative to it ([`Encoder::put_id`]). A record on its own
/// (`JournalRecord::to_bytes`, [`crate::journal::MemJournal`]) starts from a
/// fresh cursor (0), so its first id, whose epoch is never 0, is written
/// whole. [`crate::journal::SegmentedJournal`] carries one cursor through
/// each segment file, fresh where the file starts, so a frame's first id
/// continues from the last id of the frame before it.
///
/// The cursor must be a function of the bytes on disk alone: no frame may
/// be decoded under a cursor other than the one it was encoded with. A
/// decoder that starts mid-file, or skips a frame, reads wrong ids without
/// an error to show for it.
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

/// The first per-file name code ([`NameTable`]). Every code below it is a
/// registry code or free for one: the registry is bounded below it, so a
/// per-file code keeps its meaning however the registry grows.
const FILE_NAME_CODE: u64 = 128;

/// The byte that opens a per-file name code too large for one byte: the
/// code less this follows as a varint.
const FILE_NAME_ESCAPE: u8 = 255;

/// The queue names a journal record, and the records before it in its
/// segment file, spelled out: after its first literal, a name no registry
/// code covers is written as its per-file code ([`Encoder::put_queue_name`]).
/// It has the lifecycle of an [`IdCursor`]: fresh for a record on its own
/// and where a segment file starts, carried from frame to frame through
/// the file, and so a function of the file's bytes alone.
#[derive(Debug, Default)]
pub(crate) struct NameTable {
    /// Each name by its per-file code less [`FILE_NAME_CODE`].
    names: Vec<Arc<str>>,
    /// Each name's per-file code.
    codes: HashMap<Arc<str>, u64>,
}

impl NameTable {
    /// How many names the table has given a code.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Gives `name`, just written or read as a literal, the next per-file
    /// code.
    fn define(&mut self, name: &Arc<str>) {
        let code = FILE_NAME_CODE + self.names.len() as u64;
        self.names.push(Arc::clone(name));
        self.codes.insert(Arc::clone(name), code);
    }

    /// Forgets every name but the first `len`: a frame that was never
    /// written defined none.
    pub(crate) fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len..) {
            self.codes.remove(&name);
        }
    }
}

impl Encoder {
    /// Appends a queue name of a journal record and moves `names`: a
    /// registered name as its code (one byte), a name `names` holds as its
    /// per-file code ([`FILE_NAME_CODE`] + its position: one byte below
    /// [`FILE_NAME_ESCAPE`], past it that byte and the rest as a varint),
    /// any other as `0` followed by the name, which takes the next per-file
    /// code.
    pub(crate) fn put_queue_name(&mut self, name: &Arc<str>, names: &mut NameTable) {
        if let Some(code) = wire_string_codes().get(&**name) {
            return self.put_varint(*code);
        }
        if let Some(&code) = names.codes.get(&**name) {
            let escape = u64::from(FILE_NAME_ESCAPE);
            if code < escape {
                return self.put_u8(code as u8);
            }
            self.put_u8(FILE_NAME_ESCAPE);
            return self.put_varint(code - escape);
        }
        self.put_varint(0);
        self.put_str(name);
        names.define(name);
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

impl WireEncode for Message {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_message(self, false, |enc, id| enc.put_u128(id));
    }
}

impl Encoder {
    /// Appends `message`'s image, copying its payload and property bytes
    /// in, each id written by `put_id`: whole for the message's own image,
    /// relative in a journal record. With `same_payload` the payload is
    /// left out and bit 7 of the flags byte says so.
    fn put_message(
        &mut self,
        message: &Message,
        same_payload: bool,
        mut put_id: impl FnMut(&mut Encoder, u128),
    ) {
        put_id(self, message.id().as_u128());
        self.put_u8(message.priority().level());
        let correlation = message.correlation();
        let corr_u128 = correlation.and_then(Correlation::as_u128);
        let headers = [
            (message.is_persistent(), flag::PERSISTENT),
            (message.ttl().is_some(), flag::TTL),
            (message.expiry().is_some(), flag::EXPIRY),
            (
                correlation.is_some() && corr_u128.is_none(),
                flag::CORRELATION,
            ),
            (message.reply_to().is_some(), flag::REPLY_TO),
            (message.put_time().is_some(), flag::PUT_TIME),
            (corr_u128.is_some(), flag::CORRELATION_U128),
            (same_payload, flag::SAME_PAYLOAD),
        ];
        let flags = headers
            .iter()
            .filter(|(present, _)| *present)
            .fold(0, |f, (_, bit)| f | bit);
        self.put_u8(flags);
        if let Some(id) = corr_u128 {
            put_id(self, id);
        }
        if !same_payload {
            self.put_bytes(message.payload());
        }
        self.put_raw(message.property_section().as_bytes());
        if let Some(ttl) = message.ttl() {
            self.put_varint(ttl.as_u64());
        }
        if let Some(expiry) = message.expiry() {
            self.put_varint(expiry.as_millis());
        }
        if let (None, Some(corr)) = (corr_u128, correlation) {
            self.put_str(corr.as_str());
        }
        if let Some(reply_to) = message.reply_to() {
            reply_to.encode(self);
        }
        if let Some(put_time) = message.put_time() {
            self.put_varint(put_time.as_millis());
        }
        self.put_varint(u64::from(message.redelivery_count()));
    }

    /// Appends `message`'s image as the image that follows `previous` in a
    /// journal record, its message id and 16-byte correlation id written
    /// relative to `ids` ([`Encoder::put_id`]). When `previous` carries the
    /// same payload, the payload is left out and bit 7 of the flags byte
    /// says so; [`Decoder::get_image`] given that payload and cursor reads
    /// it back.
    pub fn put_image(&mut self, message: &Message, previous: Option<&Message>, ids: &mut IdCursor) {
        let same_payload = previous.is_some_and(|p| p.payload() == message.payload());
        self.put_message(message, same_payload, |enc, id| enc.put_id(id, ids));
    }
}

impl WireDecode for Message {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        dec.get_message(None, Decoder::get_u128)
    }
}

impl Decoder {
    /// Reads a message's property section, which must be canonical: names
    /// ascending and unrepeated, each string and number in its shortest
    /// form. Every encoder writes it so; any other is malformed input and
    /// refused. With `share` the section is sliced out of the buffer (the
    /// message keeps a payload slice of it anyway); without, it is copied
    /// out, so a message with no payload pins no record or frame.
    fn get_properties(&mut self, share: bool) -> Result<Properties, CodecError> {
        let (len, count) = {
            let mut reader = SliceReader::new(&self.buf);
            let count = reader.get_varint()?;
            let mut canonical_len = varint_len(count);
            let mut previous: Option<&str> = None;
            for _ in 0..count {
                let (name, value) = reader.get_property()?;
                if previous.replace(name).is_some_and(|p| p >= name) {
                    return Err(CodecError::NonCanonical("property names out of order"));
                }
                canonical_len += property_len(name, value);
            }
            let len = self.buf.len() - reader.remaining();
            if len != canonical_len {
                return Err(CodecError::NonCanonical("property in a longer form than needed"));
            }
            (len, count)
        };
        let section = self.buf.split_to(len);
        Ok(match (count, share) {
            (0, _) => Properties::empty(),
            (_, true) => Properties::from_canonical(section),
            (_, false) => Properties::from_canonical(Bytes::copy_from_slice(&section)),
        })
    }

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
        // A payload from `previous` is a slice of the same record.
        let properties = self.get_properties(!payload.is_empty())?;
        let persistent = has(flag::PERSISTENT);
        let ttl = has(flag::TTL)
            .then(|| self.get_varint().map(Millis))
            .transpose()?;
        let expiry = has(flag::EXPIRY)
            .then(|| self.get_varint().map(Time))
            .transpose()?;
        let correlation = match correlation_u128 {
            Some(id) => Some(Correlation::from_u128(id)),
            None => has(flag::CORRELATION)
                .then(|| self.get_str().map(|text| Correlation::new(&text)))
                .transpose()?,
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
            correlation,
            reply_to,
            put_time,
            redelivery_count,
        ))
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC32_TABLES[0]` is the
/// bytewise table, and `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table reads fold eight input
/// bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Starts an incremental CRC-32 computation; feed slices through
/// [`crc32_update`] and close with [`crc32_finish`]. Lets the transport
/// checksum a frame assembled from scattered segments without first
/// flattening them into one buffer.
pub fn crc32_begin() -> u32 {
    0xFFFF_FFFF
}

/// Folds `data` into an in-progress CRC-32 state: eight bytes per step
/// (slicing-by-8), then the tail a byte at a time.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
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
    fn property_values_read_back_borrowed() {
        let values = [
            PropertyValue::Str("abc"),
            PropertyValue::Str(WIRE_STRING_REGISTRY[0]),
            PropertyValue::I64(-5),
            PropertyValue::Bool(false),
        ];
        let mut enc = Encoder::new();
        for value in values {
            enc.put_property("name", value);
        }
        let bytes = enc.finish();
        let mut reader = SliceReader::new(&bytes);
        for value in values {
            assert_eq!(reader.get_property().unwrap(), ("name", value));
        }
        assert_eq!(reader.remaining(), 0);
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
    fn a_queue_name_is_a_registry_code_a_file_code_or_a_literal() {
        let queue = |i: usize| -> Arc<str> { format!("Q.{i}").into() };
        let registered: Arc<str> = WIRE_STRING_REGISTRY[0].into();
        let mut enc = Encoder::new();
        let mut names = NameTable::default();
        // 300 names spelled out (each defines the next code), then each
        // again: the first 127 codes fit one byte, the rest take the
        // escape and a varint. A registered name is its one-byte code.
        for i in 0..300 {
            let before = enc.len();
            enc.put_queue_name(&queue(i), &mut names);
            assert_eq!(enc.len() - before, 2 + queue(i).len());
        }
        for i in 0..300 {
            let before = enc.len();
            enc.put_queue_name(&queue(i), &mut names);
            let coded = if i < 127 { 1 } else { 1 + varint_len(i as u64 - 127) };
            assert_eq!(enc.len() - before, coded, "name {i}");
        }
        let before = enc.len();
        enc.put_queue_name(&registered, &mut names);
        assert_eq!(enc.len() - before, 1);
        assert_eq!(names.len(), 300);
        let mut dec = Decoder::new(enc.finish());
        let mut read = NameTable::default();
        for i in (0..300).chain(0..300) {
            assert_eq!(dec.get_queue_name(&mut read).unwrap(), queue(i));
        }
        assert_eq!(dec.get_queue_name(&mut read).unwrap(), registered);
        assert!(dec.is_exhausted());
        // Every read of a name shares the copy its literal defined.
        let mut coded = Encoder::new();
        coded.put_queue_name(&queue(299), &mut names);
        let shared = Decoder::new(coded.finish()).get_queue_name(&mut read);
        assert!(Arc::ptr_eq(&shared.unwrap(), &read.names[299]));
        // A code no literal before it defined is refused.
        let mut fresh = NameTable::default();
        for code in [vec![128u8], vec![254], vec![255, 5]] {
            let unknown = Decoder::new(Bytes::from(code)).get_queue_name(&mut fresh);
            assert!(matches!(unknown, Err(CodecError::UnknownWireString(_))), "{unknown:?}");
        }
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

    /// CRC-32 a bit at a time, straight from the polynomial.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn slicing_by_8_matches_the_bitwise_reference() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                let want = crc32_bitwise(slice);
                assert_eq!(crc32(slice), want, "offset {offset} len {len}");
            }
        }
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
    fn wire_len_is_the_length_of_the_image_with_every_header() {
        let bare = Message::builder(Bytes::new()).build();
        let mut full = Message::text("payload")
            .property("k", "v")
            .priority(Priority::new(9))
            .persistent(true)
            .ttl(Millis(300))
            .correlation_id("not hex")
            .reply_to(QueueAddress::new("QM2", "REPLY"))
            .build();
        full.stamp_enqueue(Time(1_000_000));
        full.bump_redelivery();
        let hex = Message::text("x").correlation_u128(u128::MAX).build();
        for msg in [&bare, &full, &hex] {
            assert_eq!(msg.wire_len(), msg.to_bytes().len());
            assert_eq!(msg.wire_bytes(), msg.to_bytes());
        }
    }

    #[test]
    fn a_decoded_message_reads_its_properties_out_of_the_image() {
        let msg = Message::text("x")
            .property("a", "text")
            .property("b", 1i64)
            .build();
        let image = msg.to_bytes();
        let back = Message::from_bytes(image.clone()).unwrap();
        let section = back.property_section().as_bytes();
        let inside = image.as_ptr_range();
        assert!(inside.contains(&section.as_ptr()), "the section was copied");
        assert_eq!(back.str_property("a"), Some("text"));
    }

    #[test]
    fn a_non_canonical_section_is_refused() {
        // The image of a message with payload "x" and the property section
        // `section` writes.
        let image = |section: &dyn Fn(&mut Encoder)| {
            let mut enc = Encoder::new();
            enc.put_u128(7);
            enc.put_u8(4);
            enc.put_u8(0);
            enc.put_bytes(b"x");
            section(&mut enc);
            enc.put_varint(0);
            enc.finish()
        };
        let canonical = image(&|enc| {
            enc.put_varint(2);
            enc.put_property("a", PropertyValue::Bool(true));
            enc.put_property("b", PropertyValue::I64(1));
        });
        assert!(Message::from_bytes(canonical).is_ok());
        let out_of_order = image(&|enc| {
            enc.put_varint(2);
            enc.put_property("b", PropertyValue::I64(1));
            enc.put_property("a", PropertyValue::Bool(true));
        });
        let repeated = image(&|enc| {
            enc.put_varint(2);
            enc.put_property("b", PropertyValue::I64(1));
            enc.put_property("b", PropertyValue::I64(2));
        });
        // A registered name written as its string, not its code.
        let literal_name = image(&|enc| {
            enc.put_varint(1);
            enc.put_varint(0);
            enc.put_str(WIRE_STRING_REGISTRY[0]);
            enc.put_u8(3);
            enc.put_u8(1);
        });
        // -3 zigzags to 5, written in two bytes where one does.
        let long_varint = image(&|enc| {
            enc.put_varint(1);
            enc.put_wire_str("a");
            enc.put_u8(1);
            enc.put_raw(&[0x85, 0x00]);
        });
        for bad in [out_of_order, repeated, literal_name, long_varint] {
            assert!(
                matches!(Message::from_bytes(bad), Err(CodecError::NonCanonical(_))),
                "a non-canonical section decoded"
            );
        }
    }

    #[test]
    fn a_message_without_payload_copies_its_section_out() {
        let msg = Message::builder(Bytes::new()).property("a", "text").build();
        let image = msg.to_bytes();
        let back = Message::from_bytes(image.clone()).unwrap();
        let section = back.property_section().as_bytes();
        let inside = image.as_ptr_range();
        assert!(!inside.contains(&section.as_ptr()), "the section pins the image");
        assert_eq!(back, msg);
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

        /// An owned property value, a [`PropertyValue`] once borrowed.
        #[derive(Debug, Clone)]
        enum Value {
            Str(String),
            I64(i64),
            Bool(bool),
        }

        impl Value {
            fn borrow(&self) -> PropertyValue<'_> {
                match self {
                    Value::Str(s) => PropertyValue::Str(s),
                    Value::I64(v) => PropertyValue::I64(*v),
                    Value::Bool(b) => PropertyValue::Bool(*b),
                }
            }
        }

        fn arb_property() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<String>().prop_map(Value::Str),
                any::<i64>().prop_map(Value::I64),
                any::<bool>().prop_map(Value::Bool),
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
            fn properties_roundtrip(name in any::<String>(), p in arb_property()) {
                let mut enc = Encoder::new();
                enc.put_property(&name, p.borrow());
                prop_assert_eq!(property_len(&name, p.borrow()), enc.len());
                let bytes = enc.finish();
                let mut reader = SliceReader::new(&bytes);
                prop_assert_eq!(reader.get_property().unwrap(), (name.as_str(), p.borrow()));
                prop_assert_eq!(reader.remaining(), 0);
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
                    builder = builder.property(&k, i as i64);
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
                    builder = builder.property(&k, i as i64);
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
                    builder = builder.property(&k, i as i64);
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
