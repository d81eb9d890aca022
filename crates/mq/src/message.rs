//! The message model: identifiers, typed properties, headers and payload.
//!
//! Mirrors the JMS/MQSeries message shape the paper layers on: an opaque
//! payload plus a bag of typed, selectable properties and delivery headers
//! (priority, persistence, expiry, correlation id, reply-to address).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use rand::RngCore;
use simtime::{Millis, Time};

use crate::codec::{Encoder, SliceReader};

/// Unique message identifier: a random non-zero epoch, drawn once per
/// process, in the high 64 bits and a process-wide counter in the low 64.
///
/// The ids one process generates are consecutive numbers, so a journal
/// record writes each id as a small delta from the id before it
/// ([`crate::codec::IdCursor`]). Uniqueness comes from the pair (epoch,
/// counter); ids are predictable and are not secrets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(u128);

/// This process's id epoch: random, never 0, so no generated id is a
/// small number.
fn epoch() -> u64 {
    static EPOCH: OnceLock<u64> = OnceLock::new();
    *EPOCH.get_or_init(|| loop {
        let epoch = rand::thread_rng().next_u64();
        if epoch != 0 {
            break epoch;
        }
    })
}

impl MessageId {
    /// Generates the next identifier of this process's sequence.
    pub fn generate() -> MessageId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        MessageId::from_parts(epoch(), NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The identifier with `epoch` in the high half and `counter` in the
    /// low half.
    pub fn from_parts(epoch: u64, counter: u64) -> MessageId {
        MessageId(u128::from(epoch) << 64 | u128::from(counter))
    }

    /// Both halves folded into one well-mixed `u64` (the splitmix64
    /// finalizer over their xor, a bijection): consecutive ids do not
    /// repeat a pattern modulo a small number, and two ids with equal
    /// counters and different epochs never fold alike.
    pub fn mix64(self) -> u64 {
        splitmix((self.0 >> 64) as u64 ^ self.0 as u64)
    }

    /// Reconstructs an identifier from its raw value (used by the codec).
    pub fn from_u128(v: u128) -> MessageId {
        MessageId(v)
    }

    /// Returns the raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

/// The hasher of a table keyed by ids: [`MessageId`]s, and the
/// conditional message ids and 32-hex-digit correlation ids written from
/// them. An id is a 128-bit number with no structure to hide, so two
/// rounds of the splitmix64 finalizer, one per 64-bit half, are the whole
/// hash: no SipHash rounds. The rounds start from a key drawn at random
/// once per process, since ids also come off the wire (a peer's message
/// and correlation ids): without it, a peer could write down ahead of time
/// ids that all fall into one bucket. Text an application chooses is
/// hashed with the default hasher instead.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

/// The process's key for [`IdHasher`].
fn hash_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| rand::thread_rng().next_u64())
}

/// The splitmix64 finalizer: a bijection of `u64` that mixes every bit
/// of its input into every bit of its output.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Default for IdHasher {
    fn default() -> IdHasher {
        IdHasher(hash_key())
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Any other key, folded in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix(self.0 ^ v);
    }

    /// The high half, then the low half: one round each.
    fn write_u128(&mut self, v: u128) {
        self.write_u64((v >> 64) as u64);
        self.write_u64(v as u64);
    }
}

/// A hash map keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MessageId({self})")
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Delivery priority, `0` (lowest) through `9` (highest), default `4`.
///
/// Matches the JMS priority range; higher-priority messages are delivered
/// ahead of lower-priority ones, FIFO within a priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(u8);

impl Priority {
    /// Lowest priority.
    pub const MIN: Priority = Priority(0);
    /// JMS default priority.
    pub const DEFAULT: Priority = Priority(4);
    /// Highest priority.
    pub const MAX: Priority = Priority(9);

    /// Creates a priority, clamping to the valid `0..=9` range.
    pub fn new(level: u8) -> Priority {
        Priority(level.min(9))
    }

    /// Returns the priority level.
    pub fn level(self) -> u8 {
        self.0
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::DEFAULT
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A typed property value, borrowed from the message that holds it (or,
/// when setting one, from the caller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PropertyValue<'a> {
    /// UTF-8 string.
    Str(&'a str),
    /// 64-bit signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
}

impl<'a> PropertyValue<'a> {
    /// Returns the string value, if this is a string property.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            PropertyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer value, if this is an integer property.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            PropertyValue::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the boolean value, if this is a boolean property.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            PropertyValue::Bool(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for PropertyValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Str(s) => write!(f, "{s}"),
            PropertyValue::I64(v) => write!(f, "{v}"),
            PropertyValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl<'a> From<&'a str> for PropertyValue<'a> {
    fn from(v: &'a str) -> Self {
        PropertyValue::Str(v)
    }
}
impl<'a> From<&'a String> for PropertyValue<'a> {
    fn from(v: &'a String) -> Self {
        PropertyValue::Str(v)
    }
}
impl From<i64> for PropertyValue<'_> {
    fn from(v: i64) -> Self {
        PropertyValue::I64(v)
    }
}
impl From<u64> for PropertyValue<'_> {
    fn from(v: u64) -> Self {
        PropertyValue::I64(v as i64)
    }
}
impl From<bool> for PropertyValue<'_> {
    fn from(v: bool) -> Self {
        PropertyValue::Bool(v)
    }
}

/// A message's properties as its image carries them (see [`crate::codec`]):
/// a count, then each name as a wire string and its value, in ascending
/// name order with no name twice and every string and number in its one
/// shortest form, so two equal property sets are equal bytes. Read in
/// place; clones share the buffer.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Properties(Bytes);

impl Properties {
    /// No properties: the one-byte section `[0]`, one buffer for all.
    pub(crate) fn empty() -> Properties {
        static EMPTY: OnceLock<Bytes> = OnceLock::new();
        Properties(EMPTY.get_or_init(|| Bytes::copy_from_slice(&[0])).clone())
    }

    /// A section already known to be canonical.
    pub(crate) fn from_canonical(bytes: Bytes) -> Properties {
        Properties(bytes)
    }

    /// The section's bytes, as the image carries them.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Every property, in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, PropertyValue<'_>)> {
        let mut reader = SliceReader::new(&self.0);
        let count = reader.get_varint().unwrap_or(0);
        (0..count).map_while(move |_| reader.get_property().ok())
    }

    /// The value of `name`; the scan stops at the first name past it.
    pub(crate) fn get(&self, name: &str) -> Option<PropertyValue<'_>> {
        self.iter()
            .take_while(|(n, _)| *n <= name)
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// The canonical section of `entries` taken in order, a later entry
    /// replacing an earlier one of the same name.
    pub(crate) fn from_entries(entries: &mut Vec<(&str, PropertyValue<'_>)>) -> Properties {
        if entries.is_empty() {
            return Properties::empty();
        }
        // Reversed, a stable sort puts the last setting of a name first
        // among its equals, and `dedup_by` keeps the first.
        entries.reverse();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        let mut enc = Encoder::new();
        enc.put_varint(entries.len() as u64);
        for (name, value) in entries.iter() {
            enc.put_property(name, *value);
        }
        Properties(enc.finish())
    }

    /// The section of the `count` properties a builder encoded into
    /// `scratch` after one placeholder byte, in the order they were set:
    /// that buffer itself, count written in, when they came in name order
    /// (one copy, no sort).
    fn from_scratch(count: usize, mut scratch: Vec<u8>) -> Properties {
        let mut reader = SliceReader::new(&scratch[1..]);
        let mut previous: Option<&str> = None;
        let ascending = count < 0x80
            && (0..count).all(|_| match reader.get_property() {
                Ok((name, _)) => previous.replace(name).is_none_or(|p| p < name),
                Err(_) => false,
            });
        if !ascending {
            let mut reader = SliceReader::new(&scratch[1..]);
            let mut entries: Vec<_> = (0..count)
                .map_while(|_| reader.get_property().ok())
                .collect();
            return Properties::from_entries(&mut entries);
        }
        scratch[0] = count as u8;
        Properties(Bytes::copy_from_slice(&scratch))
    }
}

impl fmt::Debug for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// What a correlation lookup looks for: the value of a correlation id of
/// exactly 32 lowercase hex digits (the form
/// [`MessageBuilder::correlation_u128`] writes), or any other correlation
/// id as text. A caller holding the value passes it as a `u128` and no
/// digits are formatted or parsed; text of that form converts to its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationKey<'a> {
    /// The value of a 32-lowercase-hex-digit correlation id.
    Value(u128),
    /// Any other correlation id.
    Text(&'a str),
}

impl<'a> From<&'a str> for CorrelationKey<'a> {
    fn from(text: &'a str) -> CorrelationKey<'a> {
        hex_u128(text.as_bytes()).map_or(CorrelationKey::Text(text), CorrelationKey::Value)
    }
}

impl<'a> From<&'a String> for CorrelationKey<'a> {
    fn from(text: &'a String) -> CorrelationKey<'a> {
        CorrelationKey::from(text.as_str())
    }
}

impl From<u128> for CorrelationKey<'_> {
    fn from(value: u128) -> Self {
        CorrelationKey::Value(value)
    }
}

/// `digits` read as 32 lowercase hex digits, or `None` when they are
/// not: one pass over the bytes, with no radix parse and no UTF-8 check.
pub(crate) fn hex_u128(digits: &[u8]) -> Option<u128> {
    let digits: &[u8; 32] = digits.try_into().ok()?;
    let valid = digits
        .iter()
        .all(|&b| b.wrapping_sub(b'0') < 10 || b.wrapping_sub(b'a') < 6);
    valid.then(|| hex_value(digits))
}

/// The value of 32 lowercase hex digits, eight at a time: each digit's
/// low nibble, plus 9 for a letter (bit 6 set), then the eight nibbles
/// packed into 32 bits.
fn hex_value(digits: &[u8; 32]) -> u128 {
    const LOW: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    const BIT6: u64 = 0x0101_0101_0101_0101;
    digits.chunks_exact(8).fold(0, |value, eight| {
        let word = u64::from_be_bytes(eight.try_into().unwrap_or_default());
        let mut nibbles = (word & LOW) + 9 * (word >> 6 & BIT6);
        nibbles = (nibbles | nibbles >> 4) & 0x00ff_00ff_00ff_00ff;
        nibbles = (nibbles | nibbles >> 8) & 0x0000_ffff_0000_ffff;
        nibbles = (nibbles | nibbles >> 16) & 0x0000_0000_ffff_ffff;
        value << 32 | u128::from(nibbles)
    })
}

/// A correlation id. One of exactly 32 lowercase hex digits — a
/// conditional message id, which the image carries as 16 bytes — is kept
/// as those digits in place; any other as shared text.
#[derive(Clone)]
pub(crate) enum Correlation {
    /// 32 lowercase hex digits.
    Hex([u8; 32]),
    /// Anything else.
    Text(Arc<str>),
}

impl Correlation {
    pub(crate) fn new(text: &str) -> Correlation {
        match hex_u128(text.as_bytes()) {
            Some(id) => Correlation::from_u128(id),
            None => Correlation::Text(text.into()),
        }
    }

    /// `id` as 32 lowercase hex digits.
    pub(crate) fn from_u128(id: u128) -> Correlation {
        let mut digits = [0u8; 32];
        for (i, digit) in digits.iter_mut().enumerate() {
            let nibble = (id >> (124 - 4 * i)) & 0xf;
            *digit = b"0123456789abcdef"[nibble as usize];
        }
        Correlation::Hex(digits)
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            Correlation::Hex(digits) => std::str::from_utf8(digits).unwrap_or_default(),
            Correlation::Text(text) => text,
        }
    }

    /// The value of the 32-hex-digit form, decoded from its digits.
    pub(crate) fn as_u128(&self) -> Option<u128> {
        match self {
            Correlation::Hex(digits) => Some(hex_value(digits)),
            Correlation::Text(_) => None,
        }
    }
}

impl PartialEq for Correlation {
    fn eq(&self, other: &Correlation) -> bool {
        match (self, other) {
            (Correlation::Hex(a), Correlation::Hex(b)) => a == b,
            (Correlation::Text(a), Correlation::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Correlation {}

impl fmt::Debug for Correlation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Fully qualified address of a queue: `queue manager / queue name`.
///
/// Used for cross-queue-manager routing (paper: a recipient's conditional
/// messaging system must know the *sender's queue manager* to direct
/// acknowledgments back to `DS.ACK.Q`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueAddress {
    /// Name of the owning queue manager.
    pub manager: String,
    /// Queue name within that manager.
    pub queue: String,
}

impl QueueAddress {
    /// Creates an address from manager and queue names.
    pub fn new(manager: impl Into<String>, queue: impl Into<String>) -> QueueAddress {
        QueueAddress {
            manager: manager.into(),
            queue: queue.into(),
        }
    }

    /// Parses a `"manager/queue"` string.
    pub fn parse(s: &str) -> Option<QueueAddress> {
        let (m, q) = s.split_once('/')?;
        if m.is_empty() || q.is_empty() {
            return None;
        }
        Some(QueueAddress::new(m, q))
    }
}

impl fmt::Display for QueueAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.manager, self.queue)
    }
}

/// A message: payload, typed properties and delivery headers.
///
/// Construct with [`Message::builder`]. The properties are held as the
/// bytes the message image carries them in, encoded once by the builder
/// and read in place; a clone shares them and the payload. The broker
/// stamps `put_time`, absolute `expiry` and `redelivery_count` during
/// delivery, typed fields all, so stamping never re-encodes anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    id: MessageId,
    payload: Bytes,
    properties: Properties,
    correlation: Option<Correlation>,
    reply_to: Option<Arc<QueueAddress>>,
    priority: Priority,
    persistent: bool,
    /// Time-to-live requested by the sender; converted to an absolute
    /// `expiry` when the message is enqueued.
    ttl: Option<Millis>,
    /// Absolute expiry stamped at enqueue time.
    expiry: Option<Time>,
    put_time: Option<Time>,
    redelivery_count: u32,
}

impl Message {
    /// Starts building a message with the given payload bytes.
    pub fn builder(payload: impl Into<Bytes>) -> MessageBuilder {
        MessageBuilder::new(payload)
    }

    /// Builds a text message (UTF-8 payload), the common case in examples.
    pub fn text(s: impl AsRef<str>) -> MessageBuilder {
        MessageBuilder::new(Bytes::copy_from_slice(s.as_ref().as_bytes()))
    }

    /// The unique message id.
    pub fn id(&self) -> MessageId {
        self.id
    }

    /// The opaque payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The payload interpreted as UTF-8, if valid.
    pub fn payload_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }

    /// Looks up a property by name.
    pub fn property(&self, name: &str) -> Option<PropertyValue<'_>> {
        self.properties.get(name)
    }

    /// Shorthand for a string property's value.
    pub fn str_property(&self, name: &str) -> Option<&str> {
        self.property(name).and_then(PropertyValue::as_str)
    }

    /// Shorthand for an integer property's value.
    pub fn i64_property(&self, name: &str) -> Option<i64> {
        self.property(name).and_then(PropertyValue::as_i64)
    }

    /// Shorthand for a boolean property's value.
    pub fn bool_property(&self, name: &str) -> Option<bool> {
        self.property(name).and_then(PropertyValue::as_bool)
    }

    /// Iterates over all properties in name order.
    pub fn properties(&self) -> impl Iterator<Item = (&str, PropertyValue<'_>)> {
        self.properties.iter()
    }

    /// Sets a property on an existing message (used by the conditional
    /// messaging layer to stamp control information, paper §2.3). Rewrites
    /// the property bytes; to change several, use
    /// [`Message::edit_properties`], which rewrites them once.
    pub fn set_property<'v>(&mut self, name: &str, value: impl Into<PropertyValue<'v>>) {
        self.edit_properties(&[], &[(name, value.into())]);
    }

    /// Removes a property (used by channels to strip transmission
    /// envelopes).
    pub fn remove_property(&mut self, name: &str) {
        self.edit_properties(&[name], &[]);
    }

    /// Removes every property named in `remove`, then sets each of `set`
    /// in order: one rewrite of the property bytes.
    pub fn edit_properties(&mut self, remove: &[&str], set: &[(&str, PropertyValue<'_>)]) {
        let mut entries: Vec<_> = self
            .properties
            .iter()
            .filter(|(name, _)| !remove.contains(name))
            .collect();
        entries.extend_from_slice(set);
        let edited = Properties::from_entries(&mut entries);
        self.properties = edited;
    }

    /// Delivery priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Whether the message survives queue-manager restart.
    pub fn is_persistent(&self) -> bool {
        self.persistent
    }

    /// The sender-requested time-to-live, if any.
    pub fn ttl(&self) -> Option<Millis> {
        self.ttl
    }

    /// Absolute expiry time stamped at enqueue, if any.
    pub fn expiry(&self) -> Option<Time> {
        self.expiry
    }

    /// Returns `true` if the message is expired at `now`.
    pub fn is_expired(&self, now: Time) -> bool {
        matches!(self.expiry, Some(e) if now >= e)
    }

    /// Correlation id linking this message to another.
    pub fn correlation_id(&self) -> Option<&str> {
        self.correlation.as_ref().map(Correlation::as_str)
    }

    /// The value of a correlation id of exactly 32 lowercase hex digits,
    /// the form [`MessageBuilder::correlation_u128`] writes; `None` for any
    /// other correlation id, or none.
    pub fn correlation_u128(&self) -> Option<u128> {
        self.correlation.as_ref()?.as_u128()
    }

    /// Address replies should be sent to.
    pub fn reply_to(&self) -> Option<&QueueAddress> {
        self.reply_to.as_deref()
    }

    /// Broker timestamp of the most recent enqueue.
    pub fn put_time(&self) -> Option<Time> {
        self.put_time
    }

    /// How many times delivery of this message has been rolled back.
    pub fn redelivery_count(&self) -> u32 {
        self.redelivery_count
    }

    // --- crate-internal access used by the codec and the broker ---

    /// The property section, as the image carries it.
    pub(crate) fn property_section(&self) -> &Properties {
        &self.properties
    }

    pub(crate) fn correlation(&self) -> Option<&Correlation> {
        self.correlation.as_ref()
    }

    pub(crate) fn stamp_enqueue(&mut self, now: Time) {
        self.put_time = Some(now);
        if self.expiry.is_none() {
            if let Some(ttl) = self.ttl {
                self.expiry = Some(now + ttl);
            }
        }
    }

    pub(crate) fn bump_redelivery(&mut self) {
        self.redelivery_count += 1;
    }

    /// Strips TTL and absolute expiry. Used when a message is diverted to
    /// the dead-letter queue for audit: an expired envelope must not
    /// evaporate off the DLQ before an operator can inspect it.
    pub(crate) fn clear_expiry(&mut self) {
        self.ttl = None;
        self.expiry = None;
    }

    /// A message of `template`'s shape: its properties (the bytes shared,
    /// not copied), priority, persistence, time-to-live and reply-to
    /// address, with a fresh id, `payload` and the correlation id
    /// `correlation` written as 32 lowercase hex digits. A sender that puts
    /// many messages differing only in those builds the template once and
    /// each message from it, allocating nothing.
    pub fn from_template(template: &Message, payload: Bytes, correlation: u128) -> Message {
        Message {
            id: MessageId::generate(),
            payload,
            properties: template.properties.clone(),
            correlation: Some(Correlation::from_u128(correlation)),
            reply_to: template.reply_to.clone(),
            priority: template.priority,
            persistent: template.persistent,
            ttl: template.ttl,
            expiry: None,
            put_time: None,
            redelivery_count: 0,
        }
    }

    /// This message under a fresh id, as the sender built it: no enqueue
    /// stamps, no redeliveries. A topic delivers one to each subscriber.
    pub(crate) fn copy_with_new_id(&self) -> Message {
        Message {
            id: MessageId::generate(),
            expiry: None,
            put_time: None,
            redelivery_count: 0,
            ..self.clone()
        }
    }

    /// Reconstructs a message from raw parts (codec/journal use only).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        id: MessageId,
        payload: Bytes,
        properties: Properties,
        priority: Priority,
        persistent: bool,
        ttl: Option<Millis>,
        expiry: Option<Time>,
        correlation: Option<Correlation>,
        reply_to: Option<QueueAddress>,
        put_time: Option<Time>,
        redelivery_count: u32,
    ) -> Message {
        Message {
            id,
            payload,
            properties,
            correlation,
            reply_to: reply_to.map(Arc::new),
            priority,
            persistent,
            ttl,
            expiry,
            put_time,
            redelivery_count,
        }
    }
}

/// Builder for [`Message`].
///
/// # Examples
///
/// ```
/// use mq::{Message, Priority};
///
/// let msg = Message::text("flight UA-17 inbound")
///     .property("kind", "flight")
///     .property("altitude", 31_000i64)
///     .priority(Priority::new(7))
///     .persistent(true)
///     .build();
/// assert_eq!(msg.str_property("kind"), Some("flight"));
/// ```
#[derive(Debug, Clone)]
pub struct MessageBuilder {
    payload: Bytes,
    /// A placeholder byte for the count, then each property as it was
    /// set, encoded; [`MessageBuilder::build`] orders them by name.
    properties: Encoder,
    property_count: usize,
    priority: Priority,
    persistent: bool,
    ttl: Option<Millis>,
    correlation: Option<Correlation>,
    reply_to: Option<Arc<QueueAddress>>,
}

impl MessageBuilder {
    fn new(payload: impl Into<Bytes>) -> MessageBuilder {
        MessageBuilder {
            payload: payload.into(),
            properties: Encoder::new(),
            property_count: 0,
            priority: Priority::DEFAULT,
            persistent: false,
            ttl: None,
            correlation: None,
            reply_to: None,
        }
    }

    /// Adds a typed property; setting a name again replaces its value.
    pub fn property<'v>(mut self, name: &str, value: impl Into<PropertyValue<'v>>) -> Self {
        if self.property_count == 0 {
            self.properties = Encoder::with_capacity(64);
            self.properties.put_u8(0);
        }
        self.properties.put_property(name, value.into());
        self.property_count += 1;
        self
    }

    /// Sets the delivery priority (default [`Priority::DEFAULT`]).
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Marks the message persistent (journaled; survives restart).
    pub fn persistent(mut self, yes: bool) -> Self {
        self.persistent = yes;
        self
    }

    /// Sets a time-to-live; the broker computes the absolute expiry at
    /// enqueue time (paper: the `MsgExpiry` condition attribute).
    pub fn ttl(mut self, ttl: Millis) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Sets the correlation id.
    pub fn correlation_id(mut self, id: impl Into<String>) -> Self {
        self.correlation = Some(Correlation::new(&id.into()));
        self
    }

    /// Sets the correlation id to `id` written as 32 lowercase hex digits,
    /// the form a conditional message id travels in.
    pub fn correlation_u128(mut self, id: u128) -> Self {
        self.correlation = Some(Correlation::from_u128(id));
        self
    }

    /// Sets the reply-to address.
    pub fn reply_to(mut self, addr: QueueAddress) -> Self {
        self.reply_to = Some(Arc::new(addr));
        self
    }

    /// Finalizes the message with a freshly generated id.
    pub fn build(self) -> Message {
        let properties = match self.property_count {
            0 => Properties::empty(),
            n => Properties::from_scratch(n, self.properties.into_vec()),
        };
        Message {
            id: MessageId::generate(),
            payload: self.payload,
            properties,
            correlation: self.correlation,
            reply_to: self.reply_to,
            priority: self.priority,
            persistent: self.persistent,
            ttl: self.ttl,
            expiry: None,
            put_time: None,
            redelivery_count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_roundtrip() {
        let a = MessageId::generate();
        let b = MessageId::generate();
        assert_ne!(a, b);
        assert_eq!(MessageId::from_u128(a.as_u128()), a);
        assert_eq!(a.to_string().len(), 32);
        // One thread's ids increase within the process's epoch.
        assert!(b > a);
        assert_eq!(a.as_u128() >> 64, b.as_u128() >> 64);
    }

    #[test]
    fn eight_threads_generate_800k_distinct_ids_of_one_epoch() {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..100_000)
                        .map(|_| MessageId::generate().as_u128())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u128> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a duplicate id");
        // The epoch is never 0, so a test's `MessageId::from_u128(small)`
        // never collides with a generated id.
        assert!(all.iter().all(|id| id >> 64 == u128::from(epoch())));
        assert_ne!(epoch(), 0);
    }

    /// A checkpoint id is `generate().mix64()`: one left torn by an
    /// earlier process never equals one of this process.
    #[test]
    fn equal_counters_under_different_epochs_mix_apart() {
        for counter in [0, 1, 7, u64::MAX] {
            let a = MessageId::from_parts(1, counter);
            let b = MessageId::from_parts(2, counter);
            assert_ne!(a.mix64(), b.mix64(), "counter {counter}");
        }
    }

    #[test]
    fn priority_clamps() {
        assert_eq!(Priority::new(12), Priority::MAX);
        assert_eq!(Priority::new(0), Priority::MIN);
        assert_eq!(Priority::default(), Priority::DEFAULT);
        assert_eq!(Priority::new(3).level(), 3);
    }

    #[test]
    fn builder_sets_all_fields() {
        let msg = Message::text("hello")
            .property("a", 1i64)
            .property("b", "two")
            .property("c", true)
            .priority(Priority::new(8))
            .persistent(true)
            .ttl(Millis(500))
            .correlation_id("corr-1")
            .reply_to(QueueAddress::new("QM1", "REPLY.Q"))
            .build();
        assert_eq!(msg.payload_str(), Some("hello"));
        assert_eq!(msg.i64_property("a"), Some(1));
        assert_eq!(msg.str_property("b"), Some("two"));
        assert_eq!(msg.bool_property("c"), Some(true));
        assert_eq!(msg.priority().level(), 8);
        assert!(msg.is_persistent());
        assert_eq!(msg.ttl(), Some(Millis(500)));
        assert_eq!(msg.correlation_id(), Some("corr-1"));
        assert_eq!(msg.reply_to().unwrap().queue, "REPLY.Q");
        assert_eq!(msg.redelivery_count(), 0);
        assert!(msg.put_time().is_none());
    }

    #[test]
    fn enqueue_stamps_put_time_and_expiry() {
        let mut msg = Message::text("x").ttl(Millis(100)).build();
        msg.stamp_enqueue(Time(50));
        assert_eq!(msg.put_time(), Some(Time(50)));
        assert_eq!(msg.expiry(), Some(Time(150)));
        assert!(!msg.is_expired(Time(149)));
        assert!(msg.is_expired(Time(150)));

        // Re-enqueue (redelivery) does not extend the expiry.
        msg.stamp_enqueue(Time(200));
        assert_eq!(msg.expiry(), Some(Time(150)));
    }

    #[test]
    fn message_without_ttl_never_expires() {
        let mut msg = Message::text("x").build();
        msg.stamp_enqueue(Time(10));
        assert!(!msg.is_expired(Time::MAX));
    }

    #[test]
    fn queue_address_parse_and_display() {
        let addr = QueueAddress::parse("QM1/ORDERS.Q").unwrap();
        assert_eq!(addr.manager, "QM1");
        assert_eq!(addr.queue, "ORDERS.Q");
        assert_eq!(addr.to_string(), "QM1/ORDERS.Q");
        assert!(QueueAddress::parse("no-slash").is_none());
        assert!(QueueAddress::parse("/q").is_none());
        assert!(QueueAddress::parse("m/").is_none());
    }

    #[test]
    fn property_value_conversions() {
        assert_eq!(PropertyValue::from(3i64).as_i64(), Some(3));
        assert_eq!(PropertyValue::from(3u64).as_i64(), Some(3));
        assert_eq!(PropertyValue::from("s").as_str(), Some("s"));
        assert_eq!(PropertyValue::from(true).as_bool(), Some(true));
        assert_eq!(PropertyValue::Str("x").as_i64(), None);
    }

    #[test]
    fn set_property_overwrites() {
        let mut msg = Message::text("x").property("k", 1i64).build();
        msg.set_property("k", 2i64);
        assert_eq!(msg.i64_property("k"), Some(2));
        assert_eq!(msg.properties().count(), 1);
    }

    #[test]
    fn properties_read_back_in_name_order_whatever_order_they_were_set_in() {
        let msg = Message::text("x")
            .property("b", 2i64)
            .property("a", "one")
            .property("c", true)
            .property("b", 3i64)
            .build();
        let props: Vec<_> = msg.properties().collect();
        assert_eq!(
            props,
            [
                ("a", PropertyValue::Str("one")),
                ("b", PropertyValue::I64(3)),
                ("c", PropertyValue::Bool(true)),
            ]
        );
        assert_eq!(msg.property("bb"), None);
        // Equal sets are equal bytes, so equal messages.
        let mut same = msg.clone();
        same.edit_properties(&["b"], &[("b", PropertyValue::I64(3))]);
        assert_eq!(same, msg);
    }

    #[test]
    fn edits_rewrite_the_copy_they_are_made_on_only() {
        let original = Message::text("x").property("k", 1i64).build();
        let mut edited = original.clone();
        edited.edit_properties(&["k"], &[("m", "v".into()), ("n", false.into())]);
        assert_eq!(edited.property("k"), None);
        assert_eq!(edited.str_property("m"), Some("v"));
        assert_eq!(edited.bool_property("n"), Some(false));
        assert_eq!(original.i64_property("k"), Some(1));
        edited.remove_property("m");
        edited.remove_property("n");
        assert_eq!(edited.properties().count(), 0);
        assert_eq!(edited.property_section().as_bytes(), [0]);
    }

    #[test]
    fn a_clone_shares_the_payload_and_the_property_bytes() {
        let msg = Message::text("shared").property("k", "v").build();
        let copy = msg.clone();
        assert_eq!(copy.payload().as_ptr(), msg.payload().as_ptr());
        assert_eq!(
            copy.property_section().as_bytes().as_ptr(),
            msg.property_section().as_bytes().as_ptr()
        );
    }

    #[test]
    fn a_message_from_a_template_shares_its_property_bytes() {
        let template = Message::builder(Bytes::new())
            .property("k", "v")
            .priority(Priority::new(7))
            .persistent(true)
            .ttl(Millis(5))
            .build();
        let id = 0x0123_4567_89ab_cdef_0011_2233_4455_6677_u128;
        let msg = Message::from_template(&template, Bytes::from_static(b"body"), id);
        let built = Message::builder(Bytes::from_static(b"body"))
            .property("k", "v")
            .priority(Priority::new(7))
            .persistent(true)
            .ttl(Millis(5))
            .correlation_u128(id)
            .build();
        let built = Message {
            id: msg.id,
            ..built
        };
        assert_eq!(msg, built);
        assert_ne!(msg.id(), template.id());
        assert_eq!(
            msg.property_section().as_bytes().as_ptr(),
            template.property_section().as_bytes().as_ptr()
        );
    }

    #[test]
    fn a_hex_correlation_id_is_kept_as_its_digits() {
        let id = 0x0123_4567_89ab_cdef_0011_2233_4455_6677_u128;
        let by_value = Message::text("x").correlation_u128(id).build();
        let by_text = Message::text("x")
            .correlation_id(format!("{id:032x}"))
            .build();
        assert_eq!(by_value.correlation_id(), by_text.correlation_id());
        assert_eq!(
            by_value.correlation().and_then(Correlation::as_u128),
            Some(id)
        );
        assert_eq!(by_text.correlation_u128(), Some(id));
        let uppercase = Message::text("x")
            .correlation_id(format!("{id:032X}"))
            .build();
        assert_eq!(uppercase.correlation_u128(), None);
        let upper = Correlation::new(&format!("{id:032X}"));
        assert!(matches!(upper, Correlation::Text(_)));
        assert_eq!(upper.as_u128(), None);
    }

    /// The one-pass decode reads what a radix parse of the digits reads,
    /// at the boundaries of every nibble and half and on random ids, and
    /// refuses whatever is not 32 lowercase hex digits.
    #[test]
    fn the_hex_decode_reads_what_a_radix_parse_reads() {
        let boundaries = [0, 1, 9, 10, 15, 16, 0xff, u128::from(u64::MAX)]
            .into_iter()
            .chain([u128::from(u64::MAX) + 1, u128::MAX - 1, u128::MAX, 1 << 127]);
        let random = (0..4096).map(|_| {
            let mut rng = rand::thread_rng();
            u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
        });
        for id in boundaries.chain(random) {
            let digits = format!("{id:032x}");
            let parsed = u128::from_str_radix(&digits, 16).ok();
            assert_eq!(parsed, Some(id));
            assert_eq!(hex_u128(digits.as_bytes()), parsed, "{digits}");
            assert_eq!(Correlation::new(&digits).as_u128(), parsed, "{digits}");
            assert_eq!(Correlation::from_u128(id).as_u128(), parsed, "{digits}");
        }
        // Each byte that borders a digit range, in the first and the last
        // place; upper case; one digit short and one over.
        let zeros = "0".repeat(31);
        for odd in ['/', ':', '`', 'g', 'A', 'F', '@', ' ', '+'] {
            for text in [format!("{odd}{zeros}"), format!("{zeros}{odd}")] {
                assert_eq!(hex_u128(text.as_bytes()), None, "{text:?}");
                assert!(matches!(Correlation::new(&text), Correlation::Text(_)));
            }
        }
        assert_eq!(hex_u128(format!("{:032X}", 0xabcd_u128).as_bytes()), None);
        assert_eq!(hex_u128(zeros.as_bytes()), None);
        assert_eq!(hex_u128(format!("{zeros}00").as_bytes()), None);
    }

    /// Ids whose halves fold alike (`hi ^ lo` equal, which a peer can
    /// choose at will) hash apart, and spread over a table's buckets as
    /// the counters of one epoch do; every hasher of the process hashes
    /// an id alike.
    #[test]
    fn the_id_hasher_keeps_apart_ids_whose_halves_fold_alike() {
        let hash = |v: u128| {
            let mut hasher = IdHasher::default();
            hasher.write_u128(v);
            hasher.finish()
        };
        let folded = |x: u64| u128::from(x) << 64 | u128::from(x ^ 0x5555_aaaa_0f0f_f0f0);
        let counted = |n: u64| MessageId::from_parts(7, n).as_u128();
        for keys in [&folded as &dyn Fn(u64) -> u128, &counted] {
            let hashes: Vec<u64> = (0..4096).map(|x| hash(keys(x))).collect();
            let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
            assert_eq!(distinct.len(), 4096);
            // The bucket of a 4 096-slot table is the hash's low bits: as
            // uniform, ~2 589 of them would be taken; one shared fold
            // would take one.
            let buckets: std::collections::HashSet<u64> =
                hashes.iter().map(|h| h & 4095).collect();
            assert!(buckets.len() > 2_300, "{} buckets", buckets.len());
        }
        assert_eq!(hash(folded(1)), hash(folded(1)));
    }

    #[test]
    fn message_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Message>();
    }
}
