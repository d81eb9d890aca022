//! The message model: identifiers, typed properties, headers and payload.
//!
//! Mirrors the JMS/MQSeries message shape the paper layers on: an opaque
//! payload plus a bag of typed, selectable properties and delivery headers
//! (priority, persistence, expiry, correlation id, reply-to address).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use rand::RngCore;
use simtime::{Millis, Time};

/// Globally unique message identifier (128 random bits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(u128);

impl MessageId {
    /// Generates a fresh random identifier.
    pub fn generate() -> MessageId {
        let mut bytes = [0u8; 16];
        rand::thread_rng().fill_bytes(&mut bytes);
        MessageId(u128::from_be_bytes(bytes))
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

/// A typed property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyValue {
    /// UTF-8 string.
    Str(String),
    /// 64-bit signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
}

impl PropertyValue {
    /// Returns the string value, if this is a string property.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropertyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer value, if this is an integer property.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            PropertyValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean value, if this is a boolean property.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PropertyValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Str(s) => write!(f, "{s}"),
            PropertyValue::I64(v) => write!(f, "{v}"),
            PropertyValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for PropertyValue {
    fn from(v: &str) -> Self {
        PropertyValue::Str(v.to_owned())
    }
}
impl From<String> for PropertyValue {
    fn from(v: String) -> Self {
        PropertyValue::Str(v)
    }
}
impl From<i64> for PropertyValue {
    fn from(v: i64) -> Self {
        PropertyValue::I64(v)
    }
}
impl From<u64> for PropertyValue {
    fn from(v: u64) -> Self {
        PropertyValue::I64(v as i64)
    }
}
impl From<bool> for PropertyValue {
    fn from(v: bool) -> Self {
        PropertyValue::Bool(v)
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
/// Construct with [`Message::builder`]. Most fields are immutable after
/// construction; the broker stamps `put_time`, absolute `expiry` and
/// `redelivery_count` during delivery.
#[derive(Debug, Clone)]
pub struct Message {
    id: MessageId,
    payload: Bytes,
    properties: BTreeMap<String, PropertyValue>,
    priority: Priority,
    persistent: bool,
    /// Time-to-live requested by the sender; converted to an absolute
    /// `expiry` when the message is enqueued.
    ttl: Option<Millis>,
    /// Absolute expiry stamped at enqueue time.
    expiry: Option<Time>,
    correlation_id: Option<String>,
    reply_to: Option<QueueAddress>,
    put_time: Option<Time>,
    redelivery_count: u32,
    /// Cached encoded wire image, filled lazily by `Message::wire_bytes`
    /// (in `codec.rs`). Clones share the cell; every mutator swaps in a
    /// fresh one (copy-on-write invalidation), so a stale image can never
    /// be observed. Excluded from equality.
    wire: Arc<OnceLock<Bytes>>,
}

impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        // All logical fields; the derived impl would also drag in the
        // wire-image cache, which is an encoding artifact, not state.
        self.id == other.id
            && self.payload == other.payload
            && self.properties == other.properties
            && self.priority == other.priority
            && self.persistent == other.persistent
            && self.ttl == other.ttl
            && self.expiry == other.expiry
            && self.correlation_id == other.correlation_id
            && self.reply_to == other.reply_to
            && self.put_time == other.put_time
            && self.redelivery_count == other.redelivery_count
    }
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
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
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
    pub fn properties(&self) -> impl Iterator<Item = (&str, &PropertyValue)> {
        self.properties.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sets a property on an existing message (used by the conditional
    /// messaging layer to stamp control information, paper §2.3).
    pub fn set_property(&mut self, name: impl Into<String>, value: impl Into<PropertyValue>) {
        self.invalidate_wire();
        self.properties.insert(name.into(), value.into());
    }

    /// Removes a property, returning its previous value (used by channels to
    /// strip transmission envelopes).
    pub fn remove_property(&mut self, name: &str) -> Option<PropertyValue> {
        self.invalidate_wire();
        self.properties.remove(name)
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
        self.correlation_id.as_deref()
    }

    /// Address replies should be sent to.
    pub fn reply_to(&self) -> Option<&QueueAddress> {
        self.reply_to.as_ref()
    }

    /// Broker timestamp of the most recent enqueue.
    pub fn put_time(&self) -> Option<Time> {
        self.put_time
    }

    /// How many times delivery of this message has been rolled back.
    pub fn redelivery_count(&self) -> u32 {
        self.redelivery_count
    }

    /// Approximate in-memory size, used for stats and max-length checks.
    pub fn size(&self) -> usize {
        self.payload.len()
            + self
                .properties
                .iter()
                .map(|(k, v)| {
                    k.len()
                        + match v {
                            PropertyValue::Str(s) => s.len(),
                            _ => 8,
                        }
                })
                .sum::<usize>()
    }

    // --- crate-internal mutation used by the broker ---

    /// The lazily-filled wire-image cell; see [`Message::wire_bytes`] in
    /// `codec.rs` for the fill side.
    pub(crate) fn wire_cache(&self) -> &OnceLock<Bytes> {
        &self.wire
    }

    /// Detaches this message from any wire image cached so far. Clones
    /// made before the mutation keep the old (still-correct) image via
    /// their own `Arc` handle.
    fn invalidate_wire(&mut self) {
        self.wire = Arc::new(OnceLock::new());
    }

    pub(crate) fn stamp_enqueue(&mut self, now: Time) {
        self.invalidate_wire();
        self.put_time = Some(now);
        if self.expiry.is_none() {
            if let Some(ttl) = self.ttl {
                self.expiry = Some(now + ttl);
            }
        }
    }

    pub(crate) fn bump_redelivery(&mut self) {
        self.invalidate_wire();
        self.redelivery_count += 1;
    }

    /// Strips TTL and absolute expiry. Used when a message is diverted to
    /// the dead-letter queue for audit: an expired envelope must not
    /// evaporate off the DLQ before an operator can inspect it.
    pub(crate) fn clear_expiry(&mut self) {
        self.invalidate_wire();
        self.ttl = None;
        self.expiry = None;
    }

    /// Reconstructs a message from raw parts (codec/journal use only).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        id: MessageId,
        payload: Bytes,
        properties: BTreeMap<String, PropertyValue>,
        priority: Priority,
        persistent: bool,
        ttl: Option<Millis>,
        expiry: Option<Time>,
        correlation_id: Option<String>,
        reply_to: Option<QueueAddress>,
        put_time: Option<Time>,
        redelivery_count: u32,
    ) -> Message {
        Message {
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
            wire: Arc::new(OnceLock::new()),
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
    properties: BTreeMap<String, PropertyValue>,
    priority: Priority,
    persistent: bool,
    ttl: Option<Millis>,
    correlation_id: Option<String>,
    reply_to: Option<QueueAddress>,
}

impl MessageBuilder {
    fn new(payload: impl Into<Bytes>) -> MessageBuilder {
        MessageBuilder {
            payload: payload.into(),
            properties: BTreeMap::new(),
            priority: Priority::DEFAULT,
            persistent: false,
            ttl: None,
            correlation_id: None,
            reply_to: None,
        }
    }

    /// Adds a typed property.
    pub fn property(mut self, name: impl Into<String>, value: impl Into<PropertyValue>) -> Self {
        self.properties.insert(name.into(), value.into());
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
        self.correlation_id = Some(id.into());
        self
    }

    /// Sets the reply-to address.
    pub fn reply_to(mut self, addr: QueueAddress) -> Self {
        self.reply_to = Some(addr);
        self
    }

    /// Finalizes the message with a freshly generated id.
    pub fn build(self) -> Message {
        Message {
            id: MessageId::generate(),
            payload: self.payload,
            properties: self.properties,
            priority: self.priority,
            persistent: self.persistent,
            ttl: self.ttl,
            expiry: None,
            correlation_id: self.correlation_id,
            reply_to: self.reply_to,
            put_time: None,
            redelivery_count: 0,
            wire: Arc::new(OnceLock::new()),
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
        assert_eq!(PropertyValue::Str("x".into()).as_i64(), None);
    }

    #[test]
    fn set_property_overwrites() {
        let mut msg = Message::text("x").property("k", 1i64).build();
        msg.set_property("k", 2i64);
        assert_eq!(msg.i64_property("k"), Some(2));
        assert_eq!(msg.properties().count(), 1);
    }

    #[test]
    fn size_accounts_for_payload_and_properties() {
        let msg = Message::text("12345").property("abc", "xyz").build();
        assert_eq!(msg.size(), 5 + 3 + 3);
    }

    #[test]
    fn message_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Message>();
    }
}
