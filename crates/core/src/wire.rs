//! Control information stamped on standard messages, and the internal
//! message formats of the conditional-messaging system.
//!
//! Conditional messaging introduces *two levels* of messages (paper §2.3):
//! the conditional message the application sees, and the standard messages
//! used to implement it. The standard messages carry control information —
//! the conditional message id, the leaf index, whether processing is
//! required, and the sender's queue manager and acknowledgment queue — so
//! that any receiver-side conditional messaging system can route
//! acknowledgments back without application involvement.
//!
//! The conditional message id travels once, as the standard message's
//! correlation id (hex, which the message image carries as 16 bytes):
//! originals, acknowledgments, outcome notifications, compensations,
//! success notifications and both logs' entries all set it, and the queues
//! index it exactly. Everything else is a `ds.*` property, and only what a
//! reader reads: [`P_KIND`] is on the three kinds a read tells apart
//! ([`kind_of`]), not on acknowledgments, outcome notifications or log
//! entries, whose queue says what they are. Each name, each fixed value
//! (kinds, ack types, outcomes) and each default queue name is registered
//! in `mq::obs::WIRE_STRING_REGISTRY`, so the message image and the journal
//! carry it as a one-byte code.
//!
//! A verdict has one image, its [`OutcomeNotification`] on `DS.OUTCOME.Q`.
//! A sender-log entry ([`SlogEntry`]) is a send record, an acknowledgment
//! seen or a deferred verdict, its type the first byte of its payload.

use bytes::Bytes;
use mq::codec::{CodecError, Decoder, Encoder, WireDecode, WireEncode};
use mq::{Message, MessageBuilder};
use simtime::{Millis, Time};

use crate::condition::Condition;
use crate::error::{CondError, CondResult};
use crate::eval::LeafSpec;
use crate::ids::CondMessageId;

// ------------------------------------------------------------ properties --

/// Message kind discriminator property, on originals, compensations and
/// success notifications.
// lint: registry-sink wire-string
pub const P_KIND: &str = "ds.kind";
/// Destination leaf index property.
// lint: registry-sink wire-string
pub const P_LEAF: &str = "ds.leaf";
/// Whether processing (vs. mere receipt) is required of this destination.
// lint: registry-sink wire-string
pub const P_PROCESSING_REQUIRED: &str = "ds.processing.required";
/// Sender's queue manager name (for routing acks back).
// lint: registry-sink wire-string
pub const P_SENDER_MANAGER: &str = "ds.sender.qmgr";
/// Sender's acknowledgment queue name.
// lint: registry-sink wire-string
pub const P_ACK_QUEUE: &str = "ds.ack.queue";
/// Acknowledgment type: `read` or `processed`.
// lint: registry-sink wire-string
pub const P_ACK_TYPE: &str = "ds.ack.type";
/// Read timestamp (ms) on an acknowledgment.
// lint: registry-sink wire-string
pub const P_ACK_READ_TS: &str = "ds.ack.read_ts";
/// Processing (commit) timestamp (ms) on an acknowledgment.
// lint: registry-sink wire-string
pub const P_ACK_PROCESS_TS: &str = "ds.ack.process_ts";
/// Acknowledging recipient identity.
// lint: registry-sink wire-string
pub const P_RECIPIENT: &str = "ds.recipient";
/// Outcome property: `success` or `failure`.
// lint: registry-sink wire-string
pub const P_OUTCOME: &str = "ds.outcome";
/// Failure reason on outcome notifications.
// lint: registry-sink wire-string
pub const P_OUTCOME_REASON: &str = "ds.outcome.reason";
/// Decision timestamp on outcome notifications.
// lint: registry-sink wire-string
pub const P_OUTCOME_TS: &str = "ds.outcome.ts";
/// Marks a system-generated (data-less) compensation message.
// lint: registry-sink wire-string
pub const P_COMP_SYSTEM: &str = "ds.comp.system";

/// Values of [`P_KIND`].
pub mod kind {
    /// A generated standard message carrying the application payload.
    // lint: registry-sink wire-string
    pub const ORIGINAL: &str = "original";
    /// A compensation message (paper §2.6).
    // lint: registry-sink wire-string
    pub const COMPENSATION: &str = "comp";
    /// A success notification (paper §2.6).
    // lint: registry-sink wire-string
    pub const SUCCESS: &str = "success";
}

/// Values of [`P_ACK_TYPE`].
pub mod ack_type {
    /// A successful non-transactional read.
    // lint: registry-sink wire-string
    pub const READ: &str = "read";
    /// A successful transactional read: processing.
    // lint: registry-sink wire-string
    pub const PROCESSED: &str = "processed";
}

/// Values of [`P_OUTCOME`].
pub mod outcome {
    /// All conditions satisfied.
    // lint: registry-sink wire-string
    pub const SUCCESS: &str = "success";
    /// A condition was violated or the evaluation timed out.
    // lint: registry-sink wire-string
    pub const FAILURE: &str = "failure";
}

/// Classification of a message read through the conditional-messaging API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A conditional message's payload-bearing standard message.
    Original,
    /// A compensation message.
    Compensation,
    /// A success notification.
    SuccessNotification,
    /// A message not created by the conditional messaging system.
    Standard,
}

/// Classifies a message by its control properties.
pub fn kind_of(msg: &Message) -> MessageKind {
    match msg.str_property(P_KIND) {
        Some(kind::ORIGINAL) => MessageKind::Original,
        Some(kind::COMPENSATION) => MessageKind::Compensation,
        Some(kind::SUCCESS) => MessageKind::SuccessNotification,
        _ => MessageKind::Standard,
    }
}

/// Reads the conditional message id off an internal message: its
/// correlation id.
///
/// # Errors
///
/// [`CondError::Malformed`] when the correlation id is absent or is not a
/// conditional message id.
pub fn cond_id_of(msg: &Message) -> CondResult<CondMessageId> {
    msg.correlation_id()
        .and_then(CondMessageId::from_hex)
        .ok_or_else(|| CondError::Malformed("missing or invalid conditional message id".into()))
}

/// Reads the leaf index off an internal message.
///
/// # Errors
///
/// [`CondError::Malformed`] when the property is absent or negative.
pub fn leaf_of(msg: &Message) -> CondResult<u32> {
    msg.i64_property(P_LEAF)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| CondError::Malformed("missing or invalid ds.leaf".into()))
}

// -------------------------------------------------------------- original --

/// Builds the standard message for one destination leaf of a conditional
/// message (paper §2.3: application data plus control information).
pub fn make_original(
    payload: &Bytes,
    cond_id: CondMessageId,
    leaf: &LeafSpec,
    sender_manager: &str,
    ack_queue: &str,
) -> Message {
    // Here and below, properties are set in name order: the builder then
    // keeps them as they were written, with no sort.
    let mut builder: MessageBuilder = Message::builder(payload.clone())
        .property(P_ACK_QUEUE, ack_queue)
        .property(P_KIND, kind::ORIGINAL)
        .property(P_LEAF, i64::from(leaf.index))
        .property(P_PROCESSING_REQUIRED, leaf.processing_expected);
    if let Some(recipient) = &leaf.recipient {
        builder = builder.property(P_RECIPIENT, recipient.as_str());
    }
    builder = builder
        .property(P_SENDER_MANAGER, sender_manager)
        .priority(leaf.priority)
        .persistent(leaf.persistent)
        .correlation_u128(cond_id.as_u128());
    if let Some(ttl) = leaf.expiry {
        builder = builder.ttl(ttl);
    }
    builder.build()
}

// ------------------------------------------------------------------- ack --

/// The two internal acknowledgment types (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// Successful *non-transactional* read.
    Read,
    /// Successful *transactional* read — i.e. successful processing.
    Processed,
}

impl AckKind {
    /// The [`P_ACK_TYPE`] value.
    fn as_str(self) -> &'static str {
        match self {
            AckKind::Read => ack_type::READ,
            AckKind::Processed => ack_type::PROCESSED,
        }
    }
}

/// A decoded internal acknowledgment.
#[derive(Debug, Clone, PartialEq)]
pub struct Acknowledgment {
    /// Conditional message being acknowledged.
    pub cond_id: CondMessageId,
    /// Destination leaf index.
    pub leaf: u32,
    /// Read or processed.
    pub kind: AckKind,
    /// When the message was read from the queue.
    pub read_at: Time,
    /// When the receiver's transaction committed ([`AckKind::Processed`]
    /// only).
    pub processed_at: Option<Time>,
    /// Acknowledging recipient identity, if configured.
    pub recipient: Option<String>,
}

impl Acknowledgment {
    /// Encodes the acknowledgment as a persistent standard message.
    pub fn to_message(&self) -> Message {
        let mut builder = Message::builder(Bytes::new())
            .persistent(true)
            .correlation_u128(self.cond_id.as_u128());
        if let Some(t) = self.processed_at {
            builder = builder.property(P_ACK_PROCESS_TS, t.as_millis() as i64);
        }
        builder = builder
            .property(P_ACK_READ_TS, self.read_at.as_millis() as i64)
            .property(P_ACK_TYPE, self.kind.as_str())
            .property(P_LEAF, i64::from(self.leaf));
        if let Some(r) = &self.recipient {
            builder = builder.property(P_RECIPIENT, r.as_str());
        }
        builder.build()
    }

    /// Decodes an acknowledgment from a message.
    ///
    /// # Errors
    ///
    /// [`CondError::Malformed`] when required properties are missing.
    pub fn from_message(msg: &Message) -> CondResult<Acknowledgment> {
        let cond_id = cond_id_of(msg)?;
        let leaf = leaf_of(msg)?;
        let kind = match msg.str_property(P_ACK_TYPE) {
            Some(ack_type::READ) => AckKind::Read,
            Some(ack_type::PROCESSED) => AckKind::Processed,
            other => return Err(CondError::Malformed(format!("bad ack type {other:?}"))),
        };
        let read_at = msg
            .i64_property(P_ACK_READ_TS)
            .map(|v| Time(v as u64))
            .ok_or_else(|| CondError::Malformed("ack missing read timestamp".into()))?;
        let processed_at = msg.i64_property(P_ACK_PROCESS_TS).map(|v| Time(v as u64));
        if kind == AckKind::Processed && processed_at.is_none() {
            return Err(CondError::Malformed(
                "processed ack missing processing timestamp".into(),
            ));
        }
        Ok(Acknowledgment {
            cond_id,
            leaf,
            kind,
            read_at,
            processed_at,
            recipient: msg.str_property(P_RECIPIENT).map(str::to_owned),
        })
    }
}

// --------------------------------------------------------------- outcome --

/// Final outcome of a conditional message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageOutcome {
    /// All conditions satisfied.
    Success,
    /// A condition was violated or the evaluation timed out.
    Failure,
}

impl MessageOutcome {
    /// The [`P_OUTCOME`] value.
    fn as_str(self) -> &'static str {
        match self {
            MessageOutcome::Success => outcome::SUCCESS,
            MessageOutcome::Failure => outcome::FAILURE,
        }
    }
}

impl std::fmt::Display for MessageOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An outcome notification delivered to the sender's `DS.OUTCOME.Q`.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeNotification {
    /// Which conditional message was decided.
    pub cond_id: CondMessageId,
    /// Success or failure.
    pub outcome: MessageOutcome,
    /// Failure reason, when available.
    pub reason: Option<String>,
    /// Sender-clock time of the decision.
    pub decided_at: Time,
}

impl OutcomeNotification {
    /// Encodes the notification as a persistent message.
    pub fn to_message(&self) -> Message {
        let mut builder = Message::builder(Bytes::new())
            .property(P_OUTCOME, self.outcome.as_str())
            .persistent(true)
            .correlation_u128(self.cond_id.as_u128());
        if let Some(reason) = &self.reason {
            builder = builder.property(P_OUTCOME_REASON, reason.as_str());
        }
        builder
            .property(P_OUTCOME_TS, self.decided_at.as_millis() as i64)
            .build()
    }

    /// Decodes a notification from a message.
    ///
    /// # Errors
    ///
    /// [`CondError::Malformed`] when required properties are missing.
    pub fn from_message(msg: &Message) -> CondResult<OutcomeNotification> {
        let cond_id = cond_id_of(msg)?;
        let outcome = match msg.str_property(P_OUTCOME) {
            Some(outcome::SUCCESS) => MessageOutcome::Success,
            Some(outcome::FAILURE) => MessageOutcome::Failure,
            other => return Err(CondError::Malformed(format!("bad outcome value {other:?}"))),
        };
        let decided_at = msg
            .i64_property(P_OUTCOME_TS)
            .map(|v| Time(v as u64))
            .ok_or_else(|| CondError::Malformed("outcome missing timestamp".into()))?;
        Ok(OutcomeNotification {
            cond_id,
            outcome,
            reason: msg.str_property(P_OUTCOME_REASON).map(str::to_owned),
            decided_at,
        })
    }
}

// --------------------------------------- compensation / success messages --

/// Builds the one compensation parked on `DS.COMP.Q` at send time for a
/// whole conditional message (paper §2.6). `data` is the
/// application-defined compensation payload; `None` parks the
/// system-generated variant. It names no leaf and no destination: a
/// failure fans it out per leaf ([`make_compensation`]) from the leaves of
/// the message's condition.
pub fn park_compensation(cond_id: CondMessageId, data: Option<&Bytes>) -> Message {
    compensation(cond_id, data).build()
}

/// A compensation up to its leaf: data, system flag, kind, persistence and
/// the conditional id.
fn compensation(cond_id: CondMessageId, data: Option<&Bytes>) -> MessageBuilder {
    Message::builder(data.cloned().unwrap_or_default())
        .property(P_COMP_SYSTEM, data.is_none())
        .property(P_KIND, kind::COMPENSATION)
        .persistent(true)
        .correlation_u128(cond_id.as_u128())
}

/// The application's compensation data in a parked compensation, or
/// `None` for the system-generated variant.
///
/// # Errors
///
/// [`CondError::Malformed`] when the message carries [`P_LEAF`] — the
/// per-leaf form once parked for every destination, which a release must
/// not fan out again — or lacks [`P_COMP_SYSTEM`].
pub fn parked_compensation_data(parked: &Message) -> CondResult<Option<&Bytes>> {
    if parked.i64_property(P_LEAF).is_some() {
        return Err(CondError::Malformed(
            "parked compensation names a leaf (per-leaf form)".into(),
        ));
    }
    match parked.bool_property(P_COMP_SYSTEM) {
        Some(true) => Ok(None),
        Some(false) => Ok(Some(parked.payload())),
        None => Err(CondError::Malformed(
            "parked compensation missing ds.comp.system".into(),
        )),
    }
}

/// Builds the compensation message one destination leaf receives when its
/// conditional message fails (paper §2.6). `data` is as for
/// [`park_compensation`].
pub fn make_compensation(cond_id: CondMessageId, leaf: u32, data: Option<&Bytes>) -> Message {
    compensation(cond_id, data)
        .property(P_LEAF, i64::from(leaf))
        .build()
}

/// Builds a success notification for one destination (paper §2.6).
pub fn make_success_notification(cond_id: CondMessageId, leaf: u32) -> Message {
    Message::builder(Bytes::new())
        .property(P_KIND, kind::SUCCESS)
        .property(P_LEAF, i64::from(leaf))
        .persistent(true)
        .correlation_u128(cond_id.as_u128())
        .build()
}

// ---------------------------------------------------------- sender's log --

/// Per-send options (paper: the sender may specify an evaluation timeout;
/// success notifications are an outcome action the system "can" perform).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SendOptions {
    /// Hard upper bound on evaluation, relative to the send timestamp. When
    /// it expires with the verdict still pending, the message fails.
    pub evaluation_timeout: Option<Millis>,
    /// Overrides the service-level default for sending success
    /// notifications to all destinations on success.
    pub success_notifications: Option<bool>,
    /// Defer outcome *actions* (compensation release / success
    /// notifications) until explicitly released — used by Dependency-
    /// Spheres, whose member messages act only on the overall sphere
    /// outcome (paper §3.1).
    pub defer_outcome_actions: bool,
}

impl WireEncode for SendOptions {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_opt(self.evaluation_timeout.as_ref(), |e, m| {
            e.put_varint(m.as_u64())
        });
        enc.put_opt(self.success_notifications.as_ref(), |e, b| e.put_bool(*b));
        enc.put_bool(self.defer_outcome_actions);
    }
}

impl WireDecode for SendOptions {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok(SendOptions {
            evaluation_timeout: dec.get_opt(|d| d.get_varint().map(Millis))?,
            success_notifications: dec.get_opt(|d| d.get_bool())?,
            defer_outcome_actions: dec.get_bool()?,
        })
    }
}

/// The durable record of one conditional send, written to `DS.SLOG.Q`
/// before the standard messages go out; recovery rebuilds evaluation state
/// from these. It holds what recovery reads and nothing else: the payload
/// travels in the originals, the compensation data is parked on
/// `DS.COMP.Q`.
#[derive(Debug, Clone, PartialEq)]
pub struct SendRecord {
    /// The conditional message id.
    pub cond_id: CondMessageId,
    /// Send timestamp on the sender's clock.
    pub send_time: Time,
    /// The full condition tree.
    pub condition: Condition,
    /// Per-send options.
    pub options: SendOptions,
}

/// A sender-log entry (a `DS.SLOG.Q` message).
#[derive(Debug, Clone, PartialEq)]
pub enum SlogEntry {
    /// A conditional message was sent.
    Send(SendRecord),
    /// An acknowledgment was consumed from `DS.ACK.Q`.
    AckSeen(Acknowledgment),
    /// The message is decided and its outcome actions are deferred (kept
    /// beside its send record until the release purges both).
    Verdict(CondMessageId),
}

impl SlogEntry {
    /// The conditional message this entry concerns.
    pub fn cond_id(&self) -> CondMessageId {
        match self {
            SlogEntry::Send(r) => r.cond_id,
            SlogEntry::AckSeen(a) => a.cond_id,
            SlogEntry::Verdict(id) => *id,
        }
    }

    /// Encodes the entry as a persistent sender-log message without
    /// properties. The conditional id is its correlation id, so the payload
    /// leaves it out.
    pub fn to_message(&self) -> Message {
        Message::builder(self.payload())
            .correlation_u128(self.cond_id().as_u128())
            .persistent(true)
            .build()
    }

    /// Decodes an entry from a `DS.SLOG.Q` message: its correlation id and
    /// its payload.
    ///
    /// # Errors
    ///
    /// [`CondError::Malformed`] on a missing id or an undecodable payload.
    pub fn from_message(msg: &Message) -> CondResult<SlogEntry> {
        let cond_id = cond_id_of(msg)?;
        let mut dec = Decoder::new(msg.payload().clone());
        let entry = SlogEntry::decode_payload(cond_id, &mut dec)?;
        if !dec.is_exhausted() {
            return Err(CodecError::LengthOverrun {
                declared: 0,
                remaining: dec.remaining(),
            }
            .into());
        }
        Ok(entry)
    }

    /// Everything but the conditional id: the entry's type tag (0 send, 1
    /// ack, 3 verdict; 2 is retired and decodes as `BadTag`), then times
    /// and counts as varints.
    fn payload(&self) -> Bytes {
        let mut enc = Encoder::new();
        match self {
            SlogEntry::Send(record) => {
                enc.put_u8(0);
                enc.put_varint(record.send_time.as_millis());
                record.condition.encode(&mut enc);
                record.options.encode(&mut enc);
            }
            SlogEntry::AckSeen(ack) => {
                enc.put_u8(1);
                enc.put_varint(u64::from(ack.leaf));
                enc.put_u8(match ack.kind {
                    AckKind::Read => 0,
                    AckKind::Processed => 1,
                });
                enc.put_varint(ack.read_at.as_millis());
                enc.put_opt(ack.processed_at.as_ref(), |e, t| {
                    e.put_varint(t.as_millis())
                });
                enc.put_opt(ack.recipient.as_ref(), |e, s| e.put_str(s));
            }
            SlogEntry::Verdict(_) => enc.put_u8(3),
        }
        enc.finish()
    }

    fn decode_payload(cond_id: CondMessageId, dec: &mut Decoder) -> Result<SlogEntry, CodecError> {
        match dec.get_u8()? {
            0 => Ok(SlogEntry::Send(SendRecord {
                cond_id,
                send_time: Time(dec.get_varint()?),
                condition: Condition::decode(dec)?,
                options: SendOptions::decode(dec)?,
            })),
            1 => Ok(SlogEntry::AckSeen(Acknowledgment {
                cond_id,
                leaf: dec.get_varint_u32()?,
                kind: match dec.get_u8()? {
                    0 => AckKind::Read,
                    1 => AckKind::Processed,
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "AckKind",
                            tag,
                        })
                    }
                },
                read_at: Time(dec.get_varint()?),
                processed_at: dec.get_opt(|d| d.get_varint().map(Time))?,
                recipient: dec.get_opt(|d| d.get_str())?,
            })),
            3 => Ok(SlogEntry::Verdict(cond_id)),
            tag => Err(CodecError::BadTag {
                what: "SlogEntry",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Destination;
    use mq::{Priority, QueueAddress};

    fn spec() -> LeafSpec {
        LeafSpec {
            index: 2,
            queue: QueueAddress::new("QM9", "Q.X"),
            recipient: Some("bob".into()),
            pickup_window: Some(Millis(100)),
            process_window: Some(Millis(200)),
            processing_expected: true,
            expiry: Some(Millis(5_000)),
            persistent: true,
            priority: Priority::new(7),
        }
    }

    #[test]
    fn original_carries_control_information() {
        let id = CondMessageId::generate();
        let payload = Bytes::from_static(b"data");
        let msg = make_original(&payload, id, &spec(), "QM1", "DS.ACK.Q");
        assert_eq!(kind_of(&msg), MessageKind::Original);
        assert_eq!(cond_id_of(&msg).unwrap(), id);
        assert_eq!(leaf_of(&msg).unwrap(), 2);
        assert_eq!(msg.bool_property(P_PROCESSING_REQUIRED), Some(true));
        assert_eq!(msg.str_property(P_SENDER_MANAGER), Some("QM1"));
        assert_eq!(msg.str_property(P_ACK_QUEUE), Some("DS.ACK.Q"));
        assert_eq!(msg.str_property(P_RECIPIENT), Some("bob"));
        assert_eq!(msg.priority(), Priority::new(7));
        assert!(msg.is_persistent());
        assert_eq!(msg.ttl(), Some(Millis(5_000)));
        assert_eq!(msg.payload(), &payload);
        assert_eq!(msg.correlation_id(), Some(id.to_hex().as_str()));
    }

    #[test]
    fn ack_roundtrip_read() {
        let ack = Acknowledgment {
            cond_id: CondMessageId::generate(),
            leaf: 3,
            kind: AckKind::Read,
            read_at: Time(500),
            processed_at: None,
            recipient: None,
        };
        let back = Acknowledgment::from_message(&ack.to_message()).unwrap();
        assert_eq!(back, ack);
    }

    #[test]
    fn ack_roundtrip_processed() {
        let ack = Acknowledgment {
            cond_id: CondMessageId::generate(),
            leaf: 0,
            kind: AckKind::Processed,
            read_at: Time(500),
            processed_at: Some(Time(900)),
            recipient: Some("r1".into()),
        };
        let back = Acknowledgment::from_message(&ack.to_message()).unwrap();
        assert_eq!(back, ack);
    }

    #[test]
    fn processed_ack_requires_processing_timestamp() {
        let mut msg = Acknowledgment {
            cond_id: CondMessageId::generate(),
            leaf: 0,
            kind: AckKind::Read,
            read_at: Time(1),
            processed_at: None,
            recipient: None,
        }
        .to_message();
        msg.set_property(P_ACK_TYPE, "processed");
        assert!(Acknowledgment::from_message(&msg).is_err());
        msg.set_property(P_ACK_TYPE, "bogus");
        assert!(Acknowledgment::from_message(&msg).is_err());
    }

    #[test]
    fn outcome_notification_roundtrip() {
        for (outcome, reason) in [
            (MessageOutcome::Success, None),
            (MessageOutcome::Failure, Some("deadline passed".to_owned())),
        ] {
            let n = OutcomeNotification {
                cond_id: CondMessageId::generate(),
                outcome,
                reason,
                decided_at: Time(1234),
            };
            let back = OutcomeNotification::from_message(&n.to_message()).unwrap();
            assert_eq!(back, n);
        }
    }

    #[test]
    fn one_parked_compensation_fans_out_per_leaf() {
        let id = CondMessageId::generate();
        let data = Bytes::from_static(b"undo!");
        for parked_data in [None, Some(&data)] {
            let parked = park_compensation(id, parked_data);
            assert_eq!(kind_of(&parked), MessageKind::Compensation);
            assert!(leaf_of(&parked).is_err(), "parked for no leaf");
            assert_eq!(cond_id_of(&parked).unwrap(), id);
            let data = parked_compensation_data(&parked).unwrap();
            assert_eq!(data, parked_data);
            let comp = make_compensation(id, 1, data);
            assert_eq!(kind_of(&comp), MessageKind::Compensation);
            assert_eq!(leaf_of(&comp).unwrap(), 1);
            assert_eq!(cond_id_of(&comp).unwrap(), id);
            let system = parked_data.is_none();
            assert_eq!(comp.bool_property(P_COMP_SYSTEM), Some(system));
            assert_eq!(comp.payload(), &parked_data.cloned().unwrap_or_default());
            // A per-leaf compensation is not a parked one.
            assert!(parked_compensation_data(&comp).is_err());
        }
    }

    #[test]
    fn success_notification_shape() {
        let id = CondMessageId::generate();
        let msg = make_success_notification(id, 4);
        assert_eq!(kind_of(&msg), MessageKind::SuccessNotification);
        assert_eq!(cond_id_of(&msg).unwrap(), id);
        assert_eq!(leaf_of(&msg).unwrap(), 4);
    }

    #[test]
    fn standard_messages_classify_as_standard() {
        let msg = Message::text("plain").build();
        assert_eq!(kind_of(&msg), MessageKind::Standard);
        assert!(cond_id_of(&msg).is_err());
        assert!(leaf_of(&msg).is_err());
        let correlated = Message::text("plain").correlation_id("order-7").build();
        assert!(cond_id_of(&correlated).is_err());
    }

    #[test]
    fn slog_entries_roundtrip() {
        let record = SendRecord {
            cond_id: CondMessageId::generate(),
            send_time: Time(42),
            condition: Destination::queue("M", "Q")
                .pickup_within(Millis(10))
                .into(),
            options: SendOptions {
                evaluation_timeout: Some(Millis(99)),
                success_notifications: Some(true),
                defer_outcome_actions: true,
            },
        };
        let entries = vec![
            SlogEntry::Send(record.clone()),
            SlogEntry::AckSeen(Acknowledgment {
                cond_id: record.cond_id,
                leaf: 0,
                kind: AckKind::Processed,
                read_at: Time(50),
                processed_at: Some(Time(60)),
                recipient: Some("x".into()),
            }),
            SlogEntry::Verdict(record.cond_id),
        ];
        for entry in entries {
            let msg = entry.to_message();
            assert_eq!(msg.properties().count(), 0, "the payload says it all");
            assert_eq!(cond_id_of(&msg).unwrap(), entry.cond_id());
            let back = SlogEntry::from_message(&msg).unwrap();
            assert_eq!(back, entry);
        }
    }

    #[test]
    fn a_retired_or_unknown_slog_tag_is_refused() {
        let id = CondMessageId::generate();
        for tag in [2u8, 4] {
            let msg = Message::builder(vec![tag])
                .correlation_u128(id.as_u128())
                .build();
            let err = SlogEntry::from_message(&msg).unwrap_err();
            assert!(matches!(err, CondError::Malformed(_)), "tag {tag}: {err:?}");
        }
        let verdict = SlogEntry::Verdict(id).to_message();
        assert_eq!(&verdict.payload()[..], &[3], "a verdict entry is its tag");
    }

    #[test]
    fn send_options_default_roundtrip() {
        let opts = SendOptions::default();
        let back = SendOptions::from_bytes(opts.to_bytes()).unwrap();
        assert_eq!(back, opts);
        assert!(back.evaluation_timeout.is_none());
        assert!(back.success_notifications.is_none());
    }
}
