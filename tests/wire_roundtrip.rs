//! Property-based round-trip fuzzing for the wire codec: arbitrary
//! condition trees and send options must survive encode→decode→encode
//! **byte-identically** (the binary format has a single canonical
//! encoding), sender-log entries must do the same as the messages that
//! carry them (`to_message`/`from_message`: the conditional id is the
//! message's correlation id, not part of the payload), a send's
//! log entry must decode to its send record, and the
//! message-property encodings must round-trip value-identically. One
//! original message's image, and a fan-out's journal record, are pinned
//! byte for byte.

use bytes::Bytes;
use condmsg::eval::LeafSpec;
use condmsg::wire::{
    log_entry, make_original, send_payload, AckKind, Acknowledgment, MessageOutcome,
    OutcomeNotification, SendOptions, SendRecord, SlogEntry,
};
use condmsg::{CondMessageId, Condition, Destination, DestinationSet};
use mq::codec::{WireDecode, WireEncode};
use mq::journal::JournalRecord;
use mq::obs::WIRE_STRING_REGISTRY;
use mq::{Message, Priority, QueueAddress};
use proptest::prelude::*;
use proptest::strategy::Union;
use simtime::{Millis, Time};

// ------------------------------------------------------------ strategies --

/// Millisecond values spanning zero, small, and huge (but `as i64`-safe,
/// since the message-property encodings store timestamps as `i64`).
fn arb_millis() -> impl Strategy<Value = Millis> {
    prop_oneof![
        5 => (0u64..10_000).prop_map(Millis),
        1 => Just(Millis(0)),
        1 => Just(Millis(i64::MAX as u64)),
    ]
}

fn arb_opt_millis() -> impl Strategy<Value = Option<Millis>> {
    proptest::option::weighted(0.5, arb_millis())
}

fn arb_time() -> impl Strategy<Value = Time> {
    (0u64..=i64::MAX as u64).prop_map(Time)
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.]{1,12}".to_owned()
}

fn arb_cond_id() -> impl Strategy<Value = CondMessageId> {
    any::<u128>().prop_map(CondMessageId::from_u128)
}

fn arb_priority() -> impl Strategy<Value = Priority> {
    (0u8..=9).prop_map(Priority::new)
}

fn arb_destination() -> impl Strategy<Value = Destination> {
    (
        ((arb_name(), arb_name()), proptest::option::weighted(0.4, arb_name())),
        (arb_opt_millis(), arb_opt_millis(), arb_opt_millis()),
        (
            proptest::option::weighted(0.3, any::<bool>()),
            proptest::option::weighted(0.3, arb_priority()),
        ),
    )
        .prop_map(
            |(((mgr, queue), recipient), (pickup, process, expiry), (persistent, priority))| {
                let mut d = Destination::addressed(QueueAddress::new(mgr, queue));
                if let Some(r) = recipient {
                    d = d.recipient(r);
                }
                if let Some(w) = pickup {
                    d = d.pickup_within(w);
                }
                if let Some(w) = process {
                    d = d.process_within(w);
                }
                if let Some(ttl) = expiry {
                    d = d.expiry(ttl);
                }
                if let Some(p) = persistent {
                    d = d.persistent(p);
                }
                if let Some(p) = priority {
                    d = d.priority(p);
                }
                d
            },
        )
}

fn arb_opt_count() -> impl Strategy<Value = Option<u32>> {
    proptest::option::weighted(0.4, 0u32..6)
}

/// The codec imposes no semantic validity, so the strategy deliberately
/// produces trees `validate()` would reject (empty sets, zero counts,
/// counts without windows): the wire format must round-trip them all.
fn arb_condition(depth: u32) -> proptest::strategy::BoxedStrategy<Condition> {
    let leaf = arb_destination().prop_map(Condition::from).boxed();
    if depth == 0 {
        return leaf;
    }
    let set = (
        proptest::collection::vec(arb_condition(depth - 1), 0..4),
        (arb_opt_millis(), arb_opt_millis()),
        (arb_opt_count(), arb_opt_count(), arb_opt_count(), arb_opt_count()),
        (
            arb_opt_millis(),
            proptest::option::weighted(0.3, any::<bool>()),
            proptest::option::weighted(0.3, arb_priority()),
        ),
    )
        .prop_map(
            |(
                members,
                (pickup, process),
                (min_p, max_p, min_x, max_x),
                (expiry, persistent, priority),
            )| {
                let mut s = DestinationSet::of(members);
                if let Some(w) = pickup {
                    s = s.pickup_within(w);
                }
                if let Some(w) = process {
                    s = s.process_within(w);
                }
                if let Some(n) = min_p {
                    s = s.min_pickup(n);
                }
                if let Some(n) = max_p {
                    s = s.max_pickup(n);
                }
                if let Some(n) = min_x {
                    s = s.min_process(n);
                }
                if let Some(n) = max_x {
                    s = s.max_process(n);
                }
                if let Some(ttl) = expiry {
                    s = s.expiry(ttl);
                }
                if let Some(p) = persistent {
                    s = s.persistent(p);
                }
                if let Some(p) = priority {
                    s = s.priority(p);
                }
                Condition::from(s)
            },
        )
        .boxed();
    Union::new_weighted(vec![(2, leaf), (3, set)]).boxed()
}

fn arb_send_options() -> impl Strategy<Value = SendOptions> {
    (
        arb_opt_millis(),
        proptest::option::weighted(0.4, any::<bool>()),
        any::<bool>(),
    )
        .prop_map(
            |(evaluation_timeout, success_notifications, defer_outcome_actions)| SendOptions {
                evaluation_timeout,
                success_notifications,
                defer_outcome_actions,
            },
        )
}

/// Respects the decoder invariant that a `Processed` ack carries a
/// processing timestamp (`from_message` rejects it otherwise).
fn arb_ack() -> impl Strategy<Value = Acknowledgment> {
    (
        (arb_cond_id(), 0u32..8, any::<bool>()),
        (arb_time(), arb_time(), any::<bool>()),
        proptest::option::weighted(0.4, arb_name()),
    )
        .prop_map(
            |((cond_id, leaf, processed), (read_at, t_proc, have_proc_ts), recipient)| {
                let kind = if processed {
                    AckKind::Processed
                } else {
                    AckKind::Read
                };
                Acknowledgment {
                    cond_id,
                    leaf,
                    kind,
                    read_at,
                    processed_at: (processed || have_proc_ts).then_some(t_proc),
                    recipient,
                }
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = OutcomeNotification> {
    (
        arb_cond_id(),
        any::<bool>(),
        proptest::option::weighted(0.4, arb_name()),
        arb_time(),
    )
        .prop_map(|(cond_id, success, reason, decided_at)| OutcomeNotification {
            cond_id,
            outcome: if success {
                MessageOutcome::Success
            } else {
                MessageOutcome::Failure
            },
            reason,
            decided_at,
        })
}

fn arb_send_record() -> impl Strategy<Value = SendRecord> {
    (
        arb_cond_id(),
        arb_time(),
        arb_condition(2),
        arb_send_options(),
    )
        .prop_map(|(cond_id, send_time, condition, options)| SendRecord {
            cond_id,
            send_time,
            condition,
            options,
        })
}

fn arb_slog_entry() -> impl Strategy<Value = SlogEntry> {
    prop_oneof![
        arb_send_record().prop_map(SlogEntry::Send),
        arb_ack().prop_map(SlogEntry::AckSeen),
        arb_cond_id().prop_map(SlogEntry::Verdict),
    ]
}

/// Asserts the canonical-encoding round trip for a [`WireEncode`] value:
/// decode recovers the value, and re-encoding reproduces the exact bytes.
fn assert_bytes_roundtrip<T>(value: &T) -> Result<(), proptest::test_runner::TestCaseError>
where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let bytes = value.to_bytes();
    let decoded = match T::from_bytes(bytes.clone()) {
        Ok(v) => v,
        Err(e) => {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "decode failed: {e:?} for {value:?}"
            )))
        }
    };
    prop_assert_eq!(&decoded, value, "decode must recover the value");
    prop_assert_eq!(
        decoded.to_bytes(),
        bytes,
        "re-encode must be byte-identical"
    );
    Ok(())
}

/// A message's image after its 16-byte message id.
fn image_after_id(msg: &Message) -> Bytes {
    let image = msg.to_bytes();
    image.slice(16..image.len())
}

/// Asserts the canonical round trip of a sender-log entry through the
/// message that carries it: `from_message` recovers the entry, and
/// `to_message` of that rebuilds the exact image (after the message id).
fn assert_slog_message_roundtrip(
    entry: &SlogEntry,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let msg = entry.to_message();
    let decoded = match SlogEntry::from_message(&msg) {
        Ok(v) => v,
        Err(e) => {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "decode failed: {e:?} for {entry:?}"
            )))
        }
    };
    prop_assert_eq!(&decoded, entry, "decode must recover the entry");
    prop_assert_eq!(
        image_after_id(&decoded.to_message()),
        image_after_id(&msg),
        "re-encode must be byte-identical"
    );
    Ok(())
}

// ---------------------------------------------------------------- golden --

/// The image of one original after its 16-byte message id. The
/// journal and the wire both carry it, and a registered string's position
/// is its code: reordering `mq::obs::WIRE_STRING_REGISTRY` or the header
/// layout makes every journal and peer of the previous build unreadable,
/// and fails here first.
#[test]
fn an_original_message_image_is_pinned_byte_for_byte() {
    let cond_id = CondMessageId::from_u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
    let leaf = LeafSpec {
        index: 0,
        queue: QueueAddress::new("QM2", "Q.IN"),
        recipient: None,
        pickup_window: None,
        process_window: None,
        processing_expected: false,
        expiry: None,
        persistent: true,
        priority: Priority::DEFAULT,
    };
    let msg = make_original(&Bytes::from_static(b"hi"), cond_id, &leaf, "QM1", "DS.ACK.Q");
    let code = |s: &str| 1 + WIRE_STRING_REGISTRY.iter().position(|r| *r == s).unwrap() as u8;
    assert_eq!((code("DS.ACK.Q"), code("original")), (41, 26));
    let golden = [
        // priority 4; flags persistent | 16-byte correlation id
        &[4u8, 0b100_0001][..],
        // correlation id: the conditional message id, u128 LE
        &cond_id.as_u128().to_le_bytes(),
        // payload; 5 properties
        &[2],
        b"hi",
        &[5],
        // ds.ack.queue (code 12) = Str DS.ACK.Q (41)
        &[12, 0, 41],
        // ds.kind (8) = Str original (26)
        &[8, 0, 26],
        // ds.leaf (9) = I64 0; ds.processing.required (10) = Bool false
        &[9, 1, 0, 10, 3, 0],
        // ds.sender.qmgr (11) = Str, unregistered: 0, length, "QM1"
        &[11, 0, 0, 3],
        b"QM1",
        // redelivery count
        &[0],
    ]
    .concat();
    assert_eq!(&image_after_id(&msg)[..], &golden[..]);
    let back = Message::from_bytes(msg.to_bytes()).unwrap();
    assert_eq!(back, msg);
    assert_eq!(back.correlation_id(), Some(cond_id.to_hex().as_str()));
}

/// `msg` under the id `id`: its image read back with the id replaced.
fn with_id(msg: &Message, id: u128) -> Message {
    let mut image = msg.to_bytes().to_vec();
    image[..16].copy_from_slice(&id.to_le_bytes());
    Message::from_bytes(Bytes::from(image)).unwrap()
}

/// A send's fan-out in its journal record: the second original's payload
/// is the first's, so its image leaves the payload out and sets flags bit
/// 7. The bit's position is an on-storage format, like a registry code.
/// Each id is written relative to the id before it in the record. The ids
/// are those of one send of two leaves: the conditional id `c`, its
/// sender-log entry `c + 1`, two compensations, the originals `c + 4` and
/// `c + 5`.
#[test]
fn a_fan_out_record_is_pinned_byte_for_byte() {
    let c = 0x0123_4567_89ab_cdef_0000_0000_0000_0100_u128;
    let cond_id = CondMessageId::from_u128(c);
    let leaf = |index: u32| LeafSpec {
        index,
        queue: QueueAddress::new("QM1", format!("Q.L{index}")),
        recipient: None,
        pickup_window: None,
        process_window: None,
        processing_expected: false,
        expiry: None,
        persistent: true,
        priority: Priority::DEFAULT,
    };
    let payload = Bytes::from_static(b"hi");
    let originals: Vec<Message> = (0..2)
        .map(|i| {
            let original = make_original(&payload, cond_id, &leaf(i), "QM1", "DS.ACK.Q");
            with_id(&original, c + 4 + u128::from(i))
        })
        .collect();
    let record = JournalRecord::TxCommit {
        puts: vec![
            ("Q.L0".into(), originals[0].clone()),
            ("Q.L1".into(), originals[1].clone()),
        ],
        gets: vec![],
    };
    let image = originals[0].to_bytes();
    let golden = [
        // TxCommit, 2 puts; Q.L0 unregistered: 0, length, name
        &[14u8, 2, 0, 4][..],
        b"Q.L0",
        // The record's first id is whole: a 0 escape, then the id.
        &[0],
        &(c + 4).to_le_bytes(),
        // priority 4; flags persistent | 16-byte correlation id; the
        // correlation id c as the zigzag varint of -4, plus one
        &[4, 0b100_0001, 8],
        // the rest of the first original's image, as pinned above
        &image[16 + 1 + 1 + 16..],
        &[0, 4],
        b"Q.L1",
        // the id c + 5 after c: zigzag 5, plus one
        &[11],
        // priority 4; flags persistent | 16-byte correlation id | the
        // previous put's payload; c after c + 5: zigzag -5, plus one; no
        // payload; 5 properties as pinned above, ds.leaf = I64 1
        &[4, 0b1100_0001, 10, 5],
        &[12, 0, 41, 8, 0, 26, 9, 1, 2, 10, 3, 0, 11, 0, 0, 3],
        b"QM1",
        // redelivery count; no gets
        &[0, 0],
    ]
    .concat();
    let bytes = record.to_bytes();
    assert_eq!(&bytes[..], &golden[..]);
    let back = JournalRecord::from_bytes(bytes).unwrap();
    assert_eq!(back, record);
}

/// The sender's log and verdict images: a sender-log entry says what it is
/// in its payload's first byte and carries no property — a verdict entry is
/// that byte alone — and a verdict's one image is its outcome notification,
/// reason included. Neither carries `ds.kind`: its queue says what it is.
#[test]
fn a_sender_log_entry_and_an_outcome_notification_are_pinned_byte_for_byte() {
    let cond_id = CondMessageId::from_u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
    let code = |s: &str| 1 + WIRE_STRING_REGISTRY.iter().position(|r| *r == s).unwrap() as u8;
    assert_eq!(code("failure"), 35);
    let id = &cond_id.as_u128().to_le_bytes()[..];
    let ack = Acknowledgment {
        cond_id,
        leaf: 1,
        kind: AckKind::Read,
        read_at: Time(300),
        processed_at: None,
        recipient: None,
    };
    let golden = [
        // priority 4; flags persistent | 16-byte correlation id
        &[4u8, 0b100_0001][..],
        id,
        // payload: tag 1 (ack seen), leaf 1, read, read_at 300, no
        // processing time, no recipient
        &[7, 1, 1, 0, 0xac, 0x02, 0, 0],
        // no property
        &[0],
        &[0],
    ]
    .concat();
    let entry = SlogEntry::AckSeen(ack).to_message();
    assert_eq!(&image_after_id(&entry)[..], &golden[..]);
    let golden = [
        // priority 4; flags as above; payload: tag 3 (verdict); no property
        &[4u8, 0b100_0001][..],
        id,
        &[1, 3],
        &[0],
        &[0],
    ]
    .concat();
    let entry = SlogEntry::Verdict(cond_id).to_message();
    assert_eq!(&image_after_id(&entry)[..], &golden[..]);

    let verdict = OutcomeNotification {
        cond_id,
        outcome: MessageOutcome::Failure,
        reason: Some("late".into()),
        decided_at: Time(300),
    };
    let golden = [
        // priority 4; flags as above; no payload; 3 properties
        &[4u8, 0b100_0001][..],
        id,
        &[0, 3],
        // ds.outcome (17) = Str failure (35)
        &[17, 0, 35],
        // ds.outcome.reason (18) = Str, unregistered: 0, length, "late"
        &[18, 0, 0, 4],
        b"late",
        // ds.outcome.ts (19) = I64 300, zigzag varint
        &[19, 1, 0xd8, 0x04],
        &[0],
    ]
    .concat();
    assert_eq!(&image_after_id(&verdict.to_message())[..], &golden[..]);
}

// ------------------------------------------------------------ properties --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A send writes its log entry without building a `SendRecord`: the
    /// condition is encoded once, into the payload, and that slice of it
    /// is the key the condition's compiled form is interned by. The entry
    /// decodes back to the record it was written from.
    #[test]
    fn a_send_payload_decodes_to_its_send_record(record in arb_send_record()) {
        let (payload, key) = send_payload(record.send_time, &record.condition, &record.options);
        prop_assert_eq!(&payload[key], &record.condition.to_bytes()[..]);
        let entry = log_entry(record.cond_id, payload);
        prop_assert_eq!(SlogEntry::from_message(&entry).unwrap(), SlogEntry::Send(record));
    }

    /// Condition trees (the paper's Fig. 3 composite) have one canonical
    /// byte encoding: encode→decode→encode is the identity on bytes.
    #[test]
    fn condition_roundtrip_byte_identical(cond in arb_condition(3)) {
        assert_bytes_roundtrip(&cond)?;
    }

    /// Per-send options survive the codec byte-identically.
    #[test]
    fn send_options_roundtrip_byte_identical(opts in arb_send_options()) {
        assert_bytes_roundtrip(&opts)?;
    }

    /// Durable sender-log send records (condition + options, the id as
    /// the correlation id) survive the sender-log message byte-identically.
    #[test]
    fn send_record_roundtrip_byte_identical(record in arb_send_record()) {
        assert_slog_message_roundtrip(&SlogEntry::Send(record))?;
    }

    /// Every sender-log entry variant survives the sender-log message
    /// byte-identically.
    #[test]
    fn slog_entry_roundtrip_byte_identical(entry in arb_slog_entry()) {
        assert_slog_message_roundtrip(&entry)?;
    }

    /// Sender-log entries carried as queue messages round-trip through the
    /// message-property encoding (`to_message`/`from_message`).
    #[test]
    fn slog_entry_message_roundtrip(entry in arb_slog_entry()) {
        let msg = entry.to_message();
        let back = SlogEntry::from_message(&msg).expect("slog decodes");
        prop_assert_eq!(back, entry);
    }

    /// Acknowledgment headers round-trip through the message-property
    /// encoding, including the `Processed ⇒ processing timestamp`
    /// invariant.
    #[test]
    fn ack_message_roundtrip(ack in arb_ack()) {
        let msg = ack.to_message();
        let back = Acknowledgment::from_message(&msg).expect("ack decodes");
        prop_assert_eq!(back, ack);
    }

    /// Outcome notifications round-trip through the message-property
    /// encoding.
    #[test]
    fn outcome_message_roundtrip(outcome in arb_outcome()) {
        let msg = outcome.to_message();
        let back = OutcomeNotification::from_message(&msg).expect("outcome decodes");
        prop_assert_eq!(back, outcome);
    }
}
