//! A message's properties are the bytes its image carries, so the image
//! of a message must not depend on how its property set came about.
//!
//! Two checks hold the property section to the one canonical encoding —
//! names in ascending order, each once, the last setting of a name
//! winning, registered strings as one-byte codes:
//!
//! * fixed messages, their images pinned byte for byte as an encoder that
//!   kept the properties in an ordered map (and encoded them at each
//!   image) wrote them: built, decoded, and rebuilt through
//!   `set_property`, each re-encodes to the pinned bytes;
//! * arbitrary sequences of settings, against a reference encoder that
//!   puts them into an ordered map and encodes it.

use std::collections::BTreeMap;

use bytes::Bytes;
use mq::codec::{CodecError, Encoder, WireDecode, WireEncode};
use mq::obs::WIRE_STRING_REGISTRY;
use mq::{Message, MessageBuilder, Priority, PropertyValue, QueueAddress};
use proptest::prelude::*;
use simtime::Millis;

/// An owned property value.
#[derive(Debug, Clone, PartialEq)]
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

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

/// The settings of each pinned message, in the order they are made:
/// registered and unregistered names and values, out of order, a name set
/// more than once, the extreme integers, non-ASCII text, the empty name.
fn cases() -> Vec<Vec<(&'static str, Value)>> {
    use Value::{Bool, I64};
    vec![
        vec![],
        vec![("ds.kind", s("original"))],
        vec![
            ("zeta", I64(-1)),
            ("alpha", Bool(true)),
            ("ds.leaf", I64(3)),
        ],
        vec![
            ("k", I64(1)),
            ("k", s("two")),
            ("j", Bool(false)),
            ("k", I64(300)),
        ],
        vec![
            ("ds.sender.qmgr", s("QM.HEAD")),
            ("ds.ack.queue", s("DS.ACK.Q")),
            ("ds.kind", s("original")),
            ("ds.leaf", I64(0)),
            ("ds.processing.required", Bool(false)),
        ],
        vec![
            ("sys.xmit.dest.queue", s("Q.IN")),
            ("sys.xmit.dest.qmgr", s("QM.TAIL")),
            ("sys.relay.origin", s("QM.HEAD")),
            ("app.note", s("h\u{e9}llo \u{fc}n\u{ef}code")),
            ("n", I64(i64::MIN)),
            ("m", I64(i64::MAX)),
        ],
        vec![
            ("", s("")),
            ("DS.ACK.Q", s("ds.kind")),
            ("ds.comp.dest", s("QM.HEAD/Q.B0")),
            ("ds.comp.system", Bool(true)),
        ],
    ]
}

/// Each case's image past its 16-byte message id.
const FIXTURES: [&str; 7] = [
    "0002097061796c6f61642030000700",
    "0141e0bd7935f1ac68240000000000000000097061796c6f616420310108001a00",
    "0208097061796c6f61642032030005616c706861030109010600047a657461010106636f72722d3200",
    "0303097061796c6f616420330200016a030000016b01d804bf1700",
    "0440b05ab0055bb0055b0000000000000000097061796c6f61642034050c002908001a0901000a03000b\
     000007514d2e4845414400",
    "0509097061796c6f616420350600086170702e6e6f746500001068c3a96c6c6f20c3bc6ec3af636f6465\
     00016d01feffffffffffffffff0100016e01ffffffffffffffffff0103000007514d2e4845414402000007\
     514d2e5441494c01000004512e494e06636f72722d3500",
    "0612097061796c6f616420360400000000002900081500000c514d2e484541442f512e4230140301f72e04\
     514d2e52075245504c592e5100",
];

/// Case `i`'s headers: everything but its properties.
fn headers(i: usize) -> MessageBuilder {
    let mut b = Message::text(format!("payload {i}"))
        .priority(Priority::new(i as u8))
        .persistent(i % 2 == 1);
    if i.is_multiple_of(3) {
        b = b.ttl(Millis(1000 * i as u64 + 7));
    }
    b = match i % 3 {
        0 => b,
        1 => b.correlation_id(format!(
            "{:032x}",
            0x1234_5678_9abc_def0_u128 * (i as u128 + 1)
        )),
        _ => b.correlation_id(format!("corr-{i}")),
    };
    if i == 6 {
        b = b.reply_to(QueueAddress::new("QM.R", "REPLY.Q"));
    }
    b
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn pinned_images_come_out_of_every_way_to_make_the_message() {
    for (i, (ops, fixture)) in cases().into_iter().zip(FIXTURES).enumerate() {
        let fixture = fixture.replace(char::is_whitespace, "");
        let built = ops
            .iter()
            .fold(headers(i), |b, (name, value)| {
                b.property(name, value.borrow())
            })
            .build();
        let image = built.to_bytes();
        assert_eq!(hex(&image[16..]), fixture, "case {i}: built");

        let decoded = Message::from_bytes(image.clone()).unwrap();
        assert_eq!(decoded, built, "case {i}");
        assert_eq!(decoded.to_bytes(), image, "case {i}: decoded");

        // The same settings made on a built message, one at a time.
        let mut stamped = headers(i).build();
        for (name, value) in &ops {
            stamped.set_property(name, value.borrow());
        }
        assert_eq!(hex(&stamped.to_bytes()[16..]), fixture, "case {i}: set");

        // The fixture under any id reads back as the same message.
        let mut raw = vec![0u8; 16];
        raw.extend(unhex(&fixture));
        let pinned = Message::from_bytes(Bytes::from(raw.clone())).unwrap();
        assert_eq!(pinned.to_bytes().to_vec(), raw, "case {i}: fixture");
    }
}

/// What a property section is: the settings put into an ordered map, the
/// map encoded.
fn reference_section(ops: &[(String, Value)]) -> Vec<u8> {
    let map: BTreeMap<&str, &Value> = ops.iter().map(|(n, v)| (n.as_str(), v)).collect();
    let mut enc = Encoder::new();
    enc.put_varint(map.len() as u64);
    for (name, value) in map {
        enc.put_wire_str(name);
        match value {
            Value::Str(v) => {
                enc.put_u8(0);
                enc.put_wire_str(v);
            }
            Value::I64(v) => {
                enc.put_u8(1);
                enc.put_zigzag(*v);
            }
            Value::Bool(v) => {
                enc.put_u8(3);
                enc.put_bool(*v);
            }
        }
    }
    enc.into_vec()
}

/// A registered string.
fn registered() -> impl Strategy<Value = String> {
    (0..WIRE_STRING_REGISTRY.len()).prop_map(|i| WIRE_STRING_REGISTRY[i].to_owned())
}

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof!["[a-c]{1,2}", registered(), any::<String>()]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-c]{0,2}".prop_map(Value::Str),
        registered().prop_map(Value::Str),
        any::<String>().prop_map(Value::Str),
        any::<i64>().prop_map(Value::I64),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    // Built, decoded or edited, a message carries the reference section;
    // settings written in the order they were made decode only when that
    // order is the reference section's.
    #[test]
    fn any_settings_encode_as_the_ordered_map_of_them(
        ops in proptest::collection::vec((arb_name(), arb_value()), 0..8),
        split in any::<usize>(),
    ) {
        let section = reference_section(&ops);
        // id, priority, flags, empty payload; the section; no redelivery.
        let at = 16 + 1 + 1 + 1;
        let built = ops
            .iter()
            .fold(Message::builder(Bytes::new()), |b, (n, v)| b.property(n, v.borrow()))
            .build();
        let image = built.to_bytes();
        prop_assert_eq!(&image[at..image.len() - 1], &section[..]);
        prop_assert_eq!(image.len(), at + section.len() + 1);
        prop_assert_eq!(built.wire_len(), image.len());
        prop_assert_eq!(Message::from_bytes(image.clone()).unwrap().to_bytes(), image.clone());

        // Half built, half set afterwards.
        let cut = split % (ops.len() + 1);
        let mut edited = ops[..cut]
            .iter()
            .fold(Message::builder(Bytes::new()), |b, (n, v)| b.property(n, v.borrow()))
            .build();
        for (name, value) in &ops[cut..] {
            edited.set_property(name, value.borrow());
        }
        prop_assert_eq!(&edited.to_bytes()[16..], &image[16..]);

        // Every setting written as made: it decodes only where that is
        // the reference section itself, and is refused as non-canonical
        // where names come out of order or repeated.
        let mut raw = image[..at].to_vec();
        let mut enc = Encoder::new();
        enc.put_varint(ops.len() as u64);
        for (name, value) in &ops {
            enc.put_property(name, value.borrow());
        }
        let written = enc.into_vec();
        raw.extend(&written);
        raw.push(0);
        let decoded = Message::from_bytes(Bytes::from(raw));
        if written == section {
            prop_assert_eq!(&decoded.unwrap().to_bytes()[16..], &image[16..]);
        } else {
            prop_assert!(matches!(decoded, Err(CodecError::NonCanonical(_))));
        }
    }
}
