//! The condition object model (paper §2.2, Fig. 3).
//!
//! Conditions follow the *Composite* pattern: a [`Destination`] leaf holds
//! per-queue requirements, a [`DestinationSet`] groups conditions and adds
//! set-level requirements. Time attributes are in milliseconds **relative
//! to the send timestamp** on the sender's clock:
//!
//! * `pickup_within` — the paper's `MsgPickUpTime`: a read of the message is
//!   required within this window.
//! * `process_within` — the paper's `MsgProcessingTime`: a successful
//!   (transactional) processing is required within this window.
//!
//! A destination with its own time condition is a **required destination**;
//! one that only inherits a set-level time condition guarded by
//! `min_pickup`/`min_process` is **optional** (the set is satisfied by any
//! `min..=max` of its members). A set-level time condition without a
//! min/max applies to *all* members.
//!
//! Conditions are plain values, independent of any message (paper §2.3:
//! "the separation of condition definition … allows conditions to be reused
//! for different messages").
//!
//! # Examples
//!
//! The paper's Example 1 (Fig. 4), scaled to milliseconds:
//!
//! ```
//! use condmsg::condition::{Condition, Destination, DestinationSet};
//! use simtime::Millis;
//!
//! const DAY: u64 = 24 * 3600 * 1000;
//! let qr3 = Destination::queue("QM1", "Q.R3")
//!     .recipient("receiver3")
//!     .process_within(Millis(7 * DAY));
//! let others = DestinationSet::of(vec![
//!     Destination::queue("QM1", "Q.R1").into(),
//!     Destination::queue("QM1", "Q.R2").into(),
//!     Destination::queue("QM1", "Q.R4").into(),
//! ])
//! .process_within(Millis(11 * DAY))
//! .min_process(2);
//! let root = DestinationSet::of(vec![qr3.into(), others.into()])
//!     .pickup_within(Millis(2 * DAY));
//! let condition = Condition::from(root);
//! condition.validate()?;
//! assert_eq!(condition.leaf_count(), 4);
//! # Ok::<(), condmsg::CondError>(())
//! ```

use std::fmt;

use mq::codec::{CodecError, Decoder, Encoder, WireDecode, WireEncode};
use mq::{Priority, QueueAddress};
use simtime::Millis;

use crate::error::{CondError, CondResult};

/// Condition attributes for a single destination queue (Composite leaf).
#[derive(Debug, Clone, PartialEq)]
pub struct Destination {
    queue: QueueAddress,
    recipient: Option<String>,
    pickup_within: Option<Millis>,
    process_within: Option<Millis>,
    expiry: Option<Millis>,
    persistent: Option<bool>,
    priority: Option<Priority>,
}

impl Destination {
    /// Creates a destination for `manager/queue` with no conditions.
    pub fn queue(manager: impl Into<String>, queue: impl Into<String>) -> Destination {
        Destination::addressed(QueueAddress::new(manager, queue))
    }

    /// Creates a destination from a full [`QueueAddress`].
    pub fn addressed(queue: QueueAddress) -> Destination {
        Destination {
            queue,
            recipient: None,
            pickup_within: None,
            process_within: None,
            expiry: None,
            persistent: None,
            priority: None,
        }
    }

    /// Names the expected final recipient (e.g. a userid). Destinations
    /// without a recipient are *anonymous*: whoever reads from the queue
    /// acknowledges (paper Example 2).
    pub fn recipient(mut self, id: impl Into<String>) -> Destination {
        self.recipient = Some(id.into());
        self
    }

    /// Requires a message read within `window` of the send timestamp
    /// (`MsgPickUpTime`). Makes this a *required* destination.
    pub fn pickup_within(mut self, window: Millis) -> Destination {
        self.pickup_within = Some(window);
        self
    }

    /// Requires successful processing within `window` of the send timestamp
    /// (`MsgProcessingTime`). Makes this a *required* destination.
    pub fn process_within(mut self, window: Millis) -> Destination {
        self.process_within = Some(window);
        self
    }

    /// Sets the generated message's expiry (`MsgExpiry`) for this
    /// destination.
    pub fn expiry(mut self, ttl: Millis) -> Destination {
        self.expiry = Some(ttl);
        self
    }

    /// Overrides message persistence (`MsgPersistence`) for this
    /// destination.
    pub fn persistent(mut self, yes: bool) -> Destination {
        self.persistent = Some(yes);
        self
    }

    /// Overrides delivery priority (`MsgPriority`) for this destination.
    pub fn priority(mut self, p: Priority) -> Destination {
        self.priority = Some(p);
        self
    }

    /// The destination queue address.
    pub fn address(&self) -> &QueueAddress {
        &self.queue
    }

    /// The named final recipient, if any.
    pub fn recipient_id(&self) -> Option<&str> {
        self.recipient.as_deref()
    }

    /// The destination's own pick-up window, if any.
    pub fn pickup_window(&self) -> Option<Millis> {
        self.pickup_within
    }

    /// The destination's own processing window, if any.
    pub fn process_window(&self) -> Option<Millis> {
        self.process_within
    }

    /// The destination's own expiry, if any.
    pub fn expiry_ttl(&self) -> Option<Millis> {
        self.expiry
    }

    /// The destination's own persistence override, if any.
    pub fn persistence(&self) -> Option<bool> {
        self.persistent
    }

    /// The destination's own priority override, if any.
    pub fn priority_override(&self) -> Option<Priority> {
        self.priority
    }

    /// Whether this destination carries its own time condition and is thus
    /// *required* (paper §2.2).
    pub fn is_required(&self) -> bool {
        self.pickup_within.is_some() || self.process_within.is_some()
    }
}

/// Set-level condition attributes over a group of conditions (Composite
/// composite).
#[derive(Debug, Clone, PartialEq)]
pub struct DestinationSet {
    members: Vec<Condition>,
    pickup_within: Option<Millis>,
    process_within: Option<Millis>,
    min_pickup: Option<u32>,
    max_pickup: Option<u32>,
    min_process: Option<u32>,
    max_process: Option<u32>,
    expiry: Option<Millis>,
    persistent: Option<bool>,
    priority: Option<Priority>,
}

impl DestinationSet {
    /// Creates a set over the given members.
    pub fn of(members: Vec<Condition>) -> DestinationSet {
        DestinationSet {
            members,
            pickup_within: None,
            process_within: None,
            min_pickup: None,
            max_pickup: None,
            min_process: None,
            max_process: None,
            expiry: None,
            persistent: None,
            priority: None,
        }
    }

    /// Creates an empty set (members added with [`DestinationSet::member`]).
    pub fn empty() -> DestinationSet {
        DestinationSet::of(Vec::new())
    }

    /// Adds a member condition.
    pub fn member(mut self, member: impl Into<Condition>) -> DestinationSet {
        self.members.push(member.into());
        self
    }

    /// Set-level pick-up window, applying to all member destinations that
    /// lack their own (all of them required unless `min_pickup` is given).
    pub fn pickup_within(mut self, window: Millis) -> DestinationSet {
        self.pickup_within = Some(window);
        self
    }

    /// Set-level processing window (see [`DestinationSet::pickup_within`]).
    pub fn process_within(mut self, window: Millis) -> DestinationSet {
        self.process_within = Some(window);
        self
    }

    /// At least `n` member destinations must be picked up within the
    /// set-level window (`MinNrPickUp`); members become optional.
    pub fn min_pickup(mut self, n: u32) -> DestinationSet {
        self.min_pickup = Some(n);
        self
    }

    /// Stop counting pick-ups beyond `n` (`MaxNrPickUp`): once `n` members
    /// have satisfied the window the set condition is settled.
    pub fn max_pickup(mut self, n: u32) -> DestinationSet {
        self.max_pickup = Some(n);
        self
    }

    /// At least `n` member destinations must process within the set-level
    /// window (`MinNrProcessing`).
    pub fn min_process(mut self, n: u32) -> DestinationSet {
        self.min_process = Some(n);
        self
    }

    /// Stop counting processings beyond `n` (`MaxNrProcessing`).
    pub fn max_process(mut self, n: u32) -> DestinationSet {
        self.max_process = Some(n);
        self
    }

    /// Default message expiry for members without their own.
    pub fn expiry(mut self, ttl: Millis) -> DestinationSet {
        self.expiry = Some(ttl);
        self
    }

    /// Default persistence for members without their own.
    pub fn persistent(mut self, yes: bool) -> DestinationSet {
        self.persistent = Some(yes);
        self
    }

    /// Default priority for members without their own.
    pub fn priority(mut self, p: Priority) -> DestinationSet {
        self.priority = Some(p);
        self
    }

    /// The member conditions.
    pub fn members(&self) -> &[Condition] {
        &self.members
    }

    /// Set-level pick-up window, if any.
    pub fn pickup_window(&self) -> Option<Millis> {
        self.pickup_within
    }

    /// Set-level processing window, if any.
    pub fn process_window(&self) -> Option<Millis> {
        self.process_within
    }

    /// `MinNrPickUp`, if set.
    pub fn min_pickup_count(&self) -> Option<u32> {
        self.min_pickup
    }

    /// `MaxNrPickUp`, if set.
    pub fn max_pickup_count(&self) -> Option<u32> {
        self.max_pickup
    }

    /// `MinNrProcessing`, if set.
    pub fn min_process_count(&self) -> Option<u32> {
        self.min_process
    }

    /// `MaxNrProcessing`, if set.
    pub fn max_process_count(&self) -> Option<u32> {
        self.max_process
    }

    /// Set-level expiry default, if any.
    pub fn expiry_ttl(&self) -> Option<Millis> {
        self.expiry
    }

    /// Set-level persistence default, if any.
    pub fn persistence(&self) -> Option<bool> {
        self.persistent
    }

    /// Set-level priority default, if any.
    pub fn priority_override(&self) -> Option<Priority> {
        self.priority
    }
}

/// A condition: either a single destination or a set (Composite root).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Condition on one destination queue.
    Destination(Destination),
    /// Condition on a (hierarchy of) set(s) of destinations.
    Set(DestinationSet),
}

impl From<Destination> for Condition {
    fn from(d: Destination) -> Condition {
        Condition::Destination(d)
    }
}

impl From<DestinationSet> for Condition {
    fn from(s: DestinationSet) -> Condition {
        Condition::Set(s)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Destination(d) => write!(
                f,
                "dest({}{})",
                d.queue,
                d.recipient
                    .as_deref()
                    .map(|r| format!(", {r}"))
                    .unwrap_or_default()
            ),
            Condition::Set(s) => {
                write!(f, "set[{} members]", s.members.len())
            }
        }
    }
}

impl Condition {
    /// Number of destination leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        match self {
            Condition::Destination(_) => 1,
            Condition::Set(s) => s.members.iter().map(Condition::leaf_count).sum(),
        }
    }

    /// Iterates over all destination leaves in definition (DFS) order. The
    /// position of a leaf in this iteration is its *leaf index*, used to
    /// correlate generated messages and acknowledgments.
    pub fn leaves(&self) -> Vec<&Destination> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Destination>) {
        match self {
            Condition::Destination(d) => out.push(d),
            Condition::Set(s) => {
                for m in &s.members {
                    m.collect_leaves(out);
                }
            }
        }
    }

    /// Validates the condition tree.
    ///
    /// # Errors
    ///
    /// [`CondError::InvalidCondition`] when:
    /// * a set is empty,
    /// * a min/max count is zero, inverted (`min > max`), or exceeds the
    ///   number of destination leaves under the set,
    /// * a min/max count is specified without the corresponding set-level
    ///   time window (a count without a window is unsatisfiable),
    /// * a queue address has an empty manager or queue name.
    pub fn validate(&self) -> CondResult<()> {
        match self {
            Condition::Destination(d) => {
                if d.queue.manager.is_empty() || d.queue.queue.is_empty() {
                    return Err(CondError::InvalidCondition(
                        "destination queue address has empty components".into(),
                    ));
                }
                Ok(())
            }
            Condition::Set(s) => {
                if s.members.is_empty() {
                    return Err(CondError::InvalidCondition("empty destination set".into()));
                }
                let leaves = self.leaf_count() as u32;
                for (dim, window, min, max) in [
                    ("pickup", s.pickup_within, s.min_pickup, s.max_pickup),
                    ("process", s.process_within, s.min_process, s.max_process),
                ] {
                    if (min.is_some() || max.is_some()) && window.is_none() {
                        return Err(CondError::InvalidCondition(format!(
                            "{dim} min/max count requires a set-level {dim} window"
                        )));
                    }
                    if let Some(m) = min {
                        if m == 0 {
                            return Err(CondError::InvalidCondition(format!(
                                "{dim} min count must be positive"
                            )));
                        }
                        if m > leaves {
                            return Err(CondError::InvalidCondition(format!(
                                "{dim} min count {m} exceeds {leaves} destinations"
                            )));
                        }
                    }
                    if let (Some(lo), Some(hi)) = (min, max) {
                        if lo > hi {
                            return Err(CondError::InvalidCondition(format!(
                                "{dim} min count {lo} exceeds max count {hi}"
                            )));
                        }
                    }
                    if let Some(h) = max {
                        if h == 0 {
                            return Err(CondError::InvalidCondition(format!(
                                "{dim} max count must be positive"
                            )));
                        }
                    }
                }
                for m in &s.members {
                    m.validate()?;
                }
                Ok(())
            }
        }
    }
}

// ------------------------------------------------------------------ wire --

// Windows and counts are varints: most take one or two bytes.

fn put_opt_millis(enc: &mut Encoder, v: Option<Millis>) {
    enc.put_opt(v.as_ref(), |e, m| e.put_varint(m.as_u64()));
}

fn get_opt_millis(dec: &mut Decoder) -> Result<Option<Millis>, CodecError> {
    dec.get_opt(|d| d.get_varint().map(Millis))
}

fn put_opt_u32(enc: &mut Encoder, v: Option<u32>) {
    enc.put_opt(v.as_ref(), |e, n| e.put_varint(u64::from(*n)));
}

fn get_opt_u32(dec: &mut Decoder) -> Result<Option<u32>, CodecError> {
    dec.get_opt(|d| d.get_varint_u32())
}

impl WireEncode for Destination {
    fn encode(&self, enc: &mut Encoder) {
        self.queue.encode(enc);
        enc.put_opt(self.recipient.as_ref(), |e, s| e.put_str(s));
        put_opt_millis(enc, self.pickup_within);
        put_opt_millis(enc, self.process_within);
        put_opt_millis(enc, self.expiry);
        enc.put_opt(self.persistent.as_ref(), |e, b| e.put_bool(*b));
        enc.put_opt(self.priority.as_ref(), |e, p| e.put_u8(p.level()));
    }
}

impl WireDecode for Destination {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok(Destination {
            queue: QueueAddress::decode(dec)?,
            recipient: dec.get_opt(|d| d.get_str())?,
            pickup_within: get_opt_millis(dec)?,
            process_within: get_opt_millis(dec)?,
            expiry: get_opt_millis(dec)?,
            persistent: dec.get_opt(|d| d.get_bool())?,
            priority: dec.get_opt(|d| d.get_u8().map(Priority::new))?,
        })
    }
}

impl WireEncode for DestinationSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.members.len() as u64);
        for m in &self.members {
            m.encode(enc);
        }
        put_opt_millis(enc, self.pickup_within);
        put_opt_millis(enc, self.process_within);
        put_opt_u32(enc, self.min_pickup);
        put_opt_u32(enc, self.max_pickup);
        put_opt_u32(enc, self.min_process);
        put_opt_u32(enc, self.max_process);
        put_opt_millis(enc, self.expiry);
        enc.put_opt(self.persistent.as_ref(), |e, b| e.put_bool(*b));
        enc.put_opt(self.priority.as_ref(), |e, p| e.put_u8(p.level()));
    }
}

impl WireDecode for DestinationSet {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        let n = dec.get_varint()?;
        let mut members = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            members.push(Condition::decode(dec)?);
        }
        Ok(DestinationSet {
            members,
            pickup_within: get_opt_millis(dec)?,
            process_within: get_opt_millis(dec)?,
            min_pickup: get_opt_u32(dec)?,
            max_pickup: get_opt_u32(dec)?,
            min_process: get_opt_u32(dec)?,
            max_process: get_opt_u32(dec)?,
            expiry: get_opt_millis(dec)?,
            persistent: dec.get_opt(|d| d.get_bool())?,
            priority: dec.get_opt(|d| d.get_u8().map(Priority::new))?,
        })
    }
}

impl WireEncode for Condition {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Condition::Destination(d) => {
                enc.put_u8(0);
                d.encode(enc);
            }
            Condition::Set(s) => {
                enc.put_u8(1);
                s.encode(enc);
            }
        }
    }
}

impl WireDecode for Condition {
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(Condition::Destination(Destination::decode(dec)?)),
            1 => Ok(Condition::Set(DestinationSet::decode(dec)?)),
            tag => Err(CodecError::BadTag {
                what: "Condition",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 4 condition, scaled down (1 "day" = 1000 ms).
    pub(crate) fn example1() -> Condition {
        const DAY: u64 = 1000;
        let qr3 = Destination::queue("QM1", "Q.R3")
            .recipient("receiver3")
            .process_within(Millis(7 * DAY));
        let others = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.R1")
                .recipient("receiver1")
                .into(),
            Destination::queue("QM1", "Q.R2")
                .recipient("receiver2")
                .into(),
            Destination::queue("QM1", "Q.R4")
                .recipient("receiver4")
                .into(),
        ])
        .process_within(Millis(11 * DAY))
        .min_process(2);
        DestinationSet::of(vec![qr3.into(), others.into()])
            .pickup_within(Millis(2 * DAY))
            .into()
    }

    /// Paper Fig. 5 condition (20 s pick-up on a shared queue).
    pub(crate) fn example2() -> Condition {
        Destination::queue("QM1", "Q.CENTRAL")
            .pickup_within(Millis(20_000))
            .into()
    }

    #[test]
    fn example1_structure() {
        let cond = example1();
        cond.validate().unwrap();
        assert_eq!(cond.leaf_count(), 4);
        let leaves = cond.leaves();
        assert_eq!(leaves[0].recipient_id(), Some("receiver3"));
        assert!(leaves[0].is_required(), "qr3 has its own processing window");
        assert!(!leaves[1].is_required(), "qr1 is optional (set counts)");
        assert_eq!(leaves[3].address().queue, "Q.R4");
    }

    #[test]
    fn example2_structure() {
        let cond = example2();
        cond.validate().unwrap();
        assert_eq!(cond.leaf_count(), 1);
        let leaf = cond.leaves()[0];
        assert!(leaf.recipient_id().is_none(), "anonymous recipient");
        assert_eq!(leaf.pickup_window(), Some(Millis(20_000)));
        assert!(leaf.is_required());
    }

    #[test]
    fn empty_set_rejected() {
        let cond: Condition = DestinationSet::empty().into();
        assert!(matches!(
            cond.validate(),
            Err(CondError::InvalidCondition(_))
        ));
    }

    #[test]
    fn count_without_window_rejected() {
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("M", "A").into(),
            Destination::queue("M", "B").into(),
        ])
        .min_pickup(1)
        .into();
        let err = cond.validate().unwrap_err();
        assert!(err
            .to_string()
            .contains("requires a set-level pickup window"));
    }

    #[test]
    fn zero_and_inverted_counts_rejected() {
        let base = || {
            DestinationSet::of(vec![
                Destination::queue("M", "A").into(),
                Destination::queue("M", "B").into(),
            ])
            .process_within(Millis(10))
        };
        assert!(Condition::from(base().min_process(0)).validate().is_err());
        assert!(Condition::from(base().max_process(0)).validate().is_err());
        assert!(Condition::from(base().min_process(2).max_process(1))
            .validate()
            .is_err());
        assert!(Condition::from(base().min_process(3)).validate().is_err());
        assert!(Condition::from(base().min_process(2).max_process(2))
            .validate()
            .is_ok());
    }

    #[test]
    fn nested_validation_recurses() {
        let bad_inner: Condition = DestinationSet::empty().into();
        let cond: Condition =
            DestinationSet::of(vec![Destination::queue("M", "A").into(), bad_inner]).into();
        assert!(cond.validate().is_err());
    }

    #[test]
    fn empty_queue_address_rejected() {
        let cond: Condition = Destination::queue("", "Q").into();
        assert!(cond.validate().is_err());
        let cond: Condition = Destination::queue("M", "").into();
        assert!(cond.validate().is_err());
    }

    #[test]
    fn leaf_indices_follow_definition_order() {
        let cond = example1();
        let leaves = cond.leaves();
        let queues: Vec<_> = leaves.iter().map(|l| l.address().queue.as_str()).collect();
        assert_eq!(queues, vec!["Q.R3", "Q.R1", "Q.R2", "Q.R4"]);
    }

    #[test]
    fn wire_roundtrip_examples() {
        for cond in [example1(), example2()] {
            let bytes = cond.to_bytes();
            let back = Condition::from_bytes(bytes).unwrap();
            assert_eq!(back, cond);
        }
    }

    #[test]
    fn wire_roundtrip_full_attributes() {
        let cond: Condition = DestinationSet::of(vec![Destination::queue("M", "Q")
            .recipient("bob")
            .pickup_within(Millis(5))
            .process_within(Millis(9))
            .expiry(Millis(100))
            .persistent(false)
            .priority(Priority::new(9))
            .into()])
        .pickup_within(Millis(50))
        .process_within(Millis(60))
        .min_pickup(1)
        .max_pickup(1)
        .min_process(1)
        .max_process(1)
        .expiry(Millis(500))
        .persistent(true)
        .priority(Priority::new(2))
        .into();
        let back = Condition::from_bytes(cond.to_bytes()).unwrap();
        assert_eq!(back, cond);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Condition::from(Destination::queue("M", "Q").recipient("r")).to_string(),
            "dest(M/Q, r)"
        );
        assert!(example1().to_string().starts_with("set["));
    }

    #[test]
    fn conditions_are_reusable_values() {
        // Clone + Eq: the same condition object can be associated with
        // many messages (paper §2.3).
        let c = example1();
        let c2 = c.clone();
        assert_eq!(c, c2);
    }
}
