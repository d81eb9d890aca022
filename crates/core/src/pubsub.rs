//! Conditional publish/subscribe.
//!
//! The paper defines conditional messaging generically over "specific
//! models of messaging, such as message queuing and publish/subscribe
//! systems" (§2) and names pub/sub conditions as a direction the system
//! should grow in. This module provides that extension: a
//! [`GroupCondition`] is a condition *template* — time windows and min/max
//! counts without fixed destinations — that
//! [`ConditionalMessenger::publish_conditional`] instantiates over the
//! subscriber set of an [`mq::topic::Topic`] at publish time.
//!
//! Each subscription queue becomes one destination leaf of an ordinary
//! conditional message, so everything else (implicit acknowledgments,
//! evaluation, compensation annihilation, Dependency-Spheres) applies
//! unchanged: "any one subscriber must pick this event up within 20
//! seconds" or "at least half the subscribers must process this request"
//! are one-line publishes.

use bytes::Bytes;
use mq::topic::Topic;
use mq::QueueAddress;
use simtime::Millis;

use crate::condition::{Condition, Destination, DestinationSet};
use crate::error::{CondError, CondResult};
use crate::ids::CondMessageId;
use crate::messenger::ConditionalMessenger;
use crate::wire::SendOptions;

/// A destination-independent condition template, instantiated over a
/// dynamic set of queues (e.g. a topic's subscribers) at send time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupCondition {
    /// Pick-up window applied to the group (`MsgPickUpTime`).
    pub pickup_within: Option<Millis>,
    /// Processing window applied to the group (`MsgProcessingTime`).
    pub process_within: Option<Millis>,
    /// `MinNrPickUp`: at least this many members must pick up in time
    /// (default: all of them).
    pub min_pickup: Option<u32>,
    /// `MinNrProcessing`: at least this many members must process in time.
    pub min_process: Option<u32>,
    /// `MaxNrPickUp` counting cap.
    pub max_pickup: Option<u32>,
    /// `MaxNrProcessing` counting cap.
    pub max_process: Option<u32>,
}

impl GroupCondition {
    /// A template requiring every member to pick up within `window`.
    pub fn all_pickup_within(window: Millis) -> GroupCondition {
        GroupCondition {
            pickup_within: Some(window),
            ..GroupCondition::default()
        }
    }

    /// A template requiring at least `min` members to pick up within
    /// `window`.
    pub fn min_pickup_within(min: u32, window: Millis) -> GroupCondition {
        GroupCondition {
            pickup_within: Some(window),
            min_pickup: Some(min),
            ..GroupCondition::default()
        }
    }

    /// Instantiates the template over concrete destination queues.
    ///
    /// # Errors
    ///
    /// [`CondError::InvalidCondition`] when `queues` is empty, a min count
    /// exceeds the member count, or the template carries counts without
    /// the corresponding window (validated like any condition).
    pub fn to_condition(&self, queues: &[QueueAddress]) -> CondResult<Condition> {
        if queues.is_empty() {
            return Err(CondError::InvalidCondition(
                "group condition instantiated over zero destinations".into(),
            ));
        }
        let mut set = DestinationSet::of(
            queues
                .iter()
                .map(|q| Destination::addressed(q.clone()).into())
                .collect(),
        );
        if let Some(w) = self.pickup_within {
            set = set.pickup_within(w);
        }
        if let Some(w) = self.process_within {
            set = set.process_within(w);
        }
        if let Some(n) = self.min_pickup {
            set = set.min_pickup(n);
        }
        if let Some(n) = self.min_process {
            set = set.min_process(n);
        }
        if let Some(n) = self.max_pickup {
            set = set.max_pickup(n);
        }
        if let Some(n) = self.max_process {
            set = set.max_process(n);
        }
        let condition: Condition = set.into();
        condition.validate()?;
        Ok(condition)
    }
}

impl ConditionalMessenger {
    /// Publishes a conditional message to every current subscriber of
    /// `topic`: the template is instantiated over the subscription queues
    /// and sent as a regular conditional message (one standard message per
    /// subscriber, plus parked compensations).
    ///
    /// Returns the conditional message id and the number of subscribers
    /// addressed. Subscribers added *after* the publish do not affect the
    /// message (snapshot semantics).
    ///
    /// # Errors
    ///
    /// [`CondError::InvalidCondition`] when the topic has no subscribers or
    /// the template is inconsistent with the subscriber count; messaging
    /// failures.
    pub fn publish_conditional(
        &self,
        topic: &Topic,
        payload: impl Into<Bytes>,
        template: &GroupCondition,
        options: SendOptions,
    ) -> CondResult<(CondMessageId, usize)> {
        self.publish_to_subscribers(topic, payload.into(), None, template, options)
    }

    /// Like [`ConditionalMessenger::publish_conditional`], with
    /// application-defined compensation data.
    ///
    /// # Errors
    ///
    /// See [`ConditionalMessenger::publish_conditional`].
    pub fn publish_conditional_with_compensation(
        &self,
        topic: &Topic,
        payload: impl Into<Bytes>,
        compensation: impl Into<Bytes>,
        template: &GroupCondition,
        options: SendOptions,
    ) -> CondResult<(CondMessageId, usize)> {
        let compensation = Some(compensation.into());
        self.publish_to_subscribers(topic, payload.into(), compensation, template, options)
    }

    /// Instantiates `template` over the topic's current subscriber queues
    /// and sends one conditional message to them.
    fn publish_to_subscribers(
        &self,
        topic: &Topic,
        payload: Bytes,
        compensation: Option<Bytes>,
        template: &GroupCondition,
        options: SendOptions,
    ) -> CondResult<(CondMessageId, usize)> {
        let queues: Vec<QueueAddress> = topic
            .subscriber_queues()
            .into_iter()
            .map(|(_, addr)| addr)
            .collect();
        let condition = template.to_condition(&queues)?;
        let id = self.send_with(payload, compensation, &condition, options)?;
        Ok((id, queues.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::ConditionalReceiver;
    use crate::wire::{MessageKind, MessageOutcome};
    use mq::{QueueManager, Wait};
    use simtime::SimClock;
    use std::sync::Arc;

    fn setup() -> (
        Arc<SimClock>,
        Arc<QueueManager>,
        Arc<ConditionalMessenger>,
        Arc<Topic>,
    ) {
        let clock = SimClock::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .build()
            .unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let topic = Topic::open(qmgr.clone(), "events").unwrap();
        (clock, qmgr, messenger, topic)
    }

    #[test]
    fn template_instantiation_and_validation() {
        let queues = vec![
            QueueAddress::new("QM1", "A"),
            QueueAddress::new("QM1", "B"),
            QueueAddress::new("QM1", "C"),
        ];
        let cond = GroupCondition::min_pickup_within(2, Millis(100))
            .to_condition(&queues)
            .unwrap();
        assert_eq!(cond.leaf_count(), 3);
        assert!(GroupCondition::default().to_condition(&[]).is_err());
        // min > members is rejected by condition validation.
        assert!(GroupCondition::min_pickup_within(4, Millis(100))
            .to_condition(&queues)
            .is_err());
    }

    #[test]
    fn publish_with_no_subscribers_fails_cleanly() {
        let (_c, _q, messenger, topic) = setup();
        let err = messenger
            .publish_conditional(
                &topic,
                "x",
                &GroupCondition::all_pickup_within(Millis(100)),
                SendOptions::default(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("zero destinations"));
    }

    #[test]
    fn conditional_publish_all_subscribers_ack() {
        let (clock, qmgr, messenger, topic) = setup();
        let q_alice = topic.subscribe("alice").unwrap();
        let q_bob = topic.subscribe("bob").unwrap();
        let (id, n) = messenger
            .publish_conditional(
                &topic,
                "release notes",
                &GroupCondition::all_pickup_within(Millis(100)),
                SendOptions::default(),
            )
            .unwrap();
        assert_eq!(n, 2);
        clock.advance(Millis(10));
        for q in [&q_alice, &q_bob] {
            let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
            let m = r.read_message(q, Wait::NoWait).unwrap().unwrap();
            assert_eq!(m.kind(), MessageKind::Original);
            assert_eq!(m.cond_id(), Some(id));
        }
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }

    #[test]
    fn min_k_of_subscribers_semantics() {
        let (clock, qmgr, messenger, topic) = setup();
        for name in ["s1", "s2", "s3"] {
            topic.subscribe(name).unwrap();
        }
        let (id, n) = messenger
            .publish_conditional(
                &topic,
                "poll",
                &GroupCondition::min_pickup_within(2, Millis(100)),
                SendOptions::default(),
            )
            .unwrap();
        assert_eq!(n, 3);
        clock.advance(Millis(10));
        // Only two of three subscribers read.
        for q in ["TOPIC.events.s1", "TOPIC.events.s2"] {
            let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
            r.read_message(q, Wait::NoWait).unwrap().unwrap();
        }
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success, "2 of 3 suffices");
    }

    #[test]
    fn failed_publish_compensates_every_subscriber() {
        let (clock, qmgr, messenger, topic) = setup();
        topic.subscribe("s1").unwrap();
        topic.subscribe("s2").unwrap();
        let (id, _) = messenger
            .publish_conditional_with_compensation(
                &topic,
                "event",
                "event withdrawn",
                &GroupCondition::all_pickup_within(Millis(50)),
                SendOptions::default(),
            )
            .unwrap();
        clock.advance(Millis(10));
        // s1 reads; s2 never does.
        let mut r1 = ConditionalReceiver::new(qmgr.clone()).unwrap();
        r1.read_message("TOPIC.events.s1", Wait::NoWait)
            .unwrap()
            .unwrap();
        clock.advance(Millis(100));
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Failure);
        // s1 gets the compensation; s2's pair annihilates.
        let comp = r1
            .read_message("TOPIC.events.s1", Wait::NoWait)
            .unwrap()
            .unwrap();
        assert_eq!(comp.kind(), MessageKind::Compensation);
        assert_eq!(comp.payload_str(), Some("event withdrawn"));
        let mut r2 = ConditionalReceiver::new(qmgr.clone()).unwrap();
        assert!(r2
            .read_message("TOPIC.events.s2", Wait::NoWait)
            .unwrap()
            .is_none());
        assert_eq!(qmgr.queue("TOPIC.events.s2").unwrap().depth(), 0);
    }

    #[test]
    fn snapshot_semantics_late_subscribers_unaffected() {
        let (clock, qmgr, messenger, topic) = setup();
        topic.subscribe("early").unwrap();
        let (id, n) = messenger
            .publish_conditional(
                &topic,
                "x",
                &GroupCondition::all_pickup_within(Millis(100)),
                SendOptions::default(),
            )
            .unwrap();
        assert_eq!(n, 1);
        // A subscriber joining after the publish neither receives the
        // message nor affects its evaluation.
        let late_q = topic.subscribe("late").unwrap();
        assert_eq!(qmgr.queue(&late_q).unwrap().depth(), 0);
        clock.advance(Millis(10));
        let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
        r.read_message("TOPIC.events.early", Wait::NoWait)
            .unwrap()
            .unwrap();
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
}
