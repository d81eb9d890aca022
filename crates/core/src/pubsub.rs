//! Conditional publish/subscribe.
//!
//! The paper defines conditional messaging generically over "specific
//! models of messaging, such as message queuing and publish/subscribe
//! systems" (§2) and names pub/sub conditions as a direction the system
//! should grow in. This module provides that extension:
//! [`ConditionalMessenger::publish_conditional`] takes a member-less
//! [`DestinationSet`] as a condition *template* — time windows and
//! min/max counts without fixed destinations — and instantiates it over
//! the subscriber set of an [`mq::topic::Topic`] at publish time.
//!
//! Each subscription queue becomes one destination leaf of an ordinary
//! conditional message, so everything else (implicit acknowledgments,
//! evaluation, compensation annihilation, Dependency-Spheres) applies
//! unchanged: "any one subscriber must pick this event up within 20
//! seconds" or "at least half the subscribers must process this request"
//! are one-line publishes.

use bytes::Bytes;
use mq::topic::Topic;

use crate::condition::{Condition, Destination, DestinationSet};
use crate::error::{CondError, CondResult};
use crate::ids::CondMessageId;
use crate::messenger::ConditionalMessenger;
use crate::wire::SendOptions;

/// Appends one [`Destination::addressed`] leaf per subscriber queue of
/// `topic` to `template`.
///
/// # Errors
///
/// [`CondError::InvalidCondition`] when the topic has no subscribers.
fn instantiate(template: &DestinationSet, topic: &Topic) -> CondResult<(Condition, usize)> {
    let queues = topic.subscriber_queues();
    if queues.is_empty() {
        return Err(CondError::InvalidCondition(
            "publish template instantiated over zero destinations".into(),
        ));
    }
    let n = queues.len();
    let set = queues
        .into_iter()
        .fold(template.clone(), |set, (_, addr)| set.member(Destination::addressed(addr)));
    Ok((set.into(), n))
}

impl ConditionalMessenger {
    /// Publishes a conditional message to every current subscriber of
    /// `topic`: `template` — a set such as
    /// `DestinationSet::empty().pickup_within(w).min_pickup(2)` — gets one
    /// destination leaf per subscription queue and is sent as a regular
    /// conditional message (one standard message per subscriber, plus
    /// parked compensations when `compensation` is given).
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
        compensation: Option<Bytes>,
        template: &DestinationSet,
        options: SendOptions,
    ) -> CondResult<(CondMessageId, usize)> {
        let (condition, n) = instantiate(template, topic)?;
        let id = self.send_with(payload, compensation, &condition, options)?;
        Ok((id, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::ConditionalReceiver;
    use crate::wire::{MessageKind, MessageOutcome};
    use mq::{QueueManager, Wait};
    use simtime::{Millis, SimClock};
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
        let (_c, _q, _m, topic) = setup();
        let min2 = DestinationSet::empty()
            .pickup_within(Millis(100))
            .min_pickup(2);
        assert!(instantiate(&min2, &topic).is_err());
        for name in ["A", "B", "C"] {
            topic.subscribe(name).unwrap();
        }
        let (cond, n) = instantiate(&min2, &topic).unwrap();
        assert_eq!(cond.leaf_count(), 3);
        assert_eq!(n, 3);
        // min > members is rejected by condition validation.
        let (cond, _) = instantiate(&min2.clone().min_pickup(4), &topic).unwrap();
        assert!(cond.validate().is_err());
    }

    #[test]
    fn publish_with_no_subscribers_fails_cleanly() {
        let (_c, _q, messenger, topic) = setup();
        let err = messenger
            .publish_conditional(
                &topic,
                "x",
                None,
                &DestinationSet::empty().pickup_within(Millis(100)),
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
                None,
                &DestinationSet::empty().pickup_within(Millis(100)),
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
                None,
                &DestinationSet::empty()
                    .pickup_within(Millis(100))
                    .min_pickup(2),
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
            .publish_conditional(
                &topic,
                "event",
                Some("event withdrawn".into()),
                &DestinationSet::empty().pickup_within(Millis(50)),
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
                None,
                &DestinationSet::empty().pickup_within(Millis(100)),
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
