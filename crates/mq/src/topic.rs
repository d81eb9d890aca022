//! Publish/subscribe topics layered on queues.
//!
//! The conditional-messaging paper frames message queuing and
//! publish/subscribe as the two messaging models its concept applies to
//! (§2: "specific models of conditional messaging can be defined with
//! respect to … message queuing and publish/subscribe systems"). This
//! module supplies the pub/sub substrate: a [`Topic`] fans published
//! messages out to one queue per subscription, and a subscription is just
//! that queue's name. Subscriptions are *durable*: the
//! registration is journaled (as a persistent message on a registry
//! queue), so both the subscription and its undelivered messages survive a
//! queue-manager restart.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{MqError, MqResult};
use crate::message::{Message, QueueAddress};
use crate::qmgr::QueueManager;
use crate::stats::Counter;
use crate::Wait;

/// Property on registry records naming the subscription.
// lint: registry-sink wire-string
const P_SUB_NAME: &str = "sys.topic.sub.name";

/// Per-topic statistics.
#[derive(Debug, Default)]
pub struct TopicStats {
    /// Messages published to the topic.
    pub published: Counter,
    /// Message copies delivered to subscription queues.
    pub delivered: Counter,
}

/// A publish/subscribe topic on one queue manager.
pub struct Topic {
    name: String,
    qmgr: Arc<QueueManager>,
    registry_queue: String,
    /// Subscription name → the queue its copies are delivered to.
    subscriptions: RwLock<HashMap<String, String>>,
    stats: TopicStats,
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topic")
            .field("name", &self.name)
            .field("subscriptions", &self.subscription_count())
            .finish()
    }
}

impl Topic {
    /// Opens (or re-opens) a topic, recovering durable subscriptions from
    /// the registry queue.
    ///
    /// # Errors
    ///
    /// Queue-creation or journal failures; malformed registry records.
    pub fn open(qmgr: Arc<QueueManager>, name: impl Into<String>) -> MqResult<Arc<Topic>> {
        let name = name.into();
        let registry_queue = format!("SYSTEM.TOPIC.{name}.SUBS");
        qmgr.ensure_queue(&registry_queue)?;
        let topic = Topic {
            name,
            qmgr,
            registry_queue,
            subscriptions: RwLock::new(HashMap::new()),
            stats: TopicStats::default(),
        };
        // Recover durable subscriptions.
        let mut subs = topic.subscriptions.write();
        for record in topic.qmgr.queue(&topic.registry_queue)?.browse() {
            let Some(sub_name) = record.str_property(P_SUB_NAME).map(str::to_owned) else {
                continue;
            };
            let queue = topic.queue_for(&sub_name);
            topic.qmgr.ensure_queue(&queue)?;
            subs.insert(sub_name, queue);
        }
        drop(subs);
        Ok(Arc::new(topic))
    }

    /// The topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Topic statistics.
    pub fn stats(&self) -> &TopicStats {
        &self.stats
    }

    fn queue_for(&self, sub_name: &str) -> String {
        format!("TOPIC.{}.{}", self.name, sub_name)
    }

    /// Creates a durable subscription; returns the name of the queue its
    /// messages are delivered to. Re-subscribing with the same name is
    /// idempotent (the existing queue is reused).
    ///
    /// # Errors
    ///
    /// Queue-creation or journal failures.
    pub fn subscribe(&self, sub_name: &str) -> MqResult<String> {
        let queue = self.queue_for(sub_name);
        self.qmgr.ensure_queue(&queue)?;
        let mut subs = self.subscriptions.write();
        if !subs.contains_key(sub_name) {
            let record = Message::text("")
                .property(P_SUB_NAME, sub_name)
                .persistent(true)
                .correlation_id(sub_name)
                .build();
            self.qmgr.put(&self.registry_queue, record)?;
        }
        subs.insert(sub_name.to_owned(), queue.clone());
        Ok(queue)
    }

    /// Removes a subscription and deletes its queue (undelivered messages
    /// are discarded).
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`] when no such subscription exists.
    pub fn unsubscribe(&self, sub_name: &str) -> MqResult<()> {
        let mut subs = self.subscriptions.write();
        let queue = subs
            .remove(sub_name)
            .ok_or_else(|| MqError::QueueNotFound(self.queue_for(sub_name)))?;
        // Remove the durable registration (correlation-indexed).
        while self
            .qmgr
            .get_by_correlation(&self.registry_queue, sub_name, Wait::NoWait)?
            .is_some()
        {}
        self.qmgr.delete_queue(&queue)?;
        Ok(())
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.read().len()
    }

    /// The queues of all active subscriptions (sorted by subscription
    /// name), as fully qualified addresses.
    pub fn subscriber_queues(&self) -> Vec<(String, QueueAddress)> {
        let subs = self.subscriptions.read();
        let mut out: Vec<(String, QueueAddress)> = subs
            .iter()
            .map(|(name, queue)| (name.clone(), QueueAddress::new(self.qmgr.name(), queue.clone())))
            .collect();
        out.sort();
        out
    }

    /// Publishes a message: one copy per subscription, all in one
    /// transaction — every subscriber gets its copy or, when one of their
    /// queues is full or the journal refuses the record, none does. Returns
    /// the number of copies delivered.
    ///
    /// # Errors
    ///
    /// Put failures; nothing was published then.
    pub fn publish(&self, msg: Message) -> MqResult<usize> {
        let subs = self.subscriptions.read();
        self.qmgr.auto_commit(|tx| {
            // Each subscriber gets its own copy with a fresh identity
            // (pub/sub semantics: independent deliveries).
            subs.values()
                .try_for_each(|queue| tx.put(&self.qmgr, queue, msg.copy_with_new_id()))
        })?;
        self.stats.published.incr();
        self.stats.delivered.add(subs.len() as u64);
        Ok(subs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, MemJournal};
    use simtime::SimClock;

    fn manager() -> (Arc<MemJournal>, Arc<QueueManager>) {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .clock(SimClock::new())
            .journal(journal.clone())
            .build()
            .unwrap();
        (journal, qm)
    }

    #[test]
    fn publish_fans_out_to_all_subscribers() {
        let (_j, qm) = manager();
        let topic = Topic::open(qm.clone(), "news").unwrap();
        let q1 = topic.subscribe("alice").unwrap();
        let q2 = topic.subscribe("bob").unwrap();
        assert_eq!(topic.subscription_count(), 2);
        let n = topic
            .publish(Message::text("headline").persistent(true).build())
            .unwrap();
        assert_eq!(n, 2);
        let m1 = qm.get(&q1, Wait::NoWait).unwrap().unwrap();
        let m2 = qm.get(&q2, Wait::NoWait).unwrap().unwrap();
        assert_eq!(m1.payload_str(), Some("headline"));
        assert_eq!(m2.payload_str(), Some("headline"));
        assert_ne!(m1.id(), m2.id(), "independent deliveries");
        assert_eq!(topic.stats().published.get(), 1);
        assert_eq!(topic.stats().delivered.get(), 2);
    }

    #[test]
    fn publish_is_one_record_for_every_subscriber_or_nothing() {
        let (journal, qm) = manager();
        let topic = Topic::open(qm.clone(), "news").unwrap();
        let roomy = [
            topic.subscribe("alice").unwrap(),
            topic.subscribe("bob").unwrap(),
        ];
        // A third subscriber whose queue holds one message and is full.
        let bounded = qm
            .create_queue_with(
                "TOPIC.news.carol",
                crate::QueueConfig { max_depth: Some(1) },
            )
            .unwrap();
        topic.subscribe("carol").unwrap();
        let event = || Message::text("headline").persistent(true).build();

        let before = journal.record_count();
        assert_eq!(topic.publish(event()).unwrap(), 3);
        assert_eq!(
            journal.record_count(),
            before + 1,
            "one record for three copies"
        );
        assert!(matches!(
            journal.replay_collect().unwrap().last(),
            Some(crate::journal::JournalRecord::TxCommit { puts, gets })
                if puts.len() == 3 && gets.is_empty()
        ));

        let before = journal.record_count();
        assert!(matches!(topic.publish(event()), Err(MqError::QueueFull(_))));
        assert_eq!(journal.record_count(), before);
        for q in &roomy {
            assert_eq!(
                qm.queue(q).unwrap().depth(),
                1,
                "{q} holds no copy of the refused event"
            );
        }
        assert_eq!(bounded.depth(), 1);
        assert_eq!(topic.stats().published.get(), 1);
        assert_eq!(topic.stats().delivered.get(), 3);
    }

    #[test]
    fn no_subscribers_publishes_to_nobody() {
        let (_j, qm) = manager();
        let topic = Topic::open(qm, "void").unwrap();
        assert_eq!(topic.publish(Message::text("x").build()).unwrap(), 0);
    }

    #[test]
    fn unsubscribe_removes_queue_and_registration() {
        let (_j, qm) = manager();
        let topic = Topic::open(qm.clone(), "news").unwrap();
        let q = topic.subscribe("alice").unwrap();
        topic.unsubscribe("alice").unwrap();
        assert_eq!(topic.subscription_count(), 0);
        assert!(!qm.queue_exists(&q));
        assert!(matches!(
            topic.unsubscribe("alice"),
            Err(MqError::QueueNotFound(_))
        ));
        assert_eq!(topic.publish(Message::text("x").build()).unwrap(), 0);
    }

    #[test]
    fn resubscribe_is_idempotent() {
        let (_j, qm) = manager();
        let topic = Topic::open(qm.clone(), "news").unwrap();
        let q1 = topic.subscribe("alice").unwrap();
        let q2 = topic.subscribe("alice").unwrap();
        assert_eq!(q1, q2);
        assert_eq!(topic.subscription_count(), 1);
        // Only one durable registration exists.
        assert_eq!(qm.queue("SYSTEM.TOPIC.news.SUBS").unwrap().depth(), 1);
    }

    #[test]
    fn durable_subscriptions_survive_crash() {
        let (journal, qm) = manager();
        {
            let topic = Topic::open(qm.clone(), "news").unwrap();
            topic.subscribe("alice").unwrap();
            topic.subscribe("bob").unwrap();
            topic
                .publish(Message::text("before crash").persistent(true).build())
                .unwrap();
            qm.crash();
        }
        let qm2 = QueueManager::builder("QM1")
            .clock(SimClock::new())
            .journal(journal)
            .build()
            .unwrap();
        let topic = Topic::open(qm2.clone(), "news").unwrap();
        assert_eq!(topic.subscription_count(), 2, "registrations recovered");
        // Undelivered persistent copies survived too.
        assert_eq!(qm2.queue("TOPIC.news.alice").unwrap().depth(), 1);
        assert_eq!(qm2.queue("TOPIC.news.bob").unwrap().depth(), 1);
        // And a recovered subscription receives what is published next.
        assert_eq!(topic.publish(Message::text("after").build()).unwrap(), 2);
        assert_eq!(qm2.queue("TOPIC.news.alice").unwrap().depth(), 2);
        assert_eq!(qm2.queue("TOPIC.news.bob").unwrap().depth(), 2);
    }

    #[test]
    fn publish_preserves_message_attributes() {
        let (_j, qm) = manager();
        let topic = Topic::open(qm.clone(), "t").unwrap();
        let q = topic.subscribe("s").unwrap();
        let original = Message::text("body")
            .property("k", "v")
            .priority(crate::Priority::new(8))
            .persistent(true)
            .correlation_id("corr-1")
            .reply_to(QueueAddress::new("QM1", "REPLY"))
            .build();
        topic.publish(original).unwrap();
        let copy = qm.get(&q, Wait::NoWait).unwrap().unwrap();
        assert_eq!(copy.str_property("k"), Some("v"));
        assert_eq!(copy.priority().level(), 8);
        assert!(copy.is_persistent());
        assert_eq!(copy.correlation_id(), Some("corr-1"));
        assert_eq!(copy.reply_to().unwrap().queue, "REPLY");
    }
}
