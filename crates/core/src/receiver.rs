//! The receiver-side conditional messaging service (paper §2.4, §2.6).
//!
//! [`ConditionalReceiver`] wraps the standard messaging API for final
//! recipients:
//!
//! * [`ConditionalReceiver::read_message`] reads from a queue and
//!   *implicitly* initiates acknowledgments: a non-transactional read is one
//!   implicit messaging transaction — the get, the receiver-log entry and
//!   the read-ack are a single journal record; a read inside a receiver
//!   transaction ([`ConditionalReceiver::begin_tx`] /
//!   [`ConditionalReceiver::commit_tx`]) has the same shape but
//!   sends a processed-ack, and only when the transaction commits — a rolled
//!   back transaction redelivers the message and sends nothing. A receiver
//!   therefore produces **exactly one acknowledgment per consumed
//!   message**, never one for receipt *and* one for processing.
//! * A non-transactional read parked on an empty queue registers its
//!   pick-up ([`mq::PickUp`]): the first original in delivery order of a
//!   transaction that puts to the queue is handed over by the record that
//!   delivers it (the rest are queued), which holds the
//!   receiver-log entry and the read-ack instead of the original (for one
//!   that came over a channel, its dedup key), so custody and pick-up are
//!   one record. It declines — and the original is queued and read as
//!   above — anything but an original whose acknowledgment goes to another
//!   manager: an acknowledgment to this one would be applied by its
//!   standing claimant inside the putting transaction, which for a local
//!   sender is the send itself.
//! * Every consumption of an original is logged to the persistent receiver
//!   log (`DS.RLOG.Q`): an entry — the conditional id as correlation id,
//!   and `ds.leaf` — means "original (id, leaf) was consumed here", and
//!   nothing else is logged.
//! * Compensation handling (paper §2.6, Fig. 8): if a compensation message
//!   and its original are both on the queue, they *annihilate* (neither is
//!   delivered); a compensation is delivered to the application only when
//!   the receiver log shows the original was consumed, and the read that
//!   delivers it takes that entry, so a second copy is deferred. Both are
//!   indexed gets in the read's own transaction: an annihilation is its two
//!   gets and a delivered compensation its get and the entry's, one journal
//!   record or nothing.

use std::fmt;
use std::sync::Arc;

use mq::{
    Fate, Message, MqError, PickUp, QueueAddress, QueueManager, Session, Taken, TraceStage, Wait,
};
use simtime::Time;

use crate::config::DEFAULT_RLOG_QUEUE;
use crate::error::{CondError, CondResult};
use crate::ids::CondMessageId;
use crate::metrics::ReceiverMetrics;
use crate::wire::{self, AckKind, Acknowledgment, MessageKind};

/// A message delivered through the conditional-messaging read API.
#[derive(Debug, Clone)]
pub struct ReceivedMessage {
    kind: MessageKind,
    cond_id: Option<CondMessageId>,
    leaf: Option<u32>,
    message: Message,
}

impl ReceivedMessage {
    // lint: custody(message)
    fn classify(message: Message) -> ReceivedMessage {
        let kind = wire::kind_of(&message);
        // A standard message's correlation id is the application's own,
        // even when it parses as an id (a request's 32-hex message id does).
        let cond_id = (kind != MessageKind::Standard)
            .then(|| wire::cond_id_of(&message).ok())
            .flatten();
        let leaf = wire::leaf_of(&message).ok();
        ReceivedMessage {
            kind,
            cond_id,
            leaf,
            message,
        }
    }

    /// What kind of message this is.
    pub fn kind(&self) -> MessageKind {
        self.kind
    }

    /// The conditional message id, for anything but standard messages.
    pub fn cond_id(&self) -> Option<CondMessageId> {
        self.cond_id
    }

    /// The destination leaf index within the conditional message.
    pub fn leaf(&self) -> Option<u32> {
        self.leaf
    }

    /// The application payload.
    pub fn payload(&self) -> &bytes::Bytes {
        self.message.payload()
    }

    /// The payload as UTF-8, if valid.
    pub fn payload_str(&self) -> Option<&str> {
        self.message.payload_str()
    }

    /// Whether this is a system-generated (data-less) compensation.
    pub fn is_system_compensation(&self) -> bool {
        self.kind == MessageKind::Compensation
            && self.message.bool_property(wire::P_COMP_SYSTEM) == Some(true)
    }

    /// The full underlying standard message.
    pub fn message(&self) -> &Message {
        &self.message
    }
}

/// The acknowledgment owed for an original read in the open transaction.
struct PendingAck {
    cond_id: CondMessageId,
    leaf: u32,
    read_at: Time,
    ack_to: QueueAddress,
}

impl PendingAck {
    fn of(original: &Message, read_at: Time) -> CondResult<PendingAck> {
        Ok(PendingAck {
            cond_id: wire::cond_id_of(original)
                .map_err(|_| CondError::Malformed("original missing cond id".into()))?,
            leaf: wire::leaf_of(original)
                .map_err(|_| CondError::Malformed("original missing leaf index".into()))?,
            read_at,
            ack_to: ack_address(original)?,
        })
    }

    /// Stages the pick-up of the original into `tx`: the receiver-log
    /// entry "consumed here" and the `kind` acknowledgment, sent at `at`.
    fn stage(
        &self,
        tx: &mut Session,
        kind: AckKind,
        at: Time,
        recipient: Option<String>,
    ) -> CondResult<()> {
        tx.put(DEFAULT_RLOG_QUEUE, rlog_entry(self.cond_id, self.leaf))?;
        let ack = Acknowledgment {
            cond_id: self.cond_id,
            leaf: self.leaf,
            kind,
            read_at: self.read_at,
            processed_at: (kind == AckKind::Processed).then_some(at),
            recipient,
        };
        tx.put_to(&self.ack_to, ack.to_message())?;
        Ok(())
    }
}

/// What a read parked outside a receiver transaction commits with an
/// original handed to it: the pick-up of an implicit read, staged into
/// the transaction that puts the original (see the module docs).
struct ReadPickUp {
    recipient: Option<String>,
}

impl PickUp for ReadPickUp {
    // lint: custody(msg)
    fn stage<'a>(&'a self, taken: &[&Message], tx: &mut Session) -> Option<Fate<'a>> {
        let [msg] = taken else { return None };
        if wire::kind_of(msg) != MessageKind::Original {
            return None;
        }
        let now = tx.manager().clock().now();
        let read = PendingAck::of(msg, now).ok()?;
        if read.ack_to.manager == tx.manager().name() {
            return None;
        }
        read.stage(tx, AckKind::Read, now, self.recipient.clone()).ok()?;
        Some(Box::new(|_| ()))
    }
}

/// The receiver-side conditional messaging service.
///
/// One receiver per consuming application (it is a stateful facade over a
/// messaging session, so it is deliberately `!Sync`-style: use `&mut self`).
pub struct ConditionalReceiver {
    qmgr: Arc<QueueManager>,
    recipient: Option<String>,
    session: mq::Session,
    pending_acks: Vec<PendingAck>,
    /// What a read parked outside a receiver transaction registers.
    pick_up: Arc<dyn PickUp>,
    /// Pairs annihilated in the open transaction `(id, leaf, queue)`,
    /// counted and traced once it commits.
    annihilated: Vec<(CondMessageId, u32, String)>,
    /// Pre-registered `cond.recv.*` metric cells.
    metrics: ReceiverMetrics,
}

impl fmt::Debug for ConditionalReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConditionalReceiver")
            .field("manager", &self.qmgr.name())
            .field("recipient", &self.recipient)
            .field("in_tx", &self.session.in_transaction())
            .finish()
    }
}

impl ConditionalReceiver {
    /// Creates an anonymous receiver on a queue manager, ensuring the
    /// receiver log queue exists.
    ///
    /// # Errors
    ///
    /// Queue-creation failures.
    pub fn new(qmgr: Arc<QueueManager>) -> CondResult<ConditionalReceiver> {
        ConditionalReceiver::create(qmgr, None)
    }

    /// Creates a receiver with a recipient identity (reported in
    /// acknowledgments, letting senders learn "numbers and identities …
    /// of final recipients", paper §2.4).
    ///
    /// # Errors
    ///
    /// Queue-creation failures.
    pub fn with_identity(
        qmgr: Arc<QueueManager>,
        recipient: impl Into<String>,
    ) -> CondResult<ConditionalReceiver> {
        ConditionalReceiver::create(qmgr, Some(recipient.into()))
    }

    fn create(
        qmgr: Arc<QueueManager>,
        recipient: Option<String>,
    ) -> CondResult<ConditionalReceiver> {
        qmgr.ensure_queue(DEFAULT_RLOG_QUEUE)?;
        let session = qmgr.session();
        let metrics = ReceiverMetrics::registered(qmgr.obs().metrics());
        let pick_up = Arc::new(ReadPickUp { recipient: recipient.clone() });
        Ok(ConditionalReceiver {
            qmgr,
            recipient,
            session,
            pending_acks: Vec::new(),
            pick_up,
            annihilated: Vec::new(),
            metrics,
        })
    }

    /// The underlying queue manager.
    pub fn manager(&self) -> &Arc<QueueManager> {
        &self.qmgr
    }

    /// This receiver's recipient identity, if any.
    pub fn recipient(&self) -> Option<&str> {
        self.recipient.as_deref()
    }

    /// Whether a receiver transaction is active.
    pub fn in_transaction(&self) -> bool {
        self.session.in_transaction()
    }

    // ------------------------------------------------------------ read --

    /// Reads the next deliverable message from `queue` (the paper's
    /// `readMessage(String)`).
    ///
    /// Conditional originals trigger the implicit acknowledgment protocol;
    /// compensation messages are annihilated, delivered or deferred per
    /// §2.6; success notifications and standard messages pass through.
    ///
    /// # Errors
    ///
    /// Messaging failures, or [`CondError::Mq`] with
    /// [`mq::MqError::NoRoute`] when an acknowledgment cannot be routed to
    /// the sender's queue manager.
    pub fn read_message(&mut self, queue: &str, wait: Wait) -> CondResult<Option<ReceivedMessage>> {
        // Outside a receiver transaction the read is one implicit messaging
        // transaction: the get, the receiver-log entry and the read-ack
        // commit as a single journal record, so no crash or journal failure
        // can consume an original without logging and acknowledging it.
        // Parked, it may be handed an original whose arrival's record is
        // that transaction.
        let implicit = !self.session.in_transaction();
        if implicit {
            self.begin_tx()?;
        }
        let mut read = self.read_in_tx(queue, wait, implicit);
        if implicit {
            read = read.and_then(|received| {
                self.commit_acked(AckKind::Read)?;
                Ok(received)
            });
            if self.session.in_transaction() {
                // Hand everything back for the retry without spending the
                // messages' backout budget: the failure is not theirs.
                self.session.rollback_for_retry()?;
            }
        }
        let received = read?;
        match &received {
            Some(r) if r.kind == MessageKind::Original => self.metrics.originals.incr(),
            Some(r) if r.kind == MessageKind::Compensation => {
                self.metrics.comp_delivered.incr();
                self.qmgr.trace().record(
                    self.qmgr.clock().now(),
                    TraceStage::CompensationDelivered,
                    r.cond_id.map(|id| id.as_u128()),
                    r.leaf,
                    queue,
                );
            }
            _ => {}
        }
        Ok(received)
    }

    /// The read proper, staged into the open transaction of `self.session`.
    /// With `pick_up` its first get registers the receiver's pick-up, and
    /// an original handed to it comes with its pick-up committed.
    fn read_in_tx(
        &mut self,
        queue: &str,
        mut wait: Wait,
        mut pick_up: bool,
    ) -> CondResult<Option<ReceivedMessage>> {
        loop {
            let taken = if std::mem::take(&mut pick_up) {
                self.session.get_picking_up(queue, wait, &self.pick_up)?
            } else {
                self.session.get(queue, wait)?.map(Taken::Queued)
            };
            let msg = match taken {
                None => return Ok(None),
                Some(Taken::Handed(msg)) => {
                    self.metrics.read_acks.incr();
                    return Ok(Some(ReceivedMessage::classify(msg)));
                }
                Some(Taken::Queued(msg)) => msg,
            };
            match wire::kind_of(&msg) {
                MessageKind::Original => {
                    let ack = PendingAck::of(&msg, self.qmgr.clock().now())?;
                    if self.annihilates(queue, MessageKind::Compensation, ack.cond_id, ack.leaf)? {
                        continue;
                    }
                    self.pending_acks.push(ack);
                    return Ok(Some(ReceivedMessage::classify(msg)));
                }
                MessageKind::Compensation => {
                    let cond_id = wire::cond_id_of(&msg)?;
                    let leaf = wire::leaf_of(&msg)?;
                    let consumed = self.session.get_by_correlation(
                        DEFAULT_RLOG_QUEUE,
                        cond_id.as_u128(),
                        |entry| wire::leaf_of(entry).ok() == Some(leaf),
                        Wait::NoWait,
                    )?;
                    if consumed.is_some() {
                        // Original was consumed here: deliver the
                        // compensation, taking the entry that says so —
                        // exactly once.
                        return Ok(Some(ReceivedMessage::classify(msg)));
                    }
                    if self.annihilates(queue, MessageKind::Original, cond_id, leaf)? {
                        continue;
                    }
                    // Original neither in the queue nor consumed here:
                    // defer the compensation. Staged, so the net effect of
                    // the commit is a move to the back — and until then it
                    // cannot be met again: when the queue runs dry, every
                    // remaining message is an undeliverable compensation,
                    // which is "nothing deliverable" now, not after `wait`.
                    self.session.put(queue, msg)?;
                    wait = Wait::NoWait;
                    self.metrics.comp_deferred.incr();
                    self.qmgr.trace().record(
                        self.qmgr.clock().now(),
                        TraceStage::CompensationDeferred,
                        Some(cond_id.as_u128()),
                        Some(leaf),
                        queue,
                    );
                }
                MessageKind::SuccessNotification | MessageKind::Standard => {
                    return Ok(Some(ReceivedMessage::classify(msg)));
                }
            }
        }
    }

    /// Annihilation at encounter (paper §2.6: "both messages cancel each
    /// other out and will be deleted from the queue"): the read holds one
    /// half of the pair `(cond_id, leaf)` as a get of its transaction, and
    /// takes the `other` half off `queue` in it too if it is there — one
    /// record or nothing. Whether it was.
    fn annihilates(
        &mut self,
        queue: &str,
        other: MessageKind,
        cond_id: CondMessageId,
        leaf: u32,
    ) -> CondResult<bool> {
        let taken = self.session.get_by_correlation(
            queue,
            cond_id.as_u128(),
            |m| wire::kind_of(m) == other && wire::leaf_of(m).ok() == Some(leaf),
            Wait::NoWait,
        )?;
        if taken.is_none() {
            return Ok(false);
        }
        self.annihilated.push((cond_id, leaf, queue.to_owned()));
        Ok(true)
    }

    /// Counts and traces one committed annihilation.
    fn note_annihilated(&self, cond_id: CondMessageId, leaf: u32, queue: &str) {
        self.metrics.annihilated.incr();
        self.qmgr.trace().record(
            self.qmgr.clock().now(),
            TraceStage::Annihilated,
            Some(cond_id.as_u128()),
            Some(leaf),
            queue,
        );
    }

    // ---------------------------------------------------- transactions --

    /// Begins a receiver transaction (the paper's `begin_tx()` facade).
    ///
    /// # Errors
    ///
    /// [`CondError::TransactionActive`] if one is already active.
    pub fn begin_tx(&mut self) -> CondResult<()> {
        self.session.begin().map_err(|e| match e {
            MqError::TransactionActive => CondError::TransactionActive,
            other => CondError::Mq(other),
        })?;
        self.pending_acks.clear();
        self.annihilated.clear();
        Ok(())
    }

    /// Commits the receiver transaction (the paper's `commit_tx()`).
    ///
    /// The consumption log entries and the *processed* acknowledgments of
    /// every conditional message read in the transaction are staged into
    /// the same transaction, so consumption and acknowledgment commit
    /// atomically: "the generation of the second kind of acknowledgment is
    /// bound to the successful commit of the receiver's transaction".
    ///
    /// # Errors
    ///
    /// [`CondError::NoTransaction`] without an active transaction;
    /// messaging failures (the transaction is then still open and can be
    /// retried or rolled back).
    pub fn commit_tx(&mut self) -> CondResult<()> {
        if !self.session.in_transaction() {
            return Err(CondError::NoTransaction);
        }
        self.commit_acked(AckKind::Processed)
    }

    /// Stages the consumption log entry and the `kind` acknowledgment of
    /// every original read in the open transaction, then commits it.
    fn commit_acked(&mut self, kind: AckKind) -> CondResult<()> {
        let commit_time = self.qmgr.clock().now();
        for read in &self.pending_acks {
            read.stage(&mut self.session, kind, commit_time, self.recipient.clone())?;
        }
        self.session.commit()?;
        let sent = match kind {
            AckKind::Read => &self.metrics.read_acks,
            AckKind::Processed => &self.metrics.processed_acks,
        };
        sent.add(self.pending_acks.len() as u64);
        self.pending_acks.clear();
        for (cond_id, leaf, queue) in std::mem::take(&mut self.annihilated) {
            self.note_annihilated(cond_id, leaf, &queue);
        }
        Ok(())
    }

    /// Rolls back the receiver transaction: consumed messages return to
    /// their queues and *no acknowledgment is generated* (paper §2.4).
    ///
    /// # Errors
    ///
    /// [`CondError::NoTransaction`] without an active transaction.
    pub fn rollback_tx(&mut self) -> CondResult<()> {
        if !self.session.in_transaction() {
            return Err(CondError::NoTransaction);
        }
        self.session.rollback()?;
        self.pending_acks.clear();
        Ok(())
    }
}

/// The receiver-log entry "original (`cond_id`, `leaf`) was consumed here".
fn rlog_entry(cond_id: CondMessageId, leaf: u32) -> Message {
    Message::builder(bytes::Bytes::new())
        .property(wire::P_LEAF, i64::from(leaf))
        .correlation_u128(cond_id.as_u128())
        .persistent(true)
        .build()
}

fn ack_address(msg: &Message) -> CondResult<QueueAddress> {
    let manager = msg
        .str_property(wire::P_SENDER_MANAGER)
        .ok_or_else(|| CondError::Malformed("original missing sender manager".into()))?;
    let queue = msg
        .str_property(wire::P_ACK_QUEUE)
        .ok_or_else(|| CondError::Malformed("original missing ack queue".into()))?;
    Ok(QueueAddress::new(manager, queue))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, Destination, DestinationSet};
    use crate::messenger::{ConditionalMessenger, MessageStatus};
    use crate::wire::MessageOutcome;
    use simtime::{Millis, SimClock};

    fn setup() -> (Arc<SimClock>, Arc<QueueManager>, Arc<ConditionalMessenger>) {
        let clock = SimClock::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        (clock, qmgr, messenger)
    }

    /// A destination manager with no messenger attached: one original of
    /// `condition` waits on `Q.A`, and the acknowledgments it provokes stay
    /// on `DS.ACK.Q` for inspection instead of being evaluated on arrival.
    fn receiver_only(condition: &Condition) -> (Arc<SimClock>, Arc<QueueManager>, CondMessageId) {
        let clock = SimClock::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("DS.ACK.Q").unwrap();
        let id = CondMessageId::generate();
        let compiled = crate::eval::CompiledCondition::compile(condition).unwrap();
        let original = wire::make_original(
            &bytes::Bytes::from("hi"),
            id,
            &compiled.leaves()[0],
            "QM1",
            "DS.ACK.Q",
        );
        qmgr.put("Q.A", original).unwrap();
        (clock, qmgr, id)
    }

    fn counter(qmgr: &QueueManager, name: &str) -> u64 {
        qmgr.metrics_snapshot().counter(name)
    }

    fn one_dest(window: Millis) -> Condition {
        Destination::queue("QM1", "Q.A")
            .pickup_within(window)
            .into()
    }

    fn processing_dest(window: Millis) -> Condition {
        Destination::queue("QM1", "Q.A")
            .process_within(window)
            .into()
    }

    #[test]
    fn non_transactional_read_sends_read_ack_and_logs() {
        let (clock, qmgr, id) = receiver_only(&one_dest(Millis(100)));
        clock.advance(Millis(10));
        let mut receiver = ConditionalReceiver::with_identity(qmgr.clone(), "alice").unwrap();
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.kind(), MessageKind::Original);
        assert_eq!(got.payload_str(), Some("hi"));
        assert_eq!(got.cond_id(), Some(id));
        // Ack on DS.ACK.Q with the read timestamp and identity.
        let ack_msg = &qmgr.queue("DS.ACK.Q").unwrap().browse()[0];
        let ack = Acknowledgment::from_message(ack_msg).unwrap();
        assert_eq!(ack.kind, AckKind::Read);
        assert_eq!(ack.read_at, Time(10));
        assert_eq!(ack.recipient.as_deref(), Some("alice"));
        // The receiver log records the consumption: (id, leaf) and no more.
        let rlog = qmgr.queue("DS.RLOG.Q").unwrap().browse();
        assert_eq!(rlog.len(), 1);
        assert_eq!(wire::cond_id_of(&rlog[0]).unwrap(), id);
        assert_eq!(wire::leaf_of(&rlog[0]).unwrap(), 0);
        assert_eq!(rlog[0].properties().count(), 1, "ds.leaf only");
    }

    #[test]
    fn transactional_read_acks_only_on_commit() {
        let (clock, qmgr, id) = receiver_only(&processing_dest(Millis(1_000)));
        clock.advance(Millis(10));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.begin_tx().unwrap();
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.cond_id(), Some(id));
        // Before commit: no ack, message invisible.
        assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 0);
        clock.advance(Millis(40));
        receiver.commit_tx().unwrap();
        let ack =
            Acknowledgment::from_message(&qmgr.queue("DS.ACK.Q").unwrap().browse()[0]).unwrap();
        assert_eq!(ack.kind, AckKind::Processed);
        assert_eq!(ack.read_at, Time(10));
        assert_eq!(ack.processed_at, Some(Time(50)));
        assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 1);
    }

    #[test]
    fn rolled_back_read_redelivers_without_ack() {
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message("work", &processing_dest(Millis(1_000)))
            .unwrap();
        clock.advance(Millis(5));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.begin_tx().unwrap();
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        receiver.rollback_tx().unwrap();
        assert_eq!(counter(&qmgr, "cond.recv.processed_acks"), 0, "no ack");
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "redelivered");
        // A second, successful attempt acks exactly once.
        receiver.begin_tx().unwrap();
        let again = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert!(again.message().redelivery_count() > 0);
        receiver.commit_tx().unwrap();
        assert_eq!(counter(&qmgr, "cond.recv.processed_acks"), 1);
        assert_eq!(counter(&qmgr, "cond.ack.processed"), 1);
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }

    #[test]
    fn exactly_one_ack_per_consumption() {
        // Non-transactional read: one read-ack, no processed-ack, even if
        // processing was expected (paper: an acknowledgment of successful
        // non-transactional processing cannot be generated automatically).
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message("work", &processing_dest(Millis(50)))
            .unwrap();
        clock.advance(Millis(5));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(counter(&qmgr, "cond.recv.read_acks"), 1);
        assert_eq!(counter(&qmgr, "cond.recv.processed_acks"), 0);
        assert_eq!(counter(&qmgr, "cond.ack.read"), 1, "one ack applied");
        // Evaluation: processing required but only a read-ack → fails once
        // the window passes.
        clock.advance(Millis(100));
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Failure);
    }

    #[test]
    fn annihilation_when_original_unread() {
        let (clock, qmgr, messenger) = setup();
        messenger
            .send_message_with_compensation("orig", "undo", &one_dest(Millis(30)))
            .unwrap();
        // Nobody reads; failure → compensation joins the original on Q.A.
        clock.advance(Millis(60));
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 2);
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap();
        assert!(got.is_none(), "both messages annihilated: {got:?}");
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 0);
        // The annihilation logs nothing: both halves left the queue.
        assert_eq!(qmgr.queue("DS.RLOG.Q").unwrap().depth(), 0);
        assert_eq!(counter(&qmgr, "cond.recv.annihilated"), 1);
        // No acknowledgment was produced.
        assert_eq!(counter(&qmgr, "cond.recv.read_acks"), 0);
    }

    #[test]
    fn annihilation_met_by_the_read_is_one_record_in_the_reads_transaction() {
        // The original sits behind its compensation and the read meets the
        // pair. Both gets are the read's own transaction: no journal failure
        // or crash can remove the original alone, leaving a compensation
        // nobody can resolve. The receiver log is not written.
        let journal = mq::journal::MemJournal::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(SimClock::new())
            .journal(journal.clone())
            .build()
            .unwrap();
        let q = qmgr.create_queue("Q.A").unwrap();
        let condition = one_dest(Millis(100));
        let compiled = crate::eval::CompiledCondition::compile(&condition).unwrap();
        let id = CondMessageId::generate();
        qmgr.put("Q.A", wire::make_compensation(id, 0, None))
            .unwrap();
        let body = bytes::Bytes::from("orig");
        let original = wire::make_original(&body, id, &compiled.leaves()[0], "QM1", "DS.ACK.Q");
        qmgr.put("Q.A", original).unwrap();
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        let rlog = qmgr.queue("DS.RLOG.Q").unwrap();
        let mut read = |failing: bool| {
            journal.set_failing(failing);
            receiver.read_message("Q.A", Wait::NoWait)
        };

        assert!(read(true).is_err());
        assert_eq!((q.depth(), rlog.depth()), (2, 0), "nothing moved");
        assert_eq!(counter(&qmgr, "cond.recv.annihilated"), 0);
        let before = journal.record_count();
        assert!(read(false).unwrap().is_none(), "nothing deliverable");
        assert_eq!(journal.record_count(), before + 1);
        assert!(matches!(
            mq::journal::Journal::replay_collect(&*journal).unwrap().last(),
            Some(mq::journal::JournalRecord::TxCommit { puts, gets, .. })
                if gets.len() == 2 && puts.is_empty()
        ));
        assert_eq!((q.depth(), rlog.depth()), (0, 0));
        assert_eq!(counter(&qmgr, "cond.recv.annihilated"), 1);
    }

    #[test]
    fn compensation_delivered_after_original_consumed() {
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message_with_compensation("orig", "undo", &processing_dest(Millis(30)))
            .unwrap();
        clock.advance(Millis(5));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        // Non-transactional read: consumption logged, but processing can
        // never be acknowledged → the message will fail.
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.kind(), MessageKind::Original);
        let rlog = qmgr.queue("DS.RLOG.Q").unwrap();
        assert_eq!(rlog.depth(), 1, "consumption logged");
        clock.advance(Millis(60));
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Failure);
        // The compensation arrives and is deliverable because the receiver
        // log shows consumption.
        let comp = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(comp.kind(), MessageKind::Compensation);
        assert_eq!(comp.payload_str(), Some("undo"));
        assert!(!comp.is_system_compensation());
        // Delivered exactly once, and the read that delivered it took the
        // entry: no receiver log is left behind (Fig. 8, case B).
        assert!(receiver
            .read_message("Q.A", Wait::NoWait)
            .unwrap()
            .is_none());
        assert_eq!(rlog.depth(), 0);
        assert_eq!(counter(&qmgr, "cond.recv.comp_delivered"), 1);
    }

    #[test]
    fn a_read_annihilates_only_the_pair_of_its_own_leaf() {
        // Both leaves of one message wait on one queue. Leaf 0 is read, the
        // message fails, and both compensations join leaf 1's original.
        let (clock, qmgr, messenger) = setup();
        let twice: Condition = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A").into(),
            Destination::queue("QM1", "Q.A").into(),
        ])
        .pickup_within(Millis(30))
        .into();
        messenger
            .send_message_with_compensation("orig", "undo", &twice)
            .unwrap();
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        let first = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!((first.kind(), first.leaf()), (MessageKind::Original, Some(0)));
        clock.advance(Millis(60));
        let q = qmgr.queue("Q.A").unwrap();
        let queued: Vec<_> = q
            .browse()
            .iter()
            .map(|m| (wire::kind_of(m), wire::leaf_of(m).unwrap()))
            .collect();
        assert_eq!(
            queued,
            [
                (MessageKind::Original, 1),
                (MessageKind::Compensation, 0),
                (MessageKind::Compensation, 1),
            ]
        );
        // The read meets leaf 1's original, which annihilates with leaf 1's
        // compensation, not with leaf 0's ahead of it, and goes on to
        // deliver leaf 0's: its original was consumed here.
        let comp = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!((comp.kind(), comp.leaf()), (MessageKind::Compensation, Some(0)));
        let rlog = qmgr.queue("DS.RLOG.Q").unwrap();
        assert_eq!((q.depth(), rlog.depth()), (0, 0));
        assert_eq!(counter(&qmgr, "cond.recv.annihilated"), 1);
        assert_eq!(counter(&qmgr, "cond.recv.comp_delivered"), 1);
    }

    #[test]
    fn a_second_copy_of_a_delivered_compensation_is_deferred() {
        let (_clock, qmgr, id) = receiver_only(&one_dest(Millis(100)));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        let data = bytes::Bytes::from("undo");
        let comp = wire::make_compensation(id, 0, Some(&data));
        let copy = wire::make_compensation(id, 0, Some(&data));
        assert_ne!(comp.id(), copy.id(), "a new message id");
        qmgr.put("Q.A", comp).unwrap();
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.kind(), MessageKind::Compensation);
        qmgr.put("Q.A", copy).unwrap();
        assert!(receiver
            .read_message("Q.A", Wait::NoWait)
            .unwrap()
            .is_none());
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "the copy is parked");
        assert_eq!(counter(&qmgr, "cond.recv.comp_delivered"), 1);
        assert_eq!(counter(&qmgr, "cond.recv.comp_deferred"), 1);
    }

    #[test]
    fn unresolvable_compensation_is_deferred_not_delivered() {
        let (_clock, qmgr, _messenger) = setup();
        // A compensation with no matching original anywhere (e.g. original
        // expired in transit).
        let comp = wire::make_compensation(CondMessageId::generate(), 0, None);
        qmgr.put("Q.A", comp).unwrap();
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        assert!(receiver
            .read_message("Q.A", Wait::NoWait)
            .unwrap()
            .is_none());
        // Still parked on the queue for a later attempt.
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1);
    }

    #[test]
    fn deferred_compensation_does_not_block_other_messages() {
        let (_clock, qmgr, _messenger) = setup();
        let comp = wire::make_compensation(CondMessageId::generate(), 0, None);
        qmgr.put("Q.A", comp).unwrap();
        qmgr.put("Q.A", Message::text("ordinary").build()).unwrap();
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.kind(), MessageKind::Standard);
        assert_eq!(got.payload_str(), Some("ordinary"));
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "comp still parked");
    }

    #[test]
    fn a_reply_correlated_by_its_request_id_is_no_conditional_message() {
        let (_clock, qmgr, _messenger) = setup();
        let request = Message::text("request").build();
        let reply = Message::text("reply")
            .correlation_id(request.id().to_string())
            .build();
        qmgr.put("Q.A", reply).unwrap();
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.kind(), MessageKind::Standard);
        assert_eq!(got.cond_id(), None);
    }

    #[test]
    fn success_notifications_are_delivered_to_receivers() {
        let (clock, qmgr, messenger) = setup();
        use crate::wire::SendOptions;
        let id = messenger
            .send_with(
                "data",
                None,
                &one_dest(Millis(100)),
                SendOptions {
                    success_notifications: Some(true),
                    ..SendOptions::default()
                },
            )
            .unwrap();
        clock.advance(Millis(5));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        let note = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        assert_eq!(note.kind(), MessageKind::SuccessNotification);
        assert_eq!(note.cond_id(), Some(id));
    }

    #[test]
    fn tx_api_misuse_errors() {
        let (_clock, qmgr, _messenger) = setup();
        let mut receiver = ConditionalReceiver::new(qmgr).unwrap();
        assert!(matches!(
            receiver.commit_tx(),
            Err(CondError::NoTransaction)
        ));
        assert!(matches!(
            receiver.rollback_tx(),
            Err(CondError::NoTransaction)
        ));
        receiver.begin_tx().unwrap();
        assert!(matches!(
            receiver.begin_tx(),
            Err(CondError::TransactionActive)
        ));
        receiver.rollback_tx().unwrap();
    }

    #[test]
    fn min_subset_condition_end_to_end() {
        // 1-of-2 pickup: one receiver reading one queue is enough.
        let (clock, qmgr, messenger) = setup();
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A").into(),
            Destination::queue("QM1", "Q.B").into(),
        ])
        .pickup_within(Millis(100))
        .min_pickup(1)
        .into();
        let id = messenger.send_message("either", &cond).unwrap();
        clock.advance(Millis(10));
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(
            outcome.outcome,
            MessageOutcome::Success,
            "early success at 1 of 2"
        );
    }

    #[test]
    fn shared_queue_competing_consumers_one_ack() {
        // Example 2 shape: one queue, several potential readers, any one
        // read satisfies the condition.
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message("flight", &one_dest(Millis(100)))
            .unwrap();
        clock.advance(Millis(1));
        let mut r1 = ConditionalReceiver::with_identity(qmgr.clone(), "c1").unwrap();
        let mut r2 = ConditionalReceiver::with_identity(qmgr.clone(), "c2").unwrap();
        let got1 = r1.read_message("Q.A", Wait::NoWait).unwrap();
        let got2 = r2.read_message("Q.A", Wait::NoWait).unwrap();
        assert!(
            got1.is_some() ^ got2.is_some(),
            "exactly one controller wins"
        );
        assert_eq!(counter(&qmgr, "cond.recv.read_acks"), 1);
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
}
