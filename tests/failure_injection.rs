//! Failure-injection tests: storage errors at the worst moments.
//!
//! A wrapper journal starts failing appends on command; the stack must
//! fail *cleanly*: a commit whose WAL write failed leaves the transaction
//! open (retryable), a conditional send whose transaction failed leaves no
//! half-registered evaluation state, and after the storage heals everything
//! proceeds normally.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use condmsg::{
    AckKind, Acknowledgment, Condition, ConditionalMessenger, Destination, MessageStatus,
};
use mq::journal::{Journal, JournalRecord, MemJournal};
use mq::{Message, MqError, MqResult, QueueManager, Wait};
use simtime::{Millis, SimClock, Time};

/// A journal that can be switched into a failing mode.
#[derive(Debug)]
struct FlakyJournal {
    inner: Arc<MemJournal>,
    failing: AtomicBool,
}

impl FlakyJournal {
    fn new() -> Arc<FlakyJournal> {
        Arc::new(FlakyJournal {
            inner: MemJournal::new(),
            failing: AtomicBool::new(false),
        })
    }

    fn set_failing(&self, yes: bool) {
        self.failing.store(yes, Ordering::SeqCst);
    }
}

impl Journal for FlakyJournal {
    fn append(&self, record: &JournalRecord) -> MqResult<()> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(MqError::Io(std::io::Error::other(
                "injected storage failure",
            )));
        }
        self.inner.append(record)
    }

    fn replay(&self, sink: &mut mq::journal::ReplaySink<'_>) -> MqResult<()> {
        self.inner.replay(sink)
    }

    fn reset(&self) -> MqResult<()> {
        self.inner.reset()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

fn world() -> (Arc<FlakyJournal>, Arc<QueueManager>) {
    let journal = FlakyJournal::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(SimClock::new())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    (journal, qmgr)
}

#[test]
fn persistent_put_fails_cleanly_and_message_is_not_enqueued() {
    let (journal, qmgr) = world();
    journal.set_failing(true);
    let err = qmgr
        .put("Q", Message::text("x").persistent(true).build())
        .unwrap_err();
    assert!(matches!(err, MqError::Io(_)));
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 0, "WAL-first: no message");
    // Non-persistent puts bypass the journal and still work.
    qmgr.put("Q", Message::text("volatile").build()).unwrap();
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 1);
    journal.set_failing(false);
    qmgr.put("Q", Message::text("back").persistent(true).build())
        .unwrap();
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 2);
}

#[test]
fn failed_commit_keeps_transaction_open_for_retry() {
    let (journal, qmgr) = world();
    qmgr.put("Q", Message::text("in").persistent(true).build())
        .unwrap();
    let mut session = qmgr.session();
    session.begin().unwrap();
    let got = session.get("Q", Wait::NoWait).unwrap().unwrap();
    assert_eq!(got.payload_str(), Some("in"));
    journal.set_failing(true);
    assert!(session.commit().is_err(), "WAL write failed");
    assert!(session.in_transaction(), "transaction still open");
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 0, "get still provisional");
    // Storage heals; the retry succeeds.
    journal.set_failing(false);
    session.commit().unwrap();
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 0);
    assert_eq!(qmgr.stats().tx_committed.get(), 1);
}

#[test]
fn failed_commit_can_roll_back_instead() {
    let (journal, qmgr) = world();
    qmgr.put("Q", Message::text("in").persistent(true).build())
        .unwrap();
    let mut session = qmgr.session();
    session.begin().unwrap();
    session.get("Q", Wait::NoWait).unwrap().unwrap();
    journal.set_failing(true);
    assert!(session.commit().is_err());
    session.rollback().unwrap();
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 1, "message redelivered");
}

#[test]
fn failed_conditional_send_leaves_no_state_behind() {
    let (journal, qmgr) = world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(100))
        .into();
    journal.set_failing(true);
    let err = messenger.send_message("doomed", &condition).unwrap_err();
    assert!(err.to_string().contains("injected storage failure"));
    // Nothing half-sent: no pending evaluation, no originals, no parked
    // compensations, no log entries.
    assert_eq!(messenger.pending_count(), 0);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 0);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.queue("DS.SLOG.Q").unwrap().depth(), 0);

    // After the storage heals, the same send succeeds end to end.
    journal.set_failing(false);
    let id = messenger.send_message("retry", &condition).unwrap();
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 1);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
}

#[test]
fn pump_propagates_storage_errors_without_losing_acks() {
    let (journal, qmgr) = world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger.send_message("x", &condition).unwrap();
    // Storage goes down, and then an ack lands (a volatile copy of the
    // receiver's ack: non-persistent puts bypass the failing journal).
    journal.set_failing(true);
    let durable = Acknowledgment {
        cond_id: id,
        leaf: 0,
        kind: AckKind::Read,
        read_at: Time(0),
        processed_at: None,
        recipient: None,
    }
    .to_message();
    let mut volatile = Message::builder(durable.payload().clone()).persistent(false);
    for (name, value) in durable.properties() {
        volatile = volatile.property(name, value.clone());
    }
    qmgr.put("DS.ACK.Q", volatile.build()).unwrap();
    // The arrival-time drain could not log its AckSeen entry: the error is
    // counted, the ack rolled back onto the queue, the message undecided.
    let errors = || qmgr.metrics_snapshot().counter("cond.eval.errors");
    assert_eq!(errors(), 1);
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 1, "ack not lost");
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    // pump() reports its own failure to its caller instead of counting it,
    // and however often the drain is retried the ack is never backed out
    // to the dead-letter queue.
    for _ in 0..2 * qmgr.config().backout_threshold {
        assert!(messenger.pump().is_err());
    }
    assert_eq!(errors(), 1);
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 1, "still queued");
    journal.set_failing(false);
    let outcomes = messenger.pump().unwrap();
    assert_eq!(outcomes[0].cond_id, id);
    assert_eq!(outcomes[0].outcome, condmsg::MessageOutcome::Success);
}
