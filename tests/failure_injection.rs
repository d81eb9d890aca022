//! Failure-injection tests: storage errors at the worst moments.
//!
//! The in-memory journal starts failing appends on command; the stack must
//! fail *cleanly*: a commit whose WAL write failed leaves the transaction
//! open (retryable), a conditional send whose transaction failed leaves no
//! half-registered evaluation state, and after the storage heals everything
//! proceeds normally.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use condmsg::config::{RETRY_BACKOFF, RETRY_BACKOFF_MAX};
use condmsg::{
    AckKind, Acknowledgment, Condition, ConditionalMessenger, ConditionalReceiver, Destination,
    MessageOutcome, MessageStatus,
};
use mq::channel::{Channel, HANDOFF_RETRY, MAX_BATCH, MAX_RELEASED};
use mq::journal::{Journal, JournalRecord, MemJournal};
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{
    FaultAction, FaultPlane, ManagerConfig, Message, MqError, QueueAddress, QueueConfig,
    QueueManager, TraceStage, Wait, DEAD_LETTER_QUEUE,
};
use parking_lot::{Condvar, Mutex};
use simtime::{Millis, SharedClock, SimClock, SystemClock, Time};

fn world() -> (Arc<MemJournal>, Arc<QueueManager>) {
    let (_, journal, qmgr) = timed_world();
    (journal, qmgr)
}

fn timed_world() -> (Arc<SimClock>, Arc<MemJournal>, Arc<QueueManager>) {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    (clock, journal, qmgr)
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
fn a_refused_sweep_never_fails_the_get_that_met_the_ripe_message() {
    // A message past its TTL leaves as a get of the sweep's transaction,
    // which the get that meets it runs first. The journal refuses that
    // record: the ripe message stays where it is, in memory as in the
    // journal, and the get goes on to what it can deliver.
    let (clock, journal, qmgr) = timed_world();
    let q = qmgr.queue("Q").unwrap();
    let ripe = Message::text("ripe").persistent(true).ttl(Millis(5));
    qmgr.put("Q", ripe.build()).unwrap();
    qmgr.put("Q", Message::text("live").build()).unwrap();
    clock.advance(Millis(10));
    let records = journal.record_count();
    let expired = || qmgr.metrics_snapshot().counter("mq.queue.Q.expired");

    journal.set_failing(true);
    let got = qmgr.get("Q", Wait::NoWait).unwrap().unwrap();
    assert_eq!(got.payload_str(), Some("live"));
    assert!(qmgr.sweep_expired_all().is_err(), "the sweep says so");
    let again = qmgr.get("Q", Wait::NoWait).unwrap();
    assert!(again.is_none(), "never delivered: {again:?}");
    assert_eq!((q.depth(), expired()), (1, 0), "neither lost nor counted");
    assert_eq!(q.stats().dequeued.get(), 1, "only the delivery");
    assert_eq!(journal.record_count(), records);

    journal.set_failing(false);
    assert_eq!(qmgr.sweep_expired_all().unwrap(), 1);
    assert_eq!(qmgr.sweep_expired_all().unwrap(), 0);
    assert_eq!((q.depth(), expired()), (0, 1));
    assert_eq!(journal.record_count(), records + 1, "the sweep's record");

    // The restart resurrects nothing.
    qmgr.crash();
    let reopened = QueueManager::builder("QM1")
        .clock(clock)
        .journal(journal)
        .build()
        .unwrap();
    assert_eq!(reopened.queue("Q").unwrap().depth(), 0);
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
fn refused_fused_record_hands_the_transaction_back_and_decides_once() {
    let (clock, journal, qmgr) = timed_world();
    qmgr.create_queue("APP.LOG").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger.send_message("x", &condition).unwrap();
    // A reader's transaction, as a local receiver builds it: the pick-up,
    // its own log entry and the read-ack, which the claimant of DS.ACK.Q
    // turns into the verdict — one record, and storage is down for it.
    let ack = Acknowledgment {
        cond_id: id,
        leaf: 0,
        kind: AckKind::Read,
        read_at: Time(0),
        processed_at: None,
        recipient: None,
    };
    let mut reader = qmgr.session();
    reader.begin().unwrap();
    assert!(reader.get("Q", Wait::NoWait).unwrap().is_some());
    reader
        .put("APP.LOG", Message::text("consumed").persistent(true).build())
        .unwrap();
    reader.put("DS.ACK.Q", ack.to_message()).unwrap();
    journal.set_failing(true);
    let records = journal.record_count();
    let metrics = || qmgr.metrics_snapshot();
    let attempts = 2 * u64::from(qmgr.config().backout_threshold);
    for attempt in 1..=attempts {
        // Refused: the reader has its transaction back, nothing of it or of
        // the verdict is visible, and the error is counted where it
        // happened as well as returned.
        assert!(matches!(reader.commit(), Err(MqError::Io(_))));
        assert!(reader.in_transaction());
        assert_eq!(metrics().counter("cond.eval.errors"), attempt);
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        for (queue, depth) in [
            ("Q", 0),
            ("APP.LOG", 0),
            ("DS.ACK.Q", 0),
            ("DS.COMP.Q", 1),
            ("DS.SLOG.Q", 1),
            ("DS.OUTCOME.Q", 0),
            (mq::DEAD_LETTER_QUEUE, 0),
        ] {
            assert_eq!(qmgr.queue(queue).unwrap().depth(), depth, "{queue}");
        }
    }
    // A refused record delivered no ack: the evaluation is as it was
    // before, its deadline timer armed, and there is nothing for a cycle
    // to retry.
    assert_eq!(clock.pending_timers(), 1);
    messenger.pump().unwrap();
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    assert_eq!(metrics().counter("cond.eval.errors"), attempts);
    assert_eq!(journal.record_count(), records);
    assert_eq!(metrics().counter("cond.ack.read"), 0);
    assert_eq!(metrics().counter("cond.verdict.success"), 0);

    // Storage returns and the reader retries the transaction it was handed
    // back — the ack still in it: one record, one verdict.
    journal.set_failing(false);
    reader.commit().unwrap();
    assert_eq!(journal.record_count(), records + 1);
    assert!(matches!(
        messenger.status(id),
        MessageStatus::Decided(n) if n.outcome == condmsg::MessageOutcome::Success
    ));
    assert_eq!(qmgr.queue("APP.LOG").unwrap().depth(), 1);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    // The ack was applied and taken back once per refused attempt, and
    // counted and traced once, by the transaction that committed it with
    // its verdict.
    assert_eq!(metrics().counter("cond.ack.read"), 1);
    assert_eq!(metrics().counter("cond.ack.queued"), 0);
    assert_eq!(metrics().counter("cond.verdict.success"), 1);
    assert_eq!(metrics().counter("cond.verdict.fused"), 1);
    let stages = messenger.trace().stages_for(id.as_u128());
    let read_acks = stages.iter().filter(|s| **s == TraceStage::ReadAck);
    assert_eq!(read_acks.count(), 1, "{stages:?}");
    // A resend of the same ack finds the message decided: nothing happens.
    qmgr.put("DS.ACK.Q", ack.to_message()).unwrap();
    assert_eq!(journal.record_count(), records + 1);
    assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 1);
}

#[test]
fn a_read_abandoned_after_a_refused_record_leaves_no_ack_behind() {
    // The paper's rule: a rolled-back read generates no acknowledgment.
    // The reader's record is refused and the reader gives up instead of
    // retrying, so the message is back on its queue, unread — and the
    // verdict is the deadline's, at the deadline, with compensation.
    let (clock, journal, qmgr) = timed_world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger
        .send_message_with_compensation("x", "undo-x", &condition)
        .unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    clock.advance(Millis(10));
    journal.set_failing(true);
    assert!(receiver.read_message("Q", Wait::NoWait).is_err());
    journal.set_failing(false);
    let q = qmgr.queue("Q").unwrap();
    assert_eq!(q.depth(), 1, "the read was rolled back");
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.eval.errors"), 1);
    assert_eq!(clock.pending_timers(), 1, "the deadline is still armed");

    clock.advance(Millis(2_000));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Failure);
    assert_eq!(
        outcome.decided_at,
        Time(1_001),
        "by the timer, not the advance's end"
    );
    let metrics = qmgr.metrics_snapshot();
    assert_eq!(metrics.counter("cond.ack.read"), 0);
    assert_eq!(metrics.counter("cond.comp.released"), 1);
    assert_eq!(q.depth(), 2, "the unread original and its compensation");

    // The same for an explicit transaction the reader rolls back.
    qmgr.create_queue("Q2").unwrap();
    let condition: Condition = Destination::queue("QM1", "Q2")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger.send_message("y", &condition).unwrap();
    receiver.begin_tx().unwrap();
    assert!(receiver.read_message("Q2", Wait::NoWait).unwrap().is_some());
    journal.set_failing(true);
    assert!(receiver.commit_tx().is_err());
    journal.set_failing(false);
    receiver.rollback_tx().unwrap();
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    clock.advance(Millis(2_000));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Failure);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.ack.read"), 0);
}

/// Parks the append of the first record that puts to `DS.OUTCOME.Q` — a
/// verdict's — until the test releases it.
#[derive(Debug)]
struct VerdictParkingJournal {
    inner: Arc<MemJournal>,
    park: Mutex<Park>,
    changed: Condvar,
}

#[derive(Debug, PartialEq)]
enum Park {
    Armed,
    Parked,
    Released,
}

impl VerdictParkingJournal {
    fn wait_parked(&self) {
        let mut park = self.park.lock();
        while *park != Park::Parked {
            self.changed.wait(&mut park);
        }
    }

    fn release(&self) {
        *self.park.lock() = Park::Released;
        self.changed.notify_all();
    }
}

impl Journal for VerdictParkingJournal {
    fn append(&self, record: &JournalRecord) -> mq::MqResult<()> {
        let verdict = matches!(record, JournalRecord::TxCommit { puts, .. }
            if puts.iter().any(|(queue, _)| &**queue == "DS.OUTCOME.Q"));
        let mut park = self.park.lock();
        if verdict && *park == Park::Armed {
            *park = Park::Parked;
            self.changed.notify_all();
            while *park == Park::Parked {
                self.changed.wait(&mut park);
            }
        }
        drop(park);
        self.inner.append(record)
    }

    fn replay(&self, sink: &mut mq::journal::ReplaySink<'_>) -> mq::MqResult<()> {
        self.inner.replay(sink)
    }

    fn reset(&self) -> mq::MqResult<()> {
        self.inner.reset()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

#[test]
fn a_message_is_pending_while_the_record_that_decides_it_is_written() {
    // A reader's pick-up decides the message and its record is on its way
    // to the journal: until it is written nothing has been decided, so the
    // message is pending — never unknown to `status()` (which a D-Sphere
    // turns into `UnknownMessage`), never missing from `pending_count()`.
    let journal = Arc::new(VerdictParkingJournal {
        inner: MemJournal::new(),
        park: Mutex::new(Park::Armed),
        changed: Condvar::new(),
    });
    let qmgr = QueueManager::builder("QM1")
        .clock(SimClock::new())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger.send_message("x", &condition).unwrap();
    let reader = std::thread::spawn({
        let qmgr = qmgr.clone();
        move || {
            let mut receiver = ConditionalReceiver::new(qmgr).unwrap();
            receiver.read_message("Q", Wait::NoWait).unwrap().is_some()
        }
    });
    journal.wait_parked();
    let during = (messenger.status(id), messenger.pending_count());
    journal.release();
    assert!(reader.join().unwrap(), "the reader got the message");
    assert_eq!(during, (MessageStatus::Pending, 1), "while the record is written");
    assert!(matches!(
        messenger.status(id),
        MessageStatus::Decided(n) if n.outcome == condmsg::MessageOutcome::Success
    ));
    assert_eq!(messenger.pending_count(), 0);
}

#[test]
fn a_verdict_the_messenger_cannot_stage_does_not_fail_the_delivering_commit() {
    // The outcome queue has no room: that is the sender's trouble, not the
    // reader's. The trigger declines, the reader's record queues the ack as
    // if no trigger were installed, and the retry timer takes the ack from
    // the queue once there is room: no pump, no daemon.
    let (clock, journal, qmgr) = timed_world();
    let bounded = QueueConfig { max_depth: Some(1) };
    qmgr.create_queue_with("DS.OUTCOME.Q", bounded).unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    let first = messenger.send_message("a", &condition).unwrap();
    let second = messenger.send_message("b", &condition).unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    assert!(receiver.read_message("Q", Wait::NoWait).unwrap().is_some());
    assert_eq!(messenger.status(second), MessageStatus::Pending);
    let records = journal.record_count();
    assert!(receiver.read_message("Q", Wait::NoWait).unwrap().is_some());
    assert_eq!(journal.record_count(), records + 1);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 0, "the read went through");
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 1);
    assert_eq!(messenger.status(second), MessageStatus::Pending);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.eval.errors"), 1);
    assert!(messenger.pump().is_err(), "still no room");
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 1);

    assert!(messenger
        .take_outcome(first, Wait::NoWait)
        .unwrap()
        .is_some());
    clock.advance(RETRY_BACKOFF);
    let outcome = messenger
        .take_outcome(second, Wait::NoWait)
        .unwrap()
        .unwrap();
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Success);
    assert_eq!(
        qmgr.queue("DS.OUTCOME.Q").unwrap().depth(),
        0,
        "each reported once"
    );
    let metrics = qmgr.metrics_snapshot();
    assert_eq!(metrics.counter("cond.ack.queued"), 1);
    assert_eq!(metrics.counter("cond.ack.read"), 2);
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
}

#[test]
fn a_refused_verdict_lands_on_the_retry_timer_once_storage_heals() {
    // Storage refuses the record that decides a message at its deadline.
    // Nothing calls pump() and no daemon runs: one retry timer, armed a
    // backoff ahead, runs the cycle again, re-arming twice as far ahead
    // while storage is down.
    let (clock, journal, qmgr) = timed_world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(100))
        .into();
    let id = messenger
        .send_message_with_compensation("a", "undo-a", &condition)
        .unwrap();
    journal.set_failing(true);
    clock.advance(Millis(101));
    assert_eq!(messenger.status(id), MessageStatus::Pending, "refused at t=101");
    assert_eq!(clock.pending_timers(), 1, "the retry timer alone");
    clock.advance(RETRY_BACKOFF);
    assert_eq!(messenger.status(id), MessageStatus::Pending, "still down");
    assert_eq!(clock.pending_timers(), 1, "re-armed");

    journal.set_failing(false);
    clock.advance(Millis(2 * RETRY_BACKOFF.as_u64() - 1));
    assert_eq!(messenger.status(id), MessageStatus::Pending, "before the backoff");
    clock.advance(Millis(1));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert_eq!(outcome.decided_at, Time(101 + 3 * RETRY_BACKOFF.as_u64()));
    let reason = outcome.reason.unwrap();
    assert!(reason.contains("no pick-up by deadline"), "{reason}");
    assert_eq!(clock.pending_timers(), 0, "nothing owed a retry");
    // The compensation was released once.
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 2, "the original and its undo");
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);

    // The cycle that succeeded brought the backoff back: the next refused
    // verdict is retried RETRY_BACKOFF after it, not twice that.
    let next = messenger
        .send_message_with_compensation("b", "undo-b", &condition)
        .unwrap();
    let sent_at = simtime::Clock::now(&*clock);
    journal.set_failing(true);
    clock.advance(Millis(101));
    assert_eq!(messenger.status(next), MessageStatus::Pending, "refused");
    journal.set_failing(false);
    clock.advance(RETRY_BACKOFF);
    let outcome = messenger.take_outcome(next, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.decided_at, sent_at + Millis(101) + RETRY_BACKOFF);
}

/// The waiting taker of a verdict the journal refuses: the refusal gives
/// the claim back, so it is handed nothing and stays parked; once storage
/// heals, the retry timer's cycle hands it the one notification, which no
/// record ever put.
#[test]
fn a_taker_waiting_through_a_refused_verdict_is_handed_it_once_storage_heals() {
    let (clock, journal, qmgr) = timed_world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(100))
        .into();
    let id = messenger
        .send_message_with_compensation("a", "undo-a", &condition)
        .unwrap();
    let outcomes = qmgr.queue("DS.OUTCOME.Q").unwrap();
    std::thread::scope(|s| {
        let taker = s.spawn(|| messenger.take_outcome(id, Wait::Timeout(Millis(600_000))));
        wait_for("the taker to park", &|| outcomes.waiting_getters() == 1);
        journal.set_failing(true);
        clock.advance(Millis(101));
        let refused = messenger.status(id);
        std::thread::sleep(Duration::from_millis(20));
        let parked = (taker.is_finished(), outcomes.waiting_getters());
        journal.set_failing(false);
        clock.advance(RETRY_BACKOFF);
        let outcome = taker.join().unwrap().unwrap().expect("handed the verdict");
        assert_eq!(refused, MessageStatus::Pending, "refused at t=101");
        assert_eq!(parked, (false, 1), "handed nothing, still parked");
        assert_eq!(outcome.outcome, MessageOutcome::Failure);
    });
    assert_eq!(outcomes.depth(), 0);
    assert_eq!(messenger.status(id), MessageStatus::Unknown);
    assert!(messenger.take_outcome(id, Wait::NoWait).unwrap().is_none(), "exactly one");
    assert_eq!(qmgr.metrics_snapshot().counter("mq.tx.handed"), 1);
    let notified = journal.replay_collect().unwrap().into_iter().any(|record| {
        matches!(record, JournalRecord::TxCommit { puts, .. }
            if puts.iter().any(|(queue, _)| &**queue == "DS.OUTCOME.Q"))
    });
    assert!(!notified, "no record puts the notification");
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 2, "the original and its undo, once");
}

/// A notification is handed over only after the trigger that decided it
/// has heard that its record is written: by the time `take_outcome`
/// returns, the message has left the pending table.
#[test]
fn a_taker_handed_its_notification_never_finds_the_message_pending() {
    let (_clock, _journal, qmgr) = timed_world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let outcomes = qmgr.queue("DS.OUTCOME.Q").unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    const TRIPS: u64 = 20;
    for _ in 0..TRIPS {
        let id = messenger.send_message("x", &condition).unwrap();
        std::thread::scope(|s| {
            let taker = s.spawn(|| {
                let outcome = messenger.take_outcome(id, Wait::Timeout(Millis(600_000)));
                (outcome, messenger.status(id))
            });
            wait_for("the taker to park", &|| outcomes.waiting_getters() == 1);
            let read = receiver.read_message("Q", Wait::NoWait);
            let (outcome, status) = taker.join().unwrap();
            assert!(read.unwrap().is_some());
            assert_eq!(outcome.unwrap().unwrap().outcome, MessageOutcome::Success);
            assert_eq!(status, MessageStatus::Unknown, "never pending once taken");
        });
    }
    assert_eq!(qmgr.metrics_snapshot().counter("mq.tx.handed"), TRIPS);
    assert_eq!(outcomes.depth(), 0);
}

#[test]
fn a_dropped_messenger_disarms_every_timer_it_armed() {
    // The clock outlives the messenger: what it armed must not stay armed
    // (holding its callback) until it comes due.
    let (clock, journal, qmgr) = timed_world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let soon: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(100))
        .into();
    let late: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(3_600_000))
        .into();
    for condition in [&soon, &soon, &soon, &late, &late] {
        messenger.send_message("m", condition).unwrap();
    }
    assert_eq!(clock.pending_timers(), 5, "one deadline timer per message");
    // Storage refuses the first three verdicts: one retry timer stands in
    // for their deadline timers.
    journal.set_failing(true);
    clock.advance(Millis(101));
    assert_eq!(messenger.pending_count(), 5);
    assert_eq!(clock.pending_timers(), 3, "two deadlines and the retry");
    drop(messenger);
    assert_eq!(clock.pending_timers(), 0);
}

#[test]
fn verdict_whose_transaction_fails_is_retried_without_spinning() {
    let (clock, journal, qmgr) = timed_world();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(100))
        .into();
    let mut ids = vec![
        messenger
            .send_message_with_compensation("a", "undo-a", &condition)
            .unwrap(),
        messenger
            .send_message_with_compensation("b", "undo-b", &condition)
            .unwrap(),
    ];
    ids.sort();
    // Storage is down at the decision instant: both deadlines pass, both
    // verdict transactions fail.
    journal.set_failing(true);
    clock.advance(Millis(200));
    let errors = || qmgr.metrics_snapshot().counter("cond.eval.errors");
    assert!(errors() >= 1);
    assert_eq!(messenger.pending_count(), 2, "neither evaluation is dropped");
    for id in &ids {
        assert_eq!(messenger.status(*id), MessageStatus::Pending);
    }
    // Their triggers are past due, so their own timers stay unarmed (one
    // would fire at once and spin): one retry timer is armed instead, and
    // time retries them, each retry twice as long after the one before,
    // up to once per RETRY_BACKOFF_MAX however long storage is down. The
    // deadlines failed at t=100, the retries at 110, 130 and 170; in the
    // minute after t=200 they fail at 250, 410, 730 and 1370, then once a
    // second from 2370 on (58 times): 62 failed cycles where a fixed
    // backoff failed 6 000.
    assert_eq!(clock.pending_timers(), 1);
    let failed_attempts = errors();
    clock.advance(Millis(60_000));
    assert_eq!(RETRY_BACKOFF_MAX, Millis(1_000));
    assert_eq!(errors(), failed_attempts + 62);
    assert_eq!(clock.pending_timers(), 1);
    // A caller's retry while storage is still down fails, and costs the
    // parked compensation nothing however often it happens.
    for _ in 0..2 * qmgr.config().backout_threshold {
        assert!(messenger.pump().is_err());
    }
    assert_eq!(messenger.pending_count(), 2);

    journal.set_failing(false);
    messenger.pump().unwrap();
    for id in &ids {
        let outcome = messenger.take_outcome(*id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, condmsg::MessageOutcome::Failure);
    }
    assert_eq!(messenger.pending_count(), 0);
    // Both compensations were released, exactly once each.
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 2);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 4, "2 originals + 2 undos");
    assert_eq!(qmgr.queue(mq::DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    messenger.pump().unwrap();
    assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);

    // A forced failure whose transaction fails takes the same way back:
    // the evaluation is not dropped, nothing spends its backout budget.
    let far: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(10_000_000))
        .into();
    let forced = messenger
        .send_message_with_compensation("c", "undo-c", &far)
        .unwrap();
    journal.set_failing(true);
    for _ in 0..2 * qmgr.config().backout_threshold {
        assert!(messenger.force_fail(&[forced], "sphere aborted").is_err());
    }
    assert_eq!(messenger.status(forced), MessageStatus::Pending);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
    // It is undecided and has its timer back.
    assert_eq!(clock.pending_timers(), 1);
    messenger.pump().unwrap();
    assert_eq!(messenger.status(forced), MessageStatus::Pending);
    assert_eq!(clock.pending_timers(), 1);
    journal.set_failing(false);
    messenger.force_fail(&[forced], "sphere aborted").unwrap();
    let MessageStatus::Decided(outcome) = messenger.status(forced) else {
        panic!("forced: {:?}", messenger.status(forced))
    };
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Failure);
    assert_eq!(clock.pending_timers(), 0);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 3);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 6);
    assert_eq!(qmgr.queue(mq::DEAD_LETTER_QUEUE).unwrap().depth(), 0);
}

#[test]
fn deferred_release_whose_transaction_fails_can_be_released_again() {
    // A D-Sphere member's outcome actions are deferred; the sphere's
    // release hits a storage outage. The owed actions must not be lost
    // with the failed transaction: once storage heals the release goes
    // through and the compensation is delivered exactly once.
    use condmsg::{MessageOutcome, SendOptions};
    use mq::{FaultAction, FaultPlane};
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(50))
        .into();
    let options = SendOptions {
        defer_outcome_actions: true,
        ..SendOptions::default()
    };
    let id = messenger
        .send_with("member", Some("undo member".into()), &condition, options)
        .unwrap();
    clock.advance(Millis(100));
    assert!(matches!(
        messenger.status(id),
        MessageStatus::Decided(n) if n.outcome == MessageOutcome::Failure
    ));
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1, "still parked");

    journal.apply_fault(FaultAction::FailStorage).unwrap();
    for _ in 0..2 * qmgr.config().backout_threshold {
        assert!(messenger
            .release_outcome_actions(&[id], MessageOutcome::Failure)
            .is_err());
    }
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 1, "only the original");
    let deferred = qmgr.obs().metrics().gauge("cond.deferred.depth");
    assert_eq!(deferred.get(), 1);

    journal.apply_fault(FaultAction::HealStorage).unwrap();
    messenger
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .unwrap();
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 2, "original + its undo");
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 1);
    assert_eq!(deferred.get(), 0);
    assert_eq!(qmgr.queue(mq::DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    // Released once: there is nothing left to release.
    assert!(messenger
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .is_err());
}

type BehindAPartition = (
    Arc<QueueManager>,
    Arc<MemJournal>,
    Arc<QueueManager>,
    Channel,
    Arc<TcpAcceptor>,
);

/// `QM.HEAD`, on a journal the test can fail, with `MAX_RELEASED`
/// persistent envelopes for `QM.TAIL` queued behind a partitioned loopback
/// TCP channel; healing `QM.TAIL`'s acceptor lets them go. The channel
/// and the tail are returned to keep them alive. Both managers run on the
/// system clock, so a refused handoff is tried again every
/// `HANDOFF_RETRY` of real time.
fn envelopes_behind_a_partition(config: ManagerConfig) -> BehindAPartition {
    envelopes_behind_a_partition_on(SystemClock::new(), config)
}

/// [`envelopes_behind_a_partition`] on `clock`.
fn envelopes_behind_a_partition_on(clock: SharedClock, config: ManagerConfig) -> BehindAPartition {
    let journal = MemJournal::new();
    let head = QueueManager::builder("QM.HEAD")
        .clock(clock.clone())
        .journal(journal.clone())
        .config(config)
        .build()
        .unwrap();
    let tail = QueueManager::builder("QM.TAIL").clock(clock).build().unwrap();
    tail.create_queue("Q.IN").unwrap();
    let acceptor = TcpAcceptor::bind(&tail, "127.0.0.1:0").unwrap();
    acceptor.apply_fault(FaultAction::Partition).unwrap();
    let tcp = TcpConfig {
        backoff_max: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let channel = Channel::connect_tcp(&head, "QM.TAIL", acceptor.local_addr(), tcp).unwrap();
    for _ in 0..MAX_RELEASED {
        let msg = Message::text("payload").persistent(true).build();
        head.put_to(&QueueAddress::new("QM.TAIL", "Q.IN"), msg).unwrap();
    }
    (head, journal, tail, channel, acceptor)
}

fn wait_for(what: &str, done: &dyn Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Journal appends `qmgr` has attempted, refused ones included.
fn appends_tried(qmgr: &QueueManager) -> u64 {
    qmgr.metrics_snapshot().histograms["mq.journal.append_micros"].count
}

#[test]
fn handoffs_the_journal_refuses_spend_no_backout_budget() {
    // A channel handoff is a record only when the released list is full
    // (or the batch staged a put). The journal refuses that record, again
    // and again: the mover keeps the session and tries the record again,
    // and since the peer has the envelopes and the refusal is not theirs,
    // none of it is a backout. (Dropping the refused session used to roll
    // it back as a consumer would: dead-lettered after `backout_threshold`
    // hiccups, although delivered.)
    let config = ManagerConfig { backout_threshold: 2, ..ManagerConfig::default() };
    let (head, journal, tail, _channel, acceptor) = envelopes_behind_a_partition(config);
    let records = journal.record_count();

    // Fifteen batches are released without a record; the sixteenth fills
    // the list, so its session is committed, and refused, and retried.
    journal.set_failing(true);
    let tried = appends_tried(&head);
    acceptor.apply_fault(FaultAction::Heal).unwrap();
    let refusals = 4 * u64::from(head.config().backout_threshold);
    wait_for("the refused handoff to be tried over and over", &|| {
        appends_tried(&head) >= tried + refusals
    });
    let xmit = head.queue("SYSTEM.XMIT.QM.TAIL").unwrap();
    assert_eq!(journal.record_count(), records);
    assert_eq!(xmit.stats().redelivered.get(), 0, "a refused handoff is not a backout");
    assert_eq!(head.queue(DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    assert_eq!(head.stats().released.get(), (MAX_RELEASED - MAX_BATCH) as u64);

    journal.set_failing(false);
    wait_for("the handoff record", &|| journal.record_count() == records + 1);
    wait_for("the list to empty", &|| head.stats().released.get() == 0);
    assert_eq!(xmit.depth(), 0);
    assert_eq!(xmit.stats().redelivered.get(), 0);
    assert_eq!(head.queue(DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), MAX_RELEASED, "each delivered once");
    // Restarted, the head has nothing to re-send.
    head.shutdown();
    head.crash();
    let head = QueueManager::builder("QM.HEAD").journal(journal).build().unwrap();
    assert_eq!(head.queue("SYSTEM.XMIT.QM.TAIL").unwrap().depth(), 0);
}

#[test]
fn a_refused_handoff_is_not_sent_again_while_the_journal_fails() {
    // The same refused handoff at the cap, the journal failing on. The
    // peer holds the batch, so the mover sends nothing: it waits a backoff
    // and tries the record again. (It used to put the envelopes back and
    // re-send them at once, over and over: every re-send a batch of
    // duplicates at the peer, thousands of them in half a second.)
    let (head, journal, tail, _channel, acceptor) =
        envelopes_behind_a_partition(ManagerConfig::default());
    journal.set_failing(true);
    let tried = appends_tried(&head);
    acceptor.apply_fault(FaultAction::Heal).unwrap();
    wait_for("the first refusals", &|| appends_tried(&head) >= tried + 2);
    let duplicates = || tail.relay_stats().duplicates.get();
    let before = duplicates();
    std::thread::sleep(Duration::from_millis(500));
    let grown = duplicates() - before;
    assert!(grown < MAX_BATCH as u64, "{grown} duplicates in 500 ms: the batch is re-sent");
    let xmit = head.queue("SYSTEM.XMIT.QM.TAIL").unwrap();
    assert_eq!(xmit.stats().redelivered.get(), 0);
    assert_eq!(head.queue(DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    journal.set_failing(false);
    wait_for("the list to empty", &|| head.stats().released.get() == 0);
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), MAX_RELEASED, "each delivered once");
}

#[test]
fn a_refused_handoff_is_tried_again_only_once_its_retry_is_due_on_the_managers_clock() {
    // The same refused handoff at the cap, on a simulated clock: the mover
    // parks with one timer, at the refusal's retry deadline, and tries the
    // record again once the clock passes it, exactly once per deadline.
    let clock = SimClock::new();
    let (head, journal, tail, _channel, acceptor) =
        envelopes_behind_a_partition_on(clock.clone(), ManagerConfig::default());
    journal.set_failing(true);
    let tried = appends_tried(&head);
    acceptor.apply_fault(FaultAction::Heal).unwrap();
    let parked_after = |tries: u64| {
        wait_for("the mover parked on its retry", &|| {
            appends_tried(&head) == tried + tries && clock.pending_timers() == 1
        });
    };
    parked_after(1);
    clock.advance(HANDOFF_RETRY.saturating_sub(Millis(1)));
    assert_eq!(appends_tried(&head), tried + 1, "a ms short of the retry");
    clock.advance(Millis(1));
    parked_after(2);
    assert_eq!(appends_tried(&head), tried + 2, "tried exactly once");
    assert_eq!(head.stats().released.get(), (MAX_RELEASED - MAX_BATCH) as u64);
    journal.set_failing(false);
    clock.advance(HANDOFF_RETRY);
    wait_for("the list to empty", &|| head.stats().released.get() == 0);
    assert_eq!(appends_tried(&head), tried + 3);
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), MAX_RELEASED, "each delivered once");
}

/// A journal whose checkpoints are refused once armed: every record is
/// written, but the checkpoint a commit runs after its record fails.
#[derive(Debug)]
struct CheckpointRefusingJournal {
    inner: Arc<MemJournal>,
    refusing: AtomicBool,
}

impl CheckpointRefusingJournal {
    fn refuse_checkpoints(&self) {
        self.refusing.store(true, Ordering::SeqCst);
    }
}

impl Journal for CheckpointRefusingJournal {
    fn append(&self, record: &JournalRecord) -> mq::MqResult<()> {
        self.inner.append(record)
    }

    fn replay(&self, sink: &mut mq::journal::ReplaySink<'_>) -> mq::MqResult<()> {
        self.inner.replay(sink)
    }

    fn write_checkpoint(
        &self,
        records: &mut dyn Iterator<Item = JournalRecord>,
    ) -> mq::MqResult<()> {
        if self.refusing.load(Ordering::SeqCst) {
            let full = std::io::Error::other("no space left for the checkpoint");
            return Err(MqError::Io(full));
        }
        self.inner.write_checkpoint(records)
    }

    fn reset(&self) -> mq::MqResult<()> {
        self.inner.reset()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

/// A manager that checkpoints after every commit, on a journal that
/// refuses checkpoints once armed, and its messenger.
fn checkpoint_refusing_world() -> (
    Arc<CheckpointRefusingJournal>,
    Arc<QueueManager>,
    Arc<ConditionalMessenger>,
) {
    let journal = Arc::new(CheckpointRefusingJournal {
        inner: MemJournal::new(),
        refusing: false.into(),
    });
    let qmgr = QueueManager::builder("QM1")
        .clock(SimClock::new())
        .journal(journal.clone())
        .config(ManagerConfig {
            checkpoint_bytes: Some(1),
            ..ManagerConfig::default()
        })
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    (journal, qmgr, messenger)
}

#[test]
fn a_send_whose_record_is_written_succeeds_though_its_checkpoint_is_refused() {
    let (journal, qmgr, messenger) = checkpoint_refusing_world();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    journal.refuse_checkpoints();
    let records = journal.inner.record_count();
    let id = messenger.send_message("x", &condition).unwrap();
    let written = journal.inner.record_count() - records;
    assert_eq!(written, 1, "the send's record");
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    let refused = qmgr.metrics_snapshot().counter("mq.checkpoint.refused");
    assert!(refused >= 1, "the send's refused checkpoint is counted");
    // Its read decides it, once: the ack found the message pending.
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    assert!(receiver.read_message("Q", Wait::NoWait).unwrap().is_some());
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Success);
    assert!(messenger.take_outcome(id, Wait::NoWait).unwrap().is_none());
    assert_eq!(messenger.pending_count(), 0);
    let snapshot = qmgr.metrics_snapshot();
    assert_eq!(snapshot.counter("cond.verdict.success"), 1);
    assert_eq!(snapshot.counter("cond.verdict.failure"), 0);
}

#[test]
fn an_implicit_read_whose_record_is_written_returns_its_original_though_checkpoints_fail() {
    let (journal, qmgr, messenger) = checkpoint_refusing_world();
    let condition: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger.send_message("payload", &condition).unwrap();
    journal.refuse_checkpoints();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let refused = qmgr.metrics_snapshot().counter("mq.checkpoint.refused");
    let read = receiver.read_message("Q", Wait::NoWait).unwrap();
    let original = read.expect("the original");
    assert!(
        qmgr.metrics_snapshot().counter("mq.checkpoint.refused") > refused,
        "the read's refused checkpoint is counted"
    );
    assert_eq!(original.cond_id(), Some(id));
    assert_eq!(original.payload_str(), Some("payload"));
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 0, "consumed once");
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Success);
}

#[test]
fn a_refused_fused_pick_up_record_keeps_the_reader_waiting_and_spends_nothing() {
    // Over TCP, a reader waits on Q.IN and the tail's journal refuses the
    // arrival record that would be its read. The batch is refused whole:
    // the reader keeps waiting, the original goes back to its place in the
    // arrival's transaction, which the transport drops, and nothing the
    // receiver staged (log entry, read-ack) is left anywhere. The head sends
    // again until the storage heals; then the original is read once, its
    // backout budget untouched, and acknowledged once.
    let clock = SimClock::new();
    let head = QueueManager::builder("QM.HEAD").clock(clock.clone()).build().unwrap();
    let tail_journal = MemJournal::new();
    let tail = QueueManager::builder("QM.TAIL")
        .clock(clock)
        .journal(tail_journal.clone())
        .build()
        .unwrap();
    tail.create_queue("Q.IN").unwrap();
    let tcp = TcpConfig {
        backoff_max: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let connect = |from: &Arc<QueueManager>, to: &Arc<QueueManager>| {
        let acceptor = TcpAcceptor::bind(to, "127.0.0.1:0").unwrap();
        let channel =
            Channel::connect_tcp(from, to.name(), acceptor.local_addr(), tcp.clone()).unwrap();
        (channel, acceptor)
    };
    let _channels = (connect(&head, &tail), connect(&tail, &head));
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    let records = tail_journal.record_count();
    tail_journal.set_failing(true);
    let tried = appends_tried(&tail);
    std::thread::scope(|s| {
        let reader = s.spawn(|| receiver.read_message("Q.IN", Wait::Timeout(Millis(600_000))));
        wait_for("the reader parked", &|| tail.queue("Q.IN").unwrap().waiting_getters() == 1);
        let id = messenger.send_message("once", &condition).unwrap();
        wait_for("the arrival refused twice", &|| appends_tried(&tail) >= tried + 2);
        assert!(!reader.is_finished(), "the reader still waits");
        assert_eq!(tail.queue("Q.IN").unwrap().waiting_getters(), 1);
        assert_eq!(tail_journal.record_count(), records);
        for queue in ["Q.IN", "DS.RLOG.Q", "SYSTEM.XMIT.QM.HEAD", DEAD_LETTER_QUEUE] {
            assert_eq!(tail.queue(queue).unwrap().depth(), 0, "{queue}");
        }
        let metrics = tail.metrics_snapshot();
        assert_eq!(metrics.counter("mq.tx.picked_up"), 0);
        assert_eq!(metrics.counter("mq.relay.duplicates"), 0, "the key was given up");
        assert_eq!(messenger.status(id), MessageStatus::Pending);

        tail_journal.set_failing(false);
        let read = reader.join().unwrap().unwrap().expect("handed the original");
        assert_eq!(read.payload_str(), Some("once"));
        assert_eq!(read.message().redelivery_count(), 0, "no backout budget spent");
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(10_000)))
            .unwrap()
            .expect("verdict");
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    });
    assert_eq!(tail.metrics_snapshot().counter("mq.tx.picked_up"), 1);
    assert_eq!(head.metrics_snapshot().counter("cond.ack.read"), 1, "one ack");
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 0);
    assert!(receiver.read_message("Q.IN", Wait::NoWait).unwrap().is_none(), "read once");
}
