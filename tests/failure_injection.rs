//! Failure-injection tests: storage errors at the worst moments.
//!
//! The in-memory journal starts failing appends on command; the stack must
//! fail *cleanly*: a commit whose WAL write failed leaves the transaction
//! open (retryable), a conditional send whose transaction failed leaves no
//! half-registered evaluation state, and after the storage heals everything
//! proceeds normally.

use std::sync::Arc;

use condmsg::{
    AckKind, Acknowledgment, Condition, ConditionalMessenger, Destination, MessageStatus,
};
use mq::journal::MemJournal;
use mq::{Message, MqError, QueueManager, TraceStage, Wait};
use simtime::{Millis, SimClock, Time};

fn world() -> (Arc<MemJournal>, Arc<QueueManager>) {
    let journal = MemJournal::new();
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
    // The arrival-time cycle could not commit the verdict this ack
    // decides: the error is counted, the ack rolled back onto the queue,
    // the message undecided.
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
    // The ack was applied once per attempt (idempotently) but counted and
    // traced once, by the transaction that committed it with its verdict.
    let metrics = qmgr.metrics_snapshot();
    assert_eq!(metrics.counter("cond.ack.read"), 1);
    assert_eq!(metrics.counter("cond.verdict.success"), 1);
    assert_eq!(metrics.counter("cond.verdict.fused"), 1);
    let stages = messenger.trace().stages_for(id.as_u128());
    let read_acks = stages.iter().filter(|s| **s == TraceStage::ReadAck);
    assert_eq!(read_acks.count(), 1, "{stages:?}");
}

#[test]
fn verdict_whose_transaction_fails_is_retried_without_spinning() {
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
    // Their triggers are past due, so nothing is armed and time alone
    // retries nothing.
    assert_eq!(clock.pending_timers(), 0);
    let failed_attempts = errors();
    clock.advance(Millis(60_000));
    assert_eq!(errors(), failed_attempts);
    assert_eq!(clock.pending_timers(), 0);
    // A caller's retry while storage is still down fails, and costs the
    // parked compensations nothing however often it happens.
    for _ in 0..2 * qmgr.config().backout_threshold {
        assert!(messenger.pump().is_err());
    }
    assert_eq!(messenger.pending_count(), 2);

    journal.set_failing(false);
    let mut outcomes = messenger.pump().unwrap();
    outcomes.sort_by_key(|o| o.cond_id);
    assert_eq!(outcomes.iter().map(|o| o.cond_id).collect::<Vec<_>>(), ids);
    assert!(outcomes
        .iter()
        .all(|o| o.outcome == condmsg::MessageOutcome::Failure));
    assert_eq!(messenger.pending_count(), 0);
    // Both compensations were released, exactly once each.
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 2);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 4, "2 originals + 2 undos");
    assert_eq!(qmgr.queue(mq::DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    assert!(messenger.pump().unwrap().is_empty());

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
        assert!(messenger.force_fail(forced, "sphere aborted").is_err());
    }
    assert_eq!(messenger.status(forced), MessageStatus::Pending);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
    // The next cycle finds it undecided and gives it its timer back.
    assert!(messenger.pump().unwrap().is_empty());
    assert_eq!(clock.pending_timers(), 1);
    journal.set_failing(false);
    let outcome = messenger.force_fail(forced, "sphere aborted").unwrap();
    assert_eq!(outcome.outcome, condmsg::MessageOutcome::Failure);
    assert_eq!(messenger.status(forced), MessageStatus::Decided(outcome));
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
    assert_eq!(
        messenger.pump().unwrap()[0].outcome,
        MessageOutcome::Failure
    );
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1, "still parked");

    journal.apply_fault(FaultAction::FailStorage).unwrap();
    for _ in 0..2 * qmgr.config().backout_threshold {
        assert!(messenger
            .release_outcome_actions(id, MessageOutcome::Failure)
            .is_err());
    }
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 1, "only the original");
    let deferred = qmgr.obs().metrics().gauge("cond.deferred.depth");
    assert_eq!(deferred.get(), 1);

    journal.apply_fault(FaultAction::HealStorage).unwrap();
    messenger
        .release_outcome_actions(id, MessageOutcome::Failure)
        .unwrap();
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 2, "original + its undo");
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 1);
    assert_eq!(deferred.get(), 0);
    assert_eq!(qmgr.queue(mq::DEAD_LETTER_QUEUE).unwrap().depth(), 0);
    // Released once: there is nothing left to release.
    assert!(messenger
        .release_outcome_actions(id, MessageOutcome::Failure)
        .is_err());
}
