//! Crash-recovery integration tests: the "reliable" in reliable messaging.
//!
//! Every test crashes a queue manager at an inconvenient point, rebuilds it
//! over the same journal, reattaches the conditional messaging service, and
//! asserts that the protocol converges to the same outcome it would have
//! reached without the crash (paper §2.3/§2.6: log entries are stored
//! persistently precisely so this works).

use std::sync::Arc;

use condmsg::{
    wire, AckKind, Acknowledgment, CompiledCondition, CondError, CondMessageId, Condition,
    ConditionalMessenger, ConditionalReceiver, Destination, DestinationSet, MessageKind,
    MessageOutcome, MessageStatus,
};
use mq::channel::Channel;
use mq::journal::{Journal, JournalRecord, MemJournal, SegmentConfig, SegmentedJournal};
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{BatchAccepted, FaultAction, FaultPlane, QueueAddress, QueueManager, Wait};
use simtime::{Millis, SharedClock, SimClock, Time};

fn build_qm(clock: SharedClock, journal: Arc<MemJournal>) -> Arc<QueueManager> {
    QueueManager::builder("QM1")
        .clock(clock)
        .journal(journal)
        .build()
        .unwrap()
}

/// A fresh directory for a segment journal.
fn segment_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "condmsg-recovery-{tag}-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ))
}

/// Opens the on-disk log the durable way: fsync before ack.
fn open_durable(root: &std::path::Path) -> Arc<SegmentedJournal> {
    let config = SegmentConfig {
        sync_every_append: true,
        ..SegmentConfig::default()
    };
    SegmentedJournal::open(root, config).unwrap()
}

/// `(file name, contents)` of every file under a journal root.
fn read_root(root: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn two_dest_condition(window: Millis) -> Condition {
    DestinationSet::of(vec![
        Destination::queue("QM1", "Q.A").into(),
        Destination::queue("QM1", "Q.B").into(),
    ])
    .pickup_within(window)
    .into()
}

#[test]
fn sender_crash_before_any_ack_recovers_and_fails_by_deadline() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message_with_compensation("orig", "undo", &two_dest_condition(Millis(100)))
        .unwrap();
    qmgr.crash();

    // Restart; evaluation state is rebuilt from DS.SLOG.Q.
    let qmgr2 = build_qm(clock.clone(), journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert_eq!(messenger2.status(id), MessageStatus::Pending);
    clock.advance(Millis(200));
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    // Compensations (pre-generated before the crash, recovered from the
    // persistent DS.COMP.Q) are delivered to both destinations.
    for q in ["Q.A", "Q.B"] {
        let msgs = qmgr2.queue(q).unwrap().browse();
        assert_eq!(msgs.len(), 2, "{q}: original + compensation survive");
    }
}

#[test]
fn acks_logged_before_crash_are_not_lost() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message("x", &two_dest_condition(Millis(1_000)))
        .unwrap();

    clock.advance(Millis(10));
    let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
    r.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    messenger.pump().unwrap(); // consumes the ack, logs AckSeen
    qmgr.crash();

    let qmgr2 = build_qm(clock.clone(), journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    // Only the second ack is needed now.
    let mut r2 = ConditionalReceiver::new(qmgr2.clone()).unwrap();
    r2.read_message("Q.B", Wait::NoWait).unwrap().unwrap();
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn ack_in_queue_but_unprocessed_at_crash_is_replayed() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message("x", &two_dest_condition(Millis(1_000)))
        .unwrap();
    // The sender's service goes down before the receivers read: nobody is
    // watching DS.ACK.Q, so both acks sit on the persistent queue.
    drop(messenger);
    clock.advance(Millis(10));
    let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
    r.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    r.read_message("Q.B", Wait::NoWait).unwrap().unwrap();
    qmgr.crash();

    let qmgr2 = build_qm(clock, journal);
    assert_eq!(qmgr2.queue("DS.ACK.Q").unwrap().depth(), 2);
    // Attaching the service drains and evaluates what queued up meanwhile.
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert_eq!(qmgr2.queue("DS.ACK.Q").unwrap().depth(), 0);
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn crash_right_after_a_fused_arrival_record_replays_the_ack_and_absorbs_its_resend() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message("x", &two_dest_condition(Millis(1_000)))
        .unwrap();
    clock.advance(Millis(10));
    // The read-ack of one destination, as a remote receiver's channel
    // delivers it: an envelope in a transport batch.
    let remote = QueueManager::builder("QM2").build().unwrap();
    remote.define_route("QM1", "SYSTEM.XMIT.QM1").unwrap();
    let envelope_of = |leaf: u32| {
        let ack = Acknowledgment {
            cond_id: id,
            leaf,
            kind: AckKind::Read,
            read_at: Time(10),
            processed_at: None,
            recipient: None,
        };
        remote
            .put_to(&QueueAddress::new("QM1", "DS.ACK.Q"), ack.to_message())
            .unwrap();
        remote.get("SYSTEM.XMIT.QM1", Wait::NoWait).unwrap().unwrap()
    };
    const ONE: BatchAccepted = BatchAccepted {
        accepted: 1,
        duplicates: 0,
    };
    let first = envelope_of(0);
    assert_eq!(qmgr.accept_batch(vec![first.clone()]).unwrap(), ONE);
    // The arrival record is the ack applied: its write-ahead entry and
    // nothing else. The ack itself was never put anywhere.
    match journal.replay_collect().unwrap().last() {
        Some(JournalRecord::TxCommit { puts, gets }) => {
            assert!(gets.is_empty());
            assert_eq!(puts.len(), 1);
            assert_eq!(&*puts[0].0, "DS.SLOG.Q");
        }
        other => panic!("arrival record: {other:?}"),
    }
    // Crash before the transport acknowledged the batch.
    qmgr.crash();

    let qmgr2 = build_qm(clock, journal);
    assert_eq!(qmgr2.queue("DS.ACK.Q").unwrap().depth(), 0);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert_eq!(messenger2.status(id), MessageStatus::Pending);
    // The sender resends the unacknowledged batch. The dedup window cannot
    // know the envelope (no record ever held it), and need not: applying
    // the ack a second time changes nothing.
    assert_eq!(qmgr2.accept_batch(vec![first]).unwrap(), ONE);
    assert_eq!(messenger2.status(id), MessageStatus::Pending);
    // The replayed entry counts: the other destination's ack alone decides.
    assert_eq!(qmgr2.accept_batch(vec![envelope_of(1)]).unwrap(), ONE);
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    for queue in ["DS.ACK.Q", "DS.SLOG.Q", "DS.COMP.Q", "DS.OUTCOME.Q"] {
        assert_eq!(qmgr2.queue(queue).unwrap().depth(), 0, "{queue}");
    }
    assert_eq!(qmgr2.metrics_snapshot().counter("cond.ack.queued"), 0);
}

#[test]
fn crash_right_after_verdict_leaves_outcome_and_no_log_entries() {
    // The deciding transaction covers the outcome entry, the outcome
    // actions, the purge of the send/ack log entries and the notification.
    // A crash immediately after it leaves nothing for recovery to mop up:
    // reattaching the service reads the journal and appends nothing.
    let root = segment_root("verdict");
    let clock = SimClock::new();
    let open = || {
        QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(open_durable(&root))
            .build()
            .unwrap()
    };
    let id;
    {
        let qmgr = open();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        id = messenger
            .send_message("x", &two_dest_condition(Millis(1_000)))
            .unwrap();
        clock.advance(Millis(10));
        let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
        r.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        // The second ack decides the message inside the read.
        r.read_message("Q.B", Wait::NoWait).unwrap().unwrap();
        qmgr.crash();
    }
    let after_crash = read_root(&root);
    for restart in 1..=2 {
        let qmgr = open();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let of_this_message = |queue: &str| {
            qmgr.queue(queue)
                .unwrap()
                .browse()
                .into_iter()
                .filter(|m| m.correlation_id() == Some(id.to_hex().as_str()))
                .count()
        };
        assert_eq!(of_this_message("DS.DONE.Q"), 1, "outcome entry");
        assert_eq!(of_this_message("DS.SLOG.Q"), 0, "send and ack entries");
        assert_eq!(of_this_message("DS.COMP.Q"), 0, "parked compensations");
        assert_eq!(of_this_message("DS.OUTCOME.Q"), 1, "notification");
        assert!(matches!(
            messenger.status(id),
            MessageStatus::Decided(n) if n.outcome == MessageOutcome::Success
        ));
        assert_eq!(messenger.pending_count(), 0);
        qmgr.crash();
        assert_eq!(
            read_root(&root),
            after_crash,
            "restart #{restart} must not append to the journal"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn receiver_crash_between_tx_read_and_commit_redelivers() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .process_within(Millis(1_000))
        .into();
    let id = messenger.send_message("work", &condition).unwrap();

    clock.advance(Millis(10));
    {
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        receiver.begin_tx().unwrap();
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        // Receiver's process crashes: the whole manager goes down with the
        // transaction uncommitted.
        qmgr.crash();
    }

    let qmgr2 = build_qm(clock.clone(), journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert_eq!(
        qmgr2.queue("Q.A").unwrap().depth(),
        1,
        "uncommitted read rolled back by recovery"
    );
    assert_eq!(qmgr2.queue("DS.ACK.Q").unwrap().depth(), 0, "no ack leaked");
    // A second receiver finishes the job.
    let mut receiver = ConditionalReceiver::new(qmgr2.clone()).unwrap();
    receiver.begin_tx().unwrap();
    receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    clock.advance(Millis(10));
    receiver.commit_tx().unwrap();
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn guaranteed_compensation_across_receiver_crash() {
    // Paper §2.6: "the process of compensation must be guaranteed for an
    // application even in the presence of system failures". The receiver
    // consumes the original (logged in DS.RLOG.Q), the manager crashes,
    // the compensation arrives after restart — and is still delivered,
    // because the consumption log is persistent.
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .process_within(Millis(100))
        .into();
    let id = messenger
        .send_message_with_compensation("orig", "undo it", &condition)
        .unwrap();

    clock.advance(Millis(10));
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    // Non-transactional read: consumption logged, processing never acked →
    // the message will fail.
    receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    qmgr.crash();

    let qmgr2 = build_qm(clock.clone(), journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert_eq!(messenger2.status(id), MessageStatus::Pending);
    clock.advance(Millis(200));
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    // The compensation is deliverable because DS.RLOG.Q shows consumption.
    let mut receiver2 = ConditionalReceiver::new(qmgr2.clone()).unwrap();
    let comp = receiver2
        .read_message("Q.A", Wait::NoWait)
        .unwrap()
        .expect("compensation delivered after crash");
    assert_eq!(comp.kind(), MessageKind::Compensation);
    assert_eq!(comp.payload_str(), Some("undo it"));
}

#[test]
fn double_crash_still_converges() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let mut qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let id: CondMessageId;
    {
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        id = messenger
            .send_message("x", &two_dest_condition(Millis(1_000)))
            .unwrap();
        qmgr.crash();
    }
    // Crash #1 → restart, one ack, crash #2 → restart, second ack.
    qmgr = build_qm(clock.clone(), journal.clone());
    {
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        clock.advance(Millis(10));
        let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
        r.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        messenger.pump().unwrap();
        qmgr.crash();
    }
    qmgr = build_qm(clock.clone(), journal);
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
    r.read_message("Q.B", Wait::NoWait).unwrap().unwrap();
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn decided_outcome_survives_crash_without_reacting() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message_with_compensation("x", "undo", &two_dest_condition(Millis(50)))
        .unwrap();
    clock.advance(Millis(100));
    messenger.pump().unwrap(); // failure; compensations released
    let comp_depth_before: usize = ["Q.A", "Q.B"]
        .iter()
        .map(|q| qmgr.queue(q).unwrap().depth())
        .sum();
    qmgr.crash();

    let qmgr2 = build_qm(clock, journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert!(matches!(
        messenger2.status(id),
        MessageStatus::Decided(n) if n.outcome == MessageOutcome::Failure
    ));
    messenger2.pump().unwrap();
    // No duplicate compensations after recovery.
    let comp_depth_after: usize = ["Q.A", "Q.B"]
        .iter()
        .map(|q| qmgr2.queue(q).unwrap().depth())
        .sum();
    assert_eq!(comp_depth_after, comp_depth_before);
    assert_eq!(qmgr2.queue("DS.COMP.Q").unwrap().depth(), 0);
}

#[test]
fn deferred_outcome_actions_survive_crash() {
    // A Dependency-Sphere defers outcome actions; the member message is
    // decided, then the manager crashes before the sphere releases the
    // actions. After restart the recovered messenger still owes (and can
    // perform) the deferred release — the parked compensations and the
    // send record survived.
    use condmsg::SendOptions;
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(50))
        .into();
    let id = messenger
        .send_with(
            "sphere member",
            Some("undo member".into()),
            &condition,
            SendOptions {
                defer_outcome_actions: true,
                ..SendOptions::default()
            },
        )
        .unwrap();
    clock.advance(Millis(100));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    // Actions deferred: compensation still parked, nothing delivered.
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
    assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "only the original");
    qmgr.crash();

    let qmgr2 = build_qm(clock, journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert!(matches!(
        messenger2.status(id),
        MessageStatus::Decided(n) if n.outcome == MessageOutcome::Failure
    ));
    // The sphere (re-created by the application) releases with the group
    // outcome; the compensation finally flows.
    messenger2
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .unwrap();
    assert_eq!(qmgr2.queue("DS.COMP.Q").unwrap().depth(), 0);
    let mut receiver = ConditionalReceiver::new(qmgr2.clone()).unwrap();
    // Original + compensation annihilate (never consumed).
    assert!(receiver
        .read_message("Q.A", Wait::NoWait)
        .unwrap()
        .is_none());
    assert_eq!(qmgr2.queue("Q.A").unwrap().depth(), 0);
    // Releasing twice is rejected.
    assert!(messenger2
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .is_err());
}

/// A sender restarted over the same journal after `decided` messages failed
/// by their deadline while `pending` others were still under evaluation.
struct Restarted {
    /// Each decided message with what `status()` read before the crash.
    before: Vec<(CondMessageId, MessageStatus)>,
    qmgr: Arc<QueueManager>,
    messenger: Arc<ConditionalMessenger>,
}

fn restart_after_verdicts(decided: usize, pending: usize) -> Restarted {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let send = |window| messenger.send_message("x", &two_dest_condition(window)).unwrap();
    let ids: Vec<CondMessageId> = (0..decided).map(|_| send(Millis(50))).collect();
    for _ in 0..pending {
        send(Millis(60_000));
    }
    clock.advance(Millis(100));
    let before = ids.into_iter().map(|id| (id, messenger.status(id))).collect();
    qmgr.crash();
    let qmgr = build_qm(clock, journal);
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    Restarted {
        before,
        qmgr,
        messenger,
    }
}

#[test]
fn status_of_a_failed_message_is_the_same_after_a_crash() {
    // The messenger keeps no table of verdicts: before the crash and after
    // it, `status()` reads the one history entry the verdict wrote.
    let r = restart_after_verdicts(1, 0);
    let (id, before) = &r.before[0];
    let MessageStatus::Decided(n) = before else {
        panic!("not decided: {before:?}")
    };
    assert!(n.reason.as_deref().unwrap().contains("pick-up"), "{n:?}");
    assert_eq!(r.messenger.status(*id), *before);
}

#[test]
fn force_fail_after_a_restart_returns_the_recorded_verdict() {
    let r = restart_after_verdicts(1, 0);
    let (id, MessageStatus::Decided(recorded)) = &r.before[0] else {
        panic!("not decided: {:?}", r.before)
    };
    let outcome = r.messenger.force_fail(&[*id], "D-Sphere timeout").unwrap();
    assert_eq!(&outcome[..], std::slice::from_ref(recorded), "the reason is the deadline's");
    assert_eq!(r.qmgr.queue("DS.DONE.Q").unwrap().depth(), 1, "no second verdict");
}

#[test]
fn recovery_probes_the_history_instead_of_browsing_it() {
    // Recovery is O(live messages): one point read of DS.DONE.Q per send
    // record left on the sender log, never a walk over the history.
    let r = restart_after_verdicts(40, 3);
    let done = r.qmgr.queue("DS.DONE.Q").unwrap();
    assert_eq!(done.depth(), 40);
    assert_eq!(done.stats().browses.get(), 0);
    assert_eq!(r.messenger.pending_count(), 3);
    for (id, before) in &r.before {
        assert_eq!(r.messenger.status(*id), *before);
    }
}

#[test]
fn an_undecodable_history_entry_fails_recovery() {
    // The history entry of a pending message's id does not decode (here: an
    // outcome entry of the sender-log format, as an earlier build wrote
    // it). Recovery cannot tell whether the message was decided, so it
    // refuses rather than evaluate it a second time.
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message("x", &two_dest_condition(Millis(60_000)))
        .unwrap();
    let entry = mq::Message::builder(vec![2u8, 1, 100])
        .correlation_id(id.to_hex())
        .persistent(true)
        .build();
    qmgr.put("DS.DONE.Q", entry).unwrap();
    qmgr.crash();

    let qmgr2 = build_qm(clock, journal);
    match ConditionalMessenger::new(qmgr2) {
        Err(CondError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn pickup_and_ack_are_one_record() {
    // A pick-up is one protocol step and one journal record: the get, the
    // receiver-log entry and the implicit acknowledgment commit together
    // or not at all. (Split over a bare `Get` and a later commit, a crash
    // or journal failure in between consumed the original with no
    // receiver-log entry and no ack: the sender fails the message and its
    // compensation is deferred forever — neither annihilable nor
    // deliverable.)
    //
    // A destination manager with a route to the sender but no channel:
    // acknowledgments stay on the transmission queue for inspection.
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = QueueManager::builder("QM.RECV")
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q.IN").unwrap();
    qmgr.define_route("QM.SEND", "XMIT.SEND").unwrap();
    let destination = QueueAddress::new("QM.RECV", "Q.IN");
    let condition: Condition = Destination::queue("QM.RECV", "Q.IN")
        .process_within(Millis(100))
        .into();
    let compiled = CompiledCondition::compile(&condition).unwrap();
    let id = CondMessageId::generate();
    let original = wire::make_original(
        &bytes::Bytes::from("orig"),
        id,
        &compiled.leaves()[0],
        "QM.SEND",
        "DS.ACK.Q",
    );
    qmgr.put("Q.IN", original).unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let depth = |queue: &str| qmgr.queue(queue).unwrap().depth();
    let retries = 2 * qmgr.config().backout_threshold;

    // Storage down: the read fails as a whole, however often it is tried.
    journal.set_failing(true);
    for _ in 0..retries {
        assert!(receiver.read_message("Q.IN", Wait::NoWait).is_err());
    }
    assert_eq!(depth("Q.IN"), 1, "original still on the queue");
    assert_eq!(depth("DS.RLOG.Q"), 0, "no consumption logged");
    assert_eq!(depth("XMIT.SEND"), 0, "no acknowledgment sent");
    // Healed: one read, one log entry, one ack — one record.
    journal.set_failing(false);
    let before = journal.record_count();
    let got = receiver
        .read_message("Q.IN", Wait::NoWait)
        .unwrap()
        .unwrap();
    assert_eq!(got.kind(), MessageKind::Original);
    assert_eq!(
        got.message().redelivery_count(),
        0,
        "retries cost it nothing"
    );
    assert_eq!(journal.record_count(), before + 1);
    assert!(matches!(
        journal.replay_collect().unwrap().last(),
        Some(JournalRecord::TxCommit { puts, gets }) if puts.len() == 2 && gets.len() == 1
    ));
    assert_eq!(
        (depth("Q.IN"), depth("DS.RLOG.Q"), depth("XMIT.SEND")),
        (0, 1, 1)
    );
    assert!(receiver
        .read_message("Q.IN", Wait::NoWait)
        .unwrap()
        .is_none());

    // The same for a compensation delivered because its original was
    // consumed here: its get and the get of the receiver-log entry that
    // says so are one record, and no entry is left behind.
    let undo = bytes::Bytes::from("undo");
    qmgr.put(
        "Q.IN",
        wire::make_compensation(id, 0, &destination, Some(&undo)),
    )
    .unwrap();
    journal.set_failing(true);
    for _ in 0..retries {
        assert!(receiver.read_message("Q.IN", Wait::NoWait).is_err());
    }
    assert_eq!((depth("Q.IN"), depth("DS.RLOG.Q")), (1, 1));
    journal.set_failing(false);
    let before = journal.record_count();
    let comp = receiver
        .read_message("Q.IN", Wait::NoWait)
        .unwrap()
        .unwrap();
    assert_eq!(comp.kind(), MessageKind::Compensation);
    assert_eq!(comp.payload_str(), Some("undo"));
    assert_eq!(journal.record_count(), before + 1);
    assert!(matches!(
        journal.replay_collect().unwrap().last(),
        Some(JournalRecord::TxCommit { puts, gets }) if puts.is_empty() && gets.len() == 2
    ));
    assert_eq!((depth("Q.IN"), depth("DS.RLOG.Q")), (0, 0));
    assert_eq!(depth(mq::DEAD_LETTER_QUEUE), 0);

    // And it is what a restart sees.
    qmgr.crash();
    let qmgr2 = QueueManager::builder("QM.RECV")
        .clock(clock)
        .journal(journal)
        .build()
        .unwrap();
    let depth = |queue: &str| qmgr2.queue(queue).unwrap().depth();
    assert_eq!(
        (depth("Q.IN"), depth("DS.RLOG.Q"), depth("XMIT.SEND")),
        (0, 0, 1)
    );
}

#[test]
fn segmented_journal_full_stack_recovery() {
    // Same protocol over the real on-disk log, exercising framing, the
    // fsync-before-ack commit path and replay from disk.
    let root = segment_root("full-stack");
    let clock = SimClock::new();
    let id;
    {
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(open_durable(&root))
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let condition: Condition = Destination::queue("QM1", "Q.A")
            .pickup_within(Millis(1_000))
            .into();
        id = messenger
            .send_message_with_compensation("durable", "undo", &condition)
            .unwrap();
        // The manager's observability hub surfaces the journal's cells; a
        // single appender pays exactly one fsync per append.
        let snap = qmgr.metrics_snapshot();
        assert!(snap.counter("mq.journal.appends") >= 1);
        assert_eq!(
            snap.counter("mq.journal.fsyncs"),
            snap.counter("mq.journal.appends")
        );
        qmgr.crash();
    }
    {
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(open_durable(&root))
            .build()
            .unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        clock.advance(Millis(10));
        let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
        r.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// `from -> to` over loopback TCP, with `to`'s acceptor as the fault point;
/// `partitioned` partitions it before the channel first dials.
fn connect(
    from: &Arc<QueueManager>,
    to: &Arc<QueueManager>,
    partitioned: bool,
) -> (Channel, Arc<TcpAcceptor>) {
    let acceptor = TcpAcceptor::bind(to, "127.0.0.1:0").unwrap();
    if partitioned {
        acceptor.apply_fault(FaultAction::Partition).unwrap();
    }
    let config = TcpConfig {
        backoff_max: std::time::Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let channel = Channel::connect_tcp(from, to.name(), acceptor.local_addr(), config).unwrap();
    (channel, acceptor)
}

/// A sender `QM1` whose three envelopes its peer `QM2` holds and its mover
/// has released: no record of its own says so yet.
fn sender_with_three_released(
    journal: &Arc<MemJournal>,
) -> (Arc<QueueManager>, Arc<QueueManager>, Channel) {
    let clock: SharedClock = SimClock::new();
    let sender = build_qm(clock.clone(), journal.clone());
    sender.create_queue("LOCAL.Q").unwrap();
    let peer = QueueManager::builder("QM2").clock(clock).build().unwrap();
    peer.create_queue("Q.IN").unwrap();
    let (channel, acceptor) = connect(&sender, &peer, true);
    for _ in 0..3 {
        let msg = mq::Message::text("handed over").persistent(true).build();
        sender.put_to(&QueueAddress::new("QM2", "Q.IN"), msg).unwrap();
    }
    acceptor.apply_fault(FaultAction::Heal).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while sender.stats().released.get() != 3 {
        assert!(std::time::Instant::now() < deadline, "three handoffs released");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    (sender, peer, channel)
}

#[test]
fn a_checkpoint_holds_released_handoffs_until_a_record_carries_their_gets() {
    let xmit_depth = |qmgr: &QueueManager| qmgr.queue("SYSTEM.XMIT.QM2").unwrap().depth();
    let restarted = |journal: &Arc<MemJournal>| build_qm(SimClock::new(), journal.clone());

    // A released get is still a pending get: the checkpoint image holds the
    // message (the live queue does not count it), so a crash right after
    // the checkpoint finds it present, to be sent again.
    let journal = MemJournal::new();
    let (sender, _peer, channel) = sender_with_three_released(&journal);
    sender.checkpoint().unwrap();
    assert_eq!(xmit_depth(&sender), 0);
    sender.crash();
    drop(channel);
    assert_eq!(xmit_depth(&restarted(&journal)), 3);

    // A record written after the checkpoint carries the gets and removes
    // them from the image.
    let journal = MemJournal::new();
    let (sender, _peer, channel) = sender_with_three_released(&journal);
    sender.checkpoint().unwrap();
    let local = mq::Message::text("anything durable").persistent(true).build();
    sender.put("LOCAL.Q", local).unwrap();
    assert_eq!(sender.stats().released.get(), 0);
    let carrying = journal.replay_collect().unwrap().pop().unwrap();
    match &carrying {
        JournalRecord::TxCommit { puts, gets } => {
            assert_eq!((puts.len(), gets.len()), (1, 3));
            assert!(gets.iter().all(|(queue, _)| &**queue == "SYSTEM.XMIT.QM2"));
        }
        other => panic!("carrying record: {other:?}"),
    }
    sender.crash();
    drop(channel);
    let recovered = restarted(&journal);
    assert_eq!((xmit_depth(&recovered), recovered.queue("LOCAL.Q").unwrap().depth()), (0, 1));
    recovered.crash();

    // A get of a message that is not there replays as nothing: an append
    // the journal reported as refused after the bytes had made it leaves
    // the gets released, and a later record carries them a second time.
    let twice = match carrying {
        JournalRecord::TxCommit { gets, .. } => JournalRecord::TxCommit { puts: Vec::new(), gets },
        other => other,
    };
    journal.append(&twice).unwrap();
    let recovered = restarted(&journal);
    assert_eq!((xmit_depth(&recovered), recovered.queue("LOCAL.Q").unwrap().depth()), (0, 1));
}

#[test]
fn sender_crash_with_a_released_handoff_resends_and_the_message_is_read_once() {
    // The original crossed, its batch was acknowledged and released, and the
    // sender crashed before any record of its own carried the handoff. The
    // restart re-sends the original; the destination's manager drops the
    // copy, the receiver reads the message once, and the verdict is the one
    // the run without a crash reaches.
    let clock: SharedClock = SimClock::new();
    let journal = MemJournal::new();
    let tail = QueueManager::builder("QM2").clock(clock.clone()).build().unwrap();
    tail.create_queue("Q.IN").unwrap();
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };

    let head = build_qm(clock.clone(), journal.clone());
    let (out, _) = connect(&head, &tail, false);
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let condition: Condition = Destination::queue("QM2", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let id = messenger.send_message("once", &condition).unwrap();
    wait_for("the handoff released", &|| head.stats().released.get() == 1);
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 1);
    head.crash();
    drop(out);
    drop(messenger);

    let head = build_qm(clock, journal);
    assert_eq!(head.queue("SYSTEM.XMIT.QM2").unwrap().depth(), 1, "to be sent again");
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    let _channels = (connect(&head, &tail, false), connect(&tail, &head, false));
    wait_for("the copy dropped", &|| {
        tail.metrics_snapshot().counter("mq.relay.duplicates") == 1
    });
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    let read = receiver.read_message("Q.IN", Wait::NoWait).unwrap().unwrap();
    assert_eq!(read.payload_str(), Some("once"));
    assert!(receiver.read_message("Q.IN", Wait::NoWait).unwrap().is_none());
    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(10_000)))
        .unwrap()
        .expect("verdict");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    assert_eq!(tail.metrics_snapshot().counter("mq.relay.duplicates"), 1);
}
