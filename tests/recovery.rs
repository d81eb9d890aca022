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
use mq::{BatchAccepted, FaultAction, FaultPlane, Message, QueueAddress, QueueManager, Wait};
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
    // The compensation parked before the crash (recovered from the
    // persistent DS.COMP.Q) is fanned out to both destinations.
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
        Some(JournalRecord::TxCommit { puts, gets, .. }) => {
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
    // The deciding transaction covers the outcome actions, the purge of
    // the send/ack log entries and the notification.
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
        assert_eq!(of_this_message("DS.SLOG.Q"), 0, "send and ack entries");
        assert_eq!(of_this_message("DS.COMP.Q"), 0, "parked compensation");
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

/// Waits until `n` getters outside a transaction are parked on `queue`.
fn wait_getters(qmgr: &QueueManager, queue: &str, n: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while qmgr.queue(queue).unwrap().waiting_getters() != n {
        assert!(std::time::Instant::now() < deadline, "{n} getters not parked on {queue}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn crash_right_after_a_verdict_handed_to_its_waiting_taker_leaves_nothing_to_decide() {
    // The deciding read's record hands the notification to the sender
    // parked in `take_outcome`: no record puts it, none takes it. A crash
    // right after that record finds the message decided and consumed —
    // no notification, no pending entry — and nothing is evaluated again.
    let root = segment_root("handed");
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
        std::thread::scope(|s| {
            let taker = s.spawn(|| messenger.take_outcome(id, Wait::Timeout(Millis(600_000))));
            wait_getters(&qmgr, "DS.OUTCOME.Q", 1);
            let read = r.read_message("Q.B", Wait::NoWait);
            let outcome = taker.join().unwrap().unwrap().expect("handed");
            read.unwrap().unwrap();
            assert_eq!(outcome.outcome, MessageOutcome::Success);
        });
        qmgr.crash();
    }
    let after_crash = read_root(&root);
    for restart in 1..=2 {
        let qmgr = open();
        match qmgr.journal().replay_collect().unwrap().last() {
            Some(JournalRecord::TxCommit { puts, .. }) => {
                let queues: Vec<&str> = puts.iter().map(|(q, _)| &**q).collect();
                assert_eq!(queues, ["DS.RLOG.Q"], "the fused record, without the notification");
            }
            other => panic!("last record: {other:?}"),
        }
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        for queue in ["DS.OUTCOME.Q", "DS.SLOG.Q", "DS.COMP.Q", "DS.ACK.Q"] {
            assert_eq!(qmgr.queue(queue).unwrap().depth(), 0, "{queue}");
        }
        assert_eq!(messenger.status(id), MessageStatus::Unknown);
        assert_eq!(messenger.pending_count(), 0);
        clock.advance(Millis(2_000));
        assert!(messenger.take_outcome(id, Wait::NoWait).unwrap().is_none());
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
fn a_reader_parked_in_its_transaction_is_never_handed_an_original() {
    // A receiver transaction's read is no bare get: the original it waits
    // for is put on the queue by the send's record and taken by the read,
    // so the read's rollback and a restart still find it there.
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(60_000))
        .into();
    let mut r = ConditionalReceiver::new(qmgr.clone()).unwrap();
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            r.begin_tx().unwrap();
            let read = r.read_message("Q.A", Wait::Timeout(Millis(600_000)));
            r.rollback_tx().unwrap();
            read.unwrap().is_some()
        });
        // Give the read time to park: it registers no getter either way.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let registered = qmgr.queue("Q.A").unwrap().waiting_getters();
        messenger.send_message("x", &condition).unwrap();
        assert!(reader.join().unwrap(), "the reader got the original");
        assert_eq!(registered, 0, "a receiver transaction's read registers nothing");
    });
    assert_eq!(qmgr.metrics_snapshot().counter("mq.tx.handed"), 0);
    assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "rolled back onto the queue");
    qmgr.crash();
    let qmgr = build_qm(clock, journal);
    assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "and there after a restart");
}

#[test]
fn an_arrival_handed_to_a_waiting_getter_leaves_its_key_so_its_resend_is_a_duplicate() {
    // A message that arrives over a channel for a getter already waiting
    // is handed over, and its arrival record keeps its dedup key instead
    // of the message: replay reseeds the window with the key. The
    // receiver crashes after the arrival, before the transport ack reaches
    // the sender, and the resend is dropped: the message is delivered once.
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    let remote = QueueManager::builder("QM2").build().unwrap();
    remote.define_route("QM1", "SYSTEM.XMIT.QM1").unwrap();
    let msg = Message::text("m").persistent(true).build();
    remote.put_to(&QueueAddress::new("QM1", "Q.A"), msg).unwrap();
    let envelope = remote.get("SYSTEM.XMIT.QM1", Wait::NoWait).unwrap().unwrap();
    std::thread::scope(|s| {
        let getter = s.spawn(|| qmgr.get("Q.A", Wait::Timeout(Millis(600_000))));
        wait_getters(&qmgr, "Q.A", 1);
        let accepted = qmgr.accept_batch(vec![envelope.clone()]);
        let got = getter.join().unwrap().unwrap().expect("delivered");
        assert_eq!(accepted.unwrap(), BatchAccepted { accepted: 1, duplicates: 0 });
        assert_eq!(got.payload_str(), Some("m"));
    });
    match journal.replay_collect().unwrap().pop() {
        Some(JournalRecord::TxCommit { keys, puts, gets }) => {
            assert_eq!(keys.len(), 1, "the record carries the key");
            assert_eq!(keys[0].1, envelope.id());
            assert!(puts.is_empty() && gets.is_empty(), "not the payload: {puts:?}");
        }
        other => panic!("arrival record: {other:?}"),
    }
    assert_eq!(qmgr.metrics_snapshot().counter("mq.tx.handed"), 1);
    qmgr.crash();

    let qmgr = build_qm(clock, journal);
    let resent = qmgr.accept_batch(vec![envelope]).unwrap();
    assert_eq!(resent, BatchAccepted { accepted: 0, duplicates: 1 });
    assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 0, "delivered once");
}

/// Waits for `done` for at most 10 s of real time.
fn wait_until(what: &str, done: &dyn Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn crash_right_after_a_fused_pick_up_record_replays_the_read_and_drops_the_resend() {
    // Over TCP: the reader waits on Q.IN, and the arrival's record is its
    // read. The tail crashes right after that record, with the transport
    // ack of the batch dropped, so the head sends the original again to the
    // restarted tail. Replay leaves the read as the record says: nothing on
    // Q.IN, the receiver-log entry, the read-ack waiting on the way back,
    // and the key in the dedup window, so the resend is a duplicate. The
    // sender sees one outcome.
    let clock: SharedClock = SimClock::new();
    let head = QueueManager::builder("QM.HEAD").clock(clock.clone()).build().unwrap();
    let tail_journal = MemJournal::new();
    let build_tail = || {
        let tail = QueueManager::builder("QM.TAIL")
            .clock(clock.clone())
            .journal(tail_journal.clone())
            .build()
            .unwrap();
        tail.ensure_queue("Q.IN").unwrap();
        // The way back has no channel until the end: the read-ack waits.
        tail.define_route("QM.HEAD", "SYSTEM.XMIT.QM.HEAD").unwrap();
        tail
    };
    let tail = build_tail();
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let (out, acceptor) = connect(&head, &tail, false);
    // A first message opens the connection the original will take.
    let warm = Message::text("warm").persistent(true).build();
    head.put_to(&QueueAddress::new("QM.TAIL", "Q.IN"), warm).unwrap();
    wait_until("the connection", &|| tail.queue("Q.IN").unwrap().depth() == 1);
    tail.get("Q.IN", Wait::NoWait).unwrap().unwrap();
    // The original's batch is committed and its ack dropped, and the head
    // cannot reconnect before the crash: it sends the batch again to the
    // restarted tail.
    acceptor.inject_drop_before_ack(1);
    acceptor.set_paused(true);
    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    let id = std::thread::scope(|s| {
        let reader = s.spawn(|| receiver.read_message("Q.IN", Wait::Timeout(Millis(600_000))));
        wait_getters(&tail, "Q.IN", 1);
        let id = messenger.send_message("once", &condition).unwrap();
        let read = reader.join().unwrap().unwrap().expect("handed the original");
        assert_eq!((read.kind(), read.payload_str()), (MessageKind::Original, Some("once")));
        id
    });
    assert_eq!(tail.metrics_snapshot().counter("mq.tx.picked_up"), 1);
    tail.crash();
    drop((receiver, out, acceptor));

    let tail = build_tail();
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 0, "read, as the record says");
    assert_eq!(tail.queue("DS.RLOG.Q").unwrap().depth(), 1, "the receiver-log entry");
    assert_eq!(tail.queue("SYSTEM.XMIT.QM.HEAD").unwrap().depth(), 1, "the read-ack");
    let _out = connect(&head, &tail, false);
    wait_until("the resend dropped", &|| {
        tail.metrics_snapshot().counter("mq.relay.duplicates") == 1
    });
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 0, "delivered once");
    assert_eq!(messenger.status(id), MessageStatus::Pending);
    let _back = connect(&tail, &head, false);
    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(10_000)))
        .unwrap()
        .expect("verdict");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    assert_eq!(messenger.status(id), MessageStatus::Unknown, "one outcome, taken");
    assert_eq!(head.metrics_snapshot().counter("cond.ack.read"), 1);
    for queue in ["DS.OUTCOME.Q", "DS.COMP.Q", "DS.SLOG.Q", "DS.ACK.Q"] {
        assert_eq!(head.queue(queue).unwrap().depth(), 0, "{queue}");
    }
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    assert!(receiver.read_message("Q.IN", Wait::NoWait).unwrap().is_none());
}

#[test]
fn a_checkpoint_taken_inside_an_arrivals_commit_keeps_its_dedup_key() {
    // Over TCP, with a checkpoint after every commit: a put watcher on Q.IN
    // takes each arrival in a transaction of its own, on the arriving
    // thread, and that commit checkpoints while the batch's commit is still
    // returning. The batch's transport ack is dropped and the tail crashes
    // and restarts, so the head sends the message again. The snapshot must
    // hold the arrival's key, recorded with its record: the resend is a
    // duplicate and the message is delivered once.
    let clock: SharedClock = SimClock::new();
    let head = QueueManager::builder("QM.HEAD").clock(clock.clone()).build().unwrap();
    let tail_journal = MemJournal::new();
    let taken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let build_tail = || {
        let config = mq::ManagerConfig { checkpoint_bytes: Some(1), ..Default::default() };
        let tail = QueueManager::builder("QM.TAIL")
            .clock(clock.clone())
            .journal(tail_journal.clone())
            .config(config)
            .build()
            .unwrap();
        tail.ensure_queue("Q.IN").unwrap();
        let (weak, taken) = (Arc::downgrade(&tail), taken.clone());
        tail.queue("Q.IN").unwrap().add_put_watcher(Arc::new(move || {
            let Some(tail) = weak.upgrade() else { return };
            if let Ok(Some(_)) = tail.get("Q.IN", Wait::NoWait) {
                taken.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }));
        tail
    };
    let tail = build_tail();
    let (out, acceptor) = connect(&head, &tail, false);
    let to = QueueAddress::new("QM.TAIL", "Q.IN");
    head.put_to(&to, Message::text("warm").persistent(true).build()).unwrap();
    let taken_now = || taken.load(std::sync::atomic::Ordering::SeqCst);
    wait_until("the connection", &|| taken_now() == 1);
    acceptor.inject_drop_before_ack(1);
    acceptor.set_paused(true);
    head.put_to(&to, Message::text("once").persistent(true).build()).unwrap();
    wait_until("the arrival taken", &|| taken_now() == 2);
    let image = tail_journal.replay_collect().unwrap();
    let checkpointed = matches!(image.first(), Some(JournalRecord::CheckpointStart { .. }));
    assert!(checkpointed, "the watcher's commit checkpointed");
    tail.crash();
    drop((out, acceptor));

    let tail = build_tail();
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 0, "taken, as the journal says");
    let _out = connect(&head, &tail, false);
    wait_until("the resend dropped", &|| {
        tail.metrics_snapshot().counter("mq.relay.duplicates") == 1
    });
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 0, "delivered once");
    assert_eq!(taken_now(), 2);
}

#[test]
fn an_ack_resent_to_a_restarted_head_decides_nothing_again() {
    // Over TCP: the tail's read-ack reaches the head in a transport batch,
    // and the messenger, DS.ACK.Q's standing claimant, consumes it: the
    // arrival's record is the verdict and holds no key of the ack. The
    // batch's transport ack is dropped and the head crashes and restarts,
    // so the tail sends the ack again, and the restarted head's dedup
    // window, which has no key for it, accepts it. The messenger meets an
    // ack for a decided message and applies nothing: one outcome, one
    // verdict, and once the outcome is taken the protocol's queues are
    // empty.
    let clock: SharedClock = SimClock::new();
    let head_journal = MemJournal::new();
    let build_head = || {
        QueueManager::builder("QM.HEAD")
            .clock(clock.clone())
            .journal(head_journal.clone())
            .build()
            .unwrap()
    };
    let head = build_head();
    let tail = QueueManager::builder("QM.TAIL").clock(clock.clone()).build().unwrap();
    tail.ensure_queue("Q.IN").unwrap();
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let _out = connect(&head, &tail, false);
    let (back, head_acceptor) = connect(&tail, &head, false);
    // The way back is up before the head refuses new connections: the ack
    // takes it, and once it is dropped the tail cannot reconnect before
    // the crash.
    wait_until("the way back", &|| {
        tail.metrics_snapshot().counter("mq.transport.connects") == 1
    });
    head_acceptor.inject_drop_before_ack(1);
    head_acceptor.set_paused(true);
    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let id = messenger.send_message("once", &condition).unwrap();
    wait_until("the original", &|| tail.queue("Q.IN").unwrap().depth() == 1);
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    receiver.read_message("Q.IN", Wait::NoWait).unwrap().expect("the original");
    wait_until("the verdict", &|| matches!(messenger.status(id), MessageStatus::Decided(_)));
    assert_eq!(head.metrics_snapshot().counter("cond.verdict.success"), 1);
    head.crash();
    drop((messenger, back, head_acceptor));
    assert_eq!(tail.queue("SYSTEM.XMIT.QM.HEAD").unwrap().depth(), 1, "the ack, unacknowledged");

    let head = build_head();
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    assert_eq!(head.queue("DS.OUTCOME.Q").unwrap().depth(), 1, "the verdict's notification");
    let _back = connect(&tail, &head, false);
    wait_until("the resend", &|| {
        head.metrics_snapshot().counter("mq.transport.messages_received") == 1
            && tail.queue("SYSTEM.XMIT.QM.HEAD").unwrap().depth() == 0
    });
    let snap = head.metrics_snapshot();
    assert_eq!(snap.counter("mq.relay.duplicates"), 0, "the ack's key is live-only");
    let verdicts = ["success", "failure", "fused", "timeout"]
        .map(|v| snap.counter(&format!("cond.verdict.{v}")));
    assert_eq!(verdicts, [0; 4], "nothing decided again");
    assert_eq!(head.queue("DS.OUTCOME.Q").unwrap().depth(), 1, "one outcome");
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().expect("verdict");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    assert_eq!(messenger.status(id), MessageStatus::Unknown, "one outcome, taken");
    for queue in ["DS.OUTCOME.Q", "DS.COMP.Q", "DS.SLOG.Q", "DS.ACK.Q"] {
        assert_eq!(head.queue(queue).unwrap().depth(), 0, "{queue}");
    }
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
    // perform) the deferred release — the parked compensation and the
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
    // Decided, and its notification taken: nothing left to report.
    assert_eq!(messenger2.status(id), MessageStatus::Unknown);
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

#[test]
fn a_taken_deferred_outcome_survives_a_crash() {
    // A D-Sphere member fails, its actions deferred, and the application
    // takes its notification: from then on only the verdict entry beside
    // its send record on the sender log says it is decided. After the
    // restart it is not evaluated again — not pending, no second verdict
    // record, even past every deadline — and the release sends each leaf
    // its compensation exactly once.
    use condmsg::SendOptions;
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let options = SendOptions {
        defer_outcome_actions: true,
        ..SendOptions::default()
    };
    let condition = two_dest_condition(Millis(50));
    let id = messenger
        .send_with("member", Some("undo".into()), &condition, options)
        .unwrap();
    clock.advance(Millis(100));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert_eq!(messenger.status(id), MessageStatus::Unknown, "taken");
    let slog = qmgr.queue("DS.SLOG.Q").unwrap();
    assert_eq!(slog.depth(), 2, "the send record and the verdict entry");
    qmgr.crash();

    let records = journal.record_count();
    let qmgr2 = build_qm(clock.clone(), journal.clone());
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    clock.advance(Millis(60_000));
    messenger2.pump().unwrap();
    assert_eq!(messenger2.pending_count(), 0);
    assert_eq!(messenger2.status(id), MessageStatus::Unknown);
    assert_eq!(journal.record_count(), records, "no second verdict record");
    assert_eq!(qmgr2.metrics_snapshot().counter("cond.verdict.failure"), 0);

    messenger2
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .unwrap();
    assert!(messenger2
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .is_err());
    for (leaf, queue) in (0..).zip(["Q.A", "Q.B"]) {
        let undo = vec![(leaf, "undo".to_owned(), Some(false))];
        assert_eq!(compensations(&qmgr2, queue), undo, "{queue}");
    }
    assert_eq!(qmgr2.metrics_snapshot().counter("cond.comp.released"), 2);
    for queue in ["DS.SLOG.Q", "DS.COMP.Q", "DS.OUTCOME.Q"] {
        assert_eq!(qmgr2.queue(queue).unwrap().depth(), 0, "{queue}");
    }
}

/// The compensations on `queue`, as (leaf, payload, system flag).
fn compensations(qmgr: &QueueManager, queue: &str) -> Vec<(u32, String, Option<bool>)> {
    let msgs = qmgr.queue(queue).unwrap().browse().into_iter();
    msgs.filter(|m| wire::kind_of(m) == MessageKind::Compensation)
        .map(|m| {
            let payload = m.payload_str().unwrap_or_default().to_owned();
            let system = m.bool_property(wire::P_COMP_SYSTEM);
            (wire::leaf_of(&m).unwrap(), payload, system)
        })
        .collect()
}

#[test]
fn a_four_leaf_message_pending_at_a_crash_fans_out_four_compensations_after_it() {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    let leaves = ["Q.L0", "Q.L1", "Q.L2", "Q.L3"];
    for queue in leaves {
        qmgr.create_queue(queue).unwrap();
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition =
        DestinationSet::of(leaves.map(|q| Destination::queue("QM1", q).into()).to_vec())
            .pickup_within(Millis(100))
            .into();
    let id = messenger
        .send_message_with_compensation("orig", "undo", &condition)
        .unwrap();
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1, "one parked");
    qmgr.crash();

    let qmgr2 = build_qm(clock.clone(), journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    assert_eq!(messenger2.status(id), MessageStatus::Pending);
    clock.advance(Millis(200));
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert_eq!(qmgr2.queue("DS.COMP.Q").unwrap().depth(), 0);
    for (leaf, queue) in (0..).zip(leaves) {
        let undo = vec![(leaf, "undo".to_owned(), Some(false))];
        assert_eq!(compensations(&qmgr2, queue), undo, "{queue}");
    }
    let counter = qmgr2.metrics_snapshot().counter("cond.comp.released");
    assert_eq!(counter, 4);
}

#[test]
fn a_deferred_member_released_after_a_restart_fans_out_from_the_send_record() {
    // A two-leaf D-Sphere member decided (actions deferred) before the
    // crash: after it, the leaves come from the recovered send record and
    // the payload from the one parked compensation.
    use condmsg::SendOptions;
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let options = SendOptions {
        defer_outcome_actions: true,
        ..SendOptions::default()
    };
    let condition = two_dest_condition(Millis(50));
    let id = messenger
        .send_with("member", None, &condition, options)
        .unwrap();
    clock.advance(Millis(100));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
    qmgr.crash();

    let qmgr2 = build_qm(clock, journal);
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    messenger2
        .release_outcome_actions(&[id], MessageOutcome::Failure)
        .unwrap();
    assert_eq!(qmgr2.queue("DS.COMP.Q").unwrap().depth(), 0);
    assert_eq!(qmgr2.queue("DS.SLOG.Q").unwrap().depth(), 0);
    // System-generated: no payload, the flag set.
    assert_eq!(
        compensations(&qmgr2, "Q.A"),
        [(0, String::new(), Some(true))]
    );
    assert_eq!(
        compensations(&qmgr2, "Q.B"),
        [(1, String::new(), Some(true))]
    );
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
    // it, `status()` peeks at the one notification the verdict wrote,
    // still untaken.
    let r = restart_after_verdicts(1, 0);
    let (id, before) = &r.before[0];
    let MessageStatus::Decided(n) = before else {
        panic!("not decided: {before:?}")
    };
    assert!(n.reason.as_deref().unwrap().contains("pick-up"), "{n:?}");
    assert_eq!(r.messenger.status(*id), *before);
}

#[test]
fn force_fail_after_a_restart_keeps_the_recorded_verdict() {
    let r = restart_after_verdicts(1, 0);
    let (id, before) = &r.before[0];
    assert!(matches!(before, MessageStatus::Decided(_)), "{before:?}");
    r.messenger.force_fail(&[*id], "D-Sphere timeout").unwrap();
    assert_eq!(r.messenger.status(*id), *before, "the reason is the deadline's");
    let outcomes = r.qmgr.queue("DS.OUTCOME.Q").unwrap();
    assert_eq!(outcomes.depth(), 1, "no second verdict");
}

#[test]
fn recovery_reads_only_the_sender_log() {
    // Recovery is O(live messages): one browse of the sender log, which
    // holds only what is still in flight or owed to a sphere, and no read
    // of any other queue — the 40 decided messages' notifications wait on
    // DS.OUTCOME.Q untouched.
    let r = restart_after_verdicts(40, 3);
    for name in r.qmgr.queue_names() {
        let queue = r.qmgr.queue(&name).unwrap();
        let browses = u64::from(name == "DS.SLOG.Q");
        assert_eq!(queue.stats().browses.get(), browses, "{name}");
        assert_eq!(queue.stats().dequeued.get(), 0, "{name}");
    }
    assert_eq!(r.qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 40);
    assert_eq!(r.messenger.pending_count(), 3);
    for (id, before) in &r.before {
        assert_eq!(r.messenger.status(*id), *before);
    }
}

#[test]
fn an_undecodable_history_entry_fails_recovery() {
    // An earlier build kept every verdict a second time, on DS.DONE.Q, and
    // read a deferred member's entry there as "decided". This build marks
    // that on the sender log, so over such a journal it would evaluate
    // those members a second time: it refuses the older history instead.
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = build_qm(clock.clone(), journal.clone());
    qmgr.create_queue("Q.A").unwrap();
    qmgr.create_queue("Q.B").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = messenger
        .send_message("x", &two_dest_condition(Millis(60_000)))
        .unwrap();
    let entry = wire::OutcomeNotification {
        cond_id: id,
        outcome: MessageOutcome::Failure,
        reason: None,
        decided_at: Time(0),
    };
    qmgr.create_queue("DS.DONE.Q").unwrap();
    qmgr.put("DS.DONE.Q", entry.to_message()).unwrap();
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
        Some(JournalRecord::TxCommit { puts, gets, .. }) if puts.len() == 2 && gets.len() == 1
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
    qmgr.put("Q.IN", wire::make_compensation(id, 0, Some(&undo)))
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
        Some(JournalRecord::TxCommit { puts, gets, .. }) if puts.is_empty() && gets.len() == 2
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
        JournalRecord::TxCommit { puts, gets, .. } => {
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
        JournalRecord::TxCommit { gets, .. } => {
            JournalRecord::TxCommit { keys: Vec::new(), puts: Vec::new(), gets }
        }
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
