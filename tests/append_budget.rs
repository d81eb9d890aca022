//! The append budget of one conditional round trip.
//!
//! In the durable configuration a verdict costs what its synchronous
//! journal appends cost, so the *sequence of records* one round trip writes
//! is part of the contract: every protocol step — conditional send, arrival
//! of a transport batch, pick-up with its implicit acknowledgment, outcome
//! pick-up — is exactly one record, and two things are never a step of
//! their own. An acknowledgment: the claimant of `DS.ACK.Q` applies it
//! inside the record that delivers it (the arrival of its transport batch,
//! or the local pick-up), with the verdict it decides. And a channel
//! handoff: the mover releases an acknowledged batch, and its gets ride the
//! next record its manager writes (a record of their own only at
//! `MAX_RELEASED`, after `RELEASE_LINGER` idle, or on shutdown). The
//! outcome pick-up is no record when the sender already waits for it: the
//! verdict's record hands the notification over instead of putting it. A
//! change that splits a step over two commits (or adds a record anywhere on
//! the path) fails here, not only in `condbench`.
//!
//! The tables in DESIGN.md §8 and the receiver section are these
//! sequences.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use condmsg::{
    CondMessageId, Condition, ConditionalMessenger, ConditionalReceiver, Destination,
    DestinationSet, MessageOutcome, MessageStatus,
};
use mq::channel::{Channel, MAX_RELEASED, RELEASE_LINGER};
use mq::codec::{WireDecode, WireEncode};
use mq::journal::{
    Journal, JournalRecord, MemJournal, ReplaySink, SegmentConfig, SegmentedJournal,
};
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{
    FaultAction, FaultPlane, Message, MqResult, QueueAddress, QueueManager, TraceStage, Wait,
    DEAD_LETTER_QUEUE, DLQ_REASON_PROPERTY,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use simtime::{Millis, SimClock};

/// A journal record writes each id relative to the id before it, and the
/// process draws every id from one counter, so the record sizes a test
/// pins depend on how many ids other threads drew meanwhile. A test that
/// pins sizes runs `alone`; every other test `shared`ly.
static ID_DRAWS: RwLock<()> = RwLock::new(());

fn alone() -> RwLockWriteGuard<'static, ()> {
    ID_DRAWS.write()
}

fn shared() -> RwLockReadGuard<'static, ()> {
    ID_DRAWS.read()
}

/// A `Journal` that notes what each `append` wrote (kind + queues, its
/// encoded bytes, and the bytes the journal grew by) and otherwise is the
/// journal it wraps: a `MemJournal`, or a `SegmentedJournal` in a
/// directory of its own, removed with it.
#[derive(Debug)]
struct RecordingJournal {
    inner: Arc<dyn Journal>,
    root: Option<PathBuf>,
    appended: Mutex<Vec<(String, Bytes, u64)>>,
}

impl RecordingJournal {
    fn new() -> Arc<RecordingJournal> {
        Arc::new(RecordingJournal {
            inner: MemJournal::new(),
            root: None,
            appended: Mutex::new(Vec::new()),
        })
    }

    fn on_disk() -> Arc<RecordingJournal> {
        let root = std::env::temp_dir().join(format!(
            "append-budget-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        Arc::new(RecordingJournal {
            inner: SegmentedJournal::open(&root, SegmentConfig::default()).unwrap(),
            root: Some(root),
            appended: Mutex::new(Vec::new()),
        })
    }

    /// Forgets the set-up records (queue creation).
    fn start(&self) {
        self.appended.lock().clear();
    }

    fn appended(&self) -> Vec<String> {
        self.appended
            .lock()
            .iter()
            .map(|(record, _, _)| record.clone())
            .collect()
    }

    /// The encoded size of each record on its own, as a `MemJournal`
    /// holds it.
    fn bytes(&self) -> Vec<usize> {
        self.appended
            .lock()
            .iter()
            .map(|(_, bytes, _)| bytes.len())
            .collect()
    }

    /// What each append added to the journal: on a `SegmentedJournal`,
    /// the record's frame.
    fn frames(&self) -> Vec<u64> {
        self.appended
            .lock()
            .iter()
            .map(|(_, _, grown)| *grown)
            .collect()
    }

    /// The encoded bytes of the `i`th record since `start`.
    fn record(&self, i: usize) -> Bytes {
        self.appended.lock()[i].1.clone()
    }

    fn wait_for(&self, appends: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.appended.lock().len() < appends {
            assert!(
                Instant::now() < deadline,
                "still waiting for append {appends}: {:#?}",
                self.appended()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for RecordingJournal {
    fn drop(&mut self) {
        if let Some(root) = &self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

impl Journal for RecordingJournal {
    fn append(&self, record: &JournalRecord) -> MqResult<()> {
        // Held across the append, so what the journal grew by is this
        // record's alone.
        let mut appended = self.appended.lock();
        let before = self.inner.len_bytes();
        self.inner.append(record)?;
        let grown = self.inner.len_bytes() - before;
        appended.push((describe(record), record.to_bytes(), grown));
        Ok(())
    }

    fn replay(&self, sink: &mut ReplaySink<'_>) -> MqResult<()> {
        self.inner.replay(sink)
    }

    fn reset(&self) -> MqResult<()> {
        self.inner.reset()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

/// `a, a, b` → `a x2, b`.
fn queues<'a>(names: impl Iterator<Item = &'a str>) -> String {
    let mut runs: Vec<(&str, usize)> = Vec::new();
    for name in names {
        match runs.last_mut() {
            Some((last, n)) if *last == name => *n += 1,
            _ => runs.push((name, 1)),
        }
    }
    let runs: Vec<String> = runs
        .into_iter()
        .map(|(name, n)| match n {
            1 => name.to_owned(),
            n => format!("{name} x{n}"),
        })
        .collect();
    runs.join(", ")
}

fn describe(record: &JournalRecord) -> String {
    match record {
        JournalRecord::Put { queue, .. } => format!("Put {queue}"),
        JournalRecord::TxCommit { keys, puts, gets } => format!(
            "TxCommit {}get[{}] put[{}]",
            match keys.len() {
                0 => String::new(),
                n => format!("key x{n} "),
            },
            queues(gets.iter().map(|(q, _)| &**q)),
            queues(puts.iter().map(|(q, _)| &**q)),
        ),
        other => format!("{other:?}"),
    }
}

/// A manager whose journal notes its appends. The shared clock is a
/// simulated one nobody advances, so no released handoff ever lingers long
/// enough to be flushed: what rides which record is exact.
fn recorded(name: &str, clock: &Arc<SimClock>) -> (Arc<QueueManager>, Arc<RecordingJournal>) {
    recorded_on(name, clock, RecordingJournal::new())
}

/// [`recorded`] over `journal`.
fn recorded_on(
    name: &str,
    clock: &Arc<SimClock>,
    journal: Arc<RecordingJournal>,
) -> (Arc<QueueManager>, Arc<RecordingJournal>) {
    let qmgr = QueueManager::builder(name)
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    (qmgr, journal)
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
        backoff_max: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let channel = Channel::connect_tcp(from, to.name(), acceptor.local_addr(), config).unwrap();
    (channel, acceptor)
}

/// Waits until `qmgr`'s movers have released `handoffs` envelopes that no
/// record has carried yet.
fn wait_released(qmgr: &QueueManager, handoffs: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while qmgr.stats().released.get() != handoffs {
        let released = qmgr.stats().released.get();
        assert!(Instant::now() < deadline, "{released} released, not {handoffs}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until the verdict on `id` is on `DS.OUTCOME.Q`, so that a take
/// after it finds the notification there instead of being handed it.
fn wait_decided(messenger: &ConditionalMessenger, id: CondMessageId) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !matches!(messenger.status(id), MessageStatus::Decided(_)) {
        assert!(Instant::now() < deadline, "{id:?} still not decided");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until `n` getters are parked on `queue` of `qmgr`.
fn wait_getters(qmgr: &QueueManager, queue: &str, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while qmgr.queue(queue).unwrap().waiting_getters() != n {
        assert!(Instant::now() < deadline, "{n} getters not parked on {queue}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The reasons of the release flushes `qmgr` traced, in order, once there
/// are `n` of them (a flush is counted after its record is written).
fn flushes(qmgr: &QueueManager, n: u64) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while qmgr.stats().release_flushes.get() < n {
        assert!(Instant::now() < deadline, "still waiting for flush {n}");
        std::thread::sleep(Duration::from_millis(1));
    }
    let events = qmgr.trace().events().into_iter();
    events
        .filter(|e| e.stage == TraceStage::ReleaseFlushed)
        .map(|e| e.detail.to_string())
        .collect()
}

#[test]
fn two_manager_round_trip_is_five_records() {
    let _ids = alone();
    let clock = SimClock::new();
    let (head, head_journal) = recorded_on("QM.HEAD", &clock, RecordingJournal::on_disk());
    let (tail, tail_journal) = recorded_on("QM.TAIL", &clock, RecordingJournal::on_disk());
    tail.create_queue("Q.IN").unwrap();
    let _channels = (connect(&head, &tail, false), connect(&tail, &head, false));
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    head_journal.start();
    tail_journal.start();

    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let mut round_trip = || {
        let arrival = tail_journal.appended().len() + 1;
        let id = messenger.send_message("payload", &condition).unwrap();
        // Let the mover release the batch before the pick-up, so the
        // acknowledgment cannot overtake the handoff on the head, and read
        // only once the arrival is on Q.IN: a reader parked before it is
        // handed the original by the arrival's record (see the test with
        // a waiting reader below).
        wait_released(&head, 1);
        tail_journal.wait_for(arrival);
        let read = receiver.read_message("Q.IN", Wait::Timeout(Millis(10_000)));
        assert!(read.unwrap().is_some());
        // Taken once it is on the queue: a taker already waiting when the
        // verdict is written is handed it instead (see the test below).
        wait_decided(&messenger, id);
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(10_000)))
            .unwrap()
            .expect("verdict");
        assert_eq!(outcome.outcome, MessageOutcome::Success);
        // The tail's mover has let go of the acknowledgment it carried.
        wait_released(&tail, 1);
    };
    round_trip();

    // Conditional send: sender-log record, parked compensation, the
    // original onto the transmission queue.
    let send = "TxCommit get[] put[DS.SLOG.Q, DS.COMP.Q, SYSTEM.XMIT.QM.TAIL]";
    // The acknowledgment arrives (a transport batch of one) and is never
    // queued: the arrival record is the verdict it decides — the
    // notification out, parked compensation and sender-log record gone, no
    // AckSeen. It is the first
    // record the head writes after its mover released the original, so the
    // handoff's get rides it.
    let verdict = "TxCommit get[SYSTEM.XMIT.QM.TAIL, DS.COMP.Q, DS.SLOG.Q] \
                   put[DS.OUTCOME.Q]";
    // The application picks the outcome up.
    let outcome = "TxCommit get[DS.OUTCOME.Q] put[]";
    // Arrival: one record per acknowledged transport batch.
    let arrival = "TxCommit get[] put[Q.IN]";
    // Pick-up, receiver-log entry and read-ack: one step.
    let pickup = "TxCommit get[Q.IN] put[DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]";
    assert_eq!(head_journal.appended(), [send, verdict, outcome], "head");
    assert_eq!(tail_journal.appended(), [arrival, pickup], "tail");
    assert_eq!(head.stats().released.get(), 0);
    // What the five records weigh, byte for byte: a record's first id is
    // whole (17 bytes), every later one a delta from the id before it (one
    // byte here: the ids of a round trip are drawn close together), and the
    // clock nobody advances stamps every time as 0. The verdict puts its
    // notification once; the pick-up's two empty payloads (receiver-log
    // entry and acknowledgment) are written once.
    assert_eq!(head_journal.bytes(), [160, 60, 21], "head bytes");
    assert_eq!(tail_journal.bytes(), [74, 100], "tail bytes");
    // What their frames weigh in a segment file: 8 bytes of length and
    // CRC, a one-byte LSN, and the record with its first id a delta from
    // the last id of the frame before it and every queue name that no
    // registry code covers, once the file has spelled it out, a one-byte
    // per-file code. The first id-bearing frame of a file has nothing
    // before it and writes its first id whole: here the send on the head
    // and the arrival on the tail. The verdict names SYSTEM.XMIT.QM.TAIL
    // by the code the send gave it, the pick-up Q.IN by the arrival's.
    // 387 B in all, against the 415 B the records take on their own.
    assert_eq!(head_journal.frames(), [169, 33, 14], "head frames");
    assert_eq!(tail_journal.frames(), [83, 88], "tail frames");

    // The handoff of the acknowledgment waits on the tail for the next
    // record, which is the next arrival.
    round_trip();
    assert_eq!(
        head_journal.appended(),
        [send, verdict, outcome, send, verdict, outcome],
        "head"
    );
    assert_eq!(
        tail_journal.appended(),
        [
            arrival,
            pickup,
            "TxCommit get[SYSTEM.XMIT.QM.HEAD] put[Q.IN]",
            pickup
        ],
        "tail"
    );
    // The second trip finds every id close to the frame before it and
    // every name already coded: the send saves the 16 bytes of a whole id
    // and the 20 of a spelled-out name, the arrival 16 + 5 less the 2 of
    // the handoff's get it carries, the pick-up the 20 of
    // SYSTEM.XMIT.QM.HEAD. 312 B for a round trip.
    assert_eq!(head_journal.frames()[3..], [133, 33, 14], "head frames, second trip");
    assert_eq!(tail_journal.frames()[2..], [64, 68], "tail frames, second trip");
    // A clean stop leaves nothing to re-send.
    tail.shutdown();
    assert_eq!(
        tail_journal.appended().last().map(String::as_str),
        Some("TxCommit get[SYSTEM.XMIT.QM.HEAD] put[]")
    );
    assert_eq!(tail.stats().released.get(), 0);
    assert_eq!(flushes(&tail, 1), ["shutdown released=1"]);
    let metrics = head.metrics_snapshot();
    assert_eq!(metrics.counter("cond.verdict.fused"), 2);
    assert_eq!(metrics.counter("cond.ack.read"), 2);
    assert_eq!(metrics.counter("cond.ack.queued"), 0, "the trigger is the live path");
    assert_eq!(metrics.counter("mq.channel.release_flushes"), 0, "head");
}

/// The paper's sender waits for its outcome (§2.3): with the taker parked
/// in `take_outcome` before the verdict, the verdict's record hands the
/// notification over instead of putting it, and the take writes nothing.
#[test]
fn two_manager_round_trip_with_a_waiting_taker_is_four_records() {
    let _ids = alone();
    let clock = SimClock::new();
    let (head, head_journal) = recorded_on("QM.HEAD", &clock, RecordingJournal::on_disk());
    let (tail, tail_journal) = recorded_on("QM.TAIL", &clock, RecordingJournal::on_disk());
    tail.create_queue("Q.IN").unwrap();
    let _channels = (connect(&head, &tail, false), connect(&tail, &head, false));
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    head_journal.start();
    tail_journal.start();

    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let mut round_trip = || {
        let arrival = tail_journal.appended().len() + 1;
        let id = messenger.send_message("payload", &condition).unwrap();
        wait_released(&head, 1);
        tail_journal.wait_for(arrival);
        std::thread::scope(|s| {
            let taker = s.spawn(|| messenger.take_outcome(id, Wait::Timeout(Millis(10_000))));
            wait_getters(&head, "DS.OUTCOME.Q", 1);
            let read = receiver.read_message("Q.IN", Wait::Timeout(Millis(10_000)));
            assert!(read.unwrap().is_some());
            let outcome = taker.join().unwrap().unwrap().expect("verdict");
            assert_eq!(outcome.outcome, MessageOutcome::Success);
        });
        assert_eq!(messenger.status(id), MessageStatus::Unknown);
        wait_released(&tail, 1);
    };
    round_trip();

    let send = "TxCommit get[] put[DS.SLOG.Q, DS.COMP.Q, SYSTEM.XMIT.QM.TAIL]";
    // The verdict, its notification handed to the waiting taker: the
    // record lacks the put, and no record takes it.
    let verdict = "TxCommit get[SYSTEM.XMIT.QM.TAIL, DS.COMP.Q, DS.SLOG.Q] put[]";
    let arrival = "TxCommit get[] put[Q.IN]";
    let pickup = "TxCommit get[Q.IN] put[DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]";
    assert_eq!(head_journal.appended(), [send, verdict], "head");
    assert_eq!(tail_journal.appended(), [arrival, pickup], "tail");
    // The verdict saves the notification's put, 15 B, and the outcome
    // record goes, 21 B: 379 B for the round trip, against 415 B. In a
    // segment file the verdict's frame is 15 B less and the outcome's
    // 14 B frame goes: 358 B, against 387 B.
    assert_eq!(head_journal.bytes(), [160, 45], "head bytes");
    assert_eq!(tail_journal.bytes(), [74, 100], "tail bytes");
    assert_eq!(head_journal.frames(), [169, 18], "head frames");
    assert_eq!(tail_journal.frames(), [83, 88], "tail frames");

    round_trip();
    assert_eq!(head_journal.appended(), [send, verdict, send, verdict], "head");
    let carried = "TxCommit get[SYSTEM.XMIT.QM.HEAD] put[Q.IN]";
    assert_eq!(tail_journal.appended(), [arrival, pickup, carried, pickup], "tail");
    assert_eq!(head_journal.frames()[2..], [133, 18], "head frames, second trip");
    assert_eq!(tail_journal.frames()[2..], [64, 68], "tail frames, second trip");
    let metrics = head.metrics_snapshot();
    assert_eq!(metrics.counter("mq.tx.handed"), 2);
    assert_eq!(metrics.counter("mq.queue.DS.OUTCOME.Q.enqueued"), 2);
    assert_eq!(metrics.counter("mq.queue.DS.OUTCOME.Q.dequeued"), 2);
    assert_eq!(head.queue("DS.OUTCOME.Q").unwrap().waiting_getters(), 0);
    assert_eq!(metrics.counter("cond.verdict.fused"), 2);
    assert_eq!(metrics.counter("cond.ack.queued"), 0);
}

/// The paper's receiver waits for its message too (§2.4): with the reader
/// parked in `read_message` before the original arrives, the arrival's
/// record is the read. It holds the original's dedup key instead of the
/// original, the receiver-log entry and the read-ack, and hands the
/// original over once written: one tail record per round trip, three in
/// all with the taker parked as well.
#[test]
fn two_manager_round_trip_with_a_waiting_reader_and_taker_is_three_records() {
    let _ids = alone();
    let clock = SimClock::new();
    let (head, head_journal) = recorded_on("QM.HEAD", &clock, RecordingJournal::on_disk());
    let (tail, tail_journal) = recorded_on("QM.TAIL", &clock, RecordingJournal::on_disk());
    tail.create_queue("Q.IN").unwrap();
    // The way back starts partitioned and is healed only once the head has
    // released the original's handoff, so the acknowledgment's record on
    // the head carries that handoff's get on every trip.
    let (_out, (_back, back)) = (connect(&head, &tail, false), connect(&tail, &head, true));
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    head_journal.start();
    tail_journal.start();

    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let mut round_trip = || {
        back.apply_fault(FaultAction::Partition).unwrap();
        std::thread::scope(|s| {
            let reader = s.spawn(|| receiver.read_message("Q.IN", Wait::Timeout(Millis(10_000))));
            wait_getters(&tail, "Q.IN", 1);
            let id = messenger.send_message("payload", &condition).unwrap();
            let messenger = &messenger;
            let taker = s.spawn(move || messenger.take_outcome(id, Wait::Timeout(Millis(10_000))));
            wait_getters(&head, "DS.OUTCOME.Q", 1);
            let read = reader.join().unwrap().unwrap().expect("handed the original");
            assert_eq!(read.payload_str(), Some("payload"));
            wait_released(&head, 1);
            back.apply_fault(FaultAction::Heal).unwrap();
            let outcome = taker.join().unwrap().unwrap().expect("verdict");
            assert_eq!(outcome.outcome, MessageOutcome::Success);
        });
        wait_released(&tail, 1);
    };
    round_trip();

    let send = "TxCommit get[] put[DS.SLOG.Q, DS.COMP.Q, SYSTEM.XMIT.QM.TAIL]";
    let verdict = "TxCommit get[SYSTEM.XMIT.QM.TAIL, DS.COMP.Q, DS.SLOG.Q] put[]";
    // Arrival and pick-up in one: the original's key, no put on Q.IN.
    let fused = "TxCommit key x1 get[] put[DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]";
    assert_eq!(head_journal.appended(), [send, verdict], "head");
    assert_eq!(tail_journal.appended(), [fused], "tail");
    // The tail writes 103 B instead of the 74 + 100 of an arrival and a
    // pick-up: the original's image and its get are gone, and the key
    // costs its tag, a count, 8 B of origin hash and the id, whole as the
    // record's first. 308 B for the round trip, against 379 B. In a
    // segment file the fused frame is 112 B against 83 + 88: 299 B for the
    // round trip, against 358 B.
    assert_eq!(head_journal.bytes(), [160, 45], "head bytes");
    assert_eq!(tail_journal.bytes(), [103], "tail bytes");
    assert_eq!(head_journal.frames(), [169, 18], "head frames");
    assert_eq!(tail_journal.frames(), [112], "tail frames");

    // The acknowledgment's handoff rides the next trip's fused record.
    round_trip();
    assert_eq!(head_journal.appended(), [send, verdict, send, verdict], "head");
    let carried = "TxCommit key x1 get[SYSTEM.XMIT.QM.HEAD] put[DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]";
    assert_eq!(tail_journal.appended(), [fused, carried], "tail");
    assert_eq!(head_journal.frames()[2..], [133, 18], "head frames, second trip");
    // The key's id is a delta from the frame before it, and
    // SYSTEM.XMIT.QM.HEAD a per-file code: 78 B against 64 + 68, 229 B for
    // the round trip against 283 B.
    assert_eq!(tail_journal.frames()[1..], [78], "tail frames, second trip");
    let metrics = tail.metrics_snapshot();
    assert_eq!(metrics.counter("mq.tx.handed"), 2);
    assert_eq!(metrics.counter("mq.tx.picked_up"), 2);
    assert_eq!(metrics.counter("mq.queue.Q.IN.enqueued"), 2);
    assert_eq!(metrics.counter("mq.queue.Q.IN.dequeued"), 2);
    assert_eq!(metrics.counter("cond.recv.read_acks"), 2);
    assert_eq!(tail.queue("Q.IN").unwrap().waiting_getters(), 0);
    assert_eq!(head.metrics_snapshot().counter("cond.verdict.fused"), 2);
}

#[test]
fn a_transport_batch_of_three_acks_is_one_record_carrying_three_verdicts() {
    let _ids = shared();
    let clock = SimClock::new();
    let (head, head_journal) = recorded("QM.HEAD", &clock);
    let (tail, tail_journal) = recorded("QM.TAIL", &clock);
    tail.create_queue("Q.IN").unwrap();
    let (_out, out) = connect(&head, &tail, false);
    let (_back, back) = connect(&tail, &head, false);
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    head_journal.start();
    tail_journal.start();

    // Three sends pile up behind a partition; healing it hands all three
    // over in one transport batch.
    out.apply_fault(FaultAction::Partition).unwrap();
    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    let ids: Vec<_> = (0..3)
        .map(|i| messenger.send_message(format!("m{i}"), &condition).unwrap())
        .collect();
    out.apply_fault(FaultAction::Heal).unwrap();
    wait_released(&head, 3);
    // Likewise the three read-acks on the way back.
    back.apply_fault(FaultAction::Partition).unwrap();
    for _ in 0..3 {
        let read = receiver.read_message("Q.IN", Wait::Timeout(Millis(10_000)));
        assert!(read.unwrap().is_some());
    }
    back.apply_fault(FaultAction::Heal).unwrap();
    for id in &ids {
        wait_decided(&messenger, *id);
    }
    for id in ids {
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(10_000)))
            .unwrap()
            .expect("verdict");
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
    // The tail's mover has let go of the acknowledgments it carried.
    wait_released(&tail, 3);
    tail.shutdown();

    let send = "TxCommit get[] put[DS.SLOG.Q, DS.COMP.Q, SYSTEM.XMIT.QM.TAIL]";
    let pickup = "TxCommit get[Q.IN] put[DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]";
    let outcome = "TxCommit get[DS.OUTCOME.Q] put[]";
    assert_eq!(
        head_journal.appended(),
        [
            send,
            send,
            send,
            // The three acknowledgments arrive as one record, which
            // carries all three verdicts and the handoff of the batch
            // that took the originals over.
            "TxCommit get[SYSTEM.XMIT.QM.TAIL x3, \
             DS.COMP.Q, DS.SLOG.Q, DS.COMP.Q, DS.SLOG.Q, DS.COMP.Q, DS.SLOG.Q] \
             put[DS.OUTCOME.Q x3]",
            outcome,
            outcome,
            outcome,
        ],
        "head"
    );
    assert_eq!(
        tail_journal.appended(),
        [
            "TxCommit get[] put[Q.IN x3]",
            pickup,
            pickup,
            pickup,
            // Nothing else came along on the tail: stopping it writes the
            // handoff of the acknowledgments out.
            "TxCommit get[SYSTEM.XMIT.QM.HEAD x3] put[]",
        ],
        "tail"
    );
    let metrics = head.metrics_snapshot();
    let applied = &metrics.histograms["cond.ack.batch_size"];
    assert_eq!((applied.count, applied.max), (1, 3));
    assert_eq!(metrics.counter("cond.verdict.fused"), 3);
}

#[test]
fn a_transport_batch_of_two_originals_for_a_waiting_reader_is_one_fused_record_then_one_read() {
    let _ids = shared();
    let clock = SimClock::new();
    let (head, _) = recorded("QM.HEAD", &clock);
    let (tail, tail_journal) = recorded("QM.TAIL", &clock);
    tail.create_queue("Q.IN").unwrap();
    let (_out, out) = connect(&head, &tail, false);
    // The way back stays partitioned, so no handoff of a read-ack rides
    // the second read's record.
    let (_back, back) = connect(&tail, &head, false);
    back.apply_fault(FaultAction::Partition).unwrap();
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(tail.clone()).unwrap();
    tail_journal.start();

    // Two sends pile up behind a partition; healing it hands both over in
    // one transport batch to a reader already parked on Q.IN.
    out.apply_fault(FaultAction::Partition).unwrap();
    let condition: Condition = Destination::queue("QM.TAIL", "Q.IN")
        .pickup_within(Millis(60_000))
        .into();
    for i in 0..2 {
        messenger.send_message(format!("m{i}"), &condition).unwrap();
    }
    std::thread::scope(|s| {
        let reader = s.spawn(|| receiver.read_message("Q.IN", Wait::Timeout(Millis(10_000))));
        wait_getters(&tail, "Q.IN", 1);
        out.apply_fault(FaultAction::Heal).unwrap();
        let read = reader.join().unwrap().unwrap().expect("handed the first original");
        assert_eq!(read.payload_str(), Some("m0"));
    });
    assert_eq!(tail.queue("Q.IN").unwrap().depth(), 1, "the second is queued");
    let read = receiver.read_message("Q.IN", Wait::NoWait).unwrap().expect("the second");
    assert_eq!(read.payload_str(), Some("m1"));

    assert_eq!(
        tail_journal.appended(),
        [
            // The batch's arrival and the first read in one: the first
            // original's key, the second original queued.
            "TxCommit key x1 get[] put[Q.IN, DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]",
            "TxCommit get[Q.IN] put[DS.RLOG.Q, SYSTEM.XMIT.QM.HEAD]",
        ],
        "tail"
    );
    let metrics = tail.metrics_snapshot();
    assert_eq!(metrics.counter("mq.tx.picked_up"), 1);
    assert_eq!(metrics.counter("cond.recv.read_acks"), 2);
}

#[test]
fn a_relay_takes_custody_of_a_batch_with_one_record() {
    let _ids = shared();
    let clock = SimClock::new();
    let (head, head_journal) = recorded("QM.HEAD", &clock);
    let (mid, mid_journal) = recorded("QM.MID", &clock);
    let (tail, tail_journal) = recorded("QM.TAIL", &clock);
    mid.create_queue("Q.MID").unwrap();
    tail.create_queue("Q.IN").unwrap();
    let (_head_mid, first_hop) = connect(&head, &mid, false);
    let (_mid_tail, second_hop) = connect(&mid, &tail, true);
    head.define_default_route(&["SYSTEM.XMIT.QM.MID"]).unwrap();
    head_journal.start();
    mid_journal.start();
    tail_journal.start();

    let put = |manager: &str, queue: &str| {
        let msg = Message::text("payload").persistent(true).build();
        head.put_to(&QueueAddress::new(manager, queue), msg).unwrap();
    };
    // Onward traffic only: custody of the batch is its one arrival record.
    first_hop.apply_fault(FaultAction::Partition).unwrap();
    for _ in 0..3 {
        put("QM.TAIL", "Q.IN");
    }
    first_hop.apply_fault(FaultAction::Heal).unwrap();
    // The arrival puts its three envelopes on the onward queue one by one;
    // a mover polling meanwhile could take the first alone. Let it see
    // the three only once the record is written.
    mid_journal.wait_for(1);
    second_hop.apply_fault(FaultAction::Heal).unwrap();
    tail_journal.wait_for(1);
    wait_released(&mid, 3);
    wait_released(&head, 3);
    // A mixed batch — local, onward, no route — is still one record.
    first_hop.apply_fault(FaultAction::Partition).unwrap();
    put("QM.MID", "Q.MID");
    put("QM.TAIL", "Q.IN");
    put("QM.NOWHERE", "Q.X");
    first_hop.apply_fault(FaultAction::Heal).unwrap();
    tail_journal.wait_for(2);
    wait_released(&mid, 1);
    // The relay counts a batch once its record is written, on the
    // delivering thread, which the onward mover overtakes: the head's mover
    // releasing the batch is what says that `accept_batch` has returned.
    wait_released(&head, 3);
    mid.shutdown();

    assert_eq!(
        mid_journal.appended(),
        [
            "TxCommit get[] put[SYSTEM.XMIT.QM.TAIL x3]",
            // The next arrival carries the onward handoff of the first.
            &format!(
                "TxCommit get[SYSTEM.XMIT.QM.TAIL x3] \
                 put[Q.MID, SYSTEM.XMIT.QM.TAIL, {DEAD_LETTER_QUEUE}]"
            ),
            "TxCommit get[SYSTEM.XMIT.QM.TAIL] put[]",
        ],
        "mid"
    );
    // On the head the next put is the next record.
    let put_mid = "TxCommit get[] put[SYSTEM.XMIT.QM.MID]";
    assert_eq!(
        head_journal.appended(),
        [
            put_mid,
            put_mid,
            put_mid,
            "TxCommit get[SYSTEM.XMIT.QM.MID x3] put[SYSTEM.XMIT.QM.MID]",
            put_mid,
            put_mid,
        ],
        "head"
    );
    assert_eq!(
        tail_journal.appended(),
        ["TxCommit get[] put[Q.IN x3]", "TxCommit get[] put[Q.IN]"],
        "tail"
    );
    let dead = mid.get(DEAD_LETTER_QUEUE, Wait::NoWait).unwrap().unwrap();
    assert_eq!(
        dead.str_property(DLQ_REASON_PROPERTY),
        Some("no route to manager QM.NOWHERE")
    );
    assert_eq!(mid.metrics_snapshot().counter("mq.relay.forwarded"), 4);
}

#[test]
fn four_leaf_tree_decided_by_its_third_ack_is_six_records() {
    let _ids = alone();
    let journal = RecordingJournal::on_disk();
    let qmgr = QueueManager::builder("QM1")
        .clock(SimClock::new())
        .journal(journal.clone())
        .build()
        .unwrap();
    let leaves = ["Q.L0", "Q.L1", "Q.L2", "Q.L3"];
    for leaf in leaves {
        qmgr.create_queue(leaf).unwrap();
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    journal.start();

    let condition: Condition = DestinationSet::of(
        leaves
            .iter()
            .map(|leaf| Destination::queue("QM1", *leaf).into())
            .collect(),
    )
    .pickup_within(Millis(60_000))
    .min_pickup(3)
    .into();
    let id = messenger.send_message("payload", &condition).unwrap();
    for leaf in leaves {
        assert!(receiver.read_message(leaf, Wait::NoWait).unwrap().is_some());
    }
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap();
    assert_eq!(outcome.expect("verdict").outcome, MessageOutcome::Success);

    // The pick-up's record is where its read-ack is applied: an ack that
    // leaves its message pending is logged (write-ahead) in it.
    let pickup = |leaf: &str| format!("TxCommit get[{leaf}] put[DS.RLOG.Q, DS.SLOG.Q]");
    assert_eq!(
        journal.appended(),
        [
            "TxCommit get[] put[DS.SLOG.Q, DS.COMP.Q, Q.L0, Q.L1, Q.L2, Q.L3]".to_owned(),
            pickup("Q.L0"),
            pickup("Q.L1"),
            // The third ack decides: its pick-up carries the verdict, which
            // purges the send record and the two logged acks.
            "TxCommit get[Q.L2, DS.COMP.Q, DS.SLOG.Q x3] \
             put[DS.RLOG.Q, DS.OUTCOME.Q]"
                .to_owned(),
            // Late ack for a decided message: applied to nothing, so the
            // pick-up is all the record says.
            "TxCommit get[Q.L3] put[DS.RLOG.Q]".to_owned(),
            "TxCommit get[DS.OUTCOME.Q] put[]".to_owned(),
        ]
    );
    // A fan-out writes its payload once: each put whose payload equals the
    // previous put's (the three originals after the first) carries a flag
    // bit instead. One compensation is parked for the whole tree, naming no
    // leaf.
    assert_eq!(journal.bytes(), [263, 53, 53, 60, 38, 21], "bytes");
    // In a segment file: each frame's 9 bytes of envelope and LSN, every
    // frame's first id but the send's a delta from the frame before, and
    // each pick-up's leaf queue the one-byte code the send gave it (442 B
    // in all).
    assert_eq!(journal.frames(), [272, 41, 41, 48, 26, 14], "frames");
    let send = journal.record(0);
    assert_eq!(send.windows(7).filter(|w| w == b"payload").count(), 1);
    // One id sequence: the conditional id, then its send-log entry, parked
    // compensation and originals in the order they are put (ids cond+1 to
    // cond+6), so every id after the record's first is a one-byte delta.
    let JournalRecord::TxCommit { puts, .. } = JournalRecord::from_bytes(send).unwrap() else {
        panic!("the send is a TxCommit");
    };
    assert_eq!(puts.len(), 6);
    let cond = id.as_u128();
    for (n, (_, put)) in (1..).zip(&puts) {
        assert_eq!(put.id().as_u128(), cond + n, "put {n}");
        assert_eq!(put.correlation_id(), Some(id.to_hex().as_str()));
    }
    assert_eq!(qmgr.metrics_snapshot().counter("cond.verdict.fused"), 1);
}

/// A three-member D-Sphere on one recorded manager, one member per queue,
/// each to be picked up within `window`.
fn three_member_sphere(
    window: Millis,
) -> (Arc<QueueManager>, Arc<RecordingJournal>, dsphere::DSphere) {
    let journal = RecordingJournal::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(SimClock::new())
        .journal(journal.clone())
        .build()
        .unwrap();
    let service = dsphere::DSphereService::new(ConditionalMessenger::new(qmgr.clone()).unwrap());
    let mut sphere = service.begin();
    for queue in ["Q.A", "Q.B", "Q.C"] {
        qmgr.create_queue(queue).unwrap();
        let condition: Condition = Destination::queue("QM1", queue)
            .pickup_within(window)
            .into();
        sphere
            .send_message_with_compensation("member", "undo", &condition)
            .unwrap();
    }
    (qmgr, journal, sphere)
}

#[test]
fn committing_a_sphere_of_three_decided_members_is_one_record() {
    let _ids = shared();
    let (qmgr, journal, mut sphere) = three_member_sphere(Millis(60_000));
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    for queue in ["Q.A", "Q.B", "Q.C"] {
        assert!(receiver.read_message(queue, Wait::NoWait).unwrap().is_some());
    }
    journal.start();

    // Every member is decided, so `commit_DS` is the release alone: each
    // member's send record and verdict entry, parked compensation and
    // notification leave in one transaction.
    let outcome = sphere.try_commit().unwrap().expect("every member decided");
    assert!(outcome.is_committed());
    assert_eq!(
        journal.appended(),
        ["TxCommit get[DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q, \
          DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q, \
          DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q] put[]"]
    );
    assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.consumed"), 3);
}

#[test]
fn commit_blocking_on_a_sphere_of_three_leaves_each_notification_to_the_release() {
    let _ids = shared();
    let (qmgr, journal, sphere) = three_member_sphere(Millis(60_000));
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    journal.start();

    // The members are picked up one by one while `commit_DS` blocks on
    // them. It parks on each notification without taking it: the release
    // record is the members' one consumer.
    let reader = std::thread::spawn(move || {
        for queue in ["Q.A", "Q.B", "Q.C"] {
            std::thread::sleep(Duration::from_millis(5));
            assert!(receiver.read_message(queue, Wait::NoWait).unwrap().is_some());
        }
    });
    let outcome = sphere.commit_blocking().unwrap();
    reader.join().unwrap();
    assert!(outcome.is_committed());
    let pickup = |leaf: &str| {
        format!("TxCommit get[{leaf}] put[DS.RLOG.Q, DS.SLOG.Q, DS.OUTCOME.Q]")
    };
    assert_eq!(
        journal.appended(),
        [
            pickup("Q.A"),
            pickup("Q.B"),
            pickup("Q.C"),
            "TxCommit get[DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q, \
             DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q, \
             DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q] put[]"
                .to_owned(),
        ]
    );
    assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
}

#[test]
fn aborting_a_sphere_of_three_pending_members_is_two_records() {
    let _ids = shared();
    let (qmgr, journal, mut sphere) = three_member_sphere(Millis(60_000));
    journal.start();

    // One forced cycle decides every pending member, then one release
    // sends every compensation (each meets its unread original).
    let outcome = sphere.abort("called off").unwrap();
    assert!(!outcome.is_committed());
    assert_eq!(
        journal.appended(),
        [
            "TxCommit get[] put[DS.SLOG.Q, DS.OUTCOME.Q, \
             DS.SLOG.Q, DS.OUTCOME.Q, DS.SLOG.Q, DS.OUTCOME.Q]"
                .to_owned(),
            "TxCommit get[DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q, \
             DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q, \
             DS.SLOG.Q x2, DS.COMP.Q, DS.OUTCOME.Q] put[Q.A, Q.B, Q.C]"
                .to_owned(),
        ]
    );
    assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 3);
}

#[test]
fn sweeping_three_ripe_messages_is_one_record() {
    let _ids = shared();
    let journal = RecordingJournal::new();
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    for _ in 0..3 {
        let msg = Message::text("short-lived").persistent(true).ttl(Millis(5));
        qmgr.put("Q", msg.build()).unwrap();
    }
    qmgr.put("Q", Message::text("stays").persistent(true).build())
        .unwrap();
    clock.advance(Millis(10));
    journal.start();

    // A message past its TTL leaves the way any message does, as a get of a
    // transaction: the sweep's, one for all that are ripe.
    assert_eq!(qmgr.sweep_expired_all().unwrap(), 3);
    assert_eq!(journal.appended(), ["TxCommit get[Q x3] put[]"]);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 1);
}

#[test]
fn a_read_that_meets_three_pairs_and_then_a_message_is_one_record() {
    let _ids = shared();
    let journal = RecordingJournal::new();
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q.A").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    // Nobody picks the originals up in time: each fails, and its
    // compensation joins it on the queue.
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(30))
        .into();
    for _ in 0..3 {
        messenger
            .send_message_with_compensation("orig", "undo", &condition)
            .unwrap();
    }
    clock.advance(Millis(60));
    messenger.pump().unwrap();
    qmgr.put("Q.A", Message::text("ordinary").persistent(true).build())
        .unwrap();
    assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 7);
    journal.start();

    // Each original the read meets takes its compensation with it (paper
    // 2.6), in the read's own transaction: six gets ride the record of the
    // delivery, and an annihilation logs nothing.
    let got = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(got.payload_str(), Some("ordinary"));
    assert_eq!(
        journal.appended(),
        ["TxCommit get[Q.A x7] put[]"]
    );
    assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 0);
    assert_eq!(qmgr.metrics_snapshot().counter("cond.recv.annihilated"), 3);
}

type LoneSender = (
    Arc<QueueManager>,
    Arc<RecordingJournal>,
    Arc<QueueManager>,
    Channel,
    Arc<TcpAcceptor>,
);

/// A sender on a simulated clock whose handoffs to `QM.TAIL` nothing but
/// the bounds can write out: no other commit happens on it once the
/// envelopes are queued. Its channel to the returned tail starts
/// partitioned.
fn lone_sender(clock: &Arc<SimClock>) -> LoneSender {
    let (head, head_journal) = recorded("QM.HEAD", clock);
    let tail = QueueManager::builder("QM.TAIL").clock(clock.clone()).build().unwrap();
    tail.create_queue("Q.IN").unwrap();
    let (channel, acceptor) = connect(&head, &tail, true);
    (head, head_journal, tail, channel, acceptor)
}

fn queue_for_tail(head: &QueueManager, envelopes: usize) {
    for _ in 0..envelopes {
        let msg = Message::text("payload").persistent(true).build();
        head.put_to(&QueueAddress::new("QM.TAIL", "Q.IN"), msg).unwrap();
    }
}

#[test]
fn max_released_handoffs_are_one_record() {
    let _ids = shared();
    let clock = SimClock::new();
    let (head, journal, _tail, _channel, acceptor) = lone_sender(&clock);
    queue_for_tail(&head, MAX_RELEASED);
    journal.start();
    acceptor.apply_fault(FaultAction::Heal).unwrap();

    // Sixteen full batches cross; the mover whose release would make the
    // list full commits its session instead, and the record carries all.
    journal.wait_for(1);
    wait_released(&head, 0);
    assert_eq!(
        journal.appended(),
        [format!("TxCommit get[SYSTEM.XMIT.QM.TAIL x{MAX_RELEASED}] put[]")]
    );
    assert_eq!(head.stats().released.high_water(), (MAX_RELEASED - 64) as u64);
    assert_eq!(flushes(&head, 1), [format!("cap released={}", MAX_RELEASED - 64)]);
}

#[test]
fn an_idle_manager_flushes_after_the_linger_and_not_before() {
    let _ids = shared();
    let clock = SimClock::new();
    let (head, journal, _tail, _channel, acceptor) = lone_sender(&clock);
    queue_for_tail(&head, 1);
    journal.start();
    acceptor.apply_fault(FaultAction::Heal).unwrap();
    wait_released(&head, 1);

    clock.advance(Millis(RELEASE_LINGER.as_u64() - 1));
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(journal.appended(), [] as [&str; 0], "not before the linger");
    assert_eq!(head.queue("SYSTEM.XMIT.QM.TAIL").unwrap().depth(), 0);

    clock.advance(Millis(1));
    journal.wait_for(1);
    wait_released(&head, 0);
    assert_eq!(journal.appended(), ["TxCommit get[SYSTEM.XMIT.QM.TAIL] put[]"]);
    assert_eq!(flushes(&head, 1), ["idle released=1"]);
}
