//! Model-based property tests for the queue substrate: random operation
//! sequences (puts, gets, transactions, rollbacks, crashes) run against
//! both the real queue manager and a tiny in-memory reference model of the
//! intended semantics; the visible state must agree at every checkpoint.
//!
//! The model captures the contract the conditional-messaging layer relies
//! on: priority-then-FIFO delivery, all-or-nothing transactions, rollback
//! redelivery at the front, persistence across crash/recovery for exactly
//! the stable persistent messages, and a lifetime: a message past its TTL
//! is never delivered, and every get first removes the ripe ones for good.
//! A transaction of gets alone may also be *released*: consumed at once,
//! durably so only from the next record the manager writes, which carries
//! its gets; a crash before that record puts the messages back. The queue
//! may be deleted and created again while a transaction is open: what it
//! held is gone, and the transaction's puts land in the new queue, which is
//! what its record says and what replay does.

use std::sync::Arc;

use mq::journal::{Journal, JournalRecord, MemJournal};
use mq::{ManagerConfig, Message, MessageId, Priority, QueueManager, Wait};
use proptest::prelude::*;
use simtime::{Clock, Millis, SimClock};

const QUEUE: &str = "Q";

/// A message to put: `(label, priority, persistent, TTL in ms)`.
type Spec = (u32, u8, bool, Option<u64>);

#[derive(Debug, Clone)]
enum Op {
    /// Non-transactional put.
    Put(Spec),
    /// Non-transactional destructive get.
    Get,
    /// A transaction: staged puts and gets, then, with `recreate`, the
    /// queue deleted and created again, then one of its endings.
    Tx {
        puts: Vec<Spec>,
        gets: usize,
        recreate: bool,
        end: End,
    },
    /// Crash the manager and recover from the journal.
    CrashRecover,
    /// Let the clock run for so many milliseconds.
    Advance(u64),
}

/// How a transaction ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Commit,
    Rollback,
    /// As a channel mover ends the session of an acknowledged batch; a
    /// transaction that staged puts is committed instead.
    Release,
}

fn arb_end() -> impl Strategy<Value = End> {
    prop_oneof![Just(End::Commit), Just(End::Rollback), Just(End::Release)]
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let ttl = proptest::option::of(1u64..50);
    (any::<u32>(), 0u8..=9, any::<bool>(), ttl)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_spec().prop_map(Op::Put),
        4 => Just(Op::Get),
        3 => (
            proptest::collection::vec(arb_spec(), 0..3),
            0usize..3,
            (0u8..5).prop_map(|n| n == 0),
            arb_end(),
        )
            .prop_map(|(puts, gets, recreate, end)| Op::Tx { puts, gets, recreate, end }),
        1 => Just(Op::CrashRecover),
        2 => (1u64..40).prop_map(Op::Advance),
    ]
}

/// A queued message of the reference model.
#[derive(Debug, Clone, Copy)]
struct Entry {
    label: u32,
    priority: u8,
    persistent: bool,
    /// When its TTL runs out, stamped by the put's commit.
    expiry: Option<u64>,
    /// Its place among all puts: the order a recovery restores.
    seq: u64,
}

/// Reference model.
#[derive(Debug, Default, Clone)]
struct Model {
    /// In delivery order within each band; index = priority.
    bands: Vec<Vec<Entry>>,
    now: u64,
    puts: u64,
    /// Released gets of persistent messages that no record covers yet.
    released: Vec<Entry>,
}

impl Model {
    fn new() -> Model {
        Model {
            bands: vec![Vec::new(); 10],
            ..Model::default()
        }
    }

    fn put_back(&mut self, (label, priority, persistent, ttl): Spec) {
        let expiry = ttl.map(|ttl| self.now + ttl);
        self.puts += 1;
        let entry = Entry {
            label,
            priority,
            persistent,
            expiry,
            seq: self.puts,
        };
        self.bands[priority as usize].push(entry);
    }

    fn put_front(&mut self, entry: Entry) {
        self.bands[entry.priority as usize].insert(0, entry);
    }

    fn ripe(&self, entry: &Entry) -> bool {
        entry.expiry.is_some_and(|at| self.now >= at)
    }

    /// Highest priority first, FIFO within priority. Every get first
    /// removes what is past its TTL, in a transaction of its own: whatever
    /// becomes of the get, those are gone.
    fn take(&mut self) -> Option<Entry> {
        let now = self.now;
        for band in &mut self.bands {
            band.retain(|e| e.expiry.is_none_or(|at| now < at));
        }
        let band = self.bands.iter_mut().rev().find(|band| !band.is_empty())?;
        Some(band.remove(0))
    }

    /// A released get is as good as committed unless the manager crashes
    /// before it writes another record.
    fn release(&mut self, consumed: Vec<Entry>) {
        self.released.extend(consumed.into_iter().filter(|e| e.persistent));
    }

    /// The manager wrote a record: it carried every released get.
    fn record_written(&mut self) {
        self.released.clear();
    }

    /// What no record says was consumed is back where it was put.
    fn crash(&mut self) {
        for entry in std::mem::take(&mut self.released) {
            let band = &mut self.bands[entry.priority as usize];
            let at = band.partition_point(|e| e.seq < entry.seq);
            band.insert(at, entry);
        }
        for band in &mut self.bands {
            band.retain(|e| e.persistent);
        }
    }

    /// The queue deleted and created again: what it held is gone, and so
    /// is what was released from it, which no crash brings back.
    fn recreate(&mut self) {
        self.bands.iter_mut().for_each(Vec::clear);
        self.released.clear();
    }

    /// Everything on the queue, met by a get yet or not.
    fn depth(&self) -> usize {
        self.bands.iter().map(Vec::len).sum()
    }

    /// Delivery-order snapshot of the labels a get could still return.
    fn snapshot(&self) -> Vec<u32> {
        let live = |band: &Vec<Entry>| {
            let labels = band.iter().filter(|e| !self.ripe(e)).map(|e| e.label);
            labels.collect::<Vec<_>>()
        };
        self.bands.iter().rev().flat_map(live).collect()
    }
}

fn build_manager(journal: &Arc<MemJournal>, clock: &Arc<SimClock>) -> Arc<QueueManager> {
    let qm = QueueManager::builder("QM1")
        .clock(clock.clone())
        .journal(journal.clone())
        .config(ManagerConfig {
            // Keep rollbacks redelivering indefinitely so the model stays
            // simple (no dead-lettering).
            backout_threshold: u32::MAX,
            ..ManagerConfig::default()
        })
        .build()
        .unwrap();
    qm.ensure_queue(QUEUE).unwrap();
    qm
}

fn message((label, priority, persistent, ttl): Spec) -> Message {
    let builder = Message::text(label.to_string())
        .property("label", i64::from(label))
        .priority(Priority::new(priority))
        .persistent(persistent);
    match ttl {
        Some(ttl) => builder.ttl(Millis(ttl)).build(),
        None => builder.build(),
    }
}

fn snapshot(qm: &Arc<QueueManager>) -> Vec<u32> {
    qm.queue(QUEUE)
        .unwrap()
        .browse()
        .iter()
        .map(|m| m.i64_property("label").unwrap() as u32)
        .collect()
}

/// A journal with message ids and stamps abstracted away: per record its
/// kind, the queues it names and the payload labels it carries, in order.
fn journal_image(journal: &MemJournal) -> Vec<String> {
    let label = |m: &Message| m.payload_str().unwrap().to_owned();
    let image = |record: JournalRecord| match record {
        JournalRecord::TxCommit { keys, puts, gets } => format!(
            "TxCommit keys{} get{:?} put{:?}",
            keys.len(),
            gets.iter().map(|(q, _)| &**q).collect::<Vec<_>>(),
            puts.iter().map(|(q, m)| (&**q, label(m))).collect::<Vec<_>>(),
        ),
        JournalRecord::Put { queue, message } => format!("Put {queue} {}", label(&message)),
        other => format!("{other:?}"),
    };
    journal.replay_collect().unwrap().into_iter().map(image).collect()
}

/// Whether the first record written after the first `from`, if there is
/// one, starts its gets with `waiting`: a released get rides the next
/// record, whatever wrote it.
fn first_record_carries(journal: &MemJournal, from: usize, waiting: &[MessageId]) -> Option<bool> {
    let records = journal.replay_collect().unwrap();
    let gets: Vec<_> = match records.get(from)? {
        JournalRecord::TxCommit { gets, .. } => gets.iter().map(|(_, id)| *id).collect(),
        _ => Vec::new(),
    };
    Some(gets.starts_with(waiting))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// There is one commit path: a put or get outside a transaction and
    /// the same operation as an explicit transaction of one write the same
    /// journal and recover the same state.
    #[test]
    fn an_operation_outside_a_transaction_is_a_transaction_of_one(
        ops in proptest::collection::vec(arb_op(), 1..40)
    ) {
        let (auto_journal, tx_journal) = (MemJournal::new(), MemJournal::new());
        let clock = SimClock::new();
        let mut auto = build_manager(&auto_journal, &clock);
        let mut explicit = build_manager(&tx_journal, &clock);
        for op in ops {
            match op {
                Op::Put(spec) => {
                    auto.put(QUEUE, message(spec)).unwrap();
                    let mut session = explicit.session();
                    session.begin().unwrap();
                    session.put(QUEUE, message(spec)).unwrap();
                    session.commit().unwrap();
                }
                Op::Get => {
                    let got = auto.get(QUEUE, Wait::NoWait).unwrap();
                    let mut session = explicit.session();
                    session.begin().unwrap();
                    let twin = session.get(QUEUE, Wait::NoWait).unwrap();
                    session.commit().unwrap();
                    prop_assert_eq!(
                        got.map(|m| m.i64_property("label")),
                        twin.map(|m| m.i64_property("label"))
                    );
                }
                // What both managers do the same way goes on around it.
                Op::Tx { puts, gets, recreate, end } => {
                    for qm in [&auto, &explicit] {
                        let mut session = qm.session();
                        session.begin().unwrap();
                        for _ in 0..gets {
                            session.get(QUEUE, Wait::NoWait).unwrap();
                        }
                        for spec in &puts {
                            session.put(QUEUE, message(*spec)).unwrap();
                        }
                        if recreate {
                            qm.delete_queue(QUEUE).unwrap();
                            qm.create_queue(QUEUE).unwrap();
                        }
                        match end {
                            End::Commit => session.commit().unwrap(),
                            End::Rollback => session.rollback().unwrap(),
                            End::Release => session.release().unwrap(),
                        }
                    }
                }
                Op::CrashRecover => {
                    auto.crash();
                    explicit.crash();
                    auto = build_manager(&auto_journal, &clock);
                    explicit = build_manager(&tx_journal, &clock);
                }
                Op::Advance(ms) => clock.advance(Millis(ms)),
            }
        }
        prop_assert_eq!(journal_image(&auto_journal), journal_image(&tx_journal));
        auto.crash();
        explicit.crash();
        prop_assert_eq!(
            snapshot(&build_manager(&auto_journal, &clock)),
            snapshot(&build_manager(&tx_journal, &clock))
        );
    }

    #[test]
    fn queue_manager_agrees_with_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let journal = MemJournal::new();
        let clock = SimClock::new();
        let mut qm = build_manager(&journal, &clock);
        let mut model = Model::new();
        // The ids of the gets released and not yet carried by a record.
        let mut released = Vec::new();
        let agree = |real: &Option<Message>, expected: &Option<Entry>| match (real, expected) {
            (None, None) => true,
            (Some(m), Some(e)) => {
                m.i64_property("label") == Some(i64::from(e.label))
                    && m.priority().level() == e.priority
                    && m.is_persistent() == e.persistent
                    && !m.is_expired(clock.now())
            }
            _ => false,
        };

        for op in ops {
            // Whatever record this operation writes first carries the gets
            // released before it, and nothing else does.
            let mut records = journal.record_count();
            let mut waiting = std::mem::take(&mut released);
            match op {
                Op::Put(spec) => {
                    qm.put(QUEUE, message(spec)).unwrap();
                    model.put_back(spec);
                }
                Op::Get => {
                    let real = qm.get(QUEUE, Wait::NoWait).unwrap();
                    let expected = model.take();
                    prop_assert!(agree(&real, &expected), "get mismatch: {real:?} / {expected:?}");
                }
                Op::Tx { puts, gets, recreate, end } => {
                    let mut session = qm.session();
                    session.begin().unwrap();
                    let mut consumed: Vec<Entry> = Vec::new();
                    let mut taken = Vec::new();
                    for _ in 0..gets {
                        let real = session.get(QUEUE, Wait::NoWait).unwrap();
                        let expected = model.take();
                        prop_assert!(agree(&real, &expected), "tx get mismatch: {real:?} / {expected:?}");
                        consumed.extend(expected);
                        taken.extend(real.filter(Message::is_persistent).map(|m| m.id()));
                    }
                    for spec in &puts {
                        session.put(QUEUE, message(*spec)).unwrap();
                    }
                    if recreate {
                        // The directory's records carry no gets: when this
                        // operation wrote nothing before them, the waiting
                        // gets ride the first record after them.
                        let wrote = journal.record_count() > records;
                        qm.delete_queue(QUEUE).unwrap();
                        qm.create_queue(QUEUE).unwrap();
                        if !wrote {
                            records = journal.record_count();
                        }
                        model.recreate();
                    }
                    match end {
                        End::Release if puts.is_empty() => {
                            // A get that met ripe messages swept them, and
                            // that record came before this release.
                            if let Some(carried) = first_record_carries(&journal, records, &waiting) {
                                prop_assert!(carried, "{waiting:?}");
                                model.record_written();
                                waiting.clear();
                            }
                            // Consumed, and not a word in the journal.
                            records = journal.record_count();
                            session.release().unwrap();
                            prop_assert_eq!(journal.record_count(), records);
                            if !recreate {
                                model.release(consumed);
                            }
                            released = taken;
                        }
                        End::Commit | End::Release => {
                            if end == End::Commit {
                                session.commit().unwrap();
                            } else {
                                session.release().unwrap();
                            }
                            for spec in &puts {
                                model.put_back(*spec);
                            }
                            // consumed stay consumed
                        }
                        End::Rollback => {
                            session.rollback().unwrap();
                            // Requeued at the front in reverse consumption
                            // order restores original positions; the queue
                            // they came from is gone with them.
                            for entry in consumed.into_iter().rev().filter(|_| !recreate) {
                                model.put_front(entry);
                            }
                        }
                    }
                }
                Op::CrashRecover => {
                    qm.crash();
                    qm = build_manager(&journal, &clock);
                    model.crash();
                    waiting.clear();
                }
                Op::Advance(ms) => {
                    clock.advance(Millis(ms));
                    model.now += ms;
                }
            }
            match first_record_carries(&journal, records, &waiting) {
                Some(carried) => {
                    prop_assert!(carried, "{waiting:?}");
                    model.record_written();
                }
                // No record yet: they wait on.
                None => released.splice(0..0, waiting).for_each(drop),
            }
            prop_assert_eq!(snapshot(&qm), model.snapshot());
            // A message past its TTL counts until a get meets it or a sweep
            // removes it, and then it is gone, across a restart too.
            prop_assert_eq!(qm.queue(QUEUE).unwrap().depth(), model.depth());
        }

        // One way out of a queue: whatever removed a message, a get, a
        // commit or a sweep, it was a transaction's record that did, or the
        // queue's deletion.
        for record in journal.replay_collect().unwrap() {
            prop_assert!(
                matches!(
                    record,
                    JournalRecord::QueueCreated { .. }
                        | JournalRecord::QueueDeleted { .. }
                        | JournalRecord::TxCommit { .. }
                ),
                "{record:?}"
            );
        }
        let swept = qm.sweep_expired_all().unwrap();
        prop_assert_eq!(swept, model.depth() - model.snapshot().len());
        prop_assert_eq!(qm.queue(QUEUE).unwrap().depth(), model.snapshot().len());

        // Final full drain must agree element by element.
        loop {
            let real = qm.get(QUEUE, Wait::NoWait).unwrap();
            let expected = model.take();
            prop_assert!(agree(&real, &expected), "drain mismatch: {real:?} / {expected:?}");
            if real.is_none() {
                break;
            }
        }
        prop_assert_eq!(qm.queue(QUEUE).unwrap().depth(), 0);
    }

    /// Journal compaction is semantically invisible: compact + crash +
    /// recover yields the same persistent contents as crash + recover.
    #[test]
    fn compaction_is_invisible(
        labels in proptest::collection::vec((any::<u32>(), 0u8..=9, any::<bool>()), 0..20),
        consume in 0usize..10,
    ) {
        let journal = MemJournal::new();
        let clock = SimClock::new();
        let qm = build_manager(&journal, &clock);
        for (label, priority, persistent) in &labels {
            qm.put(QUEUE, message((*label, *priority, *persistent, None))).unwrap();
        }
        for _ in 0..consume {
            let _ = qm.get(QUEUE, Wait::NoWait).unwrap();
        }
        let reference = snapshot(&qm)
            .into_iter()
            .zip(qm.queue(QUEUE).unwrap().browse())
            .filter(|(_, m)| m.is_persistent())
            .map(|(label, _)| label)
            .collect::<Vec<_>>();
        qm.checkpoint().unwrap();
        qm.crash();
        let qm2 = build_manager(&journal, &clock);
        prop_assert_eq!(snapshot(&qm2), reference);
    }
}
