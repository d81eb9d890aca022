//! Model-based property tests for the queue substrate: random operation
//! sequences (puts, gets, transactions, rollbacks, crashes) run against
//! both the real queue manager and a tiny in-memory reference model of the
//! intended semantics; the visible state must agree at every checkpoint.
//!
//! The model captures the contract the conditional-messaging layer relies
//! on: priority-then-FIFO delivery, all-or-nothing transactions, rollback
//! redelivery at the front, and persistence across crash/recovery for
//! exactly the stable persistent messages.

use std::sync::Arc;

use mq::journal::{Journal, JournalRecord, MemJournal};
use mq::{ManagerConfig, Message, Priority, QueueManager, Wait};
use proptest::prelude::*;
use simtime::SimClock;

const QUEUE: &str = "Q";

#[derive(Debug, Clone)]
enum Op {
    /// Non-transactional put.
    Put {
        label: u32,
        priority: u8,
        persistent: bool,
    },
    /// Non-transactional destructive get.
    Get,
    /// A transaction: staged puts and gets, then commit or rollback.
    Tx {
        puts: Vec<(u32, u8, bool)>,
        gets: usize,
        commit: bool,
    },
    /// Crash the manager and recover from the journal.
    CrashRecover,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u32>(), 0u8..=9, any::<bool>())
            .prop_map(|(label, priority, persistent)| Op::Put { label, priority, persistent }),
        4 => Just(Op::Get),
        3 => (
            proptest::collection::vec((any::<u32>(), 0u8..=9, any::<bool>()), 0..3),
            0usize..3,
            any::<bool>(),
        )
            .prop_map(|(puts, gets, commit)| Op::Tx { puts, gets, commit }),
        1 => Just(Op::CrashRecover),
    ]
}

/// Reference model: an entry is `(label, priority, persistent)`.
#[derive(Debug, Default, Clone)]
struct Model {
    /// In delivery order within each band; index = priority.
    bands: Vec<Vec<(u32, bool)>>,
}

impl Model {
    fn new() -> Model {
        Model {
            bands: vec![Vec::new(); 10],
        }
    }

    fn put_back(&mut self, label: u32, priority: u8, persistent: bool) {
        self.bands[priority as usize].push((label, persistent));
    }

    fn put_front(&mut self, label: u32, priority: u8, persistent: bool) {
        self.bands[priority as usize].insert(0, (label, persistent));
    }

    /// Highest priority first, FIFO within priority.
    fn take(&mut self) -> Option<(u32, u8, bool)> {
        for p in (0..10usize).rev() {
            if !self.bands[p].is_empty() {
                let (label, persistent) = self.bands[p].remove(0);
                return Some((label, p as u8, persistent));
            }
        }
        None
    }

    fn crash(&mut self) {
        for band in &mut self.bands {
            band.retain(|(_, persistent)| *persistent);
        }
    }

    /// Delivery-order snapshot of labels.
    fn snapshot(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for p in (0..10usize).rev() {
            out.extend(self.bands[p].iter().map(|(label, _)| *label));
        }
        out
    }
}

fn build_manager(journal: &Arc<MemJournal>) -> Arc<QueueManager> {
    let qm = QueueManager::builder("QM1")
        .clock(SimClock::new())
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

fn message(label: u32, priority: u8, persistent: bool) -> Message {
    Message::text(label.to_string())
        .property("label", i64::from(label))
        .priority(Priority::new(priority))
        .persistent(persistent)
        .build()
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
        JournalRecord::TxCommit { puts, gets } => format!(
            "TxCommit get{:?} put{:?}",
            gets.iter().map(|(q, _)| q.as_str()).collect::<Vec<_>>(),
            puts.iter().map(|(q, m)| (q.as_str(), label(m))).collect::<Vec<_>>(),
        ),
        JournalRecord::Put { queue, message } => format!("Put {queue} {}", label(&message)),
        other => format!("{other:?}"),
    };
    journal.replay_collect().unwrap().into_iter().map(image).collect()
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
        let mut auto = build_manager(&auto_journal);
        let mut explicit = build_manager(&tx_journal);
        for op in ops {
            match op {
                Op::Put { label, priority, persistent } => {
                    auto.put(QUEUE, message(label, priority, persistent)).unwrap();
                    let mut session = explicit.session();
                    session.begin().unwrap();
                    session.put(QUEUE, message(label, priority, persistent)).unwrap();
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
                Op::Tx { puts, gets, commit } => {
                    for qm in [&auto, &explicit] {
                        let mut session = qm.session();
                        session.begin().unwrap();
                        for _ in 0..gets {
                            session.get(QUEUE, Wait::NoWait).unwrap();
                        }
                        for (label, priority, persistent) in &puts {
                            session.put(QUEUE, message(*label, *priority, *persistent)).unwrap();
                        }
                        if commit {
                            session.commit().unwrap();
                        } else {
                            session.rollback().unwrap();
                        }
                    }
                }
                Op::CrashRecover => {
                    auto.crash();
                    explicit.crash();
                    auto = build_manager(&auto_journal);
                    explicit = build_manager(&tx_journal);
                }
            }
        }
        prop_assert_eq!(journal_image(&auto_journal), journal_image(&tx_journal));
        auto.crash();
        explicit.crash();
        prop_assert_eq!(
            snapshot(&build_manager(&auto_journal)),
            snapshot(&build_manager(&tx_journal))
        );
    }

    #[test]
    fn queue_manager_agrees_with_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let journal = MemJournal::new();
        let mut qm = build_manager(&journal);
        let mut model = Model::new();

        for op in ops {
            match op {
                Op::Put { label, priority, persistent } => {
                    qm.put(QUEUE, message(label, priority, persistent)).unwrap();
                    model.put_back(label, priority, persistent);
                }
                Op::Get => {
                    let real = qm.get(QUEUE, Wait::NoWait).unwrap();
                    let expected = model.take();
                    match (&real, &expected) {
                        (None, None) => {}
                        (Some(m), Some((label, priority, persistent))) => {
                            prop_assert_eq!(m.i64_property("label"), Some(i64::from(*label)));
                            prop_assert_eq!(m.priority().level(), *priority);
                            prop_assert_eq!(m.is_persistent(), *persistent);
                        }
                        other => prop_assert!(false, "get mismatch: {other:?}"),
                    }
                }
                Op::Tx { puts, gets, commit } => {
                    let mut session = qm.session();
                    session.begin().unwrap();
                    let mut consumed: Vec<(u32, u8, bool)> = Vec::new();
                    for _ in 0..gets {
                        let real = session.get(QUEUE, Wait::NoWait).unwrap();
                        let expected = model.take();
                        match (&real, &expected) {
                            (None, None) => {}
                            (Some(m), Some((label, priority, persistent))) => {
                                prop_assert_eq!(
                                    m.i64_property("label"),
                                    Some(i64::from(*label))
                                );
                                consumed.push((*label, *priority, *persistent));
                            }
                            other => prop_assert!(false, "tx get mismatch: {other:?}"),
                        }
                    }
                    for (label, priority, persistent) in &puts {
                        session
                            .put(QUEUE, message(*label, *priority, *persistent))
                            .unwrap();
                    }
                    if commit {
                        session.commit().unwrap();
                        for (label, priority, persistent) in &puts {
                            model.put_back(*label, *priority, *persistent);
                        }
                        // consumed stay consumed
                    } else {
                        session.rollback().unwrap();
                        // Requeued at the front in reverse consumption
                        // order restores original positions.
                        for (label, priority, persistent) in consumed.into_iter().rev() {
                            model.put_front(label, priority, persistent);
                        }
                    }
                }
                Op::CrashRecover => {
                    qm.crash();
                    qm = build_manager(&journal);
                    model.crash();
                }
            }
            prop_assert_eq!(snapshot(&qm), model.snapshot());
        }

        // Final full drain must agree element by element.
        loop {
            let real = qm.get(QUEUE, Wait::NoWait).unwrap();
            let expected = model.take();
            match (&real, &expected) {
                (None, None) => break,
                (Some(m), Some((label, _, _))) => {
                    prop_assert_eq!(m.i64_property("label"), Some(i64::from(*label)));
                }
                other => prop_assert!(false, "drain mismatch: {other:?}"),
            }
        }
    }

    /// Journal compaction is semantically invisible: compact + crash +
    /// recover yields the same persistent contents as crash + recover.
    #[test]
    fn compaction_is_invisible(
        labels in proptest::collection::vec((any::<u32>(), 0u8..=9, any::<bool>()), 0..20),
        consume in 0usize..10,
    ) {
        let journal = MemJournal::new();
        let qm = build_manager(&journal);
        for (label, priority, persistent) in &labels {
            qm.put(QUEUE, message(*label, *priority, *persistent)).unwrap();
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
        let qm2 = build_manager(&journal);
        prop_assert_eq!(snapshot(&qm2), reference);
    }
}
