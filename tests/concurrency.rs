//! Concurrency stress tests: many producers, consumers, spheres and the
//! clock's timer thread all running against real threads and a system
//! clock.
//!
//! These check conservation (nothing lost, nothing duplicated) rather than
//! timing specifics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use condmsg::{
    AckKind, Acknowledgment, CondError, Condition, ConditionalMessenger, ConditionalReceiver,
    Destination, MessageKind, MessageOutcome, MessageStatus, SendOptions,
};
use dsphere::{DSphereService, KvStore};
use mq::{QueueManager, TraceStage, Wait};
use simtime::{Millis, SimClock};

#[test]
fn many_conditional_messages_under_competing_consumers() {
    const MESSAGES: usize = 60;
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    qmgr.create_queue("Q.WORK").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();

    // Three competing consumers.
    let consumed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let qmgr = qmgr.clone();
            let consumed = consumed.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut receiver = ConditionalReceiver::new(qmgr).unwrap();
                while stop.load(Ordering::SeqCst) == 0 {
                    if let Ok(Some(m)) = receiver.read_message("Q.WORK", Wait::Timeout(Millis(20)))
                    {
                        if m.kind() == MessageKind::Original {
                            consumed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();

    let condition: Condition = Destination::queue("QM1", "Q.WORK")
        .pickup_within(Millis(5_000))
        .into();
    let ids: Vec<_> = (0..MESSAGES)
        .map(|i| {
            messenger
                .send_message(format!("job {i}"), &condition)
                .unwrap()
        })
        .collect();

    let mut successes = 0;
    for id in ids {
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(10_000)))
            .unwrap()
            .expect("every message decided");
        if outcome.outcome == MessageOutcome::Success {
            successes += 1;
        }
    }
    stop.store(1, Ordering::SeqCst);
    for c in consumers {
        c.join().unwrap();
    }
    assert_eq!(successes, MESSAGES, "all jobs picked up in time");
    assert_eq!(consumed.load(Ordering::SeqCst), MESSAGES, "no duplicates");
    assert_eq!(
        qmgr.queue("DS.ACK.Q").unwrap().depth(),
        0,
        "all acks consumed"
    );
    assert_eq!(
        qmgr.queue("DS.COMP.Q").unwrap().depth(),
        0,
        "all comps cleared"
    );
}

#[test]
fn concurrent_senders_share_one_messenger() {
    const SENDERS: usize = 4;
    const PER_SENDER: usize = 15;
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    qmgr.create_queue("Q.IN").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();

    let qmgr_consumer = qmgr.clone();
    let drain = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::new(qmgr_consumer).unwrap();
        let mut n = 0;
        while n < SENDERS * PER_SENDER {
            if let Ok(Some(m)) = receiver.read_message("Q.IN", Wait::Timeout(Millis(50))) {
                if m.kind() == MessageKind::Original {
                    n += 1;
                }
            }
        }
    });

    let handles: Vec<_> = (0..SENDERS)
        .map(|s| {
            let messenger = messenger.clone();
            std::thread::spawn(move || {
                let condition: Condition = Destination::queue("QM1", "Q.IN")
                    .pickup_within(Millis(5_000))
                    .into();
                (0..PER_SENDER)
                    .map(|i| {
                        messenger
                            .send_message(format!("s{s}-m{i}"), &condition)
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let all_ids: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(all_ids.len(), SENDERS * PER_SENDER);
    drain.join().unwrap();

    for id in all_ids {
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(10_000)))
            .unwrap()
            .expect("decided");
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
    assert_eq!(messenger.pending_count(), 0);
}

#[test]
fn parallel_spheres_with_shared_kv() {
    const SPHERES: usize = 6;
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    for i in 0..SPHERES {
        qmgr.create_queue(format!("Q.S{i}")).unwrap();
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let service = DSphereService::new(messenger);
    let kv = KvStore::new("shared");

    // One consumer drains every sphere queue.
    let qmgr_consumer = qmgr.clone();
    let consumer = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::new(qmgr_consumer).unwrap();
        let mut n = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while n < SPHERES && std::time::Instant::now() < deadline {
            for i in 0..SPHERES {
                if let Ok(Some(m)) = receiver.read_message(&format!("Q.S{i}"), Wait::NoWait) {
                    if m.kind() == MessageKind::Original {
                        n += 1;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    let handles: Vec<_> = (0..SPHERES)
        .map(|i| {
            let service = service.clone();
            let kv = kv.clone();
            std::thread::spawn(move || {
                let mut sphere = service.begin_with_timeout(Millis(8_000));
                sphere.enlist(kv.clone()).unwrap();
                // Disjoint keys: no write conflicts.
                kv.put(sphere.xid(), format!("sphere-{i}"), "done");
                sphere
                    .send_message(
                        format!("notice {i}"),
                        &Destination::queue("QM1", format!("Q.S{i}"))
                            .pickup_within(Millis(5_000))
                            .into(),
                    )
                    .unwrap();
                sphere.commit_blocking().unwrap()
            })
        })
        .collect();

    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    consumer.join().unwrap();
    assert!(outcomes.iter().all(|o| o.is_committed()), "{outcomes:?}");
    for i in 0..SPHERES {
        assert_eq!(kv.get(&format!("sphere-{i}")), Some("done".into()));
    }
}

#[test]
fn pump_and_timers_do_not_double_decide() {
    // Explicit pump calls racing the deadline timers, which fire on the
    // system clock's thread, must not produce duplicate outcome
    // notifications.
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    qmgr.create_queue("Q.A").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(30))
        .into();
    let mut ids = Vec::new();
    for i in 0..20 {
        ids.push(messenger.send_message(format!("m{i}"), &condition).unwrap());
        // Race explicit pumps against the timers.
        let _ = messenger.pump();
    }
    std::thread::sleep(Duration::from_millis(100));
    let _ = messenger.pump();
    for id in ids {
        let first = messenger
            .take_outcome(id, Wait::Timeout(Millis(5_000)))
            .unwrap();
        assert!(first.is_some(), "exactly one notification exists");
        let second = messenger.take_outcome(id, Wait::NoWait).unwrap();
        assert!(second.is_none(), "no duplicate notification");
    }
}

#[test]
fn two_releases_of_one_deferred_message_act_once() {
    // A D-Sphere member's deferred outcome actions are released by two
    // threads at once. The owed entry leaves its table only once a
    // release's record is written, and releases are serialized: one
    // delivers the compensation, the other finds nothing owed.
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
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
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);

    let start = Arc::new(std::sync::Barrier::new(2));
    let releases: Vec<_> = (0..2)
        .map(|_| {
            let (messenger, start) = (messenger.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                messenger.release_outcome_actions(&[id], MessageOutcome::Failure)
            })
        })
        .collect();
    let results: Vec<_> = releases.into_iter().map(|r| r.join().unwrap()).collect();
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 1, "{results:?}");
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(CondError::UnknownMessage(u)) if *u == id)),
        "{results:?}"
    );
    let stages = messenger.trace().stages_for(id.as_u128());
    let released = stages.iter().filter(|s| **s == TraceStage::CompensationReleased);
    assert_eq!(released.count(), 1, "{stages:?}");
    assert_eq!(qmgr.metrics_snapshot().counter("cond.comp.released"), 1);
    assert_eq!(qmgr.queue("Q").unwrap().depth(), 2, "original + its undo");
    assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
}

#[test]
fn a_watcher_of_a_transaction_that_delivers_an_ack_may_evaluate() {
    // A reader's transaction delivers an acknowledgment (applied inside it,
    // under the messenger's evaluation lock) and a put to an application
    // queue. That queue's watcher runs on the same thread: it must find the
    // lock released, whether it pumps or picks up another conditional
    // message, whose ack re-enters the trigger. A regression hangs here, so
    // the scenario runs on a thread of its own with a deadline.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        for queue in ["Q.A", "Q.B", "APP.LOG"] {
            qmgr.create_queue(queue).unwrap();
        }
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let within = |queue| Condition::from(Destination::queue("QM1", queue).pickup_within(Millis(60_000)));
        let first = messenger.send_message("a", &within("Q.A")).unwrap();
        let second = messenger.send_message("b", &within("Q.B")).unwrap();

        let reentrant = parking_lot::Mutex::new(ConditionalReceiver::new(qmgr.clone()).unwrap());
        let pumping = messenger.clone();
        let decided = Arc::new(AtomicUsize::new(0));
        let seen = decided.clone();
        qmgr.queue("APP.LOG").unwrap().add_put_watcher(Arc::new(move || {
            pumping.pump().unwrap();
            if matches!(pumping.status(first), MessageStatus::Decided(_)) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            let picked = reentrant.lock().read_message("Q.B", Wait::NoWait).unwrap();
            assert!(picked.is_some());
        }));

        let ack = Acknowledgment {
            cond_id: first,
            leaf: 0,
            kind: AckKind::Read,
            read_at: qmgr.clock().now(),
            processed_at: None,
            recipient: None,
        };
        let mut reader = qmgr.session();
        reader.begin().unwrap();
        assert!(reader.get("Q.A", Wait::NoWait).unwrap().is_some());
        reader.put("APP.LOG", mq::Message::text("consumed").build()).unwrap();
        reader.put("DS.ACK.Q", ack.to_message()).unwrap();
        reader.commit().unwrap();

        assert_eq!(
            decided.load(Ordering::SeqCst),
            1,
            "the watcher saw the first verdict"
        );
        for id in [first, second] {
            let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap();
            assert_eq!(outcome.expect("decided").outcome, MessageOutcome::Success);
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .expect("the watcher deadlocked against the evaluation lock, or the scenario failed");
}

#[test]
fn concurrent_persistent_puts_share_group_commit_fsyncs() {
    // 8 producer threads push persistent messages through a manager whose
    // journal is the on-disk log with fsync-before-ack. Every put that returned
    // must survive a crash (the durability contract), and concurrent
    // appenders must have shared fsyncs rather than paying one each.
    use mq::journal::{SegmentConfig, SegmentedJournal};
    use mq::Message;

    const THREADS: u64 = 8;
    const PUTS: u64 = 100;
    let root = std::env::temp_dir().join(format!(
        "condmsg-gc-concurrency-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let config = SegmentConfig {
        sync_every_append: true,
        ..SegmentConfig::default()
    };
    let journal = SegmentedJournal::open(&root, config.clone()).unwrap();
    let qmgr = QueueManager::builder("QM1")
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q.LOAD").unwrap();

    let producers: Vec<_> = (0..THREADS)
        .map(|t| {
            let qmgr = qmgr.clone();
            std::thread::spawn(move || {
                for i in 0..PUTS {
                    qmgr.put(
                        "Q.LOAD",
                        Message::text(format!("p{t}-{i}")).persistent(true).build(),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }

    // The manager's metrics hub sees the journal's cells.
    let snap = qmgr.metrics_snapshot();
    let appends = snap.counter("mq.journal.appends");
    let fsyncs = snap.counter("mq.journal.fsyncs");
    assert!(appends >= THREADS * PUTS);
    assert!(
        fsyncs < appends,
        "concurrent appenders should share fsyncs: {fsyncs} fsyncs for {appends} appends"
    );

    // Crash and rebuild over the same directory: all acked puts are there.
    qmgr.crash();
    drop(journal);
    let journal2 = SegmentedJournal::open(&root, config).unwrap();
    let qmgr2 = QueueManager::builder("QM1").journal(journal2).build().unwrap();
    assert_eq!(qmgr2.queue("Q.LOAD").unwrap().depth(), (THREADS * PUTS) as usize);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn queues_created_and_deleted_under_commits_and_checkpoints_recover_exactly() {
    // Worker threads each create their own queues, put persistent messages
    // on them, take some back and delete every third queue, while another
    // thread checkpoints in a loop. After a crash the rebuilt manager must
    // hold exactly the queues alive at the crash, each with its committed
    // puts minus its committed gets, in order.
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    use mq::journal::{SegmentConfig, SegmentedJournal};
    use mq::{Message, DEAD_LETTER_QUEUE};

    const THREADS: usize = 4;
    const QUEUES: usize = 6;
    const PUTS: usize = 8;
    let root = std::env::temp_dir().join(format!(
        "condmsg-directory-concurrency-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let journal = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
    let qmgr = QueueManager::builder("QM1")
        .journal(journal.clone())
        .build()
        .unwrap();

    let start = Arc::new(Barrier::new(THREADS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let checkpointer = {
        let (qmgr, start, stop) = (qmgr.clone(), start.clone(), stop.clone());
        std::thread::spawn(move || {
            start.wait();
            let mut taken = 0;
            loop {
                qmgr.checkpoint().unwrap();
                taken += 1;
                if stop.load(Ordering::SeqCst) {
                    return taken;
                }
            }
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (qmgr, start) = (qmgr.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                // name → the payloads it must hold after the crash.
                let mut alive = BTreeMap::new();
                for r in 0..QUEUES {
                    let name = format!("Q.{t}.{r}");
                    qmgr.create_queue(name.as_str()).unwrap();
                    let payloads: Vec<String> =
                        (0..PUTS).map(|i| format!("{name}#{i}")).collect();
                    for payload in &payloads {
                        let msg = Message::text(payload.as_str()).persistent(true).build();
                        qmgr.put(&name, msg).unwrap();
                    }
                    let gets = r % 4;
                    for payload in &payloads[..gets] {
                        let got = qmgr.get(&name, Wait::NoWait).unwrap().unwrap();
                        assert_eq!(got.payload_str(), Some(payload.as_str()));
                    }
                    if r % 3 == 0 {
                        qmgr.delete_queue(&name).unwrap();
                    } else {
                        alive.insert(name, payloads[gets..].to_vec());
                    }
                }
                alive
            })
        })
        .collect();
    let mut expected = BTreeMap::new();
    for w in workers {
        expected.extend(w.join().unwrap());
    }
    stop.store(true, Ordering::SeqCst);
    assert!(checkpointer.join().unwrap() > 0);
    assert_eq!(expected.len(), THREADS * (QUEUES - QUEUES.div_ceil(3)));

    qmgr.crash();
    drop((qmgr, journal));
    let journal = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
    let qmgr = QueueManager::builder("QM1")
        .journal(journal)
        .build()
        .unwrap();
    let recovered: Vec<String> = qmgr
        .queue_names()
        .into_iter()
        .filter(|name| name != DEAD_LETTER_QUEUE)
        .collect();
    assert_eq!(recovered, expected.keys().cloned().collect::<Vec<_>>());
    for (name, payloads) in &expected {
        let held: Vec<String> = qmgr
            .queue(name)
            .unwrap()
            .browse()
            .iter()
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect();
        assert_eq!(&held, payloads, "queue {name}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn takes_and_rollbacks_racing_checkpoints_recover_exactly() {
    // Each worker owns one queue. Round after round it opens a session,
    // puts one persistent message and takes one, then commits, rolls back,
    // or leaves the session open until the crash — while another thread
    // checkpoints in a loop. A take and a rollback never wait for a
    // checkpoint, so this races both against its snapshot. After the
    // rebuild every queue holds exactly its committed puts minus its
    // committed gets: every take still open at the crash is back.
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};

    use mq::journal::{SegmentConfig, SegmentedJournal};
    use mq::Message;

    const THREADS: usize = 4;
    const ROUNDS: usize = 240;
    const PUTS: usize = ROUNDS / 3 + 8;
    let root = std::env::temp_dir().join(format!(
        "condmsg-take-checkpoint-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let journal = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
    let qmgr = QueueManager::builder("QM1")
        .journal(journal.clone())
        .build()
        .unwrap();
    let durable = |payload: &str| Message::text(payload).persistent(true).build();
    for t in 0..THREADS {
        let name = format!("T.{t}");
        qmgr.create_queue(name.as_str()).unwrap();
        for i in 0..PUTS {
            qmgr.put(&name, durable(&format!("{name}#{i}"))).unwrap();
        }
    }

    // Every thread starts together, and no worker begins its last round
    // before the checkpointer has finished a first checkpoint (it drops
    // `raced` then): whoever is scheduled first, that one falls among the
    // rounds, with takes open.
    let start = Arc::new(Barrier::new(THREADS + 1));
    let (raced, first): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel::<()>()).unzip();
    let stop = Arc::new(AtomicBool::new(false));
    let checkpointer = {
        let (qmgr, start, stop) = (qmgr.clone(), start.clone(), stop.clone());
        std::thread::spawn(move || {
            start.wait();
            qmgr.checkpoint().unwrap();
            drop(raced);
            let mut taken = 1;
            while !stop.load(Ordering::SeqCst) {
                qmgr.checkpoint().unwrap();
                taken += 1;
            }
            taken
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .zip(first)
        .map(|(t, first)| {
            let (qmgr, start) = (qmgr.clone(), start.clone());
            std::thread::spawn(move || {
                let name = format!("T.{t}");
                // What the queue must hold after the crash, and the
                // sessions left open until it.
                let mut committed: BTreeSet<String> =
                    (0..PUTS).map(|i| format!("{name}#{i}")).collect();
                let mut pending = BTreeSet::new();
                let mut open = Vec::new();
                start.wait();
                for round in 0..ROUNDS {
                    if round == ROUNDS - 1 {
                        first.recv().unwrap_err();
                    }
                    let mut s = qmgr.session();
                    s.begin().unwrap();
                    let put = format!("{name}#new{round}");
                    s.put(&name, durable(&put)).unwrap();
                    let got = s.get(&name, Wait::NoWait).unwrap().unwrap();
                    let got = got.payload_str().unwrap().to_owned();
                    assert!(committed.contains(&got) && !pending.contains(&got), "{got}");
                    match round % 3 {
                        0 => {
                            s.commit().unwrap();
                            committed.remove(&got);
                            committed.insert(put);
                        }
                        1 => s.rollback().unwrap(),
                        _ => {
                            pending.insert(got);
                            open.push(s);
                        }
                    }
                }
                (name, committed, open)
            })
        })
        .collect();
    let finished: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    stop.store(true, Ordering::SeqCst);
    assert!(checkpointer.join().unwrap() > 0);

    qmgr.crash();
    let mut expected = Vec::new();
    for (name, committed, open) in finished {
        assert_eq!(open.len(), ROUNDS / 3);
        expected.push((name, committed));
        drop(open);
    }
    drop((qmgr, journal));
    let journal = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
    let qmgr = QueueManager::builder("QM1")
        .journal(journal)
        .build()
        .unwrap();
    for (name, committed) in expected {
        let mut held: Vec<String> = qmgr
            .queue(&name)
            .unwrap()
            .browse()
            .iter()
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect();
        held.sort();
        assert_eq!(
            held,
            committed.into_iter().collect::<Vec<_>>(),
            "queue {name}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
