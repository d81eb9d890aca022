//! E6 — paper Fig. 8: compensation-queue semantics.
//!
//! Exercises the three behaviours of §2.6 plus the crash case from the
//! guaranteed-compensation discussion, deterministically (SimClock):
//!
//! A. original unread when the compensation arrives → both annihilate;
//! B. original consumed → compensation delivered to the app, exactly once;
//! C. receiver-side crash after consumption → compensation still delivered
//!    after restart (the consumption log is persistent);
//! D. compensation with no matching original and no consumption record →
//!    deferred, not delivered, and it does not block other traffic.

use cond_bench::{emit_metrics, header, row};
use condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageKind, MessageOutcome,
};
use mq::journal::MemJournal;
use mq::{Message, QueueManager, Wait};
use simtime::{Millis, SimClock};

fn check(name: &str, condition: bool, results: &mut Vec<(String, bool)>) {
    results.push((name.to_owned(), condition));
}

fn case_a(results: &mut Vec<(String, bool)>) {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .clock(clock.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let cond: Condition = Destination::queue("QM1", "Q")
        .pickup_within(Millis(50))
        .into();
    messenger
        .send_message_with_compensation("orig", "undo", &cond)
        .unwrap();
    clock.advance(Millis(100));
    let depth_with_both = qmgr.queue("Q").unwrap().depth();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let delivered = receiver.read_message("Q", Wait::NoWait).unwrap();
    check(
        "A: original+comp both queued before read",
        depth_with_both == 2,
        results,
    );
    check(
        "A: nothing delivered (annihilation)",
        delivered.is_none(),
        results,
    );
    check(
        "A: queue empty afterwards",
        qmgr.queue("Q").unwrap().depth() == 0,
        results,
    );
}

fn case_b(results: &mut Vec<(String, bool)>) {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .clock(clock.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let cond: Condition = Destination::queue("QM1", "Q")
        .process_within(Millis(50))
        .into();
    let id = messenger
        .send_message_with_compensation("orig", "undo", &cond)
        .unwrap();
    clock.advance(Millis(10));
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    // Non-transactional read: consumption logged, processing never acked.
    receiver.read_message("Q", Wait::NoWait).unwrap().unwrap();
    clock.advance(Millis(100));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    let comp = receiver.read_message("Q", Wait::NoWait).unwrap();
    let again = receiver.read_message("Q", Wait::NoWait).unwrap();
    check(
        "B: message failed",
        outcome.outcome == MessageOutcome::Failure,
        results,
    );
    check(
        "B: compensation delivered to consumer",
        comp.as_ref().map(|m| m.kind()) == Some(MessageKind::Compensation),
        results,
    );
    check(
        "B: with the application data",
        comp.as_ref().and_then(|m| m.payload_str()) == Some("undo"),
        results,
    );
    check("B: delivered exactly once", again.is_none(), results);
}

fn case_c(results: &mut Vec<(String, bool)>) {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let qmgr = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let cond: Condition = Destination::queue("QM1", "Q")
        .process_within(Millis(50))
        .into();
    let id = messenger
        .send_message_with_compensation("orig", "undo", &cond)
        .unwrap();
    clock.advance(Millis(10));
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    receiver.read_message("Q", Wait::NoWait).unwrap().unwrap();
    qmgr.crash();
    // Restart: the consumption record in DS.RLOG.Q survives.
    let qmgr2 = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .clock(clock.clone())
        .journal(journal)
        .build()
        .unwrap();
    let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
    clock.advance(Millis(100));
    let outcome = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    let mut receiver2 = ConditionalReceiver::new(qmgr2.clone()).unwrap();
    let comp = receiver2.read_message("Q", Wait::NoWait).unwrap();
    check(
        "C: failure decided after restart",
        outcome.outcome == MessageOutcome::Failure,
        results,
    );
    check(
        "C: compensation delivered after crash (guaranteed compensation)",
        comp.map(|m| m.kind()) == Some(MessageKind::Compensation),
        results,
    );
}

fn case_d(results: &mut Vec<(String, bool)>) {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .clock(clock)
        .build().unwrap();
    qmgr.create_queue("Q").unwrap();
    let _messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let stray = condmsg::wire::make_compensation(
        condmsg::CondMessageId::generate(),
        0,
        &mq::QueueAddress::new("QM1", "Q"),
        None,
    );
    qmgr.put("Q", stray).unwrap();
    qmgr.put("Q", Message::text("regular traffic").build())
        .unwrap();
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let first = receiver.read_message("Q", Wait::NoWait).unwrap();
    let second = receiver.read_message("Q", Wait::NoWait).unwrap();
    check(
        "D: other traffic still flows past the deferred comp",
        first.map(|m| m.kind()) == Some(MessageKind::Standard),
        results,
    );
    check(
        "D: unresolvable comp not delivered",
        second.is_none(),
        results,
    );
    check(
        "D: comp remains parked",
        qmgr.queue("Q").unwrap().depth() == 1,
        results,
    );
}

fn main() {
    println!("# E6 — Fig. 8: compensation-queue semantics\n");
    let mut results = Vec::new();
    case_a(&mut results);
    case_b(&mut results);
    case_c(&mut results);
    case_d(&mut results);
    header(&["check", "result"]);
    let mut all = true;
    for (name, ok) in &results {
        all &= ok;
        row(&[name.clone(), if *ok { "PASS" } else { "FAIL" }.into()]);
    }
    println!();
    println!(
        "{} / {} checks pass",
        results.iter().filter(|(_, ok)| *ok).count(),
        results.len()
    );
    assert!(all);
    emit_metrics();
}
