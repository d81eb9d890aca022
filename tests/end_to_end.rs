//! End-to-end integration tests on a single queue manager, driving the
//! full public API: condition definition → conditional send → implicit
//! acknowledgments → evaluation → outcome actions.
//!
//! These mirror the paper's running examples exactly (Fig. 1/4 and
//! Fig. 2/5) under a deterministic clock.

use std::sync::Arc;

use condmsg::{
    CondMessageId, Condition, ConditionalMessenger, ConditionalReceiver, Destination,
    DestinationSet, MessageKind, MessageOutcome, MessageStatus, OutcomeNotification, SendOptions,
};
use mq::{QueueManager, Wait};
use simtime::{Millis, SimClock, Time};

const DAY: u64 = 1_000;

struct World {
    clock: Arc<SimClock>,
    qmgr: Arc<QueueManager>,
    messenger: Arc<ConditionalMessenger>,
}

fn world(queues: &[&str]) -> World {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .build()
        .unwrap();
    for q in queues {
        qmgr.create_queue(*q).unwrap();
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    World {
        clock,
        qmgr,
        messenger,
    }
}

/// Paper Fig. 4, with one "day" scaled to one logical second.
fn example1_condition() -> Condition {
    let qr3 = Destination::queue("QM1", "Q.R3")
        .recipient("receiver3")
        .process_within(Millis(7 * DAY));
    let others = DestinationSet::of(vec![
        Destination::queue("QM1", "Q.R1")
            .recipient("receiver1")
            .into(),
        Destination::queue("QM1", "Q.R2")
            .recipient("receiver2")
            .into(),
        Destination::queue("QM1", "Q.R4")
            .recipient("receiver4")
            .into(),
    ])
    .process_within(Millis(11 * DAY))
    .min_process(2);
    DestinationSet::of(vec![qr3.into(), others.into()])
        .pickup_within(Millis(2 * DAY))
        .into()
}

/// The outcome notification of `id`, consumed from `DS.OUTCOME.Q`.
fn outcome(world: &World, id: CondMessageId) -> OutcomeNotification {
    world
        .messenger
        .take_outcome(id, Wait::NoWait)
        .unwrap()
        .expect("decided")
}

fn read_tx(world: &World, recipient: &str, queue: &str) {
    let mut receiver = ConditionalReceiver::with_identity(world.qmgr.clone(), recipient).unwrap();
    receiver.begin_tx().unwrap();
    let msg = receiver.read_message(queue, Wait::NoWait).unwrap().unwrap();
    assert_eq!(msg.kind(), MessageKind::Original);
    receiver.commit_tx().unwrap();
}

fn read_nontx(world: &World, recipient: &str, queue: &str) {
    let mut receiver = ConditionalReceiver::with_identity(world.qmgr.clone(), recipient).unwrap();
    let msg = receiver.read_message(queue, Wait::NoWait).unwrap().unwrap();
    assert_eq!(msg.kind(), MessageKind::Original);
}

#[test]
fn example1_success_when_all_conditions_met() {
    let w = world(&["Q.R1", "Q.R2", "Q.R3", "Q.R4"]);
    let id = w
        .messenger
        .send_message("meeting notification", &example1_condition())
        .unwrap();

    // Day 1: everyone reads; receiver3 and two others process.
    w.clock.advance(Millis(DAY));
    read_tx(&w, "receiver3", "Q.R3");
    read_tx(&w, "receiver1", "Q.R1");
    read_tx(&w, "receiver2", "Q.R2");
    read_nontx(&w, "receiver4", "Q.R4"); // read-only is fine: min 2 of 3

    let outcome = outcome(&w, id);
    assert_eq!(outcome.cond_id, id);
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn example1_fails_when_only_one_of_subset_processes() {
    let w = world(&["Q.R1", "Q.R2", "Q.R3", "Q.R4"]);
    let id = w
        .messenger
        .send_message("meeting notification", &example1_condition())
        .unwrap();

    w.clock.advance(Millis(DAY));
    read_tx(&w, "receiver3", "Q.R3");
    read_tx(&w, "receiver1", "Q.R1");
    read_nontx(&w, "receiver2", "Q.R2");
    read_nontx(&w, "receiver4", "Q.R4");
    assert_eq!(
        w.messenger.status(id),
        MessageStatus::Pending,
        "1 of 2 required processings"
    );

    // Past the 11-day subset window the count is unreachable.
    w.clock.advance(Millis(11 * DAY));
    let outcome = outcome(&w, id);
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    let reason = outcome.reason.as_deref().unwrap();
    assert!(reason.contains("processing"), "{reason}");
    assert_eq!(outcome.cond_id, id);
}

#[test]
fn example1_fails_on_missed_pickup() {
    let w = world(&["Q.R1", "Q.R2", "Q.R3", "Q.R4"]);
    let id = w
        .messenger
        .send_message("meeting notification", &example1_condition())
        .unwrap();
    // Only three of four read within two days.
    w.clock.advance(Millis(DAY));
    for (r, q) in [
        ("receiver3", "Q.R3"),
        ("receiver1", "Q.R1"),
        ("receiver2", "Q.R2"),
    ] {
        read_tx(&w, r, q);
    }
    w.clock.advance(Millis(DAY + 1));
    let outcome = outcome(&w, id);
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert!(outcome.reason.as_deref().unwrap().contains("pick-up"));
}

#[test]
fn example2_any_controller_within_window() {
    let w = world(&["Q.CENTRAL"]);
    let condition: Condition = Destination::queue("QM1", "Q.CENTRAL")
        .pickup_within(Millis(20_000))
        .into();
    let id = w
        .messenger
        .send_with(
            "incoming flight",
            None,
            &condition,
            SendOptions {
                evaluation_timeout: Some(Millis(21_000)),
                ..SendOptions::default()
            },
        )
        .unwrap();
    w.clock.advance(Millis(15_000));
    read_nontx(&w, "controller-3", "Q.CENTRAL");
    let outcome = outcome(&w, id);
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    assert_eq!(w.messenger.status(id), MessageStatus::Decided(outcome));
}

#[test]
fn example2_times_out_when_nobody_reads() {
    let w = world(&["Q.CENTRAL"]);
    let condition: Condition = Destination::queue("QM1", "Q.CENTRAL")
        .pickup_within(Millis(20_000))
        .into();
    let id = w
        .messenger
        .send_with(
            "incoming flight",
            None,
            &condition,
            SendOptions {
                evaluation_timeout: Some(Millis(21_000)),
                ..SendOptions::default()
            },
        )
        .unwrap();
    w.clock.advance(Millis(20_000));
    assert_eq!(w.messenger.status(id), MessageStatus::Pending);
    w.clock.advance(Millis(1));
    assert_eq!(outcome(&w, id).outcome, MessageOutcome::Failure);
    // The unread original annihilates with the delivered compensation.
    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    assert!(receiver
        .read_message("Q.CENTRAL", Wait::NoWait)
        .unwrap()
        .is_none());
    assert_eq!(w.qmgr.queue("Q.CENTRAL").unwrap().depth(), 0);
}

#[test]
fn conditions_are_reusable_across_messages() {
    let w = world(&["Q.A"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(100))
        .into();
    let ids: Vec<_> = (0..5)
        .map(|i| {
            w.messenger
                .send_message(format!("msg {i}"), &condition)
                .unwrap()
        })
        .collect();
    w.clock.advance(Millis(10));
    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    for _ in 0..5 {
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    }
    for id in ids {
        assert_eq!(outcome(&w, id).outcome, MessageOutcome::Success);
    }
    assert_eq!(w.qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
}

#[test]
fn mixed_conditional_and_standard_traffic() {
    // Applications can keep using the middleware directly (paper Fig. 6).
    let w = world(&["Q.A"]);
    w.qmgr
        .put("Q.A", mq::Message::text("plain old message").build())
        .unwrap();
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(100))
        .into();
    let id = w.messenger.send_message("conditional", &condition).unwrap();

    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    let first = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(first.kind(), MessageKind::Standard);
    assert_eq!(first.payload_str(), Some("plain old message"));
    let second = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(second.kind(), MessageKind::Original);
    assert_eq!(outcome(&w, id).outcome, MessageOutcome::Success);
}

#[test]
fn per_destination_expiry_discards_stale_originals() {
    let w = world(&["Q.A"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(500))
        .expiry(Millis(50))
        .into();
    let id = w.messenger.send_message("expiring", &condition).unwrap();
    w.clock.advance(Millis(100));
    // The original expired on the queue; the read finds nothing and the
    // condition eventually fails.
    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    assert!(receiver
        .read_message("Q.A", Wait::NoWait)
        .unwrap()
        .is_none());
    w.clock.advance(Millis(500));
    assert_eq!(outcome(&w, id).outcome, MessageOutcome::Failure);
}

#[test]
fn rollback_then_commit_still_meets_processing_deadline() {
    let w = world(&["Q.A"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .process_within(Millis(1_000))
        .into();
    let id = w.messenger.send_message("retry me", &condition).unwrap();

    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    // First attempt fails and rolls back.
    receiver.begin_tx().unwrap();
    receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    w.clock.advance(Millis(100));
    receiver.rollback_tx().unwrap();
    assert_eq!(w.messenger.status(id), MessageStatus::Pending, "no ack yet");
    // Second attempt commits within the window.
    receiver.begin_tx().unwrap();
    let again = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(again.message().redelivery_count(), 1);
    w.clock.advance(Millis(100));
    receiver.commit_tx().unwrap();
    let outcome = outcome(&w, id);
    assert_eq!(outcome.cond_id, id);
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn late_processing_after_rollbacks_fails() {
    let w = world(&["Q.A"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .process_within(Millis(100))
        .into();
    let id = w.messenger.send_message("slow worker", &condition).unwrap();
    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    receiver.begin_tx().unwrap();
    receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    w.clock.advance(Millis(200)); // commits too late
    receiver.commit_tx().unwrap();
    assert_eq!(outcome(&w, id).outcome, MessageOutcome::Failure);
}

#[test]
fn anonymous_and_named_recipients_reported_in_acks() {
    let w = world(&["Q.A", "Q.B"]);
    let condition: Condition = DestinationSet::of(vec![
        Destination::queue("QM1", "Q.A").recipient("alice").into(),
        Destination::queue("QM1", "Q.B").into(),
    ])
    .pickup_within(Millis(100))
    .into();
    let id = w.messenger.send_message("to both", &condition).unwrap();
    w.clock.advance(Millis(1));
    read_nontx(&w, "alice", "Q.A");
    read_nontx(&w, "walk-in", "Q.B");
    assert_eq!(outcome(&w, id).outcome, MessageOutcome::Success);
}

#[test]
fn three_level_nested_condition_end_to_end() {
    // A department set containing two team sets, each with its own
    // (tighter) processing window; the department requires 1-of-2 teams,
    // each team requires both members.
    let w = world(&["Q.T1A", "Q.T1B", "Q.T2A", "Q.T2B"]);
    let team = |a: &str, b: &str, window: u64| -> Condition {
        DestinationSet::of(vec![
            Destination::queue("QM1", a).into(),
            Destination::queue("QM1", b).into(),
        ])
        .process_within(Millis(window))
        .into()
    };
    let condition: Condition = DestinationSet::of(vec![
        team("Q.T1A", "Q.T1B", 2 * DAY),
        team("Q.T2A", "Q.T2B", 4 * DAY),
    ])
    .process_within(Millis(6 * DAY))
    .min_process(2) // over the 4 leaves: any 2 timely processings
    .pickup_within(Millis(DAY))
    .into();
    let id = w.messenger.send_message("nested", &condition).unwrap();

    // Team 1 processes both legs within the day; team 2 never reads —
    // which violates the all-must-pick-up root window.
    w.clock.advance(Millis(DAY / 2));
    read_tx(&w, "t1a", "Q.T1A");
    read_tx(&w, "t1b", "Q.T1B");
    w.clock.advance(Millis(DAY));
    let outcome = outcome(&w, id);
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert!(outcome.reason.as_deref().unwrap().contains("pick-up"));
}

#[test]
fn nested_condition_succeeds_when_all_windows_met() {
    let w = world(&["Q.T1A", "Q.T1B"]);
    let condition: Condition = DestinationSet::of(vec![DestinationSet::of(vec![
        Destination::queue("QM1", "Q.T1A").into(),
        Destination::queue("QM1", "Q.T1B").into(),
    ])
    .process_within(Millis(2 * DAY))
    .into()])
    .pickup_within(Millis(DAY))
    .into();
    let id = w.messenger.send_message("nested-ok", &condition).unwrap();
    w.clock.advance(Millis(DAY / 2));
    read_tx(&w, "t1a", "Q.T1A");
    read_tx(&w, "t1b", "Q.T1B");
    assert_eq!(outcome(&w, id).outcome, MessageOutcome::Success);
}

#[test]
fn condition_attribute_overrides_reach_delivered_messages() {
    // MsgPriority / MsgPersistence / MsgExpiry set on the condition shape
    // the generated standard messages (paper §2.2 "common properties of
    // standard messaging middleware").
    let w = world(&["Q.FAST", "Q.LOOSE"]);
    let condition: Condition = DestinationSet::of(vec![
        Destination::queue("QM1", "Q.FAST")
            .priority(mq::Priority::new(9))
            .into(),
        Destination::queue("QM1", "Q.LOOSE")
            .persistent(false)
            .expiry(Millis(250))
            .into(),
    ])
    .pickup_within(Millis(1_000))
    .persistent(true)
    .into();
    w.messenger.send_message("attrs", &condition).unwrap();

    let fast = w.qmgr.queue("Q.FAST").unwrap().browse().remove(0);
    assert_eq!(fast.priority().level(), 9);
    assert!(fast.is_persistent(), "set-level default");
    assert!(fast.ttl().is_none());

    let loose = w.qmgr.queue("Q.LOOSE").unwrap().browse().remove(0);
    assert!(!loose.is_persistent(), "leaf override wins");
    assert_eq!(loose.ttl(), Some(Millis(250)));
}

#[test]
fn send_time_is_the_reference_for_all_windows() {
    // Windows are relative to the *send* timestamp, not queue arrival.
    let w = world(&["Q.A"]);
    w.clock.advance(Millis(5_000));
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(100))
        .into();
    let id = w
        .messenger
        .send_message("sent at t+5000", &condition)
        .unwrap();
    w.clock.advance(Millis(90));
    read_nontx(&w, "r", "Q.A");
    let outcome = outcome(&w, id);
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    assert!(outcome.decided_at >= Time(5_090));
}
