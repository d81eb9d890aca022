//! End-to-end integration tests on a single queue manager, driving the
//! full public API: condition definition → conditional send → implicit
//! acknowledgments → evaluation → outcome actions.
//!
//! These mirror the paper's running examples exactly (Fig. 1/4 and
//! Fig. 2/5) under a deterministic clock.

use std::sync::Arc;

use condmsg::{
    CondConfig, CondMessageId, Condition, ConditionalMessenger, ConditionalReceiver, Destination,
    DestinationSet, MessageKind, MessageOutcome, MessageStatus, OutcomeNotification, SendOptions,
};
use mq::{QueueManager, Wait};
use simtime::{Clock, Millis, SimClock, Time};

const DAY: u64 = 1_000;

struct World {
    clock: Arc<SimClock>,
    qmgr: Arc<QueueManager>,
    messenger: Arc<ConditionalMessenger>,
}

fn world(queues: &[&str]) -> World {
    world_with(queues, CondConfig::default())
}

fn world_with(queues: &[&str], config: CondConfig) -> World {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .build()
        .unwrap();
    for q in queues {
        qmgr.create_queue(*q).unwrap();
    }
    let messenger = ConditionalMessenger::with_config(qmgr.clone(), config).unwrap();
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

/// What one Fig. 1 recipient does: the day it reads the notification, and
/// the day it commits the receiver transaction it read in (it *processes*
/// the notification), if it does.
#[derive(Clone, Copy)]
struct Behaviour {
    read: Option<u64>,
    commit: Option<u64>,
}

const fn reads(day: u64) -> Behaviour {
    Behaviour {
        read: Some(day),
        commit: None,
    }
}

const fn processes(read: u64, commit: u64) -> Behaviour {
    Behaviour {
        read: Some(read),
        commit: Some(commit),
    }
}

const NEVER: Behaviour = Behaviour {
    read: None,
    commit: None,
};

/// The paper's rules for Fig. 1/4, every boundary inclusive: all four read
/// by day 2, receiver3 (index 0) processes by day 7, and at least two of
/// the other three process by day 11.
fn paper_rule(recipients: &[Behaviour; 4]) -> bool {
    let by = |day: Option<u64>, limit: u64| matches!(day, Some(d) if d <= limit);
    recipients.iter().all(|r| by(r.read, 2))
        && by(recipients[0].commit, 7)
        && recipients[1..].iter().filter(|r| by(r.commit, 11)).count() >= 2
}

/// Fig. 4's leaves in condition order, with their recipients.
const RECIPIENTS: [(&str, &str); 4] = [
    ("receiver3", "Q.R3"),
    ("receiver1", "Q.R1"),
    ("receiver2", "Q.R2"),
    ("receiver4", "Q.R4"),
];

/// Nine recipient behaviours against the Fig. 4 condition, each verdict
/// checked against [`paper_rule`]. A transactional read is acknowledged
/// once, when it commits, carrying both the read and the commit time; the
/// sender runs with an `ack_grace` covering the longest read-to-commit lag
/// of the table, so a *missing* acknowledgment counts only after it while
/// the times inside one are always held against the true deadlines. Each
/// case also says whether its acknowledgments alone decide it (a late
/// stamp fails at once) or it waits for a window to close.
#[test]
fn example1_recipient_behaviours_match_the_paper_rules() {
    // Read day 1, commit day 12.
    const ACK_GRACE: u64 = 11 * DAY;
    // (case, [receiver3, receiver1, receiver2, receiver4], decided by the
    // acks, failure reason)
    let cases: [(&str, [Behaviour; 4], bool, Option<&str>); 9] = [
        (
            "everyone reads day 1; r3+r1+r2 commit day 1",
            [processes(1, 1), processes(1, 1), processes(1, 1), reads(1)],
            true,
            None,
        ),
        (
            "read day 1; r3 commits day 6, r1+r4 day 10",
            [
                processes(1, 6),
                processes(1, 10),
                reads(1),
                processes(1, 10),
            ],
            true,
            None,
        ),
        (
            "r3 commits too late (day 8)",
            [processes(1, 8), processes(1, 1), processes(1, 1), reads(1)],
            true,
            Some("processing"),
        ),
        (
            "only one of the other three processes",
            [processes(1, 1), processes(1, 1), reads(1), reads(1)],
            false,
            Some("processing"),
        ),
        (
            "one recipient reads on day 3 (window is 2 days)",
            [processes(1, 1), processes(1, 1), processes(1, 1), reads(3)],
            true,
            Some("pick-up"),
        ),
        (
            "one recipient never reads",
            [processes(1, 1), processes(1, 1), processes(1, 1), NEVER],
            false,
            Some("pick-up"),
        ),
        (
            "two others commit exactly at day 11 (boundary, inclusive)",
            [
                processes(1, 1),
                processes(1, 11),
                processes(1, 11),
                reads(1),
            ],
            true,
            None,
        ),
        (
            "r3 commits exactly at day 7 (boundary, inclusive)",
            [processes(1, 7), processes(1, 1), processes(1, 1), reads(2)],
            true,
            None,
        ),
        (
            "three others all commit late (day 12)",
            [
                processes(1, 1),
                processes(1, 12),
                processes(1, 12),
                processes(1, 12),
            ],
            true,
            Some("processing"),
        ),
    ];
    for (case, recipients, decided_by_acks, reason) in cases {
        assert_eq!(paper_rule(&recipients), reason.is_none(), "{case}: table");
        let w = world_with(
            &["Q.R1", "Q.R2", "Q.R3", "Q.R4"],
            CondConfig {
                ack_grace: Millis(ACK_GRACE),
            },
        );
        let id = w
            .messenger
            .send_message("meeting notification", &example1_condition())
            .unwrap();
        let mut receivers: Vec<ConditionalReceiver> = RECIPIENTS
            .iter()
            .map(|(name, _)| ConditionalReceiver::with_identity(w.qmgr.clone(), *name).unwrap())
            .collect();
        // (day, leaf, is the commit): a read sorts before its commit.
        let mut steps: Vec<(u64, usize, bool)> = Vec::new();
        for (leaf, r) in recipients.iter().enumerate() {
            steps.extend(r.read.map(|day| (day, leaf, false)));
            steps.extend(r.commit.map(|day| (day, leaf, true)));
        }
        steps.sort_unstable();
        for (day, leaf, commit) in steps {
            let now = w.clock.now().as_millis();
            w.clock.advance(Millis((day * DAY).saturating_sub(now)));
            let receiver = &mut receivers[leaf];
            if commit {
                receiver.commit_tx().unwrap();
                continue;
            }
            if recipients[leaf].commit.is_some() {
                receiver.begin_tx().unwrap();
            }
            let msg = receiver
                .read_message(RECIPIENTS[leaf].1, Wait::NoWait)
                .unwrap()
                .unwrap();
            assert_eq!(msg.kind(), MessageKind::Original, "{case}");
        }
        assert_eq!(
            w.messenger.status(id) != MessageStatus::Pending,
            decided_by_acks,
            "{case}: decided when the last acknowledgment arrived"
        );
        // Past the last window (day 11) and the grace.
        w.clock.advance(Millis(12 * DAY + ACK_GRACE));
        let outcome = outcome(&w, id);
        assert_eq!(outcome.cond_id, id);
        assert_eq!(
            outcome.outcome == MessageOutcome::Success,
            reason.is_none(),
            "{case}: {:?}",
            outcome.reason
        );
        if let Some(reason) = reason {
            let got = outcome.reason.as_deref().unwrap();
            assert!(got.contains(reason), "{case}: {got}");
        }
    }
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
