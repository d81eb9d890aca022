//! Property-based end-to-end tests: random scenarios driven through the
//! full public API under a deterministic clock, checked against a direct
//! oracle implementation of the paper's condition semantics.

use std::sync::Arc;

use condmsg::{
    AckKind, AckState, Acknowledgment, CompiledCondition, CondConfig, CondMessageId, Condition,
    ConditionalMessenger, ConditionalReceiver, Destination, DestinationSet, MessageOutcome,
    MessageStatus, Verdict,
};
use mq::journal::MemJournal;
use mq::{Message, QueueManager, Wait};
use proptest::prelude::*;
use simtime::{Clock, Millis, SimClock, Time};

#[derive(Debug, Clone)]
struct DestPlan {
    /// When (ms after send) the destination reads; `None` = never.
    read_at: Option<u64>,
    /// Whether the read is transactional (commits immediately after).
    transactional: bool,
}

fn arb_dest_plan(max_delay: u64) -> impl Strategy<Value = DestPlan> {
    (proptest::option::weighted(0.8, 1..max_delay), any::<bool>()).prop_map(
        |(read_at, transactional)| DestPlan {
            read_at,
            transactional,
        },
    )
}

struct World {
    clock: Arc<SimClock>,
    qmgr: Arc<QueueManager>,
    messenger: Arc<ConditionalMessenger>,
}

fn world(n: usize) -> World {
    world_with(n, CondConfig::default())
}

fn world_with(n: usize, config: CondConfig) -> World {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .build()
        .unwrap();
    for i in 0..n {
        qmgr.create_queue(format!("Q{i}")).unwrap();
    }
    let messenger = ConditionalMessenger::with_config(qmgr.clone(), config).unwrap();
    World {
        clock,
        qmgr,
        messenger,
    }
}

/// Consumes from `Q{idx}` the way the plan says (a transactional read
/// commits at once). Returns whether a message was there: a read planned
/// for after the message failed finds nothing, because the deadline timer
/// already released the compensation and the pair annihilated.
fn read(w: &World, idx: usize, transactional: bool) -> bool {
    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    let queue = format!("Q{idx}");
    if transactional {
        receiver.begin_tx().unwrap();
        let got = receiver.read_message(&queue, Wait::NoWait).unwrap();
        if got.is_some() {
            receiver.commit_tx().unwrap();
        } else {
            receiver.rollback_tx().unwrap();
        }
        got.is_some()
    } else {
        receiver
            .read_message(&queue, Wait::NoWait)
            .unwrap()
            .is_some()
    }
}

/// Executes the plans: advances the clock step by step, performing each
/// read at its planned moment, then runs past `horizon`. Every verdict is
/// reached inside a read (ack arrival) or an advance (deadline timer);
/// the outcome queue only reports it.
fn run_plans(
    w: &World,
    id: CondMessageId,
    plans: &[DestPlan],
    horizon: u64,
) -> (MessageOutcome, Time) {
    let mut events: Vec<(u64, usize)> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.read_at.map(|t| (t, i)))
        .collect();
    events.sort();
    for (at, idx) in events {
        let now = w.clock.now().as_millis();
        if at > now {
            w.clock.advance(Millis(at - now));
        }
        let found = read(w, idx, plans[idx].transactional);
        assert!(
            found || w.messenger.pending_count() == 0,
            "a read only misses its message once the message is decided"
        );
    }
    let now = w.clock.now().as_millis();
    if horizon > now {
        w.clock.advance(Millis(horizon - now));
    }
    assert_eq!(w.clock.pending_timers(), 0, "timer torn down with decision");
    let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap();
    let outcome = outcome.expect("decided by the horizon");
    assert_eq!(
        w.qmgr.queue("DS.OUTCOME.Q").unwrap().depth(),
        0,
        "exactly one decision"
    );
    (outcome.outcome, outcome.decided_at)
}

/// One member set of a generated two-level tree: its leaves' read plans,
/// its pick-up window, and how many members must read in time (`None` =
/// all of them).
#[derive(Debug, Clone)]
struct GroupPlan {
    leaves: Vec<DestPlan>,
    window: u64,
    min: Option<u32>,
}

fn arb_group_plan() -> impl Strategy<Value = GroupPlan> {
    (
        proptest::collection::vec(arb_dest_plan(200), 1..4),
        50u64..150,
        proptest::option::of(any::<u32>()),
    )
        .prop_map(|(leaves, window, min_seed)| GroupPlan {
            min: min_seed.map(|s| 1 + s % leaves.len() as u32),
            leaves,
            window,
        })
}

/// The sequential reference model of the paper's semantics: replays the
/// ack timeline `(tick, leaf, transactional)` into a fresh [`AckState`]
/// one millisecond at a time and fully re-evaluates the tree at every
/// tick; the verdict is the first tick that is not `Pending`. No queue
/// manager, no messenger, no timers.
fn reference_verdict(
    compiled: &CompiledCondition,
    timeline: &[(u64, u32, bool)],
    grace: Millis,
) -> Option<(MessageOutcome, Time)> {
    let mut acks = AckState::new(compiled.leaves().len());
    for t in 1..=400u64 {
        for &(_, leaf, transactional) in timeline.iter().filter(|(at, _, _)| *at == t) {
            if transactional {
                acks.record_processed(leaf, Time(t), Time(t), None);
            } else {
                acks.record_read(leaf, Time(t), None);
            }
        }
        match compiled.evaluate_with_grace(&acks, Time::ZERO, Time(t), grace) {
            Verdict::Satisfied => return Some((MessageOutcome::Success, Time(t))),
            Verdict::Violated(_) => return Some((MessageOutcome::Failure, Time(t))),
            Verdict::Pending => {}
        }
    }
    None
}

/// One world of [`trigger_path_and_queue_path_agree`]: a send, the sender's
/// service restarted, then the acknowledgments landing in `batches` (one
/// transaction each) at `lands` ms — with the service `attached` again
/// before they land (the arrival trigger consumes them) or only after (they
/// queue up and the attach drains them). With `phantom`, a delivery of
/// acknowledgments from every leaf is refused by storage first and given up
/// by its owner: it must leave nothing behind. Returns what an observer can
/// see live and, after a crash, what a restarted manager and service
/// recover.
fn ack_path_world(
    condition: &Condition,
    leaves: usize,
    batches: &[Vec<(u32, u64, bool)>],
    lands: u64,
    attached: bool,
    phantom: bool,
) -> (Vec<String>, Vec<String>) {
    let clock = SimClock::new();
    let journal = MemJournal::new();
    let build = || {
        QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap()
    };
    let qmgr = build();
    for i in 0..leaves {
        qmgr.create_queue(format!("Q{i}")).unwrap();
    }
    let sender = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let id = sender.send_message_with_compensation("payload", "undo", condition).unwrap();
    drop(sender);
    clock.advance(Millis(lands));
    let mut messenger = attached.then(|| ConditionalMessenger::new(qmgr.clone()).unwrap());
    let ack = |leaf: u32, read_at: u64, processed: bool| Acknowledgment {
        cond_id: id,
        leaf,
        kind: if processed { AckKind::Processed } else { AckKind::Read },
        read_at: Time(read_at),
        processed_at: processed.then_some(Time(read_at)),
        recipient: None,
    };
    if phantom {
        let mut session = qmgr.session();
        session.begin().unwrap();
        for leaf in 0..leaves as u32 {
            session.put("DS.ACK.Q", ack(leaf, lands, false).to_message()).unwrap();
        }
        journal.set_failing(true);
        assert!(session.commit().is_err());
        journal.set_failing(false);
        session.rollback().unwrap();
    }
    let mut landed = 0;
    for batch in batches {
        let mut session = qmgr.session();
        session.begin().unwrap();
        for &(leaf, read_at, processed) in batch {
            session.put("DS.ACK.Q", ack(leaf, read_at, processed).to_message()).unwrap();
            landed += 1;
        }
        // Riding along: an ack for a message nobody sent and a message that
        // is no ack at all. Both paths consume them and do nothing.
        let stray = Acknowledgment {
            cond_id: CondMessageId::generate(),
            leaf: 0,
            kind: AckKind::Read,
            read_at: Time(lands),
            processed_at: None,
            recipient: None,
        };
        session.put("DS.ACK.Q", stray.to_message()).unwrap();
        session.put("DS.ACK.Q", Message::text("not an ack").persistent(true).build()).unwrap();
        landed += 2;
        session.commit().unwrap();
    }
    let queued = if attached { 0 } else { landed };
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), queued);
    let messenger = messenger
        .take()
        .unwrap_or_else(|| ConditionalMessenger::new(qmgr.clone()).unwrap());
    assert_eq!(qmgr.metrics_snapshot().counter("cond.ack.queued"), queued as u64);
    clock.advance(Millis(400 - lands));
    assert_eq!(clock.pending_timers(), 0, "timer torn down with decision");

    let observe = |qmgr: &Arc<QueueManager>, messenger: &ConditionalMessenger| {
        let mut seen = vec![match messenger.status(id) {
            MessageStatus::Decided(n) => format!("{:?} at {:?}", n.outcome, n.decided_at),
            other => format!("{other:?}"),
        }];
        seen.push(format!("pending {}", messenger.pending_count()));
        for queue in ["DS.ACK.Q", "DS.SLOG.Q", "DS.COMP.Q", "DS.OUTCOME.Q"] {
            seen.push(format!("{queue} {}", qmgr.queue(queue).unwrap().depth()));
        }
        for i in 0..leaves {
            let kinds: Vec<_> = qmgr
                .queue(&format!("Q{i}"))
                .unwrap()
                .browse()
                .iter()
                .map(|m| condmsg::wire::kind_of(m))
                .collect();
            seen.push(format!("Q{i} {kinds:?}"));
        }
        seen
    };
    let mut live = observe(&qmgr, &messenger);
    // (Not the ack counters: an ack behind the one that decides is applied
    // when one cycle drains both and late when each lands on its own.)
    let metrics = qmgr.metrics_snapshot();
    for name in [
        "cond.verdict.success",
        "cond.verdict.failure",
        "cond.verdict.fused",
        "cond.comp.released",
        "cond.comp.consumed",
    ] {
        live.push(format!("{name} {}", metrics.counter(name)));
    }
    qmgr.crash();
    drop(messenger);
    let qmgr = build();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    (live, observe(&qmgr, &messenger))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All-destinations pick-up: success iff every destination reads
    /// within the window.
    #[test]
    fn pickup_all_matches_oracle(
        plans in proptest::collection::vec(arb_dest_plan(200), 1..5),
        window in 50u64..150,
    ) {
        let w = world(plans.len());
        let condition: Condition = DestinationSet::of(
            (0..plans.len())
                .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                .collect(),
        )
        .pickup_within(Millis(window))
        .into();
        let id = w.messenger.send_message("payload", &condition).unwrap();

        let (outcome, _) = run_plans(&w, id, &plans, 400);
        let oracle = plans.iter().all(|p| matches!(p.read_at, Some(t) if t <= window));
        prop_assert_eq!(
            outcome == MessageOutcome::Success,
            oracle,
            "plans {:?} window {}",
            plans,
            window
        );
    }

    /// Min-k pick-up: success iff at least k destinations read in time.
    #[test]
    fn pickup_min_k_matches_oracle(
        plans in proptest::collection::vec(arb_dest_plan(200), 2..6),
        window in 50u64..150,
        k_seed in any::<u32>(),
    ) {
        let n = plans.len() as u32;
        let k = 1 + k_seed % n;
        let w = world(plans.len());
        let condition: Condition = DestinationSet::of(
            (0..plans.len())
                .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                .collect(),
        )
        .pickup_within(Millis(window))
        .min_pickup(k)
        .into();
        let id = w.messenger.send_message("payload", &condition).unwrap();

        let (outcome, _) = run_plans(&w, id, &plans, 400);
        let timely = plans
            .iter()
            .filter(|p| matches!(p.read_at, Some(t) if t <= window))
            .count() as u32;
        prop_assert_eq!(
            outcome == MessageOutcome::Success,
            timely >= k,
            "plans {:?} window {} k {}",
            plans,
            window,
            k
        );
    }

    /// Processing windows: success iff every destination *transactionally*
    /// consumes within the window (non-transactional reads never satisfy a
    /// processing condition).
    #[test]
    fn processing_all_matches_oracle(
        plans in proptest::collection::vec(arb_dest_plan(200), 1..4),
        window in 50u64..150,
    ) {
        let w = world(plans.len());
        let condition: Condition = DestinationSet::of(
            (0..plans.len())
                .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                .collect(),
        )
        .process_within(Millis(window))
        .into();
        let id = w.messenger.send_message("payload", &condition).unwrap();

        let (outcome, _) = run_plans(&w, id, &plans, 400);
        let oracle = plans
            .iter()
            .all(|p| p.transactional && matches!(p.read_at, Some(t) if t <= window));
        prop_assert_eq!(
            outcome == MessageOutcome::Success,
            oracle,
            "plans {:?} window {}",
            plans,
            window
        );
    }

    /// Exactly-one-acknowledgment invariant: however the receivers behave,
    /// the number of acknowledgments sent — and the number the evaluation
    /// manager applied — equals the number of consumed originals, and never
    /// exceeds the number of destinations.
    #[test]
    fn one_ack_per_consumption(
        plans in proptest::collection::vec(arb_dest_plan(80), 1..5),
    ) {
        let w = world(plans.len());
        let condition: Condition = DestinationSet::of(
            (0..plans.len())
                .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                .collect(),
        )
        .pickup_within(Millis(100))
        .into();
        w.messenger.send_message("payload", &condition).unwrap();

        let mut consumed = 0;
        for (i, plan) in plans.iter().enumerate() {
            if plan.read_at.is_none() {
                continue;
            }
            w.clock.advance(Millis(1));
            prop_assert!(read(&w, i, plan.transactional));
            consumed += 1;
        }
        let snapshot = w.qmgr.metrics_snapshot();
        let sent = snapshot.counter("cond.recv.read_acks")
            + snapshot.counter("cond.recv.processed_acks");
        let applied = snapshot.counter("cond.ack.read") + snapshot.counter("cond.ack.processed");
        prop_assert_eq!(sent, consumed);
        prop_assert_eq!(applied, consumed);
        prop_assert!(sent <= plans.len() as u64);
        prop_assert_eq!(w.qmgr.queue("DS.ACK.Q").unwrap().depth(), 0, "drained on arrival");
    }

    /// The engine (ack-arrival evaluation plus armed deadline timers, no
    /// `pump()` anywhere) decides a two-level all/any/min-count tree with
    /// the verdict, at the simtime, of the sequential reference model.
    #[test]
    fn engine_matches_sequential_reference_model(
        groups in proptest::collection::vec(arb_group_plan(), 1..4),
        grace in prop_oneof![Just(0u64), 1u64..50],
    ) {
        // Leaves are numbered in definition order, one queue each.
        let mut plans: Vec<DestPlan> = Vec::new();
        let mut members: Vec<Condition> = Vec::new();
        for group in &groups {
            let set = DestinationSet::of(
                (plans.len()..plans.len() + group.leaves.len())
                    .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                    .collect(),
            )
            .pickup_within(Millis(group.window));
            members.push(match group.min {
                Some(k) => set.min_pickup(k).into(),
                None => set.into(),
            });
            plans.extend(group.leaves.iter().cloned());
        }
        let condition: Condition = DestinationSet::of(members).into();
        let mut timeline: Vec<(u64, u32, bool)> = plans
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.read_at.map(|t| (t, i as u32, p.transactional)))
            .collect();
        timeline.sort_unstable();

        let w = world_with(
            plans.len(),
            CondConfig {
                ack_grace: Millis(grace),
            },
        );
        let id = w.messenger.send_message("payload", &condition).unwrap();
        for &(at, leaf, transactional) in &timeline {
            let now = w.clock.now().as_millis();
            if at > now {
                w.clock.advance(Millis(at - now));
            }
            read(&w, leaf as usize, transactional);
        }
        let now = w.clock.now().as_millis();
        w.clock.advance(Millis(400 - now));
        let got = w
            .messenger
            .take_outcome(id, Wait::NoWait)
            .unwrap()
            .expect("decided without a pump");
        prop_assert_eq!(w.clock.pending_timers(), 0, "timer torn down with decision");

        let compiled = CompiledCondition::compile(&condition).unwrap();
        let reference = reference_verdict(&compiled, &timeline, Millis(grace))
            .expect("reference decided within horizon");
        prop_assert_eq!(
            (got.outcome, got.decided_at),
            reference,
            "groups {:?} grace {}",
            groups,
            grace
        );
    }

    /// Compensation conservation (paper §2.6): after a failure, every
    /// destination ends in exactly one of two states — exactly one delivered
    /// compensation if it consumed the original, or annihilated (nothing
    /// deliverable, empty queue) if it never did.
    #[test]
    fn compensation_conservation(
        reads in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        // Pickup window 10 over the planned destinations plus one that is
        // never read, so the message always fails: readers consume at t=5,
        // the deadline timer decides at t=11.
        let n = reads.len();
        let w = world(n + 1);
        let condition: Condition = DestinationSet::of(
            (0..=n)
                .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                .collect(),
        )
        .pickup_within(Millis(10))
        .into();
        let id = w
            .messenger
            .send_message_with_compensation("orig", "undo", &condition)
            .unwrap();
        w.clock.advance(Millis(5));
        for (i, consume) in reads.iter().enumerate() {
            if *consume {
                prop_assert!(read(&w, i, false));
            }
        }
        prop_assert_eq!(w.messenger.status(id), MessageStatus::Pending, "pending until the deadline");
        w.clock.advance(Millis(15));
        let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        prop_assert_eq!(outcome.outcome, MessageOutcome::Failure);
        prop_assert_eq!(outcome.decided_at, Time(11));

        for (i, consumed) in reads.iter().copied().chain([false]).enumerate() {
            let queue = format!("Q{i}");
            let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
            let delivered = receiver.read_message(&queue, Wait::NoWait).unwrap();
            if consumed {
                // Consumed the original → compensation delivered once.
                let comp = delivered.expect("compensation for consumer");
                prop_assert_eq!(comp.kind(), condmsg::MessageKind::Compensation);
                prop_assert_eq!(comp.payload_str(), Some("undo"));
                prop_assert!(receiver.read_message(&queue, Wait::NoWait).unwrap().is_none());
            } else {
                // Original + compensation annihilate.
                prop_assert!(delivered.is_none(), "annihilation leaves nothing");
                prop_assert_eq!(w.qmgr.queue(&queue).unwrap().depth(), 0);
            }
        }
    }

    /// Acks are applied by the trigger on `DS.ACK.Q` inside the transaction
    /// that delivers them, or — when they landed while no messenger was
    /// attached — drained from the queue by the next one. Twin worlds that
    /// differ only in that must agree on everything but the path: the
    /// verdict and its time, the outcome actions at every destination, the
    /// counters, and the state a restart recovers. And a third world, in
    /// which a delivery that would have satisfied the whole condition is
    /// refused and abandoned first, agrees with both: an acknowledgment
    /// exists only once its record is written.
    #[test]
    fn trigger_path_and_queue_path_agree(
        groups in proptest::collection::vec(arb_group_plan(), 1..4),
        lands in 1u64..50,
        split in 1usize..4,
        resend in any::<bool>(),
    ) {
        let mut members: Vec<Condition> = Vec::new();
        let mut acks: Vec<(u32, u64, bool)> = Vec::new();
        let mut leaves = 0;
        for group in &groups {
            let set = DestinationSet::of(
                (leaves..leaves + group.leaves.len())
                    .map(|i| Destination::queue("QM1", format!("Q{i}")).into())
                    .collect(),
            )
            .pickup_within(Millis(group.window));
            members.push(match group.min {
                Some(k) => set.min_pickup(k).into(),
                None => set.into(),
            });
            for plan in &group.leaves {
                // Every ack was stamped before it landed, and lands before
                // the first window closes: which leaves acknowledged — not
                // how late — decides, at arrival or by the deadline timer.
                if let Some(t) = plan.read_at {
                    acks.push((leaves as u32, t % (lands + 1), plan.transactional));
                }
                leaves += 1;
            }
        }
        if resend {
            acks.extend(acks.first().copied());
        }
        let condition: Condition = DestinationSet::of(members).into();
        let per_batch = acks.len().div_ceil(split).max(1);
        let batches: Vec<Vec<_>> = acks.chunks(per_batch).map(<[_]>::to_vec).collect();

        let world = |attached, phantom| ack_path_world(&condition, leaves, &batches, lands, attached, phantom);
        let (by_trigger, trigger_restart) = world(true, false);
        let (by_queue, queue_restart) = world(false, false);
        let (after_phantom, phantom_restart) = world(true, true);
        prop_assert_eq!(&by_trigger, &by_queue, "groups {:?} batches {:?}", groups, batches);
        prop_assert_eq!(&trigger_restart, &queue_restart, "groups {:?} batches {:?}", groups, batches);
        prop_assert_eq!(&by_trigger, &after_phantom, "groups {:?} batches {:?}", groups, batches);
        prop_assert_eq!(trigger_restart, phantom_restart, "groups {:?} batches {:?}", groups, batches);
        prop_assert!(by_trigger[0].contains(" at "), "decided: {:?}", by_trigger);
    }
}
