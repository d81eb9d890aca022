//! Integration coverage for the observability layer: the shared metrics
//! registry exposed through every service facade, and the message-lifecycle
//! trace (send → fan-out → acknowledgments → verdict → outcome actions)
//! recorded against simulated time.
//!
//! The compensation-path test mirrors the paper's Fig. 8 flow: a consumed
//! original whose condition fails is followed by its compensation message;
//! an unread original annihilates with the compensation instead.

use std::sync::Arc;

use condmsg::config::ACK_BATCH;
use condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, DestinationSet, MessageKind,
    MessageOutcome, SendOptions,
};
use dsphere::DSphereService;
use mq::{QueueManager, TraceStage, Wait};
use simtime::{Millis, SimClock};

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

/// Asserts that `expected` appears as a subsequence of `stages` (other
/// events may be interleaved, but the expected ones keep their order).
fn assert_stage_order(stages: &[TraceStage], expected: &[TraceStage]) {
    let mut rest = stages.iter();
    for want in expected {
        assert!(
            rest.any(|s| s == want),
            "stage {want:?} missing or out of order; expected subsequence {expected:?}, \
             full trace {stages:?}"
        );
    }
}

#[test]
fn success_path_lifecycle_trace() {
    let w = world(&["Q.A", "Q.B"]);
    // Bob only has to pick the message up; Alice must process it — so the
    // trace shows both ack kinds, like the paper's readAck / processAck.
    let condition: Condition = DestinationSet::of(vec![
        Destination::queue("QM1", "Q.A")
            .recipient("alice")
            .process_within(Millis(1_000))
            .into(),
        Destination::queue("QM1", "Q.B").recipient("bob").into(),
    ])
    .pickup_within(Millis(1_000))
    .into();
    let id = w
        .messenger
        .send_with(
            "signed contract",
            Some("withdraw contract".into()),
            &condition,
            SendOptions {
                success_notifications: Some(true),
                ..SendOptions::default()
            },
        )
        .unwrap();

    w.clock.advance(Millis(10));
    let mut bob = ConditionalReceiver::with_identity(w.qmgr.clone(), "bob").unwrap();
    bob.read_message("Q.B", Wait::NoWait).unwrap().unwrap();
    let mut alice = ConditionalReceiver::with_identity(w.qmgr.clone(), "alice").unwrap();
    alice.begin_tx().unwrap();
    alice.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    alice.commit_tx().unwrap();
    let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);

    let stages = w.messenger.trace().stages_for(id.as_u128());
    assert_stage_order(
        &stages,
        &[
            TraceStage::Send,
            TraceStage::FanOut,
            TraceStage::FanOut,
            TraceStage::ReadAck,
            TraceStage::ProcessAck,
            TraceStage::Verdict,
            TraceStage::SuccessNotify,
            TraceStage::CompensationConsumed,
        ],
    );
    // The parked compensation is consumed for both leaves, never released.
    assert!(!stages.contains(&TraceStage::CompensationReleased));
    let events = w.messenger.trace().events_for(id.as_u128());
    let verdict = events
        .iter()
        .find(|e| e.stage == TraceStage::Verdict)
        .unwrap();
    assert_eq!(&*verdict.detail, "success");
}

#[test]
fn compensation_path_lifecycle_trace() {
    // Fig. 8: the original is consumed, the condition later fails, so the
    // compensation is released to the destination and delivered to the
    // consumer on its next read.
    let w = world(&["Q.A"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .recipient("alice")
        .process_within(Millis(100))
        .into();
    let id = w
        .messenger
        .send_message_with_compensation("book flight", "cancel flight", &condition)
        .unwrap();

    w.clock.advance(Millis(10));
    let mut receiver = ConditionalReceiver::with_identity(w.qmgr.clone(), "alice").unwrap();
    let original = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(original.kind(), MessageKind::Original);

    // Nobody commits a processing ack within the window: failure.
    w.clock.advance(Millis(200));
    let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);

    // The released compensation reaches the consumer.
    let comp = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(comp.kind(), MessageKind::Compensation);
    assert_eq!(comp.payload_str(), Some("cancel flight"));

    let stages = w.messenger.trace().stages_for(id.as_u128());
    assert_stage_order(
        &stages,
        &[
            TraceStage::Send,
            TraceStage::FanOut,
            TraceStage::ReadAck,
            TraceStage::Verdict,
            TraceStage::CompensationReleased,
            TraceStage::CompensationDelivered,
        ],
    );
    let events = w.messenger.trace().events_for(id.as_u128());
    let verdict = events
        .iter()
        .find(|e| e.stage == TraceStage::Verdict)
        .unwrap();
    assert!(verdict.detail.starts_with("failure"), "{}", verdict.detail);
}

#[test]
fn annihilation_path_lifecycle_trace() {
    // Fig. 8's other leg: the original is never read, so the released
    // compensation annihilates with it instead of being delivered.
    let w = world(&["Q.A", "Q.B"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(100))
        .into();
    let id = w
        .messenger
        .send_message_with_compensation("offer", "rescind offer", &condition)
        .unwrap();
    w.clock.advance(Millis(200));
    let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);

    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    assert!(receiver
        .read_message("Q.A", Wait::NoWait)
        .unwrap()
        .is_none());
    assert_eq!(w.qmgr.queue("Q.A").unwrap().depth(), 0);

    let stages = w.messenger.trace().stages_for(id.as_u128());
    assert_stage_order(
        &stages,
        &[
            TraceStage::Send,
            TraceStage::FanOut,
            TraceStage::Verdict,
            TraceStage::CompensationReleased,
            TraceStage::Annihilated,
        ],
    );
    assert!(!stages.contains(&TraceStage::CompensationDelivered));
}

#[test]
fn end_to_end_run_populates_registry_across_layers() {
    // One success, one compensated failure, and one D-Sphere commit on a
    // single shared hub; the snapshot then shows every layer reporting.
    let w = world(&["Q.A", "Q.B"]);
    let ok: Condition = DestinationSet::of(vec![
        Destination::queue("QM1", "Q.A").recipient("alice").into(),
        Destination::queue("QM1", "Q.B").recipient("bob").into(),
    ])
    .process_within(Millis(1_000))
    .into();
    let id = w.messenger.send_message("all good", &ok).unwrap();
    w.clock.advance(Millis(5));
    for (who, q) in [("alice", "Q.A"), ("bob", "Q.B")] {
        let mut receiver = ConditionalReceiver::with_identity(w.qmgr.clone(), who).unwrap();
        receiver.begin_tx().unwrap();
        receiver.read_message(q, Wait::NoWait).unwrap().unwrap();
        receiver.commit_tx().unwrap();
    }
    let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);

    let failing: Condition = Destination::queue("QM1", "Q.A")
        .recipient("alice")
        .process_within(Millis(50))
        .into();
    let id = w
        .messenger
        .send_message_with_compensation("doomed", "undo", &failing)
        .unwrap();
    let mut alice = ConditionalReceiver::with_identity(w.qmgr.clone(), "alice").unwrap();
    alice.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    w.clock.advance(Millis(100));
    let outcome = w.messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    alice.read_message("Q.A", Wait::NoWait).unwrap().unwrap();

    let spheres = DSphereService::new(w.messenger.clone());
    let mut sphere = spheres.begin();
    sphere.try_commit().unwrap();

    // All three facades expose the same shared registry.
    let from_messenger = w.messenger.metrics_snapshot();
    let from_qmgr = w.qmgr.metrics_snapshot();
    let from_spheres = spheres.metrics_snapshot();
    assert_eq!(from_messenger.render(), from_qmgr.render());
    assert_eq!(from_messenger.render(), from_spheres.render());

    let snapshot = from_messenger;
    assert!(
        snapshot.populated() >= 15,
        "expected at least 15 populated metrics, got {}:\n{}",
        snapshot.populated(),
        snapshot.render()
    );
    // Spot-check one counter per layer and component.
    assert_eq!(snapshot.counter("cond.sent"), 2);
    assert_eq!(snapshot.counter("cond.fanout"), 3);
    assert_eq!(snapshot.counter("cond.verdict.success"), 1);
    assert_eq!(snapshot.counter("cond.verdict.failure"), 1);
    assert_eq!(snapshot.counter("cond.comp.released"), 1);
    assert_eq!(snapshot.counter("cond.recv.originals"), 3);
    assert_eq!(snapshot.counter("cond.recv.comp_delivered"), 1);
    assert_eq!(snapshot.counter("dsphere.begun"), 1);
    assert_eq!(snapshot.counter("dsphere.committed"), 1);
    assert!(snapshot.counter("mq.queue.Q.A.enqueued") >= 2);
    assert!(snapshot.counter("mq.tx.committed") >= 2);
    let lag = snapshot.histograms.get("cond.ack.lag_ms").unwrap();
    assert!(lag.count >= 2, "ack lag histogram saw {} samples", lag.count);
    // Acks are applied through the incremental core.
    assert!(
        snapshot.counter("cond.eval.incremental_updates") > 0,
        "ack arrival applied incremental updates"
    );
    let batch = snapshot.histograms.get("cond.ack.batch_size").unwrap();
    assert!(
        batch.count >= 1,
        "ack draining records batch sizes, saw {} samples",
        batch.count
    );
}

#[test]
fn evaluation_engine_reports_metrics() {
    // The evaluation engine populates its own instruments: incremental
    // leaf updates on ack arrival, deadline-timer fires, and the size of
    // each drained ack batch.
    let w = world(&["Q.A", "Q.B"]);
    let condition: Condition = Destination::queue("QM1", "Q.A")
        .pickup_within(Millis(100))
        .into();

    // Ack-driven decision: the read's acknowledgment is drained and
    // applied incrementally, no pump involved.
    let id = w.messenger.send_message("picked up", &condition).unwrap();
    w.clock.advance(Millis(5));
    let mut receiver = ConditionalReceiver::new(w.qmgr.clone()).unwrap();
    receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    let success = w
        .messenger
        .take_outcome(id, Wait::NoWait)
        .unwrap()
        .expect("decided on ack arrival");
    assert_eq!(success.outcome, MessageOutcome::Success);

    // Deadline-driven decision: the armed timer fires during the advance.
    let id = w.messenger.send_message("never read", &condition).unwrap();
    w.clock.advance(Millis(500));
    let failure = w
        .messenger
        .take_outcome(id, Wait::NoWait)
        .unwrap()
        .expect("decided by the deadline timer");
    assert_eq!(failure.outcome, MessageOutcome::Failure);

    let snapshot = w.messenger.metrics_snapshot();
    assert!(
        snapshot.counter("cond.eval.incremental_updates") > 0,
        "ack arrival applied incremental updates"
    );
    assert!(
        snapshot.counter("cond.eval.timer_fires") >= 1,
        "deadline decision came from a timer fire"
    );
    let batch = snapshot.histograms.get("cond.ack.batch_size").unwrap();
    assert!(
        batch.count >= 1,
        "ack draining recorded a batch, saw {} samples",
        batch.count
    );
    // The fast path was the live path: no ack was ever queued.
    assert_eq!(snapshot.counters.get("cond.ack.queued"), Some(&0));

    // An ack that lands while no messenger is attached is queued; the next
    // messenger drains it at attach time and says so.
    let World { clock, qmgr, messenger } = w;
    let id = messenger.send_message("read while detached", &condition).unwrap();
    drop(messenger);
    clock.advance(Millis(5));
    receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 1);
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
    assert!(messenger.take_outcome(id, Wait::NoWait).unwrap().is_some());
    assert_eq!(qmgr.metrics_snapshot().counter("cond.ack.queued"), 1);

    // A backlog drains in batches: N queued acks cost ceil(N / ACK_BATCH)
    // transactions at attach time. Only Q.A of each two-leaf message is
    // read, so the drain decides nothing and every transaction is a batch.
    let backlog = 2 * ACK_BATCH + 1;
    let pair: Condition = DestinationSet::of(vec![
        Destination::queue("QM1", "Q.A").into(),
        Destination::queue("QM1", "Q.B").into(),
    ])
    .pickup_within(Millis(100))
    .into();
    for _ in 0..backlog {
        messenger.send_message("backlog", &pair).unwrap();
    }
    drop(messenger);
    for _ in 0..backlog {
        receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    }
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), backlog);
    let committed = || qmgr.metrics_snapshot().counter("mq.tx.committed");
    let before = committed();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    assert_eq!(committed() - before, backlog.div_ceil(ACK_BATCH) as u64);
    assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
    assert_eq!(messenger.pending_count(), backlog);
    assert_eq!(
        qmgr.metrics_snapshot().counter("cond.ack.queued"),
        1 + backlog as u64
    );
}
