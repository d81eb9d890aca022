//! Cross-queue-manager integration: conditional messages and their
//! acknowledgments travelling over store-and-forward channels on loopback
//! TCP, with lost acknowledgments and partitions injected at the
//! receiving acceptors.
//!
//! This is the paper's distributed architecture (§2.4: "Responsibilities
//! of conditional messaging are distributed between the sender side and
//! the various receiver sides, with message communication taking place in
//! both directions").

use std::sync::Arc;
use std::time::Duration;

use condmsg::{
    CondConfig, Condition, ConditionalMessenger, ConditionalReceiver, Destination, DestinationSet,
    MessageKind, MessageOutcome, SendOptions,
};
use mq::channel::Channel;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{FaultAction, FaultPlane, QueueManager, SystemClock, Wait};
use simtime::Millis;

struct Cluster {
    receiver_qm: Arc<QueueManager>,
    messenger: Arc<ConditionalMessenger>,
    /// The receiver's acceptor: the fault point of the forward path.
    forward: Arc<TcpAcceptor>,
    /// The sender's acceptor: the fault point of the acknowledgment path.
    back: Arc<TcpAcceptor>,
    _channels: (Channel, Channel),
}

/// `from -> to` over loopback TCP, with `to`'s acceptor as the fault point.
fn connect(from: &Arc<QueueManager>, to: &Arc<QueueManager>) -> (Channel, Arc<TcpAcceptor>) {
    let acceptor = TcpAcceptor::bind(to, "127.0.0.1:0").unwrap();
    let config = TcpConfig {
        backoff_max: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let channel = Channel::connect_tcp(from, to.name(), acceptor.local_addr(), config).unwrap();
    (channel, acceptor)
}

fn cluster() -> Cluster {
    cluster_with(CondConfig::default())
}

fn cluster_with(config: CondConfig) -> Cluster {
    let clock = SystemClock::new();
    let sender_qm = QueueManager::builder("QM.SEND")
        .clock(clock.clone())
        .build()
        .unwrap();
    let receiver_qm = QueueManager::builder("QM.RECV")
        .clock(clock)
        .build()
        .unwrap();
    receiver_qm.create_queue("Q.IN").unwrap();
    let (out, forward) = connect(&sender_qm, &receiver_qm);
    let (ack_path, back) = connect(&receiver_qm, &sender_qm);
    let messenger = ConditionalMessenger::with_config(sender_qm, config).unwrap();
    Cluster {
        receiver_qm,
        messenger,
        forward,
        back,
        _channels: (out, ack_path),
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
    let deadline = std::time::Instant::now() + timeout;
    while !f() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn remote_condition(window: Millis) -> Condition {
    Destination::queue("QM.RECV", "Q.IN")
        .pickup_within(window)
        .into()
}

#[test]
fn remote_destination_and_ack_roundtrip() {
    let c = cluster();
    let id = c
        .messenger
        .send_message("over the wire", &remote_condition(Millis(2_000)))
        .unwrap();

    // Message crosses the channel to QM.RECV.
    wait_for("remote delivery", Duration::from_secs(5), || {
        c.receiver_qm.queue("Q.IN").map(|q| q.depth()).unwrap_or(0) == 1
    });
    let mut receiver =
        ConditionalReceiver::with_identity(c.receiver_qm.clone(), "remote-app").unwrap();
    let got = receiver
        .read_message("Q.IN", Wait::Timeout(Millis(1_000)))
        .unwrap()
        .unwrap();
    assert_eq!(got.kind(), MessageKind::Original);
    assert_eq!(got.payload_str(), Some("over the wire"));

    // The read-ack travels back over the reverse channel and the
    // evaluation manager decides success.
    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .expect("outcome decided");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn lossy_links_delay_but_do_not_lose_the_protocol() {
    // The first deliveries each way land but lose their acks: the original
    // and the read-ack are both sent again, and dropped as copies.
    let c = cluster();
    for acceptor in [&c.forward, &c.back] {
        acceptor.apply_fault(FaultAction::DropNext(2)).unwrap();
    }
    let id = c
        .messenger
        .send_message("retry until delivered", &remote_condition(Millis(10_000)))
        .unwrap();

    let mut receiver = ConditionalReceiver::new(c.receiver_qm.clone()).unwrap();
    let got = receiver
        .read_message("Q.IN", Wait::Timeout(Millis(8_000)))
        .unwrap()
        .expect("delivered despite drops");
    assert_eq!(got.kind(), MessageKind::Original);
    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(8_000)))
        .unwrap()
        .expect("ack survived drops");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    assert_eq!(
        c.receiver_qm.queue("Q.IN").unwrap().depth(),
        0,
        "delivered once"
    );
}

#[test]
fn partition_during_ack_fails_only_by_deadline() {
    // Forward link fine; the *ack* path is partitioned long enough that
    // the pick-up happens in time but the sender cannot learn about it
    // before the deadline. With an ack grace configured (the paper's
    // "20 s condition, 21 s timeout" pattern), the verdict depends on the
    // ack's *timestamps*, so the late-arriving ack with a timely read
    // timestamp still satisfies the condition.
    let c = cluster_with(CondConfig {
        ack_grace: Millis(10_000),
    });
    c.back.apply_fault(FaultAction::Partition).unwrap();

    let id = c
        .messenger
        .send_message("partitioned ack", &remote_condition(Millis(400)))
        .unwrap();
    let mut receiver = ConditionalReceiver::new(c.receiver_qm.clone()).unwrap();
    receiver
        .read_message("Q.IN", Wait::Timeout(Millis(1_000)))
        .unwrap()
        .expect("delivered promptly");

    // Heal after the deadline: the ack arrives late but carries a timely
    // read timestamp.
    std::thread::sleep(Duration::from_millis(600));
    c.back.apply_fault(FaultAction::Heal).unwrap();
    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .expect("decided after heal");
    assert_eq!(
        outcome.outcome,
        MessageOutcome::Success,
        "timely read, late ack: still a success ({:?})",
        outcome.reason
    );
}

#[test]
fn evaluation_timeout_bounds_partition_waits() {
    // Same partition, but the sender set an evaluation timeout shorter
    // than the outage: the message fails even though it was read in time —
    // exactly the trade-off the paper's timeout exists for.
    let c = cluster_with(CondConfig {
        ack_grace: Millis(10_000),
    });
    c.back.apply_fault(FaultAction::Partition).unwrap();

    let id = c
        .messenger
        .send_with(
            "bounded wait",
            None,
            &remote_condition(Millis(300)),
            SendOptions {
                evaluation_timeout: Some(Millis(500)),
                ..SendOptions::default()
            },
        )
        .unwrap();
    let mut receiver = ConditionalReceiver::new(c.receiver_qm.clone()).unwrap();
    receiver
        .read_message("Q.IN", Wait::Timeout(Millis(1_000)))
        .unwrap()
        .expect("delivered promptly");

    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .expect("timeout decides");
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    assert!(outcome.reason.as_deref().unwrap().contains("timeout"));
    c.back.apply_fault(FaultAction::Heal).unwrap();
}

#[test]
fn compensation_crosses_managers_on_failure() {
    let c = cluster();
    let id = c
        .messenger
        .send_message_with_compensation("original", "undo remotely", &remote_condition(Millis(150)))
        .unwrap();
    // Nobody reads in time → failure → compensation crosses the channel.
    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    wait_for(
        "compensation delivered remotely",
        Duration::from_secs(5),
        || c.receiver_qm.queue("Q.IN").map(|q| q.depth()).unwrap_or(0) == 2,
    );
    // Receiver-side system annihilates the pair.
    let mut receiver = ConditionalReceiver::new(c.receiver_qm.clone()).unwrap();
    assert!(receiver
        .read_message("Q.IN", Wait::NoWait)
        .unwrap()
        .is_none());
    assert_eq!(c.receiver_qm.queue("Q.IN").unwrap().depth(), 0);
}

#[test]
fn fan_out_across_two_managers() {
    let clock = SystemClock::new();
    let sender_qm = QueueManager::builder("QM.SEND")
        .clock(clock.clone())
        .build()
        .unwrap();
    sender_qm.create_queue("Q.LOCAL").unwrap();
    let remote_qm = QueueManager::builder("QM.RECV")
        .clock(clock)
        .build()
        .unwrap();
    remote_qm.create_queue("Q.FAR").unwrap();
    let _channels = (
        connect(&sender_qm, &remote_qm),
        connect(&remote_qm, &sender_qm),
    );
    let messenger = ConditionalMessenger::new(sender_qm.clone()).unwrap();

    let condition: Condition = DestinationSet::of(vec![
        Destination::queue("QM.SEND", "Q.LOCAL").into(),
        Destination::queue("QM.RECV", "Q.FAR").into(),
    ])
    .pickup_within(Millis(3_000))
    .into();
    let id = messenger.send_message("mixed fan-out", &condition).unwrap();

    let mut local = ConditionalReceiver::new(sender_qm.clone()).unwrap();
    local
        .read_message("Q.LOCAL", Wait::Timeout(Millis(1_000)))
        .unwrap()
        .expect("local leg");
    let mut remote = ConditionalReceiver::new(remote_qm.clone()).unwrap();
    remote
        .read_message("Q.FAR", Wait::Timeout(Millis(3_000)))
        .unwrap()
        .expect("remote leg");

    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .unwrap();
    assert_eq!(outcome.outcome, MessageOutcome::Success);
}

#[test]
fn example1_with_recipients_on_three_managers() {
    // The paper's Fig. 1 topology, distributed: the sender runs on QM.HQ;
    // receiver3 has its own manager, the other three share another, all
    // linked by channels. The Fig. 4 condition evaluates exactly as in the
    // local case because acks carry timestamps, not arrival times.
    let clock = SystemClock::new();
    let hq = QueueManager::builder("QM.HQ")
        .clock(clock.clone())
        .build()
        .unwrap();
    let site_a = QueueManager::builder("QM.A")
        .clock(clock.clone())
        .build()
        .unwrap();
    let site_b = QueueManager::builder("QM.B").clock(clock).build().unwrap();
    site_a.create_queue("Q.R3").unwrap();
    for q in ["Q.R1", "Q.R2", "Q.R4"] {
        site_b.create_queue(q).unwrap();
    }
    let _ch_a = (connect(&hq, &site_a), connect(&site_a, &hq));
    let _ch_b = (connect(&hq, &site_b), connect(&site_b, &hq));

    let messenger = ConditionalMessenger::with_config(
        hq.clone(),
        CondConfig {
            ack_grace: Millis(2_000),
        },
    )
    .unwrap();

    // Fig. 4, scaled: one "day" = 500 ms.
    const DAY: u64 = 500;
    let qr3 = Destination::queue("QM.A", "Q.R3")
        .recipient("receiver3")
        .process_within(Millis(7 * DAY));
    let others = DestinationSet::of(vec![
        Destination::queue("QM.B", "Q.R1").into(),
        Destination::queue("QM.B", "Q.R2").into(),
        Destination::queue("QM.B", "Q.R4").into(),
    ])
    .process_within(Millis(11 * DAY))
    .min_process(2);
    let condition: Condition = DestinationSet::of(vec![qr3.into(), others.into()])
        .pickup_within(Millis(2 * DAY))
        .into();
    let id = messenger
        .send_message("distributed meeting", &condition)
        .unwrap();

    // receiver3 processes transactionally on its own manager.
    let r3 = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::with_identity(site_a, "receiver3").unwrap();
        receiver.begin_tx().unwrap();
        receiver
            .read_message("Q.R3", Wait::Timeout(Millis(3_000)))
            .unwrap()
            .expect("r3 leg delivered");
        receiver.commit_tx().unwrap();
    });
    // On site B: r1 processes, r2 reads only, r4 processes → 2 of 3.
    let rb = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::new(site_b).unwrap();
        for (queue, process) in [("Q.R1", true), ("Q.R2", false), ("Q.R4", true)] {
            if process {
                receiver.begin_tx().unwrap();
            }
            receiver
                .read_message(queue, Wait::Timeout(Millis(3_000)))
                .unwrap()
                .expect("site-b leg delivered");
            if process {
                receiver.commit_tx().unwrap();
            }
        }
    });
    r3.join().unwrap();
    rb.join().unwrap();

    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(10_000)))
        .unwrap()
        .expect("decided");
    assert_eq!(
        outcome.outcome,
        MessageOutcome::Success,
        "distributed Fig. 4 scenario succeeds: {:?}",
        outcome.reason
    );
}
