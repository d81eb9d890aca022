//! Integration of the extension surfaces: durable topics, conditional
//! publish, and push listeners — including across queue managers.

use std::sync::Arc;
use std::time::Duration;

use condmsg::{
    ConditionalListener, ConditionalMessenger, DestinationSet, MessageKind, MessageOutcome,
    Processing, SendOptions,
};
use mq::channel::Channel;
use mq::topic::Topic;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{Message, QueueManager, SystemClock, Wait};
use simtime::Millis;

/// Joins `a` and `b` with a channel each way over loopback TCP.
fn duplex(a: &Arc<QueueManager>, b: &Arc<QueueManager>) -> [Channel; 2] {
    [(a, b), (b, a)].map(|(from, to)| {
        let acceptor = TcpAcceptor::bind(to, "127.0.0.1:0").unwrap();
        Channel::connect_tcp(from, to.name(), acceptor.local_addr(), TcpConfig::default()).unwrap()
    })
}

fn wait_for<F: Fn() -> bool>(what: &str, f: F) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !f() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn conditional_publish_processed_by_listeners() {
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let topic = Topic::open(qmgr.clone(), "jobs").unwrap();

    // Three subscriber desks, each served by a push listener that
    // processes transactionally (→ processed-acks).
    let mut listeners = Vec::new();
    for name in ["d1", "d2", "d3"] {
        let queue = topic.subscribe(name).unwrap();
        listeners.push(
            ConditionalListener::spawn(
                qmgr.clone(),
                queue,
                Some(name.to_string()),
                Box::new(|_msg| Processing::Commit),
            )
            .unwrap(),
        );
    }

    // Require processing by at least 2 of the 3 subscribers.
    let template = DestinationSet::empty()
        .process_within(Millis(5_000))
        .min_process(2);
    let (id, n) = messenger
        .publish_conditional(&topic, "batch job 7", None, &template, SendOptions::default())
        .unwrap();
    assert_eq!(n, 3);
    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .expect("decided");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    // The outcome is decided at min_process = 2; the third listener may
    // still be mid-commit, so poll rather than assert instantly.
    wait_for("every subscriber processed its copy", || {
        listeners.iter().map(|l| l.stats().delivered.get()).sum::<u64>() == 3
    });
}

#[test]
fn topic_fanout_to_remote_subscriber_queue() {
    // The topic lives on QM.HUB; one subscriber drains its subscription
    // queue from a remote manager via a channel (subscription queues are
    // plain queues, so standard store-and-forward applies to relays).
    let clock = SystemClock::new();
    let hub = QueueManager::builder("QM.HUB")
        .clock(clock.clone())
        .build()
        .unwrap();
    let edge = QueueManager::builder("QM.EDGE")
        .clock(clock)
        .build()
        .unwrap();
    edge.create_queue("EDGE.IN").unwrap();
    let _channels = duplex(&hub, &edge);

    let topic = Topic::open(hub.clone(), "relay").unwrap();
    let local_q = topic.subscribe("local").unwrap();
    let relay_q = topic.subscribe("relay-to-edge").unwrap();
    // A relay listener forwards the subscription's messages to the edge
    // manager, atomically with their consumption.
    let _relay = mq::listener::Listener::spawn(
        hub.clone(),
        relay_q,
        Box::new(|msg, session| {
            let addr = mq::QueueAddress::new("QM.EDGE", "EDGE.IN");
            session
                .put_to(
                    &addr,
                    Message::text(msg.payload_str().unwrap_or("")).build(),
                )
                .expect("stage relay");
            mq::listener::Disposition::Commit
        }),
    )
    .unwrap();

    topic
        .publish(Message::text("tick").persistent(true).build())
        .unwrap();
    wait_for("local copy", || hub.queue(&local_q).unwrap().depth() == 1);
    wait_for("edge relay", || edge.queue("EDGE.IN").unwrap().depth() == 1);
    let got = edge.get("EDGE.IN", Wait::NoWait).unwrap().unwrap();
    assert_eq!(got.payload_str(), Some("tick"));
}

#[test]
fn quorum_failure_withdraws_from_all_subscribers() {
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let topic = Topic::open(qmgr.clone(), "votes").unwrap();
    let q_active = topic.subscribe("active").unwrap();
    topic.subscribe("idle-1").unwrap();
    topic.subscribe("idle-2").unwrap();

    // Only one desk is listening; quorum of 2 fails.
    let listener = ConditionalListener::spawn(
        qmgr.clone(),
        q_active.clone(),
        None,
        Box::new(|_msg| Processing::Commit),
    )
    .unwrap();
    let (id, _) = messenger
        .publish_conditional(
            &topic,
            "proposal #9",
            Some("proposal withdrawn".into()),
            &DestinationSet::empty().pickup_within(Millis(150)).min_pickup(2),
            SendOptions {
                evaluation_timeout: Some(Millis(200)),
                ..SendOptions::default()
            },
        )
        .unwrap();
    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .expect("decided");
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    // The active subscriber consumed its copy, so its compensation is
    // *delivered* (through the same listener); the idle subscribers'
    // copies annihilate.
    wait_for("compensation via listener", || {
        listener.stats().delivered.get() >= 2
    });
    for idle in ["TOPIC.votes.idle-1", "TOPIC.votes.idle-2"] {
        let mut receiver = condmsg::ConditionalReceiver::new(qmgr.clone()).unwrap();
        assert!(receiver.read_message(idle, Wait::NoWait).unwrap().is_none());
        assert_eq!(qmgr.queue(idle).unwrap().depth(), 0, "{idle} annihilated");
    }
}

#[test]
fn listener_delivers_compensation_with_kind_visible() {
    // A listener sees original and compensation as distinct kinds.
    let qmgr = QueueManager::builder("QM1").build().unwrap();
    qmgr.create_queue("Q").unwrap();
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let kinds = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let kinds2 = kinds.clone();
    let _listener = ConditionalListener::spawn(
        qmgr.clone(),
        "Q",
        None,
        Box::new(move |msg| {
            kinds2.lock().push(msg.kind());
            Processing::Commit
        }),
    )
    .unwrap();
    let condition: condmsg::Condition = condmsg::Destination::queue("QM1", "Q")
        .process_within(Millis(60))
        .pickup_within(Millis(60))
        .into();
    // Success path: the listener processes in time and the only delivery
    // it sees is the original (compensation delivery through a listener is
    // covered by quorum_failure_withdraws_from_all_subscribers).
    let id = messenger.send_message("work", &condition).unwrap();
    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))
        .unwrap()
        .expect("decided");
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    wait_for("one delivery", || !kinds.lock().is_empty());
    assert_eq!(kinds.lock()[0], MessageKind::Original);
}
