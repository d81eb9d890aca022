//! Conditional messaging over real sockets.
//!
//! These tests run two queue managers in one process whose only message
//! path is loopback TCP: each side hosts a `TcpAcceptor` and reaches the
//! other through a `Channel::connect_tcp` mover. The full Fig. 8 protocol
//! — original message out, read-acks back, verdict, compensation — crosses
//! actual sockets with CRC-framed batches, and a fault test kills the
//! sockets mid-stream to show reconnect with exactly-one delivery.

use std::sync::Arc;
use std::time::Duration;

use condmsg::{
    ConditionalMessenger, ConditionalReceiver, Condition, Destination, MessageKind, MessageOutcome,
};
use mq::channel::Channel;
use mq::transport::tcp::{TcpAcceptor, TcpConfig, TcpTransport};
use mq::{Message, QueueAddress, QueueManager, SystemClock, Wait};
use simtime::Millis;

/// Two managers connected in both directions by loopback TCP only.
struct TcpCluster {
    sender_qm: Arc<QueueManager>,
    receiver_qm: Arc<QueueManager>,
    messenger: Arc<ConditionalMessenger>,
    send_acceptor: Arc<TcpAcceptor>,
    recv_acceptor: Arc<TcpAcceptor>,
    _channels: (Channel, Channel),
}

fn tcp_config() -> TcpConfig {
    TcpConfig {
        connect_timeout: Duration::from_millis(1000),
        read_timeout: Duration::from_millis(1500),
        heartbeat_interval: Duration::from_millis(200),
        backoff_initial: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        expected_peer: None, // filled in by connect_tcp from the route
    }
}

fn tcp_cluster() -> TcpCluster {
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
    // Each manager listens on an ephemeral loopback port…
    let send_acceptor = TcpAcceptor::bind(&sender_qm, "127.0.0.1:0").unwrap();
    let recv_acceptor = TcpAcceptor::bind(&receiver_qm, "127.0.0.1:0").unwrap();
    // …and dials the other.
    let ch_out = Channel::connect_tcp(
        &sender_qm,
        "QM.RECV",
        recv_acceptor.local_addr(),
        tcp_config(),
    )
    .unwrap();
    let ch_back = Channel::connect_tcp(
        &receiver_qm,
        "QM.SEND",
        send_acceptor.local_addr(),
        tcp_config(),
    )
    .unwrap();
    let messenger = ConditionalMessenger::new(sender_qm.clone()).unwrap();
    TcpCluster {
        sender_qm,
        receiver_qm,
        messenger,
        send_acceptor,
        recv_acceptor,
        _channels: (ch_out, ch_back),
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
fn fig8_success_flow_over_loopback_tcp() {
    let c = tcp_cluster();
    let id = c
        .messenger
        .send_message("over a real wire", &remote_condition(Millis(5_000)))
        .unwrap();

    // The receiver side runs in its own thread, as a remote process
    // would: it sees the message arrive over the socket, reads it through
    // the conditional-receiver system layer (which sends the read-ack
    // back over the reverse socket).
    let receiver_qm = c.receiver_qm.clone();
    let reader = std::thread::spawn(move || {
        let mut receiver =
            ConditionalReceiver::with_identity(receiver_qm, "remote-app").unwrap();
        let got = receiver
            .read_message("Q.IN", Wait::Timeout(Millis(5_000)))
            .unwrap()
            .expect("delivered over TCP");
        assert_eq!(got.kind(), MessageKind::Original);
        assert_eq!(got.payload_str(), Some("over a real wire"));
    });
    reader.join().unwrap();

    // Ack crossed back over the wire; the evaluation decides success.
    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(10_000)))
        .unwrap()
        .expect("outcome decided");
    assert_eq!(outcome.outcome, MessageOutcome::Success);

    // The traffic genuinely crossed sockets: both sides moved frames.
    // Transport bookkeeping is eventually consistent with delivery — the
    // sender's batches_sent only increments once the ack frame crosses
    // back, which races the outcome pipeline — so poll briefly.
    let settle = Duration::from_secs(5);
    wait_for("sender counted its batch", settle, || {
        c.sender_qm.metrics_snapshot().counter("mq.transport.batches_sent") >= 1
    });
    wait_for("ack path counted its batch", settle, || {
        c.receiver_qm.metrics_snapshot().counter("mq.transport.batches_sent") >= 1
    });
    let sent = c.sender_qm.metrics_snapshot();
    assert!(sent.counter("mq.transport.bytes_sent") > 0);
    let recv = c.receiver_qm.metrics_snapshot();
    assert!(recv.counter("mq.transport.messages_received") >= 1);

    c.sender_qm.shutdown();
    c.receiver_qm.shutdown();
}

#[test]
fn fig8_compensation_flow_over_loopback_tcp() {
    let c = tcp_cluster();
    let id = c
        .messenger
        .send_message_with_compensation(
            "original",
            "undo remotely",
            &remote_condition(Millis(200)),
        )
        .unwrap();

    // Nobody reads in time → failure verdict → the compensation crosses
    // the socket to annihilate the unread original.
    let outcome = c
        .messenger
        .take_outcome(id, Wait::Timeout(Millis(10_000)))
        .unwrap()
        .expect("verdict");
    assert_eq!(outcome.outcome, MessageOutcome::Failure);
    wait_for(
        "compensation delivered over TCP",
        Duration::from_secs(5),
        || c.receiver_qm.queue("Q.IN").map(|q| q.depth()).unwrap_or(0) == 2,
    );
    // Receiver-side system annihilates the original/compensation pair.
    let mut receiver = ConditionalReceiver::new(c.receiver_qm.clone()).unwrap();
    assert!(receiver
        .read_message("Q.IN", Wait::NoWait)
        .unwrap()
        .is_none());
    assert_eq!(c.receiver_qm.queue("Q.IN").unwrap().depth(), 0);

    c.sender_qm.shutdown();
    c.receiver_qm.shutdown();
}

#[test]
fn socket_kill_reconnects_with_exactly_one_delivery() {
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
    let acceptor = TcpAcceptor::bind(&receiver_qm, "127.0.0.1:0").unwrap();
    // Deterministic fault: the first batch is delivered on the receiver
    // but the connection dies before the ack, forcing the sender to
    // resend it after reconnect — the receiver's dedup must swallow the
    // duplicates.
    acceptor.inject_drop_before_ack(1);
    let _channel = Channel::connect_tcp(
        &sender_qm,
        "QM.RECV",
        acceptor.local_addr(),
        tcp_config(),
    )
    .unwrap();

    const N: usize = 50;
    for i in 0..N {
        sender_qm
            .put_to(
                &QueueAddress::new("QM.RECV", "Q.IN"),
                Message::text(format!("unique-{i}")).build(),
            )
            .unwrap();
        if i == N / 2 {
            // And an unannounced mid-stream cut on top.
            acceptor.kick_all();
        }
    }

    wait_for("all messages across the faults", Duration::from_secs(20), || {
        receiver_qm.queue("Q.IN").map(|q| q.depth()).unwrap_or(0) >= N
    });
    // Settle, then assert *exactly* N — no duplicate survived dedup…
    std::thread::sleep(Duration::from_millis(200));
    let q = receiver_qm.queue("Q.IN").unwrap();
    assert_eq!(q.depth(), N, "exactly one copy of each message");
    // …and no message was lost or replaced: every unique payload arrived.
    let mut payloads: Vec<String> = q
        .browse()
        .iter()
        .map(|m| m.payload_str().unwrap().to_owned())
        .collect();
    payloads.sort();
    payloads.dedup();
    assert_eq!(payloads.len(), N, "all payloads distinct");
    for i in 0..N {
        assert!(
            payloads.contains(&format!("unique-{i}")),
            "payload unique-{i} missing"
        );
    }

    // The faults actually happened and were survived the intended way.
    let sent = sender_qm.metrics_snapshot();
    assert!(
        sent.counter("mq.transport.reconnects") >= 1,
        "sender reconnected after the kills"
    );
    let recv = receiver_qm.metrics_snapshot();
    assert!(
        recv.counter("mq.relay.duplicates") >= 1,
        "receiver deduplicated the unacked batch's resend"
    );

    sender_qm.shutdown();
    receiver_qm.shutdown();
}

#[test]
fn manager_shutdown_stops_tcp_machinery_idempotently() {
    let c = tcp_cluster();
    // First shutdown joins movers and acceptors; the second must be a
    // no-op rather than a hang or panic.
    c.sender_qm.shutdown();
    c.sender_qm.shutdown();
    c.receiver_qm.shutdown();
    c.receiver_qm.shutdown();
    // Direct acceptor shutdown after the manager already stopped it is
    // also harmless (idempotent at both layers).
    c.send_acceptor.shutdown();
    c.recv_acceptor.shutdown();
    // The managers themselves still serve local traffic.
    assert!(c.sender_qm.is_running());
    c.sender_qm.create_queue("Q.LOCAL").unwrap();
    c.sender_qm
        .put("Q.LOCAL", Message::text("still alive").build())
        .unwrap();
    assert_eq!(c.sender_qm.queue("Q.LOCAL").unwrap().depth(), 1);
}

#[test]
fn heartbeats_keep_idle_connections_verified() {
    let clock = SystemClock::new();
    let receiver_qm = QueueManager::builder("QM.RECV").clock(clock).build().unwrap();
    let acceptor = TcpAcceptor::bind(&receiver_qm, "127.0.0.1:0").unwrap();
    let registry = mq::MetricsRegistry::new();
    let transport = TcpTransport::connect(
        "QM.SEND",
        acceptor.local_addr(),
        TcpConfig {
            heartbeat_interval: Duration::from_millis(30),
            ..tcp_config()
        },
        &registry,
    )
    .unwrap();
    wait_for("heartbeats on an idle connection", Duration::from_secs(5), || {
        registry.snapshot().counter("mq.transport.heartbeats") >= 3
    });
    assert_eq!(registry.snapshot().counter("mq.transport.heartbeat_misses"), 0);
    mq::Transport::shutdown(&*transport);
    receiver_qm.shutdown();
}
