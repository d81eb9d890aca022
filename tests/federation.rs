//! Relay federation: multi-hop routing across queue managers.
//!
//! A federation is a graph of channels where no manager needs a direct
//! channel to every other: an envelope addressed to `QM.C` may cross
//! `QM.A → QM.B → QM.C`, with `QM.B` acting as a relay. These tests prove
//! the three federation guarantees end to end:
//!
//! * envelopes addressed to another manager are *relayed*, never accepted
//!   as local delivery (the misdelivery regression) and never silently
//!   dropped (no viable next hop dead-letters with a reason);
//! * the custody handoff at each relay is journaled, so a relay crash
//!   mid-handoff loses nothing and the upstream retry cannot
//!   double-deliver (journal-reseeded origin+id dedup);
//! * the full Fig. 8 conditional-messaging protocol — originals out,
//!   read-acks back, verdicts, compensations — works across a 3-manager
//!   chain over loopback TCP with the middle relay crashed and rebuilt
//!   mid-flight, every message reaching exactly one of
//!   success / compensation+annihilation.

use std::sync::Arc;
use std::time::Duration;

use condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageKind, MessageOutcome,
};
use mq::channel::Channel;
use mq::journal::MemJournal;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{
    Message, QueueAddress, QueueManager, SystemClock, Wait, DEAD_LETTER_QUEUE, DLQ_REASON_PROPERTY,
    RELAY_HOPS_PROPERTY, RELAY_ORIGIN_PROPERTY,
};
use simtime::Millis;

fn tcp_config() -> TcpConfig {
    TcpConfig {
        connect_timeout: Duration::from_millis(1000),
        read_timeout: Duration::from_millis(1500),
        heartbeat_interval: Duration::from_millis(200),
        backoff_initial: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        expected_peer: None,
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
    let deadline = std::time::Instant::now() + timeout;
    while !f() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn depth(qm: &Arc<QueueManager>, queue: &str) -> usize {
    qm.queue(queue).map(|q| q.depth()).unwrap_or(0)
}

/// `QM.A → QM.B → QM.C` over loopback TCP: `QM.A` has no channel to
/// `QM.C` at all; its default route sends everything through `QM.B`,
/// which relays. The envelope must *not* be accepted locally at `QM.B`
/// even though `QM.B` owns a queue with the same name.
#[test]
fn chain_relays_across_three_managers_over_tcp() {
    let clock = SystemClock::new();
    let a = QueueManager::builder("QM.A").clock(clock.clone()).build().unwrap();
    let b = QueueManager::builder("QM.B").clock(clock.clone()).build().unwrap();
    let c = QueueManager::builder("QM.C").clock(clock).build().unwrap();
    // Same-named queue on the relay: the misdelivery bug would deliver
    // here instead of forwarding.
    b.create_queue("Q.IN").unwrap();
    c.create_queue("Q.IN").unwrap();

    let acc_b = TcpAcceptor::bind(&b, "127.0.0.1:0").unwrap();
    let acc_c = TcpAcceptor::bind(&c, "127.0.0.1:0").unwrap();
    let _ab = Channel::connect_tcp(&a, "QM.B", acc_b.local_addr(), tcp_config()).unwrap();
    let _bc = Channel::connect_tcp(&b, "QM.C", acc_c.local_addr(), tcp_config()).unwrap();
    // QM.A knows nothing about QM.C except "everything unknown goes via
    // QM.B".
    a.define_default_route(&["SYSTEM.XMIT.QM.B"]).unwrap();

    a.put_to(
        &QueueAddress::new("QM.C", "Q.IN"),
        Message::text("two hops").build(),
    )
    .unwrap();

    wait_for("relayed delivery at QM.C", Duration::from_secs(10), || {
        depth(&c, "Q.IN") == 1
    });
    assert_eq!(depth(&b, "Q.IN"), 0, "relay must not accept locally");
    assert_eq!(depth(&b, DEAD_LETTER_QUEUE), 0);

    let got = c.get("Q.IN", Wait::NoWait).unwrap().unwrap();
    assert_eq!(got.payload_str(), Some("two hops"));
    // Transmission headers are stripped; the relay audit trail survives.
    assert!(got.property(mq::XMIT_DEST_QUEUE_PROPERTY).is_none());
    assert!(got.property(mq::XMIT_DEST_MANAGER_PROPERTY).is_none());
    assert_eq!(got.str_property(RELAY_ORIGIN_PROPERTY), Some("QM.A"));
    assert_eq!(got.i64_property(RELAY_HOPS_PROPERTY), Some(1));

    // QM.B counts the forward after its arrival commit, and its mover can
    // deliver to QM.C before that: wait for the count, then hold it exact.
    let forwarded = || b.metrics_snapshot().counter("mq.relay.forwarded");
    wait_for("the relay's forward counted", Duration::from_secs(10), || {
        forwarded() >= 1
    });
    assert_eq!(forwarded(), 1);
    assert_eq!(b.metrics_snapshot().counter("mq.relay.delivered_local"), 0);

    a.shutdown();
    b.shutdown();
    c.shutdown();
}

/// A four-manager chain: each middle manager only has a default next-hop
/// route, and the hop-count header grows by one per relay.
#[test]
fn default_routes_carry_envelopes_down_a_four_manager_chain() {
    let clock = SystemClock::new();
    let managers: Vec<Arc<QueueManager>> = (0..4)
        .map(|i| {
            QueueManager::builder(format!("M{i}"))
                .clock(clock.clone())
                .build()
                .unwrap()
        })
        .collect();
    managers[3].create_queue("Q.END").unwrap();
    let mut channels = Vec::new();
    for i in 0..3 {
        let next = &managers[i + 1];
        let acceptor = TcpAcceptor::bind(next, "127.0.0.1:0").unwrap();
        let channel =
            Channel::connect_tcp(&managers[i], next.name(), acceptor.local_addr(), tcp_config());
        channels.push(channel.unwrap());
        managers[i]
            .define_default_route(&[format!("SYSTEM.XMIT.M{}", i + 1)])
            .unwrap();
    }

    managers[0]
        .put_to(
            &QueueAddress::new("M3", "Q.END"),
            Message::text("end of the line").build(),
        )
        .unwrap();
    wait_for("delivery at the chain end", Duration::from_secs(10), || {
        depth(&managers[3], "Q.END") == 1
    });
    let got = managers[3].get("Q.END", Wait::NoWait).unwrap().unwrap();
    assert_eq!(got.str_property(RELAY_ORIGIN_PROPERTY), Some("M0"));
    assert_eq!(
        got.i64_property(RELAY_HOPS_PROPERTY),
        Some(2),
        "relayed by M1 and M2"
    );
    for m in &managers {
        assert_eq!(depth(m, DEAD_LETTER_QUEUE), 0);
        m.shutdown();
    }
}

/// An envelope addressed to a manager nobody has a route for must be
/// dead-lettered at the relay with a reason naming the failure — not
/// local-accepted, not dropped.
#[test]
fn relay_without_route_dead_letters_with_reason() {
    let clock = SystemClock::new();
    let a = QueueManager::builder("QM.A").clock(clock.clone()).build().unwrap();
    let b = QueueManager::builder("QM.B").clock(clock).build().unwrap();
    let acc_b = TcpAcceptor::bind(&b, "127.0.0.1:0").unwrap();
    let _ab = Channel::connect_tcp(&a, "QM.B", acc_b.local_addr(), tcp_config()).unwrap();
    a.define_default_route(&["SYSTEM.XMIT.QM.B"]).unwrap();

    a.put_to(
        &QueueAddress::new("QM.NOWHERE", "Q.X"),
        Message::text("lost soul").build(),
    )
    .unwrap();
    wait_for("dead-lettered at the relay", Duration::from_secs(10), || {
        depth(&b, DEAD_LETTER_QUEUE) == 1
    });
    let dead = b.get(DEAD_LETTER_QUEUE, Wait::NoWait).unwrap().unwrap();
    let reason = dead.str_property(DLQ_REASON_PROPERTY).unwrap();
    assert!(
        reason.contains("no route to manager QM.NOWHERE"),
        "reason names the relay failure: {reason}"
    );
    // Addressing survives for post-mortem audit.
    assert_eq!(
        dead.str_property(mq::XMIT_DEST_MANAGER_PROPERTY),
        Some("QM.NOWHERE")
    );
    assert_eq!(b.metrics_snapshot().counter("mq.relay.dead_lettered"), 1);
    a.shutdown();
    b.shutdown();
}

/// Binds an acceptor on a specific port, retrying briefly: the port was
/// just freed by the crashed predecessor and the OS may lag a moment.
fn rebind(manager: &Arc<QueueManager>, addr: std::net::SocketAddr) -> Arc<TcpAcceptor> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match TcpAcceptor::bind(manager, &addr.to_string()) {
            Ok(acceptor) => return acceptor,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "could not rebind {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The acceptance proof: the paper's Fig. 8 compensation flow across a
/// three-manager chain over loopback TCP, with the middle relay crashed
/// mid-handoff (envelopes accepted into its custody but not yet
/// forwarded) and rebuilt from its journal. Every message must reach
/// exactly one of: success (read in time), or
/// compensation + annihilation — nothing lost, nothing doubled.
#[test]
fn fig8_compensation_flow_survives_middle_relay_crash() {
    let clock = SystemClock::new();
    let a = QueueManager::builder("QM.A").clock(clock.clone()).build().unwrap();
    let journal = MemJournal::new();
    let b = QueueManager::builder("QM.B")
        .clock(clock.clone())
        .journal(journal.clone())
        .build()
        .unwrap();
    let c = QueueManager::builder("QM.C").clock(clock.clone()).build().unwrap();
    c.create_queue("Q.SLOW").unwrap();
    c.create_queue("Q.FAST").unwrap();

    let acc_a = TcpAcceptor::bind(&a, "127.0.0.1:0").unwrap();
    let acc_b = TcpAcceptor::bind(&b, "127.0.0.1:0").unwrap();
    let acc_c = TcpAcceptor::bind(&c, "127.0.0.1:0").unwrap();
    let b_addr = acc_b.local_addr();

    // The outer legs of the chain are live from the start; the B→C leg is
    // *not*: QM.B accepts custody of everything bound for QM.C (route
    // defined, custody journaled onto SYSTEM.XMIT.QM.C) but cannot
    // forward yet — the deterministic "crashed mid-handoff" window.
    let _ab = Channel::connect_tcp(&a, "QM.B", b_addr, tcp_config()).unwrap();
    a.define_default_route(&["SYSTEM.XMIT.QM.B"]).unwrap();
    let _cb = Channel::connect_tcp(&c, "QM.B", b_addr, tcp_config()).unwrap();
    c.define_default_route(&["SYSTEM.XMIT.QM.B"]).unwrap();
    b.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();

    let messenger = ConditionalMessenger::new(a.clone()).unwrap();

    // Group S: generous pick-up window — must survive the relay crash and
    // succeed. Group F: tiny window — must fail and be compensated.
    const EACH: usize = 3;
    let slow_cond: Condition = Destination::queue("QM.C", "Q.SLOW")
        .pickup_within(Millis(20_000))
        .into();
    let fast_cond: Condition = Destination::queue("QM.C", "Q.FAST")
        .pickup_within(Millis(300))
        .into();
    let mut success_ids = Vec::new();
    let mut failure_ids = Vec::new();
    for i in 0..EACH {
        success_ids.push(
            messenger
                .send_message_with_compensation(
                    format!("keep-{i}"),
                    format!("undo-keep-{i}"),
                    &slow_cond,
                )
                .unwrap(),
        );
        failure_ids.push(
            messenger
                .send_message_with_compensation(
                    format!("drop-{i}"),
                    format!("undo-drop-{i}"),
                    &fast_cond,
                )
                .unwrap(),
        );
    }

    // All six originals in QM.B's custody, none forwarded: the handoff is
    // exactly half-done when the relay dies.
    wait_for("customs at the relay", Duration::from_secs(10), || {
        depth(&b, "SYSTEM.XMIT.QM.C") >= 2 * EACH
    });
    acc_b.shutdown();
    b.crash();

    // Rebuild the relay from its journal on the same address. The custody
    // records restore the undelivered envelopes onto the transmission
    // queue and reseed the dedup window, so upstream retries of anything
    // unacked at crash time are dropped, not doubled.
    let b2 = QueueManager::builder("QM.B")
        .clock(clock)
        .journal(journal)
        .build()
        .unwrap();
    assert!(
        depth(&b2, "SYSTEM.XMIT.QM.C") >= 2 * EACH,
        "custody survived the crash"
    );
    let _acc_b2 = rebind(&b2, b_addr);
    let _bc = Channel::connect_tcp(&b2, "QM.C", acc_c.local_addr(), tcp_config()).unwrap();
    let _ba = Channel::connect_tcp(&b2, "QM.A", acc_a.local_addr(), tcp_config()).unwrap();

    // The receiver picks up the slow-window messages; read-acks relay
    // back QM.C → QM.B → QM.A.
    let c2 = c.clone();
    let reader = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::with_identity(c2, "federated-app").unwrap();
        let mut seen = Vec::new();
        for _ in 0..EACH {
            let got = receiver
                .read_message("Q.SLOW", Wait::Timeout(Millis(15_000)))
                .unwrap()
                .expect("slow-window message delivered after relay rebuild");
            assert_eq!(got.kind(), MessageKind::Original);
            seen.push(got.payload_str().unwrap().to_owned());
        }
        seen
    });
    let mut seen = reader.join().unwrap();
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), EACH, "each success read exactly once");

    for id in success_ids {
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(20_000)))
            .unwrap()
            .expect("success verdict");
        assert_eq!(outcome.outcome, MessageOutcome::Success, "{:?}", outcome.reason);
    }
    for id in failure_ids {
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(20_000)))
            .unwrap()
            .expect("failure verdict");
        assert_eq!(outcome.outcome, MessageOutcome::Failure);
    }

    // Compensations cross the rebuilt relay and annihilate the unread
    // originals on QM.C: repeated reads surface nothing to the
    // application and drain the queue.
    wait_for("compensations arrive", Duration::from_secs(15), || {
        depth(&c, "Q.FAST") >= 2 * EACH
    });
    let mut receiver = ConditionalReceiver::new(c.clone()).unwrap();
    let annihilated = {
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        loop {
            assert!(
                receiver
                    .read_message("Q.FAST", Wait::NoWait)
                    .unwrap()
                    .is_none(),
                "compensated originals must never reach the application"
            );
            if depth(&c, "Q.FAST") == 0 {
                break true;
            }
            if std::time::Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    assert!(annihilated, "annihilation empties Q.FAST");

    // Exactly-once, federation-wide: nothing dead-lettered anywhere, no
    // stray duplicate originals left behind on either destination queue.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(depth(&c, "Q.SLOW"), 0, "no duplicate slow originals");
    assert_eq!(depth(&c, "Q.FAST"), 0, "no resurrected fast originals");
    for (name, qm) in [("QM.A", &a), ("QM.B", &b2), ("QM.C", &c)] {
        assert_eq!(depth(qm, DEAD_LETTER_QUEUE), 0, "{name} DLQ clean");
    }
    let relayed = b2.metrics_snapshot();
    assert!(
        relayed.counter("mq.relay.forwarded") >= 1,
        "rebuilt relay forwarded acks/compensations"
    );

    a.shutdown();
    b2.shutdown();
    c.shutdown();
}
