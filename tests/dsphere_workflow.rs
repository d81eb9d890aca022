//! Dependency-Sphere integration across the full stack: conditional
//! messages over real channels, coupled with transactional resources
//! (paper §3, Fig. 10).

use std::sync::Arc;

use condmsg::{Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageKind};
use dsphere::{Calendar, DSphereService, KvStore, ProbeResource, RoomReservations, Vote};
use mq::channel::Channel;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{QueueManager, SystemClock, Wait};
use simtime::{Millis, SimClock};

/// Joins `a` and `b` with a channel each way over loopback TCP.
fn duplex(a: &Arc<QueueManager>, b: &Arc<QueueManager>) -> [Channel; 2] {
    [(a, b), (b, a)].map(|(from, to)| {
        let acceptor = TcpAcceptor::bind(to, "127.0.0.1:0").unwrap();
        Channel::connect_tcp(from, to.name(), acceptor.local_addr(), TcpConfig::default()).unwrap()
    })
}

fn local_world() -> (Arc<SimClock>, Arc<QueueManager>, Arc<DSphereService>) {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .build()
        .unwrap();
    for q in ["Q.A", "Q.B"] {
        qmgr.create_queue(q).unwrap();
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    (clock, qmgr, DSphereService::new(messenger))
}

fn dest(queue: &str, window: Millis) -> Condition {
    Destination::queue("QM1", queue)
        .pickup_within(window)
        .into()
}

fn read_one(qmgr: &Arc<QueueManager>, queue: &str) {
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    receiver.read_message(queue, Wait::NoWait).unwrap().unwrap();
}

#[test]
fn meeting_workflow_commits_calendar_rooms_and_messages() {
    let (clock, qmgr, service) = local_world();
    let calendar = Calendar::new("calendar");
    let rooms = RoomReservations::new("rooms");

    let mut sphere = service.begin();
    sphere.enlist(calendar.clone()).unwrap();
    sphere.enlist(rooms.clone()).unwrap();
    calendar.schedule(sphere.xid(), "alice", 10, "signing");
    calendar.schedule(sphere.xid(), "bob", 10, "signing");
    rooms.reserve(sphere.xid(), "R1", 10, "signing");
    sphere
        .send_message("meeting invite", &dest("Q.A", Millis(100)))
        .unwrap();
    sphere
        .send_message("room notice", &dest("Q.B", Millis(100)))
        .unwrap();

    clock.advance(Millis(10));
    read_one(&qmgr, "Q.A");
    read_one(&qmgr, "Q.B");
    let outcome = sphere.try_commit().unwrap().unwrap();
    assert!(outcome.is_committed());
    assert_eq!(calendar.event("alice", 10).as_deref(), Some("signing"));
    assert_eq!(calendar.event("bob", 10).as_deref(), Some("signing"));
    assert_eq!(rooms.holder("R1", 10).as_deref(), Some("signing"));
}

#[test]
fn double_booked_calendar_vetoes_and_everything_unwinds() {
    let (clock, qmgr, service) = local_world();
    let calendar = Calendar::new("calendar");

    // Pre-existing commitment for alice at slot 10.
    {
        let mut tx = service.tx_manager().begin();
        tx.enlist(calendar.clone());
        calendar.schedule(tx.xid(), "alice", 10, "existing dentist appt");
        tx.commit().unwrap();
    }

    let mut sphere = service.begin();
    sphere.enlist(calendar.clone()).unwrap();
    calendar.schedule(sphere.xid(), "alice", 10, "signing");
    sphere
        .send_message_with_compensation(
            "meeting invite",
            "meeting cancelled",
            &dest("Q.A", Millis(100)),
        )
        .unwrap();
    clock.advance(Millis(10));
    read_one(&qmgr, "Q.A"); // the message itself succeeds

    let outcome = sphere.try_commit().unwrap().unwrap();
    match &outcome {
        dsphere::SphereOutcome::Aborted { reason } => {
            assert!(reason.contains("already booked"), "{reason}")
        }
        other => panic!("expected veto abort, got {other:?}"),
    }
    assert_eq!(
        calendar.event("alice", 10).as_deref(),
        Some("existing dentist appt"),
        "prior commitment intact"
    );
    // The consumed invite is compensated despite its individual success.
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let comp = receiver.read_message("Q.A", Wait::NoWait).unwrap().unwrap();
    assert_eq!(comp.kind(), MessageKind::Compensation);
    assert_eq!(comp.payload_str(), Some("meeting cancelled"));
}

#[test]
fn sphere_over_remote_destinations() {
    let clock = SystemClock::new();
    let qm_a = QueueManager::builder("QMA")
        .clock(clock.clone())
        .build()
        .unwrap();
    let qm_b = QueueManager::builder("QMB").clock(clock).build().unwrap();
    qm_b.create_queue("Q.FAR").unwrap();
    let _channels = duplex(&qm_a, &qm_b);
    let messenger = ConditionalMessenger::new(qm_a.clone()).unwrap();
    let service = DSphereService::new(messenger);
    let kv = KvStore::new("db");

    let mut sphere = service.begin_with_timeout(Millis(5_000));
    sphere.enlist(kv.clone()).unwrap();
    kv.put(sphere.xid(), "deal", "done");
    sphere
        .send_message(
            "remote notice",
            &Destination::queue("QMB", "Q.FAR")
                .pickup_within(Millis(3_000))
                .into(),
        )
        .unwrap();

    let reader = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::new(qm_b).unwrap();
        receiver
            .read_message("Q.FAR", Wait::Timeout(Millis(3_000)))
            .unwrap()
            .expect("remote leg delivered")
    });
    let outcome = sphere.commit_blocking().unwrap();
    assert!(outcome.is_committed(), "{outcome}");
    assert_eq!(kv.get("deal"), Some("done".into()));
    reader.join().unwrap();
}

#[test]
fn resource_vote_flip_is_honoured_at_commit_time() {
    let (clock, qmgr, service) = local_world();
    let probe = ProbeResource::new("flaky");
    let mut sphere = service.begin();
    sphere.enlist(probe.clone()).unwrap();
    sphere.send_message("x", &dest("Q.A", Millis(100))).unwrap();
    clock.advance(Millis(5));
    read_one(&qmgr, "Q.A");
    // The resource turns sour before commit_DS.
    probe.set_vote(Vote::Abort("downstream outage".into()));
    let outcome = sphere.try_commit().unwrap().unwrap();
    assert!(!outcome.is_committed());
    assert_eq!(probe.rolled_back(), 1);
}

#[test]
fn many_messages_one_sphere_all_or_nothing() {
    let (clock, qmgr, service) = local_world();
    for i in 0..8 {
        qmgr.create_queue(format!("Q.N{i}")).unwrap();
    }
    let kv = KvStore::new("db");
    let mut sphere = service.begin();
    sphere.enlist(kv.clone()).unwrap();
    kv.put(sphere.xid(), "batch", "applied");
    for i in 0..8 {
        sphere
            .send_message(
                format!("part {i}"),
                &Destination::queue("QM1", format!("Q.N{i}"))
                    .pickup_within(Millis(100))
                    .into(),
            )
            .unwrap();
    }
    clock.advance(Millis(10));
    // Seven of eight are read; one is missed.
    for i in 0..7 {
        read_one(&qmgr, &format!("Q.N{i}"));
    }
    clock.advance(Millis(200));
    let outcome = sphere.try_commit().unwrap().unwrap();
    assert!(!outcome.is_committed());
    assert_eq!(kv.get("batch"), None);
    // Each of the seven consumed messages is compensated; the eighth
    // annihilates on its queue.
    for i in 0..7 {
        let msgs = qmgr.queue(&format!("Q.N{i}")).unwrap().browse();
        assert_eq!(msgs.len(), 1, "Q.N{i} got its compensation");
    }
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    assert!(receiver
        .read_message("Q.N7", Wait::NoWait)
        .unwrap()
        .is_none());
    assert_eq!(qmgr.queue("Q.N7").unwrap().depth(), 0);
}

#[test]
fn nested_workloads_sequential_spheres_share_resources() {
    let (clock, qmgr, service) = local_world();
    let kv = KvStore::new("db");
    // Sphere 1 commits a value.
    let mut s1 = service.begin();
    s1.enlist(kv.clone()).unwrap();
    kv.put(s1.xid(), "round", "1");
    s1.send_message("r1", &dest("Q.A", Millis(100))).unwrap();
    clock.advance(Millis(5));
    read_one(&qmgr, "Q.A");
    assert!(s1.try_commit().unwrap().unwrap().is_committed());
    assert_eq!(kv.get("round"), Some("1".into()));
    // Sphere 2 overwrites it, then aborts: value stays from round 1.
    let mut s2 = service.begin();
    s2.enlist(kv.clone()).unwrap();
    kv.put(s2.xid(), "round", "2");
    s2.send_message("r2", &dest("Q.B", Millis(100))).unwrap();
    s2.abort("changed our minds").unwrap();
    assert_eq!(kv.get("round"), Some("1".into()));
}
