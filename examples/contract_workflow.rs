//! Dependency-Spheres (paper §3): a contract-signing workflow that groups
//! two conditional messages *and* two transactional resources into one
//! atomic unit-of-work.
//!
//! The sphere sends a meeting notification to the negotiation parties and
//! a filing request to the records department, while staging a calendar
//! entry and a room reservation. The sphere commits only if both messages
//! succeed (picked up in time) and both databases accept the updates; any
//! failure rolls the databases back and compensates *all* messages — even
//! ones that individually succeeded (the paper's backward dependency).
//!
//! Run with: `cargo run --example contract_workflow`

use std::sync::Arc;
use std::time::Duration;

use conditional_messaging::condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageKind,
};
use conditional_messaging::dsphere::{Calendar, DSphereService, RoomReservations};
use conditional_messaging::mq::{QueueManager, Wait};
use conditional_messaging::simtime::Millis;

const WINDOW: Millis = Millis(300);
const MEETING_SLOT: u64 = 1_000;

fn party_condition() -> Condition {
    Destination::queue("QM1", "Q.PARTIES")
        .pickup_within(WINDOW)
        .into()
}

fn records_condition() -> Condition {
    Destination::queue("QM1", "Q.RECORDS")
        .pickup_within(WINDOW)
        .into()
}

struct Office {
    qmgr: Arc<QueueManager>,
    service: Arc<DSphereService>,
    calendar: Arc<Calendar>,
    rooms: Arc<RoomReservations>,
}

fn office() -> Result<Office, Box<dyn std::error::Error>> {
    let qmgr = QueueManager::builder("QM1").build()?;
    qmgr.create_queue("Q.PARTIES")?;
    qmgr.create_queue("Q.RECORDS")?;
    let messenger = ConditionalMessenger::new(qmgr.clone())?;
    Ok(Office {
        qmgr,
        service: DSphereService::new(messenger),
        calendar: Calendar::new("calendar-db"),
        rooms: RoomReservations::new("room-db"),
    })
}

/// A desk that reads one message from a queue within the window.
fn staff_desk(qmgr: Arc<QueueManager>, queue: &'static str, name: &'static str) {
    std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::with_identity(qmgr, name).expect("receiver");
        if let Ok(Some(msg)) = receiver.read_message(queue, Wait::Timeout(Millis(1_000))) {
            if msg.kind() == MessageKind::Original {
                println!("  [{name}] handled: {}", msg.payload_str().unwrap_or("?"));
            }
        }
    });
}

fn drain(qmgr: &Arc<QueueManager>, queue: &str) -> Vec<String> {
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).expect("receiver");
    let mut out = Vec::new();
    while let Ok(Some(m)) = receiver.read_message(queue, Wait::NoWait) {
        out.push(format!(
            "{:?}: {}",
            m.kind(),
            m.payload_str().unwrap_or("(system compensation)")
        ));
    }
    out
}

fn scenario_commit() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- scenario A: everything lines up; the sphere commits ---");
    let office = office()?;

    let mut sphere = office.service.begin_with_timeout(Millis(2_000));
    sphere.enlist(office.calendar.clone()).map_err(box_err)?;
    sphere.enlist(office.rooms.clone()).map_err(box_err)?;
    office
        .calendar
        .schedule(sphere.xid(), "alice", MEETING_SLOT, "contract signing");
    office
        .rooms
        .reserve(sphere.xid(), "R101", MEETING_SLOT, "legal");
    sphere
        .send_message_with_compensation(
            "signing meeting on slot 1000, room R101",
            "signing meeting cancelled",
            &party_condition(),
        )
        .map_err(box_err)?;
    sphere
        .send_message_with_compensation(
            "file contract draft #77",
            "withdraw contract draft #77",
            &records_condition(),
        )
        .map_err(box_err)?;

    // Messages are out immediately; both desks are staffed.
    staff_desk(office.qmgr.clone(), "Q.PARTIES", "alice");
    staff_desk(office.qmgr.clone(), "Q.RECORDS", "records-clerk");

    let outcome = sphere.commit_blocking().map_err(box_err)?;
    println!("sphere outcome: {outcome}");
    assert!(outcome.is_committed());
    assert_eq!(
        office.calendar.event("alice", MEETING_SLOT).as_deref(),
        Some("contract signing")
    );
    assert_eq!(
        office.rooms.holder("R101", MEETING_SLOT).as_deref(),
        Some("legal")
    );
    println!("calendar + room reservation committed\n");
    Ok(())
}

fn scenario_abort() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- scenario B: records desk unstaffed; the whole sphere aborts ---");
    let office = office()?;

    let mut sphere = office.service.begin_with_timeout(Millis(2_000));
    sphere.enlist(office.calendar.clone()).map_err(box_err)?;
    sphere.enlist(office.rooms.clone()).map_err(box_err)?;
    office
        .calendar
        .schedule(sphere.xid(), "alice", MEETING_SLOT, "contract signing");
    office
        .rooms
        .reserve(sphere.xid(), "R101", MEETING_SLOT, "legal");
    sphere
        .send_message_with_compensation(
            "signing meeting on slot 1000, room R101",
            "signing meeting cancelled",
            &party_condition(),
        )
        .map_err(box_err)?;
    sphere
        .send_message_with_compensation(
            "file contract draft #77",
            "withdraw contract draft #77",
            &records_condition(),
        )
        .map_err(box_err)?;

    // Only the parties' desk is staffed; the records message misses its
    // pick-up window and fails, failing the sphere.
    staff_desk(office.qmgr.clone(), "Q.PARTIES", "alice");

    let outcome = sphere.commit_blocking().map_err(box_err)?;
    println!("sphere outcome: {outcome}");
    assert!(!outcome.is_committed());
    assert_eq!(office.calendar.event("alice", MEETING_SLOT), None);
    assert_eq!(office.rooms.holder("R101", MEETING_SLOT), None);
    println!("calendar + room reservation rolled back");

    // Backward dependency: alice consumed her message, so she receives the
    // application-defined compensation; the records original annihilates
    // with its compensation on the queue.
    std::thread::sleep(Duration::from_millis(20));
    let to_parties = drain(&office.qmgr, "Q.PARTIES");
    println!("follow-ups to parties: {to_parties:?}");
    assert!(to_parties
        .iter()
        .any(|s| s.contains("signing meeting cancelled")));
    let to_records = drain(&office.qmgr, "Q.RECORDS");
    assert!(
        to_records.is_empty(),
        "records original annihilated with its compensation: {to_records:?}"
    );
    println!("records queue: original and compensation annihilated\n");
    Ok(())
}

fn box_err(e: impl std::error::Error + 'static) -> Box<dyn std::error::Error> {
    Box::new(std::io::Error::other(
        e.to_string(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    scenario_commit()?;
    scenario_abort()?;
    Ok(())
}
