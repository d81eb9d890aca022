//! EA — ablations of the design choices called out in DESIGN.md §6.
//!
//! 1. **Journal backend**: end-to-end conditional-messaging throughput with
//!    durability off (`NullJournal`), in-memory WAL (`MemJournal`), the
//!    on-disk log (`SegmentedJournal`) OS-buffered and with fsync before
//!    ack. Expected shape: null ≳ mem ≫ disk ≫ disk+fsync, quantifying what the
//!    "reliable" in reliable messaging costs at each durability level.
//!
//! 2. **Eager deadlines vs. ack grace**: a receiver reads in time, but the
//!    acknowledgment spends `transit` ms in flight. With `ack_grace = 0`
//!    (eager) the sender declares failure as soon as the deadline passes
//!    un-acknowledged; with a grace window (the paper's "20 s condition,
//!    21 s evaluation timeout" gap) a timely-stamped late ack still counts.

use std::sync::Arc;
use std::time::Instant;

use cond_bench::{emit_metrics, header, queue_names, row, workload};
use condmsg::{
    AckKind, Acknowledgment, CondConfig, ConditionalMessenger, ConditionalReceiver, MessageOutcome,
};
use mq::journal::{Journal, MemJournal, NullJournal, SegmentConfig, SegmentedJournal};
use mq::{QueueManager, Wait};
use simtime::{Millis, SimClock, Time};

fn throughput_with(journal: Arc<dyn Journal>, label: &str) -> (String, f64) {
    const CYCLES: usize = 400;
    let qmgr = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .journal(journal)
        .build()
        .unwrap();
    for q in queue_names(2) {
        qmgr.create_queue(q).unwrap();
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
    let condition = workload::fan_out(2, Millis(600_000));
    let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
    let start = Instant::now();
    for _ in 0..CYCLES {
        let id = messenger.send_message("cycle", &condition).unwrap();
        for i in 0..2 {
            receiver
                .read_message(&format!("Q.D{i}"), Wait::NoWait)
                .unwrap()
                .unwrap();
        }
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
    (
        label.to_owned(),
        CYCLES as f64 / start.elapsed().as_secs_f64(),
    )
}

fn journal_ablation() {
    println!("## Journal backends (full pipeline, 2 destinations)\n");
    header(&["journal", "cycles/s", "relative"]);
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("condmsg-ablation-{}-{name}", std::process::id()))
    };
    let segmented = |name: &str, sync_every_append: bool| {
        let config = SegmentConfig {
            sync_every_append,
            ..SegmentConfig::default()
        };
        SegmentedJournal::open(tmp(name), config).unwrap()
    };
    let results = vec![
        throughput_with(NullJournal::new(), "none (durability off)"),
        throughput_with(MemJournal::new(), "in-memory WAL"),
        throughput_with(segmented("nosync", false), "segmented log (OS-buffered)"),
        throughput_with(segmented("sync", true), "segmented log + fsync before ack"),
    ];
    let base = results[0].1;
    for (label, cps) in &results {
        row(&[
            label.clone(),
            format!("{cps:.0}"),
            format!("{:.2}x", cps / base),
        ]);
    }
    std::fs::remove_dir_all(tmp("nosync")).ok();
    std::fs::remove_dir_all(tmp("sync")).ok();
    println!();
}

/// Reads happen at t=40 (window 100); the ack reaches DS.ACK.Q `transit`
/// ms later. Returns the outcome under the given grace.
fn grace_scenario(transit: u64, grace: u64) -> MessageOutcome {
    let clock = SimClock::new();
    let qmgr = QueueManager::builder("QM1")
        .obs(cond_bench::shared_obs())
        .clock(clock.clone())
        .build()
        .unwrap();
    qmgr.create_queue("Q.D0").unwrap();
    let messenger = ConditionalMessenger::with_config(
        qmgr.clone(),
        CondConfig {
            ack_grace: Millis(grace),
            ..CondConfig::default()
        },
    )
    .unwrap();
    let id = messenger
        .send_message("x", &workload::fan_out(1, Millis(100)))
        .unwrap();
    // Simulate the remote read at t=40 whose ack arrives after `transit`.
    clock.advance(Millis(40));
    let ack = Acknowledgment {
        cond_id: id,
        leaf: 0,
        kind: AckKind::Read,
        read_at: Time(40),
        processed_at: None,
        recipient: None,
    };
    clock.advance(Millis(transit));
    // The eager evaluator may already have failed the message before the
    // ack lands; otherwise deliver the ack and let the clock run out.
    if let Some(early) = messenger.take_outcome(id, Wait::NoWait).unwrap() {
        return early.outcome;
    }
    qmgr.put("DS.ACK.Q", ack.to_message()).unwrap();
    clock.advance(Millis(1_000));
    messenger
        .take_outcome(id, Wait::NoWait)
        .unwrap()
        .unwrap()
        .outcome
}

fn grace_ablation() {
    println!("## Eager deadlines vs. ack grace (read at t=40, window 100)\n");
    header(&["ack transit (ms)", "grace 0 (eager)", "grace 100"]);
    for transit in [10u64, 50, 90, 150] {
        let eager = grace_scenario(transit, 0);
        let graced = grace_scenario(transit, 100);
        row(&[transit.to_string(), eager.to_string(), graced.to_string()]);
    }
    println!();
    println!(
        "expected shape: eager evaluation fails once the ack is still in flight when the \
         deadline passes (transit pushing arrival past t=100), even though the read itself \
         was timely; a grace window accepts the timely-stamped late ack, at the price of a \
         later decision."
    );
}

fn main() {
    println!("# EA — design-choice ablations\n");
    journal_ablation();
    grace_ablation();
    emit_metrics();
}
