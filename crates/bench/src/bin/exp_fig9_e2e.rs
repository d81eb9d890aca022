//! E7 — paper Fig. 9: sustained end-to-end throughput of the full
//! conditional-messaging architecture, against the hand-rolled
//! application baseline (S22 in DESIGN.md).
//!
//! One cycle = send → all destinations read (acknowledging) → the sender's
//! evaluation decides success. Reports cycles/s and the overhead factor of
//! the middleware over the baseline for a range of fan-outs.

use std::time::Instant;

use cond_bench::baseline::{baseline_receive, BaselineSender};
use cond_bench::{emit_metrics, header, queue_names, row, system_world, workload};
use condmsg::{ConditionalReceiver, MessageOutcome};
use mq::Wait;
use simtime::Millis;

const CYCLES: usize = 1_500;

fn conditional_cycles_per_sec(n: usize) -> f64 {
    let world = system_world(&queue_names(n));
    let condition = workload::fan_out(n, Millis(600_000));
    let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
    let start = Instant::now();
    for _ in 0..CYCLES {
        let id = world.messenger.send_message("cycle", &condition).unwrap();
        for i in 0..n {
            receiver
                .read_message(&format!("Q.D{i}"), Wait::NoWait)
                .unwrap()
                .unwrap();
        }
        let outcome = world
            .messenger
            .take_outcome(id, Wait::NoWait)
            .unwrap()
            .unwrap();
        assert_eq!(outcome.outcome, MessageOutcome::Success);
    }
    CYCLES as f64 / start.elapsed().as_secs_f64()
}

fn baseline_cycles_per_sec(n: usize) -> f64 {
    let world = system_world(&queue_names(n));
    let queues = queue_names(n);
    let mut sender = BaselineSender::new(world.qmgr.clone(), "APP.ACK").unwrap();
    let start = Instant::now();
    for _ in 0..CYCLES {
        let id = sender
            .send_notification("cycle", &queues, Millis(600_000))
            .unwrap();
        for q in &queues {
            baseline_receive(&world.qmgr, q).unwrap().unwrap();
        }
        let decided = sender.poll().unwrap();
        assert_eq!(decided, vec![(id, true)]);
    }
    CYCLES as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    println!("# E7 — Fig. 9: end-to-end pipeline throughput (middleware vs app baseline)\n");
    println!("{CYCLES} full cycles per cell; in-memory journal; single manager\n");
    header(&[
        "destinations",
        "conditional (cycles/s)",
        "baseline (cycles/s)",
        "middleware cost factor",
    ]);
    for n in [1usize, 2, 4, 8, 16] {
        let cond = conditional_cycles_per_sec(n);
        let base = baseline_cycles_per_sec(n);
        row(&[
            n.to_string(),
            format!("{cond:.0}"),
            format!("{base:.0}"),
            format!("{:.2}x", base / cond),
        ]);
    }
    println!();
    println!(
        "expected shape: the middleware costs a roughly constant factor over the baseline \
         (it additionally journals the send, parks/clears one compensation per destination \
         and logs every receipt — the work the paper argues applications would otherwise \
         hand-write); both scale linearly in the fan-out."
    );
    emit_metrics();
}
