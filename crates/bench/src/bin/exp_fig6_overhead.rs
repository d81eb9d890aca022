//! E4 — paper Fig. 6: the two message levels and the cost of the
//! conditional-messaging indirection.
//!
//! Part A (the paper's figure): for N destinations, wall-clock per
//! operation for raw puts vs a conditional send, and the standard messages
//! the middleware generates per conditional message (originals + parked
//! compensations + the send-log record — the paper's point that "if no
//! conditional messaging system were available, the application would have
//! to create similar messages").
//!
//! Part B (the evaluation engine): p50/p95 verdict latency and
//! acknowledgment throughput with acks evaluated on arrival, and the
//! ack-drain transactions (one journal `TxCommit` each) spent per
//! acknowledgment — one at a time on arrival, and for a backlog that
//! queued up while the service was detached. Results are written to
//! `BENCH_fig6.json`.
//!
//! `--quick` shrinks the iteration counts so the binary can run inside the
//! repository gate (`check.sh`).

use std::time::Instant;

use cond_bench::{
    emit_metrics, header, percentile, queue_names, row, shared_obs, sim_world, system_world,
    workload, write_bench_json,
};
use condmsg::config::ACK_BATCH;
use condmsg::{ConditionalMessenger, ConditionalReceiver};
use mq::{Message, Wait};
use simtime::{Millis, SimClock};

const PAYLOAD: &str = "group meeting notification payload";

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters: usize = if quick { 200 } else { 2_000 };
    let latency_msgs: usize = if quick { 64 } else { 512 };
    let drain_msgs: usize = if quick { 128 } else { 512 };

    println!("# E4 — Fig. 6: send-path overhead (conditional vs raw JMS-style put)\n");
    header(&[
        "destinations",
        "raw put (µs/send)",
        "conditional (µs/send)",
        "factor",
        "standard msgs per conditional msg",
    ]);
    for n in [1usize, 2, 4, 8, 16] {
        // Raw path.
        let world = system_world(&queue_names(n));
        let start = Instant::now();
        for _ in 0..iters {
            for i in 0..n {
                world
                    .qmgr
                    .put(
                        &format!("Q.D{i}"),
                        Message::text(PAYLOAD).persistent(true).build(),
                    )
                    .unwrap();
            }
        }
        let raw = start.elapsed().as_secs_f64() * 1e6 / iters as f64;

        // Conditional path.
        let world = system_world(&queue_names(n));
        let condition = workload::fan_out(n, Millis(600_000));
        let slog_before = world
            .qmgr
            .queue("DS.SLOG.Q")
            .unwrap()
            .stats()
            .enqueued
            .get();
        let comp_before = world
            .qmgr
            .queue("DS.COMP.Q")
            .unwrap()
            .stats()
            .enqueued
            .get();
        let start = Instant::now();
        for _ in 0..iters {
            world.messenger.send_message(PAYLOAD, &condition).unwrap();
        }
        let cond = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
        let slog = world
            .qmgr
            .queue("DS.SLOG.Q")
            .unwrap()
            .stats()
            .enqueued
            .get()
            - slog_before;
        let comp = world
            .qmgr
            .queue("DS.COMP.Q")
            .unwrap()
            .stats()
            .enqueued
            .get()
            - comp_before;
        let generated = n as f64 + (slog as f64 + comp as f64) / iters as f64;

        row(&[
            n.to_string(),
            format!("{raw:.1}"),
            format!("{cond:.1}"),
            format!("{:.2}x", cond / raw),
            format!(
                "{generated:.0} ({n} originals + {} comp + {} log)",
                comp / iters as u64,
                slog / iters as u64
            ),
        ]);
    }
    println!();
    println!(
        "expected shape: the conditional send costs a small constant factor over raw puts \
         (≈2 extra internal messages per destination-set: one compensation per destination \
         plus one send-log record), and the factor shrinks as N grows because the log \
         record amortizes."
    );

    // ── Part B: the evaluation engine ────────────────────────────────────
    println!();
    println!("## evaluation engine: verdict latency and ack-drain transactions\n");
    let (latencies, rate, arrival_txs_per_ack) = verdict_latency_run(latency_msgs);
    let batch = ACK_BATCH as u64;
    let (backlog_txs, acks) = backlog_drain_run(drain_msgs);
    let backlog_txs_per_ack = backlog_txs as f64 / acks as f64;
    let (p50, p95) = (percentile(&latencies, 0.50), percentile(&latencies, 0.95));

    header(&[
        "verdict p50 (µs)",
        "verdict p95 (µs)",
        "acks/sec",
        "drain txs per ack (on arrival)",
        &format!("drain txs per ack (backlog of {acks})"),
    ]);
    row(&[
        p50.to_string(),
        p95.to_string(),
        format!("{rate:.0}"),
        format!("{arrival_txs_per_ack:.3}"),
        format!("{backlog_txs_per_ack:.3}"),
    ]);
    println!();
    println!(
        "an ack arriving alone is drained in its own transaction; a backlog drains in \
         batches of {batch}, each one grouped journal TxCommit instead of one per \
         acknowledgment ({backlog_txs} transactions for {acks} acks)."
    );

    let json = format!(
        "{{\n  \"experiment\": \"fig6_overhead\",\n  \"quick\": {quick},\n  \
         \"verdict_latency_us\": {{ \"p50\": {p50}, \"p95\": {p95} }},\n  \
         \"acks_per_sec\": {rate:.1},\n  \
         \"drain_txs_per_ack\": {{ \"on_arrival\": {arrival_txs_per_ack:.3}, \
         \"backlog\": {backlog_txs_per_ack:.3}, \"backlog_acks\": {acks}, \
         \"backlog_txs\": {backlog_txs}, \"batch\": {batch} }}\n}}\n",
    );
    write_bench_json("BENCH_fig6.json", quick, &json);

    assert_eq!(
        backlog_txs,
        acks.div_ceil(batch),
        "a backlog of {acks} acks must drain in batches of {batch}"
    );

    emit_metrics();
}

/// Sends `msgs` single-destination conditional messages one at a time; a
/// consumer picks each up immediately and the run measures the wall-clock
/// from condition satisfaction (the read) to the outcome notification. No
/// daemon: the read's ack is evaluated on arrival. Also returns the
/// ack-drain transactions spent per acknowledgment over the run.
fn verdict_latency_run(msgs: usize) -> (Vec<u64>, f64, f64) {
    let world = system_world(&queue_names(1));
    let condition = workload::fan_out(1, Millis(600_000));
    let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
    let mut latencies = Vec::with_capacity(msgs);
    let drains = || {
        let snapshot = shared_obs().snapshot();
        let batches = &snapshot.histograms["cond.ack.batch_size"];
        (batches.count, batches.sum)
    };
    let (txs_before, acks_before) = drains();
    let phase = Instant::now();
    for _ in 0..msgs {
        let id = world.messenger.send_message(PAYLOAD, &condition).unwrap();
        receiver
            .read_message("Q.D0", Wait::NoWait)
            .unwrap()
            .expect("original delivered");
        let satisfied = Instant::now();
        world
            .messenger
            .take_outcome(id, Wait::Timeout(Millis(10_000)))
            .unwrap()
            .expect("verdict reached");
        latencies.push(satisfied.elapsed().as_micros() as u64);
    }
    let rate = msgs as f64 / phase.elapsed().as_secs_f64();
    let (txs, acks) = drains();
    let txs_per_ack = (txs - txs_before) as f64 / (acks - acks_before) as f64;
    (latencies, rate, txs_per_ack)
}

/// Builds an ack backlog of `msgs` acknowledgments while the conditional
/// messaging service is detached (two-destination condition, only one
/// destination reads, so draining decides nothing and the transaction
/// delta is purely ack draining), then counts the committed transactions
/// the re-attached service needs to drain it.
fn backlog_drain_run(msgs: usize) -> (u64, u64) {
    let world = sim_world(SimClock::new(), &queue_names(2));
    let condition = workload::fan_out(2, Millis(600_000));
    for _ in 0..msgs {
        world.messenger.send_message(PAYLOAD, &condition).unwrap();
    }
    drop(world.messenger);
    let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
    for _ in 0..msgs {
        receiver
            .read_message("Q.D0", Wait::NoWait)
            .unwrap()
            .expect("original delivered");
    }
    let acks = world.qmgr.queue("DS.ACK.Q").unwrap().depth() as u64;
    let before = shared_obs().snapshot().counter("mq.tx.committed");
    let _messenger = ConditionalMessenger::new(world.qmgr.clone()).unwrap();
    let txs = shared_obs().snapshot().counter("mq.tx.committed") - before;
    assert_eq!(world.qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
    (txs, acks)
}
