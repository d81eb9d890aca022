//! EF — relay federation: multi-hop chains over loopback TCP.
//!
//! Two measurements per chain length (1, 2 and 4 channel hops between
//! the sending and the destination manager, i.e. 0, 1 and 3 relays):
//!
//! * **Store-and-forward throughput** — N plain messages put at the head
//!   of the chain, wall clock until all land on the tail's queue;
//!   reported as msgs/sec. Each extra hop adds a custody handoff (relay
//!   decision, journalable record, another socket round trip), so the
//!   table prices what federation costs over a direct channel.
//! * **End-to-end verdict latency** — the full Fig. 8 conditional
//!   protocol across the chain: original out over `hops` sockets, the
//!   pick-up read at the tail, the read-ack relayed all the way back and
//!   the condition evaluated at the head. Reported as p50/p95 of
//!   send→verdict wall time.
//!
//! The Fig. 8 crash proof (middle relay crashed while holding custody,
//! rebuilt from its journal) lives in `tests/federation.rs` and
//! `scenarios/fig8_relay_crash.toml`.
//!
//! Writes `BENCH_federation.json`; `--quick` shrinks the counts for the
//! `check.sh` smoke run and writes under `target/bench-quick/`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cond_bench::{header, percentile_f64, row, write_bench_json};
use condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageOutcome,
};
use mq::channel::Channel;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{Message, Obs, QueueAddress, QueueManager, SystemClock, Wait, DEAD_LETTER_QUEUE};
use simtime::Millis;

const HOP_COUNTS: [usize; 3] = [1, 2, 4];

struct RunStats {
    msgs_per_sec: f64,
    verdict_p50_ms: f64,
    verdict_p95_ms: f64,
    relay_forwarded: u64,
}

/// A chain of `hops + 1` managers connected by duplex loopback-TCP
/// channel pairs, with explicit head/tail routes at every intermediate
/// so envelopes (and read-acks) relay in both directions.
struct FedChain {
    managers: Vec<Arc<QueueManager>>,
    _acceptors: Vec<Arc<TcpAcceptor>>,
    _channels: Vec<Channel>,
}

fn chain_name(i: usize) -> String {
    format!("QM.F{i}")
}

fn build_chain(hops: usize, obs: &Arc<Obs>) -> FedChain {
    let n = hops + 1;
    let clock = SystemClock::new();
    let managers: Vec<Arc<QueueManager>> = (0..n)
        .map(|i| {
            QueueManager::builder(chain_name(i))
                .clock(clock.clone())
                .obs(obs.clone())
                .build()
                .unwrap()
        })
        .collect();
    let acceptors: Vec<Arc<TcpAcceptor>> = managers
        .iter()
        .map(|m| TcpAcceptor::bind(m, "127.0.0.1:0").unwrap())
        .collect();
    let mut channels = Vec::new();
    for i in 0..n - 1 {
        channels.push(
            Channel::connect_tcp(
                &managers[i],
                &chain_name(i + 1),
                acceptors[i + 1].local_addr(),
                TcpConfig::default(),
            )
            .unwrap(),
        );
        channels.push(
            Channel::connect_tcp(
                &managers[i + 1],
                &chain_name(i),
                acceptors[i].local_addr(),
                TcpConfig::default(),
            )
            .unwrap(),
        );
    }
    // Intermediates route the endpoints through their direct neighbours.
    let head = chain_name(0);
    let tail = chain_name(n - 1);
    for (i, m) in managers.iter().enumerate() {
        if i + 1 < n - 1 {
            m.define_route(&tail, &format!("SYSTEM.XMIT.{}", chain_name(i + 1)))
                .unwrap();
        }
        if i > 1 {
            m.define_route(&head, &format!("SYSTEM.XMIT.{}", chain_name(i - 1)))
                .unwrap();
        }
    }
    FedChain {
        managers,
        _acceptors: acceptors,
        _channels: channels,
    }
}

fn run(hops: usize, msgs: usize, verdict_rounds: usize) -> RunStats {
    let obs = Obs::new();
    let chain = build_chain(hops, &obs);
    let head = chain.managers.first().unwrap().clone();
    let tail = chain.managers.last().unwrap().clone();
    tail.create_queue("Q.IN").unwrap();
    tail.create_queue("Q.COND").unwrap();

    // Throughput: flood the chain, wall-clock first put → last arrival.
    let dest = QueueAddress::new(tail.name(), "Q.IN");
    let start = Instant::now();
    for i in 0..msgs {
        head.put_to(&dest, Message::text(format!("m{i}")).build())
            .unwrap();
    }
    let q = tail.queue("Q.IN").unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while q.depth() < msgs {
        assert!(
            Instant::now() < deadline,
            "hops={hops}: delivery stalled at {}/{msgs}",
            q.depth()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let msgs_per_sec = msgs as f64 / start.elapsed().as_secs_f64();

    // Verdict latency: the conditional protocol end to end, one message
    // outstanding at a time so the number is a round trip, not queueing.
    let messenger = ConditionalMessenger::new(head.clone()).unwrap();
    let tail2 = tail.clone();
    let stop_reader = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop_reader.clone();
    let reader = std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::with_identity(tail2, "fed-bench").unwrap();
        while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
            let _ = receiver.read_message("Q.COND", Wait::Timeout(Millis(20)));
        }
    });
    let condition: Condition = Destination::queue(tail.name(), "Q.COND")
        .pickup_within(Millis(30_000))
        .into();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(verdict_rounds);
    for i in 0..verdict_rounds {
        let t0 = Instant::now();
        let id = messenger
            .send_message(format!("v{i}"), &condition)
            .unwrap();
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(30_000)))
            .unwrap()
            .expect("verdict decided");
        assert_eq!(outcome.outcome, MessageOutcome::Success, "{:?}", outcome.reason);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stop_reader.store(true, std::sync::atomic::Ordering::SeqCst);
    reader.join().unwrap();

    let snap = obs.metrics().snapshot();
    let stats = RunStats {
        msgs_per_sec,
        verdict_p50_ms: percentile_f64(&latencies_ms, 0.50),
        verdict_p95_ms: percentile_f64(&latencies_ms, 0.95),
        relay_forwarded: snap.counter("mq.relay.forwarded"),
    };
    for m in chain.managers {
        assert_eq!(
            m.queue(DEAD_LETTER_QUEUE).unwrap().depth(),
            0,
            "nothing dead-lettered on {}",
            m.name()
        );
        m.shutdown();
    }
    stats
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let msgs = if quick { 400 } else { 4_000 };
    let verdict_rounds = if quick { 15 } else { 100 };

    println!(
        "# EF — relay federation: multi-hop chains over loopback TCP ({msgs} msgs, {verdict_rounds} verdicts{})\n",
        if quick { ", --quick" } else { "" }
    );
    header(&[
        "hops", "managers", "msgs/s", "verdict p50 ms", "verdict p95 ms", "relayed",
    ]);
    let mut results: Vec<(usize, RunStats)> = Vec::new();
    for &hops in &HOP_COUNTS {
        let stats = run(hops, msgs, verdict_rounds);
        row(&[
            hops.to_string(),
            (hops + 1).to_string(),
            format!("{:.0}", stats.msgs_per_sec),
            format!("{:.2}", stats.verdict_p50_ms),
            format!("{:.2}", stats.verdict_p95_ms),
            stats.relay_forwarded.to_string(),
        ]);
        results.push((hops, stats));
    }

    let runs_json: Vec<String> = results
        .iter()
        .map(|(hops, s)| {
            format!(
                concat!(
                    "    {{\"hops\": {}, \"managers\": {}, \"msgs_per_sec\": {:.1}, ",
                    "\"verdict_p50_ms\": {:.2}, \"verdict_p95_ms\": {:.2}, ",
                    "\"relay_forwarded\": {}}}"
                ),
                hops,
                hops + 1,
                s.msgs_per_sec,
                s.verdict_p50_ms,
                s.verdict_p95_ms,
                s.relay_forwarded,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"EF relay federation\",\n",
            "  \"msgs\": {},\n  \"verdict_rounds\": {},\n  \"runs\": [\n{}\n  ]\n}}\n"
        ),
        msgs,
        verdict_rounds,
        runs_json.join(",\n"),
    );
    write_bench_json("BENCH_federation.json", quick, &json);
}
