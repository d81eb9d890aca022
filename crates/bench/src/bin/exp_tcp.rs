//! ET — the channel transport over loopback TCP.
//!
//! For each channel-pair count, the experiment stands up `pairs`
//! independent sender→receiver manager pairs, connects each with a one-way
//! channel over loopback TCP, floods N messages per pair from concurrent
//! producer threads, and waits for every message to land on the remote
//! queue. Reported: end-to-end msgs/sec (wall clock from first put to last
//! delivery) and the p50/p95 of the transport's own per-batch send→ack
//! latency histogram (`mq.transport.batch_micros`, shared per run via one
//! observability hub).
//!
//! The point of the experiment is to price the wire: loopback TCP pays
//! framing, CRC, kernel round trips and acks. Three mechanisms keep it
//! cheap, and each is gated here:
//!
//! * **Batching** (up to `mq::channel::MAX_BATCH` envelopes per frame)
//!   amortizes the per-frame overhead.
//! * **Pipelining + coalesced acks**: the mover keeps a window of batches
//!   in flight and the acceptor acknowledges a whole readable burst with
//!   one cumulative watermark, so throughput is no longer one
//!   send→ack round trip per batch. The 8-pair TCP run asserts a
//!   throughput floor above the old lockstep transport's measured rate
//!   (`--quick` uses a looser floor — with 500 msgs/pair, startup and
//!   warm-up weigh heavier).
//! * **Encode-once**: a message's image is assembled once per frame that
//!   carries it, straight into that frame, from the bytes the message
//!   already holds. Each TCP run asserts that the managers'
//!   `mq.codec.encodes` cells moved by at least one per message and by at
//!   most one more per envelope the mover re-queued after a connection
//!   loss (`mq.transport.requeued`; 0 on a run without reconnects).
//!
//! The channel mover is gated as a count: on every row without a
//! reconnect the senders commit exactly one session per batch sent.
//!
//! The 64-pair TCP run is the aggregate stressor: 128 managers and 64
//! sockets multiplexed onto the sharded reactor, where a
//! thread-per-connection design would burn its time context-switching.
//! It gates on aggregate throughput holding up and on reconnects staying
//! near zero — a reconnect storm is how this fleet fails when liveness
//! probing misreads scheduler starvation as a dead peer. Note the
//! per-batch latency quantiles are **not** gated at scale: `batch_micros`
//! measures submit→ack, which with a 16-deep window includes queueing
//! delay behind earlier batches, so at 64 pairs on an oversubscribed
//! host the p50 sits near a second by design while throughput stays
//! high.
//!
//! Writes `BENCH_tcp.json`; `--quick` shrinks the message count for the
//! `check.sh` smoke run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cond_bench::{header, row, write_bench_json};
use mq::channel::Channel;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{Message, Obs, QueueAddress, QueueManager, SystemClock};

const PAIR_COUNTS: &[usize] = &[1, 8, 64];

/// Lockstep-era loopback throughput at 8 pairs (thread-per-connection
/// blocking transport, one send→ack round trip per batch): the floor the
/// pipelined reactor is measured against.
const LOCKSTEP_8PAIR_MSGS_PER_SEC: f64 = 95_682.5;

struct RunStats {
    msgs_per_sec: f64,
    batch_p50_us: u64,
    batch_p95_us: u64,
    batches: u64,
    reconnects: u64,
    /// Message images assembled during the run (`mq.codec.encodes`
    /// delta over every manager of the fleet).
    encodes: u64,
    /// Envelopes put back on the senders' transmission queues to go out
    /// again (`mq.transport.requeued`).
    requeued: u64,
    /// Transactions the sending managers committed: the mover's sessions
    /// (producers put outside transactions).
    sender_sessions: u64,
}

/// One sender→receiver pair and the channel between them. Acceptors and
/// channels register with their managers, so shutdown is one call per
/// manager.
struct Pair {
    sender: Arc<QueueManager>,
    receiver: Arc<QueueManager>,
    _channel: Channel,
}

fn build_pair(idx: usize, obs: &Arc<Obs>) -> Pair {
    let clock = SystemClock::new();
    let sender = QueueManager::builder(format!("QM.S{idx}"))
        .clock(clock.clone())
        .obs(obs.clone())
        .build()
        .unwrap();
    // Receivers keep hubs of their own: everything read below is counted
    // on the sending side, and `mq.tx.committed` on the senders' hub is
    // then the movers' sessions alone, not the arrival commits as well.
    let receiver = QueueManager::builder(format!("QM.R{idx}"))
        .clock(clock)
        .build()
        .unwrap();
    receiver.create_queue("Q.IN").unwrap();
    let acceptor = TcpAcceptor::bind(&receiver, "127.0.0.1:0").unwrap();
    // Liveness probing tuned for an oversubscribed host: the 64-pair run
    // multiplexes 128 managers' worth of threads onto however many cores
    // the box has, so a healthy peer's ack can lag seconds behind. The
    // default 2s silence deadline would call that a dead peer and
    // reconnect-storm; the stressor measures the data plane, not the
    // prober.
    let config = TcpConfig {
        heartbeat_interval: Duration::from_secs(2),
        read_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    };
    let channel =
        Channel::connect_tcp(&sender, receiver.name(), acceptor.local_addr(), config).unwrap();
    Pair {
        sender,
        receiver,
        _channel: channel,
    }
}

fn run(pairs: usize, msgs_per_pair: usize) -> RunStats {
    // One hub per run: every pair's sending side accumulates into the same
    // mq.transport.* cells, so the histogram covers the whole fleet.
    let obs = Obs::new();
    let fleet: Vec<Pair> = (0..pairs).map(|i| build_pair(i, &obs)).collect();
    // Give the supervisors time to finish their handshakes so the clock
    // measures steady-state moving, not connection establishment.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (obs.metrics().snapshot().counter("mq.transport.connects") as usize) < pairs {
        assert!(Instant::now() < deadline, "transports failed to connect");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The senders share `obs`; each receiver has a hub of its own.
    let fleet_encodes = || {
        obs.metrics().snapshot().counter("mq.codec.encodes")
            + fleet
                .iter()
                .map(|pair| pair.receiver.metrics_snapshot().counter("mq.codec.encodes"))
                .sum::<u64>()
    };
    let encodes_before = fleet_encodes();

    let start = Instant::now();
    let producers: Vec<_> = fleet
        .iter()
        .map(|pair| {
            let sender = pair.sender.clone();
            let dest = QueueAddress::new(pair.receiver.name(), "Q.IN");
            std::thread::spawn(move || {
                for i in 0..msgs_per_pair {
                    sender
                        .put_to(&dest, Message::text(format!("m{i}")).build())
                        .unwrap();
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    for pair in &fleet {
        let q = pair.receiver.queue("Q.IN").unwrap();
        while q.depth() < msgs_per_pair {
            assert!(
                Instant::now() < deadline,
                "x{pairs}: delivery stalled at {}/{msgs_per_pair}",
                q.depth()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let encodes = fleet_encodes() - encodes_before;
    // Everything has landed; the last acks may still be on their way back.
    // Every batch sent is one sender session committed — wait for the
    // tail, then hold it to that.
    let batches_sent = obs.metrics().counter("mq.transport.batches_sent");
    let sender_sessions = obs.metrics().counter("mq.tx.committed");
    while sender_sessions.get() < batches_sent.get() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }

    let hist = obs.metrics().histogram("mq.transport.batch_micros");
    let snap = obs.metrics().snapshot();
    let stats = RunStats {
        msgs_per_sec: (pairs * msgs_per_pair) as f64 / wall,
        batch_p50_us: hist.quantile(0.50),
        batch_p95_us: hist.quantile(0.95),
        batches: batches_sent.get(),
        reconnects: snap.counter("mq.transport.reconnects"),
        encodes,
        requeued: snap.counter("mq.transport.requeued"),
        sender_sessions: sender_sessions.get(),
    };
    assert!(stats.batches > 0, "transport must have moved batches");
    if stats.reconnects == 0 {
        assert_eq!(
            stats.sender_sessions, stats.batches,
            "x{pairs}: one committed sender session per batch",
        );
    }
    // Encode-once: every message is assembled into the frame that
    // carries it, once per staging. A staging beyond the first follows a
    // re-queue, so the count lies between one per message and that plus
    // the re-queued envelopes.
    let total = (pairs * msgs_per_pair) as u64;
    assert!(
        (total..=total + stats.requeued).contains(&stats.encodes),
        "x{pairs}: {} encodes for {} messages and {} re-queued envelopes",
        stats.encodes,
        total,
        stats.requeued,
    );
    for pair in fleet {
        pair.sender.shutdown();
        pair.receiver.shutdown();
    }
    stats
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let msgs_per_pair = if quick { 500 } else { 5_000 };

    println!(
        "# ET — transport: loopback TCP ({msgs_per_pair} msgs/pair{})\n",
        if quick { ", --quick" } else { "" }
    );
    header(&[
        "pairs", "msgs/s", "batch p50 us", "batch p95 us", "batches", "sender sessions",
        "reconnects", "encodes",
    ]);

    let mut results: Vec<(usize, RunStats)> = Vec::new();
    for &pairs in PAIR_COUNTS {
        let stats = run(pairs, msgs_per_pair);
        row(&[
            pairs.to_string(),
            format!("{:.0}", stats.msgs_per_sec),
            stats.batch_p50_us.to_string(),
            stats.batch_p95_us.to_string(),
            stats.batches.to_string(),
            stats.sender_sessions.to_string(),
            stats.reconnects.to_string(),
            stats.encodes.to_string(),
        ]);
        results.push((pairs, stats));
    }

    // Pipelining gates, against the lockstep-era baseline recorded above.
    // The full run must beat lockstep with margin; --quick (fewer
    // messages, so startup and histogram warm-up weigh heavier) gates at
    // a conservative floor that still catches a regression to
    // round-trip-per-batch behaviour.
    for (pairs, stats) in &results {
        if *pairs == 8 {
            let floor = if quick {
                0.6 * LOCKSTEP_8PAIR_MSGS_PER_SEC
            } else {
                1.05 * LOCKSTEP_8PAIR_MSGS_PER_SEC
            };
            assert!(
                stats.msgs_per_sec >= floor,
                "8-pair loopback throughput {:.0} msgs/s below the pipelining \
                 floor {floor:.0} (lockstep baseline {LOCKSTEP_8PAIR_MSGS_PER_SEC})",
                stats.msgs_per_sec,
            );
        }
        if *pairs == 64 {
            // The aggregate stressor must not collapse: before the
            // silence-deadline fix, starvation-induced false heartbeat
            // misses put this run in a reconnect storm (hundreds of
            // reconnects, throughput down ~6x). Both symptoms are gated.
            assert!(
                stats.reconnects <= 4,
                "64-pair run reconnect storm: {} reconnects",
                stats.reconnects,
            );
            assert!(
                stats.msgs_per_sec >= 30_000.0,
                "64-pair aggregate throughput collapsed: {:.0} msgs/s",
                stats.msgs_per_sec,
            );
        }
    }

    let runs_json: Vec<String> = results
        .iter()
        .map(|(pairs, s)| {
            format!(
                concat!(
                    "    {{\"pairs\": {}, \"msgs_per_sec\": {:.1}, ",
                    "\"batch_p50_us\": {}, \"batch_p95_us\": {}, \"batches\": {}, ",
                    "\"sender_sessions\": {}, \"reconnects\": {}, \"encodes\": {}}}"
                ),
                pairs,
                s.msgs_per_sec,
                s.batch_p50_us,
                s.batch_p95_us,
                s.batches,
                s.sender_sessions,
                s.reconnects,
                s.encodes,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"ET transport loopback tcp\",\n  \"msgs_per_pair\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        msgs_per_pair,
        runs_json.join(",\n"),
    );
    write_bench_json("BENCH_tcp.json", quick, &json);
}
