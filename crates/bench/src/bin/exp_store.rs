//! ES — the journal as primary store: indexes and O(live) recovery.
//!
//! Two phases, matching the two storage claims:
//!
//! **Index vs scan.** Park a corpus of messages with mixed properties
//! (an i64 `shard`, a string `kind`, a unique correlation id) on one
//! queue and claim messages off it two ways: a get by correlation id, a
//! point read of the queue's one secondary index, and a scan — a browse of
//! the queue in delivery order, a find by (`shard`, `kind`, `seq`), and a
//! get of what it found.
//!
//! **Restart-to-ready.** Build the same logical state twice on the
//! segmented journal: once with its full history (every put and get since
//! the beginning of time, no checkpoint ever taken), once checkpointed —
//! live messages snapshotted, all history segments unlinked.
//! Restart-to-ready is the wall-clock from opening the journal to a ready
//! queue manager. Recovery over the checkpointed store is O(live
//! messages); over the full history it is O(everything that ever
//! happened).
//!
//! Writes `BENCH_store.json`. Gates (asserted, wired into `check.sh
//! --quick`): the correlation read's p95 beats the scan's, and
//! checkpointed restart is ≥10x faster than full-history replay.

use std::sync::Arc;
use std::time::Instant;

use cond_bench::{header, percentile, row, write_bench_json};
use mq::journal::{Journal, SegmentConfig, SegmentedJournal};
use mq::{ManagerConfig, Message, QueueManager, Wait};

const KINDS: [&str; 8] = [
    "flight", "train", "hotel", "meeting", "alert", "report", "invoice", "ticket",
];
const SHARDS: i64 = 64;

/// A corpus message: shard/kind spread deterministically, correlation id
/// unique per index.
fn corpus_message(i: usize, persistent: bool) -> Message {
    Message::text(format!("payload {i}"))
        .property("shard", i as i64 % SHARDS)
        .property("kind", KINDS[i % KINDS.len()])
        .property("seq", i as i64)
        .correlation_id(format!("corr-{i}"))
        .persistent(persistent)
        .build()
}

struct IndexStats {
    correlation_p95_us: u64,
    scan_p95_us: u64,
}

/// Parks `parked` corpus messages on one queue and claims messages off it
/// two ways, returning p95 latencies: gets by correlation id (point reads
/// of the correlation index) and scans (a browse and a find, then a get of
/// the message found).
fn run_index_phase(parked: usize, ops: usize) -> IndexStats {
    let qmgr = QueueManager::builder("QM.STORE").build().unwrap();
    qmgr.create_queue("Q").unwrap();
    for i in 0..parked {
        qmgr.put("Q", corpus_message(i, false)).unwrap();
    }
    let queue = qmgr.queue("Q").unwrap();
    // Times finding a message's correlation id and getting it by that id.
    let probe = |find: &dyn Fn() -> String| {
        let t = Instant::now();
        let corr = find();
        let got = qmgr.get_by_correlation("Q", &corr, Wait::NoWait).unwrap();
        let us = t.elapsed().as_micros() as u64;
        assert!(got.is_some(), "{corr} names a parked message");
        us
    };

    // Scans: each op claims one work item by its (shard, kind, seq)
    // coordinates, so the find walks the browse to the target's queue
    // position. Targets stay in the front half of the corpus, the
    // correlation probes' in the back half, so neither consumes the
    // other's.
    let scan: Vec<u64> = (0..ops)
        .map(|op| {
            let target = (op * 823) % (parked / 2);
            let shard = target as i64 % SHARDS;
            let kind = KINDS[target % KINDS.len()];
            probe(&|| {
                let found = queue.browse().into_iter().find(|m| {
                    m.i64_property("shard") == Some(shard)
                        && m.str_property("kind") == Some(kind)
                        && m.i64_property("seq") == Some(target as i64)
                });
                let found = found.expect("the scan reaches its target");
                found.correlation_id().unwrap().to_owned()
            })
        })
        .collect();
    let correlation: Vec<u64> = (0..ops)
        .map(|op| {
            let target = parked - 1 - (op * 13) % (parked / 2);
            probe(&|| format!("corr-{target}"))
        })
        .collect();
    IndexStats {
        correlation_p95_us: percentile(&correlation, 0.95).expect("the index phase runs probes"),
        scan_p95_us: percentile(&scan, 0.95).expect("the index phase runs probes"),
    }
}

/// No automatic checkpointing: the two restart variants must control
/// truncation themselves.
fn manual_checkpoint_config() -> ManagerConfig {
    ManagerConfig {
        checkpoint_bytes: None,
        ..ManagerConfig::default()
    }
}

/// Writes `live` parked puts plus `churn` put+get pairs through a manager
/// over `journal`, leaving exactly `live` messages on Q.
fn populate(journal: Arc<dyn Journal>, live: usize, churn: usize) -> Arc<QueueManager> {
    let qmgr = QueueManager::builder("QM.STORE")
        .journal(journal)
        .config(manual_checkpoint_config())
        .build()
        .unwrap();
    qmgr.create_queue("Q").unwrap();
    for i in 0..live {
        qmgr.put("Q", corpus_message(i, true)).unwrap();
    }
    for i in 0..churn {
        qmgr.put(
            "Q",
            Message::text(format!("churn {i}")).persistent(true).build(),
        )
        .unwrap();
        qmgr.get("Q", Wait::NoWait).unwrap().unwrap();
    }
    qmgr
}

struct RestartStats {
    journal_bytes: u64,
    restart_ms: f64,
}

/// Restart-to-ready over a segmented journal holding `live` messages
/// behind `churn` consumed ones: with `checkpoint`, snapshot + truncate
/// before the crash so recovery replays only the live set; without, the
/// full-history baseline.
fn run_restart(root: &std::path::Path, live: usize, churn: usize, checkpoint: bool) -> RestartStats {
    let config = SegmentConfig::default();
    let qmgr = populate(
        SegmentedJournal::open(root, config.clone()).unwrap(),
        live,
        churn,
    );
    if checkpoint {
        qmgr.checkpoint().unwrap();
    }
    qmgr.crash();
    let t = Instant::now();
    let journal = SegmentedJournal::open(root, config).unwrap();
    let bytes = journal.len_bytes();
    let qmgr = QueueManager::builder("QM.STORE")
        .journal(journal)
        .config(manual_checkpoint_config())
        .build()
        .unwrap();
    let restart_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(qmgr.queue("Q").unwrap().depth(), live);
    RestartStats {
        journal_bytes: bytes,
        restart_ms,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Index phase parks `parked` messages; restart phase leaves
    // `live` parked under `churn` put+get pairs of history.
    let (parked, ops, live, churn) = if quick {
        (20_000, 400, 5_000, 100_000)
    } else {
        (500_000, 300, 1_000_000, 8_000_000)
    };

    println!(
        "# ES — journal as primary store ({parked} parked, {live} live / {churn} churn{})\n",
        if quick { ", --quick" } else { "" }
    );

    header(&["claim", "p95 us"]);
    let idx = run_index_phase(parked, ops);
    row(&["correlation point read".to_owned(), idx.correlation_p95_us.to_string()]);
    row(&["browse scan".to_owned(), idx.scan_p95_us.to_string()]);

    let dir = std::env::temp_dir().join(format!("condmsg-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let flat = run_restart(&dir.join("full-history"), live, churn, false);
    let ckpt = run_restart(&dir.join("checkpointed"), live, churn, true);
    std::fs::remove_dir_all(&dir).ok();
    let speedup = flat.restart_ms / ckpt.restart_ms;

    println!();
    header(&["store", "journal MB", "restart-to-ready ms"]);
    for (name, stats) in [("full-history", &flat), ("checkpointed", &ckpt)] {
        row(&[
            name.to_owned(),
            format!("{:.1}", stats.journal_bytes as f64 / 1e6),
            format!("{:.1}", stats.restart_ms),
        ]);
    }
    println!("\nrestart speedup: {speedup:.1}x");

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"ES journal as primary store\",\n",
            "  \"index\": {{\n",
            "    \"parked\": {parked},\n",
            "    \"ops\": {ops},\n",
            "    \"correlation_p95_us\": {corr},\n",
            "    \"scan_p95_us\": {scan}\n",
            "  }},\n",
            "  \"restart\": {{\n",
            "    \"live\": {live},\n",
            "    \"churn\": {churn},\n",
            "    \"full_history\": {{\"journal_bytes\": {fbytes}, \"restart_ms\": {fms:.2}}},\n",
            "    \"checkpointed\": {{\"journal_bytes\": {cbytes}, \"restart_ms\": {cms:.2}}}\n",
            "  }},\n",
            "  \"gate\": {{\n",
            "    \"min_restart_speedup\": 10.0,\n",
            "    \"measured_restart_speedup\": {speedup:.2},\n",
            "    \"correlation_beats_scan\": {gcorr}\n",
            "  }}\n",
            "}}\n"
        ),
        parked = parked,
        ops = ops,
        corr = idx.correlation_p95_us,
        scan = idx.scan_p95_us,
        live = live,
        churn = churn,
        fbytes = flat.journal_bytes,
        fms = flat.restart_ms,
        cbytes = ckpt.journal_bytes,
        cms = ckpt.restart_ms,
        speedup = speedup,
        gcorr = idx.correlation_p95_us < idx.scan_p95_us,
    );
    write_bench_json("BENCH_store.json", quick, &json);

    // Regression gates: the whole point of the storage inversion.
    assert!(
        idx.correlation_p95_us < idx.scan_p95_us,
        "correlation point read p95 ({}us) must beat the browse scan ({}us)",
        idx.correlation_p95_us,
        idx.scan_p95_us
    );
    assert!(
        speedup >= 10.0,
        "checkpointed restart must be >=10x full replay, measured {speedup:.2}x"
    );
}
