//! ES — the journal as primary store: indexes and O(live) recovery.
//!
//! Two phases, matching the two storage claims:
//!
//! **Index vs scan.** Park a corpus of messages with mixed properties
//! (an i64 `shard`, a string `kind`, a unique correlation id) on two
//! queues — one with property indexing on, one with it forced off — and
//! measure selector gets and correlation-id gets against both. The
//! indexed queue resolves both through point reads (property value bands,
//! exact correlation map); the unindexed queue walks its priority bands
//! evaluating the selector per message.
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
//! --quick`): indexed selector and correlation p95 beat the scan path,
//! and checkpointed restart is ≥10x faster than full-history replay.

use std::sync::Arc;
use std::time::Instant;

use cond_bench::{emit_metrics, header, percentile, row, write_bench_json};
use mq::journal::{Journal, NullJournal, SegmentConfig, SegmentedJournal};
use mq::selector::Selector;
use mq::{ManagerConfig, Message, QueueConfig, QueueManager, Wait};

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
    selector_p95_us: u64,
    correlation_p95_us: u64,
}

/// Parks `parked` corpus messages on a queue (indexed or not) and probes
/// it with selector gets and correlation gets, returning p95 latencies.
fn run_index_phase(parked: usize, ops: usize, indexed: bool) -> IndexStats {
    let qmgr = QueueManager::builder("QM.STORE")
        .journal(NullJournal::new())
        .build()
        .unwrap();
    let queue = if indexed { "IDX" } else { "SCAN" };
    qmgr.create_queue_with(
        queue,
        QueueConfig {
            index_properties: indexed,
            ..QueueConfig::default()
        },
    )
    .unwrap();
    for i in 0..parked {
        qmgr.put(queue, corpus_message(i, false)).unwrap();
    }

    // Selector gets: targeted consumption — each op claims one specific
    // work item by its (shard, kind, seq) coordinates, the pattern the
    // property index exists for. Targets stay in the front half of the
    // corpus so the correlation phase's tail targets are never consumed
    // here. The scan path must walk to the target's queue position; the
    // indexed path resolves through the singleton `seq` value band.
    let mut selector_lat = Vec::with_capacity(ops);
    for op in 0..ops {
        let target = (op * 823) % (parked / 2);
        let shard = target as i64 % SHARDS;
        let kind = KINDS[target % KINDS.len()];
        let sel = Selector::parse(&format!(
            "shard = {shard} AND kind = '{kind}' AND seq = {target}"
        ))
        .unwrap();
        let t = Instant::now();
        let got = qmgr.get_selected(queue, &sel, Wait::NoWait).unwrap();
        selector_lat.push(t.elapsed().as_micros() as u64);
        assert!(got.is_some(), "corpus covers every (shard, kind) point");
    }

    // Correlation gets: exact-match lookups of parked ids, spread across
    // the corpus (the tail end, untouched by the selector phase).
    let mut corr_lat = Vec::with_capacity(ops);
    for op in 0..ops {
        let target = parked - 1 - (op * 13) % (parked / 2);
        let sel = Selector::parse(&format!("correlation_id = 'corr-{target}'")).unwrap();
        let t = Instant::now();
        let got = qmgr.get_selected(queue, &sel, Wait::NoWait).unwrap();
        corr_lat.push(t.elapsed().as_micros() as u64);
        assert!(got.is_some(), "correlation target is parked");
    }

    IndexStats {
        selector_p95_us: percentile(&selector_lat, 0.95),
        correlation_p95_us: percentile(&corr_lat, 0.95),
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
    // Index phase parks `parked` messages per queue; restart phase leaves
    // `live` parked under `churn` put+get pairs of history.
    let (parked, ops, live, churn) = if quick {
        (20_000, 400, 5_000, 100_000)
    } else {
        (500_000, 300, 1_000_000, 8_000_000)
    };

    println!(
        "# ES — journal as primary store ({parked} parked/queue, {live} live / {churn} churn{})\n",
        if quick { ", --quick" } else { "" }
    );

    header(&["queue", "selector get p95 us", "correlation get p95 us"]);
    let idx = run_index_phase(parked, ops, true);
    let scan = run_index_phase(parked, ops, false);
    for (name, stats) in [("indexed", &idx), ("scan", &scan)] {
        row(&[
            name.to_owned(),
            stats.selector_p95_us.to_string(),
            stats.correlation_p95_us.to_string(),
        ]);
    }

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
            "  \"quick\": {quick},\n",
            "  \"index\": {{\n",
            "    \"parked_per_queue\": {parked},\n",
            "    \"ops\": {ops},\n",
            "    \"indexed\": {{\"selector_p95_us\": {isel}, \"correlation_p95_us\": {icorr}}},\n",
            "    \"scan\": {{\"selector_p95_us\": {ssel}, \"correlation_p95_us\": {scorr}}}\n",
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
            "    \"index_beats_scan_selector\": {gsel},\n",
            "    \"index_beats_scan_correlation\": {gcorr}\n",
            "  }}\n",
            "}}\n"
        ),
        quick = quick,
        parked = parked,
        ops = ops,
        isel = idx.selector_p95_us,
        icorr = idx.correlation_p95_us,
        ssel = scan.selector_p95_us,
        scorr = scan.correlation_p95_us,
        live = live,
        churn = churn,
        fbytes = flat.journal_bytes,
        fms = flat.restart_ms,
        cbytes = ckpt.journal_bytes,
        cms = ckpt.restart_ms,
        speedup = speedup,
        gsel = idx.selector_p95_us < scan.selector_p95_us,
        gcorr = idx.correlation_p95_us < scan.correlation_p95_us,
    );
    write_bench_json("BENCH_store.json", quick, &json);

    // Regression gates: the whole point of the storage inversion.
    assert!(
        idx.selector_p95_us < scan.selector_p95_us,
        "indexed selector get p95 ({}us) must beat the scan path ({}us)",
        idx.selector_p95_us,
        scan.selector_p95_us
    );
    assert!(
        idx.correlation_p95_us < scan.correlation_p95_us,
        "indexed correlation get p95 ({}us) must beat the scan path ({}us)",
        idx.correlation_p95_us,
        scan.correlation_p95_us
    );
    assert!(
        speedup >= 10.0,
        "checkpointed restart must be >=10x full replay, measured {speedup:.2}x"
    );

    emit_metrics();
}
