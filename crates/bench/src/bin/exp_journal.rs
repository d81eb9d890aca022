//! EJ — journal throughput: how many fsyncs concurrent appenders share.
//!
//! N writer threads append persistent `Put` records to one
//! `SegmentedJournal` with `sync_every_append`: `append` returning means
//! the record is on stable storage. The journal's commit path lets
//! whatever was written while one `sync_data` was in flight share the next
//! one, so N writers amortize fsyncs instead of queueing N of them.
//!
//! The experiment measures appends/sec and per-append latency (p50/p95) at
//! 1, 8 and 64 writers, reopens each journal cold to check every acked
//! append survived, and writes `BENCH_journal.json`. As the regression gate
//! wired into `check.sh --quick` it asserts the *counts*: exactly one fsync
//! per append at 1 writer, at most one per 2 appends at 8 writers, at most
//! one per 8 at 64.
//!
//! For scale it also times a reference that does what the journal did
//! before it had a commit path — a `File` written and `sync_data`ed under
//! one mutex — and reports the throughput ratio. That ratio follows the
//! disk's fsync latency of the minute, so it is reported, not asserted.

use std::fs::File;
use std::io::Write;
use std::sync::Barrier;
use std::time::Instant;

use cond_bench::{header, percentile, row, write_bench_json};
use mq::codec::WireEncode;
use mq::journal::{Journal, JournalRecord, SegmentConfig, SegmentedJournal};
use mq::{Message, MetricsRegistry};
use parking_lot::Mutex;

/// `(writers, appends allowed per fsync at least)`.
const GATES: [(usize, u64); 3] = [(1, 1), (8, 2), (64, 8)];

struct RunStats {
    appends_per_sec: f64,
    p50_us: u64,
    p95_us: u64,
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("condmsg-journal-{}-{name}", std::process::id()))
}

/// Drive `writers` threads through `per_writer` durable appends each and
/// return throughput + latency percentiles. The clock starts when every
/// writer has reached the barrier, so spawn overhead is excluded.
fn run(append: &(dyn Fn(&JournalRecord) + Sync), writers: usize, per_writer: usize) -> RunStats {
    let barrier = Barrier::new(writers + 1);
    let (wall, lats) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(per_writer);
                    barrier.wait();
                    for i in 0..per_writer {
                        let record = JournalRecord::Put {
                            queue: "Q.BENCH".into(),
                            message: Message::text(format!("w{w}-m{i}")).persistent(true).build(),
                        };
                        let t = Instant::now();
                        append(&record);
                        lats.push(t.elapsed().as_micros() as u64);
                    }
                    lats
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut lats = Vec::with_capacity(writers * per_writer);
        for handle in handles {
            lats.extend(handle.join().unwrap());
        }
        (start.elapsed().as_secs_f64(), lats)
    });
    RunStats {
        appends_per_sec: (writers * per_writer) as f64 / wall,
        p50_us: percentile(&lats, 0.50).expect("every writer times its appends"),
        p95_us: percentile(&lats, 0.95).expect("every writer times its appends"),
    }
}

/// The reference: one file, every append written and fsynced while holding
/// the only lock.
fn run_fsync_under_lock(writers: usize, per_writer: usize) -> RunStats {
    let path = tmp(&format!("reference-{writers}.log"));
    let file = Mutex::new(File::create(&path).unwrap());
    let stats = run(
        &|record| {
            let mut file = file.lock();
            file.write_all(&record.to_bytes()).unwrap();
            file.sync_data().unwrap();
        },
        writers,
        per_writer,
    );
    std::fs::remove_file(&path).ok();
    stats
}

/// The journal; returns its stats and how many fsyncs it issued.
fn run_journal(writers: usize, per_writer: usize) -> (RunStats, u64) {
    let root = tmp(&format!("segments-{writers}"));
    std::fs::remove_dir_all(&root).ok();
    let config = SegmentConfig {
        sync_every_append: true,
        ..SegmentConfig::default()
    };
    let journal = SegmentedJournal::open(&root, config.clone()).unwrap();
    let cells = MetricsRegistry::new();
    journal.register_metrics(&cells);
    let stats = run(&|record| journal.append(record).unwrap(), writers, per_writer);
    let appends = (writers * per_writer) as u64;
    let counted = cells.snapshot();
    assert_eq!(
        counted.counter("mq.journal.appends"),
        appends,
        "every append must be counted"
    );
    drop(journal);
    // Reopen cold and check that every acked append survived.
    let reopened = SegmentedJournal::open(&root, config).unwrap();
    assert_eq!(
        reopened.replay_collect().unwrap().len() as u64,
        appends,
        "durable journal must hold every acked append"
    );
    std::fs::remove_dir_all(&root).ok();
    (stats, counted.counter("mq.journal.fsyncs"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_writer = if quick { 48 } else { 192 };

    println!(
        "# EJ — journal group commit ({} appends/writer{})\n",
        per_writer,
        if quick { ", --quick" } else { "" }
    );
    header(&["writers", "mode", "appends/s", "p50 us", "p95 us", "fsyncs", "speedup (not gated)"]);

    let mut runs_json = Vec::new();
    for (writers, share) in GATES {
        let appends = (writers * per_writer) as u64;
        let reference = run_fsync_under_lock(writers, per_writer);
        let (journal, fsyncs) = run_journal(writers, per_writer);
        let speedup = journal.appends_per_sec / reference.appends_per_sec;
        for (mode, stats, fsyncs, speedup) in [
            ("fsync-under-lock", &reference, appends, String::new()),
            ("segmented", &journal, fsyncs, format!("{speedup:.1}x")),
        ] {
            row(&[
                writers.to_string(),
                mode.to_owned(),
                format!("{:.0}", stats.appends_per_sec),
                stats.p50_us.to_string(),
                stats.p95_us.to_string(),
                fsyncs.to_string(),
                speedup,
            ]);
        }
        let side = |s: &RunStats| {
            format!(
                "{{\"appends_per_sec\": {:.1}, \"p50_us\": {}, \"p95_us\": {}}}",
                s.appends_per_sec, s.p50_us, s.p95_us
            )
        };
        runs_json.push(format!(
            "    {{\"writers\": {writers}, \"appends\": {appends}, \"fsyncs\": {fsyncs}, \
             \"gate_max_fsyncs\": {}, \"fsync_under_lock\": {}, \"segmented\": {}, \
             \"speedup_not_gated\": {speedup:.2}}}",
            appends / share,
            side(&reference),
            side(&journal),
        ));
        // Regression gate, on counts: one appender pays exactly one fsync
        // per append (no hand-off, no extra sync); contending appenders
        // share at least `share` appends per fsync.
        if share == 1 {
            assert_eq!(fsyncs, appends, "1 writer: exactly one fsync per append");
        }
        assert!(
            fsyncs * share <= appends,
            "{writers} writers: {fsyncs} fsyncs for {appends} appends, want at most 1 per {share}"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"EJ journal group commit\",\n  \"per_writer_appends\": {per_writer},\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs_json.join(",\n"),
    );
    write_bench_json("BENCH_journal.json", quick, &json);
}
