//! Substrate microbenchmarks: queue operations, codec and
//! journal append paths. These calibrate the numbers the higher-level
//! benches build on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mq::codec::{WireDecode, WireEncode};
use mq::journal::{Journal, JournalRecord, MemJournal, SegmentConfig, SegmentedJournal};
use mq::{Message, Priority, QueueManager, Wait};

fn sample_message() -> Message {
    Message::text("a modest payload for benchmarking purposes")
        .property("kind", "flight")
        .property("altitude", 31_000i64)
        .property("urgent", true)
        .priority(Priority::new(7))
        .build()
}

fn bench_queue_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("mq/queue");
    group.throughput(Throughput::Elements(1));

    let qmgr = QueueManager::builder("QM1").build().unwrap();
    qmgr.create_queue("Q").unwrap();
    group.bench_function("put", |b| {
        b.iter(|| qmgr.put("Q", sample_message()).unwrap());
    });
    qmgr.queue("Q").unwrap().purge().unwrap();
    group.bench_function("put_get_roundtrip", |b| {
        b.iter(|| {
            qmgr.put("Q", sample_message()).unwrap();
            qmgr.get("Q", Wait::NoWait).unwrap().unwrap()
        });
    });
    group.bench_function("transacted_roundtrip", |b| {
        b.iter(|| {
            let mut s = qmgr.session();
            s.begin().unwrap();
            s.put("Q", sample_message()).unwrap();
            s.commit().unwrap();
            let mut s = qmgr.session();
            s.begin().unwrap();
            let m = s.get("Q", Wait::NoWait).unwrap().unwrap();
            s.commit().unwrap();
            m
        });
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("mq/codec");
    let msg = sample_message();
    let bytes = msg.to_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_message", |b| {
        b.iter(|| msg.to_bytes());
    });
    group.bench_function("decode_message", |b| {
        b.iter(|| Message::from_bytes(bytes.clone()).unwrap());
    });
    group.finish();
}

fn bench_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("mq/journal");
    group.throughput(Throughput::Elements(1));
    let record = JournalRecord::Put {
        queue: "Q".into(),
        message: sample_message(),
    };
    let mem = MemJournal::new();
    group.bench_function("mem_append", |b| {
        b.iter(|| mem.append(&record).unwrap());
    });
    let root = std::env::temp_dir().join(format!("mq-bench-{}", std::process::id()));
    let segmented = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
    group.bench_function("segmented_append_nosync", |b| {
        b.iter(|| segmented.append(&record).unwrap());
    });
    group.bench_function("replay_1000", |b| {
        b.iter_batched(
            || {
                let j = MemJournal::new();
                for _ in 0..1000 {
                    j.append(&record).unwrap();
                }
                j
            },
            |j| j.replay_collect().unwrap(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_queue_ops, bench_codec, bench_journal
}
criterion_main!(benches);
