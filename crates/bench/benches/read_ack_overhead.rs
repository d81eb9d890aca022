//! E5 / paper Fig. 7 — the cost of implicit acknowledgments on the read
//! path.
//!
//! Compares:
//! * `raw_get`: a plain destructive get (no acknowledgment),
//! * `conditional_read`: `ConditionalReceiver::read_message` on a
//!   conditional original (read-ack + receiver-log entry, one transaction),
//! * `raw_tx_get`: get + commit in a messaging transaction,
//! * `conditional_tx_read`: transactional read + `commit_tx` (processed-ack
//!   and log entry staged into the same commit).

use cond_bench::{queue_names, system_world, workload, World};
use condmsg::ConditionalReceiver;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mq::{Message, Wait};
use simtime::Millis;

fn stage_conditional(world: &World) {
    // Drop the previous cycle's outcome notification first so the service
    // queues stay at steady-state depth and the timed region measures the
    // read path, not unbounded state growth.
    world.qmgr.queue("DS.OUTCOME.Q").unwrap().purge().unwrap();
    world
        .messenger
        .send_message("payload", &workload::fan_out(1, Millis(600_000)))
        .unwrap();
}

fn stage_raw(world: &World) {
    world
        .qmgr
        .put("Q.D0", Message::text("payload").persistent(true).build())
        .unwrap();
}

fn bench_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_ack_overhead");
    group.throughput(Throughput::Elements(1));
    let world = system_world(&queue_names(1));

    group.bench_function("raw_get", |b| {
        b.iter_batched(
            || stage_raw(&world),
            |()| world.qmgr.get("Q.D0", Wait::NoWait).unwrap().unwrap(),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("conditional_read", |b| {
        let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
        b.iter_batched(
            || stage_conditional(&world),
            |()| {
                receiver
                    .read_message("Q.D0", Wait::NoWait)
                    .unwrap()
                    .unwrap()
            },
            BatchSize::SmallInput,
        );
        // Keep service queues bounded between bench phases.
        world.qmgr.queue("DS.ACK.Q").unwrap().purge().unwrap();
    });

    group.bench_function("raw_tx_get", |b| {
        b.iter_batched(
            || stage_raw(&world),
            |()| {
                let mut s = world.qmgr.session();
                s.begin().unwrap();
                let m = s.get("Q.D0", Wait::NoWait).unwrap().unwrap();
                s.commit().unwrap();
                m
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("conditional_tx_read", |b| {
        let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
        b.iter_batched(
            || stage_conditional(&world),
            |()| {
                receiver.begin_tx().unwrap();
                let m = receiver
                    .read_message("Q.D0", Wait::NoWait)
                    .unwrap()
                    .unwrap();
                receiver.commit_tx().unwrap();
                m
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reads
}
criterion_main!(benches);
