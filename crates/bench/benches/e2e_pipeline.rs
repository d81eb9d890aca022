//! E7 / paper Fig. 9 — end-to-end cost of the full conditional-messaging
//! pipeline versus the hand-rolled application baseline (S22).
//!
//! One "cycle" = send to N destinations → every destination reads (with
//! acknowledgment) → the sender's evaluation decides success. The
//! middleware path exercises the whole Fig. 9 architecture (SLOG, ACK,
//! COMP, OUTCOME queues); the baseline does the minimum an application
//! could get away with.
//!
//! Expected shape: the middleware costs a constant factor over the
//! baseline (it journals sends, parks compensations and logs receipts,
//! which the baseline skips) — that factor is the price of the guarantees,
//! and it should stay roughly flat as N grows.

use cond_bench::baseline::{baseline_receive, BaselineSender};
use cond_bench::{queue_names, system_world, workload};
use condmsg::{ConditionalReceiver, MessageOutcome};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mq::Wait;
use simtime::Millis;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e_pipeline");
    for n in [1usize, 4, 8] {
        group.throughput(Throughput::Elements(n as u64));

        // Middleware path.
        let world = system_world(&queue_names(n));
        let condition = workload::fan_out(n, Millis(600_000));
        let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
        group.bench_with_input(BenchmarkId::new("conditional", n), &n, |b, &n| {
            b.iter(|| {
                let id = world.messenger.send_message("cycle", &condition).unwrap();
                for i in 0..n {
                    receiver
                        .read_message(&format!("Q.D{i}"), Wait::NoWait)
                        .unwrap()
                        .unwrap();
                }
                let outcome = world.messenger.take_outcome(id, Wait::NoWait).unwrap();
                assert_eq!(outcome.unwrap().outcome, MessageOutcome::Success);
            });
        });

        // Application baseline.
        let world = system_world(&queue_names(n));
        let queues = queue_names(n);
        let mut sender = BaselineSender::new(world.qmgr.clone(), "APP.ACK").unwrap();
        group.bench_with_input(BenchmarkId::new("baseline", n), &n, |b, _| {
            b.iter(|| {
                let id = sender
                    .send_notification("cycle", &queues, Millis(600_000))
                    .unwrap();
                for q in &queues {
                    baseline_receive(&world.qmgr, q).unwrap().unwrap();
                }
                let decided = sender.poll().unwrap();
                assert_eq!(decided, vec![(id, true)]);
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline
}
criterion_main!(benches);
