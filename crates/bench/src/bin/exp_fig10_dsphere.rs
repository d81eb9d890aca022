//! E8 — paper Fig. 10: Dependency-Sphere behaviour and cost.
//!
//! Part 1 (correctness matrix, deterministic): the sphere's coupling rules
//! from §3.1/§3.2 — message failure fails the sphere and rolls back
//! resources; a resource veto fails the sphere and compensates *all*
//! messages; a timeout fails pending members; success commits everything.
//!
//! Part 2 (cost): commit_DS latency as a function of the number of member
//! messages, and abort_DS for comparison.

use std::time::Instant;

use cond_bench::{emit_metrics, header, queue_names, row, sim_world, system_world, workload};
use condmsg::ConditionalReceiver;
use dsphere::{DSphereService, KvStore, ProbeResource, SphereOutcome};
use mq::Wait;
use simtime::{Millis, SimClock};

fn correctness() -> Vec<(String, bool)> {
    let mut results = Vec::new();
    let mut check = |name: &str, ok: bool| results.push((name.to_owned(), ok));

    // Success path.
    {
        let clock = SimClock::new();
        let world = sim_world(clock.clone(), &queue_names(2));
        let service = DSphereService::new(world.messenger.clone());
        let kv = KvStore::new("db");
        let mut sphere = service.begin();
        sphere.enlist(kv.clone()).unwrap();
        kv.put(sphere.xid(), "k", "v");
        sphere
            .send_message("a", &workload::fan_out(1, Millis(100)))
            .unwrap();
        clock.advance(Millis(5));
        let mut r = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
        r.read_message("Q.D0", Wait::NoWait).unwrap().unwrap();
        let outcome = sphere.try_commit().unwrap().unwrap();
        check("success: sphere commits", outcome.is_committed());
        check(
            "success: resource committed",
            kv.get("k").as_deref() == Some("v"),
        );
    }

    // Message failure → rollback + compensation.
    {
        let clock = SimClock::new();
        let world = sim_world(clock.clone(), &queue_names(2));
        let service = DSphereService::new(world.messenger.clone());
        let kv = KvStore::new("db");
        let mut sphere = service.begin();
        sphere.enlist(kv.clone()).unwrap();
        kv.put(sphere.xid(), "k", "v");
        sphere
            .send_message("a", &workload::fan_out(2, Millis(50)))
            .unwrap();
        clock.advance(Millis(5));
        let mut r = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
        r.read_message("Q.D0", Wait::NoWait).unwrap().unwrap(); // Q.D1 missed
        clock.advance(Millis(100));
        let outcome = sphere.try_commit().unwrap().unwrap();
        check("msg failure: sphere aborts", !outcome.is_committed());
        check("msg failure: resource rolled back", kv.get("k").is_none());
        let comp = r.read_message("Q.D0", Wait::NoWait).unwrap();
        check(
            "msg failure: consumed destination compensated",
            comp.map(|m| m.kind()) == Some(condmsg::MessageKind::Compensation),
        );
    }

    // Resource veto → messages compensated despite individual success.
    {
        let clock = SimClock::new();
        let world = sim_world(clock.clone(), &queue_names(1));
        let service = DSphereService::new(world.messenger.clone());
        let veto = ProbeResource::vetoing("veto", "no");
        let mut sphere = service.begin();
        sphere.enlist(veto.clone()).unwrap();
        sphere
            .send_message("a", &workload::fan_out(1, Millis(100)))
            .unwrap();
        clock.advance(Millis(5));
        let mut r = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
        r.read_message("Q.D0", Wait::NoWait).unwrap().unwrap();
        let outcome = sphere.try_commit().unwrap().unwrap();
        check("veto: sphere aborts", !outcome.is_committed());
        check("veto: resource rolled back", veto.rolled_back() == 1);
        let comp = r.read_message("Q.D0", Wait::NoWait).unwrap();
        check(
            "veto: successful message still compensated (backward dependency)",
            comp.map(|m| m.kind()) == Some(condmsg::MessageKind::Compensation),
        );
    }

    // Sphere timeout.
    {
        let clock = SimClock::new();
        let world = sim_world(clock.clone(), &queue_names(1));
        let service = DSphereService::new(world.messenger.clone());
        let mut sphere = service.begin_with_timeout(Millis(200));
        sphere
            .send_message("a", &workload::fan_out(1, Millis(10_000)))
            .unwrap();
        let undecided = sphere.try_commit().unwrap();
        clock.advance(Millis(300));
        let outcome = sphere.try_commit().unwrap().unwrap();
        check("timeout: undecided before deadline", undecided.is_none());
        check(
            "timeout: sphere aborts at deadline",
            matches!(outcome, SphereOutcome::Aborted { ref reason } if reason.contains("timeout")),
        );
    }

    results
}

fn cost(k: usize, commit: bool) -> f64 {
    const ITERS: usize = 300;
    let world = system_world(&queue_names(1));
    let service = DSphereService::new(world.messenger.clone());
    let kv = KvStore::new("db");
    let condition = workload::fan_out(1, Millis(600_000));
    let mut receiver = ConditionalReceiver::new(world.qmgr.clone()).unwrap();
    let start = Instant::now();
    for _ in 0..ITERS {
        let mut sphere = service.begin();
        sphere.enlist(kv.clone()).unwrap();
        kv.put(sphere.xid(), "k", "v");
        for _ in 0..k {
            sphere.send_message("member", &condition).unwrap();
        }
        if commit {
            for _ in 0..k {
                receiver
                    .read_message("Q.D0", Wait::NoWait)
                    .unwrap()
                    .unwrap();
            }
            assert!(sphere.try_commit().unwrap().unwrap().is_committed());
        } else {
            sphere.abort("bench").unwrap();
            while receiver
                .read_message("Q.D0", Wait::NoWait)
                .unwrap()
                .is_some()
            {}
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / ITERS as f64
}

fn main() {
    println!("# E8 — Fig. 10: Dependency-Spheres\n");
    println!("## Coupling-rule matrix\n");
    let results = correctness();
    header(&["check", "result"]);
    let mut all = true;
    for (name, ok) in &results {
        all &= ok;
        row(&[name.clone(), if *ok { "PASS" } else { "FAIL" }.into()]);
    }
    assert!(all);

    println!("\n## commit_DS / abort_DS cost vs member count\n");
    header(&["member messages", "commit_DS (µs)", "abort_DS (µs)"]);
    for k in [1usize, 2, 4, 8] {
        let commit = cost(k, true);
        let abort = cost(k, false);
        row(&[k.to_string(), format!("{commit:.0}"), format!("{abort:.0}")]);
    }
    println!();
    println!(
        "expected shape: termination is one journal record whatever the member count \
         (one release for every member; an abort adds one forced cycle); both columns \
         still grow with the member count, through per-member evaluation and \
         compensation traffic."
    );
    emit_metrics();
}
