//! Driving a compiled scenario to completion, on simulated time.
//!
//! Every message is sent at one virtual instant T0, the members of
//! dependency spheres with the rest, send-indexed faults interleaved. A
//! delivery barrier then waits in thread time until every leaf has landed:
//! the channels are loopback TCP like everywhere else and nothing on the
//! wire waits on virtual time, so the clock is still at T0, and a
//! depth-triggered fault fires from this wait once its depth is reached.
//! The acknowledgment reads form a timeline computed from the seeded delay
//! samples before time moves, driven in virtual buckets with time-triggered
//! faults as entries in it and depth-triggered ones checked between
//! buckets. A final advance passes every deadline and sphere timeout, so
//! deadline verdicts fire from armed timers at exact virtual times, and
//! only then does `try_commit` resolve each sphere. A million-message day
//! of traffic settles in seconds, and a run is a pure function of its
//! spec: the wire changes when a message lands in thread time, never the
//! verdict the seeded timeline fixes.
//!
//! The run ends by collecting every tracked message's outcome, waiting
//! until every released compensation has landed, sweeping destination
//! queues (consuming compensations and annihilating the pairs the reads
//! meet), and letting the [`crate::oracle`] check that declared
//! expectations held exactly.
//!
//! Every wait in thread time is one helper, `wait_until_settled`: it
//! checks its predicate and parks on the world's change signal, which
//! every manager bumps after each commit, so it wakes when something
//! moved and never on a tick.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use condmsg::config::DEFAULT_ACK_QUEUE;
use condmsg::{wire, CondMessageId, ConditionalReceiver, MessageKind, MessageOutcome, SendOptions};
use dsphere::DSphere;
use mq::transport::tcp::TcpAcceptor;
use mq::{FaultAction, FaultPlane, Obs, QueueManager, Wait};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtime::{Clock, Millis, Time};

use crate::compile::{
    compile, connect_edge, apply_route, build_condition, ChannelDecl, Compiled, CompiledFault,
    PointKind, ResolvedTrigger, RouteDecl,
};
use crate::error::{engine_err, ScenarioResult};
use crate::oracle::{self, ActorTally, OracleReport};
use crate::spec::{
    expand_idx, AckMode, ActorMode, ConditionSpec, DelaySpec, Expect, FaultActionSpec, ScenarioSpec,
};

/// How long a wait goes on with no manager of the world changing anything
/// before it fails the run.
const NO_PROGRESS: Duration = Duration::from_secs(30);

/// Metrics surfaced in every [`RunReport`].
const KEY_METRICS: &[&str] = &[
    "cond.sent",
    "cond.fanout",
    "cond.verdict.success",
    "cond.verdict.failure",
    "cond.comp.released",
    "cond.recv.annihilated",
    "dsphere.committed",
    "dsphere.aborted",
    "mq.relay.forwarded",
];

/// What a finished run looked like.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Conditional sends accepted (including sphere member sends).
    pub sent: u64,
    /// Sends rejected at the send call.
    pub send_errors: u64,
    /// Success verdicts observed.
    pub success: u64,
    /// Failure verdicts observed.
    pub failure: u64,
    /// Committed sphere rounds.
    pub spheres_committed: u64,
    /// Aborted sphere rounds.
    pub spheres_aborted: u64,
    /// Compensation messages consumed by the terminal sweep.
    pub comps_swept: u64,
    /// Send-to-verdict latency per tracked message, scenario-clock ms.
    pub verdict_latency_ms: Vec<u64>,
    /// Key run-wide metric counters.
    pub metrics: Vec<(String, u64)>,
    /// The oracle's verdict.
    pub oracle: OracleReport,
}

/// Compiles and runs `spec`, returning the report. `quick` selects the
/// actors' reduced populations.
///
/// # Errors
///
/// Spec/compile errors, harness failures, and engine errors when the run
/// cannot be driven to completion (a wedged delivery, an unbindable
/// address after crash-rebuild, …). Oracle *failures* are not errors —
/// they are reported in [`RunReport::oracle`].
pub fn run(spec: &ScenarioSpec, quick: bool) -> ScenarioResult<RunReport> {
    let mut world = compile(spec, quick)?;
    let result = drive(spec, &mut world);
    for rt in world.managers.values() {
        rt.qmgr.shutdown();
    }
    result
}

/// One accepted conditional send (at T0, like every send) we track to
/// its verdict.
struct SendRecord {
    actor_idx: usize,
    /// Message index within the actor (the `{i}` binding).
    msg_idx: u64,
    id: CondMessageId,
}

/// One sphere round, open from its send until the end of the run.
struct SphereRound {
    actor_idx: usize,
    /// Round index within the actor (the `{i}` binding).
    msg_idx: u64,
    sphere: DSphere,
}

fn sample_delay_ms(rng: &mut StdRng, delay: &DelaySpec) -> u64 {
    match delay {
        DelaySpec::Fixed { ms } => *ms,
        DelaySpec::Uniform { min_ms, max_ms } => {
            if max_ms > min_ms {
                rng.gen_range(*min_ms..=*max_ms)
            } else {
                *min_ms
            }
        }
        DelaySpec::Pareto {
            scale_ms,
            alpha,
            cap_ms,
        } => {
            let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
            let u = u.max(1e-12);
            let d = scale_ms * u.powf(-1.0 / alpha.max(1e-6));
            (d as u64).min(*cap_ms)
        }
    }
}

fn acker_rng(seed: u64, acker_idx: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(acker_idx as u64 + 1)))
}

// ------------------------------------------------------------- faults --

fn to_mq_action(action: FaultActionSpec) -> ScenarioResult<FaultAction> {
    Ok(match action {
        FaultActionSpec::Partition => FaultAction::Partition,
        FaultActionSpec::Heal => FaultAction::Heal,
        FaultActionSpec::DropNext(n) => FaultAction::DropNext(n),
        FaultActionSpec::KickConnections => FaultAction::KickConnections,
        FaultActionSpec::TearJournalTail => FaultAction::TearJournalTail,
        FaultActionSpec::FailStorage => FaultAction::FailStorage,
        FaultActionSpec::HealStorage => FaultAction::HealStorage,
        FaultActionSpec::CrashRebuild => {
            return Err(engine_err("crash_rebuild is not a transport fault"))
        }
    })
}

fn fire_fault(world: &mut Compiled, fault: &CompiledFault) -> ScenarioResult<()> {
    let rt = |manager: &str| world.managers.get(manager);
    let plane: Option<Arc<dyn FaultPlane>> = match &fault.point {
        PointKind::Crash { manager } => return crash_rebuild(world, &manager.clone()),
        PointKind::Tcp { manager } => rt(manager)
            .and_then(|m| m.acceptor.clone())
            .map(|a| a as Arc<dyn FaultPlane>),
        PointKind::Journal { manager } => rt(manager)
            .map(|m| m.journal.clone())
            .map(|j| j as Arc<dyn FaultPlane>),
    };
    let plane =
        plane.ok_or_else(|| engine_err(format!("no live fault point {:?}", fault.point)))?;
    plane.apply_fault(to_mq_action(fault.action)?)?;
    Ok(())
}

/// Crashes a relay manager and rebuilds it from its journal: same name,
/// same listen address, declared queues re-ensured, every outbound edge
/// (including deferred ones) reconnected, and routing declarations
/// reapplied. Inbound TCP peers re-dial the same address on their own
/// backoff; custody of in-flight envelopes survives via the journal.
fn crash_rebuild(world: &mut Compiled, name: &str) -> ScenarioResult<()> {
    let mut rt = world
        .managers
        .remove(name)
        .ok_or_else(|| engine_err(format!("crash of unknown manager `{name}`")))?;
    if let Some(acc) = rt.acceptor.take() {
        acc.shutdown();
    }
    rt.qmgr.crash();
    // Outbound movers hold the dead manager; drop them — the rebuild
    // reconnects every declared outbound edge below.
    world.channels.retain(|c| c.decl.from != name);

    let qmgr = QueueManager::builder(name)
        .clock(world.clock.clone())
        .obs(world.obs.clone())
        .journal(rt.journal.clone())
        .build()?;
    for q in &rt.queues {
        qmgr.ensure_queue(q)?;
    }
    // The same address, so inbound peers heal without re-resolution: the
    // old acceptor's shutdown joined the thread that owned its listener,
    // and std binds with `SO_REUSEADDR`.
    let acceptor = match rt.addr {
        Some(addr) => Some(TcpAcceptor::bind(&qmgr, &addr.to_string()).map_err(|e| {
            engine_err(format!("could not rebind {addr} after crash of {name}: {e}"))
        })?),
        None => None,
    };
    rt.qmgr = qmgr;
    rt.acceptor = acceptor;
    world.managers.insert(name.to_owned(), rt);

    let decls: Vec<ChannelDecl> = world
        .decls
        .iter()
        .filter(|d| d.from == name)
        .cloned()
        .collect();
    for decl in &decls {
        let ch = connect_edge(&world.managers, decl)?;
        world.channels.push(ch);
    }
    let routes: Vec<RouteDecl> = world
        .routes
        .iter()
        .filter(|r| r.manager == name)
        .cloned()
        .collect();
    for route in &routes {
        apply_route(&world.managers, route)?;
    }
    Ok(())
}

/// Fires, in declaration order, every not-yet-fired fault whose trigger
/// `due` accepts. Returns an error if a fault cannot land.
fn fire_due(
    world: &mut Compiled,
    fired: &mut [bool],
    due: impl Fn(&Compiled, &ResolvedTrigger) -> bool,
) -> ScenarioResult<()> {
    for (k, done) in fired.iter_mut().enumerate() {
        if !*done && due(world, &world.faults[k].trigger) {
            *done = true;
            let fault = world.faults[k].clone();
            fire_fault(world, &fault)?;
        }
    }
    Ok(())
}

/// Whether a send-indexed trigger is due at global send index `g`.
fn at_send(g: u64) -> impl Fn(&Compiled, &ResolvedTrigger) -> bool {
    move |_, trigger| matches!(trigger, ResolvedTrigger::AtSend(at) if *at <= g)
}

/// Whether a depth trigger's queue has reached its depth.
fn depth_reached(world: &Compiled, trigger: &ResolvedTrigger) -> bool {
    matches!(
        trigger,
        ResolvedTrigger::WhenDepth { manager, queue, min_depth }
            if world.depth(manager, queue).unwrap_or(0) >= *min_depth
    )
}

/// Names a depth-triggered fault that is still unfired, if one is.
fn unfired_depth_fault(world: &Compiled, fired: &[bool]) -> Option<String> {
    let unfired = world.faults.iter().zip(fired).find(|(fault, done)| {
        !**done && matches!(fault.trigger, ResolvedTrigger::WhenDepth { .. })
    });
    unfired.map(|(fault, _)| {
        format!("fault on {:?} never triggered: depth threshold not reached", fault.point)
    })
}

// ---------------------------------------------------------- send path --

/// Runs every actor's send loop in declaration order, firing due
/// send-indexed faults before each send. Plain sends are recorded for the
/// settle phase; each sphere round is begun, its member sent, and the
/// sphere kept open for the end of the run.
fn do_sends(
    world: &mut Compiled,
    tally: &mut [ActorTally],
    records: &mut Vec<SendRecord>,
    spheres: &mut Vec<SphereRound>,
    fired: &mut [bool],
) -> ScenarioResult<()> {
    let mut g = 0_u64;
    for (actor_idx, t) in tally.iter_mut().enumerate() {
        let actor = world.actors[actor_idx].clone();
        for i in 0..actor.count {
            fire_due(world, fired, at_send(g))?;
            g += 1;
            let payload = expand_idx(&actor.spec.payload, i);
            let comp = actor
                .spec
                .compensation
                .as_ref()
                .map(|c| Bytes::from(expand_idx(c, i)));
            let cond = build_condition(&actor.spec.condition, i);
            let opts = SendOptions {
                evaluation_timeout: actor.spec.evaluation_timeout_ms.map(Millis),
                ..SendOptions::default()
            };
            match actor.spec.mode {
                ActorMode::Send => {
                    let messenger = world
                        .messengers
                        .get(&actor.spec.manager)
                        .ok_or_else(|| engine_err("actor manager lost its messenger"))?
                        .clone();
                    match messenger.send_with(payload, comp, &cond, opts) {
                        Ok(id) => {
                            t.sent += 1;
                            records.push(SendRecord {
                                actor_idx,
                                msg_idx: i,
                                id,
                            });
                        }
                        Err(_) => t.send_errors += 1,
                    }
                }
                ActorMode::Sphere { timeout_ms } => {
                    let service = world
                        .spheres
                        .get(&actor.spec.manager)
                        .ok_or_else(|| engine_err("sphere actor lost its service"))?
                        .clone();
                    let mut sphere = service.begin_with_timeout(Millis(timeout_ms));
                    let sent = match comp {
                        Some(c) => sphere.send_message_with_compensation(payload, c, &cond),
                        None => sphere.send_message(payload, &cond),
                    };
                    if sent.is_err() {
                        t.send_errors += 1;
                        continue;
                    }
                    t.sent += 1;
                    spheres.push(SphereRound {
                        actor_idx,
                        msg_idx: i,
                        sphere,
                    });
                }
            }
        }
    }
    fire_due(world, fired, at_send(u64::MAX))
}

/// Resolves every sphere round with `try_commit`, once the final advance
/// has passed every member deadline and sphere timeout.
fn resolve_spheres(
    world: &Compiled,
    tally: &mut [ActorTally],
    spheres: &mut [SphereRound],
) -> ScenarioResult<()> {
    for round in spheres {
        let t = &mut tally[round.actor_idx];
        match round.sphere.try_commit() {
            Ok(Some(o)) if o.is_committed() => t.committed += 1,
            Ok(Some(_)) => t.aborted += 1,
            Ok(None) => t.undecided += 1,
            Err(e) => {
                return Err(engine_err(format!(
                    "sphere round {} of `{}` failed: {e}",
                    round.msg_idx, world.actors[round.actor_idx].spec.name
                )))
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------- settle/sweep --

fn settle_records(
    world: &Compiled,
    tally: &mut [ActorTally],
    records: &[SendRecord],
    t0: Time,
    latencies: &mut Vec<u64>,
) {
    for rec in records {
        let actor = &world.actors[rec.actor_idx];
        let Some(messenger) = world.messengers.get(&actor.spec.manager) else {
            tally[rec.actor_idx].undecided += 1;
            continue;
        };
        match messenger.take_outcome(rec.id, Wait::NoWait) {
            Ok(Some(n)) => {
                match n.outcome {
                    MessageOutcome::Success => tally[rec.actor_idx].success += 1,
                    MessageOutcome::Failure => tally[rec.actor_idx].failure += 1,
                }
                latencies.push(n.decided_at.since(t0).as_u64());
            }
            Ok(None) | Err(_) => tally[rec.actor_idx].undecided += 1,
        }
    }
}

/// Drains every declared application queue: compensations are consumed,
/// and a read annihilates the original/compensation pairs it meets (it
/// returns `None` when pairs were all it met, so the loop keys on depth,
/// not on read results). A queue's sweep ends at the first read that
/// leaves its depth as it was; the oracle reports what is left. Returns
/// how many compensations the reads consumed.
fn sweep_queues(world: &Compiled) -> ScenarioResult<u64> {
    let mut comps_swept = 0;
    for (name, rt) in &world.managers {
        for q in &rt.queues {
            let recipient = world
                .ack_plan
                .get(&(name.clone(), q.clone()))
                .and_then(|idx| world.ackers[*idx].recipient.clone());
            let mut recv = match &recipient {
                Some(r) => ConditionalReceiver::with_identity(rt.qmgr.clone(), r.clone())?,
                None => ConditionalReceiver::new(rt.qmgr.clone())?,
            };
            let depth = || world.depth(name, q).unwrap_or(0);
            let mut before = depth();
            while before > 0 {
                match recv.read_message(q, Wait::NoWait) {
                    Ok(Some(m)) if m.kind() == MessageKind::Compensation => comps_swept += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
                let after = depth();
                if after == before {
                    break;
                }
                before = after;
            }
        }
    }
    Ok(comps_swept)
}

fn finish(
    spec: &ScenarioSpec,
    world: &Compiled,
    tally: &[ActorTally],
    comps_swept: u64,
    latencies: Vec<u64>,
) -> RunReport {
    let snapshot = world.obs.snapshot();
    let metrics = KEY_METRICS
        .iter()
        .map(|m| ((*m).to_owned(), snapshot.counter(m)))
        .collect();
    let oracle = oracle::evaluate(world, tally);
    let mut report = RunReport {
        name: spec.name.clone(),
        sent: 0,
        send_errors: 0,
        success: 0,
        failure: 0,
        spheres_committed: 0,
        spheres_aborted: 0,
        comps_swept,
        verdict_latency_ms: latencies,
        metrics,
        oracle,
    };
    for t in tally {
        report.sent += t.sent;
        report.send_errors += t.send_errors;
        report.success += t.success;
        report.failure += t.failure;
        report.spheres_committed += t.committed;
        report.spheres_aborted += t.aborted;
    }
    report
}

// -------------------------------------------------------------- drive --

/// A scheduled acknowledgment read in the virtual timeline.
struct ReadEvent {
    /// Absolute virtual time of the read.
    at_ms: u64,
    acker_idx: usize,
}

fn drive(spec: &ScenarioSpec, world: &mut Compiled) -> ScenarioResult<RunReport> {
    let mut tally = vec![ActorTally::default(); world.actors.len()];
    let mut records = Vec::new();
    let mut spheres = Vec::new();
    let mut fired = vec![false; world.faults.len()];

    // Phase 1: every message is sent at one virtual instant T0, with
    // send-indexed faults interleaved. Nothing advances the clock here,
    // so every pickup/process deadline is anchored at exactly T0.
    let t0 = world.clock.now().as_millis();
    do_sends(world, &mut tally, &mut records, &mut spheres, &mut fired)?;

    // Count originals landing on each destination queue, sphere members
    // included, and note which actor owns the queue (sampled expectations
    // are per actor, so two actors sharing a queue would make attribution
    // ambiguous).
    let mut q_sent: HashMap<(String, String), u64> = HashMap::new();
    let mut q_owner: HashMap<(String, String), usize> = HashMap::new();
    let sends = records.iter().map(|r| (r.actor_idx, r.msg_idx));
    for (actor_idx, msg_idx) in sends.chain(spheres.iter().map(|s| (s.actor_idx, s.msg_idx))) {
        let actor = &world.actors[actor_idx];
        // Leaves are re-derived from the spec rather than kept per-send:
        // with a million records, storing each instantiated tree would
        // dwarf the run itself.
        let cond = build_condition(&actor.spec.condition, msg_idx);
        for leaf in cond.leaves() {
            let key = (
                leaf.address().manager.clone(),
                leaf.address().queue.clone(),
            );
            *q_sent.entry(key.clone()).or_insert(0) += 1;
            if let Some(prev) = q_owner.insert(key.clone(), actor_idx) {
                if prev != actor_idx
                    && (world.actors[prev].spec.expect == Expect::Sampled
                        || actor.spec.expect == Expect::Sampled)
                {
                    return Err(engine_err(format!(
                        "queue {}/{} is shared by sampled actors; attribution is ambiguous",
                        key.0, key.1
                    )));
                }
            }
        }
    }

    // Phase 2: delivery barrier. The movers run in thread time and nothing
    // on the wire waits on virtual time, so the clock stays at T0 until
    // every original has landed. Depth-triggered faults fire from this
    // wait: a relay whose outbound channels are deferred holds its
    // envelopes until the crash-rebuild such a fault triggers.
    let obs = world.obs.clone();
    wait_until_settled(&obs, NO_PROGRESS, || {
        fire_due(world, &mut fired, depth_reached)?;
        let missing: u64 = q_sent
            .iter()
            .map(|((mgr, q), want)| want.saturating_sub(world.depth(mgr, q).unwrap_or(0)))
            .sum();
        // A depth fault that never fired may be what holds a deferred
        // channel shut; name it rather than the stalled delivery.
        Ok((missing > 0).then(|| {
            unfired_depth_fault(world, &fired)
                .unwrap_or_else(|| format!("{missing} originals never landed"))
        }))
    })?;

    // Phase 3: build the deterministic acknowledgment timeline. Each
    // acked queue gets `q_sent` delay samples from its acker's seeded
    // distribution; for sampled actors, delays at or past the pickup
    // window mean the message is never read (it fails by deadline), and
    // the exact expected success count is recorded for the oracle.
    let mut events: Vec<ReadEvent> = Vec::new();
    let mut rngs: Vec<StdRng> = (0..world.ackers.len())
        .map(|idx| acker_rng(spec.seed, idx))
        .collect();
    for ((mgr, q), n) in &q_sent {
        let Some(&acker_idx) = world.ack_plan.get(&(mgr.clone(), q.clone())) else {
            continue; // no acker: every message here fails by deadline
        };
        let mut delays: Vec<u64> = (0..*n)
            .map(|_| sample_delay_ms(&mut rngs[acker_idx], &world.ackers[acker_idx].delay))
            .collect();
        delays.sort_unstable();
        let owner = q_owner.get(&(mgr.clone(), q.clone())).copied();
        let sampled_window = owner.and_then(|a| {
            let actor = &world.actors[a];
            if actor.spec.expect == Expect::Sampled {
                match &actor.spec.condition {
                    ConditionSpec::Dest(d) => d.pickup_within_ms,
                    ConditionSpec::Set(_) => None,
                }
            } else {
                None
            }
        });
        for d in delays {
            if let Some(window) = sampled_window {
                if d >= window {
                    continue; // never read; deadline failure expected
                }
                if let Some(a) = owner {
                    let t = &mut tally[a];
                    t.expected_success = Some(t.expected_success.unwrap_or(0) + 1);
                }
            }
            events.push(ReadEvent {
                at_ms: t0 + d,
                acker_idx,
            });
        }
    }
    // Sampled actors with zero expected successes still need the field
    // set, or the oracle treats them as unattributed.
    for (actor, t) in world.actors.iter().zip(tally.iter_mut()) {
        if actor.spec.expect == Expect::Sampled && t.expected_success.is_none() {
            t.expected_success = Some(0);
        }
    }
    // Time-triggered faults join the same timeline as pseudo-events.
    let mut timeline: Vec<(u64, Result<usize, usize>)> = Vec::with_capacity(events.len());
    for (k, ev) in events.iter().enumerate() {
        timeline.push((ev.at_ms, Ok(k)));
    }
    for (k, (fault, done)) in world.faults.iter().zip(&fired).enumerate() {
        if let ResolvedTrigger::AtMs(at) = fault.trigger {
            if !done {
                timeline.push((t0 + at, Err(k)));
            }
        }
    }
    timeline.sort_by_key(|(at, _)| *at);

    // Phase 4: drive the timeline in 250 ms buckets. Advancing to the
    // bucket *floor* means reads happen at or slightly before their
    // sampled instant — never after — so a read planned inside a window
    // can never slip past its deadline from bucketing alone.
    const BUCKET_MS: u64 = 250;
    let mut receivers: Vec<Option<ConditionalReceiver>> = Vec::new();
    for acker in &world.ackers {
        let recv = match world.managers.get(&acker.manager) {
            Some(rt) => match &acker.recipient {
                Some(r) => Some(ConditionalReceiver::with_identity(rt.qmgr.clone(), r.clone())?),
                None => Some(ConditionalReceiver::new(rt.qmgr.clone())?),
            },
            None => None,
        };
        receivers.push(recv);
    }
    let mut cursor = 0_usize;
    while cursor < timeline.len() {
        let bucket_floor = (timeline[cursor].0 / BUCKET_MS) * BUCKET_MS;
        if bucket_floor > world.clock.now().as_millis() {
            world.clock.advance_to(Time(bucket_floor));
        }
        while cursor < timeline.len() && timeline[cursor].0 < bucket_floor + BUCKET_MS {
            match timeline[cursor].1 {
                Ok(ev_idx) => {
                    let acker_idx = events[ev_idx].acker_idx;
                    let acker = world.ackers[acker_idx].clone();
                    if let Some(recv) = receivers[acker_idx].as_mut() {
                        perform_read(recv, &acker)?;
                    }
                }
                Err(fault_idx) => {
                    fired[fault_idx] = true;
                    let fault = world.faults[fault_idx].clone();
                    fire_fault(world, &fault)?;
                }
            }
            cursor += 1;
        }
        quiesce(world)?;
        fire_due(world, &mut fired, depth_reached)?;
    }
    drop(receivers);

    // Phase 5: advance past every deadline and sphere timeout so pending
    // verdicts fire, compensations release, and annihilation candidates
    // land; then resolve the spheres, whose released actions go out over
    // the wire like any other.
    let horizon = world.actors.iter().map(|a| a.horizon_ms).max().unwrap_or(0);
    world.clock.advance_to(Time(t0 + horizon + 2_000));
    quiesce(world)?;
    fire_due(world, &mut fired, depth_reached)?;
    if let Some(unfired) = unfired_depth_fault(world, &fired) {
        return Err(engine_err(unfired));
    }
    resolve_spheres(world, &mut tally, &mut spheres)?;
    await_compensations(world)?;

    // Phase 6: collect outcomes (already decided), sweep, and judge.
    let mut latencies = Vec::new();
    settle_records(world, &mut tally, &records, Time(t0), &mut latencies);
    let comps_swept = sweep_queues(world)?;
    Ok(finish(spec, world, &tally, comps_swept, latencies))
}

fn perform_read(
    recv: &mut ConditionalReceiver,
    acker: &crate::compile::AckerRt,
) -> ScenarioResult<()> {
    match acker.mode {
        AckMode::Read => {
            recv.read_message(&acker.queue, Wait::NoWait)?;
        }
        AckMode::Process => {
            recv.begin_tx()?;
            match recv.read_message(&acker.queue, Wait::NoWait) {
                Ok(Some(_)) => recv.commit_tx()?,
                Ok(None) => recv.rollback_tx()?,
                Err(e) => {
                    let _ = recv.rollback_tx();
                    return Err(e.into());
                }
            }
        }
    }
    Ok(())
}

/// Checks `outstanding` and, while it names something, parks until some
/// manager of the world changes something, then checks again. A check
/// counts only if nothing changed while it ran, so a message moving
/// between two managers is never missed between reading one and the
/// other. Fails the run with what `outstanding` last named once nothing
/// has changed for `bound` ([`NO_PROGRESS`] in a run).
///
/// Exact because every input of every predicate here changes before the
/// signal that follows it: a commit bumps it after its effects are
/// visible, a channel after it releases a batch, and the messenger after
/// it counts acknowledgments it took off `DS.ACK.Q`.
fn wait_until_settled(
    obs: &Obs,
    bound: Duration,
    mut outstanding: impl FnMut() -> ScenarioResult<Option<String>>,
) -> ScenarioResult<()> {
    let signal = obs.changes();
    loop {
        let seen = signal.seq();
        match outstanding()? {
            None if signal.seq() == seen => return Ok(()),
            None => {}
            Some(what) if !signal.wait_past(seen, bound) => {
                return Err(engine_err(format!("{what}, and nothing changed for {bound:?}")))
            }
            Some(_) => {}
        }
    }
}

/// Waits until every released compensation has reached its destination:
/// each one is on a declared queue, delivered to the application, or
/// annihilated. The sweep reads what it finds, so a compensation still on
/// the wire would let it take the failed original as an ordinary delivery
/// instead of annihilating the pair.
fn await_compensations(world: &Compiled) -> ScenarioResult<()> {
    let metrics = world.obs.metrics();
    let released = metrics.counter("cond.comp.released").get();
    let ended = metrics.counter("cond.recv.comp_delivered").get()
        + metrics.counter("cond.recv.annihilated").get();
    wait_until_settled(&world.obs, NO_PROGRESS, || {
        let queued: usize = world
            .managers
            .values()
            .flat_map(|rt| rt.queues.iter().filter_map(|q| rt.qmgr.queue(q).ok()))
            .map(|q| {
                q.browse()
                    .iter()
                    .filter(|m| wire::kind_of(m) == MessageKind::Compensation)
                    .count()
            })
            .sum();
        let missing = released.saturating_sub(queued as u64 + ended);
        Ok((missing > 0)
            .then(|| format!("{missing} of {released} released compensations never landed")))
    })
}

/// Waits (in thread time, no virtual advance) until nothing is on its way
/// between managers: every acknowledgment the receivers sent has been
/// taken by its messenger, and no manager holds a message on a
/// transmission queue or a sender's `DS.ACK.Q`, counting messages taken
/// off them by transactions still open (a channel's batch until its peer
/// acknowledges it). Fails the run, naming what is still in flight, if
/// the world stops moving first.
fn quiesce(world: &Compiled) -> ScenarioResult<()> {
    let metrics = world.obs.metrics();
    let sent = [
        metrics.counter("cond.recv.read_acks"),
        metrics.counter("cond.recv.processed_acks"),
    ];
    let taken = metrics.histogram("cond.ack.batch_size");
    wait_until_settled(&world.obs, NO_PROGRESS, || {
        let mut busy = Vec::new();
        let acks = sent.iter().map(|c| c.get()).sum::<u64>().saturating_sub(taken.sum());
        if acks > 0 {
            busy.push(format!("{acks} acknowledgments not yet taken"));
        }
        for (name, rt) in &world.managers {
            let unsent = rt.qmgr.unsent();
            if unsent > 0 {
                busy.push(format!("{unsent} messages on transmission queues of {name}"));
            }
            let held = rt.qmgr.queue(DEFAULT_ACK_QUEUE).map_or(0, |q| q.held());
            if held > 0 {
                busy.push(format!("{held} acknowledgments on {DEFAULT_ACK_QUEUE} of {name}"));
            }
        }
        Ok((!busy.is_empty()).then(|| format!("still in flight: {}", busy.join(", "))))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wait_ends_when_its_predicate_holds_and_fails_naming_what_stalled() {
        let obs = Obs::new();
        let mut left = 3;
        let bumper = std::thread::spawn({
            let obs = obs.clone();
            move || (0..3).for_each(|_| obs.changes().bump())
        });
        let mut checks = 0;
        wait_until_settled(&obs, NO_PROGRESS, || {
            checks += 1;
            left = 3 - obs.changes().seq().min(3);
            Ok((left > 0).then(|| format!("{left} to go")))
        })
        .unwrap();
        bumper.join().unwrap();
        assert_eq!(left, 0);
        assert!(checks <= 4, "one check per change at most, then one more: {checks}");

        let stalled = wait_until_settled(&obs, Duration::from_millis(5), || {
            Ok(Some("2 messages on transmission queues of QM.A".to_owned()))
        });
        let e = stalled.unwrap_err().to_string();
        assert!(e.contains("2 messages on transmission queues of QM.A"), "{e}");
        assert!(e.contains("nothing changed for 5ms"), "{e}");
    }

    #[test]
    fn sample_delay_is_deterministic_and_bounded() {
        let spec = DelaySpec::Pareto {
            scale_ms: 100.0,
            alpha: 1.3,
            cap_ms: 5_000,
        };
        let a: Vec<u64> = {
            let mut rng = acker_rng(7, 0);
            (0..64).map(|_| sample_delay_ms(&mut rng, &spec)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = acker_rng(7, 0);
            (0..64).map(|_| sample_delay_ms(&mut rng, &spec)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|d| *d <= 5_000));
        assert!(a.iter().any(|d| *d >= 100), "{a:?}");

        let mut rng = acker_rng(7, 1);
        assert_eq!(
            sample_delay_ms(&mut rng, &DelaySpec::Fixed { ms: 42 }),
            42
        );
        let u = sample_delay_ms(
            &mut rng,
            &DelaySpec::Uniform {
                min_ms: 5,
                max_ms: 9,
            },
        );
        assert!((5..=9).contains(&u));
    }

    /// Five sends from QM.S to a queue on QM.D that an acker reads.
    const ACKED: &str = r#"
name = "unit-sim"
seed = 11

[[managers]]
name = "QM.S"

[[managers]]
name = "QM.D"

[[queues]]
manager = "QM.D"
name = "Q.APP"

[[channels]]
from = "QM.S"
to = "QM.D"

[[channels]]
from = "QM.D"
to = "QM.S"

[[actors]]
name = "ok"
manager = "QM.S"
count = 5

[actors.condition]
manager = "QM.D"
queue = "Q.APP"
pickup_within_ms = 10000

[[ackers]]
manager = "QM.D"
queue = "Q.APP"
delay = { ms = 50 }
"#;

    #[test]
    fn sim_success_scenario_end_to_end() {
        let spec = ScenarioSpec::from_toml_str(ACKED).unwrap();
        let report = run(&spec, false).unwrap();
        assert_eq!(report.sent, 5);
        assert_eq!(report.success, 5);
        assert_eq!(report.failure, 0);
        assert!(report.oracle.passed(), "{}", report.oracle);
    }

    #[test]
    fn a_depth_trigger_never_reached_fails_the_run() {
        let spec = ScenarioSpec::from_toml_str(&format!(
            "{ACKED}\n[[faults]]\npoint = \"tcp:QM.D\"\naction = \"partition\"\n\
             [faults.when_depth]\nmanager = \"QM.D\"\nqueue = \"Q.APP\"\nmin_depth = 6\n"
        ))
        .unwrap();
        let Err(e) = run(&spec, false) else {
            panic!("a fault whose depth five sends cannot reach must fail the run");
        };
        assert!(e.to_string().contains("never triggered"), "{e}");
    }

    #[test]
    fn sim_failure_and_annihilation_scenario() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
name = "unit-fail"
seed = 3

[[managers]]
name = "QM.S"

[[managers]]
name = "QM.D"

[[queues]]
manager = "QM.D"
name = "Q.NOBODY"

[[channels]]
from = "QM.S"
to = "QM.D"

[[actors]]
name = "doomed"
manager = "QM.S"
count = 4
compensation = "undo-{i}"
expect = "failure"

[actors.condition]
manager = "QM.D"
queue = "Q.NOBODY"
pickup_within_ms = 400
"#,
        )
        .unwrap();
        let report = run(&spec, false).unwrap();
        assert_eq!(report.failure, 4);
        assert_eq!(report.success, 0);
        assert!(report.oracle.passed(), "{}", report.oracle);
    }
}
