//! The traced run's two extra phases, both driven by the single generator
//! thread with the evaluation daemon *not* running:
//!
//! * **Stepped round trips** — one conditional message at a time, the
//!   benchmark walking it through `send → channel.forward →
//!   receiver.read → channel.ack_return → messenger.pump →
//!   messenger.take_outcome` itself and recording a span per step, so a
//!   round trip's wall time decomposes by layer.
//! * **Micro timings** — tight loops over single public calls of the
//!   evaluation, analysis, timer, queue and store layers, on the
//!   workload's own condition tree and resident depth.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use condmsg::{
    analyze::{analyze_with, AnalyzeContext},
    eval::IncrementalEval,
    AckState, CompiledCondition, CondMessageId, Condition, ConditionalReceiver, MessageOutcome,
};
use mq::{Message, Wait};
use simtime::{DeadlineScheduler, Millis, Time};

use crate::gen::{self, Rng, Stratified};
use crate::span::{self, Cycle, Recorder, Span};
use crate::spec::{Workload, SUCCESS_WINDOW_MS, VERDICT_TIMEOUT_MS};
use crate::stats;
use crate::world::{World, FOREGROUND_LEAVES, Q_IN, Q_SCRATCH};
use crate::BenchResult;

/// Span names of the stepped round trip, in order.
pub const CYCLE: &str = "cycle";
/// `send_message` call.
pub const SEND: &str = "messenger.send";
/// Send returned → original visible on the destination queue.
pub const FORWARD: &str = "channel.forward";
/// One `read_message` call that returns the original.
pub const READ: &str = "receiver.read";
/// Read returned → acknowledgment visible on the head's `DS.ACK.Q`.
pub const ACK_RETURN: &str = "channel.ack_return";
/// One `pump` call (ack drain + evaluation + outcome actions).
pub const PUMP: &str = "messenger.pump";
/// `take_outcome` call.
pub const TAKE: &str = "messenger.take_outcome";

/// Result of the stepped phase.
#[derive(Debug, Default)]
pub struct Stepped {
    /// All spans, journal children attributed.
    pub spans: Vec<Span>,
    /// Self time of each span, nanoseconds.
    pub self_ns: Vec<u64>,
    /// Round trips completed.
    pub cycles: usize,
    /// Conditional messages attempted (= cycles started).
    pub attempted: usize,
    /// Send returned → relay custody visible (3-manager chains), µs.
    pub relay_custody_us: Vec<f64>,
    /// Contract violations seen while stepping.
    pub violations: Vec<String>,
}

impl Stepped {
    /// Median duration of the spans named `name`, microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        let durations: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        span::p50_us(&self.spans, &durations, name)
    }

    /// Median self time of the spans named `name`, microseconds.
    pub fn self_p50_us(&self, name: &str) -> f64 {
        span::p50_us(&self.spans, &self.self_ns, name)
    }

    /// Median, over round trips, of the summed duration of every span of
    /// the trip named `name` (a tree trip has four reads), microseconds.
    pub fn per_cycle_p50_us(&self, name: &str) -> f64 {
        let mut per_cycle: std::collections::BTreeMap<usize, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(root) = s.parent {
                *per_cycle.entry(root).or_default() += s.duration_ns() as f64 / 1e3;
            }
        }
        stats::median(&per_cycle.into_values().collect::<Vec<_>>())
    }
}

struct Stepper<'w> {
    world: &'w World,
    recorder: Arc<Recorder>,
    thread: u64,
    receiver: ConditionalReceiver,
    condition: Condition,
    leaves: Vec<&'static str>,
}

impl Stepper<'_> {
    fn span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u128,
    ) -> usize {
        self.recorder
            .record(Span {
                name,
                start_ns: self.recorder.ns_of(start),
                end_ns: self.recorder.ns_of(end.max(start)),
                parent,
                cond_id: id,
                thread: self.thread,
                role: "",
            })
            .expect("recorder is switched on while stepping")
    }

    /// Walks one message through the round trip. `Err` carries a
    /// violation line; the spans recorded so far stay in the recorder.
    fn cycle(
        &mut self,
        payload: bytes::Bytes,
        out: &mut Stepped,
        cycles: &mut Vec<Cycle>,
    ) -> Result<(), String> {
        let timeout = Duration::from_millis(VERDICT_TIMEOUT_MS);
        let watchers = self.world.watchers.as_ref();
        let seen_forward = watchers.map_or(0, |w| w.forward.count());
        let seen_ack = watchers.map_or(0, |w| w.ack.count());
        let seen_relay = watchers
            .and_then(|w| w.relay.as_ref())
            .map_or(0, |r| r.count());

        let send_start = Instant::now();
        let id: CondMessageId = self
            .world
            .messenger
            .send_message(payload, &self.condition)
            .map_err(|e| format!("stepped send failed: {e}"))?;
        let send_end = Instant::now();
        let cond = id.as_u128();
        let hex = id.to_hex();
        // Opened empty, closed once the trip completes; children refer to
        // it by index.
        let root = self.span(CYCLE, send_start, send_start, None, cond);
        let mut cycle = Cycle {
            root,
            ..Cycle::default()
        };
        let send = self.span(SEND, send_start, send_end, Some(root), cond);
        cycle.calls.push(send);

        let arrived = match watchers {
            Some(w) => w
                .forward
                .wait_past(seen_forward, timeout)
                .ok_or_else(|| format!("{hex}: original never became visible on {Q_IN}"))?,
            None => send_end,
        };
        let forward = self.span(FORWARD, send_end, arrived, Some(root), cond);
        cycle.hops.push((send, forward));
        if let Some(relay) = watchers.and_then(|w| w.relay.as_ref()) {
            if let Some(custody) = relay.wait_past(seen_relay, Duration::ZERO) {
                out.relay_custody_us
                    .push(custody.saturating_duration_since(send_end).as_secs_f64() * 1e6);
            }
        }

        let mut first_read = None;
        let mut read_end = arrived.max(send_end);
        for leaf in self.leaves.clone() {
            let start = Instant::now();
            let got = self
                .receiver
                .read_message(leaf, Wait::Timeout(Millis(VERDICT_TIMEOUT_MS)))
                .map_err(|e| format!("{hex}: stepped read failed: {e}"))?;
            read_end = Instant::now();
            let msg = got.ok_or_else(|| format!("{hex}: nothing to read on {leaf}"))?;
            if msg.cond_id() != Some(id) || gen::verify(msg.payload()).is_none() {
                return Err(format!(
                    "{hex}: read handed back a different or damaged message"
                ));
            }
            let read = self.span(READ, start, read_end, Some(root), cond);
            first_read.get_or_insert(read);
            cycle.calls.push(read);
        }

        let acked = match watchers {
            Some(w) => w
                .ack
                .wait_past(seen_ack, timeout)
                .ok_or_else(|| format!("{hex}: acknowledgment never reached the head"))?,
            None => read_end,
        };
        let ack_return = self.span(ACK_RETURN, read_end, acked, Some(root), cond);
        cycle
            .hops
            .push((first_read.unwrap_or(ack_return), ack_return));

        // One pump decides a message whose acks are all on DS.ACK.Q; on a
        // tree the later leaves' acks may still be a put away, so allow a
        // few more before calling it a failure.
        let mut taken = None;
        for _ in 0..50 {
            let start = Instant::now();
            self.world
                .messenger
                .pump()
                .map_err(|e| format!("{hex}: pump failed: {e}"))?;
            let end = Instant::now();
            cycle
                .calls
                .push(self.span(PUMP, start, end, Some(root), cond));
            let got = self
                .world
                .messenger
                .take_outcome(id, Wait::NoWait)
                .map_err(|e| format!("{hex}: take_outcome failed: {e}"))?;
            let take_end = Instant::now();
            cycle
                .calls
                .push(self.span(TAKE, end, take_end, Some(root), cond));
            if got.is_some() {
                taken = got.map(|n| (n, take_end));
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (notification, done) =
            taken.ok_or_else(|| format!("{hex}: stepped trip never decided"))?;
        if notification.outcome != MessageOutcome::Success {
            return Err(format!(
                "{hex}: stepped trip decided {:?}",
                notification.outcome
            ));
        }
        self.recorder.close(root, done);
        out.cycles += 1;
        cycles.push(cycle);
        Ok(())
    }
}

/// Runs up to `max_cycles` stepped round trips or until `budget` elapses.
/// The daemon must be stopped and the system quiesced.
pub fn stepped(
    world: &World,
    workload: &Workload,
    seed: u64,
    max_cycles: usize,
    budget: Duration,
) -> BenchResult<Stepped> {
    let recorder = world.recorder.clone();
    let (condition, leaves) = if workload.tree {
        (
            world.tree_condition(&FOREGROUND_LEAVES, SUCCESS_WINDOW_MS),
            FOREGROUND_LEAVES.to_vec(),
        )
    } else {
        (world.success_condition(), vec![Q_IN])
    };
    let mut stepper = Stepper {
        world,
        recorder: recorder.clone(),
        thread: span::thread_number(),
        receiver: world.receiver()?,
        condition,
        leaves,
    };
    let mut rng = Rng::new(seed, "stepped");
    let mut sizes = Stratified::new(Rng::new(seed, "stepped sizes"), workload.sizes);
    let mut out = Stepped::default();
    let mut cycles = Vec::new();
    recorder.take();
    recorder.set_recording(true);
    let deadline = Instant::now() + budget;
    for seq in 0..max_cycles as u64 {
        if Instant::now() >= deadline || out.violations.len() >= 10 {
            break;
        }
        let payload = gen::payload(&mut rng, seq, sizes.draw());
        out.attempted += 1;
        if let Err(violation) = stepper.cycle(payload, &mut out, &mut cycles) {
            out.violations.push(violation);
        }
    }
    recorder.set_recording(false);

    let mut spans = recorder.take();
    span::attribute_journal_spans(&mut spans, &cycles, stepper.thread);
    out.self_ns = span::self_times_ns(&spans);
    out.spans = spans;
    Ok(out)
}

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Tight-loop timings of single public calls, as `(metric, value)`.
pub fn micro(
    world: &World,
    workload: &Workload,
    calls: usize,
    timers_resident: usize,
    resident: usize,
) -> BenchResult<Vec<(&'static str, f64)>> {
    let condition = if workload.tree {
        world.tree_condition(&FOREGROUND_LEAVES, SUCCESS_WINDOW_MS)
    } else {
        world.success_condition()
    };
    let compiled = CompiledCondition::compile(&condition)?;
    let leaves = compiled.leaves().len() as u32;
    let sent = Time(1_000);
    let mut out = Vec::new();

    out.push((
        "eval.compile_ns",
        ns_per_call(calls, |_| {
            black_box(CompiledCondition::compile(black_box(&condition)).is_ok());
        }),
    ));

    // One ack per leaf, all in time; a fresh incremental state per round
    // of `leaves` calls so every call does real work.
    let mut acks = AckState::new(leaves as usize);
    for leaf in 0..leaves {
        acks.record_read(leaf, Time(1_500), None);
    }
    let fresh = IncrementalEval::new(&compiled, sent, Millis::ZERO);
    let mut inc = fresh.clone();
    out.push((
        "eval.apply_ack_ns",
        ns_per_call(calls, |i| {
            let leaf = i as u32 % leaves;
            if leaf == 0 {
                inc = fresh.clone();
            }
            black_box(inc.apply_ack(leaf, black_box(&acks)));
        }),
    ));
    out.push((
        "eval.evaluate_ns",
        ns_per_call(calls, |_| {
            black_box(compiled.evaluate(black_box(&acks), sent, Time(2_000)));
        }),
    ));
    let ctx = AnalyzeContext {
        has_compensation: Some(workload.tree),
        ..AnalyzeContext::default()
    };
    out.push((
        "analyze.send_ns",
        ns_per_call(calls, |_| {
            black_box(analyze_with(black_box(&condition), &ctx).has_errors());
        }),
    ));

    // `DeadlineScheduler::cancel` scans the heap, so this loop is run far
    // fewer times than the others; the per-call number is what matters.
    let scheduler = DeadlineScheduler::new();
    for i in 0..timers_resident as u64 {
        scheduler.schedule(Time(10_000_000 + i), Box::new(|| {}));
    }
    out.push((
        "simtime.schedule_cancel_ns",
        ns_per_call((calls / 50).max(100), |i| {
            let id = scheduler.schedule(Time(20_000_000 + i as u64), Box::new(|| {}));
            black_box(scheduler.cancel(id));
        }),
    ));

    // Queue and store on a scratch queue of the head manager. Persistent
    // put/get pay the journal like the real paths; the correlation lookup
    // is timed alone, non-persistent, at the workload's resident depth.
    let head = world.head();
    let scratch = head.ensure_queue(Q_SCRATCH)?;
    let rounds = (calls / 50).clamp(100, 2_000);
    let body = vec![0x42u8; 256];
    let (mut puts, mut gets) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for _ in 0..rounds {
        let msg = Message::builder(body.clone()).persistent(true).build();
        let start = Instant::now();
        head.put(Q_SCRATCH, msg)?;
        let mid = Instant::now();
        let got = head.get(Q_SCRATCH, Wait::NoWait)?;
        let end = Instant::now();
        black_box(got);
        puts.push(mid.duration_since(start).as_secs_f64() * 1e6);
        gets.push(end.duration_since(mid).as_secs_f64() * 1e6);
    }
    out.push(("queue.put_us_p50", stats::median(&puts)));
    out.push(("queue.get_us_p50", stats::median(&gets)));

    for i in 0..resident {
        head.put(
            Q_SCRATCH,
            Message::builder(body.clone())
                .correlation_id(format!("resident-{i}"))
                .build(),
        )?;
    }
    let mut lookups = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let key = format!("probe-{i}");
        head.put(
            Q_SCRATCH,
            Message::builder(body.clone())
                .correlation_id(key.clone())
                .build(),
        )?;
        let start = Instant::now();
        let got = head.get_by_correlation(Q_SCRATCH, &key, Wait::NoWait)?;
        lookups.push(start.elapsed().as_secs_f64() * 1e6);
        if got.is_none() {
            return Err("correlation lookup lost its probe message".into());
        }
    }
    out.push(("store.correlation_get_us_p50", stats::median(&lookups)));
    scratch.purge()?;
    Ok(out)
}
