//! The load generator: one sender-application thread (the caller) and one
//! destination-application thread, nothing else. Everything between the
//! two is the program under test.
//!
//! The loop is closed: a logical sender re-sends only when its previous
//! outcome has been taken, so a slower system receives less load. The
//! sender keeps `outstanding` success-class messages in flight and waits
//! for them oldest-first, like a pipelined client awaiting replies in
//! order. Failure-class messages (which cannot decide before their 250 ms
//! deadline) ride outside that window so they do not stall it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use condmsg::{CondMessageId, Condition, ConditionalReceiver, MessageKind, MessageOutcome};
use mq::{MetricsSnapshot, Wait};
use simtime::Millis;

use crate::gen::{self, Rng, Stratified};
use crate::host;
use crate::span::JournalCounts;
use crate::spec::{Workload, FAILURE_WINDOW_MS, VERDICT_TIMEOUT_MS};
use crate::world::{World, FOREGROUND_LEAVES, Q_IN};
use crate::BenchResult;

/// Payload of every failure-class compensation (self-checking like the
/// originals; sequence number = the original's).
const COMPENSATION_BYTES: usize = 32;

/// Which outcome a conditional message is built to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every leaf is read in time.
    Success,
    /// `Q.HOLD` is never read in time.
    Failure,
}

/// One conditional message the sender application attempted.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Generator sequence number (also inside the payload).
    pub seq: u64,
    /// The id `send_message*` returned.
    pub id: CondMessageId,
    /// Intended outcome.
    pub class: Class,
    /// Application payload size, bytes.
    pub payload_bytes: usize,
    /// When the `send_message*` call started.
    pub send_start: Instant,
    /// How long the `send_message*` call blocked.
    pub send_ns: u64,
    /// When `take_outcome` returned the notification, and what it said.
    /// `None`: no verdict within the timeout (a failed operation).
    pub taken: Option<(Instant, MessageOutcome)>,
}

impl Attempt {
    /// Send-call start to `take_outcome` return, nanoseconds.
    pub fn verdict_ns(&self) -> Option<u64> {
        self.taken
            .map(|(at, _)| at.saturating_duration_since(self.send_start).as_nanos() as u64)
    }

    /// Whether the outcome obtained is the one the class was built for.
    pub fn outcome_matches(&self) -> bool {
        matches!(
            (self.class, self.taken),
            (Class::Success, Some((_, MessageOutcome::Success)))
                | (Class::Failure, Some((_, MessageOutcome::Failure)))
        )
    }
}

/// What the destination application saw for one delivered message.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Conditional message id on the delivered message.
    pub id: Option<CondMessageId>,
    /// Original, compensation, ...
    pub kind: MessageKind,
    /// When `read_message` returned it.
    pub at: Instant,
    /// How long that `read_message` call took.
    pub read_ns: u64,
    /// Sequence number recovered from a payload that verified.
    pub seq: Option<u64>,
}

/// Everything the destination application recorded.
#[derive(Debug, Default)]
pub struct TailLog {
    /// Every message delivered to the application, in order.
    pub deliveries: Vec<Delivery>,
    /// Time spent inside `read_message` calls that overlapped the window
    /// (blocking waits included), nanoseconds.
    pub in_call_window_ns: u64,
    /// `read_message` errors (each is an oracle violation).
    pub errors: Vec<String>,
}

/// Counter readings at one edge of the measured window.
#[derive(Debug, Clone)]
pub struct Edge {
    /// When the readings were taken.
    pub at: Instant,
    /// Process user+sys CPU so far, milliseconds.
    pub cpu_ms: f64,
    /// Per-manager registry snapshots, head first.
    pub metrics: Vec<MetricsSnapshot>,
    /// Per-manager journal wrapper counters, head first.
    pub journals: Vec<JournalCounts>,
    /// Per-manager cursor into the per-append duration samples.
    pub append_cursors: Vec<usize>,
}

impl Edge {
    fn read(world: &World) -> Edge {
        Edge {
            at: Instant::now(),
            cpu_ms: host::process_cpu_ms(),
            metrics: world
                .nodes
                .iter()
                .map(|n| n.qm.metrics_snapshot())
                .collect(),
            journals: world
                .nodes
                .iter()
                .map(|n| n.journal_stats.counts())
                .collect(),
            append_cursors: world
                .nodes
                .iter()
                .map(|n| n.journal_stats.append_cursor())
                .collect(),
        }
    }
}

/// Result of the loaded phase.
#[derive(Debug)]
pub struct LoadResult {
    /// Every conditional message attempted, warm-up and drain included.
    pub attempts: Vec<Attempt>,
    /// Readings at the start and end of the measured window.
    pub window: (Edge, Edge),
    /// Sender-thread time inside calls into the system during the window.
    pub sender_in_call_ns: u64,
    /// Time inside `send_message*` during the window.
    pub send_busy_ns: u64,
    /// Largest number of armed timers seen on the shared clock.
    pub timers_pending_max: usize,
    /// The destination application's record (chain workloads).
    pub tail: TailLog,
    /// `send_message*` errors (each is a failed operation).
    pub send_errors: Vec<String>,
}

impl LoadResult {
    /// Length of the measured window, seconds.
    pub fn window_s(&self) -> f64 {
        self.window
            .1
            .at
            .duration_since(self.window.0.at)
            .as_secs_f64()
    }

    /// Whether `at` falls inside the measured window.
    pub fn in_window(&self, at: Instant) -> bool {
        self.window.0.at <= at && at < self.window.1.at
    }
}

/// Handle on the running destination application.
pub struct TailApp {
    stop: Arc<AtomicBool>,
    /// Originals delivered so far.
    pub originals: Arc<AtomicU64>,
    /// Compensations delivered so far.
    pub compensations: Arc<AtomicU64>,
    handle: JoinHandle<(TailLog, ConditionalReceiver)>,
}

impl TailApp {
    /// Starts the destination application: it blocks on
    /// `read_message("Q.IN")` only, verifies each payload and records
    /// what it was handed. `window` bounds its busy-time accounting.
    pub fn spawn(
        mut receiver: ConditionalReceiver,
        window: (Instant, Instant),
    ) -> BenchResult<TailApp> {
        let stop = Arc::new(AtomicBool::new(false));
        let originals = Arc::new(AtomicU64::new(0));
        let compensations = Arc::new(AtomicU64::new(0));
        let (stop2, originals2, compensations2) =
            (stop.clone(), originals.clone(), compensations.clone());
        let handle = std::thread::Builder::new()
            .name("condbench-tail-app".into())
            .spawn(move || {
                let mut log = TailLog::default();
                while !stop2.load(Ordering::SeqCst) {
                    let start = Instant::now();
                    let read = receiver.read_message(Q_IN, Wait::Timeout(Millis(20)));
                    let end = Instant::now();
                    log.in_call_window_ns += overlap_ns((start, end), window);
                    match read {
                        Ok(Some(msg)) => {
                            let counter = match msg.kind() {
                                MessageKind::Original => Some(&originals2),
                                MessageKind::Compensation => Some(&compensations2),
                                _ => None,
                            };
                            log.deliveries.push(Delivery {
                                id: msg.cond_id(),
                                kind: msg.kind(),
                                at: end,
                                read_ns: end.duration_since(start).as_nanos() as u64,
                                seq: gen::verify(msg.payload()),
                            });
                            // SeqCst: the sender thread reads these to decide
                            // the application has caught up before stopping it.
                            if let Some(counter) = counter {
                                counter.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Ok(None) => {}
                        Err(e) => {
                            log.errors.push(e.to_string());
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                (log, receiver)
            })?;
        Ok(TailApp {
            stop,
            originals,
            compensations,
            handle,
        })
    }

    /// Stops the application thread and returns its record and receiver.
    pub fn stop(self) -> (TailLog, ConditionalReceiver) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("tail application panicked")
    }
}

/// Nanoseconds of `[span.0, span.1)` that fall inside `window`.
pub fn overlap_ns(span: (Instant, Instant), window: (Instant, Instant)) -> u64 {
    let start = span.0.max(window.0);
    let end = span.1.min(window.1);
    end.saturating_duration_since(start).as_nanos() as u64
}

/// Waits until `done()` holds, polling every millisecond; `false` on
/// timeout.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Sender<'w> {
    world: &'w World,
    rng: Rng,
    sizes: Stratified<usize>,
    success: Condition,
    failure: Condition,
    /// Reads the foreground leaves itself on a 1-manager world.
    local_receiver: Option<ConditionalReceiver>,
    window: (Instant, Instant),
    attempts: Vec<Attempt>,
    in_call_ns: u64,
    send_busy_ns: u64,
    send_errors: Vec<String>,
    next_seq: u64,
}

impl Sender<'_> {
    fn call<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Instant, Instant) {
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.in_call_ns += overlap_ns((start, end), self.window);
        (out, start, end)
    }

    /// Sends one conditional message of `class`; returns its index in
    /// `attempts`, or `None` when the send failed.
    fn send(&mut self, class: Class) -> Option<usize> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let size = self.sizes.draw();
        let payload = gen::payload(&mut self.rng, seq, size);
        let payload_bytes = payload.len();
        let compensation: Option<Bytes> =
            (class == Class::Failure).then(|| gen::payload(&mut self.rng, seq, COMPENSATION_BYTES));
        let (sent, start, end) = self.call(|s| match (class, compensation) {
            (Class::Failure, Some(comp)) => s
                .world
                .messenger
                .send_message_with_compensation(payload, comp, &s.failure),
            _ => s.world.messenger.send_message(payload, &s.success),
        });
        self.send_busy_ns += overlap_ns((start, end), self.window);
        match sent {
            Ok(id) => {
                self.attempts.push(Attempt {
                    seq,
                    id,
                    class,
                    payload_bytes,
                    send_start: start,
                    send_ns: end.duration_since(start).as_nanos() as u64,
                    taken: None,
                });
                self.read_local_leaves();
                Some(self.attempts.len() - 1)
            }
            Err(e) => {
                self.send_errors.push(format!("seq {seq}: {e}"));
                None
            }
        }
    }

    /// 1-manager world: the generator is also the destination application
    /// and picks the message up from every leaf right away.
    fn read_local_leaves(&mut self) {
        if self.local_receiver.is_none() {
            return;
        }
        for leaf in FOREGROUND_LEAVES {
            let (read, _, _) = self.call(|s| {
                s.local_receiver
                    .as_mut()
                    .expect("checked above")
                    .read_message(leaf, Wait::NoWait)
            });
            if !matches!(read, Ok(Some(_))) {
                self.send_errors
                    .push(format!("leaf {leaf} had no message to pick up: {read:?}"));
            }
        }
    }

    /// Takes the outcome of `attempts[idx]`, waiting per `wait`. Returns
    /// whether the attempt is finished (taken, or timed out under a
    /// blocking wait).
    fn take(&mut self, idx: usize, wait: Wait) -> bool {
        let id = self.attempts[idx].id;
        let (taken, _, end) = self.call(|s| s.world.messenger.take_outcome(id, wait));
        match taken {
            Ok(Some(notification)) => {
                self.attempts[idx].taken = Some((end, notification.outcome));
                true
            }
            Ok(None) => wait != Wait::NoWait,
            Err(e) => {
                self.send_errors
                    .push(format!("take_outcome {}: {e}", id.to_hex()));
                true
            }
        }
    }
}

/// Runs the loaded phase: `warmup` discarded, then a measured window of
/// `seconds`, then a drain of everything still outstanding. Returns with
/// the destination application still running (the caller decides when the
/// system has quiesced).
pub fn run(
    world: &World,
    workload: &Workload,
    seed: u64,
    warmup: Duration,
    seconds: Duration,
) -> BenchResult<(LoadResult, Option<TailApp>)> {
    let begin = Instant::now();
    let window = (begin + warmup, begin + warmup + seconds);
    let tail = if workload.managers > 1 {
        Some(TailApp::spawn(world.receiver()?, window)?)
    } else {
        None
    };
    let mut sender = Sender {
        world,
        rng: Rng::new(seed, workload.name),
        sizes: Stratified::new(Rng::new(seed, "sizes"), workload.sizes),
        success: if workload.tree {
            world.tree_condition(&FOREGROUND_LEAVES, crate::spec::SUCCESS_WINDOW_MS)
        } else {
            world.success_condition()
        },
        failure: world.failure_condition(),
        local_receiver: if workload.managers == 1 {
            Some(world.receiver()?)
        } else {
            None
        },
        window,
        attempts: Vec::new(),
        in_call_ns: 0,
        send_busy_ns: 0,
        send_errors: Vec::new(),
        next_seq: 0,
    };
    let verdict_wait = Wait::Timeout(Millis(VERDICT_TIMEOUT_MS));
    let failure_due = Duration::from_millis(FAILURE_WINDOW_MS);
    // One failure-class send per `failure_one_in` success-class sends, at
    // a seeded position in each block.
    let mut failure_next = (workload.failure_one_in > 0).then(|| {
        Stratified::new(
            Rng::new(seed, "failures"),
            &[(true, 1), (false, workload.failure_one_in - 1)],
        )
    });
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut failures: VecDeque<usize> = VecDeque::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut timers_pending_max = 0usize;

    loop {
        let now = Instant::now();
        if edges.is_empty() && now >= window.0 {
            edges.push(Edge::read(world));
        }
        if now >= window.1 {
            edges.push(Edge::read(world));
            break;
        }
        while outstanding.len() < workload.outstanding {
            let Some(idx) = sender.send(Class::Success) else {
                break;
            };
            outstanding.push_back(idx);
            if failure_next.as_mut().is_some_and(Stratified::draw) {
                if let Some(idx) = sender.send(Class::Failure) {
                    failures.push_back(idx);
                }
            }
        }
        // Oldest first, blocking; then whatever else is already decided.
        if let Some(idx) = outstanding.pop_front() {
            sender.take(idx, verdict_wait);
        }
        while let Some(&idx) = outstanding.front() {
            if !sender.take(idx, Wait::NoWait) {
                break;
            }
            outstanding.pop_front();
        }
        while let Some(&idx) = failures.front() {
            let due = sender.attempts[idx].send_start + failure_due;
            if Instant::now() < due || !sender.take(idx, Wait::NoWait) {
                break;
            }
            failures.pop_front();
        }
        if sender.attempts.len().is_multiple_of(256) {
            timers_pending_max = timers_pending_max.max(world.clock.pending_timers());
        }
        if !sender.send_errors.is_empty() && sender.send_errors.len() > 100 {
            // The system is refusing work; do not spin on it.
            break;
        }
    }
    while edges.len() < 2 {
        edges.push(Edge::read(world));
    }
    for idx in outstanding.drain(..).chain(failures.drain(..)) {
        sender.take(idx, verdict_wait);
    }
    timers_pending_max = timers_pending_max.max(world.clock.pending_timers());

    let end_edge = edges.pop().expect("two edges");
    let start_edge = edges.pop().expect("two edges");
    Ok((
        LoadResult {
            attempts: sender.attempts,
            window: (start_edge, end_edge),
            sender_in_call_ns: sender.in_call_ns,
            send_busy_ns: sender.send_busy_ns,
            timers_pending_max,
            tail: TailLog::default(),
            send_errors: sender.send_errors,
        },
        tail,
    ))
}

/// Joins the attempts with what the destination application saw and with
/// the system's own counters, and returns every violation of the
/// exactly-one-outcome contract as a printable line (cond-id included).
pub fn oracle(
    workload: &Workload,
    load: &LoadResult,
    world: &World,
    expect_failures: usize,
) -> Vec<String> {
    let mut violations: Vec<String> = Vec::new();
    violations.extend(load.send_errors.iter().map(|e| format!("send error: {e}")));
    violations.extend(load.tail.errors.iter().map(|e| format!("read error: {e}")));

    let mut annihilated_on_in = 0u64;
    let mut seen_ids: HashMap<CondMessageId, usize> = HashMap::new();
    for a in &load.attempts {
        *seen_ids.entry(a.id).or_default() += 1;
        match a.taken {
            None => violations.push(format!(
                "{}: no verdict within {VERDICT_TIMEOUT_MS} ms",
                a.id.to_hex()
            )),
            Some((_, outcome)) if !a.outcome_matches() => violations.push(format!(
                "{}: {:?}-class message decided {outcome:?}",
                a.id.to_hex(),
                a.class
            )),
            Some(_) => {}
        }
    }
    for (id, n) in seen_ids.iter().filter(|(_, n)| **n != 1) {
        violations.push(format!("{}: id returned by {n} sends", id.to_hex()));
    }

    if workload.managers > 1 {
        let by_id: HashMap<CondMessageId, &Attempt> =
            load.attempts.iter().map(|a| (a.id, a)).collect();
        let mut originals: HashMap<CondMessageId, usize> = HashMap::new();
        let mut compensations: HashMap<CondMessageId, usize> = HashMap::new();
        for d in &load.tail.deliveries {
            let Some(id) = d.id else {
                violations.push("tail application was handed a message without a cond-id".into());
                continue;
            };
            let Some(attempt) = by_id.get(&id) else {
                violations.push(format!("{}: delivered but never sent", id.to_hex()));
                continue;
            };
            if d.seq != Some(attempt.seq) {
                violations.push(format!(
                    "{}: {:?} payload did not verify (seq {:?}, sent {})",
                    id.to_hex(),
                    d.kind,
                    d.seq,
                    attempt.seq
                ));
            }
            match d.kind {
                MessageKind::Original => *originals.entry(id).or_default() += 1,
                MessageKind::Compensation => *compensations.entry(id).or_default() += 1,
                other => {
                    violations.push(format!("{}: unexpected {other:?} delivered", id.to_hex()))
                }
            }
        }
        for a in &load.attempts {
            let id = a.id.to_hex();
            let delivered = originals.get(&a.id).copied().unwrap_or(0);
            let comps = compensations.get(&a.id).copied().unwrap_or(0);
            match (a.class, delivered, comps) {
                (Class::Success, 1, 0) | (Class::Failure, 1, 1) => {}
                // The compensation overtook a tail application running more
                // than the failure window behind: original and compensation
                // met on Q.IN and cancelled each other out, as they do on
                // Q.HOLD (paper 2.6). One outcome, nothing delivered twice.
                (Class::Failure, 0, 0) => annihilated_on_in += 1,
                _ => violations.push(format!(
                    "{id}: {:?} class, original delivered {delivered} time(s) and compensation {comps} time(s) on {Q_IN}",
                    a.class
                )),
            }
        }
    }

    // The system's own counters must tell the same story.
    let head = world.head().metrics_snapshot();
    let tail = world.tail().metrics_snapshot();
    let expect = expect_failures as u64;
    for (what, got, want) in [
        (
            "cond.verdict.failure",
            head.counter("cond.verdict.failure"),
            expect,
        ),
        (
            "cond.comp.released",
            head.counter("cond.comp.released"),
            expect * 2,
        ),
        (
            "cond.recv.comp_delivered",
            tail.counter("cond.recv.comp_delivered"),
            expect - annihilated_on_in.min(expect),
        ),
        (
            "cond.recv.annihilated",
            tail.counter("cond.recv.annihilated"),
            expect + annihilated_on_in,
        ),
    ] {
        if got != want {
            violations.push(format!("{what} = {got}, expected {want}"));
        }
    }
    violations
}
