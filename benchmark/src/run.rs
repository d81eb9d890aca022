//! One run of one workload in this process: set-up (repeated, median
//! reported), the loaded phase, the drain and the correctness oracle, the
//! traced run's extra phases, `deep_pending`'s restart loop, and the
//! report with every metric by name.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use condmsg::MessageOutcome;
use mq::{HistogramSnapshot, MetricsSnapshot, Wait, DEAD_LETTER_QUEUE};
use simtime::Millis;

use crate::host;
use crate::json::Value;
use crate::load::{self, Class, LoadResult};
use crate::span::{self, JournalCounts};
use crate::spec::{self, Workload, RESTARTS, VERDICT_TIMEOUT_MS};
use crate::stats;
use crate::traced::{self, Stepped};
use crate::world::{World, BACKGROUND_LEAVES, Q_HOLD};
use crate::BenchResult;

/// How big the non-duration parts of a run are.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Background pending messages for workloads that declare any.
    pub background: usize,
    /// Cap on stepped round trips in a traced run.
    pub stepped_cycles: usize,
    /// Calls per micro timing loop.
    pub micro_calls: usize,
    /// Timers resident in the scheduler micro timing.
    pub timers_resident: usize,
    /// Rounds of the fsync probe.
    pub fsync_rounds: usize,
}

impl Scale {
    /// The sizes the issue fixes.
    pub fn full(workload: &Workload) -> Scale {
        Scale {
            background: workload.background,
            stepped_cycles: 2_000,
            micro_calls: 100_000,
            timers_resident: 20_000,
            fsync_rounds: 200,
        }
    }

    /// `--smoke`: all four workloads in well under ten seconds.
    pub fn smoke(workload: &Workload) -> Scale {
        Scale {
            background: workload.background.min(500),
            stepped_cycles: 40,
            micro_calls: 5_000,
            timers_resident: 500,
            fsync_rounds: 20,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics with tracing off. `true`: the traced
    /// run (journal wrappers, put watchers, stepped trips, micro timings).
    pub traced: bool,
    /// Sizes.
    pub scale: Scale,
    /// Directory for journals, traces and result files.
    pub out_dir: PathBuf,
    /// When the process started (set-up is timed from here).
    pub started: Instant,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`spec`].
    pub name: &'static str,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit from [`spec`].
    pub unit: &'static str,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
    /// Free-form qualifier (e.g. which percentile a `_p99` really is).
    pub note: Option<String>,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Report {
    /// What was run.
    pub spec: RunSpec,
    /// Measured window actually observed, seconds.
    pub window_s: f64,
    /// Conditional messages attempted (background, warm-up, window,
    /// drain and stepped trips).
    pub attempted: usize,
    /// Attempts that failed or violated the contract.
    pub failed: usize,
    /// Violation lines (capped).
    pub violations: Vec<String>,
    /// End-to-end metrics (every run) then per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host and configuration metadata.
    pub meta: Value,
}

impl Report {
    /// Whether the exactly-one-outcome oracle stayed green.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The driver's result line: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn driver_line(&self) -> Value {
        let wanted: Vec<(String, &str)> = if self.spec.traced {
            spec::driver_per_layer()
                .into_iter()
                .map(|(listed, measured, ..)| (listed, measured))
                .collect()
        } else {
            spec::driver_end_to_end()
                .map(|m| (m.name.to_owned(), m.name))
                .collect()
        };
        let mut metrics = Value::obj();
        for (listed, measured) in wanted {
            if let Some(m) = self.metric(measured) {
                metrics.set(
                    &listed,
                    Value::obj().with("value", m.value).with("unit", m.unit),
                );
            }
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The full record for `result.json`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            let mut entry = Value::obj().with("value", m.value).with("unit", m.unit);
            if let Some(samples) = m.samples {
                entry.set("samples", samples);
            }
            if let Some(note) = &m.note {
                entry.set("note", note.as_str());
            }
            metrics.set(m.name, entry);
        }
        Value::obj()
            .with("workload", self.spec.workload.name)
            .with("traced", self.spec.traced)
            .with("seed", self.spec.seed)
            .with("window_s", self.window_s)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "violations",
                self.violations
                    .iter()
                    .map(|v| Value::from(v.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("meta", self.meta.clone())
            .with("metrics", metrics)
    }

    /// `workload metric value unit` lines, one per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{} {} {} {}",
                self.spec.workload.name, m.name, m.value, m.unit
            ));
            if let Some(samples) = m.samples {
                out.push_str(&format!(" n={samples}"));
            }
            if let Some(note) = &m.note {
                out.push_str(&format!(" ({note})"));
            }
            out.push('\n');
        }
        out
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.put_full(name, value, None, None);
    }

    fn put_full(
        &mut self,
        name: &'static str,
        value: f64,
        samples: Option<usize>,
        note: Option<String>,
    ) {
        debug_assert!(
            !unit_of(name).is_empty(),
            "{name} is not in the spec tables"
        );
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit_of(name),
            samples,
            note,
        });
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Sum over managers of a counter's growth across the window.
fn counter_delta(load: &LoadResult, name: &str) -> f64 {
    let (start, end) = &load.window;
    end.metrics
        .iter()
        .zip(&start.metrics)
        .map(|(e, s)| e.counter(name).saturating_sub(s.counter(name)) as f64)
        .sum()
}

/// A histogram's growth across the window, merged over managers.
fn histogram_delta(load: &LoadResult, name: &str) -> Option<HistogramSnapshot> {
    let (start, end) = &load.window;
    let mut merged: Option<HistogramSnapshot> = None;
    for (e, s) in end.metrics.iter().zip(&start.metrics) {
        let Some(after) = e.histograms.get(name) else {
            continue;
        };
        let mut delta = after.clone();
        if let Some(before) = s.histograms.get(name) {
            for (d, b) in delta.buckets.iter_mut().zip(&before.buckets) {
                *d = d.saturating_sub(*b);
            }
            delta.count = delta.count.saturating_sub(before.count);
            delta.sum = delta.sum.saturating_sub(before.sum);
        }
        match &mut merged {
            None => merged = Some(delta),
            Some(m) => {
                for (a, b) in m.buckets.iter_mut().zip(&delta.buckets) {
                    *a += b;
                }
                m.count += delta.count;
                m.sum += delta.sum;
                m.max = m.max.max(delta.max);
            }
        }
    }
    merged
}

/// Bucket-upper-bound quantile of a histogram snapshot (0 when empty).
fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = h.buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, count) in h.buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return h.bounds.get(i).copied().unwrap_or(h.max) as f64;
        }
    }
    h.max as f64
}

/// Builds the topology in a fresh journal root; returns it with the
/// root and how long the build (background load included) took.
fn set_up(run: &RunSpec) -> BenchResult<(World, PathBuf, f64)> {
    let root =
        run.out_dir
            .join("journals")
            .join(format!("{}-{}", run.workload.name, std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root)?;
    let start = Instant::now();
    let world = World::build(run.workload, &root, run.traced, run.scale.background)?;
    Ok((world, root, start.elapsed().as_secs_f64()))
}

fn tear_down(world: World, root: &Path) {
    world.shutdown();
    std::fs::remove_dir_all(root).ok();
}

struct Recovery {
    total_s: Vec<f64>,
    manager_ms: Vec<f64>,
    messenger_ms: Vec<f64>,
    replay_ms: Vec<f64>,
}

/// `deep_pending` after the window: crash → reopen the same journal root
/// → rebuild manager and messenger, [`RESTARTS`] times, every background
/// message still pending each time.
fn restart_loop(world: &mut World, violations: &mut Vec<String>) -> BenchResult<Recovery> {
    let mut recovery = Recovery {
        total_s: Vec::new(),
        manager_ms: Vec::new(),
        messenger_ms: Vec::new(),
        replay_ms: Vec::new(),
    };
    let expected = world.background.len();
    for restart in 0..RESTARTS {
        let replay_before = world.nodes[0].journal_stats.counts().replay_ns;
        let start = Instant::now();
        let (manager, messenger) = world.crash_and_recover()?;
        recovery.total_s.push(start.elapsed().as_secs_f64());
        recovery.manager_ms.push(manager.as_secs_f64() * 1e3);
        recovery.messenger_ms.push(messenger.as_secs_f64() * 1e3);
        recovery
            .replay_ms
            .push((world.nodes[0].journal_stats.counts().replay_ns - replay_before) as f64 / 1e6);
        let pending = world.messenger.pending_count();
        if pending != expected {
            violations.push(format!(
                "restart {restart}: {pending} pending after recovery, expected {expected}"
            ));
        }
    }
    Ok(recovery)
}

/// Picks every background message up from its leaves and requires exactly
/// one further `Success` per message. Returns how many failed.
fn complete_background(world: &mut World, violations: &mut Vec<String>) -> BenchResult<usize> {
    world.start_daemon()?;
    let mut receiver = world.receiver()?;
    for leaf in BACKGROUND_LEAVES {
        for _ in 0..world.background.len() {
            if receiver.read_message(leaf, Wait::NoWait)?.is_none() {
                violations.push(format!("background leaf {leaf} ran dry early"));
                break;
            }
        }
    }
    let mut failed = 0;
    for id in &world.background {
        match world
            .messenger
            .take_outcome(*id, Wait::Timeout(Millis(VERDICT_TIMEOUT_MS)))?
        {
            Some(n) if n.outcome == MessageOutcome::Success => {}
            other => {
                failed += 1;
                violations.push(format!(
                    "{}: background message ended {:?}",
                    id.to_hex(),
                    other.map(|n| n.outcome)
                ));
            }
        }
    }
    Ok(failed)
}

/// Sweeps `Q.HOLD` once every failure-class original and compensation has
/// landed on it: each pair must annihilate, nothing may be delivered.
fn sweep_hold(world: &World, failures: usize, violations: &mut Vec<String>) -> BenchResult<()> {
    let hold = world.tail().queue(Q_HOLD)?;
    if !load::wait_until(Duration::from_secs(30), || hold.depth() >= failures * 2) {
        violations.push(format!(
            "{Q_HOLD} holds {} messages, expected {} (original + compensation per failure)",
            hold.depth(),
            failures * 2
        ));
    }
    let mut receiver = world.receiver()?;
    while let Some(msg) = receiver.read_message(Q_HOLD, Wait::NoWait)? {
        violations.push(format!(
            "{}: {:?} delivered from {Q_HOLD} instead of annihilating",
            msg.cond_id().map_or_else(|| "?".into(), |id| id.to_hex()),
            msg.kind()
        ));
    }
    Ok(())
}

/// End-of-run checks on the system's own state.
fn final_state_violations(world: &World) -> Vec<String> {
    let mut violations = Vec::new();
    // Late acknowledgments and the last outcome actions are still being
    // consumed; give the system a moment to go quiet before judging.
    load::wait_until(Duration::from_secs(10), || {
        world.undrained_queues().is_empty()
    });
    for (manager, queue, depth) in world.undrained_queues() {
        let what = if queue == DEAD_LETTER_QUEUE {
            "dead-lettered"
        } else {
            "left undrained"
        };
        violations.push(format!("{manager}/{queue}: {depth} message(s) {what}"));
    }
    for node in &world.nodes {
        let snap = node.qm.metrics_snapshot();
        for counter in ["mq.transport.reconnects", "mq.relay.dead_lettered"] {
            if snap.counter(counter) != 0 {
                violations.push(format!(
                    "{}: {counter} = {}",
                    node.qm.name(),
                    snap.counter(counter)
                ));
            }
        }
    }
    violations
}

/// Runs `run` to completion in this process.
pub fn execute(run: &RunSpec) -> BenchResult<Report> {
    let workload = run.workload;
    let seconds = Duration::from_secs_f64(run.seconds.max(0.05));
    let warmup = Duration::from_secs_f64((run.seconds * 0.3).clamp(0.05, 3.0));
    let (mut world, root, build_s) = set_up(run)?;
    let mut violations: Vec<String> = Vec::new();
    let mut failed = 0usize;

    // A traced run splits its time: half under load with the wrappers
    // counting, the rest stepping single trips and running micro loops.
    let loaded_for = if run.traced { seconds / 2 } else { seconds };
    let (mut loaded, tail_app) = load::run(&world, workload, run.seed, warmup, loaded_for)?;
    let failure_sends = loaded
        .attempts
        .iter()
        .filter(|a| a.class == Class::Failure)
        .count();
    if let Some(app) = tail_app {
        // Every original and every failure's Q.IN compensation ends either
        // in the application's hands or annihilated on Q.IN (nothing reads
        // Q.HOLD yet, so every annihilation so far happened on Q.IN).
        let sent = loaded.attempts.len() as u64;
        let annihilations = world
            .tail()
            .obs()
            .metrics()
            .counter("cond.recv.annihilated");
        let caught_up = load::wait_until(Duration::from_secs(30), || {
            let annihilated = annihilations.get();
            app.originals.load(std::sync::atomic::Ordering::SeqCst) + annihilated >= sent
                && app.compensations.load(std::sync::atomic::Ordering::SeqCst) + annihilated
                    >= failure_sends as u64
        });
        if !caught_up {
            violations.push("destination application never caught up with the sender".into());
        }
        let (log, _receiver) = app.stop();
        loaded.tail = log;
        sweep_hold(&world, failure_sends, &mut violations)?;
    }
    let head_after_load = world.head().metrics_snapshot();
    let tail_after_load = world.tail().metrics_snapshot();

    let mut stepped = Stepped::default();
    let mut micro = Vec::new();
    if run.traced {
        load::wait_until(Duration::from_secs(10), || {
            world
                .head()
                .queue(&world.messenger.config().ack_queue)
                .map_or(true, |q| q.is_empty())
        });
        world.stop_daemon();
        stepped = traced::stepped(
            &world,
            workload,
            run.seed,
            run.scale.stepped_cycles,
            seconds.mul_f64(0.3),
        )?;
        // The correlation lookup is timed at the depth the workload keeps
        // resident on DS.COMP.Q: one parked compensation per pending leaf.
        let resident = (run.scale.background * 4).max(64);
        micro = traced::micro(
            &world,
            workload,
            run.scale.micro_calls,
            run.scale.timers_resident,
            resident,
        )?;
        world.start_daemon()?;
    }

    violations.extend(load::oracle(workload, &loaded, &world, failure_sends));
    let mut recovery = None;
    if !world.background.is_empty() {
        recovery = Some(restart_loop(&mut world, &mut violations)?);
        failed += complete_background(&mut world, &mut violations)?;
    }
    violations.extend(stepped.violations.iter().cloned());
    violations.extend(final_state_violations(&world));

    let attempted = world.background.len() + loaded.attempts.len() + stepped.attempted;
    failed += loaded.send_errors.len()
        + loaded
            .attempts
            .iter()
            .filter(|a| !a.outcome_matches())
            .count()
        + (stepped.attempted - stepped.cycles);
    // A contract violation that is not already a failed operation still
    // fails at least one.
    if failed == 0 && !violations.is_empty() {
        failed = 1;
    }

    let fsync_us = host::fsync_probe_us(&root, run.scale.fsync_rounds);
    let mut metrics = Metrics(Vec::new());
    let setup_s = loaded
        .window
        .0
        .at
        .saturating_duration_since(run.started)
        .as_secs_f64();
    end_to_end(
        &mut metrics,
        &loaded,
        setup_s,
        recovery.as_ref(),
        attempted,
        failed,
    );
    if run.traced {
        per_layer(
            &mut metrics,
            run,
            &world,
            &loaded,
            &stepped,
            recovery.as_ref(),
            (&head_after_load, &tail_after_load),
        );
        for (name, value) in micro {
            metrics.put(name, value);
        }
        metrics.put("setup.build_s", build_s);
        metrics.put("host.fsync_us_p50", fsync_us);
        write_trace(run, &stepped)?;
    }
    // A metric scoped to another workload reads 0 here.
    for m in spec::END_TO_END
        .iter()
        .filter(|m| !m.scope.covers(workload.name))
    {
        metrics.put(m.name, 0.0);
    }

    let mut meta = meta(run, &world, &root);
    meta.set("fsync_us_p50", fsync_us);
    tear_down(world, &root);
    std::fs::remove_dir(run.out_dir.join("journals")).ok();
    violations.truncate(50);
    Ok(Report {
        spec: run.clone(),
        window_s: loaded.window_s(),
        attempted,
        failed,
        violations,
        metrics: metrics.0,
        meta,
    })
}

fn end_to_end(
    metrics: &mut Metrics,
    loaded: &LoadResult,
    setup_s: f64,
    recovery: Option<&Recovery>,
    attempted: usize,
    failed: usize,
) {
    let window_s = loaded.window_s();
    let in_window: Vec<&load::Attempt> = loaded
        .attempts
        .iter()
        .filter(|a| a.taken.is_some_and(|(at, _)| loaded.in_window(at)))
        .collect();
    let verdicts = in_window.len() as f64;
    let success: Vec<&load::Attempt> = in_window
        .iter()
        .copied()
        .filter(|a| a.class == Class::Success && a.outcome_matches())
        .collect();
    let verdict_ms = stats::sorted(
        success
            .iter()
            .filter_map(|a| a.verdict_ns())
            .map(|ns| ns as f64 / 1e6)
            .collect(),
    );
    let send_us = stats::sorted(success.iter().map(|a| a.send_ns as f64 / 1e3).collect());
    let tail = stats::tail(&verdict_ms);

    metrics.put_full(
        "setup_s",
        setup_s,
        None,
        Some(
            "process start to the measured window: topology build, background load, warm-up".into(),
        ),
    );
    // What a verdict costs the journals of every manager on its path: the
    // appends (= fsyncs under sync_every_append) and the bytes written per
    // byte of application payload. Counts, so they repeat where times on
    // a shared disk do not.
    let journals = loaded
        .window
        .1
        .journals
        .iter()
        .zip(&loaded.window.0.journals)
        .fold(JournalCounts::default(), |sum, (end, start)| {
            sum.plus(&end.since(start))
        });
    let payload_bytes: usize = in_window.iter().map(|a| a.payload_bytes).sum();
    metrics.put(
        "journal_appends_per_verdict",
        ratio(journals.appends as f64, verdicts),
    );
    metrics.put(
        "journal_bytes_per_payload_byte",
        ratio(journals.grown_bytes as f64, payload_bytes as f64),
    );
    metrics.put_full(
        "verdict_per_s",
        ratio(verdicts, window_s),
        Some(in_window.len()),
        None,
    );
    metrics.put_full(
        "verdict_ms_p50",
        stats::percentile(&verdict_ms, 0.5),
        Some(verdict_ms.len()),
        None,
    );
    metrics.put_full(
        "verdict_ms_p99",
        tail.value,
        Some(tail.samples),
        (tail.percentile != 99)
            .then(|| format!("p{} reported: too few samples for p99", tail.percentile)),
    );
    metrics.put_full(
        "send_us_p50",
        stats::percentile(&send_us, 0.5),
        Some(send_us.len()),
        None,
    );
    let cpu_ms = loaded.window.1.cpu_ms - loaded.window.0.cpu_ms;
    metrics.put("cpu_ms_per_verdict", ratio(cpu_ms, verdicts));
    metrics.put("rss_mb_peak", host::rss_peak_mib());

    // Failure class: deadline → the compensation handed to the tail app.
    let deadline = Duration::from_millis(spec::FAILURE_WINDOW_MS);
    let sent_at: std::collections::HashMap<_, _> = loaded
        .attempts
        .iter()
        .filter(|a| a.class == Class::Failure)
        .map(|a| (a.id, a.send_start))
        .collect();
    let comp_ms: Vec<f64> = loaded
        .tail
        .deliveries
        .iter()
        .filter(|d| d.kind == condmsg::MessageKind::Compensation && loaded.in_window(d.at))
        .filter_map(|d| {
            let sent = sent_at.get(&d.id?)?;
            Some(
                d.at.saturating_duration_since(*sent + deadline)
                    .as_secs_f64()
                    * 1e3,
            )
        })
        .collect();
    if !comp_ms.is_empty() {
        metrics.put_full(
            "comp_ms_p50",
            stats::median(&comp_ms),
            Some(comp_ms.len()),
            None,
        );
    }
    if let Some(recovery) = recovery {
        metrics.put_full(
            "recover_s",
            stats::median(&recovery.total_s),
            Some(recovery.total_s.len()),
            None,
        );
    }
    metrics.put("failed_share", ratio(failed as f64, attempted as f64));
}

fn per_layer(
    metrics: &mut Metrics,
    run: &RunSpec,
    world: &World,
    loaded: &LoadResult,
    stepped: &Stepped,
    recovery: Option<&Recovery>,
    (head, tail): (&MetricsSnapshot, &MetricsSnapshot),
) {
    let window_s = loaded.window_s();
    let window_ns = window_s * 1e9;
    let verdicts = loaded
        .attempts
        .iter()
        .filter(|a| a.taken.is_some_and(|(at, _)| loaded.in_window(at)))
        .count() as f64;
    let per_verdict = |total: f64| ratio(total, verdicts);

    // condmsg::messenger
    metrics.put(
        "messenger.send_self_us_p50",
        stepped.self_p50_us(traced::SEND),
    );
    metrics.put(
        "messenger.send_busy_share",
        ratio(loaded.send_busy_ns as f64, window_ns),
    );
    metrics.put("messenger.pump_us_p50", stepped.p50_us(traced::PUMP));
    metrics.put(
        "messenger.pump_self_us_p50",
        stepped.self_p50_us(traced::PUMP),
    );
    metrics.put(
        "messenger.take_outcome_us_p50",
        stepped.p50_us(traced::TAKE),
    );
    metrics.put(
        "messenger.pump_iterations_per_verdict",
        per_verdict(counter_delta(loaded, "cond.pump.iterations")),
    );
    let ack_batch = histogram_delta(loaded, "cond.ack.batch_size");
    metrics.put(
        "messenger.ack_batch_mean",
        ack_batch.as_ref().map_or(0.0, HistogramSnapshot::mean),
    );
    metrics.put(
        "messenger.ack_lag_ms_p50",
        histogram_delta(loaded, "cond.ack.lag_ms").map_or(0.0, |h| histogram_quantile(&h, 0.5)),
    );
    metrics.put(
        "messenger.pending_depth_max",
        head.gauges
            .get("cond.pending.depth")
            .map_or(0.0, |g| g.high_water as f64),
    );
    metrics.put(
        "messenger.recover_ms",
        recovery.map_or(0.0, |r| stats::median(&r.messenger_ms)),
    );

    // condmsg::eval / simtime (the micro loops' numbers are put by the caller)
    metrics.put(
        "eval.incremental_updates_per_verdict",
        per_verdict(counter_delta(loaded, "cond.eval.incremental_updates")),
    );
    metrics.put(
        "eval.timer_fires_per_verdict",
        per_verdict(counter_delta(loaded, "cond.eval.timer_fires")),
    );
    metrics.put(
        "simtime.timers_pending_max",
        loaded.timers_pending_max as f64,
    );

    // condmsg::receiver
    metrics.put("receiver.read_us_p50", stepped.p50_us(traced::READ));
    metrics.put(
        "receiver.read_self_us_p50",
        stepped.self_p50_us(traced::READ),
    );
    let read_busy_ns: u64 = loaded
        .tail
        .deliveries
        .iter()
        .filter(|d| loaded.in_window(d.at))
        .map(|d| d.read_ns)
        .sum();
    metrics.put(
        "receiver.read_busy_share",
        ratio(read_busy_ns as f64, window_ns),
    );
    metrics.put(
        "receiver.comp_delivered",
        tail.counter("cond.recv.comp_delivered") as f64,
    );
    metrics.put(
        "receiver.annihilated",
        tail.counter("cond.recv.annihilated") as f64,
    );

    // mq::journal
    let (start, end) = &loaded.window;
    let mut all = JournalCounts::default();
    let mut append_us: Vec<f64> = Vec::new();
    for (i, node) in world.nodes.iter().enumerate() {
        let (Some(after), Some(before)) = (end.journals.get(i), start.journals.get(i)) else {
            continue;
        };
        let delta = after.since(before);
        all = all.plus(&delta);
        let name = match node.role {
            "head" => "journal.head.appends_per_verdict",
            "relay" => "journal.relay.appends_per_verdict",
            _ => "journal.tail.appends_per_verdict",
        };
        metrics.put(name, per_verdict(delta.appends as f64));
        if let Some(cursor) = start.append_cursors.get(i) {
            let until = end.append_cursors.get(i).copied().unwrap_or(usize::MAX);
            append_us.extend(
                node.journal_stats
                    .append_ns_since(*cursor)
                    .into_iter()
                    .take(until.saturating_sub(*cursor))
                    .map(|ns| ns / 1e3),
            );
        }
    }
    for absent in [
        "journal.head.appends_per_verdict",
        "journal.relay.appends_per_verdict",
        "journal.tail.appends_per_verdict",
    ] {
        if metrics.0.iter().all(|m| m.name != absent) {
            metrics.put(absent, 0.0);
        }
    }
    let append_us = stats::sorted(append_us);
    let append_tail = stats::tail(&append_us);
    metrics.put(
        "journal.appends_per_verdict",
        per_verdict(all.appends as f64),
    );
    metrics.put_full(
        "journal.append_us_p50",
        stats::percentile(&append_us, 0.5),
        Some(append_us.len()),
        None,
    );
    metrics.put_full(
        "journal.append_us_p99",
        append_tail.value,
        Some(append_tail.samples),
        (append_tail.percentile != 99).then(|| format!("p{} reported", append_tail.percentile)),
    );
    metrics.put("journal.busy_share", ratio(all.busy_ns as f64, window_ns));
    metrics.put(
        "journal.inflight_mean",
        ratio(all.inflight_sum as f64, all.appends as f64),
    );
    metrics.put(
        "journal.bytes_per_verdict",
        per_verdict(all.grown_bytes as f64),
    );
    metrics.put("journal.checkpoints", all.checkpoints as f64);
    metrics.put(
        "journal.checkpoint_ms_total",
        all.checkpoint_ns as f64 / 1e6,
    );
    metrics.put(
        "journal.replay_ms",
        recovery.map_or(0.0, |r| stats::median(&r.replay_ms)),
    );

    // mq::session
    metrics.put(
        "session.tx_per_verdict",
        per_verdict(counter_delta(loaded, "mq.tx.committed")),
    );
    metrics.put(
        "session.rollbacks",
        counter_delta(loaded, "mq.tx.rolled_back"),
    );

    // mq::channel + transport + codec
    let forward = stepped.p50_us(traced::FORWARD);
    metrics.put("channel.forward_us_p50", forward);
    metrics.put(
        "channel.forward_self_us_p50",
        stepped.self_p50_us(traced::FORWARD),
    );
    metrics.put(
        "channel.ack_return_us_p50",
        stepped.p50_us(traced::ACK_RETURN),
    );
    let batches = counter_delta(loaded, "mq.transport.batches_sent");
    metrics.put("transport.batches_per_verdict", per_verdict(batches));
    metrics.put(
        "transport.msgs_per_batch",
        ratio(counter_delta(loaded, "mq.transport.messages_sent"), batches),
    );
    metrics.put(
        "transport.bytes_per_verdict",
        per_verdict(counter_delta(loaded, "mq.transport.bytes_sent")),
    );
    metrics.put(
        "transport.batch_us_p50",
        histogram_delta(loaded, "mq.transport.batch_micros")
            .map_or(0.0, |h| histogram_quantile(&h, 0.5)),
    );
    metrics.put(
        "transport.send_stalls",
        counter_delta(loaded, "mq.transport.send_stalls"),
    );
    metrics.put(
        "transport.window_rollbacks",
        counter_delta(loaded, "mq.transport.window_rollbacks"),
    );
    metrics.put(
        "transport.reconnects",
        counter_delta(loaded, "mq.transport.reconnects"),
    );
    // The encode counter is process-wide; every manager's registry shows
    // the same cell, so read it from the head alone.
    let encodes = end.metrics[0]
        .counter("mq.codec.encodes")
        .saturating_sub(start.metrics[0].counter("mq.codec.encodes"));
    metrics.put("codec.encodes_per_verdict", per_verdict(encodes as f64));

    // mq::relay
    metrics.put(
        "relay.forwarded_per_verdict",
        per_verdict(counter_delta(loaded, "mq.relay.forwarded")),
    );
    metrics.put(
        "relay.duplicates",
        counter_delta(loaded, "mq.relay.duplicates"),
    );
    metrics.put(
        "relay.dead_lettered",
        counter_delta(loaded, "mq.relay.dead_lettered"),
    );
    metrics.put(
        "relay.extra_hop_us_p50",
        stats::median(&stepped.relay_custody_us),
    );

    // mq::qmgr
    metrics.put(
        "qmgr.recover_ms",
        recovery.map_or(0.0, |r| stats::median(&r.manager_ms)),
    );

    // generator self-check
    let gen_threads = if run.workload.managers > 1 { 2.0 } else { 1.0 };
    metrics.put("gen.threads", gen_threads);
    let sender_outside = 1.0 - ratio(loaded.sender_in_call_ns as f64, window_ns);
    let tail_outside = if run.workload.managers > 1 {
        1.0 - ratio(loaded.tail.in_call_window_ns as f64, window_ns)
    } else {
        0.0
    };
    metrics.put("gen.busy_share", sender_outside.max(tail_outside).max(0.0));

    let traced_verdict_ms = metrics
        .0
        .iter()
        .find(|m| m.name == "verdict_ms_p50")
        .map_or(0.0, |m| m.value);
    let stepped_sum_ms: f64 = [
        traced::SEND,
        traced::FORWARD,
        traced::READ,
        traced::ACK_RETURN,
        traced::PUMP,
        traced::TAKE,
    ]
    .iter()
    .map(|name| stepped.per_cycle_p50_us(name))
    .sum::<f64>()
        / 1e3;
    metrics.put(
        "trace.overhead_share",
        ratio(stepped_sum_ms - traced_verdict_ms, traced_verdict_ms),
    );
    metrics.put("trace.stepped_cycles", stepped.cycles as f64);
}

fn write_trace(run: &RunSpec, stepped: &Stepped) -> BenchResult<()> {
    std::fs::create_dir_all(&run.out_dir)?;
    std::fs::write(
        run.out_dir
            .join(format!("trace_{}.jsonl", run.workload.name)),
        span::to_jsonl(&stepped.spans),
    )?;
    Ok(())
}

fn meta(run: &RunSpec, world: &World, journal_dir: &Path) -> Value {
    let journals: Vec<Value> = world
        .nodes
        .iter()
        .map(|n| {
            Value::obj()
                .with("manager", n.qm.name())
                .with("role", n.role)
                .with("journal", "SegmentedJournal")
                .with("sync_every_append", run.workload.fsync)
        })
        .collect();
    let mut meta = host::metadata(journal_dir);
    meta.set("window_s", run.seconds);
    meta.set("outstanding", run.workload.outstanding);
    meta.set("background_pending", run.scale.background);
    meta.set("journals", journals);
    meta
}
