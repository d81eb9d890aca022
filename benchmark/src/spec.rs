//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the layer they
//! belong to and the end-to-end metric they are predicted to move.
//!
//! `BENCHMARK.json` is generated from these tables (`condbench spec`), the
//! runner emits exactly these names, `compare` gates on exactly these
//! bounds, and the smoke test checks all three agree.

use crate::json::Value;

/// Default length of one measured window, seconds. The issue asked for
/// 30 s; the acceptance driver's total-time cap (92 runs plus two builds
/// in 3420 s, with `deep_pending` spending ~25 s outside its window on
/// loading, restarting and completing 20 000 background messages) forces
/// all four workloads down equally.
pub const RUN_SECONDS: u64 = 10;

/// One benchmark workload. Sizes live here so the runner, the README and
/// `BENCHMARK.json` cannot disagree.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Contract name; later issues cite it.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Managers in the chain (1 = local only, 2 = head+tail, 3 = +relay).
    pub managers: usize,
    /// `sync_every_append` on every manager's segmented journal.
    pub fsync: bool,
    /// Success-class conditional messages the sender keeps outstanding.
    pub outstanding: usize,
    /// Send one failure-class message per this many success-class sends
    /// (seeded), outside the outstanding window. 0 = none.
    pub failure_one_in: u32,
    /// Payload size mix as `(bytes, weight)`.
    pub sizes: &'static [(usize, u32)],
    /// Background conditional messages loaded in set-up that stay pending
    /// for the whole run.
    pub background: usize,
    /// Use the 4-leaf two-level tree on local queues instead of the
    /// single remote leaf.
    pub tree: bool,
}

/// Pick-up window of every success-class leaf.
pub const SUCCESS_WINDOW_MS: u64 = 30_000;
/// Pick-up window of the failure class (`Q.HOLD` is never read in time).
pub const FAILURE_WINDOW_MS: u64 = 250;
/// Pick-up window of the background tree (stays pending for the run).
pub const BACKGROUND_WINDOW_MS: u64 = 3_600_000;
/// A verdict not obtained within this long is a failed operation.
pub const VERDICT_TIMEOUT_MS: u64 = 30_000;
/// Crash/reopen/rebuild cycles timed after the `deep_pending` window.
pub const RESTARTS: usize = 5;

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "durable_rtt",
        why: "2 managers, loopback TCP, fsync per append, 1 outstanding: per-operation latency of journal + channel/transport + receiver; evaluation is trivial",
        managers: 2,
        fsync: true,
        outstanding: 1,
        failure_one_in: 0,
        sizes: &[(256, 1)],
        background: 0,
        tree: false,
    },
    Workload {
        name: "durable_stream",
        why: "same topology, 64 outstanding on one sender thread: queueing, ack batching, the pipelined window and concurrent journal appenders; where group commit or batching should pay",
        managers: 2,
        fsync: true,
        outstanding: 64,
        failure_one_in: 0,
        sizes: &[(256, 1)],
        background: 0,
        tree: false,
    },
    Workload {
        name: "relay_comp",
        why: "3-manager chain, fsync, 16 outstanding plus a seeded 1-in-8 failure class and a 64B/1KiB/16KiB size mix: the only workload paying for relay custody, compensation delivery and annihilation",
        managers: 3,
        fsync: true,
        outstanding: 16,
        failure_one_in: 8,
        sizes: &[(64, 70), (1024, 25), (16 * 1024, 5)],
        background: 0,
        tree: false,
    },
    Workload {
        name: "deep_pending",
        why: "1 manager, no network, no per-append fsync, 20000 background pending 4-leaf trees: the evaluation scan, pending table and recovery do the work while fsync and the wire do none",
        managers: 1,
        fsync: false,
        outstanding: 1,
        failure_one_in: 0,
        sizes: &[(256, 1)],
        background: 20_000,
        tree: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which workloads a metric is declared on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scope {
    /// Every workload.
    All,
    /// Only the named workload; elsewhere the metric reads 0.
    Only(&'static str),
}

impl Scope {
    /// Whether the metric is declared on `workload`.
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Only(name) => name == workload,
        }
    }
}

/// An end-to-end metric: something a user of the middleware would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Workloads it is declared on.
    pub scope: Scope,
    /// Listed under `end_to_end` in `BENCHMARK.json`, i.e. gated by the
    /// acceptance driver. See [`END_TO_END`] for why most are not.
    pub driver: bool,
}

/// End-to-end metrics. `condbench compare` gates all of them, each on the
/// workloads it is declared on, and reports `unresolved` where the inputs'
/// own spread exceeds the bound.
///
/// The acceptance driver is stricter: every metric under `end_to_end` in
/// `BENCHMARK.json` must be non-zero on every workload and hold its bound
/// (at most 0.25) as a run-to-run spread on this host. Same-code runs here
/// (shared Firecracker VM: fsync p50 wanders 0.2–7 ms within minutes,
/// CPU-bound loops 1.0–1.7x) put every wall-clock, CPU-time and
/// resident-size metric at a spread of 0.3–2.6 on the three fsync
/// workloads, so — as the issue prescribes for a metric that cannot hold
/// its bound — those are demoted to the per-layer list as `diag.<name>`
/// (together with the two workload-specific ones and the always-zero
/// `failed_share`) instead of having their bounds widened. What the
/// driver gates are the costs that do repeat: set-up time and the
/// journal cost of a verdict.
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        scope: Scope::All,
        driver: true,
    },
    EndToEnd {
        name: "journal_appends_per_verdict",
        unit: "count",
        better: "lower",
        bound: 0.10,
        scope: Scope::All,
        driver: true,
    },
    EndToEnd {
        name: "journal_bytes_per_payload_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.10,
        scope: Scope::All,
        driver: true,
    },
    EndToEnd {
        name: "verdict_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        scope: Scope::All,
        driver: false,
    },
    EndToEnd {
        name: "verdict_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
        scope: Scope::All,
        driver: false,
    },
    EndToEnd {
        name: "verdict_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        scope: Scope::All,
        driver: false,
    },
    EndToEnd {
        name: "send_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.10,
        scope: Scope::All,
        driver: false,
    },
    EndToEnd {
        name: "cpu_ms_per_verdict",
        unit: "ms",
        better: "lower",
        bound: 0.10,
        scope: Scope::All,
        driver: false,
    },
    EndToEnd {
        name: "rss_mb_peak",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        scope: Scope::All,
        driver: false,
    },
    EndToEnd {
        name: "comp_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
        scope: Scope::Only("relay_comp"),
        driver: false,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
        scope: Scope::Only("deep_pending"),
        driver: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: "lower",
        // Any increase is a regression.
        bound: 0.0,
        scope: Scope::All,
        driver: false,
    },
];

/// A per-layer metric, taken from outside the program.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The module the number belongs to.
    pub layer: &'static str,
    /// The end-to-end metric and workload it is predicted to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const MESSENGER: &str = "condmsg::messenger";
const MESSENGER_MOVES: &str =
    "verdict_per_s + cpu_ms_per_verdict on deep_pending; ~0 on durable_rtt";
const EVAL: &str = "condmsg::eval";
const EVAL_MOVES: &str = "verdict_per_s on deep_pending; ~0 elsewhere";
const RECEIVER: &str = "condmsg::receiver";
const JOURNAL: &str = "mq::journal";
const JOURNAL_LOAD: &str = "verdict_per_s on durable_stream and relay_comp";
const TRANSPORT: &str = "mq::transport";
const TRANSPORT_LOAD: &str = "verdict_per_s on durable_stream and relay_comp; 0 on deep_pending";
const RELAY: &str = "mq::relay";
const RELAY_MOVES: &str =
    "verdict_per_s, verdict_ms_p50, comp_ms_p50 on relay_comp only; 0 elsewhere";

/// Per-layer metrics (reported by the traced run; no bounds).
pub const PER_LAYER: [PerLayer; 62] = [
    layer("messenger.send_self_us_p50", "us", "lower", MESSENGER, "send_us_p50 everywhere"),
    layer("messenger.send_busy_share", "ratio", "lower", MESSENGER, MESSENGER_MOVES),
    layer("messenger.pump_us_p50", "us", "lower", MESSENGER, MESSENGER_MOVES),
    layer("messenger.pump_self_us_p50", "us", "lower", MESSENGER, MESSENGER_MOVES),
    layer("messenger.take_outcome_us_p50", "us", "lower", MESSENGER, "verdict_ms_p50 everywhere (small)"),
    layer("messenger.pump_iterations_per_verdict", "count", "lower", MESSENGER, MESSENGER_MOVES),
    layer("messenger.ack_batch_mean", "count", "higher", MESSENGER, "verdict_per_s on durable_stream"),
    layer("messenger.ack_lag_ms_p50", "ms", "lower", MESSENGER, "verdict_ms_p50 on durable_stream"),
    layer("messenger.pending_depth_max", "count", "lower", MESSENGER, "rss_mb_peak on deep_pending"),
    layer("messenger.recover_ms", "ms", "lower", MESSENGER, "recover_s on deep_pending"),
    layer("eval.compile_ns", "ns", "lower", EVAL, EVAL_MOVES),
    layer("eval.apply_ack_ns", "ns", "lower", EVAL, EVAL_MOVES),
    layer("eval.evaluate_ns", "ns", "lower", EVAL, EVAL_MOVES),
    layer("analyze.send_ns", "ns", "lower", "condmsg::analyze", "send_us_p50 on deep_pending; ~0 elsewhere"),
    layer("simtime.schedule_cancel_ns", "ns", "lower", "simtime", EVAL_MOVES),
    layer("eval.incremental_updates_per_verdict", "count", "lower", EVAL, EVAL_MOVES),
    layer("eval.timer_fires_per_verdict", "count", "lower", EVAL, EVAL_MOVES),
    layer("simtime.timers_pending_max", "count", "lower", "simtime", EVAL_MOVES),
    layer("receiver.read_us_p50", "us", "lower", RECEIVER, "verdict_ms_p50 on durable_rtt"),
    layer("receiver.read_self_us_p50", "us", "lower", RECEIVER, "verdict_ms_p50 on durable_rtt"),
    layer("receiver.read_busy_share", "ratio", "lower", RECEIVER, "verdict_per_s on durable_stream"),
    layer("receiver.comp_delivered", "count", "higher", RECEIVER, "comp_ms_p50 on relay_comp; 0 elsewhere"),
    layer("receiver.annihilated", "count", "higher", RECEIVER, "comp_ms_p50 on relay_comp; 0 elsewhere"),
    layer("journal.appends_per_verdict", "count", "lower", JOURNAL, "x append_us_p50 = fixed share of verdict_ms_p50 on durable_rtt"),
    layer("journal.head.appends_per_verdict", "count", "lower", JOURNAL, "send_us_p50 + verdict_ms_p50 on durable_rtt"),
    layer("journal.relay.appends_per_verdict", "count", "lower", JOURNAL, "verdict_ms_p50 on relay_comp; 0 elsewhere"),
    layer("journal.tail.appends_per_verdict", "count", "lower", JOURNAL, "verdict_ms_p50 on durable_rtt"),
    layer("journal.append_us_p50", "us", "lower", JOURNAL, "verdict_ms_p50 + send_us_p50 on durable_rtt; ~0 of deep_pending's loop"),
    layer("journal.append_us_p99", "us", "lower", JOURNAL, "verdict_ms_p99 on durable_rtt"),
    layer("journal.busy_share", "ratio", "lower", JOURNAL, JOURNAL_LOAD),
    layer("journal.inflight_mean", "count", "lower", JOURNAL, JOURNAL_LOAD),
    layer("journal.bytes_per_verdict", "B", "lower", JOURNAL, JOURNAL_LOAD),
    layer("journal.checkpoints", "count", "lower", JOURNAL, "verdict_ms_p99 where one lands in the window"),
    layer("journal.checkpoint_ms_total", "ms", "lower", JOURNAL, "verdict_ms_p99 where one lands in the window"),
    layer("journal.replay_ms", "ms", "lower", JOURNAL, "recover_s on deep_pending"),
    layer("session.tx_per_verdict", "count", "lower", "mq::session", "verdict_ms_p50 everywhere (small)"),
    layer("session.rollbacks", "count", "lower", "mq::session", "verdict_ms_p50 everywhere (small)"),
    layer("queue.put_us_p50", "us", "lower", "mq::queue", "verdict_ms_p50 everywhere (small)"),
    layer("queue.get_us_p50", "us", "lower", "mq::queue", "verdict_ms_p50 everywhere (small)"),
    layer("store.correlation_get_us_p50", "us", "lower", "mq::store", "must stay flat between durable_rtt and deep_pending"),
    layer("channel.forward_us_p50", "us", "lower", "mq::channel", "verdict_ms_p50 on durable_rtt; 0 on deep_pending"),
    layer("channel.forward_self_us_p50", "us", "lower", "mq::channel", "verdict_ms_p50 on durable_rtt; 0 on deep_pending"),
    layer("channel.ack_return_us_p50", "us", "lower", "mq::channel", "verdict_ms_p50 on durable_rtt; 0 on deep_pending"),
    layer("transport.batches_per_verdict", "count", "lower", TRANSPORT, TRANSPORT_LOAD),
    layer("transport.msgs_per_batch", "count", "higher", TRANSPORT, TRANSPORT_LOAD),
    layer("transport.bytes_per_verdict", "B", "lower", TRANSPORT, TRANSPORT_LOAD),
    layer("transport.batch_us_p50", "us", "lower", TRANSPORT, "verdict_ms_p50 on durable_rtt; 0 on deep_pending"),
    layer("transport.send_stalls", "count", "lower", TRANSPORT, TRANSPORT_LOAD),
    layer("transport.window_rollbacks", "count", "lower", TRANSPORT, "0 everywhere on loopback"),
    layer("transport.reconnects", "count", "lower", TRANSPORT, "0 everywhere (oracle)"),
    layer("codec.encodes_per_verdict", "count", "lower", "mq::codec", "cpu_ms_per_verdict on relay_comp; counts journal-record encodes too, so not 0 on deep_pending"),
    layer("relay.forwarded_per_verdict", "count", "lower", RELAY, RELAY_MOVES),
    layer("relay.duplicates", "count", "lower", RELAY, RELAY_MOVES),
    layer("relay.dead_lettered", "count", "lower", RELAY, "0 everywhere (oracle)"),
    layer("relay.extra_hop_us_p50", "us", "lower", RELAY, RELAY_MOVES),
    layer("qmgr.recover_ms", "ms", "lower", "mq::qmgr", "recover_s on deep_pending"),
    layer("gen.threads", "count", "lower", "generator", "self-check: at most nproc"),
    layer("gen.busy_share", "ratio", "lower", "generator", "self-check: the benchmark measures itself if this is not small"),
    layer("trace.overhead_share", "ratio", "lower", "generator", "self-check: stepped spans vs. the traced run's closed-loop diag.verdict_ms_p50 (1-outstanding workloads)"),
    layer("trace.stepped_cycles", "count", "higher", "generator", "self-check: sample count behind every stepped *_us_p50"),
    layer("setup.build_s", "s", "lower", "generator", "setup_s: the topology build and background load alone, without process start and warm-up"),
    layer("host.fsync_us_p50", "us", "lower", "host", "context: 4 KiB append + sync_data in the journal directory; scales every durable number"),
];

/// Prefix of an end-to-end metric listed under `per_layer`.
pub const DIAG: &str = "diag.";

/// The end-to-end metrics `BENCHMARK.json` lists under `end_to_end`.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.driver)
}

/// `(name in BENCHMARK.json, name the runner measures, unit, better)` of
/// everything under `per_layer`: the [`PER_LAYER`] table, then every
/// end-to-end metric the driver's list cannot hold as `diag.<name>`.
pub fn driver_per_layer() -> Vec<(String, &'static str, &'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name.to_owned(), m.name, m.unit, m.better))
        .chain(
            END_TO_END
                .iter()
                .filter(|m| !m.driver)
                .map(|m| (format!("{DIAG}{}", m.name), m.name, m.unit, m.better)),
        )
        .collect()
}

/// Renders `BENCHMARK.json` (exactly the keys the driver's contract
/// allows; sizes, layers, predictions and `"claim": null` live in
/// `benchmark/README.md` and `result.json`).
pub fn benchmark_json() -> Value {
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Value::from)
    .collect();
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| Value::obj().with("name", w.name).with("why", w.why))
        .collect();
    let end_to_end: Vec<Value> = driver_end_to_end()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better)
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Value> = driver_per_layer()
        .into_iter()
        .map(|(name, _, unit, better)| {
            Value::obj()
                .with("name", name)
                .with("unit", unit)
                .with("better", better)
        })
        .collect();
    Value::obj()
        .with("command", command)
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// The per-layer predictions as data, for `result.json`: which layer a
/// metric belongs to and which end-to-end metric, on which workload, it
/// should move. (`BENCHMARK.json` may carry names, units and directions
/// only.)
pub fn per_layer_catalog() -> Vec<Value> {
    PER_LAYER
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("layer", m.layer)
                .with("moves", m.moves)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_driver_contract() {
        let per_layer = driver_per_layer();
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(driver_end_to_end().map(|m| m.name));
        names.extend(per_layer.iter().map(|(name, ..)| name.as_str()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let driver: Vec<_> = driver_end_to_end().collect();
        assert!((1..=16).contains(&driver.len()));
        assert!(driver.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = driver
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(driver.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&per_layer.len()));
        // The driver wants its end-to-end metrics on every workload.
        assert!(driver.iter().all(|m| m.scope == Scope::All));
        // Every end-to-end metric of the issue is named in BENCHMARK.json,
        // under end_to_end or as diag.<name> under per_layer.
        for m in &END_TO_END {
            assert!(
                m.driver
                    || per_layer
                        .iter()
                        .any(|(name, ..)| *name == format!("{DIAG}{}", m.name)),
                "{}",
                m.name
            );
        }
        assert!(benchmark_json().to_pretty().len() < 64 * 1024);
    }
}
