//! The observability subsystem: one [`Obs`] handle bundling the metrics
//! registry and the message-lifecycle trace log.
//!
//! Every [`crate::QueueManager`] owns an `Obs` (or shares one supplied via
//! [`crate::QueueManagerBuilder::obs`], so several managers in a simulated
//! distributed deployment report into a single registry and timeline). The
//! layers above reach it through `manager.obs()`:
//!
//! * `mq` registers queue and transaction counters, queue-depth gauges and
//!   journal-append latency at construction time;
//! * the [`crate::transport`] layer reports wire traffic as
//!   `mq.transport.*` (bytes, batches, reconnects, heartbeat misses,
//!   handshake failures, per-batch latency);
//! * `condmsg` adds send/fan-out/ack/verdict/compensation metrics and
//!   records the per-message lifecycle trace;
//! * `dsphere` adds sphere outcome metrics and sphere demarcation events.
//!
//! Hot paths only touch pre-registered atomic cells ([`crate::Counter`],
//! [`crate::Gauge`], [`crate::Histogram`]) — registration, with its map
//! inserts and allocation, happens once per component.
//!
//! The managers sharing an `Obs` also share its [`ChangeSignal`]: a
//! waiter over their queues re-checks its condition when one of them
//! changes something, not on a timer.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::stats::{MetricsRegistry, MetricsSnapshot};
use crate::trace::TraceLog;

/// Every metric name the workspace may register, with `*` standing for
/// an interpolated segment (queue names may themselves contain dots).
///
/// This is the single source of truth the `cond-lint` registry pass
/// checks every `counter`/`gauge`/`histogram`/`register_*` call site
/// against; a misspelled or undeclared name is a lint error carrying
/// both the emission site and this declaration.
// lint: registry metric-name
pub const METRIC_REGISTRY: &[&str] = &[
    // condmsg sender/evaluation pipeline.
    "cond.sent",
    "cond.fanout",
    "cond.pump.iterations",
    "cond.ack.read",
    "cond.ack.processed",
    "cond.ack.lag_ms",
    "cond.ack.batch_size",
    "cond.ack.queued",
    "cond.verdict.success",
    "cond.verdict.failure",
    "cond.verdict.fused",
    "cond.verdict.timeout",
    "cond.comp.released",
    "cond.comp.consumed",
    "cond.notify.success",
    "cond.pending.depth",
    "cond.deferred.depth",
    "cond.eval.incremental_updates",
    "cond.eval.timer_fires",
    "cond.eval.errors",
    "cond.analyze.runs",
    "cond.analyze.rejected",
    "cond.shapes",
    // condmsg receiver.
    "cond.recv.originals",
    "cond.recv.read_acks",
    "cond.recv.processed_acks",
    "cond.recv.comp_delivered",
    "cond.recv.comp_deferred",
    "cond.recv.annihilated",
    // Dependency-spheres.
    "dsphere.begun",
    "dsphere.committed",
    "dsphere.aborted",
    "dsphere.active",
    // Per-queue cells.
    "mq.queue.*.enqueued",
    "mq.queue.*.dequeued",
    "mq.queue.*.expired",
    "mq.queue.*.redelivered",
    "mq.queue.*.dead_lettered",
    "mq.queue.*.browses",
    "mq.queue.*.depth",
    // Queue-manager cells.
    "mq.tx.committed",
    "mq.tx.rolled_back",
    "mq.forwarded",
    "mq.received_remote",
    // Channel handoffs riding a later record.
    "mq.channel.released",
    "mq.channel.release_flushes",
    // Journal.
    "mq.journal.append_micros",
    "mq.journal.appends",
    "mq.journal.fsyncs",
    "mq.journal.group_waits",
    "mq.journal.batch_size",
    "mq.checkpoint.refused",
    // Relay federation.
    "mq.relay.delivered_local",
    "mq.relay.forwarded",
    "mq.relay.duplicates",
    "mq.relay.dead_lettered",
    "mq.relay.hops",
    "mq.relay.accept_batch",
    // TCP transport.
    "mq.transport.bytes_sent",
    "mq.transport.bytes_received",
    "mq.transport.batches_sent",
    "mq.transport.batches_received",
    "mq.transport.messages_sent",
    "mq.transport.messages_received",
    "mq.transport.connects",
    "mq.transport.reconnects",
    "mq.transport.handshake_failures",
    "mq.transport.heartbeats",
    "mq.transport.heartbeat_misses",
    "mq.transport.batch_micros",
    // Pipelined reactor data plane.
    "mq.transport.acks_received",
    "mq.transport.send_stalls",
    "mq.transport.window_depth",
    "mq.transport.window_rollbacks",
    "mq.transport.requeued",
    // Codec: message images assembled, one per persistent put a journal
    // record carries and one per message a batch frame carries.
    "mq.codec.encodes",
    // Trace ring: events evicted because the ring was full.
    "mq.trace.dropped",
];

/// The wire names of every [`crate::trace::TraceStage`], as rendered by
/// its `Display` impl (which is the registry sink for this kind).
// lint: registry trace-stage
pub const TRACE_STAGE_REGISTRY: &[&str] = &[
    "send",
    "fan-out",
    "read-ack",
    "process-ack",
    "verdict",
    "success-notify",
    "comp-released",
    "comp-consumed",
    "annihilated",
    "comp-delivered",
    "comp-deferred",
    "sphere-begin",
    "sphere-commit",
    "sphere-abort",
    "relay-forwarded",
    "relay-dead-lettered",
    "release-flushed",
];

/// Every on-storage [`crate::journal::JournalRecord`] tag byte. The
/// record's wire encode/decode impls are the registry sinks; adding a
/// record variant without extending this table is a lint error. Tags 2,
/// 3, 4, 5, 6, 9, 10, 11 and 12 are retired, not free: journals written
/// before may hold them (2/4, 9/10 and 11/12 were `Put` and `TxCommit`
/// over earlier message images; 11/12 wrote every id whole).
// lint: registry journal-tag
pub const JOURNAL_TAG_REGISTRY: &[u8] = &[0, 1, 7, 8, 13, 14];

/// Every well-known string the message image and the journal carry: the
/// control-property names (`sys.*` of `mq`, `ds.*` of the conditional
/// layer), the conditional layer's fixed property values, and the system
/// queue names. [`crate::codec::Encoder::put_wire_str`] writes a string
/// listed here as its position + 1 (one byte), any other as `0` and the
/// string, so the table is append-only: a string's position is its
/// on-storage code, and a string no constant names any more keeps its
/// position as a retired code. The constants naming these strings are the
/// registry sinks; one missing here is a lint error, not merely a longer
/// image.
// lint: registry wire-string
pub const WIRE_STRING_REGISTRY: &[&str] = &[
    // mq: transmission envelope, relay, dead-letter, topic registrations.
    // `sys.topic.sub.selector` is retired, not free: a subscription is just
    // its queue name.
    "sys.xmit.dest.queue",
    "sys.xmit.dest.qmgr",
    "sys.relay.origin",
    "sys.relay.hops",
    "sys.dlq.reason",
    "sys.topic.sub.name",
    "sys.topic.sub.selector",
    // condmsg: control information on standard messages (paper §2.3).
    "ds.kind",
    "ds.leaf",
    "ds.processing.required",
    "ds.sender.qmgr",
    "ds.ack.queue",
    "ds.ack.type",
    "ds.ack.read_ts",
    "ds.ack.process_ts",
    "ds.recipient",
    "ds.outcome",
    "ds.outcome.reason",
    "ds.outcome.ts",
    "ds.comp.system",
    // Retired, not free: a parked compensation's destination (one is
    // parked per message, and its release takes each address from the
    // leaf), the sender-log entry type (the payload's first byte says it),
    // the outcome history entry's decision time (the entry is the outcome
    // notification, `ds.outcome.ts`), and the receiver-log entry type and
    // time (an entry means "consumed", and nothing reads when).
    "ds.comp.dest",
    "ds.slog.entry",
    "ds.slog.decided_ts",
    "ds.rlog.entry",
    "ds.rlog.ts",
    // condmsg: message kinds (`ds.kind`). `ack`, `outcome`, `slog` and
    // `rlog` are retired: only originals, compensations and success
    // notifications carry a kind, the one a read tells apart.
    "original",
    "ack",
    "comp",
    "success",
    "outcome",
    "slog",
    "rlog",
    // condmsg: ack types, outcomes (`success` above). Retired: the
    // sender-log entry type `send` and the receiver-log entry types.
    "read",
    "processed",
    "failure",
    "send",
    "consumed",
    "comp-delivered",
    "annihilated",
    // System queues: the conditional layer's defaults and the dead-letter
    // queue. `DS.DONE.Q` is retired, not free: a verdict's one image is its
    // notification on `DS.OUTCOME.Q`.
    "DS.SLOG.Q",
    "DS.ACK.Q",
    "DS.COMP.Q",
    "DS.OUTCOME.Q",
    "DS.RLOG.Q",
    "DS.DONE.Q",
    "SYSTEM.DEAD.LETTER.QUEUE",
];

/// Every transport frame-kind tag byte (`FrameKind::as_u8`/`from_u8`
/// are the sinks). Tag 0 is reserved and never valid on the wire; tag 4,
/// the per-batch ack, is retired and refused like any unknown kind.
// lint: registry frame-kind
pub const FRAME_KIND_REGISTRY: &[u8] = &[1, 2, 3, 5, 6, 7];

/// Shared observability state: named metrics, lifecycle trace and the
/// change signal.
#[derive(Debug)]
pub struct Obs {
    metrics: MetricsRegistry,
    trace: TraceLog,
    changes: ChangeSignal,
}

/// A count of what the managers sharing an [`Obs`] changed: bumped after
/// every applied commit (`QueueManager::announce`) and every transaction a
/// channel releases, once its effects are visible. A bump wakes only when a
/// waiter is parked, so otherwise it is two atomic operations.
#[derive(Debug, Default)]
pub struct ChangeSignal {
    seq: AtomicU64,
    /// Waiters between their last look at `seq` and their wake. The
    /// accesses to it and to `seq` are `SeqCst`: a bump that a waiter's
    /// look missed sees the waiter parked, and wakes it.
    parked: AtomicUsize,
    lock: Mutex<()>,
    changed: Condvar,
}

impl ChangeSignal {
    /// The changes so far. Read it before checking a condition, and pass
    /// it to [`ChangeSignal::wait_past`] if the condition does not hold.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Counts a change already made and wakes every parked waiter.
    pub fn bump(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Taken so the wake cannot fall between a waiter's look at
            // `seq` and its park.
            drop(self.lock.lock());
            self.changed.notify_all();
        }
    }

    /// Parks until something changes after `seen` (a [`ChangeSignal::seq`]
    /// read earlier), or until nothing has for `bound`. Returns whether
    /// something changed.
    pub fn wait_past(&self, seen: u64, bound: Duration) -> bool {
        let mut guard = self.lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.seq() == seen {
            if self.changed.wait_for(&mut guard, bound).timed_out() {
                break;
            }
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        self.seq() != seen
    }
}

impl Default for Obs {
    /// The registry starts with the trace ring's eviction count, as
    /// `mq.trace.dropped`: a timeline that lost events says so.
    fn default() -> Obs {
        let trace = TraceLog::default();
        let metrics = MetricsRegistry::default();
        metrics.register_counter("mq.trace.dropped", trace.dropped_cell());
        Obs { metrics, trace, changes: ChangeSignal::default() }
    }
}

impl Obs {
    /// Creates a fresh observability hub with an empty registry and a
    /// trace log of default capacity.
    pub fn new() -> Arc<Obs> {
        Arc::new(Obs::default())
    }

    /// The named-metric registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The lifecycle trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The signal every manager sharing this hub bumps after a change.
    pub fn changes(&self) -> &ChangeSignal {
        &self.changes
    }

    /// Convenience: a point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceStage;
    use simtime::Time;

    #[test]
    fn a_change_wakes_a_parked_waiter_and_none_times_out() {
        let obs = Obs::new();
        let seen = obs.changes().seq();
        assert!(!obs.changes().wait_past(seen, Duration::from_millis(5)));
        obs.changes().bump();
        assert!(obs.changes().wait_past(seen, Duration::ZERO), "a change already made");
        let seen = obs.changes().seq();
        let bumper = std::thread::spawn({
            let obs = obs.clone();
            move || obs.changes().bump()
        });
        assert!(obs.changes().wait_past(seen, Duration::from_secs(30)));
        bumper.join().unwrap();
    }

    #[test]
    fn obs_bundles_metrics_and_trace() {
        let obs = Obs::new();
        obs.metrics().counter("x").incr();
        obs.trace()
            .record(Time(1), TraceStage::Send, Some(1), None, "");
        assert_eq!(obs.snapshot().counter("x"), 1);
        assert_eq!(obs.trace().len(), 1);
    }

    #[test]
    fn wire_strings_are_unique_and_fit_one_byte_codes() {
        let mut seen = std::collections::HashSet::new();
        for s in WIRE_STRING_REGISTRY {
            assert!(seen.insert(s), "{s} is registered twice");
        }
        // Code = position + 1, and a varint below 128 is one byte.
        assert!(WIRE_STRING_REGISTRY.len() <= 127);
        // Append-only: the property names keep the codes they had.
        assert_eq!(WIRE_STRING_REGISTRY[0], "sys.xmit.dest.queue");
        assert_eq!(WIRE_STRING_REGISTRY[24], "ds.rlog.ts");
    }
}
