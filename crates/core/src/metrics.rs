//! Pre-registered metric handles for the conditional-messaging layer.
//!
//! Both services resolve their cells once, at construction, against the
//! owning queue manager's [`mq::Obs`] registry (naming scheme
//! `cond.<area>.<metric>`); hot paths then only touch the atomic cells.

use std::sync::Arc;

use mq::{Counter, Gauge, Histogram, MetricsRegistry};

/// Sender-side (evaluation manager) metrics.
#[derive(Debug)]
pub(crate) struct MessengerMetrics {
    /// Conditional messages sent (`cond.sent`).
    pub sent: Arc<Counter>,
    /// Fan-out copies staged across all sends (`cond.fanout`).
    pub fanout: Arc<Counter>,
    /// Evaluation-manager pump cycles (`cond.pump.iterations`).
    pub pump_iterations: Arc<Counter>,
    /// Read acknowledgments applied (`cond.ack.read`).
    pub acks_read: Arc<Counter>,
    /// Processed acknowledgments applied (`cond.ack.processed`).
    pub acks_processed: Arc<Counter>,
    /// Lag between an ack's receiver-side timestamp and the pump applying
    /// it, in simtime milliseconds (`cond.ack.lag_ms`).
    pub ack_lag_ms: Arc<Histogram>,
    /// Evaluations decided successful (`cond.verdict.success`).
    pub verdict_success: Arc<Counter>,
    /// Evaluations decided failed, timeouts included
    /// (`cond.verdict.failure`).
    pub verdict_failure: Arc<Counter>,
    /// Verdicts committed in the transaction of an acknowledgment that
    /// decided them (`cond.verdict.fused`).
    pub verdict_fused: Arc<Counter>,
    /// The failures caused by evaluation-timeout expiry
    /// (`cond.verdict.timeout`).
    pub verdict_timeout: Arc<Counter>,
    /// Parked compensations released to destinations
    /// (`cond.comp.released`).
    pub comp_released: Arc<Counter>,
    /// Parked compensations consumed on success (`cond.comp.consumed`).
    pub comp_consumed: Arc<Counter>,
    /// Success notifications staged (`cond.notify.success`).
    pub notify_success: Arc<Counter>,
    /// Conditional messages still under evaluation
    /// (`cond.pending.depth`, with high-water mark).
    pub pending_depth: Arc<Gauge>,
    /// Decided messages whose outcome actions are deferred to a D-Sphere
    /// (`cond.deferred.depth`): a count kept under the pump lock — set by
    /// recovery, one up per deferred verdict installed, one down per
    /// committed release.
    pub deferred_depth: Arc<Gauge>,
    /// O(depth) incremental condition-cell updates applied by acks and
    /// timer fires (`cond.eval.incremental_updates`).
    pub eval_incremental_updates: Arc<Counter>,
    /// Armed deadline/timeout timers that fired for a pending message
    /// (`cond.eval.timer_fires`).
    pub eval_timer_fires: Arc<Counter>,
    /// Evaluation cycles run from an event (send, ack arrival, timer fire)
    /// that hit a messaging error; the retry timer, or any event before
    /// it, retries (`cond.eval.errors`).
    pub eval_errors: Arc<Counter>,
    /// Acks consumed per evaluation-cycle transaction
    /// (`cond.ack.batch_size`).
    pub ack_batch_size: Arc<Histogram>,
    /// Acks that were queued on the ack queue and drained from it — they
    /// landed while no messenger was attached — instead of being consumed
    /// by the messenger's claim of them (`cond.ack.queued`).
    pub acks_queued: Arc<Counter>,
    /// Condition trees run through the static analyzer at send time
    /// (`cond.analyze.runs`).
    pub analyze_runs: Arc<Counter>,
    /// Sends rejected by the analyzer
    /// (`cond.analyze.rejected`).
    pub analyze_rejected: Arc<Counter>,
    /// Distinct conditions held in compiled form, one per shape
    /// (`cond.shapes`, with high-water mark).
    pub shapes: Arc<Gauge>,
}

impl MessengerMetrics {
    pub fn registered(registry: &MetricsRegistry) -> MessengerMetrics {
        MessengerMetrics {
            sent: registry.counter("cond.sent"),
            fanout: registry.counter("cond.fanout"),
            pump_iterations: registry.counter("cond.pump.iterations"),
            acks_read: registry.counter("cond.ack.read"),
            acks_processed: registry.counter("cond.ack.processed"),
            ack_lag_ms: registry.histogram("cond.ack.lag_ms"),
            verdict_success: registry.counter("cond.verdict.success"),
            verdict_failure: registry.counter("cond.verdict.failure"),
            verdict_fused: registry.counter("cond.verdict.fused"),
            verdict_timeout: registry.counter("cond.verdict.timeout"),
            comp_released: registry.counter("cond.comp.released"),
            comp_consumed: registry.counter("cond.comp.consumed"),
            notify_success: registry.counter("cond.notify.success"),
            pending_depth: registry.gauge("cond.pending.depth"),
            deferred_depth: registry.gauge("cond.deferred.depth"),
            eval_incremental_updates: registry.counter("cond.eval.incremental_updates"),
            eval_timer_fires: registry.counter("cond.eval.timer_fires"),
            eval_errors: registry.counter("cond.eval.errors"),
            ack_batch_size: registry.histogram("cond.ack.batch_size"),
            acks_queued: registry.counter("cond.ack.queued"),
            analyze_runs: registry.counter("cond.analyze.runs"),
            analyze_rejected: registry.counter("cond.analyze.rejected"),
            shapes: registry.gauge("cond.shapes"),
        }
    }
}

/// Receiver-side metrics.
#[derive(Debug)]
pub(crate) struct ReceiverMetrics {
    /// Original conditional messages delivered to the application
    /// (`cond.recv.originals`).
    pub originals: Arc<Counter>,
    /// Read acknowledgments sent back (`cond.recv.read_acks`).
    pub read_acks: Arc<Counter>,
    /// Processed acknowledgments sent back (`cond.recv.processed_acks`).
    pub processed_acks: Arc<Counter>,
    /// Compensations delivered to the application (`cond.recv.comp_delivered`).
    pub comp_delivered: Arc<Counter>,
    /// Compensations requeued because their original's fate is not yet
    /// known (`cond.recv.comp_deferred`).
    pub comp_deferred: Arc<Counter>,
    /// Original/compensation pairs annihilated before application
    /// delivery (`cond.recv.annihilated`).
    pub annihilated: Arc<Counter>,
}

impl ReceiverMetrics {
    pub fn registered(registry: &MetricsRegistry) -> ReceiverMetrics {
        ReceiverMetrics {
            originals: registry.counter("cond.recv.originals"),
            read_acks: registry.counter("cond.recv.read_acks"),
            processed_acks: registry.counter("cond.recv.processed_acks"),
            comp_delivered: registry.counter("cond.recv.comp_delivered"),
            comp_deferred: registry.counter("cond.recv.comp_deferred"),
            annihilated: registry.counter("cond.recv.annihilated"),
        }
    }
}
