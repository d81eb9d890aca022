//! Message-lifecycle tracing: a bounded ring buffer of structured events.
//!
//! Each conditional message's journey — send, fan-out, acknowledgments,
//! evaluation verdict, and the outcome actions (success notification,
//! compensation release, annihilation) — is recorded as [`TraceEvent`]s
//! with simtime timestamps. The buffer is a fixed-capacity ring: old
//! events are dropped once capacity is reached, so long-running systems
//! keep a recent window without unbounded growth.
//!
//! The log lives in the `mq` crate (below the conditional layer) so every
//! layer sharing a queue manager — `mq` itself, `condmsg`, `dsphere` —
//! appends to the same timeline. Conditional message ids are carried as
//! their raw `u128` to keep this layer independent of the id type above.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simtime::Time;

use crate::stats::Counter;

/// Default ring capacity (events retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The lifecycle stage a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TraceStage {
    /// A conditional message was sent (sender log written, paper §2.3).
    Send,
    /// One fan-out copy was staged for a destination leaf.
    FanOut,
    /// A read acknowledgment was consumed by the evaluation manager.
    ReadAck,
    /// A processed acknowledgment was consumed by the evaluation manager.
    ProcessAck,
    /// The evaluation reached a verdict (detail: `success` or
    /// `failure: <reason>`).
    Verdict,
    /// A success notification was staged for a destination.
    SuccessNotify,
    /// A parked compensation was released to its destination (failure
    /// outcome, paper §2.6).
    CompensationReleased,
    /// A parked compensation was consumed without delivery (success
    /// outcome).
    CompensationConsumed,
    /// An original/compensation pair annihilated on a destination queue.
    Annihilated,
    /// A compensation was delivered to the consuming application.
    CompensationDelivered,
    /// A compensation could not be resolved yet and was left parked.
    CompensationDeferred,
    /// A Dependency-Sphere began (detail: sphere context).
    SphereBegin,
    /// A Dependency-Sphere committed.
    SphereCommit,
    /// A Dependency-Sphere aborted (detail: reason).
    SphereAbort,
    /// A relay manager forwarded an in-transit envelope toward its
    /// destination manager (detail: `dest=<mgr> via=<xmit queue> hops=<n>`).
    RelayForwarded,
    /// A relay manager dead-lettered an in-transit envelope it could not
    /// forward (detail: the DLQ reason).
    RelayDeadLettered,
    /// A manager wrote its released channel handoffs as a record of their
    /// own (detail: `cap`, `idle` or `shutdown`, and `released=<n>`).
    ReleaseFlushed,
}

impl TraceStage {
    /// Every stage, for name lookups and seen-mask iteration.
    pub const ALL: [TraceStage; 17] = [
        TraceStage::Send,
        TraceStage::FanOut,
        TraceStage::ReadAck,
        TraceStage::ProcessAck,
        TraceStage::Verdict,
        TraceStage::SuccessNotify,
        TraceStage::CompensationReleased,
        TraceStage::CompensationConsumed,
        TraceStage::Annihilated,
        TraceStage::CompensationDelivered,
        TraceStage::CompensationDeferred,
        TraceStage::SphereBegin,
        TraceStage::SphereCommit,
        TraceStage::SphereAbort,
        TraceStage::RelayForwarded,
        TraceStage::RelayDeadLettered,
        TraceStage::ReleaseFlushed,
    ];
}

// lint: registry-sink trace-stage
impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceStage::Send => "send",
            TraceStage::FanOut => "fan-out",
            TraceStage::ReadAck => "read-ack",
            TraceStage::ProcessAck => "process-ack",
            TraceStage::Verdict => "verdict",
            TraceStage::SuccessNotify => "success-notify",
            TraceStage::CompensationReleased => "comp-released",
            TraceStage::CompensationConsumed => "comp-consumed",
            TraceStage::Annihilated => "annihilated",
            TraceStage::CompensationDelivered => "comp-delivered",
            TraceStage::CompensationDeferred => "comp-deferred",
            TraceStage::SphereBegin => "sphere-begin",
            TraceStage::SphereCommit => "sphere-commit",
            TraceStage::SphereAbort => "sphere-abort",
            TraceStage::RelayForwarded => "relay-forwarded",
            TraceStage::RelayDeadLettered => "relay-dead-lettered",
            TraceStage::ReleaseFlushed => "release-flushed",
        };
        f.write_str(s)
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order across the whole log).
    pub seq: u64,
    /// Simtime timestamp when the event was recorded.
    pub at: Time,
    /// The lifecycle stage.
    pub stage: TraceStage,
    /// The conditional message this event belongs to, if any.
    pub cond_id: Option<u128>,
    /// The destination leaf index, for per-leaf stages.
    pub leaf: Option<u32>,
    /// Free-form detail (destination queue, verdict reason, …): shared,
    /// so a detail the recorder holds already is recorded without a copy.
    pub detail: Arc<str>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] t={} {}", self.seq, self.at.as_millis(), self.stage)?;
        if let Some(id) = self.cond_id {
            write!(f, " cond={id:032x}")?;
        }
        if let Some(leaf) = self.leaf {
            write!(f, " leaf={leaf}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        Ok(())
    }
}

/// Bounded ring buffer of [`TraceEvent`]s.
///
/// Recording takes one short mutex hold.
pub struct TraceLog {
    capacity: usize,
    seq: AtomicU64,
    /// Events evicted because the ring was full; an [`crate::Obs`]
    /// registers the cell as `mq.trace.dropped`.
    dropped: Arc<Counter>,
    /// Bitmask of every stage ever recorded — survives ring eviction, so
    /// "did stage X happen at all?" stays answerable after millions of
    /// events have rolled through a 4k ring.
    seen: AtomicU64,
    events: Mutex<VecDeque<TraceEvent>>,
}

/// Stable bit position for the seen-stages mask.
fn stage_bit(stage: TraceStage) -> u64 {
    let shift = match stage {
        TraceStage::Send => 0,
        TraceStage::FanOut => 1,
        TraceStage::ReadAck => 2,
        TraceStage::ProcessAck => 3,
        TraceStage::Verdict => 4,
        TraceStage::SuccessNotify => 5,
        TraceStage::CompensationReleased => 6,
        TraceStage::CompensationConsumed => 7,
        TraceStage::Annihilated => 8,
        TraceStage::CompensationDelivered => 9,
        TraceStage::CompensationDeferred => 10,
        TraceStage::SphereBegin => 11,
        TraceStage::SphereCommit => 12,
        TraceStage::SphereAbort => 13,
        TraceStage::RelayForwarded => 14,
        TraceStage::RelayDeadLettered => 15,
        TraceStage::ReleaseFlushed => 16,
    };
    1_u64 << shift
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// Creates a log retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: Arc::default(),
            seen: AtomicU64::new(0),
            events: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
        }
    }

    /// Whether `stage` has ever been recorded on this log, regardless of
    /// whether its events are still retained in the ring.
    pub fn stage_seen(&self, stage: TraceStage) -> bool {
        self.seen.load(Ordering::Relaxed) & stage_bit(stage) != 0
    }

    /// The maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The eviction counter's cell, for a metrics registry.
    pub(crate) fn dropped_cell(&self) -> &Arc<Counter> {
        &self.dropped
    }

    /// Records an event. `detail` may be empty.
    pub fn record(
        &self,
        at: Time,
        stage: TraceStage,
        cond_id: Option<u128>,
        leaf: Option<u32>,
        detail: impl Into<Arc<str>>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.seen.fetch_or(stage_bit(stage), Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            at,
            stage,
            cond_id,
            leaf,
            detail: detail.into(),
        };
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.incr();
        }
        events.push_back(event);
    }

    /// Copies all retained events in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Copies the retained events belonging to one conditional message, in
    /// recording order.
    pub fn events_for(&self, cond_id: u128) -> Vec<TraceEvent> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.cond_id == Some(cond_id))
            .cloned()
            .collect()
    }

    /// The stages of one conditional message's events, in order — the
    /// compact form lifecycle assertions use.
    pub fn stages_for(&self, cond_id: u128) -> Vec<TraceStage> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.cond_id == Some(cond_id))
            .map(|e| e.stage)
            .collect()
    }

    /// Discards all retained events (sequence numbers keep increasing).
    pub fn clear(&self) {
        self.events.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let log = TraceLog::with_capacity(16);
        log.record(Time(1), TraceStage::Send, Some(7), None, "");
        log.record(Time(2), TraceStage::FanOut, Some(7), Some(0), "Q.A");
        log.record(Time(3), TraceStage::Verdict, Some(7), None, "success");
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[2].seq, 2);
        assert_eq!(
            log.stages_for(7),
            vec![TraceStage::Send, TraceStage::FanOut, TraceStage::Verdict]
        );
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let log = TraceLog::with_capacity(3);
        for i in 0..5u64 {
            log.record(Time(i), TraceStage::Send, Some(u128::from(i)), None, "");
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let events = log.events();
        assert_eq!(events[0].cond_id, Some(2));
        assert_eq!(events[2].cond_id, Some(4));
        // Sequence numbers are global, not per-ring-slot.
        assert_eq!(events[2].seq, 4);
    }

    #[test]
    fn filters_by_cond_id() {
        let log = TraceLog::default();
        log.record(Time(0), TraceStage::Send, Some(1), None, "");
        log.record(Time(0), TraceStage::Send, Some(2), None, "");
        log.record(Time(1), TraceStage::Verdict, Some(1), None, "success");
        log.record(Time(1), TraceStage::SphereBegin, None, None, "");
        assert_eq!(log.events_for(1).len(), 2);
        assert_eq!(log.events_for(2).len(), 1);
        assert_eq!(log.events_for(9).len(), 0);
        assert_eq!(log.events().len(), 4);
    }

    #[test]
    fn clear_keeps_sequence_monotone() {
        let log = TraceLog::default();
        log.record(Time(0), TraceStage::Send, None, None, "");
        log.clear();
        log.record(Time(1), TraceStage::Send, None, None, "");
        let events = log.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 1);
    }

    #[test]
    fn display_renders_key_fields() {
        let log = TraceLog::default();
        log.record(Time(5), TraceStage::FanOut, Some(0xAB), Some(2), "Q.B");
        let line = log.events()[0].to_string();
        assert!(line.contains("fan-out"), "{line}");
        assert!(line.contains("t=5"), "{line}");
        assert!(line.contains("leaf=2"), "{line}");
        assert!(line.contains("Q.B"), "{line}");
    }

    #[test]
    fn concurrent_recording_is_lossless_up_to_capacity() {
        let log = std::sync::Arc::new(TraceLog::with_capacity(10_000));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        log.record(
                            Time(i),
                            TraceStage::Send,
                            Some(u128::from(t)),
                            None,
                            "",
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 2000);
        assert_eq!(log.dropped(), 0);
        for t in 0..4u128 {
            assert_eq!(log.events_for(t).len(), 500);
        }
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000);
    }

    #[test]
    fn stage_seen_survives_ring_eviction() {
        let log = TraceLog::with_capacity(2);
        assert!(!log.stage_seen(TraceStage::Verdict));
        log.record(Time(0), TraceStage::Verdict, None, None, "");
        // Flood the ring so the verdict event itself is evicted.
        for i in 0..10 {
            log.record(Time(i), TraceStage::Annihilated, None, None, "");
        }
        assert!(log.events().iter().all(|e| e.stage != TraceStage::Verdict));
        assert!(log.stage_seen(TraceStage::Verdict));
        assert!(log.stage_seen(TraceStage::Annihilated));
        assert!(!log.stage_seen(TraceStage::SphereCommit));
    }

    #[test]
    fn all_lists_every_stage_exactly_once() {
        let mut names: Vec<String> = TraceStage::ALL.iter().map(|s| s.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), TraceStage::ALL.len());
        // The seen-mask bit assignment is injective.
        let mut bits: Vec<u64> = TraceStage::ALL.iter().map(|s| stage_bit(*s)).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), TraceStage::ALL.len());
    }
}
