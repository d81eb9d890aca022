//! `mq` — a from-scratch reliable message-queuing substrate.
//!
//! This crate reimplements the slice of MQSeries/JMS semantics that the
//! conditional-messaging middleware of Tai et al. (ICDCS 2002) is layered
//! on:
//!
//! * **Queue managers** ([`QueueManager`]) owning named, priority-ordered
//!   [`Queue`]s with expiry, browsing and correlation-id point reads.
//! * **Reliability** via a write-ahead [journal]: persistent messages,
//!   non-transactional gets and committed transactions are journaled and
//!   replayed on restart; [`QueueManager::crash`] + rebuild is the
//!   crash-recovery harness.
//! * **Messaging transactions** ([`Session`]): staged puts, provisional
//!   gets, rollback-redelivery with backout counting and a dead-letter
//!   queue — the semantics behind the paper's "acknowledgment of a
//!   successful transactional read".
//! * **Store-and-forward [channel]s** moving messages between managers
//!   through a [transport]: TCP sockets ([`transport::tcp`]) with CRC-framed batches,
//!   heartbeats, reconnect and receiver-side dedup.
//! * A pluggable [clock](simtime) so every timeout is deterministic under
//!   test.
//!
//! # Quick start
//!
//! ```
//! use mq::{Message, QueueManager, Wait};
//!
//! let qm = QueueManager::builder("QM1").build()?;
//! qm.create_queue("ORDERS")?;
//! qm.put("ORDERS", Message::text("order #1").persistent(true).build())?;
//! let order = qm.get("ORDERS", Wait::NoWait)?.expect("delivered");
//! assert_eq!(order.payload_str(), Some("order #1"));
//! # Ok::<(), mq::MqError>(())
//! ```

// `deny` rather than `forbid`: the transport reactor's epoll bindings
// (`transport::reactor::sys`) carry the crate's only `allow(unsafe_code)`,
// three thin syscall wrappers with safe signatures.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod codec;
mod error;
pub mod journal;
pub mod listener;
mod message;
pub mod obs;
mod qmgr;
mod queue;
pub mod relay;
mod session;
pub mod stats;
mod store;
pub mod topic;
pub mod trace;
pub mod transport;

pub use error::{MqError, MqResult};
pub use obs::{ChangeSignal, Obs};
pub use message::{
    CorrelationKey, IdHasher, IdMap, Message, MessageBuilder, MessageId, Priority, PropertyValue,
    QueueAddress,
};
pub use qmgr::{
    ManagedTask, ManagerConfig, QueueManager, QueueManagerBuilder, DEAD_LETTER_QUEUE,
    DLQ_REASON_PROPERTY, XMIT_DEST_MANAGER_PROPERTY, XMIT_DEST_QUEUE_PROPERTY,
};
pub use queue::{Fate, PickUp, PutWatcher, Queue, QueueConfig, Taken, Wait};
pub use relay::{
    BatchAccepted, DEFAULT_DEDUP_WINDOW, DEFAULT_MAX_RELAY_HOPS, RELAY_HOPS_PROPERTY,
    RELAY_ORIGIN_PROPERTY,
};
pub use session::Session;
pub use stats::{
    Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    RelayStats,
};
pub use trace::{TraceEvent, TraceLog, TraceStage};
pub use transport::fault::{FaultAction, FaultPlane};
pub use transport::{
    BatchTicket, PipelineProgress, SubmitError, Transport, TransportMetrics, Waker,
};

// Re-export the clock abstraction so downstream crates need only `mq`.
pub use simtime::{
    Clock, DeadlineScheduler, Millis, SharedClock, SimClock, SystemClock, Time, TimerCallback,
    TimerId,
};

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    /// Spins until `done` holds, for at most 10 s of real time: how a test
    /// waits for a state no event reports to it.
    pub(crate) fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}
