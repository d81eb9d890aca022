//! Channel transports: how a batch of envelopes reaches the peer manager.
//!
//! The paper's reliable-messaging substrate (Fig. 4/5) assumes queue
//! managers on different machines joined by channels; this module is the
//! wire between them. A [`Transport`] takes a *batch* of
//! transmission-queue envelopes with [`Transport::submit`], which returns
//! a [`BatchTicket`] without waiting for the peer, and reports what the
//! peer has accepted as a cumulative watermark ([`Transport::progress`]):
//! a ticket the watermark covers was accepted for good, a ticket that is
//! neither covered nor pending died with its connection and is sent
//! again. A submit that produced no ticket put nothing on the wire
//! ([`SubmitError`]): the attempt went nowhere (go again) or there is no
//! usable connection (park in [`Transport::wait_ready`]).
//!
//! There is one wire, [`tcp::TcpTransport`] / [`tcp::TcpAcceptor`]: real
//! sockets with CRC-framed batches, heartbeats, reconnect, and
//! receiver-side dedup; up to [`Transport::window`] batches are in flight
//! between acks. The trait stays a trait so tests can script the network
//! under the real mover. The acceptor hands
//! [`QueueManager::accept_batch`](crate::QueueManager::accept_batch) — the
//! relay seam — exactly what it acknowledges as a unit: every `Batch` frame
//! of a readable burst its coalesced `AckWin` is about to cover. The commit
//! unit of a channel is its ack unit: one messaging transaction, one
//! journal record. Faults (partition, dropped acks, kicked connections)
//! are scripted on the acceptor through [`fault::FaultPlane`].
//!
//! The one channel mover ([`crate::channel`]) drives the transport: it
//! drains the transmission queue in batches, each under its own session
//! transaction, submits them, and ends a session only once the watermark
//! covers its ticket — the at-least-once half of the delivery guarantee.
//! The receiving manager's origin+message-id dedup ([`crate::relay`])
//! supplies the at-most-once half across connection failures, restarts,
//! and multi-hop relays.

pub mod fault;
pub mod frame;
pub mod reactor;
pub mod tcp;

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::message::Message;
use crate::stats::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::MqError;

/// A ticket for one submitted batch: which connection incarnation carried
/// it and its sequence number within that incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchTicket {
    /// Connection epoch the batch was written under; bumps on every
    /// (re)connect, so a ticket from a dead connection can never be
    /// confirmed by a later one's watermark.
    pub epoch: u64,
    /// Batch sequence number (monotonic across the transport's life).
    pub seq: u64,
}

/// A snapshot of delivery progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineProgress {
    /// Current connection epoch.
    pub epoch: u64,
    /// Highest cumulative ack watermark observed for `epoch`.
    pub acked: u64,
    /// Whether the connection behind `epoch` is still established. When
    /// `false`, in-flight tickets at `epoch` beyond `acked` are lost
    /// (their fate unknown — the mover rolls back and the receiver-side
    /// dedup absorbs the retransmits).
    pub connected: bool,
}

impl PipelineProgress {
    /// Whether the batch behind `ticket` is covered by this progress:
    /// same epoch and at-or-below the acked watermark. A covered batch
    /// was accepted by the peer and its sessions may commit — an observed
    /// watermark is final even if the connection died afterwards.
    pub fn covers(&self, ticket: BatchTicket) -> bool {
        self.epoch == ticket.epoch && self.acked >= ticket.seq
    }

    /// Whether the batch behind `ticket` can still be confirmed later:
    /// its epoch is current and the connection is alive (the watermark
    /// may yet advance over it).
    pub fn pending(&self, ticket: BatchTicket) -> bool {
        self.epoch == ticket.epoch && self.connected && self.acked < ticket.seq
    }
}

/// Why a submit did not produce a ticket. Either way nothing of the batch
/// is in flight and the caller keeps the envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No usable connection (down, disconnected, peer refusing, or not the
    /// epoch asked for); park in [`Transport::wait_ready`].
    Unavailable,
    /// This attempt went nowhere — a batch that could not be framed (the
    /// mover's byte budget keeps that from happening); count a retry and
    /// go again.
    Dropped,
}

/// A one-way conduit from a local channel to a remote queue manager:
/// windowed, ack-decoupled batch submission.
///
/// `submit` hands a batch to the wire and returns a [`BatchTicket`];
/// cumulative acknowledgments advance [`Transport::progress`], and the
/// channel mover commits each in-flight session once its ticket is
/// covered. Backpressure is physical: when a socket refuses bytes,
/// `submit` parks until it is writable again.
///
/// Implementations must be safe to share across threads; the channel
/// mover calls from its own thread while supervisors or tests may
/// concurrently tear connections down.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Human-readable peer identity (manager name or socket address),
    /// used in logs and errors.
    fn peer(&self) -> String;

    /// Hands `batch` to the wire without waiting for its ack. With
    /// `epoch` set — the connection epoch of the batches already in flight
    /// — the batch goes out on that connection only: were it sent on a
    /// newer one, it would land ahead of the earlier batches, which died
    /// with theirs and are sent again behind it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Unavailable`] when no connection is established (or
    /// it died mid-write, or it is not `epoch`'s); [`SubmitError::Dropped`]
    /// when this attempt could not be framed. Nothing is in flight after
    /// either.
    fn submit(&self, batch: &[Message], epoch: Option<u64>) -> Result<BatchTicket, SubmitError>;

    /// Current delivery progress (epoch, watermark, liveness).
    fn progress(&self) -> PipelineProgress;

    /// Parks until progress moves past `seen` (watermark advance, epoch
    /// change, connection loss) or `timeout` elapses, returning the
    /// progress at wake. Spurious wakeups are allowed.
    fn wait_progress(&self, seen: PipelineProgress, timeout: Duration) -> PipelineProgress;

    /// Wakes any `wait_progress` parkers (used by queue put-watchers so
    /// the mover notices new work while it waits on acks).
    fn poke(&self);

    /// How many (full) batches the mover may keep in flight.
    fn window(&self) -> usize;

    /// Parks the caller until the transport believes it can deliver again
    /// or `timeout` elapses; returns whether it is ready. Used by the
    /// mover to back off from partitions without sleep-polling.
    fn wait_ready(&self, timeout: Duration) -> bool;

    /// Stops any background machinery (supervisor threads, sockets) and
    /// joins it. Must be idempotent; the default is a no-op for
    /// transports without background state.
    fn shutdown(&self) {}
}

/// Metric cells for one transport endpoint, registered as `mq.transport.*`.
///
/// Built with [`TransportMetrics::registered`], which follows the
/// registry's get-or-create semantics: every transport sharing one
/// observability hub accumulates into the same cells.
#[derive(Debug, Clone)]
pub struct TransportMetrics {
    /// Payload bytes written to the wire (frame bodies, sender side).
    pub bytes_sent: Arc<Counter>,
    /// Payload bytes accepted off the wire (receiver side).
    pub bytes_received: Arc<Counter>,
    /// Batches pushed and acknowledged.
    pub batches_sent: Arc<Counter>,
    /// Batches accepted by the receiving side.
    pub batches_received: Arc<Counter>,
    /// Messages pushed inside acknowledged batches.
    pub messages_sent: Arc<Counter>,
    /// Messages enqueued by the receiving side (dedup survivors).
    pub messages_received: Arc<Counter>,
    /// Successful connection establishments (first and subsequent).
    pub connects: Arc<Counter>,
    /// Re-establishments after a previously healthy connection died.
    pub reconnects: Arc<Counter>,
    /// Handshakes that failed (bad magic/version/peer or early close).
    pub handshake_failures: Arc<Counter>,
    /// Heartbeat round-trips completed.
    pub heartbeats: Arc<Counter>,
    /// Heartbeats that got no pong; each one tears the connection down.
    pub heartbeat_misses: Arc<Counter>,
    /// Per-batch send→ack latency in microseconds.
    pub batch_micros: Arc<Histogram>,
    /// Cumulative ack frames consumed (each may cover many batches).
    pub acks_received: Arc<Counter>,
    /// Times a sender parked on a full socket (backpressure events).
    pub send_stalls: Arc<Counter>,
    /// Batches currently in flight (submitted, not yet acked) — the
    /// visible middle of the backpressure chain.
    pub window_depth: Arc<Gauge>,
    /// In-flight batches rolled back because their connection died before
    /// the watermark covered them (each is retransmitted and deduped).
    pub window_rollbacks: Arc<Counter>,
    /// Envelopes the mover put back on the transmission queue after
    /// staging them for a submission (a rolled-back window, a failed
    /// submit): each goes out again, in a frame assembled anew.
    pub requeued: Arc<Counter>,
    /// Message images assembled into batch frames, counted into the
    /// manager's `mq.codec.encodes` cell.
    pub encodes: Arc<Counter>,
}

impl TransportMetrics {
    /// Gets-or-creates the `mq.transport.*` cells in `registry`.
    pub fn registered(registry: &MetricsRegistry) -> TransportMetrics {
        TransportMetrics {
            bytes_sent: registry.counter("mq.transport.bytes_sent"),
            bytes_received: registry.counter("mq.transport.bytes_received"),
            batches_sent: registry.counter("mq.transport.batches_sent"),
            batches_received: registry.counter("mq.transport.batches_received"),
            messages_sent: registry.counter("mq.transport.messages_sent"),
            messages_received: registry.counter("mq.transport.messages_received"),
            connects: registry.counter("mq.transport.connects"),
            reconnects: registry.counter("mq.transport.reconnects"),
            handshake_failures: registry.counter("mq.transport.handshake_failures"),
            heartbeats: registry.counter("mq.transport.heartbeats"),
            heartbeat_misses: registry.counter("mq.transport.heartbeat_misses"),
            batch_micros: registry.histogram("mq.transport.batch_micros"),
            acks_received: registry.counter("mq.transport.acks_received"),
            send_stalls: registry.counter("mq.transport.send_stalls"),
            window_depth: registry.gauge("mq.transport.window_depth"),
            window_rollbacks: registry.counter("mq.transport.window_rollbacks"),
            requeued: registry.counter("mq.transport.requeued"),
            encodes: registry.counter("mq.codec.encodes"),
        }
    }

}

/// Convenience conversion used by error paths in the TCP module.
pub(crate) fn transport_error(peer: impl Into<String>, reason: impl Into<String>) -> MqError {
    MqError::Transport {
        peer: peer.into(),
        reason: reason.into(),
    }
}
