//! Channel transports: how a batch of envelopes reaches the peer manager.
//!
//! The paper's reliable-messaging substrate (Fig. 4/5) assumes queue
//! managers on different machines; this module abstracts the wire between
//! them. A [`Transport`] pushes a *batch* of transmission-queue envelopes
//! to the remote manager's receiving side and reports one of three fates
//! ([`BatchOutcome`]): delivered-and-acked, dropped (retry now), or
//! unavailable (back off until [`Transport::wait_ready`] fires).
//!
//! Two implementations exist:
//!
//! * [`LinkTransport`] — the original in-process path over the simulated
//!   [`Link`], kept for deterministic tests and fault-model experiments.
//! * [`tcp::TcpTransport`] / [`tcp::TcpAcceptor`] — real sockets with
//!   CRC-framed batches, heartbeats, reconnect, and receiver-side dedup.
//!
//! Both paths converge on [`QueueManager::accept_batch`] — the relay
//! seam — and hand it exactly what they acknowledge as a unit: the link
//! its batch, the TCP acceptor every `Batch` frame of the readable burst
//! its coalesced `AckWin` is about to cover. The commit unit of a channel
//! is its ack unit: one messaging transaction, one journal record, and a
//! message that crossed a real socket is deduplicated, relayed or
//! delivered, journaled, traced, and counted exactly like one that
//! crossed the simulated link.
//!
//! The channel mover ([`crate::channel`]) is transport-agnostic: it drains
//! the transmission queue in batches under one session transaction, calls
//! [`Transport::send_batch`], and commits only on
//! [`BatchOutcome::Delivered`] — the at-least-once half of the delivery
//! guarantee. The receiving manager's origin+message-id dedup
//! ([`crate::relay`]) supplies the at-most-once half across connection
//! failures, restarts, and multi-hop relays.

pub mod fault;
pub mod frame;
pub mod reactor;
pub mod tcp;

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use simtime::{Millis, SharedClock};

use crate::message::Message;
use crate::net::{Link, Transfer};
use crate::qmgr::QueueManager;
use crate::stats::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::MqError;

/// Outcome of pushing one batch to the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The peer accepted (and acknowledged) the whole batch; the sender
    /// may commit the destructive gets from its transmission queue.
    Delivered,
    /// The batch was lost in transit (loss model, torn connection before
    /// the ack); the sender should roll back and retry promptly.
    Dropped,
    /// The transport has no usable connection; the sender should roll
    /// back and park in [`Transport::wait_ready`].
    Unavailable,
}

/// A one-way conduit from a local channel to a remote queue manager.
///
/// Implementations must be safe to share across threads; the channel mover
/// calls [`Transport::send_batch`] from its own thread while supervisors or
/// tests may concurrently tear connections down.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Human-readable peer identity (manager name or socket address),
    /// used in logs and errors.
    fn peer(&self) -> String;

    /// Attempts to push `batch` to the peer and waits for the ack.
    fn send_batch(&self, batch: &[Message]) -> BatchOutcome;

    /// Parks the caller until the transport believes it can deliver again
    /// or `timeout` elapses; returns whether it is ready. Used by the
    /// mover to back off from partitions without sleep-polling.
    fn wait_ready(&self, timeout: Duration) -> bool;

    /// Stops any background machinery (supervisor threads, sockets) and
    /// joins it. Must be idempotent; the default is a no-op for
    /// transports without background state.
    fn shutdown(&self) {}

    /// The pipelined interface, when this transport supports keeping a
    /// window of batches in flight ([`PipelinedTransport`]). Transports
    /// that only speak lockstep (`send_batch`) return `None` and the
    /// channel mover falls back to one-batch-at-a-time.
    fn pipeline(&self) -> Option<&dyn PipelinedTransport> {
        None
    }
}

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

/// A snapshot of pipelined delivery progress.
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

/// Why a pipelined submit did not produce a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No established connection; park in [`Transport::wait_ready`].
    Unavailable,
    /// The batch can never cross this transport (oversized frame); the
    /// caller must shrink or dead-letter it, not retry verbatim.
    Rejected,
}

/// Windowed, ack-decoupled batch submission over a transport.
///
/// `submit` writes a batch and returns immediately with a
/// [`BatchTicket`]; cumulative watermark acks (`AckWin` frames) advance
/// [`PipelinedTransport::progress`], and the channel mover commits each
/// in-flight session once its ticket is covered. Backpressure is
/// physical: when the socket refuses bytes, `submit` parks until the
/// reactor reports the socket writable again.
pub trait PipelinedTransport: Send + Sync {
    /// Writes `batch` to the wire without waiting for its ack.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Unavailable`] with nothing written when no
    /// connection is established (or it died mid-write);
    /// [`SubmitError::Rejected`] when the batch cannot be framed.
    fn submit(&self, batch: &[Message]) -> Result<BatchTicket, SubmitError>;

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
    fn window(&self) -> usize {
        16
    }
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
    /// Messages discarded by receiver-side dedup (resends of already
    /// delivered ids after a mid-batch connection loss).
    pub dedup_dropped: Arc<Counter>,
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
            dedup_dropped: registry.counter("mq.transport.dedup_dropped"),
            batch_micros: registry.histogram("mq.transport.batch_micros"),
            acks_received: registry.counter("mq.transport.acks_received"),
            send_stalls: registry.counter("mq.transport.send_stalls"),
            window_depth: registry.gauge("mq.transport.window_depth"),
            window_rollbacks: registry.counter("mq.transport.window_rollbacks"),
        }
    }
}

/// The in-process transport: crosses a simulated [`Link`] and delivers
/// straight into the remote manager, exactly as channels always have.
///
/// One [`Link::transfer`] fate is sampled per *batch*, so the loss model's
/// drop rate applies to batches rather than individual messages; since a
/// dropped batch is retried in full, the end-to-end guarantee (and every
/// existing link-fault test) is unchanged.
pub struct LinkTransport {
    link: Arc<Link>,
    to: Arc<QueueManager>,
    clock: SharedClock,
    metrics: TransportMetrics,
}

impl fmt::Debug for LinkTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkTransport")
            .field("to", &self.to.name())
            .field("link", &self.link)
            .finish()
    }
}

impl LinkTransport {
    /// Builds the in-process transport from `from`'s side of `link`
    /// toward the manager `to`. Registers the link's counters as
    /// `mq.net.*` and the transport cells as `mq.transport.*` on `from`'s
    /// observability hub.
    pub fn new(
        from: &Arc<QueueManager>,
        to: Arc<QueueManager>,
        link: Arc<Link>,
    ) -> Arc<LinkTransport> {
        let registry = from.obs().metrics();
        link.register_metrics(registry);
        Arc::new(LinkTransport {
            link,
            clock: from.clock().clone(),
            metrics: TransportMetrics::registered(registry),
            to,
        })
    }

    /// The underlying simulated link.
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }
}

impl Transport for LinkTransport {
    fn peer(&self) -> String {
        self.to.name().to_owned()
    }

    fn send_batch(&self, batch: &[Message]) -> BatchOutcome {
        let started = std::time::Instant::now();
        match self.link.transfer() {
            Transfer::Deliver(latency) => {
                if latency > Millis::ZERO {
                    self.clock.sleep(latency);
                }
                let bytes: u64 = batch.iter().map(|m| m.payload().len() as u64).sum();
                // The remote manager refused the batch (stopped, a full
                // queue, a failing journal): treat like a partition so the
                // sender backs off and resends the whole batch.
                let Ok(arrival) = self.to.accept_batch(batch.to_vec()) else {
                    return BatchOutcome::Unavailable;
                };
                self.metrics.dedup_dropped.add(arrival.duplicates as u64);
                self.metrics.batches_sent.incr();
                self.metrics.batches_received.incr();
                self.metrics.messages_sent.add(batch.len() as u64);
                self.metrics.messages_received.add(arrival.accepted as u64);
                self.metrics.bytes_sent.add(bytes);
                self.metrics.bytes_received.add(bytes);
                self.metrics.batch_micros.record_duration(started.elapsed());
                BatchOutcome::Delivered
            }
            Transfer::Dropped => BatchOutcome::Dropped,
            Transfer::Down => BatchOutcome::Unavailable,
        }
    }

    fn wait_ready(&self, timeout: Duration) -> bool {
        if self.link.is_up() {
            return true;
        }
        self.link.wait_state_change(timeout);
        self.link.is_up()
    }
}

/// Convenience conversion used by error paths in the TCP module.
pub(crate) fn transport_error(peer: impl Into<String>, reason: impl Into<String>) -> MqError {
    MqError::Transport {
        peer: peer.into(),
        reason: reason.into(),
    }
}
