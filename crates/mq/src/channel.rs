//! Store-and-forward channels between queue managers.
//!
//! A [`Channel`] is the MQSeries-style message mover: a background thread
//! that transactionally takes envelopes off the sender's transmission
//! queue, pushes them across a [`Transport`], and lets go of them only once
//! the transport reports the batch accepted by the peer. Drops and
//! partitions roll the local transaction back, so the envelopes stay safely
//! on the transmission queue and delivery is retried — messages are never
//! lost in flight, which is the "guaranteed delivery to intermediary
//! destinations" baseline the paper builds on.
//!
//! The handoff is not a record. Once the peer has acknowledged a batch its
//! arrival record holds the envelopes and its journal-reseeded dedup window
//! drops a re-send, so the mover does not tell its own journal right away:
//! it *releases* the batch's session ([`Session::release`]). The gets stay
//! pending on the transmission queue and ride, as gets, the next `TxCommit`
//! the manager writes for any reason — on a sender the arrival of the
//! acknowledgment, on a receiver the next arrival. A crash before that
//! record re-sends the envelopes and the peer counts them in
//! `mq.relay.duplicates`. What a crash can re-send is bounded: at
//! [`MAX_RELEASED`] released envelopes the mover commits its session the
//! ordinary way (one record, carrying them all), a mover that finds its
//! queue idle writes them out once the oldest has waited
//! [`RELEASE_LINGER`], and a stopped channel or manager leaves none
//! behind. With a full window in flight that is at most [`MAX_RESEND`]
//! envelopes, which the peer's dedup window must exceed. A session that
//! staged a put (an oversized envelope on its way to the dead-letter
//! queue) is committed as before: a put is never lazy.
//!
//! There is one mover: [`Channel::connect_tcp`] runs it over a socket to
//! the peer's acceptor, and [`Channel::connect_transport`] over any
//! [`Transport`] (tests script the network with one). Envelopes are
//! drained in batches (up to [`MAX_BATCH`] per session transaction), which
//! amortizes both the transaction overhead and the per-frame round trip.
//!
//! The mover keeps a *window* of up to [`Transport::window`] batches in
//! flight instead of stopping for an acknowledgment after each one: every
//! submitted batch keeps its own open session, and sessions are released
//! in order as the receiver's cumulative ack watermark advances past their
//! tickets. The window is for *full* batches
//! ([`MAX_BATCH`] envelopes): a partial batch goes out only when nothing
//! is in flight, so under load the envelopes that arrive during one round
//! trip leave as one batch — the channel clocks itself on its acks
//! (Nagle's rule), and a batch costs each side one journal record
//! whatever its size. An idle channel still sends the first envelope at
//! once. A disconnect strands whatever the watermark had not covered;
//! those sessions are rolled back newest-first (so front-requeueing
//! preserves FIFO order) and the envelopes are retransmitted after
//! reconnect, with receiver-side dedup collapsing any batch the peer had
//! in fact already accepted — delivery stays exactly-once end to end. A
//! handoff the journal refuses keeps its session, at the front of the
//! window: the peer holds the batch, so nothing is sent again; the mover
//! waits out `PARTITION_BACKOFF` on the transport and tries the record
//! again, for as long as the journal fails.
//!
//! Batches are cut on *bytes* as well as count: the mover stops adding
//! envelopes once [`BATCH_BYTE_BUDGET`] wire bytes are staged, so a batch
//! can never grow past the transport frame cap
//! ([`crate::transport::frame::MAX_FRAME_BODY`]) and wedge
//! the channel in an encode-fail/retry loop. A single envelope whose wire
//! size alone exceeds [`MAX_ENVELOPE_WIRE`] can never cross any batch, so
//! it is moved to the local dead-letter queue (reason in
//! [`DLQ_REASON_PROPERTY`]) inside the same transaction instead of
//! blocking every envelope queued behind it.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::MqResult;
use crate::message::Message;
use crate::qmgr::{ManagedTask, QueueManager, DEAD_LETTER_QUEUE, DLQ_REASON_PROPERTY};
use crate::queue::{Queue, Wait};
use crate::session::Session;
use crate::stats::Counter;
use crate::transport::frame::{Frame, MAX_FRAME_BODY};
use crate::transport::tcp::{TcpConfig, TcpTransport};
use crate::transport::{BatchTicket, SubmitError, Transport};
use simtime::Millis;

/// Upper bound on one park awaiting an acknowledgment with batches in
/// flight: an ack, a teardown or a put to the transmission queue wakes the
/// mover sooner.
const ACK_PARK: Duration = Duration::from_millis(20);

/// Backoff while the transport is unavailable, parked in
/// [`Transport::wait_ready`] so a heal or reconnect cuts it short; and
/// after a handoff the journal refused, parked in
/// [`Transport::wait_progress`].
const PARTITION_BACKOFF: Duration = Duration::from_millis(10);

/// Maximum envelopes drained into one session transaction / one transport
/// batch.
pub const MAX_BATCH: usize = 64;

/// Byte budget for one batch: the mover stops draining once the staged
/// envelopes' combined wire size reaches this. Half the frame cap, so even
/// with the one-envelope overshoot (a cut happens *after* the envelope
/// that crosses the budget is staged) the encoded batch stays well below
/// [`MAX_FRAME_BODY`].
pub const BATCH_BYTE_BUDGET: usize = MAX_FRAME_BODY / 2;

/// Largest single envelope (wire size) a channel will carry. Anything
/// bigger could overflow a frame all by itself, so it is dead-lettered
/// locally rather than allowed to wedge the channel.
pub const MAX_ENVELOPE_WIRE: usize = MAX_FRAME_BODY / 4;

/// Most released envelopes a manager holds with no record of its own
/// covering their handoff: the mover whose release would reach it commits
/// instead, and that record carries them all.
pub const MAX_RELEASED: usize = 1024;

/// What a channel's transmission queue is named: this, then the peer's
/// name.
pub const XMIT_QUEUE_PREFIX: &str = "SYSTEM.XMIT.";

/// How long a released handoff waits for a record to ride before an idle
/// mover writes one for it, on the manager's clock. Long enough that a
/// manager with any traffic never pays for it.
pub const RELEASE_LINGER: Millis = Millis(1_000);

/// Most envelopes a crashed manager can re-send that its peer already
/// holds: a full TCP window in flight plus the released ones. A peer's
/// `dedup_window` must be larger.
pub const MAX_RESEND: usize = 2 * MAX_RELEASED;

/// Per-channel statistics.
#[derive(Debug, Default)]
pub struct ChannelStats {
    /// Envelopes delivered to the remote manager.
    pub delivered: Counter,
    /// Batches retried after the transport dropped them.
    pub retries: Counter,
    /// Envelopes exceeding [`MAX_ENVELOPE_WIRE`] moved to the local
    /// dead-letter queue instead of being sent.
    pub oversized_dead_lettered: Counter,
}

/// The stoppable half of a channel, shared between the [`Channel`] handle
/// and the owning manager's task registry so either can shut it down.
struct ChannelCore {
    stop: AtomicBool,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Taken and stopped first on shutdown, so a mover parked inside it
    /// wakes for the join.
    transport: Mutex<Option<Arc<dyn Transport>>>,
    /// The transmission queue, woken on shutdown for a mover parked on it.
    xmit: Arc<Queue>,
}

impl ManagedTask for ChannelCore {
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Stop the transport first: a mover blocked inside submit,
        // wait_progress or wait_ready is woken/errored out so the join
        // below is prompt.
        let transport = self.transport.lock().take();
        if let Some(transport) = transport {
            transport.shutdown();
        }
        self.xmit.wake();
        let handle = self.handle.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// A running unidirectional channel from one queue manager to another.
///
/// Construct with [`Channel::connect_tcp`] or
/// [`Channel::connect_transport`]; stop with [`Channel::stop`], the
/// sending manager's [`QueueManager::shutdown`], or drop.
pub struct Channel {
    name: String,
    core: Arc<ChannelCore>,
    stats: Arc<ChannelStats>,
    xmit_queue: String,
}

impl fmt::Debug for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("name", &self.name)
            .field("xmit_queue", &self.xmit_queue)
            .field("delivered", &self.stats.delivered.get())
            .finish()
    }
}

impl Channel {
    /// Connects `from` to the remote manager named `remote` through a TCP
    /// acceptor listening at `addr`. The handshake verifies the peer
    /// presents `remote` unless `config.expected_peer` overrides it.
    ///
    /// # Errors
    ///
    /// Transport setup failures and journal failures while creating the
    /// transmission queue.
    pub fn connect_tcp(
        from: &Arc<QueueManager>,
        remote: &str,
        addr: std::net::SocketAddr,
        mut config: TcpConfig,
    ) -> MqResult<Channel> {
        if config.expected_peer.is_none() {
            config.expected_peer = Some(remote.to_owned());
        }
        let transport = TcpTransport::connect(from.name(), addr, config, from.obs().metrics())?;
        Channel::connect_transport(from, remote, transport)
    }

    /// Connects `from` to the remote manager named `remote` over an
    /// arbitrary [`Transport`]. The channel registers itself with `from`,
    /// so [`QueueManager::shutdown`] stops it.
    ///
    /// # Errors
    ///
    /// Journal failures while creating the transmission queue.
    pub fn connect_transport(
        from: &Arc<QueueManager>,
        remote: &str,
        transport: Arc<dyn Transport>,
    ) -> MqResult<Channel> {
        let xmit_queue = format!("{XMIT_QUEUE_PREFIX}{remote}");
        from.define_route(remote, &xmit_queue)?;
        let xmit = from.queue(&xmit_queue)?;
        let stats = Arc::new(ChannelStats::default());
        let name = format!("{}->{}", from.name(), remote);
        let core = Arc::new(ChannelCore {
            stop: AtomicBool::new(false),
            handle: Mutex::new(None),
            transport: Mutex::new(Some(transport.clone())),
            xmit,
        });

        let thread_name = format!("mq-channel-{name}");
        let from2 = from.clone();
        let core2 = core.clone();
        let stats2 = stats.clone();
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || mover(&from2, &transport, &core2.stop, &stats2, &core2.xmit))
            .map_err(crate::error::MqError::Io)?;
        *core.handle.lock() = Some(handle);
        from.attach_task(core.clone());

        Ok(Channel {
            name,
            core,
            stats,
            xmit_queue,
        })
    }

    /// The channel's `from->to` name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local transmission queue the channel serves.
    pub fn xmit_queue(&self) -> &str {
        &self.xmit_queue
    }

    /// Channel statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Stops the mover thread (and its transport) and waits for it to
    /// exit. Idempotent, and shared with [`QueueManager::shutdown`].
    pub fn stop(&mut self) {
        self.core.shutdown();
    }
}

impl Drop for Channel {
    fn drop(&mut self) {
        self.core.shutdown();
    }
}

/// Envelopes drained from the transmission queue into one open session
/// transaction, ready to go out as one transport batch.
struct Staged {
    batch: Vec<Message>,
    /// Oversized envelopes diverted to the dead-letter queue inside the
    /// same transaction.
    oversized: u64,
}

/// A submitted batch whose session stays open until the receiver's ack
/// watermark covers its ticket.
struct Inflight {
    ticket: BatchTicket,
    session: Session,
    count: u64,
    oversized: u64,
}

/// Drains up to [`MAX_BATCH`] envelopes (or [`BATCH_BYTE_BUDGET`] wire
/// bytes, whichever is hit first) from the transmission queue into the
/// open `session`. Envelopes too large to ever fit a frame are diverted
/// to the dead-letter queue in the same transaction. Returns `None` when
/// the manager stopped mid-drain.
// lint: custody(envelope)
fn stage_batch(session: &mut Session, xmit_queue: &str) -> Option<Staged> {
    let mut batch = Vec::new();
    let mut batch_bytes = 0usize;
    let mut oversized = 0u64;
    loop {
        match session.get(xmit_queue, Wait::NoWait) {
            Ok(Some(mut envelope)) => {
                let wire = Frame::message_wire_len(&envelope);
                if wire > MAX_ENVELOPE_WIRE {
                    // This envelope can never cross the wire; divert it
                    // to the dead-letter queue inside the same
                    // transaction so the channel keeps moving.
                    envelope.set_property(
                        DLQ_REASON_PROPERTY,
                        &format!(
                            "oversized envelope: {wire} wire bytes exceeds \
                             channel cap {MAX_ENVELOPE_WIRE}"
                        ),
                    );
                    if session.put(DEAD_LETTER_QUEUE, envelope).is_err() {
                        return None; // manager stopped
                    }
                    oversized += 1;
                    continue;
                }
                batch.push(envelope);
                batch_bytes += wire;
                if batch.len() >= MAX_BATCH || batch_bytes >= BATCH_BYTE_BUDGET {
                    break;
                }
            }
            Ok(None) => break,
            Err(_) => return None, // manager stopped
        }
    }
    Some(Staged { batch, oversized })
}

/// Rolls back every in-flight session, newest first: each rollback
/// front-requeues its envelopes, so unwinding in reverse restores the
/// original FIFO order on the transmission queue. Redelivery counts are
/// not bumped — the loss was in transit, not a consumer backout.
fn rollback_window(window: &mut VecDeque<Inflight>, metrics: &MoverMetrics) {
    while let Some(mut inflight) = window.pop_back() {
        let _ = inflight.session.rollback_for_retry();
        metrics.window_rollbacks.incr();
        metrics.requeued.add(inflight.count);
    }
}

/// The mover's cells of the manager's `mq.transport.*` metrics.
struct MoverMetrics {
    /// In-flight batches rolled back.
    window_rollbacks: Arc<Counter>,
    /// Envelopes put back on the transmission queue after being staged
    /// for a submission: each may be framed once more when it goes again.
    requeued: Arc<Counter>,
}

/// Ends the session of a batch the peer holds: released, or committed when
/// it staged puts or the released list is full. Returns whether it ended;
/// when the journal refuses that record the session stays open, its gets
/// still taken, for the caller to try again or roll back.
fn hand_off(session: &mut Session) -> bool {
    session.release().is_ok() || !session.in_transaction()
}

/// The mover thread: keeps up to [`Transport::window`] batches in flight,
/// each holding its own open session, and releases sessions in submission
/// order as the receiver's cumulative ack watermark advances.
///
/// Invariants:
/// * At most one *partial* batch is in flight: with the window non-empty
///   only a full [`MAX_BATCH`] is submitted (counted in envelopes — a
///   backlog of envelopes so large that [`BATCH_BYTE_BUDGET`] cuts the
///   batch first goes one batch per round trip).
/// * Sessions end strictly in submission order — a later batch's ack
///   can never release past an earlier uncovered one, because the
///   watermark is cumulative.
/// * When the window's *front* batch is neither covered nor pending (its
///   connection epoch died), every in-flight session is rolled back
///   newest-first and the envelopes retransmit after reconnect; the
///   receiver's dedup window absorbs any batch that had actually landed.
/// * A covered batch whose handoff the journal refuses stays at the front,
///   its session open; nothing is submitted until it is handed off, tried
///   once per `PARTITION_BACKOFF`.
/// * On stop, covered batches are still released (their acks are final
///   even after disconnect) before the remainder rolls back, and what is
///   released is written out, so no acknowledged delivery is ever re-sent
///   after a clean stop.
fn mover(
    from: &Arc<QueueManager>,
    transport: &Arc<dyn Transport>,
    stop: &AtomicBool,
    stats: &ChannelStats,
    xmit: &Queue,
) {
    let xmit_queue = xmit.name();
    // Wake a mover parked in `wait_progress` (watching for acks) when new
    // envelopes land on the transmission queue, so a half-full window
    // tops up immediately instead of at the next park timeout. The weak
    // reference keeps the queue's watcher from pinning the transport.
    let weak = Arc::downgrade(transport);
    xmit.add_put_watcher(Arc::new(move || {
        if let Some(t) = weak.upgrade() {
            t.poke();
        }
    }));
    let metrics = MoverMetrics {
        window_rollbacks: from
            .obs()
            .metrics()
            .counter("mq.transport.window_rollbacks"),
        requeued: from.obs().metrics().counter("mq.transport.requeued"),
    };
    let mut window: VecDeque<Inflight> = VecDeque::new();
    // The journal refused a handoff: wait a backoff before the next try.
    let mut refused = false;

    loop {
        let stopping = stop.load(Ordering::SeqCst) || !from.is_running();
        let progress = transport.progress();
        // Hand off every leading in-flight batch the watermark covers.
        // Acks are final even across a disconnect, so this also runs on
        // the stop path: an acknowledged batch must never retransmit. One
        // the journal refuses stays at the front, to be tried again.
        while let Some(front) = window.front_mut().filter(|f| progress.covers(f.ticket)) {
            if !hand_off(&mut front.session) {
                refused = true;
                break;
            }
            stats.delivered.add(front.count);
            stats.oversized_dead_lettered.add(front.oversized);
            window.pop_front();
        }
        if stopping {
            rollback_window(&mut window, &metrics);
            // A crashed manager flushes nothing: its restart re-sends.
            from.flush_released("shutdown").unwrap_or(());
            return;
        }
        // Nothing is sent while the journal refuses what the peer holds.
        if std::mem::take(&mut refused) {
            let _ = transport.wait_progress(progress, PARTITION_BACKOFF);
            continue;
        }
        // The front batch is uncovered; if it is not pending either, its
        // connection died before the ack arrived. The peer may or may not
        // have accepted it, so re-queue the whole window and retransmit
        // after reconnect — receiver-side dedup keeps this exactly-once.
        if window
            .front()
            .is_some_and(|f| !progress.pending(f.ticket))
        {
            rollback_window(&mut window, &metrics);
            transport.wait_ready(PARTITION_BACKOFF);
            continue;
        }
        // Refill: stage and submit batches until the window is full or
        // the transmission queue holds less than a full batch.
        while progress.connected && window.len() < transport.window() {
            if window.is_empty() {
                // Nothing in flight: park on the queue's condvar until an
                // envelope lands, the channel stops or the oldest release
                // is due for its flush. A release recorded meanwhile, by
                // another channel or a session, ends the park: the manager
                // wakes its transmission queues for it, and the next one
                // is timed by its due time.
                let due = from.release_due(RELEASE_LINGER);
                let wait = due.map_or(Wait::Forever, |due| {
                    Wait::Timeout(due.since(from.clock().now()))
                });
                let stopped = || {
                    stop.load(Ordering::SeqCst) || from.release_due(RELEASE_LINGER) != due
                };
                match xmit.wait_nonempty(wait, stopped) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(_) => {
                        rollback_window(&mut window, &metrics);
                        return; // manager stopped
                    }
                }
            } else if xmit.depth() < MAX_BATCH {
                // Something is in flight and less than a full batch is
                // waiting: let it grow until the ack returns.
                break;
            }
            let mut session = from.session();
            if session.begin().is_err() {
                rollback_window(&mut window, &metrics);
                return;
            }
            let Some(Staged { batch, oversized }) = stage_batch(&mut session, xmit_queue) else {
                rollback_window(&mut window, &metrics);
                return; // manager stopped
            };
            if batch.is_empty() {
                if oversized > 0 {
                    // Only dead-letter diversions were staged; make the
                    // move durable without a wire round trip.
                    if hand_off(&mut session) {
                        stats.oversized_dead_lettered.add(oversized);
                    } else {
                        let _ = session.rollback_for_retry();
                        refused = true;
                    }
                } else {
                    // Raced with another consumer; re-park.
                    let _ = session.rollback_for_retry();
                }
                break;
            }
            // Onto the connection the window's batches are on: a batch that
            // overtook them would land before their resends.
            match transport.submit(&batch, window.front().map(|f| f.ticket.epoch)) {
                Ok(ticket) => {
                    window.push_back(Inflight {
                        ticket,
                        session,
                        count: batch.len() as u64,
                        oversized,
                    });
                }
                Err(SubmitError::Dropped) => {
                    // Lost in transit (or unframeable, which the byte
                    // budget prevents): keep the envelopes — the rollback
                    // re-queues them without bumping backout counts — and
                    // go again.
                    stats.retries.incr();
                    let _ = session.rollback_for_retry();
                    metrics.requeued.add(batch.len() as u64);
                    break;
                }
                Err(SubmitError::Unavailable) => {
                    // Disconnected (or stopping): the outer loop settles
                    // the in-flight window first, then backs off.
                    let _ = session.rollback_for_retry();
                    metrics.requeued.add(batch.len() as u64);
                    break;
                }
            }
        }
        // Park until something moves: an ack advancing the watermark, a
        // teardown, a poke from the put-watcher, or the timeout.
        if window.is_empty() {
            // Idle: nothing of this channel's will come along to carry
            // what it released. A refused flush is tried again after the
            // backoff.
            refused = from.flush_released_after(RELEASE_LINGER).is_err();
            if !progress.connected {
                transport.wait_ready(PARTITION_BACKOFF);
            }
            continue;
        }
        let _ = transport.wait_progress(progress, ACK_PARK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::wait_for;
    use crate::message::{Message, QueueAddress};
    use crate::qmgr::{XMIT_DEST_MANAGER_PROPERTY, XMIT_DEST_QUEUE_PROPERTY};
    use crate::transport::fault::{FaultAction, FaultPlane};
    use crate::transport::tcp::TcpAcceptor;
    use simtime::SystemClock;

    fn pair() -> (Arc<QueueManager>, Arc<QueueManager>) {
        let clock = SystemClock::new();
        let a = QueueManager::builder("QA")
            .clock(clock.clone())
            .build()
            .unwrap();
        let b = QueueManager::builder("QB").clock(clock).build().unwrap();
        (a, b)
    }

    /// `from -> to` over loopback TCP, with `to`'s acceptor as the fault
    /// point; `partitioned` partitions it before the channel first dials.
    fn connect(
        from: &Arc<QueueManager>,
        to: &Arc<QueueManager>,
        partitioned: bool,
    ) -> (Channel, Arc<TcpAcceptor>) {
        let acceptor = TcpAcceptor::bind(to, "127.0.0.1:0").unwrap();
        if partitioned {
            acceptor.apply_fault(FaultAction::Partition).unwrap();
        }
        let config = TcpConfig {
            backoff_max: Duration::from_millis(50),
            ..TcpConfig::default()
        };
        let channel = Channel::connect_tcp(from, to.name(), acceptor.local_addr(), config).unwrap();
        (channel, acceptor)
    }

    /// A channel on a simulated clock that nobody advances stops and joins
    /// at once: before its mover parks, while it is parked (for nothing,
    /// or for a release's linger, which that clock never reaches), and
    /// right after an arrival has ended the park.
    #[test]
    fn a_channel_on_an_unadvanced_sim_clock_stops_at_once() {
        for when in ["before", "idle", "linger", "after"] {
            let clock = simtime::SimClock::new();
            let a = QueueManager::builder("QA").clock(clock.clone()).build().unwrap();
            let b = QueueManager::builder("QB").clock(clock.clone()).build().unwrap();
            b.create_queue("IN").unwrap();
            let (mut channel, _acceptor) = connect(&a, &b, false);
            let xmit = a.queue("SYSTEM.XMIT.QB").unwrap();
            let send = || {
                let msg = Message::text("m").persistent(true).build();
                a.put_to(&QueueAddress::new("QB", "IN"), msg).unwrap();
            };
            match when {
                "idle" => wait_for("parked", || xmit.parked() == 1),
                "linger" => {
                    send();
                    wait_for("parked on the linger", || {
                        b.queue("IN").unwrap().depth() == 1
                            && xmit.parked() == 1
                            && clock.pending_timers() == 1
                    });
                }
                "after" => {
                    wait_for("parked", || xmit.parked() == 1);
                    send();
                }
                _ => {}
            }
            let stopper = std::thread::spawn(move || channel.stop());
            wait_for(&format!("stopped {when}"), || stopper.is_finished());
            stopper.join().unwrap();
        }
    }

    /// A release the idle mover did not make, a session's here, wakes it:
    /// it parks again until that release's linger is due and flushes it
    /// then, not at the next put to its transmission queue.
    #[test]
    fn an_idle_mover_flushes_a_release_it_did_not_make_after_the_linger() {
        let clock = simtime::SimClock::new();
        let a = QueueManager::builder("QA").clock(clock.clone()).build().unwrap();
        let b = QueueManager::builder("QB").clock(clock.clone()).build().unwrap();
        let (mut channel, _acceptor) = connect(&a, &b, false);
        let xmit = a.queue("SYSTEM.XMIT.QB").unwrap();
        a.create_queue("WORK").unwrap();
        a.put("WORK", Message::text("m").persistent(true).build()).unwrap();
        wait_for("parked for nothing", || xmit.parked() == 1);
        assert_eq!(clock.pending_timers(), 0);
        let mut session = a.session();
        session.begin().unwrap();
        session.get("WORK", Wait::NoWait).unwrap().unwrap();
        session.release().unwrap();
        wait_for("parked on the linger", || {
            xmit.parked() == 1 && clock.pending_timers() == 1
        });
        clock.advance(RELEASE_LINGER.saturating_sub(Millis(1)));
        assert_eq!(a.stats().release_flushes.get(), 0, "a ms short of the linger");
        clock.advance(Millis(1));
        wait_for("flushed", || a.stats().release_flushes.get() == 1);
        channel.stop();
    }

    #[test]
    fn messages_flow_over_loopback_tcp() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        let _channel = connect(&a, &b, false);
        for i in 0..20 {
            a.put_to(
                &QueueAddress::new("QB", "IN"),
                Message::text(format!("m{i}")).build(),
            )
            .unwrap();
        }
        wait_for("20 deliveries", || b.queue("IN").unwrap().depth() == 20);
        // Envelope properties are stripped on delivery.
        let got = b.get("IN", Wait::NoWait).unwrap().unwrap();
        assert!(got.property(XMIT_DEST_QUEUE_PROPERTY).is_none());
        assert!(got.property(XMIT_DEST_MANAGER_PROPERTY).is_none());
    }

    #[test]
    fn transport_stats_surface_in_sender_registry() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        let _channel = connect(&a, &b, false);
        a.put_to(&QueueAddress::new("QB", "IN"), Message::text("m").build())
            .unwrap();
        wait_for("delivery", || b.queue("IN").unwrap().depth() == 1);
        // The sender counts a batch once its write returns, which the
        // peer's delivery can overtake.
        wait_for("the send counted", || {
            let snap = a.obs().metrics().snapshot();
            snap.counter("mq.transport.batches_sent") >= 1
                && snap.counter("mq.transport.messages_sent") >= 1
        });
    }

    #[test]
    fn dropped_acks_still_deliver_everything_once() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        let (_channel, acceptor) = connect(&a, &b, false);
        acceptor.apply_fault(FaultAction::DropNext(3)).unwrap();
        for i in 0..30 {
            a.put_to(
                &QueueAddress::new("QB", "IN"),
                Message::text(format!("m{i}")).build(),
            )
            .unwrap();
        }
        // Each dropped ack sends its burst again, and the peer drops the
        // copies.
        wait_for("30 deliveries and the copies dropped", || {
            b.queue("IN").unwrap().depth() == 30 && b.relay_stats().duplicates.get() >= 3
        });
        wait_for("the sender drained", || {
            a.queue("SYSTEM.XMIT.QB").unwrap().depth() == 0
        });
        assert_eq!(b.queue("IN").unwrap().depth(), 30);
    }

    #[test]
    fn partition_pauses_then_heals() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        let (_channel, acceptor) = connect(&a, &b, true);
        a.put_to(&QueueAddress::new("QB", "IN"), Message::text("x").build())
            .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            b.queue("IN").unwrap().depth(),
            0,
            "partitioned: no delivery"
        );
        // The mover does not work against a transport it knows is down: no
        // session was opened, no batch sent, and the envelope never left
        // the transmission queue.
        assert_eq!(a.queue("SYSTEM.XMIT.QB").unwrap().depth(), 1);
        assert_eq!(
            a.stats().tx_committed.get() + a.stats().tx_rolled_back.get(),
            0,
            "no session while partitioned"
        );
        assert_eq!(a.metrics_snapshot().counter("mq.transport.batches_sent"), 0);
        acceptor.apply_fault(FaultAction::Heal).unwrap();
        wait_for("delivery after heal", || {
            b.queue("IN").unwrap().depth() == 1
        });
    }

    #[test]
    fn unknown_remote_queue_dead_letters() {
        let (a, b) = pair();
        let _channel = connect(&a, &b, false);
        a.put_to(
            &QueueAddress::new("QB", "NO.SUCH.Q"),
            Message::text("stray").build(),
        )
        .unwrap();
        wait_for("dead letter", || {
            b.queue(crate::qmgr::DEAD_LETTER_QUEUE).unwrap().depth() == 1
        });
    }

    #[test]
    fn duplex_channels_carry_request_reply() {
        let (a, b) = pair();
        b.create_queue("REQ").unwrap();
        a.create_queue("REP").unwrap();
        let (_c1, _c2) = (connect(&a, &b, false), connect(&b, &a, false));
        a.put_to(
            &QueueAddress::new("QB", "REQ"),
            Message::text("ping")
                .reply_to(QueueAddress::new("QA", "REP"))
                .build(),
        )
        .unwrap();
        wait_for("request", || b.queue("REQ").unwrap().depth() == 1);
        let req = b.get("REQ", Wait::NoWait).unwrap().unwrap();
        let reply_to = req.reply_to().unwrap().clone();
        b.put_to(&reply_to, Message::text("pong").build()).unwrap();
        wait_for("reply", || a.queue("REP").unwrap().depth() == 1);
        let rep = a.get("REP", Wait::NoWait).unwrap().unwrap();
        assert_eq!(rep.payload_str(), Some("pong"));
    }

    #[test]
    fn stop_is_idempotent_and_joins() {
        let (a, b) = pair();
        let (mut channel, _acceptor) = connect(&a, &b, false);
        channel.stop();
        channel.stop();
        assert_eq!(channel.xmit_queue(), "SYSTEM.XMIT.QB");
        assert_eq!(channel.name(), "QA->QB");
    }

    #[test]
    fn manager_shutdown_stops_channels_and_is_idempotent() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        let (channel, _acceptor) = connect(&a, &b, false);
        a.put_to(&QueueAddress::new("QB", "IN"), Message::text("m1").build())
            .unwrap();
        wait_for("pre-shutdown delivery", || {
            b.queue("IN").unwrap().depth() == 1
        });
        // The arrival is committed before its ack leaves the peer: stopping
        // now could roll m1 back onto the xmit queue. Wait until the mover
        // has handed it off (its session ends as a committed transaction).
        wait_for("m1 handed off", || a.stats().tx_committed.get() == 1);
        a.shutdown();
        a.shutdown(); // double shutdown: second call must be a no-op
        // The mover is gone: a new envelope stays on the xmit queue while
        // the manager itself keeps serving local traffic.
        a.put_to(&QueueAddress::new("QB", "IN"), Message::text("m2").build())
            .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(a.queue("SYSTEM.XMIT.QB").unwrap().depth(), 1);
        assert_eq!(b.queue("IN").unwrap().depth(), 1);
        // Dropping the (already stopped) channel handle is also fine.
        drop(channel);
    }

    #[test]
    fn batches_amortize_sessions_under_burst() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        // Park the mover behind a partition while the burst accumulates,
        // then heal: the backlog must cross in (few) batches.
        let (_channel, acceptor) = connect(&a, &b, true);
        for i in 0..200 {
            a.put_to(
                &QueueAddress::new("QB", "IN"),
                Message::text(format!("m{i}")).build(),
            )
            .unwrap();
        }
        acceptor.apply_fault(FaultAction::Heal).unwrap();
        wait_for("burst delivered", || b.queue("IN").unwrap().depth() == 200);
        let snap = a.obs().metrics().snapshot();
        let batches = snap.counter("mq.transport.batches_sent");
        assert!(
            batches < 200,
            "expected batched sends, got {batches} batches for 200 messages"
        );
    }

    #[test]
    fn persistent_messages_survive_sender_crash_mid_transit() {
        let clock = SystemClock::new();
        let journal = crate::journal::MemJournal::new();
        let a = QueueManager::builder("QA")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        let b = QueueManager::builder("QB")
            .clock(clock.clone())
            .build()
            .unwrap();
        b.create_queue("IN").unwrap();
        // Partitioned: the envelope stays on the xmit queue.
        let _channel = connect(&a, &b, true);
        a.put_to(
            &QueueAddress::new("QB", "IN"),
            Message::text("durable").persistent(true).build(),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        a.crash();
        // Restart the sender from its journal; the envelope must still be
        // on the transmission queue, and a new channel delivers it.
        let a2 = QueueManager::builder("QA")
            .clock(clock)
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(a2.queue("SYSTEM.XMIT.QB").unwrap().depth(), 1);
        a2.define_route("QB", "SYSTEM.XMIT.QB").unwrap();
        let _channel2 = connect(&a2, &b, false);
        wait_for("post-crash delivery", || {
            b.queue("IN").unwrap().depth() == 1
        });
    }

    #[test]
    fn oversized_envelope_is_dead_lettered_and_channel_keeps_moving() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        let _channel = connect(&a, &b, false);
        // One envelope that can never fit a frame, then a normal one
        // queued behind it: the big one must go to QA's dead-letter queue
        // and the small one must still be delivered.
        a.put_to(
            &QueueAddress::new("QB", "IN"),
            Message::text("x".repeat(MAX_ENVELOPE_WIRE + 1)).build(),
        )
        .unwrap();
        a.put_to(&QueueAddress::new("QB", "IN"), Message::text("small").build())
            .unwrap();
        wait_for("small envelope delivered past the oversized one", || {
            b.queue("IN").unwrap().depth() == 1
        });
        wait_for("oversized envelope dead-lettered", || {
            a.queue(crate::qmgr::DEAD_LETTER_QUEUE).unwrap().depth() == 1
        });
        let dead = a
            .get(crate::qmgr::DEAD_LETTER_QUEUE, Wait::NoWait)
            .unwrap()
            .unwrap();
        let reason = dead.str_property(DLQ_REASON_PROPERTY).unwrap();
        assert!(
            reason.contains("oversized envelope"),
            "reason names the cap: {reason}"
        );
        // The envelope keeps its addressing for post-mortem audit.
        assert_eq!(dead.str_property(XMIT_DEST_MANAGER_PROPERTY), Some("QB"));
        // Only the small envelope crossed; the oversized one never did.
        let got = b.get("IN", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("small"));
        assert_eq!(b.queue("IN").unwrap().depth(), 0);
    }

    #[test]
    fn byte_budget_cuts_batches_below_frame_cap() {
        let (a, b) = pair();
        b.create_queue("IN").unwrap();
        // Park the mover behind a partition, queue 6 × ~2.5 MiB (≈15 MiB
        // total — more than MAX_FRAME_BODY in one count-limited batch),
        // then heal. Without the byte budget the mover would stage all 6
        // in one batch and the frame encode would refuse it forever.
        let (channel, acceptor) = connect(&a, &b, true);
        let payload = "y".repeat(5 * MAX_FRAME_BODY / 32);
        for _ in 0..6 {
            a.put_to(
                &QueueAddress::new("QB", "IN"),
                Message::text(payload.clone()).build(),
            )
            .unwrap();
        }
        acceptor.apply_fault(FaultAction::Heal).unwrap();
        wait_for("all large envelopes delivered", || {
            b.queue("IN").unwrap().depth() == 6
        });
        let batches = a.obs().metrics().snapshot().counter("mq.transport.batches_sent");
        assert!(batches >= 2, "byte budget splits the backlog: {batches} batches");
        assert_eq!(channel.stats().oversized_dead_lettered.get(), 0);
        assert_eq!(channel.stats().retries.get(), 0, "no batch was unframeable");
    }
}
