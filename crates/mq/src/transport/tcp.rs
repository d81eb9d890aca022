//! Real sockets: a TCP [`Transport`] for channel traffic.
//!
//! Two halves cooperate, both multiplexed on the process-wide
//! [`crate::transport::reactor::Reactor`] rather than parking a
//! thread per connection. Every connection of one queue manager — inbound
//! lines and the ack readers of its outbound channels — registers under
//! the manager's name and so shares one reactor thread: the arrivals of a
//! manager are serial, and what shares a thread with what does not vary
//! from run to run.
//!
//! * [`TcpTransport`] — the sending side. A connection supervisor thread
//!   owns the lifecycle: it dials the peer (with a connect timeout),
//!   performs the blocking `Hello`/`HelloAck` handshake (verifying magic,
//!   version and — when configured — the peer's queue-manager name), then
//!   flips the socket non-blocking and hands the read half to the
//!   reactor. From there the data plane is *pipelined*: `submit` writes a
//!   `Batch` frame (each message's image assembled from its bytes straight
//!   into the frame, one `mq.codec.encodes` per image) and returns a
//!   [`BatchTicket`] without waiting;
//!   cumulative `AckWin` watermarks consumed on the reactor advance
//!   [`Transport::progress`], confirming every batch at or below
//!   the watermark at once, and wake the channel mover (the
//!   [`crate::transport::Waker`] it installed) once the state lock is
//!   released; so do a connect and a teardown. A full socket parks
//!   `submit` until the reactor reports it writable again — that is the
//!   first link of the backpressure chain (socket → mover window →
//!   transmission queue).
//!   Heartbeat pings are only sent when no frames have arrived since the
//!   last interval: under load the ack stream itself proves liveness.
//!
//! * [`TcpAcceptor`] — the receiving side, one per listening queue
//!   manager. A (blocking) accept thread registers each connection with
//!   the reactor; the per-connection handler parses frames incrementally
//!   and stages the envelopes of every `Batch` frame of a readable burst.
//!   Once the socket runs dry the whole burst goes to
//!   [`QueueManager::accept_batch`] — the relay seam every transport
//!   converges on — as one messaging transaction and one journal record,
//!   and *one* coalesced `AckWin` carrying the highest batch sequence of
//!   the burst (plus its accepted/deduplicated counts) answers it instead
//!   of one ack per batch: what is acknowledged as a unit is committed as
//!   a unit. A burst is at most the sender's window of unacked batches.
//!
//! ## Delivery guarantee
//!
//! The sender commits a transmission-queue session only once the ack
//! watermark covers its ticket, so a connection lost mid-window leaves
//! the messages in the transmission queue and they are resent after
//! reconnect — at-least-once. The receiving manager's [`crate::relay`]
//! deduper remembers recently accepted *(origin manager, message id)*
//! keys and silently drops resends of messages that made it in before the
//! connection died — at-most-once across connection failures, and
//! (because the window is reseeded from the journal on recovery) across
//! receiver restarts too. Connection epochs make the watermark safe: a
//! ticket issued under one connection can never be confirmed by a later
//! connection's acks.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::BytesList;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::qmgr::QueueManager;
use crate::stats::MetricsRegistry;
use crate::transport::frame::{Frame, FrameEvent, FrameKind, FrameReader};
use crate::transport::reactor::{Pollable, Reactor, Registration};
use crate::transport::{
    transport_error, BatchTicket, PipelineProgress, SubmitError, Transport, TransportMetrics,
    Waker,
};
use crate::MqResult;

/// Tuning for the sending side of a TCP channel.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Dial timeout for one connection attempt.
    pub connect_timeout: Duration,
    /// The longest a sender waits for ack progress, a pong, or the
    /// handshake reply before declaring the connection dead.
    pub read_timeout: Duration,
    /// Interval between heartbeat pings on an idle-healthy connection.
    pub heartbeat_interval: Duration,
    /// First reconnect backoff; doubles per failure up to `backoff_max`.
    pub backoff_initial: Duration,
    /// Ceiling for the reconnect backoff.
    pub backoff_max: Duration,
    /// Peer queue-manager name the handshake must present; `None` skips
    /// the check (used by tests and generic tooling).
    pub expected_peer: Option<String>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(1000),
            read_timeout: Duration::from_millis(2000),
            heartbeat_interval: Duration::from_millis(500),
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(2000),
            expected_peer: None,
        }
    }
}

/// Batches the sender keeps in flight (submitted, unacked) per
/// connection. Sized so a loopback pipe stays full without letting an
/// unacked window grow past what a reconnect cheaply retransmits. The
/// mover fills it with full batches only (see [`crate::channel`]).
const SEND_WINDOW: usize = 16;

// What a crashed sender re-sends (this window plus its released handoffs)
// must fit the bound a peer's dedup window is sized against.
const _: () = assert!(
    SEND_WINDOW * crate::channel::MAX_BATCH + crate::channel::MAX_RELEASED
        <= crate::channel::MAX_RESEND
);

/// Outcome of one attempt to push the connection's outbox onto the wire.
enum FlushOutcome {
    /// Everything written.
    Clean,
    /// The socket is full; a writable notification has been armed.
    Blocked,
    /// The connection is unusable (write error / peer gone).
    Dead,
}

/// Writes as much of `outbox` as the socket accepts, using vectored
/// writes over the un-copied frame segments. On `WouldBlock` the caller's
/// registration (if any) is armed for a writable wake-up.
fn flush_outbox(
    stream: &mut TcpStream,
    outbox: &mut BytesList,
    registration: Option<&Registration>,
) -> FlushOutcome {
    while !outbox.is_empty() {
        let wrote = {
            let slices = outbox.io_slices();
            stream.write_vectored(&slices)
        };
        match wrote {
            Ok(0) => return FlushOutcome::Dead,
            Ok(n) => outbox.advance(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(reg) = registration {
                    reg.want_write();
                }
                return FlushOutcome::Blocked;
            }
            Err(_) => return FlushOutcome::Dead,
        }
    }
    FlushOutcome::Clean
}

// ---------------------------------------------------------------- sender --

/// Connection state shared between the mover, the supervisor, the
/// reactor-side ack reader, and shutdown; one mutex serializes them all.
struct ConnState {
    /// The non-blocking, handshaken socket (write half; the ack reader
    /// owns its own clone).
    stream: Option<TcpStream>,
    /// Reactor registration of the current connection's read half.
    registration: Option<Registration>,
    /// Bumped on every successful (re)connect; tickets carry it so a
    /// stale connection's acks can never confirm a newer batch.
    epoch: u64,
    /// Last batch/ping sequence assigned (monotonic for the transport's
    /// whole life, surviving reconnects).
    next_seq: u64,
    /// Highest cumulative ack watermark observed for `epoch`.
    acked: u64,
    /// Bytes staged but not yet accepted by the socket (tail of a frame
    /// that hit `WouldBlock`); drained in order before anything else.
    outbox: BytesList,
    /// Submit timestamps of unacked batches, for `batch_micros`.
    inflight_at: VecDeque<(u64, std::time::Instant)>,
    /// Bumped by every inbound frame; the heartbeat tick skips pinging
    /// when it moved (ack traffic already proves the peer alive).
    activity: u64,
    /// `activity` as of the last heartbeat tick.
    activity_checked: u64,
    /// A ping was sent and its pong (or any other frame) is still due.
    ping_outstanding: bool,
    /// When the last inbound frame arrived (or the connection was
    /// installed). A probed connection is only declared dead once this
    /// is older than `read_timeout` — ticks alone don't tear it down,
    /// which keeps a starved-but-healthy fleet from reconnect-storming
    /// when the reactor can't service every shard within one interval.
    last_inbound: std::time::Instant,
    ever_connected: bool,
}

/// The sending side of a TCP channel. See the module docs for the
/// protocol; construct with [`TcpTransport::connect`].
pub struct TcpTransport {
    local_name: String,
    addr: SocketAddr,
    config: TcpConfig,
    metrics: TransportMetrics,
    /// Released before the mover is woken: the mover reads the progress
    /// under its transmission queue's lock, which the wake takes.
    // lint: never-hold(TcpTransport.state) across wake_mover
    state: Mutex<ConnState>,
    /// Signaled on writable wake-ups and teardowns: a `submit` stalled on
    /// a full socket parks here.
    changed: Condvar,
    /// Wakes the channel mover once the progress has changed.
    waker: OnceLock<Waker>,
    /// Supervisor-only parking (backoff and heartbeat pacing), so the
    /// writable wake-ups on `changed` don't wake it needlessly.
    sup_wake: Condvar,
    stop: AtomicBool,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addr", &self.addr)
            .field("connected", &self.state.lock().stream.is_some())
            .finish()
    }
}

/// Reactor handler for the sender's read half: consumes `AckWin`
/// watermarks and `Pong`s for one connection epoch, and flushes the
/// outbox when the socket becomes writable again.
struct AckReader {
    transport: Weak<TcpTransport>,
    epoch: u64,
    io: Mutex<(TcpStream, FrameReader)>,
}

impl Pollable for AckReader {
    fn on_readable(&self) -> bool {
        let Some(transport) = self.transport.upgrade() else {
            return false;
        };
        let mut io = self.io.lock();
        let (stream, reader) = &mut *io;
        loop {
            match reader.poll(stream) {
                Ok(FrameEvent::Idle) => return true,
                Ok(FrameEvent::Closed) | Err(_) => {
                    transport.peer_lost(self.epoch);
                    return false;
                }
                Ok(FrameEvent::Frame(frame)) => {
                    if !transport.on_reply(self.epoch, &frame) {
                        transport.peer_lost(self.epoch);
                        return false;
                    }
                }
            }
        }
    }

    fn on_writable(&self) -> bool {
        let Some(transport) = self.transport.upgrade() else {
            return false;
        };
        transport.socket_writable(self.epoch);
        true
    }
}

impl TcpTransport {
    /// Starts a transport from the queue manager named `local_name`
    /// toward the acceptor at `addr`, spawning the connection supervisor.
    /// Metrics land in `registry` under `mq.transport.*`.
    ///
    /// # Errors
    ///
    /// [`crate::MqError::Transport`] if the supervisor thread cannot be
    /// spawned.
    pub fn connect(
        local_name: &str,
        addr: SocketAddr,
        config: TcpConfig,
        registry: &MetricsRegistry,
    ) -> MqResult<Arc<TcpTransport>> {
        let transport = Arc::new(TcpTransport {
            local_name: local_name.to_owned(),
            addr,
            config,
            metrics: TransportMetrics::registered(registry),
            state: Mutex::new(ConnState {
                stream: None,
                registration: None,
                epoch: 0,
                next_seq: 0,
                acked: 0,
                outbox: BytesList::new(),
                inflight_at: VecDeque::new(),
                activity: 0,
                activity_checked: 0,
                ping_outstanding: false,
                last_inbound: std::time::Instant::now(),
                ever_connected: false,
            }),
            changed: Condvar::new(),
            waker: OnceLock::new(),
            sup_wake: Condvar::new(),
            stop: AtomicBool::new(false),
            supervisor: Mutex::new(None),
        });
        let clone = transport.clone();
        let handle = std::thread::Builder::new()
            .name(format!("mq-tcp-supervisor-{addr}"))
            .spawn(move || clone.supervise())
            .map_err(|e| transport_error(addr.to_string(), format!("spawn supervisor: {e}")))?;
        *transport.supervisor.lock() = Some(handle);
        Ok(transport)
    }

    /// Whether a handshaken connection is currently established.
    pub fn is_connected(&self) -> bool {
        self.state.lock().stream.is_some()
    }

    /// Test/fault hook: drops the current connection (if any) as if the
    /// network failed; the supervisor will reconnect with backoff.
    pub fn kill_connection(&self) {
        self.teardown_locked(&mut self.state.lock());
        self.wake_mover();
    }

    /// Tells the channel mover the progress has changed. Called with the
    /// state lock released.
    fn wake_mover(&self) {
        if let Some(wake) = self.waker.get() {
            wake();
        }
    }

    /// Supervisor loop: dial + handshake while disconnected (exponential
    /// backoff between failures), heartbeat pacing while connected. All
    /// waiting is condvar-parked on `sup_wake`, so shutdown and teardowns
    /// wake it immediately while the writable wake-ups on `changed` never
    /// touch it.
    fn supervise(self: Arc<Self>) {
        let mut backoff = self.config.backoff_initial;
        while !self.stop.load(Ordering::SeqCst) {
            let connected = self.is_connected();
            if connected {
                let timed_out = {
                    let mut st = self.state.lock();
                    self.sup_wake
                        .wait_for(&mut st, self.config.heartbeat_interval)
                        .timed_out()
                };
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                if timed_out {
                    self.heartbeat();
                }
                continue;
            }
            match self.dial() {
                Ok(stream) => {
                    if !self.install_connection(stream) {
                        let mut st = self.state.lock();
                        if self.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        self.sup_wake.wait_for(&mut st, backoff);
                        backoff = (backoff * 2).min(self.config.backoff_max);
                        continue;
                    }
                    backoff = self.config.backoff_initial;
                }
                Err(()) => {
                    let mut st = self.state.lock();
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    self.sup_wake.wait_for(&mut st, backoff);
                    backoff = (backoff * 2).min(self.config.backoff_max);
                }
            }
        }
    }

    /// Flips the freshly handshaken `stream` non-blocking, registers its
    /// read half with the reactor under a new epoch, and publishes it as
    /// the live connection. `false` means installation failed and the
    /// supervisor should back off.
    fn install_connection(self: &Arc<Self>, stream: TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }
        let Ok(read_half) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        };
        let mut st = self.state.lock();
        if self.stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }
        st.epoch += 1;
        st.acked = 0;
        st.outbox = BytesList::new();
        st.inflight_at.clear();
        st.ping_outstanding = false;
        st.activity_checked = st.activity;
        st.last_inbound = std::time::Instant::now();
        let reader = Arc::new(AckReader {
            transport: Arc::downgrade(self),
            epoch: st.epoch,
            io: Mutex::new((read_half, FrameReader::new())),
        });
        let Ok(registration) = Reactor::global().register(&stream, &self.local_name, reader)
        else {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        };
        st.registration = Some(registration);
        st.stream = Some(stream);
        if st.ever_connected {
            self.metrics.reconnects.incr();
        }
        st.ever_connected = true;
        self.metrics.connects.incr();
        drop(st);
        self.wake_mover();
        true
    }

    /// One dial + handshake attempt. Counts `handshake_failures` for
    /// post-connect protocol failures (refused dials are just backoff).
    fn dial(&self) -> Result<TcpStream, ()> {
        let mut stream =
            TcpStream::connect_timeout(&self.addr, self.config.connect_timeout).map_err(|_| ())?;
        let _ = stream.set_nodelay(true);
        if stream
            .set_read_timeout(Some(self.config.read_timeout))
            .is_err()
        {
            return Err(());
        }
        match self.handshake(&mut stream) {
            Ok(()) => Ok(stream),
            Err(()) => {
                self.metrics.handshake_failures.incr();
                let _ = stream.shutdown(Shutdown::Both);
                Err(())
            }
        }
    }

    /// Sends `Hello`, awaits `HelloAck`, verifies the peer's name. Runs
    /// on the still-blocking socket, before the reactor takes over.
    fn handshake(&self, stream: &mut TcpStream) -> Result<(), ()> {
        let hello = Frame::hello(&self.local_name).encode().map_err(|_| ())?;
        stream.write_all(&hello).map_err(|_| ())?;
        let mut reader = FrameReader::new();
        let reply = match reader.poll(stream) {
            Ok(FrameEvent::Frame(f)) if f.kind == FrameKind::HelloAck => f,
            _ => return Err(()),
        };
        let peer = reply.decode_handshake().map_err(|_| ())?;
        if let Some(expected) = &self.config.expected_peer {
            if &peer != expected {
                return Err(());
            }
        }
        Ok(())
    }

    /// One reply frame from the reactor-side reader. `false` drops the
    /// connection (protocol violation or stale epoch).
    fn on_reply(&self, epoch: u64, frame: &Frame) -> bool {
        let mut st = self.state.lock();
        if st.epoch != epoch {
            return false;
        }
        st.activity = st.activity.wrapping_add(1);
        st.last_inbound = std::time::Instant::now();
        match frame.kind {
            FrameKind::AckWin => {
                if frame.decode_ack().is_err() {
                    return false;
                }
                self.metrics.acks_received.incr();
                st.ping_outstanding = false;
                if frame.seq <= st.acked {
                    return true;
                }
                st.acked = frame.seq;
                let now = std::time::Instant::now();
                while st
                    .inflight_at
                    .front()
                    .is_some_and(|(seq, _)| *seq <= frame.seq)
                {
                    if let Some((_, at)) = st.inflight_at.pop_front() {
                        self.metrics.batch_micros.record_duration(now - at);
                    }
                }
                self.metrics.window_depth.set(st.inflight_at.len() as u64);
                drop(st);
                self.wake_mover();
                true
            }
            FrameKind::Pong => {
                st.ping_outstanding = false;
                self.metrics.heartbeats.incr();
                true
            }
            _ => false,
        }
    }

    /// The reader saw the connection close or corrupt. If it was still
    /// the live connection this is a lost peer: counted with the
    /// heartbeat misses (same signal — an established peer went away
    /// without acking) and torn down so the supervisor re-dials.
    fn peer_lost(&self, epoch: u64) {
        let mut st = self.state.lock();
        if st.epoch == epoch && st.stream.is_some() {
            self.metrics.heartbeat_misses.incr();
            self.teardown_locked(&mut st);
            drop(st);
            self.wake_mover();
        }
    }

    /// Writable wake-up from the reactor: drain the parked outbox and
    /// wake any `submit` stalled on backpressure.
    fn socket_writable(&self, epoch: u64) {
        let mut st = self.state.lock();
        if st.epoch != epoch || st.stream.is_none() {
            return;
        }
        self.changed.notify_all();
        if let FlushOutcome::Dead = self.flush_locked(&mut st) {
            self.teardown_locked(&mut st);
            drop(st);
            self.wake_mover();
        }
    }

    /// Pushes the staged outbox onto the socket; arms a writable wake-up
    /// when the socket is full.
    fn flush_locked(&self, st: &mut ConnState) -> FlushOutcome {
        let ConnState {
            stream,
            outbox,
            registration,
            ..
        } = st;
        let Some(stream) = stream.as_mut() else {
            return FlushOutcome::Dead;
        };
        flush_outbox(stream, outbox, registration.as_ref())
    }

    /// Heartbeat tick: probe only when the connection has been silent
    /// for a whole interval (inbound acks/pongs already prove liveness).
    /// An outstanding probe is a miss only once the silence has lasted
    /// `read_timeout` — tick counting alone would false-positive under
    /// scheduler starvation (many connections, few cores), where a
    /// healthy peer's pong can lag several intervals behind. When the
    /// socket is backed up the flag alone acts as the probe — no ping
    /// bytes are queued behind the jam, but a peer that stays silent
    /// past the deadline is still declared gone.
    fn heartbeat(&self) {
        let lost = self.probe(&mut self.state.lock());
        if lost {
            self.metrics.heartbeat_misses.incr();
            self.wake_mover();
        }
    }

    /// The heartbeat tick under the state lock: whether it declared the
    /// peer gone and tore the connection down.
    fn probe(&self, st: &mut ConnState) -> bool {
        if st.stream.is_none() {
            return false;
        }
        if st.activity != st.activity_checked {
            st.activity_checked = st.activity;
            return false;
        }
        if st.ping_outstanding {
            let lost = st.last_inbound.elapsed() >= self.config.read_timeout;
            if lost {
                self.teardown_locked(st);
            }
            return lost;
        }
        st.ping_outstanding = true;
        if !st.outbox.is_empty() {
            return false;
        }
        st.next_seq += 1;
        let Ok(wire) = Frame::ping(st.next_seq).encode() else {
            return false;
        };
        st.outbox.push(wire);
        let lost = matches!(self.flush_locked(st), FlushOutcome::Dead);
        if lost {
            self.teardown_locked(st);
        }
        lost
    }

    /// Drops the connection and wakes everyone parked on `changed` (a
    /// stalled `submit`) and `sup_wake` (the supervisor, to re-dial). The
    /// caller wakes the mover once it has released the lock.
    fn teardown_locked(&self, st: &mut ConnState) {
        if let Some(stream) = st.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(registration) = st.registration.take() {
            registration.deregister();
        }
        st.outbox = BytesList::new();
        st.inflight_at.clear();
        st.ping_outstanding = false;
        self.metrics.window_depth.set(0);
        self.changed.notify_all();
        self.sup_wake.notify_all();
    }

    /// Current progress under an already-held state lock.
    fn progress_locked(st: &ConnState) -> PipelineProgress {
        PipelineProgress {
            epoch: st.epoch,
            acked: st.acked,
            connected: st.stream.is_some(),
        }
    }
}

impl Transport for TcpTransport {
    fn peer(&self) -> String {
        match &self.config.expected_peer {
            Some(name) => format!("{name}@{}", self.addr),
            None => self.addr.to_string(),
        }
    }

    fn submit(
        &self,
        batch: &[crate::message::Message],
        epoch: Option<u64>,
    ) -> Result<BatchTicket, SubmitError> {
        let mut st = self.state.lock();
        if st.stream.is_none() || epoch.is_some_and(|e| e != st.epoch) {
            return Err(SubmitError::Unavailable);
        }
        let seq = st.next_seq + 1;
        let wire = Frame::batch_wire(seq, batch).map_err(|_| SubmitError::Dropped)?;
        self.metrics.encodes.add(batch.len() as u64);
        st.next_seq = seq;
        let epoch = st.epoch;
        let wire_bytes = wire.len() as u64;
        st.outbox.push(wire);
        loop {
            match self.flush_locked(&mut st) {
                FlushOutcome::Clean => break,
                FlushOutcome::Blocked => {
                    self.metrics.send_stalls.incr();
                    self.changed.wait_for(&mut st, self.config.read_timeout);
                    if self.stop.load(Ordering::SeqCst)
                        || st.epoch != epoch
                        || st.stream.is_none()
                    {
                        return Err(SubmitError::Unavailable);
                    }
                }
                FlushOutcome::Dead => {
                    self.teardown_locked(&mut st);
                    drop(st);
                    self.wake_mover();
                    return Err(SubmitError::Unavailable);
                }
            }
        }
        st.inflight_at.push_back((seq, std::time::Instant::now()));
        self.metrics.window_depth.set(st.inflight_at.len() as u64);
        drop(st);
        self.metrics.batches_sent.incr();
        self.metrics.messages_sent.add(batch.len() as u64);
        self.metrics.bytes_sent.add(wire_bytes);
        Ok(BatchTicket { epoch, seq })
    }

    fn progress(&self) -> PipelineProgress {
        Self::progress_locked(&self.state.lock())
    }

    fn set_waker(&self, waker: Waker) {
        let _ = self.waker.set(waker);
    }

    fn window(&self) -> usize {
        SEND_WINDOW
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.teardown_locked(&mut self.state.lock());
        self.wake_mover();
        let handle = self.supervisor.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

// -------------------------------------------------------------- receiver --

/// Shared state between the acceptor's accept thread and its
/// reactor-driven connection handlers.
struct AcceptorShared {
    manager: Weak<QueueManager>,
    local_name: String,
    stop: AtomicBool,
    metrics: TransportMetrics,
    /// Clones of live connection sockets by connection id, for
    /// kick/shutdown; a connection removes its own when it closes.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Id of the next accepted connection.
    next_conn: AtomicU64,
    /// Fault-injection: close this many connections right after
    /// committing a burst but *before* acking it, forcing the sender down
    /// the resend-and-dedup path deterministically.
    drop_before_ack: AtomicU64,
    /// Fault-injection: while set, new connections are refused on accept
    /// (paired with a kick of live ones, this models a partition of the
    /// receiving side that heals without rebinding).
    paused: AtomicBool,
}

/// The receiving side of the TCP transport: one listener per queue
/// manager, delivering into it via the normal channel path.
pub struct TcpAcceptor {
    shared: Arc<AcceptorShared>,
    addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpAcceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpAcceptor")
            .field("addr", &self.addr)
            .field("manager", &self.shared.local_name)
            .finish()
    }
}

impl TcpAcceptor {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`TcpAcceptor::local_addr`]) and starts accepting channel
    /// connections for `manager`. The acceptor registers itself with the
    /// manager, so [`QueueManager::shutdown`] stops it.
    ///
    /// # Errors
    ///
    /// [`crate::MqError::Transport`] when the listener cannot be bound.
    pub fn bind(manager: &Arc<QueueManager>, addr: &str) -> MqResult<Arc<TcpAcceptor>> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| transport_error(addr, format!("bind failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| transport_error(addr, format!("local_addr failed: {e}")))?;
        let shared = Arc::new(AcceptorShared {
            manager: Arc::downgrade(manager),
            local_name: manager.name().to_owned(),
            stop: AtomicBool::new(false),
            metrics: TransportMetrics::registered(manager.obs().metrics()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            drop_before_ack: AtomicU64::new(0),
            paused: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("mq-tcp-acceptor-{local}"))
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(|e| transport_error(addr, format!("spawn acceptor: {e}")))?;
        let acceptor = Arc::new(TcpAcceptor {
            shared,
            addr: local,
            accept_thread: Mutex::new(Some(handle)),
        });
        manager.attach_task(acceptor.clone());
        Ok(acceptor)
    }

    /// The actual bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fault-injection hook: the next `n` committed bursts (the batches
    /// one ack would have covered) are followed by a connection close
    /// *instead of* that ack, exercising the sender-resend /
    /// receiver-dedup path.
    pub fn inject_drop_before_ack(&self, n: u64) {
        self.shared.drop_before_ack.fetch_add(n, Ordering::SeqCst);
    }

    /// Fault-injection hook: hard-closes every live connection, as if the
    /// network between the managers failed.
    pub fn kick_all(&self) {
        let mut conns = self.shared.conns.lock();
        for (_, conn) in conns.drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Fault-injection hook: while paused, new connections are refused at
    /// accept time (senders keep reconnect-looping and back off). Combined
    /// with [`TcpAcceptor::kick_all`] this partitions the receiving side;
    /// unpausing heals it without rebinding the listener.
    pub fn set_paused(&self, paused: bool) {
        self.shared.paused.store(paused, Ordering::SeqCst);
    }

    /// Name of the queue manager this acceptor feeds.
    pub fn manager_name(&self) -> &str {
        &self.shared.local_name
    }

    /// Stops accepting and closes live connections (the reactor reaps
    /// their handlers on the resulting close events). Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread: accept() is blocking, so poke it with a
        // throwaway local connection.
        if let Ok(stream) = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200)) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
        self.kick_all();
    }
}

impl crate::qmgr::ManagedTask for TcpAcceptor {
    fn shutdown(&self) {
        TcpAcceptor::shutdown(self);
    }
}

/// Accept loop: registers each connection with the reactor; no
/// per-connection thread.
fn accept_loop(shared: &Arc<AcceptorShared>, listener: &TcpListener) {
    while !shared.stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(kick_clone) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        let Ok(register_clone) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        {
            // Decided under the lock `kick_all` drains, so a partition
            // either refuses this connection here or finds it to kick. The
            // sender's supervisor keeps retrying and gets through once the
            // fault heals.
            let mut conns = shared.conns.lock();
            if shared.paused.load(Ordering::SeqCst) {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            conns.insert(id, kick_clone);
        }
        let conn = Arc::new(AcceptorConn {
            id,
            shared: shared.clone(),
            io: Mutex::new(ConnIo {
                stream,
                reader: FrameReader::new(),
                served_hello: false,
                outbox: BytesList::new(),
                burst: Burst::default(),
                ack_watermark: 0,
            }),
            registration: OnceLock::new(),
        });
        match Reactor::global().register(&register_clone, &shared.local_name, conn.clone()) {
            Ok(registration) => {
                let _ = conn.registration.set(registration);
                // Close the race where a flush hit `WouldBlock` before
                // the registration landed: re-arm now that it can.
                let io = conn.io.lock();
                if !io.outbox.is_empty() {
                    if let Some(reg) = conn.registration.get() {
                        reg.want_write();
                    }
                }
            }
            Err(_) => conn.close(conn.io.lock()),
        }
    }
}

/// Per-connection receiver state, all under one lock (connection-local;
/// shard threads and `kick_all` never contend beyond it).
struct ConnIo {
    stream: TcpStream,
    reader: FrameReader,
    served_hello: bool,
    /// Unflushed reply bytes (hello-ack, pongs, coalesced acks).
    outbox: BytesList,
    /// The `Batch` frames read since the last commit.
    burst: Burst,
    /// Highest batch sequence committed since the connection opened.
    ack_watermark: u64,
}

/// The `Batch` frames of one readable burst, staged until the socket runs
/// dry: committed as one arrival, answered by one `AckWin`.
#[derive(Default)]
struct Burst {
    /// The envelopes of every frame, in arrival order.
    messages: Vec<crate::message::Message>,
    /// How many `Batch` frames they came in.
    frames: u64,
    /// Payload bytes of those frames.
    bytes: u64,
    /// Highest batch sequence among them.
    seq: u64,
}

/// Reactor handler for one accepted connection: handshake, batch
/// delivery, coalesced watermark acks, and heartbeat replies all run in
/// the readiness callbacks.
struct AcceptorConn {
    /// Key of this connection's kick handle in `AcceptorShared::conns`.
    id: u64,
    shared: Arc<AcceptorShared>,
    io: Mutex<ConnIo>,
    registration: OnceLock<Registration>,
}

impl AcceptorConn {
    /// Processes frames until the socket runs dry. `false` drops the
    /// connection.
    fn drain_frames(&self, io: &mut ConnIo) -> bool {
        loop {
            let ConnIo { stream, reader, .. } = &mut *io;
            match reader.poll(stream) {
                Ok(FrameEvent::Idle) => return true,
                Ok(FrameEvent::Closed) | Err(_) => return false,
                Ok(FrameEvent::Frame(frame)) => {
                    if !self.serve_frame(io, &frame) {
                        return false;
                    }
                }
            }
        }
    }

    fn serve_frame(&self, io: &mut ConnIo, frame: &Frame) -> bool {
        match frame.kind {
            FrameKind::Hello if !io.served_hello => {
                if frame.decode_handshake().is_err() {
                    return false;
                }
                let Ok(ack) = Frame::hello_ack(&self.shared.local_name).encode() else {
                    return false;
                };
                io.outbox.push(ack);
                io.served_hello = true;
                true
            }
            FrameKind::Ping if io.served_hello => match Frame::pong(frame.seq).encode() {
                Ok(pong) => {
                    io.outbox.push(pong);
                    true
                }
                Err(_) => false,
            },
            FrameKind::Batch if io.served_hello => self.serve_batch(io, frame),
            // A missing/second handshake or a frame kind that only flows
            // sender-ward is a protocol violation: drop the line.
            _ => false,
        }
    }

    /// Stages one `Batch` frame on the current burst. `false` (an
    /// undecodable body) drops the connection.
    fn serve_batch(&self, io: &mut ConnIo, frame: &Frame) -> bool {
        let Ok(messages) = frame.decode_batch() else {
            return false;
        };
        io.burst.messages.extend(messages);
        io.burst.frames += 1;
        io.burst.bytes += frame.payload.len() as u64;
        io.burst.seq = io.burst.seq.max(frame.seq);
        true
    }

    /// Commits the burst staged by [`AcceptorConn::drain_frames`] as one
    /// arrival (dedup + one journal record) and queues the one `AckWin`
    /// that covers it. Counters and the watermark move only after the
    /// commit. `false` means the connection must be dropped *without*
    /// acking (refused batch or injected fault) — the sender rolls back
    /// and resends, and dedup keeps it single.
    fn commit_burst(&self, io: &mut ConnIo) -> bool {
        let burst = std::mem::take(&mut io.burst);
        if burst.frames == 0 {
            return true;
        }
        let Some(manager) = self.shared.manager.upgrade() else {
            return false;
        };
        // A refused batch (manager stopping, full queue, journal error)
        // accepted nothing: leave it unacked so the sender retries.
        let Ok(arrival) = manager.accept_batch(burst.messages) else {
            return false;
        };
        let metrics = &self.shared.metrics;
        metrics.batches_received.add(burst.frames);
        metrics.messages_received.add(arrival.accepted as u64);
        metrics.bytes_received.add(burst.bytes);
        if self
            .shared
            .drop_before_ack
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return false;
        }
        io.ack_watermark = io.ack_watermark.max(burst.seq);
        let ack = Frame::ack_win(
            io.ack_watermark,
            arrival.accepted as u64,
            arrival.duplicates as u64,
        );
        match ack.encode() {
            Ok(wire) => {
                io.outbox.push(wire);
                true
            }
            Err(_) => false,
        }
    }

    /// Pushes the outbox (hello-ack, pongs, the burst's `AckWin`) onto
    /// the wire. `false` drops the connection.
    fn flush_replies(&self, io: &mut ConnIo) -> bool {
        let ConnIo { stream, outbox, .. } = &mut *io;
        match flush_outbox(stream, outbox, self.registration.get()) {
            FlushOutcome::Clean | FlushOutcome::Blocked => true,
            FlushOutcome::Dead => false,
        }
    }

    /// Shuts the connection down and drops its kick handle, releasing
    /// `io` first: `kick_all` holds `conns` while it shuts sockets down,
    /// so neither lock is ever taken under the other.
    fn close(&self, io: MutexGuard<'_, ConnIo>) {
        if !io.served_hello {
            self.shared.metrics.handshake_failures.incr();
        }
        let _ = io.stream.shutdown(Shutdown::Both);
        drop(io);
        self.shared.conns.lock().remove(&self.id);
    }
}

impl Pollable for AcceptorConn {
    fn on_readable(&self) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            let io = self.io.lock();
            let _ = io.stream.shutdown(Shutdown::Both);
            return false;
        }
        let mut io = self.io.lock();
        // A line that died mid-burst still commits what it delivered whole:
        // the resend after reconnect deduplicates against it.
        let alive = self.drain_frames(&mut io);
        if !(self.commit_burst(&mut io) && alive && self.flush_replies(&mut io)) {
            self.close(io);
            return false;
        }
        true
    }

    fn on_writable(&self) -> bool {
        let mut io = self.io.lock();
        if !self.flush_replies(&mut io) {
            self.close(io);
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::qmgr::QueueManager;
    use crate::qmgr::{XMIT_DEST_MANAGER_PROPERTY, XMIT_DEST_QUEUE_PROPERTY};
    use std::time::Instant;

    fn manager(name: &str) -> Arc<QueueManager> {
        let qm = QueueManager::builder(name).build().unwrap();
        qm.create_queue("Q.IN").unwrap();
        qm
    }

    fn envelope(text: &str) -> Message {
        Message::text(text)
            .persistent(true)
            .property(XMIT_DEST_QUEUE_PROPERTY, "Q.IN")
            .property(XMIT_DEST_MANAGER_PROPERTY, "QM.RECV")
            .property(crate::RELAY_ORIGIN_PROPERTY, "QM.SEND")
            .build()
    }

    fn quick_config(peer: &str) -> TcpConfig {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(1000),
            heartbeat_interval: Duration::from_millis(30),
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(50),
            expected_peer: Some(peer.to_owned()),
        }
    }

    /// Submits `batch` and waits for the watermark to cover its ticket:
    /// `true` once the peer has acknowledged it, `false` when no ticket was
    /// issued or its connection died with the batch's fate unknown.
    fn submit_covered(tx: &TcpTransport, batch: &[Message]) -> bool {
        let Ok(ticket) = tx.submit(batch, None) else {
            return false;
        };
        wait_until(Duration::from_secs(5), || !tx.progress().pending(ticket));
        tx.progress().covers(ticket)
    }

    /// Waits for the supervisor's first connection.
    fn connected(tx: &TcpTransport) -> bool {
        wait_until(Duration::from_secs(5), || tx.is_connected())
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cond()
    }

    #[test]
    fn batch_crosses_loopback_socket() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx), "connects");
        let batch = vec![envelope("m1"), envelope("m2"), envelope("m3")];
        assert!(submit_covered(&tx, &batch));
        let q = recv.queue("Q.IN").unwrap();
        assert_eq!(q.depth(), 3);
        assert_eq!(registry.snapshot().counter("mq.transport.batches_sent"), 1);
        assert_eq!(
            recv.obs()
                .metrics()
                .snapshot()
                .counter("mq.transport.messages_received"),
            3
        );
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn stripped_envelope_headers_do_not_leak() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        assert!(submit_covered(&tx, &[envelope("hdr")]));
        let msg = recv
            .get("Q.IN", crate::queue::Wait::NoWait)
            .unwrap()
            .unwrap();
        assert!(msg.str_property(XMIT_DEST_QUEUE_PROPERTY).is_none());
        assert!(msg.str_property(XMIT_DEST_MANAGER_PROPERTY).is_none());
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn pipelined_window_delivers_and_tracks_progress() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        // Submit a burst of batches without waiting for any ack.
        let mut last: Option<BatchTicket> = None;
        for i in 0..8 {
            let batch = vec![envelope(&format!("w{i}a")), envelope(&format!("w{i}b"))];
            let ticket = tx.submit(&batch, last.map(|t| t.epoch)).unwrap();
            if let Some(prev) = last {
                assert!(ticket.seq > prev.seq, "sequences are monotonic");
                assert_eq!(ticket.epoch, prev.epoch, "same connection epoch");
            }
            last = Some(ticket);
        }
        let last = last.unwrap();
        // The cumulative watermark must sweep over every ticket.
        assert!(
            wait_until(Duration::from_secs(5), || tx.progress().covers(last)),
            "watermark covers the whole window"
        );
        assert_eq!(recv.queue("Q.IN").unwrap().depth(), 16);
        let sent = registry.snapshot().counter("mq.transport.batches_sent");
        let acks = registry.snapshot().counter("mq.transport.acks_received");
        assert_eq!(sent, 8);
        assert!(acks >= 1, "at least one cumulative ack");
        // The watermark is final: progress still covers after shutdown.
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn drop_before_ack_resend_is_deduplicated() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        acceptor.inject_drop_before_ack(1);
        let batch = vec![envelope("once-a"), envelope("once-b")];
        // First attempt: delivered on the receiver but the ack never
        // arrives, so the sender's ticket is never covered and it must retry.
        assert!(!submit_covered(&tx, &batch));
        assert!(
            wait_until(Duration::from_secs(5), || tx.is_connected()),
            "supervisor reconnects"
        );
        assert!(submit_covered(&tx, &batch));
        let q = recv.queue("Q.IN").unwrap();
        assert_eq!(q.depth(), 2, "no duplicates after resend");
        let snap = recv.obs().metrics().snapshot();
        assert_eq!(snap.counter("mq.relay.duplicates"), 2);
        assert!(registry.snapshot().counter("mq.transport.reconnects") >= 1);
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn batch_beyond_a_bounded_queues_room_is_refused_whole_then_lands_once() {
        let recv = QueueManager::builder("QM.RECV").build().unwrap();
        let bounded = crate::QueueConfig { max_depth: Some(3) };
        recv.create_queue_with("Q.IN", bounded).unwrap();
        recv.put("Q.IN", Message::text("already here").build())
            .unwrap();
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        // Room for two, batch of three: the backpressure of a full queue
        // refuses the batch as a whole — dropped line, no ack.
        let batch = vec![envelope("a"), envelope("b"), envelope("c")];
        assert!(!submit_covered(&tx, &batch));
        let q = recv.queue("Q.IN").unwrap();
        assert_eq!(q.depth(), 1, "nothing of the batch is visible");
        assert!(recv.delivery_dedup.lock().snapshot().is_empty());
        let snap = recv.metrics_snapshot();
        assert_eq!(snap.counter("mq.transport.messages_received"), 0);
        assert_eq!(snap.counter("mq.relay.delivered_local"), 0);
        // The consumer makes room; the resend lands every message once.
        recv.get("Q.IN", crate::queue::Wait::NoWait).unwrap().unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || tx.is_connected()),
            "supervisor reconnects"
        );
        assert!(submit_covered(&tx, &batch));
        assert_eq!(q.depth(), 3);
        let snap = recv.metrics_snapshot();
        assert_eq!(snap.counter("mq.transport.messages_received"), 3);
        assert_eq!(snap.counter("mq.relay.duplicates"), 0);
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn heartbeats_flow_and_misses_tear_down() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        assert!(
            wait_until(Duration::from_secs(5), || registry
                .snapshot()
                .counter("mq.transport.heartbeats")
                >= 2),
            "pings round-trip on an idle connection"
        );
        // Stop the acceptor entirely: the peer is gone — detected either
        // by the reader seeing the close or by an unanswered ping.
        acceptor.shutdown();
        assert!(
            wait_until(Duration::from_secs(10), || registry
                .snapshot()
                .counter("mq.transport.heartbeat_misses")
                >= 1),
            "lost peer detected"
        );
        tx.shutdown();
    }

    #[test]
    fn handshake_rejects_unexpected_peer_name() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.SOMEONE.ELSE"),
            &registry,
        )
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || registry
                .snapshot()
                .counter("mq.transport.handshake_failures")
                >= 2),
            "dial keeps failing on peer-name mismatch"
        );
        assert!(!tx.is_connected());
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn a_closed_connection_leaves_no_kick_handle_behind() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        for _ in 0..100 {
            drop(TcpStream::connect(acceptor.local_addr()).unwrap());
        }
        let closed = || {
            recv.obs()
                .metrics()
                .snapshot()
                .counter("mq.transport.handshake_failures")
        };
        let handles = || acceptor.shared.conns.lock().len();
        assert!(
            wait_until(Duration::from_secs(5), || closed() == 100 && handles() == 0),
            "{} of 100 connections closed, {} kick handles held",
            closed(),
            handles()
        );
        acceptor.shutdown();
    }

    #[test]
    fn acceptor_shutdown_is_idempotent() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        acceptor.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn garbage_bytes_do_not_kill_the_acceptor() {
        let recv = manager("QM.RECV");
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        {
            let mut stream = TcpStream::connect(acceptor.local_addr()).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let _ = stream.shutdown(Shutdown::Both);
        }
        assert!(
            wait_until(Duration::from_secs(5), || recv
                .obs()
                .metrics()
                .snapshot()
                .counter("mq.transport.handshake_failures")
                >= 1),
            "garbage counted as a failed handshake"
        );
        // A well-behaved client still gets through afterwards.
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        assert!(submit_covered(&tx, &[envelope("ok")]));
        tx.shutdown();
        acceptor.shutdown();
    }

    #[test]
    fn acceptor_restart_during_retry_does_not_double_deliver() {
        // The receiver delivers a batch but dies (acceptor + manager)
        // before acking. The sender retries against the rebuilt manager:
        // the journal-reseeded (origin, id) dedup window must drop the
        // retry — exactly-once across a receiving-process restart.
        let journal = crate::journal::MemJournal::new();
        let recv = QueueManager::builder("QM.RECV")
            .journal(journal.clone())
            .build()
            .unwrap();
        recv.create_queue("Q.IN").unwrap();
        let acceptor = TcpAcceptor::bind(&recv, "127.0.0.1:0").unwrap();
        let registry = MetricsRegistry::new();
        let tx = TcpTransport::connect(
            "QM.SEND",
            acceptor.local_addr(),
            quick_config("QM.RECV"),
            &registry,
        )
        .unwrap();
        assert!(connected(&tx));
        acceptor.inject_drop_before_ack(1);
        let batch = vec![envelope("exactly-once")];
        // Delivered and journaled on the receiver, but never acked.
        assert!(!submit_covered(&tx, &batch));
        tx.shutdown();
        acceptor.shutdown();
        recv.crash();

        let recv2 = QueueManager::builder("QM.RECV")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(recv2.queue("Q.IN").unwrap().depth(), 1, "recovered");
        let acceptor2 = TcpAcceptor::bind(&recv2, "127.0.0.1:0").unwrap();
        let registry2 = MetricsRegistry::new();
        let tx2 = TcpTransport::connect(
            "QM.SEND",
            acceptor2.local_addr(),
            quick_config("QM.RECV"),
            &registry2,
        )
        .unwrap();
        assert!(connected(&tx2));
        // The sender never saw an ack, so it resends the same envelope.
        assert!(submit_covered(&tx2, &batch));
        assert_eq!(
            recv2.queue("Q.IN").unwrap().depth(),
            1,
            "retry across restart must not double-deliver"
        );
        assert_eq!(
            recv2
                .obs()
                .metrics()
                .snapshot()
                .counter("mq.relay.duplicates"),
            1
        );
        tx2.shutdown();
        acceptor2.shutdown();
    }
}
