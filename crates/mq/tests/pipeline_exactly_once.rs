//! Exactly-once delivery under pipelined batching: property tests driving
//! the real channel mover against an adversarial scripted transport and
//! over loopback TCP under a seeded fault schedule, plus an end-to-end TCP
//! run with mid-window connection kills.
//!
//! The delivery contract being checked: with a window of batches in
//! flight, any interleaving of coalesced ack watermarks, connection
//! deaths before or after a batch physically landed, and
//! reconnect-with-retransmit must deliver every message to the receiving
//! manager exactly once — the sender's per-batch sessions plus the
//! receiver's `accept_batch` dedup seam absorb every duplicate the
//! retransmissions create.
//!
//! The seam itself is checked below the mover too: an arriving batch is
//! one messaging transaction and one journal record, so it is accepted
//! whole or not at all — across a failing journal, a torn tail at a crash,
//! and resends that overlap what an earlier batch already delivered.
//!
//! And the mover's handoff is not a record: an acknowledged batch is
//! released, so a sender that crashes before its next record re-sends what
//! the peer already holds, up to `MAX_RESEND` envelopes, and the peer's
//! dedup window (at least one larger) drops every copy.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use proptest::prelude::*;

use mq::channel::{Channel, MAX_BATCH, MAX_RELEASED, MAX_RESEND};
use mq::journal::{Journal, JournalRecord, MemJournal};
use mq::transport::tcp::{TcpAcceptor, TcpConfig, TcpTransport};
use mq::{
    BatchAccepted, BatchTicket, FaultAction, FaultPlane, ManagerConfig, Message, PipelineProgress,
    QueueAddress, QueueManager, SubmitError, Transport, Wait, Waker, DEAD_LETTER_QUEUE,
};
use simtime::SystemClock;

const DEST_QUEUE: &str = "IN";

/// One network fate, consumed per submitted batch. When the script runs
/// dry the transport acks everything immediately, so every run converges.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Deliver and ack every pending batch with one coalesced watermark.
    AckAll,
    /// Hold the batch: its ack arrives later, when the test lets the
    /// network deliver it or coalesced into a subsequent `AckAll` (the
    /// reordered/interleaved-watermark case).
    Hold,
    /// Deliver the first `n` pending batches to the receiver but kill
    /// the connection before any ack leaves: the sender must roll back
    /// and retransmit, and the receiver's dedup must drop the copies.
    DeliverThenKill(u8),
    /// Kill the connection with every pending batch undelivered: the
    /// retransmit after reconnect is the only copy.
    Kill,
}

fn arb_fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        3 => Just(Fate::AckAll),
        3 => Just(Fate::Hold),
        2 => (0u8..4).prop_map(Fate::DeliverThenKill),
        2 => Just(Fate::Kill),
    ]
}

struct NetState {
    epoch: u64,
    next_seq: u64,
    acked: u64,
    connected: bool,
    /// Submitted batches whose fate is still open, in seq order.
    pending: VecDeque<(u64, Vec<Message>)>,
    script: VecDeque<Fate>,
    /// Size of every batch ever submitted, in order.
    submitted: Vec<usize>,
}

impl NetState {
    /// The connection dies and a new one is up at once: a new epoch,
    /// watermark reset, pending wiped (the old connection's unacked bytes
    /// are gone).
    fn reconnect(&mut self) {
        self.epoch += 1;
        self.acked = 0;
        self.pending.clear();
    }
}

/// An in-process [`Transport`] whose network behaves per the
/// proptest-generated script, delivering into the receiving manager
/// through the public `accept_batch` dedup seam. A held batch stays held
/// until the test releases it ([`ScriptedTransport::release_first`]).
struct ScriptedTransport {
    to: Arc<QueueManager>,
    state: Mutex<NetState>,
    /// Wakes the mover once the progress has changed.
    waker: OnceLock<Waker>,
    stopped: AtomicBool,
    window: usize,
}

impl fmt::Debug for ScriptedTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScriptedTransport").finish()
    }
}

impl ScriptedTransport {
    fn new(to: Arc<QueueManager>, script: Vec<Fate>) -> Arc<ScriptedTransport> {
        // Small enough that kills regularly strand a partially-acked
        // window, large enough to keep several batches in flight.
        ScriptedTransport::build(to, script, 4)
    }

    /// A transport that holds every batch until the test releases it.
    fn held(to: Arc<QueueManager>) -> Arc<ScriptedTransport> {
        ScriptedTransport::build(to, vec![Fate::Hold; 64], 4)
    }

    fn build(to: Arc<QueueManager>, script: Vec<Fate>, window: usize) -> Arc<ScriptedTransport> {
        Arc::new(ScriptedTransport {
            to,
            state: Mutex::new(NetState {
                epoch: 1,
                next_seq: 0,
                acked: 0,
                connected: true,
                pending: VecDeque::new(),
                script: script.into(),
                submitted: Vec::new(),
            }),
            waker: OnceLock::new(),
            stopped: AtomicBool::new(false),
            window,
        })
    }

    /// Tells the mover the progress changed; called with no lock held.
    fn wake(&self) {
        if let Some(wake) = self.waker.get() {
            wake();
        }
    }

    /// Delivers and acks every held batch with one coalesced watermark.
    fn release(&self) {
        self.release_first(usize::MAX);
    }

    /// Delivers and acks the first `n` held batches.
    fn release_first(&self, n: usize) {
        let mut st = self.state.lock();
        let n = n.min(st.pending.len());
        let drained: Vec<_> = st.pending.drain(..n).collect();
        if let Some(&(last, _)) = drained.last() {
            st.acked = last;
        }
        drop(st);
        for (_, msgs) in &drained {
            self.deliver(msgs);
        }
        self.wake();
    }

    /// Delivers every held batch and keeps the acks back for good: the
    /// peer has them, the sender never hears of it.
    fn deliver_unacked(&self) {
        let held: Vec<_> = self.state.lock().pending.iter().map(|(_, msgs)| msgs.clone()).collect();
        for msgs in &held {
            self.deliver(msgs);
        }
    }

    fn submitted(&self) -> Vec<usize> {
        self.state.lock().submitted.clone()
    }

    /// Hands `batch` to the receiver; whether it accepted it. Duplicates
    /// are counted in the `BatchAccepted`, and a refusal is only acted on
    /// where the batch is acked at once (`Fate::AckAll`): elsewhere it
    /// surfaces as missing messages in the final exactly-once assertion.
    fn deliver(&self, batch: &[Message]) -> bool {
        self.to.accept_batch(batch.to_vec()).is_ok()
    }

    fn snapshot(state: &NetState) -> PipelineProgress {
        PipelineProgress {
            epoch: state.epoch,
            acked: state.acked,
            connected: state.connected,
        }
    }
}

impl Transport for ScriptedTransport {
    fn peer(&self) -> String {
        self.to.name().to_owned()
    }

    fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.state.lock().connected = false;
        self.wake();
    }

    fn submit(&self, batch: &[Message], epoch: Option<u64>) -> Result<BatchTicket, SubmitError> {
        if self.stopped.load(Ordering::SeqCst) {
            return Err(SubmitError::Unavailable);
        }
        let mut st = self.state.lock();
        if !st.connected || epoch.is_some_and(|e| e != st.epoch) {
            return Err(SubmitError::Unavailable);
        }
        st.next_seq += 1;
        let ticket = BatchTicket {
            epoch: st.epoch,
            seq: st.next_seq,
        };
        st.pending.push_back((ticket.seq, batch.to_vec()));
        st.submitted.push(batch.len());
        match st.script.pop_front().unwrap_or(Fate::AckAll) {
            Fate::Hold => drop(st),
            Fate::AckAll => {
                let drained: Vec<_> = st.pending.drain(..).collect();
                drop(st);
                // A batch the receiver refuses is not acked: the line dies
                // with it, as a TCP acceptor drops it.
                let landed = drained.iter().all(|(_, msgs)| self.deliver(msgs));
                let mut st = self.state.lock();
                if !landed {
                    st.reconnect();
                } else if let Some(&(last, _)) = drained.last() {
                    st.acked = last;
                }
            }
            Fate::DeliverThenKill(n) => {
                let n = (n as usize).min(st.pending.len());
                let landed: Vec<_> = st.pending.drain(..n).collect();
                st.reconnect();
                drop(st);
                // Landed but never acked: the sender will retransmit
                // these after reconnect and dedup must absorb them.
                for (_, msgs) in &landed {
                    self.deliver(msgs);
                }
            }
            Fate::Kill => {
                st.reconnect();
                drop(st);
            }
        }
        self.wake();
        Ok(ticket)
    }

    fn progress(&self) -> PipelineProgress {
        ScriptedTransport::snapshot(&self.state.lock())
    }

    fn set_waker(&self, waker: Waker) {
        let _ = self.waker.set(waker);
    }

    fn window(&self) -> usize {
        self.window
    }
}

/// One scripted fault on the receiver's acceptor, applied just before the
/// put it is scheduled at.
#[derive(Debug, Clone, Copy)]
enum WireFault {
    /// The next `n` bursts land but their acks are lost.
    DropNext(u8),
    Partition,
    Heal,
    /// The sending manager crashes (its mover possibly mid-transfer) and
    /// is rebuilt from its journal behind a fresh channel.
    CrashSender,
}

fn arb_wire_fault() -> impl Strategy<Value = WireFault> {
    prop_oneof![
        3 => (1u8..4).prop_map(WireFault::DropNext),
        2 => Just(WireFault::Partition),
        3 => Just(WireFault::Heal),
        1 => Just(WireFault::CrashSender),
    ]
}

/// A channel from `a` to the manager behind `acceptor`, over loopback TCP.
fn tcp_channel(a: &Arc<QueueManager>, acceptor: &TcpAcceptor) -> Channel {
    let config = TcpConfig {
        backoff_max: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    Channel::connect_tcp(a, acceptor.manager_name(), acceptor.local_addr(), config).unwrap()
}

fn wait_for<F: Fn() -> bool>(what: &str, deadline: Duration, f: F) {
    let until = std::time::Instant::now() + deadline;
    while !f() {
        assert!(std::time::Instant::now() < until, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drains the destination queue and asserts each label 0..n arrived
/// exactly once.
fn assert_exactly_once(b: &Arc<QueueManager>, n: u32) {
    let mut seen = HashSet::new();
    while let Ok(Some(msg)) = b.get(DEST_QUEUE, Wait::NoWait) {
        let label: u32 = msg
            .payload_str()
            .and_then(|s| s.parse().ok())
            .expect("numeric label payload");
        assert!(
            seen.insert(label),
            "label {label} delivered more than once"
        );
    }
    assert_eq!(seen.len() as u32, n, "labels missing: {:?}", {
        let mut missing: Vec<u32> = (0..n).filter(|l| !seen.contains(l)).collect();
        missing.truncate(10);
        missing
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The real pipelined mover against a scripted network: coalesced
    /// watermarks, held acks, kills before and after batches landed,
    /// instant reconnects. Every message must reach the receiver exactly
    /// once, no matter the script.
    #[test]
    fn pipelined_mover_is_exactly_once_under_any_network_script(
        script in proptest::collection::vec(arb_fate(), 0..24),
        n in 8u32..400,
    ) {
        let clock = SystemClock::new();
        let a = QueueManager::builder("QA").clock(clock.clone()).build().unwrap();
        let b = QueueManager::builder("QB").clock(clock).build().unwrap();
        b.create_queue(DEST_QUEUE).unwrap();
        let transport = ScriptedTransport::new(b.clone(), script);
        // Three quarters are already waiting when the mover starts, so it
        // fills its window with full batches; the rest trickle in behind
        // and leave as partial batches, one in flight at a time.
        a.define_route("QB", "SYSTEM.XMIT.QB").unwrap();
        let put = |label: u32| {
            a.put_to(
                &QueueAddress::new("QB", DEST_QUEUE),
                Message::text(label.to_string()).build(),
            )
            .unwrap();
        };
        (0..n * 3 / 4).for_each(put);
        let channel = Channel::connect_transport(&a, "QB", transport.clone()).unwrap();
        (n * 3 / 4..n).for_each(put);
        wait_for("all labels delivered", Duration::from_secs(10), || {
            // A held batch's ack arrives in its own time: one per look, so
            // late acks interleave with further submits.
            transport.release_first(1);
            b.queue(DEST_QUEUE).unwrap().depth() as u32 == n
        });
        drop(channel);
        assert_exactly_once(&b, n);
    }

    /// The same mover over loopback TCP: lost acks, partitions and heals,
    /// and sender crashes with the mover mid-transfer — the crashed
    /// sender's mover is left running (a zombie, possibly with a batch on
    /// the wire) while its successor starts. The receiver must see every
    /// label exactly once and in the order the sender put them.
    #[test]
    fn tcp_mover_is_exactly_once_and_fifo_under_any_fault_schedule(
        n in 8u32..300,
        schedule in proptest::collection::vec((0u32..300, arb_wire_fault()), 0..8),
    ) {
        let journal = MemJournal::new();
        let sender = || QueueManager::builder("QA").journal(journal.clone()).build().unwrap();
        let b = QueueManager::builder("QB").build().unwrap();
        b.create_queue(DEST_QUEUE).unwrap();
        let acceptor = TcpAcceptor::bind(&b, "127.0.0.1:0").unwrap();
        let mut a = sender();
        let mut channel = tcp_channel(&a, &acceptor);
        let mut zombies = Vec::new();
        for label in 0..n {
            for &(at, fault) in &schedule {
                if at % n != label {
                    continue;
                }
                match fault {
                    WireFault::DropNext(k) => {
                        acceptor.apply_fault(FaultAction::DropNext(u64::from(k))).unwrap();
                    }
                    WireFault::Partition => acceptor.apply_fault(FaultAction::Partition).unwrap(),
                    WireFault::Heal => acceptor.apply_fault(FaultAction::Heal).unwrap(),
                    WireFault::CrashSender => {
                        a.crash();
                        a = sender();
                        let successor = tcp_channel(&a, &acceptor);
                        zombies.push(std::mem::replace(&mut channel, successor));
                    }
                }
            }
            a.put_to(
                &QueueAddress::new("QB", DEST_QUEUE),
                Message::text(label.to_string()).persistent(true).build(),
            )
            .unwrap();
        }
        acceptor.apply_fault(FaultAction::Heal).unwrap();
        wait_for("all labels delivered over TCP", Duration::from_secs(20), || {
            b.queue(DEST_QUEUE).unwrap().depth() as u32 == n
        });
        drop(channel);
        drop(zombies);
        let arrived: Vec<u32> = b
            .queue(DEST_QUEUE)
            .unwrap()
            .browse()
            .iter()
            .map(|m| m.payload_str().unwrap().parse().unwrap())
            .collect();
        prop_assert_eq!(arrived, (0..n).collect::<Vec<u32>>());
    }

    /// Watermark algebra: `covers` is final and monotonic, `pending` and
    /// `covers` are mutually exclusive, and neither survives an epoch
    /// change or (for `pending`) a disconnect.
    #[test]
    fn watermark_covers_and_pending_are_consistent(
        t_epoch in 0u64..4,
        t_seq in 1u64..64,
        p_epoch in 0u64..4,
        acked in 0u64..64,
        advance in 0u64..64,
        connected in any::<bool>(),
    ) {
        let ticket = BatchTicket { epoch: t_epoch, seq: t_seq };
        let progress = PipelineProgress { epoch: p_epoch, acked, connected };
        // A batch is never both committed and awaited.
        prop_assert!(!(progress.covers(ticket) && progress.pending(ticket)));
        // Coverage ignores liveness: an observed watermark is final.
        let dead = PipelineProgress { connected: false, ..progress };
        prop_assert_eq!(progress.covers(ticket), dead.covers(ticket));
        // A dead connection pends nothing.
        prop_assert!(!dead.pending(ticket));
        // The watermark only moves forward: coverage is monotonic.
        let later = PipelineProgress { acked: acked + advance, ..progress };
        if progress.covers(ticket) {
            prop_assert!(later.covers(ticket));
        }
        // Another epoch's watermark says nothing about this ticket.
        let other = PipelineProgress { epoch: p_epoch + 1, ..progress };
        prop_assert!(!other.covers(ticket));
    }
}

/// The channel clocks itself on its acks: with a batch in flight only a
/// full batch joins it in the window, so what arrives during one round
/// trip leaves — and is journaled on both sides — as one batch.
#[test]
fn a_partial_batch_waits_for_the_ack_of_the_one_in_flight() {
    const FULL: usize = mq::channel::MAX_BATCH;
    let a = QueueManager::builder("QA").build().unwrap();
    let b = QueueManager::builder("QB").build().unwrap();
    b.create_queue(DEST_QUEUE).unwrap();
    let transport = ScriptedTransport::held(b.clone());
    let channel = Channel::connect_transport(&a, "QB", transport.clone()).unwrap();
    let put = |count: usize| {
        for _ in 0..count {
            a.put_to(&QueueAddress::new("QB", DEST_QUEUE), Message::text("m").build())
                .unwrap();
        }
    };
    let submitted = |sizes: &[usize]| {
        wait_for("batches submitted", Duration::from_secs(5), || {
            transport.submitted().iter().sum::<usize>() == sizes.iter().sum::<usize>()
        });
        assert_eq!(transport.submitted(), sizes);
    };
    // An idle channel sends its first envelope at once.
    put(1);
    submitted(&[1]);
    // Five more while it is unacked: every put wakes the mover, none ships.
    put(5);
    transport.release();
    submitted(&[1, 5]);
    // Full batches do not wait for the one in flight; the remainder does.
    put(2 * FULL + 3);
    submitted(&[1, 5, FULL, FULL]);
    transport.release();
    submitted(&[1, 5, FULL, FULL, 3]);
    transport.release();
    wait_for("everything delivered", Duration::from_secs(5), || {
        b.queue(DEST_QUEUE).unwrap().depth() == 2 * FULL + 9
    });
    drop(channel);
}

/// A sender that crashes with a batch in flight and no ack coming ends its
/// mover: the crash closes the transmission queue the mover is parked on.
/// The mover lets go of its transport before anyone stops the channel,
/// and the stop joins at once.
#[test]
fn a_crash_with_a_batch_in_flight_and_no_ack_coming_ends_the_mover() {
    let a = QueueManager::builder("QA").build().unwrap();
    let b = QueueManager::builder("QB").build().unwrap();
    b.create_queue(DEST_QUEUE).unwrap();
    let transport = ScriptedTransport::held(b.clone());
    let mut channel = Channel::connect_transport(&a, "QB", transport.clone()).unwrap();
    a.put_to(&QueueAddress::new("QB", DEST_QUEUE), Message::text("m").build())
        .unwrap();
    wait_for("the batch in flight", Duration::from_secs(5), || transport.submitted() == [1]);
    a.crash();
    // The test's handle and the channel's are left; the mover's is gone.
    wait_for("the mover ended", Duration::from_secs(5), || {
        Arc::strong_count(&transport) == 2
    });
    let stopper = std::thread::spawn(move || channel.stop());
    wait_for("the channel stopped", Duration::from_secs(5), || stopper.is_finished());
    stopper.join().unwrap();
}

/// End-to-end over real sockets: a channel pipelines batches to a TCP
/// acceptor while the test repeatedly kills the connection mid-window.
/// Reconnect + retransmit + receiver dedup must land every message
/// exactly once.
#[test]
fn tcp_mid_window_kills_stay_exactly_once() {
    let clock = SystemClock::new();
    let a = QueueManager::builder("QA")
        .clock(clock.clone())
        .build()
        .unwrap();
    let b = QueueManager::builder("QB").clock(clock).build().unwrap();
    b.create_queue(DEST_QUEUE).unwrap();
    let acceptor = TcpAcceptor::bind(&b, "127.0.0.1:0").unwrap();
    let transport = TcpTransport::connect(
        "QA",
        acceptor.local_addr(),
        TcpConfig::default(),
        a.obs().metrics(),
    )
    .unwrap();
    let channel = Channel::connect_transport(&a, "QB", transport.clone()).unwrap();

    let n: u32 = 400;
    for label in 0..n {
        a.put_to(
            &QueueAddress::new("QB", DEST_QUEUE),
            Message::text(label.to_string()).build(),
        )
        .unwrap();
        // Chop the connection every 50 puts: some kills strand a full
        // window of unacked batches, forcing rollback + retransmit. Wait
        // for a live connection first — a kill while the supervisor is
        // still dialing would tear down nothing.
        if label % 50 == 49 {
            wait_for("connection up before kill", Duration::from_secs(5), || {
                transport.is_connected()
            });
            transport.kill_connection();
        }
    }
    wait_for("all labels delivered over TCP", Duration::from_secs(20), || {
        b.queue(DEST_QUEUE).unwrap().depth() as u32 == n
    });
    let snap = a.obs().metrics().snapshot();
    assert!(
        snap.counter("mq.transport.reconnects") >= 1,
        "the kills must have forced at least one reconnect"
    );
    // Every message was assembled into a frame at least once, and again
    // only after the mover re-queued it.
    let (encodes, requeued) = (
        snap.counter("mq.codec.encodes"),
        snap.counter("mq.transport.requeued"),
    );
    assert!(
        (u64::from(n)..=u64::from(n) + requeued).contains(&encodes),
        "{encodes} images assembled for {n} messages and {requeued} re-queued envelopes"
    );
    drop(channel);
    drop(acceptor);
    assert_exactly_once(&b, n);
}

// ------------------------------------------- releases and sender crashes --

/// Puts `labels` on `a`'s way to `QB/IN`, persistent.
fn put_labels(a: &Arc<QueueManager>, labels: std::ops::Range<u32>) {
    for label in labels {
        let msg = Message::text(label.to_string()).persistent(true).build();
        a.put_to(&QueueAddress::new("QB", DEST_QUEUE), msg).unwrap();
    }
}

/// A sender crashes after its mover released acknowledged batches and
/// before any record carried their gets: its journal still holds the
/// envelopes, so the restarted sender re-sends them, and the peer, which
/// has them, counts every one a duplicate. A clean stop leaves nothing to
/// re-send.
#[test]
fn a_sender_crash_with_releases_outstanding_resends_and_the_peer_drops_the_copies() {
    const N: u32 = 150;
    let journal = MemJournal::new();
    let sender = || QueueManager::builder("QA").journal(journal.clone()).build().unwrap();
    let b = QueueManager::builder("QB").build().unwrap();
    b.create_queue(DEST_QUEUE).unwrap();
    let acceptor = TcpAcceptor::bind(&b, "127.0.0.1:0").unwrap();
    acceptor.apply_fault(FaultAction::Partition).unwrap();

    let a = sender();
    let channel = tcp_channel(&a, &acceptor);
    put_labels(&a, 0..N);
    let records = journal.record_count();
    acceptor.apply_fault(FaultAction::Heal).unwrap();
    wait_for("every handoff released", Duration::from_secs(10), || {
        a.stats().released.get() == u64::from(N)
    });
    let xmit = |a: &Arc<QueueManager>| a.queue("SYSTEM.XMIT.QB").unwrap().depth();
    assert_eq!((xmit(&a), b.queue(DEST_QUEUE).unwrap().depth()), (0, N as usize));
    assert_eq!(journal.record_count(), records, "a handoff is not a record");
    a.crash();
    drop(channel);

    let a = sender();
    assert_eq!(xmit(&a), N as usize, "no record says they were handed over");
    let channel = tcp_channel(&a, &acceptor);
    wait_for("every copy dropped", Duration::from_secs(10), || {
        b.relay_stats().duplicates.get() == u64::from(N) && a.stats().released.get() == u64::from(N)
    });
    assert_eq!(b.metrics_snapshot().counter("mq.relay.duplicates"), u64::from(N));
    // Stopping the channel writes the handoffs out.
    drop(channel);
    assert_eq!(journal.record_count(), records + 1);
    assert_eq!(a.stats().released.get(), 0);
    a.crash();
    assert_eq!(xmit(&sender()), 0, "nothing left to re-send");
    assert_exactly_once(&b, N);
}

/// The bound on what a crash re-sends, at its worst: the released list as
/// full as whole batches make it and a full TCP-sized window delivered but
/// unacknowledged, against a peer whose dedup window is the smallest the
/// bound allows. Every copy is still inside the window.
#[test]
fn a_sender_crash_at_the_cap_fits_the_smallest_dedup_window() {
    const WINDOW: usize = 16;
    let released = (MAX_RELEASED - 1) / MAX_BATCH; // batches
    let resent = ((released + WINDOW) * MAX_BATCH) as u32;
    assert!(resent as usize <= MAX_RESEND && resent as usize + MAX_BATCH >= MAX_RESEND);
    let journal = MemJournal::new();
    let sender = || QueueManager::builder("QA").journal(journal.clone()).build().unwrap();
    let config = ManagerConfig { dedup_window: MAX_RESEND + 1, ..ManagerConfig::default() };
    let b = QueueManager::builder("QB").config(config).build().unwrap();
    b.create_queue(DEST_QUEUE).unwrap();

    // Everything is queued before the mover starts, so no later record of
    // the sender's carries a released get, and every batch is full.
    let a = sender();
    a.define_route("QB", "SYSTEM.XMIT.QB").unwrap();
    put_labels(&a, 0..resent);
    let transport = ScriptedTransport::build(b.clone(), vec![Fate::Hold; 64], WINDOW);
    let channel = Channel::connect_transport(&a, "QB", transport.clone()).unwrap();
    let submitted = |batches: usize| {
        wait_for("batches submitted", Duration::from_secs(10), || {
            transport.submitted().len() == batches
        });
    };
    submitted(WINDOW);
    transport.release_first(released);
    submitted(released + WINDOW);
    wait_for("the acknowledged batches released", Duration::from_secs(10), || {
        a.stats().released.get() == (released * MAX_BATCH) as u64
    });
    transport.deliver_unacked();
    assert_eq!(b.queue(DEST_QUEUE).unwrap().depth(), resent as usize);
    assert_eq!(a.stats().release_flushes.get(), 0, "one batch short of the cap");
    a.crash();
    drop(channel);

    // The restart re-sends all of it, oldest first, with new traffic behind.
    let a = sender();
    assert_eq!(a.queue("SYSTEM.XMIT.QB").unwrap().depth(), resent as usize);
    a.define_route("QB", "SYSTEM.XMIT.QB").unwrap();
    put_labels(&a, resent..resent + 10);
    let channel =
        Channel::connect_transport(&a, "QB", ScriptedTransport::new(b.clone(), Vec::new())).unwrap();
    wait_for("the new traffic through", Duration::from_secs(10), || {
        b.queue(DEST_QUEUE).unwrap().depth() == resent as usize + 10
            && a.queue("SYSTEM.XMIT.QB").unwrap().depth() == 0
    });
    drop(channel);
    assert_eq!(b.relay_stats().duplicates.get(), u64::from(resent));
    assert_exactly_once(&b, resent + 10);
}

// ------------------------------------------------ the batch seam itself --

/// A receiving relay `QB` over `journal`: local queue `IN`, onward route
/// to `QC`.
fn receiver(journal: &Arc<MemJournal>) -> Arc<QueueManager> {
    let b = QueueManager::builder("QB")
        .journal(journal.clone())
        .build()
        .unwrap();
    b.ensure_queue(DEST_QUEUE).unwrap();
    b.define_route("QC", "SYSTEM.XMIT.QC").unwrap();
    b
}

/// Envelopes labelled `labels` as the transmission queue of `QA` stages
/// them: even labels for `QB/IN`, odd ones onward to `QC`.
fn batch(labels: std::ops::Range<u32>) -> Vec<Message> {
    let a = QueueManager::builder("QA").build().unwrap();
    let xmit = a.ensure_queue("SYSTEM.XMIT.QB").unwrap();
    a.define_default_route(&["SYSTEM.XMIT.QB"]).unwrap();
    for label in labels {
        let dest = if label % 2 == 0 { "QB" } else { "QC" };
        let msg = Message::text(label.to_string()).persistent(true).build();
        a.put_to(&QueueAddress::new(dest, DEST_QUEUE), msg).unwrap();
    }
    xmit.browse().iter().map(|m| (**m).clone()).collect()
}

/// Labels visible on any queue of `b`, sorted.
fn visible(b: &Arc<QueueManager>) -> Vec<u32> {
    let mut labels: Vec<u32> = [DEST_QUEUE, "SYSTEM.XMIT.QC", DEAD_LETTER_QUEUE]
        .iter()
        .flat_map(|q| b.queue(q).unwrap().browse())
        .map(|m| m.payload_str().unwrap().parse().unwrap())
        .collect();
    labels.sort_unstable();
    labels
}

fn accepted(accepted: usize, duplicates: usize) -> BatchAccepted {
    BatchAccepted {
        accepted,
        duplicates,
    }
}

/// A journal whose next append, once armed, stops just before it is
/// written until the test lets it go.
#[derive(Debug)]
struct HeldJournal {
    inner: Arc<MemJournal>,
    hold: Mutex<Hold>,
    changed: Condvar,
}

#[derive(Debug, PartialEq)]
enum Hold {
    Open,
    Armed,
    Holding,
}

impl HeldJournal {
    fn set(&self, hold: Hold) {
        *self.hold.lock() = hold;
        self.changed.notify_all();
    }

    fn wait_holding(&self) {
        let mut hold = self.hold.lock();
        while *hold != Hold::Holding {
            self.changed.wait(&mut hold);
        }
    }
}

impl Journal for HeldJournal {
    fn append(&self, record: &JournalRecord) -> mq::MqResult<()> {
        let mut hold = self.hold.lock();
        if *hold == Hold::Armed {
            // Only the append that trips the hold waits; later ones pass.
            *hold = Hold::Holding;
            self.changed.notify_all();
            while *hold == Hold::Holding {
                self.changed.wait(&mut hold);
            }
        }
        drop(hold);
        self.inner.append(record)
    }

    fn replay(&self, sink: &mut mq::journal::ReplaySink<'_>) -> mq::MqResult<()> {
        self.inner.replay(sink)
    }

    fn reset(&self) -> mq::MqResult<()> {
        self.inner.reset()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

/// A crashed sender's mover is still inside its delivery — the receiver
/// has checked the envelope against the dedup window and is writing the
/// arrival record — when the restarted sender's mover delivers the same
/// envelope over a second transport. The check, the commit and the
/// recording of the key are not one step, so the key is reserved at the
/// check: the successor is refused while the zombie's arrival is in doubt,
/// and its resend is a duplicate. (Over TCP the two arrivals cannot
/// overlap — the reactor serializes a manager's arrivals — so the race is
/// staged on scripted transports, which deliver on the movers' threads.)
#[test]
fn zombie_mover_and_its_successor_deliver_the_same_envelope_once() {
    let held = Arc::new(HeldJournal {
        inner: MemJournal::new(),
        hold: Mutex::new(Hold::Open),
        changed: Condvar::new(),
    });
    let b = QueueManager::builder("QB").journal(held.clone()).build().unwrap();
    b.create_queue(DEST_QUEUE).unwrap();
    let journal = MemJournal::new();
    let sender = || QueueManager::builder("QA").journal(journal.clone()).build().unwrap();
    let depth = || b.queue(DEST_QUEUE).unwrap().depth();

    let a = sender();
    held.set(Hold::Armed);
    let zombie = ScriptedTransport::new(b.clone(), Vec::new());
    let zombie = Channel::connect_transport(&a, "QB", zombie).unwrap();
    let msg = Message::text("0").persistent(true).build();
    a.put_to(&QueueAddress::new("QB", DEST_QUEUE), msg).unwrap();
    held.wait_holding();
    a.crash();

    // The successor finds the envelope still on the transmission queue (the
    // zombie never committed its handoff) and delivers it over its own
    // transport while the zombie's arrival record is being written.
    let a = sender();
    let second = ScriptedTransport::new(b.clone(), Vec::new());
    let successor = Channel::connect_transport(&a, "QB", second.clone()).unwrap();
    wait_for("the successor's first delivery to return", Duration::from_secs(10), || {
        second.submitted().len() >= 2 || depth() == 1
    });
    let mut delivered = Vec::new();
    delivered.extend(b.get(DEST_QUEUE, Wait::NoWait).unwrap());
    held.set(Hold::Open);
    wait_for("both movers to settle", Duration::from_secs(10), || {
        a.queue("SYSTEM.XMIT.QB").unwrap().depth() == 0
            && b.relay_stats().delivered_local.get() + b.relay_stats().duplicates.get() == 2
    });
    drop(successor);
    drop(zombie);
    delivered.extend(b.get(DEST_QUEUE, Wait::NoWait).unwrap());
    assert_eq!(delivered.len(), 1, "delivered once: {delivered:?}");
    assert_eq!(depth(), 0);
    assert_eq!(b.relay_stats().delivered_local.get(), 1);
    assert_eq!(b.relay_stats().duplicates.get(), 1);
}

#[test]
fn failed_batch_append_accepts_nothing_and_the_resend_lands_once() {
    let journal = MemJournal::new();
    let b = receiver(&journal);
    let arriving = batch(0..6);
    let records = journal.record_count();
    journal.set_failing(true);
    assert!(b.accept_batch(arriving.clone()).is_err());
    assert_eq!(visible(&b), [] as [u32; 0], "no message on any queue");
    assert_eq!(journal.record_count(), records);
    assert_eq!(b.metrics_snapshot().counter("mq.relay.forwarded"), 0);
    journal.set_failing(false);
    // Nothing entered the dedup window: the resend is new in full ...
    assert_eq!(b.accept_batch(arriving.clone()).unwrap(), accepted(6, 0));
    assert_eq!(visible(&b), [0, 1, 2, 3, 4, 5]);
    assert_eq!(journal.record_count(), records + 1, "one record per batch");
    // ... and only now is it a duplicate in full.
    assert_eq!(b.accept_batch(arriving).unwrap(), accepted(0, 6));
    assert_eq!(visible(&b), [0, 1, 2, 3, 4, 5]);
}

#[test]
fn batch_record_torn_at_a_crash_rolls_the_whole_batch_back() {
    let journal = MemJournal::new();
    let b = receiver(&journal);
    let first = batch(0..4);
    let torn = batch(4..10);
    b.accept_batch(first.clone()).unwrap();
    b.accept_batch(torn.clone()).unwrap();
    b.crash();
    assert!(journal.tear_tail(), "the second batch's record never made it");

    let b = receiver(&journal);
    assert_eq!(visible(&b), [0, 1, 2, 3], "none of the torn batch");
    // Recovery reseeded the window from the surviving TxCommit's puts —
    // local and relayed alike — and from nothing else.
    assert_eq!(b.accept_batch(first).unwrap(), accepted(0, 4));
    assert_eq!(b.accept_batch(torn).unwrap(), accepted(6, 0));
    assert_eq!(visible(&b), (0..10).collect::<Vec<u32>>());
}

#[test]
fn overlapping_resend_accepts_only_what_is_new() {
    let journal = MemJournal::new();
    let b = receiver(&journal);
    let all = batch(0..8);
    b.accept_batch(all[..4].to_vec()).unwrap();
    // The resend overlaps the earlier batch and repeats one of its own.
    let mut resend = all.clone();
    resend.push(all[6].clone());
    assert_eq!(b.accept_batch(resend).unwrap(), accepted(4, 5));
    assert_eq!(visible(&b), [0, 1, 2, 3, 4, 5, 6, 7]);
    let Some(JournalRecord::TxCommit { puts, gets, .. }) = journal.replay_collect().unwrap().pop()
    else {
        panic!("the arrival record is a TxCommit");
    };
    assert!(gets.is_empty());
    assert_eq!(puts.len(), 4, "the record carries the new envelopes only");
    let metrics = b.metrics_snapshot();
    assert_eq!(metrics.counter("mq.relay.duplicates"), 5);
    assert_eq!(metrics.counter("mq.relay.delivered_local"), 4);
    assert_eq!(metrics.counter("mq.relay.forwarded"), 4);
}
