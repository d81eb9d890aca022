//! Relay federation: multi-hop routing of in-transit envelopes across a
//! cluster of queue managers.
//!
//! A single channel connects two managers; a *federation* is a graph of
//! such channels where no manager needs a direct channel to every other.
//! An envelope addressed to manager `C` may arrive at `B` first — `B`
//! must then act as a **relay**: re-resolve the destination through its
//! routing table (explicit route group or default next-hop route) and
//! re-enqueue the envelope on the matching outbound transmission queue.
//! This module is that relay decision — made for a whole transport batch
//! at a time ([`QueueManager::accept_batch`], the one arrival path of
//! every transport) — plus the two guarantees that make multi-hop
//! forwarding safe:
//!
//! * **Auditable custody handoff.** Accepting in-transit envelopes and
//!   re-enqueuing them downstream is the arrival batch's one `TxCommit`
//!   journal record — a crash between accept and re-enqueue rolls back
//!   to "never accepted", and the upstream sender's retry re-runs the
//!   relay decision. Each envelope carries its origin, destination and
//!   hop count as properties, so the journal reads as a chain of custody.
//! * **Federation-wide exactly-once.** Every arriving envelope is
//!   checked against a manager-level sliding-window `Deduper` keyed by
//!   *(origin manager, message id)* — a key that is stable across hops,
//!   transports and sender retries, unlike the per-connection sequence
//!   numbers of any one channel. The window is reseeded from the journal
//!   on recovery, so a restart during a sender's retry cannot
//!   double-deliver.
//!
//! Loop prevention is a hop-count header ([`RELAY_HOPS_PROPERTY`])
//! stamped on each forward; exhausting it — or arriving with an expired
//! TTL, or addressing a manager no route covers — dead-letters the
//! envelope with a [`crate::DLQ_REASON_PROPERTY`] naming the relay
//! failure. Misaddressed envelopes are *never* accepted as local
//! delivery and never silently dropped.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use simtime::Time;

use crate::message::{Message, MessageId};
use crate::qmgr::{
    QueueManager, DEAD_LETTER_QUEUE, DLQ_REASON_PROPERTY, XMIT_DEST_MANAGER_PROPERTY,
    XMIT_DEST_QUEUE_PROPERTY,
};
use crate::trace::TraceStage;
use crate::transport::transport_error;
use crate::MqResult;

/// Property naming the queue manager that first wrapped the message for
/// transmission — the stable half of the federation-wide idempotency
/// key. Stamped once at the origin and preserved across every hop *and*
/// on final delivery (the audit trail that lets recovery rebuild dedup
/// keys from journaled messages).
// lint: registry-sink wire-string
pub const RELAY_ORIGIN_PROPERTY: &str = "sys.relay.origin";

/// Property counting custody handoffs an in-transit envelope has taken.
/// Absent means zero (a first-hop envelope); each relay forward
/// increments it, and exceeding [`DEFAULT_MAX_RELAY_HOPS`]
/// dead-letters the envelope — a routing loop burns hops instead of
/// circulating forever.
// lint: registry-sink wire-string
pub const RELAY_HOPS_PROPERTY: &str = "sys.relay.hops";

/// Ceiling on relay hops an in-transit envelope may take.
pub const DEFAULT_MAX_RELAY_HOPS: u32 = 16;

/// Default sliding-window size of the manager-level delivery deduper
/// ([`crate::ManagerConfig::dedup_window`]).
pub const DEFAULT_DEDUP_WINDOW: usize = 16 * 1024;

/// What one arrival commit did with a transport batch
/// ([`QueueManager::accept_batch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAccepted {
    /// Envelopes the commit took custody of: delivered to a local queue,
    /// re-enqueued on an outbound transmission queue, or dead-lettered
    /// with a reason.
    pub accepted: usize,
    /// Envelopes dropped as sender retries: their idempotency key was
    /// inside the dedup window, or appeared earlier in the same batch.
    pub duplicates: usize,
}

/// The fate decided for one fresh envelope; counted and traced once the
/// batch has committed.
enum Fate {
    /// Addressed here: delivered to a local queue (or, naming a queue
    /// that does not exist, to the dead-letter queue).
    Local,
    /// Addressed elsewhere and re-enqueued downstream; the trace detail.
    Forwarded(String),
    /// No viable next hop; the reason stamped on the dead-letter entry.
    DeadLettered(String),
}

/// FNV-1a over the origin-manager name: cheap, deterministic, and stable
/// across restarts — exactly what a journal-reseedable dedup key needs.
fn origin_hash(origin: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in origin.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Sliding-window deduplicator keyed by *(origin manager, message id)*.
///
/// The set answers "seen before?", the deque evicts FIFO once the window
/// is full. One instance lives per queue manager (not per connection):
/// every transport feeding the manager shares it, which is what makes
/// the exactly-once property hold across hops and reconnects.
#[derive(Debug)]
pub(crate) struct Deduper {
    window: usize,
    set: HashSet<(u64, MessageId)>,
    order: VecDeque<(u64, MessageId)>,
    /// Keys of arrival batches that passed the check and have not yet
    /// committed (then [`Deduper::record`]ed) or been refused (then
    /// [`Deduper::release`]d): a second delivery of one is neither fresh
    /// nor a duplicate until the first is settled.
    reserved: HashSet<(u64, MessageId)>,
}

impl Deduper {
    /// Creates a deduper remembering the last `window` keys (min 1).
    pub(crate) fn new(window: usize) -> Deduper {
        let window = window.max(1);
        Deduper {
            window,
            set: HashSet::with_capacity(window.min(4096)),
            order: VecDeque::with_capacity(window.min(4096)),
            reserved: HashSet::new(),
        }
    }

    /// The federation-wide idempotency key of one message: the hash of
    /// its origin manager plus its id; `None` for one that was never
    /// wrapped for a channel.
    pub(crate) fn key_of(msg: &Message) -> Option<(u64, MessageId)> {
        let origin = msg.str_property(RELAY_ORIGIN_PROPERTY)?;
        Some((origin_hash(origin), msg.id()))
    }

    /// The key of `msg` if it came from a manager other than `here`: a
    /// sender stamps its own name on what it wraps, so only what crossed
    /// a channel to `here` carries another origin.
    pub(crate) fn arrival_key(msg: &Message, here: &str) -> Option<(u64, MessageId)> {
        let origin = msg.str_property(RELAY_ORIGIN_PROPERTY)?;
        (origin != here).then(|| (origin_hash(origin), msg.id()))
    }

    /// Of the `arrived` keys, those of envelopes that came back to `here`,
    /// their origin: a put of one is not told apart from an envelope
    /// `here` wrapped, so its record carries the key.
    pub(crate) fn returned<'a>(
        arrived: &'a [(u64, MessageId)],
        here: &str,
    ) -> impl Iterator<Item = (u64, MessageId)> + 'a {
        let here = origin_hash(here);
        arrived.iter().copied().filter(move |(origin, _)| *origin == here)
    }

    /// Remembers what one `TxCommit` record delivered, live under the gate
    /// and on replay alike: the `keys` it carries, then the key of each
    /// put it writes that came from another manager than `here`.
    pub(crate) fn remember<'a>(
        &mut self,
        keys: impl IntoIterator<Item = (u64, MessageId)>,
        written: impl IntoIterator<Item = &'a Message>,
        here: &str,
    ) {
        keys.into_iter().for_each(|key| self.record(key));
        let arrivals = written.into_iter().filter_map(|msg| Deduper::arrival_key(msg, here));
        arrivals.for_each(|key| self.record(key));
    }

    /// Whether `key` is inside the remembered window.
    pub(crate) fn seen(&self, key: &(u64, MessageId)) -> bool {
        self.set.contains(key)
    }

    /// Whether another caller's uncommitted arrival holds `key`.
    pub(crate) fn in_doubt(&self, key: &(u64, MessageId)) -> bool {
        self.reserved.contains(key)
    }

    /// Claims a key not seen before for an arrival about to commit; false
    /// for a duplicate, inside the window or earlier in the same batch.
    pub(crate) fn reserve(&mut self, key: (u64, MessageId)) -> bool {
        !self.seen(&key) && self.reserved.insert(key)
    }

    /// Gives up the claim of a refused arrival: its sender resends.
    pub(crate) fn release(&mut self, key: &(u64, MessageId)) {
        self.reserved.remove(key);
    }

    /// Remembers `key`, evicting the oldest remembered key if full.
    pub(crate) fn record(&mut self, key: (u64, MessageId)) {
        self.reserved.remove(&key);
        if !self.set.insert(key) {
            return;
        }
        self.order.push_back(key);
        while self.order.len() > self.window {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
    }

    /// The remembered keys, oldest first — what a checkpoint snapshots so
    /// recovery can reseed the window even after the arrival records that
    /// built it have been truncated away.
    pub(crate) fn snapshot(&self) -> Vec<(u64, MessageId)> {
        self.order.iter().copied().collect()
    }
}

impl QueueManager {
    /// Accepts one transport batch: the single seam every transport
    /// converges on, called with exactly the envelopes the transport is
    /// about to acknowledge as a unit. The whole batch is one messaging
    /// transaction and one journal record.
    ///
    /// 1. **Dedup** — an *(origin, id)* key inside the window, or seen
    ///    earlier in this batch, is a sender retry: dropped, counted in
    ///    [`BatchAccepted::duplicates`]. The fresh keys are reserved under
    ///    the same lock, so of two transports delivering one envelope at
    ///    once (a crashed sender's zombie mover and its successor) only one
    ///    passes; the other is refused while the first is in doubt.
    /// 2. **Route** — every fresh envelope gets its fate: a local queue
    ///    (transmission headers stripped; an unknown queue dead-letters),
    ///    the outbound transmission queue toward its destination manager
    ///    (hop count stamped), or the dead-letter queue with the relay
    ///    failure as reason (hop budget exhausted, TTL expired, no route).
    ///    Misaddressed envelopes are never accepted as local delivery.
    /// 3. **Commit** — all of them are staged on one [`crate::Session`]
    ///    and committed as one `TxCommit` (puts only, unless a claimant
    ///    took some of them and staged what that caused).
    ///    A relayed envelope's custody transfer is that record: a crash
    ///    before it rolls back to "never accepted" for the whole batch.
    ///
    /// The reserved keys ride the transaction and are recorded under the
    /// mutation gate with its record, so a checkpoint that the commit
    /// takes cannot miss them; a refused commit releases them. After the
    /// commit come the `mq.relay.*` counters and relay trace stages.
    ///
    /// # Errors
    ///
    /// [`crate::MqError::ManagerStopped`], [`crate::MqError::QueueFull`]
    /// (a bounded local queue without room for its share of the batch),
    /// journal failures, [`crate::MqError::Transport`] while another
    /// delivery of one of the envelopes is in doubt or when one carries no
    /// origin. On any error *nothing* of the batch is accepted: the
    /// transport leaves it unacked and the sender resends.
    pub fn accept_batch(self: &Arc<Self>, batch: Vec<Message>) -> MqResult<BatchAccepted> {
        self.check_running()?;
        let arrived = batch.len();
        let Some(keys) = batch.iter().map(Deduper::key_of).collect::<Option<Vec<_>>>() else {
            return Err(transport_error(self.name(), "an envelope without an origin"));
        };
        let (keys, fresh): (Vec<_>, Vec<_>) = {
            let mut dedup = self.delivery_dedup.lock();
            if keys.iter().any(|key| dedup.in_doubt(key)) {
                let reason = "another delivery of the batch is in doubt";
                return Err(transport_error(self.name(), reason));
            }
            let fresh = keys.into_iter().zip(batch);
            fresh.filter(|(key, _)| dedup.reserve(*key)).unzip()
        };
        let now = self.clock().now();
        let fates = match self.commit_arrivals(fresh, keys.clone(), now) {
            Ok(fates) => fates,
            Err(e) => {
                let mut dedup = self.delivery_dedup.lock();
                keys.iter().for_each(|key| dedup.release(key));
                return Err(e);
            }
        };
        // Counted first: what the commit made visible is already moving on,
        // and whoever receives it may look at the counters.
        let accepted = fates.len();
        let duplicates = arrived - accepted;
        self.relay_stats.duplicates.add(duplicates as u64);
        self.stats().received_remote.add(accepted as u64);
        if accepted > 0 {
            self.relay_stats.accept_batch.record(accepted as u64);
        }
        let trace = self.obs().trace();
        for (hops, fate) in fates {
            self.relay_stats.hops.record(hops);
            match fate {
                Fate::Local => self.relay_stats.delivered_local.incr(),
                Fate::Forwarded(detail) => {
                    self.relay_stats.forwarded.incr();
                    self.stats().forwarded.incr();
                    trace.record(now, TraceStage::RelayForwarded, None, None, detail);
                }
                Fate::DeadLettered(reason) => {
                    self.relay_stats.dead_lettered.incr();
                    trace.record(now, TraceStage::RelayDeadLettered, None, None, reason);
                }
            }
        }
        Ok(BatchAccepted {
            accepted,
            duplicates,
        })
    }

    /// Routes and commits the fresh envelopes of one batch, whose dedup
    /// keys are `keys`, as one transaction; the hop count and fate of
    /// each, to count and trace.
    // lint: custody(msg, err-reverts)
    fn commit_arrivals(
        self: &Arc<Self>,
        fresh: Vec<Message>,
        keys: Vec<(u64, MessageId)>,
        now: Time,
    ) -> MqResult<Vec<(u64, Fate)>> {
        let mut session = self.session();
        session.begin_arrival(keys);
        let mut fates = Vec::with_capacity(fresh.len());
        for envelope in fresh {
            let hops = envelope.i64_property(RELAY_HOPS_PROPERTY).unwrap_or(0).max(0) as u64;
            let (queue, msg, fate) = self.route_arrival(envelope, hops, now);
            // A refused put drops the session, which discards every put
            // staged so far.
            session.put(&queue, msg)?;
            fates.push((hops, fate));
        }
        session.commit()?;
        Ok(fates)
    }

    /// Decides where one fresh envelope goes: the queue to stage it on,
    /// the message as it will be enqueued there, and the fate to count.
    // lint: custody(msg)
    fn route_arrival(&self, mut msg: Message, hops: u64, now: Time) -> (String, Message, Fate) {
        let dest = match msg.str_property(XMIT_DEST_MANAGER_PROPERTY) {
            Some(dest) if dest != self.name() => dest.to_owned(),
            _ => {
                // The envelope comes off in one rewrite of the properties,
                // with the dead-letter reason when there is one.
                let queue = msg
                    .str_property(XMIT_DEST_QUEUE_PROPERTY)
                    .unwrap_or_default()
                    .to_owned();
                let envelope = [XMIT_DEST_QUEUE_PROPERTY, XMIT_DEST_MANAGER_PROPERTY];
                if self.queue_exists(&queue) {
                    msg.edit_properties(&envelope, &[]);
                    return (queue, msg, Fate::Local);
                }
                let reason = format!("unknown queue {queue}");
                msg.edit_properties(&envelope, &[(DLQ_REASON_PROPERTY, reason.as_str().into())]);
                return (DEAD_LETTER_QUEUE.to_owned(), msg, Fate::Local);
            }
        };
        let max_hops = u64::from(DEFAULT_MAX_RELAY_HOPS);
        let next_hop = if hops >= max_hops {
            Err(format!(
                "relay hop count exhausted ({hops}/{max_hops}) en route to {dest}"
            ))
        } else if msg.is_expired(now) {
            Err(format!("relay ttl expired en route to {dest}"))
        } else {
            self.route_for_message(&dest, msg.id())
                .ok_or_else(|| format!("no route to manager {dest}"))
        };
        match next_hop {
            Ok(xmit) => {
                let next_hops = hops + 1;
                msg.set_property(RELAY_HOPS_PROPERTY, next_hops as i64);
                let detail = format!("dest={dest} via={xmit} hops={next_hops}");
                (xmit, msg, Fate::Forwarded(detail))
            }
            Err(reason) => {
                // Transmission headers stay on the entry, so the DLQ shows
                // where it was trying to go; the expiry is cleared — an
                // audit record must stay inspectable, not evaporate.
                msg.set_property(DLQ_REASON_PROPERTY, reason.as_str());
                msg.clear_expiry();
                (DEAD_LETTER_QUEUE.to_owned(), msg, Fate::DeadLettered(reason))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalRecord, MemJournal};
    use crate::message::QueueAddress;
    use crate::queue::Wait;
    use crate::MqError;
    use simtime::{Clock, Millis, SimClock};

    fn manager(name: &str) -> Arc<QueueManager> {
        QueueManager::builder(name)
            .clock(SimClock::new())
            .build()
            .unwrap()
    }

    /// An in-transit envelope addressed to `mgr/queue`, as a sending
    /// manager's transmission queue would stage it.
    fn envelope(origin: &Arc<QueueManager>, mgr: &str, queue: &str, text: &str) -> Message {
        origin.wrap_for_transmission(
            &QueueAddress::new(mgr, queue),
            Message::text(text).persistent(true).build(),
        )
    }

    const ONE: BatchAccepted = BatchAccepted {
        accepted: 1,
        duplicates: 0,
    };
    const DUPLICATE: BatchAccepted = BatchAccepted {
        accepted: 0,
        duplicates: 1,
    };

    fn dlq_reason(qm: &QueueManager) -> String {
        let dlq = qm.get(DEAD_LETTER_QUEUE, Wait::NoWait).unwrap().unwrap();
        dlq.str_property(DLQ_REASON_PROPERTY).unwrap().to_owned()
    }

    #[test]
    fn deduper_window_evicts_fifo() {
        let mut d = Deduper::new(2);
        let keys: Vec<(u64, MessageId)> = (0..3)
            .map(|i| (origin_hash("QM"), MessageId::from_u128(i)))
            .collect();
        d.record(keys[0]);
        d.record(keys[1]);
        assert!(d.seen(&keys[0]) && d.seen(&keys[1]));
        d.record(keys[2]);
        assert!(!d.seen(&keys[0]), "oldest key must be evicted");
        assert!(d.seen(&keys[1]) && d.seen(&keys[2]));
    }

    #[test]
    fn configured_window_overflow_forgets_oldest_retransmit() {
        // The window size flows from ManagerConfig into the delivery
        // deduper; once more distinct envelopes than the window have been
        // accepted, a (pathologically late) retransmit of the oldest one
        // is no longer recognized — the documented bound on the
        // exactly-once guarantee — while everything still inside the
        // window keeps deduplicating.
        let qm = QueueManager::builder("QM.B")
            .clock(SimClock::new())
            .config(crate::ManagerConfig {
                dedup_window: 3,
                ..crate::ManagerConfig::default()
            })
            .build()
            .unwrap();
        qm.create_queue("Q.IN").unwrap();
        let origin = manager("QM.A");
        let envs: Vec<Message> = (0..4)
            .map(|i| envelope(&origin, "QM.B", "Q.IN", &format!("m{i}")))
            .collect();
        for env in &envs {
            assert_eq!(qm.accept_batch(vec![env.clone()]).unwrap(), ONE);
        }
        // envs[0] has been pushed out of the 3-deep window by envs[1..4].
        assert_eq!(
            qm.accept_batch(vec![envs[0].clone()]).unwrap(),
            ONE,
            "evicted key is accepted again"
        );
        // envs[3] is still inside the window.
        assert_eq!(qm.accept_batch(vec![envs[3].clone()]).unwrap(), DUPLICATE);
        // The re-accepted copy of envs[0] landed on the queue, where the
        // id-keyed store superseded the still-queued original — depth
        // stays 4, but a consumer that had already taken envs[0] would
        // have seen it twice.
        assert_eq!(qm.queue("Q.IN").unwrap().depth(), 4);
    }

    #[test]
    fn origin_hash_distinguishes_managers() {
        assert_ne!(origin_hash("QM.A"), origin_hash("QM.B"));
        assert_eq!(origin_hash("QM.A"), origin_hash("QM.A"));
    }

    #[test]
    fn local_envelope_is_delivered_and_retried_delivery_dedups() {
        let qm = manager("QM.B");
        qm.create_queue("Q.IN").unwrap();
        let origin = manager("QM.A");
        let env = envelope(&origin, "QM.B", "Q.IN", "hello");
        assert_eq!(qm.accept_batch(vec![env.clone()]).unwrap(), ONE);
        // The sender never saw the ack and retries the same envelope.
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), DUPLICATE);
        assert_eq!(qm.queue("Q.IN").unwrap().depth(), 1);
        assert_eq!(qm.relay_stats().duplicates.get(), 1);
        assert_eq!(qm.relay_stats().delivered_local.get(), 1);
        // Delivered message keeps the origin audit property.
        let got = qm.get("Q.IN", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.str_property(RELAY_ORIGIN_PROPERTY), Some("QM.A"));
        assert_eq!(got.str_property(XMIT_DEST_MANAGER_PROPERTY), None);
        assert_eq!(got.str_property(XMIT_DEST_QUEUE_PROPERTY), None);
    }

    #[test]
    fn unknown_local_queue_dead_letters_on_the_local_path() {
        let qm = manager("QM.B");
        let origin = manager("QM.A");
        let env = envelope(&origin, "QM.B", "NOPE", "lost?");
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        assert!(dlq_reason(&qm).contains("unknown queue NOPE"));
        assert_eq!(qm.stats().received_remote.get(), 1);
        assert_eq!(qm.relay_stats().dead_lettered.get(), 0, "not a relay failure");
    }

    #[test]
    fn misaddressed_envelope_is_relayed_not_accepted_locally() {
        let qm = manager("QM.B");
        qm.create_queue("Q.IN").unwrap();
        qm.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();
        let origin = manager("QM.A");
        // Addressed to C but handed to B — B must forward, not deliver.
        let env = envelope(&origin, "QM.C", "Q.IN", "for C");
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        assert_eq!(qm.queue("Q.IN").unwrap().depth(), 0, "must not be local");
        let staged = qm.queue("SYSTEM.XMIT.QM.C").unwrap().browse();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].str_property(XMIT_DEST_MANAGER_PROPERTY), Some("QM.C"));
        assert_eq!(staged[0].i64_property(RELAY_HOPS_PROPERTY), Some(1));
        assert_eq!(qm.relay_stats().forwarded.get(), 1);
    }

    #[test]
    fn unknown_destination_manager_dead_letters_with_reason() {
        let qm = manager("QM.B");
        let origin = manager("QM.A");
        let env = envelope(&origin, "QM.NOWHERE", "Q", "lost?");
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        let dlq = qm.get(DEAD_LETTER_QUEUE, Wait::NoWait).unwrap().unwrap();
        let reason = dlq.str_property(DLQ_REASON_PROPERTY).unwrap();
        assert!(reason.contains("no route to manager QM.NOWHERE"), "{reason}");
        // Audit headers survive on the DLQ entry.
        assert_eq!(dlq.str_property(XMIT_DEST_MANAGER_PROPERTY), Some("QM.NOWHERE"));
        assert_eq!(qm.relay_stats().dead_lettered.get(), 1);
    }

    #[test]
    fn hop_exhaustion_dead_letters_with_reason() {
        let qm = manager("QM.B");
        qm.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();
        let origin = manager("QM.A");
        let mut env = envelope(&origin, "QM.C", "Q", "looping");
        env.set_property(RELAY_HOPS_PROPERTY, i64::from(DEFAULT_MAX_RELAY_HOPS));
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        let reason = dlq_reason(&qm);
        assert!(reason.contains("hop count exhausted"), "{reason}");
        assert_eq!(qm.queue("SYSTEM.XMIT.QM.C").unwrap().depth(), 0);
    }

    #[test]
    fn expired_ttl_dead_letters_instead_of_forwarding() {
        let clock = SimClock::new();
        let qm = QueueManager::builder("QM.B")
            .clock(clock.clone())
            .build()
            .unwrap();
        qm.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();
        let origin = manager("QM.A");
        let inner = Message::text("stale")
            .persistent(true)
            .ttl(Millis(5))
            .build();
        let mut env = origin.wrap_for_transmission(&QueueAddress::new("QM.C", "Q"), inner);
        env.stamp_enqueue(clock.now());
        clock.advance(Millis(50));
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        let reason = dlq_reason(&qm);
        assert!(reason.contains("ttl expired"), "{reason}");
    }

    #[test]
    fn mixed_batch_is_one_record_and_duplicates_inside_it_are_dropped() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM.B")
            .clock(SimClock::new())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q.IN").unwrap();
        qm.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();
        let origin = manager("QM.A");
        let local = envelope(&origin, "QM.B", "Q.IN", "local");
        let onward = envelope(&origin, "QM.C", "Q.FAR", "onward");
        let lost = envelope(&origin, "QM.NOWHERE", "Q", "lost");
        let before = journal.record_count();
        let arrival = qm
            .accept_batch(vec![local.clone(), onward, local, lost])
            .unwrap();
        assert_eq!(
            arrival,
            BatchAccepted {
                accepted: 3,
                duplicates: 1
            }
        );
        let records = journal.replay_collect().unwrap();
        assert_eq!(records.len(), before + 1, "one record for the whole batch");
        let Some(JournalRecord::TxCommit { puts, gets, .. }) = records.last() else {
            panic!("arrival record is a TxCommit: {records:?}");
        };
        assert!(gets.is_empty());
        let queues: Vec<&str> = puts.iter().map(|(q, _)| &**q).collect();
        assert_eq!(queues, ["Q.IN", "SYSTEM.XMIT.QM.C", DEAD_LETTER_QUEUE]);
        assert!(puts[2].1.str_property(DLQ_REASON_PROPERTY).is_some());
        let stats = qm.relay_stats();
        assert_eq!(stats.delivered_local.get(), 1);
        assert_eq!(stats.forwarded.get(), 1);
        assert_eq!(stats.dead_lettered.get(), 1);
        assert_eq!(stats.duplicates.get(), 1);
        assert_eq!(stats.accept_batch.count(), 1);
        assert_eq!(stats.accept_batch.sum(), 3);
    }

    #[test]
    fn custody_transfer_is_journaled_and_survives_crash() {
        let journal = MemJournal::new();
        let clock = SimClock::new();
        let qm = QueueManager::builder("QM.B")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();
        let origin = manager("QM.A");
        let env = envelope(&origin, "QM.C", "Q.FAR", "persist me");
        let id = env.id();
        qm.accept_batch(vec![env.clone()]).unwrap();
        qm.crash();
        let qm2 = QueueManager::builder("QM.B")
            .clock(clock)
            .journal(journal)
            .build()
            .unwrap();
        // The arrival record restored the envelope on the xmit queue…
        let staged = qm2.queue("SYSTEM.XMIT.QM.C").unwrap().browse();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].id(), id);
        // …and reseeded the dedup window: the upstream retry is dropped.
        assert_eq!(qm2.accept_batch(vec![env]).unwrap(), DUPLICATE);
        assert_eq!(qm2.queue("SYSTEM.XMIT.QM.C").unwrap().depth(), 1);
    }

    #[test]
    fn dedup_window_survives_checkpoint_truncation() {
        // A checkpoint truncates the arrival records the dedup window was
        // rebuilt from; the CheckpointStart snapshot must carry the window
        // itself, or a post-crash retry would be double-delivered.
        let journal = MemJournal::new();
        let clock = SimClock::new();
        let qm = QueueManager::builder("QM.B")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q.IN").unwrap();
        let origin = manager("QM.A");
        let env = envelope(&origin, "QM.B", "Q.IN", "once only");
        assert_eq!(qm.accept_batch(vec![env.clone()]).unwrap(), ONE);
        qm.checkpoint().unwrap();
        qm.crash();
        let qm2 = QueueManager::builder("QM.B")
            .clock(clock)
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.accept_batch(vec![env]).unwrap(), DUPLICATE);
        assert_eq!(qm2.queue("Q.IN").unwrap().depth(), 1, "no double delivery");
    }

    /// Replay rebuilds the window the live path built: only channel
    /// arrivals enter it, so local puts replayed after an arrival do not
    /// evict its key, and its resend after a restart is still dropped.
    #[test]
    fn local_puts_replayed_after_an_arrival_do_not_evict_its_key() {
        let journal = MemJournal::new();
        let build = || {
            let config = crate::ManagerConfig { dedup_window: 3, ..Default::default() };
            let qm = QueueManager::builder("QM.B").journal(journal.clone()).config(config);
            qm.build().unwrap()
        };
        let qm = build();
        qm.create_queue("Q.IN").unwrap();
        let env = envelope(&manager("QM.A"), "QM.B", "Q.IN", "once only");
        assert_eq!(qm.accept_batch(vec![env.clone()]).unwrap(), ONE);
        for i in 0..3 {
            qm.put("Q.IN", Message::text(format!("local {i}")).persistent(true).build())
                .unwrap();
        }
        assert_eq!(qm.accept_batch(vec![env.clone()]).unwrap(), DUPLICATE, "live");
        qm.crash();
        let qm2 = build();
        assert_eq!(qm2.accept_batch(vec![env]).unwrap(), DUPLICATE, "after replay");
        assert_eq!(qm2.queue("Q.IN").unwrap().depth(), 4, "no double delivery");
    }

    /// Replay rebuilds the window exactly as the live path built it, from
    /// a checkpoint's snapshot (whose image holds an arrival the window
    /// has evicted) and the records after it: an envelope back at its
    /// origin, a received message put again, a local put and an envelope
    /// of the manager's own.
    #[test]
    fn replay_rebuilds_the_window_the_live_path_built() {
        let journal = MemJournal::new();
        let build = || {
            let config = crate::ManagerConfig { dedup_window: 3, ..Default::default() };
            let qm = QueueManager::builder("QM.B").journal(journal.clone()).config(config);
            qm.build().unwrap()
        };
        let window = |qm: &QueueManager| qm.delivery_dedup.lock().snapshot();
        let durable = |text: &str| Message::text(text).persistent(true).build();
        let qm = build();
        qm.create_queue("Q.IN").unwrap();
        qm.create_queue("Q.OTHER").unwrap();
        qm.define_route("QM.C", "SYSTEM.XMIT.QM.C").unwrap();
        let origin = manager("QM.A");
        for (i, queue) in ["Q.IN", "Q.OTHER", "Q.OTHER", "Q.OTHER"].into_iter().enumerate() {
            let env = envelope(&origin, "QM.B", queue, &format!("from A {i}"));
            assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        }
        while qm.get("Q.OTHER", Wait::NoWait).unwrap().is_some() {}
        qm.checkpoint().unwrap();
        let home = envelope(&qm, "QM.B", "Q.IN", "back home");
        assert_eq!(qm.accept_batch(vec![home.clone()]).unwrap(), ONE);
        let received = qm.get("Q.IN", Wait::NoWait).unwrap().unwrap();
        qm.put("Q.OTHER", received).unwrap();
        qm.put_to(&QueueAddress::new("QM.C", "Q.FAR"), durable("outbound")).unwrap();
        qm.put("Q.IN", durable("local")).unwrap();
        let live = window(&qm);
        qm.crash();
        let qm2 = build();
        assert_eq!(window(&qm2), live);
        assert_eq!(qm2.accept_batch(vec![home]).unwrap(), DUPLICATE);
    }

    #[test]
    fn an_envelope_without_an_origin_is_refused_with_its_batch() {
        let qm = manager("QM.B");
        qm.create_queue("Q.IN").unwrap();
        let env = envelope(&manager("QM.A"), "QM.B", "Q.IN", "fine");
        let bare = Message::text("bare")
            .persistent(true)
            .property(XMIT_DEST_QUEUE_PROPERTY, "Q.IN")
            .property(XMIT_DEST_MANAGER_PROPERTY, "QM.B")
            .build();
        let refused = qm.accept_batch(vec![env.clone(), bare]);
        assert!(matches!(refused, Err(MqError::Transport { .. })), "{refused:?}");
        assert_eq!(qm.queue("Q.IN").unwrap().depth(), 0);
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
    }

    #[test]
    fn default_route_forwards_unknown_managers() {
        let qm = manager("QM.B");
        qm.define_default_route(&["SYSTEM.XMIT.NEXT"]).unwrap();
        let origin = manager("QM.A");
        let env = envelope(&origin, "QM.Z", "Q", "via default");
        assert_eq!(qm.accept_batch(vec![env]).unwrap(), ONE);
        assert_eq!(qm.queue("SYSTEM.XMIT.NEXT").unwrap().depth(), 1);
    }

    #[test]
    fn an_explicit_route_wins_over_the_default_and_a_redefinition_replaces_it() {
        let qm = manager("QM.B");
        qm.define_default_route(&["XMIT.NEXT"]).unwrap();
        qm.define_route_group("QM.C", &["XMIT.C1", "XMIT.C2"]).unwrap();
        let ids: Vec<MessageId> = (0..16).map(|i| MessageId::from_parts(0x5eed, i)).collect();
        let picks = |manager: &str| -> std::collections::BTreeSet<String> {
            ids.iter()
                .map(|id| qm.route_for_message(manager, *id).unwrap())
                .collect()
        };
        let group = ["XMIT.C1".to_owned(), "XMIT.C2".to_owned()];
        assert_eq!(picks("QM.C"), group.into_iter().collect());
        assert_eq!(picks("QM.Z"), ["XMIT.NEXT".to_owned()].into());
        // Redefining a manager's route replaces its whole group; the
        // default still serves every other manager.
        qm.define_route("QM.C", "XMIT.C3").unwrap();
        assert_eq!(picks("QM.C"), ["XMIT.C3".to_owned()].into());
        assert_eq!(picks("QM.Z"), ["XMIT.NEXT".to_owned()].into());
        // Redefining the default leaves the explicit route alone.
        qm.define_default_route(&["XMIT.OTHER"]).unwrap();
        assert_eq!(picks("QM.C"), ["XMIT.C3".to_owned()].into());
        assert_eq!(picks("QM.Z"), ["XMIT.OTHER".to_owned()].into());
        // And the relay forwards by the same table.
        let origin = manager("QM.A");
        let batch = vec![
            envelope(&origin, "QM.C", "Q", "explicit"),
            envelope(&origin, "QM.Z", "Q", "default"),
        ];
        qm.accept_batch(batch).unwrap();
        for (xmit, depth) in [("XMIT.C3", 1), ("XMIT.OTHER", 1), ("XMIT.NEXT", 0)] {
            assert_eq!(qm.queue(xmit).unwrap().depth(), depth, "{xmit}");
        }
        for xmit in ["XMIT.C1", "XMIT.C2"] {
            assert_eq!(qm.queue(xmit).unwrap().depth(), 0, "{xmit}");
        }
    }

    #[test]
    fn route_group_selection_is_deterministic_per_message() {
        let qm = manager("QM.B");
        qm.define_route_group("QM.C", &["XMIT.C1", "XMIT.C2"]).unwrap();
        let id = MessageId::generate();
        let first = qm.route_for_message("QM.C", id).unwrap();
        for _ in 0..10 {
            assert_eq!(qm.route_for_message("QM.C", id).unwrap(), first);
        }
        // And both targets are reachable across ids, also along the
        // sequences a send with a fixed number of ids per message leaves.
        for stride in [1, 2, 4] {
            let mut hit = std::collections::HashSet::new();
            for i in 0..16 {
                let id = MessageId::from_parts(0x5eed, 1000 + i * stride);
                hit.insert(qm.route_for_message("QM.C", id).unwrap());
            }
            assert_eq!(hit.len(), 2, "stride {stride}");
        }
    }

    #[test]
    fn stopped_manager_rejects_batches() {
        let qm = manager("QM.B");
        qm.crash();
        let origin = manager("QM.A");
        let err = qm
            .accept_batch(vec![envelope(&origin, "QM.B", "Q", "x")])
            .unwrap_err();
        assert!(matches!(err, MqError::ManagerStopped(_)));
    }
}
