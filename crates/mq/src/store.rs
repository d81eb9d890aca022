//! The in-memory message store behind a [`crate::Queue`]: an id-keyed map
//! of live messages plus the structures that make queue reads cheap —
//! priority bands for delivery order, one secondary index (correlation id
//! → message ids, the key the conditional layer reads every message by),
//! an expiry heap for TTL sweeps, and the pending-get table that keeps
//! transactionally-consumed messages visible to checkpoints.
//!
//! The store is the *cache* side of the storage inversion: the journal is
//! the primary copy of persistent state, and everything here can be
//! rebuilt from a checkpoint plus the journal tail. Consequently the store
//! never journals anything itself; the owning queue drives journaling and
//! the store only maintains structure invariants:
//!
//! * `entries` is authoritative for liveness — `entries.len()` is the
//!   queue depth.
//! * Band deques and the expiry heap may hold **stale ids** (messages
//!   removed through another path); readers skip and prune them lazily.
//!   A correlation bucket holds exactly the live messages with that id:
//!   a removal takes its id out, and the bucket goes once empty, so the
//!   index is bounded by the live messages that carry a correlation id.
//!   A removal also drops the stale ids at either end of its band.
//! * No table keeps the size of its peak: one that removals leave below a
//!   quarter of its capacity shrinks to twice its length, once it is
//!   larger than [`SHRINK_ABOVE`] (so a queue that goes from empty to one
//!   message and back does not reallocate each time).
//! * Ids are hashed with [`crate::IdHasher`] (keyed per process): the
//!   message id tables, and the index of correlation ids of 32 hex digits,
//!   keyed by their value. A
//!   correlation id of any other form is application text and keeps the
//!   default hasher.
//! * Every live message has a **sequence number**: back-inserts count up
//!   from the midpoint, front-inserts (rollback requeues) count down, so
//!   "lowest seq wins within a priority band" reproduces exact FIFO
//!   delivery order — the property that lets a correlation read pick the
//!   same message a full band scan would.
//! * `pending` holds messages provisionally consumed by open transactions
//!   (journal-covered-later gets). They are invisible to reads but are
//!   included in checkpoint snapshots, each at the position it was taken
//!   from: the journal records that would rebuild them are truncated by
//!   the checkpoint, so the snapshot must carry them or a crash before
//!   commit would lose them — or restore them behind messages queued
//!   after them.

use std::borrow::Borrow;
use std::collections::hash_map;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use simtime::Time;

use crate::message::{Correlation, CorrelationKey, IdMap, Message, MessageId};
use crate::queue::Getter;

/// Number of priority bands (JMS priorities 0–9).
pub(crate) const PRIORITY_BANDS: usize = 10;

/// One live message plus its delivery-order sequence number.
pub(crate) struct Entry {
    pub(crate) msg: Arc<Message>,
    pub(crate) seq: u64,
}

/// The priority band a message is queued in.
fn band_of(msg: &Message) -> usize {
    usize::from(msg.priority().level()).min(PRIORITY_BANDS - 1)
}

/// Takes the `Message` out of a store handle: free when no browse snapshot
/// shares it, a deep clone only when one does.
pub(crate) fn unshare(msg: Arc<Message>) -> Message {
    Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone())
}

/// The capacity a table must exceed before removals shrink it.
pub(crate) const SHRINK_ABOVE: usize = 64;

/// Shrinks `table` to twice its length once it is below a quarter of its
/// capacity and that capacity exceeds [`SHRINK_ABOVE`].
fn shrink_map<K: Eq + Hash, V, S: BuildHasher>(table: &mut HashMap<K, V, S>) {
    if table.capacity() > SHRINK_ABOVE && table.len() < table.capacity() / 4 {
        table.shrink_to(table.len() * 2);
    }
}

/// [`shrink_map`]'s rule for a band.
fn shrink_band(band: &mut VecDeque<MessageId>) {
    if band.capacity() > SHRINK_ABOVE && band.len() < band.capacity() / 4 {
        band.shrink_to(band.len() * 2);
    }
}

/// A correlation id of 32 hex digits, keyed by its value as two halves:
/// a `u128` would align every slot of the index to 16 bytes.
#[derive(PartialEq, Eq)]
struct HexKey(u64, u64);

impl HexKey {
    fn of(value: u128) -> HexKey {
        HexKey((value >> 64) as u64, value as u64)
    }
}

impl Hash for HexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(u128::from(self.0) << 64 | u128::from(self.1));
    }
}

/// The live messages carrying one correlation id. Most ids are carried
/// by one message per queue, held in place rather than in a vector, as
/// its two halves: a `u128` would align the bucket, and every slot of the
/// index with it, to 16 bytes.
enum Bucket {
    One(u64, u64),
    Many(Vec<MessageId>),
}

impl Bucket {
    fn one(id: MessageId) -> Bucket {
        let id = id.as_u128();
        Bucket::One((id >> 64) as u64, id as u64)
    }

    fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        let (one, many) = match self {
            Bucket::One(high, low) => {
                let id = u128::from(*high) << 64 | u128::from(*low);
                (Some(MessageId::from_u128(id)), &[][..])
            }
            Bucket::Many(ids) => (None, &ids[..]),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// Adds `id` to the bucket at `entry`, making it if there is none.
    fn add<K>(entry: hash_map::Entry<'_, K, Bucket>, id: MessageId) {
        entry
            .and_modify(|bucket| bucket.push(id))
            .or_insert_with(|| Bucket::one(id));
    }

    /// Takes `id` out of the bucket at `key` in `index`, and the bucket
    /// out once it is empty.
    fn take<K, Q, S>(index: &mut HashMap<K, Bucket, S>, key: &Q, id: MessageId)
    where
        K: Borrow<Q> + Eq + Hash,
        Q: Eq + Hash + ?Sized,
        S: BuildHasher,
    {
        if index.get_mut(key).is_some_and(|bucket| bucket.remove(id)) {
            index.remove(key);
            shrink_map(index);
        }
    }

    fn push(&mut self, id: MessageId) {
        match self {
            Bucket::One(..) => *self = Bucket::Many(self.ids().chain([id]).collect()),
            Bucket::Many(ids) => ids.push(id),
        }
    }

    /// Takes `id` out; whether the bucket is left empty.
    fn remove(&mut self, id: MessageId) -> bool {
        match self {
            Bucket::One(..) => self.ids().eq([id]),
            Bucket::Many(ids) => {
                ids.retain(|x| *x != id);
                ids.is_empty()
            }
        }
    }
}

/// The id-keyed message map with its secondary structures. Owned by a
/// queue behind its mutex; every method here assumes that exclusion.
pub(crate) struct MessageStore {
    /// One FIFO band of message ids per priority level; may contain stale
    /// ids (messages already removed), skipped lazily.
    pub(crate) bands: [VecDeque<MessageId>; PRIORITY_BANDS],
    /// The live messages. `entries.len()` is the queue depth.
    pub(crate) entries: IdMap<MessageId, Entry>,
    /// Correlation id of 32 hex digits (a conditional message id) → the
    /// live messages carrying it, in no particular order:
    /// [`MessageStore::first_correlated`] ranks them.
    by_hex: IdMap<HexKey, Bucket>,
    /// The same for every other correlation id, keyed by its text.
    by_text: HashMap<Arc<str>, Bucket>,
    /// Min-heap of (expiry millis, id): the TTL sweep pops ripe entries
    /// instead of scanning the queue. May hold stale ids.
    expiry_heap: BinaryHeap<std::cmp::Reverse<(u64, u128)>>,
    /// Messages provisionally consumed by open transactions, still owed
    /// to checkpoint snapshots (see module docs), with the sequence number
    /// they had on the queue.
    pending: IdMap<MessageId, Entry>,
    /// Next sequence number for back-inserts (counts up).
    next_back_seq: u64,
    /// Next sequence number for front-inserts (counts down).
    next_front_seq: u64,
    /// Bumped on every insert (and on close) so blocking consumers can
    /// detect arrivals between releasing the lock and parking.
    version: u64,
    pub(crate) open: bool,
    /// The consumers parked in a get outside a transaction, oldest first:
    /// a commit may hand one of them a put (see `Queue::claim`).
    pub(crate) getters: Vec<Getter>,
    /// The token of the next getter to register.
    pub(crate) next_getter: u64,
}

impl std::fmt::Debug for MessageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageStore")
            .field("depth", &self.entries.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

const SEQ_MIDPOINT: u64 = u64::MAX / 2;

impl MessageStore {
    pub(crate) fn new() -> MessageStore {
        MessageStore {
            bands: Default::default(),
            entries: IdMap::default(),
            by_hex: IdMap::default(),
            by_text: HashMap::new(),
            expiry_heap: BinaryHeap::new(),
            pending: IdMap::default(),
            next_back_seq: SEQ_MIDPOINT,
            next_front_seq: SEQ_MIDPOINT - 1,
            version: 0,
            open: true,
            getters: Vec::new(),
            next_getter: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotonic arrival counter; see the `version` field.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Bumps the arrival counter without an insert (close/wake paths).
    pub(crate) fn bump_version(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    pub(crate) fn get(&self, id: MessageId) -> Option<&Entry> {
        self.entries.get(&id)
    }

    /// Inserts a message at the back (normal put) or front (rollback
    /// requeue) of its priority band, indexing its correlation id.
    // lint: custody(msg)
    pub(crate) fn insert(&mut self, msg: Message, front: bool) {
        let id = msg.id();
        // A rollback requeue returns a pending transactional get; the
        // pending copy is superseded by the live one.
        if !self.pending.is_empty() {
            self.finalize_pending(id);
        }
        let seq = if front {
            let s = self.next_front_seq;
            self.next_front_seq = self.next_front_seq.wrapping_sub(1);
            s
        } else {
            let s = self.next_back_seq;
            self.next_back_seq = self.next_back_seq.wrapping_add(1);
            s
        };
        let band = band_of(&msg);
        if front {
            // A front insert is a rollback requeue: the message's earlier
            // life on this queue may have left a stale band entry behind.
            // Scrub it first so a *live* id never appears twice there
            // (stale ids of dead messages are fine — they prune lazily).
            self.bands[band].retain(|x| *x != id);
            self.bands[band].push_front(id);
        } else {
            self.bands[band].push_back(id);
        }
        match msg.correlation() {
            None => {}
            Some(Correlation::Text(text)) => Bucket::add(self.by_text.entry(Arc::clone(text)), id),
            Some(hex) => {
                let key = HexKey::of(hex.as_u128().unwrap_or_default());
                Bucket::add(self.by_hex.entry(key), id);
            }
        }
        if let Some(expiry) = msg.expiry() {
            self.expiry_heap
                .push(std::cmp::Reverse((expiry.0, id.as_u128())));
        }
        self.entries.insert(id, Entry {
            msg: Arc::new(msg),
            seq,
        });
        self.version = self.version.wrapping_add(1);
    }

    /// Removes a message from the live map and its correlation bucket,
    /// dropping the bucket once empty. Its band entry goes stale, dropped
    /// here when it or the stale ids beside it are at either end of the
    /// band and lazily otherwise; its heap entry is pruned lazily.
    pub(crate) fn detach_arc(&mut self, id: MessageId) -> Option<Arc<Message>> {
        self.detach_entry(id).map(|entry| entry.msg)
    }

    fn detach_entry(&mut self, id: MessageId) -> Option<Entry> {
        let entry = self.entries.remove(&id)?;
        shrink_map(&mut self.entries);
        match entry.msg.correlation() {
            None => {}
            Some(Correlation::Text(text)) => Bucket::take(&mut self.by_text, &**text, id),
            Some(hex) => {
                let key = HexKey::of(hex.as_u128().unwrap_or_default());
                Bucket::take(&mut self.by_hex, &key, id);
            }
        }
        let band = &mut self.bands[band_of(&entry.msg)];
        let stale = |id: &MessageId| !self.entries.contains_key(id);
        while band.front().is_some_and(stale) {
            band.pop_front();
        }
        while band.back().is_some_and(stale) {
            band.pop_back();
        }
        shrink_band(band);
        Some(entry)
    }

    /// Removes a message, handing back an owned copy.
    pub(crate) fn detach(&mut self, id: MessageId) -> Option<Message> {
        self.detach_arc(id).map(unshare)
    }

    /// Removes a message into the pending-get table: invisible to reads,
    /// but still part of checkpoint snapshots until finalized (commit /
    /// dead-letter) or reinserted (rollback).
    pub(crate) fn detach_pending(&mut self, id: MessageId) -> Option<Message> {
        let entry = self.detach_entry(id)?;
        let msg = Arc::clone(&entry.msg);
        self.pending.insert(id, entry);
        Some(unshare(msg))
    }

    /// Drops a pending transactional get after its covering record
    /// (`TxCommit`, dead-letter) is durable.
    pub(crate) fn finalize_pending(&mut self, id: MessageId) {
        self.pending.remove(&id);
        shrink_map(&mut self.pending);
    }

    /// How many transactional gets are currently in flight.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The message with correlation id `correlation` that a band scan
    /// would reach first among those `accept` takes — highest priority,
    /// then lowest sequence number — skipping any expired at `now`.
    /// O(messages carrying that id), not O(depth): the one read behind
    /// correlation gets and peeks.
    pub(crate) fn first_correlated(
        &self,
        correlation: CorrelationKey<'_>,
        now: Time,
        accept: impl Fn(&Message) -> bool,
    ) -> Option<MessageId> {
        let bucket = match correlation {
            CorrelationKey::Value(value) => self.by_hex.get(&HexKey::of(value)),
            CorrelationKey::Text(text) => self.by_text.get(text),
        };
        bucket?
            .ids()
            .filter_map(|id| self.entries.get_key_value(&id))
            .filter(|(_, e)| !e.msg.is_expired(now) && accept(&e.msg))
            .min_by_key(|(_, e)| (std::cmp::Reverse(band_of(&e.msg)), e.seq))
            .map(|(id, _)| *id)
    }

    /// Whether the expiry heap holds an entry (possibly stale) due at `now`:
    /// the cheap question a take asks before it runs a sweep.
    pub(crate) fn has_ripe(&self, now: Time) -> bool {
        let earliest = self.expiry_heap.peek();
        earliest.is_some_and(|entry| entry.0 .0 <= now.0)
    }

    /// Pops ids whose recorded expiry is at or before `now`. Returned ids
    /// may be stale or re-stamped; the caller re-checks liveness and
    /// `Message::is_expired` before acting.
    pub(crate) fn ripe_expired(&mut self, now: Time) -> Vec<MessageId> {
        let mut ripe = Vec::new();
        while let Some(std::cmp::Reverse((at, id))) = self.expiry_heap.peek().copied() {
            if at > now.0 {
                break;
            }
            self.expiry_heap.pop();
            let id = MessageId::from_u128(id);
            if self.entries.contains_key(&id) {
                ripe.push(id);
            }
        }
        ripe
    }

    /// Live persistent messages and persistent pending transactional gets
    /// in delivery order (priority, then FIFO), each pending get where it
    /// was taken from — exactly the set a checkpoint snapshot must
    /// re-journal, in the order that restores the queue a replay without
    /// the checkpoint would.
    pub(crate) fn snapshot_persistent(&self) -> Vec<Arc<Message>> {
        let mut snapshot: Vec<&Entry> = self
            .entries
            .values()
            .chain(self.pending.values())
            .filter(|entry| entry.msg.is_persistent())
            .collect();
        // A band's delivery order is its sequence order.
        snapshot.sort_by_key(|entry| (std::cmp::Reverse(band_of(&entry.msg)), entry.seq));
        snapshot
            .into_iter()
            .map(|entry| Arc::clone(&entry.msg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageBuilder, Priority};

    fn msg(text: &str) -> Message {
        Message::text(text).build()
    }

    #[test]
    fn depth_tracks_insert_and_detach() {
        let mut s = MessageStore::new();
        let m = msg("a");
        let id = m.id();
        s.insert(m, false);
        assert_eq!(s.len(), 1);
        assert!(s.detach(id).is_some());
        assert!(s.detach(id).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn version_bumps_on_insert() {
        let mut s = MessageStore::new();
        let v0 = s.version();
        s.insert(msg("a"), false);
        assert_ne!(s.version(), v0);
    }

    #[test]
    fn seq_orders_front_before_back() {
        let mut s = MessageStore::new();
        let back = msg("back");
        let front = msg("front");
        let (bid, fid) = (back.id(), front.id());
        s.insert(back, false);
        s.insert(front, true);
        let bseq = s.get(bid).map(|e| e.seq);
        let fseq = s.get(fid).map(|e| e.seq);
        assert!(fseq < bseq, "front insert must sort before back insert");
    }

    #[test]
    fn plain_gets_leave_no_correlation_buckets_behind() {
        let mut s = MessageStore::new();
        let ids: Vec<MessageId> = (0..10_000)
            .map(|i| {
                let m = Message::text("m").correlation_id(format!("c-{i}")).build();
                let id = m.id();
                s.insert(m, false);
                id
            })
            .collect();
        assert_eq!(s.by_text.len(), 10_000);
        for id in ids {
            assert!(s.detach(id).is_some());
        }
        assert!(s.by_text.is_empty());
    }

    /// A queue drained after a burst gives back what its tables grew to:
    /// the live map, both correlation indexes, the pending-get table and
    /// the band, whose stale ids go with the messages taken by
    /// correlation. A queue that goes from empty to one message and back
    /// keeps its small tables.
    #[test]
    fn tables_drained_below_a_quarter_of_their_capacity_shrink() {
        let mut s = MessageStore::new();
        let burst: Vec<Message> = (0..10_000u128)
            .map(|i| {
                let m = Message::text("m").persistent(true);
                if i % 2 == 0 {
                    m.correlation_u128(i)
                } else {
                    m.correlation_id(format!("c-{i}"))
                }
            })
            .map(MessageBuilder::build)
            .collect();
        let ids: Vec<MessageId> = burst.iter().map(Message::id).collect();
        for m in burst {
            s.insert(m, false);
        }
        let band = band_of(s.get(ids[0]).map(|e| &*e.msg).unwrap());
        let peak = s.entries.capacity();
        assert!(peak >= 10_000);
        // Half through the pending-get table, half taken outright, each by
        // its id as a correlation read takes it: no band scan prunes them.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(s.detach_pending(*id).is_some());
            } else {
                assert!(s.detach(*id).is_some());
            }
            assert_eq!(s.bands[band].len(), s.len(), "taken oldest first: no stale id stays");
        }
        for id in ids.iter().step_by(2) {
            s.finalize_pending(*id);
        }
        assert!(s.is_empty());
        assert!(s.bands[band].is_empty(), "no stale id is left at either end");
        for capacity in [
            s.entries.capacity(),
            s.pending.capacity(),
            s.by_hex.capacity(),
            s.by_text.capacity(),
            s.bands[band].capacity(),
        ] {
            assert!(capacity <= SHRINK_ABOVE, "{capacity} of a peak {peak}");
        }
        let small = |s: &MessageStore| (s.entries.capacity(), s.bands[band].capacity());
        let m = msg("one");
        let id = m.id();
        s.insert(m, false);
        let grown = small(&s);
        s.detach(id);
        assert_eq!(small(&s), grown, "a small table is kept as it is");
    }

    #[test]
    fn a_correlation_bucket_holds_one_id_in_place_and_more_in_order() {
        // No wider than the vector it replaces, so no index slot grows.
        assert!(std::mem::size_of::<Bucket>() <= std::mem::size_of::<Vec<MessageId>>());
        let ids: Vec<MessageId> = (0..3).map(|_| MessageId::generate()).collect();
        let mut bucket = Bucket::one(ids[0]);
        assert!(matches!(bucket, Bucket::One(..)));
        assert!(!bucket.remove(ids[1]), "an id it does not hold");
        bucket.push(ids[1]);
        bucket.push(ids[2]);
        assert_eq!(bucket.ids().collect::<Vec<_>>(), ids);
        assert!(!bucket.remove(ids[1]));
        assert_eq!(bucket.ids().collect::<Vec<_>>(), [ids[0], ids[2]]);
        assert!(!bucket.remove(ids[0]));
        assert!(bucket.remove(ids[2]));
        assert!(Bucket::one(ids[0]).remove(ids[0]));
    }

    #[test]
    fn pending_messages_hidden_but_snapshotted() {
        let mut s = MessageStore::new();
        let live = Message::text("live").persistent(true).build();
        let taken = Message::text("taken").persistent(true).build();
        let volatile = msg("volatile");
        let taken_id = taken.id();
        s.insert(live, false);
        s.insert(taken, false);
        s.insert(volatile, false);
        assert!(s.detach_pending(taken_id).is_some());
        assert_eq!(s.len(), 2, "pending get leaves the live map");
        assert_eq!(s.pending_len(), 1);
        let snap = s.snapshot_persistent();
        assert_eq!(snap.len(), 2, "snapshot = live persistent + pending");
        assert!(snap.iter().any(|m| m.id() == taken_id));
        s.finalize_pending(taken_id);
        assert_eq!(s.snapshot_persistent().len(), 1);
    }

    #[test]
    fn a_snapshot_puts_pending_gets_back_where_they_were_taken() {
        let mut s = MessageStore::new();
        let high = Message::text("high")
            .priority(Priority::new(8))
            .persistent(true)
            .build();
        let ids: Vec<MessageId> = std::iter::once(high)
            .chain((0..5).map(|i| Message::text(format!("m{i}")).persistent(true).build()))
            .map(|m| {
                let id = m.id();
                s.insert(m, false);
                id
            })
            .collect();
        // Taken out of order, from the front, the middle and the back of
        // the default band, and the high band's only message.
        for at in [3, 1, 5, 0] {
            s.detach_pending(ids[at]).unwrap();
        }
        let order: Vec<_> = s
            .snapshot_persistent()
            .iter()
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect();
        assert_eq!(order, ["high", "m0", "m1", "m2", "m3", "m4"]);
    }

    #[test]
    fn reinsert_clears_pending_copy() {
        let mut s = MessageStore::new();
        let m = Message::text("m").persistent(true).build();
        let id = m.id();
        s.insert(m, false);
        let back = s.detach_pending(id).expect("live");
        s.insert(back, true); // rollback requeue
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.snapshot_persistent().len(), 1);
    }

    #[test]
    fn ripe_expired_pops_in_order_and_skips_stale() {
        let mut s = MessageStore::new();
        let early = Message::text("early").ttl(simtime::Millis(5)).build();
        let late = Message::text("late").ttl(simtime::Millis(50)).build();
        let (early_id, late_id) = (early.id(), late.id());
        let mut e = early;
        e.stamp_enqueue(Time(0));
        let mut l = late;
        l.stamp_enqueue(Time(0));
        s.insert(e, false);
        s.insert(l, false);
        assert!(s.ripe_expired(Time(1)).is_empty());
        assert_eq!(s.ripe_expired(Time(10)), vec![early_id]);
        // Detached before ripening: not reported.
        s.detach(late_id);
        assert!(s.ripe_expired(Time(100)).is_empty());
    }

    #[test]
    fn snapshot_preserves_delivery_order() {
        let mut s = MessageStore::new();
        let low = Message::text("low")
            .priority(Priority::new(1))
            .persistent(true)
            .build();
        let high = Message::text("high")
            .priority(Priority::new(8))
            .persistent(true)
            .build();
        s.insert(low, false);
        s.insert(high, false);
        let snap = s.snapshot_persistent();
        assert_eq!(snap[0].payload_str(), Some("high"));
        assert_eq!(snap[1].payload_str(), Some("low"));
    }
}
