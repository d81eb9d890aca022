//! Transacted sessions: all-or-nothing groups of gets and puts.
//!
//! These are the "messaging transactions" the paper's receiver side relies
//! on (§2.4): a receiver reads a message *inside a transaction*, processes
//! it, and possibly stages reply/acknowledgment puts; if the transaction
//! rolls back, the consumed message returns to its queue (with a redelivery
//! count, dead-lettering past the backout threshold) and none of the staged
//! puts become visible. Commit makes everything visible atomically and
//! writes a single `TxCommit` journal record so crash recovery agrees.
//!
//! There is one commit path, `QueueManager::commit` below, and a put or a
//! get outside a transaction takes it too: it is a transaction of that one
//! operation (`QueueManager::auto_commit`), as are a dead-lettering, a
//! purge and the sweep that removes messages past their TTL.
//!
//! A commit first offers its puts to their *claimants* ([`PickUp`]),
//! each of which takes puts out of the record and stages what consuming
//! them commits into it, so one record covers both (Gray, *Queues Are
//! Databases*). A queue's standing claimant ([`Queue::stand`]; the
//! evaluation manager on `DS.ACK.Q`) takes every put the transaction
//! stages for it. A consumer parked in a get outside a transaction takes
//! the first put in delivery order it would take; the rest are queued.
//! That getter's claim stages its pick-up ([`Session::get_picking_up`]),
//! or nothing for a bare get, and it is handed the message once the
//! record is written. A handed put that arrived over a channel leaves its
//! dedup key `(origin hash, id)` in the record instead of the message, so
//! replay still reseeds the dedup window with it. A put past its TTL is
//! never handed, and a claimant that declines leaves its puts queued. A
//! refused record undoes every claim: what the claimants staged goes,
//! each getter goes back to its wait and each put back in its place.
//!
//! A transaction has a third ending beside commit and rollback, *release*
//! ([`Session::release`]), for the one consumer whose gets something other
//! than this manager's journal already makes safe to repeat: the channel
//! mover, once the peer has acknowledged a batch. A released get writes no
//! record of its own; it stays a pending get and rides the next `TxCommit`
//! the manager writes ([`Released`]).

use std::collections::HashMap;
use std::sync::Arc;

use simtime::{Millis, Time};

use crate::channel::{MAX_RELEASED, XMIT_QUEUE_PREFIX};
use crate::error::{MqError, MqResult};
use crate::journal::JournalRecord;
use crate::message::{CorrelationKey, Message, MessageId, QueueAddress};
use crate::qmgr::{QueueManager, DEAD_LETTER_QUEUE, DLQ_REASON_PROPERTY};
use crate::queue::{Fate, PickUp, Queue, Stage, Taken, Wait};
use crate::relay::Deduper;
use crate::store::{band_of, PRIORITY_BANDS};
use crate::trace::TraceStage;

/// One kind of a transaction's operations, in order. The one operation of
/// a put or a get outside a transaction is held in place: only a second
/// one makes a vector.
#[derive(Debug)]
pub(crate) enum Ops<T> {
    /// None yet, or the one.
    Few(Option<T>),
    /// Two or more.
    Many(Vec<T>),
}

impl<T> Default for Ops<T> {
    fn default() -> Ops<T> {
        Ops::Few(None)
    }
}

impl<T> From<Vec<T>> for Ops<T> {
    fn from(ops: Vec<T>) -> Ops<T> {
        Ops::Many(ops)
    }
}

impl<T> Ops<T> {
    /// The room the vector starts with: a conditional send stages six
    /// puts, and an evaluation cycle a few.
    const FIRST_VEC: usize = 8;

    fn push(&mut self, op: T) {
        match self {
            Ops::Few(slot @ None) => *slot = Some(op),
            Ops::Few(Some(_)) => {
                let mut ops = Vec::with_capacity(Self::FIRST_VEC);
                ops.extend(std::mem::take(self));
                ops.push(op);
                *self = Ops::Many(ops);
            }
            Ops::Many(ops) => ops.push(op),
        }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Ops::Few(op) => op.as_slice(),
            Ops::Many(ops) => ops,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Ops::Few(op) => op.as_mut_slice(),
            Ops::Many(ops) => ops,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Takes out the operation at `at`, if there is one.
    fn remove(&mut self, at: usize) -> Option<T> {
        match self {
            Ops::Few(op) if at == 0 => op.take(),
            Ops::Few(_) => None,
            Ops::Many(ops) => (at < ops.len()).then(|| ops.remove(at)),
        }
    }

    /// Puts `op` at `at`, the operations from there on after it.
    fn insert(&mut self, at: usize, op: T) {
        match self {
            Ops::Few(slot @ None) if at == 0 => *slot = Some(op),
            Ops::Many(ops) => ops.insert(at, op),
            Ops::Few(_) => {
                let mut ops = std::mem::take(self).into_vec();
                ops.insert(at, op);
                *self = Ops::Many(ops);
            }
        }
    }

    /// Keeps the first `len` operations.
    fn truncate(&mut self, len: usize) {
        match self {
            Ops::Few(op) if len == 0 => *op = None,
            Ops::Few(_) => {}
            Ops::Many(ops) => ops.truncate(len),
        }
    }

    /// The operations as a vector, which the one held in place moves into.
    fn into_vec(self) -> Vec<T> {
        match self {
            Ops::Few(op) => op.into_iter().collect(),
            Ops::Many(ops) => ops,
        }
    }
}

impl<T> IntoIterator for Ops<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (op, ops) = match self {
            Ops::Few(op) => (op, Vec::new()),
            Ops::Many(ops) => (None, ops),
        };
        op.into_iter().chain(ops)
    }
}

/// What a transaction holds between its first operation and its end.
#[derive(Default)]
pub(crate) struct TxState {
    /// Puts staged until commit, in order, each message with the name of
    /// its queue: the put list of the transaction's `TxCommit` record,
    /// which is lent the list itself, and what the commit applies.
    puts: Ops<(Arc<str>, Message)>,
    /// The queue each put was staged for, in step with `puts`: the commit
    /// puts to it while it lives, and resolves the name as replay does
    /// only for a queue deleted since.
    queues: Ops<Option<Arc<Queue>>>,
    /// Messages consumed from queues, invisible to other consumers,
    /// returned on rollback.
    gets: Ops<(Arc<Queue>, Message)>,
    /// Begun with [`Session::begin`]: counted in `mq.tx.committed` by the
    /// commit that applies it.
    explicit: bool,
    /// A flush of the released gets: its record is written even when they
    /// are all it carries.
    flush: bool,
    /// The dedup keys of the transport batch whose envelopes this
    /// transaction puts ([`QueueManager::accept_batch`]): remembered in the
    /// window under the gate, with the record, so no checkpoint snapshots
    /// the window without them.
    arrived: Vec<(u64, MessageId)>,
}

/// The gets the channels released: handoffs the peer's journal already
/// holds, still pending gets on their transmission queues (a checkpoint
/// image keeps them, `depth()` does not), waiting for the next record the
/// manager writes to carry them. A crash before that record re-sends them
/// and the peer's dedup window drops the copies, so their number is
/// bounded: `gets` and `riding` together stay below [`MAX_RELEASED`].
#[derive(Default)]
pub(crate) struct Released {
    /// Oldest first.
    gets: Vec<(Arc<Queue>, MessageId)>,
    /// Taken by a commit whose append is under way: back in `gets` when it
    /// is refused.
    riding: usize,
    /// When the oldest of `gets` was released, on the manager's clock.
    since: Option<Time>,
}

impl Released {
    fn outstanding(&self) -> usize {
        self.gets.len() + self.riding
    }

    /// Takes everything, for a record about to be appended.
    fn carry(&mut self) -> Released {
        self.riding += self.gets.len();
        Released { gets: std::mem::take(&mut self.gets), riding: 0, since: self.since.take() }
    }

    /// Forgets what waits, as a crash does: the restart re-sends it.
    pub(crate) fn forget(&mut self) {
        self.gets.clear();
        self.since = None;
    }

    /// What became of `carried`: written, its gets are covered and stay
    /// in it; refused, they leave it to wait again, ahead of what was
    /// released since.
    fn settle(&mut self, carried: &mut Released, written: bool) {
        self.riding -= carried.gets.len();
        if !written {
            carried.gets.append(&mut self.gets);
            self.gets = std::mem::take(&mut carried.gets);
            self.since = carried.since.or(self.since);
        }
    }
}

/// What an applied transaction leaves to do once the gate is released.
#[derive(Default)]
struct Applied {
    /// The queue of each put made visible, to wake its consumers and
    /// watchers; `None` for an orphan.
    to_notify: Ops<Option<Arc<Queue>>>,
    /// Puts whose queue was gone at commit.
    orphaned: Vec<Message>,
    /// Puts the claimants took: to hand to a parked getter, or consumed by
    /// the standing claimant.
    handed: Vec<Handoff>,
    /// How many released gets the record carried.
    carried: usize,
}

/// A staged put a claimant took ([`TxState::claim`]): out of the record,
/// handed over once it is written, or consumed.
struct Handoff {
    /// Where the put sat among the staged puts.
    at: usize,
    queue: Arc<Queue>,
    /// The parked getter it is handed to; `None` for one the standing
    /// claimant consumed.
    getter: Option<u64>,
    msg: Message,
    /// Whether the getter's pick-up staged what consuming it commits.
    picked_up: bool,
}

/// Staged puts a commit offers to one consumer of their queue: the
/// queue's standing claimant, offered every put bound for it, or a getter
/// parked on it, offered the first it would take. Held by the commit while
/// its record is written: a fate borrows its claimant.
struct Offer {
    queue: Arc<Queue>,
    /// The claimed getter; `None` for the standing claimant.
    getter: Option<u64>,
    /// What stages for it; `None` for a bare get.
    claimant: Stage,
    /// Where the puts it is offered sit among the staged puts.
    at: Vec<usize>,
}

impl TxState {
    /// Whether the transaction has neither consumed nor staged anything (a
    /// read that found its queue empty): ending it is not an event — no
    /// journal record, nothing to apply or undo, nothing to count.
    fn is_empty(&self) -> bool {
        self.gets.is_empty() && self.puts.is_empty()
    }

    /// Stages a put, validating destination and depth now so the commit
    /// cannot fail on them.
    pub(crate) fn put(
        &mut self,
        manager: &QueueManager,
        queue: &str,
        msg: Message,
    ) -> MqResult<()> {
        let q = manager.queue(queue)?;
        let staged = self.puts.as_slice();
        q.check_room(|| staged.iter().filter(|(to, _)| **to == *queue).count())?;
        self.puts.push((q.shared_name(), msg));
        self.queues.push(Some(q));
        Ok(())
    }

    /// Stages a put addressed by `manager/queue`: a remote address goes
    /// onto the route's transmission queue in an envelope.
    pub(crate) fn put_to(
        &mut self,
        manager: &QueueManager,
        addr: &QueueAddress,
        msg: Message,
    ) -> MqResult<()> {
        if addr.manager == manager.name() {
            return self.put(manager, &addr.queue, msg);
        }
        let xmit = manager
            .route_for_message(&addr.manager, msg.id())
            .ok_or_else(|| MqError::NoRoute(addr.manager.clone()))?;
        let envelope = manager.wrap_for_transmission(addr, msg);
        manager.stats().forwarded.incr();
        self.put(manager, &xmit, envelope)
    }

    /// Consumes provisionally: the message is off its queue, and the get
    /// is covered by the record of the commit or undone by the rollback. A
    /// get that is the whole of its transaction, outside
    /// [`Session::begin`], may be handed a put while it waits, which no
    /// record covers a get of.
    pub(crate) fn get(
        &mut self,
        manager: &QueueManager,
        queue: &str,
        wait: Wait,
    ) -> MqResult<Option<Message>> {
        let claimable = self.is_bare().then_some(None);
        Ok(self.take(manager, queue, wait, claimable)?.map(Taken::into_message))
    }

    /// Takes from `queue`, registering as a getter with `claimable`'s
    /// pick-up while it waits, if there is one. A message off the queue is
    /// one of the gets; a handed one is no get of this transaction.
    fn take(
        &mut self,
        manager: &QueueManager,
        queue: &str,
        wait: Wait,
        claimable: Option<Stage>,
    ) -> MqResult<Option<Taken>> {
        let q = manager.queue(queue)?;
        let taken = q.take_blocking(wait, claimable)?;
        Ok(self.took_from(q, taken))
    }

    /// [`TxState::get`] by correlation id. Only with `handoff`, which says
    /// that `accept` takes every message with the id, may it be handed a
    /// put.
    pub(crate) fn get_by_correlation(
        &mut self,
        manager: &QueueManager,
        queue: &str,
        corr: CorrelationKey<'_>,
        accept: impl Fn(&Message) -> bool,
        wait: Wait,
        handoff: bool,
    ) -> MqResult<Option<Message>> {
        let q = manager.queue(queue)?;
        let bare = handoff && self.is_bare();
        let taken = q.take_by_correlation_blocking(corr, accept, wait, bare)?;
        Ok(self.took_from(q, taken).map(Taken::into_message))
    }

    /// Whether the transaction is a get outside a transaction and nothing
    /// else yet: one a commit may hand a put.
    fn is_bare(&self) -> bool {
        !self.explicit && self.is_empty()
    }

    /// Records a message taken off `queue` as one of the gets; a handed
    /// one is no get of this transaction.
    fn took_from(&mut self, queue: Arc<Queue>, taken: Option<Taken>) -> Option<Taken> {
        if let Some(Taken::Queued(msg)) = &taken {
            self.gets.push((queue, msg.clone()));
        }
        taken
    }

    /// Records a message already taken off `queue` as one of the gets.
    pub(crate) fn took(&mut self, queue: Arc<Queue>, msg: Message) {
        self.gets.push((queue, msg));
    }

    /// Offers the staged puts to their claimants, each of which stages in
    /// a transaction of its own whose puts and gets join this one, on the
    /// committing thread before the mutation gate. The standing claimant
    /// of the first queue staged to that has one is offered every put
    /// bound for it. Then each getter parked on a put's queue is claimed
    /// for the first put in delivery order (priority, then staging order)
    /// it would take, among the transaction's own puts and what the
    /// standing claimant staged. When a pick-up declines its put, the rest
    /// of that queue's puts are queued: a claim never skips ahead. Returns
    /// the fates in staging order and the puts taken out, the last staged
    /// first. `standing` is [`TxState::standing`]'s offer, and `parked`
    /// receives the getters' offers.
    fn claim<'a>(
        &mut self,
        manager: &Arc<QueueManager>,
        now: Time,
        standing: Option<&'a Offer>,
        parked: &'a mut Vec<Offer>,
    ) -> (Vec<Fate<'a>>, Vec<Handoff>) {
        let (mut fates, mut took) = (Vec::new(), Vec::new());
        if let Some(offer) = standing {
            if self.stage(manager, offer, now, &mut fates) {
                took.extend(offer.at.iter().map(|&at| (at, offer)));
            }
        }
        *parked = self.claim_getters(now, &took);
        let mut declined: Vec<&Arc<Queue>> = Vec::new();
        for offer in &*parked {
            let queued = declined.iter().any(|q| Arc::ptr_eq(q, &offer.queue));
            if !queued && self.stage(manager, offer, now, &mut fates) {
                took.push((offer.at[0], offer));
            } else {
                if let Some(getter) = offer.getter {
                    offer.queue.unclaim(getter);
                }
                declined.push(&offer.queue);
            }
        }
        took.sort_unstable_by_key(|&(at, _)| std::cmp::Reverse(at));
        let taken = took.into_iter().filter_map(|(at, offer)| {
            self.queues.remove(at);
            let (_, msg) = self.puts.remove(at)?;
            let (queue, getter) = (offer.queue.clone(), offer.getter);
            let picked_up = getter.is_some() && offer.claimant.is_some();
            Some(Handoff { at, queue, getter, msg, picked_up })
        });
        (fates, taken.collect())
    }

    /// The standing claimant of the first queue among the staged puts that
    /// has one, offered every put bound for that queue.
    fn standing(&self) -> Option<Offer> {
        let queues = self.queues.as_slice();
        let (queue, claimant) = queues.iter().flatten().find_map(|q| Some((q, q.standing()?)))?;
        let bound = |i: &usize| queues[*i].as_ref().is_some_and(|q| Arc::ptr_eq(q, queue));
        let at = (0..queues.len()).filter(bound).collect();
        Some(Offer { queue: queue.clone(), getter: None, claimant: Some(claimant), at })
    }

    /// Claims, for each staged put in delivery order that `took` does not
    /// name, the oldest getter parked on its queue that would take it
    /// ([`Queue::claim`]).
    fn claim_getters(&self, now: Time, took: &[(usize, &Offer)]) -> Vec<Offer> {
        let staged = self.puts.as_slice().iter().zip(self.queues.as_slice()).enumerate();
        let order = (0..PRIORITY_BANDS).rev().flat_map(|band| {
            staged.clone().filter(move |(_, ((_, msg), _))| band_of(msg) == band)
        });
        let offered = order.filter(|(i, _)| took.iter().all(|(at, _)| at != i));
        let claimed = offered.filter_map(|(i, ((_, msg), queue))| {
            let queue = queue.as_ref()?;
            let (getter, claimant) = queue.claim(msg, now).ok()??;
            Some(Offer { queue: queue.clone(), getter: Some(getter), claimant, at: vec![i] })
        });
        claimed.collect()
    }

    /// Runs `offer`'s claimant on the puts it is offered, in a transaction
    /// of its own, and appends what it staged to this one, stamped as
    /// enqueued at `now`, and its fate to `fates`. False when it declined:
    /// what it staged is undone. A bare get stages nothing.
    fn stage<'a>(
        &mut self,
        manager: &Arc<QueueManager>,
        offer: &'a Offer,
        now: Time,
        fates: &mut Vec<Fate<'a>>,
    ) -> bool {
        let Some(claimant) = &offer.claimant else {
            return true;
        };
        let taken: Vec<_> = offer.at.iter().map(|&i| &self.puts.as_slice()[i].1).collect();
        let own = TxState { explicit: true, ..TxState::default() };
        let mut session = Session { manager: manager.clone(), tx: Some(own) };
        let fate = claimant.stage(&taken, &mut session);
        let staged = session.tx.take().unwrap_or_default();
        let Some(fate) = fate else {
            manager.rollback(staged, false).unwrap_or(());
            return false;
        };
        for ((name, mut put), queue) in staged.puts.into_iter().zip(staged.queues) {
            put.stamp_enqueue(now);
            self.puts.push((name, put));
            self.queues.push(queue);
        }
        staged.gets.into_iter().for_each(|get| self.gets.push(get));
        fates.push(fate);
        true
    }

    /// Undoes [`TxState::claim`] for a record the journal refused, given
    /// the transaction's own `puts` and `gets` before it: what the
    /// claimants staged goes (their gets, handed back, return to their
    /// queues without spending backout budget), each getter back to its
    /// wait, each of the transaction's own puts back where it was staged.
    // lint: custody(msg)
    fn unclaim(&mut self, taken: Vec<Handoff>, puts: usize, gets: usize) -> TxState {
        let own = taken.iter().filter(|h| h.at < puts).count();
        self.puts.truncate(puts - own);
        self.queues.truncate(puts - own);
        let mut kept = std::mem::take(&mut self.gets).into_vec();
        let undone = TxState { gets: kept.split_off(gets).into(), ..TxState::default() };
        self.gets = kept.into();
        for Handoff { at, queue, getter, msg, .. } in taken.into_iter().rev() {
            if let Some(getter) = getter {
                queue.unclaim(getter);
            }
            if at < puts {
                self.restage(at, &queue, msg);
            } else {
                // lint: custody-ok(a claimant staged it, and its staging is undone)
                drop(msg);
            }
        }
        undone
    }

    /// Settles the queue of each staged put: the one replay resolves its
    /// name to, what `directory` (read-held by the caller) holds under it
    /// now. That is the queue it was staged for while that lives; for one
    /// deleted since, a queue of that name created after, or none.
    fn settle_queues(&mut self, directory: &HashMap<String, Arc<Queue>>) {
        let staged = self.puts.as_slice().iter().zip(self.queues.as_mut_slice());
        for ((name, _), slot) in staged {
            *slot = directory.get(&**name).cloned();
        }
    }

    /// Stages `msg` for `queue` again at `at`, where it was.
    fn restage(&mut self, at: usize, queue: &Arc<Queue>, msg: Message) {
        self.puts.insert(at, (queue.shared_name(), msg));
        self.queues.insert(at, Some(queue.clone()));
    }
}

impl QueueManager {
    /// The one commit path: the only way a message enters or leaves a queue
    /// durably. Journals one `TxCommit` record, then makes the staged puts
    /// visible and finalizes the gets. The claimants of its puts stage
    /// first ([`TxState::claim`]), and every fate runs, once the record is
    /// written or refused, before anything is handed over and before any
    /// watcher. The checkpoint a grown journal is due is the caller's to
    /// run ([`QueueManager::maybe_checkpoint`]): it starts with a sweep,
    /// which commits here.
    ///
    /// # Errors
    ///
    /// The record could not be written and nothing happened: the
    /// transaction comes back for a retry or a rollback, as it was staged.
    #[allow(clippy::result_large_err)] // the error hands the transaction back
    pub(crate) fn commit(&self, mut tx: TxState) -> Result<(), (MqError, Option<TxState>)> {
        // Stamped before anything is claimed, all at one instant: the
        // journal holds each put as enqueued, so a recovered message
        // expires when it would have.
        let now = self.clock().now();
        for (_, staged) in tx.puts.as_mut_slice() {
            staged.stamp_enqueue(now);
        }
        let Some(manager) = self.me.upgrade() else {
            let applied = self.apply(tx, Vec::new()).map_err(|(e, tx)| (e, Some(tx)))?;
            self.announce(applied);
            return Ok(());
        };
        // Claimed here, where the claimants outlive their fates, before the
        // gate: a claimant stages with locks of its own.
        let (puts, gets) = (tx.puts.len(), tx.gets.len());
        let (standing, mut parked) = (tx.standing(), Vec::new());
        let (fates, taken) = tx.claim(&manager, now, standing.as_ref(), &mut parked);
        // The record keeps the dedup keys replay cannot read off its puts:
        // of each persistent put handed over that came from another
        // manager, and of each envelope of the batch that came back home.
        let handed = taken.iter().filter(|h| h.getter.is_some() && h.msg.is_persistent());
        let handed = handed.filter_map(|h| Deduper::arrival_key(&h.msg, self.name()));
        let keys = handed.chain(Deduper::returned(&tx.arrived, self.name())).collect();
        let applied = self.apply(tx, keys);
        for fate in fates {
            fate(applied.is_ok());
        }
        match applied {
            Ok(mut applied) => {
                applied.handed = taken;
                self.announce(applied);
                Ok(())
            }
            Err((e, mut tx)) => {
                let undone = tx.unclaim(taken, puts, gets);
                self.rollback(undone, false).unwrap_or(());
                Err((e, Some(tx)))
            }
        }
    }

    /// Writes the `TxCommit` record of `tx` and applies it, under the
    /// mutation gate. The record carries `keys`, dedup keys that replay
    /// cannot read off its puts. What the record delivered is remembered in
    /// the window under the gate, as replay remembers it, and then the keys
    /// of the batch `tx` accepts. Refused, nothing happened and `tx` comes
    /// back.
    // lint: custody(msg, err-reverts)
    #[allow(clippy::result_large_err)] // the error hands the transaction back
    fn apply(
        &self,
        mut tx: TxState,
        mut keys: Vec<(u64, MessageId)>,
    ) -> Result<Applied, (MqError, TxState)> {
        // Mutation gate read-held across [TxCommit append + applying its
        // effects]: a checkpoint can never snapshot half a transaction, nor
        // truncate the TxCommit record while its effects are missing.
        let gate = self.mutation_gate.read();
        // The queue directory, read-held from here through the last put:
        // no queue is created or deleted between the record and its
        // effects, so each put's queue, settled here once, is the queue
        // replay resolves its name to.
        let directory = self.queues.read();
        tx.settle_queues(&directory);
        let written = tx.puts.as_slice().iter().filter(|(_, m)| m.is_persistent()).count();
        let own = tx.gets.as_slice().iter().filter(|(_, m)| m.is_persistent());
        let writes = written > 0 || own.clone().next().is_some() || !keys.is_empty();
        // The handoffs the channels released ride any record that is
        // written anyway, ahead of its own gets; taken under the gate,
        // and the guard is gone before the append.
        let carried = if tx.flush || writes {
            self.released.lock().carry()
        } else {
            Released::default()
        };
        if writes || !carried.gets.is_empty() {
            let carried_gets = carried.gets.iter().map(|(q, id)| (q.shared_name(), *id));
            let gets = carried_gets.chain(own.map(|(q, m)| (q.shared_name(), m.id()))).collect();
            self.stats().encodes.add(written as u64);
            // The record is handed the staged puts themselves, nothing
            // copied, writes the persistent ones and hands them back.
            let puts = std::mem::take(&mut tx.puts).into_vec();
            let record = JournalRecord::TxCommit { keys: std::mem::take(&mut keys), puts, gets };
            let started = std::time::Instant::now();
            let appended = self.journal().append(&record);
            self.stats()
                .journal_append_micros
                .record_duration(started.elapsed());
            if let JournalRecord::TxCommit { keys: written, puts, .. } = record {
                (keys, tx.puts) = (written, puts.into());
            }
            if let Err(e) = appended {
                drop(directory);
                self.settle_released(carried, false);
                return Err((e, tx));
            }
        }
        // Remembered under the gate, so no checkpoint snapshots the window
        // without the keys of what this record delivered.
        if written > 0 || !keys.is_empty() || !tx.arrived.is_empty() {
            let mut dedup = self.delivery_dedup.lock();
            let puts = tx.puts.as_slice().iter().map(|(_, m)| m).filter(|m| m.is_persistent());
            dedup.remember(keys, puts, self.name());
            tx.arrived.drain(..).for_each(|key| dedup.record(key));
        }
        let mut applied = Applied { carried: carried.gets.len(), ..Applied::default() };
        let mut queues = tx.queues;
        for ((name, msg), queue) in tx.puts.into_iter().zip(queues.as_mut_slice()) {
            let put = match queue {
                Some(queue) => queue.put_committed(msg),
                None => Err(msg),
            };
            // A queue deleted under the transaction: the message is
            // dead-lettered rather than lost.
            if let Err(mut msg) = put {
                *queue = None;
                msg.set_property(DLQ_REASON_PROPERTY, &format!("unknown queue {name}"));
                applied.orphaned.push(msg);
            }
        }
        applied.to_notify = queues;
        drop(directory);
        self.settle_released(carried, true);
        // The TxCommit record is now the durable cover for each consumption:
        // release the pending-get hold checkpoints honor.
        // lint: custody-ok(a committed get is where a message's custody ends)
        for (queue, msg) in tx.gets {
            queue.finalize_pending(msg.id());
        }
        drop(gate);
        if tx.explicit {
            self.stats().tx_committed.incr();
        }
        Ok(applied)
    }

    /// What follows an applied transaction, outside the gate (which must
    /// never be held re-entrantly): the dead-letter put of an orphan is a
    /// commit of its own, and the consumers and watchers woken here may
    /// start transactions of theirs. A claimed put is handed to its
    /// getter here, after every claimant has heard that the record is
    /// written; the standing claimant's queue runs its watchers once.
    // lint: custody(msg)
    fn announce(&self, applied: Applied) {
        self.obs().changes().bump();
        let mut standing = None;
        for Handoff { queue, getter, msg, picked_up, .. } in applied.handed {
            let Some(getter) = getter else {
                standing = Some(queue);
                // lint: custody-ok(the standing claimant consumed it in the record)
                continue;
            };
            // Counted first: the getter may look at the counters once it
            // holds the message.
            self.stats().handed.incr();
            if picked_up {
                self.stats().picked_up.incr();
            }
            queue.hand(getter, msg);
            queue.notify_put_watchers();
        }
        for msg in applied.orphaned {
            self.put(DEAD_LETTER_QUEUE, msg).unwrap_or(());
        }
        for q in applied.to_notify.into_iter().flatten() {
            q.notify_arrival();
        }
        if let Some(queue) = standing {
            queue.notify_put_watchers();
        }
    }

    /// Undoes a transaction: staged puts are discarded and consumed
    /// messages return to the *front* of their queues. With `bump` the
    /// redelivery count goes up and a message past the backout threshold
    /// is dead-lettered instead.
    pub(crate) fn rollback(&self, tx: TxState, bump: bool) -> MqResult<()> {
        let threshold = self.config().backout_threshold;
        let mut result = Ok(());
        // Requeue in reverse consumption order so front-insertion restores
        // the original FIFO order.
        for (queue, msg) in tx.gets.into_iter().rev() {
            if bump && msg.redelivery_count() + 1 > threshold {
                // Poison message: route to the DLQ. A failure leaves it on
                // its queue and must not strand the gets still to requeue.
                result = result.and(self.dead_letter(queue, msg, "backout threshold exceeded"));
            } else {
                queue.requeue_front(msg, bump);
            }
        }
        result
    }

    /// Ends a transaction of gets alone that another journal covers (see
    /// [`Session::release`]): the gets the journal holds join the released
    /// list, and nothing is written. At [`MAX_RELEASED`] the transaction is
    /// committed instead, and its record carries the list.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::commit`], when it came to that.
    #[allow(clippy::result_large_err)] // the error hands the transaction back
    pub(crate) fn release(&self, tx: TxState) -> Result<(), (MqError, Option<TxState>)> {
        if !self.is_running() {
            // Crashed: the restart re-sends what no record covers.
            return Ok(());
        }
        // Only a get the journal holds needs a record; the others are done.
        let joining: Vec<_> = tx
            .gets
            .as_slice()
            .iter()
            .filter(|(_, m)| m.is_persistent())
            .map(|(q, m)| (q.clone(), m.id()))
            .collect();
        let now = self.clock().now();
        let mut released = self.released.lock();
        let waiting = released.outstanding();
        if waiting + joining.len() >= MAX_RELEASED {
            drop(released);
            self.commit(tx)?;
            self.note_flush("cap", waiting);
            return Ok(());
        }
        let first = released.since.is_none() && !joining.is_empty();
        if !joining.is_empty() {
            released.since.get_or_insert(now);
            released.gets.extend(joining);
            self.stats().released.set(released.outstanding() as u64);
        }
        drop(released);
        if first {
            // An idle mover parked before this release times its flush
            // by it: wake it to look again.
            self.wake_transmission_queues();
        }
        if tx.explicit {
            self.stats().tx_committed.incr();
        }
        self.obs().changes().bump();
        Ok(())
    }

    /// Ends the ride of `carried`: a written record covers its gets, which
    /// stop being pending; a refused one leaves them released. They leave
    /// the released list before they stop pending, so
    /// [`QueueManager::unsent`] never reads low.
    fn settle_released(&self, mut carried: Released, written: bool) {
        if carried.gets.is_empty() {
            return;
        }
        let mut released = self.released.lock();
        released.settle(&mut carried, written);
        self.stats().released.set(released.outstanding() as u64);
        drop(released);
        for (queue, get) in &carried.gets {
            queue.finalize_pending(*get);
        }
    }

    /// Wakes whatever is parked on this manager's transmission queues.
    fn wake_transmission_queues(&self) {
        let queues = self.queues.read();
        let xmit = queues.iter().filter(|(name, _)| name.starts_with(XMIT_QUEUE_PREFIX));
        for (_, queue) in xmit {
            queue.wake();
        }
    }

    /// Messages this manager still has to hand to a peer: those on its
    /// transmission queues, and those a channel took off them that the
    /// peer has not acknowledged. An acknowledged batch is handed over,
    /// though its gets stay pending until a record carries them.
    pub fn unsent(&self) -> usize {
        let held: usize = self
            .queues
            .read()
            .iter()
            .filter(|(name, _)| name.starts_with(XMIT_QUEUE_PREFIX))
            .map(|(_, queue)| queue.held())
            .sum();
        // Read after the queues: a release is counted here before it
        // stops being pending there.
        held.saturating_sub(self.released.lock().outstanding())
    }

    /// Writes the released gets as one record of their own, when no commit
    /// came along to carry them: `why` is `idle` or `shutdown`.
    ///
    /// # Errors
    ///
    /// Journal failures: the gets stay released. A stopped manager has
    /// nothing to flush.
    pub(crate) fn flush_released(&self, why: &str) -> MqResult<()> {
        self.check_running()?;
        let flush = TxState { flush: true, ..TxState::default() };
        let written = self.apply(flush, Vec::new()).map_err(|(e, _)| e)?;
        if written.carried > 0 {
            self.note_flush(why, written.carried);
        }
        self.announce(written);
        Ok(())
    }

    /// Flushes once the oldest released get has waited `linger` on the
    /// manager's clock.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::flush_released`]; the next call tries again.
    pub(crate) fn flush_released_after(&self, linger: Millis) -> MqResult<()> {
        match self.release_due(linger) {
            Some(due) if self.clock().now() >= due => self.flush_released("idle"),
            _ => Ok(()),
        }
    }

    /// When the oldest released get will have waited `linger`, if one
    /// waits.
    pub(crate) fn release_due(&self, linger: Millis) -> Option<Time> {
        Some(self.released.lock().since? + linger)
    }

    fn note_flush(&self, why: &str, waiting: usize) {
        let detail = format!("{why} released={waiting}");
        let now = self.clock().now();
        self.trace().record(now, TraceStage::ReleaseFlushed, None, None, detail);
        // Counted last: whoever sees the count finds the trace event.
        self.stats().release_flushes.incr();
    }

    /// Runs `op` as a transaction of its own — what a put or a get outside
    /// a transaction is.
    pub(crate) fn auto_commit<T>(
        &self,
        op: impl FnOnce(&mut TxState) -> MqResult<T>,
    ) -> MqResult<T> {
        self.auto_commit_from(TxState::default(), op)
    }

    /// Ends `tx`, a transaction of its own, with `op` as its last
    /// operation. When the manager is stopped, `op` fails or the record
    /// cannot be written, everything goes back without spending a backout
    /// budget: the failure is not the messages'.
    pub(crate) fn auto_commit_from<T>(
        &self,
        mut tx: TxState,
        op: impl FnOnce(&mut TxState) -> MqResult<T>,
    ) -> MqResult<T> {
        match self.check_running().and_then(|()| op(&mut tx)) {
            Ok(out) => {
                self.settle(tx)?;
                self.maybe_checkpoint();
                Ok(out)
            }
            Err(e) => {
                self.rollback(tx, false)?;
                Err(e)
            }
        }
    }

    /// Commits `tx`, a transaction of its own, with no checkpoint after it.
    /// Refused, everything goes back as in [`QueueManager::auto_commit_from`].
    pub(crate) fn settle(&self, tx: TxState) -> MqResult<()> {
        self.commit(tx).or_else(|(e, refused)| {
            refused.map_or(Ok(()), |tx| self.rollback(tx, false))?;
            Err(e)
        })
    }
}

/// A session against one queue manager, optionally transacted.
///
/// Outside a transaction, every operation is a transaction of its own,
/// exactly like the corresponding [`QueueManager`] method. Inside one
/// ([`Session::begin`]), puts are staged and gets are provisional until
/// [`Session::commit`].
///
/// Dropping a session with an active transaction rolls it back.
///
/// # Examples
///
/// ```
/// use mq::{Message, QueueManager, Wait};
///
/// let qm = QueueManager::builder("QM1").build()?;
/// qm.create_queue("IN")?;
/// qm.create_queue("OUT")?;
/// qm.put("IN", Message::text("work").build())?;
///
/// let mut session = qm.session();
/// session.begin()?;
/// let work = session.get("IN", Wait::NoWait)?.expect("message staged");
/// session.put("OUT", Message::text("done").build())?;
/// session.commit()?; // consume + reply atomically
/// # Ok::<(), mq::MqError>(())
/// ```
pub struct Session {
    manager: Arc<QueueManager>,
    tx: Option<TxState>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("manager", &self.manager.name())
            .field("in_tx", &self.in_transaction())
            .finish()
    }
}

impl Session {
    pub(crate) fn new(manager: Arc<QueueManager>) -> Session {
        Session { manager, tx: None }
    }

    /// The owning queue manager.
    pub fn manager(&self) -> &Arc<QueueManager> {
        &self.manager
    }

    /// Whether a transaction is active.
    pub fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    /// Starts a transaction.
    ///
    /// # Errors
    ///
    /// [`MqError::TransactionActive`] if one is already active.
    pub fn begin(&mut self) -> MqResult<()> {
        if self.tx.is_some() {
            return Err(MqError::TransactionActive);
        }
        self.tx = Some(TxState { explicit: true, ..TxState::default() });
        Ok(())
    }

    /// Starts, on a fresh session, the transaction of an arriving transport
    /// batch, whose record remembers the batch's dedup `keys`
    /// ([`QueueManager::accept_batch`]).
    pub(crate) fn begin_arrival(&mut self, keys: Vec<(u64, MessageId)>) {
        self.tx = Some(TxState { explicit: true, arrived: keys, ..TxState::default() });
    }

    /// Commits the active transaction: journals one `TxCommit` record, then
    /// makes all staged puts visible and finalizes all gets.
    ///
    /// # Errors
    ///
    /// [`MqError::NoTransaction`] without an active transaction. When the
    /// journal refuses the record the commit did not happen and the
    /// transaction stays open, for a retry or an explicit rollback. Once
    /// the record is written the commit has happened and returns `Ok`: a
    /// checkpoint refused after it is counted (`mq.checkpoint.refused`)
    /// and retried by the next commit.
    pub fn commit(&mut self) -> MqResult<()> {
        let tx = self.tx.take().ok_or(MqError::NoTransaction)?;
        if tx.is_empty() {
            return Ok(());
        }
        self.manager.commit(tx).map_err(|(e, uncommitted)| {
            self.tx = uncommitted;
            e
        })?;
        self.manager.maybe_checkpoint();
        Ok(())
    }

    /// Ends a transaction whose gets are already safe to repeat without a
    /// record in this manager's journal saying they happened: what a channel
    /// mover does with a batch the peer has acknowledged, since the peer's
    /// arrival record holds the envelopes and its dedup window drops a
    /// re-send. Nothing is written. The gets stay pending (a checkpoint
    /// image keeps them, the queue's depth does not count them) and ride
    /// the next `TxCommit` the manager writes; a crash before that record
    /// puts them back on their queue. A transaction that staged puts is
    /// committed instead: a put is never lazy.
    ///
    /// # Errors
    ///
    /// [`MqError::NoTransaction`] without an active transaction; as
    /// [`Session::commit`] when the transaction was committed (it staged
    /// puts, or [`MAX_RELEASED`] gets were waiting).
    pub fn release(&mut self) -> MqResult<()> {
        let tx = self.tx.take().ok_or(MqError::NoTransaction)?;
        if tx.is_empty() {
            return Ok(());
        }
        if !tx.puts.is_empty() {
            self.tx = Some(tx);
            return self.commit();
        }
        self.manager.release(tx).map_err(|(e, unreleased)| {
            self.tx = unreleased;
            e
        })
    }

    /// Rolls back the active transaction: staged puts are discarded and
    /// consumed messages return to the *front* of their queues with an
    /// incremented redelivery count. Messages past the manager's backout
    /// threshold are dead-lettered instead of redelivered.
    ///
    /// # Errors
    ///
    /// [`MqError::NoTransaction`] without an active transaction.
    pub fn rollback(&mut self) -> MqResult<()> {
        self.rollback_inner(true)
    }

    /// Rolls back like [`Session::rollback`] but *without* incrementing
    /// redelivery counts or dead-lettering.
    ///
    /// For infrastructure consumers (channel movers, the conditional
    /// messaging system's internal daemons) whose retries are part of normal
    /// operation and must not consume the application's backout budget.
    ///
    /// # Errors
    ///
    /// [`MqError::NoTransaction`] without an active transaction.
    pub fn rollback_for_retry(&mut self) -> MqResult<()> {
        self.rollback_inner(false)
    }

    fn rollback_inner(&mut self, bump: bool) -> MqResult<()> {
        let tx = self.tx.take().ok_or(MqError::NoTransaction)?;
        if tx.is_empty() {
            return Ok(());
        }
        self.manager.stats().tx_rolled_back.incr();
        self.manager.rollback(tx, bump)
    }

    /// Runs `op` in the active transaction, or as a transaction of its own.
    fn run<T>(
        &mut self,
        op: impl FnOnce(&QueueManager, &mut TxState) -> MqResult<T>,
    ) -> MqResult<T> {
        let manager = &*self.manager;
        match &mut self.tx {
            Some(tx) => op(manager, tx),
            None => manager.auto_commit(|tx| op(manager, tx)),
        }
    }

    /// Enqueues a message on a local queue (staged if a transaction is
    /// active).
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`], [`MqError::QueueFull`] (checked at stage
    /// time), journal failures.
    pub fn put(&mut self, queue: &str, msg: Message) -> MqResult<()> {
        self.run(|manager, tx| tx.put(manager, queue, msg))
    }

    /// Enqueues a message addressed by `manager/queue`; remote addresses are
    /// staged onto the route's transmission queue, so remote puts are
    /// transactional locally (standard store-and-forward semantics).
    ///
    /// # Errors
    ///
    /// [`MqError::NoRoute`] plus local put errors.
    pub fn put_to(&mut self, addr: &QueueAddress, msg: Message) -> MqResult<()> {
        self.run(|manager, tx| tx.put_to(manager, addr, msg))
    }

    /// Consumes a message (provisionally, if a transaction is active).
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`]; [`MqError::ManagerStopped`] if the
    /// manager crashes while waiting.
    pub fn get(&mut self, queue: &str, wait: Wait) -> MqResult<Option<Message>> {
        self.run(|manager, tx| tx.get(manager, queue, wait))
    }

    /// [`Session::get`] as the first operation of the active transaction,
    /// claimable while it waits: a commit whose first put for `queue` in
    /// delivery order is one this get would take may stage `pick_up` for
    /// it ([`PickUp::stage`]) and hand the message over once its record is
    /// written. That record then covers this get and the
    /// pick-up, and the message comes back [`Taken::Handed`], no get of
    /// this transaction. A transaction that already holds something gets
    /// as [`Session::get`] does.
    ///
    /// # Errors
    ///
    /// [`MqError::NoTransaction`] without an active transaction; as
    /// [`Session::get`].
    pub fn get_picking_up(
        &mut self,
        queue: &str,
        wait: Wait,
        pick_up: &Arc<dyn PickUp>,
    ) -> MqResult<Option<Taken>> {
        let tx = self.tx.as_mut().ok_or(MqError::NoTransaction)?;
        let claimable = tx.is_empty().then(|| Some(pick_up.clone()));
        tx.take(&self.manager, queue, wait, claimable)
    }

    /// Consumes the first message in delivery order with the given
    /// correlation id that `accept` takes (provisionally, if a transaction
    /// is active): a point read of the queue's correlation index, the one
    /// filtered get. `corr` is a `&str` or the `u128` value of a
    /// 32-hex-digit id (see [`CorrelationKey`]).
    ///
    /// # Errors
    ///
    /// Same as [`Session::get`].
    pub fn get_by_correlation<'a>(
        &mut self,
        queue: &str,
        corr: impl Into<CorrelationKey<'a>>,
        accept: impl Fn(&Message) -> bool,
        wait: Wait,
    ) -> MqResult<Option<Message>> {
        let corr = corr.into();
        self.run(|manager, tx| tx.get_by_correlation(manager, queue, corr, accept, wait, false))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.tx.is_some() {
            // Best-effort rollback; destructors must not fail (C-DTOR-FAIL).
            let _ = self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, MemJournal, ReplaySink};
    use crate::qmgr::ManagerConfig;
    use parking_lot::{Condvar, Mutex};
    use simtime::SimClock;
    use std::time::Duration;

    /// Waits until `n` bare getters are parked on `queue`.
    fn wait_getters(qm: &QueueManager, queue: &str, n: usize) {
        let q = qm.queue(queue).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while q.waiting_getters() != n {
            assert!(std::time::Instant::now() < deadline, "{n} getters not parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The queue names of the last record's puts.
    fn last_puts(journal: &MemJournal) -> Vec<String> {
        match journal.replay_collect().unwrap().pop() {
            Some(JournalRecord::TxCommit { puts, .. }) => {
                puts.iter().map(|(q, _)| q.to_string()).collect()
            }
            other => panic!("last record: {other:?}"),
        }
    }

    #[test]
    fn a_put_to_a_waiting_getter_is_handed_over_and_neither_is_written() {
        let (journal, qm) = setup();
        let watched = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = watched.clone();
        qm.queue("Q").unwrap().add_put_watcher(Arc::new(move || {
            counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        let records = journal.record_count();
        std::thread::scope(|s| {
            let getter = s.spawn(|| qm.get("Q", Wait::Timeout(Millis(60_000))));
            wait_getters(&qm, "Q", 1);
            let put = qm.put("Q", Message::text("m").persistent(true).build());
            let got = getter.join().unwrap().unwrap().unwrap();
            put.unwrap();
            assert_eq!(got.payload_str(), Some("m"));
        });
        assert_eq!(journal.record_count(), records, "no record for the put or the get");
        let metrics = qm.metrics_snapshot();
        assert_eq!(metrics.counter("mq.tx.handed"), 1);
        assert_eq!(metrics.counter("mq.queue.Q.enqueued"), 1);
        assert_eq!(metrics.counter("mq.queue.Q.dequeued"), 1);
        assert_eq!(watched.load(std::sync::atomic::Ordering::SeqCst), 1, "watchers fire");
        assert_eq!(qm.queue("Q").unwrap().waiting_getters(), 0);
        qm.crash();
        let qm = QueueManager::builder("QM1").journal(journal).build().unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 0, "consumed, as the record says");
    }

    #[test]
    fn a_put_past_its_ttl_is_never_handed() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        std::thread::scope(|s| {
            let getter = s.spawn(|| qm.get("Q", Wait::Timeout(Millis(1_000))));
            wait_getters(&qm, "Q", 1);
            let expired = Message::text("stale").persistent(true).ttl(Millis::ZERO);
            let put = qm.put("Q", expired.build());
            let written = last_puts(&journal);
            clock.advance(Millis(1_000));
            assert!(getter.join().unwrap().unwrap().is_none(), "nothing to take");
            put.unwrap();
            assert_eq!(written, ["Q"], "its record puts it");
        });
        assert_eq!(qm.metrics_snapshot().counter("mq.tx.handed"), 0);
        assert_eq!(qm.queue("Q").unwrap().stats().expired.get(), 1);
    }

    /// A record the journal refuses gives the claimed getter back to its
    /// wait, and the put back to where it was staged, in a transaction
    /// that comes back intact.
    #[test]
    fn a_refused_record_gives_the_getter_back_and_the_put_back_where_it_was_staged() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        qm.create_queue("OUT").unwrap();
        let persistent = |text: &str| Message::text(text).persistent(true).build();
        std::thread::scope(|s| {
            let getter = s.spawn(|| qm.get("Q", Wait::Timeout(Millis(100))));
            wait_getters(&qm, "Q", 1);
            let mut tx = qm.session();
            tx.begin().unwrap();
            tx.put("OUT", persistent("a")).unwrap();
            tx.put("Q", persistent("x")).unwrap();
            tx.put("OUT", persistent("b")).unwrap();
            journal.set_failing(true);
            let refused = tx.commit().is_err();
            std::thread::sleep(Duration::from_millis(20));
            let waiting = (getter.is_finished(), qm.queue("Q").unwrap().waiting_getters());
            clock.advance(Millis(100));
            assert!(getter.join().unwrap().unwrap().is_none(), "its timeout ends it");
            assert!(refused);
            assert!(tx.in_transaction(), "the transaction comes back");
            assert_eq!(waiting, (false, 1), "the getter still waits, handed nothing");
            journal.set_failing(false);
            tx.commit().unwrap();
        });
        assert_eq!(last_puts(&journal), ["OUT", "Q", "OUT"], "staged order");
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
        assert_eq!(qm.metrics_snapshot().counter("mq.tx.handed"), 0);
    }

    /// A journal whose appends wait while it is held.
    #[derive(Debug)]
    struct HeldJournal {
        inner: Arc<MemJournal>,
        held: Mutex<(bool, usize)>,
        changed: Condvar,
    }

    impl HeldJournal {
        fn wait_appending(&self) {
            let mut held = self.held.lock();
            while held.1 == 0 {
                self.changed.wait(&mut held);
            }
        }

        fn set_held(&self, held: bool) {
            self.held.lock().0 = held;
            self.changed.notify_all();
        }
    }

    impl Journal for HeldJournal {
        fn append(&self, record: &JournalRecord) -> MqResult<()> {
            let mut held = self.held.lock();
            held.1 += 1;
            self.changed.notify_all();
            while held.0 {
                self.changed.wait(&mut held);
            }
            held.1 -= 1;
            drop(held);
            self.inner.append(record)
        }

        fn replay(&self, sink: &mut ReplaySink<'_>) -> MqResult<()> {
            self.inner.replay(sink)
        }

        fn reset(&self) -> MqResult<()> {
            self.inner.reset()
        }

        fn len_bytes(&self) -> u64 {
            self.inner.len_bytes()
        }
    }

    /// Logs what it picks up on `LOG`, and declines a message reading
    /// "decline".
    struct LogPickUp;

    impl PickUp for LogPickUp {
        fn stage<'a>(&'a self, taken: &[&Message], tx: &mut Session) -> Option<Fate<'a>> {
            let entry = Message::text("seen").persistent(true).build();
            if taken.iter().any(|msg| msg.payload_str() == Some("decline")) {
                return None;
            }
            tx.put("LOG", entry).ok()?;
            Some(Box::new(|_| ()))
        }
    }

    /// Parks a get with [`LogPickUp`] on `Q` in a transaction of its own,
    /// and returns what it took and the transaction, ended.
    fn picking_up(qm: &Arc<QueueManager>) -> (Taken, Session) {
        let mut tx = qm.session();
        tx.begin().unwrap();
        let pick_up: Arc<dyn PickUp> = Arc::new(LogPickUp);
        let taken = tx.get_picking_up("Q", Wait::Timeout(Millis(1_000)), &pick_up);
        (taken.unwrap().expect("a message"), tx)
    }

    /// The put a getter with a pick-up is claimed for leaves the record and
    /// the pick-up's puts join it. Refused, the record takes neither: the
    /// getter waits on, the put goes back where it was and what the
    /// pick-up staged is gone.
    #[test]
    fn a_pick_up_rides_the_record_of_the_put_its_getter_is_handed() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1").journal(journal.clone()).build().unwrap();
        for queue in ["Q", "LOG", "OUT"] {
            qm.create_queue(queue).unwrap();
        }
        let persistent = |text: &str| Message::text(text).persistent(true).build();
        std::thread::scope(|s| {
            let getter = s.spawn(|| picking_up(&qm));
            wait_getters(&qm, "Q", 1);
            let mut tx = qm.session();
            tx.begin().unwrap();
            tx.put("OUT", persistent("a")).unwrap();
            tx.put("Q", persistent("x")).unwrap();
            journal.set_failing(true);
            assert!(tx.commit().is_err());
            assert_eq!(qm.queue("Q").unwrap().waiting_getters(), 1, "still waiting");
            assert!(!getter.is_finished());
            journal.set_failing(false);
            tx.commit().unwrap();
            let (taken, mut read) = getter.join().unwrap();
            assert!(matches!(&taken, Taken::Handed(m) if m.payload_str() == Some("x")));
            read.commit().unwrap();
        });
        assert_eq!(last_puts(&journal), ["OUT", "LOG"], "the put out, the pick-up in");
        assert_eq!((qm.queue("Q").unwrap().depth(), qm.queue("LOG").unwrap().depth()), (0, 1));
        let metrics = qm.metrics_snapshot();
        assert_eq!((metrics.counter("mq.tx.handed"), metrics.counter("mq.tx.picked_up")), (1, 1));
    }

    /// A pick-up takes the first put of a batch in delivery order, priority
    /// first, and the rest are queued; when it declines that put the whole
    /// batch is queued, and the getter takes the first as any get does.
    #[test]
    fn a_pick_up_takes_the_first_of_a_batch_in_delivery_order_and_leaves_the_rest_queued() {
        let qm = QueueManager::builder("QM1").build().unwrap();
        for queue in ["Q", "LOG"] {
            qm.create_queue(queue).unwrap();
        }
        let put = |text: &str, level| {
            let priority = crate::Priority::new(level);
            Message::text(text).persistent(true).priority(priority).build()
        };
        // The puts with their priority levels, the message the getter takes,
        // whether it is handed that message, and what stays queued.
        type Case = (&'static [(&'static str, u8)], &'static str, bool, &'static [&'static str]);
        let cases: [Case; 4] = [
            (&[("one", 4), ("two", 4)], "one", true, &["two"]),
            (&[("low", 4), ("high", 6)], "high", true, &["low"]),
            (&[("decline", 4)], "decline", false, &[]),
            (&[("decline", 4), ("two", 4)], "decline", false, &["two"]),
        ];
        for (puts, first, handed, rest) in cases {
            std::thread::scope(|s| {
                let getter = s.spawn(|| picking_up(&qm));
                wait_getters(&qm, "Q", 1);
                let mut tx = qm.session();
                tx.begin().unwrap();
                for &(text, level) in puts {
                    tx.put("Q", put(text, level)).unwrap();
                }
                tx.commit().unwrap();
                let (taken, mut read) = getter.join().unwrap();
                assert_eq!(matches!(taken, Taken::Handed(_)), handed, "{puts:?}");
                assert_eq!(taken.into_message().payload_str(), Some(first));
                read.commit().unwrap();
            });
            let queued: Vec<_> = qm.queue("Q").unwrap().browse();
            let queued: Vec<_> = queued.iter().map(|m| m.payload_str().unwrap()).collect();
            assert_eq!(queued, rest, "{puts:?}");
            qm.queue("Q").unwrap().purge().unwrap();
        }
        assert_eq!(qm.queue("LOG").unwrap().depth(), 2, "one entry per pick-up");
        let metrics = qm.metrics_snapshot();
        assert_eq!((metrics.counter("mq.tx.handed"), metrics.counter("mq.tx.picked_up")), (2, 2));
    }

    /// A getter claimed by a commit waits for its record past its own
    /// timeout: the put is the getter's once written.
    #[test]
    fn a_claim_outlives_its_getters_timeout() {
        let clock = SimClock::new();
        let journal = Arc::new(HeldJournal {
            inner: MemJournal::new(),
            held: Mutex::new((false, 0)),
            changed: Condvar::new(),
        });
        let qm = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        qm.create_queue("OUT").unwrap();
        std::thread::scope(|s| {
            let getter = s.spawn(|| qm.get("Q", Wait::Timeout(Millis(100))));
            wait_getters(&qm, "Q", 1);
            journal.set_held(true);
            // A record is written for the put to OUT; the one to Q rides
            // nothing and is handed over once that record is written.
            let putter = s.spawn(|| {
                let mut tx = qm.session();
                tx.begin()?;
                tx.put("OUT", Message::text("kept").persistent(true).build())?;
                tx.put("Q", Message::text("m").persistent(true).build())?;
                tx.commit()
            });
            journal.wait_appending();
            clock.advance(Millis(200));
            std::thread::sleep(Duration::from_millis(20));
            let waited = !getter.is_finished();
            journal.set_held(false);
            putter.join().unwrap().unwrap();
            let got = getter.join().unwrap().unwrap();
            assert!(waited, "claimed: it waits past its timeout");
            assert_eq!(got.unwrap().payload_str(), Some("m"));
        });
        assert_eq!(qm.metrics_snapshot().counter("mq.tx.handed"), 1);
        assert_eq!(qm.queue("Q").unwrap().depth(), 0);
        assert_eq!(last_puts(&journal.inner), ["OUT"]);
    }

    fn setup() -> (Arc<MemJournal>, Arc<QueueManager>) {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .clock(SimClock::new())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        qm.create_queue("OUT").unwrap();
        (journal, qm)
    }

    /// Managers sharing one observability hub each read their own count of
    /// released handoffs, and the hub holds one cell per manager.
    #[test]
    fn managers_sharing_a_hub_read_their_own_released_count() {
        let obs = crate::obs::Obs::new();
        let release = |name: &str, n: usize| {
            let qm = QueueManager::builder(name)
                .clock(SimClock::new())
                .obs(obs.clone())
                .build()
                .unwrap();
            qm.create_queue("Q").unwrap();
            for _ in 0..n {
                qm.put("Q", Message::text("m").persistent(true).build()).unwrap();
            }
            let mut s = qm.session();
            s.begin().unwrap();
            for _ in 0..n {
                s.get("Q", Wait::NoWait).unwrap().unwrap();
            }
            s.release().unwrap();
            qm
        };
        let (a, b) = (release("QM.A", 2), release("QM.B", 1));
        assert_eq!((a.stats().released.get(), b.stats().released.get()), (2, 1));
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.gauges["mq.channel.QM.A.released"].current, 2);
        assert_eq!(snapshot.gauges["mq.channel.QM.B.released"].current, 1);
    }

    #[test]
    fn non_transacted_session_is_passthrough() {
        let (_j, qm) = setup();
        let mut s = qm.session();
        s.put("Q", Message::text("a").build()).unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
        let got = s.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("a"));
    }

    #[test]
    fn staged_puts_invisible_until_commit() {
        let (_j, qm) = setup();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", Message::text("staged").build()).unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 0, "put staged, not visible");
        s.commit().unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
        assert_eq!(qm.stats().tx_committed.get(), 1);
    }

    #[test]
    fn rollback_discards_staged_puts() {
        let (_j, qm) = setup();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", Message::text("staged").build()).unwrap();
        s.rollback().unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 0);
        assert_eq!(qm.stats().tx_rolled_back.get(), 1);
    }

    #[test]
    fn transactional_get_is_invisible_and_rollback_requeues() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("m").build()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        let got = s.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("m"));
        assert_eq!(qm.queue("Q").unwrap().depth(), 0, "in-flight, not on queue");
        // Another consumer sees nothing.
        assert!(qm.get("Q", Wait::NoWait).unwrap().is_none());
        s.rollback().unwrap();
        let back = qm.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(back.payload_str(), Some("m"));
        assert_eq!(back.redelivery_count(), 1);
    }

    #[test]
    fn commit_consumes_get_permanently() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("m").build()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.get("Q", Wait::NoWait).unwrap().unwrap();
        s.commit().unwrap();
        assert!(qm.get("Q", Wait::NoWait).unwrap().is_none());
    }

    #[test]
    fn get_then_put_reply_is_atomic() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("req").build()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        let req = s.get("Q", Wait::NoWait).unwrap().unwrap();
        s.put(
            "OUT",
            Message::text(format!("reply-to-{}", req.payload_str().unwrap())).build(),
        )
        .unwrap();
        assert_eq!(qm.queue("OUT").unwrap().depth(), 0);
        s.commit().unwrap();
        assert_eq!(qm.queue("OUT").unwrap().depth(), 1);
        assert_eq!(qm.queue("Q").unwrap().depth(), 0);
    }

    #[test]
    fn begin_twice_and_commit_without_begin_error() {
        let (_j, qm) = setup();
        let mut s = qm.session();
        s.begin().unwrap();
        assert!(matches!(s.begin(), Err(MqError::TransactionActive)));
        s.rollback().unwrap();
        assert!(matches!(s.commit(), Err(MqError::NoTransaction)));
        assert!(matches!(s.rollback(), Err(MqError::NoTransaction)));
    }

    #[test]
    fn an_empty_transaction_is_not_an_event() {
        // A read that found its queue empty ends its transaction without a
        // journal record and without moving either counter.
        let (journal, qm) = setup();
        let records = journal.record_count();
        for commit in [true, false] {
            let mut s = qm.session();
            s.begin().unwrap();
            assert!(s.get("Q", Wait::NoWait).unwrap().is_none());
            if commit {
                s.commit().unwrap();
            } else {
                s.rollback().unwrap();
            }
            assert!(!s.in_transaction());
        }
        assert_eq!(qm.stats().tx_committed.get(), 0);
        assert_eq!(qm.stats().tx_rolled_back.get(), 0);
        assert_eq!(journal.record_count(), records);
    }

    #[test]
    fn drop_with_active_tx_rolls_back() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("m").build()).unwrap();
        {
            let mut s = qm.session();
            s.begin().unwrap();
            s.get("Q", Wait::NoWait).unwrap().unwrap();
            // dropped without commit
        }
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
        assert_eq!(qm.stats().tx_rolled_back.get(), 1);
    }

    #[test]
    fn repeated_rollback_dead_letters_poison_message() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal)
            .config(ManagerConfig {
                backout_threshold: 2,
                ..ManagerConfig::default()
            })
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("poison").persistent(true).build())
            .unwrap();
        for _ in 0..3 {
            let mut s = qm.session();
            s.begin().unwrap();
            let got = s.get("Q", Wait::NoWait).unwrap();
            if got.is_none() {
                break;
            }
            s.rollback().unwrap();
        }
        assert_eq!(qm.queue("Q").unwrap().depth(), 0, "message removed from Q");
        let dlq = qm.get(DEAD_LETTER_QUEUE, Wait::NoWait).unwrap().unwrap();
        assert_eq!(dlq.payload_str(), Some("poison"));
        assert!(dlq.str_property(DLQ_REASON_PROPERTY).is_some());
    }

    #[test]
    fn committed_transaction_survives_crash() {
        let (journal, qm) = setup();
        qm.put("Q", Message::text("in").persistent(true).build())
            .unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.get("Q", Wait::NoWait).unwrap().unwrap();
        s.put("OUT", Message::text("out").persistent(true).build())
            .unwrap();
        s.commit().unwrap();
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 0);
        assert_eq!(qm2.queue("OUT").unwrap().depth(), 1);
    }

    /// A commit resolves each put's queue by name, as replay does: a put
    /// staged before its queue was deleted and created again lands once,
    /// in the queue of that name, live and after a restart.
    #[test]
    fn a_put_staged_across_its_queues_delete_and_re_create_lands_once_in_the_new_queue() {
        let (journal, qm) = setup();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", Message::text("staged").persistent(true).build())
            .unwrap();
        qm.delete_queue("Q").unwrap();
        qm.create_queue("Q").unwrap();
        s.commit().unwrap();
        let depths = |qm: &QueueManager| {
            let depth = |name| qm.queue(name).unwrap().depth();
            (depth("Q"), depth(DEAD_LETTER_QUEUE))
        };
        assert_eq!(depths(&qm), (1, 0), "live");
        qm.crash();
        let qm = QueueManager::builder("QM1").journal(journal).build().unwrap();
        assert_eq!(depths(&qm), (1, 0), "recovered");
        let got = qm.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("staged"));
    }

    /// A put whose queue is gone at commit is dead-lettered, and the
    /// recovered manager holds it there too, once.
    #[test]
    fn a_put_whose_queue_is_gone_at_commit_is_dead_lettered_once() {
        let (journal, qm) = setup();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", Message::text("orphan").persistent(true).build())
            .unwrap();
        s.put("OUT", Message::text("kept").persistent(true).build())
            .unwrap();
        qm.delete_queue("Q").unwrap();
        s.commit().unwrap();
        let depths = |qm: &QueueManager| {
            let depth = |name| qm.queue(name).unwrap().depth();
            (qm.queue_exists("Q"), depth("OUT"), depth(DEAD_LETTER_QUEUE))
        };
        assert_eq!(depths(&qm), (false, 1, 1), "live");
        qm.crash();
        let qm = QueueManager::builder("QM1").journal(journal).build().unwrap();
        assert_eq!(depths(&qm), (false, 1, 1), "recovered");
        let orphan = qm.get(DEAD_LETTER_QUEUE, Wait::NoWait).unwrap().unwrap();
        assert_eq!(orphan.payload_str(), Some("orphan"));
        assert_eq!(orphan.str_property(DLQ_REASON_PROPERTY), Some("unknown queue Q"));
    }

    #[test]
    fn uncommitted_transaction_rolls_back_across_crash() {
        let (journal, qm) = setup();
        qm.put("Q", Message::text("in").persistent(true).build())
            .unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.get("Q", Wait::NoWait).unwrap().unwrap();
        s.put("OUT", Message::text("out").persistent(true).build())
            .unwrap();
        // Crash before commit: tx must vanish entirely.
        qm.crash();
        drop(s); // rollback attempt against crashed manager is harmless
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 1, "get rolled back");
        assert_eq!(qm2.queue("OUT").unwrap().depth(), 0, "put never happened");
    }

    #[test]
    fn transactional_put_to_remote_stages_on_xmit_queue() {
        let (_j, qm) = setup();
        qm.define_route("QM2", "XMIT.QM2").unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put_to(
            &QueueAddress::new("QM2", "FAR.Q"),
            Message::text("x").build(),
        )
        .unwrap();
        assert_eq!(qm.queue("XMIT.QM2").unwrap().depth(), 0);
        s.commit().unwrap();
        assert_eq!(qm.queue("XMIT.QM2").unwrap().depth(), 1);
    }

    #[test]
    fn filtered_get_in_transaction() {
        let (_j, qm) = setup();
        for (text, k) in [("a", 1i64), ("b", 2)] {
            qm.put("Q", Message::text(text).correlation_id("c").property("k", k).build())
                .unwrap();
        }
        let mut s = qm.session();
        s.begin().unwrap();
        let got = s
            .get_by_correlation("Q", "c", |m| m.i64_property("k") == Some(2), Wait::NoWait)
            .unwrap()
            .unwrap();
        assert_eq!(got.payload_str(), Some("b"));
        s.rollback().unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 2);
    }

    #[test]
    fn staging_put_to_missing_queue_fails_fast() {
        let (_j, qm) = setup();
        let mut s = qm.session();
        s.begin().unwrap();
        assert!(matches!(
            s.put("MISSING", Message::text("x").build()),
            Err(MqError::QueueNotFound(_))
        ));
        s.rollback().unwrap();
    }

    #[test]
    fn staged_puts_count_against_max_depth() {
        let (_j, qm) = setup();
        let bounded = crate::QueueConfig { max_depth: Some(3) };
        qm.create_queue_with("SMALL", bounded).unwrap();
        qm.put("SMALL", Message::text("live").build()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("SMALL", Message::text("a").build()).unwrap();
        s.put("Q", Message::text("elsewhere").build()).unwrap();
        s.put("SMALL", Message::text("b").build()).unwrap();
        // One live + two staged: the queue has no room for a third.
        assert!(matches!(
            s.put("SMALL", Message::text("c").build()),
            Err(MqError::QueueFull(name)) if name == "SMALL"
        ));
        // The refusal leaves the transaction as it was.
        s.commit().unwrap();
        assert_eq!(qm.queue("SMALL").unwrap().depth(), 3);
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
    }

    #[test]
    fn correlation_get_in_transaction_rolls_back_into_index() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("corr-msg").correlation_id("c-1").build())
            .unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        let got = s
            .get_by_correlation("Q", "c-1", |_| true, Wait::NoWait)
            .unwrap()
            .unwrap();
        assert_eq!(got.payload_str(), Some("corr-msg"));
        assert!(
            s.get_by_correlation("Q", "c-1", |_| true, Wait::NoWait)
                .unwrap()
                .is_none(),
            "in-flight: invisible"
        );
        s.rollback().unwrap();
        // The rollback re-inserts the message *and* its index entry.
        let again = qm
            .get_by_correlation("Q", "c-1", Wait::NoWait)
            .unwrap()
            .unwrap();
        assert_eq!(again.payload_str(), Some("corr-msg"));
        assert_eq!(again.redelivery_count(), 1);
    }

    #[test]
    fn correlation_get_commit_consumes() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("a").correlation_id("c").build())
            .unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.get_by_correlation("Q", "c", |_| true, Wait::NoWait)
            .unwrap()
            .unwrap();
        s.commit().unwrap();
        assert!(qm
            .get_by_correlation("Q", "c", Wait::NoWait)
            .unwrap()
            .is_none());
        assert_eq!(qm.queue("Q").unwrap().depth(), 0);
    }

    #[test]
    fn redelivered_message_preserves_payload_and_order() {
        let (_j, qm) = setup();
        qm.put("Q", Message::text("first").build()).unwrap();
        qm.put("Q", Message::text("second").build()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        let a = s.get("Q", Wait::NoWait).unwrap().unwrap();
        let b = s.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(a.payload_str(), Some("first"));
        assert_eq!(b.payload_str(), Some("second"));
        s.rollback().unwrap();
        // Order restored: first then second (front requeue of b then a
        // would invert; ensure implementation keeps FIFO).
        let a2 = qm.get("Q", Wait::NoWait).unwrap().unwrap();
        let b2 = qm.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(a2.payload_str(), Some("first"));
        assert_eq!(b2.payload_str(), Some("second"));
    }
}
