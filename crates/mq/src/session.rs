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
//! purge and the sweep that removes messages past their TTL. A put bound
//! for a queue with an [`ArrivalTrigger`] is never queued: the commit hands
//! it to the trigger, which stages what it causes into the same
//! transaction, and one record covers both.
//!
//! A transaction has a third ending beside commit and rollback, *release*
//! ([`Session::release`]), for the one consumer whose gets something other
//! than this manager's journal already makes safe to repeat: the channel
//! mover, once the peer has acknowledged a batch. A released get writes no
//! record of its own; it stays a pending get and rides the next `TxCommit`
//! the manager writes ([`Released`]).

use std::sync::Arc;

use simtime::{Millis, Time};

use crate::channel::MAX_RELEASED;
use crate::error::{MqError, MqResult};
use crate::journal::JournalRecord;
use crate::message::{Message, MessageId, QueueAddress};
use crate::qmgr::{QueueManager, DEAD_LETTER_QUEUE, DLQ_REASON_PROPERTY};
use crate::queue::{ArrivalTrigger, Queue, Wait};
use crate::trace::TraceStage;

/// What a transaction holds between its first operation and its end.
#[derive(Default)]
pub(crate) struct TxState {
    /// Puts staged until commit, each with the local queue it is bound for.
    staged_puts: Vec<(Arc<Queue>, Message)>,
    /// Messages consumed from queues, invisible to other consumers,
    /// returned on rollback.
    gets: Vec<(Arc<Queue>, Message)>,
    /// Begun with [`Session::begin`]: counted in `mq.tx.committed` by the
    /// commit that applies it.
    explicit: bool,
    /// A flush of the released gets: its record is written even when they
    /// are all it carries.
    flush: bool,
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

    /// Whether the oldest release has waited `linger` for a record to ride.
    fn lingering(&self, now: Time, linger: Millis) -> bool {
        self.since.is_some_and(|since| now.since(since) >= linger)
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

    /// What became of `carried`: written, its gets are covered; refused,
    /// they wait again, ahead of what was released since.
    fn settle(&mut self, mut carried: Released, written: bool) {
        self.riding -= carried.gets.len();
        if !written {
            carried.gets.append(&mut self.gets);
            self.gets = carried.gets;
            self.since = carried.since.or(self.since);
        }
    }
}

/// What an applied transaction leaves to do once the gate is released.
#[derive(Default)]
struct Applied {
    /// The queue of each put made visible, to wake its consumers and
    /// watchers.
    to_notify: Vec<Arc<Queue>>,
    /// Puts whose queue was closed under the transaction.
    orphaned: Vec<Message>,
    /// How many released gets the record carried.
    carried: usize,
}

/// The staged puts of one transaction that were bound for a triggered
/// queue, taken out of it for the trigger to consume.
struct Arrival {
    queue: Arc<Queue>,
    /// Where each message sat among the staged puts.
    at: Vec<usize>,
    messages: Vec<Message>,
}

impl TxState {
    /// Whether the transaction has neither consumed nor staged anything (a
    /// read that found its queue empty): ending it is not an event — no
    /// journal record, nothing to apply or undo, nothing to count.
    fn is_empty(&self) -> bool {
        self.gets.is_empty() && self.staged_puts.is_empty()
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
        q.check_room(|| self.staged_puts.iter().filter(|(to, _)| Arc::ptr_eq(to, &q)).count())?;
        self.staged_puts.push((q, msg));
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
    /// is covered by the record of the commit or undone by the rollback.
    pub(crate) fn get(
        &mut self,
        manager: &QueueManager,
        queue: &str,
        wait: Wait,
    ) -> MqResult<Option<Message>> {
        let q = manager.queue(queue)?;
        let msg = q.take_blocking(wait)?;
        self.gets.extend(msg.clone().map(|m| (q, m)));
        Ok(msg)
    }

    pub(crate) fn get_by_correlation(
        &mut self,
        manager: &QueueManager,
        queue: &str,
        corr: &str,
        accept: impl Fn(&Message) -> bool,
        wait: Wait,
    ) -> MqResult<Option<Message>> {
        let q = manager.queue(queue)?;
        let msg = q.take_by_correlation_blocking(corr, accept, wait)?;
        self.gets.extend(msg.clone().map(|m| (q, m)));
        Ok(msg)
    }

    /// Records a message already taken off `queue` as one of the gets.
    pub(crate) fn took(&mut self, queue: Arc<Queue>, msg: Message) {
        self.gets.push((queue, msg));
    }

    /// Takes out the staged puts bound for the first triggered queue among
    /// them, if there is one.
    fn take_arrival(&mut self) -> Option<(Arc<dyn ArrivalTrigger>, Arrival)> {
        let (queue, trigger) = self
            .staged_puts
            .iter()
            .find_map(|(q, _)| q.arrival_trigger().map(|trigger| (q.clone(), trigger)))?;
        let (mut at, mut messages) = (Vec::new(), Vec::new());
        for (i, (to, msg)) in std::mem::take(&mut self.staged_puts).into_iter().enumerate() {
            if Arc::ptr_eq(&to, &queue) {
                at.push(i);
                messages.push(msg);
            } else {
                self.staged_puts.push((to, msg));
            }
        }
        Some((trigger, Arrival { queue, at, messages }))
    }

    /// Stages the messages of `arrival` again, each where it was.
    fn restore(&mut self, arrival: Arrival) {
        for (at, msg) in arrival.at.into_iter().zip(arrival.messages) {
            self.staged_puts.insert(at, (arrival.queue.clone(), msg));
        }
    }
}

impl QueueManager {
    /// The one commit path: the only way a message enters or leaves a queue
    /// durably. Journals one `TxCommit` record, then makes the staged puts
    /// visible and finalizes the gets. Puts bound for a triggered queue go
    /// to its trigger first ([`QueueManager::commit_arrival`]). The
    /// checkpoint a grown journal is due is the caller's to run
    /// ([`QueueManager::maybe_checkpoint`]): it starts with a sweep, which
    /// commits here.
    ///
    /// # Errors
    ///
    /// With `Some(tx)`, the record could not be written and nothing
    /// happened: the transaction comes back for a retry or a rollback.
    /// With `None`, a trigger ended the transaction it was handed.
    pub(crate) fn commit(&self, mut tx: TxState) -> Result<(), (MqError, Option<TxState>)> {
        match tx.take_arrival() {
            Some((trigger, arrival)) => self.commit_arrival(tx, &*trigger, arrival),
            None => self.commit_record(tx),
        }
    }

    /// Commits a transaction whose puts for its triggered queue were taken
    /// out as `arrival`: the trigger stages what they cause into the rest
    /// of the transaction, before the mutation gate is taken (the trigger
    /// takes its own locks first) and on the committing thread, and the
    /// record that is then written covers both. The trigger hears what
    /// became of the record before anything else does; after that, outside
    /// the gate and outside the trigger's locks, the transaction's watchers
    /// run, the triggered queue's once for the transaction. A refusal, or a
    /// trigger that declines, undoes what the trigger staged (its gets go
    /// back without spending backout budget) and restores the transaction
    /// as it came, arrivals included: refused, it goes back to the
    /// committer; declined, it is committed with the arrivals queued.
    // lint: custody(msg, err-reverts)
    fn commit_arrival(
        &self,
        mut tx: TxState,
        trigger: &dyn ArrivalTrigger,
        arrival: Arrival,
    ) -> Result<(), (MqError, Option<TxState>)> {
        let Some(manager) = self.me.upgrade() else {
            tx.restore(arrival);
            return self.commit_record(tx);
        };
        let (puts, gets) = (tx.staged_puts.len(), tx.gets.len());
        let mut session = Session { manager, tx: Some(tx) };
        let end = trigger.on_arrival(&arrival.messages, &mut session);
        // Ending the transaction is the commit's job, not the trigger's.
        let Some(tx) = session.tx.take() else {
            return Err((MqError::NoTransaction, None));
        };
        let (refused, mut tx) = match end {
            None => (None, tx),
            Some(end) => {
                let applied = self.apply(tx);
                end(applied.is_ok());
                match applied {
                    Ok(applied) => {
                        self.announce(applied);
                        arrival.queue.notify_put_watchers();
                        return Ok(());
                    }
                    Err((e, tx)) => (Some(e), tx),
                }
            }
        };
        tx.staged_puts.truncate(puts);
        let staged_gets = TxState { gets: tx.gets.split_off(gets), ..TxState::default() };
        let undone = self.rollback(staged_gets, false);
        tx.restore(arrival);
        match refused.map_or(undone, Err) {
            Err(e) => Err((e, Some(tx))),
            Ok(()) => self.commit_record(tx),
        }
    }

    /// Journals and applies one transaction, then wakes whom it concerns;
    /// see [`QueueManager::commit`].
    // lint: custody(msg, err-reverts)
    fn commit_record(&self, tx: TxState) -> Result<(), (MqError, Option<TxState>)> {
        let applied = self.apply(tx).map_err(|(e, tx)| (e, Some(tx)))?;
        self.announce(applied);
        Ok(())
    }

    /// Writes the `TxCommit` record of `tx` and applies it, under the
    /// mutation gate. Refused, nothing happened and `tx` comes back.
    // lint: custody(msg, err-reverts)
    fn apply(&self, mut tx: TxState) -> Result<Applied, (MqError, TxState)> {
        // Mutation gate read-held across [TxCommit append + applying its
        // effects]: a checkpoint can never snapshot half a transaction, nor
        // truncate the TxCommit record while its effects are missing.
        let gate = self.mutation_gate.read();
        let mut applied = Applied::default();
        // Stamped before the record is built: the journal holds each put
        // as enqueued, so a recovered message expires when it would have.
        for (queue, msg) in &mut tx.staged_puts {
            queue.stamp(msg);
        }
        // A put's message and queue name are shared with the record,
        // not copied: a clone of either is a reference count.
        let puts: Vec<_> = tx
            .staged_puts
            .iter()
            .filter(|(_, m)| m.is_persistent())
            .map(|(q, m)| (q.shared_name(), m.clone()))
            .collect();
        let own: Vec<_> = tx
            .gets
            .iter()
            .filter(|(_, m)| m.is_persistent())
            .map(|(q, m)| (q.shared_name(), m.id()))
            .collect();
        // The handoffs the channels released ride any record that is
        // written anyway, ahead of its own gets; taken under the gate,
        // and the guard is gone before the append.
        let carried = if tx.flush || !puts.is_empty() || !own.is_empty() {
            self.released.lock().carry()
        } else {
            Released::default()
        };
        let mut gets: Vec<_> =
            carried.gets.iter().map(|(q, id)| (q.shared_name(), *id)).collect();
        gets.extend(own);
        if !puts.is_empty() || !gets.is_empty() {
            self.stats().encodes.add(puts.len() as u64);
            let record = JournalRecord::TxCommit { puts, gets };
            let started = std::time::Instant::now();
            let appended = self.journal().append(&record);
            self.stats()
                .journal_append_micros
                .record_duration(started.elapsed());
            if let Err(e) = appended {
                self.settle_released(carried, false);
                return Err((e, tx));
            }
        }
        applied.carried = carried.gets.len();
        self.settle_released(carried, true);
        for (queue, msg) in tx.staged_puts {
            // The queue was open at stage time; one closed since (deleted
            // under the transaction) dead-letters the message rather than
            // losing it.
            match queue.put_committed(msg) {
                Ok(()) => applied.to_notify.push(queue),
                Err(mut msg) => {
                    msg.set_property(DLQ_REASON_PROPERTY, &format!("unknown queue {}", queue.name()));
                    applied.orphaned.push(msg);
                }
            }
        }
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
    /// start transactions of theirs.
    fn announce(&self, applied: Applied) {
        for msg in applied.orphaned {
            self.put(DEAD_LETTER_QUEUE, msg).unwrap_or(());
        }
        for q in applied.to_notify {
            q.notify_arrival();
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
    pub(crate) fn release(&self, tx: TxState) -> Result<(), (MqError, Option<TxState>)> {
        if !self.is_running() {
            // Crashed: the restart re-sends what no record covers.
            return Ok(());
        }
        // Only a get the journal holds needs a record; the others are done.
        let joining: Vec<_> = tx
            .gets
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
        if !joining.is_empty() {
            released.since.get_or_insert(now);
            released.gets.extend(joining);
            self.stats().released.set(released.outstanding() as u64);
        }
        drop(released);
        if tx.explicit {
            self.stats().tx_committed.incr();
        }
        Ok(())
    }

    /// Ends the ride of `carried`: a written record covers its gets, which
    /// stop being pending; a refused one leaves them released.
    fn settle_released(&self, carried: Released, written: bool) {
        if carried.gets.is_empty() {
            return;
        }
        if written {
            for (queue, get) in &carried.gets {
                queue.finalize_pending(*get);
            }
        }
        let mut released = self.released.lock();
        released.settle(carried, written);
        self.stats().released.set(released.outstanding() as u64);
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
        let written = self.apply(flush).map_err(|(e, _)| e)?;
        if written.carried > 0 {
            self.note_flush(why, written.carried);
        }
        Ok(())
    }

    /// Flushes once the oldest released get has waited `linger` on the
    /// manager's clock; a refused flush is retried by the next call.
    pub(crate) fn flush_released_after(&self, linger: Millis) {
        let now = self.clock().now();
        if self.released.lock().lingering(now, linger) {
            self.flush_released("idle").unwrap_or(());
        }
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
                // The operation happened; nobody can take back a get (or
                // safely repeat a put) because the checkpoint after it was
                // refused, and the next commit retries that.
                self.maybe_checkpoint().unwrap_or(());
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

    /// Commits the active transaction: journals one `TxCommit` record, then
    /// makes all staged puts visible and finalizes all gets.
    ///
    /// # Errors
    ///
    /// [`MqError::NoTransaction`] without an active transaction. When the
    /// journal refuses the record the commit did not happen and the
    /// transaction stays open, for a retry or an explicit rollback.
    pub fn commit(&mut self) -> MqResult<()> {
        let tx = self.tx.take().ok_or(MqError::NoTransaction)?;
        if tx.is_empty() {
            return Ok(());
        }
        self.manager.commit(tx).map_err(|(e, uncommitted)| {
            self.tx = uncommitted;
            e
        })?;
        self.manager.maybe_checkpoint()
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
        if !tx.staged_puts.is_empty() {
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

    /// Consumes the first message in delivery order with the given
    /// correlation id that `accept` takes (provisionally, if a transaction
    /// is active): a point read of the queue's correlation index, the one
    /// filtered get.
    ///
    /// # Errors
    ///
    /// Same as [`Session::get`].
    pub fn get_by_correlation(
        &mut self,
        queue: &str,
        corr: &str,
        accept: impl Fn(&Message) -> bool,
        wait: Wait,
    ) -> MqResult<Option<Message>> {
        self.run(|manager, tx| tx.get_by_correlation(manager, queue, corr, accept, wait))
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
    use crate::journal::MemJournal;
    use crate::qmgr::ManagerConfig;
    use simtime::SimClock;

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
