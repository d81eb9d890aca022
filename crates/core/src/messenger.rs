//! The sender-side conditional messaging service (paper §2.3, §2.5–§2.7).
//!
//! [`ConditionalMessenger`] is the application's entry point for sending
//! conditional messages. It owns the four sender-side service queues of the
//! paper's architecture (Fig. 9) — `DS.SLOG.Q`, `DS.ACK.Q`, `DS.COMP.Q`,
//! `DS.OUTCOME.Q` — and implements:
//!
//! * **Send** ([`ConditionalMessenger::send_message`]): journals a
//!   [`SendRecord`] to the sender log, fans the payload out as one standard
//!   message per destination leaf (with control properties), and parks one
//!   pre-generated compensation message — all in a single local messaging
//!   transaction, so a crash can never leave a half-sent conditional
//!   message. The condition is compiled once per distinct tree: every send
//!   of it shares one interned shape (`crate::shape`).
//! * **Evaluation manager**: one event-driven engine. The messenger is
//!   the standing claimant of `DS.ACK.Q` ([`mq::PickUp`],
//!   [`mq::Queue::stand`]): an acknowledgment is never queued but
//!   applied, on the committing
//!   thread, inside the transaction that delivers it, and only the
//!   messages those acknowledgments touch are re-evaluated; every pending
//!   message keeps one armed clock timer at its next deadline or timeout,
//!   whose fire decides that message. One evaluation cycle is one
//!   messaging transaction — one journal record: whatever delivered the
//!   acknowledgments, the verdicts they (or the clock) decide, and a
//!   sender-log entry for each acknowledgment whose message it does not
//!   decide. An evaluation changes only when that record is written: a
//!   cycle decides on copies of the evaluations its acknowledgments touch
//!   and installs them, verdicts included, once the record is written; a
//!   refused record drops the cycle and leaves nothing to undo.
//!   Acknowledgments that queued while no messenger was attached (or
//!   while it could not stage their verdicts) are taken from the queue by
//!   the next cycle — at attach time, by [`ConditionalMessenger::pump`] —
//!   through the same body.
//! * **Outcome notification**: the deciding transaction puts the verdict
//!   on `DS.OUTCOME.Q`, once, correlated by the conditional-message id.
//!   That queue is the one record of an outcome:
//!   [`ConditionalMessenger::take_outcome`] consumes the notification
//!   (waiting on the queue's selective waiter), and
//!   [`ConditionalMessenger::status`] peeks at it until then. The
//!   messenger keeps no table of decided messages.
//! * **Outcome actions**: on success, optional success notifications to all
//!   destinations; on failure, the parked compensation fanned out as one
//!   compensation message per destination leaf (paper §2.6). Both are
//!   staged into the deciding transaction, together with the outcome
//!   notification put on `DS.OUTCOME.Q` and the purge of the message's
//!   sender-log entries.
//! * **Recovery** ([`ConditionalMessenger::new`] replays the sender log):
//!   a restarted sender rebuilds its evaluation state machines exactly and
//!   continues monitoring in-flight conditional messages. A send record
//!   with a verdict entry beside it belongs to a decided D-Sphere member
//!   whose outcome actions are still deferred: the log keeps both exactly
//!   until [`ConditionalMessenger::release_outcome_actions`].
//!
//! Under a [`simtime::SimClock`] everything runs synchronously: acks are
//! evaluated inside the commit that delivers them and deadline verdicts fire
//! inside `advance`, so the notification is on the outcome queue when the
//! put or the `advance` returns. Under a system clock the timers fire from
//! the clock's waiter thread. Either way the clock drives every retry: a
//! cycle that storage refused, or acknowledgments the claimant could not
//! stage, arm one retry timer [`RETRY_BACKOFF`] ahead, twice as far after
//! each retry that fails again, up to [`RETRY_BACKOFF_MAX`]. The messenger
//! starts no thread of its own, and takes its timers with it when it is
//! dropped.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use mq::codec::WireEncode;
use mq::{Fate, IdMap, Message, MetricsSnapshot, PickUp, QueueManager, TraceStage, Wait};
use parking_lot::Mutex;
use simtime::{Millis, Time, TimerId};

use crate::condition::Condition;
use crate::config::{
    CondConfig, ServiceQueues, ACK_BATCH, DEFAULT_ACK_QUEUE, DEFAULT_COMP_QUEUE,
    DEFAULT_OUTCOME_QUEUE, DEFAULT_SLOG_QUEUE, RETRY_BACKOFF, RETRY_BACKOFF_MAX,
};
use crate::error::{CondError, CondResult};
use crate::eval::{Dimension, IncrementalEval, Verdict};
use crate::ids::CondMessageId;
use crate::metrics::MessengerMetrics;
use crate::shape::{Shape, ShapeTable};
use crate::wire::{
    self, AckKind, Acknowledgment, MessageOutcome, OutcomeNotification, SendOptions, SendRecord,
    SlogEntry,
};

/// Evaluation status of a conditional message, as known to this messenger.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageStatus {
    /// Monitoring and evaluation are still in progress.
    Pending,
    /// The evaluation finished with this outcome; its notification is
    /// still on `DS.OUTCOME.Q`.
    Decided(OutcomeNotification),
    /// Never sent here, or decided and its notification consumed (by
    /// [`ConditionalMessenger::take_outcome`] or a D-Sphere's release).
    Unknown,
}

struct PendingEval {
    shape: Arc<Shape>,
    timeout_at: Option<Time>,
    success_notifications: bool,
    defer_outcome_actions: bool,
    /// What acknowledgments change. A cycle works on a copy and the copy
    /// replaces this once the cycle's record is written.
    state: IncrementalEval,
    /// The one armed deadline/timeout timer for this message: id and the
    /// trigger time it is armed for.
    timer: Option<(TimerId, Time)>,
    /// Bumped every time the timer is (re)armed or cancelled; a firing
    /// callback carrying a stale generation is ignored.
    timer_gen: u64,
}

impl PendingEval {
    /// The evaluation of a message sent at `send_time` with `options`, no
    /// acknowledgment seen yet.
    fn new(
        shape: Arc<Shape>,
        send_time: Time,
        options: &SendOptions,
        ack_grace: Millis,
    ) -> PendingEval {
        PendingEval {
            state: IncrementalEval::new(shape.compiled(), send_time, ack_grace),
            shape,
            timeout_at: options.evaluation_timeout.map(|t| send_time + t),
            success_notifications: options.success_notifications.unwrap_or(false),
            defer_outcome_actions: options.defer_outcome_actions,
            timer: None,
            timer_gen: 0,
        }
    }

    /// The earliest future instant at which this evaluation could be
    /// decided by time alone: the incremental structure's next deadline
    /// trigger or the evaluation timeout, whichever comes first.
    fn next_trigger(&self) -> Option<Time> {
        match (self.state.next_deadline(), self.timeout_at) {
            (Some(d), Some(t)) => Some(d.min(t)),
            (d, t) => d.or(t),
        }
    }

    /// Whether a cycle at `now` would decide this evaluation as it stands:
    /// it is decided already, or its next trigger has come.
    fn due(&self, now: Time) -> bool {
        self.state.decided() || self.next_trigger().is_some_and(|at| at <= now)
    }

    /// This evaluation's verdict record, stamped `decided_at`, with the
    /// shape whose leaves its outcome actions go to.
    fn verdict(
        &self,
        cond_id: CondMessageId,
        outcome: MessageOutcome,
        reason: Option<String>,
        decided_at: Time,
    ) -> Decided {
        Decided {
            notification: OutcomeNotification {
                cond_id,
                outcome,
                reason,
                decided_at,
            },
            success_notifications: self.success_notifications,
            defer_outcome_actions: self.defer_outcome_actions,
            shape: Arc::clone(&self.shape),
            actions: Vec::new(),
        }
    }
}

/// Records one acknowledgment's stamps in an evaluation (live and during
/// recovery): its read, and its processing for a processing ack. Returns
/// the cell transitions. Idempotent.
fn apply(state: &mut IncrementalEval, ack: &Acknowledgment) -> u64 {
    let read = state.record(ack.leaf, Dimension::Pickup, ack.read_at);
    read + match ack.kind {
        AckKind::Read => 0,
        AckKind::Processed => {
            let processed_at = ack.processed_at.unwrap_or(ack.read_at);
            state.record(ack.leaf, Dimension::Process, processed_at)
        }
    }
}

/// A verdict reached in an evaluation cycle. Its message stays in the
/// pending table until the cycle's record is written.
struct Decided {
    notification: OutcomeNotification,
    success_notifications: bool,
    defer_outcome_actions: bool,
    /// The message's condition, whose leaves the outcome actions go to.
    shape: Arc<Shape>,
    /// Outcome actions staged with the verdict, traced once it commits.
    actions: Vec<(TraceStage, u32, Arc<str>)>,
}

/// What one evaluation-cycle transaction carries besides its session:
/// everything one protocol step dequeues, logs and enqueues is committed
/// as a single journal record, and nothing the cycle decides is installed
/// before that record is written.
#[derive(Default)]
struct Cycle {
    /// Messages addressed to `DS.ACK.Q`, malformed and unknown ones
    /// included.
    consumed: u64,
    /// How many of them came off the queue rather than from the claim.
    queued: u64,
    /// The acknowledgments among them that reached a pending evaluation.
    acks: Vec<Acknowledgment>,
    /// Each evaluation they touched, copied from the pending table at the
    /// first of them, with all of them applied.
    next: Vec<(CondMessageId, IncrementalEval)>,
    decided: Vec<Decided>,
}

/// The messenger's one retry timer.
struct RetryTimer {
    /// The armed timer, if any: armed by a cycle that failed or by
    /// acknowledgments the claimant declined, cleared when it fires or a
    /// cycle leaves no retry owed.
    armed: Option<TimerId>,
    /// How far ahead the next one is armed: [`RETRY_BACKOFF`], doubled by
    /// each arming up to [`RETRY_BACKOFF_MAX`].
    backoff: Millis,
}

impl Default for RetryTimer {
    fn default() -> RetryTimer {
        RetryTimer {
            armed: None,
            backoff: RETRY_BACKOFF,
        }
    }
}

impl RetryTimer {
    /// A cycle succeeded and left no retry owed: the backoff starts over,
    /// and the armed timer, if any, is handed back to be cancelled.
    fn succeeded(&mut self) -> Option<TimerId> {
        self.backoff = RETRY_BACKOFF;
        self.armed.take()
    }
}

/// The sender-side conditional messaging service.
pub struct ConditionalMessenger {
    qmgr: Arc<QueueManager>,
    /// [`CondConfig::ack_grace`].
    ack_grace: Millis,
    /// Messages under evaluation. An entry changes only by a cycle whose
    /// record is written, so the table is never held across the commit.
    // lint: never-hold(ConditionalMessenger.pending) across append
    pending: Mutex<IdMap<CondMessageId, PendingEval>>,
    /// One compiled shape per distinct condition that a pending message,
    /// a verdict, a send or a release in progress holds.
    shapes: Arc<ShapeTable>,
    /// Serializes evaluation cycles (ack arrival, timer fires, sends,
    /// `pump()`, `force_fail`) and deferred-action releases.
    pump_lock: Mutex<()>,
    /// Pre-registered `cond.*` metric cells (hot paths never touch the
    /// registry).
    metrics: MessengerMetrics,
    /// Messages a failed cycle left `due` (storage down at the decision
    /// instant). They sit in `pending` without a fresh timer of their own
    /// — their trigger is past due, a timer would fire at once and spin —
    /// and the retry timer, like every other evaluation cycle, retries
    /// them. Bound: each due pending message at most once, so never more
    /// than `pending_count()`, however many cycles fail — both readers
    /// drain the list under the pump lock and `rearm_ids` puts an id back
    /// only if it is not there.
    retry: Mutex<Vec<CondMessageId>>,
    /// The one armed retry timer, if any, and how far ahead the next one
    /// is armed.
    retry_timer: Mutex<RetryTimer>,
    /// Back-reference for timer callbacks and the ack queue's standing claim.
    self_weak: Weak<ConditionalMessenger>,
}

impl fmt::Debug for ConditionalMessenger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConditionalMessenger")
            .field("manager", &self.qmgr.name())
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

impl ConditionalMessenger {
    /// Attaches a conditional messaging service to a queue manager with
    /// default configuration, creating the service queues if needed and
    /// recovering in-flight evaluation state from the sender log.
    ///
    /// # Errors
    ///
    /// Queue-creation or journal failures; malformed sender-log entries, or
    /// an earlier build's outcome history on `DS.DONE.Q` (its deferred
    /// messages would be evaluated a second time): [`CondError::Malformed`].
    pub fn new(qmgr: Arc<QueueManager>) -> CondResult<Arc<ConditionalMessenger>> {
        ConditionalMessenger::with_config(qmgr, CondConfig::default())
    }

    /// Like [`ConditionalMessenger::new`] with explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`ConditionalMessenger::new`].
    pub fn with_config(
        qmgr: Arc<QueueManager>,
        config: CondConfig,
    ) -> CondResult<Arc<ConditionalMessenger>> {
        if qmgr.queue("DS.DONE.Q").is_ok_and(|done| !done.is_empty()) {
            return Err(CondError::Malformed("DS.DONE.Q: an earlier build's history".into()));
        }
        for queue in [
            DEFAULT_SLOG_QUEUE,
            DEFAULT_ACK_QUEUE,
            DEFAULT_COMP_QUEUE,
            DEFAULT_OUTCOME_QUEUE,
        ] {
            qmgr.ensure_queue(queue)?;
        }
        let metrics = MessengerMetrics::registered(qmgr.obs().metrics());
        let shapes = ShapeTable::new(
            metrics.shapes.clone(),
            metrics.analyze_runs.clone(),
            qmgr.name(),
        );
        let messenger = Arc::new_cyclic(|weak| ConditionalMessenger {
            qmgr,
            ack_grace: config.ack_grace,
            pending: Mutex::new(IdMap::default()),
            shapes,
            pump_lock: Mutex::new(()),
            metrics,
            retry: Mutex::new(Vec::new()),
            retry_timer: Mutex::new(RetryTimer::default()),
            self_weak: weak.clone(),
        });
        messenger.recover()?;
        {
            let _serial = messenger.pump_lock.lock();
            // From here on an ack is applied inside the transaction that
            // delivers it (the first of them waits for the catch-up below).
            let ack_queue = messenger.qmgr.queue(DEFAULT_ACK_QUEUE)?;
            let claimant: Weak<dyn PickUp> = messenger.self_weak.clone();
            ack_queue.stand(claimant);
            // Acks the claimant declined are queued once the commit that
            // delivers them is written; then the retry timer is armed for
            // them.
            let (weak, queue) = (messenger.self_weak.clone(), Arc::downgrade(&ack_queue));
            ack_queue.add_put_watcher(Arc::new(move || {
                let queued = queue.upgrade().is_some_and(|q| !q.is_empty());
                if let (true, Some(messenger)) = (queued, weak.upgrade()) {
                    messenger.arm_retry();
                }
            }));
            // Catch up on acks queued before the claimant stood, decide
            // what is already due and arm one timer per recovered message.
            // This is the only walk over the whole pending table.
            let recovered: Vec<CondMessageId> = messenger.pending.lock().keys().copied().collect();
            messenger.run_cycle_for(&recovered)?;
        }
        Ok(messenger)
    }

    /// The underlying queue manager.
    pub fn manager(&self) -> &Arc<QueueManager> {
        &self.qmgr
    }

    /// The names of the service queues (always the `DEFAULT_*_QUEUE`
    /// constants).
    pub fn config(&self) -> &'static ServiceQueues {
        ServiceQueues::get()
    }

    /// A point-in-time snapshot of every metric registered against the
    /// underlying manager's observability hub (including this service's
    /// `cond.*` metrics).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.qmgr.metrics_snapshot()
    }

    /// The shared message-lifecycle trace log.
    pub fn trace(&self) -> &mq::TraceLog {
        self.qmgr.trace()
    }

    // ------------------------------------------------------------ send --

    /// Sends a conditional message (paper's `sendMessage(Object,
    /// Condition)`). On failure a *system-generated* compensation message
    /// is delivered to every destination.
    ///
    /// # Errors
    ///
    /// [`CondError::InvalidCondition`] or messaging failures. On error
    /// nothing was sent (the send transaction rolled back).
    pub fn send_message(
        &self,
        payload: impl Into<Bytes>,
        condition: &Condition,
    ) -> CondResult<CondMessageId> {
        self.send_with(payload, None, condition, SendOptions::default())
    }

    /// Sends a conditional message with application-defined compensation
    /// data (paper's `sendMessage(Object, Object, Condition)`).
    ///
    /// # Errors
    ///
    /// See [`ConditionalMessenger::send_message`].
    pub fn send_message_with_compensation(
        &self,
        payload: impl Into<Bytes>,
        compensation: impl Into<Bytes>,
        condition: &Condition,
    ) -> CondResult<CondMessageId> {
        self.send_with(
            payload,
            Some(compensation.into()),
            condition,
            SendOptions::default(),
        )
    }

    /// Fully general send with per-send [`SendOptions`].
    ///
    /// # Errors
    ///
    /// See [`ConditionalMessenger::send_message`].
    pub fn send_with(
        &self,
        payload: impl Into<Bytes>,
        compensation: Option<Bytes>,
        condition: &Condition,
        options: SendOptions,
    ) -> CondResult<CondMessageId> {
        let payload = payload.into();
        let send_time = self.qmgr.clock().now();
        let (record, key) = wire::send_payload(send_time, condition, &options);
        let shape = self.shapes.intern(&record.slice(key), condition)?;
        if let Some(refusal) = shape.refusal() {
            self.metrics.analyze_rejected.incr();
            return Err(CondError::Analysis(refusal.clone()));
        }

        // One local transaction covers: the send record (WAL), the fan-out
        // (local queues and transmission queues alike), and the parked
        // compensation message. Atomic under crash.
        let cond_id = CondMessageId::generate();
        let mut session = self.qmgr.session();
        session.begin()?;
        session.put(DEFAULT_SLOG_QUEUE, wire::log_entry(cond_id, record))?;
        // Stage the parked compensation *before* the originals: commit
        // applies staged puts in order, so by the time any original is
        // visible (and can be acknowledged, evaluated and finalized), its
        // compensation is already on DS.COMP.Q. One for the whole message:
        // a failure fans it out per leaf.
        let comp = wire::park_compensation(cond_id, compensation.as_ref());
        session.put(DEFAULT_COMP_QUEUE, comp)?;
        let leaves = shape.compiled().leaves().iter().zip(shape.leaves());
        for (leaf, of_shape) in leaves {
            let original =
                Message::from_template(&of_shape.template, payload.clone(), cond_id.as_u128());
            session.put_to(&leaf.queue, original)?;
        }
        // Register the evaluation *before* the fan-out commit: the moment
        // the commit makes the messages visible, a fast receiver's ack can
        // race into DS.ACK.Q and be pumped — it must find the pending
        // entry, not be dropped as unknown.
        let eval = PendingEval::new(Arc::clone(&shape), send_time, &options, self.ack_grace);
        self.pending.lock().insert(cond_id, eval);
        if let Err(e) = session.commit() {
            self.pending.lock().remove(&cond_id);
            return Err(e.into());
        }
        let fanout = shape.leaves().len();
        self.metrics.sent.incr();
        self.metrics.fanout.add(fanout as u64);
        self.metrics
            .pending_depth
            .set(self.pending.lock().len() as u64);
        let trace = self.qmgr.trace();
        let id = Some(cond_id.as_u128());
        trace.record(send_time, TraceStage::Send, id, None, shape.send_detail().clone());
        for (leaf, of_shape) in shape.compiled().leaves().iter().zip(shape.leaves()) {
            let dest = of_shape.dest.clone();
            trace.record(send_time, TraceStage::FanOut, id, Some(leaf.index), dest);
        }
        // Arm the new message's deadline timer (and decide vacuous
        // conditions) right away.
        let _serial = self.pump_lock.lock();
        if !self.arm_sent(cond_id) {
            self.run_event(&[cond_id]);
        }
        Ok(cond_id)
    }

    /// Arms the timer of `id`, just sent, when that is all the cycle its
    /// send would run does: no acknowledgment waits on the queue, no
    /// verdict waits to be retried, and the clock cannot decide the
    /// message now (its cells expired as the cycle expires them). False
    /// when the cycle has more to do and must run. Caller holds the pump
    /// lock.
    fn arm_sent(&self, id: CondMessageId) -> bool {
        let ack_queue_empty = self.qmgr.queue(DEFAULT_ACK_QUEUE).is_ok_and(|q| q.is_empty());
        if !ack_queue_empty || !self.retry.lock().is_empty() {
            return false;
        }
        let now = self.qmgr.clock().now();
        let mut pending = self.pending.lock();
        // Decided already, by an acknowledgment's cycle: nothing to arm.
        let Some(eval) = pending.get_mut(&id) else {
            return true;
        };
        let expired = eval.state.on_time(now);
        if expired > 0 {
            self.metrics.eval_incremental_updates.add(expired);
        }
        if eval.due(now) {
            return false;
        }
        self.rearm_entry(id, eval);
        true
    }

    // ------------------------------------------------------ evaluation --

    /// Drains whatever is waiting on `DS.ACK.Q` (nothing, unless acks
    /// landed while no messenger was attached or the claimant declined
    /// them: it consumes them as they arrive) and retries the verdicts a
    /// storage error interrupted — what the retry timer does on its own
    /// [`RETRY_BACKOFF`] later. O(acks waiting + retries), never a scan
    /// of the pending table — time-only verdicts come from the armed
    /// timers. Outcomes are learned from `DS.OUTCOME.Q`
    /// ([`take_outcome`](Self::take_outcome)) or peeked at with
    /// [`status`](Self::status), never from here.
    ///
    /// # Errors
    ///
    /// Messaging failures; what failed is retried by the next cycle.
    /// Malformed acknowledgments are consumed and skipped rather than
    /// wedging the queue.
    pub fn pump(&self) -> CondResult<()> {
        let _serial = self.pump_lock.lock();
        self.metrics.pump_iterations.incr();
        self.run_cycle_for(&[])
    }

    /// Evaluation cycles from the queue: decides — and rearms — `seed`, the
    /// verdicts waiting to be retried and the messages whose
    /// acknowledgments are waiting on `DS.ACK.Q`. O(touched). Sound because every
    /// pending message keeps an armed timer at its next decision-relevant
    /// instant, so time-only decisions arrive via their own timer fire.
    /// Caller holds the pump lock.
    fn run_cycle_for(&self, seed: &[CondMessageId]) -> CondResult<()> {
        let mut ids = seed.to_vec();
        ids.append(&mut self.retry.lock());
        // A failed transaction put its acks back on the queue and leaves
        // its due messages for the retry list, but the ones before it
        // committed and every id seen must keep its timer.
        let result = self.run_transactions(&mut ids);
        self.rearm_ids(ids, result.is_err());
        if result.is_err() {
            self.arm_retry();
        } else {
            // Nothing is owed a retry: the list is empty, the queue drained.
            let armed = self.retry_timer.lock().succeeded();
            if let Some(timer) = armed {
                self.qmgr.clock().cancel(timer);
            }
        }
        result
    }

    /// [`run_cycle_for`](Self::run_cycle_for) from an event with no caller
    /// to report to (send, timer fire). A failed transaction left its acks
    /// on the queue and its due messages on the retry list, and armed the
    /// retry timer; it, or any event before it, retries both.
    fn run_event(&self, seed: &[CondMessageId]) {
        if self.run_cycle_for(seed).is_err() {
            self.metrics.eval_errors.incr();
        }
    }

    /// Runs one cycle per [`ACK_BATCH`] queued acknowledgments until the ack
    /// queue is empty; the first also decides the ids already in `ids`.
    /// Every id an acknowledgment touches is appended to `ids`.
    fn run_transactions(&self, ids: &mut Vec<CondMessageId>) -> CondResult<()> {
        let mut decided_upto = 0;
        loop {
            let mut session = self.qmgr.session();
            let mut cycle = Cycle::default();
            let staged = self.stage_cycle(&mut session, &mut cycle, &[], ids, decided_upto);
            decided_upto = ids.len();
            if staged.is_ok() && !session.in_transaction() {
                return Ok(());
            }
            self.commit_cycle(&mut session, cycle, staged)?;
        }
    }

    /// Up to [`ACK_BATCH`] gets from the ack queue, in `session`'s
    /// transaction, or one opened only when there is something to get — an
    /// idle wakeup must not open a session (or touch the journal) to learn
    /// there is nothing to drain.
    fn take_queued(&self, session: &mut mq::Session) -> CondResult<Vec<Message>> {
        let mut queued = Vec::new();
        if !self.qmgr.queue(DEFAULT_ACK_QUEUE)?.is_empty() {
            if !session.in_transaction() {
                session.begin()?;
            }
            while queued.len() < ACK_BATCH {
                let Some(msg) = session.get(DEFAULT_ACK_QUEUE, Wait::NoWait)? else {
                    break;
                };
                queued.push(msg);
            }
        }
        Ok(queued)
    }

    /// Stages one evaluation cycle — one protocol step, one journal record
    /// — into `session`, whichever way its acknowledgments come: `arrived`
    /// from the claim (then `session` is joined to the transaction that
    /// addressed them to the ack queue) behind whatever is waiting on the
    /// queue itself. Staged are the verdicts of `ids[from..]` plus the ids
    /// the acknowledgments touch, and an `AckSeen` log entry for each one
    /// whose message the cycle does not decide (a verdict purges the
    /// message's log entries). Opens no transaction when there is neither
    /// an ack nor a verdict. Caller holds the pump lock, and follows up
    /// with [`publish`](Self::publish) once the record is written; a cycle
    /// whose record is not written is dropped, since the pending table
    /// has not changed (the acknowledgments are with whoever holds the
    /// transaction: back on the queue, in a transport batch to resend, in
    /// a read to retry or to abandon).
    fn stage_cycle(
        &self,
        session: &mut mq::Session,
        cycle: &mut Cycle,
        arrived: &[&Message],
        ids: &mut Vec<CondMessageId>,
        from: usize,
    ) -> CondResult<()> {
        let queued = self.take_queued(session)?;
        cycle.queued = queued.len() as u64;
        cycle.consumed = cycle.queued + arrived.len() as u64;
        for msg in queued.iter().chain(arrived.iter().copied()) {
            // Malformed acks and acks for unknown messages are consumed
            // with the batch rather than wedging the queue.
            if let Ok(ack) = Acknowledgment::from_message(msg) {
                if self.apply_ack(&ack, &mut cycle.next) {
                    ids.push(ack.cond_id);
                    cycle.acks.push(ack);
                }
            }
        }
        cycle.decided = self.decide_ids(&ids[from..], &mut cycle.next);
        if !session.in_transaction() {
            if cycle.decided.is_empty() {
                return Ok(());
            }
            session.begin()?;
        }
        for decided in &mut cycle.decided {
            self.finalize(session, decided)?;
        }
        // Write-ahead for the evaluations that go on: recovery replays
        // AckSeen entries to rebuild their in-memory state.
        let decides = |id| cycle.decided.iter().any(|d| d.notification.cond_id == id);
        for ack in cycle.acks.iter().filter(|ack| !decides(ack.cond_id)) {
            let entry = SlogEntry::AckSeen(ack.clone()).to_message();
            session.put(DEFAULT_SLOG_QUEUE, entry)?;
        }
        Ok(())
    }

    /// Commits what was staged into the cycle's own `session` and publishes
    /// it. When staging or the commit failed the cycle is dropped and what
    /// the session holds goes back: the cycle is retried, possibly many
    /// times while storage is down, so nothing may spend its backout budget.
    fn commit_cycle(
        &self,
        session: &mut mq::Session,
        cycle: Cycle,
        staged: CondResult<()>,
    ) -> CondResult<()> {
        let result = staged.and_then(|()| session.commit().map_err(CondError::from));
        if result.is_ok() {
            let took_acks = cycle.consumed > 0;
            self.publish(cycle);
            if took_acks {
                // The acks taken off DS.ACK.Q are counted only now, after
                // the commit's own change signal.
                self.qmgr.obs().changes().bump();
            }
        } else if session.in_transaction() {
            session.rollback_for_retry()?;
        }
        result
    }

    /// Installs a cycle whose record is written: each copy replaces its
    /// evaluation, and a decided message leaves the pending table, timer
    /// cancelled. Its notification on `DS.OUTCOME.Q` is already visible,
    /// and `status()` looks in the pending table first, so it finds the
    /// message in one of the two throughout. Caller holds the pump lock.
    fn install(&self, cycle: &mut Cycle) {
        let mut pending = self.pending.lock();
        for (id, state) in cycle.next.drain(..) {
            if let Some(eval) = pending.get_mut(&id) {
                eval.state = state;
            }
        }
        for verdict in &cycle.decided {
            if verdict.defer_outcome_actions {
                // The send record (for recovery and the release) and the
                // parked compensation stay until the sphere releases the
                // actions.
                let deferred = &self.metrics.deferred_depth;
                deferred.set(deferred.get() + 1);
            }
            let removed = pending.remove(&verdict.notification.cond_id);
            if let Some((timer, _)) = removed.and_then(|eval| eval.timer) {
                self.qmgr.clock().cancel(timer);
            }
        }
        self.metrics.pending_depth.set(pending.len() as u64);
    }

    /// Installs, counts and traces a committed cycle transaction — only now, so a rolled-back ack or verdict is never
    /// counted twice and the trace never shows an action that did not
    /// happen.
    fn publish(&self, mut cycle: Cycle) {
        self.install(&mut cycle);
        let now = self.qmgr.clock().now();
        let trace = self.qmgr.trace();
        if cycle.consumed > 0 {
            self.metrics.ack_batch_size.record(cycle.consumed);
            self.metrics.acks_queued.add(cycle.queued);
        }
        for ack in &cycle.acks {
            let (counter, stage, stamped_at) = match ack.kind {
                AckKind::Read => (&self.metrics.acks_read, TraceStage::ReadAck, ack.read_at),
                AckKind::Processed => (
                    &self.metrics.acks_processed,
                    TraceStage::ProcessAck,
                    ack.processed_at.unwrap_or(ack.read_at),
                ),
            };
            counter.incr();
            // Ack-queue lag: simtime between the receiver stamping the ack
            // and the evaluation manager committing it.
            self.metrics
                .ack_lag_ms
                .record(now.since(stamped_at).as_u64());
            trace.record(
                now,
                stage,
                Some(ack.cond_id.as_u128()),
                Some(ack.leaf),
                ack.recipient.as_deref().map_or_else(Arc::default, Arc::from),
            );
        }
        for verdict in cycle.decided {
            let notification = verdict.notification;
            let cond_id = notification.cond_id;
            match notification.outcome {
                MessageOutcome::Success => self.metrics.verdict_success.incr(),
                MessageOutcome::Failure => self.metrics.verdict_failure.incr(),
            }
            if cycle.acks.iter().any(|a| a.cond_id == cond_id) {
                self.metrics.verdict_fused.incr();
            }
            trace.record(
                notification.decided_at,
                TraceStage::Verdict,
                Some(cond_id.as_u128()),
                None,
                match (&notification.outcome, &notification.reason) {
                    (MessageOutcome::Success, _) => "success".to_owned(),
                    (MessageOutcome::Failure, Some(reason)) => format!("failure: {reason}"),
                    (MessageOutcome::Failure, None) => "failure".to_owned(),
                },
            );
            self.record_outcome_actions(cond_id, verdict.actions);
        }
    }

    /// Expires cells against the clock and renders the verdicts of the
    /// given messages that are now decided, reading a message's copy in
    /// `next` when the cycle's acknowledgments touched it and its pending
    /// entry otherwise. Removes nothing: a decided message leaves the table
    /// when the record is written. Caller holds the pump lock.
    fn decide_ids(
        &self,
        ids: &[CondMessageId],
        next: &mut [(CondMessageId, IncrementalEval)],
    ) -> Vec<Decided> {
        let now = self.qmgr.clock().now();
        let mut seen = HashSet::new();
        let mut decided = Vec::new();
        let mut pending = self.pending.lock();
        for &id in ids {
            if !seen.insert(id) {
                continue;
            }
            let Some(eval) = pending.get_mut(&id) else {
                continue;
            };
            // Expiry depends on the clock alone, so it may land in place.
            let state = match next.iter_mut().find(|(touched, _)| *touched == id) {
                Some((_, copy)) => copy,
                None => &mut eval.state,
            };
            let expired = state.on_time(now);
            if expired > 0 {
                self.metrics.eval_incremental_updates.add(expired);
            }
            let (outcome, reason) = match state.verdict() {
                Verdict::Satisfied => (MessageOutcome::Success, None),
                Verdict::Violated(reason) => (MessageOutcome::Failure, Some(reason)),
                Verdict::Pending if eval.timeout_at.is_some_and(|t| now >= t) => {
                    self.metrics.verdict_timeout.incr();
                    let reason = "evaluation timeout expired".to_owned();
                    (MessageOutcome::Failure, Some(reason))
                }
                Verdict::Pending => continue,
            };
            decided.push(eval.verdict(id, outcome, reason, now));
        }
        decided
    }

    /// Folds an acknowledgment into its message's copy in `next`, taken
    /// from the pending table the first time an acknowledgment touches the
    /// message; false when the message is not pending here. Idempotent.
    fn apply_ack(
        &self,
        ack: &Acknowledgment,
        next: &mut Vec<(CondMessageId, IncrementalEval)>,
    ) -> bool {
        let at = match next.iter().position(|(id, _)| *id == ack.cond_id) {
            Some(at) => at,
            None => match self.pending.lock().get(&ack.cond_id) {
                Some(eval) => {
                    next.push((ack.cond_id, eval.state.clone()));
                    next.len() - 1
                }
                None => return false,
            },
        };
        let updates = apply(&mut next[at].1, ack);
        if updates > 0 {
            self.metrics.eval_incremental_updates.add(updates);
        }
        true
    }

    // ---------------------------------------------------------- events --

    /// Deadline/timeout timer callback for one pending message.
    fn on_timer(&self, id: CondMessageId, gen: u64) {
        let _serial = self.pump_lock.lock();
        {
            let mut pending = self.pending.lock();
            match pending.get_mut(&id) {
                // The armed timer for this message really is the one that
                // fired; it is no longer scheduled.
                Some(eval) if eval.timer_gen == gen => eval.timer = None,
                // Stale fire (rearmed since) or already decided.
                _ => return,
            }
        }
        self.metrics.eval_timer_fires.incr();
        self.run_event(&[id]);
    }

    /// Arms the retry timer its backoff ahead, unless it is armed or the
    /// manager has stopped (then no cycle can succeed). Its fire runs one
    /// cycle from the queue — the retry list, then the acknowledgments
    /// waiting on `DS.ACK.Q` — and a cycle that fails again arms it again,
    /// twice as far ahead.
    fn arm_retry(&self) {
        let mut retry = self.retry_timer.lock();
        if retry.armed.is_some() || !self.qmgr.is_running() {
            return;
        }
        let clock = self.qmgr.clock();
        let weak = self.self_weak.clone();
        let timer = clock.schedule_at(
            clock.now() + retry.backoff,
            Box::new(move || {
                if let Some(messenger) = weak.upgrade() {
                    let _serial = messenger.pump_lock.lock();
                    messenger.retry_timer.lock().armed = None;
                    messenger.run_event(&[]);
                }
            }),
        );
        retry.armed = Some(timer);
        retry.backoff = (retry.backoff * 2).min(RETRY_BACKOFF_MAX);
    }

    /// Ensures each of the given pending messages has exactly one armed
    /// timer at its next trigger instant (and none when no future instant
    /// can decide it). After a `failed` cycle a message that is
    /// [`due`](PendingEval::due) goes on the retry list instead: the cycle
    /// did not get to decide it, and a timer would fire at once, fail the
    /// same way and spin. Caller holds the pump lock.
    fn rearm_ids(&self, mut ids: Vec<CondMessageId>, failed: bool) {
        ids.sort_unstable();
        ids.dedup();
        let now = self.qmgr.clock().now();
        let mut pending = self.pending.lock();
        for id in ids {
            let Some(eval) = pending.get_mut(&id) else {
                continue;
            };
            if failed && eval.due(now) {
                let mut retry = self.retry.lock();
                if !retry.contains(&id) {
                    retry.push(id);
                }
            } else {
                self.rearm_entry(id, eval);
            }
        }
    }

    fn rearm_entry(&self, id: CondMessageId, eval: &mut PendingEval) {
        let clock = self.qmgr.clock();
        match (eval.next_trigger(), eval.timer) {
            (Some(at), Some((_, armed))) if armed == at => {}
            (Some(at), previous) => {
                if let Some((timer, _)) = previous {
                    clock.cancel(timer);
                }
                eval.timer_gen += 1;
                let gen = eval.timer_gen;
                let weak = self.self_weak.clone();
                let timer = clock.schedule_at(
                    at,
                    Box::new(move || {
                        if let Some(messenger) = weak.upgrade() {
                            messenger.on_timer(id, gen);
                        }
                    }),
                );
                eval.timer = Some((timer, at));
            }
            (None, Some((timer, _))) => {
                clock.cancel(timer);
                eval.timer_gen += 1;
                eval.timer = None;
            }
            (None, None) => {}
        }
    }

    /// Stages a verdict into the caller's transaction (dequeue, log and
    /// act together): the outcome actions (compensation release or success
    /// notifications, plus removal of the parked compensation) and the
    /// purge of the message's send/ack log entries — or, when the actions
    /// are deferred, a verdict entry beside the send record — and the
    /// outcome notification. A crash leaves either all of it or none.
    fn finalize(&self, session: &mut mq::Session, decided: &mut Decided) -> CondResult<()> {
        let (cond_id, outcome) = (decided.notification.cond_id, decided.notification.outcome);
        if decided.defer_outcome_actions {
            // Marks the message decided for any future recovery, whoever
            // takes its notification; the release purges it.
            let entry = SlogEntry::Verdict(cond_id).to_message();
            session.put(DEFAULT_SLOG_QUEUE, entry)?;
        } else {
            self.stage_outcome_actions(
                session,
                cond_id,
                outcome,
                decided.success_notifications,
                &decided.shape,
                &mut decided.actions,
            )?;
            self.purge_slog(session, cond_id)?;
        }
        // Last, so whoever waits for the outcome finds its actions done.
        session.put(DEFAULT_OUTCOME_QUEUE, decided.notification.to_message())?;
        Ok(())
    }

    /// Stages the outcome actions for `cond_id` into `session`, one per
    /// destination leaf of `shape`: on failure the parked compensation is
    /// taken and one compensation message per leaf is released to its
    /// destination; on success it is consumed and, when enabled, success
    /// notifications are sent instead (paper §2.6). Nothing parked, nothing
    /// to do.
    fn stage_outcome_actions(
        &self,
        session: &mut mq::Session,
        cond_id: CondMessageId,
        outcome: MessageOutcome,
        success_notifications: bool,
        shape: &Shape,
        staged: &mut Vec<(TraceStage, u32, Arc<str>)>,
    ) -> CondResult<()> {
        // The parked compensation carries the conditional message id as its
        // correlation id; the indexed get avoids scanning a busy DS.COMP.Q.
        let corr = cond_id.as_u128();
        let Some(parked) =
            session.get_by_correlation(DEFAULT_COMP_QUEUE, corr, |_| true, Wait::NoWait)?
        else {
            return Ok(());
        };
        let data = wire::parked_compensation_data(&parked)?;
        for (leaf, of_shape) in shape.compiled().leaves().iter().zip(shape.leaves()) {
            let (index, dest) = (leaf.index, &of_shape.dest);
            match outcome {
                MessageOutcome::Failure => {
                    let comp = wire::make_compensation(cond_id, index, data);
                    session.put_to(&leaf.queue, comp)?;
                    staged.push((TraceStage::CompensationReleased, index, dest.clone()));
                }
                MessageOutcome::Success => {
                    if success_notifications {
                        let notice = wire::make_success_notification(cond_id, index);
                        session.put_to(&leaf.queue, notice)?;
                        staged.push((TraceStage::SuccessNotify, index, dest.clone()));
                    }
                    // The leaf's share of the parked compensation is simply
                    // consumed.
                    staged.push((TraceStage::CompensationConsumed, index, Arc::default()));
                }
            }
        }
        Ok(())
    }

    /// Counts and traces the outcome actions staged by
    /// [`stage_outcome_actions`](Self::stage_outcome_actions). Called only
    /// after the surrounding transaction commits, so the trace never shows
    /// an action that was rolled back and the verdict event always precedes
    /// its actions.
    fn record_outcome_actions(
        &self,
        cond_id: CondMessageId,
        staged: Vec<(TraceStage, u32, Arc<str>)>,
    ) {
        let now = self.qmgr.clock().now();
        for (stage, leaf, detail) in staged {
            match stage {
                TraceStage::CompensationReleased => self.metrics.comp_released.incr(),
                TraceStage::SuccessNotify => self.metrics.notify_success.incr(),
                TraceStage::CompensationConsumed => self.metrics.comp_consumed.incr(),
                _ => {}
            }
            self.qmgr
                .trace()
                .record(now, stage, Some(cond_id.as_u128()), Some(leaf), detail);
        }
    }

    /// Performs the deferred outcome actions of decided conditional
    /// messages, treating each per `group_outcome` — the overall outcome of
    /// the Dependency-Sphere they belonged to (paper §3.1: "only when the
    /// D-Sphere terminates as a whole … outcome actions for all individual
    /// messages … will be initiated based on the overall D-Sphere
    /// outcome"). One transaction, one journal record: for every member the
    /// purge of its sender-log entries, its outcome actions and the get of
    /// its notification from `DS.OUTCOME.Q` when nobody has taken it yet.
    /// Either every member is released or none is.
    ///
    /// # Errors
    ///
    /// [`CondError::UnknownMessage`] when a message has no deferred actions
    /// pending; messaging failures. Nothing is released then.
    pub fn release_outcome_actions(
        &self,
        ids: &[CondMessageId],
        group_outcome: MessageOutcome,
    ) -> CondResult<()> {
        // Serialized like a cycle, so a concurrent release of the same
        // message finds the send record gone once this one's record is
        // written.
        let _serial = self.pump_lock.lock();
        let mut session = self.qmgr.session();
        session.begin()?;
        let mut staged = Vec::with_capacity(ids.len());
        let result = ids
            .iter()
            .try_for_each(|&cond_id| {
                if self.pending.lock().contains_key(&cond_id) {
                    return Err(CondError::UnknownMessage(cond_id));
                }
                // A decided message keeps its send record exactly while its
                // actions are deferred; taking it is the release's purge of
                // the log.
                let record = self.purge_slog(&mut session, cond_id)?;
                let record = record.ok_or(CondError::UnknownMessage(cond_id))?;
                // The leaves come from the send record: after a restart it
                // is all that is left of the message.
                let shape = self.shapes.intern(&record.condition.to_bytes(), &record.condition)?;
                let mut actions = Vec::new();
                self.stage_outcome_actions(
                    &mut session,
                    cond_id,
                    group_outcome,
                    record.options.success_notifications.unwrap_or(false),
                    &shape,
                    &mut actions,
                )?;
                // The releaser is the member's consumer of record.
                let corr = cond_id.as_u128();
                session.get_by_correlation(DEFAULT_OUTCOME_QUEUE, corr, |_| true, Wait::NoWait)?;
                staged.push((cond_id, actions));
                Ok(())
            })
            .and_then(|()| session.commit().map_err(CondError::from));
        if session.in_transaction() {
            // Not committed, so the actions are still owed to the caller's
            // retry, and what the transaction held goes back without
            // spending its backout budget (the retry may come many times
            // while storage is down).
            session.rollback_for_retry()?;
        } else {
            let deferred = &self.metrics.deferred_depth;
            deferred.set(deferred.get().saturating_sub(staged.len() as u64));
            for (cond_id, actions) in staged {
                self.record_outcome_actions(cond_id, actions);
            }
        }
        result
    }

    /// Forces pending conditional messages to fail immediately (used when
    /// a Dependency-Sphere aborts while member evaluations are still in
    /// progress), all in one evaluation cycle. An id that is not pending
    /// is left as it is.
    ///
    /// # Errors
    ///
    /// Messaging failures: nothing is forced then.
    pub fn force_fail(&self, ids: &[CondMessageId], reason: impl Into<String>) -> CondResult<()> {
        let _serial = self.pump_lock.lock();
        let (now, reason) = (self.qmgr.clock().now(), reason.into());
        let mut cycle = Cycle::default();
        // An id listed twice is forced once.
        let mut seen = HashSet::new();
        for &cond_id in ids.iter().filter(|id| seen.insert(**id)) {
            let verdict = self.pending.lock().get(&cond_id).map(|eval| {
                eval.verdict(cond_id, MessageOutcome::Failure, Some(reason.clone()), now)
            });
            cycle.decided.extend(verdict);
        }
        // Nothing to force is an empty transaction, and writes nothing.
        let mut session = self.qmgr.session();
        let staged = session.begin().map_err(CondError::from).and_then(|()| {
            let mut decided = cycle.decided.iter_mut();
            decided.try_for_each(|verdict| self.finalize(&mut session, verdict))
        });
        // A failed transaction leaves the messages pending, timers armed,
        // and costs what it held no backout budget; the caller may try
        // again.
        self.commit_cycle(&mut session, cycle, staged)
    }

    /// Stages the removal of every active-log entry of a decided
    /// conditional message into `session` (correlation-indexed: O(entries
    /// for this message)) and returns its send record, if the log still
    /// held it.
    fn purge_slog(
        &self,
        session: &mut mq::Session,
        cond_id: CondMessageId,
    ) -> CondResult<Option<SendRecord>> {
        let mut send = None;
        let corr = cond_id.as_u128();
        while let Some(entry) =
            session.get_by_correlation(DEFAULT_SLOG_QUEUE, corr, |_| true, Wait::NoWait)?
        {
            if let Ok(SlogEntry::Send(record)) = SlogEntry::from_message(&entry) {
                send = Some(record);
            }
        }
        Ok(send)
    }

    // ---------------------------------------------------------- status --

    /// Reports what this messenger knows about a conditional message: a
    /// lookup in the pending table, then a peek at its notification on
    /// `DS.OUTCOME.Q`. A notification that was taken leaves nothing to
    /// report: see [`MessageStatus::Unknown`].
    pub fn status(&self, id: CondMessageId) -> MessageStatus {
        // Pending first: a verdict's notification is put before its
        // message leaves `pending`.
        if self.pending.lock().contains_key(&id) {
            return MessageStatus::Pending;
        }
        let outcomes = self.qmgr.queue(DEFAULT_OUTCOME_QUEUE);
        match outcomes.and_then(|q| q.peek_by_correlation(id.as_u128(), Wait::NoWait)) {
            Ok(Some(msg)) => OutcomeNotification::from_message(&msg)
                .map_or(MessageStatus::Unknown, MessageStatus::Decided),
            _ => MessageStatus::Unknown,
        }
    }

    /// Number of conditional messages still under evaluation.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Consumes the outcome notification for `id` from `DS.OUTCOME.Q`,
    /// waiting per `wait`. Applications correlate outcomes with the
    /// conditional message id returned by send (paper §2.3).
    ///
    /// The notification exists once the evaluation completed — as soon as
    /// the deciding ack was put, or the deciding deadline passed on the
    /// clock.
    ///
    /// # Errors
    ///
    /// Messaging failures or a malformed notification.
    pub fn take_outcome(
        &self,
        id: CondMessageId,
        wait: Wait,
    ) -> CondResult<Option<OutcomeNotification>> {
        let msg = self.qmgr.get_by_correlation(DEFAULT_OUTCOME_QUEUE, id.as_u128(), wait)?;
        msg.map(|msg| OutcomeNotification::from_message(&msg)).transpose()
    }

    // -------------------------------------------------------- recovery --

    /// Rebuilds the pending table from the sender log (paper §2.3: "creates
    /// a log entry for the outgoing messages and stores the log entry
    /// persistently") in one browse of it, and reads no other queue:
    /// O(live messages). Called automatically from the constructor.
    fn recover(&self) -> CondResult<()> {
        let slog = self.qmgr.queue(DEFAULT_SLOG_QUEUE)?;
        let mut sends: HashMap<CondMessageId, SendRecord> = HashMap::new();
        // Grouped by message once: a restart over n pending messages reads
        // each ack once, not once per send.
        let mut acks: HashMap<CondMessageId, Vec<Acknowledgment>> = HashMap::new();
        let mut decided = HashSet::new();
        for msg in slog.browse() {
            match SlogEntry::from_message(&msg)? {
                SlogEntry::Send(record) => {
                    sends.insert(record.cond_id, record);
                }
                SlogEntry::AckSeen(ack) => acks.entry(ack.cond_id).or_default().push(ack),
                SlogEntry::Verdict(cond_id) => {
                    decided.insert(cond_id);
                }
            }
        }
        // A decided message keeps its send record, beside its verdict entry,
        // only while its outcome actions are still owed to a sphere
        // (otherwise the deciding transaction purged it); the parked
        // compensation is kept with it.
        sends.retain(|cond_id, _| !decided.contains(cond_id));
        let mut pending = IdMap::with_capacity_and_hasher(sends.len(), Default::default());
        for (cond_id, record) in sends {
            // Every record of one condition shares its shape.
            let shape = self.shapes.intern(&record.condition.to_bytes(), &record.condition)?;
            let mut eval =
                PendingEval::new(shape, record.send_time, &record.options, self.ack_grace);
            for ack in acks.get(&cond_id).into_iter().flatten() {
                apply(&mut eval.state, ack);
            }
            pending.insert(cond_id, eval);
        }
        *self.pending.lock() = pending;
        self.metrics.deferred_depth.set(decided.len() as u64);
        Ok(())
    }

    /// A handle kept for condbench, its last caller: it starts no thread,
    /// and `poll` is ignored. Evaluation needs no daemon under either
    /// clock — acks are evaluated by the thread that commits them, and the
    /// clock's timers fire every deadline verdict and every retry.
    ///
    /// # Errors
    ///
    /// None; the `Result` is the caller's.
    pub fn spawn_daemon(self: &Arc<Self>, _poll: Duration) -> CondResult<EvaluationDaemon> {
        Ok(EvaluationDaemon)
    }
}

/// A dropped messenger disarms every timer it armed: the clock outlives
/// it, and each deadline and retry timer would otherwise stay armed,
/// holding its callback, until it came due, to find no messenger.
impl Drop for ConditionalMessenger {
    fn drop(&mut self) {
        let clock = self.qmgr.clock();
        let deadlines = self.pending.get_mut().values().filter_map(|eval| eval.timer);
        let timers = deadlines.map(|(timer, _)| timer);
        for timer in timers.chain(self.retry_timer.get_mut().armed) {
            clock.cancel(timer);
        }
    }
}

/// The standing claimant of `DS.ACK.Q`: the acknowledgments a committing
/// transaction addressed to the queue are applied inside its record, on
/// its thread (the reactor's for a transport batch, the reader's for a
/// local receiver, the caller's for a bare put). The pump lock is held
/// from the staging until the record is written or refused, inside the
/// fate, and released before any watcher of the transaction runs. When the record is refused the
/// committer gets its transaction back, acks included — a transport batch
/// stays unacked and is resent, a local read is retried or abandoned — and
/// the evaluations are as if the acks had never come. When the messenger
/// cannot stage what the acks cause (an outcome queue without room, a
/// compensation without a route) that is no fault of the committer's: the
/// claimant declines, the acks are queued and every later cycle retries
/// them.
impl PickUp for ConditionalMessenger {
    fn stage<'a>(&'a self, arrived: &[&Message], tx: &mut mq::Session) -> Option<Fate<'a>> {
        let serial = self.pump_lock.lock();
        let mut ids = std::mem::take(&mut *self.retry.lock());
        let mut cycle = Cycle::default();
        let staged = self.stage_cycle(tx, &mut cycle, arrived, &mut ids, 0);
        let end = move |committed: bool| {
            if committed {
                self.retry_timer.lock().backoff = RETRY_BACKOFF;
                self.publish(cycle);
            } else {
                self.metrics.eval_errors.incr();
            }
            self.rearm_ids(ids, !committed);
            if !committed && !self.retry.lock().is_empty() {
                self.arm_retry();
            }
            drop(serial);
        };
        match staged {
            Ok(()) => Some(Box::new(end)),
            Err(_) => {
                end(false);
                None
            }
        }
    }
}

/// What [`ConditionalMessenger::spawn_daemon`] returns: nothing runs
/// behind it.
#[derive(Debug)]
pub struct EvaluationDaemon;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Destination, DestinationSet};
    use mq::journal::MemJournal;
    use mq::Message;
    use simtime::SimClock;

    fn setup() -> (Arc<SimClock>, Arc<QueueManager>, Arc<ConditionalMessenger>) {
        let clock = SimClock::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        (clock, qmgr, messenger)
    }

    fn two_dest_condition(window: Millis) -> Condition {
        DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A").into(),
            Destination::queue("QM1", "Q.B").into(),
        ])
        .pickup_within(window)
        .into()
    }

    fn fake_read_ack(id: CondMessageId, leaf: u32, at: Time) -> Message {
        Acknowledgment {
            cond_id: id,
            leaf,
            kind: AckKind::Read,
            read_at: at,
            processed_at: None,
            recipient: None,
        }
        .to_message()
    }

    #[test]
    fn unsatisfiable_condition_rejected_before_any_put() {
        let (_clock, qmgr, messenger) = setup();
        // Both members carry 0 ms windows: zero-window errors plus an
        // unsatisfiable implicit min count — rejected by the analyzer.
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A")
                .pickup_within(Millis::ZERO)
                .into(),
            Destination::queue("QM1", "Q.B")
                .pickup_within(Millis::ZERO)
                .into(),
        ])
        .into();
        let err = messenger.send_message("doomed", &cond).unwrap_err();
        match &err {
            CondError::Analysis(e) => {
                assert!(!e.diagnostics().is_empty());
                assert!(err.to_string().contains("zero-window"), "{err}");
            }
            other => panic!("expected analysis rejection, got {other:?}"),
        }
        // Nothing was staged or registered: no destination put, no send
        // record, no parked compensation, no pending evaluation.
        for queue in ["Q.A", "Q.B", DEFAULT_SLOG_QUEUE, DEFAULT_COMP_QUEUE] {
            assert!(qmgr.get(queue, Wait::NoWait).unwrap().is_none(), "{queue}");
        }
        assert!(messenger.pending.lock().is_empty());
        assert_eq!(messenger.metrics.analyze_rejected.get(), 1);
        assert_eq!(messenger.metrics.sent.get(), 0);
    }

    #[test]
    fn a_satisfiable_tree_passes_the_analyzer() {
        let (_clock, qmgr, messenger) = setup();
        // Odd (one destination twice) but satisfiable: analyzed, sent.
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A").into(),
            Destination::queue("QM1", "Q.A").into(),
        ])
        .pickup_within(Millis(100))
        .into();
        messenger.send_message("dup", &cond).unwrap();
        assert_eq!(messenger.metrics.analyze_runs.get(), 1);
        assert_eq!(messenger.metrics.analyze_rejected.get(), 0);
        assert!(qmgr.get("Q.A", Wait::NoWait).unwrap().is_some());
    }

    #[test]
    fn a_shape_is_analyzed_once_and_every_refused_send_counted() {
        let (_clock, _qmgr, messenger) = setup();
        let runs = &messenger.metrics.analyze_runs;
        let rejected = &messenger.metrics.analyze_rejected;
        // Three sends of one condition share its shape, which holds the
        // analysis's verdict: one analysis.
        let cond = two_dest_condition(Millis(100));
        for _ in 0..3 {
            messenger.send_message("ok", &cond).unwrap();
        }
        assert_eq!((runs.get(), rejected.get()), (1, 0));
        // A refused send leaves nothing pending to hold its shape, so the
        // next send of that condition analyzes it again; each refusal is
        // counted.
        let doomed = two_dest_condition(Millis::ZERO);
        for _ in 0..2 {
            let refused = messenger.send_message("doomed", &doomed);
            assert!(matches!(refused, Err(CondError::Analysis(_))), "{refused:?}");
        }
        assert_eq!((runs.get(), rejected.get()), (3, 2));
        messenger.send_message("ok", &cond).unwrap();
        assert_eq!((runs.get(), rejected.get()), (3, 2), "the shape is still live");
        assert_eq!(messenger.metrics.sent.get(), 4);
    }

    #[test]
    fn send_fans_out_with_control_properties() {
        let (_clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message("hello", &two_dest_condition(Millis(100)))
            .unwrap();
        for queue in ["Q.A", "Q.B"] {
            let msg = qmgr.get(queue, Wait::NoWait).unwrap().unwrap();
            assert_eq!(msg.payload_str(), Some("hello"));
            assert_eq!(wire::cond_id_of(&msg).unwrap(), id);
            assert_eq!(msg.str_property(wire::P_SENDER_MANAGER), Some("QM1"));
            assert_eq!(msg.str_property(wire::P_ACK_QUEUE), Some("DS.ACK.Q"));
        }
        // One compensation parked for the whole message, naming no leaf.
        let comp = qmgr.queue("DS.COMP.Q").unwrap().browse();
        assert_eq!(comp.len(), 1);
        assert_eq!(wire::cond_id_of(&comp[0]).unwrap(), id);
        assert!(wire::leaf_of(&comp[0]).is_err());
        // One send record on the log.
        assert_eq!(qmgr.queue("DS.SLOG.Q").unwrap().depth(), 1);
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        assert_eq!(messenger.pending_count(), 1);
    }

    #[test]
    fn invalid_condition_sends_nothing() {
        let (_clock, qmgr, messenger) = setup();
        let bad: Condition = DestinationSet::empty().into();
        assert!(messenger.send_message("x", &bad).is_err());
        assert_eq!(qmgr.queue("DS.SLOG.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
        assert_eq!(messenger.pending_count(), 0);
    }

    #[test]
    fn timely_acks_produce_success_and_clear_compensations() {
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message("hello", &two_dest_condition(Millis(100)))
            .unwrap();
        clock.advance(Millis(10));
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 0, Time(10)))
            .unwrap();
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        // The second ack satisfies the last undecided leaf: the message is
        // decided inside the put, with no intervening advance or pump.
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 1, Time(10)))
            .unwrap();
        assert!(matches!(messenger.status(id), MessageStatus::Decided(_)));
        // The ack queue was drained eagerly and the message's timer torn
        // down with the decision.
        assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
        assert_eq!(clock.pending_timers(), 0);
        // Compensations consumed, not delivered.
        assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "only the original");
        // The outcome notification is consumable exactly once, and it is
        // the verdict's one record: once taken, nothing of it is left.
        let n = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(n.outcome, MessageOutcome::Success);
        assert_eq!(n.cond_id, id);
        assert_eq!(n.decided_at, Time(10));
        assert!(messenger.take_outcome(id, Wait::NoWait).unwrap().is_none());
        assert_eq!(messenger.status(id), MessageStatus::Unknown);
        // Send/ack log entries purged from the active log.
        assert_eq!(qmgr.queue("DS.SLOG.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
    }

    #[test]
    fn deadline_passing_without_acks_fails_and_compensates() {
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_message("hello", &two_dest_condition(Millis(100)))
            .unwrap();
        clock.advance(Millis(50));
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        // One big advance: the armed timer fires at the first violating
        // tick (deadline 100, grace 0 → tick 101), not at the advance's end.
        clock.advance(Millis(500));
        assert_eq!(clock.pending_timers(), 0);
        let status = messenger.status(id);
        let n = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(status, MessageStatus::Decided(n.clone()));
        assert_eq!(n.outcome, MessageOutcome::Failure);
        assert_eq!(n.decided_at, Time(101));
        assert!(n.reason.as_deref().unwrap().contains("pick-up"));
        // Compensation messages delivered to both destinations.
        for queue in ["Q.A", "Q.B"] {
            let msgs = qmgr.queue(queue).unwrap().browse();
            assert_eq!(msgs.len(), 2, "{queue}: original + compensation");
            assert!(msgs
                .iter()
                .any(|m| wire::kind_of(m) == wire::MessageKind::Compensation));
        }
        assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
        assert_eq!(messenger.status(id), MessageStatus::Unknown, "taken");
    }

    /// A read stamped t=40 against a 100 ms pick-up window whose ack
    /// reaches `DS.ACK.Q` `transit` ms later: eager evaluation (grace 0)
    /// fails a timely read whose ack is still in flight at the deadline; a
    /// grace accepts the timely stamp.
    #[test]
    fn ack_grace_accepts_a_timely_read_whose_ack_is_in_transit() {
        let matrix = [
            (10, MessageOutcome::Success, MessageOutcome::Success),
            (50, MessageOutcome::Success, MessageOutcome::Success),
            (90, MessageOutcome::Failure, MessageOutcome::Success),
            (150, MessageOutcome::Failure, MessageOutcome::Success),
        ];
        for (transit, eager, graced) in matrix {
            for (grace, want) in [(0, eager), (100, graced)] {
                let clock = SimClock::new();
                let qmgr = QueueManager::builder("QM1")
                    .clock(clock.clone())
                    .build()
                    .unwrap();
                qmgr.create_queue("Q.A").unwrap();
                let config = CondConfig {
                    ack_grace: Millis(grace),
                };
                let messenger = ConditionalMessenger::with_config(qmgr.clone(), config).unwrap();
                let cond: Condition = Destination::queue("QM1", "Q.A")
                    .pickup_within(Millis(100))
                    .into();
                let id = messenger.send_message("x", &cond).unwrap();
                clock.advance(Millis(40 + transit));
                // The deadline may have decided before the ack lands.
                if messenger.status(id) == MessageStatus::Pending {
                    qmgr.put("DS.ACK.Q", fake_read_ack(id, 0, Time(40)))
                        .unwrap();
                }
                clock.advance(Millis(1_000));
                let n = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
                assert_eq!(n.outcome, want, "transit {transit} ms, grace {grace} ms");
            }
        }
    }

    #[test]
    fn late_ack_fails_immediately_without_waiting_out_the_grace() {
        let clock = SimClock::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let config = CondConfig {
            ack_grace: Millis(100),
        };
        let messenger = ConditionalMessenger::with_config(qmgr.clone(), config).unwrap();
        let id = messenger
            .send_message("x", &two_dest_condition(Millis(100)))
            .unwrap();
        clock.advance(Millis(120));
        assert_eq!(messenger.status(id), MessageStatus::Pending, "in grace");
        // An ack arrives inside the grace period, but its read timestamp is
        // beyond the window: decided now, not at the timer (t=201).
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 0, Time(120)))
            .unwrap();
        let n = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(n.outcome, MessageOutcome::Failure);
        assert_eq!(n.decided_at, Time(120));
        assert_eq!(clock.pending_timers(), 0);
    }

    #[test]
    fn evaluation_timeout_fails_pending_message() {
        let (clock, qmgr, messenger) = setup();
        // Processing window is long, but the evaluation timeout cuts in
        // first (paper: "a timeout … to ultimately terminate an
        // evaluation").
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A").into(),
            Destination::queue("QM1", "Q.B").into(),
        ])
        .process_within(Millis(10_000))
        .min_process(2)
        .into();
        let id = messenger
            .send_with(
                "x",
                None,
                &cond,
                SendOptions {
                    evaluation_timeout: Some(Millis(500)),
                    ..SendOptions::default()
                },
            )
            .unwrap();
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 0, Time(10)))
            .unwrap();
        clock.advance(Millis(499));
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        clock.advance(Millis(1));
        let n = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(n.outcome, MessageOutcome::Failure);
        assert!(n.reason.as_deref().unwrap().contains("timeout"));
        assert_eq!(n.decided_at, Time(500));
    }

    #[test]
    fn success_notifications_sent_when_enabled() {
        let (clock, qmgr, messenger) = setup();
        let id = messenger
            .send_with(
                "x",
                None,
                &two_dest_condition(Millis(100)),
                SendOptions {
                    success_notifications: Some(true),
                    ..SendOptions::default()
                },
            )
            .unwrap();
        clock.advance(Millis(5));
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 0, Time(5))).unwrap();
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 1, Time(5))).unwrap();
        for queue in ["Q.A", "Q.B"] {
            let msgs = qmgr.queue(queue).unwrap().browse();
            assert!(
                msgs.iter()
                    .any(|m| wire::kind_of(m) == wire::MessageKind::SuccessNotification),
                "{queue} received a success notification"
            );
        }
    }

    #[test]
    fn application_compensation_data_is_delivered() {
        let (clock, qmgr, messenger) = setup();
        messenger
            .send_message_with_compensation(
                "meeting at 10",
                "meeting cancelled",
                &two_dest_condition(Millis(100)),
            )
            .unwrap();
        clock.advance(Millis(200));
        let comp = qmgr
            .queue("Q.A")
            .unwrap()
            .browse()
            .into_iter()
            .find(|m| wire::kind_of(m) == wire::MessageKind::Compensation)
            .unwrap();
        assert_eq!(comp.payload_str(), Some("meeting cancelled"));
        assert_eq!(comp.bool_property(wire::P_COMP_SYSTEM), Some(false));
    }

    /// [`setup`] plus four leaf queues `Q.L0`–`Q.L3`.
    fn four_leaf_setup() -> (Arc<SimClock>, Arc<QueueManager>, Arc<ConditionalMessenger>) {
        let (clock, qmgr, messenger) = setup();
        for queue in ["Q.L0", "Q.L1", "Q.L2", "Q.L3"] {
            qmgr.create_queue(queue).unwrap();
        }
        (clock, qmgr, messenger)
    }

    /// All four leaves pick up within 100 ms.
    fn four_leaf_condition() -> Condition {
        let leaves = ["Q.L0", "Q.L1", "Q.L2", "Q.L3"];
        let leaves = leaves.map(|q| Destination::queue("QM1", q).into());
        DestinationSet::of(leaves.to_vec())
            .pickup_within(Millis(100))
            .into()
    }

    /// The compensations on `queue`.
    fn compensations(qmgr: &QueueManager, queue: &str) -> Vec<Arc<Message>> {
        let msgs = qmgr.queue(queue).unwrap().browse().into_iter();
        msgs.filter(|m| wire::kind_of(m) == wire::MessageKind::Compensation)
            .collect()
    }

    #[test]
    fn a_failed_four_leaf_message_fans_its_one_parked_compensation_out_per_leaf() {
        let data = Bytes::from_static(b"meeting cancelled");
        for data in [Some(data), None] {
            let (clock, qmgr, messenger) = four_leaf_setup();
            let condition = four_leaf_condition();
            let options = SendOptions::default();
            let id = messenger
                .send_with("meet", data.clone(), &condition, options)
                .unwrap();
            assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
            clock.advance(Millis(200));
            assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
            let mut ids = HashSet::new();
            for (leaf, queue) in ["Q.L0", "Q.L1", "Q.L2", "Q.L3"].into_iter().enumerate() {
                let comps = compensations(&qmgr, queue);
                assert_eq!(comps.len(), 1, "{queue}: exactly one compensation");
                let comp = &comps[0];
                assert_eq!(wire::cond_id_of(comp).unwrap(), id);
                assert_eq!(wire::leaf_of(comp).unwrap(), leaf as u32);
                let system = data.is_none();
                assert_eq!(comp.bool_property(wire::P_COMP_SYSTEM), Some(system));
                assert_eq!(comp.payload(), &data.clone().unwrap_or_default());
                assert!(comp.is_persistent());
                ids.insert(comp.id());
            }
            assert_eq!(ids.len(), 4, "each compensation has an id of its own");
            // Metrics and trace count one release per leaf.
            assert_eq!(messenger.metrics.comp_released.get(), 4);
            let stages = messenger.trace().stages_for(id.as_u128());
            let released = stages
                .iter()
                .filter(|s| **s == TraceStage::CompensationReleased)
                .count();
            assert_eq!(released, 4);
        }
    }

    #[test]
    fn a_parked_compensation_that_names_a_leaf_is_refused_not_multiplied() {
        let (_clock, qmgr, messenger) = four_leaf_setup();
        let id = messenger
            .send_message_with_compensation("meet", "undo", &four_leaf_condition())
            .unwrap();
        // Swap the parked compensation for the per-leaf form once parked
        // for every destination.
        qmgr.get_by_correlation(DEFAULT_COMP_QUEUE, id.as_u128(), Wait::NoWait)
            .unwrap()
            .unwrap();
        let old = wire::make_compensation(id, 0, Some(&Bytes::from_static(b"undo")));
        qmgr.put(DEFAULT_COMP_QUEUE, old).unwrap();
        let err = messenger.force_fail(&[id], "aborted").unwrap_err();
        assert!(matches!(err, CondError::Malformed(_)), "{err:?}");
        // Nothing was released, and the message is still pending.
        for queue in ["Q.L0", "Q.L1", "Q.L2", "Q.L3"] {
            assert!(compensations(&qmgr, queue).is_empty(), "{queue}");
        }
        assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 1);
        assert_eq!(messenger.status(id), MessageStatus::Pending);
        assert_eq!(messenger.metrics.comp_released.get(), 0);
    }

    /// The shape each pending message holds.
    fn shape_of(messenger: &ConditionalMessenger, id: CondMessageId) -> Arc<Shape> {
        Arc::clone(&messenger.pending.lock()[&id].shape)
    }

    #[test]
    fn conditions_that_differ_in_a_window_or_a_queue_have_shapes_of_their_own() {
        let (clock, qmgr, messenger) = setup();
        qmgr.create_queue("Q.C").unwrap();
        let shapes = || messenger.metrics.shapes.get();
        let short = two_dest_condition(Millis(100));
        let a1 = messenger.send_message("a1", &short).unwrap();
        let a2 = messenger.send_message("a2", &short).unwrap();
        assert_eq!(shapes(), 1);
        let shared = shape_of(&messenger, a1);
        assert!(Arc::ptr_eq(&shared, &shape_of(&messenger, a2)));
        // Only the window differs: a shape of its own, deciding by its own
        // deadline.
        let long = messenger
            .send_message("b", &two_dest_condition(Millis(200)))
            .unwrap();
        assert_eq!(shapes(), 2);
        let long_shape = shape_of(&messenger, long);
        assert!(!Arc::ptr_eq(&shared, &long_shape));
        drop(shared);
        clock.advance(Millis(150));
        assert_eq!(messenger.pending_count(), 1, "only the long window is open");
        assert_eq!(shapes(), 1, "the short window's shape went");
        // Only a queue differs: a shape of its own, whose originals go to
        // their own queue.
        let elsewhere: Condition = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.A").into(),
            Destination::queue("QM1", "Q.C").into(),
        ])
        .pickup_within(Millis(200))
        .into();
        let c = messenger.send_message("c", &elsewhere).unwrap();
        assert_eq!(shapes(), 2);
        assert!(!Arc::ptr_eq(&long_shape, &shape_of(&messenger, c)));
        drop(long_shape);
        let on = |queue: &str| {
            let msgs = qmgr.queue(queue).unwrap().browse();
            let original = |m: &&Arc<Message>| wire::kind_of(m) == wire::MessageKind::Original;
            let payload = |m: &Arc<Message>| m.payload_str().map(str::to_owned);
            msgs.iter()
                .filter(original)
                .filter_map(payload)
                .collect::<Vec<_>>()
        };
        assert_eq!(on("Q.B"), ["a1", "a2", "b"]);
        assert_eq!(on("Q.C"), ["c"]);
        clock.advance(Millis(1_000));
        assert_eq!(messenger.pending_count(), 0);
        assert_eq!(shapes(), 0, "no message holds a shape");
        assert_eq!(messenger.metrics.shapes.high_water(), 2);
    }

    #[test]
    fn acks_for_unknown_messages_are_consumed_silently() {
        let (_clock, qmgr, messenger) = setup();
        qmgr.put(
            "DS.ACK.Q",
            fake_read_ack(CondMessageId::generate(), 0, Time(1)),
        )
        .unwrap();
        qmgr.put("DS.ACK.Q", Message::text("not an ack").build())
            .unwrap();
        messenger.pump().unwrap();
        assert_eq!(qmgr.queue("DS.ACK.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
        // No stray log entries.
        assert_eq!(qmgr.queue("DS.SLOG.Q").unwrap().depth(), 0);
    }

    #[test]
    fn multiple_messages_evaluate_independently() {
        let (clock, qmgr, messenger) = setup();
        let fast = messenger
            .send_message("fast", &two_dest_condition(Millis(50)))
            .unwrap();
        let slow = messenger
            .send_message("slow", &two_dest_condition(Millis(500)))
            .unwrap();
        clock.advance(Millis(10));
        qmgr.put("DS.ACK.Q", fake_read_ack(fast, 0, Time(10)))
            .unwrap();
        qmgr.put("DS.ACK.Q", fake_read_ack(fast, 1, Time(10)))
            .unwrap();
        assert!(messenger
            .take_outcome(fast, Wait::NoWait)
            .unwrap()
            .is_some());
        assert_eq!(messenger.status(slow), MessageStatus::Pending);
        clock.advance(Millis(600));
        let n = messenger.take_outcome(slow, Wait::NoWait).unwrap().unwrap();
        assert_eq!(n.outcome, MessageOutcome::Failure);
    }

    #[test]
    fn recovery_rebuilds_pending_state_and_continues() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let id = messenger
            .send_message("hello", &two_dest_condition(Millis(100)))
            .unwrap();
        // One ack observed (and logged) before the crash.
        clock.advance(Millis(10));
        qmgr.put("DS.ACK.Q", fake_read_ack(id, 0, Time(10)))
            .unwrap();
        qmgr.crash();

        // Restart: same journal, fresh manager + messenger.
        let qmgr2 = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal)
            .build()
            .unwrap();
        let messenger2 = ConditionalMessenger::new(qmgr2.clone()).unwrap();
        assert_eq!(messenger2.status(id), MessageStatus::Pending);
        assert_eq!(messenger2.pending_count(), 1);
        // The second ack arrives after restart; evaluation completes.
        qmgr2
            .put("DS.ACK.Q", fake_read_ack(id, 1, Time(20)))
            .unwrap();
        clock.advance(Millis(10));
        let n = messenger2.take_outcome(id, Wait::NoWait).unwrap().unwrap();
        assert_eq!(n.outcome, MessageOutcome::Success);
    }

    #[test]
    fn recovery_skips_already_decided_messages() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let id = messenger
            .send_message("x", &two_dest_condition(Millis(50)))
            .unwrap();
        clock.advance(Millis(100)); // decides failure
        qmgr.crash();

        let qmgr2 = QueueManager::builder("QM1")
            .clock(clock)
            .journal(journal)
            .build()
            .unwrap();
        let messenger2 = ConditionalMessenger::new(qmgr2).unwrap();
        assert_eq!(messenger2.pending_count(), 0);
        assert!(matches!(
            messenger2.status(id),
            MessageStatus::Decided(n) if n.outcome == MessageOutcome::Failure
        ));
    }

    #[test]
    fn unknown_id_status() {
        let (_clock, _qmgr, messenger) = setup();
        assert_eq!(
            messenger.status(CondMessageId::generate()),
            MessageStatus::Unknown
        );
    }

    #[test]
    fn exactly_one_armed_timer_per_pending_message() {
        let (clock, qmgr, messenger) = setup();
        let a = messenger
            .send_message("a", &two_dest_condition(Millis(100)))
            .unwrap();
        let _b = messenger
            .send_message("b", &two_dest_condition(Millis(200)))
            .unwrap();
        assert_eq!(messenger.pending_count(), 2);
        assert_eq!(clock.pending_timers(), 2, "one armed timer per pending");
        // An ack on one leaf of `a` changes nothing about the count.
        qmgr.put("DS.ACK.Q", fake_read_ack(a, 0, Time(0))).unwrap();
        assert_eq!(clock.pending_timers(), 2);
        // Deciding `a` (second ack) cancels its timer.
        qmgr.put("DS.ACK.Q", fake_read_ack(a, 1, Time(0))).unwrap();
        assert_eq!(messenger.pending_count(), 1);
        assert_eq!(clock.pending_timers(), 1);
        clock.advance(Millis(300));
        assert_eq!(messenger.pending_count(), 0);
        assert_eq!(clock.pending_timers(), 0);
    }

    #[test]
    fn the_retry_list_holds_each_due_message_once_however_many_cycles_fail() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        const N: usize = 8;
        let ids: Vec<CondMessageId> = (0..N)
            .map(|_| {
                let cond = two_dest_condition(Millis(10));
                messenger.send_message("x", &cond).unwrap()
            })
            .collect();
        journal.set_failing(true);
        clock.advance(Millis(20));
        assert_eq!(messenger.retry.lock().len(), N, "every deadline failed");
        // Every kind of event runs a cycle over the list, and fails.
        for (i, id) in ids.iter().cycle().take(10 * N).enumerate() {
            assert!(messenger.pump().is_err());
            let ack = fake_read_ack(*id, (i % 2) as u32, Time(5));
            assert!(qmgr.put("DS.ACK.Q", ack).is_err());
            assert!(messenger.force_fail(&[*id], "forced").is_err());
            clock.advance(Millis(1));
            assert_eq!(messenger.retry.lock().len(), N, "after event {i}");
        }
        assert_eq!(messenger.pending_count(), N, "the list's bound");

        journal.set_failing(false);
        messenger.pump().unwrap();
        assert!(messenger.retry.lock().is_empty());
        for id in &ids {
            let n = messenger.take_outcome(*id, Wait::NoWait).unwrap().unwrap();
            assert!(n.reason.unwrap().contains("pick-up"), "deadline verdict");
            assert!(messenger.take_outcome(*id, Wait::NoWait).unwrap().is_none());
        }
        assert_eq!(messenger.metrics.verdict_failure.get(), N as u64);
        assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
    }

    #[test]
    fn system_clock_decides_with_no_daemon() {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        qmgr.create_queue("Q.A").unwrap();
        qmgr.create_queue("Q.B").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let id = messenger
            .send_message("x", &two_dest_condition(Millis(40)))
            .unwrap();
        // No daemon, no pump: the system clock's waiter thread fires the
        // armed deadline timer and finalizes the failure.
        let n = messenger
            .take_outcome(id, Wait::Timeout(Millis(3_000)))
            .unwrap()
            .expect("outcome from timer thread");
        assert_eq!(n.outcome, MessageOutcome::Failure);
    }
}
