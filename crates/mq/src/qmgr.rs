//! The queue manager: the unit of deployment in this substrate, analogous
//! to an MQSeries queue manager or a JMS provider instance.
//!
//! A [`QueueManager`] owns named queues, a journal, routing entries to
//! remote managers (transmission queues served by [`crate::channel`]), and
//! a dead-letter queue. Building a manager over a non-empty journal replays
//! it, restoring all persistent state — `crash()` followed by a rebuild is
//! the crash-recovery test harness used throughout the repo.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use simtime::{SharedClock, SystemClock};

use crate::error::{MqError, MqResult};
use crate::journal::{Journal, JournalRecord, MemJournal};
use crate::message::{CorrelationKey, Message, MessageId, QueueAddress};
use crate::obs::Obs;
use crate::queue::{Queue, QueueConfig, Wait};
use crate::relay::{Deduper, DEFAULT_DEDUP_WINDOW, RELAY_ORIGIN_PROPERTY};
use crate::session::{Released, Session, TxState};
use crate::stats::{ManagerStats, MetricsSnapshot, RelayStats};
use crate::trace::TraceLog;

/// Name of the dead-letter queue every manager owns.
// lint: registry-sink wire-string
pub const DEAD_LETTER_QUEUE: &str = "SYSTEM.DEAD.LETTER.QUEUE";

/// Property stamped on dead-lettered messages explaining why.
// lint: registry-sink wire-string
pub const DLQ_REASON_PROPERTY: &str = "sys.dlq.reason";

/// Property carrying the destination queue on transmission-queue envelopes.
// lint: registry-sink wire-string
pub const XMIT_DEST_QUEUE_PROPERTY: &str = "sys.xmit.dest.queue";

/// Property carrying the destination manager on transmission-queue envelopes.
// lint: registry-sink wire-string
pub const XMIT_DEST_MANAGER_PROPERTY: &str = "sys.xmit.dest.qmgr";

/// A background task attached to a queue manager — channels and TCP
/// acceptors register themselves so [`QueueManager::shutdown`] can stop
/// them and join their threads in one call.
///
/// Implementations must make `shutdown` idempotent: the manager calls it
/// at most once per attachment, but owners (tests, `Drop` impls) may also
/// call it directly.
pub trait ManagedTask: Send + Sync {
    /// Stops the task's background threads and joins them.
    fn shutdown(&self);
}

/// Manager-wide configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Rollbacks beyond this count dead-letter the message (MQ "backout
    /// threshold").
    pub backout_threshold: u32,
    /// Sliding-window size of the manager-level delivery deduper
    /// (origin-manager + message id keys; see [`crate::relay`]).
    pub dedup_window: usize,
    /// Journal growth (bytes appended since the last checkpoint) that
    /// triggers an automatic checkpoint after a commit. `None` disables
    /// automatic checkpoints; [`QueueManager::checkpoint`] still works.
    pub checkpoint_bytes: Option<u64>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            backout_threshold: 5,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            checkpoint_bytes: Some(64 << 20),
        }
    }
}

/// Builder for [`QueueManager`].
pub struct QueueManagerBuilder {
    name: String,
    clock: Option<SharedClock>,
    journal: Option<Arc<dyn Journal>>,
    config: ManagerConfig,
    obs: Option<Arc<Obs>>,
}

impl QueueManagerBuilder {
    /// Sets the clock (defaults to a fresh [`SystemClock`]).
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Sets the observability hub (defaults to a fresh [`Obs`]). Pass the
    /// same hub to several managers so a simulated distributed deployment
    /// reports into one registry and one lifecycle timeline.
    pub fn obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Sets the journal (defaults to a fresh [`MemJournal`]).
    pub fn journal(mut self, journal: Arc<dyn Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Sets manager-wide configuration.
    pub fn config(mut self, config: ManagerConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the manager, replaying the journal to recover persistent
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates journal replay failures (unreadable or corrupt storage).
    pub fn build(self) -> MqResult<Arc<QueueManager>> {
        let clock = self.clock.unwrap_or_else(|| SystemClock::new());
        let journal = self.journal.unwrap_or_else(|| MemJournal::new());
        let obs = self.obs.unwrap_or_default();
        let stats = ManagerStats::registered(obs.metrics(), &self.name);
        let relay_stats = RelayStats::registered(obs.metrics());
        // Journals that own metric cells (e.g. SegmentedJournal's fsync
        // and batch-size metrics) surface them through this manager's hub.
        journal.register_metrics(obs.metrics());
        let dedup_window = self.config.dedup_window;
        let manager = Arc::new_cyclic(|me| QueueManager {
            me: me.clone(),
            name: self.name,
            clock,
            journal,
            config: self.config,
            queues: RwLock::new(HashMap::new()),
            routes: RwLock::new(Routes::default()),
            stats,
            relay_stats,
            delivery_dedup: Mutex::new(Deduper::new(dedup_window)),
            mutation_gate: RwLock::new(()),
            released: Mutex::new(Released::default()),
            last_checkpoint_len: AtomicU64::new(0),
            obs,
            running: AtomicBool::new(true),
            tasks: Mutex::new(Vec::new()),
        });
        manager.recover()?;
        if !manager.queue_exists(DEAD_LETTER_QUEUE) {
            manager.create_queue(DEAD_LETTER_QUEUE)?;
        }
        manager
            .last_checkpoint_len
            .store(manager.journal.len_bytes(), Ordering::Relaxed);
        Ok(manager)
    }
}

/// A queue manager: named queues + journal + routes.
pub struct QueueManager {
    /// This manager, for the queues it builds: [`Queue::purge`] commits
    /// through its owner.
    pub(crate) me: Weak<QueueManager>,
    name: String,
    clock: SharedClock,
    journal: Arc<dyn Journal>,
    config: ManagerConfig,
    /// The queue directory: name → queue. Lookups read-hold it; creating
    /// and deleting a queue write-hold it across the check, the journal
    /// append and the insert, and a commit (`apply`) read-holds it across
    /// its `TxCommit` append and its puts, resolving each put's queue by
    /// name as replay does; all under the mutation gate (lock order: gate →
    /// directory → a queue's store or the journal).
    pub(crate) queues: RwLock<HashMap<String, Arc<Queue>>>,
    /// The routing table: the explicit route groups and the default route.
    routes: RwLock<Routes>,
    stats: ManagerStats,
    /// Relay-federation counters (`mq.relay.*`); see [`crate::relay`].
    pub(crate) relay_stats: RelayStats,
    /// Manager-level delivery deduper: origin-manager + message id keys,
    /// shared by every transport feeding this manager and reseeded from
    /// the checkpoint + journal tail on recovery (see [`crate::relay`]).
    pub(crate) delivery_dedup: Mutex<Deduper>,
    /// The checkpoint/writer exclusion gate. What writes a record
    /// read-holds it across `[journal append + in-memory apply]`: `apply`
    /// (a transaction's `TxCommit`), `create_queue` and `delete_queue`;
    /// a checkpoint write-holds it while it snapshots every live
    /// persistent message and pending get and truncates history, so the
    /// snapshot never misses the effect of a record it truncates. A take
    /// (live to pending) and a rollback (pending to live) leave that set
    /// as it was, so reads never take the gate. Never acquired
    /// re-entrantly: wakeups and watchers run after the guard is released.
    // lint: never-hold(QueueManager.mutation_gate) across submit
    pub(crate) mutation_gate: RwLock<()>,
    /// The handoffs the channels released, waiting for the next record to
    /// carry them (see [`Released`]). A leaf lock: taken under the mutation
    /// gate by the commit that drains it, held for the drain alone and
    /// never while another lock is taken or a record is appended.
    // lint: never-hold(QueueManager.released) across append
    // lint: never-hold(QueueManager.released) across finalize_pending
    pub(crate) released: Mutex<Released>,
    /// `journal.len_bytes()` as of the last checkpoint — the delta against
    /// the live length drives [`QueueManager::maybe_checkpoint`]. A plain
    /// length threshold would misfire on append-only group journals, whose
    /// length never shrinks at a checkpoint.
    last_checkpoint_len: AtomicU64,
    obs: Arc<Obs>,
    running: AtomicBool,
    /// Background machinery serving this manager (channel movers, TCP
    /// acceptors); drained and stopped by [`QueueManager::shutdown`].
    tasks: Mutex<Vec<Arc<dyn ManagedTask>>>,
}

impl fmt::Debug for QueueManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueManager")
            .field("name", &self.name)
            .field("queues", &self.queue_names())
            .field("running", &self.is_running())
            .finish()
    }
}

impl QueueManager {
    /// Starts building a queue manager with the given name.
    pub fn builder(name: impl Into<String>) -> QueueManagerBuilder {
        QueueManagerBuilder {
            name: name.into(),
            clock: None,
            journal: None,
            config: ManagerConfig::default(),
            obs: None,
        }
    }

    /// The manager's name (used in [`QueueAddress`]es).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared clock all queues use.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The manager's journal.
    pub fn journal(&self) -> &Arc<dyn Journal> {
        &self.journal
    }

    /// Manager-wide statistics.
    pub fn stats(&self) -> &ManagerStats {
        &self.stats
    }

    /// Relay-federation statistics (`mq.relay.*`).
    pub fn relay_stats(&self) -> &RelayStats {
        &self.relay_stats
    }

    /// The manager's observability hub (metrics registry + lifecycle
    /// trace). Shared with other managers when built via
    /// [`QueueManagerBuilder::obs`].
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The message-lifecycle trace log.
    pub fn trace(&self) -> &TraceLog {
        self.obs.trace()
    }

    /// A point-in-time snapshot of every metric registered against this
    /// manager's observability hub.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Manager-wide configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// Whether the manager is accepting work.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    pub(crate) fn check_running(&self) -> MqResult<()> {
        if self.is_running() {
            Ok(())
        } else {
            Err(MqError::ManagerStopped(self.name.clone()))
        }
    }

    // ---------------------------------------------------- queue admin --

    /// Creates a queue with default configuration.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueExists`] if the name is taken; journal failures.
    pub fn create_queue(&self, name: impl Into<String>) -> MqResult<Arc<Queue>> {
        self.create_queue_with(name, QueueConfig::default())
    }

    /// Creates a queue with explicit configuration.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueExists`] if the name is taken; journal failures.
    pub fn create_queue_with(
        &self,
        name: impl Into<String>,
        config: QueueConfig,
    ) -> MqResult<Arc<Queue>> {
        self.check_running()?;
        let name = name.into();
        // Gate → directory → journal (the crate-wide lock order): a
        // checkpoint must not truncate this QueueCreated record without the
        // queue in its snapshot's directory, and check + journal + insert
        // must be atomic per name.
        let _gate = self.mutation_gate.read();
        let mut queues = self.queues.write();
        if queues.contains_key(&name) {
            return Err(MqError::QueueExists(name));
        }
        self.journal.append(&JournalRecord::QueueCreated {
            queue: name.clone(),
        })?;
        let queue = Queue::owned_by(self, name.clone(), config);
        queues.insert(name, queue.clone());
        Ok(queue)
    }

    /// Returns the queue if it exists, creating it otherwise.
    ///
    /// # Errors
    ///
    /// Journal failures during creation.
    pub fn ensure_queue(&self, name: &str) -> MqResult<Arc<Queue>> {
        if let Ok(q) = self.queue(name) {
            return Ok(q);
        }
        match self.create_queue(name) {
            Ok(q) => Ok(q),
            // Raced with another creator: fetch theirs.
            Err(MqError::QueueExists(_)) => self.queue(name),
            Err(e) => Err(e),
        }
    }

    /// Deletes a queue and discards its messages.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`]; journal failures.
    pub fn delete_queue(&self, name: &str) -> MqResult<()> {
        self.check_running()?;
        let _gate = self.mutation_gate.read();
        let mut queues = self.queues.write();
        let Some(queue) = queues.get(name).cloned() else {
            return Err(MqError::QueueNotFound(name.to_owned()));
        };
        // Appended before the queue leaves the directory, as `create_queue`
        // appends before it enters: a refused delete leaves it listed and
        // open, as the journal still has it.
        self.journal.append(&JournalRecord::QueueDeleted {
            queue: name.to_owned(),
        })?;
        queues.remove(name);
        // Closed before the directory is released: under it, a queue that
        // is open is the one its name resolves to, which is what a commit
        // puts to.
        queue.close();
        Ok(())
    }

    /// Looks up a queue handle.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`].
    pub fn queue(&self, name: &str) -> MqResult<Arc<Queue>> {
        self.queues
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::QueueNotFound(name.to_owned()))
    }

    /// Whether the named queue exists.
    pub fn queue_exists(&self, name: &str) -> bool {
        self.queues.read().contains_key(name)
    }

    /// All queue names, sorted.
    pub fn queue_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.queues.read().keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------- messaging --

    /// Enqueues a message on a local queue, outside any transaction: a
    /// transaction of one put.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`], [`MqError::QueueFull`], or journal
    /// failures.
    pub fn put(&self, queue: &str, msg: Message) -> MqResult<()> {
        self.auto_commit(|tx| tx.put(self, queue, msg))
    }

    /// Enqueues a message addressed by `manager/queue`, routing to a
    /// transmission queue when the manager is remote.
    ///
    /// # Errors
    ///
    /// [`MqError::NoRoute`] when no channel is defined to the remote
    /// manager, plus the local `put` errors.
    pub fn put_to(&self, addr: &QueueAddress, msg: Message) -> MqResult<()> {
        self.auto_commit(|tx| tx.put_to(self, addr, msg))
    }

    /// Wraps a message in a transmission envelope bound for `addr`,
    /// stamping this manager as the relay origin (the first half of the
    /// federation-wide idempotency key) unless an upstream manager already
    /// did.
    pub(crate) fn wrap_for_transmission(&self, addr: &QueueAddress, mut msg: Message) -> Message {
        let origin = msg.str_property(RELAY_ORIGIN_PROPERTY).is_none();
        let envelope = [
            (XMIT_DEST_QUEUE_PROPERTY, addr.queue.as_str().into()),
            (XMIT_DEST_MANAGER_PROPERTY, addr.manager.as_str().into()),
            (RELAY_ORIGIN_PROPERTY, self.name.as_str().into()),
        ];
        let stamped = if origin {
            &envelope[..]
        } else {
            &envelope[..2]
        };
        msg.edit_properties(&[], stamped);
        msg
    }

    /// Consumes a message from a local queue, outside any transaction: a
    /// transaction of one get. When the journal refuses its record the
    /// message is back on the queue, redelivery count untouched. While it
    /// waits, a commit that stages a put it would take hands the message
    /// over instead of queueing it: no record holds that put or this get.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`]; [`MqError::ManagerStopped`] if the
    /// manager crashes while waiting; journal failures.
    pub fn get(&self, queue: &str, wait: Wait) -> MqResult<Option<Message>> {
        self.auto_commit(|tx| tx.get(self, queue, wait))
    }

    /// Consumes the oldest message whose correlation id equals `corr` (a
    /// `&str`, or the `u128` value of a 32-hex-digit id: see
    /// [`CorrelationKey`]), via the queue's correlation index (O(matches),
    /// not a queue scan). While it waits it may be handed a put, as
    /// [`QueueManager::get`] may.
    ///
    /// # Errors
    ///
    /// Same as [`QueueManager::get`].
    pub fn get_by_correlation<'a>(
        &self,
        queue: &str,
        corr: impl Into<CorrelationKey<'a>>,
        wait: Wait,
    ) -> MqResult<Option<Message>> {
        let corr = corr.into();
        self.auto_commit(|tx| tx.get_by_correlation(self, queue, corr, |_| true, wait, true))
    }

    /// Opens a session for transactional work against this manager.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.clone())
    }

    // --------------------------------------------------------- routing --

    /// Declares that messages for `remote_manager` should be staged on the
    /// local transmission queue `xmit_queue` (created if missing).
    /// Replaces any previous route (or route group) for that manager.
    ///
    /// # Errors
    ///
    /// Journal failures creating the transmission queue.
    pub fn define_route(&self, remote_manager: &str, xmit_queue: &str) -> MqResult<()> {
        self.define_route_group(remote_manager, std::slice::from_ref(&xmit_queue))
    }

    /// Declares a group of transmission queues for `remote_manager`
    /// (parallel downstream channels). The relay spreads traffic across
    /// the group deterministically by message id, so a retried custody
    /// transfer always picks the same downstream.
    ///
    /// # Errors
    ///
    /// [`MqError::NoRoute`] for an empty group; journal failures creating
    /// the transmission queues.
    pub fn define_route_group<S: AsRef<str>>(
        &self,
        remote_manager: &str,
        xmit_queues: &[S],
    ) -> MqResult<()> {
        let targets = self.route_targets(remote_manager, xmit_queues)?;
        self.routes
            .write()
            .explicit
            .insert(remote_manager.to_owned(), targets);
        Ok(())
    }

    /// Declares the next-hop transmission queue(s) used for any
    /// destination manager without an explicit route entry — the default
    /// route of the relay federation. A chain topology needs only this:
    /// each manager points its default route at the neighbor closer to
    /// the hub and relays everything else.
    ///
    /// # Errors
    ///
    /// [`MqError::NoRoute`] for an empty group; journal failures creating
    /// the transmission queues.
    pub fn define_default_route<S: AsRef<str>>(&self, xmit_queues: &[S]) -> MqResult<()> {
        let targets = self.route_targets("<default>", xmit_queues)?;
        self.routes.write().default = targets;
        Ok(())
    }

    /// Ensures a route group's transmission queues exist and returns their
    /// names; an empty group is [`MqError::NoRoute`] for `route`.
    fn route_targets<S: AsRef<str>>(
        &self,
        route: &str,
        xmit_queues: &[S],
    ) -> MqResult<Vec<String>> {
        if xmit_queues.is_empty() {
            return Err(MqError::NoRoute(route.to_owned()));
        }
        xmit_queues
            .iter()
            .map(|q| self.ensure_queue(q.as_ref()).map(|_| q.as_ref().to_owned()))
            .collect()
    }

    /// Resolves the transmission queue for one message bound for
    /// `remote_manager`: the explicit route group if one exists, else the
    /// default route; within the group the target is chosen
    /// deterministically from the message id, so retries of the same
    /// custody transfer always travel the same downstream. The id is mixed
    /// first ([`MessageId::mix64`]): ids are sequential, and a send that
    /// takes a fixed number of them would otherwise always land on the same
    /// target of an even group.
    pub fn route_for_message(&self, remote_manager: &str, id: MessageId) -> Option<String> {
        let routes = self.routes.read();
        let targets = routes
            .explicit
            .get(remote_manager)
            .unwrap_or(&routes.default);
        if targets.is_empty() {
            return None;
        }
        let idx = (id.mix64() % targets.len() as u64) as usize;
        Some(targets[idx].clone())
    }

    /// Moves a message its holder took off `from` to the dead-letter queue
    /// with a reason: one transaction, so one `TxCommit` record removes it
    /// from `from` and adds it to the DLQ. On failure it is back on `from`.
    // lint: custody(msg, err-reverts)
    pub(crate) fn dead_letter(
        &self,
        from: Arc<Queue>,
        msg: Message,
        reason: &str,
    ) -> MqResult<()> {
        let mut dead = msg.clone();
        dead.set_property(DLQ_REASON_PROPERTY, reason);
        // The get is in the transaction before anything can fail, so every
        // failure, a stopped manager included, puts the message back.
        let mut tx = TxState::default();
        tx.took(from.clone(), msg);
        self.auto_commit_from(tx, |tx| tx.put(self, DEAD_LETTER_QUEUE, dead))?;
        from.stats().dead_lettered.incr();
        Ok(())
    }

    // ---------------------------------------------- lifecycle & tasks --

    /// Registers background machinery (a channel mover, a TCP acceptor)
    /// serving this manager, so [`QueueManager::shutdown`] can stop it.
    pub fn attach_task(&self, task: Arc<dyn ManagedTask>) {
        self.tasks.lock().push(task);
    }

    /// Stops every attached background task (channel movers, TCP
    /// acceptors) and joins their threads. Idempotent: the task list is
    /// drained before stopping, so a second call — or a concurrent one —
    /// finds nothing left to do. The handoffs the stopped channels had
    /// released are then written out, so a clean stop leaves nothing to
    /// re-send. The manager itself stays running; use
    /// [`QueueManager::crash`] to also drop volatile state.
    pub fn shutdown(&self) {
        // Take the list first and join outside the lock, so tasks whose
        // shutdown re-enters the manager cannot deadlock against it.
        let tasks = std::mem::take(&mut *self.tasks.lock());
        for task in tasks {
            task.shutdown();
        }
        // Refused, they stay released: a restart re-sends them.
        self.flush_released("shutdown").unwrap_or(());
    }

    // ------------------------------------------------ crash & recovery --

    /// Simulates a crash: all volatile state is dropped and every blocked
    /// consumer is woken with [`MqError::ManagerStopped`]. Rebuild a manager
    /// over the same journal to model restart-with-recovery.
    pub fn crash(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.released.lock().forget();
        let mut queues = self.queues.write();
        for queue in queues.values() {
            queue.close();
        }
        queues.clear();
    }

    /// Applies one replayed journal record to a recovery image.
    fn apply_recovered(&self, state: &mut RecoveredState, record: JournalRecord) {
        match record {
            JournalRecord::QueueCreated { queue } => {
                if let std::collections::hash_map::Entry::Vacant(e) = state.queues.entry(queue) {
                    let q = Queue::owned_by(self, e.key().clone(), QueueConfig::default());
                    e.insert(q);
                }
            }
            JournalRecord::QueueDeleted { queue } => {
                state.queues.remove(&queue);
            }
            // A checkpoint's image: its window came whole with its start.
            JournalRecord::Put { queue, message } => {
                if let Some(q) = state.queues.get(&*queue) {
                    q.restore(message);
                }
            }
            JournalRecord::TxCommit { keys, puts, gets } => {
                state.dedup.remember(keys, puts.iter().map(|(_, m)| m), self.name());
                for (queue, message_id) in gets {
                    if let Some(q) = state.queues.get(&*queue) {
                        q.remove_by_id(message_id);
                    }
                }
                for (queue, message) in puts {
                    if let Some(q) = state.queues.get(&*queue) {
                        q.restore(message);
                    }
                }
            }
            // Checkpoint markers are handled by the replay driver.
            JournalRecord::CheckpointStart { .. } | JournalRecord::CheckpointEnd { .. } => {}
        }
    }

    /// Streams the journal once, building the recovery image with
    /// **buffer-and-swap** checkpoint handling: a `CheckpointStart` opens a
    /// fresh pending image (queue directory and deduper reseeded from the
    /// marker), records between the markers apply to it, and the matching
    /// `CheckpointEnd` promotes it — discarding everything before the
    /// checkpoint in O(1). A torn checkpoint (no `End`) is dropped whole
    /// and the pre-checkpoint image stands, so a crash *during*
    /// checkpointing recovers exactly the old live set.
    ///
    /// Memory and time are O(live messages + tail records), not O(journal
    /// history): replay is a streaming visitor, and truncating journals
    /// ([`crate::journal::Journal::write_checkpoint`]) drop pre-checkpoint
    /// history physically.
    fn recover(&self) -> MqResult<()> {
        let mut base = RecoveredState::new(self.config.dedup_window);
        let mut pending: Option<(u64, RecoveredState)> = None;
        self.journal.replay(&mut |record| {
            match record {
                JournalRecord::CheckpointStart {
                    checkpoint_id,
                    queues,
                    dedup,
                } => {
                    let mut image = RecoveredState::new(self.config.dedup_window);
                    for name in queues {
                        let q = Queue::owned_by(self, name.clone(), QueueConfig::default());
                        image.queues.insert(name, q);
                    }
                    // The deduper's idempotency keys are part of the
                    // snapshot: a sender retrying a batch across our restart
                    // must still be recognized even though the original
                    // arrival records were truncated away.
                    for (origin, id) in dedup {
                        image.dedup.record((origin, MessageId::from_u128(id)));
                    }
                    pending = Some((checkpoint_id, image));
                }
                JournalRecord::CheckpointEnd { checkpoint_id } => {
                    if let Some((open_id, image)) = pending.take() {
                        if open_id == checkpoint_id {
                            base = image;
                        }
                    }
                }
                other => {
                    let state = match pending.as_mut() {
                        Some((_, image)) => image,
                        None => &mut base,
                    };
                    self.apply_recovered(state, other);
                }
            }
            Ok(())
        })?;
        // A checkpoint still open at EOF is torn: drop it, keep `base`.
        drop(pending);
        self.queues.write().extend(base.queues);
        *self.delivery_dedup.lock() = base.dedup;
        Ok(())
    }

    /// Snapshots all live persistent state into the journal as a
    /// checkpoint and truncates history before it, bounding journal growth
    /// and making the next recovery O(live). Expired messages are swept
    /// first so the snapshot carries none. Record writers wait (the write
    /// side of the mutation gate) for the snapshot itself; takes do not.
    ///
    /// # Errors
    ///
    /// Journal failures; on failure the journal may hold a torn checkpoint,
    /// which recovery ignores (the pre-checkpoint image stands).
    pub fn checkpoint(&self) -> MqResult<()> {
        self.sweep_expired_all()?;
        let _gate = self.mutation_gate.write();
        self.checkpoint_locked()
    }

    /// Expires every ripe message on every queue, via
    /// each queue's expiry heap: one transaction per queue holding any.
    /// Returns the total expired.
    ///
    /// # Errors
    ///
    /// Journal failures; the ripe messages of the refused sweep stay.
    pub fn sweep_expired_all(&self) -> MqResult<usize> {
        let mut queues: Vec<Arc<Queue>> = self.queues.read().values().cloned().collect();
        queues.sort_by(|a, b| a.name().cmp(b.name()));
        let mut n = 0;
        for q in queues {
            match q.sweep_expired() {
                Ok(expired) => n += expired,
                // Closed while the manager runs: deleted since the listing,
                // so nothing of it is left to sweep.
                Err(MqError::ManagerStopped(_)) if self.is_running() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }

    /// Checkpoints if the journal has grown past
    /// [`ManagerConfig::checkpoint_bytes`] since the last one. It runs after
    /// a commit whose record is written, so nothing here undoes that
    /// commit: a refused sweep or checkpoint is counted in
    /// `mq.checkpoint.refused` and the next commit retries. Skips when
    /// another thread holds the gate — checkpointing is a bound, not a
    /// deadline.
    pub(crate) fn maybe_checkpoint(&self) {
        let Some(threshold) = self.config.checkpoint_bytes else {
            return;
        };
        let grown = self
            .journal
            .len_bytes()
            .saturating_sub(self.last_checkpoint_len.load(Ordering::Relaxed));
        if grown < threshold {
            return;
        }
        let written = self.sweep_expired_all().and_then(|_| {
            // try_write, not write: a commit that finds the gate held
            // returns and a later one checkpoints, rather than wait on the
            // holders while every commit queues behind it.
            let Some(_gate) = self.mutation_gate.try_write() else {
                return Ok(());
            };
            self.checkpoint_locked()
        });
        if written.is_err() {
            self.stats.checkpoints_refused.incr();
        }
    }

    fn checkpoint_locked(&self) -> MqResult<()> {
        // Not wall-clock time (checkpoints must work under SimClock). The
        // counter half of an id restarts with every process, so the epoch is
        // folded in: a torn start an earlier run left behind never pairs
        // with this run's end.
        let checkpoint_id = MessageId::generate().mix64();
        let dedup: Vec<(u64, u128)> = self
            .delivery_dedup
            .lock()
            .snapshot()
            .into_iter()
            .map(|(origin, id)| (origin, id.as_u128()))
            .collect();
        let queues = self.queues.read();
        let mut names: Vec<&String> = queues.keys().collect();
        names.sort();
        let mut records = Vec::new();
        records.push(JournalRecord::CheckpointStart {
            checkpoint_id,
            queues: names.iter().map(|name| (*name).clone()).collect(),
            dedup,
        });
        for name in names {
            let queue = &queues[name];
            for msg in queue.snapshot_persistent() {
                records.push(JournalRecord::Put {
                    queue: queue.shared_name(),
                    message: (*msg).clone(),
                });
            }
        }
        drop(queues);
        records.push(JournalRecord::CheckpointEnd { checkpoint_id });
        self.stats.encodes.add(records.len() as u64 - 2);
        self.journal.write_checkpoint(&mut records.into_iter())?;
        self.last_checkpoint_len
            .store(self.journal.len_bytes(), Ordering::Relaxed);
        Ok(())
    }
}

/// A manager's routing table: remote manager name → the local
/// transmission queue(s) staging traffic toward it, and the next hop for
/// every manager with no entry (the relay federation's default route;
/// empty until one is defined). Several targets model parallel downstream
/// channels; the relay picks one deterministically per message id.
#[derive(Default)]
struct Routes {
    explicit: HashMap<String, Vec<String>>,
    default: Vec<String>,
}

/// A recovery image: the queue directory plus the delivery deduper being
/// rebuilt, either the base image or the pending one a checkpoint opened.
struct RecoveredState {
    queues: HashMap<String, Arc<Queue>>,
    dedup: Deduper,
}

impl RecoveredState {
    fn new(dedup_window: usize) -> Self {
        RecoveredState {
            queues: HashMap::new(),
            dedup: Deduper::new(dedup_window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{MemJournal, SegmentConfig, SegmentedJournal};
    use crate::queue::{Fate, PickUp};
    use crate::trace::DEFAULT_TRACE_CAPACITY;
    use crate::TraceStage;
    use simtime::{SimClock, Time};

    fn manager() -> (Arc<MemJournal>, Arc<QueueManager>) {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .clock(SimClock::new())
            .journal(journal.clone())
            .build()
            .unwrap();
        (journal, qm)
    }

    #[test]
    fn create_and_lookup_queues() {
        let (_j, qm) = manager();
        qm.create_queue("A").unwrap();
        assert!(qm.queue_exists("A"));
        assert!(qm.queue("A").is_ok());
        assert!(matches!(qm.queue("B"), Err(MqError::QueueNotFound(_))));
        assert!(matches!(qm.create_queue("A"), Err(MqError::QueueExists(_))));
        assert_eq!(
            qm.queue_names(),
            vec!["A".to_string(), DEAD_LETTER_QUEUE.to_string()]
        );
    }

    #[test]
    fn trace_ring_evictions_are_a_metric() {
        let qm = QueueManager::builder("QM1")
            .clock(SimClock::new())
            .obs(Obs::new())
            .build()
            .unwrap();
        assert_eq!(qm.metrics_snapshot().counter("mq.trace.dropped"), 0);
        let overfill = DEFAULT_TRACE_CAPACITY as u64 + 3;
        for i in 0..overfill {
            qm.trace()
                .record(Time(i), TraceStage::Send, Some(u128::from(i)), None, "");
        }
        assert_eq!(qm.trace().len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(qm.metrics_snapshot().counter("mq.trace.dropped"), 3);
    }

    #[test]
    fn ensure_queue_is_idempotent() {
        let (_j, qm) = manager();
        let a = qm.ensure_queue("X").unwrap();
        let b = qm.ensure_queue("X").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn put_get_roundtrip() {
        let (_j, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("hi").build()).unwrap();
        let got = qm.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("hi"));
        assert!(got.put_time().is_some());
    }

    #[test]
    fn put_to_local_address() {
        let (_j, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.put_to(&QueueAddress::new("QM1", "Q"), Message::text("x").build())
            .unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
    }

    #[test]
    fn put_to_remote_without_route_fails() {
        let (_j, qm) = manager();
        let err = qm
            .put_to(&QueueAddress::new("QM9", "Q"), Message::text("x").build())
            .unwrap_err();
        assert!(matches!(err, MqError::NoRoute(m) if m == "QM9"));
    }

    #[test]
    fn put_to_remote_stages_envelope_on_xmit_queue() {
        let (_j, qm) = manager();
        qm.define_route("QM2", "XMIT.QM2").unwrap();
        qm.put_to(
            &QueueAddress::new("QM2", "ORDERS"),
            Message::text("x").build(),
        )
        .unwrap();
        let envelope = qm.get("XMIT.QM2", Wait::NoWait).unwrap().unwrap();
        assert_eq!(
            envelope.str_property(XMIT_DEST_QUEUE_PROPERTY),
            Some("ORDERS")
        );
        assert_eq!(
            envelope.str_property(XMIT_DEST_MANAGER_PROPERTY),
            Some("QM2")
        );
        assert_eq!(qm.stats().forwarded.get(), 1);
    }

    #[test]
    fn crash_and_recover_persistent_messages_only() {
        let journal = MemJournal::new();
        let clock = SimClock::new();
        let qm = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("durable").persistent(true).build())
            .unwrap();
        qm.put("Q", Message::text("volatile").build()).unwrap();
        qm.crash();
        assert!(!qm.is_running());
        assert!(matches!(
            qm.put("Q", Message::text("x").build()),
            Err(MqError::ManagerStopped(_))
        ));

        let qm2 = QueueManager::builder("QM1")
            .clock(clock)
            .journal(journal)
            .build()
            .unwrap();
        let q = qm2.queue("Q").unwrap();
        assert_eq!(q.depth(), 1);
        let got = qm2.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("durable"));
    }

    #[test]
    fn put_refused_as_full_does_not_reappear_after_restart() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .build()
            .unwrap();
        let bounded = QueueConfig { max_depth: Some(2) };
        qm.create_queue_with("Q", bounded).unwrap();
        let persistent = |body: &str| Message::text(body).persistent(true).build();
        qm.put("Q", persistent("a")).unwrap();
        qm.put("Q", persistent("b")).unwrap();
        let records = journal.record_count();
        assert!(matches!(
            qm.put("Q", persistent("c")),
            Err(MqError::QueueFull(_))
        ));
        assert_eq!(
            journal.record_count(),
            records,
            "a refused put leaves no record"
        );
        qm.crash();

        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 2);
    }

    #[test]
    fn recovery_applies_gets_and_deletes() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        qm.create_queue("GONE").unwrap();
        let keep = Message::text("keep").persistent(true).build();
        let consumed = Message::text("consumed").persistent(true).build();
        qm.put("Q", keep.clone()).unwrap();
        qm.put("Q", consumed).unwrap();
        // Consume the first message (its get is a journal record).
        qm.get("Q", Wait::NoWait).unwrap().unwrap(); // takes "keep" (FIFO)
        qm.delete_queue("GONE").unwrap();
        qm.crash();

        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert!(!qm2.queue_exists("GONE"));
        let remaining = qm2.queue("Q").unwrap().browse();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].payload_str(), Some("consumed"));
    }

    #[test]
    fn checkpoint_preserves_state_and_shrinks_journal() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        for i in 0..20 {
            qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                .unwrap();
        }
        for _ in 0..15 {
            qm.get("Q", Wait::NoWait).unwrap().unwrap();
        }
        let before = journal.record_count();
        qm.checkpoint().unwrap();
        assert!(journal.record_count() < before);
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 5);
        let first = qm2.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(first.payload_str(), Some("m15"));
    }

    #[test]
    fn dead_letter_is_atomic_in_journal() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        let msg = Message::text("poison").persistent(true).build();
        let id = msg.id();
        qm.put("Q", msg.clone()).unwrap();
        let q = qm.queue("Q").unwrap();
        let taken = q.try_take().unwrap().unwrap();
        // A refused record leaves the message where it was ...
        journal.set_failing(true);
        assert!(qm.dead_letter(q.clone(), taken, "poison").is_err());
        journal.set_failing(false);
        assert_eq!((q.depth(), qm.queue(DEAD_LETTER_QUEUE).unwrap().depth()), (1, 0));
        // ... and a written one moves it, in one record.
        let taken = q.try_take().unwrap().unwrap();
        assert_eq!(taken.redelivery_count(), 0);
        let records = journal.record_count();
        qm.dead_letter(q.clone(), taken, "backout threshold exceeded")
            .unwrap();
        assert_eq!(journal.record_count(), records + 1);
        assert_eq!(q.stats().dead_lettered.get(), 1);
        // Crash & recover: message must be on the DLQ, not on Q, not lost.
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 0);
        let dlq_msgs = qm2.queue(DEAD_LETTER_QUEUE).unwrap().browse();
        assert_eq!(dlq_msgs.len(), 1);
        assert_eq!(dlq_msgs[0].id(), id);
        assert_eq!(
            dlq_msgs[0].str_property(DLQ_REASON_PROPERTY),
            Some("backout threshold exceeded")
        );
    }

    #[test]
    fn queue_created_during_recovery_accepts_traffic() {
        let journal = MemJournal::new();
        {
            let qm = QueueManager::builder("QM1")
                .journal(journal.clone())
                .build()
                .unwrap();
            qm.create_queue("Q").unwrap();
            qm.crash();
        }
        let qm = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        qm.put("Q", Message::text("post-recovery").build()).unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
    }

    use crate::journal::tests::temp_dir as segment_root;

    /// `(file name, contents)` of every file under a journal root.
    fn read_root(root: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    fn payloads(qm: &QueueManager, queue: &str) -> Vec<String> {
        qm.queue(queue)
            .unwrap()
            .browse()
            .iter()
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect()
    }

    #[test]
    fn consecutive_restarts_leave_journal_byte_identical() {
        // Recovery must be a pure read: rebuilding a manager over an
        // existing journal appends nothing, so restarting twice in a row
        // leaves the directory untouched byte for byte.
        let root = segment_root("restart-idempotent");
        let open = || {
            QueueManager::builder("QM1")
                .journal(SegmentedJournal::open(&root, SegmentConfig::default()).unwrap())
                .build()
                .unwrap()
        };
        {
            let qm = open();
            qm.create_queue("Q").unwrap();
            for i in 0..5 {
                qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                    .unwrap();
            }
            qm.get("Q", Wait::NoWait).unwrap().unwrap();
            qm.crash();
        }
        let after_first_run = read_root(&root);
        for restart in 1..=2 {
            let qm = open();
            assert_eq!(qm.queue("Q").unwrap().depth(), 4);
            qm.crash();
            assert_eq!(
                read_root(&root),
                after_first_run,
                "restart #{restart} must not grow or rewrite the journal"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_truncates_segments_and_recovers_live_state() {
        let root = segment_root("qmgr-seg-ckpt");
        let config = SegmentConfig {
            roll_bytes: 512,
            sync_every_append: false,
        };
        let journal = SegmentedJournal::open(&root, config.clone()).unwrap();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        for i in 0..40 {
            qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                .unwrap();
        }
        for _ in 0..35 {
            qm.get("Q", Wait::NoWait).unwrap().unwrap();
        }
        let before = journal.len_bytes();
        qm.checkpoint().unwrap();
        assert!(
            journal.len_bytes() < before,
            "checkpoint must shrink the segmented store ({} -> {})",
            before,
            journal.len_bytes()
        );
        assert_eq!(journal.segment_count().unwrap(), 1);
        qm.crash();
        let journal = SegmentedJournal::open(&root, config).unwrap();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 5);
        let first = qm2.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(first.payload_str(), Some("m35"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_checkpoint_does_not_poison_what_is_journaled_after_it() {
        // A crash in the middle of a checkpoint: the pre-checkpoint
        // segments plus the snapshot cut 10 bytes short (no CheckpointEnd),
        // not yet renamed into the chain. The orphan CheckpointStart must
        // never reach a replay — it would file every later record into a
        // pending image that is dropped at EOF.
        let root = segment_root("qmgr-torn-ckpt");
        let open = || {
            QueueManager::builder("QM1")
                .journal(SegmentedJournal::open(&root, SegmentConfig::default()).unwrap())
                .build()
                .unwrap()
        };
        let qm = open();
        qm.create_queue("Q").unwrap();
        for i in 0..5 {
            qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                .unwrap();
        }
        let history = read_root(&root);
        qm.checkpoint().unwrap();
        qm.crash();
        let (name, mut snapshot) = read_root(&root).pop().unwrap();
        snapshot.truncate(snapshot.len() - 10);
        std::fs::remove_file(root.join(&name)).unwrap();
        let mut tmp = name;
        tmp.push(".tmp");
        std::fs::write(root.join(tmp), snapshot).unwrap();
        for (name, bytes) in history {
            std::fs::write(root.join(name), bytes).unwrap();
        }

        let qm = open();
        assert_eq!(payloads(&qm, "Q"), ["m0", "m1", "m2", "m3", "m4"]);
        assert!(
            read_root(&root).iter().all(|(n, _)| n.to_str().unwrap().ends_with(".seg")),
            "open() removes the torn snapshot"
        );
        qm.put(
            "Q",
            Message::text("after-torn-checkpoint").persistent(true).build(),
        )
        .unwrap();
        let taken = qm.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(taken.payload_str(), Some("m0"));
        qm.crash();

        let qm = open();
        assert_eq!(
            payloads(&qm, "Q"),
            ["m1", "m2", "m3", "m4", "after-torn-checkpoint"],
            "the acked put survives and the consumed message stays consumed"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn uncommitted_transactional_get_survives_checkpoint_and_crash() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("held").persistent(true).build())
            .unwrap();
        let mut session = qm.session();
        session.begin().unwrap();
        let got = session.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("held"));
        // The checkpoint snapshot must still cover the provisionally
        // consumed message: its Get is only journaled at commit, and this
        // transaction never commits.
        qm.checkpoint().unwrap();
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 1, "get rolls back");
        let back = qm2.get("Q", Wait::NoWait).unwrap().unwrap();
        assert_eq!(back.payload_str(), Some("held"));
    }

    #[test]
    fn a_checkpoint_recovers_open_gets_in_the_order_the_history_does() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        for i in 0..5 {
            qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                .unwrap();
        }
        let mut session = qm.session();
        session.begin().unwrap();
        for _ in 0..2 {
            session.get("Q", Wait::NoWait).unwrap().unwrap();
        }
        // The same history twice: as journaled, and compacted into a
        // checkpoint that must hold the two open gets where they were.
        let history = MemJournal::new();
        for record in journal.replay_collect().unwrap() {
            history.append(&record).unwrap();
        }
        qm.checkpoint().unwrap();
        qm.crash();
        let drain = |journal: Arc<MemJournal>| {
            let qm = QueueManager::builder("QM1")
                .journal(journal)
                .build()
                .unwrap();
            std::iter::from_fn(|| qm.get("Q", Wait::NoWait).unwrap())
                .map(|m| m.payload_str().unwrap().to_owned())
                .collect::<Vec<_>>()
        };
        let replayed = drain(history);
        assert_eq!(replayed, ["m0", "m1", "m2", "m3", "m4"]);
        assert_eq!(
            drain(journal),
            replayed,
            "the checkpoint reorders the queue"
        );
    }

    #[test]
    fn commit_volume_triggers_automatic_checkpoint() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .config(ManagerConfig {
                checkpoint_bytes: Some(1),
                ..ManagerConfig::default()
            })
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        let mut session = qm.session();
        session.begin().unwrap();
        session
            .put("Q", Message::text("auto").persistent(true).build())
            .unwrap();
        session.commit().unwrap();
        let records = journal.replay_collect().unwrap();
        assert!(
            records
                .iter()
                .any(|r| matches!(r, JournalRecord::CheckpointEnd { .. })),
            "a 1-byte threshold must checkpoint right after the commit"
        );
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 1);
    }

    /// One label per record: its kind and the queues it names.
    fn record_labels(journal: &MemJournal) -> Vec<String> {
        let label = |record: JournalRecord| match record {
            JournalRecord::TxCommit { puts, gets, .. } => format!(
                "TxCommit get{:?} put{:?}",
                gets.iter().map(|(q, _)| &**q).collect::<Vec<_>>(),
                puts.iter().map(|(q, _)| &**q).collect::<Vec<_>>(),
            ),
            other => format!("{other:?}"),
        };
        journal.replay_collect().unwrap().into_iter().map(label).collect()
    }

    #[test]
    fn a_put_or_get_outside_a_transaction_is_one_tx_commit() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        let before = journal.record_count();
        qm.put("Q", Message::text("durable").persistent(true).build())
            .unwrap();
        qm.put("Q", Message::text("volatile").build()).unwrap();
        qm.get("Q", Wait::NoWait).unwrap().unwrap();
        qm.get("Q", Wait::NoWait).unwrap().unwrap();
        assert!(qm.get("Q", Wait::NoWait).unwrap().is_none());
        assert_eq!(
            record_labels(&journal)[before..],
            [r#"TxCommit get[] put["Q"]"#, r#"TxCommit get["Q"] put[]"#],
            "a volatile message and an empty get leave no record"
        );
        assert_eq!(qm.stats().tx_committed.get(), 0, "explicit transactions only");
        assert!(qm.queue("Q").unwrap().snapshot_persistent().is_empty());
    }

    /// A standing claimant on `Q`: each arrival takes one
    /// message off `OUT` and leaves a note about the pair on `NOTES`. It
    /// declines a batch it cannot pair up, and logs how each one it
    /// consumed ended.
    #[derive(Default)]
    struct Pairing {
        ended: Mutex<Vec<bool>>,
    }

    impl PickUp for Pairing {
        fn stage<'a>(&'a self, arrived: &[&Message], tx: &mut Session) -> Option<Fate<'a>> {
            for msg in arrived {
                let taken = tx.get("OUT", Wait::NoWait).ok()??;
                let (arrived, taken) = (msg.payload_str().unwrap(), taken.payload_str().unwrap());
                let note = format!("{arrived}+{taken}");
                tx.put("NOTES", Message::text(note).persistent(true).build()).ok()?;
            }
            Some(Box::new(|committed| self.ended.lock().push(committed)))
        }
    }

    fn durable(text: &str) -> Message {
        Message::text(text).persistent(true).build()
    }

    #[test]
    fn a_standing_claimant_consumes_puts_inside_the_transaction_that_delivers_them() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.create_queue("OUT").unwrap();
        qm.create_queue("NOTES").unwrap();
        qm.create_queue("OTHER").unwrap();
        for text in ["x", "y"] {
            qm.put("OUT", durable(text)).unwrap();
        }
        let pairing = Arc::new(Pairing::default());
        let claimant: Arc<dyn PickUp> = pairing.clone();
        let q = qm.queue("Q").unwrap();
        q.stand(Arc::downgrade(&claimant));
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let watcher = seen.clone();
        q.add_put_watcher(Arc::new(move || {
            watcher.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        // The claimant has heard how the record ended before any watcher of
        // the transaction runs.
        let ended_first = Arc::new(Mutex::new(Vec::new()));
        let (log, pairing_seen) = (ended_first.clone(), Arc::downgrade(&pairing));
        qm.queue("OTHER").unwrap().add_put_watcher(Arc::new(move || {
            log.lock().extend(pairing_seen.upgrade().map(|p| p.ended.lock().clone()));
        }));
        let before = record_labels(&journal).len();

        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", durable("a")).unwrap();
        s.put("OTHER", durable("kept")).unwrap();
        s.put("Q", durable("b")).unwrap();
        s.commit().unwrap();
        // One record: the caller's other put, then what the claimant staged.
        // Nothing was put to or got from Q.
        assert_eq!(
            record_labels(&journal)[before..],
            [r#"TxCommit get["OUT", "OUT"] put["OTHER", "NOTES", "NOTES"]"#]
        );
        assert_eq!(q.depth(), 0);
        assert_eq!(q.stats().enqueued.get(), 0);
        let notes: Vec<_> = qm.queue("NOTES").unwrap().browse();
        assert_eq!(notes[0].payload_str(), Some("a+x"));
        assert_eq!(notes[1].payload_str(), Some("b+y"));
        // Watchers observe arrivals, not residency: once per transaction.
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(qm.stats().tx_committed.get(), 1, "one transaction, counted once");
        assert_eq!(*pairing.ended.lock(), [true]);
        assert_eq!(*ended_first.lock(), [vec![true]]);

        // A claimant that declines (nothing left on OUT to pair with) has
        // its staging undone, and the arrivals are queued.
        qm.put("OUT", durable("z")).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", durable("c")).unwrap();
        s.put("Q", durable("d")).unwrap();
        s.commit().unwrap();
        assert_eq!(record_labels(&journal).last().unwrap(), r#"TxCommit get[] put["Q", "Q"]"#);
        assert_eq!(q.depth(), 2);
        assert_eq!(qm.queue("OUT").unwrap().depth(), 1);
        assert_eq!(qm.queue("NOTES").unwrap().depth(), 2);
        assert_eq!(*pairing.ended.lock(), [true], "a declined arrival has no end");

        // Once the claimant is gone, arrivals are queued again.
        drop((claimant, pairing));
        qm.put("Q", durable("e")).unwrap();
        assert_eq!(q.depth(), 3);
        assert_eq!(record_labels(&journal).last().unwrap(), r#"TxCommit get[] put["Q"]"#);
    }

    #[test]
    fn refused_arrival_commit_hands_the_transaction_back_as_staged() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.create_queue("OUT").unwrap();
        qm.create_queue("NOTES").unwrap();
        qm.create_queue("OTHER").unwrap();
        qm.put("OUT", durable("x")).unwrap();
        qm.put("OTHER", durable("mine")).unwrap();
        let pairing = Arc::new(Pairing::default());
        let claimant: Arc<dyn PickUp> = pairing.clone();
        qm.queue("Q").unwrap().stand(Arc::downgrade(&claimant));

        let mut s = qm.session();
        s.begin().unwrap();
        s.get("OTHER", Wait::NoWait).unwrap().unwrap();
        s.put("OTHER", durable("first")).unwrap();
        s.put("Q", durable("a")).unwrap();
        s.put("OTHER", durable("last")).unwrap();
        journal.set_failing(true);
        let records = journal.record_count();
        for _ in 0..2 * qm.config().backout_threshold {
            assert!(matches!(s.commit(), Err(MqError::Io(_))));
            assert!(s.in_transaction());
            // The claimant's get is back on its queue, budget unspent; the
            // caller's own get is still the caller's.
            let parked = qm.queue("OUT").unwrap().browse();
            assert_eq!(parked.len(), 1);
            assert_eq!(parked[0].redelivery_count(), 0);
            assert_eq!(qm.queue("OTHER").unwrap().depth(), 0);
            assert_eq!(qm.queue("NOTES").unwrap().depth(), 0);
        }
        assert_eq!(journal.record_count(), records);
        assert_eq!(qm.stats().tx_committed.get(), 0);
        assert!(pairing.ended.lock().iter().all(|committed| !committed));
        assert_eq!(pairing.ended.lock().len(), 2 * qm.config().backout_threshold as usize);
        // What comes back is what was staged, arrival included and in
        // place: with the claimant gone the retry queues it, in order.
        drop((claimant, pairing));
        journal.set_failing(false);
        s.commit().unwrap();
        assert_eq!(
            record_labels(&journal).last().unwrap(),
            r#"TxCommit get["OTHER"] put["OTHER", "Q", "OTHER"]"#
        );
        assert_eq!(qm.queue("Q").unwrap().depth(), 1);
    }

    #[test]
    fn a_get_whose_record_is_refused_leaves_the_message_on_the_queue() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        let msg = Message::text("kept")
            .persistent(true)
            .correlation_id("c")
            .build();
        let id = msg.id();
        qm.put("Q", msg).unwrap();
        journal.set_failing(true);
        assert!(qm.get("Q", Wait::NoWait).is_err());
        assert!(qm.get_by_correlation("Q", "c", Wait::NoWait).is_err());
        journal.set_failing(false);
        let q = qm.queue("Q").unwrap();
        assert_eq!(q.depth(), 1);
        assert_eq!(q.browse()[0].redelivery_count(), 0, "the failure is not the message's");
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 1, "restart agrees");
        // The correlation index still finds it.
        let back = qm2.get_by_correlation("Q", "c", Wait::NoWait).unwrap().unwrap();
        assert_eq!((back.id(), back.redelivery_count()), (id, 0));
    }

    #[test]
    fn purge_is_one_record_or_nothing() {
        let (journal, qm) = manager();
        let q = qm.create_queue("Q").unwrap();
        for i in 0..5 {
            qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                .unwrap();
        }
        qm.put("Q", Message::text("volatile").build()).unwrap();
        journal.set_failing(true);
        assert!(q.purge().is_err());
        journal.set_failing(false);
        assert_eq!(
            payloads(&qm, "Q"),
            ["m0", "m1", "m2", "m3", "m4", "volatile"],
            "a refused purge removes nothing and reorders nothing"
        );
        let before = journal.record_count();
        assert_eq!(q.purge().unwrap(), 6);
        assert_eq!(q.depth(), 0);
        assert_eq!(
            record_labels(&journal)[before..],
            [r#"TxCommit get["Q", "Q", "Q", "Q", "Q"] put[]"#]
        );
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("Q").unwrap().depth(), 0);
    }

    #[test]
    fn puts_and_gets_outside_transactions_keep_the_journal_bounded() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("QM1")
            .journal(journal.clone())
            .config(ManagerConfig {
                checkpoint_bytes: Some(2_048),
                ..ManagerConfig::default()
            })
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        let mut high_water = 0;
        for i in 0..500 {
            qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                .unwrap();
            qm.get("Q", Wait::NoWait).unwrap().unwrap();
            high_water = high_water.max(journal.len_bytes());
        }
        assert!(
            high_water < 4 * 2_048,
            "journal grew to {high_water} bytes without a checkpoint"
        );
    }

    #[test]
    fn a_ttl_keeps_running_across_a_restart() {
        // The record holds a put as enqueued, outside a transaction or in
        // one: recovery restores the expiry, it does not restart the TTL.
        let journal = MemJournal::new();
        let clock = SimClock::new();
        let open = || {
            QueueManager::builder("QM1")
                .clock(clock.clone())
                .journal(journal.clone())
                .build()
                .unwrap()
        };
        let qm = open();
        qm.create_queue("Q").unwrap();
        let short = || Message::text("short").persistent(true).ttl(simtime::Millis(50)).build();
        qm.put("Q", short()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.put("Q", short()).unwrap();
        s.commit().unwrap();
        clock.advance(simtime::Millis(40));
        qm.crash();
        let qm = open();
        assert_eq!(qm.queue("Q").unwrap().depth(), 2);
        clock.advance(simtime::Millis(20));
        assert!(qm.get("Q", Wait::NoWait).unwrap().is_none());
        assert_eq!(qm.queue("Q").unwrap().stats().expired.get(), 2);
    }

    #[test]
    fn a_put_staged_for_a_queue_deleted_since_is_dead_lettered_and_the_rest_applies() {
        let (journal, qm) = manager();
        qm.create_queue("IN").unwrap();
        qm.create_queue("GONE").unwrap();
        qm.create_queue("OUT").unwrap();
        qm.put("IN", Message::text("in").persistent(true).build()).unwrap();
        let mut s = qm.session();
        s.begin().unwrap();
        s.get("IN", Wait::NoWait).unwrap().unwrap();
        s.put("GONE", Message::text("orphan").persistent(true).build()).unwrap();
        s.put("OUT", Message::text("out").persistent(true).build()).unwrap();
        qm.delete_queue("GONE").unwrap();
        s.commit().unwrap();
        assert_eq!(qm.stats().tx_committed.get(), 1);
        assert_eq!(payloads(&qm, "OUT"), ["out"]);
        assert_eq!(payloads(&qm, DEAD_LETTER_QUEUE), ["orphan"]);
        assert!(
            qm.queue("IN").unwrap().snapshot_persistent().is_empty(),
            "the get was finalized"
        );
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert_eq!(qm2.queue("IN").unwrap().depth(), 0);
        assert_eq!(payloads(&qm2, "OUT"), ["out"]);
        assert_eq!(payloads(&qm2, DEAD_LETTER_QUEUE), ["orphan"]);
    }

    #[test]
    fn dead_lettering_on_a_stopped_manager_puts_the_message_back() {
        let (_journal, qm) = manager();
        let q = qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("poison").persistent(true).build()).unwrap();
        let taken = q.try_take().unwrap().unwrap();
        qm.crash();
        assert!(matches!(
            qm.dead_letter(q.clone(), taken, "poison"),
            Err(MqError::ManagerStopped(_))
        ));
        assert_eq!(q.depth(), 1, "neither dead-lettered nor dropped");
        assert_eq!(q.browse()[0].redelivery_count(), 0);
    }

    #[test]
    fn a_get_does_not_wait_for_a_write_held_gate() {
        let (_journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("m").persistent(true).build())
            .unwrap();
        // A checkpoint in progress: the gate is write-held.
        let checkpoint = qm.mutation_gate.write();
        let (took, took_rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let qm = Arc::clone(&qm);
            move || {
                let mut s = qm.session();
                s.begin().unwrap();
                let got = s.get("Q", Wait::NoWait).unwrap();
                took.send(got.map(|m| m.payload_str().map(str::to_owned)))
                    .unwrap();
                s.commit().unwrap();
            }
        });
        let got = took_rx.recv_timeout(std::time::Duration::from_secs(3));
        assert_eq!(
            got,
            Ok(Some(Some("m".to_owned()))),
            "the take waited for the gate"
        );
        // The commit writes a record, so it waits for the checkpoint.
        drop(checkpoint);
        reader.join().unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 0);
        assert!(qm.queue("Q").unwrap().snapshot_persistent().is_empty());
    }

    #[test]
    fn a_delete_the_journal_refuses_leaves_the_queue_and_its_messages() {
        let (journal, qm) = manager();
        qm.create_queue("Q").unwrap();
        qm.put("Q", Message::text("kept").persistent(true).build())
            .unwrap();
        journal.set_failing(true);
        assert!(matches!(qm.delete_queue("Q"), Err(MqError::Io(_))));
        journal.set_failing(false);
        assert_eq!(qm.queue_names(), ["Q", DEAD_LETTER_QUEUE]);
        let kept: Vec<_> = qm.queue("Q").unwrap().browse();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].payload_str(), Some("kept"));
        qm.put("Q", Message::text("open").build()).unwrap();
        qm.delete_queue("Q").unwrap();
        assert!(!qm.queue_exists("Q"));
        qm.crash();
        let qm2 = QueueManager::builder("QM1")
            .journal(journal)
            .build()
            .unwrap();
        assert!(!qm2.queue_exists("Q"), "live state and the journal agree");
    }
}
