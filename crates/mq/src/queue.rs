//! A single message queue: priority bands, FIFO within priority, expiry,
//! browsing, and blocking consumption.
//!
//! The queue itself is an orchestration shell: all in-memory state lives
//! in a [`crate::store::MessageStore`] (id-keyed map, priority bands,
//! correlation-id index, expiry heap, pending transactional gets), while
//! this module owns statistics, clock access and blocking. A plain get
//! walks the priority bands; the one filtered read — a get or peek by
//! correlation id, narrowed by a predicate on the messages carrying it — is
//! a **point read** of the correlation index: O(messages with that id), not
//! O(depth). Either way the read returns the message delivery order
//! reaches first: highest priority, then FIFO.
//!
//! A take never waits for a checkpoint: it holds only the store lock. It
//! moves a message from live to pending and a rollback moves it back, and
//! a checkpoint snapshots both sets, so neither changes what it must see.
//! Only what writes a record takes the owning manager's mutation gate (see
//! [`crate::QueueManager`]).
//!
//! Queues are owned by a [`crate::QueueManager`]; applications obtain
//! `Arc<Queue>` handles via [`crate::QueueManager::queue`] for read-only
//! inspection (depth, browse, stats) and go through the manager or a
//! session for get/put. A queue never appends to the journal: a message
//! enters with [`Queue::put_committed`] and leaves as a pending get, both
//! under the one `TxCommit` record of the transaction they belong to
//! (`QueueManager::commit` in the session module). That is the only way
//! out: a message past its TTL is skipped by every take and leaves as a get
//! of the sweep's transaction ([`Queue::sweep_expired`]), exactly as a
//! purged one leaves as a get of the purge's. The one exception is a put
//! a claimant takes (`Queue::claim`, [`Queue::stand`]): handed to a
//! consumer parked in a get, or consumed by the queue's standing claimant,
//! it never enters the store, and neither it nor a get of it is journaled;
//! what the claimant's [`PickUp`] stages joins the putting record instead.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use simtime::{Millis, SharedClock, Time};

use crate::error::{MqError, MqResult};
use crate::message::{CorrelationKey, Message, MessageId};
use crate::qmgr::QueueManager;
use crate::session::{Session, TxState};
use crate::stats::{Counter, QueueStats};
use crate::store::{MessageStore, PRIORITY_BANDS};

/// How long a consumer is willing to wait for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Return immediately if no matching message is available.
    NoWait,
    /// Wait up to the given duration of queue-manager clock time.
    Timeout(Millis),
    /// Wait until a message arrives or the queue closes.
    Forever,
}

/// Per-queue configuration.
#[derive(Debug, Clone, Default)]
pub struct QueueConfig {
    /// Maximum queue depth; puts beyond it fail with [`MqError::QueueFull`].
    pub max_depth: Option<usize>,
}

/// Callback invoked (outside the queue lock and the mutation gate) after a
/// put to the queue has committed, once per put. Watchers observe arrivals,
/// not residency: on a queue with a standing claimant they fire once per
/// committed transaction that addressed a message to it, even though the
/// claimant consumed what arrived.
pub type PutWatcher = Arc<dyn Fn() + Send + Sync>;

/// A consumer whose work rides the record of the puts it takes (Gray,
/// *Queues Are Databases*: a row inserted and consumed at once need never
/// be stored, and what consumes it belongs in the inserting transaction).
/// A commit offers it puts instead of queueing them: all the puts its
/// transaction stages for the queue, when it is the queue's *standing*
/// claimant ([`Queue::stand`]; the evaluation manager is one on
/// `DS.ACK.Q`), or the first of them in delivery order that a consumer
/// parked in a get would take, when it is that get's pick-up
/// ([`Session::get_picking_up`]).
pub trait PickUp: Send + Sync {
    /// Stages what consuming `taken` commits into `tx`, a transaction of
    /// its own whose puts and gets join the putting record, on the
    /// committing thread before the mutation gate is taken. It must leave
    /// `tx` open; nothing it stages is offered to a standing claimant.
    ///
    /// `Some(fate)` consumes `taken`. The commit calls `fate` exactly once,
    /// outside the gate and before any handoff or watcher of the
    /// transaction: with `true` once the record is written and applied,
    /// with `false` when it was refused, and then what the claimant staged
    /// is undone (its gets return without spending backout budget) and
    /// the committer gets its transaction back as it staged it. Locks the
    /// claimant took to stage live in `fate`, so they are never held while
    /// a watcher runs. `None` declines: what it staged is undone the same
    /// way and `taken` is queued, as if nobody waited.
    fn stage<'a>(&'a self, taken: &[&Message], tx: &mut Session) -> Option<Fate<'a>>;
}

/// How a commit tells a [`PickUp`] what became of the record it staged
/// into; see [`PickUp::stage`].
pub type Fate<'a> = Box<dyn FnOnce(bool) + 'a>;

/// What a claim of a getter stages into the putting transaction: its
/// pick-up, or nothing for a bare get.
pub(crate) type Stage = Option<Arc<dyn PickUp>>;

/// What a take got: a message off the queue, or one a commit handed it.
#[derive(Debug)]
pub enum Taken {
    /// Off the queue: a get its transaction's record covers.
    Queued(Message),
    /// Handed over by the commit that staged it: the record that would
    /// have put it consumed it, with the taker's pick-up if it had one, so
    /// the taker's transaction holds nothing of it.
    Handed(Message),
}

impl Taken {
    /// The message, however it was taken.
    pub fn into_message(self) -> Message {
        match self {
            Taken::Queued(msg) | Taken::Handed(msg) => msg,
        }
    }
}

/// A consumer registered so a commit can hand it a put instead of queueing
/// it: a get parked outside a transaction, whose claim stages nothing, or
/// the first get of one with a [`PickUp`].
pub(crate) struct Getter {
    token: u64,
    select: Select,
    pick_up: Stage,
    claim: Claim,
}

/// What a getter takes: the first message in delivery order, or the
/// first carrying a correlation id.
enum Select {
    Any,
    Value(u128),
    Text(Box<str>),
}

impl Select {
    fn of(key: CorrelationKey<'_>) -> Select {
        match key {
            CorrelationKey::Value(value) => Select::Value(value),
            CorrelationKey::Text(text) => Select::Text(text.into()),
        }
    }

    fn key(&self) -> Option<CorrelationKey<'_>> {
        match self {
            Select::Any => None,
            Select::Value(value) => Some(CorrelationKey::Value(*value)),
            Select::Text(text) => Some(CorrelationKey::Text(text)),
        }
    }

    fn matches(&self, msg: &Message) -> bool {
        match self {
            Select::Any => true,
            Select::Value(value) => msg.correlation_u128() == Some(*value),
            Select::Text(text) => msg.correlation_id() == Some(&**text),
        }
    }
}

/// Where a getter stands with the commits.
enum Claim {
    /// Waiting, free to be claimed or to take from the queue.
    Open,
    /// Claimed by a commit whose record is being written: the getter
    /// waits for the outcome, whatever its timeout.
    Claimed,
    /// The record is written: the message is the getter's.
    Handed(Message),
}

/// A named message queue.
pub struct Queue {
    /// Shared with every journal record that names the queue.
    name: Arc<str>,
    clock: SharedClock,
    config: QueueConfig,
    /// Released before anything is journaled: a take leaves a pending get
    /// behind and the commit appends with no queue lock held.
    // lint: never-hold(Queue.store) across append
    store: Mutex<MessageStore>,
    available: Condvar,
    /// Consumers parked on `available`. Moved only under the store lock,
    /// around the wait: a waker that reads it after unlocking the store it
    /// changed sees every consumer that found the store unchanged, so
    /// skipping the wake when it reads 0 loses none. The store lock orders
    /// those accesses, so they are `Relaxed`: the count publishes nothing.
    parked: AtomicUsize,
    stats: QueueStats,
    /// Observers notified after each put; see [`Queue::add_put_watcher`].
    /// Replaced whole when one is added, so a notification takes a
    /// reference to the list, not a copy of it.
    put_watchers: Mutex<Arc<Vec<PutWatcher>>>,
    /// The consumer of every put a transaction stages here, if one is
    /// installed; see [`Queue::stand`].
    standing: RwLock<Option<Weak<dyn PickUp>>>,
    /// The owning manager and this queue's own handle: a purge or a sweep
    /// commits through the one and records its gets against the other.
    manager: Weak<QueueManager>,
    me: Weak<Queue>,
}

impl fmt::Debug for Queue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Queue")
            .field("name", &self.name)
            .field("depth", &self.depth())
            .finish()
    }
}

impl Queue {
    /// Builds a queue of `manager`: on its clock and journal, with stats
    /// cells registered under `mq.queue.<name>.*`.
    pub(crate) fn owned_by(
        manager: &QueueManager,
        name: String,
        config: QueueConfig,
    ) -> Arc<Queue> {
        Arc::new_cyclic(|me| Queue {
            stats: QueueStats::registered(manager.obs().metrics(), &name),
            name: name.into(),
            clock: manager.clock().clone(),
            store: Mutex::new(MessageStore::new()),
            config,
            available: Condvar::new(),
            parked: AtomicUsize::new(0),
            put_watchers: Mutex::default(),
            standing: RwLock::new(None),
            manager: manager.me.clone(),
            me: me.clone(),
        })
    }

    /// The queue's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The queue's name, shared: what a journal record names it by.
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Current number of messages on the queue.
    pub fn depth(&self) -> usize {
        self.store.lock().len()
    }

    /// Messages on the queue plus those taken off it that no record
    /// covers yet: a persistent message stays counted from its take until
    /// a record covers its get or a rollback puts it back, and a
    /// non-persistent one leaves the count at its take.
    pub fn held(&self) -> usize {
        let store = self.store.lock();
        store.len() + store.pending_len()
    }

    /// Consumers parked in a get outside a transaction, each of which a
    /// commit may hand a put it stages instead of queueing it.
    pub fn waiting_getters(&self) -> usize {
        self.store.lock().getters.len()
    }

    /// Whether the queue currently holds no messages. A cheap peek so idle
    /// wakeups (e.g. the ack drain) can skip opening a session — and its
    /// journal bookkeeping — entirely.
    pub fn is_empty(&self) -> bool {
        self.store.lock().is_empty()
    }

    /// Registers a callback to run after every put (visible enqueue),
    /// outside the queue lock and on the putting thread. Watchers must not
    /// put to this same queue (that would recurse).
    pub fn add_put_watcher(&self, watcher: PutWatcher) {
        let mut registered = self.put_watchers.lock();
        let mut watchers = Vec::clone(&registered);
        watchers.push(watcher);
        *registered = Arc::new(watchers);
    }

    pub(crate) fn notify_put_watchers(&self) {
        let watchers = Arc::clone(&self.put_watchers.lock());
        for w in watchers.iter() {
            w();
        }
    }

    /// Installs `claimant` as the queue's one standing claimant, in place
    /// of any other: a getter that never leaves, offered every put a
    /// transaction stages here ([`PickUp::stage`]). Held weakly: once it is
    /// dropped, arrivals are queued again.
    pub fn stand(&self, claimant: Weak<dyn PickUp>) {
        *self.standing.write() = Some(claimant);
    }

    /// The queue's standing claimant, if one is installed and alive.
    pub(crate) fn standing(&self) -> Option<Arc<dyn PickUp>> {
        self.standing.read().as_ref()?.upgrade()
    }

    /// Blocks until the queue is non-empty, per `wait`, without consuming,
    /// or until `stop` reads true: it is read under the store lock, and
    /// whoever makes it true wakes the queue ([`Queue::wake`]). Returns
    /// `true` when a message is available at return. Channel movers and
    /// listeners park here (on the queue's condvar) instead of sleeping a
    /// fixed poll interval.
    ///
    /// # Errors
    ///
    /// [`MqError::ManagerStopped`] if the queue closes while waiting.
    pub(crate) fn wait_nonempty(&self, wait: Wait, stop: impl Fn() -> bool) -> MqResult<bool> {
        let mut found = false;
        let how = Park { stop: Some(&stop), ..Park::default() };
        self.park(wait, how, |store, _| {
            found = !store.is_empty();
            found
        })?;
        Ok(found)
    }

    /// The one park loop of every blocking read: runs `attempt` until it
    /// finds what it reads, `wait` runs out, the queue closes or `how`'s
    /// stop flag is set. The store lock is held from each attempt to the
    /// condvar wait after it, so an insert, a claim, a close or a stop
    /// that the attempt missed comes after it and wakes it. A timed wait
    /// arms one timer at its deadline on the queue's clock, which wakes it
    /// there, and cancels it on return.
    ///
    /// A getter (`how.getter`: a get outside a transaction, or one with a
    /// pick-up) that found nothing registers, so that a commit can claim
    /// it for a put it stages ([`Queue::claim`]); the message handed to it
    /// is what this returns. A claimed getter waits for the record
    /// whatever its `wait` and the queue's state: the commit hands it the
    /// message once the record is written ([`Queue::hand`]) or, refused,
    /// gives it back to its wait ([`Queue::unclaim`]), at once either way.
    fn park(
        &self,
        wait: Wait,
        mut how: Park<'_>,
        mut attempt: impl FnMut(&mut MessageStore, Time) -> bool,
    ) -> MqResult<Option<Message>> {
        let deadline = match wait {
            Wait::NoWait => Some(Time::ZERO),
            Wait::Timeout(t) => Some(self.clock.now() + t),
            Wait::Forever => None,
        };
        let (mut registered, mut timer, mut swept) = (None, None, false);
        let ended = loop {
            let mut store = self.store.lock();
            // Read under the lock: a timer's wake takes it after moving the
            // clock, so a fire before this read is seen here, and one after
            // it finds the consumer parked.
            let now = self.clock.now();
            if let Some(at) = registered.and_then(|token| getter_at(&store, token)) {
                match store.getters[at].claim {
                    Claim::Open => {}
                    Claim::Claimed => {
                        self.wait_parked(&mut store);
                        continue;
                    }
                    Claim::Handed(_) => {
                        if let Claim::Handed(msg) = store.getters.remove(at).claim {
                            break Ok(Some(msg));
                        }
                    }
                }
            }
            let stopped = how.stop.is_some_and(|stop| stop());
            let ended = match self.check_open(&store) {
                Err(e) => Some(Err(e)),
                Ok(()) if stopped => Some(Ok(None)),
                // Messages past their TTL are none of a take's business:
                // it skips them, and they are swept first, by a
                // transaction of its own run with the lock released. A
                // refused sweep leaves them where they are.
                Ok(()) if how.sweep && !swept && store.has_ripe(now) => {
                    drop(store);
                    self.sweep_expired().unwrap_or(0);
                    swept = true;
                    continue;
                }
                Ok(()) if attempt(&mut store, now) => Some(Ok(None)),
                Ok(()) if deadline.is_some_and(|d| now >= d) => Some(Ok(None)),
                Ok(()) => None,
            };
            if let Some(ended) = ended {
                if let Some(at) = registered.and_then(|token| getter_at(&store, token)) {
                    store.getters.remove(at);
                }
                break ended;
            }
            if let Some((select, pick_up)) = how.getter.take() {
                let token = store.next_getter;
                store.next_getter += 1;
                store.getters.push(Getter { token, select, pick_up, claim: Claim::Open });
                registered = Some(token);
            }
            if let (None, Some(d)) = (timer, deadline) {
                let me = self.me.clone();
                let wake = move || {
                    if let Some(queue) = me.upgrade() {
                        queue.wake();
                    }
                };
                timer = Some(self.clock.schedule_at(d, Box::new(wake)));
                // An advance that passed `d` before the timer was in its
                // heap has not fired it: look again.
                if self.clock.now() >= d {
                    continue;
                }
            }
            swept = false;
            self.wait_parked(&mut store);
        };
        if let Some(timer) = timer {
            self.clock.cancel(timer);
        }
        ended
    }

    /// Parks on the condvar, counted in `parked`, with the store lock
    /// released meanwhile.
    fn wait_parked(&self, store: &mut MutexGuard<'_, MessageStore>) {
        self.parked.fetch_add(1, Ordering::Relaxed);
        self.available.wait(store);
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// Wakes every consumer parked on the queue: what a timed wait's timer
    /// and a daemon's stop do. The store lock orders it after a consumer's
    /// look at the clock or its stop flag.
    pub(crate) fn wake(&self) {
        drop(self.store.lock());
        self.available.notify_all();
    }

    /// Claims, for `msg` about to be written by a commit's record, the
    /// oldest getter parked on this queue that it would satisfy: the put
    /// then leaves the record and is handed over once the record is
    /// written, and the getter's pick-up, returned with its token, is the
    /// caller's to stage. `Ok(None)` when no getter waits for it, when the
    /// queue already holds what that getter would take first, or when
    /// `msg` is past its TTL at `now`. `Err` when the queue is closed:
    /// deleted, or its manager crashed.
    pub(crate) fn claim(&self, msg: &Message, now: Time) -> Result<Option<(u64, Stage)>, ()> {
        let mut store = self.store.lock();
        if !store.open {
            return Err(());
        }
        if store.getters.is_empty() || msg.is_expired(now) {
            return Ok(None);
        }
        let open = |g: &Getter| matches!(g.claim, Claim::Open) && g.select.matches(msg);
        let Some(at) = store.getters.iter().position(open) else {
            return Ok(None);
        };
        let getter = &store.getters[at];
        let queued = match getter.select.key() {
            None => !store.is_empty(),
            Some(key) => store.first_correlated(key, now, |_| true).is_some(),
        };
        if queued {
            return Ok(None);
        }
        let getter = &mut store.getters[at];
        getter.claim = Claim::Claimed;
        Ok(Some((getter.token, getter.pick_up.clone())))
    }

    /// Gives a getter [`Queue::claim`] took back to its wait: the record
    /// was refused.
    pub(crate) fn unclaim(&self, getter: u64) {
        let mut store = self.store.lock();
        if let Some(at) = getter_at(&store, getter) {
            store.getters[at].claim = Claim::Open;
        }
        drop(store);
        self.wake_consumers();
    }

    /// Hands `msg` to the getter claimed for it, once the record that
    /// consumed it is written: one enqueue and one dequeue of the queue.
    /// The caller runs the put watchers. A claimed getter waits for this,
    /// so it is there.
    // lint: custody(msg)
    pub(crate) fn hand(&self, getter: u64, msg: Message) {
        let mut store = self.store.lock();
        match getter_at(&store, getter) {
            Some(at) => {
                store.getters[at].claim = Claim::Handed(msg);
                self.stats.enqueued.incr();
                self.stats.dequeued.incr();
            }
            None => self.insert(&mut store, msg, false),
        }
        drop(store);
        self.wake_consumers();
    }

    /// The queue's statistics counters.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Snapshots all non-expired messages without consuming them, in
    /// delivery order (priority, then FIFO). The returned handles share the
    /// queue's storage — browsing never deep-copies payloads.
    pub fn browse(&self) -> Vec<Arc<Message>> {
        let now = self.clock.now();
        let mut store = self.store.lock();
        self.stats.browses.incr();
        let mut out = Vec::new();
        for band_idx in (0..PRIORITY_BANDS).rev() {
            // Drop stale ids while browsing; collect live matches.
            let ids: Vec<MessageId> = store.bands[band_idx].iter().copied().collect();
            let mut live = VecDeque::with_capacity(ids.len());
            for id in ids {
                let Some(entry) = store.get(id) else {
                    continue;
                };
                live.push_back(id);
                if !entry.msg.is_expired(now) {
                    out.push(Arc::clone(&entry.msg));
                }
            }
            store.bands[band_idx] = live;
        }
        out
    }

    // ------------------------------------------------------------ puts --

    /// Returns a message to the *front* of its priority band after a
    /// transaction rollback. Never journaled: the record that put it there
    /// still covers it, and the insert clears the pending-get entry
    /// the provisional consumption left behind. `bump` increments the
    /// redelivery count — false for infrastructure retries (channel movers)
    /// that must not consume the application's backout budget.
    // lint: custody(msg)
    pub(crate) fn requeue_front(&self, mut msg: Message, bump: bool) {
        if bump {
            msg.bump_redelivery();
            self.stats.redelivered.incr();
        }
        // A refused sweep returns messages nobody can take: waking the
        // consumers for those would have each of them sweep again.
        let deliverable = !msg.is_expired(self.clock.now());
        let mut store = self.store.lock();
        self.insert(&mut store, msg, true);
        drop(store);
        if deliverable {
            self.wake_consumers();
        }
    }

    /// Re-inserts a message during journal replay (no journaling), with
    /// the enqueue stamp and expiry its record carries.
    // lint: custody(msg)
    pub(crate) fn restore(&self, msg: Message) {
        let mut store = self.store.lock();
        self.insert(&mut store, msg, false);
    }

    /// Enqueues a stamped message whose durability is covered by the
    /// `TxCommit` record of its transaction — the only way in. Bypasses the
    /// depth limit: the put was checked against it at stage time
    /// ([`Queue::check_room`]) and must not fail mid-commit. The caller
    /// must read-hold the mutation gate around the covering append and
    /// this insert, then call [`Queue::notify_arrival`] after releasing it
    /// — watchers must never run under the gate.
    ///
    /// # Errors
    ///
    /// The message comes back when the queue has closed.
    // lint: custody(msg, err-reverts)
    #[allow(clippy::result_large_err)] // the error *is* the message, handed back
    pub(crate) fn put_committed(&self, msg: Message) -> Result<(), Message> {
        let mut store = self.store.lock();
        if !store.open {
            return Err(msg);
        }
        self.insert(&mut store, msg, false);
        Ok(())
    }

    /// Wakes the parked consumers — all of them: they wait for different
    /// things (any message, or one correlation id), and the one woken alone
    /// may not be the one that can take what arrived — and runs the put
    /// watchers. Pairs with [`Queue::put_committed`] once the caller has
    /// released the gate.
    pub(crate) fn notify_arrival(&self) {
        self.wake_consumers();
        self.notify_put_watchers();
    }

    /// Wakes every parked consumer, if one is: called with the store lock
    /// released, after a change made under it.
    fn wake_consumers(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.available.notify_all();
        }
    }

    /// Removes a specific message by id: journal replay applying a get.
    pub(crate) fn remove_by_id(&self, id: MessageId) -> Option<Message> {
        let mut store = self.store.lock();
        let msg = store.detach(id)?;
        self.stats.depth.set(store.len() as u64);
        Some(msg)
    }

    /// Drops the pending-get entry of a consumed message once the
    /// `TxCommit` record covering the get is durable. The caller holds the
    /// mutation gate.
    pub(crate) fn finalize_pending(&self, id: MessageId) {
        self.store.lock().finalize_pending(id);
    }

    /// Live persistent messages in delivery order plus persistent pending
    /// transactional gets — the set a checkpoint snapshot re-journals.
    pub(crate) fn snapshot_persistent(&self) -> Vec<Arc<Message>> {
        self.store.lock().snapshot_persistent()
    }

    // lint: custody(msg)
    fn insert(&self, store: &mut MessageStore, msg: Message, front: bool) {
        store.insert(msg, front);
        self.stats.enqueued.incr();
        self.stats.depth.set(store.len() as u64);
    }

    fn check_open(&self, store: &MessageStore) -> MqResult<()> {
        if store.open {
            Ok(())
        } else {
            Err(MqError::ManagerStopped(self.name.to_string()))
        }
    }

    /// The depth check of a put, made when it is staged: is there room for
    /// one more message on top of the live depth and the `staged` puts its
    /// transaction already holds for this queue?
    pub(crate) fn check_room(&self, staged: impl FnOnce() -> usize) -> MqResult<()> {
        match self.config.max_depth {
            Some(max) if self.depth() + staged() >= max => {
                Err(MqError::QueueFull(self.name.to_string()))
            }
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------ gets --

    /// Removes and returns the first message in delivery order, waiting
    /// per `wait`. Like every take, the get is provisional: covered later by
    /// its transaction's `TxCommit` record, or undone by rollback. A
    /// `claimable` get, one outside a transaction or with a pick-up, may
    /// instead be handed a put while it waits ([`Queue::park`]).
    pub(crate) fn take_blocking(
        &self,
        wait: Wait,
        claimable: Option<Stage>,
    ) -> MqResult<Option<Taken>> {
        let getter = claimable.map(|pick_up| (Select::Any, pick_up));
        self.take_parked(wait, getter, |store, now| self.take_first(store, now))
    }

    /// Removes and returns the first message in delivery order with the
    /// given correlation id that `accept` takes, waiting per `wait`: a
    /// point read of the correlation index (O(matches), not O(depth)). A
    /// `bare` get takes any message carrying the id: its `accept` takes
    /// every one.
    pub(crate) fn take_by_correlation_blocking(
        &self,
        correlation: CorrelationKey<'_>,
        accept: impl Fn(&Message) -> bool,
        wait: Wait,
        bare: bool,
    ) -> MqResult<Option<Taken>> {
        let getter = bare.then(|| (Select::of(correlation), None));
        self.take_parked(wait, getter, |store, now| {
            let id = store.first_correlated(correlation, now, &accept)?;
            self.consume_locked(store, id)
        })
    }

    /// A take parked per `wait`: `getter` is the selector and pick-up a
    /// claimable get registers with.
    fn take_parked(
        &self,
        wait: Wait,
        getter: Option<(Select, Stage)>,
        take: impl Fn(&mut MessageStore, Time) -> Option<Message>,
    ) -> MqResult<Option<Taken>> {
        let mut taken = None;
        let how = Park { sweep: true, getter, ..Park::default() };
        let handed = self.park(wait, how, |store, now| {
            taken = take(store, now);
            taken.is_some()
        })?;
        Ok(handed.map(Taken::Handed).or(taken.map(Taken::Queued)))
    }

    /// The message a get by `correlation` would take, left on the queue,
    /// waiting per `wait` for one to arrive.
    ///
    /// # Errors
    ///
    /// [`MqError::ManagerStopped`] if the queue closes while waiting.
    pub fn peek_by_correlation<'a>(
        &self,
        correlation: impl Into<CorrelationKey<'a>>,
        wait: Wait,
    ) -> MqResult<Option<Arc<Message>>> {
        let correlation = correlation.into();
        let mut peeked = None;
        self.park(wait, Park::default(), |store, now| {
            let id = store.first_correlated(correlation, now, |_| true);
            peeked = id.and_then(|id| store.get(id)).map(|entry| Arc::clone(&entry.msg));
            peeked.is_some()
        })?;
        Ok(peeked)
    }

    /// The messages that have entered the queue so far, put on it or
    /// handed to a getter parked on it ([`QueueStats::enqueued`]), read
    /// under the store lock: whatever the putting commit did before it is
    /// visible to the reader.
    pub fn enqueued(&self) -> u64 {
        let _store = self.store.lock();
        self.stats.enqueued.get()
    }

    /// Waits per `wait` until a message enters the queue after `since`, an
    /// [`Queue::enqueued`] count read earlier: put on it, or handed to a
    /// getter parked on it, which a peek never sees. Whether one did. A
    /// caller waiting for a condition that a put makes true reads `since`
    /// before it checks the condition, so a put between its check and this
    /// wait is not missed.
    ///
    /// # Errors
    ///
    /// [`MqError::ManagerStopped`] if the queue closes while waiting.
    pub fn wait_enqueued(&self, since: u64, wait: Wait) -> MqResult<bool> {
        let mut entered = false;
        self.park(wait, Park::default(), |_, _| {
            entered = self.stats.enqueued.get() != since;
            entered
        })?;
        Ok(entered)
    }

    #[cfg(test)]
    pub(crate) fn try_take(&self) -> MqResult<Option<Message>> {
        Ok(self.take_blocking(Wait::NoWait, None)?.map(Taken::into_message))
    }

    #[cfg(test)]
    pub(crate) fn try_take_by_correlation(
        &self,
        correlation: &str,
        accept: impl Fn(&Message) -> bool,
    ) -> MqResult<Option<Message>> {
        let taken =
            self.take_by_correlation_blocking(correlation.into(), accept, Wait::NoWait, false)?;
        Ok(taken.map(Taken::into_message))
    }

    /// Consumers parked on the queue's condvar right now.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    fn take_first(&self, store: &mut MessageStore, now: Time) -> Option<Message> {
        for band_idx in (0..PRIORITY_BANDS).rev() {
            let mut i = 0;
            while i < store.bands[band_idx].len() {
                let id = store.bands[band_idx][i];
                let Some(entry) = store.get(id) else {
                    // Stale id: message removed through another path.
                    store.bands[band_idx].remove(i);
                    continue; // same index now holds the next entry
                };
                if !entry.msg.is_expired(now) {
                    store.bands[band_idx].remove(i);
                    return self.consume_locked(store, id);
                }
                i += 1;
            }
        }
        None
    }

    /// Detaches a live message. A get is pending until its record is
    /// durable: a message the journal holds stays in the pending-get table,
    /// invisible to reads but still owed to checkpoints, until
    /// [`Queue::finalize_pending`] or a rollback's reinsert. `None` when
    /// `id` is no longer live.
    fn detach_locked(&self, store: &mut MessageStore, id: MessageId) -> Option<Message> {
        let journaled = store.get(id)?.msg.is_persistent();
        let msg = if journaled {
            store.detach_pending(id)
        } else {
            store.detach(id)
        }?;
        self.stats.depth.set(store.len() as u64);
        Some(msg)
    }

    /// Detaches a live message as one consumed delivery.
    fn consume_locked(&self, store: &mut MessageStore, id: MessageId) -> Option<Message> {
        let msg = self.detach_locked(store, id)?;
        self.stats.dequeued.incr();
        Some(msg)
    }

    /// Takes the messages `pick` names off the queue as the gets of one
    /// transaction and commits it: one `TxCommit` record removes them all,
    /// and when the journal refuses it every one is back on the queue,
    /// redelivery count untouched. Returns how many left, counted in
    /// `counted` once the record is written. The commit is the manager's
    /// bare one: no checkpoint follows it, since a checkpoint starts with a
    /// sweep.
    fn discard(
        &self,
        counted: &Counter,
        pick: impl FnOnce(&mut MessageStore) -> Vec<MessageId>,
    ) -> MqResult<usize> {
        let (Some(manager), Some(this)) = (self.manager.upgrade(), self.me.upgrade()) else {
            return Err(MqError::ManagerStopped(self.name.to_string()));
        };
        let mut tx = TxState::default();
        let mut n = 0;
        {
            let mut store = self.store.lock();
            self.check_open(&store)?;
            for id in pick(&mut store) {
                if let Some(msg) = self.detach_locked(&mut store, id) {
                    tx.took(this.clone(), msg);
                    n += 1;
                }
            }
        }
        if n > 0 {
            manager.settle(tx)?;
            counted.add(n as u64);
        }
        Ok(n)
    }

    /// Discards every message whose TTL has passed, driven by the expiry
    /// heap — O(expired · log depth), not O(depth) — as the gets of one
    /// transaction. Returns how many were expired.
    /// Checkpoints run this first so a snapshot carries no ripe messages.
    pub fn sweep_expired(&self) -> MqResult<usize> {
        let now = self.clock.now();
        self.discard(&self.stats.expired, |store| {
            let mut ripe = store.ripe_expired(now);
            ripe.retain(|id| store.get(*id).is_some_and(|e| e.msg.is_expired(now)));
            ripe
        })
    }

    /// Discards all messages, expired and live alike, as the gets of one
    /// transaction; returns how many were removed.
    pub fn purge(&self) -> MqResult<usize> {
        self.discard(&self.stats.dequeued, |store| {
            let ids = store.bands.iter().rev().flatten().copied().collect();
            for band in store.bands.iter_mut() {
                band.clear();
            }
            ids
        })
    }

    /// Closes the queue, waking all blocked consumers with an error.
    pub(crate) fn close(&self) {
        self.store.lock().open = false;
        self.wake_consumers();
    }
}

/// How a read parks: see [`Queue::park`].
#[derive(Default)]
struct Park<'a> {
    /// A take: messages past their TTL are swept before it looks.
    sweep: bool,
    /// A claimable get, registered while it waits under this selector,
    /// with what its claim stages.
    getter: Option<(Select, Stage)>,
    /// When a daemon stops waiting, read under the store lock.
    stop: Option<&'a dyn Fn() -> bool>,
}

/// Where the registered getter `token` sits: a getter leaves the list only
/// by its own hand, so it is there while its get runs.
fn getter_at(store: &MessageStore, token: u64) -> Option<usize> {
    store.getters.iter().position(|g| g.token == token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::wait_for;
    use crate::journal::{Journal, JournalRecord, MemJournal};
    use crate::message::Priority;
    use simtime::{SimClock, SystemClock};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// A queue of a manager built for it, which lives as long as the test
    /// process: a sweep and a purge commit through their owner.
    fn new_queue(
        name: String,
        clock: SharedClock,
        journal: Arc<MemJournal>,
        config: QueueConfig,
    ) -> Arc<Queue> {
        let manager = QueueManager::builder("TEST.QM")
            .clock(clock)
            .journal(journal)
            .build()
            .unwrap();
        let queue = manager.create_queue_with(name, config).unwrap();
        std::mem::forget(manager);
        queue
    }

    fn queue_with(clock: SharedClock) -> Arc<Queue> {
        new_queue(
            "TEST.Q".into(),
            clock,
            MemJournal::new(),
            QueueConfig::default(),
        )
    }

    fn sim_queue() -> (Arc<SimClock>, Arc<Queue>) {
        let clock = SimClock::new();
        let q = queue_with(clock.clone());
        (clock, q)
    }

    fn text(s: &str) -> Message {
        Message::text(s).build()
    }

    /// A get inside a transaction, of the message itself.
    fn take(q: &Queue, wait: Wait) -> MqResult<Option<Message>> {
        Ok(q.take_blocking(wait, None)?.map(Taken::into_message))
    }

    /// What a committed put does to its queue.
    fn put(q: &Queue, mut msg: Message) -> MqResult<()> {
        msg.stamp_enqueue(q.clock.now());
        q.put_committed(msg)
            .map_err(|_| MqError::ManagerStopped(q.name().to_owned()))?;
        q.notify_arrival();
        Ok(())
    }

    /// Runs `read`, a wait of 1 000 ms of clock time, on a fresh queue on a
    /// simulated clock three times: ended by an arrival, by its deadline
    /// and by a close. Each time it holds exactly one clock timer while it
    /// is parked and none once it has returned.
    fn one_timer_while_parked(read: impl Fn(&Queue) -> MqResult<bool> + Sync) {
        for end in ["arrival", "deadline", "close"] {
            let (clock, q) = sim_queue();
            assert_eq!(clock.pending_timers(), 0);
            std::thread::scope(|s| {
                let reader = s.spawn(|| read(&q));
                wait_for("parked", || q.parked() == 1);
                assert_eq!(clock.pending_timers(), 1, "parked, ended by {end}");
                let got = match end {
                    "arrival" => {
                        put(&q, Message::text("m").correlation_id("x").build()).unwrap();
                        reader.join().unwrap().unwrap()
                    }
                    "deadline" => {
                        clock.advance(Millis(999));
                        assert!(!reader.is_finished(), "a ms short of its deadline");
                        clock.advance(Millis(1));
                        !reader.join().unwrap().unwrap()
                    }
                    _ => {
                        q.close();
                        reader.join().unwrap().is_err()
                    }
                };
                assert!(got, "ended by {end}");
            });
            assert_eq!(clock.pending_timers(), 0, "returned, ended by {end}");
        }
    }

    #[test]
    fn a_timed_read_holds_one_clock_timer_while_parked_and_none_once_it_returns() {
        let wait = Wait::Timeout(Millis(1_000));
        one_timer_while_parked(|q| Ok(take(q, wait)?.is_some()));
        one_timer_while_parked(|q| Ok(q.peek_by_correlation("x", wait)?.is_some()));
        one_timer_while_parked(|q| q.wait_nonempty(wait, || false));
    }

    /// A bare get parked with a timeout holds one clock timer until a put
    /// is handed to it, also when the record of the first put it was
    /// claimed for is refused.
    #[test]
    fn a_bare_get_holds_one_clock_timer_until_it_is_handed_a_put() {
        for refused_first in [false, true] {
            let clock = SimClock::new();
            let journal = MemJournal::new();
            let qm = QueueManager::builder("TEST.QM")
                .clock(clock.clone())
                .journal(journal.clone())
                .build()
                .unwrap();
            let q = qm.create_queue("Q").unwrap();
            assert_eq!(clock.pending_timers(), 0);
            std::thread::scope(|s| {
                let getter = s.spawn(|| qm.get("Q", Wait::Timeout(Millis(1_000))));
                wait_for("registered and parked", || q.waiting_getters() == 1 && q.parked() == 1);
                assert_eq!(clock.pending_timers(), 1);
                let persistent = || Message::text("m").persistent(true).build();
                if refused_first {
                    // A record with a put to another queue in it: a put
                    // handed over alone is written nowhere.
                    qm.create_queue("OUT").unwrap();
                    let mut tx = qm.session();
                    tx.begin().unwrap();
                    tx.put("OUT", persistent()).unwrap();
                    tx.put("Q", persistent()).unwrap();
                    journal.set_failing(true);
                    assert!(tx.commit().is_err());
                    tx.rollback().unwrap();
                    journal.set_failing(false);
                    wait_for("parked again", || q.parked() == 1);
                    assert!(!getter.is_finished(), "handed nothing");
                    assert_eq!(clock.pending_timers(), 1, "the same timer");
                }
                qm.put("Q", persistent()).unwrap();
                let got = getter.join().unwrap().unwrap();
                assert_eq!(got.unwrap().payload_str(), Some("m"));
            });
            assert_eq!(qm.metrics_snapshot().counter("mq.tx.handed"), 1);
            assert_eq!(clock.pending_timers(), 0, "refused first: {refused_first}");
        }
    }

    /// A wait that arms its timer while another thread advances the clock
    /// to its deadline returns in that advance, however the two interleave:
    /// it reads the clock again once the timer is armed, and the advance
    /// fires a timer armed between its last pop and its final time bump.
    #[test]
    fn a_timer_armed_during_an_advance_past_its_deadline_is_not_missed() {
        let (clock, q) = sim_queue();
        for round in 0..300 {
            let (looked, seen) = std::sync::mpsc::channel();
            let q = q.clone();
            let waiter = std::thread::spawn(move || {
                let mut first = true;
                // The attempt runs after the deadline is fixed: the
                // advance below races the arming that follows it.
                q.park(Wait::Timeout(Millis(1)), Park::default(), |_, _| {
                    if std::mem::take(&mut first) {
                        looked.send(()).unwrap();
                    }
                    false
                })
            });
            seen.recv().unwrap();
            clock.advance(Millis(1));
            wait_for(&format!("round {round} returns in its advance"), || waiter.is_finished());
            assert!(waiter.join().unwrap().unwrap().is_none());
        }
        assert_eq!(clock.pending_timers(), 0);
    }

    /// A timed wait that an arrival it does not take sends round its loop
    /// again, while another thread advances the clock past its deadline,
    /// still returns in that advance: it reads the clock under the store
    /// lock, which the timer's wake takes once the clock has moved.
    #[test]
    fn a_timed_wait_woken_by_another_arrival_during_the_advance_is_not_missed() {
        let (clock, q) = sim_queue();
        for round in 0..300 {
            let reader = q.clone();
            let waiter = std::thread::spawn(move || {
                reader.peek_by_correlation("x", Wait::Timeout(Millis(1)))
            });
            wait_for("parked", || q.parked() == 1);
            let (advanced, puts) = (AtomicBool::new(false), AtomicUsize::new(0));
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !advanced.load(Ordering::SeqCst) {
                        put(&q, Message::text("other").correlation_id("y").build()).unwrap();
                        q.try_take_by_correlation("y", |_| true).unwrap().unwrap();
                        puts.fetch_add(1, Ordering::SeqCst);
                    }
                });
                // Into the stream of wakes, a little further each round.
                while puts.load(Ordering::SeqCst) <= round % 8 {
                    std::hint::spin_loop();
                }
                clock.advance(Millis(1));
                advanced.store(true, Ordering::SeqCst);
            });
            wait_for(&format!("round {round} returns in its advance"), || waiter.is_finished());
            assert!(waiter.join().unwrap().unwrap().is_none());
        }
        assert_eq!(clock.pending_timers(), 0);
    }

    /// The store lock is held from a park's attempt to its wait: a thread
    /// that takes the lock after the attempt finds the consumer parked,
    /// so the wake of whatever it changes reaches it.
    #[test]
    fn no_lock_is_taken_between_an_attempt_and_its_wait() {
        let (_clock, q) = sim_queue();
        for round in 0..200 {
            let looked = AtomicBool::new(false);
            let gap = std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    q.park(Wait::Forever, Park::default(), |store, _| {
                        looked.store(true, Ordering::SeqCst);
                        !store.is_empty()
                    })
                });
                let (mut gap, mut sent) = (false, false);
                while !waiter.is_finished() {
                    if let Some(store) = q.store.try_lock() {
                        gap |= looked.load(Ordering::SeqCst) && q.parked() == 0 && store.is_empty();
                        // Parked since its last attempt: a wake that
                        // ends the park re-locks before it looks again.
                        if q.parked() == 1 {
                            looked.store(false, Ordering::SeqCst);
                        }
                        if q.parked() == 1 && !sent {
                            drop(store);
                            put(&q, text("m")).unwrap();
                            sent = true;
                        }
                    }
                }
                assert!(waiter.join().unwrap().unwrap().is_none(), "round {round}");
                gap
            });
            assert!(!gap, "round {round}: the lock was free between attempt and wait");
            assert!(q.try_take().unwrap().is_some());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn fifo_within_priority() {
        let (_c, q) = sim_queue();
        put(&q, text("a")).unwrap();
        put(&q, text("b")).unwrap();
        put(&q, text("c")).unwrap();
        let order: Vec<_> = (0..3)
            .map(|_| q.try_take().unwrap().unwrap())
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.try_take().unwrap().is_none());
    }

    #[test]
    fn higher_priority_first() {
        let (_c, q) = sim_queue();
        put(&q, Message::text("low").priority(Priority::new(1)).build())
        .unwrap();
        put(&q, Message::text("high").priority(Priority::new(8)).build())
        .unwrap();
        put(&q, Message::text("mid").priority(Priority::new(4)).build())
        .unwrap();
        let order: Vec<_> = (0..3)
            .map(|_| q.try_take().unwrap().unwrap())
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect();
        assert_eq!(order, vec!["high", "mid", "low"]);
    }

    #[test]
    fn depth_and_stats_track_operations() {
        let (_c, q) = sim_queue();
        put(&q, text("a")).unwrap();
        put(&q, text("b")).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.stats().enqueued.get(), 2);
        assert_eq!(q.stats().depth.high_water(), 2);
        q.try_take().unwrap().unwrap();
        assert_eq!(q.depth(), 1);
        assert_eq!(q.stats().dequeued.get(), 1);
    }

    #[test]
    fn a_parked_consumer_wakes_on_the_commit_within_its_first_wait() {
        // On the system clock a timed get parks once, for the whole
        // timeout: only the commit's wake can return it sooner.
        let qm = QueueManager::builder("TEST.QM")
            .clock(SystemClock::new())
            .journal(MemJournal::new())
            .build()
            .unwrap();
        let q = qm.create_queue("Q").unwrap();
        assert_eq!(q.parked.load(Ordering::SeqCst), 0);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let start = std::time::Instant::now();
                let got = qm.get("Q", Wait::Timeout(Millis(60_000))).unwrap();
                (got, start.elapsed())
            });
            while q.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            qm.put("Q", text("wake")).unwrap();
            let (got, waited) = consumer.join().unwrap();
            assert_eq!(got.unwrap().payload_str(), Some("wake"));
            assert!(
                waited < Duration::from_secs(30),
                "woke only at its timeout: {waited:?}"
            );
        });
        assert_eq!(q.parked.load(Ordering::SeqCst), 0);
    }

    /// Only a get outside a transaction may be handed a put: a getter
    /// parked inside one takes the put off the queue as a get of its
    /// transaction, and its rollback puts it back, live and after a
    /// restart.
    #[test]
    fn a_getter_inside_a_transaction_is_never_handed_a_put() {
        let journal = MemJournal::new();
        let qm = QueueManager::builder("TEST.QM")
            .clock(SystemClock::new())
            .journal(journal.clone())
            .build()
            .unwrap();
        let q = qm.create_queue("Q").unwrap();
        std::thread::scope(|s| {
            let getter = s.spawn(|| {
                let mut tx = qm.session();
                tx.begin().unwrap();
                let got = tx.get("Q", Wait::Timeout(Millis(60_000))).unwrap();
                tx.rollback().unwrap();
                got
            });
            while q.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let registered = q.waiting_getters();
            qm.put("Q", Message::text("m").persistent(true).build()).unwrap();
            assert_eq!(getter.join().unwrap().unwrap().payload_str(), Some("m"));
            assert_eq!(registered, 0, "a transacted get registers nothing");
        });
        assert_eq!(qm.metrics_snapshot().counter("mq.tx.handed"), 0);
        assert_eq!(q.depth(), 1, "rolled back onto the queue");
        qm.crash();
        let qm = QueueManager::builder("TEST.QM").journal(journal).build().unwrap();
        assert_eq!(qm.queue("Q").unwrap().depth(), 1, "and there after a restart");
    }

    #[test]
    fn is_empty_and_put_watchers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (_c, q) = sim_queue();
        assert!(q.is_empty());
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        q.add_put_watcher(Arc::new(move || {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        put(&q, text("a")).unwrap();
        assert!(!q.is_empty());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        q.try_take().unwrap().unwrap();
        assert!(q.is_empty());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wait_nonempty_wakes_on_put_and_times_out() {
        let q = queue_with(SystemClock::new());
        assert!(!q.wait_nonempty(Wait::NoWait, || false).unwrap());
        assert!(!q.wait_nonempty(Wait::Timeout(Millis(10)), || false).unwrap());
        let q2 = q.clone();
        let putter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            put(&q2, text("a")).unwrap();
        });
        assert!(q.wait_nonempty(Wait::Timeout(Millis(5_000)), || false).unwrap());
        putter.join().unwrap();
        assert!(q.wait_nonempty(Wait::NoWait, || false).unwrap());
    }

    #[test]
    fn a_peek_by_correlation_waits_for_its_message_and_leaves_it() {
        let q = queue_with(SystemClock::new());
        put(&q, Message::text("other").correlation_id("y").build()).unwrap();
        assert!(q.peek_by_correlation("x", Wait::Timeout(Millis(10))).unwrap().is_none());
        let q2 = q.clone();
        let putter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            put(&q2, Message::text("mine").correlation_id("x").build()).unwrap();
        });
        let peeked = q.peek_by_correlation("x", Wait::Timeout(Millis(5_000))).unwrap();
        putter.join().unwrap();
        assert_eq!(peeked.unwrap().payload_str(), Some("mine"));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn a_put_is_refused_at_stage_time_once_depth_plus_staged_reaches_max() {
        let clock = SimClock::new();
        let q = new_queue(
            "SMALL.Q".into(),
            clock,
            MemJournal::new(),
            QueueConfig { max_depth: Some(2) },
        );
        put(&q, text("a")).unwrap();
        q.check_room(|| 0).unwrap();
        for (live, staged) in [(1, 1), (2, 0)] {
            if live == 2 {
                put(&q, text("b")).unwrap();
            }
            match q.check_room(|| staged) {
                Err(MqError::QueueFull(name)) => assert_eq!(name, "SMALL.Q"),
                other => panic!("expected QueueFull, got {other:?}"),
            }
        }
    }

    #[test]
    fn expired_messages_are_skipped_and_counted() {
        let (clock, q) = sim_queue();
        put(&q, Message::text("short").ttl(Millis(10)).build())
            .unwrap();
        put(&q, text("long")).unwrap();
        clock.advance(Millis(50));
        let got = q.try_take().unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("long"));
        assert_eq!(q.stats().expired.get(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn expired_persistent_message_journals_expiry() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let q = new_queue(
            "J.Q".into(),
            clock.clone(),
            journal.clone(),
            QueueConfig::default(),
        );
        let msg = Message::text("x").persistent(true).ttl(Millis(5)).build();
        let id = msg.id();
        put(&q, msg).unwrap();
        clock.advance(Millis(10));
        assert!(q.try_take().unwrap().is_none());
        assert_eq!((q.depth(), q.stats().expired.get()), (0, 1));
        assert_eq!(q.stats().dequeued.get(), 0, "expired, not delivered");
        let recs = journal.replay_collect().unwrap();
        assert!(recs.iter().any(|r| matches!(
            r,
            JournalRecord::TxCommit { puts, gets, .. }
                if puts.is_empty() && gets == &[("J.Q".into(), id)]
        )));
    }

    #[test]
    fn sweep_expired_journals_persistent_expiries() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let q = new_queue(
            "SW.Q".into(),
            clock.clone(),
            journal.clone(),
            QueueConfig::default(),
        );
        let msg = Message::text("x").persistent(true).ttl(Millis(5)).build();
        let id = msg.id();
        put(&q, msg).unwrap();
        put(&q, Message::text("keep").persistent(true).build())
            .unwrap();
        clock.advance(Millis(10));
        assert_eq!(q.sweep_expired().unwrap(), 1);
        assert_eq!(q.sweep_expired().unwrap(), 0, "sweep is idempotent");
        assert_eq!(q.depth(), 1);
        let recs = journal.replay_collect().unwrap();
        assert!(recs.iter().any(|r| matches!(
            r,
            JournalRecord::TxCommit { puts, gets, .. }
                if puts.is_empty() && gets == &[("SW.Q".into(), id)]
        )));
    }

    /// A correlation id and a predicate on the messages carrying it.
    type Probe<'a> = (&'a str, &'a dyn Fn(&Message) -> bool);

    #[test]
    fn correlation_takes_agree_with_a_scan() {
        // A correlation take is a point read of the correlation index. Each
        // one must take what a scan reaches first: the first match of a
        // browse, which lists in delivery order.
        let (clock, q) = sim_queue();
        for i in 0..40u8 {
            let m = Message::text(format!("m{i}"))
                .correlation_id(format!("c{}", i % 4))
                .property("leaf", i64::from(i % 3))
                .priority(Priority::new(i % 3));
            let m = if i % 7 == 0 { m.ttl(Millis(5)) } else { m };
            put(&q, m.build()).unwrap();
        }
        // Messages gone by another path leave stale band ids behind: two
        // plain gets, and the expiries the first take below sweeps.
        q.try_take().unwrap().unwrap();
        q.try_take().unwrap().unwrap();
        // A rollback requeue goes back to the front of its band.
        let rolled_back = q.try_take_by_correlation("c1", |_| true).unwrap().unwrap();
        q.requeue_front(rolled_back, true);
        clock.advance(Millis(10));
        let leaf = |n: i64| move |m: &Message| m.i64_property("leaf") == Some(n);
        let (any, leaf0, leaf1) = (|_: &Message| true, leaf(0), leaf(1));
        let top = |m: &Message| m.priority().level() == 2;
        let probes: [Probe; 6] = [
            ("c1", &any),
            ("c2", &leaf1),
            ("c3", &leaf0),
            ("c0", &top),
            ("c9", &any), // matches nothing
            ("c2", &any),
        ];
        for (corr, accept) in probes {
            loop {
                let scanned = q
                    .browse()
                    .into_iter()
                    .find(|m| m.correlation_id() == Some(corr) && accept(m))
                    .map(|m| m.id());
                let taken = q.try_take_by_correlation(corr, accept).unwrap().map(|m| m.id());
                assert_eq!(taken, scanned, "a take of {corr:?} diverged from the scan");
                if taken.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn indexed_take_respects_priority_over_bucket_order() {
        let (_c, q) = sim_queue();
        put(&q, Message::text("early-low")
                .correlation_id("c")
                .property("k", 1i64)
                .priority(Priority::new(1))
                .build())
        .unwrap();
        put(&q, Message::text("late-high")
                .correlation_id("c")
                .property("k", 1i64)
                .priority(Priority::new(7))
                .build())
        .unwrap();
        let got = q
            .try_take_by_correlation("c", |m| m.i64_property("k") == Some(1))
            .unwrap()
            .unwrap();
        assert_eq!(got.payload_str(), Some("late-high"));
    }

    #[test]
    fn every_correlation_read_reaches_the_higher_priority_first() {
        // Low-priority A, then high-priority B, one correlation id: a peek
        // and a get by correlation both answer B, as a band scan would.
        let (_c, q) = sim_queue();
        for (text, level) in [("A", 1), ("B", 8)] {
            let m = Message::text(text).correlation_id("x").priority(Priority::new(level));
            put(&q, m.build()).unwrap();
        }
        let peeked = q.peek_by_correlation("x", Wait::NoWait).unwrap().unwrap();
        assert_eq!(peeked.payload_str(), Some("B"));
        let got = q.try_take_by_correlation("x", |_| true).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("B"));
    }

    #[test]
    fn browse_does_not_consume() {
        let (_c, q) = sim_queue();
        put(&q, text("a")).unwrap();
        put(&q, Message::text("b").priority(Priority::new(9)).build())
            .unwrap();
        let snapshot = q.browse();
        assert_eq!(snapshot.len(), 2);
        // Delivery order: high priority first.
        assert_eq!(snapshot[0].payload_str(), Some("b"));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn requeue_front_preserves_head_position_and_bumps_redelivery() {
        let (_c, q) = sim_queue();
        put(&q, text("first")).unwrap();
        put(&q, text("second")).unwrap();
        let m = q.try_take().unwrap().unwrap();
        assert_eq!(m.redelivery_count(), 0);
        q.requeue_front(m, true);
        let again = q.try_take().unwrap().unwrap();
        assert_eq!(again.payload_str(), Some("first"));
        assert_eq!(again.redelivery_count(), 1);
        assert_eq!(q.stats().redelivered.get(), 1);
    }

    #[test]
    fn take_by_correlation_uses_index() {
        let (_c, q) = sim_queue();
        for i in 0..5 {
            put(&q, Message::text(format!("m{i}"))
                    .correlation_id(format!("corr-{}", i % 2))
                    .build())
            .unwrap();
        }
        put(&q, text("no-corr")).unwrap();
        // corr-1 messages are m1, m3 (FIFO). A peek leaves the one it
        // reads for the take.
        let peeked = q.peek_by_correlation("corr-1", Wait::NoWait).unwrap().unwrap();
        assert_eq!(peeked.payload_str(), Some("m1"));
        assert_eq!(q.depth(), 6);
        let a = q.try_take_by_correlation("corr-1", |_| true).unwrap().unwrap();
        assert_eq!(a.payload_str(), Some("m1"));
        let b = q.try_take_by_correlation("corr-1", |_| true).unwrap().unwrap();
        assert_eq!(b.payload_str(), Some("m3"));
        assert!(q.try_take_by_correlation("corr-1", |_| true).unwrap().is_none());
        assert!(q.peek_by_correlation("corr-1", Wait::NoWait).unwrap().is_none());
        assert!(q.try_take_by_correlation("corr-9", |_| true).unwrap().is_none());
        assert_eq!(q.depth(), 4);
        // Remaining FIFO order unaffected: m0, m2, m4, no-corr.
        let rest: Vec<_> = (0..4)
            .map(|_| q.try_take().unwrap().unwrap())
            .map(|m| m.payload_str().unwrap().to_owned())
            .collect();
        assert_eq!(rest, vec!["m0", "m2", "m4", "no-corr"]);
    }

    #[test]
    fn take_by_correlation_skips_expired() {
        let (clock, q) = sim_queue();
        put(&q, Message::text("stale")
                .correlation_id("c")
                .ttl(Millis(5))
                .build())
        .unwrap();
        put(&q, Message::text("fresh").correlation_id("c").build())
            .unwrap();
        clock.advance(Millis(10));
        let got = q.try_take_by_correlation("c", |_| true).unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("fresh"));
        assert_eq!(q.stats().expired.get(), 1);
    }

    #[test]
    fn stale_band_entries_are_skipped_after_corr_take() {
        let (_c, q) = sim_queue();
        put(&q, Message::text("x").correlation_id("c").build())
            .unwrap();
        put(&q, text("y")).unwrap();
        q.try_take_by_correlation("c", |_| true).unwrap().unwrap();
        // The band still holds a stale id for "x"; a normal take must skip
        // it and return "y".
        let got = q.try_take().unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("y"));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn remove_by_id_keeps_index_consistent() {
        let (_c, q) = sim_queue();
        let msg = Message::text("x").correlation_id("c").build();
        let id = msg.id();
        put(&q, msg).unwrap();
        assert!(q.remove_by_id(id).is_some());
        assert!(q.remove_by_id(id).is_none());
        assert!(q.try_take_by_correlation("c", |_| true).unwrap().is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn blocking_take_wakes_on_put_system_clock() {
        let clock: SharedClock = SystemClock::new();
        let q = queue_with(clock);
        let q2 = q.clone();
        let consumer =
            std::thread::spawn(move || take(&q2, Wait::Timeout(Millis(2_000))));
        std::thread::sleep(Duration::from_millis(30));
        put(&q, text("late")).unwrap();
        let got = consumer.join().unwrap().unwrap().unwrap();
        assert_eq!(got.payload_str(), Some("late"));
    }

    #[test]
    fn blocking_take_times_out_system_clock() {
        let clock: SharedClock = SystemClock::new();
        let q = queue_with(clock);
        let got = take(&q, Wait::Timeout(Millis(30)))
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn blocking_take_times_out_sim_clock() {
        let (clock, q) = sim_queue();
        let q2 = q.clone();
        let consumer =
            std::thread::spawn(move || take(&q2, Wait::Timeout(Millis(100))));
        wait_for("the consumer's timer is armed", || clock.pending_timers() == 1);
        clock.advance(Millis(150));
        let got = consumer.join().unwrap().unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn nowait_returns_immediately() {
        let (_c, q) = sim_queue();
        assert!(take(&q, Wait::NoWait).unwrap().is_none());
    }

    #[test]
    fn close_wakes_blocked_consumer_with_error() {
        let clock: SharedClock = SystemClock::new();
        let q = queue_with(clock);
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || take(&q2, Wait::Forever));
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        match consumer.join().unwrap() {
            Err(MqError::ManagerStopped(_)) => {}
            other => panic!("expected ManagerStopped, got {other:?}"),
        }
    }

    #[test]
    fn puts_fail_after_close() {
        let (_c, q) = sim_queue();
        q.close();
        assert!(matches!(
            put(&q, text("x")),
            Err(MqError::ManagerStopped(_))
        ));
    }

    #[test]
    fn purge_takes_expired_and_live_alike() {
        let (clock, q) = sim_queue();
        put(&q, Message::text("stale").ttl(Millis(5)).build()).unwrap();
        put(&q, text("low")).unwrap();
        put(&q, Message::text("high").priority(Priority::new(9)).build()).unwrap();
        clock.advance(Millis(10));
        assert_eq!(q.purge().unwrap(), 3);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.stats().expired.get(), 0, "purged, not expired");
        assert_eq!(q.stats().dequeued.get(), 3);
        assert!(q.try_take().unwrap().is_none());
    }

    #[test]
    fn selective_waiters_are_each_woken_by_their_own_message() {
        // Two consumers park on one queue for different correlation ids and
        // the messages arrive in the opposite order. Waking one waiter per
        // arrival wakes the wrong one both times, and on a system clock it
        // then sleeps out its whole timeout.
        let clock: SharedClock = SystemClock::new();
        let q = queue_with(clock.clone());
        let started = clock.now();
        let waiters: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|corr| {
                let q = q.clone();
                let waiter = std::thread::spawn(move || {
                    let wait = Wait::Timeout(Millis(5_000));
                    q.take_by_correlation_blocking(corr.into(), |_| true, wait, false)
                        .map(|t| t.map(Taken::into_message))
                });
                // Parked in this order: "a" first.
                std::thread::sleep(Duration::from_millis(50));
                waiter
            })
            .collect();
        for corr in ["b", "a"] {
            put(&q, Message::text(corr).correlation_id(corr).build()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        for (waiter, corr) in waiters.into_iter().zip(["a", "b"]) {
            let got = waiter.join().unwrap().unwrap();
            assert_eq!(got.expect("woken by its message").payload_str(), Some(corr));
        }
        let took = clock.now().since(started);
        assert!(took < Millis(1_000), "{took:?}");
    }

    #[test]
    fn a_get_of_a_journaled_message_parks_pending_until_finalized() {
        let clock = SimClock::new();
        let journal = MemJournal::new();
        let q = new_queue(
            "TX.Q".into(),
            clock,
            journal.clone(),
            QueueConfig::default(),
        );
        let msg = Message::text("x").persistent(true).build();
        let id = msg.id();
        put(&q, msg).unwrap();
        // The get is not covered by a record yet: message held pending.
        q.try_take().unwrap().unwrap();
        assert_eq!(q.depth(), 0);
        let snap = q.snapshot_persistent();
        assert_eq!(snap.len(), 1, "pending get still owed to checkpoints");
        assert_eq!(snap[0].id(), id);
        q.finalize_pending(id);
        assert!(q.snapshot_persistent().is_empty());
    }

    #[test]
    fn concurrent_producers_consumers_conserve_messages() {
        let clock: SharedClock = SystemClock::new();
        let q = queue_with(clock);
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        put(&q, text(&format!("{t}-{i}"))).unwrap();
                    }
                })
            })
            .collect();
        let consumed = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                let consumed = consumed.clone();
                std::thread::spawn(move || {
                    while consumed.load(Ordering::SeqCst) < 1000 {
                        if take(&q, Wait::Timeout(Millis(100)))
                            .unwrap()
                            .is_some()
                        {
                            consumed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        use std::sync::atomic::Ordering;
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::SeqCst), 1000);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.stats().dequeued.get(), 1000);
    }
}
