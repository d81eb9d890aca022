//! Virtual and system clocks for deterministic distributed-systems code.
//!
//! The conditional-messaging stack expresses every deadline in *milliseconds
//! relative to the sender's clock* (paper §2.2). To make those deadlines both
//! testable (deterministically, without real sleeps) and benchable, all
//! time-dependent components take a [`SharedClock`] instead of reading the OS
//! clock directly.
//!
//! Two implementations are provided, both driving the same
//! [`DeadlineScheduler`]:
//!
//! * [`SystemClock`] — real time, backed by [`std::time::Instant`], with a
//!   lazily spawned parked waiter thread that sleeps until the earliest
//!   pending deadline.
//! * [`SimClock`] — logical time that only moves when a test calls
//!   [`SimClock::advance`]; due timers run synchronously on the advancing
//!   thread, in timestamp order, which makes timeout-driven behaviour fully
//!   reproducible.
//!
//! # Examples
//!
//! ```
//! use simtime::{Clock, Millis, SimClock};
//!
//! let clock = SimClock::new();
//! let fired = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
//! let f = fired.clone();
//! clock.schedule_at(clock.now() + Millis(50), Box::new(move || {
//!     f.store(true, std::sync::atomic::Ordering::SeqCst);
//! }));
//! clock.advance(Millis(49));
//! assert!(!fired.load(std::sync::atomic::Ordering::SeqCst));
//! clock.advance(Millis(1));
//! assert!(fired.load(std::sync::atomic::Ordering::SeqCst));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// A duration in milliseconds.
///
/// The paper specifies all condition attributes (`MsgPickUpTime`,
/// `MsgProcessingTime`, evaluation timeouts) in milliseconds; this newtype
/// keeps those values distinct from absolute [`Time`] stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millis(pub u64);

impl Millis {
    /// Zero duration.
    pub const ZERO: Millis = Millis(0);

    /// One second, for readability in tests and examples.
    pub const SECOND: Millis = Millis(1_000);

    /// Returns the raw millisecond count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts to a [`std::time::Duration`].
    pub fn to_duration(self) -> Duration {
        Duration::from_millis(self.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Millis) -> Millis {
        Millis(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, rhs: Millis) -> Millis {
        Millis(self.0.min(rhs.0))
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl From<u64> for Millis {
    fn from(v: u64) -> Self {
        Millis(v)
    }
}

impl Add for Millis {
    type Output = Millis;
    fn add(self, rhs: Millis) -> Millis {
        Millis(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Millis {
    fn add_assign(&mut self, rhs: Millis) {
        *self = *self + rhs;
    }
}

impl std::ops::Mul<u64> for Millis {
    type Output = Millis;
    fn mul(self, rhs: u64) -> Millis {
        Millis(self.0.saturating_mul(rhs))
    }
}

/// An absolute timestamp in milliseconds since the owning clock's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The clock epoch.
    pub const ZERO: Time = Time(0);

    /// A timestamp far in the future, usable as "no deadline".
    pub const MAX: Time = Time(u64::MAX);

    /// Returns the raw millisecond count since the epoch.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier` (saturating at zero).
    pub fn since(self, earlier: Time) -> Millis {
        Millis(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Millis) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl Add<Millis> for Time {
    type Output = Time;
    fn add(self, rhs: Millis) -> Time {
        self.saturating_add(rhs)
    }
}

impl Sub<Time> for Time {
    type Output = Millis;
    fn sub(self, rhs: Time) -> Millis {
        self.since(rhs)
    }
}

/// Identifier of a timer registered with [`Clock::schedule_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// Callback type run when a timer fires.
pub type TimerCallback = Box<dyn FnOnce() + Send + 'static>;

/// A source of time plus one-shot timers.
///
/// All blocking operations in the `mq`/`condmsg` stack compute deadlines via
/// `clock.now()` so that a [`SimClock`] can drive them deterministically.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Returns the current time on this clock.
    fn now(&self) -> Time;

    /// Blocks the calling thread for (at least) `d` of *this clock's* time.
    ///
    /// On a [`SimClock`] this parks the thread until another thread advances
    /// logical time past the deadline.
    fn sleep(&self, d: Millis);

    /// Schedules `f` to run once the clock reaches `at`.
    ///
    /// Timers scheduled in the past fire as soon as possible. Callbacks run
    /// on the timer thread ([`SystemClock`]) or on the thread calling
    /// [`SimClock::advance`]; they must not block for long.
    fn schedule_at(&self, at: Time, f: TimerCallback) -> TimerId;

    /// Cancels a pending timer. Returns `true` if the timer had not yet fired.
    fn cancel(&self, id: TimerId) -> bool;

    /// Whether this clock's time is decoupled from real time.
    ///
    /// Blocking primitives use this to decide between waiting out the exact
    /// real-time remainder (system clock) and polling in short slices while
    /// another thread advances logical time (sim clock).
    fn is_virtual(&self) -> bool {
        false
    }
}

/// A shared, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

#[derive(Default)]
struct SchedulerState {
    /// Every entry's `(deadline, id)`: ids are handed out in registration
    /// order, so the heap pops in `(deadline, registration)` order.
    heap: BinaryHeap<Reverse<(Time, TimerId)>>,
    /// The callbacks of the entries that are neither cancelled nor fired,
    /// by id; a heap entry whose id is missing here is a tombstone.
    live: HashMap<TimerId, TimerCallback>,
}

/// The shared deadline facility behind both clock implementations.
///
/// A min-heap of entries ordered by `(deadline, registration)` with lazy
/// cancellation: [`DeadlineScheduler::cancel`] takes the id and its
/// callback out of the live map in O(1), so whatever the callback holds is
/// released at once, and the tombstoned heap entry is discarded when it
/// surfaces.
/// [`SimClock`] drains due entries synchronously during `advance`;
/// [`SystemClock`]'s parked waiter thread drains them as real time passes.
/// The scheduler's lock is never held while a callback runs, so callbacks
/// may freely schedule or cancel further timers.
#[derive(Default)]
pub struct DeadlineScheduler {
    state: Mutex<SchedulerState>,
    next_seq: AtomicU64,
}

impl fmt::Debug for DeadlineScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadlineScheduler")
            .field("next_deadline", &self.next_deadline())
            .finish()
    }
}

impl DeadlineScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> DeadlineScheduler {
        DeadlineScheduler::default()
    }

    /// Registers `f` to run once the driving clock reaches `at`.
    pub fn schedule(&self, at: Time, f: TimerCallback) -> TimerId {
        self.schedule_entry(at, f).0
    }

    /// [`schedule`](Self::schedule), also reporting whether `at` precedes
    /// every entry already in the heap — the one case in which a waiter
    /// parked until the previous earliest deadline would wake too late.
    fn schedule_entry(&self, at: Time, f: TimerCallback) -> (TimerId, bool) {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let id = TimerId(seq);
        let mut state = self.state.lock();
        let earliest = state.heap.peek().is_none_or(|Reverse((top, _))| at < *top);
        state.heap.push(Reverse((at, id)));
        state.live.insert(id, f);
        (id, earliest)
    }

    /// Cancels a pending entry and drops its callback, after the lock is
    /// released (what it holds may cancel timers of its own as it goes).
    /// Returns `true` if it had not yet fired.
    pub fn cancel(&self, id: TimerId) -> bool {
        let callback = self.state.lock().live.remove(&id);
        callback.is_some()
    }

    /// Removes and returns the earliest live entry due at or before `now`
    /// as `(deadline, callback)`. The caller runs the callback with no
    /// scheduler lock held.
    pub fn pop_due(&self, now: Time) -> Option<(Time, TimerCallback)> {
        let state = &mut *self.state.lock();
        while let Some(top) = state.heap.peek_mut() {
            let Reverse((at, id)) = *top;
            if at > now {
                return None;
            }
            PeekMut::pop(top);
            if let Some(callback) = state.live.remove(&id) {
                return Some((at, callback));
            }
        }
        None
    }

    /// The earliest live deadline, if any entries are pending.
    pub fn next_deadline(&self) -> Option<Time> {
        let state = &mut *self.state.lock();
        while let Some(top) = state.heap.peek_mut() {
            let Reverse((at, id)) = *top;
            if state.live.contains_key(&id) {
                return Some(at);
            }
            PeekMut::pop(top);
        }
        None
    }

    /// Number of live (uncancelled, unfired) entries.
    pub fn live_count(&self) -> usize {
        self.state.lock().live.len()
    }
}

/// Deterministic logical clock for tests and reproducible experiments.
///
/// Time starts at [`Time::ZERO`] and only moves when [`SimClock::advance`]
/// (or [`SimClock::advance_to`]) is called. Due timers run synchronously, in
/// `(deadline, registration)` order, on the advancing thread, *before*
/// `advance` returns — so after `clock.advance(d)` every timeout up to
/// `now + d` has fully taken effect.
#[derive(Default)]
pub struct SimClock {
    now_ms: AtomicU64,
    scheduler: DeadlineScheduler,
    /// Notified whenever logical time moves, to wake `sleep`ers.
    tick: Condvar,
    tick_lock: Mutex<()>,
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimClock")
            .field("now", &self.now())
            .finish()
    }
}

impl SimClock {
    /// Creates a clock at logical time zero.
    pub fn new() -> Arc<SimClock> {
        Arc::new(SimClock::default())
    }

    /// Advances logical time by `d`, firing all timers due on the way.
    pub fn advance(&self, d: Millis) {
        self.advance_to(self.now() + d);
    }

    /// Advances logical time to `target`, firing all timers due on the way.
    ///
    /// Advancing to a time in the past is a no-op. Callbacks may schedule
    /// further timers; any that fall within the advanced range fire during
    /// the same call.
    pub fn advance_to(&self, target: Time) {
        while let Some((at, cb)) = self.scheduler.pop_due(target) {
            // Move time to the timer's deadline so callbacks observe a
            // monotone clock.
            self.bump_now(at);
            cb();
        }
        self.bump_now(target);
    }

    fn bump_now(&self, t: Time) {
        let mut cur = self.now_ms.load(Ordering::SeqCst);
        while t.0 > cur {
            match self
                .now_ms
                .compare_exchange(cur, t.0, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let _guard = self.tick_lock.lock();
        self.tick.notify_all();
    }

    /// Number of timers currently pending (for test assertions).
    pub fn pending_timers(&self) -> usize {
        self.scheduler.live_count()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Time {
        Time(self.now_ms.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Millis) {
        let deadline = self.now() + d;
        let mut guard = self.tick_lock.lock();
        while self.now() < deadline {
            // Bounded wait so a forgotten `advance` surfaces as slow tests
            // rather than a hard deadlock.
            self.tick.wait_for(&mut guard, Duration::from_millis(50));
        }
    }

    fn schedule_at(&self, at: Time, f: TimerCallback) -> TimerId {
        self.scheduler.schedule(at, f)
    }

    fn cancel(&self, id: TimerId) -> bool {
        self.scheduler.cancel(id)
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

struct SystemTimerShared {
    scheduler: DeadlineScheduler,
    wake: Condvar,
    wake_lock: Mutex<()>,
    shutdown: AtomicBool,
}

/// Real-time clock backed by [`std::time::Instant`].
///
/// `now()` reports milliseconds elapsed since the clock was created, so
/// timestamps from different `SystemClock` instances are not comparable —
/// share one clock per process (as one would share a queue manager).
pub struct SystemClock {
    origin: std::time::Instant,
    shared: Arc<SystemTimerShared>,
    timer_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for SystemClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemClock")
            .field("now", &self.now())
            .finish()
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock {
            origin: std::time::Instant::now(),
            shared: Arc::new(SystemTimerShared {
                scheduler: DeadlineScheduler::new(),
                wake: Condvar::new(),
                wake_lock: Mutex::new(()),
                shutdown: AtomicBool::new(false),
            }),
            timer_thread: Mutex::new(None),
        }
    }
}

impl SystemClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Arc<SystemClock> {
        Arc::new(SystemClock::default())
    }

    /// Number of timers currently pending (for test assertions).
    pub fn pending_timers(&self) -> usize {
        self.shared.scheduler.live_count()
    }

    fn ensure_timer_thread(&self) {
        let mut guard = self.timer_thread.lock();
        if guard.is_some() {
            return;
        }
        let shared = self.shared.clone();
        let origin = self.origin;
        let handle = std::thread::Builder::new()
            .name("simtime-timer".into())
            .spawn(move || loop {
                // Hold the wake lock from the due-check through the wait so
                // a schedule_at between them cannot lose its notification
                // (the notifier serializes on the same lock).
                let mut guard = shared.wake_lock.lock();
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = Time(origin.elapsed().as_millis() as u64);
                if let Some((_, cb)) = shared.scheduler.pop_due(now) {
                    drop(guard);
                    cb();
                    continue;
                }
                let wait = match shared.scheduler.next_deadline() {
                    Some(deadline) => deadline.since(now).to_duration(),
                    None => Duration::from_millis(200),
                };
                shared.wake.wait_for(&mut guard, wait);
            });
        // A refused spawn records no thread: the entry stays scheduled and
        // the next `schedule_at` tries again.
        *guard = handle.ok();
    }
}

impl Drop for SystemClock {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.wake_lock.lock();
            self.shared.wake.notify_all();
        }
        if let Some(handle) = self.timer_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Time {
        Time(self.origin.elapsed().as_millis() as u64)
    }

    fn sleep(&self, d: Millis) {
        std::thread::sleep(d.to_duration());
    }

    fn schedule_at(&self, at: Time, f: TimerCallback) -> TimerId {
        self.ensure_timer_thread();
        let (id, earliest) = self.shared.scheduler.schedule_entry(at, f);
        // The waiter is parked until the earliest deadline it saw; only a
        // new earliest entry needs to wake it.
        if earliest {
            let _guard = self.shared.wake_lock.lock();
            self.shared.wake.notify_all();
        }
        id
    }

    fn cancel(&self, id: TimerId) -> bool {
        self.shared.scheduler.cancel(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn counter() -> (Arc<AtomicUsize>, impl Fn() -> TimerCallback) {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        (c, move || {
            let c = c2.clone();
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }) as TimerCallback
        })
    }

    #[test]
    fn sim_clock_starts_at_zero_and_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Time::ZERO);
        clock.advance(Millis(100));
        assert_eq!(clock.now(), Time(100));
        clock.advance_to(Time(50)); // past: no-op
        assert_eq!(clock.now(), Time(100));
    }

    #[test]
    fn sim_timers_fire_in_order_during_advance() {
        let clock = SimClock::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (at, label) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let order = order.clone();
            clock.schedule_at(Time(at), Box::new(move || order.lock().push(label)));
        }
        clock.advance(Millis(25));
        assert_eq!(*order.lock(), vec!["a", "b"]);
        clock.advance(Millis(25));
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn sim_timer_sees_monotone_now() {
        let clock = SimClock::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let c2 = clock.clone();
        let s2 = seen.clone();
        clock.schedule_at(Time(40), Box::new(move || s2.lock().push(c2.now())));
        clock.advance(Millis(100));
        assert_eq!(*seen.lock(), vec![Time(40)]);
        assert_eq!(clock.now(), Time(100));
    }

    #[test]
    fn sim_timer_callbacks_can_reschedule() {
        let clock = SimClock::new();
        let (count, mk) = counter();
        let c2 = clock.clone();
        let cb = mk();
        clock.schedule_at(
            Time(10),
            Box::new(move || {
                cb();
                c2.schedule_at(Time(20), mk());
            }),
        );
        clock.advance(Millis(30));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn sim_cancel_prevents_firing() {
        let clock = SimClock::new();
        let (count, mk) = counter();
        let id = clock.schedule_at(Time(10), mk());
        assert!(clock.cancel(id));
        assert!(!clock.cancel(id), "double-cancel reports not pending");
        clock.advance(Millis(100));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(clock.pending_timers(), 0);
    }

    #[test]
    fn cancel_releases_what_the_callback_holds_at_once() {
        // The cancelled entry stays in the heap until its deadline comes
        // up; its callback, and the `Arc` it captured, do not.
        let clock = SimClock::new();
        let held = Arc::new(());
        let captured = Arc::clone(&held);
        let id = clock.schedule_at(Time(3_600_000), Box::new(move || drop(captured)));
        assert_eq!(Arc::strong_count(&held), 2);
        assert!(clock.cancel(id));
        assert_eq!(Arc::strong_count(&held), 1, "released by cancel");
        assert_eq!(clock.pending_timers(), 0);
    }

    #[test]
    fn sim_past_timer_fires_on_next_advance() {
        let clock = SimClock::new();
        clock.advance(Millis(100));
        let (count, mk) = counter();
        clock.schedule_at(Time(10), mk());
        clock.advance(Millis(0));
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sim_sleep_wakes_when_advanced() {
        let clock = SimClock::new();
        let c2 = clock.clone();
        let t = std::thread::spawn(move || {
            c2.sleep(Millis(500));
            c2.now()
        });
        std::thread::sleep(Duration::from_millis(20));
        clock.advance(Millis(500));
        let woke_at = t.join().unwrap();
        assert!(woke_at >= Time(500));
    }

    #[test]
    fn scheduler_orders_cancels_and_counts() {
        let sched = DeadlineScheduler::new();
        let a = sched.schedule(Time(30), Box::new(|| {}));
        let _b = sched.schedule(Time(10), Box::new(|| {}));
        assert_eq!(sched.next_deadline(), Some(Time(10)));
        assert_eq!(sched.live_count(), 2);
        assert!(sched.cancel(a));
        assert!(!sched.cancel(a), "tombstoned entry no longer pending");
        assert_eq!(sched.live_count(), 1);
        assert!(sched.pop_due(Time(5)).is_none(), "nothing due yet");
        let (at, _cb) = sched.pop_due(Time(100)).expect("b is due");
        assert_eq!(at, Time(10));
        assert!(sched.pop_due(Time(100)).is_none(), "a was cancelled");
        assert_eq!(sched.next_deadline(), None);
        assert_eq!(sched.live_count(), 0);
    }

    #[test]
    fn scheduler_cancels_twenty_thousand_resident_timers() {
        let sched = DeadlineScheduler::new();
        let (count, mk) = counter();
        let ids: Vec<TimerId> = (0..20_000u64)
            .map(|i| sched.schedule(Time(1 + i % 997), mk()))
            .collect();
        assert_eq!(sched.live_count(), 20_000);
        for id in ids.iter().rev() {
            assert!(sched.cancel(*id));
        }
        assert_eq!(sched.live_count(), 0);
        assert!(sched.pop_due(Time(u64::MAX)).is_none());
        assert_eq!(sched.next_deadline(), None);
        assert!(!sched.cancel(ids[0]), "already cancelled");
        assert_eq!(count.load(Ordering::SeqCst), 0, "nothing fired");
    }

    #[test]
    fn system_timer_earlier_than_the_parked_deadline_still_fires_first() {
        let clock = SystemClock::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (after, label) in [(5_000u64, "late"), (20, "early")] {
            let order = order.clone();
            clock.schedule_at(
                clock.now() + Millis(after),
                Box::new(move || order.lock().push(label)),
            );
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while order.lock().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "waiter slept through the earlier deadline"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*order.lock(), vec!["early"]);
    }

    #[test]
    fn system_clock_now_is_monotone() {
        let clock = SystemClock::new();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn system_timer_fires() {
        let clock = SystemClock::new();
        let (count, mk) = counter();
        clock.schedule_at(clock.now() + Millis(10), mk());
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while count.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "timer never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn system_timer_cancel() {
        let clock = SystemClock::new();
        let (count, mk) = counter();
        let id = clock.schedule_at(clock.now() + Millis(100), mk());
        assert!(clock.cancel(id));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(clock.pending_timers(), 0);
    }

    #[test]
    fn millis_and_time_arithmetic() {
        assert_eq!(Time(100) + Millis(50), Time(150));
        assert_eq!(Time(100) - Time(40), Millis(60));
        assert_eq!(Time(40) - Time(100), Millis(0), "saturating");
        assert_eq!(Millis(10) + Millis(5), Millis(15));
        assert_eq!(Millis(10).saturating_sub(Millis(15)), Millis::ZERO);
        assert_eq!(Millis(10) * 3, Millis(30));
        assert_eq!(Time::MAX.saturating_add(Millis(1)), Time::MAX);
        assert_eq!(format!("{}", Millis(5)), "5ms");
        assert_eq!(format!("{}", Time(5)), "t+5ms");
    }

    #[test]
    fn clock_trait_objects_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimClock>();
        assert_send_sync::<SystemClock>();
        assert_send_sync::<DeadlineScheduler>();
        let _clock: SharedClock = SimClock::new();
    }

    /// Property: however timers are registered, SimClock::advance fires
    /// them in (deadline, registration) order, and never before their time.
    #[test]
    fn timers_fire_in_deadline_order_property() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let clock = SimClock::new();
            let fired: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
            let mut deadlines: Vec<u64> = (0..12).map(|_| rng.gen_range(0..200)).collect();
            let mut order: Vec<usize> = (0..deadlines.len()).collect();
            order.shuffle(&mut rng);
            for &i in &order {
                let fired = fired.clone();
                let at = deadlines[i];
                let c = clock.clone();
                clock.schedule_at(
                    Time(at),
                    Box::new(move || {
                        assert!(c.now() >= Time(at), "fired early");
                        fired.lock().push((at, i));
                    }),
                );
            }
            // Advance in random increments to past every deadline.
            while clock.now() < Time(250) {
                clock.advance(Millis(rng.gen_range(1..60)));
            }
            let observed = fired.lock().clone();
            assert_eq!(observed.len(), deadlines.len(), "all fired");
            let mut sorted_deadlines: Vec<u64> = observed.iter().map(|(at, _)| *at).collect();
            deadlines.sort_unstable();
            sorted_deadlines.sort_unstable();
            assert_eq!(sorted_deadlines, deadlines);
            // Firing order is sorted by deadline (ties in any registration
            // order are acceptable for distinct seq — we assert non-
            // decreasing deadlines).
            assert!(
                observed.windows(2).all(|w| w[0].0 <= w[1].0),
                "non-decreasing deadlines: {observed:?}"
            );
        }
    }
}
