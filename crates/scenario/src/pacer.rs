//! Bounded condition waiting without sleep-polling.
//!
//! The executor frequently needs "wait until this becomes true, but not
//! forever": delivery settling, compensation arrival, quiescence, a
//! rebind after a crash. A [`Pacer`] parks on a condvar in short bounded
//! slices and re-checks the condition, with an iteration cap so a wedged
//! run fails loudly instead of hanging the harness.

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// One park-slice per tick.
const TICK: Duration = Duration::from_millis(2);

/// A condvar-parked, iteration-bounded waiter.
#[derive(Debug, Default)]
pub(crate) struct Pacer {
    parked: Mutex<()>,
    cv: Condvar,
}

impl Pacer {
    /// Creates a pacer.
    pub(crate) fn new() -> Pacer {
        Pacer::default()
    }

    /// Parks for one tick slice.
    pub(crate) fn tick(&self) {
        let mut guard = self.parked.lock();
        let _ = self.cv.wait_for(&mut guard, TICK);
    }

    /// Re-checks `done` once per tick, for at most `max_ticks` ticks.
    /// Returns whether the condition became true.
    pub(crate) fn wait_until(&self, max_ticks: u64, mut done: impl FnMut() -> bool) -> bool {
        for _ in 0..max_ticks {
            if done() {
                return true;
            }
            self.tick();
        }
        done()
    }
}

/// Tick budget equivalent to roughly `ms` milliseconds of waiting.
pub(crate) fn ticks_for_ms(ms: u64) -> u64 {
    (ms / 2).max(1)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    #[test]
    fn wait_until_observes_condition() {
        let pacer = Pacer::new();
        let n = AtomicU64::new(0);
        let ok = pacer.wait_until(50, || n.fetch_add(1, Ordering::SeqCst) >= 3);
        assert!(ok);
    }

    #[test]
    fn wait_until_gives_up_after_budget() {
        let pacer = Pacer::new();
        assert!(!pacer.wait_until(3, || false));
    }

    #[test]
    fn ticks_budget() {
        assert_eq!(ticks_for_ms(1000), 500);
        assert_eq!(ticks_for_ms(1), 1);
    }
}
