//! Seeded condvar nobody notifies: `Pacer::tick` parks on `Pacer.cv` for
//! its whole slice every time, since no `notify_*` in the crate names the
//! field, so `wait_until` is a sleep-poll the `sleep` rule cannot see.
//! `Gate.opened` beside it is waited on and notified, and stays silent.

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

pub struct Pacer {
    parked: Mutex<()>,
    cv: Condvar,
}

impl Pacer {
    pub fn tick(&self) {
        let mut guard = self.parked.lock();
        let _ = self.cv.wait_for(&mut guard, Duration::from_millis(2));
    }

    pub fn wait_until(&self, mut done: impl FnMut() -> bool) {
        while !done() {
            self.tick();
        }
    }
}

pub struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    pub fn wait_open(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.opened.wait(&mut open);
        }
    }

    pub fn open(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }
}
