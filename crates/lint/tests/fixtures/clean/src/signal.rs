//! Clean negative for the condvar pass: `Signal.changed` is waited on in
//! one file and notified through a field chain in another
//! (`disciplined.rs` holds a `Signal` and bumps it), which is enough.

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

pub struct Signal {
    pub seq: Mutex<u64>,
    pub changed: Condvar,
}

impl Signal {
    pub fn wait_past(&self, seen: u64, bound: Duration) -> bool {
        let mut seq = self.seq.lock();
        if *seq == seen {
            let _ = self.changed.wait_for(&mut seq, bound);
        }
        *seq != seen
    }
}
