//! Seeded stale never-hold discipline: the annotation still names
//! `send_batch`, but the function was renamed to `submit`. Nothing can
//! reach the old name, so without a target check `forward` — which
//! holds the outbox across the renamed function — would pass silently.

use parking_lot::Mutex;

pub struct Manager {
    /// Must never be held while a batch crosses the wire.
    // lint: never-hold(Manager.outbox) across send_batch
    outbox: Mutex<()>,
}

impl Manager {
    pub fn forward(&self) {
        let outbox = self.outbox.lock();
        self.submit();
        drop(outbox);
    }

    fn submit(&self) {}
}
