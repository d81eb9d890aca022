//! Seeded test-code gating cases (a)–(c). One filter over the tokens
//! decides what is test code, and a gated item or field ends at its own
//! closing delimiter:
//! (a) the `#[cfg(test)]` field must not hide the `impl` after its
//!     struct, so the `.unwrap()` there is reported;
//! (b) a `#[cfg(test)] pub fn` is test code, so its never-hold violation
//!     is silent;
//! (c) a `#[cfg(not(test))] fn` is production code, so the same violation
//!     is reported.

use std::collections::HashMap;

use parking_lot::Mutex;

pub struct Journal {
    // lint: never-hold(Journal.inner) across sync_data
    inner: Mutex<Vec<u8>>,
    #[cfg(test)]
    hooks: HashMap<u64, Vec<u8>>,
}

impl Journal {
    pub fn first(&self) -> u8 {
        self.inner.lock().first().copied().unwrap()
    }

    #[cfg(test)]
    pub fn append_for_test(&self, byte: u8) {
        let mut inner = self.inner.lock();
        inner.push(byte);
        self.sync_data();
    }

    #[cfg(not(test))]
    fn append(&self, byte: u8) {
        let mut inner = self.inner.lock();
        inner.push(byte);
        self.sync_data();
    }

    fn sync_data(&self) {}
}
