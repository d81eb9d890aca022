//! Seeded misspelled annotation kind: `never_hold` for `never-hold`. No
//! pass reads it, so without the kind check the discipline it means to
//! declare would drop silently and `append` — which holds the lock across
//! `sync_data` — would pass.

use parking_lot::Mutex;

pub struct File;

impl File {
    pub fn sync_data(&self) {}
}

pub struct Journal {
    // lint: never_hold(Journal.inner) across sync_data
    inner: Mutex<Vec<u8>>,
    file: File,
}

impl Journal {
    pub fn append(&self, bytes: &[u8]) {
        let mut inner = self.inner.lock();
        inner.extend_from_slice(bytes);
        self.file.sync_data();
    }
}
