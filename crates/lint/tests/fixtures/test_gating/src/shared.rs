//! Seeded test-code gating case (d): a `std::sync` lock named inside a
//! `{…}` group that spans several lines is still a `std::sync` lock.

use std::sync::{
    Arc,
    Mutex,
};

pub type Shared = Arc<Mutex<u64>>;
