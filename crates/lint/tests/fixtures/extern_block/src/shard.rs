//! A foreign block inside a `mod`, then code after it: the passes must
//! read past the block's `}`. `Shard.wake` below is waited on and never
//! notified, so its wait is reported; a parser that took the block's `}`
//! for the end of the file would report nothing.

mod sys {
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
    }

    #[allow(unsafe_code)]
    pub fn create() -> i32 {
        // SAFETY: plain syscall with no pointer arguments.
        unsafe { epoll_create1(0) }
    }
}

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

pub struct Shard {
    ready: Mutex<bool>,
    wake: Condvar,
}

impl Shard {
    pub fn run(&self) {
        let _ = sys::create();
        let mut ready = self.ready.lock();
        while !*ready {
            let _ = self.wake.wait_for(&mut ready, Duration::from_millis(5));
        }
    }
}
