//! What a put or a get of a volatile message outside a transaction costs
//! the heap: it is a transaction of one operation, whose put or get is held
//! in place, and it writes no record. A counting global allocator (this
//! file is its own test binary) counts the calling thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mq::{Message, QueueManager, SimClock, Wait};

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local cell and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// On a queue that holds one message between a put and the get after it,
/// so no table grows: a put allocates once, the stored message's shared
/// handle, and a get not at all. Staging the operation in a vector would
/// read at least 2 and 1.
#[test]
fn a_volatile_put_and_get_outside_a_transaction_allocate_only_the_stored_message() {
    let qm = QueueManager::builder("QM.ONE").clock(SimClock::new()).build().unwrap();
    qm.create_queue("Q").unwrap();
    const OPS: u64 = 1_000;
    let messages: Vec<Message> = (0..OPS + 10).map(|_| Message::text("volatile").build()).collect();
    let mut messages = messages.into_iter();
    for msg in messages.by_ref().take(10) {
        qm.put("Q", msg).unwrap();
        qm.get("Q", Wait::NoWait).unwrap().unwrap();
    }
    let (mut puts, mut gets) = (0, 0);
    for msg in messages {
        let before = allocations();
        qm.put("Q", msg).unwrap();
        let between = allocations();
        let got = qm.get("Q", Wait::NoWait).unwrap();
        gets += allocations() - between;
        puts += between - before;
        drop(got.expect("the message just put"));
    }
    assert_eq!((puts, gets), (OPS, 0), "allocations by {OPS} puts and {OPS} gets");
}
