//! What one pending conditional send costs the heap.
//!
//! `deep_pending`'s background load: 5 000 sends of one four-leaf tree with
//! compensation through a [`ConditionalMessenger`] on one manager over a
//! [`SegmentedJournal`] (no fsync), all still pending when counted. Each
//! send stores six messages — the sender-log entry, one parked
//! compensation and four originals — and one pending evaluation. The tree
//! itself is compiled once: every send shares its interned shape (gauge
//! `cond.shapes` reads 1), encodes it once into its log entry and builds
//! each original from the shape's template for that leaf, and a pending
//! evaluation holds only its own cell states and tallies. A counting
//! global allocator (this file is its own test binary) gives the two
//! numbers the send path is held to: heap allocations per send, and live
//! heap bytes per pending tree once the sends are done.
//!
//! Recovery is held to a live-bytes bound too: the manager and the
//! messenger reopened over that journal, every tree still pending and all
//! of them sharing one shape again. Then
//! every tree misses its deadline, the leaves are drained, and a second
//! reopen counts what a decided tree keeps — its outcome notification,
//! which may not hold the verdict record it was replayed from. Taking the
//! notifications then leaves every queue empty, and no shape held: a
//! verdict's state ends with its consumer.
//!
//! All are counts, not timings, and move only when the send path, the
//! recovery path or the stored form of a message changes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use condmsg::{Condition, ConditionalMessenger, Destination, DestinationSet};
use mq::journal::{SegmentConfig, SegmentedJournal};
use mq::{Gauge, QueueManager, Wait};
use simtime::{Millis, SimClock};

/// Heap allocations (and reallocations) since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counters are
// plain relaxed atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SENDS: u64 = 5_000;
/// Sends before counting starts: lazily built tables and the first
/// growth steps of every collection are not per-send costs.
const WARM_UP: u64 = 200;
const LEAVES: [&str; 4] = ["Q.B0", "Q.B1", "Q.B2", "Q.B3"];

/// Bounds the send path is held to, each the measured value plus at most
/// 10 %. Measured 16 allocations, with or without the lock-order checker
/// of `parking_lot/deadlock_detection` (which the suite is also run
/// under): six stored messages, two for the send record's payload
/// (encoded, then shared), two for the pending evaluation (its cell
/// states and its tallies; this tree has no required destination, so no
/// stamps), one for the deadline timer, two vectors of staged puts, and
/// three for the test's own payload and compensation data. Measured
/// 2 781 B: a stored message's correlation index entry holds its id in
/// place, and a pending evaluation keeps no acknowledgment record beside
/// its cells.
const MAX_ALLOCATIONS_PER_SEND: f64 = 17.0;
const MAX_LIVE_BYTES_PER_TREE: f64 = 3_050.0;
/// Measured 3 289: a recovered message keeps slices of its record.
const MAX_LIVE_BYTES_PER_RECOVERED_TREE: f64 = 3_600.0;
/// Measured 874: the outcome notification, holding its own property
/// section, not a slice of the verdict record it was replayed from; the
/// tables of the queues replay emptied are given back.
const MAX_LIVE_BYTES_PER_DECIDED_TREE: f64 = 950.0;

/// `deep_pending`'s background condition: `all(any(B0,B1), min 1 of
/// {B2,B3})`, an hour to pick up.
fn tree(manager: &str) -> Condition {
    let window = Millis(3_600_000);
    let leaf = |q: &str| Condition::from(Destination::queue(manager, q));
    let any = |a: &str, b: &str| {
        DestinationSet::of(vec![leaf(a), leaf(b)])
            .pickup_within(window)
            .min_pickup(1)
    };
    DestinationSet::of(vec![
        any(LEAVES[0], LEAVES[1]).into(),
        any(LEAVES[2], LEAVES[3]).into(),
    ])
    .into()
}

#[test]
fn a_pending_four_leaf_send_allocates_and_holds_within_budget() {
    let root = std::env::temp_dir().join(format!(
        "condmsg-resident-bytes-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let journal = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
    let qm = QueueManager::builder("QM.HEAD")
        .clock(SimClock::new())
        .journal(journal)
        .build()
        .unwrap();
    for queue in LEAVES {
        qm.create_queue(queue).unwrap();
    }
    let messenger: Arc<ConditionalMessenger> = ConditionalMessenger::new(qm.clone()).unwrap();
    let condition = tree(qm.name());
    let send = |i: u64| {
        messenger
            .send_message_with_compensation(
                format!("background {i}"),
                "undo background",
                &condition,
            )
            .unwrap()
    };
    let mut ids = Vec::with_capacity((WARM_UP + SENDS) as usize);
    for i in 0..WARM_UP {
        ids.push(send(i));
    }

    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    for i in 0..SENDS {
        ids.push(send(WARM_UP + i));
    }
    let per_send = (ALLOCATIONS.load(Ordering::Relaxed) - allocations) as f64 / SENDS as f64;
    let per_tree = (LIVE.load(Ordering::Relaxed) - live) as f64 / SENDS as f64;
    println!("allocations per send: {per_send:.1}");
    println!("live heap bytes per pending tree: {per_tree:.0}");

    assert_eq!(
        qm.queue(LEAVES[0]).unwrap().depth() as u64,
        WARM_UP + SENDS,
        "every send is still pending on its leaves"
    );
    assert!(
        per_send <= MAX_ALLOCATIONS_PER_SEND,
        "{per_send:.1} allocations per send (bound {MAX_ALLOCATIONS_PER_SEND})"
    );
    assert!(
        per_tree <= MAX_LIVE_BYTES_PER_TREE,
        "{per_tree:.0} live heap bytes per pending tree (bound {MAX_LIVE_BYTES_PER_TREE})"
    );
    assert_eq!(shapes(&qm).get(), 1, "every send shares one shape");
    drop(messenger);
    qm.shutdown();
    drop(qm);

    // The same trees replayed from the journal: a recovered message keeps
    // slices of the record it was read from, so what recovery holds per
    // tree is counted too.
    let trees = (WARM_UP + SENDS) as f64;
    let live = LIVE.load(Ordering::Relaxed);
    let clock = SimClock::new();
    let (qm, messenger) = reopen(&root, &clock);
    let per_recovered_tree = (LIVE.load(Ordering::Relaxed) - live) as f64 / trees;
    println!("live heap bytes per recovered pending tree: {per_recovered_tree:.0}");
    assert_eq!(
        qm.queue(LEAVES[0]).unwrap().depth() as u64,
        WARM_UP + SENDS,
        "every send is still pending on its leaves after recovery"
    );
    assert_eq!(shapes(&qm).get(), 1, "recovered sends share one shape");
    assert!(
        per_recovered_tree <= MAX_LIVE_BYTES_PER_RECOVERED_TREE,
        "{per_recovered_tree:.0} live heap bytes per recovered pending tree \
         (bound {MAX_LIVE_BYTES_PER_RECOVERED_TREE})"
    );

    // Every tree misses its deadline and the leaves are drained of the
    // originals and the compensations fanned out to them. What stays of a
    // decided tree is its outcome notification, which carries no payload,
    // so replayed it must not hold the verdict record it came from.
    clock.advance(Millis(3_600_001));
    let outcomes = |qm: &QueueManager| qm.queue("DS.OUTCOME.Q").unwrap().depth() as u64;
    assert_eq!(outcomes(&qm), WARM_UP + SENDS);
    assert_eq!(shapes(&qm).get(), 0, "no decided tree holds its shape");
    for queue in LEAVES {
        let mut session = qm.session();
        session.begin().unwrap();
        while session.get(queue, Wait::NoWait).unwrap().is_some() {}
        session.commit().unwrap();
    }
    drop(messenger);
    qm.shutdown();
    drop(qm);
    let live = LIVE.load(Ordering::Relaxed);
    let (qm, messenger) = reopen(&root, &SimClock::new());
    let per_decided_tree = (LIVE.load(Ordering::Relaxed) - live) as f64 / trees;
    println!("live heap bytes per recovered decided tree: {per_decided_tree:.0}");
    assert_eq!(outcomes(&qm), WARM_UP + SENDS);
    assert!(
        per_decided_tree <= MAX_LIVE_BYTES_PER_DECIDED_TREE,
        "{per_decided_tree:.0} live heap bytes per recovered decided tree \
         (bound {MAX_LIVE_BYTES_PER_DECIDED_TREE})"
    );

    // The application takes every outcome, and nothing of any tree is left
    // on any queue: not on the sender's DS.SLOG.Q, DS.ACK.Q, DS.COMP.Q or
    // DS.OUTCOME.Q, not on the leaves.
    for id in ids {
        let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap();
        assert!(outcome.is_some(), "{id}");
    }
    for name in qm.queue_names() {
        assert_eq!(qm.queue(&name).unwrap().depth(), 0, "{name}");
    }
    assert_eq!(shapes(&qm).high_water(), 0, "nothing pending to compile");
    drop(messenger);
    qm.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Gauge `cond.shapes`: the conditions `qm`'s messenger holds compiled.
fn shapes(qm: &QueueManager) -> Arc<Gauge> {
    qm.obs().metrics().gauge("cond.shapes")
}

/// The manager and messenger recovered from the journal under `root`.
fn reopen(root: &Path, clock: &Arc<SimClock>) -> (Arc<QueueManager>, Arc<ConditionalMessenger>) {
    let journal = SegmentedJournal::open(root, SegmentConfig::default()).unwrap();
    let qm = QueueManager::builder("QM.HEAD")
        .clock(clock.clone())
        .journal(journal)
        .build()
        .unwrap();
    let messenger = ConditionalMessenger::new(qm.clone()).unwrap();
    (qm, messenger)
}
