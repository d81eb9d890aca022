//! Metrics: lock-free atomic cells and the named-metric registry.
//!
//! The cells ([`Counter`], [`Gauge`], [`Histogram`]) are plain `AtomicU64`
//! structures — updating one is a handful of relaxed atomic operations, no
//! locks and no allocation, so they are safe to hit on every hot path.
//! The [`MetricsRegistry`] names cells so observers can discover them: a
//! component registers its cells once at construction time (the only
//! allocating step) and keeps the returned `Arc` handles; readers call
//! [`MetricsRegistry::snapshot`] at any moment and get a consistent-enough
//! point-in-time view without stopping writers.
//!
//! Naming scheme (see DESIGN.md "Observability"):
//! `layer.component[.instance].metric`, e.g. `mq.queue.Q.A.enqueued`,
//! `mq.tx.committed`, `cond.verdict.failure`, `dsphere.aborted`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge tracking a current value and its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Sets the gauge, updating the high-water mark.
    pub fn set(&self, v: u64) {
        self.current.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Reads the high-water mark.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Default bucket upper bounds for latency histograms, in microseconds.
///
/// Covers sub-microsecond in-memory operations up to multi-second stalls;
/// values above the last bound land in the implicit overflow bucket. The
/// sub-10 ms range is deliberately fine-grained (~1.5–2× steps): the
/// pipelined transport's per-batch ack latency sits in the hundreds of
/// microseconds on loopback, and a quantile can only resolve to its
/// bucket's upper bound — with the old 100 → 500 → 1000 → 5000 µs ladder
/// a 300 µs p95 reported as 500 and anything past 1 ms collapsed to
/// 5000. Recording stays a linear scan over a few dozen bounds.
pub const DEFAULT_LATENCY_BOUNDS_US: [u64; 25] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    150,
    200,
    300,
    500,
    750,
    1_000,
    1_500,
    2_000,
    3_000,
    5_000,
    7_500,
    10_000,
    20_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket bounds are fixed at construction; recording a sample is a linear
/// scan over at most a few dozen bounds plus three relaxed atomic adds —
/// no locks, no allocation.
pub struct Histogram {
    bounds: Vec<u64>,
    /// One cell per bound plus a final overflow cell.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(&DEFAULT_LATENCY_BOUNDS_US)
    }
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    /// A sample `v` lands in the first bucket with `v <= bound`, or in the
    /// overflow bucket past the last bound.
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records an elapsed [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (one per bound, plus the overflow bucket last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the value at quantile `q` (0.0..=1.0) as the upper bound
    /// of the bucket containing that rank. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or_else(|| self.max());
            }
        }
        self.max()
    }
}

/// Point-in-time copy of a [`Gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub current: u64,
    /// High-water mark at snapshot time.
    pub high_water: u64,
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (overflow bucket last).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time view of every named metric in a [`MetricsRegistry`].
///
/// Writers are never stopped, so counters keep moving while the snapshot
/// is taken; each individual cell is read atomically.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total number of named metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of metrics with a non-zero value (counter > 0, gauge
    /// high-water > 0, histogram with at least one sample).
    pub fn populated(&self) -> usize {
        self.counters.values().filter(|v| **v > 0).count()
            + self.gauges.values().filter(|g| g.high_water > 0).count()
            + self.histograms.values().filter(|h| h.count > 0).count()
    }

    /// Renders the snapshot as aligned `name value` lines for logs and the
    /// experiment binaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, g) in &self.gauges {
            out.push_str(&format!(
                "{name} {} (high-water {})\n",
                g.current, g.high_water
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name} count={} mean={:.1} p50={} p99={} max={}\n",
                h.count,
                h.mean(),
                quantile_of(h, 0.50),
                quantile_of(h, 0.99),
                h.max,
            ));
        }
        out
    }
}

fn quantile_of(h: &HistogramSnapshot, q: f64) -> u64 {
    let total: u64 = h.buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return h.bounds.get(i).copied().unwrap_or(h.max);
        }
    }
    h.max
}

/// A registry of named metric cells.
///
/// `counter` / `gauge` / `histogram` are get-or-create: the first call for
/// a name registers the cell, later calls return the same `Arc`. Components
/// register at construction time and hold the handles — lookups never
/// happen on hot paths.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it if new.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, registering it if new.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name` (default latency buckets),
    /// registering it if new.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Registers an externally-owned counter cell under `name` so it shows
    /// up in [`MetricsRegistry::snapshot`]. If the name is already taken
    /// the existing cell wins (first registration sticks) — components that
    /// own their cells (e.g. a journal created before the registry) call
    /// this once when attached to a manager.
    pub fn register_counter(&self, name: &str, cell: &Arc<Counter>) {
        self.counters
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| cell.clone());
    }

    /// Registers an externally-owned gauge cell under `name`; first
    /// registration sticks (see [`MetricsRegistry::register_counter`]).
    pub fn register_gauge(&self, name: &str, cell: &Arc<Gauge>) {
        self.gauges
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| cell.clone());
    }

    /// Registers an externally-owned histogram cell under `name`; first
    /// registration sticks (see [`MetricsRegistry::register_counter`]).
    pub fn register_histogram(&self, name: &str, cell: &Arc<Histogram>) {
        self.histograms
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| cell.clone());
    }

    /// Takes a point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    GaugeSnapshot {
                        current: v.get(),
                        high_water: v.high_water(),
                    },
                )
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: v.bounds().to_vec(),
                        buckets: v.bucket_counts(),
                        count: v.count(),
                        sum: v.sum(),
                        max: v.max(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Per-queue statistics, registered as `mq.queue.<name>.*`.
#[derive(Debug, Default)]
pub struct QueueStats {
    /// Messages successfully enqueued.
    pub enqueued: Arc<Counter>,
    /// Messages consumed (non-transactionally, or by committed transactions).
    pub dequeued: Arc<Counter>,
    /// Messages discarded because their expiry passed.
    pub expired: Arc<Counter>,
    /// Messages returned to the queue by transaction rollback.
    pub redelivered: Arc<Counter>,
    /// Messages rerouted to the dead-letter queue.
    pub dead_lettered: Arc<Counter>,
    /// Browse operations served.
    pub browses: Arc<Counter>,
    /// Queue depth gauge (with high-water mark).
    pub depth: Arc<Gauge>,
}

impl QueueStats {
    /// Creates stats whose cells are registered in `registry` under
    /// `mq.queue.<queue>.*`.
    pub fn registered(registry: &MetricsRegistry, queue: &str) -> QueueStats {
        // Each name is spelled out as a full literal so the registry
        // lint can check it against the declared metric-name registry.
        QueueStats {
            enqueued: registry.counter(&format!("mq.queue.{queue}.enqueued")),
            dequeued: registry.counter(&format!("mq.queue.{queue}.dequeued")),
            expired: registry.counter(&format!("mq.queue.{queue}.expired")),
            redelivered: registry.counter(&format!("mq.queue.{queue}.redelivered")),
            dead_lettered: registry.counter(&format!("mq.queue.{queue}.dead_lettered")),
            browses: registry.counter(&format!("mq.queue.{queue}.browses")),
            depth: registry.gauge(&format!("mq.queue.{queue}.depth")),
        }
    }
}

/// Per-queue-manager statistics, registered as `mq.*`.
#[derive(Debug, Default)]
pub struct ManagerStats {
    /// Transactions committed.
    pub tx_committed: Arc<Counter>,
    /// Transactions rolled back.
    pub tx_rolled_back: Arc<Counter>,
    /// Puts handed to a consumer parked in a get (outside a transaction,
    /// or with a pick-up): the put and that get written by no record.
    pub handed: Arc<Counter>,
    /// Of those, puts whose consumer's pick-up the same record carried
    /// ([`crate::PickUp`]): a read and its arrival in one record.
    pub picked_up: Arc<Counter>,
    /// Messages forwarded to remote queue managers.
    pub forwarded: Arc<Counter>,
    /// Messages received from remote queue managers.
    pub received_remote: Arc<Counter>,
    /// Latency of durable journal appends (put + fsync where the backend
    /// syncs), in microseconds.
    pub journal_append_micros: Arc<Histogram>,
    /// Channel handoffs released and not yet covered by a record: what a
    /// crash now would re-send (bounded by `mq::channel::MAX_RELEASED`).
    /// One cell per manager, `mq.channel.<manager>.released`: each sets it
    /// to its own count, so managers sharing a registry keep theirs apart.
    pub released: Arc<Gauge>,
    /// Records written for released handoffs alone: the bound was reached,
    /// the manager sat idle, or it shut down (the trace says which).
    pub release_flushes: Arc<Counter>,
    /// Message images assembled: one per persistent put a journal record
    /// carries, and (the transport counts into the same cell) one per
    /// message a batch frame carries.
    pub encodes: Arc<Counter>,
    /// Checkpoints a commit found due and could not write (a refused
    /// sweep, or the journal refusing the image); the next commit retries.
    pub checkpoints_refused: Arc<Counter>,
}

impl ManagerStats {
    /// Creates the stats of manager `manager`, whose cells are registered
    /// in `registry`.
    pub fn registered(registry: &MetricsRegistry, manager: &str) -> ManagerStats {
        ManagerStats {
            tx_committed: registry.counter("mq.tx.committed"),
            tx_rolled_back: registry.counter("mq.tx.rolled_back"),
            handed: registry.counter("mq.tx.handed"),
            picked_up: registry.counter("mq.tx.picked_up"),
            forwarded: registry.counter("mq.forwarded"),
            received_remote: registry.counter("mq.received_remote"),
            journal_append_micros: registry.histogram("mq.journal.append_micros"),
            released: registry.gauge(&format!("mq.channel.{manager}.released")),
            release_flushes: registry.counter("mq.channel.release_flushes"),
            encodes: registry.counter("mq.codec.encodes"),
            checkpoints_refused: registry.counter("mq.checkpoint.refused"),
        }
    }
}

/// Relay-federation statistics for one queue manager, registered as
/// `mq.relay.*`. Counts what happens to envelopes arriving from channels:
/// accepted locally, forwarded downstream, discarded as duplicates, or
/// dead-lettered because no viable next hop exists.
#[derive(Debug, Default)]
pub struct RelayStats {
    /// Envelopes accepted from a channel and delivered to a local queue.
    pub delivered_local: Arc<Counter>,
    /// In-transit envelopes re-enqueued toward their destination manager.
    pub forwarded: Arc<Counter>,
    /// Envelopes discarded by the manager-level idempotency check
    /// (origin-manager + message id already seen).
    pub duplicates: Arc<Counter>,
    /// Envelopes dead-lettered by the relay (unknown destination manager,
    /// hop count exhausted, TTL expired).
    pub dead_lettered: Arc<Counter>,
    /// Hop count observed on each envelope when it arrived here.
    pub hops: Arc<Histogram>,
    /// Envelopes per arrival commit: how many messages one journal record
    /// of [`crate::QueueManager::accept_batch`] took custody of.
    pub accept_batch: Arc<Histogram>,
}

impl RelayStats {
    /// Creates stats whose cells are registered in `registry`.
    pub fn registered(registry: &MetricsRegistry) -> RelayStats {
        RelayStats {
            delivered_local: registry.counter("mq.relay.delivered_local"),
            forwarded: registry.counter("mq.relay.forwarded"),
            duplicates: registry.counter("mq.relay.duplicates"),
            dead_lettered: registry.counter("mq.relay.dead_lettered"),
            hops: registry.histogram("mq.relay.hops"),
            accept_batch: registry.histogram("mq.relay.accept_batch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_increments() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.set(3);
        g.set(10);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 10);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = std::sync::Arc::new(Counter::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn histogram_buckets_samples_at_bounds() {
        let h = Histogram::new(&[10, 100, 1000]);
        // Boundary values land in the bucket whose bound they equal.
        h.record(0);
        h.record(10); // first bucket (v <= 10)
        h.record(11); // second bucket
        h.record(100); // second bucket
        h.record(101); // third bucket
        h.record(1000); // third bucket
        h.record(1001); // overflow
        h.record(u64::MAX); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let h = Histogram::new(&[1, 2, 4, 8, 16]);
        for v in [1, 1, 2, 3, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 21);
        assert!((h.mean() - 3.5).abs() < f64::EPSILON);
        assert_eq!(h.max(), 9);
        // Ranks: 2×≤1, 1×≤2, 1×≤4, 1×≤8, 1×≤16.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), 16);
        // Empty histogram.
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn histogram_default_bounds_cover_latencies() {
        let h = Histogram::default();
        h.record_duration(std::time::Duration::from_micros(7));
        h.record_duration(std::time::Duration::from_millis(3));
        assert_eq!(h.count(), 2);
        assert_eq!(h.bounds(), &DEFAULT_LATENCY_BOUNDS_US);
    }

    #[test]
    fn default_bounds_resolve_sub_millisecond_quantiles() {
        // A sub-millisecond batch p95 must be measurable: samples in the
        // hundreds of microseconds may not collapse into a ≥1 ms bucket.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(280);
        }
        assert_eq!(h.quantile(0.95), 300, "p95 resolves below 1 ms");
        // And the 1–10 ms band keeps sub-5 ms resolution.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1_400);
        }
        assert_eq!(h.quantile(0.95), 1_500);
    }

    #[test]
    fn registry_get_or_create_returns_same_cell() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.incr();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let g1 = r.gauge("x.depth");
        let g2 = r.gauge("x.depth");
        assert!(Arc::ptr_eq(&g1, &g2));
        let h1 = r.histogram("x.lat");
        let h2 = r.histogram("x.lat");
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn snapshot_reflects_registered_metrics() {
        let r = MetricsRegistry::new();
        r.counter("a").add(3);
        r.gauge("b").set(7);
        r.histogram("c").record(42);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.gauges["b"].high_water, 7);
        assert_eq!(snap.histograms["c"].count, 1);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.populated(), 3);
        let text = snap.render();
        assert!(text.contains("a 3"), "{text}");
        assert!(text.contains("b 7"), "{text}");
        assert!(text.contains("c count=1"), "{text}");
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writers() {
        let r = Arc::new(MetricsRegistry::new());
        let c = r.counter("w.count");
        let h = r.histogram("w.lat");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let (c, h, stop) = (c.clone(), h.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        c.incr();
                        h.record(n % 2000);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        // Counters and histograms must only move forward between snapshots,
        // and each histogram snapshot must be internally consistent
        // (bucket counts sum to at most the concurrently-advancing total).
        let mut last_count = 0u64;
        for _ in 0..50 {
            let snap = r.snapshot();
            let count = snap.counter("w.count");
            assert!(count >= last_count, "counter went backwards");
            last_count = count;
            let hist = &snap.histograms["w.lat"];
            let bucket_sum: u64 = hist.buckets.iter().sum();
            assert!(
                bucket_sum <= hist.count + 4,
                "bucket sum {bucket_sum} far beyond count {hist:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(r.snapshot().counter("w.count"), written);
        assert_eq!(r.snapshot().histograms["w.lat"].count, written);
    }

    #[test]
    fn registered_queue_and_manager_stats_appear_in_snapshot() {
        let r = MetricsRegistry::new();
        let qs = QueueStats::registered(&r, "Q.A");
        let ms = ManagerStats::registered(&r, "QM1");
        qs.enqueued.incr();
        qs.depth.set(5);
        ms.tx_committed.incr();
        ms.journal_append_micros.record(12);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mq.queue.Q.A.enqueued"), 1);
        assert_eq!(snap.gauges["mq.queue.Q.A.depth"].high_water, 5);
        assert_eq!(snap.counter("mq.tx.committed"), 1);
        assert_eq!(snap.histograms["mq.journal.append_micros"].count, 1);
    }
}
