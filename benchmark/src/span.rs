//! Tracing from outside the program: spans the benchmark places around
//! public calls, and [`SpanJournal`], a [`Journal`] wrapper that delegates
//! to the real backend while counting and timing every `append`,
//! `write_checkpoint` and `replay`.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the part of its interval its children
//! cover. Journal appends do not know who caused them, so they are
//! attributed afterwards: an append on the generator's own thread belongs
//! to the call span whose interval contains it; an append on one of the
//! program's threads (channel movers, acceptors) belongs to the wait span
//! (`channel.forward`, `channel.ack_return`) of the hop it serves.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mq::journal::{Journal, JournalRecord, ReplaySink};
use mq::{MetricsRegistry, MqResult};

use crate::json::Value;
use crate::stats;

/// Name of the spans [`SpanJournal::append`] records.
pub const JOURNAL_APPEND: &str = "journal.append";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`messenger.send`, `journal.append`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Conditional message id shared by all spans of one round trip.
    pub cond_id: u128,
    /// Small per-thread number (not the OS tid).
    pub thread: u64,
    /// Manager role for journal spans (`head`/`relay`/`tail`), else empty.
    pub role: &'static str,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A small stable number for the calling thread.
pub fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: Cell<u64> = const { Cell::new(0) };
    }
    NUMBER.with(|n| {
        if n.get() == 0 {
            // Relaxed: a unique-id counter publishes no other data.
            n.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        n.get()
    })
}

/// In-memory span store shared by the stepped driver and every
/// [`SpanJournal`] of a run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that starts switched off (the loaded window only counts).
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// `at` on this recorder's time axis.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Switches span recording on or off (counters always run).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn is_recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Stores a span and returns its index (`None` while switched off).
    pub fn record(&self, span: Span) -> Option<usize> {
        if !self.is_recording() {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Moves the end of an already recorded span (a root span is opened
    /// before its children and closed after them).
    pub fn close(&self, index: usize, end: Instant) {
        let end_ns = self.ns_of(end);
        if let Some(span) = self
            .spans
            .lock()
            .expect("span store poisoned")
            .get_mut(index)
        {
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// Takes every recorded span out of the recorder.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Counters one [`SpanJournal`] keeps; read with [`JournalStats::counts`].
#[derive(Debug)]
pub struct JournalStats {
    role: &'static str,
    appends: AtomicU64,
    busy_ns: AtomicU64,
    inflight: AtomicU64,
    inflight_sum: AtomicU64,
    grown_bytes: AtomicU64,
    last_len: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_ns: AtomicU64,
    replays: AtomicU64,
    replay_ns: AtomicU64,
    /// Per-append durations; `None` when only counting (untraced runs).
    append_ns: Option<Mutex<Vec<u32>>>,
}

/// A point-in-time copy of [`JournalStats`]; subtract two for a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JournalCounts {
    /// `append` calls completed.
    pub appends: u64,
    /// Total time inside `append`, nanoseconds.
    pub busy_ns: u64,
    /// Sum over appends of how many other appends were already in flight
    /// on this journal when it started.
    pub inflight_sum: u64,
    /// Positive `len_bytes()` growth observed across appends.
    pub grown_bytes: u64,
    /// `write_checkpoint` calls completed.
    pub checkpoints: u64,
    /// Total time inside `write_checkpoint`, nanoseconds.
    pub checkpoint_ns: u64,
    /// `replay` calls completed.
    pub replays: u64,
    /// Total time inside `replay`, nanoseconds.
    pub replay_ns: u64,
}

impl JournalCounts {
    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &JournalCounts) -> JournalCounts {
        JournalCounts {
            appends: self.appends - earlier.appends,
            busy_ns: self.busy_ns - earlier.busy_ns,
            inflight_sum: self.inflight_sum - earlier.inflight_sum,
            grown_bytes: self.grown_bytes - earlier.grown_bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_ns: self.checkpoint_ns - earlier.checkpoint_ns,
            replays: self.replays - earlier.replays,
            replay_ns: self.replay_ns - earlier.replay_ns,
        }
    }

    /// Counter-wise sum (all roles of a topology).
    pub fn plus(&self, other: &JournalCounts) -> JournalCounts {
        JournalCounts {
            appends: self.appends + other.appends,
            busy_ns: self.busy_ns + other.busy_ns,
            inflight_sum: self.inflight_sum + other.inflight_sum,
            grown_bytes: self.grown_bytes + other.grown_bytes,
            checkpoints: self.checkpoints + other.checkpoints,
            checkpoint_ns: self.checkpoint_ns + other.checkpoint_ns,
            replays: self.replays + other.replays,
            replay_ns: self.replay_ns + other.replay_ns,
        }
    }
}

impl JournalStats {
    /// Fresh counters for the manager playing `role`. `keep_samples`
    /// additionally keeps every append's duration (traced runs).
    pub fn new(role: &'static str, keep_samples: bool) -> Arc<JournalStats> {
        Arc::new(JournalStats {
            role,
            appends: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            inflight_sum: AtomicU64::new(0),
            grown_bytes: AtomicU64::new(0),
            last_len: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            replay_ns: AtomicU64::new(0),
            append_ns: keep_samples.then(|| Mutex::new(Vec::new())),
        })
    }

    /// The manager role these counters belong to.
    pub fn role(&self) -> &'static str {
        self.role
    }

    /// Current counter values. All cells are statistics read after the
    /// threads that wrote them have quiesced or with tolerance for a
    /// few in-flight updates, hence `Relaxed`.
    pub fn counts(&self) -> JournalCounts {
        JournalCounts {
            appends: self.appends.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            inflight_sum: self.inflight_sum.load(Ordering::Relaxed),
            grown_bytes: self.grown_bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_ns: self.checkpoint_ns.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            replay_ns: self.replay_ns.load(Ordering::Relaxed),
        }
    }

    /// Number of per-append durations recorded so far: a cursor for
    /// [`JournalStats::append_ns_since`].
    pub fn append_cursor(&self) -> usize {
        self.append_ns
            .as_ref()
            .map_or(0, |s| s.lock().expect("append samples poisoned").len())
    }

    /// Per-append durations (nanoseconds) recorded since `cursor`.
    pub fn append_ns_since(&self, cursor: usize) -> Vec<f64> {
        let Some(samples) = &self.append_ns else {
            return Vec::new();
        };
        let samples = samples.lock().expect("append samples poisoned");
        samples[cursor.min(samples.len())..]
            .iter()
            .map(|ns| f64::from(*ns))
            .collect()
    }
}

/// A [`Journal`] that delegates everything to `inner` and measures it.
pub struct SpanJournal {
    inner: Arc<dyn Journal>,
    stats: Arc<JournalStats>,
    recorder: Arc<Recorder>,
}

impl fmt::Debug for SpanJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanJournal")
            .field("role", &self.stats.role)
            .field("inner", &self.inner)
            .finish()
    }
}

impl SpanJournal {
    /// Wraps `inner`, reporting into `stats` and (while it records) into
    /// `recorder`.
    pub fn wrap(
        inner: Arc<dyn Journal>,
        stats: Arc<JournalStats>,
        recorder: Arc<Recorder>,
    ) -> Arc<SpanJournal> {
        stats.last_len.store(inner.len_bytes(), Ordering::Relaxed);
        Arc::new(SpanJournal {
            inner,
            stats,
            recorder,
        })
    }
}

impl Journal for SpanJournal {
    fn append(&self, record: &JournalRecord) -> MqResult<()> {
        let stats = &self.stats;
        let already = stats.inflight.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = self.inner.append(record);
        let end = Instant::now();
        stats.inflight.fetch_sub(1, Ordering::Relaxed);
        let ns = end.duration_since(start).as_nanos() as u64;
        stats.inflight_sum.fetch_add(already, Ordering::Relaxed);
        stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        stats.appends.fetch_add(1, Ordering::Relaxed);
        let len = self.inner.len_bytes();
        let before = stats.last_len.swap(len, Ordering::Relaxed);
        stats
            .grown_bytes
            .fetch_add(len.saturating_sub(before), Ordering::Relaxed);
        if let Some(samples) = &stats.append_ns {
            samples
                .lock()
                .expect("append samples poisoned")
                .push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        self.recorder.record(Span {
            name: JOURNAL_APPEND,
            start_ns: self.recorder.ns_of(start),
            end_ns: self.recorder.ns_of(end),
            parent: None,
            cond_id: 0,
            thread: thread_number(),
            role: stats.role,
        });
        result
    }

    fn replay(&self, sink: &mut ReplaySink<'_>) -> MqResult<()> {
        let start = Instant::now();
        let result = self.inner.replay(sink);
        self.stats
            .replay_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.replays.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn write_checkpoint(&self, records: &mut dyn Iterator<Item = JournalRecord>) -> MqResult<()> {
        let start = Instant::now();
        let result = self.inner.write_checkpoint(records);
        self.stats
            .checkpoint_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        // Truncation shrinks the log; growth is counted from the new base.
        self.stats
            .last_len
            .store(self.inner.len_bytes(), Ordering::Relaxed);
        result
    }

    fn reset(&self) -> MqResult<()> {
        let result = self.inner.reset();
        self.stats
            .last_len
            .store(self.inner.len_bytes(), Ordering::Relaxed);
        result
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn register_metrics(&self, registry: &MetricsRegistry) {
        self.inner.register_metrics(registry);
    }
}

/// The spans of one stepped round trip, by index into the span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cycle {
    /// The root span covering the whole round trip.
    pub root: usize,
    /// Call spans made on the generator's thread, in order.
    pub calls: Vec<usize>,
    /// `(first span of the hop, wait span)`: the program's threads working
    /// anywhere from the first span's start to the wait span's end are
    /// serving that hop.
    pub hops: Vec<(usize, usize)>,
}

/// Gives every parentless [`JOURNAL_APPEND`] span its parent (and that
/// parent's cond-id) per the module-level rule. `cycles` must be in
/// chronological order, as the stepped driver produces them.
pub fn attribute_journal_spans(spans: &mut [Span], cycles: &[Cycle], generator_thread: u64) {
    let orphans: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == JOURNAL_APPEND && spans[i].parent.is_none())
        .collect();
    for idx in orphans {
        let at = spans[idx].start_ns;
        let pos = cycles.partition_point(|c| spans[c.root].end_ns <= at);
        let Some(cycle) = cycles.get(pos) else {
            continue;
        };
        if at < spans[cycle.root].start_ns {
            continue;
        }
        let within =
            |first: usize, last: usize| spans[first].start_ns <= at && at < spans[last].end_ns;
        let parent = if spans[idx].thread == generator_thread {
            cycle.calls.iter().copied().find(|&c| within(c, c))
        } else {
            cycle
                .hops
                .iter()
                .find(|(first, wait)| within(*first, *wait))
                .map(|(_, wait)| *wait)
        }
        .unwrap_or(cycle.root);
        spans[idx].parent = Some(parent);
        spans[idx].cond_id = spans[parent].cond_id;
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, so overlapping children on different
/// threads are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median, in microseconds, of `values_ns` over the spans named `name`.
pub fn p50_us(spans: &[Span], values_ns: &[u64], name: &str) -> f64 {
    let picked: Vec<f64> = spans
        .iter()
        .zip(values_ns)
        .filter(|(span, _)| span.name == name)
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    stats::median(&picked)
}

/// One JSON line per span: name, start_ns, end_ns, parent, cond_id (hex),
/// plus the span's own index, thread number and manager role.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let mut line = Value::obj()
            .with("id", id)
            .with("name", span.name)
            .with("start_ns", span.start_ns)
            .with("end_ns", span.end_ns)
            .with("parent", span.parent.map_or(Value::Null, Value::from))
            .with("cond_id", format!("{:032x}", span.cond_id))
            .with("thread", span.thread);
        if !span.role.is_empty() {
            line.set("role", span.role);
        }
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq::journal::MemJournal;
    use mq::Message;

    fn put(queue: &str, text: &str) -> JournalRecord {
        JournalRecord::Put {
            queue: queue.into(),
            message: Message::text(text).persistent(true).build(),
        }
    }

    #[test]
    fn span_journal_delegates_and_replay_round_trips() {
        let inner = MemJournal::new();
        let stats = JournalStats::new("head", true);
        let recorder = Recorder::new();
        let journal = SpanJournal::wrap(inner.clone(), stats.clone(), recorder.clone());
        let records = vec![
            JournalRecord::QueueCreated { queue: "Q".into() },
            put("Q", "one"),
            put("Q", "two"),
        ];
        for r in &records {
            journal.append(r).unwrap();
        }
        // Every record reached the real backend, in order, and comes back
        // identically through the wrapper.
        assert_eq!(inner.record_count(), 3);
        assert_eq!(journal.replay_collect().unwrap(), records);
        assert_eq!(inner.replay_collect().unwrap(), records);
        assert_eq!(journal.len_bytes(), inner.len_bytes());
        assert!(journal.is_durable());

        let counts = stats.counts();
        assert_eq!((counts.appends, counts.replays), (3, 1));
        assert_eq!(
            counts.inflight_sum, 0,
            "single-threaded appends never overlap"
        );
        assert_eq!(counts.grown_bytes, inner.len_bytes());
        assert_eq!(stats.append_ns_since(1).len(), 2);
        // Switched off: counted, but no spans kept.
        assert!(recorder.take().is_empty());

        // A checkpoint replaces the log in the backend and is counted.
        journal
            .write_checkpoint(&mut vec![put("Q", "snapshot")].into_iter())
            .unwrap();
        assert_eq!(inner.record_count(), 1);
        assert_eq!(stats.counts().checkpoints, 1);
        journal.reset().unwrap();
        assert_eq!(inner.record_count(), 0);

        recorder.set_recording(true);
        journal.append(&put("Q", "traced")).unwrap();
        let spans = recorder.take();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].role), (JOURNAL_APPEND, "head"));
        assert_eq!(spans[0].thread, thread_number());
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cond_id: if parent.is_some() || name == "cycle" {
                7
            } else {
                0
            },
            thread,
            role: "",
        }
    }

    #[test]
    fn journal_children_land_on_the_right_parent() {
        const GEN: u64 = 1;
        const MOVER: u64 = 2;
        let mut spans = vec![
            span("cycle", 0, 1000, None, GEN),                  // 0
            span("messenger.send", 0, 200, Some(0), GEN),       // 1
            span("channel.forward", 200, 500, Some(0), GEN),    // 2
            span("receiver.read", 500, 700, Some(0), GEN),      // 3
            span("channel.ack_return", 700, 900, Some(0), GEN), // 4
            span("messenger.pump", 900, 1000, Some(0), GEN),    // 5
            span(JOURNAL_APPEND, 50, 150, None, GEN),           // 6: inside send, same thread
            span(JOURNAL_APPEND, 180, 260, None, MOVER),        // 7: mover, overlaps send's end
            span(JOURNAL_APPEND, 300, 400, None, MOVER),        // 8: mover during forward
            span(JOURNAL_APPEND, 550, 650, None, GEN),          // 9: inside read, same thread
            span(JOURNAL_APPEND, 720, 800, None, MOVER),        // 10: ack hop
            span(JOURNAL_APPEND, 920, 960, None, GEN),          // 11: inside pump
            span(JOURNAL_APPEND, 5000, 5100, None, MOVER),      // 12: after every cycle
        ];
        let cycles = vec![Cycle {
            root: 0,
            calls: vec![1, 3, 5],
            hops: vec![(1, 2), (3, 4)],
        }];
        attribute_journal_spans(&mut spans, &cycles, GEN);
        let parents: Vec<Option<usize>> = spans[6..].iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            vec![Some(1), Some(2), Some(2), Some(3), Some(4), Some(5), None]
        );
        assert!(spans[6..12].iter().all(|s| s.cond_id == 7));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("messenger.send", 0, 1000, None, 1),    // 0
            span(JOURNAL_APPEND, 100, 300, Some(0), 1),  // 1
            span(JOURNAL_APPEND, 200, 500, Some(0), 2),  // 2: overlaps 1
            span(JOURNAL_APPEND, 900, 1200, Some(0), 2), // 3: runs past the parent
            span("receiver.read", 2000, 2400, None, 1),  // 4: no children
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [100,500) and [900,1000): 500 ns of the 1000.
        assert_eq!(selfs[0], 500);
        assert_eq!(selfs[1], 200);
        assert_eq!(selfs[4], 400);
        assert_eq!(p50_us(&spans, &selfs, "messenger.send"), 0.5);
        assert_eq!(p50_us(&spans, &selfs, "missing"), 0.0);
        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 5);
        let first = Value::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("name").and_then(Value::as_str),
            Some("messenger.send")
        );
        assert_eq!(first.get("parent"), Some(&Value::Null));
    }
}
