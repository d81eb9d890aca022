//! Write-ahead journal giving queues their "reliable" in reliable messaging.
//!
//! Every state change involving *persistent* messages is appended to a
//! journal before it takes effect (WAL discipline). After a crash,
//! rebuilding a [`crate::QueueManager`] over the same journal replays it to
//! rebuild queue contents exactly: committed transactions reappear
//! atomically (a put or get outside a transaction is a transaction of one),
//! uncommitted gets roll back (no `TxCommit` ever named their messages), and
//! non-persistent messages vanish — the same guarantees MQSeries gives
//! the conditional-messaging layer. A message enters or leaves a queue by
//! one record kind, `TxCommit`: a delivery, a dead-lettering, a purge and
//! the expiry of a message past its TTL are all gets of a transaction.
//!
//! Two backends:
//! * [`SegmentedJournal`] — the one on-disk log: a directory holding a
//!   single chain of bounded segment files. Concurrent appenders share
//!   fsyncs (leader/follower group commit), checkpoint truncation is
//!   tmp-then-rename plus `unlink()` of whole segments, and recovery is
//!   O(live state) instead of O(history).
//! * [`MemJournal`] — a test double: encoded records in memory. It
//!   survives a *simulated* crash (the journal object outlives the
//!   manager), exercises the full codec path, and carries the scriptable
//!   storage faults (failing appends, a torn tail) that failure-injection
//!   tests and the scenario engine's fault schedules drive.

mod segment;

pub use segment::{SegmentConfig, SegmentedJournal};

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::codec::{crc32, CodecError, Decoder, Encoder, IdCursor, WireDecode, WireEncode};
use crate::error::{MqError, MqResult};
use crate::message::{Message, MessageId};
use crate::stats::MetricsRegistry;

/// A single journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A queue was created.
    QueueCreated {
        /// Queue name.
        queue: String,
    },
    /// A queue was deleted (its messages are discarded).
    QueueDeleted {
        /// Queue name.
        queue: String,
    },
    /// A live persistent message: one row of a checkpoint snapshot.
    Put {
        /// The queue it is on.
        queue: String,
        /// The full message.
        message: Message,
    },
    /// A transaction committed: all gets and puts apply atomically. The
    /// only record by which a message enters or leaves a queue.
    TxCommit {
        /// Messages enqueued by the transaction, each with the name of its
        /// queue. Only the persistent ones are written (a volatile message
        /// never reaches the journal), so a decoded record holds those
        /// alone.
        puts: Vec<(Arc<str>, Message)>,
        /// Messages consumed by the transaction.
        gets: Vec<(Arc<str>, MessageId)>,
    },
    /// Opens a checkpoint: a self-contained snapshot of all live persistent
    /// state follows as ordinary [`JournalRecord::Put`] records, closed by a
    /// [`JournalRecord::CheckpointEnd`] carrying the same id. Recovery
    /// buffers the snapshot and *replaces* all previously replayed state
    /// with it only when the matching end marker arrives, so a checkpoint
    /// torn by a crash is ignored and the pre-checkpoint records (which
    /// truncation only removes after the end marker is durable) still win.
    CheckpointStart {
        /// Matches this start with its [`JournalRecord::CheckpointEnd`].
        checkpoint_id: u64,
        /// Every queue existing at checkpoint time (including empty ones).
        queues: Vec<String>,
        /// The relay deduper window, oldest first: `(origin hash, message
        /// id)` idempotency keys the manager must still refuse after
        /// recovery even though the arrival records were truncated away.
        dedup: Vec<(u64, u128)>,
    },
    /// Closes the checkpoint opened by the [`JournalRecord::CheckpointStart`]
    /// with the same id; only now may storage below the checkpoint be
    /// truncated.
    CheckpointEnd {
        /// Matches the opening [`JournalRecord::CheckpointStart`].
        checkpoint_id: u64,
    },
}

impl WireEncode for JournalRecord {
    /// The record on its own: its ids start from a fresh cursor.
    fn encode(&self, enc: &mut Encoder) {
        self.encode_after(enc, &mut IdCursor::default());
    }
}

impl WireDecode for JournalRecord {
    /// The record on its own: its ids start from a fresh cursor.
    fn decode(dec: &mut Decoder) -> Result<Self, CodecError> {
        JournalRecord::decode_after(dec, &mut IdCursor::default())
    }
}

// lint: registry-sink journal-tag
impl JournalRecord {
    /// Encodes the record with its ids continuing from `ids`, the cursor
    /// the id written before the record left: a [`SegmentedJournal`]
    /// carries one cursor through a segment file, so a record's first id
    /// is a delta from the last id of the frame before it. A
    /// `CheckpointStart` alone starts from a fresh cursor and leaves `ids`
    /// as it was, so it may be written behind a frame whose cursor the
    /// writer does not know. Whatever decodes the record must hand
    /// [`JournalRecord::decode_after`] the cursor this call was handed.
    pub(crate) fn encode_after(&self, enc: &mut Encoder, ids: &mut IdCursor) {
        match self {
            JournalRecord::QueueCreated { queue } => {
                enc.put_u8(0);
                enc.put_wire_str(queue);
            }
            JournalRecord::QueueDeleted { queue } => {
                enc.put_u8(1);
                enc.put_wire_str(queue);
            }
            // A message's image is assembled from its header, payload and
            // property bytes straight into the record (each assembly counts
            // in `mq.codec.encodes`). A put whose payload equals the
            // previous put's leaves it out, so a fan-out writes it once.
            // Every id is written relative to the one before it: the puts'
            // ids and correlation ids, then the gets' ids, the first of
            // them relative to `ids`.
            JournalRecord::Put { queue, message } => {
                enc.put_u8(13);
                enc.put_wire_str(queue);
                enc.put_image(message, None, ids);
            }
            JournalRecord::TxCommit { puts, gets } => {
                enc.put_u8(14);
                let written = puts.iter().filter(|(_, m)| m.is_persistent());
                enc.put_varint(written.clone().count() as u64);
                let mut previous = None;
                for (q, m) in written {
                    enc.put_wire_str(q);
                    enc.put_image(m, previous, ids);
                    previous = Some(m);
                }
                enc.put_varint(gets.len() as u64);
                for (q, id) in gets {
                    enc.put_wire_str(q);
                    enc.put_id(id.as_u128(), ids);
                }
            }
            JournalRecord::CheckpointStart {
                checkpoint_id,
                queues,
                dedup,
            } => {
                enc.put_u8(7);
                enc.put_u64(*checkpoint_id);
                enc.put_varint(queues.len() as u64);
                for q in queues {
                    enc.put_wire_str(q);
                }
                enc.put_varint(dedup.len() as u64);
                // Its own cursor, not `ids`: see above.
                let mut own = IdCursor::default();
                for (origin, id) in dedup {
                    enc.put_u64(*origin);
                    enc.put_id(*id, &mut own);
                }
            }
            JournalRecord::CheckpointEnd { checkpoint_id } => {
                enc.put_u8(8);
                enc.put_u64(*checkpoint_id);
            }
        }
    }

    /// Decodes a record written by [`JournalRecord::encode_after`] under
    /// the cursor `ids`, moving it as the encoder moved its own.
    pub(crate) fn decode_after(
        dec: &mut Decoder,
        ids: &mut IdCursor,
    ) -> Result<JournalRecord, CodecError> {
        match dec.get_u8()? {
            0 => Ok(JournalRecord::QueueCreated {
                queue: dec.get_wire_str()?,
            }),
            1 => Ok(JournalRecord::QueueDeleted {
                queue: dec.get_wire_str()?,
            }),
            13 => Ok(JournalRecord::Put {
                queue: dec.get_wire_str()?,
                message: dec.get_image(None, ids)?,
            }),
            14 => {
                let n_puts = dec.get_varint()?;
                let mut puts: Vec<(Arc<str>, Message)> =
                    Vec::with_capacity(n_puts.min(1024) as usize);
                for _ in 0..n_puts {
                    let q = dec.get_wire_name()?;
                    let m = dec.get_image(puts.last().map(|(_, p)| p.payload()), ids)?;
                    puts.push((q, m));
                }
                let n_gets = dec.get_varint()?;
                let mut gets = Vec::with_capacity(n_gets.min(1024) as usize);
                for _ in 0..n_gets {
                    let q = dec.get_wire_name()?;
                    let id = MessageId::from_u128(dec.get_id(ids)?);
                    gets.push((q, id));
                }
                Ok(JournalRecord::TxCommit { puts, gets })
            }
            7 => {
                let checkpoint_id = dec.get_u64()?;
                let n_queues = dec.get_varint()?;
                let mut queues = Vec::with_capacity(n_queues.min(1024) as usize);
                for _ in 0..n_queues {
                    queues.push(dec.get_wire_str()?);
                }
                let n_dedup = dec.get_varint()?;
                let mut dedup = Vec::with_capacity(n_dedup.min(4096) as usize);
                let mut own = IdCursor::default();
                for _ in 0..n_dedup {
                    let origin = dec.get_u64()?;
                    let id = dec.get_id(&mut own)?;
                    dedup.push((origin, id));
                }
                Ok(JournalRecord::CheckpointStart {
                    checkpoint_id,
                    queues,
                    dedup,
                })
            }
            8 => Ok(JournalRecord::CheckpointEnd {
                checkpoint_id: dec.get_u64()?,
            }),
            tag => Err(CodecError::BadTag {
                what: "JournalRecord",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------- framing --

/// Frames a pre-encoded body as `[len:u32][crc:u32][body]`, as the
/// segmented journal frames its `[lsn][record]` bodies.
#[cfg(test)]
pub(crate) fn encode_frame_body(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Incremental frame reader over any byte stream of known total length:
/// yields one CRC-checked frame body at a time so replay memory is bounded
/// by the largest record, not the log.
///
/// A torn frame at the very end (short header, short body, or CRC mismatch
/// on the final frame — an interrupted last write) ends the stream
/// silently, and [`FrameStream::ended_torn`] reports it; corruption
/// anywhere earlier is an error.
pub(crate) struct FrameStream<R> {
    reader: R,
    total: u64,
    /// End of the last frame that passed its CRC.
    valid: u64,
}

impl<R: std::io::Read> FrameStream<R> {
    pub(crate) fn new(reader: R, total: u64) -> FrameStream<R> {
        FrameStream {
            reader,
            total,
            valid: 0,
        }
    }

    /// Byte length of the prefix made of whole, CRC-clean frames.
    pub(crate) fn valid_len(&self) -> u64 {
        self.valid
    }

    /// Once [`FrameStream::next_body`] has returned `None`: whether bytes
    /// of a torn frame follow the valid prefix.
    pub(crate) fn ended_torn(&self) -> bool {
        self.valid < self.total
    }

    /// Reads exactly `buf.len()` bytes unless EOF intervenes; returns how
    /// many bytes were actually read.
    fn read_full(&mut self, buf: &mut [u8]) -> MqResult<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.reader.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        Ok(filled)
    }

    /// Returns the next `(frame offset, frame body)`, or `None` at a clean
    /// end of stream / tolerated torn tail.
    ///
    /// # Errors
    ///
    /// [`MqError::JournalCorrupt`] for mid-stream corruption; I/O errors.
    pub(crate) fn next_body(&mut self) -> MqResult<Option<(u64, Bytes)>> {
        let offset = self.valid;
        let mut header = [0u8; 8];
        if self.read_full(&mut header)? < 8 {
            return Ok(None); // clean EOF or torn header at the tail
        }
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let end = offset + 8 + u64::from(len);
        if end > self.total {
            return Ok(None); // torn body at the tail
        }
        let mut body = vec![0u8; len as usize];
        if self.read_full(&mut body)? < body.len() {
            return Ok(None); // the stream is shorter than `total` claimed
        }
        if crc32(&body) != stored_crc {
            if end == self.total {
                return Ok(None); // torn final frame
            }
            return Err(MqError::JournalCorrupt {
                offset,
                reason: "crc mismatch".into(),
            });
        }
        self.valid = end;
        Ok(Some((offset, Bytes::from(body))))
    }
}

// ------------------------------------------------------------------ trait --

/// Visitor receiving replayed records one at a time, in append order.
/// Returning an error aborts the replay and propagates to the caller.
pub type ReplaySink<'a> = dyn FnMut(JournalRecord) -> MqResult<()> + 'a;

/// Abstract append-only journal.
pub trait Journal: Send + Sync + fmt::Debug {
    /// Appends one record durably (returns once the record is stable).
    ///
    /// # Errors
    ///
    /// Propagates storage failures; an error means the state change must not
    /// be applied.
    fn append(&self, record: &JournalRecord) -> MqResult<()>;

    /// Streams all records into `sink` in append order, never holding the
    /// whole log in memory (recovery over a multi-gigabyte journal must be
    /// bounded by live state, not history).
    ///
    /// # Errors
    ///
    /// Reports unreadable storage or mid-file corruption
    /// ([`MqError::JournalCorrupt`]). A torn record at the very end of the
    /// log (interrupted final write) is tolerated and replay stops there.
    /// Sink errors abort the replay and propagate.
    fn replay(&self, sink: &mut ReplaySink<'_>) -> MqResult<()>;

    /// Replays all records into a vector. Convenience for tests and tools;
    /// recovery uses the streaming [`Journal::replay`].
    ///
    /// # Errors
    ///
    /// Same as [`Journal::replay`].
    fn replay_collect(&self) -> MqResult<Vec<JournalRecord>> {
        let mut records = Vec::new();
        self.replay(&mut |rec| {
            records.push(rec);
            Ok(())
        })?;
        Ok(records)
    }

    /// Writes a checkpoint — a [`JournalRecord::CheckpointStart`], the live
    /// snapshot records, and the closing [`JournalRecord::CheckpointEnd`] —
    /// and then discards whatever history the backend can prove is wholly
    /// below it.
    ///
    /// The default implementation just appends (replay's buffer-and-swap
    /// semantics make the checkpoint authoritative even with history still
    /// in front of it); backends that can truncate override this.
    /// [`MemJournal`] atomically replaces its record list; the segmented
    /// journal publishes the snapshot as one fresh segment and deletes
    /// every older one.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; on error the journal still recovers the
    /// pre-checkpoint state (an incomplete checkpoint is ignored on replay).
    fn write_checkpoint(&self, records: &mut dyn Iterator<Item = JournalRecord>) -> MqResult<()> {
        for record in records {
            self.append(&record)?;
        }
        Ok(())
    }

    /// Discards all records. Nothing in the manager calls it: only the
    /// journals' own unit tests and the wrappers that forward to an inner
    /// journal do.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn reset(&self) -> MqResult<()>;

    /// Total journal size in bytes (monotone between resets).
    fn len_bytes(&self) -> u64;

    /// Whether appended records are retained. Every journal retains them,
    /// and nothing in this workspace reads the answer: the manager always
    /// builds and appends its records. The method stays only because
    /// condbench's `SpanJournal` (`benchmark/`, its own workspace) forwards
    /// it.
    fn is_durable(&self) -> bool {
        true
    }

    /// Registers any journal-owned metric cells into `registry`.
    ///
    /// [`crate::QueueManagerBuilder::build`] calls this with the manager's
    /// observability hub so backend-internal counters (the segmented
    /// journal's fsync/batch cells) surface in `mq.*` snapshots. Backends
    /// without internal metrics — the default — register nothing.
    fn register_metrics(&self, registry: &MetricsRegistry) {
        let _ = registry;
    }
}

/// In-memory journal storing encoded records, with scriptable storage
/// faults.
///
/// Keep the `Arc<MemJournal>` across a simulated crash
/// ([`crate::QueueManager::crash`]) and hand it to the restarted manager to
/// model recovery without touching the filesystem; in between, faults can
/// reshape what the restarted manager will recover. Failure-injection
/// tests and the scenario engine's `fail_storage` / `heal_storage` /
/// `tear_journal_tail` actions drive them through the
/// [`FaultPlane`](crate::transport::fault::FaultPlane) surface.
#[derive(Debug, Default)]
pub struct MemJournal {
    /// Encoded records. Never held while a replay sink runs: the sink may
    /// re-enter the journal (e.g. append during recovery).
    // lint: never-hold(MemJournal.records) across sink
    records: Mutex<Vec<Bytes>>,
    /// The buffer each append encodes its record into before copying it
    /// out at its exact length, kept from one append to the next.
    buffer: Mutex<Vec<u8>>,
    bytes: AtomicU64,
    /// While set, every append and checkpoint fails, retaining nothing.
    failing: AtomicBool,
}

impl MemJournal {
    /// Creates an empty in-memory journal with no faults armed.
    pub fn new() -> std::sync::Arc<MemJournal> {
        std::sync::Arc::new(MemJournal::default())
    }

    /// Number of records currently stored.
    pub fn record_count(&self) -> usize {
        self.records.lock().len()
    }

    /// Arms (`true`) or heals (`false`) the storage-failure fault: while
    /// armed, [`Journal::append`] and [`Journal::write_checkpoint`] fail
    /// with [`MqError::Io`] and retain nothing — modelling a full or broken
    /// disk — so callers must not apply the state change.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::SeqCst);
    }

    /// Whether appends are currently failing.
    pub fn is_failing(&self) -> bool {
        self.failing.load(Ordering::SeqCst)
    }

    /// Tears off the newest record, as if its final write was interrupted
    /// mid-frame; returns whether a record was removed. A subsequent
    /// replay simply never sees it — the same silent-tail rule the
    /// segmented journal applies to a short or CRC-broken last frame.
    pub fn tear_tail(&self) -> bool {
        match self.records.lock().pop() {
            Some(dropped) => {
                self.bytes.fetch_sub(dropped.len() as u64, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn check_storage(&self) -> MqResult<()> {
        if self.is_failing() {
            return Err(MqError::Io(std::io::Error::other(
                "injected storage failure",
            )));
        }
        Ok(())
    }
}

impl Journal for MemJournal {
    fn append(&self, record: &JournalRecord) -> MqResult<()> {
        self.check_storage()?;
        let bytes = {
            let mut buffer = self.buffer.lock();
            let mut enc = Encoder::reuse(std::mem::take(&mut *buffer));
            record.encode(&mut enc);
            *buffer = enc.into_vec();
            Bytes::copy_from_slice(&buffer)
        };
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.records.lock().push(bytes);
        Ok(())
    }

    fn replay(&self, sink: &mut ReplaySink<'_>) -> MqResult<()> {
        // Clone the encoded records out so the sink can re-enter the
        // journal (e.g. append) without deadlocking on our mutex.
        let records: Vec<Bytes> = self.records.lock().clone();
        for b in records {
            sink(JournalRecord::from_bytes(b).map_err(MqError::from)?)?;
        }
        Ok(())
    }

    fn write_checkpoint(&self, records: &mut dyn Iterator<Item = JournalRecord>) -> MqResult<()> {
        self.check_storage()?;
        // Atomic replace: the checkpoint becomes the entire journal, so a
        // simulated crash right after sees exactly the snapshot.
        let mut encoded = Vec::new();
        let mut total = 0u64;
        for record in records {
            let bytes = record.to_bytes();
            total += bytes.len() as u64;
            encoded.push(bytes);
        }
        let mut guard = self.records.lock();
        *guard = encoded;
        self.bytes.store(total, Ordering::Relaxed);
        Ok(())
    }

    fn reset(&self) -> MqResult<()> {
        self.records.lock().clear();
        self.bytes.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn len_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::message::{Correlation, Properties};

    pub(crate) fn sample_records() -> Vec<JournalRecord> {
        let m1 = Message::text("one").persistent(true).build();
        let m2 = Message::text("two")
            .persistent(true)
            .property("k", 1i64)
            .build();
        vec![
            JournalRecord::QueueCreated { queue: "Q1".into() },
            JournalRecord::Put {
                queue: "Q1".into(),
                message: m1.clone(),
            },
            JournalRecord::TxCommit {
                puts: vec![("Q1".into(), m2.clone())],
                gets: vec![("Q2".into(), m1.id())],
            },
            JournalRecord::QueueDeleted { queue: "Q1".into() },
            JournalRecord::CheckpointStart {
                checkpoint_id: 42,
                queues: vec!["Q1".into(), "Q2".into()],
                dedup: vec![(7, m1.id().as_u128()), (9, m2.id().as_u128())],
            },
            JournalRecord::CheckpointEnd { checkpoint_id: 42 },
        ]
    }

    /// A unique, not yet existing directory for a segment journal.
    pub(crate) fn temp_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "mq-journal-test-{}-{}-{name}",
            std::process::id(),
            MessageId::generate()
        ))
    }

    #[test]
    fn mem_journal_roundtrip() {
        let j = MemJournal::new();
        let records = sample_records();
        for r in &records {
            j.append(r).unwrap();
        }
        assert_eq!(j.replay_collect().unwrap(), records);
        assert_eq!(j.record_count(), records.len());
        assert!(j.len_bytes() > 0);
        j.reset().unwrap();
        assert_eq!(j.record_count(), 0);
        assert_eq!(j.len_bytes(), 0);
    }

    #[test]
    fn a_journal_holding_a_retired_tag_fails_replay() {
        // 3 was `Get`, 5 `Expired`, 6 `RelayCustody`: each is now a get (or
        // a put) of a `TxCommit`. 2 and 4 were `Put` and `TxCommit` over the
        // first message image, which spelled every property name out; 9
        // and 10 over the second, which spelled every queue name, property
        // value and conditional id out; 11 and 12 over the third, which
        // wrote every id whole. The tags are not reused, so a journal
        // written before says so instead of replaying as something else.
        for tag in [2u8, 3, 4, 5, 6, 9, 10, 11, 12] {
            let j = MemJournal::new();
            j.append(&JournalRecord::QueueCreated { queue: "Q".into() })
                .unwrap();
            let mut old = Encoder::new();
            old.put_u8(tag);
            old.put_str("Q");
            old.put_u128(7);
            j.records.lock().push(old.finish());
            match j.replay_collect() {
                Err(MqError::Codec(CodecError::BadTag { tag: bad, .. })) => assert_eq!(bad, tag),
                other => panic!("tag {tag}: expected BadTag, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_journaled_put_is_one_encode_of_the_image_the_mover_sends() {
        let journal = MemJournal::new();
        let qm = crate::QueueManager::builder("QM1")
            .journal(journal.clone())
            .build()
            .unwrap();
        qm.create_queue("Q").unwrap();
        let encodes = || qm.metrics_snapshot().counter("mq.codec.encodes");
        let before = encodes();
        qm.put("Q", Message::text("durable").persistent(true).build())
            .unwrap();
        assert_eq!(encodes() - before, 1);
        let bytes = journal.records.lock().last().cloned().unwrap();
        let Ok(JournalRecord::TxCommit { puts, .. }) = JournalRecord::from_bytes(bytes.clone())
        else {
            panic!("the put is a TxCommit");
        };
        let image = puts[0].1.wire_bytes();
        // The record ends with the image and then a zero get count: the
        // record's first id is written whole, after a `0` escape, and the
        // message has no 16-byte correlation id to write relative to it.
        let end = bytes.len() - 1;
        assert_eq!(bytes[end], 0);
        assert_eq!(bytes[end - image.len() - 1], 0);
        assert_eq!(&bytes[end - image.len()..end], &image[..]);
    }

    #[test]
    fn a_payload_elision_with_nothing_before_it_fails_replay() {
        // A first put, or a checkpoint row, whose flags say "the previous
        // put's payload": there is none, so the record is refused.
        let msg = Message::text("x").persistent(true).build();
        let flagged = |record: JournalRecord, flags_at: usize| {
            let mut raw = record.to_bytes().to_vec();
            raw[flags_at] |= 0x80;
            JournalRecord::from_bytes(Bytes::from(raw))
        };
        // Tag, put count, queue code, escape + id, priority | flags.
        let first_put = JournalRecord::TxCommit {
            puts: vec![("DS.SLOG.Q".into(), msg.clone())],
            gets: vec![],
        };
        // Tag, queue code, escape + id, priority | flags.
        let row = JournalRecord::Put {
            queue: "DS.SLOG.Q".into(),
            message: msg,
        };
        for result in [flagged(first_put, 3 + 18), flagged(row, 2 + 18)] {
            assert!(matches!(
                result,
                Err(CodecError::BadTag {
                    what: "message flags",
                    ..
                })
            ));
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        const PAYLOADS: [&[u8]; 3] = [b"", b"shared payload", b"another one"];

        fn put(payload: &'static [u8]) -> (Arc<str>, Message) {
            let msg = Message::builder(Bytes::from_static(payload))
                .persistent(true)
                .build();
            ("Q".into(), msg)
        }

        proptest! {
            // Any sequence of puts, runs of equal payloads among them,
            // round-trips byte for byte; the record is exactly the whole
            // images less each repeated payload (with its length byte),
            // each id in its relative form, and every strict prefix of it
            // fails to decode.
            #[test]
            fn any_tx_commit_roundtrips_and_elides_exactly_the_repeats(
                picks in proptest::collection::vec(0..PAYLOADS.len(), 0..12),
                cut_seed in any::<u64>(),
            ) {
                let puts: Vec<(Arc<str>, Message)> = picks.iter().map(|&p| put(PAYLOADS[p])).collect();
                let repeated: usize = picks
                    .windows(2)
                    .filter(|w| w[0] == w[1])
                    .map(|w| 1 + PAYLOADS[w[1]].len())
                    .sum();
                let whole: usize = puts.iter().map(|(q, m)| 2 + q.len() + m.wire_len()).sum();
                let ids: Vec<u128> = puts.iter().map(|(_, m)| m.id().as_u128()).collect();
                let whole = whole - 16 * ids.len() + id_forms_len(&ids);
                let record = JournalRecord::TxCommit { puts, gets: vec![] };
                let bytes = record.to_bytes();
                prop_assert_eq!(bytes.len(), 1 + 1 + whole - repeated + 1);
                let back = JournalRecord::from_bytes(bytes.clone()).unwrap();
                prop_assert_eq!(&back, &record);
                prop_assert_eq!(back.to_bytes(), bytes.clone());
                let cut = (cut_seed % bytes.len() as u64) as usize;
                prop_assert!(JournalRecord::from_bytes(bytes.slice(0..cut)).is_err());
            }

            // Any ids — random, sequential in one epoch (0 included, so a
            // record's first id may be a delta from the fresh cursor) or
            // each from one of two epochs — round-trip byte for byte
            // in a `TxCommit` and in a `CheckpointStart`. Each record is
            // its whole images less exactly 16 bytes per id plus that id's
            // relative form from the id before it in the record, and every
            // strict prefix of it fails to decode. Decoding the record a
            // second time reads the same: nothing carries over.
            #[test]
            fn any_ids_roundtrip_and_each_takes_exactly_its_relative_form(
                ids in arb_ids(),
                shape in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..8),
                gets in 0usize..8,
            ) {
                let mut ids = ids.into_iter();
                let mut stream = Vec::new();
                let puts: Vec<(Arc<str>, Message)> = shape
                    .iter()
                    .map(|&(correlated, shared)| {
                        let id = ids.next().unwrap();
                        stream.push(id);
                        let corr = correlated.then(|| ids.next().unwrap());
                        stream.extend(corr);
                        let payload = if shared { "shared" } else { "" };
                        let msg = Message::from_parts(
                            MessageId::from_u128(id),
                            Bytes::from_static(payload.as_bytes()),
                            Properties::empty(),
                            Default::default(),
                            true,
                            None,
                            None,
                            corr.map(Correlation::from_u128),
                            None,
                            None,
                            0,
                        );
                        ("Q".into(), msg)
                    })
                    .collect();
                let gets: Vec<(Arc<str>, MessageId)> = ids
                    .by_ref()
                    .take(gets)
                    .map(|id| {
                        stream.push(id);
                        ("Q".into(), MessageId::from_u128(id))
                    })
                    .collect();
                let repeated: usize = shape
                    .windows(2)
                    .filter(|w| w[0].1 == w[1].1)
                    .map(|w| 1 + if w[1].1 { "shared".len() } else { 0 })
                    .sum();
                let images: usize = puts.iter().map(|(_, m)| 3 + m.wire_len()).sum();
                let dedup: Vec<(u64, u128)> = stream.iter().map(|&id| (7, id)).collect();
                let cases = [
                    (
                        JournalRecord::TxCommit { puts, gets: gets.clone() },
                        1 + 1 + images - repeated + 1 + (3 + 16) * gets.len(),
                    ),
                    (
                        JournalRecord::CheckpointStart {
                            checkpoint_id: 1,
                            queues: vec![],
                            dedup: dedup.clone(),
                        },
                        1 + 8 + 1 + 1 + 8 * dedup.len() + 16 * dedup.len(),
                    ),
                ];
                for (record, whole) in cases {
                    let bytes = record.to_bytes();
                    prop_assert_eq!(
                        bytes.len(),
                        whole - 16 * stream.len() + id_forms_len(&stream)
                    );
                    for _ in 0..2 {
                        let back = JournalRecord::from_bytes(bytes.clone()).unwrap();
                        prop_assert_eq!(&back, &record);
                        prop_assert_eq!(back.to_bytes(), bytes.clone());
                    }
                    for cut in 0..bytes.len() {
                        prop_assert!(JournalRecord::from_bytes(bytes.slice(0..cut)).is_err());
                    }
                }
            }
        }

        /// 40 ids, enough for any record the proptest builds.
        fn arb_ids() -> impl Strategy<Value = Vec<u128>> {
            let epoch = || prop_oneof![Just(0u64), any::<u64>()];
            let steps = proptest::collection::vec(0u64..300, 40);
            prop_oneof![
                proptest::collection::vec(any::<u128>(), 40),
                (epoch(), any::<u64>(), steps).prop_map(|(epoch, start, steps)| {
                    let mut counter = start;
                    steps
                        .into_iter()
                        .map(|step| {
                            counter = counter.wrapping_add(step);
                            MessageId::from_parts(epoch, counter).as_u128()
                        })
                        .collect()
                }),
                (
                    epoch(),
                    any::<u64>(),
                    any::<u64>(),
                    proptest::collection::vec(any::<bool>(), 40)
                )
                    .prop_map(|(a, b, counter, picks)| {
                        (0..)
                            .zip(picks)
                            .map(|(i, pick)| {
                                let epoch = if pick { a } else { b };
                                MessageId::from_parts(epoch, counter.wrapping_add(i)).as_u128()
                            })
                            .collect()
                    }),
            ]
        }

        /// The bytes `stream`'s ids take, each relative to the one before
        /// it (the first to 0): the zigzag difference of the low halves
        /// plus one as a varint when the high halves match and it fits,
        /// else a one-byte escape and the 16-byte id.
        fn id_forms_len(stream: &[u128]) -> usize {
            let mut previous = 0u128;
            let mut total = 0;
            for &id in stream {
                let delta = (id as u64).wrapping_sub(previous as u64) as i64;
                let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
                total += if id >> 64 == previous >> 64 && zigzag != u64::MAX {
                    let mut enc = Encoder::new();
                    enc.put_varint(zigzag + 1);
                    enc.len()
                } else {
                    17
                };
                previous = id;
            }
            total
        }
    }

    /// Decodes a byte run of frames the way replay does.
    fn decode_frames(raw: &[u8]) -> MqResult<(Vec<JournalRecord>, bool)> {
        let mut frames = FrameStream::new(raw, raw.len() as u64);
        let mut records = Vec::new();
        while let Some((_, body)) = frames.next_body()? {
            records.push(JournalRecord::from_bytes(body)?);
        }
        Ok((records, frames.ended_torn()))
    }

    #[test]
    fn frame_roundtrip_and_torn_tail() {
        let records = sample_records();
        let mut raw = Vec::new();
        let mut boundaries = vec![0];
        for r in &records {
            raw.extend_from_slice(&encode_frame_body(&r.to_bytes()));
            boundaries.push(raw.len());
        }
        assert_eq!(decode_frames(&raw).unwrap(), (records.clone(), false));
        // Any prefix cut decodes to a prefix of the records, and says
        // whether it stopped inside a frame.
        for cut in 0..raw.len() {
            let (decoded, torn) = decode_frames(&raw[..cut]).unwrap();
            assert_eq!(decoded[..], records[..decoded.len()]);
            assert_eq!(torn, !boundaries.contains(&cut), "cut at {cut}");
        }
    }

    #[test]
    fn frame_length_beyond_the_stream_is_a_torn_tail_not_an_allocation() {
        // A header claiming 4 GiB at the end of a short stream must not
        // be trusted for the size of the body buffer.
        let mut raw = encode_frame_body(b"whole");
        let whole = raw.len() as u64;
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&[0; 12]);
        let mut frames = FrameStream::new(&raw[..], raw.len() as u64);
        assert!(frames.next_body().unwrap().is_some());
        assert!(frames.next_body().unwrap().is_none());
        assert_eq!(frames.valid_len(), whole);
        assert!(frames.ended_torn());
    }

    #[test]
    fn journals_are_share_safe() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<MemJournal>();
        assert_bounds::<SegmentedJournal>();
        let _boxed: Arc<dyn Journal> = MemJournal::new();
    }

    #[test]
    fn failing_append_retains_nothing() {
        let j = MemJournal::new();
        j.set_failing(true);
        assert!(j.is_failing());
        let rec = JournalRecord::QueueCreated { queue: "Q".into() };
        assert!(matches!(j.append(&rec), Err(MqError::Io(_))));
        assert!(matches!(
            j.write_checkpoint(&mut std::iter::once(rec.clone())),
            Err(MqError::Io(_))
        ));
        assert_eq!(j.record_count(), 0);
        j.set_failing(false);
        j.append(&rec).unwrap();
        assert_eq!(j.record_count(), 1);
    }

    #[test]
    fn tear_tail_drops_only_the_newest_record() {
        let j = MemJournal::new();
        j.append(&JournalRecord::QueueCreated { queue: "A".into() })
            .unwrap();
        j.append(&JournalRecord::QueueCreated { queue: "B".into() })
            .unwrap();
        let before = j.len_bytes();
        assert!(j.tear_tail());
        assert!(j.len_bytes() < before);
        assert_eq!(
            j.replay_collect().unwrap(),
            vec![JournalRecord::QueueCreated { queue: "A".into() }]
        );
        assert!(j.tear_tail());
        assert!(!j.tear_tail(), "empty journal has no tail to tear");
    }

    #[test]
    fn concurrent_appends_preserve_all_records() {
        let j = MemJournal::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        j.append(&JournalRecord::QueueCreated {
                            queue: format!("Q{t}-{i}"),
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.replay_collect().unwrap().len(), 800);
    }

    #[test]
    fn mem_journal_checkpoint_replaces_history() {
        let j = MemJournal::new();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        let snapshot = vec![
            JournalRecord::CheckpointStart {
                checkpoint_id: 1,
                queues: vec!["Q1".into()],
                dedup: vec![],
            },
            JournalRecord::Put {
                queue: "Q1".into(),
                message: Message::text("live").persistent(true).build(),
            },
            JournalRecord::CheckpointEnd { checkpoint_id: 1 },
        ];
        j.write_checkpoint(&mut snapshot.clone().into_iter()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), snapshot);
        assert_eq!(j.record_count(), 3);
    }

    #[test]
    fn replay_sink_error_aborts() {
        let j = MemJournal::new();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        let mut seen = 0;
        let err = j.replay(&mut |_| {
            seen += 1;
            if seen == 2 {
                Err(MqError::ManagerStopped("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(seen, 2);
    }
}
