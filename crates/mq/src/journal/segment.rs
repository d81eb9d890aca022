//! Segmented journal: the one durable log.
//!
//! A [`SegmentedJournal`] is a directory holding one chain of bounded
//! **segment** files, each named after the LSN of its first record:
//!
//! ```text
//! root/
//!   00000000000000000000.seg
//!   00000000000000020381.seg        rolled at roll_bytes
//!   00000000000000031207.seg.tmp    only while a checkpoint is being written
//! ```
//!
//! Every record is stamped with an **LSN** at append time; a frame on disk
//! is the standard `[len:u32][crc:u32]` envelope over
//! `[lsn varint][record bytes]`. Replay reads the files in name order and
//! insists on the contract the writer keeps: LSNs are contiguous across
//! the whole chain, starting each file at the LSN it is named after, and
//! only the *last* segment may end in a torn frame (an interrupted final
//! write). Anything else is [`MqError::JournalCorrupt`] — a retired
//! segment was fsynced before its successor was created, so a hole in it
//! is lost acknowledged data, not a crash artefact.
//!
//! **One cursor per file.** A record's ids are written relative to the
//! id before them ([`IdCursor`](crate::codec::IdCursor)), and a queue name
//! no registry code covers is spelled out once and then written as a
//! per-file code (`codec::NameTable`). Both run on from frame to frame
//! through a segment file: a frame's first id is a delta from the last id
//! of the frame before it, and a name an earlier frame spelled out is one
//! byte. They restart (at 0, empty) only where a file starts — the first
//! append, a roll, a checkpoint, and the first append after
//! [`SegmentedJournal::open`], which opens a new file rather than decode
//! the last one for its cursor. So the cursor is a function of the file's
//! bytes alone, and a frame decodes only after every frame before it in
//! its file: replay from an LSN in the middle of a segment decodes from
//! the start of that file, and a code the file has not defined is
//! [`MqError::JournalCorrupt`]. A `CheckpointStart` writes its ids from a
//! cursor of its own and its queue names spelled out, and leaves the
//! file's cursor alone, so an appended one may join the file `open` found
//! without decoding it.
//!
//! **Commit path.** `append` takes the lock, stamps the LSN and writes the
//! frame. With [`SegmentConfig::sync_every_append`] it then waits until the
//! durable watermark covers its LSN: the first waiter that finds no sync in
//! flight becomes the **leader**, captures `(next_lsn, active file)`, drops
//! the lock, issues one `sync_data`, advances the watermark and wakes
//! everybody. Appenders arriving during that sync write their frames behind
//! it and share the next one, so the fsync's own duration forms the batch:
//! one appender pays exactly write + fsync, N appenders share. The
//! watermark argument: frames are written under the lock in LSN order into
//! the active file, and a segment is only retired once the watermark has
//! reached its tail, so a `sync_data` of the file that was active when
//! `next_lsn` was captured covers every LSN below it. A failed write or
//! sync is sticky: the failed batch's waiters and every later append see
//! the error, so nothing unsynced is ever reported durable.
//!
//! **Checkpoints.** [`Journal::write_checkpoint`] writes the snapshot to
//! `{first_lsn}.seg.tmp`, fsyncs it, renames it to `.seg` (the commit
//! point), fsyncs the directory and only then unlinks the older segments —
//! recovery is O(live state), and a checkpoint torn by a crash is never
//! visible to replay. A crash between the rename and the unlinks leaves a
//! complete checkpoint beside stale history; [`SegmentedJournal::open`]
//! finishes the truncation, and a replay that still meets both (a failed
//! unlink) is put right by recovery's buffer-and-swap.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::codec::{crc32, CodecError, Decoder, Encoder};
use crate::error::{MqError, MqResult};
use crate::stats::{Counter, Histogram, MetricsRegistry};

use super::{FileCursor, FrameStream, Journal, JournalRecord, ReplaySink};

/// Segment file extension; a checkpoint in progress carries [`TMP_SUFFIX`]
/// behind it.
const SEGMENT_EXT: &str = "seg";

/// Suffix of a checkpoint segment that has not been renamed into the chain.
const TMP_SUFFIX: &str = ".tmp";

/// Bucket bounds for the `mq.journal.batch_size` histogram (records per
/// fsync, not a latency).
const BATCH_SIZE_BOUNDS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Tuning for a [`SegmentedJournal`].
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Roll to a fresh segment file once the active one reaches this many
    /// bytes. Smaller segments mean finer-grained truncation at slightly
    /// more file churn.
    pub roll_bytes: u64,
    /// `append` returns only once the record is on stable storage
    /// (concurrent appenders share fsyncs). Off by default: pair the store
    /// with periodic checkpoints, or accept OS-buffer durability, as the
    /// non-durable experiments do.
    pub sync_every_append: bool,
}

impl Default for SegmentConfig {
    fn default() -> SegmentConfig {
        SegmentConfig {
            roll_bytes: 8 << 20,
            sync_every_append: false,
        }
    }
}

/// The active (last) segment, opened for appending. The file is shared so
/// a leader can sync it without holding the lock.
struct Active {
    file: Arc<File>,
    /// Bytes in the segment (drives rolling).
    bytes: u64,
    /// The id cursor and name table after the segment's last frame, which
    /// the next frame continues from. `None` for the segment `open` found
    /// last: its cursor is in its frames, which `open` does not decode,
    /// so only a `CheckpointStart` (which needs no cursor) joins it and
    /// any other append opens the next segment.
    cursor: Option<FileCursor>,
}

struct Inner {
    /// `None` until the first append after opening an empty root, a reset
    /// or a roll creates the next file.
    active: Option<Active>,
    /// Next LSN to stamp; strictly increasing along the chain.
    next_lsn: u64,
    /// Total bytes across every live segment file.
    total_bytes: u64,
    /// Every record with an LSN below this is on stable storage.
    durable_lsn: u64,
    /// A leader is inside `sync_data`, outside the lock.
    syncing: bool,
    /// Sticky storage failure; all current and future appends observe it.
    failed: Option<String>,
    /// The buffer each append encodes its frame into, kept from one append
    /// to the next unless a frame grew it past [`FRAME_BUFFER_KEPT`].
    frame: Vec<u8>,
}

/// The largest frame buffer an append keeps for the next one.
const FRAME_BUFFER_KEPT: usize = 1 << 20;

impl Inner {
    fn failure(&self) -> Option<MqError> {
        self.failed
            .as_ref()
            .map(|msg| MqError::Io(std::io::Error::other(msg.clone())))
    }

    fn fail(&mut self, e: std::io::Error) -> MqError {
        self.failed = Some(e.to_string());
        MqError::Io(e)
    }
}

/// What a test substitutes for the disk's part of a sync: called by the
/// leader, outside the lock, with the LSN watermark the sync will cover.
#[cfg(test)]
type SyncHook = Arc<dyn Fn(u64) -> std::io::Result<()> + Send + Sync>;

/// Directory-of-segments journal. See the module docs for the layout and
/// the commit path.
pub struct SegmentedJournal {
    root: PathBuf,
    config: SegmentConfig,
    /// Append state. Never held across an fsync (appenders keep writing
    /// frames while the disk works), nor while a replay sink or a
    /// checkpoint snapshot iterator runs: both reach back into queue
    /// stores, and the put path locks store-then-journal.
    // lint: never-hold(SegmentedJournal.inner) across sync_data
    // lint: never-hold(SegmentedJournal.inner) across sink
    // lint: never-hold(SegmentedJournal.inner) across snapshot_persistent
    inner: Mutex<Inner>,
    /// Signals waiters: the watermark advanced, or the journal failed.
    durable: Condvar,
    /// Mirror of `Inner::total_bytes` so `len_bytes` never takes the lock.
    bytes: AtomicU64,
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    /// Appends that parked behind another appender's sync.
    group_waits: Arc<Counter>,
    /// Records made durable per fsync.
    batch_size: Arc<Histogram>,
    #[cfg(test)]
    sync_hook: Mutex<Option<SyncHook>>,
}

impl fmt::Debug for SegmentedJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentedJournal")
            .field("root", &self.root)
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish()
    }
}

/// Encodes one segment frame into `buf`: the standard `[len][crc]`
/// envelope over `[lsn varint][record bytes]`, the record written in place
/// continuing from `cursor`, the cursor of the frame before it in the file.
fn encode_segment_frame(
    lsn: u64,
    record: &JournalRecord,
    cursor: &mut FileCursor,
    buf: Vec<u8>,
) -> Vec<u8> {
    let mut enc = Encoder::reuse(buf);
    // Length and CRC, filled in once the body is written.
    enc.put_u64(0);
    enc.put_varint(lsn);
    record.encode_after(&mut enc, cursor);
    let mut frame = enc.into_vec();
    let body_len = (frame.len() - 8) as u32;
    let crc = crc32(&frame[8..]);
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Checks the LSN stamp that opens a CRC-verified frame body, which must
/// be `expected`: the file's name for its first frame, one more than the
/// frame before for every other. Returns a decoder at the record. A frame
/// of the layout that stamped a fixed 8-byte LSN never passes: read as a
/// varint, an LSN of 128 or more comes out smaller than itself, and a
/// smaller one leaves 4 of its 8 bytes for the record decode, which then
/// does not consume the body.
fn check_lsn(offset: u64, body: &Bytes, expected: u64) -> MqResult<Decoder> {
    let mut dec = Decoder::new(body.clone());
    let lsn = dec.get_varint().map_err(|e| MqError::JournalCorrupt {
        offset,
        reason: format!("unreadable LSN stamp: {e}"),
    })?;
    if lsn != expected {
        return Err(MqError::JournalCorrupt {
            offset,
            reason: format!("LSN {lsn} breaks the chain at {expected} (records lost before it)"),
        });
    }
    Ok(dec)
}

/// Decodes the record of a CRC-verified frame body stamped `expected`,
/// under `cursor`, the cursor its writer encoded it under.
fn decode_segment_body(
    offset: u64,
    body: &Bytes,
    expected: u64,
    cursor: &mut FileCursor,
) -> MqResult<JournalRecord> {
    let mut dec = check_lsn(offset, body, expected)?;
    let undecodable = |e| MqError::JournalCorrupt {
        offset,
        reason: format!("undecodable record: {e}"),
    };
    let record = JournalRecord::decode_after(&mut dec, cursor).map_err(undecodable)?;
    if !dec.is_exhausted() {
        return Err(undecodable(CodecError::LengthOverrun {
            declared: 0,
            remaining: dec.remaining(),
        }));
    }
    Ok(record)
}

fn segment_file_name(first_lsn: u64) -> String {
    format!("{first_lsn:020}.{SEGMENT_EXT}")
}

/// The root's segments as `(first LSN, path)` in chain order.
///
/// A sub-directory is the per-queue stream layout of an earlier version of
/// this journal, and a `.seg` file whose name is not an LSN is not ours:
/// both are refused rather than read as an empty log.
fn list_segments(root: &Path) -> MqResult<Vec<(u64, PathBuf)>> {
    let foreign = |path: &Path, reason: &str| MqError::JournalCorrupt {
        offset: 0,
        reason: format!("{}: {reason}", path.display()),
    };
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            return Err(foreign(
                &path,
                "per-queue stream directory of an older journal layout",
            ));
        }
        if path.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXT) {
            let first_lsn = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| foreign(&path, "segment file not named after an LSN"))?;
            segs.push((first_lsn, path));
        }
    }
    segs.sort();
    Ok(segs)
}

/// Deletes what an interrupted or failed checkpoint left behind.
fn remove_stray_tmp(root: &Path) -> MqResult<()> {
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(TMP_SUFFIX));
        if is_tmp {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Flushes a directory's entry table so freshly created, renamed or
/// unlinked segment files survive a power cut before their parent does.
fn sync_dir(dir: &Path) -> MqResult<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn open_segment(path: &Path) -> MqResult<FrameStream<BufReader<File>>> {
    let file = File::open(path)?;
    let total = file.metadata()?.len();
    Ok(FrameStream::new(BufReader::new(file), total))
}

impl SegmentedJournal {
    /// Opens (or creates) a segmented journal rooted at `root`.
    ///
    /// Reopening walks the frames of the *last* segment to recover the next
    /// LSN — CRC-checking each and its LSN stamp, decoding none but
    /// checkpoint markers — and truncates any torn final frame left by a
    /// crash. The first append after it opens a new segment (an appended
    /// `CheckpointStart` excepted, see `append`), so the id cursor a
    /// segment's frames continue is never needed without its frames
    /// decoded. It also finishes what a crashed
    /// checkpoint left half-done: a stray `.seg.tmp` is deleted, and if the
    /// last segment opens with a complete checkpoint every older segment
    /// (stale history the crash did not get to unlink) is removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; [`MqError::JournalCorrupt`] for a
    /// frame inside the last segment that fails its CRC or whose LSN stamp
    /// breaks the chain (a record that passes both but does not decode is
    /// replay's to report) and for a root that is not a single segment
    /// chain (the per-queue directories of an older layout).
    pub fn open(root: impl AsRef<Path>, config: SegmentConfig) -> MqResult<Arc<SegmentedJournal>> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        remove_stray_tmp(&root)?;
        let mut segments = list_segments(&root)?;
        let mut inner = Inner {
            active: None,
            next_lsn: 0,
            total_bytes: 0,
            durable_lsn: 0,
            syncing: false,
            failed: None,
            frame: Vec::new(),
        };
        if let Some((first_lsn, last)) = segments.pop() {
            let mut frames = open_segment(&last)?;
            inner.next_lsn = first_lsn;
            let mut opened: Option<u64> = None;
            let mut complete = false;
            while let Some((offset, body)) = frames.next_body()? {
                let lsn = inner.next_lsn;
                let record = check_lsn(offset, &body, lsn)?;
                inner.next_lsn = lsn + 1;
                // The next LSN needs the stamp alone. Only the checkpoint
                // markers (record tags 7 and 8) are decoded, neither of
                // them under the segment's cursor; every other record,
                // messages included, is walked past.
                if !matches!(body.get(body.len() - record.remaining()), Some(7 | 8)) {
                    continue;
                }
                let marker = decode_segment_body(offset, &body, lsn, &mut FileCursor::default())?;
                match marker {
                    JournalRecord::CheckpointStart { checkpoint_id, .. } if offset == 0 => {
                        opened = Some(checkpoint_id);
                    }
                    JournalRecord::CheckpointEnd { checkpoint_id } => {
                        complete |= opened == Some(checkpoint_id);
                    }
                    _ => {}
                }
            }
            if complete {
                for (_, stale) in segments.drain(..) {
                    std::fs::remove_file(&stale)?;
                }
                sync_dir(&root)?;
            }
            let valid_len = frames.valid_len();
            if valid_len < std::fs::metadata(&last)?.len() {
                let f = OpenOptions::new().write(true).open(&last)?;
                f.set_len(valid_len)?;
                f.sync_data()?;
            }
            for (_, seg) in &segments {
                inner.total_bytes += std::fs::metadata(seg)?.len();
            }
            inner.total_bytes += valid_len;
            inner.active = Some(Active {
                file: Arc::new(OpenOptions::new().append(true).open(&last)?),
                bytes: valid_len,
                cursor: None,
            });
        }
        // What was found on disk is as durable as it will ever get.
        inner.durable_lsn = inner.next_lsn;
        Ok(Arc::new(SegmentedJournal {
            root,
            config,
            bytes: AtomicU64::new(inner.total_bytes),
            inner: Mutex::new(inner),
            durable: Condvar::new(),
            appends: Arc::default(),
            fsyncs: Arc::default(),
            group_waits: Arc::default(),
            batch_size: Arc::new(Histogram::new(&BATCH_SIZE_BOUNDS)),
            #[cfg(test)]
            sync_hook: Mutex::new(None),
        }))
    }

    /// The journal's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of live segment files (tests and tooling).
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn segment_count(&self) -> MqResult<usize> {
        let _guard = self.inner.lock();
        Ok(list_segments(&self.root)?.len())
    }

    /// Blocks until every LSN below `upto` is durable, syncing as the
    /// leader whenever no sync is in flight.
    ///
    /// # Errors
    ///
    /// The sticky storage failure, whoever met it first.
    fn wait_durable(&self, upto: u64) -> MqResult<()> {
        let mut inner = self.inner.lock();
        let mut parked = false;
        loop {
            if let Some(e) = inner.failure() {
                return Err(e);
            }
            if inner.durable_lsn >= upto {
                break;
            }
            if inner.syncing {
                parked = true;
                self.durable.wait(&mut inner);
                continue;
            }
            // Leader: everything below `covers` is in the active file (or
            // in retired segments, durable since their roll).
            inner.syncing = true;
            let covers = inner.next_lsn;
            let batch = covers - inner.durable_lsn;
            let file = inner.active.as_ref().map(|a| Arc::clone(&a.file));
            drop(inner);
            #[cfg(test)]
            let hooked = self.sync_hook.lock().clone().map_or(Ok(()), |hook| hook(covers));
            #[cfg(not(test))]
            let hooked: std::io::Result<()> = Ok(());
            let result = hooked.and_then(|()| file.as_deref().map_or(Ok(()), File::sync_data));
            inner = self.inner.lock();
            inner.syncing = false;
            match result {
                Ok(()) => {
                    inner.durable_lsn = inner.durable_lsn.max(covers);
                    self.fsyncs.incr();
                    self.batch_size.record(batch);
                }
                Err(e) => {
                    inner.fail(e);
                }
            }
            self.durable.notify_all();
        }
        if parked {
            self.group_waits.incr();
        }
        Ok(())
    }
}

impl Journal for SegmentedJournal {
    fn append(&self, record: &JournalRecord) -> MqResult<()> {
        let mut inner = self.inner.lock();
        // Roll, when the active segment is full or is the one `open`
        // found, whose id cursor is not known. A segment is retired only
        // once the watermark has reached its tail: replay trusts every
        // segment but the last to be complete, so the successor must not
        // exist before that. Appenders arriving meanwhile queue up here
        // instead of writing, so the tail stands still and one sync reaches
        // it. An appended checkpoint start never opens a segment: `open`
        // takes a last segment that opens with a complete checkpoint for
        // `write_checkpoint`'s, and unlinks everything before it. It needs
        // no cursor, so it may join the segment `open` found.
        let opens_checkpoint = matches!(record, JournalRecord::CheckpointStart { .. });
        while !opens_checkpoint
            && inner
                .active
                .as_ref()
                .is_some_and(|a| a.bytes >= self.config.roll_bytes || a.cursor.is_none())
        {
            if inner.durable_lsn >= inner.next_lsn {
                inner.active = None;
            } else {
                let tail = inner.next_lsn;
                drop(inner);
                self.wait_durable(tail)?;
                inner = self.inner.lock();
            }
        }
        if let Some(e) = inner.failure() {
            return Err(e);
        }
        let lsn = inner.next_lsn;
        let buf = std::mem::take(&mut inner.frame);
        let active = match inner.active {
            Some(ref mut active) => active,
            None => {
                let path = self.root.join(segment_file_name(lsn));
                let file = OpenOptions::new().create(true).append(true).open(&path)?;
                sync_dir(&self.root)?;
                inner.active.insert(Active {
                    file: Arc::new(file),
                    bytes: 0,
                    cursor: Some(FileCursor::default()),
                })
            }
        };
        // The cursor keeps what encoding the frame moved only once the
        // frame is written: a failed write puts it back. Only a checkpoint
        // start reaches a segment of unknown cursor, and it neither reads
        // nor moves one.
        let mut unknown = FileCursor::default();
        let cursor = active.cursor.as_mut().unwrap_or(&mut unknown);
        let (ids, defined) = (cursor.ids, cursor.names.len());
        let frame = encode_segment_frame(lsn, record, cursor, buf);
        // A short write leaves a torn frame that later frames must not
        // land behind: like a failed sync, it ends the journal's service.
        if let Err(e) = active.file.as_ref().write_all(&frame) {
            cursor.ids = ids;
            cursor.names.truncate(defined);
            return Err(inner.fail(e));
        }
        active.bytes += frame.len() as u64;
        inner.next_lsn = lsn + 1;
        inner.total_bytes += frame.len() as u64;
        if frame.capacity() <= FRAME_BUFFER_KEPT {
            inner.frame = frame;
        }
        self.bytes.store(inner.total_bytes, Ordering::Relaxed);
        self.appends.incr();
        drop(inner);
        if self.config.sync_every_append {
            self.wait_durable(lsn + 1)?;
        }
        Ok(())
    }

    fn replay(&self, sink: &mut ReplaySink<'_>) -> MqResult<()> {
        // Lock-free: replay happens on a quiesced journal (recovery)
        // through dedicated read handles, and the sink reaches into queue
        // stores — holding the append lock here would invert the
        // store-then-journal order of the put path.
        let segments = list_segments(&self.root)?;
        let mut chain: Option<u64> = None;
        for (i, (first_lsn, path)) in segments.iter().enumerate() {
            let corrupt = |offset: u64, reason: String| MqError::JournalCorrupt {
                offset,
                reason: format!("{}: {reason}", path.display()),
            };
            if let Some(next) = chain.filter(|next| next != first_lsn) {
                return Err(corrupt(
                    0,
                    format!("segment breaks the chain at LSN {next} (records lost before it)"),
                ));
            }
            // Every segment file starts from a fresh cursor, as its writer
            // did, and its frames are decoded in order from its first.
            let mut cursor = FileCursor::default();
            let mut lsn = *first_lsn;
            let mut frames = open_segment(path)?;
            while let Some((offset, body)) = frames.next_body()? {
                let record = decode_segment_body(offset, &body, lsn, &mut cursor)?;
                lsn += 1;
                sink(record)?;
            }
            chain = Some(lsn);
            if frames.ended_torn() && i + 1 < segments.len() {
                return Err(corrupt(
                    frames.valid_len(),
                    "torn frame in a segment that is not the last".into(),
                ));
            }
        }
        Ok(())
    }

    fn write_checkpoint(&self, records: &mut dyn Iterator<Item = JournalRecord>) -> MqResult<()> {
        // 1. Write the whole snapshot into one fresh segment under a
        //    temporary name, where replay cannot see it.
        //
        //    The append lock is NOT held while the iterator is pulled:
        //    the snapshot reaches back into queue stores, and the put/get
        //    path locks store-then-journal — holding the journal lock
        //    across those store reads would invert that order. Callers
        //    quiesce appenders for the whole call (the queue manager
        //    holds its mutation gate exclusively); a concurrent append
        //    would land in a segment step 3 is about to unlink anyway.
        remove_stray_tmp(&self.root)?;
        let first_lsn = self.inner.lock().next_lsn;
        let name = segment_file_name(first_lsn);
        let path = self.root.join(&name);
        let tmp = self.root.join(name + TMP_SUFFIX);
        let file = OpenOptions::new().create(true).append(true).open(&tmp)?;
        let mut writer = BufWriter::new(file);
        let mut seg_bytes = 0u64;
        let mut next_lsn = first_lsn;
        let mut cursor = FileCursor::default();
        let mut frame = Vec::new();
        for record in records {
            frame = encode_segment_frame(next_lsn, &record, &mut cursor, frame);
            next_lsn += 1;
            writer.write_all(&frame)?;
            seg_bytes += frame.len() as u64;
        }
        // 2. Make it durable, then publish it: the rename is the commit
        //    point. Until it, the chain is untouched; after it, the new
        //    segment holds a complete checkpoint that supersedes the rest.
        let file = writer.into_inner().map_err(|e| e.into_error())?;
        file.sync_data()?;
        std::fs::rename(&tmp, &path)?;
        sync_dir(&self.root)?;
        let mut inner = self.inner.lock();
        inner.active = Some(Active {
            file: Arc::new(file),
            bytes: seg_bytes,
            cursor: Some(cursor),
        });
        inner.next_lsn = next_lsn.max(inner.next_lsn);
        inner.durable_lsn = inner.next_lsn;
        inner.total_bytes = seg_bytes;
        self.bytes.store(seg_bytes, Ordering::Relaxed);
        // 3. Truncation is now just unlink, oldest first so that whatever
        //    a failure leaves behind is still a gapless chain. It is
        //    leftover for the next `open()`, not a failed checkpoint:
        //    replay's buffer-and-swap discards it.
        for (_, stale) in list_segments(&self.root).unwrap_or_default() {
            if stale != path && std::fs::remove_file(&stale).is_err() {
                break;
            }
        }
        Ok(())
    }

    fn reset(&self) -> MqResult<()> {
        let mut inner = self.inner.lock();
        remove_stray_tmp(&self.root)?;
        for (_, seg) in list_segments(&self.root)? {
            std::fs::remove_file(&seg)?;
        }
        inner.active = None;
        inner.durable_lsn = inner.next_lsn;
        inner.total_bytes = 0;
        self.bytes.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn len_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter("mq.journal.appends", &self.appends);
        registry.register_counter("mq.journal.fsyncs", &self.fsyncs);
        registry.register_counter("mq.journal.group_waits", &self.group_waits);
        registry.register_histogram("mq.journal.batch_size", &self.batch_size);
    }
}

#[cfg(test)]
mod tests {
    use super::super::encode_frame_body;
    use super::super::tests::{sample_records, temp_dir};
    use super::*;
    use crate::codec::WireEncode;
    use crate::message::Message;
    use std::time::Duration;

    impl SegmentedJournal {
        /// Puts `hook` in front of every commit-path `sync_data`.
        fn set_sync_hook(&self, hook: impl Fn(u64) -> std::io::Result<()> + Send + Sync + 'static) {
            *self.sync_hook.lock() = Some(Arc::new(hook));
        }

        fn counts(&self) -> (u64, u64) {
            (self.appends.get(), self.fsyncs.get())
        }
    }

    fn small_config() -> SegmentConfig {
        SegmentConfig {
            roll_bytes: 256,
            sync_every_append: false,
        }
    }

    fn durable_config() -> SegmentConfig {
        SegmentConfig {
            sync_every_append: true,
            ..SegmentConfig::default()
        }
    }

    fn put(queue: &str, text: &str) -> JournalRecord {
        JournalRecord::Put {
            queue: queue.into(),
            message: Message::text(text).persistent(true).build(),
        }
    }

    fn named(queue: String) -> JournalRecord {
        JournalRecord::QueueCreated { queue }
    }

    fn checkpoint_of(id: u64, live: &str) -> Vec<JournalRecord> {
        vec![
            JournalRecord::CheckpointStart {
                checkpoint_id: id,
                queues: vec!["Q".into()],
                dedup: Vec::new(),
            },
            put("Q", live),
            JournalRecord::CheckpointEnd { checkpoint_id: id },
        ]
    }

    fn segment_paths(root: &Path) -> Vec<PathBuf> {
        list_segments(root).unwrap().into_iter().map(|(_, p)| p).collect()
    }

    fn file_names(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn cut(path: &Path, by: u64) {
        let len = std::fs::metadata(path).unwrap().len();
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(len - by).unwrap();
    }

    /// The cursor after the last whole frame of the segment at `path`:
    /// what its writer carried into the frame it would have written next.
    fn cursor_after(path: &Path) -> FileCursor {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap();
        let mut lsn: u64 = stem.parse().unwrap();
        let mut cursor = FileCursor::default();
        let mut frames = open_segment(path).unwrap();
        while let Some((offset, body)) = frames.next_body().unwrap() {
            decode_segment_body(offset, &body, lsn, &mut cursor).unwrap();
            lsn += 1;
        }
        cursor
    }

    /// Copies every file of `src` into `dst`, skipping files already there.
    fn copy_files(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let from = entry.unwrap().path();
            let to = dst.join(from.file_name().unwrap());
            if !to.exists() {
                std::fs::copy(&from, &to).unwrap();
            }
        }
    }

    #[test]
    fn roundtrip_preserves_append_order_across_reopen() {
        let root = temp_dir("seg-roundtrip");
        // Every record kind, then queue names that would be hostile to a
        // file system (they only ever appear inside frames).
        let mut records = sample_records();
        records.extend(["a/b", "@control", "naïve queue", "100%", ".."].map(|n| put(n, "payload")));
        {
            let j = SegmentedJournal::open(&root, durable_config()).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
            assert_eq!(j.replay_collect().unwrap(), records);
            // One appender: exactly write + fsync per record.
            let n = records.len() as u64;
            assert_eq!(j.counts(), (n, n));
            assert_eq!(j.batch_size.sum(), n);
            assert_eq!(j.group_waits.get(), 0);
        }
        // Reopen: same records, same order, appends continue after them,
        // in a file of their own, whose id cursor starts afresh.
        let j = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), records);
        let late = put("Q.LATE", "tail");
        j.append(&late).unwrap();
        let all = j.replay_collect().unwrap();
        assert_eq!(all.len(), records.len() + 1);
        assert_eq!(all.last().unwrap(), &late);
        assert_eq!(
            file_names(&root),
            [
                "00000000000000000000.seg".to_owned(),
                segment_file_name(records.len() as u64)
            ]
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn appends_roll_into_bounded_segments() {
        let root = temp_dir("seg-roll");
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        for i in 0..64 {
            j.append(&put("Q", &format!("message {i}"))).unwrap();
        }
        assert!(
            j.segment_count().unwrap() > 2,
            "64 puts at roll_bytes=256 must span several segments"
        );
        drop(j);
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        let payloads: Vec<_> = j
            .replay_collect()
            .unwrap()
            .iter()
            .map(|r| match r {
                JournalRecord::Put { message, .. } => message.payload_str().unwrap().to_owned(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<_> = (0..64).map(|i| format!("message {i}")).collect();
        assert_eq!(payloads, expected);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reset_truncates_and_len_tracks() {
        let root = temp_dir("seg-reset");
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        for i in 0..20 {
            j.append(&named(format!("A{i}"))).unwrap();
        }
        assert!(j.len_bytes() > 0);
        j.reset().unwrap();
        assert_eq!(j.len_bytes(), 0);
        assert_eq!(j.segment_count().unwrap(), 0);
        assert!(j.replay_collect().unwrap().is_empty());
        j.append(&named("B".into())).unwrap();
        assert_eq!(j.replay_collect().unwrap(), vec![named("B".into())]);
        drop(j);
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), vec![named("B".into())]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_truncates_to_one_segment() {
        let root = temp_dir("seg-checkpoint");
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        for i in 0..50 {
            j.append(&put("Q", &format!("old {i}"))).unwrap();
            j.append(&JournalRecord::TxCommit {
                keys: vec![],
                puts: Vec::new(),
                gets: vec![("Q".into(), crate::message::MessageId::generate())],
            })
            .unwrap();
        }
        let before = j.len_bytes();
        let snapshot = checkpoint_of(7, "live");
        j.write_checkpoint(&mut snapshot.clone().into_iter()).unwrap();
        assert!(j.len_bytes() < before, "truncation must shrink the store");
        assert_eq!(file_names(&root), ["00000000000000000100.seg"]);
        assert_eq!(j.replay_collect().unwrap(), snapshot);
        // The store keeps working after truncation, across a reopen.
        let after = put("Q", "after");
        j.append(&after).unwrap();
        drop(j);
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        let all = j.replay_collect().unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all.last().unwrap(), &after);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn appended_checkpoint_markers_at_a_roll_are_not_taken_for_a_checkpoint() {
        // The first record fills a segment; a checkpoint start and end
        // appended after it would be a segment of their own, which `open`
        // reads as a checkpoint and so unlinks the first.
        let root = temp_dir("seg-appended-markers");
        let config = SegmentConfig {
            roll_bytes: 100,
            sync_every_append: false,
        };
        let j = SegmentedJournal::open(&root, config.clone()).unwrap();
        let records = [
            named("Q".repeat(100)),
            JournalRecord::CheckpointStart {
                checkpoint_id: 1,
                queues: vec![],
                dedup: vec![],
            },
            JournalRecord::CheckpointEnd { checkpoint_id: 1 },
        ];
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let j = SegmentedJournal::open(&root, config).unwrap();
        assert_eq!(j.replay_collect().unwrap(), records);
        std::fs::remove_dir_all(&root).ok();
    }

    /// How often `name` is spelled out in the segment at `path`.
    fn spelled(path: &Path, name: &str) -> usize {
        let raw = std::fs::read(path).unwrap();
        raw.windows(name.len()).filter(|w| *w == name.as_bytes()).count()
    }

    #[test]
    fn a_file_spells_a_queue_name_out_once_and_codes_it_after() {
        // The name table restarts where a file starts: after a roll, a
        // checkpoint and a reopen, the file's first frame that names the
        // queue spells it out, and every later one writes its code.
        let named = |i: usize| put("Q.NAMED", &format!("m{i}"));
        let root = temp_dir("seg-names");
        let config = SegmentConfig {
            roll_bytes: 200,
            sync_every_append: false,
        };
        let j = SegmentedJournal::open(&root, config.clone()).unwrap();
        let mut acked = Vec::new();
        while j.segment_count().unwrap() < 2 || acked.len() < 8 {
            acked.push(named(acked.len()));
            j.append(acked.last().unwrap()).unwrap();
        }
        let rolled = segment_paths(&root);
        for path in &rolled {
            assert_eq!(spelled(path, "Q.NAMED"), 1, "{}", path.display());
        }
        assert_eq!(j.replay_collect().unwrap(), acked);
        // A checkpoint start lists the queue, spelled out, and neither
        // reads nor moves the table: the first row spells it out again.
        acked = vec![
            JournalRecord::CheckpointStart {
                checkpoint_id: 1,
                queues: vec!["Q.NAMED".into()],
                dedup: Vec::new(),
            },
            named(0),
            named(1),
            JournalRecord::CheckpointEnd { checkpoint_id: 1 },
        ];
        j.write_checkpoint(&mut acked.clone().into_iter()).unwrap();
        acked.push(named(2));
        j.append(acked.last().unwrap()).unwrap();
        let checkpoint = segment_paths(&root).pop().unwrap();
        assert_eq!(spelled(&checkpoint, "Q.NAMED"), 2);
        drop(j);
        let j = SegmentedJournal::open(&root, config).unwrap();
        for i in 3..5 {
            acked.push(named(i));
            j.append(acked.last().unwrap()).unwrap();
        }
        let reopened = segment_paths(&root).pop().unwrap();
        assert_ne!(reopened, checkpoint);
        assert_eq!(spelled(&reopened, "Q.NAMED"), 1);
        assert_eq!(j.replay_collect().unwrap(), acked);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_name_code_the_file_has_not_defined_is_refused() {
        // A frame naming its queue by the code an earlier frame gave it,
        // as the first frame of a file: replay finds no such code.
        let root = temp_dir("seg-undefined-name");
        std::fs::create_dir_all(&root).unwrap();
        let mut cursor = FileCursor::default();
        let defines = encode_segment_frame(0, &put("Q.NAMED", "a"), &mut cursor, Vec::new());
        let uses = encode_segment_frame(0, &put("Q.NAMED", "b"), &mut cursor, Vec::new());
        assert!(
            uses.len() < defines.len(),
            "the second frame names it by code"
        );
        std::fs::write(root.join(segment_file_name(0)), uses).unwrap();
        let err = SegmentedJournal::open(&root, SegmentConfig::default())
            .and_then(|j| j.replay_collect())
            .unwrap_err();
        match err {
            MqError::JournalCorrupt { reason, .. } => {
                assert!(reason.contains("unknown wire-string code 128"), "{reason}")
            }
            other => panic!("got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_file_of_spelled_out_names_still_decodes() {
        // Before the name table, a file spelled every unregistered queue
        // name out in every frame (its ids already ran on from frame to
        // frame): such a file replays, and appends go on in a new file.
        let root = temp_dir("seg-all-literal");
        std::fs::create_dir_all(&root).unwrap();
        let records: Vec<JournalRecord> = (0..4)
            .map(|i| JournalRecord::TxCommit {
                keys: vec![],
                puts: vec![(
                    "Q.NAMED".into(),
                    Message::text(format!("m{i}")).persistent(true).build(),
                )],
                gets: vec![(
                    "SYSTEM.XMIT.QM.TAIL".into(),
                    crate::message::MessageId::generate(),
                )],
            })
            .collect();
        let mut cursor = FileCursor::default();
        let mut raw = Vec::new();
        for (lsn, record) in (0..).zip(&records) {
            cursor.names = Default::default();
            raw.extend(encode_segment_frame(lsn, record, &mut cursor, Vec::new()));
        }
        let path = root.join(segment_file_name(0));
        std::fs::write(&path, raw).unwrap();
        assert_eq!(spelled(&path, "Q.NAMED"), records.len());
        let j = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), records);
        let after = put("Q.NAMED", "after");
        j.append(&after).unwrap();
        let mut all = records;
        all.push(after);
        assert_eq!(j.replay_collect().unwrap(), all);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_tail_is_healed_on_reopen() {
        let root = temp_dir("seg-torn");
        let j = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
        let keep = put("Q", "keep");
        j.append(&keep).unwrap();
        j.append(&put("Q", "torn")).unwrap();
        drop(j);
        cut(&segment_paths(&root)[0], 3);
        let j = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), vec![keep.clone()]);
        // The torn bytes were truncated away, so new appends replay cleanly
        // behind the surviving record rather than vanishing behind garbage.
        let fresh = put("Q", "fresh");
        j.append(&fresh).unwrap();
        assert_eq!(j.replay_collect().unwrap(), vec![keep, fresh]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn midfile_corruption_is_reported() {
        let root = temp_dir("seg-corrupt");
        let j = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
        j.append(&put("Q", "first")).unwrap();
        j.append(&put("Q", "second")).unwrap();
        drop(j);
        let seg = segment_paths(&root)[0].clone();
        let mut raw = std::fs::read(&seg).unwrap();
        raw[12] ^= 0xFF; // inside the first frame's body
        std::fs::write(&seg, &raw).unwrap();
        let err = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap_err();
        assert!(matches!(err, MqError::JournalCorrupt { .. }), "got {err:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_retired_segment_that_lost_its_tail_is_corruption_not_a_short_log() {
        // Only the last segment may end torn; an earlier one was fsynced
        // before its successor existed, so records missing from it were
        // acknowledged. Cut mid-frame and cut at a frame boundary (the LSN
        // chain breaks) are both refused.
        for by in [3, 0] {
            let root = temp_dir("seg-middle-cut");
            let j = SegmentedJournal::open(&root, small_config()).unwrap();
            for i in 0..40 {
                j.append(&put("Q", &format!("m{i}"))).unwrap();
            }
            drop(j);
            let segs = segment_paths(&root);
            assert!(segs.len() >= 3);
            let middle = &segs[1];
            let by = if by == 0 {
                // Drop exactly the last whole frame.
                let mut frames = open_segment(middle).unwrap();
                let mut last_start = 0;
                while let Some((offset, _)) = frames.next_body().unwrap() {
                    last_start = offset;
                }
                frames.valid_len() - last_start
            } else {
                by
            };
            cut(middle, by);
            let j = SegmentedJournal::open(&root, small_config()).unwrap();
            let err = j.replay_collect().unwrap_err();
            assert!(matches!(err, MqError::JournalCorrupt { .. }), "got {err:?}");
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn a_last_segment_that_lost_its_first_frame_is_refused() {
        // Every frame passes its CRC, and no segment follows to show the
        // gap: only the stamps, which no longer start at the file's name,
        // tell that an acknowledged record is missing.
        let root = temp_dir("seg-lost-first");
        let j = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
        for i in 0..3 {
            j.append(&put("Q", &format!("m{i}"))).unwrap();
        }
        drop(j);
        let seg = segment_paths(&root).pop().unwrap();
        let mut frames = open_segment(&seg).unwrap();
        frames.next_body().unwrap();
        let raw = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &raw[frames.valid_len() as usize..]).unwrap();
        let err = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap_err();
        assert!(matches!(err, MqError::JournalCorrupt { .. }), "got {err:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_segment_of_the_fixed_width_lsn_layout_is_refused() {
        // Frames whose body opens with a `u64` LSN, as an earlier build
        // wrote them: below 128 the stamp reads back right and the record
        // decode is left with bytes over; from 128 on it reads back wrong.
        for first_lsn in [0u64, 5, 127, 128, 300, 1 << 20] {
            let root = temp_dir("seg-u64-lsn");
            std::fs::create_dir_all(&root).unwrap();
            let mut raw = Vec::new();
            for (lsn, record) in (first_lsn..).zip(sample_records()) {
                let mut body = lsn.to_le_bytes().to_vec();
                body.extend_from_slice(&WireEncode::to_bytes(&record));
                raw.extend(encode_frame_body(&body));
            }
            std::fs::write(root.join(segment_file_name(first_lsn)), raw).unwrap();
            let err = SegmentedJournal::open(&root, SegmentConfig::default())
                .and_then(|j| j.replay_collect())
                .unwrap_err();
            assert!(
                matches!(err, MqError::JournalCorrupt { .. }),
                "first LSN {first_lsn}: got {err:?}"
            );
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn a_root_in_the_per_queue_layout_is_refused() {
        let root = temp_dir("seg-old-layout");
        std::fs::create_dir_all(root.join("@control")).unwrap();
        std::fs::write(root.join("@control").join(segment_file_name(0)), b"").unwrap();
        let err = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap_err();
        assert!(matches!(err, MqError::JournalCorrupt { .. }), "got {err:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_history_beside_a_complete_checkpoint_is_superseded_then_removed() {
        let root = temp_dir("seg-crash-late");
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        let history: Vec<_> = (0..20).map(|i| put("Q", &format!("old {i}"))).collect();
        for r in &history {
            j.append(r).unwrap();
        }
        // "Checkpoint renamed into place, unlinks lost": snapshot the
        // directory, checkpoint, then restore the pre-checkpoint segments
        // next to the checkpoint segment.
        let backup = temp_dir("seg-crash-late-backup");
        copy_files(&root, &backup);
        let snapshot = checkpoint_of(1, "live");
        j.write_checkpoint(&mut snapshot.clone().into_iter()).unwrap();
        copy_files(&backup, &root); // stale history reappears
        // A replay that meets both (what a failed unlink leaves a running
        // journal with) yields history, then the complete checkpoint for
        // recovery's buffer-and-swap to prefer.
        let mut both = history.clone();
        both.extend(snapshot.clone());
        assert_eq!(j.replay_collect().unwrap(), both);
        drop(j);
        // The crash may also have torn a stale file: it was on its way out,
        // so that is not corruption.
        cut(&segment_paths(&root)[1], 5);
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), snapshot);
        assert_eq!(j.segment_count().unwrap(), 1, "open() finishes the truncation");
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&backup).ok();
    }

    #[test]
    fn crash_mid_checkpoint_write_leaves_history_and_no_trace() {
        let root = temp_dir("seg-crash-early");
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        let history: Vec<_> = (0..5).map(|i| put("Q", &format!("old {i}"))).collect();
        for r in &history {
            j.append(r).unwrap();
        }
        let backup = temp_dir("seg-crash-early-backup");
        copy_files(&root, &backup);
        j.write_checkpoint(&mut checkpoint_of(2, "live").into_iter()).unwrap();
        drop(j);
        // A crash mid-checkpoint-write: history still on disk, the new
        // segment torn before its CheckpointEnd frame and never renamed.
        let ckpt = segment_paths(&root)[0].clone();
        cut(&ckpt, 10);
        let mut tmp = ckpt.clone().into_os_string();
        tmp.push(TMP_SUFFIX);
        std::fs::rename(&ckpt, &tmp).unwrap();
        copy_files(&backup, &root);
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        assert_eq!(j.replay_collect().unwrap(), history);
        assert!(file_names(&root).iter().all(|n| n.ends_with(".seg")));
        // Appends continue the old chain.
        let after = put("Q", "after");
        j.append(&after).unwrap();
        drop(j);
        let j = SegmentedJournal::open(&root, small_config()).unwrap();
        assert_eq!(j.replay_collect().unwrap().last(), Some(&after));
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&backup).ok();
    }

    // ------------------------------------------------------ commit path --

    #[test]
    fn acked_appends_are_synced_before_return() {
        let root = temp_dir("seg-acked");
        let j = SegmentedJournal::open(&root, durable_config()).unwrap();
        let covered = Arc::new(AtomicU64::new(0));
        let seen = covered.clone();
        j.set_sync_hook(move |covers| {
            seen.fetch_max(covers, Ordering::SeqCst);
            Ok(())
        });
        for (lsn, r) in sample_records().iter().enumerate() {
            j.append(r).unwrap();
            // The durability contract, probed after every single append: a
            // sync covering this record's LSN ran before the ack.
            assert!(covered.load(Ordering::SeqCst) > lsn as u64);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sync_failure_is_sticky_for_the_batch_and_every_later_append() {
        let root = temp_dir("seg-sticky");
        let j = SegmentedJournal::open(&root, durable_config()).unwrap();
        // The failing sync does not return before all four appenders have
        // written their frames, so three of them are parked behind it.
        const WRITERS: u64 = 4;
        let probe = Arc::downgrade(&j);
        j.set_sync_hook(move |_| {
            let j = probe.upgrade().expect("journal outlives its appenders");
            while j.inner.lock().next_lsn < WRITERS {
                std::thread::yield_now();
            }
            Err(std::io::Error::other("disk on fire"))
        });
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|t| s.spawn({ let j = &j; move || j.append(&named(format!("Q{t}"))) }))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert!(matches!(r, Err(MqError::Io(_))), "got {r:?}");
        }
        // A healthy disk does not bring the journal back: nothing after the
        // failed batch may be reported durable.
        j.set_sync_hook(|_| Ok(()));
        let before = j.counts();
        assert!(matches!(j.append(&named("late".into())), Err(MqError::Io(_))));
        assert_eq!(j.counts(), before, "fails fast, without touching storage");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_appenders_share_fsyncs() {
        // A sync slow enough (1ms) that 8 free-running appenders pile up
        // behind each batch: every record must survive, and the whole
        // point of group commit — fsyncs ≪ appends — must hold.
        let root = temp_dir("seg-sharing");
        let j = SegmentedJournal::open(&root, durable_config()).unwrap();
        j.set_sync_hook(|_| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        });
        std::thread::scope(|s| {
            for t in 0..8 {
                let j = &j;
                s.spawn(move || {
                    for i in 0..100 {
                        j.append(&named(format!("Q{t}-{i}"))).unwrap();
                    }
                });
            }
        });
        let (appends, fsyncs) = j.counts();
        assert_eq!(appends, 800);
        assert!(
            fsyncs < 800 / 4,
            "group commit must share fsyncs: {fsyncs} fsyncs for 800 appends"
        );
        assert_eq!(j.batch_size.sum(), 800);
        assert!(j.group_waits.get() > 0);
        drop(j);
        let j = SegmentedJournal::open(&root, durable_config()).unwrap();
        let mut names: Vec<String> = j
            .replay_collect()
            .unwrap()
            .into_iter()
            .map(|r| match r {
                JournalRecord::QueueCreated { queue } => queue,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(names.len(), 800);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 800, "every (thread, i) record exactly once");
        std::fs::remove_dir_all(&root).ok();
    }

    mod crash_proptest {
        use super::*;
        use crate::message::MessageId;
        use crate::{QueueManager, Wait};
        use proptest::prelude::*;

        /// A queue name: mostly one of a few, so that a file names each
        /// again and again (an unregistered one by its per-file code after
        /// its first frame), else any.
        fn arb_queue() -> impl Strategy<Value = String> {
            const FEW: [&str; 4] = ["Q.A", "Q.B", "SYSTEM.XMIT.QM.TAIL", "DS.ACK.Q"];
            prop_oneof![
                3 => (0..FEW.len()).prop_map(|i| FEW[i].to_owned()),
                1 => "[A-Z]{1,8}",
            ]
        }

        fn arb_record() -> impl Strategy<Value = JournalRecord> {
            prop_oneof![
                arb_queue().prop_map(|queue| JournalRecord::QueueCreated { queue }),
                (arb_queue(), "[a-z]{0,32}").prop_map(|(queue, payload)| JournalRecord::Put {
                    queue: queue.into(),
                    message: Message::text(payload).persistent(true).build(),
                }),
                arb_queue().prop_map(|queue| JournalRecord::TxCommit {
                    keys: vec![],
                    puts: Vec::new(),
                    gets: vec![(queue.into(), crate::message::MessageId::generate())],
                }),
                // Checkpoint records ride the same framing as everything
                // else, so the prefix-durability property must hold for
                // them too.
                (1u64..8, proptest::collection::vec(arb_queue(), 0..3)).prop_map(
                    |(checkpoint_id, queues)| JournalRecord::CheckpointStart {
                        checkpoint_id,
                        queues,
                        dedup: vec![(checkpoint_id, u128::from(checkpoint_id))],
                    }
                ),
                (1u64..8).prop_map(|checkpoint_id| JournalRecord::CheckpointEnd { checkpoint_id }),
            ]
        }

        /// A record whose ids run on from the frame before it: puts (some
        /// correlated) and gets of fresh ids of this process, each id a
        /// small step from the last, and gets of arbitrary ids.
        fn arb_tx_commit() -> impl Strategy<Value = JournalRecord> {
            let put = (arb_queue(), "[a-z]{0,12}", any::<bool>());
            // An id of epoch 0 (a correlation id an application spelled
            // in 32 hex digits can be one) is a delta from the cursor it
            // follows even in a file's first frame, so only it shows a
            // decoder that misplaces the cursor.
            let other = prop_oneof![any::<u128>(), (0u64..1000).prop_map(u128::from)];
            let get = (arb_queue(), proptest::option::of(other));
            (
                proptest::collection::vec(put, 0..4),
                proptest::collection::vec(get, 0..4),
            )
                .prop_map(|(puts, gets)| JournalRecord::TxCommit {
                    keys: vec![],
                    puts: puts
                        .into_iter()
                        .map(|(queue, payload, correlated)| {
                            let mut msg = Message::text(payload).persistent(true);
                            if correlated {
                                msg = msg.correlation_u128(MessageId::generate().as_u128());
                            }
                            (queue.into(), msg.build())
                        })
                        .collect(),
                    gets: gets
                        .into_iter()
                        .map(|(queue, id)| {
                            let id = id.map_or_else(MessageId::generate, MessageId::from_u128);
                            (queue.into(), id)
                        })
                        .collect(),
                })
        }

        /// One step of a journal's life.
        #[derive(Debug, Clone)]
        enum Step {
            /// An acknowledged append.
            Append(JournalRecord),
            /// The process ends cleanly and a new one opens the root.
            Reopen,
            /// A checkpoint of `n` live messages.
            Checkpoint(usize),
            /// The process dies inside an append of this record, having
            /// written the first `permille`/1000 of its frame behind the
            /// last segment's frames; a new one opens the root.
            Tear(JournalRecord, u64),
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            let record = || prop_oneof![3 => arb_tx_commit(), 1 => arb_record()];
            prop_oneof![
                8 => record().prop_map(Step::Append),
                2 => Just(Step::Reopen),
                1 => (0usize..4).prop_map(Step::Checkpoint),
                1 => (record(), 0u64..1000).prop_map(|(r, p)| Step::Tear(r, p)),
            ]
        }

        fn unique_root(tag: &str) -> PathBuf {
            temp_dir(&format!("seg-prop-{tag}"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The durability contract under a crash at an arbitrary point:
            /// every *acknowledged* append is replayed; unacknowledged
            /// appends racing the crash survive as a clean prefix (a torn
            /// tail is dropped, never an error, never a gap, never a
            /// reorder) — across segment rolls.
            #[test]
            fn crash_recovers_exactly_a_durable_prefix(
                acked in proptest::collection::vec(arb_record(), 0..24),
                unacked in proptest::collection::vec(arb_record(), 0..6),
                tear in 0u64..4096,
            ) {
                let config = SegmentConfig { roll_bytes: 200, sync_every_append: true };
                let root = unique_root("prefix");
                let j = SegmentedJournal::open(&root, config.clone()).unwrap();
                for r in &acked {
                    j.append(r).unwrap();
                }
                drop(j);
                // Appends that reached the page cache but whose ack never
                // came back: written, not yet synced, when the machine
                // dies with `tear` bytes of them written back. They go
                // behind the last segment's frames, their ids continuing
                // its cursor.
                let (last, mut cursor) = match segment_paths(&root).pop() {
                    Some(last) => {
                        let cursor = cursor_after(&last);
                        (last, cursor)
                    }
                    None => (root.join(segment_file_name(0)), FileCursor::default()),
                };
                let mut raw = Vec::new();
                for (i, r) in unacked.iter().enumerate() {
                    let lsn = (acked.len() + i) as u64;
                    raw.extend(encode_segment_frame(lsn, r, &mut cursor, Vec::new()));
                }
                raw.truncate(tear.min(raw.len() as u64) as usize);
                OpenOptions::new().create(true).append(true).open(&last).unwrap()
                    .write_all(&raw).unwrap();

                let j = SegmentedJournal::open(&root, config).unwrap();
                let replayed = j.replay_collect().unwrap();
                // All acked records are there, in order...
                prop_assert!(replayed.len() >= acked.len());
                prop_assert_eq!(&replayed[..acked.len()], &acked[..]);
                // ...and anything beyond them is a prefix of the in-flight
                // tail, with the torn final record (if any) dropped.
                let extra = &replayed[acked.len()..];
                prop_assert!(extra.len() <= unacked.len());
                prop_assert_eq!(extra, &unacked[..extra.len()]);
                std::fs::remove_dir_all(&root).ok();
            }

            /// The id cursor's scope: ids run on from frame to frame within
            /// a segment file and restart where a file starts — the first
            /// append, a roll, a checkpoint, the first append after a
            /// reopen. Whatever mix of those a journal lives through, with
            /// torn appends among them, replay returns exactly the
            /// acknowledged records, after every reopen.
            #[test]
            fn replay_is_exact_across_reopens_rolls_checkpoints_and_torn_appends(
                steps in proptest::collection::vec(arb_step(), 1..40),
            ) {
                let config = SegmentConfig { roll_bytes: 160, sync_every_append: false };
                let root = unique_root("cursor");
                let mut j = SegmentedJournal::open(&root, config.clone()).unwrap();
                let mut acked: Vec<JournalRecord> = Vec::new();
                let mut next_lsn = 0u64;
                for (checkpoint_id, step) in (100..).zip(steps) {
                    match step {
                        Step::Append(record) => {
                            j.append(&record).unwrap();
                            acked.push(record);
                            next_lsn += 1;
                        }
                        Step::Reopen => {
                            drop(j);
                            j = SegmentedJournal::open(&root, config.clone()).unwrap();
                            prop_assert_eq!(&j.replay_collect().unwrap(), &acked);
                        }
                        Step::Checkpoint(live) => {
                            let mut snapshot = vec![JournalRecord::CheckpointStart {
                                checkpoint_id,
                                queues: vec!["Q".into()],
                                dedup: vec![(1, MessageId::generate().as_u128())],
                            }];
                            snapshot.extend((0..live).map(|i| put("Q", &format!("live {i}"))));
                            snapshot.push(JournalRecord::CheckpointEnd { checkpoint_id });
                            j.write_checkpoint(&mut snapshot.clone().into_iter()).unwrap();
                            next_lsn += snapshot.len() as u64;
                            acked = snapshot;
                        }
                        Step::Tear(record, permille) => {
                            drop(j);
                            let (last, mut cursor) = match segment_paths(&root).pop() {
                                Some(last) => {
                                    let cursor = cursor_after(&last);
                                    (last, cursor)
                                }
                                None => {
                                    let first = root.join(segment_file_name(next_lsn));
                                    (first, FileCursor::default())
                                }
                            };
                            let frame =
                                encode_segment_frame(next_lsn, &record, &mut cursor, Vec::new());
                            let kept = (frame.len() as u64 - 1) * permille / 1000;
                            OpenOptions::new().create(true).append(true).open(&last).unwrap()
                                .write_all(&frame[..kept as usize]).unwrap();
                            j = SegmentedJournal::open(&root, config.clone()).unwrap();
                            prop_assert_eq!(&j.replay_collect().unwrap(), &acked);
                        }
                    }
                }
                drop(j);
                let j = SegmentedJournal::open(&root, config).unwrap();
                prop_assert_eq!(j.replay_collect().unwrap(), acked);
                std::fs::remove_dir_all(&root).ok();
            }

            /// A crash at *any* point of checkpoint-then-truncate recovers
            /// exactly the live message set, and so does every restart
            /// after it. Before the rename nothing has been deleted and the
            /// torn snapshot is invisible (history wins); after it, any
            /// subset of the unlinks may have happened, possibly tearing a
            /// file on its way out (the snapshot wins); either way the
            /// logical state is identical.
            #[test]
            fn crash_during_checkpoint_recovers_exactly_the_live_set(
                puts in 1usize..24,
                consumed_permille in 0usize..1000,
                tear_permille in proptest::option::of(0u64..=1000),
                keep_old in proptest::collection::vec(any::<bool>(), 16),
                tear_old in proptest::option::of((0usize..16, 1u64..40)),
            ) {
                let consumed = puts * consumed_permille / 1000;
                let config = SegmentConfig { roll_bytes: 200, sync_every_append: false };
                let root = unique_root("work");
                let journal = SegmentedJournal::open(&root, config.clone()).unwrap();
                let qm = QueueManager::builder("QM1")
                    .journal(journal.clone())
                    .build()
                    .unwrap();
                qm.create_queue("Q").unwrap();
                for i in 0..puts {
                    qm.put("Q", Message::text(format!("m{i}")).persistent(true).build())
                        .unwrap();
                }
                for _ in 0..consumed {
                    qm.get("Q", Wait::NoWait).unwrap().unwrap();
                }
                let mut live: Vec<String> = (consumed..puts).map(|i| format!("m{i}")).collect();

                let pre = unique_root("pre");
                copy_files(&root, &pre);
                qm.checkpoint().unwrap();
                qm.crash();
                let ckpt = segment_paths(&root).pop().unwrap();
                prop_assert_eq!(journal.segment_count().unwrap(), 1);

                // The crash image: the checkpoint segment — torn and still
                // under its temporary name if the crash came before the
                // rename, in which case no unlink ran either — plus the
                // pre-checkpoint segments the unlink pass had not reached.
                let crash_root = unique_root("crash");
                std::fs::create_dir_all(&crash_root).unwrap();
                let mut name = ckpt.file_name().unwrap().to_owned();
                if tear_permille.is_some() {
                    name.push(TMP_SUFFIX);
                }
                let image = crash_root.join(name);
                std::fs::copy(&ckpt, &image).unwrap();
                if let Some(p) = tear_permille {
                    let len = std::fs::metadata(&image).unwrap().len();
                    cut(&image, len - len * p / 1000);
                }
                for (idx, old) in segment_paths(&pre).iter().enumerate() {
                    let kept = tear_permille.is_some()
                        || keep_old.get(idx).copied().unwrap_or(true);
                    if !kept {
                        continue;
                    }
                    let dst = crash_root.join(old.file_name().unwrap());
                    std::fs::copy(old, &dst).unwrap();
                    if let (None, Some((which, by))) = (tear_permille, tear_old) {
                        if which == idx {
                            cut(&dst, by.min(std::fs::metadata(&dst).unwrap().len()));
                        }
                    }
                }

                let recover = |expect: &[String]| {
                    let journal = SegmentedJournal::open(&crash_root, config.clone()).unwrap();
                    let qm = QueueManager::builder("QM1")
                        .journal(journal)
                        .build()
                        .unwrap();
                    let recovered: Vec<String> = qm
                        .queue("Q")
                        .unwrap()
                        .browse()
                        .iter()
                        .map(|m| m.payload_str().unwrap().to_owned())
                        .collect();
                    assert_eq!(recovered, expect);
                    qm
                };
                let qm2 = recover(&live);
                // Life goes on: what is journaled after the first restart
                // must survive the second.
                qm2.put("Q", Message::text("after").persistent(true).build()).unwrap();
                live.push("after".into());
                qm2.get("Q", Wait::NoWait).unwrap().unwrap();
                live.remove(0);
                qm2.crash();
                recover(&live);

                std::fs::remove_dir_all(&root).ok();
                std::fs::remove_dir_all(&pre).ok();
                std::fs::remove_dir_all(&crash_root).ok();
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// A commit's frame is built from the staged puts themselves,
            /// handed to the record: it equals, byte for byte, the owned
            /// `TxCommit` of what the transaction journals — its persistent
            /// puts as committed, then the released gets it carries and
            /// its own persistent gets — encoded under the same cursor.
            /// Puts carry text and hex correlation ids and repeat payloads
            /// (written once); volatile puts and gets stay out, and a
            /// transaction with nothing of its own to write writes nothing.
            #[test]
            fn a_commit_frame_is_its_owned_record_under_the_same_cursor(
                puts in proptest::collection::vec(
                    (0..3u8, 0..3usize, any::<bool>(), any::<bool>()),
                    0..8,
                ),
                gets in proptest::collection::vec(any::<bool>(), 0..4),
                carried in 0usize..4,
            ) {
                let root = unique_root("staged");
                let journal = SegmentedJournal::open(&root, SegmentConfig::default()).unwrap();
                let clock = crate::SimClock::new();
                let qm = QueueManager::builder("QM.STAGED")
                    .clock(clock.clone())
                    .journal(journal.clone())
                    .build()
                    .unwrap();
                for queue in ["Q.A", "Q.B", "Q.GET"] {
                    qm.create_queue(queue).unwrap();
                }
                // What the channels release, then what the transaction
                // takes, oldest first.
                let taken = std::iter::repeat_n(true, carried).chain(gets.iter().copied());
                for (i, persistent) in taken.enumerate() {
                    let msg = Message::text(format!("get {i}")).persistent(persistent);
                    qm.put("Q.GET", msg.build()).unwrap();
                }
                let mut handoff = crate::session::TxState::default();
                let mut released = Vec::new();
                for _ in 0..carried {
                    let msg = handoff.get(&qm, "Q.GET", Wait::NoWait).unwrap().unwrap();
                    released.push(msg.id());
                }
                qm.release(handoff).map_err(|(e, _)| e).unwrap();
                let mut session = qm.session();
                session.begin().unwrap();
                let mut own = Vec::new();
                for _ in &gets {
                    let msg = session.get("Q.GET", Wait::NoWait).unwrap().unwrap();
                    if msg.is_persistent() {
                        own.push(msg.id());
                    }
                }
                let payloads: [&'static [u8]; 3] = [b"", b"payload", b"another payload"];
                let mut staged = Vec::new();
                for &(correlation, payload, persistent, to_b) in &puts {
                    let msg = Message::builder(bytes::Bytes::from_static(payloads[payload]))
                        .persistent(persistent);
                    let msg = match correlation {
                        0 => msg,
                        1 => msg.correlation_id(format!("order-{payload}")),
                        _ => msg.correlation_u128(MessageId::generate().as_u128()),
                    }
                    .build();
                    let queue = if to_b { "Q.B" } else { "Q.A" };
                    session.put(queue, msg.clone()).unwrap();
                    staged.push((Arc::<str>::from(queue), msg));
                }
                let path = segment_paths(&root).pop().unwrap();
                let mut cursor = cursor_after(&path);
                let lsn = journal.inner.lock().next_lsn;
                let before = std::fs::metadata(&path).unwrap().len() as usize;
                session.commit().unwrap();
                let written = std::fs::read(&path).unwrap().split_off(before);

                let now = simtime::Clock::now(&*clock);
                let puts: Vec<_> = staged
                    .into_iter()
                    .filter(|(_, msg)| msg.is_persistent())
                    .map(|(queue, mut msg)| {
                        msg.stamp_enqueue(now);
                        (queue, msg)
                    })
                    .collect();
                // Released gets ride a record written anyway; alone, they
                // wait for the next one.
                let gets: Vec<_> =
                    released.iter().chain(&own).map(|id| (Arc::from("Q.GET"), *id)).collect();
                if puts.is_empty() && own.is_empty() {
                    prop_assert!(written.is_empty());
                } else {
                    let owned = JournalRecord::TxCommit { keys: vec![], puts, gets };
                    let frame = encode_segment_frame(lsn, &owned, &mut cursor, Vec::new());
                    prop_assert_eq!(written, frame);
                }
                qm.shutdown();
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }
}
