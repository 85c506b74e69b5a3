//! Disk spill tier for the pooled message plane: out-of-core frontiers.
//!
//! When the chunk pool hits its live-chunk cap, the engine used to degrade
//! by growing chunks in place — bounded allocation count, unbounded bytes.
//! A [`SpillStore`] replaces that: cold frontier chunks are written as
//! segments inside a per-run temp directory, their pool chunks are
//! released for reuse, and the receiving worker reads the segments back
//! at the next superstep boundary, acquiring no pool chunk.
//!
//! # Segment layout
//!
//! ```text
//! header: "PSGLSPL2" | tuples: u64 | block_len: u64
//!         | per block: first vertex u32, checksum u64 | FxHash checksum
//! blocks: per block, up to block_len tuples of (vertex u32 | message)
//! ```
//!
//! A segment holds its tuples stably ordered by destination vertex, each
//! message in its [`Encode`] layout, cut into blocks of `block_len` tuples
//! (the run's chunk capacity; the last block may hold fewer). The header
//! is a sealed [`psgl_graph::blob`], the envelope the checkpoints share,
//! and records each block's first vertex and the [`blob::checksum`] of its
//! bytes; block `i` starts `i × block_len` tuples after the header. So a
//! reader fetches the blocks that hold a range of vertices with one
//! positioned read and checks each block before it decodes it. A capped
//! worker reads its inbox that way, one range of vertices at a time (see
//! [`crate::engine`]); only a checkpoint capture reads a whole segment
//! ([`SpillStore::readmit`]). Ordering a segment never reorders one
//! vertex's messages, and a segment keeps its place among its inbox's
//! parts, so every vertex still receives its messages in delivery order
//! and spilling never changes results.
//!
//! Failure polarity is asymmetric by design:
//!
//! - **write failures degrade** — ENOSPC, a hard [`SpillConfig::max_spill_bytes`]
//!   cap ([`SpillError::Exhausted`]), or an injected fault leave the chunks
//!   resident and fall back to the old grow-in-place path: slower and
//!   bigger, never wrong;
//! - **read failures abort** — a truncated or corrupt header or block
//!   means tuples the run already committed to deliver are gone, so the
//!   read surfaces a typed error and the engine cancels cleanly instead of
//!   answering from a damaged frontier.
//!
//! Dropping the store removes its directory, so every exit path — finish,
//! cancel, preempt, panic-unwind through the owner — deletes the run's
//! spill files.

use crate::chunk::Chunk;
use crate::context::Encode;
use crate::regroup::{order_by_vertex, Key, Keys};
use parking_lot::Mutex;
use psgl_graph::blob::{self, Reader, Truncated, UnsealError};
use psgl_graph::VertexId;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Magic prefix of every segment's header.
pub const SPILL_MAGIC: &[u8; 8] = b"PSGLSPL2";

/// Header bytes beside the block table: magic, tuple count, block length
/// and checksum.
const HEADER_FIXED: u64 = 8 + 8 + 8 + 8;
/// Header bytes per block: its first vertex and its checksum.
const BLOCK_ENTRY: u64 = 4 + 8;
/// Where the block table starts in the header.
const TABLE_AT: usize = 8 + 8 + 8;

/// Serial number for per-run spill directories (process-wide, so two
/// concurrent runs in one process never collide).
static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Typed spill failures. Write-side variants are recoverable (the caller
/// keeps the chunks resident); read-side variants are not — the frontier
/// on disk is the only copy of those tuples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillError {
    /// The underlying filesystem operation failed (includes injected
    /// ENOSPC faults).
    Io(String),
    /// The header does not start with [`SPILL_MAGIC`].
    NotASpillBlob,
    /// The blob ended before the field being decoded ("short read").
    Truncated {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// A checksum did not match: the header's own, or a block's as the
    /// header records it.
    Corrupt {
        /// Checksum recorded in the segment.
        expected: u64,
        /// Checksum recomputed over the bytes read.
        got: u64,
    },
    /// The header's tuple count disagrees with the segment's manifest.
    CountMismatch {
        /// Tuples the segment was recorded to hold.
        expected: u64,
        /// Tuples the header says it holds.
        got: u64,
    },
    /// The segment passed its checksums but holds what this engine never
    /// writes: a tuple the message's [`Encode::decode`] rejects, tuples out
    /// of vertex order, or a block length other than the manifest's.
    Malformed {
        /// What the codec rejected.
        what: &'static str,
    },
    /// The hard spill-byte budget is exhausted; the write was refused and
    /// the caller must keep its chunks resident.
    Exhausted {
        /// Spill bytes currently on disk.
        spilled: u64,
        /// The configured [`SpillConfig::max_spill_bytes`] cap.
        cap: u64,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O: {e}"),
            SpillError::NotASpillBlob => write!(f, "spill blob lacks the PSGLSPL1 magic"),
            SpillError::Truncated { what } => write!(f, "spill blob truncated reading {what}"),
            SpillError::Corrupt { expected, got } => write!(
                f,
                "spill blob checksum mismatch: recorded {expected:016x}, computed {got:016x}"
            ),
            SpillError::CountMismatch { expected, got } => {
                write!(f, "spill segment header says {got} tuples, manifest says {expected}")
            }
            SpillError::Malformed { what } => write!(f, "spill segment is malformed: {what}"),
            SpillError::Exhausted { spilled, cap } => {
                write!(f, "spill budget exhausted: {spilled} bytes on disk, cap {cap}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

/// Whether this error may be absorbed by keeping the chunks resident
/// (write side) or must abort the run (read side).
impl SpillError {
    /// True for write-side failures the engine degrades through.
    pub fn is_degradable(&self) -> bool {
        matches!(self, SpillError::Io(_) | SpillError::Exhausted { .. })
    }
}

impl From<Truncated> for SpillError {
    fn from(t: Truncated) -> Self {
        SpillError::Truncated { what: t.what }
    }
}

/// Injectable disk-pressure faults, for the chaos harness. All default to
/// "no fault"; production configs never set them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillFaults {
    /// Fail every write once this many bytes have been written by the
    /// store (simulated ENOSPC mid-spill).
    pub fail_write_after_bytes: Option<u64>,
    /// Sleep this many microseconds per spilled chunk (slow disk); the
    /// time lands in the `spill_stall` counter like real I/O would.
    pub slow_write_per_chunk_us: u64,
    /// Flip one byte of each segment's header as it is read back, before
    /// any tuple is (corrupt read — must produce a typed checksum error,
    /// never a wrong answer).
    pub corrupt_read: bool,
    /// Drop the last byte of every read that resumes a segment past its
    /// first tuple: a capped worker meets it in a later range group, after
    /// `compute` has run on the group that read the segment's start
    /// (short read — must produce a typed truncation error).
    pub short_read: bool,
}

impl SpillFaults {
    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        *self != SpillFaults::default()
    }
}

/// Configuration of the spill tier, threaded from `PsglConfig` /
/// `RunnerHooks` down to the engine.
#[derive(Clone, Debug, Default)]
pub struct SpillConfig {
    /// Directory the per-run spill directory is created under
    /// (`None` = the system temp directory).
    pub dir: Option<PathBuf>,
    /// Hard cap on bytes simultaneously on disk; beyond it writes fail
    /// with [`SpillError::Exhausted`] and the engine degrades to resident
    /// retention (`None` = unbounded).
    pub max_spill_bytes: Option<u64>,
    /// Fault injection (chaos harness only).
    pub faults: SpillFaults,
    /// Counted up as each segment is written, while the run goes on: a
    /// live signal that a run has spilled, for an owner that cannot see
    /// the run's store (`None` = nobody watches).
    pub segments_written: Option<psgl_obs::Counter>,
}

impl SpillConfig {
    /// A spill tier in the system temp directory with no byte cap.
    pub fn in_temp() -> SpillConfig {
        SpillConfig::default()
    }
}

/// One spilled run of tuples: the on-disk replacement for `chunks` pool
/// chunks holding `tuples` messages for a single destination. Segments
/// are single-use — reading the last of their tuples consumes them.
#[derive(Debug)]
pub struct SpillSegment {
    path: PathBuf,
    /// Tuples per block; the last block may hold fewer.
    block_len: u64,
    /// Pool chunks this segment displaced.
    pub chunks: u64,
    /// Tuples encoded in the blob.
    pub tuples: u64,
    /// Size on disk: header and blocks.
    pub bytes: u64,
}

impl SpillSegment {
    /// Blocks the tuples fill.
    pub(crate) fn blocks(&self) -> usize {
        self.tuples.div_ceil(self.block_len) as usize
    }

    /// Tuples in the blocks before block `b`.
    pub(crate) fn tuples_before(&self, b: usize) -> u64 {
        (b as u64 * self.block_len).min(self.tuples)
    }

    /// The block that holds tuple `t`.
    pub(crate) fn block_of(&self, t: u64) -> usize {
        (t / self.block_len) as usize
    }

    /// Bytes of the sealed header in front of the first block.
    fn header_bytes(&self) -> u64 {
        HEADER_FIXED + self.blocks() as u64 * BLOCK_ENTRY
    }
}

/// One block of a segment, as the segment's header records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Block {
    /// Destination of the block's first tuple. The block's tuples ascend
    /// from it and stay at or below the next block's first vertex.
    pub(crate) first: VertexId,
    /// [`blob::checksum`] of the block's bytes.
    checksum: u64,
}

/// The retained buffers a segment is written through, so that spilling
/// allocates nothing once they have grown: the vertex order of its tuples,
/// the counting sort's counts, and the encoded segment.
#[derive(Default)]
pub struct SpillScratch {
    order: Vec<Key>,
    counts: Vec<u32>,
    frame: Vec<u8>,
}

/// Per-run spill directory plus counters. Creating the store makes the
/// directory; dropping it removes the directory and everything in it —
/// the cleanup guard the engine relies on for every exit path.
pub struct SpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
    max_spill_bytes: Option<u64>,
    faults: SpillFaults,
    segments_written: Option<psgl_obs::Counter>,
    /// Bytes currently on disk (written minus re-admitted/discarded).
    live_bytes: AtomicU64,
    /// Bytes ever written (drives the injected-ENOSPC fault).
    written_total: AtomicU64,
    spill_chunks: AtomicU64,
    spill_bytes: AtomicU64,
    readmitted_chunks: AtomicU64,
    stall_nanos: AtomicU64,
    exhausted_events: AtomicU64,
    write_failures: AtomicU64,
    /// Serializes filesystem mutation; counters stay lock-free.
    io: Mutex<()>,
}

impl SpillStore {
    /// Creates the per-run spill directory under `config.dir` (or the
    /// system temp directory) and returns the store guarding it.
    pub fn create(config: &SpillConfig) -> Result<SpillStore, SpillError> {
        let base = config.dir.clone().unwrap_or_else(std::env::temp_dir);
        let serial = DIR_SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("psgl-spill-{}-{serial}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| SpillError::Io(e.to_string()))?;
        Ok(SpillStore {
            dir,
            next_id: AtomicU64::new(0),
            max_spill_bytes: config.max_spill_bytes,
            faults: config.faults,
            segments_written: config.segments_written.clone(),
            live_bytes: AtomicU64::new(0),
            written_total: AtomicU64::new(0),
            spill_chunks: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            readmitted_chunks: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
            exhausted_events: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            io: Mutex::new(()),
        })
    }

    /// The run's spill directory (exists while the store lives).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes every tuple of `chunks` as one segment: stably ordered by
    /// destination vertex, in blocks of `block_len` tuples, encoded in
    /// `scratch`. On success the caller releases the chunks back to the
    /// pool; on failure (budget, injected ENOSPC, real I/O error) the caller
    /// keeps them resident — the tuples were not consumed.
    pub fn spill<M: Encode>(
        &self,
        chunks: &[Chunk<M>],
        block_len: usize,
        scratch: &mut SpillScratch,
    ) -> Result<SpillSegment, SpillError> {
        let result = self.stalled(|| self.spill_inner(chunks, block_len, scratch));
        if result.is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn spill_inner<M: Encode>(
        &self,
        chunks: &[Chunk<M>],
        block_len: usize,
        scratch: &mut SpillScratch,
    ) -> Result<SpillSegment, SpillError> {
        let tuples: usize = chunks.iter().map(Vec::len).sum();
        let block_len = block_len.max(1);
        let mut seg = SpillSegment {
            path: PathBuf::new(),
            block_len: block_len as u64,
            chunks: chunks.len() as u64,
            tuples: tuples as u64,
            bytes: 0,
        };
        let header = seg.header_bytes() as usize;
        seg.bytes = (header + tuples * (4 + M::ENCODED_LEN)) as u64;
        if let Some(cap) = self.max_spill_bytes {
            let live = self.live_bytes.load(Ordering::Relaxed);
            if live + seg.bytes > cap {
                self.exhausted_events.fetch_add(1, Ordering::Relaxed);
                return Err(SpillError::Exhausted { spilled: live, cap });
            }
        }
        if let Some(limit) = self.faults.fail_write_after_bytes {
            if self.written_total.load(Ordering::Relaxed) + seg.bytes > limit {
                return Err(SpillError::Io(format!(
                    "no space left on device (injected after {limit} bytes)"
                )));
            }
        }
        if self.faults.slow_write_per_chunk_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(
                self.faults.slow_write_per_chunk_us * chunks.len() as u64,
            ));
        }
        let SpillScratch { order, counts, frame } = scratch;
        let (mut lo, mut hi) = (VertexId::MAX, 0);
        chunks.each(|v, _, _| (lo, hi) = (lo.min(v), hi.max(v)));
        let span = if tuples == 0 { 0 } else { (hi - lo) as usize + 1 };
        order_by_vertex(chunks, tuples, lo, span, counts, order);
        frame.clear();
        frame.resize(header, 0);
        frame[8..16].copy_from_slice(&seg.tuples.to_le_bytes());
        frame[16..24].copy_from_slice(&seg.block_len.to_le_bytes());
        for (b, keys) in order.chunks(block_len).enumerate() {
            let start = frame.len();
            for &(v, c, slot) in keys {
                frame.extend_from_slice(&v.to_le_bytes());
                chunks[c as usize][slot as usize].1.encode(frame);
            }
            let entry = TABLE_AT + b * BLOCK_ENTRY as usize;
            frame[entry..entry + 4].copy_from_slice(&keys[0].0.to_le_bytes());
            let sum = blob::checksum(&frame[start..]);
            frame[entry + 4..entry + 12].copy_from_slice(&sum.to_le_bytes());
        }
        blob::seal_in_place(SPILL_MAGIC, &mut frame[..header]);
        debug_assert_eq!(frame.len() as u64, seg.bytes, "the segment is the size it was charged");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        seg.path = self.dir.join(format!("seg-{id}.spl"));
        {
            let _guard = self.io.lock();
            std::fs::write(&seg.path, &frame[..]).map_err(|e| SpillError::Io(e.to_string()))?;
        }
        self.written_total.fetch_add(seg.bytes, Ordering::Relaxed);
        self.live_bytes.fetch_add(seg.bytes, Ordering::Relaxed);
        self.spill_chunks.fetch_add(seg.chunks, Ordering::Relaxed);
        self.spill_bytes.fetch_add(seg.bytes, Ordering::Relaxed);
        if let Some(written) = &self.segments_written {
            written.inc();
        }
        Ok(seg)
    }

    /// Reads `seg`'s header, checks it, and appends its block table to
    /// `table`; `raw` is the read buffer.
    pub(crate) fn read_table(
        &self,
        seg: &SpillSegment,
        table: &mut Vec<Block>,
        raw: &mut Vec<u8>,
    ) -> Result<(), SpillError> {
        self.stalled(|| {
            read_at(&seg.path, 0, seg.header_bytes() as usize, raw, "segment header")?;
            if self.faults.corrupt_read {
                let mid = raw.len() / 2;
                raw[mid] ^= 0x40;
            }
            let mut r = Reader::new(open(raw)?);
            let tuples = r.u64("tuple count")?;
            if tuples != seg.tuples {
                return Err(SpillError::CountMismatch { expected: seg.tuples, got: tuples });
            }
            if r.u64("block length")? != seg.block_len {
                return Err(SpillError::Malformed { what: "block length" });
            }
            let at = table.len();
            for _ in 0..seg.blocks() {
                let first = r.u32("block first vertex")?;
                let checksum = r.u64("block checksum")?;
                table.push(Block { first, checksum });
            }
            if table[at..].windows(2).any(|w| w[0].first > w[1].first) {
                return Err(SpillError::Malformed { what: "blocks out of vertex order" });
            }
            Ok(())
        })
    }

    /// Reads blocks `blocks` of `seg`, whose block table is `table`, with
    /// one positioned read into `raw`, checks each block's checksum before
    /// decoding it, and appends to `out`, in order, the tuples from tuple
    /// `from` on whose vertex is below `until`. Returns the index of the
    /// first tuple it did not append, with that tuple's vertex when it was
    /// read. `from` must lie in the first block read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_blocks<M: Encode>(
        &self,
        seg: &SpillSegment,
        table: &[Block],
        blocks: Range<usize>,
        from: u64,
        until: u64,
        raw: &mut Vec<u8>,
        out: &mut Vec<(VertexId, M)>,
    ) -> Result<(u64, Option<VertexId>), SpillError> {
        self.stalled(|| {
            let tuple_bytes = (4 + M::ENCODED_LEN) as u64;
            let first = seg.tuples_before(blocks.start);
            let len = (seg.tuples_before(blocks.end) - first) * tuple_bytes;
            let offset = seg.header_bytes() + first * tuple_bytes;
            read_at(&seg.path, offset, len as usize, raw, "spill block")?;
            if self.faults.short_read && from > 0 {
                raw.pop();
            }
            if raw.len() as u64 != len {
                return Err(SpillError::Truncated { what: "spill block" });
            }
            for b in blocks.clone() {
                let (lo, hi) = (seg.tuples_before(b), seg.tuples_before(b + 1));
                let bytes = &raw[((lo - first) * tuple_bytes) as usize..]
                    [..((hi - lo) * tuple_bytes) as usize];
                let got = blob::checksum(bytes);
                if got != table[b].checksum {
                    return Err(SpillError::Corrupt { expected: table[b].checksum, got });
                }
                let ceiling = table.get(b + 1).map_or(VertexId::MAX, |next| next.first);
                let mut prev = table[b].first;
                let mut r = Reader::new(bytes);
                for t in lo..hi {
                    let v = r.u32("tuple vertex")?;
                    if v < prev || v > ceiling || (t == lo && v != prev) {
                        return Err(SpillError::Malformed { what: "tuples out of vertex order" });
                    }
                    prev = v;
                    if t < from {
                        r.take(M::ENCODED_LEN, "message")?;
                    } else if u64::from(v) >= until {
                        return Ok((t, Some(v)));
                    } else {
                        out.push((v, decode_message(&mut r)?));
                    }
                }
            }
            Ok((seg.tuples_before(blocks.end), None))
        })
    }

    /// Deletes a segment whose every tuple was read and counts its chunks
    /// as re-admitted.
    pub(crate) fn consumed(&self, seg: SpillSegment) {
        self.readmitted_chunks.fetch_add(seg.chunks, Ordering::Relaxed);
        self.discard(seg);
    }

    /// Reads all of `seg` back, appending its tuples to `out` in the
    /// segment's order — by destination vertex, delivery order kept within
    /// each — and deletes it whether or not the read succeeds. The
    /// checkpoint capture's read: a worker reads its inbox's segments one
    /// vertex range at a time instead.
    pub fn readmit<M: Encode>(
        &self,
        seg: SpillSegment,
        out: &mut Vec<(VertexId, M)>,
    ) -> Result<(), SpillError> {
        let (mut table, mut raw) = (Vec::new(), Vec::new());
        let read = self.read_table(&seg, &mut table, &mut raw).and_then(|()| {
            self.read_blocks(&seg, &table, 0..table.len(), 0, u64::MAX, &mut raw, out)
        });
        match read {
            Ok(_) => {
                self.consumed(seg);
                Ok(())
            }
            Err(e) => {
                self.discard(seg);
                Err(e)
            }
        }
    }

    /// Runs `f`, adding its wall time to the store's stall.
    fn stalled<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stall_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Deletes an unconsumed segment (abort/cleanup paths).
    pub fn discard(&self, seg: SpillSegment) {
        let _guard = self.io.lock();
        if std::fs::remove_file(&seg.path).is_ok() {
            let bytes = seg.bytes.min(self.live_bytes.load(Ordering::Relaxed));
            self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Pool chunks whose contents were written to disk.
    pub fn spilled_chunks(&self) -> u64 {
        self.spill_chunks.load(Ordering::Relaxed)
    }

    /// Framed bytes ever written.
    pub fn spilled_bytes(&self) -> u64 {
        self.spill_bytes.load(Ordering::Relaxed)
    }

    /// Chunks' worth of tuples read back and delivered.
    pub fn readmitted(&self) -> u64 {
        self.readmitted_chunks.load(Ordering::Relaxed)
    }

    /// Wall time spent inside spill writes and segment reads.
    pub fn stall_nanos(&self) -> u64 {
        self.stall_nanos.load(Ordering::Relaxed)
    }

    /// Times the hard byte budget refused a spill ([`SpillError::Exhausted`]).
    pub fn exhausted_events(&self) -> u64 {
        self.exhausted_events.load(Ordering::Relaxed)
    }

    /// Spill writes that failed for any reason (budget, injected ENOSPC,
    /// real I/O error) and sent the sender down a degraded resident path.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    /// Bytes currently on disk.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort: the directory is per-run and uniquely named, so a
        // failed removal leaks only temp files, never correctness.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Reads `len` bytes of the file at `path`, from `offset` on, into `raw`,
/// which is not zeroed first. A file that ends early is `Truncated`.
fn read_at(
    path: &Path,
    offset: u64,
    len: usize,
    raw: &mut Vec<u8>,
    what: &'static str,
) -> Result<(), SpillError> {
    let io = |e: std::io::Error| SpillError::Io(e.to_string());
    let mut file = std::fs::File::open(path).map_err(io)?;
    file.seek(SeekFrom::Start(offset)).map_err(io)?;
    raw.clear();
    raw.reserve(len);
    file.take(len as u64).read_to_end(raw).map_err(io)?;
    if raw.len() != len {
        return Err(SpillError::Truncated { what });
    }
    Ok(())
}

/// Checks a segment header's envelope and returns its payload.
fn open(frame: &[u8]) -> Result<&[u8], SpillError> {
    blob::unseal(SPILL_MAGIC, frame).map_err(|e| match e {
        UnsealError::TooShort => SpillError::Truncated { what: "frame header/checksum" },
        UnsealError::BadMagic => SpillError::NotASpillBlob,
        UnsealError::Checksum { expected, got } => SpillError::Corrupt { expected, got },
    })
}

/// Decodes the next message of a spill block.
fn decode_message<M: Encode>(r: &mut Reader<'_>) -> Result<M, SpillError> {
    M::decode(r.take(M::ENCODED_LEN, "message")?).map_err(|what| SpillError::Malformed { what })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    /// Test message: fixed-width u64s.
    impl Encode for u64 {
        const ENCODED_LEN: usize = 8;
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Result<u64, &'static str> {
            Ok(u64::from_le_bytes(bytes.try_into().map_err(|_| "u64 message length")?))
        }
    }

    fn store() -> SpillStore {
        SpillStore::create(&SpillConfig::in_temp()).unwrap()
    }

    fn spill(
        store: &SpillStore,
        chunks: &[Chunk<u64>],
        block_len: usize,
    ) -> Result<SpillSegment, SpillError> {
        store.spill(chunks, block_len, &mut SpillScratch::default())
    }

    /// A second handle on `seg`'s file, for reading it again after the
    /// file was damaged by hand.
    fn handle(seg: &SpillSegment) -> SpillSegment {
        SpillSegment { path: seg.path.clone(), ..*seg }
    }

    /// `tuples` stably ordered by vertex: what a segment of them reads back.
    fn by_vertex(tuples: &[(VertexId, u64)]) -> Vec<(VertexId, u64)> {
        let mut sorted = tuples.to_vec();
        sorted.sort_by_key(|t| t.0);
        sorted
    }

    #[test]
    fn round_trip_orders_by_vertex_stably_and_deletes_the_segment() {
        let store = store();
        let a = vec![(3, 30), (1, 10), (2, 20), (1, 11)];
        let b = vec![(9, 90), (1, 12)];
        let seg = spill(&store, &[a, b], 4).unwrap();
        assert_eq!((seg.chunks, seg.tuples, seg.blocks()), (2, 6, 2));
        let path = seg.path.clone();
        assert!(path.exists());
        let mut out: Vec<(VertexId, u64)> = Vec::new();
        store.readmit(seg, &mut out).unwrap();
        assert_eq!(out, vec![(1, 10), (1, 11), (1, 12), (2, 20), (3, 30), (9, 90)]);
        assert!(!path.exists(), "re-admission consumes the segment");
        assert_eq!(store.spilled_chunks(), 2);
        assert_eq!(store.readmitted(), 2);
        assert_eq!(store.live_bytes(), 0);
        assert!(store.spilled_bytes() > 0);
    }

    #[test]
    fn zero_length_and_full_chunks_round_trip_exactly() {
        let store = store();
        // Zero-length chunk: legal (an empty destination stream).
        let seg = spill(&store, &[vec![]], 512).unwrap();
        assert_eq!(seg.blocks(), 0);
        let mut out: Vec<(VertexId, u64)> = Vec::new();
        store.readmit(seg, &mut out).unwrap();
        assert!(out.is_empty());
        // A nominally full 512-tuple chunk, in one block and in many.
        let full: Vec<(VertexId, u64)> = (0..512u64).map(|i| (i as VertexId, i * 7)).collect();
        for block_len in [512, 7, 1] {
            let seg = spill(&store, std::slice::from_ref(&full), block_len).unwrap();
            assert_eq!(seg.tuples, 512);
            let mut out: Vec<(VertexId, u64)> = Vec::new();
            store.readmit(seg, &mut out).unwrap();
            assert_eq!(out, full, "blocks of {block_len}");
        }
    }

    /// A worker's reading pattern: the segment's blocks read range after
    /// range of vertices, each read starting where the last one stopped,
    /// deliver exactly the whole segment's tuples, each range's below its
    /// bound and at or above the last.
    #[test]
    fn reading_by_vertex_range_partitions_the_segment() {
        let store = store();
        let tuples: Vec<(VertexId, u64)> =
            (0..40u64).map(|i| (((i * 7) % 13) as VertexId, i)).collect();
        let whole = by_vertex(&tuples);
        for block_len in [1, 3, 64] {
            for cuts in [vec![0, 13], vec![1, 2, 5, 6, 12, 13], vec![4, 4, 13]] {
                let seg = spill(&store, std::slice::from_ref(&tuples), block_len).unwrap();
                let (mut table, mut raw) = (Vec::new(), Vec::new());
                store.read_table(&seg, &mut table, &mut raw).unwrap();
                let (mut next, mut read) = (0u64, Vec::new());
                for until in cuts {
                    if next == seg.tuples {
                        break;
                    }
                    let start = read.len();
                    let current = seg.block_of(next);
                    let end = table.partition_point(|b| b.first < until).max(current + 1);
                    let blocks = current..end.min(table.len());
                    let (at, stop) = store
                        .read_blocks(
                            &seg,
                            &table,
                            blocks,
                            next,
                            u64::from(until),
                            &mut raw,
                            &mut read,
                        )
                        .unwrap();
                    assert!(read[start..].iter().all(|t| t.0 < until), "cut {until}");
                    assert_eq!(at, next + (read.len() - start) as u64, "cut {until}");
                    if let Some(v) = stop {
                        assert!(v >= until && whole[at as usize].0 == v, "cut {until}");
                    }
                    next = at;
                }
                assert_eq!(read, whole, "blocks of {block_len}");
                store.consumed(seg);
            }
        }
        assert_eq!(store.live_bytes(), 0);
        assert_eq!(store.readmitted(), store.spilled_chunks());
    }

    #[test]
    fn every_truncation_point_yields_a_typed_error() {
        let store = store();
        let tuples: Vec<(VertexId, u64)> = (0..17).map(|i| (i, u64::from(i) << 32)).collect();
        let seg = spill(&store, &[tuples], 4).unwrap();
        let frame = std::fs::read(&seg.path).unwrap();
        // Truncate at every possible length: each must fail with a typed
        // error (never a panic, never a silently short result).
        for len in 0..frame.len() {
            std::fs::write(&seg.path, &frame[..len]).unwrap();
            let err = store.readmit(handle(&seg), &mut Vec::<(VertexId, u64)>::new()).unwrap_err();
            assert!(
                matches!(
                    err,
                    SpillError::Truncated { .. }
                        | SpillError::Corrupt { .. }
                        | SpillError::NotASpillBlob
                ),
                "truncation at {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_corruption_point_yields_a_typed_error() {
        let store = store();
        let seg = spill(&store, &[vec![(1, 2), (3, 4), (3, 5)]], 2).unwrap();
        let frame = std::fs::read(&seg.path).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xA5;
            std::fs::write(&seg.path, &bad).unwrap();
            let err = store.readmit(handle(&seg), &mut Vec::<(VertexId, u64)>::new()).unwrap_err();
            assert!(
                matches!(err, SpillError::Corrupt { .. } | SpillError::NotASpillBlob),
                "corruption at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn byte_budget_refuses_with_typed_exhaustion() {
        let config = SpillConfig { max_spill_bytes: Some(64), ..SpillConfig::in_temp() };
        let store = SpillStore::create(&config).unwrap();
        let big: Vec<(VertexId, u64)> = (0..100).map(|i| (i, 0)).collect();
        match spill(&store, &[big], 512) {
            Err(SpillError::Exhausted { cap: 64, .. }) => {}
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(store.exhausted_events(), 1);
        assert_eq!(store.live_bytes(), 0, "refused writes leave nothing on disk");
        // A small write still fits under the budget.
        assert!(spill(&store, &[vec![(1, 1)]], 512).is_ok());
    }

    #[test]
    fn injected_enospc_fails_the_write_but_is_degradable() {
        let config = SpillConfig {
            faults: SpillFaults { fail_write_after_bytes: Some(0), ..SpillFaults::default() },
            ..SpillConfig::in_temp()
        };
        let store = SpillStore::create(&config).unwrap();
        let err = spill(&store, &[vec![(1, 1)]], 512).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err:?}");
        assert!(err.is_degradable());
        assert!(err.to_string().contains("no space left"));
    }

    /// A corrupt header fails the first read of a segment; a short read
    /// fails only a read that resumes it, as a later range group does.
    #[test]
    fn injected_read_faults_are_typed_read_errors() {
        let faults = SpillFaults { corrupt_read: true, ..SpillFaults::default() };
        let store = SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() }).unwrap();
        let seg = spill(&store, &[vec![(1, 1), (2, 2), (3, 3)]], 2).unwrap();
        let err = store.readmit(seg, &mut Vec::<(VertexId, u64)>::new()).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
        assert!(!err.is_degradable(), "read faults must abort: {err:?}");
        assert_eq!(store.live_bytes(), 0, "a failed read still deletes the segment");

        let faults = SpillFaults { short_read: true, ..SpillFaults::default() };
        let store = SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() }).unwrap();
        let seg = spill(&store, &[vec![(1, 1), (2, 2), (3, 3)]], 2).unwrap();
        let (mut table, mut raw, mut out) = (Vec::new(), Vec::new(), Vec::<(VertexId, u64)>::new());
        store.read_table(&seg, &mut table, &mut raw).unwrap();
        let first = store.read_blocks(&seg, &table, 0..1, 0, 2, &mut raw, &mut out).unwrap();
        assert_eq!((first, &out[..]), ((1, Some(2)), &[(1, 1)][..]));
        let err = store.read_blocks(&seg, &table, 0..2, 1, 4, &mut raw, &mut out).unwrap_err();
        assert!(matches!(err, SpillError::Truncated { .. }), "{err:?}");
        assert!(!err.is_degradable(), "read faults must abort: {err:?}");
        store.discard(seg);
    }

    #[test]
    fn drop_removes_the_spill_directory() {
        let store = store();
        let dir = store.dir().to_path_buf();
        let _seg = spill(&store, &[vec![(1, 1)]], 512).unwrap();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "Drop must delete the per-run directory");
    }

    proptest! {
        /// Arbitrary tuple runs read back as the same tuples stably ordered
        /// by vertex, for any block length, and a flipped byte anywhere in
        /// the segment is always a typed error — the same contract the
        /// cluster frame codec keeps.
        #[test]
        fn prop_segment_round_trip(
            tuples in proptest::collection::vec((0u32..1_000_000, proptest::any::<u64>()), 0..200),
            block_len in 1usize..20,
            flip in proptest::any::<u16>(),
        ) {
            let store = store();
            let seg = spill(&store, std::slice::from_ref(&tuples), block_len).unwrap();
            let frame = std::fs::read(&seg.path).unwrap();
            let again = handle(&seg);
            let mut out = Vec::new();
            store.readmit(seg, &mut out).unwrap();
            prop_assert_eq!(&out, &by_vertex(&tuples));
            let i = flip as usize % frame.len();
            let mut bad = frame.clone();
            bad[i] ^= 0x81;
            std::fs::write(&again.path, &bad).unwrap();
            prop_assert!(store.readmit(again, &mut Vec::<(VertexId, u64)>::new()).is_err());
        }
    }
}
