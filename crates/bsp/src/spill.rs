//! Disk spill tier for the pooled message plane: out-of-core frontiers.
//!
//! When the chunk pool hits its live-chunk cap, the engine used to degrade
//! by growing chunks in place — bounded allocation count, unbounded bytes.
//! A [`SpillStore`] replaces that: cold frontier chunks are encoded into
//! sealed blobs (`"PSGLSPL1" | payload | FxHash checksum`, the
//! [`psgl_graph::blob`] envelope the checkpoints share) inside a per-run
//! temp directory, each message as its [`Encode`] layout,
//! their pool chunks are released for reuse, and the spilled tuples are
//! re-admitted — decoded straight into the receiving worker's gather buffer,
//! acquiring no pool chunk — at the next superstep boundary. Delivery
//! order is preserved exactly (a segment always holds a *prefix* of its
//! destination's per-source stream), so spilling never changes results.
//!
//! Failure polarity is asymmetric by design:
//!
//! - **write failures degrade** — ENOSPC, a hard [`SpillConfig::max_spill_bytes`]
//!   cap ([`SpillError::Exhausted`]), or an injected fault leave the chunks
//!   resident and fall back to the old grow-in-place path: slower and
//!   bigger, never wrong;
//! - **read failures abort** — a truncated or corrupt blob means tuples
//!   the run already committed to deliver are gone, so re-admission
//!   surfaces a typed error and the engine cancels cleanly instead of
//!   answering from a damaged frontier.
//!
//! Dropping the store removes its directory, so every exit path — finish,
//! cancel, preempt, panic-unwind through the owner — deletes the run's
//! spill files.

use crate::context::Encode;
use parking_lot::Mutex;
use psgl_graph::blob::{self, Reader, Truncated, UnsealError};
use psgl_graph::VertexId;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Magic prefix of every spill blob.
pub const SPILL_MAGIC: &[u8; 8] = b"PSGLSPL1";

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
    /// The blob does not start with [`SPILL_MAGIC`].
    NotASpillBlob,
    /// The blob ended before the field being decoded ("short read").
    Truncated {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// The trailing FxHash checksum did not match the payload.
    Corrupt {
        /// Checksum recorded in the blob.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
    /// The decoded tuple count disagrees with the segment's manifest.
    CountMismatch {
        /// Tuples the segment was recorded to hold.
        expected: u64,
        /// Tuples the blob actually decoded to.
        got: u64,
    },
    /// The blob passed its checksum but a tuple in it fails the message's
    /// [`Encode::decode`] — written by something other than this engine.
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
                write!(f, "spill segment decoded {got} tuples, manifest says {expected}")
            }
            SpillError::Malformed { what } => write!(f, "spill blob holds a bad tuple: {what}"),
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
    /// Flip one payload byte before decoding on re-admission (corrupt
    /// read — must produce a typed checksum error, never a wrong answer).
    pub corrupt_read: bool,
    /// Drop the blob's tail before decoding (short read — must produce a
    /// typed truncation error).
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
}

impl SpillConfig {
    /// A spill tier in the system temp directory with no byte cap.
    pub fn in_temp() -> SpillConfig {
        SpillConfig::default()
    }
}

/// One spilled run of tuples: the on-disk replacement for `chunks` pool
/// chunks holding `tuples` messages for a single destination. Segments
/// are single-use — re-admission consumes them.
#[derive(Debug)]
pub struct SpillSegment {
    path: PathBuf,
    /// Pool chunks this segment displaced.
    pub chunks: u64,
    /// Tuples encoded in the blob.
    pub tuples: u64,
    /// Framed size on disk.
    pub bytes: u64,
}

/// Per-run spill directory plus counters. Creating the store makes the
/// directory; dropping it removes the directory and everything in it —
/// the cleanup guard the engine relies on for every exit path.
pub struct SpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
    max_spill_bytes: Option<u64>,
    faults: SpillFaults,
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

    /// Encodes every tuple of `chunks` (in order) into one framed blob
    /// and writes it. On success the caller releases the chunks back to
    /// the pool; on failure (budget, injected ENOSPC, real I/O error) the
    /// caller keeps them resident — the tuples were not consumed.
    pub fn spill<M: Encode>(&self, chunks: &[Chunkish<M>]) -> Result<SpillSegment, SpillError> {
        let start = Instant::now();
        let result = self.spill_inner(chunks);
        self.stall_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if result.is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn spill_inner<M: Encode>(&self, chunks: &[Chunkish<M>]) -> Result<SpillSegment, SpillError> {
        let tuples: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let mut payload = Vec::with_capacity(8 + tuples as usize * (4 + M::ENCODED_LEN));
        payload.extend_from_slice(&tuples.to_le_bytes());
        for chunk in chunks {
            for (to, msg) in chunk.iter() {
                payload.extend_from_slice(&to.to_le_bytes());
                msg.encode(&mut payload);
            }
        }
        let frame = blob::seal(SPILL_MAGIC, &payload);
        let frame_len = frame.len() as u64;
        if let Some(cap) = self.max_spill_bytes {
            let live = self.live_bytes.load(Ordering::Relaxed);
            if live + frame_len > cap {
                self.exhausted_events.fetch_add(1, Ordering::Relaxed);
                return Err(SpillError::Exhausted { spilled: live, cap });
            }
        }
        if let Some(limit) = self.faults.fail_write_after_bytes {
            if self.written_total.load(Ordering::Relaxed) + frame_len > limit {
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("seg-{id}.spl"));
        {
            let _guard = self.io.lock();
            std::fs::write(&path, &frame).map_err(|e| SpillError::Io(e.to_string()))?;
        }
        self.written_total.fetch_add(frame_len, Ordering::Relaxed);
        self.live_bytes.fetch_add(frame_len, Ordering::Relaxed);
        self.spill_chunks.fetch_add(chunks.len() as u64, Ordering::Relaxed);
        self.spill_bytes.fetch_add(frame_len, Ordering::Relaxed);
        Ok(SpillSegment { path, chunks: chunks.len() as u64, tuples, bytes: frame_len })
    }

    /// Reads `seg` back, verifies the frame, decodes every tuple into
    /// `out` (preserving order), and deletes the blob. Acquires no pool
    /// chunk — re-admission lands in the worker's gather buffer.
    pub fn readmit<M: Encode>(
        &self,
        seg: SpillSegment,
        out: &mut Vec<(VertexId, M)>,
    ) -> Result<(), SpillError> {
        let start = Instant::now();
        let result = self.readmit_inner(&seg, out);
        self.stall_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The blob is consumed either way: on success the tuples moved to
        // `out`; on failure the run aborts and the directory guard will
        // sweep whatever this misses.
        let _guard = self.io.lock();
        if std::fs::remove_file(&seg.path).is_ok() {
            self.live_bytes.fetch_sub(
                seg.bytes.min(self.live_bytes.load(Ordering::Relaxed)),
                Ordering::Relaxed,
            );
        }
        if result.is_ok() {
            self.readmitted_chunks.fetch_add(seg.chunks, Ordering::Relaxed);
        }
        result
    }

    fn readmit_inner<M: Encode>(
        &self,
        seg: &SpillSegment,
        out: &mut Vec<(VertexId, M)>,
    ) -> Result<(), SpillError> {
        let mut frame = std::fs::read(&seg.path).map_err(|e| SpillError::Io(e.to_string()))?;
        if self.faults.short_read {
            // Clip below the minimum header+checksum size so the fault
            // deterministically reads as `Truncated`. (A clip that lands
            // mid-payload instead surfaces as `Corrupt` — the checksum
            // no longer lines up — which the proptest covers; both are
            // typed, non-degradable read errors.)
            frame.truncate(SPILL_MAGIC.len() + 7);
        }
        if self.faults.corrupt_read && frame.len() > SPILL_MAGIC.len() + 8 {
            let mid = SPILL_MAGIC.len() + (frame.len() - SPILL_MAGIC.len() - 8) / 2;
            frame[mid] ^= 0x40;
        }
        let mut r = Reader::new(open(&frame)?);
        let count = r.u64("tuple count")?;
        if count != seg.tuples {
            return Err(SpillError::CountMismatch { expected: seg.tuples, got: count });
        }
        out.reserve(count as usize);
        for _ in 0..count {
            let to = r.u32("tuple vertex")?;
            let msg = decode_message(&mut r)?;
            out.push((to, msg));
        }
        if !r.is_empty() {
            return Err(SpillError::CountMismatch {
                expected: seg.tuples,
                got: seg.tuples + 1, // trailing garbage: more data than the manifest
            });
        }
        Ok(())
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

    /// Wall time spent inside spill writes and re-admission reads.
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

/// What [`SpillStore::spill`] accepts: anything chunk-shaped. (An alias
/// keeps the signature readable without re-exporting `Chunk` here.)
pub type Chunkish<M> = crate::chunk::Chunk<M>;

/// Checks a spill blob's envelope and returns its payload.
fn open(frame: &[u8]) -> Result<&[u8], SpillError> {
    blob::unseal(SPILL_MAGIC, frame).map_err(|e| match e {
        UnsealError::TooShort => SpillError::Truncated { what: "frame header/checksum" },
        UnsealError::BadMagic => SpillError::NotASpillBlob,
        UnsealError::Checksum { expected, got } => SpillError::Corrupt { expected, got },
    })
}

/// Decodes the next message of a spill payload.
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

    fn chunk_of(tuples: &[(VertexId, u64)]) -> Chunkish<u64> {
        tuples.to_vec()
    }

    #[test]
    fn round_trip_preserves_order_and_deletes_the_blob() {
        let store = store();
        let a = chunk_of(&[(3, 30), (1, 10), (2, 20)]);
        let b = chunk_of(&[(9, 90)]);
        let seg = store.spill(&[a, b]).unwrap();
        assert_eq!((seg.chunks, seg.tuples), (2, 4));
        let path = seg.path.clone();
        assert!(path.exists());
        let mut out: Vec<(VertexId, u64)> = Vec::new();
        store.readmit(seg, &mut out).unwrap();
        assert_eq!(out, vec![(3, 30), (1, 10), (2, 20), (9, 90)]);
        assert!(!path.exists(), "re-admission consumes the blob");
        assert_eq!(store.spilled_chunks(), 2);
        assert_eq!(store.readmitted(), 2);
        assert_eq!(store.live_bytes(), 0);
        assert!(store.spilled_bytes() > 0);
    }

    #[test]
    fn zero_length_and_full_chunks_round_trip_exactly() {
        let store = store();
        // Zero-length chunk: legal (an empty destination stream).
        let seg = store.spill(&[chunk_of(&[])]).unwrap();
        let mut out: Vec<(VertexId, u64)> = Vec::new();
        store.readmit(seg, &mut out).unwrap();
        assert!(out.is_empty());
        // A nominally full 512-tuple chunk.
        let full: Vec<(VertexId, u64)> = (0..512u64).map(|i| (i as VertexId, i * 7)).collect();
        let seg = store.spill(std::slice::from_ref(&full)).unwrap();
        assert_eq!(seg.tuples, 512);
        let mut out: Vec<(VertexId, u64)> = Vec::new();
        store.readmit(seg, &mut out).unwrap();
        assert_eq!(out, full);
    }

    #[test]
    fn every_truncation_point_yields_a_typed_error() {
        let store = store();
        let tuples: Vec<(VertexId, u64)> = (0..17).map(|i| (i, u64::from(i) << 32)).collect();
        let seg = store.spill(&[tuples]).unwrap();
        let frame = std::fs::read(&seg.path).unwrap();
        // Truncate at every possible length: each must fail with a typed
        // error (never a panic, never a silent short result).
        for len in 0..frame.len() {
            let err = match open(&frame[..len]) {
                Err(e) => e,
                Ok(payload) => {
                    // The checksum guards the tail, so any in-payload cut
                    // that still unseals is astronomically unlikely; decode
                    // must then catch the truncation.
                    let mut r = Reader::new(payload);
                    let mut bad = None;
                    if let Ok(count) = r.u64("tuple count") {
                        for _ in 0..count {
                            if let Err(e) = r
                                .u32("tuple vertex")
                                .map_err(SpillError::from)
                                .and_then(|_| decode_message::<u64>(&mut r))
                            {
                                bad = Some(e);
                                break;
                            }
                        }
                    }
                    bad.expect("truncated frame unsealed AND decoded cleanly")
                }
            };
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
        store.discard(seg);
    }

    #[test]
    fn every_corruption_point_yields_a_typed_error() {
        let store = store();
        let seg = store.spill(&[chunk_of(&[(1, 2), (3, 4)])]).unwrap();
        let frame = std::fs::read(&seg.path).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xA5;
            let err = open(&bad).expect_err("single-byte corruption must be caught");
            assert!(
                matches!(err, SpillError::Corrupt { .. } | SpillError::NotASpillBlob),
                "corruption at {i} gave {err:?}"
            );
        }
        store.discard(seg);
    }

    #[test]
    fn byte_budget_refuses_with_typed_exhaustion() {
        let config = SpillConfig { max_spill_bytes: Some(64), ..SpillConfig::in_temp() };
        let store = SpillStore::create(&config).unwrap();
        let big: Vec<(VertexId, u64)> = (0..100).map(|i| (i, 0)).collect();
        match store.spill(&[big]) {
            Err(SpillError::Exhausted { cap: 64, .. }) => {}
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(store.exhausted_events(), 1);
        assert_eq!(store.live_bytes(), 0, "refused writes leave nothing on disk");
        // A small write still fits under the budget.
        assert!(store.spill(&[chunk_of(&[(1, 1)])]).is_ok());
    }

    #[test]
    fn injected_enospc_fails_the_write_but_is_degradable() {
        let config = SpillConfig {
            faults: SpillFaults { fail_write_after_bytes: Some(0), ..SpillFaults::default() },
            ..SpillConfig::in_temp()
        };
        let store = SpillStore::create(&config).unwrap();
        let err = store.spill(&[chunk_of(&[(1, 1)])]).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err:?}");
        assert!(err.is_degradable());
        assert!(err.to_string().contains("no space left"));
    }

    #[test]
    fn injected_read_faults_are_typed_read_errors() {
        for (faults, want_corrupt) in [
            (SpillFaults { corrupt_read: true, ..SpillFaults::default() }, true),
            (SpillFaults { short_read: true, ..SpillFaults::default() }, false),
        ] {
            let store =
                SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() }).unwrap();
            let seg = store.spill(&[chunk_of(&[(1, 1), (2, 2)])]).unwrap();
            let mut out: Vec<(VertexId, u64)> = Vec::new();
            let err = store.readmit(seg, &mut out).unwrap_err();
            assert!(!err.is_degradable(), "read faults must abort: {err:?}");
            if want_corrupt {
                assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
            } else {
                assert!(matches!(err, SpillError::Truncated { .. }), "{err:?}");
            }
        }
    }

    #[test]
    fn drop_removes_the_spill_directory() {
        let store = store();
        let dir = store.dir().to_path_buf();
        let _seg = store.spill(&[chunk_of(&[(1, 1)])]).unwrap();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "Drop must delete the per-run directory");
    }

    proptest! {
        /// Arbitrary tuple runs round-trip bit-exactly through the blob
        /// format, and a flipped byte anywhere in the frame is always a
        /// typed error — the same contract the cluster frame codec keeps.
        #[test]
        fn prop_blob_round_trip(
            tuples in proptest::collection::vec((0u32..1_000_000, proptest::any::<u64>()), 0..200),
            flip in proptest::any::<u16>(),
        ) {
            let store = store();
            let seg = store.spill(std::slice::from_ref(&tuples)).unwrap();
            let frame = std::fs::read(&seg.path).unwrap();
            let mut out = Vec::new();
            store.readmit(seg, &mut out).unwrap();
            prop_assert_eq!(&out, &tuples);
            // Re-seal and corrupt one pseudo-random byte.
            let i = flip as usize % frame.len();
            let mut bad = frame.clone();
            bad[i] ^= 0x81;
            prop_assert!(open(&bad).is_err());
        }
    }
}
