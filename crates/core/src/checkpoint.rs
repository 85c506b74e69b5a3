//! Superstep-boundary checkpoints: serialize a cancelled run's live
//! frontier and worker state for exact resume.
//!
//! A checkpoint captures everything the engine's
//! [`ResumePoint`](psgl_bsp::ResumePoint) needs that is not re-derivable
//! from the run inputs: the undelivered Gpsi frontier (per destination
//! worker, in delivery order), each worker's distributor state (strategy
//! RNG stream position + workload view), expansion counters, harvested
//! instances, and the per-superstep metrics of the completed prefix. A
//! *guard* header pins the run inputs (graph content hash, worker count,
//! seed, strategy, pattern, initial vertex, harvest mode) so a checkpoint
//! can only be resumed against the exact run it was captured from —
//! resuming against anything else would silently produce wrong counts.
//!
//! The binary format follows `crates/graph/src/binary.rs`: magic, u32/u64
//! little-endian fields, and a trailing FxHash checksum over the payload
//! so corruption fails loudly, never silently.
//!
//! ```text
//! magic "PSGLCKP3" | payload | checksum: u64 (FxHash of the payload)
//! ```

use crate::distribute::{DistributorSnapshot, Strategy};
use crate::gpsi::{Gpsi, MAX_GPSI_VERTICES};
use crate::stats::ExpandStats;
use bytes::BufMut;
use psgl_bsp::{
    CarriedCounters, NetSuperstepMetrics, SpillCodec, SpillError, SpillReader, SuperstepMetrics,
    WorkerSuperstepMetrics,
};
use psgl_graph::hash::FxHasher;
use psgl_graph::VertexId;
use std::hash::Hasher;

const MAGIC: &[u8; 8] = b"PSGLCKP3";
const SHARD_MAGIC: &[u8; 8] = b"PSGLSHD2";

/// A checkpoint failed to decode or does not match the run it is being
/// resumed against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError {
    /// What went wrong (decode failure or guard-field mismatch).
    pub message: String,
}

impl CheckpointError {
    fn new(message: impl Into<String>) -> Self {
        CheckpointError { message: message.into() }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad checkpoint: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

/// What each worker's harvest held at the capture barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarvestCheckpoint {
    /// Counting only; the count lives in [`ExpandStats::results`].
    CountOnly,
    /// Collected instance tuples found so far.
    Instances(Vec<Vec<VertexId>>),
    /// Per-data-vertex participation counts so far.
    PerVertex(Vec<u64>),
}

/// One worker's mutable state at the capture barrier.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerCheckpoint {
    /// Distribution-strategy state (RNG stream position, workload view).
    pub distributor: DistributorSnapshot,
    /// Expansion counters accumulated so far.
    pub stats: ExpandStats,
    /// Messages emitted in the superstep `emitted_superstep`.
    pub emitted_this_superstep: u64,
    /// Superstep `emitted_this_superstep` refers to.
    pub emitted_superstep: u32,
    /// Whether a fan-out limit had tripped (drain mode).
    pub failed: bool,
    /// Instances/counts harvested so far.
    pub harvest: HarvestCheckpoint,
}

/// Pins the run inputs a checkpoint was captured from. All fields must
/// match exactly at resume time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointGuard {
    /// [`DataGraph::content_hash`](psgl_graph::DataGraph::content_hash)
    /// of the data graph.
    pub graph_hash: u64,
    /// Worker count of the run.
    pub workers: u32,
    /// Run seed (drives the partitioner salt and distributor seeds).
    pub seed: u64,
    /// Distribution strategy.
    pub strategy: Strategy,
    /// FxHash over the pattern's vertex count and edge list.
    pub pattern_hash: u64,
    /// The selected initial pattern vertex.
    pub init_vertex: u8,
    /// Harvest mode: 0 = count only, 1 = instances, 2 = per-vertex.
    pub harvest_mode: u8,
}

/// Hash of a pattern's structure, for the checkpoint guard.
pub fn pattern_hash(pattern: &psgl_pattern::Pattern) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(pattern.num_vertices() as u64);
    for (u, v) in pattern.edges() {
        h.write_u8(u);
        h.write_u8(v);
    }
    h.finish()
}

/// A complete superstep-boundary checkpoint of a cancelled run.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Run-input guard; checked by [`Checkpoint::validate`].
    pub guard: CheckpointGuard,
    /// The superstep the resumed run starts at.
    pub superstep: u32,
    /// Run-level counters of the completed prefix (pool exhaustion,
    /// spill traffic, live-chunk peak), folded into the resumed run's
    /// totals.
    pub carried: CarriedCounters,
    /// Per-superstep metrics of the completed prefix.
    pub prior_supersteps: Vec<SuperstepMetrics>,
    /// Per-worker state, indexed by worker id.
    pub workers: Vec<WorkerCheckpoint>,
    /// Undelivered messages per destination worker, in delivery order.
    pub frontier: Vec<Vec<(VertexId, Gpsi)>>,
}

impl Checkpoint {
    /// Moves every harvested instance out of the worker snapshots,
    /// sorted — the streaming scheduler's per-slice page. The resumed
    /// run starts with empty harvests, so draining after each slice
    /// partitions the full instance multiset across pages; cumulative
    /// counts are untouched (they live in [`ExpandStats::results`]).
    /// Returns an empty vec for count-only and per-vertex harvests.
    pub fn drain_instances(&mut self) -> Vec<Vec<VertexId>> {
        let mut out = Vec::new();
        for w in &mut self.workers {
            if let HarvestCheckpoint::Instances(buf) = &mut w.harvest {
                out.append(buf);
            }
        }
        out.sort_unstable();
        out
    }

    /// Checks the guard against the inputs of the run about to resume.
    pub fn validate(&self, expected: &CheckpointGuard) -> Result<(), CheckpointError> {
        let g = &self.guard;
        if g.graph_hash != expected.graph_hash {
            return Err(CheckpointError::new("checkpoint was captured on a different graph"));
        }
        if g.workers != expected.workers {
            return Err(CheckpointError::new(format!(
                "checkpoint has {} workers, run has {}",
                g.workers, expected.workers
            )));
        }
        if g.seed != expected.seed {
            return Err(CheckpointError::new("seed mismatch"));
        }
        if g.strategy != expected.strategy {
            return Err(CheckpointError::new("distribution strategy mismatch"));
        }
        if g.pattern_hash != expected.pattern_hash {
            return Err(CheckpointError::new("checkpoint was captured for a different pattern"));
        }
        if g.init_vertex != expected.init_vertex {
            return Err(CheckpointError::new("initial pattern vertex mismatch"));
        }
        if g.harvest_mode != expected.harvest_mode {
            return Err(CheckpointError::new("harvest mode mismatch"));
        }
        if self.workers.len() != g.workers as usize || self.frontier.len() != g.workers as usize {
            return Err(CheckpointError::new("worker-state / frontier arity mismatch"));
        }
        Ok(())
    }

    /// Serializes the checkpoint into the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_guard(&mut p, &self.guard);
        p.put_u32_le(self.superstep);
        put_counters(&mut p, self.carried.to_array());
        p.put_u32_le(self.prior_supersteps.len() as u32);
        for s in &self.prior_supersteps {
            p.put_u32_le(s.workers.len() as u32);
            for w in &s.workers {
                put_counters(&mut p, w.to_array());
            }
            put_counters(&mut p, s.net.to_array());
            p.put_u64_le(s.spill_stall_nanos);
        }
        for w in &self.workers {
            put_worker(&mut p, w);
        }
        for dest in &self.frontier {
            put_frontier_dest(&mut p, dest);
        }
        seal(MAGIC, &p)
    }

    /// Deserializes the binary format; rejects corruption (checksum),
    /// truncation, and structurally invalid payloads.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let payload = unseal(MAGIC, "PSGLCKP3 checkpoint", data)?;
        let mut r = Reader { data: payload };
        let guard = read_guard(&mut r)?;
        let workers = guard.workers;
        let harvest_mode = guard.harvest_mode;
        let superstep = r.u32()?;
        let carried = CarriedCounters::from_array(r.counters()?);
        let n_supersteps = r.u32()? as usize;
        let mut prior_supersteps = Vec::new();
        for _ in 0..n_supersteps {
            let n_workers = r.u32()? as usize;
            let mut ws = Vec::new();
            for _ in 0..n_workers {
                ws.push(WorkerSuperstepMetrics::from_array(r.counters()?));
            }
            let net = NetSuperstepMetrics::from_array(r.counters()?);
            let spill_stall_nanos = r.u64()?;
            prior_supersteps.push(SuperstepMetrics { workers: ws, net, spill_stall_nanos });
        }
        let mut worker_states = Vec::new();
        for _ in 0..workers {
            worker_states.push(read_worker(&mut r, harvest_mode)?);
        }
        let mut frontier = Vec::new();
        for _ in 0..workers {
            frontier.push(read_frontier_dest(&mut r)?);
        }
        if !r.data.is_empty() {
            return Err(CheckpointError::new("trailing bytes after frontier"));
        }
        Ok(Checkpoint {
            guard,
            superstep,
            carried,
            prior_supersteps,
            workers: worker_states,
            frontier,
        })
    }
}

/// One partition's slice of a superstep-boundary checkpoint, as streamed
/// from a cluster worker to the coordinator. The coordinator collects one
/// shard per partition per checkpointed superstep; on a worker failure it
/// hands the surviving (and reassigned) partitions their shards back and
/// the run resumes from the last complete shard set.
///
/// Same binary discipline as [`Checkpoint`]:
///
/// ```text
/// magic "PSGLSHD2" | payload | checksum: u64 (FxHash of the payload)
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointShard {
    /// Run-input guard — identical across all shards of one run.
    pub guard: CheckpointGuard,
    /// Global partition id this shard belongs to.
    pub partition: u32,
    /// The superstep a resume from this shard starts at.
    pub superstep: u32,
    /// The partition's worker state at the capture barrier.
    pub worker: WorkerCheckpoint,
    /// Undelivered messages bound for this partition, in delivery order.
    pub frontier: Vec<(VertexId, Gpsi)>,
}

impl CheckpointShard {
    /// Serializes the shard into the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_guard(&mut p, &self.guard);
        p.put_u32_le(self.partition);
        p.put_u32_le(self.superstep);
        put_worker(&mut p, &self.worker);
        put_frontier_dest(&mut p, &self.frontier);
        seal(SHARD_MAGIC, &p)
    }

    /// Deserializes the binary format; rejects corruption, truncation, and
    /// structurally invalid payloads.
    pub fn from_bytes(data: &[u8]) -> Result<CheckpointShard, CheckpointError> {
        let payload = unseal(SHARD_MAGIC, "PSGLSHD2 checkpoint shard", data)?;
        let mut r = Reader { data: payload };
        let guard = read_guard(&mut r)?;
        let partition = r.u32()?;
        if partition >= guard.workers {
            return Err(CheckpointError::new("shard partition out of range"));
        }
        let superstep = r.u32()?;
        let worker = read_worker(&mut r, guard.harvest_mode)?;
        let frontier = read_frontier_dest(&mut r)?;
        if !r.data.is_empty() {
            return Err(CheckpointError::new("trailing bytes after frontier"));
        }
        Ok(CheckpointShard { guard, partition, superstep, worker, frontier })
    }
}

/// Frames `payload` with a magic and a trailing FxHash checksum.
fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut hasher = FxHasher::default();
    hasher.write(payload);
    let mut out = Vec::with_capacity(8 + payload.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(payload);
    out.extend_from_slice(&hasher.finish().to_le_bytes());
    out
}

/// Checks magic + checksum and returns the inner payload.
fn unseal<'a>(magic: &[u8; 8], what: &str, data: &'a [u8]) -> Result<&'a [u8], CheckpointError> {
    if data.len() < 8 + 8 || &data[..8] != magic {
        return Err(CheckpointError::new(format!("not a {what}")));
    }
    let payload = &data[8..data.len() - 8];
    let mut expect = [0u8; 8];
    expect.copy_from_slice(&data[data.len() - 8..]);
    let mut hasher = FxHasher::default();
    hasher.write(payload);
    if hasher.finish() != u64::from_le_bytes(expect) {
        return Err(CheckpointError::new("checksum mismatch"));
    }
    Ok(payload)
}

fn put_guard(p: &mut Vec<u8>, g: &CheckpointGuard) {
    p.put_u64_le(g.graph_hash);
    p.put_u32_le(g.workers);
    p.put_u64_le(g.seed);
    let (tag, alpha) = encode_strategy(g.strategy);
    p.put_u8(tag);
    p.put_f64_le(alpha);
    p.put_u64_le(g.pattern_hash);
    p.put_u8(g.init_vertex);
    p.put_u8(g.harvest_mode);
}

fn read_guard(r: &mut Reader<'_>) -> Result<CheckpointGuard, CheckpointError> {
    let graph_hash = r.u64()?;
    let workers = r.u32()?;
    if workers == 0 || workers > 1 << 20 {
        return Err(CheckpointError::new("implausible worker count"));
    }
    let seed = r.u64()?;
    let strategy = decode_strategy(r.u8()?, r.f64()?)?;
    let pattern_hash = r.u64()?;
    let init_vertex = r.u8()?;
    let harvest_mode = r.u8()?;
    if harvest_mode > 2 {
        return Err(CheckpointError::new("unknown harvest mode"));
    }
    Ok(CheckpointGuard {
        graph_hash,
        workers,
        seed,
        strategy,
        pattern_hash,
        init_vertex,
        harvest_mode,
    })
}

fn put_worker(p: &mut Vec<u8>, w: &WorkerCheckpoint) {
    for s in w.distributor.rng_state {
        p.put_u64_le(s);
    }
    p.put_u32_le(w.distributor.workload.len() as u32);
    for &load in &w.distributor.workload {
        p.put_f64_le(load);
    }
    put_counters(p, w.stats.to_array());
    p.put_u64_le(w.emitted_this_superstep);
    p.put_u32_le(w.emitted_superstep);
    p.put_u8(u8::from(w.failed));
    match &w.harvest {
        HarvestCheckpoint::CountOnly => {}
        HarvestCheckpoint::Instances(buf) => {
            p.put_u64_le(buf.len() as u64);
            for inst in buf {
                p.put_u8(inst.len() as u8);
                for &v in inst {
                    p.put_u32_le(v);
                }
            }
        }
        HarvestCheckpoint::PerVertex(counts) => {
            p.put_u64_le(counts.len() as u64);
            for &c in counts {
                p.put_u64_le(c);
            }
        }
    }
}

fn read_worker(r: &mut Reader<'_>, harvest_mode: u8) -> Result<WorkerCheckpoint, CheckpointError> {
    let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let n_load = r.u32()? as usize;
    let mut workload = Vec::new();
    for _ in 0..n_load {
        workload.push(r.f64()?);
    }
    let stats = ExpandStats::from_array(r.counters()?);
    let emitted_this_superstep = r.u64()?;
    let emitted_superstep = r.u32()?;
    let failed = r.u8()? != 0;
    let harvest = match harvest_mode {
        0 => HarvestCheckpoint::CountOnly,
        1 => {
            let n = r.u64()? as usize;
            let mut buf = Vec::new();
            for _ in 0..n {
                let len = r.u8()? as usize;
                if len > MAX_GPSI_VERTICES {
                    return Err(CheckpointError::new("oversized instance tuple"));
                }
                let mut inst = Vec::with_capacity(len);
                for _ in 0..len {
                    inst.push(r.u32()?);
                }
                buf.push(inst);
            }
            HarvestCheckpoint::Instances(buf)
        }
        _ => {
            let n = r.u64()? as usize;
            let mut counts = Vec::new();
            for _ in 0..n {
                counts.push(r.u64()?);
            }
            HarvestCheckpoint::PerVertex(counts)
        }
    };
    Ok(WorkerCheckpoint {
        distributor: DistributorSnapshot { rng_state, workload },
        stats,
        emitted_this_superstep,
        emitted_superstep,
        failed,
        harvest,
    })
}

fn put_frontier_dest(p: &mut Vec<u8>, dest: &[(VertexId, Gpsi)]) {
    p.put_u64_le(dest.len() as u64);
    for (v, gpsi) in dest {
        p.put_u32_le(*v);
        gpsi.encode(p);
    }
}

fn read_frontier_dest(r: &mut Reader<'_>) -> Result<Vec<(VertexId, Gpsi)>, CheckpointError> {
    let n = r.u64()? as usize;
    let mut dest = Vec::new();
    for _ in 0..n {
        let v = r.u32()?;
        let gpsi = Gpsi::decode(r.take(Gpsi::ENCODED_LEN)?)
            .map_err(|e| CheckpointError::new(format!("frontier: {e}")))?;
        dest.push((v, gpsi));
    }
    Ok(dest)
}

/// [`SpillCodec`] for [`Gpsi`] messages — the engine's disk spill tier
/// evicts frontier chunks as [`Gpsi::encode`] tuples; the destination
/// vertex and the checksum are the spill blob's own framing.
pub struct GpsiSpillCodec;

impl SpillCodec<Gpsi> for GpsiSpillCodec {
    fn encode(&self, msg: &Gpsi, out: &mut Vec<u8>) {
        msg.encode(out);
    }

    fn decode(&self, r: &mut SpillReader<'_>) -> Result<Gpsi, SpillError> {
        Gpsi::decode(r.bytes(Gpsi::ENCODED_LEN, "gpsi")?)
            .map_err(|e| SpillError::Malformed { what: e.as_str() })
    }
}

fn encode_strategy(s: Strategy) -> (u8, f64) {
    match s {
        Strategy::Random => (0, 0.0),
        Strategy::RouletteWheel => (1, 0.0),
        Strategy::WorkloadAware { alpha } => (2, alpha),
    }
}

fn decode_strategy(tag: u8, alpha: f64) -> Result<Strategy, CheckpointError> {
    match tag {
        0 => Ok(Strategy::Random),
        1 => Ok(Strategy::RouletteWheel),
        2 => Ok(Strategy::WorkloadAware { alpha }),
        _ => Err(CheckpointError::new("unknown strategy tag")),
    }
}

/// Writes a `counters!` table as consecutive little-endian words, in
/// declaration order. The payload carries no count: a table that grows or
/// shrinks changes the layout and needs a new magic.
fn put_counters<const N: usize>(p: &mut Vec<u8>, values: [u64; N]) {
    for v in values {
        p.put_u64_le(v);
    }
}

/// Bounds-checked little-endian cursor; every read can fail instead of
/// panicking on truncated input.
struct Reader<'a> {
    data: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.data.len() < n {
            return Err(CheckpointError::new("truncated checkpoint"));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Inverse of [`put_counters`]; `N` is the receiving table's `LEN`.
    fn counters<const N: usize>(&mut self) -> Result<[u64; N], CheckpointError> {
        let mut values = [0u64; N];
        for v in &mut values {
            *v = self.u64()?;
        }
        Ok(values)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut g = Gpsi::initial(0, 7);
        g.set_black(0);
        g.assign(1, 3);
        Checkpoint {
            guard: CheckpointGuard {
                graph_hash: 0xDEAD_BEEF,
                workers: 2,
                seed: 42,
                strategy: Strategy::WorkloadAware { alpha: 0.5 },
                pattern_hash: 99,
                init_vertex: 0,
                harvest_mode: 1,
            },
            superstep: 3,
            carried: CarriedCounters::from_array([1, 4, 8192, 555, 4, 2, 17]),
            prior_supersteps: vec![SuperstepMetrics {
                workers: vec![
                    WorkerSuperstepMetrics::from_array([5, 2, 9, 3, 640, 11, 1234]),
                    WorkerSuperstepMetrics::default(),
                ],
                net: NetSuperstepMetrics::from_array([6, 5, 4096, 3072, 777, 888]),
                spill_stall_nanos: 321,
            }],
            workers: vec![
                WorkerCheckpoint {
                    distributor: DistributorSnapshot {
                        rng_state: [1, 2, 3, 4],
                        workload: vec![0.5, 1.25],
                    },
                    stats: ExpandStats { expanded: 7, results: 2, cost: 31, ..Default::default() },
                    emitted_this_superstep: 4,
                    emitted_superstep: 2,
                    failed: false,
                    harvest: HarvestCheckpoint::Instances(vec![vec![0, 1, 2], vec![4, 5, 6]]),
                },
                WorkerCheckpoint {
                    distributor: DistributorSnapshot { rng_state: [5, 6, 7, 8], workload: vec![] },
                    stats: ExpandStats::default(),
                    emitted_this_superstep: 0,
                    emitted_superstep: 0,
                    failed: true,
                    harvest: HarvestCheckpoint::Instances(vec![]),
                },
            ],
            frontier: vec![vec![(7, g), (3, Gpsi::initial(1, 3))], vec![]],
        }
    }

    /// The trailing FxHash word of a sealed blob.
    fn checksum_word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap())
    }

    /// Golden pin of both binary formats: the payload is a fixed sequence
    /// of little-endian words in field-declaration order, so any change
    /// to a counter table's order or length moves the length or the
    /// checksum recorded here (and then needs a magic bump).
    #[test]
    fn checkpoint_and_shard_bytes_are_pinned() {
        let mut cp = sample();
        cp.workers[0].stats = ExpandStats::from_array(std::array::from_fn(|i| 101 + i as u64));
        let bytes = cp.to_bytes();
        assert_eq!(&bytes[..8], b"PSGLCKP3");
        assert_eq!((bytes.len(), checksum_word(&bytes)), (881, 0xCC4A1500BAE74B70));

        let shard = CheckpointShard {
            guard: cp.guard,
            partition: 1,
            superstep: cp.superstep,
            worker: cp.workers[0].clone(),
            frontier: cp.frontier[0].clone(),
        };
        let bytes = shard.to_bytes();
        assert_eq!(&bytes[..8], b"PSGLSHD2");
        assert_eq!((bytes.len(), checksum_word(&bytes)), (436, 0xC9CF1609DD7B41B2));
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn drain_instances_moves_sorts_and_empties_harvests() {
        let mut cp = sample();
        cp.workers[1].harvest = HarvestCheckpoint::Instances(vec![vec![1, 2, 3]]);
        let drained = cp.drain_instances();
        assert_eq!(drained, vec![vec![0, 1, 2], vec![1, 2, 3], vec![4, 5, 6]]);
        for w in &cp.workers {
            assert_eq!(w.harvest, HarvestCheckpoint::Instances(vec![]));
        }
        // Counts live in the stats, untouched by the drain.
        assert_eq!(cp.workers[0].stats.results, 2);
        assert!(cp.drain_instances().is_empty(), "second drain finds nothing");

        let mut count_only = sample();
        count_only.workers[0].harvest = HarvestCheckpoint::CountOnly;
        count_only.workers[1].harvest = HarvestCheckpoint::PerVertex(vec![3, 1]);
        assert!(count_only.drain_instances().is_empty());
        assert_eq!(count_only.workers[1].harvest, HarvestCheckpoint::PerVertex(vec![3, 1]));
    }

    #[test]
    fn shard_roundtrip_and_rejection() {
        let cp = sample();
        let shard = CheckpointShard {
            guard: cp.guard,
            partition: 1,
            superstep: cp.superstep,
            worker: cp.workers[1].clone(),
            frontier: cp.frontier[0].clone(),
        };
        let bytes = shard.to_bytes();
        assert_eq!(CheckpointShard::from_bytes(&bytes).unwrap(), shard);
        // Corruption, truncation, and the wrong magic are all rejected.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xFF;
        assert!(CheckpointShard::from_bytes(&bad).is_err());
        assert!(CheckpointShard::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        assert!(
            CheckpointShard::from_bytes(&cp.to_bytes()).is_err(),
            "full checkpoint is not a shard"
        );
        // A shard claiming a partition outside the run's worker count is
        // structurally invalid.
        let wild = CheckpointShard { partition: 7, ..shard };
        assert!(CheckpointShard::from_bytes(&wild.to_bytes()).is_err());
    }

    #[test]
    fn a_black_bit_outside_mapped_is_rejected_in_every_format() {
        // Each blob comes from the format's own writer, so its checksum
        // holds and the Gpsi field is the only thing wrong with it.
        let mut mapping = [crate::gpsi::UNMAPPED; MAX_GPSI_VERTICES];
        mapping[0] = 7;
        let bad = Gpsi::from_raw_parts(mapping, 0b10, 0b01, 0);
        let why = "gpsi black set exceeds mapped set";

        let mut cp = sample();
        cp.frontier[1].push((7, bad));
        let err = Checkpoint::from_bytes(&cp.to_bytes()).unwrap_err();
        assert!(err.message.contains(why), "{err}");

        let shard = CheckpointShard {
            guard: cp.guard,
            partition: 1,
            superstep: cp.superstep,
            worker: cp.workers[1].clone(),
            frontier: cp.frontier[1].clone(),
        };
        let err = CheckpointShard::from_bytes(&shard.to_bytes()).unwrap_err();
        assert!(err.message.contains(why), "{err}");

        let store = psgl_bsp::SpillStore::create(&psgl_bsp::SpillConfig::in_temp()).unwrap();
        let segment = store.spill(&GpsiSpillCodec, &[vec![(7, bad)]]).unwrap();
        assert_eq!(
            store.readmit(&GpsiSpillCodec, segment, &mut Vec::new()),
            Err(SpillError::Malformed { what: why })
        );
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::from_bytes(&bad).is_err());
        assert!(Checkpoint::from_bytes(&[]).is_err());
    }

    #[test]
    fn guard_mismatches_are_rejected() {
        let cp = sample();
        let good = cp.guard;
        assert!(cp.validate(&good).is_ok());
        for (field, mutate) in [
            (
                "graph",
                Box::new(|g: &mut CheckpointGuard| g.graph_hash ^= 1)
                    as Box<dyn Fn(&mut CheckpointGuard)>,
            ),
            ("workers", Box::new(|g: &mut CheckpointGuard| g.workers += 1)),
            ("seed", Box::new(|g: &mut CheckpointGuard| g.seed ^= 1)),
            ("strategy", Box::new(|g: &mut CheckpointGuard| g.strategy = Strategy::Random)),
            ("pattern", Box::new(|g: &mut CheckpointGuard| g.pattern_hash ^= 1)),
            ("init", Box::new(|g: &mut CheckpointGuard| g.init_vertex += 1)),
            ("harvest", Box::new(|g: &mut CheckpointGuard| g.harvest_mode = 0)),
        ] {
            let mut other = good;
            mutate(&mut other);
            assert!(cp.validate(&other).is_err(), "{field} mismatch must be rejected");
        }
    }

    #[test]
    fn pattern_hash_distinguishes_patterns() {
        use psgl_pattern::catalog;
        let t = pattern_hash(&catalog::triangle());
        assert_eq!(t, pattern_hash(&catalog::triangle()));
        assert_ne!(t, pattern_hash(&catalog::square()));
        assert_ne!(pattern_hash(&catalog::path(3)), pattern_hash(&catalog::triangle()));
    }
}
