//! Superstep-boundary checkpoints: serialize a stopped run's live
//! frontier and worker state for exact resume.
//!
//! A checkpoint captures everything the engine's
//! [`ResumePoint`](psgl_bsp::ResumePoint) needs that is not re-derivable
//! from the run inputs, one *part* per partition: the partition's
//! undelivered Gpsi frontier (in delivery order) and its worker's
//! distributor state (strategy RNG stream position + workload view),
//! expansion counters and harvest. Beside the parts it holds the run-level
//! prefix: the per-superstep metrics and carried counters of the completed
//! supersteps.
//!
//! A whole-run capture (a preempted slice, a checkpointed deadline or
//! budget stop) has a part for every partition. A cluster member streams a
//! checkpoint with a single part — a *shard* — for each partition it hosts
//! at every coordinator-directed barrier, with no prefix: the coordinator
//! owns the global superstep history. A restarted member [joins](Checkpoint::join)
//! the shards of the partitions it now hosts into one checkpoint, and the
//! run restores from it like from any other: its parts must be exactly the
//! partitions the run hosts.
//!
//! A *guard* header pins the run inputs (graph content hash, worker count,
//! seed, strategy, pattern, initial vertex, harvest mode) so a checkpoint
//! can only be resumed against the exact run it was captured from —
//! resuming against anything else would silently produce wrong counts.
//!
//! The envelope is the [`psgl_graph::blob`] seal, and the payload a
//! sequence of little-endian fields, so corruption fails loudly, never
//! silently:
//!
//! ```text
//! magic "PSGLCKP4" | payload | checksum: u64 (FxHash of the payload)
//! payload = guard | superstep | carried | prior supersteps
//!         | part count: u32 | per part: partition u32, worker, frontier
//! ```

use crate::distribute::{DistributorSnapshot, Strategy};
use crate::gpsi::{Gpsi, MAX_GPSI_VERTICES};
use crate::stats::ExpandStats;
use bytes::BufMut;
use psgl_bsp::{
    CarriedCounters, Encode, NetSuperstepMetrics, SuperstepMetrics, WorkerSuperstepMetrics,
};
use psgl_graph::blob::{self, Reader, Truncated, UnsealError};
use psgl_graph::hash::FxHasher;
use psgl_graph::VertexId;
use std::hash::Hasher;

const MAGIC: &[u8; 8] = b"PSGLCKP4";

/// A checkpoint failed to decode or does not match the run it is being
/// resumed against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError {
    /// What went wrong (decode failure or guard-field mismatch).
    pub message: String,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CheckpointError { message: message.into() }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad checkpoint: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

impl From<Truncated> for CheckpointError {
    fn from(t: Truncated) -> Self {
        CheckpointError::new(format!("truncated checkpoint reading {}", t.what))
    }
}

/// What a worker holds of the instances it has found — in a running
/// worker and in its checkpoint alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Harvested {
    /// Counting only; the count lives in [`ExpandStats::results`].
    CountOnly,
    /// Collected instance tuples found so far.
    Instances(Vec<Vec<VertexId>>),
    /// Per-data-vertex participation counts so far.
    PerVertex(Vec<u64>),
}

impl Harvested {
    /// The guard's harvest-mode byte: 0 = count only, 1 = instances,
    /// 2 = per-vertex.
    pub fn mode(&self) -> u8 {
        match self {
            Harvested::CountOnly => 0,
            Harvested::Instances(_) => 1,
            Harvested::PerVertex(_) => 2,
        }
    }

    /// Keeps one complete instance of an `np`-vertex pattern. The
    /// expansion kernels count an instance in
    /// [`ExpandStats::results`] before they build its Gpsi, and under
    /// [`Harvested::CountOnly`] they never build it at all.
    #[inline]
    pub fn keep(&mut self, g: &Gpsi, np: usize) {
        match self {
            Harvested::CountOnly => {}
            Harvested::Instances(buf) => buf.push(g.instance(np)),
            Harvested::PerVertex(counts) => {
                for &vd in g.mapping(np) {
                    counts[vd as usize] += 1;
                }
            }
        }
    }
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
    /// Whether this worker's output alone had outgrown the Gpsi budget
    /// (`PsglConfig::gpsi_budget`), so that it drains its remaining messages
    /// without expanding them (the simulated OOM abort).
    pub failed: bool,
    /// Instances/counts harvested so far.
    pub harvest: Harvested,
}

/// One partition's share of a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct PartCheckpoint {
    /// Global partition id.
    pub partition: u32,
    /// The partition's worker state at the capture barrier.
    pub worker: WorkerCheckpoint,
    /// Undelivered messages bound for this partition, in delivery order.
    pub frontier: Vec<(VertexId, Gpsi)>,
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
    /// Harvest mode, [`Harvested::mode`].
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

/// A superstep-boundary checkpoint: the whole run's, or one partition's.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Run-input guard; checked by [`Checkpoint::validate`].
    pub guard: CheckpointGuard,
    /// The superstep the resumed run starts at.
    pub superstep: u32,
    /// Run-level counters of the completed prefix (pool exhaustion,
    /// spill traffic, live-chunk peak), folded into the resumed run's
    /// totals. Zero in a shard.
    pub carried: CarriedCounters,
    /// Per-superstep metrics of the completed prefix. Empty in a shard.
    pub prior_supersteps: Vec<SuperstepMetrics>,
    /// One part per captured partition, ascending by partition.
    pub parts: Vec<PartCheckpoint>,
}

impl Checkpoint {
    /// Moves every harvested instance out of the parts, sorted — the
    /// streaming scheduler's per-slice page. The resumed run starts with
    /// empty harvests, so draining after each slice partitions the full
    /// instance multiset across pages; cumulative counts are untouched
    /// (they live in [`ExpandStats::results`]). Returns an empty vec for
    /// count-only and per-vertex harvests.
    pub fn drain_instances(&mut self) -> Vec<Vec<VertexId>> {
        let mut out = Vec::new();
        for part in &mut self.parts {
            if let Harvested::Instances(buf) = &mut part.worker.harvest {
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
        Ok(())
    }

    /// Joins checkpoints captured at one barrier of one run — a restarted
    /// cluster member's shards — into a single checkpoint whose parts
    /// ascend by partition. Mixed guards, mixed supersteps and two parts
    /// for one partition are rejected. The run-level prefix is the first
    /// checkpoint's; a shard carries none.
    pub fn join(
        checkpoints: impl IntoIterator<Item = Checkpoint>,
    ) -> Result<Checkpoint, CheckpointError> {
        let mut rest = checkpoints.into_iter();
        let mut joined = rest.next().ok_or_else(|| CheckpointError::new("nothing to join"))?;
        for cp in rest {
            if cp.guard != joined.guard {
                return Err(CheckpointError::new("joined checkpoints come from different runs"));
            }
            if cp.superstep != joined.superstep {
                return Err(CheckpointError::new(format!(
                    "joined checkpoints span supersteps {} and {}",
                    joined.superstep, cp.superstep
                )));
            }
            joined.parts.extend(cp.parts);
        }
        joined.parts.sort_unstable_by_key(|part| part.partition);
        if let Some(w) = joined.parts.windows(2).find(|w| w[0].partition == w[1].partition) {
            return Err(CheckpointError::new(format!(
                "two parts for partition {}",
                w[0].partition
            )));
        }
        Ok(joined)
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
        p.put_u32_le(self.parts.len() as u32);
        for part in &self.parts {
            p.put_u32_le(part.partition);
            put_worker(&mut p, &part.worker);
            p.put_u64_le(part.frontier.len() as u64);
            for (v, gpsi) in &part.frontier {
                p.put_u32_le(*v);
                gpsi.encode(&mut p);
            }
        }
        blob::seal(MAGIC, &p)
    }

    /// Deserializes the binary format; rejects corruption (checksum),
    /// truncation, and structurally invalid payloads — among them parts
    /// that are not distinct partitions of the run, in ascending order.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let payload = blob::unseal(MAGIC, data).map_err(|e| match e {
            UnsealError::TooShort | UnsealError::BadMagic => {
                CheckpointError::new("not a PSGLCKP4 checkpoint")
            }
            UnsealError::Checksum { .. } => CheckpointError::new("checksum mismatch"),
        })?;
        let mut r = Reader::new(payload);
        let guard = read_guard(&mut r)?;
        let superstep = r.u32("superstep")?;
        let carried = CarriedCounters::from_array(read_counters(&mut r, "carried counters")?);
        let n_supersteps = r.u32("superstep count")?;
        let mut prior_supersteps = Vec::new();
        for _ in 0..n_supersteps {
            let n_workers = r.u32("superstep worker count")?;
            let mut workers = Vec::new();
            for _ in 0..n_workers {
                let metrics = read_counters(&mut r, "worker superstep metrics")?;
                workers.push(WorkerSuperstepMetrics::from_array(metrics));
            }
            let net = NetSuperstepMetrics::from_array(read_counters(&mut r, "net metrics")?);
            let spill_stall_nanos = r.u64("spill stall")?;
            prior_supersteps.push(SuperstepMetrics { workers, net, spill_stall_nanos });
        }
        let n_parts = r.u32("part count")?;
        let mut parts: Vec<PartCheckpoint> = Vec::new();
        for _ in 0..n_parts {
            let partition = r.u32("partition")?;
            if partition >= guard.workers {
                return Err(CheckpointError::new(format!(
                    "part for partition {partition} of a {}-partition run",
                    guard.workers
                )));
            }
            if parts.last().is_some_and(|last| last.partition >= partition) {
                return Err(CheckpointError::new("parts are not ascending distinct partitions"));
            }
            let worker = read_worker(&mut r, guard.harvest_mode)?;
            let n = r.u64("frontier length")?;
            let mut frontier = Vec::new();
            for _ in 0..n {
                let v = r.u32("frontier vertex")?;
                let gpsi = <Gpsi>::decode(r.take(<Gpsi>::ENCODED_LEN, "frontier gpsi")?)
                    .map_err(|e| CheckpointError::new(format!("frontier: {e}")))?;
                frontier.push((v, gpsi));
            }
            parts.push(PartCheckpoint { partition, worker, frontier });
        }
        if !r.is_empty() {
            return Err(CheckpointError::new("trailing bytes after the last part"));
        }
        Ok(Checkpoint { guard, superstep, carried, prior_supersteps, parts })
    }
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
    let graph_hash = r.u64("graph hash")?;
    let workers = r.u32("worker count")?;
    if workers == 0 || workers > 1 << 20 {
        return Err(CheckpointError::new("implausible worker count"));
    }
    let seed = r.u64("seed")?;
    let strategy = decode_strategy(r.u8("strategy")?, r.f64("strategy alpha")?)?;
    let pattern_hash = r.u64("pattern hash")?;
    let init_vertex = r.u8("initial vertex")?;
    let harvest_mode = r.u8("harvest mode")?;
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
        Harvested::CountOnly => {}
        Harvested::Instances(buf) => {
            p.put_u64_le(buf.len() as u64);
            for inst in buf {
                p.put_u8(inst.len() as u8);
                for &v in inst {
                    p.put_u32_le(v);
                }
            }
        }
        Harvested::PerVertex(counts) => {
            p.put_u64_le(counts.len() as u64);
            for &c in counts {
                p.put_u64_le(c);
            }
        }
    }
}

fn read_worker(r: &mut Reader<'_>, harvest_mode: u8) -> Result<WorkerCheckpoint, CheckpointError> {
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64("rng state")?;
    }
    let n_load = r.u32("workload length")?;
    let mut workload = Vec::new();
    for _ in 0..n_load {
        workload.push(r.f64("workload")?);
    }
    let stats = ExpandStats::from_array(read_counters(r, "expansion counters")?);
    let emitted_this_superstep = r.u64("emitted count")?;
    let emitted_superstep = r.u32("emitted superstep")?;
    let failed = r.u8("failed flag")? != 0;
    let harvest = match harvest_mode {
        0 => Harvested::CountOnly,
        1 => {
            let n = r.u64("instance count")?;
            let mut buf = Vec::new();
            for _ in 0..n {
                let len = r.u8("instance length")? as usize;
                if len > MAX_GPSI_VERTICES {
                    return Err(CheckpointError::new("oversized instance tuple"));
                }
                let mut inst = Vec::with_capacity(len);
                for _ in 0..len {
                    inst.push(r.u32("instance vertex")?);
                }
                buf.push(inst);
            }
            Harvested::Instances(buf)
        }
        _ => {
            let n = r.u64("per-vertex length")?;
            let mut counts = Vec::new();
            for _ in 0..n {
                counts.push(r.u64("per-vertex count")?);
            }
            Harvested::PerVertex(counts)
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

/// Inverse of [`put_counters`]; `N` is the receiving table's `LEN`.
fn read_counters<const N: usize>(
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<[u64; N], Truncated> {
    let mut values = [0u64; N];
    for v in &mut values {
        *v = r.u64(what)?;
    }
    Ok(values)
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
            parts: vec![
                PartCheckpoint {
                    partition: 0,
                    worker: WorkerCheckpoint {
                        distributor: DistributorSnapshot {
                            rng_state: [1, 2, 3, 4],
                            workload: vec![0.5, 1.25],
                        },
                        stats: ExpandStats {
                            expanded: 7,
                            results: 2,
                            cost: 31,
                            ..Default::default()
                        },
                        emitted_this_superstep: 4,
                        emitted_superstep: 2,
                        failed: false,
                        harvest: Harvested::Instances(vec![vec![0, 1, 2], vec![4, 5, 6]]),
                    },
                    frontier: vec![(7, g), (3, Gpsi::initial(1, 3))],
                },
                PartCheckpoint {
                    partition: 1,
                    worker: WorkerCheckpoint {
                        distributor: DistributorSnapshot {
                            rng_state: [5, 6, 7, 8],
                            workload: vec![],
                        },
                        stats: ExpandStats::default(),
                        emitted_this_superstep: 0,
                        emitted_superstep: 0,
                        failed: true,
                        harvest: Harvested::Instances(vec![]),
                    },
                    frontier: vec![],
                },
            ],
        }
    }

    /// [`sample`] with the expanding vertex of its first frontier tuple
    /// chosen, as the engine sends it. Decoding accepts only a GRAY
    /// expanding vertex; `sample`'s tuple, whose bytes the golden pins,
    /// still names the BLACK vertex it has just expanded.
    fn decodable() -> Checkpoint {
        let mut cp = sample();
        cp.parts[0].frontier[0].1.set_expanding(1);
        cp
    }

    /// Part `i` of `cp` as a cluster member's shard sink captures it: one
    /// part, no run-level prefix.
    fn shard(cp: &Checkpoint, i: usize) -> Checkpoint {
        Checkpoint {
            carried: CarriedCounters::default(),
            prior_supersteps: Vec::new(),
            parts: vec![cp.parts[i].clone()],
            ..cp.clone()
        }
    }

    /// The trailing FxHash word of a sealed blob.
    fn checksum_word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap())
    }

    /// Golden pin of the binary format, whole-run and one-part: the payload
    /// is a fixed sequence of little-endian words in field-declaration
    /// order, so any change to a counter table's order or length moves the
    /// length or the checksum recorded here (and then needs a magic bump).
    #[test]
    fn checkpoint_and_shard_bytes_are_pinned() {
        let mut cp = sample();
        cp.parts[0].worker.stats = ExpandStats::from_array(std::array::from_fn(|i| 101 + i as u64));
        let bytes = cp.to_bytes();
        assert_eq!(&bytes[..8], b"PSGLCKP4");
        assert_eq!((bytes.len(), checksum_word(&bytes)), (893, 0x3EA4A83874040B7F));

        let bytes = shard(&cp, 0).to_bytes();
        assert_eq!(&bytes[..8], b"PSGLCKP4");
        assert_eq!((bytes.len(), checksum_word(&bytes)), (500, 0x8B9B0C1730A1E198));
    }

    /// A whole-run checkpoint and each one-part checkpoint survive their
    /// bytes, and one-part checkpoints join back into the whole run's parts.
    /// Decoding rejects a part outside the run's partitions; joining
    /// rejects two parts for one partition, mixed supersteps and mixed
    /// guards.
    #[test]
    fn roundtrip_preserves_everything() {
        let cp = decodable();
        assert_eq!(Checkpoint::from_bytes(&cp.to_bytes()).unwrap(), cp);
        let shards: Vec<Checkpoint> = (0..2).map(|i| shard(&cp, i)).collect();
        for one in &shards {
            assert_eq!(&Checkpoint::from_bytes(&one.to_bytes()).unwrap(), one);
        }
        let joined = Checkpoint::join(shards.iter().rev().cloned()).unwrap();
        assert_eq!(joined.parts, cp.parts, "joined parts ascend by partition");
        assert_eq!((joined.superstep, joined.guard), (cp.superstep, cp.guard));

        let mut wild = shard(&cp, 1);
        wild.parts[0].partition = 7;
        let err = Checkpoint::from_bytes(&wild.to_bytes()).unwrap_err();
        assert!(err.message.contains("partition 7"), "{err}");

        let err = Checkpoint::join([shards[1].clone(), shards[1].clone()]).unwrap_err();
        assert!(err.message.contains("two parts for partition 1"), "{err}");
        let mut later = shards[1].clone();
        later.superstep += 1;
        let err = Checkpoint::join([shards[0].clone(), later]).unwrap_err();
        assert!(err.message.contains("supersteps 3 and 4"), "{err}");
        let mut other_run = shards[1].clone();
        other_run.guard.seed ^= 1;
        let err = Checkpoint::join([shards[0].clone(), other_run]).unwrap_err();
        assert!(err.message.contains("different runs"), "{err}");
        assert!(Checkpoint::join([]).is_err());
    }

    #[test]
    fn drain_instances_moves_sorts_and_empties_harvests() {
        let mut cp = sample();
        cp.parts[1].worker.harvest = Harvested::Instances(vec![vec![1, 2, 3]]);
        let drained = cp.drain_instances();
        assert_eq!(drained, vec![vec![0, 1, 2], vec![1, 2, 3], vec![4, 5, 6]]);
        for part in &cp.parts {
            assert_eq!(part.worker.harvest, Harvested::Instances(vec![]));
        }
        // Counts live in the stats, untouched by the drain.
        assert_eq!(cp.parts[0].worker.stats.results, 2);
        assert!(cp.drain_instances().is_empty(), "second drain finds nothing");

        let mut count_only = sample();
        count_only.parts[0].worker.harvest = Harvested::CountOnly;
        count_only.parts[1].worker.harvest = Harvested::PerVertex(vec![3, 1]);
        assert!(count_only.drain_instances().is_empty());
        assert_eq!(count_only.parts[1].worker.harvest, Harvested::PerVertex(vec![3, 1]));
    }

    #[test]
    fn a_black_bit_outside_mapped_is_rejected_in_every_format() {
        // Each blob comes from the format's own writer, so its checksum
        // holds and the Gpsi field is the only thing wrong with it.
        let mut mapping = [crate::gpsi::UNMAPPED; MAX_GPSI_VERTICES];
        mapping[0] = 7;
        let bad = Gpsi::from_raw_parts(mapping, 0b10, 0b01, 0);
        let why = "gpsi black set exceeds mapped set";

        let mut cp = decodable();
        cp.parts[1].frontier.push((7, bad));
        let err = Checkpoint::from_bytes(&cp.to_bytes()).unwrap_err();
        assert!(err.message.contains(why), "{err}");

        let err = Checkpoint::from_bytes(&shard(&cp, 1).to_bytes()).unwrap_err();
        assert!(err.message.contains(why), "{err}");

        let store = psgl_bsp::SpillStore::create(&psgl_bsp::SpillConfig::in_temp()).unwrap();
        let mut scratch = psgl_bsp::SpillScratch::default();
        let segment = store.spill(&[vec![(7, bad)]], 1, &mut scratch).unwrap();
        let mut out: Vec<(VertexId, Gpsi)> = Vec::new();
        assert_eq!(
            store.readmit(segment, &mut out),
            Err(psgl_bsp::SpillError::Malformed { what: why })
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
