//! The BSP engine: supersteps, workers, message exchange.
//!
//! Messages travel in fixed-capacity chunks recycled through a
//! [`ChunkPool`] (see [`crate::chunk`]): senders fill pooled chunks, the
//! exchange moves them by pointer, and each receiver drains its inbox into
//! a retained sort buffer, groups it by vertex and computes straight from
//! that buffer. Steady-state supersteps therefore allocate nothing on the
//! message path.
//!
//! Scheduling is pluggable through the [`Executor`] seam (see
//! [`crate::exec`]): [`run_controlled`] takes the production
//! [`ThreadExecutor`](crate::exec::ThreadExecutor) (one scoped OS thread
//! per worker) or an executor with which tests and the simulation harness
//! drive the same per-worker closures under a deterministic, adversarial
//! schedule.

use crate::cancel::{CancelReason, CancelToken};
use crate::chunk::{push_chunked, Chunk, ChunkPool, PoolExhausted, DEFAULT_CHUNK_CAPACITY};
use crate::exchange::{Exchange, ExchangeDirective, FrontierSink, WorkerOutbox};
use crate::exec::{Executor, WorkerTask};
use crate::metrics::{
    CarriedCounters, EngineMetrics, NetSuperstepMetrics, SuperstepMetrics, WorkerSuperstepMetrics,
};
use crate::spill::{SpillCodec, SpillError, SpillSegment, SpillStore};
use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use psgl_obs::Value as TraceValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Safety limit on supersteps; exceeding it is an error (a PSgL run on
    /// a pattern with `|Vp|` vertices needs at most `|Vp|` supersteps).
    pub max_supersteps: u32,
    /// Abort when more than this many messages are in flight after a
    /// superstep — deterministic stand-in for the cluster's OutOfMemory
    /// failures in Tables 2 and 4. `None` = unlimited.
    pub message_budget: Option<u64>,
    /// `(VertexId, M)` tuples per message chunk. Larger chunks amortize
    /// pool traffic; smaller chunks give spill eviction finer granularity.
    pub chunk_capacity: usize,
    /// Cap on live message chunks; past it the pool reports the typed
    /// [`PoolExhausted`] condition and
    /// senders degrade by growing their current chunk instead of
    /// allocating. Exhaustion events surface in
    /// [`CarriedCounters::pool_exhausted`]. `None` = unbounded (default).
    pub max_live_chunks: Option<u64>,
    /// Chaos knob: permute, per destination, the source-worker order in
    /// which the exchange assembles inboxes (seeded, deterministic).
    /// Exercises the BSP guarantee that results are independent of message
    /// arrival order at superstep boundaries. `None` (default) keeps the
    /// canonical source order.
    pub exchange_shuffle_seed: Option<u64>,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            max_supersteps: 64,
            message_budget: None,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            max_live_chunks: None,
            exchange_shuffle_seed: None,
        }
    }
}

/// Errors terminating a BSP run.
#[derive(Debug)]
pub enum BspError {
    /// A worker's `compute` panicked; the run is aborted.
    WorkerPanicked {
        /// Worker that panicked.
        worker: usize,
        /// Superstep during which the panic happened.
        superstep: u32,
    },
    /// The in-flight message volume exceeded [`BspConfig::message_budget`].
    /// The paper reports these as OOM failures.
    MessageBudgetExceeded {
        /// Superstep after which the budget check failed.
        superstep: u32,
        /// Messages in flight at that point.
        in_flight: u64,
        /// The configured budget.
        budget: u64,
    },
    /// [`BspConfig::max_supersteps`] was reached with messages still
    /// in flight.
    SuperstepLimitExceeded(u32),
    /// A remote [`Exchange`] failed — a peer socket died, a frame failed
    /// to decode, or the coordinator vanished. Every pooled chunk was
    /// released before this was reported.
    Exchange {
        /// Superstep whose exchange failed.
        superstep: u32,
        /// Transport-level description of the failure.
        message: String,
    },
    /// The spill tier failed on the read side: a spilled frontier segment
    /// could not be re-admitted (truncated or corrupt blob, I/O error).
    /// The tuples on disk were the only copy, so the run aborts cleanly
    /// — every resident chunk was released before this was reported —
    /// instead of answering from a damaged frontier. Write-side spill
    /// failures never surface here; they degrade to resident retention.
    Spill {
        /// Superstep during which re-admission failed.
        superstep: u32,
        /// The typed spill failure.
        error: SpillError,
    },
    /// The pool's get/put balance was non-zero at a *clean* completion — a
    /// chunk leak (or double-free) that debug builds catch by assertion.
    /// Checked in release builds too so chaos sweeps in CI fail on leaks.
    ChunkLeak {
        /// Acquires minus releases at shutdown.
        outstanding: i64,
    },
}

impl std::fmt::Display for BspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BspError::WorkerPanicked { worker, superstep } => {
                write!(f, "worker {worker} panicked in superstep {superstep}")
            }
            BspError::MessageBudgetExceeded { superstep, in_flight, budget } => write!(
                f,
                "out of memory (simulated): {in_flight} messages in flight after superstep \
                 {superstep} exceeds budget {budget}"
            ),
            BspError::SuperstepLimitExceeded(s) => {
                write!(f, "superstep limit {s} reached with messages still in flight")
            }
            BspError::Exchange { superstep, message } => {
                write!(f, "exchange failed after superstep {superstep}: {message}")
            }
            BspError::Spill { superstep, error } => {
                write!(f, "spill re-admission failed in superstep {superstep}: {error}")
            }
            BspError::ChunkLeak { outstanding } => write!(
                f,
                "chunk pool get/put imbalance at clean engine shutdown: \
                 {outstanding} chunks unreleased (leak)"
            ),
        }
    }
}

impl std::error::Error for BspError {}

/// Spill-tier handles threaded through [`RunControl`]: the per-run
/// [`SpillStore`] (which owns the temp directory and deletes it on drop)
/// plus the message byte codec. Copyable so every worker closure can hold
/// one; `None` anywhere spill appears means the tier is disabled and the
/// engine degrades exactly as it did before the tier existed
/// (grow-in-place).
pub struct SpillControl<'c, M> {
    /// The per-run spill store.
    pub store: &'c SpillStore,
    /// Message byte codec for spill blobs.
    pub codec: &'c dyn SpillCodec<M>,
}

impl<M> Clone for SpillControl<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for SpillControl<'_, M> {}

/// One slot of a destination inbox: a resident pool chunk, or a spilled
/// segment standing in for the chunks it displaced. Parts appear in
/// delivery order; re-admission decodes a segment exactly where its
/// chunks would have been drained, so results are bit-identical to a
/// run that never spilled.
enum InboxPart<M> {
    /// A resident pooled chunk (zero-capacity = consumed placeholder).
    Chunk(Chunk<M>),
    /// An on-disk segment holding a run of evicted chunks.
    Spilled(SpillSegment),
}

impl<M> Default for InboxPart<M> {
    fn default() -> Self {
        InboxPart::Chunk(Chunk::default())
    }
}

/// Tuples a part will deliver (for in-flight accounting).
fn part_tuples<M>(part: &InboxPart<M>) -> u64 {
    match part {
        InboxPart::Chunk(c) => c.len() as u64,
        InboxPart::Spilled(s) => s.tuples,
    }
}

/// Per-worker, per-superstep execution context handed to
/// [`VertexProgram::compute`].
pub struct Context<'a, M, A = ()> {
    superstep: u32,
    worker: usize,
    partitioner: &'a HashPartitioner,
    pool: &'a ChunkPool<M>,
    /// Chunked outboxes for remote workers, indexed by destination.
    remote: &'a mut [Vec<Chunk<M>>],
    /// Same-worker fast path: chunks that skip the exchange entirely.
    local: &'a mut Vec<Chunk<M>>,
    /// Spill-tier handles (`None` = tier disabled, grow-in-place degradation).
    spill: Option<SpillControl<'a, M>>,
    /// Sender-side spill segments per remote destination (parallel to
    /// `remote`); each segment holds a prefix of that (src → dest) stream.
    spill_remote: &'a mut [Vec<SpillSegment>],
    /// Sender-side spill segments for the local fast path.
    spill_local: &'a mut Vec<SpillSegment>,
    cost: u64,
    messages_out: u64,
    local_delivered: u64,
    /// The merged aggregate of the *previous* superstep (Pregel semantics).
    prev_aggregate: &'a A,
    /// This worker's aggregate contribution for the current superstep.
    local_aggregate: &'a mut A,
}

impl<'a, M, A> Context<'a, M, A> {
    /// The global aggregate merged at the end of the previous superstep
    /// (the `A::default()` value during superstep 0).
    #[inline]
    pub fn prev_aggregate(&self) -> &A {
        self.prev_aggregate
    }

    /// Mutable access to this worker's aggregate contribution; the engine
    /// merges all contributions at the superstep barrier with
    /// [`VertexProgram::merge_aggregates`].
    #[inline]
    pub fn aggregate_mut(&mut self) -> &mut A {
        self.local_aggregate
    }
    /// Current superstep (0 = initialization).
    #[inline]
    pub fn superstep(&self) -> u32 {
        self.superstep
    }

    /// Id of the executing worker.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.partitioner.workers()
    }

    /// The vertex partitioner (vertex → owning worker).
    #[inline]
    pub fn partitioner(&self) -> &HashPartitioner {
        self.partitioner
    }

    /// Sends `msg` to vertex `to`; it is delivered at the next superstep on
    /// the worker owning `to`. Messages to this worker's own vertices take
    /// the local fast path: they go straight into the worker's next inbox
    /// without touching the exchange.
    #[inline]
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.messages_out += 1;
        let dest = self.partitioner.owner(to);
        if dest == self.worker {
            self.local_delivered += 1;
            push_or_spill(self.pool, self.spill, self.local, self.spill_local, to, msg);
        } else {
            push_or_spill(
                self.pool,
                self.spill,
                &mut self.remote[dest],
                &mut self.spill_remote[dest],
                to,
                msg,
            );
        }
    }

    /// Adds `units` to this worker's cost for the current superstep
    /// (PSgL: the `load(Gpsi)` terms of Equation 2).
    #[inline]
    pub fn add_cost(&mut self, units: u64) {
        self.cost += units;
    }
}

/// Sender-side push with spill-tier degradation. Without a spill tier
/// this is exactly [`push_chunked`]. With one, hitting the live-chunk cap
/// no longer grows the current chunk: the destination's *entire* resident
/// chunk list — a prefix of its (src → dest) stream, so delivery order is
/// untouched — is encoded into one segment, its chunks are released back
/// to the pool (freeing capacity for the whole run), and the send lands
/// in a freshly acquired chunk. Write-side spill failures (ENOSPC, byte
/// budget) fall back to the old grow-in-place path: slower and bigger,
/// never wrong.
#[inline]
fn push_or_spill<M>(
    pool: &ChunkPool<M>,
    spill: Option<SpillControl<'_, M>>,
    list: &mut Vec<Chunk<M>>,
    segs: &mut Vec<SpillSegment>,
    to: VertexId,
    msg: M,
) {
    let Some(sp) = spill else {
        push_chunked(pool, list, to, msg);
        return;
    };
    match list.last_mut() {
        Some(c) if c.len() < pool.capacity() => c.push((to, msg)),
        Some(_) => match pool.try_acquire() {
            Ok(mut next) => {
                next.push((to, msg));
                list.push(next);
            }
            Err(PoolExhausted) => match sp.store.spill(sp.codec, list) {
                Ok(seg) => {
                    segs.push(seg);
                    for c in list.drain(..) {
                        pool.release(c);
                    }
                    // The releases above refilled the free list, so this
                    // acquire is served from it, under the cap.
                    let mut c = pool.acquire();
                    c.push((to, msg));
                    list.push(c);
                }
                // Degradable write failure: grow the full chunk in place,
                // exactly the pre-spill behavior.
                Err(_) => list.last_mut().expect("list checked non-empty").push((to, msg)),
            },
        },
        None => {
            // A destination's first chunk is structural demand: served
            // even over the cap (and metered).
            let mut c = pool.acquire();
            c.push((to, msg));
            list.push(c);
        }
    }
}

/// A vertex-centric program in the Pregel style.
///
/// The engine calls [`VertexProgram::compute`] on every vertex in
/// superstep 0 with no messages (PSgL's initialization phase) and on every
/// vertex with pending messages in later supersteps. The run halts when no
/// messages are in flight.
pub trait VertexProgram: Sync {
    /// Message type exchanged between vertices.
    type Message: Send;
    /// Mutable per-worker state (e.g. local result buffers, the
    /// distribution strategy's local workload view).
    type WorkerState: Send;
    /// Global aggregate merged at each superstep barrier (Pregel
    /// aggregators); use `()` when not needed.
    type Aggregate: Send + Sync + Default;

    /// Creates worker-local state before superstep 0.
    fn create_worker_state(&self, worker: usize) -> Self::WorkerState;

    /// Merges one worker's aggregate contribution into the accumulator.
    /// The default implementation discards contributions (fits the `()`
    /// aggregate).
    fn merge_aggregates(&self, _into: &mut Self::Aggregate, _from: Self::Aggregate) {}

    /// Processes `vertex` with its incoming `messages`.
    ///
    /// `messages` is an engine-owned batch buffer reused across calls: it
    /// holds every message addressed to `vertex` this superstep, and the
    /// program may freely `drain` or consume it — the engine clears it
    /// before the next vertex either way.
    fn compute(
        &self,
        ctx: &mut Context<'_, Self::Message, Self::Aggregate>,
        state: &mut Self::WorkerState,
        vertex: VertexId,
        messages: &mut Vec<Self::Message>,
    );
}

/// Result of a successful BSP run.
#[derive(Debug)]
pub struct BspResult<S, A = ()> {
    /// Final worker states, indexed by worker id.
    pub worker_states: Vec<S>,
    /// The merged aggregate of the final superstep.
    pub final_aggregate: A,
    /// Execution metrics.
    pub metrics: EngineMetrics,
}

/// A captured frontier plus everything needed to restart a run at a
/// superstep boundary with bit-identical results: the undelivered
/// messages (per destination worker, in exchange order), the worker
/// states, the merged aggregate, and the metrics accumulated so far.
///
/// A `ResumePoint` is produced by [`CancelledRun::into_resume_point`]
/// after a soft cancel and consumed by [`run_controlled`] via
/// [`RunControl::resume`]. Serialization (for resume tokens that outlive
/// the process) lives one layer up, where the message type is concrete.
pub struct ResumePoint<M, S, A> {
    /// Superstep at which the resumed run starts (the one that never ran).
    pub superstep: u32,
    /// Undelivered messages for each destination worker, in the exact
    /// order the exchange delivered them.
    pub frontier: Vec<Vec<(VertexId, M)>>,
    /// Worker states as of the capture barrier, indexed by worker id.
    pub worker_states: Vec<S>,
    /// The merged aggregate of the last completed superstep.
    pub aggregate: A,
    /// Per-superstep metrics of the completed prefix; the resumed run
    /// appends to these so the final curves cover the whole run.
    pub prior_supersteps: Vec<SuperstepMetrics>,
    /// Run-level counters of the prefix (pool exhaustion, spill traffic,
    /// live-chunk peak), folded into the resumed run's totals.
    pub carried: CarriedCounters,
}

/// A run ended early by its [`CancelToken`] (or by the message budget with
/// checkpointing enabled).
pub struct CancelledRun<M, S, A> {
    /// Why the run stopped.
    pub reason: CancelReason,
    /// For a soft cancel: the superstep the run would resume at. For a
    /// hard cancel: the superstep that was aborted mid-flight.
    pub superstep: u32,
    /// The undelivered frontier, present only for soft cancels with
    /// [`RunControl::checkpoint`] enabled (hard cancels abort workers
    /// mid-superstep, so no consistent frontier exists).
    pub frontier: Option<Vec<Vec<(VertexId, M)>>>,
    /// Worker states at cancellation — partial results (already-found
    /// instances, counters) remain readable even without a checkpoint.
    pub worker_states: Vec<S>,
    /// The merged aggregate of the last completed superstep.
    pub aggregate: A,
    /// Metrics for the completed prefix; `chunks_outstanding` is zero —
    /// the cancelled path returns every pooled chunk.
    pub metrics: EngineMetrics,
}

impl<M, S, A> CancelledRun<M, S, A> {
    /// Converts a checkpointed cancel into the [`ResumePoint`] that
    /// restarts it; `None` when no frontier was captured (hard cancel).
    pub fn into_resume_point(self) -> Option<ResumePoint<M, S, A>> {
        let frontier = self.frontier?;
        Some(ResumePoint {
            superstep: self.superstep,
            frontier,
            worker_states: self.worker_states,
            aggregate: self.aggregate,
            carried: self.metrics.carried,
            prior_supersteps: self.metrics.supersteps,
        })
    }
}

/// Outcome of a controlled run: completion, or a (possibly resumable)
/// cancellation. Engine errors (panic, budget without checkpoint,
/// superstep limit) still surface as [`BspError`].
pub enum RunOutcome<M, S, A> {
    /// The run delivered every message and halted normally.
    Complete(BspResult<S, A>),
    /// The run was cancelled; see [`CancelledRun`].
    Cancelled(CancelledRun<M, S, A>),
}

/// Control inputs for [`run_controlled`]: cancellation, checkpoint
/// capture, and resume. Under [`RunControl::default`] nothing can cancel
/// the run: the outcome is [`RunOutcome::Complete`] or an error.
pub struct RunControl<'c, M, S, A> {
    /// Token polled at every superstep barrier and every few message
    /// batches inside `compute`.
    pub cancel: Option<&'c CancelToken>,
    /// Capture the live frontier when a soft cancel fires at a barrier
    /// (wall-clock deadline, superstep deadline, or message budget),
    /// enabling exact resume. With this set, a wall-clock deadline lets
    /// the in-flight superstep finish instead of aborting it.
    pub checkpoint: bool,
    /// Restart from a captured frontier instead of superstep 0.
    pub resume: Option<ResumePoint<M, S, A>>,
    /// Delivery seam override: route the superstep exchange through this
    /// implementation (e.g. the cluster's TCP data plane plus a
    /// coordinator-run barrier) instead of the built-in in-process
    /// pointer move. Enables partial partition ownership — the engine
    /// then hosts only [`Exchange::local_partitions`]. See
    /// [`crate::exchange`] for the determinism contract.
    pub exchange: Option<&'c dyn Exchange<M>>,
    /// Receives superstep-boundary snapshots whenever the exchange
    /// directs [`ExchangeDirective::CheckpointAndContinue`]; unused
    /// without [`RunControl::exchange`].
    pub sink: Option<&'c dyn FrontierSink<M, S>>,
    /// Disk spill tier: with this set and `max_live_chunks` capped, a
    /// sender hitting the cap evicts its destination's chunk list to a
    /// per-run temp file instead of growing in place, and over-cap
    /// frontiers are evicted at superstep boundaries and re-admitted when
    /// their superstep runs. Ignored (spill disabled) under a remote
    /// [`RunControl::exchange`], whose frontier already lives off-worker.
    pub spill: Option<SpillControl<'c, M>>,
    /// Structured-trace sink. Events fire at barrier granularity only
    /// (one per superstep, plus rare degradations), so the hot expand
    /// loop never sees a tracing branch. Payloads carry only
    /// schedule-independent counters, keeping seeded event streams
    /// deterministic under the sim executor.
    pub tracer: Option<&'c psgl_obs::Tracer>,
}

impl<M, S, A> Default for RunControl<'_, M, S, A> {
    fn default() -> Self {
        RunControl {
            cancel: None,
            checkpoint: false,
            resume: None,
            exchange: None,
            sink: None,
            spill: None,
            tracer: None,
        }
    }
}

/// Per-worker scratch retained across supersteps so the hot loop reuses
/// buffers instead of reallocating them.
struct WorkerScratch<M> {
    /// Gather buffer: inbox parts are drained here in delivery order and
    /// stably sorted by destination vertex; `compute` reads each vertex's
    /// run of messages straight out of it.
    sort_buf: Vec<(VertexId, M)>,
    /// Per-vertex message batch handed to `compute`.
    batch: Vec<M>,
}

impl<M> WorkerScratch<M> {
    fn new() -> Self {
        WorkerScratch { sort_buf: Vec::new(), batch: Vec::new() }
    }
}

/// What [`run_controlled`] yields: a typed outcome (complete or
/// cancelled) over the program's associated types, or an engine error.
pub type ControlledResult<P> = Result<
    RunOutcome<
        <P as VertexProgram>::Message,
        <P as VertexProgram>::WorkerState,
        <P as VertexProgram>::Aggregate,
    >,
    BspError,
>;

/// Runs `program` over vertices `0..num_vertices` partitioned by
/// `partitioner`, until no messages remain in flight or `control` stops
/// the run — the crate's one entry point.
///
/// Each superstep is one task per worker on `executor`: drain the inbox
/// (resident chunks and spilled segments, in delivery order), group it by
/// vertex, and call `compute` once per vertex with all its messages. The
/// engine is deterministic for deterministic programs: each inbox is
/// assembled in source-worker order (the local fast path slotting in at
/// the sender's own position) and grouped with a stable sort. Semantics
/// are identical for every executor that upholds the contract in
/// [`crate::exec`]; only schedule-dependent observables (per-worker wall
/// time, which sends met a capped pool) may differ.
///
/// The token is polled at every superstep barrier and every few message
/// batches inside `compute`. A *hard* cancel (explicit request,
/// disconnect, or a wall-clock deadline without checkpointing) aborts
/// workers mid-superstep and reports [`CancelledRun`] with no frontier; a
/// *soft* cancel (deadline with checkpointing, superstep deadline, or
/// message budget with checkpointing) acts only at a barrier, where the
/// complete undelivered frontier is captured for exact resume. Every
/// terminal path — completion, cancellation, or error — returns all
/// pooled chunks first; the get/put balance assert covers them all.
pub fn run_controlled<P: VertexProgram>(
    num_vertices: usize,
    partitioner: &HashPartitioner,
    program: &P,
    config: &BspConfig,
    executor: &dyn Executor,
    control: RunControl<'_, P::Message, P::WorkerState, P::Aggregate>,
) -> ControlledResult<P> {
    let k = partitioner.workers();
    let start = Instant::now();
    let pool: ChunkPool<P::Message> =
        ChunkPool::with_limit(config.chunk_capacity, config.max_live_chunks);
    let mut metrics = EngineMetrics::default();
    let RunControl { cancel, checkpoint, resume, exchange, sink, spill, tracer } = control;
    // Under a remote exchange the frontier lives off-worker between
    // supersteps already; the local spill tier is disabled.
    let spill = if exchange.is_some() { None } else { spill };
    // The global partition ids this engine instance hosts. Without a
    // remote exchange every partition is local and `slot == partition`;
    // with one, `slot` indexes this process's arrays while partition ids
    // stay global (the `Context` fast path and remote routing key off the
    // global id).
    let locals: Vec<usize> = match exchange {
        Some(x) => {
            assert_eq!(
                x.num_partitions(),
                k,
                "exchange partition count must match the partitioner"
            );
            let locals = x.local_partitions();
            assert!(!locals.is_empty(), "exchange must host at least one partition");
            assert!(
                locals.windows(2).all(|w| w[0] < w[1]) && locals.iter().all(|&p| p < k),
                "local partitions must be ascending and in range"
            );
            locals
        }
        None => (0..k).collect(),
    };
    let l = locals.len();
    let (mut states, mut inboxes, mut superstep, mut merged_aggregate) = match resume {
        Some(rp) => {
            assert_eq!(
                rp.worker_states.len(),
                l,
                "resume point was captured with {} workers",
                rp.worker_states.len()
            );
            assert_eq!(rp.frontier.len(), l, "resume frontier must cover every local partition");
            metrics.supersteps = rp.prior_supersteps;
            metrics.carried = rp.carried;
            // Re-chunk the flattened frontier in delivery order; each
            // worker flattens and stably re-sorts its inbox anyway, so
            // chunk boundaries need not match the original run's.
            let inboxes: Vec<Vec<InboxPart<P::Message>>> = rp
                .frontier
                .into_iter()
                .map(|tuples| {
                    chunk_tuples(&pool, tuples).into_iter().map(InboxPart::Chunk).collect()
                })
                .collect();
            (rp.worker_states, inboxes, rp.superstep, rp.aggregate)
        }
        None => {
            let states: Vec<P::WorkerState> =
                locals.iter().map(|&w| program.create_worker_state(w)).collect();
            (states, (0..l).map(|_| Vec::new()).collect(), 0, P::Aggregate::default())
        }
    };
    // Owned vertex lists for superstep 0, one per local partition slot.
    let owned: Vec<Vec<VertexId>> = partitioner.owned_vertices(num_vertices, &locals);
    let mut scratches: Vec<WorkerScratch<P::Message>> =
        (0..l).map(|_| WorkerScratch::new()).collect();
    // Spill-counter baselines for per-superstep deltas: the store may be
    // shared across slices of one logical run, so deltas start from its
    // current totals rather than zero.
    let mut spill_stall_seen = spill.map_or(0, |sp| sp.store.stall_nanos());
    let mut spill_chunks_seen = spill.map_or(0, |sp| sp.store.spilled_chunks());
    let mut readmitted_seen = spill.map_or(0, |sp| sp.store.readmitted());
    let mut write_failures_seen = spill.map_or(0, |sp| sp.store.write_failures());
    loop {
        if superstep >= config.max_supersteps {
            release_all(&pool, inboxes, spill);
            debug_assert_balanced(&pool);
            return Err(BspError::SuperstepLimitExceeded(superstep));
        }
        // `None` after the superstep means the worker's task panicked; an
        // `Err` is a spilled segment it could not re-admit.
        let mut worker_results: Vec<Option<WorkerResult<P>>> = (0..l).map(|_| None).collect();
        // Every chunk-holding buffer a worker touches lives in an
        // engine-owned slot rather than a closure local: its inbox and its
        // outboxes. An unwinding worker therefore cannot strand acquired
        // chunks — whatever it held stays reachable and `abort_cleanup`
        // returns it to the pool. Remote outboxes stay `k` wide (global
        // destinations) even under partial ownership.
        let mut outboxes: Vec<WorkerOutbox<P::Message>> =
            (0..l).map(|_| ((0..k).map(|_| Vec::new()).collect(), Vec::new())).collect();
        // Sender-side spill segments, parallel to the outboxes: per-slot
        // (per-remote-destination lists, local fast path list). Engine-
        // owned for the same unwind-safety reason as the outboxes.
        let mut spill_outs: Vec<(Vec<Vec<SpillSegment>>, Vec<SpillSegment>)> =
            (0..l).map(|_| ((0..k).map(|_| Vec::new()).collect(), Vec::new())).collect();
        let prev_aggregate = &merged_aggregate;
        let poll = CancelPoll { token: cancel, hard_deadline: !checkpoint };
        let mut tasks: Vec<WorkerTask<'_>> = Vec::with_capacity(l);
        for ((((((slot, state), inbox), scratch), result_slot), outbox), spill_out) in states
            .iter_mut()
            .enumerate()
            .zip(inboxes.iter_mut())
            .zip(scratches.iter_mut())
            .zip(worker_results.iter_mut())
            .zip(outboxes.iter_mut())
            .zip(spill_outs.iter_mut())
        {
            let worker = locals[slot];
            let owned = &owned[slot];
            let pool = &pool;
            // Panics are trapped inside the task (tasks never unwind, per
            // the executor contract), so a crashing worker cannot strand
            // the others.
            let run = Box::new(move || {
                *result_slot = catch_unwind(AssertUnwindSafe(|| {
                    run_worker::<P>(
                        program,
                        state,
                        worker,
                        superstep,
                        partitioner,
                        owned,
                        pool,
                        inbox,
                        scratch,
                        prev_aggregate,
                        outbox,
                        poll,
                        spill,
                        spill_out,
                    )
                }))
                .ok();
            });
            tasks.push(WorkerTask { worker: slot, run });
        }
        executor.run_superstep(superstep, tasks);
        // Scanned in worker order so the first panicking worker is reported.
        if let Some(slot) = worker_results.iter().position(Option::is_none) {
            abort_cleanup(&pool, &mut outboxes, &mut spill_outs, &mut inboxes, spill);
            debug_assert_balanced(&pool);
            return Err(BspError::WorkerPanicked { worker: locals[slot], superstep });
        }
        // A spilled segment that failed to re-admit is unrecoverable: the
        // disk copy was the only copy. Abort cleanly with the typed error.
        let worker_results: Result<Vec<_>, SpillError> =
            worker_results.into_iter().map(|r| r.expect("no worker panicked")).collect();
        let worker_results = match worker_results {
            Ok(results) => results,
            Err(error) => {
                abort_cleanup(&pool, &mut outboxes, &mut spill_outs, &mut inboxes, spill);
                debug_assert_balanced(&pool);
                return Err(BspError::Spill { superstep, error });
            }
        };
        // A hard cancel may have aborted workers mid-superstep: the
        // superstep's partial output is discarded and every chunk —
        // undrained inbox parts, outboxes — goes back to the pool before
        // the outcome is reported.
        if let Some(reason) = hard_cancel_reason(cancel, checkpoint) {
            abort_cleanup(&pool, &mut outboxes, &mut spill_outs, &mut inboxes, spill);
            finalize_metrics(&mut metrics, &pool, spill, start);
            return Ok(RunOutcome::Cancelled(CancelledRun {
                reason,
                superstep,
                frontier: None,
                worker_states: states,
                aggregate: merged_aggregate,
                metrics,
            }));
        }
        // Collect metrics and merge aggregates at the barrier.
        let mut step = SuperstepMetrics {
            workers: Vec::with_capacity(l),
            net: NetSuperstepMetrics::default(),
            spill_stall_nanos: 0,
        };
        let mut next_aggregate = P::Aggregate::default();
        for (wm, agg) in worker_results {
            step.workers.push(wm);
            program.merge_aggregates(&mut next_aggregate, agg);
        }
        merged_aggregate = next_aggregate;
        let mut outs = outboxes;
        for (slot, (remote, _)) in outs.iter().enumerate() {
            debug_assert!(remote[locals[slot]].is_empty(), "self-sends take the local path");
        }
        // Rebuild inboxes. In-process (no exchange seam): chunks move by
        // pointer; each destination receives sources in worker order, with
        // a worker's locally-delivered chunks slotting in at its own
        // source position — the same order a self-send through the
        // exchange would have produced, keeping runs deterministic. The
        // chaos knob `exchange_shuffle_seed` replaces the canonical source
        // order with a seeded per-destination permutation. A remote
        // exchange must uphold the same global source order (see
        // `crate::exchange`) and additionally runs the coordinator
        // barrier, whose directive can checkpoint or abort the run.
        let (mut new_inboxes, in_flight) = match exchange {
            None => {
                let exchange_start = Instant::now();
                let mut spill_outs = spill_outs;
                let mut new_inboxes: Vec<Vec<InboxPart<P::Message>>> =
                    (0..k).map(|_| Vec::new()).collect();
                for (dest, new_inbox) in new_inboxes.iter_mut().enumerate() {
                    for src in source_order(k, superstep, dest, config.exchange_shuffle_seed) {
                        let (segs, chunks) = if src == dest {
                            (&mut spill_outs[src].1, &mut outs[src].1)
                        } else {
                            (&mut spill_outs[src].0[dest], &mut outs[src].0[dest])
                        };
                        // A sender-side segment always holds a *prefix* of
                        // its (src → dest) stream: spilling drains the
                        // whole resident list, so surviving chunks are
                        // strictly newer than every segment.
                        for seg in segs.drain(..) {
                            new_inbox.push(InboxPart::Spilled(seg));
                        }
                        for c in chunks.drain(..) {
                            new_inbox.push(InboxPart::Chunk(c));
                        }
                    }
                }
                let in_flight: u64 =
                    new_inboxes.iter().flat_map(|b| b.iter()).map(part_tuples).sum();
                step.net.exchange_nanos = exchange_start.elapsed().as_nanos() as u64;
                (new_inboxes, in_flight)
            }
            Some(x) => {
                debug_assert!(
                    spill_outs.iter().all(|(r, l)| l.is_empty() && r.iter().all(Vec::is_empty)),
                    "spill is disabled under a remote exchange"
                );
                let exchange_start = Instant::now();
                let outcome = match x.exchange(superstep, &pool, outs, &step) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        // The exchange released everything it was handed;
                        // nothing else holds chunks at the barrier.
                        debug_assert_balanced(&pool);
                        return Err(BspError::Exchange { superstep, message: e.message });
                    }
                };
                step.net = outcome.net;
                // The remote exchange spans the coordinator barrier; the
                // exchange component is what remains after subtracting the
                // measured barrier wait.
                step.net.exchange_nanos = (exchange_start.elapsed().as_nanos() as u64)
                    .saturating_sub(step.net.barrier_wait_nanos);
                match outcome.directive {
                    ExchangeDirective::Abort(reason) => {
                        release_all(&pool, wrap_resident(outcome.inboxes), spill);
                        metrics.supersteps.push(step);
                        finalize_metrics(&mut metrics, &pool, spill, start);
                        return Ok(RunOutcome::Cancelled(CancelledRun {
                            reason,
                            superstep: superstep + 1,
                            frontier: None,
                            worker_states: states,
                            aggregate: merged_aggregate,
                            metrics,
                        }));
                    }
                    ExchangeDirective::CheckpointAndContinue => {
                        if let Some(sink) = sink {
                            sink.capture(superstep + 1, &states, &outcome.inboxes);
                        }
                    }
                    ExchangeDirective::Continue => {}
                }
                (wrap_resident(outcome.inboxes), outcome.in_flight)
            }
        };
        if let Some(sp) = spill {
            let stall = sp.store.stall_nanos();
            step.spill_stall_nanos = stall - spill_stall_seen;
            spill_stall_seen = stall;
        }
        if let Some(t) = tracer {
            let (spilled, readmitted, write_failures) = match spill {
                Some(sp) => {
                    let (s, r, w) = (
                        sp.store.spilled_chunks(),
                        sp.store.readmitted(),
                        sp.store.write_failures(),
                    );
                    let d = (s - spill_chunks_seen, r - readmitted_seen, w - write_failures_seen);
                    (spill_chunks_seen, readmitted_seen, write_failures_seen) = (s, r, w);
                    d
                }
                None => (0, 0, 0),
            };
            t.event(
                "superstep",
                &[
                    ("superstep", TraceValue::U64(superstep as u64)),
                    ("messages_out", TraceValue::U64(step.messages_out())),
                    ("in_flight", TraceValue::U64(in_flight)),
                    ("spilled_chunks", TraceValue::U64(spilled)),
                    ("readmitted_chunks", TraceValue::U64(readmitted)),
                ],
            );
            if write_failures > 0 {
                t.event(
                    "spill_write_degraded",
                    &[
                        ("superstep", TraceValue::U64(superstep as u64)),
                        ("failures", TraceValue::U64(write_failures)),
                    ],
                );
            }
        }
        metrics.supersteps.push(step);
        if let Some(budget) = config.message_budget {
            if in_flight > budget {
                if checkpoint {
                    // Budget expiry with checkpointing: the frontier that
                    // broke the budget is exactly what a resumed run (with
                    // a higher budget) needs delivered.
                    let frontier = match flatten_frontier(&pool, new_inboxes, spill) {
                        Ok(f) => f,
                        Err(error) => {
                            debug_assert_balanced(&pool);
                            return Err(BspError::Spill { superstep, error });
                        }
                    };
                    finalize_metrics(&mut metrics, &pool, spill, start);
                    return Ok(RunOutcome::Cancelled(CancelledRun {
                        reason: CancelReason::Budget,
                        superstep: superstep + 1,
                        frontier: Some(frontier),
                        worker_states: states,
                        aggregate: merged_aggregate,
                        metrics,
                    }));
                }
                release_all(&pool, new_inboxes, spill);
                debug_assert_balanced(&pool);
                return Err(BspError::MessageBudgetExceeded { superstep, in_flight, budget });
            }
        }
        // Soft cancel: the deterministic superstep deadline, a
        // wall-clock deadline with checkpointing, or the scheduler's
        // preemption barrier. Acts only between supersteps, on a
        // complete frontier; a run that just went idle completes
        // normally instead. A deadline outranks a preemption landing on
        // the same barrier — there is no point yielding a slice the
        // owner would immediately cancel. The preempted frontier is
        // captured regardless of the `checkpoint` flag: preemption is
        // only meaningful if the run can resume.
        if in_flight > 0 {
            if let Some(token) = cancel {
                let deadline_due = token.superstep_deadline().is_some_and(|sd| superstep + 1 >= sd)
                    || (checkpoint && token.deadline_passed());
                let preempt_due =
                    !deadline_due && token.preempt_barrier().is_some_and(|sd| superstep + 1 >= sd);
                if deadline_due || preempt_due {
                    let frontier = if checkpoint || preempt_due {
                        match flatten_frontier(&pool, new_inboxes, spill) {
                            Ok(f) => Some(f),
                            Err(error) => {
                                debug_assert_balanced(&pool);
                                return Err(BspError::Spill { superstep, error });
                            }
                        }
                    } else {
                        release_all(&pool, new_inboxes, spill);
                        None
                    };
                    finalize_metrics(&mut metrics, &pool, spill, start);
                    return Ok(RunOutcome::Cancelled(CancelledRun {
                        reason: if preempt_due {
                            CancelReason::Preempted
                        } else {
                            CancelReason::Deadline
                        },
                        superstep: superstep + 1,
                        frontier,
                        worker_states: states,
                        aggregate: merged_aggregate,
                        metrics,
                    }));
                }
            }
        }
        if in_flight == 0 {
            break;
        }
        // Barrier eviction: the freshly exchanged frontier is the coldest
        // data in the engine — nothing touches it until the next
        // superstep's workers drain it — so while the pool sits over its
        // live-chunk cap, encode runs of resident frontier chunks to disk
        // and release them. Re-admission happens in `run_worker`, in
        // delivery order, with zero pool acquisitions.
        if let (Some(sp), Some(cap)) = (spill, config.max_live_chunks) {
            evict_frontier(&pool, sp, &mut new_inboxes, cap as i64);
        }
        inboxes = new_inboxes;
        superstep += 1;
    }
    finalize_metrics(&mut metrics, &pool, spill, start);
    // The debug-build assertion above, promoted: a clean completion with
    // unreleased chunks is a leak, and chaos sweeps run in release mode.
    let outstanding = pool.outstanding();
    if outstanding != 0 {
        return Err(BspError::ChunkLeak { outstanding });
    }
    Ok(RunOutcome::Complete(BspResult {
        worker_states: states,
        final_aggregate: merged_aggregate,
        metrics,
    }))
}

/// Worker-side cancellation poll: cheap enough to run every few message
/// batches. Hard triggers only — soft cancels act at the barrier where a
/// consistent frontier exists.
#[derive(Clone, Copy)]
struct CancelPoll<'a> {
    token: Option<&'a CancelToken>,
    /// Whether a passed wall-clock deadline aborts mid-superstep (no
    /// checkpointing) or waits for the barrier (checkpointing).
    hard_deadline: bool,
}

impl CancelPoll<'_> {
    #[inline]
    fn should_abort(&self) -> bool {
        match self.token {
            None => false,
            Some(t) => t.is_cancelled() || (self.hard_deadline && t.deadline_passed()),
        }
    }
}

/// The hard-cancel triggers checked at the barrier: an explicit cancel
/// (any reason), or a passed wall-clock deadline without checkpointing.
fn hard_cancel_reason(cancel: Option<&CancelToken>, checkpoint: bool) -> Option<CancelReason> {
    let token = cancel?;
    if token.is_cancelled() {
        return Some(token.reason().unwrap_or(CancelReason::Explicit));
    }
    if !checkpoint && token.deadline_passed() {
        return Some(CancelReason::Deadline);
    }
    None
}

/// Drains every chunk still held anywhere in the superstep's machinery
/// back to the pool: outboxes and any inbox parts a worker never drained
/// (panic, failed re-admission, hard cancel). Spill segments (inbox parts
/// and sender-side side tables) are discarded — their blobs are deleted
/// now when a store is at hand, and the store's directory guard sweeps
/// anything this misses.
fn abort_cleanup<M>(
    pool: &ChunkPool<M>,
    outboxes: &mut [WorkerOutbox<M>],
    spill_outs: &mut [(Vec<Vec<SpillSegment>>, Vec<SpillSegment>)],
    inboxes: &mut [Vec<InboxPart<M>>],
    spill: Option<SpillControl<'_, M>>,
) {
    for (remote, local) in outboxes.iter_mut() {
        for dest in remote.iter_mut() {
            for c in dest.drain(..) {
                pool.release(c);
            }
        }
        for c in local.drain(..) {
            pool.release(c);
        }
    }
    for (remote, local) in spill_outs.iter_mut() {
        for seg in remote.iter_mut().flat_map(|d| d.drain(..)).chain(local.drain(..)) {
            discard_segment(seg, spill);
        }
    }
    for inbox in inboxes.iter_mut() {
        // Consumed entries are zero-capacity placeholders; `release`
        // ignores those.
        for part in inbox.drain(..) {
            match part {
                InboxPart::Chunk(c) => pool.release(c),
                InboxPart::Spilled(seg) => discard_segment(seg, spill),
            }
        }
    }
}

/// Deletes an unconsumed segment's blob when a store is available;
/// otherwise the directory guard deletes it with the store.
fn discard_segment<M>(seg: SpillSegment, spill: Option<SpillControl<'_, M>>) {
    if let Some(sp) = spill {
        sp.store.discard(seg);
    }
}

/// Releases every chunk and discards every segment of a set of inboxes
/// (abort paths).
fn release_all<M>(
    pool: &ChunkPool<M>,
    boxes: Vec<Vec<InboxPart<M>>>,
    spill: Option<SpillControl<'_, M>>,
) {
    for inbox in boxes {
        for part in inbox {
            match part {
                InboxPart::Chunk(c) => pool.release(c),
                InboxPart::Spilled(seg) => discard_segment(seg, spill),
            }
        }
    }
}

/// Wraps exchange-delivered inboxes (always resident) as inbox parts.
fn wrap_resident<M>(boxes: Vec<Vec<Chunk<M>>>) -> Vec<Vec<InboxPart<M>>> {
    boxes.into_iter().map(|chunks| chunks.into_iter().map(InboxPart::Chunk).collect()).collect()
}

/// Flattens freshly-exchanged inboxes into per-destination tuple runs
/// (delivery order preserved), releasing resident chunks and re-admitting
/// spilled segments — the checkpointable frontier. On a re-admission
/// failure every remaining chunk is still released (the pool stays
/// balanced) and the typed error is reported after the sweep.
fn flatten_frontier<M>(
    pool: &ChunkPool<M>,
    boxes: Vec<Vec<InboxPart<M>>>,
    spill: Option<SpillControl<'_, M>>,
) -> Result<Vec<Vec<(VertexId, M)>>, SpillError> {
    let mut failed: Option<SpillError> = None;
    let flat = boxes
        .into_iter()
        .map(|parts| {
            let mut tuples = Vec::new();
            for part in parts {
                match part {
                    InboxPart::Chunk(mut c) => {
                        tuples.append(&mut c);
                        pool.release(c);
                    }
                    // When already failing (or with no store) the segment
                    // is just dropped; the directory guard deletes the blob.
                    InboxPart::Spilled(seg) => {
                        if let (true, Some(sp)) = (failed.is_none(), spill) {
                            if let Err(e) = sp.store.readmit(sp.codec, seg, &mut tuples) {
                                failed = Some(e);
                            }
                        }
                    }
                }
            }
            tuples
        })
        .collect();
    match failed {
        None => Ok(flat),
        Some(e) => Err(e),
    }
}

/// Superstep-boundary eviction: while the pool is over its live-chunk
/// cap, encode contiguous runs of resident frontier chunks into spill
/// segments — replaced in place, so delivery order is untouched — and
/// release the chunks. Walks destinations and each destination's parts
/// in delivery order (oldest first): at a barrier the whole frontier is
/// equally cold, and oldest-first makes eviction deterministic and
/// sequential on disk. A write failure stops eviction entirely: the
/// frontier stays resident (degraded, never wrong).
fn evict_frontier<M>(
    pool: &ChunkPool<M>,
    sp: SpillControl<'_, M>,
    inboxes: &mut [Vec<InboxPart<M>>],
    cap: i64,
) {
    for inbox in inboxes.iter_mut() {
        let mut i = 0;
        while i < inbox.len() {
            if pool.outstanding() <= cap {
                return;
            }
            if !matches!(&inbox[i], InboxPart::Chunk(c) if !c.is_empty()) {
                i += 1;
                continue;
            }
            // Collect the contiguous run of non-empty resident chunks
            // starting at `i`; taken slots become zero-capacity
            // placeholders that drain harmlessly later.
            let mut run: Vec<Chunk<M>> = Vec::new();
            let mut j = i;
            while j < inbox.len() {
                match &inbox[j] {
                    InboxPart::Chunk(c) if !c.is_empty() => {
                        let InboxPart::Chunk(c) = std::mem::take(&mut inbox[j]) else {
                            unreachable!("matched a resident chunk above")
                        };
                        run.push(c);
                        j += 1;
                    }
                    _ => break,
                }
            }
            match sp.store.spill(sp.codec, &run) {
                Ok(seg) => {
                    for c in run {
                        pool.release(c);
                    }
                    inbox[i] = InboxPart::Spilled(seg);
                    i = j;
                }
                Err(_) => {
                    // Degradable write failure: restore the run and keep
                    // the whole frontier resident.
                    for (off, c) in run.into_iter().enumerate() {
                        inbox[i + off] = InboxPart::Chunk(c);
                    }
                    return;
                }
            }
        }
    }
}

/// Rebuilds inbox chunks from a flattened frontier on resume.
fn chunk_tuples<M>(pool: &ChunkPool<M>, tuples: Vec<(VertexId, M)>) -> Vec<Chunk<M>> {
    let mut chunks = Vec::new();
    for (v, m) in tuples {
        push_chunked(pool, &mut chunks, v, m);
    }
    chunks
}

/// Finalizes run-level metrics and asserts the pool's get/put balance —
/// called exactly once, on *every* outcome that reports metrics (complete
/// or cancelled). `metrics.carried` holds the resumed prefix's counters
/// (zero on a fresh run); this slice's are added on top.
fn finalize_metrics<M>(
    metrics: &mut EngineMetrics,
    pool: &ChunkPool<M>,
    spill: Option<SpillControl<'_, M>>,
    start: Instant,
) {
    metrics.chunk_allocations = pool.fresh_allocations();
    metrics.chunk_reuses = pool.reuses();
    metrics.chunks_outstanding = pool.outstanding();
    let c = &mut metrics.carried;
    c.pool_exhausted += pool.exhausted_events();
    c.chunks_live_peak = c.chunks_live_peak.max(pool.peak_outstanding().max(0) as u64);
    if let Some(sp) = spill {
        c.spill_chunks += sp.store.spilled_chunks();
        c.spill_bytes += sp.store.spilled_bytes();
        c.spill_stall_nanos += sp.store.stall_nanos();
        c.readmitted_chunks += sp.store.readmitted();
        c.spill_write_failures += sp.store.write_failures();
    }
    debug_assert_balanced(pool);
    metrics.wall_time = start.elapsed();
}

/// Pool get/put balance: every chunk acquired over the run must have been
/// released by the time the engine reports *any* terminal outcome —
/// completion, cancellation, worker panic, budget abort, or the superstep
/// limit.
fn debug_assert_balanced<M>(pool: &ChunkPool<M>) {
    debug_assert_eq!(
        pool.outstanding(),
        0,
        "chunk pool get/put imbalance at engine shutdown (leak)"
    );
}

/// The order in which destination `dest` consumes source workers during
/// the exchange after `superstep`: canonical `0..k`, or — under the
/// `exchange_shuffle_seed` chaos knob — a seeded Fisher–Yates permutation
/// that differs per `(superstep, dest)` but is fully reproducible.
fn source_order(k: usize, superstep: u32, dest: usize, shuffle: Option<u64>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    if let Some(seed) = shuffle {
        let mut s = seed ^ ((superstep as u64) << 32) ^ (dest as u64).wrapping_mul(0x9E37_79B9);
        for i in (1..k).rev() {
            s = splitmix64(s);
            let j = (s % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// SplitMix64 step — a tiny, dependency-free PRNG for the exchange
/// shuffle (statistical quality is irrelevant here; reproducibility is
/// everything).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one worker's superstep task yields: its metrics and aggregate
/// contribution, or the spilled inbox segment it failed to re-admit.
type WorkerResult<P> =
    Result<(WorkerSuperstepMetrics, <P as VertexProgram>::Aggregate), SpillError>;

/// Executes one worker for one superstep, filling the engine-owned
/// `outbox` in place. Superstep 0 runs `compute` on every owned vertex;
/// later supersteps drain `inbox` (resident chunks and spilled segments,
/// in delivery order) into the retained sort buffer, stably sort it by
/// destination vertex, and call `compute` once per vertex with its run of
/// messages. Polls for a hard cancel every 32 `compute` calls.
///
/// The inbox is consumed in place (entries become zero-capacity
/// placeholders) and drained chunks go straight back to the pool, so a
/// panic or a failed re-admission anywhere in here leaves every
/// still-acquired chunk reachable for [`abort_cleanup`].
#[allow(clippy::too_many_arguments)]
fn run_worker<P: VertexProgram>(
    program: &P,
    state: &mut P::WorkerState,
    // The global partition id (routing, `Context::worker`).
    worker: usize,
    superstep: u32,
    partitioner: &HashPartitioner,
    owned: &[VertexId],
    pool: &ChunkPool<P::Message>,
    inbox: &mut Vec<InboxPart<P::Message>>,
    scratch: &mut WorkerScratch<P::Message>,
    prev_aggregate: &P::Aggregate,
    outbox: &mut WorkerOutbox<P::Message>,
    poll: CancelPoll<'_>,
    spill: Option<SpillControl<'_, P::Message>>,
    spill_out: &mut (Vec<Vec<SpillSegment>>, Vec<SpillSegment>),
) -> WorkerResult<P> {
    let started = Instant::now();
    let WorkerScratch { sort_buf, batch } = scratch;
    let (remote, local) = outbox;
    let (spill_remote, spill_local) = spill_out;
    let mut local_aggregate = P::Aggregate::default();
    let mut ctx = Context {
        superstep,
        worker,
        partitioner,
        pool,
        remote: &mut remote[..],
        local,
        spill,
        spill_remote: &mut spill_remote[..],
        spill_local,
        cost: 0,
        messages_out: 0,
        local_delivered: 0,
        prev_aggregate,
        local_aggregate: &mut local_aggregate,
    };
    let mut active_vertices = 0u64;
    let mut messages_in = 0u64;
    if superstep == 0 {
        for (i, &v) in owned.iter().enumerate() {
            if i & 31 == 0 && poll.should_abort() {
                break;
            }
            active_vertices += 1;
            batch.clear();
            program.compute(&mut ctx, state, v, batch);
        }
    } else if !poll.should_abort() {
        sort_buf.clear();
        for part in inbox.iter_mut() {
            match std::mem::take(part) {
                InboxPart::Chunk(mut c) => {
                    sort_buf.append(&mut c);
                    pool.release(c);
                }
                InboxPart::Spilled(seg) => {
                    let sp = spill.expect("spilled inbox part without a spill store");
                    sp.store.readmit(sp.codec, seg, sort_buf)?;
                }
            }
        }
        inbox.clear();
        sort_buf.sort_by_key(|(v, _)| *v);
        messages_in = sort_buf.len() as u64;
        let mut it = sort_buf.drain(..).peekable();
        while let Some((v, first)) = it.next() {
            if active_vertices & 31 == 31 && poll.should_abort() {
                break;
            }
            batch.clear();
            batch.push(first);
            while it.peek().is_some_and(|(u, _)| *u == v) {
                batch.push(it.next().expect("peeked").1);
            }
            active_vertices += 1;
            program.compute(&mut ctx, state, v, batch);
        }
    }
    let tuple_bytes = std::mem::size_of::<(VertexId, P::Message)>() as u64;
    let wm = WorkerSuperstepMetrics {
        active_vertices,
        messages_in,
        messages_out: ctx.messages_out,
        local_delivered: ctx.local_delivered,
        bytes_exchanged: (ctx.messages_out - ctx.local_delivered) * tuple_bytes,
        cost: ctx.cost,
        elapsed_nanos: started.elapsed().as_nanos() as u64,
    };
    Ok((wm, local_aggregate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SerialExecutor, ThreadExecutor};
    use parking_lot::Mutex;
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_graph::DataGraph;

    /// [`run_controlled`] with no controls, which nothing can cancel.
    pub(super) fn run_with_executor<P: VertexProgram>(
        num_vertices: usize,
        partitioner: &HashPartitioner,
        program: &P,
        config: &BspConfig,
        executor: &dyn Executor,
    ) -> Result<BspResult<P::WorkerState, P::Aggregate>, BspError> {
        let control = RunControl::default();
        match run_controlled(num_vertices, partitioner, program, config, executor, control)? {
            RunOutcome::Complete(res) => Ok(res),
            RunOutcome::Cancelled(_) => unreachable!("no cancel token was supplied"),
        }
    }

    pub(super) fn run<P: VertexProgram>(
        num_vertices: usize,
        partitioner: &HashPartitioner,
        program: &P,
        config: &BspConfig,
    ) -> Result<BspResult<P::WorkerState, P::Aggregate>, BspError> {
        run_with_executor(num_vertices, partitioner, program, config, &ThreadExecutor)
    }

    /// Min-label propagation: every vertex learns the smallest vertex id in
    /// its connected component. Exercises multi-superstep messaging.
    struct MinLabel<'g> {
        graph: &'g DataGraph,
        labels: Mutex<Vec<VertexId>>,
    }

    impl VertexProgram for MinLabel<'_> {
        type Message = VertexId;
        type WorkerState = ();
        type Aggregate = ();

        fn create_worker_state(&self, _worker: usize) {}

        fn compute(
            &self,
            ctx: &mut Context<'_, VertexId>,
            _state: &mut (),
            vertex: VertexId,
            messages: &mut Vec<VertexId>,
        ) {
            ctx.add_cost(1 + messages.len() as u64);
            let current = self.labels.lock()[vertex as usize];
            let best = messages.drain(..).min().map_or(current, |m| m.min(current));
            let improved = best < current || ctx.superstep() == 0;
            if best < current {
                self.labels.lock()[vertex as usize] = best;
            }
            if improved {
                for &n in self.graph.neighbors(vertex) {
                    ctx.send(n, best);
                }
            }
        }
    }

    fn run_min_label(g: &DataGraph, workers: usize) -> Vec<VertexId> {
        let prog = MinLabel { graph: g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(workers);
        let res = run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap();
        assert_eq!(res.worker_states.len(), workers);
        prog.labels.into_inner()
    }

    fn run_min_label_with(
        g: &DataGraph,
        workers: usize,
        config: &BspConfig,
        executor: &dyn Executor,
    ) -> Vec<VertexId> {
        let prog = MinLabel { graph: g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(workers);
        run_with_executor(g.num_vertices(), &p, &prog, config, executor).unwrap();
        prog.labels.into_inner()
    }

    #[test]
    fn min_label_converges_on_two_components() {
        // Two triangles: {0,1,2} and {3,4,5}.
        let g =
            DataGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let labels = run_min_label(&g, 3);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn min_label_matches_across_worker_counts() {
        let g = erdos_renyi_gnm(200, 300, 9).unwrap();
        let base = run_min_label(&g, 1);
        for k in [2, 4, 7] {
            assert_eq!(run_min_label(&g, k), base, "worker count {k}");
        }
    }

    #[test]
    fn serial_executor_matches_threaded_run() {
        let g = erdos_renyi_gnm(150, 250, 5).unwrap();
        let base = run_min_label(&g, 3);
        let serial = run_min_label_with(&g, 3, &BspConfig::default(), &SerialExecutor);
        assert_eq!(serial, base);
    }

    #[test]
    fn exchange_shuffle_preserves_results() {
        let g = erdos_renyi_gnm(150, 250, 5).unwrap();
        let base = run_min_label(&g, 4);
        for seed in [1u64, 7, 42] {
            let config = BspConfig { exchange_shuffle_seed: Some(seed), ..Default::default() };
            assert_eq!(
                run_min_label_with(&g, 4, &config, &ThreadExecutor),
                base,
                "shuffle seed {seed}"
            );
        }
    }

    #[test]
    fn capped_pool_degrades_but_stays_correct() {
        let g = erdos_renyi_gnm(150, 250, 5).unwrap();
        let base = run_min_label(&g, 3);
        let config =
            BspConfig { chunk_capacity: 4, max_live_chunks: Some(2), ..Default::default() };
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let res = run(g.num_vertices(), &p, &prog, &config).unwrap();
        assert_eq!(prog.labels.into_inner(), base);
        assert!(res.metrics.carried.pool_exhausted > 0, "the tiny cap must be hit");
        assert_eq!(res.metrics.chunks_outstanding, 0, "clean shutdown releases every chunk");
    }

    #[test]
    fn uncapped_pool_reports_no_exhaustion() {
        let g = erdos_renyi_gnm(100, 150, 3).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(2);
        let res = run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap();
        assert_eq!(res.metrics.carried.pool_exhausted, 0);
        assert_eq!(res.metrics.chunks_outstanding, 0);
    }

    #[test]
    fn metrics_account_every_message() {
        let g = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(2);
        let res = run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap();
        let m = &res.metrics;
        assert!(m.superstep_count() >= 2);
        // Messages consumed in superstep s+1 == messages produced in s.
        for s in 0..m.superstep_count() - 1 {
            let out: u64 = m.supersteps[s].workers.iter().map(|w| w.messages_out).sum();
            let consumed: u64 = m.supersteps[s + 1].workers.iter().map(|w| w.messages_in).sum();
            assert_eq!(out, consumed, "superstep {s}");
        }
        // Final superstep emits nothing.
        assert_eq!(m.supersteps.last().unwrap().messages_out(), 0);
        assert!(m.simulated_makespan() > 0);
        assert!(m.total_cost() >= m.simulated_makespan());
    }

    #[test]
    fn local_delivery_ratio_is_one_on_a_single_worker() {
        let g = erdos_renyi_gnm(100, 200, 11).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(1);
        let res = run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap();
        let m = &res.metrics;
        assert!(m.total_messages() > 0);
        assert_eq!(m.total_local_delivered(), m.total_messages());
        assert_eq!(m.local_delivery_ratio(), 1.0);
        assert_eq!(m.total_bytes_exchanged(), 0);
    }

    #[test]
    fn local_and_remote_traffic_partition_the_message_count() {
        let g = erdos_renyi_gnm(200, 400, 7).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let res = run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap();
        let m = &res.metrics;
        let local = m.total_local_delivered();
        assert!(local > 0, "a 3-way partition keeps some edges worker-local");
        assert!(local < m.total_messages(), "and cuts some edges");
        let tuple = std::mem::size_of::<(VertexId, VertexId)>() as u64;
        assert_eq!(m.total_bytes_exchanged(), (m.total_messages() - local) * tuple);
        let ratio = m.local_delivery_ratio();
        assert!(ratio > 0.0 && ratio < 1.0, "ratio {ratio}");
    }

    #[test]
    fn chunk_pool_recycles_across_supersteps() {
        // A long path needs ~n supersteps, so later supersteps run
        // entirely on recycled chunks.
        let edges: Vec<_> = (0..19u32).map(|v| (v, v + 1)).collect();
        let g = DataGraph::from_edges(20, &edges).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(2);
        let res = run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap();
        assert!(res.metrics.chunk_allocations > 0);
        assert!(res.metrics.allocations_avoided() > 0, "supersteps should reuse pooled chunks");
    }

    /// A program that floods `fanout` messages from every vertex once.
    struct Flood {
        fanout: usize,
        n: usize,
    }

    impl VertexProgram for Flood {
        type Message = u8;
        type WorkerState = u64;
        type Aggregate = ();

        fn create_worker_state(&self, _worker: usize) -> u64 {
            0
        }

        fn compute(
            &self,
            ctx: &mut Context<'_, u8>,
            state: &mut u64,
            v: VertexId,
            msgs: &mut Vec<u8>,
        ) {
            *state += msgs.len() as u64;
            if ctx.superstep() == 0 {
                for i in 0..self.fanout {
                    ctx.send(((v as usize + i + 1) % self.n) as VertexId, 0);
                }
            }
        }
    }

    #[test]
    fn message_budget_triggers_simulated_oom() {
        let prog = Flood { fanout: 10, n: 100 };
        let p = HashPartitioner::new(4);
        let config = BspConfig { message_budget: Some(500), ..Default::default() };
        match run(100, &p, &prog, &config) {
            Err(BspError::MessageBudgetExceeded { superstep: 0, in_flight: 1000, budget: 500 }) => {
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        // A budget that fits succeeds and delivers all messages.
        let config = BspConfig { message_budget: Some(1000), ..Default::default() };
        let res = run(100, &p, &prog, &config).unwrap();
        assert_eq!(res.worker_states.iter().sum::<u64>(), 1000);
    }

    struct Panicker;

    impl VertexProgram for Panicker {
        type Message = ();
        type WorkerState = ();
        type Aggregate = ();

        fn create_worker_state(&self, _w: usize) {}

        fn compute(&self, _ctx: &mut Context<'_, ()>, _s: &mut (), v: VertexId, _m: &mut Vec<()>) {
            if v == 13 {
                panic!("boom");
            }
        }
    }

    #[test]
    fn worker_panic_is_contained() {
        let p = HashPartitioner::new(3);
        match run(20, &p, &Panicker, &BspConfig::default()) {
            Err(BspError::WorkerPanicked { superstep: 0, worker }) => {
                assert_eq!(worker, p.owner(13));
            }
            other => panic!("expected panic containment, got {other:?}"),
        }
    }

    #[test]
    fn worker_panic_is_contained_under_serial_executor() {
        let p = HashPartitioner::new(3);
        match run_with_executor(20, &p, &Panicker, &BspConfig::default(), &SerialExecutor) {
            Err(BspError::WorkerPanicked { superstep: 0, worker }) => {
                assert_eq!(worker, p.owner(13));
            }
            other => panic!("expected panic containment, got {other:?}"),
        }
    }

    /// Endless ping-pong between vertices 0 and 1.
    struct PingPong;

    impl VertexProgram for PingPong {
        type Message = ();
        type WorkerState = ();
        type Aggregate = ();

        fn create_worker_state(&self, _w: usize) {}

        fn compute(&self, ctx: &mut Context<'_, ()>, _s: &mut (), v: VertexId, _m: &mut Vec<()>) {
            if v < 2 {
                ctx.send(1 - v, ());
            }
        }
    }

    #[test]
    fn superstep_limit_stops_runaway_programs() {
        let p = HashPartitioner::new(2);
        let config = BspConfig { max_supersteps: 5, ..Default::default() };
        assert!(matches!(run(2, &p, &PingPong, &config), Err(BspError::SuperstepLimitExceeded(5))));
    }

    #[test]
    fn empty_vertex_set_halts_immediately() {
        let p = HashPartitioner::new(2);
        let res = run(0, &p, &Panicker, &BspConfig::default()).unwrap();
        assert_eq!(res.metrics.superstep_count(), 1);
        assert_eq!(res.metrics.total_messages(), 0);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BspError::MessageBudgetExceeded { superstep: 2, in_flight: 10, budget: 5 };
        assert!(e.to_string().contains("out of memory"));
        let e = BspError::WorkerPanicked { worker: 3, superstep: 1 };
        assert!(e.to_string().contains("worker 3"));
    }

    fn controlled<'c, P: VertexProgram>(
        n: usize,
        p: &HashPartitioner,
        prog: &P,
        config: &BspConfig,
        control: RunControl<'c, P::Message, P::WorkerState, P::Aggregate>,
    ) -> RunOutcome<P::Message, P::WorkerState, P::Aggregate> {
        run_controlled(n, p, prog, config, &ThreadExecutor, control).unwrap()
    }

    #[test]
    fn explicit_cancel_aborts_with_a_balanced_pool() {
        let g = erdos_renyi_gnm(150, 250, 5).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let token = CancelToken::new();
        token.cancel(CancelReason::Explicit);
        let control = RunControl {
            cancel: Some(&token),
            checkpoint: false,
            resume: None,
            ..RunControl::default()
        };
        match controlled(g.num_vertices(), &p, &prog, &BspConfig::default(), control) {
            RunOutcome::Cancelled(c) => {
                assert_eq!(c.reason, CancelReason::Explicit);
                assert_eq!(c.superstep, 0);
                assert!(c.frontier.is_none(), "hard cancels capture no frontier");
                assert_eq!(c.metrics.chunks_outstanding, 0);
                assert_eq!(c.worker_states.len(), 3);
            }
            RunOutcome::Complete(_) => panic!("expected cancellation"),
        }
    }

    #[test]
    fn expired_deadline_without_checkpoint_cancels_hard() {
        let edges: Vec<_> = (0..39u32).map(|v| (v, v + 1)).collect();
        let g = DataGraph::from_edges(40, &edges).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let token = CancelToken::with_timeout(std::time::Duration::from_secs(0));
        let control = RunControl {
            cancel: Some(&token),
            checkpoint: false,
            resume: None,
            ..RunControl::default()
        };
        match controlled(g.num_vertices(), &p, &prog, &BspConfig::default(), control) {
            RunOutcome::Cancelled(c) => {
                assert_eq!(c.reason, CancelReason::Deadline);
                assert!(c.frontier.is_none());
                assert_eq!(c.metrics.chunks_outstanding, 0);
            }
            RunOutcome::Complete(_) => panic!("expected deadline cancellation"),
        }
    }

    #[test]
    fn superstep_deadline_checkpoint_and_resume_match_uninterrupted() {
        // A long path needs ~n supersteps, so superstep 3 cuts mid-run.
        let edges: Vec<_> = (0..39u32).map(|v| (v, v + 1)).collect();
        let g = DataGraph::from_edges(40, &edges).unwrap();
        let base = run_min_label(&g, 3);
        let full = {
            let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
            let p = HashPartitioner::new(3);
            run(g.num_vertices(), &p, &prog, &BspConfig::default()).unwrap().metrics
        };
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let token = CancelToken::with_superstep_deadline(3);
        let control = RunControl {
            cancel: Some(&token),
            checkpoint: true,
            resume: None,
            ..RunControl::default()
        };
        let cancelled =
            match controlled(g.num_vertices(), &p, &prog, &BspConfig::default(), control) {
                RunOutcome::Cancelled(c) => c,
                RunOutcome::Complete(_) => panic!("run should hit the superstep deadline"),
            };
        assert_eq!(cancelled.reason, CancelReason::Deadline);
        assert_eq!(cancelled.superstep, 3, "resume superstep equals the deadline");
        assert_eq!(cancelled.metrics.superstep_count(), 3);
        assert_eq!(cancelled.metrics.chunks_outstanding, 0);
        let frontier_msgs: u64 =
            cancelled.frontier.as_ref().unwrap().iter().map(|t| t.len() as u64).sum();
        assert!(frontier_msgs > 0, "mid-run frontier must be non-empty");
        let resume = cancelled.into_resume_point().expect("checkpointed cancel resumes");
        let control = RunControl {
            cancel: None,
            checkpoint: false,
            resume: Some(resume),
            ..RunControl::default()
        };
        let res = match controlled(g.num_vertices(), &p, &prog, &BspConfig::default(), control) {
            RunOutcome::Complete(r) => r,
            RunOutcome::Cancelled(_) => panic!("resumed run should complete"),
        };
        // Bit-identical final labels, and metrics curves that stitch across
        // the seam exactly as the uninterrupted run's.
        assert_eq!(prog.labels.into_inner(), base);
        assert_eq!(res.metrics.superstep_count(), full.superstep_count());
        for s in 0..full.superstep_count() {
            assert_eq!(
                res.metrics.supersteps[s].messages_out(),
                full.supersteps[s].messages_out(),
                "superstep {s} message curve"
            );
        }
        assert_eq!(res.metrics.total_messages(), full.total_messages());
        assert_eq!(res.metrics.total_cost(), full.total_cost());
        assert_eq!(res.metrics.chunks_outstanding, 0);
    }

    #[test]
    fn budget_with_checkpoint_returns_a_resumable_cancel() {
        let prog = Flood { fanout: 10, n: 100 };
        let p = HashPartitioner::new(4);
        let config = BspConfig { message_budget: Some(500), ..Default::default() };
        let control =
            RunControl { cancel: None, checkpoint: true, resume: None, ..RunControl::default() };
        let cancelled = match controlled(100, &p, &prog, &config, control) {
            RunOutcome::Cancelled(c) => c,
            RunOutcome::Complete(_) => panic!("budget must fire"),
        };
        assert_eq!(cancelled.reason, CancelReason::Budget);
        assert_eq!(cancelled.superstep, 1);
        let frontier_msgs: u64 =
            cancelled.frontier.as_ref().unwrap().iter().map(|t| t.len() as u64).sum();
        assert_eq!(frontier_msgs, 1000, "the whole over-budget frontier is captured");
        // Resume under a budget that fits: every message delivered once.
        let resume = cancelled.into_resume_point().unwrap();
        let config = BspConfig { message_budget: Some(2000), ..Default::default() };
        let control = RunControl {
            cancel: None,
            checkpoint: false,
            resume: Some(resume),
            ..RunControl::default()
        };
        match controlled(100, &p, &prog, &config, control) {
            RunOutcome::Complete(r) => {
                assert_eq!(r.worker_states.iter().sum::<u64>(), 1000);
                assert_eq!(r.metrics.chunks_outstanding, 0);
            }
            RunOutcome::Cancelled(_) => panic!("resumed run should complete"),
        }
    }

    /// Floods at superstep 0, then panics while processing messages in
    /// superstep 1 — inboxes and outboxes are hot when the worker unwinds.
    struct LatePanicker {
        n: usize,
    }

    impl VertexProgram for LatePanicker {
        type Message = u8;
        type WorkerState = ();
        type Aggregate = ();

        fn create_worker_state(&self, _w: usize) {}

        fn compute(&self, ctx: &mut Context<'_, u8>, _s: &mut (), v: VertexId, _m: &mut Vec<u8>) {
            if ctx.superstep() == 0 {
                for i in 1..=3usize {
                    ctx.send(((v as usize + i) % self.n) as VertexId, 0);
                }
            } else if v == 7 {
                panic!("boom mid-superstep");
            } else {
                // Keep outboxes non-empty at the moment of the panic.
                ctx.send(((v as usize + 1) % self.n) as VertexId, 0);
            }
        }
    }

    #[test]
    fn panic_mid_superstep_keeps_pool_balanced() {
        // In debug builds (the test profile) the engine asserts get/put
        // balance on the abort path, so reaching the Err at all proves no
        // chunk was stranded by the unwinding worker.
        let p = HashPartitioner::new(4);
        let prog = LatePanicker { n: 64 };
        match run(64, &p, &prog, &BspConfig::default()) {
            Err(BspError::WorkerPanicked { superstep: 1, worker }) => {
                assert_eq!(worker, p.owner(7));
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        // Same containment under the serial executor.
        match run_with_executor(64, &p, &prog, &BspConfig::default(), &SerialExecutor) {
            Err(BspError::WorkerPanicked { superstep: 1, .. }) => {}
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn controlled_run_without_triggers_is_bit_identical() {
        let g = erdos_renyi_gnm(150, 250, 5).unwrap();
        let base = run_min_label(&g, 4);
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(4);
        let token = CancelToken::new();
        let control = RunControl {
            cancel: Some(&token),
            checkpoint: true,
            resume: None,
            ..RunControl::default()
        };
        match controlled(g.num_vertices(), &p, &prog, &BspConfig::default(), control) {
            RunOutcome::Complete(_) => {}
            RunOutcome::Cancelled(_) => panic!("nothing should cancel this run"),
        }
        assert_eq!(prog.labels.into_inner(), base);
    }

    #[test]
    fn source_order_is_identity_without_shuffle_and_a_permutation_with() {
        assert_eq!(source_order(5, 3, 2, None), vec![0, 1, 2, 3, 4]);
        for dest in 0..5 {
            let order = source_order(5, 3, dest, Some(99));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "must be a permutation");
            // Deterministic per (superstep, dest, seed).
            assert_eq!(order, source_order(5, 3, dest, Some(99)));
        }
    }

    // ── spill tier ──────────────────────────────────────────────────────

    use crate::spill::{SpillConfig, SpillFaults, SpillReader};

    struct VertexIdCodec;

    impl SpillCodec<VertexId> for VertexIdCodec {
        fn encode(&self, msg: &VertexId, out: &mut Vec<u8>) {
            out.extend_from_slice(&msg.to_le_bytes());
        }
        fn decode(&self, r: &mut SpillReader<'_>) -> Result<VertexId, SpillError> {
            r.u32("min-label message")
        }
    }

    fn run_min_label_spilling(
        g: &DataGraph,
        workers: usize,
        config: &BspConfig,
        store: &SpillStore,
    ) -> (Vec<VertexId>, EngineMetrics) {
        let prog = MinLabel { graph: g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(workers);
        let control = RunControl {
            spill: Some(SpillControl { store, codec: &VertexIdCodec }),
            ..RunControl::default()
        };
        let res =
            match run_controlled(g.num_vertices(), &p, &prog, config, &ThreadExecutor, control)
                .unwrap()
            {
                RunOutcome::Complete(r) => r,
                RunOutcome::Cancelled(_) => panic!("nothing cancels this run"),
            };
        (prog.labels.into_inner(), res.metrics)
    }

    #[test]
    fn spilling_capped_run_matches_uncapped_results() {
        let g = erdos_renyi_gnm(200, 300, 9).unwrap();
        let base = run_min_label(&g, 3);
        let config =
            BspConfig { chunk_capacity: 4, max_live_chunks: Some(8), ..Default::default() };
        let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
        let (labels, m) = run_min_label_spilling(&g, 3, &config, &store);
        assert_eq!(labels, base, "spilling must not change any label");
        assert!(m.carried.spill_chunks > 0, "the tiny cap must force eviction");
        assert_eq!(m.carried.readmitted_chunks, m.carried.spill_chunks, "every segment comes back");
        assert!(m.carried.spill_bytes > 0);
        assert!(m.carried.chunks_live_peak > 0);
        assert_eq!(m.chunks_outstanding, 0, "clean shutdown releases every chunk");
        assert_eq!(store.live_bytes(), 0, "no blobs outlive the run");
    }

    #[test]
    fn spill_read_fault_aborts_with_a_typed_error() {
        let g = erdos_renyi_gnm(200, 300, 9).unwrap();
        let config =
            BspConfig { chunk_capacity: 4, max_live_chunks: Some(8), ..Default::default() };
        let faults = SpillFaults { corrupt_read: true, ..SpillFaults::default() };
        let store = SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() }).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let control = RunControl {
            spill: Some(SpillControl { store: &store, codec: &VertexIdCodec }),
            ..RunControl::default()
        };
        match run_controlled(g.num_vertices(), &p, &prog, &config, &ThreadExecutor, control) {
            Err(BspError::Spill { error: SpillError::Corrupt { .. }, .. }) => {}
            Err(e) => panic!("wrong error for a corrupt read: {e}"),
            Ok(_) => panic!("corrupt spill blobs must abort the run"),
        }
        assert_eq!(store.live_bytes(), 0, "the abort path discards every blob");
    }

    #[test]
    fn spill_write_failure_degrades_to_resident_execution() {
        let g = erdos_renyi_gnm(200, 300, 9).unwrap();
        let base = run_min_label(&g, 3);
        let config =
            BspConfig { chunk_capacity: 4, max_live_chunks: Some(8), ..Default::default() };
        let faults = SpillFaults { fail_write_after_bytes: Some(0), ..SpillFaults::default() };
        let store = SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() }).unwrap();
        let (labels, m) = run_min_label_spilling(&g, 3, &config, &store);
        assert_eq!(labels, base, "a full disk degrades the run, never corrupts it");
        assert_eq!(m.carried.spill_chunks, 0, "no write ever succeeded");
        assert!(m.carried.pool_exhausted > 0, "the run still grew past the cap in place");
    }

    #[test]
    fn deadline_without_checkpoint_discards_spilled_frontier() {
        let edges: Vec<_> = (0..39u32).map(|v| (v, v + 1)).collect();
        let g = DataGraph::from_edges(40, &edges).unwrap();
        let config =
            BspConfig { chunk_capacity: 2, max_live_chunks: Some(4), ..Default::default() };
        let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
        let dir = store.dir().to_path_buf();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let token = CancelToken::with_superstep_deadline(3);
        let control = RunControl {
            cancel: Some(&token),
            checkpoint: false,
            spill: Some(SpillControl { store: &store, codec: &VertexIdCodec }),
            ..RunControl::default()
        };
        match controlled(g.num_vertices(), &p, &prog, &config, control) {
            RunOutcome::Cancelled(c) => {
                assert_eq!(c.reason, CancelReason::Deadline);
                assert!(c.frontier.is_none(), "hard cancels capture no frontier");
                assert!(c.metrics.carried.spill_chunks > 0, "the frontier was spilling when cut");
                assert_eq!(c.metrics.chunks_outstanding, 0);
            }
            RunOutcome::Complete(_) => panic!("expected deadline cancellation"),
        }
        assert_eq!(store.live_bytes(), 0, "discarded segments delete their blobs");
        drop(store);
        assert!(!dir.exists(), "the spill directory dies with the store");
    }

    #[test]
    fn checkpoint_resume_with_spill_matches_uninterrupted() {
        let edges: Vec<_> = (0..39u32).map(|v| (v, v + 1)).collect();
        let g = DataGraph::from_edges(40, &edges).unwrap();
        let base = run_min_label(&g, 3);
        let config =
            BspConfig { chunk_capacity: 2, max_live_chunks: Some(4), ..Default::default() };
        let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
        let prog = MinLabel { graph: &g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(3);
        let token = CancelToken::with_superstep_deadline(3);
        let control = RunControl {
            cancel: Some(&token),
            checkpoint: true,
            spill: Some(SpillControl { store: &store, codec: &VertexIdCodec }),
            ..RunControl::default()
        };
        let cancelled = match controlled(g.num_vertices(), &p, &prog, &config, control) {
            RunOutcome::Cancelled(c) => c,
            RunOutcome::Complete(_) => panic!("run should hit the superstep deadline"),
        };
        let spilled_before_cut = cancelled.metrics.carried.spill_chunks;
        assert!(spilled_before_cut > 0, "the frontier was spilling when cut");
        assert_eq!(store.live_bytes(), 0, "checkpoint capture re-admits every segment");
        let resume = cancelled.into_resume_point().expect("checkpointed cancel resumes");
        let control = RunControl {
            resume: Some(resume),
            spill: Some(SpillControl { store: &store, codec: &VertexIdCodec }),
            ..RunControl::default()
        };
        match controlled(g.num_vertices(), &p, &prog, &config, control) {
            RunOutcome::Complete(r) => {
                assert_eq!(r.metrics.chunks_outstanding, 0);
                assert!(
                    r.metrics.carried.spill_chunks >= spilled_before_cut,
                    "carried counters keep the pre-cut spill volume"
                );
            }
            RunOutcome::Cancelled(_) => panic!("resumed run should complete"),
        }
        assert_eq!(prog.labels.into_inner(), base);
    }

    // ── the single-task superstep, across the configuration table ───────

    /// What [`Probe`] does when it reaches superstep 1, vertex 41.
    enum Trip<'a> {
        Nothing,
        Panic,
        Cancel(&'a CancelToken),
    }

    /// Every vertex relays three messages per superstep for three
    /// supersteps. A message is `sender worker << 24 | per-worker send
    /// sequence`, so a batch in delivery order (sources in worker order,
    /// each source's sends in send order) is strictly increasing.
    struct Probe<'a> {
        n: usize,
        calls: Mutex<ProbeCalls>,
        trip: Trip<'a>,
    }

    /// `(superstep, vertex)` → the batch of every `compute` call made for it.
    type ProbeCalls = std::collections::BTreeMap<(u32, VertexId), Vec<Vec<u32>>>;

    impl VertexProgram for Probe<'_> {
        type Message = u32;
        /// `(superstep, messages sent in it)`.
        type WorkerState = (u32, u32);
        type Aggregate = ();

        fn create_worker_state(&self, _w: usize) -> (u32, u32) {
            (0, 0)
        }

        fn compute(
            &self,
            ctx: &mut Context<'_, u32>,
            state: &mut (u32, u32),
            v: VertexId,
            msgs: &mut Vec<u32>,
        ) {
            let s = ctx.superstep();
            self.calls.lock().entry((s, v)).or_default().push(msgs.clone());
            if state.0 != s {
                *state = (s, 0);
            }
            if s >= 3 {
                return;
            }
            for to in [v as usize + 1, v as usize * 5 + s as usize, v as usize + 17] {
                ctx.send((to % self.n) as VertexId, (ctx.worker() as u32) << 24 | state.1);
                state.1 += 1;
            }
            if (s, v) == (1, 41) {
                match self.trip {
                    Trip::Nothing => {}
                    Trip::Panic => panic!("boom mid-superstep"),
                    Trip::Cancel(token) => token.cancel(CancelReason::Explicit),
                }
            }
        }
    }

    #[test]
    fn one_compute_call_per_vertex_across_chunking_executors_and_spill() {
        const N: usize = 64;
        let (n, p) = (N, HashPartitioner::new(4));
        fn probe(trip: Trip<'_>) -> Probe<'_> {
            Probe { n: N, calls: Mutex::new(Default::default()), trip }
        }
        let reference = {
            let prog = probe(Trip::Nothing);
            run(n, &p, &prog, &BspConfig::default()).unwrap();
            prog.calls.into_inner()
        };
        assert_eq!(reference.len(), 4 * n, "every vertex is active in supersteps 0..=3");
        for (key, batches) in &reference {
            assert_eq!(batches.len(), 1, "{key:?}: one compute call per vertex per superstep");
            assert!(batches[0].windows(2).all(|w| w[0] < w[1]), "{key:?}: delivery order");
        }
        let delivered: usize = reference.values().map(|b| b[0].len()).sum();
        assert_eq!(delivered, 3 * 3 * n, "every message sent was delivered");

        let executors: [(&str, &dyn Executor); 2] =
            [("threads", &ThreadExecutor), ("serial", &SerialExecutor)];
        for chunk_capacity in [1, 3, DEFAULT_CHUNK_CAPACITY] {
            for (exec_name, executor) in executors {
                for spilling in [false, true] {
                    let case = format!("capacity {chunk_capacity}, {exec_name}, spill {spilling}");
                    let config = BspConfig {
                        chunk_capacity,
                        max_live_chunks: spilling.then_some(4),
                        ..Default::default()
                    };
                    let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
                    let control = |cancel| RunControl {
                        cancel,
                        spill: spilling
                            .then_some(SpillControl { store: &store, codec: &VertexIdCodec }),
                        ..RunControl::default()
                    };

                    let prog = probe(Trip::Nothing);
                    match run_controlled(n, &p, &prog, &config, executor, control(None)).unwrap() {
                        RunOutcome::Complete(r) => {
                            assert_eq!(r.metrics.chunks_outstanding, 0, "{case}");
                            if spilling && chunk_capacity <= 3 {
                                assert!(
                                    r.metrics.carried.spill_chunks > 0,
                                    "{case}: cap never bit"
                                );
                            }
                        }
                        RunOutcome::Cancelled(_) => panic!("{case}: nothing cancels this run"),
                    }
                    assert_eq!(prog.calls.into_inner(), reference, "{case}");

                    // A panic with inboxes drained and outboxes part-filled
                    // (debug builds assert the pool balance on this path).
                    let prog = probe(Trip::Panic);
                    match run_controlled(n, &p, &prog, &config, executor, control(None)) {
                        Err(BspError::WorkerPanicked { superstep: 1, worker }) => {
                            assert_eq!(worker, p.owner(41), "{case}");
                        }
                        Err(e) => panic!("{case}: wrong error {e}"),
                        Ok(_) => panic!("{case}: the panic must surface"),
                    }
                    assert_eq!(store.live_bytes(), 0, "{case}: blobs outlived the panic");

                    let token = CancelToken::new();
                    let prog = probe(Trip::Cancel(&token));
                    match run_controlled(n, &p, &prog, &config, executor, control(Some(&token)))
                        .unwrap()
                    {
                        RunOutcome::Cancelled(c) => {
                            assert_eq!((c.reason, c.superstep), (CancelReason::Explicit, 1));
                            assert!(c.frontier.is_none(), "{case}");
                            assert_eq!(c.metrics.chunks_outstanding, 0, "{case}");
                        }
                        RunOutcome::Complete(_) => panic!("{case}: the cancel must surface"),
                    }
                    assert_eq!(store.live_bytes(), 0, "{case}: blobs outlived the cancel");
                }
            }
        }
    }
}

#[cfg(test)]
mod aggregator_tests {
    use super::tests::run;
    use super::*;

    /// Sums active-vertex counts globally; vertices read the previous
    /// superstep's total.
    struct CountActive {
        observed: parking_lot::Mutex<Vec<u64>>,
    }

    impl VertexProgram for CountActive {
        type Message = ();
        type WorkerState = ();
        type Aggregate = u64;

        fn create_worker_state(&self, _w: usize) {}

        fn merge_aggregates(&self, into: &mut u64, from: u64) {
            *into += from;
        }

        fn compute(
            &self,
            ctx: &mut Context<'_, (), u64>,
            _s: &mut (),
            v: VertexId,
            _m: &mut Vec<()>,
        ) {
            if v == 0 {
                self.observed.lock().push(*ctx.prev_aggregate());
            }
            *ctx.aggregate_mut() += 1;
            // Two message-driven rounds: all vertices ping vertex 0 once.
            if ctx.superstep() == 0 {
                ctx.send(0, ());
            }
        }
    }

    #[test]
    fn aggregates_merge_across_workers_with_pregel_semantics() {
        let n = 20;
        let prog = CountActive { observed: parking_lot::Mutex::new(Vec::new()) };
        let p = psgl_graph::partition::HashPartitioner::new(4);
        let result = run(n, &p, &prog, &BspConfig::default()).unwrap();
        // Superstep 0: all 20 vertices active; superstep 1: only vertex 0.
        assert_eq!(result.final_aggregate, 1);
        // Vertex 0 saw the default (0) in superstep 0 and the merged 20 in
        // superstep 1.
        assert_eq!(*prog.observed.lock(), vec![0, 20]);
    }
}
