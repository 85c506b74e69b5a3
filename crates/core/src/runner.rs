//! The BSP vertex program driving a PSgL run (Section 6).
//!
//! Both phases of the framework live in a single vertex program, exactly as
//! in the paper's Giraph implementation: superstep 0 executes the
//! *initialization phase* (each data vertex creates the initial Gpsi
//! mapping the selected initial pattern vertex to itself), and every later
//! superstep executes the *expansion phase* (Algorithm 1) on the Gpsis that
//! arrived as messages.
//!
//! The program's messages are Gpsis at the pattern's width
//! ([`message_width`]): `compute` widens each one it receives to the
//! 12-slot [`Gpsi`] expansion works on and narrows each one it generates
//! before sending it. Frontiers leave and enter a run as 12-slot Gpsis —
//! seeds, checkpoints, cluster shards — and are converted at those edges.

use crate::checkpoint::{
    pattern_hash, Checkpoint, CheckpointError, CheckpointGuard, Harvested, PartCheckpoint,
    WorkerCheckpoint,
};
use crate::config::PsglConfig;
use crate::distribute::{Distributor, Strategy};
use crate::expand::{expand_gpsi, ExpandScratch};
use crate::gpsi::{message_width, Gpsi};
use crate::init_vertex::SelectionRule;
use crate::shared::{PsglError, PsglShared};
use crate::stats::{ExpandStats, RunStats};
use psgl_bsp::{
    BspConfig, CancelReason, CancelToken, CarriedCounters, Chunk, Context, EngineMetrics, Exchange,
    FrontierSink, ResumePoint, RunControl, RunOutcome, SpillStore, VertexProgram,
};
use psgl_graph::hash::hash_u64;
use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use psgl_pattern::Pattern;

/// Result of a listing run.
#[derive(Clone, Debug)]
pub struct ListingResult {
    /// Number of subgraph instances found.
    pub instance_count: u64,
    /// The instances themselves (pattern-vertex order), present iff
    /// [`PsglConfig::collect_instances`]; sorted for deterministic
    /// comparison.
    pub instances: Option<Vec<Vec<VertexId>>>,
    /// Instances each data vertex participates in, present iff the run's
    /// harvest was [`Harvest::PerVertex`].
    pub per_vertex: Option<Vec<u64>>,
    /// Run statistics (Gpsi counts, pruning breakdown, per-worker loads).
    pub stats: RunStats,
    /// The initial pattern vertex that was used.
    pub init_vertex: psgl_pattern::PatternVertex,
    /// How it was selected.
    pub selection_rule: SelectionRule,
}

/// Per-worker mutable state.
pub struct WorkerState {
    distributor: Distributor,
    stats: ExpandStats,
    /// What this worker keeps of the instances it finds: nothing but the
    /// count (the paper's default output), the tuples
    /// ([`PsglConfig::collect_instances`]), or per-data-vertex counts.
    harvest: Harvested,
    /// Reusable expansion-kernel buffers; retained across supersteps so
    /// steady-state expansion allocates nothing.
    scratch: ExpandScratch,
    /// Reusable outbox for freshly generated Gpsis, drained into the
    /// engine's send path after every expansion.
    out: Vec<Gpsi>,
    /// Messages this worker has emitted in the current superstep; compared
    /// against the Gpsi budget *during* the superstep so a simulated OOM
    /// aborts before the outboxes exhaust real memory.
    emitted_this_superstep: u64,
    /// Superstep `emitted_this_superstep` refers to.
    emitted_superstep: u32,
    /// Set when this worker alone outgrows [`PsglConfig::gpsi_budget`];
    /// it drains its remaining messages without expanding (simulated OOM
    /// abort).
    failed: bool,
}

/// The vertex program of a run whose messages carry `W` mapping slots.
struct PsglProgram<'a, const W: usize> {
    shared: &'a PsglShared<'a>,
    config: &'a PsglConfig,
    /// The empty harvest every worker starts from (per-vertex counts are
    /// sized when a worker is created).
    harvest: Harvested,
    /// With checkpointing enabled the per-worker early budget abort is
    /// deferred to the engine's barrier check, which captures the whole
    /// over-budget frontier as a resumable [`Checkpoint`] instead of
    /// discarding the run.
    defer_budget: bool,
}

impl<const W: usize> VertexProgram for PsglProgram<'_, W> {
    type Message = Gpsi<W>;
    type WorkerState = WorkerState;

    fn create_worker_state(&self, worker: usize) -> WorkerState {
        WorkerState {
            distributor: Distributor::new(
                self.config.strategy,
                self.config.workers,
                hash_u64(self.config.seed ^ (worker as u64).wrapping_mul(0x9e37)),
            ),
            stats: ExpandStats::default(),
            harvest: match &self.harvest {
                Harvested::PerVertex(_) => {
                    Harvested::PerVertex(vec![0; self.shared.graph.num_vertices()])
                }
                empty => empty.clone(),
            },
            scratch: ExpandScratch::new(),
            out: Vec::new(),
            emitted_this_superstep: 0,
            emitted_superstep: 0,
            failed: false,
        }
    }

    fn compute(
        &self,
        ctx: &mut Context<'_, Gpsi<W>>,
        state: &mut WorkerState,
        vertex: VertexId,
        messages: &mut Vec<Gpsi<W>>,
    ) {
        if state.failed {
            return; // drain mode after a simulated OOM
        }
        if ctx.superstep() == 0 {
            // Initialization phase: one Gpsi per data vertex that passes
            // the degree prune for the initial pattern vertex.
            let init = self.shared.init_vertex;
            if self.shared.graph.degree(vertex) >= self.shared.pattern.degree(init)
                && self.shared.label_ok(init, vertex)
            {
                ctx.add_cost(1);
                ctx.send(vertex, Gpsi::initial(init, vertex).with_width());
            }
            return;
        }
        if state.emitted_superstep != ctx.superstep() {
            state.emitted_superstep = ctx.superstep();
            state.emitted_this_superstep = 0;
        }
        let WorkerState {
            distributor,
            stats,
            harvest,
            scratch,
            out,
            emitted_this_superstep,
            failed,
            ..
        } = state;
        for gpsi in messages.drain(..) {
            // The budget early-return below can leave stale Gpsis behind;
            // clearing here keeps the reused buffer safe.
            out.clear();
            let before = stats.cost;
            expand_gpsi(
                self.shared,
                gpsi.with_width(),
                scratch,
                distributor,
                ctx.partitioner(),
                out,
                harvest,
                stats,
            );
            ctx.add_cost(stats.cost - before);
            *emitted_this_superstep += out.len() as u64;
            if let Some(budget) = self.config.gpsi_budget {
                // One worker's single-superstep output alone exceeding the
                // global budget guarantees the barrier check would fail;
                // abort now instead of materializing the rest — unless the
                // run checkpoints, where the barrier check must see the
                // complete frontier to capture it.
                if !self.defer_budget && *emitted_this_superstep > budget {
                    *failed = true;
                    return;
                }
            }
            for g in out.drain(..) {
                let dest = g.map(g.expanding()).expect("expanding vertex is mapped");
                ctx.send(dest, g.with_width());
            }
        }
    }
}

/// Runs a full PSgL listing of `pattern` in `graph`: the offline
/// preparation (ordering, automorphism breaking, edge index, initial-vertex
/// selection), then [`run`] from the initialization phase to completion.
pub fn list_subgraphs(
    graph: &psgl_graph::DataGraph,
    pattern: &Pattern,
    config: &PsglConfig,
) -> Result<ListingResult, PsglError> {
    list_subgraphs_prepared(&PsglShared::prepare(graph, pattern, config)?, config)
}

/// [`run`] with a default request against an already-prepared shared
/// context, to completion.
pub fn list_subgraphs_prepared(
    shared: &PsglShared<'_>,
    config: &PsglConfig,
) -> Result<ListingResult, PsglError> {
    run(shared, config, RunRequest::default()).map(ListingEnd::completed)
}

/// [`list_subgraphs_prepared`] under explicit [`RunnerHooks`].
pub fn list_subgraphs_prepared_with(
    shared: &PsglShared<'_>,
    config: &PsglConfig,
    hooks: &RunnerHooks<'_>,
) -> Result<ListingResult, PsglError> {
    let request = RunRequest { hooks: hooks.clone(), ..Default::default() };
    run(shared, config, request).map(ListingEnd::completed)
}

/// One run of the vertex program, as [`run`] takes it. The parts are
/// orthogonal — any start under any hooks, any stop rule and either
/// harvest — and the default value of each is the plain production run:
/// from the initialization phase, threaded executor, nothing stops it,
/// in-process, count (or list, per [`PsglConfig::collect_instances`]).
///
/// A new run mode is a field here, not another function beside [`run`].
#[derive(Default)]
pub struct RunRequest<'a> {
    /// Where to start.
    pub start: Start,
    /// How to execute.
    pub hooks: RunnerHooks<'a>,
    /// When to stop before completion.
    pub stop: Stop<'a>,
    /// Where it runs: `None` hosts every partition in this process.
    pub cluster: Option<ClusterMember<'a>>,
    /// What to keep of the instances found.
    pub harvest: Harvest,
}

/// The frontier a run is entered from.
#[derive(Default)]
pub enum Start {
    /// Superstep 0, the initialization phase: one Gpsi per data vertex
    /// that passes the degree prune for the initial pattern vertex.
    #[default]
    Init,
    /// A checkpoint captured by an earlier, stopped run. Its guard must
    /// match this run's graph, pattern, and configuration exactly; the
    /// run then continues *bit-identically* — distributor RNG streams,
    /// workload views, expansion counters and the undelivered frontier are
    /// all restored, so final counts, instances and deterministic metrics
    /// equal an uninterrupted run's.
    Checkpoint(Checkpoint),
    /// An explicit seed frontier, entered at superstep 1 with fresh worker
    /// states — the incremental-listing path of `psgl-delta`. Each seed is
    /// a partially expanded [`Gpsi`] (typically two GRAY vertices binding
    /// one changed data edge), routed to the partition owning its expanding
    /// vertex. The seed edge is not verified yet — neither end is BLACK —
    /// so the first expansion checks it exactly. Expansion from
    /// a seed is exact, so the instances found are exactly the completions
    /// of the seeds. The caller is responsible for seed validity: only
    /// pattern vertices are mapped, every already-mapped pair satisfies
    /// the partial order and the expanding vertex is mapped. No seeds, no
    /// instances.
    Seeds(Vec<Gpsi>),
}

/// Hooks the deterministic simulation harness (`crates/sim`) uses to drive
/// a listing run through a custom scheduler, vertex placement, and the
/// engine's chaos knobs. The default value reproduces the production path
/// bit-for-bit.
#[derive(Clone, Default)]
pub struct RunnerHooks<'a> {
    /// Executor driving the BSP supersteps; `None` uses the production
    /// [`psgl_bsp::ThreadExecutor`].
    pub executor: Option<&'a dyn psgl_bsp::Executor>,
    /// Vertex-placement override (e.g. a skewed partitioner); `None`
    /// derives the salted hash partitioner from the config seed.
    pub partitioner: Option<HashPartitioner>,
    /// Cap on live message chunks ([`BspConfig::max_live_chunks`]).
    pub max_live_chunks: Option<u64>,
    /// Seeded exchange reordering ([`BspConfig::exchange_shuffle_seed`]).
    pub exchange_shuffle_seed: Option<u64>,
    /// Message-chunk granularity override ([`BspConfig::chunk_capacity`]).
    /// Smaller chunks give eviction finer granularity;
    /// memory-bounded runs pair this with [`RunnerHooks::max_live_chunks`].
    pub chunk_capacity: Option<usize>,
    /// Disk spill tier for memory-bounded execution: when the live-chunk
    /// cap bites, cold frontier chunks are evicted to a per-run temp
    /// directory instead of growing the pool in place, and re-admitted at
    /// superstep boundaries. `None` keeps the pool growing past the cap.
    pub spill: Option<psgl_bsp::SpillConfig>,
    /// Structured-trace sink threaded into the engine (superstep events)
    /// and the runner (run lifecycle, spill-dir cleanup). `None` traces
    /// nothing; the service passes the process tracer, the sim harness a
    /// seeded one.
    pub tracer: Option<&'a psgl_obs::Tracer>,
}

/// What ends a run before it completes. The default is nothing.
#[derive(Clone, Copy, Default)]
pub struct Stop<'a> {
    /// Cancellation token polled at every superstep barrier and every few
    /// message batches inside expansion.
    pub cancel: Option<&'a CancelToken>,
    /// Capture a [`Checkpoint`] when a soft cancel (deadline, superstep
    /// deadline, or Gpsi budget) fires at a barrier. Ignored by a
    /// [`ClusterMember`], whose checkpoints are coordinator-directed and
    /// leave through the shard sink: no single member sees the whole run.
    pub checkpoint: bool,
    /// Yield at the barrier this many supersteps (at least one) past the
    /// start, as [`ListingEnd::Preempted`] — the preemptive scheduler's
    /// unit of work. [`run`] arms the token's preempt barrier and disarms
    /// it before returning; the frontier is captured whatever
    /// [`Stop::checkpoint`] says, which only decides whether *deadline and
    /// budget* stops are soft (checkpointed) or hard.
    pub slice: Option<u32>,
}

/// Turns the engine instance into one member of a cluster, hosting only
/// the exchange's local partitions. A member starts from [`Start::Init`],
/// or from a [`Start::Checkpoint`] whose parts are exactly its local
/// partitions — the joined shards of a restart after a peer failure. A
/// seed frontier covers every partition, and the engine asserts it hosts
/// them all.
pub struct ClusterMember<'a> {
    /// The remote exchange: ships non-local outboxes to peers, runs the
    /// coordinator barrier, and reports the global in-flight count.
    pub exchange: &'a dyn Exchange<Gpsi>,
    /// Receives one single-part [`Checkpoint`] per local partition whenever
    /// the coordinator directs a checkpoint
    /// ([`ExchangeDirective::CheckpointAndContinue`](psgl_bsp::ExchangeDirective)).
    pub shard_sink: Option<&'a dyn ShardSink>,
}

/// Receives superstep-boundary checkpoint shards from a cluster member —
/// one single-part [`Checkpoint`] per local partition, with no run-level
/// prefix, all captured at the same barrier.
pub trait ShardSink: Sync {
    /// Consumes one barrier's shard set.
    fn capture(&self, shards: Vec<Checkpoint>);
}

/// What a run keeps of the instances it finds.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub enum Harvest {
    /// The count, plus the instance tuples iff
    /// [`PsglConfig::collect_instances`] (the paper outputs occurrence
    /// numbers by default).
    #[default]
    Listing,
    /// The count, plus [`ListingResult::per_vertex`]: for every data
    /// vertex, the number of instances it participates in — with the
    /// triangle pattern, local triangle counts, the ingredient of
    /// per-vertex clustering coefficients (Section 1's motivating
    /// application). Positions in an instance are distinct, so the counts
    /// sum to `instance_count * |Vp|`.
    PerVertex,
}

/// A run ended early by its cancel token (or budget, with checkpointing).
pub struct CancelledListing {
    /// Why the run stopped.
    pub reason: CancelReason,
    /// The superstep the run stopped at (= the resume superstep when a
    /// checkpoint was captured).
    pub superstep: u32,
    /// Partial results: instances found and statistics accumulated before
    /// cancellation. On a hard cancel the aborted superstep's counters
    /// are partially included; on a checkpointed cancel they are exact.
    pub partial: ListingResult,
    /// The resume checkpoint — present only for soft cancels with
    /// [`Stop::checkpoint`] set.
    pub checkpoint: Option<Checkpoint>,
}

/// How a [`run`] ended.
//
// The variants are deliberately asymmetric in size: this is a transient
// return value consumed immediately by a match, never stored, and boxing
// the common Complete arm would tax every uncancelled run.
#[allow(clippy::large_enum_variant)]
pub enum ListingEnd {
    /// The run finished; results are exact and final.
    Complete(ListingResult),
    /// [`Stop::slice`] expired at a barrier. Pass `checkpoint` back as
    /// [`Start::Checkpoint`] to run the next slice; counts and instances
    /// continue bit-identically to an uninterrupted run.
    Preempted {
        /// The superstep the next slice resumes at.
        superstep: u32,
        /// Cumulative partial results (exact: preemption acts at a
        /// barrier, never mid-superstep).
        partial: ListingResult,
        /// The resume point. Its worker harvests carry every instance
        /// collected so far; [`Checkpoint::drain_instances`] moves them
        /// out for streaming without disturbing counts.
        checkpoint: Box<Checkpoint>,
    },
    /// Another trigger (explicit cancel, deadline, budget) ended the run;
    /// see [`CancelledListing`].
    Cancelled(Box<CancelledListing>),
}

impl ListingEnd {
    /// The result of a run whose request had an empty [`Stop`]: nothing
    /// could end it early.
    pub fn completed(self) -> ListingResult {
        match self {
            ListingEnd::Complete(result) => result,
            _ => unreachable!("a run with no stop rule cannot end early"),
        }
    }
}

/// Moves what the workers harvested into the result: instance tuples
/// sorted for deterministic comparison, per-vertex counts summed.
fn attach_harvest(result: &mut ListingResult, worker_states: Vec<WorkerState>) {
    for ws in worker_states {
        match ws.harvest {
            Harvested::CountOnly => {}
            Harvested::Instances(mut found) => {
                result.instances.get_or_insert_with(Vec::new).append(&mut found);
            }
            Harvested::PerVertex(counts) => match &mut result.per_vertex {
                Some(totals) => totals.iter_mut().zip(counts).for_each(|(t, c)| *t += c),
                None => result.per_vertex = Some(counts),
            },
        }
    }
    if let Some(instances) = &mut result.instances {
        instances.sort_unstable();
    }
}

#[cfg(test)]
thread_local! {
    /// [`guard_of`] calls made on this thread.
    static GUARDS_BUILT: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// The checkpoint guard pinning this run's inputs. Hashes the whole data
/// graph (`O(|V| + |E|)`), so it is built only where it is consumed.
fn guard_of(shared: &PsglShared<'_>, config: &PsglConfig, harvest: &Harvested) -> CheckpointGuard {
    #[cfg(test)]
    GUARDS_BUILT.with(|n| n.set(n.get() + 1));
    CheckpointGuard {
        graph_hash: shared.graph.content_hash(),
        workers: config.workers as u32,
        seed: config.seed,
        strategy: config.strategy,
        pattern_hash: pattern_hash(&shared.pattern),
        init_vertex: shared.init_vertex,
        harvest_mode: harvest.mode(),
    }
}

/// Captures one worker's mutable state for a checkpoint.
fn snapshot_worker(ws: &WorkerState) -> WorkerCheckpoint {
    WorkerCheckpoint {
        distributor: ws.distributor.snapshot(),
        stats: ws.stats,
        emitted_this_superstep: ws.emitted_this_superstep,
        emitted_superstep: ws.emitted_superstep,
        failed: ws.failed,
        harvest: ws.harvest.clone(),
    }
}

impl WorkerState {
    /// Rebuilds a worker's state from its checkpoint — the inverse of
    /// [`snapshot_worker`]; scratch buffers start empty.
    fn restore(strategy: Strategy, wc: WorkerCheckpoint) -> WorkerState {
        WorkerState {
            distributor: Distributor::from_snapshot(strategy, wc.distributor),
            stats: wc.stats,
            harvest: wc.harvest,
            scratch: ExpandScratch::new(),
            out: Vec::new(),
            emitted_this_superstep: wc.emitted_this_superstep,
            emitted_superstep: wc.emitted_superstep,
            failed: wc.failed,
        }
    }
}

/// Rebuilds the engine's resume point from a checkpoint whose guard
/// matches this run, its frontier narrowed to the run's message width `W`.
/// Its parts must be exactly the partitions hosted here, `locals`
/// (ascending): every partition of an in-process run, or a cluster
/// member's local partitions.
fn restore<const W: usize>(
    config: &PsglConfig,
    cp: Checkpoint,
    locals: &[usize],
) -> Result<ResumePoint<Gpsi<W>, WorkerState>, PsglError> {
    let error = |message: String| PsglError::Checkpoint(CheckpointError::new(message));
    if !cp.parts.iter().map(|part| part.partition as usize).eq(locals.iter().copied()) {
        let parts: Vec<u32> = cp.parts.iter().map(|part| part.partition).collect();
        return Err(error(format!(
            "checkpoint parts {parts:?} are not the hosted partitions {locals:?}"
        )));
    }
    let mut worker_states = Vec::with_capacity(cp.parts.len());
    let mut frontier = Vec::with_capacity(cp.parts.len());
    for part in cp.parts {
        if let Some((_, g)) =
            part.frontier.iter().find(|(_, g)| u32::from(g.mapped_mask()) >> W != 0)
        {
            return Err(error(format!(
                "frontier gpsi {g:?} maps a slot past the run's {W}-slot messages"
            )));
        }
        worker_states.push(WorkerState::restore(config.strategy, part.worker));
        frontier.push(part.frontier.into_iter().map(|(v, g)| (v, g.with_width())).collect());
    }
    Ok(ResumePoint {
        superstep: cp.superstep,
        frontier,
        worker_states,
        prior_supersteps: cp.prior_supersteps,
        carried: cp.carried,
    })
}

/// Adapts the engine's [`FrontierSink`] callback (local states + inboxes
/// at a checkpoint barrier) into one single-part [`Checkpoint`] per local
/// partition for the cluster's [`ShardSink`], its frontier widened to 12
/// slots. A shard carries no run-level prefix: the coordinator owns the
/// global superstep history, and a member's metrics restart at the resume
/// superstep.
struct EngineShardSink<'a> {
    sink: &'a dyn ShardSink,
    guard: CheckpointGuard,
    /// Global partition ids, in local slot order.
    partitions: Vec<usize>,
}

impl<const W: usize> FrontierSink<Gpsi<W>, WorkerState> for EngineShardSink<'_> {
    fn capture(&self, superstep: u32, states: &[WorkerState], frontier: &[Vec<Chunk<Gpsi<W>>>]) {
        let shards = self
            .partitions
            .iter()
            .zip(states.iter().zip(frontier))
            .map(|(&partition, (ws, inbox))| Checkpoint {
                guard: self.guard,
                superstep,
                carried: CarriedCounters::default(),
                prior_supersteps: Vec::new(),
                parts: vec![PartCheckpoint {
                    partition: partition as u32,
                    worker: snapshot_worker(ws),
                    frontier: inbox
                        .iter()
                        .flat_map(|c| c.iter().map(|(v, g)| (*v, g.with_width())))
                        .collect(),
                }],
            })
            .collect();
        self.sink.capture(shards);
    }
}

/// Assembles [`RunStats`] from merged expansion counters and engine
/// metrics. Public so the cluster coordinator can aggregate worker
/// metrics into the same stats shape a single-process run reports.
pub fn assemble_run_stats(expand: ExpandStats, metrics: &EngineMetrics) -> RunStats {
    let carried = &metrics.carried;
    RunStats {
        expand,
        per_worker_cost: metrics.per_worker_cost(),
        simulated_makespan: metrics.simulated_makespan(),
        supersteps: metrics.superstep_count(),
        messages: metrics.total_messages(),
        messages_local: metrics.total_local_delivered(),
        bytes_exchanged: metrics.total_bytes_exchanged(),
        messages_out_per_superstep: metrics.supersteps.iter().map(|s| s.messages_out()).collect(),
        messages_in_per_superstep: metrics
            .supersteps
            .iter()
            .map(|s| s.workers.iter().map(|w| w.messages_in).sum())
            .collect(),
        pool_exhausted: carried.pool_exhausted,
        chunks_outstanding: metrics.chunks_outstanding,
        chunks_live_peak: carried.chunks_live_peak as i64,
        spill_chunks: carried.spill_chunks,
        spill_bytes: carried.spill_bytes,
        spill_stall_ms: carried.spill_stall_nanos / 1_000_000,
        readmitted_chunks: carried.readmitted_chunks,
        wall_time: metrics.wall_time,
        cost_imbalance: metrics.cost_imbalance(),
        frames_sent: metrics.total_frames_sent(),
        frames_received: metrics.total_frames_received(),
        wire_bytes_sent: metrics.total_wire_bytes_sent(),
        wire_bytes_received: metrics.total_wire_bytes_received(),
        barrier_wait_nanos: metrics.total_barrier_wait_nanos(),
        barrier_wait_per_superstep: metrics.barrier_wait_per_superstep(),
        compute_nanos_per_superstep: metrics.compute_nanos_per_superstep(),
        exchange_nanos_per_superstep: metrics.exchange_nanos_per_superstep(),
        spill_stall_per_superstep: metrics.spill_stall_per_superstep(),
        spill_write_failures: carried.spill_write_failures,
    }
}

/// Assembles the result skeleton from merged counters and engine metrics.
fn assemble_listing(
    shared: &PsglShared<'_>,
    expand: ExpandStats,
    metrics: &EngineMetrics,
) -> ListingResult {
    ListingResult {
        instance_count: expand.results,
        instances: None,
        per_vertex: None,
        stats: assemble_run_stats(expand, metrics),
        init_vertex: shared.init_vertex,
        selection_rule: shared.selection_rule,
    }
}

/// Runs the vertex program as `request` describes: the superstep loop
/// entered from `request.start`, executed under `request.hooks`, until it
/// completes or `request.stop` ends it — the one way into the BSP engine.
///
/// The run's messages carry Gpsis at the pattern's [`message_width`],
/// except a cluster member's: its exchange and `PSGW` frames carry 12-slot
/// Gpsis.
pub fn run(
    shared: &PsglShared<'_>,
    config: &PsglConfig,
    mut request: RunRequest<'_>,
) -> Result<ListingEnd, PsglError> {
    match request.cluster.take() {
        Some(ClusterMember { exchange, shard_sink }) => {
            run_at(shared, config, request, Some(Member { exchange, shard_sink }))
        }
        None => match message_width(shared.pattern.num_vertices()) {
            4 => run_at::<4>(shared, config, request, None),
            8 => run_at::<8>(shared, config, request, None),
            _ => run_at::<12>(shared, config, request, None),
        },
    }
}

/// A [`ClusterMember`] of a run whose messages carry `W` slots.
struct Member<'a, const W: usize> {
    exchange: &'a dyn Exchange<Gpsi<W>>,
    shard_sink: Option<&'a dyn ShardSink>,
}

/// [`run`] with `W`-slot messages; `request.cluster` has been moved to
/// `cluster`.
fn run_at<const W: usize>(
    shared: &PsglShared<'_>,
    config: &PsglConfig,
    request: RunRequest<'_>,
    cluster: Option<Member<'_, W>>,
) -> Result<ListingEnd, PsglError> {
    let RunRequest { start, hooks, stop, harvest, .. } = request;
    let harvest = match harvest {
        Harvest::PerVertex => Harvested::PerVertex(Vec::new()),
        Harvest::Listing if config.collect_instances => Harvested::Instances(Vec::new()),
        Harvest::Listing => Harvested::CountOnly,
    };
    let partitioner = hooks
        .partitioner
        .unwrap_or_else(|| HashPartitioner::with_salt(config.workers, hash_u64(config.seed)));
    let program = PsglProgram::<W> {
        shared,
        config,
        harvest,
        defer_budget: stop.checkpoint && config.gpsi_budget.is_some(),
    };
    let mut bsp_config = BspConfig {
        max_supersteps: config.max_supersteps,
        // The per-worker budget also bounds the global in-flight volume.
        message_budget: config.gpsi_budget.map(|b| b.saturating_mul(config.workers as u64)),
        max_live_chunks: hooks.max_live_chunks,
        exchange_shuffle_seed: hooks.exchange_shuffle_seed,
        ..Default::default()
    };
    if let Some(capacity) = hooks.chunk_capacity {
        bsp_config.chunk_capacity = capacity;
    }
    let executor: &dyn psgl_bsp::Executor = hooks.executor.unwrap_or(&psgl_bsp::ThreadExecutor);
    // Built on first use — resume validation, the shard sink, checkpoint
    // capture — and at most once; a run with none of them never hashes
    // the graph.
    let guard_cell = std::cell::OnceCell::new();
    let guard = || *guard_cell.get_or_init(|| guard_of(shared, config, &program.harvest));
    // Global partition ids hosted here, in local slot order.
    let locals = || match &cluster {
        Some(member) => member.exchange.local_partitions(),
        None => (0..config.workers).collect(),
    };
    let resume = match start {
        Start::Init => None,
        Start::Checkpoint(cp) => {
            cp.validate(&guard())?;
            Some(restore(config, cp, &locals())?)
        }
        Start::Seeds(seeds) => {
            let worker_states =
                (0..config.workers).map(|w| program.create_worker_state(w)).collect();
            let mut frontier: Vec<Vec<(VertexId, Gpsi<W>)>> = vec![Vec::new(); config.workers];
            for g in seeds {
                let dest = g.map(g.expanding()).expect("seed expanding vertex is mapped");
                frontier[partitioner.owner(dest)].push((dest, g.with_width()));
            }
            Some(ResumePoint {
                superstep: 1,
                frontier,
                worker_states,
                prior_supersteps: Vec::new(),
                carried: CarriedCounters::default(),
            })
        }
    };
    // The superstep the engine's first per-superstep metrics entry
    // describes: a seeded start runs no superstep 0.
    let first_superstep = resume
        .as_ref()
        .map_or(0, |rp| (rp.superstep as usize).saturating_sub(rp.prior_supersteps.len()));
    let shard_sink = cluster.as_ref().and_then(|member| {
        member.shard_sink.map(|sink| EngineShardSink { sink, guard: guard(), partitions: locals() })
    });
    // The spill tier is disabled under a cluster exchange, where the
    // message plane owns inter-worker buffering. The store created here
    // owns the per-run spill directory: dropping this frame — clean
    // finish, cancel, preempt, `?` error, panic unwind — deletes every
    // blob.
    let spill_store = match &hooks.spill {
        Some(sc) if cluster.is_none() => Some(SpillStore::create(sc).map_err(|error| {
            PsglError::Engine(psgl_bsp::BspError::Spill { superstep: 0, error })
        })?),
        _ => None,
    };
    // A slice is the cancel token's preempt barrier, armed for exactly
    // this call; a sliced run that brought no token gets a private one.
    let slice_token = stop.slice.filter(|_| stop.cancel.is_none()).map(|_| CancelToken::new());
    let cancel = stop.cancel.or(slice_token.as_ref());
    let armed = cancel.zip(stop.slice);
    if let Some((token, supersteps)) = armed {
        let base = resume.as_ref().map_or(0, |rp| rp.superstep);
        token.set_preempt_barrier(base.saturating_add(supersteps.max(1)));
    }
    let control = RunControl {
        cancel,
        // In-engine whole-run checkpoint capture needs every partition's
        // state; a cluster member checkpoints through the shard sink.
        checkpoint: stop.checkpoint && cluster.is_none(),
        resume,
        exchange: cluster.as_ref().map(|member| member.exchange),
        sink: shard_sink.as_ref().map(|s| s as &dyn FrontierSink<Gpsi<W>, WorkerState>),
        spill: spill_store.as_ref(),
        tracer: hooks.tracer,
    };
    let outcome = psgl_bsp::run_controlled(
        shared.graph.num_vertices(),
        &partitioner,
        &program,
        &bsp_config,
        executor,
        control,
    );
    if let Some((token, _)) = armed {
        token.clear_preempt_barrier();
    }
    // The spill directory is about to be swept by the store's drop guard;
    // record what it held so a degraded run's disk traffic is attributable
    // after the fact. Seeded tracers omit the path (it embeds a per-run
    // serial that would break event-stream determinism).
    if let (Some(t), Some(store)) = (hooks.tracer, spill_store.as_ref()) {
        let mut fields = vec![
            ("spilled_chunks", psgl_obs::Value::U64(store.spilled_chunks())),
            ("spilled_bytes", psgl_obs::Value::U64(store.spilled_bytes())),
            ("readmitted_chunks", psgl_obs::Value::U64(store.readmitted())),
            ("write_failures", psgl_obs::Value::U64(store.write_failures())),
        ];
        if !t.is_seeded() {
            fields.push(("dir", psgl_obs::Value::Str(store.dir().display().to_string())));
        }
        t.event("spill_dir_cleaned", &fields);
    }
    let outcome = outcome.map_err(|e| match e {
        // Report the configured per-worker budget, not the engine's
        // global derived one.
        psgl_bsp::BspError::MessageBudgetExceeded { in_flight, .. } => {
            PsglError::OutOfMemory { in_flight, budget: config.gpsi_budget.unwrap_or(0) }
        }
        other => PsglError::Engine(other),
    })?;
    match outcome {
        RunOutcome::Complete(result) => {
            if let Some(ws) = result.worker_states.iter().find(|ws| ws.failed) {
                // What every worker sent in the superstep that tripped the
                // budget: the frontier the run could not hold.
                let tripped = (ws.emitted_superstep as usize).checked_sub(first_superstep);
                let in_flight = tripped
                    .and_then(|s| result.metrics.supersteps.get(s))
                    .map_or(0, |s| s.messages_out());
                return Err(PsglError::OutOfMemory {
                    in_flight,
                    budget: config.gpsi_budget.unwrap_or(0),
                });
            }
            let mut expand = ExpandStats::default();
            for ws in &result.worker_states {
                expand.merge(&ws.stats);
            }
            let mut listing = assemble_listing(shared, expand, &result.metrics);
            attach_harvest(&mut listing, result.worker_states);
            Ok(ListingEnd::Complete(listing))
        }
        RunOutcome::Cancelled(c) => {
            let mut expand = ExpandStats::default();
            for ws in &c.worker_states {
                expand.merge(&ws.stats);
            }
            let mut partial = assemble_listing(shared, expand, &c.metrics);
            let checkpoint = c.frontier.map(|frontier| Checkpoint {
                guard: guard(),
                superstep: c.superstep,
                carried: c.metrics.carried,
                prior_supersteps: c.metrics.supersteps,
                parts: (locals().into_iter().zip(c.worker_states.iter().zip(frontier)))
                    .map(|(partition, (ws, frontier))| PartCheckpoint {
                        partition: partition as u32,
                        worker: snapshot_worker(ws),
                        frontier: frontier.into_iter().map(|(v, g)| (v, g.with_width())).collect(),
                    })
                    .collect(),
            });
            attach_harvest(&mut partial, c.worker_states);
            Ok(match (c.reason, checkpoint) {
                (CancelReason::Preempted, Some(checkpoint)) => ListingEnd::Preempted {
                    superstep: c.superstep,
                    partial,
                    checkpoint: Box::new(checkpoint),
                },
                (reason, checkpoint) => ListingEnd::Cancelled(Box::new(CancelledListing {
                    reason,
                    superstep: c.superstep,
                    partial,
                    checkpoint,
                })),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::Strategy;
    use psgl_graph::generators::{chung_lu, erdos_renyi_gnm};
    use psgl_graph::DataGraph;
    use psgl_pattern::catalog;

    fn k4() -> DataGraph {
        DataGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    fn list_subgraphs_labeled(
        graph: &DataGraph,
        pattern: &Pattern,
        data_labels: Vec<psgl_pattern::labeled::Label>,
        pattern_labels: Vec<psgl_pattern::labeled::Label>,
        config: &PsglConfig,
    ) -> Result<ListingResult, PsglError> {
        let shared =
            PsglShared::prepare_labeled(graph, pattern, config, data_labels, pattern_labels)?;
        list_subgraphs_prepared(&shared, config)
    }

    /// Stops at `token`'s trigger, capturing a checkpoint if it is soft.
    fn checkpointing(token: &CancelToken) -> RunRequest<'_> {
        let stop = Stop { cancel: Some(token), checkpoint: true, slice: None };
        RunRequest { stop, ..Default::default() }
    }

    fn resuming(cp: Checkpoint) -> RunRequest<'static> {
        RunRequest { start: Start::Checkpoint(cp), ..Default::default() }
    }

    fn one_superstep_from(start: Start) -> RunRequest<'static> {
        let stop = Stop { slice: Some(1), ..Default::default() };
        RunRequest { start, stop, ..Default::default() }
    }

    fn count_per_vertex(graph: &DataGraph, pattern: &Pattern, workers: usize) -> ListingResult {
        let config = PsglConfig::with_workers(workers);
        let shared = PsglShared::prepare(graph, pattern, &config).unwrap();
        let request = RunRequest { harvest: Harvest::PerVertex, ..Default::default() };
        run(&shared, &config, request).unwrap().completed()
    }

    #[test]
    fn counts_on_k4_match_hand_counts() {
        let g = k4();
        let c = PsglConfig::with_workers(2);
        assert_eq!(list_subgraphs(&g, &catalog::triangle(), &c).unwrap().instance_count, 4);
        assert_eq!(list_subgraphs(&g, &catalog::square(), &c).unwrap().instance_count, 3);
        assert_eq!(list_subgraphs(&g, &catalog::four_clique(), &c).unwrap().instance_count, 1);
        assert_eq!(list_subgraphs(&g, &catalog::tailed_triangle(), &c).unwrap().instance_count, 12);
    }

    #[test]
    fn counts_invariant_across_strategies_and_workers() {
        let g = erdos_renyi_gnm(150, 900, 11).unwrap();
        let reference = list_subgraphs(&g, &catalog::triangle(), &PsglConfig::with_workers(1))
            .unwrap()
            .instance_count;
        assert!(reference > 0, "dense-ish ER graph should contain triangles");
        for (_, strategy) in Strategy::paper_variants() {
            for workers in [2, 5] {
                let c = PsglConfig::with_workers(workers).strategy(strategy);
                let got = list_subgraphs(&g, &catalog::triangle(), &c).unwrap().instance_count;
                assert_eq!(got, reference, "{strategy:?} x {workers}");
            }
        }
    }

    #[test]
    fn capped_spilling_run_matches_uncapped_across_strategies() {
        // The out-of-core acceptance gate: a run whose live-chunk cap is
        // clamped to <= 25% of the uncapped run's peak must serve the
        // bit-identical instance multiset by spilling cold frontier chunks
        // to disk, across every paper distribution strategy.
        let g = chung_lu(400, 8.0, 2.2, 5).unwrap();
        let pattern = catalog::square();
        for (name, strategy) in Strategy::paper_variants() {
            let config = PsglConfig::with_workers(3).strategy(strategy).collect(true);
            let shared = PsglShared::prepare(&g, &pattern, &config).unwrap();
            // Fine-grained chunks so this graph's frontier spans enough of
            // them for a 25% cap to be meaningful.
            let base_hooks = RunnerHooks { chunk_capacity: Some(32), ..Default::default() };
            let base = list_subgraphs_prepared_with(&shared, &config, &base_hooks).unwrap();
            let peak = base.stats.chunks_live_peak;
            assert!(peak > 4, "{name}: uncapped peak {peak} leaves no room to cap");
            let cap = (peak / 4).max(1) as u64;
            let hooks = RunnerHooks {
                chunk_capacity: Some(32),
                max_live_chunks: Some(cap),
                spill: Some(psgl_bsp::SpillConfig::in_temp()),
                ..Default::default()
            };
            let capped = list_subgraphs_prepared_with(&shared, &config, &hooks).unwrap();
            let mut want = base.instances.clone().unwrap();
            let mut got = capped.instances.clone().unwrap();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{name}: instance multiset diverged under the cap");
            let stats = &capped.stats;
            assert!(stats.spill_chunks > 0, "{name}: capped run never touched the disk");
            assert!(stats.spill_bytes > 0, "{name}: spilled chunks carried no bytes");
            assert_eq!(
                stats.readmitted_chunks, stats.spill_chunks,
                "{name}: spilled and re-admitted chunk counts diverge on a complete run"
            );
            assert_eq!(stats.chunks_outstanding, 0, "{name}: pooled chunks leaked");
            assert!(
                stats.chunks_live_peak <= peak,
                "{name}: capped peak {} above uncapped {peak}",
                stats.chunks_live_peak
            );
        }
    }

    #[test]
    fn collected_instances_are_valid_and_distinct() {
        let g = erdos_renyi_gnm(80, 400, 3).unwrap();
        let c = PsglConfig::with_workers(3).collect(true);
        let res = list_subgraphs(&g, &catalog::triangle(), &c).unwrap();
        let instances = res.instances.unwrap();
        assert_eq!(instances.len() as u64, res.instance_count);
        let mut keys: Vec<Vec<u32>> = instances
            .iter()
            .map(|i| {
                let mut k = i.clone();
                k.sort_unstable();
                k
            })
            .collect();
        for (inst, key) in instances.iter().zip(&keys) {
            assert!(g.has_edge(inst[0], inst[1]));
            assert!(g.has_edge(inst[1], inst[2]));
            assert!(g.has_edge(inst[0], inst[2]));
            assert_eq!(key.windows(2).filter(|w| w[0] == w[1]).count(), 0);
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), instances.len(), "duplicate instances listed");
    }

    #[test]
    fn index_off_still_correct_but_generates_more_gpsis() {
        let g = chung_lu(400, 8.0, 2.2, 5).unwrap();
        let with = list_subgraphs(&g, &catalog::square(), &PsglConfig::with_workers(2)).unwrap();
        let without =
            list_subgraphs(&g, &catalog::square(), &PsglConfig::with_workers(2).edge_index(false))
                .unwrap();
        assert_eq!(with.instance_count, without.instance_count);
        assert!(
            without.stats.expand.generated >= with.stats.expand.generated,
            "index must not increase Gpsi volume ({} vs {})",
            without.stats.expand.generated,
            with.stats.expand.generated
        );
    }

    #[test]
    fn gpsi_budget_reports_simulated_oom() {
        let g = chung_lu(500, 10.0, 1.8, 6).unwrap();
        let c = PsglConfig { gpsi_budget: Some(10), ..PsglConfig::with_workers(2) };
        match list_subgraphs(&g, &catalog::square(), &c) {
            Err(PsglError::OutOfMemory { in_flight, budget: 10 }) => assert!(in_flight > 10),
            other => panic!("expected OOM, got {other:?}"),
        }
        // The per-worker trip: a budget the 500 initial Gpsis fit under, so
        // the barrier check passes, and workers that outgrow it while
        // expanding. Each stops sending at the budget, so the barrier never
        // sees the excess: the run drains and reports what both workers
        // sent in the superstep that tripped it, at most 500 each.
        let c = PsglConfig { gpsi_budget: Some(500), ..PsglConfig::with_workers(2).kernels(false) };
        match list_subgraphs(&g, &catalog::square(), &c) {
            Err(PsglError::OutOfMemory { in_flight, budget: 500 }) => assert_eq!(in_flight, 921),
            other => panic!("expected the per-worker OOM, got {other:?}"),
        }
    }

    #[test]
    fn superstep_count_obeys_theorem_1_upper_bound() {
        // S ≤ |Vp| - 1 expansion supersteps; plus the initialization
        // superstep and the final empty superstep in our engine accounting.
        let g = erdos_renyi_gnm(100, 500, 8).unwrap();
        for p in catalog::paper_patterns() {
            let res = list_subgraphs(&g, &p, &PsglConfig::with_workers(2)).unwrap();
            let expansion_steps = res.stats.supersteps.saturating_sub(2);
            assert!(
                expansion_steps <= p.num_vertices(),
                "{p:?}: {expansion_steps} expansion supersteps"
            );
        }
    }

    #[test]
    fn single_vertex_pattern_counts_vertices() {
        let g = erdos_renyi_gnm(50, 100, 4).unwrap();
        let res = list_subgraphs(&g, &catalog::path(1), &PsglConfig::with_workers(2)).unwrap();
        assert_eq!(res.instance_count, 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = chung_lu(300, 6.0, 2.0, 9).unwrap();
        let c = PsglConfig::with_workers(3).strategy(Strategy::Random).seed(5);
        let a = list_subgraphs(&g, &catalog::square(), &c).unwrap();
        let b = list_subgraphs(&g, &catalog::square(), &c).unwrap();
        assert_eq!(a.instance_count, b.instance_count);
        assert_eq!(a.stats.per_worker_cost, b.stats.per_worker_cost);
        assert_eq!(a.stats.messages, b.stats.messages);
    }

    #[test]
    fn clique_listing_uses_verification_supersteps() {
        // Section 7.2: "For the clique pattern graph, it only generates
        // the partial subgraph instances in the first iteration and the
        // following iterations are for the verification." After the first
        // expansion every vertex is mapped, so later supersteps only
        // verify.
        let g = erdos_renyi_gnm(120, 900, 14).unwrap();
        let res =
            list_subgraphs(&g, &catalog::four_clique(), &PsglConfig::with_workers(2)).unwrap();
        assert!(res.instance_count > 0, "dense ER graph should contain 4-cliques");
        // Supersteps: init + first expansion + 2 verification rounds
        // (Theorem 1: |MVC| = 3 expansion steps for K4) + final empty.
        assert!(res.stats.supersteps <= 5, "got {}", res.stats.supersteps);
        // Every instance goes through the two verification expansions.
        assert!(res.stats.expand.expanded >= res.instance_count * 2);
    }

    #[test]
    fn larger_cycles_and_cliques_work_at_engine_limit() {
        let g = erdos_renyi_gnm(60, 400, 25).unwrap();
        for p in [catalog::cycle(7), catalog::clique(5), catalog::cycle(8)] {
            let res = list_subgraphs(&g, &p, &PsglConfig::with_workers(2)).unwrap();
            // Cross-checked against the oracle in the integration tests;
            // here we assert the run completes within Theorem 1's bound.
            assert!(res.stats.supersteps <= p.num_vertices() + 2, "{p:?}");
        }
    }

    #[test]
    fn labeled_matching_on_k4() {
        let g = k4();
        // Labels: vertices 0,1 are "A"(=1), vertices 2,3 are "B"(=2).
        let data_labels = vec![1, 1, 2, 2];
        // Triangle with pattern labels A, A, B: both A's and one of two
        // B's: 2 instances (012, 013).
        let res = list_subgraphs_labeled(
            &g,
            &catalog::triangle(),
            data_labels.clone(),
            vec![1, 1, 2],
            &PsglConfig::with_workers(2),
        )
        .unwrap();
        assert_eq!(res.instance_count, 2);
        // All-A triangle: needs 3 A-vertices, only 2 exist.
        let res = list_subgraphs_labeled(
            &g,
            &catalog::triangle(),
            data_labels.clone(),
            vec![1, 1, 1],
            &PsglConfig::with_workers(2),
        )
        .unwrap();
        assert_eq!(res.instance_count, 0);
        // Path A-B-B has only the identity label-preserving automorphism,
        // so count = embeddings: a ∈ {0,1} × (b,c) ordered from {2,3}: 4.
        let res = list_subgraphs_labeled(
            &g,
            &catalog::path(3),
            data_labels,
            vec![1, 2, 2],
            &PsglConfig::with_workers(2),
        )
        .unwrap();
        assert_eq!(res.instance_count, 4);
    }

    #[test]
    fn labeled_with_uniform_labels_equals_unlabeled() {
        let g = erdos_renyi_gnm(80, 400, 6).unwrap();
        for p in [catalog::triangle(), catalog::square()] {
            let plain =
                list_subgraphs(&g, &p, &PsglConfig::with_workers(2)).unwrap().instance_count;
            let labeled = list_subgraphs_labeled(
                &g,
                &p,
                vec![0; g.num_vertices()],
                vec![0; p.num_vertices()],
                &PsglConfig::with_workers(2),
            )
            .unwrap()
            .instance_count;
            assert_eq!(plain, labeled, "{p:?}");
        }
    }

    #[test]
    fn labeled_rejects_bad_label_lengths() {
        let g = k4();
        assert!(matches!(
            list_subgraphs_labeled(
                &g,
                &catalog::triangle(),
                vec![1, 1],
                vec![1, 1, 1],
                &PsglConfig::default()
            ),
            Err(PsglError::LabelLengthMismatch { expected: 4, got: 2 })
        ));
        assert!(matches!(
            list_subgraphs_labeled(
                &g,
                &catalog::triangle(),
                vec![1; 4],
                vec![1; 2],
                &PsglConfig::default()
            ),
            Err(PsglError::LabelLengthMismatch { expected: 3, got: 2 })
        ));
    }

    #[test]
    fn per_vertex_counts_sum_and_localize() {
        let g = k4();
        let result = count_per_vertex(&g, &catalog::triangle(), 2);
        // K4: each vertex lies in C(3,2) = 3 triangles.
        assert_eq!(result.per_vertex, Some(vec![3, 3, 3, 3]));
        assert_eq!(result.instance_count, 4);
        // A path graph has no triangles anywhere.
        let p = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let result = count_per_vertex(&p, &catalog::triangle(), 2);
        assert_eq!(result.per_vertex, Some(vec![0, 0, 0, 0]));
    }

    #[test]
    fn per_vertex_counts_match_collected_instances() {
        let g = erdos_renyi_gnm(70, 350, 19).unwrap();
        let counts = count_per_vertex(&g, &catalog::square(), 3).per_vertex.unwrap();
        let collected =
            list_subgraphs(&g, &catalog::square(), &PsglConfig::with_workers(3).collect(true))
                .unwrap()
                .instances
                .unwrap();
        let mut expected = vec![0u64; g.num_vertices()];
        for inst in collected {
            for v in inst {
                expected[v as usize] += 1;
            }
        }
        assert_eq!(counts, expected);
    }

    #[test]
    fn without_automorphism_breaking_counts_multiply_by_aut() {
        let g = erdos_renyi_gnm(60, 300, 15).unwrap();
        for (p, aut) in
            [(catalog::triangle(), 6), (catalog::square(), 8), (catalog::tailed_triangle(), 2)]
        {
            let broken = list_subgraphs(&g, &p, &PsglConfig::with_workers(2)).unwrap();
            let unbroken = list_subgraphs(
                &g,
                &p,
                &PsglConfig { break_automorphisms: false, ..PsglConfig::with_workers(2) },
            )
            .unwrap();
            assert_eq!(
                unbroken.instance_count,
                broken.instance_count * aut,
                "{p:?}: every instance should appear |Aut| times without breaking"
            );
        }
    }

    #[test]
    fn empty_graph_lists_nothing() {
        let g = DataGraph::from_edges(0, &[]).unwrap();
        let res = list_subgraphs(&g, &catalog::triangle(), &PsglConfig::with_workers(2)).unwrap();
        assert_eq!(res.instance_count, 0);
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        let g = erdos_renyi_gnm(120, 700, 21).unwrap();
        // Generic odometer: the two-hop kernel closes squares in the first
        // expansion superstep, before the deadline this test relies on.
        let config = PsglConfig::with_workers(3).collect(true).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let full = list_subgraphs_prepared(&shared, &config).unwrap();
        assert!(full.instance_count > 0, "reference run should find squares");

        let token = CancelToken::with_superstep_deadline(2);
        let end = run(&shared, &config, checkpointing(&token)).unwrap();
        let ListingEnd::Cancelled(cancelled) = end else { panic!("run should hit the deadline") };
        assert_eq!(cancelled.reason, CancelReason::Deadline);
        assert_eq!(cancelled.superstep, 2);
        assert!(cancelled.partial.instance_count <= full.instance_count);
        let cp = cancelled.checkpoint.expect("soft cancel captures a checkpoint");

        // Through the wire format and back — the service's resume-token path.
        let cp = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        let end = run(&shared, &config, resuming(cp)).unwrap();
        let ListingEnd::Complete(resumed) = end else { panic!("resumed run should complete") };
        assert_eq!(resumed.instance_count, full.instance_count);
        assert_eq!(resumed.instances, full.instances);
        assert_eq!(resumed.stats.messages, full.stats.messages);
        assert_eq!(resumed.stats.per_worker_cost, full.stats.per_worker_cost);
        assert_eq!(resumed.stats.supersteps, full.stats.supersteps);
        assert_eq!(resumed.stats.chunks_outstanding, 0);
    }

    #[test]
    fn checkpoint_guard_is_built_only_where_it_is_consumed() {
        let g = erdos_renyi_gnm(120, 700, 21).unwrap();
        let config = PsglConfig::with_workers(3).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let built = || GUARDS_BUILT.with(|n| n.get());
        let before = built();
        // No controls: nothing can capture or validate a checkpoint.
        list_subgraphs_prepared(&shared, &config).unwrap();
        let seeded = RunRequest { start: Start::Seeds(Vec::new()), ..Default::default() };
        run(&shared, &config, seeded).unwrap();
        assert_eq!(built(), before, "an uncontrolled run hashed the whole graph");
        // A checkpointed cancel captures with it, a resume validates with
        // it — once each.
        let token = CancelToken::with_superstep_deadline(2);
        let end = run(&shared, &config, checkpointing(&token)).unwrap();
        let ListingEnd::Cancelled(cancelled) = end else { panic!("run should hit the deadline") };
        assert_eq!(built(), before + 1);
        run(&shared, &config, resuming(cancelled.checkpoint.unwrap())).unwrap();
        assert_eq!(built(), before + 2);
    }

    #[test]
    fn sliced_run_reproduces_uninterrupted_run() {
        let g = erdos_renyi_gnm(120, 700, 21).unwrap();
        // Generic odometer keeps the square run alive past several
        // barriers so slicing actually preempts.
        let config = PsglConfig::with_workers(3).collect(true).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let full = list_subgraphs_prepared(&shared, &config).unwrap();
        assert!(full.instance_count > 0, "reference run should find squares");

        let mut start = Start::Init;
        let mut preemptions = 0;
        let finished = loop {
            match run(&shared, &config, one_superstep_from(start)).unwrap() {
                ListingEnd::Complete(result) => break result,
                ListingEnd::Preempted { superstep, partial, checkpoint } => {
                    assert!(partial.instance_count <= full.instance_count);
                    assert_eq!(checkpoint.superstep, superstep);
                    preemptions += 1;
                    // Through the wire format and back, as the service's
                    // checkpoint store would do.
                    start =
                        Start::Checkpoint(Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap());
                }
                ListingEnd::Cancelled(c) => panic!("unexpected cancel: {:?}", c.reason),
            }
            assert!(preemptions < 64, "sliced run must converge");
        };
        assert!(preemptions >= 2, "one-superstep slices must preempt repeatedly");
        assert_eq!(finished.instance_count, full.instance_count);
        assert_eq!(finished.instances, full.instances);
        assert_eq!(finished.stats.messages, full.stats.messages);
        assert_eq!(finished.stats.supersteps, full.stats.supersteps);
        assert_eq!(finished.stats.chunks_outstanding, 0);
    }

    #[test]
    fn drained_slices_partition_the_instance_multiset() {
        let g = erdos_renyi_gnm(120, 700, 21).unwrap();
        let config = PsglConfig::with_workers(3).collect(true).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let full = list_subgraphs_prepared(&shared, &config).unwrap();

        let mut start = Start::Init;
        let mut pages: Vec<Vec<psgl_graph::csr::VertexId>> = Vec::new();
        let finished = loop {
            match run(&shared, &config, one_superstep_from(start)).unwrap() {
                ListingEnd::Complete(result) => break result,
                ListingEnd::Preempted { mut checkpoint, .. } => {
                    pages.extend(checkpoint.drain_instances());
                    start = Start::Checkpoint(*checkpoint);
                }
                ListingEnd::Cancelled(c) => panic!("unexpected cancel: {:?}", c.reason),
            }
        };
        // Draining between slices never disturbs the count; the pages
        // plus the final tail are exactly the full multiset. (With the
        // stock expansion every instance completes at the same superstep
        // — one pattern vertex per superstep — so mid-run drains are
        // empty and the tail carries everything; the invariant must hold
        // either way.)
        assert_eq!(finished.instance_count, full.instance_count);
        pages.extend(finished.instances.unwrap());
        pages.sort_unstable();
        assert_eq!(Some(pages), full.instances);
    }

    #[test]
    fn explicit_cancel_returns_partial_without_checkpoint() {
        let g = erdos_renyi_gnm(100, 500, 8).unwrap();
        let config = PsglConfig::with_workers(2);
        let shared = PsglShared::prepare(&g, &catalog::triangle(), &config).unwrap();
        let token = CancelToken::new();
        token.cancel(CancelReason::Explicit);
        let end = run(&shared, &config, checkpointing(&token)).unwrap();
        let ListingEnd::Cancelled(c) = end else { panic!("pre-cancelled run cannot complete") };
        assert_eq!(c.reason, CancelReason::Explicit);
        assert!(c.checkpoint.is_none(), "hard cancels capture no checkpoint");
        assert_eq!(c.partial.stats.chunks_outstanding, 0);
    }

    #[test]
    fn budget_cancel_with_checkpoint_resumes_under_higher_budget() {
        let g = chung_lu(500, 10.0, 1.8, 6).unwrap();
        let config = PsglConfig::with_workers(2);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let full = list_subgraphs_prepared(&shared, &config).unwrap();

        let tight = PsglConfig { gpsi_budget: Some(10), ..PsglConfig::with_workers(2) };
        let stop = Stop { checkpoint: true, ..Default::default() };
        let end = run(&shared, &tight, RunRequest { stop, ..Default::default() }).unwrap();
        let ListingEnd::Cancelled(c) = end else { panic!("tight budget must fire") };
        assert_eq!(c.reason, CancelReason::Budget);
        let cp = c.checkpoint.expect("budget cancel with checkpointing is resumable");

        // The guard does not pin the budget: the same run resumes without
        // one and completes exactly.
        let end = run(&shared, &config, resuming(cp)).unwrap();
        let ListingEnd::Complete(resumed) = end else { panic!("resumed run should complete") };
        assert_eq!(resumed.instance_count, full.instance_count);
    }

    /// A checkpoint's parts must be exactly the hosted partitions: one
    /// missing or one too many is a typed error, through `run` as well as
    /// `restore`, never an engine assert.
    #[test]
    fn restore_requires_exactly_the_hosted_partitions() {
        let g = erdos_renyi_gnm(120, 700, 21).unwrap();
        let config = PsglConfig::with_workers(3).collect(true).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let ListingEnd::Preempted { checkpoint, .. } =
            run(&shared, &config, one_superstep_from(Start::Init)).unwrap()
        else {
            panic!("the initialization superstep leaves a frontier")
        };
        assert!(restore::<4>(&config, (*checkpoint).clone(), &[0, 1, 2]).is_ok());
        // An extra part: partition 1 is not hosted.
        let err = restore::<4>(&config, (*checkpoint).clone(), &[0, 2]).err().expect("extra part");
        assert!(matches!(&err, PsglError::Checkpoint(e) if e.message.contains("[0, 1, 2]")));
        // A missing part.
        let mut missing = *checkpoint;
        missing.parts.remove(1);
        let err = restore::<4>(&config, missing.clone(), &[0, 1, 2]).err().expect("missing part");
        assert!(matches!(&err, PsglError::Checkpoint(e) if e.message.contains("[0, 2]")));
        match run(&shared, &config, resuming(missing)) {
            Err(PsglError::Checkpoint(_)) => {}
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("a checkpoint without partition 1 resumed"),
        }
    }

    /// A square's run carries 4-slot messages: a checkpoint tuple that
    /// maps slot 4 is rejected at restore, not narrowed away.
    #[test]
    fn restore_rejects_a_frontier_wider_than_the_message_width() {
        let g = erdos_renyi_gnm(120, 700, 21).unwrap();
        let config = PsglConfig::with_workers(3).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let ListingEnd::Preempted { mut checkpoint, .. } =
            run(&shared, &config, one_superstep_from(Start::Init)).unwrap()
        else {
            panic!("the initialization superstep leaves a frontier")
        };
        let (_, gpsi) = checkpoint.parts[0].frontier[0];
        let mut wide = gpsi;
        wide.assign(4, 9);
        checkpoint.parts[0].frontier.push((9, wide));
        assert!(restore::<12>(&config, (*checkpoint).clone(), &[0, 1, 2]).is_ok());
        let err = restore::<4>(&config, *checkpoint, &[0, 1, 2]).err().expect("a slot past 4");
        assert!(
            matches!(&err, PsglError::Checkpoint(e) if e.message.contains("past the run's 4")),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_guard_rejects_a_different_run() {
        let g = erdos_renyi_gnm(90, 450, 13).unwrap();
        // Generic odometer so the square run outlives the deadline.
        let config = PsglConfig::with_workers(2).seed(1).kernels(false);
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        let token = CancelToken::with_superstep_deadline(2);
        let end = run(&shared, &config, checkpointing(&token)).unwrap();
        let ListingEnd::Cancelled(c) = end else { panic!("run should hit the deadline") };
        let cp = c.checkpoint.unwrap();

        let other = PsglConfig::with_workers(2).seed(2);
        let other_shared = PsglShared::prepare(&g, &catalog::square(), &other).unwrap();
        let err = match run(&other_shared, &other, resuming(cp)) {
            Err(e) => e,
            Ok(_) => panic!("guard mismatch must be rejected"),
        };
        assert!(matches!(err, PsglError::Checkpoint(_)), "got {err:?}");
    }
}
