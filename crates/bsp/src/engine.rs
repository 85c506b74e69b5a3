//! The BSP engine: the superstep loop and the per-worker task.
//!
//! Messages travel in fixed-capacity chunks recycled through a
//! [`ChunkPool`] (see [`crate::chunk`]): senders fill pooled chunks, the
//! exchange moves them by pointer, and each receiver reads its inbox in
//! place. It orders a retained 12-byte `(vertex, part, slot)` index of
//! its messages by a counting sort on the vertex, not the messages (the
//! crate's `regroup` module), and copies each vertex's messages from the
//! chunks they were delivered in into that vertex's batch. Under a
//! live-chunk cap a worker instead reads its inbox one range of vertices
//! at a time (`read_by_range`), so that what it holds at once is set by
//! the cap, not by the inbox. Steady-state supersteps allocate nothing on
//! the message path.
//!
//! Scheduling is pluggable through the [`Executor`] seam (see
//! [`crate::exec`]): [`run_controlled`] takes the production
//! [`ThreadExecutor`](crate::exec::ThreadExecutor) (one scoped OS thread
//! per worker) or an executor with which tests and the simulation harness
//! drive the same per-worker closures under a deterministic, adversarial
//! schedule.
//!
//! The types on either side of the loop live in their own modules: what a
//! program sees in [`crate::context`], what a caller passes and gets back
//! in [`crate::control`], and the chunk-holding containers in
//! [`crate::frontier`].

use crate::cancel::{CancelReason, CancelToken};
use crate::chunk::{ChunkPool, DEFAULT_CHUNK_CAPACITY};
use crate::context::{timed, Context, Encode, VertexProgram};
use crate::control::{BspResult, CancelledRun, ControlledResult, RunControl, RunOutcome};
use crate::exchange::{ExchangeDirective, WorkerOutbox};
use crate::exec::{Executor, WorkerTask};
use crate::frontier::{Frontier, InboxPart, OutStream};
use crate::metrics::{
    EngineMetrics, NetSuperstepMetrics, SuperstepMetrics, WorkerSuperstepMetrics,
};
use crate::regroup::{order_by_vertex, Key};
use crate::spill::{Block, SpillError, SpillScratch, SpillSegment, SpillStore};
use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use psgl_obs::Value as TraceValue;
use std::ops::Range;
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
    /// [`PoolExhausted`](crate::PoolExhausted) condition and
    /// senders degrade by growing their current chunk instead of
    /// allocating. Exhaustion events surface in
    /// [`CarriedCounters::pool_exhausted`](crate::CarriedCounters::pool_exhausted).
    /// `None` = unbounded (default).
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
    /// A remote [`Exchange`](crate::Exchange) failed — a peer socket died,
    /// a frame failed to decode, or the coordinator vanished. Every pooled
    /// chunk was released before this was reported.
    Exchange {
        /// Superstep whose exchange failed.
        superstep: u32,
        /// Transport-level description of the failure.
        message: String,
    },
    /// The spill tier failed on the read side: a spilled frontier segment
    /// could not be read back (a truncated or corrupt header or block, an
    /// I/O error), before `compute` or in a later range group after it.
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

/// Per-worker scratch retained across supersteps so the hot loop reuses
/// buffers instead of reallocating them.
struct WorkerScratch<M> {
    /// Where the worker's inbox is regrouped.
    inbox: InboxScratch<M>,
    /// Per-vertex message batch handed to `compute`.
    batch: Vec<M>,
    /// Where the worker's sends encode the segments they spill.
    spill: SpillScratch,
}

impl<M> WorkerScratch<M> {
    fn new(num_vertices: usize) -> Self {
        WorkerScratch {
            inbox: InboxScratch {
                num_vertices,
                index: Vec::new(),
                counts: Vec::new(),
                resident: Vec::new(),
                group: Vec::new(),
                pieces: Vec::new(),
                table: Vec::new(),
                raw: Vec::new(),
            },
            batch: Vec::new(),
            spill: SpillScratch::default(),
        }
    }
}

/// The buffers a worker regroups its inbox in.
struct InboxScratch<M> {
    /// Vertices of the graph: the range of message destinations.
    num_vertices: usize,
    /// The regroup index: one `(vertex, part, slot)` key per message being
    /// regrouped, ordered by vertex with delivery order kept within each
    /// vertex (see [`crate::regroup`]).
    index: Vec<Key>,
    /// The counting sort's counts, all zero between regroups.
    counts: Vec<u32>,
    /// Under a live-chunk cap: the resident chunks' messages, copied out
    /// run by run (see [`Piece::Resident`]) so the chunks go back to the
    /// pool before `compute` sends.
    resident: Vec<(VertexId, M)>,
    /// Under a live-chunk cap: the range group being delivered.
    group: Vec<(VertexId, M)>,
    /// Under a live-chunk cap: the inbox's pieces, in delivery order.
    pieces: Vec<Piece>,
    /// Under a live-chunk cap: the block tables of the inbox's segments.
    table: Vec<Block>,
    /// Under a live-chunk cap: the bytes of the last segment read.
    raw: Vec<u8>,
}

/// One piece of a capped worker's inbox, and where its unread messages
/// start.
enum Piece {
    /// A run of consecutive resident chunks, copied out ordered by vertex,
    /// delivery order kept within each: its unread messages are
    /// `resident[next..end]`.
    Resident { next: usize, end: usize },
    /// The segment at `inbox[part]`, holding `tuples` tuples, whose block
    /// table is `table[blocks]`. Its unread tuples start at tuple `next`,
    /// addressed to `vertex`; it is consumed once `next == tuples`.
    Spilled { part: usize, blocks: Range<usize>, tuples: u64, next: u64, vertex: VertexId },
}

impl Piece {
    /// The vertex of the piece's first unread message, if any is left.
    fn next_vertex<M>(&self, resident: &[(VertexId, M)]) -> Option<VertexId> {
        match *self {
            Piece::Resident { next, end } => (next < end).then(|| resident[next].0),
            Piece::Spilled { tuples, next, vertex, .. } => (next < tuples).then_some(vertex),
        }
    }

    /// How many of the piece's unread messages lie below vertex `until`:
    /// exactly for resident ones; for a segment, an upper bound — every
    /// unread tuple of the blocks that start below `until`.
    fn unread_below<M>(
        &self,
        until: u64,
        inbox: &[InboxPart<M>],
        resident: &[(VertexId, M)],
        table: &[Block],
    ) -> u64 {
        match self {
            Piece::Resident { next, end } => {
                resident[*next..*end].partition_point(|t| u64::from(t.0) < until) as u64
            }
            Piece::Spilled { part, blocks, tuples, next, vertex } => {
                if next == tuples || u64::from(*vertex) >= until {
                    return 0;
                }
                let seg = segment(inbox, *part);
                seg.tuples_before(blocks_below(seg, &table[blocks.clone()], *next, until)) - next
            }
        }
    }
}

/// The unconsumed segment at `inbox[part]`.
fn segment<M>(inbox: &[InboxPart<M>], part: usize) -> &SpillSegment {
    match &inbox[part] {
        InboxPart::Spilled(seg) => seg,
        InboxPart::Chunk(_) => unreachable!("a segment leaves its inbox slot with its last tuple"),
    }
}

/// The end of the blocks of `seg` (block table `table`) that a read from
/// its unread tuple `next` up to vertex `until` must cover: past the block
/// holding `next` and every later block that starts below `until`.
fn blocks_below(seg: &SpillSegment, table: &[Block], next: u64, until: u64) -> usize {
    let current = seg.block_of(next);
    current + 1 + table[current + 1..].partition_point(|b| u64::from(b.first) < until)
}

/// How the superstep loop ended. Every way out of a run is one of these,
/// handed to the single epilogue of [`run_controlled`].
enum End<M> {
    /// No messages left in flight.
    Complete,
    /// The token, the budget (with checkpointing) or the exchange's
    /// directive stopped the run; `frontier` is the captured, flattened
    /// frontier of a soft stop.
    Cancelled { reason: CancelReason, superstep: u32, frontier: Option<Vec<Vec<(VertexId, M)>>> },
    /// The run cannot continue.
    Failed(BspError),
}

/// Runs `program` over vertices `0..num_vertices` partitioned by
/// `partitioner`, until no messages remain in flight or `control` stops
/// the run — the crate's one entry point.
///
/// Each superstep is one task per worker on `executor`: index the inbox
/// (resident chunks and spilled segments, in delivery order), group it by
/// vertex, and call `compute` once per vertex with all its messages. The
/// engine is deterministic for deterministic programs: each inbox is
/// assembled in source-worker order (see [`crate::frontier`]) and grouped
/// by vertex with delivery order kept within a vertex. Semantics are
/// identical for every executor that upholds the contract in
/// [`crate::exec`]; only schedule-dependent observables (per-worker wall
/// time, which sends met a capped pool) may differ.
///
/// The token is polled at every superstep barrier and every few message
/// batches inside `compute`. A *hard* cancel (explicit request,
/// disconnect, or a wall-clock deadline without checkpointing) aborts
/// workers mid-superstep and reports [`CancelledRun`] with no frontier; a
/// *soft* cancel (deadline with checkpointing, superstep deadline, or
/// message budget with checkpointing) acts only at a barrier, where the
/// complete undelivered frontier is captured for exact resume.
///
/// There is one way out: the superstep loop yields how it ended, and the
/// epilogue after it returns whatever the frontier and the outboxes still
/// hold to the pool, finalizes the metrics and checks the pool's get/put
/// balance — for completion, cancellation and error alike.
pub fn run_controlled<P: VertexProgram>(
    num_vertices: usize,
    partitioner: &HashPartitioner,
    program: &P,
    config: &BspConfig,
    executor: &dyn Executor,
    control: RunControl<'_, P::Message, P::WorkerState>,
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
    // stay global (`Context::send` routes by the global id).
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
    let (mut states, mut frontier, mut superstep) = match resume {
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
            (rp.worker_states, Frontier::from_tuples(&pool, rp.frontier), rp.superstep)
        }
        None => {
            let states: Vec<P::WorkerState> =
                locals.iter().map(|&w| program.create_worker_state(w)).collect();
            (states, Frontier::empty(l), 0)
        }
    };
    // Owned vertex lists, one per local partition slot: only superstep 0
    // reads them, so a run that starts later (seeds, a resume) skips them.
    let owned: Vec<Vec<VertexId>> = if superstep == 0 {
        partitioner.owned_vertices(num_vertices, &locals)
    } else {
        vec![Vec::new(); l]
    };
    let mut scratches: Vec<WorkerScratch<P::Message>> =
        (0..l).map(|_| WorkerScratch::new(num_vertices)).collect();
    // Spill-store totals — stall nanos, spilled chunks, re-admitted
    // chunks, write failures — as of the last barrier, for per-superstep
    // deltas. The store may be shared across slices of one logical run,
    // so the baseline is its current totals rather than zero.
    let spill_totals = || {
        spill.map_or([0; 4], |store| {
            [
                store.stall_nanos(),
                store.spilled_chunks(),
                store.readmitted(),
                store.write_failures(),
            ]
        })
    };
    let mut spill_seen = spill_totals();
    // Every chunk-holding buffer a worker touches lives in an engine-owned
    // slot rather than a closure local: its inbox (in `frontier`) and its
    // outbox. An unwinding worker therefore cannot strand acquired chunks
    // — whatever it held stays reachable for the epilogue. An outbox is
    // `k` streams wide (global destinations) even under partial ownership.
    let mut outboxes: Vec<WorkerOutbox<P::Message>> = Vec::new();
    let end = loop {
        if superstep >= config.max_supersteps {
            break End::Failed(BspError::SuperstepLimitExceeded(superstep));
        }
        // `None` after the superstep means the worker's task panicked; an
        // `Err` is a spilled segment it could not re-admit.
        let mut worker_results: Vec<Option<Result<WorkerSuperstepMetrics, SpillError>>> =
            (0..l).map(|_| None).collect();
        outboxes = (0..l).map(|_| (0..k).map(|_| OutStream::default()).collect()).collect();
        let poll = CancelPoll { token: cancel, hard_deadline: !checkpoint };
        let mut tasks: Vec<WorkerTask<'_>> = Vec::with_capacity(l);
        for (((((slot, state), inbox), scratch), result_slot), outbox) in states
            .iter_mut()
            .enumerate()
            .zip(frontier.inboxes.iter_mut())
            .zip(scratches.iter_mut())
            .zip(worker_results.iter_mut())
            .zip(outboxes.iter_mut())
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
                        outbox,
                        poll,
                        spill,
                    )
                }))
                .ok();
            });
            tasks.push(WorkerTask { worker: slot, run });
        }
        executor.run_superstep(superstep, tasks);
        // Scanned in worker order so the first panicking worker is reported.
        if let Some(slot) = worker_results.iter().position(Option::is_none) {
            break End::Failed(BspError::WorkerPanicked { worker: locals[slot], superstep });
        }
        // A spilled segment that failed to re-admit is unrecoverable: the
        // disk copy was the only copy.
        let workers: Result<Vec<_>, SpillError> =
            worker_results.into_iter().map(|r| r.expect("no worker panicked")).collect();
        let workers = match workers {
            Ok(workers) => workers,
            Err(error) => break End::Failed(BspError::Spill { superstep, error }),
        };
        // A hard cancel may have aborted workers mid-superstep: the
        // superstep's partial output and the unreleased inbox parts are
        // discarded.
        if let Some(reason) = hard_cancel_reason(cancel, checkpoint) {
            break End::Cancelled { reason, superstep, frontier: None };
        }
        let mut step =
            SuperstepMetrics { workers, net: NetSuperstepMetrics::default(), spill_stall_nanos: 0 };
        // The exchange turns this superstep's outboxes into the next
        // frontier. In-process it is a pointer move; a remote exchange
        // must uphold the same delivery order (see `crate::exchange`) and
        // additionally runs the coordinator barrier, whose directive can
        // checkpoint or abort the run.
        let exchange_start = Instant::now();
        let in_flight = match exchange {
            None => {
                frontier =
                    Frontier::from_outboxes(&mut outboxes, superstep, config.exchange_shuffle_seed);
                let in_flight = frontier.in_flight();
                step.net.exchange_nanos = exchange_start.elapsed().as_nanos() as u64;
                in_flight
            }
            Some(x) => {
                let outs = std::mem::take(&mut outboxes);
                let outcome = match x.exchange(superstep, &pool, outs, &step) {
                    Ok(outcome) => outcome,
                    // The exchange released everything it was handed;
                    // nothing else holds chunks at the barrier.
                    Err(e) => {
                        break End::Failed(BspError::Exchange { superstep, message: e.message })
                    }
                };
                step.net = outcome.net;
                // The remote exchange spans the coordinator barrier; the
                // exchange component is what remains after subtracting the
                // measured barrier wait.
                step.net.exchange_nanos = (exchange_start.elapsed().as_nanos() as u64)
                    .saturating_sub(step.net.barrier_wait_nanos);
                if let (ExchangeDirective::CheckpointAndContinue, Some(sink)) =
                    (outcome.directive, sink)
                {
                    sink.capture(superstep + 1, &states, &outcome.inboxes);
                }
                frontier = Frontier::from_resident(outcome.inboxes);
                if let ExchangeDirective::Abort(reason) = outcome.directive {
                    metrics.supersteps.push(step);
                    break End::Cancelled { reason, superstep: superstep + 1, frontier: None };
                }
                outcome.in_flight
            }
        };
        let spill_now = spill_totals();
        let [stall, spilled, readmitted, write_failures] =
            std::array::from_fn(|i| spill_now[i] - spill_seen[i]);
        spill_seen = spill_now;
        step.spill_stall_nanos = stall;
        if let Some(t) = tracer {
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
                // Budget expiry with checkpointing: the frontier that
                // broke the budget is exactly what a resumed run (with a
                // higher budget) needs delivered.
                break if checkpoint {
                    capture(&mut frontier, &pool, spill, CancelReason::Budget, superstep)
                } else {
                    End::Failed(BspError::MessageBudgetExceeded { superstep, in_flight, budget })
                };
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
                    let reason =
                        if preempt_due { CancelReason::Preempted } else { CancelReason::Deadline };
                    break if checkpoint || preempt_due {
                        capture(&mut frontier, &pool, spill, reason, superstep)
                    } else {
                        End::Cancelled { reason, superstep: superstep + 1, frontier: None }
                    };
                }
            }
        }
        if in_flight == 0 {
            break End::Complete;
        }
        // Barrier eviction: the freshly exchanged frontier is the coldest
        // data in the engine — nothing touches it until the next
        // superstep's workers read it — so while the pool sits over its
        // live-chunk cap, encode runs of resident frontier chunks to disk
        // and release them. Re-admission happens in `run_worker`, in
        // delivery order, with zero pool acquisitions.
        if let (Some(store), Some(cap)) = (spill, config.max_live_chunks) {
            frontier.evict(&pool, store, cap as i64, &mut scratches[0].spill);
        }
        superstep += 1;
    };
    // The one way out. Whatever the loop left behind — part-filled
    // outboxes and unreleased inbox parts after a panic, a failed
    // re-admission or a hard cancel; a whole frontier nobody will deliver
    // after a limit, a budget error or an uncheckpointed stop — goes back
    // to the pool, and spilled segments lose their blobs, before anything
    // is reported.
    for stream in outboxes.iter_mut().flatten() {
        stream.release(&pool, spill);
    }
    frontier.release(&pool, spill);
    finalize_metrics(&mut metrics, &pool, spill, start);
    // Every chunk acquired over the run must be back by now, however the
    // run ended. Debug builds assert it; a *clean* completion with
    // unreleased chunks is reported in release builds too, because chaos
    // sweeps run there.
    let outstanding = pool.outstanding();
    debug_assert_eq!(outstanding, 0, "chunk pool get/put imbalance at engine shutdown (leak)");
    match end {
        End::Complete if outstanding != 0 => Err(BspError::ChunkLeak { outstanding }),
        End::Complete => Ok(RunOutcome::Complete(BspResult { worker_states: states, metrics })),
        End::Cancelled { reason, superstep, frontier } => Ok(RunOutcome::Cancelled(CancelledRun {
            reason,
            superstep,
            frontier,
            worker_states: states,
            metrics,
        })),
        End::Failed(error) => Err(error),
    }
}

/// A soft stop at the barrier after `superstep`: flattens the complete
/// undelivered frontier into the resumable end, or fails the run when a
/// spilled segment of it cannot be read back.
fn capture<M: Encode>(
    frontier: &mut Frontier<M>,
    pool: &ChunkPool<M>,
    spill: Option<&SpillStore>,
    reason: CancelReason,
    superstep: u32,
) -> End<M> {
    match frontier.flatten(pool, spill) {
        Ok(tuples) => End::Cancelled { reason, superstep: superstep + 1, frontier: Some(tuples) },
        Err(error) => End::Failed(BspError::Spill { superstep, error }),
    }
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

/// Finalizes run-level metrics — called exactly once, by the epilogue.
/// `metrics.carried` holds the resumed prefix's counters (zero on a fresh
/// run); this slice's are added on top.
fn finalize_metrics<M>(
    metrics: &mut EngineMetrics,
    pool: &ChunkPool<M>,
    spill: Option<&SpillStore>,
    start: Instant,
) {
    metrics.chunk_allocations = pool.fresh_allocations();
    metrics.chunk_reuses = pool.reuses();
    metrics.chunks_outstanding = pool.outstanding();
    let c = &mut metrics.carried;
    c.pool_exhausted += pool.exhausted_events();
    c.chunks_live_peak = c.chunks_live_peak.max(pool.peak_outstanding().max(0) as u64);
    if let Some(store) = spill {
        c.spill_chunks += store.spilled_chunks();
        c.spill_bytes += store.spilled_bytes();
        c.spill_stall_nanos += store.stall_nanos();
        c.readmitted_chunks += store.readmitted();
        c.spill_write_failures += store.write_failures();
    }
    metrics.wall_time = start.elapsed();
}

/// Executes one worker for one superstep, filling the engine-owned
/// `outbox` in place. Superstep 0 runs `compute` on every owned vertex;
/// later supersteps regroup `inbox` (resident chunks and spilled segments,
/// in delivery order) by vertex and call `compute` once per vertex with
/// its messages in delivery order, vertices ascending. Polls for a hard
/// cancel every 32 `compute` calls.
///
/// An uncapped pool's inbox is read in place ([`read_in_place`]); its
/// chunks go back to the pool after the last `compute` call. Under a
/// live-chunk cap the inbox is read one range of vertices at a time
/// ([`read_by_range`]), and its chunks go back before the first call. A
/// panic or a failed read anywhere in here leaves every still-acquired
/// chunk and unread segment in `inbox`, reachable for the engine's
/// epilogue.
///
/// Time spent inside the spill store — the sends' spill writes and the
/// inbox's segment reads — is the store's stall, reported per superstep
/// as `spill_stall_nanos`, and is left out of `elapsed_nanos`.
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
    outbox: &mut WorkerOutbox<P::Message>,
    poll: CancelPoll<'_>,
    spill: Option<&SpillStore>,
) -> Result<WorkerSuperstepMetrics, SpillError> {
    let started = Instant::now();
    let WorkerScratch { inbox: regroup, batch, spill: spill_scratch } = scratch;
    let mut calls = Calls {
        program,
        state,
        batch,
        poll,
        made: 0,
        ctx: Context {
            superstep,
            worker,
            partitioner,
            pool,
            outbox: &mut outbox[..],
            spill,
            spill_scratch,
            cost: 0,
            messages_out: 0,
            local_delivered: 0,
            spill_nanos: 0,
        },
    };
    let mut messages_in = 0u64;
    if superstep == 0 {
        for (i, &v) in owned.iter().enumerate() {
            if i & 31 == 0 && poll.should_abort() {
                break;
            }
            calls.batch.clear();
            calls.call(v);
        }
    } else if !poll.should_abort() {
        messages_in = inbox.iter().map(InboxPart::tuples).sum();
        let read = match pool.max_live() {
            None => {
                read_in_place(inbox, regroup, &mut calls);
                Ok(())
            }
            Some(cap) => {
                let budget = cap * pool.capacity() as u64 / partitioner.workers() as u64;
                read_by_range(inbox, regroup, pool, spill, budget.max(1), &mut calls)
            }
        };
        read?;
        for part in inbox.drain(..) {
            part.release(pool, spill);
        }
    }
    let Calls { made: active_vertices, ctx, .. } = calls;
    let tuple_bytes = std::mem::size_of::<(VertexId, P::Message)>() as u64;
    Ok(WorkerSuperstepMetrics {
        active_vertices,
        messages_in,
        messages_out: ctx.messages_out,
        local_delivered: ctx.local_delivered,
        bytes_exchanged: (ctx.messages_out - ctx.local_delivered) * tuple_bytes,
        cost: ctx.cost,
        elapsed_nanos: (started.elapsed().as_nanos() as u64).saturating_sub(ctx.spill_nanos),
    })
}

/// One worker's `compute` calls in one superstep.
struct Calls<'a, 'c, P: VertexProgram> {
    program: &'a P,
    state: &'a mut P::WorkerState,
    ctx: Context<'c, P::Message>,
    /// The batch of the vertex being called.
    batch: &'a mut Vec<P::Message>,
    poll: CancelPoll<'a>,
    /// `compute` calls made so far: the superstep's active vertices.
    made: u64,
}

impl<P: VertexProgram> Calls<'_, '_, P> {
    /// Calls `compute` on `vertex` with the batch.
    fn call(&mut self, vertex: VertexId) {
        self.made += 1;
        self.program.compute(&mut self.ctx, self.state, vertex, self.batch);
    }

    /// Calls `compute` once per vertex of `index`, which is ordered by
    /// vertex, with the messages `message` fetches for the vertex's keys.
    /// Returns false when a hard cancel stopped it.
    fn per_vertex(&mut self, index: &[Key], message: impl Fn(u32, u32) -> P::Message) -> bool {
        for run in index.chunk_by(|a, b| a.0 == b.0) {
            if self.made & 31 == 31 && self.poll.should_abort() {
                return false;
            }
            self.batch.clear();
            self.batch.extend(run.iter().map(|&(_, p, slot)| message(p, slot)));
            self.call(run[0].0);
        }
        true
    }
}

/// Reads an uncapped worker's inbox where the exchange delivered it: the
/// regroup index orders one `(vertex, part, slot)` key per message by a
/// counting sort on the vertex (see [`crate::regroup`]), and each vertex's
/// batch copies its messages from the chunks they sit in. Spilling needs
/// a cap, so every part is a resident chunk.
fn read_in_place<P: VertexProgram>(
    inbox: &[InboxPart<P::Message>],
    scratch: &mut InboxScratch<P::Message>,
    calls: &mut Calls<'_, '_, P>,
) {
    let total = inbox.iter().map(InboxPart::tuples).sum::<u64>();
    assert!(
        total <= u64::from(u32::MAX) && inbox.len() <= u32::MAX as usize,
        "an inbox of {total} messages in {} parts overflows the regroup index",
        inbox.len()
    );
    let InboxScratch { num_vertices, index, counts, .. } = scratch;
    order_by_vertex(inbox, total as usize, 0, *num_vertices, counts, index);
    calls.per_vertex(index, |part, slot| keyed(inbox, part, slot).1);
}

/// Reads a capped worker's inbox one range group at a time: a run of
/// consecutive destination vertices whose messages fit `budget`, the
/// worker's share of the live-chunk cap in tuples.
///
/// First the inbox is cut into pieces in delivery order. Each run of
/// consecutive resident chunks is copied into the side buffer ordered by
/// vertex, delivery order kept within each, and its chunks go back to the
/// pool: an inbox held under a cap starves the outbox (DESIGN.md §14).
/// Each segment's block table is read. Then, group by group from the
/// lowest unread vertex `lo`, the group's end is the largest `until` whose
/// unread messages below it fit the budget — counting every unread tuple
/// of a segment block that starts below `until`, so the count is an upper
/// bound — or `lo + 1` when vertex `lo` alone does not fit. The group
/// gathers, piece by piece in delivery order, the side buffer's messages
/// below `until` and, with one read per segment, the segment's tuples
/// below it; it is regrouped by vertex and handed to `compute`. A segment
/// is deleted, and counted as re-admitted, after its last tuple is read.
///
/// So the messages held at once are the side buffer, which the barrier
/// eviction holds to the cap, and a group of at most `budget` messages,
/// or one vertex's: never more as the inbox grows.
fn read_by_range<P: VertexProgram>(
    inbox: &mut [InboxPart<P::Message>],
    scratch: &mut InboxScratch<P::Message>,
    pool: &ChunkPool<P::Message>,
    spill: Option<&SpillStore>,
    budget: u64,
    calls: &mut Calls<'_, '_, P>,
) -> Result<(), SpillError> {
    let InboxScratch { num_vertices, index, counts, resident, group, pieces, table, raw } = scratch;
    resident.clear();
    pieces.clear();
    table.clear();
    let mut p = 0;
    while p < inbox.len() {
        if let InboxPart::Spilled(seg) = &inbox[p] {
            let store = spill.expect("spilled inbox part without a spill store");
            let first = table.len();
            timed(&mut calls.ctx.spill_nanos, || store.read_table(seg, table, raw))?;
            let (tuples, vertex) = (seg.tuples, table.get(first).map_or(0, |b| b.first));
            pieces.push(Piece::Spilled {
                part: p,
                blocks: first..table.len(),
                tuples,
                next: 0,
                vertex,
            });
            p += 1;
            continue;
        }
        let end = (p..inbox.len()).find(|&q| matches!(inbox[q], InboxPart::Spilled(_)));
        let end = end.unwrap_or(inbox.len());
        let run = &mut inbox[p..end];
        let total = run.iter().map(InboxPart::tuples).sum::<u64>() as usize;
        order_by_vertex(&*run, total, 0, *num_vertices, counts, index);
        let at = resident.len();
        resident.extend(index.iter().map(|&(_, part, slot)| *keyed(run, part, slot)));
        for part in run.iter_mut() {
            std::mem::take(part).release(pool, spill);
        }
        pieces.push(Piece::Resident { next: at, end: resident.len() });
        p += run.len();
    }
    while let Some(lo) = pieces.iter().filter_map(|piece| piece.next_vertex(resident)).min() {
        let until = group_end(lo, budget, |until| {
            pieces.iter().map(|piece| piece.unread_below(until, inbox, resident, table)).sum()
        });
        group.clear();
        for piece in pieces.iter_mut() {
            match piece {
                Piece::Resident { next, end } => {
                    let n = resident[*next..*end].partition_point(|t| u64::from(t.0) < until);
                    group.extend_from_slice(&resident[*next..*next + n]);
                    *next += n;
                }
                Piece::Spilled { part, blocks, tuples, next, vertex } => {
                    if next == tuples || u64::from(*vertex) >= until {
                        continue;
                    }
                    let store = spill.expect("spilled inbox part without a spill store");
                    let (seg, table) = (segment(inbox, *part), &table[blocks.clone()]);
                    let read = seg.block_of(*next)..blocks_below(seg, table, *next, until);
                    let (at, stop) = timed(&mut calls.ctx.spill_nanos, || {
                        store.read_blocks(seg, table, read.clone(), *next, until, raw, group)
                    })?;
                    *next = at;
                    match stop {
                        Some(v) => *vertex = v,
                        None if at < *tuples => *vertex = table[read.end].first,
                        None => {
                            let InboxPart::Spilled(seg) = std::mem::take(&mut inbox[*part]) else {
                                unreachable!("an unconsumed segment")
                            };
                            store.consumed(seg);
                        }
                    }
                }
            }
        }
        let top = group.iter().map(|t| t.0).max().expect("a group holds vertex lo's messages");
        order_by_vertex(&group[..], group.len(), lo, (top - lo) as usize + 1, counts, index);
        if !calls.per_vertex(index, |_, slot| group[slot as usize].1) {
            break;
        }
    }
    Ok(())
}

/// The end of the range group that starts at vertex `lo`: the largest
/// `until` at which `held(until)`, the unread messages below `until`, fit
/// `budget`, or `lo + 1` when vertex `lo`'s alone do not. `held` never
/// falls as `until` grows.
fn group_end(lo: VertexId, budget: u64, held: impl Fn(u64) -> u64) -> u64 {
    let (mut fits, mut over) = (u64::from(lo) + 1, u64::from(VertexId::MAX) + 2);
    if held(fits) > budget {
        return fits;
    }
    while over - fits > 1 {
        let mid = fits + (over - fits) / 2;
        if held(mid) <= budget {
            fits = mid;
        } else {
            over = mid;
        }
    }
    fits
}

/// The message a `(part, slot)` key of an in-place regroup names.
fn keyed<M>(inbox: &[InboxPart<M>], part: u32, slot: u32) -> &(VertexId, M) {
    match &inbox[part as usize] {
        InboxPart::Chunk(c) => &c[slot as usize],
        InboxPart::Spilled(_) => unreachable!("a spilled inbox part is never keyed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SerialExecutor, ThreadExecutor};
    use parking_lot::Mutex;
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_graph::DataGraph;

    /// [`run_controlled`] with no controls, which nothing can cancel.
    fn run_with_executor<P: VertexProgram>(
        num_vertices: usize,
        partitioner: &HashPartitioner,
        program: &P,
        config: &BspConfig,
        executor: &dyn Executor,
    ) -> Result<BspResult<P::WorkerState>, BspError> {
        let control = RunControl::default();
        match run_controlled(num_vertices, partitioner, program, config, executor, control)? {
            RunOutcome::Complete(res) => Ok(res),
            RunOutcome::Cancelled(_) => unreachable!("no cancel token was supplied"),
        }
    }

    fn run<P: VertexProgram>(
        num_vertices: usize,
        partitioner: &HashPartitioner,
        program: &P,
        config: &BspConfig,
    ) -> Result<BspResult<P::WorkerState>, BspError> {
        run_with_executor(num_vertices, partitioner, program, config, &ThreadExecutor)
    }

    // The test programs' messages, as the spill tier writes them.
    impl Encode for VertexId {
        const ENCODED_LEN: usize = 4;
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Result<Self, &'static str> {
            Ok(u32::from_le_bytes(bytes.try_into().map_err(|_| "vertex id length")?))
        }
    }

    impl Encode for u8 {
        const ENCODED_LEN: usize = 1;
        fn encode(&self, out: &mut Vec<u8>) {
            out.push(*self);
        }
        fn decode(bytes: &[u8]) -> Result<Self, &'static str> {
            Ok(bytes[0])
        }
    }

    impl Encode for () {
        const ENCODED_LEN: usize = 0;
        fn encode(&self, _out: &mut Vec<u8>) {}
        fn decode(_bytes: &[u8]) -> Result<Self, &'static str> {
            Ok(())
        }
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

    struct Panicker;

    impl VertexProgram for Panicker {
        type Message = ();
        type WorkerState = ();

        fn create_worker_state(&self, _w: usize) {}

        fn compute(&self, _ctx: &mut Context<'_, ()>, _s: &mut (), v: VertexId, _m: &mut Vec<()>) {
            if v == 13 {
                panic!("boom");
            }
        }
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
        control: RunControl<'c, P::Message, P::WorkerState>,
    ) -> RunOutcome<P::Message, P::WorkerState> {
        run_controlled(n, p, prog, config, &ThreadExecutor, control).unwrap()
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

    // ── spill tier ──────────────────────────────────────────────────────

    use crate::chunk::Chunk;
    use crate::regroup::COUNTING_SORT_MIN_FILL;
    use crate::spill::{SpillConfig, SpillFaults};

    fn run_min_label_spilling(
        g: &DataGraph,
        workers: usize,
        config: &BspConfig,
        store: &SpillStore,
    ) -> (Vec<VertexId>, EngineMetrics) {
        let prog = MinLabel { graph: g, labels: Mutex::new(g.vertices().collect()) };
        let p = HashPartitioner::new(workers);
        let control = RunControl { spill: Some(store), ..RunControl::default() };
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

    /// Spill writes made inside a worker's sends — slowed here by an
    /// injected sleep per chunk — are stall: counted once, in
    /// `spill_stall_nanos`, and left out of the worker's `elapsed_nanos`.
    #[test]
    fn worker_time_excludes_spill_stall() {
        let faults = SpillFaults { slow_write_per_chunk_us: 1_000, ..SpillFaults::default() };
        let store = SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() }).unwrap();
        let config =
            BspConfig { chunk_capacity: 4, max_live_chunks: Some(4), ..Default::default() };
        let control = RunControl { spill: Some(&store), ..RunControl::default() };
        let p = HashPartitioner::new(2);
        let m = match controlled(40, &p, &Flood { fanout: 8, n: 40 }, &config, control) {
            RunOutcome::Complete(r) => r.metrics,
            RunOutcome::Cancelled(_) => panic!("nothing cancels this run"),
        };
        // Superstep 0's stall is its sends' spill writes alone: the
        // barrier's eviction after it lands in superstep 1's.
        let stall = m.spill_stall_per_superstep()[0];
        let worker = m.compute_nanos_per_superstep()[0];
        assert!(stall >= 10_000_000, "the sends must spill: {stall} ns of stall");
        assert!(worker < stall / 2, "{worker} ns of worker time include the {stall} ns stall");
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
            spill: Some(&store),
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
        let control =
            RunControl { resume: Some(resume), spill: Some(&store), ..RunControl::default() };
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
        /// `(superstep, worker, vertex)` of every `compute` call, in the
        /// order each worker made them.
        order: Mutex<Vec<(u32, usize, VertexId)>>,
        trip: Trip<'a>,
    }

    impl<'a> Probe<'a> {
        fn new(n: usize, trip: Trip<'a>) -> Self {
            Probe { n, calls: Mutex::new(Default::default()), order: Mutex::new(Vec::new()), trip }
        }
    }

    /// `(superstep, vertex)` → the batch of every `compute` call made for it.
    type ProbeCalls = std::collections::BTreeMap<(u32, VertexId), Vec<Vec<u32>>>;

    impl VertexProgram for Probe<'_> {
        type Message = u32;
        /// `(superstep, messages sent in it)`.
        type WorkerState = (u32, u32);

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
            self.order.lock().push((s, ctx.worker(), v));
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

    /// How a row of the configuration table shapes each worker's inbox.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shape {
        /// Resident chunks of at most `chunk_capacity` tuples, read in place.
        Resident,
        /// A live-chunk cap without a spill tier: senders grow full chunks
        /// in place, so messages sit at slots past `chunk_capacity`.
        Capped,
        /// The exchange assembles each inbox in a seeded source order.
        Shuffled,
        /// A tight cap with the spill tier: nearly every chunk goes to disk.
        Spilled,
        /// A looser cap with the spill tier: each source's stream arrives
        /// as its spilled prefix then its resident chunks, so an inbox
        /// holds spilled segments between resident chunks.
        Mixed,
    }

    impl Shape {
        const ALL: [Shape; 5] =
            [Shape::Resident, Shape::Capped, Shape::Shuffled, Shape::Spilled, Shape::Mixed];

        fn config(self, chunk_capacity: usize) -> BspConfig {
            let max_live_chunks = match self {
                Shape::Capped | Shape::Spilled => Some(4),
                Shape::Mixed => Some(16),
                Shape::Resident | Shape::Shuffled => None,
            };
            let exchange_shuffle_seed = (self == Shape::Shuffled).then_some(7);
            BspConfig {
                chunk_capacity,
                max_live_chunks,
                exchange_shuffle_seed,
                ..Default::default()
            }
        }

        fn spills(self) -> bool {
            matches!(self, Shape::Spilled | Shape::Mixed)
        }
    }

    /// A shuffled exchange reorders sources, never one source's sends:
    /// every vertex still gets one call with the reference's messages, and
    /// each source's messages keep their send order. Some batch must differ
    /// from the canonical order, or the row tested nothing.
    fn assert_shuffled_delivery(calls: &ProbeCalls, reference: &ProbeCalls, case: &str) {
        assert_eq!(calls.len(), reference.len(), "{case}");
        let mut reordered = 0;
        for (key, batches) in calls {
            assert_eq!(batches.len(), 1, "{case} {key:?}: one compute call");
            let (batch, want) = (&batches[0], &reference[key][0]);
            let mut sorted = batch.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, want, "{case} {key:?}: the same messages");
            for source in 0..4 {
                let sent: Vec<u32> = batch.iter().copied().filter(|m| m >> 24 == source).collect();
                assert!(sent.windows(2).all(|w| w[0] < w[1]), "{case} {key:?}: source {source}");
            }
            reordered += usize::from(batch != want);
        }
        assert!(reordered > 0, "{case}: the shuffle never changed a batch");
    }

    #[test]
    fn one_compute_call_per_vertex_across_chunking_executors_and_spill() {
        const N: usize = 64;
        let (n, p) = (N, HashPartitioner::new(4));
        let reference = {
            let prog = Probe::new(N, Trip::Nothing);
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
                for shape in Shape::ALL {
                    let case = format!("capacity {chunk_capacity}, {exec_name}, {shape:?}");
                    let config = shape.config(chunk_capacity);
                    let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
                    let control = |cancel| RunControl {
                        cancel,
                        spill: shape.spills().then_some(&store),
                        ..RunControl::default()
                    };

                    let prog = Probe::new(N, Trip::Nothing);
                    match run_controlled(n, &p, &prog, &config, executor, control(None)).unwrap() {
                        RunOutcome::Complete(r) => {
                            let carried = &r.metrics.carried;
                            assert_eq!(r.metrics.chunks_outstanding, 0, "{case}");
                            if chunk_capacity <= 3 {
                                if shape == Shape::Capped {
                                    assert!(carried.pool_exhausted > 0, "{case}: nothing grew");
                                }
                                if shape.spills() {
                                    assert!(carried.spill_chunks > 0, "{case}: cap never bit");
                                }
                            }
                        }
                        RunOutcome::Cancelled(_) => panic!("{case}: nothing cancels this run"),
                    }
                    // Within each (superstep, worker), `compute` sees its
                    // vertices strictly ascending.
                    let mut per_worker = std::collections::BTreeMap::<_, Vec<VertexId>>::new();
                    for (s, w, v) in prog.order.into_inner() {
                        per_worker.entry((s, w)).or_default().push(v);
                    }
                    for ((s, w), vertices) in &per_worker {
                        let ascending = vertices.windows(2).all(|x| x[0] < x[1]);
                        assert!(ascending, "{case}: superstep {s}, worker {w}: {vertices:?}");
                    }
                    let calls = prog.calls.into_inner();
                    if shape == Shape::Shuffled {
                        assert_shuffled_delivery(&calls, &reference, &case);
                    } else {
                        assert_eq!(calls, reference, "{case}");
                    }

                    // A panic with inboxes still held and outboxes
                    // part-filled (debug builds assert the pool balance on
                    // this path).
                    let prog = Probe::new(N, Trip::Panic);
                    match run_controlled(n, &p, &prog, &config, executor, control(None)) {
                        Err(BspError::WorkerPanicked { superstep: 1, worker }) => {
                            assert_eq!(worker, p.owner(41), "{case}");
                        }
                        Err(e) => panic!("{case}: wrong error {e}"),
                        Ok(_) => panic!("{case}: the panic must surface"),
                    }
                    assert_eq!(store.live_bytes(), 0, "{case}: blobs outlived the panic");

                    let token = CancelToken::new();
                    let prog = Probe::new(N, Trip::Cancel(&token));
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

    /// A hand-built inbox through `run_worker`: all resident over an
    /// uncapped pool (read in place), and with spilled segments between
    /// resident chunks over a capped one, whose budget of four tuples cuts
    /// it into many range groups. Segments of several chunks span several
    /// blocks and groups, a chunk is grown past the chunk capacity, and
    /// vertex 5's messages sit in resident chunks and in the segments of
    /// two sources. Either way: ascending vertices, delivery order within
    /// each, and every chunk and segment returned by the end.
    #[test]
    fn a_mixed_inbox_is_read_in_delivery_order() {
        // `(spilled, chunks)` in delivery order; message `m` is the m-th
        // tuple delivered.
        let parts: [(bool, &[&[VertexId]]); 7] = [
            (true, &[&[5, 2, 5], &[9, 0]]),
            (false, &[&[2, 5, 9]]),
            (true, &[&[5, 5, 1, 12], &[3, 5, 0, 2], &[7]]),
            (false, &[&[5, 0]]),
            (false, &[&[12, 12, 3]]),
            (true, &[&[1, 5, 9, 9, 9]]),
            (false, &[&[14, 5]]),
        ];
        let mut want = std::collections::BTreeMap::<VertexId, Vec<u32>>::new();
        let delivered = parts.iter().flat_map(|(_, chunks)| chunks.iter().copied().flatten());
        for (m, &v) in (0u32..).zip(delivered) {
            want.entry(v).or_default().push(m);
        }
        let total = want.values().map(Vec::len).sum::<usize>();
        let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
        for max_live in [None, Some(2)] {
            let pool = ChunkPool::with_limit(2, max_live);
            let (mut inbox, mut m) = (Vec::new(), 0u32);
            for &(spilled, chunks) in &parts {
                let chunks: Vec<Chunk<u32>> = (chunks.iter())
                    .map(|vertices| {
                        let mut chunk = pool.acquire();
                        for &v in *vertices {
                            chunk.push((v, m));
                            m += 1;
                        }
                        chunk
                    })
                    .collect();
                if spilled && max_live.is_some() {
                    let mut scratch = SpillScratch::default();
                    let seg = store.spill(&chunks, pool.capacity(), &mut scratch).unwrap();
                    chunks.into_iter().for_each(|c| pool.release(c));
                    inbox.push(InboxPart::Spilled(seg));
                } else {
                    inbox.extend(chunks.into_iter().map(InboxPart::Chunk));
                }
            }
            // Superstep 3: the probe records its calls and sends nothing.
            let prog = Probe::new(16, Trip::Nothing);
            let mut scratch = WorkerScratch::new(16);
            let mut outbox: WorkerOutbox<u32> = vec![OutStream::default()];
            let poll = CancelPoll { token: None, hard_deadline: false };
            let p = HashPartitioner::new(1);
            let m = run_worker(
                &prog,
                &mut (0, 0),
                0,
                3,
                &p,
                &[],
                &pool,
                &mut inbox,
                &mut scratch,
                &mut outbox,
                poll,
                Some(&store),
            )
            .unwrap();
            let case = format!("cap {max_live:?}");
            assert_eq!(
                (m.messages_in, m.active_vertices),
                (total as u64, want.len() as u64),
                "{case}"
            );
            let order: Vec<_> = prog.order.into_inner().into_iter().map(|(_, _, v)| v).collect();
            assert_eq!(order, want.keys().copied().collect::<Vec<_>>(), "{case}: ascending");
            let calls = prog.calls.into_inner();
            for (v, batch) in &want {
                assert_eq!(calls[&(3, *v)], std::slice::from_ref(batch), "{case}: vertex {v}");
            }
            if max_live.is_some() {
                let held = scratch.inbox.group.capacity();
                assert!(held < total, "{case}: one group of {held} held the whole inbox");
            }
            assert!(inbox.is_empty(), "{case}: the inbox is consumed");
            assert_eq!(pool.outstanding(), 0, "{case}: every chunk went back");
            assert_eq!(store.live_bytes(), 0, "{case}: every segment was read");
            assert_eq!(store.readmitted(), store.spilled_chunks(), "{case}");
        }
    }

    /// One random inbox of `parts` resident chunks of up to 8 messages,
    /// with destinations from `dest`. Returns the inbox, its regroup keys
    /// in delivery order, and the messages in delivery order.
    #[allow(clippy::type_complexity)]
    fn random_inbox(
        rng: &mut impl FnMut(usize) -> usize,
        parts: u32,
        pool: &ChunkPool<u32>,
        dest: &mut dyn FnMut(&mut dyn FnMut(usize) -> usize) -> VertexId,
    ) -> (Vec<InboxPart<u32>>, Vec<Key>, Vec<(VertexId, u32)>) {
        let (mut inbox, mut keys, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..parts {
            let mut chunk = pool.acquire();
            for _ in 0..rng(9) {
                let v = dest(&mut *rng);
                chunk.push((v, delivered.len() as u32));
                delivered.push((v, delivered.len() as u32));
            }
            keys.extend(chunk.iter().zip(0..).map(|(&(v, _), slot)| (v, p, slot)));
            inbox.push(InboxPart::Chunk(chunk));
        }
        (inbox, keys, delivered)
    }

    /// `order_by_vertex` against `sort_unstable` of the same keys, on
    /// random inboxes read in place and on the same messages gathered into
    /// one run keyed from its lowest vertex (a range group), for spans on
    /// both sides of the crossover: the index is that sorted key list, each
    /// key names its message, and the counts were taken exactly when the
    /// keys were not few against the span, and are zero again.
    /// Destinations cover vertex 0, the largest vertex, one vertex taking
    /// every message, a vertex past a span at the crossover (the sort takes
    /// over), and an empty inbox.
    #[test]
    fn the_counting_regroup_orders_keys_as_sort_unstable_does() {
        let lcg = |mut state: u64| {
            move |bound: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % bound
            }
        };
        let mut pick = lcg(7);
        let pool = ChunkPool::new(4);
        for round in 0..80u64 {
            let parts = if round == 0 { 0 } else { 1 + pick(12) as u32 };
            let span = [1, 7, 64, 1_000, 50_000][pick(5)];
            let top = span as VertexId - 1;
            let kind = pick(4);
            let mut dest = |rng: &mut dyn FnMut(usize) -> usize| match kind {
                0 => rng(span) as VertexId,
                1 => 0,
                2 => top,
                _ => [0, top][rng(2)],
            };
            let (mut inbox, mut keys, mut delivered) =
                random_inbox(&mut lcg(round), parts, &pool, &mut dest);
            keys.sort_unstable();
            let total = delivered.len();
            let fill = total * COUNTING_SORT_MIN_FILL;
            for vertices in [span, fill.max(1), fill + 1] {
                let case = format!("round {round}, {vertices} vertices");
                let mut scratch: WorkerScratch<u32> = WorkerScratch::new(vertices);
                let InboxScratch { index, counts, .. } = &mut scratch.inbox;
                order_by_vertex(&inbox[..], total, 0, vertices, counts, index);
                assert_eq!(*index, keys, "{case}");
                let read: Vec<(VertexId, u32)> =
                    index.iter().map(|&(_, p, slot)| *keyed(&inbox, p, slot)).collect();
                let mut sorted = delivered.clone();
                // Message numbers rise in delivery order: by vertex, stably.
                sorted.sort_unstable();
                assert_eq!(read, sorted, "{case}");
                let counted = if fill >= vertices { vertices } else { 0 };
                assert_eq!(counts.len(), counted, "{case}");
                assert!(counts.iter().all(|&c| c == 0), "{case}");

                // The same messages as one gathered run, keyed from its
                // lowest vertex.
                let lo = delivered.iter().map(|t| t.0).min().unwrap_or(0);
                let gathered: Vec<Key> =
                    (0u32..).zip(&delivered).map(|(i, t)| (t.0, 0, i)).collect();
                let mut want = gathered.clone();
                want.sort_unstable();
                order_by_vertex(&delivered[..], total, lo, vertices, counts, index);
                assert_eq!(*index, want, "{case}, gathered");
                assert!(counts.iter().all(|&c| c == 0), "{case}, gathered");
            }
            delivered.clear();
            inbox.drain(..).for_each(|part| part.release(&pool, None));
        }
        assert_eq!(pool.outstanding(), 0);
    }

    // ── the one way out, across every terminal state ────────────────────

    /// An in-process stand-in for a remote [`Exchange`] hosting every
    /// partition: delivers in source order like the built-in exchange, and
    /// can fail or abort the barrier after a chosen superstep. Either way
    /// it releases what it was handed, as the exchange contract requires.
    struct LoopExchange {
        k: usize,
        fail_after: Option<u32>,
        abort_after: Option<u32>,
    }

    impl<M: Send> crate::Exchange<M> for LoopExchange {
        fn num_partitions(&self) -> usize {
            self.k
        }

        fn local_partitions(&self) -> Vec<usize> {
            (0..self.k).collect()
        }

        fn exchange(
            &self,
            superstep: u32,
            pool: &ChunkPool<M>,
            mut outs: Vec<WorkerOutbox<M>>,
            _step: &SuperstepMetrics,
        ) -> Result<crate::ExchangeOutcome<M>, crate::ExchangeError> {
            let mut inboxes: Vec<Vec<crate::Chunk<M>>> = (0..self.k).map(|_| Vec::new()).collect();
            for (dest, inbox) in inboxes.iter_mut().enumerate() {
                for out in outs.iter_mut() {
                    inbox.append(&mut out[dest].chunks);
                }
            }
            let stop = self.fail_after == Some(superstep) || self.abort_after == Some(superstep);
            if stop {
                inboxes.drain(..).flatten().for_each(|c| pool.release(c));
            }
            if self.fail_after == Some(superstep) {
                return Err(crate::ExchangeError { superstep, message: "peer died".into() });
            }
            Ok(crate::ExchangeOutcome {
                in_flight: inboxes.iter().flatten().map(|c| c.len() as u64).sum(),
                inboxes,
                net: NetSuperstepMetrics::default(),
                directive: if stop {
                    ExchangeDirective::Abort(CancelReason::Disconnected)
                } else {
                    ExchangeDirective::Continue
                },
            })
        }
    }

    /// What the row's [`Probe`] does at superstep 1, vertex 41.
    #[derive(Clone, Copy)]
    enum Fire {
        Nothing,
        Panic,
        Cancel,
    }

    /// How a row's run must end.
    enum Want {
        Complete,
        /// `(reason, superstep, tuples in the captured frontier)`.
        Cancelled(CancelReason, u32, Option<u64>),
        Failed(fn(&BspError) -> bool),
    }

    /// One terminal state of [`run_controlled`].
    struct Row {
        name: &'static str,
        max_supersteps: u32,
        message_budget: Option<u64>,
        fire: Fire,
        token: Option<CancelToken>,
        checkpoint: bool,
        /// `Some`: the row needs the spill tier, under these faults.
        faults: Option<SpillFaults>,
        /// `Some`: the row runs over this exchange (which disables spill).
        exchange: Option<LoopExchange>,
        want: Want,
        /// The run must end after `compute` was called in superstep 1.
        after_compute: bool,
    }

    impl Default for Row {
        fn default() -> Self {
            Row {
                name: "",
                max_supersteps: 64,
                message_budget: None,
                fire: Fire::Nothing,
                token: None,
                checkpoint: false,
                faults: None,
                exchange: None,
                want: Want::Complete,
                after_compute: false,
            }
        }
    }

    /// Every vertex of the 64-vertex [`Probe`] sends three messages in each
    /// of supersteps 0..=2, so 192 are in flight at each of those barriers.
    fn terminal_rows() -> Vec<Row> {
        let preempt_at = |superstep| {
            let token = CancelToken::new();
            token.set_preempt_barrier(superstep);
            Some(token)
        };
        let cancelled = {
            let token = CancelToken::new();
            token.cancel(CancelReason::Disconnected);
            Some(token)
        };
        let expired = || Some(CancelToken::with_timeout(std::time::Duration::ZERO));
        let corrupt = Some(SpillFaults { corrupt_read: true, ..SpillFaults::default() });
        let short = Some(SpillFaults { short_read: true, ..SpillFaults::default() });
        let exchange =
            |fail_after, abort_after| Some(LoopExchange { k: 4, fail_after, abort_after });
        use CancelReason::*;
        vec![
            Row {
                name: "clean completion, budget exactly met",
                message_budget: Some(192),
                ..Row::default()
            },
            Row {
                name: "clean completion over an exchange",
                exchange: exchange(None, None),
                ..Row::default()
            },
            Row {
                name: "superstep limit",
                max_supersteps: 2,
                want: Want::Failed(|e| matches!(e, BspError::SuperstepLimitExceeded(2))),
                ..Row::default()
            },
            Row {
                name: "worker panic",
                fire: Fire::Panic,
                want: Want::Failed(|e| {
                    matches!(e, BspError::WorkerPanicked { superstep: 1, worker }
                        if *worker == HashPartitioner::new(4).owner(41))
                }),
                ..Row::default()
            },
            Row {
                name: "corrupt segment header, read before compute",
                faults: corrupt,
                want: Want::Failed(|e| {
                    matches!(e, BspError::Spill { superstep: 1, error: SpillError::Corrupt { .. } })
                }),
                ..Row::default()
            },
            Row {
                // A worker's budget is 3 of its 48 messages, so a segment
                // that holds more than 3 is resumed in a later range group.
                name: "short block in a later range group",
                faults: short,
                want: Want::Failed(|e| {
                    matches!(
                        e,
                        BspError::Spill { superstep: 1, error: SpillError::Truncated { .. } }
                    )
                }),
                after_compute: true,
                ..Row::default()
            },
            Row {
                name: "exchange error",
                exchange: exchange(Some(1), None),
                want: Want::Failed(
                    |e| matches!(e, BspError::Exchange { superstep: 1, message } if message == "peer died"),
                ),
                ..Row::default()
            },
            Row {
                name: "exchange abort",
                exchange: exchange(None, Some(1)),
                want: Want::Cancelled(Disconnected, 2, None),
                ..Row::default()
            },
            Row {
                name: "hard cancel mid-superstep",
                fire: Fire::Cancel,
                token: Some(CancelToken::new()),
                want: Want::Cancelled(Explicit, 1, None),
                ..Row::default()
            },
            Row {
                name: "hard cancel before the run",
                token: cancelled,
                checkpoint: true,
                want: Want::Cancelled(Disconnected, 0, None),
                ..Row::default()
            },
            Row {
                name: "wall-clock deadline without checkpoint",
                token: expired(),
                want: Want::Cancelled(Deadline, 0, None),
                ..Row::default()
            },
            Row {
                name: "wall-clock deadline with checkpoint",
                token: expired(),
                checkpoint: true,
                want: Want::Cancelled(Deadline, 1, Some(192)),
                ..Row::default()
            },
            Row {
                name: "budget without checkpoint",
                message_budget: Some(191),
                want: Want::Failed(|e| {
                    matches!(
                        e,
                        BspError::MessageBudgetExceeded {
                            superstep: 0,
                            in_flight: 192,
                            budget: 191
                        }
                    )
                }),
                ..Row::default()
            },
            Row {
                name: "budget with checkpoint",
                message_budget: Some(191),
                checkpoint: true,
                want: Want::Cancelled(Budget, 1, Some(192)),
                ..Row::default()
            },
            Row {
                name: "superstep deadline without checkpoint",
                token: Some(CancelToken::with_superstep_deadline(2)),
                want: Want::Cancelled(Deadline, 2, None),
                ..Row::default()
            },
            Row {
                name: "superstep deadline with checkpoint",
                token: Some(CancelToken::with_superstep_deadline(2)),
                checkpoint: true,
                want: Want::Cancelled(Deadline, 2, Some(192)),
                ..Row::default()
            },
            Row {
                name: "preempt without checkpoint",
                token: preempt_at(2),
                want: Want::Cancelled(Preempted, 2, Some(192)),
                ..Row::default()
            },
            Row {
                name: "preempt with checkpoint",
                token: preempt_at(2),
                checkpoint: true,
                want: Want::Cancelled(Preempted, 2, Some(192)),
                ..Row::default()
            },
            Row {
                name: "flatten failure",
                token: preempt_at(1),
                faults: corrupt,
                want: Want::Failed(|e| {
                    matches!(e, BspError::Spill { superstep: 0, error: SpillError::Corrupt { .. } })
                }),
                ..Row::default()
            },
        ]
    }

    /// Every way [`run_controlled`] can end, resident and spilled, under
    /// both executors: the expected end, no chunk outstanding, and nothing
    /// left in the spill directory. An `Ok` end reports the pool balance in
    /// its metrics; for an `Err` end the epilogue's own balance assertion
    /// (active in this profile) is the check — the pool dies with the run.
    #[test]
    fn every_terminal_state_leaves_the_pool_balanced_and_the_spill_dir_empty() {
        let (n, p) = (64, HashPartitioner::new(4));
        let executors: [(&str, &dyn Executor); 2] =
            [("threads", &ThreadExecutor), ("serial", &SerialExecutor)];
        for (exec_name, executor) in executors {
            for spilling in [false, true] {
                for row in terminal_rows() {
                    if (row.faults.is_some() && !spilling) || (row.exchange.is_some() && spilling) {
                        continue;
                    }
                    let case = format!("{}, {exec_name}, spill {spilling}", row.name);
                    let config = BspConfig {
                        max_supersteps: row.max_supersteps,
                        message_budget: row.message_budget,
                        chunk_capacity: 3,
                        max_live_chunks: spilling.then_some(4),
                        ..Default::default()
                    };
                    let faults = row.faults.unwrap_or_default();
                    let store =
                        SpillStore::create(&SpillConfig { faults, ..SpillConfig::in_temp() })
                            .unwrap();
                    let control = RunControl {
                        cancel: row.token.as_ref(),
                        checkpoint: row.checkpoint,
                        exchange: row.exchange.as_ref().map(|x| x as &dyn crate::Exchange<u32>),
                        spill: spilling.then_some(&store),
                        ..RunControl::default()
                    };
                    let trip = match (row.fire, &row.token) {
                        (Fire::Nothing, _) => Trip::Nothing,
                        (Fire::Panic, _) => Trip::Panic,
                        (Fire::Cancel, token) => Trip::Cancel(token.as_ref().expect("row token")),
                    };
                    let prog = Probe::new(n, trip);
                    let metrics = match (
                        run_controlled(n, &p, &prog, &config, executor, control),
                        row.want,
                    ) {
                        (Ok(RunOutcome::Complete(r)), Want::Complete) => Some(r.metrics),
                        (
                            Ok(RunOutcome::Cancelled(c)),
                            Want::Cancelled(reason, superstep, tuples),
                        ) => {
                            assert_eq!((c.reason, c.superstep), (reason, superstep), "{case}");
                            let captured =
                                c.frontier.map(|f| f.iter().map(|t| t.len() as u64).sum::<u64>());
                            assert_eq!(captured, tuples, "{case}: captured frontier");
                            assert_eq!(c.worker_states.len(), 4, "{case}");
                            Some(c.metrics)
                        }
                        (Err(e), Want::Failed(expected)) => {
                            assert!(expected(&e), "{case}: wrong error {e}");
                            None
                        }
                        (Ok(RunOutcome::Complete(_)), _) => panic!("{case}: ran to completion"),
                        (Ok(RunOutcome::Cancelled(c)), _) => {
                            panic!("{case}: cancelled ({}) at superstep {}", c.reason, c.superstep)
                        }
                        (Err(e), _) => panic!("{case}: failed with {e}"),
                    };
                    if row.after_compute {
                        let called = prog.calls.lock().keys().any(|&(s, _)| s == 1);
                        assert!(called, "{case}: the read failed before any compute call");
                    }
                    if let Some(m) = metrics {
                        assert_eq!(m.chunks_outstanding, 0, "{case}");
                        // Rows that end at superstep 0 stop before the cap bites.
                        if spilling && m.superstep_count() > 1 {
                            assert!(m.carried.spill_chunks > 0, "{case}: cap never bit");
                        }
                    }
                    assert_eq!(store.live_bytes(), 0, "{case}: blobs outlived the run");
                    let left = std::fs::read_dir(store.dir()).unwrap().count();
                    assert_eq!(left, 0, "{case}: files left in the spill directory");
                    let dir = store.dir().to_path_buf();
                    drop(store);
                    assert!(!dir.exists(), "{case}: the spill directory dies with the store");
                }
            }
        }
    }
}
