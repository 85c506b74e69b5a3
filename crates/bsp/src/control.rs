//! What goes into and comes out of [`run_controlled`](crate::run_controlled):
//! the control inputs (cancellation, checkpoint capture, resume, the
//! delivery and spill seams) and the typed outcome (complete, or a
//! possibly resumable cancellation).

use crate::cancel::{CancelReason, CancelToken};
use crate::context::VertexProgram;
use crate::engine::BspError;
use crate::exchange::{Exchange, FrontierSink};
use crate::metrics::{CarriedCounters, EngineMetrics, SuperstepMetrics};
use crate::spill::SpillStore;
use psgl_graph::VertexId;

/// Result of a successful BSP run.
#[derive(Debug)]
pub struct BspResult<S> {
    /// Final worker states, indexed by worker id.
    pub worker_states: Vec<S>,
    /// Execution metrics.
    pub metrics: EngineMetrics,
}

/// A captured frontier plus everything needed to restart a run at a
/// superstep boundary with bit-identical results: the undelivered
/// messages (per destination worker, in exchange order), the worker
/// states, and the metrics accumulated so far.
///
/// A `ResumePoint` is produced by [`CancelledRun::into_resume_point`]
/// after a soft cancel and consumed by
/// [`run_controlled`](crate::run_controlled) via [`RunControl::resume`].
/// Serialization (for resume tokens that outlive the process) lives one
/// layer up, where the message type is concrete.
pub struct ResumePoint<M, S> {
    /// Superstep at which the resumed run starts (the one that never ran).
    pub superstep: u32,
    /// Undelivered messages for each destination worker, in the exact
    /// order the exchange delivered them.
    pub frontier: Vec<Vec<(VertexId, M)>>,
    /// Worker states as of the capture barrier, indexed by worker id.
    pub worker_states: Vec<S>,
    /// Per-superstep metrics of the completed prefix; the resumed run
    /// appends to these so the final curves cover the whole run.
    pub prior_supersteps: Vec<SuperstepMetrics>,
    /// Run-level counters of the prefix (pool exhaustion, spill traffic,
    /// live-chunk peak), folded into the resumed run's totals.
    pub carried: CarriedCounters,
}

/// A run ended early by its [`CancelToken`] (or by the message budget with
/// checkpointing enabled).
pub struct CancelledRun<M, S> {
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
    /// Metrics for the completed prefix; `chunks_outstanding` is zero —
    /// the cancelled path returns every pooled chunk.
    pub metrics: EngineMetrics,
}

impl<M, S> CancelledRun<M, S> {
    /// Converts a checkpointed cancel into the [`ResumePoint`] that
    /// restarts it; `None` when no frontier was captured (hard cancel).
    pub fn into_resume_point(self) -> Option<ResumePoint<M, S>> {
        let frontier = self.frontier?;
        Some(ResumePoint {
            superstep: self.superstep,
            frontier,
            worker_states: self.worker_states,
            carried: self.metrics.carried,
            prior_supersteps: self.metrics.supersteps,
        })
    }
}

/// Outcome of a controlled run: completion, or a (possibly resumable)
/// cancellation. Engine errors (panic, budget without checkpoint,
/// superstep limit) still surface as [`BspError`].
pub enum RunOutcome<M, S> {
    /// The run delivered every message and halted normally.
    Complete(BspResult<S>),
    /// The run was cancelled; see [`CancelledRun`].
    Cancelled(CancelledRun<M, S>),
}

/// What [`run_controlled`](crate::run_controlled) yields: a typed outcome
/// (complete or cancelled) over the program's associated types, or an
/// engine error.
pub type ControlledResult<P> =
    Result<RunOutcome<<P as VertexProgram>::Message, <P as VertexProgram>::WorkerState>, BspError>;

/// Control inputs for [`run_controlled`](crate::run_controlled):
/// cancellation, checkpoint capture, and resume. Under
/// [`RunControl::default`] nothing can cancel the run: the outcome is
/// [`RunOutcome::Complete`] or an error.
pub struct RunControl<'c, M, S> {
    /// Token polled at every superstep barrier and every few message
    /// batches inside `compute`.
    pub cancel: Option<&'c CancelToken>,
    /// Capture the live frontier when a soft cancel fires at a barrier
    /// (wall-clock deadline, superstep deadline, or message budget),
    /// enabling exact resume. With this set, a wall-clock deadline lets
    /// the in-flight superstep finish instead of aborting it.
    pub checkpoint: bool,
    /// Restart from a captured frontier instead of superstep 0.
    pub resume: Option<ResumePoint<M, S>>,
    /// Delivery seam override: route the superstep exchange through this
    /// implementation (e.g. the cluster's TCP data plane plus a
    /// coordinator-run barrier) instead of the built-in in-process
    /// pointer move. Enables partial partition ownership — the engine
    /// then hosts only [`Exchange::local_partitions`]. See
    /// [`crate::exchange`] for the determinism contract.
    pub exchange: Option<&'c dyn Exchange<M>>,
    /// Receives superstep-boundary snapshots whenever the exchange
    /// directs
    /// [`ExchangeDirective::CheckpointAndContinue`](crate::ExchangeDirective);
    /// unused without [`RunControl::exchange`].
    pub sink: Option<&'c dyn FrontierSink<M, S>>,
    /// Disk spill tier: with this store set and `max_live_chunks` capped,
    /// a sender hitting the cap evicts its destination's chunk list to a
    /// per-run temp file (encoded by the message's
    /// [`Encode`](crate::Encode)) instead of growing in place, and over-cap
    /// frontiers are evicted at superstep boundaries and re-admitted when
    /// their superstep runs. The store owns the temp directory and deletes
    /// it on drop; `None` disables the tier, and the engine degrades by
    /// growing chunks in place. Ignored (spill disabled) under a remote
    /// [`RunControl::exchange`], whose frontier already lives off-worker.
    pub spill: Option<&'c SpillStore>,
    /// Structured-trace sink. Events fire at barrier granularity only
    /// (one per superstep, plus rare degradations), so the hot expand
    /// loop never sees a tracing branch. Payloads carry only
    /// schedule-independent counters, keeping seeded event streams
    /// deterministic under the sim executor.
    pub tracer: Option<&'c psgl_obs::Tracer>,
}

impl<M, S> Default for RunControl<'_, M, S> {
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
