//! The delivery seam: who moves a superstep's outboxes into the next
//! superstep's inboxes.
//!
//! The in-process engine's exchange is a pointer move — chunks hop from
//! sender outboxes to receiver inboxes in a deterministic source order
//! (see [`crate::frontier`]). A distributed runtime needs the same moment in the
//! superstep to do real work: serialize remote chunks onto sockets, wait
//! at a coordinator-run barrier, learn the *global* in-flight count, and
//! obey coordinator directives (checkpoint, abort). [`Exchange`] is that
//! seam.
//!
//! An `Exchange` also introduces *partial partition ownership*: the
//! engine hosts only the partitions in [`Exchange::local_partitions`],
//! while [`Context::send`](crate::Context::send) keeps routing by the
//! *global* partitioner — messages for non-local partitions land in
//! the streams of those partitions, which the exchange ships elsewhere.
//!
//! Determinism contract: an implementation must assemble each local
//! inbox in **global source-partition order** (the same order the
//! in-process exchange uses), and must report the **global** in-flight
//! count so every participant makes identical halt/budget decisions.
//! Under that contract a run split across processes is bit-identical to
//! the single-process run.

use crate::cancel::CancelReason;
use crate::chunk::{Chunk, ChunkPool};
use crate::frontier::OutStream;
use crate::metrics::{NetSuperstepMetrics, SuperstepMetrics};

/// One worker's sent messages awaiting exchange: one [`OutStream`] per
/// destination, indexed by *global* partition id. The stream at the
/// worker's own id holds the messages it sent to its own vertices — the
/// local fast path, which an exchange delivers without shipping.
pub type WorkerOutbox<M> = Vec<OutStream<M>>;

/// What the run should do after an exchange, as decided by whoever runs
/// the barrier (the coordinator, for a remote exchange).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeDirective {
    /// Proceed into the next superstep.
    Continue,
    /// Proceed, but first let the [`FrontierSink`] capture a
    /// superstep-boundary checkpoint of the states and the new inboxes.
    CheckpointAndContinue,
    /// Stop the run: the coordinator cancelled it (deadline, explicit
    /// cancel, or a peer failure triggering rollback).
    Abort(CancelReason),
}

/// A completed exchange: the next superstep's inboxes plus the global
/// barrier outcome.
pub struct ExchangeOutcome<M> {
    /// Next inboxes, one per local partition, in
    /// [`Exchange::local_partitions`] order. Each inbox must be assembled
    /// in global source-partition order.
    pub inboxes: Vec<Vec<Chunk<M>>>,
    /// Messages in flight across the *whole* run (all partitions, local
    /// and remote) — the halt/budget decisions key off this, so it must
    /// be identical at every participant.
    pub in_flight: u64,
    /// Network counters for this exchange (frames, wire bytes, barrier
    /// wait).
    pub net: NetSuperstepMetrics,
    /// What the barrier decided.
    pub directive: ExchangeDirective,
}

/// A failed exchange: a peer socket died, a frame failed to decode, or
/// the coordinator vanished. The implementation must release every chunk
/// it was handed (or acquired) back to the pool before returning this.
#[derive(Debug)]
pub struct ExchangeError {
    /// Superstep whose exchange failed.
    pub superstep: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exchange failed after superstep {}: {}", self.superstep, self.message)
    }
}

impl std::error::Error for ExchangeError {}

/// Moves one superstep's outboxes to the next superstep's inboxes —
/// locally or across a wire — and runs the superstep barrier.
///
/// Invoked by the engine once per superstep, after every worker task has
/// finished and per-worker metrics are merged. `outs` holds one
/// [`WorkerOutbox`] per local partition (in [`Self::local_partitions`]
/// order); the implementation consumes them, releasing every chunk to
/// `pool` once its tuples are shipped, and returns inboxes built from
/// pool chunks. `step` carries the local partitions' metrics for the
/// superstep just executed, for barrier reporting.
pub trait Exchange<M>: Sync {
    /// Total number of logical partitions in the run (the global
    /// partitioner's worker count).
    fn num_partitions(&self) -> usize;

    /// The global partition ids this engine instance hosts, ascending.
    /// The in-process engine behaves as if this were `0..num_partitions`.
    fn local_partitions(&self) -> Vec<usize>;

    /// Performs the exchange after `superstep` and waits out the barrier.
    fn exchange(
        &self,
        superstep: u32,
        pool: &ChunkPool<M>,
        outs: Vec<WorkerOutbox<M>>,
        step: &SuperstepMetrics,
    ) -> Result<ExchangeOutcome<M>, ExchangeError>;
}

/// Captures superstep-boundary checkpoints when an [`Exchange`] directs
/// [`ExchangeDirective::CheckpointAndContinue`].
///
/// `states` and `frontier` are indexed by local partition slot (the
/// [`Exchange::local_partitions`] order); `superstep` is the one the
/// restored run would resume at (the one about to execute). The sink
/// borrows — it must copy what it keeps, the run continues with these
/// exact states and inboxes.
pub trait FrontierSink<M, S>: Sync {
    /// Captures one superstep-boundary snapshot.
    fn capture(&self, superstep: u32, states: &[S], frontier: &[Vec<Chunk<M>>]);
}
