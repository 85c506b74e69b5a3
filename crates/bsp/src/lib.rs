#![warn(missing_docs)]

//! A Bulk Synchronous Parallel vertex-centric engine.
//!
//! PSgL is implemented on Giraph, an open-source Pregel (Section 6). This
//! crate is the equivalent substrate: a BSP engine where a user-supplied
//! [`VertexProgram`] runs on every active vertex each superstep, sends
//! messages to other vertices, and the engine performs the synchronous
//! message exchange between supersteps.
//!
//! Differences from a distributed Pregel, by design (see `DESIGN.md` §3):
//!
//! - workers are OS threads on one machine; "communication" between them is
//!   a memcpy, but the engine *meters* it (per-worker message counts) so
//!   experiments can reason about communication volume exactly as the
//!   paper does;
//! - per-worker *cost units* ([`Context::add_cost`]) implement the paper's
//!   `load(Gpsi)` accounting (Equation 2); the simulated makespan
//!   `Σ_s max_k cost[s][k]` is Equation 3's `T`, the quantity every
//!   load-balance figure of the paper reports;
//! - a configurable in-flight message budget reproduces the OOM failures
//!   of Tables 2 and 4 deterministically.
//!
//! The engine is message-driven: superstep 0 invokes the program on every
//! vertex (PSgL's *initialization phase*); later supersteps invoke it only
//! on vertices with pending messages. The run terminates when no messages
//! are in flight.

pub mod cancel;
pub mod chunk;
pub mod context;
pub mod control;
pub mod engine;
pub mod exchange;
pub mod exec;
pub mod frontier;
pub mod metrics;
mod regroup;
pub mod spill;

pub use cancel::{CancelReason, CancelToken};
pub use chunk::{push_chunked, Chunk, ChunkPool, PoolExhausted, DEFAULT_CHUNK_CAPACITY};
pub use context::{Context, Encode, VertexProgram};
pub use control::{BspResult, CancelledRun, ResumePoint, RunControl, RunOutcome};
pub use engine::{run_controlled, BspConfig, BspError};
pub use exchange::{
    Exchange, ExchangeDirective, ExchangeError, ExchangeOutcome, FrontierSink, WorkerOutbox,
};
pub use exec::{Executor, SerialExecutor, TaskFn, ThreadExecutor, WorkerTask};
pub use frontier::OutStream;
pub use metrics::{
    CarriedCounters, EngineMetrics, NetSuperstepMetrics, SuperstepMetrics, WorkerSuperstepMetrics,
};
pub use spill::{
    SpillConfig, SpillError, SpillFaults, SpillScratch, SpillSegment, SpillStore, SPILL_MAGIC,
};
