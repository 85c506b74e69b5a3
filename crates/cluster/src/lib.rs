#![warn(missing_docs)]

//! A distributed multi-process BSP runtime for PSgL.
//!
//! The in-process engine (`psgl-bsp`) runs its superstep loop over
//! threads and a shared-memory message plane. This crate stretches the
//! same loop across OS processes connected by real TCP sockets:
//!
//! - **wire plane** ([`frame`]): a length-prefixed binary frame codec
//!   (checksummed, bounded, typed errors) that carries the engine's
//!   `Chunk<Gpsi>` message plane between processes, with per-peer
//!   outbound batching so a superstep costs one write per peer;
//! - **membership and barriers** ([`coordinator`], [`membership`],
//!   [`control`]): workers register with a coordinator, partitions are
//!   assigned round-robin, and every superstep barrier — including the
//!   global in-flight count that keeps halt and budget decisions
//!   bit-identical to a single-process run — flows through JSON-lines
//!   control messages;
//! - **recovery** ([`coordinator`]): heartbeat lapses mark a worker
//!   dead; the coordinator aborts the attempt, rolls survivors back to
//!   the newest complete superstep-boundary checkpoint (one single-part
//!   checkpoint per partition, streamed to the coordinator via
//!   [`control::WorkerMsg::Shard`]), reassigns
//!   the dead worker's partitions, and re-runs — deterministically
//!   reproducing the exact results of an uninterrupted run;
//! - **entry points** ([`worker::run_worker`],
//!   [`coordinator::run_cluster`], [`local::run_local`]): the `psgl
//!   cluster` CLI subcommands wrap the first two; the third is the
//!   in-process harness (threads + loopback sockets) the integration
//!   and chaos tests drive.
//!
//! The expansion kernel (`expand_gpsi`), scratch reuse, pruning, and
//! strategy code run unchanged inside each worker — the cluster swaps
//! only the exchange seam ([`exchange::TcpExchange`] implements
//! `psgl_bsp::Exchange`).

pub mod control;
pub mod coordinator;
pub mod exchange;
pub mod frame;
pub mod local;
pub mod membership;
pub mod worker;

pub use control::{CoordMsg, GraphSpec, JobSpec, StartOrder, WorkerMsg};
pub use coordinator::{run_cluster, ClusterConfig, ClusterError, ClusterOutcome};
pub use exchange::TcpExchange;
pub use frame::{
    decode, encode, read_frame, Frame, FrameError, FrameKind, FRAME_MAGIC, MAX_FRAME_BYTES,
};
pub use local::{run_local, LocalClusterConfig};
pub use membership::Membership;
pub use worker::{run_worker, WorkerOptions};
