#![warn(missing_docs)]

//! # psgl-delta — incremental subgraph listing over dynamic graphs
//!
//! The paper's PSgL engine recomputes every query from scratch, but live
//! graphs mutate. This crate maintains listing results *incrementally*: after
//! a batch of edge insertions and deletions, only expansions that touch a
//! changed edge can produce new or dead instances, so the engine seeds the
//! BSP frontier with exactly those partial instances and runs the unmodified
//! superstep loop over the restricted frontier (the join-free incremental
//! update of DDSL, mapped onto PSgL's Gpsi machinery).
//!
//! Two layers:
//!
//! - [`DeltaGraph`] ([`overlay`]) — a mutable tier over the immutable CSR
//!   [`DataGraph`](psgl_graph::DataGraph): each epoch's snapshot is the
//!   previous CSR patched with the batch's effective delta
//!   ([`DataGraph::with_batch`](psgl_graph::DataGraph::with_batch)), its
//!   ordered view's rank-space graph is patched by the same routine, and a
//!   drift count against the base decides when to compact (the snapshot
//!   becomes the new base, ordering and index rebuilt). Bloom
//!   [`EdgeIndex`](psgl_core::EdgeIndex) maintenance stays
//!   false-negative-free under deletions (stale bits tolerated until a
//!   compaction rebuild).
//! - [`DeltaQuery`] ([`engine`]) — delta-restricted expansion: for each
//!   changed edge `(u, v)` and each pattern edge `(a, b)` it seeds a partial
//!   instance binding `a ↦ u, b ↦ v`, runs the existing engine over the
//!   seeded frontier, and emits a signed [`InstanceDelta`] (`+born` /
//!   `−dying`). Deletions enumerate dying instances against the *pre*-delta
//!   snapshot; insertions enumerate born instances against the *post* one.
//!
//! Correctness is anchored on one invariant: the vertex total order used for
//! automorphism breaking is **pinned across epochs** (rebuilt only at
//! compaction), so the canonical representative of a surviving instance never
//! changes and `post = pre − dying + born` holds as an exact multiset
//! identity over mapping vectors — bit-identical to a scratch recompute that
//! shares the same epoch artifacts.

pub mod engine;
pub mod overlay;

pub use engine::{seed_frontier, DeltaQuery, InstanceDelta};
pub use overlay::{ApplyOutcome, DeltaGraph, EpochArtifacts};
