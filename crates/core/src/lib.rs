#![warn(missing_docs)]

//! # PSgL — Parallel Subgraph Listing
//!
//! A from-scratch Rust implementation of the PSgL framework from
//! *"Parallel Subgraph Listing in a Large-Scale Graph"* (Shao, Cui, Chen,
//! Ma, Yao, Xu — SIGMOD 2014).
//!
//! PSgL lists all instances of a small unlabeled *pattern graph* in a large
//! undirected *data graph* without any join operation: the problem is
//! divided into *partial subgraph instances* ([`Gpsi`]) which are expanded
//! independently by graph traversal on a Bulk Synchronous Parallel engine,
//! in a divide-and-conquer fashion over the Gpsi tree.
//!
//! The crate implements the full paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §3 partial subgraph instances | [`gpsi`] |
//! | §4.3 expansion (Algorithms 1, 2, 5) | [`expand`] |
//! | §5.1 distribution strategies (Algorithm 3, Theorems 2–3) | [`distribute`] |
//! | §5.2.1 automorphism breaking | `psgl_pattern::breaking` |
//! | §5.2.2 initial vertex selection (Algorithm 4, Theorems 4–5) | [`init_vertex`] |
//! | §5.2.3 light-weight edge index | [`index`] |
//! | §6 Giraph vertex program | [`runner`] |
//!
//! ## Example
//!
//! ```
//! use psgl_core::{list_subgraphs, PsglConfig};
//! use psgl_graph::generators;
//! use psgl_pattern::catalog;
//!
//! let graph = generators::erdos_renyi_gnm(200, 800, 7).unwrap();
//! let result = list_subgraphs(&graph, &catalog::triangle(), &PsglConfig::default()).unwrap();
//! println!("{} triangles", result.instance_count);
//! ```

pub mod checkpoint;
pub mod config;
pub mod distribute;
pub mod expand;
pub mod gpsi;
pub mod index;
pub mod init_vertex;
pub(crate) mod kernel;
pub mod plan;
pub mod runner;
pub mod shared;
pub mod stats;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointGuard, Harvested, PartCheckpoint};
pub use config::PsglConfig;
pub use distribute::Strategy;
pub use expand::ExpandScratch;
pub use gpsi::Gpsi;
pub use index::EdgeIndex;
pub use plan::QueryPlan;
pub use psgl_bsp::{CancelReason, CancelToken, SpillConfig, SpillError, SpillFaults};
pub use runner::{
    assemble_run_stats, list_subgraphs, list_subgraphs_prepared, list_subgraphs_prepared_with, run,
    CancelledListing, ClusterMember, Harvest, ListingEnd, ListingResult, RunRequest, RunnerHooks,
    ShardSink, Start, Stop,
};
pub use shared::{PsglError, PsglShared};
pub use stats::{ExpandStats, RunStats};
