#![warn(missing_docs)]

//! Pattern graphs for PSgL.
//!
//! The pattern graph `Gp` is the small unlabeled graph whose instances are
//! listed in the data graph. This crate implements everything Section 3 and
//! Section 5.2.1 of the paper need from patterns:
//!
//! - [`Pattern`] — a small (≤ 32 vertices) connected undirected graph with
//!   bitmask adjacency,
//! - [`automorphism`] — full automorphism-group enumeration via
//!   backtracking (the paper cites Grochow & Kellis: DFS detects
//!   automorphisms of ≤ 100-vertex graphs in seconds; our patterns are far
//!   smaller),
//! - [`breaking`] — *automorphism breaking*: the iterative partial-order
//!   assignment of Section 5.2.1 with Heuristic 2 (break the equivalent
//!   vertex group with the highest degree first), producing a
//!   [`PartialOrderSet`] under which every subgraph instance is found
//!   exactly once,
//! - [`mvc`] — minimum vertex cover, the lower bound of Theorem 1 on the
//!   number of supersteps,
//! - [`catalog`] — the paper's benchmark patterns PG1–PG5 (Figure 4) plus
//!   parameterized cycles, cliques, paths and stars.

pub mod automorphism;
pub mod breaking;
pub mod catalog;
pub mod graph;
pub mod isomorphism;
pub mod labeled;
pub mod mvc;
pub mod parse;

pub use breaking::{break_automorphisms, PartialOrderSet};
pub use graph::{Pattern, PatternError, PatternVertex, MAX_PATTERN_VERTICES};
