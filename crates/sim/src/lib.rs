#![warn(missing_docs)]

//! Deterministic simulation & chaos harness for the PSgL BSP engine.
//!
//! This crate runs the *real* `psgl-bsp` engine and the *real*
//! `psgl-core` expansion pipeline — no mocks — under a seeded,
//! single-threaded scheduler ([`SimExecutor`]) plugged into the engine's
//! [`Executor`](psgl_bsp::Executor) seam. Every run is fully determined by
//! a `(seed, config)` pair: replaying the same pair produces bit-identical
//! `RunStats` (compared via [`fingerprint`]), which makes any failure
//! found under chaos trivially reproducible.
//!
//! Chaos is injected at the seams the engine already has, never by
//! patching its internals:
//!
//! - **superstep-boundary reorderings** — the sim scheduler permutes the
//!   order workers run in each superstep (and so who meets the shared
//!   pool cap and spill store first), and
//!   `BspConfig::exchange_shuffle_seed` permutes inbox assembly;
//! - **chunk-pool exhaustion** — `BspConfig::max_live_chunks` caps the
//!   message pool, forcing the typed degraded path;
//! - **partition skew** — `HashPartitioner::with_skew` funnels a seeded
//!   fraction of vertices onto worker 0.
//!
//! After each run, [`invariants`] checks barrier delivery (message
//! conservation across superstep boundaries), chunk-pool get/put balance,
//! `ExpandStats` counter consistency, injectivity and validity of every
//! emitted instance, and — the oracle conformance part — exact
//! instance-count parity against the centralized enumerator in
//! `psgl-baselines`.
//!
//! Entry points: [`Scenario::from_seed`] derives a full chaos
//! configuration from one seed; [`Scenario::run`] executes and checks it.
//! The `chaos` binary sweeps seed ranges for CI.

pub mod chaos;
pub mod delta;
pub mod fingerprint;
pub mod invariants;
pub mod oracle;
pub mod sched;

pub use chaos::{Scenario, SimFailure, SimReport};
pub use delta::{DeltaScenario, DeltaSimFailure, DeltaSimReport};
pub use invariants::Violation;
pub use sched::SimExecutor;
