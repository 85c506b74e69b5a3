#![warn(missing_docs)]

//! Experiment harness for the PSgL paper's evaluation (Section 7).
//!
//! - [`paper`] — every table, figure and ablation of the paper as one
//!   function that returns its rows and checked verdicts; the `exp`
//!   binary prints them;
//! - [`datasets`] — synthetic stand-ins for the paper's graphs, with the
//!   degree-skew exponents matched to Table 1 / Section 7.2 (the real SNAP
//!   downloads are not redistributable; see `DESIGN.md` §3). Every dataset
//!   accepts a scale factor so the harness runs on a laptop;
//! - [`report`] — uniform table rendering and timing helpers, shared with
//!   the `exp_delta`, `exp_spill` and `exp_service_throughput` binaries
//!   that write `results/BENCH_*.json`.
//!
//! Run one experiment, or all of them:
//!
//! ```bash
//! cargo run --release -p psgl-bench --bin exp -- fig3
//! cargo run --release -p psgl-bench --bin exp -- all
//! ```
//!
//! `PSGL_SCALE` (default `1.0`) multiplies dataset sizes; `0.25` gives a
//! quick smoke run, `4.0` stresses a bigger machine. `exp` exits non-zero
//! when a verdict breaks the deviation rule ([`paper::check`]).

pub mod datasets;
pub mod paper;
pub mod report;
