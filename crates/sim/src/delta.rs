//! Seeded chaos scenarios for the *incremental* listing path
//! ([`psgl_delta`]): one `u64` seed → a dynamic-graph workload (base
//! graph + mutation batches) plus a draw from the chaos fault menu, run
//! through `DeltaQuery::delta_with_hooks` under the [`SimExecutor`].
//!
//! The check is the dynamic-graph acceptance invariant: a materialized
//! instance list maintained purely by signed-delta patching must equal a
//! scratch enumeration of the post-mutation graph — as a sorted multiset,
//! after **every** batch, for **all five** paper strategies. Compaction
//! (the pinned ordering rebuilt mid-run) must degrade to an explicit
//! resync, never a silently wrong patch.

use crate::chaos::chaos_patterns;
use crate::sched::{SimExecutor, SimRng};
use psgl_core::runner::RunnerHooks;
use psgl_core::{PsglConfig, Strategy};
use psgl_delta::{DeltaGraph, DeltaQuery};
use psgl_graph::generators::{dynamic_batches, erdos_renyi_gnm, EdgeBatch};
use psgl_graph::hash::hash_u64;
use psgl_graph::partition::HashPartitioner;
use psgl_pattern::Pattern;
use std::fmt;

/// A fully-expanded dynamic-graph chaos configuration; every field is
/// derived from [`DeltaScenario::from_seed`]'s seed.
#[derive(Clone)]
pub struct DeltaScenario {
    /// The originating seed (the replay handle).
    pub seed: u64,
    /// Pattern whose instance set is maintained incrementally.
    pub pattern: Pattern,
    /// Base-graph vertex count (Erdős–Rényi G(n, m)).
    pub graph_vertices: usize,
    /// Base-graph edge count.
    pub graph_edges: usize,
    /// Generator seed of the base graph.
    pub graph_seed: u64,
    /// Mutation batches applied in sequence.
    pub num_batches: usize,
    /// Target mutations per batch.
    pub batch_edges: usize,
    /// Per-mille of mutations that are inserts (rest are deletes).
    pub insert_per_mille: u16,
    /// Overlay size that triggers compaction; small draws force the
    /// ordering rebuild (and therefore the resync path) mid-run.
    pub compact_threshold: usize,
    /// BSP worker count.
    pub workers: usize,
    /// Live-chunk cap on the message pool (exhaustion fault).
    pub max_live_chunks: Option<u64>,
    /// Seed for per-destination exchange reordering.
    pub exchange_shuffle_seed: Option<u64>,
    /// Per-mille of vertices force-routed to worker 0 (partition skew).
    pub skew_per_mille: u16,
    /// `PsglConfig::seed` for every run in the scenario.
    pub run_seed: u64,
}

impl fmt::Debug for DeltaScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaScenario")
            .field("seed", &self.seed)
            .field("pattern", &self.pattern.name())
            .field(
                "graph",
                &format_args!(
                    "G({}, {}) seed {}",
                    self.graph_vertices, self.graph_edges, self.graph_seed
                ),
            )
            .field(
                "batches",
                &format_args!(
                    "{} × ~{} edges, {}‰ inserts",
                    self.num_batches, self.batch_edges, self.insert_per_mille
                ),
            )
            .field("compact_threshold", &self.compact_threshold)
            .field("workers", &self.workers)
            .field("max_live_chunks", &self.max_live_chunks)
            .field("exchange_shuffle_seed", &self.exchange_shuffle_seed)
            .field("skew_per_mille", &self.skew_per_mille)
            .field("run_seed", &self.run_seed)
            .finish()
    }
}

impl DeltaScenario {
    /// Expands `seed` into a full dynamic-graph chaos configuration.
    pub fn from_seed(seed: u64) -> DeltaScenario {
        let mut rng = SimRng(seed ^ 0xDE17_A0DE_17A0_DE17);
        let patterns = chaos_patterns();
        let pattern = patterns[rng.below(patterns.len() as u64) as usize].clone();
        let graph_seed = rng.below(8);
        let graph_vertices = 24 + 3 * graph_seed as usize;
        let graph_edges = 3 * graph_vertices;
        let num_batches = 3 + rng.below(3) as usize;
        let batch_edges = 2 + rng.below(5) as usize;
        let insert_per_mille = [300u16, 500, 700][rng.below(3) as usize];
        // One draw in four picks a threshold the workload will cross,
        // forcing at least one mid-run compaction (ordering rebuild).
        let compact_threshold = if rng.below(4) == 0 { 4 } else { 1 << 16 };
        let workers = 2 + rng.below(3) as usize;
        rng.skip_retired_knobs();
        let max_live_chunks = if rng.below(3) == 0 { Some(1 + rng.below(8)) } else { None };
        let exchange_shuffle_seed = if rng.below(2) == 0 { Some(rng.next_u64()) } else { None };
        let skew_per_mille = [0u16, 200, 500, 800][rng.below(4) as usize];
        rng.below(3); // a fourth retired knob
        let run_seed = rng.next_u64();
        DeltaScenario {
            seed,
            pattern,
            graph_vertices,
            graph_edges,
            graph_seed,
            num_batches,
            batch_edges,
            insert_per_mille,
            compact_threshold,
            workers,
            max_live_chunks,
            exchange_shuffle_seed,
            skew_per_mille,
            run_seed,
        }
    }

    fn hooks<'a>(&self, executor: &'a SimExecutor) -> RunnerHooks<'a> {
        let partitioner = (self.skew_per_mille > 0).then(|| {
            HashPartitioner::with_skew(self.workers, hash_u64(self.run_seed), self.skew_per_mille)
        });
        RunnerHooks {
            executor: Some(executor),
            partitioner,
            max_live_chunks: self.max_live_chunks,
            exchange_shuffle_seed: self.exchange_shuffle_seed,
            chunk_capacity: None,
            spill: None,
            tracer: None,
        }
    }

    /// The mutation stream, regenerated deterministically from the
    /// scenario (batch `i + 1` targets the graph after batch `i`).
    pub fn batches(&self, base: &psgl_graph::DataGraph) -> Vec<EdgeBatch> {
        dynamic_batches(
            base,
            self.num_batches,
            self.batch_edges,
            self.insert_per_mille as f64 / 1000.0,
            self.run_seed ^ 0xBA7C_4BA7_C4BA_7C4B,
        )
    }

    /// Runs the scenario once per paper strategy: maintains a
    /// materialized instance list by delta patching under the chaos
    /// schedule and demands sorted-multiset parity with a scratch
    /// enumeration after every batch. Returns per-scenario totals.
    pub fn run(&self) -> Result<DeltaSimReport, Box<DeltaSimFailure>> {
        let base = erdos_renyi_gnm(self.graph_vertices, self.graph_edges as u64, self.graph_seed)
            .expect("scenario graph parameters are always valid");
        let batches = self.batches(&base);
        let mut report = DeltaSimReport::default();
        for (strategy_name, strategy) in Strategy::paper_variants() {
            self.run_strategy(strategy_name, strategy, &base, &batches, &mut report)?;
        }
        Ok(report)
    }

    fn run_strategy(
        &self,
        strategy_name: &'static str,
        strategy: Strategy,
        base: &psgl_graph::DataGraph,
        batches: &[EdgeBatch],
        report: &mut DeltaSimReport,
    ) -> Result<(), Box<DeltaSimFailure>> {
        let fail = |batch: usize, detail: String| {
            Box::new(DeltaSimFailure { scenario: self.clone(), strategy_name, batch, detail })
        };
        let config = PsglConfig::with_workers(self.workers)
            .strategy(strategy)
            .seed(self.run_seed)
            .collect(true);
        let query = DeltaQuery::new(&self.pattern, &config)
            .map_err(|e| fail(0, format!("prepare: {e}")))?;
        let mut dg = DeltaGraph::new(base.clone(), 10, self.compact_threshold);
        let mut view =
            query.full(dg.artifacts()).map_err(|e| fail(0, format!("initial listing: {e}")))?;
        let executor = SimExecutor::new(self.seed);
        let hooks = self.hooks(&executor);
        for (i, batch) in batches.iter().enumerate() {
            let pre = dg.artifacts().clone();
            let out = dg.apply(batch).map_err(|e| fail(i, format!("apply: {e}")))?;
            if out.compacted {
                // The pinned ordering was rebuilt: the only correct move
                // is a resync (exactly what the service does to its views).
                report.compactions += 1;
                view = query
                    .full(dg.artifacts())
                    .map_err(|e| fail(i, format!("resync listing: {e}")))?;
            } else {
                let delta = query
                    .delta_with_hooks(&pre, dg.artifacts(), &out.inserted, &out.deleted, &hooks)
                    .map_err(|e| fail(i, format!("delta: {e}")))?;
                delta.patch(&mut view);
            }
            let mut scratch =
                query.full(dg.artifacts()).map_err(|e| fail(i, format!("scratch listing: {e}")))?;
            let mut patched = view.clone();
            patched.sort_unstable();
            scratch.sort_unstable();
            if patched != scratch {
                return Err(fail(
                    i,
                    format!(
                        "multiset divergence: {} patched vs {} scratch instances",
                        patched.len(),
                        scratch.len()
                    ),
                ));
            }
            report.batches_checked += 1;
            report.final_instances = scratch.len() as u64;
        }
        Ok(())
    }
}

/// Per-scenario totals of a passing dynamic-graph chaos run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaSimReport {
    /// `(strategy, batch)` pairs that passed the multiset-parity check.
    pub batches_checked: u64,
    /// Batches that compacted (exercising the resync path instead).
    pub compactions: u64,
    /// Instances in the final epoch (same for every strategy).
    pub final_instances: u64,
}

/// A failed dynamic-graph chaos run, carrying the replay recipe.
#[derive(Clone, Debug)]
pub struct DeltaSimFailure {
    /// The failing configuration; `DeltaScenario::from_seed(scenario.seed)`
    /// reproduces it exactly.
    pub scenario: DeltaScenario,
    /// Strategy under which the run diverged.
    pub strategy_name: &'static str,
    /// Zero-based index of the offending batch.
    pub batch: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for DeltaSimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "delta chaos scenario FAILED — replay with DeltaScenario::from_seed({})",
            self.scenario.seed
        )?;
        writeln!(f, "  config: {:?}", self.scenario)?;
        writeln!(f, "  strategy: {}, batch {}: {}", self.strategy_name, self.batch, self.detail)
    }
}

impl std::error::Error for DeltaSimFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_varied() {
        let a = DeltaScenario::from_seed(42);
        let b = DeltaScenario::from_seed(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let scenarios: Vec<DeltaScenario> = (0..64).map(DeltaScenario::from_seed).collect();
        assert!(scenarios.iter().any(|s| s.compact_threshold == 4));
        assert!(scenarios.iter().any(|s| s.compact_threshold > 4));
        assert!(scenarios.iter().any(|s| s.max_live_chunks.is_some()));
        assert!(scenarios.iter().any(|s| s.skew_per_mille > 0));
        assert!(scenarios.iter().any(|s| s.insert_per_mille == 300));
        assert!(scenarios.iter().any(|s| s.insert_per_mille == 700));
    }

    #[test]
    fn a_single_delta_scenario_runs_clean_across_all_strategies() {
        let report = DeltaScenario::from_seed(1).run().unwrap_or_else(|f| panic!("{f}"));
        // 5 strategies × num_batches parity checks.
        let scenario = DeltaScenario::from_seed(1);
        assert_eq!(report.batches_checked, 5 * scenario.num_batches as u64);
    }

    #[test]
    fn a_compacting_scenario_exercises_the_resync_path() {
        // Find a seed drawing the tiny compaction threshold and require
        // its run to both pass and actually compact.
        for seed in 0..64 {
            let scenario = DeltaScenario::from_seed(seed);
            if scenario.compact_threshold != 4 || scenario.num_batches * scenario.batch_edges <= 4 {
                continue;
            }
            let report = scenario.run().unwrap_or_else(|f| panic!("{f}"));
            assert!(report.compactions > 0, "threshold 4 must compact: {scenario:?}");
            return;
        }
        panic!("seed range never drew a compacting scenario");
    }
}
