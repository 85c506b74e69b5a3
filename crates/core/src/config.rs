//! Run configuration for a PSgL listing.

use crate::distribute::Strategy;
use psgl_pattern::PatternVertex;

/// Configuration for one subgraph-listing run.
#[derive(Clone, Debug)]
pub struct PsglConfig {
    /// Number of logical workers (the paper's cluster size knob).
    pub workers: usize,
    /// Distribution strategy (Section 5.1); the paper's best performer
    /// `(WA, 0.5)` is the default.
    pub strategy: Strategy,
    /// Initial pattern vertex; `None` selects automatically (Theorem 5
    /// rule for cycles/cliques, cost model otherwise).
    pub init_vertex: Option<PatternVertex>,
    /// Whether to break the pattern's automorphisms (Section 5.2.1).
    /// Disabling makes every instance appear `|Aut(Gp)|` times — the
    /// duplicate blow-up the paper's preprocessing removes; exposed for the
    /// ablation benchmark.
    pub break_automorphisms: bool,
    /// Whether to build and use the light-weight edge index
    /// (Section 5.2.3). Disabling reproduces Table 2's "w/o index" rows.
    pub use_edge_index: bool,
    /// Bloom-filter precision knob: bits per edge (8 ≈ 2% false positives,
    /// 12 ≈ 0.5%).
    pub index_bits_per_edge: usize,
    /// Collect the actual instances (vertex tuples) instead of only
    /// counting. The paper outputs occurrence counts by default but "can
    /// store them if necessary" (Section 7.1).
    pub collect_instances: bool,
    /// Abort when a single worker holds more than this many outgoing
    /// Gpsis within one superstep — the simulated *per-node* OutOfMemory
    /// of Tables 2 and 4 ("the imbalanced distribution leads to OOM on
    /// some nodes", Section 7.6). The engine additionally enforces
    /// `workers x budget` globally at the superstep barrier.
    pub gpsi_budget: Option<u64>,
    /// Superstep safety limit.
    pub max_supersteps: u32,
    /// Dispatch pattern-specialized expansion kernels (connectivity-map
    /// closing, two-hop wedge joins), selected per expansion. Disabling
    /// forces the generic odometer everywhere and reproduces the paper's
    /// expand-then-verify superstep structure exactly; the listed instance
    /// multiset is identical either way.
    pub compiled_kernels: bool,
    /// RNG seed (random/roulette strategies, partitioner salt).
    pub seed: u64,
}

impl Default for PsglConfig {
    fn default() -> Self {
        PsglConfig {
            workers: 4,
            strategy: Strategy::WorkloadAware { alpha: 0.5 },
            init_vertex: None,
            break_automorphisms: true,
            use_edge_index: true,
            index_bits_per_edge: 10,
            collect_instances: false,
            gpsi_budget: None,
            max_supersteps: 64,
            compiled_kernels: true,
            seed: 42,
        }
    }
}

impl PsglConfig {
    /// Convenience: default configuration with `workers` workers.
    pub fn with_workers(workers: usize) -> Self {
        PsglConfig { workers, ..Default::default() }
    }

    /// Builder-style strategy override.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style initial-vertex override.
    pub fn init_vertex(mut self, v: PatternVertex) -> Self {
        self.init_vertex = Some(v);
        self
    }

    /// Builder-style edge-index toggle.
    pub fn edge_index(mut self, enabled: bool) -> Self {
        self.use_edge_index = enabled;
        self
    }

    /// Builder-style instance collection toggle.
    pub fn collect(mut self, enabled: bool) -> Self {
        self.collect_instances = enabled;
        self
    }

    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style compiled-kernel toggle.
    pub fn kernels(mut self, enabled: bool) -> Self {
        self.compiled_kernels = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_best_practice() {
        let c = PsglConfig::default();
        assert_eq!(c.strategy, Strategy::WorkloadAware { alpha: 0.5 });
        assert!(c.use_edge_index);
        assert!(c.init_vertex.is_none());
        assert!(!c.collect_instances);
    }

    #[test]
    fn builder_chain() {
        let c = PsglConfig::with_workers(8)
            .strategy(Strategy::Random)
            .init_vertex(2)
            .edge_index(false)
            .collect(true)
            .seed(7);
        assert_eq!(c.workers, 8);
        assert_eq!(c.strategy, Strategy::Random);
        assert_eq!(c.init_vertex, Some(2));
        assert!(!c.use_edge_index);
        assert!(c.collect_instances);
        assert_eq!(c.seed, 7);
    }
}
