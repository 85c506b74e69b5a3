//! Run statistics: Gpsi counts, pruning breakdown, per-worker loads.
//!
//! These counters power the paper's evaluation artifacts directly:
//! Table 2 reports Gpsi counts with/without the edge index (pruning ratio),
//! Figure 5 reports per-worker load, and Section 4.4's cost metrics are
//! accumulated in Equation 2 units.

/// Counters accumulated while expanding Gpsis (one per worker, merged at
/// the end of a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExpandStats {
    /// Gpsis expanded (Algorithm 1 invocations).
    pub expanded: u64,
    /// New Gpsis generated (including complete instances).
    pub generated: u64,
    /// Complete subgraph instances found.
    pub results: u64,
    /// Candidates rejected: data vertex already used (injectivity).
    pub pruned_injectivity: u64,
    /// Candidates rejected by the degree rule.
    pub pruned_degree: u64,
    /// Candidates rejected by the partial order from automorphism breaking.
    pub pruned_order: u64,
    /// Candidates rejected by the light-weight edge index (rule 2).
    pub pruned_connectivity: u64,
    /// Candidates rejected by a label mismatch (labeled matching only).
    pub pruned_label: u64,
    /// Gpsis that died because a GRAY edge check failed (Algorithm 2).
    pub died_gray_check: u64,
    /// Gpsis that died with an empty candidate set (Algorithm 5).
    pub died_no_candidates: u64,
    /// Candidate combinations examined during the cartesian-product step
    /// (including ones pruned before becoming Gpsis) — the enumeration
    /// work term of Equation 2.
    pub combinations_examined: u64,
    /// Edge-index probes issued.
    pub index_probes: u64,
    /// Accumulated cost in Equation 2 units.
    pub cost: u64,
    /// Expansions handled by the connectivity-map closing kernel.
    pub kernel_close: u64,
    /// Expansions handled by the two-hop (wedge-join) closing kernel.
    pub kernel_twohop: u64,
    /// Connectivity-map lookups performed by compiled kernels.
    pub cmap_probes: u64,
    /// Of `cmap_probes`, lookups that found the required connectivity.
    pub cmap_hits: u64,
    /// Exact adjacency checks taken down the galloping-merge path.
    pub intersect_gallop: u64,
    /// Adjacency intersections taken down the cmap mark-and-probe path
    /// (one per marked adjacency list).
    pub intersect_probe: u64,
}

impl ExpandStats {
    /// Merges another worker's counters into this one.
    pub fn merge(&mut self, other: &ExpandStats) {
        self.expanded += other.expanded;
        self.generated += other.generated;
        self.results += other.results;
        self.pruned_injectivity += other.pruned_injectivity;
        self.pruned_degree += other.pruned_degree;
        self.pruned_order += other.pruned_order;
        self.pruned_connectivity += other.pruned_connectivity;
        self.pruned_label += other.pruned_label;
        self.died_gray_check += other.died_gray_check;
        self.died_no_candidates += other.died_no_candidates;
        self.combinations_examined += other.combinations_examined;
        self.index_probes += other.index_probes;
        self.cost += other.cost;
        self.kernel_close += other.kernel_close;
        self.kernel_twohop += other.kernel_twohop;
        self.cmap_probes += other.cmap_probes;
        self.cmap_hits += other.cmap_hits;
        self.intersect_gallop += other.intersect_gallop;
        self.intersect_probe += other.intersect_probe;
    }

    /// Total candidates pruned by any rule.
    pub fn total_pruned(&self) -> u64 {
        self.pruned_injectivity
            + self.pruned_degree
            + self.pruned_order
            + self.pruned_connectivity
            + self.pruned_label
    }
}

/// Aggregated statistics of a whole listing run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Merged expansion counters.
    pub expand: ExpandStats,
    /// Per-worker total cost (Figure 5's data series).
    pub per_worker_cost: Vec<u64>,
    /// Simulated makespan in Equation 3 units (`Σ_s max_k L_ks`).
    pub simulated_makespan: u64,
    /// Number of supersteps the run took.
    pub supersteps: usize,
    /// Total Gpsi messages exchanged between workers.
    pub messages: u64,
    /// Of `messages`, how many were delivered on the sending worker's own
    /// fast path without touching the exchange.
    pub messages_local: u64,
    /// Bytes of message tuples that crossed the inter-worker exchange.
    pub bytes_exchanged: u64,
    /// Gpsi messages produced per superstep (the paper's per-iteration
    /// intermediate-result curves; also the sim harness's message-
    /// conservation invariant: `out[s] == in[s+1]`).
    pub messages_out_per_superstep: Vec<u64>,
    /// Gpsi messages consumed per superstep.
    pub messages_in_per_superstep: Vec<u64>,
    /// Times the chunk pool's live-chunk cap forced the degraded
    /// grow-in-place path (0 when the pool is uncapped).
    pub pool_exhausted: u64,
    /// Chunk-pool get/put imbalance at engine shutdown (0 on a clean run).
    pub chunks_outstanding: i64,
    /// High-water mark of simultaneously live pool chunks — the run's
    /// actual memory footprint in chunk units.
    pub chunks_live_peak: i64,
    /// Chunks evicted to the disk spill tier (0 with spill disabled).
    pub spill_chunks: u64,
    /// Framed bytes written to spill blobs.
    pub spill_bytes: u64,
    /// Milliseconds stalled in spill I/O (write + re-admission).
    pub spill_stall_ms: u64,
    /// Chunks' worth of spilled tuples re-admitted from disk.
    pub readmitted_chunks: u64,
    /// Wall-clock duration of the BSP run.
    pub wall_time: std::time::Duration,
    /// Max/mean imbalance of per-worker cost (1.0 = perfect).
    pub cost_imbalance: f64,
    /// Wire frames sent across the cluster data plane (0 in-process).
    pub frames_sent: u64,
    /// Wire frames received from the cluster data plane (0 in-process).
    pub frames_received: u64,
    /// Bytes sent across the cluster data plane (0 in-process).
    pub wire_bytes_sent: u64,
    /// Bytes received from the cluster data plane (0 in-process).
    pub wire_bytes_received: u64,
    /// Total nanoseconds spent waiting at superstep barriers (0 in-process).
    pub barrier_wait_nanos: u64,
    /// Barrier wait per superstep, in nanoseconds.
    pub barrier_wait_per_superstep: Vec<u64>,
    /// Compute time per superstep (sum of worker elapsed), in nanoseconds.
    /// Wall-clock derived: excluded from deterministic fingerprints.
    pub compute_nanos_per_superstep: Vec<u64>,
    /// Exchange (outbox flush + routing + peer drain) time per superstep,
    /// in nanoseconds. Wall-clock derived.
    pub exchange_nanos_per_superstep: Vec<u64>,
    /// Spill-tier stall per superstep, in nanoseconds. Wall-clock derived.
    pub spill_stall_per_superstep: Vec<u64>,
    /// Spill writes that failed and degraded the sender to resident growth.
    pub spill_write_failures: u64,
}

impl RunStats {
    /// The slow-query timeline: per superstep, how long the run spent
    /// computing vs waiting at the barrier vs stalled in spill I/O vs
    /// inside the exchange (all in fractional milliseconds).
    pub fn superstep_timeline(&self) -> Vec<psgl_obs::SuperstepTiming> {
        let ms = |nanos: u64| nanos as f64 / 1_000_000.0;
        let at = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        (0..self.supersteps)
            .map(|i| psgl_obs::SuperstepTiming {
                superstep: i as u32,
                compute_ms: ms(at(&self.compute_nanos_per_superstep, i)),
                barrier_ms: ms(at(&self.barrier_wait_per_superstep, i)),
                spill_stall_ms: ms(at(&self.spill_stall_per_superstep, i)),
                exchange_ms: ms(at(&self.exchange_nanos_per_superstep, i)),
            })
            .collect()
    }
}

impl RunStats {
    /// Fraction of messages that never crossed the exchange (0.0 for a run
    /// that sent no messages).
    pub fn local_delivery_ratio(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.messages_local as f64 / self.messages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ExpandStats { expanded: 1, generated: 2, results: 3, ..Default::default() };
        let b = ExpandStats {
            expanded: 10,
            generated: 20,
            results: 30,
            pruned_injectivity: 1,
            pruned_degree: 2,
            pruned_order: 3,
            pruned_connectivity: 4,
            pruned_label: 9,
            died_gray_check: 5,
            died_no_candidates: 6,
            combinations_examined: 11,
            index_probes: 7,
            cost: 8,
            kernel_close: 12,
            kernel_twohop: 13,
            cmap_probes: 14,
            cmap_hits: 15,
            intersect_gallop: 16,
            intersect_probe: 17,
        };
        a.merge(&b);
        assert_eq!(a.expanded, 11);
        assert_eq!(a.generated, 22);
        assert_eq!(a.results, 33);
        assert_eq!(a.total_pruned(), 19);
        assert_eq!(a.cost, 8);
        assert_eq!(a.index_probes, 7);
        assert_eq!(a.combinations_examined, 11);
        assert_eq!(a.died_gray_check, 5);
        assert_eq!(a.died_no_candidates, 6);
        assert_eq!(a.kernel_close, 12);
        assert_eq!(a.kernel_twohop, 13);
        assert_eq!(a.cmap_probes, 14);
        assert_eq!(a.cmap_hits, 15);
        assert_eq!(a.intersect_gallop, 16);
        assert_eq!(a.intersect_probe, 17);
    }
}
