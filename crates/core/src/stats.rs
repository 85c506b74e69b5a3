//! Run statistics: Gpsi counts, pruning breakdown, per-worker loads.
//!
//! These counters power the paper's evaluation artifacts directly:
//! Table 2 reports Gpsi counts with/without the edge index (pruning ratio),
//! Figure 5 reports per-worker load, and Section 4.4's cost metrics are
//! accumulated in Equation 2 units.

psgl_obs::counters! {
    /// Counters accumulated while expanding Gpsis (one per worker, merged at
    /// the end of a run). Declaration order is the order of the checkpoint
    /// payload, the cluster `done` array and the replay fingerprints.
    pub struct ExpandStats {
        expanded: "Gpsis expanded (Algorithm 1 invocations).",
        generated: "New Gpsis generated (including complete instances).",
        results: "Complete subgraph instances found.",
        pruned_injectivity: "Candidates rejected: data vertex already used (injectivity).",
        pruned_degree: "Candidates rejected by the degree rule.",
        pruned_order: "Candidates rejected by the partial order from automorphism breaking.",
        pruned_connectivity: "Candidates rejected by the light-weight edge index (rule 2).",
        pruned_label: "Candidates rejected by a label mismatch (labeled matching only).",
        died_gray_check: "Gpsis that died because a GRAY edge check failed (Algorithm 2).",
        died_no_candidates: "Gpsis that died with an empty candidate set (Algorithm 5).",
        combinations_examined: "Candidate combinations examined during the cartesian-product \
            step (including ones pruned before becoming Gpsis) — the enumeration work term \
            of Equation 2.",
        index_probes: "Edge-index probes issued.",
        cost: "Accumulated cost in Equation 2 units.",
        kernel_close: "Expansions handled by the Close closing kernel.",
        kernel_twohop: "Expansions handled by the two-hop (wedge-join) closing kernel.",
        cmap_probes: "Connectivity-map lookups of the two-WHITE Close (`close_pair`).",
        cmap_hits: "Of `cmap_probes`, lookups that found the required connectivity.",
        intersect_gallop: "Exact adjacency tests and merges taken by forward-galloping cursors \
            (one per target tested, per hub binding, and per odometer row built; a row is built \
            once per universe position per expansion while its table fits, else once per use).",
        intersect_probe: "Final arenas the two-WHITE Close marked into the connectivity map.",
    }
}

impl ExpandStats {
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
    /// Bytes of message tuples that crossed the inter-worker exchange:
    /// remote messages times the `(VertexId, Gpsi<W>)` tuple at the run's
    /// message width (28, 44 or 60 bytes).
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
    fn expand_stats_is_one_table() {
        psgl_obs::assert_counter_table!(ExpandStats);
        let pruned = ExpandStats {
            pruned_injectivity: 1,
            pruned_degree: 2,
            pruned_order: 3,
            pruned_connectivity: 4,
            pruned_label: 9,
            ..Default::default()
        };
        assert_eq!(pruned.total_pruned(), 19);
    }
}
