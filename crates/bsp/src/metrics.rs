//! Per-worker, per-superstep execution metrics.
//!
//! These numbers are the raw material for the paper's evaluation: Figure 5
//! plots per-worker runtime, Figure 8 plots makespan against worker count,
//! and Section 4.4's Equation 3 defines the total cost
//! `T = Σ_s max_k L_{ks}` that the engine reports as
//! [`EngineMetrics::simulated_makespan`].

use std::time::Duration;

// Every field of the three tables below is a plain `u64` (durations in
// nanoseconds); a consumer that wants another type converts at its edge.

psgl_obs::counters! {
    /// Metrics for one worker within one superstep.
    pub struct WorkerSuperstepMetrics {
        active_vertices: "Vertices the program ran on.",
        messages_in: "Messages consumed this superstep.",
        messages_out: "Messages produced this superstep.",
        local_delivered: "Of `messages_out`, how many were addressed to this worker's own \
            vertices and took the local fast path past the exchange.",
        bytes_exchanged: "Bytes of `(VertexId, M)` tuples this worker handed to the exchange \
            (locally-delivered messages excluded): remote messages times the in-memory tuple \
            size, so for PSgL 28, 44 or 60 bytes a message as the run carries Gpsis at 4, 8 \
            or 12 slots.",
        cost: "User-reported cost units (PSgL: Equation 2's `load(Gpsi)` sums).",
        elapsed_nanos: "Wall-clock nanoseconds the worker spent regrouping its inbox and \
            computing, less its time inside the spill store (its sends' spill writes and its \
            inbox's re-admission reads), which `SuperstepMetrics::spill_stall_nanos` counts.",
    }
}

psgl_obs::counters! {
    /// Network-plane counters for one superstep's exchange. All zero for the
    /// in-process engine (whose "exchange" is a pointer move); populated by a
    /// remote [`Exchange`](crate::exchange::Exchange) such as the cluster's
    /// TCP data plane. `merge` is the coordinator-side aggregation across
    /// workers.
    pub struct NetSuperstepMetrics {
        frames_sent: "Data frames written to peers.",
        frames_received: "Data frames read from peers.",
        wire_bytes_sent: "Wire bytes written (frame headers + payloads + checksums).",
        wire_bytes_received: "Wire bytes read.",
        barrier_wait_nanos: "Nanoseconds spent blocked at the superstep barrier waiting for \
            the coordinator's proceed signal (after local work and sends finished).",
        exchange_nanos: "Nanoseconds spent inside the exchange itself — flushing outboxes, \
            routing chunks, draining peer frames (in-process: the routing loop).",
    }
}

/// Metrics for one superstep across all workers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuperstepMetrics {
    /// Indexed by worker id.
    pub workers: Vec<WorkerSuperstepMetrics>,
    /// Network counters for this superstep's exchange (all zero in
    /// process-local runs).
    pub net: NetSuperstepMetrics,
    /// Nanoseconds the spill tier stalled this superstep (the workers'
    /// spill writes and re-admission reads, plus the previous barrier's
    /// eviction writes); 0 without a spill tier. The only place that time
    /// is counted: worker `elapsed_nanos` leaves it out.
    pub spill_stall_nanos: u64,
}

impl SuperstepMetrics {
    /// Total messages produced in this superstep.
    pub fn messages_out(&self) -> u64 {
        self.workers.iter().map(|w| w.messages_out).sum()
    }

    /// Maximum per-worker cost (the superstep's contribution to Equation
    /// 3's makespan).
    pub fn max_cost(&self) -> u64 {
        self.workers.iter().map(|w| w.cost).max().unwrap_or(0)
    }

    /// Total cost over all workers.
    pub fn total_cost(&self) -> u64 {
        self.workers.iter().map(|w| w.cost).sum()
    }
}

psgl_obs::counters! {
    /// Run-level counters that stay cumulative over every slice of a
    /// logical run: [`EngineMetrics::carried`] of a cancelled prefix
    /// travels through the [`ResumePoint`](crate::ResumePoint) (or a
    /// serialized checkpoint) and the resumed slice adds its own on top.
    pub struct CarriedCounters {
        pool_exhausted: "Times the pool's live-chunk cap forced a sender onto a degraded \
            path (spill to disk, or grow-in-place when no spill tier is configured). Always \
            0 when `max_live_chunks` is unset.",
        spill_chunks: "Pool chunks whose contents were evicted to the disk spill tier.",
        spill_bytes: "Framed bytes written to spill blobs.",
        spill_stall_nanos: "Nanoseconds spent blocked inside spill writes and re-admission \
            reads.",
        readmitted_chunks: "Chunks' worth of spilled tuples decoded back in at superstep \
            boundaries.",
        spill_write_failures: "Spill writes that failed (budget, ENOSPC, I/O error) and \
            degraded the sender to resident growth — served, but no longer bounded.",
        chunks_live_peak: "High-water mark of simultaneously live pool chunks — the message \
            plane's true peak memory footprint. A maximum, not a sum.",
    }
}

/// Metrics for a whole BSP run.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// One entry per executed superstep.
    pub supersteps: Vec<SuperstepMetrics>,
    /// Total wall-clock time of the run (including barriers).
    pub wall_time: Duration,
    /// Message chunks the pool had to allocate fresh.
    pub chunk_allocations: u64,
    /// Message chunks served from the pool's free list.
    pub chunk_reuses: u64,
    /// Pool get/put imbalance at shutdown (acquires minus releases);
    /// 0 on a clean run — anything else is a chunk leak or double-free.
    pub chunks_outstanding: i64,
    /// Pool-exhaustion, spill-tier and live-chunk-peak counters,
    /// cumulative over the whole logical run (resumed prefix included).
    pub carried: CarriedCounters,
}

impl EngineMetrics {
    /// Number of supersteps executed.
    pub fn superstep_count(&self) -> usize {
        self.supersteps.len()
    }

    /// Equation 3: `T = Σ_s max_k L_{ks}` — the simulated makespan in cost
    /// units, hardware-independent.
    pub fn simulated_makespan(&self) -> u64 {
        self.supersteps.iter().map(|s| s.max_cost()).sum()
    }

    /// Total cost across all workers and supersteps (the "work").
    pub fn total_cost(&self) -> u64 {
        self.supersteps.iter().map(|s| s.total_cost()).sum()
    }

    /// Per-worker cost summed over supersteps — Figure 5's x-axis data.
    pub fn per_worker_cost(&self) -> Vec<u64> {
        let workers = self.supersteps.first().map_or(0, |s| s.workers.len());
        let mut totals = vec![0u64; workers];
        for s in &self.supersteps {
            for (k, w) in s.workers.iter().enumerate() {
                totals[k] += w.cost;
            }
        }
        totals
    }

    /// Total messages exchanged over the run.
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.messages_out()).sum()
    }

    /// Messages that took the same-worker fast path over the run.
    pub fn total_local_delivered(&self) -> u64 {
        self.supersteps.iter().flat_map(|s| &s.workers).map(|w| w.local_delivered).sum()
    }

    /// Fraction of all messages delivered without crossing the exchange
    /// (0.0 for a run that sent no messages).
    pub fn local_delivery_ratio(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            return 0.0;
        }
        self.total_local_delivered() as f64 / total as f64
    }

    /// Bytes of message tuples that crossed the exchange over the run.
    pub fn total_bytes_exchanged(&self) -> u64 {
        self.supersteps.iter().flat_map(|s| &s.workers).map(|w| w.bytes_exchanged).sum()
    }

    /// Chunk allocations avoided by pool recycling (= chunks served from
    /// the free list).
    pub fn allocations_avoided(&self) -> u64 {
        self.chunk_reuses
    }

    /// Data frames written to peers over the run (0 in-process).
    pub fn total_frames_sent(&self) -> u64 {
        self.supersteps.iter().map(|s| s.net.frames_sent).sum()
    }

    /// Data frames read from peers over the run (0 in-process).
    pub fn total_frames_received(&self) -> u64 {
        self.supersteps.iter().map(|s| s.net.frames_received).sum()
    }

    /// Wire bytes written over the run (0 in-process).
    pub fn total_wire_bytes_sent(&self) -> u64 {
        self.supersteps.iter().map(|s| s.net.wire_bytes_sent).sum()
    }

    /// Wire bytes read over the run (0 in-process).
    pub fn total_wire_bytes_received(&self) -> u64 {
        self.supersteps.iter().map(|s| s.net.wire_bytes_received).sum()
    }

    /// Nanoseconds spent blocked at superstep barriers over the run.
    pub fn total_barrier_wait_nanos(&self) -> u64 {
        self.supersteps.iter().map(|s| s.net.barrier_wait_nanos).sum()
    }

    /// Per-superstep barrier wait, in nanoseconds.
    pub fn barrier_wait_per_superstep(&self) -> Vec<u64> {
        self.supersteps.iter().map(|s| s.net.barrier_wait_nanos).collect()
    }

    /// Per-superstep compute time (sum of worker elapsed), in nanoseconds.
    pub fn compute_nanos_per_superstep(&self) -> Vec<u64> {
        self.supersteps.iter().map(|s| s.workers.iter().map(|w| w.elapsed_nanos).sum()).collect()
    }

    /// Per-superstep exchange time, in nanoseconds.
    pub fn exchange_nanos_per_superstep(&self) -> Vec<u64> {
        self.supersteps.iter().map(|s| s.net.exchange_nanos).collect()
    }

    /// Per-superstep spill-tier stall, in nanoseconds.
    pub fn spill_stall_per_superstep(&self) -> Vec<u64> {
        self.supersteps.iter().map(|s| s.spill_stall_nanos).collect()
    }

    /// Max/mean imbalance of total per-worker cost (1.0 = perfect balance).
    pub fn cost_imbalance(&self) -> f64 {
        let per_worker = self.per_worker_cost();
        let total: u64 = per_worker.iter().sum();
        if total == 0 || per_worker.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / per_worker.len() as f64;
        *per_worker.iter().max().unwrap() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wm(cost: u64, mi: u64, mo: u64) -> WorkerSuperstepMetrics {
        WorkerSuperstepMetrics { cost, messages_in: mi, messages_out: mo, ..Default::default() }
    }

    #[test]
    fn counter_structs_are_one_table_each() {
        psgl_obs::assert_counter_table!(WorkerSuperstepMetrics);
        psgl_obs::assert_counter_table!(NetSuperstepMetrics);
        psgl_obs::assert_counter_table!(CarriedCounters);
    }

    #[test]
    fn makespan_is_sum_of_maxima() {
        let m = EngineMetrics {
            supersteps: vec![
                SuperstepMetrics { workers: vec![wm(10, 0, 5), wm(4, 0, 3)], ..Default::default() },
                SuperstepMetrics { workers: vec![wm(1, 5, 0), wm(7, 3, 0)], ..Default::default() },
            ],
            ..Default::default()
        };
        assert_eq!(m.simulated_makespan(), 10 + 7);
        assert_eq!(m.total_cost(), 22);
        assert_eq!(m.per_worker_cost(), vec![11, 11]);
        assert_eq!(m.total_messages(), 8);
        assert_eq!(m.cost_imbalance(), 1.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        let m = EngineMetrics {
            supersteps: vec![SuperstepMetrics {
                workers: vec![wm(30, 0, 0), wm(10, 0, 0)],
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(m.cost_imbalance(), 1.5);
    }

    #[test]
    fn message_plane_counters_aggregate() {
        let w = |out, local, bytes| WorkerSuperstepMetrics {
            messages_out: out,
            local_delivered: local,
            bytes_exchanged: bytes,
            ..Default::default()
        };
        let m = EngineMetrics {
            supersteps: vec![
                SuperstepMetrics { workers: vec![w(10, 4, 48), w(6, 6, 0)], ..Default::default() },
                SuperstepMetrics { workers: vec![w(0, 0, 0), w(4, 2, 16)], ..Default::default() },
            ],
            chunk_allocations: 5,
            chunk_reuses: 7,
            ..Default::default()
        };
        assert_eq!(m.total_local_delivered(), 12);
        assert_eq!(m.local_delivery_ratio(), 12.0 / 20.0);
        assert_eq!(m.total_bytes_exchanged(), 64);
        assert_eq!(m.allocations_avoided(), 7);
        // A run with no traffic reports a zero ratio, not NaN.
        assert_eq!(EngineMetrics::default().local_delivery_ratio(), 0.0);
    }

    #[test]
    fn empty_run_is_degenerate_but_safe() {
        let m = EngineMetrics::default();
        assert_eq!(m.simulated_makespan(), 0);
        assert_eq!(m.cost_imbalance(), 1.0);
        assert!(m.per_worker_cost().is_empty());
    }
}
