//! Server-wide counters surfaced by the `stats` verb.
//!
//! Naming follows the engine's conventions: Gpsi and pruning counters
//! aggregate the same [`psgl_core::stats::ExpandStats`] fields the CLI and
//! benchmarks report, so numbers line up across surfaces.
//!
//! The counters live in a [`psgl_obs::Registry`] — the same handles feed
//! the legacy `stats` verb JSON (field names and order unchanged), the
//! `metrics` verb, and the Prometheus exposition, so every surface reads
//! one source of truth.

use crate::json::Json;
use psgl_core::stats::RunStats;
use psgl_obs::{Counter, Gauge, Registry};
use std::time::Instant;

/// Monotonic counters plus the queue-depth and running gauges, all backed
/// by registry handles (relaxed atomics underneath — these are
/// statistics, not synchronization).
pub struct ServerStats {
    started: Instant,
    registry: Registry,
    /// Connections accepted.
    pub connections: Counter,
    /// Requests parsed (any verb).
    pub requests: Counter,
    /// Queries (count/list) answered successfully.
    pub queries_ok: Counter,
    /// Queries rejected at admission (`overloaded`).
    pub rejected_overloaded: Counter,
    /// Queries aborted by their Gpsi budget (`budget_exceeded`).
    pub rejected_budget: Counter,
    /// Queries failed for any other reason.
    pub queries_failed: Counter,
    /// Queries cancelled (explicit cancel, client disconnect, deadline,
    /// or budget-with-checkpoint), resumable or not.
    pub cancelled: Counter,
    /// Edge batches applied via the `mutate` verb.
    pub mutations: Counter,
    /// Jobs currently waiting in the admission queue (gauge).
    pub queue_depth: Gauge,
    /// Jobs currently executing on the worker pool (gauge).
    pub running: Gauge,
    /// Superstep slices executed by the preemptive scheduler (a query
    /// that never yields still counts one).
    pub slices: Counter,
    /// Slices that ended in preemption — the run yielded its worker at a
    /// barrier and went back to the run queue.
    pub preemptions: Counter,
    /// Pages streamed to `stream: true` list clients.
    pub pages_streamed: Counter,
    /// Total Gpsis generated across executed queries (cache hits add 0).
    pub gpsis_generated: Counter,
    /// Total candidates pruned across executed queries.
    pub candidates_pruned: Counter,
    /// Total edge-index probes across executed queries.
    pub index_probes: Counter,
    /// Expansions served by the compiled close kernel.
    pub kernel_close: Counter,
    /// Expansions served by the compiled two-hop kernel.
    pub kernel_twohop: Counter,
    /// Connectivity-map probes across executed queries.
    pub cmap_probes: Counter,
    /// Of `cmap_probes`, probes that confirmed adjacency.
    pub cmap_hits: Counter,
    /// Total Gpsi messages exchanged across executed queries.
    pub messages_total: Counter,
    /// Of `messages_total`, messages delivered on the sending worker's
    /// local fast path (never crossed the engine's exchange).
    pub messages_local: Counter,
    /// Wire frames sent by distributed exchanges (0 for purely
    /// in-process runs — the shared-memory plane sends no frames).
    pub frames_sent: Counter,
    /// Wire frames received by distributed exchanges.
    pub frames_received: Counter,
    /// Encoded bytes shipped by distributed exchanges.
    pub wire_bytes_sent: Counter,
    /// Encoded bytes received by distributed exchanges.
    pub wire_bytes_received: Counter,
    /// Nanoseconds spent blocked on superstep barriers.
    pub barrier_wait_nanos: Counter,
    /// Times an engine chunk pool hit its live-chunk cap across executed
    /// queries (each is either a disk eviction or a degraded in-place
    /// grow).
    pub pool_exhausted: Counter,
    /// High-water mark of simultaneously live pool chunks over any single
    /// executed query — the worst per-run memory footprint in chunk units.
    pub chunks_live_peak: Counter,
    /// Chunks evicted to the disk spill tier across executed queries.
    pub spill_chunks: Counter,
    /// Framed bytes written to spill blobs across executed queries.
    pub spill_bytes: Counter,
    /// Milliseconds queries spent stalled in spill I/O.
    pub spill_stall_ms: Counter,
    /// Chunks' worth of spilled tuples re-admitted from disk.
    pub readmitted_chunks: Counter,
    /// Spill-blob writes that failed (budget, injected fault, or real
    /// I/O error) and were served from the degraded resident path.
    pub spill_write_failures: Counter,
    /// Giant queries admitted as memory-bounded spilling runs instead of
    /// being rejected `overloaded`/`budget_exceeded`.
    pub degraded_to_spill: Counter,
}

impl Default for ServerStats {
    fn default() -> Self {
        let r = Registry::new();
        ServerStats {
            started: Instant::now(),
            connections: r.counter("psgl_connections", "Connections accepted."),
            requests: r.counter("psgl_requests", "Requests parsed (any verb)."),
            queries_ok: r.counter("psgl_queries_ok", "Queries answered successfully."),
            rejected_overloaded: r
                .counter("psgl_rejected_overloaded", "Queries rejected at admission."),
            rejected_budget: r
                .counter("psgl_rejected_budget", "Queries aborted by their Gpsi budget."),
            queries_failed: r.counter("psgl_queries_failed", "Queries failed for other reasons."),
            cancelled: r.counter("psgl_cancelled", "Queries cancelled, resumable or not."),
            mutations: r.counter("psgl_mutations", "Edge batches applied via mutate."),
            queue_depth: r.gauge("psgl_queue_depth", "Jobs waiting in the admission queue."),
            running: r.gauge("psgl_running", "Jobs executing on the worker pool."),
            slices: r.counter("psgl_slices", "Superstep slices executed by the scheduler."),
            preemptions: r.counter("psgl_preemptions", "Slices that ended in preemption."),
            pages_streamed: r.counter("psgl_pages_streamed", "Pages streamed to list clients."),
            gpsis_generated: r
                .counter("psgl_gpsis_generated", "Gpsis generated across executed queries."),
            candidates_pruned: r
                .counter("psgl_candidates_pruned", "Candidates pruned across executed queries."),
            index_probes: r.counter("psgl_index_probes", "Edge-index probes."),
            kernel_close: r.counter("psgl_kernel_close", "Expansions via the close kernel."),
            kernel_twohop: r.counter("psgl_kernel_twohop", "Expansions via the two-hop kernel."),
            cmap_probes: r.counter("psgl_cmap_probes", "Connectivity-map probes."),
            cmap_hits: r.counter("psgl_cmap_hits", "Connectivity-map probes that hit."),
            messages_total: r.counter("psgl_messages_total", "Gpsi messages exchanged."),
            messages_local: r
                .counter("psgl_messages_local", "Messages delivered on the local fast path."),
            frames_sent: r.counter("psgl_frames_sent", "Wire frames sent by exchanges."),
            frames_received: r.counter("psgl_frames_received", "Wire frames received."),
            wire_bytes_sent: r.counter("psgl_wire_bytes_sent", "Encoded bytes shipped."),
            wire_bytes_received: r.counter("psgl_wire_bytes_received", "Encoded bytes received."),
            barrier_wait_nanos: r
                .counter("psgl_barrier_wait_nanos", "Nanoseconds blocked on barriers."),
            pool_exhausted: r
                .counter("psgl_pool_exhausted", "Times a chunk pool hit its live-chunk cap."),
            chunks_live_peak: r
                .counter("psgl_chunks_live_peak", "High-water mark of live pool chunks."),
            spill_chunks: r.counter("psgl_spill_chunks", "Chunks evicted to the spill tier."),
            spill_bytes: r.counter("psgl_spill_bytes", "Framed bytes written to spill blobs."),
            spill_stall_ms: r.counter("psgl_spill_stall_ms", "Milliseconds stalled in spill I/O."),
            readmitted_chunks: r
                .counter("psgl_readmitted_chunks", "Spilled chunks re-admitted from disk."),
            spill_write_failures: r.counter(
                "psgl_spill_write_failures",
                "Spill writes that failed and degraded to the resident path.",
            ),
            degraded_to_spill: r.counter(
                "psgl_degraded_to_spill",
                "Giant queries admitted as degraded spilling runs.",
            ),
            registry: r,
        }
    }
}

impl ServerStats {
    /// Creates zeroed stats with the uptime clock started now.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// The registry backing every counter — the `metrics` verb and the
    /// Prometheus exposition snapshot this.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Seconds since the service started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Folds one executed run's engine counters in (cache hits skip this —
    /// that is exactly what makes `gpsis_generated` a "new work" signal).
    pub fn record_run(&self, stats: &RunStats) {
        self.gpsis_generated.add(stats.expand.generated);
        self.candidates_pruned.add(stats.expand.total_pruned());
        self.index_probes.add(stats.expand.index_probes);
        self.kernel_close.add(stats.expand.kernel_close);
        self.kernel_twohop.add(stats.expand.kernel_twohop);
        self.cmap_probes.add(stats.expand.cmap_probes);
        self.cmap_hits.add(stats.expand.cmap_hits);
        self.messages_total.add(stats.messages);
        self.messages_local.add(stats.messages_local);
        self.frames_sent.add(stats.frames_sent);
        self.frames_received.add(stats.frames_received);
        self.wire_bytes_sent.add(stats.wire_bytes_sent);
        self.wire_bytes_received.add(stats.wire_bytes_received);
        self.barrier_wait_nanos.add(stats.barrier_wait_nanos);
        self.pool_exhausted.add(stats.pool_exhausted);
        self.chunks_live_peak.max(stats.chunks_live_peak.max(0) as u64);
        self.spill_chunks.add(stats.spill_chunks);
        self.spill_bytes.add(stats.spill_bytes);
        self.spill_stall_ms.add(stats.spill_stall_ms);
        self.readmitted_chunks.add(stats.readmitted_chunks);
        self.spill_write_failures.add(stats.spill_write_failures);
    }

    /// Snapshot as the `stats` verb's `server` object.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("uptime_secs", Json::from(self.uptime_secs())),
            ("connections", Json::from(self.connections.get())),
            ("requests", Json::from(self.requests.get())),
            ("queries_ok", Json::from(self.queries_ok.get())),
            ("rejected_overloaded", Json::from(self.rejected_overloaded.get())),
            ("rejected_budget", Json::from(self.rejected_budget.get())),
            ("queries_failed", Json::from(self.queries_failed.get())),
            ("cancelled", Json::from(self.cancelled.get())),
            ("mutations", Json::from(self.mutations.get())),
            ("queue_depth", Json::from(self.queue_depth.get())),
            ("running", Json::from(self.running.get())),
            ("slices", Json::from(self.slices.get())),
            ("preemptions", Json::from(self.preemptions.get())),
            ("pages_streamed", Json::from(self.pages_streamed.get())),
            ("gpsis_generated", Json::from(self.gpsis_generated.get())),
            ("candidates_pruned", Json::from(self.candidates_pruned.get())),
            ("index_probes", Json::from(self.index_probes.get())),
            ("kernel_close", Json::from(self.kernel_close.get())),
            ("kernel_twohop", Json::from(self.kernel_twohop.get())),
            ("cmap_probes", Json::from(self.cmap_probes.get())),
            ("cmap_hits", Json::from(self.cmap_hits.get())),
            ("messages_total", Json::from(self.messages_total.get())),
            ("local_delivery_ratio", Json::from(self.local_delivery_ratio())),
            ("pool_exhausted", Json::from(self.pool_exhausted.get())),
            ("chunks_live_peak", Json::from(self.chunks_live_peak.get())),
            ("spill_chunks", Json::from(self.spill_chunks.get())),
            ("spill_bytes", Json::from(self.spill_bytes.get())),
            ("spill_stall_ms", Json::from(self.spill_stall_ms.get())),
            ("readmitted_chunks", Json::from(self.readmitted_chunks.get())),
            ("degraded_to_spill", Json::from(self.degraded_to_spill.get())),
        ])
    }

    /// Snapshot as the `stats` verb's `cluster` object: the wire-plane
    /// counters distributed exchanges record into `RunStats`. All zero
    /// on a service that has only executed in-process queries.
    pub fn cluster_snapshot(&self) -> Json {
        Json::obj([
            ("frames_sent", Json::from(self.frames_sent.get())),
            ("frames_received", Json::from(self.frames_received.get())),
            ("wire_bytes_sent", Json::from(self.wire_bytes_sent.get())),
            ("wire_bytes_received", Json::from(self.wire_bytes_received.get())),
            ("barrier_wait_nanos", Json::from(self.barrier_wait_nanos.get())),
        ])
    }

    /// Fraction of exchanged messages that stayed on their sending worker
    /// (0.0 before any query has executed).
    pub fn local_delivery_ratio(&self) -> f64 {
        let total = self.messages_total.get();
        if total == 0 {
            return 0.0;
        }
        self.messages_local.get() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_core::stats::ExpandStats;

    #[test]
    fn record_run_accumulates_engine_counters() {
        let stats = ServerStats::new();
        let run = RunStats {
            expand: ExpandStats {
                generated: 100,
                pruned_degree: 5,
                pruned_order: 7,
                index_probes: 40,
                kernel_close: 9,
                kernel_twohop: 4,
                cmap_probes: 33,
                cmap_hits: 31,
                ..Default::default()
            },
            messages: 80,
            messages_local: 60,
            ..Default::default()
        };
        stats.record_run(&run);
        stats.record_run(&run);
        let snap = stats.snapshot();
        assert_eq!(snap.get("gpsis_generated").unwrap().as_u64(), Some(200));
        assert_eq!(snap.get("candidates_pruned").unwrap().as_u64(), Some(24));
        assert_eq!(snap.get("index_probes").unwrap().as_u64(), Some(80));
        assert_eq!(snap.get("kernel_close").unwrap().as_u64(), Some(18));
        assert_eq!(snap.get("kernel_twohop").unwrap().as_u64(), Some(8));
        assert_eq!(snap.get("cmap_probes").unwrap().as_u64(), Some(66));
        assert_eq!(snap.get("cmap_hits").unwrap().as_u64(), Some(62));
        assert_eq!(snap.get("messages_total").unwrap().as_u64(), Some(160));
        assert_eq!(snap.get("local_delivery_ratio").unwrap().as_f64(), Some(0.75));
        assert!(snap.get("uptime_secs").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn local_delivery_ratio_is_zero_before_any_run() {
        assert_eq!(ServerStats::new().local_delivery_ratio(), 0.0);
    }

    #[test]
    fn record_run_folds_spill_counters_and_tracks_the_peak() {
        let stats = ServerStats::new();
        let mut run = RunStats {
            pool_exhausted: 3,
            chunks_live_peak: 40,
            spill_chunks: 12,
            spill_bytes: 4096,
            spill_stall_ms: 7,
            readmitted_chunks: 12,
            ..Default::default()
        };
        stats.record_run(&run);
        // A second, smaller run: sums accumulate, the peak keeps its max.
        run.chunks_live_peak = 5;
        stats.record_run(&run);
        let snap = stats.snapshot();
        assert_eq!(snap.get("pool_exhausted").unwrap().as_u64(), Some(6));
        assert_eq!(snap.get("chunks_live_peak").unwrap().as_u64(), Some(40));
        assert_eq!(snap.get("spill_chunks").unwrap().as_u64(), Some(24));
        assert_eq!(snap.get("spill_bytes").unwrap().as_u64(), Some(8192));
        assert_eq!(snap.get("spill_stall_ms").unwrap().as_u64(), Some(14));
        assert_eq!(snap.get("readmitted_chunks").unwrap().as_u64(), Some(24));
        assert_eq!(snap.get("degraded_to_spill").unwrap().as_u64(), Some(0));
    }

    fn keys(obj: &Json) -> Vec<&str> {
        match obj {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    /// Golden pin of what every stats surface renders, in order: the
    /// `stats` verb's `server` and `cluster` keys, the registry's series
    /// names, and the Prometheus exposition of a fresh service (which
    /// also covers each series' kind and help text).
    #[test]
    fn stats_keys_and_series_order_are_pinned() {
        let stats = ServerStats::new();
        assert_eq!(
            keys(&stats.snapshot()),
            [
                "uptime_secs",
                "connections",
                "requests",
                "queries_ok",
                "rejected_overloaded",
                "rejected_budget",
                "queries_failed",
                "cancelled",
                "mutations",
                "queue_depth",
                "running",
                "slices",
                "preemptions",
                "pages_streamed",
                "gpsis_generated",
                "candidates_pruned",
                "index_probes",
                "kernel_close",
                "kernel_twohop",
                "cmap_probes",
                "cmap_hits",
                "messages_total",
                "local_delivery_ratio",
                "pool_exhausted",
                "chunks_live_peak",
                "spill_chunks",
                "spill_bytes",
                "spill_stall_ms",
                "readmitted_chunks",
                "degraded_to_spill",
            ]
        );
        assert_eq!(
            keys(&stats.cluster_snapshot()),
            [
                "frames_sent",
                "frames_received",
                "wire_bytes_sent",
                "wire_bytes_received",
                "barrier_wait_nanos",
            ]
        );
        let registry = stats.registry().snapshot();
        let series: Vec<&str> = registry.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            series,
            [
                "psgl_connections",
                "psgl_requests",
                "psgl_queries_ok",
                "psgl_rejected_overloaded",
                "psgl_rejected_budget",
                "psgl_queries_failed",
                "psgl_cancelled",
                "psgl_mutations",
                "psgl_queue_depth",
                "psgl_running",
                "psgl_slices",
                "psgl_preemptions",
                "psgl_pages_streamed",
                "psgl_gpsis_generated",
                "psgl_candidates_pruned",
                "psgl_index_probes",
                "psgl_kernel_close",
                "psgl_kernel_twohop",
                "psgl_cmap_probes",
                "psgl_cmap_hits",
                "psgl_messages_total",
                "psgl_messages_local",
                "psgl_frames_sent",
                "psgl_frames_received",
                "psgl_wire_bytes_sent",
                "psgl_wire_bytes_received",
                "psgl_barrier_wait_nanos",
                "psgl_pool_exhausted",
                "psgl_chunks_live_peak",
                "psgl_spill_chunks",
                "psgl_spill_bytes",
                "psgl_spill_stall_ms",
                "psgl_readmitted_chunks",
                "psgl_spill_write_failures",
                "psgl_degraded_to_spill",
            ]
        );
        let text = psgl_obs::render_prometheus(&registry);
        let mut h = psgl_graph::hash::FxHasher::default();
        std::hash::Hasher::write(&mut h, text.as_bytes());
        assert_eq!((text.len(), std::hash::Hasher::finish(&h)), (4046, 0xC05804C7514BCC18));
    }

    /// Every field the legacy `stats` verb reports must be resolvable from
    /// the backing registry — that is what makes the `metrics` verb a
    /// superset of `stats`.
    #[test]
    fn snapshot_fields_are_backed_by_registry_series() {
        let stats = ServerStats::new();
        stats.connections.inc();
        stats.queue_depth.add(1);
        let snap = stats.registry().snapshot();
        assert_eq!(snap.scalar("psgl_connections"), Some(1));
        assert_eq!(snap.scalar("psgl_queue_depth"), Some(1));
        assert!(snap.scalar("psgl_queries_ok").is_some());
    }
}
