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
use psgl_core::stats::{ExpandStats, RunStats};
use psgl_obs::{Counter, Gauge, Registry};
use std::time::Instant;

/// Declares [`ServerStats`] from one table. A row is
/// `field: Kind = "help"`: the field name is also the `stats` key and the
/// registry series suffix (`psgl_<field>`), `Kind` is `Counter` or `Gauge`,
/// and the help text is both the exposition `# HELP` line and the field's
/// doc (doc comments on a row add detail below it). Series register in
/// row order.
macro_rules! server_stats {
    ($($(#[$detail:meta])* $name:ident: $kind:ident = $help:literal,)+) => {
        /// Monotonic counters plus the queue-depth and running gauges, all
        /// backed by registry handles (relaxed atomics underneath — these
        /// are statistics, not synchronization).
        pub struct ServerStats {
            started: Instant,
            registry: Registry,
            $(#[doc = $help] $(#[$detail])* pub $name: $kind,)+
        }

        impl Default for ServerStats {
            fn default() -> Self {
                let registry = Registry::new();
                ServerStats {
                    started: Instant::now(),
                    $($name: server_stats!(
                        @register registry $kind concat!("psgl_", stringify!($name)), $help
                    ),)+
                    registry,
                }
            }
        }

        impl ServerStats {
            /// Current value of the handle named `key`.
            fn value(&self, key: &str) -> Option<u64> {
                match key {
                    $(stringify!($name) => Some(self.$name.get()),)+
                    _ => None,
                }
            }

            /// Adds `n` to the handle named `key`, if there is one.
            fn add(&self, key: &str, n: u64) {
                match key {
                    $(stringify!($name) => self.$name.add(n),)+
                    _ => {}
                }
            }
        }
    };
    (@register $r:ident Counter $name:expr, $help:expr) => { $r.counter($name, $help) };
    (@register $r:ident Gauge $name:expr, $help:expr) => { $r.gauge($name, $help) };
}

server_stats! {
    connections: Counter = "Connections accepted.",
    requests: Counter = "Requests parsed (any verb).",
    /// Counts `count`/`list` only.
    queries_ok: Counter = "Queries answered successfully.",
    /// The `overloaded` reply.
    rejected_overloaded: Counter = "Queries rejected at admission.",
    /// The `budget_exceeded` reply.
    rejected_budget: Counter = "Queries aborted by their Gpsi budget.",
    queries_failed: Counter = "Queries failed for other reasons.",
    /// Explicit cancel, client disconnect, deadline, or
    /// budget-with-checkpoint.
    cancelled: Counter = "Queries cancelled, resumable or not.",
    mutations: Counter = "Edge batches applied via mutate.",
    queue_depth: Gauge = "Jobs waiting in the admission queue.",
    running: Gauge = "Jobs executing on the worker pool.",
    /// A query that never yields still counts one.
    slices: Counter = "Superstep slices executed by the scheduler.",
    /// The run yielded its worker at a barrier and went back to the run
    /// queue.
    preemptions: Counter = "Slices that ended in preemption.",
    /// `stream: true` list clients only.
    pages_streamed: Counter = "Pages streamed to list clients.",
    /// Cache hits add 0.
    gpsis_generated: Counter = "Gpsis generated across executed queries.",
    candidates_pruned: Counter = "Candidates pruned across executed queries.",
    index_probes: Counter = "Edge-index probes.",
    kernel_close: Counter = "Expansions via the close kernel.",
    kernel_twohop: Counter = "Expansions via the two-hop kernel.",
    cmap_probes: Counter = "Connectivity-map probes.",
    cmap_hits: Counter = "Connectivity-map probes that hit.",
    messages_total: Counter = "Gpsi messages exchanged.",
    /// Of `messages_total`, messages that never crossed the engine's
    /// exchange.
    messages_local: Counter = "Messages delivered on the local fast path.",
    /// 0 for purely in-process runs — the shared-memory plane sends no
    /// frames.
    frames_sent: Counter = "Wire frames sent by exchanges.",
    frames_received: Counter = "Wire frames received.",
    wire_bytes_sent: Counter = "Encoded bytes shipped.",
    wire_bytes_received: Counter = "Encoded bytes received.",
    barrier_wait_nanos: Counter = "Nanoseconds blocked on barriers.",
    /// Each is either a disk eviction or a degraded in-place grow.
    pool_exhausted: Counter = "Times a chunk pool hit its live-chunk cap.",
    /// Over any single executed query — the worst per-run memory footprint
    /// in chunk units.
    chunks_live_peak: Counter = "High-water mark of live pool chunks.",
    spill_chunks: Counter = "Chunks evicted to the spill tier.",
    spill_bytes: Counter = "Framed bytes written to spill blobs.",
    spill_stall_ms: Counter = "Milliseconds stalled in spill I/O.",
    readmitted_chunks: Counter = "Spilled chunks re-admitted from disk.",
    /// Budget, injected fault, or real I/O error.
    spill_write_failures: Counter = "Spill writes that failed and degraded to the resident path.",
    /// Instead of being rejected `overloaded`/`budget_exceeded`.
    degraded_to_spill: Counter = "Giant queries admitted as degraded spilling runs.",
}

/// The `stats` verb's `server` object, in reply order: declared handles
/// plus the two derived values [`ServerStats::render`] computes.
const SERVER_KEYS: &[&str] = &[
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
];

/// The `stats` verb's `cluster` object: the wire-plane counters
/// distributed exchanges record into `RunStats`.
const CLUSTER_KEYS: &[&str] = &[
    "frames_sent",
    "frames_received",
    "wire_bytes_sent",
    "wire_bytes_received",
    "barrier_wait_nanos",
];

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
    /// An [`ExpandStats`] counter folds into the handle of the same name,
    /// if one is declared.
    pub fn record_run(&self, stats: &RunStats) {
        for (name, n) in ExpandStats::NAMES.into_iter().zip(stats.expand.to_array()) {
            self.add(name, n);
        }
        self.gpsis_generated.add(stats.expand.generated);
        self.candidates_pruned.add(stats.expand.total_pruned());
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
        self.render(SERVER_KEYS)
    }

    /// Snapshot as the `stats` verb's `cluster` object. All zero on a
    /// service that has only executed in-process queries.
    pub fn cluster_snapshot(&self) -> Json {
        self.render(CLUSTER_KEYS)
    }

    fn render(&self, keys: &[&'static str]) -> Json {
        Json::obj(keys.iter().map(|&key| {
            let value = match key {
                "uptime_secs" => Json::from(self.uptime_secs()),
                "local_delivery_ratio" => Json::from(self.local_delivery_ratio()),
                _ => Json::from(self.value(key).expect("key lists name declared handles")),
            };
            (key, value)
        }))
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
