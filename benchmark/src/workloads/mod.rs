//! The seven workloads and what they share: the run context, the timed
//! region, repeated set-up, and the totals read from `RunStats`.

pub mod batch;
pub mod cluster;
pub mod delta;
pub mod service;

use crate::spans::{SpanId, Spans};
use crate::sys;
use psgl_core::{ExpandStats, RunStats};
use psgl_graph::DataGraph;
use psgl_service::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Everything a workload is given.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Multiplier on every workload's vertex count (1 = the declared size).
    pub scale: f64,
    /// The `--trace 1` run: spans on, a `Tracer` handed to the engine on
    /// every second operation, micro-rows measured.
    pub trace: bool,
    /// Scratch directory inside the checkout for graph files and spill
    /// segments; removed when the run ends.
    pub tmp: PathBuf,
    pub spans: Spans,
    /// Per-layer metric values by declared name.
    pub layer: BTreeMap<String, f64>,
    /// Seconds per set-up step, one entry per repetition.
    pub setup_steps: BTreeMap<String, Vec<f64>>,
}

impl Ctx {
    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Times one set-up step as a leaf span under `parent` and keeps its
    /// duration for the per-layer set-up metrics.
    pub fn setup_step<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let (out, secs) = self.spans.time(name, Some(parent), 0, f);
        self.setup_steps.entry(name.to_string()).or_default().push(secs);
        out
    }

    /// The metrics every workload derives from its graph and set-up steps:
    /// the graph's size, the load rate where a file was loaded, and the
    /// planning time per pattern where plans were prepared.
    pub fn set_input_metrics(&mut self, graph: &DataGraph, patterns: usize) {
        self.set("graph.bytes", graph.memory_bytes() as f64);
        if let Some(load) = self.setup_steps.get("graph.load") {
            self.set("graph.load_edges_per_s", graph.num_edges() as f64 / sys::median(load));
        }
        if let Some(plan) = self.setup_steps.get("core.plan") {
            self.set("core.plan_us", sys::median(plan) * 1e6 / patterns.max(1) as f64);
        }
    }

    /// Sets up at least three times, and for up to half a second more when
    /// one set-up is short, so that `setup_s` is a median of many. Each
    /// superseded result is dropped outside the timing; the last is
    /// returned for the measurement to use.
    pub fn repeat_setup<T>(&mut self, mut one: impl FnMut(&mut Ctx, SpanId) -> T) -> (T, Vec<f64>) {
        let begun = Instant::now();
        let mut secs = Vec::new();
        let mut last: Option<T> = None;
        while secs.len() < 3 || (begun.elapsed().as_secs_f64() < 0.5 && secs.len() < 200) {
            drop(last.take());
            let span = self.spans.open("bench.setup", None, 0);
            let start = Instant::now();
            last = Some(one(self, span));
            secs.push(start.elapsed().as_secs_f64());
            self.spans.close(span);
        }
        (last.expect("at least three repetitions ran"), secs)
    }
}

/// What a workload measured, before it is turned into declared metrics.
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each operation run with tracing off, in ms.
    pub op_ms: Vec<f64>,
    /// Latency of each operation run with tracing on (`--trace 1` only).
    pub traced_op_ms: Vec<f64>,
    pub region: RegionTotals,
    /// Units of work completed per second, and what a unit is. Workloads
    /// whose operations are long and alike (a pass, a cluster job) take
    /// the work of one operation over the median operation's wall, which a
    /// burst of machine noise shorter than half the region does not move;
    /// the others take the region's work over its wall.
    pub work_per_s: f64,
    pub work_unit: &'static str,
    /// User + system CPU per operation, in ms: the median over operations
    /// where they are long, else the region's CPU over its operations.
    pub cpu_ms_per_op: f64,
    /// Operations and checks attempted, and how many failed, were refused
    /// or gave a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts and sizes recorded with the result.
    pub notes: Vec<(&'static str, Json)>,
}

/// The timed region: wall, CPU and the resident-set peak at its end.
pub struct Region {
    start: Instant,
    cpu_at_start: f64,
    seconds: f64,
}

pub struct RegionTotals {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

impl Region {
    pub fn open(seconds: f64) -> Region {
        Region { start: Instant::now(), cpu_at_start: sys::cpu_seconds(), seconds }
    }

    /// Whether another operation may start.
    pub fn running(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    pub fn close(self) -> RegionTotals {
        RegionTotals {
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - self.cpu_at_start,
            peak_rss_mib: sys::peak_rss_mib(),
        }
    }
}

/// Sums of what engine runs returned, over every run of a measurement.
#[derive(Default)]
pub struct EngineTotals {
    pub runs: u64,
    pub wall_s: f64,
    pub expand: ExpandStats,
    pub supersteps: u64,
    pub messages: u64,
    pub messages_local: u64,
    pub bytes_exchanged: u64,
    pub compute_ns: u64,
    pub exchange_ns: u64,
    pub barrier_ns: u64,
    pub spill_stall_ns: u64,
    pub chunks_live_peak: i64,
    pub pool_exhausted: u64,
    pub spill_chunks: u64,
    pub spill_bytes: u64,
    pub readmitted_chunks: u64,
    pub spill_write_failures: u64,
    pub simulated_makespan: u64,
    pub cost_imbalance: f64,
    pub frames_sent: u64,
    pub wire_bytes_sent: u64,
}

impl EngineTotals {
    pub fn add(&mut self, stats: &RunStats, wall_s: f64) {
        self.runs += 1;
        self.wall_s += wall_s;
        self.expand.merge(&stats.expand);
        self.supersteps += stats.supersteps as u64;
        self.messages += stats.messages;
        self.messages_local += stats.messages_local;
        self.bytes_exchanged += stats.bytes_exchanged;
        self.compute_ns += stats.compute_nanos_per_superstep.iter().sum::<u64>();
        self.exchange_ns += stats.exchange_nanos_per_superstep.iter().sum::<u64>();
        self.barrier_ns += stats.barrier_wait_per_superstep.iter().sum::<u64>();
        self.spill_stall_ns += stats.spill_stall_per_superstep.iter().sum::<u64>();
        self.chunks_live_peak = self.chunks_live_peak.max(stats.chunks_live_peak);
        self.pool_exhausted += stats.pool_exhausted;
        self.spill_chunks += stats.spill_chunks;
        self.spill_bytes += stats.spill_bytes;
        self.readmitted_chunks += stats.readmitted_chunks;
        self.spill_write_failures += stats.spill_write_failures;
        self.simulated_makespan += stats.simulated_makespan;
        self.cost_imbalance += stats.cost_imbalance;
        self.frames_sent += stats.frames_sent;
        self.wire_bytes_sent += stats.wire_bytes_sent;
    }

    /// Publishes the `core.*` and `bsp.*` metrics, counts and seconds as
    /// means per operation (`ops` operations of identical work were run).
    pub fn publish(&self, ops: u64, workers: usize, ctx: &mut Ctx) {
        let per_op = |total: f64| total / ops.max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let secs = |ns: u64| ns as f64 / 1e9;
        let e = &self.expand;
        let compute_s = secs(self.compute_ns);
        for (name, total) in [
            ("core.expanded", e.expanded),
            ("core.generated", e.generated),
            ("core.results", e.results),
            ("core.pruned_total", e.total_pruned()),
            ("core.combinations_examined", e.combinations_examined),
            ("core.cmap_probes", e.cmap_probes),
            ("core.intersect_gallop", e.intersect_gallop),
            ("core.intersect_probe", e.intersect_probe),
            ("core.kernel_close", e.kernel_close),
            ("core.kernel_twohop", e.kernel_twohop),
            ("core.simulated_makespan", self.simulated_makespan),
            ("bsp.supersteps", self.supersteps),
            ("bsp.messages", self.messages),
            ("bsp.bytes_exchanged", self.bytes_exchanged),
            ("bsp.pool_exhausted", self.pool_exhausted),
            ("bsp.spill_chunks", self.spill_chunks),
            ("bsp.spill_bytes", self.spill_bytes),
            ("bsp.readmitted_chunks", self.readmitted_chunks),
            ("bsp.spill_write_failures", self.spill_write_failures),
        ] {
            ctx.set(name, per_op(total as f64));
        }
        ctx.set("core.useful_ratio", ratio(e.results as f64, e.combinations_examined as f64));
        ctx.set("core.compute_s", per_op(compute_s));
        ctx.set("core.gpsi_per_s_per_core", ratio(e.expanded as f64, compute_s));
        ctx.set("core.ns_per_combination", ratio(compute_s * 1e9, e.combinations_examined as f64));
        ctx.set("core.cmap_hit_ratio", ratio(e.cmap_hits as f64, e.cmap_probes as f64));
        ctx.set("core.ns_per_cmap_probe", ratio(compute_s * 1e9, e.cmap_probes as f64));
        ctx.set("core.cost_imbalance", ratio(self.cost_imbalance, self.runs as f64));
        ctx.set(
            "bsp.local_delivery_ratio",
            ratio(self.messages_local as f64, self.messages as f64),
        );
        ctx.set("bsp.exchange_s", per_op(secs(self.exchange_ns)));
        ctx.set("bsp.barrier_wait_s", per_op(secs(self.barrier_ns)));
        ctx.set("bsp.spill_stall_s", per_op(secs(self.spill_stall_ns)));
        ctx.set("bsp.chunks_live_peak", self.chunks_live_peak as f64);
        ctx.set("bsp.msgs_per_s", ratio(self.messages as f64, self.wall_s));
        ctx.set(
            "bsp.unattributed_s",
            per_op(
                self.wall_s
                    - compute_s / workers as f64
                    - secs(self.exchange_ns + self.barrier_ns + self.spill_stall_ns),
            ),
        );
        // Every spilled byte is written once and read back once.
        ctx.set(
            "bsp.spill_mb_per_s",
            ratio(2.0 * self.spill_bytes as f64 / 1e6, secs(self.spill_stall_ns)),
        );
    }
}

/// Lays the per-superstep timings a run returned out as child spans of
/// that run: compute (the workers' summed time divided by their number),
/// then exchange, barrier wait and spill stall, superstep after superstep
/// from the run's start. What the children leave uncovered is the run's
/// unattributed time. `plane` names the layer that moved the messages:
/// `bsp` in process, `cluster` over the wire.
#[allow(clippy::too_many_arguments)]
pub fn superstep_spans(
    spans: &mut Spans,
    run: SpanId,
    run_start_ns: u64,
    run_end_ns: u64,
    stats: &RunStats,
    workers: usize,
    op_id: u64,
    plane: &str,
) {
    let at = |v: &[u64], s: usize| v.get(s).copied().unwrap_or(0);
    let mut cursor = run_start_ns;
    for s in 0..stats.supersteps {
        for (name, nanos) in [
            ("bsp.compute".to_string(), at(&stats.compute_nanos_per_superstep, s) / workers as u64),
            (format!("{plane}.exchange"), at(&stats.exchange_nanos_per_superstep, s)),
            (format!("{plane}.barrier"), at(&stats.barrier_wait_per_superstep, s)),
            ("bsp.spill".to_string(), at(&stats.spill_stall_per_superstep, s)),
        ] {
            let end = (cursor + nanos).min(run_end_ns);
            if end > cursor {
                spans.record(&format!("{name}[{s}]"), cursor, end, Some(run), op_id);
            }
            cursor = end;
        }
    }
}
