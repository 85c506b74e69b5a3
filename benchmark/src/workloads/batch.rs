//! The four in-process listing workloads: a pass runs each pattern of the
//! workload's query set once against a graph prepared once.

use super::{superstep_spans, Ctx, EngineTotals, Outcome, Region};
use crate::inputs::{power_law_graph, scaled};
use crate::spans::SpanId;
use crate::{micro, sys};
use psgl_core::{
    list_subgraphs_prepared_with, EdgeIndex, PsglConfig, PsglShared, QueryPlan, RunnerHooks,
    SpillConfig,
};
use psgl_graph::{binary, DataGraph, DegreeStats, OrderedGraph};
use psgl_pattern::Pattern;
use psgl_service::{parse_pattern_spec, Json};
use std::sync::Arc;
use std::time::Instant;

/// Shape of one batch workload. The vertex counts are the issue's shapes
/// rescaled so that a pass takes 0.3–0.8 s on a 2-core machine and a
/// timed region of `run_seconds` holds ten or more passes.
pub struct BatchSpec {
    pub vertices: usize,
    pub avg_degree: f64,
    pub gamma: f64,
    pub patterns: &'static [&'static str],
    /// `false` runs the paper's level-by-level Algorithm 1.
    pub kernels: bool,
    /// Live-chunk cap with a disk spill tier behind it.
    pub live_chunk_cap: Option<u64>,
    /// Size of the same-family graph the centralized enumerator checks
    /// the engine on: a tenth of `vertices`, except where that enumerator
    /// (no symmetry breaking) would need longer than the timed region.
    pub oracle_vertices: usize,
}

/// All time in the `core` Close kernel; the message plane is idle.
pub const CLOSE_KERNEL: BatchSpec = BatchSpec {
    vertices: 100_000,
    avg_degree: 8.0,
    gamma: 2.2,
    patterns: &["triangle", "4-clique", "clique:5"],
    kernels: true,
    live_chunk_cap: None,
    // clique:5 at 10 000 vertices takes the enumerator 9 s.
    oracle_vertices: 2_500,
};

/// TwoHop/Generic kernels and the distributor on a hub-heavy graph.
pub const TWOHOP_SKEW: BatchSpec = BatchSpec {
    vertices: 7_000,
    avg_degree: 6.0,
    gamma: 1.8,
    patterns: &["square", "tailed-triangle", "path:4"],
    kernels: true,
    live_chunk_cap: None,
    oracle_vertices: 700,
};

/// Kernels off: every Gpsi crosses the bsp message plane.
pub const FRONTIER_GENERIC: BatchSpec = BatchSpec {
    vertices: 12_000,
    avg_degree: 8.0,
    gamma: 2.2,
    patterns: &["square"],
    kernels: false,
    live_chunk_cap: None,
    oracle_vertices: 1_200,
};

/// `FRONTIER_GENERIC` with about an eighth of its live chunks allowed in
/// memory and the rest written to and read back from disk.
pub const FRONTIER_SPILL: BatchSpec = BatchSpec { live_chunk_cap: Some(256), ..FRONTIER_GENERIC };

/// A graph with everything the engine needs built from it.
struct Prepared {
    graph: DataGraph,
    ordered: Arc<OrderedGraph>,
    index: Arc<EdgeIndex>,
    plans: Vec<QueryPlan>,
}

impl Prepared {
    fn shared(&self) -> Vec<PsglShared<'_>> {
        self.plans
            .iter()
            .map(|plan| {
                PsglShared::from_parts(
                    &self.graph,
                    Arc::clone(&self.ordered),
                    Some(Arc::clone(&self.index)),
                    plan,
                )
            })
            .collect()
    }
}

fn prepare(
    vertices: usize,
    spec: &BatchSpec,
    patterns: &[Pattern],
    config: &PsglConfig,
    ctx: &mut Ctx,
    parent: SpanId,
) -> Prepared {
    let seed = ctx.seed;
    let generated = ctx.setup_step("graph.gen", parent, || {
        power_law_graph(vertices, spec.avg_degree, spec.gamma, seed)
    });
    let path = ctx.tmp.join("graph.bin");
    ctx.setup_step("graph.save", parent, || binary::save_binary(&generated, &path))
        .expect("write the graph inside the checkout");
    drop(generated);
    let graph = ctx
        .setup_step("graph.load", parent, || binary::load_binary(&path))
        .expect("read back the graph just written");
    let ordered = ctx.setup_step("graph.order", parent, || Arc::new(OrderedGraph::new(&graph)));
    let index = ctx.setup_step("core.index_build", parent, || {
        Arc::new(EdgeIndex::build(&graph, config.index_bits_per_edge))
    });
    let plans = ctx.setup_step("core.plan", parent, || {
        let histogram = DegreeStats::of_graph(&graph).histogram;
        patterns
            .iter()
            .map(|p| QueryPlan::prepare(p, config, &histogram).expect("catalog pattern"))
            .collect()
    });
    Prepared { graph, ordered, index, plans }
}

fn hooks<'a>(spec: &BatchSpec, ctx: &Ctx, tracer: Option<&'a psgl_obs::Tracer>) -> RunnerHooks<'a> {
    RunnerHooks {
        max_live_chunks: spec.live_chunk_cap,
        spill: spec
            .live_chunk_cap
            .map(|_| SpillConfig { dir: Some(ctx.tmp.clone()), ..SpillConfig::default() }),
        tracer,
        ..RunnerHooks::default()
    }
}

/// One pass: every pattern once. Returns the pass's wall in ms and the
/// instance count per pattern.
fn pass(
    shared: &[PsglShared<'_>],
    config: &PsglConfig,
    hooks: &RunnerHooks<'_>,
    ctx: &mut Ctx,
    op_id: u64,
    totals: &mut EngineTotals,
) -> (f64, Vec<u64>) {
    let traced = hooks.tracer.is_some();
    let start = Instant::now();
    let span = if traced { Some(ctx.spans.open("bench.pass", None, op_id)) } else { None };
    let mut counts = Vec::with_capacity(shared.len());
    for one in shared {
        let run_start_ns = ctx.spans.now_ns();
        let run_start = Instant::now();
        let result = list_subgraphs_prepared_with(one, config, hooks).expect("listing run");
        let run_s = run_start.elapsed().as_secs_f64();
        totals.add(&result.stats, run_s);
        counts.push(result.instance_count);
        if let Some(span) = span {
            let run_end_ns = run_start_ns + (run_s * 1e9) as u64;
            let run = ctx.spans.record("core.run", run_start_ns, run_end_ns, Some(span), op_id);
            let (stats, workers) = (&result.stats, config.workers);
            superstep_spans(
                &mut ctx.spans,
                run,
                run_start_ns,
                run_end_ns,
                stats,
                workers,
                op_id,
                "bsp",
            );
        }
    }
    if let Some(span) = span {
        ctx.spans.close(span);
    }
    (start.elapsed().as_secs_f64() * 1e3, counts)
}

pub fn run(spec: &BatchSpec, ctx: &mut Ctx) -> Outcome {
    let workers = sys::workers();
    let config = PsglConfig::with_workers(workers).kernels(spec.kernels).seed(ctx.seed);
    let patterns: Vec<Pattern> =
        spec.patterns.iter().map(|p| parse_pattern_spec(p).expect("catalog pattern")).collect();
    let vertices = scaled(spec.vertices, ctx.scale, 400);

    let (prepared, setup_s) =
        ctx.repeat_setup(|ctx, span| prepare(vertices, spec, &patterns, &config, ctx, span));
    let shared = prepared.shared();
    let tracer = psgl_obs::Tracer::wall(4096);
    let plain = hooks(spec, ctx, None);
    let traced = hooks(spec, ctx, Some(&tracer));

    // The warm-up pass fills the allocator and the chunk pool and gives
    // the counts every later pass must repeat.
    let mut warmup = EngineTotals::default();
    let (_, reference) = pass(&shared, &config, &plain, ctx, 0, &mut warmup);

    let mut totals = EngineTotals::default();
    let (mut op_ms, mut traced_op_ms, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let region = Region::open(ctx.seconds);
    while region.running() {
        let op_id = attempted + 1;
        let trace_this = ctx.trace && op_id % 2 == 0;
        let cpu_before = sys::cpu_seconds();
        let (ms, counts) = pass(
            &shared,
            &config,
            if trace_this { &traced } else { &plain },
            ctx,
            op_id,
            &mut totals,
        );
        cpu_ms.push((sys::cpu_seconds() - cpu_before) * 1e3);
        (if trace_this { &mut traced_op_ms } else { &mut op_ms }).push(ms);
        attempted += 1;
        failed += u64::from(counts != reference);
    }
    let region = region.close();
    totals.publish(attempted, workers, ctx);

    // Same family, smaller: the engine, run exactly as in the timed
    // region, against the centralized enumerator.
    let small_n = scaled(spec.oracle_vertices, ctx.scale, 200);
    let small = power_law_graph(small_n, spec.avg_degree, spec.gamma, ctx.seed);
    for pattern in &patterns {
        let small_shared = PsglShared::prepare(&small, pattern, &config).expect("prepare");
        let got = list_subgraphs_prepared_with(&small_shared, &config, &plain)
            .expect("small listing run")
            .instance_count;
        attempted += 1;
        failed += u64::from(got != psgl_baselines::centralized::count(&small, pattern));
    }
    // At full size the level-by-level path must agree with the kernels.
    if !spec.kernels {
        let with_kernels = config.clone().kernels(true);
        for (pattern, &expected) in patterns.iter().zip(&reference) {
            let fast =
                PsglShared::prepare(&prepared.graph, pattern, &with_kernels).expect("prepare");
            let got = list_subgraphs_prepared_with(&fast, &with_kernels, &RunnerHooks::default())
                .expect("kernel listing run")
                .instance_count;
            attempted += 1;
            failed += u64::from(got != expected);
        }
    }

    ctx.set_input_metrics(&prepared.graph, patterns.len());
    ctx.set("core.index_bytes", prepared.index.memory_bytes() as f64);
    if ctx.trace {
        micro::index_probe(&prepared.index, &prepared.graph, ctx);
        micro::distribute_choose(&prepared.graph, workers, ctx);
    }

    Outcome {
        setup_s,
        traced_op_ms,
        region,
        work_per_s: reference.iter().sum::<u64>() as f64 * 1e3 / sys::median(&op_ms),
        work_unit: "instances",
        cpu_ms_per_op: sys::median(&cpu_ms),
        op_ms,
        attempted,
        failed,
        notes: vec![
            ("vertices", Json::from(vertices)),
            ("edges", Json::from(prepared.graph.num_edges())),
            ("instances_per_pass", Json::from(reference.iter().sum::<u64>())),
            ("instances_by_pattern", Json::from(reference)),
        ],
    }
}
