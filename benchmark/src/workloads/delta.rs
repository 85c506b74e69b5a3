//! `delta_churn`: writes beside reads. One operation applies one ~1 %
//! edge batch to a `DeltaGraph` and computes the signed instance delta of
//! a triangle and a square query against it.

use super::{Ctx, Outcome, Region};
use crate::inputs::{power_law_graph, scaled};
use crate::spans::SpanId;
use crate::sys;
use psgl_core::{PsglConfig, RunnerHooks};
use psgl_delta::{DeltaGraph, DeltaQuery};
use psgl_graph::generators::{dynamic_batches, EdgeBatch};
use psgl_graph::hash::hash_u64;
use psgl_graph::{DataGraph, VertexId};
use psgl_pattern::{catalog, Pattern};
use psgl_service::Json;
use std::time::Instant;

const VERTICES: usize = 20_000;
const AVG_DEGREE: f64 = 8.0;
const GAMMA: f64 = 2.5;
/// Batches in the stream; replayed backwards (inserts and deletes
/// swapped) once exhausted, so the stream never ends and the graph keeps
/// its size.
const BATCHES: usize = 30;

/// A multiset of instances as its size and the wrapping sum of a hash per
/// instance: patched with a signed delta in time proportional to the
/// delta, and equal for equal multisets whatever their order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Fingerprint {
    count: u64,
    sum: u64,
}

impl Fingerprint {
    fn hash(instance: &[VertexId]) -> u64 {
        instance.iter().fold(0x9e37_79b9_7f4a_7c15, |h, &v| hash_u64(h ^ u64::from(v)))
    }

    fn of(instances: &[Vec<VertexId>]) -> Fingerprint {
        let mut f = Fingerprint::default();
        f.add(instances);
        f
    }

    fn add(&mut self, instances: &[Vec<VertexId>]) {
        for i in instances {
            self.count = self.count.wrapping_add(1);
            self.sum = self.sum.wrapping_add(Self::hash(i));
        }
    }

    fn remove(&mut self, instances: &[Vec<VertexId>]) {
        for i in instances {
            self.count = self.count.wrapping_sub(1);
            self.sum = self.sum.wrapping_sub(Self::hash(i));
        }
    }
}

struct Prepared {
    base: DataGraph,
    batches: Vec<EdgeBatch>,
    graph: DeltaGraph,
    queries: Vec<DeltaQuery>,
}

fn prepare(
    vertices: usize,
    patterns: &[Pattern],
    config: &PsglConfig,
    ctx: &mut Ctx,
    parent: SpanId,
) -> Prepared {
    let seed = ctx.seed;
    let base =
        ctx.setup_step("graph.gen", parent, || power_law_graph(vertices, AVG_DEGREE, GAMMA, seed));
    let batch_edges = (base.num_edges() as usize / 100).max(1);
    let batches = ctx.setup_step("graph.batches", parent, || {
        dynamic_batches(&base, BATCHES, batch_edges, 0.5, seed ^ 0x5eed_cafe)
    });
    // Ordered view and edge index of epoch 0. The overlay is never
    // compacted: a compaction re-derives the vertex order, which is a
    // resync of every view, not an update.
    let graph = ctx.setup_step("delta.new", parent, || {
        DeltaGraph::new(base.clone(), config.index_bits_per_edge, usize::MAX)
    });
    let queries = ctx.setup_step("core.plan", parent, || {
        patterns.iter().map(|p| DeltaQuery::new(p, config).expect("catalog pattern")).collect()
    });
    Prepared { base, batches, graph, queries }
}

/// One round of the endless stream: the generated batches forwards, then
/// backwards with inserts and deletes swapped, which returns the graph to
/// where the round began.
fn round_trip(forward: Vec<EdgeBatch>) -> Vec<EdgeBatch> {
    let back: Vec<EdgeBatch> = forward
        .iter()
        .rev()
        .map(|b| EdgeBatch { insert: b.delete.clone(), delete: b.insert.clone() })
        .collect();
    forward.into_iter().chain(back).collect()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let workers = sys::workers();
    let config = PsglConfig::with_workers(workers).seed(ctx.seed).collect(true);
    let patterns = [catalog::triangle(), catalog::square()];
    let vertices = scaled(VERTICES, ctx.scale, 400);
    let (prepared, setup_s) =
        ctx.repeat_setup(|ctx, span| prepare(vertices, &patterns, &config, ctx, span));
    let Prepared { base, batches, mut graph, queries } = prepared;
    let mutations_per_batch = batches.first().map_or(0, EdgeBatch::len);
    let stream = round_trip(batches);
    let tracer = psgl_obs::Tracer::wall(4096);

    // The views the deltas patch, materialised from scratch once.
    let mut views: Vec<Fingerprint> = queries
        .iter()
        .map(|q| Fingerprint::of(&q.full(graph.artifacts()).expect("initial listing")))
        .collect();

    let (mut op_ms, mut traced_op_ms) = (Vec::new(), Vec::new());
    let (mut apply_ms, mut delta_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut seeds, mut changed, mut compactions) = (0u64, 0u64, 0u64);
    let region = Region::open(ctx.seconds);
    while region.running() {
        let op_id = attempted + 1;
        let trace_this = ctx.trace && op_id % 2 == 0;
        let hooks = RunnerHooks { tracer: trace_this.then_some(&tracer), ..RunnerHooks::default() };
        let batch = &stream[attempted as usize % stream.len()];
        let span = trace_this.then(|| ctx.spans.open("bench.batch", None, op_id));
        let start = Instant::now();
        let pre = graph.artifacts().clone();
        let (applied, apply_s) = ctx.spans.time("delta.apply", span, op_id, || graph.apply(batch));
        let mut delta_s = 0.0;
        match applied {
            Ok(out) => {
                compactions += u64::from(out.compacted);
                seeds += (out.inserted.len() + out.deleted.len()) as u64;
                for (query, view) in queries.iter().zip(&mut views) {
                    let (delta, secs) = ctx.spans.time("delta.delta", span, op_id, || {
                        query.delta_with_hooks(
                            &pre,
                            graph.artifacts(),
                            &out.inserted,
                            &out.deleted,
                            &hooks,
                        )
                    });
                    delta_s += secs;
                    match delta {
                        Ok(delta) => {
                            changed += (delta.added.len() + delta.removed.len()) as u64;
                            view.remove(&delta.removed);
                            view.add(&delta.added);
                        }
                        Err(_) => failed += 1,
                    }
                }
            }
            Err(_) => failed += 1,
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(span) = span {
            ctx.spans.close(span);
        }
        (if trace_this { &mut traced_op_ms } else { &mut op_ms }).push(ms);
        apply_ms.push(apply_s * 1e3);
        delta_ms.push(delta_s * 1e3);
        attempted += 1;
    }
    let region = region.close();
    let ops = attempted;

    // The patched views against a listing from scratch of the final graph.
    let mut scratch_ms = 0.0;
    for (query, view) in queries.iter().zip(&views) {
        let start = Instant::now();
        let full = query.full(graph.artifacts()).expect("scratch listing");
        scratch_ms += start.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        failed += u64::from(Fingerprint::of(&full) != *view);
    }
    // Same family at a tenth of the size, mutated, against the
    // centralized enumerator.
    let small = power_law_graph(scaled(vertices, 0.1, 200), AVG_DEGREE, GAMMA, ctx.seed);
    let small_batches =
        dynamic_batches(&small, 3, (small.num_edges() as usize / 100).max(1), 0.5, 1);
    let mut small_graph = DeltaGraph::new(small, config.index_bits_per_edge, usize::MAX);
    for batch in &small_batches {
        small_graph.apply(batch).expect("generated batch is valid");
    }
    for (query, pattern) in queries.iter().zip(&patterns) {
        let art = small_graph.artifacts();
        let got = query.full(art).expect("small listing").len() as u64;
        attempted += 1;
        failed += u64::from(got != psgl_baselines::centralized::count(&art.graph, pattern));
    }

    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    ctx.set("delta.apply_ms", sys::median(&apply_ms));
    ctx.set("delta.delta_ms", sys::median(&delta_ms));
    ctx.set("delta.seeds_per_batch", per_op(seeds));
    ctx.set("delta.instances_changed", per_op(changed));
    ctx.set("delta.compactions", compactions as f64);
    ctx.set("delta.scratch_ms", scratch_ms);
    ctx.set("delta.speedup_vs_scratch", scratch_ms / sys::median(&delta_ms).max(1e-9));
    ctx.set_input_metrics(&base, patterns.len());

    Outcome {
        setup_s,
        op_ms,
        traced_op_ms,
        work_per_s: ops as f64 / region.wall_s,
        work_unit: "update batches",
        cpu_ms_per_op: region.cpu_s * 1e3 / ops.max(1) as f64,
        region,
        attempted,
        failed,
        notes: vec![
            ("vertices", Json::from(vertices)),
            ("edges", Json::from(base.num_edges())),
            ("mutations_per_batch", Json::from(mutations_per_batch)),
            ("instances_in_views", Json::from(views.iter().map(|v| v.count).sum::<u64>())),
        ],
    }
}
