//! Micro-rows: single-threaded timings of public functions the workloads
//! call in their inner loops, at least 2^20 iterations each, inputs and
//! results passed through `black_box`. Measured on the `--trace 1` run
//! only, outside the timed region.

use crate::workloads::Ctx;
use psgl_cluster::frame::{decode, encode, Frame, FrameKind};
use psgl_core::distribute::{Distributor, GrayCandidate};
use psgl_core::{EdgeIndex, Gpsi, Strategy};
use psgl_graph::{DataGraph, HashPartitioner, VertexId};
use psgl_service::Request;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const ITERATIONS: usize = 1 << 20;

/// Times `iterations` calls of `f(i)` and publishes the mean per call,
/// scaled by `per_second_unit` (1e9 for ns, 1e6 for µs).
fn row(
    ctx: &mut Ctx,
    name: &str,
    iterations: usize,
    per_second_unit: f64,
    mut f: impl FnMut(usize),
) {
    let start = Instant::now();
    for i in 0..iterations {
        f(i);
    }
    let per_call = start.elapsed().as_secs_f64() * per_second_unit / iterations as f64;
    println!("micro {name}: {iterations} iterations, {per_call:.3} per call");
    ctx.set(name, per_call);
}

/// `EdgeIndex::may_contain` on a mix of present edges and random pairs.
pub fn index_probe(index: &EdgeIndex, graph: &DataGraph, ctx: &mut Ctx) {
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let n = graph.num_vertices() as VertexId;
    let edges: Vec<(VertexId, VertexId)> = graph.edges().take(2048).collect();
    let pairs: Vec<(VertexId, VertexId)> = (0..4096)
        .map(|i| match edges.get(i / 2) {
            Some(&edge) if i % 2 == 0 => edge,
            _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
        })
        .collect();
    row(ctx, "core.index_probe_ns", ITERATIONS, 1e9, |i| {
        let (u, v) = black_box(pairs[i % pairs.len()]);
        black_box(index.may_contain(u, v));
    });
}

/// `Distributor::choose` (Algorithm 3, workload-aware) among three GRAY
/// candidates whose degrees come from the workload's graph.
pub fn distribute_choose(graph: &DataGraph, workers: usize, ctx: &mut Ctx) {
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let n = graph.num_vertices() as VertexId;
    let candidates: Vec<[GrayCandidate; 3]> = (0..1024)
        .map(|_| {
            [0u8, 1, 2].map(|vp| {
                let vd = rng.gen_range(0..n);
                GrayCandidate {
                    vp,
                    vd,
                    degree: graph.degree(vd),
                    white_neighbors: 1 + u32::from(vp),
                }
            })
        })
        .collect();
    let partitioner = HashPartitioner::with_salt(workers, ctx.seed);
    let mut distributor =
        Distributor::new(Strategy::WorkloadAware { alpha: 0.5 }, workers, ctx.seed);
    row(ctx, "core.distribute_choose_ns", ITERATIONS, 1e9, |i| {
        let set = black_box(&candidates[i % candidates.len()]);
        black_box(distributor.choose(set, &partitioner));
    });
}

/// `frame::encode` and `frame::decode` of a 1024-Gpsi data frame, per Gpsi.
pub fn frame_codec(ctx: &mut Ctx) {
    const TUPLES: usize = 1024;
    let tuples: Vec<(VertexId, Gpsi)> = (0..TUPLES as VertexId)
        .map(|v| {
            let mut gpsi = Gpsi::initial(0, v);
            gpsi.assign(1, v + 1);
            gpsi.assign(2, v + 2);
            (v, gpsi)
        })
        .collect();
    let frame = Frame { kind: FrameKind::Data, superstep: 1, src: 0, dst: 1, tuples };
    let frames = ITERATIONS / TUPLES;
    let per_gpsi = |ctx: &mut Ctx, name: &str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..frames {
            f();
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (frames * TUPLES) as f64;
        println!("micro {name}: {frames} frames of {TUPLES} Gpsis, {ns:.3} ns per Gpsi");
        ctx.set(name, ns);
    };
    per_gpsi(ctx, "cluster.frame_encode_ns_per_gpsi", &mut || {
        black_box(encode(black_box(&frame)));
    });
    let wire = encode(&frame);
    per_gpsi(ctx, "cluster.frame_decode_ns_per_gpsi", &mut || {
        black_box(decode::<Gpsi>(black_box(&wire)).expect("frame just encoded"));
    });
}

/// `Request::parse_line` over the request lines the workload sends.
pub fn parse_line(lines: &[String], ctx: &mut Ctx) {
    row(ctx, "service.parse_us", ITERATIONS, 1e6, |i| {
        black_box(Request::parse_line(black_box(&lines[i % lines.len()])).expect("own request"));
    });
}
