//! `cluster_wire`: the same Gpsi traffic as an in-process run, but through
//! frame encode/decode, `TcpExchange` and coordinator barriers. One
//! operation is one `run_local` job: two worker threads join over
//! loopback, load the graph from its file, run, and are joined.

use super::{superstep_spans, Ctx, EngineTotals, Outcome, Region};
use crate::inputs::{power_law_graph, scaled};
use crate::spans::SpanId;
use crate::{micro, sys};
use psgl_cluster::{run_local, JobSpec, LocalClusterConfig};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglShared};
use psgl_graph::{binary, DataGraph};
use psgl_service::{parse_pattern_spec, Json};
use std::time::Instant;

const VERTICES: usize = 1_500;
const AVG_DEGREE: f64 = 6.0;
const GAMMA: f64 = 2.2;
const PATTERN: &str = "cycle:6";

/// Generates the graph and stages it where the cluster's workers read it.
fn prepare(vertices: usize, ctx: &mut Ctx, parent: SpanId) -> DataGraph {
    let seed = ctx.seed;
    let generated =
        ctx.setup_step("graph.gen", parent, || power_law_graph(vertices, AVG_DEGREE, GAMMA, seed));
    let path = ctx.tmp.join("graph.bin");
    ctx.setup_step("graph.save", parent, || binary::save_binary(&generated, &path))
        .expect("write the graph inside the checkout");
    ctx.setup_step("graph.load", parent, || binary::load_binary(&path))
        .expect("read back the graph just written")
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let workers = sys::workers();
    let vertices = scaled(VERTICES, ctx.scale, 300);
    let (graph, setup_s) = ctx.repeat_setup(|ctx, span| prepare(vertices, ctx, span));
    let job = JobSpec {
        graph: format!("file:{}:binary", ctx.tmp.join("graph.bin").display()),
        pattern: PATTERN.to_string(),
        strategy: "wa:0.5".to_string(),
        partitions: workers,
        seed: ctx.seed,
        collect_instances: false,
        checkpoint_interval: 0,
        max_supersteps: 64,
    };
    let tracer = psgl_obs::Tracer::wall(4096);

    // One job, timed from outside; `traced` hands the coordinator a
    // dedicated tracer and records the job's spans.
    let job_once = |ctx: &mut Ctx, traced: bool, op_id: u64, totals: &mut EngineTotals| {
        let mut config = LocalClusterConfig::new(workers, job.clone());
        if traced {
            config.tracer = tracer.clone();
        }
        let start_ns = ctx.spans.now_ns();
        let start = Instant::now();
        let outcome = run_local(config);
        let wall_s = start.elapsed().as_secs_f64();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(_) => return (wall_s * 1e3, None, 0.0),
        };
        totals.add(&outcome.stats, wall_s);
        let join_s = (wall_s - outcome.stats.wall_time.as_secs_f64()).max(0.0);
        if traced {
            let end_ns = start_ns + (wall_s * 1e9) as u64;
            let span = ctx.spans.record("cluster.run_local", start_ns, end_ns, None, op_id);
            // Joining, loading the graph at each worker and tearing down
            // happen around the engine run; lay them out before it.
            let run_start_ns = start_ns + (join_s * 1e9) as u64;
            ctx.spans.record("cluster.join", start_ns, run_start_ns, Some(span), op_id);
            let stats = &outcome.stats;
            superstep_spans(
                &mut ctx.spans,
                span,
                run_start_ns,
                end_ns,
                stats,
                workers,
                op_id,
                "cluster",
            );
        }
        (wall_s * 1e3, Some((outcome.instance_count, outcome.attempts)), join_s)
    };

    let mut warmup = EngineTotals::default();
    let (_, reference, _) = job_once(ctx, false, 0, &mut warmup);
    let reference = reference.map(|(count, _)| count);

    let mut totals = EngineTotals::default();
    let (mut op_ms, mut traced_op_ms, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut join_s, mut attempts) = (0.0, 0u64);
    let region = Region::open(ctx.seconds);
    while region.running() {
        let op_id = attempted + 1;
        let trace_this = ctx.trace && op_id % 2 == 0;
        let cpu_before = sys::cpu_seconds();
        let (ms, result, joined) = job_once(ctx, trace_this, op_id, &mut totals);
        cpu_ms.push((sys::cpu_seconds() - cpu_before) * 1e3);
        (if trace_this { &mut traced_op_ms } else { &mut op_ms }).push(ms);
        attempted += 1;
        join_s += joined;
        match result {
            Some((count, tries)) if Some(count) == reference => attempts += u64::from(tries),
            _ => failed += 1,
        }
    }
    let region = region.close();
    let ops = attempted;
    totals.publish(ops, workers, ctx);

    // The same job in one process: the answer the cluster must give, and
    // the base of the wire tax.
    let pattern = parse_pattern_spec(PATTERN).expect("catalog pattern");
    let config: PsglConfig = job.config().expect("job strategy parses");
    let shared = PsglShared::prepare(&graph, &pattern, &config).expect("prepare");
    let mut in_process_ms = Vec::new();
    for _ in 0..if ctx.trace { 3 } else { 1 } {
        let start = Instant::now();
        let got = list_subgraphs_prepared(&shared, &config).expect("in-process run").instance_count;
        in_process_ms.push(start.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        failed += u64::from(Some(got) != reference);
    }
    let small = power_law_graph(scaled(vertices, 0.1, 200), AVG_DEGREE, GAMMA, ctx.seed);
    let small_shared = PsglShared::prepare(&small, &pattern, &config).expect("prepare");
    let got = list_subgraphs_prepared(&small_shared, &config).expect("small run").instance_count;
    attempted += 1;
    failed += u64::from(got != psgl_baselines::centralized::count(&small, &pattern));

    let per_op = |total: f64| total / ops.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let remote = (totals.messages - totals.messages_local) as f64;
    ctx.set("cluster.frames_sent", per_op(totals.frames_sent as f64));
    ctx.set("cluster.wire_bytes_sent", per_op(totals.wire_bytes_sent as f64));
    ctx.set("cluster.wire_bytes_per_gpsi", ratio(totals.wire_bytes_sent as f64, remote));
    ctx.set("cluster.remote_share", ratio(remote, totals.messages as f64));
    ctx.set("cluster.barrier_wait_s", per_op(totals.barrier_ns as f64 / 1e9));
    ctx.set("cluster.exchange_s", per_op(totals.exchange_ns as f64 / 1e9));
    ctx.set("cluster.join_s", per_op(join_s));
    ctx.set("cluster.attempts", per_op(attempts as f64));
    ctx.set("cluster.vs_inprocess_ratio", ratio(sys::median(&op_ms), sys::median(&in_process_ms)));
    ctx.set_input_metrics(&graph, 1);
    if ctx.trace {
        micro::frame_codec(ctx);
    }

    Outcome {
        setup_s,
        traced_op_ms,
        region,
        work_per_s: reference.unwrap_or(0) as f64 * 1e3 / sys::median(&op_ms),
        work_unit: "instances",
        cpu_ms_per_op: sys::median(&cpu_ms),
        op_ms,
        attempted,
        failed,
        notes: vec![
            ("vertices", Json::from(vertices)),
            ("edges", Json::from(graph.num_edges())),
            ("instances_per_job", Json::from(reference.unwrap_or(0))),
        ],
    }
}
