//! BENCH_delta — incremental (delta) listing vs scratch recomputation on
//! a dynamic Chung-Lu graph.
//!
//! Not a paper artifact: the paper's graphs are static. This guards the
//! `psgl-delta` subsystem's reason to exist — at low churn, patching a
//! materialized instance list with the signed delta of one edge batch
//! must beat re-enumerating the mutated graph from scratch by a wide
//! margin, because seeded expansion touches work proportional to the
//! changed edges, not the graph.
//!
//! Workload: `chung_lu_dynamic` — a power-law base graph plus a stream of
//! mutation batches sized to ≤1% churn (batch edges / graph edges). Each
//! batch is applied through [`psgl_delta::DeltaGraph`]; the incremental
//! side computes the signed instance delta and patches the view, the
//! scratch side re-lists the post-mutation epoch with the same pinned
//! artifacts. Parity of the two instance multisets is asserted on every
//! batch, so the speedup is measured against a *correct* incremental run.
//!
//! The gate: median triangle speedup ≥ `MIN_SPEEDUP` (5×). Results go to
//! `results/BENCH_delta.json`. `PSGL_SCALE` scales the graph size.

use psgl_bench::report;
use psgl_core::PsglConfig;
use psgl_delta::{DeltaGraph, DeltaQuery};
use psgl_graph::generators::{chung_lu, chung_lu_dynamic};
use psgl_pattern::{catalog, Pattern};
use psgl_service::Json;
use std::process::ExitCode;

const MIN_SPEEDUP: f64 = 5.0;
const NUM_BATCHES: usize = 5;
const AVG_DEGREE: f64 = 8.0;
const GAMMA: f64 = 2.5;
const SEED: u64 = 20140622;

struct PatternRow {
    name: &'static str,
    gated: bool,
    batches: Vec<Json>,
    median_speedup: f64,
    mean_delta_ms: f64,
    mean_scratch_ms: f64,
}

fn run_pattern(
    name: &'static str,
    pattern: &Pattern,
    gated: bool,
    base: &psgl_graph::DataGraph,
    batches: &[psgl_graph::generators::EdgeBatch],
    table: &report::Table,
) -> PatternRow {
    let config = PsglConfig::with_workers(4).seed(SEED).collect(true);
    let query = DeltaQuery::new(pattern, &config).expect("catalog patterns always prepare");
    // Threshold far above the workload: the bench measures the patch
    // path, never a compaction resync.
    let mut dg = DeltaGraph::new(base.clone(), 10, usize::MAX);
    let mut view = query.full(dg.artifacts()).expect("initial listing");
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let (mut sum_delta, mut sum_scratch) = (0.0, 0.0);
    for (i, batch) in batches.iter().enumerate() {
        let pre = dg.artifacts().clone();
        let out = dg.apply(batch).expect("bench batches are valid");
        assert!(!out.compacted, "threshold usize::MAX must never compact");
        let (delta, delta_ms) = report::timed(|| {
            query
                .delta(&pre, dg.artifacts(), &out.inserted, &out.deleted)
                .expect("incremental listing")
        });
        delta.patch(&mut view);
        let (mut scratch, scratch_ms) =
            report::timed(|| query.full(dg.artifacts()).expect("scratch listing"));
        let mut patched = view.clone();
        patched.sort_unstable();
        scratch.sort_unstable();
        assert_eq!(patched, scratch, "{name}: patched view diverged on batch {i}");
        let speedup = scratch_ms / delta_ms.max(1e-9);
        table.row(&[
            format!("{name}/{i}"),
            format!("{}", out.inserted.len() + out.deleted.len()),
            format!("{}", scratch.len()),
            format!("{delta_ms:.1}"),
            format!("{scratch_ms:.1}"),
            format!("{speedup:.1}x"),
        ]);
        speedups.push(speedup);
        sum_delta += delta_ms;
        sum_scratch += scratch_ms;
        rows.push(Json::obj([
            ("batch", Json::from(i as u64)),
            ("mutations", Json::from(out.inserted.len() + out.deleted.len())),
            ("instances", Json::from(scratch.len())),
            ("count_delta", Json::from(delta.count_delta())),
            ("delta_ms", Json::from(delta_ms)),
            ("scratch_ms", Json::from(scratch_ms)),
            ("speedup", Json::from(speedup)),
        ]));
    }
    speedups.sort_by(|a, b| a.total_cmp(b));
    PatternRow {
        name,
        gated,
        batches: rows,
        median_speedup: report::percentile(&speedups, 0.5),
        mean_delta_ms: sum_delta / batches.len() as f64,
        mean_scratch_ms: sum_scratch / batches.len() as f64,
    }
}

fn main() -> ExitCode {
    let scale: f64 = std::env::var("PSGL_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let n = ((20_000.0 * scale) as usize).max(1_000);
    report::banner(
        "BENCH_delta",
        "incremental listing vs scratch recompute on a dynamic Chung-Lu graph",
        scale,
        [],
    );
    // Size batches off the realized edge count so churn is provably ≤1%;
    // the same seed makes this probe graph identical to the fixture base.
    let probe = chung_lu(n, AVG_DEGREE, GAMMA, SEED).expect("generator parameters are valid");
    let batch_edges = (probe.num_edges() as usize / 100).max(1);
    let (base, batches) =
        chung_lu_dynamic(n, AVG_DEGREE, GAMMA, SEED, NUM_BATCHES, batch_edges).unwrap();
    let churn = batch_edges as f64 / base.num_edges() as f64;
    println!(
        "graph: chung-lu n={n} edges={} | {NUM_BATCHES} batches x {batch_edges} mutations \
         (churn {:.2}%)",
        base.num_edges(),
        churn * 100.0
    );
    println!();
    let table = report::Table::new(&[
        ("pattern/batch", 16),
        ("mutations", 9),
        ("instances", 9),
        ("delta-ms", 9),
        ("scratch-ms", 10),
        ("speedup", 8),
    ]);
    let runs = [
        run_pattern("triangle", &catalog::triangle(), true, &base, &batches, &table),
        run_pattern("square", &catalog::square(), false, &base, &batches, &table),
    ];
    println!();
    let mut pass = true;
    let mut pattern_reports = Vec::new();
    for run in &runs {
        let gate_ok = !run.gated || run.median_speedup >= MIN_SPEEDUP;
        pass &= gate_ok;
        println!(
            "{}: median speedup {:.1}x (mean {:.1} ms delta vs {:.1} ms scratch){}",
            run.name,
            run.median_speedup,
            run.mean_delta_ms,
            run.mean_scratch_ms,
            if run.gated {
                if gate_ok {
                    format!(" — gate >= {MIN_SPEEDUP:.0}x PASS")
                } else {
                    format!(" — gate >= {MIN_SPEEDUP:.0}x FAIL")
                }
            } else {
                String::new()
            }
        );
        pattern_reports.push(Json::obj([
            ("pattern", Json::from(run.name)),
            ("gated", Json::from(run.gated)),
            ("median_speedup", Json::from(run.median_speedup)),
            ("mean_delta_ms", Json::from(run.mean_delta_ms)),
            ("mean_scratch_ms", Json::from(run.mean_scratch_ms)),
            ("batches", Json::Arr(run.batches.clone())),
        ]));
    }
    println!();
    println!("shape: delta-ms flat and small while scratch-ms tracks graph size;");
    println!("parity between the patched view and every scratch multiset is asserted.");
    let body = Json::obj([
        ("bench", Json::from("delta")),
        ("scale", Json::from(scale)),
        (
            "graph",
            Json::obj([
                ("model", Json::from("chung-lu")),
                ("vertices", Json::from(base.num_vertices())),
                ("edges", Json::from(base.num_edges())),
                ("avg_degree", Json::from(AVG_DEGREE)),
                ("gamma", Json::from(GAMMA)),
                ("seed", Json::from(SEED)),
            ]),
        ),
        ("num_batches", Json::from(NUM_BATCHES as u64)),
        ("batch_edges", Json::from(batch_edges)),
        ("churn", Json::from(churn)),
        ("min_speedup_gate", Json::from(MIN_SPEEDUP)),
        ("pass", Json::from(pass)),
        ("patterns", Json::Arr(pattern_reports)),
    ]);
    if let Err(e) = report::write_json_report("results/BENCH_delta.json", &body) {
        eprintln!("could not write results/BENCH_delta.json: {e}");
        return ExitCode::FAILURE;
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!("BENCH_delta: speedup gate failed");
        ExitCode::FAILURE
    }
}
