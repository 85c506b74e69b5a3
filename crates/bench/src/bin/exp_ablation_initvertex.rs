//! Ablation — does Algorithm 4's cost model pick the right initial vertex?
//!
//! For every paper pattern × dataset, compare three choices: the
//! framework's automatic pick (Theorem 5 rule for cycles/cliques, cost
//! model otherwise), the cost model's pick forced for all patterns, and
//! the actual best found by trying every vertex. The model is validated if
//! its pick is at (or within a few percent of) the measured optimum.

use psgl_bench::datasets;
use psgl_bench::report::{banner, extension_note, Table, EXTENSION};
use psgl_core::init_vertex::CostModel;
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglError, PsglShared};
use psgl_graph::DegreeStats;
use psgl_pattern::catalog;

fn main() {
    let scale = datasets::scale_from_env() * 0.35;
    let stand_ins = [datasets::webgoogle(scale), datasets::randgraph(scale)];
    banner("Ablation", "cost-model initial-vertex choice vs measured optimum", scale, &stand_ins);
    let workers = 8;
    let table = Table::new(&[
        ("case", 40),
        ("auto pick", 10),
        ("model pick", 11),
        ("true best", 10),
        ("auto/best", 10),
    ]);
    for ds in &stand_ins {
        for pattern in catalog::paper_patterns() {
            // Measured cost for every initial vertex (budgeted: terrible
            // choices are cut off and treated as +inf).
            let mut measured: Vec<(u8, Option<u64>)> = Vec::new();
            for v in pattern.vertices() {
                let config = PsglConfig {
                    gpsi_budget: Some(4_000_000),
                    ..PsglConfig::with_workers(workers).init_vertex(v).kernels(false)
                };
                let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
                match list_subgraphs_prepared(&shared, &config) {
                    Ok(r) => measured.push((v, Some(r.stats.simulated_makespan))),
                    Err(PsglError::OutOfMemory { .. }) => measured.push((v, None)),
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            let Some((best_v, best_cost)) =
                measured.iter().filter_map(|&(v, m)| m.map(|m| (v, m))).min_by_key(|&(_, m)| m)
            else {
                table.row(&[
                    format!("{} {}", ds.name, pattern),
                    "OOM".into(),
                    "OOM".into(),
                    "OOM".into(),
                    "-".into(),
                ]);
                continue;
            };
            // The framework's automatic choice.
            let auto_config = PsglConfig::with_workers(workers).kernels(false);
            let shared = PsglShared::prepare(&ds.graph, &pattern, &auto_config).expect("prepare");
            let auto_v = shared.init_vertex;
            let auto_cost = measured.iter().find(|&&(v, _)| v == auto_v).and_then(|&(_, m)| m);
            // The raw cost model's choice for every pattern.
            let stats = DegreeStats::of_graph(&ds.graph);
            let model = CostModel::new(&pattern, &stats.histogram);
            let model_v = pattern
                .vertices()
                .min_by(|&a, &b| model.estimate(a).partial_cmp(&model.estimate(b)).unwrap())
                .unwrap();
            table.row(&[
                format!("{} {}", ds.name, pattern),
                format!("v{}", auto_v + 1),
                format!("v{}", model_v + 1),
                format!("v{}", best_v + 1),
                auto_cost.map_or("OOM".into(), |c| format!("{:.2}", c as f64 / best_cost as f64)),
            ]);
            // The extension: the kernels from the automatic pick, against
            // the best kernels-off makespan.
            let config = PsglConfig::with_workers(workers);
            let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
            let r = list_subgraphs_prepared(&shared, &config).expect("listing");
            table.row(&[
                format!("{} {}{EXTENSION}", ds.name, pattern),
                format!("v{}", shared.init_vertex + 1),
                "-".into(),
                "-".into(),
                format!("{:.2}", r.stats.simulated_makespan as f64 / best_cost as f64),
            ]);
        }
    }
    println!("\nshape: auto/best ≈ 1.0 — the selection framework finds (near-)optimal vertices.");
    extension_note();
}
