//! Figure 5 — per-worker runtime for PG2 on WikiTalk, by strategy.
//!
//! The paper plots each of the 52 workers' runtimes for all five
//! strategies. Expected shape: (WA,0.5) is balanced *and* minimizes the
//! slowest worker; (WA,1) is balanced but stuck in a worse local optimum;
//! (WA,0) keeps most workers cheap but one straggles; Random/Roulette have
//! different stragglers (high-degree vs overloaded low-degree vertices).

use psgl_bench::datasets;
use psgl_bench::report::{banner, extension_note, Table, EXTENSION};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglShared, Strategy};
use psgl_pattern::catalog;

fn main() {
    let scale = datasets::scale_from_env();
    banner("Figure 5", "per-worker cost for PG2 on WikiTalk, all strategies", scale);
    let workers = 13; // the paper uses 52; scaled with the dataset
    let ds = datasets::wikitalk(scale);
    let pattern = catalog::square();
    println!(
        "{} ({} vertices, {} edges), {workers} workers\n",
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );
    let paper = PsglConfig::with_workers(workers).kernels(false);
    let shared = PsglShared::prepare(&ds.graph, &pattern, &paper).expect("prepare");
    let variants = Strategy::paper_variants();
    let mut columns: Vec<(&str, Vec<u64>)> = Vec::new();
    for (name, strategy) in variants {
        let config = paper.clone().strategy(strategy);
        let result = list_subgraphs_prepared(&shared, &config).expect("listing");
        columns.push((name, result.stats.per_worker_cost));
    }
    let table = Table::new(&[
        ("worker", 6),
        ("Random", 12),
        ("Roulette", 12),
        ("(WA,1)", 12),
        ("(WA,0)", 12),
        ("(WA,0.5)", 12),
    ]);
    for w in 0..workers {
        let mut row = vec![format!("{}", w + 1)];
        for (_, costs) in &columns {
            row.push(costs[w].to_string());
        }
        table.row(&row);
    }
    println!();
    let extension = PsglConfig::with_workers(workers);
    let shared = PsglShared::prepare(&ds.graph, &pattern, &extension).expect("prepare");
    let result = list_subgraphs_prepared(&shared, &extension).expect("listing");
    columns.push((EXTENSION, result.stats.per_worker_cost));
    let t2 = Table::new(&[("strategy", 10), ("max worker", 12), ("mean", 12), ("max/mean", 10)]);
    for (name, costs) in &columns {
        let max = *costs.iter().max().unwrap();
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        t2.row(&[
            name.to_string(),
            max.to_string(),
            format!("{mean:.0}"),
            format!("{:.3}", max as f64 / mean),
        ]);
    }
    println!(
        "\nshape: (WA,0.5) should minimize the slowest worker while staying balanced \
         (paper Figure 5)."
    );
    extension_note();
}
