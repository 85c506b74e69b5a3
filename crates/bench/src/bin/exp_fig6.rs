//! Figure 6 — influence of the initial pattern vertex.
//!
//! For each (pattern, graph) pair the paper runs every initial pattern
//! vertex and normalizes to the best. Expected shape:
//!
//! - on power-law graphs the gap is large (8.5× for PG1 on LiveJournal,
//!   ≈285× on WikiTalk; ratios over 100× are cut off),
//! - v1 (the lowest-rank vertex after automorphism breaking) is the best
//!   for cycles/cliques (Theorem 5), and a vertex tied to v1 by an order
//!   constraint performs the same,
//! - on the random graph the choice barely matters (≤ ~1.6×).

use psgl_bench::datasets::{self, Dataset};
use psgl_bench::report::{banner, extension_note, Table, EXTENSION};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglError, PsglShared};
use psgl_pattern::{catalog, Pattern};

fn run_case(ds: &Dataset, pattern: &Pattern, workers: usize) {
    println!(
        "\n--- {} on {} ({} vertices, {} edges) ---",
        pattern,
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );
    let table = Table::new(&[("init vertex", 16), ("makespan(cost)", 14), ("ratio to best", 14)]);
    let mut rows: Vec<(u8, Option<u64>)> = Vec::new();
    let mut best = u64::MAX;
    // First pass establishes the best; a generous Gpsi budget keeps
    // catastrophic choices from running forever (the paper likewise cuts
    // the >100x bars).
    for v in pattern.vertices() {
        let config = PsglConfig {
            gpsi_budget: Some(4_000_000),
            ..PsglConfig::with_workers(workers).init_vertex(v).kernels(false)
        };
        let shared = PsglShared::prepare(&ds.graph, pattern, &config).expect("prepare");
        match list_subgraphs_prepared(&shared, &config) {
            Ok(r) => {
                best = best.min(r.stats.simulated_makespan);
                rows.push((v, Some(r.stats.simulated_makespan)));
            }
            Err(PsglError::OutOfMemory { .. }) => rows.push((v, None)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    for (v, makespan) in rows {
        match makespan {
            Some(m) => table.row(&[
                format!("v{}", v + 1),
                m.to_string(),
                format!("{:.2}", m as f64 / best as f64),
            ]),
            None => {
                table.row(&["v".to_string() + &(v + 1).to_string(), "OOM".into(), ">100".into()])
            }
        }
    }
    // The extension: the kernels from the automatically chosen vertex.
    let config = PsglConfig::with_workers(workers);
    let shared = PsglShared::prepare(&ds.graph, pattern, &config).expect("prepare");
    let m = list_subgraphs_prepared(&shared, &config).expect("listing").stats.simulated_makespan;
    table.row(&[
        format!("v{}{EXTENSION}", shared.init_vertex + 1),
        m.to_string(),
        format!("{:.2}", m as f64 / best as f64),
    ]);
}

fn main() {
    let scale = datasets::scale_from_env();
    let lj = datasets::livejournal(scale);
    let wiki = datasets::wikitalk(scale);
    let web = datasets::webgoogle(scale);
    let rand = datasets::randgraph(scale);
    banner(
        "Figure 6",
        "runtime ratio of each initial pattern vertex vs the best",
        scale,
        [&lj, &wiki, &web, &rand],
    );
    let workers = 8;
    // 6(a) LiveJournal: PG1 and PG4. 6(b) WikiTalk: PG2 and PG4.
    // 6(c) WebGoogle: PG1 and PG4. 6(d) RandGraph: PG1 and PG2.
    run_case(&lj, &catalog::triangle(), workers);
    run_case(&lj, &catalog::four_clique(), workers);
    run_case(&wiki, &catalog::square(), workers);
    run_case(&wiki, &catalog::four_clique(), workers);
    run_case(&web, &catalog::triangle(), workers);
    run_case(&web, &catalog::four_clique(), workers);
    run_case(&rand, &catalog::triangle(), workers);
    run_case(&rand, &catalog::square(), workers);
    println!(
        "\nshape: v1 best (Theorem 5); large gaps on power-law graphs, small (<~2x) on RandGraph."
    );
    extension_note();
}
