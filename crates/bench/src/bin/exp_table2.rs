//! Table 2 — pruning ratio of the light-weight edge index.
//!
//! The paper counts Gpsis generated with and without the index:
//!
//! | graph | pattern | Gpsi# w/ | Gpsi# w/o | pruning ratio |
//! |---|---|---|---|---|
//! | LiveJournal | PG1(v1) | 2.86e8 | 6.81e8 | 58.01% |
//! | LiveJournal | PG4(v1) | 9.93e9 | OOM | unknown |
//! | UsPatent | PG5(v1) | 2.26e7 | 3.17e8 | 92.87% |
//! | UsPatent | PG5(v3) | 7.38e9 | 2.04e10 | 63.89% |
//!
//! Expected shape: large pruning ratios wherever invalid partial instances
//! exist; the clique run without the index blows past the memory budget.

use psgl_bench::datasets::{self, Dataset};
use psgl_bench::report::{banner, extension_note, sci, Table, EXTENSION};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglError, PsglShared};
use psgl_pattern::{catalog, Pattern, PatternVertex};

fn gpsi_count(
    ds: &Dataset,
    pattern: &Pattern,
    init: PatternVertex,
    use_index: bool,
    budget: Option<u64>,
    workers: usize,
    kernels: bool,
) -> Option<u64> {
    let config = PsglConfig {
        gpsi_budget: budget,
        ..PsglConfig::with_workers(workers).init_vertex(init).edge_index(use_index).kernels(kernels)
    };
    let shared = PsglShared::prepare(&ds.graph, pattern, &config).expect("prepare");
    match list_subgraphs_prepared(&shared, &config) {
        Ok(r) => Some(r.stats.expand.generated),
        Err(PsglError::OutOfMemory { .. }) => None,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

fn main() {
    let scale = datasets::scale_from_env();
    let lj = datasets::livejournal(scale);
    let us = datasets::uspatent(scale);
    banner("Table 2", "pruning ratio of the light-weight edge index", scale, [&lj, &us]);
    let workers = 8;
    // The paper's OOM row: the 4-clique without the index on LiveJournal.
    // Budget chosen relative to the indexed run so the blow-up trips it.
    let cases: [(&Dataset, Pattern, PatternVertex, Option<u64>); 4] = [
        (&lj, catalog::triangle(), 0, None),
        (&lj, catalog::four_clique(), 0, Some(4_000_000)),
        (&us, catalog::house(), 0, None),
        (&us, catalog::house(), 2, None),
    ];
    let table = Table::new(&[
        ("graph", 13),
        ("pattern", 26),
        ("Gpsi# w/ index", 15),
        ("Gpsi# w/o index", 16),
        ("pruning ratio", 14),
    ]);
    for (ds, pattern, init, budget) in cases {
        for kernels in [false, true] {
            let with = gpsi_count(ds, &pattern, init, true, None, workers, kernels)
                .expect("indexed run fits in memory");
            let without = gpsi_count(ds, &pattern, init, false, budget, workers, kernels);
            let (wo_str, ratio) = match without {
                Some(wo) => (
                    sci(wo),
                    format!("{:.2}%", 100.0 * (wo.saturating_sub(with)) as f64 / wo as f64),
                ),
                None => ("OOM".to_string(), "unknown".to_string()),
            };
            let extension = if kernels { EXTENSION } else { "" };
            table.row(&[
                ds.name.to_string(),
                format!("{}(v{}){extension}", pattern, init + 1),
                sci(with),
                wo_str,
                ratio,
            ]);
        }
    }
    println!(
        "\nshape: substantial pruning on patterns with cross edges; the no-index clique run OOMs \
         (paper Table 2: 58-93% pruning, PG4 w/o index OOM)."
    );
    extension_note();
}
