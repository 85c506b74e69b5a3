//! Figure 3 — performance of the five distribution strategies.
//!
//! Paper setup: PG2 (square) on WebGoogle, WikiTalk, UsPatent — patterns
//! whose middle iterations keep generating new partial instances — and PG4
//! (4-clique) on LiveJournal, where only the first iteration generates and
//! the rest verify. Expected shape (Section 7.2):
//!
//! - (WA,0.5) wins on the skewed graphs (≈77% over Random on WikiTalk,
//!   11–23% over the other strategies);
//! - the improvement shrinks on the mildly-skewed UsPatent (γ = 3.13);
//! - on PG4 all five strategies are close (verification has constant cost).

use psgl_bench::datasets;
use psgl_bench::report::{banner, extension_note, timed, Table, EXTENSION};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglShared, Strategy};
use psgl_pattern::catalog;

fn main() {
    let scale = datasets::scale_from_env();
    let workers = 8;
    let cases = [
        (datasets::webgoogle(scale), catalog::square()),
        (datasets::wikitalk(scale), catalog::square()),
        (datasets::uspatent(scale), catalog::square()),
        (datasets::livejournal(scale), catalog::four_clique()),
    ];
    banner(
        "Figure 3",
        "runtime of distribution strategies (PG2 on WebGoogle/WikiTalk/UsPatent, PG4 on LiveJournal)",
        scale,
        cases.iter().map(|(ds, _)| ds),
    );
    for (ds, pattern) in cases {
        println!(
            "\n--- {} on {} ({} vertices, {} edges, {workers} workers) ---",
            pattern,
            ds.name,
            ds.graph.num_vertices(),
            ds.graph.num_edges()
        );
        let table = Table::new(&[
            ("strategy", 10),
            ("makespan(cost)", 14),
            ("imbalance", 10),
            ("wall ms", 10),
            ("instances", 12),
        ]);
        let prepare = |config: &PsglConfig| {
            PsglShared::prepare(&ds.graph, &pattern, config).expect("prepare")
        };
        let row = |name: &str, shared: &PsglShared, config: &PsglConfig| {
            let (result, ms) = timed(|| list_subgraphs_prepared(shared, config).expect("listing"));
            let makespan = result.stats.simulated_makespan;
            table.row(&[
                name.to_string(),
                makespan.to_string(),
                format!("{:.3}", result.stats.cost_imbalance),
                format!("{ms:.0}"),
                result.instance_count.to_string(),
            ]);
            makespan
        };
        let paper = PsglConfig::with_workers(workers).kernels(false);
        let shared = prepare(&paper);
        let mut best: Option<(String, u64)> = None;
        let mut worst: Option<(String, u64)> = None;
        for (name, strategy) in Strategy::paper_variants() {
            let makespan = row(name, &shared, &paper.clone().strategy(strategy));
            if best.as_ref().is_none_or(|(_, b)| makespan < *b) {
                best = Some((name.to_string(), makespan));
            }
            if worst.as_ref().is_none_or(|(_, w)| makespan > *w) {
                worst = Some((name.to_string(), makespan));
            }
        }
        let extension = PsglConfig::with_workers(workers);
        row(EXTENSION, &prepare(&extension), &extension);
        let (bn, bm) = best.unwrap();
        let (wn, wm) = worst.unwrap();
        println!(
            "shape: best={bn}, worst={wn}, improvement {:.0}% (paper: (WA,0.5) best, up to 77% on WikiTalk; \
             flat on clique patterns)",
            100.0 * (wm - bm) as f64 / wm as f64
        );
    }
    println!();
    extension_note();
}
