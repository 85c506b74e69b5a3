//! Figure 8 — scalability with the number of workers.
//!
//! Paper: PG2 on WikiTalk, workers 10 → 80; the runtime curve tracks the
//! ideal (linear) curve closely, with slightly diminishing returns at high
//! worker counts. The hardware-independent quantity is the simulated
//! makespan `T = Σ_s max_k L_ks` (Equation 3): doubling the workers should
//! roughly halve it while the *total* work stays constant.

use psgl_bench::datasets;
use psgl_bench::report::{banner, extension_note, Table, EXTENSION};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglShared};
use psgl_pattern::catalog;

fn main() {
    let scale = datasets::scale_from_env();
    let ds = datasets::wikitalk(scale);
    banner("Figure 8", "PG2 on WikiTalk, workers 10..80 vs ideal linear scaling", scale, [&ds]);
    let pattern = catalog::square();
    println!(
        "{} ({} vertices, {} edges)\n",
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );
    let table = Table::new(&[
        ("workers", 8),
        ("makespan(cost)", 14),
        ("ideal", 14),
        ("efficiency", 11),
        ("total cost", 14),
    ]);
    let mut base10 = None;
    for workers in (10..=80).step_by(10) {
        let config = PsglConfig::with_workers(workers).kernels(false);
        let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
        let r = list_subgraphs_prepared(&shared, &config).expect("listing");
        let makespan = r.stats.simulated_makespan;
        let ideal = match base10 {
            None => {
                base10 = Some(makespan);
                makespan
            }
            Some(b) => b * 10 / workers as u64,
        };
        table.row(&[
            workers.to_string(),
            makespan.to_string(),
            ideal.to_string(),
            format!("{:.2}", ideal as f64 / makespan as f64),
            r.stats.expand.cost.to_string(),
        ]);
    }
    let config = PsglConfig::with_workers(10);
    let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
    let r = list_subgraphs_prepared(&shared, &config).expect("listing");
    table.row(&[
        format!("10{EXTENSION}"),
        r.stats.simulated_makespan.to_string(),
        "-".into(),
        "-".into(),
        r.stats.expand.cost.to_string(),
    ]);
    println!(
        "\nshape: makespan ≈ ideal (efficiency near 1.0), decaying slightly at high worker \
         counts — the paper's 'approximate to the ideal curve' (1691s @ 10 -> 845s @ 20)."
    );
    extension_note();
}
