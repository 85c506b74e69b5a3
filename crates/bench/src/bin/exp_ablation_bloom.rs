//! Ablation — bloom-filter precision sweep (the "adjustable precision" of
//! Section 5.2.3).
//!
//! Sweeps bits-per-edge and reports the measured false-positive rate, the
//! index memory, the Gpsi volume, and the run cost. Expected shape: going
//! from no index to even a coarse one collapses the invalid-Gpsi volume;
//! past ~10 bits/edge the returns diminish while memory keeps growing —
//! which is why the paper calls 2 GB for Twitter "light-weight".

use psgl_bench::datasets;
use psgl_bench::report::{banner, extension_note, sci, timed, Table, EXTENSION};
use psgl_core::{list_subgraphs_prepared, EdgeIndex, PsglConfig, PsglShared};
use psgl_pattern::catalog;

fn main() {
    let scale = datasets::scale_from_env();
    let ds = datasets::livejournal(scale);
    banner("Ablation", "edge-index precision sweep (bits per edge)", scale, [&ds]);
    let pattern = catalog::square();
    println!("{} ({} edges), {}\n", ds.name, ds.graph.num_edges(), pattern);
    let table = Table::new(&[
        ("bits/edge", 10),
        ("measured fpr", 13),
        ("index KiB", 10),
        ("Gpsi generated", 15),
        ("total cost", 12),
        ("wall ms", 9),
    ]);
    let workers = 8;
    let paper = PsglConfig::with_workers(workers).kernels(false);
    // Baseline: no index at all.
    let config = paper.clone().edge_index(false);
    let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
    let (r, ms) = timed(|| list_subgraphs_prepared(&shared, &config).expect("listing"));
    let reference = r.instance_count;
    table.row(&[
        "none".into(),
        "-".into(),
        "0".into(),
        sci(r.stats.expand.generated),
        sci(r.stats.expand.cost),
        format!("{ms:.0}"),
    ]);
    for bits in [2usize, 4, 8, 12, 16, 24] {
        let config = PsglConfig { index_bits_per_edge: bits, ..paper.clone() };
        let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
        let fpr = EdgeIndex::build(&ds.graph, bits).measured_fpr(&ds.graph, 50_000, 1);
        let mem = shared.index.as_ref().unwrap().memory_bytes() / 1024;
        let (r, ms) = timed(|| list_subgraphs_prepared(&shared, &config).expect("listing"));
        assert_eq!(r.instance_count, reference, "precision must not change results");
        table.row(&[
            bits.to_string(),
            format!("{:.4}", fpr),
            mem.to_string(),
            sci(r.stats.expand.generated),
            sci(r.stats.expand.cost),
            format!("{ms:.0}"),
        ]);
    }
    let config = PsglConfig::with_workers(workers);
    let shared = PsglShared::prepare(&ds.graph, &pattern, &config).expect("prepare");
    let (r, ms) = timed(|| list_subgraphs_prepared(&shared, &config).expect("listing"));
    assert_eq!(r.instance_count, reference, "the kernels must not change results");
    table.row(&[
        format!("{}{EXTENSION}", config.index_bits_per_edge),
        "-".into(),
        (shared.index.as_ref().unwrap().memory_bytes() / 1024).to_string(),
        sci(r.stats.expand.generated),
        sci(r.stats.expand.cost),
        format!("{ms:.0}"),
    ]);
    println!(
        "\nshape: Gpsi volume collapses once the index exists; diminishing returns past ~10 bits."
    );
    extension_note();
}
