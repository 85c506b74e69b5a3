//! Ablation — automorphism breaking on/off (Section 5.2.1).
//!
//! Without the partial orders, every subgraph instance is found once per
//! automorphism — 6× the work for triangles, 8× for squares, 24× for
//! 4-cliques. The run cost and Gpsi volume should inflate by roughly
//! |Aut(Gp)| (less than exactly, because the partial orders also prune
//! *invalid* partial instances early).

use psgl_bench::datasets;
use psgl_bench::report::{banner, sci, timed, Table};
use psgl_core::{list_subgraphs_prepared, PsglConfig, PsglShared};
use psgl_pattern::automorphism::automorphisms;
use psgl_pattern::catalog;

fn main() {
    let scale = datasets::scale_from_env();
    let ds = datasets::uspatent(scale);
    banner("Ablation", "automorphism breaking on/off", scale, [&ds]);
    println!(
        "{} ({} vertices, {} edges)\n",
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );
    let table = Table::new(&[
        ("pattern", 20),
        ("|Aut|", 6),
        ("instances", 11),
        ("dup found", 11),
        ("cost x", 7),
        ("Gpsi x", 7),
        ("wall x", 7),
    ]);
    let workers = 8;
    for pattern in [catalog::triangle(), catalog::square(), catalog::tailed_triangle()] {
        let aut = automorphisms(&pattern).len() as u64;
        let on = PsglConfig::with_workers(workers);
        let shared_on = PsglShared::prepare(&ds.graph, &pattern, &on).expect("prepare");
        let (r_on, ms_on) = timed(|| list_subgraphs_prepared(&shared_on, &on).expect("listing"));
        let off = PsglConfig { break_automorphisms: false, ..PsglConfig::with_workers(workers) };
        let shared_off = PsglShared::prepare(&ds.graph, &pattern, &off).expect("prepare");
        let (r_off, ms_off) =
            timed(|| list_subgraphs_prepared(&shared_off, &off).expect("listing"));
        assert_eq!(r_off.instance_count, r_on.instance_count * aut);
        table.row(&[
            pattern.to_string(),
            aut.to_string(),
            sci(r_on.instance_count),
            sci(r_off.instance_count),
            format!("{:.1}", r_off.stats.expand.cost as f64 / r_on.stats.expand.cost as f64),
            format!(
                "{:.1}",
                r_off.stats.expand.generated as f64 / r_on.stats.expand.generated as f64
            ),
            format!("{:.1}", ms_off / ms_on),
        ]);
    }
    println!("\nshape: duplicates = |Aut| x instances; cost inflates by roughly |Aut|.");
}
