//! Labeled subgraph matching: the property-graph generalization.
//!
//! Section 2 of the paper frames subgraph *matching* on labeled graphs as
//! the general problem, with listing the special case where every vertex
//! carries the same label. The extension keeps the whole PSgL machinery and
//! adds one pruning rule (candidates must carry the pattern vertex's label)
//! plus label-aware automorphism breaking.
//!
//! Scenario: a collaboration network where vertices are `0 = person`,
//! `1 = paper`, `2 = venue`; we look for "two co-authors with a paper at a
//! given venue" style motifs.
//!
//! ```bash
//! cargo run --release --example labeled_matching
//! ```

use psgl::core::{list_subgraphs, list_subgraphs_prepared, PsglConfig, PsglShared};
use psgl::graph::{generators, DataGraph};
use psgl::pattern::catalog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PERSON: u16 = 0;
const PAPER: u16 = 1;
const VENUE: u16 = 2;

fn main() {
    // A power-law graph with randomly assigned entity types (60% people,
    // 30% papers, 10% venues) — a synthetic heterogeneous network.
    let g: DataGraph = generators::chung_lu(20_000, 6.0, 2.1, 11).expect("generator");
    let mut rng = SmallRng::seed_from_u64(7);
    let labels: Vec<u16> = (0..g.num_vertices())
        .map(|_| match rng.gen_range(0..10) {
            0..=5 => PERSON,
            6..=8 => PAPER,
            _ => VENUE,
        })
        .collect();
    let config = PsglConfig::with_workers(4);
    println!(
        "heterogeneous network: {} vertices, {} edges (60% person / 30% paper / 10% venue)\n",
        g.num_vertices(),
        g.num_edges()
    );
    println!("{:<44} {:>12} {:>14}", "motif", "matches", "label pruned");
    let motifs: [(&str, psgl::pattern::Pattern, Vec<u16>); 4] = [
        ("co-authorship triangle (P-P-paper)", catalog::triangle(), vec![PERSON, PERSON, PAPER]),
        (
            "citation square (paper-paper-venue-venue)",
            catalog::square(),
            vec![PAPER, PAPER, VENUE, VENUE],
        ),
        (
            "venue hub (tailed triangle, venue tail)",
            catalog::tailed_triangle(),
            vec![PERSON, PERSON, PAPER, VENUE],
        ),
        ("all-person 4-clique", catalog::four_clique(), vec![PERSON; 4]),
    ];
    for (name, pattern, pattern_labels) in motifs {
        let shared =
            PsglShared::prepare_labeled(&g, &pattern, &config, labels.clone(), pattern_labels)
                .expect("label vectors match the graph and the pattern");
        let result = list_subgraphs_prepared(&shared, &config).expect("labeled listing");
        println!(
            "{name:<44} {:>12} {:>14}",
            result.instance_count, result.stats.expand.pruned_label
        );
    }
    // Sanity check printed for the skeptical reader: uniform labels must
    // reproduce the unlabeled count exactly.
    let unlabeled = list_subgraphs(&g, &catalog::triangle(), &config).unwrap().instance_count;
    let triangle = catalog::triangle();
    let shared =
        PsglShared::prepare_labeled(&g, &triangle, &config, vec![0; g.num_vertices()], vec![0; 3])
            .unwrap();
    let uniform = list_subgraphs_prepared(&shared, &config).unwrap().instance_count;
    assert_eq!(unlabeled, uniform);
    println!("\nuniform-label run matches the unlabeled count ({unlabeled} triangles): ok");
}
