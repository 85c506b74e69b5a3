//! Cross-system validation: every engine in the workspace must agree on
//! the instance counts — PSgL (all strategies, all worker counts, index
//! on/off), the Afrati multiway join, SGIA-MR, the one-hop engine, and the
//! centralized oracle.

mod common;

use psgl::baselines::{afrati, centralized, onehop, sgia};
use psgl::core::{list_subgraphs, list_subgraphs_prepared, PsglConfig, PsglShared, Strategy};
use psgl::graph::{generators, DataGraph};
use psgl::pattern::catalog;

fn graphs() -> Vec<(&'static str, DataGraph)> {
    vec![
        ("er", generators::erdos_renyi_gnm(120, 600, 1).unwrap()),
        ("powerlaw", generators::chung_lu(200, 6.0, 2.0, 2).unwrap()),
        ("ba", generators::barabasi_albert(150, 3, 3).unwrap()),
    ]
}

#[test]
fn all_systems_agree_on_all_paper_patterns() {
    for (gname, g) in graphs() {
        for pattern in catalog::paper_patterns() {
            let expected = centralized::count(&g, &pattern);
            let psgl =
                list_subgraphs(&g, &pattern, &PsglConfig::with_workers(3)).unwrap().instance_count;
            assert_eq!(psgl, expected, "PSgL vs oracle: {pattern} on {gname}");
            let af = afrati::run(&g, &pattern, 8, None).unwrap().instance_count;
            assert_eq!(af, expected, "Afrati vs oracle: {pattern} on {gname}");
            let sg = sgia::run(&g, &pattern, 4, None).unwrap().instance_count;
            assert_eq!(sg, expected, "SGIA vs oracle: {pattern} on {gname}");
            let oh = onehop::run(
                &g,
                &pattern,
                &onehop::OneHopConfig {
                    order: onehop::natural_order(&pattern),
                    intermediate_budget: None,
                },
            )
            .unwrap()
            .instance_count;
            assert_eq!(oh, expected, "one-hop vs oracle: {pattern} on {gname}");
        }
    }
}

#[test]
fn psgl_count_invariant_to_every_knob() {
    let g = generators::chung_lu(150, 5.0, 2.2, 9).unwrap();
    let pattern = catalog::square();
    let expected = centralized::count(&g, &pattern);
    for (_, strategy) in Strategy::paper_variants() {
        for workers in [1, 3, 8] {
            for index in [true, false] {
                for seed in [1, 99] {
                    let config = PsglConfig::with_workers(workers)
                        .strategy(strategy)
                        .edge_index(index)
                        .seed(seed);
                    let got = list_subgraphs(&g, &pattern, &config).unwrap().instance_count;
                    assert_eq!(
                        got, expected,
                        "strategy={strategy:?} workers={workers} index={index} seed={seed}"
                    );
                }
            }
        }
    }
}

/// An edge between two WHITE pattern vertices is checked only through the
/// bloom index when they bind, so both ends are GRAY and the edge stays
/// unverified until one of them expands. Under a leaky bloom (one bit per
/// edge) or no index at all, counting such an edge as verified would count
/// non-instances; every cell must still match the oracle, and the level-by-
/// level cells must show the false positives dying at the exact GRAY check.
#[test]
fn bloom_only_edges_are_verified_before_an_instance_counts() {
    let g = generators::erdos_renyi_gnm(150, 900, 5).unwrap();
    let patterns =
        [catalog::triangle(), catalog::four_clique(), catalog::house(), catalog::tailed_triangle()];
    for pattern in patterns {
        let expected = centralized::count(&g, &pattern);
        for leaky_index in [false, true] {
            for kernels in [false, true] {
                for workers in [1, 3] {
                    let mut config =
                        PsglConfig::with_workers(workers).edge_index(leaky_index).kernels(kernels);
                    config.index_bits_per_edge = 1;
                    let result = list_subgraphs(&g, &pattern, &config).unwrap();
                    let cell = format!(
                        "{pattern} leaky_index={leaky_index} kernels={kernels} workers={workers}"
                    );
                    assert_eq!(result.instance_count, expected, "{cell}");
                    if leaky_index && !kernels {
                        assert!(result.stats.expand.died_gray_check > 0, "{cell}");
                    }
                }
            }
        }
    }
}

#[test]
fn every_initial_vertex_gives_the_same_count() {
    let g = generators::chung_lu(120, 5.0, 2.0, 4).unwrap();
    for pattern in catalog::paper_patterns() {
        let expected = centralized::count(&g, &pattern);
        for v in pattern.vertices() {
            let config = PsglConfig::with_workers(2).init_vertex(v);
            let got = list_subgraphs(&g, &pattern, &config).unwrap().instance_count;
            assert_eq!(got, expected, "{pattern} from v{}", v + 1);
        }
    }
}

#[test]
fn larger_patterns_cycles_and_cliques() {
    // Beyond the paper's five: 5-cycle, 5-clique, 6-cycle, stars and paths.
    let g = generators::erdos_renyi_gnm(80, 500, 7).unwrap();
    for pattern in [
        catalog::cycle(5),
        catalog::clique(5),
        catalog::cycle(6),
        catalog::star(3),
        catalog::path(4),
        catalog::path(5),
    ] {
        let expected = centralized::count(&g, &pattern);
        let got =
            list_subgraphs(&g, &pattern, &PsglConfig::with_workers(3)).unwrap().instance_count;
        assert_eq!(got, expected, "{pattern}");
    }
}

#[test]
fn paper_figure1_example_reproduces() {
    // Section 1's running example: the square pattern has exactly the
    // instances 1235, 1256, 2345 in the Figure 1(b) data graph.
    let g = psgl::graph::fixtures::paper_figure1();
    let result =
        list_subgraphs(&g, &catalog::square(), &PsglConfig::with_workers(2).collect(true)).unwrap();
    assert_eq!(result.instance_count, 3);
    let mut sets: Vec<Vec<u32>> = result
        .instances
        .unwrap()
        .iter()
        .map(|inst| {
            let mut s = inst.clone();
            s.sort_unstable();
            s
        })
        .collect();
    sets.sort();
    // 0-based: {1,2,3,5} -> {0,1,2,4}; {1,2,5,6} -> {0,1,4,5};
    // {2,3,4,5} -> {1,2,3,4}.
    assert_eq!(sets, vec![vec![0, 1, 2, 4], vec![0, 1, 4, 5], vec![1, 2, 3, 4]]);
}

#[test]
fn karate_club_ground_truth() {
    // 45 triangles is the canonical published count for Zachary's karate
    // club; every engine must reproduce it.
    let g = psgl::graph::fixtures::karate_club();
    assert_eq!(centralized::count_triangles(&g), 45);
    assert_eq!(
        list_subgraphs(&g, &catalog::triangle(), &PsglConfig::with_workers(3))
            .unwrap()
            .instance_count,
        45
    );
    assert_eq!(afrati::run(&g, &catalog::triangle(), 8, None).unwrap().instance_count, 45);
    assert_eq!(sgia::run(&g, &catalog::triangle(), 4, None).unwrap().instance_count, 45);
}

#[test]
fn labeled_matching_agrees_with_filtered_oracle() {
    // Oracle cross-check for labels: enumerate unlabeled instances and
    // filter by the label assignment, accounting for label-preserving
    // automorphisms.
    let g = generators::erdos_renyi_gnm(60, 280, 33).unwrap();
    let labels: Vec<u16> = (0..g.num_vertices() as u32).map(|v| (v % 3) as u16).collect();
    let pattern = catalog::triangle();
    let pattern_labels = vec![0u16, 0, 1];
    let config = PsglConfig::with_workers(2);
    let shared =
        PsglShared::prepare_labeled(&g, &pattern, &config, labels.clone(), pattern_labels.clone())
            .unwrap();
    let got = list_subgraphs_prepared(&shared, &config).unwrap().instance_count;
    // Count by brute force: for each triangle vertex set, count the
    // label-class assignments that match {0,0,1} as a multiset and the
    // edges (complete graph on 3, so only the multiset matters). A
    // triangle matches iff its labels are a permutation of {0,0,1}; each
    // matching set is one instance.
    let mut expected = 0u64;
    let instances = list_subgraphs(&g, &pattern, &PsglConfig::with_workers(1).collect(true))
        .unwrap()
        .instances
        .unwrap();
    for inst in instances {
        let mut have: Vec<u16> = inst.iter().map(|&v| labels[v as usize]).collect();
        have.sort_unstable();
        let mut want = pattern_labels.clone();
        want.sort_unstable();
        if have == want {
            expected += 1;
        }
    }
    assert_eq!(got, expected);
}

#[test]
fn collected_instances_match_oracle_listing() {
    let g = generators::erdos_renyi_gnm(60, 280, 11).unwrap();
    for pattern in [catalog::triangle(), catalog::square(), catalog::four_clique()] {
        let result =
            list_subgraphs(&g, &pattern, &PsglConfig::with_workers(2).collect(true)).unwrap();
        let mine = result.instances.unwrap();
        // Canonicalize both sides by sorted edge lists.
        let canon = |inst: &Vec<u32>| {
            let mut pairs: Vec<(u32, u32)> = pattern
                .edges()
                .map(|(a, b)| {
                    let (x, y) = (inst[a as usize], inst[b as usize]);
                    (x.min(y), x.max(y))
                })
                .collect();
            pairs.sort_unstable();
            pairs
        };
        let mut mine: Vec<_> = mine.iter().map(canon).collect();
        mine.sort();
        mine.dedup();
        let oracle = centralized::list(&g, &pattern);
        assert_eq!(mine.len(), oracle.len(), "{pattern}");
    }
}

/// The closing kernels bind WHITE slots through 64-bit masks over an
/// expansion's candidate universe. The other test graphs are too small for
/// a universe to pass 64 ranks, so here a planted hub has 132 lower-rank
/// neighbours: a universe of three words when the hub expands first and
/// its candidates must rank below it. The
/// spokes form 33 disjoint 4-cliques of spread-out ids, so each 5-clique
/// through the hub spans several words, over sparse random spoke edges
/// that spread the spokes' ranks. Every initial vertex of every shape must
/// give the oracle's count, and a listing that many distinct tuples.
#[test]
fn kernel_masks_cross_word_boundaries_around_a_hub() {
    let g = common::planted_hub(132);
    let ordered = psgl::graph::OrderedGraph::new(&g);
    assert!(ordered.nb(0) >= 130, "the hub's universe must span three words");
    for pattern in [
        catalog::four_clique(),
        catalog::clique(5),
        catalog::star(3),
        catalog::house(),
        catalog::tailed_triangle(),
        catalog::square(),
    ] {
        let expected = centralized::count(&g, &pattern);
        assert!(expected > 0, "{pattern}: nothing to compare");
        for v in pattern.vertices() {
            let config = PsglConfig::with_workers(2).init_vertex(v);
            let got = list_subgraphs(&g, &pattern, &config).unwrap().instance_count;
            assert_eq!(got, expected, "{pattern} from v{}", v + 1);
            let mut listed = list_subgraphs(&g, &pattern, &config.collect(true))
                .unwrap()
                .instances
                .expect("collect(true) keeps the tuples");
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(listed.len() as u64, expected, "{pattern} from v{}: distinct tuples", v + 1);
        }
    }
}

/// A hub of 3 000 spokes: an expansion of the hub binds over a universe of
/// 47 mask words, and a table of one row per position (3 000 × 47 words)
/// would exceed the kernels' 2^17-word budget, so the odometer rebuilds a
/// row for each use instead of caching it. The spokes form a ring, each
/// joined to the next two, so every three consecutive spokes close a
/// 4-clique with the hub and no four spokes of the ring form a clique;
/// three planted 4-cliques of spokes far apart make the 5-cliques. Every
/// initial vertex must give the oracle's count, and a listing that many
/// distinct tuples.
#[test]
fn kernel_rows_past_the_table_budget_match_the_oracle() {
    let spokes = 3000u32;
    let ring = |j: u32| (j - 1) % spokes + 1;
    let mut edges: Vec<(u32, u32)> = (1..=spokes).map(|v| (0, v)).collect();
    edges.extend((1..=spokes).flat_map(|j| [(j, ring(j + 1)), (j, ring(j + 2))]));
    for group in [[10, 760, 1510, 2260], [400, 1150, 1900, 2650], [5, 1005, 2005, 2995]] {
        for (k, &a) in group.iter().enumerate() {
            edges.extend(group[k + 1..].iter().map(|&b| (a, b)));
        }
    }
    let g = DataGraph::from_edges(spokes as usize + 1, &edges).unwrap();
    let ordered = psgl::graph::OrderedGraph::new(&g);
    assert_eq!(ordered.nb(0), spokes, "every spoke ranks below the hub");
    for pattern in [catalog::four_clique(), catalog::clique(5)] {
        let expected = centralized::count(&g, &pattern);
        assert!(expected > 0, "{pattern}: nothing to compare");
        for v in pattern.vertices() {
            let config = PsglConfig::with_workers(2).init_vertex(v);
            let got = list_subgraphs(&g, &pattern, &config).unwrap().instance_count;
            assert_eq!(got, expected, "{pattern} from v{}", v + 1);
            let mut listed = list_subgraphs(&g, &pattern, &config.collect(true))
                .unwrap()
                .instances
                .expect("collect(true) keeps the tuples");
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(listed.len() as u64, expected, "{pattern} from v{}: distinct tuples", v + 1);
        }
    }
}
