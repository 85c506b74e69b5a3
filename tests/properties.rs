//! Property-based tests over randomly generated graphs and patterns.

use proptest::prelude::*;
use psgl::baselines::centralized;
use psgl::core::{list_subgraphs, list_subgraphs_prepared, EdgeIndex, PsglConfig, PsglShared};
use psgl::delta::DeltaGraph;
use psgl::graph::generators::{chung_lu, EdgeBatch};
use psgl::graph::{DataGraph, GraphBuilder, OrderedGraph};
use psgl::pattern::automorphism::automorphisms;
use psgl::pattern::{break_automorphisms, Pattern};

/// Strategy: a random graph over `n ≤ 24` vertices from a raw edge list
/// (duplicates, loops and both orientations included to stress the
/// builder).
fn arb_graph() -> impl Strategy<Value = DataGraph> {
    (2usize..24, proptest::collection::vec((0u32..24, 0u32..24), 0..80)).prop_map(|(n, edges)| {
        let mut b = GraphBuilder::new();
        for (u, v) in edges {
            b.add_edge(u % n as u32, v % n as u32);
        }
        b.build_with_num_vertices(n).unwrap()
    })
}

/// Strategy: a random *connected* pattern with 2–5 vertices: a random
/// spanning tree plus random extra edges (no rejection needed).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (2usize..6, proptest::collection::vec(any::<u32>(), 5), any::<u16>()).prop_map(
        |(n, parents, extra)| {
            let mut edges: Vec<(u8, u8)> = Vec::new();
            for v in 1..n {
                edges.push((v as u8, (parents[v - 1] as usize % v) as u8));
            }
            // Extra edges from the bitmask over all pairs.
            let mut bit = 0;
            for u in 0..n as u8 {
                for v in (u + 1)..n as u8 {
                    if (extra >> bit) & 1 == 1 {
                        edges.push((u, v));
                    }
                    bit += 1;
                }
            }
            Pattern::new("random", n, &edges).unwrap()
        },
    )
}

/// `o` holds `g`'s adjacency in rank space: rank → id inverts `rank`,
/// every list is strictly ascending and equals the ranks of the vertex's
/// neighbours, it splits at `nb` into lower and higher ranks, and
/// `degree_sorted()` says whether degree is monotone in rank.
fn check_rank_space(o: &OrderedGraph, g: &DataGraph) {
    prop_assert_eq!(o.len(), g.num_vertices());
    prop_assert_eq!(o.rank_graph().num_edges(), g.num_edges());
    for r in 0..o.len() as u32 {
        let v = o.vertex(r);
        prop_assert_eq!(o.rank(v), r);
        prop_assert_eq!(o.ranks()[v as usize], r);
        prop_assert_eq!(o.vertices_by_rank()[r as usize], v);
        let list = o.neighbors_of_rank(r);
        prop_assert!(list.windows(2).all(|w| w[0] < w[1]));
        let mut want: Vec<u32> = g.neighbors(v).iter().map(|&u| o.rank(u)).collect();
        want.sort_unstable();
        prop_assert_eq!(list, &want[..]);
        prop_assert_eq!(o.degree_of_rank(r), g.degree(v));
        let below = g.neighbors(v).iter().filter(|&&u| o.less(u, v)).count() as u32;
        prop_assert_eq!(o.nb(v), below);
        prop_assert_eq!(o.lower_of_rank(r), &list[..below as usize]);
        prop_assert_eq!(o.higher_of_rank(r), &list[below as usize..]);
    }
    // Whether degree is monotone in rank, read off `g` directly, and while
    // it is, each degree bound's rank floor: the first rank of that degree
    // or more, the degree `partition_point` over all ranks.
    let by_rank: Vec<u32> = o.vertices_by_rank().iter().map(|&v| g.degree(v)).collect();
    prop_assert_eq!(o.degree_sorted(), by_rank.windows(2).all(|w| w[0] <= w[1]));
    for d in 0..=12 {
        let first = by_rank.partition_point(|&deg| deg < d) as u32;
        prop_assert_eq!(o.rank_floor(d), o.degree_sorted().then_some(first), "floor of {}", d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_is_always_symmetric_and_loop_free(g in arb_graph()) {
        prop_assert!(g.is_symmetric());
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v));
            // Sorted, deduplicated adjacency.
            let n = g.neighbors(v);
            prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
        }
        prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
    }

    #[test]
    fn ordering_invariants(
        g in arb_graph(),
        toggles in proptest::collection::vec((0u32..24, 0u32..24), 0..24),
        seed in any::<u64>(),
    ) {
        let o = OrderedGraph::new(&g);
        // Ranks are a permutation.
        let mut ranks: Vec<u32> = g.vertices().map(|v| o.rank(v)).collect();
        ranks.sort_unstable();
        prop_assert_eq!(ranks, (0..g.num_vertices() as u32).collect::<Vec<_>>());
        // nb + ns = degree, and both sides sum to |E|.
        let mut nb_sum = 0u64;
        for v in g.vertices() {
            prop_assert_eq!(o.nb(v) + o.ns(v), g.degree(v));
            nb_sum += u64::from(o.nb(v));
        }
        prop_assert_eq!(nb_sum, g.num_edges());
        // Order respects degree.
        for (u, v) in g.edges() {
            if g.degree(u) < g.degree(v) {
                prop_assert!(o.less(u, v));
            }
        }
        prop_assert!(o.degree_sorted(), "fresh ranks follow degree");
        check_rank_space(&o, &g);

        // Ranks pinned on `g`, patched with a mutation batch (a delta
        // epoch): the rank-space lists follow the mutated graph.
        let n = g.num_vertices() as u32;
        let before: std::collections::BTreeSet<(u32, u32)> = g.edges().collect();
        let mut edges = before.clone();
        for (u, v) in toggles {
            let (u, v) = (u % n, v % n);
            let e = (u.min(v), u.max(v));
            if u != v && !edges.remove(&e) {
                edges.insert(e);
            }
        }
        // Pairs with an odd endpoint sum go in reversed: a patch takes
        // either order.
        let reverse_odd = |&(u, v): &(u32, u32)| if (u + v) % 2 == 1 { (v, u) } else { (u, v) };
        let inserted: Vec<_> = edges.difference(&before).map(reverse_odd).collect();
        let deleted: Vec<_> = before.difference(&edges).map(reverse_odd).collect();
        let mut b = GraphBuilder::new();
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g2 = b.build_with_num_vertices(g.num_vertices()).unwrap();
        let o2 = o.with_batch(&inserted, &deleted).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(o2.rank(v), o.rank(v));
        }
        check_rank_space(&o2, &g2);

        // A power-law graph's rank floors, through a delta epoch that
        // lifts the lowest-ranked vertex above all but a handful of
        // degrees (its ranks stop following degree: no floors) and the
        // compaction after it (fresh ranks: floors again).
        let pl = chung_lu(300, 6.0, 2.1, seed).unwrap();
        let mut delta = DeltaGraph::new(pl.clone(), 8, usize::MAX);
        let o = &delta.artifacts().ordered;
        check_rank_space(o, &pl);
        let (low, next) = (o.vertex(0), o.vertex(1));
        let insert: Vec<_> = pl
            .vertices()
            .filter(|&v| v != low && v != next && !pl.has_edge(low, v))
            .map(|v| (low, v))
            .collect();
        delta.apply(&EdgeBatch { insert, delete: Vec::new() }).unwrap();
        let epoch = delta.artifacts();
        prop_assert!(!epoch.ordered.degree_sorted(), "rank 0 now outranks rank 1 in degree");
        prop_assert_eq!(epoch.ordered.rank_floor(2), None);
        check_rank_space(&epoch.ordered, &epoch.graph);
        delta.compact();
        let compacted = delta.artifacts();
        prop_assert!(compacted.ordered.rank_floor(2).is_some());
        check_rank_space(&compacted.ordered, &compacted.graph);
    }

    #[test]
    fn bloom_index_has_no_false_negatives(g in arb_graph(), bits in 2usize..16) {
        let idx = EdgeIndex::build(&g, bits);
        for (u, v) in g.edges() {
            prop_assert!(idx.may_contain(u, v));
            prop_assert!(idx.may_contain(v, u));
        }
    }

    #[test]
    fn breaking_keeps_exactly_one_automorphic_variant(p in arb_pattern()) {
        let order = break_automorphisms(&p);
        let auts = automorphisms(&p);
        let n = p.num_vertices();
        // For a few distinct-rank assignments, exactly one automorphic
        // relabeling satisfies the order.
        let mut ranks: Vec<u32> = (0..n as u32).collect();
        for rot in 0..n {
            ranks.rotate_left(rot.max(1));
            let satisfying = auts
                .iter()
                .filter(|perm| {
                    let permuted: Vec<u32> =
                        (0..n).map(|v| ranks[perm[v] as usize]).collect();
                    order.satisfied_by(&permuted)
                })
                .count();
            prop_assert_eq!(satisfying, 1);
        }
    }

    #[test]
    fn psgl_matches_oracle_on_random_inputs(g in arb_graph(), p in arb_pattern()) {
        let expected = centralized::count(&g, &p);
        let config = PsglConfig::with_workers(2);
        let got = list_subgraphs(&g, &p, &config).unwrap().instance_count;
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn psgl_embedding_count_without_breaking(g in arb_graph(), p in arb_pattern()) {
        // Without automorphism breaking PSgL enumerates raw embeddings.
        let (embeddings, _) = centralized::count_embeddings_metered(&g, &p);
        let config = PsglConfig {
            break_automorphisms: false,
            ..PsglConfig::with_workers(2)
        };
        let got = list_subgraphs(&g, &p, &config).unwrap().instance_count;
        prop_assert_eq!(got, embeddings);
    }

    #[test]
    fn instance_count_is_seed_and_worker_invariant(
        g in arb_graph(),
        p in arb_pattern(),
        seed in any::<u64>(),
        workers in 1usize..6,
    ) {
        let a = list_subgraphs(&g, &p, &PsglConfig::with_workers(workers).seed(seed))
            .unwrap()
            .instance_count;
        let b = list_subgraphs(&g, &p, &PsglConfig::with_workers(1).seed(42))
            .unwrap()
            .instance_count;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn baselines_match_oracle_on_random_inputs(g in arb_graph(), p in arb_pattern()) {
        use psgl::baselines::{afrati, onehop, sgia};
        let expected = centralized::count(&g, &p);
        let af = afrati::run(&g, &p, 8, None).unwrap().instance_count;
        prop_assert_eq!(af, expected, "afrati");
        let sg = sgia::run(&g, &p, 3, None).unwrap().instance_count;
        prop_assert_eq!(sg, expected, "sgia");
        let oh = onehop::run(
            &g,
            &p,
            &onehop::OneHopConfig { order: onehop::natural_order(&p), intermediate_budget: None },
        )
        .unwrap()
        .instance_count;
        prop_assert_eq!(oh, expected, "onehop");
    }

    #[test]
    fn labeled_count_never_exceeds_unlabeled(
        g in arb_graph(),
        p in arb_pattern(),
        label_classes in 1u16..4,
    ) {
        // Labels assigned round-robin; labeled instances are a subset of
        // the unlabeled ones up to automorphism factors, so with a single
        // label class counts are equal and with more classes they can only
        // shrink or redistribute — the embedding total is bounded.
        let data_labels: Vec<u16> =
            (0..g.num_vertices() as u32).map(|v| (v % u32::from(label_classes)) as u16).collect();
        let pattern_labels: Vec<u16> =
            (0..p.num_vertices() as u32).map(|v| (v % u32::from(label_classes)) as u16).collect();
        let config = PsglConfig::with_workers(2);
        let shared =
            PsglShared::prepare_labeled(&g, &p, &config, data_labels, pattern_labels).unwrap();
        let labeled = list_subgraphs_prepared(&shared, &config).unwrap().instance_count;
        let (embeddings, _) = centralized::count_embeddings_metered(&g, &p);
        prop_assert!(labeled <= embeddings, "labeled {labeled} > embeddings {embeddings}");
        if label_classes == 1 {
            let unlabeled =
                list_subgraphs(&g, &p, &PsglConfig::with_workers(2)).unwrap().instance_count;
            prop_assert_eq!(labeled, unlabeled);
        }
    }

    #[test]
    fn binary_roundtrip_is_identity(g in arb_graph()) {
        let bytes = psgl::graph::binary::to_bytes(&g);
        let back = psgl::graph::binary::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
    }

    #[test]
    fn collected_instances_respect_pattern_edges_and_order(
        g in arb_graph(),
        p in arb_pattern(),
    ) {
        let config = PsglConfig::with_workers(2).collect(true);
        let result = list_subgraphs(&g, &p, &config).unwrap();
        let order = break_automorphisms(&p);
        let ranks = OrderedGraph::new(&g);
        for inst in result.instances.unwrap() {
            // Injective.
            let mut sorted = inst.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), p.num_vertices());
            // Every pattern edge present in the data graph.
            for (a, b) in p.edges() {
                prop_assert!(g.has_edge(inst[a as usize], inst[b as usize]));
            }
            // Partial order respected.
            for &(a, b) in order.constraints() {
                prop_assert!(ranks.less(inst[a as usize], inst[b as usize]));
            }
        }
    }
}

// Differential tests for the allocation-free expansion kernel: listing
// counts on random G(n,p) graphs must equal the sequential backtracking
// oracle for each fixture pattern, across worker counts (the hot-path
// rewrite must never change *what* is counted).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matches_oracle_on_gnp_fixture_patterns(
        n in 8usize..36,
        p_millis in 50u32..300,
        seed in any::<u64>(),
        workers in 1usize..5,
    ) {
        let p = f64::from(p_millis) / 1000.0;
        let g = psgl::graph::generators::erdos_renyi_gnp(n, p, seed).unwrap();
        for pattern in [
            psgl::pattern::catalog::triangle(),
            psgl::pattern::catalog::four_clique(),
            psgl::pattern::catalog::square(),
        ] {
            let expected = centralized::count(&g, &pattern);
            let got = list_subgraphs(&g, &pattern, &PsglConfig::with_workers(workers))
                .unwrap()
                .instance_count;
            prop_assert_eq!(got, expected, "{:?}", pattern);
        }
    }

    #[test]
    fn kernel_matches_oracle_on_sparse_gnp_for_max_size_cycle(
        n in 14usize..26,
        p_millis in 40u32..120,
        seed in any::<u64>(),
    ) {
        // cycle(12) exercises the engine's MAX_GPSI_VERTICES cap; sparse
        // G(n,p) keeps the oracle tractable while still finding instances
        // on a meaningful fraction of cases.
        let p = f64::from(p_millis) / 1000.0;
        let g = psgl::graph::generators::erdos_renyi_gnp(n, p, seed).unwrap();
        let pattern = psgl::pattern::catalog::cycle(12);
        let expected = centralized::count(&g, &pattern);
        let got = list_subgraphs(&g, &pattern, &PsglConfig::with_workers(3))
            .unwrap()
            .instance_count;
        prop_assert_eq!(got, expected);
    }
}
