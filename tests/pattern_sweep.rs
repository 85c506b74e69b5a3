//! Every connected pattern, from every initial vertex, against the oracle.
//!
//! The closing kernels pick their shape (Close or TwoHop, how many WHITE
//! slots, which aliases, rows and order sides) per partial instance, so a
//! handful of catalog shapes leaves most of their branches unreached. This
//! sweep enumerates every connected pattern on 3 to 5 vertices (29 of
//! them) and runs each from every initial vertex, with the kernels on and
//! off, counting and listing, on three graphs: a small Chung–Lu graph, a
//! planted hub (the builder of `cross_validation`'s word-boundary test, with
//! 20 spokes), and a graph with two labels. Counts must equal the
//! centralized oracle's, a listing must hold each of the oracle's
//! instances exactly once, and the counting and the listing run must agree
//! on every expansion counter: a count-only shortcut (a popcount, a sliced
//! wedge window, a counted wedge intersection) bumps each counter by what
//! the listing's walk bumps. The graphs are small because a hub's star count
//! grows as the fourth power of its degree: the word-boundary test keeps
//! the 132-spoke hub for the catalog's shapes, and the closing shapes get a
//! sweep of their own around a 68-spoke hub, whose universes span two mask
//! words. The same sweep over the 112 connected six-vertex patterns is
//! `#[ignore]`d here and runs in release in CI; tier-1 keeps the cheapest
//! six-vertex pattern that gives a WHITE slot two arena targets, which no
//! smaller pattern does.

mod common;

use psgl::baselines::centralized;
use psgl::core::{
    list_subgraphs, list_subgraphs_prepared, run, ExpandStats, Harvest, PsglConfig, PsglShared,
    RunRequest,
};
use psgl::delta::{DeltaGraph, DeltaQuery};
use psgl::graph::generators::EdgeBatch;
use psgl::graph::{generators, DataGraph, VertexId};
use psgl::pattern::isomorphism::isomorphic;
use psgl::pattern::{catalog, Pattern, PatternVertex};
use psgl::sim::fingerprint::fingerprint_run;

/// Every connected pattern on `k` vertices, one per isomorphism class: the
/// connected edge subsets of `K_k`, without isomorphic repeats.
fn connected_patterns(k: usize) -> Vec<Pattern> {
    let pairs: Vec<(PatternVertex, PatternVertex)> = (0..k as PatternVertex)
        .flat_map(|a| (a + 1..k as PatternVertex).map(move |b| (a, b)))
        .collect();
    let mut found: Vec<Pattern> = Vec::new();
    for subset in 1u32..1 << pairs.len() {
        let edges: Vec<_> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| subset >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        // `Pattern::new` rejects a disconnected edge set.
        let Ok(p) = Pattern::new(format!("K{k} subset {subset:#x}"), k, &edges) else { continue };
        if !found.iter().any(|q| isomorphic(q, &p)) {
            found.push(p);
        }
    }
    found
}

/// A graph to sweep, with its data labels (`None`: an unlabelled run).
/// Pattern vertex `v` of a labelled run gets label `v % 2`.
struct Case {
    name: &'static str,
    graph: DataGraph,
    labels: Option<Vec<u16>>,
}

impl Case {
    fn pattern_labels(p: &Pattern) -> Vec<u16> {
        (0..p.num_vertices() as u16).map(|v| v % 2).collect()
    }

    /// The oracle's instances, each as the sorted data edges it maps the
    /// pattern's edges to (the canonical form of [`centralized::list`]).
    /// A labelled run keeps the embeddings whose every vertex carries its
    /// pattern vertex's label.
    fn oracle(&self, p: &Pattern) -> Vec<Vec<VertexId>> {
        let Some(labels) = &self.labels else {
            let listed = centralized::list(&self.graph, p);
            assert_eq!(listed.len() as u64, centralized::count(&self.graph, p), "{}", self.name);
            return listed;
        };
        let want = Self::pattern_labels(p);
        let mut found = Vec::new();
        let mut steps = 0;
        centralized::for_each_embedding(&self.graph, p, &mut steps, &mut |m| {
            if m.iter().zip(&want).all(|(&d, &l)| labels[d as usize] == l) {
                found.push(canonical(p, m));
            }
        });
        found.sort_unstable();
        found.dedup();
        found
    }

    /// Runs `p` from initial vertex `v`; returns the count, the listed
    /// instances in canonical form, sorted, when `collect`, and the
    /// expansion counters.
    fn run(
        &self,
        p: &Pattern,
        v: PatternVertex,
        kernels: bool,
        collect: bool,
    ) -> (u64, Option<Vec<Vec<VertexId>>>, ExpandStats) {
        let config = PsglConfig::with_workers(2).init_vertex(v).kernels(kernels).collect(collect);
        let shared = match &self.labels {
            None => PsglShared::prepare(&self.graph, p, &config),
            Some(labels) => PsglShared::prepare_labeled(
                &self.graph,
                p,
                &config,
                labels.clone(),
                Self::pattern_labels(p),
            ),
        }
        .unwrap();
        let result = list_subgraphs_prepared(&shared, &config).unwrap();
        let listed = result.instances.map(|tuples| {
            let mut listed: Vec<_> = tuples.iter().map(|t| canonical(p, t)).collect();
            listed.sort_unstable();
            listed
        });
        (result.instance_count, listed, result.stats.expand)
    }
}

/// The sorted data edges a tuple maps `p`'s edges to, flattened.
fn canonical(p: &Pattern, tuple: &[VertexId]) -> Vec<VertexId> {
    let mut pairs: Vec<(VertexId, VertexId)> = p
        .edges()
        .map(|(a, b)| {
            let (x, y) = (tuple[a as usize], tuple[b as usize]);
            (x.min(y), x.max(y))
        })
        .collect();
    pairs.sort_unstable();
    pairs.into_iter().flat_map(|(x, y)| [x, y]).collect()
}

fn cases() -> Vec<Case> {
    let labelled = generators::chung_lu(60, 4.0, 2.2, 17).unwrap();
    let labels = (0..labelled.num_vertices() as u32).map(|v| (v * 7 / 3 % 2) as u16).collect();
    vec![
        Case {
            name: "chung_lu",
            graph: generators::chung_lu(50, 4.0, 2.2, 29).unwrap(),
            labels: None,
        },
        Case { name: "planted hub", graph: common::planted_hub(20), labels: None },
        Case { name: "two labels", graph: labelled, labels: Some(labels) },
    ]
}

/// Every pattern from every initial vertex, kernels on and off, counting
/// and listing, on every case.
fn sweep(cases: &[Case], patterns: &[Pattern]) {
    for case in cases {
        for p in patterns {
            let oracle = case.oracle(p);
            for v in p.vertices() {
                for kernels in [true, false] {
                    let context = format!(
                        "{}: pattern with edges {:?} from initial vertex {v}, kernels {kernels}",
                        case.name,
                        p.edges().collect::<Vec<_>>()
                    );
                    let (count, _, counted) = case.run(p, v, kernels, false);
                    assert_eq!(count, oracle.len() as u64, "{context}, counting");
                    let (count, listed, walked) = case.run(p, v, kernels, true);
                    assert_eq!(count, oracle.len() as u64, "{context}, listing");
                    assert!(listed.as_ref() == Some(&oracle), "{context}: listed instances differ");
                    assert_eq!(walked, counted, "{context}: listing and counting disagree");
                }
            }
        }
    }
}

#[test]
fn every_connected_pattern_on_three_to_five_vertices_matches_the_oracle() {
    let by_size: Vec<Vec<Pattern>> = (3..=5).map(connected_patterns).collect();
    assert_eq!(
        by_size.iter().map(Vec::len).collect::<Vec<_>>(),
        [2, 6, 21],
        "connected graphs on 3, 4 and 5 vertices"
    );
    sweep(&cases(), &by_size.concat());
}

/// `K6` without the edges `3-5` and `4-5`: a closing expansion filters a
/// WHITE slot's arena against two mapped pattern neighbours at once. Of
/// the six-vertex patterns that do, it is the cheapest to sweep; an arena
/// that checks only its first target passes every smaller pattern and
/// fails this one.
#[test]
fn a_six_vertex_pattern_with_two_arena_targets_matches_the_oracle() {
    let k6 = (0..6).flat_map(|a| (a + 1..6).map(move |b| (a, b)));
    let edges: Vec<_> = k6.filter(|&e| e != (3, 5) && e != (4, 5)).collect();
    sweep(&cases(), &[Pattern::new("K6 minus 3-5 and 4-5", 6, &edges).unwrap()]);
}

/// The closing shapes around a hub of 68 spokes: an expansion of the hub
/// binds over a universe of two mask words, and a clique's or a diamond's
/// cached rows span both. The 20-spoke hub of [`cases`] fits one word.
#[test]
fn closing_shapes_around_a_hub_beyond_one_mask_word_match_the_oracle() {
    let hub =
        Case { name: "planted hub of 68 spokes", graph: common::planted_hub(68), labels: None };
    let diamond = Pattern::new("diamond", 4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
    let (k4, k5, tailed) = (catalog::clique(4), catalog::clique(5), catalog::tailed_triangle());
    sweep(&[hub], &[k4, k5, diamond, tailed]);
}

/// The 4-leaf star around the same hub: its hub expansion binds three
/// odometer levels over two mask words and counts each prefix's survivors
/// as a popcount across both. The hub alone centres C(68, 4) = 814 385
/// stars, too many for the oracle's listing, so a listing is held to the
/// oracle's count by its distinct instances, each a star of the graph, and
/// to the counting run by every expansion counter. About 10 s in release;
/// a debug build skips it.
#[test]
#[cfg_attr(debug_assertions, ignore = "814 385 stars: run in release")]
fn a_four_leaf_star_around_a_hub_beyond_one_mask_word_matches_the_oracle() {
    let hub =
        Case { name: "planted hub of 68 spokes", graph: common::planted_hub(68), labels: None };
    let star = catalog::star(4);
    let expected = centralized::count(&hub.graph, &star);
    for v in star.vertices() {
        for kernels in [true, false] {
            let context = format!("4-leaf star from initial vertex {v}, kernels {kernels}");
            let (count, _, counted) = hub.run(&star, v, kernels, false);
            assert_eq!(count, expected, "{context}, counting");
            let (count, listed, walked) = hub.run(&star, v, kernels, true);
            assert_eq!(count, expected, "{context}, listing");
            assert_eq!(walked, counted, "{context}: listing and counting disagree");
            // An instance in canonical form is its four data edges: each an
            // edge of the graph, five distinct vertices in all.
            let mut listed = listed.expect("collect(true) keeps the tuples");
            let is_star = |edges: &Vec<VertexId>| {
                let mut ends = edges.clone();
                ends.sort_unstable();
                ends.dedup();
                ends.len() == 5 && edges.chunks(2).all(|e| hub.graph.has_edge(e[0], e[1]))
            };
            assert!(listed.iter().all(is_star), "{context}: a listed tuple is not a star");
            listed.dedup();
            assert_eq!(listed.len() as u64, expected, "{context}: distinct instances");
        }
    }
}

#[test]
#[ignore = "112 patterns: run in release (cargo test --release --test pattern_sweep -- --ignored)"]
fn every_connected_pattern_on_six_vertices_matches_the_oracle() {
    let patterns = connected_patterns(6);
    assert_eq!(patterns.len(), 112, "connected graphs on 6 vertices");
    sweep(&cases(), &patterns);
}

/// Runs `p` from initial vertex `v`, kernels off, under one of the three
/// harvests: counting, listing or per-vertex tallies.
fn run_harvest(
    shared: &PsglShared<'_>,
    v: PatternVertex,
    harvest: &str,
) -> psgl::core::ListingResult {
    let config = PsglConfig::with_workers(2).init_vertex(v).kernels(false);
    let (config, harvest) = match harvest {
        "count" => (config, Harvest::Listing),
        "list" => (config.collect(true), Harvest::Listing),
        _ => (config, Harvest::PerVertex),
    };
    run(shared, &config, RunRequest { harvest, ..Default::default() }).unwrap().completed()
}

/// With the kernels off, an unlabelled run whose ranks follow degree fills
/// each WHITE slot from its rank window in `v_d`'s rank-sorted list and
/// charges the counters arithmetically; a labelled run walks `N(v_d)` and
/// checks each candidate. A run in which every data vertex and every
/// pattern vertex carry the same label walks, yet no label can reject a
/// candidate, so it is an exact oracle for the window: both runs must
/// agree on every expansion counter (`pruned_label` is 0 on both), on the
/// messages of every superstep, on the run's fingerprint (per-worker cost
/// and local deliveries, which follow the order Gpsis are generated in,
/// since each distributor choice depends on the choices before it), and
/// on the instances, under all three harvests. The patterns are every
/// connected one on three to five vertices, from every initial vertex,
/// whose WHITE slots take degree bounds of 1 to 4, over the sweep's two
/// unlabelled graphs; and the catalog's small shapes around a hub of 212
/// spokes, whose rank windows cut long lists.
#[test]
fn the_rank_window_charges_and_generates_what_the_walk_does() {
    let hub = common::planted_hub(212);
    let small = [catalog::path(3), catalog::square(), catalog::tailed_triangle()];
    let diamond = Pattern::new("diamond", 4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
    let around_hub = [small.as_slice(), &[catalog::four_clique(), diamond]].concat();
    let swept: Vec<Pattern> = (3..=5).flat_map(connected_patterns).collect();
    let unlabelled = cases().into_iter().filter(|case| case.labels.is_none());
    let hub = ("planted hub of 212 spokes", hub, around_hub);
    let graphs = unlabelled.map(|case| (case.name, case.graph, swept.clone())).chain([hub]);
    let mut bounds = [0u64; 5];
    for (name, graph, patterns) in graphs {
        for p in &patterns {
            let np = p.num_vertices();
            for v in p.vertices() {
                p.vertices().filter(|&w| w != v).for_each(|w| bounds[p.degree(w) as usize] += 1);
                let config = PsglConfig::with_workers(2).init_vertex(v).kernels(false);
                let window = PsglShared::prepare(&graph, p, &config).unwrap();
                let uniform = vec![0u16; graph.num_vertices()];
                let walk =
                    PsglShared::prepare_labeled(&graph, p, &config, uniform, vec![0; np]).unwrap();
                for harvest in ["count", "list", "per-vertex"] {
                    let context = format!(
                        "{name}: pattern with edges {:?} from initial vertex {v}, {harvest}",
                        p.edges().collect::<Vec<_>>()
                    );
                    let (a, b) = (run_harvest(&window, v, harvest), run_harvest(&walk, v, harvest));
                    assert_eq!(a.stats.expand, b.stats.expand, "{context}: counters");
                    assert_eq!(a.stats.expand.pruned_label, 0, "{context}");
                    let sent = |r: &psgl::core::ListingResult| {
                        let s = &r.stats;
                        (s.messages_out_per_superstep.clone(), s.messages_in_per_superstep.clone())
                    };
                    assert_eq!(sent(&a), sent(&b), "{context}: messages per superstep");
                    assert_eq!(a.instance_count, b.instance_count, "{context}");
                    assert_eq!(a.instances, b.instances, "{context}: instances");
                    assert_eq!(a.per_vertex, b.per_vertex, "{context}: per-vertex tallies");
                    assert_eq!(fingerprint_run(&a), fingerprint_run(&b), "{context}: fingerprint");
                }
            }
        }
    }
    assert!(bounds[1..=3].iter().all(|&n| n > 0), "degree bounds 1, 2, 3 reached: {bounds:?}");
}

/// A delta epoch keeps the ranks of the graph it was compacted from, so
/// after a batch that lifts low-degree vertices past hubs its ranks no
/// longer follow degree (`degree_sorted()` is false), and the kernels-off
/// expansion walks `N(v_d)` instead of cutting rank windows. The epoch's
/// full listing, and the previous listing patched with the batch's signed
/// delta, must both equal a scratch recompute on a freshly ordered graph,
/// which takes the rank windows.
#[test]
fn a_delta_epoch_whose_ranks_stopped_following_degree_walks_to_the_same_instances() {
    let base = generators::chung_lu(200, 5.0, 2.0, 23).unwrap();
    let mut dg = DeltaGraph::new(base.clone(), 10, usize::MAX);
    let lowest = dg.artifacts().ordered.vertices_by_rank()[..4].to_vec();
    let insert: Vec<(VertexId, VertexId)> = lowest
        .iter()
        .flat_map(|&u| (0..40).map(move |i| (u, (u + 1 + i * 3) % 200)))
        .filter(|&(u, w)| u != w && !base.has_edge(u, w))
        .collect();
    let config = PsglConfig::with_workers(2).kernels(false);
    let patterns =
        [catalog::triangle(), catalog::square(), catalog::tailed_triangle(), catalog::house()];
    let queries: Vec<DeltaQuery> =
        patterns.iter().map(|p| DeltaQuery::new(p, &config).unwrap()).collect();
    let views: Vec<_> = queries.iter().map(|q| q.full(dg.artifacts()).unwrap()).collect();
    let pre = dg.artifacts().clone();
    let out = dg.apply(&EdgeBatch { insert, delete: Vec::new() }).unwrap();
    let post = dg.artifacts();
    assert!(!out.compacted && !post.ordered.degree_sorted(), "the epoch's ranks follow degree");
    // The two orders break automorphisms at different representatives, so
    // instances compare in canonical form.
    let canonical_sorted = |p: &Pattern, tuples: &[Vec<VertexId>]| {
        let mut listed: Vec<_> = tuples.iter().map(|t| canonical(p, t)).collect();
        listed.sort_unstable();
        listed
    };
    for ((p, query), view) in patterns.iter().zip(&queries).zip(views) {
        let scratch = list_subgraphs(&post.graph, p, &config.clone().collect(true)).unwrap();
        let scratch = canonical_sorted(p, &scratch.instances.unwrap());
        let full = query.full(post).unwrap();
        assert_eq!(canonical_sorted(p, &full), scratch, "{}: the epoch's listing", p.name());
        let delta = query.delta(&pre, post, &out.inserted, &out.deleted).unwrap();
        let patched = delta.patched(&view);
        assert_eq!(canonical_sorted(p, &patched), scratch, "{}: the patched listing", p.name());
        assert!(delta.count_delta() > 0, "{}: the batch made no instance", p.name());
    }
}
