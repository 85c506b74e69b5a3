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
//! centralized oracle's, and a listing must hold each of the oracle's
//! instances exactly once. The graphs are small because a hub's star count
//! grows as the fourth power of its degree: the word-boundary test keeps
//! the 132-spoke hub for the catalog's shapes. The same sweep over the 112
//! connected six-vertex patterns is `#[ignore]`d here and runs in release
//! in CI; tier-1 keeps the cheapest six-vertex pattern that gives a WHITE
//! slot two arena targets, which no smaller pattern does.

mod common;

use psgl::baselines::centralized;
use psgl::core::{list_subgraphs_prepared, PsglConfig, PsglShared};
use psgl::graph::{generators, DataGraph, VertexId};
use psgl::pattern::isomorphism::isomorphic;
use psgl::pattern::{Pattern, PatternVertex};

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

    /// Runs `p` from initial vertex `v`; returns the count and, when
    /// `collect`, the listed instances in canonical form, sorted.
    fn run(
        &self,
        p: &Pattern,
        v: PatternVertex,
        kernels: bool,
        collect: bool,
    ) -> (u64, Option<Vec<Vec<VertexId>>>) {
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
        (result.instance_count, listed)
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
fn sweep(patterns: &[Pattern]) {
    for case in cases() {
        for p in patterns {
            let oracle = case.oracle(p);
            for v in p.vertices() {
                for kernels in [true, false] {
                    for collect in [false, true] {
                        let context = format!(
                            "{}: pattern with edges {:?} from initial vertex {v}, \
                             kernels {kernels}, collect {collect}",
                            case.name,
                            p.edges().collect::<Vec<_>>()
                        );
                        let (count, listed) = case.run(p, v, kernels, collect);
                        assert_eq!(count, oracle.len() as u64, "{context}");
                        if let Some(listed) = listed {
                            assert!(listed == oracle, "{context}: listed instances differ");
                        }
                    }
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
    sweep(&by_size.concat());
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
    sweep(&[Pattern::new("K6 minus 3-5 and 4-5", 6, &edges).unwrap()]);
}

#[test]
#[ignore = "112 patterns: run in release (cargo test --release --test pattern_sweep -- --ignored)"]
fn every_connected_pattern_on_six_vertices_matches_the_oracle() {
    let patterns = connected_patterns(6);
    assert_eq!(patterns.len(), 112, "connected graphs on 6 vertices");
    sweep(&patterns);
}
