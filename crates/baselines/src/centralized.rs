//! Centralized (single-threaded) subgraph enumeration.
//!
//! Two classic algorithms:
//!
//! - a backtracking embedding enumerator in the style the centralized
//!   literature uses (Section 2's "enumerate the subgraph instances one by
//!   one"); instances are derived as `embeddings / |Aut(Gp)|`, which is
//!   deliberately *independent* of the automorphism-breaking partial
//!   orders PSgL relies on — making this the trustworthy oracle for the
//!   whole workspace;
//! - Chiba & Nishizeki's degree-ordered triangle listing (the `O(α(G)·m)`
//!   edge-searching strategy cited in Section 2), standing in for the
//!   specialized triangle systems of Table 3 (GraphChi runs exactly this
//!   kind of algorithm per shard).

use psgl_graph::{DataGraph, OrderedGraph, VertexId};
use psgl_pattern::automorphism::automorphisms;
use psgl_pattern::{Pattern, PatternVertex};

/// Counts *embeddings* (injective mappings preserving pattern edges,
/// non-induced) of `p` in `g`, returning `(count, steps)` where `steps`
/// meters candidate checks for cost comparisons.
pub fn count_embeddings_metered(g: &DataGraph, p: &Pattern) -> (u64, u64) {
    let order = matching_order(p);
    let np = p.num_vertices();
    let mut mapping: Vec<VertexId> = vec![VertexId::MAX; np];
    let mut count = 0u64;
    let mut steps = 0u64;
    // Root choices: every data vertex with sufficient degree.
    let root = order[0];
    for v in g.vertices() {
        steps += 1;
        if g.degree(v) >= p.degree(root) {
            mapping[root as usize] = v;
            extend(g, p, &order, 1, &mut mapping, &mut count, &mut steps);
            mapping[root as usize] = VertexId::MAX;
        }
    }
    (count, steps)
}

fn extend(
    g: &DataGraph,
    p: &Pattern,
    order: &[PatternVertex],
    depth: usize,
    mapping: &mut Vec<VertexId>,
    count: &mut u64,
    steps: &mut u64,
) {
    if depth == order.len() {
        *count += 1;
        return;
    }
    let vp = order[depth];
    // Pick the mapped pattern neighbor with the smallest data degree as the
    // candidate source (standard candidate-minimization).
    let parent = p
        .neighbors(vp)
        .filter(|&u| mapping[u as usize] != VertexId::MAX)
        .min_by_key(|&u| g.degree(mapping[u as usize]))
        .expect("matching order keeps the prefix connected");
    let parent_vd = mapping[parent as usize];
    'cand: for &cand in g.neighbors(parent_vd) {
        *steps += 1;
        if g.degree(cand) < p.degree(vp) || mapping.contains(&cand) {
            continue;
        }
        for u in p.neighbors(vp) {
            let ud = mapping[u as usize];
            if ud != VertexId::MAX && u != parent && !g.has_edge(cand, ud) {
                continue 'cand;
            }
        }
        mapping[vp as usize] = cand;
        extend(g, p, order, depth + 1, mapping, count, steps);
        mapping[vp as usize] = VertexId::MAX;
    }
}

/// A connected matching order starting from a highest-degree pattern
/// vertex, preferring vertices with many already-ordered neighbors.
fn matching_order(p: &Pattern) -> Vec<PatternVertex> {
    let np = p.num_vertices();
    let mut order = Vec::with_capacity(np);
    let mut placed = 0u32;
    let first = p.vertices().max_by_key(|&v| p.degree(v)).unwrap();
    order.push(first);
    placed |= 1 << first;
    while order.len() < np {
        let next = p
            .vertices()
            .filter(|&v| (placed >> v) & 1 == 0)
            .max_by_key(|&v| {
                let back = (p.neighbor_mask(v) & placed).count_ones();
                (back, p.degree(v))
            })
            .unwrap();
        debug_assert!(p.neighbor_mask(next) & placed != 0, "pattern is connected");
        order.push(next);
        placed |= 1 << next;
    }
    order
}

/// Streams all *embeddings* (not instances) of `p` in `g` to `visit`,
/// metering candidate checks into `steps`. Used by the Afrati reducers,
/// whose exactly-once ownership rule filters raw embeddings — streaming
/// keeps a hub reducer from materializing its (possibly enormous)
/// embedding set.
pub fn for_each_embedding(
    g: &DataGraph,
    p: &Pattern,
    steps: &mut u64,
    visit: &mut dyn FnMut(&[VertexId]),
) {
    let order = matching_order(p);
    let np = p.num_vertices();
    let mut mapping: Vec<VertexId> = vec![VertexId::MAX; np];
    let root = order[0];
    for v in g.vertices() {
        *steps += 1;
        if g.degree(v) >= p.degree(root) {
            mapping[root as usize] = v;
            stream_extend(g, p, &order, 1, &mut mapping, steps, visit);
            mapping[root as usize] = VertexId::MAX;
        }
    }
}

fn stream_extend(
    g: &DataGraph,
    p: &Pattern,
    order: &[PatternVertex],
    depth: usize,
    mapping: &mut Vec<VertexId>,
    steps: &mut u64,
    visit: &mut dyn FnMut(&[VertexId]),
) {
    if depth == order.len() {
        visit(mapping);
        return;
    }
    let vp = order[depth];
    let parent = p
        .neighbors(vp)
        .filter(|&u| mapping[u as usize] != VertexId::MAX)
        .min_by_key(|&u| g.degree(mapping[u as usize]))
        .expect("matching order keeps the prefix connected");
    let parent_vd = mapping[parent as usize];
    'cand: for &cand in g.neighbors(parent_vd) {
        *steps += 1;
        if g.degree(cand) < p.degree(vp) || mapping.contains(&cand) {
            continue;
        }
        for u in p.neighbors(vp) {
            let ud = mapping[u as usize];
            if ud != VertexId::MAX && u != parent && !g.has_edge(cand, ud) {
                continue 'cand;
            }
        }
        mapping[vp as usize] = cand;
        stream_extend(g, p, order, depth + 1, mapping, steps, visit);
        mapping[vp as usize] = VertexId::MAX;
    }
}

/// Counts subgraph *instances* of `p` in `g`: embeddings divided by the
/// automorphism-group order.
pub fn count(g: &DataGraph, p: &Pattern) -> u64 {
    let (embeddings, _) = count_embeddings_metered(g, p);
    let aut = automorphisms(p).len() as u64;
    debug_assert_eq!(embeddings % aut, 0, "embeddings must split into automorphism classes");
    embeddings / aut
}

/// Lists subgraph instances as canonical vertex sets (sorted tuples); for
/// tests and small graphs only — the result set is exponential.
pub fn list(g: &DataGraph, p: &Pattern) -> Vec<Vec<VertexId>> {
    let order = matching_order(p);
    let np = p.num_vertices();
    let mut mapping: Vec<VertexId> = vec![VertexId::MAX; np];
    let mut out: Vec<Vec<VertexId>> = Vec::new();
    let root = order[0];
    let mut steps = 0u64;
    for v in g.vertices() {
        if g.degree(v) >= p.degree(root) {
            mapping[root as usize] = v;
            list_extend(g, p, &order, 1, &mut mapping, &mut out, &mut steps);
            mapping[root as usize] = VertexId::MAX;
        }
    }
    // Canonicalize: embeddings of one instance share a vertex *multiset*,
    // but two distinct instances may share a vertex set only if they use
    // different edges — impossible for non-induced matching of a fixed
    // pattern? It is possible (e.g. a square 0-1-2-3 vs 0-2-1-3 in K4), so
    // canonicalize by the sorted *edge list* of the mapped pattern.
    let mut canon: Vec<Vec<VertexId>> = out
        .iter()
        .map(|m| {
            let mut edges: Vec<VertexId> = Vec::with_capacity(p.num_edges() * 2);
            let mut pairs: Vec<(VertexId, VertexId)> = p
                .edges()
                .map(|(a, b)| {
                    let (x, y) = (m[a as usize], m[b as usize]);
                    (x.min(y), x.max(y))
                })
                .collect();
            pairs.sort_unstable();
            for (x, y) in pairs {
                edges.push(x);
                edges.push(y);
            }
            edges
        })
        .collect();
    canon.sort();
    canon.dedup();
    canon
}

fn list_extend(
    g: &DataGraph,
    p: &Pattern,
    order: &[PatternVertex],
    depth: usize,
    mapping: &mut Vec<VertexId>,
    out: &mut Vec<Vec<VertexId>>,
    steps: &mut u64,
) {
    if depth == order.len() {
        out.push(mapping.clone());
        return;
    }
    let vp = order[depth];
    let parent = p
        .neighbors(vp)
        .filter(|&u| mapping[u as usize] != VertexId::MAX)
        .min_by_key(|&u| g.degree(mapping[u as usize]))
        .unwrap();
    let parent_vd = mapping[parent as usize];
    'cand: for &cand in g.neighbors(parent_vd) {
        *steps += 1;
        if g.degree(cand) < p.degree(vp) || mapping.contains(&cand) {
            continue;
        }
        for u in p.neighbors(vp) {
            let ud = mapping[u as usize];
            if ud != VertexId::MAX && u != parent && !g.has_edge(cand, ud) {
                continue 'cand;
            }
        }
        mapping[vp as usize] = cand;
        list_extend(g, p, order, depth + 1, mapping, out, steps);
        mapping[vp as usize] = VertexId::MAX;
    }
}

/// Chiba–Nishizeki-style triangle counting on the degree-ordered graph:
/// for each edge `(u, v)` with `rank(u) < rank(v)`, intersect the
/// lower-ranked neighborhoods. `O(α(G)·m)` in the arboricity `α`.
pub fn count_triangles(g: &DataGraph) -> u64 {
    let order = OrderedGraph::new(g);
    let n = g.num_vertices();
    // forward[v] = neighbors of v with smaller rank, discovered so far.
    let mut forward: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut count = 0u64;
    let mut smaller: Vec<VertexId> = Vec::new();
    for &v in order.vertices_by_rank() {
        // Lower-ranked neighbors must be processed in ascending rank order:
        // a triangle x < u < v is found at edge (u, v) only if x already
        // entered forward[v] via the earlier edge (x, v).
        smaller.clear();
        smaller.extend(g.neighbors(v).iter().copied().filter(|&u| order.less(u, v)));
        smaller.sort_unstable_by_key(|&u| order.rank(u));
        for &u in &smaller {
            // Triangles closing through common forward neighbors.
            count += intersection_size(&forward[u as usize], &forward[v as usize]);
            forward[v as usize].push(u);
        }
    }
    count
}

fn intersection_size(a: &[VertexId], b: &[VertexId]) -> u64 {
    // Forward lists are built in rank order, hence sorted by rank — but we
    // need set intersection; lists are small (≤ arboricity), so a merge
    // over sorted-by-value copies is overkill: use the smaller as probe.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().filter(|x| large.contains(x)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_pattern::catalog;

    fn k4() -> DataGraph {
        DataGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn k4_counts() {
        let g = k4();
        assert_eq!(count(&g, &catalog::triangle()), 4);
        assert_eq!(count(&g, &catalog::square()), 3);
        assert_eq!(count(&g, &catalog::four_clique()), 1);
        assert_eq!(count(&g, &catalog::tailed_triangle()), 12);
        assert_eq!(count(&g, &catalog::path(2)), 6);
        assert_eq!(count(&g, &catalog::path(3)), 12);
    }

    #[test]
    fn k5_counts() {
        let g = DataGraph::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        )
        .unwrap();
        assert_eq!(count(&g, &catalog::triangle()), 10); // C(5,3)
        assert_eq!(count(&g, &catalog::four_clique()), 5); // C(5,4)
        assert_eq!(count(&g, &catalog::clique(5)), 1);
        assert_eq!(count(&g, &catalog::square()), 15); // C(5,4)*3
        assert_eq!(count(&g, &catalog::cycle(5)), 12); // 4!/2
    }

    #[test]
    fn triangle_fast_path_matches_generic() {
        let g = erdos_renyi_gnm(300, 2_000, 21).unwrap();
        assert_eq!(count_triangles(&g), count(&g, &catalog::triangle()));
    }

    #[test]
    fn triangle_free_graph() {
        // A cycle of length 6 has no triangles, no 4-cliques, one 6-cycle.
        let g =
            DataGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert_eq!(count_triangles(&g), 0);
        assert_eq!(count(&g, &catalog::triangle()), 0);
        assert_eq!(count(&g, &catalog::cycle(6)), 1);
        assert_eq!(count(&g, &catalog::path(3)), 6);
    }

    #[test]
    fn list_canonicalizes_distinct_instances() {
        let g = k4();
        // Squares in K4: 3 distinct edge sets over the same 4 vertices.
        let squares = list(&g, &catalog::square());
        assert_eq!(squares.len(), 3);
        let triangles = list(&g, &catalog::triangle());
        assert_eq!(triangles.len(), 4);
    }

    #[test]
    fn house_on_crafted_graph() {
        let g =
            DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (4, 2)]).unwrap();
        assert_eq!(count(&g, &catalog::house()), 1);
    }

    #[test]
    fn metered_steps_grow_with_graph_size() {
        let small = erdos_renyi_gnm(50, 150, 2).unwrap();
        let large = erdos_renyi_gnm(500, 1_500, 2).unwrap();
        let (_, s1) = count_embeddings_metered(&small, &catalog::triangle());
        let (_, s2) = count_embeddings_metered(&large, &catalog::triangle());
        assert!(s2 > s1);
    }
}
