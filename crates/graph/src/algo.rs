//! Classic graph algorithms used around the listing pipeline.
//!
//! These support the analyses the paper leans on: connected components
//! (the preprocessing drops isolated vertices; components bound where
//! instances can live), sorted-list searches, and the core decomposition
//! — the arboricity `α(G)` in Chiba–Nishizeki's `O(α(G)·m)` bound
//! satisfies `α(G) ≤ degeneracy + 1`, so [`core_decomposition`] gives a cheap complexity certificate for the
//! centralized baseline on a given graph.

use crate::csr::{DataGraph, VertexId};

/// Galloping (exponential) lower bound: the smallest index `i` in the
/// sorted slice `xs` with `xs[i] >= needle`, or `xs.len()`. Doubling probes
/// from the front make the cost `O(log i)` — cheap when the answer is near
/// where a previous probe left off, which is exactly the access pattern of
/// intersecting a short sorted list against a long CSR neighbor slice.
#[inline]
pub fn gallop_lower_bound(xs: &[VertexId], needle: VertexId) -> usize {
    if xs.is_empty() || xs[0] >= needle {
        return 0;
    }
    let mut hi = 1usize;
    while hi < xs.len() && xs[hi] < needle {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + xs[lo..xs.len().min(hi + 1)].partition_point(|&x| x < needle)
}

/// Whether every element of the sorted slice `needles` appears in the
/// sorted slice `haystack`, in one forward merge pass with galloping skips.
/// Replaces `needles.len()` independent binary searches over `haystack`
/// (the per-edge GRAY verification of Algorithm 2) with a single pass that
/// never re-reads the prefix it already consumed.
pub fn sorted_contains_all(haystack: &[VertexId], needles: &[VertexId]) -> bool {
    let mut rest = haystack;
    for &n in needles {
        let i = gallop_lower_bound(rest, n);
        if i == rest.len() || rest[i] != n {
            return false;
        }
        rest = &rest[i + 1..];
    }
    true
}

/// Connected components by iterative BFS. Returns `(labels, count)` where
/// `labels[v]` is a component id in `0..count` (numbered by discovery).
pub fn connected_components(g: &DataGraph) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue: Vec<VertexId> = Vec::new();
    for start in g.vertices() {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = count;
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &u in g.neighbors(v) {
                if labels[u as usize] == u32::MAX {
                    labels[u as usize] = count;
                    queue.push(u);
                }
            }
        }
        count += 1;
    }
    (labels, count as usize)
}

/// Core decomposition (Matula–Beck peeling in `O(n + m)`): returns
/// `(core_numbers, degeneracy)`. The degeneracy is the largest `k` such
/// that a non-empty `k`-core exists; it upper-bounds the arboricity
/// (`α(G) ≤ degeneracy`), which in turn drives the Chiba–Nishizeki
/// triangle-listing bound `O(α(G)·m)`.
pub fn core_decomposition(g: &DataGraph) -> (Vec<u32>, u32) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let max_deg = g.max_degree() as usize;
    // Bucket sort vertices by degree.
    let mut degree: Vec<u32> = g.vertices().map(|v| g.degree(v)).collect();
    let mut bins = vec![0usize; max_deg + 2];
    for &d in &degree {
        bins[d as usize + 1] += 1;
    }
    for i in 1..bins.len() {
        bins[i] += bins[i - 1];
    }
    let mut position = vec![0usize; n]; // vertex -> index in `sorted`
    let mut sorted = vec![0 as VertexId; n]; // peel order
    let mut cursor = bins.clone();
    for v in g.vertices() {
        let d = degree[v as usize] as usize;
        position[v as usize] = cursor[d];
        sorted[cursor[d]] = v;
        cursor[d] += 1;
    }
    // bin_start[d] = first index in `sorted` whose current degree is >= d.
    let mut bin_start = bins;
    let mut core = vec![0u32; n];
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = sorted[i];
        let dv = degree[v as usize];
        core[v as usize] = dv;
        degeneracy = degeneracy.max(dv);
        for &u in g.neighbors(v) {
            if degree[u as usize] > dv {
                // Move u one bucket down: swap it with the first vertex of
                // its current bucket, then shrink the bucket.
                let du = degree[u as usize] as usize;
                let pu = position[u as usize];
                let pw = bin_start[du];
                let w = sorted[pw];
                if u != w {
                    sorted.swap(pu, pw);
                    position[u as usize] = pw;
                    position[w as usize] = pu;
                }
                bin_start[du] += 1;
                degree[u as usize] -= 1;
            }
        }
    }
    (core, degeneracy)
}

/// Global clustering coefficient: `3·triangles / wedges` where a wedge is
/// an (unordered) path of length 2. Returns 0 for wedge-free graphs.
pub fn global_clustering_coefficient(g: &DataGraph, triangles: u64) -> f64 {
    let wedges: u64 = g
        .vertices()
        .map(|v| {
            let d = u64::from(g.degree(v));
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi_gnm;

    #[test]
    fn gallop_lower_bound_matches_partition_point() {
        let xs: Vec<VertexId> = vec![1, 3, 5, 7, 9, 11, 40, 41, 100];
        for needle in 0..105 {
            assert_eq!(
                gallop_lower_bound(&xs, needle),
                xs.partition_point(|&x| x < needle),
                "needle {needle}"
            );
        }
        assert_eq!(gallop_lower_bound(&[], 5), 0);
    }

    #[test]
    fn sorted_contains_all_cases() {
        let hay: Vec<VertexId> = (0..100).map(|i| i * 3).collect();
        assert!(sorted_contains_all(&hay, &[]));
        assert!(sorted_contains_all(&hay, &[0, 3, 297]));
        assert!(sorted_contains_all(&hay, &[99]));
        assert!(!sorted_contains_all(&hay, &[1]));
        assert!(!sorted_contains_all(&hay, &[0, 3, 298]));
        assert!(!sorted_contains_all(&[], &[7]));
        // Duplicate needles need duplicate haystack entries (CSR slices
        // are strictly increasing, so callers never hit this; the merge
        // semantics are still well-defined).
        assert!(!sorted_contains_all(&hay, &[3, 3]));
    }

    fn two_triangles() -> DataGraph {
        DataGraph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap()
    }

    #[test]
    fn components_found() {
        let g = two_triangles();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3); // two triangles + isolated vertex 6
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[6], labels[0]);
    }

    #[test]
    fn components_of_empty_graph() {
        let g = DataGraph::from_edges(0, &[]).unwrap();
        assert_eq!(connected_components(&g).1, 0);
    }

    #[test]
    fn core_numbers_of_clique_plus_tail() {
        // K4 on {0,1,2,3} plus tail 3-4-5.
        let g = DataGraph::from_edges(
            6,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
        )
        .unwrap();
        let (core, degeneracy) = core_decomposition(&g);
        assert_eq!(degeneracy, 3);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(core[4], 1);
        assert_eq!(core[5], 1);
    }

    #[test]
    fn core_decomposition_of_cycle_is_two() {
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (core, degeneracy) = core_decomposition(&g);
        assert_eq!(degeneracy, 2);
        assert!(core.iter().all(|&c| c == 2));
    }

    #[test]
    fn core_decomposition_handles_er_graph() {
        let g = erdos_renyi_gnm(200, 800, 9).unwrap();
        let (core, degeneracy) = core_decomposition(&g);
        assert_eq!(core.len(), 200);
        // Every core number is at most the degree and at most degeneracy.
        for v in g.vertices() {
            assert!(core[v as usize] <= g.degree(v));
            assert!(core[v as usize] <= degeneracy);
        }
        // The degeneracy core is non-empty.
        assert!(core.contains(&degeneracy));
    }

    #[test]
    fn clustering_coefficient_extremes() {
        // Triangle: 1 triangle, 3 wedges → coefficient 1.
        let g = DataGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(global_clustering_coefficient(&g, 1), 1.0);
        // Star: no triangles.
        let star = DataGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(global_clustering_coefficient(&star, 0), 0.0);
        // Edgeless.
        let empty = DataGraph::from_edges(2, &[]).unwrap();
        assert_eq!(global_clustering_coefficient(&empty, 0), 0.0);
    }
}
