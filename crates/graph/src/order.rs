//! The *ordered graph* of Section 3.
//!
//! PSgL assigns the data graph a total order: `u < v` iff
//! `(deg(u), id(u)) < (deg(v), id(v))` lexicographically. For each vertex,
//! `nb` counts neighbors of smaller rank and `ns` neighbors of larger rank.
//! Property 1: the `nb` distribution is more skewed than the original degree
//! distribution while `ns` is more balanced — the fact Theorem 5's
//! initial-vertex rule exploits.

use crate::csr::{DataGraph, VertexId};

/// Total vertex order derived from `(degree, id)`, with the adjacency split
/// into its *oriented* halves: `forward(v)` holds the neighbors of larger
/// rank, `backward(v)` those of smaller rank, both id-sorted. The halves'
/// lengths are the `ns`/`nb` counts. A rank window that is one-sided
/// against a known endpoint can walk the matching half instead of the full
/// list and skip the per-element rank comparison — on a skewed graph that
/// is half the intersection volume of every windowed join.
#[derive(Clone, Debug)]
pub struct OrderedGraph {
    /// `rank[v]` = position of `v` in ascending `(degree, id)` order;
    /// ranks are a permutation of `0..n`.
    rank: Vec<u32>,
    /// CSR offsets into `fwd`; `fwd_off[v]..fwd_off[v + 1]` is `forward(v)`.
    fwd_off: Vec<u64>,
    /// Higher-rank neighbors, id-sorted per vertex (`ns(v)` entries each).
    fwd: Vec<VertexId>,
    /// CSR offsets into `bwd`; `bwd_off[v]..bwd_off[v + 1]` is `backward(v)`.
    bwd_off: Vec<u64>,
    /// Smaller-rank neighbors, id-sorted per vertex (`nb(v)` entries each).
    bwd: Vec<VertexId>,
}

impl OrderedGraph {
    /// Computes ranks and the oriented adjacency halves (whose lengths are
    /// the `nb`/`ns` split) for `g` in `O(n log n + m)`.
    pub fn new(g: &DataGraph) -> Self {
        let n = g.num_vertices();
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&v| (g.degree(v), v));
        let mut rank = vec![0u32; n];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Self::from_rank(rank, g)
    }

    /// Rebuilds the oriented halves (and with them the `nb`/`ns` split)
    /// against `g` while keeping this graph's rank permutation verbatim.
    ///
    /// Dynamic-graph epochs pin the total order at base construction
    /// (re-deriving it from mutated degrees would move canonical instance
    /// representatives and break incremental parity), but the oriented
    /// halves are *adjacency*, not order — they must always reflect the
    /// graph actually being listed. `g` must have the same vertex count
    /// the ranks were derived for.
    pub fn reorient(&self, g: &DataGraph) -> Self {
        assert_eq!(
            self.rank.len(),
            g.num_vertices(),
            "reorient requires the vertex set the ranks were built for"
        );
        Self::from_rank(self.rank.clone(), g)
    }

    /// Derives the oriented CSR halves of `g` under a fixed rank
    /// permutation in `O(n + m)`: each vertex's `ns`/`nb` counts go
    /// straight into the offset arrays, which a prefix sum then turns into
    /// offsets.
    fn from_rank(rank: Vec<u32>, g: &DataGraph) -> Self {
        let n = g.num_vertices();
        let mut fwd_off = vec![0u64; n + 1];
        let mut bwd_off = vec![0u64; n + 1];
        for v in g.vertices() {
            let rv = rank[v as usize];
            for &u in g.neighbors(v) {
                if rank[u as usize] < rv {
                    bwd_off[v as usize + 1] += 1;
                } else {
                    fwd_off[v as usize + 1] += 1;
                }
            }
        }
        for v in 0..n {
            fwd_off[v + 1] += fwd_off[v];
            bwd_off[v + 1] += bwd_off[v];
        }
        let mut fwd = vec![0 as VertexId; fwd_off[n] as usize];
        let mut bwd = vec![0 as VertexId; bwd_off[n] as usize];
        let mut fcur = fwd_off.clone();
        let mut bcur = bwd_off.clone();
        for v in g.vertices() {
            let rv = rank[v as usize];
            // `neighbors(v)` is id-sorted, so each filtered half stays
            // id-sorted without any extra sort.
            for &u in g.neighbors(v) {
                if rank[u as usize] < rv {
                    bwd[bcur[v as usize] as usize] = u;
                    bcur[v as usize] += 1;
                } else {
                    fwd[fcur[v as usize] as usize] = u;
                    fcur[v as usize] += 1;
                }
            }
        }
        OrderedGraph { rank, fwd_off, fwd, bwd_off, bwd }
    }

    /// Neighbors of `v` with larger rank, id-sorted.
    #[inline]
    pub fn forward(&self, v: VertexId) -> &[VertexId] {
        &self.fwd[self.fwd_off[v as usize] as usize..self.fwd_off[v as usize + 1] as usize]
    }

    /// Neighbors of `v` with smaller rank, id-sorted.
    #[inline]
    pub fn backward(&self, v: VertexId) -> &[VertexId] {
        &self.bwd[self.bwd_off[v as usize] as usize..self.bwd_off[v as usize + 1] as usize]
    }

    /// Rank of `v` (0 = smallest degree).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// Whether `u < v` in the total order.
    #[inline]
    pub fn less(&self, u: VertexId, v: VertexId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }

    /// Number of neighbors of `v` with smaller rank.
    #[inline]
    pub fn nb(&self, v: VertexId) -> u32 {
        (self.bwd_off[v as usize + 1] - self.bwd_off[v as usize]) as u32
    }

    /// Number of neighbors of `v` with larger rank.
    #[inline]
    pub fn ns(&self, v: VertexId) -> u32 {
        (self.fwd_off[v as usize + 1] - self.fwd_off[v as usize]) as u32
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Vertices in ascending rank order.
    pub fn vertices_by_rank(&self) -> Vec<VertexId> {
        let mut by_rank = vec![0 as VertexId; self.rank.len()];
        for (v, &r) in self.rank.iter().enumerate() {
            by_rank[r as usize] = v as VertexId;
        }
        by_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star: center 0 with leaves 1..=4.
    fn star() -> DataGraph {
        DataGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap()
    }

    #[test]
    fn rank_orders_by_degree_then_id() {
        let g = star();
        let o = OrderedGraph::new(&g);
        // Leaves (deg 1) rank below the center (deg 4); ties break by id.
        assert_eq!(o.rank(1), 0);
        assert_eq!(o.rank(2), 1);
        assert_eq!(o.rank(3), 2);
        assert_eq!(o.rank(4), 3);
        assert_eq!(o.rank(0), 4);
        assert!(o.less(1, 0));
        assert!(!o.less(0, 1));
    }

    #[test]
    fn nb_ns_split_sums_to_degree() {
        let g = star();
        let o = OrderedGraph::new(&g);
        for v in g.vertices() {
            assert_eq!(o.nb(v) + o.ns(v), g.degree(v));
        }
        // The center sees all leaves below it; leaves see the center above.
        assert_eq!(o.nb(0), 4);
        assert_eq!(o.ns(0), 0);
        assert_eq!(o.nb(1), 0);
        assert_eq!(o.ns(1), 1);
    }

    #[test]
    fn sum_nb_equals_sum_ns_equals_edge_count() {
        // Each edge contributes exactly one `nb` (at its larger end) and one
        // `ns` (at its smaller end): Σnb = Σns = |E|, used in Theorem 5.
        let g = DataGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)])
            .unwrap();
        let o = OrderedGraph::new(&g);
        let sum_nb: u64 = g.vertices().map(|v| u64::from(o.nb(v))).sum();
        let sum_ns: u64 = g.vertices().map(|v| u64::from(o.ns(v))).sum();
        assert_eq!(sum_nb, g.num_edges());
        assert_eq!(sum_ns, g.num_edges());
    }

    #[test]
    fn vertices_by_rank_is_inverse_permutation() {
        let g = star();
        let o = OrderedGraph::new(&g);
        let by_rank = o.vertices_by_rank();
        assert_eq!(by_rank, vec![1, 2, 3, 4, 0]);
        for (r, &v) in by_rank.iter().enumerate() {
            assert_eq!(o.rank(v) as usize, r);
        }
    }

    #[test]
    fn empty_graph_ordering() {
        let g = DataGraph::from_edges(0, &[]).unwrap();
        let o = OrderedGraph::new(&g);
        assert!(o.is_empty());
        assert_eq!(o.len(), 0);
        assert!(o.vertices_by_rank().is_empty());
    }
}
