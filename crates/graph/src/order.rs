//! The *ordered graph* of Section 3.
//!
//! PSgL assigns the data graph a total order: `u < v` iff
//! `(deg(u), id(u)) < (deg(v), id(v))` lexicographically. For each vertex,
//! `nb` counts neighbors of smaller rank and `ns` neighbors of larger rank.
//! Property 1: the `nb` distribution is more skewed than the original degree
//! distribution while `ns` is more balanced — the fact Theorem 5's
//! initial-vertex rule exploits.
//!
//! Every automorphism-breaking constraint (Section 5.2.1) is a comparison
//! of ranks, so [`OrderedGraph`] also keeps the adjacency in *rank space*:
//! vertex `v` appears as `rank(v)`, and each list holds neighbour ranks in
//! ascending order. A rank window is then a sub-slice, and the `nb`/`ns`
//! halves are the two sides of one split point.

use crate::csr::{DataGraph, VertexId};

/// Total vertex order derived from `(degree, id)`, with the adjacency
/// stored a second time in *rank space*: there a vertex is named by its
/// rank, and `neighbors_of_rank(r)` holds its neighbours' ranks in
/// ascending order. Because the list is sorted by rank, it splits at one
/// point into the lower-rank neighbours (`lower_of_rank`, `nb` of them)
/// and the higher-rank ones (`higher_of_rank`, `ns`), and any rank window
/// `[lo, hi)` is a sub-slice found by two binary searches. The closing
/// kernels (`psgl-core`'s `kernel.rs`) work in this space; everything that
/// leaves them (Gpsis, messages, placement) keeps original ids, crossing
/// back through [`Self::vertex`].
///
/// The rank-space accessors are named `*_of_rank` and take a rank; the
/// id-space ones (`rank`, `less`, `nb`, `ns`) take a vertex id.
#[derive(Clone, Debug)]
pub struct OrderedGraph {
    /// `rank[v]` = position of `v` in ascending `(degree, id)` order;
    /// ranks are a permutation of `0..n`.
    rank: Vec<u32>,
    /// `by_rank[r]` = the vertex of rank `r` (the inverse of `rank`).
    by_rank: Vec<VertexId>,
    /// CSR offsets over ranks: `offsets[r]..offsets[r + 1]` indexes
    /// `adjacency` for the vertex of rank `r`.
    offsets: Vec<u64>,
    /// Neighbour ranks, ascending per list.
    adjacency: Vec<u32>,
    /// `split[r]` = how many of rank `r`'s neighbours rank below it: the
    /// list's first `split[r]` entries are `lower_of_rank(r)`.
    split: Vec<u32>,
}

impl OrderedGraph {
    /// Computes ranks and the rank-space adjacency for `g` in
    /// `O(n log n + m)`.
    pub fn new(g: &DataGraph) -> Self {
        let n = g.num_vertices();
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&v| (g.degree(v), v));
        Self::from_by_rank(by_rank, g)
    }

    /// Rebuilds the rank-space adjacency (and with it the `nb`/`ns` split)
    /// against `g` while keeping this graph's rank permutation verbatim.
    ///
    /// Dynamic-graph epochs pin the total order at base construction
    /// (re-deriving it from mutated degrees would move canonical instance
    /// representatives and break incremental parity), but the adjacency
    /// must always reflect the graph actually being listed. After this,
    /// degree is no longer monotone in rank. `g` must have the same vertex
    /// count the ranks were derived for.
    pub fn reorient(&self, g: &DataGraph) -> Self {
        assert_eq!(
            self.rank.len(),
            g.num_vertices(),
            "reorient requires the vertex set the ranks were built for"
        );
        Self::from_by_rank(self.by_rank.clone(), g)
    }

    /// Builds the rank-space CSR of `g` under a fixed order in `O(n + m)`
    /// with one scatter: ranks are visited in ascending order and each is
    /// appended to its neighbours' lists, so every list comes out sorted
    /// without a sort. When rank `r` is reached, exactly its lower-rank
    /// neighbours have been appended to its own list, which is its split.
    fn from_by_rank(by_rank: Vec<VertexId>, g: &DataGraph) -> Self {
        let n = g.num_vertices();
        let mut rank = vec![0u32; n];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let mut offsets = vec![0u64; n + 1];
        for (r, &v) in by_rank.iter().enumerate() {
            offsets[r + 1] = offsets[r] + u64::from(g.degree(v));
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets[..n].to_vec();
        let mut split = vec![0u32; n];
        for (r, &v) in by_rank.iter().enumerate() {
            split[r] = (cursor[r] - offsets[r]) as u32;
            for &u in g.neighbors(v) {
                let ru = rank[u as usize] as usize;
                adjacency[cursor[ru] as usize] = r as u32;
                cursor[ru] += 1;
            }
        }
        OrderedGraph { rank, by_rank, offsets, adjacency, split }
    }

    /// Rank of `v` (0 = smallest degree).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// The id → rank array (`ranks()[v] == rank(v)`): where a batch of
    /// ids crosses into rank space.
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The vertex of rank `r`: where rank space crosses back to ids.
    #[inline]
    pub fn vertex(&self, r: u32) -> VertexId {
        self.by_rank[r as usize]
    }

    /// Whether `u < v` in the total order.
    #[inline]
    pub fn less(&self, u: VertexId, v: VertexId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }

    /// Number of neighbors of `v` with smaller rank.
    #[inline]
    pub fn nb(&self, v: VertexId) -> u32 {
        self.split[self.rank[v as usize] as usize]
    }

    /// Number of neighbors of `v` with larger rank.
    #[inline]
    pub fn ns(&self, v: VertexId) -> u32 {
        let r = self.rank[v as usize];
        self.degree_of_rank(r) - self.split[r as usize]
    }

    /// Ranks of the neighbours of the vertex of rank `r`, ascending.
    #[inline]
    pub fn neighbors_of_rank(&self, r: u32) -> &[u32] {
        &self.adjacency[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize]
    }

    /// The neighbours of rank `r` that rank below it (`nb` of them),
    /// ascending.
    #[inline]
    pub fn lower_of_rank(&self, r: u32) -> &[u32] {
        let start = self.offsets[r as usize] as usize;
        &self.adjacency[start..start + self.split[r as usize] as usize]
    }

    /// The neighbours of rank `r` that rank above it (`ns` of them),
    /// ascending.
    #[inline]
    pub fn higher_of_rank(&self, r: u32) -> &[u32] {
        let start = self.offsets[r as usize] as usize + self.split[r as usize] as usize;
        &self.adjacency[start..self.offsets[r as usize + 1] as usize]
    }

    /// Degree of the vertex of rank `r`.
    #[inline]
    pub fn degree_of_rank(&self, r: u32) -> u32 {
        (self.offsets[r as usize + 1] - self.offsets[r as usize]) as u32
    }

    /// Total length of the rank-space adjacency: twice the edge count of
    /// the graph it was built for.
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.adjacency.len()
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

    /// Vertices in ascending rank order (the rank → id array).
    pub fn vertices_by_rank(&self) -> &[VertexId] {
        &self.by_rank
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
        assert_eq!(by_rank, [1, 2, 3, 4, 0]);
        for (r, &v) in by_rank.iter().enumerate() {
            assert_eq!(o.rank(v) as usize, r);
        }
    }

    #[test]
    fn rank_space_lists_are_ascending_ranks_split_at_nb() {
        // Path 0-1-2-3 plus chord 1-3: degrees 1, 3, 2, 2, so the ranks
        // are 0→0, 2→1, 3→2, 1→3.
        let g = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let o = OrderedGraph::new(&g);
        assert_eq!(o.vertices_by_rank(), [0, 2, 3, 1]);
        assert_eq!(o.neighbors_of_rank(3), [0, 1, 2]);
        assert_eq!(o.lower_of_rank(3), [0, 1, 2]);
        assert!(o.higher_of_rank(3).is_empty());
        assert_eq!(o.neighbors_of_rank(1), [2, 3]);
        assert_eq!(o.lower_of_rank(1), [] as [u32; 0]);
        assert_eq!(o.higher_of_rank(1), [2, 3]);
        assert_eq!(o.degree_of_rank(1), g.degree(2));
        assert_eq!(o.adjacency_len() as u64, 2 * g.num_edges());
        for r in 0..4 {
            assert_eq!(o.rank(o.vertex(r)), r);
            assert_eq!(o.ranks()[o.vertex(r) as usize], r);
        }
    }

    #[test]
    fn reorient_keeps_ranks_and_follows_the_new_adjacency() {
        let g0 = star();
        let g1 = DataGraph::from_edges(5, &[(1, 2), (2, 3), (3, 4)]).unwrap();
        let o = OrderedGraph::new(&g0).reorient(&g1);
        assert_eq!(o.vertices_by_rank(), [1, 2, 3, 4, 0]);
        // The old hub (rank 4) is isolated now; vertex 2 (rank 1) has
        // neighbours 1 (rank 0) and 3 (rank 2).
        assert!(o.neighbors_of_rank(4).is_empty());
        assert_eq!(o.lower_of_rank(1), [0]);
        assert_eq!(o.higher_of_rank(1), [2]);
        assert_eq!((o.nb(2), o.ns(2)), (1, 1));
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
