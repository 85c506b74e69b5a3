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
//! of ranks, so [`OrderedGraph`] also keeps the graph *relabelled by
//! rank*: vertex `v` appears as `rank(v)`, and each list holds neighbour
//! ranks in ascending order. A rank window is then a sub-slice, and the
//! `nb`/`ns` halves are the two sides of one split point. Only
//! [`OrderedGraph::new`] builds that graph (with one scatter); a mutation
//! batch patches it like any other CSR ([`OrderedGraph::with_batch`]).
//! While degree is monotone in rank ([`OrderedGraph::degree_sorted`]),
//! pruning rule 1a is a rank window too: the neighbours below a degree
//! bound are a prefix of every list.

use crate::csr::{DataGraph, VertexId};
use crate::error::GraphError;

/// Total vertex order derived from `(degree, id)`, with the graph stored a
/// second time in *rank space*: there a vertex is named by its rank, and
/// `neighbors_of_rank(r)` holds its neighbours' ranks in ascending order.
/// Because the list is sorted by rank, it splits at one point into the
/// lower-rank neighbours (`lower_of_rank`, `nb` of them) and the
/// higher-rank ones (`higher_of_rank`, `ns`), and any rank window
/// `[lo, hi)` is a sub-slice found by two binary searches. The closing
/// kernels (`psgl-core`'s `kernel.rs`) work in this space; everything that
/// leaves them (Gpsis, messages, placement) keeps original ids, crossing
/// back through [`Self::vertex`].
///
/// Ranks built by [`Self::new`] follow degree, so a degree bound is a
/// prefix of every rank-sorted list; a patched epoch ([`Self::with_batch`])
/// keeps the ranks of the graph they were built for and may lose that
/// property, which [`Self::degree_sorted`] reports. A delta compaction
/// builds a fresh `OrderedGraph` and so restores it.
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
    /// The graph relabelled by rank: vertex `r` is the vertex of rank `r`.
    graph: DataGraph,
    /// `split[r]` = how many of rank `r`'s neighbours rank below it: the
    /// list's first `split[r]` entries are `lower_of_rank(r)`.
    split: Vec<u32>,
    /// Whether degree never falls as rank rises (see [`Self::degree_sorted`]).
    degree_sorted: bool,
}

impl OrderedGraph {
    /// Computes ranks and the rank-space graph for `g` in
    /// `O(n log n + m)`. The lists are built with one scatter: ranks are
    /// visited in ascending order and each is appended to its neighbours'
    /// lists, so every list comes out sorted without a sort. When rank `r`
    /// is reached, exactly its lower-rank neighbours have been appended to
    /// its own list, which is its split.
    pub fn new(g: &DataGraph) -> Self {
        let n = g.num_vertices();
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&v| (g.degree(v), v));
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
        let graph = DataGraph::from_csr(offsets, adjacency).expect("a relabelled CSR is a CSR");
        OrderedGraph { rank, by_rank, graph, split, degree_sorted: true }
    }

    /// This ordered graph patched with an effective edge delta, given in
    /// ids as [`DataGraph::with_batch`] takes it (and rejected as there):
    /// the rank permutation is kept verbatim, so degree need no longer be
    /// monotone in rank, and the rank-space graph becomes that of the
    /// patched graph. The batch is translated to ranks once and merged
    /// into the touched lists; only the touched ranks' splits move. One
    /// scan of the patched degrees decides [`Self::degree_sorted`].
    pub fn with_batch(
        &self,
        inserted: &[(VertexId, VertexId)],
        deleted: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        let rank = |x: VertexId| {
            let bound = self.rank.len() as u64;
            let out_of_range = GraphError::VertexOutOfRange { vertex: u64::from(x), bound };
            self.rank.get(x as usize).copied().ok_or(out_of_range)
        };
        let to_ranks = |edges: &[(VertexId, VertexId)]| -> Result<Vec<_>, GraphError> {
            edges.iter().map(|&(u, v)| Ok((rank(u)?, rank(v)?))).collect()
        };
        let (inserted, deleted) = (to_ranks(inserted)?, to_ranks(deleted)?);
        let graph = self.graph.with_batch(&inserted, &deleted)?;
        // An edge is a lower-rank neighbour of its higher-ranked end.
        let mut split = self.split.clone();
        for &(a, b) in &inserted {
            split[a.max(b) as usize] += 1;
        }
        for &(a, b) in &deleted {
            split[a.max(b) as usize] -= 1;
        }
        let degree_sorted =
            (1..graph.num_vertices() as u32).all(|r| graph.degree(r - 1) <= graph.degree(r));
        let (rank, by_rank) = (self.rank.clone(), self.by_rank.clone());
        Ok(OrderedGraph { rank, by_rank, graph, split, degree_sorted })
    }

    /// Whether degree is monotone in rank: `degree_of_rank(r) <=
    /// degree_of_rank(r + 1)` for every `r`. Then the members of a
    /// rank-sorted list whose degree is below a bound are a prefix of it,
    /// found by one `partition_point`. True for [`Self::new`]; a patched
    /// epoch may clear it, and compaction (a fresh [`Self::new`]) restores
    /// it.
    ///
    /// The count-only wedge join with two targets takes its degree prefix
    /// only when this is true. The bound there is 2, which rejects no
    /// survivor (a common neighbour of two vertices has degree ≥ 2), so
    /// the flag does not decide the count: it keeps the join's
    /// `pruned_degree`, `pruned_order` and `intersect_gallop` equal to the
    /// per-element walk's. What it guards against is a `partition_point`
    /// over degrees that are not monotone, whose prefix is arbitrary and
    /// could cut survivors.
    #[inline]
    pub fn degree_sorted(&self) -> bool {
        self.degree_sorted
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
        self.graph.neighbors(r)
    }

    /// The neighbours of rank `r` that rank below it (`nb` of them),
    /// ascending.
    #[inline]
    pub fn lower_of_rank(&self, r: u32) -> &[u32] {
        let start = self.graph.offsets[r as usize] as usize;
        &self.graph.adjacency[start..start + self.split[r as usize] as usize]
    }

    /// The neighbours of rank `r` that rank above it (`ns` of them),
    /// ascending.
    #[inline]
    pub fn higher_of_rank(&self, r: u32) -> &[u32] {
        let start = self.graph.offsets[r as usize] as usize + self.split[r as usize] as usize;
        &self.graph.adjacency[start..self.graph.offsets[r as usize + 1] as usize]
    }

    /// Degree of the vertex of rank `r`.
    #[inline]
    pub fn degree_of_rank(&self, r: u32) -> u32 {
        self.graph.degree(r)
    }

    /// The graph relabelled by rank: its vertex `r` is the vertex of rank
    /// `r`, with the same edge count as the graph it was built for.
    #[inline]
    pub fn rank_graph(&self) -> &DataGraph {
        &self.graph
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
        assert!(o.degree_sorted());
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
        assert_eq!(o.rank_graph().num_edges(), g.num_edges());
        for r in 0..4 {
            assert_eq!(o.rank(o.vertex(r)), r);
            assert_eq!(o.ranks()[o.vertex(r) as usize], r);
        }
    }

    #[test]
    fn with_batch_keeps_ranks_and_follows_the_new_adjacency() {
        // The star becomes the path 1-2-3-4: every hub edge goes, three
        // leaf edges come (one of them given reversed).
        let o = OrderedGraph::new(&star())
            .with_batch(&[(1, 2), (3, 2), (3, 4)], &[(0, 1), (0, 2), (0, 3), (0, 4)])
            .unwrap();
        assert_eq!(o.vertices_by_rank(), [1, 2, 3, 4, 0]);
        // The old hub (rank 4) is isolated now; vertex 2 (rank 1) has
        // neighbours 1 (rank 0) and 3 (rank 2).
        assert!(o.neighbors_of_rank(4).is_empty());
        assert_eq!(o.lower_of_rank(1), [0]);
        assert_eq!(o.higher_of_rank(1), [2]);
        assert_eq!((o.nb(2), o.ns(2)), (1, 1));
        assert_eq!((o.nb(0), o.ns(0)), (0, 0));
        assert_eq!(o.rank_graph().num_edges(), 3);
        // Vertex 4 (rank 3) now has degree 1, below rank 2's 2.
        assert!(!o.degree_sorted(), "the pinned ranks no longer follow degree");
        // Leaves 3 and 4 rank highest among the leaves, so joining them keeps
        // degree monotone.
        assert!(OrderedGraph::new(&star()).with_batch(&[(3, 4)], &[]).unwrap().degree_sorted());
    }

    #[test]
    fn with_batch_rejects_a_batch_that_is_not_effective() {
        let o = OrderedGraph::new(&star());
        // Present insert, absent delete, self-loop, out-of-range endpoint.
        assert!(o.with_batch(&[(0, 1)], &[]).is_err());
        assert!(o.with_batch(&[], &[(1, 2)]).is_err());
        assert!(o.with_batch(&[(3, 3)], &[]).is_err());
        assert!(o.with_batch(&[(1, 5)], &[]).is_err());
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
