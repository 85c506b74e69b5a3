//! Immutable CSR (compressed sparse row) storage for undirected graphs.
//!
//! This is the in-memory representation PSgL workers hold: for each vertex a
//! sorted adjacency slice. Sorted adjacency gives `O(log deg)` edge lookups
//! (used by pruning rule 2 and the GRAY verification of Algorithm 2) and
//! cache-friendly sequential scans during expansion.

use crate::error::GraphError;

/// Vertex identifier. The paper's graphs reach 42M vertices; `u32` covers
/// 4.2B and halves adjacency memory versus `usize`.
pub type VertexId = u32;

/// An immutable undirected graph in CSR form.
///
/// Invariants (checked in debug builds, relied upon everywhere):
/// - `offsets.len() == num_vertices + 1`, monotonically non-decreasing;
/// - each adjacency slice is strictly increasing (sorted, no duplicates,
///   no self-loops);
/// - adjacency is symmetric: `v ∈ N(u)` iff `u ∈ N(v)`.
#[derive(Clone, Debug)]
pub struct DataGraph {
    /// `offsets[v]..offsets[v+1]` indexes `adjacency` for vertex `v`.
    pub(crate) offsets: Vec<u64>,
    /// Concatenated sorted neighbor lists (each undirected edge twice).
    pub(crate) adjacency: Vec<VertexId>,
}

impl DataGraph {
    /// Builds a graph from a raw CSR pair. `offsets` must have one more
    /// entry than the vertex count and each adjacency run must be strictly
    /// increasing; violations return [`GraphError::InvalidParameter`].
    /// Symmetry is verified in debug builds only (it is `O(m log d)`).
    pub fn from_csr(offsets: Vec<u64>, adjacency: Vec<VertexId>) -> Result<Self, GraphError> {
        if offsets.is_empty() {
            return Err(GraphError::InvalidParameter(
                "offsets must contain at least one entry".into(),
            ));
        }
        if *offsets.last().unwrap() != adjacency.len() as u64 {
            return Err(GraphError::InvalidParameter(format!(
                "last offset {} does not match adjacency length {}",
                offsets.last().unwrap(),
                adjacency.len()
            )));
        }
        let n = offsets.len() - 1;
        for v in 0..n {
            if offsets[v] > offsets[v + 1] {
                return Err(GraphError::InvalidParameter(format!(
                    "offsets not monotone at vertex {v}"
                )));
            }
            let run = &adjacency[offsets[v] as usize..offsets[v + 1] as usize];
            // Branch-free folds, so the scans vectorize.
            if run.windows(2).fold(false, |bad, w| bad | (w[0] >= w[1])) {
                return Err(GraphError::InvalidParameter(format!(
                    "adjacency of vertex {v} not strictly increasing"
                )));
            }
            // The run is strictly increasing, so its last entry is its largest.
            if let Some(&u) = run.last().filter(|&&u| u as usize >= n) {
                return Err(GraphError::VertexOutOfRange { vertex: u64::from(u), bound: n as u64 });
            }
            if run.iter().fold(false, |bad, &u| bad | (u as usize == v)) {
                return Err(GraphError::InvalidParameter(format!("self-loop at vertex {v}")));
            }
        }
        let g = DataGraph { offsets, adjacency };
        debug_assert!(g.is_symmetric(), "CSR adjacency must be symmetric");
        Ok(g)
    }

    /// Convenience constructor: builds from an edge list over vertices
    /// `0..n`, deduplicating, symmetrizing and dropping self-loops
    /// (the paper's preprocessing except isolated-vertex removal —
    /// callers that want that should use [`crate::GraphBuilder`]).
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self, GraphError> {
        let mut builder = crate::builder::GraphBuilder::with_capacity(edges.len());
        for &(u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build_with_num_vertices(n)
    }

    /// Patches this CSR with an effective edge delta: the graph with every
    /// `inserted` edge added and every `deleted` edge removed, over the same
    /// vertex set. Each insert must be absent from `self` and each delete
    /// present, with no edge listed twice (see [`EdgeBatch::effective`]);
    /// endpoint order within a pair does not matter. A violation is an
    /// error, never a wrong graph.
    ///
    /// The batch is expanded into one change per edge end and sorted
    /// (`O(b log b)`); the vertices are then walked once in id order, each
    /// touched list merged with its changes and the untouched lists between
    /// two touched vertices copied whole, so the rest is one sequential
    /// `O(n + m)` copy (and the validation of [`DataGraph::from_csr`],
    /// another linear pass). The result is the canonical CSR of the new
    /// edge set, byte-identical to [`DataGraph::from_edges`] of it.
    ///
    /// [`EdgeBatch::effective`]: crate::generators::EdgeBatch::effective
    pub fn with_batch(
        &self,
        inserted: &[(VertexId, VertexId)],
        deleted: &[(VertexId, VertexId)],
    ) -> Result<DataGraph, GraphError> {
        let n = self.num_vertices();
        // (vertex, neighbour, is_insert), one per edge end.
        let mut changes: Vec<(VertexId, VertexId, bool)> =
            Vec::with_capacity(2 * (inserted.len() + deleted.len()));
        for (list, insert) in [(inserted, true), (deleted, false)] {
            for &(u, v) in list {
                if let Some(&x) = [u, v].iter().find(|&&x| x as usize >= n) {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: u64::from(x),
                        bound: n as u64,
                    });
                }
                changes.push((u, v, insert));
                changes.push((v, u, insert));
            }
        }
        changes.sort_unstable();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::with_capacity(self.adjacency.len() + 2 * inserted.len());
        offsets.push(0);
        // Lists `..copied` are in the output; the untouched ones between
        // two touched vertices go over in one copy.
        let mut copied = 0;
        for touched in changes.chunk_by(|a, b| a.0 == b.0) {
            let v = touched[0].0;
            self.copy_lists(copied..v as usize, &mut offsets, &mut adjacency);
            let old = self.neighbors(v);
            let mut at = 0;
            for &(_, w, insert) in touched {
                let below = at + old[at..].partition_point(|&x| x < w);
                adjacency.extend_from_slice(&old[at..below]);
                at = below;
                if insert {
                    adjacency.push(w);
                } else if old.get(at) == Some(&w) {
                    at += 1;
                } else {
                    return Err(GraphError::InvalidParameter(format!(
                        "deleted edge {v}-{w} is not in the graph"
                    )));
                }
            }
            adjacency.extend_from_slice(&old[at..]);
            offsets.push(adjacency.len() as u64);
            copied = v as usize + 1;
        }
        self.copy_lists(copied..n, &mut offsets, &mut adjacency);
        // An insert already present, or one listed twice, leaves a repeated
        // neighbour, and a self-loop leaves a vertex in its own list: the
        // validation rejects both.
        DataGraph::from_csr(offsets, adjacency)
    }

    /// Appends the lists of `vertices` unchanged, each offset shifted by
    /// where the first of them lands in `adjacency`.
    fn copy_lists(
        &self,
        vertices: std::ops::Range<usize>,
        offsets: &mut Vec<u64>,
        adjacency: &mut Vec<VertexId>,
    ) {
        let (from, to) = (self.offsets[vertices.start], self.offsets[vertices.end]);
        let shift = (adjacency.len() as u64).wrapping_sub(from);
        adjacency.extend_from_slice(&self.adjacency[from as usize..to as usize]);
        offsets.extend(
            self.offsets[vertices.start + 1..=vertices.end].iter().map(|&o| o.wrapping_add(shift)),
        );
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *undirected* edges (each counted once).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.adjacency.len() as u64 / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Exact edge-existence test in `O(log min(deg u, deg v))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`, in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            let start = self.neighbors(u).partition_point(|&v| v <= u);
            self.neighbors(u)[start..].iter().map(move |&v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> u32 {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Sum of degrees = `2 * num_edges`.
    #[inline]
    pub fn degree_sum(&self) -> u64 {
        self.adjacency.len() as u64
    }

    /// Verifies adjacency symmetry (`O(m log d)`); used by debug assertions
    /// and tests.
    pub fn is_symmetric(&self) -> bool {
        self.vertices()
            .all(|u| self.neighbors(u).iter().all(|&v| self.neighbors(v).binary_search(&u).is_ok()))
    }

    /// Approximate heap footprint in bytes (offsets + adjacency).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.adjacency.len() * std::mem::size_of::<VertexId>()
    }

    /// A content fingerprint of the graph structure, stable across loads of
    /// the same graph (CSR form is canonical: sorted adjacency, exactly one
    /// offsets layout per edge set). Suitable as a cache key component —
    /// e.g. keying cached query results to the graph they were computed on
    /// — not as a cryptographic digest.
    pub fn content_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::hash::FxHasher::default();
        h.write_u64(self.offsets.len() as u64);
        for &o in &self.offsets {
            h.write_u64(o);
        }
        for &v in &self.adjacency {
            h.write_u32(v);
        }
        // FxHash's single multiply leaves low bits structured; finish with a
        // full avalanche so the fingerprint is usable in truncated form.
        crate::hash::hash_u64(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> DataGraph {
        // 0 - 1 - 2
        DataGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree_sum(), 4);
    }

    #[test]
    fn has_edge_both_directions_and_absent() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once_sorted() {
        let g = DataGraph::from_edges(4, &[(2, 3), (0, 1), (1, 2), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn from_edges_dedups_and_symmetrizes() {
        let g = DataGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 0); // isolated vertex retained by from_edges
    }

    #[test]
    fn from_csr_rejects_bad_inputs() {
        // mismatched lengths
        assert!(DataGraph::from_csr(vec![0, 2], vec![1]).is_err());
        // non-monotone offsets
        assert!(DataGraph::from_csr(vec![0, 2, 1, 2], vec![1, 2]).is_err());
        // unsorted adjacency
        assert!(DataGraph::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).is_err());
        // out-of-range neighbor
        assert!(DataGraph::from_csr(vec![0, 1, 2], vec![5, 0]).is_err());
        // self loop
        assert!(DataGraph::from_csr(vec![0, 1, 1], vec![0]).is_err());
        // empty offsets
        assert!(DataGraph::from_csr(vec![], vec![]).is_err());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = DataGraph::from_csr(vec![0], vec![]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn memory_bytes_tracks_sizes() {
        let g = path3();
        assert_eq!(g.memory_bytes(), 4 * 8 + 4 * 4);
    }

    #[test]
    fn content_hash_is_stable_and_structure_sensitive() {
        let a = path3();
        let b = DataGraph::from_edges(3, &[(1, 2), (0, 1)]).unwrap(); // same graph, reordered input
        assert_eq!(a.content_hash(), b.content_hash());
        let c = DataGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap(); // different edge set
        assert_ne!(a.content_hash(), c.content_hash());
        let d = DataGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap(); // extra isolated vertex
        assert_ne!(a.content_hash(), d.content_hash());
    }
}
