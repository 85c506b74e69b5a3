//! Synthetic graph generators.
//!
//! The paper evaluates on SNAP/KONECT graphs plus one Erdős–Rényi graph
//! produced by NetworkX. Those datasets are not redistributable here, so the
//! experiment harness substitutes synthetic graphs whose *degree skew*
//! matches the paper's reported power-law exponents (γ ≈ 1.09 for WikiTalk,
//! 1.66 for WebGoogle, 3.13 for UsPatent — Section 7.2). Every conclusion
//! the paper draws from those graphs is a function of that skew
//! (see `DESIGN.md` §3).
//!
//! All generators are deterministic given a seed and return clean
//! [`DataGraph`]s (symmetric, loop-free, deduplicated).

use crate::builder::GraphBuilder;
use crate::csr::{DataGraph, VertexId};
use crate::error::GraphError;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges drawn uniformly from
/// all vertex pairs. Fails if `m` exceeds the simple-graph capacity.
pub fn erdos_renyi_gnm(n: usize, m: u64, seed: u64) -> Result<DataGraph, GraphError> {
    let capacity = n as u64 * (n as u64 - 1) / 2;
    if n < 2 && m > 0 {
        return Err(GraphError::InvalidParameter("G(n,m) needs n >= 2 for m > 0".into()));
    }
    if m > capacity {
        return Err(GraphError::InvalidParameter(format!(
            "m = {m} exceeds simple-graph capacity {capacity} for n = {n}"
        )));
    }
    if m > capacity / 2 {
        return Err(GraphError::InvalidParameter(format!(
            "m = {m} too dense for rejection sampling (capacity {capacity}); use G(n,p)"
        )));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = crate::hash::FxHashSet::default();
    seen.reserve(m as usize);
    let mut builder = GraphBuilder::with_capacity(m as usize);
    while seen.len() < m as usize {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
        if seen.insert(key) {
            builder.add_edge(u, v);
        }
    }
    builder.build_with_num_vertices(n)
}

/// Erdős–Rényi `G(n, p)` via geometric edge skipping — `O(n + m)` expected.
pub fn erdos_renyi_gnp(n: usize, p: f64, seed: u64) -> Result<DataGraph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!("p = {p} must be in [0, 1]")));
    }
    let mut builder = GraphBuilder::new();
    if p > 0.0 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let log_1p = (1.0 - p).ln();
        // Walk the strictly-upper-triangular pair space in row-major order,
        // jumping geometrically between successes (Batagelj–Brandes).
        let mut v: i64 = 1;
        let mut w: i64 = -1;
        let n = n as i64;
        while v < n {
            let skip = if p >= 1.0 {
                1.0
            } else {
                let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                (r.ln() / log_1p).floor() + 1.0
            };
            w += skip as i64;
            while w >= v && v < n {
                w -= v;
                v += 1;
            }
            if v < n {
                builder.add_edge(w as VertexId, v as VertexId);
            }
        }
    }
    builder.build_with_num_vertices(n)
}

/// Samples a discrete power-law degree sequence `p(d) ∝ d^{-gamma}` over
/// `[dmin, dmax]` by inverse-CDF of the continuous Pareto, floored.
pub fn power_law_degrees(
    n: usize,
    gamma: f64,
    dmin: u32,
    dmax: u32,
    seed: u64,
) -> Result<Vec<f64>, GraphError> {
    if gamma <= 1.0 {
        return Err(GraphError::InvalidParameter(format!("gamma = {gamma} must be > 1")));
    }
    if dmin == 0 || dmin > dmax {
        return Err(GraphError::InvalidParameter(format!(
            "need 0 < dmin <= dmax (got {dmin}, {dmax})"
        )));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let exponent = -1.0 / (gamma - 1.0);
    let lo = f64::from(dmin);
    let hi = f64::from(dmax);
    // CDF-inverse of the truncated Pareto: draw u, map through
    // d = lo * (1 - u(1 - (hi/lo)^{1-γ}))^{-1/(γ-1)}.
    let tail = (hi / lo).powf(1.0 - gamma);
    Ok((0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let d = lo * (1.0 - u * (1.0 - tail)).powf(exponent);
            d.min(hi)
        })
        .collect())
}

/// Chung–Lu random graph from explicit expected-degree weights.
///
/// Edge `(i, j)` exists with probability `min(1, w_i w_j / Σw)`; generation
/// is the `O(n + m)` sorted-weights skipping algorithm of Miller & Hagberg.
/// Vertex ids are randomly permuted afterwards so that id does not encode
/// degree.
pub fn chung_lu_from_weights(weights: &[f64], seed: u64) -> Result<DataGraph, GraphError> {
    let n = weights.len();
    if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
        return Err(GraphError::InvalidParameter("weights must be finite and >= 0".into()));
    }
    let total: f64 = weights.iter().sum();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new();
    if total > 0.0 && n >= 2 {
        // Sort indices by descending weight so p is non-increasing in j.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            weights[b as usize].partial_cmp(&weights[a as usize]).unwrap()
        });
        let w = |i: usize| weights[order[i] as usize];
        for i in 0..n - 1 {
            if w(i) <= 0.0 {
                break;
            }
            let mut j = i + 1;
            let mut p = (w(i) * w(j) / total).min(1.0);
            while j < n && p > 0.0 {
                if p < 1.0 {
                    let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                    j += (r.ln() / (1.0 - p).ln()) as usize;
                }
                if j < n {
                    let q = (w(i) * w(j) / total).min(1.0);
                    if rng.gen::<f64>() < q / p {
                        builder.add_edge(order[i], order[j]);
                    }
                    p = q;
                    j += 1;
                }
            }
        }
    }
    // Random relabeling: sorted position must not leak into vertex id.
    let mut relabel: Vec<VertexId> = (0..n as VertexId).collect();
    relabel.shuffle(&mut rng);
    let mut permuted = GraphBuilder::with_capacity(builder.raw_edge_count());
    for &(u, v) in builder.raw_edges() {
        permuted.add_edge(relabel[u as usize], relabel[v as usize]);
    }
    permuted.build_with_num_vertices(n)
}

/// Chung–Lu power-law graph: samples a `d^{-gamma}` expected-degree sequence,
/// rescales it to the target average degree, caps weights at `√Σw` (so edge
/// probabilities stay meaningful) and generates.
///
/// `avg_degree` is the *expected* average; the realized average is close but
/// not exact (capping and the `min(1, ·)` clamp bias it slightly downward
/// for extreme γ).
pub fn chung_lu(n: usize, avg_degree: f64, gamma: f64, seed: u64) -> Result<DataGraph, GraphError> {
    if avg_degree <= 0.0 {
        return Err(GraphError::InvalidParameter("avg_degree must be > 0".into()));
    }
    let dmax = (n.saturating_sub(1)).max(1) as u32;
    let mut weights = power_law_degrees(n, gamma, 1, dmax, seed ^ 0x9e37_79b9)?;
    let mean: f64 = weights.iter().sum::<f64>() / n.max(1) as f64;
    let scale = avg_degree / mean;
    for w in &mut weights {
        *w *= scale;
    }
    let total: f64 = weights.iter().sum();
    let cap = total.sqrt();
    for w in &mut weights {
        if *w > cap {
            *w = cap;
        }
    }
    chung_lu_from_weights(&weights, seed)
}

/// Barabási–Albert preferential attachment: starts from a star of
/// `m + 1` vertices and attaches each new vertex to `m` distinct existing
/// vertices chosen proportionally to degree. Produces γ ≈ 3 power laws.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Result<DataGraph, GraphError> {
    if m == 0 {
        return Err(GraphError::InvalidParameter("m must be >= 1".into()));
    }
    if n < m + 1 {
        return Err(GraphError::InvalidParameter(format!("n = {n} must exceed m = {m}")));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n * m);
    // Repeated-endpoints list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    for leaf in 1..=m {
        builder.add_edge(0, leaf as VertexId);
        endpoints.push(0);
        endpoints.push(leaf as VertexId);
    }
    let mut targets = crate::hash::FxHashSet::default();
    for v in (m + 1)..n {
        targets.clear();
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            targets.insert(t);
        }
        for &t in &targets {
            builder.add_edge(v as VertexId, t);
            endpoints.push(v as VertexId);
            endpoints.push(t);
        }
    }
    builder.build_with_num_vertices(n)
}

/// One batch of edge mutations against a [`DataGraph`]. Inserts and
/// deletes are disjoint within a batch (the generators guarantee it;
/// [`apply_edge_batch`] resolves any overlap insert-wins), each list is
/// sorted with normalized endpoints (`u < v`), and every insert is absent
/// from — and every delete present in — the graph the batch targets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    /// Edges to add; absent from the target graph.
    pub insert: Vec<(VertexId, VertexId)>,
    /// Edges to remove; present in the target graph.
    pub delete: Vec<(VertexId, VertexId)>,
}

impl EdgeBatch {
    /// Total number of edge mutations in the batch.
    pub fn len(&self) -> usize {
        self.insert.len() + self.delete.len()
    }

    /// Whether the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// The batch's effective edge delta against `g`: endpoints normalized
    /// to `u < v`, self-loops and duplicates dropped, inserts already in
    /// `g` and deletes not in it dropped, and a delete of an edge the batch
    /// also inserts dropped (insert wins). Both lists come back sorted, in
    /// the form [`DataGraph::with_batch`] takes. Errors if an insert names
    /// a vertex outside `g`; such a delete is absent and dropped.
    pub fn effective(&self, g: &DataGraph) -> Result<EdgeBatch, GraphError> {
        let n = g.num_vertices();
        let norm = |&(u, v): &(VertexId, VertexId)| if u <= v { (u, v) } else { (v, u) };
        let mut wanted: Vec<(VertexId, VertexId)> =
            self.insert.iter().map(norm).filter(|&(u, v)| u != v).collect();
        wanted.sort_unstable();
        wanted.dedup();
        if let Some(&(_, v)) = wanted.iter().find(|&&(_, v)| v as usize >= n) {
            return Err(GraphError::VertexOutOfRange { vertex: u64::from(v), bound: n as u64 });
        }
        let mut delete: Vec<(VertexId, VertexId)> = self
            .delete
            .iter()
            .map(norm)
            .filter(|e| (e.1 as usize) < n && g.has_edge(e.0, e.1))
            .filter(|e| wanted.binary_search(e).is_err())
            .collect();
        delete.sort_unstable();
        delete.dedup();
        wanted.retain(|&(u, v)| !g.has_edge(u, v));
        Ok(EdgeBatch { insert: wanted, delete })
    }
}

/// Applies a batch to a graph: final edge set = (current − deletes) ∪
/// inserts, so an edge appearing in both lists ends up present (insert
/// wins). Self-loops, duplicates, absent deletes and present inserts are
/// dropped ([`EdgeBatch::effective`]), and the effective delta is merged
/// into the graph's CSR ([`DataGraph::with_batch`]). The vertex count is
/// preserved — an insert may not reference a vertex outside the graph.
pub fn apply_edge_batch(g: &DataGraph, batch: &EdgeBatch) -> Result<DataGraph, GraphError> {
    let effective = batch.effective(g)?;
    g.with_batch(&effective.insert, &effective.delete)
}

/// Generates `num_batches` seeded random mutation batches against `base`,
/// each drawing ~`batch_edges` mutations split between inserts (sampled
/// from the current non-edges by rejection) and deletes (sampled uniformly
/// from the current edges). `insert_fraction` sets the insert/delete mix.
/// Batches are sequential: batch `i + 1` targets the graph after batch `i`.
/// Within a batch no edge is touched twice, so inserts and deletes are
/// disjoint and the signed semantics are unambiguous.
pub fn dynamic_batches(
    base: &DataGraph,
    num_batches: usize,
    batch_edges: usize,
    insert_fraction: f64,
    seed: u64,
) -> Vec<EdgeBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = base.num_vertices() as VertexId;
    let mut present: crate::hash::FxHashSet<(VertexId, VertexId)> =
        base.edges().map(|(u, v)| if u <= v { (u, v) } else { (v, u) }).collect();
    let mut edge_list: Vec<(VertexId, VertexId)> = present.iter().copied().collect();
    edge_list.sort_unstable();
    let mut batches = Vec::with_capacity(num_batches);
    for _ in 0..num_batches {
        let mut batch = EdgeBatch::default();
        let mut touched: crate::hash::FxHashSet<(VertexId, VertexId)> =
            crate::hash::FxHashSet::default();
        for _ in 0..batch_edges {
            if n >= 2 && rng.gen::<f64>() < insert_fraction {
                // Rejection-sample a fresh non-edge; bail after a bounded
                // number of tries so dense graphs can't stall the stream.
                for _ in 0..64 {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    let e = if u <= v { (u, v) } else { (v, u) };
                    if u == v || present.contains(&e) || touched.contains(&e) {
                        continue;
                    }
                    touched.insert(e);
                    batch.insert.push(e);
                    break;
                }
            } else if !edge_list.is_empty() {
                let i = rng.gen_range(0..edge_list.len());
                let e = edge_list.swap_remove(i);
                if touched.contains(&e) {
                    edge_list.push(e);
                    continue;
                }
                touched.insert(e);
                batch.delete.push(e);
            }
        }
        for &e in &batch.insert {
            present.insert(e);
            edge_list.push(e);
        }
        for e in &batch.delete {
            present.remove(e);
        }
        edge_list.retain(|e| present.contains(e));
        batch.insert.sort_unstable();
        batch.delete.sort_unstable();
        batches.push(batch);
    }
    batches
}

/// The dynamic-graph fixture used by the delta bench and sim harness: a
/// Chung-Lu power-law base plus a seeded stream of mutation batches. Batch
/// sizing is the caller's churn knob — `batch_edges / num_edges` is the
/// per-batch churn rate.
pub fn chung_lu_dynamic(
    n: usize,
    avg_degree: f64,
    gamma: f64,
    seed: u64,
    num_batches: usize,
    batch_edges: usize,
) -> Result<(DataGraph, Vec<EdgeBatch>), GraphError> {
    let base = chung_lu(n, avg_degree, gamma, seed)?;
    let batches = dynamic_batches(&base, num_batches, batch_edges, 0.5, seed ^ 0x5eed_cafe);
    Ok((base, batches))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edge_count_and_is_simple() {
        let g = erdos_renyi_gnm(100, 300, 1).unwrap();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
        assert!(g.is_symmetric());
    }

    #[test]
    fn gnm_rejects_impossible_density() {
        assert!(erdos_renyi_gnm(4, 7, 1).is_err()); // capacity 6
        assert!(erdos_renyi_gnm(1, 1, 1).is_err());
    }

    #[test]
    fn gnm_is_deterministic_per_seed() {
        let a = erdos_renyi_gnm(50, 100, 7).unwrap();
        let b = erdos_renyi_gnm(50, 100, 7).unwrap();
        let c = erdos_renyi_gnm(50, 100, 8).unwrap();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 500;
        let p = 0.02;
        let g = erdos_renyi_gnp(n, p, 11).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let empty = erdos_renyi_gnp(20, 0.0, 3).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi_gnp(20, 1.0, 3).unwrap();
        assert_eq!(full.num_edges(), 190);
        assert!(erdos_renyi_gnp(20, 1.5, 3).is_err());
        assert!(erdos_renyi_gnp(20, -0.1, 3).is_err());
    }

    #[test]
    fn power_law_degrees_respects_bounds_and_skew() {
        let degs = power_law_degrees(20_000, 2.2, 1, 1_000, 5).unwrap();
        assert!(degs.iter().all(|&d| (1.0..=1_000.0).contains(&d)));
        // Strong skew: the median must sit near dmin while the max is large.
        let mut sorted = degs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(sorted[10_000] < 3.0);
        assert!(sorted[19_999] > 50.0);
        assert!(power_law_degrees(10, 1.0, 1, 10, 5).is_err());
        assert!(power_law_degrees(10, 2.0, 0, 10, 5).is_err());
        assert!(power_law_degrees(10, 2.0, 5, 4, 5).is_err());
    }

    #[test]
    fn chung_lu_hits_target_average_degree() {
        let n = 5_000;
        let g = chung_lu(n, 8.0, 2.5, 42).unwrap();
        let avg = g.degree_sum() as f64 / n as f64;
        assert!((avg - 8.0).abs() < 1.5, "avg degree {avg} too far from 8");
        assert!(g.is_symmetric());
    }

    #[test]
    fn chung_lu_skew_increases_with_smaller_gamma() {
        // The weight cap bounds the maximum, so compare tail mass instead:
        // the number of heavy vertices (deg >= 5x average) must grow
        // sharply as γ shrinks.
        let heavy = |g: &crate::csr::DataGraph| g.vertices().filter(|&v| g.degree(v) >= 40).count();
        let skewed = chung_lu(5_000, 8.0, 1.5, 9).unwrap();
        let mild = chung_lu(5_000, 8.0, 3.2, 9).unwrap();
        assert!(
            heavy(&skewed) > 3 * heavy(&mild).max(1),
            "γ=1.5 heavy {} should dwarf γ=3.2 heavy {}",
            heavy(&skewed),
            heavy(&mild)
        );
    }

    #[test]
    fn chung_lu_from_weights_validates() {
        assert!(chung_lu_from_weights(&[1.0, f64::NAN], 1).is_err());
        assert!(chung_lu_from_weights(&[1.0, -2.0], 1).is_err());
        let g = chung_lu_from_weights(&[], 1).unwrap();
        assert_eq!(g.num_vertices(), 0);
        let g = chung_lu_from_weights(&[0.0, 0.0, 0.0], 1).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(1_000, 3, 17).unwrap();
        assert_eq!(g.num_vertices(), 1_000);
        // Star seed has m edges; each of the n-m-1 later vertices adds m.
        assert_eq!(g.num_edges(), 3 + (1_000 - 4) as u64 * 3);
        // Preferential attachment grows hubs.
        assert!(g.max_degree() > 30);
        assert!(barabasi_albert(3, 3, 1).is_err());
        assert!(barabasi_albert(10, 0, 1).is_err());
    }

    #[test]
    fn dynamic_batches_are_well_formed_and_sequential() {
        let base = erdos_renyi_gnm(60, 200, 21).unwrap();
        let batches = dynamic_batches(&base, 8, 12, 0.5, 7);
        assert_eq!(batches.len(), 8);
        let mut g = base;
        for batch in &batches {
            assert!(!batch.is_empty());
            let mut touched = crate::hash::FxHashSet::default();
            for &(u, v) in &batch.insert {
                assert!(u < v, "insert not normalized: {u}-{v}");
                assert!(!g.has_edge(u, v), "insert {u}-{v} already present");
                assert!(touched.insert((u, v)), "edge {u}-{v} touched twice");
            }
            for &(u, v) in &batch.delete {
                assert!(u < v, "delete not normalized: {u}-{v}");
                assert!(g.has_edge(u, v), "delete {u}-{v} absent");
                assert!(touched.insert((u, v)), "edge {u}-{v} touched twice");
            }
            let next = apply_edge_batch(&g, batch).unwrap();
            assert_eq!(
                next.num_edges(),
                g.num_edges() + batch.insert.len() as u64 - batch.delete.len() as u64
            );
            g = next;
        }
    }

    #[test]
    fn dynamic_batches_deterministic_by_seed() {
        let base = erdos_renyi_gnm(40, 100, 3).unwrap();
        assert_eq!(dynamic_batches(&base, 4, 6, 0.4, 9), dynamic_batches(&base, 4, 6, 0.4, 9));
        assert_ne!(dynamic_batches(&base, 4, 6, 0.4, 9), dynamic_batches(&base, 4, 6, 0.4, 10));
    }

    #[test]
    fn apply_edge_batch_insert_wins_on_overlap() {
        let g = crate::csr::DataGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let batch = EdgeBatch { insert: vec![(0, 1), (2, 3)], delete: vec![(0, 1), (1, 2)] };
        let next = apply_edge_batch(&g, &batch).unwrap();
        assert!(next.has_edge(0, 1), "insert must win over a same-batch delete");
        assert!(!next.has_edge(1, 2));
        assert!(next.has_edge(2, 3));
        assert_eq!(next.num_vertices(), 4);
    }

    #[test]
    fn chung_lu_dynamic_fixture_is_deterministic() {
        let (a_base, a_batches) = chung_lu_dynamic(500, 6.0, 2.0, 11, 5, 10).unwrap();
        let (b_base, b_batches) = chung_lu_dynamic(500, 6.0, 2.0, 11, 5, 10).unwrap();
        assert_eq!(a_base.num_edges(), b_base.num_edges());
        assert_eq!(a_batches, b_batches);
        assert_eq!(a_batches.len(), 5);
    }
}
