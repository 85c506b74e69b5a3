//! A mutation batch patches the CSR: `apply_edge_batch` (the effective
//! delta merged into the previous lists by `DataGraph::with_batch`) must
//! give the same offsets, adjacency and content hash as building the
//! post-batch edge set from scratch. The oracle is the whole-edge-set
//! rebuild the patch replaced.

use proptest::{proptest, ProptestConfig};
use psgl_graph::generators::{apply_edge_batch, erdos_renyi_gnp, EdgeBatch};
use psgl_graph::{DataGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The rebuild: (edges − deletes) ∪ inserts through a `BTreeSet`, then
/// `from_edges` (which drops the self-loops an insert may carry).
fn rebuilt(g: &DataGraph, batch: &EdgeBatch) -> DataGraph {
    let norm = |&(u, v): &(VertexId, VertexId)| if u <= v { (u, v) } else { (v, u) };
    let mut edges: BTreeSet<(VertexId, VertexId)> = g.edges().collect();
    for e in &batch.delete {
        edges.remove(&norm(e));
    }
    for e in &batch.insert {
        edges.insert(norm(e));
    }
    DataGraph::from_edges(g.num_vertices(), &edges.into_iter().collect::<Vec<_>>()).unwrap()
}

/// Offsets (as degrees: the first offset is 0 and each step is one
/// list's length), adjacency and content hash, list for list.
fn assert_same_csr(got: &DataGraph, want: &DataGraph, what: &str) {
    assert_eq!(got.num_vertices(), want.num_vertices(), "{what}: vertex count");
    for v in want.vertices() {
        assert_eq!(got.degree(v), want.degree(v), "{what}: offsets of vertex {v}");
        assert_eq!(got.neighbors(v), want.neighbors(v), "{what}: list of vertex {v}");
    }
    assert_eq!(got.content_hash(), want.content_hash(), "{what}: content hash");
}

/// A hostile batch against `g`: random inserts (some present, some
/// reversed, some self-loops), deletes of present and absent edges, every
/// edge of one vertex deleted, edges added to `gainer` (isolated in the
/// first batch), inserts also deleted (insert wins), and duplicates of
/// all of it.
fn hostile_batch(g: &DataGraph, gainer: VertexId, rng: &mut SmallRng) -> EdgeBatch {
    let n = g.num_vertices() as VertexId;
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut batch = EdgeBatch::default();
    let pair = |rng: &mut SmallRng| (rng.gen_range(0..n), rng.gen_range(0..n));
    for _ in 0..rng.gen_range(0..12) {
        batch.insert.push(pair(rng));
        batch.delete.push(pair(rng));
    }
    for _ in 0..rng.gen_range(0..6usize).min(edges.len()) {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        batch.delete.push(if rng.gen() { (u, v) } else { (v, u) });
        if rng.gen_range(0..4) == 0 {
            batch.insert.push((v, u));
        }
    }
    let emptied = rng.gen_range(0..n);
    batch.delete.extend(g.neighbors(emptied).iter().map(|&w| (w, emptied)));
    batch.insert.extend((0..rng.gen_range(1..4)).map(|_| (gainer, rng.gen_range(0..n))));
    batch.insert.push((gainer, gainer));
    batch.delete.push((emptied, emptied));
    for list in [&mut batch.insert, &mut batch.delete] {
        for _ in 0..rng.gen_range(0..3usize).min(list.len()) {
            let (u, v) = list[rng.gen_range(0..list.len())];
            list.push((v, u));
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_patched_csr_equals_the_rebuilt_one(
        n in 3usize..60,
        per_mille in 0u64..300,
        graph_seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let gnp = erdos_renyi_gnp(n, per_mille as f64 / 1000.0, graph_seed).unwrap();
        // One vertex more than the G(n, p) graph, placed anywhere in the id
        // range: it starts isolated.
        let mut rng = SmallRng::seed_from_u64(batch_seed);
        let hole = rng.gen_range(0..n as VertexId + 1);
        let shift = |v: VertexId| v + VertexId::from(v >= hole);
        let edges: Vec<_> = gnp.edges().map(|(u, v)| (shift(u), shift(v))).collect();
        let mut g = DataGraph::from_edges(n + 1, &edges).unwrap();
        assert_eq!(g.degree(hole), 0);
        for step in 0..3 {
            let gainer = if step == 0 { hole } else { rng.gen_range(0..n as VertexId + 1) };
            let batch = hostile_batch(&g, gainer, &mut rng);
            let want = rebuilt(&g, &batch);
            let got = apply_edge_batch(&g, &batch).unwrap();
            assert_same_csr(&got, &want, &format!("step {step} of {batch:?}"));
            g = got;
        }
    }
}

#[test]
fn the_effective_delta_is_normalized_and_insert_wins() {
    let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    let batch = EdgeBatch {
        insert: vec![(1, 2), (4, 4), (3, 0), (0, 3), (2, 1)],
        delete: vec![(2, 1), (0, 4), (3, 2), (2, 3), (1, 0)],
    };
    let effective = batch.effective(&g).unwrap();
    // (1, 2) is present and also deleted: insert wins, so it is neither
    // inserted nor deleted.
    assert_eq!(effective.insert, vec![(0, 3)]);
    assert_eq!(effective.delete, vec![(0, 1), (2, 3)]);
}

#[test]
fn the_patch_rejects_a_batch_that_is_not_effective() {
    let g = DataGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
    assert!(g.with_batch(&[(0, 1)], &[]).is_err(), "insert of a present edge");
    assert!(g.with_batch(&[(0, 3), (3, 0)], &[]).is_err(), "insert listed twice");
    assert!(g.with_batch(&[(2, 2)], &[]).is_err(), "self-loop insert");
    assert!(g.with_batch(&[], &[(0, 2)]).is_err(), "delete of an absent edge");
    assert!(g.with_batch(&[], &[(0, 1), (1, 0)]).is_err(), "delete listed twice");
    assert!(g.with_batch(&[(0, 4)], &[]).is_err(), "vertex out of range");
    assert!(apply_edge_batch(&g, &EdgeBatch { insert: vec![(0, 9)], delete: vec![] }).is_err());
    // An out-of-range delete is an absent one: dropped, as the rebuild did.
    let kept = apply_edge_batch(&g, &EdgeBatch { insert: vec![], delete: vec![(0, 9)] }).unwrap();
    assert_eq!(kept.content_hash(), g.content_hash());
}

#[test]
fn an_empty_batch_and_an_empty_graph_patch_to_themselves() {
    for g in [DataGraph::from_edges(0, &[]).unwrap(), DataGraph::from_edges(3, &[(0, 2)]).unwrap()]
    {
        assert_eq!(g.with_batch(&[], &[]).unwrap().content_hash(), g.content_hash());
    }
}
