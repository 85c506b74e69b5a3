//! Property tests for incremental listing: on arbitrary G(n, m) graphs
//! under arbitrary seeded mutation streams, patching with the signed
//! instance delta must reproduce a scratch recompute after *every* batch,
//! and the incrementally-maintained bloom index must never report a false
//! negative no matter how deletions interleave with insertions.

use proptest::{collection, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use psgl_core::PsglConfig;
use psgl_delta::{DeltaGraph, DeltaQuery, InstanceDelta};
use psgl_graph::generators::{apply_edge_batch, dynamic_batches, erdos_renyi_gnm, EdgeBatch};
use psgl_graph::{DataGraph, VertexId};
use psgl_pattern::catalog;
use std::collections::BTreeSet;

/// The semantics `InstanceDelta::patch` had as retain + extend + sort:
/// every copy of a removed instance goes, every added one joins.
fn retain_extend_sort(view: &[Vec<VertexId>], delta: &InstanceDelta) -> Vec<Vec<VertexId>> {
    let dead: BTreeSet<&Vec<VertexId>> = delta.removed.iter().collect();
    let mut out: Vec<Vec<VertexId>> = view.iter().filter(|i| !dead.contains(i)).cloned().collect();
    out.extend(delta.added.iter().cloned());
    out.sort_unstable();
    out
}

/// `list`, sorted.
fn sorted(mut list: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    list.sort_unstable();
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The crate's one hard guarantee: `patch(pre) == scratch(post)` as an
    /// exact multiset of mapping vectors, after every batch of a random
    /// mutation stream.
    #[test]
    fn incremental_matches_scratch_after_every_batch(
        n in 20usize..80,
        density in 2u64..5,
        graph_seed in 0u64..100_000,
        stream_seed in 0u64..100_000,
        insert_per_mille in 200u64..800,
        pattern_idx in 0usize..3,
    ) {
        let m = n as u64 * density;
        let base = erdos_renyi_gnm(n, m, graph_seed).unwrap();
        let insert_fraction = insert_per_mille as f64 / 1000.0;
        let batches = dynamic_batches(&base, 4, 6, insert_fraction, stream_seed);
        let pattern = match pattern_idx {
            0 => catalog::triangle(),
            1 => catalog::square(),
            _ => catalog::tailed_triangle(),
        };
        let config = PsglConfig::with_workers(3).collect(true);
        let query = DeltaQuery::new(&pattern, &config).unwrap();
        let mut dg = DeltaGraph::new(base, 10, psgl_delta::overlay::DEFAULT_COMPACT_THRESHOLD);
        let mut view = query.full(dg.artifacts()).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let pre = dg.artifacts().clone();
            let out = dg.apply(batch).unwrap();
            let delta = query.delta(&pre, dg.artifacts(), &out.inserted, &out.deleted).unwrap();
            delta.patch(&mut view);
            let scratch = query.full(dg.artifacts()).unwrap();
            prop_assert_eq!(
                &view, &scratch,
                "{} parity broke at batch {} (+{} −{})",
                pattern.name(), i, delta.added.len(), delta.removed.len()
            );
        }
    }

    /// Bloom maintenance under deletions: stale bits may linger (false
    /// positives), but a live edge must never probe false — at any epoch,
    /// through any insert/delete interleaving, including after compaction.
    #[test]
    fn bloom_zero_false_negatives_under_deletes(
        n in 10usize..120,
        density in 1u64..5,
        graph_seed in 0u64..100_000,
        stream_seed in 0u64..100_000,
        insert_per_mille in 0u64..1000,
        compact_threshold in 4usize..64,
    ) {
        let base = erdos_renyi_gnm(n, n as u64 * density, graph_seed).unwrap();
        let mut dg = DeltaGraph::new(base, 8, compact_threshold);
        for batch_seed in 0..6u64 {
            let batches = dynamic_batches(
                &dg.artifacts().graph, 1, 8,
                insert_per_mille as f64 / 1000.0, stream_seed ^ batch_seed,
            );
            dg.apply(&batches[0]).unwrap();
            let art = dg.artifacts();
            for (u, v) in art.graph.edges() {
                prop_assert!(
                    art.index.may_contain(u, v),
                    "false negative on live edge {}-{} at epoch {}", u, v, art.epoch
                );
                prop_assert!(art.index.may_contain(v, u), "asymmetric probe {}-{}", v, u);
            }
        }
    }

    /// The patch is one merge of three sorted lists, and it keeps the
    /// retain + extend + sort semantics: on an empty view, with every
    /// instance removed, with removals the view never held, and with
    /// `added` interleaved with the view (duplicates included).
    #[test]
    fn patch_merges_like_retain_extend_sort(
        view in collection::vec(collection::vec(0u32..6, 3), 0..40),
        removed in collection::vec(collection::vec(0u32..6, 3), 0..20),
        added in collection::vec(collection::vec(0u32..6, 3), 0..20),
        shape in 0u32..4,
    ) {
        let view = sorted(if shape == 0 { Vec::new() } else { view });
        let removed = sorted(match shape {
            // Every instance of the view removed, plus the random ones.
            1 => view.iter().cloned().chain(removed).collect(),
            _ => removed,
        });
        let delta = InstanceDelta { added: sorted(added), removed };
        let want = retain_extend_sort(&view, &delta);
        if shape == 1 {
            prop_assert_eq!(&delta.patched(&view), &sorted(delta.added.clone()));
        }
        prop_assert_eq!(&delta.patched(&view), &want);
        let mut in_place = view.clone();
        delta.patch(&mut in_place);
        prop_assert_eq!(&in_place, &want);
    }
}

/// The service's version chain is keyed on the snapshot's content hash
/// (`parent_hash`), so every epoch's patched CSR must hash like the
/// from-scratch rebuild of the same edge set.
#[test]
fn every_epoch_hashes_like_the_rebuilt_graph() {
    let base = erdos_renyi_gnm(300, 900, 17).unwrap();
    let batches = dynamic_batches(&base, 8, 30, 0.5, 3);
    let mut dg = DeltaGraph::new(base.clone(), 8, psgl_delta::overlay::DEFAULT_COMPACT_THRESHOLD);
    let mut edges: BTreeSet<(VertexId, VertexId)> = base.edges().collect();
    let mut chained = base;
    for batch in &batches {
        dg.apply(batch).unwrap();
        for e in &batch.delete {
            edges.remove(e);
        }
        edges.extend(batch.insert.iter().copied());
        let rebuilt =
            DataGraph::from_edges(300, &edges.iter().copied().collect::<Vec<_>>()).unwrap();
        chained = apply_edge_batch(&chained, batch).unwrap();
        let art = dg.artifacts();
        assert_eq!(art.graph.content_hash(), rebuilt.content_hash(), "epoch {}", art.epoch);
        assert_eq!(chained.content_hash(), rebuilt.content_hash(), "epoch {}", art.epoch);
    }
    // A present edge both inserted and deleted stays: insert wins, so
    // the batch is no change at all.
    let (u, v) = dg.artifacts().graph.edges().next().unwrap();
    let out = dg.apply(&EdgeBatch { insert: vec![(u, v)], delete: vec![(v, u)] }).unwrap();
    assert!(dg.artifacts().graph.has_edge(u, v), "insert wins over a same-batch delete");
    assert!(out.inserted.is_empty() && out.deleted.is_empty());
}
