//! The mutable graph tier: a base CSR patched one epoch per batch, with
//! epoch snapshots and periodic compaction.
//!
//! [`DataGraph`] is an immutable CSR — the right trade for the listing hot
//! path, the wrong one for a live graph. [`DeltaGraph`] layers mutability on
//! top: a *base* CSR, advanced one epoch per applied batch, and a count of
//! how far the current edge set has drifted from it. Every epoch
//! materializes an [`EpochArtifacts`] snapshot (graph + ordered view +
//! bloom index) that queries borrow like any other `DataGraph`, so the
//! expansion kernel runs unmodified. The snapshot is the previous one
//! patched, not rebuilt: the batch's effective delta is merged into each
//! touched adjacency list and every other list is copied whole
//! ([`DataGraph::with_batch`]), one sequential pass over the CSR that
//! yields the same bytes as building the new edge set from scratch. The
//! ordered view's rank-space graph is patched by the same routine.
//!
//! Three maintenance rules keep incremental listing exact and cheap:
//!
//! 1. **Pinned ordering.** The degree-based total order of Section 3 is
//!    computed at base (re)construction and its *rank permutation* is
//!    reused verbatim by every epoch until compaction. Automorphism
//!    breaking only needs *some* fixed total order; re-deriving it from
//!    mutated degrees would silently move the canonical representative of
//!    instances that never touched a changed edge, breaking
//!    `post = pre − dying + born` as a multiset identity. Degree drift
//!    costs a little pruning precision, never correctness. The ordered
//!    view's *rank-space graph* is a different story: it is adjacency,
//!    not order, so each epoch patches it with the batch translated to
//!    the pinned ranks ([`OrderedGraph::with_batch`]) — the compiled
//!    kernels walk it as the real neighbor lists.
//! 2. **Grow-only bloom.** Inserted edges are added to a clone of the
//!    previous epoch's [`EdgeIndex`]; deleted edges deliberately stay in
//!    the filter (a stale bit is a false positive, caught by the exact
//!    neighborhood check). The no-false-negative guarantee therefore
//!    survives any mix of insertions and deletions.
//! 3. **Compaction.** When the drift from the base (edges inserted or
//!    deleted since, net of those that cancel) outgrows its threshold, the
//!    current snapshot becomes the new base and both the ordering and the
//!    index are rebuilt at nominal precision. [`ApplyOutcome::compacted`]
//!    tells the caller (e.g. the service's materialized views, which are
//!    keyed to the pinned ordering) to drop state that a rebuilt order
//!    invalidates.

use psgl_core::EdgeIndex;
use psgl_graph::generators::EdgeBatch;
use psgl_graph::{DataGraph, GraphError, OrderedGraph, VertexId};
use psgl_obs::Value as TraceValue;
use std::sync::{Arc, OnceLock};

/// Process-wide mutation counters in the global [`psgl_obs::registry`]:
/// epochs advanced, effective edge churn, and compactions (each of which
/// invalidates order-keyed caches — worth counting on its own).
struct DeltaCounters {
    epochs: psgl_obs::Counter,
    edges_inserted: psgl_obs::Counter,
    edges_deleted: psgl_obs::Counter,
    compactions: psgl_obs::Counter,
}

fn counters() -> &'static DeltaCounters {
    static COUNTERS: OnceLock<DeltaCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = psgl_obs::registry();
        DeltaCounters {
            epochs: r.counter("psgl_delta_epochs", "Mutation batches applied (epochs advanced)"),
            edges_inserted: r
                .counter("psgl_delta_edges_inserted", "Effective edge insertions applied"),
            edges_deleted: r
                .counter("psgl_delta_edges_deleted", "Effective edge deletions applied"),
            compactions: r.counter(
                "psgl_delta_compactions",
                "Overlay compactions (ordering and index rebuilt)",
            ),
        }
    })
}

/// Everything a query needs from one epoch of a [`DeltaGraph`]: the
/// materialized CSR snapshot plus the graph-side artifacts of
/// [`PsglShared::from_parts`](psgl_core::PsglShared::from_parts).
#[derive(Clone)]
pub struct EpochArtifacts {
    /// Epoch number (0 = the base graph as constructed).
    pub epoch: u64,
    /// The materialized CSR snapshot of this epoch.
    pub graph: Arc<DataGraph>,
    /// The ordered view: ranks pinned across epochs, rank-space graph
    /// patched per epoch (see module docs).
    pub ordered: Arc<OrderedGraph>,
    /// The bloom edge index, incrementally grown since the last compaction.
    pub index: Arc<EdgeIndex>,
}

/// What one [`DeltaGraph::apply`] did.
#[derive(Clone, Debug)]
pub struct ApplyOutcome {
    /// The epoch the graph is at after this batch.
    pub epoch: u64,
    /// Normalized insertions actually applied: edges that were absent
    /// before the batch (deduplicated, `u < v`, sorted).
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Normalized deletions actually applied: edges that were present
    /// before the batch and not simultaneously inserted (insert wins).
    pub deleted: Vec<(VertexId, VertexId)>,
    /// Whether this apply triggered a compaction (ordering + index were
    /// rebuilt; order-keyed caches must be dropped).
    pub compacted: bool,
}

/// A mutable graph: an immutable CSR base patched one epoch per applied
/// batch, with an epoch-numbered artifact snapshot per epoch.
pub struct DeltaGraph {
    /// The last compacted CSR.
    base: Arc<DataGraph>,
    /// `|E_current Δ E_base|`: edges present now but not in `base`, plus
    /// edges in `base` but deleted since.
    drift: usize,
    /// Snapshot of the current epoch.
    current: EpochArtifacts,
    /// Drift from `base` that triggers compaction.
    compact_threshold: usize,
    /// Bloom precision used for index (re)builds.
    bits_per_edge: usize,
}

/// Default overlay size before a compaction folds it back into the CSR.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 4096;

impl DeltaGraph {
    /// Wraps `base` as epoch 0, building the ordered view and bloom index.
    pub fn new(base: DataGraph, bits_per_edge: usize, compact_threshold: usize) -> DeltaGraph {
        let ordered = Arc::new(OrderedGraph::new(&base));
        let index = Arc::new(EdgeIndex::build(&base, bits_per_edge));
        let base = Arc::new(base);
        DeltaGraph {
            current: EpochArtifacts { epoch: 0, graph: Arc::clone(&base), ordered, index },
            base,
            drift: 0,
            compact_threshold,
            bits_per_edge,
        }
    }

    /// Adopts pre-built artifacts (the service-catalog path, where the
    /// ordered view and index already exist) as epoch `epoch`.
    pub fn from_artifacts(
        graph: Arc<DataGraph>,
        ordered: Arc<OrderedGraph>,
        index: Arc<EdgeIndex>,
        epoch: u64,
        bits_per_edge: usize,
        compact_threshold: usize,
    ) -> DeltaGraph {
        DeltaGraph {
            base: Arc::clone(&graph),
            drift: 0,
            current: EpochArtifacts { epoch, graph, ordered, index },
            compact_threshold,
            bits_per_edge,
        }
    }

    /// The current epoch's artifacts.
    pub fn artifacts(&self) -> &EpochArtifacts {
        &self.current
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.epoch
    }

    /// Current overlay size: how many edges differ from the last
    /// compacted base (mutations since then, net of those that cancel).
    pub fn overlay_len(&self) -> usize {
        self.drift
    }

    /// Applies one mutation batch, advancing the graph one epoch.
    ///
    /// The batch is normalized against the current snapshot first —
    /// duplicate endpoints, self-loops, already-present inserts and
    /// already-absent deletes are dropped, and an edge in both lists ends
    /// up present (insert wins) — so [`ApplyOutcome`] reports exactly the
    /// effective signed edge delta. Errors if any endpoint is outside the
    /// graph's vertex range; the graph is unchanged on error.
    pub fn apply(&mut self, batch: &EdgeBatch) -> Result<ApplyOutcome, GraphError> {
        let g = &self.current.graph;
        let n = g.num_vertices() as VertexId;
        for &(u, v) in batch.insert.iter().chain(batch.delete.iter()) {
            if u >= n || v >= n {
                return Err(GraphError::InvalidParameter(format!(
                    "edge {u}-{v} outside vertex range 0..{n} (mutations cannot grow the vertex set)"
                )));
            }
        }
        let EdgeBatch { insert: inserted, delete: deleted } = batch.effective(g)?;
        // Both numberings take the same patch; ranks stay pinned (see
        // module docs).
        let next = Arc::new(g.with_batch(&inserted, &deleted)?);
        let ordered = Arc::new(self.current.ordered.with_batch(&inserted, &deleted)?);

        // Grow-only bloom maintenance: clone the previous filter and add
        // the new edges; deletions leave stale bits (see module docs).
        let index = if inserted.is_empty() {
            Arc::clone(&self.current.index)
        } else {
            let mut idx = (*self.current.index).clone();
            for &(u, v) in &inserted {
                idx.insert_edge(u, v);
            }
            Arc::new(idx)
        };

        // An effective change moves the edge away from `base` unless it
        // undoes an earlier one.
        for (list, insert) in [(&inserted, true), (&deleted, false)] {
            for &(u, v) in list {
                if self.base.has_edge(u, v) == insert {
                    self.drift -= 1;
                } else {
                    self.drift += 1;
                }
            }
        }

        self.current =
            EpochArtifacts { epoch: self.current.epoch + 1, graph: next, ordered, index };
        let compacted = self.overlay_len() > self.compact_threshold;
        if compacted {
            self.compact();
        }
        let c = counters();
        c.epochs.inc();
        c.edges_inserted.add(inserted.len() as u64);
        c.edges_deleted.add(deleted.len() as u64);
        if compacted {
            // Compaction is the event worth tracing: it rebuilds the
            // ordering and index, so downstream order-keyed caches of this
            // graph are about to be dropped.
            psgl_obs::tracer().event(
                "delta_compacted",
                &[
                    ("epoch", TraceValue::U64(self.current.epoch)),
                    ("threshold", TraceValue::U64(self.compact_threshold as u64)),
                ],
            );
        }
        Ok(ApplyOutcome { epoch: self.current.epoch, inserted, deleted, compacted })
    }

    /// Folds the overlay back into the CSR: the current snapshot becomes
    /// the new base, and the ordering and bloom index are rebuilt at
    /// nominal precision (stale delete bits vanish, ranks re-track
    /// degrees). The epoch number is preserved — compaction changes the
    /// representation, not the graph.
    pub fn compact(&mut self) {
        counters().compactions.inc();
        self.base = Arc::clone(&self.current.graph);
        self.drift = 0;
        self.current.ordered = Arc::new(OrderedGraph::new(&self.base));
        self.current.index = Arc::new(EdgeIndex::build(&self.base, self.bits_per_edge));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_graph::generators::erdos_renyi_gnm;

    #[test]
    fn apply_advances_epochs_and_normalizes() {
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut dg = DeltaGraph::new(g, 8, DEFAULT_COMPACT_THRESHOLD);
        assert_eq!(dg.epoch(), 0);
        let out = dg
            .apply(&EdgeBatch {
                // (1, 2) already present, (4, 4) a self-loop, (3, 2) needs
                // normalization; delete (0, 4) is absent.
                insert: vec![(1, 2), (4, 4), (3, 2), (0, 3)],
                delete: vec![(0, 4), (0, 1)],
            })
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.inserted, vec![(0, 3)]);
        assert_eq!(out.deleted, vec![(0, 1)]);
        assert!(!out.compacted);
        let g1 = &dg.artifacts().graph;
        assert!(g1.has_edge(0, 3));
        assert!(!g1.has_edge(0, 1));
        assert!(g1.has_edge(2, 3), "normalized duplicate of existing edge must stay");
        assert_eq!(dg.overlay_len(), 2);
    }

    #[test]
    fn insert_wins_over_same_batch_delete() {
        let g = DataGraph::from_edges(4, &[(0, 1)]).unwrap();
        let mut dg = DeltaGraph::new(g, 8, DEFAULT_COMPACT_THRESHOLD);
        let out =
            dg.apply(&EdgeBatch { insert: vec![(2, 3)], delete: vec![(2, 3), (0, 1)] }).unwrap();
        assert_eq!(out.inserted, vec![(2, 3)]);
        assert_eq!(out.deleted, vec![(0, 1)]);
        assert!(dg.artifacts().graph.has_edge(2, 3));
    }

    #[test]
    fn out_of_range_mutation_is_rejected_atomically() {
        let g = DataGraph::from_edges(3, &[(0, 1)]).unwrap();
        let mut dg = DeltaGraph::new(g, 8, DEFAULT_COMPACT_THRESHOLD);
        let err = dg.apply(&EdgeBatch { insert: vec![(0, 2), (1, 9)], delete: vec![] });
        assert!(err.is_err());
        assert_eq!(dg.epoch(), 0);
        assert!(!dg.artifacts().graph.has_edge(0, 2), "failed apply must not mutate");
    }

    #[test]
    fn ranks_are_pinned_until_compaction_but_orientation_tracks_the_graph() {
        let g = erdos_renyi_gnm(50, 150, 5).unwrap();
        let mut dg = DeltaGraph::new(g, 8, DEFAULT_COMPACT_THRESHOLD);
        let pinned = Arc::clone(&dg.artifacts().ordered);
        for seed in 0..4u64 {
            let batches =
                psgl_graph::generators::dynamic_batches(&dg.artifacts().graph, 1, 6, 0.5, seed);
            dg.apply(&batches[0]).unwrap();
            let art = dg.artifacts();
            for v in art.graph.vertices() {
                assert_eq!(
                    pinned.rank(v),
                    art.ordered.rank(v),
                    "rank permutation must stay pinned across epochs"
                );
                // The rank-space lists are adjacency: they must hold the
                // *current* neighbor list in pinned ranks, split at the
                // current lower-rank count.
                let r = art.ordered.rank(v);
                let mut want: Vec<u32> =
                    art.graph.neighbors(v).iter().map(|&u| art.ordered.rank(u)).collect();
                want.sort_unstable();
                assert_eq!(
                    art.ordered.neighbors_of_rank(r),
                    want,
                    "rank-space list stale at epoch {} for vertex {v}",
                    art.epoch
                );
                let below = want.iter().filter(|&&x| x < r).count();
                assert_eq!(art.ordered.lower_of_rank(r), &want[..below]);
                assert_eq!(art.ordered.higher_of_rank(r), &want[below..]);
            }
        }
        dg.compact();
        assert_eq!(dg.overlay_len(), 0);
    }

    #[test]
    fn bloom_has_no_false_negatives_across_epochs() {
        let g = erdos_renyi_gnm(80, 300, 9).unwrap();
        let mut dg = DeltaGraph::new(g, 8, DEFAULT_COMPACT_THRESHOLD);
        for seed in 0..6u64 {
            let batches =
                psgl_graph::generators::dynamic_batches(&dg.artifacts().graph, 1, 10, 0.6, seed);
            dg.apply(&batches[0]).unwrap();
            let art = dg.artifacts();
            for (u, v) in art.graph.edges() {
                assert!(
                    art.index.may_contain(u, v),
                    "false negative for live edge {u}-{v} at epoch {}",
                    art.epoch
                );
            }
        }
    }

    #[test]
    fn overlay_threshold_triggers_compaction() {
        let g = erdos_renyi_gnm(60, 200, 3).unwrap();
        let mut dg = DeltaGraph::new(g, 8, 8);
        let mut compacted = false;
        for seed in 0..8u64 {
            let batches =
                psgl_graph::generators::dynamic_batches(&dg.artifacts().graph, 1, 4, 0.5, seed);
            let out = dg.apply(&batches[0]).unwrap();
            if out.compacted {
                compacted = true;
                assert_eq!(dg.overlay_len(), 0);
                // Rebuilt filter indexes exactly the live edges.
                assert_eq!(dg.artifacts().index.num_edges(), dg.artifacts().graph.num_edges());
            }
        }
        assert!(compacted, "threshold 8 must compact within 8 batches of ~4 mutations");
    }

    #[test]
    fn insert_then_delete_cancels_in_overlay() {
        let g = DataGraph::from_edges(4, &[(0, 1)]).unwrap();
        let mut dg = DeltaGraph::new(g, 8, DEFAULT_COMPACT_THRESHOLD);
        dg.apply(&EdgeBatch { insert: vec![(2, 3)], delete: vec![] }).unwrap();
        assert_eq!(dg.overlay_len(), 1);
        dg.apply(&EdgeBatch { insert: vec![], delete: vec![(2, 3)] }).unwrap();
        assert_eq!(dg.overlay_len(), 0, "insert+delete of the same edge must cancel");
        dg.apply(&EdgeBatch { insert: vec![], delete: vec![(0, 1)] }).unwrap();
        dg.apply(&EdgeBatch { insert: vec![(0, 1)], delete: vec![] }).unwrap();
        assert_eq!(dg.overlay_len(), 0, "delete+insert of a base edge must cancel");
    }
}
