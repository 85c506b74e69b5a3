//! The graph catalog: named graphs loaded once, with their expensive
//! per-graph artifacts precomputed and shared — now with an in-place
//! mutation path.
//!
//! The paper's offline phase builds a degree-ordered view and the bloom
//! edge index per data graph; a long-running server must not repeat that
//! per query. Each [`GraphEntry`] owns the graph plus `Arc`'d artifacts
//! that [`psgl_core::PsglShared::from_parts`] can borrow per run.
//!
//! The `mutate` verb advances a catalog name one epoch per edge batch,
//! backed by a per-name [`DeltaGraph`]: the total order stays pinned and
//! the bloom index grows incrementally between compactions (see
//! [`psgl_delta::overlay`]), so the service can patch cached results and
//! stream signed instance deltas instead of recomputing. Entries form a
//! **version chain**: each mutated entry records the content hash it was
//! derived from in [`GraphEntry::parent_hash`].

use crate::error::{LoadError, ServiceError};
use crate::loader::{load_graph, GraphFormat};
use psgl_core::EdgeIndex;
use psgl_delta::overlay::DEFAULT_COMPACT_THRESHOLD;
use psgl_delta::{DeltaGraph, EpochArtifacts};
use psgl_graph::generators::EdgeBatch;
use psgl_graph::{DataGraph, DegreeStats, OrderedGraph, VertexId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Bloom-filter precision used for catalog-built edge indexes (the
/// default of [`psgl_core::PsglConfig`]).
const INDEX_BITS_PER_EDGE: usize = 10;

/// A loaded graph with its precomputed run artifacts.
pub struct GraphEntry {
    /// Catalog name.
    pub name: String,
    /// The data graph itself (`Arc` so mutated epochs can share snapshots
    /// with the delta overlay that produced them).
    pub graph: Arc<DataGraph>,
    /// Degree-based total order (Section 3), shared across runs — and
    /// pinned across mutation epochs until a compaction.
    pub ordered: Arc<OrderedGraph>,
    /// Bloom edge index (Section 5.2.3), shared across runs.
    pub index: Arc<EdgeIndex>,
    /// Degree histogram for initial-vertex selection cost models.
    pub histogram: Vec<u64>,
    /// Structural fingerprint ([`DataGraph::content_hash`]) — result-cache
    /// key component.
    pub content_hash: u64,
    /// Content hash of the entry this one was mutated from (`None` for
    /// loaded entries) — the per-graph version chain.
    pub parent_hash: Option<u64>,
    /// Bumped each time this name is reloaded with new content or mutated.
    pub epoch: u64,
    /// Wall-clock milliseconds the load (or mutation) + preparation took.
    pub load_ms: f64,
    /// Where it was loaded from.
    pub path: String,
}

impl GraphEntry {
    /// This entry's graph-side artifacts in the shape the incremental
    /// engine borrows ([`psgl_delta::DeltaQuery`]).
    pub fn artifacts(&self) -> EpochArtifacts {
        EpochArtifacts {
            epoch: self.epoch,
            graph: Arc::clone(&self.graph),
            ordered: Arc::clone(&self.ordered),
            index: Arc::clone(&self.index),
        }
    }
}

/// Thread-safe name → [`GraphEntry`] map plus per-name mutation overlays.
#[derive(Default)]
pub struct GraphCatalog {
    inner: RwLock<HashMap<String, Arc<GraphEntry>>>,
    /// Per-name delta overlays carrying insert/delete state between
    /// compactions. Also the mutation serializer: `mutate` and the
    /// map-replacing part of `load` hold this lock, so entry swaps and
    /// overlay updates stay consistent.
    overlays: Mutex<HashMap<String, DeltaGraph>>,
}

/// What [`GraphCatalog::load`] reports back.
pub struct LoadOutcome {
    /// The freshly loaded entry (or the surviving one, when the reload
    /// brought identical content).
    pub entry: Arc<GraphEntry>,
    /// Content hash of the entry this load replaced, if the name was
    /// already present **with different content** — the result cache
    /// drops those entries. A same-content reload is a no-op and leaves
    /// this `None`, so cached results survive.
    pub replaced_hash: Option<u64>,
    /// Whether the name was already loaded with identical content (the
    /// reload was a no-op).
    pub same_content: bool,
}

/// What [`GraphCatalog::mutate`] reports back.
pub struct MutateOutcome {
    /// The new entry (one epoch past `previous`).
    pub entry: Arc<GraphEntry>,
    /// The entry the mutation was applied to.
    pub previous: Arc<GraphEntry>,
    /// Effective insertions (normalized, `u < v`, sorted).
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Effective deletions (normalized, `u < v`, sorted).
    pub deleted: Vec<(VertexId, VertexId)>,
    /// Whether this batch triggered a compaction: the pinned ordering was
    /// rebuilt, so order-keyed caches and views must be dropped, not
    /// patched.
    pub compacted: bool,
}

impl std::fmt::Debug for MutateOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutateOutcome")
            .field("graph", &self.entry.name)
            .field("epoch", &self.entry.epoch)
            .field("content_hash", &format_args!("{:016x}", self.entry.content_hash))
            .field("parent_hash", &format_args!("{:016x}", self.previous.content_hash))
            .field("inserted", &self.inserted.len())
            .field("deleted", &self.deleted.len())
            .field("compacted", &self.compacted)
            .finish()
    }
}

impl GraphCatalog {
    /// Creates an empty catalog.
    pub fn new() -> GraphCatalog {
        GraphCatalog::default()
    }

    /// Loads (or reloads) `path` under `name`, precomputing the ordered
    /// view, edge index, and degree histogram. Reloading content identical
    /// to what the name already holds is a no-op: the existing entry (and
    /// every cache keyed to its content hash) survives untouched.
    pub fn load(
        &self,
        name: &str,
        path: &str,
        format: GraphFormat,
    ) -> Result<LoadOutcome, LoadError> {
        let start = Instant::now();
        let graph = load_graph(path, format)?;
        let content_hash = graph.content_hash();
        // Lock order: overlays before the entry map (same as `mutate`).
        let mut overlays = self.overlays.lock().unwrap_or_else(|e| e.into_inner());
        let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(previous) = map.get(name) {
            if previous.content_hash == content_hash {
                return Ok(LoadOutcome {
                    entry: Arc::clone(previous),
                    replaced_hash: None,
                    same_content: true,
                });
            }
        }
        let ordered = Arc::new(OrderedGraph::new(&graph));
        let index = Arc::new(EdgeIndex::build(&graph, INDEX_BITS_PER_EDGE));
        let histogram = DegreeStats::of_graph(&graph).histogram;
        let previous = map.get(name);
        let epoch = previous.map_or(0, |e| e.epoch + 1);
        let replaced_hash = previous.map(|e| e.content_hash);
        let entry = Arc::new(GraphEntry {
            name: name.to_string(),
            graph: Arc::new(graph),
            ordered,
            index,
            histogram,
            content_hash,
            parent_hash: None,
            epoch,
            load_ms: start.elapsed().as_secs_f64() * 1e3,
            path: path.to_string(),
        });
        map.insert(name.to_string(), Arc::clone(&entry));
        // New content invalidates any accumulated overlay state.
        overlays.remove(name);
        Ok(LoadOutcome { entry, replaced_hash, same_content: false })
    }

    /// Applies one edge batch to `name`, advancing it one epoch. The new
    /// entry keeps its parent's pinned rank permutation (until the overlay
    /// compacts; the ordered view's rank-space adjacency tracks each epoch's
    /// snapshot) and records the parent's content hash, forming the
    /// version chain the server uses to patch caches and notify
    /// subscribers.
    pub fn mutate(&self, name: &str, batch: &EdgeBatch) -> Result<MutateOutcome, ServiceError> {
        let start = Instant::now();
        let mut overlays = self.overlays.lock().unwrap_or_else(|e| e.into_inner());
        let previous =
            self.get(name).ok_or_else(|| ServiceError::GraphNotFound(name.to_string()))?;
        let overlay = overlays.entry(name.to_string()).or_insert_with(|| {
            DeltaGraph::from_artifacts(
                Arc::clone(&previous.graph),
                Arc::clone(&previous.ordered),
                Arc::clone(&previous.index),
                previous.epoch,
                INDEX_BITS_PER_EDGE,
                DEFAULT_COMPACT_THRESHOLD,
            )
        });
        let out = overlay.apply(batch).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let art = overlay.artifacts();
        let entry = Arc::new(GraphEntry {
            name: name.to_string(),
            graph: Arc::clone(&art.graph),
            ordered: Arc::clone(&art.ordered),
            index: Arc::clone(&art.index),
            histogram: DegreeStats::of_graph(&art.graph).histogram,
            content_hash: art.graph.content_hash(),
            parent_hash: Some(previous.content_hash),
            epoch: out.epoch,
            load_ms: start.elapsed().as_secs_f64() * 1e3,
            path: previous.path.clone(),
        });
        let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), Arc::clone(&entry));
        Ok(MutateOutcome {
            entry,
            previous,
            inserted: out.inserted,
            deleted: out.deleted,
            compacted: out.compacted,
        })
    }

    /// Looks up a graph by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).get(name).cloned()
    }

    /// Number of graphs loaded.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all entries, sorted by name (for the stats verb).
    pub fn entries(&self) -> Vec<Arc<GraphEntry>> {
        let map = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<_> = map.values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_precomputes_artifacts_and_same_content_reload_is_a_noop() {
        let catalog = GraphCatalog::new();
        let out = catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
        assert_eq!(out.entry.epoch, 0);
        assert!(out.replaced_hash.is_none());
        assert!(!out.same_content);
        assert_eq!(out.entry.graph.num_vertices(), 34);
        assert_eq!(out.entry.histogram.iter().sum::<u64>(), 34);
        assert!(out.entry.index.may_contain(0, 1)); // real edge never false
        assert!(out.entry.parent_hash.is_none());
        // Reloading identical content keeps the existing entry: epoch and
        // content hash unchanged, no invalidation hash reported.
        let again = catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
        assert!(again.same_content);
        assert_eq!(again.entry.epoch, 0);
        assert!(again.replaced_hash.is_none());
        assert!(Arc::ptr_eq(&out.entry, &again.entry), "no-op reload keeps the entry");
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn reload_with_different_content_bumps_epoch_and_reports_replaced_hash() {
        let catalog = GraphCatalog::new();
        let out = catalog.load("g", "karate-club", GraphFormat::Fixture).unwrap();
        let changed = catalog.load("g", "paper-figure1", GraphFormat::Fixture).unwrap();
        assert!(!changed.same_content);
        assert_eq!(changed.entry.epoch, 1);
        assert_eq!(changed.replaced_hash, Some(out.entry.content_hash));
        assert_ne!(changed.entry.content_hash, out.entry.content_hash);
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn lookup_misses_are_none_and_entries_sorted() {
        let catalog = GraphCatalog::new();
        assert!(catalog.get("nope").is_none());
        assert!(catalog.is_empty());
        catalog.load("b", "karate-club", GraphFormat::Fixture).unwrap();
        catalog.load("a", "paper-figure1", GraphFormat::Fixture).unwrap();
        let names: Vec<_> = catalog.entries().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(catalog.get("a").is_some());
    }

    #[test]
    fn load_failure_leaves_catalog_unchanged() {
        let catalog = GraphCatalog::new();
        assert!(catalog.load("g", "/missing/file.txt", GraphFormat::EdgeList).is_err());
        assert!(catalog.is_empty());
    }

    #[test]
    fn mutate_advances_the_version_chain_with_pinned_ordering() {
        let catalog = GraphCatalog::new();
        let base = catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap().entry;
        let out = catalog
            .mutate("karate", &EdgeBatch { insert: vec![(4, 5)], delete: vec![(0, 1)] })
            .unwrap();
        assert_eq!(out.entry.epoch, 1);
        assert_eq!(out.inserted, vec![(4, 5)]);
        assert_eq!(out.deleted, vec![(0, 1)]);
        assert!(!out.compacted);
        assert_eq!(out.entry.parent_hash, Some(base.content_hash));
        assert_ne!(out.entry.content_hash, base.content_hash);
        for v in out.entry.graph.vertices() {
            assert_eq!(
                out.entry.ordered.rank(v),
                base.ordered.rank(v),
                "rank permutation pinned across epochs"
            );
        }
        assert!(out.entry.graph.has_edge(4, 5));
        assert!(!out.entry.graph.has_edge(0, 1));
        // The catalog serves the new epoch; a second mutation chains on it.
        let current = catalog.get("karate").unwrap();
        assert!(Arc::ptr_eq(&current, &out.entry));
        let next = catalog
            .mutate("karate", &EdgeBatch { insert: vec![(0, 1)], delete: vec![(4, 5)] })
            .unwrap();
        assert_eq!(next.entry.epoch, 2);
        assert_eq!(next.entry.parent_hash, Some(out.entry.content_hash));
        // Reverting the batch restores the original content hash — the
        // chain tracks history, the hash tracks content.
        assert_eq!(next.entry.content_hash, base.content_hash);
    }

    #[test]
    fn mutate_unknown_graph_or_bad_edge_fails_cleanly() {
        let catalog = GraphCatalog::new();
        assert_eq!(
            catalog
                .mutate("nope", &EdgeBatch { insert: vec![(0, 1)], delete: vec![] })
                .unwrap_err()
                .code(),
            "not_found"
        );
        catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
        let err = catalog
            .mutate("karate", &EdgeBatch { insert: vec![(0, 999)], delete: vec![] })
            .unwrap_err();
        assert_eq!(err.code(), "bad_request");
        assert_eq!(catalog.get("karate").unwrap().epoch, 0, "failed mutate must not advance");
    }

    #[test]
    fn reload_resets_mutation_overlay_state() {
        let catalog = GraphCatalog::new();
        catalog.load("g", "karate-club", GraphFormat::Fixture).unwrap();
        catalog.mutate("g", &EdgeBatch { insert: vec![], delete: vec![(0, 1)] }).unwrap();
        // Different content: replaces the entry and drops the overlay.
        let reloaded = catalog.load("g", "paper-figure1", GraphFormat::Fixture).unwrap();
        assert!(!reloaded.same_content);
        let out = catalog.mutate("g", &EdgeBatch { insert: vec![], delete: vec![(0, 1)] }).unwrap();
        for v in out.entry.graph.vertices() {
            assert_eq!(
                out.entry.ordered.rank(v),
                reloaded.entry.ordered.rank(v),
                "fresh overlay pins the reloaded entry's rank order"
            );
        }
    }
}
