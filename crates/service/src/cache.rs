//! Caches: a small LRU primitive, the per-(graph, pattern, config) result
//! cache, and the query-plan cache built on top of it.
//!
//! Result-cache keys start from [`DataGraph::content_hash`]
//! (`psgl_graph::DataGraph::content_hash`) rather than the catalog name,
//! so a reload that changes the graph can never serve stale counts; on
//! reload the server additionally drops entries for the replaced content
//! hash (see [`ResultCache::invalidate_graph`]).

use crate::json::Json;
use psgl_core::plan::QueryPlan;
use psgl_core::{PsglConfig, PsglError};
use psgl_graph::hash::FxHasher;
use psgl_graph::VertexId;
use psgl_pattern::{Pattern, PatternVertex};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A plain LRU map: `HashMap` plus a logical clock; eviction scans for the
/// stalest entry. O(n) eviction is fine at the capacities used here
/// (hundreds), and it keeps the structure obviously correct.
pub struct Lru<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates an LRU holding at most `cap` entries (`cap` 0 disables it).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru { cap, tick: 0, map: HashMap::new() }
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((value, used)) => {
                *used = tick;
                Some(value)
            }
            None => None,
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry if full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(stalest) =
                self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Keeps only entries whose key satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Removes and returns every entry whose key satisfies `pred`.
    pub fn extract(&mut self, mut pred: impl FnMut(&K) -> bool) -> Vec<(K, V)> {
        let keys: Vec<K> = self.map.keys().filter(|k| pred(k)).cloned().collect();
        keys.into_iter().filter_map(|k| self.map.remove(&k).map(|(v, _)| (k, v))).collect()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A stable, order-independent key string for a pattern: vertex count plus
/// the sorted edge set. Two specs that produce the same pattern graph with
/// the same vertex numbering share cache entries; vertex numbering is kept
/// because initial-vertex overrides and partial orders refer to it.
pub fn canonical_pattern(pattern: &Pattern) -> String {
    let mut edges: Vec<(PatternVertex, PatternVertex)> =
        pattern.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
    edges.sort_unstable();
    let mut out = format!("v{}:", pattern.num_vertices());
    for (i, (u, v)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{u}-{v}"));
    }
    out
}

/// Fingerprint of every config knob that can change a query's response
/// (count, collected instances, or reported engine counters).
pub fn config_fingerprint(config: &PsglConfig) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(config.workers as u64);
    match config.strategy {
        psgl_core::Strategy::Random => h.write_u8(0),
        psgl_core::Strategy::RouletteWheel => h.write_u8(1),
        psgl_core::Strategy::WorkloadAware { alpha } => {
            h.write_u8(2);
            h.write_u64(alpha.to_bits());
        }
    }
    h.write_u8(config.init_vertex.map_or(0xff, |v| v));
    h.write_u8(u8::from(config.break_automorphisms));
    h.write_u8(u8::from(config.use_edge_index));
    h.write_u64(config.index_bits_per_edge as u64);
    h.write_u8(u8::from(config.collect_instances));
    h.write_u64(config.gpsi_budget.map_or(u64::MAX, |b| b));
    h.write_u64(u64::from(config.max_supersteps));
    h.write_u64(config.seed);
    h.finish()
}

/// Result-cache key: graph content, canonical pattern, config fingerprint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ResultKey {
    /// [`psgl_graph::DataGraph::content_hash`] of the data graph.
    pub graph_hash: u64,
    /// [`canonical_pattern`] of the query pattern.
    pub pattern: String,
    /// [`config_fingerprint`] of the effective engine config.
    pub config_fp: u64,
}

/// A cached successful query outcome (errors are never cached).
///
/// Entries double as **materialized views**: they carry the pattern and
/// effective config they were computed under, so a graph mutation can
/// re-run the incremental engine, patch the count (and instance list,
/// when collected), and re-key the entry under the new content hash
/// instead of discarding it.
#[derive(Clone)]
pub struct CachedQuery {
    /// Instances found.
    pub count: u64,
    /// Collected instance tuples (list queries only); shared so cache hits
    /// don't copy result sets.
    pub instances: Option<Arc<Vec<Vec<VertexId>>>>,
    /// Gpsis generated by the original run.
    pub gpsis_generated: u64,
    /// Candidates pruned by the original run.
    pub pruned: u64,
    /// Supersteps of the original run.
    pub supersteps: usize,
    /// Initial pattern vertex the plan chose (0-based).
    pub init_vertex: PatternVertex,
    /// Selection rule, pre-rendered.
    pub selection_rule: String,
    /// The query pattern, kept for incremental view maintenance.
    pub pattern: Pattern,
    /// The effective engine config the result was computed under.
    pub config: PsglConfig,
}

/// Thread-safe LRU of query results with hit/miss counters.
pub struct ResultCache {
    lru: Mutex<Lru<ResultKey, CachedQuery>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// Creates a result cache holding at most `cap` queries.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(Lru::new(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Cache lookup, counting the hit or miss.
    pub fn get(&self, key: &ResultKey) -> Option<CachedQuery> {
        let mut lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
        match lru.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a successful outcome.
    pub fn insert(&self, key: ResultKey, value: CachedQuery) {
        self.lru.lock().unwrap_or_else(|e| e.into_inner()).insert(key, value);
    }

    /// Drops every entry computed against the given graph content — called
    /// when a catalog name is reloaded with new content, or when a
    /// mutation compacts its overlay (the rebuilt ordering invalidates
    /// order-keyed views). Returns how many entries were dropped.
    pub fn invalidate_graph(&self, graph_hash: u64) -> u64 {
        let mut lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
        let before = lru.len();
        lru.retain(|k| k.graph_hash != graph_hash);
        let dropped = (before - lru.len()) as u64;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Removes and returns every entry computed against the given graph
    /// content, for incremental patching and re-keying after a mutation.
    /// Entries the caller cannot patch should be reported through
    /// [`Self::record_invalidations`].
    pub fn take_graph(&self, graph_hash: u64) -> Vec<(ResultKey, CachedQuery)> {
        let mut lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
        lru.extract(|k| k.graph_hash == graph_hash)
    }

    /// Counts entries dropped outside [`Self::invalidate_graph`] (e.g.
    /// taken for patching but not re-inserted).
    pub fn record_invalidations(&self, dropped: u64) {
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// `(hits, misses, size, invalidations)` snapshot for the stats verb.
    pub fn stats(&self) -> (u64, u64, usize, u64) {
        let size = self.lru.lock().unwrap_or_else(|e| e.into_inner()).len();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            size,
            self.invalidations.load(Ordering::Relaxed),
        )
    }

    /// Stats snapshot as a JSON object.
    pub fn stats_json(&self) -> Json {
        let (hits, misses, size, invalidations) = self.stats();
        let total = hits + misses;
        let rate = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
        Json::obj([
            ("hits", Json::from(hits)),
            ("misses", Json::from(misses)),
            ("hit_rate", Json::from(rate)),
            ("size", Json::from(size)),
            ("invalidations", Json::from(invalidations)),
        ])
    }
}

/// Plan-cache key: plans depend on the pattern, the automorphism-breaking
/// toggle, an explicit initial vertex, and (through the degree histogram)
/// the graph content.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    graph_hash: u64,
    pattern: String,
    break_automorphisms: bool,
    init_vertex: Option<PatternVertex>,
}

/// Thread-safe LRU of prepared [`QueryPlan`]s (the planner cache: the
/// automorphism-broken order set and initial-vertex choice are computed
/// once per (pattern, graph) and reused).
pub struct PlanCache {
    lru: Mutex<Lru<PlanKey, Arc<QueryPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates a plan cache holding at most `cap` plans.
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            lru: Mutex::new(Lru::new(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached plan for `(graph_hash, pattern, config)` or
    /// prepares and caches it. The boolean reports whether it was a hit.
    pub fn get_or_prepare(
        &self,
        graph_hash: u64,
        pattern: &Pattern,
        config: &PsglConfig,
        degree_histogram: &[u64],
    ) -> Result<(Arc<QueryPlan>, bool), PsglError> {
        let key = PlanKey {
            graph_hash,
            pattern: canonical_pattern(pattern),
            break_automorphisms: config.break_automorphisms,
            init_vertex: config.init_vertex,
        };
        {
            let mut lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(plan) = lru.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(plan), true));
            }
        }
        // Prepare outside the lock: automorphism breaking is cheap but not
        // free, and concurrent first queries must not serialize on it.
        let plan = Arc::new(QueryPlan::prepare(pattern, config, degree_histogram)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.lru.lock().unwrap_or_else(|e| e.into_inner()).insert(key, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// `(hits, misses, size)` snapshot.
    pub fn stats(&self) -> (u64, u64, usize) {
        let size = self.lru.lock().unwrap_or_else(|e| e.into_inner()).len();
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed), size)
    }

    /// Stats snapshot as a JSON object.
    pub fn stats_json(&self) -> Json {
        let (hits, misses, size) = self.stats();
        Json::obj([
            ("hits", Json::from(hits)),
            ("misses", Json::from(misses)),
            ("size", Json::from(size)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_pattern::catalog;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(&10)); // refresh 1; 2 is now stalest
        lru.insert(3, 30);
        assert!(lru.get(&2).is_none());
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn canonical_pattern_is_spec_order_independent() {
        let a = crate::protocol::parse_pattern_spec("1-2,2-3,3-1").unwrap();
        let b = crate::protocol::parse_pattern_spec("3-1,1-2,2-3").unwrap();
        assert_eq!(canonical_pattern(&a), canonical_pattern(&b));
        assert_eq!(canonical_pattern(&catalog::triangle()), "v3:0-1,0-2,1-2");
        assert_ne!(canonical_pattern(&catalog::triangle()), canonical_pattern(&catalog::path(3)));
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = PsglConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()));
        let variants = [
            PsglConfig { workers: 8, ..base.clone() },
            PsglConfig { seed: 1, ..base.clone() },
            PsglConfig { use_edge_index: false, ..base.clone() },
            PsglConfig { break_automorphisms: false, ..base.clone() },
            PsglConfig { collect_instances: true, ..base.clone() },
            PsglConfig { gpsi_budget: Some(10), ..base.clone() },
            PsglConfig { init_vertex: Some(1), ..base.clone() },
            PsglConfig { strategy: psgl_core::Strategy::Random, ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(fp, config_fingerprint(v), "{v:?}");
        }
    }

    #[test]
    fn result_cache_counts_and_invalidates() {
        let cache = ResultCache::new(8);
        let key =
            |g: u64| ResultKey { graph_hash: g, pattern: "v3:0-1,0-2,1-2".into(), config_fp: 7 };
        let value = CachedQuery {
            count: 45,
            instances: None,
            gpsis_generated: 100,
            pruned: 50,
            supersteps: 4,
            init_vertex: 0,
            selection_rule: "DeterministicLowestRank".into(),
            pattern: catalog::triangle(),
            config: PsglConfig::default(),
        };
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), value.clone());
        cache.insert(key(2), value);
        assert_eq!(cache.get(&key(1)).unwrap().count, 45);
        assert_eq!(cache.invalidate_graph(1), 1);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
        let (hits, misses, size, invalidations) = cache.stats();
        assert_eq!((hits, misses, size, invalidations), (2, 2, 1, 1));
    }

    #[test]
    fn take_graph_extracts_entries_for_rekeying() {
        let cache = ResultCache::new(8);
        let key =
            |g: u64, fp: u64| ResultKey { graph_hash: g, pattern: "v2:0-1".into(), config_fp: fp };
        let value = CachedQuery {
            count: 10,
            instances: None,
            gpsis_generated: 1,
            pruned: 0,
            supersteps: 1,
            init_vertex: 0,
            selection_rule: "Fixed".into(),
            pattern: catalog::path(2),
            config: PsglConfig::default(),
        };
        cache.insert(key(1, 7), value.clone());
        cache.insert(key(1, 8), value.clone());
        cache.insert(key(2, 7), value);
        let taken = cache.take_graph(1);
        assert_eq!(taken.len(), 2);
        assert!(taken.iter().all(|(k, _)| k.graph_hash == 1));
        // Taken entries are gone; the other graph's entry survives.
        assert!(cache.get(&key(1, 7)).is_none());
        assert!(cache.get(&key(2, 7)).is_some());
        // Re-keying under a new hash makes them reachable again.
        for (k, v) in taken {
            cache.insert(ResultKey { graph_hash: 3, ..k }, v);
        }
        assert!(cache.get(&key(3, 7)).is_some());
        assert!(cache.get(&key(3, 8)).is_some());
        cache.record_invalidations(2);
        assert_eq!(cache.stats().3, 2);
    }

    #[test]
    fn plan_cache_reuses_plans_per_graph_and_config() {
        let plans = PlanCache::new(16);
        let hist = vec![0u64, 2, 4, 8, 4, 2];
        let config = PsglConfig::default();
        let p = catalog::square();
        let (first, hit) = plans.get_or_prepare(1, &p, &config, &hist).unwrap();
        assert!(!hit);
        let (second, hit) = plans.get_or_prepare(1, &p, &config, &hist).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        // Different graph or toggled breaking → different plan entry.
        let (_, hit) = plans.get_or_prepare(2, &p, &config, &hist).unwrap();
        assert!(!hit);
        let no_break = PsglConfig { break_automorphisms: false, ..config };
        let (third, hit) = plans.get_or_prepare(1, &p, &no_break, &hist).unwrap();
        assert!(!hit);
        assert!(third.order.constraints().is_empty());
        assert_eq!(plans.stats(), (1, 3, 3));
    }
}
