//! Materialized-view maintenance: after a `mutate`, cached query results
//! are patched with the signed instance delta and re-keyed under the new
//! content hash instead of being discarded, and live `subscribe` streams
//! receive the same delta as an event.
//!
//! Correctness leans on the catalog's pinned-ordering invariant
//! ([`psgl_delta::overlay`]): between compactions every epoch of a graph
//! shares one total order, so a cached instance list patched with
//! `post = pre − dying + born` is bit-identical to a scratch recompute.
//! When a batch *does* compact (the ordering was rebuilt), patching would
//! be wrong — views are dropped and subscribers get a `resync` event
//! instead.

use crate::cache::{CachedQuery, ResultKey};
use crate::catalog::{GraphEntry, MutateOutcome};
use crate::json::Json;
use crate::protocol::ok_response;
use crate::state::ServiceState;
use psgl_core::PsglConfig;
use psgl_delta::{DeltaQuery, InstanceDelta};
use std::collections::HashMap;
use std::sync::Arc;

/// What one round of view maintenance did.
#[derive(Clone, Copy, Debug, Default)]
pub struct PatchStats {
    /// Cached entries patched and re-keyed under the new content hash.
    pub patched: u64,
    /// Cached entries dropped (incremental run failed, or compaction).
    pub dropped: u64,
}

/// Patches every cached result of the mutated graph with the batch's
/// signed instance delta and re-keys it under the new content hash.
/// Entries are grouped by `(canonical pattern, automorphism breaking)` —
/// the delta is identical for every config in a group (strategy, workers,
/// and seed route work, they never change the answer) — so the engine
/// runs once per group, not once per entry.
pub fn patch_cached_views(state: &ServiceState, outcome: &MutateOutcome) -> PatchStats {
    let taken = state.results.take_graph(outcome.previous.content_hash);
    if taken.is_empty() {
        return PatchStats::default();
    }
    if outcome.compacted {
        // The rebuilt ordering moved canonical representatives; patched
        // lists would disagree with future scratch runs. Drop everything.
        state.results.record_invalidations(taken.len() as u64);
        return PatchStats { patched: 0, dropped: taken.len() as u64 };
    }
    let pre = outcome.previous.artifacts();
    let post = outcome.entry.artifacts();
    let mut groups: HashMap<(String, bool), Vec<(ResultKey, CachedQuery)>> = HashMap::new();
    for (key, cached) in taken {
        let group = (key.pattern.clone(), cached.config.break_automorphisms);
        groups.entry(group).or_default().push((key, cached));
    }
    let mut stats = PatchStats::default();
    for group in groups.into_values() {
        let (_, exemplar) = &group[0];
        // The cached run's budget bounded a full enumeration; the delta
        // run is far smaller but differently shaped, so it gets to finish.
        let config = PsglConfig { gpsi_budget: None, ..exemplar.config.clone() };
        let delta = DeltaQuery::new(&exemplar.pattern, &config)
            .and_then(|q| q.delta(&pre, &post, &outcome.inserted, &outcome.deleted));
        let delta = match delta {
            Ok(delta) => delta,
            Err(_) => {
                state.results.record_invalidations(group.len() as u64);
                stats.dropped += group.len() as u64;
                continue;
            }
        };
        for (key, mut cached) in group {
            cached.count = (cached.count as i64 + delta.count_delta()).max(0) as u64;
            if let Some(instances) = cached.instances.take() {
                let patched = delta.patched(&instances);
                cached.count = patched.len() as u64;
                cached.instances = Some(Arc::new(patched));
            }
            let key = ResultKey { graph_hash: outcome.entry.content_hash, ..key };
            state.results.insert(key, cached);
            stats.patched += 1;
        }
    }
    stats
}

/// Pushes one event per live subscription of the mutated graph: a signed
/// `delta` event normally, a `resync` event when the batch compacted (the
/// subscriber's accumulated view is no longer patchable). Computes one
/// delta per distinct pattern. Returns how many subscribers were
/// notified; hung-up subscribers are unregistered.
pub fn notify_subscribers(state: &ServiceState, outcome: &MutateOutcome) -> u64 {
    let subs = state.subscriptions.for_graph(&outcome.entry.name);
    if subs.is_empty() {
        return 0;
    }
    let pre = outcome.previous.artifacts();
    let post = outcome.entry.artifacts();
    let mut deltas: HashMap<String, Option<InstanceDelta>> = HashMap::new();
    let mut notified = 0;
    for (id, pattern, canonical, sender) in subs {
        let event = if outcome.compacted {
            resync_event(&outcome.entry, "compacted")
        } else {
            let delta = deltas.entry(canonical).or_insert_with(|| {
                let config = PsglConfig::with_workers(state.defaults.workers).collect(true);
                DeltaQuery::new(&pattern, &config)
                    .and_then(|q| q.delta(&pre, &post, &outcome.inserted, &outcome.deleted))
                    .ok()
            });
            match delta {
                Some(delta) => delta_event(outcome, delta),
                None => resync_event(&outcome.entry, "delta_failed"),
            }
        };
        if sender.send(event).is_ok() {
            notified += 1;
        } else {
            state.subscriptions.unsubscribe(id);
        }
    }
    notified
}

/// Tells every subscriber of `entry`'s graph to re-list from scratch —
/// used when a reload replaces content (no delta exists between the old
/// and new graphs) and when compaction rebuilds the pinned ordering.
pub fn publish_resync(state: &ServiceState, entry: &GraphEntry, reason: &str) -> u64 {
    let mut notified = 0;
    for (id, _, _, sender) in state.subscriptions.for_graph(&entry.name) {
        if sender.send(resync_event(entry, reason)).is_ok() {
            notified += 1;
        } else {
            state.subscriptions.unsubscribe(id);
        }
    }
    notified
}

fn instance_rows(instances: &[Vec<psgl_graph::VertexId>]) -> Json {
    let row = |inst: &Vec<_>| Json::Arr(inst.iter().map(|&v| Json::from(v)).collect());
    Json::Arr(instances.iter().map(row).collect())
}

fn delta_event(outcome: &MutateOutcome, delta: &InstanceDelta) -> Json {
    ok_response([
        ("event", Json::from("delta")),
        ("graph", Json::from(outcome.entry.name.clone())),
        ("epoch", Json::from(outcome.entry.epoch)),
        ("content_hash", Json::from(format!("{:016x}", outcome.entry.content_hash))),
        ("parent_hash", Json::from(format!("{:016x}", outcome.previous.content_hash))),
        ("inserted_edges", Json::from(outcome.inserted.len())),
        ("deleted_edges", Json::from(outcome.deleted.len())),
        ("added", instance_rows(&delta.added)),
        ("removed", instance_rows(&delta.removed)),
        ("count_delta", Json::from(delta.count_delta())),
    ])
}

fn resync_event(entry: &GraphEntry, reason: &str) -> Json {
    ok_response([
        ("event", Json::from("resync")),
        ("graph", Json::from(entry.name.clone())),
        ("epoch", Json::from(entry.epoch)),
        ("content_hash", Json::from(format!("{:016x}", entry.content_hash))),
        ("reason", Json::from(reason)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::GraphFormat;
    use crate::protocol::parse_pattern_spec;
    use crate::scheduler::execute_query;
    use crate::state::QueryDefaults;
    use psgl_core::CancelToken;
    use psgl_graph::generators::EdgeBatch;

    fn karate_state() -> Arc<ServiceState> {
        let state = Arc::new(ServiceState::new(64, 64, QueryDefaults::default()));
        state.catalog.load("karate", "karate-club", GraphFormat::Fixture).unwrap();
        state
    }

    fn query() -> crate::protocol::QuerySpec {
        crate::protocol::QuerySpec {
            graph: "karate".into(),
            pattern_spec: "triangle".into(),
            pattern: parse_pattern_spec("triangle").unwrap(),
            workers: Some(2),
            strategy: None,
            init_vertex: None,
            seed: None,
            budget: None,
            use_index: true,
            break_automorphisms: true,
            no_cache: false,
            timeout_ms: None,
            checkpoint: false,
            query_id: None,
            resume: None,
            tenant: None,
            weight: None,
            stream: false,
        }
    }

    /// Deleting edge (0, 1) kills the triangles through it; the patched
    /// cache entry must agree with a scratch recompute, without the
    /// mutation path running a full enumeration.
    #[test]
    fn mutate_patches_cached_count_and_instances() {
        let state = karate_state();
        // Seed the cache with a count entry and a list entry.
        let count0 = execute_query(&state, &query(), false, &CancelToken::new()).unwrap();
        let list0 = execute_query(&state, &query(), true, &CancelToken::new()).unwrap();
        assert_eq!(count0.count, 45);
        assert_eq!(list0.instances.as_ref().unwrap().len(), 45);

        let outcome = state
            .catalog
            .mutate("karate", &EdgeBatch { insert: vec![], delete: vec![(0, 1)] })
            .unwrap();
        let stats = patch_cached_views(&state, &outcome);
        assert_eq!(stats.patched, 2);
        assert_eq!(stats.dropped, 0);

        // Both entries now answer for the *new* content hash as cache hits.
        let count1 = execute_query(&state, &query(), false, &CancelToken::new()).unwrap();
        assert!(count1.cache_hit, "patched count entry must be re-keyed");
        let list1 = execute_query(&state, &query(), true, &CancelToken::new()).unwrap();
        assert!(list1.cache_hit, "patched list entry must be re-keyed");
        assert_eq!(count1.count, list1.count);
        assert_eq!(list1.instances.as_ref().unwrap().len() as u64, list1.count);

        // Oracle: scratch recompute of the mutated graph.
        let mut scratch = query();
        scratch.no_cache = true;
        let oracle = execute_query(&state, &scratch, true, &CancelToken::new()).unwrap();
        assert_eq!(count1.count, oracle.count);
        assert_eq!(list1.instances.as_deref(), oracle.instances.as_deref());
    }

    #[test]
    fn subscribers_receive_signed_deltas_and_survive_peer_hangups() {
        let state = karate_state();
        let (_id, rx) =
            state.subscriptions.subscribe("karate".into(), parse_pattern_spec("triangle").unwrap());
        // A second subscriber that hangs up before the mutation lands.
        let (_dead_id, dead_rx) =
            state.subscriptions.subscribe("karate".into(), parse_pattern_spec("triangle").unwrap());
        drop(dead_rx);

        let outcome = state
            .catalog
            .mutate("karate", &EdgeBatch { insert: vec![], delete: vec![(0, 1)] })
            .unwrap();
        let notified = notify_subscribers(&state, &outcome);
        assert_eq!(notified, 1, "the hung-up subscriber must not count");
        assert_eq!(state.subscriptions.len(), 1, "the hung-up subscriber is unregistered");

        let event = rx.try_recv().expect("delta event");
        assert_eq!(event.get("event").and_then(Json::as_str), Some("delta"));
        assert_eq!(event.get("graph").and_then(Json::as_str), Some("karate"));
        assert_eq!(event.get("epoch").and_then(Json::as_u64), Some(1));
        let removed = event.get("removed").and_then(Json::as_arr).unwrap();
        assert!(!removed.is_empty(), "deleting (0,1) kills triangles");
        assert!(event.get("added").and_then(Json::as_arr).unwrap().is_empty());
        let count_delta = event.get("count_delta").and_then(Json::as_i64).unwrap();
        assert_eq!(count_delta, -(removed.len() as i64));
    }

    #[test]
    fn publish_resync_reaches_all_graph_subscribers() {
        let state = karate_state();
        let (_a, rx_a) =
            state.subscriptions.subscribe("karate".into(), parse_pattern_spec("triangle").unwrap());
        let (_b, _rx_other) =
            state.subscriptions.subscribe("other".into(), parse_pattern_spec("square").unwrap());
        let entry = state.catalog.get("karate").unwrap();
        assert_eq!(publish_resync(&state, &entry, "reload"), 1);
        let event = rx_a.try_recv().unwrap();
        assert_eq!(event.get("event").and_then(Json::as_str), Some("resync"));
        assert_eq!(event.get("reason").and_then(Json::as_str), Some("reload"));
    }
}
