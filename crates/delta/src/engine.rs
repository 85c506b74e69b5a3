//! Delta-restricted expansion: signed instance deltas from seeded frontiers.
//!
//! After a mutation batch, an instance can appear only if it contains an
//! inserted edge and disappear only if it contained a deleted edge. So
//! instead of re-listing the whole graph, [`DeltaQuery`] seeds the BSP
//! frontier with exactly the partial instances that bind a changed edge and
//! lets the unmodified superstep loop finish them:
//!
//! - for each changed data edge `(u, v)`, each pattern edge `(a, b)`, and
//!   both orientations, a seed Gpsi maps `a ↦ u, b ↦ v` (both GRAY);
//! - the partial-order constraint between `a` and `b` is checked at seed
//!   time — it is the one pair the expansion kernel will never see as a
//!   candidate, since both endpoints are pre-bound. Every other pruning
//!   rule (injectivity, order, degree, exact edge verification) runs
//!   inside the ordinary expansion;
//! - the seed edge is *not* pre-verified: the first expansion's exact GRAY
//!   membership check verifies it against the target snapshot, so a seed
//!   can never smuggle in a nonexistent edge.
//!
//! **Dying** instances are enumerated by seeding the deleted edges against
//! the *pre*-delta snapshot (where they still exist); **born** instances by
//! seeding the inserted edges against the *post* snapshot. For a normalized
//! batch (inserts and deletes disjoint, each effective) the two sets are
//! disjoint and `post = pre − dying + born` holds exactly.
//!
//! An instance containing `j` changed edges is completed once per seed that
//! binds one of them — `j` identical mapping vectors — so each direction
//! sorts and deduplicates. Within one seed no duplicates arise (expansion
//! paths from a fixed Gpsi are unique), and two distinct seeds only meet at
//! instances containing both their changed edges.

use crate::overlay::EpochArtifacts;
use psgl_core::{
    run, Gpsi, PsglConfig, PsglError, PsglShared, QueryPlan, RunRequest, RunnerHooks, Start,
};
use psgl_graph::VertexId;
use psgl_pattern::Pattern;
use std::borrow::Cow;
use std::sync::Arc;

/// The signed result of one mutation batch for one query: instances that
/// appeared and instances that disappeared, as sorted deduplicated mapping
/// vectors (pattern-vertex order, like
/// [`ListingResult::instances`](psgl_core::ListingResult)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceDelta {
    /// Instances of the post-delta graph containing ≥ 1 inserted edge.
    pub added: Vec<Vec<VertexId>>,
    /// Instances of the pre-delta graph containing ≥ 1 deleted edge.
    pub removed: Vec<Vec<VertexId>>,
}

impl InstanceDelta {
    /// Net change in instance count.
    pub fn count_delta(&self) -> i64 {
        self.added.len() as i64 - self.removed.len() as i64
    }

    /// Whether the batch changed no instances.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Patches a sorted instance list in place: drops `removed`, merges
    /// `added`, leaves the list sorted. This is the materialized-view
    /// update — `patch(pre_instances) == post_instances` when the list and
    /// the delta were produced under the same pinned ordering.
    pub fn patch(&self, instances: &mut Vec<Vec<VertexId>>) {
        let view = std::mem::take(instances);
        *instances = self.merge(view.into_iter().map(Cow::Owned));
    }

    /// [`patch`](Self::patch) of a shared list: the patched copy, built
    /// in the same pass that reads `instances`.
    pub fn patched(&self, instances: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
        self.merge(instances.iter().map(Cow::Borrowed))
    }

    /// One linear merge of three sorted lists: every element of `view`
    /// not in `removed` (all copies of it), and every element of `added`.
    fn merge<'a>(
        &self,
        view: impl ExactSizeIterator<Item = Cow<'a, Vec<VertexId>>>,
    ) -> Vec<Vec<VertexId>> {
        debug_assert!(self.added.is_sorted() && self.removed.is_sorted());
        let mut out = Vec::with_capacity(view.len() + self.added.len());
        let mut dead = self.removed.iter().peekable();
        let mut born = self.added.iter().peekable();
        for inst in view {
            let i: &Vec<VertexId> = &inst;
            while dead.next_if(|&d| d < i).is_some() {}
            if dead.peek() == Some(&i) {
                continue;
            }
            while let Some(a) = born.next_if(|&a| a <= i) {
                out.push(a.clone());
            }
            out.push(inst.into_owned());
        }
        out.extend(born.cloned());
        debug_assert!(out.is_sorted(), "patched a view that was not sorted");
        out
    }
}

/// Builds the delta-restricted seed frontier for one direction: one Gpsi
/// per (changed edge × pattern edge × orientation) that survives the
/// seed-time prunes. Exposed for tests and diagnostics; [`DeltaQuery`]
/// drives it through the engine.
pub fn seed_frontier(shared: &PsglShared<'_>, changed: &[(VertexId, VertexId)]) -> Vec<Gpsi> {
    let p = &shared.pattern;
    let mut seeds = Vec::new();
    for &(u0, v0) in changed {
        if u0 == v0 {
            continue;
        }
        for (a, b) in p.edges() {
            for (u, v) in [(u0, v0), (v0, u0)] {
                // Degree prune (rule 1a) for the pre-bound pair — an
                // optimization only; an undersized endpoint would die in
                // expansion anyway.
                if shared.graph.degree(u) < p.degree(a) || shared.graph.degree(v) < p.degree(b) {
                    continue;
                }
                // Partial order between the pre-bound pair (rule 1b): the
                // one constraint expansion can never check, because
                // neither endpoint is ever a candidate.
                if shared.order.requires_less(a, b) && !shared.ordered.less(u, v) {
                    continue;
                }
                if shared.order.requires_less(b, a) && !shared.ordered.less(v, u) {
                    continue;
                }
                if !shared.label_ok(a, u) || !shared.label_ok(b, v) {
                    continue;
                }
                let mut g = Gpsi::initial(a, u);
                g.assign(b, v);
                // Expand the endpoint that grows the instance (has WHITE
                // pattern neighbors); a connected pattern with > 2
                // vertices always has one. For a single-edge pattern the
                // expansion is verification-only and emits directly.
                let grows = |x, partner| p.neighbors(x).any(|y| y != partner);
                if !grows(a, b) && grows(b, a) {
                    g.set_expanding(b);
                } // else Gpsi::initial already set `a` expanding
                seeds.push(g);
            }
        }
    }
    seeds
}

/// A reusable incremental query: pattern-side plan plus run configuration.
/// One `DeltaQuery` serves every epoch of a graph — the plan is
/// graph-independent and each [`Self::delta`] call borrows the epoch
/// artifacts it runs against.
pub struct DeltaQuery {
    plan: QueryPlan,
    config: PsglConfig,
}

impl DeltaQuery {
    /// Prepares an incremental query for `pattern`. The initial-vertex
    /// selection of full runs is irrelevant here (seeds pre-bind two
    /// vertices), so preparation needs no degree histogram.
    pub fn new(pattern: &Pattern, config: &PsglConfig) -> Result<DeltaQuery, PsglError> {
        // Pin the init vertex so QueryPlan::prepare never consults the
        // (absent) histogram via the cost model; seeded runs ignore it.
        let plan_config = PsglConfig { init_vertex: Some(0), ..config.clone() };
        let plan = QueryPlan::prepare(pattern, &plan_config, &[])?;
        Ok(DeltaQuery::from_plan(plan, config))
    }

    /// Wraps an existing plan (the service path, where plans are cached).
    pub fn from_plan(plan: QueryPlan, config: &PsglConfig) -> DeltaQuery {
        // Signed deltas need the actual mapping vectors.
        let config = PsglConfig { collect_instances: true, ..config.clone() };
        DeltaQuery { plan, config }
    }

    /// The pattern-side plan this query runs.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Computes the signed instance delta of one normalized mutation batch:
    /// `deleted` edges are enumerated against the `pre` snapshot (dying
    /// instances), `inserted` edges against the `post` snapshot (born
    /// instances). Both artifact sets must share the same pinned ordering
    /// (see [`crate::overlay`]) — [`crate::DeltaGraph::apply`] guarantees
    /// that between compactions.
    pub fn delta(
        &self,
        pre: &EpochArtifacts,
        post: &EpochArtifacts,
        inserted: &[(VertexId, VertexId)],
        deleted: &[(VertexId, VertexId)],
    ) -> Result<InstanceDelta, PsglError> {
        self.delta_with_hooks(pre, post, inserted, deleted, &RunnerHooks::default())
    }

    /// [`Self::delta`] under explicit [`RunnerHooks`] — the entry point the
    /// simulation harness uses to drive the incremental path through an
    /// adversarial, deterministic schedule.
    pub fn delta_with_hooks(
        &self,
        pre: &EpochArtifacts,
        post: &EpochArtifacts,
        inserted: &[(VertexId, VertexId)],
        deleted: &[(VertexId, VertexId)],
        hooks: &RunnerHooks<'_>,
    ) -> Result<InstanceDelta, PsglError> {
        let removed = self.direction(pre, deleted, hooks)?;
        let added = self.direction(post, inserted, hooks)?;
        Ok(InstanceDelta { added, removed })
    }

    /// Full (non-incremental) listing against one epoch's artifacts, under
    /// the same pinned ordering — the scratch-recompute oracle that
    /// incremental results are compared against, and the path that
    /// initializes a materialized view.
    pub fn full(&self, art: &EpochArtifacts) -> Result<Vec<Vec<VertexId>>, PsglError> {
        let shared = self.shared(art);
        let result = psgl_core::list_subgraphs_prepared(&shared, &self.config)?;
        Ok(result.instances.unwrap_or_default())
    }

    fn shared<'g>(&self, art: &'g EpochArtifacts) -> PsglShared<'g> {
        PsglShared::from_parts(
            &art.graph,
            Arc::clone(&art.ordered),
            self.config.use_edge_index.then(|| Arc::clone(&art.index)),
            &self.plan,
        )
    }

    fn direction(
        &self,
        art: &EpochArtifacts,
        changed: &[(VertexId, VertexId)],
        hooks: &RunnerHooks<'_>,
    ) -> Result<Vec<Vec<VertexId>>, PsglError> {
        if changed.is_empty() {
            return Ok(Vec::new());
        }
        let shared = self.shared(art);
        let seeds = seed_frontier(&shared, changed);
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let request =
            RunRequest { start: Start::Seeds(seeds), hooks: hooks.clone(), ..Default::default() };
        let result = run(&shared, &self.config, request)?.completed();
        let mut instances = result.instances.unwrap_or_default();
        // An instance with j changed edges arrives once per seed binding
        // one of them; the engine already sorts, so dedup is exact.
        instances.dedup();
        Ok(instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{DeltaGraph, DEFAULT_COMPACT_THRESHOLD};
    use psgl_core::Strategy;
    use psgl_graph::fixtures::karate_stream;
    use psgl_graph::generators::{dynamic_batches, erdos_renyi_gnm};
    use psgl_pattern::catalog;

    fn config() -> PsglConfig {
        PsglConfig::with_workers(4).collect(true)
    }

    /// Drives `batches` through a DeltaGraph, checking after every batch
    /// that patching the running instance list with the incremental delta
    /// reproduces a scratch recompute bit-for-bit.
    fn assert_incremental_parity(
        base: psgl_graph::DataGraph,
        batches: &[psgl_graph::generators::EdgeBatch],
        pattern: &Pattern,
        config: &PsglConfig,
    ) {
        let query = DeltaQuery::new(pattern, config).unwrap();
        let mut dg = DeltaGraph::new(base, 10, DEFAULT_COMPACT_THRESHOLD);
        let mut view = query.full(dg.artifacts()).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let pre = dg.artifacts().clone();
            let out = dg.apply(batch).unwrap();
            let delta = query.delta(&pre, dg.artifacts(), &out.inserted, &out.deleted).unwrap();
            delta.patch(&mut view);
            let scratch = query.full(dg.artifacts()).unwrap();
            assert_eq!(
                view,
                scratch,
                "{} parity broke at batch {i} (+{} −{})",
                pattern.name(),
                delta.added.len(),
                delta.removed.len()
            );
        }
    }

    #[test]
    fn karate_stream_parity_for_paper_patterns() {
        for pattern in
            [catalog::triangle(), catalog::square(), catalog::tailed_triangle(), catalog::path(4)]
        {
            let (base, batches) = karate_stream();
            assert_incremental_parity(base, &batches, &pattern, &config());
        }
    }

    #[test]
    fn single_edge_pattern_delta_is_the_edge_delta() {
        // path(2) instances are exactly the edges (canonical orientation),
        // and its seeds are already complete: the verification-only
        // expansion path must emit them.
        let (base, batches) = karate_stream();
        let query = DeltaQuery::new(&catalog::path(2), &config()).unwrap();
        let mut dg = DeltaGraph::new(base, 10, DEFAULT_COMPACT_THRESHOLD);
        let pre = dg.artifacts().clone();
        let out = dg.apply(&batches[0]).unwrap();
        let delta = query.delta(&pre, dg.artifacts(), &out.inserted, &out.deleted).unwrap();
        assert_eq!(delta.added.len(), out.inserted.len());
        assert_eq!(delta.removed.len(), out.deleted.len());
        for inst in delta.added.iter().chain(delta.removed.iter()) {
            assert_eq!(inst.len(), 2);
        }
    }

    #[test]
    fn all_five_strategies_agree_on_random_dynamic_graph() {
        let base = erdos_renyi_gnm(70, 280, 13).unwrap();
        let batches = dynamic_batches(&base, 3, 8, 0.5, 99);
        for (_, strategy) in Strategy::paper_variants() {
            assert_incremental_parity(
                base.clone(),
                &batches,
                &catalog::triangle(),
                &config().strategy(strategy),
            );
        }
    }

    #[test]
    fn delta_without_index_matches_delta_with_index() {
        let base = erdos_renyi_gnm(60, 240, 5).unwrap();
        let batches = dynamic_batches(&base, 2, 10, 0.5, 17);
        for with_index in [true, false] {
            assert_incremental_parity(
                base.clone(),
                &batches,
                &catalog::square(),
                &config().edge_index(with_index),
            );
        }
    }

    #[test]
    fn compiled_kernels_match_generic_delta_per_batch() {
        // Per-batch kernel parity: the incremental engine routed through
        // plan-selected compiled kernels must produce the same added and
        // removed instance multisets as the generic odometer, batch by
        // batch, and still match the scratch recompute.
        let base = erdos_renyi_gnm(70, 300, 29).unwrap();
        let batches = dynamic_batches(&base, 4, 8, 0.5, 43);
        for pattern in [catalog::triangle(), catalog::square(), catalog::tailed_triangle()] {
            for kernels in [true, false] {
                assert_incremental_parity(
                    base.clone(),
                    &batches,
                    &pattern,
                    &config().kernels(kernels),
                );
            }
            let on = DeltaQuery::new(&pattern, &config().kernels(true)).unwrap();
            let off = DeltaQuery::new(&pattern, &config().kernels(false)).unwrap();
            let mut dg = DeltaGraph::new(base.clone(), 10, DEFAULT_COMPACT_THRESHOLD);
            for (i, batch) in batches.iter().enumerate() {
                let pre = dg.artifacts().clone();
                let out = dg.apply(batch).unwrap();
                let d_on = on.delta(&pre, dg.artifacts(), &out.inserted, &out.deleted).unwrap();
                let d_off = off.delta(&pre, dg.artifacts(), &out.inserted, &out.deleted).unwrap();
                let sorted = |mut v: Vec<Vec<psgl_graph::VertexId>>| {
                    v.sort_unstable();
                    v
                };
                assert_eq!(
                    sorted(d_on.added.clone()),
                    sorted(d_off.added.clone()),
                    "{} added diverged at batch {i}",
                    pattern.name()
                );
                assert_eq!(
                    sorted(d_on.removed.clone()),
                    sorted(d_off.removed.clone()),
                    "{} removed diverged at batch {i}",
                    pattern.name()
                );
            }
        }
    }

    #[test]
    fn empty_batch_produces_empty_delta() {
        let base = erdos_renyi_gnm(40, 120, 3).unwrap();
        let query = DeltaQuery::new(&catalog::triangle(), &config()).unwrap();
        let dg = DeltaGraph::new(base, 10, DEFAULT_COMPACT_THRESHOLD);
        let art = dg.artifacts();
        let delta = query.delta(art, art, &[], &[]).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.count_delta(), 0);
    }

    #[test]
    fn seed_frontier_respects_order_and_degree_prunes() {
        let base = erdos_renyi_gnm(40, 120, 3).unwrap();
        let query = DeltaQuery::new(&catalog::triangle(), &config()).unwrap();
        let dg = DeltaGraph::new(base, 10, DEFAULT_COMPACT_THRESHOLD);
        let art = dg.artifacts();
        let shared = PsglShared::from_parts(
            &art.graph,
            Arc::clone(&art.ordered),
            Some(Arc::clone(&art.index)),
            query.plan(),
        );
        let edge = art.graph.edges().next().unwrap();
        let seeds = seed_frontier(&shared, &[edge]);
        // Triangle: 3 pattern edges × 2 orientations = 6 raw candidates;
        // the total order constraints on the fully-symmetric triangle cut
        // at least half.
        assert!(!seeds.is_empty());
        assert!(seeds.len() <= 3, "order prune must kill one orientation per pattern edge");
        for s in &seeds {
            assert!(s.is_gray(s.expanding()), "seed must expand a GRAY vertex");
        }
    }
}
