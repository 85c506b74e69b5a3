//! Read-only per-run context shared by all workers.
//!
//! Section 6: besides the vertex program, PSgL distributes several pieces
//! of *shared data* to every worker — the pattern graph, the selected
//! initial pattern vertex, the light-weight edge index, and degree
//! statistics. They are small (the paper: Twitter's edge index is 2 GB on a
//! 48 GB node), static, and computed once before the run; each worker keeps
//! a reference.

use crate::gpsi::MAX_GPSI_VERTICES;
use crate::index::EdgeIndex;
use crate::init_vertex::SelectionRule;
use crate::plan::QueryPlan;
use crate::PsglConfig;
use psgl_graph::{DataGraph, DegreeStats, OrderedGraph};
use psgl_pattern::labeled::{break_automorphisms_labeled, Label};
use psgl_pattern::{PartialOrderSet, Pattern, PatternVertex};
use std::sync::Arc;

/// Errors raised while preparing or running a PSgL listing.
#[derive(Debug)]
pub enum PsglError {
    /// The pattern exceeds [`MAX_GPSI_VERTICES`] vertices.
    PatternTooLarge(usize),
    /// An explicitly configured initial vertex is out of range.
    BadInitialVertex(PatternVertex),
    /// Label arrays did not match the graph / pattern sizes.
    LabelLengthMismatch {
        /// Expected number of labels.
        expected: usize,
        /// Provided number of labels.
        got: usize,
    },
    /// The in-flight Gpsi volume exceeded the configured budget — the
    /// simulated OutOfMemory failure of Tables 2 and 4.
    OutOfMemory {
        /// Gpsis in flight when the budget tripped: what every worker
        /// sent in the superstep that tripped it (a worker that outgrows
        /// the budget stops sending there).
        in_flight: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The underlying BSP engine failed (worker panic, superstep limit).
    Engine(psgl_bsp::BspError),
    /// A resume checkpoint failed to decode or did not match the run it
    /// was submitted against.
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl std::fmt::Display for PsglError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsglError::PatternTooLarge(n) => {
                write!(f, "pattern has {n} vertices; the engine supports {MAX_GPSI_VERTICES}")
            }
            PsglError::BadInitialVertex(v) => write!(f, "initial pattern vertex {v} out of range"),
            PsglError::LabelLengthMismatch { expected, got } => {
                write!(f, "label array length {got} does not match vertex count {expected}")
            }
            PsglError::OutOfMemory { in_flight, budget } => write!(
                f,
                "out of memory (simulated): {in_flight} partial subgraph instances exceed \
                 budget {budget}"
            ),
            PsglError::Engine(e) => write!(f, "BSP engine error: {e}"),
            PsglError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PsglError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PsglError::Engine(e) => Some(e),
            PsglError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::checkpoint::CheckpointError> for PsglError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        PsglError::Checkpoint(e)
    }
}

impl From<psgl_bsp::BspError> for PsglError {
    fn from(e: psgl_bsp::BspError) -> Self {
        match e {
            psgl_bsp::BspError::MessageBudgetExceeded { in_flight, budget, .. } => {
                PsglError::OutOfMemory { in_flight, budget }
            }
            other => PsglError::Engine(other),
        }
    }
}

/// Immutable context for one listing run.
pub struct PsglShared<'g> {
    /// The data graph (distributed across workers by the partitioner).
    pub graph: &'g DataGraph,
    /// Degree-based total order with `nb`/`ns` (Section 3). Shared so a
    /// long-running server can reuse it across queries ([`Self::from_parts`]).
    pub ordered: Arc<OrderedGraph>,
    /// The pattern being listed.
    pub pattern: Pattern,
    /// Partial order set from automorphism breaking (Section 5.2.1).
    pub order: PartialOrderSet,
    /// The light-weight edge index, if enabled (Section 5.2.3). Shared
    /// like [`Self::ordered`].
    pub index: Option<Arc<EdgeIndex>>,
    /// Selected initial pattern vertex (Section 5.2.2).
    pub init_vertex: PatternVertex,
    /// How the initial vertex was chosen.
    pub selection_rule: SelectionRule,
    /// Vertex labels for labeled matching: `(data_labels, pattern_labels)`.
    /// `None` = the paper's unlabeled listing.
    pub labels: Option<(Vec<Label>, Vec<Label>)>,
    /// Whether expansions may dispatch to compiled kernels
    /// (`kernel.rs`); `false` forces the generic odometer.
    pub compiled_kernels: bool,
}

impl<'g> PsglShared<'g> {
    /// Prepares the shared context: orders the data graph, breaks the
    /// pattern's automorphisms, builds the edge index and selects the
    /// initial pattern vertex (all the paper's offline steps).
    pub fn prepare(
        graph: &'g DataGraph,
        pattern: &Pattern,
        config: &PsglConfig,
    ) -> Result<PsglShared<'g>, PsglError> {
        let histogram = DegreeStats::of_graph(graph).histogram;
        let plan = QueryPlan::prepare(pattern, config, &histogram)?;
        let ordered = Arc::new(OrderedGraph::new(graph));
        let index = config
            .use_edge_index
            .then(|| Arc::new(EdgeIndex::build(graph, config.index_bits_per_edge)));
        Ok(PsglShared::from_parts(graph, ordered, index, &plan))
    }

    /// Assembles a run context from pre-built graph artifacts and a cached
    /// [`QueryPlan`] — the server path, where the ordered graph / edge
    /// index live in a catalog and plans in a per-graph plan cache, so
    /// none of the offline work of [`Self::prepare`] is repeated.
    ///
    /// The closing kernels read adjacency from `ordered` alone, so its
    /// rank-space graph must be `graph` relabelled: built for it by
    /// [`OrderedGraph::new`], or patched to it by
    /// [`OrderedGraph::with_batch`]. An ordered graph of another graph
    /// panics here when its vertex or edge count differs.
    pub fn from_parts(
        graph: &'g DataGraph,
        ordered: Arc<OrderedGraph>,
        index: Option<Arc<EdgeIndex>>,
        plan: &QueryPlan,
    ) -> PsglShared<'g> {
        assert_eq!(
            (ordered.len(), ordered.rank_graph().num_edges()),
            (graph.num_vertices(), graph.num_edges()),
            "ordered graph built for another graph: (vertices, edges) of the ordered graph \
             vs the data graph"
        );
        PsglShared {
            graph,
            ordered,
            pattern: plan.pattern.clone(),
            order: plan.order.clone(),
            index,
            init_vertex: plan.init_vertex,
            selection_rule: plan.selection_rule,
            labels: None,
            compiled_kernels: plan.compiled_kernels,
        }
    }

    /// Prepares a *labeled* matching context (Section 2's subgraph-matching
    /// generalization): a candidate data vertex must carry the same label
    /// as the pattern vertex it maps to, and automorphism breaking is
    /// restricted to label-preserving symmetries (breaking a
    /// label-crossing symmetry would discard valid instances).
    pub fn prepare_labeled(
        graph: &'g DataGraph,
        pattern: &Pattern,
        config: &PsglConfig,
        data_labels: Vec<Label>,
        pattern_labels: Vec<Label>,
    ) -> Result<PsglShared<'g>, PsglError> {
        if data_labels.len() != graph.num_vertices() {
            return Err(PsglError::LabelLengthMismatch {
                expected: graph.num_vertices(),
                got: data_labels.len(),
            });
        }
        if pattern_labels.len() != pattern.num_vertices() {
            return Err(PsglError::LabelLengthMismatch {
                expected: pattern.num_vertices(),
                got: pattern_labels.len(),
            });
        }
        let mut shared = PsglShared::prepare(graph, pattern, config)?;
        shared.order = if config.break_automorphisms {
            break_automorphisms_labeled(pattern, &pattern_labels)
        } else {
            PartialOrderSet::new(pattern.num_vertices())
        };
        shared.labels = Some((data_labels, pattern_labels));
        Ok(shared)
    }

    /// Whether data vertex `vd` is label-compatible with pattern vertex
    /// `vp` (always true in unlabeled mode).
    #[inline]
    pub fn label_ok(&self, vp: PatternVertex, vd: psgl_graph::VertexId) -> bool {
        match &self.labels {
            None => true,
            Some((data, pattern)) => data[vd as usize] == pattern[vp as usize],
        }
    }

    /// Remote edge-existence check used by pruning rule 2: goes through the
    /// bloom index when enabled. Returns `None` when no index is configured
    /// (the check must then be skipped — checking a remote edge exactly is
    /// what the index exists to avoid).
    #[inline]
    pub fn index_check(&self, u: psgl_graph::VertexId, v: psgl_graph::VertexId) -> Option<bool> {
        self.index.as_ref().map(|idx| idx.may_contain(u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_pattern::catalog;

    #[test]
    fn prepare_selects_deterministic_rule_for_triangle() {
        let g = erdos_renyi_gnm(100, 300, 1).unwrap();
        let config = PsglConfig::default();
        let shared = PsglShared::prepare(&g, &catalog::triangle(), &config).unwrap();
        assert_eq!(shared.init_vertex, 0);
        assert_eq!(shared.selection_rule, SelectionRule::DeterministicLowestRank);
        assert!(shared.index.is_some());
    }

    #[test]
    fn prepare_honors_fixed_vertex_and_rejects_bad_one() {
        let g = erdos_renyi_gnm(50, 100, 2).unwrap();
        let mut config = PsglConfig { init_vertex: Some(2), ..Default::default() };
        let shared = PsglShared::prepare(&g, &catalog::square(), &config).unwrap();
        assert_eq!(shared.init_vertex, 2);
        assert_eq!(shared.selection_rule, SelectionRule::Fixed);
        config.init_vertex = Some(9);
        assert!(matches!(
            PsglShared::prepare(&g, &catalog::square(), &config),
            Err(PsglError::BadInitialVertex(9))
        ));
    }

    #[test]
    fn prepare_rejects_oversized_patterns() {
        let g = erdos_renyi_gnm(50, 100, 2).unwrap();
        let p = catalog::cycle(13);
        assert!(matches!(
            PsglShared::prepare(&g, &p, &PsglConfig::default()),
            Err(PsglError::PatternTooLarge(13))
        ));
    }

    #[test]
    #[should_panic(expected = "ordered graph built for another graph")]
    fn from_parts_rejects_an_ordered_graph_of_another_graph() {
        let g = erdos_renyi_gnm(50, 100, 2).unwrap();
        let other = erdos_renyi_gnm(50, 120, 2).unwrap();
        let config = PsglConfig::default();
        let histogram = DegreeStats::of_graph(&g).histogram;
        let plan = QueryPlan::prepare(&catalog::triangle(), &config, &histogram).unwrap();
        PsglShared::from_parts(&g, Arc::new(OrderedGraph::new(&other)), None, &plan);
    }

    #[test]
    fn index_can_be_disabled() {
        let g = erdos_renyi_gnm(50, 100, 2).unwrap();
        let config = PsglConfig { use_edge_index: false, ..Default::default() };
        let shared = PsglShared::prepare(&g, &catalog::triangle(), &config).unwrap();
        assert!(shared.index.is_none());
        assert_eq!(shared.index_check(0, 1), None);
    }
}
