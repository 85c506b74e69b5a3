//! Reusable query plans: the pattern-side half of the offline preparation.
//!
//! [`PsglShared::prepare`](crate::PsglShared::prepare) performs two kinds
//! of work with very different reuse profiles:
//!
//! - **graph-side artifacts** — the degree-ordered view and the bloom
//!   [`EdgeIndex`](crate::EdgeIndex) — depend only on the data graph and
//!   are expensive (linear in `|E|`, the paper quotes a 2 GB index for
//!   Twitter);
//! - **pattern-side decisions** — automorphism breaking (Section 5.2.1)
//!   and initial-vertex selection (Section 5.2.2) — depend on `(pattern, config, degree histogram)` and are cheap but
//!   repeated for every query.
//!
//! A long-running server wants to compute both once and reuse them across
//! queries. [`QueryPlan`] captures the pattern-side decisions;
//! [`PsglShared::from_parts`](crate::PsglShared::from_parts) reassembles a
//! run context from a plan plus pre-built graph artifacts without
//! re-doing either side.

use crate::gpsi::MAX_GPSI_VERTICES;
use crate::init_vertex::{select_initial_vertex, SelectionRule};
use crate::shared::PsglError;
use crate::PsglConfig;
use psgl_pattern::{break_automorphisms, PartialOrderSet, Pattern, PatternVertex};

/// The pattern-side preparation for one `(pattern, config)` combination,
/// reusable across every run against graphs with the same degree
/// histogram shape (the histogram only matters to the cost model's
/// initial-vertex estimate).
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The pattern this plan lists.
    pub pattern: Pattern,
    /// Partial order from automorphism breaking (Section 5.2.1); empty
    /// when breaking is disabled.
    pub order: PartialOrderSet,
    /// Selected initial pattern vertex (Section 5.2.2).
    pub init_vertex: PatternVertex,
    /// How the initial vertex was chosen.
    pub selection_rule: SelectionRule,
    /// Whether compiled kernels are enabled for runs under this plan
    /// (`PsglConfig::compiled_kernels` at preparation time). Which kernel,
    /// if any, an expansion gets is decided per partial instance by
    /// [`expand_gpsi`](crate::expand::expand_gpsi).
    pub compiled_kernels: bool,
}

impl QueryPlan {
    /// Prepares a plan: breaks automorphisms (per `config`) and selects
    /// the initial vertex against `degree_histogram` (`histogram[d]` =
    /// number of data vertices of degree `d`; see
    /// [`psgl_graph::DegreeStats`]).
    pub fn prepare(
        pattern: &Pattern,
        config: &PsglConfig,
        degree_histogram: &[u64],
    ) -> Result<QueryPlan, PsglError> {
        if pattern.num_vertices() > MAX_GPSI_VERTICES {
            return Err(PsglError::PatternTooLarge(pattern.num_vertices()));
        }
        let order = if config.break_automorphisms {
            break_automorphisms(pattern)
        } else {
            PartialOrderSet::new(pattern.num_vertices())
        };
        let (init_vertex, selection_rule) = match config.init_vertex {
            Some(v) => {
                if v as usize >= pattern.num_vertices() {
                    return Err(PsglError::BadInitialVertex(v));
                }
                (v, SelectionRule::Fixed)
            }
            None => select_initial_vertex(pattern, &order, degree_histogram),
        };
        Ok(QueryPlan {
            pattern: pattern.clone(),
            order,
            init_vertex,
            selection_rule,
            compiled_kernels: config.compiled_kernels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PsglShared;
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_graph::DegreeStats;
    use psgl_pattern::catalog;

    #[test]
    fn plan_matches_prepare_decisions() {
        let g = erdos_renyi_gnm(120, 500, 3).unwrap();
        let config = PsglConfig::default();
        let hist = DegreeStats::of_graph(&g).histogram;
        for p in catalog::paper_patterns() {
            let plan = QueryPlan::prepare(&p, &config, &hist).unwrap();
            let shared = PsglShared::prepare(&g, &p, &config).unwrap();
            assert_eq!(plan.init_vertex, shared.init_vertex, "{p:?}");
            assert_eq!(plan.selection_rule, shared.selection_rule, "{p:?}");
            assert_eq!(plan.order, shared.order, "{p:?}");
        }
    }

    #[test]
    fn plan_rejects_oversized_and_bad_init() {
        let hist = vec![0u64; 8];
        assert!(matches!(
            QueryPlan::prepare(&catalog::cycle(13), &PsglConfig::default(), &hist),
            Err(PsglError::PatternTooLarge(13))
        ));
        let config = PsglConfig { init_vertex: Some(9), ..PsglConfig::default() };
        assert!(matches!(
            QueryPlan::prepare(&catalog::triangle(), &config, &hist),
            Err(PsglError::BadInitialVertex(9))
        ));
    }

    #[test]
    fn kernels_disabled_plans_generic() {
        let hist = vec![0u64; 8];
        let config = PsglConfig::default().kernels(false).init_vertex(0);
        let plan = QueryPlan::prepare(&catalog::triangle(), &config, &hist).unwrap();
        assert!(!plan.compiled_kernels);
    }
}
