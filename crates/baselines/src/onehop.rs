//! A PowerGraph-style subgraph lister with a one-hop neighborhood index
//! and a *fixed, manually chosen* traversal order (Section 7.6, Table 4).
//!
//! The paper extends PSgL's traversal idea to PowerGraph to show why the
//! framework's three optimizations matter. The ported solution differs from
//! PSgL in exactly the ways this module reproduces:
//!
//! - **fixed traversal order** — chosen by hand per run (`A->B->C` in the
//!   paper's notation), not adapted per Gpsi by a distribution strategy;
//!   a bad order explodes the intermediate set (the PG3 rows of Table 4);
//! - **one-hop index only** — an extension can verify edges *incident to
//!   the vertex it currently sits on* (its one-hop neighborhood is local),
//!   but cross edges to other mapped vertices can only be checked one round
//!   later when the embedding reaches that endpoint. Invalid intermediates
//!   therefore survive a full round — the memory blow-up that OOMs
//!   PowerGraph on PG4/PG5 in Table 4;
//! - automorphism breaking *is* applied (the paper does the same), so
//!   counts remain exactly-once.
//!
//! The engine models the algorithmic behavior (intermediate volume, cost,
//! OOM) rather than PowerGraph's raw engine speed; see `EXPERIMENTS.md`.

use psgl_graph::{DataGraph, OrderedGraph, VertexId};
use psgl_pattern::{break_automorphisms, PartialOrderSet, Pattern, PatternVertex};

/// Configuration of a one-hop engine run.
#[derive(Clone, Debug)]
pub struct OneHopConfig {
    /// The fixed traversal order over pattern vertices (the paper's
    /// `1->2->3->4`). Must visit every vertex once, each (after the first)
    /// adjacent to an earlier one.
    pub order: Vec<PatternVertex>,
    /// Abort when the intermediate set exceeds this size (simulated OOM).
    pub intermediate_budget: Option<u64>,
}

/// Result of a one-hop run.
#[derive(Debug)]
pub struct OneHopResult {
    /// Number of subgraph instances.
    pub instance_count: u64,
    /// Intermediate embeddings alive after each round.
    pub intermediates: Vec<u64>,
    /// Peak intermediate volume.
    pub peak_intermediate: u64,
    /// Candidate-scan cost units (comparable to PSgL's Equation 2 units).
    pub cost: u64,
}

/// Errors of the one-hop engine.
#[derive(Debug)]
pub enum OneHopError {
    /// The intermediate set exceeded the budget.
    OutOfMemory {
        /// Intermediates alive when the budget tripped.
        intermediates: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The traversal order is not a valid connected permutation.
    BadTraversalOrder,
}

impl std::fmt::Display for OneHopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OneHopError::OutOfMemory { intermediates, budget } => write!(
                f,
                "out of memory (simulated): {intermediates} intermediates exceed budget {budget}"
            ),
            OneHopError::BadTraversalOrder => {
                write!(f, "traversal order must be a connected permutation")
            }
        }
    }
}

impl std::error::Error for OneHopError {}

/// A partial embedding in traversal order: `slots[vp]`.
#[derive(Clone, Copy)]
struct Embedding {
    slots: [VertexId; crate::MAX_SGIA_VERTICES],
    /// Rounds whose deferred cross-edge checks are still pending: bit `i`
    /// set iff the edges from `order[i]` back to earlier vertices have not
    /// been verified yet.
    pending: u16,
}

/// Runs the one-hop engine with a fixed traversal order.
pub fn run(g: &DataGraph, p: &Pattern, config: &OneHopConfig) -> Result<OneHopResult, OneHopError> {
    let np = p.num_vertices();
    if np > crate::MAX_SGIA_VERTICES {
        return Err(OneHopError::BadTraversalOrder);
    }
    // Validate the order: a permutation with a connected prefix.
    let order = &config.order;
    if order.len() != np {
        return Err(OneHopError::BadTraversalOrder);
    }
    let mut seen: u32 = 0;
    for (i, &v) in order.iter().enumerate() {
        if v as usize >= np || (seen >> v) & 1 == 1 {
            return Err(OneHopError::BadTraversalOrder);
        }
        if i > 0 && p.neighbor_mask(v) & seen == 0 {
            return Err(OneHopError::BadTraversalOrder);
        }
        seen |= 1 << v;
    }
    let ranks = OrderedGraph::new(g);
    let porder: PartialOrderSet = break_automorphisms(p);
    let mut cost = 0u64;
    // Round 0: seed at order[0].
    let v0 = order[0];
    let mut current: Vec<Embedding> = Vec::new();
    for v in g.vertices() {
        cost += 1;
        if g.degree(v) >= p.degree(v0) {
            let mut slots = [VertexId::MAX; crate::MAX_SGIA_VERTICES];
            slots[v0 as usize] = v;
            current.push(Embedding { slots, pending: 0 });
        }
    }
    let mut intermediates = vec![current.len() as u64];
    let mut peak = current.len() as u64;
    // Past the budget a round only counts what it would store, so the
    // simulated OOM reports the round's full size without holding it.
    let budget = config.intermediate_budget.unwrap_or(u64::MAX);
    // One round per subsequent traversal vertex, plus a final verification
    // round for the last vertex's deferred checks.
    for round in 1..=np {
        let extend_to = order.get(round).copied();
        let mut next: Vec<Embedding> = Vec::new();
        let mut produced = 0u64;
        let mut keep = |emb: Embedding| {
            produced += 1;
            if produced <= budget {
                next.push(emb);
            }
        };
        for emb in &current {
            // (a) resolve the deferred cross-edge checks that became local:
            // the embedding now "sits at" order[round-1]'s data vertex, so
            // edges between order[round-1] and every earlier mapped vertex
            // are exact.
            let here = order[round - 1];
            let here_vd = emb.slots[here as usize];
            let mut ok = true;
            for &earlier in &order[..round - 1] {
                if p.has_edge(here, earlier) {
                    cost += 1;
                    if !g.has_edge(here_vd, emb.slots[earlier as usize]) {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let mut emb = *emb;
            emb.pending &= !(1 << (round - 1));
            // (b) extend to the next traversal vertex, if any.
            let Some(nv) = extend_to else {
                keep(emb);
                continue;
            };
            // Parent: the earliest already-mapped pattern neighbor.
            let parent = order[..round]
                .iter()
                .copied()
                .find(|&u| p.has_edge(nv, u))
                .expect("validated order keeps prefixes connected");
            let parent_vd = emb.slots[parent as usize];
            cost += u64::from(g.degree(parent_vd));
            'cand: for &cand in g.neighbors(parent_vd) {
                if g.degree(cand) < p.degree(nv) || emb.slots[..np].contains(&cand) {
                    continue;
                }
                // Partial order vs all mapped (ranks are shared statics, so
                // this check is free locally — the paper's port keeps it).
                for &earlier in &order[..round] {
                    let ed = emb.slots[earlier as usize];
                    if porder.requires_less(nv, earlier) && !ranks.less(cand, ed) {
                        continue 'cand;
                    }
                    if porder.requires_less(earlier, nv) && !ranks.less(ed, cand) {
                        continue 'cand;
                    }
                }
                // One-hop limitation: only the (parent, nv) edge is exact
                // now; edges from nv to other earlier vertices are deferred
                // to the next round (the cause of the blow-up).
                let mut e2 = emb;
                e2.slots[nv as usize] = cand;
                e2.pending |= 1 << round;
                keep(e2);
            }
        }
        peak = peak.max(produced);
        if produced > budget {
            return Err(OneHopError::OutOfMemory { intermediates: produced, budget });
        }
        intermediates.push(produced);
        current = next;
    }
    Ok(OneHopResult {
        instance_count: current.len() as u64,
        intermediates,
        peak_intermediate: peak,
        cost,
    })
}

/// The natural order `v1, v2, ..., vk` (the paper's `1->2->3->4`).
pub fn natural_order(p: &Pattern) -> Vec<PatternVertex> {
    let mut order: Vec<PatternVertex> = p.vertices().collect();
    // The natural order may be disconnected as a prefix for some catalogs;
    // repair minimally by moving vertices forward until connected.
    let mut i = 1;
    while i < order.len() {
        let seen: u32 = order[..i].iter().fold(0, |m, &v| m | (1 << v));
        if p.neighbor_mask(order[i]) & seen == 0 {
            // Find the next vertex that connects and swap it in.
            let j = (i + 1..order.len())
                .find(|&j| p.neighbor_mask(order[j]) & seen != 0)
                .expect("pattern is connected");
            order.swap(i, j);
        }
        i += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized;
    use psgl_graph::generators::{chung_lu, erdos_renyi_gnm};
    use psgl_pattern::catalog;

    #[test]
    fn matches_oracle_for_all_paper_patterns() {
        let g = erdos_renyi_gnm(90, 450, 41).unwrap();
        for p in catalog::paper_patterns() {
            let expected = centralized::count(&g, &p);
            let config = OneHopConfig { order: natural_order(&p), intermediate_budget: None };
            let got = run(&g, &p, &config).unwrap();
            assert_eq!(got.instance_count, expected, "{p:?}");
        }
    }

    #[test]
    fn all_traversal_orders_agree() {
        // Count must be order-independent; cost and intermediates are not.
        let g = chung_lu(150, 5.0, 2.2, 3).unwrap();
        let p = catalog::tailed_triangle();
        let expected = centralized::count(&g, &p);
        // A few valid orders of the paw (triangle 0-1-2, tail 1-3).
        for order in [vec![0, 1, 2, 3], vec![1, 3, 0, 2], vec![2, 0, 1, 3], vec![3, 1, 2, 0]] {
            let config = OneHopConfig { order, intermediate_budget: None };
            assert_eq!(run(&g, &p, &config).unwrap().instance_count, expected);
        }
    }

    #[test]
    fn order_sensitivity_shows_in_intermediates() {
        // Paper: "the different fixed traversal orders heavily affect the
        // performance". Starting the paw at its tail (degree 1) admits far
        // more seeds/extensions than starting inside the triangle.
        let g = chung_lu(400, 8.0, 1.9, 11).unwrap();
        let p = catalog::tailed_triangle();
        let good = OneHopConfig { order: vec![1, 0, 2, 3], intermediate_budget: None };
        let bad = OneHopConfig { order: vec![3, 1, 0, 2], intermediate_budget: None };
        let rg = run(&g, &p, &good).unwrap();
        let rb = run(&g, &p, &bad).unwrap();
        assert_eq!(rg.instance_count, rb.instance_count);
        assert!(
            rb.peak_intermediate > rg.peak_intermediate,
            "bad order peak {} <= good order peak {}",
            rb.peak_intermediate,
            rg.peak_intermediate
        );
    }

    #[test]
    fn oom_on_budget() {
        let g = chung_lu(400, 8.0, 1.9, 11).unwrap();
        let p = catalog::square();
        let config = OneHopConfig { order: natural_order(&p), intermediate_budget: Some(50) };
        assert!(matches!(run(&g, &p, &config), Err(OneHopError::OutOfMemory { .. })));
    }

    #[test]
    fn oom_reports_the_whole_round_it_did_not_store() {
        // Every budget below the peak trips on the first extension round
        // past it (the seeds are not budgeted) and reports that round's
        // full size, as the unbudgeted run counts it.
        let g = chung_lu(400, 8.0, 1.9, 11).unwrap();
        let p = catalog::tailed_triangle();
        let order = vec![3, 1, 0, 2];
        let free = run(&g, &p, &OneHopConfig { order: order.clone(), intermediate_budget: None });
        let sizes = free.unwrap().intermediates.split_off(1);
        let peak = *sizes.iter().max().unwrap();
        for budget in [0, sizes[0] - 1, sizes[0], peak - 1] {
            let config = OneHopConfig { order: order.clone(), intermediate_budget: Some(budget) };
            let tripped = *sizes.iter().find(|&&n| n > budget).unwrap();
            match run(&g, &p, &config) {
                Err(OneHopError::OutOfMemory { intermediates, budget: b }) => {
                    assert_eq!((intermediates, b), (tripped, budget), "budget {budget}");
                }
                other => panic!("budget {budget}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_orders() {
        let g = erdos_renyi_gnm(20, 40, 1).unwrap();
        let p = catalog::square();
        for order in [
            vec![0u8, 1, 2],  // wrong length
            vec![0, 0, 1, 2], // repeat
            vec![0, 2, 1, 3], // 2 not adjacent to 0 in the square
            vec![0, 1, 2, 9], // out of range
        ] {
            let config = OneHopConfig { order, intermediate_budget: None };
            assert!(matches!(run(&g, &p, &config), Err(OneHopError::BadTraversalOrder)));
        }
    }

    #[test]
    fn natural_order_repairs_disconnected_prefixes() {
        // Path 0-2, 2-1: the identity order [0,1,2] has vertex 1 not
        // adjacent to the prefix {0}; the repair must swap 2 forward.
        let p = psgl_pattern::Pattern::new("zig", 3, &[(0, 2), (2, 1)]).unwrap();
        let order = natural_order(&p);
        assert_eq!(order, vec![0, 2, 1]);
        // Star with the center last in vertex numbering.
        let p = psgl_pattern::Pattern::new("s", 4, &[(3, 0), (3, 1), (3, 2)]).unwrap();
        let order = natural_order(&p);
        let mut seen = 1u32 << order[0];
        for &v in &order[1..] {
            assert!(p.neighbor_mask(v) & seen != 0);
            seen |= 1 << v;
        }
    }

    #[test]
    fn natural_order_is_always_valid() {
        for p in catalog::paper_patterns() {
            let order = natural_order(&p);
            let config = OneHopConfig { order, intermediate_budget: None };
            let g = erdos_renyi_gnm(30, 80, 2).unwrap();
            assert!(run(&g, &p, &config).is_ok(), "{p:?}");
        }
    }
}
