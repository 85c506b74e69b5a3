//! Partial subgraph instance expansion (Algorithms 1, 2 and 5).
//!
//! Expanding a Gpsi at its designated GRAY vertex `v_p` (mapped to data
//! vertex `v_d`, owned by the executing worker):
//!
//! 1. `v_p` turns BLACK; every pattern edge incident to `v_p` is now
//!    verified *exactly* against `N(v_d)` — GRAY neighbors by membership
//!    test (Algorithm 2), WHITE neighbors by drawing their candidates from
//!    `N(v_d)` (Algorithm 5). Nothing records this beyond the BLACK bit: an
//!    edge with a BLACK end is verified (see [`crate::gpsi`]).
//! 2. Candidates for each WHITE neighbor are pruned by degree, by the
//!    partial order from automorphism breaking, by injectivity, and — via
//!    the light-weight edge index — by connectivity to the other GRAY
//!    neighbors (pruning rules of Section 5.2.3).
//! 3. New Gpsis are the valid combinations of candidates. Edges checked
//!    only through the (inexact) index join two GRAY vertices and so stay
//!    *unverified*; a later verification-only expansion of an endpoint
//!    re-checks them exactly, so bloom false positives can never produce a
//!    wrong result.
//! 4. Complete Gpsis (all vertices mapped, every edge with a BLACK end)
//!    are counted and harvested; the rest are handed to the distribution
//!    strategy, which picks the next expanding vertex and thereby the
//!    destination worker.
//!
//! ## Hot-path discipline
//!
//! The kernel is allocation-free in steady state: every growable buffer it
//! needs lives in a caller-owned [`ExpandScratch`] whose capacity is
//! retained across calls. GRAY membership tests run as one galloping
//! subset check over the sorted adjacency slice
//! ([`psgl_graph::algo::sorted_contains_all`]) instead of one binary
//! search per edge, and candidate combinations are enumerated by an
//! odometer over the scratch buffers instead of a recursive
//! cross-product.
//!
//! Partial-order probes collapse to a precomputed rank window per WHITE
//! vertex. In an unlabelled run whose ranks follow degree
//! ([`psgl_graph::OrderedGraph::degree_sorted`]) that window is a
//! sub-slice of `v_d`'s rank-sorted list past the degree bound's prefix,
//! cut by the kernels' one rank cut (`kernel::rank_window`): only its
//! members are visited, and the degree, order and injectivity counters are
//! charged what a walk of all of `N(v_d)` would charge. A labelled run, or a delta epoch
//! whose ranks stopped following degree, walks `N(v_d)` through a
//! slot-independent prefilter instead.

use crate::checkpoint::Harvested;
use crate::distribute::{Distributor, GrayCandidate};
use crate::gpsi::{Gpsi, MAX_GPSI_VERTICES};
use crate::kernel::rank_window;
use crate::shared::PsglShared;
use crate::stats::ExpandStats;
use psgl_graph::algo::sorted_contains_all;
use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use psgl_pattern::PatternVertex;

/// Most WHITE slots a closing kernel binds. The word-mask odometer keeps
/// fixed per-level tables of this many slots on the stack. Six is the
/// bound the connectivity map's per-slot binding bits once set; it is kept
/// so that dispatch, and with it every counter of a run, does not move.
/// Expansions with more WHITE slots fall back to the generic odometer.
pub const KERNEL_MAX_SLOTS: usize = 6;

/// Per-WHITE-vertex facts hoisted out of the `N(v_d)` candidate scan.
#[derive(Clone, Copy, Default)]
pub(crate) struct WhiteMeta {
    /// The WHITE pattern vertex itself.
    pub(crate) wv: PatternVertex,
    /// Pattern degree of `wv` (pruning rule 1a threshold).
    pub(crate) min_degree: u32,
    /// Candidates must have rank `>= lo_rank` (0 = unbounded): encodes
    /// `rank(cd) > rank(ud)` for every mapped `ud` ordered before `wv`.
    pub(crate) lo_rank: u32,
    /// Candidates must have rank `< hi_rank` (`u32::MAX` = unbounded).
    pub(crate) hi_rank: u32,
    /// `conn_data[conn_start..conn_end]`: mapped data vertices `wv` must
    /// connect to (pruning rule 2 targets), in pattern-neighbor order.
    pub(crate) conn_start: usize,
    /// End of the connectivity-target slice.
    pub(crate) conn_end: usize,
    /// Bit `i` set iff the partial order requires this slot's candidate to
    /// rank *below* earlier WHITE slot `i`'s (new-vs-new rule 1b, hoisted
    /// out of the odometer's inner pair loop).
    pub(crate) lt_mask: u16,
    /// Bit `i` set iff the order requires this slot's candidate to rank
    /// *above* earlier slot `i`'s.
    pub(crate) gt_mask: u16,
    /// Bit `i` set iff the pattern has an edge between this slot's WHITE
    /// vertex and earlier slot `i`'s (new-vs-new index probe).
    pub(crate) edge_mask: u16,
}

/// Reusable per-worker buffers for [`expand_gpsi`]. Construct once per
/// worker and thread through every call; capacities are retained, so
/// steady-state expansion performs zero heap allocations.
#[derive(Default)]
pub struct ExpandScratch {
    /// Data vertices of `v_p`'s GRAY pattern neighbors, awaiting the
    /// exact edge check, sorted for the subset check.
    pub(crate) gray_edges: Vec<VertexId>,
    /// Per-WHITE-vertex hoisted facts.
    pub(crate) white_meta: Vec<WhiteMeta>,
    /// Connectivity-target arena sliced by `WhiteMeta::conn_*`.
    pub(crate) conn_data: Vec<VertexId>,
    /// Slot-independent prefilter output of the walk: `(candidate, degree,
    /// rank)` for every neighbor of `v_d` that survives injectivity, so the
    /// per-slot scans below it are compare-only over scratch-resident data.
    pub(crate) base_cands: Vec<(VertexId, u32, u32)>,
    /// One slot's survivors of the rank window as `id << 32 | rank`, sorted
    /// before they enter the arena so that the arena stays in id order.
    pub(crate) id_rank: Vec<u64>,
    /// Candidate arena: `cand_data[cand_bounds[i]..cand_bounds[i+1]]` holds
    /// the valid data vertices for WHITE slot `i` (their ranks, in the
    /// closing kernels).
    pub(crate) cand_data: Vec<VertexId>,
    /// Rank of each arena candidate, cached when the scan loads it anyway,
    /// so the odometer's order checks compare two scratch-resident `u32`s
    /// instead of re-reading the rank permutation.
    pub(crate) cand_rank: Vec<u32>,
    /// Candidate-arena bounds (`white_meta.len() + 1` entries).
    pub(crate) cand_bounds: Vec<usize>,
    /// Odometer: currently selected data vertex per WHITE slot (its rank,
    /// in the closing kernels).
    pub(crate) chosen: Vec<VertexId>,
    /// Odometer: rank of the selected data vertex per WHITE slot.
    pub(crate) chosen_rank: Vec<u32>,
    /// Odometer: absolute `cand_data` cursor per WHITE slot.
    pub(crate) cursors: Vec<usize>,
    /// GRAY candidates handed to the distribution strategy.
    pub(crate) grays: Vec<GrayCandidate>,
    /// Connectivity map of the closing kernels: one mark per data vertex,
    /// indexed by rank, all-zero between expansions. The two-WHITE Close
    /// (`close_pair`) marks its final arena for its expansion; a TwoHop
    /// expansion whose count-only wedge join has one static target marks
    /// that target's side and the mapped ranks. Sized to the data graph
    /// by the first such expansion (pre-steady-state; retained
    /// afterwards).
    pub(crate) cmap: Vec<u8>,
    /// A closing expansion's candidate universe: the rank-sorted union of
    /// its distinct slot arenas, the positions its word masks range over.
    pub(crate) universe: Vec<u32>,
    /// The universe's positions an odometer slot can take, sorted by the
    /// id of their vertex: the order a listing walks each level in.
    pub(crate) by_id: Vec<u32>,
    /// The word-mask odometer's masks: per level, one mask over the
    /// universe per WHITE slot.
    pub(crate) masks: Vec<u64>,
    /// The word-mask odometer's row table: `N(c) ∩ U` for the binding `c`
    /// at universe position `i` in words `i * w..(i + 1) * w` (`w` words a
    /// row), when the expansion caches rows; otherwise one row, rebuilt for
    /// each use. Grown to the largest table needed, never shrunk, and at
    /// most 1 MiB while rows are cached.
    pub(crate) row: Vec<u64>,
    /// Bit `i` set iff position `i`'s row in `row` has been built in the
    /// current expansion; cleared when a caching expansion starts.
    pub(crate) built: Vec<u64>,
    /// Ranks of the two-hop vertex's wedge targets that were mapped
    /// before the expansion started (static across the odometer).
    pub(crate) w_static: Vec<u32>,
    /// Ranks of the two-hop vertex's wedge targets for one full
    /// combination.
    pub(crate) w_targets: Vec<u32>,
    /// Ranks that closed an instance in one closing-join loop (or, in a
    /// TwoHop expansion, final-slot bindings that passed), queued for the
    /// keep path when the harvest keeps instances; empty under count-only.
    pub(crate) kept: Vec<u32>,
    /// The same queue for the two-hop vertex's survivors of one wedge join.
    pub(crate) w_kept: Vec<u32>,
}

impl ExpandScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Expands `gpsi` on the worker owning `map(gpsi.expanding())`.
///
/// New incomplete Gpsis are pushed to `out` (with their next expanding
/// vertex already chosen by `distributor`); complete instances are counted
/// in `stats.results` and kept by `harvest` (under
/// [`Harvested::CountOnly`] the closing kernels never build them). Adds
/// the expansion's cost in Equation 2 units to `stats`.
/// `scratch` provides the kernel's working memory; reuse it across calls
/// to keep the hot path allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn expand_gpsi(
    shared: &PsglShared<'_>,
    mut gpsi: Gpsi,
    scratch: &mut ExpandScratch,
    distributor: &mut Distributor,
    partitioner: &HashPartitioner,
    out: &mut Vec<Gpsi>,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    let p = &shared.pattern;
    let np = p.num_vertices();
    let vp = gpsi.expanding();
    let vd = gpsi.map(vp).expect("expanding vertex must be mapped");
    gpsi.set_black(vp);
    stats.expanded += 1;
    let mut cost: u64 = 1; // cost_g: the constant GRAY-verification term

    let neighbors_vd = shared.graph.neighbors(vd);

    scratch.gray_edges.clear();
    scratch.white_meta.clear();

    // --- Algorithm 2: process v_p's pattern neighbors -------------------
    // An edge to a BLACK neighbor was verified when that neighbor expanded.
    for v2 in p.neighbors(vp) {
        if !gpsi.is_mapped(v2) {
            scratch.white_meta.push(WhiteMeta { wv: v2, ..WhiteMeta::default() });
        } else if !gpsi.is_black(v2) {
            // GRAY: queue for the batched exact membership test.
            scratch.gray_edges.push(gpsi.map(v2).unwrap());
        }
    }
    if !scratch.gray_edges.is_empty() {
        // One galloping subset sweep over the sorted adjacency replaces a
        // binary search per GRAY edge. Mapped data vertices are distinct
        // (injectivity), so the sorted targets are duplicate-free as
        // `sorted_contains_all` requires. Passing verifies the edges: v_p
        // is already BLACK.
        if scratch.gray_edges.len() > 1 {
            scratch.gray_edges.sort_unstable();
        }
        if !adjacency_contains_all(neighbors_vd, &scratch.gray_edges) {
            stats.died_gray_check += 1;
            stats.cost += cost;
            return;
        }
    }

    // --- compiled-kernel dispatch ---------------------------------------
    // A specialized kernel applies when the expansion can *close* the
    // instance locally: every unmapped pattern vertex is either a WHITE
    // neighbor of v_p (candidates come from N(v_d)) or the single two-hop
    // vertex reachable by a wedge join. The remaining edges are then all
    // exactly checkable against shared adjacency, so complete instances
    // are counted (and harvested) immediately and no verification
    // superstep ever runs.
    // The rule below is the whole dispatch: which shape applies depends on
    // what this partial instance has mapped, so nothing beyond
    // `compiled_kernels` is decided at plan time.
    if shared.compiled_kernels {
        let all = (1u32 << np) - 1;
        let unmapped = all & !u32::from(gpsi.mapped_mask());
        let extra_mask = unmapped & !p.neighbor_mask(vp);
        let nw = scratch.white_meta.len();
        let extras = extra_mask.count_ones();
        if nw <= KERNEL_MAX_SLOTS && (extras == 1 || (extras == 0 && nw > 0)) {
            let extra = (extras == 1).then(|| extra_mask.trailing_zeros() as PatternVertex);
            return crate::kernel::expand_specialized(
                shared, gpsi, vp, extra, scratch, harvest, stats, cost,
            );
        }
    }

    if scratch.white_meta.is_empty() {
        // Verification-only expansion: the base Gpsi itself is the single
        // combination, and Algorithm 5 has no slot to fill.
        finalize_combination(
            shared,
            &gpsi,
            &[],
            &[],
            &mut scratch.grays,
            distributor,
            partitioner,
            out,
            harvest,
            stats,
        );
        stats.cost += cost + 1; // c_e for the one generated Gpsi
        return;
    }

    // --- Algorithm 5: candidate sets for WHITE neighbors ----------------
    scratch.conn_data.clear();
    scratch.cand_data.clear();
    scratch.cand_rank.clear();
    scratch.cand_bounds.clear();
    scratch.cand_bounds.push(0);
    prepare_white_slots(shared, &gpsi, vp, &mut scratch.white_meta, &mut scratch.conn_data);
    let filled = if shared.labels.is_none() && shared.ordered.degree_sorted() {
        window_arenas(shared, &gpsi, vd, scratch, &mut cost, stats)
    } else {
        walked_arenas(shared, &gpsi, neighbors_vd, scratch, &mut cost, stats)
    };
    if !filled {
        stats.died_no_candidates += 1;
        stats.cost += cost;
        return;
    }

    let ExpandScratch {
        white_meta,
        cand_data,
        cand_rank,
        cand_bounds,
        chosen,
        chosen_rank,
        cursors,
        grays,
        ..
    } = scratch;

    // --- odometer: combine candidates into new Gpsis ---------------------
    let examined_before = stats.combinations_examined;
    let nw = white_meta.len();
    let mut generated: u64 = 0;
    chosen.clear();
    chosen.resize(nw, 0);
    chosen_rank.clear();
    chosen_rank.resize(nw, 0);
    cursors.clear();
    cursors.resize(nw, 0);
    cursors[0] = cand_bounds[0];
    let mut depth = 0usize;
    loop {
        if cursors[depth] == cand_bounds[depth + 1] {
            // This slot's candidates are exhausted: backtrack.
            if depth == 0 {
                break;
            }
            depth -= 1;
            cursors[depth] += 1;
            continue;
        }
        let cd = cand_data[cursors[depth]];
        let rank_cd = cand_rank[cursors[depth]];
        // Each examined combination-prefix is real enumeration work,
        // even when a pruning rule rejects it — charging it is what
        // makes the cost metric track the paper's
        // f(v_p) ≈ C(deg(v_d), w_vp) bound (and the initial-vertex
        // gaps of Figure 6 measurable).
        stats.combinations_examined += 1;
        let passes = 'check: {
            // New-vs-new injectivity.
            if chosen[..depth].contains(&cd) {
                stats.pruned_injectivity += 1;
                break 'check false;
            }
            let meta = &white_meta[depth];
            let (lt, gt, em) = (meta.lt_mask, meta.gt_mask, meta.edge_mask);
            let earlier = chosen[..depth].iter().zip(chosen_rank[..depth].iter());
            for (i, (&prev, &prev_rank)) in earlier.enumerate() {
                // New-vs-new partial order via the hoisted masks and
                // cached ranks (ranks are a permutation, so
                // `!less(a, b)` ⇔ `rank(a) >= rank(b)` exactly).
                if (lt >> i) & 1 == 1 && rank_cd >= prev_rank {
                    stats.pruned_order += 1;
                    break 'check false;
                }
                if (gt >> i) & 1 == 1 && prev_rank >= rank_cd {
                    stats.pruned_order += 1;
                    break 'check false;
                }
                // New-vs-new pattern edge through the index.
                if (em >> i) & 1 == 1 {
                    stats.index_probes += 1;
                    if let Some(false) = shared.index_check(cd, prev) {
                        stats.pruned_connectivity += 1;
                        break 'check false;
                    }
                }
            }
            true
        };
        if !passes {
            cursors[depth] += 1;
            continue;
        }
        chosen[depth] = cd;
        chosen_rank[depth] = rank_cd;
        if depth + 1 == nw {
            finalize_combination(
                shared,
                &gpsi,
                white_meta,
                chosen,
                grays,
                distributor,
                partitioner,
                out,
                harvest,
                stats,
            );
            generated += 1;
            cursors[depth] += 1;
        } else {
            depth += 1;
            cursors[depth] = cand_bounds[depth];
        }
    }
    cost += stats.combinations_examined - examined_before; // enumeration work
    cost += generated; // c_e per generated Gpsi
    stats.cost += cost;
}

/// Algorithm 5 in rank space: fills the candidate arena of every WHITE
/// slot from the sub-slice of `v_d`'s rank-sorted list that the slot's
/// degree bound and rank window leave, for an unlabelled run whose ranks
/// follow degree. Returns false when a slot is left without candidates
/// (after charging it), as [`walked_arenas`] does.
///
/// The members of `N(v_d)` below the degree bound (rule 1a) are the
/// prefix below the bound's rank floor
/// ([`psgl_graph::OrderedGraph::rank_floor`]), and the rank window
/// `[lo_rank, hi_rank)` (rule 1b) is what is left of the slot's rank span
/// past it: one [`rank_window`]. The mapped data vertices inside `N(v_d)`
/// (the set `U`, found by one binary search each and kept in rank order)
/// are cut by the same window and skipped. Every counter is charged what
/// the walk charges, which checks injectivity first:
/// `pruned_injectivity` by `|U|`, `pruned_degree` by the prefix less the
/// members of `U` in it, and `pruned_order` by the rest outside the window
/// less the members of `U` there. Only the window's members are visited;
/// each is mapped back to its id and probed against the index in the
/// walk's order. Its survivors are sorted by id, so the arena, and with it
/// every generated Gpsi and distributor choice, comes out as the walk's.
fn window_arenas(
    shared: &PsglShared<'_>,
    gpsi: &Gpsi,
    vd: VertexId,
    scratch: &mut ExpandScratch,
    cost: &mut u64,
    stats: &mut ExpandStats,
) -> bool {
    let ExpandScratch { white_meta, conn_data, id_rank, cand_data, cand_rank, cand_bounds, .. } =
        scratch;
    let ordered = &*shared.ordered;
    let nbrs = ordered.neighbors_of_rank(ordered.rank(vd));
    let np = shared.pattern.num_vertices();
    // The ranks of `U` in `nbrs`, ascending.
    let mut used = [0u32; MAX_GPSI_VERTICES];
    let mut n_used = 0;
    for ud in (0..np as PatternVertex).filter_map(|up| gpsi.map(up)) {
        let r = ordered.rank(ud);
        if ud != vd && nbrs.binary_search(&r).is_ok() {
            used[n_used] = r;
            n_used += 1;
        }
    }
    let used = &mut used[..n_used];
    used.sort_unstable();
    for meta in white_meta.iter() {
        *cost += nbrs.len() as u64; // neighborhood scan
        let floor = ordered.rank_floor(meta.min_degree).unwrap_or(0);
        let (prefix, window) = rank_window(nbrs, floor, meta.lo_rank, meta.hi_rank);
        let (below, skipped) = rank_window(used, floor, meta.lo_rank, meta.hi_rank);
        // The walk tests injectivity first: `U` fails it wherever it lies.
        let outside = n_used - below - skipped.len();
        stats.pruned_injectivity += n_used as u64;
        stats.pruned_degree += (prefix - below) as u64;
        stats.pruned_order += (nbrs.len() - prefix - window.len() - outside) as u64;

        let targets = &conn_data[meta.conn_start..meta.conn_end];
        id_rank.clear();
        'cand: for &x in window.iter().filter(|x| !skipped.contains(x)) {
            let cd = ordered.vertex(x);
            // Pruning rule 2: connectivity to GRAY pattern neighbors of wv
            // through the light-weight index, as in [`walked_arenas`].
            for &vd3 in targets {
                stats.index_probes += 1;
                if let Some(false) = shared.index_check(cd, vd3) {
                    stats.pruned_connectivity += 1;
                    continue 'cand;
                }
            }
            id_rank.push(u64::from(cd) << 32 | u64::from(x));
        }
        if id_rank.is_empty() {
            return false;
        }
        id_rank.sort_unstable();
        cand_data.extend(id_rank.iter().map(|&k| (k >> 32) as VertexId));
        cand_rank.extend(id_rank.iter().map(|&k| k as u32));
        cand_bounds.push(cand_data.len());
    }
    true
}

/// Algorithm 5 by walking `N(v_d)` (`neighbors_vd`, in id order) for every
/// WHITE slot, checking injectivity, degree, label, the rank window and
/// the index in turn: the path of labelled runs, where a label is checked
/// before the window, and of delta epochs whose ranks no longer follow
/// degree, where the degree bound is no prefix. Returns false when a slot
/// is left without candidates (after charging it).
fn walked_arenas(
    shared: &PsglShared<'_>,
    gpsi: &Gpsi,
    neighbors_vd: &[VertexId],
    scratch: &mut ExpandScratch,
    cost: &mut u64,
    stats: &mut ExpandStats,
) -> bool {
    let ExpandScratch {
        white_meta, conn_data, base_cands, cand_data, cand_rank, cand_bounds, ..
    } = scratch;
    let np = shared.pattern.num_vertices();
    // Slot-independent prefilter: one pass over `N(v_d)` drops
    // already-used data vertices (injectivity is the same for every WHITE
    // slot) and caches each survivor's degree and rank, so the per-slot
    // scans are compare-only over scratch-resident data. `used` dropped
    // candidates would have been injectivity-pruned once per slot; the
    // per-slot loop charges them at scan start to keep the counter
    // equivalent to a per-slot scan.
    base_cands.clear();
    let mut used: u64 = 0;
    for &cd in neighbors_vd {
        if gpsi.uses_data_vertex(cd, np) {
            used += 1;
            continue;
        }
        base_cands.push((cd, shared.graph.degree(cd), shared.ordered.rank(cd)));
    }

    for meta in white_meta.iter() {
        *cost += neighbors_vd.len() as u64; // neighborhood scan
        stats.pruned_injectivity += used;
        let start = cand_data.len();
        'cand: for &(cd, deg_cd, rank_cd) in base_cands.iter() {
            // Pruning rule 1a: degree.
            if deg_cd < meta.min_degree {
                stats.pruned_degree += 1;
                continue;
            }
            // Labeled matching: candidate must carry the pattern label.
            if !shared.label_ok(meta.wv, cd) {
                stats.pruned_label += 1;
                continue;
            }
            // Pruning rule 1b: partial order, via the hoisted rank window.
            if rank_cd < meta.lo_rank || rank_cd >= meta.hi_rank {
                stats.pruned_order += 1;
                continue;
            }
            // Pruning rule 2: connectivity to GRAY pattern neighbors of wv
            // through the light-weight index (skip entirely when the index
            // is disabled — the exact check is remote and therefore the
            // very thing the index exists to avoid).
            for &vd3 in &conn_data[meta.conn_start..meta.conn_end] {
                stats.index_probes += 1;
                if let Some(false) = shared.index_check(cd, vd3) {
                    stats.pruned_connectivity += 1;
                    continue 'cand;
                }
            }
            cand_data.push(cd);
            cand_rank.push(rank_cd);
        }
        if cand_data.len() == start {
            return false;
        }
        cand_bounds.push(cand_data.len());
    }
    true
}

/// Algorithm 5's per-WHITE-slot preparation, shared by the generic
/// odometer and the closing kernels: hoists every fact the candidate scan
/// and the odometer need (degree threshold, partial-order rank window,
/// connectivity targets, new-vs-new pair masks) so their inner loops
/// touch no pattern-side structure. `white_meta` holds the WHITE
/// neighbors of `vp` with only `wv` set; `conn_data` must be empty.
pub(crate) fn prepare_white_slots(
    shared: &PsglShared<'_>,
    gpsi: &Gpsi,
    vp: PatternVertex,
    white_meta: &mut [WhiteMeta],
    conn_data: &mut Vec<VertexId>,
) {
    let p = &shared.pattern;
    for meta in white_meta.iter_mut() {
        let wv = meta.wv;
        meta.min_degree = p.degree(wv);
        (meta.lo_rank, meta.hi_rank) = order_window(shared, gpsi, wv);
        // Pruning rule 2 targets: mapped pattern neighbors of wv other
        // than v_p, in pattern-neighbor order so index-probe accounting
        // matches the per-candidate loop this replaces.
        meta.conn_start = conn_data.len();
        for v3 in p.neighbors(wv) {
            if v3 != vp && gpsi.is_mapped(v3) {
                conn_data.push(gpsi.map(v3).unwrap());
            }
        }
        meta.conn_end = conn_data.len();
    }
    // New-vs-new pair relations: bit `i` of slot `d`'s masks encodes how
    // `d`'s candidate must relate to earlier slot `i`'s, so the odometer's
    // inner loop is mask tests plus cached rank compares.
    for d in 1..white_meta.len() {
        let wv_d = white_meta[d].wv;
        let (mut lt, mut gt, mut em) = (0u16, 0u16, 0u16);
        for (i, earlier) in white_meta[..d].iter().enumerate() {
            let wv_i = earlier.wv;
            if shared.order.requires_less(wv_d, wv_i) {
                lt |= 1 << i;
            }
            if shared.order.requires_less(wv_i, wv_d) {
                gt |= 1 << i;
            }
            if p.has_edge(wv_d, wv_i) {
                em |= 1 << i;
            }
        }
        white_meta[d].lt_mask = lt;
        white_meta[d].gt_mask = gt;
        white_meta[d].edge_mask = em;
    }
}

/// Pruning rule 1b against every vertex `gpsi` has mapped, as the rank
/// window `[lo, hi)` it leaves pattern vertex `v`: `requires_less(v, up)`
/// demands rank(cd) < rank(ud) and `requires_less(up, v)` demands
/// rank(cd) > rank(ud); ranks are a permutation, so the strict comparisons
/// translate exactly.
pub(crate) fn order_window(shared: &PsglShared<'_>, gpsi: &Gpsi, v: PatternVertex) -> (u32, u32) {
    let (mut lo, mut hi) = (0u32, u32::MAX);
    for up in (0..shared.pattern.num_vertices() as PatternVertex).filter(|&u| gpsi.is_mapped(u)) {
        let rank_ud = shared.ordered.rank(gpsi.map(up).unwrap());
        if shared.order.requires_less(v, up) {
            hi = hi.min(rank_ud);
        }
        if shared.order.requires_less(up, v) {
            lo = lo.max(rank_ud.saturating_add(1));
        }
    }
    (lo, hi)
}

/// [`sorted_contains_all`] with a short-list path: true iff every element
/// of `needles` (sorted, duplicate-free) appears in `haystack`.
fn adjacency_contains_all(haystack: &[VertexId], needles: &[VertexId]) -> bool {
    match needles.len() {
        // Short adjacency lists (the common case on small fixtures): a
        // sequential two-pointer merge beats galloping's setup cost.
        2.. if haystack.len() <= 64 => {
            let mut rest = haystack.iter();
            needles.iter().all(|&key| rest.any(|&h| h == key))
        }
        _ => sorted_contains_all(haystack, needles),
    }
}

/// Builds one new Gpsi from a full candidate combination, counts and
/// harvests it if complete, otherwise routes it through the distribution
/// strategy.
#[allow(clippy::too_many_arguments)]
fn finalize_combination(
    shared: &PsglShared<'_>,
    base: &Gpsi,
    white_meta: &[WhiteMeta],
    chosen: &[VertexId],
    grays: &mut Vec<GrayCandidate>,
    distributor: &mut Distributor,
    partitioner: &HashPartitioner,
    out: &mut Vec<Gpsi>,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    let p = &shared.pattern;
    let np = p.num_vertices();
    let mut g = *base;
    // The edge (v_p, wv) is exact: the candidate came from N(v_d), and v_p
    // is BLACK.
    for (meta, &cd) in white_meta.iter().zip(chosen) {
        g.assign(meta.wv, cd);
    }
    stats.generated += 1;
    if g.is_complete(p) {
        stats.results += 1;
        harvest.keep(&g, np);
        return;
    }
    // Useful GRAYs: those with WHITE neighbors or unverified incident edges.
    // An edge is verified iff one of its ends is BLACK, so an edge at a
    // GRAY vertex is unverified iff its other end is GRAY too.
    grays.clear();
    let white = ((1u32 << np) - 1) & !u32::from(g.mapped_mask());
    let gray = u32::from(g.gray_mask());
    let mut rest = gray;
    while rest != 0 {
        let gv = rest.trailing_zeros() as PatternVertex;
        rest &= rest - 1;
        let nb = p.neighbor_mask(gv);
        if nb & (white | gray) != 0 {
            let vd = g.map(gv).unwrap();
            grays.push(GrayCandidate {
                vp: gv,
                vd,
                degree: shared.graph.degree(vd),
                white_neighbors: (nb & white).count_ones(),
            });
        }
    }
    debug_assert!(!grays.is_empty(), "incomplete Gpsi must have a useful GRAY vertex: {g:?}");
    let pick = distributor.choose(grays, partitioner);
    g.set_expanding(grays[pick].vp);
    out.push(g);
}

/// Unit-test driver: expands every Gpsi of a single-worker run of
/// `pattern` in `g` to completion into `harvest` (the BSP runner is the
/// real driver), and returns the counters and the scratch, so tests can
/// inspect what the kernels left behind.
#[cfg(test)]
fn expand_all(
    g: &psgl_graph::DataGraph,
    pattern: &psgl_pattern::Pattern,
    config: &crate::PsglConfig,
    harvest: &mut Harvested,
) -> (ExpandStats, ExpandScratch) {
    let shared = PsglShared::prepare(g, pattern, config).unwrap();
    let partitioner = HashPartitioner::new(1);
    let mut distributor = Distributor::new(crate::distribute::Strategy::Random, 1, 7);
    let mut scratch = ExpandScratch::new();
    let mut stats = ExpandStats::default();
    let mut queue: Vec<Gpsi> = g
        .vertices()
        .filter(|&v| g.degree(v) >= pattern.degree(shared.init_vertex))
        .map(|v| Gpsi::initial(shared.init_vertex, v))
        .collect();
    let mut out = Vec::new();
    while let Some(gpsi) = queue.pop() {
        expand_gpsi(
            &shared,
            gpsi,
            &mut scratch,
            &mut distributor,
            &partitioner,
            &mut out,
            harvest,
            &mut stats,
        );
        queue.append(&mut out);
    }
    (stats, scratch)
}

/// [`expand_all`] listing: the instances it harvested, the counters and
/// the scratch.
#[cfg(test)]
pub(crate) fn list_all(
    g: &psgl_graph::DataGraph,
    pattern: &psgl_pattern::Pattern,
    config: &crate::PsglConfig,
) -> (Vec<Vec<VertexId>>, ExpandStats, ExpandScratch) {
    let mut harvest = Harvested::Instances(Vec::new());
    let (stats, scratch) = expand_all(g, pattern, config, &mut harvest);
    let Harvested::Instances(found) = harvest else { unreachable!() };
    (found, stats, scratch)
}

/// [`expand_all`] counting only (the count is the counters' `results`).
#[cfg(test)]
pub(crate) fn count_all(
    g: &psgl_graph::DataGraph,
    pattern: &psgl_pattern::Pattern,
    config: &crate::PsglConfig,
) -> (ExpandStats, ExpandScratch) {
    expand_all(g, pattern, config, &mut Harvested::CountOnly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::Strategy;
    use crate::PsglConfig;
    use psgl_graph::DataGraph;
    use psgl_pattern::catalog;

    fn instances(g: &DataGraph, pattern: &psgl_pattern::Pattern) -> Vec<Vec<VertexId>> {
        list_all(g, pattern, &PsglConfig::default()).0
    }

    /// K4 data graph: every 3-subset is a triangle (4 triangles), one
    /// 4-clique, three squares.
    fn k4() -> DataGraph {
        DataGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn triangles_in_k4() {
        let res = instances(&k4(), &catalog::triangle());
        assert_eq!(res.len(), 4);
        // Every instance must be a real triangle with distinct vertices.
        for inst in &res {
            let g = k4();
            assert!(g.has_edge(inst[0], inst[1]));
            assert!(g.has_edge(inst[1], inst[2]));
            assert!(g.has_edge(inst[0], inst[2]));
            let mut s = inst.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3);
        }
        // No duplicates across automorphic variants.
        let mut keys: Vec<Vec<VertexId>> = res
            .iter()
            .map(|i| {
                let mut k = i.clone();
                k.sort_unstable();
                k
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn squares_and_cliques_in_k4() {
        assert_eq!(instances(&k4(), &catalog::square()).len(), 3);
        assert_eq!(instances(&k4(), &catalog::four_clique()).len(), 1);
    }

    #[test]
    fn single_edge_pattern_lists_each_edge_once() {
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let res = instances(&g, &catalog::path(2));
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn paths_in_triangle() {
        // Path of 3 vertices in a triangle: 3 (one per middle vertex).
        let g = DataGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(instances(&g, &catalog::path(3)).len(), 3);
    }

    #[test]
    fn no_results_on_sparse_graph() {
        let g = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(instances(&g, &catalog::triangle()).is_empty());
        assert!(instances(&g, &catalog::square()).is_empty());
    }

    #[test]
    fn house_count_on_crafted_graph() {
        // Build a graph that contains exactly one house: square 0-1-2-3
        // plus apex 4 on edge 1-2 ... vertices {0,1,2,3,4}, edges of the
        // square (0,1),(1,2),(2,3),(3,0), apex (4,1),(4,2).
        let g =
            DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (4, 2)]).unwrap();
        let res = instances(&g, &catalog::house());
        assert_eq!(res.len(), 1, "exactly one house: {res:?}");
    }

    #[test]
    fn stats_track_pruning() {
        let g = k4();
        let pattern = catalog::triangle();
        let config = PsglConfig::default();
        let shared = PsglShared::prepare(&g, &pattern, &config).unwrap();
        let partitioner = HashPartitioner::new(1);
        let mut distributor = Distributor::new(Strategy::Random, 1, 7);
        let mut scratch = ExpandScratch::new();
        let mut stats = ExpandStats::default();
        let mut out = Vec::new();
        expand_gpsi(
            &shared,
            Gpsi::initial(0, 0),
            &mut scratch,
            &mut distributor,
            &partitioner,
            &mut out,
            &mut Harvested::CountOnly,
            &mut stats,
        );
        assert_eq!(stats.expanded, 1);
        assert!(stats.generated > 0);
        assert!(stats.cost > 0);
    }

    #[test]
    fn scratch_reuse_across_heterogeneous_expansions_is_clean() {
        // Reusing one scratch across different patterns and graphs must
        // never leak state between calls: counts match fresh-scratch runs.
        let graphs = [
            k4(),
            DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (4, 2)]).unwrap(),
        ];
        let patterns = [catalog::triangle(), catalog::square(), catalog::house()];
        for g in &graphs {
            for pat in &patterns {
                let fresh = instances(g, pat).len();
                // The driver reuses its scratch across the whole listing;
                // run it twice to cover warm-buffer reuse too.
                assert_eq!(instances(g, pat).len(), fresh, "{pat:?}");
            }
        }
    }
}
