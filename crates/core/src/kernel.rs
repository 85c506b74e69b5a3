//! Compiled expansion kernels: connectivity-map closing and two-hop wedge
//! joins.
//!
//! The generic odometer ([`crate::expand::expand_gpsi`]) checks every
//! pattern edge it cannot see locally through the inexact bloom index and
//! leaves it *unverified*, forcing a later verification-only expansion —
//! an extra superstep, an extra message, and a second GRAY check per
//! surviving instance. The kernels here exploit the fact that the data
//! graph is shared by every in-process (and cluster) worker: when an
//! expansion can map **all** remaining pattern vertices, every remaining
//! edge is exactly checkable right here, so the kernel finishes instances
//! in place and sends nothing.
//!
//! ## Rank is the id
//!
//! The kernels work in the rank space of [`OrderedGraph`]: a vertex is
//! named by its rank, and its adjacency list holds neighbour ranks in
//! ascending order. Once per expansion, `v_d`, the Gpsi's mapped vertices
//! and the slots' connectivity targets are translated to ranks; from then
//! on the candidate arenas, `chosen`, the cmap and every adjacency test
//! use ranks only. A candidate is its own rank, so an automorphism-breaking
//! window is a comparison against the element itself, or a sub-slice of a
//! sorted list. Ranks become ids again only where an instance is kept
//! (`keep_closed`), and for label lookups, which are indexed by id.
//!
//! A listing still keeps each expansion's tuples in id order, as the
//! id-space kernels did, so that the run's final sort stays a linear
//! check: under [`Harvested::Instances`] the odometer walks id-sorted
//! copies of its arenas, and each closing loop's survivors are sorted by
//! id before they are kept (a one-target wedge join walks the data
//! graph's id-sorted list instead, see [`join_two_hop`]).
//!
//! Counting is not listing: a finished instance is counted in
//! [`ExpandStats::results`] first, and is built as a Gpsi only when the
//! worker's [`Harvested`] keeps tuples or per-vertex tallies. Under
//! [`Harvested::CountOnly`] (the paper's default output) the kernels bump
//! two counters per survivor and never build a Gpsi. A TwoHop join whose
//! two-hop vertex has one pattern neighbour does not even visit its
//! survivors: it counts them as its rank window's slice length minus the
//! mapped vertices inside the slice (see [`join_two_hop`]).
//!
//! Two shapes of closing expansion exist (selected per partial instance by
//! the dispatch rule in [`crate::expand::expand_gpsi`]):
//!
//! - **Close** — every unmapped pattern vertex is a WHITE neighbor of the
//!   expanding vertex `v_p`. Candidates come from `N(v_d)` as usual;
//!   white-white pattern edges are checked exactly through the per-worker
//!   connectivity map (`cmap`, one byte per rank) instead of the bloom
//!   filter. Covers triangles, k-cliques, stars and the star+edge
//!   hub expansion.
//! - **TwoHop** — one unmapped vertex `w` is *not* adjacent to `v_p`. For
//!   each full WHITE combination, `w`'s candidates are the intersection of
//!   its (now all mapped) pattern neighbors' adjacency lists — a wedge
//!   join seeded from the lowest-degree endpoint. Covers rectangles and
//!   the rim expansion of tailed shapes.
//!
//! ## The connectivity map
//!
//! `cmap` lives in [`ExpandScratch`] (sized once, lazily, to the data
//! graph — steady state performs zero allocations), is indexed by rank,
//! and is maintained incrementally: binding WHITE slot `i` marks bit
//! `2 + i` on the binding's neighbors, backtracking clears it by walking
//! the same list.
//! The map is all-zero between expansions by construction. Adjacency
//! checks are degree-adaptive at every call site: short lists are marked
//! and probed in O(1) per candidate (`intersect_probe`), long lists are
//! galloped into per candidate (`intersect_gallop`), the cutoff being a
//! small multiple of the number of probes the mark would serve.
//!
//! The odometer only drives the first `nw - 1` WHITE slots. The *last*
//! slot is closed by an output-sensitive merge-join: its candidate arena
//! is intersected with the adjacency list of the lowest-degree bound
//! WHITE it must connect to, walking the shorter side and galloping the
//! longer. This replaces the `O(|arena_i| * |arena_j|)` pair scan the
//! naive odometer would do on its innermost two slots — the difference
//! between probing every pair and touching only (near-)survivors, which
//! dominates on skewed degree distributions. A triangle therefore binds
//! one slot and joins the other, marking nothing into the cmap at all.

use crate::checkpoint::Harvested;
use crate::expand::{prepare_white_slots, ExpandScratch, WhiteMeta, CMAP_MAX_SLOTS};
use crate::gpsi::{Gpsi, MAX_GPSI_VERTICES, UNMAPPED};
use crate::shared::PsglShared;
use crate::stats::ExpandStats;
use psgl_graph::algo::gallop_lower_bound;
use psgl_graph::{OrderedGraph, VertexId};
use psgl_pattern::PatternVertex;

/// Mark an adjacency list into the cmap when it is at most this many times
/// longer than the candidate set it will be probed against; beyond that,
/// galloping per candidate is cheaper than walking the list twice.
const PROBE_RATIO: usize = 4;

/// Bit of `cmap` carrying WHITE slot `i`'s odometer binding mark.
#[inline]
fn slot_bit(i: usize) -> u8 {
    1u8 << (2 + i)
}

/// Which part of a binding's adjacency a slot's marks must cover: the
/// whole list, or just the lower/higher-rank side when every later probe
/// site is rank-ordered the same way around the slot.
#[derive(Clone, Copy, PartialEq)]
enum MarkSide {
    Full,
    Higher,
    Lower,
}

/// The rank list a slot publishes (and retracts) marks over.
#[inline]
fn mark_list(ordered: &OrderedGraph, side: MarkSide, r: u32) -> &[u32] {
    match side {
        MarkSide::Full => ordered.neighbors_of_rank(r),
        MarkSide::Higher => ordered.higher_of_rank(r),
        MarkSide::Lower => ordered.lower_of_rank(r),
    }
}

/// Membership test in a sorted rank list.
#[inline]
fn contains(sorted: &[u32], x: u32) -> bool {
    let i = gallop_lower_bound(sorted, x);
    i < sorted.len() && sorted[i] == x
}

/// Exact edge test between two ranks, searching the shorter list.
#[inline]
fn adjacent(ordered: &OrderedGraph, a: u32, b: u32) -> bool {
    if ordered.degree_of_rank(a) <= ordered.degree_of_rank(b) {
        contains(ordered.neighbors_of_rank(a), b)
    } else {
        contains(ordered.neighbors_of_rank(b), a)
    }
}

/// Whether the vertex of rank `r` may map to pattern vertex `wv`. Labels
/// are indexed by id, so a labelled run crosses back for the lookup; an
/// unlabelled run never does.
#[inline]
fn label_ok(shared: &PsglShared<'_>, wv: PatternVertex, r: u32) -> bool {
    shared.labels.is_none() || shared.label_ok(wv, shared.ordered.vertex(r))
}

/// Hoisted facts about the two-hop vertex `w` (None for a pure Close).
struct WExtra {
    /// The two-hop pattern vertex itself.
    w: PatternVertex,
    /// Pattern degree of `w` (pruning rule 1a threshold).
    min_degree: u32,
    /// Static rank window from vertices mapped before the expansion.
    lo: u32,
    /// Upper end of the static rank window.
    hi: u32,
    /// Bit `i` set iff the pattern has edge `(w, slot i's WHITE vertex)`.
    edge_slots: u16,
    /// Bit `i` set iff the order requires `w`'s candidate below slot `i`'s.
    lt_slots: u16,
    /// Bit `i` set iff the order requires `w`'s candidate above slot `i`'s.
    gt_slots: u16,
}

/// Expands `gpsi` with a closing kernel. Preconditions (checked by the
/// dispatcher in `expand_gpsi`): `v_p` is BLACK with its GRAY edges
/// verified, `scratch.white_meta` holds all unmapped neighbors of `v_p`
/// (≤ [`crate::expand::CMAP_MAX_SLOTS`]), and `extra` is the single
/// unmapped non-neighbor if one exists. Emits complete instances only
/// (counted in `stats`, kept by `harvest`); never pushes outgoing Gpsis.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_specialized(
    shared: &PsglShared<'_>,
    gpsi: Gpsi,
    vp: PatternVertex,
    extra: Option<PatternVertex>,
    scratch: &mut ExpandScratch,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
    mut cost: u64,
) {
    let p = &shared.pattern;
    let np = p.num_vertices();
    let ordered = &*shared.ordered;
    match extra {
        None => stats.kernel_close += 1,
        Some(_) => stats.kernel_twohop += 1,
    }

    // The translation boundary: the partial instance's ids become ranks
    // once, here. `UNMAPPED` stays the unmapped marker; it is no rank.
    let ranks = ordered.ranks();
    let mut mapped_ranks = [UNMAPPED; MAX_GPSI_VERTICES];
    for (r, &d) in mapped_ranks.iter_mut().zip(gpsi.mapping(np)) {
        if d != UNMAPPED {
            *r = ranks[d as usize];
        }
    }
    let mapped = &mapped_ranks[..np];

    // Mixed generic → kernel flows can carry unverified mapped-mapped
    // edges (bloom-checked when their second endpoint bound, so both ends
    // are GRAY). The data graph is shared, so they are exactly checkable
    // here — a false positive dies now instead of after another superstep.
    for (a, b) in p.edges() {
        if !(gpsi.is_mapped(a) && gpsi.is_mapped(b)) || gpsi.is_edge_verified(a, b) {
            continue;
        }
        stats.intersect_gallop += 1;
        if !adjacent(ordered, mapped[a as usize], mapped[b as usize]) {
            stats.died_gray_check += 1;
            stats.cost += cost;
            return;
        }
    }

    if scratch.cmap.len() < ordered.len() {
        scratch.cmap.resize(ordered.len(), 0);
    }

    let rvd = mapped[vp as usize];
    let neighbors_vd = ordered.neighbors_of_rank(rvd);
    let deg_vd = neighbors_vd.len() as u64;
    let ExpandScratch {
        white_meta,
        conn_data,
        base_ranks,
        cand_data,
        chosen,
        cursors,
        cmap,
        need_mark,
        slot_gallop,
        slot_marked,
        w_static,
        w_targets,
        conn_gallop,
        kept,
        w_kept,
        ..
    } = scratch;
    conn_data.clear();
    cand_data.clear();
    let nw = white_meta.len();

    // The same per-WHITE-slot facts as the generic path: the rank windows
    // and masks implement the same pruning rules; only the connectivity
    // checks switch from bloom probes to exact adjacency. The slots'
    // connectivity targets cross into rank space with the prefix.
    prepare_white_slots(shared, &gpsi, vp, white_meta, conn_data);
    for t in conn_data.iter_mut() {
        *t = ranks[*t as usize];
    }

    // Two-hop vertex facts: static rank window and wedge targets from the
    // pre-bound mapping, slot masks for the dynamic part.
    w_static.clear();
    let w_extra = extra.map(|w| {
        let (mut lo, mut hi) = (0u32, u32::MAX);
        for up in (0..np as PatternVertex).filter(|&v| gpsi.is_mapped(v)) {
            let rank_ud = mapped[up as usize];
            if shared.order.requires_less(w, up) {
                hi = hi.min(rank_ud);
            }
            if shared.order.requires_less(up, w) {
                lo = lo.max(rank_ud.saturating_add(1));
            }
        }
        for v3 in p.neighbors(w) {
            if gpsi.is_mapped(v3) {
                w_static.push(mapped[v3 as usize]);
            }
        }
        let (mut edge_slots, mut lt_slots, mut gt_slots) = (0u16, 0u16, 0u16);
        for (i, meta) in white_meta.iter().enumerate() {
            if p.has_edge(w, meta.wv) {
                edge_slots |= 1 << i;
            }
            if shared.order.requires_less(w, meta.wv) {
                lt_slots |= 1 << i;
            }
            if shared.order.requires_less(meta.wv, w) {
                gt_slots |= 1 << i;
            }
        }
        WExtra { w, min_degree: p.degree(w), lo, hi, edge_slots, lt_slots, gt_slots }
    });

    // Per-slot candidate arenas, with two fusions over the generic path:
    // slots whose pruning facts are identical (same degree bound, rank
    // window, label class and wedge targets — every WHITE slot of a
    // clique) *alias* one arena instead of rescanning `N(v_d)`, and the
    // first distinct slot's scan doubles as the slot-independent
    // prefilter. A triangle or k-clique expansion therefore builds its
    // single shared arena in one pass over `N(v_d)`. Connectivity to
    // mapped wedge targets stays exact: short target adjacencies are
    // marked into cmap bits 0-1 and probed in O(1); long ones are
    // galloped into per candidate.
    let mut ranges = [(0usize, 0usize); CMAP_MAX_SLOTS];
    let mut alias = [usize::MAX; CMAP_MAX_SLOTS];
    let mut distinct = 0usize;
    for si in 0..nw {
        let meta = &white_meta[si];
        alias[si] = (0..si)
            .find(|&j| {
                alias[j] == usize::MAX && {
                    let prev = &white_meta[j];
                    prev.min_degree == meta.min_degree
                        && prev.lo_rank == meta.lo_rank
                        && prev.hi_rank == meta.hi_rank
                        && conn_data[prev.conn_start..prev.conn_end]
                            == conn_data[meta.conn_start..meta.conn_end]
                        && match &shared.labels {
                            None => true,
                            Some((_, pl)) => pl[prev.wv as usize] == pl[meta.wv as usize],
                        }
                }
            })
            .unwrap_or(usize::MAX);
        if alias[si] == usize::MAX {
            distinct += 1;
        }
    }
    // base_ranks only exists to amortize the slot-independent lookups
    // across *multiple* distinct scans; with one distinct slot (triangles,
    // k-cliques, stars) it would never be read back.
    let keep_base = distinct > 1;
    base_ranks.clear();
    let mut used: u64 = 0;
    let mut base_built = false;
    for si in 0..nw {
        let meta = &white_meta[si];
        if alias[si] != usize::MAX {
            ranges[si] = ranges[alias[si]];
            continue;
        }
        cost += deg_vd;
        let targets = &conn_data[meta.conn_start..meta.conn_end];
        conn_gallop.clear();
        let mut probe_targets = [0u32; 2];
        let mut probe_cnt = 0usize;
        let mut probe_mask = 0u8;
        for &t in targets {
            let deg_t = ordered.degree_of_rank(t) as usize;
            if probe_cnt < 2 && deg_t <= PROBE_RATIO * (deg_vd as usize).max(1) {
                let bit = 1u8 << probe_cnt;
                for &x in ordered.neighbors_of_rank(t) {
                    cmap[x as usize] |= bit;
                }
                probe_targets[probe_cnt] = t;
                probe_cnt += 1;
                probe_mask |= bit;
                stats.intersect_probe += 1;
            } else {
                conn_gallop.push(t);
            }
        }
        let start = cand_data.len();
        if base_built {
            stats.pruned_injectivity += used;
            for &(cd, deg_cd) in base_ranks.iter() {
                arena_filter(
                    shared,
                    meta,
                    cd,
                    deg_cd,
                    probe_mask,
                    cmap,
                    conn_gallop,
                    cand_data,
                    stats,
                );
            }
        } else {
            // With a single distinct slot the scan serves only this window;
            // a window one-sided against `v_d`'s own rank lives entirely on
            // the matching side of `N(v_d)`'s split — half the volume of a
            // skewed adjacency and no wasted filter calls on the far side.
            // A shared base scan (keep_base) must cover every slot's
            // window, so it stays on the full list.
            let scan: &[u32] = if keep_base {
                neighbors_vd
            } else if meta.lo_rank > rvd {
                ordered.higher_of_rank(rvd)
            } else if meta.hi_rank <= rvd {
                ordered.lower_of_rank(rvd)
            } else {
                neighbors_vd
            };
            for &cd in scan {
                if mapped.contains(&cd) {
                    used += 1;
                    continue;
                }
                let deg_cd = ordered.degree_of_rank(cd);
                if keep_base {
                    base_ranks.push((cd, deg_cd));
                }
                arena_filter(
                    shared,
                    meta,
                    cd,
                    deg_cd,
                    probe_mask,
                    cmap,
                    conn_gallop,
                    cand_data,
                    stats,
                );
            }
            stats.pruned_injectivity += used;
            base_built = true;
        }
        for (j, &t) in probe_targets[..probe_cnt].iter().enumerate() {
            let bit = 1u8 << j;
            for &x in ordered.neighbors_of_rank(t) {
                cmap[x as usize] &= !bit;
            }
        }
        if cand_data.len() == start {
            stats.died_no_candidates += 1;
            stats.cost += cost;
            return;
        }
        ranges[si] = (start, cand_data.len());
    }

    // The odometer drives slots 0..od; the last slot (od) is merge-joined
    // by close_combination. Only *odometer-internal* edges force a slot to
    // publish marks — the final slot's edge to its join seed is handled by
    // the intersection, and any further final-slot edges probe marks
    // opportunistically (falling back to galloping when absent).
    let od = nw.saturating_sub(1);
    need_mark.clear();
    need_mark.resize(nw, false);
    slot_gallop.clear();
    slot_gallop.resize(nw, false);
    slot_marked.clear();
    slot_marked.resize(nw, false);
    for d in 1..od {
        let em = white_meta[d].edge_mask;
        for (i, flag) in need_mark[..d].iter_mut().enumerate() {
            if (em >> i) & 1 == 1 {
                *flag = true;
            }
        }
    }
    // One-sided marking: every probe of slot i's marks comes from a later
    // slot's candidate that already passed its rank check against slot i
    // (the odometer orders lt/gt before em per earlier slot; the final
    // slot's window is folded before its edges are checked). When all
    // those later slots are rank-ordered the same way around slot i, only
    // that side of the binding's split list can ever be probed — publish
    // and retract walk that side alone.
    let mut mark_side = [MarkSide::Full; CMAP_MAX_SLOTS];
    for i in 0..od {
        if !need_mark[i] {
            continue;
        }
        let mut all_gt = true;
        let mut all_lt = true;
        for meta in &white_meta[i + 1..nw] {
            if (meta.edge_mask >> i) & 1 == 1 {
                all_gt &= (meta.gt_mask >> i) & 1 == 1;
                all_lt &= (meta.lt_mask >> i) & 1 == 1;
            }
        }
        mark_side[i] = if all_gt {
            MarkSide::Higher
        } else if all_lt {
            MarkSide::Lower
        } else {
            MarkSide::Full
        };
    }

    // A listing keeps each expansion's tuples in id order, the order the
    // run's final sort wants; out of it, that sort cost more than the
    // listing. The joins meet candidates in rank order, so under
    // `Instances` the odometer walks id-sorted copies of its arenas, and
    // each closing loop's survivors are queued and sorted by id
    // (`sort_by_id`, or an id-order walk in a one-target wedge join).
    // Counting pays for none of it.
    if let Harvested::Instances(_) = harvest {
        for si in 0..od {
            if alias[si] != usize::MAX {
                ranges[si] = ranges[alias[si]];
                continue;
            }
            let start = cand_data.len();
            cand_data.extend_from_within(ranges[si].0..ranges[si].1);
            cand_data[start..].sort_unstable_by_key(|&r| ordered.vertex(r));
            ranges[si] = (start, cand_data.len());
        }
    }

    let examined_before = stats.combinations_examined;
    let mut generated: u64 = 0;

    chosen.clear();
    chosen.resize(nw, 0);
    let fin_range = if nw == 0 { (0, 0) } else { ranges[nw - 1] };
    if od == 0 {
        // Nothing for the odometer: a lone WHITE slot (joined against the
        // empty prefix) or a verification-style expansion with only the
        // two-hop vertex left.
        close_combination(
            shared,
            &gpsi,
            mapped,
            white_meta,
            cand_data,
            fin_range,
            chosen,
            slot_marked,
            cmap,
            w_extra.as_ref(),
            w_static,
            w_targets,
            kept,
            w_kept,
            &mut generated,
            &mut cost,
            harvest,
            stats,
        );
    } else if od == 1 && w_extra.is_none() {
        // Pair-close fast path (triangles, paths of length two, any
        // two-WHITE Close shape): one odometer slot plus the joined final
        // slot. The general machinery re-derives the rank window, join
        // seed, and arena slices per prefix through an outlined call;
        // here every invariant is hoisted out of the prefix loop.
        close_pair(
            shared,
            &gpsi,
            white_meta,
            cand_data,
            ranges[0],
            fin_range,
            cmap,
            kept,
            &mut generated,
            &mut cost,
            harvest,
            stats,
        );
    } else {
        cursors.clear();
        cursors.resize(od, 0);
        cursors[0] = ranges[0].0;
        let mut depth = 0usize;
        loop {
            if cursors[depth] == ranges[depth].1 {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                // Retract the binding being advanced past: clear its cmap
                // marks (walking the same list that set them) and its
                // gallop-mode flag.
                if slot_marked[depth] {
                    for &x in mark_list(ordered, mark_side[depth], chosen[depth]) {
                        cmap[x as usize] &= !slot_bit(depth);
                    }
                    slot_marked[depth] = false;
                }
                slot_gallop[depth] = false;
                cursors[depth] += 1;
                continue;
            }
            let cd = cand_data[cursors[depth]];
            stats.combinations_examined += 1;
            let passes = 'check: {
                if chosen[..depth].contains(&cd) {
                    stats.pruned_injectivity += 1;
                    break 'check false;
                }
                let meta = &white_meta[depth];
                let (lt, gt, em) = (meta.lt_mask, meta.gt_mask, meta.edge_mask);
                for i in 0..depth {
                    let prev = chosen[i];
                    if (lt >> i) & 1 == 1 && cd >= prev {
                        stats.pruned_order += 1;
                        break 'check false;
                    }
                    if (gt >> i) & 1 == 1 && prev >= cd {
                        stats.pruned_order += 1;
                        break 'check false;
                    }
                    if (em >> i) & 1 == 1 {
                        // Exact white-white edge, replacing the generic
                        // kernel's bloom probe (and the verification
                        // superstep the bloom answer would require).
                        if slot_gallop[i] {
                            stats.intersect_gallop += 1;
                            if !adjacent(ordered, prev, cd) {
                                stats.pruned_connectivity += 1;
                                break 'check false;
                            }
                        } else {
                            stats.cmap_probes += 1;
                            if cmap[cd as usize] & slot_bit(i) == 0 {
                                stats.pruned_connectivity += 1;
                                break 'check false;
                            }
                            stats.cmap_hits += 1;
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
            if depth + 1 == od {
                close_combination(
                    shared,
                    &gpsi,
                    mapped,
                    white_meta,
                    cand_data,
                    fin_range,
                    chosen,
                    slot_marked,
                    cmap,
                    w_extra.as_ref(),
                    w_static,
                    w_targets,
                    kept,
                    w_kept,
                    &mut generated,
                    &mut cost,
                    harvest,
                    stats,
                );
                cursors[depth] += 1;
            } else {
                if need_mark[depth] {
                    let nb = mark_list(ordered, mark_side[depth], cd);
                    // Degree-adaptive publish: marking walks the binding's
                    // (one-sided) list twice (set + clear) but makes every
                    // deeper check O(1); galloping pays O(log deg) per
                    // deeper candidate. The deeper odometer arenas bound
                    // the number of probes the mark can serve.
                    let deeper: usize = ranges[depth + 1..od].iter().map(|&(lo, hi)| hi - lo).sum();
                    if nb.len() <= PROBE_RATIO * deeper.max(16) {
                        for &x in nb {
                            cmap[x as usize] |= slot_bit(depth);
                        }
                        slot_marked[depth] = true;
                        stats.intersect_probe += 1;
                    } else {
                        slot_gallop[depth] = true;
                    }
                }
                depth += 1;
                cursors[depth] = ranges[depth].0;
            }
        }
    }

    cost += stats.combinations_examined - examined_before;
    cost += generated;
    stats.cost += cost;
}

/// One candidate's slot-specific arena checks: degree bound, label class,
/// static rank window, and exact connectivity to the slot's pre-mapped
/// wedge targets (mark-probed or galloped). Pushes survivors into the
/// arena.
#[allow(clippy::too_many_arguments)]
#[inline]
fn arena_filter(
    shared: &PsglShared<'_>,
    meta: &WhiteMeta,
    cd: u32,
    deg_cd: u32,
    probe_mask: u8,
    cmap: &[u8],
    conn_gallop: &[u32],
    cand_data: &mut Vec<u32>,
    stats: &mut ExpandStats,
) {
    if deg_cd < meta.min_degree {
        stats.pruned_degree += 1;
        return;
    }
    if !label_ok(shared, meta.wv, cd) {
        stats.pruned_label += 1;
        return;
    }
    if cd < meta.lo_rank || cd >= meta.hi_rank {
        stats.pruned_order += 1;
        return;
    }
    if probe_mask != 0 {
        stats.cmap_probes += 1;
        if cmap[cd as usize] & probe_mask != probe_mask {
            stats.pruned_connectivity += 1;
            return;
        }
        stats.cmap_hits += 1;
    }
    for &t in conn_gallop {
        stats.intersect_gallop += 1;
        if !contains(shared.ordered.neighbors_of_rank(t), cd) {
            stats.pruned_connectivity += 1;
            return;
        }
    }
    cand_data.push(cd);
}

/// Counts one closed instance whose last vertex binds to rank `x`. Every
/// pattern edge was checked exactly before the call, so the instance is
/// complete although its last vertices are not BLACK. It is counted first;
/// only a harvest that keeps tuples or per-vertex tallies queues `x` in
/// `kept`, and pays for building the instance when its join loop hands
/// the queue to [`keep_closed`].
#[inline(always)]
fn emit_closed(
    x: u32,
    kept: &mut Vec<u32>,
    generated: &mut u64,
    harvest: &Harvested,
    stats: &mut ExpandStats,
) {
    stats.generated += 1;
    stats.results += 1;
    *generated += 1;
    if !matches!(harvest, Harvested::CountOnly) {
        kept.push(x);
    }
}

/// Puts the ranks a closing loop queued in id order when the harvest
/// lists tuples.
#[inline]
fn sort_by_id(ordered: &OrderedGraph, kept: &mut [u32], harvest: &Harvested) {
    if let Harvested::Instances(_) = harvest {
        kept.sort_unstable_by_key(|&r| ordered.vertex(r));
    }
}

/// The keep path of [`emit_closed`]: keeps `base` with WHITE slots `slots`
/// bound to the ranks in `bound` and its last vertex `last` bound to each
/// queued rank in turn, in queue order, then empties the queue. The only
/// place a closed instance crosses back from ranks to ids, and the only
/// place its Gpsi is built. Out of line so the count-only join loops stay
/// small.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn keep_closed(
    ordered: &OrderedGraph,
    base: &Gpsi,
    slots: &[WhiteMeta],
    bound: &[u32],
    last: PatternVertex,
    kept: &mut Vec<u32>,
    np: usize,
    harvest: &mut Harvested,
) {
    let mut prefix = *base;
    for (meta, &r) in slots.iter().zip(bound) {
        prefix.assign(meta.wv, ordered.vertex(r));
    }
    for &x in kept.iter() {
        let mut g = prefix;
        g.assign(last, ordered.vertex(x));
        harvest.keep(&g, np);
    }
    kept.clear();
}

/// The two-WHITE Close join (`od == 1`, no two-hop vertex): for each
/// binding of slot 0, merge-join the final slot's arena against it and
/// emit every closed instance. Triangles spend almost the whole expansion
/// here, so the join is tuned beyond [`close_combination`]: the arena is
/// marked into the cmap **once per expansion** (the final slot's bit is
/// free — it never binds through the odometer), turning the common
/// low-degree-binding case into a sequential walk of `N(c0)` with one
/// O(1) map probe per neighbor. High-degree bindings still walk the
/// arena and gallop, window-and-injectivity first. All rank-window
/// masks and arena slices are hoisted out of the per-prefix loop.
#[allow(clippy::too_many_arguments)]
fn close_pair(
    shared: &PsglShared<'_>,
    base: &Gpsi,
    white_meta: &[WhiteMeta],
    cand_data: &[u32],
    r0: (usize, usize),
    fin_range: (usize, usize),
    cmap: &mut [u8],
    kept: &mut Vec<u32>,
    generated: &mut u64,
    cost: &mut u64,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    let ordered = &*shared.ordered;
    let (m0, fin) = (&white_meta[..1], &white_meta[1]);
    let arena = &cand_data[fin_range.0..fin_range.1];
    let window_lt = fin.lt_mask & 1 == 1;
    let window_gt = fin.gt_mask & 1 == 1;
    let joined = fin.edge_mask & 1 == 1;
    let fin_bit = slot_bit(1);
    let np = shared.pattern.num_vertices();
    if joined {
        for &x in arena {
            cmap[x as usize] |= fin_bit;
        }
        stats.intersect_probe += 1;
    }
    for i0 in r0.0..r0.1 {
        // Slot 0's binding, as the one-element prefix `keep_closed` binds.
        let prefix = &cand_data[i0..=i0];
        let c0 = prefix[0];
        stats.combinations_examined += 1;
        let lo = if window_gt { c0.saturating_add(1) } else { 0 };
        let hi = if window_lt { c0 } else { u32::MAX };
        if joined {
            // The dynamic window against `c0` is one-sided, so the
            // matching side of `N(c0)`'s split already enforces it — no
            // per-element rank check on the walk below.
            let tn = if window_gt {
                ordered.higher_of_rank(c0)
            } else if window_lt {
                ordered.lower_of_rank(c0)
            } else {
                ordered.neighbors_of_rank(c0)
            };
            if tn.len() < PROBE_RATIO * arena.len() {
                // Walk the binding's one-sided list sequentially; arena
                // membership is one probe of the per-expansion marks, and
                // arena membership plus the side imply the whole window.
                *cost += tn.len() as u64;
                for &x in tn {
                    stats.cmap_probes += 1;
                    if cmap[x as usize] & fin_bit == 0 {
                        continue;
                    }
                    stats.cmap_hits += 1;
                    stats.combinations_examined += 1;
                    if x == c0 {
                        stats.pruned_injectivity += 1;
                        continue;
                    }
                    emit_closed(x, kept, generated, harvest, stats);
                }
            } else {
                // Hub binding: walk the (shorter) arena, pruning on
                // the window and injectivity before the gallop into
                // `N(c0)`, with the cursor monotone across candidates.
                stats.intersect_gallop += 1;
                *cost += arena.len() as u64;
                let mut from = 0usize;
                for &x in arena {
                    stats.combinations_examined += 1;
                    if x < lo || x >= hi {
                        stats.pruned_order += 1;
                        continue;
                    }
                    if x == c0 {
                        stats.pruned_injectivity += 1;
                        continue;
                    }
                    let j = from + gallop_lower_bound(&tn[from..], x);
                    if j >= tn.len() {
                        break;
                    }
                    from = j;
                    if tn[j] != x {
                        stats.pruned_connectivity += 1;
                        continue;
                    }
                    from = j + 1;
                    emit_closed(x, kept, generated, harvest, stats);
                }
            }
        } else {
            // No white-white edge (two-leaf stars): every arena member
            // in the window closes an instance.
            *cost += arena.len() as u64;
            for &x in arena {
                stats.combinations_examined += 1;
                if x < lo || x >= hi {
                    stats.pruned_order += 1;
                    continue;
                }
                if x == c0 {
                    stats.pruned_injectivity += 1;
                    continue;
                }
                emit_closed(x, kept, generated, harvest, stats);
            }
        }
        if !kept.is_empty() {
            sort_by_id(ordered, kept, harvest);
            keep_closed(ordered, base, m0, prefix, fin.wv, kept, np, harvest);
        }
    }
    if joined {
        for &x in arena {
            cmap[x as usize] &= !fin_bit;
        }
    }
}

/// Finishes one odometer prefix (slots `0..nw-1`): merge-joins the final
/// WHITE slot's candidates against its lowest-degree bound neighbor, then
/// emits the closed instance (Close) or wedge-joins the two-hop vertex
/// and emits one instance per survivor (TwoHop).
#[allow(clippy::too_many_arguments)]
#[inline]
fn close_combination(
    shared: &PsglShared<'_>,
    base: &Gpsi,
    mapped: &[u32],
    white_meta: &[WhiteMeta],
    cand_data: &[u32],
    fin_range: (usize, usize),
    chosen: &mut [u32],
    slot_marked: &[bool],
    cmap: &[u8],
    w_extra: Option<&WExtra>,
    w_static: &[u32],
    w_targets: &mut Vec<u32>,
    kept: &mut Vec<u32>,
    w_kept: &mut Vec<u32>,
    generated: &mut u64,
    cost: &mut u64,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    let ordered = &*shared.ordered;
    let nw = white_meta.len();
    if nw == 0 {
        // Verification-style expansion with only the two-hop vertex left.
        let wx = w_extra.expect("kernel dispatch sends nw == 0 only with a two-hop vertex");
        join_two_hop(
            shared, base, mapped, white_meta, wx, chosen, w_static, w_targets, w_kept, generated,
            cost, harvest, stats,
        );
        return;
    }
    let od = nw - 1;
    let fin = &white_meta[od];
    // Dynamic rank window against the odometer prefix; the static part
    // (pre-bound mapping) was already applied when the arena was built.
    let (mut lo, mut hi) = (0u32, u32::MAX);
    for (i, &cr) in chosen[..od].iter().enumerate() {
        if (fin.lt_mask >> i) & 1 == 1 {
            hi = hi.min(cr);
        }
        if (fin.gt_mask >> i) & 1 == 1 {
            lo = lo.max(cr.saturating_add(1));
        }
    }
    let em = fin.edge_mask;
    let arena = &cand_data[fin_range.0..fin_range.1];
    // Merge-join seed: the bound WHITE with the fewest candidates the
    // final slot must connect to (the arena already encodes the edge to
    // v_d and every pre-bound constraint). A one-sided rank constraint
    // against a bound slot shrinks its effective list to that side of its
    // split, so the seed is chosen by *one-sided* length.
    let mut t_slot = usize::MAX;
    let mut t_list: &[u32] = &[];
    for (i, &cd) in chosen[..od].iter().enumerate() {
        if (em >> i) & 1 == 1 {
            let list = if (fin.gt_mask >> i) & 1 == 1 {
                ordered.higher_of_rank(cd)
            } else if (fin.lt_mask >> i) & 1 == 1 {
                ordered.lower_of_rank(cd)
            } else {
                ordered.neighbors_of_rank(cd)
            };
            if t_slot == usize::MAX || list.len() < t_list.len() {
                t_list = list;
                t_slot = i;
            }
        }
    }
    if t_slot != usize::MAX {
        // Both sides of the join are sorted, so intersect by walking the
        // shorter list and galloping a *monotone* cursor through the
        // longer — output-sensitive (touches only near-members, never
        // every (prefix, candidate) pair) and forward-only, unlike a
        // from-scratch adjacency gallop per candidate. The walked/galloped
        // list is one side of the seed's split whenever the final slot's
        // rank constraint against the seed is one-sided: membership then
        // implies that side of the window for free.
        stats.intersect_gallop += 1;
        let tn = t_list;
        if tn.len() < arena.len() {
            *cost += tn.len() as u64;
            let mut from = 0usize;
            for &x in tn {
                let idx = from + gallop_lower_bound(&arena[from..], x);
                if idx >= arena.len() {
                    break;
                }
                from = idx;
                if arena[idx] != x {
                    continue;
                }
                from = idx + 1;
                stats.combinations_examined += 1;
                if !final_slot_ok(
                    ordered,
                    chosen,
                    od,
                    em,
                    t_slot,
                    slot_marked,
                    cmap,
                    x,
                    lo,
                    hi,
                    stats,
                ) {
                    continue;
                }
                finish_candidate(
                    shared, base, mapped, white_meta, x, chosen, w_extra, w_static, w_targets,
                    kept, w_kept, generated, cost, harvest, stats,
                );
            }
        } else {
            // Arena is the short side: walk it, pruning on the rank window
            // and injectivity *first* (both read memory already in hand)
            // so only plausible candidates pay the gallop into `N(t)` —
            // the window alone kills half the pairs of a symmetric
            // pattern — with the cursor again monotone across candidates.
            *cost += arena.len() as u64;
            let mut from = 0usize;
            for &x in arena {
                stats.combinations_examined += 1;
                if x < lo || x >= hi {
                    stats.pruned_order += 1;
                    continue;
                }
                if chosen[..od].contains(&x) {
                    stats.pruned_injectivity += 1;
                    continue;
                }
                let j = from + gallop_lower_bound(&tn[from..], x);
                if j >= tn.len() {
                    break;
                }
                from = j;
                if tn[j] != x {
                    stats.pruned_connectivity += 1;
                    continue;
                }
                from = j + 1;
                if !final_edges_ok(ordered, chosen, od, em, t_slot, slot_marked, cmap, x, stats) {
                    continue;
                }
                finish_candidate(
                    shared, base, mapped, white_meta, x, chosen, w_extra, w_static, w_targets,
                    kept, w_kept, generated, cost, harvest, stats,
                );
            }
        }
    } else {
        // The final slot has no bound WHITE neighbor (stars, rectangles):
        // every arena member is a candidate.
        for &x in arena {
            stats.combinations_examined += 1;
            if !final_slot_ok(
                ordered,
                chosen,
                od,
                em,
                usize::MAX,
                slot_marked,
                cmap,
                x,
                lo,
                hi,
                stats,
            ) {
                continue;
            }
            finish_candidate(
                shared, base, mapped, white_meta, x, chosen, w_extra, w_static, w_targets, kept,
                w_kept, generated, cost, harvest, stats,
            );
        }
    }
    if kept.is_empty() {
        return;
    }
    sort_by_id(ordered, kept, harvest);
    match w_extra {
        None => {
            let np = shared.pattern.num_vertices();
            keep_closed(ordered, base, &white_meta[..od], &chosen[..od], fin.wv, kept, np, harvest);
        }
        Some(wx) => {
            // The final-slot bindings a keeping harvest queued, wedge-joined
            // now, in id order under `Instances`.
            for &x in kept.iter() {
                chosen[od] = x;
                join_two_hop(
                    shared, base, mapped, white_meta, wx, chosen, w_static, w_targets, w_kept,
                    generated, cost, harvest, stats,
                );
            }
            kept.clear();
        }
    }
}

/// Final-slot candidate checks beyond arena membership: the dynamic rank
/// window, injectivity against the odometer prefix, and any white-white
/// edges other than the join seed (mark-probed when the binding published
/// marks for the odometer, galloped otherwise).
#[allow(clippy::too_many_arguments)]
#[inline]
fn final_slot_ok(
    ordered: &OrderedGraph,
    chosen: &[u32],
    od: usize,
    em: u16,
    skip: usize,
    slot_marked: &[bool],
    cmap: &[u8],
    x: u32,
    lo: u32,
    hi: u32,
    stats: &mut ExpandStats,
) -> bool {
    if x < lo || x >= hi {
        stats.pruned_order += 1;
        return false;
    }
    if chosen[..od].contains(&x) {
        stats.pruned_injectivity += 1;
        return false;
    }
    final_edges_ok(ordered, chosen, od, em, skip, slot_marked, cmap, x, stats)
}

/// The final slot's white-white edges beyond the join seed: mark-probed
/// when the binding published marks for the odometer, galloped otherwise.
#[allow(clippy::too_many_arguments)]
#[inline]
fn final_edges_ok(
    ordered: &OrderedGraph,
    chosen: &[u32],
    od: usize,
    em: u16,
    skip: usize,
    slot_marked: &[bool],
    cmap: &[u8],
    x: u32,
    stats: &mut ExpandStats,
) -> bool {
    for i in 0..od {
        if (em >> i) & 1 == 1 && i != skip {
            if slot_marked[i] {
                stats.cmap_probes += 1;
                if cmap[x as usize] & slot_bit(i) == 0 {
                    stats.pruned_connectivity += 1;
                    return false;
                }
                stats.cmap_hits += 1;
            } else {
                stats.intersect_gallop += 1;
                if !adjacent(ordered, chosen[i], x) {
                    stats.pruned_connectivity += 1;
                    return false;
                }
            }
        }
    }
    true
}

/// Binds the final WHITE slot to rank `x` and either emits the closed
/// instance (Close) or runs the two-hop wedge join (TwoHop). Under a
/// keeping harvest a TwoHop binding is queued in `kept` instead, and
/// [`close_combination`] joins the queue in id order when its loop ends.
/// Called once per final-slot survivor, so it must not stay an
/// out-of-line call with a dozen arguments: `inline(always)` keeps it in
/// the join loops.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn finish_candidate(
    shared: &PsglShared<'_>,
    base: &Gpsi,
    mapped: &[u32],
    white_meta: &[WhiteMeta],
    x: u32,
    chosen: &mut [u32],
    w_extra: Option<&WExtra>,
    w_static: &[u32],
    w_targets: &mut Vec<u32>,
    kept: &mut Vec<u32>,
    w_kept: &mut Vec<u32>,
    generated: &mut u64,
    cost: &mut u64,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    match w_extra {
        // Close: every pattern edge has been exactly checked — the
        // (v_p, white) edges by candidate construction, white-white by
        // join/mark/gallop, everything else before the odometer started.
        None => emit_closed(x, kept, generated, harvest, stats),
        Some(_) if !matches!(harvest, Harvested::CountOnly) => kept.push(x),
        Some(wx) => {
            chosen[white_meta.len() - 1] = x;
            join_two_hop(
                shared, base, mapped, white_meta, wx, chosen, w_static, w_targets, w_kept,
                generated, cost, harvest, stats,
            )
        }
    }
}

/// Wedge-joins the two-hop vertex's candidates over a fully bound WHITE
/// combination (`chosen`, one rank per slot of `white_meta`) and emits
/// one instance per survivor.
///
/// The candidates are `N(bt)` for the lowest-degree wedge target `bt`,
/// and `w`'s rank window is a sub-slice of it. When `w` has a single
/// pattern neighbour and the run has no labels, the degree bound is
/// vacuous (every member of `N(bt)` has degree ≥ 1) and the window and
/// injectivity are the only checks left, so the survivors are the slice
/// minus the mapped vertices in it: a count-only harvest takes that
/// difference without visiting an element, and bumps every counter by
/// exactly what the per-element walk would bump.
#[allow(clippy::too_many_arguments)]
fn join_two_hop(
    shared: &PsglShared<'_>,
    base: &Gpsi,
    mapped: &[u32],
    white_meta: &[WhiteMeta],
    wx: &WExtra,
    chosen: &[u32],
    w_static: &[u32],
    w_targets: &mut Vec<u32>,
    kept: &mut Vec<u32>,
    generated: &mut u64,
    cost: &mut u64,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    let ordered = &*shared.ordered;
    // Fold the chosen WHITE ranks into w's static rank window.
    let (mut lo, mut hi) = (wx.lo, wx.hi);
    for (i, &rank) in chosen.iter().enumerate() {
        if (wx.lt_slots >> i) & 1 == 1 {
            hi = hi.min(rank);
        }
        if (wx.gt_slots >> i) & 1 == 1 {
            lo = lo.max(rank.saturating_add(1));
        }
    }
    // Wedge targets: every pattern neighbor of w is mapped now.
    w_targets.clear();
    w_targets.extend_from_slice(w_static);
    for (i, &cd) in chosen.iter().enumerate() {
        if (wx.edge_slots >> i) & 1 == 1 {
            w_targets.push(cd);
        }
    }
    debug_assert!(!w_targets.is_empty(), "two-hop vertex must have mapped neighbors");
    // Seed the join from the lowest-degree endpoint (degree-adaptive).
    let mut base_i = 0usize;
    let mut base_deg = u32::MAX;
    for (i, &t) in w_targets.iter().enumerate() {
        let d = ordered.degree_of_rank(t);
        if d < base_deg {
            base_deg = d;
            base_i = i;
        }
    }
    let bt = w_targets[base_i];
    let nbt = ordered.neighbors_of_rank(bt);
    *cost += u64::from(base_deg);

    if w_targets.len() == 1 && shared.labels.is_none() && matches!(harvest, Harvested::CountOnly) {
        debug_assert_eq!(wx.min_degree, 1);
        let from = nbt.partition_point(|&x| x < lo);
        let to = nbt.partition_point(|&x| x < hi).max(from);
        let window = &nbt[from..to];
        let inside = mapped
            .iter()
            .chain(chosen)
            .filter(|&&m| (lo..hi).contains(&m) && contains(window, m))
            .count();
        let closed = (window.len() - inside) as u64;
        stats.combinations_examined += nbt.len() as u64;
        stats.pruned_order += (nbt.len() - window.len()) as u64;
        stats.pruned_injectivity += inside as u64;
        stats.generated += closed;
        stats.results += closed;
        *generated += closed;
        return;
    }

    // A listing keeps the survivors in id order. With one wedge target
    // every member of the window survives, so it walks `N(bt)` in id
    // order through the data graph's list; with several, few survive the
    // gallops, so it walks ranks and sorts the survivors.
    let by_id: &[VertexId] = match harvest {
        Harvested::Instances(_) if w_targets.len() == 1 => {
            shared.graph.neighbors(ordered.vertex(bt))
        }
        _ => &[],
    };
    let ranks = ordered.ranks();
    'wcand: for (pos, &r) in nbt.iter().enumerate() {
        let x = if by_id.is_empty() { r } else { ranks[by_id[pos] as usize] };
        stats.combinations_examined += 1;
        if ordered.degree_of_rank(x) < wx.min_degree {
            stats.pruned_degree += 1;
            continue;
        }
        if !label_ok(shared, wx.w, x) {
            stats.pruned_label += 1;
            continue;
        }
        if x < lo || x >= hi {
            stats.pruned_order += 1;
            continue;
        }
        if mapped.contains(&x) || chosen.contains(&x) {
            stats.pruned_injectivity += 1;
            continue;
        }
        for (i, &t) in w_targets.iter().enumerate() {
            if i == base_i {
                continue;
            }
            stats.intersect_gallop += 1;
            if !adjacent(ordered, t, x) {
                stats.pruned_connectivity += 1;
                continue 'wcand;
            }
        }
        emit_closed(x, kept, generated, harvest, stats);
    }
    if !kept.is_empty() {
        if by_id.is_empty() {
            sort_by_id(ordered, kept, harvest);
        }
        let np = shared.pattern.num_vertices();
        keep_closed(ordered, base, white_meta, chosen, wx.w, kept, np, harvest);
    }
}

#[cfg(test)]
mod tests {
    use crate::expand::list_all;
    use crate::{PsglConfig, PsglShared};
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_graph::VertexId;
    use psgl_pattern::catalog;

    fn sorted(mut v: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
        v.sort();
        v
    }

    #[test]
    fn kernels_match_generic_on_every_paper_pattern() {
        let g = erdos_renyi_gnm(80, 420, 11).unwrap();
        for pattern in catalog::paper_patterns() {
            let (on, stats_on, _) = list_all(&g, &pattern, &PsglConfig::default());
            let (off, stats_off, _) = list_all(&g, &pattern, &PsglConfig::default().kernels(false));
            assert_eq!(on.len() as u64, stats_on.results, "{}", pattern.name());
            assert_eq!(sorted(on), sorted(off), "{}", pattern.name());
            assert_eq!(stats_on.results, stats_off.results, "{}", pattern.name());
            assert!(
                stats_on.expanded <= stats_off.expanded,
                "{}: kernels must not expand more",
                pattern.name()
            );
        }
    }

    #[test]
    fn each_expansion_keeps_its_tuples_in_id_order() {
        // One closing expansion of its initial Gpsi finishes each of these
        // patterns, so a run of tuples sharing the initial vertex's image
        // is one expansion's harvest. The kernels meet candidates in rank
        // order, yet each run must be sorted by id in binding order (the
        // WHITE slots in pattern-neighbour order, then the two-hop
        // vertex), the order an id-ordered walk keeps them in.
        let g = erdos_renyi_gnm(90, 1000, 13).unwrap();
        for pattern in [
            catalog::triangle(),
            catalog::four_clique(),
            catalog::tailed_triangle(),
            catalog::square(),
            catalog::path(4),
            catalog::star(3),
        ] {
            let config = PsglConfig::default();
            let init = PsglShared::prepare(&g, &pattern, &config).unwrap().init_vertex;
            let whites: Vec<usize> = pattern.neighbors(init).map(usize::from).collect();
            let rest =
                (0..pattern.num_vertices()).filter(|&v| v != init as usize && !whites.contains(&v));
            let binding: Vec<usize> = whites.iter().copied().chain(rest).collect();
            let (tuples, stats, _) = list_all(&g, &pattern, &config);
            assert_eq!(
                stats.expanded,
                stats.kernel_close + stats.kernel_twohop,
                "{}",
                pattern.name()
            );
            assert!(tuples.len() > 100, "{}", pattern.name());
            let key = |t: &Vec<VertexId>| binding.iter().map(|&v| t[v]).collect::<Vec<_>>();
            for run in tuples.chunk_by(|a, b| a[init as usize] == b[init as usize]) {
                assert!(run.windows(2).all(|w| key(&w[0]) < key(&w[1])), "{}", pattern.name());
            }
        }
    }

    #[test]
    fn close_kernel_fires_for_triangles_and_cliques() {
        let g = erdos_renyi_gnm(60, 400, 3).unwrap();
        for pattern in [catalog::triangle(), catalog::four_clique(), catalog::clique(5)] {
            let (_, stats, _) = list_all(&g, &pattern, &PsglConfig::default());
            assert!(stats.kernel_close > 0, "{}", pattern.name());
            assert_eq!(stats.kernel_twohop, 0, "{}", pattern.name());
        }
    }

    #[test]
    fn twohop_kernel_fires_for_rectangles() {
        let g = erdos_renyi_gnm(60, 300, 5).unwrap();
        let (_, stats, _) = list_all(&g, &catalog::square(), &PsglConfig::default());
        assert!(stats.kernel_twohop > 0);
    }

    #[test]
    fn cmap_is_all_zero_after_every_run() {
        let g = erdos_renyi_gnm(70, 420, 9).unwrap();
        for pattern in catalog::paper_patterns() {
            let (_, _, scratch) = list_all(&g, &pattern, &PsglConfig::default());
            assert!(scratch.cmap.iter().all(|&b| b == 0), "{}", pattern.name());
        }
    }

    #[test]
    fn labeled_listing_agrees_with_generic_under_kernels() {
        let g = erdos_renyi_gnm(50, 260, 21).unwrap();
        let labels: Vec<u16> = g.vertices().map(|v| (v % 2) as u16).collect();
        for pattern in [catalog::triangle(), catalog::square()] {
            let plabels = vec![0u16; pattern.num_vertices()];
            let count = |kernels: bool| {
                let config = PsglConfig::default().kernels(kernels).collect(true);
                let shared = PsglShared::prepare_labeled(
                    &g,
                    &pattern,
                    &config,
                    labels.clone(),
                    plabels.clone(),
                )
                .unwrap();
                let res = crate::runner::list_subgraphs_prepared(&shared, &config).unwrap();
                sorted(res.instances.unwrap())
            };
            assert_eq!(count(true), count(false), "{}", pattern.name());
        }
    }
}
