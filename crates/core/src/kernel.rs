//! Compiled expansion kernels: word-mask closing and two-hop wedge joins.
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
//! check: under [`Harvested::Instances`] each odometer level walks an
//! id-sorted permutation of its candidates (the two-WHITE Close, an
//! id-sorted copy of its first slot's arena), and each closing loop's
//! survivors are sorted by id before they are kept (a one-target wedge
//! join walks the data graph's id-sorted list instead, see
//! [`join_two_hop`]).
//!
//! Counting is not listing: a finished instance is counted in
//! [`ExpandStats::results`] first, and is built as a Gpsi only when the
//! worker's [`Harvested`] keeps tuples or per-vertex tallies. Under
//! [`Harvested::CountOnly`] (the paper's default output) the kernels bump
//! two counters per survivor and never build a Gpsi. An odometer Close
//! counts a prefix's survivors as a popcount of its final mask, ANDed with
//! the last binding's row when the final slot has a pattern edge to it.
//! Every other counted join counts one [`rank_window`] of a rank-sorted
//! list and charges what a walk of the whole list would through one
//! [`charge`]: a two-WHITE Close without a pattern edge between its slots
//! (a two-leaf star) the window of its final arena less the binding
//! ([`close_pair`]), a TwoHop join the window of its seed target's list
//! less the mapped vertices and bindings inside it. Whether one of those
//! lies in a target's list is a range test, then the pattern's answer when
//! a pattern edge joins it to the target, a search only when none does.
//! With two targets the survivors are the window's members in the other
//! target's list, cut to the window's rank span: one sorted intersection
//! ([`count_common`]), unless one target was mapped before the expansion
//! and the other is a WHITE binding `c` (a cycle's rim). Then the
//! expansion has marked the static one, `t`, and whichever seeds, one walk
//! of byte probes over `c`'s list counts them (see [`count_two_hop`]).
//! None of them visits a survivor.
//!
//! Two shapes of closing expansion exist (selected per partial instance by
//! the dispatch rule in [`crate::expand::expand_gpsi`]):
//!
//! - **Close** — every unmapped pattern vertex is a WHITE neighbor of the
//!   expanding vertex `v_p`. Candidates come from `N(v_d)` as usual;
//!   white-white pattern edges are checked exactly against the shared
//!   adjacency instead of the bloom filter. Covers triangles, k-cliques,
//!   stars and the star+edge hub expansion.
//! - **TwoHop** — one unmapped vertex `w` is *not* adjacent to `v_p`. For
//!   each full WHITE combination, `w`'s candidates are the intersection of
//!   its (now all mapped) pattern neighbors' adjacency lists — a wedge
//!   join seeded from the lowest-degree endpoint. Covers rectangles and
//!   the rim expansion of tailed shapes.
//!
//! ## One cut, one intersection step
//!
//! PSgL prunes a candidate by degree (rule 1a), by the partial order
//! (rule 1b) and by adjacency to the slot's mapped pattern neighbours
//! (rule 2). Every list here is rank-sorted, and while the ranks follow
//! degree, rules 1a and 1b cut the same thing: a contiguous slice.
//! [`rank_window`] is that cut, the prefix below a rank floor and the
//! slice inside a rank window, in the kernels and in the kernels-off
//! expansion alike; the span an intersection needs is the same cut, and
//! so is the back of a row's span (its front gallops). The kernels
//! decide rule 2, and every other adjacency test, by intersecting sorted
//! lists through cursors that only gallop forward.
//! [`seek`] is that step: a slot's arena scan ascends through its side of
//! `N(v_d)` with one cursor per connectivity target ([`arena_filter`]),
//! and a wedge join with several targets that it does not count walks its
//! seed list in rank order with one cursor per other target
//! ([`join_two_hop`]). The odometer's rows ([`build_row`]) and
//! `close_pair`'s hub walk run the same step inline on their one cursor.
//!
//! Two joins probe marks instead. Both mark a set that is the same for
//! every binding of the expansion in `cmap` (one byte per rank, in
//! [`ExpandScratch`], sized to the data graph on first use), probe one
//! byte per member of a binding's list, and clear the marks by walking the
//! marked lists again, so the map is all-zero between expansions:
//!
//! - [`close_pair`], the triangle join, marks its final arena and probes
//!   a short binding list (`cmap_probes`); a hub binding walks the arena
//!   and seeks into its list instead.
//! - A count-only wedge join with one static target `t` and one WHITE
//!   target marks, in bit 0, the members of `N(t)` inside the two-hop
//!   vertex's static window and degree bound, and in bit 1 the mapped
//!   ranks. The `cmap_*` counters count `close_pair` alone: a listing
//!   walks this join, and the counters must not tell the two apart.
//!
//! ## The word-mask odometer
//!
//! Every closing expansion but the two-WHITE Close binds its WHITE slots
//! through 64-bit masks over its candidate *universe* `U`: the rank-sorted
//! union of the distinct slot arenas (a clique's `U` is its one arena). A
//! position in `U` follows rank, so an order constraint against a bound
//! slot is "the bits above (or below) its position". Level 0 holds each
//! slot's arena as a mask. Binding a slot at position `i` *folds* into
//! every later slot's mask: the order side cuts its range, its bit `i` is
//! cleared (injectivity), and a slot with a pattern edge to the binding
//! ANDs the binding's *row* `N(c) ∩ U`. A row is built by a merge that
//! walks the shorter list and gallops a monotone cursor through the
//! longer, over one side of `c`'s split when every row use of the
//! expansion is on that side. It is built once per universe position per
//! expansion, on the position's first use, and every later binding of the
//! position reuses it ([`Rows`]): the expansion holds a table of one row
//! per position while that fits in [`ROW_TABLE_WORDS`]. An odometer of one
//! level binds no position twice, and a larger universe exceeds the
//! table, so both rebuild one row per use, over the span it serves. A fold
//! that empties a later slot kills the prefix, and each deeper level
//! visits only its survivors, so the odometer's work follows its output
//! instead of the product of its arenas.
//!
//! The final slot is not folded against the last binding `c`: its
//! survivors are the words `fin & row & window`, the final mask ANDed with
//! `c`'s row when the final slot has a pattern edge to `c`, inside the
//! final slot's range, with `c`'s own bit cleared. A count-only Close adds
//! up their popcounts; otherwise a bit walk queues their ranks. A
//! triangle (the two-WHITE Close) binds one slot and joins the other in
//! [`close_pair`], which marks its final arena once and walks each
//! binding's list against the marks.

use crate::checkpoint::Harvested;
use crate::expand::{
    order_window, prepare_white_slots, ExpandScratch, WhiteMeta, KERNEL_MAX_SLOTS,
};
use crate::gpsi::{Gpsi, MAX_GPSI_VERTICES, UNMAPPED};
use crate::shared::PsglShared;
use crate::stats::ExpandStats;
use psgl_graph::algo::gallop_lower_bound;
use psgl_graph::{OrderedGraph, VertexId};
use psgl_pattern::{Pattern, PatternVertex};

/// [`close_pair`] walks a binding's list against its marked final arena
/// when the list is shorter than this many times the arena; beyond that,
/// walking the arena and galloping into the list is cheaper.
const PROBE_RATIO: usize = 4;

#[cfg(test)]
thread_local! {
    /// Marked wedge joins run on this thread: seeded from the static
    /// target, seeded from the WHITE one, and either with other WHITE
    /// bindings in the prefix. Tests read it to know that their shapes
    /// reach both seeds.
    static MARKED_JOINS: std::cell::Cell<[u64; 3]> = const { std::cell::Cell::new([0; 3]) };
    /// Members of a count-only wedge join tested against a target inside
    /// its rank range on this thread: decided by the pattern, found by a
    /// search, and searched for in vain.
    static WINDOW_TESTS: std::cell::Cell<[u64; 3]> = const { std::cell::Cell::new([0; 3]) };
}

/// An odometer expansion caches one row per universe position while its
/// row table, `|U|` rows of `⌈|U| / 64⌉` words, fits in this many words
/// (1 MiB, a universe of up to 2 880 ranks); a larger universe rebuilds
/// one row per use.
const ROW_TABLE_WORDS: usize = 1 << 17;

/// [`count_common`] merges two lists unless one is more than this many
/// times as long as the other; then galloping through the longer is
/// cheaper than stepping through it. On random lists the gallop overtook
/// the merge at a length ratio of 3 to 8, later for longer lists
/// (DESIGN.md §7 "Merge or gallop").
const GALLOP_RATIO: usize = 6;

/// The one intersection step: gallops the cursor `at` forward through the
/// sorted `list` to the first element `>= x`, and reports whether that
/// element is `x`. Tests of ascending `x` share a cursor, so a run of them
/// is one forward pass over `list`.
#[inline(always)]
fn seek(list: &[u32], at: &mut usize, x: u32) -> bool {
    *at += gallop_lower_bound(&list[*at..], x);
    list.get(*at) == Some(&x)
}

/// The one rank cut (rules 1a and 1b in rank space): how much of the
/// rank-sorted `list` lies below the rank `floor`, and the slice of it in
/// `[max(lo, floor), hi)`. A side that is unbounded (`floor == 0`,
/// `hi == u32::MAX`) or that the floor already cuts (`lo <= floor`) is not
/// searched.
#[inline(always)]
pub(crate) fn rank_window(list: &[u32], floor: u32, lo: u32, hi: u32) -> (usize, &[u32]) {
    let prefix = if floor == 0 { 0 } else { list.partition_point(|&x| x < floor) };
    let from =
        if lo <= floor { prefix } else { prefix + list[prefix..].partition_point(|&x| x < lo) };
    let to =
        if hi == u32::MAX { list.len() } else { from + list[from..].partition_point(|&x| x < hi) };
    (prefix, &list[from..to])
}

/// The one counter charge of a counted join: what the listing's walk of
/// `len` members of a rank-sorted list charges when [`rank_window`] left
/// a `prefix` below the degree bound (rule 1a), a `window` of the rest
/// inside the rank window (rule 1b), `inside` members of the window fail
/// injectivity and, with a second target, `survivors` of the others are
/// adjacent to it (rule 2). The walk examines each member as a
/// combination.
#[inline(always)]
fn charge(
    stats: &mut ExpandStats,
    len: usize,
    prefix: usize,
    window: usize,
    inside: usize,
    survivors: Option<usize>,
) {
    stats.combinations_examined += len as u64;
    stats.pruned_degree += prefix as u64;
    stats.pruned_order += (len - prefix - window) as u64;
    stats.pruned_injectivity += inside as u64;
    if let Some(survivors) = survivors {
        stats.intersect_gallop += (window - inside) as u64;
        stats.pruned_connectivity += (window - inside - survivors) as u64;
    }
}

/// Counts `n` closed instances that no one visits.
#[inline(always)]
fn count_closed(n: u64, generated: &mut u64, stats: &mut ExpandStats) {
    stats.generated += n;
    stats.results += n;
    *generated += n;
}

/// `|a ∩ b|` for two ascending lists without repeats: a branch-free merge
/// of both, or, when one is more than [`GALLOP_RATIO`] times as long as
/// the other, a walk of the shorter that [`seek`]s through the longer.
#[inline]
fn count_common(a: &[u32], b: &[u32]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len() * GALLOP_RATIO < long.len() {
        let mut at = 0;
        return short.iter().filter(|&&x| seek(long, &mut at, x)).count() as u64;
    }
    let (mut i, mut j, mut common) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        common += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    common
}

/// Exact edge test between two ranks: one seek from the front of the
/// shorter list.
#[inline]
fn adjacent(ordered: &OrderedGraph, a: u32, b: u32) -> bool {
    if ordered.degree_of_rank(a) <= ordered.degree_of_rank(b) {
        seek(ordered.neighbors_of_rank(a), &mut 0, b)
    } else {
        seek(ordered.neighbors_of_rank(b), &mut 0, a)
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
    /// The wedge join counts its window ([`count_two_hop`]): the run is
    /// unlabelled and counts, and `w` has one target, or two while the
    /// ranks follow degree.
    counted: bool,
    /// Rule 1a as a rank test when `counted`: the first rank whose degree
    /// reaches `min_degree` ([`OrderedGraph::rank_floor`]), or 0 for a
    /// bound of 1, which every member of a target's list meets.
    floor: u32,
    /// When `counted`, per wedge target in `w_targets` order, the members
    /// the pattern joins to it: bit `u` for the vertex mapped at pattern
    /// vertex `u`, bit `np + i` for WHITE slot `i`'s binding. Every pattern
    /// edge among the mapped vertices and the bindings holds in the data
    /// graph by the time `w` joins, so such a member is in the target's
    /// list without a search.
    near: [u32; 2],
    /// The count-only wedge join probes per-expansion marks in `cmap`:
    /// `w` has one target mapped before the expansion and one WHITE one,
    /// and the run is unlabelled with ranks that follow degree (see
    /// [`count_two_hop`]).
    marked: bool,
}

/// Expands `gpsi` with a closing kernel. Preconditions (checked by the
/// dispatcher in `expand_gpsi`): `v_p` is BLACK with its GRAY edges
/// verified, `scratch.white_meta` holds all unmapped neighbors of `v_p`
/// (≤ [`crate::expand::KERNEL_MAX_SLOTS`]), and `extra` is the single
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

    let rvd = mapped[vp as usize];
    let deg_vd = u64::from(ordered.degree_of_rank(rvd));
    let ExpandScratch {
        white_meta,
        conn_data,
        cand_data,
        chosen,
        cmap,
        universe,
        by_id,
        masks,
        row,
        built,
        w_static,
        w_targets,
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
    let count_only = matches!(harvest, Harvested::CountOnly);
    let w_extra =
        extra.map(|w| two_hop_facts(shared, &gpsi, mapped, white_meta, w, w_static, count_only));

    // Per-slot candidate arenas. Slots whose pruning facts are identical
    // (same degree bound, rank window, label class and connectivity targets
    // — every WHITE slot of a clique) *alias* one arena instead of
    // rescanning `N(v_d)`; each distinct slot scans its own side of it once
    // (see [`arena_filter`]).
    let mut ranges = [(0usize, 0usize); KERNEL_MAX_SLOTS];
    let mut alias = [usize::MAX; KERNEL_MAX_SLOTS];
    for si in 0..nw {
        let meta = &white_meta[si];
        let targets = &conn_data[meta.conn_start..meta.conn_end];
        alias[si] = (0..si)
            .find(|&j| {
                alias[j] == usize::MAX && {
                    let prev = &white_meta[j];
                    prev.min_degree == meta.min_degree
                        && prev.lo_rank == meta.lo_rank
                        && prev.hi_rank == meta.hi_rank
                        && conn_data[prev.conn_start..prev.conn_end] == *targets
                        && match &shared.labels {
                            None => true,
                            Some((_, pl)) => pl[prev.wv as usize] == pl[meta.wv as usize],
                        }
                }
            })
            .unwrap_or(usize::MAX);
        if alias[si] != usize::MAX {
            ranges[si] = ranges[alias[si]];
            continue;
        }
        cost += deg_vd;
        let start = cand_data.len();
        arena_filter(shared, meta, rvd, mapped, targets, cand_data, stats);
        if cand_data.len() == start {
            stats.died_no_candidates += 1;
            stats.cost += cost;
            return;
        }
        ranges[si] = (start, cand_data.len());
    }

    // A marked wedge join's static target: marked past every early
    // return, cleared once the expansion's bindings are done.
    let marked_side = w_extra
        .as_ref()
        .filter(|wx| wx.marked)
        .map(|wx| mark_static(ordered, wx, w_static[0], mapped, cmap));

    let examined_before = stats.combinations_examined;
    let mut generated: u64 = 0;
    chosen.clear();
    chosen.resize(nw, 0);
    if nw == 0 {
        // A verification-style expansion with only the two-hop vertex left.
        let wx =
            w_extra.as_ref().expect("kernel dispatch sends nw == 0 only with a two-hop vertex");
        join_two_hop(
            shared,
            &gpsi,
            mapped,
            white_meta,
            wx,
            chosen,
            w_static,
            w_targets,
            cmap,
            w_kept,
            &mut generated,
            &mut cost,
            harvest,
            stats,
        );
    } else if nw == 2 && w_extra.is_none() {
        // The two-WHITE Close (triangles, paths of length two): one binding
        // and a join per binding, with nothing for masks to fold.
        if cmap.len() < ordered.len() {
            cmap.resize(ordered.len(), 0);
        }
        if let Harvested::Instances(_) = harvest {
            let (start, end) = ranges[0];
            ranges[0] = (cand_data.len(), cand_data.len() + end - start);
            cand_data.extend_from_within(start..end);
            cand_data[ranges[0].0..].sort_unstable_by_key(|&r| ordered.vertex(r));
        }
        close_pair(
            shared,
            &gpsi,
            white_meta,
            cand_data,
            ranges[0],
            ranges[1],
            cmap,
            kept,
            &mut generated,
            &mut cost,
            harvest,
            stats,
        );
    } else {
        // The word-mask odometer binds slots 0..od; the final slot od is
        // closed against each full prefix. Level d of `masks` holds slots
        // d..=od over the universe, `range[d][s]` the positions slot s may
        // still take at level d (words outside it are never read).
        let od = nw - 1;
        merge_arenas(cand_data, &ranges[..nw], universe);
        let universe: &[u32] = universe;
        let words = universe.len().div_ceil(64);
        let stride = nw * words;
        masks.clear();
        masks.resize(od.max(1) * stride, 0);
        let mut range = [[(0usize, 0usize); KERNEL_MAX_SLOTS]; KERNEL_MAX_SLOTS];
        for si in 0..nw {
            let at = si * words;
            range[0][si] = if alias[si] == usize::MAX {
                let (s, e) = ranges[si];
                set_arena(universe, &cand_data[s..e], &mut masks[at..at + words])
            } else {
                let from = alias[si] * words;
                masks.copy_within(from..from + words, at);
                range[0][alias[si]]
            };
        }

        // The pair facts between a later slot s and a binding slot d. A
        // binding needs a row when a later slot has a pattern edge to it:
        // a fold row, or the final join of the last binding. The rows
        // cover one side of the binding's split when every row use of the
        // expansion is on that side (`higher_of_rank` for a clique).
        let side = |s: usize, d: usize| Side::of(&white_meta[s], d);
        let edge = |s: usize, d: usize| (white_meta[s].edge_mask >> d) & 1 == 1;
        let mut row_side = None;
        for d in 0..od {
            for s in (d + 1..=od).filter(|&s| edge(s, d)) {
                row_side = Some(match row_side {
                    Some(seen) if seen != side(s, d) => Side::Any,
                    _ => side(s, d),
                });
            }
        }
        // A position is bound at several levels only from two odometer
        // levels on; then each position's row is cached, within budget.
        let cached = od >= 2 && universe.len() * words <= ROW_TABLE_WORDS;
        let need = if cached { universe.len() * words } else { words };
        if row.len() < need {
            row.resize(need, 0);
        }
        if cached {
            built.clear();
            built.resize(words, 0);
        }
        let mut rows = Rows {
            ordered,
            universe,
            side: row_side.unwrap_or(Side::Any),
            words,
            cached,
            table: row,
            built,
        };

        // A listing walks each odometer level in id order (see the module
        // doc): `by_id` holds the positions an odometer slot can take, by
        // id. The final slot's survivors are sorted by id instead.
        let in_id_order = matches!(harvest, Harvested::Instances(_));
        if in_id_order {
            by_id.clear();
            let bound = |at: &u32| (0..od).any(|s| bit(&masks[s * words..], *at as usize));
            by_id.extend((0..universe.len() as u32).filter(bound));
            by_id.sort_unstable_by_key(|&at| ordered.vertex(universe[at as usize]));
        }
        let mut fin = Final {
            shared,
            base: &gpsi,
            mapped,
            white_meta,
            w_extra: w_extra.as_ref(),
            w_static,
            universe,
            chosen,
            w_targets,
            cmap,
            kept,
            w_kept,
            generated: &mut generated,
            cost: &mut cost,
            harvest,
            stats,
        };
        if od == 0 {
            // A lone WHITE slot: its arena is the final mask.
            fin.close(&masks[..words], range[0][0], None, usize::MAX);
        } else {
            // `next[d]` is where level d resumes: a position in rank order,
            // an index into `by_id` in id order.
            let mut next = [0usize; KERNEL_MAX_SLOTS];
            let mut depth = 0usize;
            loop {
                let (lo, hi) = range[depth][depth];
                let own = &masks[(depth * nw + depth) * words..][..words];
                let i = if in_id_order {
                    let set =
                        |&at: &u32| (lo..hi).contains(&(at as usize)) && bit(own, at as usize);
                    let k = by_id[next[depth]..]
                        .iter()
                        .position(set)
                        .map_or(by_id.len(), |k| next[depth] + k);
                    next[depth] = k + 1;
                    by_id.get(k).map_or(hi, |&at| at as usize)
                } else {
                    let i = next_bit(own, next[depth].max(lo), hi);
                    next[depth] = i + 1;
                    i
                };
                if i >= hi {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    continue;
                }
                fin.chosen[depth] = universe[i];
                fin.stats.combinations_examined += 1;
                if depth + 1 == od {
                    let cut = side(od, depth).cut(range[depth][od], i);
                    if cut.0 < cut.1 {
                        let join = edge(od, depth).then(|| rows.of(i, cut, fin.stats));
                        let own = &masks[(depth * nw + od) * words..][..words];
                        fin.close(own, cut, join, i);
                    }
                    continue;
                }
                // Fold the binding into every later slot of level depth + 1.
                let mut cut = [(0usize, 0usize); KERNEL_MAX_SLOTS];
                for s in depth + 1..=od {
                    cut[s] = side(s, depth).cut(range[depth][s], i);
                }
                if cut[depth + 1..=od].iter().any(|&(lo, hi)| lo >= hi) {
                    continue;
                }
                let served = (depth + 1..=od).filter(|&s| edge(s, depth)).map(|s| cut[s]);
                let span = served.fold((usize::MAX, 0), |(a, b), (lo, hi)| (a.min(lo), b.max(hi)));
                let row = (span.0 < span.1).then(|| rows.of(i, span, fin.stats));
                let (done, below) = masks.split_at_mut((depth + 1) * stride);
                let alive = (depth + 1..=od).all(|s| {
                    let src = &done[depth * stride + s * words..][..words];
                    let dst = &mut below[s * words..][..words];
                    let with = row.filter(|_| edge(s, depth));
                    range[depth + 1][s] = fold(src, range[depth][s], side(s, depth), i, with, dst);
                    range[depth + 1][s].0 < range[depth + 1][s].1
                });
                if alive {
                    depth += 1;
                    next[depth] = 0;
                }
            }
        }
    }

    if let Some(side) = marked_side {
        clear_static(cmap, side, mapped);
    }

    cost += stats.combinations_examined - examined_before;
    cost += generated;
    stats.cost += cost;
}

/// The facts of the two-hop vertex `w` for one expansion, from the
/// mapping before it: the static rank window, the wedge targets mapped
/// before it (pushed to `w_static`), the slot masks for the dynamic part,
/// and how the join runs. Out of line: it runs once per TwoHop expansion,
/// and keeps the expansion's body, which every Close shares, small.
#[inline(never)]
fn two_hop_facts(
    shared: &PsglShared<'_>,
    gpsi: &Gpsi,
    mapped: &[u32],
    white_meta: &[WhiteMeta],
    w: PatternVertex,
    w_static: &mut Vec<u32>,
    count_only: bool,
) -> WExtra {
    let p = &shared.pattern;
    let (lo, hi) = order_window(shared, gpsi, w);
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
    // `w`'s pattern degree is its number of wedge targets. One target
    // needs no degree bound; two need a rank floor.
    let min_degree = p.degree(w);
    let floor = match min_degree {
        1 => Some(0),
        d => shared.ordered.rank_floor(d),
    };
    let counted = count_only && shared.labels.is_none() && min_degree <= 2 && floor.is_some();
    let near = if counted { join_near(p, gpsi, white_meta, w, edge_slots) } else { [0; 2] };
    let marked = counted && w_static.len() == 1 && edge_slots.count_ones() == 1;
    WExtra {
        w,
        min_degree,
        lo,
        hi,
        edge_slots,
        lt_slots,
        gt_slots,
        counted,
        floor: floor.unwrap_or(0),
        near,
        marked,
    }
}

/// [`WExtra::near`] for a counted wedge join of `w`: per wedge target, in
/// `w_targets` order (mapped before the expansion, then WHITE slots in
/// slot order), its pattern neighbours among the mapped vertices and the
/// WHITE slots.
fn join_near(
    p: &Pattern,
    gpsi: &Gpsi,
    white_meta: &[WhiteMeta],
    w: PatternVertex,
    edge_slots: u16,
) -> [u32; 2] {
    let np = p.num_vertices();
    let whites = (0..white_meta.len()).filter(|&i| (edge_slots >> i) & 1 == 1);
    let targets =
        p.neighbors(w).filter(|&v| gpsi.is_mapped(v)).chain(whites.map(|i| white_meta[i].wv));
    let mut near = [0u32; 2];
    for (near, t) in near.iter_mut().zip(targets) {
        *near = p.neighbors(t).filter(|&v| gpsi.is_mapped(v)).fold(0, |bits, v| bits | 1 << v);
        for (i, meta) in white_meta.iter().enumerate() {
            if p.has_edge(t, meta.wv) {
                *near |= 1 << (np + i);
            }
        }
    }
    near
}

/// Marks a wedge join's static target `t` in `cmap` for one expansion:
/// bit 0 on the members of `N(t)` that `w` may take before any WHITE slot
/// binds (the [`rank_window`] of `w`'s static window and rank floor), bit
/// 1 on the mapped ranks. Returns the marked slice for [`clear_static`].
/// Out of line: it runs once per expansion, and keeps the expansion's body
/// small.
#[inline(never)]
fn mark_static<'g>(
    ordered: &'g OrderedGraph,
    wx: &WExtra,
    t: u32,
    mapped: &[u32],
    cmap: &mut Vec<u8>,
) -> &'g [u32] {
    if cmap.len() < ordered.len() {
        cmap.resize(ordered.len(), 0);
    }
    let (_, side) = rank_window(ordered.neighbors_of_rank(t), wx.floor, wx.lo, wx.hi);
    for &x in side {
        cmap[x as usize] = 1;
    }
    for &m in mapped.iter().filter(|&&m| m != UNMAPPED) {
        cmap[m as usize] |= 2;
    }
    side
}

/// Clears what [`mark_static`] marked, walking the same two lists.
#[inline(never)]
fn clear_static(cmap: &mut [u8], side: &[u32], mapped: &[u32]) {
    for &x in side.iter().chain(mapped).filter(|&&x| x != UNMAPPED) {
        cmap[x as usize] = 0;
    }
}

/// Where a later WHITE slot sits, in rank order, relative to an earlier
/// one: above it, below it, or either side (no order constraint).
#[derive(Clone, Copy, PartialEq, Debug)]
enum Side {
    Any,
    Above,
    Below,
}

impl Side {
    /// The side of WHITE slot `d`'s binding that the order puts the slot
    /// of `meta` on.
    #[inline]
    fn of(meta: &WhiteMeta, d: usize) -> Side {
        match meta {
            WhiteMeta { gt_mask, .. } if (gt_mask >> d) & 1 == 1 => Side::Above,
            WhiteMeta { lt_mask, .. } if (lt_mask >> d) & 1 == 1 => Side::Below,
            _ => Side::Any,
        }
    }

    /// The part of rank `c`'s adjacency a slot on this side can meet.
    #[inline]
    fn list(self, ordered: &OrderedGraph, c: u32) -> &[u32] {
        match self {
            Side::Any => ordered.neighbors_of_rank(c),
            Side::Above => ordered.higher_of_rank(c),
            Side::Below => ordered.lower_of_rank(c),
        }
    }

    /// A position range `[lo, hi)` cut to this side of a binding at
    /// position `at`. Empty when `lo >= hi`.
    #[inline]
    fn cut(self, (lo, hi): (usize, usize), at: usize) -> (usize, usize) {
        match self {
            Side::Any => (lo, hi),
            Side::Above => (lo.max(at + 1), hi),
            Side::Below => (lo, hi.min(at)),
        }
    }
}

/// Merges the slot arenas (`cand_data` ranges, each rank-sorted) into
/// their sorted union, the expansion's candidate universe. Aliased slots
/// share a range, and one distinct arena is its own universe.
fn merge_arenas(cand_data: &[u32], arenas: &[(usize, usize)], universe: &mut Vec<u32>) {
    universe.clear();
    if arenas.iter().all(|&a| a == arenas[0]) {
        universe.extend_from_slice(&cand_data[arenas[0].0..arenas[0].1]);
        return;
    }
    let mut heads = [0usize; KERNEL_MAX_SLOTS];
    for (h, &(s, _)) in heads.iter_mut().zip(arenas) {
        *h = s;
    }
    loop {
        let mut min = None;
        for (&h, &(_, e)) in heads.iter().zip(arenas) {
            if h < e && min.is_none_or(|m| cand_data[h] < m) {
                min = Some(cand_data[h]);
            }
        }
        let Some(x) = min else { return };
        universe.push(x);
        for (h, &(_, e)) in heads.iter_mut().zip(arenas) {
            if *h < e && cand_data[*h] == x {
                *h += 1;
            }
        }
    }
}

/// Sets the bit of each arena member's position in `universe` (a sorted
/// superset of the sorted `arena`). Returns the positions the arena spans.
fn set_arena(universe: &[u32], arena: &[u32], words: &mut [u64]) -> (usize, usize) {
    let mut at = 0usize;
    let mut first = usize::MAX;
    for &x in arena {
        at += gallop_lower_bound(&universe[at..], x);
        debug_assert_eq!(universe[at], x, "an arena lies inside its universe");
        words[at / 64] |= 1 << (at % 64);
        first = first.min(at);
        at += 1;
    }
    (first, at)
}

/// Whether position `at` is set.
#[inline(always)]
fn bit(words: &[u64], at: usize) -> bool {
    (words[at / 64] >> (at % 64)) & 1 == 1
}

/// The bits of word `w` whose positions lie in `[lo, hi)`, for a word the
/// range touches (`lo / 64 <= w < hi.div_ceil(64)`).
#[inline(always)]
fn window(w: usize, lo: usize, hi: usize) -> u64 {
    let (first, end) = (w * 64, w * 64 + 64);
    let low = if lo > first { !0u64 << (lo - first) } else { !0 };
    let high = if hi < end { (1u64 << (hi - first)) - 1 } else { !0 };
    low & high
}

/// The first set position in `[from, to)`, or `to` when there is none.
#[inline(always)]
fn next_bit(words: &[u64], from: usize, to: usize) -> usize {
    for (w, &word) in words.iter().enumerate().take(to.div_ceil(64)).skip(from / 64) {
        let v = word & window(w, from, to);
        if v != 0 {
            return w * 64 + v.trailing_zeros() as usize;
        }
    }
    to
}

/// The words of `src` over `[lo, hi)`, each ANDed with `row` when one is
/// given and with bit `at` cleared, as `(word index, word)`: a fold's new
/// mask, and the survivors of a final join.
#[inline(always)]
fn masked<'a>(
    src: &'a [u64],
    (lo, hi): (usize, usize),
    at: usize,
    row: Option<&'a [u64]>,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    (lo / 64..hi.div_ceil(64)).map(move |w| {
        let mut v = src[w] & row.map_or(!0, |row| row[w]) & window(w, lo, hi);
        if w == at / 64 {
            v &= !(1u64 << (at % 64));
        }
        (w, v)
    })
}

/// A binding's row: sets the bit of every position in `span` whose rank is
/// in the sorted `list` (the binding's, possibly one-sided, adjacency),
/// after clearing the words `span` covers. Other words are left as they
/// are; a fold or a final join reads only words inside the range it was
/// cut to. A merge: walks the shorter of `list` and `universe[span]` and
/// gallops a monotone cursor through the longer.
#[inline(always)]
fn build_row(list: &[u32], universe: &[u32], (lo, hi): (usize, usize), row: &mut [u64]) {
    if lo >= hi {
        return;
    }
    row[lo / 64..hi.div_ceil(64)].fill(0);
    let mut set = |j: usize| row[j / 64] |= 1 << (j % 64);
    let span = &universe[lo..hi];
    // The front cut gallops: it is cheap when the span starts near the
    // front of the list.
    let list = &list[gallop_lower_bound(list, span[0])..];
    let (_, list) = rank_window(list, 0, 0, span[span.len() - 1] + 1);
    let mut from = 0usize;
    if list.len() <= span.len() {
        for &x in list {
            from += gallop_lower_bound(&span[from..], x);
            if from == span.len() {
                break;
            }
            if span[from] == x {
                set(lo + from);
                from += 1;
            }
        }
    } else {
        for (j, &x) in span.iter().enumerate() {
            from += gallop_lower_bound(&list[from..], x);
            if from == list.len() {
                break;
            }
            if list[from] == x {
                set(lo + j);
                from += 1;
            }
        }
    }
}

/// Where an odometer expansion's rows come from: the row `N(c) ∩ U` of the
/// binding `c` at a universe position, merged from the `side` of `c`'s
/// split that every row use of the expansion is on (all of `N(c)` when
/// the uses differ). When `cached`, each position's row is built once, on
/// its first use, over the whole of its side, into its own `words`-long
/// stretch of `table`, and `built` marks it; every later binding of the
/// position reuses it. Otherwise `table` holds one row, rebuilt for each
/// use over the span that use serves.
struct Rows<'e> {
    ordered: &'e OrderedGraph,
    universe: &'e [u32],
    side: Side,
    words: usize,
    cached: bool,
    table: &'e mut [u64],
    built: &'e mut [u64],
}

impl Rows<'_> {
    /// The row of the binding at position `at`, valid over `span`.
    #[inline(always)]
    fn of(&mut self, at: usize, span: (usize, usize), stats: &mut ExpandStats) -> &[u64] {
        let (words, universe) = (self.words, self.universe);
        let (start, span) = if self.cached {
            (at * words, self.side.cut((0, universe.len()), at))
        } else {
            (0, span)
        };
        let row = &mut self.table[start..][..words];
        if !(self.cached && bit(self.built, at)) {
            stats.intersect_gallop += 1;
            build_row(self.side.list(self.ordered, universe[at]), universe, span, row);
            if self.cached {
                self.built[at / 64] |= 1 << (at % 64);
            }
        }
        row
    }
}

/// Folds a binding at position `at` into a later slot's mask: the slot's
/// range `range` (over `src`) is cut to `side` of `at`, `row` (the
/// binding's adjacency row, when the slot has a pattern edge to it) is
/// ANDed in, and bit `at` is cleared. Writes the words of the new range
/// into `dst` and returns it, tightened to its first and last set bit;
/// empty (`lo >= hi`) when nothing survives.
#[inline]
fn fold(
    src: &[u64],
    range: (usize, usize),
    side: Side,
    at: usize,
    row: Option<&[u64]>,
    dst: &mut [u64],
) -> (usize, usize) {
    let (mut a, mut b) = (usize::MAX, 0);
    for (w, v) in masked(src, side.cut(range, at), at, row) {
        dst[w] = v;
        if v != 0 {
            a = a.min(w);
            b = w;
        }
    }
    if a == usize::MAX {
        return (0, 0);
    }
    (a * 64 + dst[a].trailing_zeros() as usize, b * 64 + 64 - dst[b].leading_zeros() as usize)
}

/// What closing a prefix needs from its expansion: the base Gpsi and its
/// mapped ranks, the WHITE slots, the two-hop vertex's facts, the
/// universe, and the buffers and tallies a closed instance feeds.
struct Final<'e, 's> {
    shared: &'e PsglShared<'s>,
    base: &'e Gpsi,
    mapped: &'e [u32],
    white_meta: &'e [WhiteMeta],
    w_extra: Option<&'e WExtra>,
    w_static: &'e [u32],
    universe: &'e [u32],
    chosen: &'e mut [u32],
    w_targets: &'e mut Vec<u32>,
    cmap: &'e [u8],
    kept: &'e mut Vec<u32>,
    w_kept: &'e mut Vec<u32>,
    generated: &'e mut u64,
    cost: &'e mut u64,
    harvest: &'e mut Harvested,
    stats: &'e mut ExpandStats,
}

impl Final<'_, '_> {
    /// Closes one odometer prefix (every slot but the final one bound):
    /// the final slot's survivors are the set positions of `fin` inside
    /// `range`, ANDed with `row` (the last binding's row) when the final
    /// slot has a pattern edge to it; position `skip` (the last binding,
    /// which `fin` was not folded against) is excluded. A count-only Close
    /// counts them as a popcount; a listing queues their ranks, and a
    /// TwoHop queues them and wedge-joins each.
    #[inline(always)]
    fn close(&mut self, fin: &[u64], range: (usize, usize), row: Option<&[u64]>, skip: usize) {
        let Final {
            shared,
            base,
            mapped,
            white_meta,
            w_extra,
            w_static,
            universe,
            ref mut chosen,
            ref mut w_targets,
            cmap,
            ref mut kept,
            ref mut w_kept,
            ref mut generated,
            ref mut cost,
            ref mut harvest,
            ref mut stats,
        } = *self;
        let od = white_meta.len() - 1;
        // A count-only Close adds popcounts and visits no survivor.
        let queue = w_extra.is_some() || !matches!(harvest, Harvested::CountOnly);
        let mut n = 0u64;
        for (w, mut v) in masked(fin, range, skip, row) {
            n += u64::from(v.count_ones());
            while queue && v != 0 {
                kept.push(universe[w * 64 + v.trailing_zeros() as usize]);
                v &= v - 1;
            }
        }
        stats.combinations_examined += n;
        let ordered = &*shared.ordered;
        sort_by_id(ordered, kept, harvest);
        match w_extra {
            // Close: every pattern edge has been exactly checked — the
            // (v_p, white) edges by candidate construction, white-white by
            // the rows and the final join, the rest before the odometer.
            None => {
                count_closed(n, generated, stats);
                if !kept.is_empty() {
                    let (np, last) = (shared.pattern.num_vertices(), white_meta[od].wv);
                    keep_closed(
                        ordered,
                        base,
                        &white_meta[..od],
                        &chosen[..od],
                        last,
                        kept,
                        np,
                        harvest,
                    );
                }
            }
            // TwoHop: the queued final-slot bindings, wedge-joined in id
            // order under `Instances`.
            Some(wx) => {
                for &x in kept.iter() {
                    chosen[od] = x;
                    join_two_hop(
                        shared, base, mapped, white_meta, wx, chosen, w_static, w_targets, cmap,
                        w_kept, generated, cost, harvest, stats,
                    );
                }
                kept.clear();
            }
        }
    }
}

/// Builds one WHITE slot's candidate arena. Scans the side of `N(v_d)`
/// (`v_d` of rank `rvd`) that the slot's rank window lies on, or all of
/// it, and pushes each candidate that passes injectivity, the degree
/// bound, the label class, the window and exact connectivity to every
/// target. Each target's list has a cursor that only moves forward, since
/// the scan ascends.
#[inline(always)]
fn arena_filter(
    shared: &PsglShared<'_>,
    meta: &WhiteMeta,
    rvd: u32,
    mapped: &[u32],
    targets: &[u32],
    cand_data: &mut Vec<u32>,
    stats: &mut ExpandStats,
) {
    let ordered = &*shared.ordered;
    let scan = if meta.lo_rank > rvd {
        ordered.higher_of_rank(rvd)
    } else if meta.hi_rank <= rvd {
        ordered.lower_of_rank(rvd)
    } else {
        ordered.neighbors_of_rank(rvd)
    };
    debug_assert!(targets.len() <= MAX_GPSI_VERTICES, "a slot's targets are mapped vertices");
    let mut at = [0usize; MAX_GPSI_VERTICES];
    'cand: for &cd in scan {
        if mapped.contains(&cd) {
            stats.pruned_injectivity += 1;
            continue;
        }
        if ordered.degree_of_rank(cd) < meta.min_degree {
            stats.pruned_degree += 1;
            continue;
        }
        if !label_ok(shared, meta.wv, cd) {
            stats.pruned_label += 1;
            continue;
        }
        if cd < meta.lo_rank || cd >= meta.hi_rank {
            stats.pruned_order += 1;
            continue;
        }
        for (&t, at) in targets.iter().zip(&mut at) {
            stats.intersect_gallop += 1;
            if !seek(ordered.neighbors_of_rank(t), at, cd) {
                stats.pruned_connectivity += 1;
                continue 'cand;
            }
        }
        cand_data.push(cd);
    }
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
    count_closed(1, generated, stats);
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

/// The two-WHITE Close join (no two-hop vertex): for each binding of slot
/// 0, merge-join the final slot's arena against it and emit every closed
/// instance. Triangles spend almost the whole expansion here, so the join
/// skips the masks: the arena is marked into the cmap **once per
/// expansion**, turning the common low-degree-binding case
/// into a sequential walk of `N(c0)` with one O(1) map probe per neighbor.
/// High-degree bindings still walk the arena and gallop,
/// window-and-injectivity first. All rank-window masks and arena slices
/// are hoisted out of the per-prefix loop. Under `Instances` slot 0 is
/// walked through an id-sorted copy of its arena, so the bindings come in
/// id order. Without a pattern edge between the two slots (two-leaf
/// stars), a binding's survivors are the [`rank_window`] of the
/// rank-sorted final arena less the binding itself: a count-only harvest
/// counts them, any other queues them, and both [`charge`] what a walk of
/// the arena would.
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
    let side = Side::of(fin, 0);
    let joined = fin.edge_mask & 1 == 1;
    let np = shared.pattern.num_vertices();
    if joined {
        for &x in arena {
            cmap[x as usize] = 1;
        }
        stats.intersect_probe += 1;
    }
    for i0 in r0.0..r0.1 {
        // Slot 0's binding, as the one-element prefix `keep_closed` binds.
        let prefix = &cand_data[i0..=i0];
        let c0 = prefix[0];
        stats.combinations_examined += 1;
        let lo = if side == Side::Above { c0.saturating_add(1) } else { 0 };
        let hi = if side == Side::Below { c0 } else { u32::MAX };
        if joined {
            // The dynamic window against `c0` is one-sided, so the
            // matching side of `N(c0)`'s split already enforces it — no
            // per-element rank check on the walk below.
            let tn = side.list(ordered, c0);
            if tn.len() < PROBE_RATIO * arena.len() {
                // Walk the binding's one-sided list sequentially; arena
                // membership is one probe of the per-expansion marks, and
                // arena membership plus the side imply the whole window.
                *cost += tn.len() as u64;
                for &x in tn {
                    stats.cmap_probes += 1;
                    if cmap[x as usize] == 0 {
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
            // No white-white edge (two-leaf stars): every member of the
            // arena's window but `c0` closes an instance.
            *cost += arena.len() as u64;
            let (_, window) = rank_window(arena, 0, lo, hi);
            let inside = usize::from(window.binary_search(&c0).is_ok());
            charge(stats, arena.len(), 0, window.len(), inside, None);
            count_closed((window.len() - inside) as u64, generated, stats);
            if !matches!(harvest, Harvested::CountOnly) {
                kept.extend(window.iter().filter(|&&x| x != c0));
            }
        }
        if !kept.is_empty() {
            sort_by_id(ordered, kept, harvest);
            keep_closed(ordered, base, m0, prefix, fin.wv, kept, np, harvest);
        }
    }
    if joined {
        for &x in arena {
            cmap[x as usize] = 0;
        }
    }
}

/// Whether member `m` of a count-only wedge join, the `i`th of the mapped
/// ranks then the WHITE bindings, is a neighbour of target `t` in `list`,
/// which holds every neighbour of `t` in the rank range the caller has
/// tested `m` against: by the pattern when it joins `m`'s pattern vertex to
/// `t`'s (bit `i` of `near`, [`WExtra::near`]), else by a search.
#[inline(always)]
fn joined(t: u32, near: u32, list: &[u32], i: usize, m: u32) -> bool {
    let by_pattern = (near >> i) & 1 == 1;
    let hit = m != t && (by_pattern || list.binary_search(&m).is_ok());
    #[cfg(test)]
    if m != t {
        WINDOW_TESTS.with(|tests| {
            let mut tally = tests.get();
            tally[if by_pattern { 0 } else { 1 + usize::from(!hit) }] += 1;
            tests.set(tally);
        });
    }
    hit
}

/// `w`'s rank window `[lo, hi)` over a fully bound WHITE combination
/// (`chosen`, one rank per slot): the static window cut by each binding
/// the order puts `w` below or above.
#[inline(always)]
fn join_window(wx: &WExtra, chosen: &[u32]) -> (u32, u32) {
    let (mut lo, mut hi) = (wx.lo, wx.hi);
    for (i, &rank) in chosen.iter().enumerate() {
        if (wx.lt_slots >> i) & 1 == 1 {
            hi = hi.min(rank);
        }
        if (wx.gt_slots >> i) & 1 == 1 {
            lo = lo.max(rank.saturating_add(1));
        }
    }
    (lo, hi)
}

/// Wedge-joins the two-hop vertex's candidates over a fully bound WHITE
/// combination (`chosen`, one rank per slot of `white_meta`) and emits
/// one instance per survivor.
///
/// The candidates are `N(bt)` for the lowest-degree wedge target `bt`. A
/// count-only join of one or two targets ([`WExtra::counted`]) counts its
/// survivors without visiting one ([`count_two_hop`]). Listings, labelled
/// runs, three or more targets and a delta epoch whose ranks stopped
/// following degree walk `N(bt)` here, checking degree → label → window →
/// injectivity → each other target.
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
    cmap: &[u8],
    kept: &mut Vec<u32>,
    generated: &mut u64,
    cost: &mut u64,
    harvest: &mut Harvested,
    stats: &mut ExpandStats,
) {
    let ordered = &*shared.ordered;
    if wx.counted {
        count_two_hop(ordered, mapped, wx, chosen, w_static, cmap, generated, cost, stats);
        return;
    }
    let (lo, hi) = join_window(wx, chosen);
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

    // A listing keeps the survivors in id order. With one wedge target
    // every member of the window survives, so it walks `N(bt)` in id
    // order through the data graph's list; with several, few survive the
    // intersection, so it walks ranks, which lets each other target keep a
    // forward-only cursor, and sorts the survivors.
    let by_id: &[VertexId] = match harvest {
        Harvested::Instances(_) if w_targets.len() == 1 => {
            shared.graph.neighbors(ordered.vertex(bt))
        }
        _ => &[],
    };
    let ranks = ordered.ranks();
    debug_assert!(w_targets.len() <= MAX_GPSI_VERTICES, "wedge targets are mapped vertices");
    let mut at = [0usize; MAX_GPSI_VERTICES];
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
        for (i, (&t, at)) in w_targets.iter().zip(&mut at).enumerate() {
            if i == base_i {
                continue;
            }
            stats.intersect_gallop += 1;
            if !seek(ordered.neighbors_of_rank(t), at, x) {
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

/// The count-only wedge join ([`WExtra::counted`]): counts the two-hop
/// vertex's survivors over one WHITE combination without visiting one.
///
/// The seed is `N(bt)` for the lowest-degree wedge target `bt`, and the
/// rank order decides what the walk would test per member: the degree
/// bound (rule 1a) is the prefix of `N(bt)` below `w`'s rank floor (none
/// for one target, since every member of `N(bt)` has degree ≥ 1), and the
/// window is the rest inside `[lo, hi)`, both one [`rank_window`]. The
/// survivors are the window's members adjacent to the other target, if
/// any, minus the mapped vertices and WHITE bindings among them.
///
/// Whether a mapped vertex or a binding `m` is adjacent to a target is
/// mostly decided by the pattern: every pattern edge among the mapped
/// vertices and the bindings holds in the data graph by now (the
/// expansion's entry checks the unverified mapped–mapped edges, each arena
/// seeks its slot's targets, the odometer's rows check binding–binding
/// edges), so `m` is in a target's list over the window iff it lies in
/// `[max(lo, floor), hi)`, is not the target, and its pattern vertex is a
/// pattern neighbour of the target's ([`WExtra::near`]); only a member
/// without that edge is searched for.
///
/// With two targets, the other target's list is cut to the window's rank
/// span, and the survivors are one [`count_common`] of the two lists,
/// unless one target `t` was mapped before the expansion and the other is
/// a WHITE binding `c` ([`WExtra::marked`]): then the expansion has marked
/// `t`'s side of the static window in `cmap`, so a member is adjacent to
/// `t` by one probe, and whichever target seeds, the survivors are one
/// tally of the marks over `c`'s list. Every counter goes through
/// [`charge`], with what the walk in [`join_two_hop`] would charge. Out of
/// line, so that the walk compiles without it.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn count_two_hop(
    ordered: &OrderedGraph,
    mapped: &[u32],
    wx: &WExtra,
    chosen: &[u32],
    w_static: &[u32],
    cmap: &[u8],
    generated: &mut u64,
    cost: &mut u64,
    stats: &mut ExpandStats,
) {
    let (lo, hi) = join_window(wx, chosen);
    // The wedge targets in `w_targets` order: static, then WHITE.
    let whites = chosen.iter().enumerate().filter(|&(i, _)| (wx.edge_slots >> i) & 1 == 1);
    let mut targets = [0u32; 2];
    for (t, &r) in targets.iter_mut().zip(w_static.iter().chain(whites.map(|(_, r)| r))) {
        *t = r;
    }
    let two = wx.min_degree == 2;
    debug_assert_eq!(w_static.len() + (wx.edge_slots.count_ones() as usize), 1 + usize::from(two));
    let base_i =
        usize::from(two && ordered.degree_of_rank(targets[1]) < ordered.degree_of_rank(targets[0]));
    let nbt = ordered.neighbors_of_rank(targets[base_i]);
    *cost += nbt.len() as u64;
    let (prefix, window) = rank_window(nbt, wx.floor, lo, hi);
    // Each target's list over the window: the seed's window, and the
    // other target's list cut to the window's rank span. A marked join
    // probes the static target's marks instead of searching its list.
    let mut lists = [window; 2];
    if two && !(wx.marked && base_i == 1) {
        let end = window.last().map_or(0, |&x| x + 1);
        let other = ordered.neighbors_of_rank(targets[1 - base_i]);
        lists[1 - base_i] = rank_window(other, 0, window.first().map_or(0, |&x| x), end).1;
    }
    let start = lo.max(wx.floor);
    let on = |k: usize, i: usize, m: u32| {
        (start..hi).contains(&m) && joined(targets[k], wx.near[k], lists[k], i, m)
    };
    let (inside, survivors) = if !wx.marked {
        let (mut inside, mut inside_joined) = (0, 0);
        for (i, m) in mapped.iter().chain(chosen).copied().enumerate() {
            if on(base_i, i, m) {
                inside += 1;
                inside_joined += usize::from(two && on(1 - base_i, i, m));
            }
        }
        if two {
            (inside, count_common(lists[0], lists[1]) as usize - inside_joined)
        } else {
            (inside, window.len() - inside)
        }
    } else {
        // Whichever target seeds, one probe per member of the WHITE
        // target's list over the window counts the survivors: on the
        // static side and not mapped (bit 0 alone). Seeded from the WHITE
        // target, that list is the window, and the same walk counts the
        // mapped members in it (bit 1); seeded from the static one, a
        // member is in the window by a range test and a probe. Only the
        // WHITE bindings are left to test.
        #[cfg(test)]
        MARKED_JOINS.with(|joins| {
            let mut tally = joins.get();
            tally[base_i] += 1;
            tally[2] += u64::from(chosen.len() > 1);
            joins.set(tally);
        });
        let on_t = |m: u32| (start..hi).contains(&m) && cmap[m as usize] & 1 == 1;
        let (mut closed, mut inside) = (0, 0);
        if base_i == 1 {
            for &x in window {
                let b = cmap[x as usize];
                closed += usize::from(b == 1);
                inside += usize::from(b >> 1);
            }
        } else {
            closed = lists[1].iter().map(|&x| usize::from(cmap[x as usize] == 1)).sum();
            inside = mapped.iter().chain(chosen).filter(|&&m| on_t(m)).count();
        }
        for (i, &m) in chosen.iter().enumerate() {
            if on(1, mapped.len() + i, m) {
                inside += usize::from(base_i == 1);
                closed -= usize::from(on_t(m));
            }
        }
        (inside, closed)
    };
    charge(stats, nbt.len(), prefix, window.len(), inside, two.then_some(survivors));
    count_closed(survivors as u64, generated, stats);
}

#[cfg(test)]
mod tests {
    use super::{
        bit, build_row, count_common, fold, masked, merge_arenas, next_bit, rank_window, seek,
        set_arena, Rows, Side, GALLOP_RATIO, MARKED_JOINS, WINDOW_TESTS,
    };
    use crate::expand::{count_all, list_all};
    use crate::stats::ExpandStats;
    use crate::{PsglConfig, PsglShared};
    use psgl_graph::generators::erdos_renyi_gnm;
    use psgl_graph::{DataGraph, OrderedGraph, VertexId};
    use psgl_pattern::{catalog, Pattern};

    fn sorted(mut v: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
        v.sort();
        v
    }

    /// The positions set in `words` inside `[lo, hi)`, one bit at a time.
    fn set_positions(words: &[u64], (lo, hi): (usize, usize)) -> Vec<usize> {
        (lo..hi).filter(|&j| bit(words, j)).collect()
    }

    /// The range `fold` should return for the expected survivors: their
    /// first and one past their last, or empty.
    fn span_of(want: &[usize]) -> (usize, usize) {
        match (want.first(), want.last()) {
            (Some(&a), Some(&b)) => (a, b + 1),
            _ => (0, 0),
        }
    }

    #[test]
    fn mask_fold_cuts_and_clears_across_words() {
        // A four-word universe, 200 positions: the last word is partial.
        let n = 200usize;
        let words = n.div_ceil(64);
        let full = vec![!0u64; words];
        let thirds: Vec<u64> = (0..words)
            .map(|w| (0..64).filter(|b| (w * 64 + b) % 3 == 0).fold(0, |m, b| m | 1 << b))
            .collect();
        for at in [0, 63, 64, 127, n - 1] {
            for side in [Side::Any, Side::Above, Side::Below] {
                for (lo, hi) in [(0, n), (1, n - 1), (60, 130)] {
                    for row in [None, Some(&thirds[..])] {
                        let mut dst = vec![0xdead_beef_u64; words];
                        let got = fold(&full, (lo, hi), side, at, row, &mut dst);
                        let want: Vec<usize> = (lo..hi)
                            .filter(|&j| match side {
                                Side::Any => j != at,
                                Side::Above => j > at,
                                Side::Below => j < at,
                            })
                            .filter(|&j| row.is_none() || j % 3 == 0)
                            .collect();
                        let context =
                            format!("at {at}, {side:?}, [{lo}, {hi}), row {}", row.is_some());
                        assert_eq!(got, span_of(&want), "{context}");
                        assert_eq!(set_positions(&dst, got), want, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn mask_bits_are_found_across_empty_words() {
        // Set bits in words 0, 3 and 4; words 1 and 2 are empty.
        let set = [0usize, 3, 63, 200, 255, 256, 300];
        let mut words = vec![0u64; 5];
        for &j in &set {
            words[j / 64] |= 1 << (j % 64);
        }
        let mut walked = Vec::new();
        let mut j = next_bit(&words, 0, 320);
        while j < 320 {
            walked.push(j);
            j = next_bit(&words, j + 1, 320);
        }
        assert_eq!(walked, set);
        assert_eq!(next_bit(&words, 64, 320), 200, "two empty words skipped");
        assert_eq!(next_bit(&words, 64, 200), 200, "nothing before the end");
        assert_eq!(next_bit(&words, 201, 255), 255, "a set bit at the end is outside");
        assert_eq!(next_bit(&words, 5, 5), 5);
        for (lo, hi) in [(0, 320), (1, 256), (63, 64), (64, 200), (64, 201), (4, 4)] {
            let want = set.iter().filter(|&&j| (lo..hi).contains(&j)).count() as u32;
            let got: u32 =
                masked(&words, (lo, hi), usize::MAX, None).map(|(_, v)| v.count_ones()).sum();
            assert_eq!(got, want, "[{lo}, {hi})");
        }
    }

    #[test]
    fn mask_rows_match_the_naive_intersection() {
        // 200 positions holding the even ranks below 400.
        let universe: Vec<u32> = (0..200).map(|j| 2 * j).collect();
        let short = vec![6u32, 7, 126, 128, 129, 254, 398, 401];
        let long: Vec<u32> = (0..1200).filter(|x| x % 3 == 0).collect();
        for list in [&short, &long] {
            for span in [(0, 200), (63, 129), (64, 65), (1, 199), (100, 100)] {
                let want: Vec<usize> =
                    (span.0..span.1).filter(|&j| list.contains(&universe[j])).collect();
                let mut row = vec![!0u64; 4];
                build_row(list, &universe, span, &mut row);
                assert_eq!(set_positions(&row, span), want, "row, list of {}", list.len());
            }
        }
    }

    #[test]
    fn mask_rows_cached_per_position_match_build_row_over_every_span() {
        // Random universes of two to four words over the ranks of a graph
        // dense enough that most rows have members on both sides.
        let ordered = OrderedGraph::new(&erdos_renyi_gnm(300, 6000, 17).unwrap());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for keep_one_in in [2u64, 4] {
            let universe: Vec<u32> =
                (0..ordered.len() as u32).filter(|_| draw() % keep_one_in == 0).collect();
            let (n, words) = (universe.len(), universe.len().div_ceil(64));
            assert!(words >= 2, "a universe of {n} ranks");
            for side in [Side::Above, Side::Below, Side::Any] {
                // Stale words, as a table left by an earlier expansion has.
                let mut table = vec![!0u64; n * words];
                let mut built = vec![0u64; words];
                let mut rows = Rows {
                    ordered: &ordered,
                    universe: &universe,
                    side,
                    words,
                    cached: true,
                    table: &mut table,
                    built: &mut built,
                };
                let mut stats = ExpandStats::default();
                for at in (0..n).rev() {
                    // Every span on the row's side whose ends are word
                    // boundaries, their neighbours, or every 11th position.
                    let (lo, hi) = side.cut((0, n), at);
                    let ends: Vec<usize> = (lo..=hi)
                        .filter(|&j| {
                            j == lo || j == hi || matches!(j % 64, 0 | 1 | 63) || j % 11 == 0
                        })
                        .collect();
                    for (k, &a) in ends.iter().enumerate() {
                        for &b in &ends[k..] {
                            let list = side.list(&ordered, universe[at]);
                            let mut want = vec![0u64; words];
                            build_row(list, &universe, (a, b), &mut want);
                            let got = set_positions(rows.of(at, (a, b), &mut stats), (a, b));
                            let context =
                                format!("{side:?}, position {at} of {n}, span [{a}, {b})");
                            assert_eq!(got, set_positions(&want, (a, b)), "{context}");
                        }
                    }
                }
                assert_eq!(stats.intersect_gallop, n as u64, "{side:?}: one build per position");
            }
        }
    }

    #[test]
    fn seek_answers_ascending_membership_with_one_forward_cursor() {
        let list: Vec<u32> = (0..300).map(|x| 3 * x + 1).collect();
        for step in [1u32, 2, 7, 100] {
            let mut at = 0usize;
            for x in (0..1000).step_by(step as usize) {
                let before = at;
                assert_eq!(seek(&list, &mut at, x), list.contains(&x), "x {x}, step {step}");
                assert!(at >= before, "the cursor only moves forward");
                assert_eq!(at, list.partition_point(|&y| y < x), "x {x}, step {step}");
            }
        }
        assert!(!seek(&[], &mut 0, 5));
    }

    #[test]
    fn count_common_matches_the_naive_count() {
        let naive = |a: &[u32], b: &[u32]| a.iter().filter(|x| b.contains(x)).count() as u64;
        let every =
            |step: u32, len: usize| -> Vec<u32> { (0..len as u32).map(|i| i * step).collect() };
        let short = every(3, 20);
        let mut cases = vec![
            (every(2, 50), every(3, 50)),
            (short.clone(), short.clone()),
            (short.clone(), vec![]),
            (vec![], vec![]),
            (every(2, 30), every(2, 30).iter().map(|x| x + 1).collect()),
        ];
        // Both sides of the merge/gallop crossover, in both argument orders.
        for len in [20 * GALLOP_RATIO - 1, 20 * GALLOP_RATIO, 20 * GALLOP_RATIO + 1, 4000] {
            cases.push((short.clone(), every(2, len)));
            cases.push((every(2, len), short.clone()));
        }
        for (a, b) in &cases {
            let want = naive(a, b);
            assert_eq!(count_common(a, b), want, "lists of {} and {}", a.len(), b.len());
        }
        assert_eq!(count_common(&short, &short), short.len() as u64, "identical lists");
        assert_eq!(count_common(&[1, 3, 5], &[0, 2, 4, 6]), 0, "disjoint lists");
    }

    #[test]
    fn rank_window_matches_a_naive_filter() {
        let naive = |list: &[u32], floor: u32, lo: u32, hi: u32| {
            let prefix = list.iter().filter(|&&x| x < floor).count();
            let window: Vec<u32> =
                list.iter().copied().filter(|&x| x >= floor.max(lo) && x < hi).collect();
            (prefix, window)
        };
        // The span cut the wedge join's other target once took: the part of
        // `list` from the window's first rank to its last.
        let within_span = |list: &[u32], window: &[u32]| -> Vec<u32> {
            match (window.first(), window.last()) {
                (Some(&first), Some(&last)) => {
                    list.iter().copied().filter(|&x| first <= x && x <= last).collect()
                }
                _ => Vec::new(),
            }
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(n)) as u32
        };
        for len in [0usize, 1, 2, 9, 64, 400] {
            let mut list: Vec<u32> = (0..len).map(|_| draw(1000)).collect();
            list.sort_unstable();
            list.dedup();
            let mut other: Vec<u32> = (0..len).map(|_| draw(1000)).collect();
            other.sort_unstable();
            other.dedup();
            // Each bound is unbounded, zero, or a rank in or around the list.
            let mut bound = |unbounded: u32| match draw(5) {
                0 => unbounded,
                1 => 0,
                _ => draw(1100),
            };
            let mut cases = vec![
                (0, 0, u32::MAX),
                (0, 0, 500),
                (0, 500, u32::MAX),
                (700, 100, 400),
                (300, 100, u32::MAX),
                (300, 100, 600),
                (300, 600, 900),
            ];
            cases.extend((0..300).map(|_| (bound(0), bound(0), bound(u32::MAX))));
            for (floor, lo, hi) in cases {
                let (prefix, window) = rank_window(&list, floor, lo, hi);
                let context = format!("{} ranks, floor {floor}, [{lo}, {hi})", list.len());
                assert_eq!((prefix, window.to_vec()), naive(&list, floor, lo, hi), "{context}");
                let (first, end) =
                    (window.first().map_or(0, |&x| x), window.last().map_or(0, |&x| x + 1));
                let (_, span) = rank_window(&other, 0, first, end);
                assert_eq!(span.to_vec(), within_span(&other, window), "span, {context}");
            }
        }
        assert_eq!(rank_window(&[], 3, 1, 9), (0, &[][..]));
        assert_eq!(rank_window(&[], 0, 0, u32::MAX), (0, &[][..]));
    }

    #[test]
    fn mask_universe_is_the_union_of_the_arenas() {
        let cand_data = [1u32, 5, 9, 70, 2, 5, 10, 70, 71];
        let mut universe = Vec::new();
        merge_arenas(&cand_data, &[(0, 4), (4, 9), (0, 4)], &mut universe);
        assert_eq!(universe, [1, 2, 5, 9, 10, 70, 71]);
        let mut words = vec![0u64; 1];
        assert_eq!(set_arena(&universe, &cand_data[4..9], &mut words), (1, 7));
        assert_eq!(set_positions(&words, (0, 7)), [1, 2, 4, 5, 6]);
        merge_arenas(&cand_data, &[(4, 9), (4, 9)], &mut universe);
        assert_eq!(universe, cand_data[4..9]);
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
        // vertex), the order an id-ordered walk keeps them in. A 5-clique
        // binds three odometer levels; it needs a denser graph to have
        // instances to order.
        let g = erdos_renyi_gnm(90, 1000, 13).unwrap();
        let dense = erdos_renyi_gnm(90, 1600, 13).unwrap();
        for (pattern, g) in [
            (catalog::triangle(), &g),
            (catalog::four_clique(), &g),
            (catalog::tailed_triangle(), &g),
            (catalog::square(), &g),
            (catalog::path(4), &g),
            (catalog::star(3), &g),
            (catalog::clique(5), &dense),
        ] {
            let config = PsglConfig::default();
            let init = PsglShared::prepare(g, &pattern, &config).unwrap().init_vertex;
            let whites: Vec<usize> = pattern.neighbors(init).map(usize::from).collect();
            let rest =
                (0..pattern.num_vertices()).filter(|&v| v != init as usize && !whites.contains(&v));
            let binding: Vec<usize> = whites.iter().copied().chain(rest).collect();
            let (tuples, stats, _) = list_all(g, &pattern, &config);
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

    /// A 5-cycle with a pendant vertex: from initial vertex 3 or 4 its
    /// TwoHop expansion binds two WHITE slots, one of them the two-hop
    /// vertex's WHITE target.
    fn tailed_pentagon() -> Pattern {
        let edges = [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3)];
        Pattern::new("tailed pentagon", 6, &edges).unwrap()
    }

    /// A sparse G(n, m) with a hub joined to 70 of its vertices: the hub's
    /// expansions bind over universes that can span two mask words, and
    /// its list is the long side of every wedge join it takes part in.
    fn hub_of_70() -> DataGraph {
        let g = erdos_renyi_gnm(90, 130, 6).unwrap();
        let spokes = (1..=70u32).map(|v| (0, v)).filter(|&(a, b)| !g.has_edge(a, b));
        let edges: Vec<(u32, u32)> = g.edges().chain(spokes).collect();
        DataGraph::from_edges(g.num_vertices(), &edges).unwrap()
    }

    #[test]
    fn counted_wedge_joins_count_what_the_walk_and_the_generic_path_find() {
        // A count-only wedge join counts its rank window: with one static
        // and one WHITE target by probing per-expansion marks, from
        // whichever list seeds it (the lower-degree target). It decides
        // whether a mapped vertex or a binding lies in a target's window by
        // the pattern when an edge joins their pattern vertices and by a
        // search when none does, and cuts its window at the rank floor of
        // `w`'s degree bound (a square's floor is that of degree 2). It
        // must count what the generic path finds and bump every counter as
        // the listing's walk does. The cycles and the tailed pentagon (which
        // binds two WHITE slots before its wedge join) reach the marked
        // join from both seeds on every graph; the paths, the tailed
        // triangle and the square run from every initial vertex. Each set
        // reaches all three window tests on every graph on its own.
        let graphs = [
            ("G(36, 120)", erdos_renyi_gnm(36, 120, 3).unwrap()),
            ("G(40, 300)", erdos_renyi_gnm(40, 300, 4).unwrap()),
            ("G(50, 140)", erdos_renyi_gnm(50, 140, 8).unwrap()),
            ("hub of 70", hub_of_70()),
        ];
        // A pattern, its initial vertices, and for the marked set whether
        // a prefix binds two WHITE slots.
        let marked = [
            (catalog::cycle(5), vec![0, 2], Some(false)),
            (catalog::cycle(6), vec![0, 2], Some(false)),
            (catalog::cycle(7), vec![0, 3], Some(false)),
            (tailed_pentagon(), vec![3, 4], Some(true)),
        ];
        let counted =
            [catalog::path(4), catalog::tailed_triangle(), catalog::square(), catalog::path(5)]
                .map(|p| {
                    let every = p.vertices().collect();
                    (p, every, None)
                });
        for (name, g) in &graphs {
            for set in [&marked, &counted] {
                let tests_before = WINDOW_TESTS.with(|tests| tests.get());
                for (pattern, starts, two_whites) in set {
                    let (generic, _) = count_all(g, pattern, &PsglConfig::default().kernels(false));
                    let joins_before = MARKED_JOINS.with(|joins| joins.get());
                    for &v in starts {
                        let config = PsglConfig::default().init_vertex(v);
                        let context = format!("{name}, {} from {v}", pattern.name());
                        let (counted, scratch) = count_all(g, pattern, &config);
                        let marks_left = scratch.cmap.iter().any(|&b| b != 0);
                        assert!(!marks_left, "{context}: marks left behind");
                        assert_eq!(counted.results, generic.results, "{context}: kernels off");
                        let (listed, walked, _) = list_all(g, pattern, &config);
                        assert_eq!(listed.len() as u64, counted.results, "{context}");
                        assert_eq!(walked, counted, "{context}: counting and listing disagree");
                    }
                    if let Some(two_whites) = two_whites {
                        let after = MARKED_JOINS.with(|joins| joins.get());
                        let joins: Vec<u64> =
                            after.iter().zip(joins_before).map(|(a, b)| a - b).collect();
                        let context = format!("{name}, {}: marked joins {joins:?}", pattern.name());
                        assert!(joins[0] > 0 && joins[1] > 0, "{context}: both seeds");
                        assert_eq!(joins[2] > 0, *two_whites, "{context}: two WHITE bindings");
                    }
                }
                // Members in a target's rank range: decided by the pattern,
                // found by a search, and missed by one (so a join that took
                // every member as adjacent would count wrong).
                let after = WINDOW_TESTS.with(|tests| tests.get());
                let tally: Vec<u64> = after.iter().zip(tests_before).map(|(a, b)| a - b).collect();
                let first = &set[0].0;
                assert!(tally.iter().all(|&n| n > 0), "{name}, set of {}: {tally:?}", first.name());
            }
        }
    }

    #[test]
    fn cmap_is_all_zero_after_every_run() {
        // Listings mark only in the two-WHITE Close; the count-only cycles
        // mark a wedge join's static target too.
        let g = erdos_renyi_gnm(70, 420, 9).unwrap();
        for pattern in catalog::paper_patterns() {
            let (_, _, scratch) = list_all(&g, &pattern, &PsglConfig::default());
            assert!(scratch.cmap.iter().all(|&b| b == 0), "{}", pattern.name());
        }
        let g = erdos_renyi_gnm(50, 170, 9).unwrap();
        let counted = [catalog::cycle(5), catalog::cycle(6), catalog::cycle(7), tailed_pentagon()];
        for pattern in catalog::paper_patterns().into_iter().chain(counted) {
            for v in pattern.vertices() {
                let config = PsglConfig::default().init_vertex(v);
                let (_, scratch) = count_all(&g, &pattern, &config);
                assert!(scratch.cmap.iter().all(|&b| b == 0), "{} from {v}", pattern.name());
            }
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
