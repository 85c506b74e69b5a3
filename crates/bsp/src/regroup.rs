//! Orders messages by destination vertex, keeping delivery order within a
//! vertex: the one sort of the message plane. A worker regroups its inbox
//! with it, and the spill tier writes each segment in its order.
//!
//! It sorts 12-byte `(vertex, part, slot)` keys, one per message, never
//! the messages. The keys are unique and produced in delivery order,
//! which is ascending `(part, slot)`, so a stable counting sort by vertex
//! and `sort_unstable` of the keys give the same order.

use crate::chunk::Chunk;
use crate::frontier::InboxPart;
use psgl_graph::VertexId;

/// A key set of fewer than `span / COUNTING_SORT_MIN_FILL` messages is
/// ordered by `sort_unstable` instead of the counting sort, whose prefix
/// sum and reset walk one count per vertex of the span whatever the key
/// count. Both give the same order.
pub(crate) const COUNTING_SORT_MIN_FILL: usize = 16;

/// The `(vertex, part, slot)` of a regroup key.
pub(crate) type Key = (VertexId, u32, u32);

/// Messages a regroup can key: it calls `key` with every message's
/// `(vertex, part, slot)` in delivery order.
pub(crate) trait Keys {
    /// Calls `key` once per message, in ascending `(part, slot)` order.
    fn each(&self, key: impl FnMut(VertexId, u32, u32));
}

/// A list of chunks: part `i` is the `i`-th chunk.
impl<M> Keys for [Chunk<M>] {
    fn each(&self, mut key: impl FnMut(VertexId, u32, u32)) {
        for (p, chunk) in (0u32..).zip(self) {
            for (slot, &(v, _)) in (0u32..).zip(chunk) {
                key(v, p, slot);
            }
        }
    }
}

/// Inbox parts read in place: part `i` is the `i`-th part, which must be a
/// resident chunk. Spilled segments are read by range, never keyed.
impl<M> Keys for [InboxPart<M>] {
    fn each(&self, mut key: impl FnMut(VertexId, u32, u32)) {
        for (p, part) in (0u32..).zip(self) {
            let InboxPart::Chunk(chunk) = part else {
                unreachable!("a spilled inbox part is read by range groups, never in place")
            };
            for (slot, &(v, _)) in (0u32..).zip(chunk) {
                key(v, p, slot);
            }
        }
    }
}

/// One gathered run of messages: every key is in part 0, at its position.
impl<M> Keys for [(VertexId, M)] {
    fn each(&self, mut key: impl FnMut(VertexId, u32, u32)) {
        for (slot, &(v, _)) in (0u32..).zip(self) {
            key(v, 0, slot);
        }
    }
}

/// Fills `index` with the `total` keys of `keys`, in ascending vertex
/// order with delivery order kept within each vertex, and leaves `counts`
/// all zero.
///
/// The vertices are expected in `base..base + span`. When the keys are not
/// few against that span, a stable counting sort orders them: count the
/// keys per vertex into `counts` (grown to `span` on first need and
/// retained), turn the counts into start positions, and scatter the keys
/// a second time straight from `keys` — two reads of the messages and one
/// of the counts, and no buffer beside the index. Few keys, or a key
/// outside the span, are sorted instead.
pub(crate) fn order_by_vertex<K: Keys + ?Sized>(
    keys: &K,
    total: usize,
    base: VertexId,
    span: usize,
    counts: &mut Vec<u32>,
    index: &mut Vec<Key>,
) {
    assert!(
        total <= u32::MAX as usize,
        "{total} messages overflow the regroup index's 32-bit positions"
    );
    index.clear();
    let counted = total * COUNTING_SORT_MIN_FILL >= span && {
        if counts.len() < span {
            counts.resize(span, 0);
        }
        counting_sort(keys, base, &mut counts[..span], index, total)
    };
    if !counted {
        index.reserve(total);
        keys.each(|v, p, slot| index.push((v, p, slot)));
        index.sort_unstable();
    }
}

/// Fills the empty `index` with the `total` keys by a stable counting sort
/// on `vertex - base` and leaves `counts` all zero. Returns false, with
/// `index` still empty, when a key falls outside `counts`.
fn counting_sort<K: Keys + ?Sized>(
    keys: &K,
    base: VertexId,
    counts: &mut [u32],
    index: &mut Vec<Key>,
    total: usize,
) -> bool {
    let mut in_range = true;
    keys.each(|v, _, _| match v.checked_sub(base).and_then(|d| counts.get_mut(d as usize)) {
        Some(c) => *c += 1,
        None => in_range = false,
    });
    if !in_range {
        counts.fill(0);
        return false;
    }
    // Each vertex's first position in the index.
    let mut next = 0u32;
    for c in counts.iter_mut() {
        (*c, next) = (next, next + *c);
    }
    index.resize(total, (0, 0, 0));
    keys.each(|v, p, slot| {
        let at = &mut counts[(v - base) as usize];
        index[*at as usize] = (v, p, slot);
        *at += 1;
    });
    counts.fill(0);
    true
}
