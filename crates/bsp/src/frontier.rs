//! The message plane's two containers: the [`OutStream`]s a worker fills
//! during a superstep, and the [`Frontier`] of inboxes the next superstep
//! drains. Both hold pooled chunks and spill segments, and both know how
//! to give them back — every exit of the engine releases through here.
//!
//! Delivery order is decided in this file. Each destination's inbox is
//! assembled in source-worker order — a worker's sends to its own
//! vertices sit at its own source position, not at the front — and within
//! one (source → destination) stream the spilled prefix precedes the
//! resident chunks. The chaos knob `exchange_shuffle_seed` replaces the
//! canonical source order with a seeded per-destination permutation.

use crate::chunk::{push_chunked, Chunk, ChunkPool};
use crate::context::Encode;
use crate::exchange::WorkerOutbox;
use crate::spill::{SpillError, SpillScratch, SpillSegment, SpillStore};
use psgl_graph::VertexId;

/// One (source → destination) stream of a worker's outbox: what the
/// worker sent to one destination partition this superstep, in send
/// order. Under the spill tier a stream is a spilled prefix followed by
/// resident chunks — spilling drains the whole resident list, so the
/// surviving chunks are strictly newer than every segment.
pub struct OutStream<M> {
    /// Sender-side spill segments, oldest first. Always empty under a
    /// remote [`Exchange`](crate::Exchange), where the tier is disabled.
    pub(crate) spilled: Vec<SpillSegment>,
    /// Resident chunks, in send order.
    pub chunks: Vec<Chunk<M>>,
}

impl<M> Default for OutStream<M> {
    fn default() -> Self {
        OutStream { spilled: Vec::new(), chunks: Vec::new() }
    }
}

impl<M> OutStream<M> {
    /// Returns every resident chunk to the pool and deletes every
    /// segment's blob.
    pub(crate) fn release(&mut self, pool: &ChunkPool<M>, spill: Option<&SpillStore>) {
        for c in self.chunks.drain(..) {
            pool.release(c);
        }
        for seg in self.spilled.drain(..) {
            discard_segment(seg, spill);
        }
    }
}

/// Deletes an unconsumed segment's blob when a store is available;
/// otherwise the directory guard deletes it with the store.
fn discard_segment(seg: SpillSegment, spill: Option<&SpillStore>) {
    if let Some(store) = spill {
        store.discard(seg);
    }
}

/// One slot of a destination inbox: a resident pool chunk, or a spilled
/// segment standing in for the chunks it displaced. Parts appear in
/// delivery order, and a worker gathers each vertex's messages from its
/// parts in that order, so a segment's tuples are delivered exactly where
/// its chunks' would have been: results are bit-identical to a run that
/// never spilled.
pub(crate) enum InboxPart<M> {
    /// A resident pooled chunk (zero-capacity = consumed placeholder).
    Chunk(Chunk<M>),
    /// An on-disk segment holding a run of evicted chunks.
    Spilled(SpillSegment),
}

impl<M> Default for InboxPart<M> {
    fn default() -> Self {
        InboxPart::Chunk(Chunk::default())
    }
}

impl<M> InboxPart<M> {
    /// Tuples this part delivers.
    pub(crate) fn tuples(&self) -> u64 {
        match self {
            InboxPart::Chunk(c) => c.len() as u64,
            InboxPart::Spilled(s) => s.tuples,
        }
    }

    /// Returns a chunk to the pool (a placeholder is ignored there) or
    /// deletes a segment's blob.
    pub(crate) fn release(self, pool: &ChunkPool<M>, spill: Option<&SpillStore>) {
        match self {
            InboxPart::Chunk(c) => pool.release(c),
            InboxPart::Spilled(seg) => discard_segment(seg, spill),
        }
    }
}

/// The undelivered messages between two supersteps: one inbox per local
/// partition slot, each a sequence of parts in delivery order.
pub(crate) struct Frontier<M> {
    pub(crate) inboxes: Vec<Vec<InboxPart<M>>>,
}

impl<M> Frontier<M> {
    /// `slots` empty inboxes — what superstep 0 starts from.
    pub(crate) fn empty(slots: usize) -> Self {
        Frontier { inboxes: (0..slots).map(|_| Vec::new()).collect() }
    }

    /// Wraps exchange-delivered inboxes, which are always resident.
    pub(crate) fn from_resident(boxes: Vec<Vec<Chunk<M>>>) -> Self {
        let wrap = |chunks: Vec<Chunk<M>>| chunks.into_iter().map(InboxPart::Chunk).collect();
        Frontier { inboxes: boxes.into_iter().map(wrap).collect() }
    }

    /// Re-chunks a flattened frontier (a resume point's) in delivery
    /// order. Each worker regroups its inbox by vertex and delivery
    /// position, never by chunk, so chunk boundaries need not match the
    /// original run's.
    pub(crate) fn from_tuples(pool: &ChunkPool<M>, boxes: Vec<Vec<(VertexId, M)>>) -> Self {
        Self::from_resident(
            boxes
                .into_iter()
                .map(|tuples| {
                    let mut chunks = Vec::new();
                    for (v, m) in tuples {
                        push_chunked(pool, &mut chunks, v, m);
                    }
                    chunks
                })
                .collect(),
        )
    }

    /// The in-process exchange: moves every stream of `outboxes` (one
    /// outbox per partition, all of them hosted here) into its
    /// destination's inbox by pointer, in the order the module docs give.
    pub(crate) fn from_outboxes(
        outboxes: &mut [WorkerOutbox<M>],
        superstep: u32,
        shuffle_seed: Option<u64>,
    ) -> Self {
        let k = outboxes.len();
        let mut frontier = Self::empty(k);
        for (dest, inbox) in frontier.inboxes.iter_mut().enumerate() {
            for src in source_order(k, superstep, dest, shuffle_seed) {
                let stream = &mut outboxes[src][dest];
                inbox.extend(stream.spilled.drain(..).map(InboxPart::Spilled));
                inbox.extend(stream.chunks.drain(..).map(InboxPart::Chunk));
            }
        }
        frontier
    }

    /// Tuples the frontier will deliver.
    pub(crate) fn in_flight(&self) -> u64 {
        self.inboxes.iter().flatten().map(InboxPart::tuples).sum()
    }

    /// Empties the frontier into per-destination tuple runs, releasing
    /// resident chunks and reading whole spilled segments back — the
    /// checkpointable form. Each vertex's messages keep their delivery
    /// order; a segment's tuples come back ordered by vertex. On a re-admission
    /// failure every remaining chunk is still released (the pool stays
    /// balanced) and the typed error is reported after the sweep.
    pub(crate) fn flatten(
        &mut self,
        pool: &ChunkPool<M>,
        spill: Option<&SpillStore>,
    ) -> Result<Vec<Vec<(VertexId, M)>>, SpillError>
    where
        M: Encode,
    {
        let mut failed: Option<SpillError> = None;
        let flat = std::mem::take(&mut self.inboxes)
            .into_iter()
            .map(|parts| {
                let mut tuples = Vec::new();
                for part in parts {
                    match part {
                        InboxPart::Chunk(mut c) => {
                            tuples.append(&mut c);
                            pool.release(c);
                        }
                        // Once failing, the rest of the sweep only cleans up.
                        InboxPart::Spilled(seg) => match spill {
                            Some(store) if failed.is_none() => {
                                if let Err(e) = store.readmit(seg, &mut tuples) {
                                    failed = Some(e);
                                }
                            }
                            _ => discard_segment(seg, spill),
                        },
                    }
                }
                tuples
            })
            .collect();
        match failed {
            None => Ok(flat),
            Some(e) => Err(e),
        }
    }

    /// Superstep-boundary eviction: while the pool is over its live-chunk
    /// cap, encode contiguous runs of resident frontier chunks into spill
    /// segments — replaced in place, so delivery order is untouched — and
    /// release the chunks. Walks destinations and each destination's parts
    /// in delivery order (oldest first): at a barrier the whole frontier is
    /// equally cold, and oldest-first makes eviction deterministic and
    /// sequential on disk. A write failure stops eviction entirely: the
    /// frontier stays resident (degraded, never wrong). Segments are
    /// encoded in `scratch`.
    pub(crate) fn evict(
        &mut self,
        pool: &ChunkPool<M>,
        store: &SpillStore,
        cap: i64,
        scratch: &mut SpillScratch,
    ) where
        M: Encode,
    {
        for inbox in self.inboxes.iter_mut() {
            let mut i = 0;
            while i < inbox.len() {
                if pool.outstanding() <= cap {
                    return;
                }
                if !matches!(&inbox[i], InboxPart::Chunk(c) if !c.is_empty()) {
                    i += 1;
                    continue;
                }
                // Collect the contiguous run of non-empty resident chunks
                // starting at `i`; taken slots become zero-capacity
                // placeholders that drain harmlessly later.
                let mut run: Vec<Chunk<M>> = Vec::new();
                let mut j = i;
                while j < inbox.len() {
                    match &inbox[j] {
                        InboxPart::Chunk(c) if !c.is_empty() => {
                            let InboxPart::Chunk(c) = std::mem::take(&mut inbox[j]) else {
                                unreachable!("matched a resident chunk above")
                            };
                            run.push(c);
                            j += 1;
                        }
                        _ => break,
                    }
                }
                match store.spill(&run, pool.capacity(), scratch) {
                    Ok(seg) => {
                        for c in run {
                            pool.release(c);
                        }
                        inbox[i] = InboxPart::Spilled(seg);
                        i = j;
                    }
                    Err(_) => {
                        // Degradable write failure: restore the run and keep
                        // the whole frontier resident.
                        for (off, c) in run.into_iter().enumerate() {
                            inbox[i + off] = InboxPart::Chunk(c);
                        }
                        return;
                    }
                }
            }
        }
    }

    /// Returns every chunk still in the frontier to the pool and deletes
    /// every segment's blob. Parts a worker already consumed are
    /// zero-capacity placeholders, which the pool ignores.
    pub(crate) fn release(&mut self, pool: &ChunkPool<M>, spill: Option<&SpillStore>) {
        for part in self.inboxes.iter_mut().flat_map(|inbox| inbox.drain(..)) {
            part.release(pool, spill);
        }
    }
}

/// The order in which destination `dest` consumes source workers during
/// the exchange after `superstep`: canonical `0..k`, or — under the
/// `exchange_shuffle_seed` chaos knob — a seeded Fisher–Yates permutation
/// that differs per `(superstep, dest)` but is fully reproducible.
fn source_order(k: usize, superstep: u32, dest: usize, shuffle: Option<u64>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    if let Some(seed) = shuffle {
        let mut s = seed ^ ((superstep as u64) << 32) ^ (dest as u64).wrapping_mul(0x9E37_79B9);
        for i in (1..k).rev() {
            s = splitmix64(s);
            let j = (s % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// SplitMix64 step — a tiny, dependency-free PRNG for the exchange
/// shuffle (statistical quality is irrelevant here; reproducibility is
/// everything).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_order_is_identity_without_shuffle_and_a_permutation_with() {
        assert_eq!(source_order(5, 3, 2, None), vec![0, 1, 2, 3, 4]);
        for dest in 0..5 {
            let order = source_order(5, 3, dest, Some(99));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "must be a permutation");
            // Deterministic per (superstep, dest, seed).
            assert_eq!(order, source_order(5, 3, dest, Some(99)));
        }
    }
}
