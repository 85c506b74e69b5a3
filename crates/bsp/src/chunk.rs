//! Pooled message chunks.
//!
//! The message plane moves `(VertexId, M)` tuples in fixed-capacity chunks
//! instead of one unbounded `Vec` per destination worker. Chunks are
//! recycled through a [`ChunkPool`] across supersteps, so after the first
//! superstep warms the pool, steady-state message traffic performs no heap
//! allocation: a sender acquires a recycled chunk, fills it, and the
//! exchange moves the chunk *by pointer* into the receiver's inbox — the
//! tuples themselves are written exactly once.
//!
//! The pool can be capped ([`ChunkPool::with_limit`]): beyond the cap,
//! [`ChunkPool::try_acquire`] reports the typed [`PoolExhausted`]
//! condition instead of allocating without bound, and senders degrade
//! gracefully by growing their current chunk past its nominal capacity
//! (see [`push_chunked`]). Exhaustion events and the get/put balance are
//! metered so the engine can surface them in
//! [`EngineMetrics`](crate::EngineMetrics) and assert, in debug builds,
//! that every acquired chunk was released by shutdown.

use parking_lot::Mutex;
use psgl_graph::VertexId;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Default number of `(VertexId, M)` tuples per chunk.
pub const DEFAULT_CHUNK_CAPACITY: usize = 512;

/// A fixed-capacity run of routed messages. Plain `Vec` under the hood;
/// the pool guarantees the capacity is allocated once and retained.
pub type Chunk<M> = Vec<(VertexId, M)>;

/// Typed condition: the pool's live-chunk cap is reached and no recycled
/// chunk is available. Recoverable — callers degrade (e.g. grow an
/// existing chunk) rather than abort; every occurrence is counted and
/// surfaced in [`EngineMetrics`](crate::EngineMetrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolExhausted;

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk pool exhausted (live-chunk cap reached)")
    }
}

impl std::error::Error for PoolExhausted {}

/// A free-list of recycled message chunks shared by all workers of a run.
///
/// `try_acquire` pops a cleared chunk if one is available, allocates a
/// fresh one while under the live-chunk cap, and reports [`PoolExhausted`]
/// otherwise; `release` returns a chunk to the free list with its buffer
/// intact. The `fresh`/`reused` counters feed
/// [`EngineMetrics::allocations_avoided`](crate::EngineMetrics::allocations_avoided);
/// `outstanding` (acquires minus releases) catches leaks and double-frees.
pub struct ChunkPool<M> {
    free: Mutex<Vec<Chunk<M>>>,
    capacity: usize,
    /// Cap on live (acquired + free) chunks; `None` = unbounded.
    max_live: Option<u64>,
    fresh: AtomicU64,
    reused: AtomicU64,
    /// Acquired-but-not-released chunks; negative would mean double-free.
    outstanding: AtomicI64,
    /// High-water mark of `outstanding` over the pool's lifetime.
    peak: AtomicI64,
    exhausted: AtomicU64,
}

impl<M> ChunkPool<M> {
    /// Creates an unbounded pool handing out chunks of `capacity` tuples
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_limit(capacity, None)
    }

    /// Creates a pool that stops allocating fresh chunks once `max_live`
    /// chunks exist (`None` = unbounded, as [`ChunkPool::new`]).
    pub fn with_limit(capacity: usize, max_live: Option<u64>) -> Self {
        ChunkPool {
            free: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            max_live,
            fresh: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            outstanding: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Counts one acquisition and pushes the high-water mark.
    #[inline]
    fn note_acquired(&self) {
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Tuples per chunk.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The pool's live-chunk cap, if it has one.
    pub(crate) fn max_live(&self) -> Option<u64> {
        self.max_live
    }

    /// Hands out an empty chunk, recycling a released one when possible;
    /// reports [`PoolExhausted`] instead of allocating past the cap.
    pub fn try_acquire(&self) -> Result<Chunk<M>, PoolExhausted> {
        if let Some(c) = self.free.lock().pop() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            self.note_acquired();
            return Ok(c);
        }
        if let Some(cap) = self.max_live {
            if self.fresh.load(Ordering::Relaxed) >= cap {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(PoolExhausted);
            }
        }
        self.fresh.fetch_add(1, Ordering::Relaxed);
        self.note_acquired();
        Ok(Vec::with_capacity(self.capacity))
    }

    /// Hands out an empty chunk unconditionally. Structural callers (a
    /// destination's first chunk) genuinely need one — their demand is
    /// bounded by the topology (`O(workers²)` per superstep), not by
    /// traffic — so over-cap allocation here is counted as an exhaustion
    /// event but still served.
    pub fn acquire(&self) -> Chunk<M> {
        match self.try_acquire() {
            Ok(c) => c,
            Err(PoolExhausted) => {
                // try_acquire already counted the exhaustion event.
                self.fresh.fetch_add(1, Ordering::Relaxed);
                self.note_acquired();
                Vec::with_capacity(self.capacity)
            }
        }
    }

    /// Returns `chunk` to the free list. Oversized chunks (exhaustion
    /// grows sender chunks past the nominal capacity) are recycled too;
    /// their extra capacity is simply kept.
    pub fn release(&self, mut chunk: Chunk<M>) {
        chunk.clear();
        if chunk.capacity() > 0 {
            let balance = self.outstanding.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(balance > 0, "chunk released more often than acquired (double free)");
            self.free.lock().push(chunk);
        }
    }

    /// Chunks allocated because the free list was empty.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Chunks served from the free list — allocations avoided.
    pub fn reuses(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Acquired-but-unreleased chunks right now (0 at a clean shutdown).
    pub fn outstanding(&self) -> i64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously outstanding chunks — the pool's
    /// true peak memory footprint, surviving after everything is released.
    pub fn peak_outstanding(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Times the live-chunk cap forced a caller onto a degraded path.
    pub fn exhausted_events(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

/// Appends `(to, msg)` to the last chunk of `list`, acquiring a new chunk
/// from `pool` when the current one is full. When the pool is exhausted
/// (live-chunk cap reached), the message goes into the current chunk past
/// its nominal capacity instead — bounded degradation in place of an
/// unbounded fresh allocation; the pool counts the event.
#[inline]
pub fn push_chunked<M>(pool: &ChunkPool<M>, list: &mut Vec<Chunk<M>>, to: VertexId, msg: M) {
    match list.last_mut() {
        Some(c) if c.len() < pool.capacity() => c.push((to, msg)),
        Some(c) => match pool.try_acquire() {
            Ok(mut next) => {
                next.push((to, msg));
                list.push(next);
            }
            Err(PoolExhausted) => c.push((to, msg)),
        },
        None => {
            // A destination's first chunk is structural demand: served even
            // over the cap (and metered) — there is nothing to grow yet.
            let mut c = pool.acquire();
            c.push((to, msg));
            list.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_buffers() {
        let pool: ChunkPool<u32> = ChunkPool::new(8);
        let mut a = pool.acquire();
        assert_eq!(pool.fresh_allocations(), 1);
        assert_eq!(pool.outstanding(), 1);
        a.push((1, 10));
        pool.release(a);
        assert_eq!(pool.outstanding(), 0);
        let b = pool.acquire();
        assert!(b.is_empty());
        assert!(b.capacity() >= 8);
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.fresh_allocations(), 1);
        assert_eq!(pool.outstanding(), 1);
        assert_eq!(pool.peak_outstanding(), 1, "peak survives release/reacquire");
    }

    #[test]
    fn peak_outstanding_is_a_high_water_mark() {
        let pool: ChunkPool<u32> = ChunkPool::new(4);
        let a = pool.acquire();
        let b = pool.acquire();
        let c = pool.acquire();
        assert_eq!(pool.peak_outstanding(), 3);
        pool.release(a);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.peak_outstanding(), 3, "peak is never lowered by releases");
        let _d = pool.acquire();
        assert_eq!(pool.peak_outstanding(), 3);
    }

    #[test]
    fn push_chunked_rolls_over_at_capacity() {
        let pool: ChunkPool<u32> = ChunkPool::new(2);
        let mut list = Vec::new();
        for i in 0..5 {
            push_chunked(&pool, &mut list, i, i);
        }
        assert_eq!(list.len(), 3);
        assert_eq!(list[0].len(), 2);
        assert_eq!(list[2].len(), 1);
        assert_eq!(pool.fresh_allocations(), 3);
        assert_eq!(pool.exhausted_events(), 0);
    }

    #[test]
    fn capped_pool_reports_typed_exhaustion() {
        let pool: ChunkPool<u32> = ChunkPool::with_limit(4, Some(1));
        let a = pool.try_acquire().unwrap();
        assert_eq!(pool.try_acquire(), Err(PoolExhausted));
        assert_eq!(pool.exhausted_events(), 1);
        // Releasing makes the chunk available again — recoverable.
        pool.release(a);
        assert!(pool.try_acquire().is_ok());
        assert_eq!(PoolExhausted.to_string(), "chunk pool exhausted (live-chunk cap reached)");
    }

    #[test]
    fn push_chunked_grows_last_chunk_when_exhausted() {
        let pool: ChunkPool<u32> = ChunkPool::with_limit(2, Some(1));
        let mut list = Vec::new();
        for i in 0..6 {
            push_chunked(&pool, &mut list, i, i);
        }
        // One chunk allocated (the cap), then grown past its capacity.
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].len(), 6);
        assert_eq!(pool.fresh_allocations(), 1);
        assert!(pool.exhausted_events() >= 1);
        // Every message survived the degraded path, in order.
        let values: Vec<u32> = list[0].iter().map(|&(_, m)| m).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn structural_acquire_is_served_past_the_cap_but_metered() {
        let pool: ChunkPool<u32> = ChunkPool::with_limit(4, Some(1));
        let _a = pool.acquire();
        let _b = pool.acquire(); // over the cap: served, counted
        assert_eq!(pool.fresh_allocations(), 2);
        assert_eq!(pool.exhausted_events(), 1);
        assert_eq!(pool.outstanding(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_release_is_caught_in_debug_builds() {
        let pool: ChunkPool<u32> = ChunkPool::new(4);
        let a = pool.acquire();
        pool.release(a);
        pool.release(Vec::with_capacity(4)); // never acquired
    }
}
