//! The program-facing side of the engine: the [`VertexProgram`] trait and
//! the [`Context`] its `compute` sends messages through.

use crate::chunk::{push_chunked, ChunkPool, PoolExhausted};
use crate::frontier::OutStream;
use crate::spill::{SpillScratch, SpillStore};
use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use std::time::Instant;

/// Per-worker, per-superstep execution context handed to
/// [`VertexProgram::compute`].
pub struct Context<'a, M> {
    pub(crate) superstep: u32,
    pub(crate) worker: usize,
    pub(crate) partitioner: &'a HashPartitioner,
    pub(crate) pool: &'a ChunkPool<M>,
    /// This worker's outbox: one stream per *global* destination
    /// partition. The worker's own slot is the local fast path — the
    /// in-process exchange moves it like any other stream, a remote one
    /// never puts it on a wire.
    pub(crate) outbox: &'a mut [OutStream<M>],
    /// The run's spill store (`None` = tier disabled, grow-in-place
    /// degradation).
    pub(crate) spill: Option<&'a SpillStore>,
    /// The worker's retained buffers its sends' spills are encoded in.
    pub(crate) spill_scratch: &'a mut SpillScratch,
    pub(crate) cost: u64,
    pub(crate) messages_out: u64,
    pub(crate) local_delivered: u64,
    /// Nanoseconds this worker spent inside the spill store: its sends'
    /// spill writes and its inbox's segment reads. The store counts
    /// them as stall, so the worker leaves them out of its elapsed time.
    pub(crate) spill_nanos: u64,
}

impl<M: Encode> Context<'_, M> {
    /// Current superstep (0 = initialization).
    #[inline]
    pub fn superstep(&self) -> u32 {
        self.superstep
    }

    /// Id of the executing worker.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.partitioner.workers()
    }

    /// The vertex partitioner (vertex → owning worker).
    #[inline]
    pub fn partitioner(&self) -> &HashPartitioner {
        self.partitioner
    }

    /// Sends `msg` to vertex `to`; it is delivered at the next superstep on
    /// the worker owning `to`. Messages to this worker's own vertices are
    /// counted as locally delivered: they never leave the process.
    #[inline]
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.messages_out += 1;
        let dest = self.partitioner.owner(to);
        if dest == self.worker {
            self.local_delivered += 1;
        }
        let stream = &mut self.outbox[dest];
        let spill = self.spill.map(|store| (store, &mut *self.spill_scratch));
        push_or_spill(self.pool, spill, stream, &mut self.spill_nanos, to, msg);
    }

    /// Adds `units` to this worker's cost for the current superstep
    /// (PSgL: the `load(Gpsi)` terms of Equation 2).
    #[inline]
    pub fn add_cost(&mut self, units: u64) {
        self.cost += units;
    }
}

/// Sender-side push with spill-tier degradation. Without a spill tier
/// this is exactly [`push_chunked`]. With one, hitting the live-chunk cap
/// no longer grows the current chunk: the stream's *entire* resident
/// chunk list — a prefix of its (src → dest) traffic, so delivery order is
/// untouched — is encoded into one segment, its chunks are released back
/// to the pool (freeing capacity for the whole run), and the send lands
/// in a freshly acquired chunk. Write-side spill failures (ENOSPC, byte
/// budget) fall back to the old grow-in-place path: slower and bigger,
/// never wrong. Time spent in the spill write is added to `spill_nanos`.
#[inline]
fn push_or_spill<M: Encode>(
    pool: &ChunkPool<M>,
    spill: Option<(&SpillStore, &mut SpillScratch)>,
    stream: &mut OutStream<M>,
    spill_nanos: &mut u64,
    to: VertexId,
    msg: M,
) {
    let list = &mut stream.chunks;
    let Some((store, scratch)) = spill else {
        push_chunked(pool, list, to, msg);
        return;
    };
    match list.last_mut() {
        Some(c) if c.len() < pool.capacity() => c.push((to, msg)),
        Some(_) => match pool.try_acquire() {
            Ok(mut next) => {
                next.push((to, msg));
                list.push(next);
            }
            Err(PoolExhausted) => {
                match timed(spill_nanos, || store.spill(list, pool.capacity(), scratch)) {
                    Ok(seg) => {
                        stream.spilled.push(seg);
                        for c in list.drain(..) {
                            pool.release(c);
                        }
                        // The releases above refilled the free list, so this
                        // acquire is served from it, under the cap.
                        let mut c = pool.acquire();
                        c.push((to, msg));
                        list.push(c);
                    }
                    // Degradable write failure: grow the full chunk in place,
                    // exactly the pre-spill behavior.
                    Err(_) => list.last_mut().expect("list checked non-empty").push((to, msg)),
                }
            }
        },
        None => {
            // A destination's first chunk is structural demand: served
            // even over the cap (and metered).
            let mut c = pool.acquire();
            c.push((to, msg));
            list.push(c);
        }
    }
}

/// Runs `f`, adding its wall time to `nanos`. Workers time their own spill
/// writes and segment reads with it.
pub(crate) fn timed<T>(nanos: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *nanos += start.elapsed().as_nanos() as u64;
    out
}

/// How a message leaves memory: one fixed-width byte layout, the same in
/// every format that carries messages — spill segments, checkpoints and
/// cluster frames.
pub trait Encode: Sized {
    /// Size of one encoded message in bytes.
    const ENCODED_LEN: usize;

    /// Appends exactly [`Encode::ENCODED_LEN`] bytes.
    fn encode(&self, out: &mut Vec<u8>);

    /// Parses exactly [`Encode::ENCODED_LEN`] bytes. They come from a file
    /// or a socket, so a message the program could not have sent is an
    /// error naming what is wrong with it, never a panic.
    fn decode(bytes: &[u8]) -> Result<Self, &'static str>;
}

/// A vertex-centric program in the Pregel style.
///
/// The engine calls [`VertexProgram::compute`] on every vertex in
/// superstep 0 with no messages (PSgL's initialization phase) and on every
/// vertex with pending messages in later supersteps. The run halts when no
/// messages are in flight.
pub trait VertexProgram: Sync {
    /// Message type exchanged between vertices. `Copy`, because a worker
    /// reads its inbox in place: it regroups an index of the messages, not
    /// the messages, and copies each one straight from the chunk it was
    /// delivered in into the batch of its vertex. [`Encode`], because the
    /// spill tier writes messages to disk.
    type Message: Copy + Send + Encode;
    /// Mutable per-worker state (e.g. local result buffers, the
    /// distribution strategy's local workload view).
    type WorkerState: Send;

    /// Creates worker-local state before superstep 0.
    fn create_worker_state(&self, worker: usize) -> Self::WorkerState;

    /// Processes `vertex` with its incoming `messages`.
    ///
    /// `messages` is an engine-owned batch buffer reused across calls: it
    /// holds every message addressed to `vertex` this superstep, and the
    /// program may freely `drain` or consume it — the engine clears it
    /// before the next vertex either way.
    fn compute(
        &self,
        ctx: &mut Context<'_, Self::Message>,
        state: &mut Self::WorkerState,
        vertex: VertexId,
        messages: &mut Vec<Self::Message>,
    );
}
