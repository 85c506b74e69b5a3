//! A worker reads its inbox where the exchange delivered it: regrouping
//! sorts a 12-byte `(vertex, part, slot)` key per message, not the
//! messages, so the superstep that receives the largest inbox allocates
//! the index and nothing proportional to the messages themselves. Under a
//! live-chunk cap with the spill tier, it reads its inbox one range of
//! vertices at a time, so that superstep allocates what the cap sets,
//! whatever the inbox's size.
//!
//! A counting `#[global_allocator]` tracks live and peak heap bytes; an
//! executor wrapper resets the peak at the start of the measured superstep
//! and reads it at the end, so the figure is exactly what that superstep's
//! worker tasks allocated on top of what was already live.

use psgl_bsp::{
    run_controlled, BspConfig, Context, Encode, EngineMetrics, Executor, RunControl, RunOutcome,
    SerialExecutor, SpillConfig, SpillStore, VertexProgram, WorkerTask,
};
use psgl_graph::partition::HashPartitioner;
use psgl_graph::VertexId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    /// Counted as the allocate-copy-free it may be: the new block is live
    /// before the old one goes.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The tests run engines; the measured superstep must not see another
/// test's allocations.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A message larger than a `Gpsi`: a `(VertexId, Msg)` tuple is 96 bytes.
#[derive(Clone, Copy)]
struct Msg([u64; 11]);

impl Encode for Msg {
    const ENCODED_LEN: usize = 88;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
    }
    fn decode(bytes: &[u8]) -> Result<Msg, &'static str> {
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        Ok(Msg(std::array::from_fn(word)))
    }
}

/// Superstep 0: every vertex sends one message. Superstep 1: every
/// message received is relayed twice. Superstep 2 receives two messages a
/// vertex — the largest inbox of the run — and sends nothing.
struct Relay {
    n: usize,
}

impl VertexProgram for Relay {
    type Message = Msg;
    type WorkerState = ();

    fn create_worker_state(&self, _worker: usize) {}

    fn compute(&self, ctx: &mut Context<'_, Msg>, _: &mut (), v: VertexId, msgs: &mut Vec<Msg>) {
        let sends = match ctx.superstep() {
            0 => 1,
            1 => 2 * msgs.len(),
            _ => 0,
        };
        for i in 0..sends {
            ctx.send(((v as usize * 7 + i + 1) % self.n) as VertexId, Msg([u64::from(v); 11]));
        }
    }
}

/// Runs tasks serially and records the peak heap growth of one superstep.
struct Metered {
    superstep: u32,
    grew: AtomicUsize,
}

impl Executor for Metered {
    fn run_superstep(&self, superstep: u32, tasks: Vec<WorkerTask<'_>>) {
        if superstep != self.superstep {
            return SerialExecutor.run_superstep(superstep, tasks);
        }
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        SerialExecutor.run_superstep(superstep, tasks);
        self.grew.store(PEAK.load(Ordering::Relaxed) - base, Ordering::Relaxed);
    }
}

fn relay(
    n: usize,
    config: &BspConfig,
    executor: &dyn Executor,
    spill: Option<&SpillStore>,
) -> EngineMetrics {
    let p = HashPartitioner::new(2);
    let control = RunControl { spill, ..RunControl::default() };
    match run_controlled(n, &p, &Relay { n }, config, executor, control).unwrap() {
        RunOutcome::Complete(r) => r.metrics,
        RunOutcome::Cancelled(_) => unreachable!("nothing cancels this run"),
    }
}

#[test]
fn the_largest_inbox_is_regrouped_without_copying_it() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let meter = Metered { superstep: 2, grew: AtomicUsize::new(0) };
    let m = relay(20_000, &BspConfig::default(), &meter, None);
    assert_eq!(m.superstep_count(), 3);
    let last = &m.supersteps[2];
    assert_eq!(last.messages_out(), 0, "the measured superstep sends nothing");
    let n: usize = last.workers.iter().map(|w| w.messages_in as usize).sum();
    assert_eq!(n, 2 * 20_000);
    // The index is 12 bytes a message, twice that while a doubling
    // reallocation copies it; copying the tuples out to sort them costs
    // 96 bytes a message plus the sort's own 48.
    let grew = meter.grew.load(Ordering::Relaxed);
    let bound = 32 * n + 64 * 1024;
    assert!(grew <= bound, "the superstep receiving {n} messages allocated {grew} bytes > {bound}");
}

#[test]
fn a_capped_inbox_is_released_before_compute() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Superstep 0's sends fill the cap with 64-tuple chunks; superstep 1
    // sends twice as many. Its inbox must go back to the pool before its
    // sends need chunks, or their first chunk per destination is served
    // over the cap.
    let cap = 32;
    let config = BspConfig { chunk_capacity: 64, max_live_chunks: Some(cap), ..Default::default() };
    let m = relay(2_000, &config, &SerialExecutor, None);
    assert!(m.carried.pool_exhausted > 0, "the cap must bind");
    let peak = m.carried.chunks_live_peak;
    assert!(peak <= cap, "{peak} chunks live under a cap of {cap}");
}

#[test]
fn a_spilled_inbox_is_read_within_a_bound_set_by_the_cap() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 32 chunks of 64 tuples: 2 048 messages, about 1/20 of the smaller
    // run's largest inbox.
    let (cap, capacity) = (32, 64);
    let config =
        BspConfig { chunk_capacity: capacity, max_live_chunks: Some(cap), ..Default::default() };
    // What the cap lets a capped superstep hold: the resident inbox the
    // barrier eviction leaves (at most the cap's tuples), and each
    // worker's range group (its share of them, plus one vertex's two
    // messages) with the encoded bytes it was read from and its 12-byte
    // keys. Eight times the cap's tuples covers all of that with every
    // buffer at twice its length, as a doubling growth can leave it. Read
    // whole, as before ranges, the inbox alone costs 96 bytes a message.
    let tuple = std::mem::size_of::<(VertexId, Msg)>();
    let bound = 8 * cap as usize * capacity * tuple;
    for n in [20_000, 80_000] {
        let store = SpillStore::create(&SpillConfig::in_temp()).unwrap();
        let meter = Metered { superstep: 2, grew: AtomicUsize::new(0) };
        let m = relay(n, &config, &meter, Some(&store));
        assert_eq!(m.superstep_count(), 3);
        let inbox: u64 = m.supersteps[2].workers.iter().map(|w| w.messages_in).sum();
        assert_eq!(inbox, 2 * n as u64);
        assert!(m.carried.spill_chunks > 0, "{n} vertices: the cap must bind");
        assert_eq!(m.carried.readmitted_chunks, m.carried.spill_chunks, "{n} vertices");
        let grew = meter.grew.load(Ordering::Relaxed);
        assert!(
            grew < bound,
            "the capped superstep receiving {inbox} messages allocated {grew} bytes >= {bound}"
        );
    }
}
