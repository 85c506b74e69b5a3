//! Asserts the hot-path discipline of the expansion kernel: once every
//! retained buffer has been sized by a warm-up pass, a full listing run
//! driven through [`expand_gpsi`] performs **zero** heap allocations.
//!
//! The check uses a counting `#[global_allocator]`: the first (warm-up)
//! run may allocate freely while the scratch, queue and outbox grow to
//! their high-water marks; the second, identical run (fresh distributor
//! with the same seed, so the expansion sequence is bit-for-bit the same)
//! must not touch the allocator at all.

use psgl_core::distribute::{Distributor, Strategy};
use psgl_core::expand::{expand_gpsi, ExpandScratch};
use psgl_core::stats::ExpandStats;
use psgl_core::{Gpsi, Harvested, PsglConfig, PsglShared};
use psgl_graph::generators::erdos_renyi_gnm;
use psgl_graph::partition::HashPartitioner;
use psgl_pattern::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Drives a complete single-worker, count-only listing through the
/// kernel, reusing the caller's scratch, queue and outbox buffers. Returns
/// the counters; the instance count is `results`, because under
/// [`Harvested::CountOnly`] a closed instance is counted and never built.
fn drive(
    shared: &PsglShared<'_>,
    partitioner: &HashPartitioner,
    distributor: &mut Distributor,
    scratch: &mut ExpandScratch,
    queue: &mut Vec<Gpsi>,
    out: &mut Vec<Gpsi>,
) -> ExpandStats {
    let g = shared.graph;
    let pattern = &shared.pattern;
    let init = shared.init_vertex;
    let mut stats = ExpandStats::default();
    queue.clear();
    for v in g.vertices() {
        if g.degree(v) >= pattern.degree(init) {
            queue.push(Gpsi::initial(init, v));
        }
    }
    while let Some(gpsi) = queue.pop() {
        out.clear();
        expand_gpsi(
            shared,
            gpsi,
            scratch,
            distributor,
            partitioner,
            out,
            &mut Harvested::CountOnly,
            &mut stats,
        );
        queue.append(out);
    }
    stats
}

#[test]
fn steady_state_expansion_allocates_nothing() {
    // Dense-ish ER graph so every pattern actually produces instances.
    // Triangle and 4-clique close through the Close kernel's joined final
    // slot, tailed-triangle through its unjoined one (the tail has no
    // WHITE neighbor); square and path(4) through the TwoHop wedge join.
    // With the kernels off, every pattern runs the generic odometer over
    // arenas cut from rank windows.
    let g = erdos_renyi_gnm(120, 1500, 7).unwrap();
    let partitioner = HashPartitioner::new(1);
    let cases = [
        (catalog::triangle(), false),
        (catalog::four_clique(), false),
        (catalog::square(), true),
        (catalog::tailed_triangle(), false),
        (catalog::path(4), true),
    ];
    for ((pattern, twohop), kernels) in
        cases.into_iter().flat_map(|case| [(case.clone(), true), (case, false)])
    {
        let config = PsglConfig::default().kernels(kernels);
        let shared = PsglShared::prepare(&g, &pattern, &config).unwrap();
        let mut scratch = ExpandScratch::new();
        let mut queue: Vec<Gpsi> = Vec::new();
        let mut out: Vec<Gpsi> = Vec::new();
        // Warm-up: sizes every retained buffer to its high-water mark.
        let mut distributor = Distributor::new(Strategy::Random, 1, 99);
        let warm =
            drive(&shared, &partitioner, &mut distributor, &mut scratch, &mut queue, &mut out);
        assert!(warm.results > 0, "{pattern:?}: fixture graph should contain instances");
        let fired = if twohop { warm.kernel_twohop } else { warm.kernel_close };
        let covered = if kernels { fired > 0 } else { warm.kernel_close + warm.kernel_twohop == 0 };
        assert!(
            covered,
            "{pattern:?}: kernels {kernels}, the expansion this case covers never ran"
        );
        // Fresh same-seeded distributor (created *outside* the measured
        // region — its workload Vec allocates) replays the identical
        // expansion sequence.
        let mut distributor = Distributor::new(Strategy::Random, 1, 99);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let again =
            drive(&shared, &partitioner, &mut distributor, &mut scratch, &mut queue, &mut out);
        let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(again, warm, "{pattern:?}: replay must expand the same way");
        assert_eq!(delta, 0, "{pattern:?} kernels {kernels}: steady state allocated {delta} times");
    }
}
