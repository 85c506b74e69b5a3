//! Deterministic-replay acceptance tests: the same `(seed, config)` pair
//! must reproduce a run bit-for-bit — stats fingerprint, schedule trace,
//! and listing output all identical.

use psgl_core::Strategy;
use psgl_sim::{chaos::chaos_patterns, Scenario};

/// The tentpole acceptance check: replay a fixed `(seed, config)` twice
/// and require bit-identical `RunStats` (via the fingerprint, which covers
/// every field except wall time) plus an identical schedule trace.
#[test]
fn fixed_seed_replays_bit_identically() {
    let scenario = Scenario::from_seed(0xD5EE_D001);
    let first = scenario.run().expect("scenario must pass invariants");
    let second = scenario.run().expect("replay must pass invariants");
    assert_eq!(first.fingerprint, second.fingerprint, "RunStats + output must be bit-identical");
    assert_eq!(first.trace_hash, second.trace_hash, "the schedule itself must replay");
    assert_eq!(first.virtual_time, second.virtual_time);
    assert_eq!(first.instance_count, second.instance_count);
    // Spot-check a few raw fields too, independent of the fingerprint.
    assert_eq!(first.stats.per_worker_cost, second.stats.per_worker_cost);
    assert_eq!(first.stats.messages_out_per_superstep, second.stats.messages_out_per_superstep);
    assert_eq!(first.stats.expand, second.stats.expand);
}

/// Replay determinism must hold across the whole fault menu, not just one
/// lucky seed.
#[test]
fn replay_holds_across_a_seed_sweep() {
    for seed in [1u64, 2, 3, 0xBAD, 0xC0DE, 987_654_321] {
        let scenario = Scenario::from_seed(seed);
        let a = scenario.run().unwrap_or_else(|f| panic!("{f}"));
        let b = scenario.run().unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}");
        assert_eq!(a.trace_hash, b.trace_hash, "seed {seed}");
    }
}

/// Different seeds must actually produce different schedules — otherwise
/// the chaos sweep explores nothing.
#[test]
fn different_seeds_explore_different_schedules() {
    let a = Scenario::from_seed(11).run().unwrap();
    let b = Scenario::from_seed(12).run().unwrap();
    assert_ne!(a.trace_hash, b.trace_hash);
}

/// The instance count is schedule-independent: pin one workload and vary
/// only the scheduler seed — every schedule must find the same instances
/// the oracle does.
#[test]
fn counts_are_invariant_across_schedules() {
    let pattern = chaos_patterns()[1].clone(); // square
    let (name, strategy) = Strategy::paper_variants()[3]; // (WA,0): deterministic per Gpsi
    let mut counts = Vec::new();
    for seed in 100..108 {
        let scenario = Scenario::from_seed_with(seed, pattern.clone(), name, strategy);
        // Same graph for every seed so the counts are comparable.
        let scenario = Scenario { graph_seed: 5, graph_vertices: 45, graph_edges: 135, ..scenario };
        let report = scenario.run().unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.instance_count, report.oracle_count, "seed {seed}");
        counts.push(report.instance_count);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "schedule changed the count: {counts:?}");
}
