//! The oracle conformance suite: ≥200 seeded chaos scenarios swept over
//! the full pattern × strategy grid (3 patterns × all 5 `paper_variants`
//! strategies × 14 seeds = 210 scenarios). Each scenario draws its own
//! fault cocktail — scheduler reorderings, chunk-pool exhaustion,
//! partition skew, exchange shuffles, checkpointed suspend/resume, forced
//! slice-boundary preemptions — and must match the centralized oracle's
//! instance count exactly with zero invariant violations.

use psgl_core::Strategy;
use psgl_sim::chaos::chaos_patterns;
use psgl_sim::Scenario;

const SEEDS_PER_CELL: u64 = 14;

#[test]
fn two_hundred_plus_scenarios_keep_oracle_parity_under_chaos() {
    let patterns = chaos_patterns();
    let mut scenarios_run = 0u64;
    let mut failures = Vec::new();
    // pool cap, skew, shuffle, cancel, preempt drawn
    let mut fault_coverage = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut resumed = 0u64;
    let mut preempted = 0u64;
    for (pi, pattern) in patterns.iter().enumerate() {
        for (si, (name, strategy)) in Strategy::paper_variants().into_iter().enumerate() {
            for i in 0..SEEDS_PER_CELL {
                // Distinct seed per grid cell and iteration.
                let seed = 1 + i + SEEDS_PER_CELL * (si as u64 + 8 * pi as u64);
                let scenario = Scenario::from_seed_with(seed, pattern.clone(), name, strategy);
                fault_coverage.0 += u64::from(scenario.max_live_chunks.is_some());
                fault_coverage.1 += u64::from(scenario.skew_per_mille > 0);
                fault_coverage.2 += u64::from(scenario.exchange_shuffle_seed.is_some());
                fault_coverage.3 += u64::from(scenario.cancel_at_superstep.is_some());
                fault_coverage.4 += u64::from(scenario.preempt_every.is_some());
                scenarios_run += 1;
                match scenario.run() {
                    Ok(report) => {
                        resumed += u64::from(report.resumed_at.is_some());
                        preempted += u64::from(report.preempted_slices.is_some());
                    }
                    Err(failure) => failures.push(failure.to_string()),
                }
            }
        }
    }
    assert!(scenarios_run >= 200, "suite must cover >= 200 scenarios, ran {scenarios_run}");
    // Every fault class must actually have been exercised by the sweep.
    let (pool, skew, shuffle, cancel, preempt) = fault_coverage;
    assert!(
        pool > 0 && skew > 0 && shuffle > 0 && cancel > 0 && preempt > 0,
        "fault menu under-covered: pool {pool}, skew {skew}, shuffle {shuffle}, cancel {cancel}, \
         preempt {preempt}"
    );
    // Drawing the fault is not enough: some runs must actually have been
    // suspended at a checkpoint and resumed to exact parity.
    assert!(
        resumed > 0,
        "no scenario was actually suspended and resumed ({cancel} drew the fault)"
    );
    // Likewise for forced slice-boundary preemptions.
    assert!(
        preempted > 0,
        "no scenario was actually sliced and preempted ({preempt} drew the fault)"
    );
    assert!(
        failures.is_empty(),
        "{} of {scenarios_run} chaos scenarios failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
