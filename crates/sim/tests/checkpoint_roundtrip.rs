//! Checkpoint round-trip property test: over random G(n, p) graphs, a run
//! suspended at a random superstep and resumed from its serialized
//! checkpoint must list *exactly* the instances the uninterrupted run
//! lists — no duplicates from replaying delivered work, no losses from
//! dropping the undelivered frontier.

use psgl_core::runner::ListingResult;
use psgl_core::{
    run, CancelToken, Checkpoint, ListingEnd, PsglConfig, PsglShared, RunRequest, Start, Stop,
    Strategy,
};
use psgl_graph::generators::erdos_renyi_gnp;
use psgl_sim::chaos::chaos_patterns;

/// splitmix64 — the property draws' only randomness source, so every
/// trial is replayable from the fixed base seed below.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sorted_instances(result: &ListingResult) -> Vec<Vec<u32>> {
    let mut instances = result.instances.clone().expect("collect mode retains instances");
    instances.sort_unstable();
    instances
}

#[test]
fn random_graphs_cancelled_at_random_supersteps_resume_without_dups_or_losses() {
    let mut state = 0x00C0_FFEE_u64;
    let mut suspended_trials = 0u32;
    for trial in 0..24u32 {
        // Random G(n, p) with an average degree around 4–8 so patterns
        // actually occur but the oracle-free comparison stays fast.
        let n = 24 + (splitmix64(&mut state) % 48) as usize;
        let p = (4.0 + (splitmix64(&mut state) % 5) as f64) / n as f64;
        let graph_seed = splitmix64(&mut state);
        let graph = erdos_renyi_gnp(n, p, graph_seed).expect("valid G(n, p) parameters");
        let patterns = chaos_patterns();
        let pattern = &patterns[(splitmix64(&mut state) % patterns.len() as u64) as usize];
        let workers = 2 + (splitmix64(&mut state) % 4) as usize;
        let cancel_at = 1 + (splitmix64(&mut state) % 3) as u32;
        // Half the trials run the generic odometer: compiled kernels close
        // runs in fewer supersteps, so generic trials keep the suspension
        // rate up while kernel trials cover checkpointing the kernel path.
        let kernels = splitmix64(&mut state).is_multiple_of(2);
        let config = PsglConfig::with_workers(workers)
            .strategy(Strategy::paper_variants()[(splitmix64(&mut state) % 5) as usize].1)
            .seed(splitmix64(&mut state))
            .collect(true)
            .kernels(kernels);
        let context = format!("trial {trial}: G({n}, {p:.3}) seed {graph_seed}, {} workers {workers}, cancel at {cancel_at}, kernels {kernels}", pattern.name());

        let shared = PsglShared::prepare(&graph, pattern, &config).expect("prepare");
        let uninterrupted = run(&shared, &config, RunRequest::default())
            .unwrap_or_else(|e| panic!("{context}: {e}"))
            .completed();

        let token = CancelToken::with_superstep_deadline(cancel_at);
        let stop = Stop { cancel: Some(&token), checkpoint: true, slice: None };
        let resumed = match run(&shared, &config, RunRequest { stop, ..Default::default() })
            .unwrap_or_else(|e| panic!("{context}: {e}"))
        {
            ListingEnd::Complete(r) => r, // finished before the deadline
            ListingEnd::Preempted { .. } => unreachable!("the run is not sliced"),
            ListingEnd::Cancelled(c) => {
                suspended_trials += 1;
                assert_eq!(c.superstep, cancel_at, "{context}: wrong resume superstep");
                assert_eq!(
                    c.partial.stats.chunks_outstanding, 0,
                    "{context}: chunks leaked across the suspension"
                );
                let bytes = c.checkpoint.expect("soft cancel with checkpoint").to_bytes();
                let checkpoint =
                    Checkpoint::from_bytes(&bytes).unwrap_or_else(|e| panic!("{context}: {e}"));
                let start = Start::Checkpoint(checkpoint);
                run(&shared, &config, RunRequest { start, ..Default::default() })
                    .unwrap_or_else(|e| panic!("{context}: {e}"))
                    .completed()
            }
        };

        // Exact multiset parity: sorting makes duplicates adjacent and
        // equality catches both replayed (dup) and dropped (lost) work.
        let want = sorted_instances(&uninterrupted);
        let got = sorted_instances(&resumed);
        assert_eq!(got.len() as u64, resumed.instance_count, "{context}: count/instances skew");
        assert_eq!(
            got, want,
            "{context}: resumed run listed different instances than the uninterrupted run"
        );
        assert!(got.windows(2).all(|w| w[0] != w[1]), "{context}: duplicate instance");
    }
    // The property is vacuous if no trial was actually suspended.
    assert!(suspended_trials >= 8, "only {suspended_trials}/24 trials suspended");
}
