//! The paper's mechanisms, checked at a small scale with kernels off.
//!
//! The closing kernels finish most instances in place, so with them on
//! the distribution strategies of Algorithm 3 have little left to place,
//! and a default that hides a paper mechanism shows up only as a flat
//! figure. These tests run the paper's Algorithm 1 (`kernels(false)`) on
//! the experiment binaries' stand-in datasets and hold the shape the
//! paper reports.

use psgl::core::{list_subgraphs_prepared, PsglConfig, PsglShared, Strategy};
use psgl::pattern::catalog;
use psgl_bench::datasets;

/// Figure 3 on the three skewed PG2 cases: workload-aware placement with
/// α = 0.5 gives a smaller simulated makespan and a smaller cost
/// imbalance than both Random and Roulette (Section 7.2). The test holds
/// only the order; at scale 0.1 the measured makespan margin is at least
/// 15 % in every case.
#[test]
fn workload_aware_placement_beats_random_and_roulette_on_squares() {
    let scale = 0.1;
    let pattern = catalog::square();
    for ds in [datasets::webgoogle(scale), datasets::wikitalk(scale), datasets::uspatent(scale)] {
        let config = PsglConfig::with_workers(8).kernels(false);
        let shared = PsglShared::prepare(&ds.graph, &pattern, &config).unwrap();
        let run = |strategy: Strategy| {
            let stats =
                list_subgraphs_prepared(&shared, &config.clone().strategy(strategy)).unwrap().stats;
            (stats.simulated_makespan, stats.cost_imbalance)
        };
        let (wa_makespan, wa_imbalance) = run(Strategy::WorkloadAware { alpha: 0.5 });
        for (name, strategy) in
            [("Random", Strategy::Random), ("Roulette", Strategy::RouletteWheel)]
        {
            let (makespan, imbalance) = run(strategy);
            assert!(
                wa_makespan < makespan,
                "{}: (WA,0.5) makespan {wa_makespan} is not below {name}'s {makespan}",
                ds.name
            );
            assert!(
                wa_imbalance < imbalance,
                "{}: (WA,0.5) imbalance {wa_imbalance:.3} is not below {name}'s {imbalance:.3}",
                ds.name
            );
        }
    }
}

/// Figure 5 on WikiTalk~ with 13 workers: workload-aware placement with
/// α = 0.5 leaves the slowest worker closer to the mean (a smaller
/// max/mean of the per-worker Eq. 2 cost) than both Random and Roulette.
#[test]
fn workload_aware_placement_balances_the_workers_of_figure_5() {
    let ds = datasets::wikitalk(0.1);
    let config = PsglConfig::with_workers(13).kernels(false);
    let shared = PsglShared::prepare(&ds.graph, &catalog::square(), &config).unwrap();
    let max_over_mean = |strategy: Strategy| {
        let costs = list_subgraphs_prepared(&shared, &config.clone().strategy(strategy))
            .unwrap()
            .stats
            .per_worker_cost;
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        *costs.iter().max().unwrap() as f64 / mean
    };
    let wa = max_over_mean(Strategy::WorkloadAware { alpha: 0.5 });
    for (name, strategy) in [("Random", Strategy::Random), ("Roulette", Strategy::RouletteWheel)] {
        let other = max_over_mean(strategy);
        assert!(wa < other, "(WA,0.5) max/mean {wa:.3} is not below {name}'s {other:.3}");
    }
}

/// Table 2, PG1 on LiveJournal~ from v1: the light-weight edge index
/// prunes at least half of the Gpsis the run generates without it (the
/// paper reports 58 %).
#[test]
fn the_edge_index_prunes_half_the_triangle_gpsis_of_table_2() {
    let ds = datasets::livejournal(0.1);
    let pattern = catalog::triangle();
    let generated = |use_index: bool| {
        let config =
            PsglConfig::with_workers(8).init_vertex(0).edge_index(use_index).kernels(false);
        let shared = PsglShared::prepare(&ds.graph, &pattern, &config).unwrap();
        list_subgraphs_prepared(&shared, &config).unwrap().stats.expand.generated
    };
    let (with, without) = (generated(true), generated(false));
    let pruned = without.saturating_sub(with) as f64 / without as f64;
    assert!(pruned >= 0.5, "the index prunes {:.1} % of {without} Gpsis", 100.0 * pruned);
}
