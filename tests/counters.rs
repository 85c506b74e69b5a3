//! Every counter is declared once (`psgl_obs::counters!`) and every format
//! that carries counters is a loop over that table. This test takes the
//! counters of a real run through each derived format and back.

use psgl::bsp::{CarriedCounters, EngineMetrics, NetSuperstepMetrics, WorkerSuperstepMetrics};
use psgl::cluster::control::WorkerMsg;
use psgl::core::{
    assemble_run_stats, run, Checkpoint, ExpandStats, ListingEnd, PsglConfig, PsglShared,
    RunRequest, Stop,
};
use psgl::graph::fixtures;
use psgl::pattern::catalog;
use psgl::service::Json;
use psgl::sim::fingerprint::fingerprint_stats;

/// Declaration order is a wire format: the checkpoint payload, the cluster
/// control arrays and the replay fingerprints are positional. Naming the
/// fields here (the one place outside the tables that does) catches a row
/// inserted or moved in the middle of a table; appending one keeps this
/// test green (hence the struct updates that today fill nothing) and moves
/// only the length-sensitive golden pins.
#[test]
#[allow(clippy::needless_update)]
fn declaration_order_is_the_pinned_wire_order() {
    let expand = ExpandStats {
        expanded: 1,
        generated: 2,
        results: 3,
        pruned_injectivity: 4,
        pruned_degree: 5,
        pruned_order: 6,
        pruned_connectivity: 7,
        pruned_label: 8,
        died_gray_check: 9,
        died_no_candidates: 10,
        combinations_examined: 11,
        index_probes: 12,
        cost: 13,
        kernel_close: 14,
        kernel_twohop: 15,
        cmap_probes: 16,
        cmap_hits: 17,
        intersect_gallop: 18,
        intersect_probe: 19,
        ..Default::default()
    };
    assert_eq!(expand.to_array()[..19], std::array::from_fn::<u64, 19, _>(|i| i as u64 + 1));
    let worker = WorkerSuperstepMetrics {
        active_vertices: 1,
        messages_in: 2,
        messages_out: 3,
        local_delivered: 4,
        bytes_exchanged: 5,
        cost: 6,
        elapsed_nanos: 7,
        ..Default::default()
    };
    assert_eq!(worker.to_array()[..7], [1, 2, 3, 4, 5, 6, 7]);
    let net = NetSuperstepMetrics {
        frames_sent: 1,
        frames_received: 2,
        wire_bytes_sent: 3,
        wire_bytes_received: 4,
        barrier_wait_nanos: 5,
        exchange_nanos: 6,
        ..Default::default()
    };
    assert_eq!(net.to_array()[..6], [1, 2, 3, 4, 5, 6]);
    let carried = CarriedCounters {
        pool_exhausted: 1,
        spill_chunks: 2,
        spill_bytes: 3,
        spill_stall_nanos: 4,
        readmitted_chunks: 5,
        spill_write_failures: 6,
        chunks_live_peak: 7,
        ..Default::default()
    };
    assert_eq!(carried.to_array()[..7], [1, 2, 3, 4, 5, 6, 7]);
}

fn through_json(msg: &WorkerMsg) -> WorkerMsg {
    let line = msg.to_json().to_string();
    WorkerMsg::from_json(&Json::parse(&line).expect("rendered line parses")).expect("decodes")
}

#[test]
fn a_real_runs_counters_survive_every_derived_format() {
    // Two supersteps of a level-by-level (kernels off) triangle listing on
    // the karate club, cut at the barrier: the checkpoint holds real expansion counters per worker and
    // real per-superstep worker metrics.
    let graph = fixtures::karate_club();
    let config = PsglConfig::with_workers(2).collect(true).kernels(false);
    let shared = PsglShared::prepare(&graph, &catalog::triangle(), &config).unwrap();
    let stop = Stop { checkpoint: true, slice: Some(2), ..Default::default() };
    let (partial, cp) = match run(&shared, &config, RunRequest { stop, ..Default::default() }) {
        Ok(ListingEnd::Preempted { partial, checkpoint, .. }) => (partial, *checkpoint),
        _ => panic!("a level-by-level triangle listing takes more than two supersteps"),
    };
    assert_eq!(cp.prior_supersteps.len(), 2);
    assert!(cp.parts.iter().all(|p| p.worker.stats.expanded > 0), "the prefix did real work");
    let before = fingerprint_stats(&partial.stats);

    // Checkpoint bytes, whole and one part (a cluster shard) at a time.
    let decoded = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
    assert_eq!(decoded, cp);
    for part in &cp.parts {
        let shard = Checkpoint {
            carried: Default::default(),
            prior_supersteps: Vec::new(),
            parts: vec![part.clone()],
            ..cp.clone()
        };
        assert_eq!(Checkpoint::from_bytes(&shard.to_bytes()).unwrap(), shard);
    }

    // Cluster control lines: one `barrier` per superstep, one `done`.
    let mut supersteps = Vec::new();
    for (s, step) in cp.prior_supersteps.iter().enumerate() {
        let barrier = WorkerMsg::Barrier {
            attempt: 0,
            superstep: s as u32,
            partitions: (0..step.workers.len() as u32).collect(),
            metrics: step.workers.clone(),
        };
        let WorkerMsg::Barrier { metrics, .. } = through_json(&barrier) else { unreachable!() };
        assert_eq!(metrics, step.workers);
        supersteps.push(psgl::bsp::SuperstepMetrics { workers: metrics, ..step.clone() });
    }
    let mut expand = ExpandStats::default();
    for part in &cp.parts {
        expand.merge(&part.worker.stats);
    }
    let done = WorkerMsg::Done {
        attempt: 0,
        expand,
        instances: None,
        supersteps: cp.superstep,
        net: cp.prior_supersteps.iter().enumerate().map(|(s, m)| (s as u32, m.net)).collect(),
        pool_exhausted: cp.carried.pool_exhausted,
        chunks_outstanding: 0,
    };
    let decoded_done = through_json(&done);
    assert_eq!(decoded_done, done);
    let WorkerMsg::Done { expand: wired, .. } = decoded_done else { unreachable!() };

    // The stats rebuilt from what crossed the wire fingerprint like the
    // stats the run itself reported.
    let metrics = EngineMetrics { supersteps, carried: decoded.carried, ..Default::default() };
    let rebuilt = assemble_run_stats(wired, &metrics);
    assert_eq!(rebuilt.expand, partial.stats.expand);
    assert_eq!(fingerprint_stats(&rebuilt), before);
}
