//! BENCH_spill — out-of-core execution: price and coverage of the disk
//! spill tier.
//!
//! Not a paper artifact: this guards the memory-bounded execution path in
//! two gated phases.
//!
//! 1. **Engine**: a square listing on a Chung-Lu power-law graph runs
//!    uncapped to record its natural live-chunk peak, then re-runs with
//!    the live-chunk cap clamped to <= 25% of that peak and a spill tier
//!    in the system temp directory. The capped run must produce the same
//!    instance count while demonstrably evicting and re-admitting chunks,
//!    and its wall-time slowdown feeds `slowdown`, which CI holds against
//!    `gate_max_slowdown` (3x).
//! 2. **Service**: a one-worker, one-queue-slot, memory-tight server with
//!    spill defaults takes two giant queries (occupying the worker and
//!    the only queue slot) and then a third — the request a seed server
//!    answers with `overloaded`. It must instead be admitted as a
//!    degraded memory-bounded run and answered with the same count;
//!    `served_giant_degraded` gates that in CI.
//!
//! Results go to `results/BENCH_spill.json`. `PSGL_SCALE` scales the
//! graph and the timing repetitions.

use psgl_bench::report;
use psgl_core::{list_subgraphs_prepared_with, PsglConfig, PsglShared, RunnerHooks, SpillConfig};
use psgl_graph::generators::chung_lu;
use psgl_graph::io;
use psgl_pattern::catalog;
use psgl_service::{serve, Client, Json, QueryDefaults, ServiceConfig};
use std::time::Instant;

/// CI gate: the capped, spilling run may be at most this much slower than
/// the uncapped run of the same listing.
const GATE_MAX_SLOWDOWN: f64 = 3.0;

/// Chunk granularity for both lanes: fine enough that the frontier spans
/// many chunks and a 25% cap leaves real eviction work.
const CHUNK_CAPACITY: usize = 64;

fn main() {
    let scale: f64 = std::env::var("PSGL_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    report::banner(
        "BENCH_spill",
        "memory-bounded execution: capped + spilling runs vs uncapped",
        scale,
        [],
    );

    // ---- Phase 1: engine, uncapped vs capped-to-25%-of-peak ----
    let vertices = ((1_500.0 * scale) as usize).max(400);
    let graph = chung_lu(vertices, 8.0, 2.2, 5).expect("generate chung-lu");
    let pattern = catalog::square();
    let config = PsglConfig::with_workers(4);
    let shared = PsglShared::prepare(&graph, &pattern, &config).expect("prepare");
    let reps = ((5.0 * scale).round() as usize).max(3);

    let base_hooks = RunnerHooks { chunk_capacity: Some(CHUNK_CAPACITY), ..Default::default() };
    // Warm-up run establishes the peak and the reference count.
    let base = list_subgraphs_prepared_with(&shared, &config, &base_hooks).expect("uncapped run");
    let peak = base.stats.chunks_live_peak;
    assert!(peak > 4, "uncapped peak {peak} leaves no room to cap");
    let cap = ((peak / 4).max(1)) as u64;
    let capped_hooks = RunnerHooks {
        chunk_capacity: Some(CHUNK_CAPACITY),
        max_live_chunks: Some(cap),
        spill: Some(SpillConfig::in_temp()),
        ..Default::default()
    };
    let capped = list_subgraphs_prepared_with(&shared, &config, &capped_hooks).expect("capped run");
    assert_eq!(capped.instance_count, base.instance_count, "capped run changed the answer");
    assert!(capped.stats.spill_chunks > 0, "capped run never touched the disk");
    assert_eq!(
        capped.stats.readmitted_chunks, capped.stats.spill_chunks,
        "complete runs re-admit everything they spill"
    );

    // Interleaved min-over-reps timing: both lanes see the same noise
    // windows and keep only their best rep.
    let (mut best_uncapped, mut best_capped) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        let r = list_subgraphs_prepared_with(&shared, &config, &base_hooks).expect("uncapped run");
        best_uncapped = best_uncapped.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.instance_count, base.instance_count);
        let start = Instant::now();
        let r = list_subgraphs_prepared_with(&shared, &config, &capped_hooks).expect("capped run");
        best_capped = best_capped.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.instance_count, base.instance_count);
    }
    let slowdown = best_capped / best_uncapped;

    let table = report::Table::new(&[("metric", 24), ("uncapped", 12), ("capped", 12)]);
    table.row(&[
        "instances".into(),
        base.instance_count.to_string(),
        capped.instance_count.to_string(),
    ]);
    table.row(&[
        "chunks live peak".into(),
        peak.to_string(),
        capped.stats.chunks_live_peak.to_string(),
    ]);
    table.row(&["live-chunk cap".into(), "-".into(), cap.to_string()]);
    table.row(&["best wall ms".into(), format!("{best_uncapped:.1}"), format!("{best_capped:.1}")]);
    table.row(&["spill chunks".into(), "0".into(), capped.stats.spill_chunks.to_string()]);
    table.row(&["spill bytes".into(), "0".into(), capped.stats.spill_bytes.to_string()]);
    table.row(&["spill stall ms".into(), "0".into(), capped.stats.spill_stall_ms.to_string()]);
    println!(
        "shape: identical counts; slowdown {slowdown:.2}x must stay <= {GATE_MAX_SLOWDOWN}x \
         while <= 25% of the peak stays resident"
    );

    // ---- Phase 2: service serves the formerly-overloaded giant ----
    let dir = std::env::temp_dir().join("psgl_bench_spill");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chung_lu.txt");
    io::save_edge_list(&graph, path.to_str().unwrap()).expect("save graph");
    let service_config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool: 1,
        queue_cap: 1,
        result_cache_cap: 8,
        plan_cache_cap: 8,
        defaults: QueryDefaults {
            max_live_chunks: Some(cap.max(4)),
            chunk_capacity: Some(CHUNK_CAPACITY),
            spill: Some(SpillConfig::in_temp()),
            ..QueryDefaults::default()
        },
        list_chunk: 256,
        slice_supersteps: 2,
    };
    let handle = serve(service_config).expect("bind loopback");
    let addr = handle.addr();
    let mut admin = Client::connect(addr).expect("connect");
    admin.load("bench", path.to_str().unwrap(), "edge-list").expect("load");

    // The service giant is the heaviest catalog scan (the 5-vertex
    // house, as in BENCH_service): it must hold the lone worker for long
    // enough that the admission races below are observable.
    let giant_request = || {
        Json::obj([
            ("verb", Json::from("count")),
            ("graph", Json::from("bench")),
            ("pattern", Json::from("house")),
            ("no_cache", Json::from(true)),
        ])
    };
    let occupant = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("occupant connect");
        c.request(&giant_request()).expect("occupant query")
    });
    // Wait until the first giant owns the only worker, then fill the only
    // queue slot with the second. A giant that finishes before it is ever
    // observed would make the admission race meaningless, so fail loudly
    // instead of spinning.
    while admin
        .stats()
        .ok()
        .and_then(|s| s.get("server").and_then(|v| v.get("running")).and_then(Json::as_u64))
        .unwrap_or(0)
        == 0
    {
        assert!(!occupant.is_finished(), "giant finished before occupying the worker");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("queued connect");
        c.request(&giant_request()).expect("queued query")
    });
    while admin
        .stats()
        .ok()
        .and_then(|s| s.get("server").and_then(|v| v.get("queue_depth")).and_then(Json::as_u64))
        .unwrap_or(0)
        == 0
    {
        assert!(!queued.is_finished(), "second giant finished before filling the queue");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // The queue is full: a seed server answers this one with `overloaded`.
    let degraded_start = Instant::now();
    let degraded_outcome = admin.request(&giant_request());
    let degraded_ms = degraded_start.elapsed().as_secs_f64() * 1e3;
    let occupant_count = occupant
        .join()
        .expect("occupant thread")
        .get("count")
        .and_then(Json::as_u64)
        .expect("occupant count");
    let queued_count = queued
        .join()
        .expect("queued thread")
        .get("count")
        .and_then(Json::as_u64)
        .expect("queued count");
    let served_giant_degraded = matches!(
        &degraded_outcome,
        Ok(reply) if reply.get("count").and_then(Json::as_u64) == Some(occupant_count)
    );
    assert!(
        served_giant_degraded,
        "full-queue giant must be served via spill, got {degraded_outcome:?}"
    );
    assert_eq!(queued_count, occupant_count, "giants disagree on the count");

    let stats = admin.stats().expect("stats");
    let server = stats.get("server").unwrap();
    let field = |key: &str| server.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (degraded_to_spill, service_spill_chunks) =
        (field("degraded_to_spill"), field("spill_chunks"));
    let rejected_overloaded = field("rejected_overloaded");
    admin.shutdown().expect("shutdown");
    handle.wait();

    let sv_table = report::Table::new(&[("metric", 24), ("value", 12)]);
    sv_table.row(&["giant count".into(), occupant_count.to_string()]);
    sv_table.row(&["degraded wall ms".into(), format!("{degraded_ms:.0}")]);
    sv_table.row(&["degraded_to_spill".into(), degraded_to_spill.to_string()]);
    sv_table.row(&["service spill chunks".into(), service_spill_chunks.to_string()]);
    sv_table.row(&["rejected_overloaded".into(), rejected_overloaded.to_string()]);
    println!("shape: three concurrent giants on a one-slot server, zero overloaded");

    let body = Json::obj([
        ("experiment", Json::from("spill")),
        ("scale", Json::from(scale)),
        (
            "gate",
            Json::from(
                "slowdown must stay <= gate_max_slowdown and served_giant_degraded must be true",
            ),
        ),
        ("gate_max_slowdown", Json::from(GATE_MAX_SLOWDOWN)),
        (
            "engine",
            Json::obj([
                ("vertices", Json::from(vertices)),
                ("pattern", Json::from("square")),
                ("instances", Json::from(base.instance_count)),
                ("chunk_capacity", Json::from(CHUNK_CAPACITY)),
                ("chunks_live_peak_uncapped", Json::from(peak.max(0) as u64)),
                ("live_chunk_cap", Json::from(cap)),
                ("reps", Json::from(reps)),
                ("uncapped_ms", Json::from(best_uncapped)),
                ("capped_ms", Json::from(best_capped)),
                ("spill_chunks", Json::from(capped.stats.spill_chunks)),
                ("spill_bytes", Json::from(capped.stats.spill_bytes)),
                ("spill_stall_ms", Json::from(capped.stats.spill_stall_ms)),
                ("readmitted_chunks", Json::from(capped.stats.readmitted_chunks)),
            ]),
        ),
        (
            "service",
            Json::obj([
                ("pool", Json::from(1u64)),
                ("queue_cap", Json::from(1u64)),
                ("giant_count", Json::from(occupant_count)),
                ("degraded_wall_ms", Json::from(degraded_ms)),
                ("degraded_to_spill", Json::from(degraded_to_spill)),
                ("spill_chunks", Json::from(service_spill_chunks)),
                ("rejected_overloaded", Json::from(rejected_overloaded)),
            ]),
        ),
        ("slowdown", Json::from(slowdown)),
        ("served_giant_degraded", Json::from(served_giant_degraded)),
    ]);
    report::write_json_report("results/BENCH_spill.json", &body).expect("write report");
}
