//! End-to-end cluster tests: a 3-worker loopback cluster must produce
//! results bit-identical to the single-process engine — same instance
//! multiset, same counts, same expansion counters, same per-superstep
//! message curves — for every paper distribution strategy, and a run
//! that loses a worker mid-flight must recover to the same answer.

use std::time::Duration;

use psgl_cluster::control::{GraphSpec, JobSpec};
use psgl_cluster::local::{run_local, LocalClusterConfig};
use psgl_cluster::ClusterOutcome;
use psgl_core::{list_subgraphs, ListingResult};
use psgl_service::parse_pattern_spec;

const WORKERS: usize = 3;
const PARTITIONS: usize = 6;
const GRAPH: &str = "gnm:60:300:7";
const STRATEGIES: [&str; 5] = ["random", "roulette", "wa:1", "wa:0", "wa:0.5"];

fn job(pattern: &str, strategy: &str) -> JobSpec {
    JobSpec {
        graph: GRAPH.into(),
        pattern: pattern.into(),
        strategy: strategy.into(),
        partitions: PARTITIONS,
        seed: 42,
        collect_instances: true,
        checkpoint_interval: 0,
        max_supersteps: 64,
    }
}

/// The centralized single-process run the cluster must reproduce.
fn oracle(job: &JobSpec) -> ListingResult {
    let graph = GraphSpec::parse(&job.graph).unwrap().load().unwrap();
    let pattern = parse_pattern_spec(&job.pattern).unwrap();
    let config = job.config().unwrap();
    list_subgraphs(&graph, &pattern, &config).unwrap()
}

fn assert_matches_oracle(outcome: &ClusterOutcome, oracle: &ListingResult, label: &str) {
    assert_eq!(outcome.instance_count, oracle.instance_count, "{label}: instance count diverged");
    assert_eq!(outcome.instances, oracle.instances, "{label}: instance multiset diverged");
    assert_eq!(outcome.stats.expand, oracle.stats.expand, "{label}: expand counters diverged");
    assert_eq!(outcome.stats.supersteps, oracle.stats.supersteps, "{label}: superstep count");
    assert_eq!(
        outcome.stats.messages_out_per_superstep, oracle.stats.messages_out_per_superstep,
        "{label}: messages-out curve diverged"
    );
    assert_eq!(
        outcome.stats.messages_in_per_superstep, oracle.stats.messages_in_per_superstep,
        "{label}: messages-in curve diverged"
    );
    assert_eq!(
        outcome.stats.per_worker_cost, oracle.stats.per_worker_cost,
        "{label}: per-partition cost diverged"
    );
}

#[test]
fn three_workers_match_oracle_on_triangles_for_every_strategy() {
    for strategy in STRATEGIES {
        let job = job("triangle", strategy);
        let expected = oracle(&job);
        let outcome = run_local(LocalClusterConfig::new(WORKERS, job)).unwrap();
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.workers_lost, 0);
        assert_matches_oracle(&outcome, &expected, &format!("triangle/{strategy}"));
        assert!(expected.instance_count > 0, "vacuous test: no triangles in fixture");
    }
}

#[test]
fn three_workers_match_oracle_on_four_cliques_for_every_strategy() {
    for strategy in STRATEGIES {
        let job = job("4-clique", strategy);
        let expected = oracle(&job);
        let outcome = run_local(LocalClusterConfig::new(WORKERS, job)).unwrap();
        assert_matches_oracle(&outcome, &expected, &format!("4-clique/{strategy}"));
        assert!(expected.instance_count > 0, "vacuous test: no 4-cliques in fixture");
    }
}

#[test]
fn killed_worker_recovers_to_identical_results() {
    let mut job = job("triangle", "roulette");
    job.checkpoint_interval = 1;
    let expected = oracle(&job);

    let mut cfg = LocalClusterConfig::new(WORKERS, job);
    // Second spawned worker dies entering superstep 1 — the expansion
    // superstep in which the compiled close kernel finishes triangles.
    cfg.die_at = Some((1, 1));
    cfg.heartbeat_timeout = Duration::from_millis(900);
    let tracer = psgl_obs::Tracer::wall(512);
    cfg.tracer = tracer.clone();
    let outcome = run_local(cfg).unwrap();

    assert_eq!(outcome.attempts, 2, "death at superstep 1 must trigger exactly one recovery");
    assert_eq!(outcome.workers_lost, 1);
    assert_matches_oracle(&outcome, &expected, "triangle/roulette after recovery");

    // The recovery path must narrate itself: every membership transition
    // and the abort/reassign/restart sequence shows up as trace events,
    // in causal order.
    let names: Vec<&str> = tracer.events().iter().map(|e| e.name).collect();
    assert_eq!(
        names.iter().filter(|n| **n == "cluster_member_joined").count(),
        WORKERS,
        "one join event per worker: {names:?}"
    );
    let pos = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("missing event {name}: {names:?}"))
    };
    let first_start = pos("cluster_attempt_started");
    let dead = pos("cluster_member_dead");
    let aborted = pos("cluster_attempt_aborted");
    let reassigned = pos("cluster_partitions_reassigned");
    let done = pos("cluster_job_done");
    assert!(first_start < dead, "attempt starts before the death: {names:?}");
    assert!(dead < aborted, "death precedes the abort: {names:?}");
    assert!(aborted < reassigned, "abort precedes reassignment: {names:?}");
    assert!(reassigned < done, "recovery finishes before the job completes: {names:?}");
    assert_eq!(
        names.iter().filter(|n| **n == "cluster_attempt_started").count(),
        2,
        "initial attempt + one recovery: {names:?}"
    );
    let dead_ev = &tracer.events()[dead];
    assert_eq!(dead_ev.field_u64("attempt"), Some(0));
    assert_eq!(dead_ev.field_u64("alive"), Some(WORKERS as u64 - 1));
    let reassigned_ev = &tracer.events()[reassigned];
    assert_eq!(reassigned_ev.field_u64("attempt"), Some(1));
    assert_eq!(reassigned_ev.field_u64("partitions"), Some(PARTITIONS as u64));
    // The survivors restart from the shards of the barrier before the
    // death, not from scratch: each joins its partitions' one-part
    // checkpoints and restores them.
    assert_eq!(reassigned_ev.field_u64("resume_superstep"), Some(1));
}

/// The coordinator's control port doubles as a metrics endpoint: a
/// one-line `{"verb":"metrics"}` request gets the registry back (JSON
/// or Prometheus text) without joining the cluster. With a linger the
/// endpoint stays up after the job finishes, which is how the CI smoke
/// test scrapes the final counters.
#[test]
fn coordinator_serves_metrics_scrape_on_control_port() {
    use psgl_cluster::{run_cluster, run_worker, ClusterConfig, WorkerOptions};
    use psgl_service::wire::{read_json, write_json, MAX_LINE_BYTES};
    use psgl_service::Json;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut cfg = ClusterConfig::new(WORKERS, job("triangle", "roulette"));
    cfg.linger = Duration::from_secs(2);
    let coord = std::thread::spawn(move || run_cluster(listener, cfg));
    let worker_handles: Vec<_> = (0..WORKERS)
        .map(|_| {
            let target = addr.to_string();
            std::thread::spawn(move || run_worker(&target, WorkerOptions::default()))
        })
        .collect();
    for handle in worker_handles {
        let _ = handle.join();
    }

    // Workers are done; the coordinator is lingering. Scrape JSON.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_json(&mut writer, &Json::obj([("verb", Json::from("metrics"))])).unwrap();
    let reply = read_json(&mut reader, MAX_LINE_BYTES).unwrap().expect("scrape reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let metrics = reply.get("metrics").and_then(Json::as_arr).expect("metrics array");
    let scalar = |name: &str| {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing series {name}"))
    };
    assert!(scalar("psgl_cluster_workers_joined") >= WORKERS as u64);
    assert!(scalar("psgl_cluster_supersteps") > 0);
    assert!(scalar("psgl_cluster_instances") > 0);

    // And again as Prometheus text.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_json(
        &mut writer,
        &Json::obj([("verb", Json::from("metrics")), ("format", Json::from("prometheus"))]),
    )
    .unwrap();
    let reply = read_json(&mut reader, MAX_LINE_BYTES).unwrap().expect("prometheus reply");
    let body = reply.get("body").and_then(Json::as_str).expect("exposition body");
    assert!(body.contains("# TYPE psgl_cluster_supersteps counter"), "{body}");
    assert!(body.contains("psgl_cluster_workers_joined"), "{body}");

    let outcome = coord.join().unwrap().unwrap();
    assert!(outcome.instance_count > 0);
}

#[test]
fn checkpointing_run_without_failure_still_matches_oracle() {
    let mut job = job("triangle", "wa:0.5");
    job.checkpoint_interval = 1;
    let expected = oracle(&job);
    let outcome = run_local(LocalClusterConfig::new(WORKERS, job)).unwrap();
    assert_eq!(outcome.attempts, 1);
    assert_matches_oracle(&outcome, &expected, "triangle/wa:0.5 with checkpoints");
}
