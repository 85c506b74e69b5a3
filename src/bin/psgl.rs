//! `psgl` — command-line interface to the subgraph-listing toolkit.
//!
//! ```text
//! psgl count    --graph g.txt --pattern square [--workers 8] [--strategy wa:0.5]
//!               [--init-vertex 1] [--no-index] [--per-vertex] [--seed 42]
//! psgl stats    --graph g.txt
//! psgl generate --out g.txt --model chung-lu --vertices 100000 --avg-degree 8 --gamma 2.1
//! psgl patterns
//! ```
//!
//! `--graph` reads a SNAP-format edge list; `--pattern` accepts a catalog
//! name (`triangle`, `square`, `tailed-triangle`, `4-clique`, `house`,
//! `cycle:K`, `clique:K`, `path:K`, `star:K`) or explicit 1-based edges
//! (`"1-2,2-3,3-1"`).

use psgl::baselines::centralized;
use psgl::cluster::{run_cluster, run_worker, ClusterConfig, GraphSpec, JobSpec, WorkerOptions};
use psgl::core::{run, Harvest, PsglConfig, PsglShared, RunRequest, RunnerHooks, SpillConfig};
use psgl::graph::{algo, generators, io, DataGraph, DegreeStats};
use psgl::pattern::{break_automorphisms, catalog};
use psgl::service::{self, GraphFormat, Json, QueryDefaults, ServiceConfig};
use std::collections::HashMap;
use std::process::ExitCode;

// The pattern/strategy mini-language is owned by the service crate so the
// CLI and the wire protocol accept exactly the same specs.
use psgl::service::{parse_pattern_spec as parse_pattern, parse_strategy_spec as parse_strategy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "count" => cmd_count(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "patterns" => cmd_patterns(),
        "serve" => cmd_serve(&args[1..]),
        "mutate" => cmd_mutate(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "cluster" => cmd_cluster(&args[1..]),
        "obs" => cmd_obs(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
psgl — parallel subgraph listing (PSgL, SIGMOD 2014)

USAGE:
  psgl count    --graph FILE --pattern P [--workers N] [--strategy S]
                [--init-vertex V] [--no-index] [--no-break] [--per-vertex]
                [--seed N] [--verify] [--max-live-chunks N]
                [--chunk-capacity N] [--spill] [--spill-dir DIR]
  psgl stats    --graph FILE
  psgl generate --out FILE --model MODEL --vertices N
                [--avg-degree D] [--gamma G] [--edges M] [--seed N]
  psgl patterns
  psgl serve    [--addr HOST:PORT] [--pool N] [--queue-cap N]
                [--result-cache N] [--plan-cache N] [--workers N]
                [--budget N] [--chunk N] [--slice N] [--max-live-chunks N]
                [--chunk-capacity N] [--spill] [--spill-dir DIR]
  psgl mutate   --addr HOST:PORT --name GRAPH [--insert \"0-1,2-3\"]
                [--delete \"4-5\"]
  psgl watch    --addr HOST:PORT --name GRAPH --pattern P [--events N]
  psgl cluster coordinator --workers N --graph SPEC --pattern P
                [--partitions K] [--strategy S] [--seed N] [--collect]
                [--checkpoint-interval C] [--max-supersteps M]
                [--listen HOST:PORT] [--heartbeat-ms MS] [--deadline-ms MS]
  psgl cluster worker --join HOST:PORT
  psgl obs scrape  --addr HOST:PORT [--format prometheus]
  psgl obs dump    [--out FILE]

PATTERNS: triangle | square | tailed-triangle | 4-clique | house
          | cycle:K | clique:K | path:K | star:K | \"1-2,2-3,3-1\"
STRATEGY: random | roulette | wa:ALPHA            (default wa:0.5)
MODEL:    chung-lu | erdos-renyi | barabasi-albert
FORMAT:   edge-list | binary | fixture             (--format, default edge-list)
SPEC:     gnm:N:M:SEED | chung-lu:N:AVG:GAMMA:SEED | fixture:NAME
          | file:PATH[:FORMAT]                     (cluster graph spec)

serve speaks a JSON-lines protocol over TCP; see README \"Running as a
service\" (verbs: load, mutate, count, list, subscribe, cancel, stats,
metrics, health, shutdown). mutate applies an edge batch to a live
graph; watch subscribes and prints each signed instance delta as it
lands. cluster runs one coordinator and N worker processes; the
coordinator prints a JSON result line when the job completes (README
\"Running a cluster\"); --linger-ms keeps its control port up after the
job so `psgl obs scrape` can collect the final metrics.
obs scrape sends one `metrics` request to a service or coordinator
control port and prints the reply (with --format prometheus, the raw
exposition text). obs dump writes this process's flight-recorder ring
as JSON to stdout or --out FILE (see README \"Operating the service\").
--spill enables the disk spill tier (system temp dir, or --spill-dir);
--max-live-chunks caps resident message chunks and evicts the excess to
it — see README \"Graphs larger than RAM\".";

/// Parses `--key value` pairs (plus boolean flags) into a map.
fn parse_flags(args: &[String], booleans: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key:?}"));
        };
        if booleans.contains(&name) {
            map.insert(name.to_string(), "true".to_string());
        } else {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
    }
    Ok(map)
}

fn required<'m>(flags: &'m HashMap<String, String>, name: &str) -> Result<&'m str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("--{name} is required"))
}

/// Loads `--graph` in `--format` (default edge-list) through the same
/// loader — and therefore the same error type — as the service's `load`
/// verb, so a missing or malformed file is a diagnostic, not a panic.
fn load_graph(flags: &HashMap<String, String>) -> Result<DataGraph, String> {
    let path = required(flags, "graph")?;
    let format = match flags.get("format") {
        Some(f) => GraphFormat::parse(f)?,
        None => GraphFormat::EdgeList,
    };
    service::load_graph(path, format).map_err(|e| e.to_string())
}

/// The (`max_live_chunks`, `chunk_capacity`, spill tier) triple shared
/// by `count` and `serve`.
type SpillKnobs = (Option<u64>, Option<usize>, Option<SpillConfig>);

/// Parses the shared memory-bounding knobs (`--max-live-chunks`,
/// `--chunk-capacity`, `--spill`, `--spill-dir`) used by both `count` and
/// `serve`; see README "Graphs larger than RAM".
fn parse_spill_knobs(flags: &HashMap<String, String>) -> Result<SpillKnobs, String> {
    let max_live_chunks = flags
        .get("max-live-chunks")
        .map(|s| s.parse().map_err(|e| format!("bad --max-live-chunks: {e}")))
        .transpose()?;
    let chunk_capacity = flags
        .get("chunk-capacity")
        .map(|s| s.parse().map_err(|e| format!("bad --chunk-capacity: {e}")))
        .transpose()?;
    let spill = if flags.contains_key("spill") || flags.contains_key("spill-dir") {
        Some(SpillConfig {
            dir: flags.get("spill-dir").map(std::path::PathBuf::from),
            ..SpillConfig::in_temp()
        })
    } else {
        None
    };
    if max_live_chunks.is_some() && spill.is_none() {
        return Err("--max-live-chunks needs a spill tier: add --spill [--spill-dir DIR]".into());
    }
    Ok((max_live_chunks, chunk_capacity, spill))
}

fn cmd_count(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["no-index", "no-break", "per-vertex", "verify", "spill"])?;
    let graph = load_graph(&flags)?;
    let pattern = parse_pattern(required(&flags, "pattern")?)?;
    let mut config = PsglConfig::default();
    if let Some(w) = flags.get("workers") {
        config.workers = w.parse().map_err(|e| format!("bad --workers: {e}"))?;
    }
    if let Some(s) = flags.get("strategy") {
        config.strategy = parse_strategy(s)?;
    }
    if let Some(v) = flags.get("init-vertex") {
        let v: u8 = v.parse().map_err(|e| format!("bad --init-vertex: {e}"))?;
        if v == 0 {
            return Err("--init-vertex is 1-based".into());
        }
        config.init_vertex = Some(v - 1);
    }
    if let Some(s) = flags.get("seed") {
        config.seed = s.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    config.use_edge_index = !flags.contains_key("no-index");
    config.break_automorphisms = !flags.contains_key("no-break");
    let (max_live_chunks, chunk_capacity, spill) = parse_spill_knobs(&flags)?;
    println!(
        "graph: {} vertices, {} edges; pattern: {pattern}; {} workers",
        graph.num_vertices(),
        graph.num_edges(),
        config.workers
    );
    let hooks = RunnerHooks { max_live_chunks, chunk_capacity, spill, ..RunnerHooks::default() };
    let harvest =
        if flags.contains_key("per-vertex") { Harvest::PerVertex } else { Harvest::Listing };
    let shared = PsglShared::prepare(&graph, &pattern, &config).map_err(|e| e.to_string())?;
    let result = run(&shared, &config, RunRequest { hooks, harvest, ..Default::default() })
        .map_err(|e| e.to_string())?
        .completed();
    if let Some(counts) = &result.per_vertex {
        println!("instances: {}", result.instance_count);
        println!("vertex\tcount");
        for (v, c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            println!("{v}\t{c}");
        }
        return Ok(());
    }
    println!("instances          : {}", result.instance_count);
    println!("supersteps         : {}", result.stats.supersteps);
    println!("gpsis generated    : {}", result.stats.expand.generated);
    println!("pruned candidates  : {}", result.stats.expand.total_pruned());
    println!("simulated makespan : {} cost units", result.stats.simulated_makespan);
    println!("cost imbalance     : {:.3}", result.stats.cost_imbalance);
    println!("wall time          : {:.1?}", result.stats.wall_time);
    println!("initial vertex     : v{} ({:?})", result.init_vertex + 1, result.selection_rule);
    if result.stats.spill_chunks > 0 {
        println!(
            "spilled to disk    : {} chunk(s), {} bytes, {} re-admitted (peak {} chunks live)",
            result.stats.spill_chunks,
            result.stats.spill_bytes,
            result.stats.readmitted_chunks,
            result.stats.chunks_live_peak
        );
    }
    if flags.contains_key("verify") {
        let expected = centralized::count(&graph, &pattern);
        if expected == result.instance_count {
            println!("verify             : OK (centralized oracle agrees)");
        } else {
            return Err(format!(
                "verification failed: oracle counts {expected}, PSgL counted {}",
                result.instance_count
            ));
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let graph = load_graph(&flags)?;
    let stats = DegreeStats::of_graph(&graph);
    let (_, components) = algo::connected_components(&graph);
    let (_, degeneracy) = algo::core_decomposition(&graph);
    let triangles = centralized::count_triangles(&graph);
    println!("vertices              : {}", graph.num_vertices());
    println!("edges                 : {}", graph.num_edges());
    println!("max degree            : {}", stats.max);
    println!("mean degree           : {:.2}", stats.mean);
    println!("power-law exponent γ̂ : {}", stats.gamma.map_or("n/a".into(), |g| format!("{g:.2}")));
    println!("connected components  : {components}");
    println!("degeneracy            : {degeneracy}");
    println!("triangles             : {triangles}");
    println!(
        "global clustering     : {:.5}",
        algo::global_clustering_coefficient(&graph, triangles)
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let out = required(&flags, "out")?;
    let model = required(&flags, "model")?;
    let n: usize =
        required(&flags, "vertices")?.parse().map_err(|e| format!("bad --vertices: {e}"))?;
    let seed: u64 =
        flags.get("seed").map_or(Ok(42), |s| s.parse()).map_err(|e| format!("bad --seed: {e}"))?;
    let graph = match model {
        "chung-lu" => {
            let avg: f64 = flags
                .get("avg-degree")
                .map_or(Ok(8.0), |s| s.parse())
                .map_err(|e| format!("bad --avg-degree: {e}"))?;
            let gamma: f64 = flags
                .get("gamma")
                .map_or(Ok(2.2), |s| s.parse())
                .map_err(|e| format!("bad --gamma: {e}"))?;
            generators::chung_lu(n, avg, gamma, seed).map_err(|e| e.to_string())?
        }
        "erdos-renyi" => {
            let m: u64 = flags
                .get("edges")
                .ok_or("--edges is required for erdos-renyi")?
                .parse()
                .map_err(|e| format!("bad --edges: {e}"))?;
            generators::erdos_renyi_gnm(n, m, seed).map_err(|e| e.to_string())?
        }
        "barabasi-albert" => {
            let m: usize = flags
                .get("avg-degree")
                .map_or(Ok(4.0), |s| s.parse())
                .map_err(|e| format!("bad --avg-degree: {e}"))? as usize
                / 2;
            generators::barabasi_albert(n, m.max(1), seed).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown model {other:?}")),
    };
    io::save_edge_list(&graph, out).map_err(|e| e.to_string())?;
    println!("wrote {out}: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());
    Ok(())
}

fn cmd_patterns() -> Result<(), String> {
    println!(
        "{:<22} {:>8} {:>6} {:>6}  partial order (automorphism breaking)",
        "pattern", "vertices", "edges", "|Aut|"
    );
    for p in catalog::paper_patterns() {
        let order = break_automorphisms(&p);
        let constraints: Vec<String> =
            order.constraints().iter().map(|&(a, b)| format!("v{}<v{}", a + 1, b + 1)).collect();
        let aut = psgl::pattern::automorphism::automorphisms(&p).len();
        println!(
            "{:<22} {:>8} {:>6} {:>6}  {}",
            p.to_string(),
            p.num_vertices(),
            p.num_edges(),
            aut,
            constraints.join(", ")
        );
    }
    Ok(())
}

fn opt_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flags.get(name).map_or(Ok(default), |s| s.parse().map_err(|e| format!("bad --{name}: {e}")))
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("coordinator") => cmd_cluster_coordinator(&args[1..]),
        Some("worker") => cmd_cluster_worker(&args[1..]),
        Some(other) => Err(format!("unknown cluster role {other:?} (coordinator | worker)")),
        None => Err("cluster needs a role: coordinator | worker".into()),
    }
}

fn cmd_cluster_coordinator(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["collect"])?;
    let workers: usize =
        required(&flags, "workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let job = JobSpec {
        graph: required(&flags, "graph")?.to_string(),
        pattern: required(&flags, "pattern")?.to_string(),
        strategy: flags.get("strategy").cloned().unwrap_or_else(|| "wa:0.5".into()),
        partitions: opt_parse(&flags, "partitions", workers * 2)?,
        seed: opt_parse(&flags, "seed", 42)?,
        collect_instances: flags.contains_key("collect"),
        checkpoint_interval: opt_parse(&flags, "checkpoint-interval", 0)?,
        max_supersteps: opt_parse(&flags, "max-supersteps", 64)?,
    };
    // Fail on a bad spec here, before any worker joins, rather than
    // shipping it to every worker and collecting N error reports.
    GraphSpec::parse(&job.graph)?;
    parse_pattern(&job.pattern)?;
    job.config()?;
    let listen = flags.get("listen").map_or("127.0.0.1:7878", String::as_str);
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut config = ClusterConfig::new(workers, job);
    if let Some(ms) = flags.get("heartbeat-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --heartbeat-ms: {e}"))?;
        config.heartbeat_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = flags.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
        config.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = flags.get("linger-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --linger-ms: {e}"))?;
        config.linger = std::time::Duration::from_millis(ms);
    }
    eprintln!(
        "psgl-cluster coordinator on {addr}: waiting for {workers} workers \
         (psgl cluster worker --join {addr})"
    );
    let outcome = run_cluster(listener, config).map_err(|e| e.to_string())?;
    let stats = &outcome.stats;
    println!(
        "{}",
        Json::obj([
            ("instances", Json::from(outcome.instance_count)),
            ("attempts", Json::from(outcome.attempts)),
            ("workers_lost", Json::from(outcome.workers_lost)),
            ("supersteps", Json::from(stats.supersteps)),
            ("messages", Json::from(stats.messages)),
            ("frames_sent", Json::from(stats.frames_sent)),
            ("wire_bytes_sent", Json::from(stats.wire_bytes_sent)),
            ("barrier_wait_nanos", Json::from(stats.barrier_wait_nanos)),
            ("wall_ms", Json::from(stats.wall_time.as_millis() as u64)),
        ])
    );
    Ok(())
}

fn cmd_cluster_worker(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let join = required(&flags, "join")?;
    run_worker(join, WorkerOptions::default())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["spill"])?;
    let mut config = ServiceConfig::default();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.clone();
    }
    config.pool = opt_parse(&flags, "pool", config.pool)?.max(1);
    config.queue_cap = opt_parse(&flags, "queue-cap", config.queue_cap)?;
    config.result_cache_cap = opt_parse(&flags, "result-cache", config.result_cache_cap)?;
    config.plan_cache_cap = opt_parse(&flags, "plan-cache", config.plan_cache_cap)?;
    config.list_chunk = opt_parse(&flags, "chunk", config.list_chunk)?.max(1);
    config.slice_supersteps = opt_parse(&flags, "slice", config.slice_supersteps)?.max(1);
    let (max_live_chunks, chunk_capacity, spill) = parse_spill_knobs(&flags)?;
    config.defaults = QueryDefaults {
        workers: opt_parse(&flags, "workers", QueryDefaults::default().workers)?.max(1),
        budget: flags
            .get("budget")
            .map(|s| s.parse().map_err(|e| format!("bad --budget: {e}")))
            .transpose()?,
        seed: opt_parse(&flags, "seed", QueryDefaults::default().seed)?,
        max_live_chunks,
        chunk_capacity,
        spill,
        slow_query_ms: opt_parse(&flags, "slow-query-ms", QueryDefaults::default().slow_query_ms)?,
    };
    let handle =
        service::serve(config.clone()).map_err(|e| format!("bind {}: {e}", config.addr))?;
    println!(
        "psgl-service listening on {} (pool {}, queue {}, result cache {}, plan cache {})",
        handle.addr(),
        config.pool,
        config.queue_cap,
        config.result_cache_cap,
        config.plan_cache_cap
    );
    println!(
        "protocol: JSON lines; verbs: load, mutate, count, list, subscribe, cancel, stats, \
         metrics, health, shutdown"
    );
    if config.defaults.spill.is_some() {
        println!(
            "spill tier enabled: queue-full and over-budget queries degrade to \
             memory-bounded runs instead of `overloaded`"
        );
    }
    handle.wait();
    println!("psgl-service stopped");
    Ok(())
}

/// `psgl obs`: observability utilities — scrape the metrics verb off a
/// running service or lingering cluster coordinator, or dump this
/// process's flight-recorder ring.
fn cmd_obs(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("scrape") => cmd_obs_scrape(&args[1..]),
        Some("dump") => cmd_obs_dump(&args[1..]),
        Some(other) => Err(format!("unknown obs action {other:?} (scrape | dump)")),
        None => Err("obs needs an action: scrape | dump".into()),
    }
}

/// Sends one `{"verb":"metrics"}` line to `--addr` and prints the reply.
/// Both the service port and the cluster coordinator's control port
/// answer it; `--format prometheus` prints the exposition text itself
/// (the `body` field) instead of the JSON envelope.
fn cmd_obs_scrape(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let addr = required(&flags, "addr")?;
    let prometheus = match flags.get("format").map(String::as_str) {
        None | Some("json") => false,
        Some("prometheus") => true,
        Some(other) => return Err(format!("bad --format {other:?} (json | prometheus)")),
    };
    let mut request = vec![("verb", Json::from("metrics"))];
    if prometheus {
        request.push(("format", Json::from("prometheus")));
    }
    let mut client = service::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client.request(&Json::obj(request)).map_err(|e| e.to_string())?;
    if prometheus {
        match reply.get("body").and_then(Json::as_str) {
            Some(body) => print!("{body}"),
            None => return Err(format!("no prometheus body in reply: {reply}")),
        }
    } else {
        println!("{reply}");
    }
    Ok(())
}

/// Dumps the process-global flight-recorder ring as one JSON document.
/// In a fresh CLI process the ring is empty; the command exists so
/// embedders (and the chaos harness, which dumps through the same code
/// path on invariant failure) have a uniform on-disk format to grep.
fn cmd_obs_dump(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let recorder = psgl::obs::tracer().recorder();
    match flags.get("out") {
        Some(path) => {
            let path = std::path::Path::new(path);
            recorder.dump_to_file(path).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("flight recorder dumped to {}", path.display());
        }
        None => println!("{}", recorder.to_json()),
    }
    Ok(())
}

/// Parses `"0-1,2-3"` into `(u, v)` pairs for the mutate verb's edge
/// lists (0-based vertex ids, unlike the 1-based pattern mini-language).
fn parse_edge_pairs(spec: &str) -> Result<Vec<(u32, u32)>, String> {
    if spec.trim().is_empty() {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|edge| {
            let (u, v) = edge
                .trim()
                .split_once('-')
                .ok_or_else(|| format!("bad edge {edge:?}: expected U-V"))?;
            let parse =
                |s: &str| s.trim().parse::<u32>().map_err(|e| format!("bad edge {edge:?}: {e}"));
            Ok((parse(u)?, parse(v)?))
        })
        .collect()
}

/// `psgl mutate`: applies one edge batch to a graph on a running service
/// and prints the server's response line (new epoch + version chain).
fn cmd_mutate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let addr = required(&flags, "addr")?;
    let name = required(&flags, "name")?;
    let insert = parse_edge_pairs(flags.get("insert").map_or("", String::as_str))?;
    let delete = parse_edge_pairs(flags.get("delete").map_or("", String::as_str))?;
    if insert.is_empty() && delete.is_empty() {
        return Err("--insert or --delete is required".to_string());
    }
    let mut client = service::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client.mutate(name, &insert, &delete).map_err(|e| e.to_string())?;
    println!("{response}");
    Ok(())
}

/// `psgl watch`: subscribes to `(graph, pattern)` on a running service
/// and prints each delta/resync event line as mutations land. Stops
/// after `--events N` lines (default: runs until the server goes away).
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let addr = required(&flags, "addr")?;
    let name = required(&flags, "name")?;
    let pattern = required(&flags, "pattern")?;
    let events = flags
        .get("events")
        .map(|s| s.parse::<u64>().map_err(|e| format!("bad --events: {e}")))
        .transpose()?;
    let mut client = service::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let ack = client.subscribe(name, pattern).map_err(|e| e.to_string())?;
    println!("{ack}");
    let mut seen = 0u64;
    while events.is_none_or(|n| seen < n) {
        println!("{}", client.next_event().map_err(|e| e.to_string())?);
        seen += 1;
    }
    Ok(())
}
