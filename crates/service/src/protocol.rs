//! Wire protocol: JSON-lines requests and responses.
//!
//! One JSON object per line in each direction. Every response carries
//! `"ok"`; failures add a stable `"error"` code plus a human `"message"`:
//!
//! ```text
//! -> {"verb":"load","name":"lj","path":"/data/lj.txt","format":"edge-list"}
//! <- {"ok":true,"graph":"lj","vertices":4847571,"edges":42851237,...}
//! -> {"verb":"count","graph":"lj","pattern":"triangle","workers":8}
//! <- {"ok":true,"count":285730264,"cache_hit":false,...}
//! -> {"verb":"list","graph":"lj","pattern":"triangle","chunk":500}
//! <- {"ok":true,"chunk":0,"instances":[[0,1,2],...]}        (repeated)
//! <- {"ok":true,"done":true,"count":285730264,...}
//! ```
//!
//! The `pattern` and `strategy` specs use the same mini-language as the
//! CLI (`triangle`, `cycle:K`, `"1-2,2-3,3-1"`; `random`, `wa:0.5`), via
//! [`parse_pattern_spec`] / [`parse_strategy_spec`] which the CLI shares.

use crate::error::ServiceError;
use crate::json::{push_display, Json};
use crate::loader::GraphFormat;
use psgl_core::Strategy;
use psgl_graph::VertexId;
use psgl_pattern::{catalog, parse as pattern_parse, Pattern, PatternVertex};

/// Parses a pattern spec: a catalog name (`triangle`, `square`,
/// `tailed-triangle`/`paw`, `4-clique`, `house`), a parameterized family
/// (`cycle:K`, `clique:K`, `path:K`, `star:K`), or an explicit 1-based
/// edge list (`"1-2,2-3,3-1"`).
pub fn parse_pattern_spec(spec: &str) -> Result<Pattern, String> {
    // Named patterns first: `4-clique` also matches the explicit-edge
    // shape (digit + dash), so the catalog must win.
    let (family, k) = match spec.split_once(':') {
        Some((f, k)) => (f, Some(k.parse::<usize>().map_err(|e| format!("bad K: {e}"))?)),
        None => (spec, None),
    };
    match (family, k) {
        ("triangle", None) => return Ok(catalog::triangle()),
        ("square", None) => return Ok(catalog::square()),
        ("tailed-triangle" | "paw", None) => return Ok(catalog::tailed_triangle()),
        ("4-clique", None) => return Ok(catalog::four_clique()),
        ("house", None) => return Ok(catalog::house()),
        ("cycle", Some(k)) => return Ok(catalog::cycle(k)),
        ("clique", Some(k)) => return Ok(catalog::clique(k)),
        ("path", Some(k)) => return Ok(catalog::path(k)),
        ("star", Some(k)) => return Ok(catalog::star(k)),
        _ => {}
    }
    if spec.contains('-') && spec.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return pattern_parse::parse(format!("custom({spec})"), spec).map_err(|e| e.to_string());
    }
    Err(format!("unknown pattern {spec:?}"))
}

/// Parses a distribution-strategy spec: `random`, `roulette`, or
/// `wa:ALPHA` with `ALPHA ∈ [0, 1]`.
pub fn parse_strategy_spec(spec: &str) -> Result<Strategy, String> {
    match spec {
        "random" => Ok(Strategy::Random),
        "roulette" => Ok(Strategy::RouletteWheel),
        _ => {
            let alpha = spec
                .strip_prefix("wa:")
                .ok_or_else(|| format!("unknown strategy {spec:?}"))?
                .parse::<f64>()
                .map_err(|e| format!("bad alpha: {e}"))?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err("alpha must be in [0, 1]".into());
            }
            Ok(Strategy::WorkloadAware { alpha })
        }
    }
}

/// A `count`/`list` query as it arrives on the wire (engine knobs are
/// optional and fall back to server defaults).
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Catalog name of the data graph.
    pub graph: String,
    /// Raw pattern spec as sent (kept for error messages).
    pub pattern_spec: String,
    /// The parsed pattern.
    pub pattern: Pattern,
    /// Worker override.
    pub workers: Option<usize>,
    /// Distribution-strategy override.
    pub strategy: Option<Strategy>,
    /// 0-based initial-vertex override (wire carries 1-based, CLI-style).
    pub init_vertex: Option<PatternVertex>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Per-job Gpsi budget (simulated-OOM admission limit).
    pub budget: Option<u64>,
    /// Use the bloom edge index (default true).
    pub use_index: bool,
    /// Break pattern automorphisms (default true).
    pub break_automorphisms: bool,
    /// Bypass the result cache for this query.
    pub no_cache: bool,
    /// Wall-clock deadline in milliseconds (queue time included); an
    /// expired deadline cancels the run.
    pub timeout_ms: Option<u64>,
    /// Capture a resumable checkpoint when the deadline or budget fires,
    /// and answer with partial results plus a resume token.
    pub checkpoint: bool,
    /// Client-chosen identifier for this query, targetable by the
    /// `cancel` verb while the query is queued or running.
    pub query_id: Option<String>,
    /// Resume token from a previous `cancelled` response; the query
    /// continues the checkpointed run instead of starting over.
    pub resume: Option<String>,
    /// Tenant this query bills against for fair scheduling and admission
    /// accounting (server default tenant when absent).
    pub tenant: Option<String>,
    /// Scheduling weight of the tenant for this query, 1–100: a weight-2
    /// tenant receives twice the superstep slices of a weight-1 tenant
    /// under saturation.
    pub weight: Option<u64>,
    /// Stream list results as bounded `page` events instead of buffering
    /// the full instance list into `chunk` lines after completion.
    pub stream: bool,
}

/// One protocol request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Load (or reload) a named graph into the catalog.
    Load {
        /// Catalog name to store it under.
        name: String,
        /// Path (or fixture name).
        path: String,
        /// On-disk format.
        format: GraphFormat,
    },
    /// Apply a batch of edge insertions/deletions to a loaded graph,
    /// advancing it one epoch.
    Mutate {
        /// Catalog name of the graph to mutate.
        graph: String,
        /// Edges to insert, as `[u, v]` pairs.
        insert: Vec<(VertexId, VertexId)>,
        /// Edges to delete, as `[u, v]` pairs.
        delete: Vec<(VertexId, VertexId)>,
    },
    /// Stream signed instance deltas of a pattern on a graph as mutations
    /// land. The connection becomes a dedicated event stream.
    Subscribe {
        /// Catalog name of the graph to watch.
        graph: String,
        /// Raw pattern spec as sent.
        pattern_spec: String,
        /// The parsed pattern.
        pattern: Pattern,
    },
    /// Count instances of a pattern.
    Count(QuerySpec),
    /// Stream the instances themselves in chunks.
    List {
        /// The query.
        query: QuerySpec,
        /// Instances per chunk line (server default when absent).
        chunk: Option<usize>,
    },
    /// Cancel an in-flight query by its client-chosen `query_id`.
    Cancel {
        /// The `query_id` the query was submitted with.
        query_id: String,
    },
    /// Server statistics snapshot.
    Stats,
    /// Observability snapshot: everything `stats` reports plus the raw
    /// metrics registry, the recent slow-query log, and (with
    /// `"format":"prometheus"`) the text exposition in a `body` field.
    Metrics {
        /// Exposition format; `Some("prometheus")` adds the text body.
        format: Option<String>,
    },
    /// Liveness probe.
    Health,
    /// Stop the server.
    Shutdown,
}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(msg.into())
}

fn str_field(obj: &Json, key: &str) -> Result<String, ServiceError> {
    obj.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, ServiceError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn opt_str(obj: &Json, key: &str) -> Result<Option<String>, ServiceError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

fn flag(obj: &Json, key: &str) -> Result<bool, ServiceError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| bad(format!("field {key:?} must be a boolean"))),
    }
}

/// Parses an optional edge array: `[[u, v], ...]` (absent or `null` means
/// empty).
fn edge_list(obj: &Json, key: &str) -> Result<Vec<(VertexId, VertexId)>, ServiceError> {
    let items = match obj.get(key) {
        None | Some(Json::Null) => return Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| bad(format!("field {key:?} must be an array of [u, v] pairs")))?,
    };
    let endpoint =
        |j: &Json| -> Option<VertexId> { j.as_u64().and_then(|x| VertexId::try_from(x).ok()) };
    items
        .iter()
        .map(|item| {
            let pair = item.as_arr().filter(|p| p.len() == 2);
            match pair.and_then(|p| Some((endpoint(&p[0])?, endpoint(&p[1])?))) {
                Some(edge) => Ok(edge),
                None => Err(bad(format!(
                    "field {key:?} entries must be [u, v] pairs of vertex ids, got {item}"
                ))),
            }
        })
        .collect()
}

/// The most workers one query may ask for. Every worker of a run keeps a
/// distributor with one load slot per worker and the executor runs a
/// thread per worker each superstep, so a run's state grows with the
/// square of this; at 1024 the distributors of one run hold 8 MiB.
const MAX_QUERY_WORKERS: u64 = 1024;

fn parse_query(obj: &Json) -> Result<QuerySpec, ServiceError> {
    let graph = str_field(obj, "graph")?;
    let pattern_spec = str_field(obj, "pattern")?;
    let pattern = parse_pattern_spec(&pattern_spec).map_err(bad)?;
    let strategy = match obj.get("strategy") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let s = v.as_str().ok_or_else(|| bad("field \"strategy\" must be a string"))?;
            Some(parse_strategy_spec(s).map_err(bad)?)
        }
    };
    let init_vertex = match opt_u64(obj, "init_vertex")? {
        None => None,
        Some(0) => return Err(bad("init_vertex is 1-based")),
        Some(v) => {
            if v as usize > pattern.num_vertices() {
                return Err(bad(format!(
                    "init_vertex {v} out of range for a {}-vertex pattern",
                    pattern.num_vertices()
                )));
            }
            Some((v - 1) as PatternVertex)
        }
    };
    Ok(QuerySpec {
        graph,
        pattern_spec,
        pattern,
        workers: match opt_u64(obj, "workers")? {
            Some(w) if w > MAX_QUERY_WORKERS => {
                return Err(bad(format!("workers {w} exceeds the cap of {MAX_QUERY_WORKERS}")))
            }
            w => w.map(|w| w as usize),
        },
        strategy,
        init_vertex,
        seed: opt_u64(obj, "seed")?,
        budget: opt_u64(obj, "budget")?,
        use_index: !flag(obj, "no_index")?,
        break_automorphisms: !flag(obj, "no_break")?,
        no_cache: flag(obj, "no_cache")?,
        timeout_ms: opt_u64(obj, "timeout_ms")?,
        checkpoint: flag(obj, "checkpoint")?,
        query_id: opt_str(obj, "query_id")?,
        resume: opt_str(obj, "resume")?,
        tenant: opt_str(obj, "tenant")?,
        weight: match opt_u64(obj, "weight")? {
            None => None,
            Some(w) if (1..=100).contains(&w) => Some(w),
            Some(w) => return Err(bad(format!("weight {w} out of range (1-100)"))),
        },
        stream: flag(obj, "stream")?,
    })
}

impl Request {
    /// Parses one request line (already JSON-decoded).
    pub fn parse(obj: &Json) -> Result<Request, ServiceError> {
        let verb = str_field(obj, "verb")?;
        match verb.as_str() {
            "load" => {
                let format = match obj.get("format") {
                    None | Some(Json::Null) => GraphFormat::EdgeList,
                    Some(v) => {
                        let s =
                            v.as_str().ok_or_else(|| bad("field \"format\" must be a string"))?;
                        GraphFormat::parse(s).map_err(bad)?
                    }
                };
                Ok(Request::Load {
                    name: str_field(obj, "name")?,
                    path: str_field(obj, "path")?,
                    format,
                })
            }
            "mutate" => {
                let insert = edge_list(obj, "insert")?;
                let delete = edge_list(obj, "delete")?;
                if insert.is_empty() && delete.is_empty() {
                    return Err(bad("mutate needs a non-empty \"insert\" or \"delete\" array"));
                }
                Ok(Request::Mutate { graph: str_field(obj, "graph")?, insert, delete })
            }
            "subscribe" => {
                let pattern_spec = str_field(obj, "pattern")?;
                let pattern = parse_pattern_spec(&pattern_spec).map_err(bad)?;
                Ok(Request::Subscribe { graph: str_field(obj, "graph")?, pattern_spec, pattern })
            }
            "count" => Ok(Request::Count(parse_query(obj)?)),
            "list" => Ok(Request::List {
                query: parse_query(obj)?,
                chunk: opt_u64(obj, "chunk")?.map(|c| c as usize),
            }),
            "cancel" => Ok(Request::Cancel { query_id: str_field(obj, "query_id")? }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics { format: opt_str(obj, "format")? }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!(
                "unknown verb {other:?} (expected load, mutate, count, list, subscribe, cancel, \
                 stats, metrics, health or shutdown)"
            ))),
        }
    }

    /// Parses a raw request line.
    pub fn parse_line(line: &str) -> Result<Request, ServiceError> {
        let json = Json::parse(line).map_err(|e| bad(e.to_string()))?;
        Request::parse(&json)
    }
}

/// Builds a success response: `{"ok":true, ...fields}`.
pub fn ok_response(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// Renders one listing line — `{"ok":true,KEY:INDEX,"instances":[[v,..],..]}`
/// plus the trailing `\n` — straight from the instance tuples: the bytes
/// of `ok_response([(key, index), ("instances", rows)])` without the
/// `Json` node per vertex. Streamed pages (`"page"`) and buffered `list`
/// chunks (`"chunk"`) both use it, so the two listings share one format.
pub(crate) fn instances_line(key: &str, index: u64, instances: &[Vec<VertexId>]) -> Vec<u8> {
    let width = instances.first().map_or(0, Vec::len);
    let mut out = String::with_capacity(48 + instances.len() * (2 + 8 * width));
    out.push_str("{\"ok\":true,");
    psgl_obs::push_json_string(&mut out, key);
    out.push(':');
    push_display(&mut out, index);
    out.push_str(",\"instances\":[");
    for (i, instance) in instances.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        for (j, &v) in instance.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_display(&mut out, v);
        }
        out.push(']');
    }
    out.push_str("]}\n");
    out.into_bytes()
}

/// Builds the error response for a failure:
/// `{"ok":false,"error":CODE,"message":...}`.
pub fn error_response(err: &ServiceError) -> Json {
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::from(err.code())),
        ("message".to_string(), Json::from(err.to_string())),
    ];
    if let ServiceError::BudgetExceeded { in_flight, budget } = err {
        pairs.push(("in_flight".to_string(), Json::from(*in_flight)));
        pairs.push(("budget".to_string(), Json::from(*budget)));
    }
    if let ServiceError::Cancelled { reason, superstep, partial_count, resume_token } = err {
        pairs.push(("reason".to_string(), Json::from(reason.as_str())));
        pairs.push(("superstep".to_string(), Json::from(u64::from(*superstep))));
        pairs.push(("partial_count".to_string(), Json::from(*partial_count)));
        if let Some(token) = resume_token {
            pairs.push(("resume_token".to_string(), Json::from(token.clone())));
        }
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_count_with_overrides() {
        let req = Request::parse_line(
            r#"{"verb":"count","graph":"g","pattern":"cycle:5","workers":8,
               "strategy":"wa:0.3","init_vertex":2,"seed":7,"budget":100,
               "no_index":true,"no_cache":true,"timeout_ms":250,
               "checkpoint":true,"query_id":"job-1","resume":"ckpt-0",
               "tenant":"acme","weight":3}"#,
        )
        .unwrap();
        match req {
            Request::Count(q) => {
                assert_eq!(q.graph, "g");
                assert_eq!(q.pattern.num_vertices(), 5);
                assert_eq!(q.workers, Some(8));
                assert_eq!(q.strategy, Some(Strategy::WorkloadAware { alpha: 0.3 }));
                assert_eq!(q.init_vertex, Some(1)); // wire is 1-based
                assert_eq!(q.seed, Some(7));
                assert_eq!(q.budget, Some(100));
                assert!(!q.use_index);
                assert!(q.break_automorphisms);
                assert!(q.no_cache);
                assert_eq!(q.timeout_ms, Some(250));
                assert!(q.checkpoint);
                assert_eq!(q.query_id.as_deref(), Some("job-1"));
                assert_eq!(q.resume.as_deref(), Some("ckpt-0"));
                assert_eq!(q.tenant.as_deref(), Some("acme"));
                assert_eq!(q.weight, Some(3));
                assert!(!q.stream);
            }
            other => panic!("expected count, got {other:?}"),
        }
    }

    #[test]
    fn parses_streamed_list_and_rejects_bad_weights() {
        match Request::parse_line(
            r#"{"verb":"list","graph":"g","pattern":"triangle","stream":true,"chunk":5}"#,
        )
        .unwrap()
        {
            Request::List { query, chunk } => {
                assert!(query.stream);
                assert_eq!(query.tenant, None);
                assert_eq!(query.weight, None);
                assert_eq!(chunk, Some(5));
            }
            other => panic!("expected list, got {other:?}"),
        }
        for line in [
            r#"{"verb":"count","graph":"g","pattern":"triangle","weight":0}"#,
            r#"{"verb":"count","graph":"g","pattern":"triangle","weight":101}"#,
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line}");
            assert!(err.to_string().contains("weight"), "{line} -> {err}");
        }
    }

    #[test]
    fn parses_mutate_and_subscribe() {
        let req = Request::parse_line(
            r#"{"verb":"mutate","graph":"g","insert":[[0,5],[2,7]],"delete":[[1,3]]}"#,
        )
        .unwrap();
        match req {
            Request::Mutate { graph, insert, delete } => {
                assert_eq!(graph, "g");
                assert_eq!(insert, vec![(0, 5), (2, 7)]);
                assert_eq!(delete, vec![(1, 3)]);
            }
            other => panic!("expected mutate, got {other:?}"),
        }
        // One-sided batches are fine; a fully empty one is rejected.
        assert!(Request::parse_line(r#"{"verb":"mutate","graph":"g","insert":[[0,1]]}"#).is_ok());
        let err = Request::parse_line(r#"{"verb":"mutate","graph":"g"}"#).unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
        for line in [
            r#"{"verb":"mutate","graph":"g","insert":[[0]]}"#,
            r#"{"verb":"mutate","graph":"g","insert":[[0,1,2]]}"#,
            r#"{"verb":"mutate","graph":"g","insert":[["a","b"]]}"#,
            r#"{"verb":"mutate","graph":"g","insert":[[0,-1]]}"#,
            r#"{"verb":"mutate","graph":"g","insert":7}"#,
        ] {
            assert_eq!(Request::parse_line(line).unwrap_err().code(), "bad_request", "{line}");
        }

        match Request::parse_line(r#"{"verb":"subscribe","graph":"g","pattern":"triangle"}"#)
            .unwrap()
        {
            Request::Subscribe { graph, pattern_spec, pattern } => {
                assert_eq!(graph, "g");
                assert_eq!(pattern_spec, "triangle");
                assert_eq!(pattern.num_vertices(), 3);
            }
            other => panic!("expected subscribe, got {other:?}"),
        }
        assert!(Request::parse_line(r#"{"verb":"subscribe","graph":"g"}"#).is_err());
    }

    #[test]
    fn parses_cancel_and_rejects_it_without_an_id() {
        match Request::parse_line(r#"{"verb":"cancel","query_id":"job-1"}"#).unwrap() {
            Request::Cancel { query_id } => assert_eq!(query_id, "job-1"),
            other => panic!("expected cancel, got {other:?}"),
        }
        let err = Request::parse_line(r#"{"verb":"cancel"}"#).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        assert!(err.to_string().contains("query_id"), "{err}");
    }

    #[test]
    fn cancelled_responses_carry_partial_progress_and_resume_token() {
        use psgl_core::CancelReason;
        let err = error_response(&ServiceError::Cancelled {
            reason: CancelReason::Deadline,
            superstep: 2,
            partial_count: 17,
            resume_token: Some("ckpt-3".into()),
        });
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("error").unwrap().as_str(), Some("cancelled"));
        assert_eq!(err.get("reason").unwrap().as_str(), Some("deadline"));
        assert_eq!(err.get("superstep").unwrap().as_u64(), Some(2));
        assert_eq!(err.get("partial_count").unwrap().as_u64(), Some(17));
        assert_eq!(err.get("resume_token").unwrap().as_str(), Some("ckpt-3"));
        // Hard cancels omit the token entirely instead of sending null.
        let hard = error_response(&ServiceError::Cancelled {
            reason: CancelReason::Disconnected,
            superstep: 1,
            partial_count: 0,
            resume_token: None,
        });
        assert!(hard.get("resume_token").is_none());
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("{}", "verb"),
            (r#"{"verb":"frobnicate"}"#, "unknown verb"),
            (r#"{"verb":"count","graph":"g"}"#, "pattern"),
            (r#"{"verb":"count","graph":"g","pattern":"dodecahedron"}"#, "unknown pattern"),
            (r#"{"verb":"count","graph":"g","pattern":"triangle","init_vertex":0}"#, "1-based"),
            (r#"{"verb":"count","graph":"g","pattern":"triangle","init_vertex":4}"#, "range"),
            (r#"{"verb":"count","graph":"g","pattern":"triangle","workers":-1}"#, "workers"),
            (r#"{"verb":"count","graph":"g","pattern":"triangle","workers":1025}"#, "workers"),
            (r#"{"verb":"list","graph":"g","pattern":"triangle","workers":100000}"#, "cap"),
            (r#"{"verb":"load","name":"g","path":"x","format":"parquet"}"#, "format"),
            ("not json", "JSON"),
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line}");
            assert!(err.to_string().contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn responses_have_the_documented_shape() {
        let ok = ok_response([("count", Json::from(45u64))]);
        assert_eq!(ok.to_string(), r#"{"ok":true,"count":45}"#);
        let err = error_response(&ServiceError::BudgetExceeded { in_flight: 12, budget: 10 });
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("error").unwrap().as_str(), Some("budget_exceeded"));
        assert_eq!(err.get("in_flight").unwrap().as_u64(), Some(12));
        assert_eq!(err.get("budget").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn custom_edge_list_patterns_parse() {
        let p = parse_pattern_spec("1-2,2-3,3-1").unwrap();
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.num_edges(), 3);
        assert!(parse_pattern_spec("1-2,2-").is_err());
    }

    #[test]
    fn named_patterns_beat_the_edge_list_heuristic() {
        // "4-clique" starts with a digit and contains '-': the catalog
        // name must win over the explicit-edge-list fallback.
        let p = parse_pattern_spec("4-clique").unwrap();
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.num_edges(), 6);
        assert!(parse_pattern_spec("dodecahedron").unwrap_err().contains("unknown pattern"));
        assert!(parse_pattern_spec("cycle:x").unwrap_err().contains("bad K"));
    }

    #[test]
    fn instances_line_is_the_serialized_json_tree() {
        for width in [3u32, 5] {
            for len in [0u32, 1, 257] {
                let instances: Vec<Vec<VertexId>> = (0..len)
                    .map(|i| (0..width).map(|j| i.wrapping_mul(2_654_435_761) ^ j).collect())
                    .collect();
                for (key, index) in [("page", 0u64), ("chunk", 244)] {
                    let rows = Json::Arr(instances.iter().cloned().map(Json::from).collect());
                    let tree = ok_response([(key, Json::from(index)), ("instances", rows)]);
                    let line = instances_line(key, index, &instances);
                    assert_eq!(String::from_utf8(line).unwrap(), format!("{tree}\n"));
                }
            }
        }
    }
}
