//! The JSON control plane: worker ⇄ coordinator messages and the job
//! specification.
//!
//! Control traffic rides the same newline-delimited JSON transport as
//! the query service (`psgl_service::wire`), one message per line,
//! capped at [`psgl_service::wire::MAX_LINE_BYTES`]. Data tuples never
//! travel here — they use the binary frames in [`crate::frame`].
//!
//! Every run-scoped message carries the `attempt` number; a recovery
//! bumps it, and both sides drop messages tagged with a stale attempt,
//! which makes late barriers, shards, and aborts from a superseded
//! execution harmless.

use psgl_bsp::{NetSuperstepMetrics, WorkerSuperstepMetrics};
use psgl_core::{ExpandStats, PsglConfig};
use psgl_graph::{DataGraph, VertexId};
use psgl_service::{load_graph, GraphFormat, Json};

/// How a worker materializes the data graph. Shipping a spec instead of
/// the graph keeps `start` messages tiny and guarantees every process
/// (and the test oracle) builds the identical graph.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// `gnm:N:M:SEED` — Erdős–Rényi G(n, m).
    Gnm {
        /// Vertices.
        n: usize,
        /// Edges.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// `chung-lu:N:AVG:GAMMA:SEED` — power-law Chung–Lu.
    ChungLu {
        /// Vertices.
        n: usize,
        /// Target average degree.
        avg_degree: f64,
        /// Power-law exponent.
        gamma: f64,
        /// Generator seed.
        seed: u64,
    },
    /// `fixture:NAME` — a bundled fixture graph.
    Fixture(String),
    /// `file:PATH[:FORMAT]` — a graph file (`edge-list` or `binary`).
    File {
        /// Path on the worker's filesystem.
        path: String,
        /// On-disk format.
        format: GraphFormat,
    },
}

impl GraphSpec {
    /// Parses the spec mini-language described on the variants.
    pub fn parse(spec: &str) -> Result<GraphSpec, String> {
        let (family, rest) = spec.split_once(':').ok_or_else(|| {
            format!("bad graph spec {spec:?}: expected gnm:/chung-lu:/fixture:/file:")
        })?;
        let num = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>().map_err(|e| format!("bad {what} in graph spec: {e}"))
        };
        match family {
            "gnm" => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 3 {
                    return Err("gnm spec wants gnm:N:M:SEED".into());
                }
                Ok(GraphSpec::Gnm {
                    n: num(parts[0], "N")? as usize,
                    m: num(parts[1], "M")?,
                    seed: num(parts[2], "SEED")?,
                })
            }
            "chung-lu" => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 4 {
                    return Err("chung-lu spec wants chung-lu:N:AVG:GAMMA:SEED".into());
                }
                let f = |s: &str, what: &str| -> Result<f64, String> {
                    s.parse::<f64>().map_err(|e| format!("bad {what} in graph spec: {e}"))
                };
                Ok(GraphSpec::ChungLu {
                    n: num(parts[0], "N")? as usize,
                    avg_degree: f(parts[1], "AVG")?,
                    gamma: f(parts[2], "GAMMA")?,
                    seed: num(parts[3], "SEED")?,
                })
            }
            "fixture" => Ok(GraphSpec::Fixture(rest.to_string())),
            "file" => match rest.rsplit_once(':') {
                Some((path, fmt)) if GraphFormat::parse(fmt).is_ok() => Ok(GraphSpec::File {
                    path: path.to_string(),
                    format: GraphFormat::parse(fmt).expect("checked"),
                }),
                _ => Ok(GraphSpec::File { path: rest.to_string(), format: GraphFormat::EdgeList }),
            },
            other => Err(format!("unknown graph spec family {other:?}")),
        }
    }

    /// Builds the graph.
    pub fn load(&self) -> Result<DataGraph, String> {
        match self {
            GraphSpec::Gnm { n, m, seed } => {
                psgl_graph::generators::erdos_renyi_gnm(*n, *m, *seed).map_err(|e| e.to_string())
            }
            GraphSpec::ChungLu { n, avg_degree, gamma, seed } => {
                psgl_graph::generators::chung_lu(*n, *avg_degree, *gamma, *seed)
                    .map_err(|e| e.to_string())
            }
            GraphSpec::Fixture(name) => {
                load_graph(name, GraphFormat::Fixture).map_err(|e| e.to_string())
            }
            GraphSpec::File { path, format } => {
                load_graph(path, *format).map_err(|e| e.to_string())
            }
        }
    }
}

/// Everything a worker needs to execute a run: the graph recipe, the
/// query, and the engine knobs that must agree at every participant.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Graph spec string (see [`GraphSpec::parse`]).
    pub graph: String,
    /// Pattern spec (`psgl_service::parse_pattern_spec` grammar).
    pub pattern: String,
    /// Distribution-strategy spec (`random`, `roulette`, `wa:ALPHA`).
    pub strategy: String,
    /// Number of *logical* partitions `K` — the global
    /// `PsglConfig::workers`. Must be ≥ the process count so every
    /// process hosts at least one partition.
    pub partitions: usize,
    /// Run seed (partitioner salt and distributor streams).
    pub seed: u64,
    /// Collect instance tuples, not just counts.
    pub collect_instances: bool,
    /// Checkpoint every this many supersteps (0 = never). Recovery can
    /// only roll back to a completed checkpoint.
    pub checkpoint_interval: u32,
    /// Superstep cap.
    pub max_supersteps: u32,
}

impl JobSpec {
    /// The [`PsglConfig`] every participant (and the centralized oracle)
    /// derives from this job.
    pub fn config(&self) -> Result<PsglConfig, String> {
        let strategy = psgl_service::parse_strategy_spec(&self.strategy)?;
        let mut config = PsglConfig::with_workers(self.partitions)
            .strategy(strategy)
            .seed(self.seed)
            .collect(self.collect_instances);
        config.max_supersteps = self.max_supersteps;
        Ok(config)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("graph", Json::from(self.graph.as_str())),
            ("pattern", Json::from(self.pattern.as_str())),
            ("strategy", Json::from(self.strategy.as_str())),
            ("partitions", Json::from(self.partitions)),
            ("seed", Json::from(self.seed)),
            ("collect", Json::from(self.collect_instances)),
            ("checkpoint_interval", Json::from(self.checkpoint_interval)),
            ("max_supersteps", Json::from(self.max_supersteps)),
        ])
    }

    fn from_json(v: &Json) -> Result<JobSpec, String> {
        Ok(JobSpec {
            graph: str_field(v, "graph")?,
            pattern: str_field(v, "pattern")?,
            strategy: str_field(v, "strategy")?,
            partitions: u64_field(v, "partitions")? as usize,
            seed: u64_field(v, "seed")?,
            collect_instances: v.get("collect").and_then(Json::as_bool).unwrap_or(false),
            checkpoint_interval: u32_field(v, "checkpoint_interval")?,
            max_supersteps: u32_field(v, "max_supersteps")?,
        })
    }
}

/// A `start` order as the worker run loop consumes it (the fields of
/// [`CoordMsg::Start`], minus the tag).
#[derive(Clone, Debug)]
pub struct StartOrder {
    /// Execution attempt.
    pub attempt: u32,
    /// The job.
    pub job: JobSpec,
    /// Global partition ids this worker hosts, ascending.
    pub partitions: Vec<u32>,
    /// Partition → owning proc.
    pub owners: Vec<u32>,
    /// Alive procs and their data addresses.
    pub peers: Vec<(u32, String)>,
    /// Resume shard blobs for this worker's partitions.
    pub resume: Vec<Vec<u8>>,
}

/// Messages a worker sends to the coordinator.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg {
    /// First message on the control connection.
    Join {
        /// Address the worker's data-plane listener is bound to.
        data_addr: String,
    },
    /// Heartbeat; carries no payload.
    Ping,
    /// This worker finished computing a superstep and shipped its remote
    /// outboxes; it now waits for the coordinator's `proceed`.
    Barrier {
        /// Execution attempt the barrier belongs to.
        attempt: u32,
        /// Superstep just computed.
        superstep: u32,
        /// Global partition ids, parallel to `metrics`.
        partitions: Vec<u32>,
        /// Per-partition metrics for the superstep.
        metrics: Vec<WorkerSuperstepMetrics>,
    },
    /// One partition's checkpoint shard (streamed to the coordinator).
    Shard {
        /// Execution attempt.
        attempt: u32,
        /// Superstep the restored run would resume at.
        superstep: u32,
        /// Global partition id.
        partition: u32,
        /// The shard's `Checkpoint::to_bytes` output (one part).
        bytes: Vec<u8>,
    },
    /// The run completed on this worker.
    Done {
        /// Execution attempt.
        attempt: u32,
        /// Expansion counters merged over this worker's partitions.
        expand: ExpandStats,
        /// Instance tuples (when collecting).
        instances: Option<Vec<Vec<VertexId>>>,
        /// Supersteps executed (identical at every worker).
        supersteps: u32,
        /// Per-superstep network counters observed by this worker.
        net: Vec<(u32, NetSuperstepMetrics)>,
        /// Times the chunk pool's cap forced the degraded path.
        pool_exhausted: u64,
        /// Chunk get/put imbalance at shutdown (0 on a clean run).
        chunks_outstanding: i64,
    },
    /// The run failed on this worker (bad job spec, graph load failure).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Messages the coordinator sends to a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum CoordMsg {
    /// Reply to `join`: the worker's stable proc id.
    Welcome {
        /// Proc id (stable across attempts).
        proc: u32,
    },
    /// Begin (or re-begin, after recovery) an execution attempt.
    Start {
        /// Execution attempt (0 = first).
        attempt: u32,
        /// The job.
        job: JobSpec,
        /// Global partition ids this worker hosts, ascending.
        partitions: Vec<u32>,
        /// Partition → owning proc, `job.partitions` entries.
        owners: Vec<u32>,
        /// Alive procs and their data-plane addresses.
        peers: Vec<(u32, String)>,
        /// Resume shards for this worker's partitions (empty on a fresh
        /// start), one single-part `Checkpoint::to_bytes` blob per
        /// partition.
        resume: Vec<Vec<u8>>,
    },
    /// Barrier release: every worker reported `superstep`.
    Proceed {
        /// Execution attempt.
        attempt: u32,
        /// Superstep being released.
        superstep: u32,
        /// Global in-flight message count — halt/budget decisions key
        /// off this, so it is identical at every worker.
        in_flight: u64,
        /// Capture a checkpoint of the incoming frontier before
        /// computing the next superstep.
        checkpoint: bool,
    },
    /// Cancel the named attempt (peer failure, deadline, explicit).
    Abort {
        /// Attempt being cancelled.
        attempt: u32,
        /// `CancelReason::as_str` form.
        reason: String,
    },
    /// Shut down for good.
    Stop,
}

impl WorkerMsg {
    /// Encodes for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            WorkerMsg::Join { data_addr } => Json::obj([
                ("type", Json::from("join")),
                ("data_addr", Json::from(data_addr.as_str())),
            ]),
            WorkerMsg::Ping => Json::obj([("type", Json::from("ping"))]),
            WorkerMsg::Barrier { attempt, superstep, partitions, metrics } => Json::obj([
                ("type", Json::from("barrier")),
                ("attempt", Json::from(*attempt)),
                ("superstep", Json::from(*superstep)),
                ("partitions", Json::from(partitions.clone())),
                (
                    "metrics",
                    Json::Arr(metrics.iter().map(|m| Json::from(m.to_array().to_vec())).collect()),
                ),
            ]),
            WorkerMsg::Shard { attempt, superstep, partition, bytes } => Json::obj([
                ("type", Json::from("shard")),
                ("attempt", Json::from(*attempt)),
                ("superstep", Json::from(*superstep)),
                ("partition", Json::from(*partition)),
                ("bytes", Json::from(to_hex(bytes))),
            ]),
            WorkerMsg::Done {
                attempt,
                expand,
                instances,
                supersteps,
                net,
                pool_exhausted,
                chunks_outstanding,
            } => Json::obj([
                ("type", Json::from("done")),
                ("attempt", Json::from(*attempt)),
                ("expand", Json::from(expand.to_array().to_vec())),
                (
                    "instances",
                    match instances {
                        Some(rows) => {
                            Json::Arr(rows.iter().map(|row| Json::from(row.clone())).collect())
                        }
                        None => Json::Null,
                    },
                ),
                ("supersteps", Json::from(*supersteps)),
                (
                    "net",
                    Json::Arr(
                        net.iter()
                            .map(|(s, n)| {
                                let mut row = vec![u64::from(*s)];
                                row.extend(n.to_array());
                                Json::from(row)
                            })
                            .collect(),
                    ),
                ),
                ("pool_exhausted", Json::from(*pool_exhausted)),
                ("chunks_outstanding", Json::from(*chunks_outstanding)),
            ]),
            WorkerMsg::Error { message } => Json::obj([
                ("type", Json::from("error")),
                ("message", Json::from(message.as_str())),
            ]),
        }
    }

    /// Decodes from the wire.
    pub fn from_json(v: &Json) -> Result<WorkerMsg, String> {
        match str_field(v, "type")?.as_str() {
            "join" => Ok(WorkerMsg::Join { data_addr: str_field(v, "data_addr")? }),
            "ping" => Ok(WorkerMsg::Ping),
            "barrier" => {
                let partitions = u32_arr_field(v, "partitions")?;
                let metrics = v
                    .get("metrics")
                    .and_then(Json::as_arr)
                    .ok_or("barrier missing metrics")?
                    .iter()
                    .map(|m| Ok(WorkerSuperstepMetrics::from_array(counters(m, "worker metrics")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                if partitions.len() != metrics.len() {
                    return Err("barrier partitions/metrics length mismatch".into());
                }
                Ok(WorkerMsg::Barrier {
                    attempt: u32_field(v, "attempt")?,
                    superstep: u32_field(v, "superstep")?,
                    partitions,
                    metrics,
                })
            }
            "shard" => Ok(WorkerMsg::Shard {
                attempt: u32_field(v, "attempt")?,
                superstep: u32_field(v, "superstep")?,
                partition: u32_field(v, "partition")?,
                bytes: from_hex(&str_field(v, "bytes")?)?,
            }),
            "done" => {
                let instances = match v.get("instances") {
                    None | Some(Json::Null) => None,
                    Some(rows) => Some(
                        rows.as_arr()
                            .ok_or("done instances must be an array")?
                            .iter()
                            .map(|row| u32_arr(row, "instance"))
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                };
                let net = v
                    .get("net")
                    .and_then(Json::as_arr)
                    .ok_or("done missing net")?
                    .iter()
                    .map(|entry| {
                        // `[superstep, counters...]`
                        let ns = u64_arr(entry, "net entry")?;
                        let (&superstep, rest) = ns.split_first().ok_or("net entry is empty")?;
                        let net = rest.try_into().map_err(|_| {
                            format!("net entry wants {} numbers", 1 + NetSuperstepMetrics::LEN)
                        })?;
                        Ok((to_u32(superstep, "net entry")?, NetSuperstepMetrics::from_array(net)))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(WorkerMsg::Done {
                    attempt: u32_field(v, "attempt")?,
                    expand: ExpandStats::from_array(counters(
                        v.get("expand").ok_or("done missing expand")?,
                        "expand stats",
                    )?),
                    instances,
                    supersteps: u32_field(v, "supersteps")?,
                    net,
                    pool_exhausted: u64_field(v, "pool_exhausted")?,
                    chunks_outstanding: v
                        .get("chunks_outstanding")
                        .and_then(Json::as_i64)
                        .ok_or("done missing chunks_outstanding")?,
                })
            }
            "error" => Ok(WorkerMsg::Error { message: str_field(v, "message")? }),
            other => Err(format!("unknown worker message type {other:?}")),
        }
    }
}

impl CoordMsg {
    /// Encodes for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            CoordMsg::Welcome { proc } => {
                Json::obj([("type", Json::from("welcome")), ("proc", Json::from(*proc))])
            }
            CoordMsg::Start { attempt, job, partitions, owners, peers, resume } => Json::obj([
                ("type", Json::from("start")),
                ("attempt", Json::from(*attempt)),
                ("job", job.to_json()),
                ("partitions", Json::from(partitions.clone())),
                ("owners", Json::from(owners.clone())),
                (
                    "peers",
                    Json::Arr(
                        peers
                            .iter()
                            .map(|(p, addr)| {
                                Json::Arr(vec![Json::from(*p), Json::from(addr.as_str())])
                            })
                            .collect(),
                    ),
                ),
                ("resume", Json::Arr(resume.iter().map(|b| Json::from(to_hex(b))).collect())),
            ]),
            CoordMsg::Proceed { attempt, superstep, in_flight, checkpoint } => Json::obj([
                ("type", Json::from("proceed")),
                ("attempt", Json::from(*attempt)),
                ("superstep", Json::from(*superstep)),
                ("in_flight", Json::from(*in_flight)),
                ("checkpoint", Json::from(*checkpoint)),
            ]),
            CoordMsg::Abort { attempt, reason } => Json::obj([
                ("type", Json::from("abort")),
                ("attempt", Json::from(*attempt)),
                ("reason", Json::from(reason.as_str())),
            ]),
            CoordMsg::Stop => Json::obj([("type", Json::from("stop"))]),
        }
    }

    /// Decodes from the wire.
    pub fn from_json(v: &Json) -> Result<CoordMsg, String> {
        match str_field(v, "type")?.as_str() {
            "welcome" => Ok(CoordMsg::Welcome { proc: u32_field(v, "proc")? }),
            "start" => {
                let peers = v
                    .get("peers")
                    .and_then(Json::as_arr)
                    .ok_or("start missing peers")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().ok_or("peer must be [proc, addr]")?;
                        match pair {
                            [p, addr] => Ok((
                                to_u32(p.as_u64().ok_or("bad peer proc")?, "peer proc")?,
                                addr.as_str().ok_or("bad peer addr")?.to_string(),
                            )),
                            _ => Err("peer must be [proc, addr]".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let resume = v
                    .get("resume")
                    .and_then(Json::as_arr)
                    .map(|blobs| {
                        blobs
                            .iter()
                            .map(|b| from_hex(b.as_str().ok_or("resume blob must be hex")?))
                            .collect::<Result<Vec<_>, String>>()
                    })
                    .transpose()?
                    .unwrap_or_default();
                Ok(CoordMsg::Start {
                    attempt: u32_field(v, "attempt")?,
                    job: JobSpec::from_json(v.get("job").ok_or("start missing job")?)?,
                    partitions: u32_arr_field(v, "partitions")?,
                    owners: u32_arr_field(v, "owners")?,
                    peers,
                    resume,
                })
            }
            "proceed" => Ok(CoordMsg::Proceed {
                attempt: u32_field(v, "attempt")?,
                superstep: u32_field(v, "superstep")?,
                in_flight: u64_field(v, "in_flight")?,
                checkpoint: v.get("checkpoint").and_then(Json::as_bool).unwrap_or(false),
            }),
            "abort" => Ok(CoordMsg::Abort {
                attempt: u32_field(v, "attempt")?,
                reason: str_field(v, "reason")?,
            }),
            "stop" => Ok(CoordMsg::Stop),
            other => Err(format!("unknown coordinator message type {other:?}")),
        }
    }
}

/// Decodes one `counters!` table from its fixed-order numeric array
/// (declaration order; `N` is the receiving table's `LEN`).
fn counters<const N: usize>(v: &Json, what: &str) -> Result<[u64; N], String> {
    u64_arr(v, what)?.try_into().map_err(|_| format!("{what} wants {N} numbers"))
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn u64_arr(v: &Json, what: &str) -> Result<Vec<u64>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("{what} holds a non-number")))
        .collect()
}

/// Hostile or corrupt lines must not alias a valid id by truncation.
fn to_u32(x: u64, what: &str) -> Result<u32, String> {
    u32::try_from(x).map_err(|_| format!("{what} holds {x}, which is out of range"))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    to_u32(u64_field(v, key)?, key)
}

fn u32_arr(v: &Json, what: &str) -> Result<Vec<u32>, String> {
    u64_arr(v, what)?.into_iter().map(|x| to_u32(x, what)).collect()
}

fn u32_arr_field(v: &Json, key: &str) -> Result<Vec<u32>, String> {
    u32_arr(v.get(key).ok_or_else(|| format!("missing field {key:?}"))?, key)
}

/// Lower-hex encoding for checkpoint-shard blobs on the JSON channel.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    s
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex string has odd length".into());
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or("bad hex digit")?;
        let lo = (pair[1] as char).to_digit(16).ok_or("bad hex digit")?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn graph_spec_parses() {
        assert_eq!(
            GraphSpec::parse("gnm:100:400:7").unwrap(),
            GraphSpec::Gnm { n: 100, m: 400, seed: 7 }
        );
        assert_eq!(
            GraphSpec::parse("fixture:karate-club").unwrap(),
            GraphSpec::Fixture("karate-club".into())
        );
        assert!(matches!(
            GraphSpec::parse("file:/tmp/g.txt:edge-list").unwrap(),
            GraphSpec::File { .. }
        ));
        assert!(GraphSpec::parse("nope").is_err());
        assert!(GraphSpec::parse("gnm:1:2").is_err());
    }

    fn sample_job() -> JobSpec {
        JobSpec {
            graph: "gnm:60:300:7".into(),
            pattern: "triangle".into(),
            strategy: "roulette".into(),
            partitions: 6,
            seed: 42,
            collect_instances: true,
            checkpoint_interval: 2,
            max_supersteps: 64,
        }
    }

    #[test]
    fn worker_messages_roundtrip() {
        let msgs = vec![
            WorkerMsg::Join { data_addr: "127.0.0.1:4000".into() },
            WorkerMsg::Ping,
            WorkerMsg::Barrier {
                attempt: 1,
                superstep: 3,
                partitions: vec![0, 3],
                metrics: vec![
                    WorkerSuperstepMetrics::from_array([4, 10, 20, 5, 900, 77, 1234]),
                    WorkerSuperstepMetrics::default(),
                ],
            },
            WorkerMsg::Shard { attempt: 0, superstep: 2, partition: 4, bytes: vec![1, 2, 250] },
            WorkerMsg::Done {
                attempt: 2,
                expand: ExpandStats { expanded: 9, results: 3, cost: 12, ..Default::default() },
                instances: Some(vec![vec![1, 2, 3], vec![4, 5, 6]]),
                supersteps: 4,
                net: vec![(0, NetSuperstepMetrics::from_array([1, 2, 3, 4, 5, 6]))],
                pool_exhausted: 0,
                chunks_outstanding: 0,
            },
            WorkerMsg::Error { message: "boom".into() },
        ];
        for msg in msgs {
            let json = Json::parse(&msg.to_json().to_string()).unwrap();
            assert_eq!(WorkerMsg::from_json(&json).unwrap(), msg);
        }
    }

    /// Golden pin of the two control messages that carry counter arrays:
    /// every field non-zero and distinct, so a reordered or dropped
    /// counter changes the rendered line.
    #[test]
    fn barrier_and_done_lines_are_pinned() {
        let barrier = WorkerMsg::Barrier {
            attempt: 1,
            superstep: 3,
            partitions: vec![2, 5],
            metrics: vec![
                WorkerSuperstepMetrics::from_array([11, 12, 13, 14, 15, 16, 17]),
                WorkerSuperstepMetrics::from_array([21, 22, 23, 24, 25, 26, 27]),
            ],
        };
        assert_eq!(
            barrier.to_json().to_string(),
            r#"{"type":"barrier","attempt":1,"superstep":3,"partitions":[2,5],"metrics":[[11,12,13,14,15,16,17],[21,22,23,24,25,26,27]]}"#
        );

        let done = WorkerMsg::Done {
            attempt: 2,
            expand: ExpandStats::from_array(std::array::from_fn(|i| 101 + i as u64)),
            instances: Some(vec![vec![1, 2, 3], vec![4, 5, 6]]),
            supersteps: 4,
            net: vec![(7, NetSuperstepMetrics::from_array([31, 32, 33, 34, 35, 36]))],
            pool_exhausted: 8,
            chunks_outstanding: -9,
        };
        assert_eq!(
            done.to_json().to_string(),
            r#"{"type":"done","attempt":2,"expand":[101,102,103,104,105,106,107,108,109,110,111,112,113,114,115,116,117,118,119],"instances":[[1,2,3],[4,5,6]],"supersteps":4,"net":[[7,31,32,33,34,35,36]],"pool_exhausted":8,"chunks_outstanding":-9}"#
        );
    }

    /// A number that does not fit its field is an error, never a
    /// truncated alias of a valid id; and no `done` field is optional.
    #[test]
    fn out_of_range_and_missing_numbers_are_rejected() {
        let worker = |line: &str| WorkerMsg::from_json(&Json::parse(line).unwrap());
        let coord = |line: &str| CoordMsg::from_json(&Json::parse(line).unwrap());
        // 4294967297 = 2^32 + 1 used to decode as 1.
        assert!(worker(
            r#"{"type":"shard","attempt":0,"superstep":2,"partition":4294967297,"bytes":""}"#
        )
        .is_err());
        assert!(worker(
            r#"{"type":"shard","attempt":4294967297,"superstep":2,"partition":1,"bytes":""}"#
        )
        .is_err());
        assert!(worker(
            r#"{"type":"barrier","attempt":0,"superstep":4294967297,"partitions":[],"metrics":[]}"#
        )
        .is_err());
        assert!(worker(r#"{"type":"barrier","attempt":0,"superstep":1,"partitions":[4294967297],"metrics":[[0,0,0,0,0,0,0]]}"#).is_err());
        assert!(coord(r#"{"type":"proceed","attempt":0,"superstep":4294967297,"in_flight":0}"#)
            .is_err());
        assert!(coord(r#"{"type":"welcome","proc":4294967297}"#).is_err());
        // A counter array of the wrong length names the table's length.
        let err = worker(
            r#"{"type":"barrier","attempt":0,"superstep":1,"partitions":[0],"metrics":[[0,0,0]]}"#,
        );
        assert_eq!(
            err.unwrap_err(),
            format!("worker metrics wants {} numbers", WorkerSuperstepMetrics::LEN)
        );
        let done = WorkerMsg::Done {
            attempt: 0,
            expand: ExpandStats::default(),
            instances: None,
            supersteps: 1,
            net: vec![(7, NetSuperstepMetrics::default())],
            pool_exhausted: 0,
            chunks_outstanding: 0,
        }
        .to_json()
        .to_string();
        assert!(worker(&done).is_ok());
        assert!(worker(&done.replace("[[7,", "[[4294967297,")).is_err(), "net superstep");
        assert!(worker(&done.replace(r#","chunks_outstanding":0"#, "")).is_err(), "no default");
    }

    #[test]
    fn coordinator_messages_roundtrip() {
        let msgs = vec![
            CoordMsg::Welcome { proc: 2 },
            CoordMsg::Start {
                attempt: 1,
                job: sample_job(),
                partitions: vec![1, 4],
                owners: vec![0, 1, 2, 0, 1, 2],
                peers: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
                resume: vec![vec![9, 8, 7]],
            },
            CoordMsg::Proceed { attempt: 0, superstep: 5, in_flight: 1234, checkpoint: true },
            CoordMsg::Abort { attempt: 3, reason: "disconnected".into() },
            CoordMsg::Stop,
        ];
        for msg in msgs {
            let json = Json::parse(&msg.to_json().to_string()).unwrap();
            assert_eq!(CoordMsg::from_json(&json).unwrap(), msg);
        }
    }
}
