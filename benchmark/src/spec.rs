//! `BENCHMARK.json`: the one declaration of workloads, metric names, units
//! and regression bounds. `run` emits exactly the metrics it declares and
//! `compare` reads its bounds, so neither keeps a second copy.

use psgl_service::Json;
use std::path::{Path, PathBuf};

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Directory that holds `BENCHMARK.json` (the checkout root).
    pub root: PathBuf,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// Finds `BENCHMARK.json` in the working directory (how the driver and
    /// the README run the benchmark) or, failing that, next to this
    /// package (how `cargo test` runs it).
    pub fn load() -> Result<Spec, String> {
        let candidates = [PathBuf::from("."), Path::new(env!("CARGO_MANIFEST_DIR")).join("..")];
        let root = candidates
            .iter()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .ok_or("BENCHMARK.json not found in the working directory or the repo root")?;
        let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
            .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: missing {key:?}"))
        };
        let text_field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_field(m, "name")?,
                        unit: text_field(m, "unit")?,
                        higher_is_better: text_field(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            root: root.clone(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing \"run_seconds\"")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Where result files, traces, the ledger and scratch inputs go.
    pub fn results_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("results")
    }
}
