//! `compare`: two sets of complete runs (the files `run` without
//! `--workload` writes) held against the bounds in `BENCHMARK.json`.

use crate::spec::{MetricDecl, Spec};
use crate::sys;
use psgl_service::Json;
use std::process::ExitCode;

/// One side of the comparison: one or more result files of the same
/// commit, comma-separated on the command line.
struct Side(Vec<Json>);

impl Side {
    fn load(arg: &str) -> Result<Side, String> {
        arg.split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<_, _>>()
            .map(Side)
    }

    /// The metric's value in every file that has it.
    fn values(&self, workload: &str, kind: &str, metric: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter_map(|doc| {
                doc.get("workloads")?.get(workload)?.get(kind)?.get(metric)?.get("value")?.as_f64()
            })
            .collect()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if decl.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: psgl-benchmark compare A.json[,A2.json...] B.json[,B2.json...]");
        return ExitCode::from(2);
    };
    match compare(a, b) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison and returns how many pairings are `worse`.
fn compare(a: &str, b: &str) -> Result<usize, String> {
    let spec = Spec::load()?;
    let (a, b) = (Side::load(a)?, Side::load(b)?);
    let mut worse = 0;
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    for workload in &spec.workloads {
        for decl in &spec.end_to_end {
            let (va, vb) = (
                a.values(workload, "end_to_end", &decl.name),
                b.values(workload, "end_to_end", &decl.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {:<14} missing on one side", decl.name);
                continue;
            }
            let (ma, mb) = (sys::median(&va), sys::median(&vb));
            let bound = decl.bound.unwrap_or(0.0);
            let by = worsening(decl, ma, mb);
            // The spread between runs of one commit needs four or more of
            // them; with fewer it is unknown and only the bound decides.
            let spread = sys::spread(&va).max(sys::spread(&vb));
            let verdict = if spread > bound {
                "unresolved"
            } else if by > bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {:<14} {ma:>16.4} {mb:>16.4} {:>8.1}% {:>6.0}%  {verdict}{}",
                decl.name,
                100.0 * by,
                100.0 * bound,
                if spread > 0.0 {
                    format!(" (spread {:.1}%)", 100.0 * spread)
                } else {
                    String::new()
                },
            );
        }
        // Counts per operation repeat exactly when the engine does the
        // same work; a difference is a change in work done, not noise.
        for decl in spec.per_layer.iter().filter(|d| d.unit == "count") {
            let (va, vb) = (
                a.values(workload, "per_layer", &decl.name),
                b.values(workload, "per_layer", &decl.name),
            );
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                if x != y {
                    println!("{workload:<18} {:<32} count differs: {x} vs {y}", decl.name);
                }
            }
        }
    }
    println!("{worse} pairing(s) worse than their bound");
    Ok(worse)
}
