//! `run`: one workload in this process, or every workload in a child
//! process each.

use crate::spans::Spans;
use crate::spec::Spec;
use crate::sys;
use crate::workloads::{batch, cluster, delta, service, Ctx, Outcome};
use psgl_service::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Set-up steps whose median seconds are per-layer metrics.
const SETUP_STEP_METRICS: [(&str, &str); 4] = [
    ("graph.gen", "graph.gen_s"),
    ("graph.load", "graph.load_s"),
    ("graph.order", "graph.order_s"),
    ("core.index_build", "core.index_build_s"),
];

/// A closure residual above this is flagged as an open attribution gap.
const UNATTRIBUTED_FLAG: f64 = 0.25;

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub scale: f64,
    pub out: Option<PathBuf>,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options =
            Options { workload: None, seed: 5, seconds: None, trace: false, scale: 1.0, out: None };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || value.parse::<f64>().map_err(|e| format!("{flag} {value}: {e}"));
            match flag.as_str() {
                "--workload" => options.workload = Some(value.clone()),
                "--seed" => {
                    options.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?
                }
                "--seconds" => options.seconds = Some(number()?),
                "--scale" => options.scale = number()?,
                "--trace" => options.trace = value == "1",
                "--out" => options.out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(options)
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let outcome = Options::parse(args).and_then(|options| {
        let spec = Spec::load()?;
        match options.workload.clone() {
            Some(workload) => run_one(&spec, &workload, &options),
            None => run_all(&spec, &options),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Removes the scratch directory on every exit path of `run_one`.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metrics_json(values: &[(String, f64, String)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, value, unit)| {
                let entry =
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(unit.as_str()))]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// Runs one workload here and prints its metrics; `Ok(false)` when an
/// output was wrong.
fn run_one(spec: &Spec, workload: &str, options: &Options) -> Result<bool, String> {
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?}; BENCHMARK.json declares {:?}",
            spec.workloads
        ));
    }
    let results = spec.results_dir();
    let scratch = Scratch(results.join(format!("tmp-{workload}-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create {:?}: {e}", scratch.0))?;
    let mut ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds.unwrap_or(spec.run_seconds),
        scale: options.scale,
        trace: options.trace,
        tmp: scratch.0.clone(),
        spans: Spans::new(options.trace),
        layer: BTreeMap::new(),
        setup_steps: BTreeMap::new(),
    };
    let outcome = match workload {
        "close_kernel" => batch::run(&batch::CLOSE_KERNEL, &mut ctx),
        "twohop_skew" => batch::run(&batch::TWOHOP_SKEW, &mut ctx),
        "frontier_generic" => batch::run(&batch::FRONTIER_GENERIC, &mut ctx),
        "frontier_spill" => batch::run(&batch::FRONTIER_SPILL, &mut ctx),
        "cluster_wire" => cluster::run(&mut ctx),
        "service_mix" => service::run(&mut ctx),
        "delta_churn" => delta::run(&mut ctx),
        other => return Err(format!("workload {other:?} is declared but not implemented")),
    };
    drop(scratch);

    let ops = (outcome.op_ms.len() + outcome.traced_op_ms.len()).max(1) as f64;
    let latencies = sys::sorted(&outcome.op_ms);
    let mut end_to_end: BTreeMap<&str, f64> = BTreeMap::new();
    end_to_end.insert("setup_s", sys::median(&outcome.setup_s));
    end_to_end.insert("op_p50_ms", sys::median(&latencies));
    end_to_end.insert("work_per_s", outcome.work_per_s);
    end_to_end.insert("cpu_ms_per_op", outcome.cpu_ms_per_op);
    end_to_end.insert("peak_rss_mb", outcome.region.peak_rss_mib);

    for (step, metric) in SETUP_STEP_METRICS {
        if let Some(secs) = ctx.setup_steps.get(step) {
            ctx.set(metric, sys::median(secs));
        }
    }
    ctx.set("bench.pass_spread", sys::spread(&outcome.op_ms));
    // The highest percentile with ten samples beyond it needs a hundred
    // operations; below that the 90th is reported all the same, as a
    // reading without a bound.
    ctx.set("bench.op_p90_ms", sys::percentile(&latencies, 0.9));
    ctx.set("bench.ops", ops);
    let mut closure = None;
    if options.trace {
        let (plain, traced) = (sys::median(&outcome.op_ms), sys::median(&outcome.traced_op_ms));
        if plain > 0.0 && traced > 0.0 {
            ctx.set("obs.trace_overhead_share", traced / plain - 1.0);
        }
        let (layers, total_s, share) = ctx.spans.closure();
        ctx.set("bench.unattributed_share", share);
        closure = Some((layers, total_s, share));
    }

    // Emit exactly what BENCHMARK.json declares, in its order.
    let declared = if options.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut values = Vec::with_capacity(declared.len());
    for decl in declared {
        let value = if options.trace {
            ctx.layer.remove(&decl.name).unwrap_or(0.0)
        } else {
            *end_to_end
                .get(decl.name.as_str())
                .ok_or(format!("end-to-end metric {:?} is declared but not measured", decl.name))?
        };
        values.push((decl.name.clone(), value, decl.unit.clone()));
    }
    if let Some(stray) = ctx.layer.keys().next().filter(|_| options.trace) {
        return Err(format!("per-layer metric {stray:?} is measured but not declared"));
    }

    println!(
        "workload {workload} seed {} scale {} trace {}: {} ops ({} traced) in {:.3} s, \
         {} set-ups, work counted in {}",
        options.seed,
        options.scale,
        u8::from(options.trace),
        ops,
        outcome.traced_op_ms.len(),
        outcome.region.wall_s,
        outcome.setup_s.len(),
        outcome.work_unit,
    );
    for (name, value, unit) in &values {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    if let Some((layers, total_s, share)) = &closure {
        println!("  self time by layer over {total_s:.3} s of traced operations:");
        for (layer, secs) in layers {
            println!("    {layer:<14} {secs:>10.4} s {:>6.1} %", 100.0 * secs / total_s.max(1e-12));
        }
        if *share > UNATTRIBUTED_FLAG {
            println!(
                "  ATTRIBUTION GAP: {:.1} % of {workload}'s operation time is in no layer's span",
                100.0 * share
            );
        }
    }

    let correct = outcome.failed == 0;
    let record = record(workload, options, &ctx, &outcome, &values);
    write_results(&results, workload, options.trace, &record, &ctx.spans)?;

    let last_line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(&values)),
    ]);
    println!("{last_line}");
    Ok(correct)
}

/// Everything recorded about one workload run.
fn record(
    workload: &str,
    options: &Options,
    ctx: &Ctx,
    outcome: &Outcome,
    values: &[(String, f64, String)],
) -> Json {
    let mut notes: Vec<(String, Json)> =
        outcome.notes.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
    notes.push(("ops".into(), Json::from(outcome.op_ms.len())));
    notes.push(("traced_ops".into(), Json::from(outcome.traced_op_ms.len())));
    notes.push(("setup_repetitions".into(), Json::from(outcome.setup_s.len())));
    notes.push(("work_unit".into(), Json::from(outcome.work_unit)));
    Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(options.seed)),
        ("scale", Json::from(options.scale)),
        ("seconds", Json::from(ctx.seconds)),
        ("trace", Json::from(options.trace)),
        ("workers", Json::from(sys::workers())),
        ("machine", sys::provenance()),
        ("correct", Json::from(outcome.failed == 0)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("region_s", Json::from(outcome.region.wall_s)),
        ("op_spread", Json::from(sys::spread(&outcome.op_ms))),
        ("op_ms", Json::from(outcome.op_ms.clone())),
        ("setup_s", Json::from(outcome.setup_s.clone())),
        ("samples", Json::Obj(notes)),
        ("metrics", metrics_json(values)),
    ])
}

/// Writes the run's record, appends it to the ledger, and (traced runs)
/// writes the span file.
fn write_results(
    results: &Path,
    workload: &str,
    trace: bool,
    record: &Json,
    spans: &Spans,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    std::fs::create_dir_all(results).map_err(|e| io("create results directory", e))?;
    let kind = if trace { "per_layer" } else { "end_to_end" };
    std::fs::write(results.join(format!("{workload}.{kind}.json")), format!("{record}\n"))
        .map_err(|e| io("write result file", e))?;
    let mut ledger = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(results.join("ledger.jsonl"))
        .map_err(|e| io("open ledger", e))?;
    writeln!(ledger, "{record}").map_err(|e| io("append to ledger", e))?;
    if trace {
        std::fs::write(
            results.join(format!("trace_{workload}.json")),
            format!("{}\n", spans.to_json()),
        )
        .map_err(|e| io("write trace file", e))?;
    }
    Ok(())
}

/// Runs every declared workload twice — tracing off, then on — each in a
/// child process of its own, so that peak memory and the process-global
/// metrics registry of one workload cannot leak into the next, and writes
/// the combined result file `compare` reads.
fn run_all(spec: &Spec, options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        let mut halves = Vec::new();
        for trace in ["0", "1"] {
            let mut command = Command::new(&exe);
            command.args(["run", "--workload", workload, "--trace", trace]);
            command.args(["--seed", &options.seed.to_string()]);
            command.args(["--scale", &options.scale.to_string()]);
            if let Some(seconds) = options.seconds {
                command.args(["--seconds", &seconds.to_string()]);
            }
            let output = command
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("start child for {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_correct &= output.status.success();
            let last = stdout.lines().last().unwrap_or_default();
            halves.push(Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?);
        }
        let kind = |i: usize| halves[i].get("metrics").cloned().unwrap_or(Json::Null);
        let record =
            std::fs::read_to_string(spec.results_dir().join(format!("{workload}.end_to_end.json")))
                .ok()
                .and_then(|text| Json::parse(text.trim()).ok())
                .unwrap_or(Json::Null);
        workloads.push((
            workload.clone(),
            Json::obj([
                ("correct", halves[0].get("correct").cloned().unwrap_or(Json::Null)),
                ("op_spread", record.get("op_spread").cloned().unwrap_or(Json::Null)),
                ("samples", record.get("samples").cloned().unwrap_or(Json::Null)),
                ("end_to_end", kind(0)),
                ("per_layer", kind(1)),
            ]),
        ));
    }
    let document = Json::obj([
        ("seed", Json::from(options.seed)),
        ("scale", Json::from(options.scale)),
        ("machine", sys::provenance()),
        ("workloads", Json::Obj(workloads)),
    ]);
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| spec.results_dir().join(format!("run_seed{}.json", options.seed)));
    std::fs::write(&out, format!("{document}\n")).map_err(|e| format!("write {out:?}: {e}"))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}
