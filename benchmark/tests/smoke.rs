//! Every workload at a twentieth of its size: the result line keeps the
//! contract of `BENCHMARK.json` and the correctness gate passes, on two
//! seeds. Run with `cargo test --release`; the engine is slow unoptimised.

use psgl_service::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn declaration() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// A directory holding only a copy of `BENCHMARK.json`, so that the runs
/// below leave their result files there and not in the repo.
fn sandbox() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("create sandbox");
    std::fs::copy(repo_root().join("BENCHMARK.json"), dir.join("BENCHMARK.json")).expect("copy");
    dir
}

/// Runs one workload and returns its result line, parsed.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_psgl-benchmark"))
        .current_dir(sandbox())
        .args(["run", "--workload", workload, "--scale", "0.05", "--seconds", "0.3"])
        .args(["--seed", &seed.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} seed {seed} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

fn keys(object: &Json) -> Vec<&str> {
    match object {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

fn text<'a>(object: &'a Json, key: &str) -> &'a str {
    object.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string {key:?}"))
}

/// The result carries exactly the declared metrics of its kind, each once,
/// in the declared order, with the declared unit.
fn assert_contract(result: &Json, declared: &[Json], what: &str) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"], "{what}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{what}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1, "{what}");
    let metrics = result.get("metrics").expect("metrics");
    let names: Vec<&str> = declared.iter().map(|m| text(m, "name")).collect();
    assert_eq!(keys(metrics), names, "{what}");
    for decl in declared {
        let name = text(decl, "name");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?}"
        );
        let entry = metrics.get(name).expect("declared metric");
        assert_eq!(keys(entry), ["value", "unit"], "{what} {name}");
        assert_eq!(text(entry, "unit"), text(decl, "unit"), "{what} {name}");
        let value = entry.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{what} {name} = {value}");
    }
}

#[test]
fn every_workload_keeps_the_contract_on_two_seeds() {
    let declaration = declaration();
    let list = |key: &str| declaration.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let (end_to_end, per_layer) = (list("end_to_end"), list("per_layer"));
    for workload in list("workloads") {
        let workload = text(&workload, "name");
        let result = run(workload, 7, false);
        assert_contract(&result, &end_to_end, workload);
        for decl in &end_to_end {
            let value = result.get("metrics").and_then(|m| m.get(text(decl, "name")));
            let value = value.and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(value.unwrap_or(0.0) > 0.0, "{workload}: {} is never 0", text(decl, "name"));
        }
        assert_contract(&run(workload, 7, true), &per_layer, workload);
        assert_contract(&run(workload, 8, false), &end_to_end, workload);
        let trace = sandbox().join("benchmark/results").join(format!("trace_{workload}.json"));
        let spans = Json::parse(std::fs::read_to_string(trace).expect("trace file").trim());
        assert!(!spans.expect("trace parses").as_arr().expect("span array").is_empty());
    }
}
