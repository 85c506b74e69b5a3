//! What the harness reads from the operating system, and the order
//! statistics every metric is reported through.

use psgl_service::Json;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat`; `USER_HZ` is 100
/// on every Linux configuration this benchmark targets.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far (all
/// threads, including ones that already exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after its
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

/// Engine workers / client connections a workload may use: the issue caps
/// load generation at two, and never more than the machine has cores.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine, toolchain and commit a result was measured on.
pub fn provenance() -> Json {
    let mem_kib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|r| r.split_whitespace().next().and_then(|k| k.parse::<f64>().ok()))
        })
        .unwrap_or(0.0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()))),
        ("ram_gib", Json::from(mem_kib / (1024.0 * 1024.0))),
        ("kernel", Json::from(kernel)),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        ("commit", Json::from(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median: the spread `compare`
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = median(&v);
    if v.len() < 4 || mid == 0.0 {
        return 0.0;
    }
    (percentile(&v, 0.75) - percentile(&v, 0.25)) / mid
}
