//! What the numbers were taken on, and the process's own resource
//! counters (`/proc/self`).

use crate::stats;
use stap_util::Json;
use std::fs;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds since the first call: the one clock every stamp and span of a
/// run is read from.
pub fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// `utime + stime` of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    stats::cpu_seconds_from_stat(&stat).expect("parse /proc/self/stat")
}

/// Current resident set (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Resident-set high-water mark (`VmHWM`), MB.
pub fn rss_peak_mb() -> f64 {
    status_mb("VmHWM")
}

fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    stats::status_mb(&status, key).unwrap_or_else(|| panic!("no {key} in /proc/self/status"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; `unknown` in an exported tree.
fn git_revision() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let rev = match head.strip_prefix("ref: ") {
                Some(r) => fs::read_to_string(git.join(r))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| head.to_string()),
                None => head.to_string(),
            };
            return rev;
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    "unknown".to_string()
}

/// The fields ROADMAP item 2 says the old BENCH files lack. The caller
/// appends the workload's own (transport, geometry, nodes, seed, sample
/// counts).
pub fn host_block() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "simd_backend",
            Json::Str(stap_math::simd::backend_name().to_string()),
        ),
        ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").to_string())),
        ("git_revision", Json::Str(git_revision())),
    ])
}
