//! What every output is stamped with: core count, build profile, git
//! revision, and the process's memory figures.

use std::path::Path;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the checkout the benchmark was built from, read
/// straight from `.git` (no subprocess); `"unknown"` outside a git
/// checkout.
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&git.join(name)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(name).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB, or 0
/// where the kernel does not expose it.
fn memory_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident memory now, MiB.
pub fn rss_mb() -> f64 {
    memory_mb("VmRSS")
}

/// Peak resident memory of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    memory_mb("VmHWM")
}
