//! What the benchmark reads from the host: CPU time, peak memory, core
//! count, toolchain and commit (for stamping results), and the `TGL_*`
//! variables it must not inherit.

use tgl_data::Json;

/// `(user, system)` CPU seconds this process has used, all threads.
/// Zero where `/proc` is unavailable.
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The comm field may contain spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(pos) = stat.rfind(')') else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = stat[pos + 1..].split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    const USER_HZ: f64 = 100.0;
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" in a checkout that is not a git repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string(); // detached HEAD holds the hash itself
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V` of the toolchain on `PATH`, or "unknown".
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every `TGL_*` variable set in this process's environment.
pub fn tgl_env() -> Vec<(String, String)> {
    let mut vars: Vec<_> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.to_str()?.to_string();
            k.starts_with("TGL_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    vars.sort();
    vars
}

/// The host part of a result's stamp.
pub fn stamp() -> Vec<(String, Json)> {
    vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        (
            "simd".into(),
            Json::Str(tgl_tensor::kernel::simd_label().into()),
        ),
        ("git_commit".into(), Json::Str(git_commit())),
        ("rustc".into(), Json::Str(rustc_version())),
    ]
}
