//! Small numeric helpers, the NPU cache counters and the host
//! fingerprint.

use std::collections::BTreeMap;
use std::process::Command;
use tandem_npu::ExecStats;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Geometric mean of positive values; 0 for an empty input.
pub fn geomean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for x in v {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The NPU's four cache hit rates and its node-simulation misses, as
/// per-layer metrics.
pub fn insert_hit_rates(layers: &mut BTreeMap<&'static str, f64>, st: &ExecStats) {
    layers.insert(
        "npu.compile_hit_rate",
        rate(st.compile_hits, st.compile_misses),
    );
    layers.insert("npu.sim_hit_rate", rate(st.sim_hits, st.sim_misses));
    layers.insert("npu.gemm_hit_rate", rate(st.gemm_hits, st.gemm_misses));
    layers.insert("npu.graph_hit_rate", rate(st.graph_hits, st.graph_misses));
    layers.insert("npu.sim_misses", st.sim_misses as f64);
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the workloads may use: the host's cores.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host fingerprint recorded with every result, as a JSON object.
pub fn fingerprint_json(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"profile\": \"{profile}\", \"rustc\": \"{}\", \
         \"seed\": {seed}}}",
        workers(),
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
