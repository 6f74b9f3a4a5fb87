//! # tandem-bench
//!
//! The benchmark harness reproducing **every table and figure** of the
//! Tandem Processor paper's evaluation (§2, §8). Each `fig*`/`table*`
//! function regenerates the corresponding result — same benchmarks, same
//! baselines, same series — and prints it next to the paper's reported
//! value; [`figures::ALL`] registers them by id. `EXPERIMENTS.md` at the
//! repository root records the full paper-vs-measured comparison.
//!
//! Run a single experiment by id:
//! ```text
//! cargo run -p tandem-bench --release --bin all_figures -- fig14
//! ```
//! or everything at once:
//! ```text
//! cargo run -p tandem-bench --release --bin all_figures
//! ```

#![warn(missing_docs)]

pub mod figures;
pub mod suite;
pub mod table;

pub use suite::Suite;

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean solo service time (ns) of the weighted model `mix` (catalog
/// index, weight) on the `probe` NPU — the capacity yardstick the
/// serving benches derive their offered rates from.
pub fn mean_service_ns(
    probe: &tandem_npu::Npu,
    catalog: &tandem_fleet::Catalog,
    mix: &[(usize, f64)],
) -> f64 {
    let freq = probe.config().tandem.freq_ghz;
    let total: f64 = mix.iter().map(|&(_, w)| w).sum();
    mix.iter()
        .map(|&(m, w)| probe.estimate(catalog.graph(m)) as f64 / freq * w / total)
        .sum()
}

/// Reads the number after `"<key>":` out of a committed baseline JSON
/// file — the regression floors the `--smoke` benchmark modes enforce.
/// `None` when the file or key is missing.
pub fn read_floor(path: &str, key: &str) -> Option<f64> {
    let s = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{key}\":");
    let rest = s[s.find(&key)? + key.len()..].trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
