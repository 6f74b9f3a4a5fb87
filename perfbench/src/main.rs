//! Repeatable benchmark of the Tandem simulator's host cost.
//!
//! ```text
//! perfbench --workload <tune|sweep|serve|decode> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats the workload's set-up and unit of work for `--seconds`
//! (reporting medians), checks every output, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1`
//! untraced and traced units alternate and the metrics are the per-layer
//! ones ([`PER_LAYER`]), derived from spans recorded around the
//! benchmark's calls into each crate plus counters the crates return.
//! Every run also writes its fingerprint, metrics and spans to
//! `perfbench/out/`. See `perfbench/README.md` for what each workload
//! and metric is for.

mod serve;
mod spans;
mod stats;
mod sweep;
mod tune;

use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload in a traced run: `(name,
/// unit)`. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("model.build_ms", "ms"),
    ("compiler.lower_ms.p50", "ms"),
    ("compiler.lower_ms.p99", "ms"),
    ("compiler.blocks", "count"),
    ("compiler.instrs", "count"),
    ("verify.block_ms.p50", "ms"),
    ("verify.block_ms.p99", "ms"),
    ("verify.pass.dead-traffic_ms", "ms"),
    ("verify.pass.scratchpad_ms", "ms"),
    ("verify.pass.closure_ms", "ms"),
    ("verify.pass.sync-deadlock_ms", "ms"),
    ("verify.pass.sync-pairing_ms", "ms"),
    ("verify.pass.loop-summaries_ms", "ms"),
    ("verify.diagnostics", "count"),
    ("npu.cold_run_ms.p50", "ms"),
    ("npu.cold_run_ms.p99", "ms"),
    ("npu.core_gemm_ms.p50", "ms"),
    ("npu.compile_hit_rate", "fraction"),
    ("npu.sim_hit_rate", "fraction"),
    ("npu.gemm_hit_rate", "fraction"),
    ("npu.graph_hit_rate", "fraction"),
    ("npu.sim_misses", "count"),
    ("tune.space_s", "s"),
    ("tune.verify_s", "s"),
    ("tune.sim_s", "s"),
    ("tune.evaluated", "count"),
    ("tune.accept_frac", "fraction"),
    ("fleet.serve_s", "s"),
    ("fleet.p99_ms", "ms"),
    ("fleet.queue_p99_ms", "ms"),
    ("fleet.mem_stall_p99_ms", "ms"),
    ("fleet.util", "fraction"),
    ("fleet.drop_frac", "fraction"),
    ("llm.tables_s", "s"),
    ("llm.serve_s", "s"),
    ("llm.iterations", "count"),
    ("llm.ttft_p99_ms", "ms"),
    ("llm.tpot_p99_ms", "ms"),
    ("llm.preemptions", "count"),
    ("trace.overhead_frac", "fraction"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Output checks of one run, by name. Checking a name again folds into
/// the same check, which fails if any of its calls failed: a property
/// checked on every unit, or on every request of a stream, counts once,
/// so each kind of check weighs the same in `ok_frac`.
#[derive(Default)]
pub struct Checks {
    results: BTreeMap<String, bool>,
}

impl Checks {
    /// Records `ok` under `name`; `what` describes a failure (printed for
    /// the first failure of each name).
    pub fn check(&mut self, name: impl Into<String>, ok: bool, what: impl FnOnce() -> String) {
        let passed = self.results.entry(name.into()).or_insert(true);
        if !ok && *passed {
            eprintln!("check failed: {}", what());
        }
        *passed &= ok;
    }

    pub fn attempted(&self) -> u64 {
        self.results.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.results.values().filter(|ok| !**ok).count() as u64
    }
}

/// One timed part of a unit of work. Most units are one part; a `tune`
/// unit has one part per model searched.
pub struct Part {
    pub wall_s: f64,
    /// Simulated jobs the part completed (candidates, runs, requests or
    /// tokens, by workload).
    pub jobs: u64,
}

/// One repetition of a workload's unit of work, part by part. Every unit
/// of a run has the same parts.
pub type Unit = Vec<Part>;

/// What a workload measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Peak resident set after the timed units, before any output check.
    pub peak_rss_mb: f64,
    pub untraced: Vec<Unit>,
    pub traced: Vec<Unit>,
    /// The workload's headline simulated result as a ratio to a reference
    /// simulated in the same run (lower is better).
    pub sim_ratio: f64,
    pub checks: Checks,
    /// Per-layer values the workload measured (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Repeats `unit` until `seconds` have passed (at least once). In a
/// traced run untraced and traced units alternate, so both see the same
/// host conditions; `setup` and `unit` get the recorder to use.
///
/// Before every unit the workload's set-up runs again from scratch, is
/// timed and is dropped: set-up samples then spread over the whole run,
/// as the units do, instead of catching the host in one state for a
/// fraction of a second. Returns the set-up times and both sets of units.
pub fn measure<S>(
    args: &Args,
    off: &Recorder,
    rec: &Recorder,
    mut setup: impl FnMut(&Recorder) -> S,
    mut unit: impl FnMut(&Recorder) -> Unit,
) -> (Vec<f64>, Vec<Unit>, Vec<Unit>) {
    let (mut setup_s, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = |r: &Recorder| {
        let (state, secs) = timed(|| setup(r));
        drop(state);
        setup_s.push(secs);
    };
    let t0 = Instant::now();
    loop {
        set_up(off);
        untraced.push(unit(off));
        if args.trace {
            set_up(rec);
            traced.push(unit(rec));
        }
        if t0.elapsed().as_secs_f64() >= args.seconds {
            return (setup_s, untraced, traced);
        }
    }
}

/// The reported wall time of one unit: the sum over its parts of each
/// part's median over the repetitions.
pub fn unit_wall(units: &[Unit]) -> f64 {
    (0..units.first().map_or(0, Vec::len))
        .map(|i| stats::median(&units.iter().map(|u| u[i].wall_s).collect::<Vec<_>>()))
        .sum()
}

/// Runs and times one part of a unit, `f`; `jobs` counts the simulated
/// jobs in its result.
pub fn run_part<R>(f: impl FnOnce() -> R, jobs: impl FnOnce(&R) -> u64) -> (R, Part) {
    let (out, wall_s) = timed(f);
    let jobs = jobs(&out);
    (out, Part { wall_s, jobs })
}

/// Runs `job(i)` for `i in 0..n` on the host's worker threads; results
/// come back in index order.
pub fn par_jobs<R: Send>(n: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..stats::workers().min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("a job panicked") = Some(job(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a job panicked")
                .expect("every job ran")
        })
        .collect()
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <tune|sweep|serve|decode> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let off = Recorder::new(false);
    let rec = Recorder::new(args.trace);
    let out = match args.workload.as_str() {
        "tune" => tune::run(&args, &off, &rec),
        "sweep" => sweep::run(&args, &off, &rec),
        "serve" => serve::run_fleet(&args, &off, &rec),
        "decode" => serve::run_decode(&args, &off, &rec),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let fingerprint = stats::fingerprint_json(args.seed);
    let spans = rec.spans();

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let mut layers = out.layers;
        layers.insert(
            "trace.overhead_frac",
            unit_wall(&out.traced) / unit_wall(&out.untraced) - 1.0,
        );
        for (name, _) in PER_LAYER {
            metrics.insert(name, layers.get(name).copied().unwrap_or(0.0));
        }
    } else {
        metrics.insert("setup_s", stats::median(&out.setup_s));
        metrics.insert("peak_rss_mb", out.peak_rss_mb);
        metrics.insert(
            "ok_frac",
            1.0 - out.checks.failed() as f64 / out.checks.attempted().max(1) as f64,
        );
        metrics.insert("wall_s", unit_wall(&out.untraced));
        let jobs: u64 = out.untraced[0].iter().map(|p| p.jobs).sum();
        metrics.insert("jobs_per_s", jobs as f64 / unit_wall(&out.untraced));
        metrics.insert("sim_ratio", out.sim_ratio);
    }
    let units: BTreeMap<&str, &str> = END_TO_END.into_iter().chain(PER_LAYER).collect();
    let finite = metrics.values().all(|v| v.is_finite());
    let correct = out.checks.failed() == 0 && out.checks.attempted() > 0 && finite;

    let mut metrics_json = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics_json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            units[name]
        );
    }
    metrics_json.push('}');

    // The record of this run: fingerprint, metrics, every set-up and unit
    // time, span self times and the spans themselves.
    let self_ms = spans::self_ms_by_name(&spans);
    let list = |v: &mut dyn Iterator<Item = f64>| {
        let items: Vec<String> = v.map(|x| format!("{x:.6}")).collect();
        format!("[{}]", items.join(", "))
    };
    let mut record = format!(
        "{{\n  \"workload\": \"{}\",\n  \"fingerprint\": {fingerprint},\n  \
         \"metrics\": {metrics_json},\n  \"setup_s\": {},\n  \"part_wall_s\": {},\n  \
         \"traced_part_wall_s\": {},\n  \"self_ms\": {{",
        args.workload,
        list(&mut out.setup_s.iter().copied()),
        list(&mut out.untraced.iter().flatten().map(|p| p.wall_s)),
        list(&mut out.traced.iter().flatten().map(|p| p.wall_s)),
    );
    for (i, (name, ms)) in self_ms.iter().enumerate() {
        let _ = write!(
            record,
            "{}\"{name}\": {ms:.3}",
            if i == 0 { "" } else { ", " }
        );
    }
    let _ = write!(
        record,
        "}},\n  \"spans\": {}\n}}\n",
        spans::spans_json(&spans, &args.workload)
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }

    println!("fingerprint {fingerprint}");
    println!(
        "{} seed {}: {} untraced / {} traced units, {} of {} checks failed; record in {path}",
        args.workload,
        args.seed,
        out.untraced.len(),
        out.traced.len(),
        out.checks.failed(),
        out.checks.attempted()
    );
    for (name, ms) in &self_ms {
        println!("  self {name:<24} {ms:>12.3} ms");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        out.checks.attempted(),
        out.checks.failed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name checked again folds into one check that fails if any call
    /// failed.
    #[test]
    fn checks_fold_by_name() {
        let mut checks = Checks::default();
        for i in 0..100 {
            checks.check("repeat", i != 7, String::new);
        }
        checks.check("other", true, String::new);
        assert_eq!((checks.attempted(), checks.failed()), (2, 1));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
