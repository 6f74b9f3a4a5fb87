//! `tune`: the default-budget schedule search over five zoo models,
//! caches empty at the start of every unit as in a user's run.

use crate::spans::{child_sums_ms, durations_ms, Recorder};
use crate::stats::{geomean, insert_hit_rates, median, quantile, workers};
use crate::{measure, run_part, timed, Args, Checks, Outcome, Unit};
use std::collections::BTreeMap;
use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering, Schedule};
use tandem_model::zoo::Benchmark;
use tandem_model::Graph;
use tandem_npu::{ExecStats, Npu, NpuConfig};
use tandem_tune::{search_space, tune_in_space, TuneOptions, TuneOutcome};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// The models `tandem_tune` tracks.
const MODELS: [Benchmark; 5] = [
    Benchmark::Resnet50,
    Benchmark::Bert,
    Benchmark::Gpt2,
    Benchmark::Mobilenetv2,
    Benchmark::Yolov3,
];

/// One model's search in one unit.
struct Search {
    out: TuneOutcome,
    space_s: f64,
    stats: ExecStats,
}

/// The search results every unit must reproduce bit for bit.
fn signature(s: &Search) -> (u64, u64, usize, usize, u64) {
    let o = &s.out;
    (
        o.baseline_cycles,
        o.best_cycles,
        o.evaluated,
        o.rejected,
        o.best.digest(),
    )
}

/// The five searches, each timed as its own part of the unit.
fn search_all(graphs: &[Graph], opts: &TuneOptions, rec: &Recorder) -> (Vec<Search>, Unit) {
    rec.span("tune.unit", 0, |u| {
        graphs
            .iter()
            .map(|g| {
                run_part(
                    || {
                        let npu = Npu::new(NpuConfig::paper());
                        let (space, space_s) =
                            timed(|| rec.span("tune.space", u, |_| search_space(&npu, g)));
                        let out =
                            rec.span("tune.search", u, |_| tune_in_space(&npu, g, &space, opts));
                        Search {
                            out,
                            space_s,
                            stats: npu.stats(),
                        }
                    },
                    |s| s.out.evaluated as u64,
                )
            })
            .unzip()
    })
}

pub fn run(args: &Args, off: &Recorder, rec: &Recorder) -> Outcome {
    let setup = |r: &Recorder| {
        r.span("setup", 0, |p| {
            MODELS
                .iter()
                .map(|b| r.span("model.build", p, |_| b.graph()))
                .collect::<Vec<Graph>>()
        })
    };
    let graphs = setup(off);
    let opts = TuneOptions {
        seed: args.seed,
        jobs: workers(),
        ..TuneOptions::default()
    };

    let mut checks = Checks::default();
    let mut first: Option<Vec<Search>> = None;
    let mut traced_searches: Vec<Vec<Search>> = Vec::new();
    let (setup_s, untraced, traced) = measure(args, off, rec, setup, |r| {
        let (searches, unit) = search_all(&graphs, &opts, r);
        match &first {
            None => first = Some(searches),
            Some(reference) => {
                for (a, b) in reference.iter().zip(&searches) {
                    let model = &a.out.model;
                    checks.check(
                        format!("{model}: units reproduce the first"),
                        signature(a) == signature(b),
                        || format!("{model}: search differs between units"),
                    );
                }
                if r.enabled() {
                    traced_searches.push(searches);
                }
            }
        }
        unit
    });
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let searches = first.expect("at least one unit ran");

    // Output checks: each best schedule re-verifies clean (widened) and
    // its recorded cycles, like the baseline's, equal an uncached re-score.
    let mut layers = BTreeMap::new();
    let (mut blocks, mut instrs, mut diagnostics) = (0u64, 0u64, 0u64);
    let mut pass_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut core_gemm_ms = Vec::new();
    rec.span("check", 0, |c| {
        for (g, s) in graphs.iter().zip(&searches) {
            let out = &s.out;
            let cfg = NpuConfig::paper();
            let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows);
            let verifier = Verifier::new(
                VerifyConfig::for_lowering(cfg.tandem.lanes, cfg.tandem.interim_rows)
                    .with_mode(VerifyMode::Widened),
            );
            let model = &out.model;
            for (which, schedule, cycles) in [
                ("baseline", Schedule::empty(), out.baseline_cycles),
                ("best", out.best.schedule(), out.best_cycles),
            ] {
                let opts = CompileOptions {
                    verify: false,
                    verify_mode: VerifyMode::Widened,
                    schedule: schedule.clone(),
                };
                let (lowered, lower_s) = timed(|| {
                    rec.span("compiler.lower", c, |_| {
                        schedule_graph_opts(&lowering, g, &opts)
                    })
                });
                checks.check(format!("{model}: {which} lowers"), lowered.is_ok(), || {
                    format!("{model}: {which} schedule fails to lower")
                });
                let Ok(lowered) = lowered else {
                    continue;
                };
                blocks += lowered.len() as u64;
                instrs += lowered.iter().map(|b| b.program.len() as u64).sum::<u64>();
                if !schedule.is_empty() {
                    let mut clean = true;
                    for b in &lowered {
                        let run =
                            rec.span("verify.block", c, |_| verifier.verify_timed(&b.program));
                        clean &= run.report.is_clean();
                        diagnostics += run.report.diagnostics.len() as u64;
                        for p in &run.passes {
                            *pass_ms.entry(p.name).or_default() += p.wall.as_secs_f64() * 1e3;
                        }
                    }
                    checks.check(format!("{model}: {which} verifies clean"), clean, || {
                        format!("{model}: {which} schedule fails widened verify")
                    });
                }
                let mut run_cfg = cfg.clone();
                run_cfg.verify = false;
                run_cfg.schedule = schedule;
                let (report, run_s) =
                    timed(|| rec.span("npu.cold_run", c, |_| Npu::uncached(run_cfg).run(g)));
                core_gemm_ms.push((run_s - lower_s) * 1e3);
                checks.check(
                    format!("{model}: {which} re-scores uncached"),
                    report.total_cycles == cycles,
                    || {
                        format!(
                            "{model}: {which} recorded {cycles} cycles, uncached re-score {}",
                            report.total_cycles
                        )
                    },
                );
            }
        }
    });

    // Tuned over hand-scheduled cycles, geometric mean over the models.
    let sim_ratio = geomean(
        searches
            .iter()
            .map(|s| s.out.best_cycles as f64 / s.out.baseline_cycles as f64),
    );

    if rec.enabled() {
        let spans = rec.spans();
        let build_ms = child_sums_ms(&spans, "setup", "model.build");
        layers.insert("model.build_ms", median(&build_ms));
        let lower = durations_ms(&spans, "compiler.lower");
        layers.insert("compiler.lower_ms.p50", quantile(&lower, 0.5));
        layers.insert("compiler.lower_ms.p99", quantile(&lower, 0.99));
        layers.insert("compiler.blocks", blocks as f64);
        layers.insert("compiler.instrs", instrs as f64);
        let verify = durations_ms(&spans, "verify.block");
        layers.insert("verify.block_ms.p50", quantile(&verify, 0.5));
        layers.insert("verify.block_ms.p99", quantile(&verify, 0.99));
        for (name, ms) in pass_ms {
            if let Some(metric) = pass_metric(name) {
                layers.insert(metric, ms);
            }
        }
        layers.insert("verify.diagnostics", diagnostics as f64);
        let cold = durations_ms(&spans, "npu.cold_run");
        layers.insert("npu.cold_run_ms.p50", quantile(&cold, 0.5));
        layers.insert("npu.cold_run_ms.p99", quantile(&cold, 0.99));
        layers.insert("npu.core_gemm_ms.p50", median(&core_gemm_ms));

        // Host times from the traced units (the first unit, the
        // determinism reference, is untraced).
        let per_unit = |f: &dyn Fn(&Search) -> f64| {
            median(
                &traced_searches
                    .iter()
                    .map(|u| u.iter().map(f).sum::<f64>())
                    .collect::<Vec<_>>(),
            )
        };
        layers.insert("tune.space_s", per_unit(&|s| s.space_s));
        layers.insert("tune.verify_s", per_unit(&|s| s.out.verify_wall_s));
        layers.insert("tune.sim_s", per_unit(&|s| s.out.sim_wall_s));

        let mut st = ExecStats::default();
        for s in &searches {
            st.merge(&s.stats);
        }
        insert_hit_rates(&mut layers, &st);
        let evaluated: usize = searches.iter().map(|s| s.out.evaluated).sum();
        let rejected: usize = searches.iter().map(|s| s.out.rejected).sum();
        layers.insert("tune.evaluated", evaluated as f64);
        layers.insert(
            "tune.accept_frac",
            (evaluated - rejected) as f64 / evaluated.max(1) as f64,
        );
    }

    Outcome {
        setup_s,
        peak_rss_mb,
        untraced,
        traced,
        sim_ratio,
        checks,
        layers,
    }
}

/// The per-layer metric name of a verify pass; `None` for a pass the
/// benchmark does not list.
fn pass_metric(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "dead-traffic" => "verify.pass.dead-traffic_ms",
        "scratchpad" => "verify.pass.scratchpad_ms",
        "closure" => "verify.pass.closure_ms",
        "sync-deadlock" => "verify.pass.sync-deadlock_ms",
        "sync-pairing" => "verify.pass.sync-pairing_ms",
        "loop-summaries" => "verify.pass.loop-summaries_ms",
        _ => return None,
    })
}
