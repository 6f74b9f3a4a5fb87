//! `sweep`: cold design-space exploration. Every point of a generator
//! grid runs the whole 7-model zoo, each (point, model) job on a fresh
//! `Npu`, so caches hit only within one model's run.

use crate::spans::{child_sums_ms, durations_ms, Recorder, SpanId};
use crate::stats::{geomean, insert_hit_rates, median, quantile};
use crate::{measure, par_jobs, run_part, timed, Args, Checks, Outcome};
use std::collections::BTreeMap;
use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering};
use tandem_fleet::SplitMix64;
use tandem_model::zoo::all_models;
use tandem_model::Graph;
use tandem_npu::{DesignPoint, ExecStats, Npu, NpuConfig, NpuReport, TileGranularity};

const LANES: [usize; 5] = [8, 16, 32, 64, 128];
const INTERIM_ROWS: [usize; 4] = [128, 256, 512, 1024];
const GEMM_SIDE: [usize; 5] = [8, 16, 32, 64, 128];
const GRANULARITY: [TileGranularity; 2] = [TileGranularity::Tile, TileGranularity::Layer];

/// Jobs re-run on `Npu::uncached` as the output check.
const UNCACHED_CHECKS: usize = 8;

/// Every point of the grid.
fn grid() -> Vec<NpuConfig> {
    let mut points = Vec::new();
    for granularity in GRANULARITY {
        for gemm_side in GEMM_SIDE {
            for interim_rows in INTERIM_ROWS {
                for lanes in LANES {
                    let mut cfg = DesignPoint {
                        lanes,
                        interim_rows,
                        gemm_side,
                    }
                    .npu_config();
                    cfg.granularity = granularity;
                    cfg.verify = false;
                    points.push(cfg);
                }
            }
        }
    }
    points
}

/// The `(point, model)` jobs in the order seed `seed` draws. Every seed
/// runs the whole grid: a seeded subset of points changed a unit's host
/// cost by up to 15% from seed to seed. The seed orders the jobs, which
/// sets how the worker threads pair them, and picks the uncached checks.
fn job_order(points: usize, models: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut jobs: Vec<(usize, usize)> = (0..points)
        .flat_map(|p| (0..models).map(move |m| (p, m)))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..jobs.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

pub fn run(args: &Args, off: &Recorder, rec: &Recorder) -> Outcome {
    let setup = |r: &Recorder| {
        r.span("setup", 0, |p| {
            let g: Vec<Graph> = r.span("model.build", p, |_| all_models());
            let c = grid();
            let o = job_order(c.len(), g.len(), args.seed);
            (g, c, o)
        })
    };
    let (graphs, configs, order) = setup(off);
    let jobs: Vec<(&NpuConfig, &Graph)> = order
        .iter()
        .map(|&(p, m)| (&configs[p], &graphs[m]))
        .collect();
    let run_all = |r: &Recorder, parent: SpanId| -> Vec<NpuReport> {
        par_jobs(jobs.len(), |i| {
            let (cfg, g) = jobs[i];
            r.span("npu.run", parent, |_| Npu::new(cfg.clone()).run(g))
        })
    };

    let mut checks = Checks::default();
    let mut first: Option<Vec<NpuReport>> = None;
    let (setup_s, untraced, traced) = measure(args, off, rec, setup, |r| {
        let (reports, part) = run_part(
            || r.span("sweep.unit", 0, |u| run_all(r, u)),
            |r| r.len() as u64,
        );
        match &first {
            None => first = Some(reports),
            Some(reference) => {
                let differs = reference.iter().zip(&reports).position(|(a, b)| a != b);
                checks.check("units reproduce the first", differs.is_none(), || {
                    format!("job {}: report differs between units", differs.unwrap_or(0))
                });
            }
        }
        vec![part]
    });
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let reports = first.expect("at least one unit ran");

    // Output check: a seeded sample of jobs re-run uncached must match
    // the cached reports bit for bit.
    let mut rng = SplitMix64::new(args.seed ^ 0x5eed);
    for _ in 0..UNCACHED_CHECKS {
        let i = (rng.next_u64() % jobs.len() as u64) as usize;
        let (cfg, g) = jobs[i];
        let uncached = Npu::uncached(cfg.clone()).run(g);
        checks.check(format!("job {i} uncached"), uncached == reports[i], || {
            format!("job {i} ({}): uncached report differs", g.name)
        });
    }

    // Sampled-point over paper-point cycles of the same model, geometric
    // mean over the jobs.
    let mut paper = DesignPoint::paper().npu_config();
    paper.verify = false;
    let paper_cycles: Vec<u64> = graphs
        .iter()
        .map(|g| Npu::new(paper.clone()).run(g).total_cycles)
        .collect();
    let sim_ratio = geomean(
        reports
            .iter()
            .enumerate()
            .map(|(i, r)| r.total_cycles as f64 / paper_cycles[order[i].1] as f64),
    );

    let mut layers = BTreeMap::new();
    if rec.enabled() {
        // Lowering is inside `Npu::run`; a separate pass lowers each job
        // on its own and re-runs it cold, so the NPU's remaining share
        // (core and GEMM simulation) can be read off per job.
        let probe = rec.span("probe", 0, |p| {
            par_jobs(jobs.len(), |i| {
                let (cfg, g) = jobs[i];
                let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows);
                let opts = CompileOptions {
                    verify: false,
                    ..CompileOptions::default()
                };
                let (lowered, lower_s) = timed(|| {
                    rec.span("compiler.lower", p, |_| {
                        schedule_graph_opts(&lowering, g, &opts)
                    })
                });
                let (_, run_s) =
                    timed(|| rec.span("npu.run.probe", p, |_| Npu::new(cfg.clone()).run(g)));
                let lowered = lowered.expect("every sampled job lowers");
                let instrs: usize = lowered.iter().map(|b| b.program.len()).sum();
                (lowered.len(), instrs, (run_s - lower_s) * 1e3)
            })
        });
        let spans = rec.spans();
        let build_ms = child_sums_ms(&spans, "setup", "model.build");
        layers.insert("model.build_ms", median(&build_ms));
        let lower = durations_ms(&spans, "compiler.lower");
        layers.insert("compiler.lower_ms.p50", quantile(&lower, 0.5));
        layers.insert("compiler.lower_ms.p99", quantile(&lower, 0.99));
        layers.insert(
            "compiler.blocks",
            probe.iter().map(|p| p.0 as f64).sum::<f64>(),
        );
        layers.insert(
            "compiler.instrs",
            probe.iter().map(|p| p.1 as f64).sum::<f64>(),
        );
        let cold = durations_ms(&spans, "npu.run");
        layers.insert("npu.cold_run_ms.p50", quantile(&cold, 0.5));
        layers.insert("npu.cold_run_ms.p99", quantile(&cold, 0.99));
        layers.insert(
            "npu.core_gemm_ms.p50",
            median(&probe.iter().map(|p| p.2).collect::<Vec<_>>()),
        );
        let mut st = ExecStats::default();
        for r in &reports {
            st.merge(&r.stats);
        }
        insert_hit_rates(&mut layers, &st);
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
