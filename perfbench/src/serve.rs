//! `serve` and `decode`: long streaming runs of the two serving engines.
//!
//! * `serve` — diurnal plus flash-crowd open-loop streams over the zoo
//!   mix, on four NPUs sharing one HBM budget, so that every dispatch and
//!   completion re-shares bandwidth. The NPU appears only in set-up.
//! * `decode` — GPT-2 continuous batching with block-boundary
//!   preemption through the iteration-level LLM engine.
//!
//! A unit serves [`STREAMS`] independently seeded streams, shared out to
//! the worker threads as `tandem_serve` shards its sweep cells. Units run
//! the engines in streaming mode (flat memory, sketched percentiles); one
//! more run of each stream with per-request records kept checks the
//! outputs request by request and gives the exact percentiles reported.

use crate::spans::{child_sums_ms, durations_ms, Recorder};
use crate::stats::{geomean, insert_hit_rates, median, peak_rss_mb, quantile};
use crate::{measure, par_jobs, run_part, unit_wall, Args, Checks, Outcome};
use std::collections::BTreeMap;
use tandem_fleet::llm::{
    DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmModelSpec, LlmRequest, LlmWorkloadSpec,
};
use tandem_fleet::{
    ArrivalProcess, Catalog, Fleet, FleetConfig, FleetReport, LatencyStats, Policy, WorkloadSpec,
};
use tandem_npu::{Npu, NpuConfig};

const FLEET: usize = 4;
/// Streams per unit: several per worker thread, so that a thread on a
/// faster core serves more of them and a unit's wall time follows the
/// cores' combined speed rather than the slowest core's.
const STREAMS: usize = 8;
/// Whole-graph requests per `serve` stream.
const SERVE_REQUESTS: usize = 50_000;
/// LLM requests per `decode` stream.
const DECODE_REQUESTS: usize = 12_500;
/// Prompt lengths of the LLM requests, in tokens (inclusive).
const PROMPT_TOKENS: (usize, usize) = (8, 24);

/// The seed of stream `i` of a run seeded `seed`.
fn stream_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 0x9e37_79b9_7f4a_7c15)
}

fn streaming_config() -> FleetConfig {
    let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), FLEET);
    cfg.retain_records = false;
    cfg
}

/// The checks every streaming report must pass, one per stream over all
/// units: every offered request is accounted for, and each unit
/// reproduces the first exactly.
fn check_reports(
    checks: &mut Checks,
    first: &mut Option<Vec<FleetReport>>,
    reports: Vec<FleetReport>,
) {
    for (i, r) in reports.iter().enumerate() {
        checks.check(
            format!("stream {i}: offered accounted for"),
            r.completed + r.dropped + r.timed_out == r.offered,
            || {
                format!(
                    "stream {i}: {} completed + {} dropped + {} timed out != {} offered",
                    r.completed, r.dropped, r.timed_out, r.offered
                )
            },
        );
    }
    match first {
        None => *first = Some(reports),
        Some(reference) => {
            for (i, (a, b)) in reference.iter().zip(&reports).enumerate() {
                checks.check(
                    format!("stream {i}: units reproduce the first"),
                    a.to_json() == b.to_json(),
                    || format!("stream {i}: serving report differs between units"),
                );
            }
        }
    }
}

/// The streaming run of stream `i` must have the retained run's counts,
/// and its sketched p99 must lie within the sketch's 1/32 relative error
/// of the exact one.
fn check_streaming(
    checks: &mut Checks,
    i: usize,
    streamed: &FleetReport,
    retained: &FleetReport,
    sketch: &LatencyStats,
    exact: &LatencyStats,
) {
    let counts = |r: &FleetReport| (r.offered, r.completed, r.dropped, r.timed_out);
    checks.check(
        format!("stream {i}: streamed counts"),
        counts(streamed) == counts(retained),
        || {
            format!(
                "stream {i}: streaming counts {:?} != retained {:?}",
                counts(streamed),
                counts(retained)
            )
        },
    );
    checks.check(
        format!("stream {i}: sketched p99"),
        sketch.p99_ns.abs_diff(exact.p99_ns) <= exact.p99_ns / 32 + 1,
        || {
            format!(
                "stream {i}: sketched p99 {} ns vs exact {} ns",
                sketch.p99_ns, exact.p99_ns
            )
        },
    );
}

/// Stream `i`'s retained run keeps one record per completed request.
fn check_records(checks: &mut Checks, i: usize, records: usize, report: &FleetReport) {
    checks.check(
        format!("stream {i}: one record per completion"),
        records as u64 == report.completed,
        || {
            format!(
                "stream {i}: {records} records for {} completed requests",
                report.completed
            )
        },
    );
}

/// Per-layer values both engines report (from the first stream).
fn fleet_layers(layers: &mut BTreeMap<&'static str, f64>, report: &FleetReport) {
    layers.insert("fleet.p99_ms", report.latency.p99_ns as f64 / 1e6);
    layers.insert("fleet.queue_p99_ms", report.queue.p99_ns as f64 / 1e6);
    layers.insert(
        "fleet.mem_stall_p99_ms",
        report.mem_stall.p99_ns as f64 / 1e6,
    );
    layers.insert("fleet.util", report.mean_utilization());
    layers.insert(
        "fleet.drop_frac",
        (report.dropped + report.timed_out) as f64 / report.offered.max(1) as f64,
    );
}

pub fn run_fleet(args: &Args, off: &Recorder, rec: &Recorder) -> Outcome {
    let setup = |r: &Recorder| {
        r.span("setup", 0, |p| {
            let catalog = r.span("model.build", p, |_| Catalog::zoo());
            let pool = Npu::fleet(&vec![NpuConfig::paper(); FLEET]);
            let demands: Vec<_> = (0..catalog.len())
                .map(|m| {
                    r.span("npu.cold_run", p, |_| {
                        pool[0].estimate_demand(catalog.graph(m))
                    })
                })
                .collect();
            (catalog, pool, demands)
        })
    };
    let (catalog, pool, demands) = setup(off);

    // Capacity of the uniform mix without contention, and an HBM budget
    // of twice one member's time-averaged demand on the mix, so a fleet
    // with more than two members serving contends.
    let freq = pool[0].config().tandem.freq_ghz;
    let total_ns: f64 = demands.iter().map(|d| d.total_cycles as f64 / freq).sum();
    let total_bytes: f64 = demands.iter().map(|d| d.dram_bytes as f64).sum();
    let mean_service_ns = total_ns / demands.len() as f64;
    let cap_rps = FLEET as f64 * 1e9 / mean_service_ns;
    let mut cfg = streaming_config();
    cfg.hbm_gbps = Some(2.0 * total_bytes / total_ns);
    // The arrival shape of `bench_serve`'s diurnal_10m scenario: load
    // swings between 0.6x and 1.4x that capacity over four day-night
    // cycles, with a flash crowd at capacity on top for 2% of the
    // horizon, starting mid-trace.
    let horizon_ns = (SERVE_REQUESTS as f64 / cap_rps * 1e9) as u64;
    let specs: Vec<WorkloadSpec> = (0..STREAMS)
        .map(|i| WorkloadSpec {
            mix: (0..catalog.len()).map(|m| (m, 1.0)).collect(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: 0.6 * cap_rps,
                peak_rps: 1.4 * cap_rps,
                period_ns: horizon_ns / 4,
                flash_at_ns: horizon_ns / 2,
                flash_ns: horizon_ns / 50,
                flash_rps: cap_rps,
            },
            seed: stream_seed(args.seed, i),
            requests: SERVE_REQUESTS,
        })
        .collect();
    let serve = |cfg: &FleetConfig, i: usize| {
        Fleet::with_members(cfg.clone(), pool.clone()).serve(&catalog, &specs[i], Policy::Fifo)
    };

    let mut checks = Checks::default();
    let mut first = None;
    let (setup_s, untraced, traced) = measure(args, off, rec, setup, |r| {
        let (reports, part) = run_part(
            || r.span("fleet.serve", 0, |_| par_jobs(STREAMS, |i| serve(&cfg, i))),
            |reports| reports.iter().map(|r| r.offered).sum(),
        );
        check_reports(&mut checks, &mut first, reports);
        vec![part]
    });
    let peak_rss_mb = peak_rss_mb();
    let streamed = first.expect("at least one unit ran");

    // Request-level checks on retained runs: every latency decomposes
    // exactly into queue + warm-up + service + memory stall.
    let mut retained_cfg = cfg.clone();
    retained_cfg.retain_records = true;
    let retained = par_jobs(STREAMS, |i| serve(&retained_cfg, i));
    for (i, (s, r)) in streamed.iter().zip(&retained).enumerate() {
        check_streaming(&mut checks, i, s, r, &s.latency, &r.latency);
        check_records(&mut checks, i, r.records.len(), r);
        let bad = r
            .records
            .iter()
            .find(|q| q.latency_ns() != q.queue_ns + q.warmup_ns + q.service_ns + q.mem_stall_ns);
        checks.check(
            format!("stream {i}: latencies decompose"),
            bad.is_none(),
            || {
                format!(
                    "stream {i}: request {} latency does not decompose",
                    bad.map_or(0, |q| q.id)
                )
            },
        );
    }

    let mut layers = BTreeMap::new();
    if rec.enabled() {
        let spans = rec.spans();
        let build_ms = child_sums_ms(&spans, "setup", "model.build");
        layers.insert("model.build_ms", median(&build_ms));
        let cold = durations_ms(&spans, "npu.cold_run");
        layers.insert("npu.cold_run_ms.p50", quantile(&cold, 0.5));
        layers.insert("npu.cold_run_ms.p99", quantile(&cold, 0.99));
        insert_hit_rates(&mut layers, &pool[0].stats());
        layers.insert("fleet.serve_s", unit_wall(&traced));
        fleet_layers(&mut layers, &retained[0]);
    }
    Outcome {
        setup_s,
        peak_rss_mb,
        untraced,
        traced,
        // Exact p99 latency over the mix's mean solo service time (the p99
        // slowdown), geometric mean over the streams.
        sim_ratio: geomean(
            retained
                .iter()
                .map(|r| r.latency.p99_ns as f64 / mean_service_ns),
        ),
        checks,
        layers,
    }
}

pub fn run_decode(args: &Args, off: &Recorder, rec: &Recorder) -> Outcome {
    let model = LlmModelSpec::gpt2(16, 64);
    let setup = |r: &Recorder| {
        r.span("setup", 0, |p| {
            let pool = Npu::fleet(&vec![NpuConfig::paper(); FLEET]);
            let tables = r.span("llm.tables", p, |_| DecodeModel::build(&model, &pool));
            let streams: Vec<Vec<LlmRequest>> = (0..STREAMS)
                .map(|i| {
                    let mut wl = LlmWorkloadSpec {
                        rate_rps: 0.0,
                        requests: DECODE_REQUESTS,
                        seed: stream_seed(args.seed, i),
                        prompt_tokens: PROMPT_TOKENS,
                        output_tokens: (4, 32),
                        latency_fraction: 0.25,
                    };
                    wl.rate_rps = 1.2 * FLEET as f64 * 1e9 / tables.mean_request_ns(0, &wl);
                    r.span("llm.requests", p, |_| wl.generate())
                })
                .collect();
            (pool, tables, streams)
        })
    };
    let (pool, tables, streams) = setup(off);
    let cfg = LlmConfig::new(streaming_config(), LlmMode::Preemptive);
    let serve = |cfg: &LlmConfig, i: usize| LlmFleet::new(cfg.clone(), &tables).serve(&streams[i]);
    let tokens = |r: &FleetReport| r.llm.as_ref().map_or(0, |l| l.tokens_out);

    let mut checks = Checks::default();
    let mut first = None;
    let (setup_s, untraced, traced) = measure(args, off, rec, setup, |r| {
        let (reports, part) = run_part(
            || r.span("llm.serve", 0, |_| par_jobs(STREAMS, |i| serve(&cfg, i))),
            |reports| reports.iter().map(tokens).sum(),
        );
        check_reports(&mut checks, &mut first, reports);
        vec![part]
    });
    let peak_rss_mb = peak_rss_mb();
    let streamed = first.expect("at least one unit ran");

    // Request-level checks on retained runs: every completed request
    // decoded exactly the tokens it asked for, and the totals agree.
    let mut retained_cfg = cfg.clone();
    retained_cfg.fleet.retain_records = true;
    let retained = par_jobs(STREAMS, |i| serve(&retained_cfg, i));
    let stats: Vec<_> = retained
        .iter()
        .map(|r| r.llm.clone().unwrap_or_default())
        .collect();
    for (i, (s, r)) in streamed.iter().zip(&retained).enumerate() {
        let sketch = s.llm.clone().unwrap_or_default().ttft;
        check_streaming(&mut checks, i, s, r, &sketch, &stats[i].ttft);
        let records = &stats[i].per_request;
        check_records(&mut checks, i, records.len(), r);
        let bad = records
            .iter()
            .find(|q| q.tokens as usize != streams[i][q.id as usize].output_tokens);
        checks.check(
            format!("stream {i}: tokens as asked"),
            bad.is_none(),
            || {
                let q = bad.expect("a failing request");
                let asked = streams[i][q.id as usize].output_tokens;
                format!(
                    "stream {i}: request {}: {} tokens out, {asked} asked",
                    q.id, q.tokens
                )
            },
        );
        let decoded: u64 = records.iter().map(|q| u64::from(q.tokens)).sum();
        checks.check(
            format!("stream {i}: token totals"),
            decoded == tokens(s),
            || {
                format!(
                    "stream {i}: {decoded} tokens in records, {} streamed",
                    tokens(s)
                )
            },
        );
    }

    let mut layers = BTreeMap::new();
    if rec.enabled() {
        // The graphs and their cold runs are inside `DecodeModel::build`;
        // a separate pass builds each knot graph and runs it cold.
        rec.span("probe", 0, |p| {
            for knot in (1..=tables.blocks()).map(|b| b * tables.block_tokens()) {
                for build in [model.decode_step, model.prefill] {
                    let g = rec.span("model.build", p, |_| build(knot));
                    rec.span("npu.cold_run", p, |_| {
                        Npu::new(NpuConfig::paper()).estimate_demand(&g)
                    });
                }
            }
        });
        let spans = rec.spans();
        layers.insert(
            "model.build_ms",
            durations_ms(&spans, "model.build").iter().sum(),
        );
        let cold = durations_ms(&spans, "npu.cold_run");
        layers.insert("npu.cold_run_ms.p50", quantile(&cold, 0.5));
        layers.insert("npu.cold_run_ms.p99", quantile(&cold, 0.99));
        insert_hit_rates(&mut layers, &pool[0].stats());
        let llm = &stats[0];
        layers.insert(
            "llm.tables_s",
            median(&durations_ms(&spans, "llm.tables")) / 1e3,
        );
        layers.insert("llm.serve_s", unit_wall(&traced));
        layers.insert("llm.iterations", llm.iterations as f64);
        layers.insert("llm.ttft_p99_ms", llm.ttft.p99_ns as f64 / 1e6);
        layers.insert("llm.tpot_p99_ms", llm.tpot.p99_ns as f64 / 1e6);
        layers.insert("llm.preemptions", llm.preemptions as f64);
        fleet_layers(&mut layers, &retained[0]);
    }
    // Mean solo prefill time over the prompt lengths drawn.
    let mean_prefill_ns = (PROMPT_TOKENS.0..=PROMPT_TOKENS.1)
        .map(|p| tables.prefill_ns(0, p) as f64)
        .sum::<f64>()
        / (PROMPT_TOKENS.1 - PROMPT_TOKENS.0 + 1) as f64;
    Outcome {
        setup_s,
        peak_rss_mb,
        untraced,
        traced,
        // Exact p99 time to first token over the mean solo prefill time,
        // geometric mean over the streams.
        sim_ratio: geomean(stats.iter().map(|l| l.ttft.p99_ns as f64 / mean_prefill_ns)),
        checks,
        layers,
    }
}
