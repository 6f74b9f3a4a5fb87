//! The micro decode model and workload shared by the LLM integration
//! tests, and the LLM golden fixture's cells and rendering.

use std::fmt::Write as _;
use tandem_fleet::llm::{DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmModelSpec, LlmWorkloadSpec};
use tandem_fleet::{FleetConfig, FleetReport};
use tandem_model::{Graph, GraphBuilder};
use tandem_npu::{Npu, NpuConfig};

/// A deliberately tiny "LLM": one projection + a cache-sized attention
/// contraction, so the cost tables build in milliseconds while still
/// growing with context the way a real decode step does.
fn micro_prefill(seq: usize) -> Graph {
    let mut b = GraphBuilder::new("micro-prefill", 2024);
    let x = b.input("x", [seq, 32]);
    let w = b.weight([32, 32]);
    let h = b.matmul(x, w);
    let s = b.softmax(h, -1);
    b.output(s);
    b.finish()
}

fn micro_step(ctx: usize) -> Graph {
    let mut b = GraphBuilder::new("micro-step", 2024);
    let x = b.input("x", [1, 32]);
    let w = b.weight([32, 32]);
    let q = b.matmul(x, w);
    // The KV pages: resident weights whose size tracks the context.
    let kv = b.weight([ctx, 32]);
    let kt = b.transpose(kv, &[1, 0]);
    let scores = b.matmul(q, kt);
    let p = b.softmax(scores, -1);
    let o = b.matmul(p, kv);
    b.output(o);
    b.finish()
}

pub fn micro_model() -> LlmModelSpec {
    LlmModelSpec {
        name: "micro".to_string(),
        prefill: micro_prefill,
        decode_step: micro_step,
        block_tokens: 4,
        max_context: 64,
    }
}

pub fn workload(rate_rps: f64) -> LlmWorkloadSpec {
    LlmWorkloadSpec {
        rate_rps,
        requests: 160,
        seed: 0x11a_5eed,
        prompt_tokens: (4, 16),
        output_tokens: (4, 24),
        latency_fraction: 0.25,
    }
}

/// Offered rate at `x`× one member's solo capacity for this workload.
pub fn calibrated_rate(x: f64) -> f64 {
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 1]);
    let tables = DecodeModel::build(&micro_model(), &pool);
    x * 1e9 / tables.mean_request_ns(0, &workload(0.0))
}

/// The committed LLM report fixture (see `golden_llm.rs`).
pub const GOLDEN_LLM: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_llm.json");

/// A budget far below the members' decode demand, so contended runs
/// stall on every overlapping iteration.
pub const HBM_GBPS: f64 = 0.05;

/// The golden's cells: every mode × {no budget, [`HBM_GBPS`]} ×
/// {records retained, streaming} on two paper NPUs batching up to two
/// requests, 96 requests at 1.5× one member's capacity, each config passed
/// through `edit` before serving.
pub fn golden_cells(edit: impl Fn(&mut LlmConfig)) -> Vec<(LlmConfig, FleetReport)> {
    let tables = DecodeModel::build(&micro_model(), &Npu::fleet(&vec![NpuConfig::paper(); 2]));
    let requests = LlmWorkloadSpec {
        requests: 96,
        ..workload(calibrated_rate(1.5))
    }
    .generate();
    let mut cells = Vec::new();
    for mode in LlmMode::ALL {
        for hbm_gbps in [None, Some(HBM_GBPS)] {
            for retain in [true, false] {
                let mut cfg = LlmConfig::new(FleetConfig::homogeneous(NpuConfig::paper(), 2), mode);
                // A small batch keeps the slots contested, so the
                // preemptive cells checkpoint.
                cfg.fleet.max_batch = 2;
                cfg.fleet.hbm_gbps = hbm_gbps;
                cfg.fleet.retain_records = retain;
                edit(&mut cfg);
                let report = LlmFleet::new(cfg.clone(), &tables).serve(&requests);
                cells.push((cfg, report));
            }
        }
    }
    cells
}

/// FNV-1a over the `(ns, depth)` samples: pins the whole series in one
/// line of the fixture.
fn depth_digest(samples: &[(u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(t, d) in samples {
        for byte in t.to_le_bytes().into_iter().chain(d.to_le_bytes()) {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Renders the cells as the golden document: each report's JSON, the
/// queue-depth series digest, and (retained cells) every per-request
/// record as `[id, npu, batch, arrival, queue, warmup, service, stall,
/// completion, ttft, tokens, preemptions, latency class]`.
pub fn render_golden(cells: &[(LlmConfig, FleetReport)]) -> String {
    let mut out = String::from("{\n  \"cells\": [\n");
    for (c, (cfg, r)) in cells.iter().enumerate() {
        let hbm = cfg
            .fleet
            .hbm_gbps
            .map_or("null".to_string(), |g| format!("{g:.2}"));
        let _ = write!(
            out,
            "{}    {{\"mode\": \"{}\", \"hbm_gbps\": {hbm}, \"retain_records\": {}, \
             \"depth_samples\": {}, \"depth_digest\": \"{:016x}\",\n     \"report\": {}",
            if c > 0 { ",\n" } else { "" },
            cfg.mode.name(),
            cfg.fleet.retain_records,
            r.queue_depth_samples.len(),
            depth_digest(&r.queue_depth_samples),
            r.to_json(),
        );
        let llm = r.llm.as_ref().expect("LLM runs carry llm stats");
        if cfg.fleet.retain_records {
            out.push_str(",\n     \"records\": [");
            for (i, (rec, lr)) in r.records.iter().zip(&llm.per_request).enumerate() {
                assert_eq!(rec.id, lr.id);
                let _ = write!(
                    out,
                    "{}\n      [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]",
                    if i > 0 { "," } else { "" },
                    rec.id,
                    rec.npu,
                    rec.batch,
                    rec.arrival_ns,
                    rec.queue_ns,
                    rec.warmup_ns,
                    rec.service_ns,
                    rec.mem_stall_ns,
                    rec.completion_ns,
                    lr.ttft_ns,
                    lr.tokens,
                    lr.preemptions,
                    u8::from(lr.latency_class),
                );
            }
            out.push_str("\n     ]");
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}
