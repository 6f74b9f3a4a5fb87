//! Byte-stable goldens for the LLM serving engine: the report of every
//! batching mode with and without a shared-HBM budget, in both the
//! record-retaining and the streaming accounting mode (retained cells
//! also pin every per-request record and the queue-depth series), plus
//! one Perfetto trace of a preemptive contended run. Regenerate (only
//! when a change is meant to move LLM serving numbers) with
//! `UPDATE_GOLDEN=1 cargo test -p tandem-fleet --test golden_llm`.

mod common;

use common::{
    calibrated_rate, golden_cells, micro_model, render_golden, workload, GOLDEN_LLM, HBM_GBPS,
};
use tandem_fleet::llm::{DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmWorkloadSpec};
use tandem_fleet::FleetConfig;
use tandem_npu::{Npu, NpuConfig};
use tandem_trace::ChromeTraceSink;

fn check_golden(path: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{path} missing — regenerate with UPDATE_GOLDEN=1 cargo test -p tandem-fleet --test golden_llm")
    });
    assert!(
        actual == golden,
        "{path} changed byte-for-byte; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn llm_reports_match_golden_bytes() {
    let cells = golden_cells(|_| {});
    // The fixture must exercise what it pins: preemption and stalls.
    for (cfg, r) in &cells {
        let l = r.llm.as_ref().unwrap();
        if cfg.mode == LlmMode::Preemptive {
            assert!(l.preemptions > 0, "preemptive cells must preempt");
        }
        let stalled = r.per_npu.iter().any(|u| u.mem_stall_ns > 0);
        assert_eq!(
            stalled,
            cfg.fleet.hbm_gbps.is_some(),
            "contended cells must stall"
        );
    }
    check_golden(GOLDEN_LLM, &render_golden(&cells));
}

#[test]
fn preemptive_contended_trace_matches_golden_bytes() {
    let tables = DecodeModel::build(&micro_model(), &Npu::fleet(&vec![NpuConfig::paper(); 2]));
    let wl = LlmWorkloadSpec {
        requests: 12,
        output_tokens: (4, 9),
        latency_fraction: 0.5,
        ..workload(calibrated_rate(2.0))
    };
    let mut cfg = LlmConfig::new(
        FleetConfig::homogeneous(NpuConfig::paper(), 2),
        LlmMode::Preemptive,
    );
    cfg.fleet.hbm_gbps = Some(HBM_GBPS);
    cfg.fleet.max_batch = 2;
    let mut sink = ChromeTraceSink::new();
    let report = LlmFleet::new(cfg, &tables).serve_traced(&wl.generate(), &mut sink);
    assert_eq!(report.completed, wl.requests as u64);
    assert!(
        report.llm.as_ref().unwrap().preemptions > 0,
        "the golden run must preempt"
    );
    assert!(
        report.records.iter().any(|r| r.mem_stall_ns > 0),
        "the golden run must contend"
    );
    let json = sink.to_json();
    for needle in [
        "\"name\":\"NPU 0\"",
        "\"name\":\"NPU 1\"",
        "\"cat\":\"decode\"",
        "\"name\":\"preempt\"",
        "\"name\":\"resume\"",
        "tokens out",
        "\"name\":\"shared HBM\"",
        "hbm gbps x100",
    ] {
        assert!(json.contains(needle), "LLM trace must contain {needle}");
    }
    check_golden(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_llm.trace.json"),
        &json,
    );
}
