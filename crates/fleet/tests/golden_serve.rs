//! Byte-stable golden `SERVE.json` for the PR-4/PR-5 serving scenarios.
//!
//! The retained-mode scenarios were captured from the engine *before*
//! the streaming-statistics rewrite, so this test is the acceptance
//! gate that `retain_records = on` (the default) reproduces the
//! record-retaining engine's report byte-for-byte: same event ordering,
//! same percentile arithmetic, same JSON. The `streaming_hbm` scenario
//! pins the streaming mode the same way: sketch percentiles, windowed
//! rollups, and the contended event path. Regenerate (only when a change is meant to
//! move serving numbers) with
//! `UPDATE_GOLDEN=1 cargo test -p tandem-fleet --test golden_serve`.

use tandem_fleet::{
    serve_json, ArrivalProcess, Catalog, FleetConfig, Policy, ServeScenario, SweepSpec,
    WorkloadSpec,
};
use tandem_model::zoo::Benchmark;
use tandem_npu::{Npu, NpuConfig};

/// ResNet-50 + BERT + GPT-2 — the serving slice of the zoo the fleet
/// integration tests standardize on (model ids 0/1/2).
fn serving_catalog() -> Catalog {
    let mut c = Catalog::new();
    for b in [Benchmark::Resnet50, Benchmark::Bert, Benchmark::Gpt2] {
        c.add(b.name(), b.graph());
    }
    c
}

fn oversubscribed_rate(catalog: &Catalog, mix: &[(usize, f64)], size: usize, factor: f64) -> f64 {
    let probe = Npu::new(NpuConfig::paper());
    let freq = probe.config().tandem.freq_ghz;
    let total: f64 = mix.iter().map(|&(_, w)| w).sum();
    let mean_ns: f64 = mix
        .iter()
        .map(|&(m, w)| probe.estimate(catalog.graph(m)) as f64 / freq * w / total)
        .sum();
    factor * size as f64 * 1e9 / mean_ns
}

/// The PR-4/PR-5 scenario set, shrunk to integration-test size: the
/// mixed Poisson sweep, the BERT-heavy mix, the closed loop, and the
/// BERT-heavy mix again on a finite shared-HBM budget (PR-5's
/// contention scenario) — plus that contended mix once more in
/// streaming mode (no retained records, sketched percentiles) with
/// windowed rollups, which pins the sketch path and the rollups to the
/// byte.
fn scenarios(catalog: &Catalog) -> Vec<ServeScenario> {
    let template = FleetConfig::homogeneous(NpuConfig::paper(), 1);
    let fleet_sizes = vec![1, 2, 4];
    let mixed_mix: Vec<(usize, f64)> = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
    let bert_mix: Vec<(usize, f64)> = vec![(1, 8.0), (0, 1.0), (2, 1.0)];
    let mixed_rate = oversubscribed_rate(catalog, &mixed_mix, 4, 1.2);
    let bert_rate = oversubscribed_rate(catalog, &bert_mix, 4, 1.5);
    let mut hbm_template = template.clone();
    hbm_template.hbm_gbps = Some(8.0);
    let mut streaming_template = hbm_template.clone();
    streaming_template.retain_records = false;
    streaming_template.rollup_window_ns = Some(50_000_000);
    vec![
        ServeScenario {
            name: "mixed".into(),
            spec: SweepSpec {
                template: template.clone(),
                fleet_sizes: fleet_sizes.clone(),
                policies: Policy::ALL.to_vec(),
                hbm_budgets: Vec::new(),
                workload: WorkloadSpec {
                    mix: mixed_mix.clone(),
                    arrival: ArrivalProcess::Poisson {
                        rate_rps: mixed_rate,
                    },
                    seed: 42,
                    requests: 48,
                },
            },
        },
        ServeScenario {
            name: "bert_heavy".into(),
            spec: SweepSpec {
                template: template.clone(),
                fleet_sizes: fleet_sizes.clone(),
                policies: Policy::ALL.to_vec(),
                hbm_budgets: Vec::new(),
                workload: WorkloadSpec {
                    mix: bert_mix.clone(),
                    arrival: ArrivalProcess::Poisson {
                        rate_rps: bert_rate,
                    },
                    seed: 42,
                    requests: 48,
                },
            },
        },
        ServeScenario {
            name: "closed_loop".into(),
            spec: SweepSpec {
                template,
                fleet_sizes: fleet_sizes.clone(),
                policies: Policy::ALL.to_vec(),
                hbm_budgets: Vec::new(),
                workload: WorkloadSpec {
                    mix: mixed_mix,
                    arrival: ArrivalProcess::ClosedLoop {
                        clients: 8,
                        think_ns: 200_000,
                    },
                    seed: 42,
                    requests: 48,
                },
            },
        },
        ServeScenario {
            name: "contention_hbm".into(),
            spec: SweepSpec {
                template: hbm_template,
                fleet_sizes: fleet_sizes.clone(),
                policies: Policy::ALL.to_vec(),
                hbm_budgets: Vec::new(),
                workload: WorkloadSpec {
                    mix: bert_mix.clone(),
                    arrival: ArrivalProcess::Poisson {
                        rate_rps: bert_rate,
                    },
                    seed: 42,
                    requests: 48,
                },
            },
        },
        ServeScenario {
            name: "streaming_hbm".into(),
            spec: SweepSpec {
                template: streaming_template,
                fleet_sizes,
                policies: Policy::ALL.to_vec(),
                hbm_budgets: Vec::new(),
                workload: WorkloadSpec {
                    mix: bert_mix,
                    arrival: ArrivalProcess::Poisson {
                        rate_rps: bert_rate,
                    },
                    seed: 42,
                    requests: 96,
                },
            },
        },
    ]
}

#[test]
fn serve_json_matches_pre_streaming_golden_bytes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_serve.json");
    let catalog = serving_catalog();
    let json = serve_json(&catalog, &scenarios(&catalog), 0);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden SERVE.json");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden SERVE.json missing — regenerate with UPDATE_GOLDEN=1 cargo test -p tandem-fleet --test golden_serve",
    );
    assert_eq!(
        json, golden,
        "SERVE.json changed byte-for-byte vs the record-retaining engine; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
