//! The cached simulator is the search's oracle — so the caches must be
//! invisible. For tuned candidates sampled from a real search, the
//! cycles the search recorded (scored through cache-sharing siblings)
//! must bit-agree with a fresh [`Npu::uncached`] run of the same
//! configuration, and the gate's verdict with an uncached verify.

use tandem_model::zoo::Benchmark;
use tandem_npu::{Npu, NpuConfig};
use tandem_tune::{demo_graph, search_space, tune_in_space, TuneOptions};

#[test]
fn cached_scores_bit_agree_with_uncached_runs() {
    let g = demo_graph();
    let npu = Npu::new(NpuConfig::paper());
    let space = search_space(&npu, &g);
    let opts = TuneOptions {
        seed: 5,
        generations: 3,
        population: 10,
        beam: 3,
        ..TuneOptions::default()
    };
    let out = tune_in_space(&npu, &g, &space, &opts);
    assert!(
        out.accepted.iter().len() >= 4,
        "search accepted too few candidates"
    );

    // The best candidate plus an evenly spaced sample of the rest.
    let step = (out.accepted.iter().len() / 4).max(1);
    let best = (out.best.clone(), out.best_cycles);
    let sample = out
        .accepted
        .iter()
        .step_by(step)
        .chain(std::iter::once(best));
    for (cand, recorded) in sample {
        let mut cfg = NpuConfig::paper();
        cfg.verify = false;
        cfg.schedule = cand.schedule();
        let fresh = Npu::uncached(cfg).run(&g).total_cycles;
        assert_eq!(
            recorded,
            fresh,
            "cached score diverges from uncached oracle for {:016x}",
            cand.digest()
        );
    }
}

#[test]
fn baseline_score_matches_unscheduled_run() {
    // The empty schedule must cost exactly what the hand-rolled
    // scheduler costs — the reduction numbers in BENCH_TUNE.json are
    // relative to it.
    let g = demo_graph();
    let npu = Npu::new(NpuConfig::paper());
    let out = tune_in_space(
        &npu,
        &g,
        &search_space(&npu, &g),
        &TuneOptions {
            generations: 0,
            ..TuneOptions::default()
        },
    );
    let mut cfg = NpuConfig::paper();
    cfg.verify = false;
    let plain = Npu::uncached(cfg).run(&g).total_cycles;
    assert_eq!(out.baseline_cycles, plain);
}

#[test]
fn zoo_searches_bit_agree_with_uncached_runs_and_verifies() {
    // A capped search on a conv model and a transformer: the sampled
    // candidates were gated and scored against one graph plan on a hub
    // warmed by every earlier candidate.
    let opts = TuneOptions {
        seed: 7,
        generations: 2,
        population: 6,
        beam: 3,
        max_singles: 16,
        ..TuneOptions::default()
    };
    for bench in [Benchmark::Resnet50, Benchmark::Bert] {
        let g = bench.graph();
        let npu = Npu::new(NpuConfig::paper());
        let out = tune_in_space(&npu, &g, &search_space(&npu, &g), &opts);
        let accepted = out.accepted.iter().len();
        assert!(accepted >= 4, "{}: {accepted} accepted", bench.name());
        // The best candidate plus three evenly spaced others.
        let best = (out.best.clone(), out.best_cycles);
        let sample = out
            .accepted
            .iter()
            .step_by(accepted / 3)
            .take(3)
            .chain(std::iter::once(best));
        let plan = npu.plan(&g);
        let mut scheduled = 0;
        for (cand, recorded) in sample {
            scheduled += usize::from(!cand.schedule().is_empty());
            let mut cfg = NpuConfig::paper();
            cfg.verify = false;
            cfg.schedule = cand.schedule();
            let what = format!("{} candidate {:016x}", bench.name(), cand.digest());
            let reference = Npu::uncached(cfg.clone());
            let fresh = reference.run(&g);
            assert_eq!(recorded, fresh.total_cycles, "{what}: recorded cycles");
            let sibling = npu.sibling(cfg);
            assert_eq!(sibling.run_plan(&plan), fresh, "{what}: warm report");
            assert_eq!(
                sibling.verify_plan(&plan),
                reference.verify(&g),
                "{what}: warm verify summary"
            );
        }
        assert!(
            scheduled > 0,
            "{}: no tuned candidate sampled",
            bench.name()
        );
    }
}
