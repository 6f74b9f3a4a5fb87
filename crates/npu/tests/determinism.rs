//! The caching/parallelism contract: caches and threads change wall-time
//! only — every modeled number (cycles, energy, DRAM traffic, per-kind
//! breakdowns) is bit-identical to the cold, serial, uncached path.

use tandem_model::zoo::{self, Benchmark};
use tandem_npu::{run_matrix, DesignPoint, Npu, NpuConfig, TileGranularity};

/// Asserts the full architectural equality plus the headline scalars
/// (spelled out so a failure names the number that moved).
fn assert_identical(a: &tandem_npu::NpuReport, b: &tandem_npu::NpuReport, what: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: total_cycles");
    assert_eq!(
        a.total_energy_nj().to_bits(),
        b.total_energy_nj().to_bits(),
        "{what}: total_energy_nj"
    );
    assert_eq!(
        a.per_kind_cycles, b.per_kind_cycles,
        "{what}: per-kind cycles"
    );
    assert_eq!(a, b, "{what}: full report");
}

#[test]
fn warm_run_equals_cold_run() {
    for (name, graph) in [
        ("resnet50", zoo::resnet50()),
        ("bert_base", zoo::bert_base(64)),
    ] {
        let npu = Npu::new(NpuConfig::paper());
        let cold = npu.run(&graph);
        let warm = npu.run(&graph);
        assert_identical(&cold, &warm, name);
        assert!(
            cold.stats.sim_misses > 0,
            "{name}: cold run must simulate something"
        );
        assert_eq!(
            warm.stats.sim_misses, 0,
            "{name}: warm run must hit the simulation cache everywhere"
        );
        assert!(warm.stats.hit_rate() > 0.99, "{name}: warm hit rate");
    }
}

#[test]
fn cached_run_equals_uncached_run() {
    for bench in Benchmark::ALL {
        let (name, graph) = (bench.name(), bench.graph());
        let npu = Npu::new(NpuConfig::paper());
        let uncached = Npu::uncached(NpuConfig::paper()).run(&graph);
        assert_identical(&npu.run(&graph), &uncached, &format!("{name} cold"));
        assert_identical(&npu.run(&graph), &uncached, &format!("{name} warm"));
        assert_eq!(
            uncached.stats.lookups(),
            0,
            "{name}: uncached run looked up a cache"
        );
    }
    // A sibling shares its parent's cache set, so an uncached parent's
    // siblings are uncached too.
    let mut layer_cfg = NpuConfig::paper();
    layer_cfg.granularity = TileGranularity::Layer;
    let sibling = Npu::uncached(NpuConfig::paper()).sibling(layer_cfg);
    assert_eq!(sibling.run(&zoo::mobilenetv2()).stats.lookups(), 0);
}

#[test]
fn caches_respect_knobs_and_granularity() {
    // One shared-cache NPU per config — knob/granularity changes must not
    // alias in the cache key space.
    let mut layer_cfg = NpuConfig::paper();
    layer_cfg.granularity = TileGranularity::Layer;
    let mut knob_cfg = NpuConfig::paper();
    knob_cfg.knobs.branch_loops = true;
    // Verification on: the summary joins report equality, and changes no
    // cycle count.
    let mut verify_cfg = NpuConfig::paper();
    verify_cfg.verify = true;
    let graph = zoo::mobilenetv2();
    let paper_cycles = Npu::uncached(NpuConfig::paper()).run(&graph).total_cycles;
    for (name, cfg, moves_cycles) in [
        ("layer", layer_cfg, true),
        ("branch_loops", knob_cfg, true),
        ("verify", verify_cfg.clone(), false),
    ] {
        let cached = Npu::new(cfg.clone()).run(&graph);
        let uncached = Npu::uncached(cfg).run(&graph);
        assert_identical(&cached, &uncached, name);
        assert_eq!(
            cached.total_cycles != paper_cycles,
            moves_cycles,
            "{name}: only knob and granularity changes move the model"
        );
    }
    // `Npu::verify` is the summary a verifying run reports, whether the
    // memo is cold or already warm from that run.
    let npu = Npu::new(verify_cfg);
    let cold = npu.verify(&graph);
    assert!(cold.programs > 0, "no programs verified");
    assert_eq!(cold, npu.run(&graph).verify);
    assert_eq!(cold, npu.verify(&graph));
}

#[test]
fn run_many_matches_serial_runs() {
    let graphs = [zoo::resnet50(), zoo::bert_base(64), zoo::mobilenetv2()];
    let refs: Vec<&tandem_model::Graph> = graphs.iter().collect();
    let parallel = Npu::new(NpuConfig::paper()).run_many(&refs);
    let serial: Vec<_> = graphs
        .iter()
        .map(|g| Npu::uncached(NpuConfig::paper()).run(g))
        .collect();
    assert_eq!(parallel.len(), serial.len());
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_identical(p, s, &format!("graph {i}"));
    }
}

#[test]
fn run_matrix_matches_sweep_points() {
    let graph = zoo::mobilenetv2();
    let jobs: Vec<(NpuConfig, &tandem_model::Graph)> = [
        DesignPoint::tiny(),
        DesignPoint::paper(),
        DesignPoint::paper(), // repeated config shares one NPU
        DesignPoint::large(),
    ]
    .iter()
    .map(|p| (p.npu_config(), &graph))
    .collect();
    let reports = run_matrix(&jobs);
    for (i, ((cfg, _), r)) in jobs.iter().zip(&reports).enumerate() {
        let direct = Npu::uncached(cfg.clone()).run(&graph);
        assert_identical(r, &direct, &format!("job {i}"));
    }
    assert_identical(&reports[1], &reports[2], "repeated config");
}
