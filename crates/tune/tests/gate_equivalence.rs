//! The search's verify gate is [`Npu::verify`]: widened `tandem-verify`
//! over each node's compiled tile programs, memoized per node signature.
//! The block-level oracle is [`schedule_graph_opts`], which assembles and
//! verifies every execution block's combined program. For every
//! single-site candidate — the gen-0 sweep; composites only combine
//! per-node verdicts the singles already fixed — the two must agree.

use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering};
use tandem_model::Graph;
use tandem_npu::{par_map, Npu, NpuConfig};
use tandem_tune::{demo_graph, search_space, Candidate};
use tandem_verify::VerifyMode;

/// Asserts gate/oracle agreement on every single-site candidate of
/// `graph` and returns how many were checked.
fn singles_agree(graph: &Graph) -> usize {
    let npu = Npu::new(NpuConfig::paper());
    let space = search_space(&npu, graph);
    let mut singles: Vec<Candidate> = vec![Candidate::baseline()];
    for (i, site) in space.sites().iter().enumerate() {
        for &c in &site.candidates {
            if c != site.baseline {
                singles.push(space.single(i, c));
            }
        }
    }
    let cfg = npu.config();
    let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows);
    let mismatches = par_map(singles.len(), 0, |i| {
        let cand = &singles[i];
        let mut cfg = npu.config().clone();
        cfg.schedule = cand.schedule();
        let gate = npu.sibling(cfg).verify(graph).is_clean();
        let opts = CompileOptions {
            verify: true,
            verify_mode: VerifyMode::Widened,
            schedule: cand.schedule(),
        };
        let oracle = schedule_graph_opts(&lowering, graph, &opts).is_ok();
        (gate != oracle).then(|| format!("{:016x}: gate {gate}, oracle {oracle}", cand.digest()))
    });
    let mismatches: Vec<String> = mismatches.into_iter().flatten().collect();
    assert!(
        mismatches.is_empty(),
        "{}: gate and block-level verify disagree:\n{}",
        graph.name,
        mismatches.join("\n")
    );
    singles.len()
}

#[test]
fn gate_matches_block_level_verify_on_demo_graph() {
    assert!(singles_agree(&demo_graph()) > 10);
}

#[test]
fn gate_matches_block_level_verify_on_mobilenetv2() {
    assert!(singles_agree(&tandem_model::zoo::mobilenetv2()) > 100);
}
