//! The mutation prior: ranking tuning sites by how much the hand-rolled
//! baseline wastes at them.
//!
//! `tandem-verify`'s dead-traffic lints attach a structured
//! wasted-word estimate to every dead scratchpad store and redundant
//! IMM write, which the NPU sums per node ([`Npu::wasted_words`]). A site
//! whose baseline lowering moves words for nothing is where a different
//! tile shape is most likely to pay off, so the search mutates it more
//! often. Sites that govern many graph nodes get a proportional boost
//! too — a win there multiplies across every instance.

use tandem_compiler::{Schedule, TuneSite};
use tandem_model::Graph;
use tandem_npu::Npu;

/// One mutation weight per site (parallel to `sites`, each ≥ 1):
/// `1 + instances + wasted_words(baseline lowering) × instances`, so
/// GEMM-side sites (which have no Tandem programs) weigh by instance
/// count alone. The wasted words come from an empty-schedule sibling of
/// `npu`: the baseline's verify outcomes land in the memo the search's
/// gate reads.
pub fn site_weights(npu: &Npu, graph: &Graph, sites: &[TuneSite]) -> Vec<u64> {
    let mut cfg = npu.config().clone();
    cfg.schedule = Schedule::empty();
    let baseline = npu.sibling(cfg);
    sites
        .iter()
        .map(|site| {
            let wasted = baseline.wasted_words(graph, graph.node(site.node));
            1 + site.instances + wasted * site.instances
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_positive_and_scale_with_instances() {
        let g = tandem_model::zoo::mobilenetv2();
        let npu = Npu::new(tandem_npu::NpuConfig::paper());
        let sites = npu.tune_sites(&g);
        assert!(!sites.is_empty());
        let w = site_weights(&npu, &g, &sites);
        assert_eq!(w.len(), sites.len());
        assert!(w.iter().all(|&x| x >= 1));
        // A repeated site never weighs less than a structurally identical
        // single-instance one would.
        for (site, &weight) in sites.iter().zip(&w) {
            assert!(weight > site.instances, "{}: {weight}", site.name);
        }
    }
}
