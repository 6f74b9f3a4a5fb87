//! Node signatures: the memoization key of lowering.
//!
//! The paper's own characterization (Figure 4) shows the benchmark zoo is
//! dominated by *repeated* subgraphs — ResNet-50's 16 bottlenecks,
//! BERT/GPT-2's 12 identical encoder layers. Lowering is a pure function
//! of the operator and the machine shape, so identical nodes compile to
//! identical tile programs. [`NodeSignature`] captures exactly the inputs
//! of that function — operator kind, input/output shapes, the relevant
//! attributes, and the lanes/interim-rows/fixed-point configuration — so
//! a caller (the NPU executor's compile, verify and simulation caches)
//! can memoize [`OpLowering::lower_node`] and everything downstream of it
//! on the signature, compiling each distinct block shape once per process
//! instead of once per node per run.

use crate::lower::OpLowering;
use crate::tune_space::{StableHasher, TileChoice};
use std::hash::{Hash, Hasher};
use tandem_model::{Graph, Node, OpAttrs, Padding};

/// Hashable image of [`OpAttrs`]: float attributes are keyed by their IEEE
/// bit patterns, which is exact (two nodes share a lowering iff the bits
/// agree — the compiler materializes constants from these exact values).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AttrsKey {
    kernel: usize,
    stride: usize,
    padding: Padding,
    groups: usize,
    axis: isize,
    perm: Vec<usize>,
    alpha_bits: u64,
    clip_min_bits: u64,
    clip_max_bits: u64,
}

impl AttrsKey {
    fn of(attrs: &OpAttrs) -> Self {
        AttrsKey {
            kernel: attrs.kernel,
            stride: attrs.stride,
            padding: attrs.padding,
            groups: attrs.groups,
            axis: attrs.axis,
            perm: attrs.perm.clone(),
            alpha_bits: attrs.alpha.to_bits(),
            clip_min_bits: attrs.clip_min.to_bits(),
            clip_max_bits: attrs.clip_max.to_bits(),
        }
    }
}

/// Everything [`OpLowering::lower_node`] can observe about a node: the
/// memoization key of the compilation (and downstream simulation) caches.
///
/// Two nodes with equal signatures lower to identical `(program,
/// repetitions)` pairs, so their performance-mode simulation reports are
/// identical too.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeSignature {
    /// Operator kind.
    kind: tandem_model::OpKind,
    /// Per-input `(dims, is_weight)` — tiling reads input shapes and the
    /// executor's DRAM-traffic model distinguishes weights.
    inputs: Vec<(Vec<usize>, bool)>,
    /// Output dims.
    outputs: Vec<Vec<usize>>,
    /// Relevant attributes.
    attrs: AttrsKey,
    /// SIMD lanes of the target machine.
    lanes: usize,
    /// Rows per Interim BUF of the target machine.
    interim_rows: usize,
    /// Fixed-point fractional bits of the activation format.
    q: u32,
    /// The tuner's pinned decision at this node's site, if the lowering
    /// carries a [`crate::Schedule`] that overrides it. Part of the key —
    /// two schedules produce different programs for the same node, so
    /// every downstream cache (compile, sim, verify) must distinguish
    /// them — but excluded from [`NodeSignature::site_key`], which names
    /// the site the choice applies to.
    choice: Option<TileChoice>,
}

impl NodeSignature {
    /// Computes the signature of `node` for a machine with `lanes` lanes,
    /// `interim_rows` scratchpad rows, and `q` fractional bits.
    pub fn of(graph: &Graph, node: &Node, lanes: usize, interim_rows: usize, q: u32) -> Self {
        NodeSignature {
            kind: node.kind,
            inputs: node
                .inputs
                .iter()
                .map(|&id| {
                    let t = graph.tensor(id);
                    (t.shape.dims().to_vec(), t.is_weight)
                })
                .collect(),
            outputs: node
                .outputs
                .iter()
                .map(|&id| graph.tensor(id).shape.dims().to_vec())
                .collect(),
            attrs: AttrsKey::of(&node.attrs),
            lanes,
            interim_rows,
            q,
            choice: None,
        }
    }

    /// The signature of `node` under `lowering`'s machine shape,
    /// including the schedule choice pinned at the node's site (if any).
    pub fn for_lowering(lowering: &OpLowering, graph: &Graph, node: &Node) -> Self {
        let mut sig = Self::of(
            graph,
            node,
            lowering.lanes(),
            lowering.interim_rows(),
            lowering.fixed.q,
        );
        sig.choice = lowering.schedule().get(sig.site_key());
        sig
    }

    /// The stable key of this node's tuning site: a platform-independent
    /// FNV-1a hash over every field *except* the schedule choice. All
    /// nodes that would share a compilation under the empty schedule
    /// share one site key; a [`crate::Schedule`] maps these keys to
    /// [`TileChoice`]s.
    pub fn site_key(&self) -> u64 {
        let mut h = StableHasher::new();
        self.kind.hash(&mut h);
        self.inputs.hash(&mut h);
        self.outputs.hash(&mut h);
        self.attrs.hash(&mut h);
        h.write_usize(self.lanes);
        h.write_usize(self.interim_rows);
        h.write_u32(self.q);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo;

    #[test]
    fn identical_nodes_share_one_signature() {
        let g = zoo::bert_base(64);
        let lowering = OpLowering::new(32, 512);
        let mut sigs = std::collections::HashSet::new();
        let mut non_gemm = 0usize;
        for node in g.nodes() {
            if node.kind.class().is_non_gemm() {
                non_gemm += 1;
                sigs.insert(NodeSignature::for_lowering(&lowering, &g, node));
            }
        }
        // 12 identical encoder layers → far fewer signatures than nodes.
        assert!(
            sigs.len() * 4 < non_gemm,
            "{} signatures for {non_gemm} non-GEMM nodes",
            sigs.len()
        );
    }

    #[test]
    fn machine_shape_is_part_of_the_key() {
        let g = zoo::mobilenetv2();
        let node = g
            .nodes()
            .iter()
            .find(|n| n.kind.class().is_non_gemm())
            .unwrap();
        let a = NodeSignature::of(&g, node, 32, 512, 14);
        let b = NodeSignature::of(&g, node, 64, 512, 14);
        let c = NodeSignature::of(&g, node, 32, 256, 14);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
