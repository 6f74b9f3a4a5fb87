//! The schedule-independent half of evaluating a graph, built once.
//!
//! Everything the executor derives from the graph and the machine shape
//! alone — the execution blocks, each node's signature and tuning-site
//! key, each block's Tandem DRAM traffic and GEMM workload — is the same
//! under every schedule, knob setting and granularity. A [`GraphPlan`]
//! computes it once; an evaluation then walks precomputed entries, with
//! one schedule lookup and one compact-key memo lookup per node. Every
//! executor entry point ([`crate::Npu::run`], [`crate::Npu::run_traced`],
//! [`crate::Npu::verify`], [`crate::Npu::tune_sites`]) builds a plan and
//! evaluates it; the autotuner builds one per search and scores every
//! candidate against it.

use crate::memo::Interner;
use gemm_sim::{GemmUnit, GemmWorkload};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use tandem_compiler::{ExecutionBlock, NodeSignature, OpLowering, Partitioner};
use tandem_model::{Graph, Node, NodeId, OpKind, TensorId};

/// The interned id of a choice-free [`NodeSignature`] in one cache hub's
/// table: two nodes share an id exactly when their signatures are equal.
pub(crate) type SigId = u32;

/// A graph prepared for evaluation on one cache hub: an [`crate::Npu`]
/// and every clone and [`crate::Npu::sibling`] sharing its caches.
/// Built by [`crate::Npu::plan`]; evaluated by [`crate::Npu::run_plan`]
/// and [`crate::Npu::verify_plan`] under any schedule, knobs and
/// granularity. Evaluating it on an NPU of another hub panics: its
/// signature ids name entries of the building hub's table only.
#[derive(Debug)]
pub struct GraphPlan<'g> {
    pub(crate) graph: &'g Graph,
    /// The hub's signature table the ids below were drawn from.
    pub(crate) signatures: Arc<Interner<NodeSignature>>,
    /// The machine shape a signature records: lanes, Interim BUF rows
    /// and fixed-point fractional bits.
    shape: (usize, usize, u32),
    pub(crate) blocks: Vec<BlockPlan>,
}

/// One execution block with its schedule-independent costs.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    pub(crate) block: ExecutionBlock,
    /// One entry per `block.non_gemm` node, in execution order.
    pub(crate) nodes: Vec<NodePlan>,
    /// DRAM traffic of the Tandem side (see [`tandem_dram_bytes`]).
    pub(crate) tandem_dram_bytes: u64,
    /// Elements of the last non-GEMM node's output, which the block's
    /// closing cast stream converts (0 for a GEMM-only block).
    pub(crate) cast_elems: u64,
    pub(crate) gemm: Option<GemmPlan>,
}

/// A non-GEMM node: its interned signature and its tuning-site key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodePlan {
    pub(crate) id: NodeId,
    pub(crate) kind: OpKind,
    pub(crate) sig: SigId,
    pub(crate) site: u64,
}

/// A block's GEMM node. GEMM nodes are never lowered, so they carry no
/// signature id; their site key is read only under a non-empty schedule
/// and is computed on first use.
#[derive(Debug)]
pub(crate) struct GemmPlan {
    pub(crate) id: NodeId,
    pub(crate) kind: OpKind,
    pub(crate) workload: GemmWorkload,
    /// The largest m-tile the accumulator holds: the hand-rolled tile.
    pub(crate) cap: u64,
    /// Elements of the GEMM output (the layer-granularity spill).
    pub(crate) out_elems: u64,
    site: OnceLock<u64>,
}

impl<'g> GraphPlan<'g> {
    /// Plans `graph` for a machine of `lowering`'s shape and `gemm`'s
    /// geometry, interning node signatures in `signatures`. Computes each
    /// non-GEMM node's signature exactly once.
    pub(crate) fn new(
        graph: &'g Graph,
        lowering: &OpLowering,
        gemm: &GemmUnit,
        signatures: &Arc<Interner<NodeSignature>>,
    ) -> Self {
        let shape = (lowering.lanes(), lowering.interim_rows(), lowering.fixed.q);
        let consumers = graph.consumer_index();
        let out_elems =
            |id: NodeId| graph.tensor(graph.node(id).outputs[0]).shape.elements() as u64;
        let blocks = Partitioner::new()
            .partition(graph)
            .into_iter()
            .map(|block| {
                let nodes = block
                    .non_gemm
                    .iter()
                    .map(|&id| {
                        let node = graph.node(id);
                        let sig = signature(graph, node, shape);
                        NodePlan {
                            id,
                            kind: node.kind,
                            site: sig.site_key(),
                            sig: signatures.intern(sig),
                        }
                    })
                    .collect();
                let gemm = block.gemm.map(|id| {
                    let node = graph.node(id);
                    let workload = gemm_workload(graph, node);
                    GemmPlan {
                        id,
                        kind: node.kind,
                        workload,
                        cap: gemm.max_tile_rows(workload.n).min(workload.m.max(1)),
                        out_elems: out_elems(id),
                        site: OnceLock::new(),
                    }
                });
                BlockPlan {
                    tandem_dram_bytes: tandem_dram_bytes(graph, &block, &consumers),
                    cast_elems: block.non_gemm.last().map_or(0, |&id| out_elems(id)),
                    nodes,
                    gemm,
                    block,
                }
            })
            .collect();
        GraphPlan {
            graph,
            signatures: Arc::clone(signatures),
            shape,
            blocks,
        }
    }

    /// The tuning-site key of a block's GEMM node.
    pub(crate) fn gemm_site(&self, gemm: &GemmPlan) -> u64 {
        *gemm
            .site
            .get_or_init(|| signature(self.graph, self.graph.node(gemm.id), self.shape).site_key())
    }
}

/// The choice-free signature of `node` on a machine of `shape`.
fn signature(graph: &Graph, node: &Node, (lanes, rows, q): (usize, usize, u32)) -> NodeSignature {
    NodeSignature::of(graph, node, lanes, rows, q)
}

/// GEMM workload of a GEMM-class node.
fn gemm_workload(graph: &Graph, node: &Node) -> GemmWorkload {
    use tandem_model::OpKind::*;
    match node.kind {
        Conv => {
            let out = &graph.tensor(node.outputs[0]).shape;
            let cin = graph.tensor(node.inputs[0]).shape.dim(1);
            GemmWorkload::from_conv(
                out.dim(2) as u64,
                out.dim(3) as u64,
                cin as u64,
                out.dim(1) as u64,
                node.attrs.kernel as u64,
            )
        }
        MatMul => {
            let out = &graph.tensor(node.outputs[0]).shape;
            let k = graph.tensor(node.inputs[0]).shape.dim(-1) as u64;
            let n = out.dim(-1) as u64;
            let m = out.elements() as u64 / n;
            GemmWorkload::new(m, k, n)
        }
        Gemm => {
            let out = &graph.tensor(node.outputs[0]).shape;
            let k = graph.tensor(node.inputs[0]).shape.dim(-1) as u64;
            GemmWorkload::new(out.dim(0) as u64, k, out.dim(-1) as u64)
        }
        other => unreachable!("{other} is not a GEMM operator"),
    }
}

/// DRAM traffic of the Tandem side for a block: activations entering
/// from outside the block (except the GEMM output, which arrives via
/// the Output BUF) and activations leaving it (INT32 words).
/// `consumers` is the whole-graph [`Graph::consumer_index`].
fn tandem_dram_bytes(graph: &Graph, block: &ExecutionBlock, consumers: &[Vec<NodeId>]) -> u64 {
    let in_block: HashSet<TensorId> = block
        .non_gemm
        .iter()
        .flat_map(|&id| graph.node(id).outputs.iter().copied())
        .collect();
    let gemm_out: HashSet<TensorId> = block
        .gemm
        .iter()
        .flat_map(|&id| graph.node(id).outputs.iter().copied())
        .collect();
    // Activations live in DRAM as INT8 (the cast stream converts at
    // the boundary), so cross-block traffic is one byte per element.
    let mut bytes = 0u64;
    for &id in &block.non_gemm {
        let node = graph.node(id);
        for &input in &node.inputs {
            let t = graph.tensor(input);
            if !t.is_weight && !in_block.contains(&input) && !gemm_out.contains(&input) {
                bytes += t.shape.elements() as u64;
            }
        }
        for &output in &node.outputs {
            let consumed_outside = consumers[output.index()]
                .iter()
                .any(|id| !block.non_gemm.contains(id))
                || graph.outputs().contains(&output);
            if consumed_outside {
                bytes += graph.tensor(output).shape.elements() as u64;
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use crate::{Npu, NpuConfig};
    use std::collections::{HashMap, HashSet};
    use tandem_compiler::NodeSignature;
    use tandem_model::zoo::Benchmark;

    #[test]
    fn signature_ids_intern_exactly() {
        // One hub across the zoo: ids must separate every distinct
        // signature and merge every equal one, within a model and across
        // models sharing the table.
        let npu = Npu::new(NpuConfig::paper());
        let (lanes, rows) = (npu.config().tandem.lanes, npu.config().tandem.interim_rows);
        let mut id_of: HashMap<NodeSignature, u32> = HashMap::new();
        for bench in Benchmark::ALL {
            let graph = bench.graph();
            let plan = npu.plan(&graph);
            let q = plan.shape.2;
            let mut ids = HashSet::new();
            let mut sigs = HashSet::new();
            for node in plan.blocks.iter().flat_map(|b| &b.nodes) {
                let sig = NodeSignature::of(&graph, graph.node(node.id), lanes, rows, q);
                assert_eq!(node.site, sig.site_key(), "{}: site key", bench.name());
                let id = *id_of.entry(sig.clone()).or_insert(node.sig);
                assert_eq!(id, node.sig, "{}: one signature, two ids", bench.name());
                ids.insert(node.sig);
                sigs.insert(sig);
            }
            assert_eq!(ids.len(), sigs.len(), "{}: distinct ids", bench.name());
        }
        let all_ids: HashSet<u32> = id_of.values().copied().collect();
        assert_eq!(all_ids.len(), id_of.len(), "one id, two signatures");
    }
}
