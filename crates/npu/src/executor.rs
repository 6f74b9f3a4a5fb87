//! The end-to-end executor: graph → execution blocks → per-tile GEMM /
//! Tandem co-simulation with double-buffered overlap (paper Figure 10).

use crate::controller::{ControllerEvent, ControllerState, ExecutionController};
use crate::knobs::Despecialization;
use crate::memo::{Interner, Memo};
use crate::par::par_map;
use crate::plan::{BlockPlan, GemmPlan, GraphPlan, NodePlan, SigId};
use crate::report::{ExecStats, NpuReport, VerifySummary};
use gemm_sim::{GemmConfig, GemmReport, GemmUnit, GemmWorkload};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use tandem_compiler::{
    enumerate_sites, prefetch_key, stable_hash, BlockKind, CompileError, CompiledOp, NodeSignature,
    OpLowering, Schedule, TileChoice, TuneSite,
};
use tandem_core::{Dram, EnergyModel, Mode, RunReport, TandemConfig, TandemProcessor};
use tandem_model::Graph;
use tandem_trace::{scale_buckets, CycleAttribution, NullSink, OffsetSink, TraceSink, Track};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// Coordination granularity between the GEMM unit and the Tandem
/// Processor (paper §3.5 and Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileGranularity {
    /// Tile-granularity software pipelining with fluid Output-BUF
    /// ownership — the proposed design.
    #[default]
    Tile,
    /// Whole-layer handoff: units run serially and intermediate layer
    /// outputs spill to DRAM (the Figure 8 baseline).
    Layer,
}

/// Full NPU-Tandem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuConfig {
    /// Tandem Processor configuration (Table 3 right column).
    pub tandem: TandemConfig,
    /// GEMM unit configuration (Table 3 left column).
    pub gemm: GemmConfig,
    /// De-specialization ablation knobs (all off = proposed design).
    pub knobs: Despecialization,
    /// GEMM↔Tandem coordination granularity.
    pub granularity: TileGranularity,
    /// Static/background power of the whole NPU (clock tree, SRAM leakage,
    /// DRAM PHY), watts — the paper compares at a ~2.7 W system (§8).
    pub static_power_w: f64,
    /// Run [`Npu::verify`] — the widened `tandem-verify` pass over every
    /// compiled tile program — and record the outcome in
    /// [`NpuReport::verify`]. Off (opt-in) in every build.
    pub verify: bool,
    /// Tuner schedule overriding per-site tile decisions — the
    /// compiler's non-GEMM sites *and* the GEMM-side pipelining
    /// granularity ([`TileChoice::GemmTile`]), which only this crate can
    /// apply. The empty schedule (the default) reproduces the
    /// hand-rolled heuristics bit for bit.
    pub schedule: Schedule,
}

impl NpuConfig {
    /// The Table 3 configuration with all specializations enabled.
    pub fn paper() -> Self {
        NpuConfig {
            tandem: TandemConfig::paper(),
            gemm: GemmConfig::paper(),
            knobs: Despecialization::none(),
            granularity: TileGranularity::Tile,
            static_power_w: 2.0,
            verify: false,
            schedule: Schedule::empty(),
        }
    }

    /// The iso-TOPs scale-up used against the A100 (§7: 216×).
    pub fn iso_a100() -> Self {
        let mut cfg = Self::paper();
        cfg.tandem = cfg.tandem.scaled(216.0);
        cfg.gemm = cfg.gemm.scaled(216.0);
        cfg
    }

    /// A stable digest of every report-affecting executor setting. Keys
    /// the shared graph-level report cache, so [`Npu::sibling`]s that
    /// differ only in schedule or verify settings never answer each
    /// other's runs. The unit geometries enter through their headline
    /// dimensions; full equality is the sibling contract (asserted
    /// there).
    fn digest(&self) -> u64 {
        stable_hash(&(
            self.schedule.digest(),
            self.verify,
            self.granularity,
            self.knobs,
            self.static_power_w.to_bits(),
            (self.tandem.lanes, self.tandem.interim_rows),
            (self.gemm.rows, self.gemm.cols),
        ))
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Memoization key of a node's lowering and verify outcome: its interned
/// choice-free signature plus the schedule choice pinned at its site —
/// exactly the inputs of [`OpLowering::lower_node`].
type NodeKey = (SigId, Option<TileChoice>);

/// Memoization key of a node's (knob-adjusted) simulation report: the
/// node's [`NodeKey`] plus every executor setting that feeds into the
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SimKey {
    node: NodeKey,
    knobs: Despecialization,
    granularity: TileGranularity,
}

/// Memoization key of a whole-graph report: the graph's structural
/// digest, hardened against (already astronomically unlikely) hash
/// collisions by the graph's node and tensor counts, plus the
/// [`NpuConfig::digest`] of the runner — siblings with different
/// schedules share the cache map but never a report.
type GraphKey = (u64, usize, usize, u64);

/// The cycle-and-traffic demand of one batch-1 run of a graph, as
/// returned by [`Npu::estimate_demand`] — the serving layer's input to
/// the shared-HBM contention model: `dram_bytes / (total_cycles /
/// freq_ghz)` is the run's average off-chip bandwidth demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceDemand {
    /// End-to-end latency in cycles — exactly what [`Npu::estimate`]
    /// returns.
    pub total_cycles: u64,
    /// Bytes moved to/from DRAM over the run, both sides of the machine
    /// (Tandem DAE traffic + GEMM unit traffic).
    pub dram_bytes: u64,
}

/// Memoized static-verification outcome of one node's compiled tile
/// programs. Node-name-free so the value is reusable across structurally
/// identical nodes.
#[derive(Debug, Default)]
struct NodeVerify {
    programs: u64,
    /// Error-severity findings, plus one for a failed lowering.
    errors: u64,
    diagnostics: Vec<String>,
}

/// The memoization state shared by every clone of an [`Npu`] (and by all
/// [`Npu::run_many`] workers and [`Npu::sibling`]s): the signature table
/// [`GraphPlan`]s draw their ids from, compiled lowerings, verify
/// outcomes, per-node simulation reports, GEMM cycle-model reports and
/// whole-graph reports.
///
/// Caching is sound because every cached value is a pure function of its
/// key: lowering depends only on the [`NodeSignature`] (named by its
/// interned id) and the schedule choice, performance-mode simulation
/// produces identical [`RunReport`]s for the same program, the knob
/// adjustments are deterministic arithmetic on that report, and the GEMM
/// cycle model is closed-form in `(workload, tile)`.
#[derive(Debug)]
struct NpuCaches {
    /// Interns signatures even in a disabled set: an id is a name, not a
    /// cached result.
    signatures: Arc<Interner<NodeSignature>>,
    compile: Memo<NodeKey, Arc<Result<CompiledOp, CompileError>>>,
    verify: Memo<NodeKey, Arc<NodeVerify>>,
    sim: Memo<SimKey, RunReport>,
    gemm: Memo<(GemmWorkload, u64), GemmReport>,
    graph: Memo<GraphKey, NpuReport>,
}

impl NpuCaches {
    /// An empty cache set; a disabled set memoizes nothing.
    fn new(enabled: bool) -> Arc<Self> {
        Arc::new(NpuCaches {
            signatures: Arc::new(Interner::new()),
            compile: Memo::new(enabled),
            verify: Memo::new(enabled),
            sim: Memo::new(enabled),
            gemm: Memo::new(enabled),
            graph: Memo::new(enabled),
        })
    }
}

/// The performance-mode processor and DRAM that node simulations run
/// on, built on first use. One serves every node's programs (state is
/// overwritten by each program's configuration section); a warm
/// evaluation, whose nodes all hit the sim cache, never builds it.
struct Machine<'a> {
    cfg: &'a TandemConfig,
    state: Option<(TandemProcessor, Dram)>,
}

impl Machine<'_> {
    fn get(&mut self) -> (&mut TandemProcessor, &mut Dram) {
        let (proc, dram) = self.state.get_or_insert_with(|| {
            (
                TandemProcessor::with_mode(self.cfg.clone(), Mode::Performance),
                Dram::new(16),
            )
        });
        (proc, dram)
    }
}

/// The NPU-Tandem end-to-end model runner.
///
/// Cloning is cheap and shares the internal compilation/simulation caches
/// (they live behind an [`Arc`]); [`Npu::uncached`] builds a runner whose
/// cache set is disabled, so it recompiles and resimulates every node.
#[derive(Debug, Clone)]
pub struct Npu {
    cfg: NpuConfig,
    cfg_digest: u64,
    gemm: GemmUnit,
    lowering: OpLowering,
    caches: Arc<NpuCaches>,
}

impl Npu {
    /// Creates an NPU with the given configuration.
    pub fn new(cfg: NpuConfig) -> Self {
        Self::with_caches(cfg, NpuCaches::new(true))
    }

    /// An NPU running `cfg` against the cache set `caches`.
    fn with_caches(cfg: NpuConfig, caches: Arc<NpuCaches>) -> Self {
        let gemm = GemmUnit::new(cfg.gemm.clone());
        let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows)
            .with_schedule(cfg.schedule.clone());
        Npu {
            cfg_digest: cfg.digest(),
            cfg,
            gemm,
            lowering,
            caches,
        }
    }

    /// A runner over the *same silicon* with different executor settings
    /// — schedule, verify, knobs, granularity — sharing this NPU's
    /// caches. The autotuner scores hundreds of candidate schedules
    /// against one graph; siblings let every candidate reuse the
    /// compile/simulate work of `(site, choice)` decisions already paid
    /// for by earlier candidates, while the config digest in every graph
    /// cache key keeps their reports apart. The Tandem and GEMM unit
    /// configurations must equal this NPU's (debug-asserted): the GEMM
    /// report cache is keyed on `(workload, tile)` under one fixed unit
    /// geometry. A sibling of an [`Npu::uncached`] runner shares its
    /// disabled cache set, so it is uncached too.
    pub fn sibling(&self, cfg: NpuConfig) -> Npu {
        debug_assert_eq!(
            self.cfg.tandem, cfg.tandem,
            "siblings share one Tandem configuration"
        );
        debug_assert_eq!(
            self.cfg.gemm, cfg.gemm,
            "siblings share one GEMM unit configuration"
        );
        Self::with_caches(cfg, Arc::clone(&self.caches))
    }

    /// Creates an NPU whose cache set is disabled: it runs the cached code
    /// path minus the maps, so every node is recompiled and resimulated
    /// and no lookup is counted. Reports are identical to the cached path;
    /// only wall-time differs. Used by the benchmarks and the determinism
    /// tests as the reference path.
    pub fn uncached(cfg: NpuConfig) -> Self {
        Self::with_caches(cfg, NpuCaches::new(false))
    }

    /// The configuration.
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// Runs `graph` end-to-end (batch 1 inference) and reports latency,
    /// energy, utilization and the per-operator breakdown.
    ///
    /// A graph already run on this NPU (any clone, any `run_many` worker)
    /// is answered from the graph-level report cache in O(graph) hash
    /// time; a new graph is planned ([`Npu::plan`]) and evaluated
    /// block-by-block against the node-level caches.
    pub fn run(&self, graph: &Graph) -> NpuReport {
        self.timed(|| {
            let key: GraphKey = (
                graph.content_hash(),
                graph.nodes().len(),
                graph.tensors().len(),
                self.cfg_digest,
            );
            self.caches
                .graph
                .get_or_compute(&key, || self.evaluate(&self.plan(graph), &mut NullSink))
        })
    }

    /// Runs `graph` while streaming a cycle-accurate timeline into `sink`:
    /// execution-block spans, per-tile GEMM/Tandem pipelining with stall
    /// gaps, embedded instruction-level program timelines, DMA bursts,
    /// execution-controller handshakes, and a running cycle-attribution
    /// counter. The returned report is identical to [`Npu::run`]'s (the
    /// determinism tests assert this), but the graph-level report cache is
    /// bypassed so a cached graph still produces its events.
    pub fn run_traced(&self, graph: &Graph, sink: &mut dyn TraceSink) -> NpuReport {
        self.timed(|| self.evaluate(&self.plan(graph), sink))
    }

    /// The schedule-independent part of evaluating `graph` on this NPU's
    /// cache hub, computed once: execution blocks, per-node interned
    /// signatures and site keys, per-block Tandem DRAM traffic and GEMM
    /// workloads. Valid for this NPU and every clone and sibling sharing
    /// its caches, under any schedule, knobs and granularity.
    pub fn plan<'g>(&self, graph: &'g Graph) -> GraphPlan<'g> {
        GraphPlan::new(graph, &self.lowering, &self.gemm, &self.caches.signatures)
    }

    /// [`Npu::run`] of a planned graph, bypassing the graph-level report
    /// cache: one walk over the plan with one schedule lookup and one
    /// memo lookup per node. A search scoring many schedules against one
    /// graph plans it once and calls this per candidate.
    ///
    /// # Panics
    ///
    /// If `plan` was built on another cache hub.
    pub fn run_plan(&self, plan: &GraphPlan) -> NpuReport {
        self.timed(|| self.evaluate(plan, &mut NullSink))
    }

    /// `run` with the report's [`ExecStats`] filled in: this call's
    /// cache-counter delta and wall time.
    fn timed(&self, run: impl FnOnce() -> NpuReport) -> NpuReport {
        let t0 = Instant::now();
        let before = self.stats();
        let mut report = run();
        report.stats = self.stats().delta(&before);
        report.stats.wall_s = t0.elapsed().as_secs_f64();
        report
    }

    /// Cumulative hit/miss counters of the caches this NPU shares with
    /// its clones and `run_many` workers, as an [`ExecStats`] snapshot
    /// (`wall_s` is zero). Counters only grow and are never reset; take a
    /// snapshot before and after a batch and subtract with
    /// [`ExecStats::delta`] for contamination-free accounting — the
    /// per-report `stats` deltas also count concurrent workers' lookups.
    pub fn stats(&self) -> ExecStats {
        let c = &self.caches;
        ExecStats {
            wall_s: 0.0,
            compile_hits: c.compile.hits(),
            compile_misses: c.compile.misses(),
            sim_hits: c.sim.hits(),
            sim_misses: c.sim.misses(),
            gemm_hits: c.gemm.hits(),
            gemm_misses: c.gemm.misses(),
            graph_hits: c.graph.hits(),
            graph_misses: c.graph.misses(),
        }
    }

    /// A cheap cycle estimate of running `graph` on this NPU: the exact
    /// `total_cycles` a [`Npu::run`] would report. The first call per
    /// graph simulates and fills the shared caches; every later call —
    /// from any clone or fleet member sharing them — replays the cached
    /// report in O(graph-hash) time. Serving-layer schedulers
    /// (shortest-job-first, batch sizing) use this as their service-time
    /// oracle without paying for a fresh simulation per decision.
    pub fn estimate(&self, graph: &Graph) -> u64 {
        self.run(graph).total_cycles
    }

    /// [`Npu::estimate`] plus the run's DRAM traffic: the same cached-run
    /// oracle, returning the pair the fleet's shared-HBM contention model
    /// needs — exact cycles for the service time and the byte footprint
    /// that turns into a bandwidth demand when divided by it.
    pub fn estimate_demand(&self, graph: &Graph) -> ServiceDemand {
        let r = self.run(graph);
        ServiceDemand {
            total_cycles: r.total_cycles,
            dram_bytes: r.tandem_dram_bytes + r.gemm_dram_bytes,
        }
    }

    /// Builds one NPU per configuration for a simulated fleet (or a
    /// [`run_matrix`] job list), sharing one cache set among members with
    /// *equal* configurations so a model compiled on one member is warm
    /// on its twins. `Npu` is `Send + Sync` — the caches live behind
    /// `Arc`-ed locks — so the returned members can be moved to worker
    /// threads or driven round-robin from one event loop.
    pub fn fleet(configs: &[NpuConfig]) -> Vec<Npu> {
        // Compile-time proof the members may cross threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Npu>();
        let mut members: Vec<Npu> = Vec::with_capacity(configs.len());
        for cfg in configs {
            match members.iter().find(|n| n.config() == cfg) {
                Some(prev) => members.push(prev.clone()),
                None => members.push(Npu::new(cfg.clone())),
            }
        }
        members
    }

    /// The one executor walk behind every run: evaluates `plan` under
    /// this NPU's schedule, knobs and granularity.
    fn evaluate(&self, plan: &GraphPlan, sink: &mut dyn TraceSink) -> NpuReport {
        self.check_plan(plan);
        let mut report = NpuReport {
            gemm_mac_slots: (self.cfg.gemm.rows * self.cfg.gemm.cols) as u64,
            tandem_lanes: self.cfg.tandem.lanes as u64,
            freq_ghz: self.cfg.tandem.freq_ghz,
            ..Default::default()
        };
        let mut machine = Machine {
            cfg: &self.cfg.tandem,
            state: None,
        };
        // Trailing idle window of the previous block's GEMM DRAM channel:
        // the budget a schedule-enabled weight prefetch may hide in.
        let mut exposed = 0u64;
        if self.cfg.verify {
            report.verify = self.verify_plan(plan);
        }
        for block in &plan.blocks {
            self.run_block(plan, block, &mut machine, &mut report, sink, &mut exposed);
        }
        let energy_model = EnergyModel::paper(self.cfg.tandem.lanes);
        report.tandem_energy = energy_model.energy(&report.counters);
        report.static_nj = self.cfg.static_power_w * report.seconds() * 1e9;
        report
    }

    /// Runs every graph, spreading the work across the available cores
    /// (scoped threads, no work for a missing thread pool to do). All
    /// runs share this NPU's caches, so repeated shapes across models
    /// simulate once. Reports come back in input order and are identical
    /// to `graphs.iter().map(|g| self.run(g))`.
    pub fn run_many(&self, graphs: &[&Graph]) -> Vec<NpuReport> {
        par_map(graphs.len(), 0, |i| self.run(graphs[i]))
    }

    /// Widened `tandem-verify` over the tile programs of every non-GEMM
    /// node of `graph`, folded in block and node order: what a run with
    /// [`NpuConfig::verify`] on reports, and the autotuner's gate.
    pub fn verify(&self, graph: &Graph) -> VerifySummary {
        self.verify_plan(&self.plan(graph))
    }

    /// [`Npu::verify`] of a planned graph. Each node's outcome is memoized
    /// on its interned signature and schedule choice, so a sibling under a
    /// new schedule verifies only the nodes the schedule changes. A lowering failure other than
    /// [`CompileError::Unsupported`] (GEMM operators) counts as an error.
    ///
    /// # Panics
    ///
    /// If `plan` was built on another cache hub.
    pub fn verify_plan(&self, plan: &GraphPlan) -> VerifySummary {
        self.check_plan(plan);
        let mut summary = VerifySummary::default();
        for node in plan.blocks.iter().flat_map(|b| &b.nodes) {
            let outcome = self.node_verify_outcome(plan.graph, node);
            summary.programs += outcome.programs;
            summary.errors += outcome.errors;
            if !outcome.diagnostics.is_empty() {
                let name = &plan.graph.node(node.id).name;
                let named = outcome.diagnostics.iter();
                summary
                    .diagnostics
                    .extend(named.map(|d| format!("{name}: {d}")));
            }
        }
        summary
    }

    /// Asserts that `plan`'s signature ids name entries of this NPU's
    /// table — that it was built on this cache hub.
    fn check_plan(&self, plan: &GraphPlan) {
        assert!(
            Arc::ptr_eq(&plan.signatures, &self.caches.signatures),
            "a graph plan is evaluated only on the cache hub that built it"
        );
    }

    /// The compile/verify memo key of a planned node under this NPU's
    /// schedule.
    fn node_key(&self, node: &NodePlan) -> NodeKey {
        (node.sig, self.cfg.schedule.get(node.site))
    }

    /// [`OpLowering::lower_node`] of the planned `node`, through the
    /// compile cache.
    fn lower(&self, graph: &Graph, node: &NodePlan) -> Arc<Result<CompiledOp, CompileError>> {
        self.caches
            .compile
            .get_or_compute(&self.node_key(node), || {
                Arc::new(self.lowering.lower_node(graph, graph.node(node.id)))
            })
    }

    /// The per-node body of [`Npu::verify_plan`], memoized on the node's
    /// [`NodeKey`].
    fn node_verify_outcome(&self, graph: &Graph, node: &NodePlan) -> Arc<NodeVerify> {
        self.caches.verify.get_or_compute(&self.node_key(node), || {
            let mut out = NodeVerify::default();
            match self.lower(graph, node).as_ref() {
                Ok(c) => {
                    let verifier = Verifier::new(
                        VerifyConfig::from(&self.cfg.tandem).with_mode(VerifyMode::Widened),
                    );
                    for (prog, _) in &c.tiles {
                        let rep = verifier.verify(prog);
                        out.programs += 1;
                        out.errors += rep.errors().count() as u64;
                        out.diagnostics
                            .extend(rep.diagnostics.iter().map(|d| d.to_string()));
                    }
                }
                Err(CompileError::Unsupported { .. }) => {}
                Err(e) => {
                    out.errors += 1;
                    out.diagnostics.push(format!("lowering failed: {e}"));
                }
            }
            Arc::new(out)
        })
    }

    /// Simulates one non-GEMM node's compiled programs in performance
    /// mode, returning its (knob-adjusted) aggregate report. Memoized on
    /// the node's [`NodeKey`] plus the executor knobs.
    fn tandem_node_report(
        &self,
        graph: &Graph,
        node: &NodePlan,
        machine: &mut Machine,
    ) -> RunReport {
        let key = SimKey {
            node: self.node_key(node),
            knobs: self.cfg.knobs,
            granularity: self.cfg.granularity,
        };
        self.caches.sim.get_or_compute(&key, || {
            let compiled = self.lower(graph, node);
            let Ok(compiled) = compiled.as_ref() else {
                return RunReport::default(); // metadata-only ops
            };
            let (proc, dram) = machine.get();
            let mut total = RunReport::default();
            for (prog, reps) in &compiled.tiles {
                let one = proc
                    .run(prog, dram)
                    .expect("compiled tile program must simulate");
                total.merge(&one.scaled(*reps));
            }
            // De-specialization penalties and special-function credits.
            // The penalty models extra *instructions*, so it lands in the
            // `despecialization` bucket; the multiplicative credit
            // rescales every bucket so the breakdown keeps summing to the
            // cycles.
            let extra = self.cfg.knobs.extra_cycles(&total.counters);
            total.compute_cycles += extra;
            total.breakdown.despecialization += extra;
            let factor = self.cfg.knobs.special_fn_factor(node.kind);
            if factor < 1.0 {
                total.compute_cycles = ((total.compute_cycles as f64) * factor).ceil() as u64;
                total.breakdown.scale_to(total.compute_cycles);
            }
            total
        })
    }

    /// [`GemmUnit::tile_report`], through the GEMM-report cache.
    fn gemm_tile_report(&self, w: GemmWorkload, m_tile: u64) -> GemmReport {
        self.caches
            .gemm
            .get_or_compute(&(w, m_tile), || self.gemm.tile_report(w, m_tile))
    }

    /// [`GemmUnit::layer_report`], through the GEMM-report cache.
    fn gemm_layer_report(&self, w: GemmWorkload) -> GemmReport {
        self.gemm_tile_report(w, w.m)
    }

    /// The single-pass DATATYPE_CAST stream over `elems` elements.
    fn cast_stream_report(&self, elems: u64) -> RunReport {
        let lanes = self.cfg.tandem.lanes as u64;
        let rows = elems.div_ceil(lanes);
        let mut r = RunReport {
            compute_cycles: rows + self.cfg.tandem.pipeline_depth,
            ..Default::default()
        };
        r.counters.instructions = rows;
        r.counters.compute_issues = rows;
        r.counters.alu_lane_ops = rows * lanes;
        r.counters.spad_row_reads = rows;
        r.counters.spad_row_writes = rows;
        r.counters.addr_calcs = rows * 2;
        r.counters.loop_steps = rows;
        r.breakdown.issue = rows;
        r.breakdown.fill = self.cfg.tandem.pipeline_depth;
        let extra = self.cfg.knobs.extra_cycles(&r.counters);
        r.compute_cycles += extra;
        r.breakdown.despecialization += extra;
        r
    }

    /// The schedule's [`TileChoice::GemmTile`] override pinned at the
    /// GEMM node's tuning site, if any — the raw m-rows before clamping
    /// to the accumulator capacity.
    fn gemm_tile_override(&self, plan: &GraphPlan, gemm: &GemmPlan) -> Option<u64> {
        if self.cfg.schedule.is_empty() {
            return None;
        }
        match self.cfg.schedule.get(plan.gemm_site(gemm)) {
            Some(TileChoice::GemmTile { m_rows }) => Some(m_rows as u64),
            _ => None,
        }
    }

    /// `true` when the schedule turns on cross-block weight prefetch for
    /// the GEMM node (a [`TileChoice::Prefetch`] pinned at the node's
    /// [`prefetch_key`] site).
    fn prefetch_enabled(&self, plan: &GraphPlan, gemm: &GemmPlan) -> bool {
        if self.cfg.schedule.is_empty() {
            return false;
        }
        matches!(
            self.cfg.schedule.get(prefetch_key(plan.gemm_site(gemm))),
            Some(TileChoice::Prefetch { on: true })
        )
    }

    /// Enumerates every tuning site of `graph` on this NPU: the
    /// compiler's non-GEMM sites ([`enumerate_sites`]) merged with the
    /// GEMM-side pipelining-granularity sites only this crate can build
    /// — their candidate m-tiles depend on the systolic geometry through
    /// [`GemmUnit::max_tile_rows`]. Site keys and candidate lists are
    /// schedule-independent, so the result is identical whatever
    /// schedule this NPU currently runs under.
    pub fn tune_sites(&self, graph: &Graph) -> Vec<TuneSite> {
        use std::collections::BTreeSet;
        let plan = self.plan(graph);
        let mut site_of = vec![0u64; graph.nodes().len()];
        for node in plan.blocks.iter().flat_map(|b| &b.nodes) {
            site_of[node.id.index()] = node.site;
        }
        let mut sites = enumerate_sites(&self.lowering, graph, |node| site_of[node.id.index()]);
        let mut seen: HashSet<u64> = sites.iter().map(|s| s.key).collect();
        // The partition keeps execution order, so this is node order.
        let gemms = || plan.blocks.iter().filter_map(|b| b.gemm.as_ref());
        for g in gemms() {
            let key = plan.gemm_site(g);
            if seen.contains(&key) {
                continue;
            }
            // The hand-rolled executor always takes the largest tile the
            // accumulator holds; the candidates walk down from it and add
            // the largest *exact divisor* of M (no ragged last tile).
            let (w, cap) = (g.workload, g.cap);
            let baseline = TileChoice::GemmTile { m_rows: cap as u32 };
            let mut set = BTreeSet::from([baseline]);
            for c in [cap / 2, cap / 4, cap / 8, largest_divisor_le(w.m, cap)] {
                if c >= 1 {
                    set.insert(TileChoice::GemmTile { m_rows: c as u32 });
                }
            }
            if set.len() < 2 {
                continue;
            }
            seen.insert(key);
            sites.push(TuneSite {
                key,
                name: graph.node(g.id).name.clone(),
                node: g.id,
                baseline,
                candidates: set.into_iter().collect(),
            });
        }
        // Cross-block weight-prefetch sites: one boolean per distinct
        // GEMM signature whose weight matrix actually appears in the
        // first-tile fill (resident-and-tiled weights are already
        // amortized, so prefetch would be a no-op there).
        for g in gemms() {
            let pkey = prefetch_key(plan.gemm_site(g));
            if seen.contains(&pkey) {
                continue;
            }
            let (w, cap) = (g.workload, g.cap);
            let weight_bytes = w.k * w.n;
            let resident = weight_bytes <= (self.gemm.config().scratchpad_bytes / 2) as u64;
            if resident && cap < w.m {
                continue;
            }
            seen.insert(pkey);
            sites.push(TuneSite {
                key: pkey,
                name: format!("{}+prefetch", graph.node(g.id).name),
                node: g.id,
                baseline: TileChoice::Prefetch { on: false },
                candidates: vec![
                    TileChoice::Prefetch { on: false },
                    TileChoice::Prefetch { on: true },
                ],
            });
        }
        sites
    }

    fn run_block(
        &self,
        plan: &GraphPlan,
        block: &BlockPlan,
        machine: &mut Machine,
        report: &mut NpuReport,
        sink: &mut dyn TraceSink,
        exposed: &mut u64,
    ) {
        let cursor = report.total_cycles;
        // --- Tandem side: compile + simulate each non-GEMM node ---
        let mut tandem_total = RunReport::default();
        for node in &block.nodes {
            let r = self.tandem_node_report(plan.graph, node, machine);
            *report.per_kind_cycles.entry(node.kind).or_default() += r.compute_cycles;
            tandem_total.merge(&r);
        }
        // Datatype cast stream back to the GEMM unit's INT8 domain for the
        // block's output activations (paper §3.4: "a datatype casting
        // instruction is required when activations move from non-GEMM to
        // GEMM unit").
        if !block.nodes.is_empty() {
            let cast = self.cast_stream_report(block.cast_elems);
            *report
                .per_kind_cycles
                .entry(tandem_model::OpKind::Cast)
                .or_default() += cast.compute_cycles;
            tandem_total.merge(&cast);
        }
        let tandem_dram_bytes = block.tandem_dram_bytes;
        let dma_cycles =
            (tandem_dram_bytes as f64 / (self.cfg.tandem.dram_words_per_cycle * 4.0)).ceil() as u64;
        tandem_total.dma_cycles += dma_cycles;
        tandem_total.counters.dram_words += tandem_dram_bytes / 4;
        report.tandem_dram_bytes += tandem_dram_bytes;

        // --- GEMM side ---
        let mut gemm_compute_cycles = 0u64;
        let mut gemm_detail: Option<(GemmWorkload, u64)> = None;
        // Cycles the GEMM DRAM channel is busy in this block (bounds the
        // idle window the *next* block's weight prefetch may hide in),
        // and this block's first-tile fill after prefetch hiding.
        let mut gemm_dram_busy = 0u64;
        let mut gemm_fill_cycles = 0u64;
        let (gemm_total_cycles, gemm_tile_cycles, tiles) = match &block.gemm {
            Some(g) => {
                let (w, cap) = (g.workload, g.cap);
                let tile_rows = match self.gemm_tile_override(plan, g) {
                    Some(m_rows) => m_rows.clamp(1, cap),
                    None => cap,
                };
                let tiles = w.m.div_ceil(tile_rows.max(1)).max(1);
                let m_tile = tile_rows.min(w.m);
                let tile = self.gemm_tile_report(w, m_tile);
                let whole = self.gemm_layer_report(w);
                report.gemm_macs += whole.macs;
                report.gemm_dram_bytes += whole.dram_bytes;
                report.gemm_energy_nj += whole.energy_nj;
                *report.per_kind_cycles.entry(g.kind).or_default() += whole.overlapped_cycles();
                report.busy.gemm_cycles += whole.compute_cycles;
                gemm_compute_cycles = whole.compute_cycles;
                gemm_detail = Some((w, m_tile));
                // Cross-block weight prefetch (schedule-enabled): up to
                // the double-buffered scratchpad half of this matrix may
                // stream during the previous block's idle-channel window
                // (`*exposed`), shrinking the first tile's weight load.
                // The total traffic is unchanged — only its placement.
                let hidden = if self.prefetch_enabled(plan, g) {
                    let gcfg = self.gemm.config();
                    let weight_bytes = w.k * w.n;
                    let half = (gcfg.scratchpad_bytes / 2) as u64;
                    // Mirrors `GemmUnit::tile_report`'s residency rule: a
                    // resident matrix on a tiled layer never appears in
                    // tile DRAM time, so there is nothing to hide.
                    let charged = if weight_bytes <= half && m_tile < w.m {
                        0
                    } else {
                        weight_bytes.min(half)
                    };
                    let hideable = (charged as f64 / gcfg.dram_bytes_per_cycle).ceil() as u64;
                    hideable.min(*exposed)
                } else {
                    0
                };
                let fill = tile
                    .compute_cycles
                    .max(tile.dram_cycles.saturating_sub(hidden));
                gemm_fill_cycles = fill;
                gemm_dram_busy = if block.nodes.is_empty() {
                    whole.dram_cycles.saturating_sub(hidden)
                } else {
                    (tiles * tile.dram_cycles).saturating_sub(hidden)
                };
                let whole_hidden = whole
                    .compute_cycles
                    .max(whole.dram_cycles.saturating_sub(hidden));
                (whole_hidden, tile.overlapped_cycles(), tiles)
            }
            None => (0, 0, 1),
        };

        report.busy.tandem_cycles += tandem_total.compute_cycles;
        report.counters.merge(&tandem_total.counters);

        // --- compose block latency and attribute every cycle of it ---
        let fifo = self.cfg.knobs.fifo_cycles(self.cfg.tandem.obuf_rows as u64) * tiles;
        let tandem_cycles = tandem_total.compute_cycles.max(tandem_total.dma_cycles) + fifo;
        // Decompose the Tandem side of the critical path: useful vector
        // work, front-end stalls, and sync from the per-program breakdown
        // (which sums exactly to `compute_cycles`), plus the FIFO-coupling
        // copies and the DMA excess past compute.
        let tb = &tandem_total.breakdown;
        let tandem_busy = tb.issue + tb.permute + tb.tile_issue + tb.despecialization;
        let tandem_front = tb.config + tb.fill;
        let dae_excess = tandem_total
            .dma_cycles
            .saturating_sub(tandem_total.compute_cycles);
        let mut attr = CycleAttribution::default();
        let block_cycles = match (block.gemm.is_some(), block.nodes.is_empty()) {
            (true, true) => {
                attr.gemm_compute = gemm_compute_cycles.min(gemm_total_cycles);
                attr.dae_wait = gemm_total_cycles - attr.gemm_compute;
                gemm_total_cycles
            }
            (false, _) => {
                attr.tandem_compute = tandem_busy;
                attr.front_end_stall = tandem_front;
                attr.sync_wait = tb.sync + fifo;
                attr.dae_wait = dae_excess;
                tandem_cycles
            }
            (true, false) => match self.cfg.granularity {
                TileGranularity::Tile => {
                    // Fill with the first GEMM tile, then steady-state
                    // max(gemm, tandem) per tile, then drain the last
                    // Tandem tile.
                    let t_tile = tandem_cycles / tiles.max(1);
                    // First tile: the Tandem Processor has nothing to do
                    // (the fill shrinks when a prefetch hid its weights).
                    attr.drain = gemm_fill_cycles;
                    // Steady state: when a GEMM tile outlasts a Tandem
                    // tile, the Tandem Processor waits on the next
                    // Output-BUF handoff.
                    attr.sync_wait = (tiles - 1) * gemm_tile_cycles.saturating_sub(t_tile);
                    // The Tandem side runs `tiles × t_tile` cycles on the
                    // critical path; rescale its decomposition to exactly
                    // that (integer tiling truncates the remainder).
                    let mut buckets = [tandem_busy, tandem_front, tb.sync + fifo, dae_excess];
                    scale_buckets(&mut buckets, tiles * t_tile);
                    attr.tandem_compute = buckets[0];
                    attr.front_end_stall = buckets[1];
                    attr.sync_wait += buckets[2];
                    attr.dae_wait = buckets[3];
                    gemm_fill_cycles + (tiles - 1) * gemm_tile_cycles.max(t_tile) + t_tile
                }
                TileGranularity::Layer => {
                    // Serial handoff through DRAM: the whole GEMM output
                    // spills and re-loads.
                    let spill_bytes = block.gemm.as_ref().map_or(0, |g| g.out_elems * 4 * 2);
                    let spill = (spill_bytes as f64 / (self.cfg.tandem.dram_words_per_cycle * 4.0))
                        .ceil() as u64;
                    attr.gemm_compute = gemm_compute_cycles.min(gemm_total_cycles);
                    attr.tandem_compute = tandem_busy;
                    attr.front_end_stall = tandem_front;
                    attr.sync_wait = tb.sync + fifo;
                    attr.dae_wait = (gemm_total_cycles - attr.gemm_compute) + dae_excess + spill;
                    gemm_total_cycles + tandem_cycles + spill
                }
            },
        };
        debug_assert_eq!(
            attr.total(),
            block_cycles,
            "attribution must cover the block latency exactly"
        );
        report.attribution.merge(&attr);
        report.total_cycles += block_cycles;
        // Whatever part of this block the GEMM DRAM channel sat idle is
        // the next block's prefetch budget.
        *exposed = block_cycles.saturating_sub(gemm_dram_busy);
        if sink.enabled() {
            self.trace_block(
                plan.graph,
                block,
                machine,
                cursor,
                block_cycles,
                tiles,
                gemm_tile_cycles,
                gemm_total_cycles,
                tandem_cycles,
                &tandem_total,
                gemm_detail,
                sink,
            );
            sink.counter(
                "cycle attribution",
                report.total_cycles,
                &report.attribution.rows(),
            );
        }
    }

    /// Emits the timeline of one executed block: the block span, per-tile
    /// GEMM↔Tandem pipelining with its stall gaps, the execution
    /// controller's handshakes (fed through the real Figure 11 FSM so the
    /// protocol is re-validated while tracing), DMA excess, and the
    /// embedded instruction-level timeline of the block's compiled tile
    /// programs.
    #[allow(clippy::too_many_arguments)]
    fn trace_block(
        &self,
        graph: &Graph,
        planned: &BlockPlan,
        machine: &mut Machine,
        cursor: u64,
        block_cycles: u64,
        tiles: u64,
        gemm_tile_cycles: u64,
        gemm_total_cycles: u64,
        tandem_cycles: u64,
        tandem_total: &RunReport,
        gemm_detail: Option<(GemmWorkload, u64)>,
        sink: &mut dyn TraceSink,
    ) {
        // Per-tile spans beyond this count coalesce into one "(elided)"
        // span (its `tiles` arg records how many) so huge layers stay
        // loadable in the viewer.
        const DETAIL_TILES: u64 = 32;
        let block = &planned.block;
        let kind = block.kind();
        let label = match (block.gemm, block.non_gemm.first()) {
            (Some(g), _) => graph.node(g).name.as_str(),
            (None, Some(&n)) => graph.node(n).name.as_str(),
            (None, None) => "empty block",
        };
        sink.span(
            Track::Blocks,
            label,
            "block",
            cursor,
            block_cycles,
            &[
                ("tiles", tiles),
                ("non_gemm_ops", block.non_gemm.len() as u64),
            ],
        );
        let mut ctrl = ExecutionController::new(tiles.min(u32::MAX as u64) as u32);
        ctrl.start_dispatch();
        ctrl.on_event(ControllerEvent::DispatchDone(kind));
        sink.instant(
            Track::Controller,
            "dispatch done",
            "handshake",
            cursor,
            &[("tiles", tiles)],
        );
        match kind {
            BlockKind::GemmOnly => {
                sink.span(
                    Track::Gemm,
                    "gemm layer",
                    "compute",
                    cursor,
                    gemm_total_cycles,
                    &[("tiles", tiles)],
                );
                self.trace_gemm_passes(gemm_detail, cursor, sink);
                let per_tile = gemm_total_cycles / tiles.max(1);
                for k in 0..tiles {
                    ctrl.on_event(ControllerEvent::GemmTileDone);
                    if k < DETAIL_TILES || k + 1 == tiles {
                        let at = if k + 1 == tiles {
                            cursor + gemm_total_cycles
                        } else {
                            cursor + (k + 1) * per_tile
                        };
                        sink.instant(
                            Track::Controller,
                            "GEMM_tile_done",
                            "handshake",
                            at,
                            &[("tile", k)],
                        );
                    }
                }
            }
            BlockKind::NonGemmOnly => {
                sink.span(
                    Track::Tandem,
                    "tandem bundle",
                    "compute",
                    cursor,
                    tandem_cycles,
                    &[("ops", block.non_gemm.len() as u64)],
                );
                self.trace_dae_stream(tandem_total, cursor, sink);
                if tandem_total.dma_cycles > tandem_total.compute_cycles {
                    sink.span(
                        Track::Dae,
                        "dma excess",
                        "stall",
                        cursor + tandem_total.compute_cycles,
                        tandem_total.dma_cycles - tandem_total.compute_cycles,
                        &[],
                    );
                }
                self.trace_programs(graph, planned, machine, cursor, sink);
                for _ in 0..tiles {
                    ctrl.on_event(ControllerEvent::TandemDone);
                }
                sink.instant(
                    Track::Controller,
                    "Tandem_done",
                    "handshake",
                    cursor + block_cycles,
                    &[],
                );
            }
            BlockKind::Fused => match self.cfg.granularity {
                TileGranularity::Tile => {
                    // The pipelined schedule behind the block-latency
                    // formula: GEMM tile k occupies
                    // [cursor + k·s, +g], the Tandem Processor consumes
                    // tile k over [cursor + g + k·s, +t], with stride
                    // s = max(g, t); the gap on the slower side is the
                    // stall the attribution charges.
                    let g = gemm_tile_cycles;
                    let t_tile = tandem_cycles / tiles.max(1);
                    let s = g.max(t_tile);
                    let detail = tiles.min(DETAIL_TILES);
                    for k in 0..detail {
                        sink.span(
                            Track::Gemm,
                            "gemm tile",
                            "compute",
                            cursor + k * s,
                            g,
                            &[("tile", k)],
                        );
                        if k + 1 < tiles && t_tile > g {
                            sink.span(
                                Track::Gemm,
                                "wait obuf release",
                                "stall",
                                cursor + k * s + g,
                                t_tile - g,
                                &[],
                            );
                        }
                        sink.span(
                            Track::Tandem,
                            "tandem tile",
                            "compute",
                            cursor + g + k * s,
                            t_tile,
                            &[("tile", k)],
                        );
                        if k + 1 < tiles && g > t_tile {
                            sink.span(
                                Track::Tandem,
                                "wait gemm tile",
                                "stall",
                                cursor + g + k * s + t_tile,
                                g - t_tile,
                                &[],
                            );
                        }
                    }
                    if tiles > detail {
                        let n = tiles - detail;
                        sink.span(
                            Track::Gemm,
                            "gemm tiles (elided)",
                            "compute",
                            cursor + detail * s,
                            (tiles - 1 - detail) * s + g,
                            &[("tiles", n)],
                        );
                        sink.span(
                            Track::Tandem,
                            "tandem tiles (elided)",
                            "compute",
                            cursor + g + detail * s,
                            (tiles - 1 - detail) * s + t_tile,
                            &[("tiles", n)],
                        );
                    }
                    self.trace_gemm_passes(gemm_detail, cursor, sink);
                    self.trace_dae_stream(tandem_total, cursor + g, sink);
                    self.trace_programs(graph, planned, machine, cursor + g, sink);
                    for k in 0..tiles {
                        ctrl.on_event(ControllerEvent::GemmTileDone);
                        ctrl.on_event(ControllerEvent::ObufReleased);
                        ctrl.on_event(ControllerEvent::TandemDone);
                        if k < DETAIL_TILES || k + 1 == tiles {
                            let done = cursor + g + k * s + t_tile;
                            sink.instant(
                                Track::Controller,
                                "GEMM_tile_done",
                                "handshake",
                                cursor + k * s + g,
                                &[("tile", k)],
                            );
                            sink.instant(
                                Track::Controller,
                                "OBUF_done",
                                "handshake",
                                done,
                                &[("tile", k)],
                            );
                            sink.instant(
                                Track::Controller,
                                "Tandem_done",
                                "handshake",
                                done,
                                &[("tile", k)],
                            );
                        }
                    }
                }
                TileGranularity::Layer => {
                    // Serial handoff: GEMM layer, OBUF spill through DRAM,
                    // then the Tandem bundle.
                    let spill = block_cycles - gemm_total_cycles - tandem_cycles;
                    sink.span(
                        Track::Gemm,
                        "gemm layer",
                        "compute",
                        cursor,
                        gemm_total_cycles,
                        &[("tiles", tiles)],
                    );
                    self.trace_gemm_passes(gemm_detail, cursor, sink);
                    if spill > 0 {
                        sink.span(
                            Track::Dae,
                            "obuf spill + reload",
                            "dma",
                            cursor + gemm_total_cycles,
                            spill,
                            &[],
                        );
                    }
                    let tandem_start = cursor + gemm_total_cycles + spill;
                    sink.span(
                        Track::Tandem,
                        "tandem bundle (serial)",
                        "compute",
                        tandem_start,
                        tandem_cycles,
                        &[("ops", block.non_gemm.len() as u64)],
                    );
                    self.trace_dae_stream(tandem_total, tandem_start, sink);
                    self.trace_programs(graph, planned, machine, tandem_start, sink);
                    for _ in 0..tiles {
                        ctrl.on_event(ControllerEvent::GemmTileDone);
                        ctrl.on_event(ControllerEvent::ObufReleased);
                        ctrl.on_event(ControllerEvent::TandemDone);
                    }
                    sink.instant(
                        Track::Controller,
                        "GEMM_tile_done",
                        "handshake",
                        cursor + gemm_total_cycles,
                        &[("tiles", tiles)],
                    );
                    sink.instant(
                        Track::Controller,
                        "Tandem_done",
                        "handshake",
                        cursor + block_cycles,
                        &[],
                    );
                }
            },
        }
        debug_assert_eq!(
            ctrl.state(),
            ControllerState::BlockDone,
            "traced schedule must drive the controller FSM to completion"
        );
    }

    /// The block's Data Access Engine activity: DRAM traffic is modeled
    /// analytically per block (planned once per graph), so the DAE
    /// track shows it as one double-buffered stream span alongside the
    /// Tandem compute it overlaps.
    fn trace_dae_stream(&self, tandem_total: &RunReport, start: u64, sink: &mut dyn TraceSink) {
        if tandem_total.dma_cycles > 0 {
            sink.span(
                Track::Dae,
                "dae stream",
                "dma",
                start,
                tandem_total.dma_cycles,
                &[("words", tandem_total.counters.dram_words)],
            );
        }
    }

    /// Pass-level detail of one GEMM tile at `start`, when small enough
    /// to render (larger layers keep their tile-level span, whose `tiles`
    /// arg records the full extent).
    fn trace_gemm_passes(
        &self,
        gemm_detail: Option<(GemmWorkload, u64)>,
        start: u64,
        sink: &mut dyn TraceSink,
    ) {
        const MAX_PASSES: u64 = 64;
        let Some((w, m_tile)) = gemm_detail else {
            return;
        };
        let passes =
            w.k.div_ceil(self.cfg.gemm.rows as u64) * w.n.div_ceil(self.cfg.gemm.cols as u64);
        if passes <= MAX_PASSES {
            self.gemm.trace_tile(w, m_tile, start, sink);
        }
    }

    /// Embeds the instruction-level timeline of the block's compiled tile
    /// programs on the [`Track::Program`] lane starting at `start`: each
    /// program's first repetition plays out span by span (config runs,
    /// Code Repeater nests, permutes, DMA bursts, syncs); further
    /// repetitions coalesce into one "tile repeats" span.
    fn trace_programs(
        &self,
        graph: &Graph,
        block: &BlockPlan,
        machine: &mut Machine,
        start: u64,
        sink: &mut dyn TraceSink,
    ) {
        let (proc, dram) = machine.get();
        let mut at = start;
        for node in &block.nodes {
            let compiled = self.lower(graph, node);
            let Ok(c) = compiled.as_ref() else { continue };
            for (prog, reps) in &c.tiles {
                let one = {
                    let mut off = OffsetSink::new(sink, at, Track::Program);
                    proc.run_traced(prog, dram, &mut off)
                        .expect("compiled tile program must simulate")
                };
                at += one.compute_cycles;
                if *reps > 1 {
                    let rest = one.compute_cycles * (*reps - 1);
                    sink.span(
                        Track::Program,
                        "tile repeats",
                        "compute",
                        at,
                        rest,
                        &[("reps", *reps - 1)],
                    );
                    at += rest;
                }
            }
        }
    }
}

/// The largest divisor of `n` that is at most `cap` (≥ 1): the biggest
/// GEMM m-tile that divides the output rows exactly.
fn largest_divisor_le(n: u64, cap: u64) -> u64 {
    let cap = cap.min(n).max(1);
    (1..=cap).rev().find(|&d| n.is_multiple_of(d)).unwrap_or(1)
}

/// Runs a heterogeneous `(configuration, graph)` job matrix in parallel,
/// returning reports in job order. Jobs with equal configurations share
/// one NPU (and therefore its caches) through [`Npu::fleet`], so a sweep
/// that varies only the model — or repeats configurations — pays each
/// distinct block shape once.
pub fn run_matrix(jobs: &[(NpuConfig, &Graph)]) -> Vec<NpuReport> {
    let configs: Vec<NpuConfig> = jobs.iter().map(|(cfg, _)| cfg.clone()).collect();
    let npus = Npu::fleet(&configs);
    par_map(jobs.len(), 0, |i| npus[i].run(jobs[i].1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo;

    #[test]
    fn vgg_runs_and_is_gemm_dominated() {
        let npu = Npu::new(NpuConfig::paper());
        let r = npu.run(&zoo::vgg16());
        assert!(r.total_cycles > 0);
        // VGG-16 is the classic GEMM-heavy model (paper Fig. 24).
        assert!(
            r.non_gemm_fraction() < 0.5,
            "non-GEMM fraction {}",
            r.non_gemm_fraction()
        );
        assert!(r.gemm_utilization() > 0.1, "{}", r.gemm_utilization());
    }

    #[test]
    fn tile_granularity_beats_layer_granularity() {
        let tile = Npu::new(NpuConfig::paper()).run(&zoo::resnet50());
        let mut cfg = NpuConfig::paper();
        cfg.granularity = TileGranularity::Layer;
        let layer = Npu::new(cfg).run(&zoo::resnet50());
        assert!(
            layer.total_cycles > tile.total_cycles,
            "layer {} vs tile {}",
            layer.total_cycles,
            tile.total_cycles
        );
        assert!(layer.gemm_utilization() < tile.gemm_utilization());
    }

    #[test]
    fn despecialization_knobs_slow_the_machine_down() {
        let base = Npu::new(NpuConfig::paper()).run(&zoo::mobilenetv2());
        for knobs in [
            Despecialization {
                regfile_ldst: true,
                ..Default::default()
            },
            Despecialization {
                branch_loops: true,
                ..Default::default()
            },
            Despecialization {
                sw_addr_calc: true,
                ..Default::default()
            },
        ] {
            let mut cfg = NpuConfig::paper();
            cfg.knobs = knobs;
            let slow = Npu::new(cfg).run(&zoo::mobilenetv2());
            assert!(
                slow.total_cycles > base.total_cycles,
                "{knobs:?} did not slow down"
            );
        }
    }

    #[test]
    fn verify_summary_is_clean_and_deterministic() {
        let mut cfg = NpuConfig::paper();
        cfg.verify = true;
        let cached = Npu::new(cfg.clone()).run(&zoo::mobilenetv2());
        assert!(cached.verify.programs > 0, "no programs verified");
        assert!(
            cached.verify.is_clean(),
            "compiler emitted unverifiable programs:\n{}",
            cached.verify.diagnostics.join("\n")
        );
        // The summary is part of report equality and must not depend on
        // cache state.
        let uncached = Npu::uncached(cfg).run(&zoo::mobilenetv2());
        assert_eq!(cached, uncached);
    }

    #[test]
    fn verify_flag_off_leaves_an_empty_summary() {
        let mut cfg = NpuConfig::paper();
        cfg.verify = false;
        let r = Npu::new(cfg).run(&zoo::vgg16());
        assert_eq!(r.verify.programs, 0);
        assert!(r.verify.is_clean());
    }

    #[test]
    fn schedule_overrides_are_cache_sound_and_deterministic() {
        use std::collections::BTreeMap;
        use tandem_model::{GraphBuilder, Padding};
        let g = {
            let mut b = GraphBuilder::new("tune-exec", 2024);
            let x = b.input("x", [1, 32, 28, 28]);
            let c = b.conv(x, 32, 3, 1, Padding::Same);
            let r = b.relu(c);
            let m = b.max_pool(r, 2, 2);
            b.output(m);
            b.finish()
        };
        let base = Npu::new(NpuConfig::paper());
        let sites = base.tune_sites(&g);
        assert!(
            sites
                .iter()
                .any(|s| matches!(s.baseline, TileChoice::GemmTile { .. })),
            "conv must contribute a GEMM-side site"
        );
        // Pin every site to a non-baseline candidate.
        let choices: BTreeMap<u64, TileChoice> = sites
            .iter()
            .filter_map(|s| {
                s.candidates
                    .iter()
                    .copied()
                    .find(|c| *c != s.baseline)
                    .map(|c| (s.key, c))
            })
            .collect();
        assert!(!choices.is_empty());
        let mut cfg = NpuConfig::paper();
        cfg.schedule = Schedule::new(choices);
        let tuned = base.sibling(cfg.clone());
        // The tuned report must match a fresh uncached run under the same
        // schedule (the tuner's oracle contract) …
        let r = tuned.run(&g);
        assert_eq!(r, Npu::uncached(cfg).run(&g));
        // … differ from the baseline, and leave the shared caches clean
        // for the baseline runner.
        let rb = base.run(&g);
        assert_ne!(r.total_cycles, rb.total_cycles);
        assert_eq!(rb, Npu::uncached(NpuConfig::paper()).run(&g));
    }

    #[test]
    fn energy_and_power_are_sane() {
        let r = Npu::new(NpuConfig::paper()).run(&zoo::resnet50());
        assert!(r.total_energy_nj() > 0.0);
        let w = r.average_power_w();
        // An edge NPU burns single-digit watts, not milliwatts or kW.
        assert!((0.05..50.0).contains(&w), "power {w} W");
    }
}
