//! The serving core both engines drive: per-NPU contended lanes and the
//! online request accounting.
//!
//! A *lane* is one NPU's current service phase — a whole-graph dispatch
//! ([`crate::Fleet`]) or one batch iteration ([`crate::llm::LlmFleet`]).
//! Under a finite shared-HBM budget a lane's completion time is
//! provisional: every change to the set of serving lanes re-shares the
//! bandwidth through [`MemorySystem::allocate_into`], banks each lane's
//! progress at the rate in force since the last re-share, re-prices the
//! remaining work, and reschedules the completion event under a fresh
//! generation. Completion events carry `gen · n_lanes + lane`; a pop
//! whose generation is no longer the lane's latest stamp was superseded
//! and is discarded ([`Lanes::live`]). With the budget unlimited a
//! lane's completion is final when it begins.
//!
//! The [`Ledger`] is the accounting both engines share: queue depth and
//! its samples, completion counters, per-request records, the latency /
//! queue / stall / per-model distributions (one
//! [`LatencyAccumulator`] each), windowed rollups, and the assembly of
//! the [`FleetReport`]. [`FleetConfig::retain_records`] is read once,
//! when the ledger is built.
//!
//! All state is struct-of-arrays or reused buffers: steady-state
//! serving performs no per-event heap allocation here.

use crate::engine::FleetConfig;
use crate::events::EventQueue;
use crate::memory::{Allocation, BandwidthDemand, MemorySystem};
use crate::report::{FleetReport, LlmStats, ModelStats, NpuUsage, RequestRecord};
use crate::stats::{LatencyAccumulator, Rollups};
use tandem_npu::ExecStats;
use tandem_trace::{fleet as spans, TraceSink};

/// Per-NPU service lanes over one shared memory system.
#[derive(Debug)]
pub(crate) struct Lanes {
    mem: MemorySystem,
    /// Event kind of a lane's completion.
    done_kind: u8,
    /// In a service phase (consuming bandwidth under contention).
    busy: Vec<bool>,
    /// The lane's latest stamp; older stamps are stale.
    gen: Vec<u64>,
    /// Start of the service phase.
    start_ns: Vec<u64>,
    /// Nominal (uncontended) length of the service phase.
    nominal_ns: Vec<u64>,
    /// Progress through the nominal phase, in nominal nanoseconds.
    progress: Vec<f64>,
    /// When `progress` was last banked.
    accrued_ns: Vec<u64>,
    /// Progress rate in force since then (≤ 1; 1 = uncontended).
    rate: Vec<f64>,
    /// Time of the scheduled completion (`u64::MAX` = none), so an
    /// unchanged estimate is not rescheduled — fewer stale events, and
    /// uncontended lanes keep their original event order.
    eta_ns: Vec<u64>,
    demand: Vec<BandwidthDemand>,
    /// Monotone stamp counter shared by every lane.
    next_gen: u64,
    serving_buf: Vec<Option<BandwidthDemand>>,
    alloc_buf: Allocation,
}

impl Lanes {
    /// `n` idle lanes over `mem`, completing with events of `done_kind`.
    pub(crate) fn new(mem: MemorySystem, n: usize, done_kind: u8) -> Self {
        Lanes {
            mem,
            done_kind,
            busy: vec![false; n],
            gen: vec![0; n],
            start_ns: vec![0; n],
            nominal_ns: vec![0; n],
            progress: vec![0.0; n],
            accrued_ns: vec![0; n],
            rate: vec![1.0; n],
            eta_ns: vec![u64::MAX; n],
            demand: vec![BandwidthDemand::default(); n],
            next_gen: 0,
            serving_buf: Vec::new(),
            alloc_buf: Allocation::default(),
        }
    }

    /// The shared memory system.
    pub(crate) fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Whether the lanes contend for a finite budget.
    pub(crate) fn contended(&self) -> bool {
        self.mem.enabled()
    }

    pub(crate) fn busy(&self, i: usize) -> bool {
        self.busy[i]
    }

    pub(crate) fn start_ns(&self, i: usize) -> u64 {
        self.start_ns[i]
    }

    pub(crate) fn nominal_ns(&self, i: usize) -> u64 {
        self.nominal_ns[i]
    }

    /// Stamps lane `i` with a fresh generation and returns the event
    /// payload carrying it; any earlier stamp of the lane goes stale.
    pub(crate) fn stamp(&mut self, i: usize) -> u64 {
        self.next_gen += 1;
        self.gen[i] = self.next_gen;
        self.next_gen * self.busy.len() as u64 + i as u64
    }

    /// The lane a popped stamped event addresses, or `None` when a later
    /// stamp superseded it (stamps are unique, so a matching generation
    /// is the lane's latest event).
    pub(crate) fn live(&self, payload: u64) -> Option<usize> {
        let n = self.busy.len() as u64;
        let i = (payload % n) as usize;
        (self.gen[i] == payload / n).then_some(i)
    }

    /// Begins a service phase of `nominal_ns` on lane `i` at `at`,
    /// demanding `demand`. Under contention `at` must be now, and the
    /// whole fleet re-shares; otherwise the completion at
    /// `at + nominal_ns` is final and scheduled here (`at` may then lie
    /// ahead, past a warm-up).
    pub(crate) fn begin(
        &mut self,
        i: usize,
        at: u64,
        nominal_ns: u64,
        demand: BandwidthDemand,
        events: &mut EventQueue,
        sink: &mut dyn TraceSink,
    ) {
        debug_assert!(!self.busy[i], "lane {i} is already serving");
        self.busy[i] = true;
        self.start_ns[i] = at;
        self.nominal_ns[i] = nominal_ns;
        self.progress[i] = 0.0;
        self.accrued_ns[i] = at;
        self.rate[i] = 1.0;
        self.demand[i] = demand;
        if self.contended() {
            self.eta_ns[i] = u64::MAX;
            self.reshare(at, events, sink);
        } else {
            self.eta_ns[i] = at + nominal_ns;
            let payload = self.stamp(i);
            events.push(at + nominal_ns, self.done_kind, payload);
        }
    }

    /// Ends lane `i`'s service phase at `now`, returning the memory
    /// stall: how far contention pushed the end past its nominal time.
    /// The caller re-shares when the freed bandwidth should move.
    pub(crate) fn finish(&mut self, i: usize, now: u64) -> u64 {
        debug_assert!(self.busy[i], "lane {i} finished without serving");
        self.busy[i] = false;
        let nominal_end = self.start_ns[i] + self.nominal_ns[i];
        debug_assert!(now >= nominal_end, "completions never beat nominal time");
        now - nominal_end
    }

    /// Recomputes the fair-share allocation and every serving lane's
    /// completion time — called whenever the set of serving lanes
    /// changes, which makes each lane's rate piecewise-constant between
    /// events. A no-op when the budget is unlimited.
    pub(crate) fn reshare(&mut self, now: u64, events: &mut EventQueue, sink: &mut dyn TraceSink) {
        if !self.contended() {
            return;
        }
        let n = self.busy.len();
        // Bank progress earned at the rates in force since the last event.
        for i in 0..n {
            if self.busy[i] {
                self.progress[i] += (now - self.accrued_ns[i]) as f64 * self.rate[i];
                self.accrued_ns[i] = now;
            }
        }
        self.serving_buf.clear();
        self.serving_buf
            .extend((0..n).map(|i| self.busy[i].then(|| self.demand[i])));
        self.mem
            .allocate_into(&self.serving_buf, &mut self.alloc_buf);
        for i in 0..n {
            if !self.busy[i] {
                continue;
            }
            self.rate[i] = self.alloc_buf.rates[i];
            let remaining = (self.nominal_ns[i] as f64 - self.progress[i]).max(0.0);
            let eta = if remaining == 0.0 {
                now
            } else {
                now + (remaining / self.rate[i]).ceil() as u64
            };
            // Physics floor: contention can only push a completion past
            // its nominal end, never before it (also guards the stall's
            // non-negativity against float rounding).
            let eta = eta.max(self.start_ns[i] + self.nominal_ns[i]);
            if self.eta_ns[i] == eta {
                continue; // the already-scheduled event still stands
            }
            self.eta_ns[i] = eta;
            let payload = self.stamp(i);
            events.push(eta, self.done_kind, payload);
        }
        if sink.enabled() {
            let alloc = &self.alloc_buf;
            let cgbps = |g: f64| (g * 100.0).round() as u64;
            spans::hbm_bandwidth(
                sink,
                now,
                cgbps(alloc.demand_gbps),
                cgbps(alloc.granted_gbps),
            );
            if alloc.throttled > 0 {
                spans::hbm_throttle(sink, now, alloc.throttled as u64);
            }
        }
    }
}

/// The online accounting of one serving run.
#[derive(Debug)]
pub(crate) struct Ledger {
    pub(crate) usage: Vec<NpuUsage>,
    /// Requests waiting for service.
    pub(crate) depth: u64,
    peak_depth: u64,
    /// Per-change depth samples (records retained only: they grow with
    /// the event count).
    depth_samples: Option<Vec<(u64, u64)>>,
    pub(crate) makespan_ns: u64,
    pub(crate) completed: u64,
    pub(crate) dropped: u64,
    pub(crate) timed_out: u64,
    records: Option<Vec<RequestRecord>>,
    latency: LatencyAccumulator,
    queue: LatencyAccumulator,
    mem_stall: LatencyAccumulator,
    /// Latency per [`RequestRecord::model`].
    per_model: Vec<LatencyAccumulator>,
    rollup_window_ns: Option<u64>,
    rollups: Option<Rollups>,
}

impl Ledger {
    /// An empty ledger for `cfg`'s fleet serving `n_models` models.
    pub(crate) fn new(cfg: &FleetConfig, n_models: usize) -> Self {
        let retain = cfg.retain_records;
        Ledger {
            usage: vec![NpuUsage::default(); cfg.npus.len()],
            depth: 0,
            peak_depth: 0,
            depth_samples: retain.then(Vec::new),
            makespan_ns: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            records: retain.then(Vec::new),
            latency: LatencyAccumulator::new(retain),
            queue: LatencyAccumulator::new(retain),
            mem_stall: LatencyAccumulator::new(retain),
            per_model: (0..n_models)
                .map(|_| LatencyAccumulator::new(retain))
                .collect(),
            rollup_window_ns: cfg.rollup_window_ns,
            rollups: cfg.rollup_window_ns.map(Rollups::new),
        }
    }

    /// Advances the makespan to `now`.
    #[inline]
    pub(crate) fn observe(&mut self, now: u64) {
        self.makespan_ns = self.makespan_ns.max(now);
    }

    /// Samples the current queue depth at `at` (peak, rollup window,
    /// retained series, and the trace counter).
    pub(crate) fn sample_depth(&mut self, at: u64, sink: &mut dyn TraceSink) {
        self.peak_depth = self.peak_depth.max(self.depth);
        if let Some(r) = &mut self.rollups {
            r.on_depth(at, self.depth);
        }
        if let Some(s) = &mut self.depth_samples {
            if s.last() != Some(&(at, self.depth)) {
                s.push((at, self.depth));
            }
        }
        spans::queue_depth(sink, at, self.depth);
    }

    #[inline]
    pub(crate) fn arrival(&mut self, at: u64) {
        if let Some(r) = &mut self.rollups {
            r.on_arrival(at);
        }
    }

    /// An arrival refused at admission.
    #[inline]
    pub(crate) fn drop_at(&mut self, at: u64) {
        self.dropped += 1;
        if let Some(r) = &mut self.rollups {
            r.on_dropped(at);
        }
    }

    /// A waiting request expired at dispatch.
    #[inline]
    pub(crate) fn time_out(&mut self, at: u64) {
        self.timed_out += 1;
        self.depth -= 1;
        if let Some(r) = &mut self.rollups {
            r.on_timed_out(at);
        }
    }

    /// Banks one completed request.
    #[inline]
    pub(crate) fn complete(&mut self, rec: RequestRecord) {
        // The contract the report advertises: latency decomposes
        // exactly into its components.
        debug_assert_eq!(
            rec.latency_ns(),
            rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
        );
        self.completed += 1;
        let lat = rec.latency_ns();
        self.latency.record(lat);
        self.queue.record(rec.queue_ns);
        self.mem_stall.record(rec.mem_stall_ns);
        self.per_model[rec.model].record(lat);
        if let Some(r) = &mut self.records {
            r.push(rec);
        }
    }

    /// A service phase that finished `requests` requests at `at` after
    /// `busy_ns` of warm-up, service and stall (rollups only).
    #[inline]
    pub(crate) fn phase_done(&mut self, at: u64, requests: u64, busy_ns: u64) {
        if let Some(r) = &mut self.rollups {
            r.on_completed(at, requests);
            r.on_busy(at, busy_ns);
        }
    }

    /// Rolls the ledger up into the report. `name` labels a model id;
    /// with records retained the distributions are exact (through the one
    /// shared percentile implementation), otherwise sketched.
    pub(crate) fn into_report(
        self,
        policy: &str,
        offered: u64,
        hbm_gbps: Option<f64>,
        name: impl Fn(usize) -> String,
        llm: Option<LlmStats>,
        stats: ExecStats,
    ) -> FleetReport {
        let mut records = self.records.unwrap_or_default();
        records.sort_by_key(|r| r.id);
        let per_model = self
            .per_model
            .into_iter()
            .enumerate()
            .filter(|(_, acc)| acc.count() > 0)
            .map(|(model, acc)| ModelStats {
                model,
                name: name(model),
                latency: acc.finish(),
            })
            .collect();
        FleetReport {
            policy: policy.to_string(),
            fleet_size: self.usage.len(),
            offered,
            completed: self.completed,
            dropped: self.dropped,
            timed_out: self.timed_out,
            makespan_ns: self.makespan_ns,
            latency: self.latency.finish(),
            queue: self.queue.finish(),
            hbm_gbps,
            mem_stall: self.mem_stall.finish(),
            peak_queue_depth: self.peak_depth,
            queue_depth_samples: self.depth_samples.unwrap_or_default(),
            rollup_window_ns: self.rollup_window_ns,
            rollups: self.rollups.map(Rollups::finish).unwrap_or_default(),
            per_npu: self.usage,
            per_model,
            records,
            llm,
            stats,
        }
    }
}
