//! Dead-traffic lints: scratchpad stores whose rows are overwritten
//! before anything reads them, and IMM BUF writes whose value is
//! replaced or dropped without ever being consumed. Both are
//! [`crate::Severity::Warning`] optimization hints — the program is
//! correct, it just moves words for nothing — and the message estimates
//! the words moved.
//!
//! The pass rides the shared [`Walker`] and tracks, per namespace, the
//! set of rows whose most recent write has not been read yet, using the
//! exact [`RowSet`] footprint of each nest's streams (an interval hull
//! would close over the gaps of a strided store and mis-flag the rows
//! in between). Soundness of the *lint* direction: a store is only
//! called dead when a later store provably covers the row with no
//! possible intervening read. Rows a nest reads are cleared before its
//! writes (an earlier nest's store it consumes). Within one nest, row
//! sets are unions over iterations, so whether a read falls between two
//! stores cannot be decided: a store to a row the body reads anywhere
//! (or in a namespace the body reads without a known footprint) is
//! neither charged as a kill nor left pending. A stream too wide to
//! materialize ([`RowSet::MAX_WINDOW`]) degrades to a namespace
//! barrier, and `TILE_LD_ST` / `PERMUTE START` (whose data effects this
//! pass does not model) clear all pending state. Rows still pending at
//! the end of the program are *live-out* — the Data Access Engine
//! stores result tiles after the program ends — and are never reported.

use crate::analysis::{Pass, PassStat, Visitor, Walker};
use crate::diag::{Diagnostic, Rule};
use crate::VerifyConfig;
use std::collections::BTreeMap;
use tandem_isa::{Instruction, Namespace, Operand, Program, IMM_BUF_SLOTS};

/// The dead-store / redundant-IMM-traffic lint pass.
pub(crate) struct DeadTrafficPass;

impl Pass for DeadTrafficPass {
    fn name(&self) -> &'static str {
        "dead-traffic"
    }

    fn run(
        &self,
        cfg: &VerifyConfig,
        program: &Program,
        diags: &mut Vec<Diagnostic>,
        _stats: &mut Vec<PassStat>,
    ) {
        let mut v = DeadTrafficVisitor {
            cfg,
            pending: TRACKED.map(|ns| vec![0; cfg.rows(ns)]),
            read_stamp: TRACKED.map(|ns| vec![0; cfg.rows(ns)]),
            stamp: 0,
            read_barrier: [false; 3],
            dead: BTreeMap::new(),
            imm: [ImmSlot::default(); IMM_BUF_SLOTS],
            diags,
        };
        Walker::walk(cfg, program, &mut v);
        v.finish();
    }
}

/// Lifecycle of one IMM BUF slot.
#[derive(Debug, Clone, Copy, Default)]
struct ImmSlot {
    /// Program counter of the slot's most recent full (low-half) write.
    written_at: Option<usize>,
    /// Whether any compute read the slot since that write.
    read_since: bool,
}

/// Scratchpad namespaces the lint tracks (IMM has its own slot model).
const TRACKED: [Namespace; 3] = [Namespace::Interim1, Namespace::Interim2, Namespace::Obuf];

fn tracked_index(ns: Namespace) -> Option<usize> {
    TRACKED.iter().position(|&t| t == ns)
}

struct DeadTrafficVisitor<'a> {
    cfg: &'a VerifyConfig,
    /// Per tracked namespace, one dense cell per row: `0` = no pending
    /// store, else `pc + 1` of the store whose value the row still holds
    /// unread. Dense indexing keeps the per-row work of this pass O(1) —
    /// it runs over every row of every nest and dominated verify wall
    /// time as a `BTreeMap`.
    pending: [Vec<u32>; 3],
    /// Per tracked namespace, one cell per row: the [`Self::stamp`] of
    /// the last nest that read the row. A stamp instead of a per-nest row
    /// list keeps the nest loop free of allocation.
    read_stamp: [Vec<u32>; 3],
    /// The current nest's stamp, counting from 1 (0 marks a row no nest
    /// has read).
    stamp: u32,
    /// Per tracked namespace: the current nest reads rows it cannot
    /// enumerate, so every row counts as read.
    read_barrier: [bool; 3],
    /// Store pc → (namespace, rows killed before any read).
    dead: BTreeMap<usize, (Namespace, u64)>,
    imm: [ImmSlot; IMM_BUF_SLOTS],
    diags: &'a mut Vec<Diagnostic>,
}

impl DeadTrafficVisitor<'_> {
    /// Forget all pending stores of `ns` (an instruction with unmodeled
    /// reads may consume any of them).
    fn barrier_ns(&mut self, ns: Namespace) {
        if let Some(i) = tracked_index(ns) {
            self.pending[i].fill(0);
        }
    }

    /// Forget every pending store and mark all written IMM slots read.
    fn full_barrier(&mut self) {
        for p in &mut self.pending {
            p.fill(0);
        }
        for slot in &mut self.imm {
            if slot.written_at.is_some() {
                slot.read_since = true;
            }
        }
    }

    /// Starts a nest: a fresh read stamp and no read barrier. A program
    /// has at most one nest per instruction, and its pcs fit a `u32`
    /// (see `pending`), so the stamp never wraps.
    fn begin_nest(&mut self) {
        self.stamp += 1;
        self.read_barrier = [false; 3];
    }

    /// `row` of tracked namespace `idx` as a cell index, if in range.
    fn row_index(&self, idx: usize, row: i64) -> Option<usize> {
        usize::try_from(row)
            .ok()
            .filter(|&r| r < self.pending[idx].len())
    }

    /// Phase 1 of a nest: operand `op` (in `slot`) reads every row its
    /// stream can touch, consuming any pending store there.
    fn read(&mut self, walker: &Walker, op: Operand, slot: usize) {
        let Some(idx) = tracked_index(op.namespace()) else {
            return;
        };
        let (stream, _notes) = walker.stream(op, slot);
        match stream.and_then(|s| s.row_set(walker.levels())) {
            Some(rows) => {
                for row in rows.rows() {
                    if let Some(r) = self.row_index(idx, row) {
                        self.pending[idx][r] = 0;
                        self.read_stamp[idx][r] = self.stamp;
                    }
                }
            }
            // Unknown footprint: could read anything in the namespace.
            None => {
                self.pending[idx].fill(0);
                self.read_barrier[idx] = true;
            }
        }
    }

    fn imm_read(&mut self, slot: usize) {
        if let Some(s) = self.imm.get_mut(slot) {
            s.read_since = true;
        }
    }

    /// End-of-program accounting: emit the accumulated dead stores and
    /// the IMM writes whose value was never consumed.
    fn finish(&mut self) {
        let lanes = self.cfg.lanes as u64;
        for (&pc, &(ns, rows)) in &self.dead {
            self.diags.push(Diagnostic::new(
                pc,
                Rule::DeadStore,
                format!(
                    "store to {ns} writes {rows} row(s) that are overwritten before \
                     anything reads them — ~{} wasted words of scratchpad traffic",
                    rows * lanes
                ),
            ));
        }
        for (slot, s) in self.imm.iter().enumerate() {
            if let Some(pc) = s.written_at {
                if !s.read_since {
                    self.diags.push(Diagnostic::new(
                        pc,
                        Rule::RedundantImmWrite,
                        format!(
                            "IMM BUF slot {slot} is written here but no compute \
                             instruction ever reads the value — wasted IMM traffic"
                        ),
                    ));
                }
            }
        }
    }
}

impl Visitor for DeadTrafficVisitor<'_> {
    fn nest(&mut self, walker: &Walker, body_start: usize, body: &[Instruction]) {
        self.begin_nest();
        // Phase 1 — reads. Applied before the nest's writes: any row a
        // source stream can touch counts as consumed, which is the
        // conservative direction for a lint (never flags a store some
        // iteration interleaving might still read). The rows are also
        // stamped as read by this nest for phase 2.
        for instr in body {
            let Some((src1, src2)) = instr.sources() else {
                continue;
            };
            for (slot, src) in [(1usize, Some(src1)), (2usize, src2)] {
                let Some(src) = src else { continue };
                if src.namespace() == Namespace::Imm {
                    self.imm_read(src.index() as usize);
                } else {
                    self.read(walker, src, slot);
                }
            }
            // Read-modify-write functions consume their destination too.
            if instr.reads_destination() {
                if let Some(dst) = instr.destination() {
                    self.read(walker, dst, 0);
                }
            }
        }
        // Phase 2 — writes. A row pending from an earlier store is
        // killed: that store's value is provably never read. Row sets
        // are unions over iterations, so whether a read of the body falls
        // *between* two stores of the same nest cannot be decided; a row
        // the body reads anywhere is therefore never charged and never
        // left pending (the read consumes the store in this iteration or
        // the next).
        for (i, instr) in body.iter().enumerate() {
            let pc = body_start + i;
            let Some(dst) = instr.destination() else {
                continue;
            };
            let Some(idx) = tracked_index(dst.namespace()) else {
                continue;
            };
            let (stream, _notes) = walker.stream(dst, 0);
            let Some(rows) = stream.and_then(|s| s.row_set(walker.levels())) else {
                // Unknown footprint: this store may cover anything, but
                // nothing is *provably* dead — drop all pending state.
                self.barrier_ns(dst.namespace());
                continue;
            };
            let marker = pc as u32 + 1;
            for row in rows.rows() {
                // Out-of-range rows are the bounds checker's finding,
                // not traffic.
                let Some(r) = self.row_index(idx, row) else {
                    continue;
                };
                if self.read_barrier[idx] || self.read_stamp[idx][r] == self.stamp {
                    continue;
                }
                let prev = std::mem::replace(&mut self.pending[idx][r], marker);
                if prev != 0 && prev != marker {
                    let e = self
                        .dead
                        .entry(prev as usize - 1)
                        .or_insert((dst.namespace(), 0));
                    e.1 += 1;
                }
            }
        }
    }

    fn imm_write(&mut self, _walker: &Walker, pc: usize, slot: usize, replaces: bool) {
        let Some(s) = self.imm.get_mut(slot) else {
            return;
        };
        if replaces {
            // Low-half write: replaces the slot's value. If the previous
            // value was never read, the earlier write was redundant.
            if let Some(prev) = s.written_at {
                if !s.read_since {
                    self.diags.push(Diagnostic::new(
                        prev,
                        Rule::RedundantImmWrite,
                        format!(
                            "IMM BUF slot {slot} is rewritten at pc {pc} before any \
                             compute instruction reads this value — the write is dead"
                        ),
                    ));
                }
            }
            *s = ImmSlot {
                written_at: Some(pc),
                read_since: false,
            };
        } else if s.written_at.is_none() {
            // High-half patch of a slot we never saw the low half of;
            // start tracking from here.
            s.written_at = Some(pc);
            s.read_since = false;
        }
        // High-half writes otherwise extend the in-flight low write of
        // the same 32-bit constant (`Instruction::imm_write` idiom) and
        // neither kill nor refresh it.
    }

    fn permute_start(&mut self, _walker: &Walker, _pc: usize) {
        // The permute engine reads and writes word-addressed streams this
        // pass does not model — treat as a scratchpad barrier.
        for p in &mut self.pending {
            p.fill(0);
        }
    }

    fn barrier(&mut self, _walker: &Walker, _pc: usize) {
        // TILE_LD_ST moves tiles between DRAM and the scratchpads with
        // DAE-side state the walker does not track.
        self.full_barrier();
    }
}
