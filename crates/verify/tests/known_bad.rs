//! Known-bad fixtures: hand-built programs that each violate exactly one
//! hardware invariant, asserting the verifier reports the precise rule at
//! the precise instruction.

use tandem_isa::{
    AluFunc, Instruction, LoopBindings, Namespace, Operand, Program, SyncEdge, SyncKind, SyncUnit,
};
use tandem_verify::{Rule, Severity, Verifier, VerifyConfig, VerifyReport};

fn verify(p: &Program) -> VerifyReport {
    // tiny machine: 8 lanes, 64 Interim rows, 128 OBUF rows, 32 IMM slots
    Verifier::new(VerifyConfig::tiny()).verify(p)
}

#[track_caller]
fn assert_diag(report: &VerifyReport, rule: Rule, pc: usize) {
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.pc == pc),
        "expected {rule:?} at pc {pc}, got:\n{report}"
    );
}

fn op(ns: Namespace, index: u8) -> Operand {
    Operand::new(ns, index)
}

fn i1(index: u8) -> Operand {
    op(Namespace::Interim1, index)
}

fn imm(index: u8) -> Operand {
    op(Namespace::Imm, index)
}

// --- sync pairing ---

#[test]
fn unpaired_sync_start_is_a_deadlock() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        0,
    ));
    let r = verify(&p);
    assert!(!r.is_clean());
    assert_diag(&r, Rule::UnmatchedSyncStart, 0);
}

#[test]
fn unpaired_sync_end_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Gemm,
        SyncEdge::End,
        SyncKind::Exec,
        0,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::UnmatchedSyncEnd, 0);
}

#[test]
fn reordered_sync_pairs_are_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Gemm,
        SyncEdge::Start,
        SyncKind::Exec,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        1,
    ));
    p.push(Instruction::sync(
        SyncUnit::Gemm,
        SyncEdge::End,
        SyncKind::Exec,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Exec,
        1,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::OverlappingSyncRegions, 1);
    assert_diag(&r, Rule::UnmatchedSyncEnd, 2);
}

#[test]
fn buf_release_outside_its_region_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Buf,
        0,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::BufReleaseOutsideRegion, 0);
}

#[test]
fn duplicate_buf_release_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Buf,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Buf,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Exec,
        0,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::DuplicateBufRelease, 2);
}

// --- scratchpad bounds ---

#[test]
fn oob_namespace_write_is_flagged() {
    // Base 60, stride 1, 10 iterations: rows [60, 69] of a 64-row BUF.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 60,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 10,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(0)),
            src1: None,
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert!(!r.is_clean());
    assert_diag(&r, Rule::OobWrite, 5);
    let d = r.diagnostics.iter().find(|d| d.rule == Rule::OobWrite);
    assert!(
        d.unwrap().message.contains("[60, 69]"),
        "message should carry the offending interval: {r}"
    );
}

#[test]
fn oob_namespace_read_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 60,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 1,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 10,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(1)),
            src1: Some(i1(0)),
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Max, i1(1), i1(0), i1(0)));
    let r = verify(&p);
    assert_diag(&r, Rule::OobRead, 6);
    // the destination walk [0, 9] is fine — no write diagnostic
    assert!(!r.diagnostics.iter().any(|d| d.rule == Rule::OobWrite));
}

#[test]
fn frozen_destination_waw_hazard_is_flagged() {
    // The destination's address never advances while the source walks 4
    // rows, nothing reads the destination back, and the op is not
    // read-modify-write: 3 of the 4 iterations' values are lost.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 32,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 1,
        stride: 0,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 4,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: None,
            src1: Some(i1(0)),
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(1), i1(0), imm(0)));
    let r = verify(&p);
    assert!(!r.is_clean());
    assert_diag(&r, Rule::WriteAfterWrite, 7);
}

#[test]
fn macc_accumulation_is_not_a_waw_hazard() {
    // Same shape as the WAW fixture but with MACC, which reads its
    // destination — a legitimate reduction.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 32,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 1,
        stride: 0,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 4,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: None,
            src1: Some(i1(0)),
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Macc, i1(1), i1(0), imm(0)));
    let r = verify(&p);
    assert!(r.is_clean(), "{r}");
}

// --- loop discipline ---

#[test]
fn ill_nested_loop_level_is_flagged() {
    // Level 1 configured before level 0 exists.
    let mut p = Program::new();
    p.push(Instruction::LoopSetIter {
        loop_id: 1,
        count: 4,
    });
    let r = verify(&p);
    assert_diag(&r, Rule::LoopLevelOrder, 0);
}

#[test]
fn set_index_without_a_level_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings::none(),
    });
    let r = verify(&p);
    assert_diag(&r, Rule::LoopIndexWithoutLevel, 0);
}

#[test]
fn loop_body_overrunning_the_program_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    });
    // program ends here — the declared 2-instruction body does not exist
    let r = verify(&p);
    assert_diag(&r, Rule::MalformedLoopBody, 1);
}

#[test]
fn non_compute_loop_body_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 0,
    }); // configuration inside a repeated body
    let r = verify(&p);
    assert_diag(&r, Rule::MalformedLoopBody, 3);
}

#[test]
fn zero_iteration_loop_is_a_warning_not_an_error() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 0,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(0)),
            src1: None,
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert_diag(&r, Rule::LoopZeroIterations, 3);
    assert_eq!(r.diagnostics[0].severity(), Severity::Warning);
    assert!(r.is_clean(), "warnings must not fail verification: {r}");
}

// --- operand legality ---

#[test]
fn imm_destination_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::alu(AluFunc::Add, imm(1), imm(0), imm(0)));
    let r = verify(&p);
    assert_diag(&r, Rule::ImmDestination, 1);
}

#[test]
fn uninitialized_imm_read_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(3), imm(3)));
    let r = verify(&p);
    assert_diag(&r, Rule::UninitializedImmRead, 1);
}

#[test]
fn unconfigured_iterator_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::alu(AluFunc::Max, i1(0), i1(1), i1(1)));
    let r = verify(&p);
    assert_diag(&r, Rule::UnconfiguredIterator, 0);
}

// --- permute engine ---

#[test]
fn permute_start_without_configuration_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::PermuteStart { cross_lane: false });
    let r = verify(&p);
    assert_diag(&r, Rule::PermuteNotConfigured, 0);
}

#[test]
fn permute_walk_past_the_scratchpad_is_flagged() {
    // tiny machine: 64 rows × 8 lanes = 512 words per Interim BUF.
    let mut p = Program::new();
    p.push(Instruction::PermuteSetBase {
        is_dst: false,
        ns: Namespace::Interim1,
        addr: 600,
    });
    p.push(Instruction::PermuteStart { cross_lane: false });
    let r = verify(&p);
    assert_diag(&r, Rule::PermuteOutOfBounds, 1);
}

// --- cross-engine happens-before (sync-deadlock) ---

fn sync(unit: SyncUnit, edge: SyncEdge, kind: SyncKind, group: u8) -> Instruction {
    Instruction::sync(unit, edge, kind, group)
}

#[test]
fn obuf_handoff_before_its_producer_is_a_deadlock_cycle() {
    // Perfectly paired regions — the structural check is happy — but the
    // Tandem region hands off Output-BUF group 1 *before* the GEMM
    // region that signals group 1 is dispatched: dispatch order says
    // simd-then-gemm, the handoff says gemm-before-simd. Cycle.
    let mut p = Program::new();
    p.push(sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 1)); // 0
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Buf, 1)); // 1
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Exec, 1)); // 2
    p.push(sync(SyncUnit::Gemm, SyncEdge::Start, SyncKind::Exec, 1)); // 3
    p.push(sync(SyncUnit::Gemm, SyncEdge::End, SyncKind::Exec, 1)); // 4
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule != Rule::SyncDeadlock),
        "pairing must be clean so the cycle is the only finding: {r}"
    );
    assert_diag(&r, Rule::SyncDeadlock, 0);
    assert!(!r.is_clean());
}

#[test]
fn obuf_handoff_with_no_producer_is_an_unreachable_wait() {
    // The Tandem region releases Output-BUF group 0, but no GEMM region
    // anywhere signals group 0 — the completion can never arrive.
    let mut p = Program::new();
    p.push(sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 0)); // 0
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Buf, 0)); // 1
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Exec, 0)); // 2
    let r = verify(&p);
    assert_diag(&r, Rule::SyncDeadlock, 1);
    assert!(!r.is_clean());
}

#[test]
fn producer_before_consumer_is_not_a_deadlock() {
    // The compiled-schedule shape: gemm region, then the simd region
    // consuming and releasing the same group. No finding.
    let mut p = Program::new();
    p.push(sync(SyncUnit::Gemm, SyncEdge::Start, SyncKind::Exec, 2));
    p.push(sync(SyncUnit::Gemm, SyncEdge::End, SyncKind::Exec, 2));
    p.push(sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 2));
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Buf, 2));
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Exec, 2));
    let r = verify(&p);
    assert!(r.is_clean(), "{r}");
    assert!(r.diagnostics.is_empty(), "{r}");
}

// --- dead-traffic lints ---

#[test]
fn store_overwritten_before_any_read_is_a_dead_store() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    }); // 1
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 2: store row 5
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 3: overwrite, unread
    let r = verify(&p);
    assert_diag(&r, Rule::DeadStore, 2);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::DeadStore)
        .unwrap();
    assert_eq!(d.severity(), Severity::Warning);
    // 1 dead row × 8 lanes on the tiny machine
    assert!(d.message.contains("~8 wasted words"), "{}", d.message);
    assert!(r.is_clean(), "a lint must not fail verification: {r}");
}

#[test]
fn store_read_before_overwrite_is_not_dead() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    }); // 1
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 9,
    }); // 2
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 3: store row 5
    p.push(Instruction::alu(AluFunc::Add, i1(1), i1(0), imm(0))); // 4: read row 5
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 5: overwrite after read
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule == Rule::DeadStore),
        "{r}"
    );
}

#[test]
fn live_out_store_at_program_end_is_not_dead() {
    // The Data Access Engine stores result tiles after the program ends —
    // a pending store at the end is live-out, not waste.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule == Rule::DeadStore),
        "{r}"
    );
}

/// A one-level nest of `count` iterations whose every slot (dst, src1,
/// src2) advances by one row per iteration through iterator `i1(15)`.
fn row_loop(p: &mut Program, count: u16) {
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 15,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 15,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter { loop_id: 0, count });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(15)),
            src1: Some(i1(15)),
            src2: Some(i1(15)),
        },
    });
}

fn dead_stores(r: &VerifyReport) -> Vec<usize> {
    r.diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DeadStore)
        .map(|d| d.pc)
        .collect()
}

#[test]
fn leaky_relu_read_modify_write_chain_has_no_dead_store() {
    // LeakyRelu as one nest over 4 rows: n = min(x, 0); n *= alpha;
    // n >>= q; y = max(x, 0); y += n. Every store but the last is read
    // by the next instruction on the same rows, so none is dead.
    let mut p = Program::new();
    for (slot, value) in [(0, 0), (1, 13), (2, 4)] {
        p.push(Instruction::ImmWriteLow { index: slot, value });
    }
    for (index, addr) in [(0, 0), (1, 16), (2, 32)] {
        p.push(Instruction::IterConfigBase {
            ns: Namespace::Interim1,
            index,
            addr,
        });
    }
    row_loop(&mut p, 4);
    let (x, n, y) = (i1(0), i1(1), i1(2));
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 5,
    });
    p.push(Instruction::alu(AluFunc::Min, n, x, imm(0)));
    p.push(Instruction::alu(AluFunc::Mul, n, n, imm(1)));
    p.push(Instruction::alu(AluFunc::Shr, n, n, imm(2)));
    p.push(Instruction::alu(AluFunc::Max, y, x, imm(0)));
    p.push(Instruction::alu(AluFunc::Add, y, y, n));
    let r = verify(&p);
    assert!(dead_stores(&r).is_empty(), "{r}");
    assert!(r.is_clean(), "{r}");
}

#[test]
fn same_nest_store_over_unread_store_is_dead() {
    // One nest stores rows 16..19 twice and never reads them: the first
    // store is dead on every iteration.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 16,
    });
    row_loop(&mut p, 4); // pcs 2..=5
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    }); // 6
    p.push(Instruction::alu(AluFunc::Add, i1(1), imm(0), imm(0))); // 7: dead
    p.push(Instruction::alu(AluFunc::Mul, i1(1), imm(0), imm(0))); // 8: live-out
    let r = verify(&p);
    assert_eq!(dead_stores(&r), vec![7], "{r}");
    // 4 dead rows × 8 lanes on the tiny machine
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.message.contains("~32 wasted words")),
        "{r}"
    );
}

#[test]
fn intra_nest_producer_consumer_store_is_not_dead() {
    // Body: A stores row 5, B reads row 5 into row 9 — each iteration B
    // consumes the value A just wrote, so A is NOT dead.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    }); // 1
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 9,
    }); // 2
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    }); // 3
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: None,
            src1: None,
            src2: None,
        },
    }); // 4
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    }); // 5
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 6: store row 5
    p.push(Instruction::alu(AluFunc::Add, i1(1), i1(0), imm(0))); // 7: read row 5
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 8: overwrite row 5
    let r = verify(&p);
    assert!(
        dead_stores(&r).is_empty(),
        "store at pc 6 is read at pc 7 every iteration, yet:\n{r}"
    );
}

#[test]
fn imm_value_replaced_unread_is_redundant() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0: dead
    p.push(Instruction::ImmWriteLow { index: 0, value: 2 }); // 1: read below
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    }); // 2
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 3
    let r = verify(&p);
    assert_diag(&r, Rule::RedundantImmWrite, 0);
    assert_eq!(
        r.diagnostics
            .iter()
            .filter(|d| d.rule == Rule::RedundantImmWrite)
            .count(),
        1,
        "the live second write must not be flagged: {r}"
    );
    assert!(r.is_clean(), "{r}");
}

#[test]
fn imm_value_never_read_is_redundant() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 3, value: 7 }); // 0: never read
    let r = verify(&p);
    assert_diag(&r, Rule::RedundantImmWrite, 0);
}

#[test]
fn full_32bit_imm_write_pair_is_one_write_not_a_kill() {
    // ImmWriteLow + ImmWriteHigh materialize ONE 32-bit constant: the
    // high half must not kill the in-flight low half.
    let mut p = Program::new();
    for i in Instruction::imm_write(0, 100_000) {
        p.push(i); // 0: low, 1: high
    }
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert!(
        !r.diagnostics
            .iter()
            .any(|d| d.rule == Rule::RedundantImmWrite),
        "{r}"
    );
}

// --- widened vs exact agreement on a known overflow ---

/// The two summarization modes must catch the same scratchpad overflow
/// with byte-identical diagnostics: widening the affine streams loses
/// nothing on real programs, it only skips the per-iteration walk.
#[test]
fn widened_overflow_is_also_caught_by_exact() {
    use tandem_verify::VerifyMode;
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 60,
    }); // 1
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    }); // 2
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 10,
    }); // 3
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(0)),
            src1: None,
            src2: None,
        },
    }); // 4
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 5: rows [60, 69] of 64
    let wr = Verifier::new(VerifyConfig::tiny().with_mode(VerifyMode::Widened)).verify(&p);
    let er = Verifier::new(VerifyConfig::tiny().with_mode(VerifyMode::Exact)).verify(&p);
    assert_diag(&wr, Rule::OobWrite, 5);
    assert_diag(&er, Rule::OobWrite, 5);
    let d = wr
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::OobWrite)
        .unwrap();
    assert!(d.message.contains("[60, 69]"), "{}", d.message);
    assert_eq!(wr.diagnostics, er.diagnostics, "modes must bit-agree");
}
