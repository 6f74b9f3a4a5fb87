//! Diagnostics: the rule catalogue, severities, and the per-instruction
//! findings the verifier reports.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong (e.g. a zero-iteration loop).
    Warning,
    /// A violated invariant: the program can deadlock, corrupt scratchpad
    /// state, or fail to execute on the hardware.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The static rules the verifier checks. Each maps to a hardware
/// invariant of paper §4–§5 (see `DESIGN.md`, "Static verification").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    // --- synchronization (paper §4.2/§5, Figure 10) ---
    /// An execution region was opened (`sync.*.start.exec`) and never
    /// closed — the execution FSM would wait forever.
    UnmatchedSyncStart,
    /// An `end.exec` marker without a matching open region, or closing a
    /// different region than the innermost open one (reordered pair).
    UnmatchedSyncEnd,
    /// A second execution region opened while another is still open —
    /// the single-issue dispatch unit cannot nest regions.
    OverlappingSyncRegions,
    /// An Output-BUF release (`end.buf`) outside the execution region of
    /// its unit/group.
    BufReleaseOutsideRegion,
    /// The same Output-BUF ownership released twice.
    DuplicateBufRelease,
    /// A `start.buf` marker — the hardware defines only the End-edge
    /// release notification.
    BufAcquireUnsupported,
    /// The cross-engine happens-before graph has an ordering cycle, or a
    /// region waits for a completion no other region ever signals — the
    /// GEMM and Tandem units starve each other (found by the
    /// `sync-deadlock` analysis, strictly stronger than pairing).
    SyncDeadlock,
    // --- loop discipline (paper §4.1 Code Repeater, §5) ---
    /// `LOOP SET_ITER` configured levels out of outermost-first order.
    LoopLevelOrder,
    /// More than the supported number of nest levels.
    LoopTooDeep,
    /// `LOOP SET_INDEX` with no configured level to bind.
    LoopIndexWithoutLevel,
    /// `LOOP SET_NUM_INST` whose body extends past the program or
    /// contains non-compute instructions.
    MalformedLoopBody,
    /// A loop level with an iteration count of zero (the nest is dead).
    LoopZeroIterations,
    // --- scratchpad safety (paper §4.1 namespaces, Figure 9) ---
    /// A compute operand references an iterator-table entry whose base
    /// address was never configured.
    UnconfiguredIterator,
    /// A read reaches rows outside the namespace capacity.
    OobRead,
    /// A write reaches rows outside the namespace capacity.
    OobWrite,
    /// A compute destination in the (read-only) IMM BUF namespace.
    ImmDestination,
    /// An IMM BUF slot index beyond the configured slot count.
    ImmSlotOutOfRange,
    /// A read of an IMM BUF slot no instruction wrote.
    UninitializedImmRead,
    /// A destination row range is overwritten on every iteration of a
    /// loop level that advances the sources but never consumes the
    /// destination — all but the last iteration's results are lost.
    WriteAfterWrite,
    // --- dead traffic (optimization lints) ---
    /// A scratchpad store whose rows are overwritten by a later store
    /// before anything reads them — wasted write traffic.
    DeadStore,
    /// An IMM BUF slot written and then rewritten (or never read at all)
    /// without any compute instruction consuming the value in between.
    RedundantImmWrite,
    // --- permute engine (paper §5) ---
    /// `PERMUTE START` with no prior configuration.
    PermuteNotConfigured,
    /// A permute walk reaches words outside its namespace capacity.
    PermuteOutOfBounds,
    // --- binary closure ---
    /// The program does not round-trip bit-identically through
    /// encode/decode.
    EncodeDecodeMismatch,
}

impl Rule {
    /// Every rule the verifier knows, in catalogue order. The rule table
    /// in `docs/VERIFY.md` is generated from this list and a unit test
    /// keeps the two in sync.
    pub const ALL: [Rule; 24] = [
        Rule::UnmatchedSyncStart,
        Rule::UnmatchedSyncEnd,
        Rule::OverlappingSyncRegions,
        Rule::BufReleaseOutsideRegion,
        Rule::DuplicateBufRelease,
        Rule::BufAcquireUnsupported,
        Rule::SyncDeadlock,
        Rule::LoopLevelOrder,
        Rule::LoopTooDeep,
        Rule::LoopIndexWithoutLevel,
        Rule::MalformedLoopBody,
        Rule::LoopZeroIterations,
        Rule::UnconfiguredIterator,
        Rule::OobRead,
        Rule::OobWrite,
        Rule::ImmDestination,
        Rule::ImmSlotOutOfRange,
        Rule::UninitializedImmRead,
        Rule::WriteAfterWrite,
        Rule::DeadStore,
        Rule::RedundantImmWrite,
        Rule::PermuteNotConfigured,
        Rule::PermuteOutOfBounds,
        Rule::EncodeDecodeMismatch,
    ];

    /// Stable kebab-case code used in reports and CI artifacts.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnmatchedSyncStart => "sync-unmatched-start",
            Rule::UnmatchedSyncEnd => "sync-unmatched-end",
            Rule::OverlappingSyncRegions => "sync-overlapping-regions",
            Rule::BufReleaseOutsideRegion => "sync-buf-release-outside-region",
            Rule::DuplicateBufRelease => "sync-duplicate-buf-release",
            Rule::BufAcquireUnsupported => "sync-buf-acquire-unsupported",
            Rule::SyncDeadlock => "sync-deadlock",
            Rule::LoopLevelOrder => "loop-level-order",
            Rule::LoopTooDeep => "loop-too-deep",
            Rule::LoopIndexWithoutLevel => "loop-index-without-level",
            Rule::MalformedLoopBody => "loop-malformed-body",
            Rule::LoopZeroIterations => "loop-zero-iterations",
            Rule::UnconfiguredIterator => "iter-unconfigured",
            Rule::OobRead => "spad-oob-read",
            Rule::OobWrite => "spad-oob-write",
            Rule::ImmDestination => "imm-destination",
            Rule::ImmSlotOutOfRange => "imm-slot-out-of-range",
            Rule::UninitializedImmRead => "imm-uninitialized-read",
            Rule::WriteAfterWrite => "spad-write-after-write",
            Rule::DeadStore => "spad-dead-store",
            Rule::RedundantImmWrite => "imm-redundant-write",
            Rule::PermuteNotConfigured => "permute-not-configured",
            Rule::PermuteOutOfBounds => "permute-oob",
            Rule::EncodeDecodeMismatch => "encode-decode-mismatch",
        }
    }

    /// The severity findings of this rule carry.
    pub fn severity(self) -> Severity {
        match self {
            Rule::LoopZeroIterations | Rule::DeadStore | Rule::RedundantImmWrite => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }

    /// One-line description used by the generated rule table in
    /// `docs/VERIFY.md`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnmatchedSyncStart => "execution region opened but never closed",
            Rule::UnmatchedSyncEnd => "end marker without (or closing the wrong) open region",
            Rule::OverlappingSyncRegions => "a second region opens while one is still open",
            Rule::BufReleaseOutsideRegion => "Output-BUF release outside its execution region",
            Rule::DuplicateBufRelease => "the same Output-BUF ownership released twice",
            Rule::BufAcquireUnsupported => "start.buf has no hardware semantics",
            Rule::SyncDeadlock => "happens-before cycle or wait no region ever signals",
            Rule::LoopLevelOrder => "loop levels configured out of outermost-first order",
            Rule::LoopTooDeep => "more than 8 Code Repeater nest levels",
            Rule::LoopIndexWithoutLevel => "SET_INDEX with no configured level to bind",
            Rule::MalformedLoopBody => "body leaves the program or contains non-compute",
            Rule::LoopZeroIterations => "a loop level iterates zero times",
            Rule::UnconfiguredIterator => "operand walks an iterator never configured",
            Rule::OobRead => "a read reaches rows outside the namespace capacity",
            Rule::OobWrite => "a write reaches rows outside the namespace capacity",
            Rule::ImmDestination => "compute destination in the read-only IMM BUF",
            Rule::ImmSlotOutOfRange => "IMM BUF slot index beyond the slot count",
            Rule::UninitializedImmRead => "IMM BUF slot read but never written",
            Rule::WriteAfterWrite => "frozen destination rewritten while sources advance",
            Rule::DeadStore => "store overwritten before anything reads it",
            Rule::RedundantImmWrite => "IMM slot value replaced or dropped unread",
            Rule::PermuteNotConfigured => "PERMUTE START with no prior configuration",
            Rule::PermuteOutOfBounds => "permute walk outside the namespace word capacity",
            Rule::EncodeDecodeMismatch => "program does not round-trip through binary form",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: the program counter of the offending instruction, the
/// violated rule, and a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Index of the offending instruction within the program.
    pub pc: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation with the concrete values involved.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(pc: usize, rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            pc,
            rule,
            message: message.into(),
        }
    }

    /// The severity of this finding (derived from its rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}: {} [{}] {}",
            self.pc,
            self.severity(),
            self.rule,
            self.message
        )
    }
}

/// The result of verifying one program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Instructions in the verified program.
    pub instructions: usize,
    /// All findings, in program order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// `true` when no error-severity finding exists (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "clean ({} instructions)", self.instructions);
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}
