//! Static analysis for eBlock designs and behavior programs.
//!
//! This crate is the synthesis flow's admission gate: a cheap, deterministic
//! pass that inspects a design (or raw netlist text) and a behavior program
//! (or raw DSL text) *before* any partitioning work is scheduled, and
//! reports every problem it finds in one run as structured [`Diagnostic`]s —
//! a stable rule code (`E001`, `W120`, …), a [`Severity`], a location, a
//! message, and an optional fix hint. The same reporting model carries
//! `eblocks-behavior`'s [`CheckError`](eblocks_behavior::CheckError)s (see
//! [`diagnose_check`]), so the
//! checker and the linter speak one language.
//!
//! The analysis takes no configuration: the fan-out budget (8 sinks) and
//! the pin budget (the paper's 2-in/2-out programmable block) are fixed.
//! [`LintConfig`] holds only the deny level a gate applies to the report.
//!
//! Determinism contract: for a given input, the diagnostics are
//! byte-identical across runs, worker counts, and platforms — rules run
//! in a fixed order, blocks are visited in insertion order, and the final
//! report is sorted by (code, location, message).
//! Reports serialize through the vendored `serde` derives, so JSON output
//! is deterministic too.
//!
//! # Quickstart
//!
//! ```
//! use eblocks_lint::{lint_netlist, Severity};
//!
//! let report = lint_netlist(
//!     "eblocks-netlist v1\n\
//!      design demo\n\
//!      block btn sensor:button\n\
//!      block gate compute:logic2:AND\n\
//!      block led output:led\n\
//!      wire btn.0 -> gate.0\n\
//!      wire gate.0 -> led.0\n",
//! );
//! // gate.1 has no driver: one error, reported with a stable code.
//! assert_eq!(report.errors(), 1);
//! assert_eq!(report.diagnostics[0].code, "E001");
//! assert_eq!(report.diagnostics[0].severity, Severity::Error);
//! assert!(report.rejects(eblocks_lint::DenyLevel::Errors));
//! ```
//!
//! Behavior programs go through [`lint_program`] (parsed) or
//! [`lint_behavior`] (raw text); both fold in every
//! [`check`](eblocks_behavior::check()) error plus
//! the lint-only dataflow warnings (unused state, constant conditions,
//! conflicting sends, unread ports).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod dataflow;
pub mod design;
pub mod fix;

pub use behavior::{diagnose_check, lint_behavior, lint_program};
pub use design::{lint_design, lint_design_with_programs, lint_netlist};
pub use fix::{apply_machine_fixes, fix_to_fixpoint, Applicability, Fix, TextEdit};

use serde::{Deserialize, Serialize};
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but not fatal; rejected only under
    /// [`DenyLevel::Warnings`].
    #[serde(rename = "warning")]
    Warning,
    /// The input is broken; synthesis would fail or misbehave.
    #[serde(rename = "error")]
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Warning => "warning",
            Self::Error => "error",
        })
    }
}

/// Which severities cause a lint pass to reject its input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DenyLevel {
    /// Reject on errors only (the default); warnings are reported but
    /// admitted.
    #[default]
    #[serde(rename = "errors")]
    Errors,
    /// Reject on warnings too (`--deny warnings`).
    #[serde(rename = "warnings")]
    Warnings,
}

impl DenyLevel {
    /// Parses the CLI spelling (`errors` / `warnings`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "errors" => Some(Self::Errors),
            "warnings" => Some(Self::Warnings),
            _ => None,
        }
    }
}

impl fmt::Display for DenyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Errors => "errors",
            Self::Warnings => "warnings",
        })
    }
}

/// A lint gate's setting: the deny level it rejects a design at. The
/// analysis itself takes no configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Which severities reject the input (see [`LintReport::rejects`]).
    pub deny: DenyLevel,
}

/// One finding: a stable rule code, severity, location, message, and an
/// optional fix hint.
///
/// Serializes with the `hint` field omitted when absent, so clean shapes
/// stay minimal and deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule code (`E001`, `W120`, …); see [`rules::ALL`].
    pub code: String,
    /// How serious the finding is.
    pub severity: Severity,
    /// Where the problem is, as a stable human-readable anchor
    /// (`` block `gate` ``, `` port `gate.1` ``, `line 3`, `` state `q` ``).
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the rule has a standard remedy.
    pub hint: Option<String>,
    /// 1-based source line of the finding, when the rule can point at
    /// one (omitted from JSON otherwise).
    pub line: Option<usize>,
    /// 1-based source column of the finding (omitted from JSON when
    /// absent; only ever present together with `line`).
    pub col: Option<usize>,
    /// A structured fix, when the rule can compute one (omitted from
    /// JSON otherwise). Machine-applicable fixes are applied by
    /// `lint --fix`; see [`fix::Applicability`].
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// Builds a diagnostic from a [`rules::Rule`] and its specifics.
    pub fn new(
        rule: &'static rules::Rule,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code: rule.code.to_string(),
            severity: rule.severity,
            location: location.into(),
            message: message.into(),
            hint: None,
            line: None,
            col: None,
            fix: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// Attaches a 1-based source position (`file:line:col` rendering).
    pub fn at(mut self, line: usize, col: usize) -> Self {
        self.line = Some(line);
        self.col = Some(col);
        self
    }

    /// Attaches a structured fix.
    pub fn with_fix(mut self, fix: Fix) -> Self {
        self.fix = Some(fix);
        self
    }

    /// True when this diagnostic carries a machine-applicable fix.
    pub fn has_machine_fix(&self) -> bool {
        self.fix
            .as_ref()
            .is_some_and(|f| f.applicability == Applicability::MachineApplicable)
    }

    /// The stable sort key reports are ordered by.
    fn sort_key(&self) -> (&str, &str, &str) {
        (&self.code, &self.location, &self.message)
    }
}

impl fmt::Display for Diagnostic {
    /// `error[E001] at port `gate.1`: input port has no driver`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// Error/warning totals of one lint pass — the compact summary the farm
/// attaches to job reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintOutcome {
    /// Diagnostics with [`Severity::Error`].
    pub errors: usize,
    /// Diagnostics with [`Severity::Warning`].
    pub warnings: usize,
    /// Diagnostics carrying a machine-applicable fix; `Some` only when
    /// nonzero, so serialized shapes without fixes are unchanged.
    pub fixes: Option<usize>,
}

impl LintOutcome {
    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0
    }

    /// Machine-applicable fix count (0 when none).
    pub fn fix_count(&self) -> usize {
        self.fixes.unwrap_or(0)
    }
}

impl fmt::Display for LintOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error(s), {} warning(s)", self.errors, self.warnings)
    }
}

/// Everything one lint pass found, sorted by (code, location, message).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// The findings, in stable order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// A report over `diagnostics`, sorted into the stable order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Self { diagnostics }
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics carrying a machine-applicable fix.
    pub fn machine_fixes(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.has_machine_fix())
            .count()
    }

    /// The error/warning/fix totals.
    pub fn outcome(&self) -> LintOutcome {
        let fixes = self.machine_fixes();
        LintOutcome {
            errors: self.errors(),
            warnings: self.warnings(),
            fixes: (fixes > 0).then_some(fixes),
        }
    }

    /// Whether this report rejects its input under `deny`: errors always
    /// do, warnings only under [`DenyLevel::Warnings`].
    pub fn rejects(&self, deny: DenyLevel) -> bool {
        self.errors() > 0 || (deny == DenyLevel::Warnings && self.warnings() > 0)
    }

    /// Folds another report's findings in, restoring the stable order.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
            if let Some(hint) = &d.hint {
                writeln!(f, "  hint: {hint}")?;
            }
        }
        write!(f, "{}", self.outcome())
    }
}

/// One file's findings, as rendered by `eblocks-cli lint --json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileReport {
    /// The path as given on the command line.
    pub file: String,
    /// The findings, in stable order.
    pub diagnostics: Vec<Diagnostic>,
}

/// A whole lint run (one or many files), as rendered by
/// `eblocks-cli lint --json`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-file findings, in command-line order.
    pub files: Vec<FileReport>,
    /// Error-severity findings across all files.
    pub errors: usize,
    /// Warning-severity findings across all files.
    pub warnings: usize,
    /// Machine-applicable fixes across all files; `Some` only when
    /// nonzero, so fix-free runs serialize exactly as before.
    pub fixes: Option<usize>,
}

impl RunReport {
    /// Appends one file's report, updating the totals.
    pub fn push(&mut self, file: impl Into<String>, report: &LintReport) {
        self.errors += report.errors();
        self.warnings += report.warnings();
        let fixes = report.machine_fixes();
        if fixes > 0 {
            self.fixes = Some(self.fixes.unwrap_or(0) + fixes);
        }
        self.files.push(FileReport {
            file: file.into(),
            diagnostics: report.diagnostics.clone(),
        });
    }

    /// The error/warning/fix totals.
    pub fn outcome(&self) -> LintOutcome {
        LintOutcome {
            errors: self.errors,
            warnings: self.warnings,
            fixes: self.fixes,
        }
    }

    /// Whether this run rejects under `deny` (see [`LintReport::rejects`]).
    pub fn rejects(&self, deny: DenyLevel) -> bool {
        self.errors > 0 || (deny == DenyLevel::Warnings && self.warnings > 0)
    }
}

/// The rule registry: every rule's stable code, severity, and summary.
pub mod rules {
    use super::Severity;

    /// One registered rule.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Rule {
        /// Stable code (`E001`…); never renumbered once shipped.
        pub code: &'static str,
        /// The severity every diagnostic of this rule carries.
        pub severity: Severity,
        /// Short kebab-case name.
        pub name: &'static str,
        /// One-line description (the README rule table).
        pub summary: &'static str,
    }

    macro_rules! rule {
        ($ident:ident, $code:literal, $sev:ident, $name:literal, $summary:literal) => {
            #[doc = $summary]
            pub const $ident: Rule = Rule {
                code: $code,
                severity: Severity::$sev,
                name: $name,
                summary: $summary,
            };
        };
    }

    // Design / netlist layer.
    rule!(
        UNCONNECTED_INPUT,
        "E001",
        Error,
        "unconnected-input",
        "an input port has no driver"
    );
    rule!(
        DANGLING_OUTPUT,
        "E002",
        Error,
        "dangling-output",
        "an output port drives nothing (sensors and programmable blocks exempt)"
    );
    rule!(
        COMBINATIONAL_CYCLE,
        "E003",
        Error,
        "combinational-cycle",
        "the netlist closes a wire cycle; eBlock networks are acyclic"
    );
    rule!(
        DUPLICATE_NAME,
        "E004",
        Error,
        "duplicate-name",
        "two blocks share one name"
    );
    rule!(
        NETLIST_ERROR,
        "E005",
        Error,
        "netlist-error",
        "the netlist text cannot be parsed into a design"
    );
    rule!(
        DEAD_BLOCK,
        "W006",
        Warning,
        "dead-block",
        "no sensor can influence this block"
    );
    rule!(
        UNUSED_RESULT,
        "W007",
        Warning,
        "unused-result",
        "this block's signal never reaches an output actuator"
    );
    rule!(
        FANOUT_BUDGET,
        "W008",
        Warning,
        "fanout-budget",
        "an output port drives more than 8 sinks (the fan-out budget)"
    );
    rule!(
        PIN_BUDGET,
        "W009",
        Warning,
        "pin-budget",
        "a programmable block has more pins than the paper's 2-in/2-out block"
    );

    // Behavior layer.
    rule!(
        BEHAVIOR_PARSE,
        "E100",
        Error,
        "behavior-parse",
        "the behavior source cannot be parsed"
    );
    rule!(
        DUPLICATE_HANDLER,
        "E101",
        Error,
        "duplicate-handler",
        "two handlers respond to the same event"
    );
    rule!(
        NON_CONSTANT_STATE_INIT,
        "E102",
        Error,
        "non-constant-state-init",
        "a state initializer references something that is not a prior state"
    );
    rule!(
        DUPLICATE_STATE,
        "E103",
        Error,
        "duplicate-state",
        "a state variable is declared twice"
    );
    rule!(
        INPUT_OUT_OF_RANGE,
        "E104",
        Error,
        "input-out-of-range",
        "an input-port reference exceeds the block's arity"
    );
    rule!(
        OUTPUT_OUT_OF_RANGE,
        "E105",
        Error,
        "output-out-of-range",
        "an output-port reference exceeds the block's arity"
    );
    rule!(
        ASSIGN_TO_INPUT,
        "E106",
        Error,
        "assign-to-input",
        "the program assigns to an input port"
    );
    rule!(
        POSSIBLY_UNDEFINED,
        "E107",
        Error,
        "possibly-undefined",
        "a variable may be read before assignment"
    );
    rule!(
        INPUT_READ_IN_TICK,
        "E108",
        Error,
        "input-read-in-tick",
        "the `on tick` handler reads an input port"
    );
    rule!(
        BEHAVIOR_CHECK,
        "E199",
        Error,
        "behavior-check",
        "a semantic check failed (future checker rule)"
    );
    rule!(
        UNUSED_STATE,
        "W120",
        Warning,
        "unused-state",
        "a state variable is never read"
    );
    rule!(
        UNASSIGNED_STATE,
        "W121",
        Warning,
        "unassigned-state",
        "a state variable is never reassigned; it is a foldable constant"
    );
    rule!(
        UNUSED_LOCAL,
        "W122",
        Warning,
        "unused-local",
        "a let binding is never read"
    );
    rule!(
        CONSTANT_CONDITION,
        "W123",
        Warning,
        "constant-condition",
        "an if condition reads no variables; one branch is dead"
    );
    rule!(
        CONFLICTING_SEND,
        "W124",
        Warning,
        "conflicting-send",
        "one activation sends twice to the same output port; the second send wins"
    );
    rule!(
        UNWRITTEN_OUTPUT,
        "W125",
        Warning,
        "unwritten-output",
        "an output port within the block's arity is never written"
    );
    rule!(
        UNREAD_INPUT,
        "W126",
        Warning,
        "unread-input",
        "an input port within the block's arity is never read"
    );

    // Dataflow layer: abstract interpretation over value sets
    // (see [`crate::dataflow`]).
    rule!(
        PROTOCOL_MISMATCH,
        "E201",
        Error,
        "protocol-mismatch",
        "every value the sender can emit is one the receiver never matches"
    );
    rule!(
        CONSTANT_SIGNAL,
        "W210",
        Warning,
        "constant-signal",
        "dataflow proves this output port only ever carries one value"
    );
    rule!(
        VALUE_DEAD_BRANCH,
        "W211",
        Warning,
        "value-dead-branch",
        "dataflow decides this condition; the branch it guards never runs"
    );
    rule!(
        CONSTANT_STATE,
        "W212",
        Warning,
        "constant-state",
        "a reassigned state variable provably never leaves its initial value"
    );
    rule!(
        EDGE_NEVER_FIRES,
        "W213",
        Warning,
        "edge-never-fires",
        "an output port is written in the source but no feasible path reaches a write"
    );

    /// Every registered rule, in code order.
    pub const ALL: &[Rule] = &[
        UNCONNECTED_INPUT,
        DANGLING_OUTPUT,
        COMBINATIONAL_CYCLE,
        DUPLICATE_NAME,
        NETLIST_ERROR,
        DEAD_BLOCK,
        UNUSED_RESULT,
        FANOUT_BUDGET,
        PIN_BUDGET,
        BEHAVIOR_PARSE,
        DUPLICATE_HANDLER,
        NON_CONSTANT_STATE_INIT,
        DUPLICATE_STATE,
        INPUT_OUT_OF_RANGE,
        OUTPUT_OUT_OF_RANGE,
        ASSIGN_TO_INPUT,
        POSSIBLY_UNDEFINED,
        INPUT_READ_IN_TICK,
        BEHAVIOR_CHECK,
        UNUSED_STATE,
        UNASSIGNED_STATE,
        UNUSED_LOCAL,
        CONSTANT_CONDITION,
        CONFLICTING_SEND,
        UNWRITTEN_OUTPUT,
        UNREAD_INPUT,
        PROTOCOL_MISMATCH,
        CONSTANT_SIGNAL,
        VALUE_DEAD_BRANCH,
        CONSTANT_STATE,
        EDGE_NEVER_FIRES,
    ];

    /// Looks a rule up by code.
    pub fn by_code(code: &str) -> Option<&'static Rule> {
        ALL.iter().find(|r| r.code == code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_unique_and_match_severity() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in rules::ALL {
            assert!(seen.insert(rule.code), "duplicate code {}", rule.code);
            let expected = if rule.code.starts_with('E') {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(rule.severity, expected, "{}", rule.code);
            assert_eq!(rules::by_code(rule.code), Some(rule));
        }
        assert_eq!(rules::by_code("E999"), None);
    }

    #[test]
    fn report_sorts_and_counts() {
        let report = LintReport::new(vec![
            Diagnostic::new(&rules::DEAD_BLOCK, "block `b`", "dead"),
            Diagnostic::new(&rules::UNCONNECTED_INPUT, "port `a.0`", "no driver"),
            Diagnostic::new(&rules::DEAD_BLOCK, "block `a`", "dead"),
        ]);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["E001", "W006", "W006"]);
        assert_eq!(report.diagnostics[1].location, "block `a`");
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 2);
        assert!(!report.is_clean());
        assert!(report.rejects(DenyLevel::Errors));
        assert!(report.rejects(DenyLevel::Warnings));
    }

    #[test]
    fn deny_level_gates_warnings() {
        let warn_only = LintReport::new(vec![Diagnostic::new(
            &rules::DEAD_BLOCK,
            "block `b`",
            "dead",
        )]);
        assert!(!warn_only.rejects(DenyLevel::Errors));
        assert!(warn_only.rejects(DenyLevel::Warnings));
        assert!(!LintReport::default().rejects(DenyLevel::Warnings));
        assert_eq!(DenyLevel::parse("warnings"), Some(DenyLevel::Warnings));
        assert_eq!(DenyLevel::parse("errors"), Some(DenyLevel::Errors));
        assert_eq!(DenyLevel::parse("nope"), None);
    }

    #[test]
    fn diagnostic_display_and_json_shape() {
        let d = Diagnostic::new(
            &rules::UNCONNECTED_INPUT,
            "port `gate.1`",
            "input port has no driver",
        )
        .with_hint("wire a sensor or compute output into gate.1");
        assert_eq!(
            d.to_string(),
            "error[E001] at port `gate.1`: input port has no driver"
        );
        let json = serde::json::to_string(&d);
        assert!(json.contains(r#""code":"E001""#), "{json}");
        assert!(json.contains(r#""severity":"error""#), "{json}");
        assert!(json.contains(r#""hint":"wire a sensor"#), "{json}");

        // Hint-less diagnostics omit the field entirely (golden stability).
        let bare = Diagnostic::new(&rules::DEAD_BLOCK, "block `b`", "dead");
        let json = serde::json::to_string(&bare);
        assert!(!json.contains("hint"), "{json}");

        // Round trip through the vendored serde.
        let back: Diagnostic = serde::json::from_str(&serde::json::to_string(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn run_report_accumulates() {
        let mut run = RunReport::default();
        run.push(
            "a.netlist",
            &LintReport::new(vec![Diagnostic::new(
                &rules::UNCONNECTED_INPUT,
                "port `x.0`",
                "no driver",
            )]),
        );
        run.push("b.netlist", &LintReport::default());
        assert_eq!(run.files.len(), 2);
        assert_eq!(run.errors, 1);
        assert_eq!(run.warnings, 0);
        assert_eq!(run.outcome().to_string(), "1 error(s), 0 warning(s)");
        assert!(run.rejects(DenyLevel::Errors));
        let json = serde::json::to_string(&run);
        assert!(json.contains(r#""file":"a.netlist""#), "{json}");
        let back: RunReport = serde::json::from_str(&json).unwrap();
        assert_eq!(back, run);
    }

    #[test]
    fn merge_restores_stable_order() {
        let mut a = LintReport::new(vec![Diagnostic::new(
            &rules::DEAD_BLOCK,
            "block `z`",
            "dead",
        )]);
        let b = LintReport::new(vec![Diagnostic::new(
            &rules::UNCONNECTED_INPUT,
            "port `a.0`",
            "no driver",
        )]);
        a.merge(b);
        assert_eq!(a.diagnostics[0].code, "E001");
        assert_eq!(
            a.outcome(),
            LintOutcome {
                errors: 1,
                warnings: 1,
                fixes: None
            }
        );
    }
}
