//! Behavior-layer lint rules: dataflow problems in a behavior program.
//!
//! [`lint_program`] folds the semantic checker's errors
//! ([`eblocks_behavior::check()`], mapped through [`diagnose_check`] so both
//! tools share one reporting model) together with lint-only warnings:
//! unused or constant state, dead locals, constant conditions, conflicting
//! sends, and unused ports — plus the value-precise rules driven by the
//! abstract interpreter in [`crate::dataflow`] (constant signals, dead
//! branches, frozen states, outputs that can never fire).
//!
//! [`lint_behavior`] additionally parses with byte spans, so its
//! diagnostics carry `line`/`col` positions and — where a rule has a
//! mechanical remedy (unused state/local removal, decided-branch folding)
//! — a machine-applicable [`Fix`].

use crate::dataflow::{analyze_program, CondFact, PathElem, ValueSet};
use crate::fix::Fix;
use crate::{rules, Diagnostic, LintReport};
use eblocks_behavior::ast::output_port;
use eblocks_behavior::{
    check, parse_spanned, CheckError, Handler, HandlerKind, Program, ProgramSpans, Span, Stmt,
    StmtSpans,
};
use std::collections::BTreeSet;

/// Span table plus the source it indexes — present only on the
/// text-entry path ([`lint_behavior`]), where positions and fixes can be
/// anchored to bytes.
struct Src<'a> {
    spans: &'a ProgramSpans,
    text: &'a str,
}

/// Lints behavior source text for a block with the given port arities:
/// parse failures become `E100`; otherwise every program rule runs, with
/// positions and machine-applicable fixes anchored to the source bytes.
pub fn lint_behavior(text: &str, inputs: u8, outputs: u8) -> LintReport {
    match parse_spanned(text) {
        Ok((program, spans)) => lint_program_impl(
            &program,
            Some(&Src {
                spans: &spans,
                text,
            }),
            inputs,
            outputs,
        ),
        Err(error) => {
            let mut d = if error.line == 0 {
                Diagnostic::new(&rules::BEHAVIOR_PARSE, "end of input", error.message)
            } else {
                Diagnostic::new(
                    &rules::BEHAVIOR_PARSE,
                    format!("line {}:{}", error.line, error.col),
                    error.message,
                )
                .at(error.line, error.col)
            };
            d = d.with_hint("fix the syntax error; nothing past it was checked");
            LintReport::new(vec![d])
        }
    }
}

/// Runs every behavior rule over a parsed program: the checker's errors
/// plus the lint-only dataflow warnings, in stable order. Position-free
/// (the AST carries no spans); parse with [`lint_behavior`] to get
/// `line`/`col` and fixes.
pub fn lint_program(program: &Program, inputs: u8, outputs: u8) -> LintReport {
    lint_program_impl(program, None, inputs, outputs)
}

fn lint_program_impl(
    program: &Program,
    src: Option<&Src<'_>>,
    inputs: u8,
    outputs: u8,
) -> LintReport {
    let mut out = Vec::new();
    for error in &check(program, inputs, outputs) {
        let mut d = diagnose_one(error);
        if let Some(s) = src {
            if let Some(span) = position_of(error, program, s.spans) {
                d = d.at(span.line, span.col);
            }
        }
        out.push(d);
    }
    state_rules(program, src, &mut out);
    for (i, handler) in program.handlers.iter().enumerate() {
        handler_rules(i, handler, src, &mut out);
    }
    port_rules(program, inputs, outputs, &mut out);
    dataflow_rules(program, src, inputs, outputs, &mut out);
    LintReport::new(out)
}

/// Converts checker errors into [`Diagnostic`]s — the shared reporting
/// model behind both `check` and `lint`.
pub fn diagnose_check(errors: &[CheckError]) -> Vec<Diagnostic> {
    errors.iter().map(diagnose_one).collect()
}

pub(crate) fn diagnose_one(error: &CheckError) -> Diagnostic {
    let message = error.to_string();
    match error {
        CheckError::DuplicateHandler { kind } => Diagnostic::new(
            &rules::DUPLICATE_HANDLER,
            format!("handler `{}`", label(*kind)),
            message,
        )
        .with_hint("merge the bodies into one handler"),
        CheckError::NonConstantStateInit { name, .. } => Diagnostic::new(
            &rules::NON_CONSTANT_STATE_INIT,
            format!("state `{name}`"),
            message,
        ),
        CheckError::DuplicateState { name } => {
            Diagnostic::new(&rules::DUPLICATE_STATE, format!("state `{name}`"), message)
        }
        CheckError::InputOutOfRange { port, .. } => Diagnostic::new(
            &rules::INPUT_OUT_OF_RANGE,
            format!("input `in{port}`"),
            message,
        ),
        CheckError::OutputOutOfRange { port, .. } => Diagnostic::new(
            &rules::OUTPUT_OUT_OF_RANGE,
            format!("output `out{port}`"),
            message,
        ),
        CheckError::AssignToInput { port } => Diagnostic::new(
            &rules::ASSIGN_TO_INPUT,
            format!("input `in{port}`"),
            message,
        ),
        CheckError::PossiblyUndefined { name } => Diagnostic::new(
            &rules::POSSIBLY_UNDEFINED,
            format!("variable `{name}`"),
            message,
        )
        .with_hint("assign it on every path before the read"),
        CheckError::InputReadInTick { .. } => {
            Diagnostic::new(&rules::INPUT_READ_IN_TICK, "handler `on tick`", message)
                .with_hint("latch the input into a state variable in `on input`")
        }
        // CheckError is #[non_exhaustive]; future checks surface under a
        // generic code rather than being dropped.
        other => Diagnostic::new(&rules::BEHAVIOR_CHECK, "program", other.to_string()),
    }
}

/// Best-effort source position for a checker error: the declaration,
/// handler, or first statement the error is about.
fn position_of(error: &CheckError, program: &Program, spans: &ProgramSpans) -> Option<Span> {
    match error {
        CheckError::DuplicateHandler { kind } => {
            let (i, _) = program
                .handlers
                .iter()
                .enumerate()
                .filter(|(_, h)| h.kind == *kind)
                .nth(1)?;
            Some(spans.handlers.get(i)?.span)
        }
        CheckError::NonConstantStateInit { name, .. } => decl_span(program, spans, name, 0),
        CheckError::DuplicateState { name } => decl_span(program, spans, name, 1),
        CheckError::InputOutOfRange { port, .. } => {
            let var = format!("in{port}");
            locate_any(program, spans, None, &|r, _| r.contains(&var))
        }
        CheckError::OutputOutOfRange { port, .. } => {
            let var = format!("out{port}");
            locate_any(program, spans, None, &|r, w| {
                w.contains(&var) || r.contains(&var)
            })
        }
        CheckError::AssignToInput { port } => {
            let var = format!("in{port}");
            locate_any(program, spans, None, &|_, w| w.contains(&var))
        }
        CheckError::PossiblyUndefined { name } => {
            locate_any(program, spans, None, &|r, _| r.contains(name.as_str()))
        }
        CheckError::InputReadInTick { port } => {
            let var = format!("in{port}");
            locate_any(program, spans, Some(HandlerKind::Tick), &|r, _| {
                r.contains(&var)
            })
        }
        _ => None,
    }
}

/// Span of the `n`-th declaration of state `name` (0-based).
fn decl_span(program: &Program, spans: &ProgramSpans, name: &str, n: usize) -> Option<Span> {
    let (i, _) = program
        .states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .nth(n)?;
    spans.states.get(i).copied()
}

/// First statement (source order, conditions before branch bodies) whose
/// own reads/writes satisfy `pred`, restricted to handlers of `kind`
/// when given.
fn locate_any(
    program: &Program,
    spans: &ProgramSpans,
    kind: Option<HandlerKind>,
    pred: &dyn Fn(&BTreeSet<String>, &BTreeSet<String>) -> bool,
) -> Option<Span> {
    for (h, hs) in program.handlers.iter().zip(&spans.handlers) {
        if kind.is_some_and(|k| h.kind != k) {
            continue;
        }
        if let Some(s) = locate(&h.body, &hs.body, pred) {
            return Some(s);
        }
    }
    None
}

fn locate(
    body: &[Stmt],
    spans: &[StmtSpans],
    pred: &dyn Fn(&BTreeSet<String>, &BTreeSet<String>) -> bool,
) -> Option<Span> {
    for (stmt, ss) in body.iter().zip(spans) {
        match stmt {
            Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                let mut reads = BTreeSet::new();
                e.vars(&mut reads);
                let writes: BTreeSet<String> = std::iter::once(name.clone()).collect();
                if pred(&reads, &writes) {
                    return Some(ss.span);
                }
            }
            Stmt::If(cond, then_body, else_body) => {
                let mut reads = BTreeSet::new();
                cond.vars(&mut reads);
                if pred(&reads, &BTreeSet::new()) {
                    return Some(ss.cond.unwrap_or(ss.span));
                }
                if let Some(s) = locate(then_body, &ss.then_body, pred) {
                    return Some(s);
                }
                if let Some(s) = locate(else_body, &ss.else_body, pred) {
                    return Some(s);
                }
            }
        }
    }
    None
}

fn label(kind: HandlerKind) -> &'static str {
    match kind {
        HandlerKind::Input => "on input",
        HandlerKind::Tick => "on tick",
    }
}

/// All reads and writes across every handler body (state initializer
/// references count as reads).
fn program_reads_writes(program: &Program) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for h in &program.handlers {
        for s in &h.body {
            s.vars(&mut reads, &mut writes);
        }
    }
    for st in &program.states {
        st.init.vars(&mut reads);
    }
    (reads, writes)
}

/// W120/W121: states never read, and states read but never reassigned.
fn state_rules(program: &Program, src: Option<&Src<'_>>, out: &mut Vec<Diagnostic>) {
    let (reads, writes) = program_reads_writes(program);
    for (i, st) in program.states.iter().enumerate() {
        let span = src.and_then(|s| s.spans.states.get(i).copied());
        if !reads.contains(&st.name) {
            let mut d = Diagnostic::new(
                &rules::UNUSED_STATE,
                format!("state `{}`", st.name),
                format!("state `{}` is never read", st.name),
            )
            .with_hint("remove the declaration");
            if let (Some(src), Some(span)) = (src, span) {
                d = d
                    .at(span.line, span.col)
                    .with_fix(unused_state_fix(program, src.spans, &st.name, span));
            }
            out.push(d);
        } else if !writes.contains(&st.name) {
            let mut d = Diagnostic::new(
                &rules::UNASSIGNED_STATE,
                format!("state `{}`", st.name),
                format!(
                    "state `{}` is never reassigned; it always holds {}",
                    st.name, st.init
                ),
            )
            .with_hint(format!("fold the constant {} into its uses", st.init));
            if let Some(span) = span {
                d = d.at(span.line, span.col);
            }
            out.push(d);
        }
    }
}

/// Deleting an unused state removes its declaration and every assignment
/// to it — the variable is never read, so the writes are pure waste.
fn unused_state_fix(program: &Program, spans: &ProgramSpans, name: &str, decl: Span) -> Fix {
    let mut fix = Fix::delete(decl.start, decl.end);
    for (h, hs) in program.handlers.iter().zip(&spans.handlers) {
        let mut found = Vec::new();
        assign_spans(&h.body, &hs.body, name, &mut found);
        for span in found {
            fix.edits.push(crate::TextEdit {
                start: span.start,
                end: span.end,
                replacement: String::new(),
            });
        }
    }
    fix
}

fn assign_spans(body: &[Stmt], spans: &[StmtSpans], name: &str, into: &mut Vec<Span>) {
    for (stmt, ss) in body.iter().zip(spans) {
        match stmt {
            Stmt::Assign(n, _) if n == name => into.push(ss.span),
            Stmt::If(_, then_body, else_body) => {
                assign_spans(then_body, &ss.then_body, name, into);
                assign_spans(else_body, &ss.else_body, name, into);
            }
            _ => {}
        }
    }
}

fn let_spans(body: &[Stmt], spans: &[StmtSpans], name: &str, into: &mut Vec<Span>) {
    for (stmt, ss) in body.iter().zip(spans) {
        match stmt {
            Stmt::Let(n, _) if n == name => into.push(ss.span),
            Stmt::If(_, then_body, else_body) => {
                let_spans(then_body, &ss.then_body, name, into);
                let_spans(else_body, &ss.else_body, name, into);
            }
            _ => {}
        }
    }
}

/// W122/W124: per-handler dataflow warnings.
fn handler_rules(
    index: usize,
    handler: &Handler,
    src: Option<&Src<'_>>,
    out: &mut Vec<Diagnostic>,
) {
    let loc = format!("handler `{}`", label(handler.kind));
    let hspans = src.and_then(|s| s.spans.handlers.get(index));

    // W122: let bindings never read anywhere in the handler.
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for s in &handler.body {
        s.vars(&mut reads, &mut writes);
    }
    for name in handler.locals() {
        if !reads.contains(name) {
            let mut d = Diagnostic::new(
                &rules::UNUSED_LOCAL,
                loc.clone(),
                format!("let binding `{name}` is never read"),
            )
            .with_hint("remove the binding");
            if let Some(hs) = hspans {
                let mut found = Vec::new();
                let_spans(&handler.body, &hs.body, name, &mut found);
                if let Some(first) = found.first() {
                    d = d.at(first.line, first.col);
                    let mut fix = Fix::delete(first.start, first.end);
                    for span in &found[1..] {
                        fix.edits.push(crate::TextEdit {
                            start: span.start,
                            end: span.end,
                            replacement: String::new(),
                        });
                    }
                    d = d.with_fix(fix);
                }
            }
            out.push(d);
        }
    }

    // W124: one activation sending twice to the same output port at the
    // same nesting level (the `out0 = false; if (..) { out0 = true; }`
    // default-then-override idiom lives at *different* levels and is fine).
    let mut conflicts = BTreeSet::new();
    conflicting_sends(&handler.body, &mut conflicts);
    for name in conflicts {
        let mut d = Diagnostic::new(
            &rules::CONFLICTING_SEND,
            loc.clone(),
            format!("`{name}` is assigned twice at the same nesting level; the first send is overwritten"),
        )
        .with_hint("drop the earlier assignment or guard them with a branch");
        if let Some(hs) = hspans {
            d = d.at(hs.span.line, hs.span.col);
        }
        out.push(d);
    }
}

fn conflicting_sends(body: &[Stmt], conflicts: &mut BTreeSet<String>) {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for stmt in body {
        match stmt {
            Stmt::Assign(name, _) if output_port(name).is_some() && !seen.insert(name) => {
                conflicts.insert(name.clone());
            }
            Stmt::If(_, then_body, else_body) => {
                conflicting_sends(then_body, conflicts);
                conflicting_sends(else_body, conflicts);
            }
            _ => {}
        }
    }
}

/// W125/W126: ports inside the block's arity the program never touches.
fn port_rules(program: &Program, inputs: u8, outputs: u8, out: &mut Vec<Diagnostic>) {
    let read = program.inputs_read();
    let written = program.outputs_written();
    for port in 0..inputs {
        if !read.contains(&port) {
            out.push(
                Diagnostic::new(
                    &rules::UNREAD_INPUT,
                    format!("input `in{port}`"),
                    format!("input port in{port} is never read"),
                )
                .with_hint("read it or shrink the block's input arity"),
            );
        }
    }
    for port in 0..outputs {
        if !written.contains(&port) {
            out.push(
                Diagnostic::new(
                    &rules::UNWRITTEN_OUTPUT,
                    format!("output `out{port}`"),
                    format!("output port out{port} is never written"),
                )
                .with_hint("write it or shrink the block's output arity"),
            );
        }
    }
}

/// W123/W210/W211/W212/W213: value-precise rules from the abstract
/// interpreter, with inputs unconstrained (`Any`) — a standalone program
/// makes no claim about what arrives on its ports.
fn dataflow_rules(
    program: &Program,
    src: Option<&Src<'_>>,
    inputs: u8,
    outputs: u8,
    out: &mut Vec<Diagnostic>,
) {
    let input_sets = vec![ValueSet::Any; inputs as usize];
    let facts = analyze_program(program, &input_sets, outputs);

    for fact in &facts.conds {
        cond_rule(src, fact, out);
    }

    let written = program.outputs_written();
    for (port, set) in facts.outputs.iter().enumerate() {
        if let Some(v) = set.as_singleton() {
            out.push(
                Diagnostic::new(
                    &rules::CONSTANT_SIGNAL,
                    format!("output `out{port}`"),
                    format!("output port out{port} only ever carries {v}"),
                )
                .with_hint("replace the logic with a constant, or fix what feeds it"),
            );
        } else if set.is_bottom() && written.contains(&(port as u8)) {
            out.push(
                Diagnostic::new(
                    &rules::EDGE_NEVER_FIRES,
                    format!("output `out{port}`"),
                    format!(
                        "output port out{port} is written in the source but no feasible path reaches a write"
                    ),
                )
                .with_hint("the conditions guarding every write can never pass"),
            );
        }
    }

    let (reads, writes) = program_reads_writes(program);
    let mut seen = BTreeSet::new();
    for (i, st) in program.states.iter().enumerate() {
        if !seen.insert(st.name.as_str()) {
            continue; // duplicate declaration: E103 owns it
        }
        if !(reads.contains(&st.name) && writes.contains(&st.name)) {
            continue; // W120/W121 own the unread/unwritten cases
        }
        if let Some(v) = facts.states.get(&st.name).and_then(ValueSet::as_singleton) {
            let mut d = Diagnostic::new(
                &rules::CONSTANT_STATE,
                format!("state `{}`", st.name),
                format!(
                    "state `{}` is reassigned but provably always holds {v}",
                    st.name
                ),
            )
            .with_hint(format!("fold the constant {v} into its uses"));
            if let Some(span) = src.and_then(|s| s.spans.states.get(i)) {
                d = d.at(span.line, span.col);
            }
            out.push(d);
        }
    }
}

/// W123 (syntactically constant condition) and W211 (value-decided
/// condition), both with a branch-folding fix when the verdict is
/// decided and spans are available.
fn cond_rule(src: Option<&Src<'_>>, fact: &CondFact, out: &mut Vec<Diagnostic>) {
    let decided = fact.always_true() || fact.always_false();
    let loc = format!("handler `{}`", label(fact.kind));

    let mut d = if fact.syntactic {
        Diagnostic::new(
            &rules::CONSTANT_CONDITION,
            loc,
            format!(
                "condition `{}` reads no variables; one branch is dead",
                fact.display
            ),
        )
        .with_hint("fold the condition and delete the dead branch")
    } else if decided {
        let dead_len = if fact.always_true() {
            fact.else_len
        } else {
            fact.then_len
        };
        if dead_len == 0 {
            return; // invariant condition with no dead code behind it
        }
        let (verdict, branch) = if fact.always_true() {
            ("true", "else")
        } else {
            ("false", "then")
        };
        Diagnostic::new(
            &rules::VALUE_DEAD_BRANCH,
            loc,
            format!(
                "condition `{}` is always {verdict} for every value that can reach it; the {branch} branch never runs",
                fact.display
            ),
        )
        .with_hint("delete the unreachable branch")
    } else {
        return;
    };

    if let Some(s) = src {
        if let Some(ss) = resolve_stmt(&s.spans.handlers, fact.handler, &fact.path) {
            d = d.at(ss.span.line, ss.span.col);
            if decided {
                let live = if fact.always_true() {
                    &ss.then_body
                } else {
                    &ss.else_body
                };
                d = d.with_fix(fold_fix(ss.span, live, s.text));
            }
        }
    }
    out.push(d);
}

/// Replaces a decided `if` statement with its live branch's source text
/// (empty when the live branch has no statements). The replacement is a
/// subrange of the replaced span, so applying it strictly shrinks the
/// text — the fixpoint loop cannot oscillate.
fn fold_fix(whole: Span, live: &[StmtSpans], text: &str) -> Fix {
    let replacement = match (live.first(), live.last()) {
        (Some(first), Some(last)) => text
            .get(first.span.start..last.span.end)
            .unwrap_or("")
            .to_string(),
        _ => String::new(),
    };
    Fix::replace(whole.start, whole.end, replacement)
}

/// Walks a span table along a [`CondFact`] path to the `if`'s spans.
fn resolve_stmt<'a>(
    handlers: &'a [eblocks_behavior::HandlerSpans],
    handler: usize,
    path: &[PathElem],
) -> Option<&'a StmtSpans> {
    let mut list: &[StmtSpans] = &handlers.get(handler)?.body;
    let mut cur: Option<&StmtSpans> = None;
    for elem in path {
        match elem {
            PathElem::Stmt(i) => cur = list.get(*i),
            PathElem::Then => list = &cur?.then_body,
            PathElem::Else => list = &cur?.else_body,
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Applicability, Severity};

    fn codes(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    fn lint_src(src: &str, ni: u8, no: u8) -> LintReport {
        lint_behavior(src, ni, no)
    }

    #[test]
    fn clean_programs_are_clean() {
        assert!(lint_src("on input { out0 = in0 && in1; }", 2, 1).is_clean());
        let toggle = "state q = false; state prev = false;\n\
                      on input { if (in0 && !prev) { q = !q; } prev = in0; out0 = q; }";
        assert!(
            lint_src(toggle, 1, 1).is_clean(),
            "{}",
            lint_src(toggle, 1, 1)
        );
    }

    #[test]
    fn e100_parse_failure() {
        let report = lint_src("on input { out0 = ; }", 1, 1);
        assert_eq!(codes(&report), ["E100"]);
        assert!(report.diagnostics[0].location.starts_with("line "));
        // The position is threaded as structured line/col too.
        assert!(report.diagnostics[0].line.is_some());
        assert!(report.diagnostics[0].col.is_some());
        let report = lint_src("on input {", 1, 1);
        assert_eq!(codes(&report), ["E100"]);
        assert_eq!(report.diagnostics[0].location, "end of input");
        assert_eq!(report.diagnostics[0].line, None);
    }

    #[test]
    fn check_errors_become_diagnostics() {
        // One run, many errors: duplicate handler, assign-to-input,
        // out-of-range output, undefined read, tick reading input.
        let report = lint_src(
            "on tick { out0 = in0; } on input { in0 = true; out3 = ghost; } on input { }",
            1,
            1,
        );
        let cs = codes(&report);
        for code in ["E101", "E105", "E106", "E107", "E108"] {
            assert!(cs.contains(&code), "{cs:?} missing {code}");
        }
        assert!(report.errors() >= 5);
        // Checker errors now carry positions pointing at the offending
        // statement or declaration.
        for d in &report.diagnostics {
            if d.code == "E106" {
                assert!(d.line.is_some(), "{d}");
            }
        }
    }

    #[test]
    fn e102_e103_e104_state_and_range() {
        let report = lint_src(
            "state a = b + 1; state a = 2; on input { out0 = in5; }",
            1,
            1,
        );
        let cs = codes(&report);
        for code in ["E102", "E103", "E104"] {
            assert!(cs.contains(&code), "{cs:?} missing {code}");
        }
        // Locations anchor to the offending item.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "E102" && d.location == "state `a`"));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "E104" && d.location == "input `in5`"));
        // The duplicate-state position points at the SECOND declaration.
        let dup = report
            .diagnostics
            .iter()
            .find(|d| d.code == "E103")
            .unwrap();
        assert_eq!(dup.col, Some(18));
    }

    #[test]
    fn w120_unused_state() {
        let report = lint_src("state junk = 0; on input { out0 = in0; }", 1, 1);
        assert_eq!(codes(&report), ["W120"]);
        assert_eq!(report.diagnostics[0].location, "state `junk`");
        assert_eq!(report.diagnostics[0].severity, Severity::Warning);
        // The fix deletes the declaration.
        let fix = report.diagnostics[0].fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MachineApplicable);
        assert_eq!((fix.edits[0].start, fix.edits[0].end), (0, 15));
    }

    #[test]
    fn w120_fix_removes_writes_too() {
        let src = "state junk = 0; on input { junk = in0; out0 = in0; }";
        let report = lint_src(src, 1, 1);
        assert_eq!(codes(&report), ["W120"]);
        let fixed = crate::apply_machine_fixes(src, &report).unwrap();
        assert!(!fixed.contains("junk"), "{fixed}");
        assert!(lint_src(&fixed, 1, 1).is_clean(), "{fixed}");
    }

    #[test]
    fn w121_unassigned_state_is_constant() {
        let report = lint_src("state k = 5; on input { out0 = in0 > k; }", 1, 1);
        assert_eq!(codes(&report), ["W121"]);
        assert!(report.diagnostics[0].message.contains("always holds 5"));
        // Read by a later initializer but never in handlers: still W121,
        // not W120. The reassignment `b = b` keeps `b` at its initial 2,
        // so the dataflow layer adds W212 — and out0 is then provably
        // constant true (W210).
        let report = lint_src(
            "state a = 1; state b = a + 1; on input { out0 = b > 0; b = b; }",
            0,
            1,
        );
        assert_eq!(codes(&report), ["W121", "W210", "W212"]);
        assert_eq!(report.diagnostics[0].location, "state `a`");
        assert!(report.diagnostics[2].message.contains("always holds 2"));
    }

    #[test]
    fn w122_unused_local() {
        let report = lint_src("on input { let tmp = in0; out0 = in0; }", 1, 1);
        assert_eq!(codes(&report), ["W122"]);
        assert!(report.diagnostics[0].message.contains("`tmp`"));
        assert!(lint_src("on input { let tmp = in0; out0 = tmp; }", 1, 1).is_clean());
        // The fix deletes the binding and the result re-lints clean.
        let src = "on input { let tmp = in0; out0 = in0; }";
        let fixed = crate::apply_machine_fixes(src, &lint_src(src, 1, 1)).unwrap();
        assert_eq!(fixed, "on input {  out0 = in0; }");
        assert!(lint_src(&fixed, 1, 1).is_clean());
    }

    #[test]
    fn w123_constant_condition() {
        let report = lint_src(
            "on input { out0 = in0; if (1 < 2) { out0 = false; } }",
            1,
            1,
        );
        // The always-taken branch overwrites out0 with false on every
        // path, so the constant-signal rule fires alongside W123.
        assert_eq!(codes(&report), ["W123", "W210"]);
        assert!(report.diagnostics[0].message.contains("`1 < 2`"));
        // Folding the decided branch leaves the body inline.
        let src = "on input { out0 = in0; if (1 < 2) { out0 = false; } }";
        let fixed = crate::apply_machine_fixes(src, &lint_src(src, 1, 1)).unwrap();
        assert_eq!(fixed, "on input { out0 = in0; out0 = false; }");
        // Nested constant conditions are found too.
        let report = lint_src(
            "on input { out0 = in0; if (in0) { if (true) { out0 = false; } } }",
            1,
            1,
        );
        assert_eq!(codes(&report), ["W123"]);
    }

    #[test]
    fn w124_conflicting_send_same_level_only() {
        let report = lint_src("on input { out0 = in0; out0 = !in0; }", 1, 1);
        assert_eq!(codes(&report), ["W124"]);
        assert!(report.diagnostics[0].message.contains("`out0`"));
        // Default-then-override across nesting levels is idiomatic.
        assert!(lint_src("on input { out0 = false; if (in0) { out0 = true; } }", 1, 1).is_clean());
        // Conflicts inside a branch body are caught.
        let report = lint_src(
            "on input { out0 = in0; if (in0) { out1 = true; out1 = false; } else { out1 = in0; } }",
            1,
            2,
        );
        assert_eq!(codes(&report), ["W124"]);
    }

    #[test]
    fn w125_w126_untouched_ports() {
        let report = lint_src("on input { out0 = in0; }", 2, 2);
        assert_eq!(codes(&report), ["W125", "W126"]);
        assert_eq!(report.diagnostics[0].location, "output `out1`");
        assert_eq!(report.diagnostics[1].location, "input `in1`");
    }

    #[test]
    fn w211_value_decided_branch() {
        // `in0 && false` is not syntactically constant (it reads a
        // variable), but the value analysis decides it: the then branch
        // can never run.
        let src = "on input { out0 = in0; if (in0 && false) { out0 = true; } }";
        let report = lint_src(src, 1, 1);
        assert_eq!(codes(&report), ["W211"]);
        assert!(report.diagnostics[0].message.contains("always false"));
        let fixed = crate::apply_machine_fixes(src, &report).unwrap();
        assert_eq!(fixed, "on input { out0 = in0;  }");
        assert!(lint_src(&fixed, 1, 1).is_clean());
    }

    #[test]
    fn w213_output_that_can_never_fire() {
        let report = lint_src("on input { if (in0 && false) { out0 = true; } }", 1, 1);
        let cs = codes(&report);
        assert!(cs.contains(&"W213"), "{cs:?}");
    }

    #[test]
    fn diagnose_check_covers_every_variant() {
        let errors = [
            CheckError::DuplicateHandler {
                kind: HandlerKind::Tick,
            },
            CheckError::NonConstantStateInit {
                name: "a".into(),
                reference: "b".into(),
            },
            CheckError::DuplicateState { name: "a".into() },
            CheckError::InputOutOfRange { port: 9, arity: 2 },
            CheckError::OutputOutOfRange { port: 9, arity: 2 },
            CheckError::AssignToInput { port: 0 },
            CheckError::PossiblyUndefined { name: "x".into() },
            CheckError::InputReadInTick { port: 0 },
        ];
        let diags = diagnose_check(&errors);
        let expect = [
            "E101", "E102", "E103", "E104", "E105", "E106", "E107", "E108",
        ];
        for (d, (e, code)) in diags.iter().zip(errors.iter().zip(expect)) {
            assert_eq!(d.code, code);
            assert_eq!(d.severity, Severity::Error);
            assert_eq!(d.message, e.to_string());
        }
    }

    #[test]
    fn multi_defect_program_reports_everything_in_one_run() {
        let src = "state junk = 0;\n\
                   on input {\n\
                       let dead = in0;\n\
                       out0 = in0;\n\
                       out0 = !in0;\n\
                       if (false) { out1 = true; } else { out1 = true; }\n\
                   }";
        let report = lint_src(src, 1, 2);
        // Both arms of the constant condition send true, so out1 is a
        // provably constant signal on top of the original four findings.
        assert_eq!(codes(&report), ["W120", "W122", "W123", "W124", "W210"]);
    }
}
