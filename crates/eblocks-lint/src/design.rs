//! Design-layer lint rules: structural and value-flow problems in an
//! eBlock network.
//!
//! [`lint_design`] inspects an in-memory [`Design`]; [`lint_netlist`]
//! first parses netlist text, mapping parse/construction failures onto the
//! same [`Diagnostic`] model so a broken file and a broken graph read the
//! same way. The netlist path also records per-line spans, so its
//! diagnostics carry line numbers and dead-island removal fixes.
//!
//! On top of the structural rules, the cross-block dataflow pass
//! ([`crate::dataflow::analyze_design`]) propagates abstract value sets
//! along the wires in topological order and reports protocol mismatches
//! (`E201`), provably constant signals (`W210`), value-dead branches
//! inside library programs (`W211`), frozen states (`W212`), and wires
//! that can never carry a packet (`W213`). These rules only fire for
//! blocks a sensor can influence — dead islands are already covered by
//! `W006` and would otherwise drown in derived noise.

use crate::dataflow::{analyze_design, matched_values, DesignFacts, ValueSet};
use crate::fix::Fix;
use crate::{rules, Diagnostic, LintConfig, LintReport, TextEdit};
use eblocks_behavior::{library, HandlerKind, Program};
use eblocks_core::netlist::{from_netlist_spanned, NetlistSpans};
use eblocks_core::{BlockId, BlockKind, Design, DesignError};
use std::collections::{BTreeMap, BTreeSet};

/// Netlist span table plus the text it indexes — present only on the
/// [`lint_netlist`] path, where diagnostics can carry line numbers and
/// removal fixes.
struct Src<'a> {
    spans: &'a NetlistSpans,
    text: &'a str,
}

/// Lints netlist text: parse/construction failures become `E003`–`E005`
/// diagnostics; on success the design rules run, with line numbers and
/// dead-island removal fixes anchored to the source lines.
pub fn lint_netlist(text: &str, config: &LintConfig) -> LintReport {
    match from_netlist_spanned(text) {
        Ok((design, spans)) => lint_impl(
            &design,
            &BTreeMap::new(),
            Some(&Src {
                spans: &spans,
                text,
            }),
            config,
        ),
        Err(error) => LintReport::new(vec![diagnose_design_error(&error)]),
    }
}

/// Maps a [`DesignError`] onto the lint rule that covers it.
pub fn diagnose_design_error(error: &DesignError) -> Diagnostic {
    match error {
        DesignError::WouldCycle { from, to } => Diagnostic::new(
            &rules::COMBINATIONAL_CYCLE,
            format!("block `{from}`"),
            format!("wiring `{from}` to `{to}` closes a cycle"),
        )
        .with_hint("break the feedback loop; eBlock networks are acyclic"),
        DesignError::DuplicateName { name } => Diagnostic::new(
            &rules::DUPLICATE_NAME,
            format!("block `{name}`"),
            format!("block name `{name}` is used twice"),
        )
        .with_hint("rename one of the blocks"),
        DesignError::UnconnectedInput { block, port } => Diagnostic::new(
            &rules::UNCONNECTED_INPUT,
            format!("port `{block}.{port}`"),
            "input port has no driver".to_string(),
        ),
        DesignError::DanglingOutput { block, port } => Diagnostic::new(
            &rules::DANGLING_OUTPUT,
            format!("port `{block}.{port}`"),
            "output port drives nothing".to_string(),
        ),
        // The netlist reader wraps construction errors in Parse with a line
        // number; recover the specific rule from the (stable, in-repo)
        // message so a cycle in a file and a cycle in a graph share a code.
        DesignError::Parse { line, message } if message.contains("create a cycle") => {
            Diagnostic::new(
                &rules::COMBINATIONAL_CYCLE,
                format!("line {line}"),
                message.clone(),
            )
            .with_hint("break the feedback loop; eBlock networks are acyclic")
            .at(*line, 1)
        }
        DesignError::Parse { line, message } if message.starts_with("duplicate block name") => {
            Diagnostic::new(
                &rules::DUPLICATE_NAME,
                format!("line {line}"),
                message.clone(),
            )
            .with_hint("rename one of the blocks")
            .at(*line, 1)
        }
        DesignError::Parse { line, message } => Diagnostic::new(
            &rules::NETLIST_ERROR,
            format!("line {line}"),
            message.clone(),
        )
        .at(*line, 1),
        // UnknownBlock / PortOutOfRange / InputAlreadyDriven — malformed
        // wiring the netlist reader reports without a line number.
        other => Diagnostic::new(&rules::NETLIST_ERROR, "netlist", other.to_string()),
    }
}

/// Runs every design rule over `design` and returns the findings in
/// stable order. Programmable blocks have no attached behavior here and
/// analyze as unconstrained; use [`lint_design_with_programs`] to make
/// their value flow precise.
pub fn lint_design(design: &Design, config: &LintConfig) -> LintReport {
    lint_impl(design, &BTreeMap::new(), None, config)
}

/// [`lint_design`] with behavior programs attached to programmable
/// blocks, so the cross-block dataflow pass (and `E201` in particular)
/// sees their real output sets and input matches.
pub fn lint_design_with_programs(
    design: &Design,
    programs: &BTreeMap<BlockId, Program>,
    config: &LintConfig,
) -> LintReport {
    lint_impl(design, programs, None, config)
}

fn lint_impl(
    design: &Design,
    programs: &BTreeMap<BlockId, Program>,
    src: Option<&Src<'_>>,
    config: &LintConfig,
) -> LintReport {
    let mut out = Vec::new();
    connectivity(design, src, &mut out);
    let forward = reach(design, design.sensors().collect(), Direction::Forward);
    reachability(design, src, &forward, config, &mut out);
    budgets(design, src, config, &mut out);
    let facts = analyze_design(design, programs);
    dataflow_pass(design, programs, &facts, &forward, src, &mut out);
    LintReport::new(out)
}

/// Attaches the source line of `name`'s `block` statement, when known.
fn at_block_line(d: Diagnostic, src: Option<&Src<'_>>, name: &str) -> Diagnostic {
    match src.and_then(|s| s.spans.blocks.get(name)) {
        Some(span) => d.at(span.line, 1),
        None => d,
    }
}

/// E001/E002: per-port wiring completeness. A built design is acyclic
/// (`Design::connect` refuses the closing wire), so E003 comes only from
/// a netlist's parse error, through [`diagnose_design_error`].
fn connectivity(design: &Design, src: Option<&Src<'_>>, out: &mut Vec<Diagnostic>) {
    for id in design.blocks() {
        let block = design.block(id).expect("iterated id");
        let name = block.name();
        // Same exemptions as Design::validate: programmable pins may sit
        // unconnected on both sides, sensor outputs may dangle.
        if !matches!(block.kind(), BlockKind::Programmable(_)) {
            for port in 0..block.num_inputs() {
                if design.driver_of(id, port).is_none() {
                    out.push(at_block_line(
                        Diagnostic::new(
                            &rules::UNCONNECTED_INPUT,
                            format!("port `{name}.{port}`"),
                            "input port has no driver",
                        )
                        .with_hint(format!(
                            "wire a sensor or compute output into `{name}.{port}`"
                        )),
                        src,
                        name,
                    ));
                }
            }
        }
        let pins_may_dangle = matches!(
            block.kind(),
            BlockKind::Sensor(_) | BlockKind::Programmable(_)
        );
        if !pins_may_dangle {
            for port in 0..block.num_outputs() {
                if design.sinks_of(id, port).next().is_none() {
                    out.push(at_block_line(
                        Diagnostic::new(
                            &rules::DANGLING_OUTPUT,
                            format!("port `{name}.{port}`"),
                            "output port drives nothing",
                        )
                        .with_hint(format!("connect `{name}.{port}` or remove the block")),
                        src,
                        name,
                    ));
                }
            }
        }
    }
}

/// W006/W007: blocks no sensor can influence, and blocks whose signal
/// never reaches an output actuator.
///
/// In a fully wired acyclic design every non-sensor block is reachable
/// from a sensor (each in-degree-0 ancestor is a sensor), so these only
/// fire alongside connectivity errors — but they name the *blocks* the
/// missing wires strand, which is the actionable unit. On the netlist
/// path, dead blocks whose entire downstream cone is dead additionally
/// carry a machine-applicable removal fix (block line plus every
/// attached wire line), verified as a whole before being offered.
fn reachability(
    design: &Design,
    src: Option<&Src<'_>>,
    forward: &BTreeSet<BlockId>,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    let backward = reach(design, design.outputs().collect(), Direction::Backward);
    let dead: BTreeSet<BlockId> = design
        .blocks()
        .filter(|id| {
            let block = design.block(*id).expect("iterated id");
            !block.kind().is_primary_input() && !forward.contains(id)
        })
        .collect();
    let removal = src
        .map(|s| removal_fixes(design, s, &dead, config))
        .unwrap_or_default();

    for id in design.blocks() {
        let block = design.block(id).expect("iterated id");
        let name = block.name();
        if dead.contains(&id) {
            let mut d = at_block_line(
                Diagnostic::new(
                    &rules::DEAD_BLOCK,
                    format!("block `{name}`"),
                    "no sensor can influence this block",
                )
                .with_hint("wire it (transitively) to a sensor, or remove it"),
                src,
                name,
            );
            if let Some(fix) = removal.get(&id) {
                d = d.with_fix(fix.clone());
            }
            out.push(d);
        }
        if !block.kind().is_primary_output() && !backward.contains(&id) {
            out.push(at_block_line(
                Diagnostic::new(
                    &rules::UNUSED_RESULT,
                    format!("block `{name}`"),
                    "this block's signal never reaches an output actuator",
                )
                .with_hint("wire it (transitively) toward an output block, or remove it"),
                src,
                name,
            ));
        }
    }
}

/// Builds removal fixes for dead blocks. A block is removable only when
/// its whole downstream cone is dead too (the largest subset of the dead
/// set closed under "all sinks are also in the subset") — deleting it
/// can then never orphan a live block's input. The candidate edits are
/// applied to a scratch copy and re-linted as a whole; if the surgery
/// would introduce any *new* error, every removal fix is demoted to
/// advisory instead of offered for `--fix`.
fn removal_fixes(
    design: &Design,
    src: &Src<'_>,
    dead: &BTreeSet<BlockId>,
    config: &LintConfig,
) -> BTreeMap<BlockId, Fix> {
    // Greatest sink-closed subset of the dead set.
    let mut closed = dead.clone();
    loop {
        let evicted: Vec<BlockId> = closed
            .iter()
            .copied()
            .filter(|&b| design.out_wires(b).any(|w| !closed.contains(&w.to)))
            .collect();
        if evicted.is_empty() {
            break;
        }
        for b in evicted {
            closed.remove(&b);
        }
    }
    if closed.is_empty() {
        return BTreeMap::new();
    }

    let mut fixes = BTreeMap::new();
    for &id in &closed {
        let block = design.block(id).expect("closed id");
        let name = block.name();
        let Some(line) = src.spans.blocks.get(name) else {
            continue;
        };
        let mut edits = vec![TextEdit {
            start: line.start,
            end: line.end,
            replacement: String::new(),
        }];
        for (key, span) in &src.spans.wires {
            if key.0 == name || key.2 == name {
                edits.push(TextEdit {
                    start: span.start,
                    end: span.end,
                    replacement: String::new(),
                });
            }
        }
        fixes.insert(
            id,
            Fix {
                edits,
                applicability: crate::Applicability::MachineApplicable,
            },
        );
    }

    // Whole-surgery verification: simulate applying everything at once
    // and demote to advisory if any new error would appear.
    if !removal_is_safe(design, src, &fixes, config) {
        for fix in fixes.values_mut() {
            *fix = fix.clone().maybe_incorrect();
        }
    }
    fixes
}

/// Re-parses and re-lints the text with all candidate removals applied;
/// true when no (code, location) error pair appears that the original
/// design did not already have. The candidate is linted as a bare
/// design (no spans), so verification never re-enters fix construction.
fn removal_is_safe(
    design: &Design,
    src: &Src<'_>,
    fixes: &BTreeMap<BlockId, Fix>,
    config: &LintConfig,
) -> bool {
    let scratch = LintReport::new(
        fixes
            .values()
            .map(|f| Diagnostic::new(&rules::DEAD_BLOCK, "scratch", "scratch").with_fix(f.clone()))
            .collect(),
    );
    let Some(candidate) = crate::apply_machine_fixes(src.text, &scratch) else {
        return false;
    };
    let Ok(patched) = eblocks_core::netlist::from_netlist(&candidate) else {
        return false;
    };
    let before = lint_design(design, config);
    let after = lint_design(&patched, config);
    let known: BTreeSet<(&str, &str)> = before
        .diagnostics
        .iter()
        .filter(|d| d.severity == crate::Severity::Error)
        .map(|d| (d.code.as_str(), d.location.as_str()))
        .collect();
    after
        .diagnostics
        .iter()
        .filter(|d| d.severity == crate::Severity::Error)
        .all(|d| known.contains(&(d.code.as_str(), d.location.as_str())))
}

enum Direction {
    Forward,
    Backward,
}

fn reach(design: &Design, seeds: Vec<BlockId>, dir: Direction) -> BTreeSet<BlockId> {
    let mut seen: BTreeSet<BlockId> = seeds.iter().copied().collect();
    let mut frontier = seeds;
    while let Some(id) = frontier.pop() {
        let next: Vec<BlockId> = match dir {
            Direction::Forward => design.out_wires(id).map(|w| w.to).collect(),
            Direction::Backward => design.in_wires(id).map(|w| w.from).collect(),
        };
        for n in next {
            if seen.insert(n) {
                frontier.push(n);
            }
        }
    }
    seen
}

/// W008/W009: fan-out and pin budgets against the partitioner's targets.
fn budgets(design: &Design, src: Option<&Src<'_>>, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    for id in design.blocks() {
        let block = design.block(id).expect("iterated id");
        let name = block.name();
        for port in 0..block.num_outputs() {
            let sinks = design.sinks_of(id, port).count();
            if sinks > config.max_fanout {
                out.push(at_block_line(
                    Diagnostic::new(
                        &rules::FANOUT_BUDGET,
                        format!("port `{name}.{port}`"),
                        format!(
                            "output port drives {sinks} sinks (budget {})",
                            config.max_fanout
                        ),
                    )
                    .with_hint("fan out through a splitter tree"),
                    src,
                    name,
                ));
            }
        }
        // Pin budget applies to programmable blocks only: a pre-defined
        // compute block with more pins than the target spec is fine (the
        // partitioner leaves it pre-defined or internalizes its wires).
        if let BlockKind::Programmable(spec) = block.kind() {
            if spec.inputs > config.budget.inputs || spec.outputs > config.budget.outputs {
                out.push(at_block_line(
                    Diagnostic::new(
                        &rules::PIN_BUDGET,
                        format!("block `{name}`"),
                        format!(
                            "programmable block needs {spec} but the partitioner targets {}",
                            config.budget
                        ),
                    )
                    .with_hint("raise the target spec or split the block"),
                    src,
                    name,
                ));
            }
        }
    }
}

/// E201/W210/W211/W212/W213: cross-block value-flow rules over the
/// propagated [`DesignFacts`], restricted to sensor-reachable blocks.
fn dataflow_pass(
    design: &Design,
    programs: &BTreeMap<BlockId, Program>,
    facts: &DesignFacts,
    forward: &BTreeSet<BlockId>,
    src: Option<&Src<'_>>,
    out: &mut Vec<Diagnostic>,
) {
    for id in design.blocks() {
        if !forward.contains(&id) {
            continue;
        }
        let block = design.block(id).expect("iterated id");
        let name = block.name();

        // W210: output ports pinned to a single value.
        for port in 0..block.kind().num_outputs() {
            // Sensors are environment-driven by definition; their sets
            // are Any and never trip this.
            if let Some(v) = facts
                .outputs
                .get(&(id, port))
                .and_then(ValueSet::as_singleton)
            {
                out.push(at_block_line(
                    Diagnostic::new(
                        &rules::CONSTANT_SIGNAL,
                        format!("port `{name}.{port}`"),
                        format!(
                            "output port only ever carries {v} given the values reaching this block"
                        ),
                    )
                    .with_hint("the block (or what feeds it) reduces to a constant"),
                    src,
                    name,
                ));
            }
        }

        // W211/W212 inside the block's (known) behavior program.
        if let Some(pf) = facts.programs.get(&id) {
            for fact in &pf.conds {
                if fact.syntactic {
                    continue; // the behavior layer owns syntactic constants
                }
                let (verdict, dead_len, branch) = if fact.always_true() {
                    ("true", fact.else_len, "else")
                } else if fact.always_false() {
                    ("false", fact.then_len, "then")
                } else {
                    continue;
                };
                if dead_len == 0 {
                    continue;
                }
                out.push(at_block_line(
                    Diagnostic::new(
                        &rules::VALUE_DEAD_BRANCH,
                        format!("block `{name}`"),
                        format!(
                            "in handler `{}`, condition `{}` is always {verdict} for every value arriving at `{name}`; the {branch} branch never runs",
                            handler_label(fact.kind),
                            fact.display
                        ),
                    )
                    .with_hint("the values wired into this block decide the branch"),
                    src,
                    name,
                ));
            }
            for (sname, set) in &pf.states {
                if let Some(v) = set.as_singleton() {
                    out.push(at_block_line(
                        Diagnostic::new(
                            &rules::CONSTANT_STATE,
                            format!("state `{sname}` in `{name}`"),
                            format!(
                                "state `{sname}` of `{name}` provably never leaves {v} given the values reaching this block"
                            ),
                        )
                        .with_hint("the block's stateful behavior is frozen by its inputs"),
                        src,
                        name,
                    ));
                }
            }
        }
    }

    // E201/W213 per wire: protocol mismatches and edges that never fire.
    for id in design.blocks() {
        if !forward.contains(&id) {
            continue;
        }
        let from = design.block(id).expect("iterated id").name();
        for w in design.out_wires(id) {
            let Some(sent) = facts.outputs.get(&(w.from, w.from_port)) else {
                continue;
            };
            let sink = design.block(w.to).expect("wire sink");
            let to = sink.name();
            let wire_loc = || format!("wire `{from}.{} -> {to}.{}`", w.from_port, w.to_port);
            if sent.is_bottom() {
                out.push(at_block_line(
                    Diagnostic::new(
                        &rules::EDGE_NEVER_FIRES,
                        wire_loc(),
                        format!(
                            "no feasible execution makes `{from}.{}` fire; this wire never carries a packet",
                            w.from_port
                        ),
                    )
                    .with_hint("the sender's guarding conditions can never pass"),
                    src,
                    from,
                ));
                continue;
            }
            let ValueSet::Values(sent_values) = sent else {
                continue;
            };
            let library_code;
            let receiver = match sink.kind() {
                BlockKind::Compute(ck) => {
                    library_code = library::code_for(ck);
                    library_code.program()
                }
                BlockKind::Programmable(_) => match programs.get(&w.to) {
                    Some(program) => program,
                    None => continue,
                },
                _ => continue,
            };
            let Some(matched) = matched_values(receiver, w.to_port) else {
                continue;
            };
            if sent_values.is_disjoint(&matched) {
                let sent_list = sent.to_string();
                let matched_list = matched
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push(at_block_line(
                    Diagnostic::new(
                        &rules::PROTOCOL_MISMATCH,
                        wire_loc(),
                        format!(
                            "`{from}.{}` can only send {sent_list} but `{to}` only matches {{{matched_list}}} on in{}",
                            w.from_port, w.to_port
                        ),
                    )
                    .with_hint("the sender and receiver disagree on the port's protocol"),
                    src,
                    from,
                ));
            }
        }
    }
}

fn handler_label(kind: HandlerKind) -> &'static str {
    match kind {
        HandlerKind::Input => "on input",
        HandlerKind::Tick => "on tick",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenyLevel, Severity};
    use eblocks_behavior::parse;
    use eblocks_core::{
        CommKind, ComputeKind, OutputKind, ProgrammableSpec, SensorKind, TruthTable2,
    };

    fn codes(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    fn clean_chain() -> Design {
        let mut d = Design::new("chain");
        let s = d.add_block("s", SensorKind::Button);
        let n = d.add_block("n", ComputeKind::Not);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (n, 0)).unwrap();
        d.connect((n, 0), (o, 0)).unwrap();
        d
    }

    #[test]
    fn clean_design_is_clean() {
        let report = lint_design(&clean_chain(), &LintConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn e001_unconnected_input() {
        let mut d = Design::new("t");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let report = lint_design(&d, &LintConfig::default());
        assert_eq!(codes(&report), ["E001"]);
        assert_eq!(report.diagnostics[0].location, "port `g.1`");
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn e002_dangling_output_with_exemptions() {
        let mut d = Design::new("t");
        let s = d.add_block("s", SensorKind::Button);
        let n = d.add_block("n", ComputeKind::Not);
        d.connect((s, 0), (n, 0)).unwrap();
        let report = lint_design(&d, &LintConfig::default());
        // n.0 dangles (E002) and therefore n never reaches an output (W007).
        assert_eq!(codes(&report), ["E002", "W007", "W007"]);
        assert_eq!(report.diagnostics[0].location, "port `n.0`");

        // Sensors and programmable blocks may dangle.
        let mut d = clean_chain();
        d.add_block("spare", SensorKind::Light);
        d.add_block("prog", ProgrammableSpec::default());
        let report = lint_design(&d, &LintConfig::default());
        assert_eq!(codes(&report), ["W006", "W007", "W007"]); // reachability only
    }

    #[test]
    fn w006_w007_dead_and_unused_blocks() {
        let mut d = clean_chain();
        // An island pair: gate drives LED but nothing drives the gate's
        // inputs, so the island is sensor-unreachable.
        let g = d.add_block("island", ComputeKind::Not);
        let o2 = d.add_block("led2", OutputKind::Led);
        d.connect((g, 0), (o2, 0)).unwrap();
        let report = lint_design(&d, &LintConfig::default());
        assert_eq!(codes(&report), ["E001", "W006", "W006"]);
        let dead: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "W006")
            .map(|d| d.location.as_str())
            .collect();
        assert_eq!(dead, ["block `island`", "block `led2`"]);
    }

    #[test]
    fn w008_fanout_budget() {
        let mut d = Design::new("t");
        let s = d.add_block("s", SensorKind::Button);
        for i in 0..3 {
            let n = d.add_block(format!("n{i}"), ComputeKind::Not);
            let o = d.add_block(format!("o{i}"), OutputKind::Led);
            d.connect((s, 0), (n, 0)).unwrap();
            d.connect((n, 0), (o, 0)).unwrap();
        }
        let tight = LintConfig {
            max_fanout: 2,
            ..LintConfig::default()
        };
        let report = lint_design(&d, &tight);
        assert_eq!(codes(&report), ["W008"]);
        assert_eq!(report.diagnostics[0].location, "port `s.0`");
        assert!(report.diagnostics[0].message.contains("3 sinks (budget 2)"));
        // Default budget admits it.
        assert!(lint_design(&d, &LintConfig::default()).is_clean());
    }

    #[test]
    fn w009_pin_budget_ignores_compute_blocks() {
        let mut d = clean_chain();
        let s = d.block_by_name("s").unwrap();
        let big = d.add_block(
            "big",
            ProgrammableSpec {
                inputs: 4,
                outputs: 1,
            },
        );
        let o2 = d.add_block("o2", OutputKind::Led);
        d.connect((s, 0), (big, 0)).unwrap();
        d.connect((big, 0), (o2, 0)).unwrap();
        let report = lint_design(&d, &LintConfig::default());
        assert_eq!(codes(&report), ["W009"]);
        assert!(report.diagnostics[0].message.contains("4in/1out"));
        assert!(!report.rejects(DenyLevel::Errors));
        assert!(report.rejects(DenyLevel::Warnings));

        // A 3-input pre-defined gate is NOT a pin-budget violation.
        let mut d = Design::new("t");
        let a = d.add_block("a", SensorKind::Button);
        let b = d.add_block("b", SensorKind::Motion);
        let c = d.add_block("c", SensorKind::Sound);
        let g = d.add_block("g", ComputeKind::and3());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((a, 0), (g, 0)).unwrap();
        d.connect((b, 0), (g, 1)).unwrap();
        d.connect((c, 0), (g, 2)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        assert!(lint_design(&d, &LintConfig::default()).is_clean());
    }

    #[test]
    fn e004_e005_netlist_failures() {
        let report = lint_netlist(
            "eblocks-netlist v1\ndesign d\nblock x sensor:button\nblock x sensor:motion\n",
            &LintConfig::default(),
        );
        assert_eq!(codes(&report), ["E004"]);

        let report = lint_netlist("not a netlist", &LintConfig::default());
        assert_eq!(codes(&report), ["E005"]);
        assert_eq!(report.diagnostics[0].location, "line 1");
        assert_eq!(report.diagnostics[0].line, Some(1));
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn e003_cycle_from_netlist() {
        let report = lint_netlist(
            "eblocks-netlist v1\ndesign d\nblock a compute:not\nblock b compute:not\nwire a.0 -> b.0\nwire b.0 -> a.0\n",
            &LintConfig::default(),
        );
        assert_eq!(codes(&report), ["E003"]);
        assert!(report.diagnostics[0].message.contains("cycle"));
    }

    #[test]
    fn netlist_success_runs_design_rules() {
        let report = lint_netlist(
            "eblocks-netlist v1\ndesign d\nblock btn sensor:button\nblock gate compute:logic2:AND\nblock led output:led\nwire btn.0 -> gate.0\nwire gate.0 -> led.0\n",
            &LintConfig::default(),
        );
        assert_eq!(codes(&report), ["E001"]);
        assert_eq!(report.diagnostics[0].location, "port `gate.1`");
        // The netlist path anchors the finding to the block's line.
        assert_eq!(report.diagnostics[0].line, Some(4));
        assert_eq!(report.diagnostics[0].col, Some(1));
    }

    #[test]
    fn multi_defect_design_reports_everything_in_one_run() {
        let mut d = Design::new("t");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        let ghost = d.add_block("ghost", ComputeKind::Not);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let _ = ghost;
        let report = lint_design(&d, &LintConfig::default());
        // g.1 unconnected; ghost: input unconnected, output dangling, dead,
        // unused.
        assert_eq!(codes(&report), ["E001", "E001", "E002", "W006", "W007"]);
        assert_eq!(report.errors(), 3);
        assert_eq!(report.warnings(), 2);
    }

    #[test]
    fn w210_w211_w212_constant_false_freezes_a_toggle() {
        // btn -> FALSE gate -> toggle -> led: the gate pins the toggle's
        // input to false, freezing its whole behavior.
        let mut d = Design::new("t");
        let s = d.add_block("btn", SensorKind::Button);
        let f = d.add_block("never", ComputeKind::Logic2(TruthTable2::FALSE));
        let t = d.add_block("tog", ComputeKind::Toggle);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (f, 0)).unwrap();
        d.connect((s, 0), (f, 1)).unwrap();
        d.connect((f, 0), (t, 0)).unwrap();
        d.connect((t, 0), (o, 0)).unwrap();
        let report = lint_design(&d, &LintConfig::default());
        assert_eq!(
            codes(&report),
            ["W210", "W210", "W211", "W212", "W212"],
            "{report}"
        );
        assert_eq!(report.diagnostics[0].location, "port `never.0`");
        assert_eq!(report.diagnostics[1].location, "port `tog.0`");
        assert_eq!(report.diagnostics[2].location, "block `tog`");
        assert!(report.diagnostics[2].message.contains("always false"));
        assert_eq!(report.errors(), 0);
    }

    #[test]
    fn e201_protocol_mismatch_with_programs() {
        // A programmable sender that only emits 1 or 2, wired into a
        // programmable receiver that only matches 3.
        let mut d = Design::new("t");
        let s = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("tx", ProgrammableSpec::default());
        let rx = d.add_block("rx", ProgrammableSpec::default());
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (rx, 0)).unwrap();
        d.connect((rx, 0), (o, 0)).unwrap();
        let mut programs = BTreeMap::new();
        programs.insert(
            tx,
            parse("on input { if (in0) { out0 = 1; } else { out0 = 2; } }").unwrap(),
        );
        programs.insert(
            rx,
            parse("on input { if (in0 == 3) { out0 = true; } else { out0 = false; } }").unwrap(),
        );
        let report = lint_design_with_programs(&d, &programs, &LintConfig::default());
        let cs = codes(&report);
        assert!(cs.contains(&"E201"), "{report}");
        let e = report
            .diagnostics
            .iter()
            .find(|d| d.code == "E201")
            .unwrap();
        assert_eq!(e.location, "wire `tx.0 -> rx.0`");
        assert!(e.message.contains("{3}"), "{e}");
        assert!(report.rejects(DenyLevel::Errors));

        // Overlapping protocols are fine: match on 2 and the mismatch is
        // gone (the receiver handles a value the sender can produce).
        programs.insert(
            rx,
            parse("on input { if (in0 == 2) { out0 = true; } else { out0 = false; } }").unwrap(),
        );
        let report = lint_design_with_programs(&d, &programs, &LintConfig::default());
        assert!(!codes(&report).contains(&"E201"), "{report}");
    }

    #[test]
    fn w213_wire_that_never_fires() {
        // The sender's only write is behind a contradiction, so its wire
        // can never carry a packet.
        let mut d = Design::new("t");
        let s = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("tx", ProgrammableSpec::default());
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (o, 0)).unwrap();
        let mut programs = BTreeMap::new();
        programs.insert(
            tx,
            parse("on input { if (in0 && false) { out0 = true; } }").unwrap(),
        );
        let report = lint_design_with_programs(&d, &programs, &LintConfig::default());
        let cs = codes(&report);
        assert!(cs.contains(&"W213"), "{report}");
        let w = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W213")
            .unwrap();
        assert_eq!(w.location, "wire `tx.0 -> led.0`");
    }

    #[test]
    fn w213_crosses_a_relay_whose_driver_never_fires() {
        // A relay forwards what its driver sends: nothing, here.
        let mut d = Design::new("t");
        let s = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("tx", ProgrammableSpec::default());
        let radio = d.add_block("radio", CommKind::WirelessTx);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (radio, 0)).unwrap();
        d.connect((radio, 0), (o, 0)).unwrap();
        let mut programs = BTreeMap::new();
        programs.insert(
            tx,
            parse("on input { if (in0 && false) { out0 = true; } }").unwrap(),
        );
        let report = lint_design_with_programs(&d, &programs, &LintConfig::default());
        let w213: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "W213")
            .map(|d| d.location.as_str())
            .collect();
        assert_eq!(
            w213,
            ["wire `radio.0 -> led.0`", "wire `tx.0 -> radio.0`"],
            "{report}"
        );
    }

    #[test]
    fn dead_islands_get_no_dataflow_noise() {
        // A FALSE gate in a dead island: W006/W007/E001 fire, but no
        // W210 — derived facts about unreachable blocks are suppressed.
        let mut d = clean_chain();
        let f = d.add_block("isle", ComputeKind::Logic2(TruthTable2::FALSE));
        let o2 = d.add_block("led2", OutputKind::Led);
        d.connect((f, 0), (o2, 0)).unwrap();
        let report = lint_design(&d, &LintConfig::default());
        let cs = codes(&report);
        assert!(!cs.contains(&"W210"), "{report}");
        assert!(cs.contains(&"W006"));
    }

    #[test]
    fn w006_removal_fix_deletes_the_dead_cone() {
        let text = "eblocks-netlist v1\n\
                    design t\n\
                    block s sensor:button\n\
                    block n compute:not\n\
                    block o output:led\n\
                    block ghost programmable:1in/1out\n\
                    block deadled output:led\n\
                    wire s.0 -> n.0\n\
                    wire n.0 -> o.0\n\
                    wire ghost.0 -> deadled.0\n";
        let report = lint_netlist(text, &LintConfig::default());
        let w006: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "W006")
            .collect();
        assert_eq!(w006.len(), 2, "{report}");
        for d in &w006 {
            let fix = d.fix.as_ref().expect("removal fix");
            assert_eq!(fix.applicability, crate::Applicability::MachineApplicable);
        }
        let fixed = crate::apply_machine_fixes(text, &report).unwrap();
        assert!(!fixed.contains("ghost"), "{fixed}");
        assert!(!fixed.contains("deadled"), "{fixed}");
        let relint = lint_netlist(&fixed, &LintConfig::default());
        assert!(relint.is_clean(), "{relint}");
    }

    #[test]
    fn w006_fix_is_demoted_when_removal_would_orphan_a_live_block() {
        // dead drives live: `dead` is sensor-unreachable but its sink is
        // live, so no sink-closed subset contains it — no machine fix.
        let text = "eblocks-netlist v1\n\
                    design t\n\
                    block s sensor:button\n\
                    block g compute:logic2:OR\n\
                    block o output:led\n\
                    block dead compute:not\n\
                    wire s.0 -> g.0\n\
                    wire dead.0 -> g.1\n\
                    wire g.0 -> o.0\n";
        let report = lint_netlist(text, &LintConfig::default());
        let w006 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W006")
            .expect("dead block flagged");
        assert!(w006.fix.is_none(), "{w006:?}");
    }
}
