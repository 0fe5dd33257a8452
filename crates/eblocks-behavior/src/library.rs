//! Canonical behavior programs for every pre-defined compute block.
//!
//! The paper's simulator ships a library of block behaviors; this module
//! generates each block's program from its [`ComputeKind`]. Combinational
//! truth tables become sum-of-products expressions; sequential blocks use
//! `state` variables and, for the time-driven ones, `on tick` handlers.
//!
//! # The shared table
//!
//! [`code_for`] parses, checks and compiles a kind's program once per
//! process and hands out the result as an [`Arc<LibraryCode>`]. The
//! simulator, lint and merge all borrow from it, so a design with
//! thousands of compute blocks of a few dozen kinds pays for a few dozen
//! parses. The check runs at the kind's own arity, which is every block's
//! arity: a block's port counts come from its kind.
//!
//! The table is bounded. `PulseGen` and `Delay` carry a `u16` tick count,
//! so there are 131,348 kinds; the table holds at most [`TABLE_CAPACITY`]
//! of them and is cleared when full, before the next insert. Callers keep
//! the `Arc`s they hold, so a clear costs later lookups a rebuild and
//! nothing else. A caller that cycles through every tick value therefore
//! costs speed, never unbounded memory.

use crate::ast::Program;
use crate::check::{check, CheckError};
use crate::interp::Compiled;
use crate::parser::parse;
use eblocks_core::{ComputeKind, TruthTable2, TruthTable3};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, PoisonError, RwLock};

/// The most kinds [`code_for`]'s table holds at once. Far above the few
/// dozen kinds real designs use, far below the 131,348 that exist.
pub const TABLE_CAPACITY: usize = 1024;

/// One library kind's behavior, parsed, checked and compiled once (see
/// the [module documentation](self)).
#[derive(Debug)]
pub struct LibraryCode {
    program: Program,
    errors: Vec<CheckError>,
    compiled: Compiled,
}

impl LibraryCode {
    fn new(kind: ComputeKind) -> Self {
        let program = program_for(kind);
        let errors = check(&program, kind.num_inputs(), kind.num_outputs());
        let compiled = Compiled::new(&program);
        Self {
            program,
            errors,
            compiled,
        }
    }

    /// The kind's parsed program, equal to [`program_for`]'s.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The [`check`](fn@check) verdict at the kind's arity: empty when the
    /// program is well-formed, as every library program is.
    pub fn check_errors(&self) -> &[CheckError] {
        &self.errors
    }

    /// The program compiled for [`Machine`](crate::Machine)s.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }
}

static TABLE: LazyLock<RwLock<HashMap<ComputeKind, Arc<LibraryCode>>>> =
    LazyLock::new(RwLock::default);

/// The shared, checked and compiled behavior of `kind`, built on first use
/// (see the [module documentation](self)).
pub fn code_for(kind: ComputeKind) -> Arc<LibraryCode> {
    // A panic elsewhere cannot leave the table half-updated: every write
    // is one clear or one insert.
    let cached = TABLE
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&kind)
        .cloned();
    if let Some(code) = cached {
        return code;
    }
    let built = Arc::new(LibraryCode::new(kind));
    let mut table = TABLE.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(code) = table.get(&kind) {
        // Another thread built it first; hand out the one in the table.
        return Arc::clone(code);
    }
    if table.len() >= TABLE_CAPACITY {
        table.clear();
    }
    table.insert(kind, Arc::clone(&built));
    built
}

/// Returns the behavior source text for a compute kind.
///
/// The text is valid input for [`crate::parse`] and passes
/// [`crate::check`](fn@crate::check) at the kind's arity.
pub fn source_for(kind: ComputeKind) -> String {
    match kind {
        ComputeKind::Logic2(tt) => format!("on input {{ out0 = {}; }}\n", sop2(tt)),
        ComputeKind::Logic3(tt) => format!("on input {{ out0 = {}; }}\n", sop3(tt)),
        ComputeKind::Not => "on input { out0 = !in0; }\n".into(),
        ComputeKind::Splitter => "on input { out0 = in0; out1 = in0; }\n".into(),
        ComputeKind::Toggle => "\
state q = false;
state prev = false;
on input {
    if (in0 && !prev) { q = !q; }
    prev = in0;
    out0 = q;
}
"
        .into(),
        ComputeKind::Trip => "\
state q = false;
state prev_set = false;
state prev_rst = false;
on input {
    if (in0 && !prev_set) { q = true; }
    if (in1 && !prev_rst) { q = false; }
    prev_set = in0;
    prev_rst = in1;
    out0 = q;
}
"
        .into(),
        ComputeKind::PulseGen { ticks } => format!(
            "\
state remaining = 0;
state prev = false;
on input {{
    if (in0 && !prev) {{ remaining = {ticks}; }}
    prev = in0;
    out0 = remaining > 0;
}}
on tick {{
    if (remaining > 0) {{ remaining = remaining - 1; }}
    out0 = remaining > 0;
}}
"
        ),
        // The delay block propagates the *settled* input value `ticks` ticks
        // after its last change — the human-scale semantics of the physical
        // block (an input that bounces within the window restarts it).
        ComputeKind::Delay { ticks } => format!(
            "\
state pending = 0;
state last = false;
state emitted = false;
on input {{
    if (in0 != last) {{
        last = in0;
        pending = {ticks};
    }}
    out0 = emitted;
}}
on tick {{
    if (pending > 0) {{
        pending = pending - 1;
        if (pending == 0) {{ emitted = last; out0 = emitted; }}
    }}
}}
"
        ),
    }
}

/// Returns the parsed behavior program for a compute kind.
///
/// # Panics
///
/// Never in practice: library sources are generated and parse by
/// construction (covered by tests over every kind).
pub fn program_for(kind: ComputeKind) -> Program {
    parse(&source_for(kind)).expect("library behavior sources always parse")
}

/// Sum-of-products expression text over `in0`, `in1` for a 2-input table.
fn sop2(tt: TruthTable2) -> String {
    if tt == TruthTable2::FALSE {
        return "false".into();
    }
    if tt == TruthTable2::TRUE {
        return "true".into();
    }
    let mut terms = Vec::new();
    for idx in 0..4u8 {
        if (tt.mask() >> idx) & 1 == 1 {
            let a = if idx & 1 == 1 { "in0" } else { "!in0" };
            let b = if (idx >> 1) & 1 == 1 { "in1" } else { "!in1" };
            terms.push(format!("{a} && {b}"));
        }
    }
    terms.join(" || ")
}

/// Sum-of-products expression text over `in0..in2` for a 3-input table.
fn sop3(tt: TruthTable3) -> String {
    if tt.mask() == 0 {
        return "false".into();
    }
    if tt.mask() == 0xFF {
        return "true".into();
    }
    let mut terms = Vec::new();
    for idx in 0..8u8 {
        if (tt.mask() >> idx) & 1 == 1 {
            let a = if idx & 1 == 1 { "in0" } else { "!in0" };
            let b = if (idx >> 1) & 1 == 1 { "in1" } else { "!in1" };
            let c = if (idx >> 2) & 1 == 1 { "in2" } else { "!in2" };
            terms.push(format!("{a} && {b} && {c}"));
        }
    }
    terms.join(" || ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::interp::{Compiled, Machine};
    use crate::value::Value;

    /// All truth tables, every sequential block, and the timed blocks at
    /// small tick counts and at the extremes of `ticks`.
    fn all_kinds() -> Vec<ComputeKind> {
        let mut kinds = vec![
            ComputeKind::Not,
            ComputeKind::Splitter,
            ComputeKind::Toggle,
            ComputeKind::Trip,
        ];
        for ticks in [1, 2, 3, 10, u16::MAX] {
            kinds.push(ComputeKind::PulseGen { ticks });
            kinds.push(ComputeKind::Delay { ticks });
        }
        kinds.extend((0..16u8).map(|m| ComputeKind::Logic2(TruthTable2::from_mask(m).unwrap())));
        kinds.extend((0..=255u8).map(|m| ComputeKind::Logic3(TruthTable3::from_mask(m))));
        kinds
    }

    #[test]
    fn every_library_program_parses_and_checks() {
        for kind in all_kinds() {
            let program = program_for(kind);
            let errs = check(&program, kind.num_inputs(), kind.num_outputs());
            assert!(errs.is_empty(), "{kind:?}: {errs:?}");
        }
    }

    #[test]
    fn logic2_sop_matches_table_exhaustively() {
        for mask in 0..16u8 {
            let tt = TruthTable2::from_mask(mask).unwrap();
            let program = program_for(ComputeKind::Logic2(tt));
            let code = Compiled::new(&program);
            let mut m = Machine::new(&code);
            for a in [false, true] {
                for b in [false, true] {
                    let outs = m.on_input(&[Value::Bool(a), Value::Bool(b)]).unwrap();
                    assert_eq!(
                        outs.get(0),
                        Some(Value::Bool(tt.eval(a, b))),
                        "mask {mask:04b} inputs ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn logic3_sop_matches_table_exhaustively() {
        for mask in 0..=255u8 {
            let tt = TruthTable3::from_mask(mask);
            let program = program_for(ComputeKind::Logic3(tt));
            let code = Compiled::new(&program);
            let mut m = Machine::new(&code);
            for idx in 0..8u8 {
                let (a, b, c) = (idx & 1 == 1, (idx >> 1) & 1 == 1, (idx >> 2) & 1 == 1);
                let outs = m
                    .on_input(&[Value::Bool(a), Value::Bool(b), Value::Bool(c)])
                    .unwrap();
                assert_eq!(
                    outs.get(0),
                    Some(Value::Bool(tt.eval(a, b, c))),
                    "mask {mask:08b} idx {idx}"
                );
            }
        }
    }

    #[test]
    fn splitter_duplicates_input() {
        let code = Compiled::new(&program_for(ComputeKind::Splitter));
        let mut m = Machine::new(&code);
        let outs = m.on_input(&[Value::Bool(true)]).unwrap();
        assert_eq!(outs.get(0), Some(Value::Bool(true)));
        assert_eq!(outs.get(1), Some(Value::Bool(true)));
    }

    #[test]
    fn trip_latches_and_resets() {
        let code = Compiled::new(&program_for(ComputeKind::Trip));
        let mut m = Machine::new(&code);
        let inp = |s: bool, r: bool| [Value::Bool(s), Value::Bool(r)];
        assert_eq!(
            m.on_input(&inp(false, false)).unwrap().get(0),
            Some(Value::Bool(false))
        );
        assert_eq!(
            m.on_input(&inp(true, false)).unwrap().get(0),
            Some(Value::Bool(true))
        );
        // Set released: stays latched.
        assert_eq!(
            m.on_input(&inp(false, false)).unwrap().get(0),
            Some(Value::Bool(true))
        );
        // Reset edge clears.
        assert_eq!(
            m.on_input(&inp(false, true)).unwrap().get(0),
            Some(Value::Bool(false))
        );
    }

    #[test]
    fn pulse_gen_emits_timed_pulse() {
        let code = Compiled::new(&program_for(ComputeKind::PulseGen { ticks: 2 }));
        let mut m = Machine::new(&code);
        let outs = m.on_input(&[Value::Bool(true)]).unwrap();
        assert_eq!(outs.get(0), Some(Value::Bool(true)));
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(true))); // 1 left
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(false))); // expired
    }

    #[test]
    fn delay_propagates_settled_value() {
        let code = Compiled::new(&program_for(ComputeKind::Delay { ticks: 2 }));
        let mut m = Machine::new(&code);
        m.on_input(&[Value::Bool(true)]).unwrap();
        assert!(m.on_tick().unwrap().get(0).is_none(), "not yet");
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(true)));
        // Bounce restarts the window.
        m.on_input(&[Value::Bool(false)]).unwrap();
        m.on_input(&[Value::Bool(true)]).unwrap();
        assert!(m.on_tick().unwrap().get(0).is_none());
    }

    #[test]
    fn source_io_matches_arity() {
        for kind in all_kinds() {
            let p = program_for(kind);
            let max_in = p.inputs_read().into_iter().max().map_or(0, |m| m + 1);
            let max_out = p.outputs_written().into_iter().max().map_or(0, |m| m + 1);
            assert!(max_in <= kind.num_inputs(), "{kind:?}");
            assert!(max_out <= kind.num_outputs(), "{kind:?}");
        }
    }

    /// Runs a fixed script of input and tick calls and records each call's
    /// outputs.
    fn run_script(code: &Compiled, arity: u8) -> Vec<Result<Vec<(u8, Value)>, String>> {
        let mut m = Machine::new(code);
        (0u32..40)
            .map(|step| {
                let outs = if step % 3 == 2 {
                    m.on_tick()
                } else {
                    let bits = step.wrapping_mul(0x9E37_79B9) >> 7;
                    let inputs: Vec<Value> = (0..arity)
                        .map(|k| Value::Bool((bits >> k) & 1 == 1))
                        .collect();
                    m.on_input(&inputs)
                };
                outs.map(|o| o.iter().collect()).map_err(|e| e.to_string())
            })
            .collect()
    }

    fn table_len() -> usize {
        TABLE.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    #[test]
    fn shared_code_matches_a_fresh_build() {
        for kind in all_kinds() {
            let code = code_for(kind);
            assert_eq!(
                code.program(),
                &parse(&source_for(kind)).unwrap(),
                "{kind:?}"
            );
            assert!(code.check_errors().is_empty(), "{kind:?}");
            let fresh = Compiled::new(&program_for(kind));
            assert_eq!(
                run_script(code.compiled(), kind.num_inputs()),
                run_script(&fresh, kind.num_inputs()),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn table_stays_within_its_capacity() {
        let kinds = (1..=TABLE_CAPACITY as u16 + 100).flat_map(|ticks| {
            [
                ComputeKind::PulseGen { ticks },
                ComputeKind::Delay { ticks },
            ]
        });
        let mut held = Vec::new();
        for kind in kinds {
            held.push(code_for(kind));
            assert!(table_len() <= TABLE_CAPACITY);
        }
        // Entries cleared out of the table live on in their holders.
        assert_eq!(
            held[0].program(),
            &program_for(ComputeKind::PulseGen { ticks: 1 })
        );
    }

    #[test]
    fn lookups_from_many_threads_agree() {
        // Kinds no other test uses, so the threads race to build them.
        let mut kinds: Vec<ComputeKind> = (40_000..40_064)
            .map(|ticks| ComputeKind::Delay { ticks })
            .collect();
        kinds.extend(all_kinds());
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<Program>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        kinds
                            .iter()
                            .map(|&kind| code_for(kind).program().clone())
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let expected: Vec<Program> = kinds.iter().map(|&kind| program_for(kind)).collect();
        for programs in &seen {
            assert_eq!(programs, &expected);
        }
    }

    #[test]
    fn tick_only_for_timed_blocks() {
        assert!(program_for(ComputeKind::PulseGen { ticks: 1 }).uses_tick());
        assert!(program_for(ComputeKind::Delay { ticks: 1 }).uses_tick());
        assert!(!program_for(ComputeKind::Toggle).uses_tick());
        assert!(!program_for(ComputeKind::and2()).uses_tick());
    }
}
