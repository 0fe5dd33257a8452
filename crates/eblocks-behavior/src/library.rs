//! Canonical behavior programs for every pre-defined compute block.
//!
//! The paper's simulator ships a library of block behaviors; this module
//! generates each block's program from its [`ComputeKind`]. Combinational
//! truth tables become sum-of-products expressions; sequential blocks use
//! `state` variables and, for the time-driven ones, `on tick` handlers.

use crate::ast::Program;
use crate::parser::parse;
use eblocks_core::{ComputeKind, TruthTable2, TruthTable3};

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

    fn all_kinds() -> Vec<ComputeKind> {
        let mut kinds = vec![
            ComputeKind::Not,
            ComputeKind::Splitter,
            ComputeKind::Toggle,
            ComputeKind::Trip,
            ComputeKind::PulseGen { ticks: 3 },
            ComputeKind::Delay { ticks: 2 },
        ];
        for mask in 0..16u8 {
            kinds.push(ComputeKind::Logic2(TruthTable2::from_mask(mask).unwrap()));
        }
        for mask in [0u8, 1, 0x80, 0xE8, 0x96, 0xFF, 0xCA] {
            kinds.push(ComputeKind::Logic3(TruthTable3::from_mask(mask)));
        }
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

    #[test]
    fn tick_only_for_timed_blocks() {
        assert!(program_for(ComputeKind::PulseGen { ticks: 1 }).uses_tick());
        assert!(program_for(ComputeKind::Delay { ticks: 1 }).uses_tick());
        assert!(!program_for(ComputeKind::Toggle).uses_tick());
        assert!(!program_for(ComputeKind::and2()).uses_tick());
    }
}
