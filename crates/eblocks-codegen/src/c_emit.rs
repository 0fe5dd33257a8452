//! C emission for physical programmable eBlocks.
//!
//! §3.3: "A user can select a programmable block and instruct the simulator
//! to translate the syntax tree into C code for downloading and use in a
//! physical block." The target is the paper's prototype — a Microchip
//! PIC16F628 — so the emitted C is freestanding, allocation-free, and uses
//! 8/16-bit types only. The runtime contract is two entry points the block
//! firmware calls:
//!
//! * `eblock_on_input(inputs, outputs)` — on packet arrival, with current
//!   input pin values latched into `inputs`,
//! * `eblock_on_tick(outputs)` — on the periodic timer,
//!
//! each writing the output pin values to transmit (the firmware applies the
//! change-detection transmit rule).
//!
//! Each variable is declared `int16_t` when it ever holds an integer and
//! `eb_bool` otherwise, by the one type inference the optimizer also reads
//! ([`VarTypes::storage`]). The source is written straight into one
//! `String`: no statement or expression is copied or printed to a
//! temporary first.

use eblocks_behavior::ast::{input_port, output_port};
use eblocks_behavior::{Expr, HandlerKind, Program, Stmt, Ty, VarTypes};
use std::fmt::{self, Write};

/// Emits freestanding C for a behavior program (typically a merged
/// partition program, but any checked program works).
///
/// `name` labels the generated functions' header comment.
pub fn emit_c(name: &str, program: &Program, num_inputs: u8, num_outputs: u8) -> String {
    let types = VarTypes::infer(program);
    // About a kilobyte is the median program's source.
    let mut out = String::with_capacity(1024);
    // Writing to a `String` cannot fail.
    let _ = write_c(&mut out, name, program, &types, num_inputs, num_outputs);
    out
}

fn write_c(
    out: &mut String,
    name: &str,
    program: &Program,
    types: &VarTypes,
    num_inputs: u8,
    num_outputs: u8,
) -> fmt::Result {
    writeln!(out, "/* Generated eBlock program: {name} */")?;
    out.push_str("/* Target: Microchip PIC16F628 (2 KB program memory) */\n");
    out.push_str("#include <stdint.h>\n\n");
    out.push_str("typedef uint8_t eb_bool;\n\n");

    for st in &program.states {
        out.push_str("static ");
        out.push_str(c_type(types.storage(&st.name)));
        out.push(' ');
        out.push_str(&st.name);
        out.push_str(" = ");
        write_expr(out, &st.init)?;
        out.push_str(";\n");
    }
    if !program.states.is_empty() {
        out.push('\n');
    }

    let (ins, outs) = (num_inputs.max(1), num_outputs.max(1));
    for kind in [HandlerKind::Input, HandlerKind::Tick] {
        match kind {
            HandlerKind::Input => writeln!(
                out,
                "void eblock_on_input(const eb_bool in[{ins}], eb_bool out[{outs}]) {{"
            )?,
            HandlerKind::Tick => writeln!(out, "void eblock_on_tick(eb_bool out[{outs}]) {{")?,
        }
        if let Some(handler) = program.handler(kind) {
            // Handler-local `let` variables, declared up front (C89-friendly
            // for ancient PIC toolchains).
            for local in handler.locals() {
                out.push_str("    ");
                out.push_str(c_type(types.storage(local)));
                out.push(' ');
                out.push_str(local);
                out.push_str(";\n");
            }
            for stmt in &handler.body {
                write_stmt(out, stmt, 1)?;
            }
        }
        out.push_str("}\n\n");
    }
    Ok(())
}

fn c_type(t: Ty) -> &'static str {
    match t {
        Ty::Bool => "eb_bool",
        Ty::Int => "int16_t",
    }
}

fn write_stmt(out: &mut String, stmt: &Stmt, indent: usize) -> fmt::Result {
    let pad = |out: &mut String| {
        for _ in 0..indent {
            out.push_str("    ");
        }
    };
    pad(out);
    match stmt {
        Stmt::Let(name, e) | Stmt::Assign(name, e) => {
            // `outK` becomes an array element; everything else is a plain
            // variable.
            match output_port(name) {
                Some(port) => write!(out, "out[{port}]")?,
                None => out.push_str(name),
            }
            out.push_str(" = ");
            write_expr(out, e)?;
            out.push_str(";\n");
        }
        Stmt::If(cond, then_body, else_body) => {
            out.push_str("if (");
            write_expr(out, cond)?;
            out.push_str(") {\n");
            for s in then_body {
                write_stmt(out, s, indent + 1)?;
            }
            pad(out);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_body {
                    write_stmt(out, s, indent + 1)?;
                }
                pad(out);
                out.push_str("}\n");
            }
        }
    }
    Ok(())
}

/// The behavior language prints with C precedence and C operators, so only
/// port references and bool literals need rewriting.
fn write_expr(out: &mut String, e: &Expr) -> fmt::Result {
    e.write_with(out, &mut |out: &mut String, leaf| match leaf {
        Expr::Bool(b) => {
            out.push(if *b { '1' } else { '0' });
            Ok(())
        }
        Expr::Int(v) => write!(out, "{v}"),
        Expr::Var(name) => {
            if let Some(port) = input_port(name) {
                write!(out, "in[{port}]")
            } else if let Some(port) = output_port(name) {
                write!(out, "out[{port}]")
            } else {
                out.push_str(name);
                Ok(())
            }
        }
        Expr::Unary(..) | Expr::Binary(..) => unreachable!("leaves only"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_behavior::parse;

    #[test]
    fn emits_combinational_function() {
        let p = parse("on input { out0 = in0 && !in1; }").unwrap();
        let c = emit_c("demo", &p, 2, 1);
        assert!(
            c.contains("void eblock_on_input(const eb_bool in[2], eb_bool out[1])"),
            "{c}"
        );
        assert!(c.contains("out[0] = in[0] && !in[1];"), "{c}");
        assert!(c.contains("void eblock_on_tick"), "tick stub present");
    }

    #[test]
    fn emits_state_with_inferred_types() {
        let p = parse(
            "state q = false; state n = 3;\non input { if (in0) { n = n - 1; } q = n > 0; out0 = q; }",
        )
        .unwrap();
        let c = emit_c("demo", &p, 1, 1);
        assert!(c.contains("static eb_bool q = 0;"), "{c}");
        assert!(c.contains("static int16_t n = 3;"), "{c}");
        assert!(c.contains("if (in[0]) {"), "{c}");
    }

    #[test]
    fn bool_literals_become_ints() {
        let p = parse("state q = true; on input { q = false; out0 = q; }").unwrap();
        let c = emit_c("demo", &p, 1, 1);
        assert!(c.contains("static eb_bool q = 1;"), "{c}");
        assert!(c.contains("q = 0;"), "{c}");
    }

    #[test]
    fn locals_declared_up_front() {
        let p = parse("on input { let x = 1 + 2; out0 = x > 2; }").unwrap();
        let c = emit_c("demo", &p, 1, 1);
        assert!(c.contains("int16_t x;"), "{c}");
        assert!(c.contains("x = 1 + 2;"), "{c}");
    }

    #[test]
    fn tick_handler_emitted() {
        let p = parse("state n = 2; on tick { if (n > 0) { n = n - 1; } out0 = n > 0; }").unwrap();
        let c = emit_c("demo", &p, 0, 1);
        assert!(c.contains("void eblock_on_tick(eb_bool out[1])"), "{c}");
        assert!(c.contains("n = n - 1;"), "{c}");
    }

    #[test]
    fn header_names_the_partition() {
        let p = parse("").unwrap();
        let c = emit_c("garage/p0", &p, 0, 0);
        assert!(c.starts_with("/* Generated eBlock program: garage/p0 */"));
        assert!(c.contains("PIC16F628"));
    }

    #[test]
    fn parenthesization_preserved() {
        let p = parse("on input { out0 = (in0 || in1) && in2; }").unwrap();
        let c = emit_c("demo", &p, 3, 1);
        assert!(c.contains("out[0] = (in[0] || in[1]) && in[2];"), "{c}");
    }
}
