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

use eblocks_behavior::{Expr, HandlerKind, Program, Stmt, Ty};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Emits freestanding C for a behavior program (typically a merged
/// partition program, but any checked program works).
///
/// `name` labels the generated functions' header comment.
pub fn emit_c(name: &str, program: &Program, num_inputs: u8, num_outputs: u8) -> String {
    let types = infer_types(program);
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated eBlock program: {name} */");
    let _ = writeln!(
        out,
        "/* Target: Microchip PIC16F628 (2 KB program memory) */"
    );
    out.push_str("#include <stdint.h>\n\n");
    out.push_str("typedef uint8_t eb_bool;\n\n");

    for st in &program.states {
        let ty = c_type(types.get(&st.name).copied().unwrap_or(Ty::Bool));
        let _ = writeln!(out, "static {ty} {} = {};", st.name, emit_expr(&st.init));
    }
    if !program.states.is_empty() {
        out.push('\n');
    }

    let input_sig = format!(
        "void eblock_on_input(const eb_bool in[{}], eb_bool out[{}])",
        num_inputs.max(1),
        num_outputs.max(1)
    );
    let tick_sig = format!("void eblock_on_tick(eb_bool out[{}])", num_outputs.max(1));

    for (kind, sig) in [
        (HandlerKind::Input, input_sig),
        (HandlerKind::Tick, tick_sig),
    ] {
        let _ = writeln!(out, "{sig} {{");
        if let Some(handler) = program.handler(kind) {
            // Handler-local `let` variables, declared up front (C89-friendly
            // for ancient PIC toolchains).
            for local in handler.locals() {
                let ty = c_type(types.get(local).copied().unwrap_or(Ty::Bool));
                let _ = writeln!(out, "    {ty} {local};");
            }
            for stmt in &handler.body {
                emit_stmt(&mut out, stmt, 1);
            }
        }
        out.push_str("}\n\n");
    }
    out
}

fn c_type(t: Ty) -> &'static str {
    match t {
        Ty::Bool => "eb_bool",
        Ty::Int => "int16_t",
    }
}

/// Infers variable types from initializers and assignments: anything ever
/// assigned an integer-typed expression is `int16_t`, everything else is
/// `eb_bool`.
fn infer_types(program: &Program) -> BTreeMap<String, Ty> {
    let mut types: BTreeMap<String, Ty> = BTreeMap::new();
    for st in &program.states {
        types.insert(st.name.clone(), expr_type(&st.init, &types));
    }
    // Two passes let later reads of earlier-typed variables resolve.
    for _ in 0..2 {
        for handler in &program.handlers {
            infer_body(&handler.body, &mut types);
        }
    }
    types
}

fn infer_body(body: &[Stmt], types: &mut BTreeMap<String, Ty>) {
    for stmt in body {
        match stmt {
            Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                let t = expr_type(e, types);
                // Int is sticky: a variable that ever holds an int is int.
                let entry = types.entry(name.clone()).or_insert(t);
                if t == Ty::Int {
                    *entry = Ty::Int;
                }
            }
            Stmt::If(_, a, b) => {
                infer_body(a, types);
                infer_body(b, types);
            }
        }
    }
}

/// The type an expression yields, by the operator table's result types;
/// a variable of no known type is boolean.
fn expr_type(e: &Expr, types: &BTreeMap<String, Ty>) -> Ty {
    match e {
        Expr::Bool(_) => Ty::Bool,
        Expr::Int(_) => Ty::Int,
        Expr::Var(name) => types.get(name).copied().unwrap_or(Ty::Bool),
        Expr::Unary(op, _) => op.ty(),
        Expr::Binary(op, _, _) => op.result(),
    }
}

fn emit_stmt(out: &mut String, stmt: &Stmt, indent: usize) {
    let pad = "    ".repeat(indent);
    match stmt {
        Stmt::Let(name, e) | Stmt::Assign(name, e) => {
            let target = port_lvalue(name);
            let _ = writeln!(out, "{pad}{target} = {};", emit_expr(e));
        }
        Stmt::If(cond, then_body, else_body) => {
            let _ = writeln!(out, "{pad}if ({}) {{", emit_expr(cond));
            for s in then_body {
                emit_stmt(out, s, indent + 1);
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in else_body {
                    emit_stmt(out, s, indent + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// `inK`/`outK` become array accesses; everything else is a plain variable.
fn port_lvalue(name: &str) -> String {
    if let Some(port) = eblocks_behavior::ast::output_port(name) {
        return format!("out[{port}]");
    }
    name.to_string()
}

fn emit_expr(e: &Expr) -> String {
    // The behavior language's Display uses C precedence and C operators, so
    // only port references and bool literals need rewriting.
    fn rewrite(e: &Expr) -> Expr {
        match e {
            Expr::Var(name) => {
                if let Some(port) = eblocks_behavior::ast::input_port(name) {
                    Expr::Var(format!("in[{port}]"))
                } else if let Some(port) = eblocks_behavior::ast::output_port(name) {
                    Expr::Var(format!("out[{port}]"))
                } else {
                    e.clone()
                }
            }
            Expr::Bool(b) => Expr::Int(i64::from(*b)),
            Expr::Int(_) => e.clone(),
            Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(rewrite(inner))),
            Expr::Binary(op, l, r) => Expr::Binary(*op, Box::new(rewrite(l)), Box::new(rewrite(r))),
        }
    }
    rewrite(e).to_string()
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
