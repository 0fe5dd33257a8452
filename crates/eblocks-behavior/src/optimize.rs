//! Syntax-tree optimization for generated programs.
//!
//! Merged partition programs contain mechanical redundancy — net variables
//! copied around, sum-of-products tables with constant factors after
//! renaming, branches on constants. This pass shrinks them before C
//! emission:
//!
//! * constant folding through the [operator table](crate::ast#the-operator-table)
//!   (a fold the table faults on — overflow, division by zero, a type
//!   mismatch — is left in place so runtime faults are preserved),
//! * algebraic identities (`x && true → x`, `x || true → true`,
//!   `x + 0 → x`, `!!x → x`, …) — applied only when the discarded operand
//!   is provably *total* (cannot fault): it contains no division/remainder
//!   **and** type-checks, by the table's operand and result types, against
//!   the program's inferred variable types (the language is dynamically
//!   typed, so `1 && false` faults at run time and must not fold away),
//! * branch elimination for `if` on a constant condition.
//!
//! Variable types come from [`VarTypes`], the one inference the C emitter
//! reads too, and definitely-assigned names from the checker's
//! `Assigned` set, which undoes a branch from its log instead of copying
//! the set at every `if`. Both key names borrowed from the input program;
//! the optimized program is the pass's only copy.
//!
//! The pass is semantics-preserving: an optimized program produces the same
//! outputs and the same state evolution, and faults whenever the original
//! faults (see the equivalence property test in
//! `tests/proptest_roundtrip.rs`).

use crate::ast::{input_port, BinOp, Expr, Handler, HandlerKind, Program, Stmt, UnOp};
use crate::check::Assigned;
use crate::types::VarTypes;
use crate::value::Ty;
use std::collections::HashSet;

/// Variable types plus handler context (input ports are unreadable inside
/// `on tick` handlers, where referencing `inK` faults).
struct Ctx<'a> {
    env: &'a VarTypes<'a>,
    inputs_ok: bool,
    /// Variables *definitely assigned* at the current program point: state
    /// declarations plus every name assigned on all paths so far in this
    /// handler invocation. Reading anything else can fault with
    /// `UndefinedVariable` (plain names and `outK` alike), so only
    /// definitely-assigned variables count as total when an expression is
    /// considered for discarding.
    defined: Assigned<'a>,
}

/// Optimizes a whole program (handlers only; state initializers are already
/// literals after checking).
pub fn optimize(program: &Program) -> Program {
    let env = VarTypes::infer(program);
    let state_names: HashSet<&str> = program.states.iter().map(|st| st.name.as_str()).collect();
    let mut ctx = Ctx {
        env: &env,
        inputs_ok: true,
        defined: Assigned::new(state_names),
    };
    Program {
        states: program.states.clone(),
        handlers: program
            .handlers
            .iter()
            .map(|h| {
                ctx.inputs_ok = h.kind == HandlerKind::Input;
                let body = optimize_body(&h.body, &mut ctx);
                ctx.defined.reset();
                Handler { kind: h.kind, body }
            })
            .collect(),
    }
}

/// The type an expression evaluates to, or `None` when it is ill-typed or
/// involves unknowns — in which case it may fault at run time.
fn expr_type(e: &Expr, ctx: &Ctx) -> Option<Ty> {
    ctx.env.expr_checked(e, ctx.inputs_ok)
}

/// Whether evaluating `e` can never fault: well-typed, no division or
/// remainder, and no arithmetic that could overflow at run time (variable
/// arithmetic can overflow, so only literal-free-of-arith trees count...
/// conservatively: no `+ - * /%` over variables). Comparison and boolean
/// structure over typed variables is safe.
fn is_total(e: &Expr, ctx: &Ctx) -> bool {
    fn no_faulting_ops(e: &Expr) -> bool {
        match e {
            Expr::Bool(_) | Expr::Int(_) | Expr::Var(_) => true,
            Expr::Unary(UnOp::Neg, inner) => {
                // Negating a non-literal could overflow on i64::MIN.
                inner.literal().is_some_and(|v| UnOp::Neg.apply(v).is_ok())
            }
            Expr::Unary(UnOp::Not, inner) => no_faulting_ops(inner),
            Expr::Binary(op, l, r) => {
                !matches!(
                    op,
                    BinOp::Div | BinOp::Rem | BinOp::Add | BinOp::Sub | BinOp::Mul
                ) && no_faulting_ops(l)
                    && no_faulting_ops(r)
            }
        }
    }
    fn vars_defined(e: &Expr, ctx: &Ctx) -> bool {
        match e {
            Expr::Bool(_) | Expr::Int(_) => true,
            Expr::Var(name) => {
                if input_port(name).is_some() {
                    // `inK` never raises UndefinedVariable (arity is the
                    // checker's concern); in tick handlers expr_type already
                    // rejected it.
                    true
                } else {
                    // Plain names and `outK` fault unless assigned: only a
                    // definitely-assigned variable is safe to discard.
                    ctx.defined.contains(name)
                }
            }
            Expr::Unary(_, x) => vars_defined(x, ctx),
            Expr::Binary(_, l, r) => vars_defined(l, ctx) && vars_defined(r, ctx),
        }
    }
    expr_type(e, ctx).is_some() && no_faulting_ops(e) && vars_defined(e, ctx)
}

fn optimize_body<'a>(body: &'a [Stmt], ctx: &mut Ctx<'a>) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(body.len());
    for stmt in body {
        match stmt {
            Stmt::Let(name, e) => {
                let e = optimize_expr_env(e, ctx);
                ctx.defined.insert(name);
                out.push(Stmt::Let(name.clone(), e));
            }
            Stmt::Assign(name, e) => {
                let e = optimize_expr_env(e, ctx);
                ctx.defined.insert(name);
                out.push(Stmt::Assign(name.clone(), e));
            }
            Stmt::If(cond, then_body, else_body) => {
                let cond = optimize_expr_env(cond, ctx);
                match cond {
                    // On a constant condition only the surviving branch
                    // executes (and only its assignments count as defined).
                    Expr::Bool(true) => out.extend(optimize_body(then_body, ctx)),
                    Expr::Bool(false) => out.extend(optimize_body(else_body, ctx)),
                    cond => {
                        // Either branch may run: only names assigned on
                        // both paths are definitely assigned afterwards.
                        let mut branch = ctx.defined.branch();
                        let then_body = optimize_body(then_body, ctx);
                        ctx.defined.otherwise(&mut branch);
                        let else_body = optimize_body(else_body, ctx);
                        ctx.defined.join(branch);
                        // Dropping the branch requires the condition to be
                        // fault-free AND boolean-typed: `if (-0) {}` faults.
                        if then_body.is_empty()
                            && else_body.is_empty()
                            && is_total(&cond, ctx)
                            && expr_type(&cond, ctx) == Some(Ty::Bool)
                        {
                            // Branch with no effect and a fault-free
                            // condition: drop entirely.
                            continue;
                        }
                        out.push(Stmt::If(cond, then_body, else_body));
                    }
                }
            }
        }
    }
    out
}

fn optimize_expr_env(e: &Expr, ctx: &Ctx) -> Expr {
    match e {
        Expr::Bool(_) | Expr::Int(_) | Expr::Var(_) => e.clone(),
        Expr::Unary(op, inner) => {
            let inner = optimize_expr_env(inner, ctx);
            if let Some(v) = inner.literal().and_then(|v| op.apply(v).ok()) {
                return v.into();
            }
            match &inner {
                // Double negation only cancels when the inner operand is
                // correctly typed; `!!5` and `--false` must keep faulting.
                Expr::Unary(twice, x) if twice == op && expr_type(x, ctx) == Some(op.ty()) => {
                    x.as_ref().clone()
                }
                _ => Expr::unary(*op, inner),
            }
        }
        Expr::Binary(op, l, r) => {
            let l = optimize_expr_env(l, ctx);
            let r = optimize_expr_env(r, ctx);
            fold_binary(*op, l, r, ctx)
        }
    }
}

fn fold_binary(op: BinOp, l: Expr, r: Expr, ctx: &Ctx) -> Expr {
    use BinOp::*;
    if let (Some(a), Some(b)) = (l.literal(), r.literal()) {
        if let Ok(v) = op.apply(a, b) {
            return v.into();
        }
    }

    // Identities. Discarding an operand requires it to be total. `false &&
    // x` always folds: the interpreter short-circuits, so `x` was never
    // evaluated in the original either. `x && false → false` discards an
    // *evaluated* `x`, so `x` must be total. Keeping an operand (e.g.
    // `x && true → x`) additionally requires the *kept* side to be
    // boolean-typed — otherwise the original faulted on the `&&` and the
    // fold would hide it.
    let is_bool = |e: &Expr| expr_type(e, ctx) == Some(Ty::Bool);
    let is_int = |e: &Expr| expr_type(e, ctx) == Some(Ty::Int);
    match (op, &l, &r) {
        (And, Expr::Bool(true), _) if is_bool(&r) => return r,
        (And, Expr::Bool(false), _) => return Expr::Bool(false),
        (And, _, Expr::Bool(true)) if is_bool(&l) => return l,
        (And, _, Expr::Bool(false)) if is_total(&l, ctx) && is_bool(&l) => {
            return Expr::Bool(false)
        }
        (Or, Expr::Bool(false), _) if is_bool(&r) => return r,
        (Or, Expr::Bool(true), _) => return Expr::Bool(true),
        (Or, _, Expr::Bool(false)) if is_bool(&l) => return l,
        (Or, _, Expr::Bool(true)) if is_total(&l, ctx) && is_bool(&l) => return Expr::Bool(true),
        (Add, Expr::Int(0), _) if is_int(&r) => return r,
        (Add, _, Expr::Int(0)) if is_int(&l) => return l,
        (Sub, _, Expr::Int(0)) if is_int(&l) => return l,
        (Mul, Expr::Int(1), _) if is_int(&r) => return r,
        (Mul, _, Expr::Int(1)) if is_int(&l) => return l,
        (Div, _, Expr::Int(1)) if is_int(&l) => return l,
        _ => {}
    }
    Expr::binary(op, l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn opt_expr(src: &str) -> String {
        let p = parse(&format!("on input {{ x = {src}; }}")).unwrap();
        let o = optimize(&p);
        let Stmt::Assign(_, e) = &o.handlers[0].body[0] else {
            panic!()
        };
        e.to_string()
    }

    #[test]
    fn undefined_variable_reads_never_dropped() {
        // Regression (found by the equivalence proptest): `beta` is typed by
        // the assignment in the tick handler, but at run time the input
        // handler evaluates `beta || in0` before any assignment — the
        // original faults with UndefinedVariable, so the optimizer must not
        // delete the empty if.
        let p = parse(
            "on input { if (beta || in0) { } } \
             on tick { if (false) { beta = in0; } }",
        )
        .unwrap();
        let o = optimize(&p);
        assert_eq!(o.handlers[0].body.len(), 1, "{o}");
        // Reading an output port before writing it faults too.
        let p = parse("on input { if (out0) { } out0 = in0; }").unwrap();
        let o = optimize(&p);
        assert!(matches!(o.handlers[0].body[0], Stmt::If(..)), "{o}");
        // But after a definite assignment the same read is droppable.
        let p = parse("on input { out0 = in0; if (out0) { } }").unwrap();
        let o = optimize(&p);
        assert_eq!(o.handlers[0].body.len(), 1, "{o}");
        // A name assigned in only one branch is not definitely assigned.
        let p = parse("on input { if (in0) { q = true; } if (q) { } out0 = in0; }").unwrap();
        let o = optimize(&p);
        assert_eq!(o.handlers[0].body.len(), 3, "{o}");
        // Assigned in both branches: definitely assigned, droppable.
        let p =
            parse("on input { if (in0) { q = true; } else { q = false; } if (q) { } out0 = in0; }")
                .unwrap();
        let o = optimize(&p);
        assert_eq!(o.handlers[0].body.len(), 2, "{o}");
    }

    #[test]
    fn folds_constants() {
        assert_eq!(opt_expr("1 + 2 * 3"), "7");
        assert_eq!(opt_expr("10 / 2 - 1"), "4");
        assert_eq!(opt_expr("3 < 4"), "true");
        assert_eq!(opt_expr("true && false"), "false");
        assert_eq!(opt_expr("!false"), "true");
        assert_eq!(opt_expr("-(3)"), "-3");
    }

    #[test]
    fn preserves_faults() {
        // Division by zero must not fold away.
        assert_eq!(opt_expr("1 / 0"), "1 / 0");
        assert_eq!(opt_expr("5 % 0"), "5 % 0");
        // x && false with a faulting x must stay.
        assert_eq!(opt_expr("(1 / 0 == 1) && false"), "1 / 0 == 1 && false");
        // ...but short-circuited false && faulting folds safely.
        assert_eq!(opt_expr("false && (1 / 0 == 1)"), "false");
        // Type faults are faults too: `1 && false` faults at run time.
        assert_eq!(opt_expr("1 && false"), "1 && false");
        assert_eq!(opt_expr("1 && true"), "1 && true");
        // Overflowing folds stay.
        let max = i64::MAX;
        assert_eq!(opt_expr(&format!("{max} + 1")), format!("{max} + 1"));
    }

    #[test]
    fn identities_on_typed_operands() {
        assert_eq!(opt_expr("in0 && true"), "in0");
        assert_eq!(opt_expr("in0 && false"), "false");
        assert_eq!(opt_expr("in0 || false"), "in0");
        assert_eq!(opt_expr("in0 || true"), "true");
        assert_eq!(opt_expr("true && in0"), "in0");
        assert_eq!(opt_expr("!!in0"), "in0");
    }

    #[test]
    fn arithmetic_identities_require_known_int() {
        // `x` has no assignment before use here, so its type is unknown and
        // the identities must not fire (x might be a bool at run time,
        // faulting on `+`).
        assert_eq!(opt_expr("x + 0"), "x + 0");
        // With a declared integer state the identities apply.
        let p = parse("state n = 5; on input { x = n + 0; y = n * 1; z = n - 0; }").unwrap();
        let o = optimize(&p);
        let rendered = o.to_string();
        assert!(rendered.contains("x = n;"), "{rendered}");
        assert!(rendered.contains("y = n;"), "{rendered}");
        assert!(rendered.contains("z = n;"), "{rendered}");
    }

    #[test]
    fn nested_simplification_cascades() {
        // SOP row with a constant false factor disappears entirely.
        assert_eq!(opt_expr("in0 && false || in1 && true"), "in1");
    }

    #[test]
    fn constant_branches_eliminated() {
        let p = parse("on input { if (true) { out0 = in0; } else { out0 = !in0; } }").unwrap();
        let o = optimize(&p);
        assert_eq!(
            o.handlers[0].body,
            parse("on input { out0 = in0; }").unwrap().handlers[0].body
        );

        let p = parse("on input { if (1 > 2) { out0 = in0; } }").unwrap();
        let o = optimize(&p);
        assert!(o.handlers[0].body.is_empty());
    }

    #[test]
    fn effectless_if_dropped_only_when_total() {
        let p = parse("on input { if (in0) { } }").unwrap();
        assert!(optimize(&p).handlers[0].body.is_empty());
        // A faulting condition must be kept even with empty branches.
        let p = parse("on input { if (1 / 0 == 1) { } }").unwrap();
        assert_eq!(optimize(&p).handlers[0].body.len(), 1);
        // An ill-typed condition must be kept as well.
        let p = parse("on input { if (!(false == 0)) { } }").unwrap();
        assert_eq!(optimize(&p).handlers[0].body.len(), 1);
    }

    #[test]
    fn merged_style_program_shrinks() {
        let bloated =
            parse("on input { out0 = (in0 && true || false) && (true && !in1 || in1 && false); }")
                .unwrap();
        let optimized = optimize(&bloated);
        let Stmt::Assign(_, e) = &optimized.handlers[0].body[0] else {
            panic!()
        };
        assert_eq!(e.to_string(), "in0 && !in1");
    }

    #[test]
    fn idempotent() {
        let p = parse(
            "state n = 3; on input { if (in0 && true) { n = n + 0; out0 = n > 0; } } on tick { n = n - 1; }",
        )
        .unwrap();
        let once = optimize(&p);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn library_programs_unchanged_or_equivalent() {
        use crate::library;
        use eblocks_core::ComputeKind;
        // The library sources are already minimal; optimization must at
        // least not break their checks.
        for kind in [
            ComputeKind::and2(),
            ComputeKind::Toggle,
            ComputeKind::Trip,
            ComputeKind::PulseGen { ticks: 3 },
            ComputeKind::Delay { ticks: 3 },
        ] {
            let p = library::program_for(kind);
            let o = optimize(&p);
            assert!(
                crate::check::check(&o, kind.num_inputs(), kind.num_outputs()).is_empty(),
                "{kind:?}"
            );
        }
    }
}
