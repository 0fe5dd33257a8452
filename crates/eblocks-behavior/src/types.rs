//! Variable typing: one inference that both the [optimizer](crate::optimize())
//! and the C emitter read.
//!
//! The language is dynamically typed, so a variable's type is whatever its
//! initializer and its assignments evaluate to. [`VarTypes::infer`] walks
//! the state declarations once and then every handler twice (so a read of
//! a variable assigned later in the program resolves), keyed by names
//! borrowed from the program, and keeps two facts per variable:
//!
//! * [`checked`](VarTypes::checked): the type every assignment agrees on,
//!   typing each expression by the operator table's operand and result
//!   types ([`BinOp::result_type`](crate::BinOp::result_type)), or `None` when two assignments
//!   disagree or one is ill-typed. The optimizer discards an operand only
//!   when this proves it cannot fault.
//! * [`storage`](VarTypes::storage): [`Ty::Int`] when the initializer or
//!   any assignment yields an integer by result types alone
//!   ([`BinOp::result`](crate::BinOp::result), [`UnOp::ty`](crate::UnOp::ty)), else [`Ty::Bool`].
//!   The C emitter declares each variable with it (`int16_t` or
//!   `eb_bool`).

use crate::ast::{input_port, output_port, Expr, Program, Stmt};
use crate::value::Ty;
use std::collections::HashMap;

/// What the inference knows about one variable.
#[derive(Debug, Clone, Copy)]
struct Facts {
    /// The agreed checked type, `None` on a conflict or an ill-typed
    /// assignment.
    checked: Option<Ty>,
    /// Some initializer or assignment yields an integer by result types.
    int: bool,
}

/// Every variable's inferred types, keyed by names borrowed from the
/// program (see the [module documentation](self)).
#[derive(Debug, Clone, Default)]
pub struct VarTypes<'p> {
    facts: HashMap<&'p str, Facts>,
}

impl<'p> VarTypes<'p> {
    /// Infers the types of every variable `program` declares or assigns.
    pub fn infer(program: &'p Program) -> Self {
        let mut types = Self::default();
        for st in &program.states {
            let facts = Facts {
                checked: types.expr_checked(&st.init, true),
                int: types.expr_storage(&st.init) == Ty::Int,
            };
            types.facts.insert(&st.name, facts);
        }
        for _ in 0..2 {
            for h in &program.handlers {
                types.walk(&h.body);
            }
        }
        types
    }

    fn walk(&mut self, body: &'p [Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                    let checked = self.expr_checked(e, true);
                    let int = self.expr_storage(e) == Ty::Int;
                    self.facts
                        .entry(name)
                        .and_modify(|f| {
                            if f.checked != checked {
                                f.checked = None;
                            }
                            f.int |= int;
                        })
                        .or_insert(Facts { checked, int });
                }
                Stmt::If(_, a, b) => {
                    self.walk(a);
                    self.walk(b);
                }
            }
        }
    }

    /// The type every assignment to `name` agrees on; `None` for an unknown
    /// name, conflicting assignments or an ill-typed one.
    pub fn checked(&self, name: &str) -> Option<Ty> {
        self.facts.get(name).and_then(|f| f.checked)
    }

    /// The type `name` needs to be stored in: [`Ty::Int`] if it ever holds
    /// an integer, else [`Ty::Bool`] (unknown names included).
    pub fn storage(&self, name: &str) -> Ty {
        match self.facts.get(name) {
            Some(f) if f.int => Ty::Int,
            _ => Ty::Bool,
        }
    }

    /// The checked type of `e`, or `None` when it is ill-typed or reads a
    /// variable of no agreed type. Ports are boolean (packets carry
    /// booleans); `inputs_ok` is false inside `on tick`, where reading
    /// `inK` faults.
    pub fn expr_checked(&self, e: &Expr, inputs_ok: bool) -> Option<Ty> {
        match e {
            Expr::Bool(_) => Some(Ty::Bool),
            Expr::Int(_) => Some(Ty::Int),
            Expr::Var(name) => {
                if input_port(name).is_some() {
                    inputs_ok.then_some(Ty::Bool)
                } else if output_port(name).is_some() {
                    Some(Ty::Bool)
                } else {
                    self.checked(name)
                }
            }
            Expr::Unary(op, x) => (self.expr_checked(x, inputs_ok)? == op.ty()).then_some(op.ty()),
            Expr::Binary(op, l, r) => {
                let (l, r) = (
                    self.expr_checked(l, inputs_ok)?,
                    self.expr_checked(r, inputs_ok)?,
                );
                op.result_type(l, r)
            }
        }
    }

    /// The type `e` yields by the operator table's result types alone; a
    /// variable reads as its [`storage`](Self::storage) type.
    fn expr_storage(&self, e: &Expr) -> Ty {
        match e {
            Expr::Bool(_) => Ty::Bool,
            Expr::Int(_) => Ty::Int,
            Expr::Var(name) => self.storage(name),
            Expr::Unary(op, _) => op.ty(),
            Expr::Binary(op, _, _) => op.result(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn states_and_assignments_type_their_variables() {
        let p = parse("state n = 3; state q = false; on input { x = n > 0; y = n + 1; }").unwrap();
        let t = VarTypes::infer(&p);
        assert_eq!((t.checked("n"), t.storage("n")), (Some(Ty::Int), Ty::Int));
        assert_eq!((t.checked("q"), t.storage("q")), (Some(Ty::Bool), Ty::Bool));
        assert_eq!((t.checked("x"), t.storage("x")), (Some(Ty::Bool), Ty::Bool));
        assert_eq!((t.checked("y"), t.storage("y")), (Some(Ty::Int), Ty::Int));
        assert_eq!((t.checked("z"), t.storage("z")), (None, Ty::Bool));
    }

    #[test]
    fn a_conflict_is_unchecked_but_stored_as_int() {
        let p = parse("state q = false; on input { if (in0) { q = 1; } }").unwrap();
        let t = VarTypes::infer(&p);
        assert_eq!(t.checked("q"), None);
        assert_eq!(t.storage("q"), Ty::Int);
    }

    #[test]
    fn an_ill_typed_assignment_is_unchecked_but_has_a_result_type() {
        let p = parse("on input { x = 1 && in0; y = -true; }").unwrap();
        let t = VarTypes::infer(&p);
        assert_eq!((t.checked("x"), t.storage("x")), (None, Ty::Bool));
        assert_eq!((t.checked("y"), t.storage("y")), (None, Ty::Int));
    }

    #[test]
    fn later_assignments_type_earlier_reads() {
        // `a` reads `b` before the first pass has typed it; the second pass
        // sees it.
        let p = parse("on input { a = b; } on tick { b = 5; }").unwrap();
        let t = VarTypes::infer(&p);
        assert_eq!((t.checked("a"), t.storage("a")), (None, Ty::Int));
        assert_eq!(t.checked("b"), Some(Ty::Int));
    }

    #[test]
    fn ports_are_boolean_and_inputs_unreadable_in_tick() {
        let p = parse("on input { out0 = in0; }").unwrap();
        let t = VarTypes::infer(&p);
        let read = |name: &str, inputs_ok| t.expr_checked(&Expr::var(name), inputs_ok);
        assert_eq!(read("in0", true), Some(Ty::Bool));
        assert_eq!(read("in0", false), None);
        assert_eq!(read("out0", false), Some(Ty::Bool));
    }
}
