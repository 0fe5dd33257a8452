//! Abstract syntax tree — the paper's "syntax tree" representation of a
//! block's behavior, plus the transformations code generation needs:
//! systematic variable renaming and variable-use analysis.
//!
//! # The operator table
//!
//! [`UnOp`] and [`BinOp`] are the one definition of the language's
//! operators: how each is spelled and binds, the [`Ty`]pes it takes and
//! yields, and what it computes from operand values already evaluated
//! ([`UnOp::apply`], [`BinOp::apply`]). Arithmetic is checked: overflow and
//! division by zero are faults. `==` and `!=` compare two values of one
//! type, and the orderings compare integers only. Every consumer reads
//! this table: the interpreter, the optimizer's folding and typing, lint's
//! abstract interpreter and the C emitter. Only the short-circuit of `&&`
//! and `||`, which decides whether the right operand is evaluated at all,
//! lives in each evaluator.

use crate::value::{EvalError, Ty, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Unary operators (see [the operator table](self#the-operator-table)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

impl UnOp {
    /// Source-syntax spelling (also valid C).
    pub fn symbol(self) -> &'static str {
        match self {
            Self::Not => "!",
            Self::Neg => "-",
        }
    }

    /// The type the operand must have, which is also the result's.
    pub fn ty(self) -> Ty {
        match self {
            Self::Not => Ty::Bool,
            Self::Neg => Ty::Int,
        }
    }

    /// Applies the operator to an evaluated operand.
    ///
    /// # Errors
    ///
    /// [`EvalError::TypeMismatch`] when the operand is not of type
    /// [`ty`](Self::ty), and [`EvalError::Overflow`] for `-i64::MIN`.
    // Inlined: the interpreter calls it for every unary operator node.
    #[inline]
    pub fn apply(self, v: Value) -> Result<Value, EvalError> {
        match self {
            Self::Not => Ok(Value::Bool(!v.as_bool()?)),
            Self::Neg => v
                .as_int()?
                .checked_neg()
                .map(Value::Int)
                .ok_or(EvalError::Overflow),
        }
    }
}

/// Binary operators, in increasing precedence groups:
/// `||` < `&&` < `== !=` < `< <= > >=` < `+ -` < `* / %` (see [the
/// operator table](self#the-operator-table)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical or.
    Or,
    /// Logical and.
    And,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (truncating; division by zero is a runtime error).
    Div,
    /// Remainder.
    Rem,
}

impl BinOp {
    /// Parser precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            Self::Or => 1,
            Self::And => 2,
            Self::Eq | Self::Ne => 3,
            Self::Lt | Self::Le | Self::Gt | Self::Ge => 4,
            Self::Add | Self::Sub => 5,
            Self::Mul | Self::Div | Self::Rem => 6,
        }
    }

    /// Source-syntax spelling (also valid C).
    pub fn symbol(self) -> &'static str {
        match self {
            Self::Or => "||",
            Self::And => "&&",
            Self::Eq => "==",
            Self::Ne => "!=",
            Self::Lt => "<",
            Self::Le => "<=",
            Self::Gt => ">",
            Self::Ge => ">=",
            Self::Add => "+",
            Self::Sub => "-",
            Self::Mul => "*",
            Self::Div => "/",
            Self::Rem => "%",
        }
    }

    /// The type both operands must have; `None` for `==` and `!=`, which
    /// take either type as long as both operands share it.
    pub fn operand(self) -> Option<Ty> {
        match self {
            Self::Or | Self::And => Some(Ty::Bool),
            Self::Eq | Self::Ne => None,
            _ => Some(Ty::Int),
        }
    }

    /// The type of the result.
    pub fn result(self) -> Ty {
        match self {
            Self::Add | Self::Sub | Self::Mul | Self::Div | Self::Rem => Ty::Int,
            _ => Ty::Bool,
        }
    }

    /// The result's type for operands of types `l` and `r`, or `None` when
    /// the operator faults on them.
    pub fn result_type(self, l: Ty, r: Ty) -> Option<Ty> {
        (l == r && self.operand().is_none_or(|t| t == l)).then_some(self.result())
    }

    /// Applies the operator to evaluated operands. `&&` and `||` take both
    /// operands here; an evaluator short-circuits them before calling this.
    ///
    /// # Errors
    ///
    /// [`EvalError::TypeMismatch`] for operands that
    /// [`result_type`](Self::result_type) rejects,
    /// [`EvalError::DivisionByZero`] for `/` or `%` by zero, and
    /// [`EvalError::Overflow`] for a result outside `i64`.
    // Inlined: the interpreter calls it for every strict operator node.
    #[inline]
    pub fn apply(self, l: Value, r: Value) -> Result<Value, EvalError> {
        let int = |v: Option<i64>| v.map(Value::Int).ok_or(EvalError::Overflow);
        match self {
            Self::Or => Ok(Value::Bool(l.as_bool()? | r.as_bool()?)),
            Self::And => Ok(Value::Bool(l.as_bool()? & r.as_bool()?)),
            Self::Eq | Self::Ne => {
                if l.ty() != r.ty() {
                    return Err(EvalError::TypeMismatch {
                        expected: l.type_name(),
                        found: r.type_name(),
                    });
                }
                let equal = l == r;
                Ok(Value::Bool(if self == Self::Eq { equal } else { !equal }))
            }
            Self::Lt => Ok(Value::Bool(l.as_int()? < r.as_int()?)),
            Self::Le => Ok(Value::Bool(l.as_int()? <= r.as_int()?)),
            Self::Gt => Ok(Value::Bool(l.as_int()? > r.as_int()?)),
            Self::Ge => Ok(Value::Bool(l.as_int()? >= r.as_int()?)),
            Self::Add => int(l.as_int()?.checked_add(r.as_int()?)),
            Self::Sub => int(l.as_int()?.checked_sub(r.as_int()?)),
            Self::Mul => int(l.as_int()?.checked_mul(r.as_int()?)),
            Self::Div | Self::Rem => {
                let (n, d) = (l.as_int()?, r.as_int()?);
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                int(if self == Self::Div {
                    n.checked_div(d)
                } else {
                    n.checked_rem(d)
                })
            }
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Variable (or input-port) reference.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Self::Var(name.into())
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Self::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary operation.
    pub fn unary(op: UnOp, operand: Expr) -> Self {
        Self::Unary(op, Box::new(operand))
    }

    /// The value of a literal; `None` for any other expression.
    pub fn literal(&self) -> Option<Value> {
        match self {
            Self::Bool(b) => Some(Value::Bool(*b)),
            Self::Int(v) => Some(Value::Int(*v)),
            _ => None,
        }
    }

    /// Collects every variable name read by this expression.
    pub fn vars(&self, into: &mut BTreeSet<String>) {
        match self {
            Self::Bool(_) | Self::Int(_) => {}
            Self::Var(name) => {
                into.insert(name.clone());
            }
            Self::Unary(_, e) => e.vars(into),
            Self::Binary(_, l, r) => {
                l.vars(into);
                r.vars(into);
            }
        }
    }

    /// Rewrites every variable reference through `f` (identity on `None`).
    pub fn rename_vars(&mut self, f: &mut impl FnMut(&str) -> Option<String>) {
        match self {
            Self::Bool(_) | Self::Int(_) => {}
            Self::Var(name) => {
                if let Some(new) = f(name) {
                    *name = new;
                }
            }
            Self::Unary(_, e) => e.rename_vars(f),
            Self::Binary(_, l, r) => {
                l.rename_vars(f);
                r.rename_vars(f);
            }
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        match self {
            Self::Bool(v) => write!(f, "{v}"),
            Self::Int(v) => write!(f, "{v}"),
            Self::Var(name) => f.write_str(name),
            Self::Unary(op, e) => {
                f.write_str(op.symbol())?;
                // Unary binds tighter than any binary operator.
                e.fmt_prec(f, 7)
            }
            Self::Binary(op, l, r) => {
                let prec = op.precedence();
                let needs_parens = prec < parent;
                if needs_parens {
                    f.write_str("(")?;
                }
                l.fmt_prec(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Left-associative: the right operand needs strictly higher
                // precedence to avoid parentheses.
                r.fmt_prec(f, prec + 1)?;
                if needs_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl From<Value> for Expr {
    /// The literal for `v`.
    fn from(v: Value) -> Self {
        match v {
            Value::Bool(b) => Self::Bool(b),
            Value::Int(i) => Self::Int(i),
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `let name = expr;` — handler-local variable.
    Let(String, Expr),
    /// `name = expr;` — assignment to a state variable, local, or output port.
    Assign(String, Expr),
    /// `if (cond) { .. } else { .. }` (else branch may be empty).
    If(Expr, Vec<Stmt>, Vec<Stmt>),
}

impl Stmt {
    /// Rewrites every variable occurrence (reads, writes, and let-bindings)
    /// through `f` (identity on `None`).
    pub fn rename_vars(&mut self, f: &mut impl FnMut(&str) -> Option<String>) {
        match self {
            Self::Let(name, e) | Self::Assign(name, e) => {
                e.rename_vars(f);
                if let Some(new) = f(name) {
                    *name = new;
                }
            }
            Self::If(cond, then_body, else_body) => {
                cond.rename_vars(f);
                for s in then_body.iter_mut().chain(else_body.iter_mut()) {
                    s.rename_vars(f);
                }
            }
        }
    }

    /// Collects variables read and written by this statement.
    pub fn vars(&self, reads: &mut BTreeSet<String>, writes: &mut BTreeSet<String>) {
        match self {
            Self::Let(name, e) | Self::Assign(name, e) => {
                e.vars(reads);
                writes.insert(name.clone());
            }
            Self::If(cond, then_body, else_body) => {
                cond.vars(reads);
                for s in then_body.iter().chain(else_body.iter()) {
                    s.vars(reads, writes);
                }
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "    ".repeat(indent);
        match self {
            Self::Let(name, e) => writeln!(f, "{pad}let {name} = {e};"),
            Self::Assign(name, e) => writeln!(f, "{pad}{name} = {e};"),
            Self::If(cond, then_body, else_body) => {
                writeln!(f, "{pad}if ({cond}) {{")?;
                for s in then_body {
                    s.fmt_indent(f, indent + 1)?;
                }
                if else_body.is_empty() {
                    writeln!(f, "{pad}}}")
                } else {
                    writeln!(f, "{pad}}} else {{")?;
                    for s in else_body {
                        s.fmt_indent(f, indent + 1)?;
                    }
                    writeln!(f, "{pad}}}")
                }
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// Which event a [`Handler`] responds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandlerKind {
    /// Packet arrival on any input port (`on input`).
    Input,
    /// Periodic timer tick (`on tick`).
    Tick,
}

/// An event handler: `on input { .. }` or `on tick { .. }`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Handler {
    /// Triggering event.
    pub kind: HandlerKind,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Handler {
    /// Every name a `let` in the body binds, nested branches included.
    pub fn locals(&self) -> BTreeSet<&str> {
        fn walk<'a>(body: &'a [Stmt], into: &mut BTreeSet<&'a str>) {
            for stmt in body {
                match stmt {
                    Stmt::Let(name, _) => {
                        into.insert(name);
                    }
                    Stmt::Assign(..) => {}
                    Stmt::If(_, then_body, else_body) => {
                        walk(then_body, into);
                        walk(else_body, into);
                    }
                }
            }
        }
        let mut locals = BTreeSet::new();
        walk(&self.body, &mut locals);
        locals
    }
}

/// A persistent variable declaration: `state name = literal;`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateDecl {
    /// Variable name.
    pub name: String,
    /// Initial value (must be a literal).
    pub init: Expr,
}

/// A complete behavior program: state declarations plus handlers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Program {
    /// Persistent variables, initialized once.
    pub states: Vec<StateDecl>,
    /// Event handlers (at most one per [`HandlerKind`] after checking).
    pub handlers: Vec<Handler>,
}

impl Program {
    /// The handler for `kind`, if present.
    pub fn handler(&self, kind: HandlerKind) -> Option<&Handler> {
        self.handlers.iter().find(|h| h.kind == kind)
    }

    /// Rewrites every variable occurrence in the whole program through `f`
    /// (state names, reads, writes; identity on `None`).
    ///
    /// This is the merging primitive from §3.3: "the tool changes tree nodes
    /// that access a block's input or output into a variable access" and
    /// "the conflict is resolved through variable renaming".
    pub fn rename_vars(&mut self, mut f: impl FnMut(&str) -> Option<String>) {
        for st in &mut self.states {
            if let Some(new) = f(&st.name) {
                st.name = new;
            }
        }
        for h in &mut self.handlers {
            for s in &mut h.body {
                s.rename_vars(&mut f);
            }
        }
    }

    /// All input ports referenced (`in0`, `in1`, …) as port numbers.
    pub fn inputs_read(&self) -> BTreeSet<u8> {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        for h in &self.handlers {
            for s in &h.body {
                s.vars(&mut reads, &mut writes);
            }
        }
        reads.iter().filter_map(|v| input_port(v)).collect()
    }

    /// All output ports written (`out0`, `out1`, …) as port numbers.
    pub fn outputs_written(&self) -> BTreeSet<u8> {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        for h in &self.handlers {
            for s in &h.body {
                s.vars(&mut reads, &mut writes);
            }
        }
        writes.iter().filter_map(|v| output_port(v)).collect()
    }

    /// Whether the program declares an `on tick` handler (sequential blocks
    /// driven by time, e.g. pulse generator and delay).
    pub fn uses_tick(&self) -> bool {
        self.handler(HandlerKind::Tick).is_some()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for st in &self.states {
            writeln!(f, "state {} = {};", st.name, st.init)?;
        }
        for h in &self.handlers {
            let kw = match h.kind {
                HandlerKind::Input => "input",
                HandlerKind::Tick => "tick",
            };
            writeln!(f, "on {kw} {{")?;
            for s in &h.body {
                s.fmt_indent(f, 1)?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// If `name` is an input-port reference (`inK`), returns `K`.
pub fn input_port(name: &str) -> Option<u8> {
    port_of(name, "in")
}

/// If `name` is an output-port reference (`outK`), returns `K`.
pub fn output_port(name: &str) -> Option<u8> {
    port_of(name, "out")
}

fn port_of(name: &str, prefix: &str) -> Option<u8> {
    let digits = name.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_program() -> Program {
        Program {
            states: vec![],
            handlers: vec![Handler {
                kind: HandlerKind::Input,
                body: vec![Stmt::Assign(
                    "out0".into(),
                    Expr::binary(BinOp::And, Expr::var("in0"), Expr::var("in1")),
                )],
            }],
        }
    }

    #[test]
    fn port_name_recognition() {
        assert_eq!(input_port("in0"), Some(0));
        assert_eq!(input_port("in12"), Some(12));
        assert_eq!(input_port("in"), None);
        assert_eq!(input_port("inx"), None);
        assert_eq!(input_port("out0"), None);
        assert_eq!(output_port("out3"), Some(3));
        assert_eq!(output_port("output"), None);
    }

    #[test]
    fn io_analysis() {
        let p = and_program();
        assert_eq!(p.inputs_read().into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(p.outputs_written().into_iter().collect::<Vec<_>>(), vec![0]);
        assert!(!p.uses_tick());
    }

    #[test]
    fn rename_rewrites_everywhere() {
        let mut p = and_program();
        p.states.push(StateDecl {
            name: "q".into(),
            init: Expr::Bool(false),
        });
        p.rename_vars(|v| Some(format!("blk_{v}")));
        assert_eq!(p.states[0].name, "blk_q");
        let Stmt::Assign(name, e) = &p.handlers[0].body[0] else {
            panic!("expected assign");
        };
        assert_eq!(name, "blk_out0");
        assert_eq!(e.to_string(), "blk_in0 && blk_in1");
    }

    #[test]
    fn display_parenthesizes_by_precedence() {
        // (a || b) && c needs parens; a && b || c does not.
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Or, Expr::var("a"), Expr::var("b")),
            Expr::var("c"),
        );
        assert_eq!(e.to_string(), "(a || b) && c");
        let e = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::And, Expr::var("a"), Expr::var("b")),
            Expr::var("c"),
        );
        assert_eq!(e.to_string(), "a && b || c");
    }

    #[test]
    fn display_right_operand_parens() {
        // a - (b - c) must keep parentheses (left-associativity).
        let e = Expr::binary(
            BinOp::Sub,
            Expr::var("a"),
            Expr::binary(BinOp::Sub, Expr::var("b"), Expr::var("c")),
        );
        assert_eq!(e.to_string(), "a - (b - c)");
        // (a - b) - c prints without parens.
        let e = Expr::binary(
            BinOp::Sub,
            Expr::binary(BinOp::Sub, Expr::var("a"), Expr::var("b")),
            Expr::var("c"),
        );
        assert_eq!(e.to_string(), "a - b - c");
    }

    #[test]
    fn display_unary() {
        let e = Expr::unary(
            UnOp::Not,
            Expr::binary(BinOp::And, Expr::var("a"), Expr::var("b")),
        );
        assert_eq!(e.to_string(), "!(a && b)");
        let e = Expr::unary(UnOp::Neg, Expr::Int(5));
        assert_eq!(e.to_string(), "-5");
    }

    #[test]
    fn operator_types_predict_apply() {
        let values = [
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(7),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
        ];
        for op in [UnOp::Not, UnOp::Neg] {
            for v in values {
                let ty = (v.ty() == op.ty()).then_some(op.ty());
                match op.apply(v) {
                    Ok(out) => assert_eq!(ty, Some(out.ty()), "{}{v}", op.symbol()),
                    Err(EvalError::TypeMismatch { .. }) => assert_eq!(ty, None),
                    Err(e) => assert_eq!(
                        (op, v, e),
                        (UnOp::Neg, Value::Int(i64::MIN), EvalError::Overflow)
                    ),
                }
            }
        }
        use BinOp::*;
        for op in [Or, And, Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Rem] {
            for l in values {
                for r in values {
                    let ty = op.result_type(l.ty(), r.ty());
                    match op.apply(l, r) {
                        Ok(out) => assert_eq!(ty, Some(out.ty()), "{l} {} {r}", op.symbol()),
                        Err(EvalError::TypeMismatch { .. }) => assert_eq!(ty, None),
                        // Only arithmetic faults on values its types admit.
                        Err(_) => assert_eq!(ty, Some(Ty::Int), "{l} {} {r}", op.symbol()),
                    }
                }
            }
        }
        // `&&` and `||` check both operands: short-circuiting is the
        // evaluator's business.
        assert!(And.apply(Value::Bool(false), Value::Int(1)).is_err());
        assert_eq!(
            Ne.apply(Value::Int(2), Value::Int(3)),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            Div.apply(Value::Int(i64::MIN), Value::Int(-1)),
            Err(EvalError::Overflow)
        );
        // Both operands are typed before the divisor is looked at.
        for op in [Div, Rem] {
            assert_eq!(
                op.apply(Value::Bool(true), Value::Int(0)),
                Err(EvalError::TypeMismatch {
                    expected: "int",
                    found: "bool"
                })
            );
        }
    }

    #[test]
    fn program_display_shape() {
        let p = and_program();
        let s = p.to_string();
        assert!(s.contains("on input {"), "{s}");
        assert!(s.contains("out0 = in0 && in1;"), "{s}");
    }

    #[test]
    fn stmt_vars_tracks_reads_and_writes() {
        let s = Stmt::If(
            Expr::var("c"),
            vec![Stmt::Assign("x".into(), Expr::var("y"))],
            vec![Stmt::Let("z".into(), Expr::Int(1))],
        );
        let (mut reads, mut writes) = (BTreeSet::new(), BTreeSet::new());
        s.vars(&mut reads, &mut writes);
        assert!(reads.contains("c") && reads.contains("y"));
        assert!(writes.contains("x") && writes.contains("z"));
    }
}
