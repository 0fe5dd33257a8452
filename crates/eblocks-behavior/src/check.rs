//! Static semantic checks for behavior programs.
//!
//! [`check`] validates a parsed [`Program`] against a block's port arity and
//! rejects programs the interpreter would fault on: out-of-range port
//! references, writes to inputs, reads of possibly-undefined variables,
//! duplicate handlers, and non-constant state initializers.

use crate::ast::{input_port, output_port, Expr, HandlerKind, Program, Stmt};
use std::collections::{BTreeSet, HashSet};
use std::error::Error;
use std::fmt;

/// A semantic error found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// Two handlers with the same kind.
    DuplicateHandler {
        /// The duplicated kind.
        kind: HandlerKind,
    },
    /// A state initializer references something other than literals and
    /// previously declared states.
    NonConstantStateInit {
        /// The state variable.
        name: String,
        /// The offending reference.
        reference: String,
    },
    /// A state variable declared twice.
    DuplicateState {
        /// The duplicated name.
        name: String,
    },
    /// An input-port reference beyond the block's arity.
    InputOutOfRange {
        /// Referenced port.
        port: u8,
        /// Block input arity.
        arity: u8,
    },
    /// An output-port reference beyond the block's arity.
    OutputOutOfRange {
        /// Referenced port.
        port: u8,
        /// Block output arity.
        arity: u8,
    },
    /// Assignment to an input port.
    AssignToInput {
        /// The port assigned.
        port: u8,
    },
    /// A variable that may be read before assignment.
    PossiblyUndefined {
        /// The variable name.
        name: String,
    },
    /// The `on tick` handler reads an input port (inputs are not latched
    /// across ticks in the eBlock execution model).
    InputReadInTick {
        /// The offending port.
        port: u8,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateHandler { kind } => write!(f, "duplicate `on {kind:?}` handler"),
            Self::NonConstantStateInit { name, reference } => write!(
                f,
                "state `{name}` initializer references `{reference}` which is not a prior state"
            ),
            Self::DuplicateState { name } => write!(f, "state `{name}` declared twice"),
            Self::InputOutOfRange { port, arity } => {
                write!(
                    f,
                    "input port {port} out of range (block has {arity} inputs)"
                )
            }
            Self::OutputOutOfRange { port, arity } => {
                write!(
                    f,
                    "output port {port} out of range (block has {arity} outputs)"
                )
            }
            Self::AssignToInput { port } => write!(f, "cannot assign to input port in{port}"),
            Self::PossiblyUndefined { name } => {
                write!(f, "variable `{name}` may be read before assignment")
            }
            Self::InputReadInTick { port } => {
                write!(
                    f,
                    "`on tick` handler reads in{port}; inputs are only visible in `on input`"
                )
            }
        }
    }
}

impl Error for CheckError {}

/// Checks `program` against a block with `num_inputs` input ports and
/// `num_outputs` output ports.
///
/// Returns every problem found (empty means the program is well-formed).
pub fn check(program: &Program, num_inputs: u8, num_outputs: u8) -> Vec<CheckError> {
    let mut errors = Vec::new();

    // Handlers unique per kind.
    for kind in [HandlerKind::Input, HandlerKind::Tick] {
        if program.handlers.iter().filter(|h| h.kind == kind).count() > 1 {
            errors.push(CheckError::DuplicateHandler { kind });
        }
    }

    // State declarations: unique names, constant initializers.
    let mut declared: HashSet<&str> = HashSet::with_capacity(program.states.len());
    for st in &program.states {
        if !declared.insert(&st.name) {
            errors.push(CheckError::DuplicateState {
                name: st.name.clone(),
            });
        }
        for r in reads(&st.init) {
            if !declared.contains(r) || r == st.name {
                errors.push(CheckError::NonConstantStateInit {
                    name: st.name.clone(),
                    reference: r.to_string(),
                });
            }
        }
    }

    // Defined set: states plus names assigned so far (outputs may be read
    // back after assignment); inputs are implicitly defined in the input
    // handler.
    let mut checker = Checker {
        defined: Assigned::new(declared),
        kind: HandlerKind::Input,
        num_inputs,
        num_outputs,
        errors,
    };
    for handler in &program.handlers {
        checker.kind = handler.kind;
        checker.body(&handler.body);
        checker.defined.reset();
    }
    checker.errors
}

/// The names definitely assigned at a program point: the state variables,
/// then every name assigned on all paths so far. [`check`] reports a read
/// of any other name, and the optimizer keeps an expression that reads one.
///
/// An `if` is walked as [`branch`](Self::branch), the then-branch,
/// [`otherwise`](Self::otherwise), the else-branch, [`join`](Self::join):
/// only names assigned on both paths stay. The set logs the names each
/// insert added, so a branch is undone from the log rather than by copying
/// the set.
#[derive(Debug)]
pub(crate) struct Assigned<'p> {
    set: HashSet<&'p str>,
    /// Every name inserted since the start (or the last reset), in order;
    /// none of the initial names.
    log: Vec<&'p str>,
}

/// An open `if`: where its then-branch and else-branch begin in the log.
pub(crate) struct Branch {
    start: usize,
    otherwise: usize,
}

impl<'p> Assigned<'p> {
    /// Starts from `initial`, the state variables.
    pub(crate) fn new(initial: HashSet<&'p str>) -> Self {
        Self {
            set: initial,
            log: Vec::new(),
        }
    }

    pub(crate) fn contains(&self, name: &str) -> bool {
        self.set.contains(name)
    }

    pub(crate) fn insert(&mut self, name: &'p str) {
        if self.set.insert(name) {
            self.log.push(name);
        }
    }

    /// Back to the initial names, for the next handler.
    pub(crate) fn reset(&mut self) {
        for name in self.log.drain(..) {
            self.set.remove(name);
        }
    }

    /// Opens an `if`: the then-branch follows.
    pub(crate) fn branch(&self) -> Branch {
        Branch {
            start: self.log.len(),
            otherwise: self.log.len(),
        }
    }

    /// Ends the then-branch and starts the else-branch from the names
    /// assigned before the `if`.
    pub(crate) fn otherwise(&mut self, branch: &mut Branch) {
        for name in &self.log[branch.start..] {
            self.set.remove(name);
        }
        branch.otherwise = self.log.len();
    }

    /// Closes the `if`: a name either branch assigned stays assigned only
    /// if the other branch assigned it too.
    pub(crate) fn join(&mut self, branch: Branch) {
        let end = self.log.len();
        for i in branch.otherwise..end {
            let name = self.log[i];
            if self.log[branch.start..branch.otherwise].contains(&name) {
                self.log.push(name);
            } else {
                self.set.remove(name);
            }
        }
        self.log.drain(branch.start..end);
    }
}

/// One [`check`] call's walk over the handlers.
struct Checker<'p> {
    defined: Assigned<'p>,
    kind: HandlerKind,
    num_inputs: u8,
    num_outputs: u8,
    errors: Vec<CheckError>,
}

/// The names `e` reads, sorted and deduplicated, borrowed from `e`.
fn reads(e: &Expr) -> BTreeSet<&str> {
    fn walk<'p>(e: &'p Expr, into: &mut BTreeSet<&'p str>) {
        match e {
            Expr::Bool(_) | Expr::Int(_) => {}
            Expr::Var(name) => {
                into.insert(name);
            }
            Expr::Unary(_, x) => walk(x, into),
            Expr::Binary(_, l, r) => {
                walk(l, into);
                walk(r, into);
            }
        }
    }
    let mut into = BTreeSet::new();
    walk(e, &mut into);
    into
}

impl<'p> Checker<'p> {
    /// Whether reading `name` here is an error.
    fn bad_read(&self, name: &str) -> bool {
        if let Some(port) = input_port(name) {
            self.kind == HandlerKind::Tick || port >= self.num_inputs
        } else if let Some(port) = output_port(name) {
            port >= self.num_outputs || !self.defined.contains(name)
        } else {
            !self.defined.contains(name)
        }
    }

    /// Whether `e` reads any name [`bad_read`](Self::bad_read) rejects.
    fn any_bad_read(&self, e: &Expr) -> bool {
        match e {
            Expr::Bool(_) | Expr::Int(_) => false,
            Expr::Var(name) => self.bad_read(name),
            Expr::Unary(_, x) => self.any_bad_read(x),
            Expr::Binary(_, l, r) => self.any_bad_read(l) || self.any_bad_read(r),
        }
    }

    /// Reports each bad name `e` reads once, in name order. A clean
    /// expression (the usual case) is only walked.
    fn expr(&mut self, e: &Expr) {
        if !self.any_bad_read(e) {
            return;
        }
        for name in reads(e) {
            if let Some(port) = input_port(name) {
                if self.kind == HandlerKind::Tick {
                    self.errors.push(CheckError::InputReadInTick { port });
                } else if port >= self.num_inputs {
                    self.errors.push(CheckError::InputOutOfRange {
                        port,
                        arity: self.num_inputs,
                    });
                }
            } else if let Some(port) = output_port(name) {
                if port >= self.num_outputs {
                    self.errors.push(CheckError::OutputOutOfRange {
                        port,
                        arity: self.num_outputs,
                    });
                } else if !self.defined.contains(name) {
                    self.errors
                        .push(CheckError::PossiblyUndefined { name: name.into() });
                }
            } else if !self.defined.contains(name) {
                self.errors
                    .push(CheckError::PossiblyUndefined { name: name.into() });
            }
        }
    }

    fn body(&mut self, body: &'p [Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                    self.expr(e);
                    if let Some(port) = input_port(name) {
                        self.errors.push(CheckError::AssignToInput { port });
                    } else if let Some(port) = output_port(name) {
                        if port >= self.num_outputs {
                            self.errors.push(CheckError::OutputOutOfRange {
                                port,
                                arity: self.num_outputs,
                            });
                        }
                    }
                    self.defined.insert(name);
                }
                Stmt::If(cond, then_body, else_body) => {
                    self.expr(cond);
                    // Definite assignment: only names assigned on *both*
                    // branches are defined afterwards.
                    let mut branch = self.defined.branch();
                    self.body(then_body);
                    self.defined.otherwise(&mut branch);
                    self.body(else_body);
                    self.defined.join(branch);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str, ni: u8, no: u8) -> Vec<CheckError> {
        check(&parse(src).unwrap(), ni, no)
    }

    #[test]
    fn valid_programs_pass() {
        assert!(check_src("on input { out0 = in0 && in1; }", 2, 1).is_empty());
        assert!(check_src(
            "state q = false; state p = false; on input { if (in0 && !p) { q = !q; } p = in0; out0 = q; }",
            1,
            1
        )
        .is_empty());
        assert!(check_src("", 0, 0).is_empty());
    }

    #[test]
    fn duplicate_handlers_flagged() {
        let errs = check_src("on input { } on input { }", 1, 1);
        assert!(errs.contains(&CheckError::DuplicateHandler {
            kind: HandlerKind::Input
        }));
    }

    #[test]
    fn port_ranges_enforced() {
        let errs = check_src("on input { out0 = in2; }", 2, 1);
        assert!(errs.contains(&CheckError::InputOutOfRange { port: 2, arity: 2 }));
        let errs = check_src("on input { out1 = in0; }", 1, 1);
        assert!(errs.contains(&CheckError::OutputOutOfRange { port: 1, arity: 1 }));
    }

    #[test]
    fn assign_to_input_flagged() {
        let errs = check_src("on input { in0 = true; }", 1, 1);
        assert!(errs.contains(&CheckError::AssignToInput { port: 0 }));
    }

    #[test]
    fn undefined_reads_flagged() {
        let errs = check_src("on input { out0 = ghost; }", 1, 1);
        assert!(errs.contains(&CheckError::PossiblyUndefined {
            name: "ghost".into()
        }));
    }

    #[test]
    fn undefined_reads_are_reported_sorted_once_each() {
        let errs = check_src(
            "on input { out0 = zeta || alpha && zeta || in0 && mid; }",
            1,
            1,
        );
        let undefined = |name: &str| CheckError::PossiblyUndefined { name: name.into() };
        assert_eq!(
            errs,
            [undefined("alpha"), undefined("mid"), undefined("zeta")]
        );
        let texts: Vec<String> = errs.iter().map(ToString::to_string).collect();
        assert_eq!(
            texts,
            [
                "variable `alpha` may be read before assignment",
                "variable `mid` may be read before assignment",
                "variable `zeta` may be read before assignment",
            ]
        );
    }

    #[test]
    fn branch_definition_requires_both_arms() {
        // x only defined in the then-branch: flagged.
        let errs = check_src("on input { if (in0) { x = 1; } out0 = x > 0; }", 1, 1);
        assert!(errs.contains(&CheckError::PossiblyUndefined { name: "x".into() }));
        // Defined in both arms: fine.
        let errs = check_src(
            "on input { if (in0) { x = 1; } else { x = 2; } out0 = x > 0; }",
            1,
            1,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn output_readback_requires_prior_assignment() {
        let errs = check_src("on input { out1 = !out0; out0 = in0; }", 1, 2);
        assert!(errs.contains(&CheckError::PossiblyUndefined {
            name: "out0".into()
        }));
        let errs = check_src("on input { out0 = in0; out1 = !out0; }", 1, 2);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn state_initializers_must_be_constant() {
        let errs = check_src("state a = b + 1; on input { }", 0, 0);
        assert!(matches!(
            &errs[0],
            CheckError::NonConstantStateInit { name, reference } if name == "a" && reference == "b"
        ));
        // Prior states are allowed.
        assert!(check_src("state a = 1; state b = a + 1;", 0, 0).is_empty());
        // Self-reference is not.
        let errs = check_src("state a = a + 1;", 0, 0);
        assert!(!errs.is_empty());
    }

    #[test]
    fn duplicate_state_flagged() {
        let errs = check_src("state a = 1; state a = 2;", 0, 0);
        assert!(errs.contains(&CheckError::DuplicateState { name: "a".into() }));
    }

    #[test]
    fn tick_cannot_read_inputs() {
        let errs = check_src("on tick { out0 = in0; }", 1, 1);
        assert!(errs.contains(&CheckError::InputReadInTick { port: 0 }));
    }

    #[test]
    fn error_messages_display() {
        for e in check_src(
            "on tick { out0 = in0; } on input { in0 = true; out3 = ghost; }",
            1,
            1,
        ) {
            assert!(!e.to_string().is_empty());
        }
    }
}
