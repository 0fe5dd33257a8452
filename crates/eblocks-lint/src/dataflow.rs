//! Abstract interpretation of behavior programs on a finite value-set
//! domain, plus its propagation across a design's wires.
//!
//! # The abstract domain
//!
//! Every signal — a state variable, an input port, an output port — is
//! approximated by a [`ValueSet`]: either the *finite set* of concrete
//! [`Value`]s it may hold, or [`ValueSet::Any`] (⊤, no claim).
//! The empty set is ⊥: the signal provably never carries a value (an
//! output port that is never written, a branch that never runs).
//!
//! The sets form a lattice ordered by inclusion with `Any` on top:
//!
//! ```text
//! ⊥ = {}  ⊑  {v}  ⊑  {v, w}  ⊑ … ⊑  Any = ⊤
//! ```
//!
//! [`ValueSet::join`] is set union, *widened*: a union whose cardinality
//! would exceed [`WIDENING_CAP`] collapses to `Any`. The cap bounds the
//! lattice height — any chain from ⊥ to ⊤ has at most `WIDENING_CAP + 2`
//! elements — which is what makes the fixpoint below terminate.
//!
//! [`eval`] lifts the behavior language's [operator
//! table](eblocks_behavior::ast#the-operator-table) to these sets: it
//! applies each operator to every combination of members, so it computes
//! what the interpreter computes by construction.
//!
//! # The fixpoint
//!
//! [`analyze_program`] abstractly executes every handler against a
//! *persistent* map of state-variable sets, seeded with the (abstract)
//! initializer values. Each round re-runs every handler on the current
//! map and joins the resulting state values back in; assignments inside
//! `if` branches are joined across the branches a condition may take.
//! Because the per-variable sets only ever grow under join and the
//! lattice height is bounded by the widening cap, the loop reaches a
//! fixed point after at most `vars × (WIDENING_CAP + 2)` changing rounds
//! — no iteration cap or fuel is needed for termination, though a
//! defensive one is kept for belt-and-braces.
//!
//! A final recording pass over the converged map collects the facts the
//! rule layer consumes: per-output value sets (⊥ = the port provably
//! never fires) and a verdict for every *reachable* `if` condition
//! (reachable meaning some path the abstraction admits arrives there).
//!
//! # Cross-block propagation
//!
//! [`analyze_design`] walks an acyclic design in topological order and
//! feeds each block's abstract *output* sets forward as the next block's
//! *input* sets. A wired input port sees the join of its drivers' output
//! sets plus `false` — the simulator latches undelivered inputs to
//! `Bool(false)`, so a handler can observe the latched default before the
//! first packet arrives. Sensors are modeled as `Any` (the environment is
//! unconstrained), `comm` relays as pass-through (`Any` when undriven), and
//! programmable blocks without an attached program as `Any` on every
//! output.
//!
//! A compute block's facts depend only on its [`ComputeKind`] and the sets
//! arriving on its inputs, and those pairs repeat across designs far more
//! than within one. The 9,663 generated designs of Table 2's sweep (3–45
//! inner blocks) hold 118,886 compute blocks; a memo per design would
//! still run 90,708 analyses, yet every block's pair is one of just 78.
//! So the facts live in one process-wide [`SharedTable`] keyed by
//! `(kind, input sets)`, bounded like the library's program table at
//! [`TABLE_CAPACITY`](library::TABLE_CAPACITY) entries and cleared when
//! full, and [`DesignFacts::programs`] shares them through an [`Arc`].
//! Programs attached to programmable blocks belong to the caller and are
//! analyzed once per block.

use eblocks_behavior::library::{self, SharedTable};
use eblocks_behavior::{BinOp, EvalError, Expr, HandlerKind, Program, Stmt, Ty, Value};
use eblocks_core::{BlockId, BlockKind, ComputeKind, Design};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, LazyLock};

/// Maximum cardinality a [`ValueSet`] may reach before a join widens it
/// to [`ValueSet::Any`]. Bounds the lattice height (and therefore the
/// fixpoint iteration count); 8 keeps every shipped block precise while
/// collapsing unbounded counters immediately.
pub const WIDENING_CAP: usize = 8;

/// The set of values a signal may hold: a finite enumeration or `Any`
/// (⊤). `Values(∅)` is ⊥ — the signal provably never carries a value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueSet {
    /// No claim: the signal may hold anything (⊤).
    Any,
    /// Exactly these values are possible (∅ = ⊥, provably none).
    Values(BTreeSet<Value>),
}

impl ValueSet {
    /// ⊥: no value is possible.
    #[must_use]
    pub fn bottom() -> Self {
        Self::Values(BTreeSet::new())
    }

    /// The singleton set `{v}`.
    #[must_use]
    pub fn just(v: Value) -> Self {
        Self::Values(std::iter::once(v).collect())
    }

    /// The set `{false, true}`.
    #[must_use]
    pub fn bools() -> Self {
        Self::Values(
            [Value::Bool(false), Value::Bool(true)]
                .into_iter()
                .collect(),
        )
    }

    /// Every value of type `ty` the domain can name: `{false, true}`, or
    /// `Any` for the integers.
    fn of_type(ty: Ty) -> Self {
        match ty {
            Ty::Bool => Self::bools(),
            Ty::Int => Self::Any,
        }
    }

    /// The values among `results`, widened past [`WIDENING_CAP`]; a fault
    /// contributes no value.
    fn of_results(results: impl IntoIterator<Item = Result<Value, EvalError>>) -> Self {
        let mut out = Self::bottom();
        for v in results.into_iter().flatten() {
            out.insert(v);
            if out == Self::Any {
                break;
            }
        }
        out
    }

    /// True for ⊥ (the empty enumeration).
    #[must_use]
    pub fn is_bottom(&self) -> bool {
        matches!(self, Self::Values(s) if s.is_empty())
    }

    /// If the set is exactly one value, that value.
    #[must_use]
    pub fn as_singleton(&self) -> Option<Value> {
        match self {
            Self::Values(s) if s.len() == 1 => s.iter().next().copied(),
            _ => None,
        }
    }

    /// Least upper bound: set union, widened to `Any` past
    /// [`WIDENING_CAP`].
    #[must_use]
    pub fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Self::Any, _) | (_, Self::Any) => Self::Any,
            (Self::Values(a), Self::Values(b)) => {
                let union: BTreeSet<Value> = a.union(b).copied().collect();
                if union.len() > WIDENING_CAP {
                    Self::Any
                } else {
                    Self::Values(union)
                }
            }
        }
    }

    /// `(may be true, may be false)` when used as a branch condition.
    /// Non-boolean members are runtime errors, not truth values; `Any`
    /// admits both.
    #[must_use]
    pub fn truth(&self) -> (bool, bool) {
        match self {
            Self::Any => (true, true),
            Self::Values(s) => (
                s.contains(&Value::Bool(true)),
                s.contains(&Value::Bool(false)),
            ),
        }
    }

    fn insert(&mut self, v: Value) {
        if let Self::Values(s) = self {
            s.insert(v);
            if s.len() > WIDENING_CAP {
                *self = Self::Any;
            }
        }
    }
}

impl fmt::Display for ValueSet {
    /// `any`, or `{false}`, `{0, 1, 2}` — members in canonical order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Any => f.write_str("any"),
            Self::Values(s) => {
                f.write_str("{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// One step on the path from a handler body to a nested statement —
/// used to locate a [`CondFact`]'s `if` in a span table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathElem {
    /// Index into the current statement list.
    Stmt(usize),
    /// Descend into the preceding `if`'s then-branch.
    Then,
    /// Descend into the preceding `if`'s else-branch.
    Else,
}

/// The abstract verdict on one reachable `if` condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondFact {
    /// Index of the handler the `if` lives in.
    pub handler: usize,
    /// The handler's kind (for display).
    pub kind: HandlerKind,
    /// Path from the handler body to the `if` statement.
    pub path: Vec<PathElem>,
    /// The condition, pretty-printed.
    pub display: String,
    /// The condition may evaluate to `true`.
    pub may_true: bool,
    /// The condition may evaluate to `false`.
    pub may_false: bool,
    /// The condition reads no variables (syntactically constant).
    pub syntactic: bool,
    /// Number of statements in the then-branch.
    pub then_len: usize,
    /// Number of statements in the else-branch.
    pub else_len: usize,
}

impl CondFact {
    /// Decided one way: the condition may be true but never false.
    #[must_use]
    pub fn always_true(&self) -> bool {
        self.may_true && !self.may_false
    }

    /// Decided the other way: may be false but never true.
    #[must_use]
    pub fn always_false(&self) -> bool {
        self.may_false && !self.may_true
    }
}

/// Everything [`analyze_program`] learns about one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramFacts {
    /// Converged per-state value sets (declared states only).
    pub states: BTreeMap<String, ValueSet>,
    /// Per-output value sets, indexed by port; ⊥ = never written on any
    /// admitted path.
    pub outputs: Vec<ValueSet>,
    /// A verdict for every reachable `if` condition.
    pub conds: Vec<CondFact>,
}

type Env = BTreeMap<String, ValueSet>;

/// Abstractly interprets `program` given per-input-port value sets and
/// returns the converged facts. `inputs.len()` is the block's input
/// arity; `num_outputs` its output arity.
///
/// The analysis is total: programs the semantic checker rejects still
/// analyze (unknown variables read as `Any`, error-only paths contribute
/// nothing), so it is safe to run alongside the checker.
#[must_use]
pub fn analyze_program(program: &Program, inputs: &[ValueSet], num_outputs: u8) -> ProgramFacts {
    // Seed: abstract initializer values, in declaration order (later
    // initializers may read earlier states).
    let mut persistent: Env = Env::new();
    for st in &program.states {
        let v = eval(&st.init, &persistent);
        persistent.insert(st.name.clone(), v);
    }
    let state_names: BTreeSet<&str> = program.states.iter().map(|s| s.name.as_str()).collect();

    // Chaotic iteration to a fixed point. Terminates because each state
    // set only grows under join and the lattice height is capped (see
    // module docs); the fuel is purely defensive.
    let mut fuel = state_names.len() * (WIDENING_CAP + 2) + 8;
    loop {
        let mut changed = false;
        for handler in &program.handlers {
            let mut env = seeded_env(&persistent, inputs);
            let mut sink = Vec::new();
            exec_stmts(&handler.body, &mut env, &mut Vec::new(), None, &mut sink);
            for (name, set) in &env {
                if !state_names.contains(name.as_str()) {
                    continue;
                }
                let joined = persistent[name.as_str()].join(set);
                if joined != persistent[name.as_str()] {
                    persistent.insert(name.clone(), joined);
                    changed = true;
                }
            }
        }
        fuel = fuel.saturating_sub(1);
        if !changed || fuel == 0 {
            break;
        }
    }

    // Recording pass over the converged states: output sets and
    // condition verdicts.
    let mut outputs = vec![ValueSet::bottom(); num_outputs as usize];
    let mut conds = Vec::new();
    for (idx, handler) in program.handlers.iter().enumerate() {
        let mut env = seeded_env(&persistent, inputs);
        exec_stmts(
            &handler.body,
            &mut env,
            &mut Vec::new(),
            Some((idx, handler.kind)),
            &mut conds,
        );
        for (port, out) in outputs.iter_mut().enumerate() {
            if let Some(set) = env.get(&format!("out{port}")) {
                *out = out.join(set);
            }
        }
    }

    let states = program
        .states
        .iter()
        .map(|s| (s.name.clone(), persistent[&s.name].clone()))
        .collect();
    ProgramFacts {
        states,
        outputs,
        conds,
    }
}

fn seeded_env(persistent: &Env, inputs: &[ValueSet]) -> Env {
    let mut env = persistent.clone();
    for (port, set) in inputs.iter().enumerate() {
        env.insert(format!("in{port}"), set.clone());
    }
    env
}

/// Abstractly executes a statement list, mutating `env`. When `record`
/// is set, pushes a [`CondFact`] for every `if` encountered on an
/// admitted path.
fn exec_stmts(
    stmts: &[Stmt],
    env: &mut Env,
    path: &mut Vec<PathElem>,
    record: Option<(usize, HandlerKind)>,
    conds: &mut Vec<CondFact>,
) {
    for (i, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::Let(name, e) | Stmt::Assign(name, e) => {
                let v = eval(e, env);
                env.insert(name.clone(), v);
            }
            Stmt::If(cond, then_body, else_body) => {
                let cv = eval(cond, env);
                let (may_true, may_false) = cv.truth();
                if let Some((handler, kind)) = record {
                    let mut vars = BTreeSet::new();
                    cond.vars(&mut vars);
                    let mut p = path.clone();
                    p.push(PathElem::Stmt(i));
                    conds.push(CondFact {
                        handler,
                        kind,
                        path: p,
                        display: cond.to_string(),
                        may_true,
                        may_false,
                        syntactic: vars.is_empty(),
                        then_len: then_body.len(),
                        else_len: else_body.len(),
                    });
                }
                path.push(PathElem::Stmt(i));
                match (may_true, may_false) {
                    (true, true) => {
                        let mut then_env = env.clone();
                        path.push(PathElem::Then);
                        exec_stmts(then_body, &mut then_env, path, record, conds);
                        path.pop();
                        path.push(PathElem::Else);
                        exec_stmts(else_body, env, path, record, conds);
                        path.pop();
                        join_env(env, &then_env);
                    }
                    (true, false) => {
                        path.push(PathElem::Then);
                        exec_stmts(then_body, env, path, record, conds);
                        path.pop();
                    }
                    (false, true) => {
                        path.push(PathElem::Else);
                        exec_stmts(else_body, env, path, record, conds);
                        path.pop();
                    }
                    // The condition never evaluates to a boolean at all:
                    // every concrete run errors here, so neither branch's
                    // effects are observable.
                    (false, false) => {}
                }
                path.pop();
            }
        }
    }
}

/// Joins `other` into `env`. A variable present on only one side keeps
/// the present value: the absent side either kept the pre-branch binding
/// (already in both clones) or reads it unbound, which is a runtime
/// error and contributes nothing observable.
fn join_env(env: &mut Env, other: &Env) {
    for (name, set) in other {
        match env.get(name) {
            Some(cur) => {
                let joined = cur.join(set);
                env.insert(name.clone(), joined);
            }
            None => {
                env.insert(name.clone(), set.clone());
            }
        }
    }
}

/// Abstract evaluation of an expression: each operator of the [operator
/// table](eblocks_behavior::ast#the-operator-table) applied to every
/// combination of its operands' members, a faulting combination
/// contributing nothing. An unconstrained operand makes the result any
/// value of the operator's result type. `&&`/`||` keep the interpreter's
/// short-circuit: the right side counts only where the left one's truth
/// values let it run. Reads of unbound variables evaluate to `Any` (the
/// checker reports them; the abstraction just stays sound).
#[must_use]
pub fn eval(expr: &Expr, env: &Env) -> ValueSet {
    match expr {
        Expr::Bool(b) => ValueSet::just(Value::Bool(*b)),
        Expr::Int(i) => ValueSet::just(Value::Int(*i)),
        Expr::Var(name) => env.get(name).cloned().unwrap_or(ValueSet::Any),
        Expr::Unary(op, e) => match eval(e, env) {
            ValueSet::Any => ValueSet::of_type(op.ty()),
            ValueSet::Values(s) => ValueSet::of_results(s.into_iter().map(|v| op.apply(v))),
        },
        Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => short_circuit(*op, l, r, env),
        Expr::Binary(op, l, r) => match (eval(l, env), eval(r, env)) {
            (ValueSet::Values(ls), ValueSet::Values(rs)) => ValueSet::of_results(
                ls.iter()
                    .flat_map(|&a| rs.iter().map(move |&b| op.apply(a, b))),
            ),
            _ => ValueSet::of_type(op.result()),
        },
    }
}

/// `&&` or `||`, branching on the left side's truth values: a left side
/// of `false` decides `&&` and one of `true` decides `||`; any other truth
/// value passes the right side's truth values through.
fn short_circuit(op: BinOp, l: &Expr, r: &Expr, env: &Env) -> ValueSet {
    let decider = op == BinOp::Or;
    let (may_true, may_false) = eval(l, env).truth();
    let (decides, passes) = if decider {
        (may_true, may_false)
    } else {
        (may_false, may_true)
    };
    let mut out = ValueSet::bottom();
    if decides {
        out.insert(Value::Bool(decider));
    }
    if passes {
        let (rt, rf) = eval(r, env).truth();
        if rt {
            out.insert(Value::Bool(true));
        }
        if rf {
            out.insert(Value::Bool(false));
        }
    }
    out
}

/// If every read of input port `port` in `program` is an equality
/// comparison against a literal, returns the set of matched literals —
/// the values the receiver's handlers react to. Returns `None` when the
/// port is read any other way (raw truth test, arithmetic, ordered
/// comparison, re-assignment source) or never read at all: no claim can
/// be made then.
#[must_use]
pub fn matched_values(program: &Program, port: u8) -> Option<BTreeSet<Value>> {
    let name = format!("in{port}");
    let mut matched = BTreeSet::new();
    let mut reads = 0usize;
    let mut opaque = false;
    for handler in &program.handlers {
        for stmt in &handler.body {
            match_stmt(stmt, &name, &mut matched, &mut reads, &mut opaque);
        }
    }
    for st in &program.states {
        match_expr(&st.init, &name, &mut matched, &mut reads, &mut opaque);
    }
    (!opaque && reads > 0).then_some(matched)
}

fn match_stmt(
    stmt: &Stmt,
    name: &str,
    matched: &mut BTreeSet<Value>,
    reads: &mut usize,
    opaque: &mut bool,
) {
    match stmt {
        Stmt::Let(_, e) | Stmt::Assign(_, e) => match_expr(e, name, matched, reads, opaque),
        Stmt::If(cond, then_body, else_body) => {
            match_expr(cond, name, matched, reads, opaque);
            for s in then_body.iter().chain(else_body) {
                match_stmt(s, name, matched, reads, opaque);
            }
        }
    }
}

fn match_expr(
    expr: &Expr,
    name: &str,
    matched: &mut BTreeSet<Value>,
    reads: &mut usize,
    opaque: &mut bool,
) {
    // An equality test of the port against a literal is a "match"; any
    // other appearance of the port makes the whole port opaque.
    if let Expr::Binary(BinOp::Eq, l, r) = expr {
        let lit = match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), e) | (e, Expr::Var(v)) if v == name => e.literal(),
            _ => None,
        };
        if let Some(v) = lit {
            matched.insert(v);
            *reads += 1;
            return;
        }
    }
    match expr {
        Expr::Bool(_) | Expr::Int(_) => {}
        Expr::Var(v) => {
            if v == name {
                *reads += 1;
                *opaque = true;
            }
        }
        Expr::Unary(_, e) => match_expr(e, name, matched, reads, opaque),
        Expr::Binary(_, l, r) => {
            match_expr(l, name, matched, reads, opaque);
            match_expr(r, name, matched, reads, opaque);
        }
    }
}

/// Cross-block facts for one design, from [`analyze_design`].
#[derive(Debug, Clone, Default)]
pub struct DesignFacts {
    /// `(block, output port)` → the set of values that port can emit.
    pub outputs: BTreeMap<(BlockId, u8), ValueSet>,
    /// `(block, input port)` → the set of values arriving there
    /// (drivers' outputs joined with the latched `false` default);
    /// `Any` for undriven ports.
    pub incoming: BTreeMap<(BlockId, u8), ValueSet>,
    /// Per-block program facts, for blocks whose behavior is known (all
    /// `compute` blocks via the library; programmable blocks only when a
    /// program was supplied). Compute blocks share theirs with every block
    /// of the same kind under the same input sets.
    pub programs: BTreeMap<BlockId, Arc<ProgramFacts>>,
}

/// Library kinds' facts per `(kind, input sets)`: see the module docs.
static LIBRARY_FACTS: LazyLock<SharedTable<(ComputeKind, Vec<ValueSet>), ProgramFacts>> =
    LazyLock::new(SharedTable::default);

/// The facts of `kind`'s library program under `inputs`, analyzed once per
/// process (see the module docs).
fn library_facts(kind: ComputeKind, inputs: Vec<ValueSet>) -> Arc<ProgramFacts> {
    LIBRARY_FACTS.get_or_build((kind, inputs), |(kind, inputs)| {
        let code = library::code_for(*kind);
        analyze_program(code.program(), inputs, kind.num_outputs())
    })
}

/// Propagates abstract value sets through `design` in topological order.
/// `programs` optionally attaches behavior programs to programmable
/// blocks. Returns `None` when the wire graph is cyclic (the structural
/// rules report that; there is no topological order to walk).
#[must_use]
pub fn analyze_design(
    design: &Design,
    programs: &BTreeMap<BlockId, Program>,
) -> Option<DesignFacts> {
    let order = topo_order(design)?;
    let mut facts = DesignFacts::default();

    for id in order {
        let block = design.block(id).expect("ordered id");
        let kind = block.kind();
        let num_inputs = kind.num_inputs();

        // The sets arriving on each input port: drivers' outputs joined
        // with the latched default `false`; undriven ports are
        // unconstrained (the structural rules already flag them).
        let mut incoming = Vec::with_capacity(num_inputs as usize);
        for port in 0..num_inputs {
            let mut wired = false;
            let mut set = ValueSet::just(Value::Bool(false));
            for w in design.in_wires(id) {
                if w.to_port == port {
                    wired = true;
                    let from = facts
                        .outputs
                        .get(&(w.from, w.from_port))
                        .cloned()
                        .unwrap_or(ValueSet::Any);
                    set = set.join(&from);
                }
            }
            let set = if wired { set } else { ValueSet::Any };
            facts.incoming.insert((id, port), set.clone());
            incoming.push(set);
        }

        match kind {
            BlockKind::Sensor(_) => {
                // The environment is unconstrained.
                facts.outputs.insert((id, 0), ValueSet::Any);
            }
            BlockKind::Output(_) => {}
            BlockKind::Comm(_) => {
                // Behaviorally transparent relay: forwards exactly what
                // its driver sends (it only fires on receipt, so the
                // latched default never crosses it). A driver that never
                // fires makes a relay that never fires.
                let mut wired = false;
                let mut forwarded = ValueSet::bottom();
                for w in design.in_wires(id).filter(|w| w.to_port == 0) {
                    wired = true;
                    let from = facts
                        .outputs
                        .get(&(w.from, w.from_port))
                        .unwrap_or(&ValueSet::Any);
                    forwarded = forwarded.join(from);
                }
                let forwarded = if wired { forwarded } else { ValueSet::Any };
                facts.outputs.insert((id, 0), forwarded);
            }
            BlockKind::Compute(ck) => {
                let pf = library_facts(ck, incoming);
                for (port, set) in pf.outputs.iter().enumerate() {
                    facts.outputs.insert((id, port as u8), set.clone());
                }
                facts.programs.insert(id, pf);
            }
            BlockKind::Programmable(_) => match programs.get(&id) {
                Some(program) => {
                    let pf = analyze_program(program, &incoming, kind.num_outputs());
                    for (port, set) in pf.outputs.iter().enumerate() {
                        facts.outputs.insert((id, port as u8), set.clone());
                    }
                    facts.programs.insert(id, Arc::new(pf));
                }
                None => {
                    for port in 0..kind.num_outputs() {
                        facts.outputs.insert((id, port), ValueSet::Any);
                    }
                }
            },
        }
    }
    Some(facts)
}

/// Kahn's algorithm over the wire graph; `None` if a cycle remains.
fn topo_order(design: &Design) -> Option<Vec<BlockId>> {
    let ids: Vec<BlockId> = design.blocks().collect();
    let mut indegree: BTreeMap<BlockId, usize> = ids.iter().map(|&id| (id, 0)).collect();
    for id in &ids {
        for w in design.out_wires(*id) {
            *indegree.get_mut(&w.to).expect("wire target exists") += 1;
        }
    }
    let mut ready: Vec<BlockId> = ids.iter().copied().filter(|id| indegree[id] == 0).collect();
    let mut order = Vec::with_capacity(ids.len());
    while let Some(id) = ready.pop() {
        order.push(id);
        for w in design.out_wires(id) {
            let d = indegree.get_mut(&w.to).expect("wire target exists");
            *d -= 1;
            if *d == 0 {
                ready.push(w.to);
            }
        }
    }
    (order.len() == ids.len()).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_behavior::parse;

    fn any_inputs(n: usize) -> Vec<ValueSet> {
        vec![ValueSet::Any; n]
    }

    #[test]
    fn join_widens_past_the_cap() {
        let mut s = ValueSet::bottom();
        for i in 0..WIDENING_CAP as i64 {
            s.insert(Value::Int(i));
        }
        assert_eq!(s.as_singleton(), None);
        assert!(!s.is_bottom());
        let one_more = ValueSet::just(Value::Int(99));
        assert_eq!(s.join(&one_more), ValueSet::Any);
        assert_eq!(ValueSet::Any.join(&ValueSet::bottom()), ValueSet::Any);
    }

    #[test]
    fn display_is_canonical() {
        let mut s = ValueSet::bottom();
        s.insert(Value::Int(2));
        s.insert(Value::Bool(true));
        s.insert(Value::Int(0));
        assert_eq!(s.to_string(), "{true, 0, 2}");
        assert_eq!(ValueSet::Any.to_string(), "any");
        assert_eq!(ValueSet::bottom().to_string(), "{}");
    }

    #[test]
    fn constant_program_has_singleton_output() {
        let p = parse("on input { out0 = false; }").unwrap();
        let facts = analyze_program(&p, &any_inputs(2), 1);
        assert_eq!(facts.outputs[0].as_singleton(), Some(Value::Bool(false)));
    }

    #[test]
    fn unwritten_output_is_bottom() {
        let p = parse("on input { if (in0 && false) { out0 = true; } }").unwrap();
        let facts = analyze_program(&p, &[ValueSet::bools()], 1);
        assert!(facts.outputs[0].is_bottom(), "{:?}", facts.outputs[0]);
        // The absorbed conjunction is caught as an always-false condition
        // (note `in0 && !in0` would NOT be: the domain is non-relational,
        // so the two operand reads are independent).
        assert_eq!(facts.conds.len(), 1);
        assert!(facts.conds[0].always_false());
    }

    #[test]
    fn toggle_under_constant_false_input_is_frozen() {
        let toggle = "state q = false; state prev = false;\n\
                      on input { if (in0 && !prev) { q = !q; } prev = in0; out0 = q; }";
        let p = parse(toggle).unwrap();
        let frozen = analyze_program(&p, &[ValueSet::just(Value::Bool(false))], 1);
        assert_eq!(frozen.states["q"].as_singleton(), Some(Value::Bool(false)));
        assert!(frozen.conds[0].always_false());
        assert_eq!(frozen.outputs[0].as_singleton(), Some(Value::Bool(false)));

        // Under a live input the toggle truly toggles: both values reach
        // the state and the output, and the condition stays undecided.
        let live = analyze_program(&p, &[ValueSet::bools()], 1);
        assert_eq!(live.states["q"], ValueSet::bools());
        assert_eq!(live.outputs[0], ValueSet::bools());
        assert!(live.conds[0].may_true && live.conds[0].may_false);
    }

    #[test]
    fn counters_widen_to_any() {
        let p = parse("state n = 0; on tick { n = n + 1; }").unwrap();
        let facts = analyze_program(&p, &[], 0);
        assert_eq!(facts.states["n"], ValueSet::Any);
    }

    #[test]
    fn branch_join_accumulates_both_arms() {
        let p = parse("on input { if (in0) { out0 = 1; } else { out0 = 2; } }").unwrap();
        let facts = analyze_program(&p, &[ValueSet::bools()], 1);
        let expect: BTreeSet<Value> = [Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(facts.outputs[0], ValueSet::Values(expect));
    }

    #[test]
    fn arithmetic_mirrors_checked_semantics() {
        // i64::MAX + 1 overflows: the error path contributes nothing, so
        // only the in-range sum remains.
        let p = parse(&format!(
            "on input {{ if (in0) {{ out0 = {} + 1; }} else {{ out0 = 1 + 1; }} }}",
            i64::MAX
        ))
        .unwrap();
        let facts = analyze_program(&p, &[ValueSet::bools()], 1);
        assert_eq!(facts.outputs[0].as_singleton(), Some(Value::Int(2)));

        // Division by zero likewise vanishes.
        let p = parse("on input { out0 = 1 / 0; }").unwrap();
        let facts = analyze_program(&p, &any_inputs(1), 1);
        assert!(facts.outputs[0].is_bottom());
    }

    #[test]
    fn short_circuit_truth_tables() {
        let t = |src: &str| {
            let p = parse(&format!("on input {{ out0 = {src}; }}")).unwrap();
            let facts = analyze_program(&p, &[], 1);
            facts.outputs[0].clone()
        };
        assert_eq!(t("true && false").as_singleton(), Some(Value::Bool(false)));
        assert_eq!(t("true || false").as_singleton(), Some(Value::Bool(true)));
        assert_eq!(
            t("false && (1 / 0 == 0)").as_singleton(),
            Some(Value::Bool(false))
        );
        assert_eq!(
            t("true || (1 / 0 == 0)").as_singleton(),
            Some(Value::Bool(true))
        );
        // Mixed-type equality is a runtime error pair: no value.
        assert!(t("1 == true").is_bottom());
    }

    #[test]
    fn matched_values_extraction() {
        let p =
            parse("on input { if (in0 == 2) { out0 = true; } if (3 == in0) { out0 = false; } }")
                .unwrap();
        let m = matched_values(&p, 0).unwrap();
        let expect: BTreeSet<Value> = [Value::Int(2), Value::Int(3)].into_iter().collect();
        assert_eq!(m, expect);

        // A raw truth read makes the port opaque.
        let p = parse("on input { if (in0 == 2) { out0 = in0; } }").unwrap();
        assert_eq!(matched_values(&p, 0), None);
        // Never read: no claim either.
        let p = parse("on input { out0 = true; }").unwrap();
        assert_eq!(matched_values(&p, 0), None);
    }

    /// All truth tables, every sequential block, and the timed blocks at
    /// small tick counts and at the extremes of `ticks`.
    fn all_kinds() -> Vec<ComputeKind> {
        use eblocks_core::{TruthTable2, TruthTable3};
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

    /// Input facts for a block with `arity` inputs: the whole port uniform,
    /// then odd sets on `in0` with the other ports unconstrained.
    fn input_facts(arity: u8) -> Vec<Vec<ValueSet>> {
        let all = |set: ValueSet| vec![set; arity as usize];
        let on_in0 = |set: ValueSet| {
            let mut inputs = all(ValueSet::Any);
            inputs[0] = set;
            inputs
        };
        let values = |vs: &[Value]| ValueSet::Values(vs.iter().copied().collect());
        vec![
            all(ValueSet::Any),
            all(ValueSet::bools()),
            all(ValueSet::just(Value::Bool(false))),
            all(ValueSet::just(Value::Bool(true))),
            on_in0(ValueSet::bottom()),
            on_in0(values(&[Value::Int(0), Value::Int(1), Value::Int(2)])),
            on_in0(values(&[Value::Bool(true), Value::Int(3)])),
        ]
    }

    fn fresh_facts(kind: ComputeKind, inputs: &[ValueSet]) -> ProgramFacts {
        analyze_program(&library::program_for(kind), inputs, kind.num_outputs())
    }

    #[test]
    fn every_library_program_analyzes_under_any() {
        for kind in all_kinds() {
            let program = library::program_for(kind);
            let inputs = vec![ValueSet::Any; kind.num_inputs() as usize];
            let facts = analyze_program(&program, &inputs, kind.num_outputs());
            for (port, out) in facts.outputs.iter().enumerate() {
                assert!(
                    !out.is_bottom(),
                    "{kind:?} out{port} must be able to fire under unconstrained inputs"
                );
            }
        }
    }

    #[test]
    fn shared_facts_match_a_fresh_analysis() {
        for kind in all_kinds() {
            for inputs in input_facts(kind.num_inputs()) {
                let fresh = fresh_facts(kind, &inputs);
                // The first lookup may build, the second must hit: both
                // equal the fresh analysis.
                for _ in 0..2 {
                    let shared = library_facts(kind, inputs.clone());
                    assert_eq!(*shared, fresh, "{kind:?} under {inputs:?}");
                }
            }
        }
    }

    #[test]
    fn facts_table_stays_within_its_capacity() {
        let any = || vec![ValueSet::Any];
        let mut held = Vec::new();
        for ticks in 1..=library::TABLE_CAPACITY as u16 + 100 {
            held.push(library_facts(ComputeKind::PulseGen { ticks }, any()));
            assert!(LIBRARY_FACTS.len() <= library::TABLE_CAPACITY);
        }
        // Entries cleared out of the table live on in their holders, and a
        // rebuild equals what was dropped.
        let first = ComputeKind::PulseGen { ticks: 1 };
        assert_eq!(*held[0], fresh_facts(first, &any()));
        assert_eq!(library_facts(first, any()), held[0]);
    }

    #[test]
    fn facts_lookups_from_many_threads_agree() {
        // Keys no other test uses, so the threads race to build them.
        let mut keys: Vec<(ComputeKind, Vec<ValueSet>)> = (50_000..50_064)
            .map(|ticks| (ComputeKind::Delay { ticks }, vec![ValueSet::bools()]))
            .collect();
        keys.extend(
            all_kinds()
                .into_iter()
                .map(|kind| (kind, vec![ValueSet::Any; kind.num_inputs() as usize])),
        );
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<Arc<ProgramFacts>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        keys.iter()
                            .map(|(kind, inputs)| library_facts(*kind, inputs.clone()))
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let expected: Vec<Arc<ProgramFacts>> = keys
            .iter()
            .map(|(kind, inputs)| Arc::new(fresh_facts(*kind, inputs)))
            .collect();
        for facts in &seen {
            assert_eq!(facts, &expected);
        }
    }
}
