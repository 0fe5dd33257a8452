//! Slot-resolved interpreter — the simulator's evaluator for behavior
//! syntax trees ("The simulator's interpreter evaluates the tree in the same
//! manner as a non-programmable block", §3.3).
//!
//! Evaluation is split in two. [`Compiled::new`] walks a [`Program`] once
//! and resolves every name: `inK` and `outK` become port indices and every
//! other name a dense slot. A [`Machine`] borrows the compiled tree and owns
//! only its slots — the state values, the handler's locals and its outputs,
//! in one buffer — so any number of machines share one compilation, and a
//! handler call neither hashes a name nor allocates.
//!
//! Resolution keeps the language's runtime semantics exactly:
//!
//! * scoping is dynamic: `let x` binds a handler local that shadows a
//!   same-named state variable from that statement until the handler
//!   returns, also when the `let` sits inside an `if` branch;
//! * an assignment updates the bound local, else the state variable,
//!   creating it when no `state` declaration names it;
//! * `&&` and `||` short-circuit;
//! * an output port reads back the value written to it earlier in the same
//!   call; reading one not yet written is [`EvalError::UndefinedVariable`].
//!
//! A tick reads no inputs, so its outputs and its effect on the state are a
//! function of the state alone. A tick that leaves the state as it found it
//! has therefore reached a fixpoint: until another call changes the state,
//! every further tick would repeat it exactly, and [`Machine::on_tick`]
//! hands back the outputs still in the buffer instead of re-running it. An
//! idle pulse generator or delay, and a merged program re-evaluating settled
//! member trees, spend most ticks there.
//!
//! [`Machine::tick_settled`] reports that fixpoint to the caller. A whole
//! simulation run uses it to park the block: a repeated tick would send the
//! outputs the block already sent, which the packet protocol's change
//! detection drops, so the run stops scheduling its ticks until an input
//! call ends the fixpoint (see `eblocks-sim`'s execution model). A stepped
//! co-simulation keeps ticking and lands on the fast path above instead.

use crate::ast::{input_port, output_port, BinOp, Expr, Handler, HandlerKind, Program, Stmt, UnOp};
use crate::value::{EvalError, Value};
use std::collections::HashMap;
use std::fmt;

/// Index of a name in [`Compiled::names`], which is also its state slot.
type Slot = u32;

/// A run of a machine's slots.
type Slots<'m> = &'m mut [Option<Value>];

/// A variable reference with its name resolved.
#[derive(Debug, Clone, Copy)]
enum Var {
    /// Input port `inK` (read only).
    Input(u8),
    /// Output port `outK`; `name` is the slot of the name as written, for
    /// the error when it is read before being written.
    Output { port: u8, name: Slot },
    /// A name no `let` binds: always its state slot.
    State(Slot),
    /// A `let`-bound name: the local while one is bound in this call, else
    /// the state slot.
    Scoped { local: u32, slot: Slot },
}

/// A compiled expression.
#[derive(Debug, Clone)]
enum Node {
    Const(Value),
    Var(Var),
    Unary(UnOp, Box<Node>),
    Binary(BinOp, Box<Node>, Box<Node>),
}

/// A compiled statement.
#[derive(Debug, Clone)]
enum Step {
    Let(u32, Node),
    Assign(Var, Node),
    If(Node, Vec<Step>, Vec<Step>),
}

/// A behavior [`Program`] with every name resolved, ready to run on any
/// number of [`Machine`]s.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Every name used as a variable, by slot.
    names: Vec<String>,
    /// State initializers, in declaration order.
    inits: Vec<(Slot, Node)>,
    input: Option<Vec<Step>>,
    tick: Option<Vec<Step>>,
    /// Number of distinct `let`-bound names.
    locals: usize,
    /// One past the highest output port the handlers name.
    outputs: usize,
}

impl Compiled {
    /// Compiles `program`. Any program compiles; faults surface when a
    /// machine runs it, exactly where the source would fault.
    pub fn new(program: &Program) -> Self {
        let mut c = Compiler::default();
        // Bind locals first, so every read and write of a name some `let`
        // binds knows to look for the local.
        for name in program.handlers.iter().flat_map(Handler::locals) {
            let next = c.locals.len() as u32;
            c.locals.entry(name).or_insert(next);
        }
        let inits = program
            .states
            .iter()
            .map(|decl| (c.slot(&decl.name), c.expr(&decl.init, Compiler::init_read)))
            .collect();
        let mut handler = |kind| program.handler(kind).map(|h| c.body(&h.body));
        let input = handler(HandlerKind::Input);
        let tick = handler(HandlerKind::Tick);
        Self {
            inits,
            input,
            tick,
            locals: c.locals.len(),
            outputs: c.outputs,
            names: c.names,
        }
    }

    /// Whether the program has an `on tick` handler.
    pub fn uses_tick(&self) -> bool {
        self.tick.is_some()
    }
}

/// Name resolution state for one [`Compiled::new`], keyed by names
/// borrowed from the program.
#[derive(Default)]
struct Compiler<'p> {
    names: Vec<String>,
    slots: HashMap<&'p str, Slot>,
    locals: HashMap<&'p str, u32>,
    outputs: usize,
}

impl<'p> Compiler<'p> {
    fn slot(&mut self, name: &'p str) -> Slot {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.names.len() as Slot;
        self.names.push(name.to_string());
        self.slots.insert(name, slot);
        slot
    }

    /// A plain name: its state slot, shadowed by a local if a `let` binds it.
    fn name(&mut self, name: &'p str) -> Var {
        let slot = self.slot(name);
        match self.locals.get(name) {
            Some(&local) => Var::Scoped { local, slot },
            None => Var::State(slot),
        }
    }

    fn output(&mut self, port: u8, name: &'p str) -> Var {
        self.outputs = self.outputs.max(usize::from(port) + 1);
        Var::Output {
            port,
            name: self.slot(name),
        }
    }

    /// A name read inside a handler.
    fn read(&mut self, name: &'p str) -> Var {
        if let Some(port) = input_port(name) {
            Var::Input(port)
        } else if let Some(port) = output_port(name) {
            self.output(port, name)
        } else {
            self.name(name)
        }
    }

    /// A name assigned inside a handler. Input ports are not special here:
    /// assigning `inK` writes a variable of that name, which reads of `inK`
    /// never see.
    fn write(&mut self, name: &'p str) -> Var {
        match output_port(name) {
            Some(port) => self.output(port, name),
            None => self.name(name),
        }
    }

    /// A name read by a state initializer: only prior states are in scope,
    /// and no input has been supplied yet.
    fn init_read(&mut self, name: &'p str) -> Var {
        match input_port(name) {
            Some(port) => Var::Input(port),
            None => Var::State(self.slot(name)),
        }
    }

    fn expr(&mut self, e: &'p Expr, resolve: fn(&mut Self, &'p str) -> Var) -> Node {
        match e {
            Expr::Bool(b) => Node::Const(Value::Bool(*b)),
            Expr::Int(v) => Node::Const(Value::Int(*v)),
            Expr::Var(name) => Node::Var(resolve(self, name)),
            Expr::Unary(op, inner) => Node::Unary(*op, Box::new(self.expr(inner, resolve))),
            Expr::Binary(op, lhs, rhs) => Node::Binary(
                *op,
                Box::new(self.expr(lhs, resolve)),
                Box::new(self.expr(rhs, resolve)),
            ),
        }
    }

    fn body(&mut self, body: &'p [Stmt]) -> Vec<Step> {
        body.iter()
            .map(|stmt| match stmt {
                Stmt::Let(name, e) => {
                    let local = self.locals[name.as_str()];
                    Step::Let(local, self.expr(e, Self::read))
                }
                Stmt::Assign(name, e) => {
                    let target = self.write(name);
                    Step::Assign(target, self.expr(e, Self::read))
                }
                Stmt::If(cond, then_body, else_body) => Step::If(
                    self.expr(cond, Self::read),
                    self.body(then_body),
                    self.body(else_body),
                ),
            })
            .collect()
    }
}

/// An executable instance of a [`Compiled`] program: its persistent state
/// plus the buffers one handler call reuses.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Machine<'c> {
    code: &'c Compiled,
    /// One buffer for every slot: the state values (by name slot), then the
    /// handler's locals, then its output ports.
    slots: Vec<Option<Value>>,
    /// The last call was a tick that left the state unchanged, and its
    /// outputs are in the output slots.
    tick_settled: bool,
}

impl<'c> Machine<'c> {
    /// Instantiates a machine, initializing every `state` variable.
    ///
    /// State initializers are evaluated in declaration order and may refer to
    /// previously declared state variables.
    ///
    /// # Panics
    ///
    /// Panics if a state initializer fails to evaluate (references an
    /// undeclared variable or divides by zero). Run
    /// [`check`](crate::check::check) first to reject such programs cleanly.
    pub fn new(code: &'c Compiled) -> Self {
        let mut machine = Self {
            code,
            slots: vec![None; code.names.len() + code.locals + code.outputs],
            tick_settled: false,
        };
        machine.reset();
        machine
    }

    /// Restores every state variable to its initializer — the machine's
    /// power-on state — and forgets state created by assignment. Lets a
    /// simulation harness reuse one machine across many runs (e.g.
    /// Monte-Carlo reliability trials).
    ///
    /// # Panics
    ///
    /// As for [`Machine::new`].
    pub fn reset(&mut self) {
        self.tick_settled = false;
        let code = self.code;
        let (state, _, _) = self.split();
        state.fill(None);
        let frame = Frame {
            names: &code.names,
            inputs: &[],
            state,
            locals: &mut [],
            outputs: &mut [],
            changed: false,
        };
        for (slot, init) in &code.inits {
            let v = frame
                .eval(init)
                .expect("state initializers are literals or prior states; run check() first");
            frame.state[*slot as usize] = Some(v);
        }
    }

    /// Runs the `on input` handler with the given input-port values.
    ///
    /// Returns the outputs assigned during this invocation (ports not
    /// assigned are absent — an eBlock only transmits a packet when its
    /// handler drives the output).
    ///
    /// # Errors
    ///
    /// Propagates any [`EvalError`] from the handler body.
    pub fn on_input(&mut self, inputs: &[Value]) -> Result<Outputs<'_>, EvalError> {
        self.tick_settled = false;
        let code = self.code;
        self.run(code.input.as_deref(), inputs)?;
        Ok(self.output_view())
    }

    /// Runs the `on tick` handler (no inputs are readable during a tick).
    /// Once a tick leaves the state unchanged, further ticks return its
    /// outputs without re-running it, until another call intervenes (see
    /// the [module documentation](self)).
    ///
    /// # Errors
    ///
    /// Propagates any [`EvalError`] from the handler body.
    pub fn on_tick(&mut self) -> Result<Outputs<'_>, EvalError> {
        if !self.tick_settled {
            let code = self.code;
            let changed = self.run(code.tick.as_deref(), &[])?;
            self.tick_settled = !changed;
        }
        Ok(self.output_view())
    }

    /// Whether the program has an `on tick` handler.
    pub fn uses_tick(&self) -> bool {
        self.code.uses_tick()
    }

    /// Whether the last call was a tick that left the state unchanged. If
    /// so, every tick until the next [`on_input`](Self::on_input) or
    /// [`reset`](Self::reset) repeats that tick's outputs and state
    /// exactly (see the [module documentation](self)).
    pub fn tick_settled(&self) -> bool {
        self.tick_settled
    }

    /// Reads a state variable (for tests and probes).
    pub fn state(&self, name: &str) -> Option<Value> {
        let slot = self.code.names.iter().position(|n| n == name)?;
        self.slots[slot]
    }

    /// The slot buffer as its state, locals and outputs.
    fn split(&mut self) -> (Slots<'_>, Slots<'_>, Slots<'_>) {
        let (state, rest) = self.slots.split_at_mut(self.code.names.len());
        let (locals, outputs) = rest.split_at_mut(self.code.locals);
        (state, locals, outputs)
    }

    /// Runs one handler call and reports whether it changed the state.
    fn run(&mut self, handler: Option<&'c [Step]>, inputs: &[Value]) -> Result<bool, EvalError> {
        let code = self.code;
        let (state, locals, outputs) = self.split();
        locals.fill(None);
        outputs.fill(None);
        let Some(steps) = handler else {
            return Ok(false);
        };
        let mut frame = Frame {
            names: &code.names,
            inputs,
            state,
            locals,
            outputs,
            changed: false,
        };
        frame.exec(steps)?;
        Ok(frame.changed)
    }

    fn output_view(&self) -> Outputs<'_> {
        Outputs {
            ports: &self.slots[self.code.names.len() + self.code.locals..],
        }
    }
}

/// The outputs one handler call drove: a port-indexed view of the
/// machine's output buffer, valid until its next call.
///
/// Two views are equal when they drive the same ports with the same values.
#[derive(Clone, Copy)]
pub struct Outputs<'m> {
    ports: &'m [Option<Value>],
}

impl<'m> Outputs<'m> {
    /// The last value assigned to output `port`, or `None` if the call
    /// never drove it.
    pub fn get(&self, port: u8) -> Option<Value> {
        self.ports.get(usize::from(port)).copied().flatten()
    }

    /// Whether the call drove no output at all.
    pub fn is_empty(&self) -> bool {
        self.ports.iter().all(Option::is_none)
    }

    /// The driven ports and their values, in ascending port order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, Value)> + 'm {
        // `Compiled::outputs` is at most 256: every index fits in a u8.
        self.ports
            .iter()
            .enumerate()
            .filter_map(|(port, v)| Some((port as u8, (*v)?)))
    }
}

impl PartialEq for Outputs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Outputs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One handler invocation's mutable context.
struct Frame<'a> {
    names: &'a [String],
    inputs: &'a [Value],
    state: &'a mut [Option<Value>],
    locals: &'a mut [Option<Value>],
    outputs: &'a mut [Option<Value>],
    /// Whether a state write so far stored a different value.
    changed: bool,
}

impl Frame<'_> {
    fn exec(&mut self, steps: &[Step]) -> Result<(), EvalError> {
        for step in steps {
            match step {
                Step::Let(local, e) => {
                    let v = self.eval(e)?;
                    self.locals[*local as usize] = Some(v);
                }
                Step::Assign(target, e) => {
                    let v = Some(self.eval(e)?);
                    match *target {
                        Var::Output { port, .. } => self.outputs[usize::from(port)] = v,
                        Var::Scoped { local, .. } if self.locals[local as usize].is_some() => {
                            self.locals[local as usize] = v;
                        }
                        Var::State(slot) | Var::Scoped { slot, .. } => {
                            let cell = &mut self.state[slot as usize];
                            self.changed |= *cell != v;
                            *cell = v;
                        }
                        Var::Input(_) => unreachable!("assignments never resolve to input ports"),
                    }
                }
                Step::If(cond, then_steps, else_steps) => {
                    let branch = if self.eval(cond)?.as_bool()? {
                        then_steps
                    } else {
                        else_steps
                    };
                    self.exec(branch)?;
                }
            }
        }
        Ok(())
    }

    fn read(&self, var: Var) -> Result<Value, EvalError> {
        let (value, slot) = match var {
            Var::Input(port) => {
                return self.inputs.get(usize::from(port)).copied().ok_or(
                    EvalError::InputOutOfRange {
                        port,
                        supplied: self.inputs.len(),
                    },
                )
            }
            Var::Output { port, name } => (self.outputs[usize::from(port)], name),
            Var::State(slot) => (self.state[slot as usize], slot),
            Var::Scoped { local, slot } => (
                self.locals[local as usize].or(self.state[slot as usize]),
                slot,
            ),
        };
        value.ok_or_else(|| EvalError::UndefinedVariable {
            name: self.names[slot as usize].clone(),
        })
    }

    fn eval(&self, node: &Node) -> Result<Value, EvalError> {
        match node {
            Node::Const(v) => Ok(*v),
            Node::Var(var) => self.read(*var),
            Node::Unary(op, inner) => op.apply(self.eval(inner)?),
            // && and || short-circuit, like the Java-like source language:
            // the right operand runs only when the left one does not
            // decide the result, which is then `BinOp::apply` of the two.
            // Written out, not called: the call measured slower on the
            // library's sum-of-products programs.
            Node::Binary(BinOp::And, lhs, rhs) => Ok(Value::Bool(
                self.eval(lhs)?.as_bool()? && self.eval(rhs)?.as_bool()?,
            )),
            Node::Binary(BinOp::Or, lhs, rhs) => Ok(Value::Bool(
                self.eval(lhs)?.as_bool()? || self.eval(rhs)?.as_bool()?,
            )),
            Node::Binary(op, lhs, rhs) => op.apply(self.eval(lhs)?, self.eval(rhs)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> Compiled {
        Compiled::new(&parse(src).unwrap())
    }

    fn bools(inputs: &[bool]) -> Vec<Value> {
        inputs.iter().map(|&b| Value::Bool(b)).collect()
    }

    /// Output port 0 after one `on input` call on a fresh machine.
    fn out0_once(src: &str, inputs: &[bool]) -> Option<Value> {
        let code = compile(src);
        let mut m = Machine::new(&code);
        m.on_input(&bools(inputs)).unwrap().get(0)
    }

    #[test]
    fn combinational_and() {
        let src = "on input { out0 = in0 && in1; }";
        assert_eq!(out0_once(src, &[true, true]), Some(Value::Bool(true)));
        assert_eq!(out0_once(src, &[true, false]), Some(Value::Bool(false)));
    }

    #[test]
    fn toggle_flips_on_rising_edge() {
        let code = compile("state q = false;\nstate prev = false;\non input { if (in0 && !prev) { q = !q; } prev = in0; out0 = q; }");
        let mut m = Machine::new(&code);
        let hi = [Value::Bool(true)];
        let lo = [Value::Bool(false)];
        assert_eq!(m.on_input(&hi).unwrap().get(0), Some(Value::Bool(true)));
        // Held high: no further flip.
        assert_eq!(m.on_input(&hi).unwrap().get(0), Some(Value::Bool(true)));
        assert_eq!(m.on_input(&lo).unwrap().get(0), Some(Value::Bool(true)));
        // Second rising edge flips back off.
        assert_eq!(m.on_input(&hi).unwrap().get(0), Some(Value::Bool(false)));
    }

    #[test]
    fn tick_handler_counts_down() {
        let code = compile("state n = 3;\non tick { if (n > 0) { n = n - 1; } out0 = n > 0; }");
        let mut m = Machine::new(&code);
        assert!(m.uses_tick());
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(true))); // 2
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(true))); // 1
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(false))); // 0
        assert_eq!(m.state("n"), Some(Value::Int(0)));
    }

    #[test]
    fn settled_tick_repeats_until_a_call_changes_state() {
        // Counts down to 0 and settles there; a press restarts the count.
        let code = compile(
            "state n = 2;\non input { if (in0) { n = 2; } }\non tick { if (n > 0) { n = n - 1; } out0 = n > 0; }",
        );
        let mut m = Machine::new(&code);
        let on = Some(Value::Bool(true));
        let off = Some(Value::Bool(false));
        assert_eq!(m.on_tick().unwrap().get(0), on); // 1
        assert_eq!(m.on_tick().unwrap().get(0), off); // 0
        assert!(!m.tick_settled(), "the tick to 0 changed the state");
        for _ in 0..3 {
            // Settled: the same outputs, the same state.
            assert_eq!(m.on_tick().unwrap().get(0), off);
            assert_eq!(m.state("n"), Some(Value::Int(0)));
            assert!(m.tick_settled());
        }
        // An input call that leaves the state alone still ends the
        // fixpoint: its outputs replaced the tick's in the buffer.
        assert!(m.on_input(&bools(&[false])).unwrap().is_empty());
        assert!(!m.tick_settled());
        assert_eq!(m.on_tick().unwrap().get(0), off);
        m.on_input(&bools(&[true])).unwrap();
        assert_eq!(m.on_tick().unwrap().get(0), on);
        assert_eq!(m.on_tick().unwrap().get(0), off);
        // Reset ends it too.
        m.reset();
        assert_eq!(m.on_tick().unwrap().get(0), on);
    }

    #[test]
    fn failing_or_changing_ticks_never_settle() {
        // A failed tick changed nothing, but must fail again.
        let code = compile("on tick { out0 = ghost; }");
        let mut m = Machine::new(&code);
        for _ in 0..2 {
            assert_eq!(
                m.on_tick().unwrap_err(),
                EvalError::UndefinedVariable {
                    name: "ghost".into()
                }
            );
        }
        // Every increment is a change; so is creating state.
        let code = compile("state n = 0;\non tick { n = n + 1; out0 = n; }");
        let mut m = Machine::new(&code);
        for k in 1..=4 {
            assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Int(k)));
        }
        let code = compile("on tick { seen = true; out0 = seen; }");
        let mut m = Machine::new(&code);
        assert_eq!(m.state("seen"), None);
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(true)));
        assert_eq!(m.state("seen"), Some(Value::Bool(true)));
        assert_eq!(m.on_tick().unwrap().get(0), Some(Value::Bool(true)));
    }

    #[test]
    fn missing_handler_is_noop() {
        let code = compile("on input { out0 = in0; }");
        let mut m = Machine::new(&code);
        assert!(m.on_tick().unwrap().is_empty());
    }

    #[test]
    fn unassigned_outputs_absent() {
        let code = compile("on input { if (in0) { out0 = true; } }");
        let mut m = Machine::new(&code);
        assert!(!m.on_input(&bools(&[true])).unwrap().is_empty());
        assert!(
            m.on_input(&bools(&[false])).unwrap().is_empty(),
            "no packet when the handler never drives out0"
        );
    }

    #[test]
    fn locals_shadow_state() {
        let code = compile("state x = 1;\non input { let x = 10; x = x + 1; out0 = x == 11; }");
        let mut m = Machine::new(&code);
        assert_eq!(m.on_input(&[]).unwrap().get(0), Some(Value::Bool(true)));
        assert_eq!(
            m.state("x"),
            Some(Value::Int(1)),
            "state untouched by local"
        );
    }

    #[test]
    fn locals_do_not_leak_into_the_next_call() {
        let code = compile("on input { if (in0) { let x = true; out0 = x; } else { out0 = x; } }");
        let mut m = Machine::new(&code);
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap().get(0),
            Some(Value::Bool(true))
        );
        assert_eq!(
            m.on_input(&bools(&[false])).unwrap_err(),
            EvalError::UndefinedVariable { name: "x".into() }
        );
        assert_eq!(m.state("x"), None, "a local never becomes state");
    }

    #[test]
    fn let_in_taken_branch_shadows_state_for_that_call_only() {
        let code =
            compile("state x = 1;\non input { if (in0) { let x = 10; } x = x + 1; out0 = x; }");
        let mut m = Machine::new(&code);
        // Taken: the local outlives its branch, and the write hits it.
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap().get(0),
            Some(Value::Int(11))
        );
        assert_eq!(m.state("x"), Some(Value::Int(1)));
        // Not taken: the `let` does nothing, so the write hits state.
        assert_eq!(
            m.on_input(&bools(&[false])).unwrap().get(0),
            Some(Value::Int(2))
        );
        assert_eq!(m.state("x"), Some(Value::Int(2)));
        // Taken again: shadowing starts afresh and ends with the call.
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap().get(0),
            Some(Value::Int(11))
        );
        assert_eq!(m.state("x"), Some(Value::Int(2)));
    }

    #[test]
    fn assignment_to_undeclared_name_creates_state() {
        let code = compile("on input { if (in0) { n = 7; } out0 = n; }");
        let mut m = Machine::new(&code);
        assert_eq!(m.state("n"), None);
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap().get(0),
            Some(Value::Int(7))
        );
        assert_eq!(m.state("n"), Some(Value::Int(7)));
        // The next call reads the created state without assigning it.
        assert_eq!(
            m.on_input(&bools(&[false])).unwrap().get(0),
            Some(Value::Int(7))
        );
        // Power-on state has no `n`.
        m.reset();
        assert_eq!(m.state("n"), None);
        assert_eq!(
            m.on_input(&bools(&[false])).unwrap_err(),
            EvalError::UndefinedVariable { name: "n".into() }
        );
    }

    #[test]
    fn output_readback_within_invocation() {
        let code = compile("on input { out0 = in0; out1 = !out0; }");
        let mut m = Machine::new(&code);
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap().get(1),
            Some(Value::Bool(false))
        );
    }

    #[test]
    fn unwritten_output_is_undefined() {
        // Written in the first call only: outputs do not carry over.
        let code = compile("on input { if (in0) { out0 = true; } out1 = out0; }");
        let mut m = Machine::new(&code);
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap().get(1),
            Some(Value::Bool(true))
        );
        assert_eq!(
            m.on_input(&bools(&[false])).unwrap_err(),
            EvalError::UndefinedVariable {
                name: "out0".into()
            }
        );
    }

    #[test]
    fn in256_is_an_ordinary_variable() {
        // Port numbers are u8, so `in256` names a variable, not an input.
        let code = compile("state in256 = 5;\non input { in256 = in256 + 1; out0 = in256 == 6; }");
        let mut m = Machine::new(&code);
        assert_eq!(m.on_input(&[]).unwrap().get(0), Some(Value::Bool(true)));
        assert_eq!(m.state("in256"), Some(Value::Int(6)));
    }

    #[test]
    fn outputs_compare_by_driven_ports() {
        // Different buffer widths, same driven ports: equal views.
        let narrow = compile("on input { out0 = in0; }");
        let wide = compile("on input { out0 = in0; if (false) { out5 = true; } }");
        let (mut a, mut b) = (Machine::new(&narrow), Machine::new(&wide));
        let inputs = bools(&[true]);
        let (x, y) = (a.on_input(&inputs).unwrap(), b.on_input(&inputs).unwrap());
        assert_eq!(x, y);
        assert_eq!(format!("{y:?}"), "{0: Bool(true)}");
        assert_eq!(y.iter().collect::<Vec<_>>(), [(0, Value::Bool(true))]);
    }

    #[test]
    fn short_circuit_prevents_errors() {
        // Division by zero on the right of && never evaluates when lhs false.
        let code = compile("on input { out0 = in0 && (1 / 0) == 1; }");
        let mut m = Machine::new(&code);
        assert_eq!(
            m.on_input(&bools(&[false])).unwrap().get(0),
            Some(Value::Bool(false))
        );
        assert_eq!(
            m.on_input(&bools(&[true])).unwrap_err(),
            EvalError::DivisionByZero
        );
    }

    #[test]
    fn type_errors_reported() {
        let code = compile("on input { out0 = 1 && true; }");
        let err = Machine::new(&code).on_input(&[]).unwrap_err();
        assert!(matches!(err, EvalError::TypeMismatch { .. }));

        let code = compile("on input { out0 = true == 1; }");
        let err = Machine::new(&code).on_input(&[]).unwrap_err();
        assert!(matches!(err, EvalError::TypeMismatch { .. }));
    }

    #[test]
    fn undefined_variable_reported() {
        let code = compile("on input { out0 = ghost; }");
        assert_eq!(
            Machine::new(&code).on_input(&[]).unwrap_err(),
            EvalError::UndefinedVariable {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn input_out_of_range_reported() {
        let code = compile("on input { out0 = in3; }");
        let err = Machine::new(&code).on_input(&bools(&[true])).unwrap_err();
        assert_eq!(
            err,
            EvalError::InputOutOfRange {
                port: 3,
                supplied: 1
            }
        );
    }

    #[test]
    fn arithmetic_semantics() {
        let cases = [
            ("7 / 2", Value::Int(3)),
            ("7 % 2", Value::Int(1)),
            ("-7 / 2", Value::Int(-3)),
            ("2 * 3 + 4", Value::Int(10)),
            ("10 - 2 - 3", Value::Int(5)),
        ];
        for (expr, expected) in cases {
            let src = format!("on input {{ x = {expr}; out0 = x == {expected}; }}");
            assert_eq!(out0_once(&src, &[]), Some(Value::Bool(true)), "{expr}");
        }
    }

    #[test]
    fn overflow_detected() {
        let code = compile(&format!("on input {{ x = {} + 1; }}", i64::MAX));
        assert_eq!(
            Machine::new(&code).on_input(&[]).unwrap_err(),
            EvalError::Overflow
        );
    }

    #[test]
    fn state_initializers_see_prior_states() {
        assert_eq!(
            out0_once(
                "state a = 2; state b = a * 3; on input { out0 = b == 6; }",
                &[]
            ),
            Some(Value::Bool(true))
        );
    }
}
