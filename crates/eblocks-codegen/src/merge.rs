//! Syntax-tree merging: one behavior program per partition (§3.3).
//!
//! A [`Merger`] reads a design's levels once and merges any number of its
//! partitions. Each member's library program is read in place: its
//! statements are copied into the merged program once, renamed as they are
//! copied, from names rendered once per member (`net{j}_{port}`,
//! `latch_in{pin}`, `m{j}_{name}`).

use crate::error::CodegenError;
use eblocks_behavior::ast::{input_port, output_port};
use eblocks_behavior::{check, library, Expr, Handler, HandlerKind, Program, StateDecl, Stmt};
use eblocks_core::design::Wire;
use eblocks_core::{levels, BlockId, BlockKind, Design, ProgrammableSpec};

/// The program generated for one partition, plus the pin assignment needed
/// to rewire the network around the new programmable block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedProgram {
    /// The merged behavior program (passes `check` at the block's arity).
    pub program: Program,
    /// `input_map[k]` = the external source `(block, output port)` that must
    /// be wired to physical input pin `k`.
    pub input_map: Vec<(BlockId, u8)>,
    /// `output_map[k]` = the member `(block, output port)` whose signal
    /// physical output pin `k` carries; external consumers of that signal
    /// must be rewired to pin `k`.
    pub output_map: Vec<(BlockId, u8)>,
}

/// Merges the behavior trees of `members` into a single program for a
/// programmable block with pin budget `spec`; [`Merger::merge`] on a
/// fresh [`Merger`].
///
/// # Errors
///
/// As for [`Merger::merge`].
pub fn merge_partition(
    design: &Design,
    members: &[BlockId],
    spec: ProgrammableSpec,
) -> Result<MergedProgram, CodegenError> {
    Merger::new(design).merge(members, spec)
}

/// Merges partitions of one design. The design's levels, which order every
/// partition's members, are computed once, here.
#[derive(Debug, Clone)]
pub struct Merger<'d> {
    design: &'d Design,
    /// Every block's level, by [`BlockId::index`].
    level: Vec<usize>,
}

impl<'d> Merger<'d> {
    /// A merger over `design`.
    pub fn new(design: &'d Design) -> Self {
        Self {
            design,
            level: levels(design),
        }
    }

    /// Merges the behavior trees of `members` into a single program for a
    /// programmable block with pin budget `spec`.
    ///
    /// Members are merged in non-decreasing level order, internal wires
    /// become `net*` state variables, partition inputs are latched into
    /// `latch_in*` state variables (so the `on tick` handler may
    /// re-evaluate the whole tree without touching physical pins), and
    /// member-local names are prefixed uniquely.
    ///
    /// The merged `on tick` handler re-evaluates every member (its tick
    /// body, then its input body) in level order: in the network a
    /// tick-driven output change propagates packets downstream, and
    /// re-evaluation reproduces that. Library block behaviors are
    /// idempotent under repeated evaluation with unchanged inputs, which
    /// makes this sound.
    ///
    /// # Errors
    ///
    /// * [`CodegenError::EmptyPartition`] / [`CodegenError::NotInner`] on
    ///   malformed member lists,
    /// * [`CodegenError::TooManyInputs`] / [`CodegenError::TooManyOutputs`]
    ///   when the partition's signals exceed the pin budget,
    /// * [`CodegenError::MergedProgramInvalid`] if the merged program fails
    ///   its static checks (defensive; indicates a code generation bug).
    pub fn merge(
        &self,
        members: &[BlockId],
        spec: ProgrammableSpec,
    ) -> Result<MergedProgram, CodegenError> {
        let design = self.design;
        if members.is_empty() {
            return Err(CodegenError::EmptyPartition);
        }
        for &m in members {
            let inner = design.block(m).is_some_and(|b| b.is_inner());
            if !inner {
                return Err(CodegenError::NotInner {
                    block: design
                        .block(m)
                        .map_or_else(|| m.to_string(), |b| b.name().to_string()),
                });
            }
        }

        // Level-sorted member order (§3.3: "syntax trees are ordered in
        // non-decreasing order ... determined by the level of each block").
        let mut order: Vec<BlockId> = members.to_vec();
        order.sort_by_key(|&b| (self.level[b.index()], b));
        let member_pos = |b: BlockId| order.iter().position(|&m| m == b);

        // Pin assignment: distinct external sources in deterministic
        // (member-order, port-order) first-encounter order.
        let mut wires: Vec<Wire> = Vec::new();
        let mut input_map: Vec<(BlockId, u8)> = Vec::new();
        for &m in &order {
            wires.clear();
            wires.extend(design.in_wires(m));
            wires.sort_by_key(|w| w.to_port);
            for w in &wires {
                let external = member_pos(w.from).is_none();
                if external && !input_map.contains(&(w.from, w.from_port)) {
                    input_map.push((w.from, w.from_port));
                }
            }
        }
        if input_map.len() > spec.inputs as usize {
            return Err(CodegenError::TooManyInputs {
                need: input_map.len(),
                have: spec.inputs,
            });
        }

        let mut output_map: Vec<(BlockId, u8)> = Vec::new();
        for &m in &order {
            wires.clear();
            wires.extend(design.out_wires(m));
            wires.sort_by_key(|w| w.from_port);
            for w in &wires {
                let exposed = member_pos(w.to).is_none();
                if exposed && !output_map.contains(&(w.from, w.from_port)) {
                    output_map.push((w.from, w.from_port));
                }
            }
        }
        if output_map.len() > spec.outputs as usize {
            return Err(CodegenError::TooManyOutputs {
                need: output_map.len(),
                have: spec.outputs,
            });
        }

        // Every name the merged program gives a port, rendered once: each
        // member's output nets, and the latched partition inputs.
        let nets: Vec<Vec<String>> = order
            .iter()
            .enumerate()
            .map(|(j, &m)| {
                let outs = design.block(m).expect("member").num_outputs();
                (0..outs).map(|port| format!("net{j}_{port}")).collect()
            })
            .collect();
        let latches: Vec<String> = (0..input_map.len())
            .map(|pin| format!("latch_in{pin}"))
            .collect();

        let codes: Vec<_> = order
            .iter()
            .map(|&m| {
                let BlockKind::Compute(kind) = design.block(m).expect("validated member").kind()
                else {
                    unreachable!("members are inner blocks");
                };
                library::code_for(kind)
            })
            .collect();
        // Library programs pass `check`, so each has at most one handler of
        // each kind.
        let any_tick = codes.iter().any(|code| {
            code.program()
                .handler(HandlerKind::Tick)
                .is_some_and(|h| !h.body.is_empty())
        });

        // Per-member renamed states and bodies, in level order.
        let mut merged = Program::default();
        let mut on_input: Vec<Stmt> = latches
            .iter()
            .enumerate()
            .map(|(pin, latch)| Stmt::Assign(latch.clone(), Expr::var(format!("in{pin}"))))
            .collect();
        let mut on_tick: Vec<Stmt> = Vec::new();
        for (j, (&m, code)) in order.iter().zip(&codes).enumerate() {
            let program = code.program();
            let mut names = MemberNames {
                j,
                inputs: (0..design.block(m).expect("member").num_inputs())
                    .map(|port| {
                        let wire = design.driver_of(m, port)?;
                        Some(match member_pos(wire.from) {
                            Some(src) => &nets[src][usize::from(wire.from_port)],
                            None => {
                                let pin = input_map
                                    .iter()
                                    .position(|&(b, p)| (b, p) == (wire.from, wire.from_port))
                                    .expect("external sources were pinned above");
                                &latches[pin]
                            }
                        })
                    })
                    .collect(),
                outputs: &nets[j],
                locals: Vec::new(),
            };
            for st in &program.states {
                merged.states.push(StateDecl {
                    name: names.rename(&st.name),
                    init: names.expr(&st.init),
                });
            }
            let body = |kind| program.handler(kind).map_or(&[][..], |h| &h.body[..]);
            let input_body = names.body(body(HandlerKind::Input));
            if any_tick {
                // on tick: advance timers and re-evaluate the whole tree.
                on_tick.extend(names.body(body(HandlerKind::Tick)));
                on_tick.extend(input_body.iter().cloned());
            }
            // on input: latch pins, evaluate members in level order, drive
            // pins.
            on_input.extend(input_body);
        }

        // Net and latch state declarations (all idle-low, like eBlock lines).
        for name in nets.iter().flatten().chain(&latches) {
            merged.states.push(StateDecl {
                name: name.clone(),
                init: Expr::Bool(false),
            });
        }

        // Epilogue: copy exposed nets to physical output pins.
        for (pin, &(b, port)) in output_map.iter().enumerate() {
            let j = member_pos(b).expect("output map holds members");
            let copy = || {
                Stmt::Assign(
                    format!("out{pin}"),
                    Expr::var(nets[j][usize::from(port)].clone()),
                )
            };
            if any_tick {
                on_tick.push(copy());
            }
            on_input.push(copy());
        }
        merged.handlers.push(Handler {
            kind: HandlerKind::Input,
            body: on_input,
        });
        if any_tick {
            merged.handlers.push(Handler {
                kind: HandlerKind::Tick,
                body: on_tick,
            });
        }

        let errors = check(&merged, spec.inputs, spec.outputs);
        if !errors.is_empty() {
            return Err(CodegenError::MergedProgramInvalid { errors });
        }

        Ok(MergedProgram {
            program: merged,
            input_map,
            output_map,
        })
    }
}

/// How member `j`'s library program names map into the merged program:
/// `inK` to the net or latch that drives its input `K`, `outK` to its own
/// net, and every other name to `m{j}_{name}`.
struct MemberNames<'a> {
    j: usize,
    /// The name of the signal driving each input port (`None` when the
    /// port is undriven).
    inputs: Vec<Option<&'a String>>,
    outputs: &'a [String],
    /// The prefixed names rendered so far.
    locals: Vec<(&'a str, String)>,
}

impl<'a> MemberNames<'a> {
    fn rename(&mut self, name: &'a str) -> String {
        if let Some(port) = input_port(name) {
            return self.inputs[usize::from(port)]
                .expect("validated designs drive every compute input")
                .clone();
        }
        if let Some(port) = output_port(name) {
            return self.outputs[usize::from(port)].clone();
        }
        if let Some((_, renamed)) = self.locals.iter().find(|(n, _)| *n == name) {
            return renamed.clone();
        }
        let renamed = format!("m{}_{name}", self.j);
        self.locals.push((name, renamed.clone()));
        renamed
    }

    fn expr(&mut self, e: &'a Expr) -> Expr {
        match e {
            Expr::Bool(b) => Expr::Bool(*b),
            Expr::Int(v) => Expr::Int(*v),
            Expr::Var(name) => Expr::Var(self.rename(name)),
            Expr::Unary(op, x) => Expr::unary(*op, self.expr(x)),
            Expr::Binary(op, l, r) => Expr::binary(*op, self.expr(l), self.expr(r)),
        }
    }

    fn body(&mut self, body: &'a [Stmt]) -> Vec<Stmt> {
        body.iter()
            .map(|stmt| match stmt {
                Stmt::Let(name, e) => Stmt::Let(self.rename(name), self.expr(e)),
                Stmt::Assign(name, e) => Stmt::Assign(self.rename(name), self.expr(e)),
                Stmt::If(cond, then_body, else_body) => {
                    Stmt::If(self.expr(cond), self.body(then_body), self.body(else_body))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_behavior::{Compiled, Machine, Value};
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};

    /// door, light -> not -> and -> led (the garage system).
    fn garage() -> (Design, Vec<BlockId>) {
        let mut d = Design::new("garage");
        let door = d.add_block("door", SensorKind::ContactSwitch);
        let light = d.add_block("light", SensorKind::Light);
        let inv = d.add_block("inv", ComputeKind::Not);
        let both = d.add_block("both", ComputeKind::and2());
        let led = d.add_block("led", OutputKind::Led);
        d.connect((door, 0), (both, 0)).unwrap();
        d.connect((light, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (both, 1)).unwrap();
        d.connect((both, 0), (led, 0)).unwrap();
        (d, vec![inv, both])
    }

    #[test]
    fn garage_merge_behaves_like_network() {
        let (d, members) = garage();
        let merged = merge_partition(&d, &members, ProgrammableSpec::default()).unwrap();
        assert_eq!(merged.input_map.len(), 2);
        assert_eq!(merged.output_map.len(), 1);

        let code = Compiled::new(&merged.program);
        let mut m = Machine::new(&code);
        // Pin order: inv is level 1 and sorts first, so pin 0 = light,
        // pin 1 = door.
        let light_pin_first = {
            let (b, _) = merged.input_map[0];
            d.block(b).unwrap().name() == "light"
        };
        let run = |m: &mut Machine, door: bool, light: bool| -> bool {
            let ins = if light_pin_first {
                [Value::Bool(light), Value::Bool(door)]
            } else {
                [Value::Bool(door), Value::Bool(light)]
            };
            match m.on_input(&ins).unwrap().get(0) {
                Some(Value::Bool(b)) => b,
                other => panic!("expected bool out0, got {other:?}"),
            }
        };
        assert!(!run(&mut m, false, false), "door closed");
        assert!(run(&mut m, true, false), "open in the dark");
        assert!(!run(&mut m, true, true), "open in daylight");
    }

    #[test]
    fn sequential_partition_with_tick() {
        // button -> toggle -> pulse -> buzzer; merge {toggle, pulse}.
        let mut d = Design::new("seq");
        let b = d.add_block("btn", SensorKind::Button);
        let t = d.add_block("tog", ComputeKind::Toggle);
        let p = d.add_block("pg", ComputeKind::PulseGen { ticks: 2 });
        let o = d.add_block("buzzer", OutputKind::Buzzer);
        d.connect((b, 0), (t, 0)).unwrap();
        d.connect((t, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();

        let merged = merge_partition(&d, &[t, p], ProgrammableSpec::default()).unwrap();
        assert!(merged.program.uses_tick());
        let code = Compiled::new(&merged.program);
        let mut m = Machine::new(&code);

        // Press: toggle goes high, pulse fires.
        let outs = m.on_input(&[Value::Bool(true)]).unwrap();
        assert_eq!(outs.get(0), Some(Value::Bool(true)));
        // Two ticks later the pulse expires even with no further input.
        m.on_tick().unwrap();
        let outs = m.on_tick().unwrap();
        assert_eq!(outs.get(0), Some(Value::Bool(false)));
        // Ticks with no edge must not re-trigger (idempotent re-evaluation).
        let outs = m.on_tick().unwrap();
        assert_eq!(outs.get(0), Some(Value::Bool(false)));
    }

    #[test]
    fn internal_signal_with_external_consumer_gets_pin() {
        // split -> (not inside, led outside): splitter output 0 feeds both.
        let mut d = Design::new("fan");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let n = d.add_block("n", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (n, 0)).unwrap();
        d.connect((sp, 0), (o1, 0)).unwrap(); // same port, outside consumer
        d.connect((sp, 1), (o2, 0)).unwrap();
        d.connect((n, 0), (o1, 0)).ok(); // invalid: o1 already driven
        let merged = merge_partition(&d, &[sp, n], ProgrammableSpec::new(2, 3)).unwrap();
        // Exposed: sp.0 (drives o1), sp.1 (drives o2), n.0 dangles — n.0
        // drives nothing, so only two pins.
        assert_eq!(merged.output_map.len(), 2);
        assert_eq!(merged.input_map.len(), 1);
    }

    #[test]
    fn pin_budget_enforced() {
        let mut d = Design::new("wide");
        let s1 = d.add_block("s1", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Motion);
        let s3 = d.add_block("s3", SensorKind::Sound);
        let g1 = d.add_block("g1", ComputeKind::and2());
        let g2 = d.add_block("g2", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s1, 0), (g1, 0)).unwrap();
        d.connect((s2, 0), (g1, 1)).unwrap();
        d.connect((g1, 0), (g2, 0)).unwrap();
        d.connect((s3, 0), (g2, 1)).unwrap();
        d.connect((g2, 0), (o, 0)).unwrap();
        let err = merge_partition(&d, &[g1, g2], ProgrammableSpec::default()).unwrap_err();
        assert_eq!(err, CodegenError::TooManyInputs { need: 3, have: 2 });
        assert!(merge_partition(&d, &[g1, g2], ProgrammableSpec::new(3, 1)).is_ok());
    }

    #[test]
    fn rejects_empty_and_non_inner() {
        let (d, _) = garage();
        assert_eq!(
            merge_partition(&d, &[], ProgrammableSpec::default()).unwrap_err(),
            CodegenError::EmptyPartition
        );
        let sensor = d.block_by_name("door").unwrap();
        assert!(matches!(
            merge_partition(&d, &[sensor], ProgrammableSpec::default()).unwrap_err(),
            CodegenError::NotInner { .. }
        ));
    }

    #[test]
    fn merged_program_is_deterministic() {
        let (d, members) = garage();
        let a = merge_partition(&d, &members, ProgrammableSpec::default()).unwrap();
        let b = merge_partition(&d, &members, ProgrammableSpec::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.program.to_string(), b.program.to_string());
    }

    #[test]
    fn variable_collisions_resolved_by_prefixing() {
        // Two toggles share state names `q`/`prev` in the library source;
        // merging must keep them separate.
        let mut d = Design::new("two-toggles");
        let s = d.add_block("s", SensorKind::Button);
        let t1 = d.add_block("t1", ComputeKind::Toggle);
        let t2 = d.add_block("t2", ComputeKind::Toggle);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (t1, 0)).unwrap();
        d.connect((t1, 0), (t2, 0)).unwrap();
        d.connect((t2, 0), (o, 0)).unwrap();
        let merged = merge_partition(&d, &[t1, t2], ProgrammableSpec::default()).unwrap();
        let states: Vec<&str> = merged
            .program
            .states
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(
            states.contains(&"m0_q") && states.contains(&"m1_q"),
            "{states:?}"
        );

        // Behavior: press-release twice; t1 toggles twice (back to off), t2
        // follows t1's rising edge once.
        let code = Compiled::new(&merged.program);
        let mut m = Machine::new(&code);
        let press = |m: &mut Machine, v: bool| m.on_input(&[Value::Bool(v)]).unwrap().get(0);
        assert_eq!(
            press(&mut m, true),
            Some(Value::Bool(true)),
            "t1 up edge -> t2 flips"
        );
        press(&mut m, false);
        assert_eq!(
            press(&mut m, true),
            Some(Value::Bool(true)),
            "t1 drops, t2 holds"
        );
    }
}
