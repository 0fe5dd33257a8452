//! Syntax-tree merging: one behavior program per partition (§3.3).

use crate::error::CodegenError;
use eblocks_behavior::Expr as BExpr;
use eblocks_behavior::{check, library, Handler, HandlerKind, Program, StateDecl, Stmt};
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
/// programmable block with pin budget `spec`.
///
/// Members are merged in non-decreasing level order, internal wires become
/// `net*` state variables, partition inputs are latched into `latch_in*`
/// state variables (so the `on tick` handler may re-evaluate the whole tree
/// without touching physical pins), and member-local names are prefixed
/// uniquely.
///
/// The merged `on tick` handler re-evaluates every member (its tick body,
/// then its input body) in level order: in the network a tick-driven output
/// change propagates packets downstream, and re-evaluation reproduces that.
/// Library block behaviors are idempotent under repeated evaluation with
/// unchanged inputs, which makes this sound.
///
/// # Errors
///
/// * [`CodegenError::EmptyPartition`] / [`CodegenError::NotInner`] on
///   malformed member lists,
/// * [`CodegenError::TooManyInputs`] / [`CodegenError::TooManyOutputs`] when
///   the partition's signals exceed the pin budget,
/// * [`CodegenError::MergedProgramInvalid`] if the merged program fails its
///   static checks (defensive; indicates a code generation bug).
pub fn merge_partition(
    design: &Design,
    members: &[BlockId],
    spec: ProgrammableSpec,
) -> Result<MergedProgram, CodegenError> {
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
    let level_map = levels(design);
    let mut order: Vec<BlockId> = members.to_vec();
    order.sort_by_key(|b| (level_map.get(b).copied().unwrap_or(0), *b));
    let member_pos = |b: BlockId| order.iter().position(|&m| m == b);

    // Pin assignment: distinct external sources in deterministic
    // (member-order, port-order) first-encounter order.
    let mut input_map: Vec<(BlockId, u8)> = Vec::new();
    for &m in &order {
        let mut wires: Vec<_> = design.in_wires(m).collect();
        wires.sort_by_key(|w| w.to_port);
        for w in wires {
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
        let mut wires: Vec<_> = design.out_wires(m).collect();
        wires.sort_by_key(|w| w.from_port);
        for w in wires {
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

    // Per-member renamed programs.
    let mut merged = Program::default();
    let mut input_bodies: Vec<Vec<Stmt>> = Vec::new();
    let mut tick_bodies: Vec<Vec<Stmt>> = Vec::new();
    let mut any_tick = false;

    for (j, &m) in order.iter().enumerate() {
        let BlockKind::Compute(kind) = design.block(m).expect("validated member").kind() else {
            unreachable!("members are inner blocks");
        };
        let mut program = library::code_for(kind).program().clone();

        let rename = |name: &str| -> Option<String> {
            if let Some(port) = eblocks_behavior::ast::input_port(name) {
                let wire = design
                    .driver_of(m, port)
                    .expect("validated designs drive every compute input");
                return Some(match member_pos(wire.from) {
                    Some(src_idx) => format!("net{src_idx}_{}", wire.from_port),
                    None => {
                        let pin = input_map
                            .iter()
                            .position(|&(b, p)| (b, p) == (wire.from, wire.from_port))
                            .expect("external sources were pinned above");
                        format!("latch_in{pin}")
                    }
                });
            }
            if let Some(port) = eblocks_behavior::ast::output_port(name) {
                return Some(format!("net{j}_{port}"));
            }
            Some(format!("m{j}_{name}"))
        };
        program.rename_vars(rename);

        merged.states.append(&mut program.states);
        // Library programs pass `check`, so each has at most one handler
        // of each kind.
        let (mut input_body, mut tick_body) = (Vec::new(), Vec::new());
        for handler in program.handlers {
            match handler.kind {
                HandlerKind::Input => input_body = handler.body,
                HandlerKind::Tick => tick_body = handler.body,
            }
        }
        any_tick |= !tick_body.is_empty();
        input_bodies.push(input_body);
        tick_bodies.push(tick_body);
    }

    // Net and latch state declarations (all idle-low, like eBlock lines).
    for (j, &m) in order.iter().enumerate() {
        let outs = design.block(m).expect("member").num_outputs();
        for port in 0..outs {
            merged.states.push(StateDecl {
                name: format!("net{j}_{port}"),
                init: BExpr::Bool(false),
            });
        }
    }
    for pin in 0..input_map.len() {
        merged.states.push(StateDecl {
            name: format!("latch_in{pin}"),
            init: BExpr::Bool(false),
        });
    }

    // Epilogue: copy exposed nets to physical output pins.
    let epilogue: Vec<Stmt> = output_map
        .iter()
        .enumerate()
        .map(|(pin, &(b, port))| {
            let j = member_pos(b).expect("output map holds members");
            Stmt::Assign(format!("out{pin}"), BExpr::var(format!("net{j}_{port}")))
        })
        .collect();

    // on input: latch pins, evaluate members in level order, drive pins.
    let mut on_input: Vec<Stmt> = (0..input_map.len())
        .map(|pin| Stmt::Assign(format!("latch_in{pin}"), BExpr::var(format!("in{pin}"))))
        .collect();
    for body in &input_bodies {
        on_input.extend(body.iter().cloned());
    }
    on_input.extend(epilogue.iter().cloned());
    merged.handlers.push(Handler {
        kind: HandlerKind::Input,
        body: on_input,
    });

    // on tick: advance timers and re-evaluate the whole tree.
    if any_tick {
        let mut on_tick: Vec<Stmt> = Vec::new();
        for (tick_body, input_body) in tick_bodies.iter().zip(&input_bodies) {
            on_tick.extend(tick_body.iter().cloned());
            on_tick.extend(input_body.iter().cloned());
        }
        on_tick.extend(epilogue.iter().cloned());
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
