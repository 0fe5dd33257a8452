//! Property tests for the behavior language: pretty-print/parse round-trips
//! over generated syntax trees, and interpreter robustness (checked programs
//! never fault on boolean inputs... except by arithmetic, which the checker
//! does not model).

use eblocks_behavior::{
    check, parse, BinOp, Expr, Handler, HandlerKind, Program, StateDecl, Stmt, UnOp,
};
use proptest::prelude::*;

/// Identifiers that cannot collide with keywords or port names.
fn ident_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("alpha".to_string()),
        Just("beta".to_string()),
        Just("gamma_1".to_string()),
        Just("_under".to_string()),
        Just("q".to_string()),
        Just("prev_value".to_string()),
    ]
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<bool>().prop_map(Expr::Bool),
        (0i64..1000).prop_map(Expr::Int),
        ident_strategy().prop_map(Expr::Var),
        (0u8..4).prop_map(|p| Expr::Var(format!("in{p}"))),
    ]
}

fn binop_strategy() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Or),
        Just(BinOp::And),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (prop_oneof![Just(UnOp::Not), Just(UnOp::Neg)], inner.clone())
                .prop_map(|(op, e)| Expr::unary(op, e)),
            (binop_strategy(), inner.clone(), inner).prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let assign = prop_oneof![
        (ident_strategy(), expr_strategy()).prop_map(|(n, e)| Stmt::Assign(n, e)),
        (ident_strategy(), expr_strategy()).prop_map(|(n, e)| Stmt::Let(n, e)),
        (0u8..3, expr_strategy()).prop_map(|(p, e)| Stmt::Assign(format!("out{p}"), e)),
    ];
    assign.prop_recursive(3, 16, 3, |inner| {
        (
            expr_strategy(),
            prop::collection::vec(inner.clone(), 0..3),
            prop::collection::vec(inner, 0..2),
        )
            .prop_map(|(c, a, b)| Stmt::If(c, a, b))
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(
            (
                ident_strategy(),
                prop_oneof![
                    any::<bool>().prop_map(Expr::Bool),
                    (0i64..100).prop_map(Expr::Int),
                ],
            )
                .prop_map(|(name, init)| StateDecl { name, init }),
            0..3,
        ),
        prop::collection::vec(stmt_strategy(), 0..5),
        prop::collection::vec(stmt_strategy(), 0..3),
    )
        .prop_map(|(states, input_body, tick_body)| Program {
            states,
            handlers: vec![
                Handler {
                    kind: HandlerKind::Input,
                    body: input_body,
                },
                Handler {
                    kind: HandlerKind::Tick,
                    body: tick_body,
                },
            ],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256).with_rng_seed(0xEB10C5))]

    /// Pretty-printing any AST and reparsing yields the identical AST —
    /// printing is injective and parsing inverts it (precedence and
    /// parenthesization are correct in both directions).
    #[test]
    fn display_parse_roundtrip(program in program_strategy()) {
        let printed = program.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(reparsed, program);
    }

    /// Expression printing alone round-trips (tighter loop for shrinkage).
    #[test]
    fn expr_roundtrip(expr in expr_strategy()) {
        let text = format!("on input {{ out0 = {expr}; }}");
        let program = parse(&text).unwrap();
        let Stmt::Assign(_, parsed) = &program.handlers[0].body[0] else {
            panic!("expected assignment");
        };
        prop_assert_eq!(parsed, &expr);
    }

    /// Renaming with a prefix then stripping it is the identity.
    #[test]
    fn rename_is_reversible(program in program_strategy()) {
        let mut renamed = program.clone();
        renamed.rename_vars(|v| Some(format!("pfx_{v}")));
        renamed.rename_vars(|v| v.strip_prefix("pfx_").map(str::to_string));
        prop_assert_eq!(renamed, program);
    }

    /// The checker never panics, whatever the tree shape.
    #[test]
    fn check_total(program in program_strategy()) {
        let _ = check(&program, 4, 3);
        let _ = check(&program, 0, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0xEB10C5))]

    /// Lexer/parser never panic on arbitrary input strings (errors only).
    #[test]
    fn parser_total_on_garbage(input in "\\PC*") {
        let _ = parse(&input);
    }

    /// ... including strings made of language-ish fragments.
    #[test]
    fn parser_total_on_fragmentish(parts in prop::collection::vec(
        prop_oneof![
            Just("state"), Just("on input"), Just("{"), Just("}"),
            Just("="), Just(";"), Just("if"), Just("else"), Just("&&"),
            Just("x"), Just("in0"), Just("out0"), Just("42"), Just("!"),
        ],
        0..24,
    )) {
        let input = parts.join(" ");
        let _ = parse(&input);
    }
}

mod optimizer_equivalence {
    use super::*;
    use eblocks_behavior::{optimize, Compiled, Machine, Value};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192).with_rng_seed(0xEB10C5))]

        /// Optimization preserves behavior: the optimized machine produces
        /// the same outputs on a random boolean input sequence, and faults
        /// whenever the original faults — even for programs that fail the
        /// static checks (faulting runs must keep faulting).
        #[test]
        fn optimized_machine_equivalent(
            program in program_strategy(),
            inputs in prop::collection::vec(prop::collection::vec(any::<bool>(), 4), 1..6),
        ) {
            let optimized = optimize(&program);
            if check(&program, 4, 3).is_empty() {
                prop_assert!(
                    check(&optimized, 4, 3).is_empty(),
                    "optimization must not break static checks"
                );
            }
            let (original_code, optimized_code) = (Compiled::new(&program), Compiled::new(&optimized));
            let mut original = Machine::new(&original_code);
            let mut better = Machine::new(&optimized_code);
            for step in &inputs {
                let vals: Vec<Value> = step.iter().map(|&b| Value::Bool(b)).collect();
                let a = original.on_input(&vals);
                let b = better.on_input(&vals);
                match (a, b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                    (Err(_), Err(_)) => return Ok(()), // both fault: done
                    (x, y) => prop_assert!(false, "divergent fault: {x:?} vs {y:?}"),
                }
                let at = original.on_tick();
                let bt = better.on_tick();
                match (at, bt) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                    (Err(_), Err(_)) => return Ok(()),
                    (x, y) => prop_assert!(false, "divergent tick fault: {x:?} vs {y:?}"),
                }
            }
        }
    }
}

mod tick_fixpoint {
    use super::*;
    use eblocks_behavior::{Compiled, Machine, Value};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192).with_rng_seed(0xF1C5))]

        /// A machine skips a tick that would repeat a state-preserving
        /// tick. The same program with a tick counter prepended changes its
        /// state on every tick, so it never skips; the two must agree on
        /// every call, faults included.
        #[test]
        fn skipped_ticks_match_rerun_ticks(
            program in program_strategy(),
            inputs in prop::collection::vec(prop::collection::vec(any::<bool>(), 4), 1..6),
        ) {
            let mut counted = program.clone();
            counted.states.push(StateDecl { name: "tick_count".into(), init: Expr::Int(0) });
            if let Some(tick) = counted.handlers.iter_mut().find(|h| h.kind == HandlerKind::Tick) {
                let count = Expr::binary(BinOp::Add, Expr::var("tick_count"), Expr::Int(1));
                tick.body.insert(0, Stmt::Assign("tick_count".into(), count));
            }
            let (code, counted_code) = (Compiled::new(&program), Compiled::new(&counted));
            let mut skipping = Machine::new(&code);
            let mut rerunning = Machine::new(&counted_code);
            for step in &inputs {
                let vals: Vec<Value> = step.iter().map(|&b| Value::Bool(b)).collect();
                match (skipping.on_input(&vals), rerunning.on_input(&vals)) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                    (Err(x), Err(y)) => { prop_assert_eq!(x, y); return Ok(()); }
                    (x, y) => prop_assert!(false, "divergent fault: {x:?} vs {y:?}"),
                }
                for _ in 0..3 {
                    match (skipping.on_tick(), rerunning.on_tick()) {
                        (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                        (Err(x), Err(y)) => { prop_assert_eq!(x, y); return Ok(()); }
                        (x, y) => prop_assert!(false, "divergent tick fault: {x:?} vs {y:?}"),
                    }
                }
            }
        }
    }
}
