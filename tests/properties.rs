//! Property-based tests over randomly generated designs, exercising the
//! core invariants end to end:
//!
//! * every partitioning result is structurally sound (`verify`),
//! * the optimal search is never beaten by a heuristic, its candidate sets
//!   are exactly the fitting subsets, and it reaches the objective of the
//!   paper's own enumeration,
//! * local rank computation equals full cut-cost recomputation,
//! * the incremental cut state agrees with a fresh one after every removal,
//!   and both with the §4 pin count taken straight from the design's wires,
//! * netlists round-trip,
//! * simulation is deterministic, and
//! * lint's abstract evaluation of an expression over single values is
//!   what the interpreter computes, faults included.

use eblocks::behavior::Expr;
use eblocks::core::{
    cut_cost, netlist, BitSet, BlockId, CutCost, CutState, Design, InnerIndex, ProgrammableSpec,
};
use eblocks::gen::{generate, generate_family, Family, GeneratorConfig};
use eblocks::partition::rank_of;
use eblocks::partition::{
    aggregation, anneal, candidate_sets, exhaustive, pare_down, refine, AnnealConfig,
    ExhaustiveOptions, PartitionConstraints,
};
use eblocks::place::{anneal_place, greedy_place, PlaceAnnealConfig, PlacementProblem, Topology};
use proptest::prelude::*;

fn small_design_strategy() -> impl Strategy<Value = (usize, u64)> {
    (1usize..=10, any::<u64>())
}

fn medium_design_strategy() -> impl Strategy<Value = (usize, u64)> {
    (1usize..=40, any::<u64>())
}

/// Designs up to 90 inner blocks, so member sets span two `BitSet` words.
const WIDE: usize = 90;

/// The §4 pin demand counted directly from the design's wires: distinct
/// `(block, port)` signals entering and leaving `members`.
fn reference_cut_cost(design: &Design, index: &InnerIndex, members: &BitSet) -> CutCost {
    use std::collections::HashSet;
    let inside = |b: BlockId| index.position(b).is_some_and(|p| members.contains(p));
    let mut entering = HashSet::new();
    let mut leaving = HashSet::new();
    for w in design.wires() {
        match (inside(w.from), inside(w.to)) {
            (false, true) => entering.insert((w.from, w.from_port)),
            (true, false) => leaving.insert((w.from, w.from_port)),
            _ => false,
        };
    }
    CutCost {
        inputs: entering.len(),
        outputs: leaving.len(),
    }
}

/// `design` rebuilt with its blocks added in the order of `keys`, so inner
/// positions need not follow the wires as they do in generated designs.
fn reordered(design: &Design, keys: &[u64]) -> Design {
    let mut blocks: Vec<BlockId> = design.blocks().collect();
    blocks.sort_by_key(|b| keys[b.index() % keys.len()]);
    let mut out = Design::new(design.name());
    let mut ids = std::collections::HashMap::new();
    for b in blocks {
        let block = design.block(b).expect("a block of the design");
        ids.insert(b, out.add_block(block.name(), block.kind()));
    }
    for w in design.wires() {
        out.connect((ids[&w.from], w.from_port), (ids[&w.to], w.to_port))
            .expect("the same wires connect");
    }
    out
}

/// §4.2's border test taken from the design's wires: every input or every
/// output of member `pos` connects outside `members`.
fn reference_is_border(design: &Design, index: &InnerIndex, members: &BitSet, pos: usize) -> bool {
    let inside = |b: BlockId| index.position(b).is_some_and(|p| members.contains(p));
    let block = index.block(pos);
    !design.in_wires(block).any(|w| inside(w.from))
        || !design.out_wires(block).any(|w| inside(w.to))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0xEB10C5))]

    #[test]
    fn pare_down_results_always_verify((inner, seed) in medium_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let constraints = PartitionConstraints::default();
        let result = pare_down(&design, &constraints);
        prop_assert!(result.verify(&design, &constraints).is_ok());
        prop_assert!(result.inner_total() <= inner);
    }

    #[test]
    fn aggregation_results_always_verify((inner, seed) in medium_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let constraints = PartitionConstraints::default();
        let result = aggregation(&design, &constraints);
        prop_assert!(result.verify(&design, &constraints).is_ok());
    }

    #[test]
    fn exhaustive_never_beaten((inner, seed) in small_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let constraints = PartitionConstraints::default();
        let opt = exhaustive(&design, &constraints, ExhaustiveOptions::default());
        prop_assert!(opt.is_complete());
        prop_assert!(opt.verify(&design, &constraints).is_ok());
        let pd = pare_down(&design, &constraints);
        let agg = aggregation(&design, &constraints);
        prop_assert!(opt.objective() <= pd.objective(), "pd {:?} < opt {:?}", pd.objective(), opt.objective());
        prop_assert!(opt.objective() <= agg.objective(), "agg {:?} < opt {:?}", agg.objective(), opt.objective());
    }

    #[test]
    fn rank_matches_recompute(
        (inner, seed) in (2usize..=WIDE, any::<u64>()),
        member_bits in prop::collection::vec(any::<bool>(), WIDE),
    ) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let index = InnerIndex::new(&design);
        let mut members = BitSet::new(index.len());
        for (i, &member) in member_bits.iter().enumerate().take(index.len()) {
            if member || i == 0 {
                members.insert(i);
            }
        }
        let before = cut_cost(&index, &members);
        prop_assert_eq!(before, reference_cut_cost(&design, &index, &members));
        for pos in members.iter() {
            let mut without = members.clone();
            without.remove(pos);
            let after = cut_cost(&index, &without).total() as i64;
            prop_assert_eq!(rank_of(&index, &members, pos), after - before.total() as i64);
        }
    }

    #[test]
    fn cut_state_tracks_every_removal(
        (inner, seed) in (2usize..=WIDE, any::<u64>()),
        block_keys in prop::collection::vec(any::<u64>(), WIDE),
        order_keys in prop::collection::vec(any::<u64>(), WIDE),
    ) {
        let design = reordered(&generate(&GeneratorConfig::new(inner), seed), &block_keys);
        let index = InnerIndex::new(&design);
        let mut order: Vec<usize> = (0..index.len()).collect();
        order.sort_by_key(|&pos| order_keys[pos]);
        let mut state = CutState::new(&index, &index.full_set());
        for pos in order {
            state.remove(pos);
            let fresh = CutState::new(&index, state.members());
            prop_assert_eq!(state.cost(), fresh.cost());
            prop_assert_eq!(state.cost(), reference_cut_cost(&design, &index, state.members()));
            for p in state.members().iter() {
                prop_assert_eq!(state.is_border(p), fresh.is_border(p));
                prop_assert_eq!(
                    state.is_border(p),
                    reference_is_border(&design, &index, state.members(), p)
                );
                prop_assert_eq!(state.rank(p), fresh.rank(p));
            }
        }
    }

    /// A synthesized netlist read back has programmable blocks driving and
    /// reading the inner blocks left over; the wiring table must treat them
    /// as outside ends like sensors and outputs.
    #[test]
    fn synthesized_netlists_cut_like_the_reference(
        (inner, seed) in (2usize..=30, any::<u64>()),
        member_bits in prop::collection::vec(any::<bool>(), 30),
    ) {
        use eblocks::{partition::strategy::PareDown, synth::Pipeline};
        let design = generate(&GeneratorConfig::new(inner), seed);
        let synthesized = Pipeline::new(&design)
            .run(&PareDown, false)
            .expect("synthesis")
            .synthesized;
        let back = netlist::from_netlist(&netlist::to_netlist(&synthesized)).expect("read back");
        let index = InnerIndex::new(&back);
        let mut members = BitSet::new(index.len());
        for i in (0..index.len()).filter(|&i| member_bits[i]) {
            members.insert(i);
        }
        let state = CutState::new(&index, &members);
        let before = reference_cut_cost(&back, &index, &members);
        prop_assert_eq!(state.cost(), before);
        for pos in members.iter() {
            prop_assert_eq!(state.is_border(pos), reference_is_border(&back, &index, &members, pos));
            let mut without = members.clone();
            without.remove(pos);
            let after = reference_cut_cost(&back, &index, &without);
            prop_assert_eq!(state.rank(pos), after.total() as i64 - before.total() as i64);
        }
    }

    #[test]
    fn netlist_roundtrips((inner, seed) in medium_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let text = netlist::to_netlist(&design);
        let back = netlist::from_netlist(&text).expect("canonical netlists parse");
        prop_assert_eq!(netlist::to_netlist(&back), text);
        prop_assert_eq!(back.num_blocks(), design.num_blocks());
        prop_assert_eq!(back.num_wires(), design.num_wires());
    }

    #[test]
    fn partitions_cover_each_inner_block_once((inner, seed) in medium_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let result = pare_down(&design, &PartitionConstraints::default());
        let mut seen = std::collections::HashSet::new();
        for p in result.partitions() {
            for &b in p {
                prop_assert!(seen.insert(b), "block assigned twice");
            }
        }
        for &b in result.uncovered() {
            prop_assert!(seen.insert(b), "uncovered block also in a partition");
        }
        prop_assert_eq!(seen.len(), inner);
    }

    #[test]
    fn simulation_is_deterministic((inner, seed) in (1usize..=12, any::<u64>())) {
        use eblocks::sim::Simulator;
        use eblocks::synth::exercise_all_sensors;
        let design = generate(&GeneratorConfig::new(inner), seed);
        let sim = Simulator::new(&design).expect("generated designs simulate");
        let stim = exercise_all_sensors(&design, 16);
        let horizon = stim.end_time().unwrap_or(0) + 32;
        let a = sim.run(&stim, horizon).expect("run");
        let b = sim.run(&stim, horizon).expect("run");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn levels_monotone_along_wires((inner, seed) in medium_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let levels = eblocks::core::levels(&design);
        for w in design.wires() {
            prop_assert!(levels[w.to.index()] > levels[w.from.index()], "levels must increase along wires");
        }
    }
}

proptest! {
    // Synthesis with verification co-simulates two networks per case;
    // keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0xEB10C5))]

    #[test]
    fn synthesis_preserves_behavior((inner, seed) in (1usize..=14, any::<u64>())) {
        use eblocks::{partition::strategy::PareDown, synth::Pipeline};
        let design = generate(&GeneratorConfig::new(inner), seed);
        // Verification makes divergence an Err, so success IS the property.
        let result = Pipeline::new(&design).run(&PareDown, true);
        prop_assert!(result.is_ok(), "synthesis failed: {:?}", result.err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0xEB10C5))]

    /// Deterministic local refinement never worsens any heuristic's result
    /// and always stays structurally sound.
    #[test]
    fn refine_never_worsens((inner, seed) in medium_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let constraints = PartitionConstraints::default();
        for initial in [pare_down(&design, &constraints), aggregation(&design, &constraints)] {
            let (refined, report) = refine(&design, &constraints, &initial);
            prop_assert!(refined.verify(&design, &constraints).is_ok());
            prop_assert!(refined.objective() <= initial.objective());
            prop_assert_eq!(
                initial.inner_total() - refined.inner_total(),
                report.improvement(),
                "each move reduces the total by exactly one"
            );
        }
    }

    /// The annealer's repaired output verifies and, when seeded with
    /// PareDown, never loses to it.
    #[test]
    fn anneal_verifies_and_never_worse_than_seed((inner, seed) in (1usize..=25, any::<u64>())) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let constraints = PartitionConstraints::default();
        let config = AnnealConfig { iterations: 2_000, seed, ..Default::default() };
        let result = anneal(&design, &constraints, &config);
        prop_assert!(result.verify(&design, &constraints).is_ok());
        prop_assert!(result.objective() <= pare_down(&design, &constraints).objective());
    }

    /// The optimum lower-bounds every extension tier too.
    #[test]
    fn exhaustive_never_beaten_by_extensions((inner, seed) in small_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let constraints = PartitionConstraints::default();
        let opt = exhaustive(&design, &constraints, ExhaustiveOptions::default());
        let (refined, _) = refine(&design, &constraints, &pare_down(&design, &constraints));
        let annealed = anneal(&design, &constraints, &AnnealConfig { iterations: 2_000, seed, ..Default::default() });
        prop_assert!(opt.objective() <= refined.objective());
        prop_assert!(opt.objective() <= annealed.objective());
    }

    /// Every structured family generates valid designs whose partitioning
    /// results verify.
    #[test]
    fn families_generate_partitionable_designs(
        (inner, seed) in (0usize..=30, any::<u64>()),
        family_index in 0usize..5,
    ) {
        let family = Family::ALL[family_index];
        let design = generate_family(family, inner, seed);
        prop_assert!(design.validate().is_ok(), "{} must validate", family.name());
        prop_assert_eq!(design.inner_blocks().count(), inner);
        let constraints = PartitionConstraints::default();
        let result = pare_down(&design, &constraints);
        prop_assert!(result.verify(&design, &constraints).is_ok());
    }

    /// Greedy placement of any generated design on a sufficient grid is
    /// complete, capacity-respecting, and fully routable; annealing never
    /// regresses its cost.
    #[test]
    fn placement_is_sound((inner, seed) in (0usize..=20, any::<u64>())) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let side = (design.num_blocks() as f64).sqrt().ceil() as usize + 1;
        let topo = Topology::grid(side, side);
        let problem = PlacementProblem::new(&design, &topo).expect("grid sized to fit");
        let greedy = greedy_place(&problem).expect("grid is connected");
        prop_assert!(greedy.verify(&problem).is_ok());
        let greedy_cost = greedy.cost(&problem).expect("routable");
        let annealed = anneal_place(
            &problem,
            &PlaceAnnealConfig { iterations: 1_000, seed },
        ).expect("seeded from greedy");
        prop_assert!(annealed.verify(&problem).is_ok());
        prop_assert!(annealed.cost(&problem).expect("routable") <= greedy_cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32).with_rng_seed(0xEB10C5))]

    /// Route extraction is consistent with the placement cost, and every
    /// route is a genuine shortest path.
    #[test]
    fn routing_matches_cost((inner, seed) in (0usize..=15, any::<u64>())) {
        use eblocks::place::route;
        let design = generate(&GeneratorConfig::new(inner), seed);
        let side = (design.num_blocks() as f64).sqrt().ceil() as usize + 1;
        let topo = Topology::grid(side, side);
        let problem = PlacementProblem::new(&design, &topo).expect("sized to fit");
        let placement = greedy_place(&problem).expect("connected grid");
        let report = route(&problem, &placement).expect("routable");
        prop_assert_eq!(report.total_hops(), placement.cost(&problem).expect("routable"));
        for r in &report.routes {
            let from = placement.site_of(r.from).expect("placed");
            let to = placement.site_of(r.to).expect("placed");
            prop_assert_eq!(r.hops(), topo.distance(from, to).expect("connected"));
        }
        // Link loads sum to total hops (each hop crosses exactly one link).
        let load_sum: usize = report.link_load.values().sum();
        prop_assert_eq!(load_sum, report.total_hops());
    }

    /// Arbitrary fault plans never crash the simulator, and an empty plan
    /// is an exact no-op.
    #[test]
    fn fault_plans_are_robust(
        (inner, seed) in (1usize..=12, any::<u64>()),
        stuck_mask in any::<u8>(),
        stuck_value in any::<bool>(),
    ) {
        use eblocks::sim::{Fault, FaultPlan, Simulator};
        use eblocks::synth::exercise_all_sensors;
        let design = generate(&GeneratorConfig::new(inner), seed);
        let sim = Simulator::new(&design).expect("generated designs simulate");
        let stim = exercise_all_sensors(&design, 16);
        let until = stim.end_time().unwrap_or(0) + 32;

        let empty = sim.run_with_faults(&stim, until, &FaultPlan::new()).expect("runs");
        prop_assert_eq!(&empty, &sim.run(&stim, until).expect("runs"));

        let mut plan = FaultPlan::new();
        for (i, sensor) in design.sensors().enumerate() {
            if stuck_mask & (1 << (i % 8)) != 0 {
                let name = design.block(sensor).expect("sensor").name().to_string();
                plan = plan.with(Fault::StuckAt { block: name, value: stuck_value });
            }
        }
        // Whatever the plan, the run completes and yields a trace.
        let faulty = sim.run_with_faults(&stim, until, &plan).expect("faulty runs complete");
        let _ = faulty.packet_count();
    }
}

/// `constraints` as given, convex, and connected.
/// Literals of either type, integers at the edges of overflow included.
fn literal_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<bool>().prop_map(Expr::Bool),
        (-3i64..=3).prop_map(Expr::Int),
        prop_oneof![Just(i64::MAX), Just(i64::MIN), Just(i64::MAX / 2 + 1)].prop_map(Expr::Int),
    ]
}

/// The states the generated expressions read: `s0` and `s1` boolean, `s2`
/// and `s3` any literal.
fn states_strategy() -> impl Strategy<Value = Vec<Expr>> {
    (
        any::<bool>(),
        any::<bool>(),
        literal_strategy(),
        literal_strategy(),
    )
        .prop_map(|(a, b, c, d)| vec![Expr::Bool(a), Expr::Bool(b), c, d])
}

/// Expressions over literals and the states `s0`…`s3`: every operator, so
/// overflow, division by zero and type mismatches all occur, with booleans
/// and `&&`/`||` weighted up so that short-circuits decide often.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    use eblocks::behavior::{BinOp::*, UnOp};
    let var = |k: usize| Expr::var(format!("s{k}"));
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Bool),
        literal_strategy(),
        (0..2usize).prop_map(var),
        (0..4usize).prop_map(var),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        let logic = prop_oneof![Just(Or), Just(And)];
        let any_op = prop_oneof![
            Just(Or),
            Just(And),
            Just(Eq),
            Just(Ne),
            Just(Lt),
            Just(Le),
            Just(Gt),
            Just(Ge),
            Just(Add),
            Just(Sub),
            Just(Mul),
            Just(Div),
            Just(Rem),
        ];
        prop_oneof![
            (prop_oneof![Just(UnOp::Not), Just(UnOp::Neg)], inner.clone())
                .prop_map(|(op, e)| Expr::unary(op, e)),
            (logic, inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            (any_op, inner.clone(), inner).prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        ]
    })
}

fn structural_variants(constraints: PartitionConstraints) -> [PartitionConstraints; 3] {
    [
        constraints,
        PartitionConstraints {
            require_convex: true,
            ..constraints
        },
        PartitionConstraints {
            require_connected: true,
            ..constraints
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0xEB10C5))]

    /// The candidate enumeration keeps exactly the subsets a brute-force
    /// filter keeps (two or more members that fit), in order of lowest
    /// member: its pin-bound pruning never drops a set. Budgets 1/1, 2/2,
    /// 3/3 and 4/2, each plain, convex and connected.
    #[test]
    fn candidate_sets_match_brute_force((inner, seed) in small_design_strategy()) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let index = InnerIndex::new(&design);
        let members = |set: &BitSet| set.iter().collect::<Vec<_>>();
        for (inputs, outputs) in [(1, 1), (2, 2), (3, 3), (4, 2)] {
            let budget = PartitionConstraints::with_spec(ProgrammableSpec::new(inputs, outputs));
            for constraints in structural_variants(budget) {
                let found: Vec<Vec<usize>> =
                    candidate_sets(&design, &index, &constraints).iter().map(members).collect();
                prop_assert!(found.is_sorted_by_key(|set| set[0]), "in order of lowest member");
                let mut brute = Vec::new();
                for mask in 0u32..1 << index.len() {
                    let mut subset = index.empty_set();
                    subset.extend((0..index.len()).filter(|&p| mask >> p & 1 == 1));
                    if subset.len() >= 2 && constraints.fits(&design, &index, &subset) {
                        brute.push(members(&subset));
                    }
                }
                let mut sorted = found.clone();
                sorted.sort();
                brute.sort();
                prop_assert_eq!(sorted, brute, "{:?}", constraints);
            }
        }
    }

    /// The cover search reaches the objective of the paper's §4.1
    /// enumeration, plain, convex and connected.
    #[test]
    fn exhaustive_matches_the_paper_search((inner, seed) in (1usize..=9, any::<u64>())) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        for constraints in structural_variants(PartitionConstraints::default()) {
            let cover = exhaustive(&design, &constraints, ExhaustiveOptions::default());
            let paper = exhaustive(
                &design,
                &constraints,
                ExhaustiveOptions { paper_pruning_only: true, ..Default::default() },
            );
            prop_assert!(cover.is_complete() && paper.is_complete());
            prop_assert!(cover.verify(&design, &constraints).is_ok());
            prop_assert!(paper.verify(&design, &constraints).is_ok());
            prop_assert_eq!(cover.objective(), paper.objective(), "{:?}", constraints);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512).with_rng_seed(0xEB10C5))]

    /// Over singleton value sets, lint's `dataflow::eval` is the
    /// interpreter: `{v}` when a machine evaluates the expression to `v`,
    /// ⊥ when the machine faults.
    #[test]
    fn dataflow_eval_agrees_with_the_machine(
        inits in states_strategy(),
        expr in expr_strategy(),
    ) {
        use eblocks::behavior::{Compiled, Handler, HandlerKind, Machine, Program, StateDecl, Stmt};
        use eblocks::lint::dataflow::{eval, ValueSet};
        let states: Vec<StateDecl> = inits
            .into_iter()
            .enumerate()
            .map(|(k, init)| StateDecl { name: format!("s{k}"), init })
            .collect();
        let env = states
            .iter()
            .map(|st| (st.name.clone(), ValueSet::just(st.init.literal().expect("a literal"))))
            .collect();
        let program = Program {
            states,
            handlers: vec![Handler {
                kind: HandlerKind::Input,
                body: vec![Stmt::Assign("out0".into(), expr.clone())],
            }],
        };
        let code = Compiled::new(&program);
        let expected = match Machine::new(&code).on_input(&[]) {
            Ok(outputs) => ValueSet::just(outputs.get(0).expect("out0 is assigned")),
            Err(_) => ValueSet::bottom(),
        };
        prop_assert_eq!(eval(&expr, &env), expected, "{}", expr);
    }
}
