//! Parked ticks against an oracle recorded from a runner that never parked.
//!
//! Whole runs and stepped [`NodeRunner`] runs stop ticking a block whose
//! machine has settled and resume it on the tick grid when an input next
//! reaches it. Parking must not change a trace — any output history or
//! transmission count — on generated designs and their synthesized
//! networks, across tick periods, comm latencies and packet faults.
//!
//! `tests/golden/parked-ticks.txt` holds, for every pinned case and each of
//! its 36 configurations, a digest of the trace a stepped runner that ticked
//! on every grid instant produced. Both runs must reproduce it. The trace
//! is rendered through its public queries ([`Trace::outputs`],
//! [`Trace::history`], [`Trace::transmissions_by_block`]), so the digests
//! do not depend on how a trace stores or prints itself.

use eblocks::behavior::{library, Program};
use eblocks::core::{BlockId, BlockKind, Design};
use eblocks::gen::{generate, GeneratorConfig};
use eblocks::partition::strategy::PareDown;
use eblocks::sim::{Fault, FaultPlan, NodeRunner, Simulator, Stimulus, Time, Trace};
use eblocks::synth::{exercise_all_sensors, Pipeline, SynthError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::LazyLock;

/// Steps `sim` instant by instant to `until`.
fn stepped(sim: &Simulator, stim: &Stimulus, until: Time, plan: &FaultPlan) -> Trace {
    let mut node = NodeRunner::with_faults(sim, plan).expect("runner builds");
    node.load_stimulus(stim).expect("stimulus resolves");
    while let Some(t) = node.next_event_time() {
        if t > until {
            break;
        }
        node.step_at(t, until).expect("step runs");
    }
    node.finish()
}

/// Each output's history, then each block's transmission count.
fn render(trace: &Trace) -> String {
    let mut text = String::new();
    for output in trace.outputs() {
        text.push_str(output);
        for &(t, value) in trace.history(output) {
            write!(text, " {t}:{}", u8::from(value)).expect("writes to a string");
        }
        text.push('\n');
    }
    for (block, count) in trace.transmissions_by_block() {
        writeln!(text, "{block} sent {count}").expect("writes to a string");
    }
    text
}

/// FNV-1a over the rendered trace.
fn digest(trace: &Trace) -> u64 {
    render(trace)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The recorded digests, by the case's inputs as the golden writes them.
static ORACLE: LazyLock<HashMap<String, Vec<u64>>> = LazyLock::new(|| {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/parked-ticks.txt");
    let text = std::fs::read_to_string(path).expect("committed golden");
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let (key, digests) = fields.split_at(6);
            let digests = digests
                .iter()
                .map(|d| u64::from_str_radix(d, 16).expect("hex digest"))
                .collect();
            (key.join(" "), digests)
        })
        .collect()
});

/// Names of the blocks that run an `on tick` handler, in id order.
fn tick_driven(design: &Design, programs: &HashMap<BlockId, Program>) -> Vec<String> {
    design
        .blocks()
        .filter(|id| match design.block(*id).expect("block").kind() {
            BlockKind::Compute(kind) => library::code_for(kind).program().uses_tick(),
            BlockKind::Programmable(_) => programs[id].uses_tick(),
            _ => false,
        })
        .map(|id| design.block(id).expect("block").name().to_string())
        .collect()
}

/// Names of the blocks that send packets, in id order.
fn senders(design: &Design) -> Vec<String> {
    design
        .blocks()
        .map(|id| design.block(id).expect("block"))
        .filter(|block| block.num_outputs() > 0)
        .map(|block| block.name().to_string())
        .collect()
}

/// No faults, a delay window on a tick-driven block (any sender when the
/// design has none), and a drop window.
fn fault_plans(
    design: &Design,
    programs: &HashMap<BlockId, Program>,
    pick: usize,
    window: (Time, Time),
    extra: Time,
) -> [FaultPlan; 3] {
    let senders = senders(design);
    let dropped = senders[pick % senders.len()].clone();
    let ticking = tick_driven(design, programs);
    let delayed = if ticking.is_empty() {
        dropped.clone()
    } else {
        ticking[pick % ticking.len()].clone()
    };
    let (from, to) = window;
    [
        FaultPlan::new(),
        FaultPlan::new().with(Fault::DelayPackets {
            block: delayed,
            from,
            to,
            extra,
        }),
        FaultPlan::new().with(Fault::DropPackets {
            block: dropped,
            from,
            to,
        }),
    ]
}

proptest! {
    // Each case runs 36 pairs of simulations (two networks, three periods,
    // two latencies, three fault plans).
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0xEB10C5))]

    #[test]
    fn parked_runs_match_stepped_runs(
        (inner, seed) in (3usize..=25, any::<u64>()),
        pick in any::<usize>(),
        start in 0u64..100,
        span in 1u64..200,
        extra in 1u64..40,
    ) {
        let design = generate(&GeneratorConfig::new(inner), seed);
        let result = Pipeline::new(&design).run(&PareDown, false).expect("synthesis runs");
        let no_programs = HashMap::new();
        let networks = [
            (&design, &no_programs),
            (&result.synthesized, &result.programs),
        ];
        let stim = exercise_all_sensors(&design, 24);
        let until = stim.end_time().unwrap_or(0) + 96;
        let window = (start, start + span);
        let key = format!("{inner} {seed} {pick} {start} {span} {extra}");
        let recorded = ORACLE.get(&key);
        prop_assert!(recorded.is_some(), "no recorded digests for case `{}`", key);
        let mut recorded = recorded.expect("checked above").iter();
        for (network, programs) in networks {
            let base = Simulator::with_programs(network, programs).expect("network simulates");
            for plan in fault_plans(network, programs, pick, window, extra) {
                for tick_period in [1, 3, 7] {
                    for comm_latency in [0, 3] {
                        let mut sim = base.clone();
                        sim.tick_period = tick_period;
                        sim.comm_latency = comm_latency;
                        let whole = sim.run_with_faults(&stim, until, &plan).expect("run");
                        let steps = stepped(&sim, &stim, until, &plan);
                        let expected = *recorded.next().expect("36 digests per case");
                        let config = format!(
                            "{} period {} latency {} plan {:?}",
                            network.name(),
                            tick_period,
                            comm_latency,
                            plan
                        );
                        prop_assert_eq!(digest(&whole), expected, "whole run, {}", &config);
                        prop_assert_eq!(digest(&steps), expected, "stepped run, {}", &config);
                        prop_assert_eq!(&whole, &steps, "{}", &config);
                    }
                }
            }
        }
    }
}

/// A generated design that verify rejects: PareDown merges one leg of a
/// reconvergent XOR into a pulse's partition, and a trip latches the
/// difference. Parking must not move the verdict or the mismatching
/// samples.
#[test]
fn known_divergent_design_still_mismatches_at_55_of_97_samples() {
    let design = generate(&GeneratorConfig::new(43), 1089746);
    let err = Pipeline::new(&design)
        .run(&PareDown, true)
        .expect_err("verify rejects this design");
    let SynthError::VerificationFailed { report } = err else {
        panic!("expected a verification failure, got {err}");
    };
    assert_eq!(report.sample_times.len(), 97);
    assert_eq!(report.mismatches.len(), 55);
}
