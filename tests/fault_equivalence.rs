//! Fault injection across synthesis.
//!
//! A stuck sensor is just a different input sequence, so a behaviorally
//! equivalent synthesized network must react to it exactly like the
//! original. These tests apply the same [`FaultPlan`] to both sides of a
//! synthesis run (fault plans address blocks by *name*, and sensors keep
//! their names through synthesis) and require the settled outputs to agree
//! — i.e. synthesis preserves behavior even in degraded environments, and
//! the fault machinery itself is not vacuous (the faulty trace must differ
//! from the healthy one).

use eblocks::sim::{Fault, FaultPlan, Simulator, Stimulus, Time, Trace};
use eblocks::synth::{exercise_all_sensors, synthesize, SynthesisOptions};

const SPACING: Time = 64;
const SETTLE: Time = 16;

/// Settled value of every output at the horizon (idle-low default).
fn settled_outputs(trace: &Trace) -> Vec<(String, bool)> {
    let mut outs: Vec<(String, bool)> = trace
        .outputs()
        .map(|o| (o.to_string(), trace.final_value(o).unwrap_or(false)))
        .collect();
    outs.sort();
    outs
}

fn horizon(stim: &Stimulus) -> Time {
    stim.end_time().unwrap_or(0) + 2 * SETTLE
}

#[test]
fn stuck_sensor_behaves_identically_before_and_after_synthesis() {
    for entry in eblocks::designs::all() {
        let design = entry.design;
        let result = match synthesize(&design, &SynthesisOptions::default()) {
            Ok(r) => r,
            Err(e) => panic!("{}: synthesis failed: {e}", entry.name),
        };
        let original = Simulator::new(&design).expect("original simulates");
        let synthesized = Simulator::with_programs(&result.synthesized, &result.programs)
            .expect("synthesized simulates");

        let stim = exercise_all_sensors(&design, SPACING);
        let until = horizon(&stim);

        // Stick the first sensor high on both sides.
        let first_sensor = design
            .sensors()
            .next()
            .map(|s| design.block(s).expect("sensor").name().to_string())
            .expect("library designs have sensors");
        let plan = FaultPlan::new().with(Fault::StuckAt {
            block: first_sensor.clone(),
            value: true,
        });

        let left = original
            .run_with_faults(&stim, until, &plan)
            .unwrap_or_else(|e| panic!("{}: original faulty run: {e}", entry.name));
        let right = synthesized
            .run_with_faults(&stim, until, &plan)
            .unwrap_or_else(|e| panic!("{}: synthesized faulty run: {e}", entry.name));
        assert_eq!(
            settled_outputs(&left),
            settled_outputs(&right),
            "{}: stuck {first_sensor} diverges across synthesis",
            entry.name
        );
    }
}

#[test]
fn faults_are_observable_somewhere_in_the_library() {
    // The fault machinery must not be a no-op: across the library, sticking
    // a sensor high changes at least one design's settled outputs.
    let mut observable = 0usize;
    for entry in eblocks::designs::all() {
        let design = entry.design;
        let sim = Simulator::new(&design).expect("simulates");
        let stim = exercise_all_sensors(&design, SPACING);
        let until = horizon(&stim);
        let healthy = sim.run(&stim, until).expect("healthy run");

        for sensor in design.sensors() {
            let name = design.block(sensor).expect("sensor").name().to_string();
            let plan = FaultPlan::new().with(Fault::StuckAt {
                block: name,
                value: true,
            });
            let faulty = sim
                .run_with_faults(&stim, until, &plan)
                .expect("faulty run");
            if settled_outputs(&healthy) != settled_outputs(&faulty) {
                observable += 1;
            }
        }
    }
    assert!(
        observable >= 5,
        "expected stuck-at faults to be observable in several designs, saw {observable}"
    );
}

#[test]
fn lossy_comm_block_degrades_only_its_cone() {
    // btn1 -> radio -> led1 and btn2 -> led2 (wired): killing the radio
    // must silence led1 while led2 keeps working.
    let mut d = eblocks::core::Design::new("two-rooms");
    let b1 = d.add_block("btn1", eblocks::core::SensorKind::Button);
    let radio = d.add_block("radio", eblocks::core::CommKind::WirelessTx);
    let l1 = d.add_block("led1", eblocks::core::OutputKind::Led);
    let b2 = d.add_block("btn2", eblocks::core::SensorKind::Button);
    let l2 = d.add_block("led2", eblocks::core::OutputKind::Led);
    d.connect((b1, 0), (radio, 0)).unwrap();
    d.connect((radio, 0), (l1, 0)).unwrap();
    d.connect((b2, 0), (l2, 0)).unwrap();

    let sim = Simulator::new(&d).unwrap();
    let stim = Stimulus::new().set(20, "btn1", true).set(20, "btn2", true);
    let plan = FaultPlan::new().with(Fault::DropPackets {
        block: "radio".into(),
        from: 10,
        to: Time::MAX,
    });
    let faulty = sim.run_with_faults(&stim, 100, &plan).unwrap();
    assert_eq!(
        faulty.final_value("led1"),
        Some(false),
        "behind the dead radio"
    );
    assert_eq!(faulty.final_value("led2"), Some(true), "unaffected path");
}
