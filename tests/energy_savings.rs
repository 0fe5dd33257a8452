//! The paper's headline power claim, as an invariant: under the same
//! stimulus, the synthesized network never transmits more packets than the
//! original (merged wires become variable accesses), and transmits strictly
//! fewer whenever a partition actually internalized a wire.

use eblocks::sim::{estimate_energy, EnergyModel, Simulator};
use eblocks::synth::{exercise_all_sensors, synthesize, SynthesisOptions};

#[test]
fn synthesis_never_increases_transmissions() {
    for entry in eblocks::designs::all() {
        let design = entry.design;
        let result = synthesize(&design, &SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let stim = exercise_all_sensors(&design, 64);
        let until = stim.end_time().unwrap_or(0) + 128;

        let before = Simulator::new(&design)
            .unwrap()
            .run(&stim, until)
            .unwrap()
            .total_transmissions();
        let after = Simulator::with_programs(&result.synthesized, &result.programs)
            .unwrap()
            .run(&stim, until)
            .unwrap()
            .total_transmissions();

        assert!(
            after <= before,
            "{}: synthesized network transmits more ({after} > {before})",
            entry.name
        );
        // A partition that covers a wire must remove at least that wire's
        // traffic — except when every covered wire was silent under the
        // stimulus, which the exercise-all-sensors stimulus rules out for
        // these designs.
        if result.synthesized.num_wires() < design.num_wires() {
            assert!(
                after < before,
                "{}: wires were internalized but traffic did not drop",
                entry.name
            );
        }
    }
}

#[test]
fn energy_totals_follow_transmissions() {
    let design = eblocks::designs::podium_timer_3();
    let result = synthesize(&design, &SynthesisOptions::default()).unwrap();
    let stim = exercise_all_sensors(&design, 64);
    let until = stim.end_time().unwrap_or(0) + 128;
    let model = EnergyModel::default();

    let before_trace = Simulator::new(&design).unwrap().run(&stim, until).unwrap();
    let after_trace = Simulator::with_programs(&result.synthesized, &result.programs)
        .unwrap()
        .run(&stim, until)
        .unwrap();
    let before = estimate_energy(&design, &before_trace, &model, until);
    let after = estimate_energy(&result.synthesized, &after_trace, &model, until);

    assert!(after.total_nj() < before.total_nj());
    assert!(after.idle_nj < before.idle_nj, "fewer blocks idle for less");
    assert!(after.transmission_nj < before.transmission_nj);
}
