//! Scenario tests for the paper's §1 motivating systems: each design's
//! narrative behavior ("notify ... of a sleepwalking child") holds in
//! simulation, before and after synthesis.

use eblocks::designs::{
    all_intro, conference_room_detector, mailroom_notifier, sleepwalk_detector,
};
use eblocks::partition::strategy::PareDown;
use eblocks::sim::{Simulator, Stimulus};
use eblocks::synth::Pipeline;

#[test]
fn sleepwalk_detector_only_fires_in_the_dark() {
    let d = sleepwalk_detector();
    let sim = Simulator::new(&d).unwrap();
    let stim = Stimulus::new()
        .set(10, "hall_light", true)
        .pulse(30, 5, "hall_motion") // motion with the lights on: fine
        .set(60, "hall_light", false)
        .pulse(90, 5, "hall_motion"); // motion in the dark: alarm
    let trace = sim.run(&stim, 120).unwrap();
    assert_eq!(trace.value_at("parents_buzzer", 33), Some(false));
    assert_eq!(trace.value_at("parents_buzzer", 93), Some(true));
    assert_eq!(
        trace.final_value("parents_buzzer"),
        Some(false),
        "pulse over"
    );
}

#[test]
fn mailroom_latch_holds_until_pickup() {
    let d = mailroom_notifier();
    let sim = Simulator::new(&d).unwrap();
    let stim = Stimulus::new()
        .pulse(20, 3, "tray_contact")
        .pulse(80, 3, "picked_up");
    let trace = sim.run(&stim, 120).unwrap();
    // The flap settles at t=23 but the latch holds.
    assert_eq!(trace.value_at("desk_led", 50), Some(true), "mail waiting");
    assert_eq!(trace.final_value("desk_led"), Some(false), "picked up");
}

#[test]
fn conference_room_sign_stretches_brief_sounds() {
    let d = conference_room_detector();
    let sim = Simulator::new(&d).unwrap();
    let trace = sim
        .run(&Stimulus::new().pulse(10, 2, "room_sound"), 120)
        .unwrap();
    // A 2-tick word lights the sign for the 40-tick hold window.
    assert_eq!(trace.value_at("door_sign", 30), Some(true));
    assert_eq!(trace.final_value("door_sign"), Some(false));
}

#[test]
fn intro_systems_synthesize_with_verification() {
    for (name, design) in all_intro() {
        let result = Pipeline::new(&design)
            .run(&PareDown, true)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(report) = &result.report {
            assert!(
                report.is_equivalent(),
                "{name}: divergence {:?}",
                report.mismatches
            );
        }
        // Synthesis never grows a network.
        assert!(result.inner_after() <= result.inner_before(), "{name}");
    }
}

#[test]
fn synthesized_sleepwalk_behaves_identically() {
    let d = sleepwalk_detector();
    let result = Pipeline::new(&d).run(&PareDown, true).unwrap();
    let original = Simulator::new(&d).unwrap();
    let merged = Simulator::with_programs(&result.synthesized, &result.programs).unwrap();
    let stim = Stimulus::new()
        .set(10, "hall_light", true)
        .set(50, "hall_light", false)
        .pulse(90, 5, "hall_motion");
    let a = original.run(&stim, 150).unwrap();
    let b = merged.run(&stim, 150).unwrap();
    assert_eq!(
        a.final_value("parents_buzzer"),
        b.final_value("parents_buzzer")
    );
    assert_eq!(
        a.value_at("parents_buzzer", 93),
        b.value_at("parents_buzzer", 93)
    );
}
