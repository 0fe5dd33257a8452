//! The paper's §1 motivating applications, end to end: simulate each system
//! under a characteristic scenario, then synthesize it and report the block
//! savings.
//!
//! Run with: `cargo run --example intro_systems`

use eblocks::designs::all_intro;
use eblocks::partition::strategy::PareDown;
use eblocks::sim::{Simulator, Stimulus};
use eblocks::synth::Pipeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scenario per system: (stimulus, the output to watch, time to read it).
    println!("scenario checks:");

    let sleepwalk = eblocks::designs::sleepwalk_detector();
    let sim = Simulator::new(&sleepwalk)?;
    let night_walk = Stimulus::new()
        .set(10, "hall_light", true) // evening: lights on
        .pulse(30, 5, "hall_motion") // someone walks by — fine, lights are on
        .set(60, "hall_light", false) // lights out
        .pulse(90, 5, "hall_motion"); // motion in the dark!
    let trace = sim.run(&night_walk, 120)?;
    println!(
        "  sleepwalk: motion w/ lights on -> {:?}, in the dark -> {:?}",
        trace.value_at("parents_buzzer", 33),
        trace.value_at("parents_buzzer", 93),
    );

    let mailroom = eblocks::designs::mailroom_notifier();
    let sim = Simulator::new(&mailroom)?;
    let delivery = Stimulus::new()
        .pulse(20, 3, "tray_contact") // mail drops in
        .pulse(80, 3, "picked_up"); // picked up later
    let trace = sim.run(&delivery, 120)?;
    println!(
        "  mailroom:  after delivery -> {:?}, after pickup -> {:?}",
        trace.value_at("desk_led", 50),
        trace.value_at("desk_led", 110),
    );

    let conference = eblocks::designs::conference_room_detector();
    let sim = Simulator::new(&conference)?;
    let meeting = Stimulus::new().pulse(10, 2, "room_sound");
    let trace = sim.run(&meeting, 120)?;
    println!(
        "  conf room: right after a word -> {:?}, a minute later -> {:?}",
        trace.value_at("door_sign", 20),
        trace.final_value("door_sign"),
    );

    println!("\nsynthesis:");
    for (name, design) in all_intro() {
        let result = Pipeline::new(&design).run(&PareDown, true)?;
        println!(
            "  {name:<26} {} blocks -> {} ({} inner -> {}, {} programmable)",
            design.num_blocks(),
            result.synthesized.num_blocks(),
            result.inner_before(),
            result.inner_after(),
            result.partitioning.num_partitions(),
        );
    }
    Ok(())
}
