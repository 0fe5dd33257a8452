//! Quantifies the paper's headline power claim: synthesis reduces "network
//! size and hence network cost and power" (abstract). For every library
//! design, the original and the synthesized network run the same
//! all-sensors stimulus; packets transmitted and estimated energy are
//! compared.
//!
//! Usage: `cargo run --release -p eblocks-bench --bin energy`

use eblocks_partition::strategy::PareDown;
use eblocks_sim::{estimate_energy, Simulator, Stimulus, Time};
use eblocks_synth::{exercise_all_sensors, Pipeline};

fn main() {
    println!("Per-design energy, same stimulus on both networks:");
    println!(
        "{:<26} | {:>7} {:>7} | {:>9} {:>9} | {:>7}",
        "design", "pkts", "pkts'", "energy nJ", "energy' nJ", "saved"
    );

    let (mut total_before, mut total_after) = (0.0f64, 0.0f64);
    for entry in eblocks_designs::all() {
        let design = entry.design;
        // No verify: equivalence is covered by the test suite.
        let result = match Pipeline::new(&design).run(&PareDown, false) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<26} synthesis failed: {e}", entry.name);
                continue;
            }
        };
        let stim: Stimulus = exercise_all_sensors(&design, 64);
        let until: Time = stim.end_time().unwrap_or(0) + 128;

        let before_sim = Simulator::new(&design).expect("library designs simulate");
        let before_trace = before_sim.run(&stim, until).expect("healthy run");
        let before = estimate_energy(&design, &before_trace, until);

        let after_sim = Simulator::with_programs(&result.synthesized, &result.programs)
            .expect("synthesized designs simulate");
        let after_trace = after_sim.run(&stim, until).expect("healthy run");
        let after = estimate_energy(&result.synthesized, &after_trace, until);

        total_before += before.total_nj();
        total_after += after.total_nj();
        println!(
            "{:<26} | {:>7} {:>7} | {:>9.0} {:>9.0} | {:>6.1}%",
            entry.name,
            before_trace.total_transmissions(),
            after_trace.total_transmissions(),
            before.total_nj(),
            after.total_nj(),
            100.0 * (before.total_nj() - after.total_nj()) / before.total_nj()
        );
    }
    println!(
        "\nlibrary total: {total_before:.0} nJ -> {total_after:.0} nJ ({:.1}% saved)",
        100.0 * (total_before - total_after) / total_before
    );
}
