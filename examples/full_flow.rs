//! The complete tool chain (Fig. 2 of the paper) on a library design:
//! netlist capture → simulation → partitioning → code generation →
//! network rewrite → equivalence verification.
//!
//! Run with: `cargo run --example full_flow [design-name]`
//! (default: "Two-Zone Security"; see `eblocks::designs::all()` for names)

use eblocks::core::netlist::to_netlist;
use eblocks::partition::strategy::PareDown;
use eblocks::sim::Simulator;
use eblocks::synth::{exercise_all_sensors, Pipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requested = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Two-Zone Security".into());
    let entry = eblocks::designs::by_name(&requested)
        .unwrap_or_else(|| panic!("unknown design `{requested}`"));
    let design = entry.design;

    println!("=== capture ===\n{}", to_netlist(&design));

    println!("=== simulate (original) ===");
    let sim = Simulator::new(&design)?;
    let stim = exercise_all_sensors(&design, 32);
    let trace = sim.run(&stim, stim.end_time().unwrap_or(0) + 64)?;
    for output in trace.outputs() {
        println!("  {output}: {} packets", trace.history(output).len());
    }

    println!("\n=== synthesize ===");
    let result = Pipeline::new(&design).run(&PareDown, true)?;
    println!(
        "inner blocks: {} -> {} ({} partitions)",
        result.inner_before(),
        result.inner_after(),
        result.partitioning.num_partitions()
    );
    for (i, partition) in result.partitioning.partitions().iter().enumerate() {
        let names: Vec<_> = partition
            .iter()
            .map(|&b| design.block(b).unwrap().name())
            .collect();
        println!("  prog{i} <- {{{}}}", names.join(", "));
    }
    let uncovered: Vec<_> = result
        .partitioning
        .uncovered()
        .iter()
        .map(|&b| design.block(b).unwrap().name())
        .collect();
    println!("  pre-defined survivors: {{{}}}", uncovered.join(", "));

    println!("\n=== verify ===");
    match &result.report {
        Some(report) => println!(
            "equivalent at {} samples across outputs {:?}",
            report.sample_times.len(),
            report.outputs
        ),
        None => println!("verification disabled"),
    }

    println!("\n=== program sizes (PIC16F628) ===");
    for (block, est) in &result.size_estimates {
        println!(
            "  {block}: {} words, {} state bytes, fits: {}",
            est.words,
            est.state_bytes,
            est.fits_pic16f628()
        );
    }

    println!(
        "\n=== synthesized netlist ===\n{}",
        to_netlist(&result.synthesized)
    );
    Ok(())
}
