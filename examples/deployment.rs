//! Deployment: synthesize a design, then map it onto an existing physical
//! network of mounting sites (the paper's §6 future-work direction).
//!
//! The scenario is the paper's two-zone security system deployed across a
//! 6×5 grid of wall boxes. Sensors and sirens are pinned where the physical
//! stimulus lives; compute blocks float, and the placer pulls them toward
//! their anchors to minimize routed wire.
//!
//! Run with: `cargo run --example deployment`

use eblocks::partition::strategy::PareDown;
use eblocks::place::{
    anneal_place, greedy_place, route, PlaceAnnealConfig, PlacementProblem, Topology,
};
use eblocks::synth::Pipeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = eblocks::designs::two_zone_security();
    println!(
        "design: {} ({} blocks, {} wires)",
        original.name(),
        original.num_blocks(),
        original.num_wires()
    );

    // 1. Synthesis shrinks the logical network.
    let result = Pipeline::new(&original).run(&PareDown, true)?;
    let synth = &result.synthesized;
    println!(
        "synthesized: {} blocks, {} wires ({} programmable)",
        synth.num_blocks(),
        synth.num_wires(),
        synth.census().programmable
    );

    // 2. The physical substrate: a building's grid of wall boxes.
    let topo = Topology::grid(7, 6);
    println!(
        "\nsubstrate: {} sites ({} slots)",
        topo.num_sites(),
        topo.total_capacity()
    );

    // 3. Place the *original* and the *synthesized* network and compare
    //    total routed wire — the paper's network-size argument in hops.
    for (label, design) in [("original", &original), ("synthesized", synth)] {
        let problem = PlacementProblem::new(design, &topo)?;
        let greedy = greedy_place(&problem)?;
        let annealed = anneal_place(&problem, &PlaceAnnealConfig::default())?;
        println!(
            "{label:>12}: greedy cost {:>3} hops, annealed {:>3} hops",
            greedy.cost(&problem)?,
            annealed.cost(&problem)?
        );
    }

    // 4. Pin the environmental blocks and show where compute lands.
    let mut problem = PlacementProblem::new(synth, &topo)?;
    let mut pinned = 0usize;
    for (i, block) in synth.sensors().chain(synth.outputs()).enumerate() {
        // Scatter anchors around the building perimeter.
        let perimeter: Vec<_> = topo
            .sites()
            .filter(|&s| topo.neighbors(s).count() < 4)
            .collect();
        let site = perimeter[(i * 3) % perimeter.len()];
        if problem.pin(block, site).is_ok() {
            pinned += 1;
        }
    }
    let placement = anneal_place(&problem, &PlaceAnnealConfig::default())?;
    placement.verify(&problem)?;
    println!(
        "\npinned {pinned} environmental blocks to the perimeter; total cost {} hops",
        placement.cost(&problem)?
    );
    for block in synth.blocks() {
        let name = &synth.block(block).expect("iterating blocks").name();
        let site = placement.site_of(block).expect("complete placement");
        let site_name = topo.site(site).expect("valid site").name();
        println!("  {name:<12} -> {site_name}");
    }

    // 5. The installer's wire list: every logical wire routed along
    //    physical links, plus the busiest link (thickest cable needed).
    let report = route(&problem, &placement)?;
    println!(
        "\nwire list ({} routes, {} hops total):",
        report.routes.len(),
        report.total_hops()
    );
    for r in report.routes.iter().take(5) {
        let path: Vec<&str> = r
            .path
            .iter()
            .map(|&s| topo.site(s).expect("valid site").name())
            .collect();
        let from = synth.block(r.from).expect("block").name().to_string();
        let to = synth.block(r.to).expect("block").name().to_string();
        println!("  {from} -> {to}: {} ({} hops)", path.join(" - "), r.hops());
    }
    println!("  ... ({} more)", report.routes.len().saturating_sub(5));
    if let Some(((a, b), load)) = report.max_congestion() {
        println!(
            "busiest link: {} - {} carries {load} logical wires",
            topo.site(a).expect("valid site").name(),
            topo.site(b).expect("valid site").name()
        );
    }
    Ok(())
}
