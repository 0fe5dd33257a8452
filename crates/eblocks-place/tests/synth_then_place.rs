//! End-to-end: synthesize a library design, then map both the original and
//! the synthesized network onto the same physical substrate.
//!
//! This exercises the paper's §6 future-work direction and demonstrates its
//! motivation from §1: fewer blocks after synthesis means a smaller
//! deployment — fewer occupied sites and less routed wire.

use eblocks_partition::strategy::PareDown;
use eblocks_place::{anneal_place, greedy_place, PlaceAnnealConfig, PlacementProblem, Topology};
use eblocks_synth::Pipeline;

#[test]
fn synthesized_podium_timer_places_on_fewer_sites() {
    let original = eblocks_designs::podium_timer_3();
    let result = Pipeline::new(&original)
        .run(&PareDown, true)
        .expect("synthesis succeeds");
    assert!(
        result.synthesized.num_blocks() < original.num_blocks(),
        "synthesis must shrink the network"
    );

    let topo = Topology::grid(5, 4);
    let before = PlacementProblem::new(&original, &topo).expect("fits");
    let after = PlacementProblem::new(&result.synthesized, &topo).expect("fits");

    let p_before = greedy_place(&before).expect("placeable");
    let p_after = greedy_place(&after).expect("placeable");
    p_before.verify(&before).unwrap();
    p_after.verify(&after).unwrap();

    // Fewer blocks → fewer wires → strictly less routed wire on the same
    // substrate (each wire costs at least one hop on a capacity-1 grid).
    assert!(
        result.synthesized.num_wires() < original.num_wires(),
        "merging internalizes wires"
    );
    let cost_before = p_before.cost(&before).unwrap();
    let cost_after = p_after.cost(&after).unwrap();
    assert!(
        cost_after < cost_before,
        "placed cost should drop: before={cost_before}, after={cost_after}"
    );
}

#[test]
fn annealing_improves_or_matches_greedy_on_synthesized_designs() {
    for name in [
        "Noise At Night Detector",
        "Two-Zone Security",
        "Timed Passage",
    ] {
        let design = eblocks_designs::by_name(name)
            .expect("library design")
            .design;
        let result = Pipeline::new(&design)
            .run(&PareDown, true)
            .expect("synthesis");
        let side = (result.synthesized.num_blocks() as f64).sqrt().ceil() as usize;
        let topo = Topology::grid(side, side + 1);
        let problem = PlacementProblem::new(&result.synthesized, &topo).expect("fits");
        let greedy_cost = greedy_place(&problem).unwrap().cost(&problem).unwrap();
        let annealed = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(5_000)).unwrap();
        annealed.verify(&problem).unwrap();
        assert!(
            annealed.cost(&problem).unwrap() <= greedy_cost,
            "{name}: annealing must not regress"
        );
    }
}

#[test]
fn pinned_sensors_anchor_the_synthesized_network() {
    // Garage-open-at-night: door switch and light sensor pinned to opposite
    // corners (where they physically are), LED pinned by the bed.
    let mut d = eblocks_core::Design::new("garage");
    let door = d.add_block("door", eblocks_core::SensorKind::ContactSwitch);
    let light = d.add_block("light", eblocks_core::SensorKind::Light);
    let inv = d.add_block("inv", eblocks_core::ComputeKind::Not);
    let both = d.add_block("both", eblocks_core::ComputeKind::and2());
    let led = d.add_block("led", eblocks_core::OutputKind::Led);
    d.connect((door, 0), (both, 0)).unwrap();
    d.connect((light, 0), (inv, 0)).unwrap();
    d.connect((inv, 0), (both, 1)).unwrap();
    d.connect((both, 0), (led, 0)).unwrap();

    let result = Pipeline::new(&d).run(&PareDown, true).expect("synthesis");
    let synth = &result.synthesized;

    let topo = Topology::grid(4, 4);
    let mut problem = PlacementProblem::new(synth, &topo).expect("fits");
    let door = synth
        .block_by_name("door")
        .expect("sensors survive synthesis");
    let light = synth
        .block_by_name("light")
        .expect("sensors survive synthesis");
    let led = synth
        .block_by_name("led")
        .expect("outputs survive synthesis");
    problem.pin(door, topo.site_at(0, 0).unwrap()).unwrap();
    problem.pin(light, topo.site_at(3, 0).unwrap()).unwrap();
    problem.pin(led, topo.site_at(0, 3).unwrap()).unwrap();

    let placement = greedy_place(&problem).unwrap();
    placement.verify(&problem).unwrap();
    assert_eq!(placement.site_of(door), topo.site_at(0, 0));
    assert_eq!(placement.site_of(light), topo.site_at(3, 0));
    assert_eq!(placement.site_of(led), topo.site_at(0, 3));
    // The single programmable block should land between its three anchors:
    // cost at most the pairwise pin spread.
    assert!(placement.cost(&problem).unwrap() <= 9);
}

#[test]
fn every_library_design_is_placeable_after_synthesis() {
    for entry in eblocks_designs::all() {
        let result = Pipeline::new(&entry.design)
            .run(&PareDown, true)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let blocks = result.synthesized.num_blocks();
        // Smallest grid with enough capacity.
        let side = (blocks as f64).sqrt().ceil() as usize;
        let topo = Topology::grid(side.max(1), side.max(1) + 1);
        let problem = PlacementProblem::new(&result.synthesized, &topo)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let placement = greedy_place(&problem).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        placement.verify(&problem).unwrap();
        placement.cost(&problem).unwrap();
    }
}
