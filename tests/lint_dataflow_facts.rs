//! Lint's cross-block dataflow shares one analysis per library kind and
//! input sets across designs. On every design here, each compute block's
//! shared facts must equal a fresh analysis of its library program under
//! the value sets that `analyze_design` says arrive at its inputs.

use eblocks::behavior::library::program_for;
use eblocks::core::netlist::from_netlist;
use eblocks::core::{BlockKind, Design};
use eblocks::gen::{generate, GeneratorConfig};
use eblocks::lint::dataflow::{analyze_design, analyze_program, ValueSet};
use std::collections::BTreeMap;

/// Checks every compute block of `design`; returns how many it checked.
fn check_design(label: &str, design: &Design) -> usize {
    let facts = analyze_design(design, &BTreeMap::new());
    let mut checked = 0;
    for id in design.blocks() {
        let BlockKind::Compute(kind) = design.block(id).unwrap().kind() else {
            continue;
        };
        let incoming: Vec<ValueSet> = (0..kind.num_inputs())
            .map(|port| facts.incoming[&(id, port)].clone())
            .collect();
        let fresh = analyze_program(&program_for(kind), &incoming, kind.num_outputs());
        assert_eq!(*facts.programs[&id], fresh, "{label}: block {id:?}");
        for (port, set) in fresh.outputs.iter().enumerate() {
            assert_eq!(
                facts.outputs[&(id, port as u8)],
                *set,
                "{label}: block {id:?} out{port}"
            );
        }
        checked += 1;
    }
    checked
}

#[test]
fn generated_designs_share_fresh_facts() {
    let mut checked = 0;
    for seed in 0..240u64 {
        let inner = 3 + (seed as usize * 7) % 43;
        let design = generate(&GeneratorConfig::new(inner), seed);
        checked += check_design(&format!("seed {seed}, {inner} blocks"), &design);
    }
    assert!(checked > 240 * 3, "only {checked} blocks checked");
}

#[test]
fn shipped_netlists_and_lint_fixtures_share_fresh_facts() {
    let mut paths: Vec<_> = std::fs::read_dir("netlists")
        .unwrap()
        .map(|file| file.unwrap().path())
        .collect();
    assert!(paths.len() >= 20, "only {} netlists", paths.len());
    paths.push("tests/fixtures/lint-broken.netlist".into());
    paths.push("tests/fixtures/lint-crossblock.netlist".into());
    let mut checked = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let design = from_netlist(&text).unwrap();
        checked += check_design(&path.display().to_string(), &design);
    }
    assert!(checked >= 40, "only {checked} blocks checked");
}
