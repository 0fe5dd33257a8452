//! The committed `netlists/` directory stays in sync with the design
//! library (regenerate with
//! `cargo run -p eblocks-bench --bin export_netlists`), and every committed
//! netlist round-trips through the parser and synthesizes.

use eblocks::core::netlist::{from_netlist, to_netlist};

#[test]
fn committed_netlists_match_library() {
    let designs = eblocks::designs::all()
        .into_iter()
        .map(|e| e.design)
        .chain(eblocks::designs::all_intro().into_iter().map(|(_, d)| d));
    for design in designs {
        let path = format!("netlists/{}.netlist", design.name());
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with export_netlists)"));
        assert_eq!(
            committed,
            to_netlist(&design),
            "{path} out of date: regenerate with `cargo run -p eblocks-bench --bin export_netlists`"
        );
    }
}

#[test]
fn committed_netlists_roundtrip_exactly() {
    let mut checked = 0;
    for file in std::fs::read_dir("netlists").unwrap() {
        let path = file.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let design = from_netlist(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            to_netlist(&design),
            text,
            "{}: parse/print round-trip must be the identity on canonical netlists",
            path.display()
        );
        checked += 1;
    }
    // Two-directional sync: a stale golden left behind by a renamed or
    // removed design would round-trip fine, so also pin the count to the
    // library (export_netlists never deletes).
    let expected = eblocks::designs::all().len() + eblocks::designs::all_intro().len();
    assert_eq!(
        checked, expected,
        "netlists/ holds {checked} files but the library defines {expected} designs: \
         delete stale goldens and rerun export_netlists"
    );
}

#[test]
fn committed_netlists_parse_and_synthesize() {
    for file in std::fs::read_dir("netlists").unwrap() {
        let path = file.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let design = from_netlist(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        design
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let result = eblocks::synth::Pipeline::new(&design)
            .run(&eblocks::partition::strategy::PareDown, true)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(result.report.is_some(), "{}", path.display());
    }
}
