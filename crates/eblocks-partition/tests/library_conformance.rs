//! Table 1 conformance: both algorithms must reproduce the pinned outcomes
//! on every reconstructed library design.

use eblocks_partition::{exhaustive, pare_down, ExhaustiveOptions, PartitionConstraints};
use std::time::Duration;

#[test]
fn pare_down_matches_expected_on_every_library_design() {
    let constraints = PartitionConstraints::default();
    for entry in eblocks_designs::all() {
        let result = pare_down(&entry.design, &constraints);
        result
            .verify(&entry.design, &constraints)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(
            (result.inner_total(), result.num_partitions()),
            entry.expected.pare_down,
            "{}: got {result}",
            entry.name
        );
    }
}

#[test]
fn exhaustive_matches_expected_where_reported() {
    let constraints = PartitionConstraints::default();
    for entry in eblocks_designs::all() {
        let Some(expected) = entry.expected.exhaustive else {
            continue;
        };
        let result = exhaustive(
            &entry.design,
            &constraints,
            ExhaustiveOptions {
                time_limit: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        );
        assert!(result.is_complete(), "{} timed out", entry.name);
        result
            .verify(&entry.design, &constraints)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(
            (result.inner_total(), result.num_partitions()),
            expected,
            "{}: got {result}",
            entry.name
        );
    }
}

#[test]
fn heuristic_never_beats_exhaustive_on_library() {
    let constraints = PartitionConstraints::default();
    for entry in eblocks_designs::all() {
        let opt = exhaustive(&entry.design, &constraints, ExhaustiveOptions::default());
        assert!(opt.is_complete(), "{} cut short", entry.name);
        opt.verify(&entry.design, &constraints)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let heur = pare_down(&entry.design, &constraints);
        assert!(
            opt.objective() <= heur.objective(),
            "{}: exhaustive {:?} vs pare-down {:?}",
            entry.name,
            opt.objective(),
            heur.objective()
        );
    }
}
