//! Conformance suite for the [`Partitioner`] trait: every registered
//! strategy must produce valid, constraint-respecting, deterministic
//! results on the same battery of designs.
//!
//! Adding a strategy to [`Registry::builtin`] automatically subjects it to
//! this suite.

use eblocks_core::{Design, ProgrammableSpec};
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::Anneal;
use eblocks_partition::{AnnealConfig, PartitionConstraints, Partitioner, Registry};

/// The suite's registry: the five built-ins, with the annealer re-registered
/// at a light step budget (the default 20k-step, 4-restart walk is overkill
/// for a conformance check that runs it dozens of times; the properties
/// under test are budget-independent). Re-registering also exercises the
/// registry's shadowing path.
fn registry() -> Registry {
    let mut r = Registry::builtin();
    r.register("anneal", || {
        Box::new(Anneal {
            config: AnnealConfig {
                iterations: 1_500,
                restarts: 2,
                ..Default::default()
            },
        })
    });
    r
}

/// The design battery: a spread of random design sizes, all seeded.
fn battery() -> Vec<Design> {
    [2, 5, 8, 14]
        .into_iter()
        .flat_map(|inner| {
            (0..2u64).map(move |seed| generate(&GeneratorConfig::new(inner), 9_000 + seed))
        })
        .collect()
}

fn each_strategy(mut f: impl FnMut(&str, &dyn Partitioner)) {
    let registry = registry();
    let names = registry.names();
    assert_eq!(names.len(), 5, "expected the five built-in strategies");
    for name in names {
        let strategy = registry.from_str(name).unwrap();
        f(name, strategy.as_ref());
    }
}

#[test]
fn every_strategy_produces_valid_partitionings() {
    each_strategy(|name, strategy| {
        let constraints = PartitionConstraints::default();
        for design in battery() {
            let result = strategy.partition(&design, &constraints);
            result
                .verify(&design, &constraints)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", design.name()));
            assert_eq!(
                result.covered() + result.uncovered().len(),
                design.inner_blocks().count(),
                "{name} on {}: all inner blocks accounted for",
                design.name()
            );
        }
    });
}

#[test]
fn every_strategy_respects_pin_constraints() {
    // Tight and asymmetric budgets; verify() rejects any partition whose
    // cut cost exceeds the spec, so a pass proves constraint respect.
    let specs = [
        ProgrammableSpec::new(1, 1),
        ProgrammableSpec::new(2, 1),
        ProgrammableSpec::new(3, 2),
    ];
    each_strategy(|name, strategy| {
        for spec in specs {
            let constraints = PartitionConstraints::with_spec(spec);
            for design in battery() {
                let result = strategy.partition(&design, &constraints);
                result
                    .verify(&design, &constraints)
                    .unwrap_or_else(|e| panic!("{name}/{spec} on {}: {e}", design.name()));
                for partition in result.partitions() {
                    assert!(
                        partition.len() >= 2,
                        "{name}/{spec} on {}: undersized partition",
                        design.name()
                    );
                }
            }
        }
    });
}

#[test]
fn every_strategy_respects_structural_constraints() {
    let constraints = PartitionConstraints {
        require_convex: true,
        require_connected: true,
        ..Default::default()
    };
    each_strategy(|name, strategy| {
        for design in battery() {
            strategy
                .partition(&design, &constraints)
                .verify(&design, &constraints)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", design.name()));
        }
    });
}

#[test]
fn every_strategy_is_deterministic_under_fixed_seed() {
    // Stochastic strategies carry their seed in their default
    // configuration; two identical calls must agree exactly.
    each_strategy(|name, strategy| {
        let constraints = PartitionConstraints::default();
        for design in battery() {
            let first = strategy.partition(&design, &constraints);
            let second = strategy.partition(&design, &constraints);
            assert_eq!(first, second, "{name} on {}", design.name());
            // A fresh instance from the registry agrees too.
            let fresh = registry().from_str(name).unwrap();
            assert_eq!(
                fresh.partition(&design, &constraints),
                first,
                "{name} on {}",
                design.name()
            );
        }
    });
}

#[test]
fn every_strategy_handles_degenerate_designs() {
    // No inner blocks at all: a sensor wired straight to an output.
    use eblocks_core::{OutputKind, SensorKind};
    let mut d = Design::new("degenerate");
    let s = d.add_block("s", SensorKind::Button);
    let o = d.add_block("o", OutputKind::Led);
    d.connect((s, 0), (o, 0)).unwrap();
    each_strategy(|name, strategy| {
        let constraints = PartitionConstraints::default();
        let result = strategy.partition(&d, &constraints);
        result
            .verify(&d, &constraints)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(result.inner_total(), 0, "{name}");
    });
}

#[test]
fn strategy_names_round_trip_through_registry() {
    each_strategy(|name, strategy| {
        assert_eq!(strategy.name(), name);
    });
}
