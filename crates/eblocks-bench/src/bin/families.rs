//! Per-family partitioning behavior: where does PareDown's border-rank
//! heuristic shine, and where does structure starve it?
//!
//! Sweeps the structured design families (`eblocks_gen::family`) — chain,
//! wide, tree, reconvergent, layered — at a fixed inner-block count,
//! reporting each tier's average totals and, at small sizes, the optimum.
//!
//! Usage: `cargo run --release -p eblocks-bench --bin families [count]`

use eblocks_gen::{generate_family, Family};
use eblocks_partition::{
    anneal, exhaustive, pare_down, pare_down_refined, AnnealConfig, ExhaustiveOptions,
    PartitionConstraints,
};
use std::time::Duration;

fn main() {
    let count: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    let constraints = PartitionConstraints::default();
    let anneal_cfg = AnnealConfig::with_iterations(10_000);

    println!("Family sweep, n=10 inner blocks, {count} seeds each (avg totals):");
    println!(
        "{:>13} | {:>8} {:>8} {:>8} {:>8}",
        "family", "PD", "PD+ref", "anneal", "optimal"
    );
    for family in Family::ALL {
        let mut sums = [0usize; 4];
        for seed in (0..count).map(|i| 51_000 + i) {
            let d = generate_family(family, 10, seed);
            sums[0] += pare_down(&d, &constraints).inner_total();
            sums[1] += pare_down_refined(&d, &constraints).inner_total();
            sums[2] += anneal(&d, &constraints, &anneal_cfg).inner_total();
            let opt = exhaustive(
                &d,
                &constraints,
                ExhaustiveOptions {
                    time_limit: Some(Duration::from_secs(10)),
                    ..Default::default()
                },
            );
            assert!(
                opt.is_complete(),
                "exhaustive search cut short on {} seed {seed}",
                family.name()
            );
            sums[3] += opt.inner_total();
        }
        let avg = |s: usize| s as f64 / count as f64;
        println!(
            "{:>13} | {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            family.name(),
            avg(sums[0]),
            avg(sums[1]),
            avg(sums[2]),
            avg(sums[3]),
        );
    }

    println!("\nLarge designs, n=40, heuristics only:");
    println!(
        "{:>13} | {:>8} {:>8} {:>8}",
        "family", "PD", "PD+ref", "anneal"
    );
    for family in Family::ALL {
        let mut sums = [0usize; 3];
        for seed in 0..count {
            let d = generate_family(family, 40, 52_000 + seed);
            sums[0] += pare_down(&d, &constraints).inner_total();
            sums[1] += pare_down_refined(&d, &constraints).inner_total();
            sums[2] += anneal(&d, &constraints, &anneal_cfg).inner_total();
        }
        let avg = |s: usize| s as f64 / count as f64;
        println!(
            "{:>13} | {:>8.2} {:>8.2} {:>8.2}",
            family.name(),
            avg(sums[0]),
            avg(sums[1]),
            avg(sums[2]),
        );
    }
}
