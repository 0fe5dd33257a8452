//! Ablation study over random designs:
//!
//! * the §4.2 rank tie-break rules (greatest indegree/outdegree, highest
//!   level) on vs. off,
//! * the aggregation strawman vs. PareDown vs. the optimum,
//! * convexity / connectivity constraints vs. the paper's defaults.
//!
//! Usage: `cargo run --release -p eblocks-bench --bin ablation [count]`

use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::{
    aggregation, exhaustive, pare_down, pare_down_no_tie_breaks, ExhaustiveOptions,
    PartitionConstraints,
};
use std::time::Duration;

fn main() {
    let count: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let constraints = PartitionConstraints::default();

    println!("Tie-break & algorithm ablation over {count} random designs per size:");
    println!(
        "{:>5} | {:>8} {:>8} {:>8} {:>8} | {:>10} {:>10}",
        "inner", "optimal", "PD", "PD-noTB", "agg", "TB wins", "TB losses"
    );

    for inner in [6usize, 9, 12] {
        let (mut opt_sum, mut pd_sum, mut notb_sum, mut agg_sum) = (0usize, 0, 0, 0);
        let (mut tb_wins, mut tb_losses) = (0usize, 0usize);
        for seed in (0..count).map(|i| 7000 + i) {
            let d = generate(&GeneratorConfig::new(inner), seed);
            let opt = exhaustive(
                &d,
                &constraints,
                ExhaustiveOptions {
                    time_limit: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            );
            assert!(
                opt.is_complete(),
                "exhaustive search cut short on n={inner} seed {seed}"
            );
            let pd = pare_down(&d, &constraints);
            let notb = pare_down_no_tie_breaks(&d, &constraints);
            let agg = aggregation(&d, &constraints);
            opt_sum += opt.inner_total();
            pd_sum += pd.inner_total();
            notb_sum += notb.inner_total();
            agg_sum += agg.inner_total();
            match pd.inner_total().cmp(&notb.inner_total()) {
                std::cmp::Ordering::Less => tb_wins += 1,
                std::cmp::Ordering::Greater => tb_losses += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        let avg = |s: usize| s as f64 / count as f64;
        println!(
            "{inner:>5} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {tb_wins:>10} {tb_losses:>10}",
            avg(opt_sum),
            avg(pd_sum),
            avg(notb_sum),
            avg(agg_sum)
        );
    }

    println!("\nConstraint ablation (PareDown, n=20, {count} designs):");
    println!(
        "{:>16} {:>10} {:>10}",
        "constraints", "avg total", "avg prog"
    );
    for (label, c) in [
        ("paper", PartitionConstraints::default()),
        (
            "convex",
            PartitionConstraints {
                require_convex: true,
                ..Default::default()
            },
        ),
        (
            "connected",
            PartitionConstraints {
                require_connected: true,
                ..Default::default()
            },
        ),
    ] {
        let (mut total, mut prog) = (0usize, 0usize);
        for seed in 0..count {
            let d = generate(&GeneratorConfig::new(20), 8000 + seed);
            let r = pare_down(&d, &c);
            total += r.inner_total();
            prog += r.num_partitions();
        }
        println!(
            "{label:>16} {:>10.2} {:>10.2}",
            total as f64 / count as f64,
            prog as f64 / count as f64
        );
    }
}
