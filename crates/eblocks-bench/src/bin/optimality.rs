//! The solution-quality ladder: how close does each heuristic tier get to
//! the optimum, and at what runtime cost?
//!
//! Extends the paper's two-point comparison (PareDown vs. exhaustive) with
//! the intermediate tiers this reproduction adds: deterministic local
//! refinement (`refine`) and simulated annealing (`anneal`). Up to 25 inner
//! blocks every tier is set against the proven optimum, past the 13 blocks
//! where the paper's search stopped; the larger sizes report heuristics
//! only.
//!
//! Usage: `cargo run --release -p eblocks-bench --bin optimality [count]`

use eblocks_bench::timed;
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::{
    aggregation, anneal, exhaustive, pare_down, pare_down_refined, AnnealConfig, ExhaustiveOptions,
    PartitionConstraints,
};
use std::time::Duration;

fn main() {
    let count: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);
    let constraints = PartitionConstraints::default();
    let anneal_cfg = AnnealConfig::with_iterations(10_000);

    println!("Quality ladder over {count} random designs per size (avg inner-block totals):");
    println!(
        "{:>5} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>9}",
        "inner", "agg", "PD", "PD+ref", "anneal", "optimal", "PD time", "ann time", "opt time"
    );

    for inner in [6usize, 8, 10, 12, 14, 15, 20, 25] {
        let mut sums = [0usize; 5];
        let mut times = [Duration::ZERO; 3];
        for seed in (0..count).map(|i| 31_000 + i) {
            let d = generate(&GeneratorConfig::new(inner), seed);
            let agg = aggregation(&d, &constraints);
            let pd = timed(|| pare_down(&d, &constraints));
            let refined = pare_down_refined(&d, &constraints);
            let ann = timed(|| anneal(&d, &constraints, &anneal_cfg));
            let opt = timed(|| {
                exhaustive(
                    &d,
                    &constraints,
                    ExhaustiveOptions {
                        time_limit: Some(Duration::from_secs(10)),
                        ..Default::default()
                    },
                )
            });
            assert!(
                opt.result.is_complete(),
                "exhaustive search cut short on n={inner} seed {seed}"
            );
            sums[0] += agg.inner_total();
            sums[1] += pd.result.inner_total();
            sums[2] += refined.inner_total();
            sums[3] += ann.result.inner_total();
            sums[4] += opt.result.inner_total();
            times[0] += pd.elapsed;
            times[1] += ann.elapsed;
            times[2] += opt.elapsed;
        }
        let avg = |s: usize| s as f64 / count as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / count as f64;
        println!(
            "{inner:>5} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>7.3}ms {:>7.3}ms {:>7.3}ms",
            avg(sums[0]),
            avg(sums[1]),
            avg(sums[2]),
            avg(sums[3]),
            avg(sums[4]),
            ms(times[0]),
            ms(times[1]),
            ms(times[2]),
        );
    }

    println!("\nBeyond the exhaustive wall (no optimum column):");
    println!(
        "{:>5} | {:>8} {:>8} {:>8} | {:>9} {:>9}",
        "inner", "PD", "PD+ref", "anneal", "PD time", "ann time"
    );
    for inner in [35usize, 60] {
        let mut sums = [0usize; 3];
        let mut times = [Duration::ZERO; 2];
        for seed in 0..count {
            let d = generate(&GeneratorConfig::new(inner), 32_000 + seed);
            let pd = timed(|| pare_down(&d, &constraints));
            let refined = pare_down_refined(&d, &constraints);
            let ann = timed(|| anneal(&d, &constraints, &anneal_cfg));
            sums[0] += pd.result.inner_total();
            sums[1] += refined.inner_total();
            sums[2] += ann.result.inner_total();
            times[0] += pd.elapsed;
            times[1] += ann.elapsed;
        }
        let avg = |s: usize| s as f64 / count as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / count as f64;
        println!(
            "{inner:>5} | {:>8.2} {:>8.2} {:>8.2} | {:>7.3}ms {:>7.3}ms",
            avg(sums[0]),
            avg(sums[1]),
            avg(sums[2]),
            ms(times[0]),
            ms(times[1]),
        );
    }
}
