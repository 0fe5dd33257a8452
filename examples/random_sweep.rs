//! Compares all three partitioning algorithms on random designs — a
//! miniature of the paper's Table 2 with the aggregation strawman included.
//!
//! Run with: `cargo run --release --example random_sweep [inner] [count]`

use eblocks::gen::{generate, GeneratorConfig};
use eblocks::partition::{
    aggregation, exhaustive, pare_down, ExhaustiveOptions, PartitionConstraints,
};
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let inner: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(9);
    let count: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(25);
    let constraints = PartitionConstraints::default();

    println!("{count} random designs with {inner} inner blocks (2-in/2-out target):\n");
    println!(
        "{:>5} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "seed", "exh.tot", "exh.prog", "pd.tot", "pd.prog", "agg.tot", "agg.prog"
    );

    let (mut exh_sum, mut pd_sum, mut agg_sum) = (0usize, 0usize, 0usize);
    let mut pd_time = Duration::ZERO;
    for seed in 0..count {
        let design = generate(&GeneratorConfig::new(inner), seed);

        let opt = exhaustive(
            &design,
            &constraints,
            ExhaustiveOptions {
                time_limit: Some(Duration::from_secs(5)),
                ..Default::default()
            },
        );
        assert!(
            opt.is_complete(),
            "exhaustive search cut short on seed {seed}"
        );
        let t0 = Instant::now();
        let pd = pare_down(&design, &constraints);
        pd_time += t0.elapsed();
        let agg = aggregation(&design, &constraints);

        println!(
            "{:>5} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
            seed,
            opt.inner_total(),
            opt.num_partitions(),
            pd.inner_total(),
            pd.num_partitions(),
            agg.inner_total(),
            agg.num_partitions()
        );
        exh_sum += opt.inner_total();
        pd_sum += pd.inner_total();
        agg_sum += agg.inner_total();
    }

    let avg = |s: usize| s as f64 / count as f64;
    println!(
        "\naverages: optimal {:.2}, PareDown {:.2} ({:+.1}%), aggregation {:.2} ({:+.1}%)",
        avg(exh_sum),
        avg(pd_sum),
        100.0 * (avg(pd_sum) - avg(exh_sum)) / avg(exh_sum),
        avg(agg_sum),
        100.0 * (avg(agg_sum) - avg(exh_sum)) / avg(exh_sum),
    );
    println!(
        "PareDown mean time: {:?} per design (paper: <1 ms on a 2 GHz Athlon XP)",
        pd_time / count as u32
    );
}
