//! Regenerates the paper's Table 2: exhaustive search vs PareDown on
//! randomly generated designs, averaged per inner-block count. The sweep
//! runs on the `eblocks-farm` batch engine: each (design, algorithm)
//! measurement is one partition-mode job, drained by a worker pool.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p eblocks-bench --bin table2 [scale] [limit_ms] [workers]
//! ```
//!
//! `scale` multiplies the paper's per-size design counts (default 0.05 — a
//! ~470-design sweep; pass 1.0 for the full ~9,500-design sweep). `limit_ms`
//! bounds each exhaustive run (default 10000 ms; a run that hits the limit
//! reports PareDown's result, and a closing note counts such runs).
//! `workers` sizes the farm's pool (default: all cores); per-design times
//! come from the partition-stage observer, so averages measure the
//! algorithm, not the pool.
//!
//! `exh.time` is the time of the exact cover solver that `exhaustive` runs,
//! not of the paper's enumeration; the paper's runtime shape is the
//! paper-faithful column of the `scaling` bin. Rows above the paper's
//! cutoff of 13 inner blocks keep the paper's "--".

use eblocks_bench::{render_table2, table2_sweep, TABLE2_COUNTS};
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.05);
    let limit_ms: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let workers = eblocks_core::pool::workers(args.next().and_then(|a| a.parse().ok()), usize::MAX);

    println!(
        "Table 2 — random designs, scale {scale} of the paper's counts, exhaustive limit {limit_ms} ms, {workers} farm worker(s)"
    );
    let rows = table2_sweep(
        &TABLE2_COUNTS,
        scale,
        Duration::from_millis(limit_ms),
        workers,
        |inner, count| eprintln!("  finished inner={inner} ({count} designs)"),
    );
    println!("{}", render_table2(&rows));

    let timeouts: usize = rows
        .iter()
        .filter_map(|r| r.exhaustive.map(|e| e.timeouts))
        .sum();
    if timeouts > 0 {
        println!(
            "note: {timeouts} exhaustive run(s) hit the per-design time limit; their rows are upper bounds on the optimum's cost"
        );
    }
}
