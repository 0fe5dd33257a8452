//! Reproduces the §5.2 runtime claims:
//!
//! * exhaustive search is fine to ~10 inner blocks, painful at 11–13, and
//!   hopeless beyond ("did not conclude after four hours" at 14);
//! * PareDown "continues to process large designs in a reasonable amount of
//!   time", including a 465-inner-node design (80 s on the paper's 2 GHz
//!   Athlon XP under Java; far faster here — the *shape* is the claim).
//!
//! Plus two north-star scaling sections beyond the paper: parallel anneal
//! restarts, and batch-synthesis speedup (sequential vs N farm workers over
//! all 15 Table-1 designs, checking the per-job results stay identical).
//!
//! Usage: `cargo run --release -p eblocks-bench --bin scaling [exh_limit_s]`

use eblocks_bench::{exhaustive_with_limit, fmt_time, run_partitioner};
use eblocks_farm::{run_batch, Batch, FarmConfig, Job, JsonOptions};
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::{Anneal, PareDown};
use eblocks_partition::{pare_down_traced, AnnealConfig, PartitionConstraints, TraceEvent};
use std::time::Duration;

fn main() {
    let exh_limit_s: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let constraints = PartitionConstraints::default();

    println!("Exhaustive search scaling (time limit {exh_limit_s}s per design):");
    println!(
        "{:>6} {:>14} {:>10} | {:>16} {:>10}",
        "inner", "pruned", "complete?", "paper-faithful", "complete?"
    );
    for inner in [6, 8, 10, 11, 12, 13, 14] {
        let design = generate(&GeneratorConfig::new(inner), 4242 + inner as u64);
        let t = run_partitioner(
            &design,
            &constraints,
            &exhaustive_with_limit(Duration::from_secs(exh_limit_s)),
        );
        // Paper-faithful mode: only the §4.1 symmetry pruning, no incumbent
        // seeding — the configuration whose runtime Table 2 reports.
        let start = std::time::Instant::now();
        let raw = eblocks_partition::exhaustive(
            &design,
            &constraints,
            eblocks_partition::ExhaustiveOptions {
                time_limit: Some(Duration::from_secs(exh_limit_s)),
                paper_pruning_only: true,
                ..Default::default()
            },
        );
        let raw_elapsed = start.elapsed();
        println!(
            "{:>6} {:>14} {:>10} | {:>16} {:>10}",
            inner,
            fmt_time(t.elapsed),
            if t.result.is_complete() {
                "yes"
            } else {
                "TIMEOUT"
            },
            fmt_time(raw_elapsed),
            if raw.is_complete() { "yes" } else { "TIMEOUT" }
        );
    }

    // Next to each wall time, a deterministic work count: the removal
    // steps of an untimed traced run of the same design.
    println!("\nPareDown scaling (same seeds, plus the paper's 465-node point):");
    println!(
        "{:>6} {:>14} {:>8} {:>8} {:>9}",
        "inner", "time", "total", "prog", "removals"
    );
    for inner in [6, 10, 14, 20, 25, 35, 45, 100, 200, 465] {
        let design = generate(&GeneratorConfig::new(inner), 4242 + inner as u64);
        let t = run_partitioner(&design, &constraints, &PareDown);
        let (_, trace) = pare_down_traced(&design, &constraints);
        let removals = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Removed { .. }))
            .count();
        println!(
            "{:>6} {:>14} {:>8} {:>8} {:>9}",
            inner,
            fmt_time(t.elapsed),
            t.result.inner_total(),
            t.result.num_partitions(),
            removals
        );
    }

    // The ROADMAP's "parallel annealing restarts" win: N independent walks
    // on scoped threads cost roughly one walk of wall-clock while the
    // best-of-N objective only improves.
    println!("\nParallel anneal restarts (100-inner design, best-of-N):");
    println!(
        "{:>9} {:>14} {:>8} {:>8}",
        "restarts", "time", "total", "prog"
    );
    let design = generate(&GeneratorConfig::new(100), 4242 + 100);
    for restarts in [1u32, 2, 4, 8] {
        let anneal = Anneal {
            config: AnnealConfig {
                iterations: 10_000,
                restarts,
                ..Default::default()
            },
        };
        let t = run_partitioner(&design, &constraints, &anneal);
        println!(
            "{restarts:>9} {:>14} {:>8} {:>8}",
            fmt_time(t.elapsed),
            t.result.inner_total(),
            t.result.num_partitions()
        );
    }

    // Batch synthesis on the farm: the full pipeline (partition, merge,
    // rewrite, co-simulated verification, C emission) over every Table-1
    // design, sequential vs N workers. Per-job results must be identical
    // across worker counts — only the wall clock moves.
    println!("\nBatch synthesis over the 15 Table-1 designs (farm engine, full pipeline):");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("detected cores: {cores} (speedups below are relative to 1 worker on this machine)");
    println!("{:>8} {:>14} {:>9}", "workers", "time", "speedup");
    let batch = Batch::new(
        eblocks_designs::all()
            .iter()
            .map(|entry| Job::library(entry.name))
            .collect(),
    );
    let deterministic = JsonOptions::default();
    let mut baseline: Option<(Duration, String)> = None;
    let mut identical = true;
    for workers in [1usize, 2, 4, 8] {
        let report = run_batch(&batch, &FarmConfig::with_workers(workers));
        assert!(report.all_ok(), "{}", report.render_text(false));
        let json = report.to_json(&deterministic);
        let speedup = match &baseline {
            None => {
                baseline = Some((report.elapsed, json));
                "1.00x".to_string()
            }
            Some((sequential, sequential_json)) => {
                identical &= json == *sequential_json;
                format!(
                    "{:.2}x",
                    sequential.as_secs_f64() / report.elapsed.as_secs_f64()
                )
            }
        };
        println!(
            "{workers:>8} {:>14} {:>9}",
            fmt_time(report.elapsed),
            speedup
        );
    }
    println!(
        "per-job results identical across worker counts: {}",
        if identical { "yes" } else { "NO — BUG" }
    );
}
