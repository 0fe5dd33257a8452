//! Reproduces the §5.2 runtime claims:
//!
//! * the paper's exhaustive search is fine to ~10 inner blocks, painful at
//!   11–13, and hopeless beyond ("did not conclude after four hours" at 14)
//!   — the paper-faithful column, up to 14 blocks;
//! * PareDown "continues to process large designs in a reasonable amount of
//!   time", including a 465-inner-node design (80 s on the paper's 2 GHz
//!   Athlon XP under Java; far faster here — the *shape* is the claim).
//!
//! Next to the paper's search runs the exact cover solver `exhaustive` uses,
//! with its candidate-set count (its deterministic work measure) under the
//! paper's 2-in/2-out budget and under 3-in/3-out, up to 25 blocks.
//!
//! Plus two north-star scaling sections beyond the paper: parallel anneal
//! restarts, and batch-synthesis speedup (sequential vs N farm workers over
//! all 15 Table-1 designs, checking the per-job results stay identical).
//!
//! Usage: `cargo run --release -p eblocks-bench --bin scaling [exh_limit_s]`

use eblocks_bench::{exhaustive_with_limit, fmt_time, run_partitioner};
use eblocks_core::{InnerIndex, ProgrammableSpec};
use eblocks_farm::{run_batch, BatchRequest, DesignSource, FarmConfig, JobSpec, JsonOptions};
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::{Anneal, PareDown};
use eblocks_partition::{
    candidate_sets, exhaustive, pare_down_traced, AnnealConfig, ExhaustiveOptions,
    PartitionConstraints, TraceEvent,
};
use std::time::{Duration, Instant};

/// The largest design the paper-faithful search runs on.
const PAPER_FAITHFUL_MAX: usize = 14;

fn main() {
    let exh_limit_s: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let limit = Duration::from_secs(exh_limit_s);
    let constraints = PartitionConstraints::default();
    let wide = PartitionConstraints::with_spec(ProgrammableSpec::new(3, 3));
    let done = |complete: bool| if complete { "yes" } else { "TIMEOUT" };

    println!("Exhaustive search scaling (time limit {exh_limit_s}s per design):");
    println!(
        "{:>6} {:>12} {:>10} {:>6} | {:>16} {:>10} | {:>9}",
        "inner", "exact cover", "complete?", "sets", "paper-faithful", "complete?", "sets 3x3"
    );
    for inner in [6, 8, 10, 11, 12, 13, 14, 20, 25] {
        let design = generate(&GeneratorConfig::new(inner), 4242 + inner as u64);
        let index = InnerIndex::new(&design);
        let t = run_partitioner(&design, &constraints, &exhaustive_with_limit(limit));
        // Paper-faithful mode: only the §4.1 symmetry pruning, no incumbent
        // seeding — the configuration whose runtime Table 2 reports.
        let (paper_time, paper_done) = if inner <= PAPER_FAITHFUL_MAX {
            let start = Instant::now();
            let raw = exhaustive(
                &design,
                &constraints,
                ExhaustiveOptions {
                    time_limit: Some(limit),
                    paper_pruning_only: true,
                },
            );
            (fmt_time(start.elapsed()), done(raw.is_complete()))
        } else {
            ("--".to_string(), "--")
        };
        println!(
            "{:>6} {:>12} {:>10} {:>6} | {:>16} {:>10} | {:>9}",
            inner,
            fmt_time(t.elapsed),
            done(t.result.is_complete()),
            candidate_sets(&design, &index, &constraints).len(),
            paper_time,
            paper_done,
            candidate_sets(&design, &index, &wide).len(),
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
    let batch = BatchRequest {
        default_partitioner: None,
        jobs: eblocks_designs::all()
            .iter()
            .map(|entry| JobSpec::new(DesignSource::Library(entry.name.into())))
            .collect(),
    };
    let deterministic = JsonOptions::default();
    let mut baseline: Option<(Duration, String)> = None;
    let mut identical = true;
    for workers in [1usize, 2, 4, 8] {
        let report = run_batch(&batch, &FarmConfig::with_workers(workers));
        assert!(report.all_ok(), "{}", report.render_text(false));
        let json = report.to_json(&deterministic);
        let elapsed_ms = report.batch.elapsed_ms.expect("run_batch times the batch");
        let elapsed = Duration::from_secs_f64(elapsed_ms / 1e3);
        let speedup = match &baseline {
            None => {
                baseline = Some((elapsed, json));
                "1.00x".to_string()
            }
            Some((sequential, sequential_json)) => {
                identical &= json == *sequential_json;
                format!("{:.2}x", sequential.as_secs_f64() / elapsed.as_secs_f64())
            }
        };
        println!("{workers:>8} {:>14} {:>9}", fmt_time(elapsed), speedup);
    }
    println!(
        "per-job results identical across worker counts: {}",
        if identical { "yes" } else { "NO — BUG" }
    );
}
