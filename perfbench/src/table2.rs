//! `table2`: the paper's Table 2 — partition analysis of a seeded draw of
//! random designs with the paper's per-size counts, one design per op.
//!
//! PareDown analyses every design; exhaustive search also runs on designs
//! of 13 inner blocks or fewer, with no time limit (a limit would make the
//! results depend on timing). Nothing here simulates, so partitioner
//! changes show here and simulator changes must show nothing.

use crate::harness::{self, drive, mix, set_up, table2_mix, Args, Op, Outcome, TABLE2_DESIGNS};
use crate::trace::Tracer;
use eblocks::core::Design;
use eblocks::partition::strategy::{Exhaustive, PareDown};
use eblocks::partition::{PartitionConstraints, Partitioner, Partitioning};
use std::time::{Duration, Instant};

const SALT_CORPUS: u64 = 0x7a_0001;
const SALT_WARMUP: u64 = 0x7a_0002;

/// The paper ran exhaustive search only up to this many inner blocks.
const EXHAUSTIVE_CUTOFF: usize = 13;

/// Designs per second of `--seconds`: one pass over a full-scale draw
/// (9,663 designs) takes 3.3–4.8 s on two cores, depending on how busy
/// the machine's other tenants keep it.
const DESIGNS_PER_SECOND: usize = 1_800;

/// Deterministic totals over the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// PareDown's inner blocks after partitioning, over every design.
    pub inner_blocks: u64,
    /// Designs with an exhaustive optimum (13 inner blocks or fewer).
    pub small_designs: u64,
    /// Of those, designs where PareDown matched the optimum.
    pub optimal_matches: u64,
    /// PareDown's inner blocks over the small designs.
    pub pare_down_small: u64,
    /// The optimum's inner blocks over the small designs.
    pub optimal_small: u64,
}

fn corpus(tracer: &mut Tracer, seed: u64, salt: u64, designs: usize) -> Vec<Design> {
    let mut keyed = Vec::new();
    for (inner, count) in table2_mix(designs) {
        for j in 0..count {
            let op = keyed.len() as u64;
            let key = mix(&[seed, salt, inner as u64, j as u64]);
            keyed.push((key, harness::generate(tracer, inner, key, op)));
        }
    }
    // A seeded interleave of the sizes, so every slice of the timed phase
    // sees the same mix.
    keyed.sort_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, design)| design).collect()
}

/// Partitions one design with PareDown and, when small enough, with
/// exhaustive search; returns the latency and the checked totals.
fn analyse(tracer: &mut Tracer, design: &Design, op: u64) -> (Duration, Result<Totals, String>) {
    let constraints = PartitionConstraints::default();
    let small = design.inner_blocks().count() <= EXHAUSTIVE_CUTOFF;
    let started = Instant::now();
    let root = tracer.begin("table2.op", op);
    let pd = tracer.span("partition.pare_down", op, || {
        PareDown.partition(design, &constraints)
    });
    let optimum = small.then(|| {
        tracer.span("partition.exhaustive", op, || {
            Exhaustive::default().partition(design, &constraints)
        })
    });
    tracer.end(root);
    let latency = started.elapsed();
    (latency, check(design, &constraints, &pd, optimum.as_ref()))
}

/// Both partitionings verify, the exhaustive search completed, and
/// PareDown never beats the optimum.
fn check(
    design: &Design,
    constraints: &PartitionConstraints,
    pd: &Partitioning,
    optimum: Option<&Partitioning>,
) -> Result<Totals, String> {
    pd.verify(design, constraints)
        .map_err(|e| format!("pare-down: {e}"))?;
    let mut totals = Totals {
        inner_blocks: pd.inner_total() as u64,
        ..Totals::default()
    };
    if let Some(opt) = optimum {
        opt.verify(design, constraints)
            .map_err(|e| format!("exhaustive: {e}"))?;
        if !opt.is_complete() {
            return Err("exhaustive search stopped early".to_string());
        }
        if pd.inner_total() < opt.inner_total() {
            return Err(format!(
                "pare-down {} beats the optimum {}",
                pd.inner_total(),
                opt.inner_total()
            ));
        }
        totals.small_designs = 1;
        totals.optimal_matches = u64::from(pd.inner_total() == opt.inner_total());
        totals.pare_down_small = pd.inner_total() as u64;
        totals.optimal_small = opt.inner_total() as u64;
    }
    Ok(totals)
}

/// Runs the workload over a draw of about `designs` designs.
pub fn run_sized(args: &Args, tracer: &mut Tracer, designs: usize) -> Result<Outcome, String> {
    let (corpus_designs, setup) = set_up(
        args.trace,
        tracer,
        |tracer| Ok(corpus(tracer, args.seed, SALT_CORPUS, designs)),
        drop,
    )?;

    // Warm up on a small draw apart from the corpus.
    for (i, design) in corpus(tracer, args.seed, SALT_WARMUP, TABLE2_DESIGNS / 40)
        .iter()
        .enumerate()
    {
        analyse(tracer, design, i as u64)
            .1
            .map_err(|e| format!("warm-up design {i}: {e}"))?;
    }

    let mut totals = Totals::default();
    let phase = drive(corpus_designs.len(), args.trace, tracer, |i, tracer| {
        let counted = tracer.enabled() || !args.trace;
        match analyse(tracer, &corpus_designs[i], i as u64) {
            (latency, Ok(t)) => {
                if counted {
                    totals.inner_blocks += t.inner_blocks;
                    totals.small_designs += t.small_designs;
                    totals.optimal_matches += t.optimal_matches;
                    totals.pare_down_small += t.pare_down_small;
                    totals.optimal_small += t.optimal_small;
                }
                Op::ok(latency, 1.0)
            }
            (latency, Err(e)) => Op::failed(latency, e),
        }
    });

    let mut outcome = Outcome::new(phase, setup, "designs");
    outcome.inner_blocks = totals.inner_blocks;
    outcome.deterministic = vec![
        ("designs", corpus_designs.len().to_string()),
        ("inner_blocks", totals.inner_blocks.to_string()),
        ("small_designs", totals.small_designs.to_string()),
        ("pare_down_small_blocks", totals.pare_down_small.to_string()),
        ("optimal_small_blocks", totals.optimal_small.to_string()),
    ];
    outcome.count(
        "partition.optimal_share",
        totals.optimal_matches as f64 / totals.small_designs.max(1) as f64,
        format!(
            "{} of {} designs of {EXHAUSTIVE_CUTOFF} inner blocks or fewer",
            totals.optimal_matches, totals.small_designs
        ),
    );
    outcome.count(
        "partition.optimal_base",
        totals.small_designs as f64,
        "designs with an exhaustive optimum",
    );
    Ok(outcome)
}

/// Runs the workload sized by `--seconds`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    run_sized(args, tracer, args.seconds as usize * DESIGNS_PER_SECOND)
}
