//! `synth`: the user's compile path (`eblocks-cli synth --lint`), one
//! design per op, over the committed netlists plus a seeded draw of
//! generated designs with Table 2's size mix.
//!
//! An op parses the netlist, runs the staged pipeline with the lint stage
//! on and PareDown partitioning, merges, rewrites, verifies by
//! co-simulation, emits C, and prints the synthesized netlist. Verify is
//! about 85% of the time at every size, so simulator and codegen changes
//! show here while partitioning is about 5%.

use crate::harness::{self, drive, mix, set_up, table2_mix, Args, Op, Outcome};
use crate::trace::Tracer;
use eblocks::core::netlist::{from_netlist, to_netlist};
use eblocks::lint::LintConfig;
use eblocks::partition::strategy::PareDown;
use eblocks::synth::{Pipeline, Stage, StageReport, SynthesisResult, VerifyOptions};
use std::path::Path;
use std::time::{Duration, Instant};

const SALT_POOL: u64 = 0x5e_0001;
const SALT_DRAW: u64 = 0x5e_0002;
const SALT_ORDER: u64 = 0x5e_0003;

/// Generated designs come from a fixed pool of this many, with Table 2's
/// size mix, which every run draws its corpus and warm-up from in a seeded
/// order. The pool is screened (the `screen_synth_pool` test): a benchmark
/// op must not fail, and about one random design in 100,000 synthesizes to
/// a network that verify finds divergent (a pulse and its delayed copy
/// meet in an XOR that feeds a toggle; merging shifts the edges past the
/// verifier's tolerance). None of the pool's designs does.
const POOL: usize = 13_000;

/// Generated designs per second of `--seconds`: sized so one pass over
/// the corpus takes about that long on two cores.
const DESIGNS_PER_SECOND: usize = 150;

/// Deterministic totals over the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Inner blocks after partitioning (pre-defined plus programmable).
    pub inner_blocks: u64,
    /// Lint findings (errors plus warnings).
    pub findings: u64,
    /// Programmable blocks produced.
    pub prog_blocks: u64,
    /// Bytes of emitted C.
    pub c_bytes: u64,
    /// Verification sample instants.
    pub samples: u64,
}

impl Totals {
    fn add(&mut self, other: Totals) {
        self.inner_blocks += other.inner_blocks;
        self.findings += other.findings;
        self.prog_blocks += other.prog_blocks;
        self.c_bytes += other.c_bytes;
        self.samples += other.samples;
    }
}

/// Pool design `j` of `inner` inner blocks.
fn pool_design(tracer: &mut Tracer, inner: usize, j: usize, op: u64) -> eblocks::core::Design {
    harness::generate(tracer, inner, mix(&[SALT_POOL, inner as u64, j as u64]), op)
}

/// For each size, `count + 1` pool indices in workload `seed`'s order: a
/// run takes the first `count` for its corpus and the last to warm up.
fn draw(seed: u64, generated: usize) -> Result<Vec<(usize, Vec<usize>)>, String> {
    table2_mix(generated)
        .into_iter()
        .zip(table2_mix(POOL))
        .map(|((inner, count), (_, in_pool))| {
            if in_pool <= count {
                return Err(format!(
                    "the pool has {in_pool} designs of {inner} blocks; the run needs {}",
                    count + 1
                ));
            }
            let mut js: Vec<usize> = (0..in_pool).collect();
            js.sort_by_key(|&j| mix(&[seed, SALT_DRAW, inner as u64, j as u64]));
            js.truncate(count + 1);
            Ok((inner, js))
        })
        .collect()
}

/// The op order of the committed netlists plus `generated` pool designs,
/// as netlist text.
fn corpus(tracer: &mut Tracer, seed: u64, generated: usize) -> Result<Vec<String>, String> {
    let dir = Path::new("netlists");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "netlist"))
        .collect();
    paths.sort();
    let mut texts = Vec::new();
    for path in paths {
        texts.push(
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    for (inner, js) in draw(seed, generated)? {
        for &j in &js[..js.len() - 1] {
            let op = texts.len() as u64;
            texts.push(to_netlist(&pool_design(tracer, inner, j, op)));
        }
    }
    // A seeded interleave, so large designs are spread over the run.
    let mut keyed: Vec<(u64, String)> = texts
        .into_iter()
        .enumerate()
        .map(|(i, text)| (mix(&[seed, SALT_ORDER, i as u64]), text))
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    Ok(keyed.into_iter().map(|(_, text)| text).collect())
}

/// Checks every pool design and returns the ones that fail.
#[cfg(test)]
pub fn screen_pool() -> Vec<String> {
    let mut tracer = Tracer::new();
    let mut failures = Vec::new();
    for (inner, in_pool) in table2_mix(POOL) {
        for j in 0..in_pool {
            let text = to_netlist(&pool_design(&mut tracer, inner, j, 0));
            if let (_, Err(e)) = synthesize(&mut tracer, &text, 0) {
                failures.push(format!("{inner}/{j}: {e}"));
            }
        }
    }
    failures
}

/// One design through the compile path. Returns the latency of the
/// program's calls and the checked totals, or the failure.
fn synthesize(tracer: &mut Tracer, text: &str, op: u64) -> (Duration, Result<Totals, String>) {
    let started = Instant::now();
    let root = tracer.begin("synth.op", op);
    let result = pipeline(tracer, text, op);
    tracer.end(root);
    let latency = started.elapsed();
    let totals = result.and_then(|(result, netlist)| {
        check(&result, &netlist)?;
        let samples = result.report.as_ref().map_or(0, |r| r.sample_times.len());
        let lint = result.lint.unwrap_or_default();
        Ok(Totals {
            inner_blocks: result.inner_after() as u64,
            findings: (lint.errors + lint.warnings) as u64,
            prog_blocks: result.partitioning.num_partitions() as u64,
            c_bytes: result.c_sources.iter().map(|(_, c)| c.len() as u64).sum(),
            samples: samples as u64,
        })
    });
    (latency, totals)
}

fn pipeline(tracer: &mut Tracer, text: &str, op: u64) -> Result<(SynthesisResult, String), String> {
    let design = tracer
        .span("core.parse", op, || from_netlist(text))
        .map_err(|e| format!("parse: {e}"))?;
    // Lint and partition run inside `partition_with`; the pipeline's
    // stage reports time them, and become spans once the pipeline ends.
    let mut stages: Vec<(Stage, Instant, Duration)> = Vec::new();
    let mut observer = |r: &StageReport| stages.push((r.stage, Instant::now(), r.elapsed));
    let mut staged = Pipeline::new(&design).lint(LintConfig::default());
    if tracer.enabled() {
        staged = staged.observe(&mut observer);
    }
    let result = (|| {
        let partitioned = staged.partition_with(&PareDown)?;
        let merged = tracer.span("codegen.merge", op, || partitioned.merge())?;
        let rewritten = tracer.span("synth.rewrite", op, || merged.rewrite())?;
        let verified = tracer.span("sim.verify", op, || {
            rewritten.verify(VerifyOptions::default())
        })?;
        Ok(tracer.span("codegen.emit", op, || verified.emit_c()))
    })()
    .map_err(|e: eblocks::synth::SynthError| e.to_string());
    for (stage, at, elapsed) in stages {
        let name = match stage {
            Stage::Lint => "lint",
            Stage::Partition => "partition",
            _ => continue,
        };
        tracer.record(name, op, at.checked_sub(elapsed).unwrap_or(at), at);
    }
    let result = result?;
    let netlist = tracer.span("core.print", op, || to_netlist(&result.synthesized));
    Ok((result, netlist))
}

/// Verify found the networks equivalent, every programmable block got a
/// C program, and the printed netlist reads back as the same network.
fn check(result: &SynthesisResult, netlist: &str) -> Result<(), String> {
    match &result.report {
        Some(report) if report.is_equivalent() => {}
        Some(report) => return Err(format!("{} mismatch(es)", report.mismatches.len())),
        None => return Err("verification did not run".to_string()),
    }
    let census = result.synthesized.census();
    if census.programmable != result.c_sources.len()
        || result.c_sources.iter().any(|(_, code)| code.is_empty())
    {
        return Err(format!(
            "{} programmable block(s) but {} C source(s)",
            census.programmable,
            result.c_sources.len()
        ));
    }
    if census.inner_total() != result.inner_after() {
        return Err("inner block count disagrees with the partitioning".to_string());
    }
    let reread = from_netlist(netlist).map_err(|e| format!("printed netlist: {e}"))?;
    if reread.census() != census {
        return Err("printed netlist reads back differently".to_string());
    }
    Ok(())
}

/// Runs the workload with `generated` designs beside the committed ones.
pub fn run_sized(args: &Args, tracer: &mut Tracer, generated: usize) -> Result<Outcome, String> {
    let (designs, setup) = set_up(
        args.trace,
        tracer,
        |tracer| corpus(tracer, args.seed, generated),
        drop,
    )?;

    // Warm up on one design of each size, drawn apart from the corpus.
    for (inner, js) in draw(args.seed, generated)? {
        let j = js[js.len() - 1];
        let text = to_netlist(&pool_design(tracer, inner, j, 0));
        synthesize(tracer, &text, 0)
            .1
            .map_err(|e| format!("warm-up design {inner}/{j}: {e}"))?;
    }

    let mut totals = Totals::default();
    let phase = drive(designs.len(), args.trace, tracer, |i, tracer| {
        let counted = tracer.enabled() || !args.trace;
        match synthesize(tracer, &designs[i], i as u64) {
            (latency, Ok(t)) => {
                if counted {
                    totals.add(t);
                }
                Op::ok(latency, 1.0)
            }
            (latency, Err(e)) => Op::failed(latency, e),
        }
    });

    let mut outcome = Outcome::new(phase, setup, "designs");
    outcome.inner_blocks = totals.inner_blocks;
    outcome.deterministic = vec![
        ("designs", designs.len().to_string()),
        ("inner_blocks", totals.inner_blocks.to_string()),
        ("prog_blocks", totals.prog_blocks.to_string()),
        ("c_bytes", totals.c_bytes.to_string()),
    ];
    let basis = format!("{} designs", designs.len());
    outcome.count("lint.findings", totals.findings as f64, basis.clone());
    outcome.count(
        "partition.prog_blocks",
        totals.prog_blocks as f64,
        basis.clone(),
    );
    outcome.count("codegen.c_bytes", totals.c_bytes as f64, basis.clone());
    outcome.count("sim.verify_samples", totals.samples as f64, basis);
    Ok(outcome)
}

/// Runs the workload sized by `--seconds`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    // The 20 committed netlists make up the rest of the corpus.
    let generated = (args.seconds as usize * DESIGNS_PER_SECOND).saturating_sub(20);
    run_sized(args, tracer, generated)
}
