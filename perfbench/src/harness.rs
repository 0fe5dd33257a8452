//! What every workload shares: the timed loop, repeated set-up, the
//! metric tables, percentiles, peak memory, seeds, and the printed result.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2005;

/// End-to-end metrics, printed on every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("inner_blocks", "count"),
];

/// Per-layer timings: span name, then the metric carrying its time and the
/// one carrying its call count. Times are self times summed over the run.
pub const SPAN_METRICS: [(&str, &str, &str); 21] = [
    ("gen", "gen.busy_ms", "gen.designs"),
    ("core.parse", "core.parse_ms", "core.parse_calls"),
    ("lint", "lint.busy_ms", "lint.calls"),
    ("partition", "partition.busy_ms", "partition.calls"),
    ("codegen.merge", "codegen.merge_ms", "codegen.merge_calls"),
    ("synth.rewrite", "synth.rewrite_ms", "synth.rewrite_calls"),
    ("sim.verify", "sim.verify_ms", "sim.verify_calls"),
    ("codegen.emit", "codegen.emit_ms", "codegen.emit_calls"),
    ("core.print", "core.print_ms", "core.print_calls"),
    (
        "partition.pare_down",
        "partition.pare_down_ms",
        "partition.pare_down_calls",
    ),
    (
        "partition.exhaustive",
        "partition.exhaustive_ms",
        "partition.exhaustive_calls",
    ),
    ("net.parse", "net.parse_ms", "net.parse_calls"),
    ("net.build", "net.build_ms", "net.build_calls"),
    ("net.run", "net.run_ms", "net.run_calls"),
    ("place.route", "place.route_ms", "place.route_calls"),
    ("serde.encode", "serde.encode_ms", "serde.encode_calls"),
    ("serde.decode", "serde.decode_ms", "serde.decode_calls"),
    (
        "serve.admission",
        "serve.admission_ms",
        "serve.admission_calls",
    ),
    ("serve.run", "serve.run_ms", "serve.run_calls"),
    (
        "farm.synthesize",
        "farm.synthesize_ms",
        "farm.synthesize_calls",
    ),
    ("serve.stats", "serve.stats_ms", "serve.stats_calls"),
];

/// Per-layer counts a workload reports itself, with their units.
pub const COUNT_METRICS: [(&str, &str); 21] = [
    ("lint.findings", "count"),
    ("partition.prog_blocks", "count"),
    ("codegen.c_bytes", "bytes"),
    ("sim.verify_samples", "count"),
    ("partition.optimal_share", "ratio"),
    ("partition.optimal_base", "count"),
    ("net.ns_per_event", "ns"),
    ("net.events", "count"),
    ("net.packets_sent", "count"),
    ("net.packets_delivered", "count"),
    ("net.packets_dropped", "count"),
    ("net.link_wait_ticks", "ticks"),
    ("serve.reply_bytes", "bytes"),
    ("serve.stats_rows", "count"),
    ("serve.accepted", "count"),
    ("serve.rejected", "count"),
    ("serve.completed", "count"),
    ("trace.untraced_per_s", "1/s"),
    ("trace.traced_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload runs.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Target length of the timed phase; sizes each workload's input.
    pub seconds: u64,
    /// Run traced: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// SplitMix64 fold: a seed for each generated input, pure in its parts.
pub fn mix(parts: &[u64]) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for &part in parts {
        let mut z = acc ^ part.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = z ^ (z >> 31);
    }
    acc
}

/// The paper's Table 2 sweep, `(inner blocks, number of designs)`: the
/// size mix of the generated corpora. The same data `eblocks-bench` sweeps,
/// kept here so the benchmark depends only on the library crates.
pub const TABLE2_COUNTS: [(usize, usize); 17] = [
    (3, 1531),
    (4, 982),
    (5, 542),
    (6, 432),
    (7, 447),
    (8, 350),
    (9, 340),
    (10, 199),
    (11, 170),
    (12, 31),
    (13, 6),
    (14, 1311),
    (15, 1184),
    (20, 928),
    (25, 691),
    (35, 354),
    (45, 165),
];

/// Designs in the full-scale Table 2 sweep.
pub const TABLE2_DESIGNS: usize = 9663;

/// Table 2's per-size counts scaled so the total is about `designs`
/// (every size keeps at least one design).
pub fn table2_mix(designs: usize) -> Vec<(usize, usize)> {
    TABLE2_COUNTS
        .iter()
        .map(|&(inner, count)| {
            let scaled = (count * designs + TABLE2_DESIGNS / 2) / TABLE2_DESIGNS;
            (inner, scaled.max(1))
        })
        .collect()
}

/// Generates one corpus design, recording a `gen` span.
pub fn generate(tracer: &mut Tracer, inner: usize, seed: u64, op: u64) -> eblocks::core::Design {
    tracer.span("gen", op, || {
        eblocks::gen::generate(&eblocks::gen::GeneratorConfig::new(inner), seed)
    })
}

/// One executed op: its latency (program calls only, checks excluded),
/// the work it completed, and what its output check found.
#[derive(Debug, Clone)]
pub struct Op {
    /// Time spent in the program's calls.
    pub latency: Duration,
    /// Throughput numerator: designs, events, or payload requests.
    pub work: f64,
    /// Whether the op's latency is a latency sample (serve's `stats`
    /// polls are traffic but not payload).
    pub sample: bool,
    /// Why the output check failed, if it did.
    pub error: Option<String>,
}

impl Op {
    /// A checked op that completed `work` units in `latency`.
    pub fn ok(latency: Duration, work: f64) -> Self {
        Self {
            latency,
            work,
            sample: true,
            error: None,
        }
    }

    /// An op whose call or output check failed.
    pub fn failed(latency: Duration, error: impl Into<String>) -> Self {
        Self {
            latency,
            work: 0.0,
            sample: true,
            error: Some(error.into()),
        }
    }
}

/// Throughput is the median over this many consecutive slices of the
/// timed phase, so a burst of contention from other tenants of the
/// machine moves a few slices rather than the result.
pub const SLICES: usize = 20;

/// The timed phase stops early (and the run fails its check) past this.
const PHASE_CAP: Duration = Duration::from_secs(120);

/// The speed probe's median time on a quiet two-core machine. Every
/// reported time is scaled by [`machine_speed`], so a run on a machine its
/// other tenants slow down reads like one on a quiet machine. Fixed:
/// changing it rescales every reported time.
pub const PROBE_REF_S: f64 = 0.0015;

/// A fixed loop of ordered-map updates, small allocations, and hashing:
/// the kind of work the program does, but none of its code, so no change
/// to the program can move it.
fn probe() -> u64 {
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        let key = mix(&[i]) % 4096;
        *map.entry(key).or_insert(0u64) += i;
        let small: Vec<u64> = (0..8).map(|j| key ^ j).collect();
        acc = acc.wrapping_add(small.iter().sum::<u64>());
    }
    acc ^ map.len() as u64
}

/// The machine's speed now: [`PROBE_REF_S`] over the median of five probe
/// runs (below 1 while other tenants slow the machine down).
pub fn machine_speed() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(probe());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    PROBE_REF_S / median(&mut times)
}

/// One executed op as the tally keeps it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Wall-clock latency.
    pub latency: Duration,
    /// Throughput work.
    pub work: f64,
    /// Whether the latency is a latency sample.
    pub sample: bool,
    /// Mean [`machine_speed`] at the start and end of the op's slice.
    pub speed: f64,
}

impl Record {
    /// Latency in seconds, scaled to the reference machine speed.
    fn scaled_s(&self) -> f64 {
        self.latency.as_secs_f64() * self.speed
    }
}

/// The ops of one tracing mode, in execution order.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Every op executed.
    pub ops: Vec<Record>,
}

impl Tally {
    /// Summed wall-clock latency of every op.
    pub fn busy(&self) -> Duration {
        self.ops.iter().map(|op| op.latency).sum()
    }

    /// Summed work.
    pub fn work(&self) -> f64 {
        self.ops.iter().map(|op| op.work).sum()
    }

    /// Median machine speed over the ops.
    pub fn speed(&self) -> f64 {
        let mut speeds: Vec<f64> = self.ops.iter().map(|op| op.speed).collect();
        if speeds.is_empty() {
            return 0.0;
        }
        median(&mut speeds)
    }

    /// The latency samples in ms, scaled, sorted.
    pub fn samples_ms(&self) -> Vec<f64> {
        let mut samples: Vec<f64> = self
            .ops
            .iter()
            .filter(|op| op.sample)
            .map(|op| op.scaled_s() * 1e3)
            .collect();
        samples.sort_by(f64::total_cmp);
        samples
    }

    /// Work per scaled second of busy time: the median over [`SLICES`]
    /// consecutive slices of the ops.
    pub fn throughput(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        let per_slice = self.ops.len().div_ceil(SLICES);
        let mut rates: Vec<f64> = self
            .ops
            .chunks(per_slice)
            .map(|slice| {
                let busy: f64 = slice.iter().map(Record::scaled_s).sum();
                let work: f64 = slice.iter().map(|op| op.work).sum();
                finite(work / busy)
            })
            .collect();
        median(&mut rates)
    }
}

/// The timed phase: untraced and traced tallies plus check counts.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Ops executed with tracing off.
    pub plain: Tally,
    /// Ops executed with tracing on (traced runs only).
    pub traced: Tally,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose call or output check failed, or that the phase cap cut.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

/// Runs ops `0..n`. Untraced, each op runs once with tracing off. Traced,
/// each op runs once each way, alternating which goes first so warm-cache
/// effects cancel; the difference is the tracing overhead.
pub fn drive(
    n: usize,
    traced_run: bool,
    tracer: &mut Tracer,
    mut op: impl FnMut(usize, &mut Tracer) -> Op,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let per_slice = n.div_ceil(SLICES).max(1);
    // The machine's speed at every slice boundary; an op is scaled by the
    // mean of the two around its slice.
    let mut probes = Vec::with_capacity(SLICES + 1);
    for i in 0..n {
        if i % per_slice == 0 {
            probes.push(machine_speed());
        }
        if started.elapsed() > PHASE_CAP {
            phase.attempted += (n - i) as u64;
            phase.failed += (n - i) as u64;
            phase.errors.push(format!(
                "timed phase passed {} s; {} op(s) not run",
                PHASE_CAP.as_secs(),
                n - i
            ));
            break;
        }
        let modes: &[bool] = match (traced_run, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut failed = false;
        for &traced in modes {
            tracer.set_enabled(traced);
            let result = op(i, tracer);
            let tally = if traced {
                &mut phase.traced
            } else {
                &mut phase.plain
            };
            tally.ops.push(Record {
                latency: result.latency,
                work: result.work,
                sample: result.sample,
                speed: 0.0,
            });
            if let Some(error) = result.error {
                failed = true;
                if phase.errors.len() < 5 {
                    phase.errors.push(format!("op {i}: {error}"));
                }
            }
        }
        phase.attempted += 1;
        phase.failed += u64::from(failed);
    }
    tracer.set_enabled(false);
    probes.push(machine_speed());
    for tally in [&mut phase.plain, &mut phase.traced] {
        for (j, record) in tally.ops.iter_mut().enumerate() {
            let slice = j / per_slice;
            record.speed = (probes[slice] + probes[slice + 1]) / 2.0;
        }
    }
    phase
}

/// How long the workload's input took to build.
#[derive(Debug, Clone, Copy)]
pub struct SetupStat {
    /// Median wall-clock seconds of one build.
    pub median_s: f64,
    /// Builds timed.
    pub reps: usize,
    /// Mean [`machine_speed`] before and after the builds.
    pub speed: f64,
}

/// Set-up is repeated for at least this long, so one burst of contention
/// from the machine's other tenants cannot set the median.
const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// Builds the workload's input at least three times and until
/// [`SETUP_WINDOW`] has passed (at most 100,000 times), tearing each build
/// down before the next so only one is alive. Only the first build is
/// traced. Returns the last build, which the timed phase uses.
pub fn set_up<T>(
    traced_run: bool,
    tracer: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, SetupStat), String> {
    let speed_before = machine_speed();
    let started = Instant::now();
    let mut times = Vec::new();
    let mut value: Option<T> = None;
    while times.len() < 3 || (started.elapsed() < SETUP_WINDOW && times.len() < 100_000) {
        if let Some(old) = value.take() {
            teardown(old);
        }
        tracer.set_enabled(traced_run && times.is_empty());
        let t0 = Instant::now();
        let built = build(tracer);
        times.push(t0.elapsed().as_secs_f64());
        tracer.set_enabled(false);
        value = Some(built?);
    }
    let stat = SetupStat {
        median_s: median(&mut times),
        reps: times.len(),
        speed: (speed_before + machine_speed()) / 2.0,
    };
    Ok((value.expect("built at least once"), stat))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Percentile `q` of `sorted`, interpolated linearly between the two
/// nearest samples (so on a small run p99 leans on the second-slowest op,
/// not only the slowest), and how many samples lie above it.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64);
    (value, sorted.iter().filter(|&&s| s > value).count())
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// One printed metric: value, unit, and the counts behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The op and sample counts the value rests on.
    pub basis: String,
}

/// What a workload hands back for printing.
pub struct Outcome {
    /// The timed phase.
    pub phase: Phase,
    /// How long set-up took.
    pub setup: SetupStat,
    /// What one unit of throughput work is (`designs`, `events`, …).
    pub work_unit: &'static str,
    /// Inner blocks after partitioning over the run's fixed input.
    pub inner_blocks: u64,
    /// Deterministic values, printed so a claim can be rechecked.
    pub deterministic: Vec<(&'static str, String)>,
    /// Per-layer counts (names from [`COUNT_METRICS`]).
    pub counts: BTreeMap<&'static str, (f64, String)>,
    /// Reference checks outside the timed ops, and what they found.
    pub checks: Vec<(String, Result<(), String>)>,
}

impl Outcome {
    /// An outcome with no counts, checks, or deterministic values yet.
    pub fn new(phase: Phase, setup: SetupStat, work_unit: &'static str) -> Self {
        Self {
            phase,
            setup,
            work_unit,
            inner_blocks: 0,
            deterministic: Vec::new(),
            counts: BTreeMap::new(),
            checks: Vec::new(),
        }
    }

    /// Sets a per-layer count.
    pub fn count(&mut self, name: &'static str, value: f64, basis: impl Into<String>) {
        debug_assert!(COUNT_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.counts.insert(name, (value, basis.into()));
    }

    /// Whether every op and every reference check passed.
    pub fn correct(&self) -> bool {
        self.phase.failed == 0 && self.checks.iter().all(|(_, r)| r.is_ok())
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
/// Times are scaled to the reference machine speed; each basis gives the
/// wall-clock figure and the speed it was scaled by.
pub fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let tally = &outcome.phase.plain;
    let sorted = tally.samples_ms();
    let n = sorted.len();
    let (speed, setup) = (tally.speed(), outcome.setup);
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, basis) = match name {
                "setup_s" => (
                    setup.median_s * setup.speed,
                    format!(
                        "median of {} set-ups: {:.6} s wall at machine speed {:.3}",
                        setup.reps, setup.median_s, setup.speed
                    ),
                ),
                "throughput_per_s" => (
                    tally.throughput(),
                    format!(
                        "median of {SLICES} slices; {} {} in {:.3} s wall over {} ops, \
                         {:.4} per wall second, machine speed {speed:.3}",
                        tally.work(),
                        outcome.work_unit,
                        tally.busy().as_secs_f64(),
                        tally.ops.len(),
                        tally.work() / tally.busy().as_secs_f64()
                    ),
                ),
                "latency_p50_ms" | "latency_p99_ms" => {
                    let q = if name == "latency_p50_ms" { 0.50 } else { 0.99 };
                    let (value, beyond) = percentile(&sorted, q);
                    (
                        value,
                        format!("{n} samples, {beyond} beyond; machine speed {speed:.3}"),
                    )
                }
                "peak_rss_mb" => (peak_rss_mb(), "VmHWM of this process".to_string()),
                _ => (
                    outcome.inner_blocks as f64,
                    "summed over the run's fixed input".to_string(),
                ),
            };
            Metric {
                name,
                value,
                unit,
                basis,
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run: span self times and call
/// counts, the workload's counts, and the tracing overhead. Layers the
/// workload never calls read 0.
pub fn per_layer(outcome: &Outcome, tracer: &Tracer) -> Vec<Metric> {
    let layers = tracer.layers();
    let mut metrics = Vec::new();
    for (span, time, calls) in SPAN_METRICS {
        let layer = layers.get(span).copied().unwrap_or_default();
        metrics.push(Metric {
            name: time,
            value: layer.self_ns as f64 / 1e6,
            unit: "ms",
            basis: format!("self time of {} `{span}` span(s)", layer.calls),
        });
        metrics.push(Metric {
            name: calls,
            value: layer.calls as f64,
            unit: "count",
            basis: format!("`{span}` spans"),
        });
    }
    let mut counts = outcome.counts.clone();
    let (plain, traced) = (&outcome.phase.plain, &outcome.phase.traced);
    let (untraced_rate, traced_rate) = (plain.throughput(), traced.throughput());
    let basis = format!(
        "{} untraced and {} traced executions of the same ops",
        plain.ops.len(),
        traced.ops.len()
    );
    counts.insert("trace.untraced_per_s", (untraced_rate, basis.clone()));
    counts.insert("trace.traced_per_s", (traced_rate, basis.clone()));
    counts.insert(
        "trace.overhead_share",
        (finite((untraced_rate - traced_rate) / untraced_rate), basis),
    );
    counts.insert(
        "trace.spans",
        (tracer.len() as f64, "spans kept in memory".to_string()),
    );
    for (name, unit) in COUNT_METRICS {
        let (value, basis) = counts
            .remove(name)
            .unwrap_or_else(|| (0.0, "layer not used by this workload".to_string()));
        metrics.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }
    metrics
}

/// Prints the human-readable report and, as the last line, the result
/// object the benchmark's caller parses.
pub fn print(args: &Args, outcome: &Outcome, metrics: &[Metric]) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "stamp nproc={} rustc=\"{}\" git={} source={}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        env!("PERFBENCH_RUSTC"),
        git_sha(),
        source_digest()
    );
    for m in metrics {
        println!("metric {} = {} {}  ({})", m.name, m.value, m.unit, m.basis);
    }
    for (name, value) in &outcome.deterministic {
        println!("deterministic {name} = {value}");
    }
    for (name, result) in &outcome.checks {
        match result {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => println!("check {name}: FAILED: {e}"),
        }
    }
    for error in &outcome.phase.errors {
        println!("failed {error}");
    }
    println!(
        "ops attempted={} failed={}",
        outcome.phase.attempted, outcome.phase.failed
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.phase.attempted,
        outcome.phase.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// The checkout's commit, when it is the top of a git work tree.
fn git_sha() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match out {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            let mut lines = text.lines();
            let top = lines.next().map(|t| Path::new(t).canonicalize().ok());
            match (top, lines.next()) {
                (Some(top), Some(sha)) if top == here => sha.to_string(),
                _ => "none".to_string(),
            }
        }
        _ => "none".to_string(),
    }
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a digest `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a digest over the Rust sources and manifests the benchmark was
/// built from, so a result from a checkout without git still names its
/// code.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    for dir in ["src", "crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash = FNV_OFFSET;
    for file in &files {
        hash = fnv1a(hash, file.to_string_lossy().as_bytes());
        hash = fnv1a(hash, &std::fs::read(file).unwrap_or_default());
    }
    format!("fnv64:{hash:016x}/{}files", files.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_samples() {
        let sorted: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), (501.0, 500));
        assert_eq!(percentile(&sorted, 0.99), (991.0, 10));
        let (p99, beyond) = percentile(&[1.0, 2.0, 3.0, 4.0, 10.0], 0.99);
        assert!((p99 - 9.76).abs() < 1e-9 && beyond == 1, "{p99}");
        assert_eq!(percentile(&[7.0], 0.99), (7.0, 0));
    }

    #[test]
    fn table2_mix_keeps_the_paper_shape() {
        let full = table2_mix(TABLE2_DESIGNS);
        assert_eq!(full, TABLE2_COUNTS.to_vec());
        assert_eq!(full.iter().map(|&(_, c)| c).sum::<usize>(), TABLE2_DESIGNS);
        assert!(table2_mix(10).iter().all(|&(_, c)| c >= 1));
    }

    #[test]
    fn every_metric_name_is_listed_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        for (_, time, calls) in SPAN_METRICS {
            names.extend([time, calls]);
        }
        names.extend(COUNT_METRICS.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
