//! Shared harness code for regenerating the paper's evaluation (§5).
//!
//! The binaries in `src/bin/` print the paper's tables from live runs:
//!
//! * `table1` — exhaustive vs PareDown on the 15 library designs,
//! * `table2` — the random-design sweep (per-size averages), run as
//!   partition-mode batches on the `eblocks-farm` worker pool,
//! * `scaling` — §5.2 runtime claims, including the 465-inner-node design,
//!   plus batch-synthesis speedup (sequential vs N farm workers) over the
//!   15 Table-1 designs,
//! * `codesize` — §3.3's 2 KB-program-memory assumption, checked on every
//!   partition of every library design,
//! * `ablation` — the §4.2 tie-break rules and constraint variants,
//! * `optimality` — the extension quality ladder (aggregation → PareDown →
//!   refine → anneal → optimal) with runtimes,
//! * `families` — per-topology behavior over the structured design
//!   families (chain / wide / tree / reconvergent / layered),
//! * `catalog` — the §6 multi-type block-catalog cost study,
//! * `energy` — the abstract's power claim: packet counts and estimated
//!   energy before vs after synthesis on every library design.
//!
//! Absolute times will differ from the paper's 2 GHz Athlon XP + Java
//! numbers by orders of magnitude; the *shape* (the paper's exhaustive
//! enumeration explodes past ~11–13 inner blocks, PareDown stays
//! near-instant and near-optimal) is the reproduction target. The
//! `exhaustive` strategy itself is an exact cover solver that goes well past
//! that wall; `scaling` sets the two side by side. The end-to-end and per-layer benchmark of the
//! whole toolchain lives apart from these bins; see `perfbench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eblocks_core::Design;
use eblocks_farm::{
    run_batch, BatchRequest, DesignSource, FarmConfig, JobMode, JobOutcome, JobSpec,
};
use eblocks_partition::strategy::Exhaustive;
use eblocks_partition::{
    ExhaustiveOptions, PartitionConstraints, Partitioner, Partitioning, Registry,
};
use eblocks_synth::Stage;
use std::time::{Duration, Instant};

/// The paper's Table 2 sweep: `(inner blocks, number of designs)`.
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

/// Inner-block count beyond which the paper stopped running the exhaustive
/// search ("--" rows in Table 2).
pub const EXHAUSTIVE_CUTOFF: usize = 13;

/// Timed single-algorithm run.
#[derive(Debug, Clone)]
pub struct Timed {
    /// The partitioning result.
    pub result: Partitioning,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Runs one algorithm with timing.
pub fn timed<F: FnOnce() -> Partitioning>(f: F) -> Timed {
    let start = Instant::now();
    let result = f();
    Timed {
        result,
        elapsed: start.elapsed(),
    }
}

/// Runs a [`Partitioner`] strategy on `design`, timed. The sweeps drive
/// every algorithm through this one entry point, so adding a strategy to
/// the registry automatically makes it benchmarkable.
pub fn run_partitioner(
    design: &Design,
    constraints: &PartitionConstraints,
    partitioner: &dyn Partitioner,
) -> Timed {
    timed(|| partitioner.partition(design, constraints))
}

/// The exhaustive strategy with a per-design time budget (it returns
/// PareDown's result, marked incomplete, on expiry).
pub fn exhaustive_with_limit(limit: Duration) -> Exhaustive {
    Exhaustive {
        options: ExhaustiveOptions {
            time_limit: Some(limit),
            ..Default::default()
        },
    }
}

/// Accumulated averages for one (size, algorithm) cell of Table 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct Averages {
    /// Designs measured.
    pub designs: usize,
    /// Mean *Inner Blocks (Total)* after partitioning.
    pub total: f64,
    /// Mean *Inner Blocks (Prog.)* (number of partitions).
    pub prog: f64,
    /// Mean per-design wall-clock time.
    pub time: Duration,
    /// How many exhaustive runs hit the time limit (0 for heuristics).
    pub timeouts: usize,
}

impl Averages {
    /// Folds a run into the averages.
    pub fn add(&mut self, timed: &Timed) {
        self.fold(
            timed.result.inner_total(),
            timed.result.num_partitions(),
            timed.result.is_complete(),
            timed.elapsed,
        );
    }

    /// Folds one measurement into the averages from its raw parts — the
    /// farm-driven sweep feeds per-job report rows through this.
    pub fn fold(&mut self, total: usize, prog: usize, complete: bool, elapsed: Duration) {
        let n = self.designs as f64;
        self.total = (self.total * n + total as f64) / (n + 1.0);
        self.prog = (self.prog * n + prog as f64) / (n + 1.0);
        self.time = Duration::from_secs_f64(
            (self.time.as_secs_f64() * n + elapsed.as_secs_f64()) / (n + 1.0),
        );
        if !complete {
            self.timeouts += 1;
        }
        self.designs += 1;
    }
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Inner blocks per design.
    pub inner: usize,
    /// Designs measured.
    pub designs: usize,
    /// Exhaustive averages, when run at this size.
    pub exhaustive: Option<Averages>,
    /// PareDown averages.
    pub pare_down: Averages,
}

impl SweepRow {
    /// Mean block overhead of PareDown vs the optimum.
    pub fn block_overhead(&self) -> Option<f64> {
        self.exhaustive.map(|e| self.pare_down.total - e.total)
    }

    /// Percent overhead of PareDown vs the optimum.
    pub fn percent_overhead(&self) -> Option<f64> {
        self.exhaustive.map(|e| {
            if e.total == 0.0 {
                0.0
            } else {
                100.0 * (self.pare_down.total - e.total) / e.total
            }
        })
    }
}

/// Runs the Table 2 sweep on the farm engine: every (design, algorithm)
/// measurement is one partition-mode [`JobSpec`] and each size row is a
/// [`BatchRequest`] drained by `workers` threads. `scale` multiplies the
/// paper's per-size design counts (1.0 = full paper scale);
/// `per_design_limit` bounds each exhaustive run. Per-design times come from the farm's
/// partition-stage timings, so they measure the algorithm, not the pool.
pub fn table2_sweep(
    counts: &[(usize, usize)],
    scale: f64,
    per_design_limit: Duration,
    workers: usize,
    mut progress: impl FnMut(usize, usize),
) -> Vec<SweepRow> {
    let mut registry = Registry::builtin();
    registry.register("exhaustive-limited", move || {
        Box::new(exhaustive_with_limit(per_design_limit))
    });
    let config = FarmConfig {
        workers: Some(workers),
        registry,
        ..FarmConfig::default()
    };
    let mut rows = Vec::new();
    for &(inner, paper_count) in counts {
        let count = ((paper_count as f64 * scale).round() as usize).max(1);
        let mut jobs = Vec::new();
        for i in 0..count {
            // Seed derived from (size, index) so rows are independent.
            let seed = (inner as u64) << 32 | i as u64;
            let mut job = JobSpec::new(DesignSource::Generated { inner, seed });
            job.options.mode = Some(JobMode::Partition);
            if inner <= EXHAUSTIVE_CUTOFF {
                job.partitioner = Some("exhaustive-limited".into());
                jobs.push(job.clone());
            }
            job.partitioner = Some("pare-down".into());
            jobs.push(job);
        }
        let batch = BatchRequest {
            default_partitioner: None,
            jobs,
        };
        let report = run_batch(&batch, &config);
        let mut exh = Averages::default();
        let mut pd = Averages::default();
        for job in &report.results {
            assert_eq!(job.status, JobOutcome::Ok, "{}: {:?}", job.name, job.error);
            let partition_ms = job
                .stages_ms
                .iter()
                .flatten()
                .find(|row| row.stage == Stage::Partition)
                .map_or(0.0, |row| row.ms);
            let avg = if job.partitioner == "exhaustive-limited" {
                &mut exh
            } else {
                &mut pd
            };
            avg.fold(
                job.inner_after.unwrap_or_default(),
                job.partitions.unwrap_or_default(),
                job.complete.unwrap_or_default(),
                Duration::from_secs_f64(partition_ms / 1e3),
            );
        }
        progress(inner, count);
        rows.push(SweepRow {
            inner,
            designs: count,
            exhaustive: (inner <= EXHAUSTIVE_CUTOFF).then_some(exh),
            pare_down: pd,
        });
    }
    rows
}

/// Formats a duration like the paper's Time column (`<1ms`, `4.53s`, …).
pub fn fmt_time(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1000 {
        // The paper's smallest bucket.
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1000.0)
    } else if us < 60_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.2}min", d.as_secs_f64() / 60.0)
    }
}

/// Renders the Table 2 reproduction as fixed-width text.
pub fn render_table2(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "inner  designs |   exh.total  exh.prog    exh.time |    pd.total   pd.prog     pd.time | overhead  %overhead\n",
    );
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for row in rows {
        let (et, ep, etime) = match row.exhaustive {
            Some(e) => (
                format!("{:.2}", e.total),
                format!("{:.2}", e.prog),
                fmt_time(e.time),
            ),
            None => ("--".into(), "--".into(), "--".into()),
        };
        let (bo, po) = match (row.block_overhead(), row.percent_overhead()) {
            (Some(b), Some(p)) => (format!("{b:.2}"), format!("{p:.0}%")),
            _ => ("--".into(), "--".into()),
        };
        out.push_str(&format!(
            "{:>5}  {:>7} | {:>11} {:>9} {:>11} | {:>11} {:>9} {:>11} | {:>8} {:>10}\n",
            row.inner,
            row.designs,
            et,
            ep,
            etime,
            format!("{:.2}", row.pare_down.total),
            format!("{:.2}", row.pare_down.prog),
            fmt_time(row.pare_down.time),
            bo,
            po,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_gen::GeneratorConfig;
    use eblocks_partition::strategy::PareDown;

    #[test]
    fn averages_fold_correctly() {
        let d = eblocks_gen::generate(&GeneratorConfig::new(5), 1);
        let c = PartitionConstraints::default();
        let mut avg = Averages::default();
        let r = run_partitioner(&d, &c, &PareDown);
        let total = r.result.inner_total() as f64;
        avg.add(&r);
        avg.add(&r);
        assert_eq!(avg.designs, 2);
        assert!((avg.total - total).abs() < 1e-9);
    }

    #[test]
    fn small_sweep_has_expected_shape() {
        let rows = table2_sweep(
            &[(3, 5), (14, 3)],
            1.0,
            Duration::from_secs(2),
            2,
            |_, _| {},
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[0].exhaustive.is_some(), "n=3 gets exhaustive data");
        assert!(rows[1].exhaustive.is_none(), "n=14 is past the cutoff");
        assert_eq!(rows[0].pare_down.designs, 5);
        assert_eq!(rows[0].exhaustive.unwrap().designs, 5);
        // PareDown can never beat the (completed) optimum.
        if rows[0].exhaustive.unwrap().timeouts == 0 {
            assert!(rows[0].block_overhead().unwrap() >= -1e-9);
        }
        let text = render_table2(&rows);
        assert!(text.contains("--"), "{text}");
    }

    #[test]
    fn sweep_is_worker_count_independent() {
        let sequential = table2_sweep(&[(4, 4)], 1.0, Duration::from_secs(2), 1, |_, _| {});
        let parallel = table2_sweep(&[(4, 4)], 1.0, Duration::from_secs(2), 8, |_, _| {});
        let key = |rows: &[SweepRow]| {
            rows.iter()
                .map(|r| {
                    (
                        r.inner,
                        r.pare_down.total,
                        r.pare_down.prog,
                        r.exhaustive.map(|e| (e.total, e.prog)),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&sequential), key(&parallel));
    }

    #[test]
    fn time_formatting_buckets() {
        assert_eq!(fmt_time(Duration::from_micros(250)), "250us");
        assert_eq!(fmt_time(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(fmt_time(Duration::from_secs(5)), "5.00s");
        assert_eq!(fmt_time(Duration::from_secs(120)), "2.00min");
    }
}
