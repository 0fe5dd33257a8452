//! Per-stage observation hooks for the synthesis [`Pipeline`].
//!
//! Each pipeline stage reports a [`StageReport`] (stage, wall-clock time, a
//! one-line detail) to the attached [`Observer`] as it completes. Closures
//! implement [`Observer`] directly, and [`StageTimings`] is a ready-made
//! collector for benchmarks and progress displays.
//!
//! [`Pipeline`]: crate::Pipeline

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The stages of the synthesis pipeline, in execution order.
///
/// Serializes as the same lower-case token [`Display`](fmt::Display)
/// prints, so JSON reports and the `--timings` text agree on stage names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Statically analyze the input design (optional admission gate).
    #[serde(rename = "lint")]
    Lint,
    /// Partition the inner blocks.
    #[serde(rename = "partition")]
    Partition,
    /// Merge each partition's behaviors into one program.
    #[serde(rename = "merge")]
    Merge,
    /// Rewrite the network around programmable blocks.
    #[serde(rename = "rewrite")]
    Rewrite,
    /// Co-simulate original vs synthesized.
    #[serde(rename = "verify")]
    Verify,
    /// Emit C sources and size estimates.
    #[serde(rename = "emit-c")]
    EmitC,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Lint => "lint",
            Self::Partition => "partition",
            Self::Merge => "merge",
            Self::Rewrite => "rewrite",
            Self::Verify => "verify",
            Self::EmitC => "emit-c",
        })
    }
}

/// Why an observer refused to let a stage run (see
/// [`Observer::before_stage`]).
///
/// An abort is a *cooperative* cancellation: the pipeline stops cleanly at
/// a stage boundary and surfaces the abort as
/// [`SynthError::Aborted`](crate::SynthError::Aborted). The farm uses this
/// for per-job timeout enforcement and the chaos harness for injected
/// faults; `timeout` distinguishes deadline aborts from other injected
/// failures so reports can classify them separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAbort {
    /// Human-readable reason, surfaced verbatim in job reports. Keep it
    /// deterministic (no measured wall-clock values) if the report must be
    /// byte-stable across runs.
    pub message: String,
    /// True when the abort represents an exceeded time budget.
    pub timeout: bool,
}

impl StageAbort {
    /// An abort classified as a timeout (an exceeded job/stage budget).
    pub fn timeout(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            timeout: true,
        }
    }

    /// A non-timeout abort (an injected fault, a cancelled request).
    pub fn fault(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            timeout: false,
        }
    }
}

impl fmt::Display for StageAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// What one completed stage reports to the observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage completed.
    pub stage: Stage,
    /// Wall-clock time the stage took.
    pub elapsed: Duration,
    /// One-line human-readable outcome (partition counts, sample counts, …).
    pub detail: String,
}

/// A callback invoked around each pipeline stage.
///
/// Any `FnMut(&StageReport)` closure is an observer. Observers are `Send`
/// so a pipeline (and the observer attached to it) can run on a worker
/// thread — the batch-synthesis farm drives one pipeline per job across a
/// thread pool and merges the collected [`StageTimings`] afterwards.
pub trait Observer: Send {
    /// Called once per completed stage, in execution order.
    fn on_stage(&mut self, report: &StageReport);

    /// Called before a fallible stage runs; returning `Err` aborts the
    /// pipeline cleanly with
    /// [`SynthError::Aborted`](crate::SynthError::Aborted).
    ///
    /// The default allows every stage. The farm's timeout enforcement and
    /// the chaos harness's fault injection both hang off this hook: it runs
    /// before `lint` (when enabled), `partition`, `merge`, `rewrite`, and
    /// `verify`, and no stage's reported time includes it. The infallible
    /// `emit-c` stage has no abort point (its signature predates this hook
    /// and returns the final result directly), so the latest a pipeline can
    /// be cancelled is just before verification.
    fn before_stage(&mut self, stage: Stage) -> Result<(), StageAbort> {
        let _ = stage;
        Ok(())
    }
}

impl<F: FnMut(&StageReport) + Send> Observer for F {
    fn on_stage(&mut self, report: &StageReport) {
        self(report);
    }
}

/// An [`Observer`] that records every report, for timing breakdowns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// The collected reports, in stage execution order.
    pub reports: Vec<StageReport>,
}

impl StageTimings {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The report for `stage`, if that stage ran.
    pub fn get(&self, stage: Stage) -> Option<&StageReport> {
        self.reports.iter().find(|r| r.stage == stage)
    }

    /// Total wall-clock time across all observed stages.
    pub fn total(&self) -> Duration {
        self.reports.iter().map(|r| r.elapsed).sum()
    }

    /// Per-stage aggregates (run count, total and max elapsed) over every
    /// collected report, in pipeline stage order. Stages that never ran are
    /// omitted.
    pub fn summarize(&self) -> Vec<StageStat> {
        let mut stats = Vec::new();
        for report in &self.reports {
            StageStat::accumulate(&mut stats, StageStat::once(report.stage, report.elapsed));
        }
        stats
    }
}

/// Aggregate timing for one stage across runs (see
/// [`StageTimings::summarize`] and [`StageStat::accumulate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// The stage being summarized.
    pub stage: Stage,
    /// How many reports of this stage were collected.
    pub runs: usize,
    /// Elapsed time summed over all runs.
    pub total: Duration,
    /// The single slowest run.
    pub max: Duration,
}

impl StageStat {
    /// The aggregate of a single run of `stage` that took `elapsed`.
    pub fn once(stage: Stage, elapsed: Duration) -> Self {
        Self {
            stage,
            runs: 1,
            total: elapsed,
            max: elapsed,
        }
    }

    /// Folds `stat` into `stats`, a running aggregate with at most one
    /// entry per stage, kept in pipeline stage order: runs and totals add
    /// up, and the maximum is the larger of the two.
    pub fn accumulate(stats: &mut Vec<StageStat>, stat: StageStat) {
        match stats.binary_search_by_key(&stat.stage, |s| s.stage) {
            Ok(i) => {
                let entry = &mut stats[i];
                entry.runs += stat.runs;
                entry.total += stat.total;
                entry.max = entry.max.max(stat.max);
            }
            Err(i) => stats.insert(i, stat),
        }
    }
}

impl Observer for StageTimings {
    fn on_stage(&mut self, report: &StageReport) {
        self.reports.push(report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_render() {
        let names: Vec<String> = [
            Stage::Lint,
            Stage::Partition,
            Stage::Merge,
            Stage::Rewrite,
            Stage::Verify,
            Stage::EmitC,
        ]
        .iter()
        .map(Stage::to_string)
        .collect();
        assert_eq!(
            names,
            ["lint", "partition", "merge", "rewrite", "verify", "emit-c"]
        );
    }

    #[test]
    fn stage_serialization_matches_display() {
        for stage in [
            Stage::Lint,
            Stage::Partition,
            Stage::Merge,
            Stage::Rewrite,
            Stage::Verify,
            Stage::EmitC,
        ] {
            let value = serde::Serialize::serialize(&stage);
            assert_eq!(value.as_str(), Some(stage.to_string().as_str()));
            assert_eq!(serde::Deserialize::deserialize(&value), Ok(stage));
        }
    }

    #[test]
    fn timings_collect_and_aggregate() {
        let mut t = StageTimings::new();
        t.on_stage(&StageReport {
            stage: Stage::Partition,
            elapsed: Duration::from_millis(3),
            detail: "2 partitions".into(),
        });
        t.on_stage(&StageReport {
            stage: Stage::Merge,
            elapsed: Duration::from_millis(4),
            detail: "2 programs".into(),
        });
        assert_eq!(t.reports.len(), 2);
        assert_eq!(t.get(Stage::Partition).unwrap().detail, "2 partitions");
        assert!(t.get(Stage::Verify).is_none());
        assert_eq!(t.total(), Duration::from_millis(7));
    }

    #[test]
    fn summarize_aggregates_per_stage() {
        let report = |stage, ms| StageReport {
            stage,
            elapsed: Duration::from_millis(ms),
            detail: String::new(),
        };
        let mut a = StageTimings::new();
        a.on_stage(&report(Stage::Partition, 2));
        a.on_stage(&report(Stage::Merge, 5));
        a.on_stage(&report(Stage::Partition, 6));
        assert!(StageTimings::new().summarize().is_empty());

        let stats = a.summarize();
        assert_eq!(stats.len(), 2, "verify/rewrite/emit-c never ran");
        assert_eq!(stats[0].stage, Stage::Partition);
        assert_eq!(stats[0].runs, 2);
        assert_eq!(stats[0].total, Duration::from_millis(8));
        assert_eq!(stats[0].max, Duration::from_millis(6));
        assert_eq!(stats[1].stage, Stage::Merge);
        assert_eq!(stats[1].runs, 1);
        assert_eq!(stats[1].total, Duration::from_millis(5));
        assert_eq!(stats[1].max, Duration::from_millis(5));
    }

    #[test]
    fn accumulate_keeps_one_entry_per_stage_in_pipeline_order() {
        let mut stats = Vec::new();
        for (stage, ms) in [
            (Stage::EmitC, 1),
            (Stage::Partition, 4),
            (Stage::EmitC, 3),
            (Stage::Lint, 2),
        ] {
            StageStat::accumulate(
                &mut stats,
                StageStat::once(stage, Duration::from_millis(ms)),
            );
        }
        let order: Vec<Stage> = stats.iter().map(|s| s.stage).collect();
        assert_eq!(order, [Stage::Lint, Stage::Partition, Stage::EmitC]);
        assert_eq!(stats[2].runs, 2);
        assert_eq!(stats[2].total, Duration::from_millis(4));
        assert_eq!(stats[2].max, Duration::from_millis(3));

        // Folding whole aggregates adds runs and totals and keeps the max.
        let other = stats.clone();
        for stat in other {
            StageStat::accumulate(&mut stats, stat);
        }
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[2].runs, 4);
        assert_eq!(stats[2].total, Duration::from_millis(8));
        assert_eq!(stats[2].max, Duration::from_millis(3));
    }

    #[test]
    fn timings_cross_threads() {
        // Observer is Send: a pipeline and its observer can run on a worker.
        let mut timings = StageTimings::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                timings.on_stage(&StageReport {
                    stage: Stage::Partition,
                    elapsed: Duration::from_millis(1),
                    detail: "on a worker".into(),
                });
            });
        });
        assert_eq!(timings.reports.len(), 1);
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = Vec::new();
        {
            let mut obs = |r: &StageReport| seen.push(r.stage);
            let report = StageReport {
                stage: Stage::EmitC,
                elapsed: Duration::ZERO,
                detail: String::new(),
            };
            Observer::on_stage(&mut obs, &report);
        }
        assert_eq!(seen, [Stage::EmitC]);
    }
}
