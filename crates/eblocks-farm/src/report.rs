//! Per-job and batch-level results, with text and JSON rendering.
//!
//! JSON rendering goes through the typed response API: [`BatchReport`]
//! wraps into a derive-serialized [`BatchResponse`]
//! and out through `serde::json` (PR 5 replaced the hand-rolled emitter).
//! Output is deterministic by default — wall-clock fields are opt-in via
//! [`JsonOptions::timings`] — so the same batch serializes to identical
//! bytes regardless of worker count.

use crate::api::BatchResponse;
use eblocks_lint::LintOutcome;
use eblocks_synth::{StageStat, StageTimings};
use std::fmt::Write as _;
use std::time::Duration;

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job completed; its measurements are in [`JobReport::stats`].
    Ok,
    /// The job returned an error (bad source, unknown strategy, failed
    /// verification, …).
    Failed(String),
    /// The job panicked; the worker caught it and carried on.
    Panicked(String),
    /// The job exceeded the configured per-attempt time budget
    /// ([`FarmConfig::job_timeout`](crate::FarmConfig::job_timeout)) and
    /// was cancelled at a stage boundary.
    TimedOut(String),
}

impl JobStatus {
    /// True for [`JobStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok)
    }

    fn label(&self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Failed(_) => "failed",
            Self::Panicked(_) => "panicked",
            Self::TimedOut(_) => "timed-out",
        }
    }

    pub(crate) fn error(&self) -> Option<&str> {
        match self {
            Self::Ok => None,
            Self::Failed(e) | Self::Panicked(e) | Self::TimedOut(e) => Some(e),
        }
    }
}

/// Measurements from one successfully completed job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Inner blocks in the original design.
    pub inner_before: usize,
    /// Inner blocks after partitioning (pre-defined + programmable).
    pub inner_after: usize,
    /// Programmable blocks (number of partitions).
    pub partitions: usize,
    /// Whether the strategy ran to completion (false: a time-limited
    /// search returned a result it did not prove optimal).
    pub complete: bool,
    /// Total bytes of emitted C across the job's programmable blocks
    /// (0 in partition-only mode).
    pub c_bytes: usize,
    /// Whether equivalence verification ran and passed.
    pub verified: bool,
    /// Lint diagnostic counts, when the job ran the lint stage (`None`
    /// when lint was off). An `Ok` row can only carry counts the job's
    /// deny level admitted.
    pub lint: Option<LintOutcome>,
    /// Per-stage wall-clock timings from the pipeline observer.
    pub timings: StageTimings,
}

/// One row of the batch report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The job's display name.
    pub name: String,
    /// The strategy that actually ran (after default resolution).
    pub partitioner: String,
    /// How the job ended (the outcome of the final attempt).
    pub status: JobStatus,
    /// Whole-job wall-clock time (load + pipeline, summed over every
    /// attempt), as seen by the worker.
    pub elapsed: Duration,
    /// Retry attempts the job consumed beyond the first try (0 when the
    /// first attempt settled it; at most
    /// [`FarmConfig::max_retries`](crate::FarmConfig::max_retries)).
    pub retries: u32,
    /// Measurements, when the job succeeded.
    pub stats: Option<JobStats>,
}

/// Everything one [`run_batch`](crate::run_batch) call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-job rows, in batch submission order (independent of which
    /// worker ran what when).
    pub jobs: Vec<JobReport>,
    /// Workers the pool actually used.
    pub workers: usize,
    /// Batch wall-clock time.
    pub elapsed: Duration,
}

/// What the JSON rendering includes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonOptions {
    /// Include wall-clock fields (per-job elapsed and stage timings, batch
    /// elapsed, worker count). Off by default so that reports are
    /// byte-identical across worker counts and runs.
    pub timings: bool,
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

impl BatchReport {
    /// Rows that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_ok()).count()
    }

    /// Rows that failed, panicked or timed out.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.succeeded()
    }

    /// True when every job completed successfully.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }

    /// Per-stage aggregates (run count, total and max elapsed) over every
    /// successful job's stage timings, in pipeline stage order.
    pub fn stage_stats(&self) -> Vec<StageStat> {
        let mut stats = Vec::new();
        for job in &self.jobs {
            for report in job.stats.iter().flat_map(|s| &s.timings.reports) {
                StageStat::accumulate(&mut stats, StageStat::once(report.stage, report.elapsed));
            }
        }
        stats
    }

    /// Renders the report as compact JSON via the derive path: the typed
    /// [`BatchResponse`] view serialized with `serde::json` (see
    /// [`JsonOptions`]).
    pub fn to_json(&self, options: &JsonOptions) -> String {
        serde::json::to_string(&BatchResponse::from_report(self, options))
    }

    /// [`to_json`](Self::to_json) with 2-space-indent pretty printing.
    pub fn to_json_pretty(&self, options: &JsonOptions) -> String {
        serde::json::to_string_pretty(&BatchResponse::from_report(self, options))
    }

    /// Renders the report as fixed-width text. `with_timings` appends the
    /// per-stage totals/max table from the merged observers.
    pub fn render_text(&self, with_timings: bool) -> String {
        let mut out = format!(
            "batch: {} job(s), {} ok, {} failed, {} worker(s), {}\n",
            self.jobs.len(),
            self.succeeded(),
            self.failed(),
            self.workers,
            fmt_elapsed(self.elapsed),
        );
        let name_w = self
            .jobs
            .iter()
            .map(|j| j.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:<12} {:<8} {:>6} {:>6} {:>5} {:>9}",
            "name", "partitioner", "status", "inner", "total", "prog", "c-bytes"
        );
        for job in &self.jobs {
            let retries = if job.retries > 0 {
                format!(
                    "  [{} retr{}]",
                    job.retries,
                    if job.retries == 1 { "y" } else { "ies" }
                )
            } else {
                String::new()
            };
            match (&job.status, &job.stats) {
                (JobStatus::Ok, Some(stats)) => {
                    let lint = match stats.lint {
                        Some(outcome) if !outcome.is_clean() => format!("  [lint: {outcome}]"),
                        _ => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "  {:<name_w$}  {:<12} {:<8} {:>6} {:>6} {:>5} {:>9}{}{}{}",
                        job.name,
                        job.partitioner,
                        "ok",
                        stats.inner_before,
                        stats.inner_after,
                        stats.partitions,
                        stats.c_bytes,
                        if stats.complete { "" } else { "  (timeout)" },
                        lint,
                        retries,
                    );
                }
                (status, _) => {
                    let _ = writeln!(
                        out,
                        "  {:<name_w$}  {:<12} {:<8} {}{}",
                        job.name,
                        job.partitioner,
                        status.label(),
                        status.error().unwrap_or(""),
                        retries,
                    );
                }
            }
        }
        if with_timings {
            out.push_str("stage totals over all jobs:\n");
            for stat in self.stage_stats() {
                let _ = writeln!(
                    out,
                    "  {:<9} {:>10}ms total, {:>9}ms max, {:>4} run(s)",
                    stat.stage.to_string(),
                    ms(stat.total),
                    ms(stat.max),
                    stat.runs,
                );
            }
        }
        out
    }
}

fn fmt_elapsed(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_synth::{Stage, StageReport};

    fn sample() -> BatchReport {
        let mut timings = StageTimings::new();
        timings.reports.push(StageReport {
            stage: Stage::Partition,
            elapsed: Duration::from_millis(2),
            detail: "1 partition".into(),
        });
        BatchReport {
            jobs: vec![
                JobReport {
                    name: "garage".into(),
                    partitioner: "pare-down".into(),
                    status: JobStatus::Ok,
                    elapsed: Duration::from_millis(5),
                    retries: 0,
                    stats: Some(JobStats {
                        inner_before: 2,
                        inner_after: 1,
                        partitions: 1,
                        complete: true,
                        c_bytes: 512,
                        verified: true,
                        lint: Some(LintOutcome {
                            errors: 0,
                            warnings: 2,
                            fixes: None,
                        }),
                        timings,
                    }),
                },
                JobReport {
                    name: "broken \"job\"".into(),
                    partitioner: "anneal".into(),
                    status: JobStatus::Failed("cannot read x".into()),
                    elapsed: Duration::from_millis(1),
                    retries: 2,
                    stats: None,
                },
            ],
            workers: 4,
            elapsed: Duration::from_millis(6),
        }
    }

    #[test]
    fn aggregates_count() {
        let r = sample();
        assert_eq!(r.succeeded(), 1);
        assert_eq!(r.failed(), 1);
        assert!(!r.all_ok());
        let partition = |runs, ms| StageStat {
            stage: Stage::Partition,
            runs,
            total: Duration::from_millis(ms),
            max: Duration::from_millis(2),
        };
        assert_eq!(r.stage_stats(), [partition(1, 2)]);
        // Stage rows fold across jobs; failed jobs have none.
        let mut twice = r.clone();
        twice.jobs.push(r.jobs[0].clone());
        assert_eq!(twice.stage_stats(), [partition(2, 4)]);
    }

    #[test]
    fn json_is_deterministic_without_timings() {
        let r = sample();
        let json = r.to_json(&JsonOptions::default());
        assert!(json.contains(r#""status":"ok""#), "{json}");
        assert!(json.contains(r#""error":"cannot read x""#), "{json}");
        assert!(json.contains(r#""broken \"job\"""#), "escaped: {json}");
        assert!(json.contains(r#""c_bytes":512"#), "{json}");
        assert!(json.contains(r#""retries":2"#), "{json}");
        assert!(!json.contains("elapsed_ms"), "no wall-clock: {json}");
        assert!(!json.contains("workers"), "no pool shape: {json}");

        let timed = r.to_json(&JsonOptions { timings: true });
        assert!(timed.contains("elapsed_ms"), "{timed}");
        assert!(timed.contains(r#""workers":4"#), "{timed}");
        assert!(timed.contains(r#""stages""#), "{timed}");
        assert!(timed.contains("total_ms"), "{timed}");
        assert!(timed.contains("max_ms"), "{timed}");
    }

    #[test]
    fn text_report_lists_rows() {
        let r = sample();
        let text = r.render_text(true);
        assert!(text.contains("2 job(s), 1 ok, 1 failed"), "{text}");
        assert!(text.contains("garage"), "{text}");
        assert!(text.contains("cannot read x"), "{text}");
        assert!(text.contains("[2 retries]"), "{text}");
        assert!(text.contains("[lint: 0 error(s), 2 warning(s)]"), "{text}");
        assert!(text.contains("stage totals"), "{text}");
        assert!(text.contains("partition"), "{text}");
        let no_t = r.render_text(false);
        assert!(!no_t.contains("stage totals"), "{no_t}");
    }
}
