//! The batch result's deterministic view and its text and JSON renderings.
//!
//! [`run_batch`](crate::run_batch) returns a [`BatchResponse`] with every
//! field filled in, wall-clock ones included.
//! [`BatchResponse::from_report`] is the one deterministic view: unless
//! [`JsonOptions::timings`] is set it clears the wall-clock fields, so the
//! same batch serializes to identical bytes regardless of worker count.

use crate::api::{BatchResponse, JobOutcome};
use eblocks_lint::LintOutcome;
use std::fmt::Write as _;

/// What the deterministic view keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonOptions {
    /// Keep the wall-clock fields (worker count, batch and per-job
    /// elapsed, stage aggregates and per-job stage rows). Off by default
    /// so that reports are byte-identical across worker counts and runs.
    pub timings: bool,
}

impl BatchResponse {
    /// `report` as the JSON output shows it: unchanged with
    /// `options.timings`, and otherwise with `workers`, `elapsed_ms`,
    /// `stages` and each row's `stages_ms` and `elapsed_ms` cleared.
    pub fn from_report(report: &BatchResponse, options: &JsonOptions) -> Self {
        let mut view = report.clone();
        if !options.timings {
            view.batch.workers = None;
            view.batch.elapsed_ms = None;
            view.batch.stages = None;
            for row in &mut view.results {
                row.stages_ms = None;
                row.elapsed_ms = None;
            }
        }
        view
    }

    /// True when every job completed successfully.
    pub fn all_ok(&self) -> bool {
        self.batch.failed == 0
    }

    /// The [`from_report`](Self::from_report) view as compact JSON.
    pub fn to_json(&self, options: &JsonOptions) -> String {
        serde::json::to_string(&Self::from_report(self, options))
    }

    /// [`to_json`](Self::to_json) with 2-space-indent pretty printing.
    pub fn to_json_pretty(&self, options: &JsonOptions) -> String {
        serde::json::to_string_pretty(&Self::from_report(self, options))
    }

    /// Renders the report as fixed-width text. The first line ends with
    /// the worker count and elapsed time when the response has them;
    /// `with_timings` appends the per-stage totals/max table.
    pub fn render_text(&self, with_timings: bool) -> String {
        let batch = &self.batch;
        let mut out = format!(
            "batch: {} job(s), {} ok, {} failed",
            batch.jobs, batch.succeeded, batch.failed
        );
        if let Some(workers) = batch.workers {
            let _ = write!(out, ", {workers} worker(s)");
        }
        if let Some(ms) = batch.elapsed_ms {
            let _ = write!(out, ", {}", fmt_elapsed(ms));
        }
        out.push('\n');
        let name_w = self
            .results
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
        for job in &self.results {
            let retries = match job.retries {
                Some(n) if n > 0 => format!("  [{n} retr{}]", if n == 1 { "y" } else { "ies" }),
                _ => String::new(),
            };
            if job.status == JobOutcome::Ok {
                let lint = LintOutcome {
                    errors: job.lint_errors.unwrap_or(0),
                    warnings: job.lint_warnings.unwrap_or(0),
                    fixes: None,
                };
                let lint = if lint.is_clean() {
                    String::new()
                } else {
                    format!("  [lint: {lint}]")
                };
                let _ = writeln!(
                    out,
                    "  {:<name_w$}  {:<12} {:<8} {:>6} {:>6} {:>5} {:>9}{}{}{}",
                    job.name,
                    job.partitioner,
                    "ok",
                    job.inner_before.unwrap_or(0),
                    job.inner_after.unwrap_or(0),
                    job.partitions.unwrap_or(0),
                    job.c_bytes.unwrap_or(0),
                    if job.complete.unwrap_or(true) {
                        ""
                    } else {
                        "  (timeout)"
                    },
                    lint,
                    retries,
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {:<name_w$}  {:<12} {:<8} {}{}",
                    job.name,
                    job.partitioner,
                    label(job.status),
                    job.error.as_deref().unwrap_or(""),
                    retries,
                );
            }
        }
        if with_timings {
            out.push_str("stage totals over all jobs:\n");
            for stat in batch.stages.iter().flatten() {
                let _ = writeln!(
                    out,
                    "  {:<9} {:>10.3}ms total, {:>9.3}ms max, {:>4} run(s)",
                    stat.stage.to_string(),
                    stat.total_ms,
                    stat.max_ms,
                    stat.runs,
                );
            }
        }
        out
    }
}

/// The status column's word for `status`, as JSON spells it.
fn label(status: JobOutcome) -> &'static str {
    match status {
        JobOutcome::Ok => "ok",
        JobOutcome::Failed => "failed",
        JobOutcome::Panicked => "panicked",
        JobOutcome::TimedOut => "timed-out",
    }
}

fn fmt_elapsed(ms: f64) -> String {
    if ms >= 1e3 {
        format!("{:.2}s", ms / 1e3)
    } else {
        format!("{ms:.2}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{JobResponse, StageMs, StageSummary};
    use eblocks_synth::Stage;
    use std::time::Duration;

    fn sample() -> BatchResponse {
        let ok = JobResponse {
            inner_before: Some(2),
            inner_after: Some(1),
            partitions: Some(1),
            complete: Some(true),
            verified: Some(true),
            c_bytes: Some(512),
            lint_warnings: Some(2),
            stages_ms: Some(vec![StageMs {
                stage: Stage::Partition,
                ms: 2.0,
                detail: "1 partition".into(),
            }]),
            elapsed_ms: Some(5.0),
            ..JobResponse::new("garage".into(), "pare-down".into(), JobOutcome::Ok, None)
        };
        let failed = JobResponse {
            retries: Some(2),
            elapsed_ms: Some(1.0),
            ..JobResponse::new(
                "broken \"job\"".into(),
                "anneal".into(),
                JobOutcome::Failed,
                Some("cannot read x".into()),
            )
        };
        BatchResponse::new(vec![ok, failed], 4, Duration::from_millis(6))
    }

    #[test]
    fn aggregates_count() {
        let r = sample();
        let batch = &r.batch;
        assert_eq!((batch.jobs, batch.succeeded, batch.failed), (2, 1, 1));
        assert!(!r.all_ok());
        assert_eq!(batch.retries, Some(2));
        assert_eq!((batch.inner_before, batch.inner_after), (2, 1));
        assert_eq!((batch.partitions, batch.c_bytes), (1, 512));
        assert_eq!((batch.lint_errors, batch.lint_warnings), (None, Some(2)));
        assert_eq!((batch.workers, batch.elapsed_ms), (Some(4), Some(6.0)));
        let partition = |runs, total_ms| StageSummary {
            stage: Stage::Partition,
            runs,
            total_ms,
            max_ms: 2.0,
        };
        assert_eq!(batch.stages, Some(vec![partition(1, 2.0)]));
        // Stage rows fold across jobs; failed jobs have none.
        let mut rows = r.results.clone();
        rows.push(r.results[0].clone());
        let twice = BatchResponse::new(rows, 4, Duration::ZERO);
        assert_eq!(twice.batch.stages, Some(vec![partition(2, 4.0)]));
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
        assert!(!json.contains("stages"), "no stage rows: {json}");

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
        assert!(
            text.starts_with("batch: 2 job(s), 1 ok, 1 failed, 4 worker(s), 6.00ms\n"),
            "{text}"
        );
        assert!(text.contains("garage"), "{text}");
        assert!(text.contains("cannot read x"), "{text}");
        assert!(text.contains("[2 retries]"), "{text}");
        assert!(text.contains("[lint: 0 error(s), 2 warning(s)]"), "{text}");
        assert!(
            text.ends_with("stage totals over all jobs:\n  partition      2.000ms total,     2.000ms max,    1 run(s)\n"),
            "{text}"
        );
        let no_t = r.render_text(false);
        assert!(!no_t.contains("stage totals"), "{no_t}");
        // The deterministic view has no clock to print.
        let view = BatchResponse::from_report(&r, &JsonOptions::default());
        assert!(
            view.render_text(false)
                .starts_with("batch: 2 job(s), 1 ok, 1 failed\n"),
            "{}",
            view.render_text(false)
        );
    }
}
