//! Batch-synthesis quickstart: a JSON `BatchRequest` (manifest format v2)
//! in, a worker pool in the middle, streamed progress while it runs, and a
//! typed `BatchResponse` back out as JSON — the exact shape a service mode
//! would speak over RPC.
//!
//! Run with: `cargo run --example batch`

use eblocks::api::{BatchRequest, BatchResponse, JobSpec};
use eblocks::farm::{run_batch_with_progress, BatchProgress, FarmConfig, JobReport, JsonOptions};

/// A progress listener printing one line per job event as workers report.
struct PrintProgress;

impl BatchProgress for PrintProgress {
    fn job_started(&self, index: usize, job: &JobSpec) {
        println!("[{index}] started  {}", job.display_name());
    }

    fn job_finished(&self, index: usize, report: &JobReport) {
        println!(
            "[{index}] finished {} ({}, {} stage(s) timed)",
            report.name,
            if report.status.is_ok() {
                "ok"
            } else {
                "failed"
            },
            report.stats.as_ref().map_or(0, |s| s.timings.reports.len()),
        );
    }
}

fn main() {
    // A batch as it would arrive over the wire: one job per design, the
    // middle one picking its own strategy, the rest falling back to the
    // request default.
    let request: BatchRequest = serde::json::from_str(
        r#"{
            "default_partitioner": "pare-down",
            "jobs": [
                {"source": {"library": "Ignition Illuminator"}},
                {"source": {"library": "Podium Timer 3"}, "partitioner": "refine"},
                {"source": {"library": "Two-Zone Security"}}
            ]
        }"#,
    )
    .expect("well-formed request");

    let report = run_batch_with_progress(&request, &FarmConfig::with_workers(2), &PrintProgress);

    // The human-readable report, with per-stage totals from the merged
    // pipeline observers.
    print!("\n{}", report.render_text(true));

    // The same report as deterministic JSON through the typed response
    // (add `timings: true` for wall-clock fields).
    let response = BatchResponse::from_report(&report, &JsonOptions::default());
    println!("\n{}", serde::json::to_string_pretty(&response));

    // Everything is also available programmatically.
    for row in &response.results {
        println!(
            "{}: {} -> {} inner block(s), {} bytes of C, verified: {}",
            row.name,
            row.inner_before.unwrap(),
            row.inner_after.unwrap(),
            row.c_bytes.unwrap(),
            row.verified.unwrap(),
        );
    }
    assert!(report.all_ok());
}
