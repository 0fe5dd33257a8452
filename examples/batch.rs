//! Batch-synthesis quickstart: a JSON `BatchRequest` (manifest format v2)
//! in, a worker pool in the middle, streamed progress while it runs, and a
//! typed `BatchResponse` back out as JSON — the exact shape a service mode
//! would speak over RPC.
//!
//! Run with: `cargo run --example batch`

use eblocks::api::{BatchRequest, JobOutcome, JobResponse, JobSpec};
use eblocks::farm::{run_batch_with_progress, BatchProgress, FarmConfig, JsonOptions};

/// A progress listener printing one line per job event as workers report.
struct PrintProgress;

impl BatchProgress for PrintProgress {
    fn job_started(&self, index: usize, job: &JobSpec) {
        println!("[{index}] started  {}", job.display_name());
    }

    fn job_finished(&self, index: usize, row: &JobResponse) {
        println!(
            "[{index}] finished {} ({}, {} stage(s) timed)",
            row.name,
            if row.status == JobOutcome::Ok {
                "ok"
            } else {
                "failed"
            },
            row.stages_ms.as_ref().map_or(0, Vec::len),
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

    // The human-readable report, with per-stage totals folded from every
    // job's stage rows.
    print!("\n{}", report.render_text(true));

    // The same report as deterministic JSON: the wall-clock fields are
    // cleared (add `timings: true` to keep them).
    println!("\n{}", report.to_json_pretty(&JsonOptions::default()));

    // Everything is also available programmatically.
    for row in &report.results {
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
