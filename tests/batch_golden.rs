//! The golden batch report: `eblocks-cli batch --json` on the checked-in
//! manifest-v2 request (`batch-request.json`) and on its line-format v1
//! twin (`batch-request.manifest`) must each reproduce
//! `tests/golden/batch-report.json` byte for byte.
//!
//! This pins the whole derive-serialization path — JSON request in
//! (`BatchRequest::from_json` via the CLI), typed `BatchResponse` out —
//! against format drift, and that both manifest formats fill the one
//! `BatchRequest`. To regenerate after an intentional format change:
//!
//! ```text
//! cargo run --release --bin eblocks-cli -- \
//!     batch tests/golden/batch-request.json --json \
//!     > tests/golden/batch-report.json
//! ```
//!
//! The text report is pinned under a seeded storm too: seed 42 panics one
//! job (`batch-text-chaos42.txt`, exit 1), and a retry budget of 3
//! recovers it (`batch-text-chaos42-retries3.txt`, exit 0). The first
//! line holds the worker count and elapsed time, so the goldens leave it
//! out:
//!
//! ```text
//! cargo run --release --bin eblocks-cli -- \
//!     batch tests/golden/batch-request.json --chaos-seed 42 \
//!     | tail -n +2 > tests/golden/batch-text-chaos42.txt
//! ```

use eblocks::api::{BatchRequest, BatchResponse};
use eblocks::farm::{run_batch, FarmConfig, JobOutcome, JsonOptions};
use std::path::Path;
use std::process::Command;

fn golden(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs `batch --json` on the golden request `name` and diffs the report
/// against the committed golden.
fn assert_matches_the_golden_report(name: &str) {
    let request = golden(name);
    let expected = std::fs::read(golden("batch-report.json")).expect("committed golden report");

    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args(["batch", request.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn eblocks-cli");
    assert!(
        output.status.success(),
        "batch {name} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        output.stdout == expected,
        "report for {name} drifted from tests/golden/batch-report.json \
         (regenerate deliberately if the format changed)\n\
         got:      {}\nexpected: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&expected),
    );
}

#[test]
fn batch_json_report_matches_the_committed_golden() {
    assert_matches_the_golden_report("batch-request.json");
}

#[test]
fn v1_manifest_twin_matches_the_committed_golden() {
    assert_matches_the_golden_report("batch-request.manifest");
}

#[test]
fn golden_report_is_worker_count_invariant() {
    let request = golden("batch-request.json");
    let expected = std::fs::read(golden("batch-report.json")).expect("committed golden report");
    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args(["batch", request.to_str().unwrap(), "--json", "--jobs", "8"])
        .output()
        .expect("spawn eblocks-cli");
    assert!(output.status.success());
    assert!(
        output.stdout == expected,
        "per-job results must not depend on worker count"
    );
}

#[test]
fn golden_request_parses_as_manifest_v2() {
    // The same file the CLI consumes parses through the library API.
    let text = std::fs::read_to_string(golden("batch-request.json")).unwrap();
    let batch = eblocks::api::BatchRequest::from_json(&text).unwrap();
    assert_eq!(batch.jobs.len(), 4);
    assert_eq!(batch.default_partitioner.as_deref(), Some("pare-down"));
    assert_eq!(batch.jobs[3].display_name(), "g12");
    assert_eq!(
        batch.jobs[3].options.mode,
        Some(eblocks::farm::JobMode::Partition)
    );
    // The v1 twin parses to the same request.
    let text = std::fs::read_to_string(golden("batch-request.manifest")).unwrap();
    assert_eq!(eblocks::api::BatchRequest::parse(&text).unwrap(), batch);
}

#[test]
fn text_reports_under_chaos_seed_42_match_the_committed_goldens() {
    let request = golden("batch-request.json");
    for (extra, code, name) in [
        (&[][..], 1, "batch-text-chaos42.txt"),
        (
            &["--retries", "3"][..],
            0,
            "batch-text-chaos42-retries3.txt",
        ),
    ] {
        let expected = std::fs::read_to_string(golden(name)).expect("committed text golden");
        for jobs in ["1", "4"] {
            let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
                .args(["batch", request.to_str().unwrap(), "--chaos-seed", "42"])
                .args(["--jobs", jobs])
                .args(extra)
                .output()
                .expect("spawn eblocks-cli");
            assert_eq!(output.status.code(), Some(code), "{name}, --jobs {jobs}");
            let text = String::from_utf8(output.stdout).unwrap();
            // The first line holds the worker count and elapsed time.
            let (first, body) = text.split_once('\n').unwrap();
            assert!(first.starts_with("batch: 4 job(s), "), "{first}");
            assert!(
                body == expected,
                "{name} drifted at --jobs {jobs}\ngot:\n{body}\nexpected:\n{expected}"
            );
        }
    }
}

#[test]
fn the_deterministic_view_clears_exactly_the_wall_clock_fields() {
    let text = std::fs::read_to_string(golden("batch-request.json")).unwrap();
    let request = BatchRequest::from_json(&text).unwrap();
    let full = run_batch(&request, &FarmConfig::with_workers(2));

    // run_batch fills every field, wall-clock ones included.
    assert_eq!(full.batch.workers, Some(2));
    assert!(full.batch.elapsed_ms.is_some());
    assert!(full.batch.stages.as_ref().is_some_and(|s| !s.is_empty()));
    for row in &full.results {
        assert_eq!(row.status, JobOutcome::Ok, "{row:?}");
        assert!(
            row.stages_ms.as_ref().is_some_and(|s| !s.is_empty()),
            "{row:?}"
        );
        assert!(row.elapsed_ms.is_some(), "{row:?}");
    }

    // The default view is the response with exactly those fields cleared,
    // and it is the committed golden report.
    let view = BatchResponse::from_report(&full, &JsonOptions::default());
    let mut expected = full.clone();
    expected.batch.workers = None;
    expected.batch.elapsed_ms = None;
    expected.batch.stages = None;
    for row in &mut expected.results {
        row.stages_ms = None;
        row.elapsed_ms = None;
    }
    assert_eq!(view, expected);
    let golden_report = std::fs::read_to_string(golden("batch-report.json")).unwrap();
    assert_eq!(
        format!("{}\n", serde::json::to_string(&view)),
        golden_report
    );

    // With timings the view is the response itself.
    let timed = BatchResponse::from_report(&full, &JsonOptions { timings: true });
    assert_eq!(timed, full);
}
