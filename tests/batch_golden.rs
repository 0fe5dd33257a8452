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
