//! The golden chaos trace: `eblocks-cli batch --chaos-seed 42 --retries 3`
//! over the checked-in request must reproduce
//! `tests/golden/chaos-trace.txt` byte for byte, run after run.
//!
//! This pins the replayability contract end to end through the CLI: the
//! seed alone decides the pickup order and every injected fault, so the
//! trace (and the deterministic report) cannot drift between runs,
//! machines, or worker counts. To regenerate after an intentional
//! harness change:
//!
//! ```text
//! cargo run --release --bin eblocks-cli -- \
//!     batch tests/golden/batch-request.json --chaos-seed 42 --retries 3 \
//!     --json --chaos-trace tests/golden/chaos-trace.txt > /dev/null
//! ```

use std::path::Path;
use std::process::Command;

fn golden(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// One CLI chaos run: returns (report stdout, trace file bytes).
fn chaos_run(tag: &str) -> (Vec<u8>, Vec<u8>) {
    let trace_path = std::env::temp_dir().join(format!(
        "eblocks-chaos-golden-{tag}-{}.txt",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "batch",
            golden("batch-request.json").to_str().unwrap(),
            "--chaos-seed",
            "42",
            "--retries",
            "3",
            "--json",
            "--chaos-trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn eblocks-cli");
    assert!(
        output.status.success(),
        "chaos batch failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let trace = std::fs::read(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    (output.stdout, trace)
}

#[test]
fn chaos_trace_matches_the_committed_golden() {
    let expected = std::fs::read(golden("chaos-trace.txt")).expect("committed golden trace");
    let (report_a, trace_a) = chaos_run("a");
    assert!(
        trace_a == expected,
        "trace drifted from tests/golden/chaos-trace.txt \
         (regenerate deliberately if the harness changed)\n\
         got:      {}\nexpected: {}",
        String::from_utf8_lossy(&trace_a),
        String::from_utf8_lossy(&expected),
    );

    // Two consecutive runs: byte-identical report and trace (the
    // tentpole's acceptance bar).
    let (report_b, trace_b) = chaos_run("b");
    assert_eq!(trace_a, trace_b, "trace drifted between runs");
    assert!(
        report_a == report_b,
        "deterministic report drifted between runs\n\
         first:  {}\nsecond: {}",
        String::from_utf8_lossy(&report_a),
        String::from_utf8_lossy(&report_b),
    );
    // Seed 42 recovers via retries: the report must say so.
    let report = String::from_utf8_lossy(&report_a);
    assert!(report.contains(r#""succeeded":4"#), "{report}");
    assert!(report.contains(r#""retries":1"#), "{report}");
}

#[test]
fn golden_trace_replays_through_the_library_api() {
    // The same seed through `eblocks::chaos` (no CLI) reproduces the
    // committed trace: the contract lives in the library, the CLI is a
    // front end.
    let text = std::fs::read_to_string(golden("batch-request.json")).unwrap();
    let batch = eblocks::api::BatchRequest::from_json(&text).unwrap();
    let outcome = eblocks::chaos::run_chaos(
        &batch,
        eblocks::farm::FarmConfig::default().retries(3),
        &eblocks::chaos::ChaosConfig::from_seed(42),
    );
    let expected =
        std::fs::read_to_string(golden("chaos-trace.txt")).expect("committed golden trace");
    assert_eq!(outcome.trace.render_text(), expected);
    assert!(outcome.report.all_ok());
}
