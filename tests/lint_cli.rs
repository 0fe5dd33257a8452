//! End-to-end contract for `eblocks-cli lint`: the deliberately-broken
//! fixture reports every seeded defect in one run with a stable rule
//! order, the `--json` report is byte-identical to the committed golden
//! and across repeated runs, the shipped netlists pass `--deny warnings`,
//! and a lint-enabled batch report does not depend on the worker count.

mod common;

use common::TempDir;
use std::process::Command;

const FIXTURE: &str = "tests/fixtures/lint-broken.netlist";
const GOLDEN: &str = "tests/golden/lint-report.json";

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args(args)
        .output()
        .expect("spawn eblocks-cli")
}

fn scratch_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("eblocks-lint-cli-{tag}"))
}

#[test]
fn broken_fixture_matches_the_committed_golden() {
    let output = run_cli(&["lint", FIXTURE, "--json"]);
    assert!(
        !output.status.success(),
        "seeded errors must exit non-zero; stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let golden = std::fs::read(GOLDEN).unwrap();
    assert_eq!(
        output.stdout, golden,
        "lint JSON drifted from {GOLDEN}; regenerate with \
         `cargo run --release --bin eblocks-cli -- lint {FIXTURE} --json > {GOLDEN}`"
    );

    // Every seeded defect surfaces in the single run, in stable rule order.
    let text = String::from_utf8_lossy(&output.stdout);
    let positions: Vec<usize> = ["E001", "E002", "W007"]
        .iter()
        .map(|code| {
            text.find(code)
                .unwrap_or_else(|| panic!("{code} missing from report:\n{text}"))
        })
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "diagnostics out of order:\n{text}"
    );
}

#[test]
fn lint_json_is_byte_identical_across_runs() {
    let first = run_cli(&["lint", FIXTURE, "--json"]);
    let second = run_cli(&["lint", FIXTURE, "--json"]);
    assert!(!first.stdout.is_empty());
    assert_eq!(
        first.stdout, second.stdout,
        "lint output must be deterministic"
    );
    assert_eq!(first.status.code(), second.status.code());
}

#[test]
fn shipped_netlists_pass_deny_warnings() {
    let output = run_cli(&["lint", "netlists", "--deny", "warnings"]);
    assert!(
        output.status.success(),
        "shipped netlists must be warning-free\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.ends_with("0 error(s), 0 warning(s)\n"), "{stdout}");
}

#[test]
fn lint_enabled_batch_is_worker_count_independent() {
    let dir = scratch_dir("batch");
    let manifest = dir.join("library.manifest");
    let mut text = String::new();
    for entry in eblocks::designs::all().into_iter().take(6) {
        text.push_str(&format!("job library=\"{}\"\n", entry.name));
    }
    std::fs::write(&manifest, text).unwrap();
    let manifest = manifest.to_str().unwrap();

    let sequential = run_cli(&["batch", manifest, "--lint", "--json", "--jobs", "1"]);
    let parallel = run_cli(&["batch", manifest, "--lint", "--json", "--jobs", "8"]);
    assert!(
        sequential.status.success() && parallel.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&sequential.stderr)
    );
    assert!(!sequential.stdout.is_empty());
    assert_eq!(
        sequential.stdout, parallel.stdout,
        "lint-enabled batch report must not depend on worker count"
    );

    // Clean inputs leave the report byte-identical to a lint-free run: the
    // committed batch goldens hold with the gate switched on.
    let unlinted = run_cli(&["batch", manifest, "--json", "--jobs", "1"]);
    assert_eq!(
        sequential.stdout, unlinted.stdout,
        "a clean lint pass must not perturb the batch report"
    );
}
