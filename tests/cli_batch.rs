//! End-to-end smoke test for `eblocks-cli batch`: a manifest naming all 15
//! Table-1 library designs runs on a multi-worker pool, the full pipeline
//! (verification included) succeeds for every job, and the JSON report is
//! byte-identical across worker counts.

mod common;

use common::TempDir;
use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("eblocks-cli-batch-{tag}"))
}

fn write_table1_manifest(dir: &std::path::Path) -> PathBuf {
    let mut manifest = String::from("# all 15 Table-1 designs\ndefault partitioner=pare-down\n");
    for entry in eblocks::designs::all() {
        manifest.push_str(&format!("job library=\"{}\"\n", entry.name));
    }
    let path = dir.join("table1.manifest");
    std::fs::write(&path, manifest).unwrap();
    path
}

fn run_batch(manifest: &std::path::Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .arg("batch")
        .arg(manifest)
        .args(extra)
        .output()
        .expect("spawn eblocks-cli")
}

#[test]
fn batch_synthesizes_all_15_table1_designs_on_a_pool() {
    let dir = scratch_dir("table1");
    let manifest = write_table1_manifest(&dir);

    let output = run_batch(&manifest, &["--jobs", "4", "--timings"]);
    assert!(
        output.status.success(),
        "batch failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("15 job(s), 15 ok, 0 failed"), "{stdout}");
    assert!(stdout.contains("4 worker(s)"), "{stdout}");
    assert!(stdout.contains("Podium Timer 3"), "{stdout}");
    assert!(stdout.contains("stage totals"), "{stdout}");
    assert!(stdout.contains("verify"), "co-simulation ran: {stdout}");

    // The deterministic JSON report is byte-identical across worker counts.
    let sequential = run_batch(&manifest, &["--jobs", "1", "--json"]);
    let parallel = run_batch(&manifest, &["--jobs", "8", "--json"]);
    assert!(sequential.status.success() && parallel.status.success());
    assert!(!sequential.stdout.is_empty());
    assert_eq!(
        sequential.stdout, parallel.stdout,
        "per-job results must not depend on worker count"
    );
    let json = String::from_utf8_lossy(&sequential.stdout);
    assert!(json.contains(r#""succeeded":15"#), "{json}");
    assert!(json.contains(r#""verified":true"#), "{json}");
}

#[test]
fn batch_exits_nonzero_when_a_job_fails() {
    let dir = scratch_dir("fail");
    let manifest = dir.join("bad.manifest");
    std::fs::write(
        &manifest,
        "job library=\"Ignition Illuminator\"\njob netlist=missing.netlist\n",
    )
    .unwrap();
    let output = run_batch(&manifest, &["--jobs", "2"]);
    assert!(
        !output.status.success(),
        "a failed job must fail the command"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("1 of 2 job(s) failed"), "{stderr}");
    // The report itself still lands on stdout, where consumers expect it.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("cannot read"), "{stdout}");

    // Same contract in JSON mode: parseable report on stdout, summary on
    // stderr, non-zero exit.
    let output = run_batch(&manifest, &["--json"]);
    assert!(!output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with('{'), "{stdout}");
    assert!(stdout.contains(r#""status":"failed""#), "{stdout}");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("1 of 2 job(s) failed"),
        "summary on stderr"
    );
}
