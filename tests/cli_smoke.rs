//! End-to-end smoke test for the `eblocks-cli` binary: synthesize the §1
//! garage-open-at-night flagship from a netlist file on disk, exactly as a
//! user would, and check that C sources come out the other end.

use std::process::Command;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eblocks-cli-smoke-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cli_synthesizes_garage_open_at_night_and_emits_c() {
    let dir = scratch_dir("synth");
    let design = eblocks::designs::garage_open_at_night();
    let netlist_path = dir.join("garage-open-at-night.netlist");
    std::fs::write(&netlist_path, eblocks::core::netlist::to_netlist(&design)).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "synth",
            netlist_path.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn eblocks-cli");
    assert!(
        output.status.success(),
        "eblocks-cli failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("garage-open-at-night"),
        "unexpected report: {stdout}"
    );
    assert!(
        stdout.contains("verified equivalent"),
        "synthesis must co-simulate and verify by default: {stdout}"
    );

    // The synthesized netlist parses and validates.
    let synth_netlist = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "netlist") && *p != netlist_path)
        .expect("a synthesized netlist is written");
    let text = std::fs::read_to_string(&synth_netlist).unwrap();
    let parsed = eblocks::core::netlist::from_netlist(&text).expect("synthesized netlist parses");
    parsed.validate().expect("synthesized netlist validates");

    // At least one C program is emitted, and it looks like C.
    let c_files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    assert!(
        !c_files.is_empty(),
        "synthesis of the flagship must emit at least one C program"
    );
    for c_file in &c_files {
        let source = std::fs::read_to_string(c_file).unwrap();
        assert!(
            source.contains("void") || source.contains("int"),
            "{}: does not look like C:\n{source}",
            c_file.display()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn algorithm_flag_exits_non_zero_as_unknown() {
    let dir = scratch_dir("algorithm-flag");
    let design = eblocks::designs::garage_open_at_night();
    let netlist_path = dir.join("garage-open-at-night.netlist");
    std::fs::write(&netlist_path, eblocks::core::netlist::to_netlist(&design)).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "partition",
            netlist_path.to_str().unwrap(),
            "--algorithm",
            "exhaustive",
        ])
        .output()
        .expect("spawn eblocks-cli");
    assert!(!output.status.success(), "--algorithm is gone");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown flag `--algorithm`"),
        "rejected like any other unknown flag: {stderr}"
    );

    // --partitioner picks the strategy, silently.
    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "partition",
            netlist_path.to_str().unwrap(),
            "--partitioner",
            "aggregation",
        ])
        .output()
        .expect("spawn eblocks-cli");
    assert!(output.status.success());
    assert!(
        output.stderr.is_empty(),
        "no warning for --partitioner: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_synth_json_emits_the_typed_response() {
    let dir = scratch_dir("synth-json");
    let design = eblocks::designs::garage_open_at_night();
    let netlist_path = dir.join("garage-open-at-night.netlist");
    std::fs::write(&netlist_path, eblocks::core::netlist::to_netlist(&design)).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "synth",
            netlist_path.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("spawn eblocks-cli");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The stdout is a parseable SynthResponse; artifacts are still written.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let response: eblocks::api::SynthResponse =
        serde::json::from_str(stdout.trim()).unwrap_or_else(|e| panic!("{e}\n{stdout}"));
    assert_eq!(response.design, "garage-open-at-night");
    assert!(response.verified_samples.unwrap() > 0);
    assert!(dir
        .join(format!("{}.netlist", response.synthesized))
        .exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_check_reports_flagship_as_valid() {
    let dir = scratch_dir("check");
    let design = eblocks::designs::garage_open_at_night();
    let netlist_path = dir.join("garage-open-at-night.netlist");
    std::fs::write(&netlist_path, eblocks::core::netlist::to_netlist(&design)).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args(["check", netlist_path.to_str().unwrap()])
        .output()
        .expect("spawn eblocks-cli");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("valid: yes"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Each command takes only its own flags: a flag it does not read fails
/// the run, names the flag and the command, and comes before any work.
#[test]
fn commands_reject_flags_they_do_not_take() {
    let dir = scratch_dir("foreign-flags");
    let design = eblocks::designs::garage_open_at_night();
    let netlist_path = dir.join("garage-open-at-night.netlist");
    std::fs::write(&netlist_path, eblocks::core::netlist::to_netlist(&design)).unwrap();
    let manifest_path = dir.join("batch.manifest");
    std::fs::write(&manifest_path, "job library=\"Carpool Alert\"\n").unwrap();
    let fleet_spec =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet-request.txt");
    let netlist = netlist_path.to_str().unwrap();
    let manifest = manifest_path.to_str().unwrap();
    let spool = dir.join("spool");

    let table: [(&str, &str, &[&str]); 10] = [
        ("synth", netlist, &["--retries", "1"]),
        ("synth", netlist, &["--job-timeout-ms", "1"]),
        ("partition", netlist, &["--json"]),
        ("check", netlist, &["--json"]),
        ("lint", netlist, &["--timings"]),
        ("batch", manifest, &["--vcd", "x"]),
        ("serve", spool.to_str().unwrap(), &["--json"]),
        ("sim", netlist, &["--chaos-seed", "4"]),
        ("fleet", fleet_spec.to_str().unwrap(), &["--grid", "3x3"]),
        ("place", netlist, &["--json"]),
    ];
    for (command, input, extra) in table {
        let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
            .arg(command)
            .arg(input)
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("spawn eblocks-cli");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{command} {extra:?}: {stderr}"
        );
        let flag = extra[0];
        assert!(
            stderr.starts_with(&format!(
                "error: unknown flag `{flag}` for `{command}`\nusage:"
            )),
            "{command} {extra:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{command} {extra:?}");
    }

    // Nothing ran: synth wrote no files and serve made no spool.
    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, ["batch.manifest", "garage-open-at-night.netlist"]);

    std::fs::remove_dir_all(&dir).ok();
}
