//! The fleet determinism contract, end to end: the golden fleet trace is
//! pinned byte for byte, runs are byte-identical at every fleet size, and
//! a seeded chaos storm replays from its seed alone and matches its
//! golden report.
//!
//! To regenerate the committed goldens after an intentional engine or
//! format change:
//!
//! ```text
//! cargo run --release --bin eblocks-cli -- \
//!     fleet tests/golden/fleet-request.txt --json \
//!     --trace tests/golden/fleet-trace.txt > tests/golden/fleet-report.json
//! cargo run --release --bin eblocks-cli -- \
//!     fleet tests/golden/fleet-request.txt --chaos-seed 3 --json \
//!     > tests/golden/fleet-storm-report.json
//! ```

use eblocks::chaos::{NetChaosInjector, NetChaosPlan};
use eblocks::net::{FleetReport, FleetRequest, FleetSource, NoFaults};
use std::path::Path;
use std::process::Command;

fn golden(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// One CLI fleet run over the golden spec: (stdout, trace file bytes).
fn fleet_run(tag: &str) -> (Vec<u8>, Vec<u8>) {
    let trace_path = std::env::temp_dir().join(format!(
        "eblocks-fleet-golden-{tag}-{}.txt",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "fleet",
            golden("fleet-request.txt").to_str().unwrap(),
            "--json",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn eblocks-cli");
    assert!(
        output.status.success(),
        "fleet run failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let trace = std::fs::read(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    (output.stdout, trace)
}

#[test]
fn fleet_trace_matches_the_committed_golden() {
    let expected_trace = std::fs::read(golden("fleet-trace.txt")).expect("committed golden trace");
    let expected_report =
        std::fs::read(golden("fleet-report.json")).expect("committed golden report");
    let (report_a, trace_a) = fleet_run("a");
    assert!(
        trace_a == expected_trace,
        "trace drifted from tests/golden/fleet-trace.txt \
         (regenerate deliberately if the engine changed)\ngot:\n{}",
        String::from_utf8_lossy(&trace_a),
    );
    assert!(
        report_a == expected_report,
        "report drifted from tests/golden/fleet-report.json\ngot:\n{}",
        String::from_utf8_lossy(&report_a),
    );

    // Two consecutive runs: byte-identical report and trace.
    let (report_b, trace_b) = fleet_run("b");
    assert_eq!(trace_a, trace_b, "trace drifted between runs");
    assert_eq!(report_a, report_b, "report drifted between runs");
}

#[test]
fn golden_fleet_replays_through_the_library_api() {
    // The same spec through `eblocks::net` (no CLI) reproduces the
    // committed trace: the contract lives in the library, the CLI is a
    // front end.
    let text = std::fs::read_to_string(golden("fleet-request.txt")).unwrap();
    let spec = FleetRequest::parse(&text).unwrap();
    let fleet = spec.build(&golden("")).unwrap();
    let outcome = fleet.run_traced(spec.until()).unwrap();
    let expected =
        std::fs::read_to_string(golden("fleet-trace.txt")).expect("committed golden trace");
    assert_eq!(outcome.trace.as_deref(), Some(expected.as_str()));
}

#[test]
fn chaos_storm_replays_from_the_seed_alone() {
    // A storm — link flaps, extra loss and delay, seeded node crashes —
    // over the golden fleet: the (seed, plan) pair is the whole state, so
    // two injectors built from the same seed replay byte-identically, and
    // the storm visibly diverges from both a healthy run and another seed.
    let text = std::fs::read_to_string(golden("fleet-request.txt")).unwrap();
    let spec = FleetRequest::parse(&text).unwrap();
    let fleet = spec.build(&golden("")).unwrap();
    let until = spec.until();

    let storm = |seed: u64| {
        let faults = NetChaosInjector::new(seed, NetChaosPlan::storm(until));
        fleet.run_with(until, true, &faults).unwrap()
    };
    let (a, b) = (storm(3), storm(3));
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.trace, b.trace);
    // The CLI's `--chaos-seed 3` report over the same spec is committed.
    let expected = std::fs::read_to_string(golden("fleet-storm-report.json"))
        .expect("committed golden storm report");
    assert_eq!(
        format!("{}\n", a.report.to_json_pretty()),
        expected,
        "storm report drifted from tests/golden/fleet-storm-report.json"
    );
    assert_eq!(a.report.node_stats[2].crashed_at, Some(66));

    let healthy = fleet.run_traced(until).unwrap();
    assert_ne!(a.trace, healthy.trace, "the storm must leave a mark");
    assert_ne!(a.trace, storm(4).trace, "another seed, another storm");
}

#[test]
fn scripted_partition_and_crash_are_visible_in_the_trace() {
    let text = std::fs::read_to_string(golden("fleet-request.txt")).unwrap();
    let spec = FleetRequest::parse(&text).unwrap();
    let fleet = spec.build(&golden("")).unwrap();
    // Site 0 is the star's hub; cutting hub<->leaf0 isolates node 0, and
    // node 3 is forced down mid-run.
    let plan = NetChaosPlan {
        partitions: vec![(0, 1, 40, 120)],
        forced_crashes: vec![(3, 80)],
        ..NetChaosPlan::default()
    };
    let faults = NetChaosInjector::new(0, plan);
    let outcome = fleet.run_with(spec.until(), true, &faults).unwrap();
    let trace = outcome.trace.expect("trace recorded");
    assert!(trace.contains("cause=fault"), "partition drops packets");
    assert!(
        trace.contains("crash n3"),
        "forced crash is traced:\n{trace}"
    );
    assert_eq!(outcome.report.crashes, 1);
    assert!(outcome.report.node_stats[3].crashed_at.is_some());
}

#[test]
fn thousand_node_grid_is_byte_identical_and_storm_replayable() {
    // The acceptance bar: a 1000-node fleet of library designs on a grid
    // simulates to completion with byte-identical reports across runs,
    // and a chaos storm over it replays from the seed alone.
    let spec = FleetRequest {
        name: Some("kilofleet".into()),
        nodes: 1000,
        topology: "grid".into(),
        design: FleetSource::Library("Night Lamp Controller".into()),
        until: Some(60),
        seed: Some(7),
        latency: None,
        bits_per_tick: None,
        packet_bits: None,
        loss_pm: Some(10),
        stimulus_period: None,
    };
    let fleet = spec.build(Path::new(".")).unwrap();
    let until = spec.until();

    let a = fleet.run_with(until, false, &NoFaults).unwrap();
    let b = fleet.run_with(until, false, &NoFaults).unwrap();
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.report.nodes, 1000);
    assert_eq!(a.report.topology, "grid(32x32)");
    // (events, sent, delivered, dropped, in flight, crashes).
    let counts = |r: &FleetReport| {
        (
            r.events,
            r.packets_sent,
            r.packets_delivered,
            r.packets_dropped,
            r.packets_in_flight,
            r.crashes,
        )
    };
    assert_eq!(counts(&a.report), (70_371, 6_140, 5_744, 99, 297, 0));

    let storm = |seed: u64| {
        let faults = NetChaosInjector::new(seed, NetChaosPlan::storm(until));
        fleet.run_with(until, false, &faults).unwrap().report
    };
    let (s1, s2) = (storm(42), storm(42));
    assert_eq!(s1.to_json(), s2.to_json(), "storm replays from its seed");
    assert_eq!(counts(&s1), (61_190, 4_651, 3_343, 1_217, 91, 124));
    assert_ne!(s1.to_json(), a.report.to_json());
}
