//! End-to-end contract for `lint --fix` and the structured-fix layer:
//! every machine-applicable rule fixes to a fixpoint where its code is
//! gone without introducing new errors, fixing is idempotent and
//! byte-stable across repeated runs, a 256-seed corruption storm never
//! panics and never produces a rewrite that fails to re-parse, and the
//! cross-block dataflow fixture matches its committed golden.

mod common;

use common::TempDir;
use eblocks::chaos::corrupt::corrupt;
use eblocks::core::netlist::from_netlist;
use eblocks::lint::{
    apply_machine_fixes, fix_to_fixpoint, lint_behavior, lint_netlist, LintReport, Severity,
};
use std::process::Command;

const CROSSBLOCK: &str = "tests/fixtures/lint-crossblock.netlist";
const CROSSBLOCK_GOLDEN: &str = "tests/golden/lint-crossblock.json";

/// The dead-island netlist the W006 removal fix targets.
const DEAD_ISLAND: &str = "eblocks-netlist v1\n\
                           design t\n\
                           block s sensor:button\n\
                           block n compute:not\n\
                           block o output:led\n\
                           block ghost programmable:1in/1out\n\
                           block deadled output:led\n\
                           wire s.0 -> n.0\n\
                           wire n.0 -> o.0\n\
                           wire ghost.0 -> deadled.0\n";

fn lint_behavior_11(text: &str) -> LintReport {
    lint_behavior(text, 1, 1)
}

fn error_codes(report: &LintReport) -> Vec<String> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code.clone())
        .collect()
}

/// Fixpoint property: applying a rule's machine fixes and re-linting
/// leaves no trace of the rule and introduces no new errors.
#[test]
fn machine_applicable_rules_fix_to_their_fixpoint() {
    // (seeded source, the machine-fixable code it trips, netlist?)
    let cases: &[(&str, &str, bool)] = &[
        (
            "state junk = false;\non input { junk = in0; out0 = in0; }",
            "W120",
            false,
        ),
        ("on input { let x = in0; out0 = in0; }", "W122", false),
        (
            "on input { out0 = in0; if (true) { out0 = false; } }",
            "W123",
            false,
        ),
        (
            "on input { out0 = in0; if (in0 && false) { out0 = true; } }",
            "W211",
            false,
        ),
        (DEAD_ISLAND, "W006", true),
    ];
    for (source, code, is_netlist) in cases {
        let lint = |t: &str| {
            if *is_netlist {
                lint_netlist(t)
            } else {
                lint_behavior_11(t)
            }
        };
        let before = lint(source);
        assert!(
            before.diagnostics.iter().any(|d| &d.code == code),
            "{code} must fire on its seeded source:\n{before}"
        );
        let before_errors = error_codes(&before);
        let (fixed, rounds) = fix_to_fixpoint(source, lint);
        assert!(rounds > 0, "{code} fix must rewrite the text");
        let after = lint(&fixed);
        assert!(
            !after.diagnostics.iter().any(|d| &d.code == code),
            "{code} must be gone after --fix:\n{after}"
        );
        assert_eq!(
            error_codes(&after),
            before_errors,
            "{code} fix must not introduce errors:\n{after}"
        );
        // The fixpoint really is one: another round changes nothing.
        let (again, more) = fix_to_fixpoint(&fixed, lint);
        assert_eq!(again, fixed, "{code} fix must be idempotent");
        assert_eq!(more, 0, "{code} left pending fixes after its fixpoint");
    }
}

/// A fix round either rewrites the text or reports nothing applicable —
/// `apply_machine_fixes` and `fix_to_fixpoint` agree on which.
#[test]
fn clean_inputs_have_no_machine_fixes() {
    for entry in std::fs::read_dir("netlists").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "netlist") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let report = lint_netlist(&text);
        assert_eq!(
            apply_machine_fixes(&text, &report),
            None,
            "{} must have nothing to fix",
            path.display()
        );
        let (fixed, rounds) = fix_to_fixpoint(&text, lint_netlist);
        assert_eq!(fixed, text);
        assert_eq!(rounds, 0);
    }
}

/// 256-seed corruption storm: whatever bytes reach the fixer, it never
/// panics, and when it does rewrite, the result still parses — `--fix`
/// can never leave a file in a worse state than it found it.
#[test]
fn corrupt_storm_never_panics_and_rewrites_reparse() {
    let netlist = std::fs::read(CROSSBLOCK).unwrap();
    let behavior =
        b"state junk = false;\non input { let x = in0; out0 = in0; if (true) { out0 = false; } }"
            .to_vec();
    for seed in 0..256u64 {
        let (bytes, as_netlist) = if seed % 2 == 0 {
            (corrupt(seed, &netlist), true)
        } else {
            (corrupt(seed, &behavior), false)
        };
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let (fixed, _rounds) = fix_to_fixpoint(&text, |t| {
            if as_netlist {
                lint_netlist(t)
            } else {
                lint_behavior_11(t)
            }
        });
        if fixed != text {
            if as_netlist {
                assert!(
                    from_netlist(&fixed).is_ok(),
                    "seed {seed}: netlist rewrite must re-parse:\n{fixed}"
                );
            } else {
                assert!(
                    eblocks::behavior::parse(&fixed).is_ok(),
                    "seed {seed}: behavior rewrite must re-parse:\n{fixed}"
                );
            }
        }
    }
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args(args)
        .output()
        .expect("spawn eblocks-cli")
}

/// `lint --fix` through the CLI: rewrites once, is byte-identical across
/// repeated runs, and `--fix --check` flips from failing to passing.
#[test]
fn cli_fix_is_idempotent_and_check_gates() {
    let dir = TempDir::new("eblocks-lint-fix");
    let file = dir.join("island.netlist");
    std::fs::write(&file, DEAD_ISLAND).unwrap();
    let path = file.to_str().unwrap();

    // Dry run first: pending fixes exit non-zero and leave the file alone.
    let check = run_cli(&["lint", path, "--fix", "--check"]);
    assert!(!check.status.success(), "pending fixes must fail --check");
    assert_eq!(std::fs::read_to_string(&file).unwrap(), DEAD_ISLAND);

    // --check without --fix is a usage error.
    let bare = run_cli(&["lint", path, "--check"]);
    assert!(!bare.status.success());
    assert!(
        String::from_utf8_lossy(&bare.stderr).contains("--check requires --fix"),
        "{}",
        String::from_utf8_lossy(&bare.stderr)
    );

    // Apply; the island is gone and the file re-parses.
    let fix = run_cli(&["lint", path, "--fix"]);
    assert!(
        fix.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&fix.stderr)
    );
    let once = std::fs::read(&file).unwrap();
    assert!(!String::from_utf8_lossy(&once).contains("ghost"));

    // Idempotent: a second --fix leaves the bytes untouched, and the
    // --check gate now passes.
    let again = run_cli(&["lint", path, "--fix"]);
    assert!(again.status.success());
    assert_eq!(std::fs::read(&file).unwrap(), once);
    let clean = run_cli(&["lint", path, "--fix", "--check"]);
    assert!(clean.status.success());
}

/// The cross-block fixture's JSON report — dataflow findings plus the
/// serialized removal fixes — is byte-identical to the committed golden,
/// and exits zero (warnings only) at the default deny level.
#[test]
fn crossblock_fixture_matches_the_committed_golden() {
    let output = run_cli(&["lint", CROSSBLOCK, "--json"]);
    assert!(
        output.status.success(),
        "cross-block findings are warnings; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let golden = std::fs::read(CROSSBLOCK_GOLDEN).unwrap();
    assert_eq!(
        output.stdout, golden,
        "lint JSON drifted from {CROSSBLOCK_GOLDEN}; regenerate with \
         `cargo run --release --bin eblocks-cli -- lint {CROSSBLOCK} --json > {CROSSBLOCK_GOLDEN}`"
    );
    let text = String::from_utf8_lossy(&output.stdout);
    for code in ["W006", "W210", "W211", "W212"] {
        assert!(text.contains(code), "{code} missing:\n{text}");
    }
    assert!(text.contains("machine-applicable"), "{text}");
}
