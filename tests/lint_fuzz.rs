//! Pinned-seed fuzz over the linter's text entry points: feeding
//! `eblocks_chaos::corrupt`-mutated netlists and behavior programs through
//! `lint_netlist`/`lint_behavior` must never panic — broken input comes
//! back as diagnostics (usually E005/E100), not as a crash. The seeds are
//! pinned so a failure reproduces exactly.
//!
//! Lives in the root test suite because the chaos crate depends on the
//! farm (and transitively on the linter), so the lint crate itself cannot
//! take it as a dev-dependency.

use eblocks::chaos::corrupt::corrupt;
use eblocks::lint::{lint_behavior, lint_netlist};

const SEEDS: std::ops::Range<u64> = 0..256;

#[test]
fn lint_netlist_never_panics_on_corrupted_text() {
    let base = eblocks::core::netlist::to_netlist(&eblocks::designs::garage_open_at_night());
    for seed in SEEDS {
        let mutated = corrupt(seed, base.as_bytes());
        let text = String::from_utf8_lossy(&mutated);
        let report = lint_netlist(&text);
        // Same seed, same bytes: the verdict itself is deterministic.
        assert_eq!(
            report,
            lint_netlist(&text),
            "seed {seed}: lint must be a pure function of the text"
        );
    }
}

#[test]
fn lint_behavior_never_panics_on_corrupted_text() {
    let base = "state armed = true;\nstate count = 0;\n\
                on input { if (in0 || in1) { out0 = armed; } else { out0 = false; } }\n\
                on tick { count = count + 1; out1 = count > 3; }\n";
    for seed in SEEDS {
        let mutated = corrupt(seed, base.as_bytes());
        let text = String::from_utf8_lossy(&mutated);
        let report = lint_behavior(&text, 2, 2);
        assert_eq!(
            report,
            lint_behavior(&text, 2, 2),
            "seed {seed}: lint must be a pure function of the text"
        );
    }
}
