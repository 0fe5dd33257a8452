//! The emitted C, pinned against `tests/golden/c-sources.txt`.
//!
//! `codesize.txt` and the benchmark's `c_bytes` lines pin sizes only, so a
//! change that rewrites one expression into another of the same length
//! would pass them. This golden holds the text itself: the full C of every
//! programmable block that synthesis gives the 15 Table 1 designs, then one
//! FNV-1a digest line per generated design (three seeds at each of 17
//! sizes, 5–45 inner blocks). Every design goes through
//! [`Pipeline::run`] with PareDown and verify on, as `eblocks-cli synth`
//! runs it.
//!
//! On a mismatch the test writes the new rendering to `c-sources.txt`
//! under Cargo's integration-test temp directory and names the first
//! differing line. After an intentional change, copy that file over the
//! golden.

use eblocks::designs;
use eblocks::gen::{generate, GeneratorConfig};
use eblocks::partition::strategy::PareDown;
use eblocks::synth::{Pipeline, SynthesisResult};
use std::fmt::Write;
use std::path::Path;

/// Generated design sizes (inner blocks).
const SIZES: [usize; 17] = [
    5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 25, 30, 35, 40, 45,
];
/// Generated designs per size.
const PER_SIZE: u64 = 3;

fn synthesize(design: &eblocks::core::Design) -> SynthesisResult {
    Pipeline::new(design)
        .run(&PareDown, true)
        .unwrap_or_else(|e| panic!("{}: {e}", design.name()))
}

/// FNV-1a over every block's name and C source, in block order.
fn digest(result: &SynthesisResult) -> u64 {
    result
        .c_sources
        .iter()
        .flat_map(|(name, code)| name.bytes().chain([0]).chain(code.bytes()))
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn render() -> String {
    let mut out = String::new();
    for library in designs::all() {
        for (block, code) in synthesize(&library.design).c_sources {
            writeln!(out, "=== {} {block}", library.name).unwrap();
            out.push_str(&code);
        }
    }
    for inner in SIZES {
        for j in 0..PER_SIZE {
            let seed = inner as u64 * 1000 + j;
            let result = synthesize(&generate(&GeneratorConfig::new(inner), seed));
            let bytes: usize = result.c_sources.iter().map(|(_, c)| c.len()).sum();
            writeln!(
                out,
                "n{inner}-s{seed} programs={} c_bytes={bytes} fnv64={:016x}",
                result.c_sources.len(),
                digest(&result)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn emitted_c_matches_the_committed_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/c-sources.txt");
    let expected = std::fs::read_to_string(&golden).expect("committed C golden");
    let actual = render();
    if actual != expected {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("c-sources.txt");
        std::fs::write(&fresh, &actual).expect("write the fresh rendering");
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "emitted C differs from {} at line {}:\n  golden: {}\n  actual: {}\nnew rendering written to {}",
            golden.display(),
            first + 1,
            expected.lines().nth(first).unwrap_or("<end of file>"),
            actual.lines().nth(first).unwrap_or("<end of file>"),
            fresh.display()
        );
    }
}
