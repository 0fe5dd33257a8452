//! Exact partitions on a seeded corpus, pinned against
//! `tests/golden/partition-corpus.txt`.
//!
//! The Table 1 rows and the Table 2 totals pin only counts, so a change that
//! swaps two partitions of equal total would pass them. This golden lists
//! the members of every partition instead. The corpus is ten generated
//! designs per Table 2 size (3–45 inner blocks) plus the 100- and 200-block
//! designs of the `scaling` bin. Each design is partitioned by:
//!
//! * PareDown, with and without the §4.2 tie-breaks, and under the
//!   convexity and the connectivity extension;
//! * PareDown against [`BlockCatalog::three_tier`];
//! * exhaustive search, plain and under both extensions, and a 2,000-step
//!   simulated annealing walk, on designs of 15 inner blocks or fewer.
//!
//! The `scaling` bin's 465-block design, the paper's largest, adds only its
//! PareDown lines with and without the tie-breaks: the runs where a paring
//! loop makes the most removal steps.
//!
//! One line per (design, strategy): the design's label, the strategy, the
//! inner-block total, each partition's members in result order (with the
//! catalog entry for the multi-type run), and the uncovered blocks.
//!
//! On a mismatch the test writes the new rendering to
//! `partition-corpus.txt` under Cargo's integration-test temp directory and
//! names the first differing line. After an intentional change, copy that
//! file over the golden.

use eblocks::core::{BlockId, Design};
use eblocks::gen::{generate, GeneratorConfig};
use eblocks::partition::{
    anneal, exhaustive, pare_down, pare_down_multi, pare_down_no_tie_breaks, AnnealConfig,
    BlockCatalog, ExhaustiveOptions, PartitionConstraints, Partitioning,
};
use std::fmt::Write;
use std::path::Path;

/// The Table 2 sizes (inner blocks per design).
const TABLE2_SIZES: [usize; 17] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 25, 35, 45];
/// Designs drawn per Table 2 size.
const PER_SIZE: u64 = 10;
/// The largest design the exhaustive search and the annealer run on.
const EXHAUSTIVE_MAX: usize = 15;
/// The `scaling` bin's largest design: `(inner blocks, seed)`.
const SCALING_LARGEST: (usize, u64) = (465, 4242 + 465);

fn corpus() -> Vec<(String, Design)> {
    let mut designs = Vec::new();
    for inner in TABLE2_SIZES {
        for j in 0..PER_SIZE {
            let seed = inner as u64 * 1000 + j;
            designs.push((
                format!("n{inner}-s{seed}"),
                generate(&GeneratorConfig::new(inner), seed),
            ));
        }
    }
    // The `scaling` bin's seeds.
    for inner in [100usize, 200] {
        let seed = 4242 + inner as u64;
        designs.push((
            format!("n{inner}-s{seed}"),
            generate(&GeneratorConfig::new(inner), seed),
        ));
    }
    designs
}

fn names(design: &Design, blocks: &[BlockId]) -> String {
    blocks
        .iter()
        .map(|&b| design.block(b).expect("a block of the design").name())
        .collect::<Vec<_>>()
        .join(" ")
}

fn line(out: &mut String, label: &str, strategy: &str, design: &Design, result: &Partitioning) {
    write!(out, "{label} {strategy} total={}", result.inner_total()).unwrap();
    for p in result.partitions() {
        write!(out, " [{}]", names(design, p)).unwrap();
    }
    writeln!(out, " | {}", names(design, result.uncovered())).unwrap();
}

fn render() -> String {
    let plain = PartitionConstraints::default();
    let convex = PartitionConstraints {
        require_convex: true,
        ..plain
    };
    let connected = PartitionConstraints {
        require_connected: true,
        ..plain
    };
    let variants = [("", plain), ("/convex", convex), ("/connected", connected)];
    let catalog = BlockCatalog::three_tier();

    let mut out = String::new();
    for (label, design) in corpus() {
        for (suffix, constraints) in &variants {
            let name = format!("pare_down{suffix}");
            line(
                &mut out,
                &label,
                &name,
                &design,
                &pare_down(&design, constraints),
            );
        }
        let no_ties = pare_down_no_tie_breaks(&design, &plain);
        line(
            &mut out,
            &label,
            "pare_down_no_tie_breaks",
            &design,
            &no_ties,
        );

        let multi = pare_down_multi(&design, &plain, &catalog);
        write!(
            out,
            "{label} pare_down_multi/three_tier cost={:.2}",
            multi.total_cost
        )
        .unwrap();
        for (p, (spec, _)) in multi
            .partitioning
            .partitions()
            .iter()
            .zip(&multi.assignments)
        {
            write!(
                out,
                " [{}]:{}x{}",
                names(&design, p),
                spec.inputs,
                spec.outputs
            )
            .unwrap();
        }
        writeln!(out, " | {}", names(&design, multi.partitioning.uncovered())).unwrap();

        if design.inner_blocks().count() <= EXHAUSTIVE_MAX {
            for (suffix, constraints) in &variants {
                let result = exhaustive(&design, constraints, ExhaustiveOptions::default());
                assert!(result.is_complete(), "{label}: exhaustive search cut short");
                let name = format!("exhaustive{suffix}");
                line(&mut out, &label, &name, &design, &result);
            }
            let annealed = anneal(&design, &plain, &AnnealConfig::with_iterations(2_000));
            line(&mut out, &label, "anneal", &design, &annealed);
        }
    }

    let (inner, seed) = SCALING_LARGEST;
    let label = format!("n{inner}-s{seed}");
    let design = generate(&GeneratorConfig::new(inner), seed);
    line(
        &mut out,
        &label,
        "pare_down",
        &design,
        &pare_down(&design, &plain),
    );
    line(
        &mut out,
        &label,
        "pare_down_no_tie_breaks",
        &design,
        &pare_down_no_tie_breaks(&design, &plain),
    );
    out
}

#[test]
fn partitions_match_the_committed_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/partition-corpus.txt");
    let expected = std::fs::read_to_string(&golden).expect("committed partition golden");
    let actual = render();
    if actual != expected {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("partition-corpus.txt");
        std::fs::write(&fresh, &actual).expect("write the fresh rendering");
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "partitions differ from {} at line {}:\n  golden: {}\n  actual: {}\nnew rendering written to {}",
            golden.display(),
            first + 1,
            expected.lines().nth(first).unwrap_or("<end of file>"),
            actual.lines().nth(first).unwrap_or("<end of file>"),
            fresh.display()
        );
    }
}
