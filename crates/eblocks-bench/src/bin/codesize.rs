//! Checks §3.3's practical assumption: no partition's generated program
//! exceeds the PIC16F628's 2 KB program memory. Synthesizes every library
//! design and prints each programmable block's size estimate, then the
//! largest program found on a batch of big random designs.
//!
//! Usage: `cargo run --release -p eblocks-bench --bin codesize`

use eblocks_codegen::PIC16F628_PROGRAM_WORDS;
use eblocks_core::Design;
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::PareDown;
use eblocks_synth::{Pipeline, SynthError, SynthesisResult};

/// Synthesizes `design` without verification: this is a size audit only,
/// and equivalence is covered by the test suite.
fn synthesize(design: &Design, optimize: bool) -> Result<SynthesisResult, SynthError> {
    Pipeline::new(design)
        .optimize(optimize)
        .run(&PareDown, false)
}

fn main() {
    println!("Library designs (budget: {PIC16F628_PROGRAM_WORDS} instruction words):");
    println!(
        "{:<26} {:<8} {:>7} {:>12} {:>6}",
        "design", "block", "words", "state bytes", "fits?"
    );
    let mut worst = 0usize;
    for entry in eblocks_designs::all() {
        match synthesize(&entry.design, true) {
            Ok(result) => {
                if result.size_estimates.is_empty() {
                    println!("{:<26} (no partitions)", entry.name);
                }
                for (block, est) in &result.size_estimates {
                    worst = worst.max(est.words);
                    println!(
                        "{:<26} {:<8} {:>7} {:>12} {:>6}",
                        entry.name,
                        block,
                        est.words,
                        est.state_bytes,
                        if est.fits_pic16f628() { "yes" } else { "NO" }
                    );
                }
            }
            Err(e) => println!("{:<26} synthesis failed: {e}", entry.name),
        }
    }

    println!("\nRandom designs (inner = 45, 20 seeds):");
    for seed in 0..20 {
        let design = generate(&GeneratorConfig::new(45), seed);
        if let Ok(result) = synthesize(&design, true) {
            for (_, est) in &result.size_estimates {
                worst = worst.max(est.words);
            }
        }
    }
    println!(
        "largest generated program: {worst} words ({:.1}% of the PIC16F628 store)",
        100.0 * worst as f64 / PIC16F628_PROGRAM_WORDS as f64
    );

    // Behavior-tree optimizer ablation: total words with the optimizer on
    // vs off, summed over the whole library.
    let mut with_opt = 0usize;
    let mut without_opt = 0usize;
    for entry in eblocks_designs::all() {
        if let (Ok(a), Ok(b)) = (
            synthesize(&entry.design, true),
            synthesize(&entry.design, false),
        ) {
            with_opt += a.size_estimates.iter().map(|(_, e)| e.words).sum::<usize>();
            without_opt += b.size_estimates.iter().map(|(_, e)| e.words).sum::<usize>();
        }
    }
    println!(
        "optimizer ablation (library total): {without_opt} words unoptimized -> {with_opt} optimized ({:.1}% saved)",
        100.0 * (without_opt.saturating_sub(with_opt)) as f64 / without_opt.max(1) as f64
    );
}
