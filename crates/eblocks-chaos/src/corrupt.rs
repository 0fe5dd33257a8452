//! Seeded corruption of input bytes — the harness's third fault surface.
//!
//! The farm's first two chaos surfaces live inside the engine (scheduling
//! and stage faults); this one attacks the boundary: the manifest and
//! JSON bytes [`BatchRequest::from_file`](eblocks_farm::BatchRequest::from_file)
//! parses. [`corrupt`] applies a seeded burst of truncations, bit flips,
//! insertions, deletions, and splices to a valid input, producing the
//! malformed variants the parsers must reject *as errors* — never
//! panics. Like everything else in the harness, the output is a pure
//! function of `(seed, input)`, so a failing seed replays exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How many mutations one [`corrupt`] call applies (1..=MAX_MUTATIONS).
const MAX_MUTATIONS: u32 = 4;

/// Returns `bytes` with a seeded burst of corruptions applied: truncated
/// at a random point, single bits flipped, random bytes inserted or
/// removed, or a chunk spliced to another position. Deterministic per
/// `(seed, bytes)`.
pub fn corrupt(seed: u64, bytes: &[u8]) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    for _ in 0..rng.random_range(1..=MAX_MUTATIONS) {
        if out.is_empty() {
            out.push(rng.random::<u8>());
            continue;
        }
        match rng.random_range(0..5u32) {
            0 => {
                // Truncate: simulate a partial write or cut-off upload.
                let keep = rng.random_range(0..out.len());
                out.truncate(keep);
            }
            1 => {
                // Flip one bit: single-byte corruption (may also break
                // UTF-8, which the parsers must survive).
                let i = rng.random_range(0..out.len());
                out[i] ^= 1 << rng.random_range(0..8u32);
            }
            2 => {
                // Insert a random byte.
                let i = rng.random_range(0..=out.len());
                out.insert(i, rng.random::<u8>());
            }
            3 => {
                // Delete a byte.
                let i = rng.random_range(0..out.len());
                out.remove(i);
            }
            _ => {
                // Splice: copy a short chunk over another position,
                // duplicating structure (repeated keys, re-opened
                // brackets) that trips naive parsers.
                let from = rng.random_range(0..out.len());
                let to = rng.random_range(0..out.len());
                let chunk: Vec<u8> = out[from..].iter().take(8).copied().collect();
                for (offset, byte) in chunk.into_iter().enumerate() {
                    match out.get_mut(to + offset) {
                        Some(slot) => *slot = byte,
                        None => break,
                    }
                }
            }
        }
    }
    out
}

/// One seeded variant of `bytes` per seed in `seeds`, paired with the
/// seed that produced it — the "spool storm" shape: feed every variant
/// to a parser (or a running daemon's inbox) and name the seed in any
/// assertion that fails, so the offending input replays exactly.
pub fn storm(seeds: std::ops::Range<u64>, bytes: &[u8]) -> Vec<(u64, Vec<u8>)> {
    seeds.map(|seed| (seed, corrupt(seed, bytes))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_pairs_each_seed_with_its_variant() {
        let input = br#"{"jobs": []}"#;
        let variants = storm(0..32, input);
        assert_eq!(variants.len(), 32);
        for (seed, bytes) in &variants {
            assert_eq!(*bytes, corrupt(*seed, input), "seed {seed}");
        }
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let input = br#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#;
        for seed in 0..64 {
            assert_eq!(corrupt(seed, input), corrupt(seed, input), "seed {seed}");
        }
    }

    #[test]
    fn seeds_produce_distinct_corruptions() {
        let input = b"library \"Ignition Illuminator\"\n";
        let distinct: std::collections::HashSet<Vec<u8>> =
            (0..64).map(|seed| corrupt(seed, input)).collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct outputs",
            distinct.len()
        );
    }

    #[test]
    fn empty_input_still_mutates() {
        assert!(!corrupt(3, b"").is_empty(), "grows from nothing");
    }
}
