//! Manifest parsers under fire: `BatchRequest::parse` and
//! `BatchRequest::from_json` must return `Ok` or `Err` on *any* input —
//! arbitrary text, and targeted mutations of valid manifests — and never
//! panic. The seeds are pinned, so every CI run replays the same case set.

use eblocks_farm::BatchRequest;
use proptest::prelude::*;

/// A valid v1 (line-oriented) manifest used as a mutation substrate.
const VALID_MANIFEST: &str = "\
# fuzz substrate (v1)
default partitioner=pare-down verify=false

job library=\"Podium Timer 3\" partitioner=refine name=pt3
job generated=20 seed=7 mode=partition
job library=\"Carpool Alert\" optimize=true
";

/// A valid v2 (JSON) manifest used as a mutation substrate.
const VALID_JSON: &str = r#"{
  "default_partitioner": "pare-down",
  "jobs": [
    {"source": {"library": "Ignition Illuminator"}},
    {"source": {"generated": {"inner": 12, "seed": 5}},
     "options": {"mode": "partition"}}
  ]
}"#;

/// Characters the manifest grammar cares about, plus newline (which the
/// printable-string strategy never emits but the line parser pivots on).
const SPICE: &[char] = &[
    '\n', '"', '=', '#', '{', '}', '[', ']', ':', ',', '\\', '\t',
];

/// One proptest-chosen edit applied to `text`: insert, delete, replace,
/// or truncate at a character boundary.
fn mutate(text: &str, op: u8, position: usize, spice: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = if chars.is_empty() {
        0
    } else {
        position % chars.len()
    };
    let c = SPICE[spice % SPICE.len()];
    let mut out = chars.clone();
    match op % 4 {
        0 => out.insert(at, c),
        1 => {
            if !out.is_empty() {
                out.remove(at);
            }
        }
        2 => {
            if !out.is_empty() {
                out[at] = c;
            }
        }
        _ => out.truncate(at),
    }
    out.into_iter().collect()
}

/// Both parsers over one input; only a panic can fail the calling test.
fn feed(text: &str) {
    let _ = BatchRequest::parse(text);
    let _ = BatchRequest::from_json(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256).with_rng_seed(0xEB10C5))]

    #[test]
    fn parsers_never_panic_on_arbitrary_text(text in "\\PC*") {
        feed(&text);
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_lines(
        lines in proptest::collection::vec("\\PC*", 0..8)
    ) {
        feed(&lines.join("\n"));
    }

    #[test]
    fn parsers_never_panic_on_mutated_manifests(
        edits in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>()),
            1..6,
        )
    ) {
        for substrate in [VALID_MANIFEST, VALID_JSON] {
            let mut text = substrate.to_string();
            for (op, position, spice) in &edits {
                text = mutate(&text, *op, *position, *spice);
            }
            feed(&text);
        }
    }
}

#[test]
fn fuzz_substrates_are_valid() {
    // Guard the substrates: mutation fuzzing of an already-broken input
    // would only ever exercise the error path.
    assert_eq!(BatchRequest::parse(VALID_MANIFEST).unwrap().jobs.len(), 3);
    assert_eq!(BatchRequest::from_json(VALID_JSON).unwrap().jobs.len(), 2);
}
