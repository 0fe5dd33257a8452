//! The input-bytes fault surface: seeded corruptions of valid manifest
//! and JSON inputs pushed through `BatchRequest::from_file` (and the
//! text-level parsers) must come back as `Ok` or a `ManifestError` —
//! never a panic.

use eblocks_chaos::corrupt::corrupt;
use eblocks_farm::BatchRequest;
use std::path::PathBuf;

const VALID_MANIFEST: &str = "\
# chaos corruption substrate (v1)
default partitioner=pare-down verify=false

job library=\"Podium Timer 3\" partitioner=refine name=pt3
job generated=20 seed=7 mode=partition
job library=\"Carpool Alert\" optimize=true
";

const VALID_JSON: &str = r#"{
  "default_partitioner": "pare-down",
  "jobs": [
    {"source": {"library": "Ignition Illuminator"}},
    {"source": {"generated": {"inner": 12, "seed": 5}},
     "options": {"mode": "partition"}}
  ]
}"#;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eblocks-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn corrupted_files_error_but_never_panic() {
    let dir = tempdir("from-file");
    let path = dir.join("input.manifest");
    for (label, valid) in [("v1", VALID_MANIFEST), ("v2", VALID_JSON)] {
        for seed in 0..256u64 {
            let bytes = corrupt(seed, valid.as_bytes());
            std::fs::write(&path, &bytes).expect("write corrupted input");
            // Ok (the corruption happened to stay well-formed) and Err
            // are both fine; only a panic would fail the test.
            let _ = BatchRequest::from_file(&path);
            // The text-level parsers get the same bytes where they form
            // a string at all.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = BatchRequest::parse(text);
                let _ = BatchRequest::from_json(text);
            }
            let _ = label;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncorrupted_substrates_still_parse() {
    // Guard the fuzz substrate itself: if the valid inputs rot, the
    // corruption test would be fuzzing noise against noise.
    let batch = BatchRequest::parse(VALID_MANIFEST).expect("valid v1 manifest");
    assert_eq!(batch.jobs.len(), 3);
    let batch = BatchRequest::from_json(VALID_JSON).expect("valid v2 manifest");
    assert_eq!(batch.jobs.len(), 2);
}
