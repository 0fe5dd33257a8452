//! Integration tests for the spool front door: round trips, structured
//! rejection, config edge cases, and the seeded corrupt-file storm.

use eblocks_farm::api::{BatchRequest, SynthRequest, MAX_INPUT_BYTES};
use eblocks_farm::{run_batch, FarmConfig, JsonOptions};
use eblocks_serve::{spawn, ServeConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("eblocks-serve-spool-{tag}-{}", std::process::id()));
    // A stale directory from a previous run would leak old spool files
    // into the assertions.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fast-polling config for tests.
fn config(spool: &Path) -> ServeConfig {
    ServeConfig::new(spool).poll_interval(Duration::from_millis(2))
}

/// Drops a request into the inbox the way real producers must: write
/// the bytes elsewhere, then rename into place. A plain `fs::write`
/// into a watched inbox races the scanner, which may claim the file
/// before its content lands.
fn spool_file(spool: &Path, name: &str, bytes: impl AsRef<[u8]>) {
    let staging = spool.join(format!(".staging-{name}"));
    std::fs::write(&staging, bytes.as_ref()).unwrap();
    std::fs::rename(&staging, spool.join("inbox").join(name)).unwrap();
}

/// Waits for `path` to appear (responses are rename-published, so
/// existence implies complete content).
fn wait_for(path: &Path) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if let Ok(bytes) = std::fs::read(path) {
            return bytes;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {}", path.display());
}

/// Every file in `dir`, name → bytes.
fn dir_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().into_string().unwrap();
            map.insert(name, std::fs::read(entry.path()).unwrap());
        }
    }
    map
}

const BATCH_REQUEST: &str = r#"{"jobs": [
  {"source": {"library": "Carpool Alert"}},
  {"name": "g8", "source": {"generated": {"inner": 8, "seed": 3}},
   "options": {"mode": "partition"}}
]}"#;

#[test]
fn round_trips_batch_and_synth_requests_through_the_spool() {
    let spool = tempdir("roundtrip");
    let handle = spawn(config(&spool)).unwrap();

    spool_file(&spool, "batch.json", BATCH_REQUEST);
    let synth = r#"{"synth": {"source": {"library": "Carpool Alert"}}}"#;
    spool_file(&spool, "synth.json", synth);

    // The batch response is byte-identical to the one-shot path: the
    // same request through `run_batch` + `to_json`.
    let got = wait_for(&spool.join("outbox/batch.json"));
    let request: BatchRequest = serde::json::from_str(BATCH_REQUEST).unwrap();
    let report = run_batch(&request, &FarmConfig::default());
    let expected = format!("{}\n", report.to_json(&JsonOptions::default()));
    assert_eq!(String::from_utf8(got).unwrap(), expected);

    // The synth response is the pretty-printed `SynthResponse`, the same
    // shape `eblocks-cli synth --json` prints. Its `stages_ms` rows are
    // wall-clock (never byte-stable), so compare with them cleared.
    let got = String::from_utf8(wait_for(&spool.join("outbox/synth.json"))).unwrap();
    assert!(got.ends_with('\n'), "{got:?}");
    let mut got: eblocks_farm::api::SynthResponse = serde::json::from_str(&got).unwrap();
    let request: SynthRequest =
        serde::json::from_str(r#"{"source": {"library": "Carpool Alert"}}"#).unwrap();
    let mut expected = eblocks_farm::api::synthesize(&request).unwrap();
    got.stages_ms.clear();
    expected.stages_ms.clear();
    assert_eq!(got, expected);

    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!(
        (summary.accepted, summary.rejected, summary.completed),
        (2, 0, 2)
    );
}

#[test]
fn rejects_malformed_inputs_with_structured_errors() {
    let spool = tempdir("reject");
    let handle = spawn(config(&spool)).unwrap();

    spool_file(&spool, "garbage.json", "{{{ not json");
    spool_file(&spool, "binary.json", [0xffu8, 0xfe, 0x00, 0x80]);
    spool_file(&spool, "reboot.json", r#"{"reboot": {}}"#);
    spool_file(
        &spool,
        "badjobs.json",
        r#"{"jobs": [{"source": {"warp": 9}}]}"#,
    );

    let garbage =
        String::from_utf8(wait_for(&spool.join("rejected/garbage.json.error.json"))).unwrap();
    assert!(garbage.contains("invalid request"), "{garbage}");
    let binary =
        String::from_utf8(wait_for(&spool.join("rejected/binary.json.error.json"))).unwrap();
    assert!(binary.contains("not valid UTF-8"), "{binary}");
    let reboot =
        String::from_utf8(wait_for(&spool.join("rejected/reboot.json.error.json"))).unwrap();
    assert!(reboot.contains("invalid request"), "{reboot}");
    // A top-level `jobs` key reads as a bare batch request, so the error
    // talks about the batch shape, not the envelope.
    let badjobs =
        String::from_utf8(wait_for(&spool.join("rejected/badjobs.json.error.json"))).unwrap();
    assert!(badjobs.contains("invalid batch request"), "{badjobs}");

    // The originals are preserved next to their error files.
    assert_eq!(
        wait_for(&spool.join("rejected/garbage.json")),
        b"{{{ not json"
    );

    // A stats request through the spool reports the rejection counters.
    spool_file(&spool, "stats.json", "\"stats\"");
    let stats = String::from_utf8(wait_for(&spool.join("outbox/stats.json"))).unwrap();
    assert!(stats.contains("\"rejected\": 4"), "{stats}");
    assert!(stats.contains("\"accepted\": 0"), "{stats}");

    // A spooled shutdown drains the daemon; the ack is the unit variant.
    spool_file(&spool, "zz-shutdown.json", "\"shutdown\"");
    let ack = wait_for(&spool.join("outbox/zz-shutdown.json"));
    assert_eq!(ack, b"\"shutdown\"\n");
    let summary = handle.join().unwrap();
    assert_eq!(
        (summary.accepted, summary.rejected, summary.completed),
        (0, 4, 0)
    );
}

#[test]
fn oversized_inputs_are_refused_and_the_daemon_keeps_serving() {
    let spool = tempdir("oversized");
    let handle = spawn(config(&spool)).unwrap();
    let over = format!("over the limit of {MAX_INPUT_BYTES} bytes");

    // A request file one byte over the limit is rejected unparsed.
    spool_file(&spool, "big.json", vec![b' '; MAX_INPUT_BYTES + 1]);
    let error = String::from_utf8(wait_for(&spool.join("rejected/big.json.error.json"))).unwrap();
    assert!(error.contains(&over), "{error}");

    // A job naming a netlist one byte over the limit fails with the
    // limit error in its row; the batch is still answered.
    let netlist = spool.join("big.netlist");
    std::fs::write(&netlist, vec![b'#'; MAX_INPUT_BYTES + 1]).unwrap();
    let request = format!(
        r#"{{"jobs": [{{"source": {{"netlist": "{}"}}}}]}}"#,
        netlist.display()
    );
    spool_file(&spool, "netlist.json", request);
    let response = String::from_utf8(wait_for(&spool.join("outbox/netlist.json"))).unwrap();
    assert!(response.contains(r#""status":"failed""#), "{response}");
    assert!(response.contains(&over), "{response}");

    // The daemon still answers the next request.
    spool_file(&spool, "stats.json", "\"stats\"");
    let stats = String::from_utf8(wait_for(&spool.join("outbox/stats.json"))).unwrap();
    assert!(stats.contains("\"rejected\": 1"), "{stats}");
    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!(
        (summary.accepted, summary.rejected, summary.completed),
        (1, 1, 1)
    );
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn clamps_config_edge_cases_and_creates_missing_directories() {
    let root = tempdir("clamp");
    // The spool root itself does not exist yet — spawn creates the whole
    // tree. Zero workers and zero queue capacity clamp to 1, mirroring
    // the farm's `with_workers(0)`.
    let spool = root.join("deep/never/made");
    let handle = spawn(config(&spool).workers(0).queue_capacity(0)).unwrap();
    for dir in ["inbox", "outbox", "rejected", "claimed"] {
        assert!(spool.join(dir).is_dir(), "{dir} auto-created");
    }

    spool_file(
        &spool,
        "one.json",
        r#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#,
    );
    let response = String::from_utf8(wait_for(&spool.join("outbox/one.json"))).unwrap();
    assert!(response.contains(r#""succeeded":1"#), "{response}");

    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!((summary.accepted, summary.completed), (1, 1));
}

#[test]
fn duplicate_inbox_filenames_resolve_last_wins() {
    let spool = tempdir("dup");
    let handle = spawn(config(&spool)).unwrap();

    spool_file(
        &spool,
        "job.json",
        r#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#,
    );
    let first = String::from_utf8(wait_for(&spool.join("outbox/job.json"))).unwrap();
    assert!(first.contains(r#""jobs":1"#), "{first}");

    // The same filename again, now with two jobs: the claimed-file
    // sequence number keeps the in-flight copies distinct, and the
    // second response overwrites the first in the outbox.
    spool_file(
        &spool,
        "job.json",
        r#"{"jobs": [
            {"source": {"library": "Carpool Alert"}},
            {"source": {"generated": {"inner": 6, "seed": 1}}, "options": {"mode": "partition"}}
        ]}"#,
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    let second = loop {
        let text = String::from_utf8(wait_for(&spool.join("outbox/job.json"))).unwrap();
        if text.contains(r#""jobs":2"#) {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "second response never landed: {text}"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(second.contains(r#""succeeded":2"#), "{second}");

    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!((summary.accepted, summary.completed), (2, 2));
}

/// The acceptance storm: 256 seeded corruptions of a valid request, every
/// one answered or rejected — no panics, no lost inputs — and the whole
/// outcome byte-identical on a second run over the same bytes.
#[test]
fn corrupt_spool_storm_accounts_for_every_input() {
    // Cheap base request so the (rare) still-parseable corruptions run
    // in microseconds.
    let base = br#"{"jobs": [{"source": {"generated": {"inner": 4, "seed": 1}}, "options": {"mode": "partition", "verify": false}}]}"#;
    let variants = eblocks_chaos::corrupt::storm(0..256, base);

    let run_storm = |tag: &str| -> (BTreeMap<String, Vec<u8>>, BTreeMap<String, Vec<u8>>) {
        let spool = tempdir(tag);
        let handle = spawn(config(&spool).workers(4)).unwrap();
        for (seed, bytes) in &variants {
            spool_file(&spool, &format!("storm-{seed:03}.json"), bytes);
        }
        // Every input lands in exactly one of outbox/ or rejected/.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let outbox = dir_map(&spool.join("outbox"));
            let rejected: Vec<String> = dir_map(&spool.join("rejected"))
                .into_keys()
                .filter(|name| !name.ends_with(".error.json"))
                .collect();
            if outbox.len() + rejected.len() == variants.len() {
                for (seed, _) in &variants {
                    let name = format!("storm-{seed:03}.json");
                    let answered = outbox.contains_key(&name) || rejected.contains(&name);
                    assert!(answered, "seed {seed} unaccounted for");
                }
                break;
            }
            assert!(
                Instant::now() < deadline,
                "storm stalled: {} answered of {}",
                outbox.len() + rejected.len(),
                variants.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
        let summary = handle.join().unwrap();
        assert_eq!(summary.accepted + summary.rejected, 256, "{summary:?}");
        assert_eq!(summary.completed, summary.accepted, "{summary:?}");
        (
            dir_map(&spool.join("outbox")),
            dir_map(&spool.join("rejected")),
        )
    };

    let (outbox_a, rejected_a) = run_storm("storm-a");
    let (outbox_b, rejected_b) = run_storm("storm-b");
    assert_eq!(outbox_a, outbox_b, "responses replay byte-identically");
    assert_eq!(rejected_a, rejected_b, "rejections replay byte-identically");
}
