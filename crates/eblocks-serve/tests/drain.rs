//! Graceful-drain determinism: a pinned-seed storm of valid and
//! corrupted requests followed immediately by a shutdown must produce
//! the same outbox/rejected file set — byte for byte — no matter how
//! many daemon workers race over the queue. A hardened drain cancels the
//! jobs a running batch has not claimed yet, and still answers it.

mod common;

use common::TempDir;
use eblocks_serve::{spawn, ServeConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

fn tempdir(tag: &str) -> TempDir {
    TempDir::new(&format!("eblocks-serve-drain-{tag}"))
}

fn dir_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name().into_string().unwrap();
        map.insert(name, std::fs::read(entry.path()).unwrap());
    }
    map
}

#[test]
fn drained_spool_is_byte_identical_across_worker_counts() {
    let valid = br#"{"jobs": [
        {"source": {"library": "Carpool Alert"}},
        {"source": {"generated": {"inner": 10, "seed": 7}}, "options": {"mode": "partition"}}
    ]}"#;
    // Pinned corruption seeds: deterministic malformed variants of the
    // same request, rejected identically on every run.
    let corrupted = eblocks_chaos::corrupt::storm(40..44, valid);

    let run_drain = |workers: usize| {
        let spool = tempdir(&format!("w{workers}"));
        let inbox = spool.join("inbox");
        std::fs::create_dir_all(&inbox).unwrap();
        // Everything is spooled before the daemon starts, shutdown file
        // sorted last: one scan admits the storm, then begins the drain
        // while batches are still mid-flight. The drain must still
        // answer every admitted request.
        for i in 0..4 {
            std::fs::write(inbox.join(format!("req-{i}.json")), valid).unwrap();
        }
        for (seed, bytes) in &corrupted {
            std::fs::write(inbox.join(format!("storm-{seed}.json")), bytes).unwrap();
        }
        std::fs::write(inbox.join("zz-shutdown.json"), "\"shutdown\"").unwrap();

        let handle = spawn(
            ServeConfig::new(&spool)
                .workers(workers)
                .poll_interval(Duration::from_millis(2)),
        )
        .unwrap();
        let summary = handle.join().unwrap();
        // The 4 valid requests are admitted; each corrupted variant is
        // either rejected or (if it still parses) admitted — but always
        // the same way, which the cross-worker comparison below pins.
        assert!(summary.accepted >= 4, "workers={workers}: {summary:?}");
        assert_eq!(summary.accepted + summary.rejected, 8, "{summary:?}");
        assert_eq!(
            summary.completed, summary.accepted,
            "drain answers the backlog: {summary:?}"
        );
        (
            dir_map(&spool.join("outbox")),
            dir_map(&spool.join("rejected")),
        )
    };

    let baseline = run_drain(1);
    for workers in [2, 8] {
        let got = run_drain(workers);
        assert_eq!(got.0, baseline.0, "outbox differs at {workers} workers");
        assert_eq!(got.1, baseline.1, "rejected differs at {workers} workers");
    }
    assert!(baseline.0.len() >= 5, "4 responses + 1 shutdown ack");
}

/// Connects to `path`, retrying while the daemon finishes binding.
#[cfg(unix)]
fn connect(path: &Path) -> std::os::unix::net::UnixStream {
    for _ in 0..500 {
        if let Ok(stream) = std::os::unix::net::UnixStream::connect(path) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", path.display());
}

#[cfg(unix)]
#[test]
fn hardened_drain_cancels_unclaimed_jobs_and_answers_the_batch() {
    use eblocks_farm::api::{Admission, JobOutcome, ReplyEnvelope, ServeReply};
    use std::io::{BufRead, BufReader, Write};

    let spool = tempdir("hardened");
    let socket = spool.join("daemon.sock");
    let mut config = ServeConfig::new(&spool)
        .socket(&socket)
        .poll_interval(Duration::from_millis(2));
    // One farm worker claims the batch's jobs one at a time, in order.
    config.farm_workers = Some(1);
    let handle = spawn(config).unwrap();

    // Far more jobs than run between the first progress event and the
    // stop flag, so the drain finds some never claimed.
    let names: Vec<String> = (0..200).map(|k| format!("j{k:03}")).collect();
    let jobs: Vec<String> = names
        .iter()
        .map(|name| format!(r#"{{"name": "{name}", "source": {{"library": "Carpool Alert"}}}}"#))
        .collect();
    let line = format!(
        "{{\"id\": \"hard\", \"request\": {{\"batch\": {{\"jobs\": [{}]}}}}}}\n",
        jobs.join(", ")
    );
    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(line.as_bytes()).unwrap();
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde::json::from_str::<ReplyEnvelope>(&line)
            .unwrap_or_else(|e| panic!("bad reply line {line:?}: {e}"))
            .reply
    };

    let ServeReply::Admission(verdict) = next() else {
        panic!("expected the admission verdict first");
    };
    assert_eq!(verdict.status, Admission::Accepted);
    let mut hardened = false;
    let response = loop {
        match next() {
            ServeReply::Progress(_) if !hardened => {
                handle.shutdown_now();
                hardened = true;
            }
            ServeReply::Progress(_) => {}
            ServeReply::Batch(response) => break response,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert!(hardened, "a progress event precedes the batch reply");

    // One row per job in submission order: the claimed prefix ran, the
    // rest were cancelled.
    let rows: Vec<&str> = response.results.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(rows, names);
    let ran = response
        .results
        .iter()
        .take_while(|r| r.status == JobOutcome::Ok)
        .count();
    assert!(ran >= 1, "job 0 was claimed before its progress event");
    let cancelled = &response.results[ran..];
    assert!(
        !cancelled.is_empty(),
        "every job ran: the stop flag was never read"
    );
    for row in cancelled {
        assert_eq!(row.status, JobOutcome::Failed, "{}", row.name);
        assert_eq!(
            row.error.as_deref(),
            Some("cancelled: batch drain requested")
        );
    }

    let summary = handle.join().expect("no daemon thread panicked");
    assert_eq!(
        (summary.accepted, summary.rejected, summary.completed),
        (1, 0, 1)
    );
}
