//! Integration tests for the Unix-socket front door: the line-delimited
//! protocol, streamed progress, explicit backpressure, and the seeded
//! client storm.
#![cfg(unix)]

mod common;

use common::TempDir;
use eblocks_farm::api::{
    Admission, BatchRequest, BatchResponse, JobOutcome, ReplyEnvelope, ServeReply, MAX_INPUT_BYTES,
};
use eblocks_farm::{run_batch, DenyLevel, FarmConfig, JsonOptions, LintConfig};
use eblocks_serve::{spawn, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> TempDir {
    TempDir::new(&format!("eblocks-serve-sock-{tag}"))
}

/// Connects to `path`, retrying while the daemon finishes binding.
fn connect(path: &PathBuf) -> UnixStream {
    for _ in 0..500 {
        if let Ok(stream) = UnixStream::connect(path) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", path.display());
}

fn read_reply(reader: &mut BufReader<UnixStream>) -> ReplyEnvelope {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde::json::from_str(&line).unwrap_or_else(|e| panic!("bad reply line {line:?}: {e}"))
}

// One physical line: the protocol frames on newlines.
const BATCH_REQUEST: &str = r#"{"jobs": [{"source": {"library": "Carpool Alert"}}, {"name": "g8", "source": {"generated": {"inner": 8, "seed": 3}}, "options": {"mode": "partition"}}]}"#;

#[test]
fn socket_protocol_streams_progress_and_matches_the_one_shot_report() {
    let spool = tempdir("protocol");
    let socket = spool.join("daemon.sock");
    let handle = spawn(
        ServeConfig::new(&spool)
            .socket(&socket)
            .poll_interval(Duration::from_millis(2)),
    )
    .unwrap();

    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let line = format!("{{\"id\": \"req-1\", \"request\": {{\"batch\": {BATCH_REQUEST}}}}}\n");
    stream.write_all(line.as_bytes()).unwrap();

    // Reply order per request: admission verdict first, then streamed
    // progress (started+finished per job), then exactly one final reply.
    let admission = read_reply(&mut reader);
    assert_eq!(admission.id.as_deref(), Some("req-1"));
    let ServeReply::Admission(verdict) = &admission.reply else {
        panic!("expected admission first, got {admission:?}");
    };
    assert_eq!(verdict.status, Admission::Accepted);

    let mut started = 0;
    let mut finished = 0;
    let response = loop {
        let reply = read_reply(&mut reader);
        assert_eq!(reply.id.as_deref(), Some("req-1"));
        match reply.reply {
            ServeReply::Progress(event) => match event.event {
                eblocks_farm::api::ProgressKind::Started => started += 1,
                eblocks_farm::api::ProgressKind::Finished => finished += 1,
            },
            ServeReply::Batch(response) => break response,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!((started, finished), (2, 2), "one started+finished per job");

    // The embedded BatchResponse is byte-identical to the one-shot path.
    let request: BatchRequest = serde::json::from_str(BATCH_REQUEST).unwrap();
    let report = run_batch(&request, &FarmConfig::default());
    let expected = BatchResponse::from_report(&report, &JsonOptions::default());
    assert_eq!(
        serde::json::to_string(&response),
        serde::json::to_string(&expected)
    );

    // A bare control request (no envelope) gets an auto-assigned id.
    stream.write_all(b"\"stats\"\n").unwrap();
    let stats = read_reply(&mut reader);
    assert_eq!(stats.id.as_deref(), Some("r0"));
    let ServeReply::Stats(stats) = stats.reply else {
        panic!("expected stats");
    };
    assert_eq!((stats.accepted, stats.completed), (1, 1));
    assert!(!stats.stages.is_empty(), "stage aggregates accumulated");

    // Malformed lines are answered, not fatal: the connection lives on.
    stream.write_all(b"{{{ not json\n").unwrap();
    let error = read_reply(&mut reader);
    assert!(matches!(error.reply, ServeReply::Error(_)), "{error:?}");

    stream
        .write_all(b"{\"id\": \"bye\", \"request\": \"shutdown\"}\n")
        .unwrap();
    let ack = read_reply(&mut reader);
    assert_eq!(ack.id.as_deref(), Some("bye"));
    assert!(matches!(ack.reply, ServeReply::Shutdown));

    let summary = handle.join().unwrap();
    assert_eq!(
        (summary.accepted, summary.rejected, summary.completed),
        (1, 0, 1)
    );
}

#[test]
fn zero_deadline_times_out_synth_requests_on_both_doors() {
    let spool = tempdir("deadline");
    let socket = spool.join("daemon.sock");
    let mut config = ServeConfig::new(&spool)
        .socket(&socket)
        .poll_interval(Duration::from_millis(2));
    config.job_timeout = Some(Duration::ZERO);
    let handle = spawn(config).unwrap();
    let timed_out = "job timed out before partition (limit 0ns)";
    let synth = r#"{"synth": {"source": {"library": "Carpool Alert"}}}"#;

    // The socket door: accepted, then an error reply naming the deadline.
    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let line = format!("{{\"id\": \"synth-1\", \"request\": {synth}}}\n");
    stream.write_all(line.as_bytes()).unwrap();
    let admission = read_reply(&mut reader);
    assert!(
        matches!(&admission.reply, ServeReply::Admission(v) if v.status == Admission::Accepted),
        "{admission:?}"
    );
    let reply = read_reply(&mut reader);
    assert_eq!(reply.id.as_deref(), Some("synth-1"));
    assert_eq!(reply.reply, ServeReply::Error(timed_out.to_string()));

    // The spool door answers the same request with the same error.
    let staging = spool.join(".staging-synth");
    std::fs::write(&staging, synth).unwrap();
    std::fs::rename(&staging, spool.join("inbox/synth.json")).unwrap();
    let outbox = spool.join("outbox/synth.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    let answer = loop {
        if let Ok(text) = std::fs::read_to_string(&outbox) {
            break text;
        }
        assert!(Instant::now() < deadline, "no answer in the outbox");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(answer, format!("{{\"error\":\"{timed_out}\"}}\n"));

    // A batch on the same daemon still reports timed-out rows.
    let line = format!("{{\"id\": \"batch-1\", \"request\": {{\"batch\": {BATCH_REQUEST}}}}}\n");
    stream.write_all(line.as_bytes()).unwrap();
    let response = loop {
        match read_reply(&mut reader).reply {
            ServeReply::Batch(response) => break response,
            ServeReply::Admission(_) | ServeReply::Progress(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!(response.batch.failed, 2);
    for row in &response.results {
        assert_eq!(row.status, JobOutcome::TimedOut, "{row:?}");
        assert_eq!(row.error.as_deref(), Some(timed_out));
    }

    stream.write_all(b"\"shutdown\"\n").unwrap();
    let summary = handle.join().unwrap();
    assert_eq!((summary.accepted, summary.completed), (3, 3));
}

#[test]
fn lint_gate_refuses_on_both_doors_and_counts_each_refusal() {
    let spool = tempdir("lint-gate");
    let socket = spool.join("daemon.sock");
    let mut config = ServeConfig::new(&spool)
        .socket(&socket)
        .poll_interval(Duration::from_millis(2));
    config.admission_lint = Some(LintConfig {
        deny: DenyLevel::Warnings,
    });
    let handle = spawn(config).unwrap();
    // The cross-block fixture lints to warnings only, so the gate refuses
    // it only because the deny level is `warnings`.
    let netlist = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/lint-crossblock.netlist"
    );
    let synth = format!(r#"{{"synth": {{"source": {{"netlist": "{netlist}"}}}}}}"#);
    let detail = "job `lint-crossblock`: 0 error(s), 7 warning(s)";

    // The socket door: a `lint-rejected` verdict naming the job.
    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let line = format!("{{\"id\": \"lint-1\", \"request\": {synth}}}\n");
    stream.write_all(line.as_bytes()).unwrap();
    let verdict = read_reply(&mut reader);
    assert_eq!(verdict.id.as_deref(), Some("lint-1"));
    let ServeReply::Admission(verdict) = verdict.reply else {
        panic!("expected an admission verdict, got {verdict:?}");
    };
    assert_eq!(verdict.status, Admission::LintRejected);
    assert_eq!(verdict.detail.as_deref(), Some(detail));

    // The spool door quarantines the same request with the same reason.
    let staging = spool.join(".staging-lint");
    std::fs::write(&staging, &synth).unwrap();
    std::fs::rename(&staging, spool.join("inbox/lint.json")).unwrap();
    let error = spool.join("rejected/lint.json.error.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    let error = loop {
        if let Ok(text) = std::fs::read_to_string(&error) {
            break text;
        }
        assert!(Instant::now() < deadline, "the spool never refused it");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(
        error,
        format!("{{\"error\":\"lint-rejected: {detail}\"}}\n")
    );
    assert_eq!(
        std::fs::read_to_string(spool.join("rejected/lint.json")).unwrap(),
        synth,
        "the input is kept next to its error"
    );

    // A clean library design passes the same gate and is answered.
    let clean = r#"{"synth": {"source": {"library": "Ignition Illuminator"}}}"#;
    let line = format!("{{\"id\": \"clean\", \"request\": {clean}}}\n");
    stream.write_all(line.as_bytes()).unwrap();
    let verdict = read_reply(&mut reader);
    assert!(
        matches!(&verdict.reply, ServeReply::Admission(v) if v.status == Admission::Accepted),
        "{verdict:?}"
    );
    let answer = read_reply(&mut reader);
    assert_eq!(answer.id.as_deref(), Some("clean"));
    assert!(matches!(answer.reply, ServeReply::Synth(_)), "{answer:?}");

    stream.write_all(b"\"shutdown\"\n").unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(
        (summary.accepted, summary.rejected, summary.completed),
        (1, 2, 1)
    );
}

#[test]
fn full_queue_is_an_explicit_verdict_and_every_accepted_request_is_answered() {
    let spool = tempdir("backpressure");
    let socket = spool.join("daemon.sock");
    // One worker, one queue slot: a burst of requests must overflow, and
    // the overflow must be an explicit queue-full verdict, not a hang.
    let handle = spawn(
        ServeConfig::new(&spool)
            .socket(&socket)
            .workers(1)
            .queue_capacity(1)
            .poll_interval(Duration::from_millis(2)),
    )
    .unwrap();

    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    const BURST: usize = 12;
    for i in 0..BURST {
        let line =
            format!("{{\"id\": \"burst-{i}\", \"request\": {{\"batch\": {BATCH_REQUEST}}}}}\n");
        stream.write_all(line.as_bytes()).unwrap();
    }

    let mut accepted = 0usize;
    let mut queue_full = 0usize;
    let mut final_replies = 0usize;
    // Every request gets an admission verdict; every accepted one also
    // gets a final reply (progress events stream in between).
    while final_replies < BURST - queue_full || accepted + queue_full < BURST {
        let reply = read_reply(&mut reader);
        match reply.reply {
            ServeReply::Admission(verdict) => match verdict.status {
                Admission::Accepted => accepted += 1,
                Admission::QueueFull => {
                    queue_full += 1;
                    assert!(
                        verdict.detail.as_deref() == Some("queue at capacity 1"),
                        "{verdict:?}"
                    );
                }
                Admission::LintRejected => panic!("no lint gate configured"),
            },
            ServeReply::Batch(_) => final_replies += 1,
            ServeReply::Progress(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(accepted + queue_full, BURST);
    assert!(accepted >= 1, "the first request is always admitted");
    assert!(
        queue_full >= 1,
        "a 12-request burst into a 1-slot queue must overflow"
    );

    stream.write_all(b"\"shutdown\"\n").unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.accepted as usize, accepted);
    assert_eq!(summary.rejected as usize, queue_full);
    assert_eq!(summary.completed as usize, accepted);
}

#[test]
fn overlong_line_gets_one_error_reply_and_a_closed_connection() {
    let spool = tempdir("overlong");
    let socket = spool.join("daemon.sock");
    let handle = spawn(
        ServeConfig::new(&spool)
            .socket(&socket)
            .poll_interval(Duration::from_millis(2)),
    )
    .unwrap();

    // Twice the cap with no newline. The daemon hangs up part way, so the
    // sender stops at its first failed write.
    let mut flooded = connect(&socket);
    // A daemon that kept buffering would never answer: fail, don't hang.
    flooded
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut sender = flooded.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 << 10];
        for _ in 0..2 * MAX_INPUT_BYTES / chunk.len() {
            if sender.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    // Everything the daemon sent before closing: the read ends at EOF, or
    // at the reset a close with unread input causes, after the data.
    let mut received = Vec::new();
    let _ = flooded.read_to_end(&mut received);
    flood.join().unwrap();
    let text = String::from_utf8(received).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one reply: {text:?}");
    let reply: ReplyEnvelope = serde::json::from_str(lines[0]).unwrap();
    assert!(
        matches!(&reply.reply, ServeReply::Error(message) if message.contains("longer than")),
        "{reply:?}"
    );

    // The daemon still serves a new connection.
    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"\"stats\"\n").unwrap();
    let stats = read_reply(&mut reader);
    assert!(matches!(stats.reply, ServeReply::Stats(_)), "{stats:?}");
    stream.write_all(b"\"shutdown\"\n").unwrap();
    handle.join().unwrap();
}

#[test]
fn seeded_client_storms_never_kill_the_daemon() {
    let spool = tempdir("client-storm");
    let socket = spool.join("daemon.sock");
    let handle = spawn(
        ServeConfig::new(&spool)
            .socket(&socket)
            .workers(2)
            .poll_interval(Duration::from_millis(2)),
    )
    .unwrap();

    // Corrupted request lines from pinned seeds: every line gets an
    // answer (an error reply, or a verdict when it still parses), and
    // the daemon survives all of them.
    let base = br#"{"id": "x", "request": {"batch": {"jobs": [{"source": {"generated": {"inner": 4, "seed": 1}}, "options": {"mode": "partition"}}]}}}"#;
    for (seed, mut bytes) in eblocks_chaos::corrupt::storm(0..64, base) {
        // Keep the line framing intact: the protocol splits on newlines,
        // so an injected newline would just read as two lines.
        bytes.retain(|&b| b != b'\n');
        let mut stream = connect(&socket);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(&bytes).unwrap();
        stream.write_all(b"\n").unwrap();
        // Whatever the corruption produced, the first reply line must
        // arrive and parse as a ReplyEnvelope.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            serde::json::from_str::<ReplyEnvelope>(&line).is_ok(),
            "seed {seed}: unparseable reply {line:?}"
        );
    }

    // The daemon is still fully functional after the storm.
    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"\"stats\"\n").unwrap();
    let stats = read_reply(&mut reader);
    assert!(matches!(stats.reply, ServeReply::Stats(_)), "{stats:?}");

    stream.write_all(b"\"shutdown\"\n").unwrap();
    handle.join().unwrap();
}
