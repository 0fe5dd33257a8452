//! End-to-end service-mode tests against the real `eblocks-cli serve`
//! binary: spool a request and a corrupt file into a running daemon,
//! check the outbox against the committed golden, and verify the three
//! front doors (spool, socket, one-shot `batch`) answer the same
//! request byte-identically.

mod common;

use common::TempDir;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn tempdir(tag: &str) -> TempDir {
    TempDir::new(&format!("eblocks-cli-serve-{tag}"))
}

/// Atomic inbox drop: write elsewhere, rename into place, so the
/// daemon's scanner never claims a half-written file.
fn spool_file(spool: &Path, name: &str, bytes: &[u8]) {
    let staging = spool.join(format!(".staging-{name}"));
    std::fs::write(&staging, bytes).unwrap();
    std::fs::rename(&staging, spool.join("inbox").join(name)).unwrap();
}

fn wait_for(path: &Path) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        if let Ok(bytes) = std::fs::read(path) {
            return bytes;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {}", path.display());
}

/// Starts `eblocks-cli serve` on a fresh spool and waits for the spool
/// tree to exist (the daemon creates it).
fn start_daemon(spool: &Path, extra: &[&str]) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .arg("serve")
        .arg(spool)
        .args(["--poll-ms", "5"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn eblocks-cli serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !spool.join("inbox").is_dir() {
        assert!(Instant::now() < deadline, "daemon never created the spool");
        std::thread::sleep(Duration::from_millis(5));
    }
    child
}

#[test]
fn daemon_answers_the_golden_request_and_quarantines_garbage() {
    let spool = tempdir("golden");
    let daemon = start_daemon(&spool, &["--jobs", "2"]);

    // The checked-in batch request goes through the spool untouched: the
    // daemon accepts a bare `BatchRequest` file as-is.
    let request = std::fs::read(golden("batch-request.json")).unwrap();
    spool_file(&spool, "request.json", &request);
    // A deliberately corrupt sibling must be quarantined, not crash the
    // daemon or block the valid request.
    spool_file(&spool, "broken.json", b"{\"jobs\": [ oops");

    let response = wait_for(&spool.join("outbox/request.json"));
    let expected = std::fs::read(golden("serve-response.json")).unwrap();
    assert!(
        response == expected,
        "spool response drifted from tests/golden/serve-response.json\ngot: {}",
        String::from_utf8_lossy(&response)
    );
    // The serve golden and the one-shot batch golden are the same bytes
    // by construction: one daemon, three front doors, one report format.
    assert_eq!(
        expected,
        std::fs::read(golden("batch-report.json")).unwrap()
    );

    let quarantined = wait_for(&spool.join("rejected/broken.json"));
    assert_eq!(quarantined, b"{\"jobs\": [ oops");
    let error =
        String::from_utf8(wait_for(&spool.join("rejected/broken.json.error.json"))).unwrap();
    assert!(error.starts_with("{\"error\":\"invalid"), "{error}");

    // A spooled shutdown drains the daemon; exit must be clean.
    spool_file(&spool, "zz-shutdown.json", b"\"shutdown\"");
    let output = daemon.wait_with_output().expect("daemon exit");
    assert!(output.status.success(), "daemon exited {:?}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("1 accepted, 1 rejected, 1 completed"),
        "{stdout}"
    );
}

#[cfg(unix)]
#[test]
fn socket_and_spool_front_doors_answer_identically() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let spool = tempdir("identical");
    let socket = spool.join("daemon.sock");
    let mut daemon = start_daemon(&spool, &["--socket", socket.to_str().unwrap()]);

    let request = std::fs::read_to_string(golden("batch-request.json")).unwrap();

    // Front door 1: the spool.
    spool_file(&spool, "request.json", request.as_bytes());
    let spool_response = wait_for(&spool.join("outbox/request.json"));

    // Front door 2: the socket. The final `batch` reply embeds the same
    // `BatchResponse` JSON the spool file holds.
    let deadline = Instant::now() + Duration::from_secs(60);
    let stream = loop {
        if let Ok(stream) = UnixStream::connect(&socket) {
            break stream;
        }
        assert!(Instant::now() < deadline, "daemon never bound the socket");
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let line = format!(
        "{{\"id\": \"x\", \"request\": {{\"batch\": {}}}}}\n",
        request.replace('\n', " ")
    );
    writer.write_all(line.as_bytes()).unwrap();
    let socket_response = loop {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        // The final reply wraps the response as {"id":"x","reply":{"batch":<response>}}.
        if let Some(inner) = reply
            .trim_end()
            .strip_prefix(r#"{"id":"x","reply":{"batch":"#)
            .and_then(|rest| rest.strip_suffix("}}"))
        {
            break format!("{inner}\n");
        }
        assert!(!reply.is_empty(), "socket closed before the final reply");
    };

    // Front door 3: the one-shot CLI path.
    let oneshot = Command::new(env!("CARGO_BIN_EXE_eblocks-cli"))
        .args([
            "batch",
            golden("batch-request.json").to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(oneshot.status.success());

    assert_eq!(
        String::from_utf8_lossy(&spool_response),
        socket_response,
        "spool and socket responses must be byte-identical"
    );
    assert_eq!(
        spool_response, oneshot.stdout,
        "daemon and one-shot responses must be byte-identical"
    );

    writer.write_all(b"\"shutdown\"\n").unwrap();
    let status = daemon.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status:?}");
}
