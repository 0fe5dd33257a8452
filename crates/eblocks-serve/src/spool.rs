//! The spool front door: claim request files from `inbox/`, answer into
//! `outbox/`, quarantine malformed inputs under `rejected/`.
//!
//! Every filesystem hand-off is a rename: inputs move atomically from
//! `inbox/` to `claimed/` (so two scans never double-process a file),
//! and responses and rejection errors are written to a temp file in the
//! spool directory and renamed into place (so a reader of `outbox/` or
//! `rejected/` never meets a partial file or a temp file).
//!
//! A daemon that stops with a request claimed (killed, or aborted by the
//! request itself) leaves the input in `claimed/`. At start-up, before the
//! first scan, [`sweep_claimed`] moves every such file to
//! `rejected/<name>` with an error saying the daemon stopped while the
//! request was in flight, and counts it as rejected. It never re-queues
//! one: a request that brought the daemon down would bring it down again.
//! The sweep is also why a restarted daemon's claim sequence, which starts
//! again at 0, can never rename a new claim onto an old one: `claimed/` is
//! empty before the first claim.

use crate::server::{self, Refusal, ServerState, Sink, Work};
use eblocks_farm::api::{read_input, BatchRequest, ErrorReply, ServeRequest};
use std::path::Path;

/// One inbox scan. A request the previous scan held (it met a full
/// queue) is pushed first, and while it stays held nothing else is
/// claimed. Then claims and dispatches every ready request file, in name
/// order, until the drain begins or the queue has no room
/// (backpressure: unclaimed files simply wait in `inbox/` for the next
/// scan). Returns the request it holds.
pub(crate) fn scan_once(state: &ServerState, held: Option<Work>) -> Option<Work> {
    if let Some(work) = held.and_then(|work| push(state, work)) {
        return Some(work);
    }
    let inbox = state.config.inbox();
    let Ok(entries) = std::fs::read_dir(&inbox) else {
        return None;
    };
    let mut names: Vec<String> = entries
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_type().is_ok_and(|t| t.is_file()))
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        if state.draining() || !state.queue.has_room() {
            return None;
        }
        // Atomic claim: a rename either wins the file or loses it to a
        // concurrent writer still producing it — either way, move on.
        let claimed = state
            .config
            .claimed()
            .join(format!("{:06}-{name}", state.next_sequence()));
        if std::fs::rename(inbox.join(&name), &claimed).is_err() {
            continue;
        }
        let held = process(state, &name, &claimed);
        if held.is_some() {
            return held;
        }
    }
    None
}

/// Quarantines every file a previous daemon left in `claimed/`, in name
/// order, under its inbox name (the claim's sequence prefix dropped).
pub(crate) fn sweep_claimed(state: &ServerState) {
    let claimed = state.config.claimed();
    let Ok(entries) = std::fs::read_dir(&claimed) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_type().is_ok_and(|t| t.is_file()))
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();
    for claim in names {
        let name = claim
            .split_once('-')
            .filter(|(seq, rest)| {
                !seq.is_empty() && seq.bytes().all(|b| b.is_ascii_digit()) && !rest.is_empty()
            })
            .map_or(claim.as_str(), |(_, rest)| rest);
        state.count_rejected();
        quarantine(
            state,
            name,
            &claimed.join(&claim),
            "the daemon stopped while the request was in flight; it was not re-run",
        );
    }
}

/// Reads, parses and dispatches one claimed request file; returns its
/// work if a full queue turned it away. A file longer than
/// [`MAX_INPUT_BYTES`](eblocks_farm::api::MAX_INPUT_BYTES) is
/// quarantined unparsed.
fn process(state: &ServerState, name: &str, claimed: &Path) -> Option<Work> {
    let request = read_input(claimed)
        .map_err(|e| format!("cannot read request: {e}"))
        .and_then(|bytes| {
            String::from_utf8(bytes).map_err(|_| "request is not valid UTF-8".to_string())
        })
        .and_then(|text| parse_request(&text));
    let request = match request {
        Ok(request) => request,
        Err(error) => {
            state.count_rejected();
            quarantine(state, name, claimed, &error);
            return None;
        }
    };
    let sink = Sink::Spool {
        name: name.to_string(),
        claimed: claimed.to_path_buf(),
    };
    server::dispatch(state, request, sink).and_then(|work| push(state, work))
}

/// Admits claimed work without blocking: the file is already claimed,
/// so work a full queue turns away comes back for the pump to hold and
/// push again on its next scan. Once the drain has closed the queue, the
/// input is quarantined instead — every claimed file gets a verdict.
fn push(state: &ServerState, work: Work) -> Option<Work> {
    match state.admit(work)? {
        (Refusal::Full, work) => Some(work),
        (refusal, work) => {
            work.sink.refuse(state, refusal);
            None
        }
    }
}

/// Parses a spool request file: a [`ServeRequest`] (`{"batch": …}`,
/// `{"synth": …}`, `"stats"`, `"shutdown"`), or — the common case for
/// hand-written files — a bare [`BatchRequest`] (`{"jobs": […]}`).
fn parse_request(text: &str) -> Result<ServeRequest, String> {
    let envelope_error = match serde::json::from_str::<ServeRequest>(text) {
        Ok(request) => return Ok(request),
        Err(e) => e,
    };
    let bare_error = match serde::json::from_str::<BatchRequest>(text) {
        Ok(request) => return Ok(ServeRequest::Batch(request)),
        Err(e) => e,
    };
    // Two parses failed; report the error for the shape the file most
    // resembles. A top-level `jobs` key means a bare batch request.
    let looks_bare = serde::json::parse(text)
        .map(|value| value.get("jobs").is_some())
        .unwrap_or(false);
    if looks_bare {
        Err(format!("invalid batch request: {bare_error}"))
    } else {
        Err(format!("invalid request: {envelope_error}"))
    }
}

/// Moves a claimed input to `rejected/<name>` and publishes the
/// structured error next to it as `rejected/<name>.error.json`.
pub(crate) fn quarantine(state: &ServerState, name: &str, claimed: &Path, error: &str) {
    let rejected = state.config.rejected();
    let _ = std::fs::rename(claimed, rejected.join(name));
    let reply = ErrorReply {
        error: error.to_string(),
    };
    // If `rejected/` is unwritable too, the rename above failed as well
    // and the input stays in `claimed/`.
    let _ = publish(
        state,
        &rejected,
        &format!("{name}.error.json"),
        &format!("{}\n", serde::json::to_string(&reply)),
    );
}

/// Writes `text` to a temp file in the spool directory and renames it to
/// `dir/<name>`, so a reader of `dir` never meets the file half written,
/// nor the temp file at all. Duplicate names resolve last-wins, matching
/// what a caller spooling the same name twice would expect.
///
/// # Errors
///
/// The failed write or rename; the temp file is removed first.
pub(crate) fn publish(
    state: &ServerState,
    dir: &Path,
    name: &str,
    text: &str,
) -> std::io::Result<()> {
    let tmp = state
        .config
        .spool
        .join(format!(".tmp-{:06}-{name}", state.next_sequence()));
    let published = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, dir.join(name)));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{worker_loop, Payload};
    use crate::ServeConfig;
    use eblocks_farm::api::{DesignSource, SynthRequest};
    use eblocks_farm::{run_batch, FarmConfig, JsonOptions};
    use std::path::PathBuf;

    const REQUEST: &str = r#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#;

    /// A spool tree in the system temp dir, removed when the test ends,
    /// pass or panic.
    struct TempSpool(PathBuf);

    impl TempSpool {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("eblocks-serve-held-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            for sub in ["inbox", "outbox", "rejected", "claimed"] {
                std::fs::create_dir_all(dir.join(sub)).unwrap();
            }
            Self(dir)
        }
    }

    impl Drop for TempSpool {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A daemon's state with one queue slot and no threads, that slot
    /// taken as if a socket push had won it after the pump's room check,
    /// plus `req.json` claimed from the inbox.
    fn full_queue_and_a_claim(spool: &Path) -> (ServerState, PathBuf) {
        let state = ServerState::new(ServeConfig::new(spool).queue_capacity(1).clamped());
        let other = Work {
            payload: Payload::Synth(SynthRequest::new(DesignSource::Library(
                "Carpool Alert".into(),
            ))),
            sink: Sink::Spool {
                name: "other.json".into(),
                claimed: spool.join("claimed/other.json"),
            },
        };
        assert!(state.admit(other).is_none());
        let claimed = spool.join("claimed/000000-req.json");
        std::fs::write(&claimed, REQUEST).unwrap();
        (state, claimed)
    }

    #[test]
    fn a_request_held_on_a_full_queue_is_admitted_once_a_slot_frees() {
        let spool = TempSpool::new("admit");
        let (state, claimed) = full_queue_and_a_claim(&spool.0);
        // No worker runs, so a push that waited for room would never
        // return.
        let held = process(&state, "req.json", &claimed);
        assert!(held.is_some(), "the full queue hands the request back");
        assert!(claimed.exists(), "a held request stays claimed");

        // While it is held, a scan claims nothing else.
        std::fs::write(spool.0.join("inbox/next.json"), REQUEST).unwrap();
        let held = scan_once(&state, held);
        assert!(held.is_some());
        assert!(spool.0.join("inbox/next.json").exists());

        // A worker takes the other request; the next scan admits the held
        // one, and the queue is full again, so `next.json` still waits.
        assert!(state.queue.pop().is_some());
        assert!(scan_once(&state, held).is_none());
        assert!(spool.0.join("inbox/next.json").exists());
        assert_eq!((state.stats().accepted, state.stats().rejected), (2, 0));

        // Its answer is the one-shot batch report, and the claim is gone.
        state.begin_drain();
        worker_loop(&state);
        let request: BatchRequest = serde::json::from_str(REQUEST).unwrap();
        let report = run_batch(&request, &FarmConfig::default());
        assert_eq!(
            std::fs::read_to_string(spool.0.join("outbox/req.json")).unwrap(),
            format!("{}\n", report.to_json(&JsonOptions::default()))
        );
        assert!(!claimed.exists());
    }

    #[test]
    fn a_request_held_when_the_drain_begins_is_quarantined() {
        let spool = TempSpool::new("drain");
        let (state, claimed) = full_queue_and_a_claim(&spool.0);
        let held = process(&state, "req.json", &claimed);
        assert!(held.is_some());

        state.begin_drain();
        assert!(scan_once(&state, held).is_none());
        assert_eq!(
            std::fs::read_to_string(spool.0.join("rejected/req.json.error.json")).unwrap(),
            "{\"error\":\"server is draining\"}\n"
        );
        assert_eq!(
            std::fs::read_to_string(spool.0.join("rejected/req.json")).unwrap(),
            REQUEST
        );
        assert!(!claimed.exists());
        assert_eq!((state.stats().accepted, state.stats().rejected), (1, 1));
    }
}
