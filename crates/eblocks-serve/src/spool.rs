//! The spool front door: claim request files from `inbox/`, answer into
//! `outbox/`, quarantine malformed inputs under `rejected/`.
//!
//! Every filesystem hand-off is a rename: inputs move atomically from
//! `inbox/` to `claimed/` (so two scans never double-process a file),
//! and responses and rejection errors are written to a temp file in the
//! spool directory and renamed into place (so a reader of `outbox/` or
//! `rejected/` never meets a partial file or a temp file).

use crate::server::{Payload, ServerState, Sink, Work};
use eblocks_farm::api::{
    read_input, BatchRequest, ErrorReply, ServeReply, ServeRequest, ServeStats,
};
use std::path::Path;
use std::sync::Arc;

/// One inbox scan: claims and dispatches every ready request file, in
/// name order. Stops early when the drain begins or the queue has no
/// room (backpressure: unclaimed files simply wait in `inbox/` for the
/// next scan).
pub(crate) fn scan_once(state: &Arc<ServerState>) {
    let inbox = state.config.inbox();
    let Ok(entries) = std::fs::read_dir(&inbox) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_type().is_ok_and(|t| t.is_file()))
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        if state.draining() || !state.queue.has_room() {
            return;
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
        process(state, &name, &claimed);
    }
}

/// Parses and dispatches one claimed request file; one longer than
/// [`MAX_INPUT_BYTES`](eblocks_farm::api::MAX_INPUT_BYTES) is rejected
/// unparsed.
fn process(state: &Arc<ServerState>, name: &str, claimed: &Path) {
    let bytes = match read_input(claimed) {
        Ok(bytes) => bytes,
        Err(e) => {
            reject(state, name, claimed, &format!("cannot read request: {e}"));
            return;
        }
    };
    let text = match String::from_utf8(bytes) {
        Ok(text) => text,
        Err(_) => {
            reject(state, name, claimed, "request is not valid UTF-8");
            return;
        }
    };
    let request = match parse_request(&text) {
        Ok(request) => request,
        Err(error) => {
            reject(state, name, claimed, &error);
            return;
        }
    };
    match request {
        ServeRequest::Stats => {
            let stats = state.stats();
            write_response(state, name, &format!("{}\n", stats_json(&stats)));
            let _ = std::fs::remove_file(claimed);
        }
        ServeRequest::Shutdown => {
            // Acknowledge, then drain: the ack is the last admission
            // this daemon makes.
            write_response(
                state,
                name,
                &format!("{}\n", serde::json::to_string(&ServeReply::Shutdown)),
            );
            let _ = std::fs::remove_file(claimed);
            state.begin_drain();
        }
        ServeRequest::Batch(request) => {
            admit(state, name, claimed, Payload::Batch(request));
        }
        ServeRequest::Synth(request) => {
            admit(state, name, claimed, Payload::Synth(request));
        }
    }
}

/// Admits a payload request from the spool: lint gate, then a blocking
/// push (the file is already claimed; backpressure happens before the
/// claim, so blocking here is only a momentary race with socket
/// clients).
fn admit(state: &Arc<ServerState>, name: &str, claimed: &Path, payload: Payload) {
    if let Some(detail) = state.lint_reject_detail(&payload) {
        reject(state, name, claimed, &format!("lint-rejected: {detail}"));
        return;
    }
    let work = Work {
        payload,
        sink: Sink::Spool {
            name: name.to_string(),
            claimed: claimed.to_path_buf(),
        },
    };
    match state.queue.push_wait(work) {
        Ok(()) => state.count_accepted(),
        Err(_work) => {
            // Closed while waiting: the daemon is draining. Still
            // answer the input — every claimed file gets a verdict.
            reject(state, name, claimed, "server is draining");
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
pub(crate) fn reject(state: &Arc<ServerState>, name: &str, claimed: &Path, error: &str) {
    let rejected = state.config.rejected();
    let _ = std::fs::rename(claimed, rejected.join(name));
    let reply = ErrorReply {
        error: error.to_string(),
    };
    publish(
        state,
        &rejected,
        &format!("{name}.error.json"),
        &format!("{}\n", serde::json::to_string(&reply)),
    );
    state.count_rejected();
}

/// Publishes `outbox/<name>`. Duplicate input filenames resolve
/// last-wins, matching what a caller spooling the same name twice would
/// expect.
pub(crate) fn write_response(state: &Arc<ServerState>, name: &str, text: &str) {
    publish(state, &state.config.outbox(), name, text);
}

/// Writes `text` to a temp file in the spool directory and renames it to
/// `dir/<name>`, so a reader of `dir` never meets the file half written,
/// nor the temp file at all.
fn publish(state: &Arc<ServerState>, dir: &Path, name: &str, text: &str) {
    let tmp = state
        .config
        .spool
        .join(format!(".tmp-{:06}-{name}", state.next_sequence()));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join(name));
    }
}

/// Writes an [`ErrorReply`] response for `name` (a request that failed
/// outside the farm: synth errors, internal panics).
pub(crate) fn write_error_response(state: &Arc<ServerState>, name: &str, error: &str) {
    let reply = ErrorReply {
        error: error.to_string(),
    };
    write_response(
        state,
        name,
        &format!("{}\n", serde::json::to_string(&reply)),
    );
}

/// The stats response body: the bare [`ServeStats`] object,
/// pretty-printed like the other human-facing spool responses.
fn stats_json(stats: &ServeStats) -> String {
    serde::json::to_string_pretty(stats)
}
