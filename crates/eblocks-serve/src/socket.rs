//! The socket front door: line-delimited JSON over a Unix-domain
//! socket. One [`RequestEnvelope`] per line in, [`ReplyEnvelope`] lines
//! out; batch requests additionally stream per-job progress events
//! between the admission verdict and the final response.
#![cfg(unix)]

use crate::server::{Connections, Payload, ServerState, Sink, Work};
use eblocks_farm::api::{
    Admission, AdmissionReply, ProgressEvent, ReplyEnvelope, RequestEnvelope, ServeReply,
    ServeRequest, MAX_INPUT_BYTES,
};
use eblocks_farm::{BatchProgress, JobResponse, JobSpec};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes `envelope` as one JSON line and writes it under the
/// writer lock. Write errors are ignored: a client that hung up stops
/// caring about its replies, and the worker must not die with it.
pub(crate) fn send(writer: &Arc<Mutex<UnixStream>>, envelope: &ReplyEnvelope) {
    let line = format!("{}\n", serde::json::to_string(envelope));
    let mut stream = writer.lock().expect("socket writer lock");
    let _ = stream.write_all(line.as_bytes());
}

/// Forwards farm progress callbacks as `progress` reply lines tagged
/// with the request id.
pub(crate) struct ProgressStreamer {
    id: String,
    writer: Arc<Mutex<UnixStream>>,
}

impl ProgressStreamer {
    pub(crate) fn new(id: &str, writer: &Arc<Mutex<UnixStream>>) -> Self {
        Self {
            id: id.to_string(),
            writer: Arc::clone(writer),
        }
    }

    fn emit(&self, event: ProgressEvent) {
        send(
            &self.writer,
            &ReplyEnvelope {
                id: Some(self.id.clone()),
                reply: ServeReply::Progress(event),
            },
        );
    }
}

impl BatchProgress for ProgressStreamer {
    fn job_started(&self, index: usize, job: &JobSpec) {
        self.emit(ProgressEvent::started(index, job));
    }

    fn job_finished(&self, index: usize, row: &JobResponse) {
        self.emit(ProgressEvent::finished(index, row));
    }
}

/// The accept loop: hands each connection to its own thread until the
/// drain begins, then removes the socket file. Every accept and every
/// idle poll joins the connection threads that have finished.
pub(crate) fn listen(
    state: &Arc<ServerState>,
    listener: UnixListener,
    connections: &Mutex<Connections>,
    path: &Path,
) {
    loop {
        let accepted = listener.accept();
        connections.lock().expect("connection list").reap();
        match accepted {
            Ok((stream, _addr)) => {
                let state = Arc::clone(state);
                let handle = std::thread::spawn(move || connection(&state, stream));
                connections
                    .lock()
                    .expect("connection list")
                    .live
                    .push(handle);
            }
            Err(_) => {
                if state.draining() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    drop(listener);
    let _ = std::fs::remove_file(path);
}

/// One client connection: reads request lines until EOF or the drain,
/// auto-assigning ids `r0`, `r1`, … to envelopes that carry none. Each
/// byte read is scanned for a newline once; a line longer than
/// [`MAX_INPUT_BYTES`] (newline not counted) ends the connection with one
/// `error` reply, so an endless line costs the daemon at most that much
/// buffer.
fn connection(state: &Arc<ServerState>, stream: UnixStream) {
    // A short read timeout keeps the loop responsive to the drain flag
    // even while the client is idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut buffer = [0u8; 4096];
    let mut next_id = 0usize;
    loop {
        match reader.read(&mut buffer) {
            Ok(0) => break,
            Ok(n) => {
                for piece in buffer[..n].split_inclusive(|&b| b == b'\n') {
                    let (text, complete) = match piece.split_last() {
                        Some((b'\n', text)) => (text, true),
                        _ => (piece, false),
                    };
                    if pending.len() + text.len() > MAX_INPUT_BYTES {
                        send(
                            &writer,
                            &ReplyEnvelope {
                                id: None,
                                reply: ServeReply::Error(format!(
                                    "request line longer than {MAX_INPUT_BYTES} bytes; closing the connection"
                                )),
                            },
                        );
                        return;
                    }
                    pending.extend_from_slice(text);
                    if complete {
                        handle_line(state, &writer, &pending, &mut next_id);
                        pending.clear();
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.draining() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Parses and dispatches one request line.
fn handle_line(
    state: &Arc<ServerState>,
    writer: &Arc<Mutex<UnixStream>>,
    line: &[u8],
    next_id: &mut usize,
) {
    let Ok(text) = std::str::from_utf8(line) else {
        send(
            writer,
            &ReplyEnvelope {
                id: None,
                reply: ServeReply::Error("request line is not valid UTF-8".to_string()),
            },
        );
        return;
    };
    if text.trim().is_empty() {
        return;
    }
    // An envelope, or — for quick manual sessions — a bare request.
    let envelope = match serde::json::from_str::<RequestEnvelope>(text) {
        Ok(envelope) => envelope,
        Err(envelope_error) => match serde::json::from_str::<ServeRequest>(text) {
            Ok(request) => RequestEnvelope { id: None, request },
            Err(_) => {
                send(
                    writer,
                    &ReplyEnvelope {
                        id: None,
                        reply: ServeReply::Error(format!("invalid request: {envelope_error}")),
                    },
                );
                return;
            }
        },
    };
    let id = envelope.id.unwrap_or_else(|| {
        let id = format!("r{next_id}");
        *next_id += 1;
        id
    });
    match envelope.request {
        ServeRequest::Stats => {
            send(
                writer,
                &ReplyEnvelope {
                    id: Some(id),
                    reply: ServeReply::Stats(state.stats()),
                },
            );
        }
        ServeRequest::Shutdown => {
            send(
                writer,
                &ReplyEnvelope {
                    id: Some(id),
                    reply: ServeReply::Shutdown,
                },
            );
            state.begin_drain();
        }
        ServeRequest::Batch(request) => {
            admit(state, writer, id, Payload::Batch(request));
        }
        ServeRequest::Synth(request) => {
            admit(state, writer, id, Payload::Synth(request));
        }
    }
}

/// Admission control for a socket payload: lint gate, then a
/// non-blocking push — a full queue is an explicit `queue-full` verdict,
/// never a silent wait.
fn admit(state: &Arc<ServerState>, writer: &Arc<Mutex<UnixStream>>, id: String, payload: Payload) {
    if let Some(detail) = state.lint_reject_detail(&payload) {
        state.count_rejected();
        send(
            writer,
            &ReplyEnvelope {
                id: Some(id),
                reply: ServeReply::Admission(AdmissionReply {
                    status: Admission::LintRejected,
                    detail: Some(detail),
                }),
            },
        );
        return;
    }
    let work = Work {
        payload,
        sink: Sink::Socket {
            id: id.clone(),
            writer: Arc::clone(writer),
        },
    };
    // Hold the writer lock across push + admission reply so the verdict
    // reaches the client before any progress event a fast worker emits.
    let mut stream = writer.lock().expect("socket writer lock");
    let reply = match state.queue.try_push(work) {
        Ok(()) => {
            state.count_accepted();
            ServeReply::Admission(AdmissionReply {
                status: Admission::Accepted,
                detail: None,
            })
        }
        Err(crate::queue::PushError::Full(_)) => {
            state.count_rejected();
            ServeReply::Admission(AdmissionReply {
                status: Admission::QueueFull,
                detail: Some(format!("queue at capacity {}", state.config.queue_capacity)),
            })
        }
        Err(crate::queue::PushError::Closed(_)) => {
            state.count_rejected();
            ServeReply::Error("server is draining".to_string())
        }
    };
    let line = format!(
        "{}\n",
        serde::json::to_string(&ReplyEnvelope {
            id: Some(id),
            reply,
        })
    );
    let _ = stream.write_all(line.as_bytes());
}
