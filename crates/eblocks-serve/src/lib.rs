//! The service mode: a long-running synthesis daemon over the typed
//! request API (`eblocks_farm::api`).
//!
//! A [`Server`](ServerHandle) accepts work through two front doors:
//!
//! * **A spool directory** — the daemon watches `<spool>/inbox/`,
//!   atomically claims request files (rename into `<spool>/claimed/`),
//!   and answers every input: responses land in `<spool>/outbox/` under
//!   the input's file name (written to a temp file and renamed, so
//!   readers never see partial JSON), and malformed inputs move to
//!   `<spool>/rejected/` next to a structured `<name>.error.json`. A
//!   request file holds a [`ServeRequest`](eblocks_farm::api::ServeRequest)
//!   (`{"batch": …}`, `{"synth": …}`, `"stats"`, `"shutdown"`) or, as a
//!   convenience, a bare
//!   [`BatchRequest`](eblocks_farm::api::BatchRequest) — the same JSON
//!   `eblocks-cli batch` accepts.
//!   A batch response file is byte-identical to `eblocks-cli batch
//!   --json` output for the same request.
//! * **A Unix-domain socket** — line-delimited JSON, one
//!   [`RequestEnvelope`](eblocks_farm::api::RequestEnvelope) per line in,
//!   one [`ReplyEnvelope`](eblocks_farm::api::ReplyEnvelope) per line
//!   out. Every payload request gets an immediate admission verdict
//!   (`accepted` / `queue-full` / `lint-rejected`), streamed per-job
//!   `progress` events while its batch runs, and exactly one final
//!   reply, all correlated by the client's request id (the server
//!   assigns `r0`, `r1`, … when the client sends none). A line longer
//!   than [`MAX_INPUT_BYTES`](eblocks_farm::api::MAX_INPUT_BYTES) gets
//!   one `error` reply and closes the connection.
//!
//! The doors differ only in transport. Once a request is parsed, both
//! take one path: one dispatch of the four request kinds, one admission
//! (the lint gate, then a push that never blocks), and one renderer that
//! writes each reply in the door's format.
//!
//! Production shape:
//!
//! * **Bounded queue, explicit backpressure** — the work queue holds at
//!   most [`ServeConfig::queue_capacity`] requests. Socket clients get a
//!   `queue-full` admission reply. The spool watcher stops claiming
//!   files while the queue is full, so unclaimed inputs wait in `inbox/`
//!   and are never dropped. A file it claims just as a socket client
//!   takes the last slot is held: the watcher pushes it again on its
//!   next scan, before it claims anything else, and quarantines it with
//!   `server is draining` if the drain begins first. No push ever waits
//!   for room, so only the workers wait on the queue.
//! * **Lint before enqueue** — with [`ServeConfig::admission_lint`] set,
//!   every loadable design in a request is linted at the configured deny
//!   level *before* the request is queued, so garbage costs no
//!   synthesis. (Designs that fail to load pass admission and fail
//!   deterministically in the farm, keeping responses identical to the
//!   one-shot paths.)
//! * **Deadlines** — [`ServeConfig::job_timeout`] reuses the farm's
//!   cooperative per-attempt deadline, and [`ServeConfig::max_retries`]
//!   its retry budget, for every job the daemon runs: each job of a
//!   batch, and each `synth` request, which runs as one job of the same
//!   attempt loop ([`synthesize_with`](eblocks_farm::api::synthesize_with)).
//!   A synth request that times out, fails or panics is answered with an
//!   `error` reply.
//! * **Stats** — a `"stats"` request answers immediately with queue
//!   depth, accepted/rejected/completed counters, and per-stage
//!   wall-clock aggregates over everything the daemon has run.
//! * **Graceful drain** — SIGTERM (via [`ServeConfig::handle_signals`])
//!   or a `"shutdown"` request stops admission, finishes everything
//!   already accepted, flushes the outbox, and exits cleanly. A second
//!   SIGTERM hardens the drain: running batches stop claiming new jobs
//!   ([`FarmConfig::stop`](eblocks_farm::FarmConfig::stop)) and
//!   never-claimed jobs report as cancelled.
//!
//! # Example
//!
//! ```
//! use eblocks_serve::{spawn, ServeConfig};
//!
//! let spool = std::env::temp_dir().join(format!("serve-doc-{}", std::process::id()));
//! let server = spawn(ServeConfig::new(&spool)).unwrap();
//! // Producers write-then-rename into the inbox: the rename is atomic,
//! // so the scanner never claims a half-written request.
//! let staging = spool.join(".staging-request");
//! std::fs::write(&staging, r#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#).unwrap();
//! std::fs::rename(&staging, spool.join("inbox/request.json")).unwrap();
//! while !spool.join("outbox/request.json").exists() {
//!     std::thread::sleep(std::time::Duration::from_millis(10));
//! }
//! server.shutdown();
//! let summary = server.join().unwrap();
//! assert_eq!(summary.completed, 1);
//! # std::fs::remove_dir_all(&spool).unwrap();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod queue;
mod server;
mod signal;
mod socket;
mod spool;

pub use config::ServeConfig;
pub use server::{serve, spawn, ServeSummary, ServerHandle};
