//! The daemon itself: shared state, worker pool, lifecycle, and the one
//! request path both front doors share once they have parsed a request:
//! [`dispatch`], admission (the lint gate, then [`ServerState::admit`]),
//! and the reply renderer [`Sink::deliver`].

use crate::config::ServeConfig;
use crate::queue::{PushError, WorkQueue};
use crate::{signal, spool};
use eblocks_farm::api::{
    self, BatchRequest, ErrorReply, JobSpec, ProgressEvent, ServeReply, ServeRequest, ServeStats,
    StageMs, StageSummary, SynthRequest,
};
use eblocks_farm::scheduler::panic_message;
use eblocks_farm::{
    run_batch_with_progress, BatchProgress, BatchResponse, FarmConfig, JobResponse, JsonOptions,
};
use eblocks_lint::lint_design;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A payload request admitted to the work queue.
pub(crate) enum Payload {
    /// A whole batch; answered with a `BatchResponse`.
    Batch(BatchRequest),
    /// One design through the full pipeline; answered with a
    /// `SynthResponse`.
    Synth(SynthRequest),
}

/// Where a request's replies go: the door it came through.
pub(crate) enum Sink {
    /// Answer into `<spool>/outbox/<name>`; `claimed` is the in-flight
    /// copy of the input, deleted once the response is in place.
    Spool { name: String, claimed: PathBuf },
    /// Answer as `ReplyEnvelope` lines on a socket connection, with
    /// streamed per-job progress.
    #[cfg(unix)]
    Socket {
        id: String,
        writer: Arc<Mutex<std::os::unix::net::UnixStream>>,
    },
}

impl Sink {
    /// Renders `reply` in this door's format and sends it: the answers
    /// to `stats` and `shutdown`, every final reply and progress event,
    /// and the socket's refusal verdicts. The spool publishes
    /// `outbox/<name>` (a batch response as compact JSON, the bytes
    /// `eblocks-cli batch --json` prints; a synth response and stats
    /// pretty-printed; an error as `{"error": …}`; the shutdown ack as
    /// `"shutdown"`) and then removes the claimed input, or, if the answer
    /// cannot be published, quarantines the input with the reason. It has
    /// no streamed replies, so it drops progress. The socket writes one
    /// `ReplyEnvelope` line tagged with the request id.
    pub(crate) fn deliver(&self, state: &ServerState, reply: ServeReply) {
        match self {
            Sink::Spool { name, claimed } => {
                let text = match reply {
                    ServeReply::Batch(response) => serde::json::to_string(&response),
                    ServeReply::Synth(response) => serde::json::to_string_pretty(&response),
                    ServeReply::Stats(stats) => serde::json::to_string_pretty(&stats),
                    ServeReply::Error(error) => serde::json::to_string(&ErrorReply { error }),
                    reply @ ServeReply::Shutdown => serde::json::to_string(&reply),
                    ServeReply::Admission(_) | ServeReply::Progress(_) => return,
                };
                let outbox = state.config.outbox();
                match spool::publish(state, &outbox, name, &format!("{text}\n")) {
                    Ok(()) => {
                        let _ = std::fs::remove_file(claimed);
                    }
                    Err(e) => {
                        let error = format!("cannot publish the answer to outbox/{name}: {e}");
                        spool::quarantine(state, name, claimed, &error);
                    }
                }
            }
            #[cfg(unix)]
            Sink::Socket { id, writer } => crate::socket::send(
                writer,
                &api::ReplyEnvelope {
                    id: Some(id.clone()),
                    reply,
                },
            ),
        }
    }

    /// Answers a payload request that admission turned away, and counts
    /// it as rejected. The spool quarantines the input with the reason;
    /// the socket sends the verdict (`lint-rejected` or `queue-full`), or
    /// an error once the daemon is draining.
    pub(crate) fn refuse(&self, state: &ServerState, refusal: Refusal) {
        state.count_rejected();
        match self {
            Sink::Spool { name, claimed } => {
                let error = match refusal {
                    Refusal::Lint(detail) => format!("lint-rejected: {detail}"),
                    Refusal::Full => "queue-full".to_string(),
                    Refusal::Draining => "server is draining".to_string(),
                };
                spool::quarantine(state, name, claimed, &error);
            }
            #[cfg(unix)]
            Sink::Socket { .. } => {
                use api::{Admission, AdmissionReply};
                let verdict = |status, detail| {
                    ServeReply::Admission(AdmissionReply {
                        status,
                        detail: Some(detail),
                    })
                };
                let capacity = state.config.queue_capacity;
                let reply = match refusal {
                    Refusal::Lint(detail) => verdict(Admission::LintRejected, detail),
                    Refusal::Full => verdict(
                        Admission::QueueFull,
                        format!("queue at capacity {capacity}"),
                    ),
                    Refusal::Draining => ServeReply::Error("server is draining".to_string()),
                };
                self.deliver(state, reply);
            }
        }
    }
}

/// Why admission turned a payload request away.
pub(crate) enum Refusal {
    /// The lint gate rejected a design; the detail names the job and its
    /// findings.
    Lint(String),
    /// The bounded queue is at capacity.
    Full,
    /// The queue closed for the drain.
    Draining,
}

/// One queued unit of work.
pub(crate) struct Work {
    pub(crate) payload: Payload,
    pub(crate) sink: Sink,
}

/// State shared by the spool pump, the socket threads, and the workers.
pub(crate) struct ServerState {
    pub(crate) config: ServeConfig,
    pub(crate) queue: WorkQueue<Work>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    in_flight: AtomicUsize,
    draining: AtomicBool,
    /// The farm-level drain hook: set on a hardened drain, it makes
    /// running batches stop claiming new jobs.
    hard_stop: Arc<AtomicBool>,
    /// One running aggregate per stage over every completed job, in
    /// pipeline stage order: at most one entry per stage, however long
    /// the daemon runs.
    stages: Mutex<Vec<StageSummary>>,
    /// Monotonic sequence for claimed-file and temp-file names, so
    /// duplicate inbox filenames never collide in flight.
    sequence: AtomicU64,
}

impl ServerState {
    pub(crate) fn new(config: ServeConfig) -> Self {
        let capacity = config.queue_capacity;
        Self {
            config,
            queue: WorkQueue::new(capacity),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            hard_stop: Arc::new(AtomicBool::new(false)),
            stages: Mutex::new(Vec::new()),
            sequence: AtomicU64::new(0),
        }
    }

    /// The farm config every request runs under.
    fn farm_config(&self) -> FarmConfig {
        FarmConfig {
            workers: self.config.farm_workers,
            max_retries: self.config.max_retries,
            job_timeout: self.config.job_timeout,
            stop: Some(Arc::clone(&self.hard_stop)),
            ..FarmConfig::default()
        }
    }

    /// Starts the graceful drain: no further admissions; queued and
    /// in-flight work still completes. Idempotent.
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Hardens a drain: running batches stop claiming new jobs and
    /// report the rest as cancelled.
    pub(crate) fn harden_drain(&self) {
        self.hard_stop.store(true, Ordering::SeqCst);
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn count_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The next claim/temp-file sequence number.
    pub(crate) fn next_sequence(&self) -> u64 {
        self.sequence.fetch_add(1, Ordering::Relaxed)
    }

    /// The current counter snapshot.
    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            queue_depth: self.queue.depth(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            stages: self.stages.lock().expect("stage lock").clone(),
        }
    }

    /// The admission lint gate: with [`ServeConfig::admission_lint`]
    /// set, lints every loadable design in `payload` and returns the
    /// rejection detail for the first design the configured deny level
    /// rejects. Designs that fail to *load* pass — the farm reports
    /// those deterministically, keeping responses identical to the
    /// one-shot paths.
    fn lint_reject_detail(&self, payload: &Payload) -> Option<String> {
        let config = self.config.admission_lint?;
        let synth;
        let jobs = match payload {
            Payload::Batch(request) => &request.jobs[..],
            Payload::Synth(request) => {
                synth = JobSpec::new(request.source.clone());
                std::slice::from_ref(&synth)
            }
        };
        for job in jobs {
            let Ok(design) = job.source.load() else {
                continue;
            };
            let report = lint_design(&design);
            if report.rejects(config.deny) {
                let name = job.display_name();
                return Some(format!("job `{name}`: {}", report.outcome()));
            }
        }
        None
    }

    /// Admission's second half, after the lint gate in [`dispatch`]: a
    /// push that never blocks, and the one place accepted work is
    /// counted. Returns refused work with the reason; the door answers it
    /// through [`Sink::refuse`], except that the spool pump holds work a
    /// full queue turned away and pushes it again.
    pub(crate) fn admit(&self, work: Work) -> Option<(Refusal, Work)> {
        match self.queue.try_push(work) {
            Ok(()) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(PushError::Full(work)) => Some((Refusal::Full, work)),
            Err(PushError::Closed(work)) => Some((Refusal::Draining, work)),
        }
    }

    /// Folds stage rows, a batch's or a synth response's, into the
    /// daemon-wide aggregates.
    fn absorb<'a>(&self, rows: impl IntoIterator<Item = &'a StageMs>) {
        StageSummary::fold(&mut self.stages.lock().expect("stage lock"), rows);
    }
}

/// What one daemon lifetime did, returned by
/// [`ServerHandle::join`]/[`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Payload requests admitted to the queue.
    pub accepted: u64,
    /// Payload requests turned away (queue full, lint rejection,
    /// malformed spool files).
    pub rejected: u64,
    /// Accepted requests fully answered.
    pub completed: u64,
}

/// The socket's connection threads not yet joined, plus how many of the
/// joined ones panicked.
#[derive(Default)]
pub(crate) struct Connections {
    pub(crate) live: Vec<JoinHandle<()>>,
    panicked: usize,
}

impl Connections {
    /// Joins every thread that has finished, so the list holds only the
    /// connections still open rather than every one the daemon accepted.
    pub(crate) fn reap(&mut self) {
        for handle in self.live.extract_if(.., |h| h.is_finished()) {
            self.panicked += usize::from(handle.join().is_err());
        }
    }
}

/// A running daemon (see [`spawn`]).
pub struct ServerHandle {
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Connections>>,
}

impl ServerHandle {
    /// Requests a graceful drain, as if a `"shutdown"` request arrived:
    /// admission stops, queued and in-flight work completes, the outbox
    /// flushes, and [`join`](Self::join) returns.
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Hardens a drain: running batches stop claiming new jobs and
    /// report never-claimed jobs as cancelled. Call after
    /// [`shutdown`](Self::shutdown) when finishing the backlog would
    /// take too long.
    pub fn shutdown_now(&self) {
        self.state.begin_drain();
        self.state.harden_drain();
    }

    /// The daemon's current [`ServeStats`] (what a `"stats"` request
    /// answers).
    pub fn stats(&self) -> ServeStats {
        self.state.stats()
    }

    /// Blocks until the daemon drains (a `"shutdown"` request, a
    /// signal under [`ServeConfig::handle_signals`], or
    /// [`shutdown`](Self::shutdown)), then returns the final counters.
    ///
    /// # Errors
    ///
    /// A message naming the daemon thread that panicked, if one did.
    pub fn join(self) -> Result<ServeSummary, String> {
        let mut panicked = 0usize;
        for thread in self.threads {
            panicked += usize::from(thread.join().is_err());
        }
        // The listener is joined above, so no new connections appear
        // while we drain this list.
        let connections = std::mem::take(&mut *self.connections.lock().expect("connection list"));
        panicked += connections.panicked;
        for thread in connections.live {
            panicked += usize::from(thread.join().is_err());
        }
        if panicked > 0 {
            return Err(format!("{panicked} daemon thread(s) panicked"));
        }
        Ok(ServeSummary {
            accepted: self.state.accepted.load(Ordering::Relaxed),
            rejected: self.state.rejected.load(Ordering::Relaxed),
            completed: self.state.completed.load(Ordering::Relaxed),
        })
    }
}

/// Starts a daemon for `config` and returns its handle. Spool
/// directories are created if missing; config edge cases (0 workers, 0
/// queue capacity, a poll interval under 1ms) are clamped, mirroring the
/// farm's `with_workers(0)`.
///
/// # Errors
///
/// A human-readable message: spool directories that cannot be created,
/// or a socket path that cannot be bound.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, String> {
    let config = config.clamped();
    for dir in [
        config.inbox(),
        config.outbox(),
        config.rejected(),
        config.claimed(),
    ] {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create spool directory {}: {e}", dir.display()))?;
    }
    if config.handle_signals {
        signal::install();
    }

    let state = Arc::new(ServerState::new(config));
    spool::sweep_claimed(&state);
    let connections = Arc::new(Mutex::new(Connections::default()));
    let mut threads = Vec::new();

    for _ in 0..state.config.workers {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || worker_loop(&state)));
    }

    if let Some(path) = state.config.socket.clone() {
        #[cfg(unix)]
        {
            // A stale socket file from a previous run would make bind
            // fail with AddrInUse; replace it.
            if path.exists() {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("cannot remove stale socket {}: {e}", path.display()))?;
            }
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("cannot bind socket {}: {e}", path.display()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot configure socket {}: {e}", path.display()))?;
            let state = Arc::clone(&state);
            let connections = Arc::clone(&connections);
            threads.push(std::thread::spawn(move || {
                crate::socket::listen(&state, listener, &connections, &path)
            }));
        }
        #[cfg(not(unix))]
        {
            return Err(format!(
                "socket front end requires a Unix platform ({})",
                path.display()
            ));
        }
    }

    {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || pump_loop(&state)));
    }

    Ok(ServerHandle {
        state,
        threads,
        connections,
    })
}

/// [`spawn`] + [`ServerHandle::join`]: runs the daemon until something
/// requests its shutdown, then returns the final counters. What
/// `eblocks-cli serve` calls.
///
/// # Errors
///
/// See [`spawn`] and [`ServerHandle::join`].
pub fn serve(config: ServeConfig) -> Result<ServeSummary, String> {
    spawn(config)?.join()
}

/// The supervisor loop: scans the spool inbox and watches for signals
/// until the drain begins and no request is held.
fn pump_loop(state: &Arc<ServerState>) {
    let mut held = None;
    loop {
        if state.config.handle_signals {
            let signals = signal::count();
            if signals >= 2 {
                state.harden_drain();
            }
            if signals >= 1 {
                state.begin_drain();
            }
        }
        held = spool::scan_once(state, held);
        // A request still held met the full queue before the drain
        // closed it; the next scan's push quarantines it.
        if held.is_none() && state.draining() {
            return;
        }
        std::thread::sleep(state.config.poll_interval);
    }
}

/// The one dispatch of a parsed request, whichever door it came through:
/// `stats` and `shutdown` are answered at once (a shutdown then begins
/// the drain), and a payload meets admission's first half, the lint gate
/// ([`ServeConfig::admission_lint`]). A rejected design is refused
/// through `sink`; work that passes comes back for the door to
/// [`admit`](ServerState::admit).
pub(crate) fn dispatch(state: &ServerState, request: ServeRequest, sink: Sink) -> Option<Work> {
    let payload = match request {
        ServeRequest::Stats => {
            sink.deliver(state, ServeReply::Stats(state.stats()));
            return None;
        }
        ServeRequest::Shutdown => {
            // Acknowledge, then drain: the ack is the last admission this
            // daemon makes.
            sink.deliver(state, ServeReply::Shutdown);
            state.begin_drain();
            return None;
        }
        ServeRequest::Batch(request) => Payload::Batch(request),
        ServeRequest::Synth(request) => Payload::Synth(request),
    };
    if let Some(detail) = state.lint_reject_detail(&payload) {
        sink.refuse(state, Refusal::Lint(detail));
        return None;
    }
    Some(Work { payload, sink })
}

/// One daemon worker: pops queued requests and answers them until the
/// queue closes and drains.
pub(crate) fn worker_loop(state: &ServerState) {
    while let Some(Work { payload, sink }) = state.queue.pop() {
        state.in_flight.fetch_add(1, Ordering::Relaxed);
        let reply = run_payload(state, payload, &sink);
        sink.deliver(state, reply);
        state.in_flight.fetch_sub(1, Ordering::Relaxed);
        state.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A batch's per-job progress, streamed through its request's sink.
struct Progress<'a> {
    state: &'a ServerState,
    sink: &'a Sink,
}

impl BatchProgress for Progress<'_> {
    fn job_started(&self, index: usize, job: &JobSpec) {
        let event = ProgressEvent::started(index, job);
        self.sink.deliver(self.state, ServeReply::Progress(event));
    }

    fn job_finished(&self, index: usize, row: &JobResponse) {
        let event = ProgressEvent::finished(index, row);
        self.sink.deliver(self.state, ServeReply::Progress(event));
    }
}

/// Runs the payload under the daemon's farm config and returns its final
/// reply: a batch through the farm, streaming progress through `sink`,
/// and a synth request as one job of its attempt loop. The run sits
/// inside `catch_unwind` — the farm already isolates job panics, but the
/// daemon additionally guarantees that *nothing* a request does can take
/// a worker down silently: a panic becomes an error reply and the input
/// is still accounted for.
fn run_payload(state: &ServerState, payload: Payload, sink: &Sink) -> ServeReply {
    let config = state.farm_config();
    let run = || match payload {
        Payload::Batch(request) => {
            let report = run_batch_with_progress(&request, &config, &Progress { state, sink });
            state.absorb(
                report
                    .results
                    .iter()
                    .flat_map(|row| row.stages_ms.iter().flatten()),
            );
            ServeReply::Batch(BatchResponse::from_report(&report, &JsonOptions::default()))
        }
        Payload::Synth(request) => match api::synthesize_with(&request, &config) {
            Ok(response) => {
                state.absorb(&response.stages_ms);
                ServeReply::Synth(response)
            }
            Err(error) => ServeReply::Error(error),
        },
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        ServeReply::Error(format!("internal panic: {}", panic_message(&panic)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_farm::api::DesignSource;
    use eblocks_farm::{run_batch, LintConfig};
    use eblocks_synth::Stage;
    use std::collections::BTreeMap;
    use std::time::Duration;

    #[cfg(unix)]
    #[test]
    fn finished_connections_are_joined_while_the_daemon_runs() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        use std::time::Instant;

        let dir = std::env::temp_dir().join(format!("eblocks-serve-reap-{}", std::process::id()));
        let socket = dir.join("daemon.sock");
        let server = spawn(ServeConfig::new(&dir).socket(&socket)).unwrap();
        for _ in 0..50 {
            let mut stream = UnixStream::connect(&socket).unwrap();
            stream.write_all(b"\"stats\"\n").unwrap();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).unwrap();
            assert!(reply.contains(r#""stats""#), "{reply}");
        }
        // Every client has hung up, so the list may hold at most the one
        // connection whose end the listener has not yet reaped.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let live = server.connections.lock().unwrap().live.len();
            if live <= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{live} finished connections kept"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        assert_eq!(server.join().unwrap().accepted, 0, "stats is not queued");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_aggregate_stays_bounded_and_sums_every_row() {
        let state = ServerState::new(ServeConfig::new(std::env::temp_dir()));
        // Every absorbed row as (stage, ms), for the reference sums.
        let mut rows: Vec<(Stage, f64)> = Vec::new();

        let request = SynthRequest::new(DesignSource::Library("Ignition Illuminator".into()));
        let template = api::synthesize(&request).unwrap();
        for k in 0..300u32 {
            let mut response = template.clone();
            for (i, row) in response.stages_ms.iter_mut().enumerate() {
                row.ms = f64::from(k % 17) * 0.125 + i as f64;
                rows.push((row.stage, row.ms));
            }
            state.absorb(&response.stages_ms);
        }
        let batch = BatchRequest::parse("job library=\"Podium Timer 3\"\n").unwrap();
        let config = FarmConfig::with_workers(1).lint(LintConfig::default());
        let report = run_batch(&batch, &config);
        let batch_rows = report
            .results
            .iter()
            .flat_map(|job| job.stages_ms.iter().flatten());
        rows.extend(batch_rows.clone().map(|row| (row.stage, row.ms)));
        state.absorb(batch_rows);

        assert_eq!(state.stages.lock().unwrap().len(), 6, "one entry per stage");
        // Rows carry whole microseconds, so their exact sum rounded to 3
        // decimals is what the running, rounded fold must reach.
        let mut expected: BTreeMap<Stage, StageSummary> = BTreeMap::new();
        for (stage, ms) in rows {
            let stat = expected.entry(stage).or_insert(StageSummary {
                stage,
                runs: 0,
                total_ms: 0.0,
                max_ms: 0.0,
            });
            stat.runs += 1;
            stat.total_ms += ms;
            stat.max_ms = stat.max_ms.max(ms);
        }
        let expected: Vec<StageSummary> = expected
            .into_values()
            .map(|stat| StageSummary {
                total_ms: (stat.total_ms * 1e3).round() / 1e3,
                ..stat
            })
            .collect();
        assert_eq!(expected[0].runs, 1, "lint ran in the batch job only");
        assert_eq!(expected[1].runs, 301);
        assert_eq!(state.stats().stages, expected);
    }
}
