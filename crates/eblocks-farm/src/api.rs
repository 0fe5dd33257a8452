//! The typed request/response API for synthesis — the surface an RPC
//! server (or spool-directory watcher) would speak, and the one the CLI's
//! `batch --json` / `synth` commands are thin front ends for.
//!
//! Everything here is derive-serialized through the vendored `serde`'s
//! [`Value`](serde::Value) tree, so a batch can arrive as JSON (manifest
//! format v2, [`Batch::from_json`]) and a report leaves as JSON through the
//! same types:
//!
//! * **Requests**: [`BatchRequest`] (a list of [`JobSpec`]s plus a default
//!   strategy) and [`SynthRequest`] (one design through the full pipeline,
//!   run as one job of the farm's attempt loop by [`synthesize_with`]).
//!   [`DesignSource`] names where a design comes from;
//!   [`SynthOptions`] carries the optional pipeline knobs — every field is
//!   optional, and omitted fields keep the engine defaults.
//! * **Responses**: [`BatchResponse`] (wrapping a
//!   [`BatchReport`]) and [`SynthResponse`] (stats
//!   plus the synthesized netlist text and C sources). Wall-clock fields
//!   are `Option`s populated only when timings were requested, so the
//!   deterministic report is byte-identical across worker counts.
//!
//! # Example
//!
//! A request round-trips from JSON through the same types `run_batch`
//! consumes:
//!
//! ```
//! use eblocks_farm::api::BatchRequest;
//! use eblocks_farm::{run_batch, FarmConfig, JsonOptions};
//! use eblocks_farm::api::BatchResponse;
//!
//! let request: BatchRequest = serde::json::from_str(
//!     r#"{
//!         "default_partitioner": "refine",
//!         "jobs": [
//!             {"source": {"library": "Ignition Illuminator"}},
//!             {"source": {"generated": {"inner": 10, "seed": 3}},
//!              "options": {"mode": "partition"}}
//!         ]
//!     }"#,
//! ).unwrap();
//! let report = run_batch(&request.to_batch(), &FarmConfig::with_workers(2));
//! let response = BatchResponse::from_report(&report, &JsonOptions::default());
//! assert_eq!(response.batch.succeeded, 2);
//! println!("{}", serde::json::to_string(&response));
//! ```

use crate::job::{Batch, Job, JobMode, JobSource};
use crate::report::{BatchReport, JobReport, JobStatus, JsonOptions};
use crate::scheduler::{run_attempts, FarmConfig, JobOutput};
use eblocks_lint::{DenyLevel, LintConfig};
use eblocks_partition::DEFAULT_PARTITIONER;
use eblocks_synth::{Stage, StageStat, StageTimings};
use serde::{Deserialize, Serialize};

/// Where a request's design comes from (the wire name for
/// [`JobSource`]): `{"netlist": "path"}`, `{"library": "Name"}`, or
/// `{"generated": {"inner": N, "seed": S}}`.
pub use crate::job::JobSource as DesignSource;

/// Optional pipeline knobs for one job. Every field is an `Option`;
/// omitted fields keep the engine defaults (synth mode, verify on,
/// optimize on, the paper's 2-in/2-out pin budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthOptions {
    /// Full pipeline (`"synth"`, default) or partition analysis only
    /// (`"partition"`).
    pub mode: Option<JobMode>,
    /// Co-simulate original vs synthesized (default true).
    pub verify: Option<bool>,
    /// Run the behavior-tree optimizer before emitting C (default true).
    pub optimize: Option<bool>,
    /// Programmable-block input pins (default 2).
    pub inputs: Option<u8>,
    /// Programmable-block output pins (default 2).
    pub outputs: Option<u8>,
    /// Run the lint stage before synthesis (default: the farm's
    /// engine-level setting, usually off).
    pub lint: Option<bool>,
    /// Which severities reject the design when lint runs:
    /// `"errors"` (default) or `"warnings"`. Implies `lint: true`
    /// unless `lint: false` is set explicitly.
    pub lint_deny: Option<DenyLevel>,
}

impl SynthOptions {
    /// Applies the set fields onto `job`, leaving the rest untouched.
    fn apply(&self, job: &mut Job) {
        if let Some(mode) = self.mode {
            job.mode = mode;
        }
        if let Some(verify) = self.verify {
            job.verify = verify;
        }
        if let Some(optimize) = self.optimize {
            job.optimize = optimize;
        }
        if let Some(inputs) = self.inputs {
            job.spec.inputs = inputs;
        }
        if let Some(outputs) = self.outputs {
            job.spec.outputs = outputs;
        }
        match (self.lint, self.lint_deny) {
            (Some(false), _) => job.lint = None,
            (Some(true), deny) => {
                job.lint = Some(LintConfig::denying(deny.unwrap_or_default()));
            }
            (None, Some(deny)) => job.lint = Some(LintConfig::denying(deny)),
            (None, None) => {}
        }
    }
}

/// One job of a [`BatchRequest`]: a design source plus optional name,
/// strategy, and pipeline options.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Display name; defaults to the source's natural name (file stem,
    /// library name, `gen<inner>-<seed>`).
    pub name: Option<String>,
    /// Where the design comes from.
    pub source: DesignSource,
    /// Strategy name; `None` falls back to the batch/engine default.
    pub partitioner: Option<String>,
    /// Pipeline knobs; omitted fields keep the engine defaults.
    #[serde(default)]
    pub options: SynthOptions,
}

impl JobSpec {
    /// A spec over `source` with everything else defaulted.
    pub fn new(source: DesignSource) -> Self {
        Self {
            name: None,
            source,
            partitioner: None,
            options: SynthOptions::default(),
        }
    }

    /// The farm [`Job`] this spec describes.
    pub fn to_job(&self) -> Job {
        let mut job = match &self.source {
            JobSource::Netlist(path) => Job::netlist(path.clone()),
            JobSource::Library(name) => Job::library(name.clone()),
            JobSource::Generated { inner, seed } => Job::generated(*inner, *seed),
        };
        if let Some(name) = &self.name {
            job = job.named(name.clone());
        }
        job.partitioner = self.partitioner.clone();
        self.options.apply(&mut job);
        job
    }
}

/// A batch of jobs as it would arrive over RPC — manifest format v2.
///
/// [`Batch::from_json`] parses one from JSON text, and
/// [`BatchRequest::to_batch`] converts it to the engine's [`Batch`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// Strategy for jobs that set none (the manifest's
    /// `default partitioner=…`); the engine-level override still wins.
    pub default_partitioner: Option<String>,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl BatchRequest {
    /// The engine [`Batch`] this request describes.
    pub fn to_batch(&self) -> Batch {
        Batch {
            jobs: self.jobs.iter().map(JobSpec::to_job).collect(),
            default_partitioner: self.default_partitioner.clone(),
        }
    }
}

/// How one job of a [`BatchResponse`] ended. Serializes as
/// `"ok"` / `"failed"` / `"panicked"` / `"timed-out"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The job completed; its stat fields are populated.
    #[serde(rename = "ok")]
    Ok,
    /// The job returned an error (see the `error` field).
    #[serde(rename = "failed")]
    Failed,
    /// The job panicked; the worker caught it (see the `error` field).
    #[serde(rename = "panicked")]
    Panicked,
    /// The job exceeded its per-attempt time budget (see the `error`
    /// field).
    #[serde(rename = "timed-out")]
    TimedOut,
}

impl JobOutcome {
    /// The outcome `status` reports, with its error message.
    fn of(status: &JobStatus) -> (Self, Option<String>) {
        match status {
            JobStatus::Ok => (Self::Ok, None),
            JobStatus::Failed(e) => (Self::Failed, Some(e.clone())),
            JobStatus::Panicked(e) => (Self::Panicked, Some(e.clone())),
            JobStatus::TimedOut(e) => (Self::TimedOut, Some(e.clone())),
        }
    }
}

/// One pipeline stage's wall-clock time in a response (`stages_ms`
/// arrays). Only present when timings were requested.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMs {
    /// Which stage.
    pub stage: Stage,
    /// Wall-clock milliseconds, rounded to 3 decimals.
    pub ms: f64,
    /// The stage's one-line outcome ("2 partitions", "33 samples", …).
    pub detail: String,
}

/// Per-stage aggregate over a whole batch (runs, total and slowest run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// How many jobs ran this stage.
    pub runs: usize,
    /// Milliseconds summed over all runs.
    pub total_ms: f64,
    /// The single slowest run, in milliseconds.
    pub max_ms: f64,
}

/// One row of a [`BatchResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResponse {
    /// The job's display name.
    pub name: String,
    /// The strategy that actually ran (after default resolution).
    pub partitioner: String,
    /// How the job ended.
    pub status: JobOutcome,
    /// The error message, for failed/panicked/timed-out jobs.
    pub error: Option<String>,
    /// Retry attempts consumed beyond the first try; omitted when 0 so
    /// retry-free reports keep their historical byte layout.
    pub retries: Option<u32>,
    /// Inner blocks before partitioning (successful jobs only).
    pub inner_before: Option<usize>,
    /// Inner blocks after partitioning.
    pub inner_after: Option<usize>,
    /// Programmable blocks produced.
    pub partitions: Option<usize>,
    /// Whether the strategy ran to completion.
    pub complete: Option<bool>,
    /// Whether equivalence verification ran and passed.
    pub verified: Option<bool>,
    /// Total bytes of emitted C.
    pub c_bytes: Option<usize>,
    /// Error-severity lint findings; omitted when lint was off or found
    /// none, so lint-free reports keep their historical byte layout.
    pub lint_errors: Option<usize>,
    /// Warning-severity lint findings; omitted when lint was off or
    /// found none.
    pub lint_warnings: Option<usize>,
    /// Lint findings carrying a machine-applicable fix; omitted when
    /// lint was off or none were fixable.
    pub lint_fixes: Option<usize>,
    /// Per-stage wall-clock times; only with timings.
    pub stages_ms: Option<Vec<StageMs>>,
    /// Whole-job wall-clock milliseconds; only with timings.
    pub elapsed_ms: Option<f64>,
}

impl JobResponse {
    fn from_report(report: &JobReport, timings: bool) -> Self {
        let (status, error) = JobOutcome::of(&report.status);
        let stats = report.stats.as_ref();
        Self {
            name: report.name.clone(),
            partitioner: report.partitioner.clone(),
            status,
            error,
            retries: (report.retries > 0).then_some(report.retries),
            inner_before: stats.map(|s| s.inner_before),
            inner_after: stats.map(|s| s.inner_after),
            partitions: stats.map(|s| s.partitions),
            complete: stats.map(|s| s.complete),
            verified: stats.map(|s| s.verified),
            c_bytes: stats.map(|s| s.c_bytes),
            lint_errors: stats
                .and_then(|s| s.lint)
                .map(|l| l.errors)
                .filter(|&n| n > 0),
            lint_warnings: stats
                .and_then(|s| s.lint)
                .map(|l| l.warnings)
                .filter(|&n| n > 0),
            lint_fixes: stats
                .and_then(|s| s.lint)
                .map(|l| l.fix_count())
                .filter(|&n| n > 0),
            stages_ms: stats.filter(|_| timings).map(|s| stage_ms_rows(&s.timings)),
            elapsed_ms: timings.then(|| ms(report.elapsed)),
        }
    }
}

/// Batch-level aggregates of a [`BatchResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Total jobs in the batch.
    pub jobs: usize,
    /// Jobs that completed successfully.
    pub succeeded: usize,
    /// Jobs that failed, panicked, or timed out.
    pub failed: usize,
    /// Sum of per-job retry counts; omitted when no job retried so
    /// retry-free reports keep their historical byte layout.
    pub retries: Option<u32>,
    /// Sum of per-job `inner_before` over successful jobs.
    pub inner_before: usize,
    /// Sum of per-job `inner_after` over successful jobs.
    pub inner_after: usize,
    /// Sum of per-job `partitions` over successful jobs.
    pub partitions: usize,
    /// Sum of per-job `c_bytes` over successful jobs.
    pub c_bytes: usize,
    /// Sum of per-job lint errors; omitted when zero so lint-free
    /// reports keep their historical byte layout.
    pub lint_errors: Option<usize>,
    /// Sum of per-job lint warnings; omitted when zero.
    pub lint_warnings: Option<usize>,
    /// Sum of per-job machine-fixable lint findings; omitted when zero.
    pub lint_fixes: Option<usize>,
    /// Workers the pool used; only with timings.
    pub workers: Option<usize>,
    /// Batch wall-clock milliseconds; only with timings.
    pub elapsed_ms: Option<f64>,
    /// Per-stage aggregates over all jobs; only with timings.
    pub stages: Option<Vec<StageSummary>>,
}

/// A whole batch run as it would leave over RPC: aggregates plus one
/// [`JobResponse`] per job, in submission order.
///
/// With timings off (the default) every field is deterministic, so the
/// serialized response is byte-identical across worker counts and runs —
/// the property the CLI's golden-report test pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResponse {
    /// Batch-level aggregates.
    pub batch: BatchSummary,
    /// Per-job rows, in submission order.
    pub results: Vec<JobResponse>,
}

impl BatchResponse {
    /// A response view of `report`. `options.timings` populates the
    /// wall-clock fields (and makes the output nondeterministic).
    pub fn from_report(report: &BatchReport, options: &JsonOptions) -> Self {
        let timings = options.timings;
        let sum = |f: fn(&crate::report::JobStats) -> usize| -> usize {
            report
                .jobs
                .iter()
                .filter_map(|j| j.stats.as_ref())
                .map(f)
                .sum()
        };
        let retries: u32 = report.jobs.iter().map(|j| j.retries).sum();
        let lint_sum = |f: fn(&eblocks_lint::LintOutcome) -> usize| -> usize {
            report
                .jobs
                .iter()
                .filter_map(|j| j.stats.as_ref())
                .filter_map(|s| s.lint.as_ref())
                .map(f)
                .sum()
        };
        let lint_errors = lint_sum(|l| l.errors);
        let lint_warnings = lint_sum(|l| l.warnings);
        let lint_fixes = lint_sum(|l| l.fix_count());
        Self {
            batch: BatchSummary {
                jobs: report.jobs.len(),
                succeeded: report.succeeded(),
                failed: report.failed(),
                retries: (retries > 0).then_some(retries),
                inner_before: sum(|s| s.inner_before),
                inner_after: sum(|s| s.inner_after),
                partitions: sum(|s| s.partitions),
                c_bytes: sum(|s| s.c_bytes),
                lint_errors: (lint_errors > 0).then_some(lint_errors),
                lint_warnings: (lint_warnings > 0).then_some(lint_warnings),
                lint_fixes: (lint_fixes > 0).then_some(lint_fixes),
                workers: timings.then_some(report.workers),
                elapsed_ms: timings.then(|| ms(report.elapsed)),
                stages: timings.then(|| ServeStats::summarize_stages(&report.stage_stats())),
            },
            results: report
                .jobs
                .iter()
                .map(|job| JobResponse::from_report(job, timings))
                .collect(),
        }
    }
}

/// One design through the full synthesis pipeline, as a typed request.
///
/// The single-design sibling of [`BatchRequest`] — what `eblocks-cli
/// synth` builds from its argv, and what a synthesis RPC endpoint would
/// accept.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthRequest {
    /// Where the design comes from.
    pub source: DesignSource,
    /// Strategy name; `None` means [`DEFAULT_PARTITIONER`].
    pub partitioner: Option<String>,
    /// Pipeline knobs. `mode` must be absent or `"synth"`: a synth
    /// request always runs the full pipeline (use a [`BatchRequest`] job
    /// with `"mode": "partition"` for partition-only analysis).
    #[serde(default)]
    pub options: SynthOptions,
}

impl SynthRequest {
    /// A request over `source` with everything else defaulted.
    pub fn new(source: DesignSource) -> Self {
        Self {
            source,
            partitioner: None,
            options: SynthOptions::default(),
        }
    }

    /// The farm [`Job`] this request describes.
    pub fn to_job(&self) -> Job {
        JobSpec {
            name: None,
            source: self.source.clone(),
            partitioner: self.partitioner.clone(),
            options: self.options,
        }
        .to_job()
    }
}

/// One emitted C program of a [`SynthResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CSource {
    /// The programmable block the program targets (`prog0`, …).
    pub block: String,
    /// The C source text.
    pub code: String,
}

/// Everything one [`synthesize`] call produced: stats, the synthesized
/// netlist text, and the per-block C programs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthResponse {
    /// The original design's name.
    pub design: String,
    /// The synthesized design's name (the netlist text's `design` header).
    pub synthesized: String,
    /// The strategy that ran.
    pub partitioner: String,
    /// Inner blocks before partitioning.
    pub inner_before: usize,
    /// Inner blocks after partitioning.
    pub inner_after: usize,
    /// Programmable blocks produced.
    pub partitions: usize,
    /// Whether the strategy ran to completion.
    pub complete: bool,
    /// Sample count at which equivalence was verified; `None` when
    /// verification was skipped.
    pub verified_samples: Option<usize>,
    /// Error-severity lint findings; omitted when lint was off or found
    /// none (a deny level of `"errors"` rejects before reaching here).
    pub lint_errors: Option<usize>,
    /// Warning-severity lint findings; omitted when lint was off or
    /// found none.
    pub lint_warnings: Option<usize>,
    /// The synthesized design, in netlist text format.
    pub netlist: String,
    /// One C program per programmable block.
    pub c_sources: Vec<CSource>,
    /// Per-stage wall-clock times (always populated; wall-clock, so not
    /// deterministic).
    pub stages_ms: Vec<StageMs>,
}

/// Runs `request` through the full pipeline under [`FarmConfig::default`]
/// (built-in strategies, one attempt, no deadline).
///
/// # Errors
///
/// A human-readable message: unknown strategy, unreadable/invalid design,
/// pipeline failure, or failed equivalence verification.
pub fn synthesize(request: &SynthRequest) -> Result<SynthResponse, String> {
    synthesize_with(request, &FarmConfig::default())
}

/// [`synthesize`] under `config`, as job 0 of the farm's attempt loop: its
/// registry, lint default, deadline, retry budget, injected faults and
/// panic isolation apply as to a batch job, and a timeout or a panic is
/// the request's error.
pub fn synthesize_with(
    request: &SynthRequest,
    config: &FarmConfig,
) -> Result<SynthResponse, String> {
    if request.options.mode == Some(JobMode::Partition) {
        return Err(
            "a synth request runs the full pipeline; use a batch job with \"mode\": \"partition\" for partition-only analysis"
                .to_string(),
        );
    }
    let partitioner = request
        .partitioner
        .as_deref()
        .unwrap_or(DEFAULT_PARTITIONER);
    let (outcome, _) = run_attempts(&request.to_job(), 0, partitioner, config);
    let run = outcome.map_err(|status| match status {
        JobStatus::Panicked(message) => format!("job panicked: {message}"),
        other => other.error().unwrap_or_default().to_string(),
    })?;
    let JobOutput::Synth(result) = run.output else {
        unreachable!("a synth request's job runs in synth mode");
    };

    Ok(SynthResponse {
        design: run.design.name().to_string(),
        synthesized: result.synthesized.name().to_string(),
        partitioner: partitioner.to_string(),
        inner_before: result.inner_before(),
        inner_after: result.inner_after(),
        partitions: result.partitioning.num_partitions(),
        complete: result.partitioning.is_complete(),
        verified_samples: result.report.as_ref().map(|r| r.sample_times.len()),
        lint_errors: result.lint.map(|l| l.errors).filter(|&n| n > 0),
        lint_warnings: result.lint.map(|l| l.warnings).filter(|&n| n > 0),
        netlist: eblocks_core::netlist::to_netlist(&result.synthesized),
        c_sources: result
            .c_sources
            .into_iter()
            .map(|(block, code)| CSource { block, code })
            .collect(),
        stages_ms: stage_ms_rows(&run.timings),
    })
}

// --------------------------------------------------------------- serve
// The service-mode envelope: what a long-running daemon (`eblocks-serve`)
// speaks over its line-delimited socket protocol, wrapping the request
// and response types above. Spool-directory traffic uses the bare
// payloads (a `BatchRequest` file in, a `BatchResponse` file out); the
// envelope exists so one socket connection can multiplex requests by id
// and interleave streamed progress with final replies.

/// One line of the socket protocol, client → server: an optional request
/// id (echoed on every reply; the server assigns `r0`, `r1`, … when
/// absent) plus the request itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed on every reply to this
    /// request.
    pub id: Option<String>,
    /// The request.
    pub request: ServeRequest,
}

/// Everything a service-mode front end accepts. Externally tagged:
/// payload requests arrive as `{"batch": {...}}` / `{"synth": {...}}`,
/// control requests as the bare strings `"stats"` / `"shutdown"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeRequest {
    /// Run a whole batch ([`BatchRequest`]) and reply with a
    /// [`BatchResponse`].
    #[serde(rename = "batch")]
    Batch(BatchRequest),
    /// Run one design through the full pipeline ([`SynthRequest`]) and
    /// reply with a [`SynthResponse`].
    #[serde(rename = "synth")]
    Synth(SynthRequest),
    /// Report the daemon's [`ServeStats`]; answered immediately, never
    /// queued.
    #[serde(rename = "stats")]
    Stats,
    /// Begin a graceful drain: stop admitting, finish everything already
    /// accepted, flush the outbox, exit 0.
    #[serde(rename = "shutdown")]
    Shutdown,
}

/// One line of the socket protocol, server → client: the request's id
/// plus one reply. A queued request produces an `admission` reply
/// immediately, zero or more `progress` replies while it runs, and
/// exactly one final `batch`/`synth`/`error` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplyEnvelope {
    /// The id of the request this reply answers (`None` only for errors
    /// that could not be matched to a request, e.g. unparseable lines).
    pub id: Option<String>,
    /// The reply.
    pub reply: ServeReply,
}

/// Everything the service-mode daemon sends back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeReply {
    /// The admission verdict for a payload request, sent before any work
    /// happens.
    #[serde(rename = "admission")]
    Admission(AdmissionReply),
    /// A streamed per-job progress event for an accepted batch.
    #[serde(rename = "progress")]
    Progress(ProgressEvent),
    /// The final reply to an accepted `batch` request.
    #[serde(rename = "batch")]
    Batch(BatchResponse),
    /// The final reply to an accepted `synth` request.
    #[serde(rename = "synth")]
    Synth(SynthResponse),
    /// The reply to a `stats` request.
    #[serde(rename = "stats")]
    Stats(ServeStats),
    /// A request that failed outside the farm (unparseable line, synth
    /// error, rejected at admission after acceptance was impossible).
    #[serde(rename = "error")]
    Error(String),
    /// Acknowledges a `shutdown` request; the daemon drains and exits.
    #[serde(rename = "shutdown")]
    Shutdown,
}

/// The admission verdict for a payload request: `"accepted"`,
/// `"queue-full"`, or `"lint-rejected"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// The request is in the work queue; a final reply will follow.
    #[serde(rename = "accepted")]
    Accepted,
    /// The bounded work queue is full; retry later. No work was done.
    #[serde(rename = "queue-full")]
    QueueFull,
    /// The admission lint gate rejected a design before any synthesis
    /// ran; `detail` names the offending job.
    #[serde(rename = "lint-rejected")]
    LintRejected,
}

/// The admission reply for a payload request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionReply {
    /// The verdict.
    pub status: Admission,
    /// Human-readable context for rejections (which job, which lint
    /// findings); omitted on acceptance.
    pub detail: Option<String>,
}

/// Which edge of a job's execution a [`ProgressEvent`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgressKind {
    /// A worker claimed the job and is about to run it.
    #[serde(rename = "started")]
    Started,
    /// The job finished; `status`/`error` say how.
    #[serde(rename = "finished")]
    Finished,
}

/// One streamed per-job progress event, mirrored from the farm's
/// `BatchProgress` callbacks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// The job's index in submission order.
    pub job: usize,
    /// The job's display name.
    pub name: String,
    /// Started or finished.
    pub event: ProgressKind,
    /// How the job ended; only on `finished` events.
    pub status: Option<JobOutcome>,
    /// The error message for failed/panicked/timed-out jobs.
    pub error: Option<String>,
}

impl ProgressEvent {
    /// The `started` event for `job` at `index`.
    pub fn started(index: usize, job: &Job) -> Self {
        Self {
            job: index,
            name: job.name.clone(),
            event: ProgressKind::Started,
            status: None,
            error: None,
        }
    }

    /// The `finished` event for `report` at `index`.
    pub fn finished(index: usize, report: &JobReport) -> Self {
        let (status, error) = JobOutcome::of(&report.status);
        Self {
            job: index,
            name: report.name.clone(),
            event: ProgressKind::Finished,
            status: Some(status),
            error,
        }
    }
}

/// A snapshot of the daemon's counters, answered for `stats` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests waiting in the bounded work queue.
    pub queue_depth: usize,
    /// Requests a worker is executing right now.
    pub in_flight: usize,
    /// Payload requests admitted to the queue since startup.
    pub accepted: u64,
    /// Payload requests turned away (queue full, lint rejection,
    /// malformed spool files) since startup.
    pub rejected: u64,
    /// Accepted requests fully answered since startup.
    pub completed: u64,
    /// Per-stage wall-clock aggregates over every job the daemon has
    /// completed (wall-clock, so not deterministic).
    pub stages: Vec<StageSummary>,
}

impl ServeStats {
    /// One [`StageSummary`] row per stage aggregate, in the order given:
    /// pipeline stage order for the aggregates [`StageTimings::summarize`]
    /// and [`StageStat::accumulate`] build.
    pub fn summarize_stages(stats: &[StageStat]) -> Vec<StageSummary> {
        stats
            .iter()
            .map(|stat| StageSummary {
                stage: stat.stage,
                runs: stat.runs,
                total_ms: ms(stat.total),
                max_ms: ms(stat.max),
            })
            .collect()
    }
}

/// The structured error file the spool front end writes next to a
/// rejected input (and the outbox payload for requests that failed
/// outside the farm): `{"error": "..."}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// What went wrong, human-readable.
    pub error: String,
}

/// Milliseconds rounded to 3 decimals (the precision the old hand-rolled
/// emitter printed).
fn ms(d: std::time::Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

fn stage_ms_rows(timings: &StageTimings) -> Vec<StageMs> {
    timings
        .reports
        .iter()
        .map(|r| StageMs {
            stage: r.stage,
            ms: ms(r.elapsed),
            detail: r.detail.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_batch, FarmConfig};

    fn request_json() -> &'static str {
        r#"{
            "default_partitioner": "refine",
            "jobs": [
                {"source": {"library": "Ignition Illuminator"}},
                {"name": "g10",
                 "source": {"generated": {"inner": 10, "seed": 3}},
                 "partitioner": "aggregation",
                 "options": {"mode": "partition", "verify": false}}
            ]
        }"#
    }

    #[test]
    fn requests_parse_and_convert() {
        let request: BatchRequest = serde::json::from_str(request_json()).unwrap();
        assert_eq!(request.default_partitioner.as_deref(), Some("refine"));
        assert_eq!(request.jobs.len(), 2);
        let batch = request.to_batch();
        assert_eq!(batch.jobs[0].name, "Ignition Illuminator");
        assert_eq!(batch.jobs[0].mode, JobMode::Synth);
        assert!(batch.jobs[0].verify, "unset options keep engine defaults");
        assert_eq!(batch.jobs[1].name, "g10");
        assert_eq!(batch.jobs[1].mode, JobMode::Partition);
        assert!(!batch.jobs[1].verify);
        assert_eq!(batch.jobs[1].partitioner.as_deref(), Some("aggregation"));

        // Request JSON re-serialization is byte-stable.
        let text = serde::json::to_string(&request);
        let back: BatchRequest = serde::json::from_str(&text).unwrap();
        assert_eq!(serde::json::to_string(&back), text);
    }

    #[test]
    fn request_errors_carry_paths() {
        let err = serde::json::from_str::<BatchRequest>(
            r#"{"default_partitioner": null, "jobs": [{"source": {"libary": "X"}}]}"#,
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("jobs[0].source"), "{text}");
        assert!(text.contains("unknown variant `libary`"), "{text}");
        assert!(text.contains("netlist, library, generated"), "{text}");

        let err = serde::json::from_str::<BatchRequest>(r#"{"jobs": [{}]}"#).unwrap_err();
        assert!(
            err.to_string().contains("missing field `source`"),
            "{}",
            err
        );
    }

    #[test]
    fn response_round_trips_through_json() {
        let request: BatchRequest = serde::json::from_str(request_json()).unwrap();
        let report = run_batch(&request.to_batch(), &FarmConfig::with_workers(2));
        assert!(report.all_ok(), "{}", report.render_text(false));

        for options in [JsonOptions::default(), JsonOptions { timings: true }] {
            let response = BatchResponse::from_report(&report, &options);
            let text = serde::json::to_string(&response);
            let back: BatchResponse = serde::json::from_str(&text).unwrap();
            assert_eq!(back, response);
            assert_eq!(serde::json::to_string(&back), text);
        }

        let deterministic = BatchResponse::from_report(&report, &JsonOptions::default());
        assert_eq!(deterministic.batch.workers, None);
        assert_eq!(deterministic.batch.elapsed_ms, None);
        assert_eq!(deterministic.results[0].status, JobOutcome::Ok);
        assert_eq!(deterministic.results[0].error, None);
        assert!(deterministic.results[0].c_bytes.unwrap() > 0);
        assert_eq!(
            deterministic.results[1].c_bytes,
            Some(0),
            "partition mode emits no C"
        );

        let timed = BatchResponse::from_report(&report, &JsonOptions { timings: true });
        assert_eq!(timed.batch.workers, Some(2));
        let stages = timed.batch.stages.as_ref().unwrap();
        assert_eq!(stages[0].stage, Stage::Partition);
        assert_eq!(stages[0].runs, 2);
    }

    #[test]
    fn lint_options_round_trip_and_surface_counts() {
        // `lint_deny` alone implies lint on.
        let spec: JobSpec = serde::json::from_str(
            r#"{"source": {"library": "Ignition Illuminator"},
                "options": {"lint_deny": "warnings"}}"#,
        )
        .unwrap();
        let job = spec.to_job();
        assert_eq!(job.lint.map(|c| c.deny), Some(DenyLevel::Warnings));

        // An explicit `lint: false` wins over a stray deny level.
        let spec: JobSpec = serde::json::from_str(
            r#"{"source": {"library": "Ignition Illuminator"},
                "options": {"lint": false, "lint_deny": "warnings"}}"#,
        )
        .unwrap();
        assert_eq!(spec.to_job().lint, None);

        // A linted clean job omits the count fields entirely, so
        // committed goldens are untouched by turning lint on.
        let request: BatchRequest = serde::json::from_str(
            r#"{"default_partitioner": null, "jobs": [
                {"source": {"library": "Ignition Illuminator"},
                 "options": {"lint": true}}
            ]}"#,
        )
        .unwrap();
        let report = run_batch(&request.to_batch(), &FarmConfig::with_workers(1));
        assert!(report.all_ok(), "{}", report.render_text(false));
        let response = BatchResponse::from_report(&report, &JsonOptions::default());
        assert_eq!(response.results[0].lint_errors, None);
        assert_eq!(response.results[0].lint_warnings, None);
        assert_eq!(response.batch.lint_errors, None);
        let text = serde::json::to_string(&response);
        assert!(!text.contains("lint"), "clean report layout: {text}");
    }

    #[test]
    fn synth_request_runs_end_to_end() {
        let request: SynthRequest = serde::json::from_str(
            r#"{"source": {"library": "Ignition Illuminator"}, "partitioner": "refine"}"#,
        )
        .unwrap();
        let response = synthesize(&request).unwrap();
        assert_eq!(response.design, "ignition-illuminator");
        assert_eq!(response.partitioner, "refine");
        assert_eq!(response.inner_before, 2);
        assert_eq!(response.inner_after, 1);
        assert!(response.verified_samples.unwrap() > 0);
        assert!(
            response.netlist.contains("programmable"),
            "{}",
            response.netlist
        );
        assert!(response.c_sources[0].code.contains("eblock_on_input"));
        assert!(!response.stages_ms.is_empty());
        // The response round-trips through JSON.
        let text = serde::json::to_string(&response);
        let back: SynthResponse = serde::json::from_str(&text).unwrap();
        assert_eq!(back, response);

        // Verification can be skipped through the options.
        let mut request = request;
        request.options.verify = Some(false);
        let response = synthesize(&request).unwrap();
        assert_eq!(response.verified_samples, None);
    }

    #[test]
    fn synth_requests_run_through_the_attempt_loop() {
        use crate::{Fault, FaultInjector};
        use eblocks_synth::StageAbort;
        use std::sync::Arc;
        use std::time::Duration;

        /// Enacts its fault before the partition stage of attempt 0 of
        /// job 0, the coordinates a synth request runs at.
        struct FirstAttempt(Fault);

        impl FaultInjector for FirstAttempt {
            fn before_stage(&self, job: usize, attempt: u32, stage: Stage) -> Option<Fault> {
                ((job, attempt, stage) == (0, 0, Stage::Partition)).then(|| self.0.clone())
            }
        }

        let request = SynthRequest::new(DesignSource::Library("Ignition Illuminator".into()));
        let abort = || {
            Arc::new(FirstAttempt(Fault::Abort(StageAbort::fault(
                "injected fault",
            ))))
        };

        // A retry budget absorbs the aborted first attempt: the response
        // is a fault-free run's, stage times aside.
        let config = FarmConfig::default().retries(1).inject(abort());
        let mut response = synthesize_with(&request, &config).unwrap();
        let mut expected = synthesize(&request).unwrap();
        response.stages_ms.clear();
        expected.stages_ms.clear();
        assert_eq!(response, expected);

        // Without one, the abort is the request's error.
        let err = synthesize_with(&request, &FarmConfig::default().inject(abort())).unwrap_err();
        assert_eq!(err, "stage partition aborted: injected fault");

        // A panic inside the job comes back as the error; it does not
        // unwind out of the call.
        let panic = Arc::new(FirstAttempt(Fault::Panic("injected panic".into())));
        let err = synthesize_with(&request, &FarmConfig::default().inject(panic)).unwrap_err();
        assert_eq!(err, "job panicked: injected panic");

        // A zero deadline times the request out at its first stage.
        let config = FarmConfig::default().timeout(Duration::ZERO);
        let err = synthesize_with(&request, &config).unwrap_err();
        assert_eq!(err, "job timed out before partition (limit 0ns)");
    }

    #[test]
    fn serve_envelopes_round_trip() {
        // Control requests are bare strings, payload requests tagged
        // objects — both through the same externally-tagged enum.
        let stats: RequestEnvelope =
            serde::json::from_str(r#"{"id": "r1", "request": "stats"}"#).unwrap();
        assert_eq!(stats.request, ServeRequest::Stats);
        let text = serde::json::to_string(&stats);
        assert_eq!(text, r#"{"id":"r1","request":"stats"}"#);

        let batch: RequestEnvelope = serde::json::from_str(
            r#"{"request": {"batch": {"default_partitioner": null, "jobs": [
                {"source": {"library": "Ignition Illuminator"}}
            ]}}}"#,
        )
        .unwrap();
        assert_eq!(batch.id, None);
        let ServeRequest::Batch(request) = &batch.request else {
            panic!("{:?}", batch.request);
        };
        assert_eq!(request.jobs.len(), 1);
        let text = serde::json::to_string(&batch);
        let back: RequestEnvelope = serde::json::from_str(&text).unwrap();
        assert_eq!(back, batch);

        // Replies round-trip the same way, including the nested
        // BatchResponse payload.
        let report = run_batch(&request.to_batch(), &FarmConfig::with_workers(1));
        let reply = ReplyEnvelope {
            id: Some("r1".into()),
            reply: ServeReply::Batch(BatchResponse::from_report(&report, &JsonOptions::default())),
        };
        let text = serde::json::to_string(&reply);
        let back: ReplyEnvelope = serde::json::from_str(&text).unwrap();
        assert_eq!(back, reply);
        assert_eq!(serde::json::to_string(&back), text);

        for reply in [
            ServeReply::Admission(AdmissionReply {
                status: Admission::QueueFull,
                detail: Some("queue at capacity 4".into()),
            }),
            ServeReply::Error("boom".into()),
            ServeReply::Shutdown,
            ServeReply::Stats(ServeStats {
                queue_depth: 1,
                in_flight: 2,
                accepted: 3,
                rejected: 4,
                completed: 5,
                stages: Vec::new(),
            }),
        ] {
            let envelope = ReplyEnvelope { id: None, reply };
            let text = serde::json::to_string(&envelope);
            let back: ReplyEnvelope = serde::json::from_str(&text).unwrap();
            assert_eq!(back, envelope);
        }
    }

    #[test]
    fn serve_envelopes_reject_unknown_keys_and_variants() {
        let err = serde::json::from_str::<RequestEnvelope>(
            r#"{"id": "r1", "request": "stats", "priority": 9}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown field `priority`"),
            "{err}"
        );

        let err = serde::json::from_str::<RequestEnvelope>(r#"{"request": "reboot"}"#).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("unknown variant `reboot`"), "{text}");
        assert!(text.contains("batch, synth, stats, shutdown"), "{text}");

        // A payload variant written as a bare string gets a pointed
        // error, not "unknown variant".
        let err = serde::json::from_str::<RequestEnvelope>(r#"{"request": "batch"}"#).unwrap_err();
        assert!(err.to_string().contains("takes a payload"), "{err}");

        let err = serde::json::from_str::<ReplyEnvelope>(
            r#"{"id": null, "reply": {"admission": {"status": "accepted", "rank": 1}}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown field `rank`"), "{err}");
    }

    #[test]
    fn progress_events_mirror_job_reports() {
        let job = Job::library("Ignition Illuminator");
        let event = ProgressEvent::started(3, &job);
        assert_eq!(event.event, ProgressKind::Started);
        assert_eq!(event.name, "Ignition Illuminator");
        assert_eq!(event.status, None);

        let report = JobReport {
            name: job.name.clone(),
            partitioner: "pare-down".into(),
            status: JobStatus::TimedOut("too slow".into()),
            elapsed: std::time::Duration::ZERO,
            retries: 2,
            stats: None,
        };
        let event = ProgressEvent::finished(3, &report);
        assert_eq!(event.status, Some(JobOutcome::TimedOut));
        assert_eq!(event.error.as_deref(), Some("too slow"));
        let text = serde::json::to_string(&event);
        assert!(text.contains(r#""event":"finished""#), "{text}");
        let back: ProgressEvent = serde::json::from_str(&text).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn synth_request_rejects_partition_mode_and_bad_strategies() {
        let mut request = SynthRequest::new(DesignSource::Library("Ignition Illuminator".into()));
        request.options.mode = Some(JobMode::Partition);
        let err = synthesize(&request).unwrap_err();
        assert!(err.contains("batch"), "{err}");

        let request = SynthRequest {
            partitioner: Some("magic".into()),
            ..SynthRequest::new(DesignSource::Library("Ignition Illuminator".into()))
        };
        let err = synthesize(&request).unwrap_err();
        assert!(err.contains("unknown partitioner `magic`"), "{err}");

        let request = SynthRequest::new(DesignSource::Library("No Such Design".into()));
        let err = synthesize(&request).unwrap_err();
        assert!(err.contains("unknown library design"), "{err}");
    }
}
