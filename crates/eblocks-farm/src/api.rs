//! The typed request/response API for synthesis — the surface an RPC
//! server (or spool-directory watcher) would speak, and the one the CLI's
//! `batch --json` / `synth` commands are thin front ends for.
//!
//! Everything here is derive-serialized through the vendored `serde`'s
//! [`Value`](serde::Value) tree, so a batch can arrive as JSON (manifest
//! format v2, [`BatchRequest::from_json`]) and a report leaves as JSON
//! through the same types:
//!
//! * **Requests** are the farm's only job model: [`BatchRequest`] (a list
//!   of [`JobSpec`]s plus a default strategy) runs as is through
//!   [`run_batch`](crate::run_batch), and [`SynthRequest`] (one design
//!   through the full pipeline) runs as one job of the farm's attempt loop
//!   by [`synthesize_with`]. [`DesignSource`] names where a design comes
//!   from; [`SynthOptions`] carries the optional pipeline knobs — every
//!   field is optional, and omitted fields keep the engine defaults.
//! * **Responses** are the farm's only result model: [`BatchResponse`]
//!   (what `run_batch` returns, one [`JobResponse`] row per job) and
//!   [`SynthResponse`] (stats plus the synthesized netlist text and C
//!   sources). `run_batch` fills every field, wall-clock ones included;
//!   [`BatchResponse::from_report`] is the deterministic view that clears
//!   them, byte-identical across worker counts.
//!
//! # Example
//!
//! A request parsed from JSON is what `run_batch` consumes:
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
//! let report = run_batch(&request, &FarmConfig::with_workers(2));
//! assert_eq!(report.batch.workers, Some(2));
//! let response = BatchResponse::from_report(&report, &JsonOptions::default());
//! assert_eq!(response.batch.succeeded, 2);
//! assert_eq!(response.batch.workers, None);
//! println!("{}", serde::json::to_string(&response));
//! ```

use crate::scheduler::{run_attempts, FarmConfig, JobOutput};
use eblocks_core::Design;
use eblocks_lint::DenyLevel;
use eblocks_partition::DEFAULT_PARTITIONER;
use eblocks_synth::{Stage, StageTimings};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

/// The largest `inner` a [`DesignSource::Generated`] may ask for: about
/// twice the paper's largest design (465 inner blocks; Table 2 stops at
/// 45). The generator allocates per inner block up front, so a request
/// from outside must not pick the size unchecked.
pub const MAX_GENERATED_INNER: usize = 1_000;

/// The bounded reader every front end shares, re-exported for the daemon,
/// which does not depend on `eblocks-core`.
pub use eblocks_core::input::{read_input, MAX_INPUT_BYTES};

/// Where a job's design comes from: `{"netlist": "path"}`,
/// `{"library": "Name"}`, or `{"generated": {"inner": 20, "seed": 7}}`
/// (`seed` defaults to 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DesignSource {
    /// A netlist file on disk (parsed with
    /// [`eblocks_core::netlist::from_netlist`]).
    #[serde(rename = "netlist")]
    Netlist(PathBuf),
    /// A Table-1 library design, looked up by name via
    /// [`eblocks_designs::by_name`].
    #[serde(rename = "library")]
    Library(String),
    /// A seeded random design from [`eblocks_gen::generate`].
    #[serde(rename = "generated")]
    Generated {
        /// Target inner-block count, at most [`MAX_GENERATED_INNER`].
        inner: usize,
        /// Generator seed (same seed ⇒ same design).
        #[serde(default)]
        seed: u64,
    },
}

impl DesignSource {
    /// Loads the design: reads and parses a netlist file, looks up a
    /// library design, or runs the seeded generator. Public so front ends
    /// like the service mode's admission lint gate can inspect a design
    /// before committing the farm to running it.
    ///
    /// # Errors
    ///
    /// A human-readable message: unreadable, oversized (over
    /// [`MAX_INPUT_BYTES`]) or invalid netlist file, unknown library
    /// design, or a generated size over [`MAX_GENERATED_INNER`].
    pub fn load(&self) -> Result<Design, String> {
        match self {
            Self::Netlist(path) => {
                let text = eblocks_core::input::read_text(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                eblocks_core::netlist::from_netlist(&text).map_err(|e| e.to_string())
            }
            Self::Library(name) => eblocks_designs::by_name(name)
                .map(|entry| entry.design)
                .ok_or_else(|| format!("unknown library design `{name}`")),
            Self::Generated { inner, .. } if *inner > MAX_GENERATED_INNER => Err(format!(
                "generated design of {inner} inner blocks is over the limit of {MAX_GENERATED_INNER}"
            )),
            Self::Generated { inner, seed } => Ok(eblocks_gen::generate(
                &eblocks_gen::GeneratorConfig::new(*inner),
                *seed,
            )),
        }
    }

    /// The name a job over this source gets when it sets none: the file
    /// stem of the path as written, the library name, or
    /// `gen<inner>-<seed>`.
    pub fn default_name(&self) -> String {
        match self {
            Self::Netlist(path) => path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            Self::Library(name) => name.clone(),
            Self::Generated { inner, seed } => format!("gen{inner}-{seed}"),
        }
    }
}

/// How far a job runs the synthesis pipeline.
///
/// Serializes as `"synth"` / `"partition"`, matching the manifest `mode=`
/// tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum JobMode {
    /// The full pipeline ([`Pipeline::run`](eblocks_synth::Pipeline::run)):
    /// partition → merge → rewrite → (verify) → emit C.
    #[default]
    #[serde(rename = "synth")]
    Synth,
    /// Partition analysis only (the Tables 1–2 workload,
    /// [`Pipeline::partition_only`](eblocks_synth::Pipeline::partition_only))
    /// — no merge, rewrite, verification, or C emission.
    #[serde(rename = "partition")]
    Partition,
}

/// Optional pipeline knobs for one job. Every field is an `Option`;
/// omitted fields keep the engine defaults (synth mode, verify on,
/// optimize on, the paper's 2-in/2-out pin budget, the farm's lint
/// setting), which the farm's attempt loop resolves.
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
    /// Run the lint stage before synthesis. `false` turns it off whatever
    /// the farm's setting; unset (with no `lint_deny`) keeps the farm's
    /// [`FarmConfig::lint`], usually off.
    pub lint: Option<bool>,
    /// Which severities reject the design when lint runs:
    /// `"errors"` (default) or `"warnings"`. Implies `lint: true`
    /// unless `lint: false` is set explicitly.
    pub lint_deny: Option<DenyLevel>,
}

/// One job of a [`BatchRequest`]: a design source plus optional name,
/// strategy, and pipeline options.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Display name; defaults to the source's natural name
    /// ([`DesignSource::default_name`]).
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

    /// The name the job's report row carries: its own, or the source's
    /// default.
    pub fn display_name(&self) -> String {
        self.name
            .clone()
            .unwrap_or_else(|| self.source.default_name())
    }
}

/// A batch of jobs as it would arrive over RPC — manifest format v2, and
/// what [`run_batch`](crate::run_batch) runs.
///
/// [`BatchRequest::from_json`] parses one from JSON text,
/// [`BatchRequest::parse`] from a line manifest (v1), and
/// [`BatchRequest::from_file`] from either.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// Strategy for jobs that set none (the manifest's
    /// `default partitioner=…`). The engine-level override in
    /// [`FarmConfig`] takes precedence over this, a per-job `partitioner`
    /// over both; the built-in fallback is `pare-down`.
    pub default_partitioner: Option<String>,
    /// The jobs, in submission order (report rows keep this order).
    pub jobs: Vec<JobSpec>,
}

impl BatchRequest {
    /// A copy of the request. `run_batch` takes the request itself; this
    /// stays because the benchmark's serve check (`perfbench/`) calls it.
    pub fn to_batch(&self) -> Self {
        self.clone()
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

/// One pipeline stage's wall-clock time in a response (`stages_ms`
/// arrays).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMs {
    /// Which stage.
    pub stage: Stage,
    /// Wall-clock milliseconds, rounded to 3 decimals.
    pub ms: f64,
    /// The stage's one-line outcome ("2 partitions", "33 samples", …).
    pub detail: String,
}

/// Per-stage aggregate over many [`StageMs`] rows (runs, total and
/// slowest run): a batch's `stages` and the daemon's `stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// How many jobs ran this stage.
    pub runs: usize,
    /// Milliseconds summed over all runs, rounded to 3 decimals.
    pub total_ms: f64,
    /// The single slowest run, in milliseconds.
    pub max_ms: f64,
}

impl StageSummary {
    /// Folds `rows` into `stages`, a running aggregate with at most one
    /// entry per stage, kept in pipeline stage order: each row adds a run
    /// and its milliseconds, and the maximum is the slowest row.
    pub fn fold<'a>(stages: &mut Vec<StageSummary>, rows: impl IntoIterator<Item = &'a StageMs>) {
        for row in rows {
            match stages.binary_search_by_key(&row.stage, |s| s.stage) {
                Ok(i) => {
                    let entry = &mut stages[i];
                    entry.runs += 1;
                    entry.total_ms = round_ms(entry.total_ms + row.ms);
                    entry.max_ms = entry.max_ms.max(row.ms);
                }
                Err(i) => stages.insert(
                    i,
                    StageSummary {
                        stage: row.stage,
                        runs: 1,
                        total_ms: row.ms,
                        max_ms: row.ms,
                    },
                ),
            }
        }
    }
}

/// One row of a [`BatchResponse`]: how one job ended and what it
/// measured.
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
    /// Per-stage wall-clock times of a successful job; cleared by the
    /// deterministic view.
    pub stages_ms: Option<Vec<StageMs>>,
    /// Whole-job wall-clock milliseconds (load and pipeline, summed over
    /// every attempt); cleared by the deterministic view.
    pub elapsed_ms: Option<f64>,
}

impl JobResponse {
    /// A row for the job `name` that ran `partitioner` and ended with
    /// `status` and `error`, every measurement unset.
    pub(crate) fn new(
        name: String,
        partitioner: String,
        status: JobOutcome,
        error: Option<String>,
    ) -> Self {
        Self {
            name,
            partitioner,
            status,
            error,
            retries: None,
            inner_before: None,
            inner_after: None,
            partitions: None,
            complete: None,
            verified: None,
            c_bytes: None,
            lint_errors: None,
            lint_warnings: None,
            lint_fixes: None,
            stages_ms: None,
            elapsed_ms: None,
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
    /// Workers the pool used; cleared by the deterministic view.
    pub workers: Option<usize>,
    /// Batch wall-clock milliseconds; cleared by the deterministic view.
    pub elapsed_ms: Option<f64>,
    /// Per-stage aggregates over every row's `stages_ms`; cleared by the
    /// deterministic view.
    pub stages: Option<Vec<StageSummary>>,
}

/// A whole batch run: aggregates plus one [`JobResponse`] per job, in
/// submission order. [`run_batch`](crate::run_batch) returns it with
/// every field filled in.
///
/// Its deterministic view ([`BatchResponse::from_report`] with timings
/// off, what `to_json` prints by default) is byte-identical across
/// worker counts and runs — the property the CLI's golden-report test
/// pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResponse {
    /// Batch-level aggregates.
    pub batch: BatchSummary,
    /// Per-job rows, in submission order.
    pub results: Vec<JobResponse>,
}

impl BatchResponse {
    /// The response over `results`, rows in submission order, from a pool
    /// of `workers` that took `elapsed`: the rows' sums, counts and folded
    /// stage rows make the summary.
    pub(crate) fn new(results: Vec<JobResponse>, workers: usize, elapsed: Duration) -> Self {
        let sum = |field: fn(&JobResponse) -> Option<usize>| -> usize {
            results.iter().filter_map(field).sum()
        };
        let nonzero = |n: usize| (n > 0).then_some(n);
        let succeeded = results
            .iter()
            .filter(|row| row.status == JobOutcome::Ok)
            .count();
        let retries: u32 = results.iter().filter_map(|row| row.retries).sum();
        let mut stages = Vec::new();
        for row in &results {
            StageSummary::fold(&mut stages, row.stages_ms.iter().flatten());
        }
        Self {
            batch: BatchSummary {
                jobs: results.len(),
                succeeded,
                failed: results.len() - succeeded,
                retries: (retries > 0).then_some(retries),
                inner_before: sum(|row| row.inner_before),
                inner_after: sum(|row| row.inner_after),
                partitions: sum(|row| row.partitions),
                c_bytes: sum(|row| row.c_bytes),
                lint_errors: nonzero(sum(|row| row.lint_errors)),
                lint_warnings: nonzero(sum(|row| row.lint_warnings)),
                lint_fixes: nonzero(sum(|row| row.lint_fixes)),
                workers: Some(workers),
                elapsed_ms: Some(ms(elapsed)),
                stages: Some(stages),
            },
            results,
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
    let (outcome, _) = run_attempts(&request.source, &request.options, 0, partitioner, config);
    let run = outcome.map_err(|(status, message)| match status {
        JobOutcome::Panicked => format!("job panicked: {message}"),
        _ => message,
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
    pub fn started(index: usize, job: &JobSpec) -> Self {
        Self {
            job: index,
            name: job.display_name(),
            event: ProgressKind::Started,
            status: None,
            error: None,
        }
    }

    /// The `finished` event for the job at `index`, whose batch row is
    /// `row`.
    pub fn finished(index: usize, row: &JobResponse) -> Self {
        Self {
            job: index,
            name: row.name.clone(),
            event: ProgressKind::Finished,
            status: Some(row.status),
            error: row.error.clone(),
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
    /// completed, batch rows and synth requests alike (wall-clock, so not
    /// deterministic).
    pub stages: Vec<StageSummary>,
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
pub(crate) fn ms(d: Duration) -> f64 {
    round_ms(d.as_secs_f64() * 1e3)
}

/// `ms` rounded to 3 decimals, so sums of rounded rows stay rounded.
fn round_ms(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

pub(crate) fn stage_ms_rows(timings: &StageTimings) -> Vec<StageMs> {
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
    use crate::{run_batch, FarmConfig, JsonOptions};

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
    fn default_names_follow_the_source() {
        let name = |source: DesignSource| JobSpec::new(source).display_name();
        assert_eq!(
            name(DesignSource::Netlist("/tmp/deep/garage.netlist".into())),
            "garage"
        );
        assert_eq!(
            name(DesignSource::Library("Podium Timer 3".into())),
            "Podium Timer 3"
        );
        assert_eq!(
            name(DesignSource::Generated { inner: 20, seed: 7 }),
            "gen20-7"
        );
        let named = JobSpec {
            name: Some("pt3".into()),
            ..JobSpec::new(DesignSource::Library("Podium Timer 3".into()))
        };
        assert_eq!(named.display_name(), "pt3");
    }

    #[test]
    fn sources_load() {
        assert!(DesignSource::Library("Podium Timer 3".into())
            .load()
            .is_ok());
        assert!(DesignSource::Library("No Such Design".into())
            .load()
            .unwrap_err()
            .contains("unknown library design"));
        assert!(DesignSource::Netlist("/nonexistent/x.netlist".into())
            .load()
            .unwrap_err()
            .contains("cannot read"));
        let d = DesignSource::Generated { inner: 8, seed: 42 }
            .load()
            .unwrap();
        let same = eblocks_gen::generate(&eblocks_gen::GeneratorConfig::new(8), 42);
        assert_eq!(
            eblocks_core::netlist::to_netlist(&d),
            eblocks_core::netlist::to_netlist(&same),
            "generated source is seed-deterministic"
        );
    }

    #[test]
    fn oversized_netlists_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("eblocks-farm-oversized-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.netlist");
        std::fs::write(&path, vec![b'#'; MAX_INPUT_BYTES + 1]).unwrap();
        let source = DesignSource::Netlist(path.clone());
        let expected = format!(
            "cannot read {}: file is over the limit of 4194304 bytes",
            path.display()
        );
        assert_eq!(source.load().unwrap_err(), expected);
        let batch = BatchRequest {
            default_partitioner: None,
            jobs: vec![JobSpec::new(source)],
        };
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        let row = &report.results[0];
        assert_eq!(
            (row.status, row.error.as_deref()),
            (JobOutcome::Failed, Some(&*expected))
        );

        // At the limit the file loads: one comment line, an empty design.
        std::fs::write(&path, vec![b'#'; MAX_INPUT_BYTES]).unwrap();
        assert!(DesignSource::Netlist(path).load().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_generated_sources_are_refused() {
        // 2^40 inner blocks would ask the generator for terabytes up front.
        let source = DesignSource::Generated {
            inner: 1 << 40,
            seed: 0,
        };
        let expected = "generated design of 1099511627776 inner blocks is over the limit of 1000";
        assert_eq!(source.load().unwrap_err(), expected);
        assert_eq!(
            synthesize(&SynthRequest::new(source.clone())).unwrap_err(),
            expected
        );
        let batch = BatchRequest {
            default_partitioner: None,
            jobs: vec![JobSpec::new(source)],
        };
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        let row = &report.results[0];
        assert_eq!(
            (row.status, row.error.as_deref()),
            (JobOutcome::Failed, Some(expected))
        );

        // The limit itself still loads.
        let at_limit = DesignSource::Generated {
            inner: MAX_GENERATED_INNER,
            seed: 0,
        };
        assert!(at_limit.load().is_ok());
    }

    #[test]
    fn requests_parse_and_convert() {
        let request: BatchRequest = serde::json::from_str(request_json()).unwrap();
        assert_eq!(request.default_partitioner.as_deref(), Some("refine"));
        assert_eq!(request.jobs.len(), 2);
        let jobs = &request.jobs;
        assert_eq!(jobs[0].display_name(), "Ignition Illuminator");
        assert_eq!(jobs[0].options, SynthOptions::default());
        assert_eq!(jobs[1].display_name(), "g10");
        assert_eq!(jobs[1].options.mode, Some(JobMode::Partition));
        assert_eq!(jobs[1].options.verify, Some(false));
        assert_eq!(jobs[1].partitioner.as_deref(), Some("aggregation"));

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
        let report = run_batch(&request, &FarmConfig::with_workers(2));
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
        // The cross-block fixture lints to warnings only, so a job's deny
        // level alone decides whether it passes the gate.
        let netlist = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/lint-crossblock.netlist"
        );
        let job = |options: &str| {
            format!(
                r#"{{"source": {{"netlist": "{netlist}"}},
                    "options": {{"mode": "partition"{options}}}}}"#
            )
        };
        let jobs = [
            job(r#", "lint": true"#),
            job(r#", "lint_deny": "warnings""#),
            job(r#", "lint": false, "lint_deny": "warnings""#),
            job(""),
        ];
        let request: BatchRequest = serde::json::from_str(&format!(
            r#"{{"default_partitioner": null, "jobs": [{}]}}"#,
            jobs.join(", ")
        ))
        .unwrap();
        let text = serde::json::to_string(&request);
        assert_eq!(
            serde::json::from_str::<BatchRequest>(&text).unwrap(),
            request
        );
        let report = run_batch(&request, &FarmConfig::with_workers(1));
        // Whether the successful job `i` ran the lint stage.
        let linted = |i: usize| {
            let job = &report.results[i];
            assert_eq!(job.status, JobOutcome::Ok, "{}: {:?}", job.name, job.error);
            job.stages_ms
                .iter()
                .flatten()
                .any(|s| s.stage == Stage::Lint)
        };

        // `lint: true` denies errors: the warnings are counted, not fatal.
        assert!(linted(0));
        assert_eq!(report.results[0].lint_errors, None);
        assert!(report.results[0].lint_warnings.unwrap() > 0);

        // `lint_deny` alone implies lint on, at its own level.
        let row = &report.results[1];
        assert_eq!(row.status, JobOutcome::Failed);
        let message = row.error.as_deref().unwrap();
        assert!(message.contains("lint rejected the design"), "{message}");

        // An explicit `lint: false` wins over a stray deny level; unset
        // follows the farm (off).
        assert!(!linted(2));
        assert!(!linted(3));

        // A linted clean job omits the count fields entirely, so
        // committed goldens are untouched by turning lint on.
        let request: BatchRequest = serde::json::from_str(
            r#"{"jobs": [{"source": {"library": "Ignition Illuminator"},
                          "options": {"lint": true}}]}"#,
        )
        .unwrap();
        let report = run_batch(&request, &FarmConfig::with_workers(1));
        assert!(report.all_ok(), "{}", report.render_text(false));
        let row = &report.results[0];
        assert!(row
            .stages_ms
            .iter()
            .flatten()
            .any(|s| s.stage == Stage::Lint));
        assert_eq!((row.lint_errors, row.lint_warnings), (None, None));
        assert_eq!(report.batch.lint_errors, None);
        let text = report.to_json(&JsonOptions::default());
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
        let report = run_batch(request, &FarmConfig::with_workers(1));
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
        let job = JobSpec::new(DesignSource::Library("Ignition Illuminator".into()));
        let event = ProgressEvent::started(3, &job);
        assert_eq!(event.event, ProgressKind::Started);
        assert_eq!(event.name, "Ignition Illuminator");
        assert_eq!(event.status, None);

        let row = JobResponse {
            retries: Some(2),
            ..JobResponse::new(
                event.name.clone(),
                "pare-down".into(),
                JobOutcome::TimedOut,
                Some("too slow".into()),
            )
        };
        let event = ProgressEvent::finished(3, &row);
        assert_eq!(event.status, Some(JobOutcome::TimedOut));
        assert_eq!(event.error.as_deref(), Some("too slow"));
        let text = serde::json::to_string(&event);
        assert!(text.contains(r#""event":"finished""#), "{text}");
        let back: ProgressEvent = serde::json::from_str(&text).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn stage_fold_keeps_one_entry_per_stage_in_pipeline_order() {
        let row = |stage, ms| StageMs {
            stage,
            ms,
            detail: String::new(),
        };
        let mut stages = Vec::new();
        StageSummary::fold(
            &mut stages,
            &[
                row(Stage::EmitC, 1.0),
                row(Stage::Partition, 4.0),
                row(Stage::EmitC, 3.0),
                row(Stage::Lint, 2.0),
            ],
        );
        let order: Vec<Stage> = stages.iter().map(|s| s.stage).collect();
        assert_eq!(order, [Stage::Lint, Stage::Partition, Stage::EmitC]);
        let emit = &stages[2];
        assert_eq!((emit.runs, emit.total_ms, emit.max_ms), (2, 4.0, 3.0));

        // Folding more rows adds runs and totals and keeps the max; totals
        // stay rounded to 3 decimals (0.1 + 0.2 is 0.3 here).
        StageSummary::fold(
            &mut stages,
            &[row(Stage::Verify, 0.1), row(Stage::Verify, 0.2)],
        );
        let order: Vec<Stage> = stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            order,
            [Stage::Lint, Stage::Partition, Stage::Verify, Stage::EmitC]
        );
        let verify = &stages[2];
        assert_eq!((verify.runs, verify.total_ms, verify.max_ms), (2, 0.3, 0.2));
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
