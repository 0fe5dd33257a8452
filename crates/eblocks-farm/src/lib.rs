//! Parallel batch synthesis — the many-design driver over the staged
//! [`Pipeline`](eblocks_synth::Pipeline).
//!
//! The paper's workflow synthesizes one design at a time; this crate scales
//! that to production batches. A [`BatchRequest`] of [`JobSpec`]s (each job
//! = a design source × a partitioning strategy × pipeline options) runs
//! across a scoped-thread worker pool and comes back as one
//! [`BatchResponse`]: one [`JobResponse`] row per job (status, partition
//! statistics, stage timings, emitted-C sizes) plus batch-level aggregates.
//!
//! * the [`api`] types are the only job model and the only result model:
//!   jobs come from netlist files, the Table-1 design library, or the
//!   seeded generator ([`DesignSource`]), and batches parse from a
//!   line-oriented manifest file ([`BatchRequest::parse`]) or a typed JSON
//!   request — manifest format v2 ([`BatchRequest::from_json`];
//!   [`BatchRequest::from_file`] sniffs the format);
//! * the scheduler is a shared queue drained greedily by `--jobs N` workers
//!   ([`run_batch`], [`FarmConfig`]); job panics are isolated per worker;
//!   [`run_batch_with_progress`] streams job started/finished callbacks to
//!   a [`BatchProgress`] listener while the batch runs;
//! * a lint admission gate ([`FarmConfig::lint`] engine-wide, a job's
//!   `lint`/`lint_deny` [`api::SynthOptions`] per job) statically analyzes
//!   each design before it runs and counts its findings in the job's row;
//!   a rejecting deny level fails the job instead of synthesizing garbage;
//! * resilience policies live on [`FarmConfig`]: a per-job retry budget
//!   (`max_retries`, surfaced as [`JobResponse::retries`]) and a
//!   cooperative per-attempt timeout (`job_timeout`, surfaced as
//!   [`JobOutcome::TimedOut`]); the [`FaultInjector`] seam lets a harness
//!   (see `eblocks-chaos`) perturb pickup order and inject delays, panics,
//!   and aborts at stage boundaries;
//! * [`BatchResponse::from_report`] is the deterministic view: with
//!   [`JsonOptions::timings`] off it clears the wall-clock fields, so the
//!   JSON (`to_json`, through `serde::json`) is byte-identical for any
//!   worker count;
//! * [`api`] is the request/response surface the service mode speaks —
//!   [`api::BatchRequest`]/[`api::SynthRequest`] in,
//!   [`api::BatchResponse`]/[`api::SynthResponse`] out.
//!
//! # Example
//!
//! ```
//! use eblocks_farm::{run_batch, BatchRequest, FarmConfig};
//!
//! let batch = BatchRequest::parse(
//!     "job library=\"Ignition Illuminator\"\n\
//!      job library=\"Carpool Alert\" partitioner=refine\n",
//! )
//! .unwrap();
//! let report = run_batch(&batch, &FarmConfig::with_workers(2));
//! assert!(report.all_ok());
//! assert_eq!(report.results.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod manifest;
pub mod report;
pub mod scheduler;

pub use api::{
    BatchRequest, BatchResponse, DesignSource, JobMode, JobOutcome, JobResponse, JobSpec,
};
pub use eblocks_lint::{DenyLevel, LintConfig, LintOutcome};
pub use manifest::ManifestError;
pub use report::JsonOptions;
pub use scheduler::{
    run_batch, run_batch_with_progress, BatchProgress, FarmConfig, Fault, FaultInjector,
};
