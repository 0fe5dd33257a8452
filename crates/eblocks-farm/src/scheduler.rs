//! The farm's job runner: a batch fans out on the shared worker pool.
//!
//! [`run_batch`] hands its jobs to [`eblocks_core::pool`]: each worker
//! claims the next job in pickup order (submission order unless a
//! [`FaultInjector`] permutes it), runs it start-to-finish, and its row
//! lands in that job's slot. This is the "shared queue, greedy workers"
//! shape (cf. the dslab job schedulers): long jobs never block short ones
//! behind a static round-robin split, and the report order is the
//! submission order regardless of which worker finished what when.
//!
//! A panicking job (a buggy strategy, a pathological design) is caught on
//! the worker, reported as [`JobOutcome::Panicked`], and the worker moves
//! on — one poisoned job cannot take down the batch.

use crate::api::{
    ms, stage_ms_rows, BatchRequest, BatchResponse, DesignSource, JobMode, JobOutcome, JobResponse,
    JobSpec, SynthOptions,
};
use eblocks_core::{pool, Design, ProgrammableSpec};
use eblocks_lint::{LintConfig, LintOutcome};
use eblocks_partition::{PartitionConstraints, Partitioning, Registry, DEFAULT_PARTITIONER};
use eblocks_synth::{Observer, Pipeline, Stage, StageAbort, StageReport, StageTimings, SynthError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fault a [`FaultInjector`] can order at a stage boundary.
///
/// Faults are injected *cooperatively*: a worker consults the injector
/// before each pipeline stage and enacts whatever it returns, inside the
/// same panic isolation that protects real job failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Sleep for the given duration before running the stage. The
    /// per-attempt deadline is re-checked after the sleep, so a delay at
    /// or past [`FarmConfig::job_timeout`] deterministically times the
    /// attempt out.
    Delay(Duration),
    /// Panic with the given message, exercising the worker's per-job
    /// panic isolation ([`JobOutcome::Panicked`]).
    Panic(String),
    /// Abort the stage with the given [`StageAbort`]; `timeout` aborts
    /// surface as [`JobOutcome::TimedOut`], the rest as
    /// [`JobOutcome::Failed`].
    Abort(StageAbort),
}

/// The fault-injection seam of the farm — the hook `eblocks-chaos` drives.
///
/// An injector is shared by every worker (hence `Sync + Send`) and
/// consulted at three points: once per batch for a pickup-order
/// permutation, once per job claim for an artificial scheduling delay, and
/// once per (job, attempt, stage) for an injected fault. All default
/// implementations inject nothing, so an injector overrides only the seams
/// it cares about.
///
/// Determinism contract: injectors that decide faults as pure functions of
/// their arguments (never of wall-clock time or worker identity) keep
/// batch reports byte-identical across runs and worker counts — the
/// property the chaos harness's replayable traces rely on.
pub trait FaultInjector: Sync + Send {
    /// The order workers claim jobs in, as a permutation of `0..jobs`.
    /// `None` (the default) keeps submission order. A returned vector that
    /// is not a permutation of `0..jobs` is ignored.
    fn pickup_order(&self, jobs: usize) -> Option<Vec<usize>> {
        let _ = jobs;
        None
    }

    /// An artificial delay inserted after a worker claims job `job`,
    /// before it starts running — a scheduling perturbation that shifts
    /// which worker gets which later job.
    fn pickup_delay(&self, job: usize) -> Option<Duration> {
        let _ = job;
        None
    }

    /// A fault to enact just before `stage` of attempt `attempt` (0-based)
    /// of job `job`, or `None` to let the stage run.
    fn before_stage(&self, job: usize, attempt: u32, stage: Stage) -> Option<Fault> {
        let _ = (job, attempt, stage);
        None
    }
}

/// Engine configuration for [`run_batch`].
pub struct FarmConfig {
    /// Worker threads; `None` uses the core count. The pool never runs
    /// more workers than there are jobs, nor fewer than one (see
    /// [`pool::workers`]).
    pub workers: Option<usize>,
    /// Overrides the batch's default strategy for jobs that set none
    /// (the CLI's `--partitioner` flag lands here). Per-job `partitioner=`
    /// settings still win.
    pub partitioner_override: Option<String>,
    /// Retry budget per job: a job whose attempt fails, panics, or times
    /// out is re-run on the same worker up to this many more times, and
    /// the attempts actually consumed are surfaced as
    /// [`JobResponse::retries`]. Default 0 (one attempt, no retries).
    /// Deterministic failures (an unknown strategy, a bad netlist) burn
    /// their whole budget and still fail; the knob exists for injected
    /// and transient faults.
    pub max_retries: u32,
    /// Per-attempt time budget. Enforcement is cooperative: the deadline
    /// is checked at every pipeline stage boundary, so a job is cancelled
    /// *between* stages (work inside a stage always runs to completion)
    /// and reported as [`JobOutcome::TimedOut`]. The timeout message quotes
    /// this configured limit, never measured time, keeping reports
    /// deterministic. Default `None` (no limit).
    pub job_timeout: Option<Duration>,
    /// Lint stage default, the full config (deny level, fan-out and pin
    /// budgets), for jobs whose options set neither `lint` nor
    /// `lint_deny`; see [`SynthOptions::lint`] for what those select.
    /// `None` (the default) leaves lint off, so existing batches and their
    /// committed goldens are untouched.
    pub lint: Option<LintConfig>,
    /// The fault-injection hook, shared by every worker. Default `None`
    /// (no injection); the chaos harness installs its seeded injector
    /// here.
    pub faults: Option<Arc<dyn FaultInjector>>,
    /// Cooperative drain flag — the hook a service mode uses to cut a
    /// running batch short. When the flag is set, no further job starts;
    /// jobs already started run to completion, and every job that never
    /// started is reported as [`JobOutcome::Failed`] with the
    /// error `"cancelled: batch drain requested"`. The
    /// report still has one row per job in submission order. Default
    /// `None` (batches always run to completion). Note that a
    /// mid-batch drain makes the report depend on scheduling, so it
    /// forfeits the byte-identical-across-worker-counts guarantee.
    pub stop: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Strategy registry jobs resolve their partitioner names against.
    /// Defaults to [`Registry::builtin`]; register custom strategies (a
    /// time-limited exhaustive, a test double) before running.
    pub registry: Registry,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            workers: None,
            partitioner_override: None,
            max_retries: 0,
            job_timeout: None,
            lint: None,
            faults: None,
            stop: None,
            registry: Registry::builtin(),
        }
    }
}

impl FarmConfig {
    /// A config pinned to `workers` threads. A count of 0 is clamped to 1,
    /// and the response's [`workers`](crate::api::BatchSummary::workers)
    /// reports the count actually used.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: Some(workers),
            ..Self::default()
        }
    }

    /// Sets the per-job retry budget (see [`FarmConfig::max_retries`]).
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the per-attempt time budget (see [`FarmConfig::job_timeout`]).
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.job_timeout = Some(limit);
        self
    }

    /// Installs a fault injector (see [`FarmConfig::faults`]).
    pub fn inject(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Turns the lint stage on for every job that does not set its own
    /// (see [`FarmConfig::lint`]).
    pub fn lint(mut self, config: LintConfig) -> Self {
        self.lint = Some(config);
        self
    }

    /// Installs a cooperative drain flag (see [`FarmConfig::stop`]).
    pub fn stop_on(mut self, flag: Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }
}

/// Streaming observation of a running batch — the hook a service mode
/// (spool watcher, RPC server) uses to push per-job progress to clients
/// while the batch is still running.
///
/// Callbacks fire **on the worker thread that ran the job** (hence the
/// `Sync` bound), and a finished job's [`JobResponse`] row carries its
/// stage rows (`stages_ms`), so a listener can stream per-stage breakdowns
/// without waiting for the final [`BatchResponse`]. Job indices refer to
/// submission order; jobs on different workers start and finish
/// interleaved.
///
/// Both methods default to no-ops, so listeners implement only what they
/// need. A panicking callback is caught and discarded — the farm's
/// per-job panic isolation extends to listeners, so a buggy progress hook
/// cannot take down the batch or lose completed results.
pub trait BatchProgress: Sync {
    /// A worker claimed `job` (index `index` in submission order) and is
    /// about to run it.
    fn job_started(&self, index: usize, job: &JobSpec) {
        let _ = (index, job);
    }

    /// The job at `index` finished (ok, failed, or panicked); `row` is
    /// exactly the row the final [`BatchResponse`] will hold.
    fn job_finished(&self, index: usize, row: &JobResponse) {
        let _ = (index, row);
    }
}

/// The default listener: hears nothing.
struct Silent;

impl BatchProgress for Silent {}

/// Runs every job in `batch` across the configured worker pool and
/// aggregates the per-job rows into a [`BatchResponse`], every field
/// filled in.
///
/// Job execution is deterministic (all built-in strategies are), so the
/// per-job results are identical for any worker count; only wall-clock
/// fields differ, and [`BatchResponse::from_report`] clears those.
pub fn run_batch(batch: &BatchRequest, config: &FarmConfig) -> BatchResponse {
    run_batch_with_progress(batch, config, &Silent)
}

/// [`run_batch`] with a [`BatchProgress`] listener receiving job
/// started/finished callbacks as workers process the queue.
pub fn run_batch_with_progress(
    batch: &BatchRequest,
    config: &FarmConfig,
    progress: &dyn BatchProgress,
) -> BatchResponse {
    let started = Instant::now();
    let workers = pool::workers(config.workers, batch.jobs.len());
    let faults = config.faults.as_deref();
    let order = pickup_order(faults, batch.jobs.len());
    let rows = pool::run(workers, &order, |index| {
        // The drain hook: once the flag is set no further job starts;
        // claimed jobs always run to completion.
        if config
            .stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            return None;
        }
        let job = &batch.jobs[index];
        if let Some(delay) = faults.and_then(|f| f.pickup_delay(index)) {
            std::thread::sleep(delay);
        }
        // Listener panics are swallowed (they run outside run_job's
        // catch) so a buggy hook cannot abort the pool and lose the
        // batch's results.
        let _ = catch_unwind(AssertUnwindSafe(|| progress.job_started(index, job)));
        let row = run_job(job, index, batch, config);
        let _ = catch_unwind(AssertUnwindSafe(|| progress.job_finished(index, &row)));
        Some(row)
    });

    // Without a drain every job reports; under a drain the jobs that never
    // started get a cancellation row so the report still has one row per
    // job in submission order.
    let results = rows
        .into_iter()
        .zip(&batch.jobs)
        .map(|(row, job)| {
            row.unwrap_or_else(|| JobResponse {
                elapsed_ms: Some(0.0),
                ..JobResponse::new(
                    job.display_name(),
                    partitioner_name(job, batch, config).to_string(),
                    JobOutcome::Failed,
                    Some("cancelled: batch drain requested".to_string()),
                )
            })
        })
        .collect();
    BatchResponse::new(results, workers, started.elapsed())
}

/// The pickup order workers drain the queue in: the injector's
/// permutation when it supplies a valid one, submission order otherwise.
fn pickup_order(faults: Option<&dyn FaultInjector>, jobs: usize) -> Vec<usize> {
    if let Some(order) = faults.and_then(|f| f.pickup_order(jobs)) {
        let mut seen = vec![false; jobs];
        let valid = order.len() == jobs
            && order
                .iter()
                .all(|&i| i < jobs && !std::mem::replace(&mut seen[i], true));
        if valid {
            return order;
        }
    }
    (0..jobs).collect()
}

/// Resolves the job's strategy name: job > engine override > batch default
/// > [`DEFAULT_PARTITIONER`].
fn partitioner_name<'a>(
    job: &'a JobSpec,
    batch: &'a BatchRequest,
    config: &'a FarmConfig,
) -> &'a str {
    job.partitioner
        .as_deref()
        .or(config.partitioner_override.as_deref())
        .or(batch.default_partitioner.as_deref())
        .unwrap_or(DEFAULT_PARTITIONER)
}

/// Runs one job on the calling worker thread and folds the final
/// attempt's outcome into the job's batch row.
fn run_job(job: &JobSpec, index: usize, batch: &BatchRequest, config: &FarmConfig) -> JobResponse {
    let started = Instant::now();
    let partitioner = partitioner_name(job, batch, config);
    let (outcome, retries) = run_attempts(&job.source, &job.options, index, partitioner, config);
    let row =
        |status, error| JobResponse::new(job.display_name(), partitioner.into(), status, error);
    let row = match outcome {
        Ok(run) => run.into_row(row(JobOutcome::Ok, None)),
        Err((status, error)) => row(status, Some(error)),
    };
    JobResponse {
        retries: (retries > 0).then_some(retries),
        elapsed_ms: Some(ms(started.elapsed())),
        ..row
    }
}

/// The attempt loop, the only code that runs a job (a batch row or an
/// [`api::synthesize_with`](crate::api::synthesize_with) request) from its
/// source and options: each attempt runs in panic isolation under the
/// deadline and the injector's faults for job `index`, up to the retry
/// budget. Returns the last attempt's run, or how it ended (never
/// [`JobOutcome::Ok`]) with its error message, and the retries it took.
pub(crate) fn run_attempts(
    source: &DesignSource,
    options: &SynthOptions,
    index: usize,
    partitioner: &str,
    config: &FarmConfig,
) -> (Result<JobRun, (JobOutcome, String)>, u32) {
    let mut attempt: u32 = 0;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute(source, options, index, attempt, partitioner, config)
        }))
        .unwrap_or_else(|payload| Err((JobOutcome::Panicked, panic_message(&payload))));
        if outcome.is_ok() || attempt >= config.max_retries {
            return (outcome, attempt);
        }
        attempt += 1;
    }
}

/// The message a caught panic carried (`"non-string panic payload"` when
/// it carried neither a `&str` nor a `String`).
pub fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one successful attempt of a job produced: the design it loaded,
/// the pipeline's output and the stage timings.
pub(crate) struct JobRun {
    pub(crate) design: Design,
    pub(crate) output: JobOutput,
    pub(crate) timings: StageTimings,
}

/// What a job's pipeline produced, by [`JobMode`].
pub(crate) enum JobOutput {
    /// The strategy's partitioning and the lint totals.
    Partition(Partitioning, Option<LintOutcome>),
    Synth(Box<eblocks_synth::SynthesisResult>),
}

impl JobRun {
    /// `row` with this run's measurements and stage rows filled in.
    fn into_row(self, row: JobResponse) -> JobResponse {
        let (partitioning, c_bytes, verified, lint) = match &self.output {
            JobOutput::Partition(partitioning, lint) => (partitioning, 0, false, *lint),
            JobOutput::Synth(result) => (
                &result.partitioning,
                result.c_sources.iter().map(|(_, c)| c.len()).sum(),
                result.report.as_ref().is_some_and(|r| r.is_equivalent()),
                result.lint,
            ),
        };
        let nonzero =
            |count: fn(&LintOutcome) -> usize| lint.as_ref().map(count).filter(|&n| n > 0);
        JobResponse {
            inner_before: Some(partitioning.covered() + partitioning.uncovered().len()),
            inner_after: Some(partitioning.inner_total()),
            partitions: Some(partitioning.num_partitions()),
            complete: Some(partitioning.is_complete()),
            verified: Some(verified),
            c_bytes: Some(c_bytes),
            lint_errors: nonzero(|l| l.errors),
            lint_warnings: nonzero(|l| l.warnings),
            lint_fixes: nonzero(LintOutcome::fix_count),
            stages_ms: Some(stage_ms_rows(&self.timings)),
            ..row
        }
    }
}

/// How a pipeline error ends an attempt: a timeout abort times the
/// attempt out, anything else fails it.
fn attempt_status(error: SynthError) -> (JobOutcome, String) {
    match error {
        SynthError::Aborted { abort, .. } if abort.timeout => (JobOutcome::TimedOut, abort.message),
        other => (JobOutcome::Failed, other.to_string()),
    }
}

/// A failed attempt's outcome with `message`.
fn failed(message: String) -> (JobOutcome, String) {
    (JobOutcome::Failed, message)
}

/// The per-attempt pipeline observer: collects stage timings, enforces
/// the cooperative per-attempt deadline, and enacts injected faults at
/// every stage boundary.
struct StageGuard<'a> {
    timings: StageTimings,
    /// The wall-clock deadline of this attempt, when a timeout is set.
    deadline: Option<Instant>,
    /// The configured limit, quoted (not measured time) in timeout
    /// messages so reports stay deterministic.
    limit: Option<Duration>,
    faults: Option<&'a dyn FaultInjector>,
    job: usize,
    attempt: u32,
}

impl<'a> StageGuard<'a> {
    fn new(config: &'a FarmConfig, job: usize, attempt: u32) -> Self {
        Self {
            timings: StageTimings::new(),
            deadline: config.job_timeout.map(|limit| Instant::now() + limit),
            limit: config.job_timeout,
            faults: config.faults.as_deref(),
            job,
            attempt,
        }
    }

    fn deadline_abort(&self, stage: Stage) -> Option<StageAbort> {
        match (self.deadline, self.limit) {
            (Some(deadline), Some(limit)) if Instant::now() >= deadline => Some(
                StageAbort::timeout(format!("job timed out before {stage} (limit {limit:?})")),
            ),
            _ => None,
        }
    }
}

impl Observer for StageGuard<'_> {
    fn on_stage(&mut self, report: &StageReport) {
        self.timings.on_stage(report);
    }

    /// The gate every stage passes through: deadline first, then the
    /// injector's verdict. A `Delay` sleeps and re-checks the deadline, a
    /// `Panic` panics into the worker's per-job isolation, an `Abort`
    /// returns as-is.
    fn before_stage(&mut self, stage: Stage) -> Result<(), StageAbort> {
        if let Some(abort) = self.deadline_abort(stage) {
            return Err(abort);
        }
        let Some(fault) = self
            .faults
            .and_then(|f| f.before_stage(self.job, self.attempt, stage))
        else {
            return Ok(());
        };
        match fault {
            Fault::Delay(delay) => {
                std::thread::sleep(delay);
                match self.deadline_abort(stage) {
                    Some(abort) => Err(abort),
                    None => Ok(()),
                }
            }
            Fault::Panic(message) => panic!("{message}"),
            Fault::Abort(abort) => Err(abort),
        }
    }
}

/// The fallible body of one attempt of one job. Options the job leaves
/// unset take the engine defaults here: synth mode, verify and optimize
/// on, the paper's 2-in/2-out pins, and the farm's lint setting.
fn execute(
    source: &DesignSource,
    options: &SynthOptions,
    index: usize,
    attempt: u32,
    partitioner_name: &str,
    config: &FarmConfig,
) -> Result<JobRun, (JobOutcome, String)> {
    let partitioner = config.registry.from_str(partitioner_name).map_err(failed)?;
    let design = source.load().map_err(failed)?;
    let pins = ProgrammableSpec::default();
    let spec = ProgrammableSpec::new(
        options.inputs.unwrap_or(pins.inputs),
        options.outputs.unwrap_or(pins.outputs),
    );
    let lint = match (options.lint, options.lint_deny) {
        (Some(false), _) => None,
        (Some(true), deny) | (None, deny @ Some(_)) => Some(LintConfig {
            deny: deny.unwrap_or_default(),
        }),
        (None, None) => config.lint,
    };
    let mut guard = StageGuard::new(config, index, attempt);
    let pipeline = Pipeline::new(&design)
        .constraints(PartitionConstraints::with_spec(spec))
        .optimize(options.optimize.unwrap_or(true))
        .observe(&mut guard);
    let pipeline = match lint {
        Some(lint) => pipeline.lint(lint),
        None => pipeline,
    };
    let output = match options.mode.unwrap_or_default() {
        JobMode::Partition => {
            let (partitioning, lint) = pipeline
                .partition_only(partitioner.as_ref())
                .map_err(attempt_status)?;
            JobOutput::Partition(partitioning, lint)
        }
        JobMode::Synth => JobOutput::Synth(Box::new(
            pipeline
                .run(partitioner.as_ref(), options.verify.unwrap_or(true))
                .map_err(attempt_status)?,
        )),
    };
    Ok(JobRun {
        design,
        output,
        timings: guard.timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JsonOptions;
    use eblocks_partition::{Partitioner, Partitioning};
    use std::sync::Mutex;

    /// The error of `row`, which must have ended with `status`.
    fn error(row: &JobResponse, status: JobOutcome) -> &str {
        assert_eq!(row.status, status, "{row:?}");
        row.error
            .as_deref()
            .expect("an unsuccessful row has an error")
    }

    fn library_batch() -> BatchRequest {
        BatchRequest::parse(
            "job library=\"Ignition Illuminator\"\n\
             job library=\"Podium Timer 3\" partitioner=refine\n\
             job generated=10 seed=3 mode=partition\n",
        )
        .unwrap()
    }

    #[test]
    fn batch_runs_and_aggregates() {
        let report = run_batch(&library_batch(), &FarmConfig::with_workers(2));
        assert_eq!(report.results.len(), 3);
        assert!(report.all_ok(), "{}", report.render_text(false));
        assert_eq!(report.batch.workers, Some(2));
        let row = &report.results[0];
        assert_eq!((row.inner_before, row.inner_after), (Some(2), Some(1)));
        assert_eq!(row.verified, Some(true));
        assert!(row.c_bytes.unwrap() > 0);
        assert_eq!(report.results[1].partitioner, "refine");
        let part = &report.results[2];
        assert_eq!(part.c_bytes, Some(0), "partition mode emits no C");
        assert_eq!(part.verified, Some(false));
        let stages = part.stages_ms.as_ref().unwrap();
        assert_eq!(stages.len(), 1, "only the partition stage");
    }

    #[test]
    fn lint_gate_reports_and_rejects() {
        // Farm-level default: every job lints first, in both modes.
        let config = FarmConfig::with_workers(2).lint(LintConfig::default());
        let report = run_batch(&library_batch(), &config);
        assert!(report.all_ok(), "{}", report.render_text(false));
        for job in &report.results {
            let stages = job.stages_ms.as_ref().unwrap();
            assert_eq!(stages[0].stage, Stage::Lint, "{}: lint ran first", job.name);
        }

        // The cross-block fixture lints to warnings only: a farm-level
        // deny-warnings gate rejects the job that sets no lint option, and
        // its sibling's `"lint": false` turns lint off for it whatever the
        // farm default.
        let strict = LintConfig {
            deny: eblocks_lint::DenyLevel::Warnings,
        };
        let netlist = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/lint-crossblock.netlist"
        );
        let batch = BatchRequest::from_json(&format!(
            r#"{{"jobs": [
                {{"source": {{"netlist": "{netlist}"}},
                  "options": {{"mode": "partition"}}}},
                {{"source": {{"netlist": "{netlist}"}},
                  "options": {{"mode": "partition", "lint": false}}}}
            ]}}"#
        ))
        .unwrap();
        let report = run_batch(&batch, &FarmConfig::with_workers(1).lint(strict));
        let message = error(&report.results[0], JobOutcome::Failed);
        assert!(message.contains("lint rejected the design"), "{message}");
        assert!(message.contains("W006"), "{message}");
        let row = &report.results[1];
        assert_eq!(row.status, JobOutcome::Ok, "{row:?}");
        assert!(
            row.stages_ms
                .iter()
                .flatten()
                .all(|s| s.stage != Stage::Lint),
            "`lint: false` beats the farm default"
        );
    }

    /// A scripted injector: an optional pickup order plus faults pinned
    /// to exact (job, attempt, stage) points.
    struct Script {
        order: Option<Vec<usize>>,
        faults: Vec<((usize, u32, Stage), Fault)>,
    }

    impl Script {
        fn faults(faults: Vec<((usize, u32, Stage), Fault)>) -> Self {
            Self {
                order: None,
                faults,
            }
        }
    }

    impl FaultInjector for Script {
        fn pickup_order(&self, _jobs: usize) -> Option<Vec<usize>> {
            self.order.clone()
        }

        fn before_stage(&self, job: usize, attempt: u32, stage: Stage) -> Option<Fault> {
            self.faults
                .iter()
                .find(|((j, a, s), _)| (*j, *a, *s) == (job, attempt, stage))
                .map(|(_, fault)| fault.clone())
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        // with_workers(0) is documented to behave exactly like
        // with_workers(1): the pool always has at least one worker.
        let report = run_batch(&library_batch(), &FarmConfig::with_workers(0));
        assert_eq!(report.batch.workers, Some(1));
        assert!(report.all_ok(), "{}", report.render_text(false));
        let baseline = run_batch(&library_batch(), &FarmConfig::with_workers(1));
        assert_eq!(
            report.to_json(&JsonOptions::default()),
            baseline.to_json(&JsonOptions::default())
        );
    }

    #[test]
    fn drain_flag_cancels_unclaimed_jobs() {
        use std::sync::atomic::AtomicBool;

        // A pre-set flag drains before any job is claimed: every row is
        // a cancellation, in submission order, with its resolved
        // strategy name.
        let flag = Arc::new(AtomicBool::new(true));
        let report = run_batch(&library_batch(), &FarmConfig::with_workers(2).stop_on(flag));
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.batch.succeeded, 0);
        for job in &report.results {
            let message = error(job, JobOutcome::Failed);
            assert_eq!(message, "cancelled: batch drain requested");
        }
        assert_eq!(report.results[1].partitioner, "refine");

        // A flag set from a progress hook after the first job finishes
        // (one worker, so scheduling is sequential) lets that job keep
        // its real report and cancels the rest deterministically.
        struct StopAfterFirst(Arc<AtomicBool>);
        impl BatchProgress for StopAfterFirst {
            fn job_finished(&self, _: usize, _: &JobResponse) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let flag = Arc::new(AtomicBool::new(false));
        let config = FarmConfig::with_workers(1).stop_on(flag.clone());
        let report = run_batch_with_progress(&library_batch(), &config, &StopAfterFirst(flag));
        assert_eq!(report.results[0].status, JobOutcome::Ok);
        assert_eq!((report.batch.succeeded, report.batch.failed), (1, 2));
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        // A panic injected only on attempt 0 of job 0: with a retry
        // budget the second attempt succeeds, and only the retry counter
        // distinguishes the report from a fault-free run.
        let script = Script::faults(vec![(
            (0, 0, Stage::Partition),
            Fault::Panic("injected panic".into()),
        )]);
        let config = FarmConfig::with_workers(2)
            .retries(1)
            .inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        assert!(report.all_ok(), "{}", report.render_text(false));
        let retries: Vec<Option<u32>> = report.results.iter().map(|j| j.retries).collect();
        assert_eq!(retries, [Some(1), None, None]);
        let json = report.to_json(&JsonOptions::default());
        assert!(json.contains(r#""retries":1"#), "{json}");

        // Without the budget the same fault is a terminal panic.
        let script = Script::faults(vec![(
            (0, 0, Stage::Partition),
            Fault::Panic("injected panic".into()),
        )]);
        let config = FarmConfig::with_workers(2).inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        let message = error(&report.results[0], JobOutcome::Panicked);
        assert_eq!(message, "injected panic");
        assert_eq!(report.results[0].retries, None);
    }

    #[test]
    fn exhausted_retry_budget_keeps_the_failure() {
        // A fault injected on every attempt: the job burns its whole
        // budget, reports the final failure, and no job is lost or
        // duplicated.
        let script = Script::faults(
            (0..3)
                .map(|attempt| {
                    (
                        (1, attempt, Stage::Partition),
                        Fault::Abort(StageAbort::fault("injected fault")),
                    )
                })
                .collect(),
        );
        let config = FarmConfig::with_workers(2)
            .retries(2)
            .inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.batch.succeeded, 2);
        let message = error(&report.results[1], JobOutcome::Failed);
        assert_eq!(message, "stage partition aborted: injected fault");
        assert_eq!(report.results[1].retries, Some(2));
    }

    #[test]
    fn injected_timeout_reports_timed_out() {
        let script = Script::faults(vec![(
            (0, 0, Stage::Merge),
            Fault::Abort(StageAbort::timeout("injected timeout before merge")),
        )]);
        let config = FarmConfig::with_workers(1).inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        let message = error(&report.results[0], JobOutcome::TimedOut);
        assert_eq!(message, "injected timeout before merge");
        let json = report.to_json(&JsonOptions::default());
        assert!(json.contains(r#""status":"timed-out""#), "{json}");
        assert_eq!(report.batch.succeeded, 2);
    }

    #[test]
    fn deadline_trips_deterministically_after_injected_delay() {
        // A Delay at least as long as the budget forces the post-sleep
        // deadline re-check to trip; the message quotes the configured
        // limit (never measured time), so it is byte-stable across runs.
        let script = Script::faults(vec![(
            (0, 0, Stage::Merge),
            Fault::Delay(Duration::from_millis(40)),
        )]);
        let config = FarmConfig::with_workers(1)
            .timeout(Duration::from_millis(30))
            .inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        let message = error(&report.results[0], JobOutcome::TimedOut);
        assert_eq!(message, "job timed out before merge (limit 30ms)");
        assert_eq!(report.results[0].retries, None);
        assert_eq!(report.results[1].status, JobOutcome::Ok);
    }

    #[test]
    fn no_stage_time_includes_an_injected_gate_delay() {
        // A delay enacted in the lint and partition gates of both a synth
        // job and a partition-only job: the gate is not part of any stage.
        let delay = Duration::from_millis(100);
        let delay_ms = ms(delay);
        let batch = BatchRequest::parse(
            "job library=\"Ignition Illuminator\"\n\
             job library=\"Ignition Illuminator\" mode=partition\n",
        )
        .unwrap();
        let faults = (0..2)
            .flat_map(|job| {
                [Stage::Lint, Stage::Partition].map(|stage| ((job, 0, stage), Fault::Delay(delay)))
            })
            .collect();
        let config = FarmConfig::with_workers(2)
            .lint(LintConfig::default())
            .inject(Arc::new(Script::faults(faults)));
        let report = run_batch(&batch, &config);
        assert!(report.all_ok(), "{}", report.render_text(false));
        for (job, row) in batch.jobs.iter().zip(&report.results) {
            let stages = row.stages_ms.as_ref().unwrap();
            assert_eq!(stages[0].stage, Stage::Lint);
            assert_eq!(stages[1].stage, Stage::Partition);
            for stage in stages {
                assert!(
                    stage.ms < delay_ms,
                    "{:?} job: {} took {}ms",
                    job.options.mode,
                    stage.stage,
                    stage.ms
                );
            }
        }
    }

    #[test]
    fn invalid_design_fails_both_modes_with_one_message() {
        let dir = std::env::temp_dir().join(format!("eblocks-farm-invalid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dangling.netlist");
        let mut design = Design::new("dangling");
        design.add_block("g", eblocks_core::ComputeKind::and2());
        std::fs::write(&path, eblocks_core::netlist::to_netlist(&design)).unwrap();

        let synth = JobSpec::new(DesignSource::Netlist(path.clone()));
        let mut partition = synth.clone();
        partition.options.mode = Some(JobMode::Partition);
        let batch = BatchRequest {
            default_partitioner: None,
            jobs: vec![synth, partition],
        };
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        std::fs::remove_dir_all(&dir).ok();
        let messages: Vec<&str> = report
            .results
            .iter()
            .map(|job| error(job, JobOutcome::Failed))
            .collect();
        assert!(
            messages[0].starts_with("invalid input design: "),
            "{}",
            messages[0]
        );
        assert_eq!(messages[0], messages[1]);
    }

    #[test]
    fn pickup_order_perturbs_scheduling_not_results() {
        let baseline = run_batch(&library_batch(), &FarmConfig::with_workers(1));

        // A reversed pickup order changes when jobs start, not the report:
        // rows stay in submission order and (timings off) byte-identical.
        let script = Script {
            order: Some(vec![2, 1, 0]),
            faults: vec![],
        };
        let config = FarmConfig::with_workers(1).inject(Arc::new(script));
        let recorder = Recorder::default();
        let report = run_batch_with_progress(&library_batch(), &config, &recorder);
        let started: Vec<usize> = recorder
            .started
            .into_inner()
            .unwrap()
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(started, vec![2, 1, 0]);
        assert_eq!(
            report.to_json(&JsonOptions::default()),
            baseline.to_json(&JsonOptions::default())
        );

        // An invalid permutation (wrong length, duplicates, out of range)
        // is ignored in favor of submission order.
        for bad in [vec![0, 1], vec![0, 0, 1], vec![0, 1, 7]] {
            let script = Script {
                order: Some(bad),
                faults: vec![],
            };
            let config = FarmConfig::with_workers(1).inject(Arc::new(script));
            let recorder = Recorder::default();
            run_batch_with_progress(&library_batch(), &config, &recorder);
            let started: Vec<usize> = recorder
                .started
                .into_inner()
                .unwrap()
                .iter()
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(started, vec![0, 1, 2]);
        }
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        let report = run_batch(
            &library_batch(),
            &FarmConfig {
                workers: Some(64),
                ..Default::default()
            },
        );
        assert_eq!(report.batch.workers, Some(3));
        let empty = BatchRequest {
            default_partitioner: None,
            jobs: Vec::new(),
        };
        let empty = run_batch(&empty, &FarmConfig::with_workers(8));
        assert_eq!(empty.results.len(), 0);
        assert!(empty.all_ok());
    }

    #[test]
    fn partitioner_resolution_precedence() {
        let batch = BatchRequest::parse(
            "default partitioner=refine\n\
             job library=\"Ignition Illuminator\"\n\
             job library=\"Carpool Alert\" partitioner=aggregation\n",
        )
        .unwrap();

        // Batch default applies when nothing else is set.
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        assert_eq!(report.results[0].partitioner, "refine");
        assert_eq!(report.results[1].partitioner, "aggregation");

        // The engine override beats the batch default, not the per-job pick.
        let config = FarmConfig {
            workers: Some(1),
            partitioner_override: Some("anneal".into()),
            ..Default::default()
        };
        let report = run_batch(&batch, &config);
        assert_eq!(report.results[0].partitioner, "anneal");
        assert_eq!(report.results[1].partitioner, "aggregation");
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let batch = BatchRequest::parse(
            "job netlist=/nonexistent/x.netlist\n\
             job library=\"Ignition Illuminator\" partitioner=magic\n\
             job library=\"Ignition Illuminator\"\n",
        )
        .unwrap();
        let report = run_batch(&batch, &FarmConfig::with_workers(2));
        assert_eq!((report.batch.succeeded, report.batch.failed), (1, 2));
        let e = error(&report.results[0], JobOutcome::Failed);
        assert!(e.contains("cannot read"), "{e}");
        let e = error(&report.results[1], JobOutcome::Failed);
        assert!(
            e.contains("unknown partitioner `magic`") && e.contains("pare-down"),
            "lists the registered names: {e}"
        );
        assert_eq!(report.results[2].status, JobOutcome::Ok);
    }

    /// A listener recording every callback, guarded for cross-thread use.
    #[derive(Default)]
    struct Recorder {
        started: Mutex<Vec<(usize, String)>>,
        finished: Mutex<Vec<(usize, JobResponse)>>,
    }

    impl BatchProgress for Recorder {
        fn job_started(&self, index: usize, job: &JobSpec) {
            self.started
                .lock()
                .unwrap()
                .push((index, job.display_name()));
        }

        fn job_finished(&self, index: usize, row: &JobResponse) {
            self.finished.lock().unwrap().push((index, row.clone()));
        }
    }

    #[test]
    fn progress_listener_sees_every_job_start_and_finish() {
        let batch = library_batch();
        let recorder = Recorder::default();
        let report = run_batch_with_progress(&batch, &FarmConfig::with_workers(2), &recorder);

        let mut started = recorder.started.into_inner().unwrap();
        started.sort();
        assert_eq!(
            started,
            vec![
                (0, "Ignition Illuminator".to_string()),
                (1, "Podium Timer 3".to_string()),
                (2, "gen10-3".to_string()),
            ]
        );

        let mut finished = recorder.finished.into_inner().unwrap();
        finished.sort_by_key(|(i, _)| *i);
        assert_eq!(finished.len(), 3);
        for (index, row) in &finished {
            assert_eq!(
                *row, report.results[*index],
                "streamed rows match the final report"
            );
        }
        // The streamed rows carry the per-job stage timings already.
        assert!(!finished[0].1.stages_ms.as_ref().unwrap().is_empty());
    }

    #[test]
    fn panicking_listener_does_not_lose_the_batch() {
        struct Grenade;

        impl BatchProgress for Grenade {
            fn job_started(&self, _: usize, _: &JobSpec) {
                panic!("listener bug on start");
            }

            fn job_finished(&self, _: usize, _: &JobResponse) {
                panic!("listener bug on finish");
            }
        }

        let report =
            run_batch_with_progress(&library_batch(), &FarmConfig::with_workers(2), &Grenade);
        assert_eq!(report.results.len(), 3);
        assert!(report.all_ok(), "{}", report.render_text(false));
    }

    #[test]
    fn progress_listener_hears_panicked_jobs_too() {
        let mut config = FarmConfig::with_workers(1);
        config.registry.register("poison", || Box::new(Poison));
        let batch =
            BatchRequest::parse("job library=\"Ignition Illuminator\" partitioner=poison\n")
                .unwrap();
        let recorder = Recorder::default();
        run_batch_with_progress(&batch, &config, &recorder);
        let finished = recorder.finished.into_inner().unwrap();
        assert_eq!(finished[0].1.status, JobOutcome::Panicked);
    }

    /// A strategy that always panics, for poisoned-job isolation tests.
    struct Poison;

    impl Partitioner for Poison {
        fn name(&self) -> &'static str {
            "poison"
        }

        fn partition(&self, _: &Design, _: &PartitionConstraints) -> Partitioning {
            panic!("poisoned strategy")
        }
    }

    #[test]
    fn poisoned_job_does_not_take_down_the_batch() {
        let mut config = FarmConfig::with_workers(2);
        config.registry.register("poison", || Box::new(Poison));
        let batch = BatchRequest::parse(
            "job library=\"Ignition Illuminator\"\n\
             job library=\"Carpool Alert\" partitioner=poison\n\
             job library=\"Night Lamp Controller\"\n",
        )
        .unwrap();
        let report = run_batch(&batch, &config);
        assert_eq!(report.batch.succeeded, 2);
        let message = error(&report.results[1], JobOutcome::Panicked);
        assert!(message.contains("poisoned strategy"), "{message}");
        let json = report.to_json(&JsonOptions::default());
        assert!(json.contains(r#""status":"panicked""#), "{json}");
    }
}
