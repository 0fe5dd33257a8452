//! The worker pool: a shared job queue drained by scoped threads.
//!
//! Scheduling is a single shared cursor over the batch's job list — each
//! worker claims the next unclaimed index, runs it start-to-finish, and
//! writes the report into that job's slot. This is the work-stealing-style
//! "shared queue, greedy workers" shape (cf. the dslab job schedulers):
//! long jobs never block short ones behind a static round-robin split, and
//! the report order is the submission order regardless of which worker
//! finished what when.
//!
//! A panicking job (a buggy strategy, a pathological design) is caught on
//! the worker, reported as [`JobStatus::Panicked`], and the worker moves on
//! — one poisoned job cannot take down the batch.

use crate::job::{Batch, Job, JobMode};
use crate::report::{BatchReport, JobReport, JobStats, JobStatus};
use eblocks_core::Design;
use eblocks_lint::{LintConfig, LintOutcome};
use eblocks_partition::{PartitionConstraints, Partitioning, Registry, DEFAULT_PARTITIONER};
use eblocks_synth::{Observer, Pipeline, Stage, StageAbort, StageReport, StageTimings, SynthError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
    /// panic isolation ([`JobStatus::Panicked`]).
    Panic(String),
    /// Abort the stage with the given [`StageAbort`]; `timeout` aborts
    /// surface as [`JobStatus::TimedOut`], the rest as
    /// [`JobStatus::Failed`].
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
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    /// The pool never spawns more workers than there are jobs, and a
    /// requested count of 0 is clamped to 1 (the pool always has at least
    /// one worker; see [`FarmConfig::with_workers`]).
    pub workers: Option<usize>,
    /// Overrides the batch's default strategy for jobs that set none
    /// (the CLI's `--partitioner` flag lands here). Per-job `partitioner=`
    /// settings still win.
    pub partitioner_override: Option<String>,
    /// Retry budget per job: a job whose attempt fails, panics, or times
    /// out is re-run on the same worker up to this many more times, and
    /// the attempts actually consumed are surfaced as
    /// [`JobReport::retries`]. Default 0 (one attempt, no retries).
    /// Deterministic failures (an unknown strategy, a bad netlist) burn
    /// their whole budget and still fail; the knob exists for injected
    /// and transient faults.
    pub max_retries: u32,
    /// Per-attempt time budget. Enforcement is cooperative: the deadline
    /// is checked at every pipeline stage boundary, so a job is cancelled
    /// *between* stages (work inside a stage always runs to completion)
    /// and reported as [`JobStatus::TimedOut`]. The timeout message quotes
    /// this configured limit, never measured time, keeping reports
    /// deterministic. Default `None` (no limit).
    pub job_timeout: Option<Duration>,
    /// Lint stage default for jobs that set none (a per-job
    /// [`Job::lint`] still wins). `None` (the default) leaves lint off,
    /// so existing batches and their committed goldens are untouched.
    pub lint: Option<LintConfig>,
    /// The fault-injection hook, shared by every worker. Default `None`
    /// (no injection); the chaos harness installs its seeded injector
    /// here.
    pub faults: Option<Arc<dyn FaultInjector>>,
    /// Cooperative drain flag — the hook a service mode uses to cut a
    /// running batch short. When the flag is set, workers stop claiming
    /// new jobs; jobs already claimed run to completion, and every
    /// never-claimed job is reported as
    /// [`JobStatus::Failed`]`("cancelled: batch drain requested")`. The
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
    /// A config pinned to `workers` threads.
    ///
    /// The pool always runs at least one worker: a requested count of 0
    /// is clamped to 1 rather than rejected, so `with_workers(0)` behaves
    /// exactly like `with_workers(1)` (and [`BatchReport::workers`]
    /// reports the clamped count actually used).
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

    fn effective_workers(&self, jobs: usize) -> usize {
        let requested = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        requested.clamp(1, jobs.max(1))
    }
}

/// Streaming observation of a running batch — the hook a service mode
/// (spool watcher, RPC server) uses to push per-job progress to clients
/// while the batch is still running.
///
/// Callbacks fire **on the worker thread that ran the job** (hence the
/// `Sync` bound), and a finished job's [`JobReport`] carries its full
/// [`StageTimings`], so a listener can stream per-stage breakdowns without
/// waiting for the final [`BatchReport`]. Job indices refer to submission
/// order; jobs on different workers start and finish interleaved.
///
/// Both methods default to no-ops, so listeners implement only what they
/// need. A panicking callback is caught and discarded — the farm's
/// per-job panic isolation extends to listeners, so a buggy progress hook
/// cannot take down the batch or lose completed results.
pub trait BatchProgress: Sync {
    /// A worker claimed `job` (index `index` in submission order) and is
    /// about to run it.
    fn job_started(&self, index: usize, job: &Job) {
        let _ = (index, job);
    }

    /// The job at `index` finished (ok, failed, or panicked); `report` is
    /// exactly the row the final [`BatchReport`] will hold.
    fn job_finished(&self, index: usize, report: &JobReport) {
        let _ = (index, report);
    }
}

/// The default listener: hears nothing.
struct Silent;

impl BatchProgress for Silent {}

/// Runs every job in `batch` across the configured worker pool and
/// aggregates the per-job outcomes into a [`BatchReport`].
///
/// Job execution is deterministic (all built-in strategies are), so the
/// per-job results are identical for any worker count; only wall-clock
/// fields differ.
pub fn run_batch(batch: &Batch, config: &FarmConfig) -> BatchReport {
    run_batch_with_progress(batch, config, &Silent)
}

/// [`run_batch`] with a [`BatchProgress`] listener receiving job
/// started/finished callbacks as workers process the queue.
pub fn run_batch_with_progress(
    batch: &Batch,
    config: &FarmConfig,
    progress: &dyn BatchProgress,
) -> BatchReport {
    let started = Instant::now();
    let workers = config.effective_workers(batch.jobs.len());
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<JobReport>>> = Mutex::new(vec![None; batch.jobs.len()]);
    let faults = config.faults.as_deref();
    let order = pickup_order(faults, batch.jobs.len());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The drain hook: a set flag stops workers from claiming
                // further jobs; claimed jobs always run to completion.
                if config
                    .stop
                    .as_ref()
                    .is_some_and(|flag| flag.load(Ordering::Relaxed))
                {
                    break;
                }
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = order.get(slot) else {
                    break;
                };
                let job = &batch.jobs[index];
                if let Some(delay) = faults.and_then(|f| f.pickup_delay(index)) {
                    std::thread::sleep(delay);
                }
                // Listener panics are swallowed (they run outside
                // run_job's catch) so a buggy hook cannot abort the
                // scoped pool and lose the batch's results.
                let _ = catch_unwind(AssertUnwindSafe(|| progress.job_started(index, job)));
                let report = run_job(job, index, batch, config);
                let _ = catch_unwind(AssertUnwindSafe(|| progress.job_finished(index, &report)));
                slots.lock().expect("farm result lock")[index] = Some(report);
            });
        }
    });

    // Without a drain every slot is filled (claimed jobs always report);
    // under a drain the never-claimed jobs get a cancellation row so the
    // report still has one row per job in submission order.
    let jobs = slots
        .into_inner()
        .expect("farm result lock")
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.unwrap_or_else(|| {
                debug_assert!(config.stop.is_some(), "every claimed job reports");
                let job = &batch.jobs[index];
                JobReport {
                    name: job.name.clone(),
                    partitioner: partitioner_name(job, batch, config).to_string(),
                    status: JobStatus::Failed("cancelled: batch drain requested".to_string()),
                    elapsed: Duration::ZERO,
                    retries: 0,
                    stats: None,
                }
            })
        })
        .collect();
    BatchReport {
        jobs,
        workers,
        elapsed: started.elapsed(),
    }
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
fn partitioner_name<'a>(job: &'a Job, batch: &'a Batch, config: &'a FarmConfig) -> &'a str {
    job.partitioner
        .as_deref()
        .or(config.partitioner_override.as_deref())
        .or(batch.default_partitioner.as_deref())
        .unwrap_or(DEFAULT_PARTITIONER)
}

/// Runs one job on the calling worker thread and folds the final
/// attempt's outcome into the job's batch row.
fn run_job(job: &Job, index: usize, batch: &Batch, config: &FarmConfig) -> JobReport {
    let started = Instant::now();
    let name = partitioner_name(job, batch, config);
    let (outcome, retries) = run_attempts(job, index, name, config);
    let (status, stats) = match outcome {
        Ok(run) => (JobStatus::Ok, Some(run.into_stats())),
        Err(status) => (status, None),
    };
    JobReport {
        name: job.name.clone(),
        partitioner: name.to_string(),
        status,
        elapsed: started.elapsed(),
        retries,
        stats,
    }
}

/// The attempt loop, the only code that runs a job (a batch row or an
/// [`api::synthesize_with`](crate::api::synthesize_with) request): each
/// attempt runs in panic isolation under the deadline and the injector's
/// faults for job `index`, up to the retry budget. Returns the last
/// attempt's run or status (never `Ok`) and the retries it took.
pub(crate) fn run_attempts(
    job: &Job,
    index: usize,
    partitioner: &str,
    config: &FarmConfig,
) -> (Result<JobRun, JobStatus>, u32) {
    let mut attempt: u32 = 0;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute(job, index, attempt, partitioner, config)
        }))
        .unwrap_or_else(|payload| Err(JobStatus::Panicked(panic_message(&payload))));
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
    /// The measurements a batch row reports for this run.
    fn into_stats(self) -> JobStats {
        match self.output {
            JobOutput::Partition(partitioning, lint) => JobStats {
                inner_before: partitioning.covered() + partitioning.uncovered().len(),
                inner_after: partitioning.inner_total(),
                partitions: partitioning.num_partitions(),
                complete: partitioning.is_complete(),
                lint,
                timings: self.timings,
                ..JobStats::default()
            },
            JobOutput::Synth(result) => JobStats {
                inner_before: result.inner_before(),
                inner_after: result.inner_after(),
                partitions: result.partitioning.num_partitions(),
                complete: result.partitioning.is_complete(),
                c_bytes: result.c_sources.iter().map(|(_, c)| c.len()).sum(),
                verified: result.report.as_ref().is_some_and(|r| r.is_equivalent()),
                lint: result.lint,
                timings: self.timings,
            },
        }
    }
}

/// The status a pipeline error ends an attempt with: a timeout abort
/// times the attempt out, anything else fails it.
fn attempt_status(error: SynthError) -> JobStatus {
    match error {
        SynthError::Aborted { abort, .. } if abort.timeout => JobStatus::TimedOut(abort.message),
        other => JobStatus::Failed(other.to_string()),
    }
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

/// The fallible body of one attempt of one job.
fn execute(
    job: &Job,
    index: usize,
    attempt: u32,
    partitioner_name: &str,
    config: &FarmConfig,
) -> Result<JobRun, JobStatus> {
    let partitioner = config
        .registry
        .from_str(partitioner_name)
        .map_err(JobStatus::Failed)?;
    let design = job.load_design().map_err(JobStatus::Failed)?;
    let mut guard = StageGuard::new(config, index, attempt);
    let pipeline = Pipeline::new(&design)
        .constraints(PartitionConstraints::with_spec(job.spec))
        .optimize(job.optimize)
        .observe(&mut guard);
    let pipeline = match job.lint.or(config.lint) {
        Some(lint) => pipeline.lint(lint),
        None => pipeline,
    };
    let output = match job.mode {
        JobMode::Partition => {
            let (partitioning, lint) = pipeline
                .partition_only(partitioner.as_ref())
                .map_err(attempt_status)?;
            JobOutput::Partition(partitioning, lint)
        }
        JobMode::Synth => JobOutput::Synth(Box::new(
            pipeline
                .run(partitioner.as_ref(), job.verify)
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
    use crate::job::Job;
    use crate::report::JsonOptions;
    use eblocks_core::Design;
    use eblocks_partition::{Partitioner, Partitioning};

    fn library_batch() -> Batch {
        Batch::new(vec![
            Job::library("Ignition Illuminator"),
            Job::library("Podium Timer 3").with_partitioner("refine"),
            Job::generated(10, 3).with_mode(JobMode::Partition),
        ])
    }

    #[test]
    fn batch_runs_and_aggregates() {
        let report = run_batch(&library_batch(), &FarmConfig::with_workers(2));
        assert_eq!(report.jobs.len(), 3);
        assert!(report.all_ok(), "{}", report.render_text(false));
        assert_eq!(report.workers, 2);
        let stats = report.jobs[0].stats.as_ref().unwrap();
        assert_eq!(stats.inner_before, 2);
        assert_eq!(stats.inner_after, 1);
        assert!(stats.verified);
        assert!(stats.c_bytes > 0);
        assert_eq!(report.jobs[1].partitioner, "refine");
        let part = report.jobs[2].stats.as_ref().unwrap();
        assert_eq!(part.c_bytes, 0, "partition mode emits no C");
        assert!(!part.verified);
        assert_eq!(part.timings.reports.len(), 1, "only the partition stage");
    }

    #[test]
    fn lint_gate_reports_and_rejects() {
        // Farm-level default: every job lints first, in both modes.
        let config = FarmConfig::with_workers(2).lint(LintConfig::default());
        let report = run_batch(&library_batch(), &config);
        assert!(report.all_ok(), "{}", report.render_text(false));
        for job in &report.jobs {
            let stats = job.stats.as_ref().unwrap();
            assert!(stats.lint.is_some(), "{}: lint outcome recorded", job.name);
            assert_eq!(stats.timings.reports[0].stage, Stage::Lint);
        }

        // A per-job zero fan-out budget under deny-warnings rejects the
        // job; its sibling without the override stays lint-free.
        let strict = LintConfig {
            deny: eblocks_lint::DenyLevel::Warnings,
            max_fanout: 0,
            ..LintConfig::default()
        };
        let batch = Batch::new(vec![
            Job::library("Ignition Illuminator").with_lint(strict),
            Job::library("Ignition Illuminator"),
        ]);
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        let JobStatus::Failed(message) = &report.jobs[0].status else {
            panic!("{:?}", report.jobs[0].status);
        };
        assert!(message.contains("lint rejected the design"), "{message}");
        assert!(message.contains("W008"), "{message}");
        let stats = report.jobs[1].stats.as_ref().unwrap();
        assert_eq!(stats.lint, None, "lint is off unless configured");
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
        assert_eq!(report.workers, 1);
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
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.succeeded(), 0);
        for job in &report.jobs {
            let JobStatus::Failed(message) = &job.status else {
                panic!("{:?}", job.status);
            };
            assert_eq!(message, "cancelled: batch drain requested");
        }
        assert_eq!(report.jobs[1].partitioner, "refine");

        // A flag set from a progress hook after the first job finishes
        // (one worker, so scheduling is sequential) lets that job keep
        // its real report and cancels the rest deterministically.
        struct StopAfterFirst(Arc<AtomicBool>);
        impl BatchProgress for StopAfterFirst {
            fn job_finished(&self, _: usize, _: &JobReport) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let flag = Arc::new(AtomicBool::new(false));
        let config = FarmConfig::with_workers(1).stop_on(flag.clone());
        let report = run_batch_with_progress(&library_batch(), &config, &StopAfterFirst(flag));
        assert!(report.jobs[0].status.is_ok(), "{:?}", report.jobs[0].status);
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 2);
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
        assert_eq!(report.jobs[0].retries, 1);
        assert_eq!(report.jobs[1].retries, 0);
        assert_eq!(report.jobs[2].retries, 0);
        let json = report.to_json(&JsonOptions::default());
        assert!(json.contains(r#""retries":1"#), "{json}");

        // Without the budget the same fault is a terminal panic.
        let script = Script::faults(vec![(
            (0, 0, Stage::Partition),
            Fault::Panic("injected panic".into()),
        )]);
        let config = FarmConfig::with_workers(2).inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        let JobStatus::Panicked(message) = &report.jobs[0].status else {
            panic!("{:?}", report.jobs[0].status);
        };
        assert_eq!(message, "injected panic");
        assert_eq!(report.jobs[0].retries, 0);
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
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.succeeded(), 2);
        let JobStatus::Failed(message) = &report.jobs[1].status else {
            panic!("{:?}", report.jobs[1].status);
        };
        assert_eq!(message, "stage partition aborted: injected fault");
        assert_eq!(report.jobs[1].retries, 2);
    }

    #[test]
    fn injected_timeout_reports_timed_out() {
        let script = Script::faults(vec![(
            (0, 0, Stage::Merge),
            Fault::Abort(StageAbort::timeout("injected timeout before merge")),
        )]);
        let config = FarmConfig::with_workers(1).inject(Arc::new(script));
        let report = run_batch(&library_batch(), &config);
        let JobStatus::TimedOut(message) = &report.jobs[0].status else {
            panic!("{:?}", report.jobs[0].status);
        };
        assert_eq!(message, "injected timeout before merge");
        let json = report.to_json(&JsonOptions::default());
        assert!(json.contains(r#""status":"timed-out""#), "{json}");
        assert!(report.jobs[1].status.is_ok());
        assert!(report.jobs[2].status.is_ok());
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
        let JobStatus::TimedOut(message) = &report.jobs[0].status else {
            panic!("{:?}", report.jobs[0].status);
        };
        assert_eq!(message, "job timed out before merge (limit 30ms)");
        assert_eq!(report.jobs[0].retries, 0);
        assert!(report.jobs[1].status.is_ok());
    }

    #[test]
    fn no_stage_time_includes_an_injected_gate_delay() {
        // A delay enacted in the lint and partition gates of both a synth
        // job and a partition-only job: the gate is not part of any stage.
        let delay = Duration::from_millis(100);
        let batch = Batch::new(vec![
            Job::library("Ignition Illuminator"),
            Job::library("Ignition Illuminator").with_mode(JobMode::Partition),
        ]);
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
        for (job, row) in batch.jobs.iter().zip(&report.jobs) {
            let stages = &row.stats.as_ref().unwrap().timings.reports;
            assert_eq!(stages[0].stage, Stage::Lint);
            assert_eq!(stages[1].stage, Stage::Partition);
            for stage in stages {
                assert!(
                    stage.elapsed < delay,
                    "{:?} job: {} took {:?}",
                    job.mode,
                    stage.stage,
                    stage.elapsed
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

        let batch = Batch::new(vec![
            Job::netlist(&path),
            Job::netlist(&path).with_mode(JobMode::Partition),
        ]);
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        std::fs::remove_dir_all(&dir).ok();
        let messages: Vec<&str> = report
            .jobs
            .iter()
            .map(|job| match &job.status {
                JobStatus::Failed(message) => message.as_str(),
                other => panic!("{other:?}"),
            })
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
        assert_eq!(report.workers, 3);
        let empty = run_batch(&Batch::default(), &FarmConfig::with_workers(8));
        assert_eq!(empty.jobs.len(), 0);
        assert!(empty.all_ok());
    }

    #[test]
    fn partitioner_resolution_precedence() {
        let mut batch = Batch::new(vec![
            Job::library("Ignition Illuminator"),
            Job::library("Carpool Alert").with_partitioner("aggregation"),
        ]);
        batch.default_partitioner = Some("refine".into());

        // Batch default applies when nothing else is set.
        let report = run_batch(&batch, &FarmConfig::with_workers(1));
        assert_eq!(report.jobs[0].partitioner, "refine");
        assert_eq!(report.jobs[1].partitioner, "aggregation");

        // The engine override beats the batch default, not the per-job pick.
        let config = FarmConfig {
            workers: Some(1),
            partitioner_override: Some("anneal".into()),
            ..Default::default()
        };
        let report = run_batch(&batch, &config);
        assert_eq!(report.jobs[0].partitioner, "anneal");
        assert_eq!(report.jobs[1].partitioner, "aggregation");
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let batch = Batch::new(vec![
            Job::netlist("/nonexistent/x.netlist"),
            Job::library("Ignition Illuminator").with_partitioner("magic"),
            Job::library("Ignition Illuminator"),
        ]);
        let report = run_batch(&batch, &FarmConfig::with_workers(2));
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 2);
        let JobStatus::Failed(e) = &report.jobs[0].status else {
            panic!("{:?}", report.jobs[0].status);
        };
        assert!(e.contains("cannot read"), "{e}");
        let JobStatus::Failed(e) = &report.jobs[1].status else {
            panic!("{:?}", report.jobs[1].status);
        };
        assert!(
            e.contains("unknown partitioner `magic`") && e.contains("pare-down"),
            "lists the registered names: {e}"
        );
        assert!(report.jobs[2].status.is_ok());
    }

    /// A listener recording every callback, guarded for cross-thread use.
    #[derive(Default)]
    struct Recorder {
        started: Mutex<Vec<(usize, String)>>,
        finished: Mutex<Vec<(usize, JobReport)>>,
    }

    impl BatchProgress for Recorder {
        fn job_started(&self, index: usize, job: &Job) {
            self.started.lock().unwrap().push((index, job.name.clone()));
        }

        fn job_finished(&self, index: usize, report: &JobReport) {
            self.finished.lock().unwrap().push((index, report.clone()));
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
                *row, report.jobs[*index],
                "streamed rows match the final report"
            );
        }
        // The streamed rows carry the per-job stage timings already.
        assert!(!finished[0]
            .1
            .stats
            .as_ref()
            .unwrap()
            .timings
            .reports
            .is_empty());
    }

    #[test]
    fn panicking_listener_does_not_lose_the_batch() {
        struct Grenade;

        impl BatchProgress for Grenade {
            fn job_started(&self, _: usize, _: &Job) {
                panic!("listener bug on start");
            }

            fn job_finished(&self, _: usize, _: &JobReport) {
                panic!("listener bug on finish");
            }
        }

        let report =
            run_batch_with_progress(&library_batch(), &FarmConfig::with_workers(2), &Grenade);
        assert_eq!(report.jobs.len(), 3);
        assert!(report.all_ok(), "{}", report.render_text(false));
    }

    #[test]
    fn progress_listener_hears_panicked_jobs_too() {
        let mut config = FarmConfig::with_workers(1);
        config.registry.register("poison", || Box::new(Poison));
        let batch = Batch::new(vec![
            Job::library("Ignition Illuminator").with_partitioner("poison")
        ]);
        let recorder = Recorder::default();
        run_batch_with_progress(&batch, &config, &recorder);
        let finished = recorder.finished.into_inner().unwrap();
        assert!(matches!(finished[0].1.status, JobStatus::Panicked(_)));
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
        let batch = Batch::new(vec![
            Job::library("Ignition Illuminator"),
            Job::library("Carpool Alert").with_partitioner("poison"),
            Job::library("Night Lamp Controller"),
        ]);
        let report = run_batch(&batch, &config);
        assert_eq!(report.succeeded(), 2);
        let JobStatus::Panicked(message) = &report.jobs[1].status else {
            panic!("expected a panic report, got {:?}", report.jobs[1].status);
        };
        assert!(message.contains("poisoned strategy"), "{message}");
        assert!(report.jobs[0].status.is_ok());
        assert!(report.jobs[2].status.is_ok());
        let json = report.to_json(&JsonOptions::default());
        assert!(json.contains(r#""status":"panicked""#), "{json}");
    }
}
