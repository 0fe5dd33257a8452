//! Daemon configuration.

use eblocks_lint::LintConfig;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Configuration for one daemon (see [`spawn`](crate::spawn)).
///
/// Edge cases are clamped, not rejected, mirroring the farm's
/// `with_workers(0)` behavior: a queue capacity of 0 becomes 1, a worker
/// count of 0 becomes 1, and missing spool directories are created on
/// startup.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The spool root; `inbox/`, `outbox/`, `rejected/`, and `claimed/`
    /// are created under it if missing.
    pub spool: PathBuf,
    /// Bind a Unix-domain socket at this path (a stale socket file from
    /// a previous run is removed first). `None` (the default) serves the
    /// spool only.
    pub socket: Option<PathBuf>,
    /// Daemon worker threads executing queued requests. 0 clamps to 1.
    /// Default 1: one request at a time, in admission order.
    pub workers: usize,
    /// Bounded work-queue capacity. 0 clamps to 1. Default 64.
    pub queue_capacity: usize,
    /// How often the spool watcher scans `inbox/`. Default 20ms.
    pub poll_interval: Duration,
    /// Lint every loadable design in a request at this deny level
    /// *before* enqueueing; rejections are turned away at admission
    /// (`lint-rejected`) without running any synthesis. `None` (the
    /// default) admits everything, which keeps daemon responses
    /// byte-identical to the one-shot `batch`/`synth` paths.
    pub admission_lint: Option<LintConfig>,
    /// Per-job retry budget for every request the daemon runs
    /// ([`FarmConfig::max_retries`](eblocks_farm::FarmConfig::max_retries)).
    pub max_retries: u32,
    /// Cooperative per-attempt deadline for every job
    /// ([`FarmConfig::job_timeout`](eblocks_farm::FarmConfig::job_timeout)).
    pub job_timeout: Option<Duration>,
    /// Worker threads of the *farm pool inside one batch request*;
    /// `None` uses all cores. Reports are deterministic either way.
    pub farm_workers: Option<usize>,
    /// Install SIGTERM/SIGINT handlers: the first signal starts a
    /// graceful drain, a second hardens it (running batches cancel
    /// never-claimed jobs). Default false — embedders and tests drive
    /// shutdown through [`ServerHandle::shutdown`](crate::ServerHandle)
    /// or a `"shutdown"` request; the CLI sets it.
    pub handle_signals: bool,
}

impl ServeConfig {
    /// A default config serving the spool rooted at `spool`.
    pub fn new(spool: impl AsRef<Path>) -> Self {
        Self {
            spool: spool.as_ref().to_path_buf(),
            socket: None,
            workers: 1,
            queue_capacity: 64,
            poll_interval: Duration::from_millis(20),
            admission_lint: None,
            max_retries: 0,
            job_timeout: None,
            farm_workers: None,
            handle_signals: false,
        }
    }

    /// Also serve the line-delimited JSON protocol on a Unix socket at
    /// `path` (see [`ServeConfig::socket`]).
    pub fn socket(mut self, path: impl AsRef<Path>) -> Self {
        self.socket = Some(path.as_ref().to_path_buf());
        self
    }

    /// Sets the daemon worker count (see [`ServeConfig::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded queue capacity (see
    /// [`ServeConfig::queue_capacity`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the spool scan period (see [`ServeConfig::poll_interval`]).
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// The config with its edge cases clamped (workers and queue
    /// capacity at least 1).
    pub(crate) fn clamped(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }

    /// `<spool>/inbox`.
    pub(crate) fn inbox(&self) -> PathBuf {
        self.spool.join("inbox")
    }

    /// `<spool>/outbox`.
    pub(crate) fn outbox(&self) -> PathBuf {
        self.spool.join("outbox")
    }

    /// `<spool>/rejected`.
    pub(crate) fn rejected(&self) -> PathBuf {
        self.spool.join("rejected")
    }

    /// `<spool>/claimed`.
    pub(crate) fn claimed(&self) -> PathBuf {
        self.spool.join("claimed")
    }
}
