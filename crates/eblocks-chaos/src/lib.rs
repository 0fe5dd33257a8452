//! Deterministic chaos harness for the batch farm: seeded fault
//! injection, retry/timeout exercise, and replayable failure traces.
//!
//! The farm ([`eblocks_farm`]) exposes a
//! [`FaultInjector`](eblocks_farm::FaultInjector) seam; this
//! crate supplies the injector. A [`ChaosConfig`] — a `u64` seed plus a
//! [`ChaosPlan`] — drives three fault surfaces:
//!
//! * **scheduling**: the order workers claim jobs is shuffled by a seeded
//!   permutation, and claims are stretched by bounded artificial delays;
//! * **stage faults**: panics and (clock-free) timeouts injected at
//!   chosen `(job, attempt, stage)` points, either pinned
//!   ([`ForcedFault`]) or drawn probabilistically from the seed;
//! * **input bytes**: [`corrupt::corrupt`] mutates manifest/JSON bytes so
//!   the parsers' never-panic contract can be fuzzed.
//!
//! Every decision is a pure function of the seed and the injection
//! point's coordinates — never of timing or worker identity — so a run's
//! deterministic report
//! ([`BatchResponse::from_report`](eblocks_farm::BatchResponse::from_report))
//! and [`ChaosTrace`] are byte-identical across repeats
//! *and across worker counts*, and the seed alone replays them. That is
//! the harness's contract: a failing CI run prints its seed, and
//! `eblocks-cli batch --chaos-seed N` reproduces the failure exactly.
//!
//! # Example
//!
//! ```
//! use eblocks_chaos::{run_chaos, ChaosConfig};
//! use eblocks_farm::{BatchRequest, FarmConfig};
//!
//! let batch = BatchRequest::parse(
//!     "job library=\"Ignition Illuminator\"\n\
//!      job library=\"Carpool Alert\"\n",
//! )
//! .unwrap();
//! let chaos = ChaosConfig::from_seed(42);
//! let once = run_chaos(&batch, FarmConfig::with_workers(2).retries(3), &chaos);
//! let again = run_chaos(&batch, FarmConfig::with_workers(1).retries(3), &chaos);
//! // Same seed => same outcomes and same trace, even at another worker
//! // count (timings excluded from the deterministic rendering).
//! assert_eq!(once.trace, again.trace);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod inject;
pub mod net;
pub mod plan;
pub mod trace;

pub use inject::ChaosInjector;
pub use net::{NetChaosInjector, NetChaosPlan};
pub use plan::{ChaosPlan, FaultKind, ForcedFault};
pub use trace::{ChaosTrace, TraceEvent, TraceFault};

use eblocks_farm::{run_batch, BatchRequest, BatchResponse, FarmConfig};
use std::sync::Arc;

/// Everything needed to run — and later replay — one chaos experiment.
///
/// Two runs with equal configs over the same batch produce byte-identical
/// deterministic reports and traces; [`ChaosConfig::from_seed`] is the
/// replay path (the CLI's `--chaos-seed N`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The seed every injection decision derives from.
    pub seed: u64,
    /// The storm's shape (probabilities and pinned faults).
    pub plan: ChaosPlan,
}

impl ChaosConfig {
    /// The standard storm from a seed alone — the whole experiment is
    /// reconstructible from this one number, which is what a failing run
    /// prints and `--chaos-seed N` replays.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            plan: ChaosPlan::default(),
        }
    }

    /// A seeded run of a custom plan.
    pub fn with_plan(seed: u64, plan: ChaosPlan) -> Self {
        Self { seed, plan }
    }
}

/// One chaos run's outcome: the batch report the farm produced under
/// fault injection, plus the replayable record of what was injected.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The farm's report, exactly as a fault-free run would shape it
    /// (failed jobs carry the injected fault messages).
    pub report: BatchResponse,
    /// Every fault fired, replayable from its seed.
    pub trace: ChaosTrace,
}

/// Runs `batch` under fault injection: installs a [`ChaosInjector`] for
/// `chaos` into `config` (replacing any injector already there) and runs
/// the farm. Retry and timeout policies come from `config`
/// ([`FarmConfig::retries`], [`FarmConfig::timeout`]).
pub fn run_chaos(
    batch: &BatchRequest,
    mut config: FarmConfig,
    chaos: &ChaosConfig,
) -> ChaosOutcome {
    let injector = Arc::new(ChaosInjector::new(chaos.seed, chaos.plan.clone()));
    config.faults = Some(Arc::clone(&injector) as Arc<dyn eblocks_farm::FaultInjector>);
    let report = run_batch(batch, &config);
    let trace = injector.trace(batch.jobs.len());
    ChaosOutcome { report, trace }
}
