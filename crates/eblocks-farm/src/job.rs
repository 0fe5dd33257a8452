//! The unit of work the farm schedules: one design × one strategy × options.

use eblocks_core::{Design, ProgrammableSpec};
use eblocks_lint::LintConfig;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Where a job's design comes from.
///
/// This is also the wire type [`DesignSource`](crate::api::DesignSource) of
/// the JSON request API: `{"netlist": "path"}`, `{"library": "Name"}`, or
/// `{"generated": {"inner": 20, "seed": 7}}` (`seed` defaults to 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobSource {
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
        /// Target inner-block count.
        inner: usize,
        /// Generator seed (same seed ⇒ same design).
        #[serde(default)]
        seed: u64,
    },
}

/// How far the job runs the synthesis pipeline.
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

/// One schedulable unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Display name, used to key the job's row in the batch report.
    pub name: String,
    /// Where the design comes from.
    pub source: JobSource,
    /// Strategy name resolved against the farm's registry; `None` falls
    /// back to the batch/engine default (see
    /// [`FarmConfig`](crate::FarmConfig)).
    pub partitioner: Option<String>,
    /// How far to run the pipeline.
    pub mode: JobMode,
    /// Co-simulate original vs synthesized (synth mode only).
    pub verify: bool,
    /// Run the behavior-tree optimizer before emitting C.
    pub optimize: bool,
    /// Programmable-block pin budget.
    pub spec: ProgrammableSpec,
    /// Lint the design before synthesis; `None` falls back to the farm's
    /// [`FarmConfig::lint`](crate::FarmConfig::lint) default (usually off).
    pub lint: Option<LintConfig>,
}

impl Job {
    fn with_source(name: String, source: JobSource) -> Self {
        Self {
            name,
            source,
            partitioner: None,
            mode: JobMode::Synth,
            verify: true,
            optimize: true,
            spec: ProgrammableSpec::default(),
            lint: None,
        }
    }

    /// A job over a netlist file, named after the file stem.
    pub fn netlist(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        Self::with_source(name, JobSource::Netlist(path))
    }

    /// A job over a Table-1 library design, named after it.
    pub fn library(name: impl Into<String>) -> Self {
        let name = name.into();
        Self::with_source(name.clone(), JobSource::Library(name))
    }

    /// A job over a generated design, named `gen<inner>-<seed>`.
    pub fn generated(inner: usize, seed: u64) -> Self {
        Self::with_source(
            format!("gen{inner}-{seed}"),
            JobSource::Generated { inner, seed },
        )
    }

    /// Renames the job.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Pins the partitioning strategy (otherwise the batch default applies).
    pub fn with_partitioner(mut self, name: impl Into<String>) -> Self {
        self.partitioner = Some(name.into());
        self
    }

    /// Sets how far the pipeline runs.
    pub fn with_mode(mut self, mode: JobMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables or disables equivalence verification.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Enables or disables the behavior-tree optimizer.
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Sets the programmable-block pin budget.
    pub fn with_spec(mut self, spec: ProgrammableSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Enables the lint stage for this job (overriding the farm default).
    pub fn with_lint(mut self, config: LintConfig) -> Self {
        self.lint = Some(config);
        self
    }

    /// Loads the job's design from its source (read + parse a netlist
    /// file, look up a library design, or run the seeded generator).
    /// Public so front ends like the service mode's admission lint gate
    /// can inspect a design before committing the farm to running it.
    ///
    /// # Errors
    ///
    /// A human-readable message: unreadable or invalid netlist file,
    /// unknown library design.
    pub fn load_design(&self) -> Result<Design, String> {
        match &self.source {
            JobSource::Netlist(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                eblocks_core::netlist::from_netlist(&text).map_err(|e| e.to_string())
            }
            JobSource::Library(name) => eblocks_designs::by_name(name)
                .map(|entry| entry.design)
                .ok_or_else(|| format!("unknown library design `{name}`")),
            JobSource::Generated { inner, seed } => Ok(eblocks_gen::generate(
                &eblocks_gen::GeneratorConfig::new(*inner),
                *seed,
            )),
        }
    }
}

/// An ordered collection of jobs plus batch-level defaults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// The jobs, in submission order (report rows keep this order).
    pub jobs: Vec<Job>,
    /// Strategy for jobs that set none, from the manifest's
    /// `default partitioner=…` line. The engine-level override in
    /// [`FarmConfig`](crate::FarmConfig) takes precedence over this; the
    /// built-in fallback is `pare-down`.
    pub default_partitioner: Option<String>,
}

impl Batch {
    /// A batch over the given jobs with no batch-level default strategy.
    pub fn new(jobs: Vec<Job>) -> Self {
        Self {
            jobs,
            default_partitioner: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_names_and_defaults() {
        let j = Job::netlist("/tmp/deep/garage.netlist");
        assert_eq!(j.name, "garage");
        assert!(matches!(j.source, JobSource::Netlist(_)));
        assert_eq!(j.partitioner, None);
        assert_eq!(j.mode, JobMode::Synth);
        assert!(j.verify && j.optimize);

        let j = Job::library("Podium Timer 3")
            .with_partitioner("refine")
            .with_mode(JobMode::Partition)
            .with_verify(false)
            .named("pt3");
        assert_eq!(j.name, "pt3");
        assert_eq!(j.partitioner.as_deref(), Some("refine"));
        assert_eq!(j.mode, JobMode::Partition);

        let j = Job::generated(20, 7);
        assert_eq!(j.name, "gen20-7");
    }

    #[test]
    fn sources_load() {
        assert!(Job::library("Podium Timer 3").load_design().is_ok());
        assert!(Job::library("No Such Design")
            .load_design()
            .unwrap_err()
            .contains("unknown library design"));
        assert!(Job::netlist("/nonexistent/x.netlist")
            .load_design()
            .unwrap_err()
            .contains("cannot read"));
        let d = Job::generated(8, 42).load_design().unwrap();
        let same = eblocks_gen::generate(&eblocks_gen::GeneratorConfig::new(8), 42);
        assert_eq!(
            eblocks_core::netlist::to_netlist(&d),
            eblocks_core::netlist::to_netlist(&same),
            "generated source is seed-deterministic"
        );
    }
}
