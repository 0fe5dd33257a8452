//! The staged synthesis pipeline.
//!
//! [`Pipeline`] decomposes synthesis into typed stages — each stage method
//! consumes the previous stage's value and returns the next, so callers can
//! stop early, inspect intermediates, or swap the partitioning strategy:
//!
//! ```text
//! Pipeline::new(design)
//!     .partition_with(&strategy)?   -> Partitioned
//!     .merge()?                     -> Merged
//!     .rewrite()?                   -> Rewritten
//!     .verify(VerifyOptions)?       -> Verified   (or .skip_verify())
//!     .emit_c()                     -> SynthesisResult
//! ```
//!
//! [`Pipeline::run`] is that whole chain in one call, and
//! [`Pipeline::partition_only`] is partition analysis: the lint gate and
//! the strategy, nothing after. Attach an [`Observer`] with
//! [`Pipeline::observe`] for per-stage timing, progress and cancellation;
//! every stage reaches it through the same gate and report calls.

use crate::error::SynthError;
use crate::observe::{Observer, Stage, StageReport};
use crate::rewrite::rewrite_network;
use crate::stimulus::exercise_all_sensors;
use eblocks_behavior::Program;
use eblocks_codegen::{emit_c, estimate_size, MergedProgram, Merger, SizeEstimate};
use eblocks_core::{BlockId, Design};
use eblocks_lint::{lint_design, LintConfig, LintOutcome};
use eblocks_partition::{PartitionConstraints, Partitioner, Partitioning};
use eblocks_sim::{equivalence, EquivalenceReport, Simulator, Time};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Options for the [`Rewritten::verify`] stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Stimulus spacing (ticks between sensor edges).
    pub spacing: Time,
    /// Timing-skew tolerance (merging removes internal wire hops, shifting
    /// pulse windows by a few ticks).
    pub tolerance: Time,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            spacing: 64,
            tolerance: 8,
        }
    }
}

/// Everything synthesis produces for one design.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The rewritten network (programmable blocks named `prog0`, `prog1`, …).
    pub synthesized: Design,
    /// The partitioning that was applied.
    pub partitioning: Partitioning,
    /// Merged program and pin maps per partition.
    pub merged: Vec<MergedProgram>,
    /// Behavior program per programmable block in `synthesized`.
    pub programs: HashMap<BlockId, Program>,
    /// Generated C source per programmable block, keyed by block name.
    pub c_sources: Vec<(String, String)>,
    /// PIC16F628 size estimate per programmable block, keyed by block name.
    pub size_estimates: Vec<(String, SizeEstimate)>,
    /// Equivalence report when verification ran.
    pub report: Option<EquivalenceReport>,
    /// Lint totals when the lint stage ran (and admitted the design).
    pub lint: Option<LintOutcome>,
}

impl SynthesisResult {
    /// Inner blocks before synthesis.
    pub fn inner_before(&self) -> usize {
        self.partitioning.covered() + self.partitioning.uncovered().len()
    }

    /// Inner blocks after synthesis (pre-defined + programmable) — the
    /// paper's *Inner Blocks (Total)*.
    pub fn inner_after(&self) -> usize {
        self.partitioning.inner_total()
    }
}

/// Shared state threaded through the pipeline stages.
struct Ctx<'a> {
    design: &'a Design,
    /// The constraints the partition stage runs under (convexity forced
    /// on for synthesis; see [`Pipeline::partition_with`]).
    constraints: PartitionConstraints,
    optimize: bool,
    observer: Option<&'a mut dyn Observer>,
    /// Totals from the lint stage, when it ran.
    lint: Option<LintOutcome>,
}

impl Ctx<'_> {
    /// Asks the observer for permission to run `stage`, mapping a refusal
    /// to [`SynthError::Aborted`].
    fn begin(&mut self, stage: Stage) -> Result<(), SynthError> {
        if let Some(observer) = self.observer.as_deref_mut() {
            observer
                .before_stage(stage)
                .map_err(|abort| SynthError::Aborted { stage, abort })?;
        }
        Ok(())
    }

    fn report(&mut self, stage: Stage, elapsed: Duration, detail: String) {
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.on_stage(&StageReport {
                stage,
                elapsed,
                detail,
            });
        }
    }

    /// Runs the lint stage under `config` and rejects the design at the
    /// config's deny level.
    fn lint_stage(&mut self, config: LintConfig) -> Result<(), SynthError> {
        self.begin(Stage::Lint)?;
        let started = Instant::now();
        let report = lint_design(self.design);
        let outcome = report.outcome();
        self.report(Stage::Lint, started.elapsed(), outcome.to_string());
        if report.rejects(config.deny) {
            return Err(SynthError::LintRejected { report });
        }
        self.lint = Some(outcome);
        Ok(())
    }
}

/// Entry point of the staged synthesis pipeline.
///
/// # Example
///
/// ```
/// use eblocks_designs::podium_timer_3;
/// use eblocks_partition::strategy::PareDown;
/// use eblocks_synth::{Pipeline, VerifyOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = podium_timer_3();
/// let result = Pipeline::new(&design)
///     .partition_with(&PareDown)?
///     .merge()?
///     .rewrite()?
///     .verify(VerifyOptions::default())?
///     .emit_c();
/// assert_eq!(result.synthesized.census().inner_total(), 3);
///
/// // The same chain in one call.
/// let again = Pipeline::new(&design).run(&PareDown, true)?;
/// assert_eq!(again.c_sources, result.c_sources);
/// # Ok(())
/// # }
/// ```
pub struct Pipeline<'a> {
    design: &'a Design,
    constraints: PartitionConstraints,
    optimize: bool,
    observer: Option<&'a mut dyn Observer>,
    lint: Option<LintConfig>,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over `design` with default constraints, the behavior
    /// optimizer enabled, no lint stage, and no observer.
    pub fn new(design: &'a Design) -> Self {
        Self {
            design,
            constraints: PartitionConstraints::default(),
            optimize: true,
            observer: None,
            lint: None,
        }
    }

    /// Sets the partition feasibility constraints (pin budget etc.).
    pub fn constraints(mut self, constraints: PartitionConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Enables or disables the behavior-tree optimizer (default: enabled).
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Attaches an observer that receives a [`StageReport`] after each
    /// stage completes.
    pub fn observe(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enables the lint stage: the design is statically analyzed before
    /// partitioning and rejected with [`SynthError::LintRejected`] under
    /// the config's deny level. Off by default.
    pub fn lint(mut self, config: LintConfig) -> Self {
        self.lint = Some(config);
        self
    }

    /// Runs the lint stage when it is enabled, then passes the partition
    /// stage's gate. The partition stage runs under `constraints`.
    fn start(self, constraints: PartitionConstraints) -> Result<Ctx<'a>, SynthError> {
        let mut ctx = Ctx {
            design: self.design,
            constraints,
            optimize: self.optimize,
            observer: self.observer,
            lint: None,
        };
        if let Some(config) = self.lint {
            ctx.lint_stage(config)?;
        }
        ctx.begin(Stage::Partition)?;
        Ok(ctx)
    }

    /// Runs the lint stage (when enabled) and the partition stage with the
    /// given strategy.
    ///
    /// Realizability: a non-convex partition has a path that leaves it and
    /// re-enters, which becomes a wire cycle between programmable blocks in
    /// the rewritten network — eBlock networks must stay acyclic (§3.3).
    /// The paper's condition 2 ("replaceable by a programmable block that
    /// can provide equivalent functionality") implicitly requires this, so
    /// the pipeline enforces convexity regardless of the caller's setting.
    /// Pure partition *analysis* (Tables 1–2) uses the caller's constraints
    /// as-is through [`partition_only`](Self::partition_only). Contracting
    /// several partitions at once can still close a wire cycle even when
    /// each partition is convex; offending partitions are dissolved (see
    /// [`eblocks_partition::dissolve_cycles`]).
    ///
    /// # Errors
    ///
    /// [`SynthError::LintRejected`] if the (optional) lint stage rejects
    /// the design, [`SynthError::InvalidDesign`] if the design fails
    /// validation, [`SynthError::BadPartitioning`] if the strategy returns
    /// an inconsistent result (a strategy bug), and [`SynthError::Aborted`]
    /// when the attached observer vetoes a stage.
    pub fn partition_with(
        self,
        partitioner: &dyn Partitioner,
    ) -> Result<Partitioned<'a>, SynthError> {
        let constraints = PartitionConstraints {
            require_convex: true,
            ..self.constraints
        };
        let mut ctx = self.start(constraints)?;
        let started = Instant::now();
        ctx.design.validate()?;
        let partitioning = partitioner.partition(ctx.design, &constraints);
        let partitioning = eblocks_partition::dissolve_cycles(ctx.design, partitioning);
        partitioning.verify(ctx.design, &constraints)?;
        // The Partitioning's Display already leads with its algorithm label.
        ctx.report(
            Stage::Partition,
            started.elapsed(),
            partitioning.to_string(),
        );
        Ok(Partitioned { ctx, partitioning })
    }

    /// Partition analysis: runs the lint stage (when enabled) and the
    /// partition stage under the caller's constraints as given — no forced
    /// convexity and no cycle dissolving, so the result is the strategy's
    /// own. The partition stage's time covers the strategy call alone.
    ///
    /// # Errors
    ///
    /// As [`partition_with`](Self::partition_with).
    pub fn partition_only(
        self,
        partitioner: &dyn Partitioner,
    ) -> Result<(Partitioning, Option<LintOutcome>), SynthError> {
        let constraints = self.constraints;
        let mut ctx = self.start(constraints)?;
        ctx.design.validate()?;
        let started = Instant::now();
        let partitioning = partitioner.partition(ctx.design, &constraints);
        let elapsed = started.elapsed();
        partitioning.verify(ctx.design, &constraints)?;
        ctx.report(Stage::Partition, elapsed, partitioning.to_string());
        Ok((partitioning, ctx.lint))
    }

    /// Runs every stage: partition with `partitioner`, merge, rewrite,
    /// verify under [`VerifyOptions::default`] when `verify` is set, and
    /// emit C.
    ///
    /// # Errors
    ///
    /// The first stage's error; notably
    /// [`SynthError::VerificationFailed`] if the synthesized network
    /// diverges behaviorally from the original under the all-sensors
    /// stimulus.
    pub fn run(
        self,
        partitioner: &dyn Partitioner,
        verify: bool,
    ) -> Result<SynthesisResult, SynthError> {
        let rewritten = self.partition_with(partitioner)?.merge()?.rewrite()?;
        let verified = if verify {
            rewritten.verify(VerifyOptions::default())?
        } else {
            rewritten.skip_verify()
        };
        Ok(verified.emit_c())
    }
}

/// Stage 1 output: the design partitioned onto candidate programmable
/// blocks.
pub struct Partitioned<'a> {
    ctx: Ctx<'a>,
    partitioning: Partitioning,
}

impl<'a> Partitioned<'a> {
    /// The partitioning this stage produced.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Consumes the stage, yielding the realizable partitioning alone
    /// ([`Pipeline::partition_only`] gives the strategy's own result).
    pub fn into_partitioning(self) -> Partitioning {
        self.partitioning
    }

    /// Runs the merge stage: one combined behavior program per partition.
    ///
    /// # Errors
    ///
    /// [`SynthError::Codegen`] when a partition's behaviors cannot merge,
    /// and [`SynthError::Aborted`] when the attached observer vetoes the
    /// stage.
    pub fn merge(mut self) -> Result<Merged<'a>, SynthError> {
        self.ctx.begin(Stage::Merge)?;
        let started = Instant::now();
        let merger = Merger::new(self.ctx.design);
        let mut merged: Vec<MergedProgram> = Vec::new();
        for (i, partition) in self.partitioning.partitions().iter().enumerate() {
            let m = merger
                .merge(partition, self.ctx.constraints.spec)
                .map_err(|error| SynthError::Codegen {
                    partition: i,
                    error,
                })?;
            merged.push(m);
        }
        self.ctx.report(
            Stage::Merge,
            started.elapsed(),
            format!("{} merged program(s)", merged.len()),
        );
        Ok(Merged {
            ctx: self.ctx,
            partitioning: self.partitioning,
            merged,
        })
    }
}

/// Stage 2 output: merged behavior programs, one per partition.
pub struct Merged<'a> {
    ctx: Ctx<'a>,
    partitioning: Partitioning,
    merged: Vec<MergedProgram>,
}

impl<'a> Merged<'a> {
    /// The merged programs, in partition order.
    pub fn merged(&self) -> &[MergedProgram] {
        &self.merged
    }

    /// The partitioning being synthesized.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Runs the rewrite stage: partition members disappear, programmable
    /// blocks appear, crossing wires reroute to assigned pins. Programs are
    /// optimized here when the pipeline's optimizer flag is on.
    ///
    /// # Errors
    ///
    /// Propagates network-construction failures as [`SynthError`], and
    /// [`SynthError::Aborted`] when the attached observer vetoes the stage.
    pub fn rewrite(mut self) -> Result<Rewritten<'a>, SynthError> {
        self.ctx.begin(Stage::Rewrite)?;
        let started = Instant::now();
        let (synthesized, prog_ids) = rewrite_network(
            self.ctx.design,
            self.partitioning.partitions(),
            &self.merged,
            self.ctx.constraints.spec,
        )?;

        let mut programs: HashMap<BlockId, Program> = HashMap::new();
        for (i, &pid) in prog_ids.iter().enumerate() {
            let program = if self.ctx.optimize {
                eblocks_behavior::optimize(&self.merged[i].program)
            } else {
                self.merged[i].program.clone()
            };
            programs.insert(pid, program);
        }
        self.ctx.report(
            Stage::Rewrite,
            started.elapsed(),
            format!(
                "{} -> {} block(s), {} programmable",
                self.ctx.design.census().inner_total(),
                synthesized.census().inner_total(),
                prog_ids.len()
            ),
        );
        Ok(Rewritten {
            ctx: self.ctx,
            partitioning: self.partitioning,
            merged: self.merged,
            synthesized,
            prog_ids,
            programs,
        })
    }
}

/// Stage 3 output: the rewritten network and its per-block programs.
pub struct Rewritten<'a> {
    ctx: Ctx<'a>,
    partitioning: Partitioning,
    merged: Vec<MergedProgram>,
    synthesized: Design,
    prog_ids: Vec<BlockId>,
    programs: HashMap<BlockId, Program>,
}

impl<'a> Rewritten<'a> {
    /// The rewritten network.
    pub fn synthesized(&self) -> &Design {
        &self.synthesized
    }

    /// Behavior program per programmable block.
    pub fn programs(&self) -> &HashMap<BlockId, Program> {
        &self.programs
    }

    /// The partitioning being synthesized.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Runs the verification stage: co-simulates the original and
    /// synthesized networks under a stimulus that exercises every sensor.
    ///
    /// # Errors
    ///
    /// [`SynthError::Sim`] when either simulation fails to build or run,
    /// [`SynthError::VerificationFailed`] on behavioral divergence, and
    /// [`SynthError::Aborted`] when the attached observer vetoes the stage.
    pub fn verify(mut self, options: VerifyOptions) -> Result<Verified<'a>, SynthError> {
        self.ctx.begin(Stage::Verify)?;
        let started = Instant::now();
        let original_sim = Simulator::new(self.ctx.design)?;
        let synth_sim = Simulator::with_programs(&self.synthesized, &self.programs)?;
        let stim = exercise_all_sensors(self.ctx.design, options.spacing);
        let report = equivalence(
            &original_sim,
            &synth_sim,
            &stim,
            options.spacing / 2,
            options.tolerance,
        )?;
        if !report.is_equivalent() {
            return Err(SynthError::VerificationFailed { report });
        }
        self.ctx.report(
            Stage::Verify,
            started.elapsed(),
            format!("equivalent at {} sample(s)", report.sample_times.len()),
        );
        Ok(Verified {
            ctx: self.ctx,
            partitioning: self.partitioning,
            merged: self.merged,
            synthesized: self.synthesized,
            prog_ids: self.prog_ids,
            programs: self.programs,
            report: Some(report),
        })
    }

    /// Skips verification, passing straight to the emit stage (the
    /// resulting [`SynthesisResult::report`] is `None`).
    pub fn skip_verify(self) -> Verified<'a> {
        Verified {
            ctx: self.ctx,
            partitioning: self.partitioning,
            merged: self.merged,
            synthesized: self.synthesized,
            prog_ids: self.prog_ids,
            programs: self.programs,
            report: None,
        }
    }
}

/// Stage 4 output: a (possibly) verified synthesized network.
pub struct Verified<'a> {
    ctx: Ctx<'a>,
    partitioning: Partitioning,
    merged: Vec<MergedProgram>,
    synthesized: Design,
    prog_ids: Vec<BlockId>,
    programs: HashMap<BlockId, Program>,
    report: Option<EquivalenceReport>,
}

impl Verified<'_> {
    /// The equivalence report, when the verify stage ran.
    pub fn report(&self) -> Option<&EquivalenceReport> {
        self.report.as_ref()
    }

    /// Runs the final stage: emits one C source and size estimate per
    /// programmable block and assembles the [`SynthesisResult`].
    pub fn emit_c(mut self) -> SynthesisResult {
        let started = Instant::now();
        let mut c_sources = Vec::new();
        let mut size_estimates = Vec::new();
        for &pid in &self.prog_ids {
            let name = self
                .synthesized
                .block(pid)
                .expect("fresh programmable block")
                .name()
                .to_string();
            let program = &self.programs[&pid];
            c_sources.push((
                name.clone(),
                emit_c(
                    &format!("{}/{name}", self.ctx.design.name()),
                    program,
                    self.ctx.constraints.spec.inputs,
                    self.ctx.constraints.spec.outputs,
                ),
            ));
            size_estimates.push((name, estimate_size(program)));
        }
        self.ctx.report(
            Stage::EmitC,
            started.elapsed(),
            format!("{} C source(s)", c_sources.len()),
        );
        SynthesisResult {
            synthesized: self.synthesized,
            partitioning: self.partitioning,
            merged: self.merged,
            programs: self.programs,
            c_sources,
            size_estimates,
            report: self.report,
            lint: self.ctx.lint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::StageAbort;
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};
    use eblocks_partition::{strategy, Registry};

    fn garage() -> Design {
        let mut d = Design::new("garage");
        let door = d.add_block("door", SensorKind::ContactSwitch);
        let light = d.add_block("light", SensorKind::Light);
        let inv = d.add_block("inv", ComputeKind::Not);
        let both = d.add_block("both", ComputeKind::and2());
        let led = d.add_block("led", OutputKind::Led);
        d.connect((door, 0), (both, 0)).unwrap();
        d.connect((light, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (both, 1)).unwrap();
        d.connect((both, 0), (led, 0)).unwrap();
        d
    }

    #[test]
    fn garage_synthesis_verified() {
        let design = garage();
        let result = Pipeline::new(&design)
            .run(&strategy::PareDown, true)
            .unwrap();
        assert_eq!(result.inner_before(), 2);
        assert_eq!(result.inner_after(), 1);
        assert_eq!(result.synthesized.census().programmable, 1);
        assert!(result.report.unwrap().is_equivalent());
        assert_eq!(result.c_sources.len(), 1);
        assert!(result.c_sources[0].1.contains("eblock_on_input"));
        assert!(result.size_estimates[0].1.fits_pic16f628());
    }

    #[test]
    fn all_five_strategies_drive_the_pipeline() {
        let design = garage();
        let registry = Registry::builtin();
        for name in registry.names() {
            let strategy = registry.from_str(name).unwrap();
            let result = Pipeline::new(&design)
                .partition_with(strategy.as_ref())
                .and_then(Partitioned::merge)
                .and_then(Merged::rewrite)
                .and_then(|r| r.verify(VerifyOptions::default()))
                .map(Verified::emit_c)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(result.report.unwrap().is_equivalent(), "{name}");
        }
    }

    #[test]
    fn pipeline_supports_early_stop() {
        let design = garage();
        let partitioned = Pipeline::new(&design)
            .partition_with(&strategy::PareDown)
            .unwrap();
        assert_eq!(partitioned.partitioning().num_partitions(), 1);
        let partitioning = partitioned.into_partitioning();
        assert_eq!(partitioning.inner_total(), 1);
        // No merge/rewrite/verify ever ran.
    }

    #[test]
    fn observer_sees_every_stage_in_order() {
        use crate::observe::StageTimings;
        let design = garage();
        let mut timings = StageTimings::new();
        let result = Pipeline::new(&design)
            .observe(&mut timings)
            .partition_with(&strategy::PareDown)
            .unwrap()
            .merge()
            .unwrap()
            .rewrite()
            .unwrap()
            .verify(VerifyOptions::default())
            .unwrap()
            .emit_c();
        assert!(result.report.is_some());
        let stages: Vec<Stage> = timings.reports.iter().map(|r| r.stage).collect();
        assert_eq!(
            stages,
            [
                Stage::Partition,
                Stage::Merge,
                Stage::Rewrite,
                Stage::Verify,
                Stage::EmitC
            ]
        );
        assert!(timings
            .get(Stage::Partition)
            .unwrap()
            .detail
            .contains("pare-down"));
        assert!(timings
            .get(Stage::Verify)
            .unwrap()
            .detail
            .contains("sample"));
    }

    #[test]
    fn closure_observer_works() {
        let design = garage();
        let mut count = 0usize;
        let mut obs = |_: &StageReport| count += 1;
        Pipeline::new(&design)
            .observe(&mut obs)
            .partition_with(&strategy::PareDown)
            .unwrap()
            .merge()
            .unwrap()
            .rewrite()
            .unwrap()
            .skip_verify()
            .emit_c();
        assert_eq!(count, 4, "partition, merge, rewrite, emit-c");
    }

    #[test]
    fn all_algorithms_produce_verified_networks() {
        // The paper's three algorithms through the one-call `run`.
        let strategies: [&dyn Partitioner; 3] = [
            &strategy::PareDown,
            &strategy::Exhaustive::default(),
            &strategy::Aggregation,
        ];
        for strategy in strategies {
            let result = Pipeline::new(&garage()).run(strategy, true).unwrap();
            assert!(
                result.report.unwrap().is_equivalent(),
                "{}",
                strategy.name()
            );
        }
    }

    /// `run` is the one-call shim over the staged chain.
    #[test]
    fn shim_matches_staged_api() {
        let design = garage();
        let registry = Registry::builtin();
        for name in registry.names() {
            let strategy = registry.from_str(name).unwrap();
            for verify in [false, true] {
                for lint in [None, Some(LintConfig::default())] {
                    let pipeline = || {
                        let pipeline = Pipeline::new(&design);
                        match lint {
                            Some(config) => pipeline.lint(config),
                            None => pipeline,
                        }
                    };
                    let via_run = pipeline().run(strategy.as_ref(), verify).unwrap();
                    let rewritten = pipeline()
                        .partition_with(strategy.as_ref())
                        .and_then(Partitioned::merge)
                        .and_then(Merged::rewrite)
                        .unwrap();
                    let via_stages = if verify {
                        rewritten.verify(VerifyOptions::default()).unwrap()
                    } else {
                        rewritten.skip_verify()
                    }
                    .emit_c();
                    let case = format!("{name}, verify {verify}, lint {}", lint.is_some());
                    assert_eq!(via_run.partitioning, via_stages.partitioning, "{case}");
                    assert_eq!(via_run.c_sources, via_stages.c_sources, "{case}");
                    assert_eq!(via_run.size_estimates, via_stages.size_estimates, "{case}");
                    assert_eq!(via_run.report.is_some(), verify, "{case}");
                    assert_eq!(via_stages.report.is_some(), verify, "{case}");
                    assert_eq!(via_run.lint, via_stages.lint, "{case}");
                    assert_eq!(via_run.lint.is_some(), lint.is_some(), "{case}");
                }
            }
        }
    }

    #[test]
    fn no_verify_skips_report() {
        let design = garage();
        let result = Pipeline::new(&design)
            .run(&strategy::PareDown, false)
            .unwrap();
        assert!(result.report.is_none());
    }

    #[test]
    fn partition_only_returns_the_strategys_own_result() {
        // a feeds c directly and through b1 -> b2, whose side inputs put
        // {a, b1, b2, c} over the pin budget: {a, c} fits but is not
        // convex, so synthesis must not take it.
        let mut d = Design::new("detour");
        let s = d.add_block("s", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Button);
        let s3 = d.add_block("s3", SensorKind::Button);
        let a = d.add_block("a", ComputeKind::Not);
        let b1 = d.add_block("b1", ComputeKind::and2());
        let b2 = d.add_block("b2", ComputeKind::and2());
        let c = d.add_block("c", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (a, 0)).unwrap();
        d.connect((a, 0), (b1, 0)).unwrap();
        d.connect((s2, 0), (b1, 1)).unwrap();
        d.connect((b1, 0), (b2, 0)).unwrap();
        d.connect((s3, 0), (b2, 1)).unwrap();
        d.connect((a, 0), (c, 0)).unwrap();
        d.connect((b2, 0), (c, 1)).unwrap();
        d.connect((c, 0), (o, 0)).unwrap();

        let registry = Registry::builtin();
        let constraints = PartitionConstraints::default();
        for name in registry.names() {
            let strategy = registry.from_str(name).unwrap();
            let mut timings = crate::observe::StageTimings::new();
            let (partitioning, lint) = Pipeline::new(&d)
                .lint(LintConfig::default())
                .observe(&mut timings)
                .partition_only(strategy.as_ref())
                .unwrap();
            assert_eq!(
                partitioning,
                strategy.partition(&d, &constraints),
                "{name}: the caller's constraints, as given"
            );
            assert!(lint.is_some(), "{name}");
            let stages: Vec<Stage> = timings.reports.iter().map(|r| r.stage).collect();
            assert_eq!(stages, [Stage::Lint, Stage::Partition], "{name}");
        }

        // PareDown takes the non-convex {a, c} as given; forced convexity
        // leaves nothing that fits.
        let (analysis, _) = Pipeline::new(&d)
            .partition_only(&strategy::PareDown)
            .unwrap();
        assert_eq!(analysis.covered(), 2);
        let realized = Pipeline::new(&d)
            .partition_with(&strategy::PareDown)
            .unwrap()
            .into_partitioning();
        assert_eq!(realized.covered(), 0);
    }

    #[test]
    fn no_stage_time_includes_its_gate() {
        /// Sleeps in every gate, far longer than any stage of `garage`.
        struct Slow(crate::observe::StageTimings);
        impl Observer for Slow {
            fn on_stage(&mut self, report: &StageReport) {
                self.0.on_stage(report);
            }
            fn before_stage(&mut self, _: Stage) -> Result<(), StageAbort> {
                std::thread::sleep(Duration::from_millis(100));
                Ok(())
            }
        }
        let design = garage();
        let mut slow = Slow(crate::observe::StageTimings::new());
        Pipeline::new(&design)
            .lint(LintConfig::default())
            .observe(&mut slow)
            .run(&strategy::PareDown, true)
            .unwrap();
        Pipeline::new(&design)
            .lint(LintConfig::default())
            .observe(&mut slow)
            .partition_only(&strategy::PareDown)
            .unwrap();
        assert_eq!(
            slow.0.reports.len(),
            8,
            "six stages, then lint and partition"
        );
        for report in &slow.0.reports {
            assert!(
                report.elapsed < Duration::from_millis(100),
                "{}: {:?}",
                report.stage,
                report.elapsed
            );
        }
    }

    #[test]
    fn sequential_chain_verified() {
        // button -> toggle -> pulse -> delay chain exercises on-tick merge.
        let mut d = Design::new("seq");
        let b = d.add_block("btn", SensorKind::Button);
        let t = d.add_block("tog", ComputeKind::Toggle);
        let p = d.add_block("pg", ComputeKind::PulseGen { ticks: 4 });
        let o = d.add_block("buzzer", OutputKind::Buzzer);
        d.connect((b, 0), (t, 0)).unwrap();
        d.connect((t, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        let result = Pipeline::new(&d).run(&strategy::PareDown, true).unwrap();
        assert_eq!(result.inner_after(), 1);
        assert!(result.report.unwrap().is_equivalent());
    }

    #[test]
    fn observer_can_abort_any_fallible_stage() {
        /// Vetoes one chosen stage, allows the rest.
        struct Veto(Stage);
        impl Observer for Veto {
            fn on_stage(&mut self, _: &StageReport) {}
            fn before_stage(&mut self, stage: Stage) -> Result<(), StageAbort> {
                if stage == self.0 {
                    Err(StageAbort::fault(format!("injected at {stage}")))
                } else {
                    Ok(())
                }
            }
        }

        let design = garage();
        for target in [
            Stage::Partition,
            Stage::Merge,
            Stage::Rewrite,
            Stage::Verify,
        ] {
            let mut veto = Veto(target);
            let err = Pipeline::new(&design)
                .observe(&mut veto)
                .partition_with(&strategy::PareDown)
                .and_then(Partitioned::merge)
                .and_then(Merged::rewrite)
                .and_then(|r| r.verify(VerifyOptions::default()))
                .map(Verified::emit_c)
                .expect_err("the vetoed stage must abort");
            match err {
                SynthError::Aborted { stage, abort } => {
                    assert_eq!(stage, target);
                    assert!(!abort.timeout);
                    assert_eq!(abort.message, format!("injected at {target}"));
                    assert_eq!(
                        err_display(target),
                        format!("{}", SynthError::Aborted { stage, abort })
                    );
                }
                other => panic!("expected Aborted, got {other:?}"),
            }
        }

        fn err_display(stage: Stage) -> String {
            format!("stage {stage} aborted: injected at {stage}")
        }
    }

    #[test]
    fn timeout_aborts_are_classified() {
        let abort = StageAbort::timeout("job timed out before merge");
        assert!(abort.timeout);
        assert_eq!(abort.to_string(), "job timed out before merge");
    }

    #[test]
    fn default_before_stage_allows_everything() {
        // A plain closure observer (no explicit before_stage) never aborts.
        let design = garage();
        let mut count = 0usize;
        let mut obs = |_: &StageReport| count += 1;
        let result = Pipeline::new(&design)
            .observe(&mut obs)
            .partition_with(&strategy::PareDown)
            .unwrap()
            .merge()
            .unwrap()
            .rewrite()
            .unwrap()
            .verify(VerifyOptions::default())
            .unwrap()
            .emit_c();
        assert!(result.report.is_some());
        assert_eq!(count, 5);
    }

    #[test]
    fn lint_stage_runs_first_and_records_outcome() {
        use crate::observe::StageTimings;
        let design = garage();
        let mut timings = StageTimings::new();
        let result = Pipeline::new(&design)
            .lint(LintConfig::default())
            .observe(&mut timings)
            .partition_with(&strategy::PareDown)
            .unwrap()
            .merge()
            .unwrap()
            .rewrite()
            .unwrap()
            .skip_verify()
            .emit_c();
        assert_eq!(result.lint, Some(LintOutcome::default()));
        let stages: Vec<Stage> = timings.reports.iter().map(|r| r.stage).collect();
        assert_eq!(
            stages,
            [
                Stage::Lint,
                Stage::Partition,
                Stage::Merge,
                Stage::Rewrite,
                Stage::EmitC
            ]
        );
        assert_eq!(
            timings.get(Stage::Lint).unwrap().detail,
            "0 error(s), 0 warning(s)"
        );
        // Without .lint() the stage never runs and the result records None.
        let result = Pipeline::new(&design)
            .partition_with(&strategy::PareDown)
            .unwrap()
            .merge()
            .unwrap()
            .rewrite()
            .unwrap()
            .skip_verify()
            .emit_c();
        assert_eq!(result.lint, None);
    }

    #[test]
    fn lint_stage_rejects_under_deny_level() {
        use eblocks_lint::DenyLevel;
        // One sensor fanning out to 9 gates trips W008 (budget 8 sinks);
        // only deny=warnings turns that warning into a rejection.
        let mut design = Design::new("fan");
        let s = design.add_block("s", SensorKind::Button);
        for i in 0..9 {
            let g = design.add_block(format!("n{i}"), ComputeKind::Not);
            let o = design.add_block(format!("o{i}"), OutputKind::Led);
            design.connect((s, 0), (g, 0)).unwrap();
            design.connect((g, 0), (o, 0)).unwrap();
        }
        let ok = Pipeline::new(&design)
            .lint(LintConfig::default())
            .partition_with(&strategy::PareDown)
            .unwrap();
        assert!(ok.partitioning().num_partitions() > 0);

        let strict = LintConfig {
            deny: DenyLevel::Warnings,
        };
        let err = match Pipeline::new(&design)
            .lint(strict)
            .partition_with(&strategy::PareDown)
        {
            Err(e) => e,
            Ok(_) => panic!("warnings denied"),
        };
        match err {
            SynthError::LintRejected { report } => {
                assert!(report.errors() == 0 && report.warnings() > 0);
                let display = SynthError::LintRejected { report }.to_string();
                assert!(
                    display.starts_with("lint rejected the design:"),
                    "{display}"
                );
                assert!(display.contains("W008"), "{display}");
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
    }

    #[test]
    fn lint_stage_can_be_vetoed() {
        struct VetoLint;
        impl Observer for VetoLint {
            fn on_stage(&mut self, _: &StageReport) {}
            fn before_stage(&mut self, stage: Stage) -> Result<(), StageAbort> {
                if stage == Stage::Lint {
                    Err(StageAbort::fault("injected at lint"))
                } else {
                    Ok(())
                }
            }
        }
        let design = garage();
        let mut veto = VetoLint;
        let err = match Pipeline::new(&design)
            .lint(LintConfig::default())
            .observe(&mut veto)
            .partition_with(&strategy::PareDown)
        {
            Err(e) => e,
            Ok(_) => panic!("lint stage vetoed"),
        };
        assert!(matches!(
            err,
            SynthError::Aborted {
                stage: Stage::Lint,
                ..
            }
        ));
    }

    #[test]
    fn shim_applies_lint_option() {
        let result = Pipeline::new(&garage())
            .lint(LintConfig::default())
            .run(&strategy::PareDown, false)
            .unwrap();
        assert_eq!(result.lint, Some(LintOutcome::default()));
    }

    #[test]
    fn invalid_design_rejected() {
        let mut d = Design::new("bad");
        d.add_block("g", ComputeKind::and2());
        assert!(matches!(
            Pipeline::new(&d).run(&strategy::PareDown, true),
            Err(SynthError::InvalidDesign(_))
        ));
        // It is rejected at the partition stage, with or without the
        // stages after it.
        assert!(matches!(
            Pipeline::new(&d).partition_with(&strategy::PareDown),
            Err(SynthError::InvalidDesign(_))
        ));
        assert!(matches!(
            Pipeline::new(&d).partition_only(&strategy::PareDown),
            Err(SynthError::InvalidDesign(_))
        ));
    }
}

#[cfg(test)]
mod optimizer_tests {
    use super::*;
    use eblocks_codegen::estimate_size;
    use eblocks_partition::strategy::PareDown;

    #[test]
    fn optimizer_never_grows_programs_and_preserves_equivalence() {
        // Verification runs against the optimized programs, so a successful
        // default synthesis already proves behavior; compare sizes too.
        for entry in eblocks_designs::all() {
            let optimized = Pipeline::new(&entry.design)
                .run(&PareDown, true)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let raw = Pipeline::new(&entry.design)
                .optimize(false)
                .run(&PareDown, false)
                .unwrap();
            for ((name_a, a), (name_b, b)) in
                optimized.size_estimates.iter().zip(&raw.size_estimates)
            {
                assert_eq!(name_a, name_b);
                assert!(
                    a.words <= b.words,
                    "{}/{name_a}: optimized {} > raw {}",
                    entry.name,
                    a.words,
                    b.words
                );
            }
            // Spot check: the merged AND/NOT tables actually shrink
            // somewhere in the library.
            let _ = estimate_size;
        }
    }
}
