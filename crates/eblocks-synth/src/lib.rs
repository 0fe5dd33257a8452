//! End-to-end eBlock system synthesis (Fig. 2 of the paper).
//!
//! The pipeline takes a user design of pre-defined blocks and produces an
//! optimized network in which clusters of compute blocks are replaced by
//! programmable blocks with automatically generated software:
//!
//! 1. **partition** the inner blocks ([`eblocks_partition`]) — any
//!    [`Partitioner`](eblocks_partition::Partitioner) strategy: PareDown by
//!    default, or exhaustive / aggregation / refine / anneal by name via
//!    [`eblocks_partition::Registry`];
//! 2. **generate code** for each partition ([`eblocks_codegen`]): a merged
//!    behavior program, its C translation, and a PIC16F628 size estimate;
//! 3. **rewrite the network**: partition members disappear, programmable
//!    blocks appear, and every crossing wire is rerouted to the assigned
//!    physical pin;
//! 4. optionally **verify** by co-simulating the original and synthesized
//!    networks under a stimulus that exercises every sensor
//!    ([`eblocks_sim::equivalence`]).
//!
//! # Example
//!
//! The staged [`Pipeline`] lets callers pick a strategy at runtime, stop at
//! any stage, and observe per-stage timing. [`Pipeline::run`] runs every
//! stage in one call, and [`Pipeline::partition_only`] stops after
//! partitioning:
//!
//! ```
//! use eblocks_designs::podium_timer_3;
//! use eblocks_partition::strategy::PareDown;
//! use eblocks_synth::{Pipeline, VerifyOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = podium_timer_3();
//! let result = Pipeline::new(&design)
//!     .partition_with(&PareDown)?
//!     .merge()?
//!     .rewrite()?
//!     .verify(VerifyOptions::default())?
//!     .emit_c();
//! // 8 pre-defined compute blocks become 2 programmable + 1 pre-defined.
//! assert_eq!(result.synthesized.census().inner_total(), 3);
//! assert!(result.report.as_ref().is_some_and(|r| r.is_equivalent()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod observe;
pub mod pipeline;
pub mod rewrite;
pub mod stimulus;

pub use eblocks_lint::{DenyLevel, LintConfig, LintOutcome, LintReport};
pub use error::SynthError;
pub use observe::{Observer, Stage, StageAbort, StageReport, StageTimings};
pub use pipeline::{
    Merged, Partitioned, Pipeline, Rewritten, SynthesisResult, Verified, VerifyOptions,
};
pub use rewrite::rewrite_network;
pub use stimulus::exercise_all_sensors;
