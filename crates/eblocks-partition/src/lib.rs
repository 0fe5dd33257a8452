//! Partitioning of eBlock networks onto programmable blocks.
//!
//! This crate implements §4 of *System Synthesis for Networks of Programmable
//! Blocks* (DATE 2005): replacing clusters of pre-defined compute blocks with
//! a minimum number of programmable blocks under input/output pin
//! constraints.
//!
//! Five algorithms are provided, each as a plain function and as an
//! object-safe [`Partitioner`] strategy (see [`strategy`] and [`Registry`]
//! for runtime selection):
//!
//! * [`pare_down`](fn@pare_down) — the paper's contribution: a *decomposition*
//!   heuristic that starts from all inner blocks as one candidate partition
//!   and pares border blocks away by rank until the candidate fits (§4.2).
//!   A removal step costs one scan of `n` cached integer removal keys
//!   plus re-ranking the removed block's neighbours; a run takes up to
//!   `O(n²)` steps, about `n²/5` on generated designs, so `O(n³)` at worst,
//! * [`exhaustive`](fn@exhaustive) — the optimum (§4.1), found as a min-cost
//!   cover over the [`candidate_sets`] (sets of two or more blocks that fit
//!   one programmable block), which a small pin budget keeps to dozens or
//!   hundreds; the paper's own enumeration of assignments remains as
//!   [`ExhaustiveOptions::paper_pruning_only`],
//! * [`aggregation`](fn@aggregation) — the greedy clustering strawman the paper describes and
//!   discards for its lack of look-ahead (§4.2 ¶1),
//! * [`refine`](fn@refine) — deterministic local-search repair on top of any result
//!   (the `refine` strategy runs it over PareDown),
//! * [`anneal`](fn@anneal) — Metropolis annealing with parallel multi-restart
//!   support ([`AnnealConfig::restarts`]).
//!
//! # Example
//!
//! ```
//! use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
//! use eblocks_partition::{pare_down, PartitionConstraints};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut d = Design::new("two-gate");
//! let s1 = d.add_block("s1", SensorKind::Button);
//! let s2 = d.add_block("s2", SensorKind::Motion);
//! let g1 = d.add_block("g1", ComputeKind::and2());
//! let g2 = d.add_block("g2", ComputeKind::Not);
//! let o = d.add_block("o", OutputKind::Led);
//! d.connect((s1, 0), (g1, 0))?;
//! d.connect((s2, 0), (g1, 1))?;
//! d.connect((g1, 0), (g2, 0))?;
//! d.connect((g2, 0), (o, 0))?;
//!
//! let result = pare_down(&d, &PartitionConstraints::default());
//! assert_eq!(result.num_partitions(), 1); // both gates merge into one block
//! assert_eq!(result.inner_total(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod anneal;
pub mod border;
pub mod constraints;
pub mod exhaustive;
pub mod multi;
pub mod pare_down;
pub mod quotient;
pub mod refine;
pub mod result;
pub mod strategy;

pub use aggregation::aggregation;
pub use anneal::{anneal, AnnealConfig};
pub use border::{border_blocks, rank_of, RankKey};
pub use constraints::PartitionConstraints;
pub use exhaustive::{candidate_sets, exhaustive, ExhaustiveOptions};
pub use multi::{pare_down_multi, BlockCatalog, MultiPartitioning};
pub use pare_down::{pare_down, pare_down_no_tie_breaks, pare_down_traced, TraceEvent};
pub use quotient::{dissolve_cycles, quotient_is_acyclic};
pub use refine::{pare_down_refined, refine, RefineReport};
pub use result::{Partitioning, VerifyError};
pub use strategy::{Partitioner, Registry, DEFAULT_PARTITIONER};
