//! Core model for eBlock networks.
//!
//! This crate provides the data model underlying the eBlocks synthesis tool
//! chain from *System Synthesis for Networks of Programmable Blocks*
//! (Mannion, Hsieh, Cotterell, Vahid — DATE 2005):
//!
//! * [`Block`] and [`BlockKind`] — the four classes of eBlocks (sensor,
//!   output, compute, communication) plus the *programmable* compute block,
//! * [`Design`] — a directed acyclic network of blocks wired port-to-port,
//! * [`levels`] — the primary-input–based level
//!   assignment used by code generation (§3.3 of the paper),
//! * [`cut_cost`] / [`CutState`] — the input/output cost of a candidate
//!   partition, the quantity bounded by a programmable block's pin budget,
//!   and the incremental form PareDown pares with,
//! * [`BitSet`] / [`InnerIndex`] — compact node-set machinery and the dense
//!   wiring tables shared by the partitioning algorithms,
//! * a plain-text [`netlist`] format for serializing designs,
//! * [`input`], the bounded file read, and [`pool`], the one worker pool.
//!
//! # Example
//!
//! Build the paper's motivating "garage open at night" system:
//!
//! ```
//! use eblocks_core::{Design, SensorKind, OutputKind, ComputeKind};
//!
//! # fn main() -> Result<(), eblocks_core::DesignError> {
//! let mut d = Design::new("garage-open-at-night");
//! let door  = d.add_block("door",  SensorKind::ContactSwitch);
//! let light = d.add_block("light", SensorKind::Light);
//! let inv   = d.add_block("inv",   ComputeKind::Not);
//! let both  = d.add_block("both",  ComputeKind::and2());
//! let led   = d.add_block("led",   OutputKind::Led);
//!
//! d.connect((door, 0), (both, 0))?;
//! d.connect((light, 0), (inv, 0))?;
//! d.connect((inv, 0), (both, 1))?;
//! d.connect((both, 0), (led, 0))?;
//! d.validate()?;
//!
//! assert_eq!(d.inner_blocks().count(), 2); // `inv` and `both`
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod block;
pub mod cut;
pub mod design;
pub mod endpoint;
pub mod error;
pub mod input;
pub mod kind;
pub mod level;
pub mod netlist;
pub mod pool;
pub mod truth_table;

pub use bitset::{BitSet, InnerIndex};
pub use block::Block;
pub use cut::{cut_cost, CutCost, CutState};
pub use design::{BlockId, Design};
pub use endpoint::PortRef;
pub use error::DesignError;
pub use kind::{BlockKind, CommKind, ComputeKind, OutputKind, ProgrammableSpec, SensorKind};
pub use level::levels;
pub use truth_table::{TruthTable2, TruthTable3};
