//! Code generation for programmable eBlocks (§3.3 of the paper).
//!
//! Each partition produced by `eblocks-partition` is turned into a single
//! behavior program for the programmable block that replaces it:
//!
//! 1. every member block is assigned a *level* (maximum distance from a
//!    sensor) and the member syntax trees are merged in non-decreasing level
//!    order, so no tree is evaluated before its producers;
//! 2. tree nodes that access a block's port become variable accesses —
//!    internal wires turn into `net_*` variables, partition inputs are
//!    latched into `latch_in*` variables, and exposed member outputs are
//!    copied to the block's physical `out*` pins;
//! 3. name collisions between member programs are resolved by systematic
//!    renaming (each member gets a unique prefix).
//!
//! The merged [`Program`](eblocks_behavior::Program) runs on the simulator's
//! interpreter exactly like a pre-defined block, and [`emit_c`] translates
//! it to C "for downloading and use in a physical block" (the paper targets
//! a Microchip PIC16F628 with 2 KB of program memory —
//! [`estimate_size`] checks the paper's assumption that the memory
//! constraint never binds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c_emit;
pub mod error;
pub mod merge;
pub mod size;

pub use c_emit::emit_c;
pub use error::CodegenError;
pub use merge::{merge_partition, MergedProgram, Merger};
pub use size::{estimate_size, SizeEstimate, PIC16F628_PROGRAM_WORDS};
