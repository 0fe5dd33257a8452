//! Event-driven, packet-level simulator for eBlock networks.
//!
//! §3.1 of the paper describes a behavioral simulator: blocks exchange
//! boolean packets serially, communication is globally asynchronous, and the
//! simulation "is behaviorally correct and obeys general high-level timing,
//! but no detailed timing characteristics can be inferred" — eBlocks deal
//! with human-scale events, so that is sufficient. This crate is the
//! headless equivalent of the paper's Java GUI simulator:
//!
//! * every wire carries boolean packets with a small hop latency,
//! * a block re-evaluates its behavior program (see [`eblocks_behavior`])
//!   when a packet arrives, and transmits on an output port only when the
//!   driven value *changes* (the eBlocks protocol),
//! * sequential blocks with `on tick` handlers (pulse generator, delay)
//!   receive periodic tick events,
//! * sensors are driven by a [`Stimulus`] script, and every output block
//!   records its packet history into the returned [`Trace`].
//!
//! [`equivalence`] runs two designs under the same stimulus and compares
//! the stable values at their (shared) output blocks — the harness the
//! synthesis pipeline uses to verify that partitioning plus code generation
//! preserved behavior.
//!
//! # Example
//!
//! ```
//! use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
//! use eblocks_sim::{Simulator, Stimulus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut d = Design::new("press-to-light");
//! let b = d.add_block("button", SensorKind::Button);
//! let n = d.add_block("inv", ComputeKind::Not);
//! let o = d.add_block("led", OutputKind::Led);
//! d.connect((b, 0), (n, 0))?;
//! d.connect((n, 0), (o, 0))?;
//!
//! let stim = Stimulus::new().set(10, "button", true);
//! let trace = Simulator::new(&d)?.run(&stim, 100)?;
//! assert_eq!(trace.final_value("led"), Some(false)); // inverted press
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod energy;
pub mod equiv;
pub mod error;
pub mod fault;
pub mod reliability;
pub mod sim;
pub mod stimulus;
pub mod time;
pub mod trace;
pub mod vcd;
pub mod waveform;

pub use cosim::{CapturedPacket, NodeRunner, SensorRef, TapId};
pub use energy::{estimate_energy, EnergyReport};
pub use equiv::{equivalence, EquivalenceReport};
pub use error::SimError;
pub use fault::{Fault, FaultPlan};
pub use reliability::{reliability, ReliabilityConfig, ReliabilityReport};
pub use sim::{Simulator, Time};
pub use stimulus::Stimulus;
pub use trace::Trace;
pub use vcd::to_vcd;
pub use waveform::{render, render_all};
