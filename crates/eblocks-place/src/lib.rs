//! Mapping eBlock networks onto an existing physical network of nodes.
//!
//! *System Synthesis for Networks of Programmable Blocks* (DATE 2005) ends
//! with two directions for future work (§6); this crate implements the
//! second: "extend our methods to map to an existing underlying network of
//! sensor nodes". After synthesis decides *what* each programmable block
//! computes, a deployment still has to decide *where* each block goes —
//! which wall box gets the logic block, which wiring hub hosts the merged
//! programmable block — and wire length (hence cost and, for powered runs,
//! energy) depends on that choice.
//!
//! The model:
//!
//! * [`Topology`] — the existing substrate: *sites* with hosting capacity,
//!   joined by *links*; pre-built [`grid`](Topology::grid),
//!   [`line`](Topology::line), and [`star`](Topology::star) shapes cover
//!   common deployments.
//! * [`PlacementProblem`] — a design (typically the synthesized network
//!   that `eblocks_synth::Pipeline::run` returns) plus a topology, with
//!   sensors/outputs optionally *pinned* to the sites where the physical
//!   stimulus lives.
//! * [`Placement`] — a block→site assignment whose
//!   [`cost`](Placement::cost) is the total routed hop count over all
//!   design wires.
//! * [`greedy_place`] — constructive placement in topological order.
//! * [`anneal_place`] — simulated-annealing improvement over the greedy
//!   seed (never worse, often substantially better on loose topologies).
//!
//! # Example
//!
//! Deploy a motion-alarm across a corridor of five mounting points, with
//! the sensor pinned at one end and the buzzer at the other:
//!
//! ```
//! use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
//! use eblocks_place::{greedy_place, PlacementProblem, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut d = Design::new("corridor-alarm");
//! let pir = d.add_block("pir", SensorKind::Motion);
//! let trip = d.add_block("trip", ComputeKind::Trip);
//! let bell = d.add_block("bell", OutputKind::Buzzer);
//! d.connect((pir, 0), (trip, 0))?;
//! d.connect((trip, 0), (bell, 0))?;
//!
//! let corridor = Topology::line(5);
//! let mut problem = PlacementProblem::new(&d, &corridor)?;
//! problem.pin(pir, corridor.site_by_name("p0").unwrap())?;
//! problem.pin(bell, corridor.site_by_name("p4").unwrap())?;
//!
//! let placement = greedy_place(&problem)?;
//! placement.verify(&problem)?;
//! assert_eq!(placement.cost(&problem)?, 4); // spans the corridor once
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod greedy;
pub mod placement;
pub mod route;
pub mod textfmt;
pub mod topology;

pub use anneal::{anneal_place, PlaceAnnealConfig};
pub use greedy::greedy_place;
pub use placement::{PlaceError, Placement, PlacementProblem};
pub use route::{route, route_with, Route, RoutingReport};
pub use textfmt::{from_text, to_text, ParseTopologyError};
pub use topology::{DistanceMatrix, PathMatrix, Site, SiteId, Topology};
