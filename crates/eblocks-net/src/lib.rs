//! Fleet-scale co-simulation: many designs over a modeled network
//! (extension).
//!
//! The paper synthesizes one network of blocks at a time; the deployments
//! it motivates — smart homes, sensor meshes — are *fleets* of such
//! networks exchanging packets over real links. This crate simulates N
//! node instances, each an [`eblocks_sim`] runner over a (possibly
//! shared) design, with chosen block ports bridged to network endpoints:
//!
//! * an **egress** taps a block's output port ([`PortRef`], e.g.
//!   `both.0`) — every packet it transmits enters the network,
//! * an **ingress** drives a sensor of the destination node, exactly as
//!   if the physical environment changed it.
//!
//! Packets are routed along shortest paths over a physical substrate (an
//! [`eblocks_place::Topology`] — star, chain, grid, switch fabric, or any
//! custom site graph, so placement results map onto physical nodes) and
//! every hop models latency, serialization delay, FIFO queueing, and
//! seeded loss ([`LinkSpec`]).
//!
//! # Deterministic ordering contract
//!
//! One global virtual clock drives all node runners and the network. At
//! every instant the engine processes three phases, totally ordering all
//! work by **(phase, node rank, endpoint, seq)**:
//!
//! 1. **network** — hop and delivery events in global packet-`seq` order;
//!    deliveries inject into their destination node *before* it steps,
//! 2. **nodes** — every node with work at the instant steps, in node-rank
//!    (index) order; inside a node, injected packets apply after its own
//!    scripted stimulus, in phase-1 delivery order,
//! 3. **egress** — captured transmissions are collected in (node rank,
//!    capture order, channel order) and each gets the next global `seq`;
//!    its first hop is processed immediately.
//!
//! Every hop advances time by at least one tick, so no packet re-enters
//! the instant that produced it, and `seq` assignment — hence the whole
//! run — is a pure function of the fleet spec and seeds. Fleet traces and
//! reports are byte-identical across runs regardless of fleet size.
//!
//! # Example
//!
//! ```
//! use eblocks_core::PortRef;
//! use eblocks_net::{Fleet, FleetTopology};
//! use eblocks_sim::Stimulus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two garage monitors on a two-port switch: node 0's alarm output
//! // drives node 1's door sensor.
//! let mut fleet = Fleet::new("demo", FleetTopology::switch(2));
//! let d = fleet.add_design(eblocks_designs::garage_open_at_night());
//! let a = fleet.add_node("n0", d);
//! let b = fleet.add_node("n1", d);
//! fleet.set_stimulus(a, Stimulus::new().set(10, "door", true));
//! fleet.connect(a, PortRef::new("both", 0), b, "door")?;
//! let outcome = fleet.run(100)?;
//! assert_eq!(outcome.report.packets_delivered, 2); // power-on + the press
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod fleet;
pub mod link;
pub mod spec;
pub mod stats;
pub mod topo;
pub mod trace;

pub use error::NetError;
pub use fault::{NetFaultInjector, NoFaults, PacketFate};
pub use fleet::{DesignId, Fleet, FleetOutcome, NodeId};
pub use link::LinkSpec;
pub use spec::{FleetRequest, FleetSource};
pub use stats::{FleetReport, LinkStats, NodeStats};
pub use topo::FleetTopology;

// Re-exported so bridging code can name endpoints without a direct
// eblocks-core dependency.
pub use eblocks_core::PortRef;

/// SplitMix64-based seed mixing, so every seeded decision in the fleet is a
/// pure function of `(seed, salt, coordinates)` and never of wall-clock time
/// or iteration order.
///
/// This is not the chaos harness's fold: that one adds the golden-ratio
/// increment to each part where this one multiplies it in. Both are pinned
/// by committed goldens (fleet report and trace, chaos trace), so neither
/// can change to match the other without moving them.
pub(crate) fn mix(parts: &[u64]) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for &part in parts {
        let mut z = acc ^ part.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = z ^ (z >> 31);
    }
    acc
}

/// Domain salt: per-hop baseline packet loss.
pub(crate) const SALT_LOSS: u64 = 0xeb0c_1001;
/// Domain salt: relay-fleet local stimulus phases (see [`spec`]).
pub(crate) const SALT_STIM: u64 = 0xeb0c_1002;

#[cfg(test)]
mod tests {
    use super::mix;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 3, 2]));
        assert_ne!(mix(&[0]), mix(&[1]));
    }
}
