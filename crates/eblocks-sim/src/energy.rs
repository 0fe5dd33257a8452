//! Network energy estimation (extension).
//!
//! The paper's abstract motivates synthesis with "reducing network size and
//! hence network cost **and power**", but never quantifies the power half.
//! This module does: a simulation run counts every physical packet
//! transmission ([`Trace::transmissions`]), and [`estimate_energy`] converts
//! the activity plus each block's idle draw into an energy figure, so the
//! before/after-synthesis comparison the paper argues for can be measured
//! (see the `energy` bench binary).
//!
//! Two effects make the synthesized network cheaper:
//!
//! * **fewer transmissions** — wires internal to a partition become
//!   variable accesses inside the programmable block's program, so the
//!   packets that used to cross them disappear entirely;
//! * **fewer blocks** — each block removed stops drawing idle current.
//!
//! The constants are order-of-magnitude figures for a
//! PIC16F628-class node (§3.3): tens of nanojoules to clock a packet out
//! over a short wire, microjoules for a radio packet, and a sleepy idle
//! draw between events. Absolute numbers are not the point — the *ratio*
//! between the original and synthesized network is, and it is dominated by
//! packet and block counts, which the simulator measures exactly.

use crate::sim::Time;
use crate::trace::Trace;
use eblocks_core::{BlockKind, Design};

/// Energy per packet transmitted over a wire, in nanojoules.
const WIRE_PACKET_NJ: f64 = 50.0;
/// Energy per packet transmitted by a communication block (radio/X10), in
/// nanojoules.
const RADIO_PACKET_NJ: f64 = 2_000.0;
/// Idle draw of one block per simulator tick, in nanojoules.
const IDLE_NJ_PER_TICK: f64 = 10.0;
/// Idle multiplier for programmable blocks (a clocked microcontroller
/// sleeps slightly hungrier than a fixed-function board).
const PROGRAMMABLE_IDLE_FACTOR: f64 = 1.2;

/// The energy breakdown of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Energy spent transmitting packets, in nanojoules.
    pub transmission_nj: f64,
    /// Energy spent idling (all blocks, whole run), in nanojoules.
    pub idle_nj: f64,
    /// Per-block transmission energy, sorted descending — the hot spots.
    pub by_block: Vec<(String, f64)>,
}

impl EnergyReport {
    /// Total energy of the run, in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.transmission_nj + self.idle_nj
    }

    /// The block spending the most transmission energy, if any packet flew.
    pub fn hottest(&self) -> Option<(&str, f64)> {
        self.by_block.first().map(|(n, e)| (n.as_str(), *e))
    }
}

/// Estimates the energy of a run of `duration` ticks whose activity was
/// recorded in `trace`.
///
/// # Examples
///
/// ```
/// use eblocks_core::{Design, OutputKind, SensorKind};
/// use eblocks_sim::{estimate_energy, Simulator, Stimulus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("bell");
/// let b = d.add_block("btn", SensorKind::Button);
/// let o = d.add_block("bell", OutputKind::Buzzer);
/// d.connect((b, 0), (o, 0))?;
///
/// let sim = Simulator::new(&d)?;
/// let trace = sim.run(&Stimulus::new().set(20, "btn", true), 100)?;
/// let report = estimate_energy(&d, &trace, 100);
/// assert!(report.total_nj() > 0.0);
/// assert_eq!(report.hottest().map(|(n, _)| n), Some("btn"));
/// # Ok(())
/// # }
/// ```
pub fn estimate_energy(design: &Design, trace: &Trace, duration: Time) -> EnergyReport {
    let mut transmission_nj = 0.0;
    let mut by_block: Vec<(String, f64)> = Vec::new();
    for (name, packets) in trace.transmissions_by_block() {
        let per_packet = match design.block_by_name(name).and_then(|b| design.block(b)) {
            Some(block) if matches!(block.kind(), BlockKind::Comm(_)) => RADIO_PACKET_NJ,
            _ => WIRE_PACKET_NJ,
        };
        let energy = packets as f64 * per_packet;
        transmission_nj += energy;
        by_block.push((name.to_string(), energy));
    }
    by_block.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut idle_nj = 0.0;
    for id in design.blocks() {
        let factor = match design.block(id).expect("iterating blocks").kind() {
            BlockKind::Programmable(_) => PROGRAMMABLE_IDLE_FACTOR,
            _ => 1.0,
        };
        idle_nj += IDLE_NJ_PER_TICK * factor * duration as f64;
    }

    EnergyReport {
        transmission_nj,
        idle_nj,
        by_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, Stimulus};
    use eblocks_core::{CommKind, ComputeKind, OutputKind, SensorKind};

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
    fn transmissions_counted_per_wire() {
        let d = garage();
        let sim = Simulator::new(&d).unwrap();
        // Power-on: each sensor announces once (1 wire each), inv announces
        // its initial true, both announces false.
        let trace = sim.run(&Stimulus::new(), 50).unwrap();
        assert_eq!(trace.transmissions("door"), 1);
        assert_eq!(trace.transmissions("light"), 1);
        assert_eq!(trace.transmissions("inv"), 1);
        assert_eq!(trace.transmissions("both"), 1);
        assert_eq!(trace.total_transmissions(), 4);
    }

    #[test]
    fn more_activity_costs_more() {
        let d = garage();
        let sim = Simulator::new(&d).unwrap();
        let quiet = sim.run(&Stimulus::new(), 100).unwrap();
        let busy = sim
            .run(
                &Stimulus::new()
                    .pulse(10, 5, "door")
                    .pulse(30, 5, "door")
                    .pulse(50, 5, "light"),
                100,
            )
            .unwrap();
        let eq = estimate_energy(&d, &quiet, 100);
        let eb = estimate_energy(&d, &busy, 100);
        assert!(eb.transmission_nj > eq.transmission_nj);
        assert_eq!(eb.idle_nj, eq.idle_nj, "same network, same idle");
    }

    #[test]
    fn radio_packets_dominate() {
        let mut d = Design::new("radio");
        let b = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("radio", CommKind::WirelessTx);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (o, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let trace = sim.run(&Stimulus::new().set(10, "btn", true), 50).unwrap();
        let report = estimate_energy(&d, &trace, 50);
        assert_eq!(report.hottest().map(|(n, _)| n), Some("radio"));
    }

    #[test]
    fn splitter_fanout_costs_two_packets_per_change() {
        let mut d = Design::new("fan");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (o1, 0)).unwrap();
        d.connect((sp, 1), (o2, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let trace = sim.run(&Stimulus::new().set(10, "s", true), 50).unwrap();
        // Power-on false + the rise: two changes on each of two ports.
        assert_eq!(trace.transmissions("sp"), 4);
    }

    #[test]
    fn duration_scales_idle_energy() {
        let d = garage();
        let sim = Simulator::new(&d).unwrap();
        let trace = sim.run(&Stimulus::new(), 100).unwrap();
        let short = estimate_energy(&d, &trace, 100);
        let long = estimate_energy(&d, &trace, 1000);
        assert!((long.idle_nj - 10.0 * short.idle_nj).abs() < 1e-6);
    }
}
