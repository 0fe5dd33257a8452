//! Step-able runner handles for co-simulation (extension).
//!
//! [`Simulator::run`] owns its whole event loop; a fleet simulation (the
//! `eblocks-net` crate) instead interleaves many nodes on one global
//! virtual clock. [`NodeRunner`] exposes the same engine one instant at a
//! time and bridges chosen block ports to a network:
//!
//! * [`tap_output`](NodeRunner::tap_output) is the node's egress: every
//!   packet the tapped port transmits is captured — after change detection
//!   (the eBlocks protocol) but before any injected *local* fault decides
//!   its fate, since link-level loss belongs to the network layer,
//! * [`sensor_ref`](NodeRunner::sensor_ref) + [`inject`](NodeRunner::inject)
//!   are the ingress: a delivered packet drives a sensor exactly as if the
//!   physical environment changed it,
//! * a driver loop asks [`next_event_time`](NodeRunner::next_event_time),
//!   advances its global clock to the minimum across nodes and network,
//!   and [`step_at`](NodeRunner::step_at)s every node with work there.
//!
//! Injected events at an instant apply *after* that instant's scripted
//! stimulus, in injection order. The fleet engine injects in its own
//! documented delivery order, so this rule makes whole-fleet traces a pure
//! function of specs and seeds.
//!
//! # One layout, many nodes
//!
//! Every runner over a [`Simulator`] borrows the static tables the
//! simulator built once (block index, port offsets, sink lists, tick
//! blocks, sensors, output blocks, compiled programs; see the simulator's
//! module docs on tables). A `NodeRunner` owns only its node's dynamic
//! state: a few flat per-block and per-port tables, its machines, its
//! sense schedule, its calendar (one heap buffer), its captures and
//! pending injections, and its trace. A fleet of a thousand nodes running
//! one design therefore keeps one copy of the design's tables, and runners
//! sharing a simulator never see each other's state.
//!
//! # Parked ticks
//!
//! A stepped runner parks a settled tick exactly as a whole
//! [`Simulator::run`] does (see the simulator's module docs on parked
//! ticks): [`step_at`](NodeRunner::step_at) and `run` settle an instant
//! through the same code, so the traces agree. A parked block's grid
//! instants are not pending work: [`next_event_time`](NodeRunner::next_event_time)
//! reports the earliest scripted or injected sensor change, packet in
//! flight, or unparked tick, and a node whose ticks are all parked reports
//! only its next input. A caller that counts grid instants (the fleet
//! engine counts one event per node per grid instant, a figure its golden
//! reports and the benchmark's fleet reference pin) reads the grid from
//! [`tick_period`](NodeRunner::tick_period) instead.
//!
//! # Example: two nodes bridged by hand
//!
//! ```
//! use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
//! use eblocks_sim::{NodeRunner, Simulator, Stimulus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Node A inverts a button; node B lights a lamp from a bridged sensor.
//! let mut a = Design::new("a");
//! let btn = a.add_block("btn", SensorKind::Button);
//! let inv = a.add_block("inv", ComputeKind::Not);
//! let led = a.add_block("led", OutputKind::Led);
//! a.connect((btn, 0), (inv, 0))?;
//! a.connect((inv, 0), (led, 0))?;
//! let mut b = Design::new("b");
//! let rx = b.add_block("rx", SensorKind::Button);
//! let lamp = b.add_block("lamp", OutputKind::Led);
//! b.connect((rx, 0), (lamp, 0))?;
//!
//! let sim_a = Simulator::new(&a)?;
//! let sim_b = Simulator::new(&b)?;
//! let mut node_a = NodeRunner::new(&sim_a)?;
//! let mut node_b = NodeRunner::new(&sim_b)?;
//! node_a.load_stimulus(&Stimulus::new().set(10, "btn", true))?;
//! let tap = node_a.tap_output("inv", 0)?;
//! let rx_ref = node_b.sensor_ref("rx")?;
//!
//! // A two-node "network": every captured packet arrives 2 ticks later.
//! let mut captured = Vec::new();
//! while let Some(t) = [node_a.next_event_time(), node_b.next_event_time()]
//!     .into_iter()
//!     .flatten()
//!     .min()
//! {
//!     if t > 100 {
//!         break;
//!     }
//!     if node_a.next_event_time() == Some(t) {
//!         node_a.step_at(t, 100)?;
//!     }
//!     if node_b.next_event_time() == Some(t) {
//!         node_b.step_at(t, 100)?;
//!     }
//!     node_a.drain_captured(&mut captured);
//!     for p in captured.drain(..) {
//!         assert_eq!(p.tap, tap);
//!         node_b.inject(p.time + 2, rx_ref, p.value);
//!     }
//! }
//! let trace = node_b.finish();
//! assert_eq!(trace.value_at("lamp", 5), Some(true), "power-on inverse");
//! assert_eq!(trace.final_value("lamp"), Some(false), "press, 2 ticks late");
//! # Ok(())
//! # }
//! ```

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::sim::{Runner, Simulator, Time};
use crate::stimulus::Stimulus;
use crate::trace::Trace;
use eblocks_core::BlockKind;

/// Identifies a tapped output port on one node. Dense (0, 1, … in
/// registration order), so fleet engines can index arrays with it.
pub type TapId = u32;

/// A pre-resolved sensor endpoint (see [`NodeRunner::sensor_ref`]): name
/// resolution happens once, the per-packet hot path is an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorRef(pub(crate) usize);

/// A packet captured at a tapped output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedPacket {
    /// The instant the port transmitted.
    pub time: Time,
    /// The tap that captured it.
    pub tap: TapId,
    /// The transmitted value.
    pub value: bool,
}

/// A step-able simulation of one node, driven by an external global clock.
///
/// The wrapped engine is the same arena [`Simulator::run`] uses, so a node
/// inside a fleet behaves bit-for-bit like the same design simulated alone
/// (modulo the traffic the network injects). It borrows the simulator's
/// static tables, so any number of nodes can share one simulator.
pub struct NodeRunner<'a> {
    runner: Runner<'a>,
}

impl<'a> NodeRunner<'a> {
    /// Builds a step-able runner at power-on state.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run`] construction —
    /// [`SimError::InvalidTickPeriod`] if the simulator's tick period is
    /// zero.
    pub fn new(sim: &'a Simulator) -> Result<Self, SimError> {
        Self::with_faults(sim, &FaultPlan::new())
    }

    /// [`new`](NodeRunner::new) with local faults applied (stuck sensors,
    /// dropped/delayed packets — see [`crate::fault`]).
    ///
    /// # Errors
    ///
    /// As for [`new`](NodeRunner::new).
    pub fn with_faults(sim: &'a Simulator, plan: &FaultPlan) -> Result<Self, SimError> {
        Ok(Self {
            runner: Runner::new(sim, plan)?,
        })
    }

    /// Loads the node-local stimulus script.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSensor`] for entries naming no primary input.
    pub fn load_stimulus(&mut self, stimulus: &Stimulus) -> Result<(), SimError> {
        self.runner.load_stimulus(stimulus)
    }

    /// Bridges output port `port` of block `block` to the network: every
    /// packet it transmits is captured for
    /// [`drain_captured`](NodeRunner::drain_captured). Tapping the same
    /// port twice returns the same id.
    ///
    /// # Errors
    ///
    /// [`SimError::BadEndpoint`] if the block does not exist, is an output
    /// block (no output ports), or has no port `port`.
    pub fn tap_output(&mut self, block: &str, port: u8) -> Result<TapId, SimError> {
        let design = self.runner.sim().design();
        let bad = |detail: &str| SimError::BadEndpoint {
            endpoint: format!("{block}.{port}"),
            detail: detail.to_string(),
        };
        let id = design
            .block_by_name(block)
            .ok_or_else(|| bad("no block with that name"))?;
        let blk = design.block(id).expect("resolved block");
        if matches!(blk.kind(), BlockKind::Output(_)) {
            return Err(bad("output blocks have no output ports to tap"));
        }
        if port >= blk.num_outputs() {
            return Err(bad(&format!(
                "block has {} output port(s)",
                blk.num_outputs()
            )));
        }
        let dense = self
            .runner
            .dense_of_id(id)
            .expect("named block is in the design");
        Ok(self.runner.register_tap(dense, port))
    }

    /// Resolves sensor `name` to an ingress endpoint for
    /// [`inject`](NodeRunner::inject).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSensor`] if `name` is not a primary input.
    pub fn sensor_ref(&self, name: &str) -> Result<SensorRef, SimError> {
        let design = self.runner.sim().design();
        let id = design
            .block_by_name(name)
            .filter(|&b| {
                design
                    .block(b)
                    .is_some_and(|blk| blk.kind().is_primary_input())
            })
            .ok_or_else(|| SimError::UnknownSensor {
                name: name.to_string(),
            })?;
        Ok(SensorRef(
            self.runner.dense_of_id(id).expect("resolved block"),
        ))
    }

    /// The earliest instant at which this node has pending work, if any:
    /// a sensor change, a packet in flight, or a tick that is not parked
    /// (see the module docs on parked ticks).
    pub fn next_event_time(&self) -> Option<Time> {
        self.runner.next_event_time()
    }

    /// The simulator's tick period if the design has time-driven blocks,
    /// `None` otherwise. Those blocks tick on its multiples from one
    /// period on, except while parked.
    pub fn tick_period(&self) -> Option<Time> {
        self.runner.tick_period()
    }

    /// Delivers a network packet: `sensor` changes to `value` at `t`.
    ///
    /// `t` must be non-decreasing across calls and must not lie in the
    /// node's past (the global clock only moves forward). Injections at an
    /// instant apply after that instant's scripted stimulus, in call order.
    pub fn inject(&mut self, t: Time, sensor: SensorRef, value: bool) {
        self.runner.inject_sense(t, sensor.0, value);
    }

    /// Settles exactly the instant `t`, parking settled ticks. `horizon`
    /// bounds periodic tick rescheduling, like `until` in
    /// [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// [`SimError::Eval`] / [`SimError::NonBooleanPacket`] for faulting
    /// behavior programs.
    pub fn step_at(&mut self, t: Time, horizon: Time) -> Result<(), SimError> {
        self.runner.step_at(t, horizon)
    }

    /// Moves the packets captured at tapped ports since the last drain
    /// into `out`, in emission order.
    pub fn drain_captured(&mut self, out: &mut Vec<CapturedPacket>) {
        self.runner.drain_captured(out);
    }

    /// Stops the node: folds the transmission counters into the trace
    /// (energy accounting) and returns it.
    pub fn finish(mut self) -> Trace {
        self.runner.finalize_counts();
        self.runner.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};

    fn lamp_node() -> Design {
        let mut d = Design::new("lamp-node");
        let rx = d.add_block("rx", SensorKind::Button);
        let lamp = d.add_block("lamp", OutputKind::Led);
        d.connect((rx, 0), (lamp, 0)).unwrap();
        d
    }

    #[test]
    fn endpoint_validation() {
        let mut d = Design::new("v");
        let s = d.add_block("s", SensorKind::Button);
        let n = d.add_block("n", ComputeKind::Not);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (n, 0)).unwrap();
        d.connect((n, 0), (o, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let mut node = NodeRunner::new(&sim).unwrap();

        assert!(matches!(
            node.tap_output("ghost", 0),
            Err(SimError::BadEndpoint { .. })
        ));
        assert!(matches!(
            node.tap_output("led", 0),
            Err(SimError::BadEndpoint { .. })
        ));
        assert!(matches!(
            node.tap_output("n", 7),
            Err(SimError::BadEndpoint { .. })
        ));
        assert!(matches!(
            node.sensor_ref("n"),
            Err(SimError::UnknownSensor { .. })
        ));

        // Tapping the same port twice returns the same id.
        let t1 = node.tap_output("n", 0).unwrap();
        let t2 = node.tap_output("n", 0).unwrap();
        assert_eq!(t1, t2);
        let t3 = node.tap_output("s", 0).unwrap();
        assert_ne!(t1, t3);
    }

    #[test]
    fn injection_applies_after_scripted_stimulus() {
        // Script raises `rx` at 10; an injection lowers it at the same
        // instant. The injection must apply second, so the lamp sees both
        // packets and ends low.
        let d = lamp_node();
        let sim = Simulator::new(&d).unwrap();
        let mut node = NodeRunner::new(&sim).unwrap();
        node.load_stimulus(&Stimulus::new().set(10, "rx", true))
            .unwrap();
        let rx = node.sensor_ref("rx").unwrap();
        node.inject(10, rx, false);
        while let Some(t) = node.next_event_time() {
            if t > 50 {
                break;
            }
            node.step_at(t, 50).unwrap();
        }
        let trace = node.finish();
        assert_eq!(
            trace.history("lamp"),
            &[(0, false), (10, true), (10, false)]
        );
    }

    /// s -> pg (a 4-tick pulse generator, which ticks) -> led.
    fn pulse_node() -> Design {
        let mut d = Design::new("m");
        let s = d.add_block("s", SensorKind::Button);
        let p = d.add_block("pg", ComputeKind::PulseGen { ticks: 4 });
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        d
    }

    /// Steps `nodes` on one clock until `until`, in slice order within an
    /// instant, and returns every packet their taps captured.
    fn drive(nodes: &mut [NodeRunner<'_>], until: Time) -> Vec<CapturedPacket> {
        let mut captured = Vec::new();
        while let Some(t) = nodes.iter().filter_map(NodeRunner::next_event_time).min() {
            if t > until {
                break;
            }
            for node in nodes.iter_mut() {
                if node.next_event_time() == Some(t) {
                    node.step_at(t, until).unwrap();
                    node.drain_captured(&mut captured);
                }
            }
        }
        captured
    }

    #[test]
    fn stepped_node_matches_monolithic_run() {
        // Driving a node instant-by-instant with no network traffic must
        // reproduce `Simulator::run` exactly, counters included.
        let sim = Simulator::new(&pulse_node()).unwrap();
        let stim = Stimulus::new().pulse(10, 3, "s").pulse(30, 3, "s");

        let mut node = NodeRunner::new(&sim).unwrap();
        node.load_stimulus(&stim).unwrap();
        while let Some(t) = node.next_event_time() {
            if t > 60 {
                break;
            }
            node.step_at(t, 60).unwrap();
        }
        assert_eq!(node.finish(), sim.run(&stim, 60).unwrap());

        // Two runners over one simulator share its tables but nothing
        // else: `a` has a tap and network injections, `b` another script.
        // Stepped interleaved, each must match a lone runner over a
        // simulator of its own, and `Simulator::run` with the injections
        // written into the script (no scripted change shares their
        // instants, so applying them after the script changes nothing).
        let stim_b = Stimulus::new().pulse(5, 2, "s").pulse(22, 1, "s");
        let injections = [(45, true), (47, false)];
        let build = |sim, stim: &Stimulus, tapped: bool| {
            let mut node = NodeRunner::new(sim).unwrap();
            node.load_stimulus(stim).unwrap();
            if tapped {
                node.tap_output("pg", 0).unwrap();
                let s = node.sensor_ref("s").unwrap();
                for (t, value) in injections {
                    node.inject(t, s, value);
                }
            }
            node
        };
        let mut shared = vec![build(&sim, &stim, true), build(&sim, &stim_b, false)];
        let shared_captures = drive(&mut shared, 60);
        let (sim_a, sim_b) = (sim.clone(), sim.clone());
        let mut lone_a = vec![build(&sim_a, &stim, true)];
        let mut lone_b = vec![build(&sim_b, &stim_b, false)];
        assert_eq!(shared_captures, drive(&mut lone_a, 60));
        assert!(drive(&mut lone_b, 60).is_empty());
        assert_eq!(
            shared_captures.len(),
            7,
            "power-on, then a rise and a fall per press, scripted or injected"
        );

        let scripted = injections
            .iter()
            .fold(stim, |script, &(t, value)| script.set(t, "s", value));
        let mut shared = shared.into_iter().map(NodeRunner::finish);
        let (a, b) = (shared.next().unwrap(), shared.next().unwrap());
        assert_eq!(a, lone_a.pop().unwrap().finish());
        assert_eq!(b, lone_b.pop().unwrap().finish());
        assert_eq!(a, sim.run(&scripted, 60).unwrap());
        assert_eq!(b, sim.run(&stim_b, 60).unwrap());
    }
}
