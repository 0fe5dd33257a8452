//! Fault injection (extension).
//!
//! Physical eBlock deployments fail in mundane ways the paper's clean-room
//! evaluation never exercises: a sensor's contact corrodes shut, a radio
//! hop drops packets, interference delays them. This module injects those
//! failures into a simulation run so a designer can ask *what does my
//! network do when the garage-door switch sticks?* — and so the test suite
//! can check that the equivalence harness notices genuinely divergent
//! behavior (a fault on one side must be detected, not masked).
//!
//! Faults are declared against block *names*, so one [`FaultPlan`] can be
//! applied to both a pre-synthesis and post-synthesis network (sensors and
//! outputs survive synthesis under their original names).
//!
//! Semantics:
//!
//! * [`Fault::StuckAt`] — the sensor reports the stuck value from power-on
//!   and ignores every stimulus event.
//! * [`Fault::DropPackets`] — packets *sent* by the block inside the window
//!   vanish in flight. The eBlocks protocol has no acknowledgement, so the
//!   sender's change detection still counts them as sent — exactly how a
//!   real lossy hop behaves.
//! * [`Fault::DelayPackets`] — packets sent by the block inside the window
//!   arrive `extra` ticks later than normal.

use crate::sim::{BlockIndex, Time};
use eblocks_core::Design;

/// One injected failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A sensor stuck at a fixed value from power-on.
    StuckAt {
        /// Name of the sensor block.
        block: String,
        /// The value it is stuck reporting.
        value: bool,
    },
    /// Packets sent by a block are lost during `[from, to)`.
    DropPackets {
        /// Name of the sending block (typically a communication block).
        block: String,
        /// Window start (inclusive).
        from: Time,
        /// Window end (exclusive); `Time::MAX` for a permanent failure.
        to: Time,
    },
    /// Packets sent by a block are delayed by `extra` ticks during
    /// `[from, to)`.
    DelayPackets {
        /// Name of the sending block.
        block: String,
        /// Window start (inclusive).
        from: Time,
        /// Window end (exclusive).
        to: Time,
        /// Additional latency in ticks.
        extra: Time,
    },
}

/// A set of faults to apply to one simulation run.
///
/// # Examples
///
/// ```
/// use eblocks_sim::{Fault, FaultPlan};
///
/// let plan = FaultPlan::new()
///     .with(Fault::StuckAt { block: "door".into(), value: true })
///     .with(Fault::DropPackets { block: "radio".into(), from: 50, to: 100 });
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The declared faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Resolves block names against a design's dense [`BlockIndex`].
    /// Unknown names are ignored — a plan written for the original network
    /// may mention blocks that the synthesized network merged away. An
    /// empty plan resolves to empty tables, which allocate nothing.
    pub(crate) fn resolve(&self, design: &Design, index: &BlockIndex) -> ResolvedFaults {
        if self.is_empty() {
            return ResolvedFaults::default();
        }
        let n = index.num_blocks();
        let mut stuck = vec![None; n];
        let mut sender: Vec<Vec<SendFault>> = vec![Vec::new(); n];
        let dense_by_name =
            |name: &str| design.block_by_name(name).and_then(|id| index.dense_of(id));
        for fault in &self.faults {
            match fault {
                Fault::StuckAt { block, value } => {
                    if let Some(d) = dense_by_name(block) {
                        stuck[d] = Some(*value);
                    }
                }
                Fault::DropPackets { block, from, to } => {
                    if let Some(d) = dense_by_name(block) {
                        sender[d].push(SendFault {
                            from: *from,
                            to: *to,
                            kind: SendFaultKind::Drop,
                        });
                    }
                }
                Fault::DelayPackets {
                    block,
                    from,
                    to,
                    extra,
                } => {
                    if let Some(d) = dense_by_name(block) {
                        sender[d].push(SendFault {
                            from: *from,
                            to: *to,
                            kind: SendFaultKind::Delay(*extra),
                        });
                    }
                }
            }
        }
        ResolvedFaults { stuck, sender }
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        Self {
            faults: iter.into_iter().collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendFaultKind {
    Drop,
    Delay(Time),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendFault {
    from: Time,
    to: Time,
    kind: SendFaultKind,
}

/// Name-resolved faults as dense per-block tables, consulted by the
/// runner's hot paths without hashing. Indices are the runner's dense
/// block indices (see `sim::BlockIndex`); a block past the end of a table
/// has no fault.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolvedFaults {
    stuck: Vec<Option<bool>>,
    sender: Vec<Vec<SendFault>>,
}

impl ResolvedFaults {
    /// The stuck value of the sensor at dense index `sensor`, if any.
    pub(crate) fn stuck_value(&self, sensor: usize) -> Option<bool> {
        self.stuck.get(sensor).copied().flatten()
    }

    /// The fate of a packet sent by the block at dense index `block` at
    /// time `t`: `None` to drop it, or `Some(extra_latency)`. Drop wins
    /// over delay when windows overlap.
    pub(crate) fn send_fate(&self, block: usize, t: Time) -> Option<Time> {
        let Some(faults) = self.sender.get(block) else {
            return Some(0);
        };
        let mut extra: Time = 0;
        for f in faults {
            if t >= f.from && t < f.to {
                match f.kind {
                    SendFaultKind::Drop => return None,
                    SendFaultKind::Delay(d) => extra = extra.saturating_add(d),
                }
            }
        }
        Some(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, Stimulus};
    use eblocks_core::{CommKind, ComputeKind, Design, OutputKind, SensorKind};

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

    fn radio_link() -> Design {
        let mut d = Design::new("radio");
        let b = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("radio", CommKind::WirelessTx);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (o, 0)).unwrap();
        d
    }

    #[test]
    fn stuck_at_overrides_stimulus() {
        let d = garage();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "door", true).set(20, "door", false);
        let healthy = sim.run(&stim, 60).unwrap();
        assert_eq!(healthy.final_value("led"), Some(false), "door closed again");

        // Door switch corrodes shut: always reports open. Night (light
        // false at power-on) + open door = alarm on, forever.
        let plan = FaultPlan::new().with(Fault::StuckAt {
            block: "door".into(),
            value: true,
        });
        let faulty = sim.run_with_faults(&stim, 60, &plan).unwrap();
        assert_eq!(faulty.final_value("led"), Some(true));
        assert_eq!(faulty.value_at("led", 5), Some(true), "stuck from power-on");
    }

    #[test]
    fn dropped_packet_loses_the_edge() {
        let d = radio_link();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "btn", true);
        let healthy = sim.run(&stim, 60).unwrap();
        assert_eq!(healthy.final_value("led"), Some(true));

        // Radio fails during the transmission window; the protocol has no
        // retransmission, so the LED never learns the button was pressed.
        let plan = FaultPlan::new().with(Fault::DropPackets {
            block: "radio".into(),
            from: 5,
            to: 20,
        });
        let faulty = sim.run_with_faults(&stim, 60, &plan).unwrap();
        assert_eq!(faulty.final_value("led"), Some(false));
    }

    #[test]
    fn drop_window_is_bounded() {
        let d = radio_link();
        let sim = Simulator::new(&d).unwrap();
        // Edge at 10 is lost; edge at 40 (after the window) gets through.
        let stim = Stimulus::new()
            .set(10, "btn", true)
            .set(30, "btn", false)
            .set(40, "btn", true);
        let plan = FaultPlan::new().with(Fault::DropPackets {
            block: "radio".into(),
            from: 5,
            to: 35,
        });
        let faulty = sim.run_with_faults(&stim, 80, &plan).unwrap();
        assert_eq!(faulty.value_at("led", 20), Some(false), "rise lost");
        assert_eq!(
            faulty.final_value("led"),
            Some(true),
            "post-window rise arrives"
        );
    }

    #[test]
    fn delay_shifts_arrival() {
        let d = radio_link();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "btn", true);
        let healthy_rise = rise_time(&sim.run(&stim, 60).unwrap());

        let plan = FaultPlan::new().with(Fault::DelayPackets {
            block: "radio".into(),
            from: 0,
            to: 100,
            extra: 7,
        });
        let faulty_rise = rise_time(&sim.run_with_faults(&stim, 60, &plan).unwrap());
        assert_eq!(faulty_rise, healthy_rise + 7);
    }

    fn rise_time(trace: &crate::Trace) -> Time {
        trace
            .history("led")
            .iter()
            .find(|&&(_, v)| v)
            .map(|&(t, _)| t)
            .expect("led rises")
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let d = garage();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "door", true).set(30, "light", true);
        let a = sim.run(&stim, 80).unwrap();
        let b = sim.run_with_faults(&stim, 80, &FaultPlan::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_block_names_ignored() {
        let d = garage();
        let sim = Simulator::new(&d).unwrap();
        let plan = FaultPlan::new().with(Fault::StuckAt {
            block: "merged-away".into(),
            value: true,
        });
        let stim = Stimulus::new().set(10, "door", true);
        let a = sim.run(&stim, 40).unwrap();
        let b = sim.run_with_faults(&stim, 40, &plan).unwrap();
        assert_eq!(a, b, "plans survive synthesis renaming losslessly");
    }

    #[test]
    fn overlapping_drop_beats_delay() {
        let d = radio_link();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "btn", true);
        let plan = FaultPlan::new()
            .with(Fault::DelayPackets {
                block: "radio".into(),
                from: 5,
                to: 50,
                extra: 3,
            })
            .with(Fault::DropPackets {
                block: "radio".into(),
                from: 5,
                to: 50,
            });
        let faulty = sim.run_with_faults(&stim, 80, &plan).unwrap();
        // The power-on announcement (t=0, before the window) arrives; the
        // rise at t=10 is dropped, not merely delayed.
        assert_eq!(faulty.final_value("led"), Some(false));
    }

    #[test]
    fn plan_collects_from_iterator() {
        let plan: FaultPlan = [
            Fault::StuckAt {
                block: "a".into(),
                value: false,
            },
            Fault::DropPackets {
                block: "b".into(),
                from: 0,
                to: 1,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(plan.faults().len(), 2);
        assert!(!plan.is_empty());
    }
}
