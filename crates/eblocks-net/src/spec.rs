//! Declarative fleet specs: build a whole relay fleet from a few lines.
//!
//! A [`FleetRequest`] names a (shared) design, a node count, and a
//! topology; [`build`](FleetRequest::build) expands it into a concrete
//! [`Fleet`] where every node relays its design's first output to the
//! next node's first sensor around a ring, and each node's *last* sensor
//! is pulsed by a seeded local stimulus with a per-node phase. That gives
//! the CLI and benchmarks a one-knob way to spin up arbitrarily large,
//! fully deterministic fleets.
//!
//! Specs parse from JSON (the same serde stack as the batch `api`) or
//! from a line-oriented `key = value` format:
//!
//! ```text
//! # eight lamps around a star
//! name = lamps
//! nodes = 8
//! topology = star
//! library = Night Lamp Controller
//! until = 200
//! seed = 7
//! loss-pm = 25
//! ```

use crate::error::NetError;
use crate::fleet::Fleet;
use crate::link::LinkSpec;
use crate::topo::FleetTopology;
use crate::{mix, SALT_STIM};
use eblocks_core::{Design, PortRef};
use eblocks_sim::{Stimulus, Time};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Horizon used when the spec omits `until`.
pub const DEFAULT_UNTIL: Time = 200;
/// Local stimulus period used when the spec omits `stimulus-period`.
pub const DEFAULT_STIMULUS_PERIOD: Time = 40;

/// Where a fleet's shared node design comes from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetSource {
    /// A Table 1 library design, by name ([`eblocks_designs::by_name`]).
    #[serde(rename = "library")]
    Library(String),
    /// A netlist file, resolved relative to the spec's directory.
    #[serde(rename = "netlist")]
    Netlist(String),
}

/// A declarative fleet spec.
///
/// `nodes`, `topology`, and `design` are required; everything else
/// defaults (seed 0, [`LinkSpec::default`] link, [`DEFAULT_UNTIL`],
/// [`DEFAULT_STIMULUS_PERIOD`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRequest {
    /// Fleet name; defaults to the design's name.
    #[serde(default)]
    pub name: Option<String>,
    /// How many node instances to spin up.
    pub nodes: u32,
    /// Topology kind, as accepted by [`FleetTopology::parse`].
    pub topology: String,
    /// The shared node design.
    pub design: FleetSource,
    /// Run horizon, inclusive.
    #[serde(default)]
    pub until: Option<u64>,
    /// Fleet seed (baseline loss and stimulus phases).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Link propagation latency, in ticks.
    #[serde(default)]
    pub latency: Option<u64>,
    /// Link bandwidth, in bits per tick (0 = infinite).
    #[serde(default)]
    pub bits_per_tick: Option<u64>,
    /// Modeled packet size, in bits.
    #[serde(default)]
    pub packet_bits: Option<u64>,
    /// Baseline per-hop loss, in permille.
    #[serde(default)]
    pub loss_pm: Option<u16>,
    /// Period of each node's local stimulus pulses.
    #[serde(default)]
    pub stimulus_period: Option<u64>,
}

impl FleetRequest {
    /// Parses a spec from text: JSON if it starts with `{`, the
    /// line-oriented format otherwise.
    ///
    /// # Errors
    ///
    /// [`NetError::Spec`] with a line number for line-oriented input.
    pub fn parse(text: &str) -> Result<Self, NetError> {
        if text.trim_start().starts_with('{') {
            serde::json::from_str(text)
                .map_err(|e| NetError::spec(format!("bad JSON fleet spec: {e}")))
        } else {
            Self::parse_lines(text)
        }
    }

    fn parse_lines(text: &str) -> Result<Self, NetError> {
        let mut spec = Self {
            name: None,
            nodes: 0,
            topology: String::new(),
            design: FleetSource::Library(String::new()),
            until: None,
            seed: None,
            latency: None,
            bits_per_tick: None,
            packet_bits: None,
            loss_pm: None,
            stimulus_period: None,
        };
        let (mut saw_nodes, mut saw_topology, mut saw_design) = (false, false, false);
        for (idx, raw) in text.lines().enumerate() {
            let at = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(NetError::spec_at(
                    at,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(NetError::spec_at(at, format!("`{key}` needs a value")));
            }
            match key {
                "name" => spec.name = Some(value.to_string()),
                "nodes" => {
                    spec.nodes = num(at, key, value)?;
                    saw_nodes = true;
                }
                "topology" => {
                    spec.topology = value.to_string();
                    saw_topology = true;
                }
                "library" | "netlist" => {
                    if saw_design {
                        return Err(NetError::spec_at(at, "design source given twice"));
                    }
                    spec.design = if key == "library" {
                        FleetSource::Library(value.to_string())
                    } else {
                        FleetSource::Netlist(value.to_string())
                    };
                    saw_design = true;
                }
                "until" => spec.until = Some(num(at, key, value)?),
                "seed" => spec.seed = Some(num(at, key, value)?),
                "latency" => spec.latency = Some(num(at, key, value)?),
                "bits-per-tick" => spec.bits_per_tick = Some(num(at, key, value)?),
                "packet-bits" => spec.packet_bits = Some(num(at, key, value)?),
                "loss-pm" => spec.loss_pm = Some(num(at, key, value)?),
                "stimulus-period" => spec.stimulus_period = Some(num(at, key, value)?),
                _ => {
                    return Err(NetError::spec_at(at, format!("unknown key `{key}`")));
                }
            }
        }
        for (seen, what) in [
            (saw_nodes, "nodes"),
            (saw_topology, "topology"),
            (saw_design, "a `library` or `netlist` design source"),
        ] {
            if !seen {
                return Err(NetError::spec(format!("missing {what}")));
            }
        }
        Ok(spec)
    }

    /// The effective run horizon.
    pub fn until(&self) -> Time {
        self.until.unwrap_or(DEFAULT_UNTIL)
    }

    /// The effective seed.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// The effective link parameters.
    pub fn link(&self) -> LinkSpec {
        let d = LinkSpec::default();
        LinkSpec {
            latency: self.latency.unwrap_or(d.latency),
            bits_per_tick: self.bits_per_tick.unwrap_or(d.bits_per_tick),
            packet_bits: self.packet_bits.unwrap_or(d.packet_bits),
            loss_pm: self.loss_pm.unwrap_or(d.loss_pm),
        }
    }

    /// Expands the spec into a concrete relay fleet: nodes `n0..n{N-1}`,
    /// each bridging its design's first output driver to the next node's
    /// first sensor around the ring, with seeded per-node local stimulus
    /// pulses on the last sensor. Netlist paths resolve against
    /// `base_dir`.
    ///
    /// # Errors
    ///
    /// [`NetError::Spec`] for unresolvable designs (unknown library name,
    /// unreadable or invalid netlist, a design with no egress driver or
    /// no sensors) and [`NetError::Topology`] for bad topologies.
    pub fn build(&self, base_dir: &Path) -> Result<Fleet, NetError> {
        let design = self.load_design(base_dir)?;
        let n = self.nodes as usize;
        let topology = FleetTopology::parse(&self.topology, n)?;
        let name = self
            .name
            .clone()
            .unwrap_or_else(|| design.name().to_string());

        // Egress: whatever drives the first output block — the design's
        // "answer" signal. Ingress: the first sensor. Local stimulus: the
        // last sensor (the two coincide for single-sensor designs).
        let output = design
            .outputs()
            .next()
            .ok_or_else(|| NetError::spec("design has no output block to relay"))?;
        let wire = design
            .driver_of(output, 0)
            .ok_or_else(|| NetError::spec("design's first output has no driver to tap"))?;
        let egress = PortRef::new(
            design.block(wire.from).expect("wire endpoint").name(),
            wire.from_port,
        );
        let ingress = design
            .sensors()
            .next()
            .map(|b| design.block(b).expect("sensor block").name().to_string())
            .ok_or_else(|| NetError::spec("design has no sensor for ingress"))?;
        let local = design
            .sensors()
            .last()
            .map(|b| design.block(b).expect("sensor block").name().to_string())
            .expect("checked above");

        let mut fleet = Fleet::new(name, topology);
        fleet.set_seed(self.seed());
        fleet.set_link(self.link());
        let d = fleet.add_design(design);
        let ids: Vec<_> = (0..n).map(|i| fleet.add_node(format!("n{i}"), d)).collect();
        if n >= 2 {
            for i in 0..n {
                fleet.connect(ids[i], egress.clone(), ids[(i + 1) % n], ingress.as_str())?;
            }
        }
        let until = self.until();
        let period = self
            .stimulus_period
            .unwrap_or(DEFAULT_STIMULUS_PERIOD)
            .max(2);
        let width = (period / 2).max(1);
        for (i, &id) in ids.iter().enumerate() {
            // Seeded phase staggers the fleet so nodes don't fire in
            // lockstep; pure in (seed, rank), so replayable from the seed.
            let mut t = mix(&[self.seed(), SALT_STIM, i as u64]) % period;
            let mut stim = Stimulus::new();
            while t < until {
                stim = stim.set(t, local.as_str(), true).set(
                    eblocks_sim::time::clamp_after(t, width),
                    local.as_str(),
                    false,
                );
                match t.checked_add(period) {
                    Some(next) => t = next,
                    None => break,
                }
            }
            fleet.set_stimulus(id, stim);
        }
        Ok(fleet)
    }

    fn load_design(&self, base_dir: &Path) -> Result<Design, NetError> {
        match &self.design {
            FleetSource::Library(name) => eblocks_designs::by_name(name)
                .map(|l| l.design)
                .ok_or_else(|| NetError::spec(format!("unknown library design `{name}`"))),
            FleetSource::Netlist(path) => {
                let full = base_dir.join(path);
                let text = eblocks_core::input::read_text(&full).map_err(|e| {
                    NetError::spec(format!("cannot read `{}`: {e}", full.display()))
                })?;
                eblocks_core::netlist::from_netlist(&text)
                    .map_err(|e| NetError::spec(format!("`{}`: {e}", full.display())))
            }
        }
    }
}

fn num<T: std::str::FromStr>(line: usize, key: &str, value: &str) -> Result<T, NetError> {
    value
        .parse()
        .map_err(|_| NetError::spec_at(line, format!("`{key}`: bad number `{value}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: &str = "\
# eight lamps
name = lamps
nodes = 8
topology = star
library = Night Lamp Controller
until = 120
seed = 7
loss-pm = 25
";

    #[test]
    fn line_and_json_specs_agree() {
        let from_lines = FleetRequest::parse(LINES).unwrap();
        let json = serde::json::to_string(&from_lines);
        let from_json = FleetRequest::parse(&json).unwrap();
        assert_eq!(from_lines, from_json);
        assert_eq!(from_lines.nodes, 8);
        assert_eq!(from_lines.until(), 120);
        assert_eq!(from_lines.link().loss_pm, 25);
        assert_eq!(
            from_lines.design,
            FleetSource::Library("Night Lamp Controller".into())
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = FleetRequest::parse("nodes = 2\nbogus-key = 1\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = FleetRequest::parse("nodes = many\n").unwrap_err();
        assert!(e.to_string().contains("bad number"), "{e}");
        let e = FleetRequest::parse("nodes = 2\ntopology = star\n").unwrap_err();
        assert!(e.to_string().contains("missing"), "{e}");
        let e = FleetRequest::parse("library = A\nnetlist = b.netlist\n").unwrap_err();
        assert!(e.to_string().contains("twice"), "{e}");
    }

    #[test]
    fn built_fleet_runs_deterministically() {
        let spec = FleetRequest::parse(LINES).unwrap();
        let fleet = spec.build(Path::new(".")).unwrap();
        assert_eq!(fleet.num_nodes(), 8);
        let a = fleet.run_traced(spec.until()).unwrap();
        let b = fleet.run_traced(spec.until()).unwrap();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.trace, b.trace);
        assert!(a.report.packets_sent > 0, "stimulus produced traffic");
        assert!(a.report.packets_delivered > 0);
        assert!(
            a.report.packets_dropped > 0,
            "25 permille loss over {} packets should bite",
            a.report.packets_sent
        );
    }

    #[test]
    fn unknown_library_is_a_spec_error() {
        let spec = FleetRequest::parse("nodes = 2\ntopology = chain\nlibrary = Nope\n").unwrap();
        assert!(matches!(
            spec.build(Path::new(".")),
            Err(NetError::Spec { .. })
        ));
    }
}
