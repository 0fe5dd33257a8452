//! Fleet run statistics: per-fleet, per-node, and per-link counters.
//!
//! Reports ride the same vendored serde stack as the batch `api` module,
//! so `fleet --json` output is deterministic and golden-diffable: map keys
//! are emitted in struct-field order, floats render canonically, and
//! `None` fields are omitted.

use serde::{Deserialize, Serialize};

/// The full outcome of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Fleet name.
    pub name: String,
    /// Node count.
    pub nodes: u32,
    /// Topology label (`star(8)`, `grid(4x3)`, …).
    pub topology: String,
    /// The fleet seed (baseline link loss, spec-generated stimulus).
    pub seed: u64,
    /// The run horizon, inclusive.
    pub until: u64,
    /// Engine events: network calendar events plus node instants. A node
    /// with time-driven blocks counts every grid instant of its tick
    /// period until it crashes, whether its ticks ran or stayed parked,
    /// plus every other instant it stepped; any other node counts the
    /// instants it stepped.
    pub events: u64,
    /// Packets sent into the network (per egress channel).
    pub packets_sent: u64,
    /// Packets delivered to an ingress sensor.
    pub packets_delivered: u64,
    /// Packets lost (seeded loss, injected faults, crashed destinations,
    /// or unroutable end-of-time arrivals).
    pub packets_dropped: u64,
    /// Packets still traveling when the horizon closed.
    pub packets_in_flight: u64,
    /// Nodes that crashed during the run.
    pub crashes: u32,
    /// Per-node counters, in node-rank order.
    pub node_stats: Vec<NodeStats>,
    /// Per-half-link counters, sorted by `(from, to)` site index; only
    /// half-links that carried traffic appear.
    pub link_stats: Vec<LinkStats>,
}

/// One node's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Node name.
    pub name: String,
    /// The site hosting the node.
    pub site: String,
    /// Packets this node's egress taps sent.
    pub sent: u64,
    /// Packets delivered to this node's ingress sensors.
    pub received: u64,
    /// Local wire/radio transmissions inside the node's own design (the
    /// per-block energy accounting basis).
    pub transmissions: u64,
    /// Estimated energy over the run, in nanojoules (transmissions plus
    /// idle, via [`eblocks_sim::estimate_energy`]).
    pub energy_nj: f64,
    /// When the node crashed, if it did.
    #[serde(default)]
    pub crashed_at: Option<u64>,
}

/// One directed half-link's counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// The half-link, rendered `fromSite->toSite` with site names.
    pub link: String,
    /// Packets that entered the half-link.
    pub packets: u64,
    /// Packets lost on it.
    pub dropped: u64,
    /// Ticks spent serializing.
    pub busy_ticks: u64,
    /// Total ticks packets queued behind earlier traffic.
    pub wait_ticks: u64,
    /// Longest single queueing wait.
    pub max_wait: u64,
}

impl FleetReport {
    /// Deterministic single-line JSON (golden-diffable).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Deterministic pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = FleetReport {
            name: "demo".into(),
            nodes: 2,
            topology: "switch(2)".into(),
            seed: 7,
            until: 100,
            events: 42,
            packets_sent: 3,
            packets_delivered: 2,
            packets_dropped: 1,
            packets_in_flight: 0,
            crashes: 1,
            node_stats: vec![NodeStats {
                name: "n0".into(),
                site: "port0".into(),
                sent: 3,
                received: 0,
                transmissions: 9,
                energy_nj: 1250.5,
                crashed_at: Some(60),
            }],
            link_stats: vec![LinkStats {
                link: "port0->port1".into(),
                packets: 3,
                dropped: 1,
                busy_ticks: 3,
                wait_ticks: 0,
                max_wait: 0,
            }],
        };
        let json = report.to_json();
        let back: FleetReport = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json, "serialization is stable");
        assert!(json.contains("\"crashed_at\":60"));
        // None fields are omitted entirely.
        let mut healthy = report;
        healthy.node_stats[0].crashed_at = None;
        assert!(!healthy.to_json().contains("crashed_at"));
    }
}
