//! Output traces recorded during simulation.

use crate::sim::Time;
use std::collections::BTreeMap;

/// Per-output packet history recorded by a simulation run, keyed by output
/// block name, plus per-block transmission counts (the basis of the energy
/// model — see [`crate::energy`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: BTreeMap<String, Vec<(Time, bool)>>,
    transmissions: BTreeMap<String, u64>,
}

impl Trace {
    /// Creates an empty trace pre-registering the given output names (so
    /// untouched outputs still appear with empty histories).
    pub fn with_outputs<I: IntoIterator<Item = String>>(names: I) -> Self {
        Self {
            records: names.into_iter().map(|n| (n, Vec::new())).collect(),
            transmissions: BTreeMap::new(),
        }
    }

    pub(crate) fn record(&mut self, output: &str, time: Time, value: bool) {
        // Runs pre-register every output, so the name is almost always
        // there already: allocate a key only for a new one.
        if let Some(history) = self.records.get_mut(output) {
            history.push((time, value));
        } else {
            self.records.insert(output.to_string(), vec![(time, value)]);
        }
    }

    /// The packet history of an output block, in time order.
    pub fn history(&self, output: &str) -> &[(Time, bool)] {
        self.records.get(output).map_or(&[], Vec::as_slice)
    }

    /// The last value received by an output block. `None` if it never
    /// received a packet (eBlock outputs idle low, so callers usually treat
    /// this as `false`).
    pub fn final_value(&self, output: &str) -> Option<bool> {
        self.records
            .get(output)
            .and_then(|h| h.last())
            .map(|&(_, v)| v)
    }

    /// The value an output displayed at `time` (the last packet at or before
    /// it), or `None` before its first packet.
    pub fn value_at(&self, output: &str, time: Time) -> Option<bool> {
        self.records
            .get(output)?
            .iter()
            .take_while(|&&(t, _)| t <= time)
            .last()
            .map(|&(_, v)| v)
    }

    /// Output names known to this trace.
    pub fn outputs(&self) -> impl Iterator<Item = &str> {
        self.records.keys().map(String::as_str)
    }

    /// Total number of packets delivered to output blocks.
    pub fn packet_count(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    pub(crate) fn count_transmissions(&mut self, block: &str, packets: u64) {
        if packets > 0 {
            *self.transmissions.entry(block.to_string()).or_insert(0) += packets;
        }
    }

    /// Packets physically transmitted by `block` during the run (one per
    /// driven wire per value change; energy is spent even when a fault
    /// loses the packet in flight).
    pub fn transmissions(&self, block: &str) -> u64 {
        self.transmissions.get(block).copied().unwrap_or(0)
    }

    /// Total packets transmitted by all blocks.
    pub fn total_transmissions(&self) -> u64 {
        self.transmissions.values().sum()
    }

    /// Per-block transmission counts, by block name.
    pub fn transmissions_by_block(&self) -> impl Iterator<Item = (&str, u64)> {
        self.transmissions.iter().map(|(n, &c)| (n.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_and_queries() {
        let mut t = Trace::with_outputs(["led".to_string()]);
        t.record("led", 5, true);
        t.record("led", 12, false);
        assert_eq!(t.history("led"), &[(5, true), (12, false)]);
        assert_eq!(t.final_value("led"), Some(false));
        assert_eq!(t.value_at("led", 4), None);
        assert_eq!(t.value_at("led", 5), Some(true));
        assert_eq!(t.value_at("led", 11), Some(true));
        assert_eq!(t.value_at("led", 30), Some(false));
        assert_eq!(t.packet_count(), 2);
    }

    #[test]
    fn unknown_output_is_empty() {
        let t = Trace::default();
        assert!(t.history("ghost").is_empty());
        assert_eq!(t.final_value("ghost"), None);
        assert_eq!(t.value_at("ghost", 10), None);
    }

    #[test]
    fn preregistered_outputs_listed() {
        let t = Trace::with_outputs(["a".to_string(), "b".to_string()]);
        let names: Vec<&str> = t.outputs().collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
