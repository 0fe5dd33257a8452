//! Input/output cost of a candidate partition.
//!
//! §4 of the paper: a partition is feasible for a programmable block with `i`
//! inputs and `o` outputs iff it needs at most `i` input pins and `o` output
//! pins. We count *distinct signals*, i.e. distinct output ports, not wires:
//!
//! * an external output port feeding several blocks inside the partition
//!   occupies **one** input pin (the signal enters once and is distributed
//!   internally as a variable), and
//! * an internal output port feeding several blocks outside occupies **one**
//!   output pin (the generated wire fans out externally).
//!
//! [`CutState`] keeps that demand for one candidate, together with the
//! per-block counts that make border tests and PareDown ranks local, over
//! the dense wiring [`InnerIndex::new`] builds once per design. Removing a
//! member touches only its own wires, and none of its queries hashes.
//! [`is_convex`], a structural check the partitioners run only once the
//! pins fit, still walks the design graph.

use crate::bitset::{BitSet, InnerIndex};
use crate::design::{BlockId, Design};

/// The pin demand of a candidate partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CutCost {
    /// Distinct external signals entering the partition.
    pub inputs: usize,
    /// Distinct internal signals leaving the partition.
    pub outputs: usize,
}

impl CutCost {
    /// Combined indegree + outdegree, the quantity the PareDown rank
    /// differentiates (§4.2).
    pub fn total(self) -> usize {
        self.inputs + self.outputs
    }

    /// Whether this demand fits a block providing `inputs`/`outputs` pins.
    pub fn fits(self, inputs: u8, outputs: u8) -> bool {
        self.inputs <= inputs as usize && self.outputs <= outputs as usize
    }
}

/// Computes the pin demand of the inner-block set `members` (dense positions
/// per `index`) within the design `index` was built from.
///
/// Signals are identified by `(block, output port)` pairs. Primary inputs and
/// any non-member block count as "external".
pub fn cut_cost(index: &InnerIndex, members: &BitSet) -> CutCost {
    CutState::new(index, members).cost()
}

/// The pin demand, border flags and PareDown ranks of one candidate
/// partition, kept up to date as members leave it.
///
/// Built in `O(n + s)` for `n` inner blocks and `s` signals; after that
/// [`remove`](Self::remove), [`rank`](Self::rank) and
/// [`is_border`](Self::is_border) cost `O(degree)` of the block involved and
/// [`cost`](Self::cost) is `O(1)`.
#[derive(Debug, Clone)]
pub struct CutState<'a> {
    index: &'a InnerIndex,
    members: BitSet,
    /// Per signal: wires into members.
    member_sinks: Vec<u32>,
    /// Per signal: wires into everything else (non-members, and blocks that
    /// are not inner).
    outside_sinks: Vec<u32>,
    /// Per inner block: input wires driven by a member.
    member_inputs: Vec<u32>,
    /// Per inner block: output wires into a member.
    member_outputs: Vec<u32>,
    cost: CutCost,
}

impl<'a> CutState<'a> {
    /// The state of the candidate `members` (dense positions per `index`).
    pub fn new(index: &'a InnerIndex, members: &BitSet) -> Self {
        let mut member_sinks = vec![0; index.num_signals()];
        let mut member_inputs = vec![0; index.len()];
        let mut member_outputs = vec![0; index.len()];
        let mut inputs = 0;
        for pos in members.iter() {
            for (signal, wires) in index.input_signals(pos) {
                match index.driver(signal) {
                    Some(d) if members.contains(d) => {
                        member_inputs[pos] += wires;
                        member_outputs[d] += wires;
                    }
                    // An entering signal counts once, at its first member.
                    _ if member_sinks[signal] == 0 => inputs += 1,
                    _ => {}
                }
                member_sinks[signal] += wires;
            }
        }
        let outside_sinks: Vec<u32> = (0..index.num_signals())
            .map(|s| index.num_sinks(s) - member_sinks[s])
            .collect();
        let outputs = members
            .iter()
            .flat_map(|pos| index.driven_signals(pos))
            .filter(|&s| outside_sinks[s] > 0)
            .count();
        Self {
            index,
            members: members.clone(),
            member_sinks,
            outside_sinks,
            member_inputs,
            member_outputs,
            cost: CutCost { inputs, outputs },
        }
    }

    /// The current members.
    pub fn members(&self) -> &BitSet {
        &self.members
    }

    /// The current pin demand.
    pub fn cost(&self) -> CutCost {
        self.cost
    }

    /// Whether member `pos` is a *border block* (§4.2): every input or
    /// every output connects outside the candidate.
    pub fn is_border(&self, pos: usize) -> bool {
        self.member_inputs[pos] == 0 || self.member_outputs[pos] == 0
    }

    /// The PareDown rank of member `pos` (§4.2): the exact change in
    /// `inputs + outputs` if it were removed.
    pub fn rank(&self, pos: usize) -> i64 {
        debug_assert!(self.members.contains(pos), "rank of a non-member");
        let index = self.index;
        let mut delta = 0;
        for (signal, wires) in index.input_signals(pos) {
            match index.driver(signal) {
                // A member's signal read only by members becomes an output.
                Some(d) if self.members.contains(d) => {
                    delta += i64::from(self.outside_sinks[signal] == 0);
                }
                // An entering signal no other member reads stops entering.
                _ => delta -= i64::from(self.member_sinks[signal] == wires),
            }
        }
        for signal in index.driven_signals(pos) {
            // Its own signals stop leaving, and enter if members read them.
            delta += i64::from(self.member_sinks[signal] > 0);
            delta -= i64::from(self.outside_sinks[signal] > 0);
        }
        delta
    }

    /// Removes member `pos`, updating the counts its wires touch.
    pub fn remove(&mut self, pos: usize) {
        let removed = self.members.remove(pos);
        debug_assert!(removed, "removing a non-member");
        let index = self.index;
        for (signal, wires) in index.input_signals(pos) {
            self.member_sinks[signal] -= wires;
            self.outside_sinks[signal] += wires;
            match index.driver(signal) {
                Some(d) if self.members.contains(d) => {
                    self.member_outputs[d] -= wires;
                    if self.outside_sinks[signal] == wires {
                        self.cost.outputs += 1;
                    }
                }
                _ if self.member_sinks[signal] == 0 => self.cost.inputs -= 1,
                _ => {}
            }
        }
        for signal in index.driven_signals(pos) {
            if self.outside_sinks[signal] > 0 {
                self.cost.outputs -= 1;
            }
            if self.member_sinks[signal] > 0 {
                self.cost.inputs += 1;
            }
            for sink in index.sinks(signal).flatten() {
                if self.members.contains(sink) {
                    self.member_inputs[sink] -= 1;
                }
            }
        }
    }
}

/// Whether `members` is *convex*: no path from a member leaves the set and
/// re-enters it. Convexity guarantees the merged program can evaluate the
/// partition in one pass without stale intermediate values; the paper does
/// not require it, so it is an optional constraint (see
/// `eblocks_partition::PartitionConstraints`).
pub fn is_convex(design: &Design, index: &InnerIndex, members: &BitSet) -> bool {
    // BFS forward from every edge that leaves the set, through external
    // nodes only; if we can reach a member, the set is non-convex. `seen`
    // is indexed by raw block index and grows on demand.
    let inside = |b: BlockId| index.position(b).is_some_and(|p| members.contains(p));
    let mut seen: Vec<bool> = Vec::new();
    let mut first_visit = |b: BlockId| {
        if seen.len() <= b.index() {
            seen.resize(b.index() + 1, false);
        }
        !std::mem::replace(&mut seen[b.index()], true)
    };
    let mut frontier: Vec<BlockId> = Vec::new();
    for pos in members.iter() {
        for w in design.out_wires(index.block(pos)) {
            if !inside(w.to) && first_visit(w.to) {
                frontier.push(w.to);
            }
        }
    }
    while let Some(b) = frontier.pop() {
        for w in design.out_wires(b) {
            if inside(w.to) {
                return false;
            }
            if first_visit(w.to) {
                frontier.push(w.to);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{ComputeKind, OutputKind, SensorKind};

    /// s1, s2 -> g1(and); g1 -> g2(not); g2 -> o. Members vary.
    fn pipeline() -> (Design, InnerIndex) {
        let mut d = Design::new("p");
        let s1 = d.add_block("s1", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Motion);
        let g1 = d.add_block("g1", ComputeKind::and2());
        let g2 = d.add_block("g2", ComputeKind::Not);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s1, 0), (g1, 0)).unwrap();
        d.connect((s2, 0), (g1, 1)).unwrap();
        d.connect((g1, 0), (g2, 0)).unwrap();
        d.connect((g2, 0), (o, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        (d, idx)
    }

    #[test]
    fn whole_pipeline_costs_two_in_one_out() {
        let (_, idx) = pipeline();
        let cost = cut_cost(&idx, &idx.full_set());
        assert_eq!(
            cost,
            CutCost {
                inputs: 2,
                outputs: 1
            }
        );
        assert_eq!(cost.total(), 3);
        assert!(cost.fits(2, 2));
        assert!(!cost.fits(1, 2));
    }

    #[test]
    fn single_member_counts_internal_edge_as_io() {
        let (_, idx) = pipeline();
        let mut only_g1 = idx.empty_set();
        only_g1.insert(0);
        assert_eq!(
            cut_cost(&idx, &only_g1),
            CutCost {
                inputs: 2,
                outputs: 1
            }
        );
        let mut only_g2 = idx.empty_set();
        only_g2.insert(1);
        assert_eq!(
            cut_cost(&idx, &only_g2),
            CutCost {
                inputs: 1,
                outputs: 1
            }
        );
    }

    #[test]
    fn empty_set_costs_nothing() {
        let (_, idx) = pipeline();
        assert_eq!(cut_cost(&idx, &idx.empty_set()), CutCost::default());
    }

    #[test]
    fn shared_external_source_counts_once() {
        // One sensor feeding both inputs of an AND: the partition {and}
        // needs a single input pin because it is a single signal.
        let mut d = Design::new("share");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((s, 0), (g, 1)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        assert_eq!(
            cut_cost(&idx, &idx.full_set()),
            CutCost {
                inputs: 1,
                outputs: 1
            }
        );
    }

    #[test]
    fn fanout_output_counts_once() {
        // g inside the set drives two outputs outside: one output pin.
        let mut d = Design::new("fan");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o1, 0)).unwrap();
        d.connect((g, 0), (o2, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        assert_eq!(
            cut_cost(&idx, &idx.full_set()),
            CutCost {
                inputs: 1,
                outputs: 1
            }
        );
    }

    #[test]
    fn splitter_distinct_ports_count_separately() {
        // A splitter's two output ports leaving the set are two signals.
        let mut d = Design::new("split");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (o1, 0)).unwrap();
        d.connect((sp, 1), (o2, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        assert_eq!(
            cut_cost(&idx, &idx.full_set()),
            CutCost {
                inputs: 1,
                outputs: 2
            }
        );
    }

    #[test]
    fn convexity_detected() {
        // a -> b -> c and a -> c, with the set {a, c}: the path a->b->c
        // leaves through b and re-enters, so {a,c} is non-convex.
        let mut d = Design::new("cvx");
        let s = d.add_block("s", SensorKind::Button);
        let a = d.add_block("a", ComputeKind::Splitter);
        let b = d.add_block("b", ComputeKind::Not);
        let c = d.add_block("c", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (a, 0)).unwrap();
        d.connect((a, 0), (b, 0)).unwrap();
        d.connect((a, 1), (c, 0)).unwrap();
        d.connect((b, 0), (c, 1)).unwrap();
        d.connect((c, 0), (o, 0)).unwrap();
        let idx = InnerIndex::new(&d);

        let pos = |name: &str| idx.position(d.block_by_name(name).unwrap()).unwrap();
        let mut ac = idx.empty_set();
        ac.insert(pos("a"));
        ac.insert(pos("c"));
        assert!(!is_convex(&d, &idx, &ac));

        let mut ab = idx.empty_set();
        ab.insert(pos("a"));
        ab.insert(pos("b"));
        assert!(is_convex(&d, &idx, &ab));
        assert!(is_convex(&d, &idx, &idx.full_set()));
        assert!(is_convex(&d, &idx, &idx.empty_set()));
    }
}
