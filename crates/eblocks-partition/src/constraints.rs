//! Feasibility constraints on a candidate partition.

use eblocks_core::{cut_cost, BitSet, CutCost, Design, InnerIndex, ProgrammableSpec};

/// The constraints a candidate partition must satisfy to be replaceable by a
/// programmable block.
///
/// The paper's constraints (§4) are the pin budget and the ≥2-block rule
/// (which is structural, enforced by the algorithms, not here). The two
/// `require_*` extensions default to off so the default configuration is
/// exactly the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionConstraints {
    /// Pin budget of the target programmable block (paper default: 2-in/2-out).
    pub spec: ProgrammableSpec,
    /// Require convex partitions (no path out of and back into the set).
    /// Extension; the paper does not impose this.
    pub require_convex: bool,
    /// Require weakly connected partitions. Extension; the paper does not
    /// impose this (and PareDown naturally produces disconnected candidates).
    pub require_connected: bool,
}

impl PartitionConstraints {
    /// Constraints for a given pin budget, paper semantics otherwise.
    pub fn with_spec(spec: ProgrammableSpec) -> Self {
        Self {
            spec,
            ..Self::default()
        }
    }

    /// Whether `cost` fits the pin budget (ignoring the structural options).
    pub fn cost_fits(&self, cost: CutCost) -> bool {
        cost.fits(self.spec.inputs, self.spec.outputs)
    }

    /// Full feasibility of a member set: pin budget plus any enabled
    /// structural constraints. Does **not** check the ≥2-block rule — that is
    /// the caller's decision point (a fitting singleton is handled specially
    /// by every algorithm).
    pub fn fits(&self, design: &Design, index: &InnerIndex, members: &BitSet) -> bool {
        self.cost_fits(cut_cost(index, members)) && self.structure_fits(design, index, members)
    }

    /// Whether a member set meets the enabled structural constraints
    /// (convexity, connectivity), ignoring the pin budget. Callers that
    /// track pins themselves run this only once the pins fit.
    pub fn structure_fits(&self, design: &Design, index: &InnerIndex, members: &BitSet) -> bool {
        (!self.require_convex || eblocks_core::cut::is_convex(design, index, members))
            && (!self.require_connected || is_connected(design, index, members))
    }
}

/// Whether the member set is weakly connected (treating wires as
/// undirected). Empty and singleton sets count as connected.
pub fn is_connected(design: &Design, index: &InnerIndex, members: &BitSet) -> bool {
    let mut iter = members.iter();
    let Some(first) = iter.next() else {
        return true;
    };
    let mut seen = BitSet::new(index.len());
    seen.insert(first);
    let mut stack = vec![first];
    while let Some(pos) = stack.pop() {
        let block = index.block(pos);
        let neighbors = design
            .in_wires(block)
            .map(|w| w.from)
            .chain(design.out_wires(block).map(|w| w.to));
        for n in neighbors {
            if let Some(npos) = index.position(n) {
                if members.contains(npos) && seen.insert(npos) {
                    stack.push(npos);
                }
            }
        }
    }
    seen.len() == members.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};

    /// Two independent NOT chains: s1->a->o1, s2->b->o2.
    fn two_chains() -> (Design, InnerIndex) {
        let mut d = Design::new("t");
        let s1 = d.add_block("s1", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Motion);
        let a = d.add_block("a", ComputeKind::Not);
        let b = d.add_block("b", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s1, 0), (a, 0)).unwrap();
        d.connect((s2, 0), (b, 0)).unwrap();
        d.connect((a, 0), (o1, 0)).unwrap();
        d.connect((b, 0), (o2, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        (d, idx)
    }

    #[test]
    fn default_is_paper_config() {
        let c = PartitionConstraints::default();
        assert_eq!((c.spec.inputs, c.spec.outputs), (2, 2));
        assert!(!c.require_convex);
        assert!(!c.require_connected);
    }

    #[test]
    fn disconnected_pair_fits_by_default() {
        let (d, idx) = two_chains();
        let c = PartitionConstraints::default();
        // {a, b} is disconnected but 2-in/2-out: fits under paper semantics.
        assert!(c.fits(&d, &idx, &idx.full_set()));
    }

    #[test]
    fn connectivity_constraint_rejects_disconnected() {
        let (d, idx) = two_chains();
        let c = PartitionConstraints {
            require_connected: true,
            ..Default::default()
        };
        assert!(!c.fits(&d, &idx, &idx.full_set()));
        let mut single = idx.empty_set();
        single.insert(0);
        assert!(c.fits(&d, &idx, &single), "singletons are connected");
    }

    #[test]
    fn pin_budget_enforced() {
        let (d, idx) = two_chains();
        let c = PartitionConstraints::with_spec(ProgrammableSpec::new(1, 2));
        assert!(!c.fits(&d, &idx, &idx.full_set()), "needs 2 inputs");
        let c = PartitionConstraints::with_spec(ProgrammableSpec::new(2, 1));
        assert!(!c.fits(&d, &idx, &idx.full_set()), "needs 2 outputs");
    }

    #[test]
    fn convexity_constraint_applies() {
        // a -> b -> c plus a -> c: {a, c} non-convex.
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
        let mut ac = idx.empty_set();
        ac.insert(idx.position(a).unwrap());
        ac.insert(idx.position(c).unwrap());

        let plain = PartitionConstraints::default();
        assert!(
            plain.fits(&d, &idx, &ac),
            "paper semantics admit non-convex sets"
        );
        let strict = PartitionConstraints {
            require_convex: true,
            ..Default::default()
        };
        assert!(!strict.fits(&d, &idx, &ac));
        assert!(strict.fits(&d, &idx, &idx.full_set()));
    }

    #[test]
    fn empty_set_connected_and_fits() {
        let (d, idx) = two_chains();
        assert!(is_connected(&d, &idx, &idx.empty_set()));
        assert!(PartitionConstraints::default().fits(&d, &idx, &idx.empty_set()));
    }
}
