//! Multi-type partitioning — the paper's §6 future work, implemented.
//!
//! "We plan to extend the PareDown heuristic to consider multiple types of
//! programmable blocks (having different number of inputs and outputs) and
//! varying compute block costs."
//!
//! [`pare_down_multi`] runs the PareDown decomposition against a *catalog*
//! of programmable block types: candidates are pared until *some* catalog
//! entry accommodates them, and each accepted partition is then assigned
//! the **cheapest** such entry. Whether a partition is worth keeping is
//! decided by cost, not block count: a partition is dissolved back to
//! pre-defined blocks if replacing it would cost more than the blocks it
//! covers (generalizing the paper's fixed "single-node partitions are
//! invalid" rule, which is the special case of a programmable block
//! costing more than one pre-defined block but less than two).

use crate::constraints::PartitionConstraints;
use crate::pare_down::Paring;
use crate::result::Partitioning;
use eblocks_core::{BlockId, CutState, Design, InnerIndex, ProgrammableSpec};

/// A catalog of available programmable block types with costs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCatalog {
    /// Available programmable block types: `(pin budget, unit cost)`.
    pub programmable: Vec<(ProgrammableSpec, f64)>,
    /// Cost of one pre-defined compute block.
    pub predefined_cost: f64,
}

impl BlockCatalog {
    /// The paper's implicit catalog: one 2-in/2-out type priced between one
    /// and two pre-defined blocks.
    pub fn paper_default() -> Self {
        Self {
            programmable: vec![(ProgrammableSpec::default(), 1.5)],
            predefined_cost: 1.0,
        }
    }

    /// A richer catalog: small/medium/large blocks at increasing cost.
    pub fn three_tier() -> Self {
        Self {
            programmable: vec![
                (ProgrammableSpec::new(1, 1), 1.2),
                (ProgrammableSpec::new(2, 2), 1.5),
                (ProgrammableSpec::new(4, 4), 2.5),
            ],
            predefined_cost: 1.0,
        }
    }

    /// The most permissive pin budget in the catalog: any candidate
    /// fitting *some* catalog entry fits this envelope (the converse holds
    /// only when the entries nest).
    pub fn envelope(&self) -> ProgrammableSpec {
        let inputs = self
            .programmable
            .iter()
            .map(|(s, _)| s.inputs)
            .max()
            .unwrap_or(0);
        let outputs = self
            .programmable
            .iter()
            .map(|(s, _)| s.outputs)
            .max()
            .unwrap_or(0);
        ProgrammableSpec::new(inputs, outputs)
    }

    /// The cheapest catalog entry whose pins cover `(inputs, outputs)`.
    pub fn cheapest_fitting(
        &self,
        inputs: usize,
        outputs: usize,
    ) -> Option<(ProgrammableSpec, f64)> {
        self.programmable
            .iter()
            .filter(|(s, _)| inputs <= s.inputs as usize && outputs <= s.outputs as usize)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
    }
}

/// A partitioning with per-partition block-type assignment and total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPartitioning {
    /// The underlying partitioning (partitions + uncovered blocks).
    pub partitioning: Partitioning,
    /// For each partition (indexed like
    /// [`Partitioning::partitions`]), the chosen block type and its cost.
    pub assignments: Vec<(ProgrammableSpec, f64)>,
    /// Total network cost: assigned blocks plus uncovered pre-defined
    /// blocks.
    pub total_cost: f64,
}

impl MultiPartitioning {
    /// Cost of leaving every inner block pre-defined (the baseline the
    /// synthesis must beat).
    pub fn baseline_cost(catalog: &BlockCatalog, inner_blocks: usize) -> f64 {
        catalog.predefined_cost * inner_blocks as f64
    }
}

/// PareDown against a block catalog.
///
/// Structural constraints (`require_convex` / `require_connected`) are taken
/// from `constraints`; the pin budget is any catalog entry during paring,
/// and per-partition assignment picks the cheapest fitting type. Partitions
/// that would cost more than the pre-defined blocks they replace are
/// dissolved.
pub fn pare_down_multi(
    design: &Design,
    constraints: &PartitionConstraints,
    catalog: &BlockCatalog,
) -> MultiPartitioning {
    let index = InnerIndex::new(design);
    let mut paring = Paring::new(design, &index, constraints, true);
    let mut remaining = index.full_set();
    let mut partitions: Vec<Vec<BlockId>> = Vec::new();
    let mut assignments: Vec<(ProgrammableSpec, f64)> = Vec::new();
    let mut uncovered: Vec<BlockId> = Vec::new();

    while !remaining.is_empty() {
        let mut candidate = CutState::new(&index, &remaining);
        let fits = paring.pare(
            &mut candidate,
            |cost| {
                catalog
                    .cheapest_fitting(cost.inputs, cost.outputs)
                    .is_some()
            },
            None,
        );
        remaining.difference_with(candidate.members());
        let members = index.resolve(candidate.members());
        let cost = candidate.cost();
        let replaced = members.len() as f64 * catalog.predefined_cost;
        match catalog.cheapest_fitting(cost.inputs, cost.outputs) {
            Some((spec, block_cost)) if fits && block_cost < replaced => {
                partitions.push(members);
                assignments.push((spec, block_cost));
            }
            // Not economical, or a lone block no entry fits: stay
            // pre-defined.
            _ => uncovered.extend(members),
        }
    }

    let total_cost: f64 = assignments.iter().map(|(_, c)| c).sum::<f64>()
        + uncovered.len() as f64 * catalog.predefined_cost;
    MultiPartitioning {
        partitioning: Partitioning::new(partitions, uncovered, "pare-down-multi", true),
        assignments,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};

    fn chain(n: usize) -> Design {
        let mut d = Design::new("chain");
        let s = d.add_block("s", SensorKind::Button);
        let mut prev = s;
        for i in 0..n {
            let g = d.add_block(format!("g{i}"), ComputeKind::Not);
            d.connect((prev, 0), (g, 0)).unwrap();
            prev = g;
        }
        let o = d.add_block("o", OutputKind::Led);
        d.connect((prev, 0), (o, 0)).unwrap();
        d
    }

    /// Three 2-input gates over six sensors feeding one collector — fits a
    /// 4-in block but not a 2-in one.
    fn wide_design() -> Design {
        let mut d = Design::new("wide");
        let sensors: Vec<_> = (0..4)
            .map(|i| d.add_block(format!("s{i}"), SensorKind::Button))
            .collect();
        let g0 = d.add_block("g0", ComputeKind::and2());
        let g1 = d.add_block("g1", ComputeKind::or2());
        let top = d.add_block("top", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((sensors[0], 0), (g0, 0)).unwrap();
        d.connect((sensors[1], 0), (g0, 1)).unwrap();
        d.connect((sensors[2], 0), (g1, 0)).unwrap();
        d.connect((sensors[3], 0), (g1, 1)).unwrap();
        d.connect((g0, 0), (top, 0)).unwrap();
        d.connect((g1, 0), (top, 1)).unwrap();
        d.connect((top, 0), (o, 0)).unwrap();
        d
    }

    #[test]
    fn paper_catalog_matches_plain_pare_down() {
        use crate::pare_down::pare_down;
        for n in [2usize, 5, 8] {
            let d = chain(n);
            let c = PartitionConstraints::default();
            let plain = pare_down(&d, &c);
            let multi = pare_down_multi(&d, &c, &BlockCatalog::paper_default());
            assert_eq!(
                multi.partitioning.partitions(),
                plain.partitions(),
                "n={n}: the single-type catalog must reproduce PareDown"
            );
        }
    }

    #[test]
    fn larger_blocks_unlock_wide_partitions() {
        let d = wide_design();
        let c = PartitionConstraints::default();
        // 2-in/2-out only: the OR-tree pattern is uncoverable.
        let paper = pare_down_multi(&d, &c, &BlockCatalog::paper_default());
        assert_eq!(paper.partitioning.num_partitions(), 0);
        // With a 4-in/4-out block in the catalog, all three gates merge.
        let tiered = pare_down_multi(&d, &c, &BlockCatalog::three_tier());
        assert_eq!(tiered.partitioning.num_partitions(), 1);
        assert_eq!(tiered.partitioning.covered(), 3);
        let (spec, _) = tiered.assignments[0];
        assert_eq!((spec.inputs, spec.outputs), (4, 4));
        // Cost improved over the pre-defined baseline.
        assert!(
            tiered.total_cost < MultiPartitioning::baseline_cost(&BlockCatalog::three_tier(), 3)
        );
    }

    #[test]
    fn cheapest_fitting_type_chosen() {
        // A 1-in/1-out chain pair should get the cheap small block, not the
        // big one.
        let d = chain(3);
        let multi = pare_down_multi(
            &d,
            &PartitionConstraints::default(),
            &BlockCatalog::three_tier(),
        );
        assert_eq!(multi.partitioning.num_partitions(), 1);
        let (spec, cost) = multi.assignments[0];
        assert_eq!((spec.inputs, spec.outputs), (1, 1));
        assert!((cost - 1.2).abs() < 1e-9);
        assert!((multi.total_cost - 1.2).abs() < 1e-9);
    }

    #[test]
    fn uneconomical_partitions_dissolved() {
        // A catalog where programmable blocks cost more than two
        // pre-defined blocks: never worth replacing a pair.
        let catalog = BlockCatalog {
            programmable: vec![(ProgrammableSpec::default(), 5.0)],
            predefined_cost: 1.0,
        };
        let d = chain(2);
        let multi = pare_down_multi(&d, &PartitionConstraints::default(), &catalog);
        assert_eq!(multi.partitioning.num_partitions(), 0);
        assert_eq!(multi.partitioning.uncovered().len(), 2);
        assert!((multi.total_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn big_partition_still_beats_expensive_block() {
        // The same expensive block IS worth it for a 10-block chain.
        let catalog = BlockCatalog {
            programmable: vec![(ProgrammableSpec::default(), 5.0)],
            predefined_cost: 1.0,
        };
        let d = chain(10);
        let multi = pare_down_multi(&d, &PartitionConstraints::default(), &catalog);
        assert_eq!(multi.partitioning.num_partitions(), 1);
        assert!((multi.total_cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn catalog_helpers() {
        let cat = BlockCatalog::three_tier();
        assert_eq!(cat.envelope(), ProgrammableSpec::new(4, 4));
        assert_eq!(
            cat.cheapest_fitting(2, 1)
                .map(|(s, _)| (s.inputs, s.outputs)),
            Some((2, 2))
        );
        assert_eq!(cat.cheapest_fitting(5, 1), None);
        let empty = BlockCatalog {
            programmable: vec![],
            predefined_cost: 1.0,
        };
        assert_eq!(empty.envelope(), ProgrammableSpec::new(0, 0));
        assert_eq!(empty.cheapest_fitting(0, 0), None);
    }

    #[test]
    fn non_nested_catalog_pares_until_an_entry_fits() {
        // s1 -> a1 -> a2 -> o1 and s2 -> b1 -> o2. All three blocks need
        // 2 in / 2 out: inside the envelope (4, 4) but in neither entry, so
        // the candidate must be pared (b1 goes), not dissolved whole.
        let mut d = Design::new("two-chains");
        let s1 = d.add_block("s1", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Motion);
        let a1 = d.add_block("a1", ComputeKind::Not);
        let a2 = d.add_block("a2", ComputeKind::Not);
        let b1 = d.add_block("b1", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s1, 0), (a1, 0)).unwrap();
        d.connect((a1, 0), (a2, 0)).unwrap();
        d.connect((a2, 0), (o1, 0)).unwrap();
        d.connect((s2, 0), (b1, 0)).unwrap();
        d.connect((b1, 0), (o2, 0)).unwrap();

        let wide_in = (ProgrammableSpec::new(4, 1), 1.2);
        let wide_out = (ProgrammableSpec::new(1, 4), 1.2);
        let c = PartitionConstraints::default();
        for programmable in [vec![wide_in], vec![wide_in, wide_out]] {
            let catalog = BlockCatalog {
                programmable,
                predefined_cost: 1.0,
            };
            let multi = pare_down_multi(&d, &c, &catalog);
            assert_eq!(multi.partitioning.partitions(), &[vec![a1, a2]]);
            assert_eq!(multi.partitioning.uncovered(), &[b1]);
            assert!(
                (multi.total_cost - 2.2).abs() < 1e-9,
                "{}",
                multi.total_cost
            );
        }
    }

    #[test]
    fn results_verify_under_envelope() {
        let d = wide_design();
        let c = PartitionConstraints::default();
        let catalog = BlockCatalog::three_tier();
        let multi = pare_down_multi(&d, &c, &catalog);
        let envelope = PartitionConstraints {
            spec: catalog.envelope(),
            ..c
        };
        multi.partitioning.verify(&d, &envelope).unwrap();
    }
}
