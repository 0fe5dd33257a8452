//! The PareDown decomposition heuristic (§4.2).
//!
//! PareDown begins by selecting *all* remaining inner blocks as a candidate
//! partition, then removes border blocks — lowest rank first — until the
//! candidate satisfies the programmable block's input/output constraints.
//! A fitting candidate with more than one block becomes a partition; the
//! algorithm repeats on the remaining blocks until none are left.
//!
//! Two corner cases of the paper's Fig. 4 pseudocode are resolved
//! explicitly. A fitting candidate ends the inner loop at once, since
//! paring it further could only shrink a partition that is already valid.
//! A lone block is never a partition (it saves nothing, §4): it is dropped
//! to "uncovered" whether it fits or not, which also keeps a block that
//! cannot fit even by itself from being re-pared forever.
//!
//! Each candidate is one [`CutState`], built in `O(n + s)` for `n` inner
//! blocks and `s` signals. A removal step scans the candidate's `m`
//! members once for the least [`RankKey`] among border blocks (the border
//! test is `O(1)`, a rank `O(degree)`) and then updates the state in
//! `O(degree)`: `O(m)` per step, with no hashing or allocation. A run makes
//! fewer than `n²/2` removal steps, so it is `O(n³)` in the worst case; the
//! generated designs of the `scaling` bin take about `n²/5` steps (44,444
//! at 465 inner blocks).

use crate::border::RankKey;
use crate::constraints::PartitionConstraints;
use crate::result::Partitioning;
use eblocks_core::{BlockId, CutCost, CutState, Design, InnerIndex};

/// One step in a PareDown run, for inspection and for reproducing the
/// paper's Fig. 5 walk-through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A fresh candidate partition was formed from all remaining blocks.
    CandidateStart {
        /// Members of the new candidate.
        members: Vec<BlockId>,
        /// Its pin demand.
        cost: CutCost,
    },
    /// A border block was removed from the candidate.
    Removed {
        /// The removed block.
        block: BlockId,
        /// Its rank (net cut-cost change of its removal).
        rank: i64,
        /// Pin demand of the candidate *after* removal.
        cost_after: CutCost,
    },
    /// The candidate fit and was accepted as a partition.
    Accepted {
        /// Members of the accepted partition.
        members: Vec<BlockId>,
        /// Its pin demand.
        cost: CutCost,
    },
    /// A lone block was skipped: it either fit (but single-block partitions
    /// are invalid, §4) or could not fit at all.
    SkippedSingle {
        /// The block left as a pre-defined block.
        block: BlockId,
        /// Whether it would have fit a programmable block by itself.
        fits: bool,
    },
}

/// Runs PareDown with the paper's default behavior.
///
/// See the [crate-level documentation](crate) for an example.
pub fn pare_down(design: &Design, constraints: &PartitionConstraints) -> Partitioning {
    pare_down_indexed(design, &InnerIndex::new(design), constraints)
}

/// [`pare_down`] over an index the caller already built for `design`.
pub(crate) fn pare_down_indexed(
    design: &Design,
    index: &InnerIndex,
    constraints: &PartitionConstraints,
) -> Partitioning {
    run(design, index, constraints, None, true)
}

/// Runs PareDown, also returning the step-by-step trace.
pub fn pare_down_traced(
    design: &Design,
    constraints: &PartitionConstraints,
) -> (Partitioning, Vec<TraceEvent>) {
    let mut trace = Vec::new();
    let index = InnerIndex::new(design);
    let result = run(design, &index, constraints, Some(&mut trace), true);
    (result, trace)
}

/// PareDown with the §4.2 tie-break criteria (greatest indegree, greatest
/// outdegree, highest level) disabled — rank ties are broken only by the
/// deterministic position fallback. Exists to measure how much the paper's
/// tie-break rules contribute (see the ablation experiment).
pub fn pare_down_no_tie_breaks(
    design: &Design,
    constraints: &PartitionConstraints,
) -> Partitioning {
    run(design, &InnerIndex::new(design), constraints, None, false)
}

fn run(
    design: &Design,
    index: &InnerIndex,
    constraints: &PartitionConstraints,
    mut trace: Option<&mut Vec<TraceEvent>>,
    tie_breaks: bool,
) -> Partitioning {
    let paring = Paring::new(design, index, constraints, tie_breaks);
    let mut remaining = index.full_set();
    let mut partitions: Vec<Vec<BlockId>> = Vec::new();
    let mut uncovered: Vec<BlockId> = Vec::new();

    while !remaining.is_empty() {
        let mut candidate = CutState::new(index, &remaining);
        if let Some(t) = trace.as_deref_mut() {
            t.push(TraceEvent::CandidateStart {
                members: index.resolve(candidate.members()),
                cost: candidate.cost(),
            });
        }
        let fits = paring.pare(
            &mut candidate,
            |cost| constraints.cost_fits(cost),
            trace.as_deref_mut(),
        );
        remaining.difference_with(candidate.members());
        let members = index.resolve(candidate.members());
        if let [block] = members[..] {
            // A lone block never forms a partition (no size reduction,
            // §4); whether it fits or not, it stays pre-defined.
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent::SkippedSingle { block, fits });
            }
            uncovered.push(block);
        } else {
            // Pared until it fit: record it and restart on the rest.
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent::Accepted {
                    members: members.clone(),
                    cost: candidate.cost(),
                });
            }
            partitions.push(members);
        }
    }

    Partitioning::new(partitions, uncovered, "pare-down", true)
}

/// The paring loop every PareDown variant runs, with the removal keys'
/// tie-break parts computed once for the run.
pub(crate) struct Paring<'a> {
    design: &'a Design,
    index: &'a InnerIndex,
    constraints: &'a PartitionConstraints,
    /// Each inner block's [`RankKey`] with `rank` left at 0.
    keys: Vec<RankKey>,
}

impl<'a> Paring<'a> {
    /// Paring over `index`'s blocks; the structural constraints come from
    /// `constraints`, the pin test from each [`Paring::pare`] call.
    pub(crate) fn new(
        design: &'a Design,
        index: &'a InnerIndex,
        constraints: &'a PartitionConstraints,
        tie_breaks: bool,
    ) -> Self {
        Self {
            design,
            index,
            constraints,
            keys: RankKey::unranked(design, index, tie_breaks),
        }
    }

    /// Removes border blocks from `candidate`, least [`RankKey`] first,
    /// until its pin demand passes `pins_fit` and it meets the structural
    /// constraints, or one block is left. Returns whether the final
    /// candidate fits.
    pub(crate) fn pare(
        &self,
        candidate: &mut CutState<'_>,
        pins_fit: impl Fn(CutCost) -> bool,
        mut trace: Option<&mut Vec<TraceEvent>>,
    ) -> bool {
        loop {
            let fits = pins_fit(candidate.cost())
                && self
                    .constraints
                    .structure_fits(self.design, self.index, candidate.members());
            if fits || candidate.members().len() == 1 {
                return fits;
            }
            let key = candidate
                .members()
                .iter()
                .filter(|&pos| candidate.is_border(pos))
                .map(|pos| RankKey {
                    rank: candidate.rank(pos),
                    ..self.keys[pos]
                })
                .min()
                .expect("a nonempty candidate always has a border block");
            candidate.remove(key.position);
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent::Removed {
                    block: self.index.block(key.position),
                    rank: key.rank,
                    cost_after: candidate.cost(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, Design, OutputKind, ProgrammableSpec, SensorKind};

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

    #[test]
    fn whole_chain_becomes_one_partition() {
        // A 1-in/1-out chain of any length fits a 2/2 block entirely.
        for n in [2, 5, 10] {
            let d = chain(n);
            let r = pare_down(&d, &PartitionConstraints::default());
            r.verify(&d, &PartitionConstraints::default()).unwrap();
            assert_eq!(r.num_partitions(), 1, "n={n}");
            assert_eq!(r.covered(), n);
            assert_eq!(r.inner_total(), 1);
        }
    }

    #[test]
    fn single_inner_block_stays_predefined() {
        let d = chain(1);
        let (r, trace) = pare_down_traced(&d, &PartitionConstraints::default());
        assert_eq!(r.num_partitions(), 0);
        assert_eq!(r.uncovered().len(), 1);
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::SkippedSingle { fits: true, .. })));
    }

    #[test]
    fn empty_design_yields_empty_result() {
        let mut d = Design::new("empty");
        let s = d.add_block("s", SensorKind::Button);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (o, 0)).unwrap();
        let r = pare_down(&d, &PartitionConstraints::default());
        assert_eq!(r.num_partitions(), 0);
        assert_eq!(r.inner_total(), 0);
    }

    #[test]
    fn unfittable_lone_block_dropped_not_looped() {
        // A 3-input gate cannot fit a 2-input programmable block even alone;
        // the run must terminate with it uncovered.
        let mut d = Design::new("three");
        let s1 = d.add_block("s1", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Motion);
        let s3 = d.add_block("s3", SensorKind::Sound);
        let g = d.add_block("g", ComputeKind::and3());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s1, 0), (g, 0)).unwrap();
        d.connect((s2, 0), (g, 1)).unwrap();
        d.connect((s3, 0), (g, 2)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let (r, trace) = pare_down_traced(&d, &PartitionConstraints::default());
        assert_eq!(r.num_partitions(), 0);
        assert_eq!(r.uncovered().len(), 1);
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::SkippedSingle { fits: false, .. })));
    }

    #[test]
    fn or_tree_with_distinct_sensors_has_no_partitions() {
        // Table 1's "Motion on Property Alert" shape: an OR tree of 2-input
        // gates over distinct sensors admits no valid 2-in/2-out partition.
        let mut d = Design::new("tree");
        let leaves: Vec<_> = (0..4)
            .map(|i| d.add_block(format!("s{i}"), SensorKind::Motion))
            .collect();
        let g0 = d.add_block("g0", ComputeKind::or2());
        let g1 = d.add_block("g1", ComputeKind::or2());
        let top = d.add_block("top", ComputeKind::or2());
        let o = d.add_block("o", OutputKind::Buzzer);
        d.connect((leaves[0], 0), (g0, 0)).unwrap();
        d.connect((leaves[1], 0), (g0, 1)).unwrap();
        d.connect((leaves[2], 0), (g1, 0)).unwrap();
        d.connect((leaves[3], 0), (g1, 1)).unwrap();
        d.connect((g0, 0), (top, 0)).unwrap();
        d.connect((g1, 0), (top, 1)).unwrap();
        d.connect((top, 0), (o, 0)).unwrap();
        let r = pare_down(&d, &PartitionConstraints::default());
        assert_eq!(r.num_partitions(), 0);
        assert_eq!(r.inner_total(), 3);
    }

    #[test]
    fn result_always_verifies() {
        // PareDown output must satisfy its own constraints on a batch of
        // structured designs.
        for n in 1..12 {
            let d = chain(n);
            for spec in [
                ProgrammableSpec::new(1, 1),
                ProgrammableSpec::new(2, 2),
                ProgrammableSpec::new(4, 4),
            ] {
                let c = PartitionConstraints::with_spec(spec);
                pare_down(&d, &c).verify(&d, &c).unwrap();
            }
        }
    }

    #[test]
    fn trace_starts_with_full_candidate() {
        let d = chain(4);
        let (_, trace) = pare_down_traced(&d, &PartitionConstraints::default());
        let TraceEvent::CandidateStart { members, cost } = &trace[0] else {
            panic!("first event must be CandidateStart, got {:?}", trace[0]);
        };
        assert_eq!(members.len(), 4);
        assert_eq!((cost.inputs, cost.outputs), (1, 1));
        assert!(matches!(trace[1], TraceEvent::Accepted { .. }));
    }

    #[test]
    fn convex_constraint_respected() {
        // With require_convex the result must still verify.
        let d = chain(6);
        let c = PartitionConstraints {
            require_convex: true,
            ..Default::default()
        };
        pare_down(&d, &c).verify(&d, &c).unwrap();
    }
}

#[cfg(test)]
mod tie_break_tests {
    use super::*;
    use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};

    #[test]
    fn no_tie_break_variant_still_verifies() {
        let mut d = Design::new("t");
        let s = d.add_block("s", SensorKind::Button);
        let mut prev = s;
        for i in 0..9 {
            let g = d.add_block(format!("g{i}"), ComputeKind::Not);
            d.connect((prev, 0), (g, 0)).unwrap();
            prev = g;
        }
        let o = d.add_block("o", OutputKind::Led);
        d.connect((prev, 0), (o, 0)).unwrap();
        let c = PartitionConstraints::default();
        let r = pare_down_no_tie_breaks(&d, &c);
        r.verify(&d, &c).unwrap();
        assert_eq!(r.inner_total(), 1, "chain still collapses");
    }
}
