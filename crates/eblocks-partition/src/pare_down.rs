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
//! blocks and `s` signals, beside one array of removal keys: each border
//! member's [`RankKey`] packed into one integer that orders the same way,
//! ranked once per candidate. A removal step takes the least key in one
//! pass over the `n` integers, updates the state in `O(degree)`, and
//! re-ranks only the blocks that share a signal with the removed one,
//! since no other block's rank or border test can change: `O(n)` per step
//! in a scan of plain integers, with no hashing or allocation, where
//! ranking every border member each step cost `O(m · degree)` for `m`
//! members. A run makes fewer than `n²/2` removal steps, so it is `O(n³)`
//! in the worst case; the generated designs of the `scaling` bin take
//! about `n²/5` steps (44,444 at 465 inner blocks, in 11–14 ms on a
//! shared 2-core x86-64 container).

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
    let mut paring = Paring::new(design, index, constraints, tie_breaks);
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

/// A [`RankKey`] packed into one integer that orders as the key does. The
/// high [`RANK_BITS`] hold the rank plus [`RANK_OFFSET`], so a lower rank
/// is a lower key. The low [`TIE_BITS`] hold the block's *tie order*: its
/// place among all inner blocks in `RankKey` order with the ranks left out,
/// so it orders the remaining fields, position last, and is unique per
/// block.
type PackedKey = u64;

/// Width of a packed key's tie order. Tie orders are below the number of
/// inner blocks, which [`Paring::new`] asserts fits.
const TIE_BITS: u32 = 32;
/// Width of a packed key's rank. A rank is at most a block's distinct input
/// signals plus its output ports in magnitude, so at most 510 with `u8`
/// port numbers; [`pack`] asserts it fits.
const RANK_BITS: u32 = 32;
/// Added to a rank so that ranks order as their unsigned field.
const RANK_OFFSET: i64 = 1 << (RANK_BITS - 1);
const _: () = assert!(RANK_BITS + TIE_BITS == PackedKey::BITS);

/// The entry of a block that cannot be removed next: a member that is not
/// a border block, or no member at all. No packed key reaches it, since its
/// rank field would be `2³¹ - 1`.
const NOT_REMOVABLE: PackedKey = PackedKey::MAX;

fn pack(rank: i64, tie: u32) -> PackedKey {
    assert!(
        (-RANK_OFFSET..RANK_OFFSET - 1).contains(&rank),
        "rank {rank} does not fit {RANK_BITS} bits"
    );
    ((rank + RANK_OFFSET) as u64) << TIE_BITS | u64::from(tie)
}

fn unpack_rank(key: PackedKey) -> i64 {
    (key >> TIE_BITS) as i64 - RANK_OFFSET
}

fn unpack_tie(key: PackedKey) -> usize {
    (key & ((1 << TIE_BITS) - 1)) as usize
}

/// The least of `keys`, or [`NOT_REMOVABLE`] if there are none. Four
/// running minimums let the comparisons overlap, where one would wait on
/// each compare before the next: about three times as fast at 465 blocks.
fn least(keys: &[PackedKey]) -> PackedKey {
    let mut lanes = [NOT_REMOVABLE; 4];
    let mut chunks = keys.chunks_exact(lanes.len());
    for chunk in &mut chunks {
        for (lane, &key) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).min(key);
        }
    }
    lanes
        .into_iter()
        .chain(chunks.remainder().iter().copied())
        .min()
        .unwrap_or(NOT_REMOVABLE)
}

/// Each block's tie order (see [`PackedKey`]) for `unranked` keys, indexed
/// like them, and the index holding each tie order.
fn tie_orders(unranked: &[RankKey]) -> (Vec<u32>, Vec<usize>) {
    let mut by_tie: Vec<usize> = (0..unranked.len()).collect();
    by_tie.sort_unstable_by_key(|&i| unranked[i]);
    let mut ties = vec![0; unranked.len()];
    for (tie, &i) in by_tie.iter().enumerate() {
        ties[i] = tie as u32;
    }
    (ties, by_tie)
}

/// The paring loop every PareDown variant runs, with the removal keys'
/// tie-break parts computed once for the run.
pub(crate) struct Paring<'a> {
    design: &'a Design,
    index: &'a InnerIndex,
    constraints: &'a PartitionConstraints,
    /// Each inner block's tie order (see [`PackedKey`]).
    ties: Vec<u32>,
    /// The position holding each tie order.
    by_tie: Vec<usize>,
    /// Each position's packed removal key while it is a border block of
    /// the candidate being pared, else [`NOT_REMOVABLE`].
    keys: Vec<PackedKey>,
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
        assert!(
            u32::try_from(index.len()).is_ok(),
            "{} inner blocks overflow a key's {TIE_BITS}-bit tie order",
            index.len()
        );
        let (ties, by_tie) = tie_orders(&RankKey::unranked(design, index, tie_breaks));
        Self {
            design,
            index,
            constraints,
            ties,
            by_tie,
            keys: vec![NOT_REMOVABLE; index.len()],
        }
    }

    /// Removes border blocks from `candidate`, least [`RankKey`] first,
    /// until its pin demand passes `pins_fit` and it meets the structural
    /// constraints, or one block is left. Returns whether the final
    /// candidate fits.
    pub(crate) fn pare(
        &mut self,
        candidate: &mut CutState<'_>,
        pins_fit: impl Fn(CutCost) -> bool,
        mut trace: Option<&mut Vec<TraceEvent>>,
    ) -> bool {
        self.keys.fill(NOT_REMOVABLE);
        for pos in candidate.members().iter() {
            self.keys[pos] = self.key(candidate, pos);
        }
        loop {
            let fits = pins_fit(candidate.cost())
                && self
                    .constraints
                    .structure_fits(self.design, self.index, candidate.members());
            if fits || candidate.members().len() == 1 {
                return fits;
            }
            let key = least(&self.keys);
            assert_ne!(
                key, NOT_REMOVABLE,
                "a nonempty candidate always has a border block"
            );
            let removed = self.by_tie[unpack_tie(key)];
            candidate.remove(removed);
            self.keys[removed] = NOT_REMOVABLE;
            self.rekey_neighbours(candidate, removed);
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent::Removed {
                    block: self.index.block(removed),
                    rank: unpack_rank(key),
                    cost_after: candidate.cost(),
                });
            }
        }
    }

    /// The packed removal key of member `pos`.
    fn key(&self, candidate: &CutState<'_>, pos: usize) -> PackedKey {
        if candidate.is_border(pos) {
            pack(candidate.rank(pos), self.ties[pos])
        } else {
            NOT_REMOVABLE
        }
    }

    /// Recomputes the keys of the members that share a signal with the
    /// block just `removed`: the drivers and other sinks of its input
    /// signals, and the sinks of its own. Removing a block changes the
    /// counts of its input signals, its drivers' member outputs and its
    /// sinks' member inputs and drivers, and no other block's rank or
    /// border test reads those.
    fn rekey_neighbours(&mut self, candidate: &CutState<'_>, removed: usize) {
        let index = self.index;
        let inputs = index.input_signals(removed).flat_map(|(signal, _)| {
            index
                .driver(signal)
                .into_iter()
                .chain(index.sinks(signal).flatten())
        });
        let outputs = index
            .driven_signals(removed)
            .flat_map(|signal| index.sinks(signal).flatten());
        for pos in inputs.chain(outputs) {
            if candidate.members().contains(pos) {
                self.keys[pos] = self.key(candidate, pos);
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

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::multi::BlockCatalog;
    use eblocks_gen::{generate, GeneratorConfig};
    use std::cmp::Reverse;

    /// The paring loop before removal keys were cached, as a reference:
    /// each step scans the candidate's members for the least [`RankKey`]
    /// among its border blocks, every rank computed afresh.
    fn reference_pare(
        design: &Design,
        index: &InnerIndex,
        constraints: &PartitionConstraints,
        unranked: &[RankKey],
        candidate: &mut CutState<'_>,
        pins_fit: &dyn Fn(CutCost) -> bool,
        trace: &mut Vec<TraceEvent>,
    ) -> bool {
        loop {
            let fits = pins_fit(candidate.cost())
                && constraints.structure_fits(design, index, candidate.members());
            if fits || candidate.members().len() == 1 {
                return fits;
            }
            let key = candidate
                .members()
                .iter()
                .filter(|&pos| candidate.is_border(pos))
                .map(|pos| RankKey {
                    rank: candidate.rank(pos),
                    ..unranked[pos]
                })
                .min()
                .expect("a nonempty candidate always has a border block");
            candidate.remove(key.position);
            trace.push(TraceEvent::Removed {
                block: index.block(key.position),
                rank: key.rank,
                cost_after: candidate.cost(),
            });
        }
    }

    /// The trace of a whole PareDown run whose candidates `pare` pares,
    /// with [`run`]'s events.
    fn decompose(
        index: &InnerIndex,
        mut pare: impl FnMut(&mut CutState<'_>, &mut Vec<TraceEvent>) -> bool,
    ) -> Vec<TraceEvent> {
        let mut trace = Vec::new();
        let mut remaining = index.full_set();
        while !remaining.is_empty() {
            let mut candidate = CutState::new(index, &remaining);
            trace.push(TraceEvent::CandidateStart {
                members: index.resolve(candidate.members()),
                cost: candidate.cost(),
            });
            let fits = pare(&mut candidate, &mut trace);
            remaining.difference_with(candidate.members());
            let members = index.resolve(candidate.members());
            trace.push(match members[..] {
                [block] => TraceEvent::SkippedSingle { block, fits },
                _ => TraceEvent::Accepted {
                    members,
                    cost: candidate.cost(),
                },
            });
        }
        trace
    }

    /// A run of the reference loop.
    fn reference_trace(
        design: &Design,
        constraints: &PartitionConstraints,
        tie_breaks: bool,
        pins_fit: &dyn Fn(CutCost) -> bool,
    ) -> Vec<TraceEvent> {
        let index = InnerIndex::new(design);
        let unranked = RankKey::unranked(design, &index, tie_breaks);
        decompose(&index, |candidate, trace| {
            reference_pare(
                design,
                &index,
                constraints,
                &unranked,
                candidate,
                pins_fit,
                trace,
            )
        })
    }

    /// Every PareDown variant's trace matches the reference loop's, event
    /// for event, on `design`.
    fn assert_matches_reference(label: &str, design: &Design) {
        let plain = PartitionConstraints::default();
        for constraints in [
            plain,
            PartitionConstraints {
                require_convex: true,
                ..plain
            },
            PartitionConstraints {
                require_connected: true,
                ..plain
            },
        ] {
            let pins_fit = |cost| constraints.cost_fits(cost);
            assert!(
                pare_down_traced(design, &constraints).1
                    == reference_trace(design, &constraints, true, &pins_fit),
                "{label}: pare_down_traced under {constraints:?}"
            );
        }

        let index = InnerIndex::new(design);
        let mut untied = Vec::new();
        run(design, &index, &plain, Some(&mut untied), false);
        let pins_fit = |cost| plain.cost_fits(cost);
        assert!(
            untied == reference_trace(design, &plain, false, &pins_fit),
            "{label}: without tie-breaks"
        );

        // `pare_down_multi`'s paring, under the catalog's pin test.
        let catalog = BlockCatalog::three_tier();
        let pins_fit = |cost: CutCost| {
            catalog
                .cheapest_fitting(cost.inputs, cost.outputs)
                .is_some()
        };
        let mut paring = Paring::new(design, &index, &plain, true);
        let multi = decompose(&index, |candidate, trace| {
            paring.pare(candidate, pins_fit, Some(trace))
        });
        assert!(
            multi == reference_trace(design, &plain, true, &pins_fit),
            "{label}: three-tier catalog"
        );
    }

    #[test]
    fn paring_matches_the_reference_scan_on_generated_designs() {
        for inner in (1..=30).chain((35..=100).step_by(5)) {
            for seed in [inner as u64, 31_000 + inner as u64] {
                let design = generate(&GeneratorConfig::new(inner), seed);
                assert_matches_reference(&format!("n{inner}-s{seed}"), &design);
            }
        }
    }

    #[test]
    fn paring_matches_the_reference_scan_at_465_blocks() {
        // The `scaling` bin's largest design: about 44,000 removal steps.
        let design = generate(&GeneratorConfig::new(465), 4242 + 465);
        assert_matches_reference("n465-s4707", &design);
    }

    #[test]
    fn packed_keys_order_as_rank_keys() {
        // Every field at its edges: the ranks an inner block can reach
        // (three inputs, two outputs), and the largest position, level,
        // indegree and outdegree a key can hold.
        let mut unranked = Vec::new();
        for indegree in [0, 1, usize::MAX] {
            for outdegree in [0, 1, usize::MAX] {
                for level in [0, 1, usize::MAX] {
                    for position in [0, u32::MAX as usize - 1] {
                        unranked.push(RankKey {
                            rank: 0,
                            indegree: Reverse(indegree),
                            outdegree: Reverse(outdegree),
                            level: Reverse(level),
                            position,
                        });
                    }
                }
            }
        }
        let (ties, by_tie) = tie_orders(&unranked);
        let mut keys = Vec::new();
        for (i, &key) in unranked.iter().enumerate() {
            for rank in [-5, -1, 0, 1, 5] {
                let packed = pack(rank, ties[i]);
                assert_eq!(unpack_rank(packed), rank);
                assert_eq!(by_tie[unpack_tie(packed)], i);
                assert!(packed < NOT_REMOVABLE);
                keys.push((RankKey { rank, ..key }, packed));
            }
        }
        for (a, packed_a) in &keys {
            for (b, packed_b) in &keys {
                assert_eq!(packed_a.cmp(packed_b), a.cmp(b), "{a:?} against {b:?}");
            }
        }
    }

    #[test]
    fn packing_takes_every_rank_a_block_can_have() {
        // A rank is bounded by a block's input signals plus its output
        // ports, at most 255 each.
        for rank in [-510, 510] {
            assert_eq!(unpack_rank(pack(rank, u32::MAX)), rank);
        }
    }
}
