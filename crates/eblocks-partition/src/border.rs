//! Border blocks and the PareDown rank (§4.2).
//!
//! "We define a border block as a block in which every output or every input
//! connects to a block outside of the candidate partition. The block's rank
//! is defined as the net increase or decrease in the combined indegree and
//! outdegree of a candidate partition if that block is removed."
//!
//! Both are read off an [`eblocks_core::CutState`], which keeps the counts
//! they need over the dense wiring `InnerIndex::new` builds once per design;
//! neither query hashes. The functions here build a fresh state per call,
//! for one-off queries; PareDown keeps one state per candidate instead.

use eblocks_core::{levels, BitSet, CutState, Design, InnerIndex};
use std::cmp::Reverse;

/// Dense positions (per the [`InnerIndex`]) of the border blocks of
/// `members`: blocks whose inputs all come from outside the set, or whose
/// outputs all go outside the set.
///
/// A nonempty candidate always has at least one border block (the
/// topologically first member has no member predecessors).
pub fn border_blocks(index: &InnerIndex, members: &BitSet) -> Vec<usize> {
    let cut = CutState::new(index, members);
    members.iter().filter(|&pos| cut.is_border(pos)).collect()
}

/// The rank of member `pos` within `members`: the exact change in
/// `inputs + outputs` of the candidate partition if the block were removed.
pub fn rank_of(index: &InnerIndex, members: &BitSet, pos: usize) -> i64 {
    CutState::new(index, members).rank(pos)
}

/// The full removal-priority key for a border block: least rank first, ties
/// broken by greatest indegree, then greatest outdegree, then highest level,
/// and finally lowest dense position (a deterministic fallback the paper
/// leaves unspecified).
///
/// The block to remove is the one with the **minimum** `RankKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RankKey {
    /// Net cut-cost change on removal (lower = remove first).
    pub rank: i64,
    /// Negated indegree (greater indegree = remove first).
    pub indegree: Reverse<usize>,
    /// Negated outdegree (greater outdegree = remove first).
    pub outdegree: Reverse<usize>,
    /// Negated level (higher level = remove first).
    pub level: Reverse<usize>,
    /// Dense position, as a deterministic final tie-break.
    pub position: usize,
}

impl RankKey {
    /// Every inner block's key with `rank` left at 0: the parts that do not
    /// change while a candidate is pared, computed once per run. With
    /// `tie_breaks` off, the paper's §4.2 criteria are zeroed so rank ties
    /// fall straight through to the position order (the tie-break
    /// ablation).
    pub(crate) fn unranked(design: &Design, index: &InnerIndex, tie_breaks: bool) -> Vec<RankKey> {
        let untied = |position| RankKey {
            rank: 0,
            indegree: Reverse(0),
            outdegree: Reverse(0),
            level: Reverse(0),
            position,
        };
        if !tie_breaks {
            return (0..index.len()).map(untied).collect();
        }
        let level = levels(design);
        index
            .blocks()
            .iter()
            .enumerate()
            .map(|(position, &block)| RankKey {
                indegree: Reverse(design.indegree(block)),
                outdegree: Reverse(design.outdegree(block)),
                level: Reverse(level[block.index()]),
                ..untied(position)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{cut_cost, ComputeKind, OutputKind, SensorKind};

    /// Reference implementation: full recomputation.
    fn rank_by_recompute(index: &InnerIndex, members: &BitSet, pos: usize) -> i64 {
        let before = cut_cost(index, members).total() as i64;
        let mut without = members.clone();
        without.remove(pos);
        let after = cut_cost(index, &without).total() as i64;
        after - before
    }

    fn diamond() -> (Design, InnerIndex) {
        // s -> sp -> (a, b) -> c -> o, plus sp -> c is absent; classic diamond.
        let mut d = Design::new("diamond");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let a = d.add_block("a", ComputeKind::Not);
        let b = d.add_block("b", ComputeKind::Toggle);
        let c = d.add_block("c", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (a, 0)).unwrap();
        d.connect((sp, 1), (b, 0)).unwrap();
        d.connect((a, 0), (c, 0)).unwrap();
        d.connect((b, 0), (c, 1)).unwrap();
        d.connect((c, 0), (o, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        (d, idx)
    }

    #[test]
    fn border_blocks_of_full_set() {
        let (d, idx) = diamond();
        let full = idx.full_set();
        let borders: Vec<&str> = border_blocks(&idx, &full)
            .into_iter()
            .map(|p| d.block(idx.block(p)).unwrap().name().to_string())
            .map(|s| Box::leak(s.into_boxed_str()) as &str)
            .collect();
        // sp: all inputs outside (sensor). c: all outputs outside (LED).
        // a, b: inputs and outputs both inside.
        assert_eq!(borders, vec!["sp", "c"]);
    }

    #[test]
    fn every_nonempty_set_has_a_border_block() {
        let (_, idx) = diamond();
        // Check all non-empty subsets of the 4 inner blocks.
        for mask in 1u32..16 {
            let mut set = idx.empty_set();
            for i in 0..4 {
                if (mask >> i) & 1 == 1 {
                    set.insert(i);
                }
            }
            assert!(
                !border_blocks(&idx, &set).is_empty(),
                "mask {mask:04b} has no border block"
            );
        }
    }

    #[test]
    fn rank_matches_full_recompute_exhaustively() {
        let (_, idx) = diamond();
        for mask in 1u32..16 {
            let mut set = idx.empty_set();
            for i in 0..4 {
                if (mask >> i) & 1 == 1 {
                    set.insert(i);
                }
            }
            for pos in set.iter() {
                assert_eq!(
                    rank_of(&idx, &set, pos),
                    rank_by_recompute(&idx, &set, pos),
                    "mask {mask:04b} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn rank_key_ordering_prefers_low_rank_then_high_degree() {
        let a = RankKey {
            rank: 0,
            indegree: Reverse(1),
            outdegree: Reverse(1),
            level: Reverse(3),
            position: 0,
        };
        let b = RankKey { rank: 1, ..a };
        assert!(a < b, "lower rank removed first");
        let c = RankKey {
            indegree: Reverse(2),
            ..a
        };
        assert!(c < a, "greater indegree removed first at equal rank");
        let e = RankKey {
            outdegree: Reverse(2),
            ..a
        };
        assert!(e < a, "greater outdegree removed first");
        let f = RankKey {
            level: Reverse(4),
            ..a
        };
        assert!(f < a, "higher level removed first");
    }

    #[test]
    fn fanout_port_rank_counts_signals_not_wires() {
        // g's single output port drives two outside sinks; removing g's
        // downstream partner must not double-count the port.
        let mut d = Design::new("fan");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::Not);
        let h = d.add_block("h", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (h, 0)).unwrap();
        d.connect((g, 0), (o1, 0)).unwrap();
        d.connect((h, 0), (o2, 0)).unwrap();
        let idx = InnerIndex::new(&d);
        let full = idx.full_set();
        for pos in full.iter() {
            assert_eq!(
                rank_of(&idx, &full, pos),
                rank_by_recompute(&idx, &full, pos)
            );
        }
    }
}
