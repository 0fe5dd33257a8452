//! The outcome of a partitioning run, with self-verification.

use crate::constraints::PartitionConstraints;
use eblocks_core::{cut_cost, BlockId, Design, InnerIndex};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A set of disjoint partitions over a design's inner blocks, plus the inner
/// blocks left uncovered (they remain pre-defined blocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    partitions: Vec<Vec<BlockId>>,
    uncovered: Vec<BlockId>,
    algorithm: &'static str,
    complete: bool,
}

impl Partitioning {
    /// Assembles a result. Each partition's members are sorted; partitions
    /// are sorted by first member for deterministic comparison.
    pub fn new(
        mut partitions: Vec<Vec<BlockId>>,
        mut uncovered: Vec<BlockId>,
        algorithm: &'static str,
        complete: bool,
    ) -> Self {
        for p in &mut partitions {
            p.sort();
        }
        partitions.sort();
        uncovered.sort();
        Self {
            partitions,
            uncovered,
            algorithm,
            complete,
        }
    }

    /// The partitions (each to become one programmable block).
    pub fn partitions(&self) -> &[Vec<BlockId>] {
        &self.partitions
    }

    /// Inner blocks left as pre-defined blocks.
    pub fn uncovered(&self) -> &[BlockId] {
        &self.uncovered
    }

    /// Which algorithm produced this result.
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// `false` when an exhaustive search hit its deadline and returned a
    /// result it did not prove optimal; heuristics always report `true`.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Number of partitions — the paper's *Inner Blocks (Prog.)* column.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of inner blocks covered by partitions.
    pub fn covered(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Inner blocks after replacement — the paper's *Inner Blocks (Total)*
    /// column: uncovered pre-defined blocks plus one programmable block per
    /// partition.
    pub fn inner_total(&self) -> usize {
        self.uncovered.len() + self.partitions.len()
    }

    /// The paper's objective, ordered lexicographically: fewer total inner
    /// blocks first (§4: "the number of inner blocks after replacement is
    /// minimized"), then fewer *uncovered* blocks (§2: the optimal cover
    /// "covers the most number of blocks with the fewest number of
    /// partitions" — at equal totals, more coverage wins; Table 1's Podium
    /// Timer 3 row shows the paper's exhaustive search preferring 3
    /// partitions covering all 8 blocks over 2 partitions covering 7).
    pub fn objective(&self) -> (usize, usize) {
        (self.inner_total(), self.uncovered.len())
    }

    /// Verifies structural soundness against the design and constraints.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found: non-inner or duplicated
    /// members, a missing inner block, an undersized partition, or a
    /// partition violating the constraints.
    pub fn verify(
        &self,
        design: &Design,
        constraints: &PartitionConstraints,
    ) -> Result<(), VerifyError> {
        let index = InnerIndex::new(design);
        let mut seen: HashSet<BlockId> = HashSet::new();
        for (i, partition) in self.partitions.iter().enumerate() {
            if partition.len() < 2 {
                return Err(VerifyError::UndersizedPartition { index: i });
            }
            let mut members = index.empty_set();
            for &b in partition {
                let Some(pos) = index.position(b) else {
                    return Err(VerifyError::NotInner { block: b });
                };
                if !seen.insert(b) {
                    return Err(VerifyError::Overlap { block: b });
                }
                members.insert(pos);
            }
            if !constraints.fits(design, &index, &members) {
                let cost = cut_cost(design, &index, &members);
                return Err(VerifyError::Infeasible {
                    index: i,
                    inputs: cost.inputs,
                    outputs: cost.outputs,
                });
            }
        }
        for &b in &self.uncovered {
            if index.position(b).is_none() {
                return Err(VerifyError::NotInner { block: b });
            }
            if !seen.insert(b) {
                return Err(VerifyError::Overlap { block: b });
            }
        }
        if seen.len() != index.len() {
            let missing = index
                .blocks()
                .iter()
                .find(|b| !seen.contains(b))
                .copied()
                .expect("count mismatch implies a missing block");
            return Err(VerifyError::Unaccounted { block: missing });
        }
        Ok(())
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} partitions covering {} blocks, {} uncovered (total {})",
            self.algorithm,
            self.num_partitions(),
            self.covered(),
            self.uncovered.len(),
            self.inner_total()
        )
    }
}

/// Problems found by [`Partitioning::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A member is not an inner block of the design.
    NotInner {
        /// The offending block.
        block: BlockId,
    },
    /// A block appears in two partitions (or a partition and uncovered).
    Overlap {
        /// The offending block.
        block: BlockId,
    },
    /// A partition with fewer than two blocks.
    UndersizedPartition {
        /// Index of the partition.
        index: usize,
    },
    /// A partition violating the pin or structural constraints.
    Infeasible {
        /// Index of the partition.
        index: usize,
        /// Its input-pin demand.
        inputs: usize,
        /// Its output-pin demand.
        outputs: usize,
    },
    /// An inner block in neither a partition nor the uncovered list.
    Unaccounted {
        /// The missing block.
        block: BlockId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotInner { block } => write!(f, "block {block} is not an inner block"),
            Self::Overlap { block } => write!(f, "block {block} assigned twice"),
            Self::UndersizedPartition { index } => {
                write!(f, "partition {index} has fewer than two blocks")
            }
            Self::Infeasible {
                index,
                inputs,
                outputs,
            } => write!(
                f,
                "partition {index} needs {inputs} inputs / {outputs} outputs, exceeding the block"
            ),
            Self::Unaccounted { block } => {
                write!(f, "inner block {block} missing from the result")
            }
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};

    fn chain4() -> (Design, Vec<BlockId>) {
        let mut d = Design::new("c4");
        let s = d.add_block("s", SensorKind::Button);
        let mut inner = Vec::new();
        let mut prev = s;
        for i in 0..4 {
            let g = d.add_block(format!("g{i}"), ComputeKind::Not);
            d.connect((prev, 0), (g, 0)).unwrap();
            inner.push(g);
            prev = g;
        }
        let o = d.add_block("o", OutputKind::Led);
        d.connect((prev, 0), (o, 0)).unwrap();
        (d, inner)
    }

    #[test]
    fn metrics() {
        let (_, inner) = chain4();
        let p = Partitioning::new(
            vec![vec![inner[0], inner[1]], vec![inner[2], inner[3]]],
            vec![],
            "test",
            true,
        );
        assert_eq!(p.num_partitions(), 2);
        assert_eq!(p.covered(), 4);
        assert_eq!(p.inner_total(), 2);
        assert_eq!(p.objective(), (2, 0), "total 2, nothing uncovered");
        assert!(p.is_complete());
        assert!(p.to_string().contains("2 partitions"));
    }

    #[test]
    fn verify_accepts_valid() {
        let (d, inner) = chain4();
        let p = Partitioning::new(
            vec![vec![inner[0], inner[1]], vec![inner[2], inner[3]]],
            vec![],
            "test",
            true,
        );
        p.verify(&d, &PartitionConstraints::default()).unwrap();
    }

    #[test]
    fn verify_rejects_undersized() {
        let (d, inner) = chain4();
        let p = Partitioning::new(
            vec![vec![inner[0]]],
            vec![inner[1], inner[2], inner[3]],
            "test",
            true,
        );
        assert!(matches!(
            p.verify(&d, &PartitionConstraints::default()),
            Err(VerifyError::UndersizedPartition { .. })
        ));
    }

    #[test]
    fn verify_rejects_overlap_and_missing() {
        let (d, inner) = chain4();
        let p = Partitioning::new(
            vec![vec![inner[0], inner[1]]],
            vec![inner[1], inner[2], inner[3]],
            "test",
            true,
        );
        assert!(matches!(
            p.verify(&d, &PartitionConstraints::default()),
            Err(VerifyError::Overlap { .. })
        ));

        let p = Partitioning::new(vec![vec![inner[0], inner[1]]], vec![inner[2]], "test", true);
        assert!(matches!(
            p.verify(&d, &PartitionConstraints::default()),
            Err(VerifyError::Unaccounted { .. })
        ));
    }

    #[test]
    fn verify_rejects_non_inner() {
        let (d, inner) = chain4();
        let sensor = d.block_by_name("s").unwrap();
        let p = Partitioning::new(
            vec![vec![sensor, inner[0]]],
            vec![inner[1], inner[2], inner[3]],
            "test",
            true,
        );
        assert!(matches!(
            p.verify(&d, &PartitionConstraints::default()),
            Err(VerifyError::NotInner { .. })
        ));
    }

    #[test]
    fn verify_rejects_infeasible() {
        let (d, inner) = chain4();
        // All four in one partition: 1 input, 1 output — fits 2/2. Shrink the
        // budget to force infeasibility.
        let p = Partitioning::new(vec![inner.clone()], vec![], "test", true);
        p.verify(&d, &PartitionConstraints::default()).unwrap();
        let tight = PartitionConstraints::with_spec(eblocks_core::ProgrammableSpec::new(0, 0));
        assert!(matches!(
            p.verify(&d, &tight),
            Err(VerifyError::Infeasible { .. })
        ));
    }

    #[test]
    fn normalization_is_deterministic() {
        let (_, inner) = chain4();
        let a = Partitioning::new(
            vec![vec![inner[1], inner[0]], vec![inner[3], inner[2]]],
            vec![],
            "test",
            true,
        );
        let b = Partitioning::new(
            vec![vec![inner[2], inner[3]], vec![inner[0], inner[1]]],
            vec![],
            "test",
            true,
        );
        assert_eq!(a, b);
    }
}
