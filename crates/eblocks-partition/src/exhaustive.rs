//! Optimal exhaustive search (§4.1).
//!
//! Enumerates every assignment of inner blocks to partitions-or-uncovered,
//! with the paper's symmetry pruning ("all empty programmable blocks in a
//! combination are indistinguishable": a block may only open the *first*
//! unused partition). On top of that we add sound pruning that the paper did
//! not need at its scale:
//!
//! * **objective bound** — abandon a prefix whose already-committed cost
//!   cannot beat the incumbent (the incumbent is seeded with the PareDown
//!   result, so the search starts with a strong bound);
//! * **permanent-pin bound** — abandon a prefix as soon as a partition's
//!   *permanent* pin demand (signals from sensors or from blocks that can no
//!   longer join the partition) exceeds the budget. Plain partial-cost
//!   pruning would be unsound because adding a block can *reduce* a
//!   partition's pin demand (convergence), but permanent demand only grows;
//! * **singleton feasibility** — abandon a prefix whose single-member
//!   partitions outnumber the blocks still unassigned.
//!
//! An optional time limit makes the search usable inside sweeps; on expiry
//! the incumbent is returned with [`Partitioning::is_complete`] `== false`.

use crate::constraints::PartitionConstraints;
use crate::pare_down::pare_down;
use crate::result::Partitioning;
use eblocks_core::{BitSet, BlockId, Design, InnerIndex};
use std::time::{Duration, Instant};

/// Options for [`exhaustive`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveOptions {
    /// Abort after this much wall-clock time, returning the incumbent.
    pub time_limit: Option<Duration>,
    /// Skip seeding the incumbent with PareDown (used by benchmarks that
    /// want the raw search cost).
    pub no_seed: bool,
    /// Disable every pruning technique the paper did not have, keeping only
    /// the empty-partition symmetry pruning of §4.1. Exposes the paper's
    /// raw exponential runtime shape; results are identical (both modes are
    /// exact), only slower. Implies `no_seed`.
    pub paper_pruning_only: bool,
}

/// Runs the exhaustive search and returns an optimal partitioning (or the
/// best found before the time limit).
pub fn exhaustive(
    design: &Design,
    constraints: &PartitionConstraints,
    options: ExhaustiveOptions,
) -> Partitioning {
    let index = InnerIndex::new(design);
    let n = index.len();

    let mut search = Search {
        design,
        constraints,
        index: &index,
        n,
        assignment: vec![Unassigned; n],
        bins: Vec::new(),
        uncovered: 0,
        best: None,
        deadline: options.time_limit.map(|d| Instant::now() + d),
        timed_out: false,
        nodes: 0,
        paper_pruning_only: options.paper_pruning_only,
    };

    if !options.no_seed && !options.paper_pruning_only {
        let seed = pare_down(design, constraints);
        search.best = Some(Incumbent {
            objective: seed.objective(),
            partitions: seed.partitions().to_vec(),
            uncovered: seed.uncovered().to_vec(),
        });
    }

    search.dfs(0);

    let complete = !search.timed_out;
    match search.best {
        Some(best) => Partitioning::new(best.partitions, best.uncovered, "exhaustive", complete),
        None => Partitioning::new(Vec::new(), index.blocks().to_vec(), "exhaustive", complete),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Unassigned,
    Uncovered,
    Bin(usize),
}
use Slot::{Bin, Unassigned, Uncovered};

struct Incumbent {
    objective: (usize, usize),
    partitions: Vec<Vec<BlockId>>,
    uncovered: Vec<BlockId>,
}

struct Search<'a> {
    design: &'a Design,
    constraints: &'a PartitionConstraints,
    index: &'a InnerIndex,
    n: usize,
    assignment: Vec<Slot>,
    bins: Vec<BitSet>,
    uncovered: usize,
    best: Option<Incumbent>,
    deadline: Option<Instant>,
    timed_out: bool,
    nodes: u64,
    paper_pruning_only: bool,
}

impl Search<'_> {
    fn dfs(&mut self, i: usize) {
        if self.timed_out {
            return;
        }
        self.nodes += 1;
        if self.nodes.is_multiple_of(4096) {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.timed_out = true;
                    return;
                }
            }
        }

        let open_bins = self.bins.iter().filter(|b| !b.is_empty()).count();

        // Objective bound: uncovered count and open partitions only grow
        // along a branch, so `uncovered + open` bounds the final total from
        // below. Ties on total are broken by fewer uncovered blocks; reaching
        // total == bound requires every remaining block to join an existing
        // partition, which pins the final uncovered count to the current one.
        if !self.paper_pruning_only {
            if let Some(best) = &self.best {
                let lower_bound = self.uncovered + open_bins;
                let improves = lower_bound < best.objective.0
                    || (lower_bound == best.objective.0 && self.uncovered < best.objective.1);
                if !improves {
                    return;
                }
            }

            // Singleton feasibility: each 1-member partition needs a mate.
            let singletons = self.bins.iter().filter(|b| b.len() == 1).count();
            if singletons > self.n - i {
                return;
            }
        }

        if i == self.n {
            self.consider_leaf();
            return;
        }

        // Choice 1: leave block i uncovered.
        self.assignment[i] = Uncovered;
        self.uncovered += 1;
        self.dfs(i + 1);
        self.uncovered -= 1;

        // Choice 2: join each existing partition.
        for bin_idx in 0..self.bins.len() {
            self.assignment[i] = Bin(bin_idx);
            self.bins[bin_idx].insert(i);
            if self.paper_pruning_only || self.pins_fit(&self.bins[bin_idx], i + 1) {
                self.dfs(i + 1);
            }
            self.bins[bin_idx].remove(i);
        }

        // Choice 3: open one new partition (symmetry pruning: empty
        // partitions are indistinguishable, so only the first is tried; a
        // valid partition needs ≥ 2 blocks, so opening more than n/2 is
        // pointless).
        if self.bins.len() < self.n / 2 && i + 1 < self.n {
            let bin_idx = self.bins.len();
            let mut members = self.index.empty_set();
            members.insert(i);
            self.bins.push(members);
            self.assignment[i] = Bin(bin_idx);
            if self.paper_pruning_only || self.pins_fit(&self.bins[bin_idx], i + 1) {
                self.dfs(i + 1);
            }
            self.bins.pop();
        }

        self.assignment[i] = Unassigned;
    }

    /// Whether `bin`'s *permanent* pin demand fits the budget, given that
    /// only blocks with dense position `>= next` may still join it: a sound
    /// lower bound on its eventual demand. Signals to/from sensors,
    /// outputs, and already-assigned blocks (every inner block below
    /// `next`) are permanent, so at `next == n` this is the exact demand.
    /// Reads the index's wiring and stops as soon as a count passes the
    /// budget.
    fn pins_fit(&self, bin: &BitSet, next: usize) -> bool {
        let index = self.index;
        let spec = self.constraints.spec;
        let settled_outside = |end: Option<usize>| end.is_none_or(|p| p < next && !bin.contains(p));
        let (mut inputs, mut outputs) = (0, 0);
        for pos in bin.iter() {
            for (signal, _) in index.input_signals(pos) {
                // An entering signal counts once, at its first member sink.
                let first_sink = || {
                    !index
                        .sinks(signal)
                        .flatten()
                        .any(|p| p < pos && bin.contains(p))
                };
                if settled_outside(index.driver(signal)) && first_sink() {
                    inputs += 1;
                    if inputs > usize::from(spec.inputs) {
                        return false;
                    }
                }
            }
            for signal in index.driven_signals(pos) {
                if index.sinks(signal).any(settled_outside) {
                    outputs += 1;
                    if outputs > usize::from(spec.outputs) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn consider_leaf(&mut self) {
        let open: Vec<&BitSet> = self.bins.iter().filter(|b| !b.is_empty()).collect();
        for bin in &open {
            if bin.len() < 2
                || !self.pins_fit(bin, self.n)
                || !self
                    .constraints
                    .structure_fits(self.design, self.index, bin)
            {
                return;
            }
        }
        let objective = (self.uncovered + open.len(), self.uncovered);
        let better = match &self.best {
            None => true,
            Some(best) => objective < best.objective,
        };
        if better {
            let partitions = open.iter().map(|b| self.index.resolve(b)).collect();
            let uncovered = (0..self.n)
                .filter(|&p| self.assignment[p] == Uncovered)
                .map(|p| self.index.block(p))
                .collect();
            self.best = Some(Incumbent {
                objective,
                partitions,
                uncovered,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};

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

    /// Unpruned brute force over all assignments, as a correctness oracle.
    fn brute_force_objective(
        design: &Design,
        constraints: &PartitionConstraints,
    ) -> (usize, usize) {
        let index = InnerIndex::new(design);
        let n = index.len();
        assert!(n <= 7, "oracle is exponential");
        // Each block gets a label 0..=n (0 = uncovered, k = bin k).
        let mut best = (usize::MAX, usize::MAX);
        let mut labels = vec![0usize; n];
        loop {
            // Evaluate.
            let mut bins: Vec<BitSet> = (0..n).map(|_| index.empty_set()).collect();
            let mut uncovered = 0;
            for (pos, &label) in labels.iter().enumerate() {
                if label == 0 {
                    uncovered += 1;
                } else {
                    bins[label - 1].insert(pos);
                }
            }
            let open: Vec<&BitSet> = bins.iter().filter(|b| !b.is_empty()).collect();
            let valid = open
                .iter()
                .all(|b| b.len() >= 2 && constraints.fits(design, &index, b));
            if valid {
                best = best.min((uncovered + open.len(), uncovered));
            }
            // Increment odometer.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                labels[i] += 1;
                if labels[i] <= n {
                    break;
                }
                labels[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn matches_brute_force_on_chains() {
        for n in 1..=6 {
            let d = chain(n);
            let c = PartitionConstraints::default();
            let r = exhaustive(&d, &c, ExhaustiveOptions::default());
            r.verify(&d, &c).unwrap();
            assert!(r.is_complete());
            assert_eq!(r.objective(), brute_force_objective(&d, &c), "n={n}");
        }
    }

    #[test]
    fn matches_brute_force_on_branchy_design() {
        // s -> sp -> (a, b); a,b -> c; c -> o1; sp -> d -> o2.
        let mut d = Design::new("branchy");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let a = d.add_block("a", ComputeKind::Not);
        let b = d.add_block("b", ComputeKind::Toggle);
        let c = d.add_block("c", ComputeKind::and2());
        let e = d.add_block("e", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (a, 0)).unwrap();
        d.connect((sp, 1), (b, 0)).unwrap();
        d.connect((a, 0), (c, 0)).unwrap();
        d.connect((b, 0), (c, 1)).unwrap();
        d.connect((c, 0), (o1, 0)).unwrap();
        d.connect((c, 0), (e, 0)).unwrap();
        d.connect((e, 0), (o2, 0)).unwrap();

        let c9 = PartitionConstraints::default();
        let r = exhaustive(&d, &c9, ExhaustiveOptions::default());
        r.verify(&d, &c9).unwrap();
        assert_eq!(r.objective(), brute_force_objective(&d, &c9));
    }

    #[test]
    fn optimal_never_worse_than_pare_down() {
        use crate::pare_down::pare_down;
        for n in 1..=8 {
            let d = chain(n);
            let c = PartitionConstraints::default();
            let opt = exhaustive(&d, &c, ExhaustiveOptions::default());
            let heur = pare_down(&d, &c);
            assert!(
                opt.objective() <= heur.objective(),
                "n={n}: optimal {:?} vs heuristic {:?}",
                opt.objective(),
                heur.objective()
            );
        }
    }

    #[test]
    fn no_seed_gives_same_objective() {
        let d = chain(6);
        let c = PartitionConstraints::default();
        let seeded = exhaustive(&d, &c, ExhaustiveOptions::default());
        let raw = exhaustive(
            &d,
            &c,
            ExhaustiveOptions {
                no_seed: true,
                ..Default::default()
            },
        );
        assert_eq!(seeded.objective(), raw.objective());
    }

    #[test]
    fn time_limit_returns_incumbent() {
        let d = chain(30);
        let c = PartitionConstraints::default();
        let r = exhaustive(
            &d,
            &c,
            ExhaustiveOptions {
                time_limit: Some(Duration::from_millis(1)),
                ..Default::default()
            },
        );
        // Even when truncated, the result is valid (seeded incumbent).
        r.verify(&d, &c).unwrap();
    }

    #[test]
    fn empty_design_handled() {
        let mut d = Design::new("none");
        let s = d.add_block("s", SensorKind::Button);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (o, 0)).unwrap();
        let r = exhaustive(
            &d,
            &PartitionConstraints::default(),
            ExhaustiveOptions::default(),
        );
        assert_eq!(r.inner_total(), 0);
        assert!(r.is_complete());
    }
}

#[cfg(test)]
mod paper_mode_tests {
    use super::*;
    use crate::constraints::PartitionConstraints;
    use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};

    #[test]
    fn paper_pruning_mode_is_exact() {
        // Both modes must agree on the objective for a batch of shapes.
        for n in [2usize, 4, 6, 8] {
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

            let c = PartitionConstraints::default();
            let fast = exhaustive(&d, &c, ExhaustiveOptions::default());
            let slow = exhaustive(
                &d,
                &c,
                ExhaustiveOptions {
                    paper_pruning_only: true,
                    ..Default::default()
                },
            );
            assert!(slow.is_complete());
            assert_eq!(fast.objective(), slow.objective(), "n={n}");
        }
    }
}
