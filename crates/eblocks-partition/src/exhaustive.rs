//! Optimal partitioning (§4.1), solved as a min-cost cover over the sets of
//! blocks that fit a programmable block.
//!
//! Whether a set of inner blocks can become one programmable block depends
//! only on that set ([`PartitionConstraints::fits`]), and a small pin budget
//! admits few such sets. Call a set of two or more blocks that fits a
//! *candidate set*: Timed Passage, the largest Table 1 design, has 23 inner
//! blocks, 8.4M subsets and 161 candidate sets under 2-in/2-out. A
//! partitioning is a choice of disjoint candidate sets, and its cost is
//! [`Partitioning::objective`]: one inner block per chosen set plus one per
//! block left uncovered, then fewer uncovered blocks. [`exhaustive`] finds an
//! optimal one in two steps.
//!
//! **Candidate sets, exactly.** [`candidate_sets`] decides the blocks in
//! position order, each in or out of the set, and abandons a branch once the
//! set's *permanent* pin demand passes the budget: the signals that cross
//! its boundary however the undecided blocks go, because their other end is
//! a sensor, an output, or a decided block outside the set. Deciding a block
//! never removes a permanent crossing, so this bound only grows along a
//! branch and the pruning drops no fitting set. Growing sets through fitting
//! subsets only would miss some: adding a block can *lower* a set's demand,
//! when it absorbs signals that crossed the boundary.
//!
//! **Cover.** The search memoizes on the set `R` of blocks not yet decided
//! and branches on the lowest block `i` of `R`: leave `i` uncovered, or give
//! it a candidate set whose lowest member is `i` and which lies inside `R`.
//! There is no bound against an incumbent, so a memo entry depends on its
//! state alone.
//!
//! **Which optimum.** Among partitionings of equal objective the result is
//! fixed. It is PareDown's when that is optimal. Otherwise it is the one with
//! the least *labeling*: each block, in position order, is labeled uncovered
//! (least) or with its partition's number, partitions numbered by their
//! lowest member. The order of two labelings that agree outside `R` depends
//! only on the labels of `R`'s blocks, so the least optimal labeling of `R`
//! is the least choice for `i` followed by the least labeling of what
//! remains. The search therefore settles ties state by state: uncovered beats
//! any set, and of two sets the one whose labeling of `R` is less wins.
//!
//! **Deadline.** With [`ExhaustiveOptions::time_limit`] both steps read the
//! clock every 1,024 steps. Once it has passed, the search returns
//! PareDown's partitioning with [`Partitioning::is_complete`] `== false`.
//!
//! **Cost.** Time and memory grow with the candidate sets and the memo's
//! states, so the pin budget sets the reach. A state costs one allocation,
//! the memo's copy of its undecided set: the search changes one set in
//! place and restores it after each branch, and hashes memo keys with a
//! multiply-rotate hash over their words. Under 2-in/2-out, in release
//! builds on a shared 2-core x86-64 container: Timed Passage (161
//! candidate sets) solves in about 3 ms; the generated designs of seeds
//! 31,000–31,019 at 20 inner blocks (about 100 sets) in 3–4 ms on average
//! and 24–37 ms at worst, and at 25 blocks (about 115 sets) in 10–14 ms on
//! average and 40–54 ms at worst. Under 3-in/3-out, Timed Passage has
//! 1,064 candidate sets and takes about 1.3 s, and the first three of
//! those 25-block designs have 900–1,400 and take 5–12 s.
//!
//! [`ExhaustiveOptions::paper_pruning_only`] runs the paper's own search
//! instead, which is exponential in the number of blocks: the `scaling`
//! bench bin shows the paper's runtime shape with it, and tests use it as an
//! independent oracle.

use crate::constraints::PartitionConstraints;
use crate::pare_down::pare_down_indexed;
use crate::result::Partitioning;
use eblocks_core::{BitSet, CutCost, Design, InnerIndex};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

/// Options for [`exhaustive`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveOptions {
    /// Stop after this much wall-clock time and return PareDown's
    /// partitioning, marked incomplete.
    pub time_limit: Option<Duration>,
    /// Run the paper's §4.1 search instead: every assignment of blocks to
    /// partitions or to uncovered, with only the paper's symmetry pruning
    /// (empty partitions are indistinguishable, so a block may open only
    /// the first unused one). It reaches the same objective, possibly with
    /// another partitioning of that objective, in time exponential in the
    /// number of blocks; on expiry it returns the best it found.
    pub paper_pruning_only: bool,
}

/// Returns an optimal partitioning, or PareDown's if the time limit passes
/// first.
pub fn exhaustive(
    design: &Design,
    constraints: &PartitionConstraints,
    options: ExhaustiveOptions,
) -> Partitioning {
    let index = InnerIndex::new(design);
    let mut deadline = Deadline::after(options.time_limit);
    if options.paper_pruning_only {
        return paper_search(design, constraints, &index, deadline);
    }
    let seed = pare_down_indexed(design, &index, constraints);
    let optimum = enumerate(design, &index, constraints, &mut deadline)
        .and_then(|candidates| Cover::new(&index, &candidates, &mut deadline).solve());
    match optimum {
        Some(best) if best.objective() < seed.objective() => best,
        finished => Partitioning::new(
            seed.partitions().to_vec(),
            seed.uncovered().to_vec(),
            "exhaustive",
            finished.is_some(),
        ),
    }
}

/// Every set of two or more of `index`'s blocks that fits `constraints`: the
/// sets an optimal partitioning chooses from. Sets come in order of their
/// lowest member.
pub fn candidate_sets(
    design: &Design,
    index: &InnerIndex,
    constraints: &PartitionConstraints,
) -> Vec<BitSet> {
    enumerate(design, index, constraints, &mut Deadline::after(None))
        .expect("a search without a deadline finishes")
}

/// Search steps between two reads of the clock.
const POLL_EVERY: u32 = 1024;

/// An optional wall-clock deadline, read every [`POLL_EVERY`] steps.
struct Deadline {
    at: Option<Instant>,
    steps: u32,
    expired: bool,
}

impl Deadline {
    fn after(limit: Option<Duration>) -> Self {
        Self {
            at: limit.and_then(|d| Instant::now().checked_add(d)),
            steps: 0,
            expired: false,
        }
    }

    /// Counts one step; whether the deadline had passed at the last read.
    fn poll(&mut self) -> bool {
        if let (Some(at), false) = (self.at, self.expired) {
            self.steps = self.steps.wrapping_add(1);
            self.expired = self.steps.is_multiple_of(POLL_EVERY) && Instant::now() >= at;
        }
        self.expired
    }
}

/// [`candidate_sets`], or `None` once the deadline passes.
fn enumerate(
    design: &Design,
    index: &InnerIndex,
    constraints: &PartitionConstraints,
    deadline: &mut Deadline,
) -> Option<Vec<BitSet>> {
    let mut enumeration = Enumeration {
        design,
        index,
        constraints,
        deadline,
        set: index.empty_set(),
        found: Vec::new(),
    };
    let nothing = CutCost {
        inputs: 0,
        outputs: 0,
    };
    enumeration.decide(0, nothing).then_some(enumeration.found)
}

struct Enumeration<'a> {
    design: &'a Design,
    index: &'a InnerIndex,
    constraints: &'a PartitionConstraints,
    deadline: &'a mut Deadline,
    /// The blocks decided in so far.
    set: BitSet,
    found: Vec<BitSet>,
}

impl Enumeration<'_> {
    /// Decides blocks `next..` in, then out of `set` (so the sets come in
    /// order of lowest member), recording every candidate set. `demand` is
    /// `set`'s *permanent* pin demand while blocks `next..` are undecided:
    /// the signals whose other end is a sensor, an output, or a block below
    /// `next` outside `set`. Returns `false` once the deadline passes.
    fn decide(&mut self, next: usize, demand: CutCost) -> bool {
        if self.deadline.poll() {
            return false;
        }
        if next == self.index.len() {
            // With every block decided, `demand` is the exact pin demand,
            // and it fits.
            if self.set.len() >= 2
                && self
                    .constraints
                    .structure_fits(self.design, self.index, &self.set)
            {
                self.found.push(self.set.clone());
            }
            return true;
        }
        self.set.insert(next);
        let joined = self.joined(next, demand);
        let finished = !self.constraints.cost_fits(joined) || self.decide(next + 1, joined);
        self.set.remove(next);
        let left_out = self.left_out(next, demand);
        finished && (!self.constraints.cost_fits(left_out) || self.decide(next + 1, left_out))
    }

    /// The permanent demand once member `next` joins `set`: its inputs from
    /// settled drivers that no other member reads, and its outputs with a
    /// settled sink outside.
    fn joined(&self, next: usize, mut demand: CutCost) -> CutCost {
        let (index, set) = (self.index, &self.set);
        let settled_outside = |end: Option<usize>| end.is_none_or(|p| p < next && !set.contains(p));
        let other_member = |end: Option<usize>| end.is_some_and(|p| p != next && set.contains(p));
        for (signal, _) in index.input_signals(next) {
            if settled_outside(index.driver(signal)) && !index.sinks(signal).any(other_member) {
                demand.inputs += 1;
            }
        }
        for signal in index.driven_signals(next) {
            if index.sinks(signal).any(settled_outside) {
                demand.outputs += 1;
            }
        }
        demand
    }

    /// The permanent demand once `next` is left out of `set`: its signals
    /// that members read now enter, and the members' signals it reads now
    /// leave, unless they already did.
    fn left_out(&self, next: usize, mut demand: CutCost) -> CutCost {
        let (index, set) = (self.index, &self.set);
        let member = |end: Option<usize>| end.is_some_and(|p| set.contains(p));
        let settled_outside = |end: Option<usize>| end.is_none_or(|p| p < next && !set.contains(p));
        for signal in index.driven_signals(next) {
            if index.sinks(signal).any(member) {
                demand.inputs += 1;
            }
        }
        for (signal, _) in index.input_signals(next) {
            if member(index.driver(signal)) && !index.sinks(signal).any(settled_outside) {
                demand.outputs += 1;
            }
        }
        demand
    }
}

/// A state's optimal cost and the choice for its lowest block that gives
/// the least labeling at that cost.
#[derive(Debug, Clone, Copy)]
struct Choice {
    /// `(total, uncovered)`, as in [`Partitioning::objective`].
    cost: (usize, usize),
    /// The candidate set the lowest block joins; `None` leaves it
    /// uncovered.
    set: Option<usize>,
}

/// A multiply-rotate hash over 64-bit words, for the memo's keys: a few
/// words of bits each, which SipHash costs several times as much to hash.
/// SipHash resists keys chosen to collide, but these are the search's own
/// states, which a design shapes only through its candidate sets, and a
/// hostile design can already make the search exponential.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits high; the table indexes low.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        for &byte in words.remainder() {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// The memoized cover search over one design's candidate sets.
struct Cover<'a> {
    index: &'a InnerIndex,
    /// Candidate sets in order of lowest member.
    candidates: &'a [BitSet],
    /// The candidates whose lowest member is block `i` are
    /// `candidates[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Every state solved so far, keyed by its undecided blocks.
    memo: HashMap<BitSet, Choice, BuildHasherDefault<WordHasher>>,
    deadline: &'a mut Deadline,
}

impl<'a> Cover<'a> {
    fn new(index: &'a InnerIndex, candidates: &'a [BitSet], deadline: &'a mut Deadline) -> Self {
        let mut starts = vec![0; index.len() + 1];
        for set in candidates {
            let lowest = set.iter().next().expect("a candidate set is not empty");
            starts[lowest + 1] += 1;
        }
        for i in 0..index.len() {
            starts[i + 1] += starts[i];
        }
        Self {
            index,
            candidates,
            starts,
            memo: HashMap::default(),
            deadline,
        }
    }

    /// Solves the whole design and reads the optimum off the memo, or
    /// returns `None` once the deadline passes.
    fn solve(mut self) -> Option<Partitioning> {
        let mut all = self.index.full_set();
        self.cost(&mut all)?;
        let mut labels = Labels::new(&self, &all);
        let (mut partitions, mut uncovered): (Vec<Vec<_>>, _) = (Vec::new(), Vec::new());
        for p in 0..self.index.len() {
            let block = self.index.block(p);
            match labels.of(p) {
                0 => uncovered.push(block),
                // Partitions are numbered by lowest member.
                k if k > partitions.len() => partitions.push(vec![block]),
                k => partitions[k - 1].push(block),
            }
        }
        Some(Partitioning::new(partitions, uncovered, "exhaustive", true))
    }

    /// The optimal cost of deciding `rest`, memoizing the choice of every
    /// state solved on the way; `None` once the deadline passes. Each
    /// branch takes its blocks out of `rest` and puts them back once it
    /// returns, so the memo's copy is the one allocation per state. Ties
    /// are compared only after both sides returned, so every state they
    /// read is in the memo.
    fn cost(&mut self, rest: &mut BitSet) -> Option<(usize, usize)> {
        let Some(lowest) = rest.iter().next() else {
            return Some((0, 0));
        };
        if let Some(choice) = self.memo.get(rest) {
            return Some(choice.cost);
        }
        if self.deadline.poll() {
            return None;
        }
        rest.remove(lowest);
        let left_out = self.cost(rest);
        rest.insert(lowest);
        let (total, uncovered) = left_out?;
        let mut best = Choice {
            cost: (total + 1, uncovered + 1),
            set: None,
        };
        let (first, end) = (self.starts[lowest], self.starts[lowest + 1]);
        for (c, set) in (first..).zip(&self.candidates[first..end]) {
            if !set.iter().all(|p| rest.contains(p)) {
                continue;
            }
            rest.difference_with(set);
            let taken = self.cost(rest);
            rest.union_with(set);
            let (total, uncovered) = taken?;
            let cost = (total + 1, uncovered);
            let wins = match best.set {
                _ if cost != best.cost => cost < best.cost,
                // Uncovered labels the lowest block least of all.
                None => false,
                Some(incumbent) => self.labels_less(rest, c, incumbent),
            };
            if wins {
                best = Choice { cost, set: Some(c) };
            }
        }
        self.memo.insert(rest.clone(), best);
        Some(best.cost)
    }

    /// Whether giving `rest`'s lowest block candidate `a` leads to a less
    /// labeling of `rest` than candidate `b`. Compares labels in position
    /// order up to the first difference.
    fn labels_less(&self, rest: &BitSet, a: usize, b: usize) -> bool {
        let (mut left, mut right) = (Labels::new(self, rest), Labels::new(self, rest));
        left.take(a);
        right.take(b);
        for p in rest.iter() {
            let (x, y) = (left.of(p), right.of(p));
            if x != y {
                return x < y;
            }
        }
        false
    }
}

/// The labeling of a state that follows the memo (after any sets taken
/// first), produced in position order: 0 for uncovered, partitions
/// numbered from 1 by lowest member.
struct Labels<'c, 'a> {
    cover: &'c Cover<'a>,
    /// The blocks not labeled yet.
    unlabeled: BitSet,
    /// Each block's partition number; 0 while unlabeled or uncovered.
    labels: Vec<usize>,
    partitions: usize,
}

impl<'c, 'a> Labels<'c, 'a> {
    fn new(cover: &'c Cover<'a>, state: &BitSet) -> Self {
        Self {
            cover,
            unlabeled: state.clone(),
            labels: vec![0; state.capacity()],
            partitions: 0,
        }
    }

    /// Labels `candidate`'s blocks as the next partition.
    fn take(&mut self, candidate: usize) {
        self.partitions += 1;
        let set = &self.cover.candidates[candidate];
        for p in set.iter() {
            self.labels[p] = self.partitions;
        }
        self.unlabeled.difference_with(set);
    }

    /// The label of block `p`; every block of the state below `p` must
    /// have been asked for already.
    fn of(&mut self, p: usize) -> usize {
        if self.unlabeled.contains(p) {
            // `p` is the lowest unlabeled block: the memo decides it.
            match self.cover.memo[&self.unlabeled].set {
                Some(c) => self.take(c),
                None => {
                    self.unlabeled.remove(p);
                }
            }
        }
        self.labels[p]
    }
}

/// The paper's §4.1 search (see [`ExhaustiveOptions::paper_pruning_only`]).
fn paper_search(
    design: &Design,
    constraints: &PartitionConstraints,
    index: &InnerIndex,
    deadline: Deadline,
) -> Partitioning {
    let n = index.len();
    let mut search = PaperSearch {
        design,
        constraints,
        index,
        bins: Vec::new(),
        uncovered: index.empty_set(),
        // The first leaf the search reaches: every block uncovered.
        best: Leaf {
            objective: (n, n),
            bins: Vec::new(),
            uncovered: index.full_set(),
        },
        deadline,
    };
    search.assign(0);
    let best = search.best;
    Partitioning::new(
        best.bins.iter().map(|b| index.resolve(b)).collect(),
        index.resolve(&best.uncovered),
        "exhaustive",
        !search.deadline.expired,
    )
}

struct PaperSearch<'a> {
    design: &'a Design,
    constraints: &'a PartitionConstraints,
    index: &'a InnerIndex,
    /// The open partitions, in order of lowest member.
    bins: Vec<BitSet>,
    uncovered: BitSet,
    /// The first leaf of least objective found so far.
    best: Leaf,
    deadline: Deadline,
}

/// A valid assignment of every block.
struct Leaf {
    objective: (usize, usize),
    bins: Vec<BitSet>,
    uncovered: BitSet,
}

impl PaperSearch<'_> {
    /// Assigns blocks `i..` in turn to uncovered, to each open partition,
    /// then to a new one.
    fn assign(&mut self, i: usize) {
        if self.deadline.poll() {
            return;
        }
        let n = self.index.len();
        if i == n {
            self.consider_leaf();
            return;
        }
        self.uncovered.insert(i);
        self.assign(i + 1);
        self.uncovered.remove(i);

        for bin in 0..self.bins.len() {
            self.bins[bin].insert(i);
            self.assign(i + 1);
            self.bins[bin].remove(i);
        }

        // Only the first unused partition; a partition needs two blocks,
        // so at most n/2 are ever open.
        if self.bins.len() < n / 2 && i + 1 < n {
            let mut bin = self.index.empty_set();
            bin.insert(i);
            self.bins.push(bin);
            self.assign(i + 1);
            self.bins.pop();
        }
    }

    fn consider_leaf(&mut self) {
        let uncovered = self.uncovered.len();
        let objective = (uncovered + self.bins.len(), uncovered);
        let valid = || {
            self.bins
                .iter()
                .all(|bin| bin.len() >= 2 && self.constraints.fits(self.design, self.index, bin))
        };
        if objective < self.best.objective && valid() {
            self.best = Leaf {
                objective,
                bins: self.bins.clone(),
                uncovered: self.uncovered.clone(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pare_down::pare_down;
    use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};

    pub(super) fn chain(n: usize) -> Design {
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
    fn chain_candidates_are_one_or_two_runs() {
        // Under 2-in/2-out a set of a NOT chain fits iff it is at most two
        // runs of consecutive gates: C(n, 2) one-run sets of two or more
        // gates, plus C(n + 1, 4) two-run sets.
        let d = chain(9);
        let index = InnerIndex::new(&d);
        let sets = candidate_sets(&d, &index, &PartitionConstraints::default());
        assert_eq!(sets.len(), 36 + 210);
        let lowest: Vec<usize> = sets.iter().map(|s| s.iter().next().unwrap()).collect();
        assert!(lowest.is_sorted(), "in order of lowest member");
    }

    #[test]
    fn time_limit_returns_incumbent() {
        // A 14-gate chain has 1,456 candidate sets, so the search reads the
        // clock before it could finish (a few milliseconds without a limit).
        let d = chain(14);
        let c = PartitionConstraints::default();
        let r = exhaustive(
            &d,
            &c,
            ExhaustiveOptions {
                time_limit: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        assert!(!r.is_complete());
        r.verify(&d, &c).unwrap();
        let seed = pare_down(&d, &c);
        assert_eq!(
            (r.partitions(), r.uncovered()),
            (seed.partitions(), seed.uncovered())
        );
    }

    #[test]
    fn time_limit_can_expire_inside_the_cover() {
        // A 24-gate chain's 12,926 candidate sets enumerate in milliseconds,
        // but covering them takes far longer than the limit, so the search
        // stops while unwinding the cover and must still return PareDown's
        // result.
        let d = chain(24);
        let c = PartitionConstraints::default();
        let r = exhaustive(
            &d,
            &c,
            ExhaustiveOptions {
                time_limit: Some(Duration::from_millis(100)),
                ..Default::default()
            },
        );
        assert!(!r.is_complete());
        assert_eq!(r.partitions(), pare_down(&d, &c).partitions());
    }

    #[test]
    fn zero_time_limit_stops_the_paper_search() {
        // Thousands of assignments: more than one read of the clock.
        let d = chain(8);
        let c = PartitionConstraints::default();
        let r = exhaustive(
            &d,
            &c,
            ExhaustiveOptions {
                time_limit: Some(Duration::ZERO),
                paper_pruning_only: true,
            },
        );
        assert!(!r.is_complete());
        r.verify(&d, &c).unwrap();
    }

    #[test]
    fn empty_design_handled() {
        let mut d = Design::new("none");
        let s = d.add_block("s", SensorKind::Button);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (o, 0)).unwrap();
        for paper_pruning_only in [false, true] {
            let r = exhaustive(
                &d,
                &PartitionConstraints::default(),
                ExhaustiveOptions {
                    paper_pruning_only,
                    ..Default::default()
                },
            );
            assert_eq!(r.inner_total(), 0);
            assert!(r.is_complete());
        }
    }
}

#[cfg(test)]
mod paper_mode_tests {
    use super::tests::chain;
    use super::*;

    #[test]
    fn paper_pruning_mode_is_exact() {
        // Both modes must agree on the objective for a batch of shapes.
        for n in [2usize, 4, 6, 8] {
            let d = chain(n);
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
            slow.verify(&d, &c).unwrap();
            assert_eq!(fast.objective(), slow.objective(), "n={n}");
        }
    }
}
