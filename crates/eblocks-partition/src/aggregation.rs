//! The aggregation heuristic (§4.2 ¶1) — the strawman PareDown replaces.
//!
//! "From a list of inner nodes connected to a primary input, the aggregation
//! method repeatedly selects a node that fits within a programmable block as
//! a partition." It grows clusters greedily outward from the sensors with no
//! look-ahead, so it cannot exploit convergence (two signals that merge
//! downstream) and often yields non-optimal covers — exactly the weakness
//! the paper demonstrates and PareDown fixes.

use crate::constraints::PartitionConstraints;
use crate::result::Partitioning;
use eblocks_core::{levels, BitSet, BlockId, Design, InnerIndex};

/// Runs the aggregation heuristic.
///
/// Seeds are taken level by level starting at the blocks adjacent to primary
/// inputs; each cluster grows by absorbing the first neighboring unassigned
/// inner block that keeps the cluster feasible, until no neighbor fits.
pub fn aggregation(design: &Design, constraints: &PartitionConstraints) -> Partitioning {
    let index = InnerIndex::new(design);
    let level = levels(design);

    // Seed order: ascending level (sensor-adjacent first), then position.
    let mut order: Vec<usize> = (0..index.len()).collect();
    order.sort_by_key(|&pos| (level[index.block(pos).index()], pos));

    let mut assigned = BitSet::new(index.len());
    let mut partitions: Vec<Vec<BlockId>> = Vec::new();
    let mut uncovered: Vec<BlockId> = Vec::new();

    for &seed in &order {
        if assigned.contains(seed) {
            continue;
        }
        let mut cluster = index.empty_set();
        cluster.insert(seed);
        if !constraints.fits(design, &index, &cluster) {
            // The seed alone exceeds the pin budget; it can only stay
            // pre-defined... unless a *pair* with a neighbor converges below
            // the budget, which this no-look-ahead heuristic never discovers.
            assigned.insert(seed);
            uncovered.push(index.block(seed));
            continue;
        }

        // Grow until no neighbor keeps the cluster feasible.
        while let Some(next) = growth_candidate(design, &index, &cluster, &assigned, constraints) {
            cluster.insert(next);
        }

        for pos in cluster.iter() {
            assigned.insert(pos);
        }
        if cluster.len() >= 2 {
            partitions.push(index.resolve(&cluster));
        } else {
            uncovered.push(index.block(seed));
        }
    }

    Partitioning::new(partitions, uncovered, "aggregation", true)
}

/// The first unassigned inner neighbor (by dense position) whose addition
/// keeps the cluster feasible.
fn growth_candidate(
    design: &Design,
    index: &InnerIndex,
    cluster: &BitSet,
    assigned: &BitSet,
    constraints: &PartitionConstraints,
) -> Option<usize> {
    let mut candidates: Vec<usize> = Vec::new();
    for pos in cluster.iter() {
        let block = index.block(pos);
        let neighbors = design
            .in_wires(block)
            .map(|w| w.from)
            .chain(design.out_wires(block).map(|w| w.to));
        for n in neighbors {
            if let Some(npos) = index.position(n) {
                if !cluster.contains(npos) && !assigned.contains(npos) {
                    candidates.push(npos);
                }
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    for npos in candidates {
        let mut grown = cluster.clone();
        grown.insert(npos);
        if constraints.fits(design, index, &grown) {
            return Some(npos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::{exhaustive, ExhaustiveOptions};
    use crate::pare_down::pare_down;
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

    #[test]
    fn chain_fully_clustered() {
        let d = chain(6);
        let c = PartitionConstraints::default();
        let r = aggregation(&d, &c);
        r.verify(&d, &c).unwrap();
        assert_eq!(r.num_partitions(), 1);
        assert_eq!(r.inner_total(), 1);
    }

    #[test]
    fn results_always_verify() {
        for n in 1..10 {
            let d = chain(n);
            let c = PartitionConstraints::default();
            aggregation(&d, &c).verify(&d, &c).unwrap();
        }
    }

    /// The paper's motivation: aggregation misses convergence that PareDown
    /// catches. Two sensor-fed gates converge into a downstream AND; greedy
    /// growth from one side claims the AND's input budget before seeing the
    /// convergence.
    #[test]
    fn misses_convergence_that_pare_down_catches() {
        // s1 -> a (not) -> c(and2) <- b (not) <- s2 ; c -> d(not) -> o.
        // Whole set {a,b,c,d}: 2 in, 1 out — optimal is one partition.
        let mut d = Design::new("conv");
        let s1 = d.add_block("s1", SensorKind::Button);
        let s2 = d.add_block("s2", SensorKind::Motion);
        let a = d.add_block("a", ComputeKind::Not);
        let b = d.add_block("b", ComputeKind::Not);
        let c = d.add_block("c", ComputeKind::and2());
        let e = d.add_block("e", ComputeKind::Not);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s1, 0), (a, 0)).unwrap();
        d.connect((s2, 0), (b, 0)).unwrap();
        d.connect((a, 0), (c, 0)).unwrap();
        d.connect((b, 0), (c, 1)).unwrap();
        d.connect((c, 0), (e, 0)).unwrap();
        d.connect((e, 0), (o, 0)).unwrap();

        let cons = PartitionConstraints::default();
        let pare = pare_down(&d, &cons);
        let opt = exhaustive(&d, &cons, ExhaustiveOptions::default());
        assert_eq!(opt.inner_total(), 1, "optimal merges all four");
        assert_eq!(pare.inner_total(), 1, "PareDown finds the convergence");
        // Aggregation is allowed to match on this small case in principle,
        // but must never beat the optimum and must always verify.
        let agg = aggregation(&d, &cons);
        agg.verify(&d, &cons).unwrap();
        assert!(agg.objective() >= opt.objective());
    }

    #[test]
    fn oversized_seed_left_uncovered() {
        let mut d = Design::new("big");
        let sensors: Vec<_> = (0..3)
            .map(|i| d.add_block(format!("s{i}"), SensorKind::Button))
            .collect();
        let g = d.add_block("g", ComputeKind::and3());
        let o = d.add_block("o", OutputKind::Led);
        for (i, s) in sensors.iter().enumerate() {
            d.connect((*s, 0), (g, i as u8)).unwrap();
        }
        d.connect((g, 0), (o, 0)).unwrap();
        let c = PartitionConstraints::default();
        let r = aggregation(&d, &c);
        assert_eq!(r.uncovered().len(), 1);
        assert_eq!(r.num_partitions(), 0);
    }
}
