//! Simulated-annealing placement improvement.

use crate::greedy::greedy_place;
use crate::placement::{PlaceError, Placement, PlacementProblem};
use crate::topology::SiteId;
use eblocks_core::BlockId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Starting temperature, in cost units (hops).
const INITIAL_TEMP: f64 = 4.0;
/// Final temperature; the schedule decays geometrically from
/// [`INITIAL_TEMP`] to this over the walk's steps.
const FINAL_TEMP: f64 = 0.05;

/// Tuning knobs for [`anneal_place`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceAnnealConfig {
    /// Metropolis steps. Default `10_000`.
    pub iterations: u32,
    /// RNG seed; identical seeds give identical results. Default `0x9A9B`.
    pub seed: u64,
}

impl Default for PlaceAnnealConfig {
    fn default() -> Self {
        Self {
            iterations: 10_000,
            seed: 0x9A9B,
        }
    }
}

impl PlaceAnnealConfig {
    /// A configuration with the given step budget, defaults otherwise.
    pub fn with_iterations(iterations: u32) -> Self {
        Self {
            iterations,
            ..Self::default()
        }
    }
}

/// Improves a greedy placement with relocate and swap moves under a
/// geometric cooling schedule.
///
/// Pinned blocks never move. The best-seen placement is returned, so the
/// result is never worse than [`greedy_place`]'s.
///
/// # Errors
///
/// Propagates any [`PlaceError`] from the greedy seeding phase (the move
/// loop itself cannot fail: moves that would break routability are simply
/// rejected).
///
/// # Examples
///
/// ```
/// use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
/// use eblocks_place::{anneal_place, PlaceAnnealConfig, PlacementProblem, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("loop");
/// let s = d.add_block("s", SensorKind::Button);
/// let g = d.add_block("g", ComputeKind::Not);
/// let o = d.add_block("o", OutputKind::Led);
/// d.connect((s, 0), (g, 0))?;
/// d.connect((g, 0), (o, 0))?;
///
/// let topo = Topology::grid(2, 2);
/// let problem = PlacementProblem::new(&d, &topo)?;
/// let placement = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(500))?;
/// placement.verify(&problem)?;
/// assert_eq!(placement.cost(&problem)?, 2); // both wires one hop
/// # Ok(())
/// # }
/// ```
pub fn anneal_place(
    problem: &PlacementProblem<'_>,
    config: &PlaceAnnealConfig,
) -> Result<Placement, PlaceError> {
    let seed_placement = greedy_place(problem)?;
    let topology = problem.topology();
    let matrix = topology.distance_matrix();

    let movable: Vec<BlockId> = problem
        .design()
        .blocks()
        .filter(|b| !problem.pins().contains_key(b))
        .collect();
    if movable.is_empty() || topology.num_sites() < 2 {
        return Ok(seed_placement);
    }

    let mut assignment: BTreeMap<BlockId, SiteId> = seed_placement.assignment().clone();
    let mut load = vec![0usize; topology.num_sites()];
    for &site in assignment.values() {
        load[site.index()] += 1;
    }
    let mut cost = seed_placement.cost_with(problem, &matrix)? as f64;
    let mut best = assignment.clone();
    let mut best_cost = cost;

    // Cost contribution of one block: hops of every wire incident to it.
    let block_cost = |assignment: &BTreeMap<BlockId, SiteId>, block: BlockId| -> Option<usize> {
        let here = assignment[&block];
        let mut sum = 0usize;
        for w in problem.design().in_wires(block) {
            sum += matrix.get(assignment[&w.from], here)?;
        }
        for w in problem.design().out_wires(block) {
            sum += matrix.get(here, assignment[&w.to])?;
        }
        Some(sum)
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let steps = config.iterations.max(1);
    let decay = (FINAL_TEMP / INITIAL_TEMP).powf(1.0 / steps as f64);
    let mut temp = INITIAL_TEMP;

    for _ in 0..steps {
        let block = movable[rng.random_range(0..movable.len())];
        let old_site = assignment[&block];
        let target = SiteId(rng.random_range(0..topology.num_sites()));
        if target == old_site {
            temp *= decay;
            continue;
        }

        let capacity = topology.site(target).expect("in range").capacity();
        // Either relocate into free capacity or swap with a movable block.
        let swap_with: Option<BlockId> = if load[target.index()] < capacity {
            None
        } else {
            let candidates: Vec<BlockId> = assignment
                .iter()
                .filter(|(b, &s)| s == target && !problem.pins().contains_key(*b))
                .map(|(&b, _)| b)
                .collect();
            if candidates.is_empty() {
                temp *= decay;
                continue; // full of pinned blocks
            }
            Some(candidates[rng.random_range(0..candidates.len())])
        };

        let before = match (block_cost(&assignment, block), swap_with) {
            (Some(c), None) => c,
            (Some(c), Some(other)) => {
                let Some(oc) = block_cost(&assignment, other) else {
                    temp *= decay;
                    continue;
                };
                // A shared wire between `block` and `other` is counted twice
                // on both sides of the move, so the double-count cancels in
                // the delta.
                c + oc
            }
            (None, _) => {
                temp *= decay;
                continue;
            }
        };

        apply(
            &mut assignment,
            &mut load,
            block,
            old_site,
            target,
            swap_with,
        );
        let after = match (block_cost(&assignment, block), swap_with) {
            (Some(c), None) => Some(c),
            (Some(c), Some(other)) => block_cost(&assignment, other).map(|oc| c + oc),
            (None, _) => None,
        };

        let accepted = match after {
            // A move into an unroutable spot is always rejected.
            None => false,
            Some(after) => {
                let delta = after as f64 - before as f64;
                delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp()
            }
        };
        if accepted {
            let after = after.expect("accepted implies routable");
            cost += after as f64 - before as f64;
            if cost < best_cost {
                best_cost = cost;
                best = assignment.clone();
            }
        } else {
            // Undo by applying the inverse move.
            apply(
                &mut assignment,
                &mut load,
                block,
                target,
                old_site,
                swap_with,
            );
        }
        temp *= decay;
    }

    Ok(Placement::new(best))
}

/// Moves `block` from `from` to `to`; when `swap_with` is set, that block
/// simultaneously moves from `to` to `from`.
fn apply(
    assignment: &mut BTreeMap<BlockId, SiteId>,
    load: &mut [usize],
    block: BlockId,
    from: SiteId,
    to: SiteId,
    swap_with: Option<BlockId>,
) {
    assignment.insert(block, to);
    if let Some(other) = swap_with {
        assignment.insert(other, from);
    } else {
        load[from.index()] -= 1;
        load[to.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
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

    #[test]
    fn never_worse_than_greedy() {
        let d = chain(6);
        let t = Topology::grid(4, 2);
        let problem = PlacementProblem::new(&d, &t).unwrap();
        let greedy_cost = greedy_place(&problem).unwrap().cost(&problem).unwrap();
        let annealed = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(3_000)).unwrap();
        annealed.verify(&problem).unwrap();
        assert!(annealed.cost(&problem).unwrap() <= greedy_cost);
    }

    #[test]
    fn chain_on_line_reaches_unit_hops() {
        // 6 blocks on a 6-site line: optimal is every wire one hop.
        let d = chain(4);
        let t = Topology::line(6);
        let problem = PlacementProblem::new(&d, &t).unwrap();
        let p = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(20_000)).unwrap();
        p.verify(&problem).unwrap();
        assert_eq!(p.cost(&problem).unwrap(), 5);
    }

    #[test]
    fn pins_survive_annealing() {
        let d = chain(3);
        let t = Topology::line(5);
        let mut problem = PlacementProblem::new(&d, &t).unwrap();
        let s = d.block_by_name("s").unwrap();
        let end = t.site_by_name("p4").unwrap();
        problem.pin(s, end).unwrap();
        let p = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(2_000)).unwrap();
        p.verify(&problem).unwrap();
        assert_eq!(p.site_of(s), Some(end));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = chain(5);
        let t = Topology::grid(3, 3);
        let problem = PlacementProblem::new(&d, &t).unwrap();
        let c = PlaceAnnealConfig::with_iterations(2_000);
        assert_eq!(
            anneal_place(&problem, &c).unwrap(),
            anneal_place(&problem, &c).unwrap()
        );
    }

    #[test]
    fn library_placements_are_pinned() {
        // The exact cost and block-to-site map of two 8-block library
        // designs on 9 sites, so a change to the walk or its schedule shows.
        let t = Topology::grid(3, 3);
        let render = |d: &Design| {
            let problem = PlacementProblem::new(d, &t).unwrap();
            let p = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(2_000)).unwrap();
            let mut out = format!("cost={}", p.cost(&problem).unwrap());
            for (&block, &site) in p.assignment() {
                let block = d.block(block).unwrap().name();
                out += &format!(" {block}@{}", t.site(site).unwrap().name());
            }
            out
        };
        assert_eq!(
            render(&eblocks_designs::any_window_open_alarm()),
            "cost=7 window1@r2c2 window2@r0c2 window3@r2c0 window4@r0c0 left@r1c2 right@r1c0 any@r1c1 buzzer@r0c1"
        );
        assert_eq!(
            render(&eblocks_designs::two_button_light()),
            "cost=7 button1@r2c2 button2@r0c2 toggle1@r2c1 toggle2@r0c1 either@r1c2 lamp1@r2c0 lamp2@r0c0 held@r1c1"
        );
    }

    #[test]
    fn tight_capacity_swaps_only() {
        // Exactly as many slots as blocks: every move must be a swap.
        let d = chain(2); // 4 blocks
        let t = Topology::grid(2, 2); // 4 slots
        let problem = PlacementProblem::new(&d, &t).unwrap();
        let p = anneal_place(&problem, &PlaceAnnealConfig::with_iterations(5_000)).unwrap();
        p.verify(&problem).unwrap();
        assert_eq!(p.cost(&problem).unwrap(), 3, "hamiltonian path exists");
    }
}
