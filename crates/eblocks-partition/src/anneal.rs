//! Simulated-annealing partitioner (extension).
//!
//! The paper evaluates a fast greedy heuristic (PareDown) against an
//! exponential exhaustive search, leaving the classic middle ground of EDA
//! partitioning — stochastic local search — unexplored. This module fills
//! that gap with a Metropolis annealer over block-to-partition assignments,
//! so the benchmark harness can ask: *how much optimality does PareDown
//! leave on the table relative to a search that spends 1000× its runtime?*
//!
//! The walk starts from PareDown's partitioning and keeps the best state it
//! has seen, so it acts as a stochastic refiner and never ends worse than
//! PareDown. It walks *relaxed* states in which partitions may temporarily
//! violate the pin budget or the ≥2-block rule; violations are charged an
//! energy penalty so the walk is driven back toward feasibility. The final
//! state is repaired (infeasible partitions and singletons dissolve to
//! uncovered), so the returned [`Partitioning`] always verifies. For a
//! *feasible* state the energy equals the paper's objective — the number of
//! inner blocks after replacement.
//!
//! Determinism: runs are reproducible for a fixed [`AnnealConfig::seed`] —
//! including multi-restart runs, whose per-restart seeds derive from the
//! base seed and whose winner is selected by a deterministic tie-break.
//!
//! Setting [`AnnealConfig::restarts`] above one runs that many independent
//! walks on the shared worker pool ([`eblocks_core::pool`], at most one
//! thread per core) and returns the best-of-N by the paper's objective.

use crate::constraints::PartitionConstraints;
use crate::result::Partitioning;
use eblocks_core::{cut_cost, pool, BitSet, Design, InnerIndex};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Starting temperature: roughly the energy of undoing one good merge plus
/// a pin violation.
const INITIAL_TEMP: f64 = 2.5;
/// Final temperature; the schedule decays geometrically from
/// [`INITIAL_TEMP`] to this over the walk's steps.
const FINAL_TEMP: f64 = 0.02;

/// Tuning knobs for [`anneal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Total Metropolis steps. Default `20_000`.
    pub iterations: u32,
    /// RNG seed; identical seeds give identical results. Default `0xEB10C5`.
    pub seed: u64,
    /// Independent restarts to run in parallel on the worker pool (at
    /// most one thread per core, each restart with seed
    /// `seed + restart_index`); the best result by
    /// [`Partitioning::objective`] wins, ties broken by lowest restart
    /// index. Default `1` — a single, in-thread run.
    pub restarts: u32,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            seed: 0xEB10C5,
            restarts: 1,
        }
    }
}

impl AnnealConfig {
    /// A configuration with the given step budget, defaults otherwise.
    pub fn with_iterations(iterations: u32) -> Self {
        Self {
            iterations,
            ..Self::default()
        }
    }
}

/// Per-group bookkeeping: the member set and its cached energy contribution.
struct Group {
    members: BitSet,
    cost: f64,
}

/// Mutable annealer state over inner-block positions.
struct State<'a> {
    design: &'a Design,
    index: &'a InnerIndex,
    constraints: &'a PartitionConstraints,
    /// `assignment[pos]` is the group slot of inner block `pos`, or `None`
    /// when the block is uncovered.
    assignment: Vec<Option<usize>>,
    groups: Vec<Group>,
    /// Group slots whose member set is empty, available for reuse.
    free_slots: Vec<usize>,
    energy: f64,
}

impl<'a> State<'a> {
    fn group_cost(&self, members: &BitSet) -> f64 {
        match members.len() {
            0 => 0.0,
            // A singleton never becomes a partition; it repairs to one
            // uncovered block.
            1 => 1.0,
            n => {
                let cost = cut_cost(self.index, members);
                let spec = self.constraints.spec;
                let overflow = cost.inputs.saturating_sub(spec.inputs as usize)
                    + cost.outputs.saturating_sub(spec.outputs as usize);
                if overflow == 0 && self.constraints.fits(self.design, self.index, members) {
                    1.0
                } else {
                    // Repairs to `n` uncovered blocks; the extra overflow
                    // term gives the walk a gradient toward feasibility.
                    n as f64 + overflow as f64
                }
            }
        }
    }

    fn recompute_group(&mut self, slot: usize) {
        let cost = self.group_cost(&self.groups[slot].members);
        self.energy += cost - self.groups[slot].cost;
        self.groups[slot].cost = cost;
    }

    /// Detaches `pos` from its current group (if any), updating energy.
    fn detach(&mut self, pos: usize) -> Option<usize> {
        let from = self.assignment[pos].take()?;
        self.groups[from].members.remove(pos);
        if self.groups[from].members.is_empty() {
            self.free_slots.push(from);
        }
        self.recompute_group(from);
        Some(from)
    }

    /// Attaches `pos` to `slot` (or uncovered when `None`), updating energy.
    fn attach(&mut self, pos: usize, slot: Option<usize>) {
        match slot {
            Some(s) => {
                self.groups[s].members.insert(pos);
                self.assignment[pos] = Some(s);
                self.recompute_group(s);
            }
            None => {
                self.assignment[pos] = None;
                self.energy += 1.0;
            }
        }
    }

    fn fresh_slot(&mut self) -> usize {
        if let Some(s) = self.free_slots.pop() {
            return s;
        }
        self.groups.push(Group {
            members: self.index.empty_set(),
            cost: 0.0,
        });
        self.groups.len() - 1
    }
}

/// Runs simulated annealing from PareDown's partitioning and returns the
/// repaired best-seen state.
///
/// The result is never worse than plain [`pare_down`](fn@crate::pare_down)
/// on the paper's objective. With [`AnnealConfig::restarts`] above one, the
/// restarts run concurrently on the worker pool and the best-of-N wins.
///
/// # Examples
///
/// ```
/// use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
/// use eblocks_partition::{anneal, AnnealConfig, PartitionConstraints};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("pair");
/// let s = d.add_block("s", SensorKind::Button);
/// let a = d.add_block("a", ComputeKind::Not);
/// let b = d.add_block("b", ComputeKind::Not);
/// let o = d.add_block("o", OutputKind::Led);
/// d.connect((s, 0), (a, 0))?;
/// d.connect((a, 0), (b, 0))?;
/// d.connect((b, 0), (o, 0))?;
///
/// let c = PartitionConstraints::default();
/// let result = anneal(&d, &c, &AnnealConfig::with_iterations(2_000));
/// result.verify(&d, &c)?;
/// assert_eq!(result.inner_total(), 1);
/// # Ok(())
/// # }
/// ```
pub fn anneal(
    design: &Design,
    constraints: &PartitionConstraints,
    config: &AnnealConfig,
) -> Partitioning {
    // Restart `i` walks from seed `seed + i`; at most one worker per core,
    // so an uncapped restarts value queues work instead of threads.
    let restarts = config.restarts.max(1) as usize;
    let order: Vec<usize> = (0..restarts).collect();
    pool::run(pool::workers(None, restarts), &order, |i| {
        let seed = config.seed.wrapping_add(i as u64);
        Some(anneal_once(
            design,
            constraints,
            &AnnealConfig { seed, ..*config },
        ))
    })
    .into_iter()
    .flatten()
    .min_by_key(Partitioning::objective)
    .expect("at least one restart ran")
}

/// One annealing walk (no restarts).
fn anneal_once(
    design: &Design,
    constraints: &PartitionConstraints,
    config: &AnnealConfig,
) -> Partitioning {
    let index = InnerIndex::new(design);
    let n = index.len();
    if n == 0 {
        return Partitioning::new(vec![], vec![], "anneal", true);
    }

    let mut state = State {
        design,
        index: &index,
        constraints,
        assignment: vec![None; n],
        groups: Vec::new(),
        free_slots: Vec::new(),
        energy: n as f64,
    };

    let seed = crate::pare_down(design, constraints);
    for partition in seed.partitions() {
        let slot = state.fresh_slot();
        for &block in partition {
            let pos = index.position(block).expect("inner");
            state.energy -= 1.0; // leaving the uncovered pool
            state.attach(pos, Some(slot));
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut best = snapshot(&state);
    let mut best_energy = state.energy;

    let steps = config.iterations.max(1);
    let decay = (FINAL_TEMP / INITIAL_TEMP).powf(1.0 / steps as f64);
    let mut temp = INITIAL_TEMP;

    for _ in 0..steps {
        let pos = rng.random_range(0..n);
        let current = state.assignment[pos];

        // Candidate targets: an existing non-empty group (other than the
        // current one), a fresh group, or the uncovered pool.
        let occupied: Vec<usize> = state
            .groups
            .iter()
            .enumerate()
            .filter(|(s, g)| !g.members.is_empty() && Some(*s) != current)
            .map(|(s, _)| s)
            .collect();
        let choice = rng.random_range(0..occupied.len() + 2);
        let target = if choice < occupied.len() {
            Some(occupied[choice])
        } else if choice == occupied.len() {
            None
        } else {
            Some(state.fresh_slot())
        };
        if target == current {
            temp *= decay;
            continue;
        }

        let before = state.energy;
        if current.is_some() {
            state.detach(pos);
        } else {
            state.energy -= 1.0;
        }
        state.attach(pos, target);
        let delta = state.energy - before;

        let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp();
        if !accept {
            // Undo: move the block back where it was.
            if target.is_some() {
                state.detach(pos);
            } else {
                state.energy -= 1.0;
            }
            state.attach(pos, current);
        } else if state.energy < best_energy {
            best_energy = state.energy;
            best = snapshot(&state);
        }
        temp *= decay;
    }

    repair(design, constraints, &index, best)
}

/// Captures the group member sets of a state.
fn snapshot(state: &State<'_>) -> Vec<BitSet> {
    state
        .groups
        .iter()
        .filter(|g| !g.members.is_empty())
        .map(|g| g.members.clone())
        .collect()
}

/// Dissolves infeasible and singleton groups into the uncovered pool and
/// assembles the final result.
fn repair(
    design: &Design,
    constraints: &PartitionConstraints,
    index: &InnerIndex,
    groups: Vec<BitSet>,
) -> Partitioning {
    let mut partitions = Vec::new();
    let mut covered = index.empty_set();
    for members in groups {
        if members.len() >= 2 && constraints.fits(design, index, &members) {
            covered.union_with(&members);
            partitions.push(index.resolve(&members));
        }
    }
    let uncovered = (0..index.len())
        .filter(|&pos| !covered.contains(pos))
        .map(|pos| index.block(pos))
        .collect();
    Partitioning::new(partitions, uncovered, "anneal", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exhaustive, pare_down, ExhaustiveOptions};
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};
    use eblocks_gen::{generate, GeneratorConfig};

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
    fn empty_design() {
        let mut d = Design::new("e");
        let s = d.add_block("s", SensorKind::Button);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (o, 0)).unwrap();
        let r = anneal(
            &d,
            &PartitionConstraints::default(),
            &AnnealConfig::default(),
        );
        assert_eq!(r.inner_total(), 0);
    }

    #[test]
    fn result_verifies_and_finds_chain_optimum() {
        let d = chain(6);
        let c = PartitionConstraints::default();
        let r = anneal(&d, &c, &AnnealConfig::with_iterations(5_000));
        r.verify(&d, &c).unwrap();
        assert_eq!(r.inner_total(), 1);
    }

    #[test]
    fn never_worse_than_pare_down_seed() {
        let c = PartitionConstraints::default();
        for n in [3, 5, 8] {
            let d = chain(n);
            let pd = pare_down(&d, &c);
            let an = anneal(&d, &c, &AnnealConfig::with_iterations(2_000));
            assert!(an.objective() <= pd.objective(), "n={n}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = chain(7);
        let c = PartitionConstraints::default();
        let config = AnnealConfig::with_iterations(3_000);
        assert_eq!(anneal(&d, &c, &config), anneal(&d, &c, &config));
    }

    #[test]
    fn matches_exhaustive_on_small_design() {
        // Fork: one sensor splits into two NOT chains converging on an AND.
        let mut d = Design::new("fork");
        let s = d.add_block("s", SensorKind::Button);
        let split = d.add_block("split", ComputeKind::Splitter);
        let n1 = d.add_block("n1", ComputeKind::Not);
        let n2 = d.add_block("n2", ComputeKind::Not);
        let and = d.add_block("and", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (split, 0)).unwrap();
        d.connect((split, 0), (n1, 0)).unwrap();
        d.connect((split, 1), (n2, 0)).unwrap();
        d.connect((n1, 0), (and, 0)).unwrap();
        d.connect((n2, 0), (and, 1)).unwrap();
        d.connect((and, 0), (o, 0)).unwrap();

        let c = PartitionConstraints::default();
        let opt = exhaustive(&d, &c, ExhaustiveOptions::default());
        let an = anneal(&d, &c, &AnnealConfig::with_iterations(10_000));
        an.verify(&d, &c).unwrap();
        assert_eq!(an.objective(), opt.objective());
    }

    #[test]
    fn restarts_pick_best_of_n_deterministically() {
        let d = generate(&GeneratorConfig::new(8), 6);
        let c = PartitionConstraints::default();
        let base = AnnealConfig::with_iterations(400);
        let multi = anneal(
            &d,
            &c,
            &AnnealConfig {
                restarts: 5,
                ..base
            },
        );
        multi.verify(&d, &c).unwrap();
        let singles: Vec<_> = (0..5)
            .map(|i| {
                let seed = base.seed.wrapping_add(i);
                anneal(&d, &c, &AnnealConfig { seed, ..base }).objective()
            })
            .collect();
        // The walks end apart on this design, so best-of-N is a real
        // selection.
        assert!(
            singles.iter().any(|o| *o != singles[0]),
            "restarts should diverge: {singles:?}"
        );
        assert_eq!(Some(multi.objective()), singles.into_iter().min());
        // Determinism: the parallel driver is reproducible run to run.
        let again = anneal(
            &d,
            &c,
            &AnnealConfig {
                restarts: 5,
                ..base
            },
        );
        assert_eq!(multi, again);
    }

    #[test]
    fn single_restart_matches_plain_run() {
        let d = chain(6);
        let c = PartitionConstraints::default();
        let cfg = AnnealConfig::with_iterations(1_000);
        assert_eq!(
            anneal(&d, &c, &cfg),
            anneal(&d, &c, &AnnealConfig { restarts: 1, ..cfg })
        );
    }

    #[test]
    fn respects_structural_constraints() {
        let mut d = Design::new("par");
        for i in 0..2 {
            let s = d.add_block(format!("s{i}"), SensorKind::Button);
            let g = d.add_block(format!("g{i}"), ComputeKind::Not);
            let o = d.add_block(format!("o{i}"), OutputKind::Led);
            d.connect((s, 0), (g, 0)).unwrap();
            d.connect((g, 0), (o, 0)).unwrap();
        }
        let c = PartitionConstraints {
            require_connected: true,
            ..Default::default()
        };
        let r = anneal(&d, &c, &AnnealConfig::with_iterations(2_000));
        r.verify(&d, &c).unwrap();
        assert_eq!(r.num_partitions(), 0, "only disconnected pairs exist");
    }
}
