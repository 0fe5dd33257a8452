//! Randomized eBlock system generator (§5.1 of the paper).
//!
//! "We also developed a randomized eBlock system generator able to generate
//! eBlock networks of varying sizes." The paper sweeps designs whose inner
//! block counts range from 3 to 45 (Table 2); this module generates
//! structurally valid designs (every input driven, every compute output
//! used, acyclic) of a requested inner size. The inner blocks spread over
//! `ceil(sqrt(n))` levels, which yields the mix of shallow and deep designs
//! the paper describes.
//!
//! Generation is deterministic for a given seed, so sweeps are reproducible.
//!
//! # Example
//!
//! ```
//! use eblocks_gen::{generate, GeneratorConfig};
//!
//! let design = generate(&GeneratorConfig::new(10), 42);
//! assert_eq!(design.inner_blocks().count(), 10);
//! design.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;

pub use family::{generate_family, Family};

use eblocks_core::{BlockId, ComputeKind, Design, OutputKind, SensorKind, TruthTable2};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Probability that a non-first-level input is wired to a fresh sensor
/// instead of an upstream block, per mille (25%).
const SENSOR_BIAS_PM: u32 = 250;
/// Probability that an upstream wiring reuses an already-consumed output
/// port instead of an unused one, per mille (20%), creating fanout.
const FANOUT_BIAS_PM: u32 = 200;

/// Parameters for the random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Number of inner (pre-defined compute) blocks to generate.
    pub inner_blocks: usize,
}

impl GeneratorConfig {
    /// A configuration producing `inner_blocks` inner blocks.
    pub fn new(inner_blocks: usize) -> Self {
        Self { inner_blocks }
    }
}

/// Generates a valid random design with the given seed.
///
/// The result always validates: every input port is driven, every compute
/// output feeds something (an output block is appended for otherwise-unused
/// ports), and the graph is acyclic by construction (wires only go from
/// lower-level blocks to higher-level ones).
pub fn generate(config: &GeneratorConfig, seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    generate_with(config, &mut rng)
}

/// [`generate`] with a caller-supplied RNG (for sweeps that chain designs
/// off one generator stream).
pub fn generate_with(config: &GeneratorConfig, rng: &mut impl RngExt) -> Design {
    let mut design = Design::new(format!("random-{}", config.inner_blocks));
    let n = config.inner_blocks;
    if n == 0 {
        // Degenerate but valid: one sensor driving one output block.
        let s = design.add_block("s0", SensorKind::Button);
        let o = design.add_block("led0", OutputKind::Led);
        design.connect((s, 0), (o, 0)).expect("fresh wire");
        return design;
    }
    // The deepest level; `ceil(sqrt(n))` lies in `1..=n` for every n ≥ 1.
    let depth = (n as f64).sqrt().ceil() as usize;

    // Assign each inner block a level in 1..=depth. Level 1 is guaranteed
    // non-empty; others are sampled uniformly.
    let mut levels = vec![1usize; n];
    for (i, level) in levels.iter_mut().enumerate().skip(1) {
        *level = rng.random_range(1..=depth);
        let _ = i;
    }
    levels.sort_unstable();

    let mut blocks: Vec<(BlockId, usize)> = Vec::with_capacity(n);
    for (i, &level) in levels.iter().enumerate() {
        let kind = random_kind(rng, level == depth);
        let id = design.add_block(format!("g{i}"), kind);
        blocks.push((id, level));
    }

    let mut sensor_count = 0usize;
    let fresh_sensor = |design: &mut Design, count: &mut usize| -> BlockId {
        let kinds = SensorKind::ALL;
        let kind = kinds[*count % kinds.len()];
        let id = design.add_block(format!("s{count}"), kind);
        *count += 1;
        id
    };

    // Wire every input port. Candidate sources for a block at level L are
    // output ports of inner blocks at levels < L (acyclicity) or sensors.
    // Tracking (source, port, used) lets us prefer unused ports so that few
    // dangling outputs remain.
    let mut source_ports: Vec<(BlockId, u8, bool, usize)> = Vec::new(); // (block, port, used, level)
    for &(id, level) in &blocks {
        let block = design.block(id).expect("generated block");
        let num_outputs = block.num_outputs();
        for port in 0..num_outputs {
            source_ports.push((id, port, false, level));
        }
    }

    for &(id, level) in &blocks {
        let num_inputs = design.block(id).expect("generated block").num_inputs();
        for port in 0..num_inputs {
            // Never wire one source port to two inputs of the same block:
            // physically that needs a splitter, and behaviorally it is a
            // packet-delivery race (e.g. a trip latch set and reset by the
            // same edge) that no two schedules resolve identically.
            let already_driving: Vec<(eblocks_core::BlockId, u8)> =
                design.in_wires(id).map(|w| (w.from, w.from_port)).collect();
            let upstream: Vec<usize> = source_ports
                .iter()
                .enumerate()
                .filter(|(_, &(src, sport, _, l))| {
                    l < level && !already_driving.contains(&(src, sport))
                })
                .map(|(i, _)| i)
                .collect();
            let use_sensor =
                level == 1 || upstream.is_empty() || rng.random_range(0..1000u32) < SENSOR_BIAS_PM;
            if use_sensor {
                let s = fresh_sensor(&mut design, &mut sensor_count);
                design.connect((s, 0), (id, port)).expect("sensor wire");
            } else {
                // Prefer an unused port unless fanout is rolled.
                let unused: Vec<usize> = upstream
                    .iter()
                    .copied()
                    .filter(|&i| !source_ports[i].2)
                    .collect();
                let want_fanout = rng.random_range(0..1000u32) < FANOUT_BIAS_PM;
                let pool = if !want_fanout && !unused.is_empty() {
                    &unused
                } else {
                    &upstream
                };
                let pick = pool[rng.random_range(0..pool.len())];
                let (src, src_port, _, _) = source_ports[pick];
                design
                    .connect((src, src_port), (id, port))
                    .expect("upstream wire is forward-leveled");
                source_ports[pick].2 = true;
            }
        }
    }

    // Terminate every still-unused compute output with an output block.
    let mut output_count = 0usize;
    for &(src, port, used, _) in &source_ports {
        if used || design.sinks_of(src, port).next().is_some() {
            continue;
        }
        let kinds = OutputKind::ALL;
        let kind = kinds[output_count % kinds.len()];
        let o = design.add_block(format!("out{output_count}"), kind);
        output_count += 1;
        design.connect((src, port), (o, 0)).expect("output wire");
    }

    design
}

/// Weighted random compute kind. Top-level blocks avoid splitters (their
/// second output would just grow the termination list).
fn random_kind(rng: &mut impl RngExt, is_top: bool) -> ComputeKind {
    let roll = rng.random_range(0..100);
    match roll {
        0..=29 => {
            let tables = [
                TruthTable2::AND,
                TruthTable2::OR,
                TruthTable2::XOR,
                TruthTable2::NAND,
                TruthTable2::NOR,
            ];
            ComputeKind::Logic2(tables[rng.random_range(0..tables.len())])
        }
        30..=44 => ComputeKind::Not,
        45..=54 => {
            if is_top {
                ComputeKind::Not
            } else {
                ComputeKind::Splitter
            }
        }
        55..=69 => ComputeKind::Toggle,
        70..=79 => ComputeKind::Trip,
        80..=89 => ComputeKind::PulseGen {
            ticks: rng.random_range(1..=10),
        },
        90..=95 => ComputeKind::Delay {
            ticks: rng.random_range(1..=10),
        },
        _ => ComputeKind::and3(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_inner_count() {
        for n in [1, 3, 7, 20, 45] {
            let d = generate(&GeneratorConfig::new(n), 7);
            assert_eq!(d.inner_blocks().count(), n, "n={n}");
        }
    }

    #[test]
    fn generated_designs_validate() {
        for n in [1, 2, 5, 10, 30] {
            for seed in 0..20 {
                let d = generate(&GeneratorConfig::new(n), seed);
                d.validate()
                    .unwrap_or_else(|e| panic!("n={n} seed={seed}: {e}"));
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&GeneratorConfig::new(12), 99);
        let b = generate(&GeneratorConfig::new(12), 99);
        assert_eq!(
            eblocks_core::netlist::to_netlist(&a),
            eblocks_core::netlist::to_netlist(&b)
        );
        let c = generate(&GeneratorConfig::new(12), 100);
        assert_ne!(
            eblocks_core::netlist::to_netlist(&a),
            eblocks_core::netlist::to_netlist(&c),
            "different seeds should (almost always) differ"
        );
    }

    #[test]
    fn depth_is_ceil_sqrt_of_inner_blocks() {
        // Inner blocks sit on levels 1..=ceil(sqrt(n)) above the sensors
        // at 0, and output blocks one deeper than their driver, so the
        // deepest of these ten designs reaches ceil(sqrt(n)) + 1.
        for (n, levels) in [(1, 1), (4, 2), (5, 3), (20, 5), (45, 7)] {
            let deepest = (0..10)
                .map(|seed| eblocks_core::level::depth(&generate(&GeneratorConfig::new(n), seed)))
                .max();
            assert_eq!(deepest, Some(levels + 1), "n={n}");
        }
    }

    #[test]
    fn zero_inner_blocks_is_still_valid() {
        let d = generate(&GeneratorConfig::new(0), 1);
        d.validate().unwrap();
        assert_eq!(d.inner_blocks().count(), 0);
    }

    #[test]
    fn produces_varied_kinds() {
        let d = generate(&GeneratorConfig::new(40), 5);
        let kinds: std::collections::HashSet<String> = d
            .inner_blocks()
            .map(|b| d.block(b).unwrap().kind().to_string())
            .collect();
        assert!(kinds.len() >= 4, "expected kind variety, got {kinds:?}");
    }

    #[test]
    fn acyclic_by_construction() {
        for seed in 0..5 {
            let d = generate(&GeneratorConfig::new(25), seed);
            // topo_order panics on cycles.
            assert_eq!(d.topo_order().len(), d.num_blocks());
        }
    }
}
