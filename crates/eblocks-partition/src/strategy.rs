//! The [`Partitioner`] strategy trait and the built-in strategy registry.
//!
//! Every partitioning algorithm in this crate is exposed twice: as a plain
//! function (`pare_down`, `exhaustive`, …) for callers that know what they
//! want at compile time, and as an object-safe [`Partitioner`] implementation
//! for callers that select a strategy at runtime — the synthesis pipeline,
//! the CLI's `--partitioner` flag, and the benchmark harness all drive this
//! trait.
//!
//! # Example
//!
//! ```
//! use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};
//! use eblocks_partition::{PartitionConstraints, Partitioner, Registry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut d = Design::new("two-gate");
//! let s = d.add_block("s", SensorKind::Button);
//! let g1 = d.add_block("g1", ComputeKind::Not);
//! let g2 = d.add_block("g2", ComputeKind::Not);
//! let o = d.add_block("o", OutputKind::Led);
//! d.connect((s, 0), (g1, 0))?;
//! d.connect((g1, 0), (g2, 0))?;
//! d.connect((g2, 0), (o, 0))?;
//!
//! let registry = Registry::builtin();
//! let strategy = registry.from_str("pare-down").expect("built-in");
//! let constraints = PartitionConstraints::default();
//! let result = strategy.partition(&d, &constraints);
//! result.verify(&d, &constraints)?;
//! assert_eq!(result.num_partitions(), 1);
//! # Ok(())
//! # }
//! ```

use crate::anneal::{anneal, AnnealConfig};
use crate::constraints::PartitionConstraints;
use crate::exhaustive::{exhaustive, ExhaustiveOptions};
use crate::refine::pare_down_refined;
use crate::result::Partitioning;
use eblocks_core::Design;

/// An object-safe partitioning strategy.
///
/// Implementations must be deterministic: two calls with the same design and
/// constraints return the same [`Partitioning`] (stochastic strategies carry
/// their seed in their configuration). The returned partitioning must
/// [`verify`](Partitioning::verify) against the constraints it was given.
pub trait Partitioner {
    /// Stable strategy name, as accepted by [`Registry::from_str`].
    fn name(&self) -> &'static str;

    /// Partitions the design's inner blocks under the given constraints.
    fn partition(&self, design: &Design, constraints: &PartitionConstraints) -> Partitioning;
}

/// The paper's PareDown decomposition heuristic (§4.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct PareDown;

impl Partitioner for PareDown {
    fn name(&self) -> &'static str {
        "pare-down"
    }

    fn partition(&self, design: &Design, constraints: &PartitionConstraints) -> Partitioning {
        crate::pare_down(design, constraints)
    }
}

/// Optimal exhaustive search (§4.1), optionally time-limited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive {
    /// Search options (time limit, pruning configuration).
    pub options: ExhaustiveOptions,
}

impl Partitioner for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn partition(&self, design: &Design, constraints: &PartitionConstraints) -> Partitioning {
        exhaustive(design, constraints, self.options)
    }
}

/// The greedy aggregation strawman the paper discards (§4.2 ¶1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregation;

impl Partitioner for Aggregation {
    fn name(&self) -> &'static str {
        "aggregation"
    }

    fn partition(&self, design: &Design, constraints: &PartitionConstraints) -> Partitioning {
        crate::aggregation(design, constraints)
    }
}

/// PareDown followed by deterministic local-search refinement.
#[derive(Debug, Clone, Copy, Default)]
pub struct Refine;

impl Partitioner for Refine {
    fn name(&self) -> &'static str {
        "refine"
    }

    fn partition(&self, design: &Design, constraints: &PartitionConstraints) -> Partitioning {
        pare_down_refined(design, constraints)
    }
}

/// Simulated annealing, with parallel multi-restart support (see
/// [`AnnealConfig::restarts`]).
#[derive(Debug, Clone, Copy)]
pub struct Anneal {
    /// Annealer configuration (iterations, schedule, seed, restarts).
    pub config: AnnealConfig,
}

impl Default for Anneal {
    fn default() -> Self {
        Self {
            config: AnnealConfig {
                restarts: 4,
                ..AnnealConfig::default()
            },
        }
    }
}

impl Partitioner for Anneal {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn partition(&self, design: &Design, constraints: &PartitionConstraints) -> Partitioning {
        anneal(design, constraints, &self.config)
    }
}

/// The strategy a job, request or command runs when it names none.
pub const DEFAULT_PARTITIONER: &str = "pare-down";

/// A boxed factory producing one configured strategy instance.
type Factory = Box<dyn Fn() -> Box<dyn Partitioner> + Send + Sync>;

/// Runtime strategy lookup for CLI flags, configs, and sweeps.
///
/// [`Registry::builtin`] knows the five strategies this crate ships;
/// [`register`](Registry::register) adds custom ones (later registrations
/// shadow earlier names).
pub struct Registry {
    entries: Vec<(&'static str, Factory)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// A registry holding the five built-in strategies with their default
    /// configurations: `pare-down`, `exhaustive`, `aggregation`, `refine`,
    /// `anneal`.
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register("pare-down", || Box::new(PareDown));
        r.register("exhaustive", || Box::new(Exhaustive::default()));
        r.register("aggregation", || Box::new(Aggregation));
        r.register("refine", || Box::new(Refine));
        r.register("anneal", || Box::new(Anneal::default()));
        r
    }

    /// Registers a strategy factory under `name`, shadowing any earlier
    /// entry with the same name.
    pub fn register(
        &mut self,
        name: &'static str,
        factory: impl Fn() -> Box<dyn Partitioner> + Send + Sync + 'static,
    ) {
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, Box::new(factory)));
    }

    /// Instantiates the strategy registered under `name`.
    ///
    /// # Errors
    ///
    /// ``unknown partitioner `name` (available: …)``, listing every
    /// registered name.
    pub fn from_str(&self, name: &str) -> Result<Box<dyn Partitioner>, String> {
        match self.entries.iter().find(|(n, _)| *n == name) {
            Some((_, factory)) => Ok(factory()),
            None => Err(format!(
                "unknown partitioner `{name}` (available: {})",
                self.names().join(", ")
            )),
        }
    }

    /// Registered strategy names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn builtin_registry_knows_all_five() {
        let r = Registry::builtin();
        assert_eq!(
            r.names(),
            vec!["pare-down", "exhaustive", "aggregation", "refine", "anneal"]
        );
        for name in r.names() {
            let p = r.from_str(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(r.from_str("magic").is_err());
        let err = r.from_str("magic").err().expect("not registered");
        assert!(err.starts_with("unknown partitioner `magic`"), "{err}");
        for name in r.names() {
            assert!(err.contains(name), "names {name}: {err}");
        }
    }

    #[test]
    fn strategies_agree_with_their_functions() {
        let d = chain(5);
        let c = PartitionConstraints::default();
        assert_eq!(PareDown.partition(&d, &c), crate::pare_down(&d, &c));
        assert_eq!(Aggregation.partition(&d, &c), crate::aggregation(&d, &c));
        assert_eq!(Refine.partition(&d, &c), pare_down_refined(&d, &c));
        assert_eq!(
            Exhaustive::default().partition(&d, &c),
            exhaustive(&d, &c, ExhaustiveOptions::default())
        );
        let cfg = AnnealConfig::with_iterations(2_000);
        assert_eq!(
            Anneal { config: cfg }.partition(&d, &c),
            anneal(&d, &c, &cfg)
        );
    }

    #[test]
    fn custom_registration_shadows() {
        let mut r = Registry::builtin();
        r.register("anneal", || {
            Box::new(Anneal {
                config: AnnealConfig::with_iterations(100),
            })
        });
        assert_eq!(r.names().len(), 5, "shadowing does not duplicate");
        assert_eq!(r.from_str("anneal").unwrap().name(), "anneal");
    }

    #[test]
    fn trait_objects_are_usable_in_collections() {
        let strategies: Vec<Box<dyn Partitioner>> =
            vec![Box::new(PareDown), Box::new(Aggregation), Box::new(Refine)];
        let d = chain(4);
        let c = PartitionConstraints::default();
        for s in &strategies {
            s.partition(&d, &c).verify(&d, &c).unwrap();
        }
    }
}
