//! # eblocks — system synthesis for networks of programmable blocks
//!
//! A Rust reproduction of *System Synthesis for Networks of Programmable
//! Blocks* (Mannion, Hsieh, Cotterell, Vahid — DATE 2005): capture,
//! simulation, partitioning, and code generation for **eBlocks**, the
//! fixed-function sensor building blocks that non-experts wire into small
//! monitor/control networks.
//!
//! This facade crate re-exports the whole tool chain:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `eblocks-core` | block/port/design model, levels, cut costs |
//! | [`behavior`] | `eblocks-behavior` | the block behavior DSL and interpreter |
//! | [`sim`] | `eblocks-sim` | packet-level event-driven simulator |
//! | [`partition`] | `eblocks-partition` | the [`Partitioner`](partition::Partitioner) strategies: pare-down, exhaustive, aggregation, refine, anneal |
//! | [`codegen`] | `eblocks-codegen` | syntax-tree merging and C emission |
//! | [`synth`] | `eblocks-synth` | the staged synthesis [`Pipeline`](synth::Pipeline) |
//! | [`designs`] | `eblocks-designs` | the 15 Table-1 library systems |
//! | [`farm`] | `eblocks-farm` | parallel batch synthesis: manifests, worker pools, reports |
//! | [`chaos`] | `eblocks-chaos` | deterministic chaos harness: seeded fault injection, replayable traces |
//! | [`api`] | `eblocks-farm` | typed JSON request/response surface: [`BatchRequest`](api::BatchRequest) in, [`BatchResponse`](api::BatchResponse) out |
//! | [`serve`] | `eblocks-serve` | service mode: long-running daemon with spool-directory and Unix-socket front ends |
//! | [`gen`] | `eblocks-gen` | the random design generator |
//! | [`lint`] | `eblocks-lint` | static analysis: rule registry, structured [`Diagnostic`](lint::Diagnostic)s over designs and behavior programs |
//! | [`place`] | `eblocks-place` | deployment onto an existing physical node network (§6 future work) |
//! | [`net`] | `eblocks-net` | fleet co-simulation: many node designs exchanging packets over a modeled network under one global clock |
//!
//! # Quickstart
//!
//! Build the paper's garage-open-at-night system and run it through the
//! staged synthesis pipeline — partition with any registered strategy,
//! merge behaviors, rewrite the network, co-simulate for equivalence, and
//! emit C:
//!
//! ```
//! use eblocks::core::{ComputeKind, Design, OutputKind, SensorKind};
//! use eblocks::partition::Registry;
//! use eblocks::synth::{Pipeline, VerifyOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut d = Design::new("garage-open-at-night");
//! let door  = d.add_block("door",  SensorKind::ContactSwitch);
//! let light = d.add_block("light", SensorKind::Light);
//! let inv   = d.add_block("inv",   ComputeKind::Not);
//! let both  = d.add_block("both",  ComputeKind::and2());
//! let led   = d.add_block("led",   OutputKind::Led);
//! d.connect((door, 0), (both, 0))?;
//! d.connect((light, 0), (inv, 0))?;
//! d.connect((inv, 0), (both, 1))?;
//! d.connect((both, 0), (led, 0))?;
//!
//! let strategy = Registry::builtin().from_str("pare-down").expect("built-in");
//! let result = Pipeline::new(&d)
//!     .partition_with(strategy.as_ref())?
//!     .merge()?
//!     .rewrite()?
//!     .verify(VerifyOptions::default())?
//!     .emit_c();
//! // inv + both -> one programmable block, proven equivalent in simulation.
//! assert_eq!(result.partitioning.num_partitions(), 1);
//! assert!(result.report.as_ref().is_some_and(|r| r.is_equivalent()));
//! assert!(result.c_sources[0].1.contains("eblock_on_input"));
//! # Ok(())
//! # }
//! ```
//!
//! Each stage returns a typed intermediate, so callers can stop early,
//! skip verification, or attach an [`Observer`](synth::Observer) for
//! per-stage timings. [`Pipeline::run`](synth::Pipeline::run) runs every
//! stage in one call, and
//! [`Pipeline::partition_only`](synth::Pipeline::partition_only) is
//! partition analysis under the caller's constraints as given.
//!
//! # JSON in, JSON out
//!
//! Since PR 5 the vendored `serde` is a real (minimal) serialization core,
//! and [`api`] is the typed request/response surface built on it — the
//! same types `eblocks-cli batch --json` and a future RPC service mode
//! speak. A whole batch can arrive as JSON (manifest format v2):
//!
//! ```
//! use eblocks::api::{BatchRequest, BatchResponse};
//! use eblocks::farm::{run_batch, FarmConfig, JsonOptions};
//!
//! let request: BatchRequest = serde::json::from_str(
//!     r#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#,
//! ).unwrap();
//! let report: BatchResponse = run_batch(&request, &FarmConfig::with_workers(1));
//! assert_eq!(report.batch.succeeded, 1);
//! // The deterministic view: wall-clock fields cleared, same bytes for
//! // any worker count.
//! let json = report.to_json(&JsonOptions::default());
//! # assert!(json.contains("\"succeeded\":1"));
//! # assert!(!json.contains("elapsed_ms"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eblocks_behavior as behavior;
pub use eblocks_chaos as chaos;
pub use eblocks_codegen as codegen;
pub use eblocks_core as core;
pub use eblocks_designs as designs;
pub use eblocks_farm as farm;
pub use eblocks_farm::api;
pub use eblocks_gen as gen;
pub use eblocks_lint as lint;
pub use eblocks_net as net;
pub use eblocks_partition as partition;
pub use eblocks_place as place;
pub use eblocks_serve as serve;
pub use eblocks_sim as sim;
pub use eblocks_synth as synth;
