//! perfbench: the eblocks toolchain's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth|table2|fleet|serve> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the workloads read `netlists/` and
//! `tests/golden/`. Each workload runs in its own process. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it runs every op once
//! traced and once untraced and prints the per-layer metrics and the
//! tracing overhead. The last line of standard output is the result
//! object. See `perfbench/README.md` for why each workload exists.

mod fleet;
mod harness;
mod serve;
mod synth;
mod table2;
mod trace;

use harness::{Args, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <synth|table2|fleet|serve> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["synth", "table2", "fleet", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "synth" => synth::run(&args, &mut tracer),
        "table2" => table2::run(&args, &mut tracer),
        "fleet" => fleet::run(&args, &mut tracer),
        _ => serve::run(&args, &mut tracer),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        let path = PathBuf::from(format!(
            ".perfbench/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
        harness::per_layer(&outcome, &tracer)
    } else {
        harness::end_to_end(&outcome)
    };
    harness::print(&args, &outcome, &metrics);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Outcome;
    use std::sync::Once;

    /// The workloads read the repository's files by relative path.
    fn at_repo_root() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
            std::env::set_current_dir(root).expect("repository root");
        });
    }

    fn args(workload: &str, seed: u64) -> Args {
        Args {
            workload: workload.to_string(),
            seed,
            seconds: 1,
            trace: false,
        }
    }

    /// Runs a tiny workload twice and returns its deterministic values.
    fn twice(run: impl Fn() -> Result<Outcome, String>) -> Vec<(&'static str, String)> {
        let (first, second) = (run().unwrap(), run().unwrap());
        for outcome in [&first, &second] {
            assert!(
                outcome.correct(),
                "{:?} {:?}",
                outcome.phase.errors,
                outcome.checks
            );
            assert!(outcome.phase.attempted > 0);
            assert!(outcome.inner_blocks > 0);
        }
        assert_eq!(first.inner_blocks, second.inner_blocks);
        assert_eq!(first.deterministic, second.deterministic);
        first.deterministic
    }

    #[test]
    fn synth_smoke_run_repeats() {
        at_repo_root();
        // The 20 committed netlists plus one generated design per size.
        let values = twice(|| synth::run_sized(&args("synth", 3), &mut Tracer::new(), 4));
        assert!(
            values.contains(&("designs", "37".to_string())),
            "{values:?}"
        );
    }

    #[test]
    #[ignore = "synthesizes all 13,000 pool designs, about two minutes"]
    fn screen_synth_pool() {
        at_repo_root();
        let failures = synth::screen_pool();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn table2_smoke_run_repeats() {
        at_repo_root();
        twice(|| table2::run_sized(&args("table2", 3), &mut Tracer::new(), 40));
    }

    #[test]
    fn fleet_smoke_run_repeats() {
        at_repo_root();
        let values = twice(|| fleet::run_sized(&args("fleet", 3), &mut Tracer::new(), 2, 50));
        assert!(values.iter().any(|(k, v)| *k == "events" && v != "0"));
    }

    #[test]
    fn serve_smoke_run_repeats() {
        at_repo_root();
        twice(|| serve::run_sized(&args("serve", 3), &mut Tracer::new(), 40));
    }

    #[test]
    fn traced_run_reports_every_layer_it_uses() {
        at_repo_root();
        let mut traced = args("table2", 5);
        traced.trace = true;
        let mut tracer = Tracer::new();
        let outcome = table2::run_sized(&traced, &mut tracer, 40).unwrap();
        assert!(outcome.correct());
        let metrics = harness::per_layer(&outcome, &tracer);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(value("partition.pare_down_calls") >= 40.0);
        assert!(value("partition.exhaustive_calls") > 0.0);
        assert!(value("gen.designs") >= 40.0);
        assert_eq!(value("sim.verify_calls"), 0.0);
        assert_eq!(
            outcome.phase.traced.ops.len(),
            outcome.phase.plain.ops.len()
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = serde::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> = harness::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);
        let mut per_layer: Vec<(String, String)> = Vec::new();
        for (_, time, calls) in harness::SPAN_METRICS {
            per_layer.push((time.to_string(), "ms".to_string()));
            per_layer.push((calls.to_string(), "count".to_string()));
        }
        for (name, unit) in harness::COUNT_METRICS {
            per_layer.push((name.to_string(), unit.to_string()));
        }
        assert_eq!(names("per_layer"), per_layer);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fleet --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet", 9, 3, true)
        );
        assert_eq!(parse("--workload serve").unwrap().seed, DEFAULT_SEED);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload synth --trace 2").is_err());
        assert!(parse("--workload synth --seed").is_err());
    }
}
