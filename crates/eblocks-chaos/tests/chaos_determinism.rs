//! The harness's core contract, over a pinned seed set: a chaos run is a
//! pure function of its seed — repeat runs and different worker counts
//! produce byte-identical deterministic reports and traces, the seed
//! alone replays a failure, and no storm ever loses or duplicates a job.

use eblocks_chaos::{run_chaos, ChaosConfig, ChaosPlan, ForcedFault};
use eblocks_farm::{BatchRequest, FarmConfig, JobSpec, JsonOptions};
use eblocks_synth::Stage;

/// The seed sweep CI smokes (mirrored in the workflow's chaos step).
const SEEDS: [u64; 8] = [1, 7, 42, 1337, 2026, 0x0eb0_c500, 0xdead_beef, u64::MAX];

fn storm_batch() -> BatchRequest {
    BatchRequest::parse(
        "job library=\"Ignition Illuminator\"\n\
         job library=\"Podium Timer 3\" partitioner=refine\n\
         job library=\"Carpool Alert\" verify=false\n\
         job generated=8 seed=11\n\
         job generated=12 seed=5 mode=partition\n\
         job library=\"Night Lamp Controller\"\n",
    )
    .unwrap()
}

fn deterministic_json(config: FarmConfig, chaos: &ChaosConfig) -> (String, String) {
    let outcome = run_chaos(&storm_batch(), config.retries(3), chaos);
    (
        outcome.report.to_json(&JsonOptions::default()),
        outcome.trace.render_text(),
    )
}

#[test]
fn repeat_runs_are_byte_identical_per_seed() {
    for seed in SEEDS {
        let chaos = ChaosConfig::from_seed(seed);
        let (report_a, trace_a) = deterministic_json(FarmConfig::with_workers(4), &chaos);
        let (report_b, trace_b) = deterministic_json(FarmConfig::with_workers(4), &chaos);
        assert_eq!(report_a, report_b, "seed {seed}: report drifted");
        assert_eq!(trace_a, trace_b, "seed {seed}: trace drifted");
    }
}

#[test]
fn worker_count_does_not_change_outcomes() {
    for seed in SEEDS {
        let chaos = ChaosConfig::from_seed(seed);
        let (report_1, trace_1) = deterministic_json(FarmConfig::with_workers(1), &chaos);
        for workers in [2, 8] {
            let (report_n, trace_n) = deterministic_json(FarmConfig::with_workers(workers), &chaos);
            assert_eq!(report_1, report_n, "seed {seed}, {workers} workers");
            assert_eq!(trace_1, trace_n, "seed {seed}, {workers} workers");
        }
    }
}

#[test]
fn the_seed_alone_replays_a_run() {
    // Nothing but the number survives (the printed `--chaos-seed N`): a
    // config rebuilt from it reproduces per-job statuses and the trace.
    for seed in SEEDS {
        let original = run_chaos(
            &storm_batch(),
            FarmConfig::with_workers(3).retries(3),
            &ChaosConfig::from_seed(seed),
        );
        let replayed = run_chaos(
            &storm_batch(),
            FarmConfig::with_workers(3).retries(3),
            &ChaosConfig::from_seed(seed),
        );
        // Chaos fault messages are deterministic, so the full status
        // (outcome + message) must replay, not just ok-vs-failed.
        let statuses = |o: &eblocks_chaos::ChaosOutcome| -> Vec<(String, String)> {
            o.report
                .results
                .iter()
                .map(|j| (j.name.clone(), format!("{:?}: {:?}", j.status, j.error)))
                .collect()
        };
        assert_eq!(statuses(&original), statuses(&replayed), "seed {seed}");
        assert_eq!(original.trace, replayed.trace, "seed {seed}");
        assert_eq!(original.trace.seed, seed);
    }
}

#[test]
fn no_storm_loses_or_duplicates_a_job() {
    let submitted: Vec<String> = storm_batch()
        .jobs
        .iter()
        .map(JobSpec::display_name)
        .collect();
    for seed in SEEDS {
        let outcome = run_chaos(
            &storm_batch(),
            FarmConfig::with_workers(4).retries(2),
            &ChaosConfig::from_seed(seed),
        );
        let reported: Vec<String> = outcome
            .report
            .results
            .iter()
            .map(|j| j.name.clone())
            .collect();
        assert_eq!(reported, submitted, "seed {seed}: rows in submission order");
        // The trace's pickup order is a permutation of the batch.
        let mut order = outcome.trace.order.clone();
        order.sort_unstable();
        assert_eq!(
            order,
            (0..submitted.len()).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn the_storm_actually_storms() {
    // Sanity against a silently-neutered harness: across the seed sweep
    // the default plan must inject faults, force retries, and (for at
    // least one seed) fail a job outright.
    // retries(1) rather than 3: enough budget to prove recovery happens,
    // small enough that some injected faults stay terminal in this
    // (deterministic) sweep.
    let mut events = 0usize;
    let mut retries = 0u32;
    let mut failures = 0usize;
    for seed in SEEDS {
        let outcome = run_chaos(
            &storm_batch(),
            FarmConfig::with_workers(2).retries(1),
            &ChaosConfig::from_seed(seed),
        );
        events += outcome.trace.events.len();
        retries += outcome.report.batch.retries.unwrap_or(0);
        failures += outcome.report.batch.failed;
    }
    assert!(events > 0, "no faults fired across the whole sweep");
    assert!(retries > 0, "no retries consumed across the whole sweep");
    // Failures are seed-dependent; the sweep is chosen to include some.
    assert!(failures > 0, "no seed in the sweep produced a failure");
}

#[test]
fn pinned_faults_compose_with_the_storm_contract() {
    // A calm plan with one pinned transient panic: deterministic recovery,
    // retry accounted, report otherwise identical to a fault-free run.
    let baseline = run_chaos(
        &storm_batch(),
        FarmConfig::with_workers(2),
        &ChaosConfig::with_plan(0, ChaosPlan::calm()),
    );
    assert!(baseline.report.all_ok());
    assert!(baseline.trace.events.is_empty());

    let plan = ChaosPlan::calm().force(ForcedFault::panic(3, 0, Stage::Partition));
    let chaos = ChaosConfig::with_plan(0, plan);
    let outcome = run_chaos(
        &storm_batch(),
        FarmConfig::with_workers(2).retries(1),
        &chaos,
    );
    assert!(
        outcome.report.all_ok(),
        "transient fault must be retried away"
    );
    assert_eq!(outcome.report.results[3].retries, Some(1));
    assert_eq!(outcome.trace.events.len(), 1);
    assert_eq!(outcome.trace.events[0].job, 3);
}
