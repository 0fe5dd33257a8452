//! Panic isolation at every position: a pinned panic at each index of a
//! 15-job batch, across worker counts {1, 2, 8}, must leave the other 14
//! rows (and with a retry budget, the whole report) byte-identical to the
//! fault-free run.

use eblocks_chaos::{run_chaos, ChaosConfig, ChaosPlan, ForcedFault};
use eblocks_farm::{BatchRequest, FarmConfig, JsonOptions};
use eblocks_synth::Stage;
use serde::{json, Value};

const JOBS: usize = 15;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Fifteen quick partition-mode jobs over generated designs.
fn batch() -> BatchRequest {
    let manifest: String = (0..JOBS)
        .map(|i| format!("job generated={} seed={i} mode=partition\n", 4 + i % 5))
        .collect();
    BatchRequest::parse(&manifest).unwrap()
}

/// The report as a parsed JSON value (deterministic rendering).
fn report_value(config: FarmConfig, chaos: &ChaosConfig) -> Value {
    let outcome = run_chaos(&batch(), config, chaos);
    json::parse(&outcome.report.to_json(&JsonOptions::default())).expect("report JSON parses")
}

fn results(value: &Value) -> &[Value] {
    value
        .get("results")
        .and_then(Value::as_array)
        .expect("results array")
}

/// `value` as an object with `drop` removed — for comparing rows and
/// summaries modulo one expected field.
fn without_key(value: &Value, drop: &str) -> Value {
    let Value::Object(fields) = value else {
        panic!("not an object: {value:?}");
    };
    Value::Object(fields.iter().filter(|(k, _)| k != drop).cloned().collect())
}

#[test]
fn panicked_job_never_disturbs_the_other_fourteen() {
    let baseline = report_value(
        FarmConfig::with_workers(1),
        &ChaosConfig::with_plan(0, ChaosPlan::calm()),
    );
    let baseline_rows = results(&baseline);
    assert_eq!(baseline_rows.len(), JOBS);

    for target in 0..JOBS {
        let plan = ChaosPlan::calm().force(ForcedFault::panic(target, 0, Stage::Partition));
        for workers in WORKER_COUNTS {
            let report = report_value(
                FarmConfig::with_workers(workers),
                &ChaosConfig::with_plan(0, plan.clone()),
            );
            let rows = results(&report);
            assert_eq!(rows.len(), JOBS, "job {target}, {workers} workers");
            for (index, row) in rows.iter().enumerate() {
                if index == target {
                    assert_eq!(
                        row.get("status").and_then(Value::as_str),
                        Some("panicked"),
                        "job {target}, {workers} workers: {row:?}"
                    );
                    let error = row.get("error").and_then(Value::as_str).unwrap_or("");
                    assert!(error.starts_with("chaos: injected panic"), "{error}");
                } else {
                    assert_eq!(
                        row, &baseline_rows[index],
                        "job {target} panicking (at {workers} workers) disturbed row {index}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_retry_budget_makes_the_whole_report_byte_identical() {
    // The panic is pinned to attempt 0 only, so with one retry the target
    // job recovers: everything must match the fault-free run except the
    // target row's retry counter (and the summary's retry total).
    let baseline = report_value(
        FarmConfig::with_workers(1),
        &ChaosConfig::with_plan(0, ChaosPlan::calm()),
    );
    let baseline_rows = results(&baseline);
    let baseline_summary = baseline.get("batch").expect("batch summary");

    for target in 0..JOBS {
        let plan = ChaosPlan::calm().force(ForcedFault::panic(target, 0, Stage::Partition));
        for workers in WORKER_COUNTS {
            let report = report_value(
                FarmConfig::with_workers(workers).retries(1),
                &ChaosConfig::with_plan(0, plan.clone()),
            );
            let summary = report.get("batch").expect("batch summary");
            assert_eq!(
                summary.get("retries").and_then(Value::as_u64),
                Some(1),
                "job {target}, {workers} workers"
            );
            assert_eq!(
                without_key(summary, "retries"),
                without_key(baseline_summary, "retries"),
                "job {target}, {workers} workers: summary drifted"
            );
            let rows = results(&report);
            for (index, row) in rows.iter().enumerate() {
                if index == target {
                    assert_eq!(
                        row.get("retries").and_then(Value::as_u64),
                        Some(1),
                        "job {target}, {workers} workers: {row:?}"
                    );
                    assert_eq!(
                        without_key(row, "retries"),
                        without_key(&baseline_rows[index], "retries"),
                        "job {target}, {workers} workers: recovered row drifted"
                    );
                } else {
                    assert_eq!(
                        row, &baseline_rows[index],
                        "job {target} retrying (at {workers} workers) disturbed row {index}"
                    );
                }
            }
        }
    }
}
