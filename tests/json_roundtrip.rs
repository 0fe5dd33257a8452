//! Property tests for the serialization core and the typed API:
//!
//! * arbitrary `Value` trees survive value → JSON text → value, and
//!   re-serialization is byte-identical (the determinism contract the
//!   golden batch report relies on);
//! * arbitrary `BatchRequest`s and `BatchResponse`s survive
//!   struct → JSON → struct with byte-identical re-serialization;
//! * arbitrary service-mode envelopes (`RequestEnvelope` in,
//!   `ReplyEnvelope` out) survive the same trip, and unknown keys are
//!   rejected at every envelope level.

use eblocks::api::{
    Admission, AdmissionReply, BatchRequest, BatchResponse, BatchSummary, DesignSource, JobOutcome,
    JobResponse, JobSpec, ProgressEvent, ProgressKind, ReplyEnvelope, RequestEnvelope, ServeReply,
    ServeRequest, ServeStats, StageMs, StageSummary, SynthOptions, SynthRequest,
};
use eblocks::farm::JobMode;
use eblocks::lint::DenyLevel;
use eblocks::synth::Stage;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use serde::{json, Value};

/// Strings over the troublesome alphabet: control characters, quotes,
/// backslashes, non-BMP characters, and ordinary printables.
fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            any::<char>(),
            (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control range")),
            Just('"'),
            Just('\\'),
            Just('🚀'),
        ],
        0..8,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A finite f64 (non-finite floats have no JSON representation).
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            0.5
        }
    })
}

fn value_strategy() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<u64>().prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        finite_f64().prop_map(Value::from),
        string_strategy().prop_map(Value::from),
    ];
    leaf.boxed().prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            proptest::collection::vec((string_strategy(), inner), 0..5).prop_map(|pairs| {
                // The parser rejects duplicate keys, so keep first wins.
                let mut seen = std::collections::HashSet::new();
                Value::Object(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

fn options_strategy() -> impl Strategy<Value = SynthOptions> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (1u8..4, 1u8..4),
        0u8..3,
        0u8..3,
    )
        .prop_map(
            |((mode, verify, optimize), (inputs, outputs), lint, deny)| SynthOptions {
                mode: mode.then_some(JobMode::Partition),
                verify: verify.then_some(false),
                optimize: optimize.then_some(true),
                inputs: (inputs > 1).then_some(inputs),
                outputs: (outputs > 1).then_some(outputs),
                lint: match lint {
                    0 => None,
                    1 => Some(true),
                    _ => Some(false),
                },
                lint_deny: match deny {
                    0 => None,
                    1 => Some(DenyLevel::Errors),
                    _ => Some(DenyLevel::Warnings),
                },
            },
        )
}

fn source_strategy() -> impl Strategy<Value = DesignSource> {
    prop_oneof![
        string_strategy().prop_map(|s| DesignSource::Netlist(format!("dir/{s}.netlist").into())),
        string_strategy().prop_map(DesignSource::Library),
        (1usize..100, any::<u64>())
            .prop_map(|(inner, seed)| DesignSource::Generated { inner, seed }),
    ]
}

fn request_strategy() -> impl Strategy<Value = BatchRequest> {
    (
        proptest::collection::vec(
            (
                any::<bool>(),
                string_strategy(),
                source_strategy(),
                options_strategy(),
            )
                .prop_map(|(named, name, source, options)| JobSpec {
                    name: named.then_some(name),
                    source,
                    partitioner: None,
                    options,
                }),
            0..5,
        ),
        any::<bool>(),
    )
        .prop_map(|(jobs, with_default)| BatchRequest {
            default_partitioner: with_default.then(|| "refine".to_string()),
            jobs,
        })
}

/// Millisecond values with 3 decimals, exactly representable.
fn ms_strategy() -> impl Strategy<Value = f64> {
    (0u64..10_000_000).prop_map(|n| n as f64 / 1000.0)
}

fn job_response_strategy() -> impl Strategy<Value = JobResponse> {
    (
        (string_strategy(), string_strategy()),
        (0u8..4, 0u32..3),
        string_strategy(),
        (any::<bool>(), 0usize..100, 0usize..100),
        (any::<bool>(), ms_strategy()),
    )
        .prop_map(
            |(
                (name, partitioner),
                (status, retries),
                error,
                (ok_stats, inner, c_bytes),
                (timed, ms),
            )| {
                let status = match status {
                    0 => JobOutcome::Ok,
                    1 => JobOutcome::Failed,
                    2 => JobOutcome::TimedOut,
                    _ => JobOutcome::Panicked,
                };
                let has_stats = status == JobOutcome::Ok && ok_stats;
                JobResponse {
                    name,
                    partitioner,
                    status,
                    error: (status != JobOutcome::Ok).then_some(error),
                    retries: (retries > 0).then_some(retries),
                    inner_before: has_stats.then_some(inner),
                    inner_after: has_stats.then_some(inner / 2),
                    partitions: has_stats.then_some(inner / 3),
                    complete: has_stats.then_some(true),
                    verified: has_stats.then_some(false),
                    c_bytes: has_stats.then_some(c_bytes),
                    lint_errors: None,
                    lint_warnings: (has_stats && inner % 3 > 0).then_some(inner % 3),
                    lint_fixes: (has_stats && inner % 5 > 2).then_some(inner % 5),
                    stages_ms: (has_stats && timed).then(|| {
                        vec![StageMs {
                            stage: Stage::Partition,
                            ms,
                            detail: "2 partitions".into(),
                        }]
                    }),
                    elapsed_ms: timed.then_some(ms),
                }
            },
        )
}

fn response_strategy() -> impl Strategy<Value = BatchResponse> {
    (
        proptest::collection::vec(job_response_strategy(), 0..5),
        (any::<bool>(), 1usize..9, ms_strategy()),
    )
        .prop_map(|(results, (timed, workers, ms))| {
            let succeeded = results
                .iter()
                .filter(|r| r.status == JobOutcome::Ok)
                .count();
            let retries: u32 = results.iter().filter_map(|r| r.retries).sum();
            let lint_warnings: usize = results.iter().filter_map(|r| r.lint_warnings).sum();
            BatchResponse {
                batch: BatchSummary {
                    jobs: results.len(),
                    succeeded,
                    failed: results.len() - succeeded,
                    retries: (retries > 0).then_some(retries),
                    inner_before: results.iter().filter_map(|r| r.inner_before).sum(),
                    inner_after: results.iter().filter_map(|r| r.inner_after).sum(),
                    partitions: results.iter().filter_map(|r| r.partitions).sum(),
                    c_bytes: results.iter().filter_map(|r| r.c_bytes).sum(),
                    lint_errors: None,
                    lint_warnings: (lint_warnings > 0).then_some(lint_warnings),
                    lint_fixes: None,
                    workers: timed.then_some(workers),
                    elapsed_ms: timed.then_some(ms),
                    stages: timed.then(|| {
                        vec![StageSummary {
                            stage: Stage::Partition,
                            runs: results.len(),
                            total_ms: ms,
                            max_ms: ms,
                        }]
                    }),
                },
                results,
            }
        })
}

fn serve_request_strategy() -> impl Strategy<Value = ServeRequest> {
    prop_oneof![
        request_strategy().prop_map(ServeRequest::Batch),
        (source_strategy(), options_strategy(), any::<bool>()).prop_map(
            |(source, mut options, named)| {
                // A synth request's mode must be absent (the pipeline
                // always runs end to end).
                options.mode = None;
                ServeRequest::Synth(SynthRequest {
                    source,
                    partitioner: named.then(|| "refine".to_string()),
                    options,
                })
            }
        ),
        Just(ServeRequest::Stats),
        Just(ServeRequest::Shutdown),
    ]
}

fn request_envelope_strategy() -> impl Strategy<Value = RequestEnvelope> {
    (any::<bool>(), string_strategy(), serve_request_strategy()).prop_map(
        |(with_id, id, request)| RequestEnvelope {
            id: with_id.then_some(id),
            request,
        },
    )
}

fn progress_strategy() -> impl Strategy<Value = ProgressEvent> {
    (0usize..16, string_strategy(), 0u8..5, string_strategy()).prop_map(
        |(job, name, outcome, error)| {
            // 0 = a `started` event; 1..=4 = `finished` with an outcome.
            let status = match outcome {
                0 => None,
                1 => Some(JobOutcome::Ok),
                2 => Some(JobOutcome::Failed),
                3 => Some(JobOutcome::TimedOut),
                _ => Some(JobOutcome::Panicked),
            };
            let failed = !matches!(status, None | Some(JobOutcome::Ok));
            ProgressEvent {
                job,
                name,
                event: if status.is_none() {
                    ProgressKind::Started
                } else {
                    ProgressKind::Finished
                },
                status,
                error: failed.then_some(error),
            }
        },
    )
}

fn stats_strategy() -> impl Strategy<Value = ServeStats> {
    (
        (0usize..32, 0usize..8),
        (0u64..1000, 0u64..1000, 0u64..1000),
        proptest::collection::vec(
            (1usize..50, ms_strategy(), ms_strategy()).prop_map(|(runs, total_ms, max_ms)| {
                StageSummary {
                    stage: Stage::Partition,
                    runs,
                    total_ms,
                    max_ms,
                }
            }),
            0..3,
        ),
    )
        .prop_map(
            |((queue_depth, in_flight), (accepted, rejected, completed), stages)| ServeStats {
                queue_depth,
                in_flight,
                accepted,
                rejected,
                completed,
                stages,
            },
        )
}

fn serve_reply_strategy() -> impl Strategy<Value = ServeReply> {
    prop_oneof![
        (0u8..3, any::<bool>(), string_strategy()).prop_map(|(status, with_detail, detail)| {
            let status = match status {
                0 => Admission::Accepted,
                1 => Admission::QueueFull,
                _ => Admission::LintRejected,
            };
            ServeReply::Admission(AdmissionReply {
                status,
                detail: with_detail.then_some(detail),
            })
        }),
        progress_strategy().prop_map(ServeReply::Progress),
        response_strategy().prop_map(ServeReply::Batch),
        stats_strategy().prop_map(ServeReply::Stats),
        string_strategy().prop_map(ServeReply::Error),
        Just(ServeReply::Shutdown),
    ]
}

fn reply_envelope_strategy() -> impl Strategy<Value = ReplyEnvelope> {
    (any::<bool>(), string_strategy(), serve_reply_strategy()).prop_map(|(with_id, id, reply)| {
        ReplyEnvelope {
            id: with_id.then_some(id),
            reply,
        }
    })
}

/// Unknown keys are errors at every envelope level: a misspelled field
/// must be a structured rejection, never silently dropped work.
#[test]
fn serve_envelopes_reject_unknown_keys() {
    let cases = [
        r#"{"id": "x", "request": "stats", "priority": 9}"#,
        r#"{"id": "x", "reply": "shutdown", "took_ms": 4}"#,
        r#"{"id": "x", "request": {"batch": {"jobs": [], "workers": 4}}}"#,
        r#"{"id": "x", "reply": {"admission": {"status": "accepted", "queue": 1}}}"#,
        r#"{"id": "x", "reply": {"progress": {"job": 0, "name": "g", "event": "started",
            "status": null, "error": null, "worker": 2}}}"#,
    ];
    for text in cases {
        assert!(
            json::from_str::<RequestEnvelope>(text).is_err()
                && json::from_str::<ReplyEnvelope>(text).is_err(),
            "unknown key accepted: {text}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128).with_rng_seed(0x0015_EDE5))]

    #[test]
    fn value_to_json_to_value(value in value_strategy()) {
        let text = json::to_string(&value);
        let back = json::parse(&text).map_err(|e| {
            proptest::TestCaseError::fail(format!("{text}: {e}"))
        })?;
        prop_assert_eq!(&back, &value, "value round-trips: {}", text);
        prop_assert_eq!(json::to_string(&back), text, "byte-identical re-serialization");

        // Pretty text parses back to the same value too.
        let pretty = json::to_string_pretty(&value);
        let back = json::parse(&pretty).map_err(|e| {
            proptest::TestCaseError::fail(format!("{pretty}: {e}"))
        })?;
        prop_assert_eq!(&back, &value, "pretty round-trips: {}", pretty);
    }

    #[test]
    fn batch_request_round_trips(request in request_strategy()) {
        let text = json::to_string(&request);
        let back: BatchRequest = json::from_str(&text).map_err(|e| {
            proptest::TestCaseError::fail(format!("{text}: {e}"))
        })?;
        prop_assert_eq!(&back, &request, "{}", text);
        prop_assert_eq!(json::to_string(&back), text, "byte-identical re-serialization");
    }

    #[test]
    fn batch_response_round_trips(response in response_strategy()) {
        let text = json::to_string(&response);
        let back: BatchResponse = json::from_str(&text).map_err(|e| {
            proptest::TestCaseError::fail(format!("{text}: {e}"))
        })?;
        prop_assert_eq!(&back, &response, "{}", text);
        prop_assert_eq!(json::to_string(&back), text, "byte-identical re-serialization");
    }

    #[test]
    fn request_envelope_round_trips(envelope in request_envelope_strategy()) {
        let text = json::to_string(&envelope);
        let back: RequestEnvelope = json::from_str(&text).map_err(|e| {
            proptest::TestCaseError::fail(format!("{text}: {e}"))
        })?;
        prop_assert_eq!(&back, &envelope, "{}", text);
        prop_assert_eq!(json::to_string(&back), text, "byte-identical re-serialization");
    }

    #[test]
    fn reply_envelope_round_trips(envelope in reply_envelope_strategy()) {
        let text = json::to_string(&envelope);
        let back: ReplyEnvelope = json::from_str(&text).map_err(|e| {
            proptest::TestCaseError::fail(format!("{text}: {e}"))
        })?;
        prop_assert_eq!(&back, &envelope, "{}", text);
        prop_assert_eq!(json::to_string(&back), text, "byte-identical re-serialization");
    }
}
