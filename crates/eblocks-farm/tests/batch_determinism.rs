//! Batch determinism: the same manifest must produce a byte-identical
//! (timings-off) `BatchResponse` regardless of worker count, a poisoned
//! job must be reported as failed without taking down the batch, and
//! `BatchProgress` notifications must respect the scheduler's ordering
//! contract at every worker count.

use eblocks_farm::{
    run_batch, run_batch_with_progress, BatchProgress, BatchRequest, FarmConfig, JobOutcome,
    JobResponse, JobSpec, JsonOptions,
};
use std::sync::Mutex;

const MANIFEST: &str = "\
# mixed sources, mixed strategies, mixed modes
default partitioner=pare-down
job library=\"Ignition Illuminator\"
job library=\"Podium Timer 3\" partitioner=refine
job library=\"Two-Zone Security\" partitioner=aggregation verify=false
job generated=12 seed=7 mode=partition
job generated=20 seed=9 mode=partition partitioner=anneal
job library=\"No Such Design\"                     # deliberate failure
";

#[test]
fn same_manifest_same_bytes_for_1_and_8_workers() {
    let batch = BatchRequest::parse(MANIFEST).unwrap();
    let sequential = run_batch(&batch, &FarmConfig::with_workers(1));
    let parallel = run_batch(&batch, &FarmConfig::with_workers(8));

    assert_eq!(sequential.batch.workers, Some(1));
    assert_eq!(parallel.batch.workers, Some(batch.jobs.len().min(8)));
    assert_eq!(sequential.batch.succeeded, batch.jobs.len() - 1);
    assert_eq!(sequential.batch.failed, 1);

    let options = JsonOptions::default(); // timings off: deterministic
    assert_eq!(
        sequential.to_json(&options),
        parallel.to_json(&options),
        "sorted reports must be byte-identical across worker counts"
    );

    // Re-running the same batch is also byte-stable.
    let again = run_batch(&batch, &FarmConfig::with_workers(8));
    assert_eq!(parallel.to_json(&options), again.to_json(&options));

    // With timings on the reports still agree on everything but clocks.
    let timed = sequential.to_json(&JsonOptions { timings: true });
    assert!(timed.contains("elapsed_ms"), "{timed}");
}

#[test]
fn poisoned_job_is_isolated() {
    use eblocks_core::Design;
    use eblocks_partition::{PartitionConstraints, Partitioner, Partitioning};

    struct Poison;
    impl Partitioner for Poison {
        fn name(&self) -> &'static str {
            "poison"
        }
        fn partition(&self, _: &Design, _: &PartitionConstraints) -> Partitioning {
            panic!("injected failure")
        }
    }

    let batch = BatchRequest::parse(
        "job library=\"Ignition Illuminator\"\n\
         job library=\"Carpool Alert\" partitioner=poison\n\
         job library=\"Night Lamp Controller\"\n",
    )
    .unwrap();
    let mut config = FarmConfig::with_workers(3);
    config.registry.register("poison", || Box::new(Poison));

    let report = run_batch(&batch, &config);
    assert_eq!(report.results.len(), 3, "the batch ran to completion");
    assert_eq!(report.batch.succeeded, 2);
    let poisoned = &report.results[1];
    assert_eq!(poisoned.status, JobOutcome::Panicked);
    assert!(poisoned
        .error
        .as_deref()
        .is_some_and(|message| message.contains("injected failure")));
}

/// How `row` ended, status and error, as one comparable string.
fn outcome(row: &JobResponse) -> String {
    format!("{:?}: {:?}", row.status, row.error)
}

/// One progress notification, in arrival order.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Started(usize),
    Finished(usize, String),
}

/// Records every notification; `Sync` via the interior mutex.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl BatchProgress for Recorder {
    fn job_started(&self, index: usize, _job: &JobSpec) {
        self.events.lock().unwrap().push(Event::Started(index));
    }
    fn job_finished(&self, index: usize, row: &JobResponse) {
        self.events
            .lock()
            .unwrap()
            .push(Event::Finished(index, outcome(row)));
    }
}

#[test]
fn progress_events_respect_the_ordering_contract() {
    // At every worker count: each job starts exactly once, finishes
    // exactly once, starts strictly before it finishes, and the status a
    // listener hears is exactly the row the final report holds.
    let batch = BatchRequest::parse(MANIFEST).unwrap();
    for workers in [1, 2, 8] {
        let recorder = Recorder::default();
        let report = run_batch_with_progress(&batch, &FarmConfig::with_workers(workers), &recorder);
        let events = recorder.events.into_inner().unwrap();
        assert_eq!(
            events.len(),
            batch.jobs.len() * 2,
            "{workers} workers: one start and one finish per job"
        );
        for index in 0..batch.jobs.len() {
            let started: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Event::Started(i) if *i == index))
                .map(|(at, _)| at)
                .collect();
            let finished: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Event::Finished(i, _) if *i == index))
                .map(|(at, _)| at)
                .collect();
            assert_eq!(
                started.len(),
                1,
                "{workers} workers: job {index} started once"
            );
            assert_eq!(
                finished.len(),
                1,
                "{workers} workers: job {index} finished once"
            );
            assert!(
                started[0] < finished[0],
                "{workers} workers: job {index} finished before it started"
            );
            let Event::Finished(_, heard) = &events[finished[0]] else {
                unreachable!()
            };
            assert_eq!(
                heard,
                &outcome(&report.results[index]),
                "{workers} workers: listener heard a different status than the report"
            );
        }
    }

    // Sequential execution additionally pins the interleaving: submission
    // order, start immediately followed by finish.
    let recorder = Recorder::default();
    run_batch_with_progress(&batch, &FarmConfig::with_workers(1), &recorder);
    let events = recorder.events.into_inner().unwrap();
    for (index, pair) in events.chunks(2).enumerate() {
        assert_eq!(pair[0], Event::Started(index));
        assert!(matches!(&pair[1], Event::Finished(i, _) if *i == index));
    }
}

#[test]
fn panicking_listener_never_corrupts_the_report() {
    // A listener that panics on every notification must not change the
    // deterministic report by a single byte, at any worker count.
    struct Grenade;
    impl BatchProgress for Grenade {
        fn job_started(&self, _: usize, _: &JobSpec) {
            panic!("listener panic on start");
        }
        fn job_finished(&self, _: usize, _: &JobResponse) {
            panic!("listener panic on finish");
        }
    }

    let batch = BatchRequest::parse(MANIFEST).unwrap();
    let options = JsonOptions::default();
    let baseline = run_batch(&batch, &FarmConfig::with_workers(1)).to_json(&options);
    for workers in [1, 8] {
        let report = run_batch_with_progress(&batch, &FarmConfig::with_workers(workers), &Grenade);
        assert_eq!(
            report.to_json(&options),
            baseline,
            "{workers} workers: panicking listener changed the report"
        );
    }
}
