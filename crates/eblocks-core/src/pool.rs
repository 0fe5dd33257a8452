//! The worker pool: scoped threads drain one list of job indices, each
//! claiming the next index from a shared cursor, and every result lands at
//! its job's index whichever worker ran it. The farm's batch jobs, anneal's
//! restarts and the reliability trial chunks all fan out here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count for `items` jobs: `requested`, or the core count when
/// `None`, clamped to `1..=items` (one worker when there are no jobs).
pub fn workers(requested: Option<usize>, items: usize) -> usize {
    if items <= 1 {
        // One worker whatever the request: skip the core-count query.
        return 1;
    }
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, items.max(1))
}

/// Runs `job(i)` for every index `i` in `order`, claimed in that order by
/// `workers` scoped threads, and returns each result at its index. `order`
/// must be a permutation of `0..order.len()`; a job that returns `None`
/// leaves its index `None`.
///
/// One worker runs the jobs on the calling thread. A panicking job ends
/// the run with its own panic once the other workers have stopped.
pub fn run<T, F>(workers: usize, order: &[usize], job: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let next = AtomicUsize::new(0);
    let results = Mutex::new((0..order.len()).map(|_| None).collect::<Vec<_>>());
    let drain = || {
        while let Some(&index) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let result = job(index);
            results.lock().expect("jobs run outside the results lock")[index] = result;
        }
    };
    if workers <= 1 {
        drain();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            for handle in handles {
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
            }
        });
    }
    results
        .into_inner()
        .expect("jobs run outside the results lock")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every job's result is its own index squared, so a result at the
    /// wrong index shows.
    fn squares(workers: usize, order: &[usize]) -> Vec<Option<usize>> {
        run(workers, order, |i| Some(i * i))
    }

    #[test]
    fn results_land_at_their_index_under_any_order_and_worker_count() {
        let identity: Vec<usize> = (0..6).collect();
        let reversed: Vec<usize> = (0..6).rev().collect();
        let shuffled = vec![3, 0, 5, 1, 4, 2];
        let expected: Vec<Option<usize>> = (0..6).map(|i| Some(i * i)).collect();
        for order in [&identity, &reversed, &shuffled] {
            for workers in [1, 2, 8] {
                assert_eq!(squares(workers, order), expected, "{order:?} on {workers}");
            }
        }
    }

    #[test]
    fn skipped_jobs_stay_none_and_no_jobs_give_nothing() {
        let order: Vec<usize> = (0..5).collect();
        for workers in [1, 2, 8] {
            let odd = run(workers, &order, |i| (i % 2 == 1).then_some(i));
            assert_eq!(odd, [None, Some(1), None, Some(3), None]);
            assert!(squares(workers, &[]).is_empty());
        }
    }

    #[test]
    fn the_claim_order_is_the_order_given() {
        let claimed = Mutex::new(Vec::new());
        let order = vec![2, 0, 3, 1];
        run(1, &order, |i| {
            claimed.lock().unwrap().push(i);
            Some(())
        });
        assert_eq!(claimed.into_inner().unwrap(), order);
    }

    #[test]
    fn a_job_panic_reaches_the_caller() {
        let order: Vec<usize> = (0..4).collect();
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                run(workers, &order, |i| -> Option<()> {
                    assert_ne!(i, 2, "job two fails");
                    Some(())
                })
            });
            let payload = caught.expect_err("the panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("job two fails"), "{message}");
        }
    }

    #[test]
    fn worker_counts_clamp_to_the_jobs() {
        assert_eq!(workers(Some(0), 3), 1);
        assert_eq!(workers(Some(9), 3), 3);
        assert_eq!(workers(Some(2), 3), 2);
        assert_eq!(workers(Some(4), 0), 1);
        assert!((1..=3).contains(&workers(None, 3)));
        assert_eq!(workers(None, 1), 1);
    }
}
