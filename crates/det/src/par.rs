//! The one worker pool: `len` independent jobs on up to `jobs` threads,
//! results in index order.
//!
//! The experiment grid (`tc_bench::experiments::run_cells`) and the
//! serve loop (`tc_serve::Service::serve`) both run on [`run_indexed`].
//! A job's result is placed by its index, never by which worker ran it
//! or when, so "the output does not depend on the worker count" holds of
//! every caller whose jobs are pure functions of their index.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `job(worker, index)` for every `index` in `0..len` and returns
/// the results in index order.
///
/// * `jobs` is clamped to `1..=len`. At one worker every job runs inline
///   on the calling thread, as worker 0, in index order.
/// * Otherwise `jobs` scoped threads, numbered `0..jobs`, drain a shared
///   atomic cursor: each claims the next index when it finishes its last.
/// * Once a job fails, no further index is handed out; jobs already
///   running finish. The error returned is the lowest-index one among
///   the jobs that ran, so at one worker it is the first failure.
/// * A job's panic is resumed on the calling thread with its payload,
///   and stops the hand-out like a failure does.
pub fn run_indexed<T, E, F>(jobs: usize, len: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, usize) -> Result<T, E> + Sync,
{
    let jobs = jobs.clamp(1, len.max(1));
    if jobs == 1 {
        return (0..len).map(|i| job(0, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let drain = |worker: usize| {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            let r = panic::catch_unwind(AssertUnwindSafe(|| job(worker, i)));
            if !matches!(r, Ok(Ok(_))) {
                stop.store(true, Ordering::Relaxed);
            }
            done.push((i, r));
        }
        done
    };
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let drain = &drain;
                scope.spawn(move || drain(w))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    });
    // The cursor hands indices out in ascending order and every claimed
    // job runs to the end, so the jobs that ran are a prefix of `0..len`
    // holding every index below the lowest failure: walking them in
    // order returns either all `len` results or that failure.
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(len);
    for (_, r) in done {
        match r {
            Ok(Ok(v)) => out.push(v),
            Ok(Err(e)) => return Err(e),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

    /// A short, index-dependent delay, so workers finish out of order.
    fn jitter(i: usize) {
        thread::sleep(Duration::from_micros((i * 7 % 5) as u64 * 40));
    }

    #[test]
    fn results_come_back_in_index_order_at_every_job_count() {
        for jobs in 1..=8 {
            let out: Result<Vec<usize>, ()> = run_indexed(jobs, 40, |_, i| {
                jitter(i);
                Ok(i * i)
            });
            assert_eq!(out, Ok((0..40).map(|i| i * i).collect()), "jobs={jobs}");
        }
    }

    #[test]
    fn the_lowest_index_error_wins() {
        for jobs in 1..=8 {
            let seventeen_failed = AtomicBool::new(false);
            let out = run_indexed(jobs, 24, |_, i| match i {
                // With more than one worker, index 5 fails only after
                // index 17 has: the first failure in time is not the
                // lowest-index one.
                5 => {
                    while jobs > 1 && !seventeen_failed.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    Err(5)
                }
                17 => {
                    seventeen_failed.store(true, Ordering::SeqCst);
                    Err(17)
                }
                _ => Ok(i),
            });
            assert_eq!(out, Err(5), "jobs={jobs}");
        }
    }

    #[test]
    fn a_panic_is_resumed_with_its_payload() {
        for jobs in [1, 2, 4] {
            let caught = panic::catch_unwind(|| {
                run_indexed(jobs, 12, |_, i| -> Result<usize, ()> {
                    if i == 7 {
                        panic::panic_any(i);
                    }
                    Ok(i)
                })
            });
            let payload = caught.expect_err("the job panicked");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&7), "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_is_clamped_to_one_through_len() {
        let workers = |jobs: usize, len: usize| {
            let seen = Mutex::new(BTreeSet::new());
            let out: Result<Vec<usize>, ()> = run_indexed(jobs, len, |w, i| {
                seen.lock().expect("no job panics").insert(w);
                jitter(i);
                Ok(i)
            });
            assert_eq!(out, Ok((0..len).collect()), "jobs={jobs} len={len}");
            seen.into_inner().expect("no job panics")
        };
        assert_eq!(workers(0, 5), BTreeSet::from([0]));
        assert!(workers(64, 3).iter().all(|&w| w < 3));
        assert!(workers(3, 60).iter().all(|&w| w < 3));
        let none: Result<Vec<()>, ()> = run_indexed(8, 0, |_, _| panic!("no job to run"));
        assert_eq!(none, Ok(Vec::new()));
    }

    #[test]
    fn one_job_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        for (jobs, len) in [(1, 6), (0, 6), (8, 1)] {
            let out: Result<Vec<_>, ()> =
                run_indexed(jobs, len, |w, _| Ok((w, thread::current().id())));
            let out = out.expect("no job fails");
            assert!(
                out.iter().all(|&r| r == (0, caller)),
                "jobs={jobs} len={len}"
            );
        }
        // More than one worker runs nothing on the caller's thread.
        let out: Result<Vec<_>, ()> = run_indexed(2, 6, |_, _| Ok(thread::current().id()));
        assert!(out.expect("no job fails").iter().all(|&t| t != caller));
    }
}
