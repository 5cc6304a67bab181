//! `par_map_ordered`, the one worker grid every campaign runs on: its
//! output is the sequential map at any thread count, and every job runs
//! exactly once.

use std::sync::atomic::{AtomicU32, Ordering};
use tussle_experiments::par_map_ordered;

/// A job result that depends on the index alone, so any misplaced or
/// duplicated slot shows up as a mismatch.
fn job(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xA5
}

#[test]
fn output_is_the_sequential_map_and_each_job_runs_once() {
    let thread_counts = std::iter::once(None).chain((1..=9).map(Some));
    for threads in thread_counts {
        for jobs in 0..=40 {
            let runs: Vec<AtomicU32> = (0..jobs).map(|_| AtomicU32::new(0)).collect();
            let out = par_map_ordered(jobs, threads, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                job(i)
            });
            let expected: Vec<u64> = (0..jobs).map(job).collect();
            assert_eq!(out, expected, "jobs {jobs}, threads {threads:?}");
            for (i, n) in runs.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "job {i} of {jobs}, threads {threads:?}");
            }
        }
    }
}
