//! Order-preserving parallel map on `std::thread::scope` scoped threads —
//! the workspace's one thread fan-out.
//!
//! Experiment instances (one seeded workload × every scheduler) are
//! independent, so the delay-experiment runner and the `fpras` and
//! `ablation` binaries map them over worker threads. Everything inside an
//! instance, the session's matrix and grid forms included, runs serially,
//! so maps never nest. Scoped std threads need no dependency.

use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item on up to `available_parallelism` worker
/// threads, preserving input order in the output. A panic in `f` is
/// re-raised on the calling thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers =
        std::thread::available_parallelism().map_or(1, |p| p.get()).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each worker pulls the next (index, item) off one shared iterator.
    // `f` runs outside the lock, and a `next()` call leaves the iterator
    // valid, so a poisoned lock still guards consistent data.
    let inputs = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next =
                            inputs.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| match handle.join() {
                Ok(done) => done,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![41], |x: i32| x + 1), vec![42]);
    }

    #[test]
    fn heavy_closure_state_is_shared_immutably() {
        let table: Vec<u64> = (0..1000).collect();
        let out = parallel_map((0..50).collect(), |i: usize| table[i * 10]);
        assert_eq!(out[5], 50);
        assert_eq!(out[49], 490);
    }

    #[test]
    #[should_panic(expected = "item 7 failed")]
    fn a_worker_panic_reaches_the_caller() {
        parallel_map((0..16).collect(), |i: i32| {
            assert_ne!(i, 7, "item {i} failed");
            i
        });
    }
}
