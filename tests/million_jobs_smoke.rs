//! The million-job scale smoke test.
//!
//! Builds the bench scale-tier workload (≥ 10⁶ short jobs, 100
//! organizations on 400 machines — `fairsched_bench::baseline`'s
//! `scale/` rows measure the same trace), schedules it end to end with
//! the non-lattice schedulers, and checks the properties the columnar
//! trace refactor must preserve at scale:
//!
//! * every structural schedule invariant holds (release respected, no
//!   machine overlap, per-organization FIFO, no-idle);
//! * the engine's incrementally tracked ψ-vector agrees exactly with a
//!   from-scratch [`sp_vector`] recompute over the final schedule;
//! * the whole build → schedule → evaluate pipeline stays inside a
//!   generous wall-clock ceiling, so an accidental return of an O(n²)
//!   path fails loudly instead of silently slowing CI. An O(n·k) path at
//!   k = 100 costs only 2–3× (per-start `select` scans did, until keys
//!   were cached per event time); the `scale/*` rows of the bench gate
//!   catch that, not this ceiling.
//!
//! `#[ignore]` by default — a 10⁶-job trace is not unit-test sized; CI's
//! `bench-smoke` job runs it in release (`cargo test --release --
//! --ignored million_jobs`), where the pipeline takes single-digit
//! seconds.

use fairsched::core::scheduler::{FairShareScheduler, FifoScheduler, Scheduler};
use fairsched::core::utility::sp_vector;
use fairsched::sim::{run_scheduler, SimOptions};
use fairsched_bench::baseline::{scale_workload, SCALE_K, SCALE_MIN_JOBS, SCALE_SEED};
use std::time::{Duration, Instant};

/// Wall-clock ceiling for build + two full schedule/evaluate runs. The
/// release-build pipeline takes ~3 s on a developer machine; 120 s leaves
/// an order of magnitude for slow CI runners while still catching a
/// quadratic path (which would take hours at n = 10⁶).
const WALL_CEILING: Duration = Duration::from_secs(120);

#[test]
#[ignore = "10^6-job pipeline (~seconds in release); run in CI bench-smoke via --ignored"]
fn million_jobs_smoke() {
    let started = Instant::now();

    let trace = scale_workload(SCALE_SEED);
    assert!(
        trace.n_jobs() >= SCALE_MIN_JOBS,
        "scale workload must stay million-job sized, got {}",
        trace.n_jobs()
    );
    assert_eq!(trace.n_orgs(), SCALE_K);
    trace.validate().expect("scale trace upholds every model invariant");
    // Generous horizon: every job can finish (event-driven engine, so the
    // empty tail costs nothing).
    let horizon = trace.completion_horizon();

    let mut schedulers: Vec<Box<dyn Scheduler>> =
        vec![Box::new(FifoScheduler::new()), Box::new(FairShareScheduler::new())];
    for scheduler in &mut schedulers {
        let result = run_scheduler(
            &trace,
            scheduler.as_mut(),
            SimOptions { horizon, validate: false },
        )
        .expect("engine contract holds at scale");
        assert_eq!(
            result.completed_jobs,
            trace.n_jobs(),
            "{}: all jobs finish under the completion horizon",
            result.scheduler
        );
        result
            .schedule
            .validate(&trace, horizon)
            .expect("schedule upholds every structural invariant");
        // The engine's incrementally maintained ψ must agree exactly with
        // the from-scratch recompute over the final schedule.
        let recomputed = sp_vector(&trace, &result.schedule, horizon);
        assert_eq!(
            result.psi, recomputed,
            "{}: tracked ψ-vector diverged from sp_vector recompute",
            result.scheduler
        );
    }

    let elapsed = started.elapsed();
    assert!(
        elapsed < WALL_CEILING,
        "million-job pipeline took {elapsed:?} (ceiling {WALL_CEILING:?}) — \
         a quadratic path is back"
    );
}
