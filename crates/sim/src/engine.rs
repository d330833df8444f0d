//! The event-driven simulation engine.

use crate::cluster::Cluster;
use crate::session::SimError;
use fairsched_core::checked_time;
use fairsched_core::model::{JobId, JobMeta, MachineId, Time, Trace};
use fairsched_core::schedule::{Schedule, ScheduledJob};
use fairsched_core::scheduler::{Scheduler, SelectContext};
use fairsched_core::utility::{sp_vector, Util};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Engine options.
#[derive(Copy, Clone, Debug)]
pub struct SimOptions {
    /// Simulation stops once the next event time exceeds the horizon;
    /// utilities and metrics are evaluated at the horizon.
    pub horizon: Time,
    /// Validate the produced schedule against every model invariant
    /// (including greediness) before returning. A sorted event sweep —
    /// `O(n log n)` in jobs + entries — cheap enough for paper-scale
    /// runs.
    pub validate: bool,
}

/// The outcome of a simulation run.
#[derive(Clone, Debug, Serialize)]
pub struct SimResult {
    /// The scheduler's display name.
    pub scheduler: String,
    /// All started jobs.
    pub schedule: Schedule,
    /// The evaluation horizon.
    pub horizon: Time,
    /// Exact `ψ_sp` per organization at the horizon.
    pub psi: Vec<Util>,
    /// Busy machine time in `[0, horizon)` (= completed unit parts).
    pub busy_time: Time,
    /// Resource utilization `busy / (m·horizon)` (Section 6's metric).
    pub utilization: f64,
    /// Jobs started by the horizon.
    pub started_jobs: usize,
    /// Jobs completed by the horizon.
    pub completed_jobs: usize,
}

impl SimResult {
    /// The coalition value `v = Σ_u ψ_sp(u)` at the horizon.
    pub fn coalition_value(&self) -> Util {
        self.psi.iter().sum()
    }
}

/// Runs `scheduler` over `trace`, reporting failures as [`SimError`]s.
///
/// The engine is the trusted component enforcing the paper's model:
///
/// * **online** — jobs are revealed to the scheduler at their release time;
/// * **non-clairvoyant** — the scheduler receives [`fairsched_core::JobMeta`]
///   (no processing time); completions reveal durations implicitly;
/// * **per-organization FIFO** — the engine always starts the selected
///   organization's oldest waiting job;
/// * **greedy** — while a machine is free and a job waits, the scheduler
///   *must* select (its contract), and the engine starts the job;
/// * **non-preemptive** — started jobs run to completion.
///
/// # Errors
///
/// * [`SimError::InvalidTrace`] — the trace fails validation;
/// * [`SimError::BadSelection`] — the scheduler selected an organization
///   with no waiting jobs (a scheduler bug);
/// * [`SimError::BadMachinePick`] — the scheduler picked a machine index
///   outside the free list (a scheduler bug; previously this was silently
///   coerced to machine 0);
/// * [`SimError::InvalidSchedule`] — with `validate`, the produced
///   schedule violates a model invariant.
pub fn run_scheduler(
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    options: SimOptions,
) -> Result<SimResult, SimError> {
    let mut state = EngineState::new(trace, scheduler)?;
    state.step(trace, scheduler, options.horizon)?;
    state.into_result(trace, scheduler, options)
}

/// The resumable core of the engine: the complete event-loop position of
/// a run in progress, factored out of [`run_scheduler`] so online
/// sessions ([`SimSession`](crate::SimSession)) can advance a run in
/// increments and admit jobs between steps while sharing the batch
/// engine's exact loop (bit-identical schedules, pinned by the goldens).
///
/// Invariant after [`EngineState::step`]`(until)`: every release and
/// completion event with time `<= until` has been processed, so
/// `releases[next_release] > stepped_to` — which is what makes mid-run
/// admission of a job with `release > stepped_to` safe: its insertion
/// position is at or past `next_release`, and only ids of unreleased
/// (never observed) jobs shift.
#[derive(Clone, Debug)]
pub(crate) struct EngineState {
    cluster: Cluster,
    waiting: Vec<VecDeque<JobId>>,
    waiting_counts: Vec<usize>,
    total_waiting: usize,
    /// Completion events: (time, machine).
    completions: BinaryHeap<Reverse<(Time, u32)>>,
    schedule: Schedule,
    completed_jobs: usize,
    next_release: usize,
    stepped_to: Option<Time>,
}

impl EngineState {
    /// Validates the trace, initializes the scheduler, and returns the
    /// ready-to-step state (no events processed yet).
    pub(crate) fn new(
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
    ) -> Result<Self, SimError> {
        trace.validate().map_err(SimError::InvalidTrace)?;
        let info = trace.cluster_info();
        scheduler.init(&info);
        Ok(EngineState {
            cluster: Cluster::new(&info),
            waiting: vec![VecDeque::new(); trace.n_orgs()],
            waiting_counts: vec![0; trace.n_orgs()],
            total_waiting: 0,
            completions: BinaryHeap::new(),
            schedule: Schedule::new(),
            completed_jobs: 0,
            next_release: 0,
            stepped_to: None,
        })
    }

    /// The largest `until` stepped to so far (`None` before any step).
    pub(crate) fn stepped_to(&self) -> Option<Time> {
        self.stepped_to
    }

    /// The schedule built so far.
    pub(crate) fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Jobs completed so far.
    pub(crate) fn completed_jobs(&self) -> usize {
        self.completed_jobs
    }

    /// Advances the event loop until the next event time would exceed
    /// `until`, then records `until` as stepped-to. Stepping to an
    /// earlier `until` than a previous step is a no-op (all events up to
    /// the high-water mark are already processed).
    pub(crate) fn step(
        &mut self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        until: Time,
    ) -> Result<(), SimError> {
        // The loop and the scheduler callbacks read the raw columns; no
        // full `Job` (deadline included) is assembled per event.
        let releases = trace.releases();
        let job_orgs = trace.job_orgs();
        let proc_times = trace.proc_times();
        let meta = |id: JobId| JobMeta {
            id,
            org: job_orgs[id.index()],
            release: releases[id.index()],
        };

        loop {
            // Next event time: the earlier of the next release and completion.
            let release_t = releases.get(self.next_release).copied();
            let completion_t = self.completions.peek().map(|Reverse((t, _))| *t);
            let t = match (release_t, completion_t) {
                (None, None) => break,
                (Some(r), None) => r,
                (None, Some(c)) => c,
                (Some(r), Some(c)) => r.min(c),
            };
            if t > until {
                break;
            }

            // 1. Completions at t free machines.
            while let Some(&Reverse((ct, machine))) = self.completions.peek() {
                if ct > t {
                    break;
                }
                self.completions.pop();
                let machine = MachineId(machine);
                let (job, start) = self.cluster.complete(machine);
                self.completed_jobs += 1;
                scheduler.on_complete(t, &meta(job), machine, start);
            }

            // 2. Releases at t enter the queues.
            while self.next_release < releases.len() && releases[self.next_release] == t {
                let org = job_orgs[self.next_release];
                let id = JobId(self.next_release as u32);
                self.waiting[org.index()].push_back(id);
                self.waiting_counts[org.index()] += 1;
                self.total_waiting += 1;
                scheduler.on_release(t, &JobMeta { id, org, release: t });
                self.next_release += 1;
            }

            // 3. Greedy scheduling loop at t.
            while self.cluster.has_free() && self.total_waiting > 0 {
                let org = {
                    let ctx = SelectContext {
                        t,
                        waiting: &self.waiting_counts,
                        free_machines: self.cluster.free_machines(),
                    };
                    scheduler.select(&ctx)
                };
                // Out-of-range ids and empty-queue picks are the same contract
                // violation; the bounds check keeps this a typed error rather
                // than an index panic.
                if self.waiting_counts.get(org.index()).copied().unwrap_or(0) == 0 {
                    return Err(SimError::BadSelection {
                        scheduler: scheduler.name(),
                        org,
                        t,
                    });
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the waiting count checked above is positive and mirrors the queue"
                )]
                let job_id =
                    self.waiting[org.index()].pop_front().expect("count/queue mismatch");
                self.waiting_counts[org.index()] -= 1;
                self.total_waiting -= 1;
                let job = meta(job_id);
                let proc_time = proc_times[job_id.index()];

                let machine_idx = {
                    let ctx = SelectContext {
                        t,
                        waiting: &self.waiting_counts,
                        free_machines: self.cluster.free_machines(),
                    };
                    match scheduler.pick_machine(&ctx, &job) {
                        None => 0,
                        Some(i) if i < self.cluster.free_machines().len() => i,
                        Some(i) => {
                            return Err(SimError::BadMachinePick {
                                scheduler: scheduler.name(),
                                picked: i,
                                free: self.cluster.free_machines().len(),
                                t,
                            })
                        }
                    }
                };
                let machine = self.cluster.start(machine_idx, job_id, t);
                self.completions
                    .push(Reverse((checked_time::completion(t, proc_time), machine.0)));
                self.schedule.push(ScheduledJob {
                    job: job_id,
                    org: job.org,
                    machine,
                    start: t,
                    proc_time,
                });
                scheduler.on_start(t, &job, machine);
            }
        }

        self.stepped_to = Some(self.stepped_to.map_or(until, |s| s.max(until)));
        Ok(())
    }

    /// Evaluates the run at `options.horizon`, consuming the state. The
    /// scheduler is only consulted for its display name.
    pub(crate) fn into_result(
        self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        options: SimOptions,
    ) -> Result<SimResult, SimError> {
        let info = trace.cluster_info();
        let horizon = options.horizon;
        if options.validate {
            if let Err(violation) =
                self.schedule.validate_with_info(trace, &info, horizon)
            {
                return Err(SimError::InvalidSchedule {
                    scheduler: scheduler.name(),
                    violation,
                });
            }
        }

        let psi = sp_vector(trace, &self.schedule, horizon);
        let busy_time = self.schedule.busy_time(horizon);
        Ok(SimResult {
            scheduler: scheduler.name(),
            utilization: self.schedule.utilization(info.n_machines(), horizon),
            started_jobs: self.schedule.len(),
            schedule: self.schedule,
            horizon,
            psi,
            busy_time,
            completed_jobs: self.completed_jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_core::model::{JobMeta, OrgId};
    use fairsched_core::scheduler::{
        CurrFairShareScheduler, DirectContrScheduler, FairShareScheduler, FifoScheduler,
        GeneralRefScheduler, RandScheduler, RandomScheduler, RefScheduler,
        RoundRobinScheduler, UtFairShareScheduler,
    };
    use fairsched_core::utility::sp_value;
    use fairsched_core::utility::{FlowTime, SpUtility};

    fn small_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
        b.build().unwrap()
    }

    #[test]
    fn single_machine_fifo_schedule() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 2).job(a, 0, 3).job(a, 10, 1);
        let trace = b.build().unwrap();
        let r = run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            SimOptions { horizon: 100, validate: true },
        )
        .expect("valid run");
        let starts: Vec<Time> = r.schedule.entries().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![0, 2, 10]);
        assert_eq!(r.completed_jobs, 3);
        assert_eq!(r.busy_time, 6);
        assert_eq!(
            r.psi[0],
            sp_value(0, 2, 100) + sp_value(2, 3, 100) + sp_value(10, 1, 100)
        );
    }

    #[test]
    fn horizon_cuts_schedule() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 10).job(a, 0, 10);
        let trace = b.build().unwrap();
        let r = run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            SimOptions { horizon: 5, validate: false },
        )
        .expect("valid run");
        // Only the first job started (second would start at 10 > horizon).
        assert_eq!(r.started_jobs, 1);
        assert_eq!(r.completed_jobs, 0);
        assert_eq!(r.busy_time, 5);
        assert!((r.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_schedulers_produce_valid_schedules() {
        let trace = small_trace();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FifoScheduler::new()),
            Box::new(RoundRobinScheduler::new()),
            Box::new(RandomScheduler::new(1)),
            Box::new(FairShareScheduler::new()),
            Box::new(UtFairShareScheduler::new()),
            Box::new(CurrFairShareScheduler::new()),
            Box::new(DirectContrScheduler::new(2)),
            Box::new(RefScheduler::new(&trace)),
            Box::new(RandScheduler::new(&trace, 10, 3)),
            Box::new(GeneralRefScheduler::new(&trace, SpUtility)),
            Box::new(GeneralRefScheduler::new(&trace, FlowTime)),
        ];
        for s in schedulers.iter_mut() {
            let r = run_scheduler(
                &trace,
                s.as_mut(),
                SimOptions { horizon: 50, validate: true },
            )
            .expect("valid run");
            assert_eq!(r.started_jobs, 4, "{} must start all jobs", r.scheduler);
            assert_eq!(r.completed_jobs, 4);
        }
    }

    #[test]
    fn greedy_engine_never_idles_with_waiting_jobs() {
        // 2 machines, burst of 6 jobs: busy time must be the full work.
        let mut b = Trace::builder();
        let a = b.org("a", 2);
        b.jobs(a, 0, 5, 6);
        let trace = b.build().unwrap();
        let r = run_scheduler(
            &trace,
            &mut RoundRobinScheduler::new(),
            SimOptions { horizon: 15, validate: true },
        )
        .expect("valid run");
        // 6 jobs × 5 on 2 machines = exactly 15 each machine: full util.
        assert!((r.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ref_and_rand_agree_with_engine_on_psi() {
        // The scheduler-internal trackers must agree with the engine's
        // closed-form evaluation.
        let trace = small_trace();
        let mut r = RefScheduler::new(&trace);
        let result =
            run_scheduler(&trace, &mut r, SimOptions { horizon: 30, validate: false })
                .expect("valid run");
        assert_eq!(r.psi(30), result.psi);
    }

    #[test]
    fn empty_trace_rejected() {
        let mut b = Trace::builder();
        b.org("a", 1);
        let trace = b.build().unwrap();
        let r = run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            SimOptions { horizon: 10, validate: false },
        )
        .expect("valid run");
        assert_eq!(r.started_jobs, 0);
        assert_eq!(r.utilization, 0.0);
    }

    #[test]
    fn deterministic_reruns() {
        let trace = small_trace();
        let run = |seed: u64| {
            let mut s = DirectContrScheduler::new(seed);
            let r = run_scheduler(
                &trace,
                &mut s,
                SimOptions { horizon: 40, validate: false },
            )
            .expect("valid run");
            r.schedule.entries().to_vec()
        };
        assert_eq!(run(5), run(5));
    }

    /// A scheduler that deliberately picks a machine index past the free
    /// list, exercising the `BadMachinePick` engine guard.
    struct OutOfRangePicker;

    impl Scheduler for OutOfRangePicker {
        fn name(&self) -> String {
            "OutOfRangePicker".into()
        }

        fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
            ctx.waiting_orgs().next().expect("greedy contract")
        }

        fn pick_machine(
            &mut self,
            ctx: &SelectContext<'_>,
            _job: &JobMeta,
        ) -> Option<usize> {
            Some(ctx.free_machines.len() + 3)
        }
    }

    /// A scheduler that selects an organization with no waiting jobs.
    struct BadSelector;

    impl Scheduler for BadSelector {
        fn name(&self) -> String {
            "BadSelector".into()
        }

        fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
            // Deliberately pick an org without waiting jobs.
            let busy = ctx.waiting_orgs().next().expect("greedy contract");
            OrgId(((busy.index() + 1) % ctx.waiting.len()) as u32)
        }
    }

    /// A scheduler that returns an organization id past the org count.
    struct OutOfRangeSelector;

    impl Scheduler for OutOfRangeSelector {
        fn name(&self) -> String {
            "OutOfRangeSelector".into()
        }

        fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
            OrgId(ctx.waiting.len() as u32 + 7)
        }
    }

    #[test]
    fn out_of_range_machine_pick_is_error_not_machine_zero() {
        let trace = small_trace();
        let err = run_scheduler(
            &trace,
            &mut OutOfRangePicker,
            SimOptions { horizon: 50, validate: false },
        );
        match err {
            Err(SimError::BadMachinePick { scheduler, picked, free, t }) => {
                assert_eq!(scheduler, "OutOfRangePicker");
                assert!(picked >= free, "picked {picked} must be >= free {free}");
                assert_eq!(t, 0);
            }
            other => panic!("expected BadMachinePick, got {other:?}"),
        }
    }

    #[test]
    fn ungreedy_selection_is_error() {
        // One org floods the single machine; BadSelector names the other.
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.org("idle", 1);
        b.jobs(a, 0, 2, 3);
        let trace = b.build().unwrap();
        let err = run_scheduler(
            &trace,
            &mut BadSelector,
            SimOptions { horizon: 20, validate: false },
        );
        match err {
            Err(SimError::BadSelection { scheduler, org, .. }) => {
                assert_eq!(scheduler, "BadSelector");
                assert_eq!(org, OrgId(1));
            }
            other => panic!("expected BadSelection, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_org_selection_is_error_not_index_panic() {
        let trace = small_trace();
        let err = run_scheduler(
            &trace,
            &mut OutOfRangeSelector,
            SimOptions { horizon: 20, validate: false },
        );
        match err {
            Err(SimError::BadSelection { scheduler, org, .. }) => {
                assert_eq!(scheduler, "OutOfRangeSelector");
                assert!(org.index() >= trace.n_orgs());
            }
            other => panic!("expected BadSelection, got {other:?}"),
        }
    }

    #[test]
    fn in_range_machine_picks_still_honored() {
        // DirectContr randomizes machine choice within range; the engine
        // must accept those picks (regression guard for the new check).
        let trace = small_trace();
        let r = run_scheduler(
            &trace,
            &mut DirectContrScheduler::new(3),
            SimOptions { horizon: 50, validate: true },
        )
        .expect("valid run");
        assert_eq!(r.completed_jobs, 4);
    }
}
