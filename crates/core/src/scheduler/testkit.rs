//! Test support for the round-cached selection: a greedy event loop that
//! mirrors the engine's round structure, seeded random traces, and the
//! differential check of a scheduler against its per-call-scan oracle.

use super::{Scheduler, SelectContext};
use crate::checked_time;
use crate::model::{JobId, JobMeta, MachineId, OrgId, Time, Trace};
use crate::schedule::{Schedule, ScheduledJob};
use crate::utility::{sp_vector, Util};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Runs `scheduler` over `trace` to the last completion, choosing each
/// organization with `select`. Per event time: completions, then
/// releases, then `select` and `on_start` until no machine is free or no
/// job waits — the engine's round contract.
fn replay<S: Scheduler>(
    trace: &Trace,
    scheduler: &mut S,
    mut select: impl FnMut(&mut S, &SelectContext<'_>) -> OrgId,
) -> Schedule {
    let info = trace.cluster_info();
    scheduler.init(&info);
    let meta = |id: JobId| JobMeta {
        id,
        org: trace.job_orgs()[id.index()],
        release: trace.releases()[id.index()],
    };
    let mut free: Vec<MachineId> = (0..info.n_machines() as u32).map(MachineId).collect();
    let mut queues = vec![VecDeque::new(); trace.n_orgs()];
    let mut waiting = vec![0usize; trace.n_orgs()];
    let mut running = BinaryHeap::new();
    let mut schedule = Schedule::new();
    let mut next = 0;
    loop {
        let release = trace.releases().get(next).copied();
        let completion = running.peek().map(|&Reverse((c, _, _, _))| c);
        let Some(t) = [release, completion].into_iter().flatten().min() else {
            break;
        };
        while let Some(&Reverse((c, machine, job, start))) = running.peek() {
            if c > t {
                break;
            }
            running.pop();
            free.push(machine);
            scheduler.on_complete(t, &meta(job), machine, start);
        }
        while trace.releases().get(next) == Some(&t) {
            let job = meta(JobId(next as u32));
            queues[job.org.index()].push_back(job.id);
            waiting[job.org.index()] += 1;
            scheduler.on_release(t, &job);
            next += 1;
        }
        while !free.is_empty() && waiting.iter().any(|&w| w > 0) {
            let ctx = SelectContext { t, waiting: &waiting, free_machines: &free };
            let org = select(scheduler, &ctx);
            assert!(
                waiting[org.index()] > 0,
                "picked {org:?} with no waiting job at {t}"
            );
            let job = meta(queues[org.index()].pop_front().expect("queue mirrors count"));
            waiting[org.index()] -= 1;
            let machine = free.remove(0);
            let proc_time = trace.proc_times()[job.id.index()];
            running.push(Reverse((
                checked_time::completion(t, proc_time),
                machine,
                job.id,
                t,
            )));
            schedule.push(ScheduledJob {
                job: job.id,
                org,
                machine,
                start: t,
                proc_time,
            });
            scheduler.on_start(t, &job, machine);
        }
    }
    schedule
}

/// A seeded random trace over `k` organizations: `n_jobs` jobs released
/// in `0..=span` with processing times in `1..=max_proc`. Each
/// organization owns 0–3 machines, none with probability `no_machines`
/// (a `Frac` key of ∞); organization 0 keeps at least one.
fn random_trace(
    seed: u64,
    k: usize,
    n_jobs: usize,
    span: Time,
    max_proc: Time,
    no_machines: f64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    let orgs: Vec<OrgId> = (0..k)
        .map(|u| {
            let machines = if u > 0 && rng.random_bool(no_machines) {
                0
            } else {
                rng.random_range(1..4)
            };
            b.org(format!("o{u}"), machines)
        })
        .collect();
    for _ in 0..n_jobs {
        let org = orgs[rng.random_range(0..k)];
        b.job(org, rng.random_range(0..span + 1), rng.random_range(1..max_proc + 1));
    }
    b.build().expect("random trace is valid")
}

/// The trace family of the differential tests, for each `k` in
/// {1, 2, 5, 100}: heavy ties (every job released at 0, all usage 0),
/// zero-machine organizations over a spread of releases, and a long
/// backlog (many more jobs than machines, long jobs).
fn differential_traces() -> Vec<(String, Trace)> {
    let mut out = Vec::new();
    for k in [1usize, 2, 5, 100] {
        for seed in 0..3u64 {
            let s = seed * 1_000 + k as u64;
            out.push((
                format!("ties/k={k}/s={seed}"),
                random_trace(s, k, 6 * k + 8, 0, 4, 0.0),
            ));
            out.push((
                format!("zero/k={k}/s={seed}"),
                random_trace(s, k, 8 * k + 20, 40, 6, 0.4),
            ));
            out.push((
                format!("backlog/k={k}/s={seed}"),
                random_trace(s, k, 20 * k + 40, 10, 30, 0.2),
            ));
        }
    }
    out
}

/// Asserts that `fresh()`'s own `select` and `oracle` produce the same
/// schedule and the same `ψ_sp` at the last completion on every trace of
/// [`differential_traces`].
pub(crate) fn assert_matches_oracle<S: Scheduler>(
    fresh: impl Fn() -> S,
    oracle: impl Fn(&mut S, &SelectContext<'_>) -> OrgId,
) {
    for (name, trace) in differential_traces() {
        let cached = replay(&trace, &mut fresh(), |s, ctx| s.select(ctx));
        let scanned = replay(&trace, &mut fresh(), &oracle);
        assert_eq!(cached.len(), trace.n_jobs(), "{name}: every job runs");
        assert_eq!(scanned.len(), trace.n_jobs(), "{name}: every job runs");
        if let Some(i) =
            (0..cached.len()).find(|&i| cached.entries()[i] != scanned.entries()[i])
        {
            panic!(
                "{name}: {} diverged from the per-call scan at entry {i}: {:?} vs {:?}",
                fresh().name(),
                cached.entries()[i],
                scanned.entries()[i]
            );
        }
        let end = cached.entries().iter().map(|e| e.completion()).max().unwrap_or(0);
        let psi: Vec<Util> = sp_vector(&trace, &cached, end);
        assert_eq!(psi, sp_vector(&trace, &scanned, end), "{name}: ψ");
    }
}
