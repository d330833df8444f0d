//! Schedule metrics beyond `ψ_sp`: per-organization flow time, waiting
//! time, stretch, and utilization breakdowns.

use fairsched_core::model::{OrgId, Time, Trace};
use fairsched_core::schedule::Schedule;

/// Per-organization aggregate metrics of a (partial) schedule at a horizon.
#[derive(Clone, Debug, PartialEq)]
pub struct OrgMetrics {
    /// The organization.
    pub org: OrgId,
    /// Completed jobs.
    pub completed: usize,
    /// Total flow time (completion − release) of completed jobs.
    pub flow_time: Time,
    /// Total waiting time (start − release) of started jobs.
    pub waiting_time: Time,
    /// Mean stretch (flow / processing time) of completed jobs, 0 if none.
    pub mean_stretch: f64,
    /// Unit parts executed before the horizon.
    pub units: Time,
}

/// Computes [`OrgMetrics`] for every organization.
pub fn org_metrics(trace: &Trace, schedule: &Schedule, horizon: Time) -> Vec<OrgMetrics> {
    let mut out: Vec<OrgMetrics> = (0..trace.n_orgs())
        .map(|u| OrgMetrics {
            org: OrgId(u as u32),
            completed: 0,
            flow_time: 0,
            waiting_time: 0,
            mean_stretch: 0.0,
            units: 0,
        })
        .collect();
    let mut stretch_sums = vec![0.0f64; trace.n_orgs()];
    for e in schedule.entries() {
        let m = &mut out[e.org.index()];
        let release = trace.job(e.job).release;
        m.units += e.units_before(horizon);
        if e.start <= horizon {
            m.waiting_time += e.start - release;
        }
        if e.completion() <= horizon {
            m.completed += 1;
            m.flow_time += e.completion() - release;
            stretch_sums[e.org.index()] +=
                (e.completion() - release) as f64 / e.proc_time as f64;
        }
    }
    for (m, s) in out.iter_mut().zip(stretch_sums) {
        if m.completed > 0 {
            m.mean_stretch = s / m.completed as f64;
        }
    }
    out
}

/// The machine-time upper bound on completed units by `horizon`:
/// `min(m·horizon, Σ_j min(p_j, horizon − r_j))`. No schedule — greedy or
/// not — can complete more; used to bound optimal utilization in the
/// Theorem 6.2 experiments.
pub fn units_upper_bound(trace: &Trace, n_machines: usize, horizon: Time) -> Time {
    let work: Time = trace
        .jobs()
        .iter()
        .map(|j| j.proc_time.min(horizon.saturating_sub(j.release)))
        .sum();
    work.min((n_machines as Time).saturating_mul(horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_core::model::Trace;
    use fairsched_core::scheduler::FifoScheduler;

    fn run() -> (Trace, Schedule) {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 4).job(c, 1, 2);
        let trace = b.build().unwrap();
        let r = crate::run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            crate::SimOptions { horizon: 100, validate: false },
        )
        .expect("valid run");
        (trace, r.schedule)
    }

    #[test]
    fn per_org_flow_and_waiting() {
        let (trace, schedule) = run();
        let m = org_metrics(&trace, &schedule, 100);
        // Each org has its own machine: both start at release.
        assert_eq!(m[0].completed, 1);
        assert_eq!(m[0].flow_time, 4);
        assert_eq!(m[0].waiting_time, 0);
        assert_eq!(m[1].flow_time, 2);
        assert_eq!(m[0].units, 4);
        assert!((m[0].mean_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn horizon_truncates_metrics() {
        let (trace, schedule) = run();
        let m = org_metrics(&trace, &schedule, 2);
        assert_eq!(m[0].completed, 0);
        assert_eq!(m[0].units, 2);
    }

    #[test]
    fn upper_bound_formula() {
        let (trace, _) = run();
        // horizon 3: job a contributes min(4,3)=3; job b min(2,2)=2 -> 5,
        // capped by 2 machines * 3 = 6 -> 5.
        assert_eq!(units_upper_bound(&trace, 2, 3), 5);
        // horizon 1: a: 1, b: 0 -> 1, cap 2 -> 1.
        assert_eq!(units_upper_bound(&trace, 2, 1), 1);
        // tiny machine cap.
        assert_eq!(units_upper_bound(&trace, 1, 3), 3);
    }
}
