//! Per-organization counts of a schedule at a horizon (completed jobs,
//! flow and waiting time, stretch, executed units): the one sweep behind
//! the `completed`, `flow`, `waiting`, `units`, `stretch` and
//! `utilization` metric factories of [`crate::report`].

use fairsched_core::model::{OrgId, Time, Trace};
use fairsched_core::schedule::Schedule;

/// Per-organization aggregate metrics of a (partial) schedule at a horizon.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct OrgMetrics {
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
pub(crate) fn org_metrics(
    trace: &Trace,
    schedule: &Schedule,
    horizon: Time,
) -> Vec<OrgMetrics> {
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
}
