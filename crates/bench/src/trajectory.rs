//! The unfairness-trajectory experiment: `Δψ(t)/p_tot(t)` *per sample
//! time* for each algorithm on one workload — the time axis the paper's
//! Definition 3.1 demands ("fair at every time moment") that the endpoint
//! tables (1–2) cannot show.
//!
//! Each algorithm's trajectory is evaluated through the metric-registry
//! pipeline (`timeline:samples=N` over a [`Simulation`] session, the REF
//! reference run automatically), so the numbers are the same ones the CLI
//! and grid sweeps report; the final point of every trajectory equals the
//! algorithm's Table 1-style `delay` cell bit for bit.

use crate::runner::Algo;
use fairsched_core::model::Time;
use fairsched_sim::report::{csv_field, render_time_table, TimeSeriesColumn};
use fairsched_sim::{SimError, Simulation};
use fairsched_workloads::spec::WorkloadSpec;

/// Configuration of one trajectory experiment: one workload, one sample
/// grid, many algorithms.
#[derive(Clone, Debug)]
pub struct TrajectoryExperiment {
    /// The workload spec (built through the shared registry with `seed`).
    pub workload: WorkloadSpec,
    /// Evaluation horizon (also the final sample time).
    pub horizon: Time,
    /// Workload/scheduler seed.
    pub seed: u64,
    /// Requested sample count (the emitted grid dedups to at most this
    /// many strictly increasing times in `(0, horizon]`).
    pub samples: usize,
    /// Algorithms to trace.
    pub algos: Vec<Algo>,
}

/// One algorithm's measured trajectory.
#[derive(Clone, Debug)]
pub struct TrajectoryRow {
    /// The algorithm's display label.
    pub label: String,
    /// Its full time series (per-organization values included).
    pub series: TimeSeriesColumn,
}

/// The experiment outcome: a shared sample grid and one row per
/// algorithm.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// The canonical `timeline` spec the rows were evaluated with.
    pub metric: String,
    /// The workload the trajectories ran on.
    pub workload: String,
    /// The shared sample times.
    pub times: Vec<Time>,
    /// One trajectory per algorithm, in request order.
    pub rows: Vec<TrajectoryRow>,
}

/// Runs the trajectory experiment through the session + metric-registry
/// pipeline.
pub fn run_trajectory(exp: &TrajectoryExperiment) -> Result<Trajectory, SimError> {
    let metric = format!("timeline:samples={}", exp.samples);
    let session = Simulation::session()
        .workload_spec(exp.workload.clone())
        .horizon(exp.horizon)
        .seed(exp.seed)
        .metrics(&[metric.as_str()])?;
    let specs: Vec<_> = exp.algos.iter().map(Algo::spec).collect();
    let reports = session.run_matrix_reports(&specs)?;
    let rows: Vec<TrajectoryRow> = exp
        .algos
        .iter()
        .zip(reports)
        .map(|(algo, report)| TrajectoryRow {
            label: algo.label(),
            series: report.series.first().cloned().expect("timeline evaluates a series"),
        })
        .collect();
    let times = rows.first().map(|r| r.series.times.clone()).unwrap_or_default();
    Ok(Trajectory { metric, workload: exp.workload.to_string(), times, rows })
}

impl Trajectory {
    /// A paper-figure-style aligned table: one row per sample time, one
    /// column per algorithm, the cluster aggregate `Δψ(t)/p_tot(t)` in
    /// each cell (3 significant digits; the machine sinks carry exact
    /// values).
    pub fn render(&self) -> String {
        let mut out = format!(
            "unfairness trajectory — {} on {} ({} points)\n",
            self.metric,
            self.workload,
            self.times.len()
        );
        let labels: Vec<&str> = self.rows.iter().map(|r| r.label.as_str()).collect();
        let columns: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.series.aggregate.iter().map(|v| v.render_sig()).collect::<Vec<_>>()
            })
            .collect();
        out.push_str(&render_time_table(&self.times, &labels, &columns));
        out
    }

    /// CSV: `t` plus one exact-valued aggregate column per algorithm.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t");
        for r in &self.rows {
            out.push(',');
            out.push_str(&csv_field(&r.label));
        }
        out.push('\n');
        for (i, t) in self.times.iter().enumerate() {
            out.push_str(&t.to_string());
            for r in &self.rows {
                out.push(',');
                out.push_str(&r.series.aggregate[i].render());
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON with exact round-trippable values:
    /// provenance (`metric`, `workload`), the shared `times`, and per
    /// algorithm the aggregate trajectory plus the final point.
    pub fn to_json(&self) -> String {
        use serde::Value;
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("label".to_string(), Value::String(r.label.clone())),
                    (
                        "aggregate".to_string(),
                        Value::Array(
                            r.series
                                .aggregate
                                .iter()
                                .map(serde::Serialize::to_value)
                                .collect(),
                        ),
                    ),
                    (
                        "final".to_string(),
                        r.series
                            .final_aggregate()
                            .as_ref()
                            .map(serde::Serialize::to_value)
                            .unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("metric".to_string(), Value::String(self.metric.clone())),
            ("workload".to_string(), Value::String(self.workload.clone())),
            (
                "times".to_string(),
                Value::Array(
                    self.times.iter().map(|t| Value::Number(t.to_string())).collect(),
                ),
            ),
            ("rows".to_string(), Value::Array(rows)),
        ])
        .to_json_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DelayExperiment;
    use fairsched_core::scheduler::registry::Registry;
    use fairsched_sim::report::MetricValue;

    fn tiny() -> TrajectoryExperiment {
        TrajectoryExperiment {
            workload: "fpt:horizon=600,k=2".parse().unwrap(),
            horizon: 600,
            seed: 7,
            samples: 8,
            algos: vec![Algo::RoundRobin, Algo::FairShare],
        }
    }

    #[test]
    fn trajectory_runs_and_renders() {
        let t = run_trajectory(&tiny()).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(*t.times.last().unwrap(), 600);
        assert!(t.times.windows(2).all(|w| w[0] < w[1]));
        for r in &t.rows {
            assert_eq!(r.series.times, t.times);
            assert_eq!(r.series.aggregate.len(), t.times.len());
        }
        let table = t.render();
        assert!(table.contains("RoundRobin"));
        assert!(table.contains("FairShare"));
        let csv = t.to_csv();
        assert!(csv.starts_with("t,RoundRobin,FairShare"));
        assert_eq!(csv.lines().count(), 1 + t.times.len());
        let json = t.to_json();
        assert!(json.contains("timeline:samples=8"));
        assert!(json.contains("\"final\""));
    }

    /// The trajectory's final point is the Table 1-style delay cell.
    #[test]
    fn trajectory_endpoint_matches_delay_experiment() {
        let t = run_trajectory(&tiny()).unwrap();
        let exp = DelayExperiment {
            workload: "fpt:horizon=600,k=2".parse().unwrap(),
            horizon: 600,
            n_instances: 1,
            base_seed: 7,
            algos: vec![Algo::RoundRobin, Algo::FairShare],
            metric: DelayExperiment::delay_metric(),
        };
        let delays = crate::runner::run_instance(&exp, 7, Registry::shared()).unwrap();
        for (row, (label, delay)) in t.rows.iter().zip(&delays) {
            assert_eq!(&row.label, label);
            let final_point = row.series.final_aggregate().unwrap();
            match final_point {
                MetricValue::Float(v) => assert_eq!(
                    v.to_bits(),
                    delay.to_bits(),
                    "trajectory endpoint drifted for {label}"
                ),
                other => panic!("unfairness must be a float, got {other:?}"),
            }
        }
    }
}
