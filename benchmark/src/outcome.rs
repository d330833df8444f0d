//! What one run reports: operations attempted and failed, and its metrics.
//! The metric tables here name every metric of `BENCHMARK.json` with its
//! unit; a unit test holds the two in agreement.

use serde::Value;

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every workload reports each of them from its traced
/// pass; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.jobs", "count"),
    ("workloads.swf.stream_s", "s"),
    ("workloads.swf.records_per_s", "1/s"),
    ("core.scheduler.build_s", "s"),
    ("core.scheduler.select_s", "s"),
    ("core.scheduler.select_calls", "count"),
    ("core.scheduler.hooks_s", "s"),
    ("core.scheduler.hooks_calls", "count"),
    ("core.lattice.settles", "count"),
    ("core.lattice.rounds", "count"),
    ("core.lattice.sim_starts", "count"),
    ("core.lattice.phi_cache_hits", "count"),
    ("core.lattice.phi_recomputes", "count"),
    ("core.lattice.phi_deltas_applied", "count"),
    ("core.lattice.phi_evictions", "count"),
    ("core.lattice.phi_hit_ratio", "ratio"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.report.evaluate_s", "s"),
    ("sim.report.render_json_s", "s"),
    ("sim.report.json_bytes", "bytes"),
    ("sim.stepper.step_s", "s"),
    ("sim.stepper.admit_s", "s"),
    ("sim.stepper.snapshot_s", "s"),
    ("sim.stepper.snapshot_bytes", "bytes"),
    ("sim.stepper.restore_s", "s"),
    ("core.journal.atomic_write_s", "s"),
    ("core.journal.atomic_write_mb_per_s", "MB/s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_tail_ms", "ms"),
    ("serve.queue.submit_s", "s"),
    ("serve.daemon.drain_s", "s"),
    ("serve.daemon.persist_first_ms", "ms"),
    ("serve.daemon.persist_last_ms", "ms"),
    ("serve.daemon.persist_growth", "ratio"),
    ("serve.daemon.drain_minus_persist_s", "s"),
    ("serve.daemon.open_s", "s"),
    ("serve.daemon.rejected", "count"),
    ("serve.http.get_status_ms", "ms"),
    ("experiment.runner.run_s", "s"),
    ("experiment.compute_cell_s", "s"),
    ("experiment.commit_est_s", "s"),
    ("experiment.cells", "count"),
    ("experiment.cells_skipped", "count"),
    ("experiment.resume_run_s", "s"),
    ("experiment.report_bytes", "bytes"),
    ("cli.spawn_overhead_s", "s"),
    ("cli.rand_unfairness", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.self_time_coverage", "ratio"),
];

struct Metric {
    name: &'static str,
    value: f64,
    samples: usize,
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one attempted operation; a failed one is counted and its
    /// reason printed to stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(reason) = &result {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
        result.is_ok()
    }

    /// Reports `name` as `value`, taken over `samples` samples. A value
    /// that is not a number (a ratio over nothing) reads 0, as an
    /// unmeasured metric does.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, samples });
    }

    /// Reports `name` as the median of `values`.
    pub fn put_median(&mut self, name: &'static str, values: &[f64]) {
        self.put(name, crate::stats::median(values), values.len());
    }

    /// The human-readable metric table: name, value, unit, sample count
    /// and, for a metric `bound_of` knows, its regression bound.
    pub fn table(
        &self,
        metrics: &[(&str, &str)],
        bound_of: impl Fn(&str) -> Option<f64>,
    ) -> String {
        let mut out = String::new();
        for (name, unit) in metrics {
            let (value, samples) = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or((0.0, 0), |m| (m.value, m.samples));
            let bound = bound_of(name)
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            out.push_str(&format!(
                "  {name:<36} {value:>16.6} {unit:<6} n={samples}{bound}\n"
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `metrics` (one this run did not measure reads 0).
    pub fn result_line(&self, metrics: &[(&str, &str)]) -> String {
        let values = metrics
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or(0.0, |m| m.value);
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Number(format!("{value:?}"))),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::Number(self.attempted.max(1).to_string())),
            ("failed".to_string(), Value::Number(self.failed.to_string())),
            ("metrics".to_string(), Value::Object(values)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above list the same metrics with
    /// the same units, in the same order.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(listed)) = doc.get(key) else {
                panic!("{key} missing")
            };
            let listed: Vec<(String, String)> = listed
                .iter()
                .map(|m| {
                    (
                        serde::field(m, "name", key).unwrap(),
                        serde::field(m, "unit", key).unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_carries_every_listed_metric_and_counts_failures() {
        let mut outcome = Outcome::default();
        assert!(outcome.check("fine", Ok(())));
        assert!(!outcome.check("broken", Err("why".to_string())));
        outcome.put("wall_s", 1.25, 5);
        let line = outcome.result_line(END_TO_END);
        let doc = serde_json::parse_value(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("attempted"), Some(&Value::Number("2".into())));
        assert_eq!(doc.get("failed"), Some(&Value::Number("1".into())));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[1].1.get("value").and_then(|v| match v {
                Value::Number(n) => n.parse::<f64>().ok(),
                _ => None,
            }),
            Some(1.25)
        );
    }
}
