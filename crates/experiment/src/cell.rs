//! Content-addressed experiment cells.
//!
//! A *cell* is one `(workload, scheduler, instance)` evaluation of the
//! experiment's metric set. Its identity is the [`CellKey`]: every input
//! that can change the resulting [`Report`], rendered to one canonical
//! string and hashed (FNV-1a, 128-bit) into the cell's file name
//! `cells/<hash>.json`. Content addressing is what makes resume safe
//! without coordination: if the spec changes in any way that could change
//! a cell's output, the cell's address changes too, so a stale file can
//! never be mistaken for a fresh result.

use crate::spec::ExperimentSpec;
use fairsched_core::model::Time;
use fairsched_core::scheduler::registry::SchedulerSpec;
use fairsched_sim::report::MetricSpec;
use fairsched_sim::{Report, SimError};
use fairsched_workloads::spec::WorkloadSpec;
use serde::Value;

/// The `schema` tag of every committed cell file.
pub const CELL_SCHEMA: &str = "fairsched-experiment-cell/v1";

/// Every input that determines one cell's report.
#[derive(Clone, Debug, PartialEq)]
pub struct CellKey {
    /// The workload to build.
    pub workload: WorkloadSpec,
    /// The scheduler to run.
    pub scheduler: SchedulerSpec,
    /// The metrics to evaluate (grid order).
    pub metrics: Vec<MetricSpec>,
    /// Evaluation horizon; `None` runs to completion.
    pub horizon: Option<Time>,
    /// Whether post-run schedule validation is on.
    pub validate: bool,
    /// The instance index within the seed plan.
    pub instance: u64,
    /// The workload-build seed.
    pub workload_seed: u64,
    /// The scheduler/session seed.
    pub scheduler_seed: u64,
}

impl CellKey {
    /// The canonical key string: every field in fixed order, spec axes in
    /// canonical spec-string form. Two keys collide iff the cells are the
    /// same computation.
    pub fn canonical(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(|m| m.to_string()).collect();
        let horizon = match self.horizon {
            Some(h) => h.to_string(),
            None => "none".to_string(),
        };
        format!(
            "fairsched-cell|w={}|s={}|m={}|h={}|v={}|i={}|ws={}|ss={}",
            self.workload,
            self.scheduler,
            metrics.join(";"),
            horizon,
            self.validate,
            self.instance,
            self.workload_seed,
            self.scheduler_seed,
        )
    }

    /// Whether `self` and `other` belong to one *row*: everything but the
    /// scheduler agrees, so they share a trace and a REF reference run and
    /// the [`Runner`](crate::Runner) computes them together.
    pub fn same_row(&self, other: &CellKey) -> bool {
        // Destructured so that a field added to the key must be placed
        // on one side of the row boundary here.
        let CellKey {
            workload,
            scheduler: _,
            metrics,
            horizon,
            validate,
            instance,
            workload_seed,
            scheduler_seed,
        } = self;
        *instance == other.instance
            && *workload == other.workload
            && *workload_seed == other.workload_seed
            && *scheduler_seed == other.scheduler_seed
            && *metrics == other.metrics
            && *horizon == other.horizon
            && *validate == other.validate
    }

    /// The cell's content address: FNV-1a 128-bit of the canonical key,
    /// as 32 lowercase hex digits.
    pub fn hash(&self) -> String {
        fnv128(self.canonical().as_bytes())
    }

    /// The cell's file name within the run's `cells/` directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.hash())
    }
}

/// FNV-1a with 128-bit state (offset basis and prime from the FNV spec),
/// rendered as 32 hex digits. Plenty for addressing a few thousand cells,
/// and dependency-free.
fn fnv128(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// Enumerates the full grid of `spec` in deterministic order:
/// instance-major, then workloads, then schedulers — the same row-major
/// order `run_grid_reports` walks within one instance.
pub fn cell_keys(spec: &ExperimentSpec) -> Vec<CellKey> {
    let mut keys = Vec::new();
    for instance in 0..spec.seeds.count {
        for workload in &spec.workloads {
            for scheduler in &spec.schedulers {
                keys.push(CellKey {
                    workload: workload.clone(),
                    scheduler: scheduler.clone(),
                    metrics: spec.metrics.clone(),
                    horizon: spec.horizon,
                    validate: spec.validate,
                    instance,
                    workload_seed: spec.seeds.workload_seed(instance),
                    scheduler_seed: spec.seeds.scheduler_seed(instance),
                });
            }
        }
    }
    keys
}

/// A decoded committed cell file.
#[derive(Clone, Debug)]
pub struct StoredCell {
    /// The canonical key string the file claims to answer.
    pub key: String,
    /// `done` or `failed`.
    pub status: String,
    /// The report, when `status == "done"`.
    pub report: Option<Report>,
    /// The rendered error, when `status == "failed"`.
    pub error: Option<String>,
}

/// Encodes one computed cell (success or typed failure) as its committed
/// JSON tree.
pub fn encode_cell(key: &CellKey, outcome: &Result<Report, SimError>) -> Value {
    let mut fields = vec![
        ("schema".into(), Value::String(CELL_SCHEMA.into())),
        ("key".into(), Value::String(key.canonical())),
        ("workload".into(), Value::String(key.workload.to_string())),
        ("scheduler".into(), Value::String(key.scheduler.to_string())),
        ("instance".into(), Value::Number(key.instance.to_string())),
        ("workload_seed".into(), Value::Number(key.workload_seed.to_string())),
        ("scheduler_seed".into(), Value::Number(key.scheduler_seed.to_string())),
    ];
    match outcome {
        Ok(report) => {
            fields.push(("status".into(), Value::String("done".into())));
            fields.push(("report".into(), report.to_json_value()));
        }
        Err(e) => {
            fields.push(("status".into(), Value::String("failed".into())));
            fields.push(("error".into(), Value::String(e.to_string())));
        }
    }
    Value::Object(fields)
}

/// Decodes a committed cell file; `None` for anything that is not an
/// intact cell of the current schema (the runner treats such files as
/// absent and recomputes — a half-written or corrupted cell must never
/// poison a resume).
pub fn decode_cell(v: &Value) -> Option<StoredCell> {
    let string = |key: &str| match v.get(key) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    };
    if string("schema")? != CELL_SCHEMA {
        return None;
    }
    let key = string("key")?;
    let status = string("status")?;
    match status.as_str() {
        "done" => {
            let report = Report::from_json_value(v.get("report")?).ok()?;
            Some(StoredCell { key, status, report: Some(report), error: None })
        }
        "failed" => {
            let error = string("error")?;
            Some(StoredCell { key, status, report: None, error: Some(error) })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SeedPlan;

    fn key() -> CellKey {
        CellKey {
            workload: "fpt:k=2".parse().unwrap(),
            scheduler: "fifo".parse().unwrap(),
            metrics: vec!["delay".parse().unwrap(), "psi".parse().unwrap()],
            horizon: Some(400),
            validate: false,
            instance: 0,
            workload_seed: 3,
            scheduler_seed: 3,
        }
    }

    #[test]
    fn canonical_covers_every_field() {
        let base = key();
        let mut variants = vec![base.clone()];
        let mut push = |f: fn(&mut CellKey)| {
            let mut k = base.clone();
            f(&mut k);
            variants.push(k);
        };
        push(|k| k.workload = "fpt:k=3".parse().unwrap());
        push(|k| k.scheduler = "roundrobin".parse().unwrap());
        push(|k| k.metrics = vec!["delay".parse().unwrap()]);
        push(|k| k.horizon = None);
        push(|k| k.validate = true);
        push(|k| k.instance = 1);
        push(|k| k.workload_seed = 4);
        push(|k| k.scheduler_seed = 4);
        let mut seen = std::collections::BTreeSet::new();
        for v in &variants {
            assert!(seen.insert(v.canonical()), "collision: {}", v.canonical());
        }
        // Hashes are distinct too, and stable in shape.
        let mut hashes = std::collections::BTreeSet::new();
        for v in &variants {
            let h = v.hash();
            assert_eq!(h.len(), 32);
            assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(hashes.insert(h));
        }
    }

    #[test]
    fn fnv128_reference_vectors() {
        // Published FNV-1a 128-bit test vectors.
        assert_eq!(fnv128(b""), "6c62272e07bb014262b821756295c58d");
        assert_eq!(fnv128(b"a"), "d228cb696f1a8caf78912b704e4a8964");
    }

    #[test]
    fn grid_enumeration_is_instance_major() {
        let mut spec = ExperimentSpec::new(
            "g",
            vec!["fpt:k=2".parse().unwrap(), "fpt:k=3".parse().unwrap()],
            vec!["fifo".parse().unwrap()],
        );
        spec.seeds =
            SeedPlan { base: 5, count: 2, workload_stride: 2, scheduler_stride: 1 };
        let keys = cell_keys(&spec);
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0].instance, 0);
        assert_eq!(keys[1].instance, 0);
        assert_eq!(keys[2].instance, 1);
        assert_eq!(keys[0].workload.to_string(), "fpt:k=2");
        assert_eq!(keys[1].workload.to_string(), "fpt:k=3");
        assert_eq!((keys[2].workload_seed, keys[2].scheduler_seed), (7, 6));
    }

    #[test]
    fn failed_cell_round_trips() {
        let k = key();
        let err = SimError::Io {
            op: "write".into(),
            path: "cells/x.json".into(),
            message: "nope".into(),
        };
        let stored = decode_cell(&encode_cell(&k, &Err(err))).unwrap();
        assert_eq!(stored.key, k.canonical());
        assert_eq!(stored.status, "failed");
        assert!(stored.report.is_none());
        assert!(stored.error.unwrap().contains("nope"));
    }

    #[test]
    fn garbage_decodes_to_none() {
        for text in [
            "null",
            "{}",
            r#"{"schema": "other/v1", "key": "k", "status": "done"}"#,
            r#"{"schema": "fairsched-experiment-cell/v1", "key": "k", "status": "odd"}"#,
            r#"{"schema": "fairsched-experiment-cell/v1", "key": "k", "status": "done", "report": 5}"#,
        ] {
            let v = serde_json::parse_value(text).unwrap();
            assert!(decode_cell(&v).is_none(), "{text} should not decode");
        }
    }
}
