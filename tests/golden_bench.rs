//! Golden snapshots of the paper's evaluation, run as experiment specs.
//!
//! Tables 1–2, Figure 10 and the unfairness trajectory are committed
//! experiment specs (`paper/*.experiment.json`) run by the durable
//! experiment runner. Two tiny specs in `tests/golden/bench/` go through
//! the same [`Runner`] here, in a temporary directory:
//!
//! * `trajectory_fpt_k4.experiment.json`: every cell's `timeline` times
//!   and aggregates equal the rows of `trajectory_fpt_k4.json` bit for
//!   bit;
//! * `delay_table_tiny.experiment.json`: every row of a seed-independent
//!   scheduler equals `delay_table_tiny.json` bit for bit, and the run's
//!   `summary.json` is pinned as `delay_table_tiny_summary.json`.
//!
//! `trajectory_fpt_k4.json` and `delay_table_tiny.json` are fixed: they
//! were rendered by the bench crate's former delay runner, which seeded
//! schedulers with a fixed XOR of `base + i` rather than `base + i`. RAND and
//! DIRECTCONTR read that seed, so their table rows are new samples and
//! only their count is checked. Regenerate the summary golden with
//! `REGEN_GOLDEN=1 cargo test --test golden_bench`, and only for a
//! deliberate change to the numbers, so the diff documents it.

use fairsched::experiment::{ExperimentSpec, Runner, RunnerOptions};
use serde::Value;
use std::path::{Path, PathBuf};

/// The Table 1 rows whose schedulers ignore the session seed.
const SEED_FREE: [&str; 4] = ["roundrobin", "fairshare", "utfairshare", "currfairshare"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn parse(text: &str) -> Value {
    serde_json::parse_value(text).expect("golden JSON parses")
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key).unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

/// A JSON number's exact `f64` bits.
fn bits(v: &Value) -> u64 {
    match v {
        Value::Number(n) => n.parse::<f64>().expect("a float").to_bits(),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn all_bits(v: &Value) -> Vec<u64> {
    items(v).iter().map(bits).collect()
}

/// Runs the committed spec `tests/golden/bench/{stem}.experiment.json`
/// to completion in a fresh temporary directory and returns it.
fn run_golden_spec(stem: &str) -> PathBuf {
    let path = golden_dir().join(format!("{stem}.experiment.json"));
    let spec = ExperimentSpec::from_json_str(&read(&path)).unwrap();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fairsched-golden-bench-{stem}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = Runner::new(spec, &dir, RunnerOptions::default()).run().unwrap();
    assert_eq!(summary.failed, 0, "{stem}: every cell must succeed");
    dir
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = read(&path);
    assert!(
        rendered == expected,
        "{name} diverged from {} (REGEN_GOLDEN=1 only for deliberate changes):\n{rendered}",
        path.display()
    );
}

/// The Table 1 row set over two workloads, two instances each, at a
/// horizon small enough for a debug build.
#[test]
fn tiny_delay_table_matches_golden() {
    let dir = run_golden_spec("delay_table_tiny");
    let summary_text = read(&dir.join("summary.json"));
    let summary = parse(&summary_text);
    let [table] = items(&summary) else {
        panic!("one scalar metric gives one summary table: {summary:?}");
    };
    assert_eq!(field(table, "metric"), &Value::String("delay".into()));

    let golden = parse(&read(&golden_dir().join("delay_table_tiny.json")));
    assert_eq!(field(table, "columns"), field(&golden, "columns"));
    let (old_columns, new_columns) =
        (items(field(&golden, "cells")), items(field(table, "cells")));
    assert_eq!(old_columns.len(), new_columns.len());
    for (old_rows, new_rows) in old_columns.iter().zip(new_columns) {
        assert_eq!(items(old_rows).len(), items(new_rows).len());
        for (old, new) in items(old_rows).iter().zip(items(new_rows)) {
            let Value::String(label) = field(new, "label") else {
                panic!("labels are scheduler spec strings: {new:?}");
            };
            if !SEED_FREE.contains(&label.as_str()) {
                assert_eq!(items(field(new, "values")).len(), 2, "{label}");
                continue;
            }
            let Value::String(old_label) = field(old, "label") else {
                panic!("golden labels are strings: {old:?}");
            };
            assert_eq!(old_label.to_lowercase(), *label, "row order");
            for stat in ["mean", "sd"] {
                assert_eq!(
                    bits(field(new, stat)),
                    bits(field(old, stat)),
                    "{label} {stat}"
                );
            }
            assert_eq!(all_bits(field(new, "values")), all_bits(field(old, "values")));
        }
    }
    check_golden("delay_table_tiny_summary", &summary_text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trajectory at `fpt:k=4`, horizon 1000, 16 samples, seed 42: one
/// cell per Table 1 scheduler, each carrying its `timeline` series.
#[test]
fn fpt_k4_trajectory_matches_golden() {
    let dir = run_golden_spec("trajectory_fpt_k4");
    let report = parse(&read(&dir.join("report.json")));
    let golden = parse(&read(&golden_dir().join("trajectory_fpt_k4.json")));
    let times: Vec<&Value> = items(field(&golden, "times")).iter().collect();
    let (rows, cells) = (items(field(&golden, "rows")), items(field(&report, "cells")));
    assert_eq!(rows.len(), cells.len());
    for (row, cell) in rows.iter().zip(cells) {
        let series = &items(field(field(cell, "report"), "series"))[0];
        assert_eq!(field(series, "spec"), field(&golden, "metric"));
        let cell_times: Vec<&Value> = items(field(series, "times")).iter().collect();
        assert_eq!(cell_times, times, "{:?}", field(cell, "scheduler"));
        assert_eq!(
            all_bits(field(series, "aggregate")),
            all_bits(field(row, "aggregate")),
            "{:?} drifted from {:?}",
            field(cell, "scheduler"),
            field(row, "label")
        );
    }
    // A series-only spec has no scalar metric to summarise.
    assert_eq!(read(&dir.join("summary.json")), "[]\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed paper specs load and name the paper's grids: Table 1's
/// and Table 2's six schedulers over the four presets, Figure 10's five
/// over 2..=10 organizations, and the trajectory's one seed.
#[test]
fn paper_specs_name_the_paper_grids() {
    let paper = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("paper");
    let load = |name: &str| {
        let path = paper.join(format!("{name}.experiment.json"));
        ExperimentSpec::from_json_str(&read(&path)).unwrap()
    };
    let table_set = [
        "roundrobin",
        "rand:perms=15",
        "directcontr",
        "fairshare",
        "utfairshare",
        "currfairshare",
    ];
    for (name, horizon, count, cells) in [
        ("table1", 50_000, 20, 480),
        ("table2", 500_000, 10, 240),
        ("trajectory", 2_000, 1, 6),
    ] {
        let spec = load(name);
        let schedulers: Vec<String> =
            spec.schedulers.iter().map(|s| s.to_string()).collect();
        assert_eq!(schedulers, table_set, "{name}");
        assert_eq!(
            (spec.horizon, spec.seeds.base, spec.seeds.count),
            (Some(horizon), 42, count)
        );
        assert_eq!(spec.n_cells(), cells, "{name}");
    }
    let fig10 = load("fig10");
    let orgs: Vec<&str> = fig10.workloads.iter().filter_map(|w| w.get("orgs")).collect();
    assert_eq!(orgs, ["2", "3", "4", "5", "6", "7", "8", "9", "10"]);
    assert_eq!(fig10.n_cells(), 225);
}
