//! Durable-runner robustness: the kill-point sweep and the byte-identity
//! guarantees behind `fairsched experiment run --resume`.
//!
//! The central claim: for *every* registered fail point, a run crashed at
//! that point and then resumed emits final `report.{json,csv,txt}` and
//! `summary.{json,csv,txt}` files byte-for-byte identical to an
//! uninterrupted run. The sweep below
//! enumerates [`SITES`] (so a fail point added to the runner is swept
//! automatically), crashes at each, and diffs the artifacts. Alongside
//! it: journal-corruption recovery, cell-corruption recompute, typed
//! degradation of failing cells, zero-recompute on completed resumes,
//! decoupled seed-stride semantics, and equivalence with the session
//! API's `run_grid_reports`.

use fairsched::experiment::{
    aggregate, cell_keys, compute_cell, decode_cell, encode_cell, ExperimentSpec,
    FaultMode, FaultPlan, Runner, RunnerError, RunnerOptions, SeedPlan, StoredCell,
    SITES,
};
use fairsched::sim::report::Report;
use fairsched::sim::Simulation;
use std::path::{Path, PathBuf};

/// A small but non-trivial grid: two workloads × three schedulers × two
/// instances, with a reference-based metric (`delay` runs REF) and `psi`.
fn sweep_spec(name: &str) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        name,
        vec![
            "fpt:horizon=300,k=2".parse().unwrap(),
            "fpt:horizon=300,k=3".parse().unwrap(),
        ],
        vec![
            "fifo".parse().unwrap(),
            "roundrobin".parse().unwrap(),
            "fairshare".parse().unwrap(),
        ],
    );
    spec.metrics = vec!["delay".parse().unwrap(), "psi".parse().unwrap()];
    spec.horizon = Some(300);
    spec.seeds = SeedPlan { base: 3, count: 2, workload_stride: 1, scheduler_stride: 1 };
    spec
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fairsched-exp-resume-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The six final sinks: `report.{json,csv,txt}`, `summary.{json,csv,txt}`.
fn artifacts(dir: &Path) -> [String; 6] {
    [
        "report.json",
        "report.csv",
        "report.txt",
        "summary.json",
        "summary.csv",
        "summary.txt",
    ]
    .map(|name| std::fs::read_to_string(dir.join(name)).unwrap())
}

fn run(
    spec: &ExperimentSpec,
    dir: &Path,
    resume: bool,
    faults: FaultPlan,
) -> Result<u64, RunnerError> {
    Runner::new(spec.clone(), dir, RunnerOptions { resume, faults })
        .run()
        .map(|s| s.computed)
}

#[test]
fn kill_point_sweep_every_site_resumes_byte_identical() {
    let spec = sweep_spec("kill-sweep");
    let clean_dir = fresh_dir("kill-sweep-clean");
    run(&spec, &clean_dir, false, FaultPlan::none()).unwrap();
    let clean = artifacts(&clean_dir);

    // Crash at hit 1 of every registered site, plus a mid-run crash at a
    // later hit for the per-cell sites (so both "nothing yet" and
    // "partial progress" states are swept).
    let mut arms: Vec<(&str, u64)> = SITES.iter().map(|s| (*s, 1)).collect();
    arms.extend([("cell.tmp", 7), ("cell.commit", 7), ("journal.append", 13)]);
    for (site, hit) in arms {
        let tag = format!("kill-{}-{hit}", site.replace('.', "-"));
        let dir = fresh_dir(&tag);
        let plan = FaultPlan::none().arm(site, hit, FaultMode::Crash);
        match run(&spec, &dir, false, plan) {
            Err(RunnerError::Crash { site: fired }) => {
                assert_eq!(fired, site, "wrong site fired for {tag}")
            }
            other => panic!("{tag}: expected a crash, got {other:?}"),
        }
        run(&spec, &dir, true, FaultPlan::none())
            .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
        assert_eq!(artifacts(&dir), clean, "{tag}: resumed artifacts differ from clean");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn completed_run_resumes_with_zero_recompute_and_survives_journal_loss() {
    let spec = sweep_spec("journal-loss");
    let dir = fresh_dir("journal-loss");
    run(&spec, &dir, false, FaultPlan::none()).unwrap();
    let clean = artifacts(&dir);

    // Re-running a completed experiment recomputes zero cells.
    assert_eq!(run(&spec, &dir, true, FaultPlan::none()).unwrap(), 0);

    // Truncate the journal mid-line (crash-mid-append signature): the
    // status view flags it, and resume still recomputes nothing because
    // cells — not the journal — are the source of truth.
    let journal = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, &text[..text.len() / 2 + 3]).unwrap();
    let status = Runner::status(&spec, &dir).unwrap();
    assert!(status.journal_truncated);
    assert_eq!(status.pending, 0);
    assert_eq!(run(&spec, &dir, true, FaultPlan::none()).unwrap(), 0);

    // Deleting it entirely loses nothing either.
    std::fs::remove_file(&journal).unwrap();
    assert_eq!(run(&spec, &dir, true, FaultPlan::none()).unwrap(), 0);
    assert_eq!(artifacts(&dir), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_mismatched_cells_are_recomputed_on_resume() {
    let spec = sweep_spec("cell-corrupt");
    let dir = fresh_dir("cell-corrupt");
    run(&spec, &dir, false, FaultPlan::none()).unwrap();
    let clean = artifacts(&dir);

    let keys = cell_keys(&spec);
    let path = |i: usize| dir.join("cells").join(keys[i].file_name());
    // Torn write, garbage JSON, and a valid cell file whose embedded key
    // answers a different computation.
    std::fs::write(path(0), "{\"schema\": \"fairsched-exper").unwrap();
    std::fs::write(path(1), "not json at all").unwrap();
    let mut moved_key = keys[2].clone();
    moved_key.scheduler_seed ^= 1;
    let outcome = compute_cell(&moved_key);
    std::fs::write(path(2), encode_cell(&moved_key, &outcome).to_json_pretty()).unwrap();

    let status = Runner::status(&spec, &dir).unwrap();
    assert_eq!(status.pending, 3, "{status:?}");
    assert_eq!(run(&spec, &dir, true, FaultPlan::none()).unwrap(), 3);
    assert_eq!(artifacts(&dir), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cells_degrade_into_the_report_and_injected_io_faults_retry() {
    // An unknown scheduler fails its cells with a typed error; the sweep
    // still completes and the final report carries both outcomes.
    let mut spec = sweep_spec("degrade");
    spec.schedulers.push("no-such-policy".parse().unwrap());
    let dir = fresh_dir("degrade");
    let summary = Runner::new(
        spec.clone(),
        &dir,
        RunnerOptions {
            resume: false,
            // Transient io faults on cell writes must be absorbed by the
            // retry policy without changing any outcome.
            faults: FaultPlan::none().arm("cell.tmp", 2, FaultMode::Io).arm(
                "journal.append",
                3,
                FaultMode::Io,
            ),
        },
    )
    .run()
    .unwrap();
    assert_eq!(summary.total, 16); // 2 instances × 2 workloads × 4 schedulers
    assert_eq!(summary.failed, 4);
    assert_eq!(summary.retried, 2);
    let [json, csv, ..] = artifacts(&dir);
    assert!(json.contains("\"failed\": 4"), "counts missing from report.json");
    assert!(json.contains("no-such-policy"));
    assert!(csv.contains("status=failed"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coupled_seed_runner_matches_run_grid_reports_byte_for_byte() {
    // The durable runner's aggregation over its committed cells must be
    // byte-identical to aggregating the same grid computed directly by
    // the session API — i.e. durability adds nothing to the numbers.
    let spec = sweep_spec("grid-equiv");
    let dir = fresh_dir("grid-equiv");
    run(&spec, &dir, false, FaultPlan::none()).unwrap();

    let keys = cell_keys(&spec);
    let mut direct: Vec<(_, StoredCell)> = Vec::new();
    for instance in 0..spec.seeds.count {
        let session = Simulation::session()
            .metric_specs(spec.metrics.clone())
            .horizon(spec.horizon.unwrap())
            .validate(spec.validate)
            .seed(spec.seeds.workload_seed(instance));
        let cells = session.run_grid_reports(&spec.workloads, &spec.schedulers);
        for cell in cells {
            let key = keys
                .iter()
                .find(|k| {
                    k.instance == instance
                        && k.workload == cell.workload
                        && k.scheduler == cell.scheduler
                })
                .unwrap()
                .clone();
            let stored = decode_cell(&encode_cell(&key, &cell.report)).unwrap();
            direct.push((key, stored));
        }
    }
    // Reorder to the runner's instance-major grid order.
    direct.sort_by_key(|(key, _)| {
        keys.iter().position(|k| k.canonical() == key.canonical()).unwrap()
    });
    let expected = aggregate(&spec, &direct);
    let [json, csv, table, summary_json, summary_csv, summary_table] = artifacts(&dir);
    assert_eq!(json, expected.json);
    assert_eq!(csv, expected.csv);
    assert_eq!(table, expected.table);
    assert_eq!(summary_json, expected.summary_json);
    assert_eq!(summary_csv, expected.summary_csv);
    assert_eq!(summary_table, expected.summary_table);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decoupled_seed_strides_pin_each_axis_independently() {
    // With workload_stride=0 both instances build the *same* trace while
    // the scheduler seed moves; a seed-sensitive scheduler (rand) must
    // then produce different reports on identical workloads, and a
    // seed-insensitive one (fifo) identical ones.
    // k=3 gives 3! = 6 permutations, and `perms=1` samples exactly one —
    // so the rand scheduler's outcome is visibly seed-dependent.
    let mut spec = ExperimentSpec::new(
        "stride",
        vec!["fpt:horizon=300,k=3".parse().unwrap()],
        vec!["fifo".parse().unwrap(), "rand:perms=1".parse().unwrap()],
    );
    spec.metrics = vec!["psi".parse().unwrap()];
    spec.horizon = Some(300);
    spec.seeds = SeedPlan { base: 3, count: 2, workload_stride: 0, scheduler_stride: 17 };
    assert!(spec.seeds.decoupled());

    let keys = cell_keys(&spec);
    // Compare the CSV sink: pure metric values, no seed provenance (the
    // scheduler seeds differ by construction).
    let report = |k| {
        let r: Report = compute_cell(k).unwrap();
        r.to_csv()
    };
    let by = |scheduler: &str, instance: u64| {
        keys.iter()
            .find(|k| k.scheduler.to_string() == scheduler && k.instance == instance)
            .unwrap()
    };
    assert_eq!(report(by("fifo", 0)), report(by("fifo", 1)));
    assert_ne!(report(by("rand:perms=1", 0)), report(by("rand:perms=1", 1)));

    // And the full spec (strides included) survives the JSON round trip.
    let reparsed = ExperimentSpec::from_json_str(&spec.to_json()).unwrap();
    assert_eq!(reparsed, spec);
}

#[test]
fn committed_fixture_loads_runs_and_round_trips() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/tiny_grid.experiment.json"
    ))
    .unwrap();
    let spec = ExperimentSpec::from_json_str(&text).unwrap();
    assert_eq!(spec.name, "tiny-grid");
    assert_eq!(spec.n_cells(), 12);
    let reparsed = ExperimentSpec::from_json_str(&spec.to_json()).unwrap();
    assert_eq!(reparsed, spec);

    // Report JSON round-trips exactly through the cell codec for a
    // fixture cell with a series metric in the mix (the decode path the
    // resume machinery depends on).
    let mut key = cell_keys(&spec)[0].clone();
    key.metrics.push("timeline:samples=8".parse().unwrap());
    let outcome = compute_cell(&key);
    assert!(outcome.is_ok(), "{outcome:?}");
    let encoded = encode_cell(&key, &outcome);
    let stored = decode_cell(&encoded).unwrap();
    let report = stored.report.unwrap();
    assert_eq!(report.to_json(), outcome.unwrap().to_json());
    assert!(!report.series.is_empty());
}
