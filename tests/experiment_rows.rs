//! Rows are the runner's unit of computation, cells its unit of
//! durability: a grid row (the cells that differ only in their scheduler)
//! builds its trace once and runs the REF reference at most once, while
//! every cell is still committed on its own. These tests pin that the
//! sharing is invisible in every committed byte — against stand-alone
//! `compute_cell` calls and against reports produced by the commit before
//! rows existed — at every crash position inside a row, and that a
//! reference which cannot be built is a typed failure of the cells that
//! need it, never a panic.

use fairsched::experiment::{
    cell_keys, compute_cell, encode_cell, ExperimentSpec, FaultMode, FaultPlan, Runner,
    RunnerError, RunnerOptions,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURES: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/experiment_rows");

/// The committed grids: two workloads × `{fifo, rand:perms=5, ref}` × two
/// instances with `delay,psi`, once with coupled seeds and once with
/// `scheduler_stride = 17`. Their `*.report.*` neighbours were written by
/// the parent commit's cell-by-cell runner.
fn fixture_spec(plan: &str) -> ExperimentSpec {
    let text =
        std::fs::read_to_string(format!("{FIXTURES}/{plan}.experiment.json")).unwrap();
    let spec = ExperimentSpec::from_json_str(&text).unwrap();
    assert_eq!(spec.seeds.decoupled(), plan == "decoupled");
    spec
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("fairsched-exp-rows-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(spec: &ExperimentSpec, dir: &Path, resume: bool, faults: FaultPlan) -> Runner {
    Runner::new(spec.clone(), dir, RunnerOptions { resume, faults })
}

/// `report.json`, `report.csv`, `report.txt`, then every file under
/// `cells/` by name.
fn artifacts(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = ["report.json", "report.csv", "report.txt"]
        .iter()
        .map(|name| dir.join(name))
        .collect();
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    cells.sort();
    files.extend(cells);
    files
        .into_iter()
        .map(|path| {
            let name = path.strip_prefix(dir).unwrap().display().to_string();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect()
}

#[test]
fn shared_rows_commit_the_bytes_of_stand_alone_cells_and_of_the_parent_commit() {
    for plan in ["coupled", "decoupled"] {
        let spec = fixture_spec(plan);
        let dir = fresh_dir(plan);
        let summary = run(&spec, &dir, false, FaultPlan::none()).run().unwrap();
        assert_eq!((summary.total, summary.computed, summary.failed), (12, 12, 0));

        for key in cell_keys(&spec) {
            let mut alone = encode_cell(&key, &compute_cell(&key)).to_json_pretty();
            alone.push('\n');
            let committed =
                std::fs::read_to_string(dir.join("cells").join(key.file_name())).unwrap();
            assert_eq!(committed, alone, "{plan}: {}", key.canonical());
        }
        for sink in ["json", "csv", "txt"] {
            let parent =
                std::fs::read_to_string(format!("{FIXTURES}/{plan}.report.{sink}"))
                    .unwrap();
            let ours =
                std::fs::read_to_string(dir.join(format!("report.{sink}"))).unwrap();
            assert_eq!(
                ours, parent,
                "{plan}: report.{sink} moved from the parent commit"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_crash_at_every_cell_of_every_row_resumes_to_the_clean_bytes() {
    let spec = fixture_spec("decoupled");
    let clean_dir = fresh_dir("crash-clean");
    run(&spec, &clean_dir, false, FaultPlan::none()).run().unwrap();
    let clean = artifacts(&clean_dir);
    let total = spec.n_cells();

    // Hit n of `cell.commit` is the n-th cell of the grid: n = 1 loses a
    // row's first cell, n = 3 its `ref` cell (whose run the row's earlier
    // cells already used as their reference), n = 4 the next row's first.
    for n in 1..=total {
        let dir = fresh_dir(&format!("crash-{n}"));
        let plan = FaultPlan::none().arm("cell.commit", n, FaultMode::Crash);
        match run(&spec, &dir, false, plan).run() {
            Err(RunnerError::Crash { site }) => assert_eq!(site, "cell.commit"),
            other => panic!("cell.commit@{n}: expected a crash, got {other:?}"),
        }
        let survivors = n - 1;
        let status = Runner::status(&spec, &dir).unwrap();
        assert_eq!((status.done, status.pending), (survivors, total - survivors));
        let resumed = run(&spec, &dir, true, FaultPlan::none()).run().unwrap();
        assert_eq!(
            (resumed.computed, resumed.skipped),
            (total - survivors, survivors),
            "cell.commit@{n}"
        );
        assert_eq!(artifacts(&dir), clean, "cell.commit@{n}: resumed bytes differ");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// REF over 17 organizations cannot be built. With `delay` that fails the
/// whole row — the `fifo` cell through its reference, the `ref` cell on
/// its own — with one typed error; with a reference-free metric only the
/// `ref` cell fails. Through the CLI: the summary line, exit status 1 (as
/// for any failed cell), no panic.
#[test]
fn an_unbuildable_reference_is_a_typed_failure_of_the_cells_that_need_it() {
    let mut spec = ExperimentSpec::new(
        "k17",
        vec!["fpt:horizon=100,k=17".parse().unwrap()],
        vec!["fifo".parse().unwrap(), "ref".parse().unwrap()],
    );
    spec.horizon = Some(100);
    for (metric, failed) in [("delay", 2), ("psi", 1)] {
        spec.metrics = vec![metric.parse().unwrap()];
        let dir = fresh_dir(&format!("k17-{metric}"));
        let summary = run(&spec, &dir, false, FaultPlan::none()).run().unwrap();
        assert_eq!((summary.total, summary.computed, summary.failed), (2, 2, failed));
        let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert_eq!(
            report.matches("supports at most 16 organizations, got 17").count(),
            failed as usize,
            "{report}"
        );
        assert_eq!(report.contains("scheduler=fifo instance=0 status=done"), failed == 1);

        let spec_path = dir.join("k17.experiment.json");
        std::fs::write(&spec_path, spec.to_json()).unwrap();
        let cli = Command::new(env!("CARGO_BIN_EXE_fairsched"))
            .args(["experiment", "run"])
            .arg(&spec_path)
            .arg("--dir")
            .arg(dir.join("cli.run"))
            .output()
            .unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&cli.stdout), String::from_utf8_lossy(&cli.stderr));
        assert_eq!(cli.status.code(), Some(1), "{stdout}{stderr}");
        assert!(
            stdout
                .starts_with(&format!("2 cells: 2 computed, 0 skipped, {failed} failed")),
            "{stdout}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
