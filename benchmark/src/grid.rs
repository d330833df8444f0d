//! The two grid workloads: `fairsched experiment run` over a Table-1-style
//! spec (see [`grid_spec`]).
//!
//! * `grid_run` — a clean run into a fresh directory: hundreds of tiny
//!   engine runs with a REF reference recomputed per cell, each committed
//!   through `core.journal`. The same engine and lattice as `ref_k10`,
//!   used differently.
//! * `grid_resume` — `--resume` over a fully committed directory: the
//!   decode / skip / aggregate path a user pays after a crash.

use crate::batch::warm_up;
use crate::expected;
use crate::gen::{grid_spec, GRID_CELLS_PER_SEED, GRID_SEEDS};
use crate::outcome::Outcome;
use crate::proc::{run_cli, Spawned};
use crate::span::Tracer;
use crate::Ctx;
use fairsched_experiment::{
    cell_keys, compute_cell, ExperimentSpec, RunSummary, Runner, RunnerOptions,
};
use serde::Value;
use std::time::Instant;

#[derive(Copy, Clone, PartialEq)]
pub enum Mode {
    Run,
    Resume,
}

const CELLS: u64 = GRID_CELLS_PER_SEED * GRID_SEEDS;

/// Set-ups per run. A run has one spec, drawn from its seed (a grid already
/// averages over [`GRID_SEEDS`] draws of each workload); a `grid_resume`
/// set-up includes the clean run that commits a directory of its own.
const SETUPS: usize = 3;
const SPEC_FILE: &str = "grid.json";

/// Spawns `fairsched experiment run` on the run's spec into `dir`.
fn experiment(
    ctx: &Ctx,
    dir: &str,
    resume: bool,
    env: &[(&str, &str)],
) -> Result<Spawned, String> {
    let mut args =
        ["experiment", "run", SPEC_FILE, "--dir", dir].map(str::to_string).to_vec();
    if resume {
        args.push("--resume".to_string());
    }
    run_cli(&ctx.cli, &args, ctx.scratch.path(), env).map_err(|e| e.to_string())
}

/// Checks exit code and the printed summary
/// (`N cells: C computed, S skipped, F failed (…`), then returns the
/// bytes of the run's `report.json`.
fn check_experiment(
    ctx: &Ctx,
    run: &Spawned,
    dir: &str,
    computed: u64,
) -> Result<Vec<u8>, String> {
    if run.code != 0 {
        return Err(format!("exit code {}: {}", run.code, run.stderr.trim()));
    }
    let text = String::from_utf8_lossy(&run.stdout);
    let counts: Vec<u64> =
        text.split_whitespace().filter_map(|w| w.parse().ok()).collect();
    if counts.get(..4) != Some(&[CELLS, computed, CELLS - computed, 0]) {
        return Err(format!("unexpected summary: {}", text.trim()));
    }
    std::fs::read(ctx.scratch.path().join(dir).join("report.json"))
        .map_err(|e| format!("{dir}/report.json: {e}"))
}

fn write_spec(ctx: &Ctx) -> Result<(), String> {
    std::fs::write(ctx.scratch.path().join(SPEC_FILE), grid_spec(ctx.seed))
        .map_err(|e| format!("cannot write {SPEC_FILE}: {e}"))
}

/// The untraced pass of either mode.
pub fn untraced(mode: Mode, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // Set-up: the spec file and a warm-up run; for `grid_resume` also the
    // clean run whose committed directory the timed resumes reopen.
    let mut setup_s = Vec::new();
    let mut report: Option<Vec<u8>> = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        write_spec(ctx)?;
        warm_up(ctx)?;
        if mode == Mode::Resume {
            let dir = format!("committed-{i}");
            let run = experiment(ctx, &dir, false, &[])?;
            let committed = check_experiment(ctx, &run, &dir, CELLS)?;
            if report.get_or_insert_with(|| committed.clone()) != &committed {
                return Err("clean runs of one spec differ in report.json".to_string());
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // Every unit must reproduce the first report.json of the run's spec.
    let (mut wall_s, mut rss_mb) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for unit in 0.. {
        if !ctx.goes_on(started, unit) {
            break;
        }
        let (dir, computed) = match mode {
            Mode::Run => (format!("run-{unit}"), CELLS),
            Mode::Resume => (format!("committed-{}", unit % SETUPS), 0),
        };
        let run = experiment(ctx, &dir, mode == Mode::Resume, &[])?;
        let result = check_experiment(ctx, &run, &dir, computed).and_then(|bytes| {
            if report.get_or_insert_with(|| bytes.clone()) == &bytes {
                Ok(())
            } else {
                Err("report.json differs from the spec's first run".to_string())
            }
        });
        outcome.check(&format!("{} {unit}", ctx.workload), result);
        wall_s.push(run.wall_s);
        rss_mb.push(run.peak_rss_mb);
        if mode == Mode::Run {
            let _ = std::fs::remove_dir_all(ctx.scratch.path().join(&dir));
        }
    }

    if mode == Mode::Run {
        // Crash, then resume: a run killed at a cell commit halfway and
        // resumed must end with the clean run's report, byte for byte.
        let halfway = format!("cell.commit@{}", CELLS / 2);
        let env = [("FAIRSCHED_FAILPOINTS", halfway.as_str())];
        let crashed = experiment(ctx, "crashed", false, &env)?;
        let killed = if crashed.code == 137 {
            Ok(())
        } else {
            Err(format!("armed run exited {}, expected 137", crashed.code))
        };
        outcome.check("crash at cell.commit", killed);
        let resumed = experiment(ctx, "crashed", true, &[])?;
        let survivors = CELLS / 2 - 1;
        let same = check_experiment(ctx, &resumed, "crashed", CELLS - survivors)
            .and_then(|bytes| match &report {
                Some(clean) if *clean == bytes => Ok(()),
                _ => Err("resumed report.json differs from the clean run's".to_string()),
            });
        outcome.check("resume after crash", same);
    }
    if ctx.seed == expected::SEED {
        if let Some(bytes) = &report {
            let matched = view(bytes).and_then(|v| expected::matches("grid", &v));
            outcome.check("seed-42 statistics", matched);
        }
    }

    outcome.put_median("setup_s", &setup_s);
    outcome.put_median("wall_s", &wall_s);
    outcome.put_median("peak_rss_mb", &rss_mb);
    Ok(outcome)
}

/// The traced pass, the same for both modes: instance 0 through the
/// `Runner` in this process — a clean run, every cell's computation again
/// on its own, a resumed run — and once through the CLI.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    write_spec(ctx)?;
    warm_up(ctx)?;
    let spec =
        ExperimentSpec::from_json_str(&grid_spec(ctx.seed)).map_err(|e| e.to_string())?;
    let run_in = |dir: &str, resume: bool| -> Result<RunSummary, String> {
        let options = RunnerOptions { resume, ..RunnerOptions::default() };
        Runner::new(spec.clone(), ctx.scratch.sub(dir), options)
            .run()
            .map_err(|e| e.to_string())
    };

    let cli = experiment(ctx, "cli", false, &[])?;
    let cli_report = check_experiment(ctx, &cli, "cli", CELLS);

    let started = Instant::now();
    let plain = run_in("plain", false)?;
    let plain_s = started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let clean = tracer.scope("experiment.runner.run", |_| run_in("traced", false))?;
    tracer.scope("experiment.compute_cells", |t| {
        for key in cell_keys(&spec) {
            let report = t.scope("experiment.compute_cell", |_| compute_cell(&key));
            std::hint::black_box(report).map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;
    let resumed = tracer.scope("experiment.runner.resume", |_| run_in("traced", true))?;

    let report = std::fs::read(ctx.scratch.sub("traced").join("report.json"))
        .map_err(|e| e.to_string())?;
    let same = cli_report.and_then(|cli| {
        if cli != report {
            Err("CLI and in-process report.json differ".to_string())
        } else if plain != clean || clean.computed != CELLS || resumed.skipped != CELLS {
            Err(format!("summaries: {plain:?} / {clean:?} / {resumed:?}"))
        } else {
            Ok(())
        }
    });
    outcome.check("CLI and in-process runner agree", same);

    let run_s = tracer.total_s(0, "experiment.runner.run");
    let compute_s = tracer.total_s(0, "experiment.compute_cell");
    outcome.put("experiment.runner.run_s", run_s, 1);
    outcome.put("experiment.compute_cell_s", compute_s, CELLS as usize);
    outcome.put("experiment.commit_est_s", run_s - compute_s, 1);
    outcome.put("experiment.cells", clean.total as f64, 1);
    outcome.put("experiment.cells_skipped", resumed.skipped as f64, 1);
    outcome.put(
        "experiment.resume_run_s",
        tracer.total_s(0, "experiment.runner.resume"),
        1,
    );
    outcome.put("experiment.report_bytes", report.len() as f64, 1);
    outcome.put("cli.spawn_overhead_s", cli.wall_s - plain_s, 1);
    outcome.put("trace.overhead_share", (run_s - plain_s) / plain_s, 1);
    // Nothing encloses the three top-level spans, so all of their time is
    // attributed to the `experiment` layer.
    outcome.put("trace.self_time_coverage", 1.0, 1);
    tracer.write(&ctx.workload)?;
    Ok(outcome)
}

/// The statistics of a `report.json` that `expected/seed42.json` pins:
/// the counts and, for the first seed's cells, status and aggregates.
pub fn view(report: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(report).map_err(|e| e.to_string())?;
    let doc = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(cells)) = doc.get("cells") else {
        return Err("report.json has no cells".to_string());
    };
    let pick = |v: &Value, keys: &[&str]| -> Vec<(String, Value)> {
        keys.iter().filter_map(|k| v.get(k).map(|f| (k.to_string(), f.clone()))).collect()
    };
    let cells = cells
        .iter()
        .take(GRID_CELLS_PER_SEED as usize)
        .map(|cell| {
            let mut fields = pick(cell, &["workload", "scheduler", "status"]);
            if let Some(report) = cell.get("report") {
                fields.extend(pick(report, &["aggregates"]));
            }
            Value::Object(fields)
        })
        .collect();
    let mut fields = pick(&doc, &["total", "done", "failed"]);
    fields.push(("cells".to_string(), Value::Array(cells)));
    Ok(Value::Object(fields))
}

/// Runs instance 0 once and returns its [`view`].
pub fn seed_view(ctx: &Ctx) -> Result<Value, String> {
    write_spec(ctx)?;
    let run = experiment(ctx, "view", false, &[])?;
    view(&check_experiment(ctx, &run, "view", CELLS)?)
}
