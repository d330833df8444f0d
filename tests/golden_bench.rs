//! Golden snapshots of the bench crate's experiment outputs.
//!
//! The paper's tables and trajectories come out of `fairsched-bench`
//! (`table1`/`table2`/`fig10` through the delay-experiment runner,
//! `trajectory` through the metric pipeline). These fixtures pin a tiny
//! delay table's `SummaryTable::to_json` and one trajectory's JSON byte
//! for byte, so a refactor of the runner or of the session's matrix forms
//! cannot move a single value unnoticed. The fixtures live under
//! `tests/golden/bench/`.
//!
//! Regenerate with `REGEN_GOLDEN=1 cargo test --test golden_bench` — but
//! only for a deliberate change to the numbers, in which case the diff
//! documents it.

use fairsched::sim::report::SummaryTable;
use fairsched_bench::runner::{run_delay_experiment, Algo, DelayExperiment};
use fairsched_bench::trajectory::{run_trajectory, TrajectoryExperiment};
use std::path::PathBuf;

fn check_golden(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/bench")
        .join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
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
    let horizon = 2_000;
    let columns = ["fpt:k=4", "synth:orgs=3,preset=lpc,scale=0.1"];
    let cells = columns
        .iter()
        .map(|workload| {
            run_delay_experiment(&DelayExperiment {
                workload: workload.parse().unwrap(),
                horizon,
                n_instances: 2,
                base_seed: 42,
                algos: Algo::TABLE_SET.to_vec(),
                metric: DelayExperiment::delay_metric(),
            })
        })
        .collect();
    let table = SummaryTable {
        title: "tiny delay table".to_string(),
        metric: DelayExperiment::delay_metric().to_string(),
        columns: columns.iter().map(|c| c.to_string()).collect(),
        cells,
    };
    check_golden("delay_table_tiny", &table.to_json());
}

/// The `trajectory` binary's JSON at `--workload fpt:k=4 --horizon 1000
/// --samples 16` (its default seed and algorithm set).
#[test]
fn fpt_k4_trajectory_matches_golden() {
    let trajectory = run_trajectory(&TrajectoryExperiment {
        workload: "fpt:k=4".parse().unwrap(),
        horizon: 1_000,
        seed: 42,
        samples: 16,
        algos: Algo::TABLE_SET.to_vec(),
    })
    .unwrap();
    check_golden("trajectory_fpt_k4", &trajectory.to_json());
}
