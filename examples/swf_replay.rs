//! Replaying a real-format workload log (Standard Workload Format).
//!
//! The paper's evaluation replays Parallel Workload Archive logs; this
//! example shows the full pipeline on an embedded SWF fragment — parse,
//! summarize, expand parallel jobs to sequential copies, assign users to
//! organizations, schedule, and compare fairness. Point the same code at a
//! downloaded archive log (e.g. `LPC-EGEE-2004-1.2-cln.swf`) to reproduce
//! the paper's setting exactly; the `fairsched` CLI wraps this with
//! `--swf`.
//!
//! `cargo run --example swf_replay`

use fairsched::core::fairness::FairnessReport;
use fairsched::sim::{SimError, Simulation};
use fairsched::workloads::{swf, WorkloadContext, WorkloadRegistry, WorkloadSpec};

/// A hand-made SWF fragment: 18-field records, `;` headers, a cancelled
/// job (runtime −1), parallel jobs (field 5 > 1), four users.
const SAMPLE_LOG: &str = "\
; Version: 2.2
; Computer: example cluster
; Note: job 5 was cancelled and must be skipped
1   0   2  40  2 -1 -1  2 -1 -1 1 101 1 -1 1 -1 -1 -1
2   5   1  25  1 -1 -1  1 -1 -1 1 102 1 -1 1 -1 -1 -1
3  10   4  60  3 -1 -1  3 -1 -1 1 103 1 -1 1 -1 -1 -1
4  12   0  15  1 -1 -1  1 -1 -1 1 104 1 -1 1 -1 -1 -1
5  15   0  -1  2 -1 -1  2 -1 -1 0 101 1 -1 1 -1 -1 -1
6  20   3  35  2 -1 -1  2 -1 -1 1 102 1 -1 1 -1 -1 -1
7  30   2  50  1 -1 -1  1 -1 -1 1 101 1 -1 1 -1 -1 -1
8  45   1  20  4 -1 -1  4 -1 -1 1 103 1 -1 1 -1 -1 -1
";

fn main() -> Result<(), SimError> {
    let records = swf::parse(SAMPLE_LOG).expect("valid SWF");
    let stats = swf::stats(&records);
    println!(
        "log: {} jobs, {} users, span {}s, runtimes p10/p50/p90 = {:?}, max width {}",
        stats.jobs,
        stats.users,
        stats.span,
        stats.runtime_percentiles,
        stats.max_processors
    );

    // The paper's preprocessing: q-processor jobs become q sequential copies.
    let jobs = swf::to_user_jobs(&records, 0, 1_000);
    println!(
        "expanded to {} sequential jobs ({} records, widths summed)",
        jobs.len(),
        stats.jobs
    );

    // Replay through the workload registry: on disk, any archive log is
    // addressable as an `swf:` spec (two organizations, four machines
    // split by Zipf, users dealt uniformly — all parameters of the spec).
    let log_path = std::env::temp_dir()
        .join(format!("fairsched_swf_replay_example-{}.swf", std::process::id()));
    std::fs::write(&log_path, SAMPLE_LOG).expect("writable temp dir");
    let spec = WorkloadSpec::bare("swf")
        .with("path", log_path.display())
        .with("machines", 4)
        .with("orgs", 2)
        .with("end", 1_000);
    println!("\nworkload spec: {spec}");
    let trace = WorkloadRegistry::shared().build(&spec, &WorkloadContext { seed: 7 });
    let _ = std::fs::remove_file(&log_path);
    let trace = trace?;
    let horizon = 300;

    let fair = Simulation::new(&trace).scheduler("ref")?.horizon(horizon).run()?;
    let result =
        Simulation::new(&trace).scheduler("fairshare")?.horizon(horizon).run()?;

    println!(
        "\nFairShare on this log: {} started, utilization {:.1}%",
        result.started_jobs,
        100.0 * result.utilization
    );
    let report =
        FairnessReport::from_schedules(&trace, &result.schedule, &fair.schedule, horizon);
    println!("{report}");

    // Round-trip: write and re-parse.
    let rewritten = swf::write(&records);
    assert_eq!(swf::parse(&rewritten).unwrap(), records);
    println!("SWF write→parse round-trip holds ✓");
    Ok(())
}
