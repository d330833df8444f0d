//! Golden before/after tests for the coalition-lattice fast path.
//!
//! REF and RAND must be **bit-for-bit deterministic**: for a fixed trace,
//! seed, and horizon, the schedule (every `(job, org, machine, start,
//! proc)` tuple) and the `ψ_sp` vector are fully determined. The fixtures
//! under `tests/golden/` were generated with the pre-fast-path lattice
//! (`HashMap` index, from-scratch Shapley at every event time); any
//! optimization of the lattice, the Shapley computation, or the engine
//! must reproduce them exactly.
//!
//! Regenerate with `REGEN_GOLDEN=1 cargo test --test golden_refrand` —
//! but only when a *deliberate* behavior change is being made, in which
//! case the diff documents it.

use fairsched::core::Trace;
use fairsched::sim::{SimResult, Simulation};
use fairsched::workloads::{generate, to_trace, MachineSplit, SynthConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The synthetic workload family the lattice benches use (small enough
/// for REF to stay fast at k ≤ 8, busy enough to exercise every path).
fn workload(k: usize, seed: u64) -> Trace {
    let config = SynthConfig {
        n_users: 2 * k,
        horizon: 1_000,
        n_machines: 2 * k,
        load: 0.8,
        duration_median: 30.0,
        duration_sigma: 1.0,
        max_duration: 200,
        ..SynthConfig::default()
    };
    let jobs = generate(&config, seed);
    to_trace(&jobs, k, 2 * k, MachineSplit::Equal, seed).unwrap()
}

/// A tiny hand-built trace with bursts, idle gaps, and a jobless donor
/// org — the structural corner cases of the fair rule.
fn corner_trace() -> Trace {
    let mut b = Trace::builder();
    let a = b.org("busy", 2);
    let c = b.org("donor", 1);
    let d = b.org("late", 1);
    b.jobs(a, 0, 3, 4);
    b.job(c, 7, 5).job(c, 7, 1);
    b.job(d, 12, 2).job(d, 20, 4);
    b.build().unwrap()
}

/// Canonical, diff-friendly rendering of a run: one line per scheduled
/// job plus the ψ vector.
fn render(result: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scheduler={}", result.scheduler);
    let _ = writeln!(out, "horizon={}", result.horizon);
    for e in result.schedule.entries() {
        let _ = writeln!(
            out,
            "job={} org={} machine={} start={} proc={}",
            e.job.index(),
            e.org.index(),
            e.machine.index(),
            e.start,
            e.proc_time
        );
    }
    let psi: Vec<String> = result.psi.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(out, "psi={}", psi.join(","));
    out
}

struct Case {
    name: &'static str,
    trace: Trace,
    spec: &'static str,
    seed: u64,
    horizon: u64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "ref_corner",
            trace: corner_trace(),
            spec: "ref",
            seed: 0,
            horizon: 40,
        },
        Case {
            name: "rand15_corner",
            trace: corner_trace(),
            spec: "rand:perms=15",
            seed: 9,
            horizon: 40,
        },
        Case {
            name: "ref_k4_s5",
            trace: workload(4, 5),
            spec: "ref",
            seed: 0,
            horizon: 1_000,
        },
        Case {
            name: "ref_k5_s11",
            trace: workload(5, 11),
            spec: "ref",
            seed: 0,
            horizon: 800,
        },
        Case {
            name: "ref_k6_s5",
            trace: workload(6, 5),
            spec: "ref",
            seed: 0,
            horizon: 600,
        },
        Case {
            name: "ref_k8_s5",
            trace: workload(8, 5),
            spec: "ref",
            seed: 0,
            horizon: 1_000,
        },
        Case {
            name: "rand15_k4_s5",
            trace: workload(4, 5),
            spec: "rand:perms=15",
            seed: 9,
            horizon: 1_000,
        },
        Case {
            name: "rand75_k6_s7",
            trace: workload(6, 7),
            spec: "rand:perms=75",
            seed: 3,
            horizon: 800,
        },
        Case {
            name: "rand5_k8_s2",
            trace: workload(8, 2),
            spec: "rand:perms=5",
            seed: 17,
            horizon: 600,
        },
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn ref_and_rand_match_pre_fastpath_golden_outputs() {
    let regen = std::env::var_os("REGEN_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for case in cases() {
        let result = Simulation::new(&case.trace)
            .scheduler(case.spec)
            .unwrap()
            .horizon(case.horizon)
            .validate(true)
            .seed(case.seed)
            .run()
            .unwrap();
        let rendered = render(&result);
        let path = golden_path(case.name);
        if regen {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        if rendered != expected {
            mismatches.push(case.name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "schedules/ψ diverged from the golden fixtures for: {mismatches:?} \
         (REGEN_GOLDEN=1 only for deliberate behavior changes)"
    );
}
