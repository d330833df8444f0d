//! Seeded input generators. `--seed` drives these and nothing else: the
//! same seed gives the same SWF bytes, spec JSON and message list.

use fairsched_core::model::Time;
use fairsched_experiment::{ExperimentSpec, SeedPlan};
use fairsched_serve::Message;
use fairsched_workloads::swf::{self, SwfJob};
use fairsched_workloads::{generate, SynthConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed of a run's `i`-th input instance. A run draws several
/// instances so that its medians describe the workload, not one draw of
/// it; instance 0 is the run's seed itself, so `--seed 42` measures the
/// inputs a user gets from `fairsched --seed 42`.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(1_000_003))
}

/// The seed of everything that is the cluster's structure rather than its
/// traffic: which users belong to which organization, how machines are
/// split, the daemon's base trace. `--seed` draws the traffic (job streams,
/// messages) over that fixed structure. Which users share an organization
/// moves a run's cost by ±20 %, so a seed that redrew it would measure the
/// draw and not the code.
pub const STRUCTURE_SEED: u64 = 42;

/// The million-job archive log: the generator configuration of the repo's
/// `scale/` tier (2 000 users, load 0.95 of 400 machines) over 30 000 s,
/// which keeps the record count clear of 2^20 on every seed (a `Vec` that
/// doubles on some seeds only would make peak RSS bimodal). Rendered as
/// SWF text; returns the text and its record count.
pub fn swf_log(seed: u64) -> (String, usize) {
    let config = SynthConfig {
        n_users: 2_000,
        horizon: 30_000,
        n_machines: 400,
        load: 0.95,
        duration_median: 6.0,
        duration_sigma: 1.0,
        max_duration: 50,
        user_zipf: 1.1,
        session_jobs: 8.0,
        intra_session_gap: 2.0,
    };
    let records: Vec<SwfJob> = generate(&config, seed)
        .iter()
        .enumerate()
        .map(|(i, j)| SwfJob {
            job_number: i as i64 + 1,
            submit: j.release,
            runtime: j.proc_time,
            processors: 1,
            user: j.user,
        })
        .collect();
    (swf::write(&records), records.len())
}

/// Cells per instance of [`grid_spec`]: 5 workloads × 6 schedulers.
pub const GRID_CELLS_PER_SEED: u64 = 30;
/// Seed instances of [`grid_spec`]: many short cells rather than few long
/// ones, so one grid averages over many draws of its workloads.
pub const GRID_SEEDS: u64 = 16;
const GRID_HORIZON: Time = 1_000;

/// The Table-1-style grid: small FPT and archive-preset workloads × every
/// scheduler family × [`GRID_SEEDS`] seeds, with the REF-referenced `delay`
/// metric and schedule validation on, as `fairsched-experiment` spec JSON.
pub fn grid_spec(seed: u64) -> String {
    fn parse_all<T: std::str::FromStr>(specs: &[&str]) -> Vec<T> {
        specs.iter().map(|s| s.parse().ok().expect("spec literal parses")).collect()
    }
    let mut spec = ExperimentSpec::new(
        "benchmark-grid",
        parse_all(&[
            "fpt:horizon=1000,k=4",
            "fpt:horizon=1000,k=6",
            "fpt:horizon=1000,k=8",
            "synth:orgs=5,preset=lpc,scale=0.1",
            "synth:orgs=5,preset=ricc,scale=0.05",
        ]),
        parse_all(&[
            "fifo",
            "roundrobin",
            "fairshare",
            "directcontr",
            "rand:perms=15",
            "ref",
        ]),
    );
    spec.metrics = parse_all(&["delay", "psi", "flow", "stretch"]);
    spec.horizon = Some(GRID_HORIZON);
    spec.validate = true;
    spec.seeds = SeedPlan {
        base: seed,
        count: GRID_SEEDS,
        workload_stride: 1,
        scheduler_stride: 1,
    };
    spec.to_json()
}

/// The daemon's identity in the serve workloads (with [`STRUCTURE_SEED`]).
pub const SERVE_WORKLOAD: &str = "fpt:k=6";
pub const SERVE_SCHEDULER: &str = "ref";
const SERVE_ORGS: u32 = 6;

/// The online client's message list: three job submissions, then an
/// advance of the clock by 5, repeated. A submission's organization is
/// uniform, its release 1–3 after the clock, its length 3–9.
pub fn messages(seed: u64, count: usize) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock: Time = 0;
    (0..count)
        .map(|i| {
            if i % 4 == 3 {
                clock += 5;
                Message::Advance { until: clock }
            } else {
                Message::Submit {
                    org: rng.random_range(0..SERVE_ORGS),
                    release: clock + 1 + rng.random_range(0..3u64),
                    proc_time: rng.random_range(3..10u64),
                    deadline: None,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, n) = swf_log(9);
        let (b, m) = swf_log(9);
        assert!(a == b && n == m, "SWF bytes differ for one seed");
        assert!(n >= 1_000_000, "{n} records");
        assert_eq!(swf::parse(&a).unwrap().len(), n);
        assert_ne!(swf_log(10).1, 0);
        assert!(a != swf_log(10).0);

        assert_eq!(grid_spec(9), grid_spec(9));
        assert_ne!(grid_spec(9), grid_spec(10));
        let spec = ExperimentSpec::from_json_str(&grid_spec(9)).unwrap();
        assert_eq!(spec.n_cells(), GRID_CELLS_PER_SEED * GRID_SEEDS);
        assert_eq!(spec.to_json(), grid_spec(9), "spec JSON is canonical");

        assert_eq!(messages(9, 400), messages(9, 400));
        assert_ne!(messages(9, 400), messages(10, 400));
        assert_eq!(instance_seed(42, 0), 42);
    }

    #[test]
    fn message_list_keeps_three_submissions_per_advance() {
        let list = messages(3, 400);
        let advances =
            list.iter().filter(|m| matches!(m, Message::Advance { .. })).count();
        assert_eq!(advances, 100);
        assert_eq!(list.last(), Some(&Message::Advance { until: 500 }));
    }
}
