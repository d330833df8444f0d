//! End-to-end scheduler throughput: full simulation of an LPC-EGEE-like
//! instance under every algorithm. This is the per-decision overhead
//! comparison behind the paper's "all the other algorithms are about
//! equally computationally efficient" observation (Section 7.3), with REF
//! and RAND showing their exponential/sampling surcharges.

use criterion::{criterion_group, criterion_main, Criterion};
use fairsched_core::scheduler::registry::{BuildContext, Registry};
use fairsched_core::scheduler::RefScheduler;
use fairsched_sim::{run_scheduler, SimOptions};
use fairsched_workloads::{generate, preset, to_trace, MachineSplit, PresetName};
use std::hint::black_box;

fn bench_schedulers(c: &mut Criterion) {
    let horizon = 20_000;
    let p = preset(PresetName::LpcEgee, 0.5, horizon);
    let jobs = generate(&p.synth, 11);
    let trace =
        to_trace(&jobs, 5, p.synth.n_machines, MachineSplit::Zipf(1.0), 11).unwrap();

    let mut group = c.benchmark_group("simulate_lpc_half_scale");
    group.sample_size(20);
    for spec in [
        "roundrobin",
        "fifo",
        "fairshare",
        "utfairshare",
        "currfairshare",
        "directcontr",
        "rand:perms=15",
        "rand:perms=75",
    ] {
        group.bench_function(spec, |b| {
            b.iter(|| {
                let mut s = Registry::shared()
                    .build_str(spec, &BuildContext { trace: &trace, seed: 3 })
                    .unwrap();
                black_box(run_scheduler(
                    &trace,
                    s.as_mut(),
                    SimOptions { horizon, validate: false },
                ))
            });
        });
    }
    group.bench_function("Ref (exact)", |b| {
        b.iter(|| {
            let mut s = RefScheduler::new(&trace);
            black_box(run_scheduler(
                &trace,
                &mut s,
                SimOptions { horizon, validate: false },
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
