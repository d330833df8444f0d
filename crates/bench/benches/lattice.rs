//! The FPT growth curve (Corollary 3.5): REF's cost as the number of
//! organizations grows, with everything else held fixed. The per-decision
//! cost is `Θ(k·2^k)` plus lattice bookkeeping — this bench makes the
//! exponential visible and shows RAND's polynomial alternative staying
//! flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairsched_bench::baseline::bench_workload;
use fairsched_core::scheduler::{RandScheduler, RefScheduler};
use fairsched_sim::{run_scheduler, SimOptions};
use std::hint::black_box;

/// The registry's `fpt:k=<k>` family — the same traces `bench_baseline`
/// measures, so criterion numbers and `BENCH_lattice.json` stay on one
/// workload.
fn workload(k: usize, seed: u64) -> fairsched_core::Trace {
    bench_workload(k, seed)
}

fn bench_ref_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("ref_fpt_growth");
    group.sample_size(10);
    for k in [2usize, 4, 6, 8, 10] {
        let trace = workload(k, 5);
        group.bench_with_input(BenchmarkId::new("ref", k), &trace, |b, trace| {
            b.iter(|| {
                let mut s = RefScheduler::new(trace);
                black_box(run_scheduler(
                    trace,
                    &mut s,
                    SimOptions { horizon: 2_000, validate: false },
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("rand15", k), &trace, |b, trace| {
            b.iter(|| {
                let mut s = RandScheduler::new(trace, 15, 9);
                black_box(run_scheduler(
                    trace,
                    &mut s,
                    SimOptions { horizon: 2_000, validate: false },
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ref_vs_k);
criterion_main!(benches);
