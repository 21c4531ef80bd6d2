//! Criterion benches over the §4.3 scenarios.
//!
//! These measure the *harness* wall-clock (how fast the deterministic
//! simulation executes each scenario); the paper-comparable virtual-time
//! medians come from the `paper` binary. Keeping both lets
//! regressions in either the simulator's performance or the scenarios'
//! structure show up in `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use indiss_bench::scenarios::{bridged, native_slp, native_upnp, Deployment, Direction};

fn bench_native(c: &mut Criterion) {
    let mut group = c.benchmark_group("native");
    group.sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("slp_discovery", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(native_slp(seed)).expect("slp answers")
        })
    });
    group.bench_function("upnp_discovery", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(native_upnp(seed)).expect("upnp answers")
        })
    });
    group.finish();
}

fn bench_bridged(c: &mut Criterion) {
    let mut group = c.benchmark_group("bridged");
    group.sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    for deployment in [Deployment::ClientSide, Deployment::ServiceSide, Deployment::Gateway] {
        group.bench_with_input(
            BenchmarkId::new("slp_to_upnp", format!("{deployment:?}")),
            &deployment,
            |b, &deployment| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(bridged(seed, deployment, Direction::SlpToUpnp, false))
                        .expect("bridged answer")
                })
            },
        );
    }
    group.bench_function("upnp_to_slp_warm", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(bridged(seed, Deployment::ClientSide, Direction::UpnpToSlp, true))
                .expect("warm answer")
        })
    });
    group.finish();
}

fn bench_workload_scaling(c: &mut Criterion) {
    // How the simulator scales with fleet size (ablation for the
    // evaluation harness itself).
    let mut group = c.benchmark_group("workload");
    group.sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    for services in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("slp_fanout", services),
            &services,
            |b, &services| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let n = indiss_bench::scenarios::smoke_workload(seed, services);
                    assert_eq!(n, services);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_native, bench_bridged, bench_workload_scaling);
criterion_main!(benches);
