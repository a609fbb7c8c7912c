//! Criterion micro-benchmarks for the local FFT engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fftkern::plan::{Layout, Plan1d};
use fftkern::{Direction, Plan3d, C64};

fn signal(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new((0.1 * i as f64).sin(), (0.3 * i as f64).cos()))
        .collect()
}

fn bench_1d_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_1d");
    for &n in &[64usize, 512, 1024, 4096] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let plan = Plan1d::contiguous(n, 1);
            let mut data = signal(n);
            b.iter(|| plan.execute_inplace(&mut data, Direction::Forward));
        });
    }
    group.finish();
}

fn bench_batched_contiguous_vs_strided(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_batched_512");
    let (n, batch) = (512usize, 64usize);
    group.throughput(Throughput::Elements((n * batch) as u64));
    group.bench_function("contiguous", |b| {
        let plan = Plan1d::contiguous(n, batch);
        let mut data = signal(n * batch);
        b.iter(|| plan.execute_inplace(&mut data, Direction::Forward));
    });
    group.bench_function("strided", |b| {
        let plan = Plan1d::with_layout(n, batch, Layout::strided(batch), Layout::strided(batch));
        let mut data = signal(n * batch);
        b.iter(|| plan.execute_inplace(&mut data, Direction::Forward));
    });
    group.finish();
}

fn bench_3d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_3d");
    for &n in &[16usize, 32, 64] {
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let plan = Plan3d::new(n, n, n);
            let mut data = signal(n * n * n);
            b.iter(|| plan.execute(&mut data, Direction::Forward));
        });
    }
    group.finish();
}

fn bench_non_pow2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_1d_smooth_vs_prime");
    // Smooth (Stockham 8·4·3·5 stages) vs prime (Bluestein) near the same size.
    for &n in &[480usize, 499] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let plan = Plan1d::contiguous(n, 1);
            let mut data = signal(n);
            b.iter(|| plan.execute_inplace(&mut data, Direction::Forward));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_1d_sizes,
    bench_batched_contiguous_vs_strided,
    bench_3d,
    bench_non_pow2
);
criterion_main!(benches);
