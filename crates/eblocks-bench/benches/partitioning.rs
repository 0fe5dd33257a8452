//! Criterion benchmarks for the partitioning algorithms, including the
//! ablations of the convexity and connectivity constraints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::{
    aggregation, anneal, exhaustive, pare_down, refine, AnnealConfig, ExhaustiveOptions,
    PartitionConstraints,
};
use std::hint::black_box;
use std::time::Duration;

fn bench_pare_down_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pare_down");
    let constraints = PartitionConstraints::default();
    for inner in [5usize, 10, 20, 45, 100, 465] {
        let design = generate(&GeneratorConfig::new(inner), 99);
        group.bench_with_input(BenchmarkId::from_parameter(inner), &design, |b, d| {
            b.iter(|| black_box(pare_down(d, &constraints)))
        });
    }
    group.finish();
}

fn bench_exhaustive_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(10));
    let constraints = PartitionConstraints::default();
    for inner in [5usize, 8, 10, 12] {
        let design = generate(&GeneratorConfig::new(inner), 99);
        let options = ExhaustiveOptions {
            time_limit: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(inner), &design, |b, d| {
            b.iter(|| black_box(exhaustive(d, &constraints, options)))
        });
    }
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation");
    let constraints = PartitionConstraints::default();
    for inner in [10usize, 45] {
        let design = generate(&GeneratorConfig::new(inner), 99);
        group.bench_with_input(BenchmarkId::from_parameter(inner), &design, |b, d| {
            b.iter(|| black_box(aggregation(d, &constraints)))
        });
    }
    group.finish();
}

fn bench_constraint_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("pare_down_ablations");
    let design = generate(&GeneratorConfig::new(45), 99);
    let paper = PartitionConstraints::default();
    let convex = PartitionConstraints {
        require_convex: true,
        ..Default::default()
    };
    let connected = PartitionConstraints {
        require_connected: true,
        ..Default::default()
    };
    group.bench_function("paper_constraints", |b| {
        b.iter(|| black_box(pare_down(&design, &paper)))
    });
    group.bench_function("require_convex", |b| {
        b.iter(|| black_box(pare_down(&design, &convex)))
    });
    group.bench_function("require_connected", |b| {
        b.iter(|| black_box(pare_down(&design, &connected)))
    });
    group.finish();
}

fn bench_library_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("library_pare_down");
    let constraints = PartitionConstraints::default();
    for entry in eblocks_designs::all() {
        if matches!(
            entry.name,
            "Podium Timer 3" | "Two-Zone Security" | "Timed Passage"
        ) {
            group.bench_function(entry.name, |b| {
                b.iter(|| black_box(pare_down(&entry.design, &constraints)))
            });
        }
    }
    group.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine");
    let constraints = PartitionConstraints::default();
    for inner in [10usize, 45, 100] {
        let design = generate(&GeneratorConfig::new(inner), 99);
        let seed = pare_down(&design, &constraints);
        group.bench_with_input(
            BenchmarkId::from_parameter(inner),
            &(design, seed),
            |b, (d, s)| b.iter(|| black_box(refine(d, &constraints, s))),
        );
    }
    group.finish();
}

fn bench_anneal(c: &mut Criterion) {
    let mut group = c.benchmark_group("anneal");
    group.sample_size(10);
    let constraints = PartitionConstraints::default();
    let config = AnnealConfig::with_iterations(10_000);
    for inner in [10usize, 45] {
        let design = generate(&GeneratorConfig::new(inner), 99);
        group.bench_with_input(BenchmarkId::from_parameter(inner), &design, |b, d| {
            b.iter(|| black_box(anneal(d, &constraints, &config)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pare_down_scaling,
    bench_exhaustive_scaling,
    bench_aggregation,
    bench_constraint_ablations,
    bench_library_designs,
    bench_refine,
    bench_anneal
);
criterion_main!(benches);
