//! Criterion benchmarks for the placement extension (§6 future work):
//! greedy construction vs. annealing improvement across substrate shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::PareDown;
use eblocks_place::{anneal_place, greedy_place, PlaceAnnealConfig, PlacementProblem, Topology};
use eblocks_synth::Pipeline;
use std::hint::black_box;

/// A synthesized random design and a grid just big enough to host it.
fn prepared(inner: usize) -> (eblocks_core::Design, Topology) {
    let design = generate(&GeneratorConfig::new(inner), 77);
    let result = Pipeline::new(&design)
        .run(&PareDown, false)
        .expect("synthesis succeeds on generated designs");
    let blocks = result.synthesized.num_blocks();
    let side = (blocks as f64).sqrt().ceil() as usize;
    (result.synthesized, Topology::grid(side, side + 1))
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("place_greedy");
    for inner in [10usize, 25, 45] {
        let (design, topo) = prepared(inner);
        let problem = PlacementProblem::new(&design, &topo).expect("fits");
        group.bench_with_input(BenchmarkId::from_parameter(inner), &problem, |b, p| {
            b.iter(|| black_box(greedy_place(p).expect("placeable")))
        });
    }
    group.finish();
}

fn bench_anneal(c: &mut Criterion) {
    let mut group = c.benchmark_group("place_anneal");
    group.sample_size(10);
    let config = PlaceAnnealConfig::with_iterations(5_000);
    for inner in [10usize, 25] {
        let (design, topo) = prepared(inner);
        let problem = PlacementProblem::new(&design, &topo).expect("fits");
        group.bench_with_input(BenchmarkId::from_parameter(inner), &problem, |b, p| {
            b.iter(|| black_box(anneal_place(p, &config).expect("placeable")))
        });
    }
    group.finish();
}

fn bench_topology_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("place_shapes");
    let (design, _) = prepared(20);
    let blocks = design.num_blocks();
    let shapes: Vec<(&str, Topology)> = vec![
        ("line", Topology::line(blocks)),
        ("grid", {
            let side = (blocks as f64).sqrt().ceil() as usize;
            Topology::grid(side, side + 1)
        }),
        ("star", Topology::star(blocks.saturating_sub(1).max(1), 4)),
    ];
    for (name, topo) in shapes {
        let problem = PlacementProblem::new(&design, &topo).expect("fits");
        group.bench_with_input(BenchmarkId::from_parameter(name), &problem, |b, p| {
            b.iter(|| black_box(greedy_place(p).expect("placeable")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_anneal, bench_topology_shapes);
criterion_main!(benches);
