//! Criterion benchmarks for the simulator and the full synthesis pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::PareDown;
use eblocks_sim::{Simulator, Stimulus};
use eblocks_synth::{exercise_all_sensors, Pipeline};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    for inner in [10usize, 45] {
        let design = generate(&GeneratorConfig::new(inner), 7);
        let sim = Simulator::new(&design).expect("generated designs simulate");
        let stim = exercise_all_sensors(&design, 20);
        let horizon = stim.end_time().unwrap_or(0) + 100;
        group.bench_with_input(BenchmarkId::from_parameter(inner), &sim, |b, sim| {
            b.iter(|| black_box(sim.run(&stim, horizon).expect("runs")))
        });
    }
    group.finish();
}

fn bench_full_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesize");
    group.sample_size(10);
    // With verification (the default, co-simulates both networks) and
    // without (partition + codegen + rewrite only).
    let design = eblocks_designs::podium_timer_3();
    group.bench_function("podium_timer_3_verified", |b| {
        b.iter(|| black_box(Pipeline::new(&design).run(&PareDown, true).expect("synth")))
    });
    group.bench_function("podium_timer_3_unverified", |b| {
        b.iter(|| black_box(Pipeline::new(&design).run(&PareDown, false).expect("synth")))
    });
    group.finish();
}

fn bench_single_block_throughput(c: &mut Criterion) {
    // Packets per second through the event queue, across the three shapes
    // that stress it differently: a deep chain (long same-instant cascades),
    // a wide fan-out (many sinks per transmission), and a dense tick load
    // (every instant has calendar events).
    let mut group = c.benchmark_group("chain_throughput");

    // Deep chain: 100 stimulus edges, each cascading through 50 inverters.
    let mut d = eblocks_core::Design::new("chain");
    let s = d.add_block("s", eblocks_core::SensorKind::Button);
    let mut prev = s;
    for i in 0..50 {
        let g = d.add_block(format!("g{i}"), eblocks_core::ComputeKind::Not);
        d.connect((prev, 0), (g, 0)).unwrap();
        prev = g;
    }
    let o = d.add_block("led", eblocks_core::OutputKind::Led);
    d.connect((prev, 0), (o, 0)).unwrap();
    let sim = Simulator::new(&d).unwrap();
    let mut stim = Stimulus::new();
    for k in 0..100 {
        stim = stim.set(10 + 2 * k, "s", k % 2 == 0);
    }
    group.bench_function("50_block_chain_100_edges", |b| {
        b.iter(|| black_box(sim.run(&stim, 1000).unwrap()))
    });

    // Wide fan-out: a splitter tree (depth 5, 32 leaves) so every edge at
    // the root transmits to an exponentially widening cone of sinks.
    let mut d = eblocks_core::Design::new("fanout");
    let s = d.add_block("s", eblocks_core::SensorKind::Button);
    let mut frontier = vec![(s, 0u8)];
    for level in 0..5 {
        let mut next = Vec::new();
        for (i, &(src, port)) in frontier.iter().enumerate() {
            let sp = d.add_block(
                format!("sp{level}_{i}"),
                eblocks_core::ComputeKind::Splitter,
            );
            d.connect((src, port), (sp, 0)).unwrap();
            next.push((sp, 0u8));
            next.push((sp, 1u8));
        }
        frontier = next;
    }
    for (i, &(src, port)) in frontier.iter().enumerate() {
        let led = d.add_block(format!("led{i}"), eblocks_core::OutputKind::Led);
        d.connect((src, port), (led, 0)).unwrap();
    }
    let sim = Simulator::new(&d).unwrap();
    let mut stim = Stimulus::new();
    for k in 0..50 {
        stim = stim.set(10 + 2 * k, "s", k % 2 == 0);
    }
    group.bench_function("wide_fanout_32_leaves_50_edges", |b| {
        b.iter(|| black_box(sim.run(&stim, 500).unwrap()))
    });

    // Dense ticks: 24 independent pulse-generator columns all ticking at
    // period 1, so every instant drains a populated calendar bucket.
    let mut d = eblocks_core::Design::new("ticks");
    for i in 0..24 {
        let b = d.add_block(format!("b{i}"), eblocks_core::SensorKind::Button);
        let p = d.add_block(
            format!("p{i}"),
            eblocks_core::ComputeKind::PulseGen { ticks: 5 },
        );
        let o = d.add_block(format!("led{i}"), eblocks_core::OutputKind::Led);
        d.connect((b, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
    }
    let sim = Simulator::new(&d).unwrap();
    let mut stim = Stimulus::new();
    for i in 0..24 {
        stim = stim.pulse(10 + 7 * i, 3, format!("b{i}"));
    }
    group.bench_function("dense_tick_24_pulsegens", |b| {
        b.iter(|| black_box(sim.run(&stim, 400).unwrap()))
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_full_synthesis,
    bench_single_block_throughput
);
criterion_main!(benches);
