//! Fleet co-simulation scaling: one global clock over 100 to 10,000 nodes.
//!
//! Spins up relay fleets of Night Lamp Controller nodes on a grid
//! substrate via the declarative [`FleetRequest`] spec, runs each to the
//! horizon twice, and reports engine events per second (from the faster
//! of the two runs) and the process's peak RSS after each size, then the 10,000-node rate as a share of the
//! 100-node and of the 1000-node one. Fleets from 256 nodes up step their
//! nodes on one lane per core, so running the bin pinned to one core (for
//! example under `taskset -c 0`) must print the same counts. The second
//! run is the determinism check: its whole
//! outcome (the report and every node's packet trace) must equal the
//! first, or the program exits with status 1, so a node-level reordering
//! that keeps the fleet's counts fails it too.
//!
//! Usage: `cargo run --release -p eblocks-bench --bin fleet_scaling [until]`

use eblocks_net::{FleetRequest, FleetSource};
use std::time::{Duration, Instant};

/// Fleet sizes swept, smallest first.
const SIZES: [u32; 4] = [100, 1000, 4000, 10_000];

fn fmt_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.1} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// The process's peak resident set so far (`VmHWM` in `/proc/self/status`),
/// or `n/a` where the platform does not report it.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line["VmHWM:".len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(format!("{:.1} MB", kb / 1024.0))
        })
        .unwrap_or_else(|| "n/a".to_string())
}

fn main() {
    let until: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);

    println!("Fleet co-simulation scaling (Night Lamp Controller relay ring on a grid):");
    println!("horizon = {until} ticks, seed = 7, default link (latency 1, 8 bits/tick)");
    println!(
        "{:>7} {:>14} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "nodes", "topology", "events", "sent", "delivered", "time", "events/s", "peak RSS"
    );

    let mut differing = Vec::new();
    let mut rates = Vec::with_capacity(SIZES.len());
    for nodes in SIZES {
        let spec = FleetRequest {
            name: Some(format!("scale-{nodes}")),
            nodes,
            topology: "grid".into(),
            design: FleetSource::Library("Night Lamp Controller".into()),
            until: Some(until),
            seed: Some(7),
            latency: None,
            bits_per_tick: None,
            packet_bits: None,
            loss_pm: None,
            stimulus_period: None,
        };
        let fleet = spec
            .build(std::path::Path::new("."))
            .expect("library fleet builds");

        let start = Instant::now();
        let first = fleet.run(until).expect("fleet run");
        let cold = start.elapsed();
        let start = Instant::now();
        let second = fleet.run(until).expect("fleet rerun");
        // The faster of the two: the first run of a size is also the
        // process's first at it, so its time swings with what ran before.
        let elapsed = cold.min(start.elapsed());
        if first != second {
            differing.push(nodes);
        }

        let report = first.report;
        let rate = report.events as f64 / elapsed.as_secs_f64();
        rates.push(rate);
        println!(
            "{:>7} {:>14} {:>10} {:>8} {:>10} {:>10} {:>10.0} {:>10}",
            nodes,
            report.topology,
            report.events,
            report.packets_sent,
            report.packets_delivered,
            fmt_time(elapsed),
            rate,
            peak_rss()
        );
    }
    let last = SIZES.len() - 1;
    for base in [0, 1] {
        println!(
            "events/s at {} nodes over {} nodes: {:.2}",
            SIZES[last],
            SIZES[base],
            rates[last] / rates[base]
        );
    }
    if differing.is_empty() {
        println!("outcomes (reports and node traces) identical across paired runs: yes");
    } else {
        eprintln!("error: paired runs produced different outcomes at {differing:?} nodes");
        std::process::exit(1);
    }
}
