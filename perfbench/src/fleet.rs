//! `fleet`: fleet co-simulation at the 1000-node point, one fleet per op.
//!
//! An op parses a line-format `FleetRequest` (a 1000-node grid running a
//! Night Lamp Controller relay ring, horizon 200, seed = workload seed +
//! op index), builds the fleet, and runs it. This is the only load on
//! `eblocks-net` and on `eblocks-place` routing, and it reaches the
//! simulator through `cosim::NodeRunner` rather than equivalence checking.

use crate::harness::{drive, fnv1a, set_up, Args, Op, Outcome, DEFAULT_SEED, FNV_OFFSET};
use crate::trace::Tracer;
use eblocks::net::{FleetReport, FleetRequest, FleetTopology};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fleet size: the ROADMAP's named 1000-node point, where the O(N²)
/// routing and per-instant scans dominate.
const NODES: u32 = 1000;
/// Run horizon, in ticks.
const UNTIL: u64 = 200;
/// Node design, from the Table 1 library.
const DESIGN: &str = "Night Lamp Controller";

/// Fleet ops per second of `--seconds`: one op takes about 0.2 s on two
/// cores.
const OPS_PER_SECOND: f64 = 5.0;

/// The report of the default-seed reference request, recorded with the
/// benchmark.
const RECORDED: &str = include_str!("../reference/fleet-default.txt");

/// The line-format request of one op.
pub fn request(name: &str, nodes: u32, seed: u64) -> String {
    format!(
        "name = {name}\nnodes = {nodes}\ntopology = grid\nlibrary = {DESIGN}\nuntil = {UNTIL}\nseed = {seed}\n"
    )
}

/// Deterministic totals over the run's fleets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Engine events processed.
    pub events: u64,
    /// Packets sent into the network.
    pub sent: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets lost.
    pub dropped: u64,
    /// Packets still traveling at the horizon.
    pub in_flight: u64,
    /// Ticks packets queued behind earlier traffic, over every link.
    pub link_wait_ticks: u64,
}

impl Totals {
    fn of(report: &FleetReport) -> Self {
        Self {
            events: report.events,
            sent: report.packets_sent,
            delivered: report.packets_delivered,
            dropped: report.packets_dropped,
            in_flight: report.packets_in_flight,
            link_wait_ticks: report.link_stats.iter().map(|l| l.wait_ticks).sum(),
        }
    }

    fn add(&mut self, other: Totals) {
        self.events += other.events;
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.in_flight += other.in_flight;
        self.link_wait_ticks += other.link_wait_ticks;
    }
}

/// Parses, builds, and runs one fleet; returns the latency and the report.
fn simulate(tracer: &mut Tracer, text: &str, op: u64) -> (Duration, Result<FleetReport, String>) {
    let started = Instant::now();
    let root = tracer.begin("fleet.op", op);
    let report = (|| {
        let request = tracer.span("net.parse", op, || FleetRequest::parse(text))?;
        let fleet = tracer.span("net.build", op, || request.build(Path::new(".")))?;
        let outcome = tracer.span("net.run", op, || fleet.run(request.until()))?;
        Ok(outcome.report)
    })()
    .map_err(|e: eblocks::net::NetError| e.to_string());
    tracer.end(root);
    let latency = started.elapsed();
    let report = report.and_then(|report| {
        let accounted =
            report.packets_delivered + report.packets_dropped + report.packets_in_flight;
        if report.packets_sent == accounted {
            Ok(report)
        } else {
            Err(format!(
                "{} packets sent but {accounted} delivered, dropped, or in flight",
                report.packets_sent
            ))
        }
    });
    (latency, report)
}

/// Routing on its own: the path matrix the fleet's relay ring needs (every
/// node is a channel source), timed outside the op to size routing's share
/// of `net.run`.
fn route(tracer: &mut Tracer, text: &str, op: u64) -> Result<(), String> {
    let request = FleetRequest::parse(text).map_err(|e| e.to_string())?;
    let n = request.nodes as usize;
    let topology = FleetTopology::parse(&request.topology, n).map_err(|e| e.to_string())?;
    let sites = topology.assign(n).map_err(|e| e.to_string())?;
    let paths = tracer.span("place.route", op, || {
        topology.substrate().path_matrix_for(sites.iter().copied())
    });
    std::hint::black_box(paths);
    Ok(())
}

/// The recorded summary line of a report: its counts and a digest of its
/// full JSON.
pub fn summary(report: &FleetReport) -> String {
    let hash = fnv1a(FNV_OFFSET, report.to_json().as_bytes());
    format!(
        "events={} sent={} delivered={} dropped={} in_flight={} json_fnv64={hash:016x}",
        report.events,
        report.packets_sent,
        report.packets_delivered,
        report.packets_dropped,
        report.packets_in_flight
    )
}

/// Runs the default-seed reference request and compares its report with
/// the recorded one.
fn reference(tracer: &mut Tracer) -> Result<(), String> {
    let (_, report) = simulate(tracer, &request("reference", NODES, DEFAULT_SEED), 0);
    let got = summary(&report?);
    let recorded = RECORDED
        .lines()
        .find(|line| !line.starts_with('#') && !line.trim().is_empty())
        .unwrap_or_default()
        .trim();
    if got == recorded {
        Ok(())
    } else {
        Err(format!(
            "report `{got}` differs from the recorded `{recorded}`"
        ))
    }
}

/// Runs `ops` fleets of `nodes` nodes.
pub fn run_sized(
    args: &Args,
    tracer: &mut Tracer,
    ops: usize,
    nodes: u32,
) -> Result<Outcome, String> {
    let (requests, setup) = set_up(
        args.trace,
        tracer,
        |_| {
            Ok((0..ops as u64)
                .map(|i| request("perfbench", nodes, args.seed.wrapping_add(i)))
                .collect::<Vec<_>>())
        },
        drop,
    )?;

    // The reference run doubles as the warm-up.
    let recorded = reference(tracer);

    let mut totals = Totals::default();
    let phase = drive(requests.len(), args.trace, tracer, |i, tracer| {
        let counted = tracer.enabled() || !args.trace;
        let (latency, report) = simulate(tracer, &requests[i], i as u64);
        let routed = if tracer.enabled() {
            route(tracer, &requests[i], i as u64)
        } else {
            Ok(())
        };
        match report.and_then(|report| routed.map(|()| report)) {
            Ok(report) => {
                if counted {
                    totals.add(Totals::of(&report));
                }
                Op::ok(latency, report.events as f64)
            }
            Err(e) => Op::failed(latency, e),
        }
    });

    let node_design = eblocks::designs::by_name(DESIGN).ok_or("node design is missing")?;
    let deployed = u64::from(nodes) * node_design.design.inner_blocks().count() as u64;
    let mut outcome = Outcome::new(phase, setup, "events");
    outcome.inner_blocks = deployed * requests.len() as u64;
    outcome
        .checks
        .push(("default-seed report".to_string(), recorded));
    outcome.deterministic = vec![
        ("fleets", requests.len().to_string()),
        ("events", totals.events.to_string()),
        ("packets_sent", totals.sent.to_string()),
        ("packets_delivered", totals.delivered.to_string()),
        ("packets_dropped", totals.dropped.to_string()),
        ("packets_in_flight", totals.in_flight.to_string()),
        ("link_wait_ticks", totals.link_wait_ticks.to_string()),
    ];
    let basis = format!("{} fleets of {nodes} nodes", requests.len());
    let run_ns = tracer.layers().get("net.run").map_or(0, |l| l.self_ns);
    outcome.count(
        "net.ns_per_event",
        run_ns as f64 / totals.events.max(1) as f64,
        format!("`net.run` self time over {} events", totals.events),
    );
    outcome.count("net.events", totals.events as f64, basis.clone());
    outcome.count("net.packets_sent", totals.sent as f64, basis.clone());
    outcome.count(
        "net.packets_delivered",
        totals.delivered as f64,
        basis.clone(),
    );
    outcome.count("net.packets_dropped", totals.dropped as f64, basis.clone());
    outcome.count("net.link_wait_ticks", totals.link_wait_ticks as f64, basis);
    Ok(outcome)
}

/// Runs the workload sized by `--seconds`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let ops = (args.seconds as f64 * OPS_PER_SECOND).round().max(1.0) as usize;
    run_sized(args, tracer, ops, NODES)
}
