//! The [`Fleet`] builder and the global co-simulation engine.
//!
//! The engine keeps one global virtual clock. Each iteration picks the
//! earliest instant with work anywhere — a node's own calendar or the
//! network's — and processes it in the three documented phases (network,
//! nodes, egress; see the crate docs for the full ordering contract).
//! Nodes are [`eblocks_sim::NodeRunner`]s: the same arena a standalone
//! simulation uses, stepped instant-by-instant.
//!
//! Phase 2 runs on *lanes*: rank-contiguous chunks of the nodes. A fleet
//! of `n` nodes gets `pool::workers(None, n / MIN_LANE_NODES)` of them, so
//! one per core from 256 nodes up, and a smaller fleet runs one lane and
//! spawns no thread. The calling thread is lane 0 and runs phases 1 and 3
//! alone; every other lane is a scoped thread, spawned once per run, that
//! owns its chunk's runners for the run. At each instant the calling
//! thread hands every lane its nodes' phase-1 deliveries and waits for the
//! lanes by spinning, then yielding, on two counters per lane, so an
//! instant allocates nothing; a lane whose thread has not started the
//! instant by the time lane 0 is done, most likely because its core was
//! taken, is run by the calling thread instead. A node's phase-2 work (its
//! crash poll, its deliveries, its step and its captures) touches only its
//! own state, so a lane's crash list and egress come out in rank order,
//! whichever thread ran it, and the calling thread merges the lanes in
//! lane order, which is rank order: the outcome is the serial rank-order
//! loop's, whatever the lane count. The tests check this on the golden
//! fleet specs and a 1000-node grid, healthy and under a crash storm, on
//! 1, 2, 3 and 7 lanes and in seeded shuffled visit orders.
//!
//! A runner's next event time moves only when it steps or receives a
//! delivery, so each lane keeps its nodes' next event times in one dense
//! table and reports the earliest live one after each instant: the
//! earliest-instant scan reads one value per lane. Captures appear only
//! during a step, so a lane drains each node's captures right after its
//! step into the lane's egress buffer, and phase 3 walks those buffers in
//! lane order: no runner is touched twice in an instant, and sends keep
//! their (rank, capture, channel) order. The sends stay in phase 3 so that
//! every crash phase 2 logs at an instant precedes the instant's sends in
//! the trace.
//!
//! Node runners park settled ticks (see [`eblocks_sim::cosim`]), so a
//! node whose time-driven blocks have all settled reports only its next
//! input and is not stepped on the instants between. The loop still visits
//! every grid instant of a live node's tick period
//! ([`NodeRunner::tick_period`]) up to the horizon, and phase 2 counts such
//! a node once per grid instant whether it stepped or stayed parked. So
//! [`FleetReport::events`] counts what it would if every grid instant
//! ticked, and every live node is polled for a crash on the same instants.
//!
//! The network's calendar keeps one bucket of `(seq, event)` per instant;
//! phase 1 sorts the instant's bucket by packet seq when it opens, so an
//! instant's events run in seq order whatever order they were scheduled
//! in. When a channel is routed, each hop of its path is resolved to a
//! half-link id, so a hop indexes its link's FIFO state in a flat table
//! instead of looking up a site pair; the report lists the links packets
//! entered or were lost on, by site pair.

use crate::error::NetError;
use crate::fault::{NetFaultInjector, NoFaults, PacketFate};
use crate::link::{LinkSpec, LinkState};
use crate::stats::{FleetReport, LinkStats, NodeStats};
use crate::topo::FleetTopology;
use crate::trace::TraceLog;
use crate::{mix, SALT_LOSS};
use eblocks_core::{pool, BlockKind, Design, PortRef};
use eblocks_sim::time as sim_time;
use eblocks_sim::{
    estimate_energy, CapturedPacket, NodeRunner, SensorRef, SimError, Simulator, Stimulus, TapId,
    Time, Trace,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, TryLockError};

/// Handle to a design registered with [`Fleet::add_design`]. Designs are
/// shared: any number of nodes may instantiate the same one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignId(pub(crate) usize);

/// Handle to a node added with [`Fleet::add_node`]. The wrapped index is
/// the node's *rank* — the tiebreak of the deterministic ordering
/// contract and the index of its row in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's rank (its index in the fleet).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    design: usize,
    stimulus: Stimulus,
}

#[derive(Debug, Clone)]
struct Channel {
    src: usize,
    src_port: PortRef,
    dst: usize,
    dst_sensor: String,
}

/// The result of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Aggregated fleet, node, and link statistics.
    pub report: FleetReport,
    /// The deterministic fleet event trace, when requested.
    pub trace: Option<String>,
    /// Each node's ordinary packet-history trace, in node-rank order
    /// (renderable with [`eblocks_sim::to_vcd`]).
    pub node_traces: Vec<Trace>,
}

/// A fleet of node instances bridged over a modeled network.
///
/// Build with [`new`](Fleet::new), register shared designs and nodes,
/// bridge ports with [`connect`](Fleet::connect), then
/// [`run`](Fleet::run). See the crate docs for an example and the
/// deterministic ordering contract.
#[derive(Debug, Clone)]
pub struct Fleet {
    name: String,
    topology: FleetTopology,
    link: LinkSpec,
    seed: u64,
    designs: Vec<Design>,
    nodes: Vec<Node>,
    channels: Vec<Channel>,
}

impl Fleet {
    /// An empty fleet over `topology`.
    pub fn new(name: impl Into<String>, topology: FleetTopology) -> Self {
        Self {
            name: name.into(),
            topology,
            link: LinkSpec::default(),
            seed: 0,
            designs: Vec::new(),
            nodes: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Sets the uniform link parameters.
    pub fn set_link(&mut self, link: LinkSpec) {
        self.link = link;
    }

    /// Sets the fleet seed (baseline link loss; spec-generated stimulus).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The fleet name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Registers a design for nodes to instantiate.
    pub fn add_design(&mut self, design: Design) -> DesignId {
        self.designs.push(design);
        DesignId(self.designs.len() - 1)
    }

    /// Adds a node instantiating `design`. Rank (and report order) is the
    /// order of addition.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not a handle from this fleet's
    /// [`add_design`](Fleet::add_design).
    pub fn add_node(&mut self, name: impl Into<String>, design: DesignId) -> NodeId {
        assert!(design.0 < self.designs.len(), "unknown design handle");
        self.nodes.push(Node {
            name: name.into(),
            design: design.0,
            stimulus: Stimulus::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Sets `node`'s local environment script (sensor changes driven by
    /// its own surroundings, as opposed to network ingress).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a handle from this fleet.
    pub fn set_stimulus(&mut self, node: NodeId, stimulus: Stimulus) {
        self.nodes[node.0].stimulus = stimulus;
    }

    /// Bridges `src`'s output port `src_port` to sensor `dst_sensor` of
    /// `dst`: every packet the port transmits is routed from `src`'s site
    /// to `dst`'s site and, if it survives the links, drives the sensor.
    ///
    /// # Errors
    ///
    /// [`NetError::Channel`] if either endpoint does not exist on the
    /// node's design, the port is out of range, or the destination is not
    /// a sensor. (Routability is checked at [`run`](Fleet::run), once
    /// sites are assigned.)
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a handle from this fleet.
    pub fn connect(
        &mut self,
        src: NodeId,
        src_port: PortRef,
        dst: NodeId,
        dst_sensor: impl Into<String>,
    ) -> Result<(), NetError> {
        let dst_sensor = dst_sensor.into();
        let channel = Channel {
            src: src.0,
            src_port,
            dst: dst.0,
            dst_sensor,
        };
        let label = self.render_channel(&channel);
        let bad = |message: String| NetError::Channel {
            channel: label.clone(),
            message,
        };
        channel
            .src_port
            .resolve(&self.designs[self.nodes[channel.src].design])
            .map_err(|e| bad(e.to_string()))?;
        let dst_design = &self.designs[self.nodes[channel.dst].design];
        let is_sensor = dst_design
            .block_by_name(&channel.dst_sensor)
            .and_then(|b| dst_design.block(b))
            .is_some_and(|blk| matches!(blk.kind(), BlockKind::Sensor(_)));
        if !is_sensor {
            return Err(bad(format!(
                "`{}` is not a sensor of the destination design",
                channel.dst_sensor
            )));
        }
        self.channels.push(channel);
        Ok(())
    }

    fn render_channel(&self, ch: &Channel) -> String {
        format!(
            "{}:{} -> {}:{}",
            self.nodes[ch.src].name, ch.src_port, self.nodes[ch.dst].name, ch.dst_sensor
        )
    }

    /// Runs the fleet until `until` (inclusive) on a healthy network.
    ///
    /// # Errors
    ///
    /// See [`run_with`](Fleet::run_with).
    pub fn run(&self, until: Time) -> Result<FleetOutcome, NetError> {
        self.run_with(until, false, &NoFaults)
    }

    /// [`run`](Fleet::run), recording the fleet event trace.
    ///
    /// # Errors
    ///
    /// See [`run_with`](Fleet::run_with).
    pub fn run_traced(&self, until: Time) -> Result<FleetOutcome, NetError> {
        self.run_with(until, true, &NoFaults)
    }

    /// Runs the fleet until `until` (inclusive), optionally recording the
    /// event trace, with `faults` deciding link and node failures.
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyFleet`] for a fleet with no nodes,
    /// [`NetError::Topology`] if the substrate cannot host it,
    /// [`NetError::Channel`] for unroutable channels, and
    /// [`NetError::Sim`] if a node fails to build or its run faults.
    pub fn run_with(
        &self,
        until: Time,
        record_trace: bool,
        faults: &dyn NetFaultInjector,
    ) -> Result<FleetOutcome, NetError> {
        self.run_scheduled(until, record_trace, faults, Schedule::default())
    }

    /// [`run_with`](Fleet::run_with) under an explicit phase-2 `schedule`.
    pub(crate) fn run_scheduled(
        &self,
        until: Time,
        record_trace: bool,
        faults: &dyn NetFaultInjector,
        schedule: Schedule,
    ) -> Result<FleetOutcome, NetError> {
        if self.nodes.is_empty() {
            return Err(NetError::EmptyFleet);
        }
        let n = self.nodes.len();
        let sites = self.topology.assign(n)?;
        let substrate = self.topology.substrate();
        let site_names: Vec<String> = substrate
            .sites()
            .map(|s| substrate.site(s).expect("iterated site").name().to_string())
            .collect();

        // One simulator per distinct design; every node borrows its own
        // runner arena from the shared simulator.
        let sims = self
            .designs
            .iter()
            .map(Simulator::new)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|error| NetError::Sim {
                node: "design".into(),
                error,
            })?;
        let mut runners: Vec<NodeRunner> = Vec::with_capacity(n);
        for node in &self.nodes {
            let mut runner =
                NodeRunner::new(&sims[node.design]).map_err(|error| NetError::Sim {
                    node: node.name.clone(),
                    error,
                })?;
            runner
                .load_stimulus(&node.stimulus)
                .map_err(|error| NetError::Sim {
                    node: node.name.clone(),
                    error,
                })?;
            runners.push(runner);
        }

        // Resolve channels: tap egress ports, pre-resolve ingress
        // sensors, and route each channel once over the substrate (a
        // search per channel that stops at its destination), naming each
        // hop by its half-link's id.
        let paths = substrate.paths(
            self.channels
                .iter()
                .map(|ch| (sites[ch.src], sites[ch.dst])),
        );
        let mut channels = Vec::with_capacity(self.channels.len());
        let mut link_ids: HashMap<(usize, usize), u32> = HashMap::new();
        let mut link_ends: Vec<(usize, usize)> = Vec::new();
        let mut hop_links: Vec<u32> = Vec::new();
        for (ch, path) in self.channels.iter().zip(paths) {
            let label = self.render_channel(ch);
            let bad = |message: String| NetError::Channel {
                channel: label.clone(),
                message,
            };
            let tap = runners[ch.src]
                .tap_output(&ch.src_port.block, ch.src_port.port)
                .map_err(|e| bad(e.to_string()))?;
            let sensor = runners[ch.dst]
                .sensor_ref(&ch.dst_sensor)
                .map_err(|e| bad(e.to_string()))?;
            let path = path.ok_or_else(|| {
                bad(format!(
                    "no route from {} to {}",
                    site_names[sites[ch.src].index()],
                    site_names[sites[ch.dst].index()]
                ))
            })?;
            let first_hop = hop_links.len();
            for pair in path.windows(2) {
                let ends = (pair[0].index(), pair[1].index());
                let id = *link_ids.entry(ends).or_insert_with(|| {
                    link_ends.push(ends);
                    u32::try_from(link_ends.len() - 1).expect("fewer than 2^32 half-links")
                });
                hop_links.push(id);
            }
            channels.push(Resolved {
                tap,
                sensor,
                dst: ch.dst,
                site: path[0].index(),
                first_hop,
                hops: hop_links.len() - first_hop,
            });
        }
        drop(link_ids);
        // Per node: tap id → channel indices, in channel order.
        let mut by_tap: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n];
        for (ci, (resolved, ch)) in channels.iter().zip(&self.channels).enumerate() {
            let taps = &mut by_tap[ch.src];
            let slot = resolved.tap as usize;
            if taps.len() <= slot {
                taps.resize(slot + 1, Vec::new());
            }
            taps[slot].push(ci);
        }

        let node_names: Vec<&str> = self.nodes.iter().map(|nd| nd.name.as_str()).collect();
        let mut net = NetEngine {
            spec: self.link,
            seed: self.seed,
            faults,
            channels,
            site_names: &site_names,
            calendar: BTreeMap::new(),
            links: vec![LinkState::default(); link_ends.len()],
            link_ends,
            hop_links,
            log: record_trace
                .then(|| TraceLog::new(&self.name, n, self.topology.label(), self.seed, until)),
            sent: 0,
            delivered: 0,
            dropped: 0,
            events: 0,
            next_seq: 0,
        };
        let mut crashed: Vec<Option<Time>> = vec![None; n];
        let mut sent_by_node = vec![0u64; n];
        let mut received_by_node = vec![0u64; n];
        // Each node's tick grid, and the grids' live counts.
        let mut grids: Vec<Grid> = Vec::new();
        let grid_of: Vec<Option<usize>> = runners
            .iter()
            .map(|runner| {
                let period = runner.tick_period()?;
                let at = grids
                    .iter()
                    .position(|g| g.period == period)
                    .unwrap_or_else(|| {
                        grids.push(Grid {
                            period,
                            next: Some(period),
                            live: 0,
                        });
                        grids.len() - 1
                    });
                grids[at].live += 1;
                Some(at)
            })
            .collect();

        // Phase 2's lanes: rank-contiguous chunks of the runners, lane `l`
        // holding ranks `bounds[l]..bounds[l + 1]`.
        let count = schedule
            .lanes
            .unwrap_or_else(|| pool::workers(None, n / MIN_LANE_NODES))
            .clamp(1, n);
        let bounds: Vec<usize> = (0..=count).map(|l| l * n / count).collect();
        let mut rest: &mut [NodeRunner] = &mut runners;
        let lanes: Vec<Handoff> = bounds
            .windows(2)
            .map(|chunk| {
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(chunk[1] - chunk[0]);
                rest = tail;
                Handoff::new(Lane::new(chunk[0], mine, &grid_of[chunk[0]..chunk[1]]))
            })
            .collect();
        // Per lane: its phase-1 deliveries and crashes (by index in the
        // lane), filled here and swapped into the lane each instant, and
        // its live nodes' earliest next event time.
        let mut deliveries: Vec<Vec<(usize, SensorRef, bool)>> = vec![Vec::new(); lanes.len()];
        let mut killed: Vec<Vec<usize>> = vec![Vec::new(); lanes.len()];
        let mut earliest: Vec<Option<Time>> = lanes.iter().map(|h| h.lock().earliest).collect();

        std::thread::scope(|scope| -> Result<(), NetError> {
            let (own, helpers) = lanes.split_first().expect("a fleet has a lane");
            let _stop = StopLanes(helpers);
            for handoff in helpers {
                scope.spawn(move || handoff.serve(faults, until, schedule.shuffle));
            }
            // Lane 0 is this thread's alone, so it holds it for the run.
            let mut own = own.lock();
            let mut instant: u64 = 0;
            loop {
                let nodes = earliest.iter().flatten().min().copied();
                let grid = grids
                    .iter()
                    .filter(|g| g.live > 0)
                    .filter_map(|g| g.next)
                    .min();
                let Some(t) = [nodes, grid, net.next_time()].into_iter().flatten().min() else {
                    break;
                };
                if t > until {
                    break;
                }

                // Phase 1: network events, in global packet-seq order.
                // Deliveries queue for their node's lane, which injects them
                // before the node steps; hops only schedule strictly-future
                // events, so draining the bucket is safe.
                let mut bucket = net.calendar.remove(&t).unwrap_or_default();
                bucket.sort_unstable_by_key(|&(seq, _)| seq);
                for (seq, ev) in bucket {
                    net.events += 1;
                    match ev {
                        NetEvent::Hop { chan, hop, value } => net.hop(t, chan, hop, seq, value),
                        NetEvent::Deliver { chan, value } => {
                            let dst = net.channels[chan].dst;
                            let lane = bounds.partition_point(|&b| b <= dst) - 1;
                            let down = crashed[dst].is_some() || faults.node_down(dst, t);
                            if down {
                                if crashed[dst].is_none() {
                                    crashed[dst] = Some(t);
                                    killed[lane].push(dst - bounds[lane]);
                                    if let Some(g) = grid_of[dst] {
                                        grids[g].live -= 1;
                                    }
                                    if let Some(log) = &mut net.log {
                                        log.crash(t, node_names[dst]);
                                    }
                                }
                                net.dropped += 1;
                                if let Some(log) = &mut net.log {
                                    log.drop(t, chan, seq, node_names[dst], "crashed");
                                }
                            } else {
                                let sensor = net.channels[chan].sensor;
                                deliveries[lane].push((dst - bounds[lane], sensor, value));
                                received_by_node[dst] += 1;
                                net.delivered += 1;
                                if let Some(log) = &mut net.log {
                                    log.deliver(t, node_names[dst], chan, seq, value);
                                }
                            }
                        }
                    }
                }

                // Phase 2: every lane steps its nodes with work at this
                // instant (see `Lane::run`); this thread runs lane 0.
                instant += 1;
                own.prepare(t, &grids, &mut deliveries[0], &mut killed[0]);
                for (l, handoff) in (1..).zip(helpers) {
                    handoff
                        .lock()
                        .prepare(t, &grids, &mut deliveries[l], &mut killed[l]);
                    handoff.posted.store(instant, Ordering::Release);
                }
                own.run(faults, until, schedule.shuffle);
                for handoff in helpers {
                    if !handoff.take_over(instant, faults, until, schedule.shuffle) {
                        wait_until(|| handoff.done.load(Ordering::Acquire) >= instant);
                    }
                }
                // Lane order is rank order: the lowest-rank failure wins,
                // and crashes log by rank, all before any send.
                let mut merge = |l: usize, lane: &mut Lane| -> Result<(), NetError> {
                    if let Some((i, error)) = lane.failed.take() {
                        return Err(NetError::Sim {
                            node: node_names[i].to_string(),
                            error,
                        });
                    }
                    net.events += lane.events;
                    earliest[l] = lane.earliest;
                    for &i in &lane.crashes {
                        crashed[i] = Some(t);
                        if let Some(g) = grid_of[i] {
                            grids[g].live -= 1;
                        }
                        if let Some(log) = &mut net.log {
                            log.crash(t, node_names[i]);
                        }
                    }
                    lane.crashes.clear();
                    Ok(())
                };
                merge(0, &mut own)?;
                for (l, handoff) in (1..).zip(helpers) {
                    merge(l, &mut handoff.lock())?;
                }

                // Phase 3: send the egress in (rank, capture, channel)
                // order; each packet gets the next global seq and starts
                // its first hop immediately.
                let mut send = |lane: &mut Lane| {
                    for (i, p) in lane.egress.drain(..) {
                        let Some(chans) = by_tap[i].get(p.tap as usize) else {
                            continue;
                        };
                        for &chan in chans {
                            let seq = net.next_seq;
                            net.next_seq += 1;
                            net.sent += 1;
                            sent_by_node[i] += 1;
                            if let Some(log) = &mut net.log {
                                log.send(t, node_names[i], chan, seq, p.value);
                            }
                            net.hop(t, chan, 0, seq, p.value);
                        }
                    }
                };
                send(&mut own);
                for handoff in helpers {
                    send(&mut handoff.lock());
                }

                for g in &mut grids {
                    if g.next == Some(t) {
                        g.next = sim_time::after(t, g.period);
                    }
                }
            }
            Ok(())
        })?;
        drop(lanes);

        // Finalize: fold node traces, energy, and link counters.
        let mut node_stats = Vec::with_capacity(n);
        let mut node_traces = Vec::with_capacity(n);
        for (i, runner) in runners.into_iter().enumerate() {
            let trace = runner.finish();
            let design = &self.designs[self.nodes[i].design];
            let energy = estimate_energy(design, &trace, until);
            node_stats.push(NodeStats {
                name: self.nodes[i].name.clone(),
                site: site_names[sites[i].index()].clone(),
                sent: sent_by_node[i],
                received: received_by_node[i],
                transmissions: trace.total_transmissions(),
                energy_nj: energy.total_nj(),
                crashed_at: crashed[i],
            });
            node_traces.push(trace);
        }
        // The half-links a packet entered or was lost on, by site pair.
        let mut touched: Vec<usize> = (0..net.links.len())
            .filter(|&l| net.links[l].packets + net.links[l].dropped > 0)
            .collect();
        touched.sort_unstable_by_key(|&l| net.link_ends[l]);
        let link_stats = touched
            .into_iter()
            .map(|l| {
                let (a, b) = net.link_ends[l];
                let s = &net.links[l];
                LinkStats {
                    link: format!("{}->{}", site_names[a], site_names[b]),
                    packets: s.packets,
                    dropped: s.dropped,
                    busy_ticks: s.busy_ticks,
                    wait_ticks: s.wait_ticks,
                    max_wait: s.max_wait,
                }
            })
            .collect();
        let report = FleetReport {
            name: self.name.clone(),
            nodes: n as u32,
            topology: self.topology.label().to_string(),
            seed: self.seed,
            until,
            events: net.events,
            packets_sent: net.sent,
            packets_delivered: net.delivered,
            packets_dropped: net.dropped,
            packets_in_flight: net.sent - net.delivered - net.dropped,
            crashes: crashed.iter().filter(|c| c.is_some()).count() as u32,
            node_stats,
            link_stats,
        };
        Ok(FleetOutcome {
            report,
            trace: net.log.map(TraceLog::finish),
            node_traces,
        })
    }
}

/// How phase 2 runs an instant's nodes. The default picks the lanes by
/// the fleet size and core count and visits each lane's nodes in rank
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Schedule {
    /// The lane count, at most one per node; `None` gives
    /// `pool::workers(None, n / MIN_LANE_NODES)` for `n` nodes.
    pub(crate) lanes: Option<usize>,
    /// A test seam: visit each instant's nodes of a lane in a permutation
    /// seeded by this, the lane and the instant, then re-sort the lane's
    /// crashes and egress by rank. The outcome must not change.
    pub(crate) shuffle: Option<u64>,
}

/// The fewest nodes per lane: a fleet of `n` nodes runs phase 2 on at
/// most `n / MIN_LANE_NODES` lanes, so a fleet under 256 nodes, whose
/// instants are too short to repay the hand-off, stays on one.
const MIN_LANE_NODES: usize = 128;

/// How many times a lane spins on a hand-off counter before it starts
/// yielding its core.
const SPINS: u32 = 1 << 12;

/// One rank-contiguous chunk of the fleet's nodes, with everything phase 2
/// needs to run them at an instant without touching another lane.
struct Lane<'r, 's> {
    /// The rank of `runners[0]`.
    first: usize,
    runners: &'r mut [NodeRunner<'s>],
    /// Each node's tick grid.
    grid_of: &'r [Option<usize>],
    /// Each node's next event time; `None` once it crashed.
    next: Vec<Option<Time>>,
    /// Whether each node has crashed.
    down: Vec<bool>,
    // Set by the calling thread before each instant: the instant, whether
    // each grid has an instant there, the phase-1 deliveries
    // `(node, sensor, value)` in delivery order, and the nodes phase 1
    // found down (nodes by index in the lane).
    t: Time,
    grid_due: Vec<bool>,
    deliveries: Vec<(usize, SensorRef, bool)>,
    killed: Vec<usize>,
    // Read back after the instant: its events, the ranks found down, the
    // captures with their sender's rank, the earliest next event time of
    // a live node, and the lowest-rank step error.
    events: u64,
    crashes: Vec<usize>,
    egress: Vec<(usize, CapturedPacket)>,
    earliest: Option<Time>,
    failed: Option<(usize, SimError)>,
    // Scratch: one node's captures, and the shuffled visit order.
    captured: Vec<CapturedPacket>,
    order: Vec<usize>,
    /// The last hand-off count the lane ran.
    ran: u64,
}

impl<'r, 's> Lane<'r, 's> {
    fn new(first: usize, runners: &'r mut [NodeRunner<'s>], grid_of: &'r [Option<usize>]) -> Self {
        let next: Vec<Option<Time>> = runners.iter().map(NodeRunner::next_event_time).collect();
        Self {
            first,
            down: vec![false; runners.len()],
            grid_of,
            t: 0,
            grid_due: Vec::new(),
            deliveries: Vec::new(),
            killed: Vec::new(),
            events: 0,
            crashes: Vec::new(),
            egress: Vec::new(),
            earliest: next.iter().flatten().min().copied(),
            failed: None,
            captured: Vec::new(),
            order: Vec::new(),
            ran: 0,
            next,
            runners,
        }
    }

    /// Takes instant `t`'s inputs from the calling thread: its phase-1
    /// deliveries and crashes, swapped with `deliveries` and `killed`
    /// (which come back empty), and whether each grid has an instant at
    /// `t`.
    fn prepare(
        &mut self,
        t: Time,
        grids: &[Grid],
        deliveries: &mut Vec<(usize, SensorRef, bool)>,
        killed: &mut Vec<usize>,
    ) {
        self.t = t;
        std::mem::swap(&mut self.deliveries, deliveries);
        std::mem::swap(&mut self.killed, killed);
        self.grid_due.clear();
        self.grid_due
            .extend(grids.iter().map(|g| g.next == Some(t)));
    }

    /// [`run`](Lane::run) for hand-off `instant`, unless the lane already
    /// ran it (its thread and the calling thread may both try).
    fn run_once(
        &mut self,
        instant: u64,
        faults: &dyn NetFaultInjector,
        until: Time,
        shuffle: Option<u64>,
    ) {
        if self.ran < instant {
            self.run(faults, until, shuffle);
            self.ran = instant;
        }
    }

    /// Phase 2 of instant `t` for this lane's nodes, in rank order. Every
    /// live node is polled for a crash, whether or not it has work, so
    /// crash instants do not depend on node activity. A node with work
    /// steps, and its captures join the egress right away. A node on its
    /// tick grid counts an event whether it steps or its ticks stay
    /// parked. Each node's work touches only its own state, so the lane
    /// count and the visit order change nothing once the crashes and the
    /// egress are in rank order.
    fn run(&mut self, faults: &dyn NetFaultInjector, until: Time, shuffle: Option<u64>) {
        let t = self.t;
        for (i, sensor, value) in self.deliveries.drain(..) {
            self.runners[i].inject(t, sensor, value);
            self.next[i] = Some(t);
        }
        for i in self.killed.drain(..) {
            self.down[i] = true;
            self.next[i] = None;
        }
        if let Some(seed) = shuffle {
            self.order.clear();
            self.order.extend(0..self.runners.len());
            permute(&mut self.order, mix(&[seed, self.first as u64, t]));
        }
        let mut events = 0;
        let shuffled = shuffle.is_some();
        for k in 0..self.next.len() {
            let i = if shuffled { self.order[k] } else { k };
            if self.down[i] {
                continue;
            }
            let rank = self.first + i;
            if faults.node_down(rank, t) {
                self.down[i] = true;
                self.next[i] = None;
                self.crashes.push(rank);
                continue;
            }
            if self.next[i] == Some(t) {
                events += 1;
                let runner = &mut self.runners[i];
                if let Err(error) = runner.step_at(t, until) {
                    if self.failed.as_ref().is_none_or(|&(at, _)| rank < at) {
                        self.failed = Some((rank, error));
                    }
                    continue;
                }
                self.next[i] = runner.next_event_time();
                runner.drain_captured(&mut self.captured);
                self.egress
                    .extend(self.captured.drain(..).map(|p| (rank, p)));
            } else if self.grid_of[i].is_some_and(|g| self.grid_due[g]) {
                events += 1;
            }
        }
        if shuffled {
            self.crashes.sort_unstable();
            self.egress.sort_by_key(|&(rank, _)| rank);
        }
        self.events = events;
        self.earliest = self.next.iter().flatten().min().copied();
    }
}

/// Permutes `order` (Fisher–Yates) as a pure function of `seed`.
fn permute(order: &mut [usize], seed: u64) {
    for k in (1..order.len()).rev() {
        let j = mix(&[seed, k as u64]) % (k as u64 + 1);
        order.swap(k, j as usize);
    }
}

/// A lane and its hand-off with the calling thread, which posts each
/// instant to a helper lane's thread and waits for it to finish, both by
/// spinning and then yielding on a counter: no allocation and no blocking
/// primitive per instant. The lane's data is touched only under its
/// mutex, taken after the counter's `Acquire` load and released before
/// the other side's `Release` store, so each side sees the other's
/// writes. Aligned so two lanes' counters never share a cache line.
#[repr(align(128))]
struct Handoff<'r, 's> {
    lane: Mutex<Lane<'r, 's>>,
    /// Instants posted to the lane; `u64::MAX` tells its thread to stop.
    posted: AtomicU64,
    /// The latest instant the lane's thread handled, by running it or by
    /// finding it taken over; `u64::MAX` once its thread has exited.
    done: AtomicU64,
}

impl<'r, 's> Handoff<'r, 's> {
    fn new(lane: Lane<'r, 's>) -> Self {
        Self {
            lane: Mutex::new(lane),
            posted: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }
    }

    /// The lane, between instants (its thread holds it only while it runs
    /// one).
    fn lock(&self) -> std::sync::MutexGuard<'_, Lane<'r, 's>> {
        self.lane.lock().expect("a fleet lane panicked")
    }

    /// A helper lane's thread: runs the latest posted instant, unless the
    /// calling thread took it over, until told to stop. Marks itself exited
    /// however it ends, so the calling thread never waits on a lane that
    /// panicked.
    fn serve(&self, faults: &dyn NetFaultInjector, until: Time, shuffle: Option<u64>) {
        struct Exited<'a>(&'a AtomicU64);
        impl Drop for Exited<'_> {
            fn drop(&mut self) {
                self.0.store(u64::MAX, Ordering::Release);
            }
        }
        let _exited = Exited(&self.done);
        let mut seen: u64 = 0;
        loop {
            wait_until(|| self.posted.load(Ordering::Acquire) > seen);
            seen = self.posted.load(Ordering::Acquire);
            if seen == u64::MAX {
                return;
            }
            self.lock().run_once(seen, faults, until, shuffle);
            self.done.store(seen, Ordering::Release);
        }
    }

    /// Called by the calling thread once its own lane has run `instant`:
    /// if this lane's thread has not started the instant by then, it has
    /// most likely lost its core, so the calling thread runs the lane
    /// itself rather than wait. Returns whether the lane's results for
    /// `instant` are in; if not, its thread is running it.
    ///
    /// The first instant is always left to the lane's thread, which may
    /// still be starting: the nodes' first steps allocate most of the
    /// buffers a run grows, and allocating them on the calling thread
    /// instead measured about 0.3 MB more peak RSS on a 1000-node fleet.
    fn take_over(
        &self,
        instant: u64,
        faults: &dyn NetFaultInjector,
        until: Time,
        shuffle: Option<u64>,
    ) -> bool {
        if instant == 1 {
            return false;
        }
        let mut lane = match self.lane.try_lock() {
            Ok(lane) => lane,
            Err(TryLockError::WouldBlock) => return false,
            Err(TryLockError::Poisoned(_)) => panic!("a fleet lane panicked"),
        };
        lane.run_once(instant, faults, until, shuffle);
        true
    }
}

/// Tells every helper lane's thread to stop when the run ends, however it
/// ends.
struct StopLanes<'a, 'r, 's>(&'a [Handoff<'r, 's>]);

impl Drop for StopLanes<'_, '_, '_> {
    fn drop(&mut self) {
        for handoff in self.0 {
            handoff.posted.store(u64::MAX, Ordering::Release);
        }
    }
}

/// Spins, then yields, until `ready` holds.
fn wait_until(ready: impl Fn() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One resolved channel: everything the per-packet hot path needs.
#[derive(Debug)]
struct Resolved {
    tap: TapId,
    sensor: SensorRef,
    dst: usize,
    /// The source site.
    site: usize,
    /// Hop `h` crosses half-link `hop_links[first_hop + h]`.
    first_hop: usize,
    /// Half-links on the routed path; 0 when both ends share a site.
    hops: usize,
}

/// The nodes sharing one tick period, and their next grid instant.
#[derive(Debug)]
struct Grid {
    period: Time,
    /// The first multiple of `period` the loop has not yet passed; `None`
    /// past the end of time.
    next: Option<Time>,
    /// Live nodes on this grid.
    live: usize,
}

/// A future network event; the global packet seq rides alongside in the
/// calendar bucket and totally orders same-instant events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NetEvent {
    /// Packet enters hop `hop` of its channel's path.
    Hop {
        chan: usize,
        hop: usize,
        value: bool,
    },
    /// Packet reaches its destination node's ingress sensor.
    Deliver { chan: usize, value: bool },
}

/// The network half of the engine: calendar, half-link FIFOs, counters.
struct NetEngine<'a> {
    spec: LinkSpec,
    seed: u64,
    faults: &'a dyn NetFaultInjector,
    channels: Vec<Resolved>,
    site_names: &'a [String],
    /// Future events by instant, each bucket in scheduling order; phase 1
    /// sorts a bucket by seq when its instant opens.
    calendar: BTreeMap<Time, Vec<(u64, NetEvent)>>,
    /// Half-link state by link id.
    links: Vec<LinkState>,
    /// Each link id's `(from, to)` sites.
    link_ends: Vec<(usize, usize)>,
    /// Every channel's link ids in path order (see [`Resolved`]).
    hop_links: Vec<u32>,
    log: Option<TraceLog>,
    sent: u64,
    delivered: u64,
    dropped: u64,
    events: u64,
    next_seq: u64,
}

impl NetEngine<'_> {
    fn next_time(&self) -> Option<Time> {
        self.calendar.keys().next().copied()
    }

    fn schedule(&mut self, at: Time, seq: u64, ev: NetEvent) {
        self.calendar.entry(at).or_default().push((seq, ev));
    }

    /// Packet `seq` of `chan` attempts hop `hop` at instant `t`.
    fn hop(&mut self, t: Time, chan: usize, hop: usize, seq: u64, value: bool) {
        let channel = &self.channels[chan];
        if channel.hops == 0 {
            // Source and destination share a site; travel still costs one
            // tick so a delivery never lands in the instant that sent it.
            match sim_time::after(t, 1) {
                Some(at) => self.schedule(at, seq, NetEvent::Deliver { chan, value }),
                None => {
                    self.dropped += 1;
                    if let Some(log) = &mut self.log {
                        log.drop(t, chan, seq, &self.site_names[channel.site], "end-of-time");
                    }
                }
            }
            return;
        }
        let last = hop + 1 == channel.hops;
        let link = self.hop_links[channel.first_hop + hop] as usize;
        let (a, b) = self.link_ends[link];
        // Injected faults decide first: a downed link refuses the packet
        // at its ingress …
        let extra = match self.faults.packet_fate(a, b, t, seq) {
            PacketFate::Drop => {
                self.drop_on_link(t, chan, seq, link, "fault");
                return;
            }
            PacketFate::Delay(d) => d,
            PacketFate::Deliver => 0,
        };
        // … then the seeded baseline loss, a pure function of the fleet
        // seed and the hop coordinates.
        if self.spec.loss_pm > 0
            && mix(&[self.seed, SALT_LOSS, a as u64, b as u64, seq]) % 1000
                < u64::from(self.spec.loss_pm)
        {
            self.drop_on_link(t, chan, seq, link, "loss");
            return;
        }
        let ser = self.spec.serialization_delay();
        let state = &mut self.links[link];
        let start = t.max(state.busy_until);
        let wait = start - t;
        state.busy_until = sim_time::clamp_after(start, ser);
        state.packets += 1;
        state.busy_ticks += ser;
        state.wait_ticks += wait;
        state.max_wait = state.max_wait.max(wait);
        if let Some(log) = &mut self.log {
            log.hop(t, chan, seq, &self.site_names[a], &self.site_names[b]);
        }
        // Departure = queue wait + serialization + propagation + injected
        // delay, and never the same instant (every hop costs ≥ 1 tick).
        let arrival = sim_time::after(start, ser)
            .and_then(|x| sim_time::after(x, self.spec.latency))
            .and_then(|x| sim_time::after(x, extra))
            .map(|x| x.max(sim_time::clamp_after(t, 1)));
        match arrival {
            Some(at) if at > t => {
                let next = if last {
                    NetEvent::Deliver { chan, value }
                } else {
                    NetEvent::Hop {
                        chan,
                        hop: hop + 1,
                        value,
                    }
                };
                self.schedule(at, seq, next);
            }
            // Unrepresentable arrival: the packet falls off the end of
            // time (it could never be processed anyway).
            _ => self.drop_on_link(t, chan, seq, link, "end-of-time"),
        }
    }

    fn drop_on_link(&mut self, t: Time, chan: usize, seq: u64, link: usize, cause: &str) {
        self.links[link].dropped += 1;
        self.dropped += 1;
        if let Some(log) = &mut self.log {
            let (a, b) = self.link_ends[link];
            let at = format!("{}->{}", self.site_names[a], self.site_names[b]);
            log.drop(t, chan, seq, &at, cause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{Design, OutputKind, SensorKind};

    /// rx (button) -> lamp (led): the minimal relay node.
    fn relay_design() -> Design {
        let mut d = Design::new("relay");
        let rx = d.add_block("rx", SensorKind::Button);
        let lamp = d.add_block("lamp", OutputKind::Led);
        d.connect((rx, 0), (lamp, 0)).unwrap();
        d
    }

    fn two_node_fleet() -> Fleet {
        let mut fleet = Fleet::new("pair", FleetTopology::chain(2));
        let d = fleet.add_design(relay_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        fleet.set_stimulus(a, Stimulus::new().set(10, "rx", true));
        fleet.connect(a, PortRef::new("rx", 0), b, "rx").unwrap();
        fleet
    }

    #[test]
    fn packet_arrives_with_link_latency() {
        // One hop, defaults: 1 tick serialization + 1 tick propagation.
        let fleet = two_node_fleet();
        let outcome = fleet.run(100).unwrap();
        // Power-on announcement (v=0) plus the press (v=1).
        assert_eq!(outcome.report.packets_sent, 2);
        assert_eq!(outcome.report.packets_delivered, 2);
        assert_eq!(outcome.report.packets_dropped, 0);
        // n1's lamp: power-on false at 0, injected false at 2 (suppressed
        // by its sensor's change detection — already false and announced),
        // injected true at 12.
        assert_eq!(
            outcome.node_traces[1].history("lamp"),
            &[(0, false), (12, true)]
        );
        let n1 = &outcome.report.node_stats[1];
        assert_eq!((n1.received, n1.sent), (2, 0));
        assert!(n1.energy_nj > 0.0);
    }

    #[test]
    fn runs_are_byte_identical() {
        let fleet = two_node_fleet();
        let a = fleet.run_traced(100).unwrap();
        let b = fleet.run_traced(100).unwrap();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.trace, b.trace);
        assert!(a.trace.as_deref().unwrap().contains("deliver n1"));
    }

    #[test]
    fn queueing_delays_back_to_back_packets() {
        // Slow serialization (4 ticks/packet): two packets sent in quick
        // succession must queue on the shared half-link.
        let mut fleet = Fleet::new("q", FleetTopology::chain(2));
        let d = fleet.add_design(relay_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        fleet.set_link(LinkSpec {
            latency: 1,
            bits_per_tick: 2,
            packet_bits: 8,
            loss_pm: 0,
        });
        fleet.set_stimulus(a, Stimulus::new().set(10, "rx", true).set(11, "rx", false));
        fleet.connect(a, PortRef::new("rx", 0), b, "rx").unwrap();
        let outcome = fleet.run(100).unwrap();
        let link = &outcome.report.link_stats[0];
        assert_eq!(link.packets, 3, "announcement + rise + fall");
        assert!(link.wait_ticks > 0, "the fall queued behind the rise");
        assert_eq!(outcome.report.packets_delivered, 3);
        // Rise sent at 10 arrives at 15 (4 ser + 1 latency); fall sent at
        // 11 waits 3 ticks for the link, arrives at 19.
        assert_eq!(
            outcome.node_traces[1].history("lamp"),
            &[(0, false), (15, true), (19, false)]
        );
    }

    #[test]
    fn seeded_loss_is_deterministic_and_seed_sensitive() {
        let mut fleet = Fleet::new("lossy", FleetTopology::chain(2));
        let d = fleet.add_design(relay_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        fleet.set_link(LinkSpec {
            loss_pm: 500,
            ..LinkSpec::default()
        });
        let mut stim = Stimulus::new();
        for k in 0..20 {
            stim = stim.set(10 + 2 * k, "rx", k % 2 == 0);
        }
        fleet.set_stimulus(a, stim);
        fleet.connect(a, PortRef::new("rx", 0), b, "rx").unwrap();
        fleet.set_seed(7);
        let first = fleet.run(100).unwrap();
        assert!(first.report.packets_dropped > 0, "50% loss must bite");
        assert!(first.report.packets_delivered > 0, "and must not kill all");
        assert_eq!(
            first.report.to_json(),
            fleet.run(100).unwrap().report.to_json()
        );
        fleet.set_seed(8);
        let other = fleet.run(100).unwrap();
        assert_ne!(
            first.report.packets_dropped, other.report.packets_dropped,
            "a different seed loses different packets"
        );
    }

    #[test]
    fn fan_out_channels_share_one_tap() {
        // One egress port feeding two destinations: two channels, one tap.
        let mut fleet = Fleet::new("fan", FleetTopology::star(3));
        let d = fleet.add_design(relay_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        let c = fleet.add_node("n2", d);
        fleet.set_stimulus(a, Stimulus::new().set(10, "rx", true));
        fleet.connect(a, PortRef::new("rx", 0), b, "rx").unwrap();
        fleet.connect(a, PortRef::new("rx", 0), c, "rx").unwrap();
        let outcome = fleet.run(100).unwrap();
        assert_eq!(outcome.report.packets_sent, 4, "2 events × 2 channels");
        assert_eq!(outcome.report.packets_delivered, 4);
        // Two hops at ser+latency = 2 each, plus 1 tick queued behind the
        // sibling channel's copy on the shared leaf→hub link: 10+2+2+1.
        assert_eq!(
            outcome.node_traces[2].history("lamp"),
            &[(0, false), (15, true)]
        );
    }

    /// rx (button) -> sp (splitter); sp.0 -> inv (not) -> lamp (led);
    /// sp.1 -> led (led): two ports that transmit at the same instant.
    fn fork_design() -> Design {
        let mut d = Design::new("fork");
        let rx = d.add_block("rx", SensorKind::Button);
        let sp = d.add_block("sp", eblocks_core::ComputeKind::Splitter);
        let inv = d.add_block("inv", eblocks_core::ComputeKind::Not);
        let lamp = d.add_block("lamp", OutputKind::Led);
        let led = d.add_block("led", OutputKind::Led);
        d.connect((rx, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (lamp, 0)).unwrap();
        d.connect((sp, 1), (led, 0)).unwrap();
        d
    }

    /// Three tick-less nodes: n1 (a fork) feeds three channels from two
    /// tapped ports, and n0 relays to n2.
    fn egress_fleet() -> Fleet {
        let mut fleet = Fleet::new("egress", FleetTopology::chain(3));
        let relay = fleet.add_design(relay_design());
        let fork = fleet.add_design(fork_design());
        let n0 = fleet.add_node("n0", relay);
        let n1 = fleet.add_node("n1", fork);
        let n2 = fleet.add_node("n2", relay);
        fleet.set_stimulus(n0, Stimulus::new().set(10, "rx", false));
        fleet.set_stimulus(n1, Stimulus::new().set(10, "rx", true).set(20, "rx", false));
        fleet.connect(n1, PortRef::new("inv", 0), n2, "rx").unwrap();
        fleet.connect(n0, PortRef::new("rx", 0), n2, "rx").unwrap();
        fleet.connect(n1, PortRef::new("sp", 1), n0, "rx").unwrap();
        fleet.connect(n1, PortRef::new("inv", 0), n0, "rx").unwrap();
        fleet
    }

    #[test]
    fn egress_sends_in_rank_capture_channel_order() {
        // n1's `sp.1` captures before `inv.0` in each instant, but
        // `inv.0`'s first channel comes first. The lower-ranked n0 sends
        // at the same instants (power-on and t=10). Sends go out by sender
        // rank, then capture order, then channel order.
        let trace = egress_fleet().run_traced(40).unwrap().trace.unwrap();
        let sends: Vec<&str> = trace.lines().filter(|l| l.contains(" send ")).collect();
        assert_eq!(
            sends,
            [
                "t=0 send n0 ch1 seq=0 v=0",
                "t=0 send n1 ch2 seq=1 v=0",
                "t=0 send n1 ch0 seq=2 v=1",
                "t=0 send n1 ch3 seq=3 v=1",
                "t=3 send n0 ch1 seq=4 v=1",
                "t=10 send n0 ch1 seq=5 v=0",
                "t=10 send n1 ch2 seq=6 v=1",
                "t=10 send n1 ch0 seq=7 v=0",
                "t=10 send n1 ch3 seq=8 v=0",
                "t=12 send n0 ch1 seq=9 v=1",
                "t=13 send n0 ch1 seq=10 v=0",
                "t=20 send n1 ch2 seq=11 v=0",
                "t=20 send n1 ch0 seq=12 v=1",
                "t=20 send n1 ch3 seq=13 v=1",
                "t=23 send n0 ch1 seq=14 v=1",
            ]
        );
    }

    #[test]
    fn crashes_are_permanent_and_traced() {
        struct CrashAt(Time);
        impl NetFaultInjector for CrashAt {
            fn node_down(&self, node: usize, t: Time) -> bool {
                node == 1 && t >= self.0
            }
        }
        let fleet = two_node_fleet();
        let outcome = fleet.run_with(100, true, &CrashAt(5)).unwrap();
        assert_eq!(outcome.report.crashes, 1);
        let n1 = &outcome.report.node_stats[1];
        // Down from t=5, observed at the first processed instant after:
        // the fleet-wide stimulus step at t=10.
        assert_eq!(n1.crashed_at, Some(10));
        // The press at t=10 reaches a dead node: dropped, not delivered.
        assert!(outcome.report.packets_dropped > 0);
        let trace = outcome.trace.unwrap();
        assert!(trace.contains("crash n1"));
        assert!(trace.contains("cause=crashed"));
        // Node 1 froze at its crash: only the power-on packet made it.
        assert_eq!(outcome.node_traces[1].history("lamp"), &[(0, false)]);
    }

    /// s (button) -> pg (a 3-tick pulse generator, which ticks) -> led.
    fn pulse_design() -> Design {
        let mut d = Design::new("pulse");
        let s = d.add_block("s", SensorKind::Button);
        let pg = d.add_block("pg", eblocks_core::ComputeKind::PulseGen { ticks: 3 });
        let led = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (pg, 0)).unwrap();
        d.connect((pg, 0), (led, 0)).unwrap();
        d
    }

    #[test]
    fn settled_ticks_still_count_and_crash_on_their_grid_instants() {
        // n0 is pressed at 10 and relays its pulse to n1. From about 16 on
        // both pulse generators stay settled and the network is quiet, so
        // neither node has work but its tick grid. Each still counts one
        // event per grid instant, and a crash due at a quiet grid instant
        // lands on it.
        struct CrashAt(usize, Time);
        impl NetFaultInjector for CrashAt {
            fn node_down(&self, node: usize, t: Time) -> bool {
                node == self.0 && t >= self.1
            }
        }
        let mut fleet = Fleet::new("settled", FleetTopology::chain(2));
        let d = fleet.add_design(pulse_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        fleet.set_stimulus(a, Stimulus::new().set(10, "s", true));
        fleet.connect(a, PortRef::new("pg", 0), b, "s").unwrap();

        let healthy = fleet.run_traced(60).unwrap();
        let last_traffic = healthy
            .trace
            .as_deref()
            .unwrap()
            .lines()
            .filter_map(|line| {
                line.strip_prefix("t=")?
                    .split(' ')
                    .next()?
                    .parse::<Time>()
                    .ok()
            });
        assert_eq!(last_traffic.max(), Some(15));
        // Three deliveries, and each node on every instant of 0..=60 (the
        // power-on step at 0, then the grid).
        assert_eq!(healthy.report.events, 3 + 2 * 61);

        let crashed = fleet.run_with(60, true, &CrashAt(1, 37)).unwrap();
        assert_eq!(crashed.report.node_stats[1].crashed_at, Some(37));
        // n1 counts 0..=36 only.
        assert_eq!(crashed.report.events, 3 + 61 + 37);
        assert!(crashed.trace.unwrap().contains("t=37 crash n1"));
    }

    #[test]
    fn unroutable_channel_is_rejected() {
        let mut substrate = eblocks_place::Topology::new();
        substrate.add_site("island-a", 1);
        substrate.add_site("island-b", 1);
        let mut fleet = Fleet::new("split", FleetTopology::custom("islands", substrate));
        let d = fleet.add_design(relay_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        fleet.connect(a, PortRef::new("rx", 0), b, "rx").unwrap();
        assert!(matches!(fleet.run(10), Err(NetError::Channel { .. })));
    }

    #[test]
    fn bad_endpoints_are_rejected_eagerly() {
        let mut fleet = Fleet::new("bad", FleetTopology::chain(2));
        let d = fleet.add_design(relay_design());
        let a = fleet.add_node("n0", d);
        let b = fleet.add_node("n1", d);
        assert!(fleet.connect(a, PortRef::new("ghost", 0), b, "rx").is_err());
        assert!(fleet.connect(a, PortRef::new("rx", 3), b, "rx").is_err());
        assert!(fleet.connect(a, PortRef::new("rx", 0), b, "lamp").is_err());
        assert!(matches!(
            Fleet::new("empty", FleetTopology::chain(1)).run(10),
            Err(NetError::EmptyFleet)
        ));
    }

    /// Stands in for a chaos storm: crashes about a third of the nodes,
    /// each at its own seeded instant before `until`, and drops or delays
    /// one hop in ten.
    struct Storm {
        seed: u64,
        until: Time,
    }

    impl NetFaultInjector for Storm {
        fn packet_fate(&self, from: usize, to: usize, t: Time, seq: u64) -> PacketFate {
            match mix(&[self.seed, from as u64, to as u64, t, seq]) % 20 {
                0 => PacketFate::Drop,
                1 => PacketFate::Delay(3),
                _ => PacketFate::Deliver,
            }
        }

        fn node_down(&self, node: usize, t: Time) -> bool {
            let h = mix(&[self.seed, node as u64]);
            h.is_multiple_of(3) && t >= (h / 3) % self.until
        }
    }

    /// The committed golden fleet specs, a 1000-node grid and the
    /// tick-less [`egress_fleet`] (whose nodes count events only when
    /// they step), each with its horizon.
    fn schedule_fleets() -> Vec<(Fleet, Time)> {
        let grid = "name = grid\nnodes = 1000\ntopology = grid\n\
                    library = Night Lamp Controller\nuntil = 200\nseed = 7\n";
        [
            include_str!("../../../tests/golden/fleet-request.txt"),
            include_str!("../../../tests/golden/fleet-parked-request.txt"),
            grid,
        ]
        .into_iter()
        .map(|text| {
            let request = crate::FleetRequest::parse(text).unwrap();
            let fleet = request.build(std::path::Path::new(".")).unwrap();
            (fleet, request.until())
        })
        .chain([(egress_fleet(), 40)])
        .collect()
    }

    /// Runs every fleet of [`schedule_fleets`], healthy and under a
    /// [`Storm`], traced, serially in rank order and under each of
    /// `schedules`, and requires the whole outcomes (report, trace, node
    /// traces) to be equal.
    fn assert_schedules_agree(schedules: &[Schedule]) {
        let serial = Schedule {
            lanes: Some(1),
            shuffle: None,
        };
        for (fleet, until) in schedule_fleets() {
            let storm = Storm { seed: 5, until };
            let injectors = [
                (&NoFaults as &dyn NetFaultInjector, "healthy"),
                (&storm, "storm"),
            ];
            for (faults, label) in injectors {
                let reference = fleet.run_scheduled(until, true, faults, serial).unwrap();
                if label == "storm" {
                    assert!(reference.report.crashes > 0, "{}: no crash", fleet.name());
                }
                for &schedule in schedules {
                    let got = fleet.run_scheduled(until, true, faults, schedule).unwrap();
                    let what = format!("{} {label} under {schedule:?}", fleet.name());
                    let report = got.report.to_json();
                    assert_eq!(report, reference.report.to_json(), "{what}: report");
                    assert_eq!(got.trace, reference.trace, "{what}: trace");
                    assert!(
                        got.node_traces == reference.node_traces,
                        "{what}: node traces"
                    );
                }
            }
        }
    }

    #[test]
    fn shuffled_node_visits_change_no_outcome() {
        assert_schedules_agree(&[2, 9, 31].map(|seed| Schedule {
            lanes: Some(1),
            shuffle: Some(seed),
        }));
    }

    #[test]
    fn lane_counts_change_no_outcome() {
        let schedules: Vec<Schedule> = [1, 2, 3, 7]
            .into_iter()
            .flat_map(|lanes| {
                [None, Some(lanes as u64)].map(|shuffle| Schedule {
                    lanes: Some(lanes),
                    shuffle,
                })
            })
            .collect();
        assert_schedules_agree(&schedules);
    }

    #[test]
    fn a_panicking_lane_ends_the_run_with_its_panic() {
        // Rank 0 runs on the calling thread's lane and rank 3 on a helper
        // lane's thread; either panic must reach the caller, not hang it.
        struct PanicOn(usize);
        impl NetFaultInjector for PanicOn {
            fn node_down(&self, node: usize, t: Time) -> bool {
                assert!(node != self.0 || t < 20, "node {node} fails");
                false
            }
        }
        let mut fleet = Fleet::new("four", FleetTopology::chain(4));
        let d = fleet.add_design(relay_design());
        for k in 0..4 {
            fleet.add_node(format!("n{k}"), d);
        }
        fleet.set_stimulus(NodeId(0), Stimulus::new().set(30, "rx", true));
        let two = Schedule {
            lanes: Some(2),
            shuffle: None,
        };
        for node in [0, 3] {
            let run =
                std::panic::catch_unwind(|| fleet.run_scheduled(40, false, &PanicOn(node), two));
            assert!(run.is_err(), "node {node}'s panic reaches the caller");
        }
    }

    #[test]
    fn one_instant_runs_in_seq_order_whatever_the_scheduling_order() {
        // n0 reaches n2 over two hops, n1 over one that the injector
        // delays by two ticks: both power-on packets land at t=4, but
        // n1's (seq 1) entered the calendar at t=0 and n0's (seq 0) only
        // at its second hop, t=2. The instant still runs in seq order.
        struct DelaySeq1;
        impl NetFaultInjector for DelaySeq1 {
            fn packet_fate(&self, _: usize, _: usize, _: Time, seq: u64) -> PacketFate {
                if seq == 1 {
                    PacketFate::Delay(2)
                } else {
                    PacketFate::Deliver
                }
            }
        }
        let mut fleet = Fleet::new("delay", FleetTopology::chain(3));
        let d = fleet.add_design(relay_design());
        let n0 = fleet.add_node("n0", d);
        let n1 = fleet.add_node("n1", d);
        let n2 = fleet.add_node("n2", d);
        fleet.connect(n0, PortRef::new("rx", 0), n2, "rx").unwrap();
        fleet.connect(n1, PortRef::new("rx", 0), n2, "rx").unwrap();
        let trace = fleet.run_with(10, true, &DelaySeq1).unwrap().trace.unwrap();
        let lines: Vec<&str> = trace.lines().filter(|l| l.starts_with("t=")).collect();
        assert_eq!(
            lines,
            [
                "t=0 send n0 ch0 seq=0 v=0",
                "t=0 hop ch0 seq=0 p0->p1",
                "t=0 send n1 ch1 seq=1 v=0",
                "t=0 hop ch1 seq=1 p1->p2",
                "t=2 hop ch0 seq=0 p1->p2",
                "t=4 deliver n2 ch0 seq=0 v=0",
                "t=4 deliver n2 ch1 seq=1 v=0",
            ]
        );
    }
}
