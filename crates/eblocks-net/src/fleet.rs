//! The [`Fleet`] builder and the global co-simulation engine.
//!
//! The engine keeps one global virtual clock. Each iteration picks the
//! earliest instant with work anywhere — a node's own calendar or the
//! network's — and processes it in the three documented phases (network,
//! nodes, egress; see the crate docs for the full ordering contract).
//! Nodes are [`eblocks_sim::NodeRunner`]s: the same arena a standalone
//! simulation uses, stepped instant-by-instant.
//!
//! A runner's next event time moves only when it steps or receives a
//! delivery, so the loop keeps every live node's next event time in one
//! dense table, by rank, and the per-instant scans (the earliest instant,
//! phase 2's due check) read that table instead of every runner. Captures
//! appear only during a step, so phase 2 drains each node's captures right
//! after its step into one fleet-level egress buffer, in rank order, and
//! phase 3 walks that buffer: no runner is touched twice in an instant,
//! and sends keep their (rank, capture, channel) order. The sends stay in
//! phase 3 so that every crash phase 2 logs at an instant precedes the
//! instant's sends in the trace.
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
use eblocks_core::{BlockKind, Design, PortRef};
use eblocks_sim::time as sim_time;
use eblocks_sim::{
    estimate_energy, CapturedPacket, EnergyModel, NodeRunner, SensorRef, Simulator, Stimulus,
    TapId, Time, Trace,
};
use std::collections::{BTreeMap, HashMap};

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
        let mut captured: Vec<CapturedPacket> = Vec::new();
        // Each live node's next event time by rank, `None` once crashed,
        // its tick grid, and the instant's captures with their sender's
        // rank, in step order (see the module docs).
        let mut next: Vec<Option<Time>> = runners.iter().map(NodeRunner::next_event_time).collect();
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
        let mut egress: Vec<(usize, CapturedPacket)> = Vec::new();

        loop {
            let nodes = next.iter().flatten().min().copied();
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
            // Deliveries inject before any node steps; hops only schedule
            // strictly-future events, so draining the bucket is safe.
            let mut bucket = net.calendar.remove(&t).unwrap_or_default();
            bucket.sort_unstable_by_key(|&(seq, _)| seq);
            for (seq, ev) in bucket {
                net.events += 1;
                match ev {
                    NetEvent::Hop { chan, hop, value } => net.hop(t, chan, hop, seq, value),
                    NetEvent::Deliver { chan, value } => {
                        let dst = net.channels[chan].dst;
                        let down = crashed[dst].is_some() || faults.node_down(dst, t);
                        if down {
                            if crashed[dst].is_none() {
                                crashed[dst] = Some(t);
                                next[dst] = None;
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
                            runners[dst].inject(t, sensor, value);
                            next[dst] = Some(t);
                            received_by_node[dst] += 1;
                            net.delivered += 1;
                            if let Some(log) = &mut net.log {
                                log.deliver(t, node_names[dst], chan, seq, value);
                            }
                        }
                    }
                }
            }

            // Phase 2: step nodes with work at this instant, in rank order.
            // Every live node is polled for a crash, whether or not it has
            // work, so crash instants do not depend on node activity. A
            // node on its tick grid counts an event whether it steps or
            // its ticks stay parked.
            for i in 0..n {
                if crashed[i].is_some() {
                    continue;
                }
                if faults.node_down(i, t) {
                    crashed[i] = Some(t);
                    next[i] = None;
                    if let Some(g) = grid_of[i] {
                        grids[g].live -= 1;
                    }
                    if let Some(log) = &mut net.log {
                        log.crash(t, node_names[i]);
                    }
                    continue;
                }
                if next[i] == Some(t) {
                    net.events += 1;
                    runners[i]
                        .step_at(t, until)
                        .map_err(|error| NetError::Sim {
                            node: node_names[i].to_string(),
                            error,
                        })?;
                    next[i] = runners[i].next_event_time();
                    runners[i].drain_captured(&mut captured);
                    egress.extend(captured.drain(..).map(|p| (i, p)));
                } else if grid_of[i].is_some_and(|g| grids[g].next == Some(t)) {
                    net.events += 1;
                }
            }

            // Phase 3: send the egress in (rank, capture, channel) order;
            // each packet gets the next global seq and starts its first
            // hop immediately.
            for (i, p) in egress.drain(..) {
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

            for g in &mut grids {
                if g.next == Some(t) {
                    g.next = sim_time::after(t, g.period);
                }
            }
        }

        // Finalize: fold node traces, energy, and link counters.
        let model = EnergyModel::default();
        let mut node_stats = Vec::with_capacity(n);
        let mut node_traces = Vec::with_capacity(n);
        for (i, runner) in runners.into_iter().enumerate() {
            let trace = runner.finish();
            let design = &self.designs[self.nodes[i].design];
            let energy = estimate_energy(design, &trace, &model, until);
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

    #[test]
    fn egress_sends_in_rank_capture_channel_order() {
        // n1 feeds three channels from two tapped ports: `sp.1` captures
        // before `inv.0` in each instant, but `inv.0`'s first channel comes
        // first. The lower-ranked n0 sends at the same instants (power-on
        // and t=10). Sends go out by sender rank, then capture order, then
        // channel order.
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
        let trace = fleet.run_traced(40).unwrap().trace.unwrap();
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
