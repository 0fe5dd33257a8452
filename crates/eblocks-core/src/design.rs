//! The eBlock network: a directed acyclic graph of blocks wired
//! port-to-port.
//!
//! §4 of the paper: "We represent an eBlock system as a directed acyclic
//! graph G = (V, E) where V is the set of nodes (blocks) in the graph and E
//! is the set of edges (connections) between the nodes."
//!
//! Connections are *port-level*: an edge carries the output-port index on its
//! source and the input-port index on its destination. Input ports accept at
//! most one driver (a physical eBlock input is a single connector); output
//! ports may fan out to several consumers.

use crate::block::Block;
use crate::error::DesignError;
use crate::kind::BlockKind;
use petgraph::stable_graph::{NodeIndex, StableDiGraph};
use petgraph::visit::EdgeRef;
use petgraph::Direction;
use std::collections::HashMap;
use std::fmt;

/// Stable identifier of a block within a [`Design`].
///
/// Ids remain valid across block removals (the graph uses stable indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) NodeIndex);

impl BlockId {
    /// The raw index, useful as a dense map key. Stable for the lifetime of
    /// the design but meaningless across designs.
    pub fn index(self) -> usize {
        self.0.index()
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0.index())
    }
}

/// Port-level connection data carried on each graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Connection {
    /// Output-port index on the source block.
    from_port: u8,
    /// Input-port index on the destination block.
    to_port: u8,
}

/// A fully resolved wire: source block/port and destination block/port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire {
    /// Driving block.
    pub from: BlockId,
    /// Output-port index on the driving block.
    pub from_port: u8,
    /// Driven block.
    pub to: BlockId,
    /// Input-port index on the driven block.
    pub to_port: u8,
}

/// An eBlock network design.
///
/// See the [crate-level documentation](crate) for a construction example.
#[derive(Debug, Clone, Default)]
pub struct Design {
    name: String,
    graph: StableDiGraph<Block, Connection>,
    by_name: HashMap<String, BlockId>,
}

impl Design {
    /// Creates an empty design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            graph: StableDiGraph::new(),
            by_name: HashMap::new(),
        }
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a block and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a block with the same name already exists; use
    /// [`Design::try_add_block`] for a fallible variant. The panicking variant
    /// keeps example and test code unceremonious — names are usually literals.
    pub fn add_block(&mut self, name: impl Into<String>, kind: impl Into<BlockKind>) -> BlockId {
        self.try_add_block(name, kind)
            .expect("duplicate block name")
    }

    /// Adds a block and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::DuplicateName`] if the name is taken.
    pub fn try_add_block(
        &mut self,
        name: impl Into<String>,
        kind: impl Into<BlockKind>,
    ) -> Result<BlockId, DesignError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(DesignError::DuplicateName { name });
        }
        let id = BlockId(self.graph.add_node(Block::new(name.clone(), kind)));
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Removes a block and all wires touching it. Returns the block, or
    /// `None` if the id was already removed.
    pub fn remove_block(&mut self, id: BlockId) -> Option<Block> {
        let block = self.graph.remove_node(id.0)?;
        self.by_name.remove(block.name());
        Some(block)
    }

    /// Connects `from.1`-th output port of block `from.0` to the `to.1`-th
    /// input port of block `to.0`.
    ///
    /// # Errors
    ///
    /// * [`DesignError::UnknownBlock`] if either id is stale,
    /// * [`DesignError::PortOutOfRange`] if a port index exceeds the arity,
    /// * [`DesignError::InputAlreadyDriven`] if the input port has a driver,
    /// * [`DesignError::WouldCycle`] if the wire would close a cycle.
    pub fn connect(&mut self, from: (BlockId, u8), to: (BlockId, u8)) -> Result<(), DesignError> {
        let (src, from_port) = from;
        let (dst, to_port) = to;
        let src_block = self.block(src).ok_or_else(|| DesignError::UnknownBlock {
            reference: format!("{src} (connection source)"),
        })?;
        let dst_block = self.block(dst).ok_or_else(|| DesignError::UnknownBlock {
            reference: format!("{dst} (connection destination)"),
        })?;
        if from_port >= src_block.num_outputs() {
            return Err(DesignError::PortOutOfRange {
                block: src_block.name().to_string(),
                port: from_port,
                arity: src_block.num_outputs(),
                direction: "output",
            });
        }
        if to_port >= dst_block.num_inputs() {
            return Err(DesignError::PortOutOfRange {
                block: dst_block.name().to_string(),
                port: to_port,
                arity: dst_block.num_inputs(),
                direction: "input",
            });
        }
        if self.driver_of(dst, to_port).is_some() {
            return Err(DesignError::InputAlreadyDriven {
                block: dst_block.name().to_string(),
                port: to_port,
            });
        }
        // A new edge src -> dst closes a cycle iff dst already reaches src.
        if src == dst || petgraph::algo::has_path_connecting(&self.graph, dst.0, src.0, None) {
            return Err(DesignError::WouldCycle {
                from: src_block.name().to_string(),
                to: dst_block.name().to_string(),
            });
        }
        self.graph
            .add_edge(src.0, dst.0, Connection { from_port, to_port });
        Ok(())
    }

    /// Convenience: connects output port 0 of `from` to the lowest-numbered
    /// free input port of `to`.
    ///
    /// # Errors
    ///
    /// As for [`Design::connect`]; additionally returns
    /// [`DesignError::InputAlreadyDriven`] naming port count if every input of
    /// `to` is taken.
    pub fn wire(&mut self, from: BlockId, to: BlockId) -> Result<(), DesignError> {
        let dst_block = self.block(to).ok_or_else(|| DesignError::UnknownBlock {
            reference: format!("{to} (connection destination)"),
        })?;
        let arity = dst_block.num_inputs();
        let name = dst_block.name().to_string();
        let port = (0..arity)
            .find(|&p| self.driver_of(to, p).is_none())
            .ok_or(DesignError::InputAlreadyDriven {
                block: name,
                port: arity,
            })?;
        self.connect((from, 0), (to, port))
    }

    /// Looks up a block by id.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.graph.node_weight(id.0)
    }

    /// Looks up a block id by name.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.by_name.get(name).copied()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of wires.
    pub fn num_wires(&self) -> usize {
        self.graph.edge_count()
    }

    /// Iterates over all block ids (in insertion order for a design that
    /// never removed blocks).
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.graph.node_indices().map(BlockId)
    }

    /// Iterates over ids of *inner* blocks: pre-defined compute blocks,
    /// the candidates for partitioning (§4).
    pub fn inner_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks().filter(|&b| self.graph[b.0].is_inner())
    }

    /// Iterates over sensor block ids (primary inputs).
    pub fn sensors(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks()
            .filter(|&b| self.graph[b.0].kind().is_primary_input())
    }

    /// Iterates over output block ids (primary outputs).
    pub fn outputs(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks()
            .filter(|&b| self.graph[b.0].kind().is_primary_output())
    }

    /// Iterates over every wire in the design.
    pub fn wires(&self) -> impl Iterator<Item = Wire> + '_ {
        self.graph.edge_references().map(|e| Wire {
            from: BlockId(e.source()),
            from_port: e.weight().from_port,
            to: BlockId(e.target()),
            to_port: e.weight().to_port,
        })
    }

    /// Wires entering `id` (its input connections).
    pub fn in_wires(&self, id: BlockId) -> impl Iterator<Item = Wire> + '_ {
        self.graph
            .edges_directed(id.0, Direction::Incoming)
            .map(|e| Wire {
                from: BlockId(e.source()),
                from_port: e.weight().from_port,
                to: BlockId(e.target()),
                to_port: e.weight().to_port,
            })
    }

    /// Wires leaving `id` (its output connections).
    pub fn out_wires(&self, id: BlockId) -> impl Iterator<Item = Wire> + '_ {
        self.graph
            .edges_directed(id.0, Direction::Outgoing)
            .map(|e| Wire {
                from: BlockId(e.source()),
                from_port: e.weight().from_port,
                to: BlockId(e.target()),
                to_port: e.weight().to_port,
            })
    }

    /// Number of wires entering `id` — the paper's "indegree" of a block.
    pub fn indegree(&self, id: BlockId) -> usize {
        self.graph.edges_directed(id.0, Direction::Incoming).count()
    }

    /// Number of wires leaving `id` — the paper's "outdegree" of a block.
    pub fn outdegree(&self, id: BlockId) -> usize {
        self.graph.edges_directed(id.0, Direction::Outgoing).count()
    }

    /// The wire driving input port `port` of `id`, if connected.
    pub fn driver_of(&self, id: BlockId, port: u8) -> Option<Wire> {
        self.in_wires(id).find(|w| w.to_port == port)
    }

    /// All wires driven by output port `port` of `id`.
    pub fn sinks_of(&self, id: BlockId, port: u8) -> impl Iterator<Item = Wire> + '_ {
        self.out_wires(id).filter(move |w| w.from_port == port)
    }

    /// Block ids in topological order (sources first).
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle, which [`Design::connect`]
    /// prevents; a design mutated only through this API is always acyclic.
    pub fn topo_order(&self) -> Vec<BlockId> {
        petgraph::algo::toposort(&self.graph, None)
            .expect("design graphs are acyclic by construction")
            .into_iter()
            .map(BlockId)
            .collect()
    }

    /// Checks structural completeness: every input port driven, every output
    /// port of a pre-defined compute/comm block used, and the graph acyclic.
    ///
    /// Dangling *sensor* outputs are tolerated (a physical sensor block can
    /// sit unconnected), as are dangling *programmable* outputs (the pin
    /// budget is fixed; a partition rarely needs every pin).
    ///
    /// # Errors
    ///
    /// The first problem found, as a [`DesignError`].
    pub fn validate(&self) -> Result<(), DesignError> {
        if petgraph::algo::is_cyclic_directed(&self.graph) {
            // Unreachable through the public API; defensive for future
            // deserialization paths.
            return Err(DesignError::WouldCycle {
                from: "<graph>".into(),
                to: "<graph>".into(),
            });
        }
        for id in self.blocks() {
            let block = &self.graph[id.0];
            if !matches!(block.kind(), BlockKind::Programmable(_)) {
                for port in 0..block.num_inputs() {
                    if self.driver_of(id, port).is_none() {
                        return Err(DesignError::UnconnectedInput {
                            block: block.name().to_string(),
                            port,
                        });
                    }
                }
            }
            let pins_may_dangle = matches!(
                block.kind(),
                BlockKind::Sensor(_) | BlockKind::Programmable(_)
            );
            if !pins_may_dangle {
                for port in 0..block.num_outputs() {
                    if self.sinks_of(id, port).next().is_none() {
                        return Err(DesignError::DanglingOutput {
                            block: block.name().to_string(),
                            port,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Summary counts used in reports: `(sensors, outputs, inner, comm+prog)`.
    pub fn census(&self) -> DesignCensus {
        let mut census = DesignCensus::default();
        for id in self.blocks() {
            match self.graph[id.0].kind() {
                BlockKind::Sensor(_) => census.sensors += 1,
                BlockKind::Output(_) => census.outputs += 1,
                BlockKind::Compute(_) => census.inner += 1,
                BlockKind::Programmable(_) => census.programmable += 1,
                BlockKind::Comm(_) => census.comm += 1,
            }
        }
        census
    }
}

/// Block counts by class, as produced by [`Design::census`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesignCensus {
    /// Sensor blocks (primary inputs).
    pub sensors: usize,
    /// Output blocks (primary outputs).
    pub outputs: usize,
    /// Pre-defined compute blocks (inner nodes).
    pub inner: usize,
    /// Programmable blocks.
    pub programmable: usize,
    /// Communication blocks.
    pub comm: usize,
}

impl DesignCensus {
    /// Inner-node count after synthesis in the paper's metric:
    /// pre-defined compute blocks plus programmable blocks.
    pub fn inner_total(&self) -> usize {
        self.inner + self.programmable
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.census();
        write!(
            f,
            "design `{}`: {} blocks ({} sensors, {} inner, {} programmable, {} outputs), {} wires",
            self.name,
            self.num_blocks(),
            c.sensors,
            c.inner,
            c.programmable,
            c.outputs,
            self.num_wires()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{ComputeKind, OutputKind, SensorKind};

    fn chain() -> (Design, BlockId, BlockId, BlockId) {
        let mut d = Design::new("chain");
        let s = d.add_block("s", SensorKind::Button);
        let n = d.add_block("n", ComputeKind::Not);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (n, 0)).unwrap();
        d.connect((n, 0), (o, 0)).unwrap();
        (d, s, n, o)
    }

    #[test]
    fn build_and_validate_chain() {
        let (d, s, n, o) = chain();
        assert_eq!(d.num_blocks(), 3);
        assert_eq!(d.num_wires(), 2);
        d.validate().unwrap();
        assert_eq!(d.inner_blocks().collect::<Vec<_>>(), vec![n]);
        assert_eq!(d.sensors().collect::<Vec<_>>(), vec![s]);
        assert_eq!(d.outputs().collect::<Vec<_>>(), vec![o]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut d = Design::new("dup");
        d.add_block("x", SensorKind::Button);
        assert!(matches!(
            d.try_add_block("x", SensorKind::Motion),
            Err(DesignError::DuplicateName { .. })
        ));
    }

    #[test]
    fn port_range_checked() {
        let mut d = Design::new("ports");
        let s = d.add_block("s", SensorKind::Button);
        let n = d.add_block("n", ComputeKind::Not);
        assert!(matches!(
            d.connect((s, 1), (n, 0)),
            Err(DesignError::PortOutOfRange {
                direction: "output",
                ..
            })
        ));
        assert!(matches!(
            d.connect((s, 0), (n, 1)),
            Err(DesignError::PortOutOfRange {
                direction: "input",
                ..
            })
        ));
    }

    #[test]
    fn single_driver_per_input() {
        let mut d = Design::new("drv");
        let a = d.add_block("a", SensorKind::Button);
        let b = d.add_block("b", SensorKind::Motion);
        let n = d.add_block("n", ComputeKind::Not);
        d.connect((a, 0), (n, 0)).unwrap();
        assert!(matches!(
            d.connect((b, 0), (n, 0)),
            Err(DesignError::InputAlreadyDriven { .. })
        ));
    }

    #[test]
    fn cycles_rejected() {
        let mut d = Design::new("cyc");
        let g1 = d.add_block("g1", ComputeKind::Not);
        let g2 = d.add_block("g2", ComputeKind::Not);
        d.connect((g1, 0), (g2, 0)).unwrap();
        assert!(matches!(
            d.connect((g2, 0), (g1, 0)),
            Err(DesignError::WouldCycle { .. })
        ));
        // Self loop.
        let g3 = d.add_block("g3", ComputeKind::Toggle);
        assert!(matches!(
            d.connect((g3, 0), (g3, 0)),
            Err(DesignError::WouldCycle { .. })
        ));
    }

    #[test]
    fn validate_flags_unconnected_input() {
        let mut d = Design::new("v");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        assert!(matches!(
            d.validate(),
            Err(DesignError::UnconnectedInput { port: 1, .. })
        ));
    }

    #[test]
    fn validate_flags_dangling_output() {
        let mut d = Design::new("v2");
        let s = d.add_block("s", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::Not);
        d.connect((s, 0), (g, 0)).unwrap();
        assert!(matches!(
            d.validate(),
            Err(DesignError::DanglingOutput { .. })
        ));
    }

    #[test]
    fn unconnected_sensor_tolerated() {
        let (mut d, _, _, _) = chain();
        d.add_block("spare", SensorKind::Light);
        d.validate().unwrap();
    }

    #[test]
    fn wire_picks_free_port() {
        let mut d = Design::new("w");
        let a = d.add_block("a", SensorKind::Button);
        let b = d.add_block("b", SensorKind::Motion);
        let g = d.add_block("g", ComputeKind::and2());
        d.wire(a, g).unwrap();
        d.wire(b, g).unwrap();
        assert_eq!(d.driver_of(g, 0).unwrap().from, a);
        assert_eq!(d.driver_of(g, 1).unwrap().from, b);
        let c = d.add_block("c", SensorKind::Sound);
        assert!(matches!(
            d.wire(c, g),
            Err(DesignError::InputAlreadyDriven { .. })
        ));
    }

    #[test]
    fn fanout_allowed_on_outputs() {
        let mut d = Design::new("f");
        let s = d.add_block("s", SensorKind::Button);
        let n1 = d.add_block("n1", ComputeKind::Not);
        let n2 = d.add_block("n2", ComputeKind::Not);
        d.connect((s, 0), (n1, 0)).unwrap();
        d.connect((s, 0), (n2, 0)).unwrap();
        assert_eq!(d.sinks_of(s, 0).count(), 2);
    }

    #[test]
    fn remove_block_clears_name_and_wires() {
        let (mut d, _, n, _) = chain();
        let removed = d.remove_block(n).unwrap();
        assert_eq!(removed.name(), "n");
        assert_eq!(d.num_wires(), 0);
        assert!(d.block_by_name("n").is_none());
        assert!(d.remove_block(n).is_none());
        // Name can be reused after removal.
        d.add_block("n", ComputeKind::Toggle);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (d, s, n, o) = chain();
        let order = d.topo_order();
        let pos = |b| order.iter().position(|&x| x == b).unwrap();
        assert!(pos(s) < pos(n) && pos(n) < pos(o));
    }

    #[test]
    fn census_counts() {
        let (mut d, _, _, _) = chain();
        d.add_block("p", crate::kind::ProgrammableSpec::default());
        d.add_block("x10", crate::kind::CommKind::X10);
        let c = d.census();
        assert_eq!(c.sensors, 1);
        assert_eq!(c.inner, 1);
        assert_eq!(c.programmable, 1);
        assert_eq!(c.comm, 1);
        assert_eq!(c.outputs, 1);
        assert_eq!(c.inner_total(), 2);
    }

    #[test]
    fn indegree_outdegree_count_wires() {
        let mut d = Design::new("deg");
        let a = d.add_block("a", SensorKind::Button);
        let g = d.add_block("g", ComputeKind::and2());
        let n1 = d.add_block("n1", ComputeKind::Not);
        let n2 = d.add_block("n2", ComputeKind::Not);
        d.connect((a, 0), (g, 0)).unwrap();
        d.connect((a, 0), (g, 1)).unwrap(); // same sensor, both pins
        d.connect((g, 0), (n1, 0)).unwrap();
        d.connect((g, 0), (n2, 0)).unwrap();
        assert_eq!(d.indegree(g), 2);
        assert_eq!(d.outdegree(g), 2);
        assert_eq!(d.outdegree(a), 2);
    }
}
