//! The event-driven simulator core.
//!
//! # Execution model
//!
//! The simulator realizes the paper's §3.1 semantics — "behaviorally
//! correct and obeys general high-level timing, but no detailed timing
//! characteristics can be inferred" — as a *synchronous delta-cycle* model:
//!
//! * wires have **zero latency**; a value change propagates through the
//!   whole downstream cone within one instant, blocks evaluating in
//!   topological order,
//! * all packets reaching a block in the same instant are **coalesced**
//!   into one evaluation (a block sees the settled values of its inputs,
//!   never transient glitches from unequal-depth reconvergent paths),
//! * an output port transmits only when its value **changes** (the eBlocks
//!   packet protocol),
//! * time-driven blocks receive periodic `tick` events on the grid of
//!   multiples of `tick_period`; only communication blocks add real
//!   latency (a radio/X10 hop is not instantaneous).
//!
//! Glitch-freedom matters for synthesis: a merged programmable block
//! evaluates its member trees in level order against latched inputs, which
//! is exactly this model. Under per-hop latencies instead, an edge-triggered
//! block (trip, toggle) could observe hazard pulses that depend on wire
//! lengths — behavior no merged program can reproduce and that the physical
//! human-scale system does not exhibit.
//!
//! # Event-ordering contract
//!
//! Every event is totally ordered by the conceptual key
//! `(time, stage, rank, sub, seq)`:
//!
//! * **time** — the simulation instant,
//! * **stage** — sensor changes (stage 0) apply before any block
//!   evaluation (stage 1) of the same instant; stage-0 entries tie-break
//!   on the sensor's block id,
//! * **rank** — the receiving block's topological rank, which makes the
//!   zero-latency cascade converge in a single sweep per instant,
//! * **sub** — within one block, its periodic `tick` (sub 0) runs before
//!   its packet deliveries (sub 1+port),
//! * **seq** — a monotone push counter keeps everything else FIFO; in
//!   particular, two packets on the same wire arrive in send order.
//!
//! At time zero every sensor announces its initial `false` before any
//! scripted t=0 stimulus value is applied (power-on announcement). The
//! golden-trace suite in `tests/event_ordering.rs` pins this contract.
//!
//! # Queue design
//!
//! The pending-event set has two levels:
//!
//! * **Level 1 — time.** Sensor events are fully known before the run
//!   starts and live in one sorted schedule walked by a cursor. Future
//!   block events (ticks, latent packets) go into one calendar: a binary
//!   min-heap keyed by `(instant, seq)`, in one contiguous buffer per
//!   runner. The next instant is the minimum of the sense cursor and the
//!   heap's top. Opening an instant pops exactly its events, already in
//!   `seq` order, so any delay (a tick period, a comm latency, an injected
//!   delay fault) lands on the same path, and a runner with many pending
//!   events pays `O(log n)` per event rather than a scan.
//! * **Level 2 — one instant.** Opening an instant applies its events in
//!   send (`seq`) order, latching packet values straight into each
//!   receiver's dense input array and marking the receiver's rank pending.
//!   The instant is then settled by sweeping pending ranks in ascending
//!   order (a min-heap of ranks); zero-latency transmissions latch and
//!   mark strictly higher ranks, so the sweep visits every block at most
//!   once per instant and same-instant coalescing is a natural consequence
//!   of the latch-then-sweep split — not repeated heap peek/pop. Packets
//!   reaching output blocks are recorded after the sweep, by block rank
//!   and then by `(port, seq)`.
//!
//! # Tables
//!
//! Everything fixed by the design — the block index, each block's port
//! offsets, the sink lists, the tick-driven blocks, the sensors, the output
//! blocks and the compiled programs — is built once per [`Simulator`] into
//! one `Layout`, which every runner over it (each [`crate::NodeRunner`] of
//! a fleet included) borrows. A runner owns only its dynamic state, in a
//! few flat tables over the layout's dense block index: one entry per block
//! (sweep flags, parking, the sensor value, the transmission counter), one
//! per output slot (the last value sent and the tap, if any), the latched
//! inputs, and one [`Machine`] per programmed block whose state, locals and
//! outputs share one buffer. A Night Lamp Controller [`crate::NodeRunner`]
//! with one tap, stepped to t = 200 through five light pulses while its
//! captures return as injections, holds 1,912 B of heap in 15 allocations
//! plus 376 B inline; an empty one-output [`Trace`] is 52 B in two.
//!
//! # Parked ticks
//!
//! Every run — a whole one ([`Simulator::run`],
//! [`Simulator::run_with_faults`], and the reliability and energy harnesses
//! built on them) or a stepped one ([`crate::NodeRunner::step_at`], a
//! fleet's nodes) — settles an instant through the same code, which skips
//! ticks whose result is already known. When a tick leaves its block's
//! machine settled ([`Machine::tick_settled`]: the state did not change),
//! the block is *parked*: no next tick is scheduled. When an input next
//! reaches it at instant `t`, its next tick is scheduled at the first
//! multiple of `tick_period` after `t` (if that is representable and within
//! the run or the step's horizon). Neither step changes a trace:
//!
//! * a settled tick reads no inputs and repeats the outputs the block
//!   already sent, so change detection would transmit nothing;
//! * a tick at `t` runs before a delivery at `t`, so the first grid instant
//!   after `t` is the tick an unparked block would run next;
//! * a parked tick takes no `seq`, so later seqs shift down but keep their
//!   order, and no trace or captured packet carries a seq.
//!
//! A parked block's grid instants are not pending work, so a runner's next
//! event time skips them; [`crate::cosim`] says how a stepping loop that
//! counts grid instants still sees them.
//!
//! # Behavior programs
//!
//! A compute block's program comes from the process-wide library table
//! ([`library::code_for`]): each kind is parsed, checked and compiled once
//! per process, and every simulator borrows that one compilation. The comm
//! relay program is compiled once per process too.
//! [`Simulator::with_programs`] checks and compiles only the programmable
//! blocks' programs: names resolve to port indices and dense slots (see
//! [`eblocks_behavior::Compiled`]), through maps keyed by names borrowed
//! from the program, so the program text is read in place and only the
//! compiled form is kept. The simulator does keep its own copy of the
//! design, for block names and stimulus, fault and tap lookups. Each run's engine then gives every
//! block a [`Machine`] that borrows its compilation and owns only its
//! slots, and a handler call hands back a port-indexed view of the
//! machine's output buffer. Together with the flat tables above, the hot
//! path does no hashing, and allocates only when a buffer outgrows every
//! earlier instant.

use crate::cosim::{CapturedPacket, TapId};
use crate::error::SimError;
use crate::fault::{FaultPlan, ResolvedFaults};
use crate::stimulus::Stimulus;
use crate::trace::Trace;
use eblocks_behavior::library::{self, LibraryCode};
use eblocks_behavior::{check, parse, Compiled, Machine, Outputs, Program, Value};
use eblocks_core::{BlockId, BlockKind, Design};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, LazyLock};

/// Simulation time, in abstract ticks. One tick is the period of `on tick`
/// events; eBlocks operate on human-scale timing, so finer resolution adds
/// nothing (§3.1).
pub type Time = u64;

/// A configured simulator for one design.
///
/// Construction checks every block's behavior program ([`library`] for
/// pre-defined blocks, caller-supplied programs for programmable blocks)
/// against the block's arity, compiles it, and lays out the design's
/// static tables once for every run. Each [`Simulator::run`] starts from
/// power-on state.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: Design,
    layout: Layout,
    /// Extra latency of communication blocks (radio/X10 hop), in ticks.
    pub comm_latency: Time,
    /// Period of `on tick` events. Must be at least 1: a zero period would
    /// reschedule ticks at the same instant forever, so [`Simulator::run`]
    /// rejects it with [`SimError::InvalidTickPeriod`].
    pub tick_period: Time,
}

/// The comm relay's behavior: forward every packet unchanged. Every comm
/// kind has one input and one output, so one checked compilation serves
/// every comm block in the process.
static RELAY: LazyLock<Compiled> = LazyLock::new(|| {
    let program = parse("on input { out0 = in0; }").expect("the relay parses");
    assert!(check(&program, 1, 1).is_empty(), "the relay checks");
    Compiled::new(&program)
});

/// One block's compiled behavior.
#[derive(Debug, Clone)]
enum Code {
    /// A compute block's library code, shared process-wide.
    Library(Arc<LibraryCode>),
    /// A comm block's relay.
    Relay(&'static Compiled),
    /// A programmable block's program, compiled by this simulator.
    Own(Compiled),
}

impl Code {
    fn compiled(&self) -> &Compiled {
        match self {
            Code::Library(shared) => shared.compiled(),
            Code::Relay(relay) => relay,
            Code::Own(own) => own,
        }
    }
}

impl Simulator {
    /// Builds a simulator using the standard behavior library. Fails if the
    /// design contains programmable blocks (their programs are synthesis
    /// artifacts — use [`Simulator::with_programs`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDesign`] if validation fails,
    /// [`SimError::MissingProgram`] for unprogrammed programmable blocks.
    pub fn new(design: &Design) -> Result<Self, SimError> {
        Self::with_programs(design, &HashMap::new())
    }

    /// Builds a simulator supplying behavior programs for programmable
    /// blocks (keyed by block id). Each program is checked and compiled
    /// here, once; the simulator keeps only the compiled form. Compute
    /// blocks borrow their kind's code from the shared library table.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`], plus [`SimError::BadProgram`] if a
    /// block's program fails [`check`](fn@check) against the block's pin
    /// budget.
    pub fn with_programs(
        design: &Design,
        programs: &HashMap<BlockId, Program>,
    ) -> Result<Self, SimError> {
        design.validate()?;
        let mut code = Vec::new();
        for id in design.blocks() {
            let block = design.block(id).expect("iterated block");
            let bad = |error| SimError::BadProgram {
                block: block.name().to_string(),
                error,
            };
            let compiled = match block.kind() {
                BlockKind::Compute(kind) => {
                    let shared = library::code_for(kind);
                    if let Some(error) = shared.check_errors().first() {
                        return Err(bad(error.clone()));
                    }
                    Code::Library(shared)
                }
                BlockKind::Comm(_) => Code::Relay(&RELAY),
                BlockKind::Programmable(_) => {
                    let program = programs.get(&id).ok_or_else(|| SimError::MissingProgram {
                        block: block.name().to_string(),
                    })?;
                    let errors = check(program, block.num_inputs(), block.num_outputs());
                    if let Some(error) = errors.into_iter().next() {
                        return Err(bad(error));
                    }
                    Code::Own(Compiled::new(program))
                }
                BlockKind::Sensor(_) | BlockKind::Output(_) => continue,
            };
            if code.len() <= id.index() {
                code.resize_with(id.index() + 1, || None);
            }
            code[id.index()] = Some(compiled);
        }
        Ok(Self {
            layout: Layout::new(design, code),
            design: design.clone(),
            comm_latency: 3,
            tick_period: 1,
        })
    }

    /// Runs the stimulus script until `until`, returning the packet history
    /// of every output block.
    ///
    /// The run starts from power-on: every line low, every sensor `false`
    /// and announcing its initial value, every state variable at its
    /// initializer.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTickPeriod`] if [`tick_period`](Self::tick_period)
    /// is zero, [`SimError::UnknownSensor`] for unresolvable stimulus
    /// entries, [`SimError::Eval`] / [`SimError::NonBooleanPacket`] for
    /// faulting behavior programs.
    pub fn run(&self, stimulus: &Stimulus, until: Time) -> Result<Trace, SimError> {
        self.run_with_faults(stimulus, until, &FaultPlan::new())
    }

    /// The design this simulator was built for.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The name of the block at dense index `dense`.
    fn name(&self, dense: usize) -> &str {
        self.design
            .block(self.layout.index.ids[dense])
            .expect("indexed block")
            .name()
    }

    /// [`run`](Self::run) with injected faults (see [`crate::fault`]):
    /// stuck sensors, dropped packets, delayed packets.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with_faults(
        &self,
        stimulus: &Stimulus,
        until: Time,
        plan: &FaultPlan,
    ) -> Result<Trace, SimError> {
        let mut runner = Runner::new(self, plan)?;
        runner.load_stimulus(stimulus)?;
        runner.run(until)?;
        Ok(runner.into_trace())
    }
}

/// Compact block indexing: dense index == topological rank.
///
/// Every per-block table in the engine is a flat `Vec` indexed by it, and
/// the stage-1 sweep order *is* the index order.
#[derive(Debug, Clone)]
pub(crate) struct BlockIndex {
    /// Dense index (topo rank) → block id.
    ids: Vec<BlockId>,
    /// Raw graph index → dense index (`usize::MAX` marks gaps).
    dense_of_raw: Vec<usize>,
}

impl BlockIndex {
    fn new(design: &Design) -> Self {
        let ids = design.topo_order();
        let max_raw = ids.iter().map(|b| b.index()).max().map_or(0, |m| m + 1);
        let mut dense_of_raw = vec![usize::MAX; max_raw];
        for (dense, id) in ids.iter().enumerate() {
            dense_of_raw[id.index()] = dense;
        }
        Self { ids, dense_of_raw }
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.ids.len()
    }

    /// The dense index of `id`, or `None` if the block is not in the design.
    pub(crate) fn dense_of(&self, id: BlockId) -> Option<usize> {
        self.dense_of_raw
            .get(id.index())
            .copied()
            .filter(|&d| d != usize::MAX)
    }
}

/// Static per-block layout.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// Start of this block's latched inputs in a runner's flat inputs.
    in_offset: usize,
    /// Number of input ports.
    in_len: usize,
    /// This block's first output slot (its port 0).
    out_offset: usize,
    /// Whether this is a primary-output block (records packets, never
    /// evaluates).
    is_output: bool,
    /// Whether this is a communication block, whose transmissions take the
    /// simulator's `comm_latency` (read when a packet is sent, so the
    /// public field may change between runs).
    is_comm: bool,
}

/// One wire endpoint, pre-resolved to dense indices.
#[derive(Debug, Clone, Copy)]
struct Sink {
    to: usize,
    port: u8,
}

/// The static tables of one design, built once by
/// [`Simulator::with_programs`] and shared by every runner over that
/// simulator.
///
/// Blocks are numbered by [`BlockIndex`] (dense index == topological rank).
/// Each block's output ports number consecutive *output slots* from its
/// `out_offset`, and each slot's sinks are one range of a flat sink list.
/// A runner holds only dynamic state over these numbers (see the module
/// docs on tables), so a fleet of a thousand nodes running one design keeps
/// one copy of them.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    index: BlockIndex,
    /// Per block, by dense index.
    blocks: Vec<BlockMeta>,
    /// Compiled behavior by dense index; `None` for sensors and outputs,
    /// which run no program.
    code: Vec<Option<Code>>,
    /// Slot `s`'s sinks are `sinks[sink_offsets[s]..sink_offsets[s + 1]]`.
    sink_offsets: Vec<usize>,
    sinks: Vec<Sink>,
    /// Dense indices of tick-driven blocks, in block-id order.
    tick_blocks: Vec<usize>,
    /// The power-on announcements: every sensor low at t = 0, in raw-id
    /// order (the first entries of every sense schedule).
    power_on: Vec<SenseEv>,
    /// Output blocks, whose names every trace pre-registers.
    outputs: Vec<BlockId>,
    /// Total input ports over all blocks.
    total_inputs: usize,
}

impl Layout {
    /// Lays out `design`, whose compiled behavior `code_by_raw` holds by
    /// raw block index.
    fn new(design: &Design, mut code_by_raw: Vec<Option<Code>>) -> Self {
        let index = BlockIndex::new(design);
        let n = index.num_blocks();
        let mut blocks = Vec::with_capacity(n);
        let mut code = Vec::with_capacity(n);
        let mut sink_offsets = vec![0];
        let mut sinks = Vec::new();
        let mut total_inputs = 0;
        for &id in &index.ids {
            let block = design.block(id).expect("indexed block");
            blocks.push(BlockMeta {
                in_offset: total_inputs,
                in_len: block.num_inputs() as usize,
                out_offset: sink_offsets.len() - 1,
                is_output: matches!(block.kind(), BlockKind::Output(_)),
                is_comm: matches!(block.kind(), BlockKind::Comm(_)),
            });
            total_inputs += block.num_inputs() as usize;
            for port in 0..block.num_outputs() {
                sinks.extend(design.sinks_of(id, port).map(|w| Sink {
                    to: index.dense_of(w.to).expect("sink block is in the design"),
                    port: w.to_port,
                }));
                sink_offsets.push(sinks.len());
            }
            code.push(code_by_raw.get_mut(id.index()).and_then(Option::take));
        }

        // `Design::blocks` and `Design::sensors` iterate in raw-id order.
        let tick_blocks = design
            .blocks()
            .map(|id| index.dense_of(id).expect("block is in the design"))
            .filter(|&dense| {
                code[dense]
                    .as_ref()
                    .is_some_and(|c| c.compiled().uses_tick())
            })
            .collect();
        let power_on = design
            .sensors()
            .map(|id| SenseEv {
                t: 0,
                raw: id.index(),
                dense: index.dense_of(id).expect("sensor is in the design"),
                value: false,
            })
            .collect();
        Self {
            index,
            blocks,
            code,
            sink_offsets,
            sinks,
            tick_blocks,
            power_on,
            outputs: design.outputs().collect(),
            total_inputs,
        }
    }

    /// The sinks driven by output slot `slot`.
    fn sinks_of(&self, slot: usize) -> &[Sink] {
        &self.sinks[self.sink_offsets[slot]..self.sink_offsets[slot + 1]]
    }

    /// The number of output slots.
    fn num_slots(&self) -> usize {
        self.sink_offsets.len() - 1
    }
}

/// A future block event (stage 1 only: sensor changes live in the
/// pre-sorted sense schedule instead). The calendar holds each as
/// `(t, seq, event)`; `seq` is unique within a run, so the event itself
/// never decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A periodic tick for a time-driven block.
    Tick { block: usize },
    /// A packet arriving at an input port.
    Deliver { to: usize, port: u8, value: bool },
}

/// A sensor change, fully known before the run starts (a power-on
/// announcement or a stimulus entry).
#[derive(Debug, Clone, Copy)]
struct SenseEv {
    t: Time,
    /// Raw block index — the stage-0 tie-break.
    raw: usize,
    dense: usize,
    value: bool,
}

/// One block's dynamic state in a runner.
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Packets transmitted (one per driven wire per value change).
    tx_count: u64,
    /// Queued in the pending ranks of the instant being settled.
    in_sweep: bool,
    /// Its tick falls due in the instant being settled.
    tick_now: bool,
    /// An input arrived in the instant being settled.
    eval_now: bool,
    /// Its last tick settled and no next tick is scheduled (see the
    /// module docs on parked ticks).
    parked: bool,
    /// A sensor's current value.
    sensor_value: bool,
}

/// One output slot's state in a runner.
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    /// The value last transmitted, `None` before the first packet.
    last_sent: Option<bool>,
    /// The tap observing this slot's transmissions, if any. Static wiring
    /// like the sense schedule: registrations survive
    /// [`reset`](Runner::reset).
    tap: Option<TapId>,
}

/// The reusable simulation engine for one [`Simulator`].
///
/// Construction borrows the simulator's [`Layout`] and builds one machine
/// per programmed block over its compiled programs;
/// [`reset`](Runner::reset) rewinds to power-on state without
/// reallocating, so Monte-Carlo harnesses can run many trials on one arena.
/// Contract per trial: `reset` → `load_stimulus` → `run` once → read
/// [`trace`](Runner::trace).
pub(crate) struct Runner<'a> {
    sim: &'a Simulator,
    machines: Vec<Option<Machine<'a>>>,
    /// The power-on announcements merged with the resolved stimulus,
    /// sorted by `(t, raw)` with an announcement first on a tie and
    /// stimulus entries in script order. Static like the taps: `reset`
    /// only rewinds the cursor.
    sense_schedule: Vec<SenseEv>,
    // --- per-run state, rewound by `reset` ---
    faults: ResolvedFaults,
    inputs: Vec<Value>,
    blocks: Vec<BlockState>,
    slots: Vec<SlotState>,
    sense_cursor: usize,
    /// Future block events as `(t, seq, event)`, earliest first.
    calendar: BinaryHeap<Reverse<(Time, u64, Event)>>,
    /// Ranks with pending work in the instant being settled.
    pending: BinaryHeap<Reverse<usize>>,
    /// Packets reaching output blocks this instant, `(block, port, seq,
    /// value)`.
    out_now: Vec<(usize, u8, u64, bool)>,
    seq: u64,
    trace: Trace,
    // --- co-simulation bridging (see `crate::cosim`) ---
    next_tap: TapId,
    /// Transmissions captured at tapped slots since the last drain, in
    /// emission order.
    captured: Vec<CapturedPacket>,
    /// Network-injected sensor events, applied at their instant *after*
    /// any scripted stimulus of the same instant, in insertion order.
    injected: VecDeque<(Time, usize, bool)>,
}

impl<'a> Runner<'a> {
    /// Builds the engine over `sim`'s layout and resets to power-on state
    /// with `plan`'s faults applied.
    pub(crate) fn new(sim: &'a Simulator, plan: &FaultPlan) -> Result<Self, SimError> {
        if sim.tick_period == 0 {
            return Err(SimError::InvalidTickPeriod);
        }
        let layout = &sim.layout;
        let n = layout.index.num_blocks();
        let mut runner = Self {
            sim,
            machines: layout
                .code
                .iter()
                .map(|code| code.as_ref().map(|c| Machine::new(c.compiled())))
                .collect(),
            sense_schedule: layout.power_on.clone(),
            faults: ResolvedFaults::default(),
            inputs: Vec::with_capacity(layout.total_inputs),
            blocks: Vec::with_capacity(n),
            slots: vec![SlotState::default(); layout.num_slots()],
            sense_cursor: 0,
            calendar: BinaryHeap::new(),
            pending: BinaryHeap::new(),
            out_now: Vec::new(),
            seq: 0,
            trace: Trace::with_outputs(layout.outputs.iter().map(|&id| {
                sim.design
                    .block(id)
                    .expect("output block")
                    .name()
                    .to_string()
            })),
            next_tap: 0,
            captured: Vec::new(),
            injected: VecDeque::new(),
        };
        runner.reset(plan);
        Ok(runner)
    }

    /// Rewinds to power-on state with `plan`'s faults applied, keeping
    /// every allocation (tables, machine arenas, queue buffers, the trace's
    /// output names), the taps and the loaded stimulus.
    pub(crate) fn reset(&mut self, plan: &FaultPlan) {
        let sim = self.sim;
        let layout = &sim.layout;
        self.faults = plan.resolve(&sim.design, &layout.index);
        self.inputs.clear();
        self.inputs.resize(layout.total_inputs, Value::Bool(false));
        self.blocks.clear();
        self.blocks
            .resize(layout.index.num_blocks(), BlockState::default());
        for slot in &mut self.slots {
            slot.last_sent = None;
        }
        for machine in self.machines.iter_mut().flatten() {
            machine.reset();
        }
        self.sense_cursor = 0;
        self.calendar.clear();
        self.pending.clear();
        self.out_now.clear();
        self.seq = 0;
        self.trace.clear();
        self.captured.clear();
        self.injected.clear();
        // The first tick of each time-driven block, in id order
        // (determinism).
        for &block in &layout.tick_blocks {
            self.schedule(sim.tick_period, Event::Tick { block });
        }
    }

    /// Resolves and sorts the stimulus script into the sense schedule,
    /// replacing any previously loaded one, and rewinds the schedule's
    /// cursor. Later [`reset`](Runner::reset)s reuse the result.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSensor`] for entries that name no primary input.
    pub(crate) fn load_stimulus(&mut self, stimulus: &Stimulus) -> Result<(), SimError> {
        let design = &self.sim.design;
        let layout = &self.sim.layout;
        self.sense_schedule.clear();
        self.sense_schedule.extend_from_slice(&layout.power_on);
        for (t, name, value) in stimulus.events() {
            let id = design
                .block_by_name(name)
                .filter(|&b| {
                    design
                        .block(b)
                        .is_some_and(|blk| blk.kind().is_primary_input())
                })
                .ok_or_else(|| SimError::UnknownSensor { name: name.clone() })?;
            self.sense_schedule.push(SenseEv {
                t: *t,
                raw: id.index(),
                dense: layout.index.dense_of(id).expect("resolved block"),
                value: *value,
            });
        }
        // A stable sort: the announcements, pushed first, stay ahead of a
        // scripted value for the same sensor at t = 0, and scripted values
        // for one sensor and instant keep their script order.
        self.sense_schedule.sort_by_key(|e| (e.t, e.raw));
        self.sense_cursor = 0;
        Ok(())
    }

    /// Runs until `until` (inclusive), parking settled ticks, and folds
    /// the transmission counters into the trace.
    pub(crate) fn run(&mut self, until: Time) -> Result<(), SimError> {
        while let Some(t) = self.next_event_time() {
            if t > until {
                break;
            }
            self.process_instant(t, until)?;
        }
        self.finalize_counts();
        Ok(())
    }

    /// The earliest instant with pending work — a scripted sense event, a
    /// calendar event (a packet in flight or an unparked tick), or a
    /// network-injected sense event.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        let sense = self.sense_schedule.get(self.sense_cursor).map(|e| e.t);
        let calendar = self.calendar.peek().map(|&Reverse((t, _, _))| t);
        let injected = self.injected.front().map(|&(t, _, _)| t);
        [sense, calendar, injected].into_iter().flatten().min()
    }

    /// Folds the transmission counters into the trace. Once per run:
    /// [`run`](Runner::run) does it itself; co-simulation drivers call it
    /// when the fleet clock stops.
    pub(crate) fn finalize_counts(&mut self) {
        let sim = self.sim;
        for (dense, state) in self.blocks.iter().enumerate() {
            if state.tx_count > 0 {
                self.trace
                    .count_transmissions(sim.name(dense), state.tx_count);
            }
        }
    }

    /// The trace recorded by the last [`run`](Runner::run).
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    pub(crate) fn into_trace(self) -> Trace {
        self.trace
    }

    // --- co-simulation hooks (used by `crate::cosim::NodeRunner`) ---

    /// The simulator this runner runs.
    pub(crate) fn sim(&self) -> &'a Simulator {
        self.sim
    }

    /// The dense index of `id`, if the block is in the design.
    pub(crate) fn dense_of_id(&self, id: BlockId) -> Option<usize> {
        self.sim.layout.index.dense_of(id)
    }

    /// Registers a tap on output slot `(dense, port)`. Idempotent: tapping
    /// the same slot twice returns the same id.
    pub(crate) fn register_tap(&mut self, dense: usize, port: u8) -> TapId {
        let slot = &mut self.slots[self.sim.layout.blocks[dense].out_offset + port as usize];
        if let Some(id) = slot.tap {
            return id;
        }
        let id = self.next_tap;
        self.next_tap += 1;
        slot.tap = Some(id);
        id
    }

    /// Queues a network-injected sensor change at `t`. Injections apply
    /// after any scripted stimulus of the same instant, in insertion order;
    /// callers must enqueue with non-decreasing `t`.
    pub(crate) fn inject_sense(&mut self, t: Time, dense: usize, value: bool) {
        debug_assert!(
            self.injected.back().is_none_or(|&(back, _, _)| back <= t),
            "injections must be enqueued in time order"
        );
        self.injected.push_back((t, dense, value));
    }

    /// Settles exactly the instant `t` (a co-simulation step), parking
    /// settled ticks as [`run`](Runner::run) does. `horizon` bounds tick
    /// rescheduling the same way `run`'s `until` does.
    pub(crate) fn step_at(&mut self, t: Time, horizon: Time) -> Result<(), SimError> {
        self.process_instant(t, horizon)
    }

    /// The tick period, if the design has time-driven blocks.
    pub(crate) fn tick_period(&self) -> Option<Time> {
        (!self.sim.layout.tick_blocks.is_empty()).then_some(self.sim.tick_period)
    }

    /// Moves tap captures accumulated since the last drain into `out`, in
    /// emission order.
    pub(crate) fn drain_captured(&mut self, out: &mut Vec<CapturedPacket>) {
        out.append(&mut self.captured);
    }

    /// Settles one instant: open its calendar events, apply its sensor
    /// changes, sweep pending ranks in topological order, then record what
    /// the output blocks received.
    fn process_instant(&mut self, t: Time, until: Time) -> Result<(), SimError> {
        // Open the instant. Its events pop in send (`seq`) order, so a
        // packet sent earlier on the same wire latches first — every
        // packet generated *during* this instant necessarily carries a
        // higher seq, so latching arrivals up front preserves the global
        // FIFO contract.
        while let Some(&Reverse((when, seq, event))) = self.calendar.peek() {
            debug_assert!(when >= t, "calendar events are never in the past");
            if when != t {
                break;
            }
            self.calendar.pop();
            match event {
                Event::Tick { block } => {
                    self.blocks[block].tick_now = true;
                    self.mark_pending(block);
                }
                Event::Deliver { to, port, value } => self.latch(to, port, value, seq),
            }
        }

        // Stage 0: sensor changes, ordered by (block id, push order).
        while let Some(&ev) = self.sense_schedule.get(self.sense_cursor) {
            if ev.t != t {
                break;
            }
            self.sense_cursor += 1;
            self.apply_sense(ev.dense, ev.value, t);
        }
        // Network-injected sense events apply after the scripted stimulus
        // of the same instant, in the order the fleet engine delivered
        // them (its ordering contract, not this node's).
        while let Some(&(when, dense, value)) = self.injected.front() {
            debug_assert!(when >= t, "injections must not arrive in the past");
            if when != t {
                break;
            }
            self.injected.pop_front();
            self.apply_sense(dense, value, t);
        }

        // Stage 1. The machines leave `self` for the sweep, so a handler's
        // output view can be emitted while it still borrows its machine.
        let mut machines = std::mem::take(&mut self.machines);
        let swept = self.sweep(&mut machines, t, until);
        self.machines = machines;
        self.record_outputs(t);
        swept
    }

    /// Stage 1 of an instant: sweep pending ranks in ascending order.
    /// Zero-latency transmissions only ever mark strictly higher ranks
    /// (wires point downstream in the DAG), so each block settles at most
    /// once. A settled tick parks its block and an input resumes it (see
    /// the module docs on parked ticks).
    fn sweep(
        &mut self,
        machines: &mut [Option<Machine<'a>>],
        t: Time,
        until: Time,
    ) -> Result<(), SimError> {
        let sim = self.sim;
        while let Some(Reverse(block)) = self.pending.pop() {
            let state = &mut self.blocks[block];
            state.in_sweep = false;
            // Emitting only marks other, higher ranks, so both flags can be
            // taken up front.
            let tick = std::mem::take(&mut state.tick_now);
            let eval = std::mem::take(&mut state.eval_now);
            let machine = machines[block].as_mut().expect("swept blocks run programs");
            if tick {
                let outs = machine
                    .on_tick()
                    .map_err(|error| self.eval_error(block, error))?;
                self.emit(block, outs, t)?;
                if machine.tick_settled() {
                    self.blocks[block].parked = true;
                } else {
                    // A period that would overflow Time never fires again
                    // (instead of panicking near Time::MAX).
                    self.schedule_tick(block, crate::time::after(t, sim.tick_period), until);
                }
            }
            if eval {
                let m = sim.layout.blocks[block];
                let outs = machine
                    .on_input(&self.inputs[m.in_offset..m.in_offset + m.in_len])
                    .map_err(|error| self.eval_error(block, error))?;
                self.emit(block, outs, t)?;
                if self.blocks[block].parked {
                    // Resume on the grid: the first multiple of the period
                    // after `t`, the tick an unparked block would run next.
                    self.blocks[block].parked = false;
                    let period = sim.tick_period;
                    self.schedule_tick(block, crate::time::after(t - t % period, period), until);
                }
            }
        }
        Ok(())
    }

    /// Records the packets output blocks received this instant: blocks in
    /// rank order, each block's packets by `(port, seq)`.
    fn record_outputs(&mut self, t: Time) {
        if self.out_now.is_empty() {
            return;
        }
        let sim = self.sim;
        self.out_now
            .sort_unstable_by_key(|&(block, port, seq, _)| (block, port, seq));
        for &(block, _, _, value) in &self.out_now {
            self.trace.record(sim.name(block), t, value);
        }
        self.out_now.clear();
    }

    /// Puts `event` on the calendar at `t` with the next seq.
    fn schedule(&mut self, t: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.calendar.push(Reverse((t, seq, event)));
    }

    /// Schedules `block`'s next tick at `next`, unless it is unrepresentable
    /// (`None`) or past `until`.
    fn schedule_tick(&mut self, block: usize, next: Option<Time>, until: Time) {
        if let Some(next) = next.filter(|&next| next <= until) {
            self.schedule(next, Event::Tick { block });
        }
    }

    /// Applies one sensor change (scripted or injected): a stuck fault
    /// overrides the environment, and the change-or-first-announcement
    /// rule decides whether a packet goes out.
    fn apply_sense(&mut self, dense: usize, value: bool, t: Time) {
        // A stuck sensor reports its stuck value regardless of what the
        // environment does.
        let value = self.faults.stuck_value(dense).unwrap_or(value);
        let slot = self.sim.layout.blocks[dense].out_offset;
        let announced = self.slots[slot].last_sent.is_some();
        let state = &mut self.blocks[dense];
        if state.sensor_value != value || !announced {
            state.sensor_value = value;
            self.transmit(dense, 0, value, t);
        }
    }

    /// Applies one arriving packet: latch the value and mark the receiver
    /// pending, or keep it for recording if the receiver is an output
    /// block.
    fn latch(&mut self, to: usize, port: u8, value: bool, seq: u64) {
        let m = self.sim.layout.blocks[to];
        if m.is_output {
            self.out_now.push((to, port, seq, value));
        } else {
            self.inputs[m.in_offset + port as usize] = Value::Bool(value);
            self.blocks[to].eval_now = true;
            self.mark_pending(to);
        }
    }

    fn mark_pending(&mut self, block: usize) {
        let state = &mut self.blocks[block];
        if !state.in_sweep {
            state.in_sweep = true;
            self.pending.push(Reverse(block));
        }
    }

    fn eval_error(&self, block: usize, error: eblocks_behavior::EvalError) -> SimError {
        SimError::Eval {
            block: self.sim.name(block).to_string(),
            error,
        }
    }

    /// Sends the handler's driven outputs in ascending port order,
    /// applying change detection.
    fn emit(&mut self, from: usize, outs: Outputs<'_>, t: Time) -> Result<(), SimError> {
        for (port, value) in outs.iter() {
            let Value::Bool(bit) = value else {
                return Err(SimError::NonBooleanPacket {
                    block: self.sim.name(from).to_string(),
                    port,
                });
            };
            self.transmit(from, port, bit, t);
        }
        Ok(())
    }

    /// Transmits `value` on `(from, port)` if it differs from the last
    /// transmitted value (or nothing was ever sent). Wires are instant;
    /// communication blocks add `comm_latency`.
    fn transmit(&mut self, from: usize, port: u8, value: bool, t: Time) {
        let sim = self.sim;
        let m = sim.layout.blocks[from];
        let slot = m.out_offset + port as usize;
        let state = &mut self.slots[slot];
        if state.last_sent == Some(value) {
            return;
        }
        state.last_sent = Some(value);
        let tap = state.tap;
        let sinks = sim.layout.sinks_of(slot);
        // Energy accounting: the sender spends a transmission per driven
        // wire whether or not a fault loses the packet in flight.
        self.blocks[from].tx_count += sinks.len() as u64;
        // Co-simulation taps observe the packet exactly where the port
        // drives the wire: after change detection (the eBlocks protocol),
        // before any injected local fault decides its in-flight fate —
        // link-level loss belongs to the network layer, not the node.
        if let Some(tap) = tap {
            self.captured.push(CapturedPacket {
                time: t,
                tap,
                value,
            });
        }
        // Injected sender faults: the packet counts as sent (no ack in the
        // eBlocks protocol, so change detection above stands) but may be
        // lost or late in flight.
        let Some(extra) = self.faults.send_fate(from, t) else {
            return;
        };
        let base = if m.is_comm { sim.comm_latency } else { 0 };
        let latency = crate::time::clamp_after(extra, base);
        if latency == 0 {
            for &sink in sinks {
                let seq = self.seq;
                self.seq += 1;
                self.latch(sink.to, sink.port, value, seq);
            }
        } else if let Some(arrival) = crate::time::after(t, latency) {
            for &Sink { to, port } in sinks {
                self.schedule(arrival, Event::Deliver { to, port, value });
            }
        }
        // (A delay pushing arrival past the end of time drops the packet —
        // it could never be processed anyway.)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};

    fn and_design() -> Design {
        let mut d = Design::new("and");
        let a = d.add_block("a", SensorKind::Button);
        let b = d.add_block("b", SensorKind::Motion);
        let g = d.add_block("g", ComputeKind::and2());
        let o = d.add_block("led", OutputKind::Led);
        d.connect((a, 0), (g, 0)).unwrap();
        d.connect((b, 0), (g, 1)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        d
    }

    #[test]
    fn and_gate_tracks_inputs() {
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new()
            .set(10, "a", true)
            .set(20, "b", true)
            .set(30, "a", false);
        let trace = sim.run(&stim, 100).unwrap();
        assert_eq!(trace.value_at("led", 15), Some(false), "only a high");
        assert_eq!(trace.value_at("led", 25), Some(true), "both high");
        assert_eq!(trace.final_value("led"), Some(false), "a dropped");
    }

    #[test]
    fn initial_state_propagates() {
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        let trace = sim.run(&Stimulus::new(), 50).unwrap();
        // Power-on false propagates to the LED instantly, with no stimulus.
        assert_eq!(trace.history("led"), &[(0, false)]);
    }

    #[test]
    fn change_detection_suppresses_duplicates() {
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        // Setting `a` true repeatedly must not generate extra packets.
        let stim = Stimulus::new()
            .set(10, "a", true)
            .set(12, "a", true)
            .set(14, "a", true);
        let trace = sim.run(&stim, 100).unwrap();
        // LED sees exactly one packet: the initial false. (a=1, b=0 keeps
        // the AND at false, suppressed by change detection.)
        assert_eq!(trace.history("led").len(), 1);
    }

    #[test]
    fn simultaneous_input_changes_coalesce() {
        // Both AND inputs rise in the same instant: the gate must evaluate
        // once with both new values, not glitch through (true, old-false).
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "a", true).set(10, "b", true);
        let trace = sim.run(&stim, 50).unwrap();
        assert_eq!(trace.history("led"), &[(0, false), (10, true)]);
    }

    #[test]
    fn glitch_free_reconvergence() {
        // s -> sp -> (direct, not) -> xor: the settled XOR of a signal and
        // its negation is constant true; a hazard model would emit a
        // transient. The delta-cycle model must show no glitch packets.
        let mut d = Design::new("haz");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let n = d.add_block("n", ComputeKind::Not);
        let x = d.add_block("x", ComputeKind::xor2());
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (n, 0)).unwrap();
        d.connect((sp, 1), (x, 0)).unwrap();
        d.connect((n, 0), (x, 1)).unwrap();
        d.connect((x, 0), (o, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "s", true).set(20, "s", false);
        let trace = sim.run(&stim, 60).unwrap();
        assert_eq!(
            trace.history("led"),
            &[(0, true)],
            "xor(v, !v) never changes"
        );
    }

    #[test]
    fn toggle_flips_per_press() {
        let mut d = Design::new("t");
        let b = d.add_block("btn", SensorKind::Button);
        let t = d.add_block("tog", ComputeKind::Toggle);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (t, 0)).unwrap();
        d.connect((t, 0), (o, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new()
            .pulse(10, 5, "btn")
            .pulse(30, 5, "btn")
            .pulse(50, 5, "btn");
        let trace = sim.run(&stim, 100).unwrap();
        assert_eq!(trace.value_at("led", 20), Some(true));
        assert_eq!(trace.value_at("led", 40), Some(false));
        assert_eq!(trace.final_value("led"), Some(true));
    }

    #[test]
    fn pulse_gen_expires() {
        let mut d = Design::new("p");
        let b = d.add_block("btn", SensorKind::Button);
        let p = d.add_block("pg", ComputeKind::PulseGen { ticks: 5 });
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "btn", true);
        let trace = sim.run(&stim, 100).unwrap();
        assert_eq!(trace.value_at("led", 12), Some(true), "pulse active");
        assert_eq!(trace.final_value("led"), Some(false), "pulse expired");
        // Rise at 10 (instant wire), fall 5 ticks later.
        assert_eq!(trace.history("led"), &[(0, false), (10, true), (15, false)]);
    }

    #[test]
    fn garage_open_at_night() {
        // The paper's flagship example: door open AND dark -> LED.
        let mut d = Design::new("garage");
        let door = d.add_block("door", SensorKind::ContactSwitch);
        let light = d.add_block("light", SensorKind::Light);
        let inv = d.add_block("inv", ComputeKind::Not);
        let both = d.add_block("both", ComputeKind::and2());
        let led = d.add_block("led", OutputKind::Led);
        d.connect((door, 0), (both, 0)).unwrap();
        d.connect((light, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (both, 1)).unwrap();
        d.connect((both, 0), (led, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();

        let stim = Stimulus::new()
            .set(5, "light", true)
            .set(20, "door", true)
            .set(40, "light", false)
            .set(60, "door", false);
        let trace = sim.run(&stim, 120).unwrap();
        assert_eq!(trace.value_at("led", 30), Some(false), "daytime");
        assert_eq!(trace.value_at("led", 50), Some(true), "open at night");
        assert_eq!(trace.final_value("led"), Some(false), "closed");
    }

    #[test]
    fn comm_block_relays_with_latency() {
        let mut d = Design::new("radio");
        let b = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("tx", eblocks_core::CommKind::WirelessTx);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (o, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let trace = sim.run(&Stimulus::new().set(10, "btn", true), 50).unwrap();
        assert_eq!(trace.final_value("led"), Some(true));
        let rise = trace
            .history("led")
            .iter()
            .find(|&&(_, v)| v)
            .map(|&(t, _)| t)
            .unwrap();
        // Wires are instant; the radio hop costs comm_latency.
        assert_eq!(rise, 10 + sim.comm_latency);
    }

    #[test]
    fn comm_latency_beyond_wheel_window() {
        // A latency far past the default (3 ticks) must still arrive at the
        // exact instant.
        let mut d = Design::new("slow-radio");
        let b = d.add_block("btn", SensorKind::Button);
        let tx = d.add_block("tx", eblocks_core::CommKind::WirelessTx);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (o, 0)).unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.comm_latency = 500;
        let trace = sim.run(&Stimulus::new().set(10, "btn", true), 600).unwrap();
        assert_eq!(trace.history("led"), &[(500, false), (510, true)]);
    }

    #[test]
    fn one_instant_merges_wheel_and_overflow_in_send_order() {
        // Radio packets sent at 10, 11 and 12 are delayed to land together
        // at `t`, where a pulse generator's tick falls due as well. The
        // inverter must latch the three packets in send order and settle on
        // the last one sent. At t = 19 the packets land 7 to 9 ticks after
        // they were sent (where an 8-slot timing wheel split them from its
        // overflow); at t = 140, more than 100 ticks after.
        for t in [19, 140] {
            let latency: Time = 1;
            let mut d = Design::new("split-instant");
            let btn = d.add_block("btn", SensorKind::Button);
            let tx = d.add_block("tx", eblocks_core::CommKind::WirelessTx);
            let inv = d.add_block("inv", ComputeKind::Not);
            let led = d.add_block("led", OutputKind::Led);
            let arm = d.add_block("arm", SensorKind::Button);
            let pg = d.add_block("pg", ComputeKind::PulseGen { ticks: 4 });
            let lamp = d.add_block("lamp", OutputKind::Led);
            d.connect((btn, 0), (tx, 0)).unwrap();
            d.connect((tx, 0), (inv, 0)).unwrap();
            d.connect((inv, 0), (led, 0)).unwrap();
            d.connect((arm, 0), (pg, 0)).unwrap();
            d.connect((pg, 0), (lamp, 0)).unwrap();
            let mut sim = Simulator::new(&d).unwrap();
            sim.comm_latency = latency;
            let plan: FaultPlan = (10..13)
                .map(|sent| crate::fault::Fault::DelayPackets {
                    block: "tx".into(),
                    from: sent,
                    to: sent + 1,
                    extra: t - sent - latency,
                })
                .collect();
            let stim = Stimulus::new()
                .set(10, "btn", true)
                .set(11, "btn", false)
                .set(12, "btn", true)
                .set(t - 4, "arm", true);
            let trace = sim.run_with_faults(&stim, t + 10, &plan).unwrap();
            // Power-on false reaches the inverter at 1; at `t` the inverter
            // sees true (sent at 12), not the false sent at 11.
            assert_eq!(trace.history("led"), &[(1, true), (t, false)]);
            assert_eq!(
                trace.history("lamp"),
                &[(0, false), (t - 4, true), (t, false)]
            );
        }
    }

    #[test]
    fn zero_tick_period_rejected() {
        // Regression: a zero tick period used to reschedule the tick at the
        // same instant forever, hanging `run`. It is now rejected up front.
        let mut d = Design::new("z");
        let b = d.add_block("btn", SensorKind::Button);
        let p = d.add_block("pg", ComputeKind::PulseGen { ticks: 2 });
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.tick_period = 0;
        let err = sim.run(&Stimulus::new(), 100).unwrap_err();
        assert!(matches!(err, SimError::InvalidTickPeriod));
        // Even tick-free designs reject the invalid configuration.
        let mut plain = Simulator::new(&and_design()).unwrap();
        plain.tick_period = 0;
        assert!(matches!(
            plain.run(&Stimulus::new(), 10),
            Err(SimError::InvalidTickPeriod)
        ));
    }

    #[test]
    fn tick_near_end_of_time_terminates() {
        // Regression: rescheduling a tick at t + period used to overflow
        // near Time::MAX; the checked reschedule simply stops ticking.
        let mut d = Design::new("eot");
        let b = d.add_block("btn", SensorKind::Button);
        let p = d.add_block("pg", ComputeKind::PulseGen { ticks: 1 });
        let o = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.tick_period = Time::MAX;
        let trace = sim.run(&Stimulus::new(), Time::MAX).unwrap();
        assert_eq!(trace.final_value("led"), Some(false));
    }

    #[test]
    fn unknown_sensor_rejected() {
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        let err = sim
            .run(&Stimulus::new().set(5, "ghost", true), 10)
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownSensor { .. }));
        // Driving a non-sensor block is also rejected.
        let err = sim.run(&Stimulus::new().set(5, "g", true), 10).unwrap_err();
        assert!(matches!(err, SimError::UnknownSensor { .. }));
    }

    #[test]
    fn invalid_design_rejected() {
        let mut d = Design::new("bad");
        d.add_block("g", ComputeKind::and2());
        assert!(matches!(
            Simulator::new(&d),
            Err(SimError::InvalidDesign(_))
        ));
    }

    #[test]
    fn programmable_block_needs_program() {
        let mut d = Design::new("prog");
        let s = d.add_block("s", SensorKind::Button);
        let p = d.add_block("p", eblocks_core::ProgrammableSpec::new(1, 1));
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        assert!(matches!(
            Simulator::new(&d),
            Err(SimError::MissingProgram { .. })
        ));

        let program = parse("on input { out0 = !in0; }").unwrap();
        let sim = Simulator::with_programs(&d, &HashMap::from([(p, program)])).unwrap();
        let trace = sim.run(&Stimulus::new().set(10, "s", true), 50).unwrap();
        assert_eq!(trace.final_value("led"), Some(false));
    }

    #[test]
    fn bad_program_rejected_at_build() {
        let mut d = Design::new("prog2");
        let s = d.add_block("s", SensorKind::Button);
        let p = d.add_block("p", eblocks_core::ProgrammableSpec::new(1, 1));
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s, 0), (p, 0)).unwrap();
        d.connect((p, 0), (o, 0)).unwrap();
        // References in5 on a 1-input block.
        let program = parse("on input { out0 = in5; }").unwrap();
        assert!(matches!(
            Simulator::with_programs(&d, &HashMap::from([(p, program)])),
            Err(SimError::BadProgram { .. })
        ));
    }

    /// s -> p (one input, two outputs) -> leds `a` (out0) and `b` (out1),
    /// with `p` running `src`.
    fn two_port_block(src: &str) -> Simulator {
        let mut d = Design::new("two-port");
        let s = d.add_block("s", SensorKind::Button);
        let p = d.add_block("p", eblocks_core::ProgrammableSpec::new(1, 2));
        let a = d.add_block("a", OutputKind::Led);
        let b = d.add_block("b", OutputKind::Led);
        d.connect((s, 0), (p, 0)).unwrap();
        d.connect((p, 0), (a, 0)).unwrap();
        d.connect((p, 1), (b, 0)).unwrap();
        Simulator::with_programs(&d, &HashMap::from([(p, parse(src).unwrap())])).unwrap()
    }

    #[test]
    fn non_boolean_packet_names_block_and_port() {
        // check() does not type outputs, so an integer reaches the wire.
        let sim = two_port_block("on input { out1 = in0; out0 = 5; }");
        let err = sim.run(&Stimulus::new(), 10).unwrap_err();
        assert!(
            matches!(&err, SimError::NonBooleanPacket { block, port: 0 } if block == "p"),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "block `p` drove a non-boolean value on out0"
        );
    }

    #[test]
    fn taps_capture_in_ascending_port_order() {
        // The handler writes out1 before out0, and port 1 is tapped first,
        // but a block transmits its driven ports in ascending order.
        let sim = two_port_block("on input { out1 = in0; out0 = !in0; }");
        let mut node = crate::NodeRunner::new(&sim).unwrap();
        let tap1 = node.tap_output("p", 1).unwrap();
        let tap0 = node.tap_output("p", 0).unwrap();
        assert_eq!(node.next_event_time(), Some(0));
        node.step_at(0, 10).unwrap();
        let mut captured = Vec::new();
        node.drain_captured(&mut captured);
        let packet = |tap, value| CapturedPacket {
            time: 0,
            tap,
            value,
        };
        assert_eq!(captured, [packet(tap0, true), packet(tap1, false)]);
    }

    #[test]
    fn runs_are_repeatable() {
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new()
            .set(10, "a", true)
            .set(11, "b", true)
            .set(12, "a", false);
        let t1 = sim.run(&stim, 200).unwrap();
        let t2 = sim.run(&stim, 200).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn runner_reset_reuses_the_arena() {
        // One runner, three trials with different fault plans: the cached
        // stimulus is loaded once and re-woven by each reset, and results
        // must match three fresh runs exactly. A t=0 stimulus event checks
        // the weave keeps power-on announcements ahead of scripted values.
        let d = and_design();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new()
            .set(0, "b", true)
            .set(10, "a", true)
            .set(20, "b", true);
        let plans = [
            FaultPlan::new(),
            FaultPlan::new().with(crate::fault::Fault::StuckAt {
                block: "a".into(),
                value: true,
            }),
            FaultPlan::new(),
        ];
        let mut runner = Runner::new(&sim, &FaultPlan::new()).unwrap();
        runner.load_stimulus(&stim).unwrap();
        for plan in &plans {
            runner.reset(plan);
            runner.run(80).unwrap();
            let fresh = sim.run_with_faults(&stim, 80, plan).unwrap();
            assert_eq!(runner.trace(), &fresh);
        }
    }
}
