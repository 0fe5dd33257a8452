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
//! The pending-event set is a two-level calendar rather than a global
//! binary heap (calendar queues amortize O(1) for exactly this regime of
//! many same-instant, short-horizon events):
//!
//! * **Level 1 — time.** Sensor events are fully known before the run
//!   starts and live in one sorted schedule walked by a cursor. Future
//!   block events (ticks, latent packets) go into a 64-slot timing wheel
//!   of 1-tick buckets; events beyond the wheel's horizon overflow into a
//!   `BTreeMap` keyed by instant. The next instant is the minimum of the
//!   sense cursor, a bounded wheel scan, and the overflow's first key.
//! * **Level 2 — one instant.** Opening an instant drains its bucket in
//!   send (`seq`) order, latching packet values straight into each
//!   receiver's dense input array and marking the receiver's rank pending.
//!   The instant is then settled by sweeping pending ranks in ascending
//!   order (a min-heap of ranks); zero-latency transmissions latch and
//!   mark strictly higher ranks, so the sweep visits every block at most
//!   once per instant and same-instant coalescing is a natural consequence
//!   of the latch-then-sweep split — not repeated heap peek/pop.
//!
//! All per-block state (machines, latched inputs, last-sent values,
//! transmission counters) is stored in flat `Vec`s indexed by a compact
//! block index computed once from topological order.
//!
//! # Parked ticks
//!
//! A whole run ([`Simulator::run`], [`Simulator::run_with_faults`], and the
//! reliability and energy harnesses built on them) skips ticks whose result
//! is already known. When a tick leaves its block's machine settled
//! ([`Machine::tick_settled`]: the state did not change), the block is
//! *parked*: no next tick is scheduled. When an input next reaches it at
//! instant `t`, its next tick is scheduled at the first multiple of
//! `tick_period` after `t` (if that is representable and within the run).
//! Neither step changes a trace:
//!
//! * a settled tick reads no inputs and repeats the outputs the block
//!   already sent, so change detection would transmit nothing;
//! * a tick at `t` runs before a delivery at `t`, so the first grid instant
//!   after `t` is the tick an unparked block would run next;
//! * a parked tick takes no `seq`, so later seqs shift down but keep their
//!   order, and no trace or captured packet carries a seq.
//!
//! The stepped co-simulation path ([`crate::NodeRunner`]) never parks; see
//! [`crate::cosim`] for why.
//!
//! # Behavior programs
//!
//! A compute block's program comes from the process-wide library table
//! ([`library::code_for`]): each kind is parsed, checked and compiled once
//! per process, and every simulator borrows that one compilation. The comm
//! relay program is compiled once per process too.
//! [`Simulator::with_programs`] checks and compiles only the programmable
//! blocks' programs: names resolve to port indices and dense slots (see
//! [`eblocks_behavior::Compiled`]). Each run's engine then gives every
//! block a [`Machine`] that borrows its compilation and owns only its
//! slots, and a handler call hands back a port-indexed view of the
//! machine's output buffer. Together with the flat tables above, the hot
//! path does no hashing and no per-event allocation; only an event beyond
//! the timing wheel's horizon may allocate its overflow bucket.

use crate::cosim::CapturedPacket;
use crate::error::SimError;
use crate::fault::{FaultPlan, ResolvedFaults};
use crate::stimulus::Stimulus;
use crate::trace::Trace;
use eblocks_behavior::library::{self, LibraryCode};
use eblocks_behavior::{check, parse, Compiled, Machine, Outputs, Program, Value};
use eblocks_core::{BlockId, BlockKind, Design};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, LazyLock};

/// Simulation time, in abstract ticks. One tick is the period of `on tick`
/// events; eBlocks operate on human-scale timing, so finer resolution adds
/// nothing (§3.1).
pub type Time = u64;

/// A configured simulator for one design.
///
/// Construction checks every block's behavior program ([`library`] for
/// pre-defined blocks, caller-supplied programs for programmable blocks)
/// against the block's arity and compiles it. Each [`Simulator::run`]
/// starts from power-on state.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: Design,
    /// Compiled behavior by raw block index; `None` for sensors and
    /// outputs, which run no program.
    code: Vec<Option<Code>>,
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
            design: design.clone(),
            code,
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

    /// The compiled behavior of block `id`, if it runs a program.
    fn code(&self, id: BlockId) -> Option<&Compiled> {
        self.code.get(id.index())?.as_ref().map(Code::compiled)
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
/// Computed once per [`Runner`]; every per-block table in the engine is a
/// flat `Vec` indexed by it, and the stage-1 sweep order *is* the index
/// order.
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

/// Number of 1-tick buckets in the timing wheel. Power of two; comfortably
/// covers the default comm latency (3) and tick period (1), so overflow is
/// only touched by long delay faults or coarse tick periods.
const WHEEL_SLOTS: usize = 64;

/// A future event scheduled on the calendar (stage-1 only: sensor changes
/// live in the pre-sorted sense schedule instead).
#[derive(Debug, Clone, Copy)]
enum Queued {
    /// A periodic tick for a time-driven block.
    Tick { seq: u64, block: usize },
    /// A packet arriving at an input port.
    Deliver {
        seq: u64,
        to: usize,
        port: u8,
        value: bool,
    },
}

impl Queued {
    fn seq(self) -> u64 {
        match self {
            Queued::Tick { seq, .. } | Queued::Deliver { seq, .. } => seq,
        }
    }
}

/// Level 1 of the queue: a timing wheel of 1-tick buckets plus a sorted
/// overflow for events beyond the wheel's horizon.
///
/// Invariant: every wheel entry's instant `t` satisfies `cur < t < cur + W`
/// (events are only inserted with `t - cur < W`, and `cur` never decreases),
/// so a slot can never hold two different instants at once and draining a
/// slot needs no epoch check.
#[derive(Debug)]
struct Calendar {
    wheel: Vec<Vec<Queued>>,
    wheel_count: usize,
    overflow: BTreeMap<Time, Vec<Queued>>,
    cur: Time,
}

impl Calendar {
    fn new() -> Self {
        Self {
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            wheel_count: 0,
            overflow: BTreeMap::new(),
            cur: 0,
        }
    }

    fn reset(&mut self) {
        for slot in &mut self.wheel {
            slot.clear();
        }
        self.wheel_count = 0;
        self.overflow.clear();
        self.cur = 0;
    }

    fn schedule(&mut self, t: Time, ev: Queued) {
        debug_assert!(t > self.cur, "calendar events are strictly future");
        if t - self.cur < WHEEL_SLOTS as Time {
            self.wheel[(t as usize) & (WHEEL_SLOTS - 1)].push(ev);
            self.wheel_count += 1;
        } else {
            self.overflow.entry(t).or_default().push(ev);
        }
    }

    /// The earliest scheduled instant, if any.
    fn next_time(&self) -> Option<Time> {
        let mut best: Option<Time> = None;
        if self.wheel_count > 0 {
            for off in 1..WHEEL_SLOTS as Time {
                let Some(t) = self.cur.checked_add(off) else {
                    break;
                };
                if !self.wheel[(t as usize) & (WHEEL_SLOTS - 1)].is_empty() {
                    best = Some(t);
                    break;
                }
            }
        }
        match (best, self.overflow.keys().next().copied()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the clock to `t` and drains every event scheduled there
    /// (wheel slot and overflow bucket) into `out`.
    fn advance(&mut self, t: Time, out: &mut Vec<Queued>) {
        debug_assert!(t >= self.cur);
        self.cur = t;
        let slot = &mut self.wheel[(t as usize) & (WHEEL_SLOTS - 1)];
        self.wheel_count -= slot.len();
        out.append(slot);
        if let Some(late) = self.overflow.remove(&t) {
            out.extend(late);
        }
    }
}

/// A sensor change, fully known before the run starts (power-on
/// announcements plus the stimulus script).
#[derive(Debug, Clone, Copy)]
struct SenseEv {
    t: Time,
    /// Raw block index — the stage-0 tie-break (before `seq`).
    raw: usize,
    seq: u64,
    dense: usize,
    value: bool,
}

/// Static per-block layout, computed once per runner.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// Start of this block's latched inputs in the flat `inputs` array.
    in_offset: usize,
    /// Number of input ports.
    in_len: usize,
    /// Start of this block's output slots in `last_sent` / `sinks`.
    out_offset: usize,
    /// Whether this is a primary-output block (records packets, never
    /// evaluates).
    is_output: bool,
    /// Base transmission latency (`comm_latency` for communication blocks).
    latency: Time,
}

/// One wire endpoint, pre-resolved to dense indices.
#[derive(Debug, Clone, Copy)]
struct Sink {
    to: usize,
    port: u8,
}

/// The reusable simulation engine for one [`Simulator`].
///
/// Construction builds every static table (index, port layout, sink lists)
/// and one machine per programmed block over the simulator's compiled
/// programs; [`reset`](Runner::reset) rewinds to power-on state
/// without reallocating, so Monte-Carlo harnesses can run many trials on
/// one arena. Contract per trial: `reset` → `load_stimulus` → `run` once →
/// read [`trace`](Runner::trace).
pub(crate) struct Runner<'a> {
    sim: &'a Simulator,
    index: BlockIndex,
    names: Vec<&'a str>,
    meta: Vec<BlockMeta>,
    /// Sink lists, indexed by output slot (`meta.out_offset + port`).
    sinks: Vec<Vec<Sink>>,
    machines: Vec<Option<Machine<'a>>>,
    /// Dense indices of tick-driven blocks, in block-id order.
    tick_blocks: Vec<usize>,
    /// `(dense, raw)` of every sensor, in raw-id order (power-on order).
    sensors: Vec<(usize, usize)>,
    output_names: Vec<String>,
    total_inputs: usize,
    /// The resolved stimulus script, sorted by `(t, raw, insertion order)`
    /// with `seq` holding the insertion order. Cached so `reset` can
    /// re-weave it into the schedule without re-resolving names or
    /// re-sorting (Monte-Carlo sweeps run the same script every trial).
    stim_cache: Vec<SenseEv>,
    /// First seq available to stimulus entries (power-on announcements and
    /// initial ticks come first); fixed by `reset`.
    stim_seq_base: u64,
    // --- per-run state, rewound by `reset` ---
    faults: ResolvedFaults,
    inputs: Vec<Value>,
    last_sent: Vec<Option<bool>>,
    sensor_values: Vec<bool>,
    tx_counts: Vec<u64>,
    sense_schedule: Vec<SenseEv>,
    sense_cursor: usize,
    calendar: Calendar,
    /// Scratch for draining one instant's calendar bucket.
    drain: Vec<Queued>,
    /// Ranks with pending work in the instant being settled.
    pending: BinaryHeap<Reverse<usize>>,
    in_sweep: Vec<bool>,
    tick_now: Vec<bool>,
    eval_now: Vec<bool>,
    /// Per block: its last tick settled and no next tick is scheduled
    /// (whole runs only; see the module docs on parked ticks).
    parked: Vec<bool>,
    /// Per output block: packets received this instant, `(port, seq, value)`.
    out_now: Vec<Vec<(u8, u64, bool)>>,
    seq: u64,
    trace: Trace,
    // --- co-simulation bridging (see `crate::cosim`) ---
    /// Per output slot: the tap observing that slot's transmissions, if
    /// any. Static wiring like `stim_cache` — registrations survive
    /// [`reset`](Runner::reset).
    taps: Vec<Option<u32>>,
    next_tap: u32,
    /// Transmissions captured at tapped slots since the last drain, in
    /// emission order.
    captured: Vec<CapturedPacket>,
    /// Network-injected sensor events, applied at their instant *after*
    /// any scripted stimulus of the same instant, in insertion order.
    injected: VecDeque<(Time, usize, bool)>,
}

impl<'a> Runner<'a> {
    /// Builds the engine's static tables and resets to power-on state with
    /// `plan`'s faults applied.
    pub(crate) fn new(sim: &'a Simulator, plan: &FaultPlan) -> Result<Self, SimError> {
        if sim.tick_period == 0 {
            return Err(SimError::InvalidTickPeriod);
        }
        let design = &sim.design;
        let index = BlockIndex::new(design);
        let n = index.num_blocks();

        let mut names = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        let mut machines = Vec::with_capacity(n);
        let mut sinks: Vec<Vec<Sink>> = Vec::new();
        let mut total_inputs = 0usize;
        for &id in &index.ids {
            let block = design.block(id).expect("indexed block");
            meta.push(BlockMeta {
                in_offset: total_inputs,
                in_len: block.num_inputs() as usize,
                out_offset: sinks.len(),
                is_output: matches!(block.kind(), BlockKind::Output(_)),
                latency: match block.kind() {
                    BlockKind::Comm(_) => sim.comm_latency,
                    _ => 0,
                },
            });
            total_inputs += block.num_inputs() as usize;
            for port in 0..block.num_outputs() {
                sinks.push(
                    design
                        .sinks_of(id, port)
                        .map(|w| Sink {
                            to: index.dense_of(w.to).expect("sink block is in the design"),
                            port: w.to_port,
                        })
                        .collect(),
                );
            }
            names.push(block.name());
            machines.push(sim.code(id).map(Machine::new));
        }

        let mut tick_ids: Vec<BlockId> = design
            .blocks()
            .filter(|&id| sim.code(id).is_some_and(Compiled::uses_tick))
            .collect();
        tick_ids.sort();
        let tick_blocks = tick_ids
            .into_iter()
            .map(|id| index.dense_of(id).expect("tick block is in the design"))
            .collect();

        let sensors = design
            .sensors()
            .map(|id| {
                (
                    index.dense_of(id).expect("sensor is in the design"),
                    id.index(),
                )
            })
            .collect();
        let output_names = design
            .outputs()
            .map(|o| design.block(o).expect("output block").name().to_string())
            .collect();

        let num_slots = sinks.len();
        let mut runner = Self {
            sim,
            index,
            names,
            meta,
            sinks,
            machines,
            tick_blocks,
            sensors,
            output_names,
            total_inputs,
            stim_cache: Vec::new(),
            stim_seq_base: 0,
            faults: ResolvedFaults::default(),
            inputs: Vec::with_capacity(total_inputs),
            last_sent: Vec::with_capacity(num_slots),
            sensor_values: Vec::with_capacity(n),
            tx_counts: Vec::with_capacity(n),
            sense_schedule: Vec::new(),
            sense_cursor: 0,
            calendar: Calendar::new(),
            drain: Vec::new(),
            pending: BinaryHeap::new(),
            in_sweep: Vec::with_capacity(n),
            tick_now: Vec::with_capacity(n),
            eval_now: Vec::with_capacity(n),
            parked: Vec::with_capacity(n),
            out_now: vec![Vec::new(); n],
            seq: 0,
            trace: Trace::default(),
            taps: vec![None; num_slots],
            next_tap: 0,
            captured: Vec::new(),
            injected: VecDeque::new(),
        };
        runner.reset(plan);
        Ok(runner)
    }

    /// Rewinds to power-on state with `plan`'s faults applied, keeping
    /// every allocation (tables, machine arenas, queue buckets) and the
    /// loaded stimulus — a previously [`load_stimulus`](Runner::load_stimulus)ed
    /// script is re-applied without re-resolving it.
    pub(crate) fn reset(&mut self, plan: &FaultPlan) {
        let n = self.index.num_blocks();
        self.faults = plan.resolve(&self.sim.design, &self.index);
        self.inputs.clear();
        self.inputs.resize(self.total_inputs, Value::Bool(false));
        self.last_sent.clear();
        self.last_sent.resize(self.sinks.len(), None);
        self.sensor_values.clear();
        self.sensor_values.resize(n, false);
        self.tx_counts.clear();
        self.tx_counts.resize(n, 0);
        for machine in self.machines.iter_mut().flatten() {
            machine.reset();
        }
        self.sense_schedule.clear();
        self.sense_cursor = 0;
        self.calendar.reset();
        self.drain.clear();
        self.pending.clear();
        self.in_sweep.clear();
        self.in_sweep.resize(n, false);
        self.tick_now.clear();
        self.tick_now.resize(n, false);
        self.eval_now.clear();
        self.eval_now.resize(n, false);
        self.parked.clear();
        self.parked.resize(n, false);
        for slot in &mut self.out_now {
            slot.clear();
        }
        self.seq = 0;
        self.trace = Trace::with_outputs(self.output_names.iter().cloned());
        self.captured.clear();
        self.injected.clear();

        // Power-on announcements take seqs 0..sensors (they are generated
        // inside `weave_stimulus`); the first tick of each time-driven
        // block comes next, in id order (determinism).
        self.seq = self.sensors.len() as u64;
        for &block in &self.tick_blocks {
            let seq = self.seq;
            self.seq += 1;
            self.calendar
                .schedule(self.sim.tick_period, Queued::Tick { seq, block });
        }
        self.stim_seq_base = self.seq;
        self.weave_stimulus();
    }

    /// Resolves, sorts, and schedules the stimulus script, replacing any
    /// previously loaded one. Resolution and the sort happen once, here;
    /// later [`reset`](Runner::reset)s reuse the cached result.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSensor`] for entries that name no primary input.
    pub(crate) fn load_stimulus(&mut self, stimulus: &Stimulus) -> Result<(), SimError> {
        let design = &self.sim.design;
        self.stim_cache.clear();
        for (ord, (t, name, value)) in stimulus.events().iter().enumerate() {
            let id = design
                .block_by_name(name)
                .filter(|&b| {
                    design
                        .block(b)
                        .is_some_and(|blk| blk.kind().is_primary_input())
                })
                .ok_or_else(|| SimError::UnknownSensor { name: name.clone() })?;
            self.stim_cache.push(SenseEv {
                t: *t,
                raw: id.index(),
                seq: ord as u64,
                dense: self.index.dense_of(id).expect("resolved block"),
                value: *value,
            });
        }
        self.stim_cache
            .sort_unstable_by_key(|e| (e.t, e.raw, e.seq));
        self.weave_stimulus();
        Ok(())
    }

    /// Rebuilds the sense schedule: the power-on announcements (every
    /// sensor goes low at t=0, in raw-id order, seqs 0..sensors) merged
    /// with the cached stimulus (seqs `stim_seq_base` + insertion order).
    /// This reproduces the old per-event heap keys exactly — the schedule
    /// is ordered by `(t, raw, seq)`, and a power-on entry wins a
    /// `(t, raw)` tie against a scripted t=0 value by its lower seq.
    fn weave_stimulus(&mut self) {
        self.sense_cursor = 0;
        self.seq = self.stim_seq_base + self.stim_cache.len() as u64;
        self.sense_schedule.clear();
        let power_on = |k: usize, &(dense, raw): &(usize, usize)| SenseEv {
            t: 0,
            raw,
            seq: k as u64,
            dense,
            value: false,
        };
        let (mut i, mut j) = (0, 0);
        while i < self.sensors.len() && j < self.stim_cache.len() {
            let p = power_on(i, &self.sensors[i]);
            let s = self.stim_cache[j];
            if (p.t, p.raw) <= (s.t, s.raw) {
                self.sense_schedule.push(p);
                i += 1;
            } else {
                self.sense_schedule.push(SenseEv {
                    seq: self.stim_seq_base + s.seq,
                    ..s
                });
                j += 1;
            }
        }
        while i < self.sensors.len() {
            self.sense_schedule.push(power_on(i, &self.sensors[i]));
            i += 1;
        }
        for s in &self.stim_cache[j..] {
            self.sense_schedule.push(SenseEv {
                seq: self.stim_seq_base + s.seq,
                ..*s
            });
        }
    }

    /// Runs until `until` (inclusive), parking settled ticks, and folds
    /// the transmission counters into the trace.
    pub(crate) fn run(&mut self, until: Time) -> Result<(), SimError> {
        while let Some(t) = self.next_event_time() {
            if t > until {
                break;
            }
            self.process_instant::<true>(t, until)?;
        }
        self.finalize_counts();
        Ok(())
    }

    /// The earliest instant with pending work — a scripted sense event, a
    /// calendar event, or a network-injected sense event.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        let sense = self.sense_schedule.get(self.sense_cursor).map(|e| e.t);
        let injected = self.injected.front().map(|&(t, _, _)| t);
        [sense, self.calendar.next_time(), injected]
            .into_iter()
            .flatten()
            .min()
    }

    /// Folds the transmission counters into the trace. Once per run:
    /// [`run`](Runner::run) does it itself; co-simulation drivers call it
    /// when the fleet clock stops.
    pub(crate) fn finalize_counts(&mut self) {
        for (name, &count) in self.names.iter().zip(&self.tx_counts) {
            if count > 0 {
                self.trace.count_transmissions(name, count);
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

    /// The dense index of `id`, if the block is in the design.
    pub(crate) fn dense_of_id(&self, id: BlockId) -> Option<usize> {
        self.index.dense_of(id)
    }

    /// Registers a tap on output slot `(dense, port)`. Idempotent: tapping
    /// the same slot twice returns the same id.
    pub(crate) fn register_tap(&mut self, dense: usize, port: u8) -> u32 {
        let slot = self.meta[dense].out_offset + port as usize;
        if let Some(id) = self.taps[slot] {
            return id;
        }
        let id = self.next_tap;
        self.next_tap += 1;
        self.taps[slot] = Some(id);
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

    /// Settles exactly the instant `t` (a co-simulation step). `horizon`
    /// bounds tick rescheduling the same way `run`'s `until` does. Steps
    /// never park a tick.
    pub(crate) fn step_at(&mut self, t: Time, horizon: Time) -> Result<(), SimError> {
        self.process_instant::<false>(t, horizon)
    }

    /// Moves tap captures accumulated since the last drain into `out`, in
    /// emission order.
    pub(crate) fn drain_captured(&mut self, out: &mut Vec<CapturedPacket>) {
        out.append(&mut self.captured);
    }

    /// Settles one instant: open its calendar bucket, apply its sensor
    /// changes, then sweep pending ranks in topological order. `PARK`
    /// parks settled ticks (whole runs only).
    fn process_instant<const PARK: bool>(&mut self, t: Time, until: Time) -> Result<(), SimError> {
        // Open the instant's bucket. Arrivals are applied in send (`seq`)
        // order so that a packet sent earlier on the same wire latches
        // first — every packet generated *during* this instant necessarily
        // carries a higher seq, so latching arrivals up front preserves
        // the global FIFO contract.
        let mut drain = std::mem::take(&mut self.drain);
        self.calendar.advance(t, &mut drain);
        drain.sort_unstable_by_key(|ev| ev.seq());
        for &ev in &drain {
            match ev {
                Queued::Tick { block, .. } => {
                    self.tick_now[block] = true;
                    self.mark_pending(block);
                }
                Queued::Deliver {
                    seq,
                    to,
                    port,
                    value,
                } => self.latch(to, port, value, seq),
            }
        }
        drain.clear();
        self.drain = drain;

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
        let swept = self.sweep::<PARK>(&mut machines, t, until);
        self.machines = machines;
        swept
    }

    /// Stage 1 of an instant: sweep pending ranks in ascending order.
    /// Zero-latency transmissions only ever mark strictly higher ranks
    /// (wires point downstream in the DAG), so each block settles at most
    /// once. With `PARK`, a settled tick parks its block and an input
    /// resumes it (see the module docs on parked ticks).
    fn sweep<const PARK: bool>(
        &mut self,
        machines: &mut [Option<Machine<'a>>],
        t: Time,
        until: Time,
    ) -> Result<(), SimError> {
        while let Some(Reverse(block)) = self.pending.pop() {
            self.in_sweep[block] = false;
            if self.tick_now[block] {
                self.tick_now[block] = false;
                let machine = machines[block]
                    .as_mut()
                    .expect("ticked blocks have machines");
                let outs = machine
                    .on_tick()
                    .map_err(|error| self.eval_error(block, error))?;
                self.emit(block, outs, t)?;
                if PARK && machine.tick_settled() {
                    self.parked[block] = true;
                } else {
                    // A period that would overflow Time never fires again
                    // (instead of panicking near Time::MAX).
                    self.schedule_tick(block, crate::time::after(t, self.sim.tick_period), until);
                }
            }
            if self.meta[block].is_output {
                let mut records = std::mem::take(&mut self.out_now[block]);
                records.sort_unstable_by_key(|&(port, seq, _)| (port, seq));
                for &(_, _, value) in &records {
                    self.trace.record(self.names[block], t, value);
                }
                records.clear();
                self.out_now[block] = records;
            } else if self.eval_now[block] {
                self.eval_now[block] = false;
                let m = self.meta[block];
                let outs = machines[block]
                    .as_mut()
                    .expect("non-output blocks have machines")
                    .on_input(&self.inputs[m.in_offset..m.in_offset + m.in_len])
                    .map_err(|error| self.eval_error(block, error))?;
                self.emit(block, outs, t)?;
                if PARK && self.parked[block] {
                    // Resume on the grid: the first multiple of the period
                    // after `t`, the tick an unparked block would run next.
                    self.parked[block] = false;
                    let period = self.sim.tick_period;
                    self.schedule_tick(block, crate::time::after(t - t % period, period), until);
                }
            }
        }
        Ok(())
    }

    /// Schedules `block`'s next tick at `next`, unless it is unrepresentable
    /// (`None`) or past `until`.
    fn schedule_tick(&mut self, block: usize, next: Option<Time>, until: Time) {
        if let Some(next) = next.filter(|&next| next <= until) {
            let seq = self.seq;
            self.seq += 1;
            self.calendar.schedule(next, Queued::Tick { seq, block });
        }
    }

    /// Applies one sensor change (scripted or injected): a stuck fault
    /// overrides the environment, and the change-or-first-announcement
    /// rule decides whether a packet goes out.
    fn apply_sense(&mut self, dense: usize, value: bool, t: Time) {
        // A stuck sensor reports its stuck value regardless of what the
        // environment does.
        let value = self.faults.stuck_value(dense).unwrap_or(value);
        let announced = self.last_sent[self.meta[dense].out_offset].is_some();
        if self.sensor_values[dense] != value || !announced {
            self.sensor_values[dense] = value;
            self.transmit(dense, 0, value, t);
        }
    }

    /// Applies one arriving packet: latch the value (or queue it for
    /// recording, for output blocks) and mark the receiver pending.
    fn latch(&mut self, to: usize, port: u8, value: bool, seq: u64) {
        let m = self.meta[to];
        if m.is_output {
            self.out_now[to].push((port, seq, value));
        } else {
            self.inputs[m.in_offset + port as usize] = Value::Bool(value);
            self.eval_now[to] = true;
        }
        self.mark_pending(to);
    }

    fn mark_pending(&mut self, block: usize) {
        if !self.in_sweep[block] {
            self.in_sweep[block] = true;
            self.pending.push(Reverse(block));
        }
    }

    fn eval_error(&self, block: usize, error: eblocks_behavior::EvalError) -> SimError {
        SimError::Eval {
            block: self.names[block].to_string(),
            error,
        }
    }

    /// Sends the handler's driven outputs in ascending port order,
    /// applying change detection.
    fn emit(&mut self, from: usize, outs: Outputs<'_>, t: Time) -> Result<(), SimError> {
        for (port, value) in outs.iter() {
            let Value::Bool(bit) = value else {
                return Err(SimError::NonBooleanPacket {
                    block: self.names[from].to_string(),
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
        let m = self.meta[from];
        let slot = m.out_offset + port as usize;
        if self.last_sent[slot] == Some(value) {
            return;
        }
        self.last_sent[slot] = Some(value);
        // Energy accounting: the sender spends a transmission per driven
        // wire whether or not a fault loses the packet in flight.
        self.tx_counts[from] += self.sinks[slot].len() as u64;
        // Co-simulation taps observe the packet exactly where the port
        // drives the wire: after change detection (the eBlocks protocol),
        // before any injected local fault decides its in-flight fate —
        // link-level loss belongs to the network layer, not the node.
        if let Some(tap) = self.taps[slot] {
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
        let latency = crate::time::clamp_after(extra, m.latency);
        let sinks = std::mem::take(&mut self.sinks);
        if latency == 0 {
            for &sink in &sinks[slot] {
                let seq = self.seq;
                self.seq += 1;
                self.latch(sink.to, sink.port, value, seq);
            }
        } else if let Some(arrival) = crate::time::after(t, latency) {
            for &sink in &sinks[slot] {
                let seq = self.seq;
                self.seq += 1;
                self.calendar.schedule(
                    arrival,
                    Queued::Deliver {
                        seq,
                        to: sink.to,
                        port: sink.port,
                        value,
                    },
                );
            }
        }
        // (A delay pushing arrival past the end of time drops the packet —
        // it could never be processed anyway.)
        self.sinks = sinks;
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
        // A latency past the timing wheel's horizon exercises the overflow
        // calendar: arrival time must still be exact.
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
