//! Compact node-set machinery for the partitioning algorithms.
//!
//! Candidate partitions are sets of inner blocks, and the partitioners
//! build, compare and hash many of them (the exact search memoizes on the
//! set of blocks left), so we map inner blocks to a dense range `0..n`
//! ([`InnerIndex`]) and represent sets as word-packed bit vectors
//! ([`BitSet`]).
//!
//! [`InnerIndex::new`] is also where the design's wiring is read, once per
//! index, into dense tables: every *signal* (a driving `(block, output
//! port)` that touches an inner block) gets a dense id with its driver and
//! its sinks, and every inner block lists the signals it reads and drives.
//! The partitioners' hot paths — [`crate::CutState`], the exhaustive
//! search's pin counts — read only these tables and positions, so they do
//! no hashing.

use crate::design::{BlockId, Design};
use std::fmt;
use std::ops::Range;

/// A fixed-capacity set of small integers, packed into 64-bit words.
///
/// ```
/// use eblocks_core::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(99);
/// assert!(s.contains(3) && s.contains(99) && !s.contains(4));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for v in 0..capacity {
            s.insert(v);
        }
        s
    }

    /// The exclusive upper bound on storable values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a value. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(value < self.capacity, "bitset value {value} out of range");
        let (w, b) = (value / 64, value % 64);
        let was = (self.words[w] >> b) & 1 == 1;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes a value. Returns `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / 64, value % 64);
        let was = (self.words[w] >> b) & 1 == 1;
        self.words[w] &= !(1 << b);
        was
    }

    /// Whether the value is present.
    pub fn contains(&self, value: usize) -> bool {
        value < self.capacity && (self.words[value / 64] >> (value % 64)) & 1 == 1
    }

    /// Number of values present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over present values in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: removes every value present in `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share no values.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the largest element (capacity = max + 1, or 0).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |m| m + 1);
        let mut s = Self::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Iterator over values of a [`BitSet`], produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

/// Marks a signal end (or a block) that is not an inner block.
const OUTER: u32 = u32::MAX;

/// Dense numbering of a design's inner blocks, shared by all partitioning
/// algorithms so that candidate partitions can be [`BitSet`]s, plus the
/// design's wiring over that numbering.
///
/// The numbering is the design's inner-block iteration order and is stable
/// for an unmodified design.
///
/// A *signal* is a driving `(block, output port)`; it enters a partition
/// once however many members it feeds, and leaves once however many
/// outside blocks it feeds (§4). Every output port of an inner block is a
/// signal, and so is every port of another block (sensor, programmable or
/// comm) that drives an inner block. Signal ids are dense: the inner
/// blocks' ports first, in position order, then the other drivers' ports in
/// order of first use. Ends that are not inner blocks read as `None`.
#[derive(Debug, Clone)]
pub struct InnerIndex {
    ids: Vec<BlockId>,
    /// Dense position by [`BlockId::index`], or [`OUTER`].
    positions: Vec<u32>,
    /// Inner block `p` reads the distinct signals
    /// `inputs[input_start[p]..input_start[p + 1]]`, each as `(signal,
    /// wires)`: one signal may drive several of the block's input ports.
    input_start: Vec<u32>,
    inputs: Vec<(u32, u32)>,
    /// Inner block `p` drives signals `driven_start[p]..driven_start[p + 1]`,
    /// one per output port.
    driven_start: Vec<u32>,
    /// Each signal's driver position, or [`OUTER`].
    drivers: Vec<u32>,
    /// Signal `s` feeds `sinks[sink_start[s]..sink_start[s + 1]]`, one entry
    /// per wire: the sink's position, or [`OUTER`].
    sink_start: Vec<u32>,
    sinks: Vec<u32>,
}

impl InnerIndex {
    /// Builds the index and its wiring tables for a design, in `O(V + E)`.
    pub fn new(design: &Design) -> Self {
        let ids: Vec<BlockId> = design.inner_blocks().collect();
        let bound = design.blocks().map(|b| b.index() + 1).max().unwrap_or(0);
        let ports = |b: BlockId| design.block(b).map_or(0, |k| u32::from(k.num_outputs()));

        let mut positions = vec![OUTER; bound];
        // The signal id of each driver's port 0, or OUTER while unassigned.
        let mut first_signal = vec![OUTER; bound];
        let mut drivers = Vec::new();
        let mut driven_start = Vec::with_capacity(ids.len() + 1);
        for (p, &b) in ids.iter().enumerate() {
            positions[b.index()] = p as u32;
            first_signal[b.index()] = drivers.len() as u32;
            driven_start.push(drivers.len() as u32);
            drivers.extend((0..ports(b)).map(|_| p as u32));
        }
        driven_start.push(drivers.len() as u32);

        // Other drivers get their signal ids as inner blocks first read them.
        let mut outer_drivers = Vec::new();
        let mut input_start = Vec::with_capacity(ids.len() + 1);
        let mut inputs: Vec<(u32, u32)> = Vec::new();
        for &b in &ids {
            let start = inputs.len();
            input_start.push(start as u32);
            for w in design.in_wires(b) {
                let d = w.from.index();
                if first_signal[d] == OUTER {
                    first_signal[d] = drivers.len() as u32;
                    drivers.extend((0..ports(w.from)).map(|_| OUTER));
                    outer_drivers.push(w.from);
                }
                let signal = first_signal[d] + u32::from(w.from_port);
                match inputs[start..].iter_mut().find(|(s, _)| *s == signal) {
                    Some((_, wires)) => *wires += 1,
                    None => inputs.push((signal, 1)),
                }
            }
        }
        input_start.push(inputs.len() as u32);

        // Drivers in signal-id order, so each port's sinks append in turn.
        let mut sink_start = Vec::with_capacity(drivers.len() + 1);
        let mut sinks = Vec::new();
        for &d in ids.iter().chain(&outer_drivers) {
            for port in 0..ports(d) {
                sink_start.push(sinks.len() as u32);
                let wires = design.sinks_of(d, port as u8);
                sinks.extend(wires.map(|w| positions[w.to.index()]));
            }
        }
        sink_start.push(sinks.len() as u32);

        Self {
            ids,
            positions,
            input_start,
            inputs,
            driven_start,
            drivers,
            sink_start,
            sinks,
        }
    }

    /// Number of inner blocks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the design has no inner blocks.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The block at dense position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn block(&self, i: usize) -> BlockId {
        self.ids[i]
    }

    /// The dense position of `block`, or `None` if it is not an inner block
    /// of the indexed design.
    pub fn position(&self, block: BlockId) -> Option<usize> {
        self.positions.get(block.index()).and_then(|&p| inner(p))
    }

    /// All indexed blocks in dense order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.ids
    }

    /// Materializes a set of dense positions into block ids.
    pub fn resolve(&self, set: &BitSet) -> Vec<BlockId> {
        set.iter().map(|i| self.block(i)).collect()
    }

    /// An empty [`BitSet`] sized for this index.
    pub fn empty_set(&self) -> BitSet {
        BitSet::new(self.len())
    }

    /// A [`BitSet`] containing every inner block.
    pub fn full_set(&self) -> BitSet {
        BitSet::full(self.len())
    }

    /// Number of signals (dense signal ids are `0..num_signals()`).
    pub fn num_signals(&self) -> usize {
        self.drivers.len()
    }

    /// The distinct signals inner block `pos` reads, each with the number
    /// of its input wires that signal drives.
    pub fn input_signals(&self, pos: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let range = self.input_start[pos] as usize..self.input_start[pos + 1] as usize;
        self.inputs[range]
            .iter()
            .map(|&(signal, wires)| (signal as usize, wires))
    }

    /// The signals inner block `pos` drives, one per output port.
    pub fn driven_signals(&self, pos: usize) -> Range<usize> {
        self.driven_start[pos] as usize..self.driven_start[pos + 1] as usize
    }

    /// The position of `signal`'s driver, or `None` if the driver is not
    /// an inner block.
    pub fn driver(&self, signal: usize) -> Option<usize> {
        inner(self.drivers[signal])
    }

    /// The ends of `signal`'s wires, one per wire: a sink's position, or
    /// `None` if the sink is not an inner block.
    pub fn sinks(&self, signal: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        let range = self.sink_start[signal] as usize..self.sink_start[signal + 1] as usize;
        self.sinks[range].iter().map(|&p| inner(p))
    }

    /// Number of wires `signal` drives.
    pub fn num_sinks(&self, signal: usize) -> u32 {
        self.sink_start[signal + 1] - self.sink_start[signal]
    }
}

/// Reads a stored position, mapping [`OUTER`] to `None`.
fn inner(p: u32) -> Option<usize> {
    (p != OUTER).then_some(p as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{CutCost, CutState};
    use crate::kind::{CommKind, ComputeKind, OutputKind, ProgrammableSpec, SensorKind};

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(500));
        assert!(!s.remove(500));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn iter_ascending_across_words() {
        let mut s = BitSet::new(200);
        for v in [199, 0, 63, 64, 65, 128] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(10);
        a.extend([1, 2, 3]);
        let mut b = BitSet::new(10);
        b.extend([3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(!a.is_disjoint(&b));
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.len(), 3);
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert!(empty.is_empty());
        assert_eq!(empty.capacity(), 0);
    }

    #[test]
    fn debug_lists_members() {
        let s: BitSet = [1usize, 3].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 3}");
    }

    #[test]
    fn inner_index_maps_both_ways() {
        let mut d = Design::new("idx");
        let s = d.add_block("s", SensorKind::Button);
        let g1 = d.add_block("g1", ComputeKind::Not);
        let g2 = d.add_block("g2", ComputeKind::Toggle);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (g1, 0)).unwrap();
        d.connect((g1, 0), (g2, 0)).unwrap();
        d.connect((g2, 0), (o, 0)).unwrap();

        let idx = InnerIndex::new(&d);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.position(g1), Some(0));
        assert_eq!(idx.position(g2), Some(1));
        assert_eq!(idx.position(s), None);
        assert_eq!(idx.block(0), g1);
        let full = idx.full_set();
        assert_eq!(idx.resolve(&full), vec![g1, g2]);
        assert!(idx.empty_set().is_empty());
    }

    /// Checks every wiring table against the design's own wires.
    fn assert_wiring_matches(d: &Design, idx: &InnerIndex) {
        let sinks_of = |from: BlockId, port: u8| {
            let mut v: Vec<Option<usize>> =
                d.sinks_of(from, port).map(|w| idx.position(w.to)).collect();
            v.sort();
            v
        };
        let sorted_sinks = |signal: usize| {
            let mut v: Vec<Option<usize>> = idx.sinks(signal).collect();
            v.sort();
            v
        };
        for pos in 0..idx.len() {
            let b = idx.block(pos);
            let driven = idx.driven_signals(pos);
            assert_eq!(driven.len(), usize::from(d.block(b).unwrap().num_outputs()));
            for (port, signal) in driven.enumerate() {
                assert_eq!(idx.driver(signal), Some(pos));
                assert_eq!(sorted_sinks(signal), sinks_of(b, port as u8));
                assert_eq!(
                    idx.num_sinks(signal) as usize,
                    sinks_of(b, port as u8).len()
                );
            }
            let mut read: Vec<_> = idx
                .input_signals(pos)
                .map(|(signal, wires)| (idx.driver(signal), sorted_sinks(signal), wires))
                .collect();
            let mut ports: Vec<(BlockId, u8)> =
                d.in_wires(b).map(|w| (w.from, w.from_port)).collect();
            ports.sort();
            ports.dedup();
            let mut want: Vec<_> = ports
                .into_iter()
                .map(|(from, port)| {
                    let wires = d
                        .in_wires(b)
                        .filter(|w| (w.from, w.from_port) == (from, port));
                    (
                        idx.position(from),
                        sinks_of(from, port),
                        wires.count() as u32,
                    )
                })
                .collect();
            read.sort();
            want.sort();
            assert_eq!(read, want, "inputs of {}", d.block(b).unwrap().name());
        }
    }

    fn set(idx: &InnerIndex, members: &[usize]) -> BitSet {
        let mut s = idx.empty_set();
        s.extend(members.iter().copied());
        s
    }

    #[test]
    fn removed_block_leaves_a_hole_in_the_ids() {
        let mut d = Design::new("hole");
        let s = d.add_block("s", SensorKind::Button);
        let gone = d.add_block("gone", ComputeKind::Not);
        let g1 = d.add_block("g1", ComputeKind::Not);
        let g2 = d.add_block("g2", ComputeKind::Toggle);
        let last = d.add_block("last", ComputeKind::Not);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (gone, 0)).unwrap();
        d.connect((s, 0), (g1, 0)).unwrap();
        d.connect((g1, 0), (g2, 0)).unwrap();
        d.connect((g2, 0), (o, 0)).unwrap();
        d.connect((gone, 0), (last, 0)).unwrap();
        d.remove_block(gone).unwrap();
        d.remove_block(last).unwrap();

        let idx = InnerIndex::new(&d);
        assert_eq!(idx.blocks(), &[g1, g2]);
        assert_eq!(idx.position(g1), Some(0));
        assert_eq!(idx.position(g2), Some(1));
        assert_eq!(idx.position(gone), None, "a hole below the last id");
        assert_eq!(idx.position(last), None, "an id past the last block");
        assert_wiring_matches(&d, &idx);
        let (from_s, wires) = idx.input_signals(0).next().unwrap();
        assert_eq!(wires, 1);
        assert_eq!(idx.sinks(from_s).collect::<Vec<_>>(), vec![Some(0)]);
        assert_eq!(
            CutState::new(&idx, &idx.full_set()).cost(),
            CutCost {
                inputs: 1,
                outputs: 1
            }
        );
    }

    #[test]
    fn programmable_and_comm_ends_are_outside() {
        // s -> prog -> g -> tx -> h -> o, and prog's second port -> h.
        let mut d = Design::new("outer");
        let s = d.add_block("s", SensorKind::Button);
        let prog = d.add_block("prog0", ProgrammableSpec::new(2, 2));
        let g = d.add_block("g", ComputeKind::Not);
        let tx = d.add_block("tx", CommKind::WirelessTx);
        let h = d.add_block("h", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (prog, 0)).unwrap();
        d.connect((prog, 0), (g, 0)).unwrap();
        d.connect((g, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (h, 0)).unwrap();
        d.connect((prog, 1), (h, 1)).unwrap();
        d.connect((h, 0), (o, 0)).unwrap();

        let idx = InnerIndex::new(&d);
        assert_eq!(idx.blocks(), &[g, h]);
        assert_wiring_matches(&d, &idx);
        let (into_g, _) = idx.input_signals(0).next().unwrap();
        assert_eq!(idx.driver(into_g), None, "a programmable driver");
        let out_of_g = idx.driven_signals(0).start;
        assert_eq!(
            idx.sinks(out_of_g).collect::<Vec<_>>(),
            vec![None],
            "a comm sink"
        );
        // h reads tx and prog's second port: two more signals.
        assert_eq!(idx.input_signals(1).count(), 2);
        let cut = CutState::new(&idx, &idx.full_set());
        assert_eq!(
            cut.cost(),
            CutCost {
                inputs: 3,
                outputs: 2
            }
        );
        assert!(
            cut.is_border(0) && cut.is_border(1),
            "no wire joins g and h"
        );
    }

    #[test]
    fn one_port_fans_out_to_inner_and_output_sinks() {
        // g drives h and the LED o1; h -> k -> o2. The inner blocks are
        // added sinks first, so their positions run against the wires.
        let mut d = Design::new("fan");
        let k = d.add_block("k", ComputeKind::Not);
        let h = d.add_block("h", ComputeKind::Not);
        let g = d.add_block("g", ComputeKind::Not);
        let s = d.add_block("s", SensorKind::Button);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (h, 0)).unwrap();
        d.connect((g, 0), (o1, 0)).unwrap();
        d.connect((h, 0), (k, 0)).unwrap();
        d.connect((k, 0), (o2, 0)).unwrap();

        let idx = InnerIndex::new(&d);
        assert_eq!(idx.blocks(), &[k, h, g]);
        assert_wiring_matches(&d, &idx);
        let out_of_g = idx.driven_signals(2).start;
        let mut sinks: Vec<_> = idx.sinks(out_of_g).collect();
        sinks.sort();
        assert_eq!(sinks, vec![None, Some(1)]);

        let mut cut = CutState::new(&idx, &idx.full_set());
        assert_eq!(
            cut.cost(),
            CutCost {
                inputs: 1,
                outputs: 2
            }
        );
        assert!(!cut.is_border(1), "h reads g and feeds k");
        assert_eq!(cut.rank(2), -1, "s stops entering; g's signal turns input");
        cut.remove(2);
        assert_eq!(
            cut.cost(),
            CutCost {
                inputs: 1,
                outputs: 1
            }
        );
        assert!(cut.is_border(1), "h's input now comes from outside");
        let only_g = CutState::new(&idx, &set(&idx, &[2]));
        assert_eq!(
            only_g.cost(),
            CutCost {
                inputs: 1,
                outputs: 1
            },
            "g's signal leaves once for both outside sinks"
        );
    }

    #[test]
    fn one_signal_on_two_inputs_counts_once() {
        // s drives both inputs of the AND b and the input of c.
        let mut d = Design::new("twice");
        let s = d.add_block("s", SensorKind::Button);
        let b = d.add_block("b", ComputeKind::and2());
        let c = d.add_block("c", ComputeKind::Not);
        let o1 = d.add_block("o1", OutputKind::Led);
        let o2 = d.add_block("o2", OutputKind::Buzzer);
        d.connect((s, 0), (b, 0)).unwrap();
        d.connect((s, 0), (b, 1)).unwrap();
        d.connect((s, 0), (c, 0)).unwrap();
        d.connect((b, 0), (o1, 0)).unwrap();
        d.connect((c, 0), (o2, 0)).unwrap();

        let idx = InnerIndex::new(&d);
        assert_wiring_matches(&d, &idx);
        let (signal, wires) = idx.input_signals(0).next().unwrap();
        assert_eq!(
            idx.input_signals(0).count(),
            1,
            "one signal, not one per wire"
        );
        assert_eq!(wires, 2);
        assert_eq!(idx.num_sinks(signal), 3);

        let both = CutState::new(&idx, &idx.full_set());
        assert_eq!(
            both.cost(),
            CutCost {
                inputs: 1,
                outputs: 2
            }
        );
        // c still reads s, so b's two wires must not make s stop entering.
        assert_eq!(both.rank(0), -1);
        assert_eq!(both.rank(1), -1);
        // Alone, b's two wires are all of s's member sinks.
        let only_b = CutState::new(&idx, &set(&idx, &[0]));
        assert_eq!(
            only_b.cost(),
            CutCost {
                inputs: 1,
                outputs: 1
            }
        );
        assert_eq!(only_b.rank(0), -2);
    }
}
