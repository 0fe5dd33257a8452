//! Heap allocations per synthesis op, pinned.
//!
//! A counting global allocator tallies the allocations (and reallocations)
//! the calling thread makes while one design goes through the compile path
//! `eblocks-cli synth --lint` runs: lint, PareDown, merge, rewrite with the
//! optimizer, verify by co-simulation, and C emission. Each design runs
//! once first, so the process-wide library and lint tables are filled
//! before the counted op. The count is deterministic, so it shows a stage
//! that starts copying again as an exact number where wall-clock time
//! would only be noise. Each pinned count allows 5% either way.

use eblocks::core::Design;
use eblocks::gen::{generate, GeneratorConfig};
use eblocks::lint::LintConfig;
use eblocks::partition::strategy::PareDown;
use eblocks::synth::Pipeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations one synthesis of `design` makes.
fn allocations(design: &Design) -> u64 {
    let op = || {
        Pipeline::new(design)
            .lint(LintConfig::default())
            .run(&PareDown, true)
            .unwrap_or_else(|e| panic!("{}: {e}", design.name()))
    };
    drop(op());
    let before = ALLOCATIONS.with(Cell::get);
    let result = op();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(result);
    made
}

#[test]
fn synthesis_allocations_stay_pinned() {
    let library = |name| {
        eblocks::designs::by_name(name)
            .expect("a Table 1 design")
            .design
    };
    let cases = [
        ("Timed Passage", library("Timed Passage"), 3304),
        ("Two-Zone Security", library("Two-Zone Security"), 2744),
        (
            "generated 45/45001",
            generate(&GeneratorConfig::new(45), 45001),
            5077,
        ),
    ];
    let mut report = String::new();
    let mut drifted = false;
    for (label, design, pinned) in cases {
        let made = allocations(&design);
        let (low, high) = (pinned * 95 / 100, pinned * 105 / 100);
        drifted |= !(low..=high).contains(&made);
        report.push_str(&format!("{label}: {made} (pinned {pinned})\n"));
    }
    assert!(!drifted, "allocations per op moved past 5%:\n{report}");
}
