//! Allocation guard for Phase II: a warm search verifies candidates
//! without allocating per relabeling pass, per partition table or per
//! guess. The only per-candidate allocations left are the reported
//! instance itself and its device set.
//!
//! A counting global allocator measures the allocations of whole
//! `find_all` runs on two chip sizes; the difference divided by the
//! difference in Phase II candidates cancels every per-search cost
//! (compilation, Phase I, the search state) and leaves the cost per
//! candidate. Runs use one thread with metrics and events off, so every
//! allocation happens on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subgemini::{MatchOptions, Matcher};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter is const-initialized and has no
    // destructor, but a late call during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result, so `System`'s guarantees carry
// over. The added counter bump touches only a const-initialized
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one search, and its Phase II candidate count.
fn search_allocs(pattern: &Netlist, main: &Netlist) -> (u64, u64, u64) {
    let opts = MatchOptions {
        threads: 1,
        collect_metrics: false,
        trace_events: false,
        ..MatchOptions::default()
    };
    let before = ALLOCS.with(Cell::get);
    let outcome = Matcher::new(pattern, main).options(opts).find_all();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(outcome.completeness.is_complete());
    let p2 = &outcome.phase2;
    (allocs, p2.candidates_tried as u64, p2.passes as u64)
}

/// Allocations per Phase II candidate between a small and a large chip.
/// Also checks that candidates take at least `min_passes` relabeling
/// passes each, so a per-pass allocation could not hide.
fn allocs_per_candidate(pattern: &Netlist, min_passes: u64) -> f64 {
    let small = gen::hierarchical_chip(1, 3, 4_000).generated.netlist;
    let large = gen::hierarchical_chip(1, 3, 16_000).generated.netlist;
    let (a0, c0, _) = search_allocs(pattern, &small);
    let (a1, c1, passes) = search_allocs(pattern, &large);
    assert!(c1 > c0 + 500, "candidates {c0} -> {c1}");
    assert!(
        passes >= min_passes * c1,
        "{passes} passes over {c1} candidates"
    );
    let per = (a1 - a0) as f64 / (c1 - c0) as f64;
    eprintln!(
        "{}: {c0} -> {c1} candidates, {a0} -> {a1} allocations, {per:.3} per candidate, {passes} passes on the large chip",
        pattern.name()
    );
    per
}

/// `nand2` is all hits, five passes each: each candidate reports an
/// instance, whose device and net lists plus its device set are three
/// allocations. Amortized growth of the result lists and the dedup map
/// adds a fraction.
#[test]
fn all_hit_pattern_allocates_only_its_instances() {
    let per = allocs_per_candidate(&cells::nand2(), 4);
    assert!(per <= 3.25, "{per:.3} allocations per candidate");
}

/// `inv` is mostly rejects, two passes and an anchored guess each: a
/// rejected candidate allocates nothing, so the cost is the hits' three
/// allocations spread over all candidates.
#[test]
fn mostly_reject_pattern_allocates_almost_nothing() {
    let per = allocs_per_candidate(&cells::inv(), 2);
    assert!(per <= 0.5, "{per:.3} allocations per candidate");
}
