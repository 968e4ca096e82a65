//! Allocation guard for the SPICE front end: parsing borrows tokens
//! from the deck text, and elaboration registers each built-in device
//! type once and stores every name once.
//!
//! A counting global allocator measures the allocations of `parse` plus
//! `elaborate_top` on two generated decks; the difference divided by
//! the difference in MOS cards cancels every per-deck cost (the `Doc`
//! and netlist headers, the global-net set, the first growth steps of
//! every table) and leaves the cost per card. What remains per card is
//! the parsed `Card`'s five strings, the device's name and pin list, and
//! the share of net names and net pin lists a card brings in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subgemini_spice::{parse, write_netlist, Card, ElaborateOptions};
use subgemini_workloads::gen;

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

/// Allocations of parsing plus elaborating `text`, and its MOS cards.
fn front_end_allocs(text: &str) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let doc = parse(text).expect("generated decks parse");
    let nl = doc
        .elaborate_top("chip", &ElaborateOptions::default())
        .expect("generated decks elaborate");
    let allocs = ALLOCS.with(Cell::get) - before;
    let mos = doc
        .top
        .iter()
        .filter(|c| matches!(c, Card::Mos { .. }))
        .count() as u64;
    assert_eq!(mos as usize, nl.device_count(), "the chip is all MOS cards");
    (allocs, mos)
}

/// Allocations per MOS card between a 4k- and a 16k-device deck.
fn allocs_per_card() -> f64 {
    let deck = |devices| write_netlist(&gen::hierarchical_chip(1, 3, devices).generated.netlist);
    let (small, large) = (deck(4_000), deck(16_000));
    let (a0, c0) = front_end_allocs(&small);
    let (a1, c1) = front_end_allocs(&large);
    assert!(c1 > c0 + 5_000, "cards {c0} -> {c1}");
    let per = (a1 - a0) as f64 / (c1 - c0) as f64;
    eprintln!("{c0} -> {c1} MOS cards, {a0} -> {a1} allocations, {per:.2} per card");
    per
}

/// Before borrowed tokens, the type cache and the names-stored-once
/// index the front end made 27.8 allocations per card (a fresh MOS type
/// per card, a `String` per token, every name twice); it now makes 8.3:
/// five for the `Card`, two for the device, and about 1.3 for the nets.
#[test]
fn parse_and_elaborate_allocate_little_per_card() {
    let per = allocs_per_card();
    assert!(per <= 9.0, "{per:.2} allocations per MOS card");
}
