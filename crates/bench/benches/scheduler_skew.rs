//! Phase II dispatch on a skew-heavy workload: a symmetric blob of
//! superposed pattern copies (guess storms, ~80x the mean verification
//! cost) clustered at the head of the candidate vector, followed by a
//! long tail of cheap instances. Work stealing lets every worker drain
//! the tail around the heavy head.
//!
//! Besides timing, this bench is a correctness gate: it asserts that
//! the serial path and work stealing at 2 and 8 threads return
//! byte-identical instances and completeness, and that every planted
//! instance is found.

use std::hint::black_box;

use subgemini::{MatchOptions, Matcher};
use subgemini_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subgemini_netlist::Netlist;
use subgemini_workloads::{cells, gen};

const TRAPS: usize = 10;
const EASY: usize = 128;
const THREADS: usize = 8;

fn workload() -> (Netlist, Netlist) {
    let cell = cells::nand_k(6);
    let g = gen::skewed_trap_field(&cell, TRAPS, EASY);
    (cell, g.netlist)
}

fn run(pattern: &Netlist, main: &Netlist, threads: usize) -> subgemini::MatchOutcome {
    Matcher::new(pattern, main)
        .options(MatchOptions {
            threads,
            ..MatchOptions::default()
        })
        .find_all()
}

/// Identical answers at every thread count, and the full ground truth.
fn preflight(pattern: &Netlist, main: &Netlist) {
    let reference = run(pattern, main, 1);
    assert!(reference.completeness.is_complete());
    assert_eq!(
        reference.count(),
        TRAPS + EASY,
        "ground truth: every planted instance is found"
    );
    for threads in [2, THREADS] {
        let o = run(pattern, main, threads);
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: instances diverge"
        );
        assert_eq!(reference.completeness, o.completeness);
    }
    println!(
        "scheduler_skew preflight: {} instances, cv {}, identical at threads 1/2/{THREADS}",
        reference.count(),
        reference.phase1.cv_size,
    );
}

fn bench(c: &mut Criterion) {
    let (pattern, main) = workload();
    preflight(&pattern, &main);
    let mut group = c.benchmark_group("scheduler_skew");
    for (name, threads) in [("serial", 1), ("steal", 2), ("steal", THREADS)] {
        group.bench_with_input(BenchmarkId::new(name, threads), &(), |b, ()| {
            b.iter(|| black_box(run(&pattern, &main, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
