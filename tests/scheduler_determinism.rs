//! Phase II dispatch determinism: the serial path (one thread) and
//! work stealing (two or more) must produce byte-identical instances,
//! stats, event journals, reject tallies, and truncation points — on a
//! skew-heavy workload, on a tiled chip, and when workers are killed or
//! stalled at the steal sites.
//!
//! The failpoint registry is process-global, so every test in this
//! binary serializes on one lock and disarms all sites on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use subgemini::budget::failpoint::{self, Action};
use subgemini::{MatchOptions, MatchOutcome, Matcher, WorkBudget};
use subgemini_netlist::Netlist;
use subgemini_workloads::{analog, cells, gen};

/// Serializes failpoint-sensitive tests and guarantees a disarmed
/// registry on both entry and exit (including panic unwinds).
struct FpSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FpSession {
    fn start() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        failpoint::clear_all();
        Self(guard)
    }
}

impl Drop for FpSession {
    fn drop(&mut self) {
        failpoint::clear_all();
    }
}

/// A deliberately imbalanced field: a symmetric blob of superposed
/// pattern copies (each ~80x more expensive to verify than a planted
/// instance) clustered at the head of the candidate vector, followed
/// by cheap well-separated instances.
fn workload() -> (Netlist, Netlist) {
    let cell = cells::nand_k(6);
    let g = gen::skewed_trap_field(&cell, 4, 96);
    (cell, g.netlist)
}

/// The skewed field plus a CI-sized mixed chip (about 4k devices of
/// tiled adders, flops, SRAM, op-amps and glue) searched for two of its
/// planted cells — many candidates of ordinary cost instead of one
/// skewed blob. Each entry carries its planted instance count.
fn workloads() -> Vec<(Netlist, Netlist, usize)> {
    let (pattern, main) = workload();
    let mut inputs = vec![(pattern, main, 100)]; // 4 blob copies + 96 planted
    let chip = gen::tiled_chip(5, 4_000);
    for cell in [cells::full_adder(), analog::two_stage_opamp()] {
        let planted = chip.planted_count(cell.name());
        assert!(planted > 0);
        inputs.push((cell, chip.netlist.clone(), planted));
    }
    inputs
}

fn run(pattern: &Netlist, main: &Netlist, opts: MatchOptions) -> MatchOutcome {
    Matcher::new(pattern, main).options(opts).find_all()
}

fn opts(threads: usize) -> MatchOptions {
    MatchOptions {
        threads,
        ..MatchOptions::default()
    }
}

/// `opts` plus the event journal and metrics counters.
fn observed_opts(threads: usize) -> MatchOptions {
    MatchOptions {
        trace_events: true,
        collect_metrics: true,
        ..opts(threads)
    }
}

/// Every `reject.*` tally from the metrics counters, in name order.
fn reject_tallies(o: &MatchOutcome) -> Vec<(String, u64)> {
    let m = o.metrics.as_ref().expect("metrics requested");
    let mut t: Vec<(String, u64)> = m
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("reject."))
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    t.sort();
    t
}

fn total_effort(o: &MatchOutcome) -> u64 {
    (o.phase1.iterations
        + o.phase2.candidates_tried
        + o.phase2.passes
        + o.phase2.guesses
        + o.phase2.backtracks) as u64
}

/// Everything a run reports that must not depend on the thread count:
/// instances, key image, Phase I/II stats, completeness (with the
/// truncation point), the event journal and the reject tallies. Both
/// runs must have used [`observed_opts`].
#[track_caller]
fn assert_equivalent(reference: &MatchOutcome, got: &MatchOutcome, ctx: &str) {
    assert_eq!(reference.instances, got.instances, "{ctx}: instances");
    assert_eq!(reference.key, got.key, "{ctx}: key image");
    assert_eq!(reference.phase1, got.phase1, "{ctx}: Phase I stats");
    assert_eq!(reference.phase2, got.phase2, "{ctx}: Phase II stats");
    assert_eq!(
        reference.completeness, got.completeness,
        "{ctx}: completeness"
    );
    assert_eq!(reference.events, got.events, "{ctx}: event journal");
    assert_eq!(
        reject_tallies(reference),
        reject_tallies(got),
        "{ctx}: reject tallies"
    );
}

#[test]
fn schedulers_and_thread_counts_agree_on_instances_and_stats() {
    let _fp = FpSession::start();
    for (pattern, main, planted) in &workloads() {
        let name = pattern.name();
        let reference = run(pattern, main, opts(1));
        assert_eq!(reference.count(), *planted, "{name}: ground truth");
        assert!(reference.completeness.is_complete());
        for threads in [2, 8] {
            let o = run(pattern, main, opts(threads));
            let ctx = format!("{name} threads {threads}");
            assert_eq!(reference.instances, o.instances, "{ctx}: instances");
            assert_eq!(reference.key, o.key, "{ctx}");
            assert_eq!(reference.phase1, o.phase1, "{ctx}");
            assert_eq!(reference.phase2, o.phase2, "{ctx}: Phase II stats");
            assert_eq!(reference.completeness, o.completeness, "{ctx}");
        }
    }
}

#[test]
fn journals_and_reject_tallies_are_identical_across_schedulers() {
    let _fp = FpSession::start();
    for (i, (pattern, main, _)) in workloads().iter().enumerate() {
        let name = pattern.name();
        let reference = run(pattern, main, observed_opts(1));
        let ref_journal = reference.events.as_ref().expect("journal requested");
        assert!(!ref_journal.events.is_empty());
        let ref_tallies = reject_tallies(&reference);
        if i == 0 {
            assert!(
                ref_tallies.iter().any(|(_, v)| *v > 0),
                "the blob must produce rejects: {ref_tallies:?}"
            );
        }
        for threads in [2, 8] {
            let o = run(pattern, main, observed_opts(threads));
            assert_equivalent(&reference, &o, &format!("{name} threads {threads}"));
        }
    }
}

#[test]
fn truncation_point_is_identical_across_schedulers_and_threads() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let full = run(&pattern, &main, opts(1));
    // A midpoint budget cuts the candidate vector partway through.
    let budget = total_effort(&full) / 2;
    let budgeted = |threads| MatchOptions {
        budget: Some(WorkBudget::effort(budget)),
        ..opts(threads)
    };
    let reference = run(&pattern, &main, budgeted(1));
    assert!(
        reference.completeness.is_truncated(),
        "midpoint budget must truncate"
    );
    for threads in [2, 8] {
        let o = run(&pattern, &main, budgeted(threads));
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: truncated instances diverge"
        );
        assert_eq!(
            reference.completeness, o.completeness,
            "threads {threads}: truncation point diverges"
        );
    }

    // A sweep of effort caps over a 16-copy nand2 trap blob followed by
    // 24 easy instances: 50 cuts inside the blob, 200 in the easy tail,
    // 1000 and 5000 run to completion. The whole observable outcome
    // stays the same at every thread count.
    let cell = cells::nand2();
    let field = gen::skewed_trap_field(&cell, 16, 24).netlist;
    let mut truncated = 0;
    for max_effort in [50u64, 200, 1000, 5000] {
        let capped = |threads| MatchOptions {
            budget: Some(WorkBudget::effort(max_effort)),
            ..observed_opts(threads)
        };
        let reference = run(&cell, &field, capped(1));
        truncated += usize::from(reference.completeness.is_truncated());
        for threads in [2, 8] {
            let o = run(&cell, &field, capped(threads));
            assert_equivalent(
                &reference,
                &o,
                &format!("effort {max_effort} threads {threads}"),
            );
        }
    }
    assert!(truncated > 0, "the sweep must include a truncated run");
}

#[test]
fn max_instances_stop_is_identical_across_schedulers_and_threads() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(
        &pattern,
        &main,
        MatchOptions {
            max_instances: 10,
            ..opts(1)
        },
    );
    assert_eq!(reference.count(), 10);
    for threads in [2, 8] {
        let o = run(
            &pattern,
            &main,
            MatchOptions {
                max_instances: 10,
                ..opts(threads)
            },
        );
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: max_instances stop diverges"
        );
    }
}

#[test]
fn stealing_happens_and_worker_accounting_stays_consistent() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let o = run(
        &pattern,
        &main,
        MatchOptions {
            collect_metrics: true,
            ..opts(8)
        },
    );
    let m = o.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.threads_requested, 8);
    assert_eq!(m.threads_resolved, 8);
    assert_eq!(m.worker_busy_ns.len(), m.threads_used);
    // Each candidate is claimed at most once (the cursor never hands
    // an index out twice), and every consumed candidate came from a
    // worker slot or a merge recomputation.
    let claims = m.counters.get("scheduler.claims");
    assert!(claims <= o.phase1.cv_size as u64);
    assert!(claims + m.counters.get("scheduler.recomputed") >= o.phase2.candidates_tried as u64);
    // Raced-but-discarded work is possible; invented work is not.
    assert!(o.completeness.is_complete());
}

#[test]
fn worker_death_at_steal_site_recovers_with_identical_results() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1));
    // Every worker dies at its first claim, leaving an abandoned-slot
    // tombstone; the merge must recompute every candidate serially and
    // still produce the full answer.
    failpoint::configure("phase2.steal", Action::KillWorker);
    for threads in [2, 8] {
        let o = run(&pattern, &main, opts(threads));
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: steal-site death changed the result"
        );
        assert!(o.completeness.is_complete());
    }
    // Under a budget the truncation point is still the serial one.
    let budget = total_effort(&reference) / 2;
    let budgeted_serial = run(
        &pattern,
        &main,
        MatchOptions {
            budget: Some(WorkBudget::effort(budget)),
            ..opts(1)
        },
    );
    assert!(budgeted_serial.completeness.is_truncated());
    for threads in [2, 8] {
        let o = run(
            &pattern,
            &main,
            MatchOptions {
                budget: Some(WorkBudget::effort(budget)),
                ..opts(threads)
            },
        );
        assert_eq!(budgeted_serial.instances, o.instances, "threads {threads}");
        assert_eq!(
            budgeted_serial.completeness, o.completeness,
            "threads {threads}"
        );
    }
}

#[test]
fn worker_stall_at_steal_site_shifts_time_but_not_results() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1));
    // Stall every claim attempt: claim interleavings scramble, the
    // merged outcome must not.
    failpoint::configure("phase2.steal", Action::StallMs(1));
    for threads in [2, 8] {
        let o = run(&pattern, &main, opts(threads));
        assert_eq!(reference.instances, o.instances, "threads {threads}");
        assert_eq!(reference.phase2, o.phase2, "threads {threads}");
        assert!(o.completeness.is_complete());
    }
}

#[test]
fn worker_death_at_spawn_site_recovers_under_stealing_scheduler() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let reference = run(&pattern, &main, opts(1));
    // Workers die before claiming anything at all (no tombstones, just
    // an empty board); the merge self-heals via recomputation.
    failpoint::configure("phase2.worker", Action::KillWorker);
    for threads in [2, 8] {
        let o = run(&pattern, &main, opts(threads));
        assert_eq!(
            reference.instances, o.instances,
            "threads {threads}: spawn-site death changed the result"
        );
        assert!(o.completeness.is_complete());
    }
}

#[test]
fn threads_auto_resolves_and_reports_both_numbers() {
    let _fp = FpSession::start();
    let (pattern, main) = workload();
    let o = run(
        &pattern,
        &main,
        MatchOptions {
            collect_metrics: true,
            ..opts(0)
        },
    );
    let m = o.metrics.as_ref().expect("metrics requested");
    assert_eq!(m.threads_requested, 0, "the request is echoed verbatim");
    assert!(m.threads_resolved >= 1, "auto maps to a concrete count");
    assert!(m.threads_used >= 1);
    // Auto must agree with an explicit request for the same count.
    let explicit = run(&pattern, &main, opts(m.threads_resolved));
    assert_eq!(o.instances, explicit.instances);
    assert_eq!(o.phase2, explicit.phase2);
}

/// The chip-scale pin: a 10^6-device tiled chip gives byte-identical
/// outcomes at one and two threads and finds exactly the planted full
/// adders. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "chip-scale (10^6 devices): run with --release -- --ignored"]
fn million_device_tiled_chip_is_identical_at_one_and_two_threads() {
    let _fp = FpSession::start();
    let chip = gen::tiled_chip(1, 1_000_000);
    assert!(chip.netlist.device_count() >= 1_000_000);
    let fa = cells::full_adder();
    let reference = run(&fa, &chip.netlist, observed_opts(1));
    assert_eq!(reference.count(), chip.planted_count("full_adder"));
    let o = run(&fa, &chip.netlist, observed_opts(2));
    assert_equivalent(&reference, &o, "million-device pin");
}
