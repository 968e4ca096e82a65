//! Small-deck smoke runs of every workload, untraced and traced, plus
//! the ground-truth gate's failure path and the agreement between the
//! metric names emitted and those `BENCHMARK.json` declares.
//!
//! The tests build `subg` from the repository with cargo on first use.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use subg_perfbench::deck::Deck;
use subg_perfbench::{run, run_on, Config, Workload, PER_LAYER};
use subgemini::metrics::json::{self, Value};

const DEVICES: usize = 1_500;
const SECONDS: f64 = 0.5;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Builds `subg` once and returns the executable cargo reports.
fn subg() -> &'static Path {
    static SUBG: OnceLock<PathBuf> = OnceLock::new();
    SUBG.get_or_init(|| {
        let out = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "-p",
                "subgemini-cli",
                "--message-format=json",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .output()
            .expect("cargo runs");
        assert!(out.status.success(), "building subg failed");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| json::parse(l).ok())
            .filter_map(|v| {
                v.get("executable")
                    .and_then(Value::as_str)
                    .map(PathBuf::from)
            })
            .find(|p| p.file_name().is_some_and(|n| n == "subg"))
            .expect("cargo reports the subg executable")
    })
}

fn config(workload: Workload, trace: bool, name: &str) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: SECONDS,
        trace,
        subg: subg().to_path_buf(),
        devices: DEVICES,
        work: Path::new(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn names(report: &subg_perfbench::Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn smoke(workload: Workload, trace: bool, name: &str) {
    let report = run(&config(workload, trace, name)).expect("the workload runs");
    assert!(report.tally.attempted >= 1, "{name}: nothing attempted");
    assert_eq!(
        report.tally.failed, 0,
        "{name}: {:?}",
        report.tally.failures
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names(&report), declared(section), "{name}: metric names");
    assert!(
        report.metrics.iter().all(|m| m.value.is_finite()),
        "{name}: {:?}",
        report.metrics
    );
    let result = json::parse(&report.result_json()).expect("result line parses");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn cli_find_smoke() {
    smoke(Workload::CliFind, false, "cli_find");
}

#[test]
fn serve_find_smoke() {
    smoke(Workload::ServeFind, false, "serve_find");
}

#[test]
fn hierarchize_smoke() {
    smoke(Workload::Hierarchize, false, "hierarchize");
}

#[test]
fn cli_find_traced_smoke() {
    smoke(Workload::CliFind, true, "cli_find_traced");
}

#[test]
fn serve_find_traced_smoke() {
    smoke(Workload::ServeFind, true, "serve_find_traced");
}

#[test]
fn hierarchize_traced_smoke() {
    smoke(Workload::Hierarchize, true, "hierarchize_traced");
}

#[test]
fn traced_run_writes_its_spans() {
    let cfg = config(Workload::CliFind, true, "spans");
    let report = run(&cfg).expect("the workload runs");
    let spans_path = cfg.work.join("cli_find-seed5.spans.json");
    let spans = json::parse(&std::fs::read_to_string(&spans_path).expect("span file"))
        .expect("span file parses");
    let spans = spans.as_arr().expect("an array of spans");
    let has = |name: &str| {
        spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some(name))
    };
    for name in [
        "op",
        "spice.parse",
        "engine.find",
        "phase2.wall",
        "netlist.teardown",
    ] {
        assert!(has(name), "no {name} span");
    }
    let layer = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("reported")
    };
    assert!(layer("spice.parse_s") > 0.0);
    assert!(layer("phase2.candidates") > 0.0);
    assert_eq!(PER_LAYER.len(), report.metrics.len());
}

/// A deck whose ground truth claims one more nand2 than was planted.
fn wrong_truth(name: &str) -> (Config, Deck) {
    let cfg = config(Workload::CliFind, false, name);
    let mut deck = Deck::generate(&cfg.work.join("deck"), cfg.seed, DEVICES).expect("deck");
    *deck.expected.get_mut("nand2").expect("nand2 is planted") += 1;
    (cfg, deck)
}

#[test]
fn wrong_expected_count_fails_cli_find() {
    let (cfg, deck) = wrong_truth("gate_cli");
    let out = cfg.work.join("out.sp");
    let report = run_on(&cfg, &deck, vec![0.0], &out).expect("the workload runs");
    assert!(report.tally.attempted >= 1);
    assert_eq!(report.tally.failed, report.tally.attempted);
    assert!(
        report.tally.failures[0].contains("nand2"),
        "{:?}",
        report.tally.failures
    );
    let result = json::parse(&report.result_json()).expect("result line parses");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
}

#[test]
fn wrong_expected_count_fails_serve_find_and_hierarchize() {
    let (mut cfg, deck) = wrong_truth("gate_serve");
    cfg.workload = Workload::ServeFind;
    let out = cfg.work.join("out.sp");
    let serve = run_on(&cfg, &deck, vec![], &out).expect("the workload runs");
    // Only nand2 requests fail; the other patterns and the daemon's
    // clean shutdowns pass.
    assert!(serve.tally.failed >= 1);
    assert!(serve.tally.failed < serve.tally.attempted);
    cfg.workload = Workload::Hierarchize;
    let hier = run_on(&cfg, &deck, vec![0.0], &out).expect("the workload runs");
    assert_eq!(hier.tally.failed, hier.tally.attempted);
}

#[test]
fn gate_compares_found_with_planted() {
    assert!(subg_perfbench::deck::check_count("inv", 3, 3).is_ok());
    let err = subg_perfbench::deck::check_count("inv", 2, 3).unwrap_err();
    assert!(
        err.contains("found 2") && err.contains("planted 3"),
        "{err}"
    );
}
