//! The traced runs. Each replays its workload's operation in-process,
//! wrapping every call into a layer's public function in a span, and
//! interleaves untraced operations of the real binary so the tracing
//! overhead is measured in the same run. Stages the program times
//! itself (compile, Phase I, Phase II inside `find_all`) come from its
//! `MetricsReport` and are recorded as derived child spans.
//!
//! A layer the workload's operation never calls reports 0: those rows
//! are the "predicted flat" cells of the layer table in `BENCHMARK.md`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use subgemini::hier::Hierarchizer;
use subgemini::metrics::json::{self, Value};
use subgemini::metrics::outcome_to_json;
use subgemini::{Extractor, MatchOutcome, ProgressEvent, ProgressHook};
use subgemini_engine::source::{
    load_cell, load_cell_hierarchical, load_doc, main_from_doc, main_name, parse_text, Doc,
    SourceKind,
};
use subgemini_engine::{
    CircuitSource, Engine, FindRequest, FindResponse, PatternSource, RequestOptions,
};
use subgemini_netlist::{Artifact, Netlist};

use crate::deck::{check_count, Deck, PATTERNS};
use crate::e2e::{self, CLI_PATTERN};
use crate::proc;
use crate::spans::{median, Tracer};
use crate::Tally;

/// What one traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Checked operations (traced and untraced) and failures.
    pub tally: Tally,
    /// Every span of the run.
    pub tracer: Tracer,
    /// Per-layer metric values by name; names absent here report 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Input properties recorded next to the results.
    pub inputs: Vec<(String, Value)>,
}

impl Traced {
    fn new(epoch: Instant) -> Self {
        Traced {
            tally: Tally::default(),
            tracer: Tracer::new(epoch),
            layers: BTreeMap::new(),
            inputs: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Per-layer self time (median over operations) and the residual no
    /// layer claims. Without `untraced_wall` the residual is the self
    /// time of layer `op`; with it (process workloads), the residual is
    /// the untraced process wall minus the time the traced layers cover,
    /// which goes negative when the in-process replay runs slower than
    /// the process.
    fn set_self_times(&mut self, untraced_wall: Option<f64>) {
        let per_op = self.tracer.self_times();
        for (layer, name) in SELF_METRICS {
            let v: Vec<f64> = per_op
                .values()
                .map(|m| m.get(layer).copied().unwrap_or(0) as f64 / 1e9)
                .collect();
            self.set(name, median(&v));
        }
        let roots: Vec<f64> = per_op
            .values()
            .map(|m| m.get("op").copied().unwrap_or(0) as f64 / 1e9)
            .collect();
        let residual = match untraced_wall {
            // The process wall minus what the traced layers account for.
            Some(wall) => {
                let attributed: Vec<f64> = self
                    .tracer
                    .spans()
                    .iter()
                    .filter(|s| s.parent.is_none() && s.op != 0)
                    .zip(&roots)
                    .map(|(s, root_self)| s.dur() as f64 / 1e9 - root_self)
                    .collect();
                wall - median(&attributed)
            }
            None => median(&roots),
        };
        self.set("cli.unattributed_s", residual);
    }

    fn set_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        let (t, u) = (median(traced), median(untraced));
        self.set("trace.traced_wall_s", t);
        self.set("trace.untraced_wall_s", u);
        self.set("trace.overhead_s", t - u);
    }
}

/// Layer → self-time metric.
const SELF_METRICS: [(&str, &str); 8] = [
    ("spice", "spice.self_s"),
    ("netlist", "netlist.self_s"),
    ("phase1", "phase1.self_s"),
    ("phase2", "phase2.self_s"),
    ("engine", "engine.self_s"),
    ("report", "report.self_s"),
    ("serve", "serve.self_s"),
    ("hier", "hier.self_s"),
];

/// The figures one search reports about itself.
#[derive(Clone, Copy, Debug, Default)]
struct MatchFig {
    compile_ns: u64,
    refine_ns: u64,
    select_ns: u64,
    phase2_wall_ns: u64,
    busy_ns: u64,
    /// `threads_used × phase2_wall_ns`: the busy time's denominator.
    capacity_ns: u64,
    iterations: u64,
    cv: u64,
    candidates: u64,
    instances: u64,
    guesses: u64,
    backtracks: u64,
    pruned: u64,
}

impl MatchFig {
    fn from_outcome(o: &MatchOutcome) -> Result<MatchFig, String> {
        let m = o.metrics.as_ref().ok_or("outcome carries no metrics")?;
        Ok(MatchFig {
            compile_ns: m.compile_ns,
            refine_ns: m.phase1_refine_ns,
            select_ns: m.phase1_select_ns,
            phase2_wall_ns: m.phase2_wall_ns,
            busy_ns: m.worker_busy_ns.iter().sum(),
            capacity_ns: m.threads_used as u64 * m.phase2_wall_ns,
            iterations: o.phase1.iterations as u64,
            cv: o.phase1.cv_size as u64,
            candidates: o.phase2.candidates_tried as u64,
            instances: o.instances.len() as u64,
            guesses: o.phase2.guesses as u64,
            backtracks: o.phase2.backtracks as u64,
            pruned: m.counters.get("index.pruned_candidates"),
        })
    }

    /// From a v1 report document (the daemon's `/v1/find` reply).
    fn from_report(v: &Value) -> Result<MatchFig, String> {
        let num = |path: &[&str]| -> Result<u64, String> {
            let mut at = v;
            for key in path {
                at = at
                    .get(key)
                    .ok_or_else(|| format!("report lacks {}", path.join(".")))?;
            }
            at.as_u64()
                .ok_or_else(|| format!("report {} is not a count", path.join(".")))
        };
        let m = |key| num(&["metrics", key]);
        let busy: u64 = v
            .get("metrics")
            .and_then(|m| m.get("worker_busy_ns"))
            .and_then(Value::as_arr)
            .ok_or("report lacks metrics.worker_busy_ns")?
            .iter()
            .filter_map(Value::as_u64)
            .sum();
        Ok(MatchFig {
            compile_ns: m("compile_ns")?,
            refine_ns: m("phase1_refine_ns")?,
            select_ns: m("phase1_select_ns")?,
            phase2_wall_ns: m("phase2_wall_ns")?,
            busy_ns: busy,
            capacity_ns: m("threads_used")? * m("phase2_wall_ns")?,
            iterations: num(&["phase1", "iterations"])?,
            cv: num(&["phase1", "cv_size"])?,
            candidates: num(&["phase2", "candidates_tried"])?,
            instances: num(&["instances"])?,
            guesses: num(&["phase2", "guesses"])?,
            backtracks: num(&["phase2", "backtracks"])?,
            pruned: num(&["metrics", "counters", "index.pruned_candidates"]).unwrap_or(0),
        })
    }

    fn add(&mut self, o: &MatchFig) {
        self.compile_ns += o.compile_ns;
        self.refine_ns += o.refine_ns;
        self.select_ns += o.select_ns;
        self.phase2_wall_ns += o.phase2_wall_ns;
        self.busy_ns += o.busy_ns;
        self.capacity_ns += o.capacity_ns;
        self.iterations += o.iterations;
        self.cv += o.cv;
        self.candidates += o.candidates;
        self.instances += o.instances;
        self.guesses += o.guesses;
        self.backtracks += o.backtracks;
        self.pruned += o.pruned;
    }

    /// The program-timed stages inside `find_all`, in execution order.
    fn stages(&self) -> [(&'static str, u64); 4] {
        [
            ("netlist.compile", self.compile_ns),
            ("phase1.refine", self.refine_ns),
            ("phase1.select", self.select_ns),
            ("phase2.wall", self.phase2_wall_ns),
        ]
    }
}

/// Sets the compile, Phase I, Phase II and prune metrics from one
/// `MatchFig` per operation: times are medians over operations, counts
/// are means, ratios are ratios of totals.
fn set_match_metrics(t: &mut Traced, per_op: &[MatchFig]) {
    if per_op.is_empty() {
        return;
    }
    let n = per_op.len() as f64;
    let secs = |f: fn(&MatchFig) -> u64| {
        median(&per_op.iter().map(|m| f(m) as f64 / 1e9).collect::<Vec<_>>())
    };
    let mut total = MatchFig::default();
    for m in per_op {
        total.add(m);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    t.set("netlist.compile_s", secs(|m| m.compile_ns));
    t.set("phase1.refine_s", secs(|m| m.refine_ns));
    t.set("phase1.iterations", total.iterations as f64 / n);
    t.set("phase1.cv_size", total.cv as f64 / n);
    t.set("phase2.wall_s", secs(|m| m.phase2_wall_ns));
    t.set("phase2.busy_s", secs(|m| m.busy_ns));
    t.set("phase2.candidates", total.candidates as f64 / n);
    t.set(
        "phase2.ns_per_candidate",
        ratio(total.busy_ns, total.candidates),
    );
    t.set("phase2.hit_ratio", ratio(total.instances, total.candidates));
    t.set("phase2.guesses", total.guesses as f64 / n);
    t.set("phase2.backtracks", total.backtracks as f64 / n);
    t.set(
        "phase2.worker_utilization",
        ratio(total.busy_ns, total.capacity_ns),
    );
    t.set("prune.pruned_ratio", ratio(total.pruned, total.cv));
}

/// Spans and samples of the front end, shared by the CLI replays.
#[derive(Default)]
struct FrontEnd {
    parse_s: Vec<f64>,
    elaborate_s: Vec<f64>,
    mb_per_s: Vec<f64>,
    teardown_s: Vec<f64>,
}

impl FrontEnd {
    /// Reads and parses `flat`, then elaborates its top, in spans under
    /// `root`. Returns the deck and the main circuit.
    fn load_main(
        &mut self,
        t: &mut Tracer,
        root: usize,
        op: u64,
        deck: &Deck,
    ) -> Result<(Doc, Netlist), String> {
        let flat = deck.flat_arg();
        let (doc, parse_ns) = t.time("spice.parse", Some(root), op, || load_doc(flat));
        let doc = doc?;
        let (main, elab_ns) = t.time("spice.elaborate", Some(root), op, || {
            main_from_doc(&doc, main_name(flat), flat)
        });
        self.parse_s.push(parse_ns as f64 / 1e9);
        self.elaborate_s.push(elab_ns as f64 / 1e9);
        self.mb_per_s
            .push(deck.deck_bytes as f64 / 1e6 / (parse_ns.max(1) as f64 / 1e9));
        Ok((doc, main?))
    }

    fn set(&self, t: &mut Traced) {
        t.set("spice.parse_s", median(&self.parse_s));
        t.set("spice.elaborate_s", median(&self.elaborate_s));
        t.set("spice.parse_mb_per_s", median(&self.mb_per_s));
        t.set("netlist.teardown_s", median(&self.teardown_s));
    }
}

/// Times building and pretty-printing the daemon's `/v1/find` reply
/// document for `resp` (the v1 report from `outcome_to_json` followed
/// by the daemon's fields, instance device names included) as an op-0
/// span; returns ns.
fn serialize_probe(t: &mut Tracer, resp: &FindResponse) -> u64 {
    let (text, ns) = t.time("report.serialize", None, 0, || {
        let Value::Obj(mut fields) = outcome_to_json(&resp.outcome) else {
            unreachable!("outcome_to_json answers an object");
        };
        let names = |n: &Vec<String>| Value::Arr(n.iter().cloned().map(Value::Str).collect());
        fields.extend([
            ("circuit".into(), Value::Str(resp.circuit.clone())),
            ("pattern".into(), Value::Str(resp.pattern.clone())),
            ("found".into(), Value::int(resp.outcome.count() as u64)),
            (
                "instance_devices".into(),
                Value::Arr(resp.instance_devices.iter().map(names).collect()),
            ),
            ("wall_ns".into(), Value::int(resp.wall_ns)),
            ("effort_spent".into(), Value::int(resp.effort_spent)),
        ]);
        Value::Obj(fields).pretty()
    });
    std::hint::black_box(text);
    ns
}

/// The human listing `subg find` prints without `--report`.
fn render_listing(resp: &FindResponse) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} instance(s) of `{}` in `{}`",
        resp.outcome.count(),
        resp.pattern,
        resp.circuit
    );
    for (i, names) in resp.instance_devices.iter().enumerate() {
        let _ = writeln!(out, "  #{i}: {}", names.join(" "));
    }
    let o = &resp.outcome;
    let _ = writeln!(
        out,
        "phase1: |CV|={} iters={}; phase2: {} tried, {} false, {} passes",
        o.phase1.cv_size,
        o.phase1.iterations,
        o.phase2.candidates_tried,
        o.phase2.false_candidates,
        o.phase2.passes
    );
    out
}

/// The engine find `subg find --threads 2` runs, metrics on.
fn cli_find_request<'a>(main: &'a Netlist, pattern: &'a Netlist) -> FindRequest<'a> {
    FindRequest {
        circuit: CircuitSource::Inline(main),
        pattern: PatternSource::Inline(pattern),
        options: RequestOptions {
            threads: 2,
            collect_metrics: true,
            ..RequestOptions::default()
        },
    }
}

/// Traced `cli_find`: alternates a real `subg find` (untraced) with an
/// in-process replay of the same operation (traced) until `seconds`
/// pass.
pub fn cli_find(subg: &Path, deck: &Deck, seconds: f64) -> Traced {
    let epoch = Instant::now();
    let mut tr = Traced::new(epoch);
    let mut fe = FrontEnd::default();
    let (mut untraced, mut traced, mut figs, mut find_wall) = (vec![], vec![], vec![], vec![]);
    let mut op = 0u64;
    let (mut last_cv, mut listing_bytes) = (0, 0);
    while untraced.is_empty() || epoch.elapsed().as_secs_f64() < seconds {
        match proc::run(subg, &e2e::find_args(deck)) {
            Ok(run) => {
                untraced.push(run.wall.as_secs_f64());
                tr.tally
                    .record(e2e::check_find_stdout(&run, deck).map(drop));
            }
            Err(msg) => tr.tally.fail(msg),
        }
        op += 1;
        let t = &mut tr.tracer;
        let root = t.open("op", None, op);
        let replay = (|| -> Result<(MatchFig, u64, usize), String> {
            let (doc, main) = fe.load_main(t, root, op, deck)?;
            let cells = deck.cells_arg();
            let (lib, _) = t.time("spice.parse", Some(root), op, || load_doc(cells));
            let lib = lib?;
            let (pattern, _) = t.time("spice.elaborate", Some(root), op, || {
                load_cell(&lib, CLI_PATTERN, cells)
            });
            let pattern = pattern?;
            let find = t.open("engine.find", Some(root), op);
            let resp = Engine::new()
                .find(&cli_find_request(&main, &pattern))
                .map_err(|e| e.to_string())?;
            t.close(find);
            let fig = MatchFig::from_outcome(&resp.outcome)?;
            t.derive(find, &fig.stages());
            let (listing, _) = t.time("report.render", Some(root), op, || render_listing(&resp));
            let found = resp.outcome.count();
            let wall_ns = resp.wall_ns;
            listing_bytes = listing.len() as u64;
            let (_, teardown_ns) = t.time("netlist.teardown", Some(root), op, move || {
                drop((listing, resp, pattern, lib, main, doc));
            });
            fe.teardown_s.push(teardown_ns as f64 / 1e9);
            Ok((fig, wall_ns, found))
        })();
        let wall = t.close(root);
        match replay.and_then(|(fig, wall_ns, found)| {
            check_count(CLI_PATTERN, found, deck.expected(CLI_PATTERN))?;
            Ok((fig, wall_ns))
        }) {
            Ok((fig, wall_ns)) => {
                tr.tally.pass();
                traced.push(wall as f64 / 1e9);
                find_wall.push(wall_ns as f64 / 1e9);
                last_cv = fig.cv;
                figs.push(fig);
            }
            Err(msg) => tr.tally.fail(msg),
        }
    }
    // One more in-process search, untimed, to time the serializer.
    let serialize = (|| -> Result<f64, String> {
        let doc = load_doc(deck.flat_arg())?;
        let main = main_from_doc(&doc, "flat", "flat")?;
        let lib = load_doc(deck.cells_arg())?;
        let pattern = load_cell(&lib, CLI_PATTERN, "cells")?;
        let resp = Engine::new()
            .find(&cli_find_request(&main, &pattern))
            .map_err(|e| e.to_string())?;
        Ok(serialize_probe(&mut tr.tracer, &resp) as f64 / 1e9)
    })();
    match serialize {
        Ok(s) => tr.set("report.serialize_s", s),
        Err(msg) => tr.tally.fail(msg),
    }
    fe.set(&mut tr);
    set_match_metrics(&mut tr, &figs);
    tr.set("engine.find_wall_s", median(&find_wall));
    tr.set_self_times(Some(median(&untraced)));
    tr.set_overhead(&traced, &untraced);
    let found = deck.expected(CLI_PATTERN) as u64;
    tr.inputs.push((
        "patterns".into(),
        Value::Obj(vec![(
            CLI_PATTERN.into(),
            e2e::pattern_props(last_cv, found, listing_bytes),
        )]),
    ));
    tr
}

/// The normalized library `subg hierarchize` loads: each cell
/// elaborated one level deep.
fn load_library(path: &str) -> Result<Vec<Netlist>, String> {
    let doc = load_doc(path)?;
    doc.cell_names()
        .iter()
        .map(|name| load_cell_hierarchical(&doc, name, path))
        .collect()
}

/// Replays the hierarchizer's fixpoint loop level by level with the
/// public `Extractor`, so each round's match and rewrite times and its
/// searches' own figures are visible. Returns the figures summed over
/// all rounds plus `(match_ns, rewrite_ns)`. Extraction keeps no
/// per-cell Phase I or Phase II stats, so Phase I sizes come from the
/// progress hook, backtracks from the rollback histogram, and guesses
/// stay 0.
fn extract_probe(main: &Netlist, cells: &[Netlist]) -> Result<(MatchFig, u64, u64), String> {
    let hz = Hierarchizer::new(cells).map_err(|e| e.to_string())?;
    let phase1 = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let seen = Arc::clone(&phase1);
    let mut opts = hier_options(main)?;
    opts.on_progress = Some(ProgressHook::new(move |ev| {
        if let ProgressEvent::Phase1Finished {
            iterations,
            cv_size,
        } = ev
        {
            seen.0.fetch_add(*iterations as u64, Ordering::Relaxed);
            seen.1.fetch_add(*cv_size as u64, Ordering::Relaxed);
        }
    }));
    let mut extractors: Vec<Extractor> = hz
        .levels()
        .iter()
        .map(|level| {
            let mut ex = Extractor::new();
            for c in level {
                ex.add_cell(c.clone());
            }
            ex.set_options(opts.clone());
            ex
        })
        .collect();
    let (mut fig, mut match_ns, mut rewrite_ns) = (MatchFig::default(), 0, 0);
    let mut current = main.clone();
    let mut minted = 0usize;
    loop {
        let mut replaced = 0;
        for ex in &mut extractors {
            ex.set_composite_offset(minted);
            let (next, rep) = ex.extract(&current).map_err(|e| e.to_string())?;
            let metrics = rep
                .metrics
                .as_ref()
                .ok_or("extract report has no metrics")?;
            for cell in &metrics.cells {
                match_ns += cell.match_ns;
                rewrite_ns += cell.replace_ns;
                if let Some(m) = &cell.match_metrics {
                    fig.compile_ns += m.compile_ns;
                    fig.refine_ns += m.phase1_refine_ns;
                    fig.select_ns += m.phase1_select_ns;
                    fig.phase2_wall_ns += m.phase2_wall_ns;
                    fig.busy_ns += m.worker_busy_ns.iter().sum::<u64>();
                    fig.capacity_ns += m.threads_used as u64 * m.phase2_wall_ns;
                    fig.candidates += m.counters.get("candidates.checked");
                    fig.instances += m.counters.get("instances.reported");
                    fig.pruned += m.counters.get("index.pruned_candidates");
                    fig.backtracks += m.backtrack_depth_hist.count();
                }
            }
            minted += rep.instances.len();
            replaced += rep.instances.len();
            current = next;
        }
        if replaced == 0 {
            break;
        }
    }
    fig.iterations = phase1.0.load(Ordering::Relaxed);
    fig.cv = phase1.1.load(Ordering::Relaxed);
    Ok((fig, match_ns, rewrite_ns))
}

/// The match options `subg hierarchize` runs with.
fn hier_options(main: &Netlist) -> Result<subgemini::MatchOptions, String> {
    RequestOptions {
        collect_metrics: true,
        ..RequestOptions::default()
    }
    .lower(main, None)
    .map_err(|e| e.to_string())
}

/// Traced `hierarchize`: alternates a real `subg hierarchize`
/// (untraced) with an in-process replay (traced) until `seconds` pass,
/// then runs one [`extract_probe`] for the match/rewrite split.
pub fn hierarchize(subg: &Path, deck: &Deck, out: &Path, seconds: f64) -> Traced {
    let epoch = Instant::now();
    let mut tr = Traced::new(epoch);
    let mut fe = FrontEnd::default();
    let out_arg = out.to_str().expect("work paths are UTF-8");
    let (mut untraced, mut traced, mut write_s) = (vec![], vec![], vec![]);
    let (mut sweeps, mut rounds, mut round_s) = (vec![], vec![], vec![]);
    let mut last_report = None;
    let mut op = 0u64;
    while untraced.is_empty() || epoch.elapsed().as_secs_f64() < seconds {
        match e2e::run_hierarchize(subg, &e2e::hier_args(deck, out_arg), out) {
            Ok(run) => {
                untraced.push(run.wall.as_secs_f64());
                tr.tally
                    .record(e2e::check_hier(run.exit.code, &run.stdout, out, deck).map(drop));
            }
            Err(msg) => tr.tally.fail(msg),
        }
        op += 1;
        let t = &mut tr.tracer;
        let root = t.open("op", None, op);
        let replay = (|| -> Result<(), String> {
            let (doc, main) = fe.load_main(t, root, op, deck)?;
            let (cells, _) = t.time("spice.parse", Some(root), op, || {
                load_library(deck.cells_arg())
            });
            let cells = cells?;
            let (hz, _) = t.time("hier.setup", Some(root), op, || -> Result<_, String> {
                let mut hz = Hierarchizer::new(&cells).map_err(|e| e.to_string())?;
                hz.set_options(hier_options(&main)?);
                Ok(hz)
            });
            let hz = hz?;
            let run = t.open("hier.run", Some(root), op);
            let mut round_start = t.now();
            let (mut n_rounds, mut in_rounds) = (0u64, 0u64);
            let outcome = hz
                .run_observed(&main, |_| {
                    let now = t.now();
                    t.record("hier.round", round_start, now, Some(run), op);
                    n_rounds += 1;
                    in_rounds += now - round_start;
                    round_start = now;
                })
                .map_err(|e| e.to_string())?;
            t.close(run);
            let (text, _) = t.time("report.render", Some(root), op, || {
                outcome.report.render_text()
            });
            let (written, ns) = t.time("spice.write", Some(root), op, || {
                let deck_text =
                    subgemini_spice::write_hierarchical(&outcome.top, &outcome.used_cells());
                std::fs::write(out, deck_text).map_err(|e| format!("{out_arg}: {e}"))
            });
            written?;
            write_s.push(ns as f64 / 1e9);
            sweeps.push(outcome.report.sweeps as f64);
            rounds.push(n_rounds as f64);
            round_s.push(in_rounds as f64 / 1e9);
            let mut outcome = outcome;
            let report = std::mem::take(&mut outcome.report);
            let (_, teardown_ns) = t.time("netlist.teardown", Some(root), op, move || {
                drop((text, outcome, hz, cells, main, doc));
            });
            fe.teardown_s.push(teardown_ns as f64 / 1e9);
            for cell in PATTERNS {
                check_count(cell, report.count_of(cell), deck.expected(cell))?;
            }
            if report.unabsorbed_devices != 0 {
                return Err(format!("unabsorbed devices: {}", report.unabsorbed_devices));
            }
            last_report = Some(report);
            Ok(())
        })();
        let wall = t.close(root);
        match replay {
            Ok(()) => {
                tr.tally.pass();
                traced.push(wall as f64 / 1e9);
            }
            Err(msg) => tr.tally.fail(msg),
        }
    }
    if let Some(report) = last_report {
        let (text, ns) = tr
            .tracer
            .time("report.serialize", None, 0, || report.to_json().pretty());
        std::hint::black_box(text);
        tr.set("report.serialize_s", ns as f64 / 1e9);
    }
    let probe = (|| -> Result<(MatchFig, u64, u64), String> {
        let doc = load_doc(deck.flat_arg())?;
        let main = main_from_doc(&doc, "flat", "flat")?;
        let cells = load_library(deck.cells_arg())?;
        let id = tr.tracer.open("hier.extract_probe", None, 0);
        let out = extract_probe(&main, &cells);
        tr.tracer.close(id);
        out
    })();
    match probe {
        Ok((fig, match_ns, rewrite_ns)) => {
            set_match_metrics(&mut tr, &[fig]);
            tr.set("hier.match_s", match_ns as f64 / 1e9);
            tr.set("hier.rewrite_s", rewrite_ns as f64 / 1e9);
        }
        Err(msg) => tr.tally.fail(msg),
    }
    fe.set(&mut tr);
    tr.set("spice.write_s", median(&write_s));
    tr.set("hier.sweeps", median(&sweeps));
    tr.set("hier.rounds", median(&rounds));
    tr.set("hier.round_s", median(&round_s));
    tr.set_self_times(Some(median(&untraced)));
    tr.set_overhead(&traced, &untraced);
    tr
}

/// Traced `serve_find`: traces the daemon's set-up work in-process,
/// then runs the closed loop against a real daemon with every other
/// round-robin cycle asking for metrics (traced) and the rest plain
/// (untraced).
///
/// # Errors
///
/// Unreadable deck files or a daemon that cannot be set up.
pub fn serve_find(subg: &Path, deck: &Deck, seconds: f64) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut tr = Traced::new(epoch);
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let (flat, cells) = (read(&deck.flat)?, read(&deck.cells)?);

    // The daemon's registration work, replayed in-process.
    let t = &mut tr.tracer;
    let text = std::str::from_utf8(&flat).map_err(|_| "deck is not UTF-8")?;
    let (doc, parse_ns) = t.time("spice.parse", None, 0, || {
        parse_text(text, SourceKind::Spice, "chip")
    });
    let doc = doc?;
    let (main, elab_ns) = t.time("spice.elaborate", None, 0, || {
        main_from_doc(&doc, "chip", "chip")
    });
    let main = main?;
    drop(doc);
    let (_, build_ns) = t.time("netlist.artifact_build", None, 0, || {
        std::hint::black_box(Artifact::build(&main).encode());
    });
    let engine = Engine::new();
    let (_, register_ns) = t.time("engine.register", None, 0, || {
        engine.register_circuit("chip", main);
    });
    let lib_text = std::str::from_utf8(&cells).map_err(|_| "library is not UTF-8")?;
    let lib_doc = parse_text(lib_text, SourceKind::Spice, "lib")?;
    let lib = lib_doc
        .cell_names()
        .iter()
        .map(|name| load_cell(&lib_doc, name, "lib"))
        .collect::<Result<Vec<_>, _>>()?;
    engine.register_library("lib", lib);
    tr.set("spice.parse_s", parse_ns as f64 / 1e9);
    tr.set("spice.elaborate_s", elab_ns as f64 / 1e9);
    tr.set(
        "spice.parse_mb_per_s",
        deck.deck_bytes as f64 / 1e6 / (parse_ns.max(1) as f64 / 1e9),
    );
    tr.set("netlist.artifact_build_s", build_ns as f64 / 1e9);
    tr.set("engine.register_s", register_ns as f64 / 1e9);

    // The real daemon, traced from the client side.
    let setup = tr.tracer.open("serve.setup", None, 0);
    let daemon = e2e::start_serving(subg, &flat, &cells, deck)?;
    tr.tracer.close(setup);
    let traced_cycle = |i: usize| (i / PATTERNS.len()) % 2 == 1;
    let (tally, replies, _) = e2e::closed_loop(&daemon.addr, deck, seconds, traced_cycle);
    tr.tally.merge(tally);
    e2e::stop_serving(daemon, &mut tr.tally);

    // The reply serializer, timed in-process once per pattern; each
    // traced reply gets its pattern's time as a derived span.
    let mut serialize_ns = [0u64; PATTERNS.len()];
    for (p, cell) in PATTERNS.iter().enumerate() {
        let resp = engine
            .find(&FindRequest {
                circuit: CircuitSource::Registered("chip"),
                pattern: PatternSource::Library {
                    library: "lib",
                    cell,
                },
                options: RequestOptions::default(),
            })
            .map_err(|e| e.to_string())?;
        serialize_ns[p] = serialize_probe(&mut tr.tracer, &resp);
    }

    let mut figs = vec![];
    let (mut find_wall, mut overhead, mut ttfb, mut transfer, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for (i, r) in &replies {
        let total = r.reply.total.as_secs_f64();
        if !traced_cycle(*i) {
            continue;
        }
        let fig = match r
            .report
            .as_deref()
            .ok_or_else(|| "no report".to_string())
            .and_then(|text| {
                json::parse(text)
                    .map_err(|e| e.to_string())
                    .and_then(|v| MatchFig::from_report(&v))
            }) {
            Ok(f) => f,
            Err(msg) => {
                tr.tally.fail(format!("{}: {msg}", PATTERNS[r.pattern]));
                continue;
            }
        };
        let op = *i as u64 + 1;
        let t = &mut tr.tracer;
        let start = r.reply.started.duration_since(epoch).as_nanos() as u64;
        let at = |d: std::time::Duration| start + d.as_nanos() as u64;
        let root = t.record("op", start, at(r.reply.total), None, op);
        t.record("serve.send", start, at(r.reply.sent), Some(root), op);
        // Server time outside the search and the serializer (request
        // framing, body parsing, queueing, socket writes) is the wait
        // span's self time: layer `op`, i.e. unattributed.
        let wait = t.record(
            "op.wait",
            at(r.reply.sent),
            at(r.reply.first_byte),
            Some(root),
            op,
        );
        t.derive(
            wait,
            &[
                ("engine.find", r.wall_ns),
                ("report.serialize", serialize_ns[r.pattern]),
            ],
        );
        let find = t.spans().len() - 2;
        t.derive(find, &fig.stages());
        t.record(
            "serve.transfer",
            at(r.reply.first_byte),
            at(r.reply.total),
            Some(root),
            op,
        );
        figs.push(fig);
        find_wall.push(r.wall_ns as f64 / 1e9);
        overhead.push(total - r.wall_ns as f64 / 1e9);
        ttfb.push(r.reply.first_byte.as_secs_f64());
        transfer.push((r.reply.total - r.reply.first_byte).as_secs_f64());
        bytes.push(r.reply.bytes as f64);
    }

    let (_, teardown_ns) = tr
        .tracer
        .time("netlist.teardown", None, 0, move || drop(engine));

    tr.set("netlist.teardown_s", teardown_ns as f64 / 1e9);
    set_match_metrics(&mut tr, &figs);
    tr.set("engine.find_wall_s", median(&find_wall));
    let mean_ns = serialize_ns.iter().sum::<u64>() as f64 / serialize_ns.len() as f64;
    tr.set("report.serialize_s", mean_ns / 1e9);
    tr.set("serve.overhead_s", median(&overhead));
    tr.set("serve.ttfb_s", median(&ttfb));
    tr.set("serve.transfer_s", median(&transfer));
    tr.set("serve.response_bytes", median(&bytes));
    tr.set_self_times(None);
    // Window means on both sides, for the reason `e2e::window_means`
    // gives; a side's windows are its own whole cycles.
    let (traced, untraced): (Vec<_>, Vec<_>) =
        replies.iter().cloned().partition(|(i, _)| traced_cycle(*i));
    tr.set_overhead(&e2e::window_means(&traced), &e2e::window_means(&untraced));
    let mut props = Vec::new();
    for (p, cell) in PATTERNS.iter().enumerate() {
        if let Some((_, r)) = replies.iter().find(|(_, r)| r.pattern == p) {
            props.push((
                cell.to_string(),
                e2e::pattern_props(r.cv, r.found, r.reply.bytes as u64),
            ));
        }
    }
    tr.inputs.push(("patterns".into(), Value::Obj(props)));
    Ok(tr)
}
