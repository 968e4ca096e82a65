//! The repository benchmark: three closed-loop workloads over one
//! seeded `hierarchical_chip` deck, driving the shipped `subg` binary.
//! Untraced runs report the end-to-end metrics; traced runs replay the
//! workload in-process with spans around each layer's public functions
//! and report the per-layer metrics. `BENCHMARK.md` explains the
//! workloads and what each metric should move.

pub mod deck;
pub mod e2e;
pub mod http;
pub mod proc;
pub mod spans;
pub mod traced;

use std::path::PathBuf;

use subgemini::metrics::json::Value;

use crate::deck::Deck;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Every per-layer metric a traced run reports, with its unit, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("spice.parse_s", "s"),
    ("spice.elaborate_s", "s"),
    ("spice.parse_mb_per_s", "MB/s"),
    ("spice.write_s", "s"),
    ("netlist.compile_s", "s"),
    ("netlist.artifact_build_s", "s"),
    ("netlist.teardown_s", "s"),
    ("phase1.refine_s", "s"),
    ("phase1.iterations", "count"),
    ("phase1.cv_size", "count"),
    ("phase2.wall_s", "s"),
    ("phase2.busy_s", "s"),
    ("phase2.candidates", "count"),
    ("phase2.ns_per_candidate", "ns"),
    ("phase2.hit_ratio", "ratio"),
    ("phase2.guesses", "count"),
    ("phase2.backtracks", "count"),
    ("phase2.worker_utilization", "ratio"),
    ("prune.pruned_ratio", "ratio"),
    ("engine.register_s", "s"),
    ("engine.find_wall_s", "s"),
    ("report.serialize_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.ttfb_s", "s"),
    ("serve.transfer_s", "s"),
    ("serve.response_bytes", "bytes"),
    ("hier.sweeps", "count"),
    ("hier.rounds", "count"),
    ("hier.round_s", "s"),
    ("hier.match_s", "s"),
    ("hier.rewrite_s", "s"),
    ("cli.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("spice.self_s", "s"),
    ("netlist.self_s", "s"),
    ("phase1.self_s", "s"),
    ("phase2.self_s", "s"),
    ("engine.self_s", "s"),
    ("report.self_s", "s"),
    ("serve.self_s", "s"),
    ("hier.self_s", "s"),
];

/// Checked operations and their failures.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts a passed operation.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg.into());
        }
    }

    /// Counts an operation by its check's result.
    pub fn record(&mut self, check: Result<(), String>) {
        match check {
            Ok(()) => self.pass(),
            Err(msg) => self.fail(msg),
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }
}

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One `subg find --pattern nand2 --threads 2` process per op.
    CliFind,
    /// A warm `subg serve` daemon, one closed-loop client.
    ServeFind,
    /// One `subg hierarchize --out` process per op.
    Hierarchize,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "cli_find" => Some(Workload::CliFind),
            "serve_find" => Some(Workload::ServeFind),
            "hierarchize" => Some(Workload::Hierarchize),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliFind => "cli_find",
            Workload::ServeFind => "serve_find",
            Workload::Hierarchize => "hierarchize",
        }
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced (end-to-end) one.
    pub trace: bool,
    /// The `subg` binary.
    pub subg: PathBuf,
    /// Target device count of the generated chip.
    pub devices: usize,
    /// Directory for decks, written decks and span files.
    pub work: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Checked operations.
    pub tally: Tally,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Input properties recorded next to the results.
    pub inputs: Vec<(String, Value)>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.tally.failed == 0)),
            ("attempted".into(), Value::int(self.tally.attempted)),
            ("failed".into(), Value::int(self.tally.failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .compact()
    }

    /// The input-properties line printed before the result, with the
    /// run's `failed_ratio` (failed / attempted).
    pub fn inputs_json(&self) -> String {
        let ratio = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        Value::Obj(vec![
            ("inputs".into(), Value::Obj(self.inputs.clone())),
            ("failed_ratio".into(), Value::Num(ratio)),
        ])
        .compact()
    }
}

/// Generates the deck for `cfg` and runs its workload, untraced or
/// traced.
///
/// # Errors
///
/// Failures before any operation could run (deck generation, daemon
/// set-up); failed operations are tallied in the report instead.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let deck_dir = cfg.work.join("deck");
    let mut setup = Vec::new();
    let deck = match (cfg.workload, cfg.trace) {
        (Workload::ServeFind, _) | (_, true) => Deck::generate(&deck_dir, cfg.seed, cfg.devices)?,
        _ => e2e::generate_timed(&deck_dir, cfg.seed, cfg.devices, &mut setup)?,
    };
    let out = cfg.work.join("hierarchized.sp");
    run_on(cfg, &deck, setup, &out)
}

/// Runs `cfg`'s workload on an existing deck. `setup` holds the deck
/// generation times of the CLI workloads.
///
/// # Errors
///
/// See [`run`].
pub fn run_on(
    cfg: &Config,
    deck: &Deck,
    setup: Vec<f64>,
    out: &std::path::Path,
) -> Result<Report, String> {
    let samples = |n: usize| ("samples".to_string(), Value::int(n as u64));
    if !cfg.trace {
        let e = match cfg.workload {
            Workload::CliFind => e2e::cli_find(&cfg.subg, deck, cfg.seconds, setup),
            Workload::ServeFind => e2e::serve_find(&cfg.subg, deck, cfg.seconds)?,
            Workload::Hierarchize => e2e::hierarchize(&cfg.subg, deck, out, cfg.seconds, setup),
        };
        let mut inputs = e.inputs.clone();
        inputs.push(samples(e.latencies.len()));
        inputs.push(("ops".to_string(), Value::int(e.ops as u64)));
        return Ok(Report {
            metrics: e.metrics(),
            tally: e.tally,
            inputs,
        });
    }
    let t = match cfg.workload {
        Workload::CliFind => traced::cli_find(&cfg.subg, deck, cfg.seconds),
        Workload::ServeFind => traced::serve_find(&cfg.subg, deck, cfg.seconds)?,
        Workload::Hierarchize => traced::hierarchize(&cfg.subg, deck, out, cfg.seconds),
    };
    let spans_path = cfg.work.join(format!(
        "{}-seed{}.spans.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&spans_path, t.tracer.to_json().compact())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, t.layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let mut inputs = vec![
        ("devices".to_string(), Value::int(deck.devices as u64)),
        ("nets".to_string(), Value::int(deck.nets as u64)),
        ("deck_bytes".to_string(), Value::int(deck.deck_bytes)),
        (
            "spans".to_string(),
            Value::Str(spans_path.display().to_string()),
        ),
    ];
    inputs.extend(t.inputs);
    Ok(Report {
        tally: t.tally,
        metrics,
        inputs,
    })
}
