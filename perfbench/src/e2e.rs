//! The untraced workloads: closed loops over the shipped `subg` binary,
//! timed from outside the process, every operation checked against the
//! planted counts.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use subgemini::metrics::json::Value;

use crate::deck::{check_count, Deck, PATTERNS};
use crate::http::{self, field_u64, Reply};
use crate::proc::{self, Daemon};
use crate::spans::{median, quantile};
use crate::{Metric, Tally};

/// Daemon starts (or deck generations) per run; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 5;

/// Closed-loop clients of `serve_find`. One: on a 2-core host a second
/// client puts two searches, two reply parsers and the daemon's writer
/// on two cores at once, and its latency tail then measures the
/// scheduler rather than the daemon.
pub const SERVE_CLIENTS: usize = 1;

/// The `serve_find` daemon's worker count.
pub const SERVE_WORKERS: usize = 2;

/// The pattern `cli_find` searches for.
pub const CLI_PATTERN: &str = "nand2";

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Checked operations and failures.
    pub tally: Tally,
    /// Latency samples, seconds: one per timed operation, except on
    /// `serve_find` (see [`window_means`]).
    pub latencies: Vec<f64>,
    /// Timed operations completed.
    pub ops: usize,
    /// Wall time of the timed loop, seconds.
    pub elapsed: f64,
    /// Peak RSS of the measured process(es), KiB.
    pub peak_rss_kb: u64,
    /// Each set-up repetition, seconds.
    pub setup: Vec<f64>,
    /// Input properties recorded next to the results.
    pub inputs: Vec<(String, Value)>,
}

impl E2e {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("latency_p50_s", quantile(&self.latencies, 0.5), "s"),
            Metric::new("latency_p90_s", quantile(&self.latencies, 0.9), "s"),
            Metric::new(
                "throughput_ops_s",
                self.ops as f64 / self.elapsed.max(1e-9),
                "1/s",
            ),
            Metric::new("peak_rss_mb", self.peak_rss_kb as f64 / 1024.0, "MB"),
            Metric::new("setup_s", median(&self.setup), "s"),
        ]
    }

    fn input(&mut self, key: &str, value: Value) {
        self.inputs.push((key.to_string(), value));
    }

    fn deck_inputs(&mut self, deck: &Deck) {
        self.input("devices", Value::int(deck.devices as u64));
        self.input("nets", Value::int(deck.nets as u64));
        self.input("deck_bytes", Value::int(deck.deck_bytes));
    }
}

/// Per-pattern input properties: |CV|, found, found/|CV|, reply bytes.
pub fn pattern_props(cv: u64, found: u64, bytes: u64) -> Value {
    Value::Obj(vec![
        ("cv_size".into(), Value::int(cv)),
        ("found".into(), Value::int(found)),
        (
            "hit_ratio".into(),
            Value::Num(found as f64 / cv.max(1) as f64),
        ),
        ("response_bytes".into(), Value::int(bytes)),
    ])
}

/// Generates the deck [`SETUP_REPEATS`] times, timing each; the CLI
/// workloads' set-up. Returns the last deck.
///
/// # Errors
///
/// File-system errors.
pub fn generate_timed(
    dir: &Path,
    seed: u64,
    devices: usize,
    setup: &mut Vec<f64>,
) -> Result<Deck, String> {
    let mut deck = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        deck = Some(Deck::generate(dir, seed, devices)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    Ok(deck.expect("at least one repeat"))
}

/// The `subg find` arguments of one `cli_find` operation.
pub fn find_args(deck: &Deck) -> [&str; 8] {
    [
        "find",
        deck.flat_arg(),
        "--lib",
        deck.cells_arg(),
        "--pattern",
        CLI_PATTERN,
        "--threads",
        "2",
    ]
}

/// Checks `subg find`'s human output: exit 0, the planted count on the
/// first line, no truncation line. Returns `(found, |CV|)`.
///
/// # Errors
///
/// Which check failed.
pub fn check_find_stdout(run: &proc::Run, deck: &Deck) -> Result<(u64, u64), String> {
    if run.exit.code != Some(0) {
        return Err(format!("subg find exited with {:?}", run.exit.code));
    }
    let text = std::str::from_utf8(&run.stdout).map_err(|_| "stdout is not UTF-8")?;
    let first = text.lines().next().unwrap_or("");
    let found: usize = first
        .strip_suffix("`")
        .and_then(|l| l.split_once(" instance(s) of `"))
        .filter(|(_, rest)| rest.starts_with(&format!("{CLI_PATTERN}`")))
        .and_then(|(n, _)| n.parse().ok())
        .ok_or_else(|| format!("unexpected first line `{first}`"))?;
    if text.contains("\ntruncated (") {
        return Err(format!("{CLI_PATTERN}: search was truncated"));
    }
    check_count(CLI_PATTERN, found, deck.expected(CLI_PATTERN))?;
    let cv = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("phase1: |CV|="))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .ok_or("no phase1 summary line")?;
    Ok((found as u64, cv))
}

/// `cli_find`: one `subg find` process per operation, closed loop.
/// `setup` holds the deck generation times.
pub fn cli_find(subg: &Path, deck: &Deck, seconds: f64, setup: Vec<f64>) -> E2e {
    let mut e = E2e {
        setup,
        ..E2e::default()
    };
    e.deck_inputs(deck);
    let args = find_args(deck);
    let mut props = None;
    let mut op = |e: &mut E2e, timed: bool| match proc::run(subg, &args) {
        Err(msg) => e.tally.fail(msg),
        Ok(run) => {
            if timed {
                e.ops += 1;
                e.latencies.push(run.wall.as_secs_f64());
                e.peak_rss_kb = e.peak_rss_kb.max(run.exit.max_rss_kb);
            }
            match check_find_stdout(&run, deck) {
                Ok((found, cv)) => {
                    e.tally.pass();
                    props = Some(pattern_props(cv, found, run.stdout.len() as u64));
                }
                Err(msg) => e.tally.fail(msg),
            }
        }
    };
    op(&mut e, false); // warm-up: checked, not timed
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        op(&mut e, true);
    }
    e.elapsed = t0.elapsed().as_secs_f64();
    if let Some(p) = props {
        e.input("patterns", Value::Obj(vec![(CLI_PATTERN.into(), p)]));
    }
    e
}

/// The `subg hierarchize` arguments of one operation.
pub fn hier_args<'a>(deck: &'a Deck, out: &'a str) -> [&'a str; 6] {
    [
        "hierarchize",
        deck.flat_arg(),
        "--library",
        deck.cells_arg(),
        "--out",
        out,
    ]
}

/// Runs one `subg hierarchize` operation after unlinking the previous
/// output deck, untimed (see [`crate::deck::unlink`]).
///
/// # Errors
///
/// Failures to remove the old deck or to run the process.
pub fn run_hierarchize(subg: &Path, args: &[&str], out: &Path) -> Result<proc::Run, String> {
    crate::deck::unlink(out)?;
    proc::run(subg, args)
}

/// Checks `subg hierarchize`'s text report against the planted counts
/// (every cell, no truncated level, no residue) and the written deck
/// (one `.subckt` per planted cell). Returns the deck's size.
///
/// # Errors
///
/// Which check failed.
pub fn check_hier(
    code: Option<i32>,
    stdout: &[u8],
    out: &Path,
    deck: &Deck,
) -> Result<u64, String> {
    if code != Some(0) {
        return Err(format!("subg hierarchize exited with {code:?}"));
    }
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8")?;
    if text.contains("truncated)") {
        return Err("a hierarchize level was truncated".into());
    }
    let mut found: BTreeMap<&str, usize> = BTreeMap::new();
    let mut residue = None;
    for line in text.lines() {
        if let Some(n) = line.strip_prefix("unabsorbed devices: ") {
            residue = n.trim().parse::<usize>().ok();
        } else if let Some(row) = line.strip_prefix("  ") {
            let mut it = row.split_whitespace();
            if let (Some(cell), Some(n)) = (it.next(), it.next()) {
                *found.entry(cell).or_insert(0) +=
                    n.parse::<usize>().map_err(|_| row.to_string())?;
            }
        }
    }
    for cell in PATTERNS {
        check_count(
            cell,
            found.get(cell).copied().unwrap_or(0),
            deck.expected(cell),
        )?;
    }
    match residue {
        Some(0) => {}
        other => return Err(format!("unabsorbed devices: {other:?}")),
    }
    let written = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let subckts = written
        .lines()
        .filter(|l| l.starts_with(".subckt "))
        .count();
    let planted = deck.expected.values().filter(|&&n| n > 0).count();
    if subckts != planted {
        return Err(format!(
            "written deck defines {subckts} cells, want {planted}"
        ));
    }
    Ok(written.len() as u64)
}

/// `hierarchize`: one `subg hierarchize` process per operation, closed
/// loop. `setup` holds the deck generation times.
pub fn hierarchize(subg: &Path, deck: &Deck, out: &Path, seconds: f64, setup: Vec<f64>) -> E2e {
    let mut e = E2e {
        setup,
        ..E2e::default()
    };
    e.deck_inputs(deck);
    let out_arg = out.to_str().expect("work paths are UTF-8");
    let args = hier_args(deck, out_arg);
    let mut sizes = (0u64, 0u64);
    let mut op = |e: &mut E2e, timed: bool| match run_hierarchize(subg, &args, out) {
        Err(msg) => e.tally.fail(msg),
        Ok(run) => {
            if timed {
                e.ops += 1;
                e.latencies.push(run.wall.as_secs_f64());
                e.peak_rss_kb = e.peak_rss_kb.max(run.exit.max_rss_kb);
            }
            match check_hier(run.exit.code, &run.stdout, out, deck) {
                Ok(written) => {
                    e.tally.pass();
                    sizes = (run.stdout.len() as u64, written);
                }
                Err(msg) => e.tally.fail(msg),
            }
        }
    };
    op(&mut e, false); // warm-up: checked, not timed
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        op(&mut e, true);
    }
    e.elapsed = t0.elapsed().as_secs_f64();
    e.input("response_bytes", Value::int(sizes.0));
    e.input("written_deck_bytes", Value::int(sizes.1));
    let found = PATTERNS
        .iter()
        .map(|c| (c.to_string(), Value::int(deck.expected(c) as u64)))
        .collect();
    e.input("found", Value::Obj(found));
    e
}

/// What one `/v1/find` reply carried, after its checks passed.
#[derive(Clone, Debug)]
pub struct FindReply {
    /// Index into [`PATTERNS`].
    pub pattern: usize,
    /// The exchange; its body is dropped once checked.
    pub reply: Reply,
    /// The v1 report part of the body (everything before the daemon's
    /// own fields), kept when metrics were requested.
    pub report: Option<String>,
    /// Instances found.
    pub found: u64,
    /// Phase I candidate-vector size.
    pub cv: u64,
    /// The engine's own search time.
    pub wall_ns: u64,
}

/// The `/v1/find` body for `cell`.
pub fn find_body(cell: &str, metrics: bool) -> String {
    format!(
        "{{\"circuit\":\"chip\",\"pattern\":{{\"library\":\"lib\",\"cell\":\"{cell}\"}},\
         \"options\":{{\"threads\":1,\"metrics\":{metrics}}}}}"
    )
}

/// Sends one find for `PATTERNS[pattern]` and checks the reply: HTTP
/// 200, a complete search, and the planted count.
///
/// # Errors
///
/// Which check failed.
pub fn find_request(
    addr: &str,
    deck: &Deck,
    pattern: usize,
    metrics: bool,
) -> Result<FindReply, String> {
    let cell = PATTERNS[pattern];
    let reply = http::post(addr, "/v1/find", find_body(cell, metrics).as_bytes())?;
    if reply.status != 200 {
        return Err(format!("{cell}: HTTP {}", reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "reply is not UTF-8")?;
    if !text.contains("\"completeness\": \"complete\"") {
        return Err(format!("{cell}: search was truncated"));
    }
    let field = |key| field_u64(text, key).ok_or_else(|| format!("{cell}: reply lacks {key}"));
    let found = field("found")?;
    check_count(cell, found as usize, deck.expected(cell))?;
    let cv = field("cv_size")?;
    let wall_ns = field("wall_ns")?;
    let report = metrics
        .then(|| {
            text.find(",\n  \"circuit\": ")
                .map(|end| format!("{}\n}}", &text[..end]))
        })
        .flatten();
    let mut reply = reply;
    reply.body = Vec::new();
    Ok(FindReply {
        pattern,
        reply,
        report,
        found,
        cv,
        wall_ns,
    })
}

/// Starts a daemon and registers the deck as circuit `chip` and the
/// library as `lib`, as `serve_find`'s set-up does.
///
/// # Errors
///
/// Start or registration failures.
pub fn start_serving(
    subg: &Path,
    flat: &[u8],
    cells: &[u8],
    deck: &Deck,
) -> Result<Daemon, String> {
    let daemon = Daemon::start(subg, SERVE_WORKERS)?;
    let chip = http::post(&daemon.addr, "/v1/circuits/chip", flat)?;
    let text = String::from_utf8_lossy(&chip.body);
    if chip.status != 200 || field_u64(&text, "devices") != Some(deck.devices as u64) {
        return Err(format!(
            "register circuit: HTTP {}: {}",
            chip.status,
            text.trim()
        ));
    }
    let lib = http::post(&daemon.addr, "/v1/libraries/lib", cells)?;
    if lib.status != 200 {
        return Err(format!("register library: HTTP {}", lib.status));
    }
    Ok(daemon)
}

/// Stops a daemon, tallying an unclean stop as a failure. Returns its
/// peak RSS in KiB.
pub fn stop_serving(daemon: Daemon, tally: &mut Tally) -> u64 {
    match daemon.shutdown() {
        Ok(stopped) if stopped.drained == 0 => {
            tally.pass();
            stopped.max_rss_kb
        }
        Ok(stopped) => {
            tally.fail(format!("shutdown drained {} searches", stopped.drained));
            stopped.max_rss_kb
        }
        Err(msg) => {
            tally.fail(msg);
            0
        }
    }
}

/// Runs [`SERVE_CLIENTS`] closed-loop clients against `addr` until
/// `seconds` pass, each sending the next pattern of a shared
/// round-robin. `on_reply` sees every checked reply with its request
/// index. Returns the tally and the loop's wall time.
pub fn closed_loop<F>(
    addr: &str,
    deck: &Deck,
    seconds: f64,
    metrics_on: F,
) -> (Tally, Vec<(usize, FindReply)>, f64)
where
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let per_client: Vec<(Tally, Vec<(usize, FindReply)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = Tally::default();
                    let mut replies = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        match find_request(addr, deck, i % PATTERNS.len(), metrics_on(i)) {
                            Ok(r) => {
                                tally.pass();
                                replies.push((i, r));
                            }
                            Err(msg) => tally.fail(msg),
                        }
                    }
                    (tally, replies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut replies = Vec::new();
    for (t, r) in per_client {
        tally.merge(t);
        replies.extend(r);
    }
    replies.sort_by_key(|(i, _)| *i);
    (tally, replies, elapsed)
}

/// The mean latency of every window of six consecutive requests
/// (indices `i .. i+5`, so one request per pattern), sliding by one
/// request. The six patterns' latencies form separate clusters, and the
/// plain median of the mix falls in the gap between the third and
/// fourth cluster, where it jumps with a single sample; quantiles of
/// window means do not. Sliding rather than disjoint windows gives the
/// upper quantiles six times as many samples. `replies` must be sorted
/// by index; a window with a missing index is skipped.
pub fn window_means(replies: &[(usize, FindReply)]) -> Vec<f64> {
    let n = PATTERNS.len();
    replies
        .windows(n)
        .filter(|w| w[n - 1].0 - w[0].0 == n - 1)
        .map(|w| {
            w.iter()
                .map(|(_, r)| r.reply.total.as_secs_f64())
                .sum::<f64>()
                / n as f64
        })
        .collect()
}

/// `serve_find`: a warm daemon queried by a closed-loop client.
///
/// # Errors
///
/// Unreadable deck files or a daemon that cannot be set up.
pub fn serve_find(subg: &Path, deck: &Deck, seconds: f64) -> Result<E2e, String> {
    let flat = std::fs::read(&deck.flat).map_err(|e| format!("{}: {e}", deck.flat.display()))?;
    let cells = std::fs::read(&deck.cells).map_err(|e| format!("{}: {e}", deck.cells.display()))?;
    let mut e = E2e::default();
    e.deck_inputs(deck);
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            stop_serving(d, &mut e.tally);
        }
        let t0 = Instant::now();
        daemon = Some(start_serving(subg, &flat, &cells, deck)?);
        e.setup.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one repeat");
    // Warm-up: each pattern once, checked, not timed.
    for p in 0..PATTERNS.len() {
        e.tally
            .record(find_request(&daemon.addr, deck, p, false).map(drop));
    }
    let (tally, replies, elapsed) = closed_loop(&daemon.addr, deck, seconds, |_| false);
    e.tally.merge(tally);
    e.elapsed = elapsed;
    e.ops = replies.len();
    e.latencies = window_means(&replies);
    e.peak_rss_kb = stop_serving(daemon, &mut e.tally);
    let mut props = Vec::new();
    for (p, cell) in PATTERNS.iter().enumerate() {
        if let Some((_, r)) = replies.iter().find(|(_, r)| r.pattern == p) {
            props.push((
                cell.to_string(),
                pattern_props(r.cv, r.found, r.reply.bytes as u64),
            ));
        }
    }
    e.input("patterns", Value::Obj(props));
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(i: usize, ms: u64) -> (usize, FindReply) {
        let total = Duration::from_millis(ms);
        let reply = Reply {
            started: Instant::now(),
            status: 200,
            body: Vec::new(),
            bytes: 0,
            sent: Duration::ZERO,
            first_byte: total,
            total,
        };
        let r = FindReply {
            pattern: i % PATTERNS.len(),
            reply,
            report: None,
            found: 0,
            cv: 0,
            wall_ns: 0,
        };
        (i, r)
    }

    #[test]
    fn windows_slide_and_skip_gaps() {
        // Indices 0..=7 then 9..=14: windows start at 0, 1, 2 and 9.
        let replies: Vec<_> = (0..8)
            .chain(9..15)
            .map(|i| reply(i, 6 * i as u64))
            .collect();
        let means: Vec<f64> = window_means(&replies)
            .iter()
            .map(|s| (s * 1e3).round())
            .collect();
        assert_eq!(means, vec![15.0, 21.0, 27.0, 69.0]);
    }
}
