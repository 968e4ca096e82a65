//! `perfbench` — one benchmark run. Normally started through
//! `bash perfbench/run.sh`, which builds `subg` and passes `--subg`.
//!
//! ```text
//! perfbench --subg PATH --workload cli_find|serve_find|hierarchize
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Works in `.bench_work/<workload>` under the current directory.
//! Prints an input-properties line, then the result line. Exits 1 when
//! any operation failed its check, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use subg_perfbench::{run, Config, Workload};

/// Target device count of the benchmark chip.
const DEVICES: usize = 200_000;

const USAGE: &str = "usage: perfbench --subg PATH --workload cli_find|serve_find|hierarchize \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Config, String> {
    let mut subg = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--subg" => subg = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        subg: subg.ok_or("missing --subg")?,
        devices: DEVICES,
        work: PathBuf::from(".bench_work").join(workload.name()),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(1);
        }
    };
    for msg in &report.tally.failures {
        eprintln!("perfbench: failed: {msg}");
    }
    println!("{}", report.inputs_json());
    println!("{}", report.result_json());
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
