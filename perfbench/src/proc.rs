//! Child processes: timed one-shot `subg` runs with their peak RSS, and
//! a daemon handle that never leaves a server behind.
//!
//! Children are reaped with `wait4(2)` so each run's own `ru_maxrss`
//! is read, not the running maximum over all children.

use std::io::{self, BufRead, BufReader, Read};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// How a child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size in KiB.
    pub max_rss_kb: u64,
}

/// Blocks until child `pid` ends and returns its exit and peak RSS.
fn reap(pid: u32) -> io::Result<Exit> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as wait4 expects; `pid` is a child this process spawned and
        // has not reaped (the caller holds its `Spawned`).
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        max_rss_kb: u64::try_from(usage.ru_maxrss).unwrap_or(0),
    })
}

/// A spawned child that is killed and reaped on drop unless it was
/// reaped already, so a panic never leaves it running.
struct Spawned {
    child: Child,
    reaped: bool,
}

impl Spawned {
    fn start(cmd: &mut Command) -> Result<Spawned, String> {
        let child = cmd.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
        Ok(Spawned {
            child,
            reaped: false,
        })
    }

    fn take_stdout(&mut self) -> ChildStdout {
        self.child.stdout.take().expect("stdout is piped")
    }

    fn wait(&mut self) -> Result<Exit, String> {
        let exit = reap(self.child.id()).map_err(|e| format!("wait4: {e}"))?;
        self.reaped = true;
        Ok(exit)
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(self.child.id());
        }
    }
}

/// One finished `subg` run.
#[derive(Debug)]
pub struct Run {
    /// Spawn to exit.
    pub wall: Duration,
    /// How it ended.
    pub exit: Exit,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
}

/// Runs `program args...` to completion, reading its stdout; stderr
/// passes through.
///
/// # Errors
///
/// Spawn, read and wait failures.
pub fn run(program: &Path, args: &[&str]) -> Result<Run, String> {
    let t0 = Instant::now();
    let mut child = Spawned::start(
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped()),
    )?;
    let mut stdout = Vec::new();
    child
        .take_stdout()
        .read_to_end(&mut stdout)
        .map_err(|e| format!("read stdout: {e}"))?;
    let exit = child.wait()?;
    Ok(Run {
        wall: t0.elapsed(),
        exit,
        stdout,
    })
}

/// A running `subg serve` daemon.
pub struct Daemon {
    child: Spawned,
    lines: BufReader<ChildStdout>,
    /// The `host:port` it listens on.
    pub addr: String,
}

/// What a clean daemon shutdown reported.
#[derive(Clone, Copy, Debug)]
pub struct Stopped {
    /// Searches cancelled at shutdown; 0 for an idle daemon.
    pub drained: u64,
    /// The daemon's peak RSS in KiB.
    pub max_rss_kb: u64,
}

impl Daemon {
    /// Starts `subg serve` on an ephemeral local port and waits for its
    /// `listening` handshake line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the daemon exiting before it listens.
    pub fn start(subg: &Path, workers: usize) -> Result<Daemon, String> {
        let workers = workers.to_string();
        let mut child = Spawned::start(
            Command::new(subg)
                .args(["serve", "--addr", "127.0.0.1:0", "--workers", &workers])
                .stdin(Stdio::null())
                .stdout(Stdio::piped()),
        )?;
        let mut lines = BufReader::new(child.take_stdout());
        let mut line = String::new();
        loop {
            line.clear();
            let n = lines
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?;
            if n == 0 {
                return Err("daemon exited before its listening line".into());
            }
            if line.contains("\"event\":\"listening\"") {
                break;
            }
        }
        let addr = line
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| format!("no addr in `{}`", line.trim()))?
            .to_string();
        Ok(Daemon { child, lines, addr })
    }

    /// Stops the daemon with `POST /v1/shutdown`, reads its `shutdown`
    /// line and reaps it.
    ///
    /// # Errors
    ///
    /// A refused shutdown, a missing shutdown line, or a non-zero exit.
    pub fn shutdown(mut self) -> Result<Stopped, String> {
        let reply = http::post(&self.addr, "/v1/shutdown", b"")?;
        if reply.status != 200 {
            return Err(format!("shutdown answered {}", reply.status));
        }
        let mut rest = String::new();
        self.lines
            .read_to_string(&mut rest)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let exit = self.child.wait()?;
        if exit.code != Some(0) {
            return Err(format!("daemon exited with {:?}", exit.code));
        }
        let line = rest
            .lines()
            .find(|l| l.contains("\"event\":\"shutdown\""))
            .ok_or("daemon printed no shutdown line")?;
        let drained = line
            .split("\"drained\":")
            .nth(1)
            .and_then(|v| v.trim_end_matches('}').trim().parse().ok())
            .ok_or_else(|| format!("no drained count in `{line}`"))?;
        Ok(Stopped {
            drained,
            max_rss_kb: exit.max_rss_kb,
        })
    }
}
