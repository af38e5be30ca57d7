//! The `avt-serve` process under test: start, probe, measure, stop.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use avt_serve::Request;

use crate::client::Probe;

/// Linux reports process CPU times in ticks of this many per second.
const TICKS_PER_SEC: f64 = 100.0;

/// A running server. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The bound address, scraped from the server's first stdout line.
    pub addr: String,
}

impl Server {
    /// Spawn `bin` with `args` plus an ephemeral loopback address, and
    /// wait for its `listening on` line. The server inherits this
    /// process's environment, whose `AVT_*` switches `main` has pinned.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("avt-serve listening on ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, stdout, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address ({read:?}, {line:?})"))
            }
        }
    }

    /// Spawn and time set-up: from process start to the first answered
    /// request.
    pub fn start_timed(bin: &Path, args: &[String]) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let server = Server::spawn(bin, args)?;
        let mut probe = Probe::connect(&server.addr, Duration::from_secs(10))?;
        probe.call(&Request::Info)?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system, all threads) the server has used.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_s_of(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (VmHWM) in MB.
    pub fn hwm_mb(&self) -> Result<f64, String> {
        hwm_mb_of(&format!("/proc/{}/status", self.pid()))
    }

    /// Send the shutdown verb and wait for a clean exit (status 0).
    pub fn stop(mut self) -> Result<(), String> {
        Probe::connect(&self.addr, Duration::from_secs(5))?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    // The exit summary is not needed; drain it so the
                    // pipe never holds the process.
                    let mut rest = String::new();
                    let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                    return Ok(());
                }
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// CPU seconds from a `/proc/<pid>/stat` file (utime + stime).
pub fn cpu_s_of(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {i}"))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SEC)
}

/// Host-wide CPU time from `/proc/stat`: (stolen by the hypervisor, all).
pub fn host_cpu_ticks() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal …
    let steal = fields.get(7).copied().unwrap_or(0);
    Ok((steal, fields.iter().take(8).sum()))
}

/// Share of the host's CPU time stolen by the hypervisor since `since`
/// (a [`host_cpu_ticks`] reading), for the report: a shared host's other
/// tenants slow every figure of a run they overlap.
pub fn steal_share(since: (u64, u64)) -> Result<f64, String> {
    let now = host_cpu_ticks()?;
    Ok((now.0 - since.0) as f64 / (now.1 - since.1).max(1) as f64)
}

/// VmHWM in MB from a `/proc/<pid>/status` file.
pub fn hwm_mb_of(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
