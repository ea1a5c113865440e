//! Starting, querying and stopping the program under test: one
//! `amnesiac serve` process, or an `amnesiac cluster` router with its
//! worker processes.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use amnesiac_serve::{ClientConfig, Request};
use amnesiac_telemetry::Json;

use crate::proc::{peak_rss_mb, process_tree};

/// Pool workers of a single server, and worker processes of a cluster.
pub const WORKERS: usize = 2;

/// How long a process may take to print its listening address.
const START_BUDGET: Duration = Duration::from_secs(60);

/// How long a drained process may take to exit before it is killed.
const STOP_BUDGET: Duration = Duration::from_secs(30);

/// A running server or cluster. Dropping it kills the process tree.
pub struct Served {
    child: Child,
    addr: SocketAddr,
    cluster: bool,
}

impl Served {
    /// Starts `amnesiac serve` (or `amnesiac cluster`) on an ephemeral
    /// port and waits until it is listening. Its stdout goes to a file
    /// under `work_dir`, where the listening address is read from.
    pub fn start(amnesiac: &Path, work_dir: &Path, cluster: bool) -> Result<Served, String> {
        let log: PathBuf = work_dir.join(if cluster { "cluster.out" } else { "serve.out" });
        let stdout = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let workers = WORKERS.to_string();
        let verb = if cluster { "cluster" } else { "serve" };
        let child = Command::new(amnesiac)
            .args([verb, "--port", "0", "--workers", workers.as_str()])
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", amnesiac.display()))?;
        let mut served = Served {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            cluster,
        };
        let deadline = Instant::now() + START_BUDGET;
        loop {
            if let Some(addr) = fs::read_to_string(&log)
                .ok()
                .and_then(|t| listening_addr(&t))
            {
                served.addr = addr;
                break;
            }
            if let Ok(Some(status)) = served.child.try_wait() {
                return Err(format!("amnesiac {verb} exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "amnesiac {verb} did not listen within {START_BUDGET:?}"
                ));
            }
            thread::sleep(Duration::from_millis(2));
        }
        if cluster {
            served.await_workers()?;
        }
        Ok(served)
    }

    /// Waits until the router reports every worker up.
    fn await_workers(&self) -> Result<(), String> {
        let deadline = Instant::now() + START_BUDGET;
        loop {
            let up = self
                .stats()
                .ok()
                .and_then(|s| s.get("workers_up").and_then(Json::as_f64))
                .unwrap_or(0.0);
            if up as usize >= WORKERS {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("cluster has {up} of {WORKERS} workers up"));
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `stats` payload of the front process (server or router).
    pub fn stats(&self) -> Result<Json, String> {
        stats_of(self.addr)
    }

    /// The `stats` payloads of the processes that own a compile cache:
    /// the server itself, or each cluster worker.
    pub fn cache_owner_stats(&self) -> Result<Vec<Json>, String> {
        if !self.cluster {
            return Ok(vec![self.stats()?]);
        }
        let router = self.stats()?;
        let rows = router
            .get("workers")
            .and_then(Json::as_arr)
            .ok_or("router stats carry no worker rows")?;
        rows.iter()
            .map(|row| {
                let addr: SocketAddr = row
                    .get("addr")
                    .and_then(Json::as_str)
                    .and_then(|a| a.parse().ok())
                    .ok_or("worker row carries no address")?;
                stats_of(addr)
            })
            .collect()
    }

    /// Summed peak RSS of the process tree, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        process_tree(self.child.id())
            .into_iter()
            .map(peak_rss_mb)
            .sum()
    }

    /// Drains the process with a `shutdown` request and waits for it
    /// (and, for a cluster, its workers) to exit; kills it on timeout.
    pub fn stop(mut self) -> Result<(), String> {
        let sent = ClientConfig::new()
            .read_timeout(Some(STOP_BUDGET))
            .connect(self.addr)
            .and_then(|mut c| c.call(&Request::new("shutdown").with_id("stop")));
        let deadline = Instant::now() + STOP_BUDGET;
        while sent.is_ok() && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            thread::sleep(Duration::from_millis(5));
        }
        Err("server did not stop on `shutdown`; killed".to_string())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        // descendants first, so cluster workers are not left orphaned
        let tree = process_tree(self.child.id());
        for pid in tree.iter().skip(1).rev() {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stats_of(addr: SocketAddr) -> Result<Json, String> {
    let mut client = ClientConfig::new()
        .read_timeout(Some(Duration::from_secs(30)))
        .connect(addr)
        .map_err(|e| format!("stats connect {addr}: {e}"))?;
    let response = client
        .call(&Request::new("stats").with_id("stats"))
        .map_err(|e| format!("stats {addr}: {e}"))?;
    response
        .payload()
        .cloned()
        .ok_or_else(|| format!("stats {addr} answered with an error"))
}

/// The address in a `... listening on <addr> ...` banner.
fn listening_addr(text: &str) -> Option<SocketAddr> {
    let rest = text.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_addresses_parse() {
        assert_eq!(
            listening_addr("amnesiac-serve listening on 127.0.0.1:4711 (2 workers, ...)\n"),
            Some(SocketAddr::from(([127, 0, 0, 1], 4711)))
        );
        assert_eq!(listening_addr("starting\n"), None);
    }
}
