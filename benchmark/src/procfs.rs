//! Observing a process from outside: `/proc` for CPU, run-queue wait and
//! peak resident memory, and the gateway's own `GET /metrics` endpoint
//! for its counters.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// CPU accounting of one process, summed over its live threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// Nanoseconds on a CPU (`schedstat` field 1; user + system).
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU (`schedstat` field 2).
    pub wait_ns: u64,
}

impl CpuSample {
    pub fn since(self, earlier: CpuSample) -> CpuSample {
        CpuSample {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Sums `/proc/<pid>/task/*/schedstat`: nanosecond-resolution on-CPU and
/// run-queue time per thread (the 10 ms ticks of `stat` would quantise a
/// short phase to about a percent). The gateway's threads live for the
/// whole run, so deltas of the sum lose nothing.
pub fn cpu_of(pid: u32) -> std::io::Result<CpuSample> {
    let mut total = CpuSample::default();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = entry?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
        total.run_ns += fields.next().unwrap_or(0);
        total.wait_ns += fields.next().unwrap_or(0);
    }
    Ok(total)
}

/// Milliseconds the hypervisor has stolen from `cpus` since boot (the
/// `steal` column of `/proc/stat`, in 10 ms ticks): time a virtual CPU
/// was runnable but the host ran something else. All CPUs when `cpus`
/// is empty; 0 where the kernel does not report it.
pub fn steal_ms(cpus: &[usize]) -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0 };
    let steal_of = |line: &str| {
        line.split_whitespace().nth(8).and_then(|t| t.parse::<u64>().ok()).unwrap_or(0)
    };
    let ticks: u64 = if cpus.is_empty() {
        stat.lines().find(|l| l.starts_with("cpu ")).map_or(0, steal_of)
    } else {
        cpus.iter()
            .filter_map(|cpu| stat.lines().find(|l| l.starts_with(&format!("cpu{cpu} "))))
            .map(steal_of)
            .sum()
    };
    ticks * 10
}

/// `VmHWM` of `pid` in MiB: the peak resident set so far.
pub fn peak_rss_mib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// One scrape of the gateway's plaintext `GET /metrics` endpoint.
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, u64>);

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> std::io::Result<Scrape> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
        let mut wire = Vec::new();
        stream.read_to_end(&mut wire)?;
        let response = indiss_http::Response::parse(&wire)
            .map_err(|e| std::io::Error::other(format!("bad /metrics response: {e}")))?;
        let body = String::from_utf8_lossy(&response.body);
        Ok(Scrape(
            body.lines()
                .filter_map(|line| {
                    let (name, value) = line.split_once(' ')?;
                    Some((name.to_owned(), value.trim().parse().ok()?))
                })
                .collect(),
        ))
    }

    /// The counter's value (0 when the endpoint does not render it).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Adds `self − earlier`, counter by counter, onto `sums`.
    pub fn add_deltas(&self, earlier: &Scrape, sums: &mut HashMap<String, u64>) {
        for (name, value) in &self.0 {
            *sums.entry(name.clone()).or_default() += value.saturating_sub(earlier.get(name));
        }
    }
}
