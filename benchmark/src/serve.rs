//! The `serve` role: the benchmark binary re-executed as the gateway
//! process, so its CPU, memory and allocations can be told apart from the
//! load generator's.
//!
//! Protocol on the child's pipes (line-oriented, the parent drives):
//!
//! ```text
//! stdin   DESC <url> <len>\n<len bytes of XML>     description documents
//!         START\n                                  bind and serve
//!         ALLOC\n                                  report the allocator
//!         EXIT\n (or EOF)                          shut down
//! stdout  READY <slp> <ssdp> <dnssd> <stats>\n     bound ports
//!         ALLOC <bytes> <calls>\n
//! ```
//!
//! The gateway receives only generated inputs (description documents) —
//! never the seed — and is primed and driven through its sockets alone.

use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use std::time::Duration;

use indiss_core::{IndissConfig, NetDriver, SdpDescriptor, SdpProtocol, StaticDescriptions};
use indiss_net::{BatchedTransport, Transport};

/// The one frozen gateway configuration every live workload runs
/// against (mirrored in `benchmark/README.md`).
pub fn gateway_config() -> IndissConfig {
    IndissConfig::builder()
        .slp()
        .upnp()
        .descriptor(SdpDescriptor::dns_sd())
        .shards(16)
        .workers(2)
        .registry_capacity(4096)
        .cache_capacity(256)
        // Runs are far shorter than this: cache entries leave by LRU
        // pressure only, never because a long `--repeat` outlived a TTL.
        .cache_ttl(Duration::from_secs(3600))
        .stats_port(0)
        .trace(false)
        .build()
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

/// Binds the gateway on the first free port offset at or after
/// `offset_base` (three fixed protocol ports must all be free).
fn start(descriptions: Arc<StaticDescriptions>, offset_base: u16) -> std::io::Result<NetDriver> {
    let mut last = String::new();
    for attempt in 0..32u16 {
        let offset = offset_base.wrapping_add(attempt * 101);
        // 427/1900/5353 + offset must stay unprivileged and below 65536.
        if !(1024..=60_000).contains(&offset) {
            continue;
        }
        let transport = Arc::new(BatchedTransport::with_offset(offset));
        match NetDriver::builder(gateway_config())
            .transport(transport as Arc<dyn Transport>)
            .describe(Arc::clone(&descriptions) as _)
            .start()
        {
            Ok(driver) => return Ok(driver),
            Err(e) => last = e.to_string(),
        }
    }
    Err(io_err(format!("no free port offset near {offset_base}: {last}")))
}

/// Runs the gateway until the parent says `EXIT` or closes the pipe.
/// `cpus` (when not empty) is the CPU set the whole process is confined
/// to — applied before any gateway thread exists, so all inherit it.
pub fn run(offset_base: u16, cpus: &[usize]) -> std::io::Result<()> {
    if !cpus.is_empty() && !crate::sys::pin_to(cpus) {
        eprintln!("indiss-benchmark serve: could not pin to CPUs {cpus:?}; running unpinned");
    }
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut out = std::io::stdout().lock();
    let descriptions = Arc::new(StaticDescriptions::new());
    let mut driver: Option<NetDriver> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("DESC") => {
                let url = words.next().ok_or_else(|| io_err("DESC without url".into()))?;
                let len: usize = words
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n <= 1 << 20)
                    .ok_or_else(|| io_err("DESC without a sane length".into()))?;
                let mut xml = vec![0u8; len];
                input.read_exact(&mut xml)?;
                let xml = String::from_utf8(xml).map_err(|e| io_err(e.to_string()))?;
                descriptions.insert(url, &xml);
            }
            Some("START") => {
                let started = start(Arc::clone(&descriptions), offset_base)?;
                let port = |p: SdpProtocol| started.channel_addr(p).map_or(0, |a| a.port());
                writeln!(
                    out,
                    "READY {} {} {} {}",
                    port(SdpProtocol::Slp),
                    port(SdpProtocol::Upnp),
                    port(SdpDescriptor::dns_sd().protocol()),
                    started.stats_addr().map_or(0, |a| a.port()),
                )?;
                out.flush()?;
                driver = Some(started);
            }
            Some("ALLOC") => {
                let (bytes, calls) = crate::alloc::totals();
                writeln!(out, "ALLOC {bytes} {calls}")?;
                out.flush()?;
            }
            Some("EXIT") => break,
            _ => return Err(io_err(format!("unknown command {line:?}"))),
        }
    }
    if let Some(driver) = driver {
        driver.shutdown();
    }
    Ok(())
}
