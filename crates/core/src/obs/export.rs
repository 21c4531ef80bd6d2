//! Exporters for the observability layer: Chrome/Perfetto `trace.json`,
//! a dependency-free JSON validator for it, the plaintext stats page,
//! and the scrapeable [`StatsServer`] built on the workspace's own
//! `indiss-http` message types (parse/serialize only — the accept loop
//! lives here).
//!
//! Everything renders deterministically: fixed field order, integer
//! microsecond arithmetic for timestamps (no float formatting), so two
//! same-seed simulation runs export byte-identical documents — the
//! replay contract the bench crate's
//! `baseline_world_trace_export_is_replay_identical` test gates.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use indiss_http::{Request, Response};

use crate::error::{CoreError, CoreResult};
use crate::symbol::Symbol;

use super::hist::LatencyHistogram;
use super::trace::{SpanSnapshot, Tracer};

/// Serializes spans (as produced by [`Tracer::snapshot`], already in
/// deterministic order) into Chrome/Perfetto trace-event JSON: one
/// complete (`"ph":"X"`) event per span, `ts`/`dur` in microseconds
/// with fixed 3-digit nanosecond fractions, `tid` = lane, `pid` = ring.
pub fn chrome_trace_json(spans: &[SpanSnapshot]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = span.start.as_nanos();
        let dur = span.end.as_nanos().saturating_sub(ts);
        out.push_str("{\"name\":\"");
        out.push_str(span.phase.name());
        out.push_str("\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":");
        push_micros(&mut out, ts);
        out.push_str(",\"dur\":");
        push_micros(&mut out, dur);
        out.push_str(",\"pid\":");
        out.push_str(itoa(span.ring as u64).as_str());
        out.push_str(",\"tid\":");
        out.push_str(itoa(u64::from(span.lane)).as_str());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Formats `nanos` as decimal microseconds with exactly three fraction
/// digits — integer arithmetic only, so output is platform-independent.
fn push_micros(out: &mut String, nanos: u64) {
    out.push_str(itoa(nanos / 1_000).as_str());
    out.push('.');
    let frac = nanos % 1_000;
    out.push((b'0' + (frac / 100) as u8) as char);
    out.push((b'0' + (frac / 10 % 10) as u8) as char);
    out.push((b'0' + (frac % 10) as u8) as char);
}

fn itoa(v: u64) -> String {
    v.to_string()
}

// ---------------------------------------------------------------------
// A minimal JSON reader: just enough to validate an exported trace
// without serde (the workspace has no crates.io access). It parses the
// full JSON grammar for objects/arrays/strings/numbers and surfaces the
// `ts` value of every trace event in document order.

struct JsonScan<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Each `"ts"` number encountered, in nanoseconds (µs × 1000).
    ts_nanos: Vec<u64>,
    /// Trace events seen (objects directly inside the first array).
    events: usize,
    depth: usize,
}

impl<'a> JsonScan<'a> {
    fn error(&self, msg: &str) -> String {
        format!("trace.json byte {}: {}", self.at, msg)
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.error("unterminated string"))?;
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' | b'f' => out.push(' '),
                        b'u' => {
                            for _ in 0..4 {
                                let h =
                                    self.peek().ok_or_else(|| self.error("short \\u escape"))?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(self.error("bad \\u escape"));
                                }
                                self.at += 1;
                            }
                            out.push('?');
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => out.push(b as char),
            }
        }
    }

    /// Parses a non-negative decimal number, returning nanoseconds
    /// (integer part × 1000 + up to three fraction digits).
    fn number(&mut self) -> Result<u64, String> {
        let start = self.at;
        let mut int: u64 = 0;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() {
                int = int
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(b - b'0')))
                    .ok_or_else(|| self.error("number overflow"))?;
                self.at += 1;
            } else {
                break;
            }
        }
        if self.at == start {
            return Err(self.error("expected a digit"));
        }
        let mut nanos = int.checked_mul(1_000).ok_or_else(|| self.error("number overflow"))?;
        if self.peek() == Some(b'.') {
            self.at += 1;
            let mut scale = 100u64;
            let mut digits = 0;
            while let Some(b) = self.peek() {
                if !b.is_ascii_digit() {
                    break;
                }
                if digits < 3 {
                    nanos += u64::from(b - b'0') * scale;
                    scale /= 10;
                }
                digits += 1;
                self.at += 1;
            }
            if digits == 0 {
                return Err(self.error("expected fraction digits"));
            }
        }
        Ok(nanos)
    }

    fn value(&mut self, in_events: bool) -> Result<(), String> {
        self.depth += 1;
        if self.depth > 64 {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end of input"))? {
            b'{' => {
                self.at += 1;
                if in_events {
                    self.events += 1;
                }
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                } else {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.eat(b':')?;
                        self.skip_ws();
                        if in_events && key == "ts" {
                            let ts = self.number()?;
                            self.ts_nanos.push(ts);
                        } else if key == "traceEvents" {
                            self.array_of_events()?;
                        } else {
                            self.value(false)?;
                        }
                        self.skip_ws();
                        if self.peek() == Some(b',') {
                            self.at += 1;
                            continue;
                        }
                        self.eat(b'}')?;
                        break;
                    }
                }
            }
            b'[' => {
                self.at += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.at += 1;
                } else {
                    loop {
                        self.value(false)?;
                        self.skip_ws();
                        if self.peek() == Some(b',') {
                            self.at += 1;
                            continue;
                        }
                        self.eat(b']')?;
                        break;
                    }
                }
            }
            b'"' => {
                self.string()?;
            }
            b't' => self.literal("true")?,
            b'f' => self.literal("false")?,
            b'n' => self.literal("null")?,
            b'-' => {
                self.at += 1;
                self.number()?;
            }
            _ => {
                self.number()?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn array_of_events(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.value(true)?;
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.at += 1;
                continue;
            }
            self.eat(b']')?;
            return Ok(());
        }
    }
}

/// Validates an exported Chrome trace: well-formed JSON, a
/// `traceEvents` array, and chronologically non-decreasing `ts` values.
/// Returns the number of events.
///
/// # Errors
///
/// A human-readable description of the first syntax or ordering
/// violation, with a byte offset.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let mut scan =
        JsonScan { bytes: json.as_bytes(), at: 0, ts_nanos: Vec::new(), events: 0, depth: 0 };
    scan.value(false)?;
    scan.skip_ws();
    if scan.at != scan.bytes.len() {
        return Err(scan.error("trailing bytes after the document"));
    }
    if scan.events != scan.ts_nanos.len() {
        return Err(format!(
            "{} events but {} ts fields — every span needs a timestamp",
            scan.events,
            scan.ts_nanos.len()
        ));
    }
    for (i, pair) in scan.ts_nanos.windows(2).enumerate() {
        if pair[1] < pair[0] {
            return Err(format!(
                "span timestamps regress at event {}: {} < {} (µs×1000)",
                i + 1,
                pair[1],
                pair[0]
            ));
        }
    }
    Ok(scan.events)
}

// ---------------------------------------------------------------------
// Plaintext stats rendering: `name value` lines, one metric per line,
// fixed order. The format is Prometheus-flavoured but deliberately
// minimal — a scrape is `GET /metrics`, the body is ASCII. The counter
// families render themselves (`indiss_net::counter_family!` generates
// `render(out, prefix)` from each family's one field list); what is
// left here are the gauges and histograms that are not counters.

fn line(out: &mut String, name: &str, value: u64) {
    out.push_str(name);
    out.push(' ');
    out.push_str(itoa(value).as_str());
    out.push('\n');
}

/// Renders the symbol-interner gauges (process-wide).
pub fn render_interner_gauges(out: &mut String) {
    line(out, "indiss_interner_symbols", Symbol::interned_count() as u64);
    line(out, "indiss_interner_bytes", Symbol::interned_bytes() as u64);
}

fn render_histogram(out: &mut String, prefix: &str, h: &LatencyHistogram) {
    line(out, &format!("{prefix}_count"), h.count());
    line(out, &format!("{prefix}_sum_nanos"), h.sum_nanos());
    line(out, &format!("{prefix}_p50_nanos"), h.quantile_upper_bound(0.5));
    line(out, &format!("{prefix}_p99_nanos"), h.quantile_upper_bound(0.99));
}

/// Renders the tracer gauges plus every per-phase and per-protocol
/// histogram (merged across rings at this scrape).
pub fn render_tracer(out: &mut String, tracer: &Tracer) {
    line(out, "indiss_trace_enabled", u64::from(tracer.enabled()));
    line(out, "indiss_trace_spans_recorded", tracer.spans_recorded());
    line(out, "indiss_trace_spans_dropped", tracer.spans_dropped());
    for (name, hist) in tracer.phase_histograms() {
        render_histogram(out, &format!("indiss_phase_{name}"), &hist);
    }
    for (port, hist) in tracer.protocol_histograms() {
        render_histogram(out, &format!("indiss_protocol_{port}"), &hist);
    }
}

// ---------------------------------------------------------------------
// The scrape endpoint.

/// A scrapeable plaintext stats endpoint: one accept-loop thread on a
/// loopback `TcpListener`, speaking just enough HTTP/1.1 (via the
/// workspace `indiss-http` parser) to answer `GET /metrics`.
///
/// The render closure runs per scrape, so gauges are read at scrape
/// time — nothing is sampled or cached. Port 0 binds an ephemeral port
/// (tests); [`StatsServer::addr`] reports the bound address either way.
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for StatsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsServer").field("addr", &self.addr).finish()
    }
}

impl StatsServer {
    /// Binds `127.0.0.1:port` and starts serving `render()` bodies.
    ///
    /// # Errors
    ///
    /// [`CoreError::Net`] when the listener cannot bind.
    pub fn start(
        port: u16,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> CoreResult<StatsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| {
            CoreError::Net(indiss_net::NetError::Io { op: "stats bind", message: e.to_string() })
        })?;
        let addr = listener.local_addr().map_err(|e| {
            CoreError::Net(indiss_net::NetError::Io { op: "stats addr", message: e.to_string() })
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("indiss-stats".into())
            .spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop_thread.load(Ordering::Acquire) {
                        break;
                    }
                    // Scrapes are short-lived; serve inline. A slow or
                    // stuck client is bounded by the read timeout.
                    let _ = serve_one(stream, render.as_ref());
                }
            })
            .expect("spawn stats thread");
        Ok(StatsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (the real port even when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(
    mut stream: TcpStream,
    render: &(dyn Fn() -> String + Send + Sync),
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // GET requests have no body: the head ends at the blank line.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > 16 * 1024 {
            break; // header flood: answer 400 below via parse failure
        }
    }
    let mut response = match Request::parse(&buf) {
        Ok(req)
            if req.method == indiss_http::Method::Get
                && (req.target == "/metrics" || req.target == "/") =>
        {
            let mut r = Response::ok();
            r.body = render().into_bytes();
            r.headers.insert("Content-Type", "text/plain; version=0.0.4");
            r
        }
        Ok(_) => Response::new(404),
        Err(_) => Response::new(400),
    };
    response.headers.insert("Connection", "close");
    stream.write_all(&response.serialize())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::trace::{Phase, SimClock};
    use super::*;
    use indiss_net::SimTime;

    fn sample_tracer() -> Tracer {
        let t = Tracer::new(8, 1, &[427], Arc::new(SimClock::new()));
        t.record_at(0, Phase::Decode, SimTime::from_micros(10), SimTime::from_micros(12));
        t.record_at(0, Phase::Classify, SimTime::from_micros(12), SimTime::from_micros(13));
        t
    }

    #[test]
    fn export_is_valid_and_ordered() {
        let json = chrome_trace_json(&sample_tracer().snapshot());
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.contains("\"name\":\"decode\""));
        assert!(json.contains("\"ts\":10.000"));
        assert_eq!(validate_chrome_trace(&json), Ok(2));
    }

    #[test]
    fn validator_rejects_regressions_and_junk() {
        let ok = r#"{"traceEvents":[{"ts":1.5},{"ts":1.5},{"ts":2.0}]}"#;
        assert_eq!(validate_chrome_trace(ok), Ok(3));
        let regress = r#"{"traceEvents":[{"ts":5.0},{"ts":4.999}]}"#;
        assert!(validate_chrome_trace(regress).unwrap_err().contains("regress"));
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("{}x").is_err());
        assert!(validate_chrome_trace("").is_err());
        // Events without ts are rejected, not silently accepted.
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"name":"a"}]}"#).is_err());
        // Nested structures and escapes parse.
        let fancy = r#"{"meta":{"x":[1,2,{"s":"a\"b"}],"b":true,"n":null},"traceEvents":[]}"#;
        assert_eq!(validate_chrome_trace(fancy), Ok(0));
    }

    #[test]
    fn micros_formatting_is_exact() {
        let mut s = String::new();
        push_micros(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        s.clear();
        push_micros(&mut s, 999);
        assert_eq!(s, "0.999");
        s.clear();
        push_micros(&mut s, 1_000_000_000);
        assert_eq!(s, "1000000.000");
    }

    #[test]
    fn stats_page_renders_fixed_order_lines() {
        let mut out = String::new();
        crate::BridgeStats::default().render(&mut out, "indiss_bridge");
        render_interner_gauges(&mut out);
        render_tracer(&mut out, &sample_tracer());
        assert!(out.starts_with("indiss_bridge_requests_bridged 0\n"));
        assert!(out.contains("indiss_trace_spans_recorded 2\n"));
        assert!(out.contains("indiss_phase_decode_count 1\n"));
        assert!(out.contains("indiss_protocol_427_count 0\n"));
        for l in out.lines() {
            let mut parts = l.split(' ');
            assert!(parts.next().unwrap().starts_with("indiss_"));
            parts.next().unwrap().parse::<u64>().expect("numeric value");
            assert!(parts.next().is_none());
        }
    }
}
