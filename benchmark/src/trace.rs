//! The traced run: the workload's generated inputs replayed in-process
//! through the hand-assembled chain of public calls, in the order
//! `netfront` makes them, with the benchmark's own span recorder around
//! each call.
//!
//! A span is `(name, start, end, parent, request id)`, kept in memory and
//! written as Chrome `trace.json` when the benchmark ends. A layer's
//! **self time** is its span minus the part its child spans cover. Two
//! of the product's public calls contain another public call that cannot
//! be wrapped from outside — `parse_slp_request` decodes the SLP message
//! itself, `GatewayCore::classify` looks the registry up itself. Those
//! children are *replayed*: the inner call is timed on its own just
//! before the request, and entered as a child span of that duration, so
//! the parent's self time is what it adds on top. Replayed spans are
//! marked in the trace.
//!
//! End-to-end metrics never come from here. This run reports per-layer
//! self time per datagram, how much of the gateway's measured CPU per
//! request those layers account for (`trace.unattributed_share`), and
//! what the recorder itself costs (`trace.overhead_ratio`).

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use indiss_core::{
    parse_slp_request, EventStream, GatewayCore, SdpDescriptor, SdpProtocol, ServiceRegistry,
    ThreadedGateway, WarmDecision, WorkerPool,
};
use indiss_net::{BatchedTransport, SimTime, Transport, TransportSocket};
use indiss_slp::Message;
use indiss_ssdp::{MSearch, SearchResponse, SearchTarget, SsdpMessage};
use indiss_upnp::DeviceDescription;

use crate::cold::ColdWorld;
use crate::inputs::{LiveInput, Native, Template, Wire, Workload};
use crate::metrics::{self_time_metric, TRACE_LAYERS};
use crate::pubapi::{self, DnsSd, CLIENT};

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same recorder, or `NO_PARENT`.
    pub parent: u32,
    /// Request id: every span of one datagram (or discovery) shares it.
    pub req: u32,
    /// Timed on its own and entered as a child (see the module docs).
    pub replayed: bool,
}

/// The in-memory span recorder. Switched off it reads no clock and
/// stores nothing, so the same chain runs untraced for comparison.
pub struct Recorder {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, origin: Instant) -> Recorder {
        Recorder { on, origin, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, req, replayed: false });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.on {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce(&mut Recorder, u32) -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Enters a child of `parent` that was timed on its own
    /// (`duration` ns), starting where the parent starts.
    pub fn replayed(&mut self, name: &'static str, parent: u32, duration: u64) {
        if self.on {
            let (start, req) = {
                let p = &self.spans[parent as usize];
                (p.start, p.req)
            };
            self.spans.push(Span {
                name,
                start,
                end: start + duration,
                parent,
                req,
                replayed: true,
            });
        }
    }

    /// Appends another recorder's spans (one request's, recorded on a
    /// worker thread), re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder, root: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT { root } else { s.parent + base };
            s
        }));
    }

    /// Self time per layer, in nanoseconds summed over all spans: each
    /// span's duration minus what its children cover (a replayed child
    /// covers at most its parent).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// Chrome trace events (`ph: X`), one JSON object per span, of the
    /// first `requests` request ids, in start order, as process `pid`
    /// with every timestamp shifted by `shift_us`. Returns the events
    /// and the last timestamp written.
    pub fn chrome_events(&self, requests: u32, pid: usize, shift_us: f64) -> (Vec<String>, f64) {
        let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.req < requests).collect();
        spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        let mut last = shift_us;
        let events = spans
            .iter()
            .map(|s| {
                last = s.start as f64 / 1e3 + shift_us;
                let parent = match s.parent {
                    NO_PARENT => "",
                    p => self.spans[p as usize].name,
                };
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\
                     \"tid\":1,\"args\":{{\"req\":{},\"parent\":\"{}\",\"replayed\":{}}}}}",
                    s.name,
                    last,
                    (s.end - s.start) as f64 / 1e3,
                    pid,
                    s.req,
                    parent,
                    s.replayed
                )
            })
            .collect();
        (events, last)
    }
}

/// Times `f` (nanoseconds) when the recorder is on; runs it either way.
fn timed<T>(rec: &Recorder, f: impl FnOnce() -> T) -> (T, u64) {
    if rec.on {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_nanos() as u64)
    } else {
        (f(), 0)
    }
}

/// What a traced run hands back to `main`.
pub struct TracedRun {
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
    /// The spans, for `trace.json`.
    pub recorder: Recorder,
}

// ---------------------------------------------------------------------
// Live workloads: the netfront chain, call by public call.

/// The gateway's warm path re-assembled from public parts.
struct Chain {
    core: GatewayCore,
    registry: ServiceRegistry,
    socket: Arc<dyn TransportSocket>,
    sink: SocketAddrV4,
    descriptions: HashMap<String, String>,
    dns_sd: SdpProtocol,
    epoch: Instant,
}

impl Chain {
    /// Wall-clock time on the registry's axis, as `NetDriver::now` maps it.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(1_000_000_000 + self.epoch.elapsed().as_nanos() as u64)
    }

    /// `registry.record_advert` → `registry.warm`, as `netfront` does for
    /// every decoded advert.
    fn record(
        &self,
        rec: &mut Recorder,
        root: u32,
        req: u32,
        origin: SdpProtocol,
        s: &EventStream,
    ) {
        let now = self.now();
        rec.span("registry.record_advert", root, req, |_, _| {
            self.registry.record_advert(origin, s, now)
        });
        if s.is_alive() && s.service_url().is_some() {
            if let Some(ty) = s.service_type_symbol() {
                rec.span("registry.warm", root, req, |_, _| self.registry.warm(ty, s.clone(), now));
            }
        }
    }

    /// `gateway.classify` with its registry lookup replayed as a child.
    fn classify(
        &self,
        rec: &mut Recorder,
        root: u32,
        req: u32,
        origin: SdpProtocol,
        request: &EventStream,
        lookup_ns: u64,
    ) -> WarmDecision {
        rec.span("gateway.classify", root, req, |rec, id| {
            let decision = self.core.classify(origin, request, self.now());
            if id != NO_PARENT {
                rec.replayed("registry.lookup", id, lookup_ns);
            }
            decision
        })
    }

    fn send(&self, rec: &mut Recorder, root: u32, req: u32, wire: Vec<u8>) {
        rec.span("net.send_batch", root, req, |_, _| self.socket.send_batch(&[(wire, self.sink)]));
    }

    /// One datagram through the chain, on the worker thread. `rec` holds
    /// this request's spans; `root` is its root span. Spans wrap the
    /// product's public calls only; the `pubapi` glue between them runs
    /// untimed under the root.
    fn serve(&self, rec: &mut Recorder, root: u32, req: u32, tmpl: &Template, pre: Replays) {
        let payload = tmpl.bytes.as_slice();
        let framed = |rec: &mut Recorder, body| {
            rec.span("event.framed", root, req, |_, _| EventStream::framed(body))
        };
        match tmpl.wire {
            Wire::SlpRequest => {
                let request = rec.span("units.parse", root, req, |rec, id| {
                    let parsed = parse_slp_request(payload, CLIENT, false);
                    if id != NO_PARENT {
                        rec.replayed("slp.decode", id, pre.decode_ns);
                    }
                    parsed
                });
                let Some(request) = request else { return };
                let decision =
                    self.classify(rec, root, req, SdpProtocol::Slp, &request, pre.lookup_ns);
                let WarmDecision::CacheHit(response) = decision else { return };
                let Some(reply) = pubapi::srv_rply(&request, &response) else { return };
                if let Ok(wire) = rec.span("slp.encode", root, req, |_, _| reply.encode()) {
                    self.send(rec, root, req, wire);
                }
            }
            Wire::SlpReg | Wire::SlpDeReg => {
                let decoded = rec.span("slp.decode", root, req, |_, _| Message::decode(payload));
                let Some(body) = decoded.ok().and_then(|m| pubapi::slp_advert_body(&m.body)) else {
                    return;
                };
                let stream = framed(rec, body);
                self.record(rec, root, req, SdpProtocol::Slp, &stream);
            }
            Wire::Notify | Wire::NotifyBye | Wire::MSearch => {
                let parsed = rec.span("ssdp.parse", root, req, |_, _| SsdpMessage::parse(payload));
                match parsed {
                    Ok(SsdpMessage::Notify(n)) => {
                        let Some(body) = pubapi::ssdp_advert_body(&n) else { return };
                        let mut stream = framed(rec, body);
                        let described = n.location.as_ref().and_then(|location| {
                            let xml = self.descriptions.get(location)?;
                            let desc = rec.span("upnp.from_xml", root, req, |_, _| {
                                DeviceDescription::from_xml(xml)
                            });
                            Some((desc.ok()?, location))
                        });
                        if let Some((desc, location)) = described {
                            stream = pubapi::enrich(&stream, &desc, location);
                        }
                        self.record(rec, root, req, SdpProtocol::Upnp, &stream);
                    }
                    Ok(SsdpMessage::MSearch(search)) => {
                        let SearchTarget::DeviceType { name, .. } = &search.st else { return };
                        let body = pubapi::request_body(SdpProtocol::Upnp, &name.to_lowercase());
                        let request = framed(rec, body);
                        // A hit composes nothing: a native SSDP answer needs
                        // the unit runtime's synthetic description.
                        self.classify(rec, root, req, SdpProtocol::Upnp, &request, pre.lookup_ns);
                    }
                    _ => {}
                }
            }
            // The descriptor protocol's template matcher is crate-private:
            // the benchmark's own parser stands in for it, untimed.
            Wire::Announce | Wire::Goodbye | Wire::DnsQuery => match pubapi::parse_dnssd(payload) {
                Some(DnsSd::Query { name }) => {
                    let request = framed(rec, pubapi::request_body(self.dns_sd, name));
                    let decision =
                        self.classify(rec, root, req, self.dns_sd, &request, pre.lookup_ns);
                    let WarmDecision::CacheHit(response) = decision else { return };
                    if let Some(line) = pubapi::dnssd_answer(name, &response) {
                        self.send(rec, root, req, line);
                    }
                }
                Some(DnsSd::Announce { name, url, ttl }) => {
                    let stream =
                        framed(rec, pubapi::advert_body(self.dns_sd, name, url, ttl, true));
                    self.record(rec, root, req, self.dns_sd, &stream);
                }
                Some(DnsSd::Goodbye { name, url }) => {
                    let stream = framed(rec, pubapi::advert_body(self.dns_sd, name, url, 0, false));
                    self.record(rec, root, req, self.dns_sd, &stream);
                }
                None => {}
            },
            // Junk meets whichever decoder owns the port it was sent to.
            Wire::Junk => match tmpl.port {
                crate::inputs::Port::Slp => {
                    let _ =
                        rec.span("slp.decode", root, req, |_, _| Message::decode(payload).is_ok());
                }
                crate::inputs::Port::Ssdp => {
                    let _ = rec
                        .span("ssdp.parse", root, req, |_, _| SsdpMessage::parse(payload).is_ok());
                }
                crate::inputs::Port::DnsSd => {}
            },
        }
    }

    /// Times, on their own, the inner public calls that cannot be wrapped
    /// from outside (see the module docs). Runs before the request's root
    /// span opens, so the root covers only the real chain.
    fn replays(&self, rec: &Recorder, tmpl: &Template, name: Option<&str>) -> Replays {
        let mut pre = Replays::default();
        if !rec.on {
            return pre;
        }
        if tmpl.wire == Wire::SlpRequest {
            pre.decode_ns = timed(rec, || Message::decode(&tmpl.bytes).is_ok()).1;
        }
        if let (Wire::SlpRequest | Wire::DnsQuery | Wire::MSearch, Some(name)) = (tmpl.wire, name) {
            pre.lookup_ns = timed(rec, || self.registry.cached_response(name, self.now())).1;
        }
        pre
    }
}

/// Durations of the replayed children of one request.
#[derive(Debug, Clone, Copy, Default)]
struct Replays {
    decode_ns: u64,
    lookup_ns: u64,
}

/// Replays `ops` datagrams of `input` through the chain, one pool
/// hand-off each; returns the recorder and the wall time per datagram.
fn replay_live(input: &mut LiveInput, ops: usize, on: bool) -> Result<(Recorder, f64), String> {
    let e = |e: &dyn std::fmt::Display| format!("traced chain: {e}");
    let gateway = ThreadedGateway::from_config(&crate::serve::gateway_config());
    let transport = BatchedTransport::loopback();
    let socket = transport.bind_client_batched(Arc::new(|_| {})).map_err(|err| e(&err))?;
    let sink_socket = UdpSocket::bind("127.0.0.1:0").map_err(|err| e(&err))?;
    let SocketAddr::V4(sink) = sink_socket.local_addr().map_err(|err| e(&err))? else {
        return Err(e(&"sink is not IPv4"));
    };
    let chain = Arc::new(Chain {
        core: gateway.core(),
        registry: gateway.registry(),
        socket,
        sink,
        descriptions: input.descriptions.iter().cloned().collect(),
        dns_sd: SdpDescriptor::dns_sd().protocol(),
        epoch: Instant::now(),
    });
    let pool = WorkerPool::new(2);
    let origin = Instant::now();
    let mut rec = Recorder::new(false, origin);
    let templates: Arc<Vec<Template>> = Arc::new(input.templates.clone());
    let (done_tx, done_rx) = mpsc::channel::<(u64, Recorder)>();

    let one = |rec: &mut Recorder, tmpl_id: u32, req: u32, lane: usize, name: Option<&str>| {
        let pre = chain.replays(rec, &templates[tmpl_id as usize], name);
        let root = rec.open("datagram", NO_PARENT, req);
        let handoff = rec.open("pool.handoff", root, req);
        let (chain, templates, done) =
            (Arc::clone(&chain), Arc::clone(&templates), done_tx.clone());
        let traced = rec.on;
        pool.submit(lane, move || {
            // This request's spans, recorded where the work happens.
            let mut local = Recorder::new(traced, origin);
            let job_start = if traced { local.now() } else { 0 };
            chain.serve(&mut local, NO_PARENT, req, &templates[tmpl_id as usize], pre);
            let _ = done.send((job_start, local));
        });
        let (job_start, local) = done_rx.recv().expect("worker finished the datagram");
        if rec.on {
            // The hand-off ends where the job starts.
            rec.spans[handoff as usize].end = job_start;
            rec.close(root);
            rec.absorb(local, root);
        }
    };

    // Prime exactly as the live run does, untimed.
    for tmpl in input.prime.clone() {
        one(&mut rec, tmpl, 0, templates[tmpl as usize].port as usize, None);
    }
    rec = Recorder::new(on, origin);
    let stream = input.ops(ops);
    let started = Instant::now();
    for (req, op) in stream.iter().enumerate() {
        let tmpl = &templates[op.tmpl as usize];
        let name = input.types.get(tmpl.ty as usize).map(|t| t.name.as_str());
        one(&mut rec, op.tmpl, req as u32, tmpl.port as usize, name);
    }
    let per_op_us = started.elapsed().as_secs_f64() * 1e6 / ops.max(1) as f64;
    transport.shutdown();
    Ok((rec, per_op_us))
}

// ---------------------------------------------------------------------
// cold_bridge: one `sim.run_for` span per discovery, codecs replayed.

/// The messages one SLP→UPnP discovery puts through the codecs, rebuilt
/// from the service's generated description.
struct ColdMessages {
    srv_rqst: Vec<u8>,
    msearch: Vec<u8>,
    search_response: Vec<u8>,
    http_response: Vec<u8>,
    xml: String,
    name: String,
    location: String,
}

fn cold_messages(cold: &ColdWorld, service: usize) -> ColdMessages {
    let s = &cold.services[service];
    let st = SearchTarget::device_urn(&s.name, 1);
    let host = s.dnssd_url.strip_prefix("soap://").and_then(|r| r.split('/').next()).unwrap_or("");
    let location = format!("http://{host}/description.xml");
    let mut http = indiss_http::Response::ok();
    http.body = s.description_xml.as_bytes().to_vec();
    ColdMessages {
        srv_rqst: crate::inputs::slp_request(&format!("service:{}", s.name)),
        msearch: MSearch::new(st.clone(), 0).to_bytes(),
        search_response: SearchResponse {
            st,
            usn: format!("uuid:{}", s.name),
            location: location.clone(),
            server: "bench/1.0".into(),
            max_age: 1800,
        }
        .to_bytes(),
        http_response: http.serialize(),
        xml: s.description_xml.clone(),
        name: s.name.clone(),
        location,
    }
}

/// Runs `rounds` SLP→UPnP discoveries, each under a `sim.run_for` span
/// with the discovery's codec calls replayed as children.
fn replay_cold(seed: u64, rounds: usize, on: bool) -> Result<(Recorder, f64), String> {
    let cold = ColdWorld::build(seed)?;
    let messages: Vec<ColdMessages> = (0..24)
        .filter(|s| cold.services[*s].native == Native::Upnp)
        .map(|s| cold_messages(&cold, s))
        .collect();
    let mut fsm = pubapi::unit_shaped_fsm();
    let mut rec = Recorder::new(on, Instant::now());
    let started = Instant::now();
    for n in 0..rounds {
        let (service, m) = (n % 24, &messages[n % 24]);
        let root = rec.open("sim.run_for", NO_PARENT, n as u32);
        let (_, pending) = cold.reference_round(n);
        cold.run_round();
        rec.close(root);
        cold.check(pending, service)?;
        if !rec.on {
            continue;
        }
        // The codec work that discovery did, re-done on its messages.
        let decode = timed(&rec, || Message::decode(&m.srv_rqst).is_ok()).1;
        let (request, parse) = timed(&rec, || parse_slp_request(&m.srv_rqst, CLIENT, true));
        let ssdp = timed(&rec, || {
            (SsdpMessage::parse(&m.msearch).is_ok(), SsdpMessage::parse(&m.search_response).is_ok())
        })
        .1;
        let http = timed(&rec, || indiss_http::Response::parse(&m.http_response).is_ok()).1;
        let (desc, xml) = timed(&rec, || DeviceDescription::from_xml(&m.xml));
        let desc = desc.map_err(|e| format!("replayed description: {e}"))?;
        let body = pubapi::notify_body(&m.name, &m.name, Some(&m.location), 1800);
        let (advert, framed) = timed(&rec, || EventStream::framed(body));
        let enriched = pubapi::enrich(&advert, &desc, &m.location);
        let feed = timed(&rec, || {
            let (mut fired, mut out) = (0, Vec::new());
            fsm.reset();
            fsm.feed_all(enriched.events(), &mut fired, &mut out);
            fired
        })
        .1;
        let reply = enriched.service_url().zip(request.as_ref()).and_then(|(url, request)| {
            pubapi::srv_rply(request, &pubapi::response_stream(&m.name, url, 1800))
        });
        let reply = reply.ok_or("replayed discovery composes no SrvRply")?;
        let encode = timed(&rec, || reply.encode().is_ok()).1;
        let parse_span = rec.spans.len() as u32;
        rec.replayed("units.parse", root, parse);
        rec.replayed("slp.decode", parse_span, decode);
        rec.replayed("ssdp.parse", root, ssdp);
        rec.replayed("http.parse", root, http);
        rec.replayed("upnp.from_xml", root, xml);
        rec.replayed("event.framed", root, framed);
        rec.replayed("fsm.feed", root, feed);
        rec.replayed("slp.encode", root, encode);
    }
    let per_round_us = started.elapsed().as_secs_f64() * 1e6 / rounds.max(1) as f64;
    Ok((rec, per_round_us))
}

/// Requests whose spans go into `trace.json` (all feed the statistics).
const TRACE_FILE_REQUESTS: u32 = 2_000;

/// The traced run of one workload. `ref_cpu_us_per_req` is the figure
/// of the untraced run (`ref.cpu_us_per_req`, as measured) the layers
/// are summed against: like this replay, the `ref` phase handles one
/// datagram per wake-up and hand-off.
pub fn run(workload: Workload, seed: u64, ref_cpu_us_per_req: f64) -> Result<TracedRun, String> {
    let (traced, untraced, ops) = match workload {
        Workload::ColdBridge => {
            let rounds = 1_000;
            (replay_cold(seed, rounds, true)?, replay_cold(seed, rounds, false)?, rounds)
        }
        live => {
            let ops = 10_000;
            let traced = replay_live(&mut LiveInput::generate(live, seed), ops, true)?;
            let untraced = replay_live(&mut LiveInput::generate(live, seed), ops, false)?;
            (traced, untraced, ops)
        }
    };
    let (rec, traced_us) = traced;
    let self_times = rec.self_times();
    let mut metrics = BTreeMap::new();
    let mut attributed_us = 0.0;
    for layer in TRACE_LAYERS {
        let us = self_times.get(layer).copied().unwrap_or(0) as f64 / 1e3 / ops as f64;
        attributed_us += us;
        metrics.insert(self_time_metric(layer), us);
    }
    metrics.insert(
        "trace.unattributed_share".to_owned(),
        1.0 - attributed_us / ref_cpu_us_per_req.max(f64::MIN_POSITIVE),
    );
    metrics
        .insert("trace.overhead_ratio".to_owned(), traced_us / untraced.1.max(f64::MIN_POSITIVE));
    let unknown: Vec<&str> = self_times
        .keys()
        .filter(|k| !TRACE_LAYERS.contains(*k) && **k != "datagram")
        .copied()
        .collect();
    if !unknown.is_empty() {
        return Err(format!("spans outside the layer table: {unknown:?}"));
    }
    let notes = vec![format!(
        "traced replay: {ops} requests, {} spans; layers account for {attributed_us:.3} us of the \
         {ref_cpu_us_per_req:.3} us/req the ref phase measured (the rest is kernel UDP, epoll and \
         wake-ups the replay does not make, and the crate-private glue between the public \
         calls); traced {traced_us:.3} us vs untraced {:.3} us per request",
        rec.spans.len(),
        untraced.1
    )];
    Ok(TracedRun { metrics, notes, recorder: rec })
}

/// Writes the spans of all workloads as one Chrome trace, each workload
/// a process of its own, shifted so time never regresses, and checks the
/// result with the product's own trace validator.
pub fn write_trace_json(path: &str, runs: &[TracedRun]) -> Result<usize, String> {
    let mut events = Vec::new();
    let mut shift_us = 0.0;
    for (pid, run) in runs.iter().enumerate() {
        let (mut rendered, last) =
            run.recorder.chrome_events(TRACE_FILE_REQUESTS, pid + 1, shift_us);
        events.append(&mut rendered);
        shift_us = last + 1_000.0;
    }
    let out = format!("{{\"traceEvents\":[{}]}}", events.join(","));
    let count = indiss_core::validate_chrome_trace(&out)
        .map_err(|e| format!("trace.json is not well-formed: {e}"))?;
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))?;
    Ok(count)
}
