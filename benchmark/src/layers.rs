//! Per-layer micro-benchmarks: each layer's public functions, timed from
//! the benchmark's own code on the workload's generated inputs.
//!
//! A metric is measured only when the workload's op stream actually
//! carries inputs for it; otherwise it reads 0 — the layer takes no part
//! in that workload. That is the prediction the benchmark exists to
//! check: `net.*`/`pool.*` are 0 on `cold_bridge`, `upnp.*`/`fsm.*` are
//! 0 on `warm_hit`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use indiss_core::{
    parse_slp_request, EventStream, SdpDescriptor, SdpProtocol, Symbol, ThreadedGateway,
    WarmDecision, WorkerPool,
};
use indiss_net::{BatchedTransport, Datagram, SimTime, Transport, TransportSocket, World};
use indiss_ssdp::{MSearch, SearchTarget, SsdpMessage};
use indiss_upnp::DeviceDescription;

use crate::cold::ColdWorld;
use crate::inputs::{LiveInput, Native, Wire, Workload};
use crate::pubapi::{self, CLIENT};
use crate::stats::median;

/// Median nanoseconds per call of `op` over 100 batches. The batch size
/// is calibrated to about 200 µs (10 to 1000 calls), so a slow call
/// (XML parsing) does not take seconds and a fast one is not all timer.
/// `op` receives a running call index.
fn time_ns(op: impl FnMut(usize)) -> f64 {
    time_consuming_ns(|i| i, op)
}

/// [`time_ns`] for a call that takes its argument by value: `make` builds
/// each batch's arguments before the clock starts, so only `op` is timed.
fn time_consuming_ns<T>(mut make: impl FnMut(usize) -> T, mut op: impl FnMut(T)) -> f64 {
    let mut i = 0;
    let mut batch_of = |n: usize| -> Vec<T> {
        i += n;
        (i - n..i).map(&mut make).collect()
    };
    let args = batch_of(10);
    let probe = Instant::now();
    args.into_iter().for_each(&mut op);
    let per_call = (probe.elapsed().as_nanos() as usize / 10).max(1);
    let batch = (200_000 / per_call).clamp(10, 1000);
    let samples: Vec<f64> = (0..100)
        .map(|_| {
            let args = batch_of(batch);
            let t = Instant::now();
            args.into_iter().for_each(&mut op);
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// The inputs a workload offers each layer, sampled from its op stream.
#[derive(Default)]
pub struct Corpus {
    pub srv_rqst: Vec<Vec<u8>>,
    pub srv_reg: Vec<Vec<u8>>,
    pub notify: Vec<Vec<u8>>,
    pub msearch: Vec<Vec<u8>>,
    /// Description documents, and the same wrapped in an HTTP response.
    pub xml: Vec<String>,
    pub http: Vec<Vec<u8>>,
    /// `(type name, endpoint URL, origin)` of advertised services.
    pub adverts: Vec<(String, String, SdpProtocol)>,
    /// Types requests ask for that exist / that are never advertised.
    pub known: Vec<(String, String)>,
    pub absent_rqst: Vec<Vec<u8>>,
    /// Whether the workload crosses real sockets and the worker pool.
    pub wire: bool,
    /// Whether it runs on the simulator.
    pub sim: bool,
}

fn http_response(xml: &str) -> Vec<u8> {
    let mut r = indiss_http::Response::ok();
    r.headers.insert("Content-Type", "text/xml");
    r.body = xml.as_bytes().to_vec();
    r.serialize()
}

impl Corpus {
    /// Samples the first 20 000 ops of a live workload's stream.
    pub fn from_live(input: &mut LiveInput) -> Corpus {
        let dns_sd = SdpDescriptor::dns_sd().protocol();
        let mut c = Corpus { wire: true, ..Corpus::default() };
        let mut seen = std::collections::HashSet::new();
        let absent_from = match input.workload {
            Workload::MixedMiss => 1024,
            _ => usize::MAX,
        };
        for op in input.ops(20_000) {
            if !seen.insert(op.tmpl) || seen.len() > 2048 {
                continue;
            }
            let tmpl = &input.templates[op.tmpl as usize];
            let bytes = tmpl.bytes.clone();
            let ty = input.types.get(tmpl.ty as usize);
            match (tmpl.wire, ty) {
                (Wire::SlpRequest, Some(_)) if tmpl.ty as usize >= absent_from => {
                    c.absent_rqst.push(bytes);
                }
                (Wire::SlpRequest, Some(ty)) => {
                    c.srv_rqst.push(bytes);
                    c.known.push((ty.name.clone(), ty.dnssd_url.clone()));
                }
                (Wire::SlpReg, Some(ty)) => {
                    c.srv_reg.push(bytes);
                    c.adverts.push((ty.name.clone(), ty.slp_url.clone(), SdpProtocol::Slp));
                }
                (Wire::Announce, Some(ty)) => {
                    c.adverts.push((ty.name.clone(), ty.dnssd_url.clone(), dns_sd));
                }
                (Wire::Notify, Some(ty)) => {
                    c.notify.push(bytes);
                    c.adverts.push((ty.name.clone(), ty.dnssd_url.clone(), SdpProtocol::Upnp));
                }
                (Wire::MSearch, _) => c.msearch.push(bytes),
                _ => {}
            }
        }
        if !c.notify.is_empty() {
            c.xml = input.descriptions.iter().take(256).map(|(_, xml)| xml.clone()).collect();
            c.http = c.xml.iter().map(|xml| http_response(xml)).collect();
        }
        c
    }

    /// The messages `cold_bridge`'s discoveries put through the codecs.
    pub fn from_cold(cold: &ColdWorld) -> Corpus {
        let mut c = Corpus { sim: true, ..Corpus::default() };
        for s in &cold.services {
            let origin = match s.native {
                Native::Slp => SdpProtocol::Slp,
                Native::Upnp => SdpProtocol::Upnp,
                Native::DnsSd => SdpDescriptor::dns_sd().protocol(),
            };
            c.adverts.push((s.name.clone(), s.dnssd_url.clone(), origin));
            if s.native == Native::Upnp {
                // What SLP clients ask for, and what the fan-out fetches.
                c.srv_rqst.push(crate::inputs::slp_request(&format!("service:{}", s.name)));
                c.known.push((s.name.clone(), s.dnssd_url.clone()));
                c.http.push(http_response(&s.description_xml));
                c.xml.push(s.description_xml.clone());
            } else {
                // What UPnP control points ask for.
                let st = SearchTarget::device_urn(&s.name, 1);
                c.msearch.push(MSearch::new(st, 0).to_bytes());
            }
        }
        c
    }
}

/// Bare forwarding floor: a 60-byte datagram echoed by a sink on the
/// batched transport, no gateway. Returns `(rtt µs, process CPU µs per
/// datagram handled)`.
fn echo_floor() -> Result<(f64, f64), String> {
    let e = |e: &dyn std::fmt::Display| format!("echo floor: {e}");
    let transport = BatchedTransport::loopback();
    let slot: Arc<OnceLock<Arc<dyn TransportSocket>>> = Arc::new(OnceLock::new());
    let echo = Arc::clone(&slot);
    let server = transport
        .bind_client_batched(Arc::new(move |batch: Vec<Datagram>| {
            if let Some(socket) = echo.get() {
                let replies: Vec<_> = batch.into_iter().map(|d| (d.payload, d.src)).collect();
                socket.send_batch(&replies);
            }
        }))
        .map_err(|err| e(&err))?;
    let _ = slot.set(Arc::clone(&server));
    let client = UdpSocket::bind("127.0.0.1:0").map_err(|err| e(&err))?;
    client.set_read_timeout(Some(Duration::from_millis(200))).map_err(|err| e(&err))?;
    let dst = SocketAddr::V4(server.local_addr());
    let (payload, mut buf) = ([0x5Au8; 60], [0u8; 128]);
    let mut rtts = Vec::with_capacity(2000);
    let cpu_before = crate::sys::process_cpu_ns();
    for _ in 0..2000 {
        let t = Instant::now();
        client.send_to(&payload, dst).map_err(|err| e(&err))?;
        if client.recv_from(&mut buf).is_ok() {
            rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let cpu = crate::sys::process_cpu_ns() - cpu_before;
    transport.shutdown();
    if rtts.len() < 1900 {
        return Err(e(&format!("only {} of 2000 echoes came back", rtts.len())));
    }
    // Each echo is one datagram in and one out of the transport.
    Ok((median(&rtts), cpu as f64 / 1e3 / (2.0 * rtts.len() as f64)))
}

/// `TransportSocket::send_batch` in 64-datagram bursts of 60 bytes.
fn send_batch_floor() -> Result<f64, String> {
    let e = |e: &dyn std::fmt::Display| format!("send_batch floor: {e}");
    let transport = BatchedTransport::loopback();
    let socket = transport.bind_client_batched(Arc::new(|_| {})).map_err(|err| e(&err))?;
    // Never read: once its buffer is full the kernel drops on delivery,
    // which costs the sender the same.
    let sink = UdpSocket::bind("127.0.0.1:0").map_err(|err| e(&err))?;
    let SocketAddr::V4(dst) = sink.local_addr().map_err(|err| e(&err))? else {
        return Err(e(&"sink is not IPv4"));
    };
    let burst: Vec<(Vec<u8>, std::net::SocketAddrV4)> =
        (0..64).map(|_| (vec![0x5Au8; 60], dst)).collect();
    let per_burst = time_ns(|_| {
        std::hint::black_box(socket.send_batch(std::hint::black_box(&burst)));
    });
    transport.shutdown();
    Ok(per_burst / 64.0)
}

/// Node-to-node datagram dispatch on the simulator.
fn sim_dispatch(seed: u64) -> Result<f64, String> {
    let e = |e: indiss_net::NetError| format!("sim dispatch: {e}");
    let world = World::new(seed);
    let (a, b) = (world.add_node("a"), world.add_node("b"));
    let rx = b.udp_bind(9000).map_err(e)?;
    rx.on_receive(|_, d| {
        std::hint::black_box(d.payload.len());
    });
    let tx = a.udp_bind_ephemeral().map_err(e)?;
    let dst = std::net::SocketAddrV4::new(b.addr(), 9000);
    let per_burst = time_ns(|_| {
        for _ in 0..64 {
            let _ = tx.send_to(&[0x5Au8; 60], dst);
        }
        world.run_for(Duration::from_millis(10));
    });
    Ok(per_burst / 64.0)
}

/// `WorkerPool::submit` → job start on an idle worker (µs), and the cost
/// of the `submit` call itself while the worker is busy (ns).
fn pool_handoff() -> (f64, f64) {
    let pool = WorkerPool::new(2);
    let (tx, rx) = mpsc::channel();
    let handoffs: Vec<f64> = (0..2000)
        .filter_map(|_| {
            let tx = tx.clone();
            let submitted = Instant::now();
            pool.submit(0, move || {
                let _ = tx.send(Instant::now());
            });
            let started = rx.recv().ok()?;
            Some(started.duration_since(submitted).as_nanos() as f64 / 1e3)
        })
        .collect();
    // Busy worker: a job parks lane 0 while submissions queue up behind.
    let submit_ns: Vec<f64> = (0..100)
        .map(|_| {
            let (gate_tx, gate_rx) = mpsc::channel::<()>();
            pool.submit(0, move || {
                let _ = gate_rx.recv();
            });
            let t = Instant::now();
            for _ in 0..1000 {
                pool.submit(0, || {});
            }
            let per = t.elapsed().as_nanos() as f64 / 1000.0;
            let _ = gate_tx.send(());
            pool.join();
            per
        })
        .collect();
    (median(&handoffs), median(&submit_ns))
}

fn cycle<T>(items: &[T], i: usize) -> &T {
    &items[i % items.len()]
}

/// Measures every per-layer micro-benchmark `workload`'s inputs feed.
pub fn measure(workload: Workload, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let corpus = match workload {
        Workload::ColdBridge => Corpus::from_cold(&ColdWorld::build(seed)?),
        live => Corpus::from_live(&mut LiveInput::generate(live, seed)),
    };
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_owned(), value);
    };
    let c = &corpus;

    if c.wire {
        let (rtt, cpu) = echo_floor()?;
        put("net.echo_rtt_us", rtt);
        put("net.echo_cpu_us_per_dgram", cpu);
        put("net.send_batch_ns_per_dgram", send_batch_floor()?);
        let (handoff, submit) = pool_handoff();
        put("pool.handoff_us", handoff);
        put("pool.submit_ns", submit);
    }
    if c.sim {
        put("net.sim_dispatch_ns", sim_dispatch(seed)?);
    }

    // Codecs.
    if !c.srv_rqst.is_empty() {
        put(
            "slp.decode_srvrqst_ns",
            time_ns(|i| {
                std::hint::black_box(
                    indiss_slp::Message::decode(cycle(&c.srv_rqst, i).as_slice()).is_ok(),
                );
            }),
        );
        put(
            "units.parse_slp_request_ns",
            time_ns(|i| {
                std::hint::black_box(parse_slp_request(
                    cycle(&c.srv_rqst, i).as_slice(),
                    CLIENT,
                    false,
                ));
            }),
        );
        let requests: Vec<EventStream> =
            c.srv_rqst.iter().filter_map(|w| parse_slp_request(w, CLIENT, false)).collect();
        let responses: Vec<EventStream> =
            c.known.iter().map(|(n, u)| pubapi::response_stream(n, u, 1800)).collect();
        let replies: Vec<indiss_slp::Message> = requests
            .iter()
            .zip(&responses)
            .filter_map(|(rq, rs)| pubapi::srv_rply(rq, rs))
            .collect();
        put(
            "slp.encode_srvrply_ns",
            time_ns(|i| {
                std::hint::black_box(cycle(&replies, i).encode().is_ok());
            }),
        );
    }
    if !c.srv_reg.is_empty() {
        put(
            "slp.decode_srvreg_ns",
            time_ns(|i| {
                std::hint::black_box(
                    indiss_slp::Message::decode(cycle(&c.srv_reg, i).as_slice()).is_ok(),
                );
            }),
        );
    }
    if !c.notify.is_empty() {
        put(
            "ssdp.parse_notify_ns",
            time_ns(|i| {
                std::hint::black_box(SsdpMessage::parse(cycle(&c.notify, i).as_slice()).is_ok());
            }),
        );
    }
    if !c.msearch.is_empty() {
        put(
            "ssdp.parse_msearch_ns",
            time_ns(|i| {
                std::hint::black_box(SsdpMessage::parse(cycle(&c.msearch, i).as_slice()).is_ok());
            }),
        );
    }
    if !c.xml.is_empty() {
        put(
            "upnp.description_from_xml_us",
            time_ns(|i| {
                std::hint::black_box(
                    DeviceDescription::from_xml(cycle(&c.xml, i).as_str()).is_ok(),
                );
            }) / 1e3,
        );
        put(
            "http.parse_response_ns",
            time_ns(|i| {
                std::hint::black_box(
                    indiss_http::Response::parse(cycle(&c.http, i).as_slice()).is_ok(),
                );
            }),
        );
    }

    // Events, symbols, FSM.
    if !c.adverts.is_empty() {
        put(
            "event.framed_ns",
            time_consuming_ns(
                |i| {
                    let (name, url, origin) = cycle(&c.adverts, i);
                    pubapi::advert_body(*origin, name, url, 1800, true)
                },
                |body| {
                    std::hint::black_box(EventStream::framed(body));
                },
            ),
        );
        // Held, so the names stay interned while "hit" is measured.
        let held: Vec<Symbol> = c.adverts.iter().map(|(n, ..)| Symbol::from(n.as_str())).collect();
        put(
            "symbol.intern_hit_ns",
            time_ns(|i| {
                std::hint::black_box(Symbol::from(cycle(&c.adverts, i).0.as_str()));
            }),
        );
        drop(held);
        let fresh: Vec<String> = (0..120_000).map(|i| format!("bench-fresh-type-{i}")).collect();
        put(
            "symbol.intern_new_ns",
            time_ns(|i| {
                std::hint::black_box(Symbol::from(cycle(&fresh, i).as_str()));
            }),
        );
        Symbol::collect();
    }
    if c.sim {
        let streams: Vec<EventStream> = c
            .xml
            .iter()
            .zip(&c.known)
            .filter_map(|(xml, (name, _))| {
                let desc = DeviceDescription::from_xml(xml).ok()?;
                let location = format!("http://10.0.0.1:4004/{name}.xml");
                let usn = format!("uuid:{name}");
                let advert =
                    EventStream::framed(pubapi::notify_body(name, &usn, Some(&location), 1800));
                Some(pubapi::enrich(&advert, &desc, &location))
            })
            .collect();
        let events: usize = streams.iter().map(|s| s.events().len()).sum();
        let mut fsm = pubapi::unit_shaped_fsm();
        let mut commands = Vec::new();
        let per_stream = time_ns(|i| {
            let mut fired = 0;
            fsm.reset();
            commands.clear();
            fsm.feed_all(cycle(&streams, i).events(), &mut fired, &mut commands);
            std::hint::black_box(fired);
        });
        put("fsm.feed_ns", per_stream * streams.len() as f64 / events.max(1) as f64);
    }

    // Gateway classification and the registry behind it.
    if c.wire && !c.srv_rqst.is_empty() {
        let gateway = ThreadedGateway::from_config(&crate::serve::gateway_config());
        let (core, registry) = (gateway.core(), gateway.registry());
        let now = SimTime::from_secs(10);
        // At most 32 types: well inside every shard's share of the cache.
        let hot: Vec<(EventStream, Symbol)> = c
            .srv_rqst
            .iter()
            .zip(&c.known)
            .take(32)
            .filter_map(|(wire, (name, url))| {
                registry.warm(name.as_str(), pubapi::response_stream(name, url, 1800), now);
                Some((parse_slp_request(wire, CLIENT, false)?, Symbol::from(name.as_str())))
            })
            .collect();
        put(
            "gateway.classify_hit_ns",
            time_ns(|i| {
                let decision = core.classify(SdpProtocol::Slp, &cycle(&hot, i).0, now);
                debug_assert!(matches!(decision, WarmDecision::CacheHit(_)));
                std::hint::black_box(decision);
            }),
        );
        put(
            "registry.cached_response_ns",
            time_ns(|i| {
                std::hint::black_box(registry.cached_response(cycle(&hot, i).1.clone(), now));
            }),
        );
        let absent: Vec<EventStream> =
            c.absent_rqst.iter().filter_map(|w| parse_slp_request(w, CLIENT, false)).collect();
        if !absent.is_empty() {
            // Each pass over the absent types happens a second later, so
            // the 600 ms suppression windows of the previous pass are over.
            put(
                "gateway.classify_bridge_ns",
                time_ns(|i| {
                    let at = SimTime::from_secs(20 + (i / absent.len()) as u64);
                    std::hint::black_box(core.classify(SdpProtocol::Slp, cycle(&absent, i), at));
                }),
            );
            // …and here every pass happens at one instant, inside them.
            let at = SimTime::from_secs(1_000_000);
            for request in &absent {
                core.classify(SdpProtocol::Slp, request, at);
            }
            put(
                "gateway.classify_suppressed_ns",
                time_ns(|i| {
                    let decision = core.classify(SdpProtocol::Slp, cycle(&absent, i), at);
                    debug_assert_eq!(decision, WarmDecision::Suppressed);
                    std::hint::black_box(decision);
                }),
            );
        }
    }
    if c.wire && !c.adverts.is_empty() && workload != Workload::WarmHit {
        let gateway = ThreadedGateway::from_config(&crate::serve::gateway_config());
        let registry = gateway.registry();
        let now = SimTime::from_secs(10);
        let streams: Vec<(SdpProtocol, EventStream, EventStream)> = c
            .adverts
            .iter()
            .map(|(n, u, o)| {
                let advert = EventStream::framed(pubapi::advert_body(*o, n, u, 3, true));
                (*o, advert, pubapi::response_stream(n, u, 3))
            })
            .collect();
        put(
            "registry.warm_ns",
            time_ns(|i| {
                let (_, advert, response) = cycle(&streams, i);
                if let Some(ty) = advert.service_type_symbol() {
                    registry.warm(ty, response.clone(), now);
                }
            }),
        );
        // New records: every call a never-seen URL, so the 4096-record
        // store is soon full and each insert also evicts — as in the run.
        let fresh: Vec<EventStream> = (0..120_000)
            .map(|i| {
                let url = format!("ipp://10.9.{}.{}:631/r{i}", (i >> 8) & 255, i & 255);
                let name = &c.adverts[i % c.adverts.len()].0;
                EventStream::framed(pubapi::advert_body(SdpProtocol::Slp, name, &url, 3, true))
            })
            .collect();
        put(
            "registry.record_advert_new_ns",
            time_ns(|i| {
                std::hint::black_box(registry.record_advert(
                    SdpProtocol::Slp,
                    cycle(&fresh, i),
                    now,
                ));
            }),
        );
        put(
            "registry.record_advert_refresh_ns",
            time_ns(|i| {
                let (origin, advert, _) = cycle(&streams, i % 64);
                std::hint::black_box(registry.record_advert(*origin, advert, now));
            }),
        );
        // A sweep's cost per record it expires: fill with 3 s TTLs, sweep
        // ten seconds later.
        let per_expired: Vec<f64> = (0..20)
            .filter_map(|round| {
                let at = SimTime::from_secs(100 + round * 100);
                for stream in fresh.iter().skip(round as usize * 4096).take(4096) {
                    registry.record_advert(SdpProtocol::Slp, stream, at);
                }
                let t = Instant::now();
                let report = registry.sweep(at + Duration::from_secs(10));
                let ns = t.elapsed().as_nanos() as f64;
                (report.records_expired > 0).then(|| ns / report.records_expired as f64)
            })
            .collect();
        put("registry.sweep_ns_per_expired", median(&per_expired));
    }
    Ok(out)
}
