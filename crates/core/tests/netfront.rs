//! Transport-seam integration tests: the same scripted traffic through
//! a [`SimTransport`] gateway and a real-socket [`BatchedTransport`]
//! gateway must produce byte-identical composed messages, identical
//! registry contents and identical bridge accounting — the wire is an
//! implementation detail behind the seam, not a semantic fork.
//!
//! Real-socket halves skip (with a log line) when the environment forbids
//! binding loopback sockets; the Sim halves always run.

use std::net::SocketAddrV4;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use indiss_core::{
    chrome_trace_json, validate_chrome_trace, DescriptionFetch, Event, EventStream, IndissConfig,
    NetDriver, Phase, SdpDescriptor, SdpProtocol, StaticDescriptions,
};
use indiss_net::{
    BatchedTransport, BindSpec, Datagram, NetError, NetResult, SimTransport, Transport,
    TransportBatchSink, TransportKind, TransportSocket,
};
use indiss_upnp::{DeviceDescription, ServiceDescription};

/// Each UDP test takes a distinct offset block so parallel test threads
/// never collide on a port.
static NEXT_OFFSET: AtomicU16 = AtomicU16::new(22_000);

fn next_offset() -> u16 {
    NEXT_OFFSET.fetch_add(100, Ordering::Relaxed)
}

fn clock_description() -> DeviceDescription {
    DeviceDescription {
        device_type: "urn:schemas-upnp-org:device:clock:1".into(),
        friendly_name: "CyberGarage Clock Device".into(),
        manufacturer: "CyberGarage".into(),
        manufacturer_url: "http://www.cybergarage.org".into(),
        model_description: "CyberUPnP Clock Device".into(),
        model_name: "Clock".into(),
        model_number: "1.0".into(),
        model_url: "http://www.cybergarage.org".into(),
        udn: "uuid:ClockDevice".into(),
        services: vec![ServiceDescription::conventional("timer", 1)],
    }
}

fn slp_request(service_type: &str, xid: u16) -> Vec<u8> {
    indiss_slp::Message::new(
        indiss_slp::Header::new(indiss_slp::FunctionId::SrvRqst, xid, "en"),
        indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
            prlist: String::new(),
            service_type: service_type.to_owned(),
            scopes: "DEFAULT".into(),
            predicate: String::new(),
            spi: String::new(),
        }),
    )
    .encode()
    .expect("encodable")
}

/// Polls `done` (every millisecond, for at most three seconds) until it
/// holds. Channels that run on the transport's delivery thread have
/// nothing `NetDriver::join` could wait for, so tests wait on what the
/// traffic does: a counter, a registry entry.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(3);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn clock_notify(location: &str) -> Vec<u8> {
    indiss_ssdp::Notify {
        nt: indiss_ssdp::SearchTarget::device_urn("clock", 1),
        nts: indiss_ssdp::NotifySubType::Alive,
        usn: "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1".into(),
        location: Some(location.to_owned()),
        server: "seam-test/1.0".into(),
        max_age: 1800,
    }
    .to_bytes()
}

/// What one scripted run produced: everything the parity assertion
/// compares (no timing, no addresses — semantics only).
#[derive(Debug, PartialEq)]
struct ScriptOutcome {
    reply_payloads: Vec<Vec<u8>>,
    record_count: usize,
    has_clock: bool,
    cache_hits: u64,
    responses_composed: u64,
    adverts_recorded: u64,
    negative_hits: u64,
    requests_suppressed: u64,
}

/// Boots a gateway on `transport`, replays the canonical script — a
/// real UPnP NOTIFY advert (description via a canned fetcher, identical
/// in both runs), a warm SLP request, a repeat inside the suppression
/// window, and a request for an absent type — and collects the
/// composed wire bytes plus the registry/bridge state.
fn run_script(transport: Arc<dyn Transport>) -> ScriptOutcome {
    let location = "http://10.88.0.2:4004/description.xml";
    let descriptions = Arc::new(StaticDescriptions::new());
    descriptions.insert(location, &clock_description().to_xml());

    let driver = NetDriver::builder(IndissConfig::slp_upnp())
        .transport(Arc::clone(&transport))
        .describe(descriptions)
        .start()
        .expect("driver");

    let (tx, rx) = mpsc::channel::<Datagram>();
    let client: Arc<dyn TransportSocket> = transport
        .bind_client(Arc::new(move |d: Datagram| {
            let _ = tx.send(d);
        }))
        .expect("client");
    let upnp_addr = driver.channel_addr(SdpProtocol::Upnp).expect("upnp");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp");

    // 1. The device advertises; wait until the gateway recorded it
    //    (the real-socket run crosses the reactor thread, so poll).
    client.send_to(&clock_notify(location), upnp_addr).expect("send NOTIFY");
    wait_until("the advert is recorded", || driver.registry().contains_type("clock", driver.now()));
    driver.join();

    // 2. A warm SLP request: answered on the wire.
    client.send_to(&slp_request("service:clock", 0x0AA0), slp_addr).expect("send request");
    let first_reply = rx.recv_timeout(Duration::from_secs(3)).expect("composed reply");

    // 3. The identical request again: cache hit again (cache beats the
    //    suppression window, as in the simulation).
    client.send_to(&slp_request("service:clock", 0x0AA1), slp_addr).expect("send repeat");
    let second_reply = rx.recv_timeout(Duration::from_secs(3)).expect("second reply");

    // 4. An absent type: fans nowhere, arms suppression, stays silent.
    client.send_to(&slp_request("service:toaster", 0x0AA2), slp_addr).expect("send absent");
    wait_until("the absent-type request is classified", || driver.front_stats().cold_misses == 1);
    // Give a stray (incorrect) reply a moment to surface on real sockets.
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "absent type must be silence");

    let stats = driver.stats();
    let registry = driver.registry();
    let outcome = ScriptOutcome {
        reply_payloads: vec![first_reply.payload, second_reply.payload],
        record_count: registry.record_count(),
        has_clock: registry.contains_type("clock", driver.now()),
        cache_hits: stats.cache_hits,
        responses_composed: stats.responses_composed,
        adverts_recorded: stats.adverts_recorded,
        negative_hits: stats.negative_hits,
        requests_suppressed: stats.requests_suppressed,
    };
    driver.shutdown();
    outcome
}

/// The headline seam test: one script, two transports, byte-identical
/// composed messages and identical state. The real-socket half is
/// [`BatchedTransport`] (reactor + `recvmmsg`/`sendmmsg` where
/// available, portable thread-per-channel fallback under
/// `--no-default-features`); its counters prove the selected engine
/// actually carried the traffic.
#[test]
fn sim_and_real_socket_runs_are_byte_identical() {
    let sim = run_script(Arc::new(SimTransport::new()));

    // Sanity on the sim run itself before comparing.
    assert_eq!(sim.reply_payloads.len(), 2);
    let msg = indiss_slp::Message::decode(&sim.reply_payloads[0]).expect("valid SrvRply");
    match msg.body {
        indiss_slp::Body::SrvRply(rply) => assert_eq!(
            rply.urls[0].url, "service:clock:soap://10.88.0.2:4004/service/timer/control",
            "description-fetched control endpoint, Fig. 4 URL mapping"
        ),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(sim.cache_hits, 2);
    assert_eq!(sim.responses_composed, 2);
    assert_eq!(sim.adverts_recorded, 1);
    assert!(sim.has_clock);

    let transport = Arc::new(BatchedTransport::with_offset(next_offset()));
    // Probe whether this environment allows loopback sockets at all.
    if transport.bind_client(Arc::new(|_| {})).is_err() {
        eprintln!("skipping real-socket half of the parity test: no loopback sockets");
        return;
    }
    let real = run_script(Arc::clone(&transport) as Arc<dyn Transport>);

    // The XIDs differ per message but are identical across runs, so the
    // composed payloads must match byte for byte.
    assert_eq!(sim, real, "transport seam leaked into semantics");

    // The engine's own counters (surfaced through the same seam as
    // NetFrontStats). The `io_stats()` surface is identical in both
    // builds; which counters move tells us which engine ran.
    let io = transport.io_stats().expect("batched transport has IO stats");
    assert!(io.reactor_wakeups >= 1, "no engine wakeups recorded: {io:?}");
    assert!(io.recv_batches() >= 3, "script traffic should span ≥3 recv batches: {io:?}");
    assert!(io.batch_sends_flushed >= 2, "two replies ⇒ ≥2 batch flushes: {io:?}");
    assert_eq!(io.faults.total(), 0, "no fault injector in the parity script: {io:?}");
    // The portable fallback delivers strictly singleton batches, so any
    // entry in a larger histogram bucket means the feature gate leaked
    // native batching into the `--no-default-features` build.
    #[cfg(not(feature = "epoll"))]
    assert_eq!(
        io.recv_batch_hist[1..],
        [0, 0, 0],
        "fallback receives one datagram at a time: {io:?}"
    );
}

/// Passive port-detection of a *descriptor* protocol from live packets
/// (paper Fig. 4/5): the lazy gateway activates the protocol's pipeline
/// on first real traffic and serves its native answer line. Started
/// from configuration alone, so it also pins that the engine
/// `TransportKind::Udp` selects is the measured reactor engine.
#[test]
fn descriptor_protocol_detected_and_served_on_real_sockets() {
    let descriptor = SdpDescriptor::dns_sd();
    let config = IndissConfig::builder()
        .slp()
        .descriptor(descriptor.clone())
        .lazy()
        .transport(TransportKind::Udp)
        .port_offset(next_offset())
        .build();
    let driver = match NetDriver::builder(config).start() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("skipping descriptor_protocol_detected_and_served_on_real_sockets: {e}");
            return;
        }
    };
    driver.registry().warm(
        "scanner",
        EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType("scanner".into()),
            Event::ResTtl(120),
            Event::ResServUrl("scan://10.0.4.1:6566/sane".into()),
        ]),
        driver.now(),
    );
    assert!(driver.active_units().is_empty(), "lazy: nothing active before traffic");

    let transport = driver.transport();
    let (tx, rx) = mpsc::channel::<Datagram>();
    let client = transport
        .bind_client(Arc::new(move |d: Datagram| {
            let _ = tx.send(d);
        }))
        .expect("client");
    let addr = driver.channel_addr(descriptor.protocol()).expect("channel");
    client.send_to(b"DNSSD Q PTR _scanner._tcp.local", addr).expect("send");

    let reply = rx.recv_timeout(Duration::from_secs(3)).expect("native answer on the wire");
    assert_eq!(
        String::from_utf8(reply.payload).expect("utf8"),
        "DNSSD A PTR _scanner._tcp.local SRV scan://10.0.4.1:6566/sane TTL 120"
    );
    assert_eq!(driver.detected(), vec![descriptor.protocol()], "port-based detection");
    assert_eq!(driver.active_units(), vec![descriptor.protocol()], "Fig. 5 activation");
    let front = driver.front_stats();
    assert!(front.reactor_wakeups >= 1, "config-selected engine reports no wakeups: {front:?}");
    assert!(front.recv_batch_hist.iter().sum::<u64>() >= 1, "empty recv-batch histogram");
    driver.shutdown();
}

/// The negative cache absorbs an absent-type storm on the wire exactly
/// as in the simulation: one cold miss, then negative hits, no replies.
#[test]
fn absent_type_storm_is_absorbed_on_the_wire() {
    let driver = NetDriver::builder(
        IndissConfig::builder()
            .slp()
            .negative_ttl(Duration::from_secs(600))
            .suppress_window(Duration::from_millis(0))
            .build(),
    )
    .start()
    .expect("driver");
    let transport = driver.transport();
    let (tx, rx) = mpsc::channel::<Datagram>();
    let client = transport
        .bind_client(Arc::new(move |d: Datagram| {
            let _ = tx.send(d);
        }))
        .expect("client");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp");

    // The wire front cannot fan out, so it arms the negative memory the
    // way a completed empty fan-out would in the runtime: via the
    // registry, which the storm then hits.
    client.send_to(&slp_request("service:toaster", 1), slp_addr).expect("send");
    driver.join();
    assert_eq!(driver.front_stats().cold_misses, 1);
    driver.registry().warm_negative(SdpProtocol::Slp, "toaster", driver.now());

    for xid in 2..7u16 {
        client.send_to(&slp_request("service:toaster", xid), slp_addr).expect("send");
    }
    driver.join();
    let stats = driver.stats();
    assert_eq!(stats.negative_hits, 5, "storm absorbed: {stats:?}");
    assert_eq!(driver.front_stats().cold_misses, 1, "no further fan-out candidates");
    assert!(rx.try_recv().is_err(), "absent types answered with silence");
    driver.shutdown();
}

/// A [`DescriptionFetch`] that notes which thread each fetch ran on.
struct ThreadNotingFetch {
    descriptions: StaticDescriptions,
    threads: Mutex<Vec<String>>,
}

impl DescriptionFetch for ThreadNotingFetch {
    fn fetch(&self, url: &str) -> Option<String> {
        let thread = std::thread::current().name().unwrap_or("<unnamed>").to_owned();
        self.threads.lock().expect("threads").push(thread);
        self.descriptions.fetch(url)
    }
}

/// The threading contract of the blocking seam: a description fetch may
/// sit in a TCP GET for its whole timeout, so it only ever runs on a
/// worker lane — never on the thread that delivers datagrams (the
/// sender's on the sim bus, `indiss-reactor` on real sockets), which
/// keeps serving SLP requests inline meanwhile.
fn fetches_run_on_worker_threads(transport: Arc<dyn Transport>) {
    const NOTIFIES: usize = 24;
    let location = "http://10.88.0.2:4004/description.xml";
    let fetcher = Arc::new(ThreadNotingFetch {
        descriptions: StaticDescriptions::new(),
        threads: Mutex::new(Vec::new()),
    });
    fetcher.descriptions.insert(location, &clock_description().to_xml());
    let config = IndissConfig::builder().slp().upnp().workers(2).build();
    let driver = NetDriver::builder(config)
        .transport(Arc::clone(&transport))
        .describe(Arc::clone(&fetcher) as Arc<dyn DescriptionFetch>)
        .start()
        .expect("driver");
    let client = transport.bind_client(Arc::new(|_| {})).expect("client");
    let upnp_addr = driver.channel_addr(SdpProtocol::Upnp).expect("upnp");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp");
    for i in 0..NOTIFIES {
        client.send_to(&clock_notify(location), upnp_addr).expect("send NOTIFY");
        client.send_to(&slp_request("service:clock", i as u16), slp_addr).expect("send request");
    }
    wait_until("every NOTIFY was enriched", || {
        driver.front_stats().descriptions_fetched == NOTIFIES as u64
    });
    driver.shutdown();

    let threads = fetcher.threads.lock().expect("threads");
    assert_eq!(threads.len(), NOTIFIES, "one fetch per alive NOTIFY");
    for thread in threads.iter() {
        assert!(thread.starts_with("indiss-worker-"), "fetch ran on thread {thread:?}");
    }
}

#[test]
fn description_fetch_never_runs_on_a_delivery_thread() {
    fetches_run_on_worker_threads(Arc::new(SimTransport::new()));

    let transport = Arc::new(BatchedTransport::with_offset(next_offset()));
    if transport.bind_client(Arc::new(|_| {})).is_err() {
        eprintln!("skipping real-socket half of the fetch-thread test: no loopback sockets");
        return;
    }
    fetches_run_on_worker_threads(transport);
}

fn slp_registration(service_type: &str, url: &str, xid: u16) -> Vec<u8> {
    indiss_slp::Message::new(
        indiss_slp::Header::new(indiss_slp::FunctionId::SrvReg, xid, "en"),
        indiss_slp::Body::SrvReg(indiss_slp::SrvReg {
            entry: indiss_slp::UrlEntry::new(url, 1800),
            service_type: service_type.to_owned(),
            scopes: "DEFAULT".into(),
            attrs: String::new(),
        }),
    )
    .encode()
    .expect("encodable")
}

/// Per-channel FIFO on real sockets: a registration for a type nobody
/// has heard of, immediately followed on the same client socket by a
/// request for it, is always answered with that type's URL — the
/// request never overtakes the advert that makes it answerable. Sent in
/// windows of 16 pairs so the reactor sees real batches, not only
/// singletons.
#[test]
fn request_right_behind_its_registration_is_always_answered() {
    const PAIRS: usize = 1000;
    const WINDOW: usize = 16;
    let config = IndissConfig::builder()
        .slp()
        .transport(TransportKind::Udp)
        .port_offset(next_offset())
        .build();
    let driver = match NetDriver::builder(config).start() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("skipping request_right_behind_its_registration_is_always_answered: {e}");
            return;
        }
    };
    let (tx, rx) = mpsc::channel::<Datagram>();
    let client = driver
        .transport()
        .bind_client(Arc::new(move |d: Datagram| {
            let _ = tx.send(d);
        }))
        .expect("client");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp");

    let url_of = |i: usize| format!("service:fifo-{i}:lpr://10.0.3.1:{}", 1024 + i);
    for window in (0..PAIRS).step_by(WINDOW) {
        let pairs = window..(window + WINDOW).min(PAIRS);
        for i in pairs.clone() {
            let ty = format!("service:fifo-{i}");
            client.send_to(&slp_registration(&ty, &url_of(i), 0), slp_addr).expect("send SrvReg");
            client.send_to(&slp_request(&ty, i as u16), slp_addr).expect("send SrvRqst");
        }
        for _ in pairs {
            let reply = rx
                .recv_timeout(Duration::from_secs(3))
                .unwrap_or_else(|_| panic!("a request of window {window} went unanswered"));
            let msg = indiss_slp::Message::decode(&reply.payload).expect("valid SLP");
            let indiss_slp::Body::SrvRply(rply) = msg.body else {
                panic!("unexpected {:?}", msg.body);
            };
            assert_eq!(rply.urls[0].url, url_of(usize::from(msg.header.xid)));
        }
    }
    let stats = driver.front_stats();
    assert_eq!(stats.replies_sent, PAIRS as u64);
    assert_eq!(stats.cold_misses, 0, "no request ran ahead of its registration");
    driver.shutdown();
}

/// One worker, tracing on, SLP and UPnP traffic interleaved: the SLP
/// pipeline runs on the delivery thread while the worker drains UPnP,
/// so two threads record spans at once. Each must own its ring — with
/// the delivery thread on the worker's ring (`lane % workers`) the
/// unsynchronised head would lose or tear spans. Every span is
/// accounted for, on the ring its thread owns, in sequence.
#[test]
fn inline_and_queued_channels_record_on_rings_of_their_own() {
    const ROUNDS: usize = 200;
    let config = IndissConfig::builder().slp().upnp().workers(1).trace(true).build();
    let driver = NetDriver::builder(config)
        .describe(Arc::new(StaticDescriptions::new()))
        .start()
        .expect("driver");
    driver.registry().warm(
        "clock",
        EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType("clock".into()),
            Event::ResTtl(1800),
            Event::ResServUrl("soap://10.0.0.2:4004/service/timer/control".into()),
        ]),
        driver.now(),
    );
    let transport = driver.transport();
    let client = transport.bind_client(Arc::new(|_| {})).expect("client");
    let upnp_addr = driver.channel_addr(SdpProtocol::Upnp).expect("upnp");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp");
    let notify = clock_notify("http://10.88.0.2:4004/description.xml");
    for i in 0..ROUNDS {
        // Queued: the worker picks this up while …
        client.send_to(&notify, upnp_addr).expect("send NOTIFY");
        // … this one is served right here, on the sending thread.
        client.send_to(&slp_request("service:clock", i as u16), slp_addr).expect("send request");
    }
    driver.join();
    assert_eq!(driver.front_stats().replies_sent, ROUNDS as u64, "every request was a warm hit");

    // Singleton batches, so every datagram is sampled: a warm hit is
    // decode + classify + deliver + reply, a NOTIFY is the pool's job
    // span + decode.
    let tracer = driver.tracer();
    assert_eq!(tracer.spans_dropped(), 0, "rings sized for the whole run");
    assert_eq!(tracer.spans_recorded(), (4 * ROUNDS + 2 * ROUNDS) as u64);
    let spans = tracer.snapshot();
    assert_eq!(spans.len(), 6 * ROUNDS, "no slot was unreadable or overwritten");
    validate_chrome_trace(&chrome_trace_json(&spans)).expect("well-formed, ordered trace");

    // Ring 0 is worker 0's; ring `workers + lane` = 1 is the SLP
    // channel's; the queued UPnP channel leaves its own ring 2 unused.
    for (ring, expect) in [(0, 2 * ROUNDS), (1, 4 * ROUNDS), (2, 0)] {
        let mut seqs: Vec<u64> = spans.iter().filter(|s| s.ring == ring).map(|s| s.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs.len(), expect, "spans on ring {ring}");
        assert!(seqs.iter().copied().eq(0..expect as u64), "ring {ring} skipped or reused a seq");
    }
    for span in &spans {
        assert!(span.end >= span.start, "torn span {span:?}");
        assert_eq!(usize::from(span.lane), span.ring, "one lane per ring: {span:?}");
        if span.phase == Phase::Job {
            assert_eq!(span.ring, 0, "job spans stay on the worker's ring: {span:?}");
        }
    }
    driver.shutdown();
}

/// A transport over the sim bus whose bound channels refuse every send —
/// what a gateway meets when every requester in a flush is unsendable.
struct RefusingTransport(SimTransport);

struct RefusingSocket(Arc<dyn TransportSocket>);

impl TransportSocket for RefusingSocket {
    fn send_to(&self, _: &[u8], _: SocketAddrV4) -> NetResult<usize> {
        Err(NetError::SocketClosed)
    }

    fn local_addr(&self) -> SocketAddrV4 {
        self.0.local_addr()
    }
}

impl Transport for RefusingTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn bind_batched(
        &self,
        spec: &BindSpec,
        sink: TransportBatchSink,
    ) -> NetResult<Arc<dyn TransportSocket>> {
        Ok(Arc::new(RefusingSocket(self.0.bind_batched(spec, sink)?)))
    }

    fn bind_client_batched(&self, sink: TransportBatchSink) -> NetResult<Arc<dyn TransportSocket>> {
        self.0.bind_client_batched(sink)
    }

    fn shutdown(&self) {
        self.0.shutdown();
    }
}

/// A composed reply the socket refuses is counted once, in
/// `replies_dropped`, and neither as sent nor as a composed response.
#[test]
fn refused_replies_are_counted_as_dropped() {
    let sim = SimTransport::new();
    let transport: Arc<dyn Transport> = Arc::new(RefusingTransport(sim.clone()));
    let driver = NetDriver::builder(IndissConfig::builder().slp().build())
        .transport(transport)
        .start()
        .expect("driver");
    let response = EventStream::framed(vec![
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType("clock".into()),
        Event::ResServUrl("soap://10.0.0.2:4004/ctl".into()),
    ]);
    driver.registry().warm("clock", response, driver.now());
    let client = sim.bind_client(Arc::new(|_| {})).expect("client");
    let slp = driver.channel_addr(SdpProtocol::Slp).expect("slp channel");
    for xid in 0..3 {
        client.send_to(&slp_request("service:clock", xid), slp).expect("send");
    }
    let front = driver.front_stats();
    assert_eq!((front.replies_sent, front.replies_dropped), (0, 3));
    assert_eq!(driver.stats().responses_composed, 0);
    driver.shutdown();
}
