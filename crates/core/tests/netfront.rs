//! Transport-seam integration tests: the same scripted traffic through
//! a [`SimTransport`] gateway and a real-socket [`BatchedTransport`]
//! gateway must produce byte-identical composed messages, identical
//! registry contents and identical bridge accounting — the wire is an
//! implementation detail behind the seam, not a semantic fork.
//!
//! Real-socket halves skip (with a log line) when the environment forbids
//! binding loopback sockets; the Sim halves always run.

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use indiss_core::{
    Event, EventStream, IndissConfig, NetDriver, SdpDescriptor, SdpProtocol, StaticDescriptions,
};
use indiss_net::{
    BatchedTransport, Datagram, SimTransport, Transport, TransportKind, TransportSocket,
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
    let deadline = Instant::now() + Duration::from_secs(3);
    while !driver.registry().contains_type("clock", driver.now()) {
        assert!(Instant::now() < deadline, "advert never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }
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
    driver.join();
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
