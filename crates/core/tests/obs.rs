//! Observability integration suite: the properties the scrape path
//! depends on (histogram bucketing and merge algebra), the span ring's
//! overwrite-oldest contract under overflow, and the plaintext stats
//! endpoint scraped over a real [`std::net::TcpStream`].
//!
//! The endpoint test skips (with a log line) when the environment
//! forbids binding loopback TCP sockets; everything else always runs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use indiss_core::{
    bucket_floor, bucket_of, IndissConfig, LatencyHistogram, NetDriver, Phase, SdpProtocol,
    SimClock, StaticDescriptions, Tracer, HIST_BUCKETS,
};
use indiss_net::{Datagram, SimTime, SimTransport, Transport, TransportSocket};
use indiss_upnp::{DeviceDescription, ServiceDescription};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Histogram properties (the scrape merges per-lane histograms in
// whatever order the rings come, so the algebra must be watertight).

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &n in samples {
        h.record(n);
    }
    h
}

proptest! {
    /// Every expressible duration lands in exactly one bucket, and that
    /// bucket's bounds really bracket it.
    #[test]
    fn every_duration_lands_in_exactly_one_bucket(nanos in any::<u64>()) {
        let b = bucket_of(nanos);
        prop_assert!(b < HIST_BUCKETS);
        prop_assert!(bucket_floor(b) <= nanos.max(1), "floor below the sample");
        if b + 1 < HIST_BUCKETS {
            prop_assert!(nanos < bucket_floor(b + 1), "sample below the next floor");
        }
        // Exactly one: a histogram with this single sample counts once.
        let h = hist_of(&[nanos]);
        prop_assert_eq!(h.count(), 1);
        prop_assert_eq!(h.counts()[b], 1);
        prop_assert_eq!(h.counts().iter().filter(|&&c| c > 0).count(), 1);
    }

    /// Merging is commutative, associative, lossless, and has the empty
    /// histogram as identity — so lanes can be folded in any order.
    #[test]
    fn merge_is_commutative_associative_and_lossless(
        xs in proptest::collection::vec(any::<u64>(), 0..40),
        ys in proptest::collection::vec(any::<u64>(), 0..40),
        zs in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        let mut with_empty = a.clone();
        with_empty.merge(&LatencyHistogram::new());
        prop_assert_eq!(&with_empty, &a, "empty is the identity");

        // Lossless: the merge of all three is the histogram of the
        // concatenation — no count appears or vanishes.
        let mut all: Vec<u64> = xs.clone();
        all.extend(&ys);
        all.extend(&zs);
        prop_assert_eq!(&ab_c, &hist_of(&all), "merge == concatenation");
        prop_assert_eq!(ab_c.count(), (xs.len() + ys.len() + zs.len()) as u64);
    }

    /// The quantile estimate never undercuts a recorded sample at its
    /// rank: the q=1.0 bound dominates the maximum.
    #[test]
    fn quantile_upper_bound_dominates_the_max(
        samples in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let h = hist_of(&samples);
        let max = *samples.iter().max().expect("non-empty");
        prop_assert!(h.quantile_upper_bound(1.0) >= max);
    }
}

// ---------------------------------------------------------------------
// Span-ring overflow: overwrite-oldest, monotone drop counter, and
// survivor ordering.

#[test]
fn ring_overflow_drops_oldest_and_keeps_survivors_ordered() {
    const CAP: usize = 8;
    const TOTAL: u64 = 20;
    let tracer = Tracer::new(CAP, 1, &[], Arc::new(SimClock::new()));
    for i in 0..TOTAL {
        let start = SimTime::from_micros(i * 10);
        tracer.record_at(7, Phase::Deliver, start, start + Duration::from_micros(3));
        // The drop counter moves exactly when the ring wraps, and only
        // forward.
        assert_eq!(tracer.spans_recorded(), i + 1);
        assert_eq!(tracer.spans_dropped(), (i + 1).saturating_sub(CAP as u64));
    }
    let spans = tracer.snapshot();
    assert_eq!(spans.len(), CAP, "exactly one ring of survivors");
    // Survivors are the newest TOTAL-CAP.. spans, still in recording
    // order with their original sequence numbers.
    for (k, span) in spans.iter().enumerate() {
        let expected_seq = TOTAL - CAP as u64 + k as u64;
        assert_eq!(span.seq, expected_seq, "survivor {k}");
        assert_eq!(span.start, SimTime::from_micros(expected_seq * 10));
        assert_eq!(span.lane, 7);
        assert_eq!(span.phase, Phase::Deliver);
    }
    // The exported trace of a wrapped ring is still valid and ordered.
    let json = indiss_core::chrome_trace_json(&spans);
    assert_eq!(indiss_core::validate_chrome_trace(&json), Ok(CAP));
}

// ---------------------------------------------------------------------
// The stats endpoint, scraped over a real TCP connection.

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
        server: "obs-test/1.0".into(),
        max_age: 1800,
    }
    .to_bytes()
}

/// One full HTTP exchange against the stats endpoint: returns the raw
/// head + body split at the blank line.
fn scrape(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect stats endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send scrape");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read scrape");
    let raw = String::from_utf8(raw).expect("ascii stats page");
    let split = raw.find("\r\n\r\n").expect("header/body separator");
    (raw[..split].to_owned(), raw[split + 4..].to_owned())
}

/// Parses `name value` lines and returns `name`'s value.
fn metric(body: &str, name: &str) -> u64 {
    for l in body.lines() {
        let mut parts = l.split(' ');
        if parts.next() == Some(name) {
            return parts.next().expect("value").parse().expect("numeric value");
        }
    }
    panic!("metric {name} not on the stats page:\n{body}");
}

/// Boots a traced SimTransport gateway with an ephemeral stats port,
/// runs the canonical advert + warm-request script, and asserts the
/// scraped page agrees with the in-process counter structs.
#[test]
fn stats_endpoint_serves_live_counters_over_tcp() {
    let location = "http://10.88.0.2:4004/description.xml";
    let descriptions = Arc::new(StaticDescriptions::new());
    descriptions.insert(location, &clock_description().to_xml());

    let transport: Arc<dyn Transport> = Arc::new(SimTransport::new());
    let config = IndissConfig::slp_upnp().trace(true).stats_port(0);
    let driver = match NetDriver::builder(config)
        .transport(Arc::clone(&transport))
        .describe(descriptions)
        .start()
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("skipping stats_endpoint_serves_live_counters_over_tcp: {e}");
            return;
        }
    };
    let addr = driver.stats_addr().expect("stats endpoint configured");

    // An idle scrape works before any traffic.
    let (head, body) = scrape(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(head.contains("text/plain"), "content type: {head}");
    assert_eq!(metric(&body, "indiss_trace_enabled"), 1);
    assert_eq!(metric(&body, "indiss_bridge_cache_hits"), 0);

    // Advert + two warm requests (the canonical transport-seam script).
    let (tx, rx) = mpsc::channel::<Datagram>();
    let client: Arc<dyn TransportSocket> = transport
        .bind_client(Arc::new(move |d: Datagram| {
            let _ = tx.send(d);
        }))
        .expect("client");
    let upnp_addr = driver.channel_addr(SdpProtocol::Upnp).expect("upnp");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp");
    client.send_to(&clock_notify(location), upnp_addr).expect("send NOTIFY");
    let deadline = Instant::now() + Duration::from_secs(3);
    while !driver.registry().contains_type("clock", driver.now()) {
        assert!(Instant::now() < deadline, "advert never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }
    driver.join();
    client.send_to(&slp_request("service:clock", 0x0B01), slp_addr).expect("send request");
    rx.recv_timeout(Duration::from_secs(3)).expect("composed reply");
    client.send_to(&slp_request("service:clock", 0x0B02), slp_addr).expect("send repeat");
    rx.recv_timeout(Duration::from_secs(3)).expect("second reply");
    driver.join();

    // The page agrees with every in-process stats struct it renders.
    let (_, body) = scrape(addr, "/metrics");
    let bridge = driver.stats();
    let front = driver.front_stats();
    let registry = driver.registry().stats();
    assert_eq!(metric(&body, "indiss_bridge_cache_hits"), bridge.cache_hits);
    assert_eq!(bridge.cache_hits, 2, "both warm requests hit");
    assert_eq!(metric(&body, "indiss_bridge_adverts_recorded"), bridge.adverts_recorded);
    assert_eq!(metric(&body, "indiss_netfront_requests_decoded"), front.requests_decoded);
    assert_eq!(metric(&body, "indiss_netfront_replies_sent"), front.replies_sent);
    assert_eq!(metric(&body, "indiss_registry_records_inserted"), registry.records_inserted);
    assert!(metric(&body, "indiss_interner_symbols") > 0);

    // Tracing really observed the pipeline: spans were recorded and the
    // sampled SLP end-to-end histogram is non-empty.
    let tracer = driver.tracer();
    assert_eq!(metric(&body, "indiss_trace_spans_recorded"), tracer.spans_recorded());
    assert!(tracer.spans_recorded() > 0, "the script recorded spans");
    assert!(metric(&body, "indiss_protocol_427_count") >= 1, "sampled SLP e2e histogram");
    assert!(metric(&body, "indiss_phase_decode_count") >= 1, "sampled decode spans");

    // Every line is `indiss_* <u64>` — the page stays machine-parseable.
    for l in body.lines() {
        let mut parts = l.split(' ');
        assert!(parts.next().expect("name").starts_with("indiss_"), "line: {l}");
        parts.next().expect("value").parse::<u64>().expect("numeric value");
        assert!(parts.next().is_none(), "exactly two fields: {l}");
    }

    // Unknown targets get a 404, and the endpoint survives to serve
    // the next scrape.
    let (head, _) = scrape(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "head: {head}");
    let (head, _) = scrape(addr, "/");
    assert!(head.starts_with("HTTP/1.1 200"), "root alias: {head}");

    driver.shutdown();
    // Shutdown stops the endpoint: a fresh connection must fail.
    assert!(TcpStream::connect(addr).is_err(), "stats endpoint still accepting after shutdown");
}

/// The `/metrics` page of an untraced gateway after a fixed script,
/// pinned line by line against the page the hand-listed renderers served
/// before the counter families rendered themselves: every counter and
/// gauge name, every value, in order. (Within the netfront block the
/// four `recv_batch_bucket_*` lines now follow the scalar counters.)
/// Interner gauges are process-wide, so only their names are pinned; the
/// per-phase histogram lines after the trace gauges are not counters.
#[test]
fn metrics_page_is_pinned_name_for_name() {
    let transport: Arc<dyn Transport> = Arc::new(SimTransport::new());
    let driver = match NetDriver::builder(IndissConfig::slp_upnp().stats_port(0))
        .transport(Arc::clone(&transport))
        .start()
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("skipping metrics_page_is_pinned_name_for_name: {e}");
            return;
        }
    };
    let client = transport.bind_client(Arc::new(|_| {})).expect("client");
    let upnp = driver.channel_addr(SdpProtocol::Upnp).expect("upnp");
    let slp = driver.channel_addr(SdpProtocol::Slp).expect("slp");
    let srv_reg = indiss_slp::Message::new(
        indiss_slp::Header::new(indiss_slp::FunctionId::SrvReg, 1, "en"),
        indiss_slp::Body::SrvReg(indiss_slp::SrvReg {
            entry: indiss_slp::UrlEntry::new("service:printer:lpr://10.0.3.1:515", 1800),
            service_type: "service:printer".into(),
            scopes: "DEFAULT".into(),
            attrs: String::new(),
        }),
    )
    .encode()
    .expect("encodable");
    // No fetcher on the sim bus: the NOTIFY is recorded unenriched.
    client.send_to(&clock_notify("http://10.88.0.2:4004/description.xml"), upnp).expect("send");
    client.send_to(&srv_reg, slp).expect("send");
    for (xid, ty) in [(2, "printer"), (3, "printer"), (4, "toaster"), (5, "toaster")] {
        client.send_to(&slp_request(&format!("service:{ty}"), xid), slp).expect("send");
    }
    client.send_to(b"not an SLP message", slp).expect("send");

    let (_, body) = scrape(driver.stats_addr().expect("stats endpoint"), "/metrics");
    let page: Vec<String> = body
        .lines()
        .filter(|l| !l.starts_with("indiss_phase_"))
        .map(|l| match l.strip_prefix("indiss_interner_") {
            Some(gauge) => format!("indiss_interner_{} *", gauge.split(' ').next().expect("name")),
            None => l.to_owned(),
        })
        .collect();
    assert_eq!(page.join("\n"), GOLDEN_PAGE.trim());
    driver.shutdown();
}

const GOLDEN_PAGE: &str = "
indiss_bridge_requests_bridged 3
indiss_bridge_responses_composed 2
indiss_bridge_cache_hits 2
indiss_bridge_remote_cache_hits 0
indiss_bridge_cache_misses 2
indiss_bridge_negative_hits 0
indiss_bridge_cache_evictions 0
indiss_bridge_cache_expired 0
indiss_bridge_adverts_recorded 2
indiss_bridge_adverts_translated 0
indiss_bridge_requests_suppressed 1
indiss_bridge_queries_retried 0
indiss_bridge_queries_exhausted 0
indiss_bridge_stale_served 0
indiss_bridge_records_expired 0
indiss_bridge_records_evicted 0
indiss_netfront_datagrams_received 7
indiss_netfront_dropped_backpressure 0
indiss_netfront_requests_decoded 4
indiss_netfront_replies_sent 2
indiss_netfront_replies_dropped 0
indiss_netfront_cold_misses 1
indiss_netfront_adverts_seen 2
indiss_netfront_descriptions_fetched 0
indiss_netfront_decode_rejected 1
indiss_netfront_reactor_wakeups 0
indiss_netfront_batch_sends_flushed 0
indiss_netfront_recv_eagain 0
indiss_netfront_recv_truncated 0
indiss_netfront_multicast_join_misses 0
indiss_netfront_recv_batch_bucket_0 0
indiss_netfront_recv_batch_bucket_1 0
indiss_netfront_recv_batch_bucket_2 0
indiss_netfront_recv_batch_bucket_3 0
indiss_fault_dropped 0
indiss_fault_duplicated 0
indiss_fault_reordered 0
indiss_fault_corrupted 0
indiss_fault_delayed 0
indiss_fault_partitioned 0
indiss_fault_time_partitioned 0
indiss_registry_cache_hits 2
indiss_registry_remote_cache_hits 0
indiss_registry_cache_misses 2
indiss_registry_cache_evictions 0
indiss_registry_cache_expired 0
indiss_registry_negative_hits 0
indiss_registry_negative_stored 0
indiss_registry_records_inserted 2
indiss_registry_records_refreshed 0
indiss_registry_records_evicted 0
indiss_registry_records_expired 0
indiss_registry_records_removed 0
indiss_interner_symbols *
indiss_interner_bytes *
indiss_trace_enabled 0
indiss_trace_spans_recorded 0
indiss_trace_spans_dropped 0
";
