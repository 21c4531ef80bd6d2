//! The measurement scenarios of the paper's §4.3 (Figs. 7, 8, 9) and
//! §4.2 (Fig. 6), parameterized by seed for the median-of-30 methodology.
//!
//! Every scenario builds a fresh two-node world (client host + service
//! host, 10 Mb/s LAN), deploys the pieces, and returns the *client's
//! waiting time to get an answer* in virtual time — the paper's metric.

use std::net::SocketAddrV4;
use std::time::Duration;

use indiss_core::{AdaptationPolicy, DiscoveryMode, Indiss, IndissConfig};
use indiss_net::{Completion, SimTime, World};
use indiss_slp::{
    AttributeList, Registration, ServiceAgent, SlpConfig, UserAgent, SLP_MULTICAST_GROUP, SLP_PORT,
};
use indiss_ssdp::SearchTarget;
use indiss_upnp::{ClockDevice, ControlPoint, ControlPointConfig, UpnpConfig};

/// Where INDISS is deployed, per the paper's §4.2/§4.3 use cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Co-located with the client.
    ClientSide,
    /// Co-located with the service.
    ServiceSide,
    /// On a third, dedicated node.
    Gateway,
}

/// Which translation direction is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// SLP client searching a UPnP service.
    SlpToUpnp,
    /// UPnP client searching an SLP service.
    UpnpToSlp,
}

/// Fig. 7 left: native SLP→SLP response time.
pub fn native_slp(seed: u64) -> Option<Duration> {
    let world = World::new(seed);
    let service_node = world.add_node("slp-service");
    let client_node = world.add_node("slp-client");
    let sa = ServiceAgent::start(&service_node, SlpConfig::default()).ok()?;
    sa.register(
        Registration::new(
            "service:clock://10.0.0.1:4005",
            AttributeList::parse("(friendlyName=SLP Clock)").ok()?,
        )
        .ok()?,
    );
    let ua = UserAgent::start(&client_node, SlpConfig::default()).ok()?;
    let (_first, done) = ua.find_services(&world, "service:clock", "");
    world.run_for(Duration::from_secs(5));
    done.take()?.response_time()
}

/// Fig. 7 right: native UPnP→UPnP response time (first SSDP answer).
pub fn native_upnp(seed: u64) -> Option<Duration> {
    let world = World::new(seed);
    let service_node = world.add_node("upnp-device");
    let client_node = world.add_node("upnp-cp");
    let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).ok()?;
    let cp = ControlPoint::start(&client_node, ControlPointConfig::default()).ok()?;
    world.run_for(Duration::from_millis(10)); // initial announcements
    let t0 = world.now();
    let (first, _all) = cp.search(&world, SearchTarget::device_urn("clock", 1));
    world.run_for(Duration::from_secs(5));
    let hit_at: Completion<SimTime> = Completion::new();
    if let Some(d) = first.take() {
        hit_at.complete(d.last_seen);
    }
    Some(hit_at.take()? - t0)
}

/// Figs. 8/9: response time through INDISS, parameterized by deployment,
/// direction and cache warmth. Returns the client's waiting time.
pub fn bridged(
    seed: u64,
    deployment: Deployment,
    direction: Direction,
    warm: bool,
) -> Option<Duration> {
    let world = World::new(seed);
    let service_node = world.add_node("service-host");
    let client_node = world.add_node("client-host");
    let indiss_node = match deployment {
        Deployment::ServiceSide => service_node.clone(),
        Deployment::ClientSide => client_node.clone(),
        Deployment::Gateway => world.add_node("gateway"),
    };
    let _indiss = Indiss::deploy(&indiss_node, IndissConfig::slp_upnp()).ok()?;

    match direction {
        Direction::SlpToUpnp => {
            let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).ok()?;
            let ua = UserAgent::start(&client_node, SlpConfig::default()).ok()?;
            world.run_for(Duration::from_millis(10));
            if warm {
                let (_f, d) = ua.find_services(&world, "service:clock", "");
                world.run_for(Duration::from_secs(2));
                d.take()?;
            }
            let (_first, done) = ua.find_services(&world, "service:clock", "");
            world.run_for(Duration::from_secs(5));
            done.take()?.response_time()
        }
        Direction::UpnpToSlp => {
            let sa = ServiceAgent::start(&service_node, SlpConfig::default()).ok()?;
            sa.register(
                Registration::new(
                    "service:clock://10.0.0.1:4005/service/timer",
                    AttributeList::parse("(friendlyName=SLP Clock)").ok()?,
                )
                .ok()?,
            );
            let cp = ControlPoint::start(&client_node, ControlPointConfig::default()).ok()?;
            world.run_for(Duration::from_millis(10));
            if warm {
                let (_f, all) = cp.search(&world, SearchTarget::device_urn("clock", 1));
                world.run_for(Duration::from_secs(2));
                all.take()?;
            }
            let t0 = world.now();
            let (first, _all) = cp.search(&world, SearchTarget::device_urn("clock", 1));
            world.run_for(Duration::from_secs(5));
            Some(first.take()?.last_seen - t0)
        }
    }
}

/// Result of the Fig. 6 adaptation scenario.
#[derive(Debug, Clone)]
pub struct AdaptationOutcome {
    /// Virtual time at which INDISS switched to the active mode, if ever.
    pub went_active_at: Option<SimTime>,
    /// Virtual time at which the passive SLP listener first heard the
    /// (translated) advertisement of the UPnP service, if ever.
    pub discovered_at: Option<SimTime>,
    /// Mode transition log.
    pub mode_log: Vec<(SimTime, DiscoveryMode)>,
}

/// Fig. 6: a passive SLP client, a passive UPnP service (announcements
/// only) and INDISS on the service side. Without the traffic-threshold
/// switch the client can never discover the service; with it, INDISS
/// re-advertises.
///
/// `background_traffic_bps` injects chatter between two extra nodes to
/// keep the network busy (above-threshold ⇒ INDISS stays passive).
pub fn adaptation(seed: u64, background_traffic_bps: u64) -> AdaptationOutcome {
    let world = World::new(seed);
    let service_node = world.add_node("upnp-device");
    let client_node = world.add_node("passive-slp-client");
    let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).expect("clock");
    let indiss = Indiss::deploy(
        &service_node,
        IndissConfig::slp_upnp().adaptation(AdaptationPolicy {
            threshold_bytes_per_sec: 400.0,
            window: Duration::from_secs(2),
            check_interval: Duration::from_secs(2),
        }),
    )
    .expect("indiss");

    // The passive SLP client: listens on the SLP group, never sends.
    let listener = client_node.udp_bind(SLP_PORT).expect("bind");
    listener.join_multicast(SLP_MULTICAST_GROUP).expect("join");
    let heard: Completion<SimTime> = Completion::new();
    let heard2 = heard.clone();
    listener.on_receive(move |w, dgram| {
        if let Ok(msg) = indiss_slp::Message::decode(&dgram.payload) {
            if let indiss_slp::Body::SaAdvert(sa) = &msg.body {
                if sa.attrs.contains("clock") {
                    heard2.complete(w.now());
                }
            }
        }
    });

    // Optional background chatter to hold traffic above the threshold.
    if background_traffic_bps > 0 {
        let a = world.add_node("chatter-a");
        let b = world.add_node("chatter-b");
        let tx = a.udp_bind_ephemeral().expect("bind");
        let _rx = b.udp_bind(9000).expect("bind");
        let dst = SocketAddrV4::new(b.addr(), 9000);
        let payload = vec![0u8; 200];
        let interval =
            Duration::from_secs_f64(payload.len() as f64 / background_traffic_bps as f64);
        fn tick(
            world: &World,
            tx: indiss_net::UdpSocket,
            dst: SocketAddrV4,
            payload: Vec<u8>,
            interval: Duration,
        ) {
            let _ = tx.send_to(&payload, dst);
            let w2 = world.clone();
            world.schedule_in(interval, move |w| {
                let _ = &w2;
                tick(w, tx, dst, payload, interval);
            });
        }
        tick(&world, tx, dst, payload, interval);
    }

    world.run_for(Duration::from_secs(30));
    let mode_log = indiss.mode_log();
    let went_active_at =
        mode_log.iter().find(|(_, m)| *m == DiscoveryMode::Active).map(|(t, _)| *t);
    AdaptationOutcome { went_active_at, discovered_at: heard.take(), mode_log }
}

/// Collected traffic counters for the "no additional traffic" claim
/// (§4.3): bytes on the wire with and without INDISS for one discovery.
pub fn traffic_overhead(seed: u64) -> (u64, u64) {
    // Without INDISS: native SLP discovery.
    let without = {
        let world = World::new(seed);
        let service_node = world.add_node("svc");
        let client_node = world.add_node("cli");
        let sa = ServiceAgent::start(&service_node, SlpConfig::default()).expect("sa");
        sa.register(
            Registration::new("service:clock://10.0.0.1:4005", AttributeList::new()).expect("reg"),
        );
        let ua = UserAgent::start(&client_node, SlpConfig::default()).expect("ua");
        let (_f, d) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        let _ = d.take();
        world.meter_snapshot().total_bytes()
    };
    // With INDISS on the service side: the SLP leg is identical; the UPnP
    // leg is local to the service host (loopback is unmetered).
    let with = {
        let world = World::new(seed);
        let service_node = world.add_node("svc");
        let client_node = world.add_node("cli");
        let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).expect("clock");
        let _indiss = Indiss::deploy(&service_node, IndissConfig::slp_upnp()).expect("indiss");
        let ua = UserAgent::start(&client_node, SlpConfig::default()).expect("ua");
        let (_f, d) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        let _ = d.take();
        world.meter_snapshot().total_bytes()
    };
    (without, with)
}

/// Event-count trace of the Fig. 4 clock scenario, for the per-step
/// narrative (returns the SLP request's parsed event names).
pub fn fig4_event_names() -> Vec<&'static str> {
    use indiss_core::{ParsedMessage, SlpUnit, SlpUnitConfig, Unit};
    let world = World::new(1);
    let node = world.add_node("indiss");
    let unit = SlpUnit::new(&node, SlpUnitConfig::default()).expect("unit");
    let msg = indiss_slp::Message::new(
        indiss_slp::Header::new(indiss_slp::FunctionId::SrvRqst, 1, "en"),
        indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
            prlist: String::new(),
            service_type: "service:clock".into(),
            scopes: "DEFAULT".into(),
            predicate: String::new(),
            spi: String::new(),
        }),
    );
    let dgram = indiss_net::Datagram {
        src: "10.0.0.9:40000".parse().expect("addr"),
        dst: SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT),
        payload: msg.encode().expect("encode"),
    };
    match unit.parse(&world, &dgram) {
        ParsedMessage::Request(stream) => stream.names().collect(),
        other => panic!("unexpected {other:?}"),
    }
}

/// Convenience used by several binaries: collect every deployment ×
/// direction combination's cold median.
pub fn location_matrix(
    seeds: std::ops::Range<u64>,
) -> Vec<(Deployment, Direction, crate::stats::Summary)> {
    let mut out = Vec::new();
    for deployment in [Deployment::ClientSide, Deployment::ServiceSide, Deployment::Gateway] {
        for direction in [Direction::SlpToUpnp, Direction::UpnpToSlp] {
            let summary = crate::stats::summarize(seeds.clone(), |seed| {
                bridged(seed, deployment, direction, false)
            });
            out.push((deployment, direction, summary));
        }
    }
    out
}

/// Result of the registry churn scenario.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Advertisements injected across all three SDPs.
    pub adverts_sent: usize,
    /// Advertisements the runtime recorded.
    pub adverts_recorded: u64,
    /// Highest number of live records observed at any sampling instant.
    pub peak_records: usize,
    /// Records still alive after every TTL elapsed.
    pub final_records: usize,
    /// The configured registry capacity bound.
    pub record_capacity: usize,
    /// Records dropped by TTL expiry.
    pub records_expired: u64,
    /// Records dropped by the capacity bound.
    pub records_evicted: u64,
    /// Response-cache entries dropped by the LRU bound.
    pub cache_evictions: u64,
    /// Warm (cache-hit) probe latency before the churn.
    pub warm_hit_before: Option<Duration>,
    /// Warm (cache-hit) probe latency after the churn.
    pub warm_hit_after: Option<Duration>,
    /// Bytes of interned symbol data before the flood.
    pub interned_bytes_before: usize,
    /// Bytes of interned symbol data after the flood, the final TTL
    /// reclamation and a [`indiss_core::Symbol::collect`] — the GC'd interner must
    /// keep this near the pre-churn level instead of retaining every
    /// network-derived type/USN/URL string the flood minted.
    pub interned_bytes_after: usize,
    /// Interner entries the final explicit collection reclaimed (the
    /// amortized watermark GC reclaims continuously as well).
    pub interner_reclaimed: usize,
    /// The bounded-memory verdict, settled through the same
    /// [`indiss_core::MemoryBudget`] helper the scenario engine's soak
    /// mode uses (one definition of "bounded", shared by both).
    pub memory: indiss_core::MemorySettlement,
}

/// Registry churn: floods a gateway INDISS with `services` short-lived
/// advertisements spread across all three SDPs (SLP `SrvReg`s, SSDP
/// `NOTIFY`s and Jini registrations), while probing the warm cache-hit
/// path before and after.
///
/// The scenario exists to pin down the scaling properties of the
/// [`indiss_core::ServiceRegistry`]: memory must stay bounded (records at
/// or below the configured capacity at every instant, and all TTL'd
/// records reclaimed at the end) and the cache-hit latency must not
/// degrade with churn.
pub fn registry_churn(seed: u64, services: usize) -> ChurnOutcome {
    use std::cell::RefCell;
    use std::rc::Rc;

    let record_capacity = 1024;
    // The slack covers the steady vocabulary, the bounded response
    // cache's surviving entries, and symbols concurrently running
    // tests keep alive.
    let budget = indiss_core::MemoryBudget::capture(128 * 1024);
    let world = World::new(seed);
    let gateway = world.add_node("gateway");
    let indiss = Indiss::deploy(
        &gateway,
        IndissConfig::all_protocols()
            .registry_capacity(record_capacity)
            .cache_capacity(64)
            .advert_ttl(Duration::from_secs(15)),
    )
    .expect("indiss");
    let registry = indiss.registry();

    // Warm-probe helper: a cache entry + one SLP discovery answered from it.
    let probe_client = world.add_node("probe-client");
    let probe_ua = UserAgent::start(&probe_client, SlpConfig::default()).expect("ua");
    let probe = |world: &World| -> Option<Duration> {
        indiss.warm_cache(
            "churn-probe",
            indiss_core::EventStream::framed(vec![
                indiss_core::Event::ServiceResponse,
                indiss_core::Event::ResOk,
                indiss_core::Event::ServiceType("churn-probe".into()),
                indiss_core::Event::ResTtl(60),
                indiss_core::Event::ResServUrl("soap://10.9.9.9:4005/ctl".into()),
            ]),
        );
        let (_f, done) = probe_ua.find_services(world, "service:churn-probe", "");
        world.run_for(Duration::from_secs(1));
        done.take()?.response_time()
    };

    let warm_hit_before = probe(&world);

    // Live-record sampler (tracks the peak during the churn).
    let peak: Rc<RefCell<usize>> = Rc::new(RefCell::new(registry.record_count()));
    {
        let registry = registry.clone();
        let peak = Rc::clone(&peak);
        fn sample(world: &World, registry: indiss_core::ServiceRegistry, peak: Rc<RefCell<usize>>) {
            let live = registry.record_count();
            let mut p = peak.borrow_mut();
            if live > *p {
                *p = live;
            }
            drop(p);
            world.schedule_in(Duration::from_millis(250), move |w| sample(w, registry, peak));
        }
        sample(&world, registry.clone(), peak);
    }

    // The flood: three sender stacks, adverts spread over ~40 s with
    // 10 s TTLs, so records churn through the registry several times.
    let window = Duration::from_secs(40);
    let slp_share = services / 3;
    let ssdp_share = services / 3;
    let jini_share = services - slp_share - ssdp_share;

    let slp_node = world.add_node("slp-flood");
    let slp_socket = slp_node.udp_bind_ephemeral().expect("socket");
    for i in 0..slp_share {
        let at = window.mul_f64(i as f64 / slp_share.max(1) as f64);
        let socket = slp_socket.clone();
        world.schedule_in(at, move |_| {
            let url = format!("service:churnslp{i}://10.1.0.1:{}", 1024 + (i % 50_000));
            let msg = indiss_slp::Message::new(
                indiss_slp::Header::new(
                    indiss_slp::FunctionId::SrvReg,
                    (i % 60_000) as u16,
                    indiss_slp::DEFAULT_LANG,
                ),
                indiss_slp::Body::SrvReg(indiss_slp::SrvReg {
                    entry: indiss_slp::UrlEntry::new(url, 10),
                    service_type: format!("service:churnslp{i}"),
                    scopes: "DEFAULT".into(),
                    attrs: String::new(),
                }),
            );
            let _ = socket.send_to(
                &msg.encode().expect("encodable"),
                SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT),
            );
        });
    }

    let ssdp_node = world.add_node("ssdp-flood");
    let ssdp_socket = ssdp_node.udp_bind_ephemeral().expect("socket");
    for i in 0..ssdp_share {
        let at = window.mul_f64(i as f64 / ssdp_share.max(1) as f64);
        let socket = ssdp_socket.clone();
        world.schedule_in(at, move |_| {
            let notify = indiss_ssdp::Notify {
                nt: SearchTarget::device_urn(&format!("churnupnp{i}"), 1),
                nts: indiss_ssdp::NotifySubType::Alive,
                usn: format!("uuid:churn-{i}::urn:schemas-upnp-org:device:churnupnp{i}:1"),
                location: None,
                server: "churn/1.0".into(),
                max_age: 10,
            };
            let _ = socket.send_to(
                &notify.to_bytes(),
                SocketAddrV4::new(indiss_ssdp::SSDP_MULTICAST_GROUP, indiss_ssdp::SSDP_PORT),
            );
        });
    }

    let jini_node = world.add_node("jini-flood");
    let jini_agent = indiss_jini::JiniAgent::start(
        &jini_node,
        indiss_jini::JiniConfig { lease_secs: 10, ..indiss_jini::JiniConfig::default() },
    )
    .expect("agent");
    for i in 0..jini_share {
        let at = window.mul_f64(i as f64 / jini_share.max(1) as f64);
        let agent = jini_agent.clone();
        world.schedule_in(at, move |_| {
            agent.register(indiss_jini::ServiceItem {
                service_id: i as u64,
                service_type: format!("churnjini{i}"),
                endpoint: format!("10.2.0.1:{}", 1024 + (i % 50_000)),
                attributes: Vec::new(),
            });
        });
    }

    world.run_for(window + Duration::from_secs(5));
    let warm_hit_after = probe(&world);

    // Let every remaining TTL elapse (longest is the 15 s default bound),
    // so the sweep timers can reclaim the store.
    world.run_for(Duration::from_secs(25));

    let stats = indiss.stats();
    let peak_records = *peak.borrow();
    let final_records = registry.record_count();
    // Every churned record is gone; whatever symbols only they kept
    // alive are now collectable.
    let memory = budget.settle();
    ChurnOutcome {
        adverts_sent: services,
        adverts_recorded: stats.adverts_recorded,
        peak_records,
        final_records,
        record_capacity,
        records_expired: stats.records_expired,
        records_evicted: stats.records_evicted,
        cache_evictions: stats.cache_evictions,
        warm_hit_before,
        warm_hit_after,
        interned_bytes_before: memory.interned_before,
        interned_bytes_after: memory.interned_after,
        interner_reclaimed: memory.reclaimed_entries,
        memory,
    }
}

/// Outcome of the hostile-world storm ([`hostile_world`]): a
/// fault-injected gateway run plus everything the
/// `hostile_world_delivers_and_replays_its_pinned_digest` test compares
/// across same-seed replays.
#[derive(Debug, Clone)]
pub struct HostileOutcome {
    /// Distinct warm-hit requests the client tried to complete.
    pub requests: u64,
    /// Requests for which at least one matching reply arrived within
    /// the retransmit budget.
    pub delivered: u64,
    /// `delivered / requests` — the ≥ 80 % gate under 10 % loss + 10 %
    /// reorder in both directions.
    pub delivery_rate: f64,
    /// Retransmissions the client's per-query state machine issued.
    pub retransmits: u64,
    /// Total datagrams the client lane delivered (replies, duplicates
    /// and reorder-flushed stragglers included).
    pub datagrams_heard: u64,
    /// FNV-1a fold over every heard payload in arrival order: the
    /// replay fingerprint two same-seed runs must agree on.
    pub digest: u64,
    /// The injected-fault counters, which must also replay exactly.
    pub faults: indiss_net::FaultStats,
}

/// The hostile-world storm: a warm [`indiss_core::NetDriver`] gateway
/// behind a [`indiss_net::FaultTransport`] running
/// [`indiss_net::FaultPlan::hostile`] (10 % drop + 10 % swap-with-next
/// reorder on every lane, requests and replies alike), hammered by a
/// client whose per-query retransmit state machine mirrors the
/// runtime's [`indiss_core::BridgeStats`] tracker: send, look for the
/// reply, retransmit up to `RETRIES` times, give up.
///
/// Nothing waits on the wall clock: over [`indiss_net::SimTransport`]
/// the SLP channel answers on the sending thread, so when `send_to`
/// returns the reply is already queued — or a fault dropped or stashed
/// it. Everything is deterministic by construction — the fault plan
/// draws from `(seed, lane, arrival index)` and the client runs
/// strictly one request in flight — so two calls with the same `seed`
/// must return the same [`HostileOutcome::digest`] and the same fault
/// counters.
pub fn hostile_world(seed: u64, requests: u64, distinct_types: usize) -> HostileOutcome {
    use indiss_core::{Event, EventStream, NetDriver, SdpProtocol};
    use indiss_net::{Datagram, FaultPlan, FaultTransport, SimTransport, Transport};
    use std::sync::mpsc;
    use std::sync::Arc;

    const RETRIES: u32 = 3;

    let distinct_types = distinct_types.max(1);
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::wrap(Arc::new(SimTransport::new()), FaultPlan::hostile(seed)));
    let driver = NetDriver::builder(
        IndissConfig::builder().slp().cache_ttl(Duration::from_secs(3600)).build(),
    )
    .transport(Arc::clone(&transport))
    .start()
    .expect("sim-backed driver always starts");
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp channel");
    let now = driver.now();
    let registry = driver.registry();
    let mut wires: Vec<Vec<u8>> = Vec::with_capacity(distinct_types);
    for i in 0..distinct_types {
        let ty = format!("hostile-{i}");
        registry.warm(
            ty.as_str(),
            EventStream::framed(vec![
                Event::ServiceResponse,
                Event::ResOk,
                Event::ServiceType(ty.as_str().into()),
                Event::ResTtl(1800),
                Event::ResServUrl(format!("soap://10.0.0.2:4004/{ty}/control")),
            ]),
            now,
        );
        wires.push(
            indiss_slp::Message::new(
                indiss_slp::Header::new(
                    indiss_slp::FunctionId::SrvRqst,
                    0, // rewritten per request below
                    indiss_slp::DEFAULT_LANG,
                ),
                indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
                    prlist: String::new(),
                    service_type: format!("service:{ty}"),
                    scopes: "DEFAULT".into(),
                    predicate: String::new(),
                    spi: String::new(),
                }),
            )
            .encode()
            .expect("encodable"),
        );
    }

    let (tx, rx) = mpsc::channel::<Datagram>();
    let client = transport
        .bind_client(Arc::new(move |d: Datagram| {
            let _ = tx.send(d);
        }))
        .expect("sim client always binds");

    let mut digest = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    let mut fold = |payload: &[u8]| {
        for &b in payload {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        digest = (digest ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3); // frame separator
    };
    let mut delivered = 0u64;
    let mut retransmits = 0u64;
    let mut heard = 0u64;
    for r in 0..requests {
        let xid = (r % 60_000) as u16;
        let mut wire = wires[(r as usize) % distinct_types].clone();
        // XID lives at header bytes 10..12 (RFC 2608 layout).
        wire[10..12].copy_from_slice(&xid.to_be_bytes());
        let mut got_reply = false;
        'attempts: for attempt in 0..=RETRIES {
            if attempt > 0 {
                retransmits += 1;
            }
            if client.send_to(&wire, slp_addr).is_err() {
                continue;
            }
            while let Ok(dgram) = rx.try_recv() {
                heard += 1;
                fold(&dgram.payload);
                let is_mine =
                    indiss_slp::Message::decode(&dgram.payload).is_ok_and(|m| m.header.xid == xid);
                if is_mine {
                    got_reply = true;
                    break 'attempts;
                }
            }
        }
        if got_reply {
            delivered += 1;
        }
    }
    // Fold whatever the last attempts left queued into the digest, so
    // the fingerprint covers the whole delivered stream.
    while let Ok(dgram) = rx.try_recv() {
        heard += 1;
        fold(&dgram.payload);
    }
    let faults = transport.io_stats().expect("fault transport reports").faults;
    driver.shutdown();
    HostileOutcome {
        requests,
        delivered,
        delivery_rate: delivered as f64 / requests.max(1) as f64,
        retransmits,
        datagrams_heard: heard,
        digest,
        faults,
    }
}

/// Outcome of the federated-mesh convergence storm
/// ([`mesh_convergence`]): how many gossip rounds a full mesh of
/// gateways needed to agree on one registry content digest, and whether
/// every foreign record became a locally served *remote* cache hit.
/// Derives `Eq` so the `mesh_converges_in_one_round_and_replays` test
/// can compare two same-seed runs whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshOutcome {
    /// Gateways in the full mesh.
    pub gateways: usize,
    /// Service records registered (spread round-robin across origins).
    pub records: u64,
    /// Gossip rounds until every content digest agreed.
    pub rounds_to_converge: u64,
    /// Whether the mesh converged within the round cap at all.
    pub converged: bool,
    /// Foreign-type requests answered from a local warmed cache.
    pub remote_hits: u64,
    /// `records * (gateways - 1)` — every record, at every non-origin.
    pub expected_remote_hits: u64,
    /// Total records applied mesh-wide (must equal the expected hits:
    /// each foreign record lands exactly once per gateway).
    pub records_applied: u64,
    /// The shared registry content digest all gateways agreed on.
    pub digest: u64,
}

/// The mesh convergence storm: `gateways` nodes in a full mesh over one
/// deterministic [`indiss_net::SimTransport`] bus, `records` services
/// registered round-robin across them, anti-entropy digest gossip until
/// every [`indiss_core::ServiceRegistry::content_digest`] agrees.
///
/// The scenario is a pure function of its arguments — `seed` only
/// flavours the service names so the digest is seed-dependent — and the
/// `mesh_converges_in_one_round_and_replays` test runs it twice to pin
/// that down.
pub fn mesh_convergence(seed: u64, gateways: usize, records: u64) -> MeshOutcome {
    use indiss_core::{
        Event, EventStream, MeshConfig, MeshNode, RegistryConfig, SdpProtocol, ServiceRegistry,
    };
    use indiss_net::{SimTransport, Transport};
    use std::sync::Arc;

    let gateways = gateways.max(2);
    let bus: Arc<dyn Transport> = Arc::new(SimTransport::new());
    let ports: Vec<u16> = (0..gateways as u16).map(|i| 7100 + i).collect();
    let nodes: Vec<(ServiceRegistry, MeshNode)> = ports
        .iter()
        .map(|&port| {
            let registry =
                ServiceRegistry::new(RegistryConfig { shards: 4, ..RegistryConfig::default() });
            let mesh = MeshNode::new(
                registry.clone(),
                Arc::clone(&bus),
                MeshConfig { port, peers: ports.clone(), ..MeshConfig::default() },
            );
            mesh.start().expect("sim mesh always binds");
            (registry, mesh)
        })
        .collect();

    let t0 = SimTime::from_secs(1);
    let type_name = |r: u64| format!("mesh-{seed:08x}-{r}");
    for r in 0..records {
        let origin = (r as usize) % gateways;
        let ty = type_name(r);
        let advert = EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType(ty.as_str().into()),
            Event::ResServUrl(format!("slp://10.0.0.{origin}/{ty}")),
            Event::ResTtl(3600),
        ]);
        nodes[origin].0.record_advert(SdpProtocol::Slp, &advert, t0);
    }

    // Gossip until every content digest agrees. The cap sits well above
    // the expected two rounds so a convergence regression fails the
    // gate loudly instead of spinning.
    let mut rounds_to_converge = 0u64;
    let mut converged = false;
    for round in 1..=8u64 {
        let now = SimTime::from_secs(round);
        for (_, mesh) in &nodes {
            mesh.run_round(now);
        }
        rounds_to_converge = round;
        let d0 = nodes[0].0.content_digest(now);
        if nodes.iter().all(|(reg, _)| reg.content_digest(now) == d0) {
            converged = true;
            break;
        }
    }

    // Every gateway must now answer every *foreign* type from its own
    // warmed cache — a remote hit, served without re-fan-out.
    let probe_at = SimTime::from_secs(rounds_to_converge);
    let mut remote_hits = 0u64;
    for r in 0..records {
        let origin = (r as usize) % gateways;
        let ty = type_name(r);
        for (g, (reg, _)) in nodes.iter().enumerate() {
            if g != origin && reg.cached_response(ty.as_str(), probe_at).is_some() {
                remote_hits += 1;
            }
        }
    }

    MeshOutcome {
        gateways,
        records,
        rounds_to_converge,
        converged,
        remote_hits,
        expected_remote_hits: records * (gateways as u64 - 1),
        records_applied: nodes.iter().map(|(_, m)| m.stats().records_applied).sum(),
        digest: nodes[0].0.content_digest(probe_at),
    }
}
