//! Integration tests of the [`ServiceRegistry`] subsystem through full
//! INDISS deployments: TTL expiry under virtual time, LRU bounds, and the
//! cache counters surfaced via `BridgeStats`.

use std::net::SocketAddrV4;
use std::time::Duration;

use indiss_core::{
    Event, EventStream, Indiss, IndissConfig, RegistryConfig, SdpProtocol, ThreadedGateway,
    WarmDecision,
};
use indiss_net::World;
use indiss_slp::{SlpConfig, UserAgent, SLP_MULTICAST_GROUP, SLP_PORT};
use indiss_ssdp::{Notify, NotifySubType, SearchTarget, SSDP_MULTICAST_GROUP, SSDP_PORT};
use indiss_upnp::{ClockDevice, UpnpConfig};

fn notify_alive(name: &str, max_age: u32) -> Notify {
    Notify {
        nt: SearchTarget::device_urn(name, 1),
        nts: NotifySubType::Alive,
        usn: format!("uuid:test-{name}::urn:schemas-upnp-org:device:{name}:1"),
        location: None,
        server: "test/1.0".into(),
        max_age,
    }
}

/// A record from a heard advert is visible until its TTL deadline and
/// gone — visibly and physically — once virtual time passes it.
#[test]
fn advert_ttl_expires_under_virtual_time() {
    let world = World::new(91);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp()).unwrap();
    let announcer = world.add_node("announcer");
    let socket = announcer.udp_bind_ephemeral().unwrap();

    socket
        .send_to(
            &notify_alive("fridge", 5).to_bytes(),
            SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT),
        )
        .unwrap();
    world.run_for(Duration::from_secs(1));

    let registry = indiss.registry();
    assert!(registry.contains_type("fridge", world.now()), "recorded");
    assert_eq!(registry.record_count(), 1);

    // Just before the deadline (advert at ~t=0 s with a 5 s TTL): alive.
    world.run_for(Duration::from_secs(3));
    assert!(registry.contains_type("fridge", world.now()));

    // Past the deadline: invisible to reads AND reclaimed by the sweep.
    world.run_for(Duration::from_secs(2));
    assert!(!registry.contains_type("fridge", world.now()), "expired");
    assert_eq!(registry.record_count(), 0, "sweep reclaimed the record");
    assert_eq!(indiss.stats().records_expired, 1);
}

/// A refresh advert extends the deadline: the record survives the
/// original TTL and expires after the refreshed one.
#[test]
fn refresh_extends_the_deadline() {
    let world = World::new(92);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp()).unwrap();
    let announcer = world.add_node("announcer");
    let socket = announcer.udp_bind_ephemeral().unwrap();
    let dst = SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT);

    socket.send_to(&notify_alive("lamp", 5).to_bytes(), dst).unwrap();
    world.run_for(Duration::from_secs(4));
    socket.send_to(&notify_alive("lamp", 10).to_bytes(), dst).unwrap();
    world.run_for(Duration::from_secs(4)); // t ≈ 8 s: original TTL passed
    let registry = indiss.registry();
    assert!(registry.contains_type("lamp", world.now()), "refresh extended the TTL");
    world.run_for(Duration::from_secs(8)); // t ≈ 16 s: refreshed TTL passed
    assert!(!registry.contains_type("lamp", world.now()));
    assert_eq!(registry.record_count(), 0);
}

/// The record store honours its configured capacity via LRU eviction.
#[test]
fn registry_capacity_bound_evicts_lru() {
    let world = World::new(93);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp().registry_capacity(2)).unwrap();
    let announcer = world.add_node("announcer");
    let socket = announcer.udp_bind_ephemeral().unwrap();
    let dst = SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT);

    for name in ["one", "two", "three"] {
        socket.send_to(&notify_alive(name, 300).to_bytes(), dst).unwrap();
        world.run_for(Duration::from_millis(100));
    }
    let registry = indiss.registry();
    assert_eq!(registry.record_count(), 2, "capacity bound held");
    assert!(!registry.contains_type("one", world.now()), "oldest evicted");
    assert!(registry.contains_type("two", world.now()));
    assert!(registry.contains_type("three", world.now()));
    assert_eq!(indiss.stats().records_evicted, 1);
}

/// The response cache honours its LRU bound, and the eviction counter
/// lands in `BridgeStats`.
#[test]
fn cache_capacity_bound_evicts_lru() {
    let world = World::new(94);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp().cache_capacity(2)).unwrap();
    let response = |ty: &str| {
        indiss_core::EventStream::framed(vec![
            indiss_core::Event::ServiceResponse,
            indiss_core::Event::ResOk,
            indiss_core::Event::ServiceType(ty.into()),
            indiss_core::Event::ResServUrl(format!("soap://10.0.0.9/{ty}")),
        ])
    };
    indiss.warm_cache("a", response("a"));
    indiss.warm_cache("b", response("b"));
    indiss.warm_cache("c", response("c"));
    let registry = indiss.registry();
    assert_eq!(registry.cache_len(), 2);
    let mut cached = registry.cached_types(world.now());
    cached.sort();
    assert_eq!(cached, vec!["b", "c"], "oldest entry evicted");
    assert_eq!(indiss.stats().cache_evictions, 1);
}

/// A warm hit refreshes the entry's LRU recency: after a hit on A, the
/// next insertion evicts B, the least recently *used* entry.
#[test]
fn warm_hit_refreshes_lru_recency() {
    let config = RegistryConfig { shards: 1, cache_capacity: 2, ..RegistryConfig::default() };
    let gw = ThreadedGateway::new(config, 1);
    let t = indiss_net::SimTime::from_secs(1);
    let registry = gw.registry();
    let response = |ty: &str| {
        EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType(ty.into()),
            Event::ResServUrl(format!("soap://10.0.0.9/{ty}")),
        ])
    };
    registry.warm("a", response("a"), t);
    registry.warm("b", response("b"), t);
    let request = EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType("a".into())]);
    assert!(matches!(gw.core().classify(SdpProtocol::Slp, &request, t), WarmDecision::CacheHit(_)));
    registry.warm("c", response("c"), t);
    assert!(registry.cache_contains("a", t), "the hit kept A recent");
    assert!(!registry.cache_contains("b", t), "B was least recently used");
    assert!(registry.cache_contains("c", t));
}

/// Hit/miss/expiry counters through a real bridged discovery: the first
/// lookup misses and bridges, the second is answered from the cache, and
/// once the cache TTL elapses the entry expires.
#[test]
fn bridge_stats_count_cache_hits_misses_and_expiry() {
    let world = World::new(95);
    let host = world.add_node("clock-host");
    let client = world.add_node("slp-client");
    let _clock = ClockDevice::start(&host, UpnpConfig::default()).unwrap();
    let indiss =
        Indiss::deploy(&host, IndissConfig::slp_upnp().cache_ttl(Duration::from_secs(30))).unwrap();
    let ua = UserAgent::start(&client, SlpConfig::default()).unwrap();

    let (_f, d1) = ua.find_services(&world, "service:clock", "");
    world.run_for(Duration::from_secs(2));
    assert_eq!(d1.take().unwrap().urls.len(), 1);
    let stats = indiss.stats();
    assert_eq!(stats.cache_hits, 0);
    assert!(stats.cache_misses >= 1, "cold lookup missed: {stats:?}");

    let (_f, d2) = ua.find_services(&world, "service:clock", "");
    world.run_for(Duration::from_secs(2));
    assert_eq!(d2.take().unwrap().urls.len(), 1);
    assert_eq!(indiss.stats().cache_hits, 1, "warm lookup hit");

    // Outlive the cache TTL: the entry expires (lazily or via sweep).
    world.run_for(Duration::from_secs(40));
    let stats = indiss.stats();
    assert!(stats.cache_expired >= 1, "cache entry expired: {stats:?}");
}

/// SLP `SrvReg` adverts land in the registry with their registration
/// lifetime as TTL, indexed by origin protocol.
#[test]
fn slp_registrations_land_in_registry() {
    let world = World::new(96);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp()).unwrap();
    let announcer = world.add_node("sa-like");
    let socket = announcer.udp_bind_ephemeral().unwrap();

    let msg = indiss_slp::Message::new(
        indiss_slp::Header::new(indiss_slp::FunctionId::SrvReg, 7, "en"),
        indiss_slp::Body::SrvReg(indiss_slp::SrvReg {
            entry: indiss_slp::UrlEntry::new("service:printer://10.0.0.9:515", 12),
            service_type: "service:printer".into(),
            scopes: "DEFAULT".into(),
            attrs: "(ppm=12)".into(),
        }),
    );
    socket
        .send_to(&msg.encode().unwrap(), SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT))
        .unwrap();
    world.run_for(Duration::from_secs(1));

    let registry = indiss.registry();
    let now = world.now();
    assert_eq!(registry.record_count_by_origin(SdpProtocol::Slp, now), 1);
    let record = registry
        .record_by_endpoint("service:printer://10.0.0.9:515", now)
        .expect("indexed by endpoint");
    assert_eq!(record.canonical_type(), "printer");
    assert_eq!(record.attrs().collect::<Vec<_>>(), [("ppm", "12")]);
    // The 12 s registration lifetime is the TTL.
    world.run_for(Duration::from_secs(12));
    assert_eq!(registry.record_count_by_origin(SdpProtocol::Slp, world.now()), 0);
}
