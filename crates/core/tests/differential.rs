//! One script, both runtimes: the seed of ROADMAP item 4a's differential
//! oracle. The same five wire messages go through [`Indiss`] on the
//! virtual-time `World` and through [`NetDriver`] on `SimTransport`, with
//! the response cache on and off, and what the shared [`GatewayCore`]
//! decides, ingests and counts must come out equal.
//!
//! [`GatewayCore`]: indiss_core::GatewayCore

use std::net::SocketAddrV4;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use indiss_core::{BridgeStats, Indiss, IndissConfig, NetDriver, SdpDescriptor, SdpProtocol};
use indiss_net::{SimTransport, Transport, World};
use indiss_slp::{Body, FunctionId, Header, Message, SrvDeReg, SrvReg, SrvRqst, UrlEntry};

const PRINTER: &str = "service:printer:lpr://10.0.3.1:515";
const ANNOUNCE: &[u8] = b"DNSSD ANNOUNCE _scanner._tcp.local SRV scan://10.0.4.1:6566/sane TTL 120";

fn slp(function: FunctionId, xid: u16, body: Body) -> Vec<u8> {
    Message::new(Header::new(function, xid, "en"), body).encode().expect("encodable")
}

fn srv_rqst(service_type: &str, xid: u16) -> Vec<u8> {
    let rqst = SrvRqst {
        prlist: String::new(),
        service_type: service_type.to_owned(),
        scopes: "DEFAULT".into(),
        predicate: String::new(),
        spi: String::new(),
    };
    slp(FunctionId::SrvRqst, xid, Body::SrvRqst(rqst))
}

/// The script: an SLP `SrvReg`, a DNS-SD `ANNOUNCE`, an SLP `SrvRqst`
/// the announcement can answer, a `SrvRqst` for an absent type (twice:
/// the repeat lands inside the suppression window), a `SrvDeReg`.
/// `true` = sent to the DNS-SD channel, `false` = to the SLP channel.
fn script() -> Vec<(bool, Vec<u8>)> {
    let reg = SrvReg {
        entry: UrlEntry::new(PRINTER, 1800),
        service_type: "service:printer".into(),
        scopes: "DEFAULT".into(),
        attrs: String::new(),
    };
    let dereg =
        SrvDeReg { scopes: "DEFAULT".into(), entry: UrlEntry::new(PRINTER, 0), tags: "".into() };
    vec![
        (false, slp(FunctionId::SrvReg, 1, Body::SrvReg(reg))),
        (true, ANNOUNCE.to_vec()),
        (false, srv_rqst("service:scanner", 2)),
        (false, srv_rqst("service:toaster", 3)),
        (false, srv_rqst("service:toaster", 4)),
        (false, slp(FunctionId::SrvDeReg, 5, Body::SrvDeReg(dereg))),
    ]
}

/// The bridge counters both runtimes must agree on, by name.
const AGREED: [&str; 5] = [
    "requests_bridged",
    "responses_composed",
    "cache_hits",
    "adverts_recorded",
    "requests_suppressed",
];

/// What both runtimes must agree on: `registry.cache_len()` after the
/// answerable request (before the absent-type one), the [`AGREED`]
/// counters, and the live record count at the end.
type Agreed = (usize, Vec<(&'static str, u64)>, usize);

fn agreed(cache_len: usize, stats: &BridgeStats, record_count: usize) -> Agreed {
    (cache_len, stats.fields().filter(|(name, _)| AGREED.contains(name)).collect(), record_count)
}

fn config(cache: bool) -> IndissConfig {
    IndissConfig::builder().slp().descriptor(SdpDescriptor::dns_sd()).cache(cache).build()
}

/// `Indiss` on `World`: a client node unicasts the script to the
/// gateway node's protocol ports. Returns the agreed view plus the
/// registry's `negative_stored`, which only this runtime moves.
fn run_sim(cache: bool) -> (Agreed, u64) {
    let dns_sd = SdpDescriptor::dns_sd();
    let world = World::new(7);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, config(cache)).expect("deploy");
    let client = world.add_node("client").udp_bind_ephemeral().expect("client socket");
    let mut cache_len = 0;
    for (i, (to_dns_sd, wire)) in script().into_iter().enumerate() {
        let port = if to_dns_sd { dns_sd.port() } else { SdpProtocol::Slp.port() };
        client.send_to(&wire, SocketAddrV4::new(gw.addr(), port)).expect("send");
        // Deliver, but stay inside the 600 ms suppression window between
        // the two absent-type requests; let the cold fan-out of the
        // first conclude before the SrvDeReg.
        world.run_for(Duration::from_millis(if i == 4 { 10_000 } else { 20 }));
        if i == 2 {
            cache_len = indiss.registry().cache_len();
        }
    }
    let registry = indiss.registry();
    (agreed(cache_len, &indiss.stats(), registry.record_count()), registry.stats().negative_stored)
}

/// `NetDriver` on `SimTransport` (synchronous delivery on the sending
/// thread). Returns the agreed view, the bridge stats, `cold_misses`
/// and the number of replies the client socket heard.
fn run_wire(cache: bool) -> (Agreed, BridgeStats, u64, usize) {
    let dns_sd = SdpDescriptor::dns_sd();
    let transport: Arc<dyn Transport> = Arc::new(SimTransport::new());
    let driver = NetDriver::builder(config(cache))
        .transport(Arc::clone(&transport))
        .start()
        .expect("driver");
    let (tx, replies) = mpsc::channel();
    let client = transport.bind_client(Arc::new(move |d| drop(tx.send(d)))).expect("client");
    let mut cache_len = 0;
    for (i, (to_dns_sd, wire)) in script().into_iter().enumerate() {
        let protocol = if to_dns_sd { dns_sd.protocol() } else { SdpProtocol::Slp };
        client.send_to(&wire, driver.channel_addr(protocol).expect("channel")).expect("send");
        if i == 2 {
            cache_len = driver.registry().cache_len();
        }
    }
    let stats = driver.stats();
    let view = agreed(cache_len, &stats, driver.registry().record_count());
    let cold_misses = driver.front_stats().cold_misses;
    driver.shutdown();
    (view, stats, cold_misses, replies.try_iter().count())
}

/// The drift the shared ingest closed: the wire front-end used to warm
/// the response cache whatever `enable_cache` said. With the cache off
/// an announced type is recorded but not cached, a request for it is a
/// cold miss answered with silence; with the cache on it is answered.
#[test]
fn wire_front_end_honours_cache_off() {
    let ((cache_len, _, record_count), stats, cold_misses, replies) = run_wire(false);
    assert_eq!(cache_len, 0, "cache(false) caches nothing");
    assert_eq!(stats.adverts_recorded, 3, "SrvReg, ANNOUNCE and SrvDeReg all ingested");
    assert_eq!(record_count, 1, "the announced scanner is stored (the printer deregistered)");
    assert_eq!((stats.cache_hits, cold_misses, replies), (0, 2, 0), "scanner and toaster go cold");

    let ((cache_len, _, _), stats, cold_misses, replies) = run_wire(true);
    assert_eq!(cache_len, 2, "both adverts carried an endpoint");
    assert_eq!((stats.cache_hits, cold_misses, replies), (1, 1, 1), "the scanner is answered");
}

/// Cache on and off, the two runtimes agree on everything the core
/// decides. What legitimately differs is named here, not skipped: only
/// `Indiss` runs the cold fan-out, so only it learns that every unit
/// came back empty and — with the cache on — stores that as a negative
/// entry (`negative_stored`), one per request the wire front-end merely
/// counts as a cold miss. (No unit stays silent in this script, so the
/// retry counters `queries_retried`/`queries_exhausted` read 0 in both.)
#[test]
fn sim_and_wire_runtimes_agree_on_the_scripted_sequence() {
    for cache in [true, false] {
        let (sim, negative_stored) = run_sim(cache);
        let (wire, stats, cold_misses, _) = run_wire(cache);
        assert_eq!(sim, wire, "cache={cache}");
        assert_eq!(stats.requests_suppressed, 1, "the repeat inside the window: {stats:?}");
        assert_eq!(negative_stored, if cache { cold_misses } else { 0 }, "cache={cache}");
    }
}
