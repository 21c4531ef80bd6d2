//! Hand-assembled stand-ins for the glue between the product's public
//! calls that is itself crate-private.
//!
//! The per-layer micro-benchmarks and the traced replay drive each layer
//! through its **public** API only, in the order `netfront` makes the
//! calls. Where `netfront` passes data between two public calls through
//! private helpers (the events of an advert from a decoded message, the
//! `SrvRply` from a cached response), the same few lines are written out
//! here, against the public types — only to produce the *inputs* of the
//! next public call. Nothing in this file is ever timed or wrapped in a
//! span: it is benchmark code, and a number that moved with it would say
//! nothing about the product. In the traced replay its cost lands in
//! `trace.unattributed_share`. `README.md` lists the public surface: it
//! is what ROADMAP item 1 must keep or consciously break.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use indiss_core::{Event, EventKind, EventStream, Fsm, FsmBuilder, ParserKind, SdpProtocol};
use indiss_slp::{Body, FunctionId, Header, Message, SrvRply, UrlEntry};
use indiss_ssdp::Notify;
use indiss_upnp::DeviceDescription;

/// Where replayed datagrams claim to come from.
pub const CLIENT: SocketAddrV4 = SocketAddrV4::new(Ipv4Addr::LOCALHOST, 40_000);

/// The events the SLP and descriptor parser tables produce for an
/// advert — the body `EventStream::framed` is called on.
pub fn advert_body(
    origin: SdpProtocol,
    name: &str,
    url: &str,
    ttl: u32,
    alive: bool,
) -> Vec<Event> {
    vec![
        Event::NetType(origin),
        Event::NetMulticast,
        Event::NetSourceAddr(CLIENT),
        if alive { Event::ServiceAlive } else { Event::ServiceByeBye },
        Event::ServiceType(name.into()),
        Event::ResServUrl(url.to_owned()),
        Event::ResTtl(ttl),
    ]
}

/// [`advert_body`] of a decoded `SrvReg` / `SrvDeReg`.
pub fn slp_advert_body(body: &Body) -> Option<Vec<Event>> {
    let (entry, alive) = match body {
        Body::SrvReg(reg) => (&reg.entry, true),
        Body::SrvDeReg(dereg) => (&dereg.entry, false),
        _ => return None,
    };
    let name = entry.url.strip_prefix("service:")?.split(':').next()?;
    let ttl = if alive { u32::from(entry.lifetime) } else { 0 };
    Some(advert_body(SdpProtocol::Slp, name, &entry.url, ttl, alive))
}

/// The events the SSDP parser table produces for a `NOTIFY`.
pub fn notify_body(name: &str, usn: &str, location: Option<&str>, ttl: u32) -> Vec<Event> {
    let mut body = vec![
        Event::NetType(SdpProtocol::Upnp),
        Event::NetMulticast,
        Event::NetSourceAddr(CLIENT),
        if location.is_some() { Event::ServiceAlive } else { Event::ServiceByeBye },
        Event::ServiceType(name.into()),
        Event::UpnpUsn(usn.into()),
        Event::ResTtl(ttl),
    ];
    if let Some(location) = location {
        body.push(Event::UpnpDeviceUrlDesc(location.to_owned()));
    }
    body
}

/// [`notify_body`] of a parsed `NOTIFY` for a device type.
pub fn ssdp_advert_body(n: &Notify) -> Option<Vec<Event>> {
    let indiss_ssdp::SearchTarget::DeviceType { name, .. } = &n.nt else { return None };
    Some(notify_body(&name.to_lowercase(), &n.usn, n.location.as_deref(), n.max_age))
}

/// §2.4 enrichment: the advert plus the description's attributes and its
/// first service's control URL, absolute, with the soap scheme.
pub fn enrich(advert: &EventStream, desc: &DeviceDescription, location: &str) -> EventStream {
    let mut body = advert.to_builder();
    body.push(Event::ParserSwitch(ParserKind::Xml));
    for (tag, value) in desc.attribute_pairs() {
        if !value.is_empty() {
            body.push(Event::ResAttr { tag: tag.into(), value: value.into() });
        }
    }
    let host = location.strip_prefix("http://").and_then(|r| r.split('/').next()).unwrap_or("");
    let control = desc.services.first().map_or("", |s| s.control_url.as_str());
    body.push(Event::ResServUrl(format!("soap://{host}{control}")));
    body.build()
}

/// The events the SSDP and descriptor parser tables produce for a
/// request.
pub fn request_body(origin: SdpProtocol, name: &str) -> Vec<Event> {
    vec![
        Event::NetType(origin),
        Event::NetMulticast,
        Event::NetSourceAddr(CLIENT),
        Event::ServiceRequest,
        Event::ServiceType(name.into()),
    ]
}

/// The response stream an alive advert warms the cache with.
pub fn response_stream(name: &str, url: &str, ttl: u32) -> EventStream {
    EventStream::framed(vec![
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType(name.into()),
        Event::ResTtl(ttl),
        Event::ResServUrl(url.to_owned()),
    ])
}

/// The descriptor protocol's answer line for a cached response.
pub fn dnssd_answer(name: &str, response: &EventStream) -> Option<Vec<u8>> {
    let url = response.service_url()?;
    Some(format!("DNSSD A PTR _{name}._tcp.local SRV {url} TTL 120").into_bytes())
}

/// The `SrvRply` answering `request` from `response` (Fig. 4's last
/// step, with the `service:<type>:<scheme>://…` URL mapping).
pub fn srv_rply(request: &EventStream, response: &EventStream) -> Option<Message> {
    let xid = request.events().iter().find_map(|e| match e {
        Event::SlpReqId(x) => Some(*x),
        _ => None,
    })?;
    let ttl = response.events().iter().find_map(|e| match e {
        Event::ResTtl(t) => Some(*t),
        _ => None,
    })?;
    let (name, url) = (request.service_type()?, response.service_url()?);
    let slp_url =
        if url.starts_with("service:") { url.to_owned() } else { format!("service:{name}:{url}") };
    Some(Message::new(
        Header::new(FunctionId::SrvRply, xid, "en"),
        Body::SrvRply(SrvRply {
            error: 0,
            urls: vec![UrlEntry::new(slp_url, u16::try_from(ttl).unwrap_or(u16::MAX))],
        }),
    ))
}

/// One line of the DNS-SD-flavoured descriptor protocol, parsed by the
/// benchmark itself (the product's template matcher is crate-private).
pub enum DnsSd<'a> {
    Query { name: &'a str },
    Announce { name: &'a str, url: &'a str, ttl: u32 },
    Goodbye { name: &'a str, url: &'a str },
}

pub fn parse_dnssd(payload: &[u8]) -> Option<DnsSd<'_>> {
    let line = std::str::from_utf8(payload).ok()?.lines().next()?;
    if let Some(rest) = line.strip_prefix("DNSSD Q PTR _") {
        return Some(DnsSd::Query { name: rest.strip_suffix("._tcp.local")? });
    }
    if let Some(rest) = line.strip_prefix("DNSSD ANNOUNCE _") {
        let (name, rest) = rest.split_once("._tcp.local SRV ")?;
        let (url, ttl) = rest.rsplit_once(" TTL ")?;
        return Some(DnsSd::Announce { name, url, ttl: ttl.parse().ok()? });
    }
    let (name, url) = line.strip_prefix("DNSSD GOODBYE _")?.split_once("._tcp.local SRV ")?;
    Some(DnsSd::Goodbye { name, url })
}

/// A coordination FSM shaped like a unit's query process (§2.3): the
/// UPnP unit's `await_search → fetching → done` table — same states,
/// same triggers — on the public builder. The actions only count (the
/// state variable is the count), so feeding it times the product's
/// engine — transition lookup, state change, action call — and none of
/// the benchmark's own work.
pub fn unit_shaped_fsm() -> Fsm<usize, u8> {
    let count = || Rc::new(|fired: &mut usize, _: &Event, _: &mut Vec<u8>| *fired += 1);
    FsmBuilder::new("await_search")
        .accepting(&["done"])
        .on("await_search", EventKind::UpnpDeviceUrlDesc, "fetching", count())
        .on("await_search", EventKind::ResTtl, "await_search", count())
        .on("fetching", EventKind::ResAttr, "fetching", count())
        .on("fetching", EventKind::ResServUrl, "done", count())
        .build()
}
