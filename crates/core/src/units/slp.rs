//! The SLP unit: SLP parser + SLP composer + coordination FSM.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::net::SocketAddrV4;
use std::time::Duration;

use indiss_net::{Datagram, NetResult, Node, UdpSocket, World};
use indiss_slp::{
    AttributeList, Body, FunctionId, Header, HeaderView, Message, SrvRply, SrvRqstView, UrlEntry,
    DEFAULT_LANG, FLAG_MCAST, SLP_MULTICAST_GROUP, SLP_PORT,
};

use crate::event::{Event, EventStream, EventStreamBuilder, SdpProtocol, Symbol};
use crate::registry::{RegistryConfig, ServiceRegistry};
use crate::units::{
    canonical_type_from_slp, error_stream, Effect, ParsedMessage, Processes, Sock, Unit,
};

/// SLP unit tuning.
#[derive(Debug, Clone)]
pub struct SlpUnitConfig {
    /// Scopes used for composed requests.
    pub scopes: String,
    /// How long a native query waits for SrvRply convergence.
    pub query_window: Duration,
    /// Lifetime advertised for bridged services.
    pub bridged_lifetime: u16,
    /// Parse/compose processing cost (the event layer's own overhead; the
    /// paper's event translation is deliberately cheap).
    pub translation_delay: Duration,
}

impl Default for SlpUnitConfig {
    fn default() -> Self {
        SlpUnitConfig {
            scopes: "DEFAULT".to_owned(),
            query_window: Duration::from_millis(15),
            bridged_lifetime: 1800,
            translation_delay: Duration::from_micros(150),
        }
    }
}

/// A pending native SLP query the unit is driving for a foreign request.
struct PendingQuery {
    id: u64,
    /// Every URL heard so far. The first `SrvRply` also sends the
    /// follow-up `AttrRqst` (process translation: a complete bridged
    /// answer needs attributes too).
    urls: Vec<UrlEntry>,
    canonical_type: Symbol,
}

/// The SLP unit's query process, sans I/O: a multicast `SrvRqst`, an
/// `AttrRqst` for the first `SrvRply`'s URL, and completion on the
/// `AttrRply` — or with a 404 when the window closes first. Queries are
/// keyed by XID, which is also the deadline's timer key.
pub(crate) struct SlpProcesses {
    scopes: String,
    window: Duration,
    next_xid: u16,
    pending: HashMap<u16, PendingQuery>,
}

impl SlpProcesses {
    pub(crate) fn new(config: &SlpUnitConfig) -> SlpProcesses {
        SlpProcesses {
            scopes: config.scopes.clone(),
            window: config.query_window,
            next_xid: 0x4000,
            pending: HashMap::new(),
        }
    }

    /// The next XID this unit sends with (queries and adverts share it).
    fn next_xid(&mut self) -> u16 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(0x4000);
        xid
    }
}

impl Processes for SlpProcesses {
    fn start_query(&mut self, id: u64, request: &EventStream, fx: &mut Vec<Effect>) {
        let Some(canonical) = request.service_type_symbol() else {
            fx.push(Effect::Complete { id, response: error_stream(SdpProtocol::Slp, 2) });
            return;
        };
        let xid = self.next_xid();
        let mut header = Header::new(FunctionId::SrvRqst, xid, DEFAULT_LANG);
        header.flags = FLAG_MCAST;
        let msg = Message::new(
            header,
            Body::SrvRqst(indiss_slp::SrvRqst {
                prlist: String::new(),
                service_type: format!("service:{canonical}"),
                scopes: self.scopes.clone(),
                predicate: String::new(),
                spi: String::new(),
            }),
        );
        self.pending.insert(xid, PendingQuery { id, urls: Vec::new(), canonical_type: canonical });
        fx.push(Effect::Send {
            from: Sock::Unit,
            to: SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT),
            bytes: msg.encode().expect("request encodable"),
            delay: Duration::ZERO,
        });
        fx.push(Effect::Arm {
            timer: u64::from(xid),
            delay: self.window + Duration::from_millis(5),
        });
    }

    /// A reply at the unit's socket, correlated by XID.
    fn on_datagram(&mut self, _: Sock, dgram: &Datagram, fx: &mut Vec<Effect>) -> ParsedMessage {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return ParsedMessage::NotRelevant;
        };
        let xid = msg.header.xid;
        match msg.body {
            Body::SrvRply(rply) if rply.error == 0 && !rply.urls.is_empty() => {
                let Some(pending) = self.pending.get_mut(&xid) else {
                    return ParsedMessage::Handled;
                };
                let first = pending.urls.is_empty();
                pending.urls.extend(rply.urls);
                if !first {
                    return ParsedMessage::Handled;
                }
                let attr_rqst = Message::new(
                    Header::new(FunctionId::AttrRqst, xid, DEFAULT_LANG),
                    Body::AttrRqst(indiss_slp::AttrRqst {
                        prlist: String::new(),
                        url: pending.urls[0].url.clone(),
                        scopes: self.scopes.clone(),
                        tags: String::new(),
                        spi: String::new(),
                    }),
                );
                if let Ok(bytes) = attr_rqst.encode() {
                    fx.push(Effect::Send {
                        from: Sock::Unit,
                        to: dgram.src,
                        bytes,
                        delay: Duration::ZERO,
                    });
                }
            }
            Body::AttrRply(rply) => {
                let Some(pending) = self.pending.remove(&xid) else {
                    return ParsedMessage::Handled;
                };
                let attrs = AttributeList::parse(&rply.attrs).unwrap_or_default();
                let entry = &pending.urls[0];
                let mut body = vec![
                    Event::NetType(SdpProtocol::Slp),
                    Event::ServiceResponse,
                    Event::ResOk,
                    Event::ServiceType(pending.canonical_type),
                    Event::ResTtl(u32::from(entry.lifetime)),
                    Event::ResServUrl(entry.url.clone()),
                ];
                for attr in attrs.iter() {
                    for value in &attr.values {
                        body.push(Event::ResAttr {
                            tag: attr.tag.as_str().into(),
                            value: value.as_str().into(),
                        });
                    }
                }
                fx.push(Effect::Complete { id: pending.id, response: EventStream::framed(body) });
            }
            _ => {}
        }
        ParsedMessage::Handled
    }

    /// The window closed: a query still pending fails the bridge.
    fn on_timer(&mut self, timer: u64, fx: &mut Vec<Effect>) {
        let pending = u16::try_from(timer).ok().and_then(|xid| self.pending.remove(&xid));
        if let Some(pending) = pending {
            fx.push(Effect::Complete {
                id: pending.id,
                response: error_stream(SdpProtocol::Slp, 404),
            });
        }
    }
}

/// The SLP unit.
pub struct SlpUnit {
    node: Node,
    socket: UdpSocket,
    config: SlpUnitConfig,
    processes: RefCell<SlpProcesses>,
    /// Shared registry: attributes of services this unit bridged *into*
    /// SLP live here as projections keyed by the bridged SLP URL, so
    /// follow-up `AttrRqst`s from native SLP clients can be answered
    /// locally from shared state.
    registry: RefCell<ServiceRegistry>,
}

impl SlpUnit {
    /// Creates the unit on `node` with its own ephemeral socket.
    ///
    /// # Errors
    ///
    /// Network errors from the socket bind.
    pub fn new(node: &Node, config: SlpUnitConfig) -> NetResult<SlpUnit> {
        Ok(SlpUnit {
            node: node.clone(),
            socket: node.udp_bind_ephemeral()?,
            processes: RefCell::new(SlpProcesses::new(&config)),
            config,
            registry: RefCell::new(ServiceRegistry::new(RegistryConfig::default())),
        })
    }

    /// Attributes recorded for a bridged URL (exposed for tests; reads
    /// the shared registry's projection).
    pub fn bridged_attributes(&self, url: &str) -> Option<AttributeList> {
        let projection = self.registry.borrow().projection(SdpProtocol::Slp, url)?;
        let mut attrs = AttributeList::new();
        for (tag, value) in &projection.attrs {
            attrs.push(indiss_slp::Attribute::single(tag, value));
        }
        Some(attrs)
    }
}

/// One bridgeable SLP datagram, its header parsed once.
pub(crate) enum SlpWire<'a> {
    /// A `SrvRqst`, still borrowed from the datagram, with its interned
    /// canonical type.
    Request(HeaderView<'a>, SrvRqstView<'a>, Symbol),
    /// Any other message, decoded owned.
    Other(Message),
}

/// Decodes one raw SLP payload: a `SrvRqst` as views, which allocates
/// nothing once its type is interned, anything else as a [`Message`].
/// `None` when undecodable, or SLP infrastructure discovery (never
/// bridged).
pub(crate) fn decode_slp(payload: &[u8]) -> Option<SlpWire<'_>> {
    let (header, body) = HeaderView::decode(payload).ok()?;
    if header.function != FunctionId::SrvRqst {
        return Message::decode_body(header, body).ok().map(SlpWire::Other);
    }
    let request = SrvRqstView::decode(body).ok()?;
    let canonical = canonical_type_from_slp(request.service_type);
    let infrastructure = canonical == "directory-agent" || canonical == "service-agent";
    (!infrastructure).then_some(SlpWire::Request(header, request, canonical))
}

/// The Fig. 4 step-1 translation as a pure function: a bridgeable
/// SrvRqst becomes a request event stream. No unit state is involved, so
/// this runs on any thread — the multi-threaded gateway benchmark
/// drives the exact parser the deployed SLP unit uses.
fn srv_rqst_events(
    header: HeaderView<'_>,
    req: SrvRqstView<'_>,
    canonical: Symbol,
    src: SocketAddrV4,
    multicast: bool,
) -> EventStream {
    let mut body = EventStreamBuilder::with_capacity(10);
    body.push(Event::NetType(SdpProtocol::Slp));
    body.push(if multicast { Event::NetMulticast } else { Event::NetUnicast });
    body.push(Event::NetSourceAddr(src));
    body.push(Event::ServiceRequest);
    body.push(Event::SlpReqVersion(indiss_slp::SLP_VERSION));
    body.push(Event::SlpReqScope(req.scopes.into()));
    body.push(Event::SlpReqPredicate(req.predicate.to_owned()));
    body.push(Event::SlpReqId(header.xid));
    body.push(Event::ReqLang(header.lang.to_owned()));
    body.push(Event::ServiceType(canonical));
    body.build()
}

/// Decodes one raw SLP datagram payload and, when it is a bridgeable
/// SrvRqst, parses it into the request event stream of Fig. 4 step 1 —
/// the stateless slice of [`SlpUnit::parse`], usable from any thread.
pub fn parse_slp_request(
    payload: &[u8],
    src: SocketAddrV4,
    multicast: bool,
) -> Option<EventStream> {
    let SlpWire::Request(header, req, canonical) = decode_slp(payload)? else { return None };
    Some(srv_rqst_events(header, req, canonical, src, multicast))
}

/// The advert-side translation as a pure function: an SLP registration /
/// deregistration / SA advertisement becomes an advert event stream.
fn slp_advert_events(
    alive: bool,
    url: &str,
    attrs: &str,
    ttl: u16,
    src: SocketAddrV4,
) -> ParsedMessage {
    let canonical = canonical_type_from_slp(url);
    let mut body = vec![
        Event::NetType(SdpProtocol::Slp),
        Event::NetMulticast,
        Event::NetSourceAddr(src),
        if alive { Event::ServiceAlive } else { Event::ServiceByeBye },
        Event::ServiceType(canonical),
        Event::ResServUrl(url.to_owned()),
        Event::ResTtl(u32::from(ttl)),
    ];
    if let Ok(list) = AttributeList::parse(attrs) {
        for attr in list.iter() {
            for value in &attr.values {
                body.push(Event::ResAttr {
                    tag: attr.tag.as_str().into(),
                    value: value.as_str().into(),
                });
            }
        }
    }
    ParsedMessage::Advert(EventStream::framed(body))
}

/// The stateless SLP parser table: one decoded datagram → events. Both
/// [`SlpUnit::parse`] (which additionally answers `AttrRqst`s from the
/// shared registry) and the wire front-end's
/// [`crate::netfront::NetDriver`] go through this single function, so
/// the simulated and the real-socket pipelines translate identically by
/// construction. `AttrRqst` is `NotRelevant` here — answering it needs
/// unit state.
pub(crate) fn slp_wire_events(
    wire: Option<SlpWire<'_>>,
    src: SocketAddrV4,
    multicast: bool,
) -> ParsedMessage {
    let msg = match wire {
        Some(SlpWire::Request(header, req, canonical)) => {
            return ParsedMessage::Request(srv_rqst_events(header, req, canonical, src, multicast));
        }
        Some(SlpWire::Other(msg)) => msg,
        None => return ParsedMessage::NotRelevant,
    };
    match msg.body {
        Body::SaAdvert(advert) => {
            // SAAdverts announce an agent, not a concrete service; use
            // the embedded attributes when they carry a service URL.
            if let Some(url) = AttributeList::parse(&advert.attrs)
                .ok()
                .and_then(|a| a.get("service-url").map(str::to_owned))
            {
                slp_advert_events(true, &url, &advert.attrs, 1800, src)
            } else {
                ParsedMessage::Handled
            }
        }
        Body::SrvReg(reg) => {
            slp_advert_events(true, &reg.entry.url, &reg.attrs, reg.entry.lifetime, src)
        }
        Body::SrvDeReg(dereg) => slp_advert_events(false, &dereg.entry.url, "", 0, src),
        Body::SrvRply(rply) if rply.error == 0 => {
            // Observed on the wire (warm the runtime cache).
            let mut body =
                vec![Event::NetType(SdpProtocol::Slp), Event::ServiceResponse, Event::ResOk];
            if let Some(entry) = rply.urls.first() {
                body.push(Event::ServiceType(canonical_type_from_slp(&entry.url)));
                body.push(Event::ResTtl(u32::from(entry.lifetime)));
                body.push(Event::ResServUrl(entry.url.clone()));
            }
            ParsedMessage::Response(EventStream::framed(body))
        }
        _ => ParsedMessage::NotRelevant,
    }
}

/// Fig. 4's final step, the one SrvRply composer both runtimes use:
/// appends the reply answering a request — its `xid`, `lang` and
/// canonical type — with `response` to `out`, and records the response's
/// attributes under the SLP URL it carries, so a follow-up `AttrRqst` can
/// be answered. `None`, with nothing written, when the response holds no
/// endpoint (multicast etiquette: silence) or does not fit the wire.
pub(crate) fn compose_srv_rply(
    registry: &ServiceRegistry,
    out: &mut Vec<u8>,
    xid: u16,
    lang: &str,
    canonical: &str,
    response: &EventStream,
) -> Option<()> {
    let endpoint = response.service_url()?;
    let lifetime = u16::try_from(response.ttl().unwrap_or(1800)).unwrap_or(u16::MAX);
    let url_parts = slp_url_parts(canonical, endpoint);
    let url = SrvRply::encode_one_into(out, xid, lang, &url_parts, lifetime).ok()?;
    registry.set_attr_projection(SdpProtocol::Slp, url, response.response_attr_iter());
    Some(())
}

/// Maps a protocol-neutral endpoint URL to an SLP service URL, exactly as
/// the paper's Fig. 4 shows: `soap://h:p/path` + type `clock` →
/// `service:clock:soap://h:p/path`. The URL is the parts concatenated.
fn slp_url_parts<'a>(canonical_type: &'a str, endpoint: &'a str) -> [&'a str; 4] {
    if endpoint.starts_with("service:") {
        return ["", "", "", endpoint]; // already native SLP
    }
    let sep = if endpoint.contains("://") { ":" } else { "://" };
    ["service:", canonical_type, sep, endpoint]
}

fn to_slp_url(canonical_type: &str, endpoint: &str) -> String {
    slp_url_parts(canonical_type, endpoint).concat()
}

impl Unit for SlpUnit {
    fn protocol(&self) -> SdpProtocol {
        SdpProtocol::Slp
    }

    fn bind_registry(&self, registry: &ServiceRegistry) {
        *self.registry.borrow_mut() = registry.clone();
    }

    fn parse(&self, _world: &World, dgram: &Datagram) -> ParsedMessage {
        let wire = decode_slp(&dgram.payload);
        // The one stateful row of the parser table: attribute requests
        // for services this unit bridged are answered from the shared
        // registry's projections. Everything else is the stateless
        // table shared with the wire front-end.
        if let Some(SlpWire::Other(msg @ Message { body: Body::AttrRqst(req), .. })) = &wire {
            let answer = self.bridged_attributes(&req.url);
            return if let Some(attrs) = answer {
                let reply = Message::new(
                    Header::new(indiss_slp::FunctionId::AttrRply, msg.header.xid, &msg.header.lang),
                    Body::AttrRply(indiss_slp::AttrRply { error: 0, attrs: attrs.to_string() }),
                );
                if let Ok(wire) = reply.encode() {
                    let _ = self.socket.send_to(&wire, dgram.src);
                }
                ParsedMessage::Handled
            } else {
                ParsedMessage::NotRelevant
            };
        }
        slp_wire_events(wire, dgram.src, dgram.is_multicast())
    }

    fn socket(&self) -> Option<UdpSocket> {
        Some(self.socket.clone())
    }

    fn processes(&self) -> Option<RefMut<'_, dyn Processes>> {
        Some(self.processes.borrow_mut())
    }

    fn compose_response(&self, world: &World, request: &EventStream, response: &EventStream) {
        let (Some(requester), Some(canonical)) = (request.source_addr(), request.service_type())
        else {
            return;
        };
        let xid = request.events().iter().find_map(|e| match e {
            Event::SlpReqId(x) => Some(*x),
            _ => None,
        });
        let lang = request.events().iter().find_map(|e| match e {
            Event::ReqLang(l) => Some(l.as_str()),
            _ => None,
        });
        let mut wire = Vec::with_capacity(128);
        let (xid, lang) = (xid.unwrap_or(0), lang.unwrap_or(DEFAULT_LANG));
        let registry = self.registry.borrow();
        if compose_srv_rply(&registry, &mut wire, xid, lang, canonical, response).is_none() {
            return;
        }
        let socket = self.socket.clone();
        world.schedule_in(self.config.translation_delay, move |_| {
            let _ = socket.send_to(&wire, requester);
        });
    }

    fn compose_advert(&self, world: &World, advert: &EventStream) {
        // Translate a foreign alive-advertisement into an SLP SAAdvert
        // carrying the service URL + attributes (the passive-SLP listener
        // path of Fig. 6).
        let Some(url) = advert.service_url() else {
            return;
        };
        let Some(canonical) = advert.service_type() else {
            return;
        };
        if advert.is_byebye() {
            return; // SLP has no multicast byebye; registrations just expire
        }
        let slp_url = to_slp_url(canonical, url);
        let mut attrs = AttributeList::new().with("service-url", &slp_url);
        for (tag, value) in advert.response_attrs() {
            attrs.push(indiss_slp::Attribute::single(tag, value));
        }
        let xid = self.processes.borrow_mut().next_xid();
        let msg = Message::new(
            Header::new(indiss_slp::FunctionId::SaAdvert, xid, DEFAULT_LANG),
            Body::SaAdvert(indiss_slp::SaAdvert {
                url: format!("service:service-agent://{}", self.node.addr()),
                scopes: self.config.scopes.clone(),
                attrs: attrs.to_string(),
            }),
        );
        let socket = self.socket.clone();
        world.schedule_in(self.config.translation_delay, move |_| {
            if let Ok(wire) = msg.encode() {
                let _ = socket.send_to(&wire, SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::tests::{heard, request, step};
    use indiss_net::{Completion, World};
    use indiss_slp::AttrRply;

    fn unit_world() -> (World, Node, SlpUnit) {
        let world = World::new(41);
        let node = world.add_node("indiss");
        let unit = SlpUnit::new(&node, SlpUnitConfig::default()).unwrap();
        (world, node, unit)
    }

    fn srv_rqst_datagram(service_type: &str, multicast: bool) -> Datagram {
        let mut header = Header::new(indiss_slp::FunctionId::SrvRqst, 0xBEEF, "en");
        if multicast {
            header.flags = FLAG_MCAST;
        }
        let msg = Message::new(
            header,
            Body::SrvRqst(indiss_slp::SrvRqst {
                prlist: String::new(),
                service_type: service_type.to_owned(),
                scopes: "DEFAULT".into(),
                predicate: "(location=home)".into(),
                spi: String::new(),
            }),
        );
        Datagram {
            src: "10.0.0.7:40001".parse().unwrap(),
            dst: if multicast {
                SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT)
            } else {
                "10.0.0.1:427".parse().unwrap()
            },
            payload: msg.encode().unwrap(),
        }
    }

    /// The parser must produce the Fig. 4 step-1 event sequence.
    #[test]
    fn srv_rqst_parses_to_fig4_events() {
        let (world, _node, unit) = unit_world();
        let parsed = unit.parse(&world, &srv_rqst_datagram("service:clock", true));
        let ParsedMessage::Request(stream) = parsed else {
            panic!("expected request, got {parsed:?}");
        };
        assert_eq!(
            stream.names().collect::<Vec<_>>(),
            vec![
                "SDP_C_START",
                "SDP_NET_TYPE",
                "SDP_NET_MULTICAST",
                "SDP_NET_SOURCE_ADDR",
                "SDP_SERVICE_REQUEST",
                "SDP_REQ_VERSION",
                "SDP_REQ_SCOPE",
                "SDP_REQ_PREDICATE",
                "SDP_REQ_ID",
                "SDP_REQ_LANG",
                "SDP_SERVICE_TYPE",
                "SDP_C_STOP",
            ]
        );
        assert_eq!(stream.service_type(), Some("clock"));
    }

    #[test]
    fn infrastructure_requests_are_not_bridged() {
        let (world, _node, unit) = unit_world();
        let parsed = unit.parse(&world, &srv_rqst_datagram("service:directory-agent", true));
        assert_eq!(parsed, ParsedMessage::NotRelevant);
    }

    #[test]
    fn garbage_is_not_relevant() {
        let (world, _node, unit) = unit_world();
        let dgram = Datagram {
            src: "10.0.0.7:40001".parse().unwrap(),
            dst: "10.0.0.1:427".parse().unwrap(),
            payload: b"NOTIFY * HTTP/1.1\r\n\r\n".to_vec(),
        };
        assert_eq!(unit.parse(&world, &dgram), ParsedMessage::NotRelevant);
    }

    fn reply(xid: u16, function: FunctionId, body: Body) -> Datagram {
        heard(Message::new(Header::new(function, xid, "en"), body).encode().unwrap())
    }

    fn srv_rply(xid: u16, url: &str) -> Datagram {
        let urls = vec![UrlEntry::new(url, 1800)];
        reply(xid, FunctionId::SrvRply, Body::SrvRply(SrvRply { error: 0, urls }))
    }

    /// Starts query 7 for `printer`: a multicast `SrvRqst` at once and
    /// its deadline, keyed by the XID it returns.
    fn started(queries: &mut SlpProcesses) -> u16 {
        let fx = step(|fx| queries.start_query(7, &request("printer"), fx));
        let [Effect::Send { from: Sock::Unit, to, bytes, delay: Duration::ZERO }, Effect::Arm { timer, delay }] =
            &fx[..]
        else {
            panic!("a SrvRqst and its deadline: {fx:?}");
        };
        assert_eq!(*to, SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT));
        assert_eq!(*delay, Duration::from_millis(20), "the 15 ms window, plus 5");
        let msg = Message::decode(bytes).unwrap();
        assert!(matches!(&msg.body, Body::SrvRqst(r) if r.service_type == "service:printer"));
        assert_eq!(u64::from(msg.header.xid), *timer, "the XID keys the deadline");
        msg.header.xid
    }

    /// The query process stepped with no `World`: the first `SrvRply`
    /// sends the `AttrRqst` for its URL, the `AttrRply` completes the
    /// query with URL and attributes, and a reply or a deadline after
    /// that completes nothing.
    #[test]
    fn execute_query_drives_request_and_attr_fetch() {
        let mut queries = SlpProcesses::new(&SlpUnitConfig::default());
        let xid = started(&mut queries);
        let url = "service:printer:lpr://10.0.0.9:515";
        let fx = step(|fx| queries.on_datagram(Sock::Unit, &srv_rply(xid, url), fx));
        let [Effect::Send { to, bytes, .. }] = &fx[..] else { panic!("an AttrRqst: {fx:?}") };
        assert_eq!(*to, srv_rply(xid, url).src, "asked of the replying agent");
        assert!(matches!(Message::decode(bytes).unwrap().body, Body::AttrRqst(r) if r.url == url));
        assert!(step(|fx| queries.on_datagram(Sock::Unit, &srv_rply(xid, url), fx)).is_empty());

        let attrs = "(ppm=12),(location=office)".to_owned();
        let attr_rply =
            reply(xid, FunctionId::AttrRply, Body::AttrRply(AttrRply { error: 0, attrs }));
        let fx = step(|fx| queries.on_datagram(Sock::Unit, &attr_rply, fx));
        let [Effect::Complete { id: 7, response }] = &fx[..] else { panic!("{fx:?}") };
        assert_eq!(response.service_url(), Some(url));
        assert!(response.response_attrs().contains(&("ppm", "12")), "attrs fetched via AttrRqst");
        let late = step(|fx| {
            queries.on_datagram(Sock::Unit, &attr_rply, fx);
            queries.on_timer(u64::from(xid), fx);
        });
        assert!(late.is_empty(), "no second Complete: {late:?}");
    }

    #[test]
    fn execute_query_times_out_to_error_stream() {
        let mut queries = SlpProcesses::new(&SlpUnitConfig::default());
        let xid = started(&mut queries);
        let fx = step(|fx| queries.on_timer(u64::from(xid), fx));
        let [Effect::Complete { id: 7, response }] = &fx[..] else { panic!("{fx:?}") };
        assert!(response.events().iter().any(|e| matches!(e, Event::ResErr(404))));
        let late = step(|fx| queries.on_datagram(Sock::Unit, &srv_rply(xid, "service:p://h"), fx));
        assert!(late.is_empty(), "a reply after the deadline is not a second Complete: {late:?}");
    }

    #[test]
    fn compose_response_builds_fig4_srv_rply() {
        let (world, node, unit) = unit_world();
        let client_node = world.add_node("client");
        let listen = client_node.udp_bind(40001).unwrap();
        let got: Completion<Vec<u8>> = Completion::new();
        let got2 = got.clone();
        listen.on_receive(move |_, d| got2.complete(d.payload));

        let request = EventStream::framed(vec![
            Event::NetSourceAddr(SocketAddrV4::new(client_node.addr(), 40001)),
            Event::ServiceRequest,
            Event::SlpReqId(0xBEEF),
            Event::ReqLang("en".into()),
            Event::ServiceType("clock".into()),
        ]);
        let response = EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ResTtl(1800),
            Event::ResServUrl("soap://10.0.0.2:4005/service/timer/control".into()),
            Event::ResAttr { tag: "friendlyName".into(), value: "CyberGarage Clock Device".into() },
        ]);
        unit.compose_response(&world, &request, &response);
        world.run_for(Duration::from_secs(1));
        let wire = got.take().expect("SrvRply delivered");
        let msg = Message::decode(&wire).unwrap();
        assert_eq!(msg.header.xid, 0xBEEF);
        match msg.body {
            Body::SrvRply(rply) => {
                assert_eq!(
                    rply.urls[0].url,
                    "service:clock:soap://10.0.0.2:4005/service/timer/control"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Attributes recorded for follow-up AttrRqst answering.
        let attrs = unit
            .bridged_attributes("service:clock:soap://10.0.0.2:4005/service/timer/control")
            .unwrap();
        assert_eq!(attrs.get("friendlyName"), Some("CyberGarage Clock Device"));
        let _ = node;
    }

    #[test]
    fn empty_response_is_silent() {
        let (world, _node, unit) = unit_world();
        let client_node = world.add_node("client");
        let listen = client_node.udp_bind(40001).unwrap();
        let got: Completion<()> = Completion::new();
        let got2 = got.clone();
        listen.on_receive(move |_, _| got2.complete(()));
        let request = EventStream::framed(vec![
            Event::NetSourceAddr(SocketAddrV4::new(client_node.addr(), 40001)),
            Event::ServiceRequest,
            Event::ServiceType("clock".into()),
        ]);
        let response = EventStream::framed(vec![Event::ServiceResponse, Event::ResErr(404)]);
        unit.compose_response(&world, &request, &response);
        world.run_for(Duration::from_secs(1));
        assert!(!got.is_complete(), "no SrvRply for an empty result");
    }

    #[test]
    fn compose_advert_emits_sa_advert() {
        let (world, _node, unit) = unit_world();
        let listener_node = world.add_node("listener");
        let sock = listener_node.udp_bind(SLP_PORT).unwrap();
        sock.join_multicast(SLP_MULTICAST_GROUP).unwrap();
        let got: Completion<Vec<u8>> = Completion::new();
        let got2 = got.clone();
        sock.on_receive(move |_, d| got2.complete(d.payload));
        let advert = EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType("clock".into()),
            Event::ResServUrl("soap://10.0.0.2:4005/ctl".into()),
            Event::ResAttr { tag: "friendlyName".into(), value: "Clock".into() },
        ]);
        unit.compose_advert(&world, &advert);
        world.run_for(Duration::from_secs(1));
        let msg = Message::decode(&got.take().expect("SAAdvert heard")).unwrap();
        match msg.body {
            Body::SaAdvert(sa) => {
                let attrs = AttributeList::parse(&sa.attrs).unwrap();
                assert_eq!(
                    attrs.get("service-url"),
                    Some("service:clock:soap://10.0.0.2:4005/ctl")
                );
                assert_eq!(attrs.get("friendlyName"), Some("Clock"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn slp_url_mapping() {
        assert_eq!(
            to_slp_url("clock", "soap://1.2.3.4:5/ctl"),
            "service:clock:soap://1.2.3.4:5/ctl"
        );
        assert_eq!(to_slp_url("clock", "1.2.3.4:5"), "service:clock://1.2.3.4:5");
        assert_eq!(to_slp_url("x", "service:x://h"), "service:x://h");
    }

    /// The composer law, over generated cases: the SrvRply the gateway
    /// writes from borrowed parts is byte for byte `Message::encode` of
    /// the message the unit used to build (rebuilt here as the reference),
    /// decodes back to it, appends to a non-empty buffer without touching
    /// what is there, and records the response's attributes under its URL.
    #[test]
    fn composed_srv_rply_is_the_reference_message_encoded() {
        fn reference(xid: u16, lang: &str, ty: &str, endpoint: &str, ttl: Option<u32>) -> Message {
            let url = match endpoint.split_once("://") {
                _ if endpoint.starts_with("service:") => endpoint.to_owned(),
                Some((scheme, rest)) => format!("service:{ty}:{scheme}://{rest}"),
                None => format!("service:{ty}://{endpoint}"),
            };
            let lifetime = u16::try_from(ttl.unwrap_or(1800)).unwrap_or(u16::MAX);
            Message::new(
                Header::new(FunctionId::SrvRply, xid, lang),
                Body::SrvRply(SrvRply { error: 0, urls: vec![UrlEntry::new(url, lifetime)] }),
            )
        }
        let registry = ServiceRegistry::new(RegistryConfig::default());
        let endpoints =
            ["soap://10.0.0.2:4005/service/timer/control", "10.0.0.3:515", "service:x://h"];
        let ttls = [None, Some(0), Some(1800), Some(65_535), Some(65_536), Some(u32::MAX)];
        let attr_sets: [&[(&str, &str)]; 3] =
            [&[], &[("friendlyName", "Clock")], &[("a", "1"), ("b", "")]];
        let mut generated = Vec::new();
        for xid in [0, 1, 0xBEEF, u16::MAX] {
            for lang in ["en", "de-CH", "i-klingon"] {
                for ty in ["clock", "printer"] {
                    for endpoint in endpoints {
                        for ttl in ttls {
                            for attrs in attr_sets {
                                generated.push((xid, lang, ty, endpoint, ttl, attrs));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(generated.len(), 4 * 3 * 2 * 3 * 6 * 3);
        for (xid, lang, ty, endpoint, ttl, attrs) in generated {
            let mut body = vec![Event::ServiceResponse, Event::ResOk];
            body.extend(ttl.map(Event::ResTtl));
            body.push(Event::ResServUrl(endpoint.to_owned()));
            body.extend(
                attrs.iter().map(|(t, v)| Event::ResAttr { tag: (*t).into(), value: (*v).into() }),
            );
            let response = EventStream::framed(body);
            let expected = reference(xid, lang, ty, endpoint, ttl);
            let mut out = b"held".to_vec();
            assert!(compose_srv_rply(&registry, &mut out, xid, lang, ty, &response).is_some());
            assert_eq!(out[4..], expected.encode().unwrap()[..], "{xid} {lang} {endpoint}");
            assert_eq!(Message::decode(&out[4..]).unwrap(), expected);
            let mut appended = b"held".to_vec();
            expected.encode_into(&mut appended).unwrap();
            assert_eq!(appended, out);
            let Body::SrvRply(rply) = &expected.body else { unreachable!() };
            let projection = registry.projection(SdpProtocol::Slp, &rply.urls[0].url);
            let held: Vec<_> = projection.expect("recorded").attrs;
            let want: Vec<_> =
                attrs.iter().map(|(t, v)| ((*t).to_owned(), (*v).to_owned())).collect();
            assert_eq!(held, want);
        }
    }
}
