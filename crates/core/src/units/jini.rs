//! The Jini unit: bridges Jini's repository-based discovery.
//!
//! Jini has no repository-less mode — clients *must* find a lookup
//! service first. The unit therefore plays both sides:
//!
//! * towards Jini **clients**, it answers multicast discovery requests by
//!   announcing *itself* as a lookup service; lookups that arrive come
//!   back to the runtime as requests, bridged to the other SDPs and
//!   answered by [`Unit::compose_response`] like any other;
//! * towards Jini **services**, it behaves as a client of any real
//!   lookup service it hears (queries it for foreign requests, forwards
//!   foreign advertisements as registrations).

use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashSet;
use std::net::SocketAddrV4;
use std::time::Duration;

use indiss_jini::{JiniPacket, ServiceItem, JINI_PORT, JINI_REQUEST_GROUP};
use indiss_net::{Datagram, NetResult, Node, UdpSocket, World};

use crate::event::{Event, EventStream, SdpProtocol, Symbol};
use crate::registry::{Projection, RegistryConfig, ServiceRegistry};
use crate::units::{error_stream, Effect, ParsedMessage, Processes, Sock, Unit};

/// Jini unit tuning.
#[derive(Debug, Clone)]
pub struct JiniUnitConfig {
    /// Discovery groups announced/requested.
    pub groups: Vec<String>,
    /// Deadline for a bridged native query.
    pub query_window: Duration,
    /// Event-layer translation cost.
    pub translation_delay: Duration,
    /// Lease granted on bridged registrations, seconds.
    pub lease_secs: u32,
}

impl Default for JiniUnitConfig {
    fn default() -> Self {
        JiniUnitConfig {
            groups: vec!["public".to_owned()],
            query_window: Duration::from_millis(50),
            translation_delay: Duration::from_micros(150),
            lease_secs: 300,
        }
    }
}

/// The Jini unit's processes, sans I/O. Jini's repository step comes
/// first: with no registrar known, a query multicasts a
/// `DiscoveryRequest`, and the `Announcement` that reaches the unit's
/// socket releases the waiting lookups. Every query then sends one
/// `Lookup`, and the next `LookupReply` completes every lookup sent — or
/// a query completes with a 404 when its window closes. The process id
/// is also the deadline's timer key. The unit's socket is also the
/// registrar Jini clients were announced: their lookups and
/// registrations come back to the runtime as requests and adverts.
pub(crate) struct JiniProcesses {
    config: JiniUnitConfig,
    /// A real lookup service, if one has been heard.
    registrar: Option<SocketAddrV4>,
    /// Queries not yet completed.
    live: HashSet<u64>,
    /// Lookups waiting for a registrar. A closed window does not take a
    /// query off either list: the lookup still goes out once a registrar
    /// is heard, and its reply completes nothing.
    discovering: Vec<(u64, Symbol)>,
    /// Lookups sent, waiting for a `LookupReply`.
    looking_up: Vec<(u64, Symbol)>,
}

impl JiniProcesses {
    pub(crate) fn new(config: JiniUnitConfig) -> JiniProcesses {
        JiniProcesses {
            config,
            registrar: None,
            live: HashSet::new(),
            discovering: Vec::new(),
            looking_up: Vec::new(),
        }
    }

    fn look_up(&mut self, id: u64, canonical: Symbol, to: SocketAddrV4, fx: &mut Vec<Effect>) {
        let bytes = JiniPacket::Lookup { service_type: canonical.as_str().to_owned() }.encode();
        self.looking_up.push((id, canonical));
        fx.push(Effect::Send { from: Sock::Unit, to, bytes, delay: Duration::ZERO });
    }
}

impl Processes for JiniProcesses {
    fn start_query(&mut self, id: u64, request: &EventStream, fx: &mut Vec<Effect>) {
        let Some(canonical) = request.service_type_symbol() else {
            fx.push(Effect::Complete { id, response: error_stream(SdpProtocol::Jini, 2) });
            return;
        };
        self.live.insert(id);
        match self.registrar {
            Some(registrar) => self.look_up(id, canonical, registrar, fx),
            None => {
                self.discovering.push((id, canonical));
                let packet = JiniPacket::DiscoveryRequest { groups: self.config.groups.clone() };
                let to = SocketAddrV4::new(JINI_REQUEST_GROUP, JINI_PORT);
                fx.push(Effect::Send {
                    from: Sock::Unit,
                    to,
                    bytes: packet.encode(),
                    delay: Duration::ZERO,
                });
            }
        }
        let delay = self.config.query_window + Duration::from_millis(10);
        fx.push(Effect::Arm { timer: id, delay });
    }

    fn on_datagram(&mut self, _: Sock, dgram: &Datagram, fx: &mut Vec<Effect>) -> ParsedMessage {
        let Ok(packet) = JiniPacket::decode(&dgram.payload) else {
            return ParsedMessage::NotRelevant;
        };
        match packet {
            JiniPacket::Announcement { host, port, .. } => {
                let Ok(ip) = host.parse() else { return ParsedMessage::Handled };
                let registrar = SocketAddrV4::new(ip, port);
                self.registrar = Some(registrar);
                for (id, canonical) in std::mem::take(&mut self.discovering) {
                    self.look_up(id, canonical, registrar, fx);
                }
            }
            JiniPacket::LookupReply { items } => {
                for (id, canonical) in self.looking_up.drain(..) {
                    if self.live.remove(&id) {
                        fx.push(Effect::Complete {
                            id,
                            response: lookup_response(canonical, &items),
                        });
                    }
                }
            }
            // A Jini client that took the unit for its registrar.
            JiniPacket::Lookup { service_type } => {
                return ParsedMessage::Request(EventStream::framed(vec![
                    Event::NetType(SdpProtocol::Jini),
                    Event::NetUnicast,
                    Event::NetSourceAddr(dgram.src),
                    Event::ServiceRequest,
                    Event::JiniGroups(self.config.groups.clone()),
                    Event::ServiceType(Symbol::intern_lowercase(&service_type)),
                ]));
            }
            // A Jini service registering with the unit: acknowledged, then
            // re-advertised in the other SDPs like any advert.
            JiniPacket::Register { item, lease_secs } => {
                let lease = lease_secs.min(self.config.lease_secs);
                let ack =
                    JiniPacket::RegisterAck { service_id: item.service_id, lease_secs: lease };
                let delay = self.config.translation_delay;
                fx.push(Effect::Send {
                    from: Sock::Unit,
                    to: dgram.src,
                    bytes: ack.encode(),
                    delay,
                });
                return ParsedMessage::Advert(advert_events_from_item(&item, dgram.src, lease));
            }
            _ => {}
        }
        ParsedMessage::Handled
    }

    /// The window closed: a query still open fails the bridge.
    fn on_timer(&mut self, id: u64, fx: &mut Vec<Effect>) {
        if self.live.remove(&id) {
            fx.push(Effect::Complete { id, response: error_stream(SdpProtocol::Jini, 404) });
        }
    }
}

/// Translates a `LookupReply`'s items into response events for a query
/// for `canonical`: the first item, or a 404.
fn lookup_response(canonical: Symbol, items: &[ServiceItem]) -> EventStream {
    let mut body = vec![Event::NetType(SdpProtocol::Jini), Event::ServiceResponse];
    match items.first() {
        Some(item) => {
            body.push(Event::ResOk);
            body.push(Event::ServiceType(canonical));
            body.push(Event::JiniServiceId(item.service_id));
            body.push(Event::ResTtl(300));
            for (tag, value) in &item.attributes {
                body.push(Event::ResAttr {
                    tag: tag.as_str().into(),
                    value: value.as_str().into(),
                });
            }
            body.push(Event::ResServUrl(endpoint_to_url(&item.endpoint)));
        }
        None => body.push(Event::ResErr(404)),
    }
    EventStream::framed(body)
}

/// The Jini unit.
pub struct JiniUnit {
    socket: UdpSocket,
    config: JiniUnitConfig,
    processes: RefCell<JiniProcesses>,
    /// Shared registry: bridged endpoints keep one stable service id
    /// (stored as a projection) instead of minting a fresh id per reply.
    registry: RefCell<ServiceRegistry>,
    next_service_id: Cell<u64>,
}

impl JiniUnit {
    /// Creates the unit on `node` with its own socket (which doubles as
    /// the bridging-registrar endpoint announced to Jini clients).
    ///
    /// # Errors
    ///
    /// Network errors from the socket bind.
    pub fn new(node: &Node, config: JiniUnitConfig) -> NetResult<JiniUnit> {
        Ok(JiniUnit {
            socket: node.udp_bind_ephemeral()?,
            processes: RefCell::new(JiniProcesses::new(config.clone())),
            config,
            registry: RefCell::new(ServiceRegistry::new(RegistryConfig::default())),
            next_service_id: Cell::new(0x1000),
        })
    }

    /// The real registrar heard so far, if any (exposed for tests).
    pub fn real_registrar(&self) -> Option<SocketAddrV4> {
        self.processes.borrow().registrar
    }

    /// The stable service id for a bridged endpoint: reused from the
    /// shared registry's projection when the endpoint was bridged before,
    /// minted (and recorded) otherwise.
    fn service_id_for(&self, url: &str) -> u64 {
        let registry = self.registry.borrow();
        if let Some(id) = registry.projection(SdpProtocol::Jini, url).and_then(|p| p.service_id) {
            return id;
        }
        let id = self.next_service_id.get() + 1;
        self.next_service_id.set(id);
        let projection = Projection { service_id: Some(id), ..Projection::default() };
        registry.set_projection(SdpProtocol::Jini, url, projection);
        id
    }

    /// Sends `packet` to `to` once the translation cost is paid.
    fn send_later(&self, world: &World, packet: &JiniPacket, to: SocketAddrV4) {
        let (socket, bytes) = (self.socket.clone(), packet.encode());
        world.schedule_in(self.config.translation_delay, move |_| {
            let _ = socket.send_to(&bytes, to);
        });
    }
}

/// Builds advert events for a registered Jini service item.
fn advert_events_from_item(item: &ServiceItem, src: SocketAddrV4, lease: u32) -> EventStream {
    let mut body = vec![
        Event::NetType(SdpProtocol::Jini),
        Event::NetUnicast,
        Event::NetSourceAddr(src),
        Event::ServiceAlive,
        Event::ServiceType(Symbol::intern_lowercase(&item.service_type)),
        Event::JiniServiceId(item.service_id),
        Event::JiniLease(lease),
        Event::ResTtl(lease),
        Event::ResServUrl(endpoint_to_url(&item.endpoint)),
    ];
    for (tag, value) in &item.attributes {
        body.push(Event::ResAttr { tag: tag.as_str().into(), value: value.as_str().into() });
    }
    EventStream::framed(body)
}

/// `10.0.0.9:5000` → `jini://10.0.0.9:5000` (idempotent for URLs).
fn endpoint_to_url(endpoint: &str) -> String {
    if endpoint.contains("://") || endpoint.starts_with("service:") {
        endpoint.to_owned()
    } else {
        format!("jini://{endpoint}")
    }
}

/// Reverse of [`endpoint_to_url`] for composing `ServiceItem`s.
fn url_to_endpoint(url: &str) -> String {
    url.strip_prefix("jini://").map(str::to_owned).unwrap_or_else(|| url.to_owned())
}

impl Unit for JiniUnit {
    fn protocol(&self) -> SdpProtocol {
        SdpProtocol::Jini
    }

    fn bind_registry(&self, registry: &ServiceRegistry) {
        *self.registry.borrow_mut() = registry.clone();
    }

    fn parse(&self, world: &World, dgram: &Datagram) -> ParsedMessage {
        let Ok(packet) = JiniPacket::decode(&dgram.payload) else {
            return ParsedMessage::NotRelevant;
        };
        match packet {
            JiniPacket::DiscoveryRequest { groups } => {
                // Announce ourselves as a lookup service so the client's
                // lookups reach the bridge (delayed by translation cost).
                let groups_served = &self.config.groups;
                if groups.is_empty() || groups.iter().any(|g| groups_served.contains(g)) {
                    let addr = self.socket.local_addr().expect("socket open");
                    let announcement = JiniPacket::Announcement {
                        host: addr.ip().to_string(),
                        port: addr.port(),
                        groups: groups_served.clone(),
                    };
                    self.send_later(world, &announcement, dgram.src);
                }
                ParsedMessage::Handled
            }
            JiniPacket::Announcement { host, port, .. } => {
                // A real lookup service on the network: remember it.
                if let Ok(ip) = host.parse::<std::net::Ipv4Addr>() {
                    let addr = SocketAddrV4::new(ip, port);
                    if self.socket.local_addr().ok() != Some(addr) {
                        self.processes.borrow_mut().registrar = Some(addr);
                    }
                }
                ParsedMessage::Handled
            }
            _ => ParsedMessage::NotRelevant,
        }
    }

    fn socket(&self) -> Option<UdpSocket> {
        Some(self.socket.clone())
    }

    fn processes(&self) -> Option<RefMut<'_, dyn Processes>> {
        Some(self.processes.borrow_mut())
    }

    fn compose_response(&self, world: &World, request: &EventStream, response: &EventStream) {
        let Some(requester) = request.source_addr() else {
            return;
        };
        let items = match response.service_url() {
            Some(url) => {
                let service_id = self.service_id_for(url);
                vec![ServiceItem {
                    service_id,
                    service_type: response
                        .service_type()
                        .or(request.service_type())
                        .unwrap_or_default()
                        .to_owned(),
                    endpoint: url_to_endpoint(url),
                    attributes: response
                        .response_attrs()
                        .into_iter()
                        .map(|(t, v)| (t.to_owned(), v.to_owned()))
                        .collect(),
                }]
            }
            None => Vec::new(),
        };
        self.send_later(world, &JiniPacket::LookupReply { items }, requester);
    }

    fn compose_advert(&self, world: &World, advert: &EventStream) {
        // Jini has no multicast service advertisement: translate the
        // foreign advert into a registration with the real registrar.
        let Some(registrar) = self.real_registrar() else {
            return;
        };
        if advert.is_byebye() {
            return; // leases expire on their own
        }
        let Some(url) = advert.service_url() else {
            return;
        };
        let service_id = self.service_id_for(url);
        let item = ServiceItem {
            service_id,
            service_type: advert.service_type().unwrap_or_default().to_owned(),
            endpoint: url_to_endpoint(url),
            attributes: advert
                .response_attrs()
                .into_iter()
                .map(|(t, v)| (t.to_owned(), v.to_owned()))
                .collect(),
        };
        let register = JiniPacket::Register { item, lease_secs: self.config.lease_secs };
        self.send_later(world, &register, registrar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::tests::{heard, request, step};
    use indiss_jini::{JiniConfig, LookupService, JINI_ANNOUNCEMENT_GROUP};
    use indiss_net::World;
    use std::net::Ipv4Addr;

    #[test]
    fn announcement_records_real_registrar() {
        let world = World::new(61);
        let indiss_node = world.add_node("indiss");
        let reggie_node = world.add_node("reggie");
        let unit = JiniUnit::new(&indiss_node, JiniUnitConfig::default()).unwrap();
        let _ls = LookupService::start(&reggie_node, JiniConfig::default()).unwrap();
        // The monitor would feed announcements; simulate that feed.
        let dgram = Datagram {
            src: SocketAddrV4::new(reggie_node.addr(), JINI_PORT),
            dst: SocketAddrV4::new(JINI_ANNOUNCEMENT_GROUP, JINI_PORT),
            payload: JiniPacket::Announcement {
                host: reggie_node.addr().to_string(),
                port: JINI_PORT,
                groups: vec!["public".into()],
            }
            .encode(),
        };
        assert_eq!(unit.parse(&world, &dgram), ParsedMessage::Handled);
        assert_eq!(unit.real_registrar(), Some(SocketAddrV4::new(reggie_node.addr(), JINI_PORT)));
    }

    fn send(to: SocketAddrV4, packet: JiniPacket) -> Effect {
        Effect::Send { from: Sock::Unit, to, bytes: packet.encode(), delay: Duration::ZERO }
    }

    fn heard_packet(processes: &mut JiniProcesses, packet: JiniPacket) -> Vec<Effect> {
        step(|fx| processes.on_datagram(Sock::Unit, &heard(packet.encode()), fx))
    }

    /// Starts query 4 with no registrar known: a multicast discovery
    /// request first, and the query's deadline.
    fn started() -> JiniProcesses {
        let mut processes = JiniProcesses::new(JiniUnitConfig::default());
        let fx = step(|fx| processes.start_query(4, &request("clock"), fx));
        let discovery = JiniPacket::DiscoveryRequest { groups: vec!["public".into()] };
        let deadline = Effect::Arm { timer: 4, delay: Duration::from_millis(60) };
        assert_eq!(
            fx,
            [send(SocketAddrV4::new(JINI_REQUEST_GROUP, JINI_PORT), discovery), deadline]
        );
        processes
    }

    fn announcement() -> JiniPacket {
        JiniPacket::Announcement { host: "10.0.0.3".into(), port: JINI_PORT, groups: Vec::new() }
    }

    /// The query process stepped with no `World`: the registrar's
    /// announcement releases the lookup, its reply completes the query,
    /// and a reply or a deadline after that completes nothing. A query
    /// started once the registrar is known looks up at once.
    #[test]
    fn execute_query_discovers_and_looks_up() {
        let mut processes = started();
        let registrar = SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 3), JINI_PORT);
        let lookup = || send(registrar, JiniPacket::Lookup { service_type: "clock".into() });
        assert_eq!(heard_packet(&mut processes, announcement()), [lookup()]);

        let attributes = vec![("name".into(), "Jini Clock".into())];
        let endpoint = "10.0.0.9:4005".into();
        let item =
            ServiceItem { service_id: 7, service_type: "clock".into(), endpoint, attributes };
        let reply = || JiniPacket::LookupReply { items: vec![item.clone()] };
        let fx = heard_packet(&mut processes, reply());
        let [Effect::Complete { id: 4, response }] = &fx[..] else { panic!("{fx:?}") };
        assert_eq!(response.service_url(), Some("jini://10.0.0.9:4005"));
        assert!(response.response_attrs().contains(&("name", "Jini Clock")));
        assert!(heard_packet(&mut processes, reply()).is_empty(), "no second Complete");
        assert!(step(|fx| processes.on_timer(4, fx)).is_empty(), "no second Complete");

        let fx = step(|fx| processes.start_query(5, &request("clock"), fx));
        assert_eq!(fx, [lookup(), Effect::Arm { timer: 5, delay: Duration::from_millis(60) }]);
    }

    /// With no registrar, the window closes on a 404. The closed window
    /// does not withdraw the lookup: a registrar heard later still gets
    /// it, and its reply completes nothing.
    #[test]
    fn execute_query_without_registrar_fails_cleanly() {
        let mut processes = started();
        let fx = step(|fx| processes.on_timer(4, fx));
        let [Effect::Complete { id: 4, response }] = &fx[..] else { panic!("{fx:?}") };
        assert!(response.events().iter().any(|e| matches!(e, Event::ResErr(404))));
        assert!(matches!(&heard_packet(&mut processes, announcement())[..], [Effect::Send { .. }]));
        let reply = JiniPacket::LookupReply { items: Vec::new() };
        assert!(heard_packet(&mut processes, reply).is_empty(), "no second Complete");
    }

    /// A Jini client that took the unit for its registrar: its lookup
    /// comes back as a request, and the reply is composed like any other
    /// request's.
    #[test]
    fn jini_client_lookup_is_bridged() {
        let world = World::new(61);
        let unit = JiniUnit::new(&world.add_node("indiss"), JiniUnitConfig::default()).unwrap();
        let client = world.add_node("jini-client").udp_bind(40000).unwrap();
        let items: indiss_net::Completion<Vec<ServiceItem>> = indiss_net::Completion::new();
        let items2 = items.clone();
        client.on_receive(move |_, d| {
            if let Ok(JiniPacket::LookupReply { items }) = JiniPacket::decode(&d.payload) {
                items2.complete(items);
            }
        });
        let lookup = Datagram {
            src: client.local_addr().unwrap(),
            dst: unit.socket().unwrap().local_addr().unwrap(),
            payload: JiniPacket::Lookup { service_type: "Clock".into() }.encode(),
        };
        let mut fx = Vec::new();
        let parsed = unit.processes().unwrap().on_datagram(Sock::Unit, &lookup, &mut fx);
        let ParsedMessage::Request(request) = parsed else { panic!("a lookup is a request") };
        assert!(fx.is_empty());
        assert_eq!(request.service_type(), Some("clock"));
        assert_eq!(request.source_addr(), Some(lookup.src));

        let response = EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType("clock".into()),
            Event::ResServUrl("soap://10.0.0.2:4005/ctl".into()),
            Event::ResAttr { tag: "friendlyName".into(), value: "Clock".into() },
        ]);
        unit.compose_response(&world, &request, &response);
        world.run_for(Duration::from_secs(1));
        let items = items.take().expect("lookup answered");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].endpoint, "soap://10.0.0.2:4005/ctl");
    }

    #[test]
    fn endpoint_url_mapping_roundtrips() {
        assert_eq!(endpoint_to_url("10.0.0.9:5000"), "jini://10.0.0.9:5000");
        assert_eq!(endpoint_to_url("soap://h:1/x"), "soap://h:1/x");
        assert_eq!(url_to_endpoint("jini://10.0.0.9:5000"), "10.0.0.9:5000");
        assert_eq!(url_to_endpoint("soap://h:1/x"), "soap://h:1/x");
    }
}
