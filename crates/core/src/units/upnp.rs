//! The UPnP unit: SSDP/HTTP/XML parsers + SSDP composer + the §2.4
//! coordination FSM.
//!
//! This unit is the paper's showcase. Translating *to* UPnP is a
//! multi-round native process: the SSDP search response only carries a
//! description URL (`SDP_DEVICE_URL_DESC`), not the service endpoint the
//! foreign client needs (`SDP_RES_SERV_URL`), so the unit "recursively
//! generate[s] additional requests to the remote service until it
//! receives the expected event" — an HTTP GET of `description.xml`,
//! switching its parser from SSDP to XML (`SDP_C_PARSER_SWITCH`).
//!
//! Translating *from* UPnP requires the reverse trick: a UPnP client
//! expects a description *document*, so the unit synthesizes one for each
//! bridged foreign service and serves it from its own HTTP endpoint.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashMap;
use std::net::SocketAddrV4;
use std::rc::Rc;
use std::time::Duration;

use indiss_net::{Datagram, NetResult, Node, UdpSocket, World};
use indiss_ssdp::{
    MSearch, Notify, NotifySubType, SearchResponse, SearchTarget, SsdpMessage,
    SSDP_MULTICAST_GROUP, SSDP_PORT,
};
use indiss_upnp::{DeviceDescription, HttpServer, ServiceDescription};

use crate::event::{
    Event, EventKind, EventStream, EventStreamBuilder, ParserKind, SdpProtocol, Symbol,
};
use crate::fsm::{Fsm, FsmBuilder};
use crate::registry::{Projection, RegistryConfig, ServiceRegistry};
use crate::units::{
    canonical_type_from_target, error_stream, Effect, ParsedMessage, Processes, Sock, Unit,
};

/// UPnP unit tuning.
#[derive(Debug, Clone)]
pub struct UpnpUnitConfig {
    /// MX sent in composed M-SEARCHes (0, as in the paper's Fig. 4).
    pub mx: u8,
    /// Overall deadline for the whole query process (search + fetch).
    pub process_deadline: Duration,
    /// TCP port of the synthetic-description server.
    pub bridge_port: u16,
    /// Simulated XML parse cost (client side of the description fetch).
    pub parse_delay: Duration,
    /// Event-layer translation cost per composed message.
    pub translation_delay: Duration,
    /// `SERVER:` banner on composed SSDP messages.
    pub server_banner: String,
}

impl Default for UpnpUnitConfig {
    fn default() -> Self {
        UpnpUnitConfig {
            mx: 0,
            process_deadline: Duration::from_millis(400),
            bridge_port: 4104,
            parse_delay: Duration::from_millis(2),
            translation_delay: Duration::from_micros(150),
            server_banner: "UPnP/1.0 INDISS/0.1".to_owned(),
        }
    }
}

/// State variables of one query session (the paper's "events data from
/// previous states are recorded using state variables").
#[derive(Default)]
struct QueryVars {
    id: u64,
    canonical: Symbol,
    location: Option<String>,
    usn: Option<Symbol>,
    ttl: Option<u32>,
    attrs: Vec<(String, String)>,
    /// Set once the process emitted its `Complete`.
    done: bool,
}

impl QueryVars {
    /// The final response stream, carrying the endpoint `url`.
    fn response(&self, url: &str) -> EventStream {
        let mut body = vec![
            Event::NetType(SdpProtocol::Upnp),
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType(self.canonical.clone()),
        ];
        if let Some(usn) = self.usn.clone() {
            body.push(Event::UpnpUsn(usn));
        }
        body.push(Event::ResTtl(self.ttl.unwrap_or(1800)));
        for (tag, value) in &self.attrs {
            body.push(Event::ResAttr { tag: tag.as_str().into(), value: value.as_str().into() });
        }
        body.push(Event::ResServUrl(url.to_owned()));
        EventStream::framed(body)
    }
}

/// Builds the UPnP query-side DFA, whose actions emit the process's
/// effects:
///
/// ```text
/// await_search --UpnpDeviceUrlDesc--> fetching --ResServUrl--> done
///               (fetch the description)          (complete)
/// ```
fn query_fsm() -> Fsm<QueryVars, Effect> {
    FsmBuilder::new("await_search")
        .accepting(&["done"])
        // Search response carries the description URL but no endpoint:
        // record it and command the recursive fetch.
        .on(
            "await_search",
            EventKind::UpnpDeviceUrlDesc,
            "fetching",
            Rc::new(|vars: &mut QueryVars, e: &Event, out: &mut Vec<Effect>| {
                if let Event::UpnpDeviceUrlDesc(url) = e {
                    vars.location = Some(url.clone());
                    out.push(Effect::Fetch { id: vars.id, url: url.clone() });
                }
            }),
        )
        // Record bookkeeping events in either state.
        .on(
            "await_search",
            EventKind::UpnpUsn,
            "await_search",
            Rc::new(|vars: &mut QueryVars, e: &Event, _: &mut Vec<Effect>| {
                if let Event::UpnpUsn(u) = e {
                    vars.usn = Some(u.clone());
                }
            }),
        )
        .on(
            "await_search",
            EventKind::ResTtl,
            "await_search",
            Rc::new(|vars: &mut QueryVars, e: &Event, _: &mut Vec<Effect>| {
                if let Event::ResTtl(t) = e {
                    vars.ttl = Some(*t);
                }
            }),
        )
        .on(
            "fetching",
            EventKind::ResAttr,
            "fetching",
            Rc::new(|vars: &mut QueryVars, e: &Event, _: &mut Vec<Effect>| {
                if let Event::ResAttr { tag, value } = e {
                    vars.attrs.push((tag.to_string(), value.to_string()));
                }
            }),
        )
        // The event the whole process works towards (§2.4).
        .on(
            "fetching",
            EventKind::ResServUrl,
            "done",
            Rc::new(|vars: &mut QueryVars, e: &Event, out: &mut Vec<Effect>| {
                if let Event::ResServUrl(url) = e {
                    vars.done = true;
                    out.push(Effect::Complete { id: vars.id, response: vars.response(url) });
                }
            }),
        )
        .build()
}

/// One in-flight UPnP process.
enum Process {
    /// A foreign query's §2.4 session: the coordination FSM and its
    /// variables, fed SSDP first and XML after the parser switch.
    Query(Fsm<QueryVars, Effect>, QueryVars),
    /// An advert waiting for the description its `NOTIFY` points at.
    Enrich(EventStream, String),
}

/// The UPnP unit's processes, sans I/O. A query opens a session socket,
/// multicasts an `M-SEARCH` from it and arms the process deadline; the
/// first search response's description URL is fetched, and once the
/// modelled XML parse cost is paid the description's events finish the
/// FSM. The deadline closes the session and, if nothing completed the
/// query yet, completes it with a 404. An enrichment is the same fetch
/// and parse. Timer keys: `2·id` is a query's deadline, `2·id + 1` the
/// end of process `id`'s parse.
pub(crate) struct UpnpProcesses {
    config: UpnpUnitConfig,
    processes: HashMap<u64, (Process, Option<DeviceDescription>)>,
}

impl Processes for UpnpProcesses {
    fn start_query(&mut self, id: u64, request: &EventStream, fx: &mut Vec<Effect>) {
        let Some(canonical) = request.service_type_symbol() else {
            fx.push(Effect::Complete { id, response: error_stream(SdpProtocol::Upnp, 2) });
            return;
        };
        // Compose the M-SEARCH (Fig. 4 step 1's output).
        let c = &self.config;
        let bytes = MSearch::new(SearchTarget::device_urn(canonical.as_str(), 1), c.mx).to_bytes();
        let to = SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT);
        fx.push(Effect::Open(id));
        fx.push(Effect::Send { from: Sock::Session(id), to, bytes, delay: c.translation_delay });
        fx.push(Effect::Arm { timer: 2 * id, delay: c.process_deadline });
        let vars = QueryVars { id, canonical, ..QueryVars::default() };
        self.processes.insert(id, (Process::Query(query_fsm(), vars), None));
    }

    /// A `NOTIFY` only points at the description document; fetch it so
    /// the advert carries the endpoint and attributes other SDPs need.
    fn start_enrich(&mut self, id: u64, advert: &EventStream, fx: &mut Vec<Effect>) {
        let location = advert.events().iter().find_map(|e| match e {
            Event::UpnpDeviceUrlDesc(url) => Some(url),
            _ => None,
        });
        let location = location.filter(|_| advert.service_url().is_none() && !advert.is_byebye());
        let Some(location) = location else {
            fx.push(Effect::Complete { id, response: advert.clone() });
            return;
        };
        fx.push(Effect::Fetch { id, url: location.clone() });
        self.processes.insert(id, (Process::Enrich(advert.clone(), location.clone()), None));
    }

    /// A search response at query `id`'s session socket.
    fn on_datagram(&mut self, from: Sock, dgram: &Datagram, fx: &mut Vec<Effect>) -> ParsedMessage {
        let Sock::Session(id) = from else { return ParsedMessage::NotRelevant };
        let Ok(SsdpMessage::Response(resp)) = SsdpMessage::parse(&dgram.payload) else {
            return ParsedMessage::NotRelevant;
        };
        if let Some((Process::Query(fsm, vars), _)) = self.processes.get_mut(&id) {
            fsm.feed_all(response_events(&resp, dgram.src).events(), vars, fx);
        }
        ParsedMessage::Handled
    }

    /// The §2.4 recursive request's answer: a description starts the
    /// modelled parse cost; a failed GET (`502`) or an unparsable
    /// document (`500`) fails a query and leaves an advert as it was.
    fn on_fetched(&mut self, id: u64, document: Option<Vec<u8>>, fx: &mut Vec<Effect>) {
        let parsed = document.map(|body| {
            String::from_utf8(body).ok().and_then(|xml| DeviceDescription::from_xml(&xml).ok())
        });
        match (parsed, self.processes.get_mut(&id)) {
            (Some(Some(desc)), process) => {
                if let Some((_, description)) = process {
                    *description = Some(desc);
                }
                fx.push(Effect::Arm { timer: 2 * id + 1, delay: self.config.parse_delay });
            }
            (failed, Some((Process::Query(_, vars), _))) if !vars.done => {
                vars.done = true;
                let code = if failed.is_none() { 502 } else { 500 };
                fx.push(Effect::Complete { id, response: error_stream(SdpProtocol::Upnp, code) });
            }
            (_, Some((Process::Enrich(..), _))) => {
                if let Some((Process::Enrich(advert, _), _)) = self.processes.remove(&id) {
                    fx.push(Effect::Complete { id, response: advert });
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: u64, fx: &mut Vec<Effect>) {
        let id = timer / 2;
        if timer.is_multiple_of(2) {
            // The process deadline: close the session; a query nothing
            // completed fails the bridge.
            if let Some((Process::Query(_, vars), _)) = self.processes.remove(&id) {
                fx.push(Effect::Close(id));
                if !vars.done {
                    fx.push(Effect::Complete {
                        id,
                        response: error_stream(SdpProtocol::Upnp, 404),
                    });
                }
            }
            return;
        }
        // The parse cost is paid: feed the XML-side events.
        let Some((process, Some(desc))) = self.processes.get_mut(&id).map(|(p, d)| (p, d.take()))
        else {
            return;
        };
        match process {
            Process::Query(fsm, vars) => {
                let events =
                    description_events(&desc, vars.location.as_deref().unwrap_or_default());
                fsm.feed_all(events.events(), vars, fx);
            }
            Process::Enrich(advert, location) => {
                let response = enrich_advert_with_description(advert, &desc, location);
                self.processes.remove(&id);
                fx.push(Effect::Complete { id, response });
            }
        }
    }
}

/// `/bridged/<canonical>/description.xml` → `<canonical>`.
fn canonical_from_description_path(target: &str) -> Option<&str> {
    target.strip_prefix("/bridged/")?.strip_suffix("/description.xml")
}

type LoopFilter = Rc<dyn Fn(SocketAddrV4)>;

/// The UPnP unit.
pub struct UpnpUnit {
    node: Node,
    config: UpnpUnitConfig,
    processes: RefCell<UpnpProcesses>,
    /// Shared registry: bridged-service projections (location, USN and
    /// the synthetic description document, per canonical type) live
    /// here, not in a private map. The cell is shared with the HTTP
    /// handler so [`Unit::bind_registry`] reaches it too.
    registry: Rc<RefCell<ServiceRegistry>>,
    next_bridge_id: Cell<u64>,
    loop_filter: RefCell<Option<LoopFilter>>,
    _server: HttpServer,
}

impl UpnpUnit {
    /// Creates the unit on `node`, starting its synthetic-description
    /// HTTP server on `config.bridge_port`.
    ///
    /// # Errors
    ///
    /// Network errors from the server bind.
    pub fn new(node: &Node, config: UpnpUnitConfig) -> NetResult<UpnpUnit> {
        let registry = Rc::new(RefCell::new(ServiceRegistry::new(RegistryConfig::default())));
        let serve_registry = Rc::clone(&registry);
        let server = HttpServer::start(
            node,
            config.bridge_port,
            // Serving a synthetic description is INDISS code, not the
            // sluggish native stack: keep it at the translation cost.
            config.translation_delay,
            Rc::new(move |_, req| {
                // Descriptions are served straight from the registry's
                // projections, so they stay bounded by its LRU.
                let document = canonical_from_description_path(&req.target).and_then(|c| {
                    let registry = serve_registry.borrow().clone();
                    registry.projection(SdpProtocol::Upnp, c).and_then(|p| p.document)
                });
                match document {
                    Some(xml) => {
                        let mut resp = indiss_http::Response::ok();
                        resp.headers.insert("Content-Type", "text/xml");
                        resp.body = xml.into_bytes();
                        resp
                    }
                    None => indiss_http::Response::new(404),
                }
            }),
        )?;
        Ok(UpnpUnit {
            node: node.clone(),
            processes: RefCell::new(UpnpProcesses {
                config: config.clone(),
                processes: HashMap::new(),
            }),
            config,
            registry,
            next_bridge_id: Cell::new(1),
            loop_filter: RefCell::new(None),
            _server: server,
        })
    }

    /// The currently bound registry handle.
    fn registry(&self) -> ServiceRegistry {
        self.registry.borrow().clone()
    }

    /// Sets the loop-filter callback: every socket the unit opens reports
    /// its address so the monitor can ignore the unit's own traffic.
    pub fn set_loop_filter(&self, f: Rc<dyn Fn(SocketAddrV4)>) {
        *self.loop_filter.borrow_mut() = Some(f);
    }

    fn open_session_socket(&self) -> NetResult<UdpSocket> {
        let socket = self.node.udp_bind_ephemeral()?;
        if let (Ok(addr), Some(f)) = (socket.local_addr(), &*self.loop_filter.borrow()) {
            f(addr);
        }
        Ok(socket)
    }
}

/// Parses an SSDP search response into events (§2.4 step 2's list).
fn response_events(resp: &SearchResponse, src: SocketAddrV4) -> EventStream {
    let mut body = EventStreamBuilder::with_capacity(9);
    body.push(Event::NetType(SdpProtocol::Upnp));
    body.push(Event::NetUnicast);
    body.push(Event::NetSourceAddr(src));
    body.push(Event::ServiceResponse);
    if let Some(t) = canonical_type_from_target(&resp.st) {
        body.push(Event::ServiceType(t));
    }
    body.push(Event::UpnpUsn(resp.usn.as_str().into()));
    body.push(Event::UpnpServer(resp.server.clone()));
    body.push(Event::ResTtl(resp.max_age));
    body.push(Event::UpnpDeviceUrlDesc(resp.location.clone()));
    body.build()
}

/// Parses a fetched description into the XML-side events: the stream
/// opens with `SDP_C_PARSER_SWITCH` (the SSDP parser handed over) and
/// works towards `SDP_RES_SERV_URL`.
fn description_events(desc: &DeviceDescription, location: &str) -> EventStream {
    let mut body = EventStreamBuilder::new();
    body.push(Event::SocketSwitch);
    body.push(Event::ParserSwitch(ParserKind::Xml));
    push_description_attrs(desc, &mut body);
    body.push(Event::ResOk);
    body.push(Event::ResServUrl(description_endpoint(desc, location)));
    body.build()
}

/// The stateless SSDP parser table: one raw datagram → events. Both
/// [`UpnpUnit::parse`] and the wire front-end's
/// [`crate::netfront::NetDriver`] go through this single function, so
/// the simulated and the real-socket pipelines translate UPnP traffic
/// identically by construction.
pub(crate) fn decode_ssdp_wire(payload: &[u8], src: SocketAddrV4) -> ParsedMessage {
    let Ok(msg) = SsdpMessage::parse(payload) else {
        return ParsedMessage::NotRelevant;
    };
    match msg {
        SsdpMessage::MSearch(search) => {
            let Some(canonical) = canonical_type_from_target(&search.st) else {
                return ParsedMessage::NotRelevant; // ssdp:all etc: not bridged
            };
            let body = vec![
                Event::NetType(SdpProtocol::Upnp),
                Event::NetMulticast,
                Event::NetSourceAddr(src),
                Event::ServiceRequest,
                Event::UpnpMx(search.mx),
                Event::UpnpSt(search.st.to_string().into()),
                Event::ServiceType(canonical),
            ];
            ParsedMessage::Request(EventStream::framed(body))
        }
        SsdpMessage::Notify(n) => {
            let Some(canonical) = canonical_type_from_target(&n.nt) else {
                return ParsedMessage::Handled; // rootdevice/uuid NTs: redundant
            };
            let mut body = vec![
                Event::NetType(SdpProtocol::Upnp),
                Event::NetMulticast,
                Event::NetSourceAddr(src),
                match n.nts {
                    NotifySubType::Alive | NotifySubType::Update => Event::ServiceAlive,
                    NotifySubType::ByeBye => Event::ServiceByeBye,
                },
                Event::ServiceType(canonical),
                Event::UpnpUsn(n.usn.as_str().into()),
                Event::ResTtl(n.max_age),
            ];
            if let Some(loc) = &n.location {
                body.push(Event::UpnpDeviceUrlDesc(loc.clone()));
            }
            ParsedMessage::Advert(EventStream::framed(body))
        }
        SsdpMessage::Response(resp) => ParsedMessage::Response(response_events(&resp, src)),
    }
}

/// Derives the advert stream a fetched description enriches `advert`
/// into: the original advert's body plus the description's attributes,
/// `SDP_RES_OK` and the control-URL endpoint — the §2.4 recursive
/// process as a pure function over an already-fetched document, shared
/// by the simulated unit and the wire front-end's description fetcher.
pub(crate) fn enrich_advert_with_description(
    advert: &EventStream,
    desc: &DeviceDescription,
    location: &str,
) -> EventStream {
    let mut body = advert.to_builder();
    body.push(Event::ParserSwitch(ParserKind::Xml));
    push_description_attrs(desc, &mut body);
    body.push(Event::ResServUrl(description_endpoint(desc, location)));
    body.build()
}

/// Pushes one `ResAttr` per non-empty description attribute, copying
/// each value once, into its event.
fn push_description_attrs(desc: &DeviceDescription, body: &mut EventStreamBuilder) {
    for (tag, value) in desc.attributes() {
        if !value.is_empty() {
            body.push(Event::ResAttr { tag: tag.into(), value: value.into() });
        }
    }
}

/// The endpoint a description yields: the first service's control URL,
/// made absolute against the description host, with the soap:// scheme
/// the paper's Fig. 4 SrvRply shows.
fn description_endpoint(desc: &DeviceDescription, location: &str) -> String {
    desc.services
        .first()
        .map(|s| absolute_control_url(location, &s.control_url))
        .unwrap_or_else(|| location.replace("http://", "soap://"))
}

/// `http://10.0.0.2:4004/description.xml` + `/service/timer/control` →
/// `soap://10.0.0.2:4004/service/timer/control`.
fn absolute_control_url(location: &str, control: &str) -> String {
    if control.starts_with("http://") {
        return control.replacen("http://", "soap://", 1);
    }
    if control.starts_with("soap://") {
        return control.to_owned();
    }
    let host = location
        .strip_prefix("http://")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or_default();
    format!("soap://{host}{control}")
}

impl Unit for UpnpUnit {
    fn protocol(&self) -> SdpProtocol {
        SdpProtocol::Upnp
    }

    fn bind_registry(&self, registry: &ServiceRegistry) {
        *self.registry.borrow_mut() = registry.clone();
    }

    fn parse(&self, _world: &World, dgram: &Datagram) -> ParsedMessage {
        decode_ssdp_wire(&dgram.payload, dgram.src)
    }

    fn processes(&self) -> Option<RefMut<'_, dyn Processes>> {
        Some(self.processes.borrow_mut())
    }

    fn compose_response(&self, world: &World, request: &EventStream, response: &EventStream) {
        let Some(endpoint) = response.service_url().map(str::to_owned) else {
            return; // nothing found: silent, as native devices are
        };
        let Some(requester) = request.source_addr() else {
            return;
        };
        let Some(canonical) = request.service_type_symbol() else {
            return;
        };
        let st_text = request
            .events()
            .iter()
            .find_map(|e| match e {
                Event::UpnpSt(st) => Some(st.as_str().to_owned()),
                _ => None,
            })
            .unwrap_or_else(|| format!("urn:schemas-upnp-org:device:{canonical}:1"));
        let ttl = response.ttl().unwrap_or(1800);

        let (location, usn) =
            self.ensure_bridged(canonical.as_str(), &endpoint, response.response_attrs());
        let ssdp_response = SearchResponse {
            st: st_text.parse().unwrap_or(SearchTarget::Custom(st_text)),
            usn,
            location,
            server: self.config.server_banner.clone(),
            max_age: ttl,
        };
        let Ok(socket) = self.open_session_socket() else {
            return;
        };
        world.schedule_in(self.config.translation_delay, move |_| {
            let _ = socket.send_to(&ssdp_response.to_bytes(), requester);
            socket.close();
        });
    }

    fn compose_advert(&self, world: &World, advert: &EventStream) {
        let Some(canonical) = advert.service_type().map(str::to_owned) else {
            return;
        };
        let nts = if advert.is_byebye() { NotifySubType::ByeBye } else { NotifySubType::Alive };
        let (location, usn) = if nts == NotifySubType::ByeBye {
            match self
                .registry()
                .projection(SdpProtocol::Upnp, &canonical)
                .and_then(|p| Some((p.location?, p.usn?)))
            {
                Some((location, usn)) => (Some(location), usn),
                None => return, // never advertised: nothing to retract
            }
        } else {
            let Some(endpoint) = advert.service_url().map(str::to_owned) else {
                return;
            };
            let (l, u) = self.ensure_bridged(&canonical, &endpoint, advert.response_attrs());
            (Some(l), u)
        };
        let notify = Notify {
            nt: SearchTarget::device_urn(&canonical, 1),
            nts,
            usn,
            location: if nts == NotifySubType::ByeBye { None } else { location },
            server: self.config.server_banner.clone(),
            max_age: 1800,
        };
        let Ok(socket) = self.open_session_socket() else {
            return;
        };
        world.schedule_in(self.config.translation_delay, move |_| {
            let _ = socket
                .send_to(&notify.to_bytes(), SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT));
            socket.close();
        });
    }
}

impl UpnpUnit {
    /// Registers (or reuses) a synthetic description for a bridged
    /// foreign service; returns `(location, usn)`. The projection —
    /// including the description document served over HTTP — lives in
    /// the shared registry, so re-bridging the same canonical type from
    /// any path reuses one description, and the documents are bounded by
    /// the projection store instead of growing without limit.
    fn ensure_bridged(
        &self,
        canonical: &str,
        endpoint: &str,
        attrs: Vec<(&str, &str)>,
    ) -> (String, String) {
        let registry = self.registry();
        if let Some((location, usn)) = registry
            .projection(SdpProtocol::Upnp, canonical)
            .and_then(|p| Some((p.location?, p.usn?)))
        {
            return (location, usn);
        }
        let id = self.next_bridge_id.get();
        self.next_bridge_id.set(id + 1);
        // Keyed by canonical type: re-minting after a projection
        // eviction reuses the same path rather than minting a new one.
        let path = format!("/bridged/{canonical}/description.xml");
        let friendly = attrs
            .iter()
            .find(|(t, _)| t.eq_ignore_ascii_case("friendlyName"))
            .map(|(_, v)| (*v).to_owned())
            .unwrap_or_else(|| format!("Bridged {canonical} service"));
        let description = DeviceDescription {
            device_type: format!("urn:schemas-upnp-org:device:{canonical}:1"),
            friendly_name: friendly,
            manufacturer: "INDISS bridge".to_owned(),
            model_description: format!("bridged from {endpoint}"),
            model_name: canonical.to_owned(),
            model_number: "1.0".to_owned(),
            udn: format!("uuid:indiss-bridged-{id}"),
            services: vec![ServiceDescription {
                service_type: format!("urn:schemas-upnp-org:service:{canonical}:1"),
                service_id: format!("urn:upnp-org:serviceId:{canonical}"),
                // Absolute: points at the real foreign endpoint.
                control_url: endpoint.to_owned(),
                ..ServiceDescription::default()
            }],
            ..DeviceDescription::default()
        };
        let location = format!("http://{}:{}{}", self.node.addr(), self.config.bridge_port, path);
        let usn = format!("uuid:indiss-bridged-{id}::urn:schemas-upnp-org:device:{canonical}:1");
        registry.set_projection(
            SdpProtocol::Upnp,
            canonical,
            Projection {
                location: Some(location.clone()),
                usn: Some(usn.clone()),
                document: Some(description.to_xml()),
                attrs: attrs.iter().map(|(t, v)| ((*t).to_owned(), (*v).to_owned())).collect(),
                service_id: None,
            },
        );
        (location, usn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::tests::{heard, request, step};
    use indiss_net::Completion;

    fn unit_world() -> (World, Node, UpnpUnit) {
        let world = World::new(51);
        let node = world.add_node("indiss");
        let unit = UpnpUnit::new(&node, UpnpUnitConfig::default()).unwrap();
        (world, node, unit)
    }

    #[test]
    fn msearch_parses_to_request_events() {
        let (world, _node, unit) = unit_world();
        let dgram = Datagram {
            src: "10.0.0.7:40001".parse().unwrap(),
            dst: SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT),
            payload: MSearch::new(SearchTarget::device_urn("clock", 1), 0).to_bytes(),
        };
        let ParsedMessage::Request(stream) = unit.parse(&world, &dgram) else {
            panic!("expected request");
        };
        assert!(stream.is_request());
        assert_eq!(stream.service_type(), Some("clock"));
        assert!(stream.names().any(|n| n == "SDP_UPNP_ST"));
    }

    #[test]
    fn ssdp_all_is_not_bridged() {
        let (world, _node, unit) = unit_world();
        let dgram = Datagram {
            src: "10.0.0.7:40001".parse().unwrap(),
            dst: SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT),
            payload: MSearch::new(SearchTarget::All, 0).to_bytes(),
        };
        assert_eq!(unit.parse(&world, &dgram), ParsedMessage::NotRelevant);
    }

    #[test]
    fn notify_alive_parses_to_advert() {
        let (world, _node, unit) = unit_world();
        let notify = Notify {
            nt: SearchTarget::device_urn("clock", 1),
            nts: NotifySubType::Alive,
            usn: "uuid:c::urn".into(),
            location: Some("http://10.0.0.2:4004/description.xml".into()),
            server: "x".into(),
            max_age: 1800,
        };
        let dgram = Datagram {
            src: "10.0.0.2:1900".parse().unwrap(),
            dst: SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT),
            payload: notify.to_bytes(),
        };
        let ParsedMessage::Advert(stream) = unit.parse(&world, &dgram) else {
            panic!("expected advert");
        };
        assert!(stream.is_alive());
        assert_eq!(stream.service_type(), Some("clock"));
    }

    fn clock_description() -> Vec<u8> {
        let services = vec![ServiceDescription::conventional("timer", 1)];
        let name = "CyberGarage Clock Device".into();
        DeviceDescription { friendly_name: name, services, ..DeviceDescription::default() }
            .to_xml()
            .into_bytes()
    }

    /// Starts query 3: its session opened, the M-SEARCH sent from it
    /// once the translation cost is paid, the process deadline armed.
    fn started() -> UpnpProcesses {
        let config = UpnpUnitConfig::default();
        let mut processes = UpnpProcesses { config, processes: HashMap::new() };
        let fx = step(|fx| processes.start_query(3, &request("clock"), fx));
        let [Effect::Open(3), Effect::Send { from: Sock::Session(3), to, bytes, delay }, Effect::Arm { timer: 6, delay: deadline }] =
            &fx[..]
        else {
            panic!("session, M-SEARCH, deadline: {fx:?}");
        };
        assert_eq!(*to, SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT));
        assert_eq!((*delay, *deadline), (Duration::from_micros(150), Duration::from_millis(400)));
        let Ok(SsdpMessage::MSearch(search)) = SsdpMessage::parse(bytes) else { panic!() };
        assert_eq!(search.st, SearchTarget::device_urn("clock", 1));
        processes
    }

    /// The full §2.4 process stepped with no `World`: M-SEARCH →
    /// response → recursive GET → XML parse cost → `SDP_RES_SERV_URL`.
    /// A second response, and the deadline after completion, only close
    /// the session.
    #[test]
    fn execute_query_fetches_description_recursively() {
        let mut processes = started();
        let location = "http://10.0.0.2:4004/description.xml";
        let search_response = heard(
            SearchResponse {
                st: SearchTarget::device_urn("clock", 1),
                usn: "uuid:clock::urn:schemas-upnp-org:device:clock:1".into(),
                location: location.into(),
                server: "x".into(),
                max_age: 1800,
            }
            .to_bytes(),
        );
        let fx = step(|fx| processes.on_datagram(Sock::Session(3), &search_response, fx));
        assert_eq!(fx, [Effect::Fetch { id: 3, url: location.into() }]);
        let fx = step(|fx| processes.on_fetched(3, Some(clock_description()), fx));
        assert_eq!(fx, [Effect::Arm { timer: 7, delay: Duration::from_millis(2) }]);
        let fx = step(|fx| processes.on_timer(7, fx));
        let [Effect::Complete { id: 3, response }] = &fx[..] else { panic!("{fx:?}") };
        assert_eq!(response.service_url(), Some("soap://10.0.0.2:4004/service/timer/control"));
        let attrs = response.response_attrs();
        assert!(attrs.contains(&("friendlyName", "CyberGarage Clock Device")), "{attrs:?}");
        let late = step(|fx| {
            processes.on_datagram(Sock::Session(3), &search_response, fx);
            processes.on_timer(6, fx);
        });
        assert_eq!(late, [Effect::Close(3)], "no second Complete");
    }

    #[test]
    fn execute_query_times_out_cleanly() {
        let mut processes = started();
        let fx = step(|fx| processes.on_timer(6, fx));
        let [Effect::Close(3), Effect::Complete { id: 3, response }] = &fx[..] else {
            panic!("{fx:?}")
        };
        assert!(response.events().iter().any(|e| matches!(e, Event::ResErr(404))));
        // A description arriving late still pays its parse cost, but
        // completes nothing; neither does a failed fetch.
        let late = step(|fx| {
            processes.on_fetched(3, Some(clock_description()), fx);
            processes.on_fetched(3, None, fx);
            processes.on_timer(7, fx);
        });
        assert_eq!(late, [Effect::Arm { timer: 7, delay: Duration::from_millis(2) }]);
    }

    #[test]
    fn compose_response_serves_synthetic_description() {
        let (world, node, unit) = unit_world();
        let client_node = world.add_node("upnp-client");
        let listen = client_node.udp_bind(40001).unwrap();
        let got: Completion<Vec<u8>> = Completion::new();
        let got2 = got.clone();
        listen.on_receive(move |_, d| got2.complete(d.payload));

        let request = EventStream::framed(vec![
            Event::NetSourceAddr(SocketAddrV4::new(client_node.addr(), 40001)),
            Event::ServiceRequest,
            Event::UpnpSt("urn:schemas-upnp-org:device:printer:1".into()),
            Event::ServiceType("printer".into()),
        ]);
        let response = EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ResTtl(1800),
            Event::ResServUrl("service:printer:lpr://10.0.0.9:515".into()),
            Event::ResAttr { tag: "friendlyName".into(), value: "Office Printer".into() },
        ]);
        unit.compose_response(&world, &request, &response);
        world.run_for(Duration::from_secs(1));
        let wire = got.take().expect("SSDP response delivered");
        let SsdpMessage::Response(resp) = SsdpMessage::parse(&wire).unwrap() else {
            panic!("expected response");
        };
        assert_eq!(resp.st.to_string(), "urn:schemas-upnp-org:device:printer:1");

        // And the LOCATION must be fetchable, yielding the synthetic doc.
        let fetched = indiss_upnp::http_get(&client_node, &resp.location);
        world.run_for(Duration::from_secs(1));
        let body = fetched.take().unwrap().expect("description served").body;
        let desc = DeviceDescription::from_xml(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(desc.friendly_name, "Office Printer");
        assert_eq!(desc.services[0].control_url, "service:printer:lpr://10.0.0.9:515");
        let _ = node;
    }

    #[test]
    fn compose_advert_notifies_alive_and_byebye() {
        let (world, _node, unit) = unit_world();
        let listener_node = world.add_node("listener");
        let sock = listener_node.udp_bind(SSDP_PORT).unwrap();
        sock.join_multicast(SSDP_MULTICAST_GROUP).unwrap();
        let seen: indiss_net::Collector<SsdpMessage> = indiss_net::Collector::new();
        let seen2 = seen.clone();
        sock.on_receive(move |_, d| {
            if let Ok(m) = SsdpMessage::parse(&d.payload) {
                seen2.push(m);
            }
        });
        let alive = EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType("clock".into()),
            Event::ResServUrl("service:clock://10.0.0.9".into()),
        ]);
        unit.compose_advert(&world, &alive);
        world.run_for(Duration::from_secs(1));
        let bye =
            EventStream::framed(vec![Event::ServiceByeBye, Event::ServiceType("clock".into())]);
        unit.compose_advert(&world, &bye);
        world.run_for(Duration::from_secs(1));
        let messages = seen.snapshot();
        assert_eq!(messages.len(), 2);
        assert!(matches!(&messages[0], SsdpMessage::Notify(n) if n.nts == NotifySubType::Alive));
        assert!(matches!(&messages[1], SsdpMessage::Notify(n) if n.nts == NotifySubType::ByeBye));
    }

    #[test]
    fn control_url_resolution() {
        assert_eq!(
            absolute_control_url("http://10.0.0.2:4004/description.xml", "/service/timer/control"),
            "soap://10.0.0.2:4004/service/timer/control"
        );
        assert_eq!(
            absolute_control_url("http://h:1/d.xml", "http://other:2/ctl"),
            "soap://other:2/ctl"
        );
    }
}
