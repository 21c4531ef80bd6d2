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

use std::cell::RefCell;
use std::net::SocketAddrV4;
use std::rc::Rc;
use std::time::Duration;

use indiss_net::{Completion, Datagram, NetResult, Node, UdpSocket, World};
use indiss_ssdp::{
    MSearch, Notify, NotifySubType, SearchResponse, SearchTarget, SsdpMessage,
    SSDP_MULTICAST_GROUP, SSDP_PORT,
};
use indiss_upnp::{DeviceDescription, HttpServer, ServiceDescription};

use crate::event::{Event, EventStream, EventStreamBuilder, ParserKind, SdpProtocol, Symbol};
use crate::fsm::{Fsm, FsmBuilder, Trigger};
use crate::registry::{Projection, RegistryConfig, ServiceRegistry};
use crate::units::{canonical_type_from_target, ParsedMessage, Unit};

/// UPnP unit tuning.
#[derive(Debug, Clone)]
pub struct UpnpUnitConfig {
    /// MX sent in composed M-SEARCHes (0, as in the paper's Fig. 4).
    pub mx: u8,
    /// How long to wait for the first search response.
    pub search_window: Duration,
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
            search_window: Duration::from_millis(100),
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
    canonical: Symbol,
    location: Option<String>,
    usn: Option<Symbol>,
    ttl: Option<u32>,
    attrs: Vec<(String, String)>,
    endpoint: Option<String>,
}

/// Commands the query FSM's actions emit for the unit to execute.
enum QueryCmd {
    /// Fetch the description document (the §2.4 recursive request).
    FetchDescription(String),
    /// The process is complete; build and deliver the response stream.
    Finish,
}

/// One in-flight query process: the coordination FSM, its state
/// variables and a command scratch buffer reused across every stream
/// the session feeds (SSDP first, XML after the parser switch).
struct QuerySession {
    fsm: RefCell<Fsm<QueryVars, QueryCmd>>,
    vars: RefCell<QueryVars>,
    scratch: RefCell<Vec<QueryCmd>>,
}

impl QuerySession {
    fn new(canonical: Symbol) -> QuerySession {
        QuerySession {
            fsm: RefCell::new(query_fsm()),
            vars: RefCell::new(QueryVars { canonical, ..QueryVars::default() }),
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Feeds a stream through the FSM, handing out the scratch buffer
    /// with the emitted commands. The caller drains it and gives the
    /// capacity back via [`QuerySession::recycle`] (commands may
    /// re-enter the session, so it cannot stay borrowed).
    fn feed(&self, stream: &EventStream) -> Vec<QueryCmd> {
        let mut cmds = std::mem::take(&mut *self.scratch.borrow_mut());
        self.fsm.borrow_mut().feed_all(stream.events(), &mut self.vars.borrow_mut(), &mut cmds);
        cmds
    }

    fn recycle(&self, cmds: Vec<QueryCmd>) {
        *self.scratch.borrow_mut() = cmds;
    }
}

/// Builds the UPnP query-side DFA:
///
/// ```text
/// await_search --UpnpDeviceUrlDesc--> fetching --ResServUrl--> done
/// ```
fn query_fsm() -> Fsm<QueryVars, QueryCmd> {
    FsmBuilder::new("await_search")
        .accepting(&["done"])
        // Search response carries the description URL but no endpoint:
        // record it and command the recursive fetch.
        .on(
            "await_search",
            crate::event::EventKind::UpnpDeviceUrlDesc,
            "fetching",
            Rc::new(|vars: &mut QueryVars, e: &Event, out: &mut Vec<QueryCmd>| {
                if let Event::UpnpDeviceUrlDesc(url) = e {
                    vars.location = Some(url.clone());
                    out.push(QueryCmd::FetchDescription(url.clone()));
                }
            }),
        )
        // Record bookkeeping events in either state.
        .tuple(
            "await_search",
            Trigger::Kind(crate::event::EventKind::UpnpUsn),
            None,
            "await_search",
            Some(Rc::new(|vars: &mut QueryVars, e: &Event, _: &mut Vec<QueryCmd>| {
                if let Event::UpnpUsn(u) = e {
                    vars.usn = Some(u.clone());
                }
            })),
        )
        .tuple(
            "await_search",
            Trigger::Kind(crate::event::EventKind::ResTtl),
            None,
            "await_search",
            Some(Rc::new(|vars: &mut QueryVars, e: &Event, _: &mut Vec<QueryCmd>| {
                if let Event::ResTtl(t) = e {
                    vars.ttl = Some(*t);
                }
            })),
        )
        .tuple(
            "fetching",
            Trigger::Kind(crate::event::EventKind::ResAttr),
            None,
            "fetching",
            Some(Rc::new(|vars: &mut QueryVars, e: &Event, _: &mut Vec<QueryCmd>| {
                if let Event::ResAttr { tag, value } = e {
                    vars.attrs.push((tag.to_string(), value.to_string()));
                }
            })),
        )
        // The event the whole process works towards (§2.4).
        .on(
            "fetching",
            crate::event::EventKind::ResServUrl,
            "done",
            Rc::new(|vars: &mut QueryVars, e: &Event, out: &mut Vec<QueryCmd>| {
                if let Event::ResServUrl(u) = e {
                    vars.endpoint = Some(u.clone());
                }
                out.push(QueryCmd::Finish);
            }),
        )
        .build()
}

struct UpnpUnitInner {
    node: Node,
    config: UpnpUnitConfig,
    /// Shared registry: bridged-service projections (location, USN and
    /// the synthetic description document, per canonical type) live
    /// here, not in a private map. The cell is shared with the HTTP
    /// handler so [`Unit::bind_registry`] reaches it too.
    registry: Rc<RefCell<ServiceRegistry>>,
    next_bridge_id: u64,
    loop_filter: Option<Rc<dyn Fn(SocketAddrV4)>>,
    own_sources: Vec<SocketAddrV4>,
}

/// `/bridged/<canonical>/description.xml` → `<canonical>`.
fn canonical_from_description_path(target: &str) -> Option<&str> {
    target.strip_prefix("/bridged/")?.strip_suffix("/description.xml")
}

/// The UPnP unit.
#[derive(Clone)]
pub struct UpnpUnit {
    inner: Rc<RefCell<UpnpUnitInner>>,
    _server: Rc<HttpServer>,
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
            inner: Rc::new(RefCell::new(UpnpUnitInner {
                node: node.clone(),
                config,
                registry,
                next_bridge_id: 1,
                loop_filter: None,
                own_sources: Vec::new(),
            })),
            _server: Rc::new(server),
        })
    }

    /// The currently bound registry handle.
    fn registry(&self) -> ServiceRegistry {
        self.inner.borrow().registry.borrow().clone()
    }

    /// Sets the loop-filter callback: every socket the unit opens reports
    /// its address so the monitor can ignore the unit's own traffic.
    pub fn set_loop_filter(&self, f: Rc<dyn Fn(SocketAddrV4)>) {
        self.inner.borrow_mut().loop_filter = Some(f);
    }

    fn open_session_socket(&self) -> NetResult<UdpSocket> {
        let node = self.inner.borrow().node.clone();
        let socket = node.udp_bind_ephemeral()?;
        if let Ok(addr) = socket.local_addr() {
            let mut inner = self.inner.borrow_mut();
            inner.own_sources.push(addr);
            if let Some(f) = &inner.loop_filter {
                f(addr);
            }
        }
        Ok(socket)
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
        SsdpMessage::Response(resp) => {
            ParsedMessage::Response(UpnpUnit::response_events(&resp, src))
        }
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
        *self.inner.borrow().registry.borrow_mut() = registry.clone();
    }

    fn parse(&self, _world: &World, dgram: &Datagram) -> ParsedMessage {
        decode_ssdp_wire(&dgram.payload, dgram.src)
    }

    fn execute_query(&self, world: &World, request: &EventStream, reply: Completion<EventStream>) {
        let Some(canonical) = request.service_type_symbol() else {
            reply.complete(EventStream::framed(vec![Event::ServiceResponse, Event::ResErr(2)]));
            return;
        };
        let Ok(socket) = self.open_session_socket() else {
            reply.complete(EventStream::framed(vec![Event::ServiceResponse, Event::ResErr(500)]));
            return;
        };
        let (mx, deadline, parse_delay) = {
            let inner = self.inner.borrow();
            (inner.config.mx, inner.config.process_deadline, inner.config.parse_delay)
        };

        let session = Rc::new(QuerySession::new(canonical.clone()));

        let this = self.clone();
        let reply_for_events = reply.clone();
        let session2 = Rc::clone(&session);
        let socket_for_handler = socket.clone();
        socket.on_receive(move |world, dgram| {
            let Ok(SsdpMessage::Response(resp)) = SsdpMessage::parse(&dgram.payload) else {
                return;
            };
            let stream = UpnpUnit::response_events(&resp, dgram.src);
            let mut cmds = session2.feed(&stream);
            for cmd in cmds.drain(..) {
                match cmd {
                    QueryCmd::FetchDescription(url) => {
                        this.run_description_fetch(
                            world,
                            &url,
                            parse_delay,
                            Rc::clone(&session2),
                            reply_for_events.clone(),
                        );
                    }
                    QueryCmd::Finish => {
                        finish(&session2.vars.borrow(), &reply_for_events);
                    }
                }
            }
            session2.recycle(cmds);
            let _ = &socket_for_handler;
        });

        // Compose and send the M-SEARCH (Fig. 4 step 1's output).
        let target = SearchTarget::device_urn(canonical.as_str(), 1);
        let wire = MSearch::new(target, mx).to_bytes();
        let translation_delay = self.inner.borrow().config.translation_delay;
        let send_socket = socket.clone();
        world.schedule_in(translation_delay, move |_| {
            let _ = send_socket.send_to(&wire, SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT));
        });

        // Process deadline: fail the bridge if the FSM never accepted.
        let reply_deadline = reply.clone();
        let session3 = Rc::clone(&session);
        let socket_close = socket.clone();
        world.schedule_in(deadline, move |_| {
            socket_close.close();
            if !session3.fsm.borrow().is_accepting() {
                reply_deadline.complete(EventStream::framed(vec![
                    Event::NetType(SdpProtocol::Upnp),
                    Event::ServiceResponse,
                    Event::ResErr(404),
                ]));
            }
        });
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
        let ttl = response
            .events()
            .iter()
            .find_map(|e| match e {
                Event::ResTtl(t) => Some(*t),
                _ => None,
            })
            .unwrap_or(1800);

        let (location, usn) =
            self.ensure_bridged(canonical.as_str(), &endpoint, response.response_attrs());
        let ssdp_response = SearchResponse {
            st: st_text.parse().unwrap_or(SearchTarget::Custom(st_text)),
            usn,
            location,
            server: self.inner.borrow().config.server_banner.clone(),
            max_age: ttl,
        };
        let Ok(socket) = self.open_session_socket() else {
            return;
        };
        let delay = self.inner.borrow().config.translation_delay;
        world.schedule_in(delay, move |_| {
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
            server: self.inner.borrow().config.server_banner.clone(),
            max_age: 1800,
        };
        let Ok(socket) = self.open_session_socket() else {
            return;
        };
        let delay = self.inner.borrow().config.translation_delay;
        world.schedule_in(delay, move |_| {
            let _ = socket
                .send_to(&notify.to_bytes(), SocketAddrV4::new(SSDP_MULTICAST_GROUP, SSDP_PORT));
            socket.close();
        });
    }

    fn own_sources(&self) -> Vec<SocketAddrV4> {
        self.inner.borrow().own_sources.clone()
    }

    /// A UPnP `NOTIFY` only points at the description document; fetch it
    /// so the advert carries the endpoint and attributes other SDPs need.
    fn enrich_advert(&self, world: &World, advert: &EventStream, done: Completion<EventStream>) {
        if advert.service_url().is_some() || advert.is_byebye() {
            done.complete(advert.clone());
            return;
        }
        let location = advert.events().iter().find_map(|e| match e {
            Event::UpnpDeviceUrlDesc(url) => Some(url.clone()),
            _ => None,
        });
        let Some(location) = location else {
            done.complete(advert.clone());
            return;
        };
        let node = self.inner.borrow().node.clone();
        let parse_delay = self.inner.borrow().config.parse_delay;
        let base = advert.clone();
        let fetched = indiss_upnp::http_get(&node, &location);
        let world2 = world.clone();
        fetched.subscribe(move |resp| {
            let desc = resp
                .filter(|r| r.is_success())
                .and_then(|r| String::from_utf8(r.body).ok())
                .and_then(|xml| DeviceDescription::from_xml(&xml).ok());
            let Some(desc) = desc else {
                done.complete(base);
                return;
            };
            world2.schedule_in(parse_delay, move |_| {
                done.complete(enrich_advert_with_description(&base, &desc, &location));
            });
        });
    }
}

impl UpnpUnit {
    /// Runs the recursive description fetch (§2.4): GET the description,
    /// model the XML parse cost, feed the resulting events to the FSM.
    fn run_description_fetch(
        &self,
        world: &World,
        url: &str,
        parse_delay: Duration,
        session: Rc<QuerySession>,
        reply: Completion<EventStream>,
    ) {
        let node = self.inner.borrow().node.clone();
        let fetched = indiss_upnp::http_get(&node, url);
        let world2 = world.clone();
        let url2 = url.to_owned();
        fetched.subscribe(move |resp| {
            let Some(resp) = resp.filter(|r| r.is_success()) else {
                reply.complete(EventStream::framed(vec![
                    Event::NetType(SdpProtocol::Upnp),
                    Event::ServiceResponse,
                    Event::ResErr(502),
                ]));
                return;
            };
            let Some(desc) = String::from_utf8(resp.body)
                .ok()
                .and_then(|xml| DeviceDescription::from_xml(&xml).ok())
            else {
                reply.complete(EventStream::framed(vec![
                    Event::NetType(SdpProtocol::Upnp),
                    Event::ServiceResponse,
                    Event::ResErr(500),
                ]));
                return;
            };
            // Model the XML parse cost, then feed the XML-side events.
            world2.schedule_in(parse_delay, move |_| {
                let stream = UpnpUnit::description_events(&desc, &url2);
                let mut cmds = session.feed(&stream);
                for cmd in cmds.drain(..) {
                    if matches!(cmd, QueryCmd::Finish) {
                        finish(&session.vars.borrow(), &reply);
                    }
                }
                session.recycle(cmds);
            });
        });
    }

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
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_bridge_id;
        inner.next_bridge_id += 1;
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
            manufacturer_url: String::new(),
            model_description: format!("bridged from {endpoint}"),
            model_name: canonical.to_owned(),
            model_number: "1.0".to_owned(),
            model_url: String::new(),
            udn: format!("uuid:indiss-bridged-{id}"),
            services: vec![ServiceDescription {
                service_type: format!("urn:schemas-upnp-org:service:{canonical}:1"),
                service_id: format!("urn:upnp-org:serviceId:{canonical}"),
                // Absolute: points at the real foreign endpoint.
                control_url: endpoint.to_owned(),
                event_sub_url: String::new(),
                scpd_url: String::new(),
            }],
        };
        let location = format!("http://{}:{}{}", inner.node.addr(), inner.config.bridge_port, path);
        let usn = format!("uuid:indiss-bridged-{id}::urn:schemas-upnp-org:device:{canonical}:1");
        drop(inner);
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

/// Builds the final response event stream from the session variables and
/// completes the bridge reply.
fn finish(vars: &QueryVars, reply: &Completion<EventStream>) {
    let mut body = vec![
        Event::NetType(SdpProtocol::Upnp),
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType(vars.canonical.clone()),
    ];
    if let Some(usn) = vars.usn.clone() {
        body.push(Event::UpnpUsn(usn));
    }
    body.push(Event::ResTtl(vars.ttl.unwrap_or(1800)));
    for (tag, value) in &vars.attrs {
        body.push(Event::ResAttr { tag: tag.as_str().into(), value: value.as_str().into() });
    }
    if let Some(endpoint) = &vars.endpoint {
        body.push(Event::ResServUrl(endpoint.clone()));
    }
    reply.complete(EventStream::framed(body));
}

#[cfg(test)]
mod tests {
    use super::*;
    use indiss_upnp::{ClockDevice, UpnpConfig};

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

    /// The full §2.4 process: M-SEARCH → response → recursive GET →
    /// XML parse → `SDP_RES_SERV_URL`.
    #[test]
    fn execute_query_fetches_description_recursively() {
        let (world, _node, unit) = unit_world();
        let device_node = world.add_node("clock-device");
        let _clock = ClockDevice::start(&device_node, UpnpConfig::default()).unwrap();
        world.run_for(Duration::from_millis(10));

        let request =
            EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType("clock".into())]);
        let reply: Completion<EventStream> = Completion::new();
        unit.execute_query(&world, &request, reply.clone());
        world.run_for(Duration::from_secs(2));
        let response = reply.take().expect("process completed");
        assert!(response.is_response());
        let url = response.service_url().expect("endpoint found");
        assert!(
            url.starts_with("soap://") && url.ends_with("/service/timer/control"),
            "expected the paper's soap control URL shape, got {url}"
        );
        let attrs = response.response_attrs();
        assert!(
            attrs.contains(&("friendlyName", "CyberGarage Clock Device")),
            "description attributes extracted: {attrs:?}"
        );
    }

    #[test]
    fn execute_query_times_out_cleanly() {
        let (world, _node, unit) = unit_world();
        let request =
            EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType("toaster".into())]);
        let reply: Completion<EventStream> = Completion::new();
        unit.execute_query(&world, &request, reply.clone());
        world.run_for(Duration::from_secs(2));
        let response = reply.take().expect("deadline fired");
        assert!(response.events().iter().any(|e| matches!(e, Event::ResErr(404))));
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
