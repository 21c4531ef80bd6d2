//! Descriptor-driven SDP units: a new discovery protocol from data, not
//! Rust (paper §3).
//!
//! The paper's `System SDP = { Component Unit SLP(port=427); … }` names
//! units declaratively; this module is the mechanism that makes the
//! declaration sufficient. An [`SdpDescriptor`] captures everything a
//! line-oriented discovery protocol needs to be bridged:
//!
//! * the monitor's detection tag — scan **port** plus **multicast
//!   group** — registered process-wide as a [`ProtocolId`];
//! * a **parser table**: message templates (`"DNSSD Q PTR
//!   _{type}._tcp.local"`) whose `{field}` placeholders map captured
//!   wire text straight onto Table-1 events (`SDP_SERVICE_TYPE`,
//!   `SDP_RES_SERV_URL`, `SDP_RES_TTL`);
//! * **composer templates**: the same patterns rendered in the reverse
//!   direction, events → native message.
//!
//! [`DescriptorUnit`] interprets a descriptor as a full [`Unit`]: it
//! parses foreign-bound requests and adverts, executes native query
//! processes on behalf of other SDPs, and composes native responses and
//! advertisements — so a fourth (fifth, …) protocol participates in
//! bridging, the registry, the response/negative caches and the
//! statistics without a line of protocol-specific Rust.
//!
//! [`DescriptorService`] and [`DescriptorClient`] are native peers
//! generated from the same descriptor — the "unmodified application"
//! role the interop tests and benchmarks need for a protocol that has no
//! hand-written stack.

use std::cell::{RefCell, RefMut};
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;
use std::time::Duration;

use indiss_net::{Completion, Datagram, NetResult, Node, UdpSocket, World};

use crate::error::{CoreError, CoreResult};
use crate::event::{Event, EventStream, EventStreamBuilder, ProtocolId, SdpProtocol, Symbol};
use crate::units::{error_stream, Effect, ParsedMessage, Processes, Sock, Unit};

// ---------------------------------------------------------------------
// Templates: the parser table rows / composer templates
// ---------------------------------------------------------------------

/// The fields a message template can capture (parsing) or substitute
/// (composing). Each maps onto exactly one Table-1 event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    /// `{type}` → `SDP_SERVICE_TYPE` (canonicalized to lowercase).
    Type,
    /// `{url}` → `SDP_RES_SERV_URL`.
    Url,
    /// `{ttl}` → `SDP_RES_TTL` (decimal seconds).
    Ttl,
}

impl Field {
    fn from_name(name: &str) -> Option<Field> {
        match name {
            "type" => Some(Field::Type),
            "url" => Some(Field::Url),
            "ttl" => Some(Field::Ttl),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Part {
    Literal(String),
    Field(Field),
}

/// Field values captured from (or rendered into) one message line.
#[derive(Debug, Clone, Default, PartialEq)]
struct Captures {
    ty: Option<String>,
    url: Option<String>,
    ttl: Option<u32>,
}

/// One line-oriented message template: literal text with `{type}`,
/// `{url}` and `{ttl}` placeholders. Used in both directions — matching
/// a wire line captures the fields, rendering substitutes them.
#[derive(Debug, Clone, PartialEq)]
struct Template {
    raw: String,
    parts: Vec<Part>,
}

impl Template {
    fn compile(raw: &str) -> CoreResult<Template> {
        let syntax = |msg: String| CoreError::ConfigSyntax(format!("template {raw:?}: {msg}"));
        if raw.trim().is_empty() {
            return Err(syntax("must not be empty".to_owned()));
        }
        let mut parts = Vec::new();
        let mut rest = raw;
        while let Some(open) = rest.find('{') {
            let close = rest[open..]
                .find('}')
                .map(|i| open + i)
                .ok_or_else(|| syntax("unclosed '{'".to_owned()))?;
            if open > 0 {
                parts.push(Part::Literal(rest[..open].to_owned()));
            }
            let name = &rest[open + 1..close];
            let field = Field::from_name(name)
                .ok_or_else(|| syntax(format!("unknown field {{{name}}} (type, url, ttl)")))?;
            if matches!(parts.last(), Some(Part::Field(_))) {
                return Err(syntax("two adjacent fields are ambiguous to parse".to_owned()));
            }
            parts.push(Part::Field(field));
            rest = &rest[close + 1..];
        }
        if !rest.is_empty() {
            parts.push(Part::Literal(rest.to_owned()));
        }
        Ok(Template { raw: raw.to_owned(), parts })
    }

    fn has_field(&self, field: Field) -> bool {
        self.parts.iter().any(|p| matches!(p, Part::Field(f) if *f == field))
    }

    /// Matches `line` against the template; a full match yields the
    /// captured fields, any mismatch (including a non-numeric `{ttl}`)
    /// yields `None`.
    fn capture(&self, line: &str) -> Option<Captures> {
        let mut caps = Captures::default();
        let mut rest = line;
        let mut parts = self.parts.iter().peekable();
        while let Some(part) = parts.next() {
            match part {
                Part::Literal(lit) => rest = rest.strip_prefix(lit.as_str())?,
                Part::Field(field) => {
                    let value = match parts.peek() {
                        Some(Part::Literal(lit)) => {
                            let at = rest.find(lit.as_str())?;
                            let (value, tail) = rest.split_at(at);
                            rest = tail;
                            value
                        }
                        _ => std::mem::take(&mut rest),
                    };
                    if value.is_empty() {
                        return None;
                    }
                    match field {
                        Field::Type => caps.ty = Some(value.to_owned()),
                        Field::Url => caps.url = Some(value.to_owned()),
                        Field::Ttl => caps.ttl = Some(value.parse().ok()?),
                    }
                }
            }
        }
        rest.is_empty().then_some(caps)
    }

    /// Renders the template with the given field values; `None` when a
    /// placeholder has no value to substitute.
    fn render(&self, ty: Option<&str>, url: Option<&str>, ttl: u32) -> Option<String> {
        let mut out = Vec::with_capacity(self.raw.len() + 32);
        self.render_into(&mut out, ty, url, ttl)?;
        Some(String::from_utf8(out).expect("rendered from str parts"))
    }

    /// [`Template::render`], appended to `out`.
    fn render_into(
        &self,
        out: &mut Vec<u8>,
        ty: Option<&str>,
        url: Option<&str>,
        ttl: u32,
    ) -> Option<()> {
        for part in &self.parts {
            match part {
                Part::Literal(lit) => out.extend_from_slice(lit.as_bytes()),
                Part::Field(Field::Type) => out.extend_from_slice(ty?.as_bytes()),
                Part::Field(Field::Url) => out.extend_from_slice(url?.as_bytes()),
                Part::Field(Field::Ttl) => write!(out, "{ttl}").ok()?,
            }
        }
        Some(())
    }
}

// ---------------------------------------------------------------------
// The descriptor
// ---------------------------------------------------------------------

/// A declarative description of a line-oriented discovery protocol,
/// sufficient for [`DescriptorUnit`] to bridge it (paper §3).
///
/// Build one with [`SdpDescriptor::define`] or write it in the textual
/// `System SDP = { … }` config language
/// ([`crate::IndissConfig::from_system_sdp`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SdpDescriptor {
    id: ProtocolId,
    query: Template,
    answer: Template,
    alive: Option<Template>,
    byebye: Option<Template>,
    default_ttl: u32,
    query_window: Duration,
    translation_delay: Duration,
}

/// Accumulates an [`SdpDescriptor`]; see [`SdpDescriptor::define`].
#[derive(Debug, Clone)]
pub struct SdpDescriptorBuilder {
    name: String,
    port: u16,
    group: Ipv4Addr,
    query: Option<String>,
    answer: Option<String>,
    alive: Option<String>,
    byebye: Option<String>,
    default_ttl: u32,
    query_window: Duration,
    translation_delay: Duration,
}

impl SdpDescriptorBuilder {
    /// The request template (required; must contain `{type}` and, since
    /// queries carry no endpoint, must not contain `{url}`).
    pub fn query(mut self, template: &str) -> Self {
        self.query = Some(template.to_owned());
        self
    }

    /// The response template (required; must contain `{type}` and
    /// `{url}`).
    pub fn answer(mut self, template: &str) -> Self {
        self.answer = Some(template.to_owned());
        self
    }

    /// The alive-advertisement template (optional; must contain `{type}`
    /// and `{url}` when given).
    pub fn alive(mut self, template: &str) -> Self {
        self.alive = Some(template.to_owned());
        self
    }

    /// The byebye-advertisement template (optional; must contain
    /// `{type}` when given).
    pub fn byebye(mut self, template: &str) -> Self {
        self.byebye = Some(template.to_owned());
        self
    }

    /// Default TTL (seconds) for answers and adverts whose template
    /// carries no `{ttl}` field, and for parsed messages without one.
    pub fn ttl(mut self, seconds: u32) -> Self {
        self.default_ttl = seconds;
        self
    }

    /// How long a bridged native query waits for answers.
    pub fn query_window(mut self, window: Duration) -> Self {
        self.query_window = window;
        self
    }

    /// Event-layer translation cost applied before composed sends.
    pub fn translation_delay(mut self, delay: Duration) -> Self {
        self.translation_delay = delay;
        self
    }

    /// Validates the templates and registers the protocol's detection
    /// tag, yielding the descriptor.
    ///
    /// # Errors
    ///
    /// [`CoreError::ConfigSyntax`] for malformed templates,
    /// [`CoreError::BadConfig`] for missing/inconsistent templates or a
    /// name/port conflict with an already-registered protocol.
    pub fn build(self) -> CoreResult<SdpDescriptor> {
        let query = Template::compile(
            self.query
                .as_deref()
                .ok_or(CoreError::BadConfig("descriptor needs a Query template"))?,
        )?;
        let answer = Template::compile(
            self.answer
                .as_deref()
                .ok_or(CoreError::BadConfig("descriptor needs an Answer template"))?,
        )?;
        if !query.has_field(Field::Type) || query.has_field(Field::Url) {
            return Err(CoreError::BadConfig(
                "Query template must capture {type} and cannot carry {url}",
            ));
        }
        if !answer.has_field(Field::Type) || !answer.has_field(Field::Url) {
            return Err(CoreError::BadConfig("Answer template must carry {type} and {url}"));
        }
        let alive = self.alive.as_deref().map(Template::compile).transpose()?;
        if let Some(t) = &alive {
            if !t.has_field(Field::Type) || !t.has_field(Field::Url) {
                return Err(CoreError::BadConfig("Alive template must carry {type} and {url}"));
            }
        }
        let byebye = self.byebye.as_deref().map(Template::compile).transpose()?;
        if let Some(t) = &byebye {
            if !t.has_field(Field::Type) {
                return Err(CoreError::BadConfig("ByeBye template must carry {type}"));
            }
        }
        let id = ProtocolId::register(&self.name, self.port, &[self.group])?;
        Ok(SdpDescriptor {
            id,
            query,
            answer,
            alive,
            byebye,
            default_ttl: self.default_ttl,
            query_window: self.query_window,
            translation_delay: self.translation_delay,
        })
    }
}

impl SdpDescriptor {
    /// Starts describing a protocol named `name`, detected on `port`
    /// within the multicast `group`.
    pub fn define(name: &str, port: u16, group: Ipv4Addr) -> SdpDescriptorBuilder {
        SdpDescriptorBuilder {
            name: name.to_owned(),
            port,
            group,
            query: None,
            answer: None,
            alive: None,
            byebye: None,
            default_ttl: 120,
            query_window: Duration::from_millis(20),
            translation_delay: Duration::from_micros(150),
        }
    }

    /// The canonical demonstration descriptor: a DNS-SD-flavoured
    /// protocol (mDNS port 5353, group 224.0.0.251, PTR/SRV-shaped
    /// one-line records). Used by the examples, the interop matrix and
    /// the request-storm benchmark as the fourth SDP.
    pub fn dns_sd() -> SdpDescriptor {
        SdpDescriptor::define("DNS-SD", 5353, Ipv4Addr::new(224, 0, 0, 251))
            .query("DNSSD Q PTR _{type}._tcp.local")
            .answer("DNSSD A PTR _{type}._tcp.local SRV {url} TTL {ttl}")
            .alive("DNSSD ANNOUNCE _{type}._tcp.local SRV {url} TTL {ttl}")
            .byebye("DNSSD GOODBYE _{type}._tcp.local SRV {url}")
            .ttl(120)
            .build()
            .expect("canonical DNS-SD descriptor is valid")
    }

    /// The registered protocol identity.
    pub fn protocol_id(&self) -> ProtocolId {
        self.id
    }

    /// This descriptor as an [`SdpProtocol`] (always
    /// [`SdpProtocol::Dynamic`]).
    pub fn protocol(&self) -> SdpProtocol {
        SdpProtocol::Dynamic(self.id)
    }

    /// The protocol's name.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// The scan port the monitor detects the protocol on.
    pub fn port(&self) -> u16 {
        self.id.port()
    }

    /// The protocol's multicast group.
    pub fn group(&self) -> Ipv4Addr {
        self.id.multicast_groups()[0]
    }

    fn multicast_addr(&self) -> SocketAddrV4 {
        SocketAddrV4::new(self.group(), self.port())
    }

    /// First line of a datagram payload, if it is text.
    fn message_line(payload: &[u8]) -> Option<&str> {
        std::str::from_utf8(payload).ok()?.lines().next().map(str::trim_end)
    }

    /// The stateless parser table of this descriptor: one raw payload →
    /// events, first matching row wins (request → alive → byebye →
    /// answer). Both [`DescriptorUnit::parse`] and the wire front-end's
    /// [`crate::netfront::NetDriver`] go through this single function,
    /// so simulated and real-socket pipelines translate identically by
    /// construction.
    pub(crate) fn decode_wire(
        &self,
        payload: &[u8],
        src: SocketAddrV4,
        multicast: bool,
    ) -> ParsedMessage {
        let Some(line) = SdpDescriptor::message_line(payload) else {
            return ParsedMessage::NotRelevant;
        };
        if let Some(caps) = self.query.capture(line) {
            if let Some(ty) = caps.ty {
                let mut body = EventStreamBuilder::with_capacity(5);
                body.push(Event::NetType(self.protocol()))
                    .push(if multicast { Event::NetMulticast } else { Event::NetUnicast })
                    .push(Event::NetSourceAddr(src))
                    .push(Event::ServiceRequest)
                    .push(Event::ServiceType(Symbol::intern_lowercase(&ty)));
                return ParsedMessage::Request(body.build());
            }
        }
        for (template, alive) in [(self.alive.as_ref(), true), (self.byebye.as_ref(), false)] {
            let Some(caps) = template.and_then(|t| t.capture(line)) else {
                continue;
            };
            let Some(ty) = caps.ty else { continue };
            let mut body = EventStreamBuilder::with_capacity(7);
            body.push(Event::NetType(self.protocol()))
                .push(Event::NetMulticast)
                .push(Event::NetSourceAddr(src))
                .push(if alive { Event::ServiceAlive } else { Event::ServiceByeBye })
                .push(Event::ServiceType(Symbol::intern_lowercase(&ty)));
            if let Some(url) = caps.url {
                body.push(Event::ResServUrl(url));
            }
            if alive {
                body.push(Event::ResTtl(caps.ttl.unwrap_or(self.default_ttl)));
            }
            return ParsedMessage::Advert(body.build());
        }
        if let Some(caps) = self.answer.capture(line) {
            if let (Some(ty), Some(url)) = (caps.ty, caps.url) {
                let mut body = EventStreamBuilder::with_capacity(6);
                body.push(Event::NetType(self.protocol()))
                    .push(Event::ServiceResponse)
                    .push(Event::ResOk)
                    .push(Event::ServiceType(Symbol::intern_lowercase(&ty)))
                    .push(Event::ResTtl(caps.ttl.unwrap_or(self.default_ttl)))
                    .push(Event::ResServUrl(url));
                return ParsedMessage::Response(body.build());
            }
        }
        ParsedMessage::NotRelevant
    }

    /// Writes the answer line for `request` carrying `response`'s
    /// endpoint into `out`, returning the requester to send it to. Pure:
    /// the composer half [`DescriptorUnit::compose_response`] and the
    /// wire front-end share.
    pub(crate) fn compose_answer_into(
        &self,
        request: &EventStream,
        response: &EventStream,
        out: &mut Vec<u8>,
    ) -> Option<SocketAddrV4> {
        let url = response.service_url()?;
        let requester = request.source_addr()?;
        let canonical = request.service_type()?;
        let ttl = response.ttl().unwrap_or(self.default_ttl);
        self.answer.render_into(out, Some(canonical), Some(url), ttl)?;
        Some(requester)
    }
}

// ---------------------------------------------------------------------
// The unit
// ---------------------------------------------------------------------

struct PendingQuery {
    id: u64,
    canonical: Symbol,
}

/// A descriptor unit's query process, sans I/O: one multicast query
/// line, then every pending query for the answered type completes with
/// the first answer line — or with a 404 when its window closes. The
/// process id is also the deadline's timer key.
pub(crate) struct DescriptorProcesses {
    descriptor: SdpDescriptor,
    pending: Vec<PendingQuery>,
}

impl DescriptorProcesses {
    pub(crate) fn new(descriptor: SdpDescriptor) -> DescriptorProcesses {
        DescriptorProcesses { descriptor, pending: Vec::new() }
    }
}

impl Processes for DescriptorProcesses {
    fn start_query(&mut self, id: u64, request: &EventStream, fx: &mut Vec<Effect>) {
        let d = &self.descriptor;
        let line = request
            .service_type_symbol()
            .and_then(|c| Some((d.query.render(Some(&c), None, d.default_ttl)?, c)));
        let Some((line, canonical)) = line else {
            fx.push(Effect::Complete { id, response: error_stream(d.protocol(), 2) });
            return;
        };
        fx.push(Effect::Send {
            from: Sock::Unit,
            to: d.multicast_addr(),
            bytes: line.into_bytes(),
            delay: Duration::ZERO,
        });
        fx.push(Effect::Arm { timer: id, delay: d.query_window + Duration::from_millis(5) });
        self.pending.push(PendingQuery { id, canonical });
    }

    /// An answer at the unit's socket completes every pending query for
    /// its canonical type. The line goes through the same parser-table
    /// row as monitor-path answers ([`Unit::parse`]'s `Response` branch).
    fn on_datagram(&mut self, _: Sock, dgram: &Datagram, fx: &mut Vec<Effect>) -> ParsedMessage {
        let ParsedMessage::Response(response) =
            self.descriptor.decode_wire(&dgram.payload, dgram.src, dgram.is_multicast())
        else {
            return ParsedMessage::NotRelevant;
        };
        let Some(canonical) = response.service_type_symbol() else {
            return ParsedMessage::Handled;
        };
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].canonical == canonical {
                let id = self.pending.swap_remove(i).id;
                fx.push(Effect::Complete { id, response: response.clone() });
            } else {
                i += 1;
            }
        }
        ParsedMessage::Handled
    }

    /// The window closed: a query nothing answered fails the bridge.
    fn on_timer(&mut self, id: u64, fx: &mut Vec<Effect>) {
        if let Some(at) = self.pending.iter().position(|p| p.id == id) {
            self.pending.swap_remove(at);
            fx.push(Effect::Complete {
                id,
                response: error_stream(self.descriptor.protocol(), 404),
            });
        }
    }
}

/// A [`Unit`] interpreted from an [`SdpDescriptor`]: the open-world
/// counterpart of the hand-written SLP/UPnP/Jini units.
pub struct DescriptorUnit {
    descriptor: SdpDescriptor,
    socket: UdpSocket,
    processes: RefCell<DescriptorProcesses>,
}

impl DescriptorUnit {
    /// Creates the unit on `node` with its own ephemeral socket (used
    /// for native queries it executes and responses it composes).
    ///
    /// # Errors
    ///
    /// Network errors from the socket bind.
    pub fn new(node: &Node, descriptor: SdpDescriptor) -> NetResult<DescriptorUnit> {
        Ok(DescriptorUnit {
            socket: node.udp_bind_ephemeral()?,
            processes: RefCell::new(DescriptorProcesses::new(descriptor.clone())),
            descriptor,
        })
    }

    /// The descriptor this unit interprets.
    pub fn descriptor(&self) -> SdpDescriptor {
        self.descriptor.clone()
    }
}

impl Unit for DescriptorUnit {
    fn protocol(&self) -> SdpProtocol {
        self.descriptor.protocol()
    }

    fn parse(&self, _world: &World, dgram: &Datagram) -> ParsedMessage {
        self.descriptor.decode_wire(&dgram.payload, dgram.src, dgram.is_multicast())
    }

    fn socket(&self) -> Option<UdpSocket> {
        Some(self.socket.clone())
    }

    fn processes(&self) -> Option<RefMut<'_, dyn Processes>> {
        Some(self.processes.borrow_mut())
    }

    fn compose_response(&self, world: &World, request: &EventStream, response: &EventStream) {
        // Nothing found (or an uncomposable stream): silence, like the
        // multicast SDPs.
        let mut wire = Vec::new();
        let Some(requester) = self.descriptor.compose_answer_into(request, response, &mut wire)
        else {
            return;
        };
        let socket = self.socket.clone();
        world.schedule_in(self.descriptor.translation_delay, move |_| {
            let _ = socket.send_to(&wire, requester);
        });
    }

    fn compose_advert(&self, world: &World, advert: &EventStream) {
        let d = &self.descriptor;
        let template = if advert.is_byebye() { d.byebye.as_ref() } else { d.alive.as_ref() };
        // No advert vocabulary, or nothing to fill the template with.
        let ttl = advert.ttl().unwrap_or(d.default_ttl);
        let Some(line) = template
            .and_then(|t| t.render(Some(advert.service_type()?), advert.service_url(), ttl))
        else {
            return;
        };
        let (socket, dst) = (self.socket.clone(), d.multicast_addr());
        world.schedule_in(d.translation_delay, move |_| {
            let _ = socket.send_to(line.as_bytes(), dst);
        });
    }
}

// ---------------------------------------------------------------------
// Native peers generated from the descriptor
// ---------------------------------------------------------------------

/// A native service speaking a descriptor-defined protocol: announces
/// registered services and answers matching queries. The "unmodified
/// application" on the service side.
#[derive(Clone)]
pub struct DescriptorService {
    inner: Rc<RefCell<DescriptorServiceInner>>,
}

struct DescriptorServiceInner {
    descriptor: SdpDescriptor,
    socket: UdpSocket,
    registrations: Vec<(Symbol, String)>,
}

impl DescriptorService {
    /// Starts the service on `node`: binds the protocol's shared port and
    /// joins its multicast group.
    ///
    /// # Errors
    ///
    /// Network errors from binding or joining.
    pub fn start(node: &Node, descriptor: SdpDescriptor) -> NetResult<DescriptorService> {
        let socket = node.udp_bind_shared(descriptor.port())?;
        socket.join_multicast(descriptor.group())?;
        let service = DescriptorService {
            inner: Rc::new(RefCell::new(DescriptorServiceInner {
                descriptor,
                socket: socket.clone(),
                registrations: Vec::new(),
            })),
        };
        let this = service.clone();
        socket.on_receive(move |_, dgram| this.handle(&dgram));
        Ok(service)
    }

    /// Registers a service endpoint and multicasts its alive
    /// advertisement (when the protocol has an alive vocabulary).
    pub fn register(&self, service_type: &str, url: &str) {
        let canonical = Symbol::intern_lowercase(service_type);
        self.inner.borrow_mut().registrations.push((canonical.clone(), url.to_owned()));
        let inner = self.inner.borrow();
        if let Some(alive) = &inner.descriptor.alive {
            if let Some(line) =
                alive.render(Some(&canonical), Some(url), inner.descriptor.default_ttl)
            {
                let _ = inner.socket.send_to(line.as_bytes(), inner.descriptor.multicast_addr());
            }
        }
    }

    /// Deregisters an endpoint and multicasts its byebye (when the
    /// protocol has one).
    pub fn deregister(&self, service_type: &str, url: &str) {
        let canonical = Symbol::intern_lowercase(service_type);
        let mut inner = self.inner.borrow_mut();
        inner.registrations.retain(|(t, u)| !(*t == canonical && u == url));
        if let Some(byebye) = &inner.descriptor.byebye {
            if let Some(line) =
                byebye.render(Some(&canonical), Some(url), inner.descriptor.default_ttl)
            {
                let _ = inner.socket.send_to(line.as_bytes(), inner.descriptor.multicast_addr());
            }
        }
    }

    /// The service's own source address (for loop filtering in tests).
    pub fn local_addr(&self) -> Option<SocketAddrV4> {
        self.inner.borrow().socket.local_addr().ok()
    }

    fn handle(&self, dgram: &Datagram) {
        let inner = self.inner.borrow();
        let Some(line) = SdpDescriptor::message_line(&dgram.payload) else {
            return;
        };
        let Some(caps) = inner.descriptor.query.capture(line) else {
            return;
        };
        let Some(ty) = caps.ty else { return };
        let canonical = Symbol::intern_lowercase(&ty);
        for (registered, url) in &inner.registrations {
            if *registered != canonical {
                continue;
            }
            if let Some(answer) = inner.descriptor.answer.render(
                Some(&canonical),
                Some(url),
                inner.descriptor.default_ttl,
            ) {
                let _ = inner.socket.send_to(answer.as_bytes(), dgram.src);
            }
        }
    }
}

/// A native client speaking a descriptor-defined protocol: multicasts
/// queries and collects unicast answers. The "unmodified application" on
/// the client side.
#[derive(Clone)]
pub struct DescriptorClient {
    inner: Rc<RefCell<DescriptorClientInner>>,
}

struct ClientPending {
    token: u64,
    canonical: Symbol,
    first: Completion<String>,
    urls: Rc<RefCell<Vec<String>>>,
}

struct DescriptorClientInner {
    descriptor: SdpDescriptor,
    socket: UdpSocket,
    response_window: Duration,
    pending: Vec<ClientPending>,
    next_token: u64,
}

impl DescriptorClient {
    /// Starts the client on `node` with its own ephemeral socket.
    ///
    /// # Errors
    ///
    /// Network errors from the socket bind.
    pub fn start(node: &Node, descriptor: SdpDescriptor) -> NetResult<DescriptorClient> {
        let socket = node.udp_bind_ephemeral()?;
        let client = DescriptorClient {
            inner: Rc::new(RefCell::new(DescriptorClientInner {
                descriptor,
                socket: socket.clone(),
                response_window: Duration::from_secs(1),
                pending: Vec::new(),
                next_token: 1,
            })),
        };
        let this = client.clone();
        socket.on_receive(move |_, dgram| this.handle(&dgram));
        Ok(client)
    }

    /// Changes how long a query collects answers before completing.
    pub fn set_response_window(&self, window: Duration) {
        self.inner.borrow_mut().response_window = window;
    }

    /// Multicasts a query for `service_type`. The first completion fires
    /// on the first answer's URL; the second completes with every URL
    /// collected when the response window closes.
    pub fn query(
        &self,
        world: &World,
        service_type: &str,
    ) -> (Completion<String>, Completion<Vec<String>>) {
        let first: Completion<String> = Completion::new();
        let done: Completion<Vec<String>> = Completion::new();
        let urls: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let canonical = Symbol::intern_lowercase(service_type);
        let (wire, dst, window, token) = {
            let mut inner = self.inner.borrow_mut();
            let Some(line) =
                inner.descriptor.query.render(Some(&canonical), None, inner.descriptor.default_ttl)
            else {
                done.complete(Vec::new());
                return (first, done);
            };
            let token = inner.next_token;
            inner.next_token += 1;
            inner.pending.push(ClientPending {
                token,
                canonical,
                first: first.clone(),
                urls: Rc::clone(&urls),
            });
            (line.into_bytes(), inner.descriptor.multicast_addr(), inner.response_window, token)
        };
        let socket = self.inner.borrow().socket.clone();
        let _ = socket.send_to(&wire, dst);
        let this = self.clone();
        let done2 = done.clone();
        world.schedule_in(window, move |_| {
            this.inner.borrow_mut().pending.retain(|p| p.token != token);
            done2.complete(urls.borrow().clone());
        });
        (first, done)
    }

    fn handle(&self, dgram: &Datagram) {
        // Collect the completions under the borrow, fire them after:
        // completion subscribers run synchronously and may re-enter the
        // client (e.g. issuing the next query from a `first` callback).
        let (url, to_notify) = {
            let inner = self.inner.borrow();
            let Some(line) = SdpDescriptor::message_line(&dgram.payload) else {
                return;
            };
            let Some(caps) = inner.descriptor.answer.capture(line) else {
                return;
            };
            let (Some(ty), Some(url)) = (caps.ty, caps.url) else {
                return;
            };
            let canonical = Symbol::intern_lowercase(&ty);
            let to_notify: Vec<_> = inner
                .pending
                .iter()
                .filter(|p| p.canonical == canonical)
                .map(|p| (p.first.clone(), Rc::clone(&p.urls)))
                .collect();
            (url, to_notify)
        };
        for (first, urls) in to_notify {
            urls.borrow_mut().push(url.clone());
            first.complete(url.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::tests::{heard, request, step};

    fn test_descriptor(tag: &str, port: u16) -> SdpDescriptor {
        SdpDescriptor::define(tag, port, Ipv4Addr::new(239, 7, 7, 7))
            .query("TQ {type}")
            .answer("TA {type} {url} ttl={ttl}")
            .alive("TALIVE {type} {url} ttl={ttl}")
            .byebye("TBYE {type} {url}")
            .ttl(90)
            .build()
            .expect("valid test descriptor")
    }

    #[test]
    fn template_round_trips_fields() {
        let t = Template::compile("A PTR _{type}._tcp SRV {url} TTL {ttl}").unwrap();
        let line = t.render(Some("clock"), Some("soap://h:1/c"), 60).unwrap();
        assert_eq!(line, "A PTR _clock._tcp SRV soap://h:1/c TTL 60");
        let caps = t.capture(&line).unwrap();
        assert_eq!(caps.ty.as_deref(), Some("clock"));
        assert_eq!(caps.url.as_deref(), Some("soap://h:1/c"));
        assert_eq!(caps.ttl, Some(60));
    }

    #[test]
    fn template_rejects_malformed_patterns() {
        assert!(Template::compile("").is_err(), "empty");
        assert!(Template::compile("A {unknown}").is_err(), "unknown field");
        assert!(Template::compile("A {type").is_err(), "unclosed");
        assert!(Template::compile("A {type}{url}").is_err(), "adjacent fields");
    }

    #[test]
    fn template_mismatches_capture_nothing() {
        let t = Template::compile("Q {type} ttl={ttl}").unwrap();
        assert_eq!(t.capture("X clock ttl=5"), None, "literal mismatch");
        assert_eq!(t.capture("Q clock ttl=soon"), None, "non-numeric ttl");
        assert_eq!(t.capture("Q clock ttl=5 trailing"), None, "unconsumed tail");
        assert_eq!(t.capture("Q  ttl=5"), None, "empty field");
        assert!(t.capture("Q clock ttl=5").is_some());
    }

    #[test]
    fn builder_validates_template_roles() {
        let group = Ipv4Addr::new(239, 7, 7, 8);
        assert!(
            SdpDescriptor::define("role-a", 6301, group).answer("A {type} {url}").build().is_err(),
            "query required"
        );
        assert!(
            SdpDescriptor::define("role-b", 6302, group).query("Q {type}").build().is_err(),
            "answer required"
        );
        assert!(
            SdpDescriptor::define("role-c", 6303, group)
                .query("Q {url}")
                .answer("A {type} {url}")
                .build()
                .is_err(),
            "query cannot carry {{url}}"
        );
        assert!(
            SdpDescriptor::define("role-d", 6304, group)
                .query("Q {type}")
                .answer("A {type}")
                .build()
                .is_err(),
            "answer needs {{url}}"
        );
    }

    #[test]
    fn unit_parses_query_advert_and_answer_lines() {
        let d = test_descriptor("unit-parse-proto", 6310);
        let world = World::new(1);
        let node = world.add_node("gw");
        let unit = DescriptorUnit::new(&node, d.clone()).unwrap();
        let dgram = |payload: &str, multicast: bool| Datagram {
            src: "10.0.0.9:41000".parse().unwrap(),
            dst: if multicast {
                d.multicast_addr()
            } else {
                SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), d.port())
            },
            payload: payload.as_bytes().to_vec(),
        };

        let ParsedMessage::Request(req) = unit.parse(&world, &dgram("TQ Clock", true)) else {
            panic!("query line parses to a request");
        };
        assert_eq!(req.service_type(), Some("clock"), "canonicalized");
        assert_eq!(req.net_type(), Some(d.protocol()));
        assert_eq!(req.source_addr().unwrap().port(), 41000);

        let ParsedMessage::Advert(alive) =
            unit.parse(&world, &dgram("TALIVE printer lpr://10.0.0.9:515 ttl=30", true))
        else {
            panic!("alive line parses to an advert");
        };
        assert!(alive.is_alive());
        assert_eq!(alive.service_url(), Some("lpr://10.0.0.9:515"));

        let ParsedMessage::Advert(bye) =
            unit.parse(&world, &dgram("TBYE printer lpr://10.0.0.9:515", true))
        else {
            panic!("byebye line parses to an advert");
        };
        assert!(bye.is_byebye());

        let ParsedMessage::Response(resp) =
            unit.parse(&world, &dgram("TA clock soap://10.0.0.2:1/c ttl=45", false))
        else {
            panic!("answer line parses to a response");
        };
        assert!(resp.is_response());
        assert_eq!(resp.service_url(), Some("soap://10.0.0.2:1/c"));

        assert_eq!(unit.parse(&world, &dgram("GARBAGE", true)), ParsedMessage::NotRelevant);
        let binary = Datagram {
            src: "10.0.0.9:41000".parse().unwrap(),
            dst: d.multicast_addr(),
            payload: vec![0xFF, 0xFE, 0x00],
        };
        assert_eq!(unit.parse(&world, &binary), ParsedMessage::NotRelevant);
    }

    /// Starts queries 1 and 2 for `scanner`, checking the first's query
    /// line and deadline.
    fn started(d: &SdpDescriptor) -> DescriptorProcesses {
        let mut queries = DescriptorProcesses::new(d.clone());
        let fx = step(|fx| queries.start_query(1, &request("scanner"), fx));
        let (to, bytes, delay) = (d.multicast_addr(), b"TQ scanner".to_vec(), Duration::ZERO);
        let deadline = Effect::Arm { timer: 1, delay: Duration::from_millis(25) };
        assert_eq!(fx, [Effect::Send { from: Sock::Unit, to, bytes, delay }, deadline]);
        step(|fx| queries.start_query(2, &request("scanner"), fx));
        queries
    }

    fn answer() -> Datagram {
        heard(b"TA scanner scan://10.0.0.5:99 ttl=60".to_vec())
    }

    /// The query process stepped with no `World`: an answer line for the
    /// type completes every query pending for it, and a second answer
    /// or a deadline after that completes nothing.
    #[test]
    fn execute_query_drives_the_native_process() {
        let mut queries = started(&test_descriptor("unit-query-proto", 6311));
        let fx = step(|fx| queries.on_datagram(Sock::Unit, &answer(), fx));
        let [Effect::Complete { id: 1, response }, Effect::Complete { id: 2, .. }] = &fx[..] else {
            panic!("both pending queries answered: {fx:?}");
        };
        assert_eq!(response.service_url(), Some("scan://10.0.0.5:99"));
        let late = step(|fx| {
            queries.on_datagram(Sock::Unit, &answer(), fx);
            queries.on_timer(1, fx);
        });
        assert!(late.is_empty(), "no second Complete: {late:?}");
    }

    #[test]
    fn execute_query_times_out_to_error_stream() {
        let mut queries = started(&test_descriptor("unit-timeout-proto", 6312));
        let fx = step(|fx| queries.on_timer(2, fx));
        let [Effect::Complete { id: 2, response }] = &fx[..] else { panic!("{fx:?}") };
        assert!(response.events().iter().any(|e| matches!(e, Event::ResErr(404))));
        let late = step(|fx| {
            queries.on_datagram(Sock::Unit, &answer(), fx);
            queries.on_timer(2, fx);
        });
        let [Effect::Complete { id: 1, .. }] = &late[..] else {
            panic!("only the query still pending is answered: {late:?}");
        };
    }

    #[test]
    fn compose_response_answers_the_native_requester() {
        let d = test_descriptor("unit-compose-proto", 6313);
        let world = World::new(4);
        let gw = world.add_node("gw");
        let client_node = world.add_node("client");
        let unit = DescriptorUnit::new(&gw, d.clone()).unwrap();
        let listen = client_node.udp_bind(42000).unwrap();
        let got: Completion<Vec<u8>> = Completion::new();
        let got2 = got.clone();
        listen.on_receive(move |_, dg| got2.complete(dg.payload));
        let request = EventStream::framed(vec![
            Event::NetSourceAddr(SocketAddrV4::new(client_node.addr(), 42000)),
            Event::ServiceRequest,
            Event::ServiceType("clock".into()),
        ]);
        let response = EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ResTtl(1800),
            Event::ResServUrl("soap://10.0.0.2:4005/ctl".into()),
        ]);
        unit.compose_response(&world, &request, &response);
        world.run_for(Duration::from_secs(1));
        let wire = got.take().expect("answer delivered");
        assert_eq!(
            std::str::from_utf8(&wire).unwrap(),
            "TA clock soap://10.0.0.2:4005/ctl ttl=1800"
        );

        // An empty result stays silent.
        let empty = EventStream::framed(vec![Event::ServiceResponse, Event::ResErr(404)]);
        unit.compose_response(&world, &request, &empty);
        world.run_for(Duration::from_secs(1));
        assert!(got.take().is_none(), "no second datagram");
    }

    #[test]
    fn compose_advert_multicasts_the_translated_advert() {
        let d = test_descriptor("unit-advert-proto", 6314);
        let world = World::new(5);
        let gw = world.add_node("gw");
        let listener_node = world.add_node("listener");
        let unit = DescriptorUnit::new(&gw, d.clone()).unwrap();
        let sock = listener_node.udp_bind(d.port()).unwrap();
        sock.join_multicast(d.group()).unwrap();
        let got: Completion<Vec<u8>> = Completion::new();
        let got2 = got.clone();
        sock.on_receive(move |_, dg| got2.complete(dg.payload));
        let advert = EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType("clock".into()),
            Event::ResServUrl("soap://10.0.0.2:4005/ctl".into()),
            Event::ResTtl(60),
        ]);
        unit.compose_advert(&world, &advert);
        world.run_for(Duration::from_secs(1));
        let wire = got.take().expect("advert heard");
        assert_eq!(
            std::str::from_utf8(&wire).unwrap(),
            "TALIVE clock soap://10.0.0.2:4005/ctl ttl=60"
        );
    }

    #[test]
    fn native_client_discovers_native_service_directly() {
        let d = test_descriptor("native-pair-proto", 6315);
        let world = World::new(6);
        let svc_node = world.add_node("svc");
        let cli_node = world.add_node("cli");
        let service = DescriptorService::start(&svc_node, d.clone()).unwrap();
        service.register("camera", "cam://10.0.0.8:80");
        let client = DescriptorClient::start(&cli_node, d).unwrap();
        let (first, done) = client.query(&world, "camera");
        world.run_for(Duration::from_secs(2));
        assert_eq!(first.take().as_deref(), Some("cam://10.0.0.8:80"));
        assert_eq!(done.take().unwrap(), vec!["cam://10.0.0.8:80".to_owned()]);

        // Deregistration silences the service.
        service.deregister("camera", "cam://10.0.0.8:80");
        let client2 = DescriptorClient::start(
            &world.add_node("cli2"),
            test_descriptor("native-pair-proto", 6315),
        )
        .unwrap();
        let (_f, done2) = client2.query(&world, "camera");
        world.run_for(Duration::from_secs(2));
        assert!(done2.take().unwrap().is_empty());
    }
}
