//! The INDISS event vocabulary (paper §2.3, Table 1).
//!
//! Parsers translate native SDP messages *to* these events; composers
//! translate *from* them. The **mandatory** set — control, network,
//! service, request and response events — is the greatest common
//! denominator of all SDPs: every parser must emit it and every composer
//! must understand it. Protocol-specific events (the `Slp*`, `Upnp*`,
//! `Jini*` variants) carry the richer features of one SDP; composers
//! "are free to handle or ignore them" (§2.3) — in Rust terms, a match
//! arm or the `_ => {}` fallthrough.
//!
//! # Ownership model
//!
//! The pipeline is zero-copy after parse. A parser builds a stream once
//! — through [`EventStream::framed`] or an [`EventStreamBuilder`] — and
//! from then on the stream is an **immutable shared buffer**
//! (`Rc<[Event]>`): every hop that used to deep-clone a `Vec<Event>`
//! (bridging, cache warming, delivery, re-advertising) now bumps a
//! reference count. High-churn string payloads — service types, UPnP
//! search targets and USNs, SLP scopes — are interned [`Symbol`]s, so
//! cloning an [`Event`] copies a pointer and the registry hashes one
//! machine word instead of string bytes. Mutation never happens in
//! place; "editing" a stream means building a new one (see
//! [`EventStream::to_builder`]).

use std::fmt;
use std::net::SocketAddrV4;
use std::sync::Arc;

pub use crate::protocol::ProtocolId;
pub use crate::symbol::Symbol;

/// The discovery protocols INDISS knows about.
///
/// The set is **open**: beyond the three built-in SDPs, any protocol
/// registered through [`ProtocolId::register`] (usually via an
/// [`crate::SdpDescriptor`]) participates as [`SdpProtocol::Dynamic`] —
/// a first-class citizen of the monitor, the registry indexes, the
/// response/negative caches and the bridge statistics, because all of
/// those key on `SdpProtocol` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum SdpProtocol {
    /// Service Location Protocol (RFC 2608).
    Slp,
    /// UPnP (SSDP + description + SOAP).
    Upnp,
    /// Jini (simplified; see `indiss-jini`).
    Jini,
    /// A dynamically registered protocol, bridged by a descriptor-driven
    /// unit (paper §3: units named in the `System SDP = { … }` config).
    Dynamic(ProtocolId),
}

impl SdpProtocol {
    /// The built-in protocols, in display order. Dynamic protocols are
    /// enumerable via [`ProtocolId::registered`].
    pub const ALL: [SdpProtocol; 3] = [SdpProtocol::Slp, SdpProtocol::Upnp, SdpProtocol::Jini];

    /// The protocol's registered UDP port (the monitor's detection key,
    /// §2.1) — IANA-assigned for the built-ins, descriptor-declared for
    /// dynamic protocols.
    pub fn port(self) -> u16 {
        match self {
            SdpProtocol::Slp => indiss_slp::SLP_PORT,
            SdpProtocol::Upnp => indiss_ssdp::SSDP_PORT,
            SdpProtocol::Jini => indiss_jini::JINI_PORT,
            SdpProtocol::Dynamic(id) => id.port(),
        }
    }

    /// The protocol's multicast groups.
    ///
    /// Returns a static slice — this sits on the monitor's per-datagram
    /// detection path, which must not allocate. Dynamic protocols hold
    /// this bound too: their group slice is leaked once at registration.
    pub fn multicast_groups(self) -> &'static [std::net::Ipv4Addr] {
        const SLP_GROUPS: [std::net::Ipv4Addr; 1] = [indiss_slp::SLP_MULTICAST_GROUP];
        const UPNP_GROUPS: [std::net::Ipv4Addr; 1] = [indiss_ssdp::SSDP_MULTICAST_GROUP];
        const JINI_GROUPS: [std::net::Ipv4Addr; 2] =
            [indiss_jini::JINI_REQUEST_GROUP, indiss_jini::JINI_ANNOUNCEMENT_GROUP];
        match self {
            SdpProtocol::Slp => &SLP_GROUPS,
            SdpProtocol::Upnp => &UPNP_GROUPS,
            SdpProtocol::Jini => &JINI_GROUPS,
            SdpProtocol::Dynamic(id) => id.multicast_groups(),
        }
    }
}

impl fmt::Display for SdpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SdpProtocol::Slp => "SLP",
            SdpProtocol::Upnp => "UPnP",
            SdpProtocol::Jini => "Jini",
            SdpProtocol::Dynamic(id) => id.name(),
        })
    }
}

/// Which parser a unit should switch to (`SDP_C_PARSER_SWITCH` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParserKind {
    /// The unit's native discovery-message parser (SSDP, SLP wire, …).
    Native,
    /// HTTP message parser.
    Http,
    /// XML document parser.
    Xml,
}

/// One semantic event. Variants group exactly as Table 1 does; the
/// protocol-specific variants are the paper's "specialized sets".
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // --- SDP Control Events -------------------------------------------
    /// `SDP_C_START`: opens an event stream (one native message or one
    /// translation step).
    Start,
    /// `SDP_C_STOP`: closes the stream.
    Stop,
    /// `SDP_C_PARSER_SWITCH`: the current parser cannot continue (e.g.
    /// SSDP parser hitting an XML body, §2.4) and asks its unit to switch.
    ParserSwitch(ParserKind),
    /// `SDP_C_SOCKET_SWITCH`: the unit must continue on another transport
    /// (UDP → TCP for a description fetch).
    SocketSwitch,

    // --- SDP Network Events --------------------------------------------
    /// `SDP_NET_UNICAST`: the message was unicast.
    NetUnicast,
    /// `SDP_NET_MULTICAST`: the message was multicast.
    NetMulticast,
    /// `SDP_NET_SOURCE_ADDR`: sender address (recorded for the reply path).
    NetSourceAddr(SocketAddrV4),
    /// `SDP_NET_DEST_ADDR`: destination address.
    NetDestAddr(SocketAddrV4),
    /// `SDP_NET_TYPE`: which SDP the message belongs to.
    NetType(SdpProtocol),

    // --- SDP Service Events --------------------------------------------
    /// `SDP_SERVICE_REQUEST`: a service search request.
    ServiceRequest,
    /// `SDP_SERVICE_RESPONSE`: a response to a search.
    ServiceResponse,
    /// `SDP_SERVICE_ALIVE`: an advertisement that a service exists.
    ServiceAlive,
    /// `SDP_SERVICE_BYEBYE`: an advertisement that a service is leaving.
    ServiceByeBye,
    /// `SDP_SERVICE_TYPE`: the *canonical* service type name (`clock`,
    /// `printer`) — each parser maps its native form to this. Interned:
    /// the registry keys its type indexes on this symbol.
    ServiceType(Symbol),
    /// `SDP_SERVICE_ATTR`: one attribute constraint or descriptor.
    /// Payloads are boxed to keep `Event` small (see the size test):
    /// the stream buffer is the dominant per-message allocation.
    ServiceAttr {
        /// Attribute tag.
        tag: Box<str>,
        /// Attribute values (may be empty for keyword attributes).
        values: Box<[String]>,
    },

    // --- SDP Request Events --------------------------------------------
    /// `SDP_REQ_LANG`: requested language.
    ReqLang(String),

    // --- SDP Response Events -------------------------------------------
    /// `SDP_RES_OK`: success.
    ResOk,
    /// `SDP_RES_ERR`: failure, with a protocol-agnostic code.
    ResErr(u16),
    /// `SDP_RES_TTL`: validity of the answer, seconds.
    ResTtl(u32),
    /// `SDP_RES_SERV_URL`: the service endpoint URL — the event the whole
    /// §2.4 translation works towards.
    ResServUrl(String),
    /// `SDP_RES_ATTR`: one attribute of the discovered service. Boxed
    /// payloads keep `Event` at 40 bytes (see the size test).
    ResAttr {
        /// Attribute tag.
        tag: Box<str>,
        /// Attribute value.
        value: Box<str>,
    },

    // --- SLP-specific (discarded by non-SLP composers) ------------------
    /// `SDP_REQ_VERSION` (Fig. 4): SLP protocol version.
    SlpReqVersion(u8),
    /// `SDP_REQ_SCOPE` (Fig. 4): SLP scope list (interned — scope lists
    /// repeat across every request on a network).
    SlpReqScope(Symbol),
    /// `SDP_REQ_PREDICATE` (Fig. 4): SLP LDAP predicate.
    SlpReqPredicate(String),
    /// `SDP_REQ_ID` (Fig. 4): SLP transaction id.
    SlpReqId(u16),

    // --- UPnP-specific ---------------------------------------------------
    /// `SDP_DEVICE_URL_DESC` (Fig. 4): the description-document URL from a
    /// discovery response; consumed internally by the UPnP unit to fetch
    /// the description.
    UpnpDeviceUrlDesc(String),
    /// UPnP unique service name (interned — USNs are the registry's
    /// primary record keys).
    UpnpUsn(Symbol),
    /// UPnP server banner.
    UpnpServer(String),
    /// UPnP search MX (response jitter bound).
    UpnpMx(u8),
    /// The raw `ST:` search-target text, preserved so a UPnP composer can
    /// echo it exactly in the search response (interned — a handful of
    /// targets account for nearly all searches).
    UpnpSt(Symbol),

    // --- Jini-specific ---------------------------------------------------
    /// Jini discovery groups.
    JiniGroups(Vec<String>),
    /// Jini service id.
    JiniServiceId(u64),
    /// Jini lease duration, seconds.
    JiniLease(u32),
}

/// Discriminant of an [`Event`], used as FSM trigger (the paper's Σ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror Event variants one-to-one
pub enum EventKind {
    Start,
    Stop,
    ParserSwitch,
    SocketSwitch,
    NetUnicast,
    NetMulticast,
    NetSourceAddr,
    NetDestAddr,
    NetType,
    ServiceRequest,
    ServiceResponse,
    ServiceAlive,
    ServiceByeBye,
    ServiceType,
    ServiceAttr,
    ReqLang,
    ResOk,
    ResErr,
    ResTtl,
    ResServUrl,
    ResAttr,
    SlpReqVersion,
    SlpReqScope,
    SlpReqPredicate,
    SlpReqId,
    UpnpDeviceUrlDesc,
    UpnpUsn,
    UpnpServer,
    UpnpMx,
    UpnpSt,
    JiniGroups,
    JiniServiceId,
    JiniLease,
}

impl Event {
    /// The event's discriminant.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Start => EventKind::Start,
            Event::Stop => EventKind::Stop,
            Event::ParserSwitch(_) => EventKind::ParserSwitch,
            Event::SocketSwitch => EventKind::SocketSwitch,
            Event::NetUnicast => EventKind::NetUnicast,
            Event::NetMulticast => EventKind::NetMulticast,
            Event::NetSourceAddr(_) => EventKind::NetSourceAddr,
            Event::NetDestAddr(_) => EventKind::NetDestAddr,
            Event::NetType(_) => EventKind::NetType,
            Event::ServiceRequest => EventKind::ServiceRequest,
            Event::ServiceResponse => EventKind::ServiceResponse,
            Event::ServiceAlive => EventKind::ServiceAlive,
            Event::ServiceByeBye => EventKind::ServiceByeBye,
            Event::ServiceType(_) => EventKind::ServiceType,
            Event::ServiceAttr { .. } => EventKind::ServiceAttr,
            Event::ReqLang(_) => EventKind::ReqLang,
            Event::ResOk => EventKind::ResOk,
            Event::ResErr(_) => EventKind::ResErr,
            Event::ResTtl(_) => EventKind::ResTtl,
            Event::ResServUrl(_) => EventKind::ResServUrl,
            Event::ResAttr { .. } => EventKind::ResAttr,
            Event::SlpReqVersion(_) => EventKind::SlpReqVersion,
            Event::SlpReqScope(_) => EventKind::SlpReqScope,
            Event::SlpReqPredicate(_) => EventKind::SlpReqPredicate,
            Event::SlpReqId(_) => EventKind::SlpReqId,
            Event::UpnpDeviceUrlDesc(_) => EventKind::UpnpDeviceUrlDesc,
            Event::UpnpUsn(_) => EventKind::UpnpUsn,
            Event::UpnpServer(_) => EventKind::UpnpServer,
            Event::UpnpMx(_) => EventKind::UpnpMx,
            Event::UpnpSt(_) => EventKind::UpnpSt,
            Event::JiniGroups(_) => EventKind::JiniGroups,
            Event::JiniServiceId(_) => EventKind::JiniServiceId,
            Event::JiniLease(_) => EventKind::JiniLease,
        }
    }

    /// True for the mandatory (Table 1) events every composer must
    /// understand; false for the protocol-specific extensions.
    pub fn is_mandatory(&self) -> bool {
        self.kind().table1_name().is_some()
    }
}

impl EventKind {
    /// The paper's Table 1 name, for mandatory events.
    pub fn table1_name(self) -> Option<&'static str> {
        Some(match self {
            EventKind::Start => "SDP_C_START",
            EventKind::Stop => "SDP_C_STOP",
            EventKind::ParserSwitch => "SDP_C_PARSER_SWITCH",
            EventKind::SocketSwitch => "SDP_C_SOCKET_SWITCH",
            EventKind::NetUnicast => "SDP_NET_UNICAST",
            EventKind::NetMulticast => "SDP_NET_MULTICAST",
            EventKind::NetSourceAddr => "SDP_NET_SOURCE_ADDR",
            EventKind::NetDestAddr => "SDP_NET_DEST_ADDR",
            EventKind::NetType => "SDP_NET_TYPE",
            EventKind::ServiceRequest => "SDP_SERVICE_REQUEST",
            EventKind::ServiceResponse => "SDP_SERVICE_RESPONSE",
            EventKind::ServiceAlive => "SDP_SERVICE_ALIVE",
            EventKind::ServiceByeBye => "SDP_SERVICE_BYEBYE",
            EventKind::ServiceType => "SDP_SERVICE_TYPE",
            EventKind::ServiceAttr => "SDP_SERVICE_ATTR",
            EventKind::ReqLang => "SDP_REQ_LANG",
            EventKind::ResOk => "SDP_RES_OK",
            EventKind::ResErr => "SDP_RES_ERR",
            EventKind::ResTtl => "SDP_RES_TTL",
            EventKind::ResServUrl => "SDP_RES_SERV_URL",
            EventKind::ResAttr => "SDP_RES_ATTR",
            _ => return None,
        })
    }

    /// A wire-style name for any event kind (Table 1 name when mandatory,
    /// a specific-set name otherwise) — used in traces and tests.
    pub fn name(self) -> &'static str {
        if let Some(n) = self.table1_name() {
            return n;
        }
        match self {
            EventKind::SlpReqVersion => "SDP_REQ_VERSION",
            EventKind::SlpReqScope => "SDP_REQ_SCOPE",
            EventKind::SlpReqPredicate => "SDP_REQ_PREDICATE",
            EventKind::SlpReqId => "SDP_REQ_ID",
            EventKind::UpnpDeviceUrlDesc => "SDP_DEVICE_URL_DESC",
            EventKind::UpnpUsn => "SDP_UPNP_USN",
            EventKind::UpnpServer => "SDP_UPNP_SERVER",
            EventKind::UpnpMx => "SDP_UPNP_MX",
            EventKind::UpnpSt => "SDP_UPNP_ST",
            EventKind::JiniGroups => "SDP_JINI_GROUPS",
            EventKind::JiniServiceId => "SDP_JINI_SERVICE_ID",
            EventKind::JiniLease => "SDP_JINI_LEASE",
            _ => unreachable!("mandatory kinds answered above"),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind().name())
    }
}

/// A framed event stream: `SDP_C_START … SDP_C_STOP`, representing one
/// native message (or one internal translation step).
///
/// Streams are immutable shared buffers: [`Clone`] bumps a reference
/// count instead of copying events, so handing a stream to the bridge,
/// the cache and a composer costs three pointer bumps, not three deep
/// copies. The buffer handle is an `Arc`, so a stream built on one
/// runtime worker can be cached, bridged and delivered on another —
/// `EventStream` is `Send + Sync`, the seam PR 2 prepared for the
/// multi-threaded runtime. Construction sites that accumulate events
/// incrementally use [`EventStreamBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    events: Arc<[Event]>,
}

impl Default for EventStream {
    /// An empty (unframed) stream; useful only as a placeholder.
    fn default() -> EventStream {
        EventStream { events: Arc::from(Vec::new()) }
    }
}

impl EventStream {
    /// Creates a stream already framed with `Start`/`Stop` around `body`.
    ///
    /// The shared buffer is allocated exactly once: the framing iterator
    /// is `TrustedLen`, so collecting into `Arc<[Event]>` writes the
    /// events straight into their final allocation.
    pub fn framed(body: Vec<Event>) -> EventStream {
        let events: Arc<[Event]> =
            std::iter::once(Event::Start).chain(body).chain(std::iter::once(Event::Stop)).collect();
        EventStream { events }
    }

    /// Wraps raw events, validating framing.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::BadEventFraming`] if the stream does not start
    /// with `Start` and end with `Stop`.
    pub fn from_events(events: Vec<Event>) -> crate::CoreResult<EventStream> {
        let ok = matches!(events.first(), Some(Event::Start))
            && matches!(events.last(), Some(Event::Stop))
            && events.len() >= 2;
        if !ok {
            return Err(crate::CoreError::BadEventFraming);
        }
        Ok(EventStream { events: events.into() })
    }

    /// True when this stream and `other` share one buffer (a cheap-clone
    /// pair). Exposed for tests asserting the zero-copy property.
    pub fn shares_buffer(&self, other: &EventStream) -> bool {
        Arc::ptr_eq(&self.events, &other.events)
    }

    /// All events including the frame.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events between `Start` and `Stop`.
    pub fn body(&self) -> &[Event] {
        if self.events.len() < 2 {
            return &[];
        }
        &self.events[1..self.events.len() - 1]
    }

    /// A builder seeded with this stream's body, for deriving an edited
    /// copy (the original buffer is untouched).
    pub fn to_builder(&self) -> EventStreamBuilder {
        let mut builder = EventStreamBuilder::with_capacity(self.events.len());
        builder.extend_from_slice(self.body());
        builder
    }

    /// The names of all events, in order, for trace assertions (Fig. 4
    /// style). An iterator: the Fig. 4 trace path runs per message and
    /// must not allocate a `Vec` to be inspected.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.events.iter().map(|e| e.kind().name())
    }

    /// First `ServiceType` payload as a symbol, if any.
    pub fn service_type_symbol(&self) -> Option<Symbol> {
        self.events.iter().find_map(|e| match e {
            Event::ServiceType(t) => Some(t.clone()),
            _ => None,
        })
    }

    /// First `ServiceType` payload, if any.
    pub fn service_type(&self) -> Option<&str> {
        self.events.iter().find_map(|e| match e {
            Event::ServiceType(t) => Some(t.as_str()),
            _ => None,
        })
    }

    /// First `NetSourceAddr` payload, if any.
    pub fn source_addr(&self) -> Option<SocketAddrV4> {
        self.events.iter().find_map(|e| match e {
            Event::NetSourceAddr(a) => Some(*a),
            _ => None,
        })
    }

    /// First `ResServUrl` payload, if any.
    pub fn service_url(&self) -> Option<&str> {
        self.events.iter().find_map(|e| match e {
            Event::ResServUrl(u) => Some(u.as_str()),
            _ => None,
        })
    }

    /// First `ResTtl` payload, if any.
    pub(crate) fn ttl(&self) -> Option<u32> {
        self.events.iter().find_map(|e| match e {
            Event::ResTtl(t) => Some(*t),
            _ => None,
        })
    }

    /// All `ResAttr` pairs.
    pub fn response_attrs(&self) -> Vec<(&str, &str)> {
        self.response_attr_iter().collect()
    }

    /// All `ResAttr` pairs, in stream order, without collecting them.
    pub(crate) fn response_attr_iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.events.iter().filter_map(|e| match e {
            Event::ResAttr { tag, value } => Some((&**tag, &**value)),
            _ => None,
        })
    }

    /// True when the stream describes a search request.
    pub fn is_request(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::ServiceRequest))
    }

    /// True when the stream describes a response.
    pub fn is_response(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::ServiceResponse))
    }

    /// True when the stream describes an (alive) advertisement.
    pub fn is_alive(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::ServiceAlive))
    }

    /// True when the stream describes a byebye advertisement.
    pub fn is_byebye(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::ServiceByeBye))
    }

    /// Which protocol produced the stream, from `NetType`.
    pub fn net_type(&self) -> Option<SdpProtocol> {
        self.events.iter().find_map(|e| match e {
            Event::NetType(p) => Some(*p),
            _ => None,
        })
    }
}

/// Incremental construction of an [`EventStream`].
///
/// The builder owns the only mutable `Vec<Event>` in the pipeline: a
/// parser (or an enrichment step) pushes body events and [`build`]
/// freezes them — `Start`/`Stop` framing included — into the shared
/// immutable buffer every later hop clones by reference. The scratch
/// `Vec` behind the builder is drawn from a small thread-local pool and
/// handed back on build, so steady-state stream construction performs
/// exactly one allocation: the shared buffer itself.
///
/// [`build`]: EventStreamBuilder::build
#[derive(Debug, Default)]
pub struct EventStreamBuilder {
    body: Vec<Event>,
}

thread_local! {
    /// Recycled builder scratch vectors (bounded; see `return_scratch`).
    static BODY_POOL: std::cell::RefCell<Vec<Vec<Event>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn take_scratch(capacity: usize) -> Vec<Event> {
    BODY_POOL
        .with(|pool| pool.borrow_mut().pop())
        .map(|mut v| {
            v.reserve(capacity);
            v
        })
        .unwrap_or_else(|| Vec::with_capacity(capacity))
}

fn return_scratch(mut scratch: Vec<Event>) {
    scratch.clear();
    BODY_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < 8 {
            pool.push(scratch);
        }
    });
}

impl EventStreamBuilder {
    /// An empty builder.
    pub fn new() -> EventStreamBuilder {
        EventStreamBuilder::with_capacity(0)
    }

    /// An empty builder with room for `capacity` body events.
    pub fn with_capacity(capacity: usize) -> EventStreamBuilder {
        EventStreamBuilder { body: take_scratch(capacity) }
    }

    /// Appends one body event.
    pub fn push(&mut self, event: Event) -> &mut EventStreamBuilder {
        self.body.push(event);
        self
    }

    /// Appends a slice of body events.
    pub fn extend_from_slice(&mut self, events: &[Event]) -> &mut EventStreamBuilder {
        self.body.extend_from_slice(events);
        self
    }

    /// Number of body events so far.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// True when no body events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Frames the accumulated body and freezes it into a stream with a
    /// single allocation (the shared buffer); the scratch vector goes
    /// back to the pool.
    pub fn build(mut self) -> EventStream {
        let events: Arc<[Event]> = std::iter::once(Event::Start)
            .chain(self.body.drain(..))
            .chain(std::iter::once(Event::Stop))
            .collect();
        EventStream { events }
    }
}

impl Drop for EventStreamBuilder {
    fn drop(&mut self) {
        return_scratch(std::mem::take(&mut self.body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event type listed in the paper's Table 1 must exist with its
    /// exact name.
    #[test]
    fn table1_is_complete() {
        let expected = [
            "SDP_C_START",
            "SDP_C_STOP",
            "SDP_C_PARSER_SWITCH",
            "SDP_C_SOCKET_SWITCH",
            "SDP_NET_UNICAST",
            "SDP_NET_MULTICAST",
            "SDP_NET_SOURCE_ADDR",
            "SDP_NET_DEST_ADDR",
            "SDP_NET_TYPE",
            "SDP_SERVICE_REQUEST",
            "SDP_SERVICE_RESPONSE",
            "SDP_SERVICE_ALIVE",
            "SDP_SERVICE_BYEBYE",
            "SDP_SERVICE_TYPE",
            "SDP_SERVICE_ATTR",
            "SDP_REQ_LANG",
            "SDP_RES_OK",
            "SDP_RES_ERR",
            "SDP_RES_TTL",
            "SDP_RES_SERV_URL",
        ];
        let kinds = [
            EventKind::Start,
            EventKind::Stop,
            EventKind::ParserSwitch,
            EventKind::SocketSwitch,
            EventKind::NetUnicast,
            EventKind::NetMulticast,
            EventKind::NetSourceAddr,
            EventKind::NetDestAddr,
            EventKind::NetType,
            EventKind::ServiceRequest,
            EventKind::ServiceResponse,
            EventKind::ServiceAlive,
            EventKind::ServiceByeBye,
            EventKind::ServiceType,
            EventKind::ServiceAttr,
            EventKind::ReqLang,
            EventKind::ResOk,
            EventKind::ResErr,
            EventKind::ResTtl,
            EventKind::ResServUrl,
        ];
        for (kind, name) in kinds.iter().zip(expected.iter()) {
            assert_eq!(kind.table1_name(), Some(*name));
        }
    }

    #[test]
    fn specific_events_are_not_mandatory() {
        assert!(!Event::SlpReqVersion(2).is_mandatory());
        assert!(!Event::UpnpDeviceUrlDesc("http://x".into()).is_mandatory());
        assert!(!Event::JiniLease(60).is_mandatory());
        assert!(Event::ServiceRequest.is_mandatory());
        assert!(Event::ResAttr { tag: "a".into(), value: "b".into() }.is_mandatory());
    }

    #[test]
    fn framing_validates() {
        assert!(EventStream::from_events(vec![Event::Start, Event::Stop]).is_ok());
        assert!(EventStream::from_events(vec![Event::Start]).is_err());
        assert!(EventStream::from_events(vec![Event::ServiceRequest]).is_err());
        assert!(EventStream::from_events(vec![]).is_err());
    }

    #[test]
    fn framed_constructor_brackets() {
        let s = EventStream::framed(vec![Event::ServiceRequest]);
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec!["SDP_C_START", "SDP_SERVICE_REQUEST", "SDP_C_STOP"]
        );
        assert_eq!(s.body().len(), 1);
    }

    #[test]
    fn builder_frames_and_freezes() {
        let mut b = EventStreamBuilder::with_capacity(2);
        assert!(b.is_empty());
        b.push(Event::ServiceRequest).push(Event::ServiceType("clock".into()));
        assert_eq!(b.len(), 2);
        let s = b.build();
        assert_eq!(
            s,
            EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType("clock".into()),])
        );
    }

    #[test]
    fn clone_is_shared_not_copied() {
        let s = EventStream::framed(vec![Event::ServiceRequest]);
        let t = s.clone();
        assert!(s.shares_buffer(&t));
        assert_eq!(s, t);
        // An equal but independently built stream does not share.
        let u = EventStream::framed(vec![Event::ServiceRequest]);
        assert_eq!(s, u);
        assert!(!s.shares_buffer(&u));
    }

    #[test]
    fn to_builder_derives_without_mutating_original() {
        let s = EventStream::framed(vec![Event::ServiceAlive, Event::ServiceType("clock".into())]);
        let mut b = s.to_builder();
        b.push(Event::ResServUrl("soap://h/ctl".into()));
        let derived = b.build();
        assert_eq!(s.body().len(), 2, "original untouched");
        assert_eq!(derived.body().len(), 3);
        assert_eq!(derived.service_url(), Some("soap://h/ctl"));
    }

    #[test]
    fn accessors_find_payloads() {
        let addr = "10.0.0.1:40000".parse().unwrap();
        let s = EventStream::framed(vec![
            Event::NetType(SdpProtocol::Slp),
            Event::NetMulticast,
            Event::NetSourceAddr(addr),
            Event::ServiceRequest,
            Event::ServiceType("clock".into()),
        ]);
        assert!(s.is_request());
        assert!(!s.is_response());
        assert_eq!(s.service_type(), Some("clock"));
        assert_eq!(s.service_type_symbol(), Some(Symbol::intern("clock")));
        assert_eq!(s.source_addr(), Some(addr));
        assert_eq!(s.net_type(), Some(SdpProtocol::Slp));
    }

    #[test]
    fn response_accessors() {
        let s = EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ResServUrl("service:clock://10.0.0.2".into()),
            Event::ResAttr { tag: "friendlyName".into(), value: "Clock".into() },
        ]);
        assert!(s.is_response());
        assert_eq!(s.service_url(), Some("service:clock://10.0.0.2"));
        assert_eq!(s.response_attrs(), vec![("friendlyName", "Clock")]);
    }

    #[test]
    fn protocol_ports_match_iana() {
        assert_eq!(SdpProtocol::Slp.port(), 427);
        assert_eq!(SdpProtocol::Upnp.port(), 1900);
        assert_eq!(SdpProtocol::Jini.port(), 4160);
    }

    #[test]
    fn display_uses_names() {
        assert_eq!(Event::Start.to_string(), "SDP_C_START");
        assert_eq!(Event::UpnpMx(0).to_string(), "SDP_UPNP_MX");
        assert_eq!(SdpProtocol::Upnp.to_string(), "UPnP");
    }

    /// A dynamic protocol behaves exactly like a built-in one where the
    /// monitor and the display layer are concerned: port, groups and name
    /// all come from its registration.
    #[test]
    fn dynamic_protocols_carry_their_registration() {
        let group = std::net::Ipv4Addr::new(239, 4, 4, 4);
        let id = ProtocolId::register("event-test-proto", 6200, &[group]).unwrap();
        let p = SdpProtocol::Dynamic(id);
        assert_eq!(p.port(), 6200);
        assert_eq!(p.multicast_groups(), &[group]);
        assert_eq!(p.to_string(), "event-test-proto");
        assert!(!SdpProtocol::ALL.contains(&p), "ALL stays the built-in set");
    }

    /// The stream buffer is the dominant per-message allocation, so
    /// `Event`'s size is a load-bearing property: symbols intern the
    /// high-churn strings and the attr payloads are boxed precisely to
    /// hold this bound. Growing it silently would inflate every stream.
    #[test]
    fn event_stays_small() {
        assert!(
            std::mem::size_of::<Event>() <= 40,
            "Event grew to {} bytes; box the new payload instead",
            std::mem::size_of::<Event>()
        );
    }
}
