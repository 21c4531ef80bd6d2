//! SDP units: coupled parser/composer pairs coordinated by an FSM
//! (paper §2.2–§2.3).
//!
//! A unit owns everything INDISS needs to speak one SDP: parsing native
//! messages into event streams, composing native messages from event
//! streams, and — because "the translation of SDP functions … is actually
//! achieved in terms of translation of *processes* and not simply of
//! exchanged messages" — driving multi-step native interactions (the UPnP
//! unit's recursive description fetch of §2.4 being the canonical case).
//!
//! Those processes — a foreign request's native query and an advert's
//! enrichment — are sans-I/O state machines. Their inputs are the
//! request, a datagram, a timer firing and a fetched document; their
//! outputs are `Effect`s pushed into a caller-owned scratch `Vec`. The
//! unit never touches a socket, a timer or an HTTP client on these
//! paths: the runtime's driver performs the effects, in the order they
//! were emitted, and feeds what comes back into the next step.

pub mod descriptor;
pub mod jini;
pub mod slp;
pub(crate) mod upnp;

pub use descriptor::{
    DescriptorClient, DescriptorService, DescriptorUnit, SdpDescriptor, SdpDescriptorBuilder,
};
pub use jini::{JiniUnit, JiniUnitConfig};
pub use slp::{parse_slp_request, SlpUnit, SlpUnitConfig};
pub use upnp::{UpnpUnit, UpnpUnitConfig};

use std::cell::RefMut;
use std::net::SocketAddrV4;
use std::rc::Rc;
use std::time::Duration;

use indiss_net::{Datagram, Node, UdpSocket, World};

use crate::error::CoreResult;
use crate::event::{Event, EventStream, SdpProtocol, Symbol};
use crate::monitor::Monitor;
use crate::registry::ServiceRegistry;

/// Result of feeding a raw native message to a unit's parser.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParsedMessage {
    /// A service search request that may be bridged to other SDPs.
    Request(EventStream),
    /// A service advertisement (alive or byebye).
    Advert(EventStream),
    /// A response observed on the wire (useful for cache warming).
    Response(EventStream),
    /// The unit consumed the message internally (e.g. answered an
    /// attribute request for a bridged service) — nothing to bridge.
    Handled,
    /// Not this unit's business.
    NotRelevant,
}

/// A socket a unit process names in its effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sock {
    /// The unit's own socket ([`Unit::socket`]).
    Unit,
    /// The session socket [`Effect::Open`] bound for process `id`.
    Session(u64),
}

/// What a unit process asks its driver to do. Timer keys are the unit's
/// own.
#[derive(Debug, PartialEq)]
pub enum Effect {
    /// Bind a session socket for process `id`; what it receives comes
    /// back through [`Processes::on_datagram`] as [`Sock::Session`].
    Open(u64),
    /// Send `bytes` from `from` to `to`, `delay` from now (at once when
    /// zero).
    Send { from: Sock, to: SocketAddrV4, bytes: Vec<u8>, delay: Duration },
    /// Call [`Processes::on_timer`] with `timer` after `delay`.
    Arm { timer: u64, delay: Duration },
    /// GET `url` and hand the document to [`Processes::on_fetched`].
    Fetch { id: u64, url: String },
    /// Close process `id`'s session socket.
    Close(u64),
    /// Process `id` is done: its response (or enriched advert) stream.
    Complete { id: u64, response: EventStream },
}

/// A negative response stream: `protocol` answered `code`.
pub(crate) fn error_stream(protocol: SdpProtocol, code: u16) -> EventStream {
    EventStream::framed(vec![Event::NetType(protocol), Event::ServiceResponse, Event::ResErr(code)])
}

/// A unit's sans-I/O processes: each step takes the unit's process
/// state and pushes the effects it decides on. Processes are named by
/// the `id` the driver hands to a `start_*` step.
pub trait Processes {
    /// Starts process `id`, this unit's *native* discovery on behalf of a
    /// foreign request: however many rounds the protocol needs, ending
    /// in one [`Effect::Complete`] with the response stream (an error
    /// stream on timeout).
    fn start_query(&mut self, id: u64, request: &EventStream, fx: &mut Vec<Effect>);

    /// Starts process `id`, enriching `advert` into a stream carrying a
    /// service endpoint (`SDP_RES_SERV_URL`). The default passes it
    /// through; the UPnP unit fetches the description its `NOTIFY`
    /// merely points at — §2.4's recursive process again.
    fn start_enrich(&mut self, id: u64, advert: &EventStream, fx: &mut Vec<Effect>) {
        fx.push(Effect::Complete { id, response: advert.clone() });
    }

    /// A datagram at a process socket. What the processes do not consume
    /// may come back as a request or an advert, for the runtime to
    /// bridge or record (the Jini registrar's lookups and registrations).
    fn on_datagram(
        &mut self,
        _from: Sock,
        _dgram: &Datagram,
        _fx: &mut Vec<Effect>,
    ) -> ParsedMessage {
        ParsedMessage::Handled
    }

    /// A timer an [`Effect::Arm`] set fired.
    fn on_timer(&mut self, _timer: u64, _fx: &mut Vec<Effect>) {}

    /// The document an [`Effect::Fetch`] asked for; `None` when the GET
    /// failed or was not answered with success.
    fn on_fetched(&mut self, _id: u64, _document: Option<Vec<u8>>, _fx: &mut Vec<Effect>) {}
}

/// The processes of a unit that runs none: a foreign query finds nothing
/// at once, an advert is translated as it is.
pub(crate) struct NoProcesses(pub(crate) SdpProtocol);

impl Processes for NoProcesses {
    fn start_query(&mut self, id: u64, _request: &EventStream, fx: &mut Vec<Effect>) {
        fx.push(Effect::Complete { id, response: error_stream(self.0, 404) });
    }
}

/// A deployable SDP unit.
///
/// Object-safe: the runtime stores `Rc<dyn Unit>` and dispatches by
/// protocol. Implementations are [`SlpUnit`], [`UpnpUnit`], [`JiniUnit`]
/// and [`DescriptorUnit`].
pub trait Unit {
    /// The protocol this unit translates.
    fn protocol(&self) -> SdpProtocol;

    /// Attaches the runtime's shared [`ServiceRegistry`]. Units mint
    /// bridge projections (synthetic descriptions, attribute lists,
    /// service ids) into it instead of keeping private copies; a unit
    /// constructed standalone keeps its own registry until bound.
    fn bind_registry(&self, _registry: &ServiceRegistry) {}

    /// Parses one raw datagram (handed over by the monitor) into semantic
    /// events, per the unit's parser and FSM.
    fn parse(&self, world: &World, dgram: &Datagram) -> ParsedMessage;

    /// The unit's own socket, if it has one: the runtime registers it
    /// with the monitor's loop filter and routes what it receives to the
    /// unit's processes.
    fn socket(&self) -> Option<UdpSocket> {
        None
    }

    /// The unit's sans-I/O query and enrichment processes, which the
    /// runtime drives: it performs the `Effect`s their steps push, in
    /// order. A unit without finds nothing for foreign queries and
    /// translates adverts as they are.
    fn processes(&self) -> Option<RefMut<'_, dyn Processes>> {
        None
    }

    /// Composes and sends the native response to the original requester
    /// described by `request`, carrying the results in `response`.
    fn compose_response(&self, world: &World, request: &EventStream, response: &EventStream);

    /// Composes and multicasts a native advertisement equivalent to the
    /// foreign advertisement `advert` (used by the §4.2 active mode).
    fn compose_advert(&self, world: &World, advert: &EventStream);
}

/// Everything a [`UnitFactory`] may wire a freshly built unit to: the
/// node it deploys on, the shared registry and the monitor (loop
/// filtering).
///
/// Constructed by the runtime per instantiation; custom factories get
/// the same capabilities the built-in units use (the UPnP unit's
/// composed-message sockets report to the loop filter).
pub struct UnitContext {
    pub(crate) node: Node,
    pub(crate) registry: ServiceRegistry,
    pub(crate) monitor: Monitor,
}

impl UnitContext {
    /// The node the unit deploys on.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The runtime's shared service registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// The runtime's monitor (e.g. for [`Monitor::ignore_source`] on
    /// dynamically opened sockets).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }
}

/// Builds a [`Unit`] for one protocol — the open counterpart of the old
/// closed `match` over unit kinds in the runtime.
///
/// Object-safe: [`crate::UnitSpec::Custom`] carries one, and the runtime
/// builds every unit through [`crate::UnitSpec`] — built-in, descriptor
/// or custom — so adding an SDP never touches `runtime.rs` again.
pub trait UnitFactory {
    /// The protocol the built unit will translate.
    fn protocol(&self) -> SdpProtocol;

    /// Builds (and wires) the unit.
    ///
    /// # Errors
    ///
    /// Typically network errors from socket binds.
    fn build(&self, ctx: &UnitContext) -> CoreResult<Rc<dyn Unit>>;
}

/// Extracts the canonical short type name (`clock`, `printer`) from a
/// protocol-specific service type string, interned for the pipeline.
pub(crate) fn canonical_type_from_slp(service_type: &str) -> Symbol {
    // "service:clock:soap" → "clock"; "service:clock" → "clock"; "clock" → "clock"
    let stripped = service_type.strip_prefix("service:").unwrap_or(service_type);
    Symbol::intern_lowercase(stripped.split(':').next().unwrap_or(stripped))
}

/// Extracts the canonical short type from an SSDP search target.
pub(crate) fn canonical_type_from_target(st: &indiss_ssdp::SearchTarget) -> Option<Symbol> {
    use indiss_ssdp::SearchTarget;
    match st {
        SearchTarget::DeviceType { name, .. } | SearchTarget::ServiceType { name, .. } => {
            Some(Symbol::intern_lowercase(name))
        }
        // The paper's own trace uses the vendor target `upnp:clock`.
        SearchTarget::Custom(s) => {
            Some(Symbol::intern_lowercase(s.strip_prefix("upnp:").unwrap_or(s)))
        }
        SearchTarget::All | SearchTarget::RootDevice | SearchTarget::Uuid(_) => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use indiss_ssdp::SearchTarget;

    /// Runs one process step into a fresh effect list.
    pub(crate) fn step<R>(f: impl FnOnce(&mut Vec<Effect>) -> R) -> Vec<Effect> {
        let mut fx = Vec::new();
        f(&mut fx);
        fx
    }

    /// A request for `service_type`, as a foreign unit parsed it.
    pub(crate) fn request(service_type: &str) -> EventStream {
        EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType(service_type.into())])
    }

    /// `payload` arriving at a process socket from 10.0.0.9:5000.
    pub(crate) fn heard(payload: Vec<u8>) -> Datagram {
        let src = "10.0.0.9:5000".parse().unwrap();
        Datagram { src, dst: "10.0.0.1:40000".parse().unwrap(), payload }
    }

    #[test]
    fn slp_type_canonicalization() {
        assert_eq!(canonical_type_from_slp("service:clock"), "clock");
        assert_eq!(canonical_type_from_slp("service:clock:soap"), "clock");
        assert_eq!(canonical_type_from_slp("service:Printer:LPR"), "printer");
        assert_eq!(canonical_type_from_slp("clock"), "clock");
    }

    #[test]
    fn upnp_target_canonicalization() {
        assert_eq!(
            canonical_type_from_target(&SearchTarget::device_urn("Clock", 1)),
            Some("clock".into())
        );
        assert_eq!(
            canonical_type_from_target(&SearchTarget::service_urn("timer", 1)),
            Some("timer".into())
        );
        assert_eq!(
            canonical_type_from_target(&SearchTarget::Custom("upnp:clock".into())),
            Some("clock".into())
        );
        assert_eq!(canonical_type_from_target(&SearchTarget::All), None);
        assert_eq!(canonical_type_from_target(&SearchTarget::RootDevice), None);
    }
}
