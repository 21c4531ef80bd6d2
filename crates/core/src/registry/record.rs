//! The canonical service record: one discovered service, normalized from
//! whatever SDP announced or answered it.

use std::time::Duration;

use indiss_net::SimTime;

use crate::event::{Event, EventStream, SdpProtocol, Symbol};

/// Identity of a peer gateway in the federated mesh (its peer-channel
/// UDP port, which doubles as the mesh-wide address through the
/// transport seam).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u16);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer:{}", self.0)
    }
}

/// Where the registry learned a record: from SDP traffic on this
/// gateway's own segment, or pulled from a peer gateway during mesh
/// gossip. Remote records answer warm requests from the local cache
/// without re-fanning-out, and statistics distinguish the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RecordOrigin {
    /// Learned from SDP traffic on the local segment.
    #[default]
    Local,
    /// Pulled from the given peer gateway during anti-entropy gossip.
    Remote(PeerId),
}

impl RecordOrigin {
    /// True when the record was learned from a mesh peer.
    pub fn is_remote(&self) -> bool {
        matches!(self, RecordOrigin::Remote(_))
    }
}

/// One discovered service, as the registry stores it.
///
/// A record is built from an advertisement (or response) event stream and
/// keeps the normalized fields every SDP understands — canonical type,
/// endpoint, TTL — plus the original stream, which carries the
/// attributes and lets composers re-emit protocol-specific events (USNs,
/// leases, …) faithfully.
///
/// Identity fields are interned [`Symbol`]s, so inserting a record never
/// clones type or key strings and the store's secondary indexes hash one
/// machine word; the advert stream itself is a shared buffer, so keeping
/// it costs a reference count, not a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRecord {
    canonical_type: Symbol,
    origin: SdpProtocol,
    key: Symbol,
    endpoint: Option<Symbol>,
    advert: EventStream,
    provenance: RecordOrigin,
    registered_at: SimTime,
    refreshed_at: SimTime,
    expires_at: Option<SimTime>,
}

impl ServiceRecord {
    /// Builds a record from an alive advertisement stream.
    ///
    /// Returns `None` when the stream carries no identity at all (no USN,
    /// URL or type — nothing to key on). The record's TTL is the stream's
    /// `SDP_RES_TTL` when present, `default_ttl` otherwise; `None` for
    /// `default_ttl` makes untimed adverts immortal.
    pub fn from_advert(
        origin: SdpProtocol,
        stream: &EventStream,
        now: SimTime,
        default_ttl: Option<Duration>,
    ) -> Option<ServiceRecord> {
        let key = advert_key(stream)?;
        let ttl = stream
            .events()
            .iter()
            .find_map(|e| match e {
                Event::ResTtl(t) => Some(Duration::from_secs(u64::from(*t))),
                _ => None,
            })
            .or(default_ttl);
        Some(ServiceRecord {
            canonical_type: stream.service_type_symbol().unwrap_or_else(|| Symbol::intern("")),
            origin,
            key,
            endpoint: stream.service_url().map(Symbol::intern),
            advert: stream.clone(),
            provenance: RecordOrigin::Local,
            registered_at: now,
            refreshed_at: now,
            expires_at: ttl.map(|t| now.saturating_add(t)),
        })
    }

    /// The canonical short type name (`clock`, `printer`).
    pub fn canonical_type(&self) -> &str {
        self.canonical_type.as_str()
    }

    /// The canonical type as an interned symbol (index key).
    pub fn canonical_type_symbol(&self) -> Symbol {
        self.canonical_type.clone()
    }

    /// Which protocol announced the service.
    pub fn origin(&self) -> SdpProtocol {
        self.origin
    }

    /// The protocol-scoped identity the record is keyed by (USN, service
    /// URL or canonical type, in that preference order).
    pub fn key(&self) -> &str {
        self.key.as_str()
    }

    /// The record key as an interned symbol (index key).
    pub fn key_symbol(&self) -> Symbol {
        self.key.clone()
    }

    /// The service endpoint URL, when the advert carried one.
    pub fn endpoint(&self) -> Option<&str> {
        self.endpoint.as_ref().map(Symbol::as_str)
    }

    /// The endpoint as an interned symbol (index key).
    pub fn endpoint_symbol(&self) -> Option<Symbol> {
        self.endpoint.clone()
    }

    /// Attributes carried by the advert: its `ResAttr` events, in
    /// stream order, read from the advert the record already holds.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.advert.response_attr_iter()
    }

    /// The original advert stream (for re-advertising into other SDPs).
    pub fn advert(&self) -> &EventStream {
        &self.advert
    }

    /// Where the registry learned this record: locally observed SDP
    /// traffic, or a mesh peer during gossip.
    pub fn provenance(&self) -> RecordOrigin {
        self.provenance
    }

    /// Stamps where the record was learned (the mesh's pull-apply path
    /// marks records it lands with [`RecordOrigin::Remote`]).
    pub fn set_provenance(&mut self, provenance: RecordOrigin) {
        self.provenance = provenance;
    }

    /// When the record was first registered.
    pub fn registered_at(&self) -> SimTime {
        self.registered_at
    }

    /// When the record was last refreshed by a new advert.
    pub fn refreshed_at(&self) -> SimTime {
        self.refreshed_at
    }

    /// The expiry deadline, when the record has one.
    pub fn expires_at(&self) -> Option<SimTime> {
        self.expires_at
    }

    /// True once the record's TTL has elapsed.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.expires_at.is_some_and(|at| at <= now)
    }

    /// Refreshes this record in place from a newer advert of the same
    /// service, carrying the original registration time over.
    pub fn refresh_from(&mut self, newer: ServiceRecord) {
        let registered_at = self.registered_at;
        *self = newer;
        self.registered_at = registered_at;
    }
}

/// Extracts the identity an advert stream is keyed by: the UPnP USN when
/// present (it survives description fetches), else the service URL, else
/// the canonical type. The USN and type are already interned in the
/// event; only a URL key pays an interning lookup.
pub fn advert_key(stream: &EventStream) -> Option<Symbol> {
    stream
        .events()
        .iter()
        .find_map(|e| match e {
            Event::UpnpUsn(u) => Some(u.clone()),
            _ => None,
        })
        .or_else(|| stream.service_url().map(Symbol::intern))
        .or_else(|| stream.service_type_symbol())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(ttl: Option<u32>) -> EventStream {
        let mut body = vec![
            Event::ServiceAlive,
            Event::ServiceType("clock".into()),
            Event::ResServUrl("soap://10.0.0.2:4005/ctl".into()),
            Event::ResAttr { tag: "friendlyName".into(), value: "Clock".into() },
        ];
        if let Some(t) = ttl {
            body.push(Event::ResTtl(t));
        }
        EventStream::framed(body)
    }

    #[test]
    fn record_normalizes_advert_fields() {
        let now = SimTime::from_secs(5);
        let r = ServiceRecord::from_advert(SdpProtocol::Slp, &alive(Some(60)), now, None)
            .expect("keyed");
        assert_eq!(r.canonical_type(), "clock");
        assert_eq!(r.origin(), SdpProtocol::Slp);
        assert_eq!(r.key(), "soap://10.0.0.2:4005/ctl");
        assert_eq!(r.endpoint(), Some("soap://10.0.0.2:4005/ctl"));
        assert_eq!(r.attrs().collect::<Vec<_>>(), [("friendlyName", "Clock")]);
        assert_eq!(r.expires_at(), Some(SimTime::from_secs(65)));
        assert!(!r.is_expired(SimTime::from_secs(64)));
        assert!(r.is_expired(SimTime::from_secs(65)));
    }

    #[test]
    fn record_shares_the_advert_buffer() {
        let stream = alive(Some(60));
        let r = ServiceRecord::from_advert(SdpProtocol::Slp, &stream, SimTime::ZERO, None)
            .expect("keyed");
        assert!(r.advert().shares_buffer(&stream), "no deep copy on insert");
    }

    #[test]
    fn usn_wins_as_key() {
        let stream = EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType("clock".into()),
            Event::UpnpUsn("uuid:abc::urn:x".into()),
            Event::ResServUrl("soap://h/ctl".into()),
        ]);
        assert_eq!(advert_key(&stream).as_ref().map(Symbol::as_str), Some("uuid:abc::urn:x"));
    }

    #[test]
    fn default_ttl_applies_when_stream_has_none() {
        let now = SimTime::ZERO;
        let with_default = ServiceRecord::from_advert(
            SdpProtocol::Upnp,
            &alive(None),
            now,
            Some(Duration::from_secs(10)),
        )
        .unwrap();
        assert_eq!(with_default.expires_at(), Some(SimTime::from_secs(10)));
        let immortal =
            ServiceRecord::from_advert(SdpProtocol::Upnp, &alive(None), now, None).unwrap();
        assert_eq!(immortal.expires_at(), None);
        assert!(!immortal.is_expired(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn keyless_stream_yields_no_record() {
        let stream = EventStream::framed(vec![Event::ServiceAlive]);
        assert!(
            ServiceRecord::from_advert(SdpProtocol::Jini, &stream, SimTime::ZERO, None).is_none()
        );
    }

    #[test]
    fn provenance_defaults_local_and_is_stampable() {
        let mut r = ServiceRecord::from_advert(SdpProtocol::Slp, &alive(None), SimTime::ZERO, None)
            .expect("keyed");
        assert_eq!(r.provenance(), RecordOrigin::Local);
        assert!(!r.provenance().is_remote());
        r.set_provenance(RecordOrigin::Remote(PeerId(7101)));
        assert_eq!(r.provenance(), RecordOrigin::Remote(PeerId(7101)));
        assert!(r.provenance().is_remote());
    }

    #[test]
    fn refresh_preserves_registration_time() {
        let t0 = SimTime::from_secs(1);
        let t1 = SimTime::from_secs(9);
        let mut r =
            ServiceRecord::from_advert(SdpProtocol::Slp, &alive(Some(5)), t0, None).unwrap();
        let newer =
            ServiceRecord::from_advert(SdpProtocol::Slp, &alive(Some(5)), t1, None).unwrap();
        r.refresh_from(newer);
        assert_eq!(r.registered_at(), t0);
        assert_eq!(r.refreshed_at(), t1);
        assert_eq!(r.expires_at(), Some(SimTime::from_secs(14)));
    }
}
