//! The federated gateway mesh: anti-entropy gossip between INDISS
//! gateways, remote-hit serving, and store-and-forward advert relay.
//!
//! The paper's gateway bridges SDPs on *one* network segment. This
//! module is the gateway-to-gateway plane that federates many of them:
//! each gateway holds a peer set and periodically runs a gossip round
//! against every peer.
//!
//! ```text
//!   gateway A                                gateway B
//!      │  DIGEST {round, per-shard versions}    │
//!      ├───────────────────────────────────────▶│  diff vs. what B
//!      │                                        │  last pulled from A
//!      │  PULL {shards: [1, 3]}     (or ACK)    │
//!      │◀───────────────────────────────────────┤
//!      │  RECORDS {shard 1, version, records}   │
//!      ├───────────────────────────────────────▶│  land with
//!      │  RECORDS {shard 3, version, records}   │  RecordOrigin::
//!      ├───────────────────────────────────────▶│  Remote(peer A)
//! ```
//!
//! The digest is a per-shard **content-version vector** read straight
//! off the registry's counters ([`ServiceRegistry::shard_versions`]) —
//! O(shards), never a record-store walk. The receiver pulls only shards
//! whose version advanced past what it already pulled from that peer,
//! and applies records through [`ServiceRegistry::record_remote`],
//! whose equivalence check refuses to re-apply content it already
//! holds: once two gateways agree, rounds settle into a single
//! DIGEST/ACK exchange and version vectors stop moving. Applied records
//! carry [`RecordOrigin::Remote`] and warm the response cache
//! ([`ServiceRegistry::warm_remote`]), so a request for a remotely
//! learned service is answered from the local cache — a **remote hit**,
//! counted separately in [`MeshStats`] and
//! [`crate::BridgeStats::remote_cache_hits`] — instead of re-fanning
//! out to the local units.
//!
//! # Liveness and partitions
//!
//! Only *response* frames (PULL, RECORDS, ACK, RELAY) prove a peer
//! alive: an ingress-partitioned peer still multicasts digests, so a
//! digest proves nothing about the reverse path. Each unanswered digest
//! counts a miss; [`MeshConfig::down_after`] misses mark the peer down.
//! While a peer is down, every locally published advert is held in that
//! peer's bounded [`custody`] queue; the first response frame after the
//! partition heals marks it up and replays custody as RELAY frames.
//! Down peers keep receiving digests — the probe that detects healing.
//!
//! # Concurrency and lock order
//!
//! All mutable mesh state sits behind one `Mutex`. The lock order is
//! **mesh, then shard**: handlers may call into the registry while
//! holding the mesh lock (the registry never calls back into the mesh).
//! The mesh lock is **never** held across a transport send — on the
//! deterministic [`SimTransport`](indiss_net::SimTransport) bus a send
//! can deliver a reply into this gateway's own sink on the same call
//! stack, so handlers stage outgoing frames and send after unlocking.
//!
//! # Determinism
//!
//! The mesh has no clock and no randomness of its own: time arrives as
//! [`SimTime`] through [`MeshNode::tick`]/[`MeshNode::run_round`], peers
//! are iterated in configuration order, and the transport seam supplies
//! the network — a 10-gateway mesh on `SimTransport` (with
//! [`FaultPlan`](indiss_net::FaultPlan) partitions, if desired) replays
//! identically from a seed, while `BatchedTransport` carries the same
//! frames on real sockets.

mod custody;
pub(crate) mod wire;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Duration;

use indiss_net::{Datagram, PeerChannel, SimTime, Transport};

use crate::error::{CoreError, CoreResult};
use crate::event::{Event, EventStream, SdpProtocol};
use crate::obs::{Phase, Tracer};
use crate::protocol::ProtocolId;
use crate::registry::{PeerId, RemoteDisposition, ServiceRecord, ServiceRegistry};
use custody::CustodyQueue;
use wire::{Frame, WireOrigin, WireRecord};

/// Knobs for one gateway's mesh plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshConfig {
    /// This gateway's own peer port — its mesh-wide identity and the
    /// port its peer channel binds (pre-offset; the transport maps it).
    pub port: u16,
    /// Peer ports to gossip with. Entries equal to `port` are ignored.
    pub peers: Vec<u16>,
    /// Virtual time between gossip rounds.
    pub gossip_interval: Duration,
    /// Most adverts held in custody per down peer; beyond this the
    /// oldest is dropped and counted.
    pub custody_capacity: usize,
    /// How long a custody entry survives before lapsing unsent.
    pub custody_ttl: Duration,
    /// Consecutive unanswered digests before a peer is marked down.
    pub down_after: u32,
    /// Shared mesh secret keying the frame signatures. All gateways of
    /// one mesh must agree; frames keyed differently are rejected.
    pub key: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            port: 7100,
            peers: Vec::new(),
            gossip_interval: Duration::from_millis(500),
            custody_capacity: 32,
            custody_ttl: Duration::from_secs(60),
            down_after: 2,
            key: 0x1D15_5000_0000_4EED,
        }
    }
}

indiss_net::counter_family! {
    /// Counters the mesh maintains; every field is deterministic under
    /// `SimTransport`, so tests pin exact values and same-seed replays
    /// compare whole snapshots for equality.
    pub struct MeshStats {
        /// Gossip rounds run.
        rounds_run,
        /// Digest frames sent (one per peer per round).
        digests_sent,
        /// Digest frames received.
        digests_received,
        /// Digests whose shard count differed from the peer's earlier
        /// digests (the peer restarted with a different registry layout);
        /// pull state was reset and the peer re-synced from scratch.
        digest_resyncs,
        /// "Nothing to pull" replies sent.
        acks_sent,
        /// "Nothing to pull" replies received.
        acks_received,
        /// Pull requests sent after a digest showed news.
        pulls_sent,
        /// Pull requests received and answered.
        pulls_received,
        /// Records shipped to peers (pull answers and relays).
        records_sent,
        /// Records received from peers.
        records_received,
        /// Received records that changed the local registry.
        records_applied,
        /// Received records already covered locally (the anti-entropy
        /// fixpoint), unresolvable, or unkeyed.
        records_stale,
        /// Datagrams that failed frame decoding or signature verification,
        /// plus frames from unknown peers.
        frames_rejected,
        /// Adverts placed into custody for down peers.
        custody_enqueued,
        /// Custody entries dropped by the capacity bound (oldest first).
        custody_dropped,
        /// Custody entries that lapsed before their peer returned.
        custody_expired,
        /// Custody entries replayed as RELAY frames on reconnect.
        custody_replayed,
        /// Transitions of a peer to down.
        peers_down,
        /// Transitions of a peer back to up.
        peers_reconnected,
    }
}

/// Per-peer gossip state.
#[derive(Debug)]
struct PeerState {
    /// The peer's well-known port (its identity).
    port: u16,
    /// Per-shard versions already pulled from this peer, in the peer's
    /// own shard numbering. Sized on first digest.
    pulled: Vec<u64>,
    /// A digest went out and no response frame has come back yet.
    outstanding: bool,
    /// Consecutive unanswered digests.
    misses: u32,
    /// Marked down; adverts go to custody until a response arrives.
    down: bool,
    /// Adverts held while the peer is down.
    custody: CustodyQueue,
}

struct MeshInner {
    round: u64,
    next_round_at: SimTime,
    peers: Vec<PeerState>,
    stats: MeshStats,
}

struct MeshShared {
    registry: ServiceRegistry,
    config: MeshConfig,
    transport: Arc<dyn Transport>,
    channel: OnceLock<PeerChannel>,
    /// Latest virtual time observed from the driving side
    /// (`tick`/`run_round`/`publish`); datagram handlers read it.
    now_nanos: AtomicU64,
    /// Optional span recorder; gossip rounds land as zero-width
    /// [`Phase::Gossip`] spans at virtual time, lane = mesh port.
    tracer: OnceLock<Tracer>,
    inner: Mutex<MeshInner>,
}

/// One gateway's handle on the federated mesh. Cheap to clone; all
/// clones share the same peer state.
#[derive(Clone)]
pub struct MeshNode {
    shared: Arc<MeshShared>,
}

impl std::fmt::Debug for MeshNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshNode").field("port", &self.shared.config.port).finish()
    }
}

impl MeshNode {
    /// Creates a mesh node serving `registry` over `transport`. Call
    /// [`MeshNode::start`] to bind the peer channel.
    pub fn new(
        registry: ServiceRegistry,
        transport: Arc<dyn Transport>,
        config: MeshConfig,
    ) -> MeshNode {
        let peers = config
            .peers
            .iter()
            .copied()
            .filter(|&p| p != config.port)
            .map(|port| PeerState {
                port,
                pulled: Vec::new(),
                outstanding: false,
                misses: 0,
                down: false,
                custody: CustodyQueue::default(),
            })
            .collect();
        MeshNode {
            shared: Arc::new(MeshShared {
                registry,
                config,
                transport,
                channel: OnceLock::new(),
                now_nanos: AtomicU64::new(0),
                tracer: OnceLock::new(),
                inner: Mutex::new(MeshInner {
                    round: 0,
                    next_round_at: SimTime::ZERO,
                    peers,
                    stats: MeshStats::default(),
                }),
            }),
        }
    }

    /// Binds the peer channel on [`MeshConfig::port`] and starts
    /// receiving peer frames.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when already started;
    /// [`CoreError::Net`] on transport bind failures.
    pub fn start(&self) -> CoreResult<()> {
        if self.shared.channel.get().is_some() {
            return Err(CoreError::BadConfig("mesh already started"));
        }
        // A digest frame carries at most MAX_SHARDS versions; refusing
        // a larger registry here beats silently gossiping a truncated
        // vector (records on the dropped shards would never propagate).
        if self.shared.registry.shard_count() > wire::MAX_SHARDS {
            return Err(CoreError::BadConfig(
                "the mesh digest wire carries at most 256 shards; lower RegistryConfig::shards",
            ));
        }
        let weak: Weak<MeshShared> = Arc::downgrade(&self.shared);
        let sink = Arc::new(move |dgram: Datagram| {
            if let Some(shared) = weak.upgrade() {
                shared.on_datagram(&dgram);
            }
        });
        let channel =
            PeerChannel::bind(Arc::clone(&self.shared.transport), self.shared.config.port, sink)?;
        self.shared.channel.set(channel).map_err(|_| CoreError::BadConfig("mesh already started"))
    }

    /// The mesh configuration this node runs with.
    pub fn config(&self) -> &MeshConfig {
        &self.shared.config
    }

    /// Attaches `tracer`: each gossip round records a zero-width
    /// [`Phase::Gossip`] span at its virtual time with the node's mesh
    /// port as the lane. First attachment wins; later calls are ignored
    /// (the mesh keeps single-writer rings by routing one port to one
    /// lane).
    pub fn set_tracer(&self, tracer: Tracer) {
        let _ = self.shared.tracer.set(tracer);
    }

    /// Runs one gossip round now: accounts the previous round's
    /// unanswered digests, then sends a fresh digest to every peer
    /// (down peers included — the digest is also the reconnect probe).
    pub fn run_round(&self, now: SimTime) {
        self.shared.set_now(now);
        let outgoing = {
            let mut inner = self.shared.lock();
            self.shared.start_round(&mut inner, now)
        };
        self.shared.send_all(outgoing);
    }

    /// Advances the mesh to `now`: expires custody deadlines and runs a
    /// gossip round when one is due. The driving side (a runtime timer,
    /// or a test) calls this at [`MeshNode::next_deadline`].
    pub fn tick(&self, now: SimTime) {
        self.shared.set_now(now);
        let outgoing = {
            let mut inner = self.shared.lock();
            let inner = &mut *inner;
            for peer in &mut inner.peers {
                inner.stats.custody_expired += peer.custody.expire(now);
            }
            if now >= inner.next_round_at {
                self.shared.start_round(inner, now)
            } else {
                Vec::new()
            }
        };
        self.shared.send_all(outgoing);
    }

    /// The next virtual time [`MeshNode::tick`] has work: the next
    /// gossip round, or an earlier custody deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let inner = self.shared.lock();
        let custody = inner.peers.iter().filter_map(|p| p.custody.next_deadline()).min();
        Some(match custody {
            Some(c) if c < inner.next_round_at => c,
            _ => inner.next_round_at,
        })
    }

    /// Offers a locally observed advert to the mesh. Up peers need
    /// nothing (the next digest carries the news); for every down peer
    /// the advert is held in that peer's custody queue for replay on
    /// reconnect.
    pub fn publish(&self, origin: SdpProtocol, stream: &EventStream, now: SimTime) {
        self.shared.set_now(now);
        let default_ttl = self.shared.registry.config().default_advert_ttl;
        let Some(record) = ServiceRecord::from_advert(origin, stream, now, default_ttl) else {
            return;
        };
        let deadline = now.saturating_add(self.shared.config.custody_ttl);
        let capacity = self.shared.config.custody_capacity;
        let mut inner = self.shared.lock();
        let inner = &mut *inner;
        for peer in &mut inner.peers {
            if !peer.down {
                continue;
            }
            let dropped = peer.custody.push(record.clone(), deadline, capacity);
            inner.stats.custody_enqueued += 1;
            if dropped {
                inner.stats.custody_dropped += 1;
            }
        }
    }

    /// Snapshot of the mesh counters.
    pub fn stats(&self) -> MeshStats {
        self.shared.lock().stats
    }

    /// True when `peer` is currently marked down.
    pub fn peer_down(&self, peer: u16) -> bool {
        self.shared.lock().peers.iter().any(|p| p.port == peer && p.down)
    }

    /// Adverts currently held in custody for `peer`.
    pub fn custody_len(&self, peer: u16) -> usize {
        self.shared.lock().peers.iter().find(|p| p.port == peer).map_or(0, |p| p.custody.len())
    }
}

impl MeshShared {
    fn lock(&self) -> MutexGuard<'_, MeshInner> {
        self.inner.lock().expect("mesh state poisoned")
    }

    fn set_now(&self, now: SimTime) {
        self.now_nanos.fetch_max(now.as_nanos(), Ordering::Relaxed);
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_nanos.load(Ordering::Relaxed))
    }

    /// Sends staged frames. Must be called with the mesh lock released:
    /// on the sim bus a send can synchronously deliver a peer's reply
    /// back into this node's own sink.
    fn send_all(&self, outgoing: Vec<(u16, Vec<u8>)>) {
        let Some(channel) = self.channel.get() else {
            return;
        };
        for (peer_port, payload) in outgoing {
            // Send failures are a network property, not a mesh error:
            // anti-entropy retries by construction next round.
            let _ = channel.send(&payload, peer_port);
        }
    }

    /// The round opener; runs under the mesh lock, returns frames to
    /// send after unlock.
    fn start_round(&self, inner: &mut MeshInner, now: SimTime) -> Vec<(u16, Vec<u8>)> {
        if let Some(tracer) = self.tracer.get() {
            tracer.record_at(usize::from(self.config.port), Phase::Gossip, now, now);
        }
        inner.round += 1;
        inner.next_round_at = now.saturating_add(self.config.gossip_interval);
        inner.stats.rounds_run += 1;
        let versions = self.registry.shard_versions();
        let digest = wire::encode_frame(
            &Frame::Digest { from: self.config.port, round: inner.round, versions },
            self.config.key,
        );
        let mut outgoing = Vec::with_capacity(inner.peers.len());
        for peer in &mut inner.peers {
            if peer.outstanding {
                peer.misses += 1;
                if !peer.down && peer.misses >= self.config.down_after {
                    peer.down = true;
                    inner.stats.peers_down += 1;
                }
            }
            peer.outstanding = true;
            inner.stats.digests_sent += 1;
            outgoing.push((peer.port, digest.clone()));
        }
        outgoing
    }

    fn on_datagram(&self, dgram: &Datagram) {
        let now = self.now();
        let frame = match wire::decode_frame(&dgram.payload, self.config.key) {
            Ok(frame) => frame,
            Err(_) => {
                self.lock().stats.frames_rejected += 1;
                return;
            }
        };
        let outgoing = {
            let mut inner = self.lock();
            self.handle_frame(&mut inner, frame, now)
        };
        self.send_all(outgoing);
    }

    fn handle_frame(
        &self,
        inner: &mut MeshInner,
        frame: Frame,
        now: SimTime,
    ) -> Vec<(u16, Vec<u8>)> {
        let from = match &frame {
            Frame::Digest { from, .. }
            | Frame::Pull { from, .. }
            | Frame::Records { from, .. }
            | Frame::Ack { from, .. }
            | Frame::Relay { from, .. } => *from,
        };
        let Some(peer_idx) = inner.peers.iter().position(|p| p.port == from) else {
            inner.stats.frames_rejected += 1;
            return Vec::new();
        };
        let mut outgoing = Vec::new();
        match frame {
            Frame::Digest { round, versions, .. } => {
                // A digest is NOT proof of liveness: an
                // ingress-partitioned peer keeps sending digests while
                // hearing nothing. Only response frames clear misses.
                inner.stats.digests_received += 1;
                let peer = &mut inner.peers[peer_idx];
                if peer.pulled.len() != versions.len() {
                    // A changed shard count means the peer restarted
                    // with a different registry layout: treat it as a
                    // new incarnation — reset pull state and re-sync
                    // from scratch rather than refusing the peer
                    // forever.
                    if !peer.pulled.is_empty() {
                        inner.stats.digest_resyncs += 1;
                    }
                    peer.pulled = vec![0; versions.len()];
                }
                let shards: Vec<u16> = versions
                    .iter()
                    .enumerate()
                    .filter(|&(i, &v)| v > peer.pulled[i])
                    .map(|(i, _)| i as u16)
                    .collect();
                let reply = if shards.is_empty() {
                    inner.stats.acks_sent += 1;
                    Frame::Ack { from: self.config.port, round }
                } else {
                    inner.stats.pulls_sent += 1;
                    Frame::Pull { from: self.config.port, round, shards }
                };
                outgoing.push((from, wire::encode_frame(&reply, self.config.key)));
            }
            Frame::Pull { shards, .. } => {
                inner.stats.pulls_received += 1;
                self.mark_alive(inner, peer_idx, now, &mut outgoing);
                for shard in shards {
                    let idx = usize::from(shard);
                    if idx >= self.registry.shard_count() {
                        continue;
                    }
                    // Version before records: a mutation landing between
                    // the two reads re-advertises next digest, which
                    // anti-entropy absorbs; the converse would lose it.
                    let version = self.registry.content_version(idx);
                    let records: Vec<WireRecord> = self
                        .registry
                        .shard_records(idx, now)
                        .iter()
                        .filter_map(|r| record_to_wire(r, now))
                        .collect();
                    inner.stats.records_sent += records.len() as u64;
                    let reply = Frame::Records { from: self.config.port, shard, version, records };
                    outgoing.push((from, wire::encode_frame(&reply, self.config.key)));
                }
            }
            Frame::Records { shard, version, records, .. } => {
                self.mark_alive(inner, peer_idx, now, &mut outgoing);
                inner.stats.records_received += records.len() as u64;
                for record in records {
                    self.apply_wire_record(inner, record, PeerId(from), now);
                }
                let peer = &mut inner.peers[peer_idx];
                if let Some(pulled) = peer.pulled.get_mut(usize::from(shard)) {
                    *pulled = (*pulled).max(version);
                }
            }
            Frame::Ack { .. } => {
                inner.stats.acks_received += 1;
                self.mark_alive(inner, peer_idx, now, &mut outgoing);
            }
            Frame::Relay { records, .. } => {
                self.mark_alive(inner, peer_idx, now, &mut outgoing);
                inner.stats.records_received += records.len() as u64;
                for record in records {
                    self.apply_wire_record(inner, record, PeerId(from), now);
                }
            }
        }
        outgoing
    }

    /// A response frame arrived from `peer`: clear its miss counter,
    /// and when it was down, bring it back and stage custody replay.
    fn mark_alive(
        &self,
        inner: &mut MeshInner,
        peer_idx: usize,
        now: SimTime,
        outgoing: &mut Vec<(u16, Vec<u8>)>,
    ) {
        let peer = &mut inner.peers[peer_idx];
        peer.outstanding = false;
        peer.misses = 0;
        if !peer.down {
            return;
        }
        peer.down = false;
        inner.stats.peers_reconnected += 1;
        let entries = inner.peers[peer_idx].custody.drain();
        let port = inner.peers[peer_idx].port;
        let mut records = Vec::new();
        for entry in entries {
            if entry.deadline <= now {
                inner.stats.custody_expired += 1;
                continue;
            }
            match record_to_wire(&entry.record, now) {
                Some(record) => records.push(record),
                // The record's own TTL ran out in custody.
                None => inner.stats.custody_expired += 1,
            }
        }
        for chunk in records.chunks(wire::MAX_RECORDS) {
            inner.stats.custody_replayed += chunk.len() as u64;
            inner.stats.records_sent += chunk.len() as u64;
            let frame = Frame::Relay { from: self.config.port, records: chunk.to_vec() };
            outgoing.push((port, wire::encode_frame(&frame, self.config.key)));
        }
    }

    /// Lands one gossiped record in the local registry with remote
    /// attribution, warming the response cache on success so the next
    /// request for its type is a remote hit.
    fn apply_wire_record(
        &self,
        inner: &mut MeshInner,
        record: WireRecord,
        peer: PeerId,
        now: SimTime,
    ) {
        let Some(origin) = resolve_origin(&record.origin) else {
            inner.stats.records_stale += 1;
            return;
        };
        let advert = advert_stream(&record);
        match self.registry.record_remote(origin, &advert, peer, now) {
            RemoteDisposition::Applied | RemoteDisposition::Refreshed => {
                inner.stats.records_applied += 1;
                self.registry.warm_remote(&record.canonical_type, response_stream(&record), now);
            }
            RemoteDisposition::Stale | RemoteDisposition::Ignored => {
                inner.stats.records_stale += 1;
            }
        }
    }
}

/// Freezes a live record for the wire, converting its absolute expiry
/// back to a remaining TTL in whole seconds, rounded **up** so a record
/// never dies early in transit. The receiver's rebuilt expiry can
/// therefore sit up to one second past the sender's; the registry's
/// remote equivalence check absorbs exactly that quantum
/// ([`ServiceRegistry::record_remote`]), which is what keeps
/// anti-entropy converging on fractional-second round times. `None`
/// when already dead.
fn record_to_wire(record: &ServiceRecord, now: SimTime) -> Option<WireRecord> {
    if record.is_expired(now) {
        return None;
    }
    let ttl_secs = match record.expires_at() {
        None => None,
        Some(at) => {
            let remaining = at.as_nanos().saturating_sub(now.as_nanos());
            Some(remaining.div_ceil(1_000_000_000).min(u64::from(u32::MAX)) as u32)
        }
    };
    Some(WireRecord {
        origin: WireOrigin::Builtin(record.origin()),
        canonical_type: record.canonical_type().to_owned(),
        key: record.key().to_owned(),
        url: record.endpoint().map(str::to_owned),
        ttl_secs,
    })
}

/// Resolves a wire origin against the local protocol table. Dynamic
/// protocols must already be registered here (by name *and* port) —
/// wire input never registers protocols.
fn resolve_origin(origin: &WireOrigin) -> Option<SdpProtocol> {
    match origin {
        WireOrigin::Builtin(p) => Some(*p),
        WireOrigin::Dynamic { name, port } => {
            ProtocolId::lookup(name).filter(|id| id.port() == *port).map(SdpProtocol::Dynamic)
        }
    }
}

/// Reconstructs an advert stream whose derived identity
/// ([`crate::registry::advert_key`]) matches the wire record's key, so
/// the record keeps one identity mesh-wide.
fn advert_stream(record: &WireRecord) -> EventStream {
    let mut events =
        vec![Event::ServiceAlive, Event::ServiceType(record.canonical_type.as_str().into())];
    let key_is_derivable = match &record.url {
        Some(url) => *url == record.key,
        None => record.key == record.canonical_type,
    };
    if !key_is_derivable {
        events.push(Event::UpnpUsn(record.key.as_str().into()));
    }
    if let Some(url) = &record.url {
        events.push(Event::ResServUrl(url.as_str().into()));
    }
    if let Some(ttl) = record.ttl_secs {
        events.push(Event::ResTtl(ttl));
    }
    EventStream::framed(events)
}

/// The cached response served for remote hits of this record's type.
fn response_stream(record: &WireRecord) -> EventStream {
    let mut events = vec![
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType(record.canonical_type.as_str().into()),
    ];
    if let Some(url) = &record.url {
        events.push(Event::ResServUrl(url.as_str().into()));
    }
    if let Some(ttl) = record.ttl_secs {
        events.push(Event::ResTtl(ttl));
    }
    EventStream::framed(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use indiss_net::SimTransport;

    fn node(shards: usize) -> MeshNode {
        let registry = ServiceRegistry::new(RegistryConfig { shards, ..RegistryConfig::default() });
        MeshNode::new(
            registry,
            Arc::new(SimTransport::new()),
            MeshConfig { port: 7100, peers: vec![7101], ..MeshConfig::default() },
        )
    }

    /// A peer that restarts with a different shard count is a new
    /// incarnation: its pull state resets and it re-syncs from scratch
    /// instead of being rejected forever.
    #[test]
    fn shard_count_change_resets_pull_state_instead_of_rejecting() {
        let node = node(1);
        let now = SimTime::from_secs(1);
        let digest = |versions: Vec<u64>| Frame::Digest { from: 7101, round: 1, versions };

        let mut inner = node.shared.lock();
        let out = node.shared.handle_frame(&mut inner, digest(vec![3, 3]), now);
        assert_eq!(out.len(), 1, "first digest answered");
        assert_eq!(inner.peers[0].pulled.len(), 2, "pull state sized from the digest");

        let out = node.shared.handle_frame(&mut inner, digest(vec![1, 0, 0, 2]), now);
        assert_eq!(out.len(), 1, "the resized digest is still answered");
        assert_eq!(inner.peers[0].pulled.len(), 4, "pull state resized to the new layout");
        assert_eq!(inner.stats.digest_resyncs, 1);
        assert_eq!(inner.stats.digests_received, 2);
    }

    /// A registry sharded beyond what a digest frame carries is refused
    /// at startup instead of silently gossiping a truncated vector.
    #[test]
    fn start_rejects_more_shards_than_the_digest_wire_carries() {
        let oversharded = node(wire::MAX_SHARDS + 1);
        assert!(matches!(oversharded.start(), Err(CoreError::BadConfig(_))));
        assert!(node(wire::MAX_SHARDS).start().is_ok(), "the cap itself is fine");
    }

    /// The table is the contract, and the mesh counters render under
    /// `indiss_mesh_*` through the same generated code as every other
    /// family (nothing scrapes them yet).
    #[test]
    fn mesh_family_table_is_the_contract() {
        MeshStats::assert_family_contract("indiss_mesh");
        let mut page = String::new();
        MeshStats { records_applied: 3, ..MeshStats::default() }.render(&mut page, "indiss_mesh");
        assert!(page.starts_with("indiss_mesh_rounds_run 0\n"), "{page}");
        assert!(page.contains("\nindiss_mesh_records_applied 3\n"), "{page}");
        assert_eq!(page.lines().count(), MeshStats::FIELDS.len());
    }
}
