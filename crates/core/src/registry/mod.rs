//! The service registry: the single source of truth for everything INDISS
//! knows about discovered services (paper §2.2/§4.3 — answering bridged
//! requests from "already-held knowledge").
//!
//! One [`ServiceRegistry`] instance sits behind the runtime and all units
//! and unifies what the first prototype scattered across ad-hoc maps:
//!
//! * **service records** ([`ServiceRecord`]) built from advertisements,
//!   indexed by `(origin protocol, identity)` with secondary indexes by
//!   canonical type, origin protocol and endpoint — O(1) lookups instead
//!   of stringly-keyed scans;
//! * a **bounded LRU response cache** for the paper's warm best case
//!   (§4.3, ~0.1 ms answers), with hit/miss/eviction/expiry counters
//!   surfaced through [`crate::BridgeStats`];
//! * a **negative cache** of "nothing found" outcomes per canonical
//!   type, with a short TTL, so request storms for absent types stop
//!   fanning out to every unit — indexed by type, so an arriving advert
//!   invalidates in O(matching entries);
//! * the **suppression window** that breaks multi-bridge translation
//!   ping-pong;
//! * per-protocol **bridge projections** ([`Projection`]) — the synthetic
//!   artifacts composers mint for foreign services (a UPnP description
//!   URL + USN, SLP attribute lists, Jini service ids) so every unit
//!   shares one view instead of private copies.
//!
//! # Sharding and concurrency
//!
//! The registry is split into [`RegistryConfig::shards`] independently
//! locked shards, routed by canonical-type hash: each shard owns its own
//! record store, response cache, negative cache, projections,
//! suppression map, expiry wheel and [`RegistryStats`]. Requests for
//! disjoint canonical types therefore proceed in parallel with no
//! cross-shard coordination on the warm path, which takes exactly one
//! shard lock per request. `ServiceRegistry` is a
//! cheap `Arc` handle and is `Send + Sync`; cross-shard views (full
//! snapshots, aggregate counts, [`ServiceRegistry::stats`]) lock shards
//! one at a time in ascending index order and merge on read, so there is
//! never a nested lock and never a lost update. The default of one shard
//! preserves the exact single-store semantics (including global LRU
//! order) that the deterministic simulation tests pin down.
//!
//! Every type- and identity-keyed map is keyed on interned [`Symbol`]s,
//! so the hot lookups hash one machine word, and cached event streams
//! are shared buffers — answering from the cache is a reference-count
//! bump, not a deep copy.
//!
//! All stores are capacity-bounded (bounds split evenly across shards)
//! and TTL-bounded. Expiry is exact and deterministic: deadlines live on
//! a per-shard [`expiry`] wheel keyed by [`SimTime`], reads apply lazy
//! expiry checks, and the runtime schedules virtual-time sweep timers at
//! the earliest deadline across shards, so a seeded simulation replays
//! identically and memory stays bounded under churn.

mod expiry;
mod index;
mod record;
mod shard;

pub use record::{PeerId, RecordOrigin, ServiceRecord};

use std::sync::{Arc, Mutex};
use std::time::Duration;

use indiss_net::SimTime;

use crate::event::{Event, EventStream, SdpProtocol, Symbol};
use expiry::Target;
use index::InsertOutcome;
use shard::{CachedResponse, Shard};

/// Capacity and TTL knobs for the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryConfig {
    /// Maximum number of service records held (least-recently-updated
    /// records are evicted beyond this; split evenly across shards).
    pub advert_capacity: usize,
    /// Maximum number of cached responses (LRU eviction beyond this;
    /// split evenly across shards).
    pub cache_capacity: usize,
    /// How long cached responses stay valid.
    pub cache_ttl: Duration,
    /// TTL applied to adverts that do not carry their own `SDP_RES_TTL`;
    /// `None` keeps such records until evicted.
    pub default_advert_ttl: Option<Duration>,
    /// How long a "nothing found" outcome is remembered per canonical
    /// type. Kept short: a service appearing right after a miss must not
    /// stay invisible for long (arriving adverts also invalidate the
    /// entry eagerly).
    pub negative_ttl: Duration,
    /// Number of independently locked shards the stores are split into,
    /// routed by canonical-type hash. One shard (the default) preserves
    /// global LRU semantics exactly; more shards let concurrent threads
    /// serve disjoint types in parallel.
    pub shards: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            advert_capacity: 4096,
            cache_capacity: 256,
            cache_ttl: Duration::from_secs(60),
            default_advert_ttl: Some(Duration::from_secs(1800)),
            negative_ttl: Duration::from_secs(2),
            shards: 1,
        }
    }
}

indiss_net::counter_family! {
    /// Counters the registry maintains; folded into [`crate::BridgeStats`].
    /// Maintained per shard and merged on read by
    /// [`ServiceRegistry::stats`], so concurrent workers never contend on
    /// (or lose) a shared counter.
    pub struct RegistryStats {
        /// Cache lookups answered from a live entry.
        cache_hits,
        /// Of those hits, how many were served from responses learned from
        /// a mesh peer ([`ServiceRegistry::warm_remote`]) rather than from
        /// this gateway's own bridged traffic.
        remote_cache_hits,
        /// Cache lookups that found nothing usable.
        cache_misses,
        /// Cache entries evicted by the LRU capacity bound.
        cache_evictions,
        /// Cache entries dropped because their TTL elapsed.
        cache_expired,
        /// Lookups answered by the negative cache ("nothing found" without a
        /// fan-out).
        negative_hits,
        /// Negative-cache entries stored.
        negative_stored,
        /// Service records newly inserted.
        records_inserted,
        /// Service records refreshed by a newer advert.
        records_refreshed,
        /// Service records evicted by the capacity bound.
        records_evicted,
        /// Service records dropped because their TTL elapsed.
        records_expired,
        /// Service records removed by byebye advertisements.
        records_removed,
    }
}

/// What [`ServiceRegistry::record_advert`] did with a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvertDisposition {
    /// A new record was stored.
    Recorded,
    /// An existing record was refreshed.
    Refreshed,
    /// A byebye removed the record.
    Removed,
    /// A byebye for a service with no live record (already expired or
    /// evicted); nothing to remove, but the retraction itself is still
    /// meaningful to forward.
    NotPresent,
    /// The stream carried no usable identity; nothing stored.
    Ignored,
}

/// What [`ServiceRegistry::record_remote`] did with a record pulled
/// from a mesh peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteDisposition {
    /// A new record was stored with remote provenance.
    Applied,
    /// An existing record was refreshed (the pulled copy was newer).
    Refreshed,
    /// An equivalent live record already exists; nothing changed and
    /// the shard's content version did not advance (this is what stops
    /// two peers from bumping each other's versions forever).
    Stale,
    /// The record carried no usable identity; nothing stored.
    Ignored,
}

/// Slack [`ServiceRegistry::record_remote`]'s equivalence check grants
/// a rebuilt expiry. The mesh wire carries remaining TTL in whole
/// seconds rounded *up* (so a record never dies early in transit),
/// which means a receiver re-deriving `now + ttl` can land up to one
/// second past the sender's true expiry without carrying any news.
/// Treating that window as covered is what lets anti-entropy reach its
/// digest/ack fixpoint on fractional-second round times; a genuine
/// refresh extends a record by its full TTL, far beyond this slack.
const REMOTE_EXPIRY_SLACK: Duration = Duration::from_secs(1);

/// Synthetic artifacts a unit minted for a bridged foreign service,
/// shared through the registry so every layer sees one copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Projection {
    /// Description-document URL served for the service (UPnP).
    pub location: Option<String>,
    /// Unique service name advertised for the service (UPnP).
    pub usn: Option<String>,
    /// The synthetic description document itself (UPnP); served over
    /// HTTP straight from the projection, so its lifetime is bounded by
    /// the projection store instead of an ever-growing side map.
    pub document: Option<String>,
    /// Attribute list recorded for follow-up attribute queries (SLP).
    pub attrs: Vec<(String, String)>,
    /// Stable service id minted for the service (Jini).
    pub service_id: Option<u64>,
}

/// Report of one expiry sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Service records dropped by this sweep.
    pub records_expired: u64,
    /// Cache entries dropped by this sweep.
    pub cache_expired: u64,
    /// Negative-cache entries dropped by this sweep.
    pub negative_expired: u64,
}

pub(super) struct RegistryShared {
    pub(super) config: RegistryConfig,
    pub(super) shards: Box<[Mutex<Shard>]>,
}

/// Handle to the shared registry. Cloning is cheap and refers to the
/// same store; the handle is `Send + Sync`, so runtime workers on
/// different threads operate on the same registry concurrently (each
/// canonical type's state lives behind exactly one shard lock).
#[derive(Clone)]
pub struct ServiceRegistry {
    pub(super) shared: Arc<RegistryShared>,
}

impl ServiceRegistry {
    /// Creates an empty registry with the given bounds.
    pub fn new(config: RegistryConfig) -> ServiceRegistry {
        let shard_count = config.shards.max(1);
        let shards: Box<[Mutex<Shard>]> =
            (0..shard_count).map(|_| Mutex::new(Shard::new(&config, shard_count))).collect();
        ServiceRegistry { shared: Arc::new(RegistryShared { config, shards }) }
    }

    /// The configured bounds.
    pub fn config(&self) -> RegistryConfig {
        self.shared.config.clone()
    }

    // ------------------------------------------------------------------
    // Advert records
    // ------------------------------------------------------------------

    /// Records an advertisement stream: alive adverts insert or refresh a
    /// [`ServiceRecord`]; byebyes remove it. A stored alive advert also
    /// invalidates any negative-cache entry for its type.
    pub fn record_advert(
        &self,
        origin: SdpProtocol,
        stream: &EventStream,
        now: SimTime,
    ) -> AdvertDisposition {
        let Some(key) = record::advert_key(stream) else {
            return AdvertDisposition::Ignored;
        };
        if stream.is_byebye() {
            // Records live on the shard of their canonical type; a
            // byebye normally carries the type, so the home shard is hit
            // first, with a cross-shard fallback for retractions that
            // only carry an identity.
            let home = self.shard_index(&stream.service_type_symbol().unwrap_or_default());
            let others = (0..self.shared.shards.len()).filter(|i| *i != home);
            for idx in std::iter::once(home).chain(others) {
                let mut shard = self.lock_shard(idx);
                if shard.store.remove(origin, key.clone()).is_some() {
                    shard.stats.records_removed += 1;
                    shard.content_version += 1;
                    return AdvertDisposition::Removed;
                }
            }
            return AdvertDisposition::NotPresent;
        }
        let default_ttl = self.shared.config.default_advert_ttl;
        let Some(record) = ServiceRecord::from_advert(origin, stream, now, default_ttl) else {
            return AdvertDisposition::Ignored;
        };
        let type_sym = record.canonical_type_symbol();
        let expires = record.expires_at();
        let mut shard = self.shard_for(&type_sym);
        shard.clear_negative(&type_sym);
        let (slot, outcome) = shard.store.upsert(record);
        if let Some(at) = expires {
            let generation = shard.store.generation(slot);
            shard.wheel.arm(at, Target::Advert { slot, generation });
        }
        match outcome {
            InsertOutcome::Inserted => {
                shard.stats.records_inserted += 1;
                shard.content_version += 1;
                AdvertDisposition::Recorded
            }
            InsertOutcome::Refreshed => {
                shard.stats.records_refreshed += 1;
                shard.content_version += 1;
                AdvertDisposition::Refreshed
            }
            InsertOutcome::Evicted(_) => {
                shard.stats.records_inserted += 1;
                shard.stats.records_evicted += 1;
                // Two record mutations: the victim left, the new one
                // landed.
                shard.content_version += 2;
                AdvertDisposition::Recorded
            }
        }
    }

    /// Applies a record pulled from mesh peer `peer` during gossip: the
    /// alive stream is normalized exactly like a local advert, stamped
    /// [`RecordOrigin::Remote`], and upserted — *unless* an equivalent
    /// live record (same endpoint and canonical type, an expiry no more
    /// than `REMOTE_EXPIRY_SLACK` — the wire's TTL rounding quantum —
    /// earlier) already exists, in which
    /// case nothing changes and the shard's content version does not
    /// advance. The equivalence check is what makes anti-entropy
    /// converge: once two peers hold the same records, pulls stop
    /// mutating and digests stop advancing.
    pub fn record_remote(
        &self,
        origin: SdpProtocol,
        stream: &EventStream,
        peer: PeerId,
        now: SimTime,
    ) -> RemoteDisposition {
        let default_ttl = self.shared.config.default_advert_ttl;
        let Some(mut record) = ServiceRecord::from_advert(origin, stream, now, default_ttl) else {
            return RemoteDisposition::Ignored;
        };
        record.set_provenance(RecordOrigin::Remote(peer));
        let type_sym = record.canonical_type_symbol();
        let expires = record.expires_at();
        let mut shard = self.shard_for(&type_sym);
        if let Some(existing) = shard.store.get(origin, record.key_symbol()) {
            let covered = !existing.is_expired(now)
                && existing.endpoint() == record.endpoint()
                && existing.canonical_type() == record.canonical_type()
                && match (existing.expires_at(), record.expires_at()) {
                    (None, _) => true,
                    (Some(theirs), Some(ours)) => {
                        theirs.saturating_add(REMOTE_EXPIRY_SLACK) >= ours
                    }
                    (Some(_), None) => false,
                };
            if covered {
                return RemoteDisposition::Stale;
            }
        }
        shard.clear_negative(&type_sym);
        let (slot, outcome) = shard.store.upsert(record);
        if let Some(at) = expires {
            let generation = shard.store.generation(slot);
            shard.wheel.arm(at, Target::Advert { slot, generation });
        }
        match outcome {
            InsertOutcome::Inserted => {
                shard.stats.records_inserted += 1;
                shard.content_version += 1;
                RemoteDisposition::Applied
            }
            InsertOutcome::Refreshed => {
                shard.stats.records_refreshed += 1;
                shard.content_version += 1;
                RemoteDisposition::Refreshed
            }
            InsertOutcome::Evicted(_) => {
                shard.stats.records_inserted += 1;
                shard.stats.records_evicted += 1;
                shard.content_version += 2;
                RemoteDisposition::Applied
            }
        }
    }

    /// Number of live (non-expired) service records across all shards.
    pub fn record_count(&self) -> usize {
        self.fold_shards(0usize, |acc, shard| *acc += shard.store.len())
    }

    /// The live record identified by `(origin, key)`, if any. The key is
    /// an identity, not a canonical type, so this scans the shards (a
    /// cold-path, test-and-tooling API).
    pub fn record(
        &self,
        origin: SdpProtocol,
        key: impl Into<Symbol>,
        now: SimTime,
    ) -> Option<ServiceRecord> {
        let key = key.into();
        for idx in 0..self.shared.shards.len() {
            let shard = self.lock_shard(idx);
            if let Some(r) =
                shard.store.get(origin, key.clone()).filter(|r| !r.is_expired(now)).cloned()
            {
                return Some(r);
            }
        }
        None
    }

    /// True when a live record of this canonical type exists.
    pub fn contains_type(&self, canonical_type: impl Into<Symbol>, now: SimTime) -> bool {
        let key = canonical_type.into();
        self.shard_for(&key).store.of_type(key.clone()).any(|r| !r.is_expired(now))
    }

    /// Live records of one canonical type, in insertion order.
    pub fn records_of_type(
        &self,
        canonical_type: impl Into<Symbol>,
        now: SimTime,
    ) -> Vec<ServiceRecord> {
        let key = canonical_type.into();
        self.shard_for(&key)
            .store
            .of_type(key.clone())
            .filter(|r| !r.is_expired(now))
            .cloned()
            .collect()
    }

    /// Number of live records announced by one protocol.
    pub fn record_count_by_origin(&self, origin: SdpProtocol, now: SimTime) -> usize {
        self.fold_shards(0usize, |acc, shard| {
            *acc += shard.store.of_origin(origin).filter(|r| !r.is_expired(now)).count();
        })
    }

    /// The earliest-registered live record advertising `endpoint`, if
    /// any (several protocols may announce the same endpoint).
    pub fn record_by_endpoint(
        &self,
        endpoint: impl Into<Symbol>,
        now: SimTime,
    ) -> Option<ServiceRecord> {
        let key = endpoint.into();
        self.fold_shards(None::<ServiceRecord>, |best, shard| {
            for r in shard.store.by_endpoint(key.clone()).filter(|r| !r.is_expired(now)) {
                if best.as_ref().is_none_or(|b| r.registered_at() < b.registered_at()) {
                    *best = Some(r.clone());
                }
            }
        })
    }

    /// Every live advert as `(origin, stream)`, in deterministic
    /// shard-then-slab order (the active mode re-advertises these). The
    /// streams are shared buffers — this snapshot copies reference
    /// counts, not events.
    pub fn adverts(&self, now: SimTime) -> Vec<(SdpProtocol, EventStream)> {
        self.fold_shards(Vec::new(), |acc, shard| {
            acc.extend(
                shard
                    .store
                    .iter()
                    .filter(|(_, r)| !r.is_expired(now))
                    .map(|(_, r)| (r.origin(), r.advert().clone())),
            );
        })
    }

    // ------------------------------------------------------------------
    // Response cache
    // ------------------------------------------------------------------

    /// Stores a response stream for `canonical_type` (LRU-bounded; the
    /// entry expires after the configured cache TTL). Positive knowledge
    /// also invalidates any negative-cache entry for the type.
    pub fn warm(&self, canonical_type: impl Into<Symbol>, response: EventStream, now: SimTime) {
        self.warm_entry(canonical_type.into(), response, now, false);
    }

    /// Stores a response synthesized from knowledge a mesh peer pushed
    /// or we pulled during gossip. Identical to [`ServiceRegistry::warm`]
    /// except the entry is attributed as remote: hits on it count in
    /// [`RegistryStats::remote_cache_hits`] (on top of `cache_hits`),
    /// so `BridgeStats` can split local from remote warm serving.
    pub fn warm_remote(
        &self,
        canonical_type: impl Into<Symbol>,
        response: EventStream,
        now: SimTime,
    ) {
        self.warm_entry(canonical_type.into(), response, now, true);
    }

    fn warm_entry(&self, key: Symbol, response: EventStream, now: SimTime, remote: bool) {
        let mut shard = self.shard_for(&key);
        shard.clear_negative(&key);
        let expires = now + self.shared.config.cache_ttl;
        let (slot, evicted) = shard.cache.insert(key, CachedResponse { response, expires, remote });
        if evicted.is_some() {
            shard.stats.cache_evictions += 1;
        }
        let generation = shard.cache.generation(slot);
        shard.wheel.arm(expires, Target::Cache { slot, generation });
    }

    /// Answers a lookup from the cache, counting a hit or a miss. Expired
    /// entries are dropped on access (lazy expiry). A hit returns a cheap
    /// clone of the shared response buffer.
    pub fn cached_response(
        &self,
        canonical_type: impl Into<Symbol>,
        now: SimTime,
    ) -> Option<EventStream> {
        let key = canonical_type.into();
        let mut shard = self.shard_for(&key);
        match shard.cache.get(&key) {
            Some(entry) if entry.expires > now => {
                let response = entry.response.clone();
                let remote = entry.remote;
                shard.stats.cache_hits += 1;
                if remote {
                    shard.stats.remote_cache_hits += 1;
                }
                Some(response)
            }
            Some(_) => {
                shard.cache.remove(&key);
                shard.stats.cache_expired += 1;
                shard.stats.cache_misses += 1;
                None
            }
            None => {
                shard.stats.cache_misses += 1;
                None
            }
        }
    }

    /// Degraded-mode read: the best *stale* answer the registry still
    /// holds for this type, TTLs ignored. Prefers the cached response
    /// (even one past its TTL, as long as no sweep reclaimed it) and
    /// falls back to synthesizing a response from the most recently
    /// refreshed service record of the type, expired or not. The
    /// synthesized stream carries a short TTL so a requester does not
    /// hold stale knowledge long. Touches no counters and no LRU
    /// recency — the retry state machine accounts the degradation
    /// itself ([`crate::BridgeStats::stale_served`]).
    pub fn stale_response(&self, canonical_type: impl Into<Symbol>) -> Option<EventStream> {
        const STALE_TTL_SECS: u32 = 30;
        let key = canonical_type.into();
        let shard = self.shard_for(&key);
        if let Some(entry) = shard.cache.peek(&key) {
            return Some(entry.response.clone());
        }
        let record = shard.store.of_type(key.clone()).max_by_key(|r| r.refreshed_at())?;
        let mut body = vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType(record.canonical_type_symbol()),
            Event::ResTtl(STALE_TTL_SECS),
        ];
        body.push(Event::ResServUrl(record.endpoint()?.to_owned()));
        Some(EventStream::framed(body))
    }

    /// True when a live cache entry exists for this type (does not touch
    /// recency or counters).
    pub fn cache_contains(&self, canonical_type: impl Into<Symbol>, now: SimTime) -> bool {
        let key = canonical_type.into();
        self.shard_for(&key).cache.peek(&key).is_some_and(|c| c.expires > now)
    }

    /// Number of cache entries currently held (live or pending expiry).
    pub fn cache_len(&self) -> usize {
        self.fold_shards(0usize, |acc, shard| *acc += shard.cache.len())
    }

    /// Canonical types with a live cache entry, in deterministic
    /// shard-then-slab order.
    pub fn cached_types(&self, now: SimTime) -> Vec<Symbol> {
        self.fold_shards(Vec::new(), |acc, shard| {
            acc.extend(shard.cache.iter().filter(|(_, c)| c.expires > now).map(|(k, _)| k.clone()));
        })
    }

    // ------------------------------------------------------------------
    // Negative cache
    // ------------------------------------------------------------------

    /// Remembers that a fan-out on behalf of an `origin`-protocol
    /// request for `canonical_type` found nothing; for the configured
    /// negative TTL, [`ServiceRegistry::cached_negative`] answers "still
    /// nothing" without bothering the units. Scoped to the requesting
    /// protocol: a different origin fans out to a different unit set, so
    /// its first request must still bridge.
    pub fn warm_negative(
        &self,
        origin: SdpProtocol,
        canonical_type: impl Into<Symbol>,
        now: SimTime,
    ) {
        let ty = canonical_type.into();
        let mut shard = self.shard_for(&ty);
        let expires = now + self.shared.config.negative_ttl;
        let (slot, evicted) = shard.negative.insert((origin, ty.clone()), expires);
        if let Some(((old_origin, old_ty), _)) = evicted {
            shard.unindex_negative(old_origin, &old_ty);
        }
        shard.index_negative(origin, ty);
        shard.stats.negative_stored += 1;
        let generation = shard.negative.generation(slot);
        shard.wheel.arm(expires, Target::Negative { slot, generation });
    }

    /// True when a live "nothing found" entry exists for this (origin,
    /// type); counts a negative hit. Expired entries are dropped on
    /// access.
    pub fn cached_negative(
        &self,
        origin: SdpProtocol,
        canonical_type: impl Into<Symbol>,
        now: SimTime,
    ) -> bool {
        let ty = canonical_type.into();
        let mut shard = self.shard_for(&ty);
        let key = (origin, ty.clone());
        match shard.negative.get(&key) {
            Some(expires) if *expires > now => {
                shard.stats.negative_hits += 1;
                true
            }
            Some(_) => {
                shard.negative.remove(&key);
                shard.unindex_negative(origin, &ty);
                false
            }
            None => false,
        }
    }

    /// Number of negative entries currently held (live or pending
    /// expiry).
    pub fn negative_len(&self) -> usize {
        self.fold_shards(0usize, |acc, shard| *acc += shard.negative.len())
    }

    // ------------------------------------------------------------------
    // Suppression window
    // ------------------------------------------------------------------

    /// True while requests for this type are inside the suppression
    /// window armed by [`ServiceRegistry::mark_bridged`].
    pub fn suppression_active(&self, canonical_type: impl Into<Symbol>, now: SimTime) -> bool {
        let key = canonical_type.into();
        self.shard_for(&key).suppression_active_at(&key, now)
    }

    /// Arms the suppression window for this type until `until`.
    pub fn mark_bridged(&self, canonical_type: impl Into<Symbol>, until: SimTime) {
        let key = canonical_type.into();
        self.shard_for(&key).suppress.insert(key, until);
    }

    // ------------------------------------------------------------------
    // Bridge projections
    // ------------------------------------------------------------------

    /// The projection a unit minted for `(protocol, key)`, if any.
    pub fn projection(&self, protocol: SdpProtocol, key: impl Into<Symbol>) -> Option<Projection> {
        let key = key.into();
        self.shard_for(&key).projections.get(&(protocol, key.clone())).cloned()
    }

    /// Stores (or replaces) the projection for `(protocol, key)`.
    pub fn set_projection(
        &self,
        protocol: SdpProtocol,
        key: impl Into<Symbol>,
        projection: Projection,
    ) {
        let key = key.into();
        self.shard_for(&key).projections.insert((protocol, key.clone()), projection);
    }

    /// Stores `attrs` as the whole projection for `(protocol, key)` —
    /// what an SLP composer records per answered URL so a follow-up
    /// `AttrRqst` can be served. When the projection held already is
    /// exactly that, it is only touched for recency (what a rewrite
    /// would also do) and nothing is allocated: a warm hit re-answers the
    /// same URL on every request.
    pub(crate) fn set_attr_projection<'a>(
        &self,
        protocol: SdpProtocol,
        key: impl Into<Symbol>,
        attrs: impl Iterator<Item = (&'a str, &'a str)> + Clone,
    ) {
        let key = (protocol, key.into());
        let mut shard = self.shard_for(&key.1);
        let unchanged = shard.projections.get(&key).is_some_and(|held| {
            let mut new = attrs.clone();
            held.location.is_none()
                && held.usn.is_none()
                && held.document.is_none()
                && held.service_id.is_none()
                && held.attrs.iter().all(|(t, v)| new.next() == Some((t.as_str(), v.as_str())))
                && new.next().is_none()
        });
        if !unchanged {
            let attrs = attrs.map(|(t, v)| (t.to_owned(), v.to_owned())).collect();
            shard.projections.insert(key, Projection { attrs, ..Projection::default() });
        }
    }

    // ------------------------------------------------------------------
    // Expiry
    // ------------------------------------------------------------------

    /// Drops everything whose TTL elapsed by `now` and prunes stale
    /// suppression entries, shard by shard. Driven by the runtime's
    /// virtual-time sweep timer; reads also expire lazily, so calling
    /// this is a memory bound, not a correctness requirement.
    pub fn sweep(&self, now: SimTime) -> SweepReport {
        self.fold_shards(SweepReport::default(), |acc, shard| {
            let report = shard.sweep(now);
            acc.records_expired += report.records_expired;
            acc.cache_expired += report.cache_expired;
            acc.negative_expired += report.negative_expired;
        })
    }

    /// The earliest pending expiry deadline across all shards, if any
    /// (the runtime schedules its next sweep timer here).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.fold_shards(None::<SimTime>, |acc, shard| {
            if let Some(d) = shard.next_deadline() {
                *acc = Some(acc.map_or(d, |cur| cur.min(d)));
            }
        })
    }

    // ------------------------------------------------------------------
    // Mesh digests
    // ------------------------------------------------------------------

    /// The per-shard content-version vector the mesh gossips as its
    /// registry digest. Reads one counter per shard — never walks a
    /// record store — so building a digest is O(shards) regardless of
    /// how many records are held. Versions advance exactly once per
    /// record mutation (insert, refresh, eviction, removal, expiry).
    pub fn shard_versions(&self) -> Vec<u64> {
        self.fold_shards(Vec::with_capacity(self.shard_count()), |acc, shard| {
            acc.push(shard.content_version);
        })
    }

    /// One shard's content version (see [`ServiceRegistry::shard_versions`]).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn content_version(&self, shard: usize) -> u64 {
        self.lock_shard(shard).content_version
    }

    /// Order-independent digest of the live record *content* (origin,
    /// canonical type, key, endpoint): two registries that hold the
    /// same services hash identically regardless of shard routing,
    /// insertion order or record provenance. A cold-path walk — tests
    /// and convergence gates use it; the gossip hot path uses
    /// [`ServiceRegistry::shard_versions`] instead.
    pub fn content_digest(&self, now: SimTime) -> u64 {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for b in bytes {
                *h ^= u64::from(*b);
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            // Field separator so ("ab", "c") and ("a", "bc") differ.
            *h ^= 0xFF;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.fold_shards(0u64, |acc, shard| {
            for (_, record) in shard.store.iter().filter(|(_, r)| !r.is_expired(now)) {
                let mut h = 0xCBF2_9CE4_8422_2325u64;
                match record.origin() {
                    SdpProtocol::Slp => fnv(&mut h, b"slp"),
                    SdpProtocol::Upnp => fnv(&mut h, b"upnp"),
                    SdpProtocol::Jini => fnv(&mut h, b"jini"),
                    SdpProtocol::Dynamic(id) => {
                        fnv(&mut h, id.name().as_bytes());
                        fnv(&mut h, &id.port().to_le_bytes());
                    }
                }
                fnv(&mut h, record.canonical_type().as_bytes());
                fnv(&mut h, record.key().as_bytes());
                fnv(&mut h, record.endpoint().unwrap_or("").as_bytes());
                // Commutative combine: the digest must not depend on
                // iteration order, which differs per registry.
                *acc = acc.wrapping_add(h | 1);
            }
        })
    }

    /// Live records currently stored on one shard, in slab order (the
    /// mesh serves pull requests from this).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub(crate) fn shard_records(&self, shard: usize, now: SimTime) -> Vec<ServiceRecord> {
        self.lock_shard(shard)
            .store
            .iter()
            .filter(|(_, r)| !r.is_expired(now))
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Snapshot of the registry's counters, merged across shards (one
    /// shard lock at a time, so no update is lost).
    pub fn stats(&self) -> RegistryStats {
        self.fold_shards(RegistryStats::default(), |merged, shard| merged.merge(&shard.stats))
    }
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (records, cached, negative, armed) =
            self.fold_shards((0usize, 0usize, 0usize, 0usize), |acc, shard| {
                acc.0 += shard.store.len();
                acc.1 += shard.cache.len();
                acc.2 += shard.negative.len();
                acc.3 += shard.wheel.armed();
            });
        f.debug_struct("ServiceRegistry")
            .field("shards", &self.shared.shards.len())
            .field("records", &records)
            .field("record_capacity", &self.shared.config.advert_capacity)
            .field("cached_responses", &cached)
            .field("cache_capacity", &self.shared.config.cache_capacity)
            .field("negative_entries", &negative)
            .field("armed_deadlines", &armed)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn alive(ty: &str, url: &str, ttl: Option<u32>) -> EventStream {
        let mut body =
            vec![Event::ServiceAlive, Event::ServiceType(ty.into()), Event::ResServUrl(url.into())];
        if let Some(t) = ttl {
            body.push(Event::ResTtl(t));
        }
        EventStream::framed(body)
    }

    fn byebye(ty: &str, url: &str) -> EventStream {
        EventStream::framed(vec![
            Event::ServiceByeBye,
            Event::ServiceType(ty.into()),
            Event::ResServUrl(url.into()),
        ])
    }

    fn response(ty: &str) -> EventStream {
        EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType(ty.into()),
            Event::ResServUrl(format!("soap://host/{ty}")),
        ])
    }

    #[test]
    fn advert_lifecycle_recorded_refreshed_removed() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let t = SimTime::from_secs(1);
        assert_eq!(
            reg.record_advert(SdpProtocol::Slp, &alive("clock", "slp://a", Some(60)), t),
            AdvertDisposition::Recorded
        );
        assert_eq!(
            reg.record_advert(SdpProtocol::Slp, &alive("clock", "slp://a", Some(60)), t),
            AdvertDisposition::Refreshed
        );
        assert_eq!(reg.record_count(), 1);
        assert!(reg.contains_type("clock", t));
        assert_eq!(
            reg.record_advert(SdpProtocol::Slp, &byebye("clock", "slp://a"), t),
            AdvertDisposition::Removed
        );
        assert_eq!(reg.record_count(), 0);
        assert_eq!(reg.stats().records_removed, 1);
        // A second byebye finds nothing but is still acknowledged, so the
        // runtime can forward the retraction in active mode.
        assert_eq!(
            reg.record_advert(SdpProtocol::Slp, &byebye("clock", "slp://a"), t),
            AdvertDisposition::NotPresent
        );
        assert_eq!(reg.stats().records_removed, 1, "nothing double-counted");
    }

    #[test]
    fn ttl_expiry_is_exact_and_swept() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        reg.record_advert(SdpProtocol::Upnp, &alive("clock", "soap://b", Some(10)), SimTime::ZERO);
        assert!(reg.contains_type("clock", SimTime::from_secs(9)));
        // Lazy: reads past the deadline already miss.
        assert!(!reg.contains_type("clock", SimTime::from_secs(10)));
        // Sweep: memory is reclaimed.
        assert_eq!(reg.next_deadline(), Some(SimTime::from_secs(10)));
        let report = reg.sweep(SimTime::from_secs(10));
        assert_eq!(report.records_expired, 1);
        assert_eq!(reg.record_count(), 0);
        assert_eq!(reg.next_deadline(), None);
    }

    #[test]
    fn refresh_extends_ttl_and_stales_old_deadline() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        reg.record_advert(SdpProtocol::Slp, &alive("clock", "slp://a", Some(5)), SimTime::ZERO);
        reg.record_advert(
            SdpProtocol::Slp,
            &alive("clock", "slp://a", Some(60)),
            SimTime::from_secs(4),
        );
        // The old t=5 deadline is stale; sweeping at t=6 must not drop it.
        let report = reg.sweep(SimTime::from_secs(6));
        assert_eq!(report.records_expired, 0);
        assert!(reg.contains_type("clock", SimTime::from_secs(6)));
        assert_eq!(reg.next_deadline(), Some(SimTime::from_secs(64)));
    }

    #[test]
    fn capacity_bound_evicts() {
        let config = RegistryConfig { advert_capacity: 2, ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        for i in 0..5 {
            reg.record_advert(
                SdpProtocol::Slp,
                &alive(&format!("t{i}"), &format!("u://{i}"), None),
                SimTime::ZERO,
            );
        }
        assert_eq!(reg.record_count(), 2);
        assert_eq!(reg.stats().records_evicted, 3);
        assert!(reg.contains_type("t4", SimTime::ZERO));
        assert!(!reg.contains_type("t0", SimTime::ZERO));
    }

    #[test]
    fn cache_counts_hits_misses_expiry() {
        let config =
            RegistryConfig { cache_ttl: Duration::from_secs(30), ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        let t = SimTime::from_secs(1);
        assert!(reg.cached_response("clock", t).is_none());
        reg.warm("clock", response("clock"), t);
        assert!(reg.cached_response("clock", SimTime::from_secs(30)).is_some());
        assert!(reg.cached_response("clock", SimTime::from_secs(31)).is_none(), "expired");
        let stats = reg.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_expired, 1);
        assert_eq!(reg.cache_len(), 0, "expired entry dropped on access");
    }

    #[test]
    fn cached_response_shares_the_stored_buffer() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let stored = response("clock");
        reg.warm("clock", stored.clone(), SimTime::ZERO);
        let hit = reg.cached_response("clock", SimTime::ZERO).expect("warm");
        assert!(hit.shares_buffer(&stored), "cache answers by reference, not copy");
    }

    #[test]
    fn cache_lru_eviction_at_capacity() {
        let config = RegistryConfig { cache_capacity: 2, ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        let t = SimTime::ZERO;
        reg.warm("a", response("a"), t);
        reg.warm("b", response("b"), t);
        assert!(reg.cached_response("a", t).is_some()); // refresh "a"
        reg.warm("c", response("c"), t);
        assert_eq!(reg.stats().cache_evictions, 1);
        assert!(reg.cache_contains("a", t));
        assert!(!reg.cache_contains("b", t), "LRU victim");
        assert!(reg.cache_contains("c", t));
    }

    #[test]
    fn negative_cache_hits_within_ttl_and_expires() {
        let config =
            RegistryConfig { negative_ttl: Duration::from_secs(2), ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        let t = SimTime::from_secs(1);
        let slp = SdpProtocol::Slp;
        assert!(!reg.cached_negative(slp, "toaster", t), "nothing remembered yet");
        reg.warm_negative(slp, "toaster", t);
        assert!(reg.cached_negative(slp, "toaster", SimTime::from_secs(2)), "within TTL");
        assert!(
            !reg.cached_negative(SdpProtocol::Upnp, "toaster", SimTime::from_secs(2)),
            "scoped per requesting protocol: a UPnP request fans out differently"
        );
        assert!(!reg.cached_negative(slp, "toaster", SimTime::from_secs(3)), "expired");
        assert_eq!(reg.negative_len(), 0, "expired entry dropped on access");
        let stats = reg.stats();
        assert_eq!(stats.negative_stored, 1);
        assert_eq!(stats.negative_hits, 1);
    }

    #[test]
    fn negative_entries_expire_on_the_wheel_like_positive_ones() {
        let config =
            RegistryConfig { negative_ttl: Duration::from_secs(2), ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        reg.warm_negative(SdpProtocol::Slp, "toaster", SimTime::ZERO);
        assert_eq!(reg.next_deadline(), Some(SimTime::from_secs(2)));
        let report = reg.sweep(SimTime::from_secs(2));
        assert_eq!(report.negative_expired, 1);
        assert_eq!(reg.negative_len(), 0, "sweep reclaimed the entry");
        assert_eq!(reg.next_deadline(), None);
    }

    #[test]
    fn positive_knowledge_invalidates_negative_entries() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let t = SimTime::ZERO;
        reg.warm_negative(SdpProtocol::Upnp, "clock", t);
        assert!(reg.cached_negative(SdpProtocol::Upnp, "clock", t));
        // An arriving advert for the type clears the negative memory,
        // whichever protocol's requests armed it.
        reg.record_advert(SdpProtocol::Slp, &alive("clock", "slp://a", Some(60)), t);
        assert!(!reg.cached_negative(SdpProtocol::Upnp, "clock", t), "advert invalidated");
        // Same for a warmed positive response.
        reg.warm_negative(SdpProtocol::Slp, "printer", t);
        reg.warm("printer", response("printer"), t);
        assert!(!reg.cached_negative(SdpProtocol::Slp, "printer", t), "warm invalidated");
    }

    /// The type index behind advert-driven invalidation stays exact
    /// through every removal path: hit-side expiry, wheel expiry,
    /// invalidation and LRU eviction.
    #[test]
    fn negative_type_index_tracks_every_removal_path() {
        let config = RegistryConfig {
            negative_ttl: Duration::from_secs(2),
            cache_capacity: 2,
            ..RegistryConfig::default()
        };
        let reg = ServiceRegistry::new(config);
        let t = SimTime::ZERO;
        // Two origins remember the same absent type.
        reg.warm_negative(SdpProtocol::Slp, "ghost", t);
        reg.warm_negative(SdpProtocol::Upnp, "ghost", t);
        assert_eq!(reg.negative_len(), 2);
        // One advert clears both entries through the index.
        reg.record_advert(SdpProtocol::Jini, &alive("ghost", "jini://g", Some(60)), t);
        assert_eq!(reg.negative_len(), 0, "index-driven invalidation removed both");
        assert!(!reg.cached_negative(SdpProtocol::Slp, "ghost", t));
        assert!(!reg.cached_negative(SdpProtocol::Upnp, "ghost", t));
        // LRU eviction (capacity 2) unindexes the victim: a later advert
        // for the evicted type must be a clean no-op, and the survivor
        // entries must still invalidate correctly.
        reg.warm_negative(SdpProtocol::Slp, "ga", t);
        reg.warm_negative(SdpProtocol::Slp, "gb", t);
        reg.warm_negative(SdpProtocol::Slp, "gc", t); // evicts "ga"
        assert_eq!(reg.negative_len(), 2);
        reg.record_advert(SdpProtocol::Slp, &alive("ga", "slp://ga", Some(60)), t);
        assert_eq!(reg.negative_len(), 2, "evicted entry not double-removed");
        reg.record_advert(SdpProtocol::Slp, &alive("gb", "slp://gb", Some(60)), t);
        assert_eq!(reg.negative_len(), 1, "survivor invalidated via index");
    }

    #[test]
    fn suppression_window_expires_with_time() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        reg.mark_bridged("clock", SimTime::from_millis(600));
        assert!(reg.suppression_active("clock", SimTime::from_millis(599)));
        assert!(!reg.suppression_active("clock", SimTime::from_millis(600)));
        reg.sweep(SimTime::from_secs(1));
        assert!(!reg.suppression_active("clock", SimTime::ZERO), "pruned by sweep");
    }

    #[test]
    fn projections_are_shared_and_bounded() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        assert!(reg.projection(SdpProtocol::Upnp, "clock").is_none());
        reg.set_projection(
            SdpProtocol::Upnp,
            "clock",
            Projection {
                location: Some("http://gw:4104/bridged/1/description.xml".into()),
                usn: Some("uuid:indiss-bridged-1".into()),
                ..Projection::default()
            },
        );
        let p = reg.projection(SdpProtocol::Upnp, "clock").unwrap();
        assert_eq!(p.usn.as_deref(), Some("uuid:indiss-bridged-1"));
        assert!(reg.projection(SdpProtocol::Slp, "clock").is_none(), "scoped per protocol");
    }

    /// Whatever was held, the projection afterwards is exactly the given
    /// attributes — the compare-first shortcut may only skip a write
    /// that would change nothing (prefixes and other fields are not
    /// "equal").
    #[test]
    fn attr_projection_ends_up_equal_to_a_plain_rewrite() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let url = "service:clock:soap://h/c";
        let held = |reg: &ServiceRegistry| reg.projection(SdpProtocol::Slp, url).expect("set");
        let attrs = |pairs: &[(&str, &str)]| Projection {
            attrs: pairs.iter().map(|(t, v)| ((*t).to_owned(), (*v).to_owned())).collect(),
            ..Projection::default()
        };
        let two = [("model", "Clock"), ("name", "Timer")];

        reg.set_attr_projection(SdpProtocol::Slp, url, two.iter().copied());
        assert_eq!(held(&reg), attrs(&two));
        reg.set_attr_projection(SdpProtocol::Slp, url, two.iter().copied());
        assert_eq!(held(&reg), attrs(&two), "same again");
        reg.set_attr_projection(SdpProtocol::Slp, url, two[..1].iter().copied());
        assert_eq!(held(&reg), attrs(&two[..1]), "held is longer");
        reg.set_attr_projection(SdpProtocol::Slp, url, two.iter().copied());
        assert_eq!(held(&reg), attrs(&two), "held is a prefix");
        reg.set_attr_projection(SdpProtocol::Slp, url, [("model", "Watch")].into_iter());
        assert_eq!(held(&reg), attrs(&[("model", "Watch")]), "a value differs");

        reg.set_projection(
            SdpProtocol::Slp,
            url,
            Projection { service_id: Some(7), ..attrs(&two) },
        );
        reg.set_attr_projection(SdpProtocol::Slp, url, two.iter().copied());
        assert_eq!(held(&reg), attrs(&two), "another field was set");
    }

    #[test]
    fn adverts_snapshot_is_deterministic_insertion_order() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        for (i, p) in
            [SdpProtocol::Slp, SdpProtocol::Upnp, SdpProtocol::Jini].into_iter().enumerate()
        {
            reg.record_advert(
                p,
                &alive(&format!("t{i}"), &format!("u://{i}"), None),
                SimTime::ZERO,
            );
        }
        let order: Vec<SdpProtocol> =
            reg.adverts(SimTime::ZERO).into_iter().map(|(p, _)| p).collect();
        assert_eq!(order, vec![SdpProtocol::Slp, SdpProtocol::Upnp, SdpProtocol::Jini]);
    }

    /// Sharded mode: every record lands on (and is served from) the
    /// shard its canonical type hashes to, and cross-shard aggregates
    /// see everything.
    #[test]
    fn sharded_registry_routes_by_canonical_type() {
        let config = RegistryConfig { shards: 8, ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        assert_eq!(reg.shard_count(), 8);
        let t = SimTime::ZERO;
        for i in 0..64 {
            let ty = format!("type-{i}");
            let before = reg.shard_record_count(reg.shard_of(ty.as_str()));
            reg.record_advert(SdpProtocol::Slp, &alive(&ty, &format!("u://{i}"), None), t);
            assert_eq!(
                reg.shard_record_count(reg.shard_of(ty.as_str())),
                before + 1,
                "record stored on its type's shard"
            );
            assert!(reg.contains_type(ty.as_str(), t));
        }
        assert_eq!(reg.record_count(), 64);
        let per_shard: usize = (0..8).map(|i| reg.shard_record_count(i)).sum();
        assert_eq!(per_shard, 64, "shard counts add up to the aggregate");
        // A byebye with the type present routes straight to the shard.
        reg.record_advert(SdpProtocol::Slp, &byebye("type-3", "u://3"), t);
        assert_eq!(reg.record_count(), 63);
        assert!(!reg.contains_type("type-3", t));
        // Stats merge across shards.
        assert_eq!(reg.stats().records_inserted, 64);
        assert_eq!(reg.stats().records_removed, 1);
    }

    /// Satellite: the per-shard content version advances exactly once per
    /// record mutation — insert, refresh, removal, sweep expiry — and
    /// twice for an eviction-plus-insert (two records changed). Cache and
    /// negative-cache traffic never moves it.
    #[test]
    fn content_version_advances_exactly_once_per_mutation() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let t = SimTime::from_secs(1);
        assert_eq!(reg.shard_versions(), vec![0]);
        reg.record_advert(SdpProtocol::Slp, &alive("clock", "slp://a", Some(60)), t);
        assert_eq!(reg.content_version(0), 1, "insert bumps once");
        reg.record_advert(SdpProtocol::Slp, &alive("clock", "slp://a", Some(60)), t);
        assert_eq!(reg.content_version(0), 2, "refresh bumps once");
        reg.warm("clock", response("clock"), t);
        reg.cached_response("clock", t);
        reg.warm_negative(SdpProtocol::Upnp, "toaster", t);
        assert_eq!(reg.content_version(0), 2, "cache traffic is not a record mutation");
        reg.record_advert(SdpProtocol::Slp, &byebye("clock", "slp://a"), t);
        assert_eq!(reg.content_version(0), 3, "byebye removal bumps once");
        reg.record_advert(SdpProtocol::Slp, &byebye("clock", "slp://a"), t);
        assert_eq!(reg.content_version(0), 3, "byebye of an absent record is not a mutation");
        reg.record_advert(SdpProtocol::Upnp, &alive("fax", "soap://f", Some(5)), t);
        assert_eq!(reg.content_version(0), 4);
        reg.sweep(SimTime::from_secs(10));
        assert_eq!(reg.content_version(0), 5, "sweep expiry bumps once per record");
        reg.sweep(SimTime::from_secs(20));
        assert_eq!(reg.content_version(0), 5, "empty sweep is not a mutation");
    }

    #[test]
    fn content_version_counts_eviction_as_two_mutations() {
        let config = RegistryConfig { advert_capacity: 1, ..RegistryConfig::default() };
        let reg = ServiceRegistry::new(config);
        reg.record_advert(SdpProtocol::Slp, &alive("a", "u://a", None), SimTime::ZERO);
        assert_eq!(reg.content_version(0), 1);
        reg.record_advert(SdpProtocol::Slp, &alive("b", "u://b", None), SimTime::ZERO);
        assert_eq!(reg.content_version(0), 3, "victim left (+1), newcomer landed (+1)");
    }

    #[test]
    fn record_remote_applies_refreshes_and_stales() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let t = SimTime::from_secs(1);
        let peer = PeerId(7101);
        let stream = alive("clock", "slp://a", Some(60));
        assert_eq!(
            reg.record_remote(SdpProtocol::Slp, &stream, peer, t),
            RemoteDisposition::Applied
        );
        assert_eq!(reg.content_version(0), 1);
        let rec = reg.record(SdpProtocol::Slp, "slp://a", t).expect("landed");
        assert_eq!(rec.provenance(), RecordOrigin::Remote(peer), "remote records are attributed");
        // The identical advert back again (e.g. gossiped by a second
        // peer) is equivalent — no mutation, no version churn.
        assert_eq!(
            reg.record_remote(SdpProtocol::Slp, &stream, PeerId(7102), t),
            RemoteDisposition::Stale
        );
        assert_eq!(reg.content_version(0), 1, "stale pull does not bump the version");
        // A longer-lived copy of the same service is real news.
        let longer = alive("clock", "slp://a", Some(600));
        assert_eq!(
            reg.record_remote(SdpProtocol::Slp, &longer, peer, t),
            RemoteDisposition::Refreshed
        );
        assert_eq!(reg.content_version(0), 2);
        // An unkeyed stream cannot land.
        let unkeyed = EventStream::framed(vec![Event::ServiceAlive]);
        assert_eq!(
            reg.record_remote(SdpProtocol::Slp, &unkeyed, peer, t),
            RemoteDisposition::Ignored
        );
    }

    /// Regression for the anti-entropy fixpoint: the mesh wire carries
    /// remaining TTL in whole seconds rounded up, so an echoed record
    /// rebuilds with an expiry up to one second past the original. That
    /// window must read as covered (`Stale`, no version churn) — or two
    /// peers whose expiries are not whole seconds away from the gossip
    /// ticks re-pull each other forever and TTLs creep every round.
    #[test]
    fn record_remote_tolerates_the_wire_ttl_quantum() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let peer = PeerId(7101);
        // The original lands at t=1.25 s with a 60 s TTL: expiry 61.25 s.
        let t = SimTime::from_nanos(1_250_000_000);
        reg.record_remote(SdpProtocol::Slp, &alive("clock", "slp://a", Some(60)), peer, t);
        assert_eq!(reg.content_version(0), 1);
        // The echo rebuilt from the wire at t=2 s: ceil(59.25) = 60 s,
        // expiry 62 s — 0.75 s past the original, inside the quantum.
        let echo = alive("clock", "slp://a", Some(60));
        assert_eq!(
            reg.record_remote(SdpProtocol::Slp, &echo, peer, SimTime::from_secs(2)),
            RemoteDisposition::Stale,
            "wire rounding is not news"
        );
        assert_eq!(reg.content_version(0), 1, "no version churn from the quantum");
        // A genuinely refreshed record (the full TTL again, well past
        // the slack) is still real news.
        assert_eq!(
            reg.record_remote(SdpProtocol::Slp, &echo, peer, SimTime::from_secs(30)),
            RemoteDisposition::Refreshed
        );
        assert_eq!(reg.content_version(0), 2);
    }

    #[test]
    fn remote_warm_hits_are_counted_apart_from_local_ones() {
        let reg = ServiceRegistry::new(RegistryConfig::default());
        let t = SimTime::ZERO;
        reg.warm_remote("clock", response("clock"), t);
        reg.warm("fax", response("fax"), t);
        assert!(reg.cached_response("clock", t).is_some());
        assert!(reg.cached_response("fax", t).is_some());
        let stats = reg.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.remote_cache_hits, 1, "only the remote-warmed entry counts");
    }

    #[test]
    fn content_digest_is_order_and_shard_independent() {
        let a = ServiceRegistry::new(RegistryConfig::default());
        let b = ServiceRegistry::new(RegistryConfig { shards: 4, ..RegistryConfig::default() });
        let t = SimTime::ZERO;
        for i in 0..8 {
            a.record_advert(
                SdpProtocol::Slp,
                &alive(&format!("t{i}"), &format!("u://{i}"), None),
                t,
            );
        }
        for i in (0..8).rev() {
            // Reverse insertion order, remote provenance, different shard
            // count — the content digest must still agree.
            b.record_remote(
                SdpProtocol::Slp,
                &alive(&format!("t{i}"), &format!("u://{i}"), None),
                PeerId(9),
                t,
            );
        }
        assert_eq!(a.content_digest(t), b.content_digest(t));
        a.record_advert(SdpProtocol::Slp, &alive("extra", "u://x", None), t);
        assert_ne!(a.content_digest(t), b.content_digest(t), "digest sees new content");
    }

    /// The table is the contract (walks the generated name table).
    #[test]
    fn registry_family_table_is_the_contract() {
        RegistryStats::assert_family_contract("indiss_registry");
    }
}
