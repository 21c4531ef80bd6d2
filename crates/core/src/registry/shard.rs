//! One independently locked slice of the sharded registry.
//!
//! A [`Shard`] owns every store for the canonical types that hash to it:
//! records, the response cache, the negative cache with its by-type
//! invalidation index, projections, the suppression map, the expiry
//! wheel and a private [`RegistryStats`] block. The public
//! [`crate::ServiceRegistry`] routes each call to exactly one shard (or
//! folds over all of them, one lock at a time), so this module is the
//! unit of concurrency the multi-threaded runtime scales across.

use std::collections::HashMap;

use indiss_net::SimTime;

use crate::event::{EventStream, SdpProtocol, Symbol};
use crate::gateway::WarmDecision;
use crate::registry::expiry::{ExpiryWheel, Target};
use crate::registry::index::{LruCache, RecordStore};
use crate::registry::{Projection, RegistryConfig, RegistryStats, ServiceRegistry, SweepReport};
use std::sync::MutexGuard;

#[derive(Debug, Clone)]
pub(crate) struct CachedResponse {
    pub(crate) response: EventStream,
    pub(crate) expires: SimTime,
    /// True when the response was synthesized from knowledge pulled
    /// from a mesh peer: hits on it count in `remote_cache_hits` as
    /// well as `cache_hits`.
    pub(crate) remote: bool,
}

/// One independently locked slice of the registry: everything keyed by
/// the canonical types that hash here.
pub(crate) struct Shard {
    pub(crate) store: RecordStore,
    pub(crate) cache: LruCache<Symbol, CachedResponse>,
    /// "Nothing found" outcomes keyed by (requesting protocol,
    /// canonical type); the value is the entry's expiry deadline. The
    /// origin is part of the key because the fan-out set depends on it:
    /// a miss observed from one protocol says nothing about a fan-out
    /// that would include that protocol's own unit.
    pub(crate) negative: LruCache<(SdpProtocol, Symbol), SimTime>,
    /// Secondary index over `negative`: which origins hold a "nothing
    /// found" memory for each type. Advert-driven invalidation walks
    /// exactly the matching entries instead of scanning the store.
    pub(crate) negative_by_type: HashMap<Symbol, Vec<SdpProtocol>>,
    pub(crate) projections: LruCache<(SdpProtocol, Symbol), Projection>,
    /// Per-canonical-type suppression deadline (multi-bridge loop
    /// guard).
    pub(crate) suppress: HashMap<Symbol, SimTime>,
    pub(crate) wheel: ExpiryWheel,
    pub(crate) stats: RegistryStats,
    /// Monotone content version of the shard's *record store*: bumped
    /// exactly once per record mutation (insert, refresh, capacity
    /// eviction, byebye removal, TTL expiry). Mesh digests are built
    /// from these counters alone, so computing a digest never walks the
    /// store on the hot path.
    pub(crate) content_version: u64,
}

impl Shard {
    pub(crate) fn new(config: &RegistryConfig, shard_count: usize) -> Shard {
        let per = |total: usize| total.div_ceil(shard_count).max(1);
        Shard {
            store: RecordStore::new(per(config.advert_capacity)),
            cache: LruCache::new(per(config.cache_capacity)),
            negative: LruCache::new(per(config.cache_capacity)),
            negative_by_type: HashMap::new(),
            projections: LruCache::new(per(config.advert_capacity)),
            suppress: HashMap::new(),
            wheel: ExpiryWheel::new(),
            stats: RegistryStats::default(),
            content_version: 0,
        }
    }

    fn target_is_current(&self, target: &Target) -> bool {
        match *target {
            Target::Advert { slot, generation } => self.store.generation(slot) == generation,
            Target::Cache { slot, generation } => self.cache.generation(slot) == generation,
            Target::Negative { slot, generation } => self.negative.generation(slot) == generation,
        }
    }

    /// Records that `origin` now holds a negative entry for `key`'s type.
    pub(crate) fn index_negative(&mut self, origin: SdpProtocol, canonical_type: Symbol) {
        let origins = self.negative_by_type.entry(canonical_type).or_default();
        if !origins.contains(&origin) {
            origins.push(origin);
        }
    }

    /// Drops `origin` from the type index (entry gone from the store).
    pub(crate) fn unindex_negative(&mut self, origin: SdpProtocol, canonical_type: &Symbol) {
        if let Some(origins) = self.negative_by_type.get_mut(canonical_type) {
            origins.retain(|o| *o != origin);
            if origins.is_empty() {
                self.negative_by_type.remove(canonical_type);
            }
        }
    }

    pub(crate) fn sweep(&mut self, now: SimTime) -> SweepReport {
        let mut report = SweepReport::default();
        for target in self.wheel.pop_due(now) {
            if !self.target_is_current(&target) {
                continue; // refreshed or replaced since arming
            }
            match target {
                Target::Advert { slot, .. } => {
                    if self.store.get_slot(slot).is_some_and(|r| r.is_expired(now))
                        && self.store.remove_slot(slot).is_some()
                    {
                        report.records_expired += 1;
                        self.content_version += 1;
                    }
                }
                Target::Cache { slot, .. } => {
                    // A current generation means the entry is exactly the
                    // one this deadline was armed for, so it is due.
                    if self.cache.remove_slot(slot).is_some() {
                        report.cache_expired += 1;
                    }
                }
                Target::Negative { slot, .. } => {
                    if let Some(((origin, ty), _)) = self.negative.remove_slot(slot) {
                        self.unindex_negative(origin, &ty);
                        report.negative_expired += 1;
                    }
                }
            }
        }
        self.suppress.retain(|_, until| *until > now);
        self.stats.records_expired += report.records_expired;
        self.stats.cache_expired += report.cache_expired;
        report
    }

    /// True while `ty` is inside its suppression window at `now`.
    pub(crate) fn suppression_active_at(&self, ty: &Symbol, now: SimTime) -> bool {
        self.suppress.get(ty).is_some_and(|until| *until > now)
    }

    /// Drops any "nothing found" memory for `canonical_type` (for every
    /// requesting protocol, dynamic ones included) — called whenever
    /// positive knowledge (an advert or response) arrives, so a service
    /// appearing right after a miss becomes visible immediately. The
    /// type index makes this O(matching entries), independent of how
    /// many other types the negative store remembers.
    pub(crate) fn clear_negative(&mut self, canonical_type: &Symbol) {
        let Some(origins) = self.negative_by_type.remove(canonical_type) else {
            return;
        };
        for origin in origins {
            self.negative.remove(&(origin, canonical_type.clone()));
        }
    }

    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        let Shard { wheel, store, cache, negative, .. } = self;
        wheel.next_deadline(|target| match *target {
            Target::Advert { slot, generation } => store.generation(slot) == generation,
            Target::Cache { slot, generation } => cache.generation(slot) == generation,
            Target::Negative { slot, generation } => negative.generation(slot) == generation,
        })
    }
}

/// Shard routing: the half of [`ServiceRegistry`] that knows requests
/// are served by independently locked shards. Lock discipline: at most
/// one shard lock is ever held, and fold-style aggregates take them in
/// ascending index order.
impl ServiceRegistry {
    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The shard index all state keyed by `canonical_type` lives on.
    pub fn shard_of(&self, canonical_type: impl Into<Symbol>) -> usize {
        self.shard_index(&canonical_type.into())
    }

    /// Live (non-expired accounting is lazy; this counts stored) records
    /// on one shard — the observability hook the shard-routing tests and
    /// per-shard dashboards use.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_record_count(&self, shard: usize) -> usize {
        self.lock_shard(shard).store.len()
    }

    /// Counter snapshot of one shard (the aggregate view is
    /// [`ServiceRegistry::stats`]).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_stats(&self, shard: usize) -> RegistryStats {
        self.lock_shard(shard).stats
    }

    pub(crate) fn shard_index(&self, sym: &Symbol) -> usize {
        if self.shared.shards.len() == 1 {
            return 0;
        }
        // Stable FNV-1a over the type name. Routing must be a pure
        // function of the record's contents — not of interner
        // allocation addresses or a per-instance random key — so that
        // same-seed scenario replays batch identically and federated
        // peers agree on which shard a record lives in.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in sym.as_str().as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h as usize % self.shared.shards.len()
    }

    pub(crate) fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.shared.shards[idx].lock().expect("registry shard poisoned")
    }

    pub(crate) fn shard_for(&self, sym: &Symbol) -> MutexGuard<'_, Shard> {
        self.lock_shard(self.shard_index(sym))
    }

    /// Locks shards one at a time, in ascending index order (never
    /// nested), folding `f` over each.
    pub(crate) fn fold_shards<T>(&self, mut acc: T, mut f: impl FnMut(&mut T, &mut Shard)) -> T {
        for idx in 0..self.shared.shards.len() {
            f(&mut acc, &mut self.lock_shard(idx));
        }
        acc
    }
}

/// The warm path under one lock: cache, negative cache and suppression
/// are consulted — and the suppression window armed — in a single
/// acquisition of the type's shard, so the decision is atomic (two
/// workers racing the same type cannot both slip past the suppression
/// check) and the hot path pays one lock round trip instead of four.
impl ServiceRegistry {
    /// Classifies a request for `canonical_type` exactly as the
    /// sequential `cached_response` → `cached_negative` →
    /// `suppression_active` → `mark_bridged` calls would, including
    /// every counter side effect, but atomically. `None` for the type
    /// always bridges (there is nothing to cache or suppress by).
    ///
    /// A cache hit refreshes the entry's LRU recency, exactly as
    /// [`ServiceRegistry::cached_response`] does.
    pub(crate) fn warm_path(
        &self,
        origin: SdpProtocol,
        canonical_type: Option<Symbol>,
        now: SimTime,
        enable_cache: bool,
        suppress_until: SimTime,
    ) -> WarmDecision {
        let Some(ty) = canonical_type else {
            return WarmDecision::Bridge;
        };
        let mut shard = self.shard_for(&ty);
        if enable_cache {
            match shard.cache.get(&ty) {
                Some(entry) if entry.expires > now => {
                    let response = entry.response.clone();
                    let remote = entry.remote;
                    shard.stats.cache_hits += 1;
                    if remote {
                        shard.stats.remote_cache_hits += 1;
                    }
                    // A cache-answered request still (re-)arms the
                    // window: the answer we just sent is about to echo.
                    shard.suppress.insert(ty, suppress_until);
                    return WarmDecision::CacheHit(response);
                }
                Some(_) => {
                    shard.cache.remove(&ty);
                    shard.stats.cache_expired += 1;
                    shard.stats.cache_misses += 1;
                }
                None => shard.stats.cache_misses += 1,
            }
            let negative_key = (origin, ty.clone());
            match shard.negative.get(&negative_key) {
                Some(expires) if *expires > now => {
                    shard.stats.negative_hits += 1;
                    return WarmDecision::NegativeHit;
                }
                Some(_) => {
                    shard.negative.remove(&negative_key);
                    shard.unindex_negative(origin, &ty);
                }
                None => {}
            }
        }
        if shard.suppression_active_at(&ty, now) {
            return WarmDecision::Suppressed;
        }
        shard.suppress.insert(ty, suppress_until);
        WarmDecision::Bridge
    }
}
