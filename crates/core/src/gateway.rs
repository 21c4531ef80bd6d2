//! The gateway core: the one place the gateway **decides** (can this
//! request be answered from what is already held?), **ingests** (what an
//! advertisement or an overheard response teaches the registry) and
//! **counts** (the bridge-path counters) — shared by both runtimes.
//!
//! What [`GatewayCore`] owns: the sharded [`ServiceRegistry`], the
//! [`BridgeCounters`], the two warm-path knobs of the config
//! (`enable_cache`, `suppress_window`) and the [`Tracer`]. It is cheap
//! to clone and `Send + Sync`.
//!
//! * [`GatewayCore::classify`] is the paper's §4.3 best case — a request
//!   answered in ~0.1 ms from the response cache — as three checks under
//!   one shard lock: positive cache, negative cache, suppression window.
//! * [`GatewayCore::ingest_advert`] and [`GatewayCore::ingest_response`]
//!   are the write side: record, count, warm the cache when caching is
//!   on. One body, so the simulated and the live gateway cannot drift.
//! * [`GatewayCore::stats`] reads [`BridgeStats`]: the core's atomics
//!   plus the registry counters the view shows.
//!
//! What each runtime keeps, because only it can do it:
//!
//! * [`crate::Indiss`] (virtual time, `indiss_net::World`): the units
//!   and the cold-path fan-out with its `QueryTracker`, delivery through
//!   the origin unit's composer, mesh `publish`, arming sweep and mesh
//!   timers, active-mode re-advertisement.
//! * [`crate::NetDriver`] (threads, `indiss_net::Transport`): wire
//!   decode, `DescriptionFetch` enrichment, opportunistic sweeps, reply
//!   batching and its own wire counters; a cold request is counted, not
//!   fanned out.
//!
//! [`ThreadedGateway`] is the core plus a [`WorkerPool`] for the work
//! that may block: [`crate::NetDriver`] hands a channel that can block
//! to the pool lane of that channel. Classifying needs no worker: any
//! thread may call [`GatewayCore::classify`], which takes only the one
//! shard lock the request's type routes to.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use indiss_net::SimTime;

use crate::config::IndissConfig;
use crate::event::{EventStream, SdpProtocol, Symbol};
use crate::obs::{Tracer, WallClock};
use crate::pool::WorkerPool;
use crate::registry::{AdvertDisposition, RegistryConfig, RegistryStats, ServiceRegistry};

indiss_net::counter_family! {
    /// Counters exposed for tests and the evaluation harness. The
    /// bridge-path counters are the core's own atomics
    /// ([`BridgeCounters`]); the cache and record counters are shown
    /// from the [`ServiceRegistry`]'s per-shard [`RegistryStats`].
    pub struct BridgeStats {
        /// Requests parsed and dispatched to foreign units.
        requests_bridged,
        /// Native responses composed back to requesters.
        responses_composed,
        /// Requests answered from the response cache.
        cache_hits: RegistryStats,
        /// The subset of `cache_hits` served from entries warmed by mesh
        /// gossip ([`crate::RecordOrigin::Remote`]) rather than local SDP
        /// traffic — the federated plane's "remote hit" counter.
        remote_cache_hits: RegistryStats,
        /// Cache lookups that found nothing usable.
        cache_misses: RegistryStats,
        /// Requests answered "nothing found" by the negative cache, without
        /// fanning out to the units.
        negative_hits: RegistryStats,
        /// Cache entries evicted by the LRU capacity bound.
        cache_evictions: RegistryStats,
        /// Cache entries dropped because their TTL elapsed.
        cache_expired: RegistryStats,
        /// Advertisements recorded from the environment.
        adverts_recorded,
        /// Advertisements re-composed into other SDPs (active mode).
        adverts_translated,
        /// Requests dropped by the suppression window (multi-bridge loop
        /// protection).
        requests_suppressed,
        /// Fan-out attempts re-issued because the per-query deadline fired
        /// with no unit answer (each retry of one query counts once).
        queries_retried,
        /// Queries that exhausted every retry without a unit answer and
        /// were degraded (a stale registry answer or a negative reply).
        queries_exhausted,
        /// Exhausted queries answered from stale registry knowledge
        /// ([`crate::ServiceRegistry::stale_response`]) instead of a
        /// negative reply.
        stale_served,
        /// Service records dropped because their TTL elapsed.
        records_expired: RegistryStats,
        /// Service records evicted by the registry capacity bound.
        records_evicted: RegistryStats,
    }
    /// Lock-free bridge-path counters, shared between a runtime handle
    /// and its workers: both runtimes (and any number of worker threads)
    /// update one block without a lock and without lost updates.
    atomics pub(crate) struct BridgeCounters;
}

/// What the warm path decided about one request.
#[derive(Debug, Clone, PartialEq)]
pub enum WarmDecision {
    /// Answered from the response cache; deliver this stream (a cheap
    /// clone of the shared buffer) to the requester.
    CacheHit(EventStream),
    /// A live "nothing found" memory covers this (origin, type): answer
    /// "still nothing" without fanning out.
    NegativeHit,
    /// Inside the suppression window for this type (likely an echo of
    /// bridged traffic): drop it.
    Suppressed,
    /// Nothing held: fan out to the foreign units. The suppression
    /// window for the type has been armed.
    Bridge,
}

/// The shareable gateway: registry + counters + warm-path knobs +
/// tracer, cheap to clone and `Send + Sync`, so both runtimes, worker
/// jobs and request sources carry one handle. See the module docs for
/// what it owns and what stays with each runtime.
#[derive(Debug, Clone)]
pub struct GatewayCore {
    pub(crate) registry: ServiceRegistry,
    pub(crate) counters: Arc<BridgeCounters>,
    pub(crate) enable_cache: bool,
    suppress_window: Duration,
    pub(crate) tracer: Tracer,
}

impl GatewayCore {
    /// A core over a fresh registry with `config`'s bounds and warm-path
    /// knobs. The tracer is the caller's: its clock and ring layout are
    /// the runtime's business (one virtual-time ring for the simulation,
    /// a ring per writing thread on the wire).
    pub(crate) fn new(config: &IndissConfig, tracer: Tracer) -> GatewayCore {
        GatewayCore {
            registry: ServiceRegistry::new(config.registry_config()),
            counters: Arc::new(BridgeCounters::default()),
            enable_cache: config.enable_cache,
            suppress_window: config.suppress_window,
            tracer,
        }
    }

    /// The shared registry (cheap clone; usable from any thread, e.g. to
    /// record adverts or pre-warm responses).
    pub fn registry(&self) -> ServiceRegistry {
        self.registry.clone()
    }

    /// Bridge statistics so far: the atomic bridge-path counters, plus
    /// the registry counters [`BridgeStats`] shows, merged across shards.
    pub fn stats(&self) -> BridgeStats {
        let mut stats = self.counters.snapshot();
        stats.absorb(self.registry.stats().fields());
        stats
    }

    /// The gateway's span recorder (a disabled no-op unless the config
    /// asked for tracing). Request sources — the wire front-end, the
    /// benchmark — clone this handle to stamp their own pipeline phases
    /// onto the same rings.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Classifies one request against the registry — positive cache
    /// first, then negative cache ("a recent fan-out for this (origin,
    /// type) found nothing"), then the suppression window (multi-bridge
    /// echo guard) — arming the window for answered/bridged requests.
    /// The registry runs the whole sequence under the type's single
    /// shard lock (`ServiceRegistry::warm_path`), so the decision is
    /// atomic even when worker threads race on one type; this adds the
    /// bridge-path counters. It is *the* warm-path implementation: both
    /// runtimes call it, so the simulation tests pin the semantics the
    /// wire serves.
    ///
    /// Deliberately does not stamp a span itself: request sources own
    /// the clock reads and record sampled `classify` spans around this
    /// call (see [`crate::NetDriver`]), keeping the uninstrumented path
    /// free of tracing cost.
    pub fn classify(
        &self,
        origin: SdpProtocol,
        request: &EventStream,
        now: SimTime,
    ) -> WarmDecision {
        self.classify_type(origin, request.service_type_symbol(), now)
    }

    /// [`GatewayCore::classify`] by canonical type, for a request source
    /// that builds no event stream (the wire SLP hit path). `None` bridges.
    pub fn classify_type(
        &self,
        origin: SdpProtocol,
        service_type: Option<Symbol>,
        now: SimTime,
    ) -> WarmDecision {
        let decision = self.registry.warm_path(
            origin,
            service_type,
            now,
            self.enable_cache,
            now + self.suppress_window,
        );
        match decision {
            WarmDecision::Suppressed => {
                self.counters.requests_suppressed.fetch_add(1, Ordering::Relaxed);
            }
            WarmDecision::NegativeHit => {}
            WarmDecision::CacheHit(_) | WarmDecision::Bridge => {
                self.counters.requests_bridged.fetch_add(1, Ordering::Relaxed);
            }
        }
        decision
    }

    /// Ingests one advertisement: records it, counts it, and — when
    /// caching is on and the advert is alive with an endpoint — warms
    /// the response cache with it. Only a stream with no identity to key
    /// on is [`AdvertDisposition::Ignored`] (and not counted); a byebye
    /// for an already-expired or evicted record is still a retraction
    /// worth counting and, for the caller, forwarding.
    pub fn ingest_advert(
        &self,
        origin: SdpProtocol,
        advert: &EventStream,
        now: SimTime,
    ) -> AdvertDisposition {
        let disposition = self.registry.record_advert(origin, advert, now);
        if disposition == AdvertDisposition::Ignored {
            return disposition;
        }
        self.counters.adverts_recorded.fetch_add(1, Ordering::Relaxed);
        // A live advert with an endpoint answers requests the way an
        // overheard response does.
        if advert.is_alive() {
            self.ingest_response(advert, now);
        }
        disposition
    }

    /// Ingests one overheard response: with caching on, a stream that
    /// carries a service URL and a type warms the response cache.
    /// Returns whether it did (the caller may then have a new expiry
    /// deadline to arm or sweep for).
    pub fn ingest_response(&self, response: &EventStream, now: SimTime) -> bool {
        if !self.enable_cache || response.service_url().is_none() {
            return false;
        }
        let Some(stype) = response.service_type_symbol() else {
            return false;
        };
        self.registry.warm(stype, response.clone(), now);
        true
    }
}

/// The multi-threaded runtime: a [`GatewayCore`] over a sharded
/// [`ServiceRegistry`], plus a [`WorkerPool`] for per-request work that
/// may block.
///
/// This is the handle a production (non-simulated) deployment runs
/// with: adverts and responses warm the shared registry from any thread,
/// any thread classifies through [`ThreadedGateway::core`], and a
/// request source moves work that may block onto a worker with
/// [`submit_on_lane`](Self::submit_on_lane). The deterministic simulation
/// keeps using [`crate::Indiss`] (the virtual-time event loop is
/// single-threaded by design); both hold a [`GatewayCore`], so their
/// warm-path semantics are identical by construction.
///
/// `ThreadedGateway` is `Send + Sync`; clones of
/// [`ThreadedGateway::registry`] and [`ThreadedGateway::core`] may be
/// used concurrently with submitted jobs.
#[derive(Debug)]
pub struct ThreadedGateway {
    core: GatewayCore,
    pool: WorkerPool,
}

impl ThreadedGateway {
    /// Creates a gateway over a fresh registry with `workers` threads.
    /// Tracing is off; a `trace = true` config through
    /// [`ThreadedGateway::from_config`] builds a span-recording gateway.
    pub fn new(config: RegistryConfig, workers: usize) -> ThreadedGateway {
        // The inverse of `IndissConfig::registry_config`.
        let config = IndissConfig {
            registry_capacity: config.advert_capacity,
            cache_capacity: config.cache_capacity,
            cache_ttl: config.cache_ttl,
            advert_ttl: config.default_advert_ttl,
            negative_ttl: config.negative_ttl,
            shards: config.shards,
            workers,
            ..IndissConfig::new()
        };
        ThreadedGateway::build(&config, Tracer::disabled())
    }

    /// Creates a gateway from an [`IndissConfig`], honoring its
    /// `shards`, `workers`, cache, suppression and tracing knobs. A
    /// `trace = true` config gets one span ring per worker plus one per
    /// configured unit, stamped from a monotonic wall clock: the wire
    /// front-end runs a non-blocking channel's pipeline on the
    /// transport's delivery thread, which must not share a worker's
    /// single-writer ring, so channel `c` records at lane `workers + c`.
    pub fn from_config(config: &IndissConfig) -> ThreadedGateway {
        let tracer = if config.trace {
            let ports: Vec<u16> = config.protocols().iter().map(|p| p.port()).collect();
            let rings = config.workers.max(1) + config.units.len();
            Tracer::new(config.trace_capacity, rings, &ports, Arc::new(WallClock::new()))
        } else {
            Tracer::disabled()
        };
        ThreadedGateway::build(config, tracer)
    }

    fn build(config: &IndissConfig, tracer: Tracer) -> ThreadedGateway {
        ThreadedGateway {
            core: GatewayCore::new(config, tracer.clone()),
            pool: WorkerPool::with_tracer(config.workers, tracer),
        }
    }

    /// A cheap, `Send + Sync` handle to the gateway's shared state, for
    /// request sources and worker jobs.
    pub fn core(&self) -> GatewayCore {
        self.core.clone()
    }

    /// The shared registry behind this gateway (cheap clone; usable from
    /// any thread, e.g. to record adverts or pre-warm responses).
    pub fn registry(&self) -> ServiceRegistry {
        self.core.registry.clone()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Bridge statistics so far (atomic bridge-path counters merged with
    /// the registry's per-shard counters).
    pub fn stats(&self) -> BridgeStats {
        self.core.stats()
    }

    /// Enqueues a job on `lane` (`lane % workers` picks the thread; jobs
    /// on one lane run in submission order). This is the hook a request
    /// *source* uses to move a per-request pipeline that may block —
    /// wire decode, parse, description fetch, deliver — off the thread
    /// that delivers datagrams: the submitting thread pays only for the
    /// enqueue. [`crate::NetDriver`] passes its channel index as `lane`,
    /// so each channel stays FIFO; capture a [`GatewayCore`] in the job.
    pub fn submit_on_lane(&self, lane: usize, job: impl FnOnce() + Send + 'static) {
        self.pool.submit(lane, job);
    }

    /// Blocks until every submitted job has run.
    pub fn join(&self) {
        self.pool.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use std::sync::atomic::AtomicU64;

    fn response(ty: &str) -> EventStream {
        EventStream::framed(vec![
            Event::ServiceResponse,
            Event::ResOk,
            Event::ServiceType(ty.into()),
            Event::ResServUrl(format!("soap://host/{ty}")),
        ])
    }

    fn request(ty: &str) -> EventStream {
        EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType(ty.into())])
    }

    #[test]
    fn classify_prefers_cache_then_negative_then_suppression() {
        let gw = ThreadedGateway::new(RegistryConfig::default(), 1);
        let t = SimTime::from_secs(1);
        // Nothing held: bridge (and the window arms).
        assert_eq!(
            gw.core().classify(SdpProtocol::Slp, &request("clock"), t),
            WarmDecision::Bridge
        );
        // Inside the window: suppressed.
        assert_eq!(
            gw.core().classify(SdpProtocol::Slp, &request("clock"), t),
            WarmDecision::Suppressed
        );
        // Warm: cache hit wins even inside the window.
        gw.registry().warm("clock", response("clock"), t);
        assert!(matches!(
            gw.core().classify(SdpProtocol::Slp, &request("clock"), t),
            WarmDecision::CacheHit(_)
        ));
        // Negative memory answers absent types.
        gw.registry().warm_negative(SdpProtocol::Upnp, "ghost", t);
        assert_eq!(
            gw.core().classify(SdpProtocol::Upnp, &request("ghost"), t),
            WarmDecision::NegativeHit
        );
        let stats = gw.stats();
        // Cache hits count as bridged requests too (the counter tracks
        // requests the bridge accepted, not only fan-outs) — the same
        // accounting `Indiss` has always reported.
        assert_eq!(stats.requests_bridged, 2);
        assert_eq!(stats.requests_suppressed, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.negative_hits, 1);
    }

    #[test]
    fn submitted_requests_classify_on_workers() {
        let config = RegistryConfig { shards: 8, ..RegistryConfig::default() };
        let gw = ThreadedGateway::new(config, 4);
        let t = SimTime::from_secs(1);
        let types: Vec<String> = (0..16).map(|i| format!("warm-{i}")).collect();
        for ty in &types {
            gw.registry().warm(ty.as_str(), response(ty), t);
        }
        let core = gw.core();
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for thread in 0..4 {
                let (core, hits, types) = (&core, &hits, &types);
                s.spawn(move || {
                    for _ in 0..10 {
                        for ty in types.iter().skip(thread).step_by(4) {
                            let decision = core.classify(SdpProtocol::Slp, &request(ty), t);
                            if matches!(decision, WarmDecision::CacheHit(_)) {
                                hits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 160, "every warm request answered from cache");
        assert_eq!(gw.stats().cache_hits, 160);
    }

    #[test]
    fn gateway_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThreadedGateway>();
        assert_send_sync::<GatewayCore>();
        assert_send_sync::<BridgeCounters>();
        assert_send_sync::<WarmDecision>();
    }

    /// The table is the contract (walks the generated name table): of
    /// the sixteen counters the view shows, the twin backs the eight
    /// the registry does not own, and `stats()` folds those in by name.
    #[test]
    fn bridge_family_table_is_the_contract() {
        BridgeStats::assert_family_contract("indiss_bridge");
        BridgeCounters::assert_twin_contract();
        let mut registry = RegistryStats::default();
        for (i, name) in RegistryStats::FIELDS.iter().enumerate() {
            *registry.field_mut(name).unwrap() = 100 + i as u64;
        }
        let mut view = BridgeStats::default();
        view.absorb(registry.fields());
        let shown: Vec<_> = view.fields().filter(|(_, v)| *v != 0).collect();
        assert_eq!(shown.len(), 8, "{shown:?}");
        assert!(shown.iter().all(|(n, v)| registry.fields().any(|f| f == (*n, *v))), "{shown:?}");
    }
}
