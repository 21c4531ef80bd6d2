//! The thread-safe warm path: one decision tree for "can this request be
//! answered from already-held knowledge?", shared by the deterministic
//! simulation runtime ([`crate::Indiss`]) and the multi-threaded
//! [`ThreadedGateway`].
//!
//! The paper's §4.3 best case — a request answered in ~0.1 ms from the
//! response cache — is a pure function of the [`ServiceRegistry`] plus
//! three checks (positive cache, negative cache, suppression window).
//! [`classify_request`] implements exactly that sequence; `Indiss` calls
//! it inline inside the single-threaded simulation, while
//! `ThreadedGateway` fans the same call out across a [`WorkerPool`]
//! whose lanes are the registry's canonical-type shards, so requests for
//! disjoint types are classified in parallel with no coordination
//! beyond the one shard lock each touch.
//!
//! Bridge statistics are [`BridgeCounters`] — plain atomics — so both
//! runtimes (and any number of worker threads) update one stats block
//! without a lock and without lost updates; the registry's own counters
//! are per-shard and merged on read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use indiss_net::SimTime;

use crate::config::IndissConfig;
use crate::event::{EventStream, SdpProtocol};
use crate::obs::{Tracer, WallClock};
use crate::pool::WorkerPool;
use crate::registry::{RegistryConfig, ServiceRegistry};
use crate::runtime::BridgeStats;

/// Lock-free bridge-path counters, shared between a runtime handle and
/// its workers. The registry-side numbers (cache/negative/record
/// counters) live per shard in the [`ServiceRegistry`]; a full
/// [`BridgeStats`] snapshot merges both, see
/// [`BridgeCounters::snapshot`].
#[derive(Debug, Default)]
pub struct BridgeCounters {
    pub(crate) requests_bridged: AtomicU64,
    pub(crate) responses_composed: AtomicU64,
    pub(crate) adverts_recorded: AtomicU64,
    pub(crate) adverts_translated: AtomicU64,
    pub(crate) requests_suppressed: AtomicU64,
    pub(crate) queries_retried: AtomicU64,
    pub(crate) queries_exhausted: AtomicU64,
    pub(crate) stale_served: AtomicU64,
}

impl BridgeCounters {
    pub(crate) fn add_requests_bridged(&self) {
        self.requests_bridged.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_responses_composed(&self) {
        self.responses_composed.fetch_add(1, Ordering::Relaxed);
    }

    /// Bulk variant for batched reply flushes (one atomic add per
    /// flushed batch instead of one per reply).
    pub(crate) fn add_responses_composed_n(&self, n: u64) {
        self.responses_composed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_adverts_recorded(&self) {
        self.adverts_recorded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_adverts_translated(&self) {
        self.adverts_translated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_requests_suppressed(&self) {
        self.requests_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_queries_retried(&self) {
        self.queries_retried.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_queries_exhausted(&self) {
        self.queries_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_stale_served(&self) {
        self.stale_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds these counters with `registry`'s per-shard counters into
    /// the public [`BridgeStats`] snapshot.
    pub(crate) fn snapshot(&self, registry: &ServiceRegistry) -> BridgeStats {
        let reg = registry.stats();
        BridgeStats {
            requests_bridged: self.requests_bridged.load(Ordering::Relaxed),
            responses_composed: self.responses_composed.load(Ordering::Relaxed),
            adverts_recorded: self.adverts_recorded.load(Ordering::Relaxed),
            adverts_translated: self.adverts_translated.load(Ordering::Relaxed),
            requests_suppressed: self.requests_suppressed.load(Ordering::Relaxed),
            queries_retried: self.queries_retried.load(Ordering::Relaxed),
            queries_exhausted: self.queries_exhausted.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            cache_hits: reg.cache_hits,
            remote_cache_hits: reg.remote_cache_hits,
            cache_misses: reg.cache_misses,
            cache_evictions: reg.cache_evictions,
            cache_expired: reg.cache_expired,
            negative_hits: reg.negative_hits,
            records_expired: reg.records_expired,
            records_evicted: reg.records_evicted,
        }
    }
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

/// Classifies one request against the registry — positive cache first,
/// then negative cache ("a recent fan-out for this (origin, type) found
/// nothing"), then the suppression window (multi-bridge echo guard) —
/// arming the window for answered/bridged requests. The registry runs
/// the whole sequence under the type's single shard lock
/// (`ServiceRegistry::warm_path`), so the decision is atomic even when
/// worker threads race on one type; this function adds the bridge-path
/// counters. This is *the* warm-path implementation: both runtimes call
/// it, so the simulation tests pin the semantics the threaded gateway
/// runs.
pub(crate) fn classify_request(
    registry: &ServiceRegistry,
    counters: &BridgeCounters,
    enable_cache: bool,
    suppress_window: Duration,
    origin: SdpProtocol,
    request: &EventStream,
    now: SimTime,
) -> WarmDecision {
    let stype = request.service_type_symbol();
    let decision = registry.warm_path(origin, stype, now, enable_cache, now + suppress_window);
    match decision {
        WarmDecision::Suppressed => counters.add_requests_suppressed(),
        WarmDecision::NegativeHit => {}
        WarmDecision::CacheHit(_) | WarmDecision::Bridge => counters.add_requests_bridged(),
    }
    decision
}

/// The shareable half of the gateway: registry + counters + warm-path
/// knobs, cheap to clone and `Send + Sync`, so worker jobs and request
/// sources carry one handle instead of four.
#[derive(Debug, Clone)]
pub struct GatewayCore {
    registry: ServiceRegistry,
    counters: Arc<BridgeCounters>,
    enable_cache: bool,
    suppress_window: Duration,
    tracer: Tracer,
}

impl GatewayCore {
    /// The shared registry (cheap clone; usable from any thread, e.g. to
    /// record adverts or pre-warm responses).
    pub fn registry(&self) -> ServiceRegistry {
        self.registry.clone()
    }

    /// The shared bridge-path counters (for in-crate request sources —
    /// the wire front-end — that account composed replies and recorded
    /// adverts exactly like the simulated runtime does).
    pub(crate) fn bridge_counters(&self) -> &BridgeCounters {
        &self.counters
    }

    /// Bridge statistics so far (atomic bridge-path counters merged with
    /// the registry's per-shard counters).
    pub fn stats(&self) -> BridgeStats {
        self.counters.snapshot(&self.registry)
    }

    /// The gateway's span recorder (a disabled no-op unless the config
    /// asked for tracing). Request sources — the wire front-end, the
    /// benches — clone this handle to stamp their own pipeline phases
    /// onto the same rings.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Classifies `request` on the calling thread — the warm-path
    /// decision tree shared with [`crate::Indiss`]. Deliberately does
    /// not stamp a span itself: request sources own the clock reads and
    /// record sampled `classify` spans around this call (see
    /// [`crate::NetDriver`]), keeping the uninstrumented path free of
    /// tracing cost.
    pub fn classify(
        &self,
        origin: SdpProtocol,
        request: &EventStream,
        now: SimTime,
    ) -> WarmDecision {
        classify_request(
            &self.registry,
            &self.counters,
            self.enable_cache,
            self.suppress_window,
            origin,
            request,
            now,
        )
    }
}

/// The multi-threaded warm-path runtime: a sharded [`ServiceRegistry`]
/// served by a [`WorkerPool`] whose lanes are the registry's shards.
///
/// This is the handle a production (non-simulated) deployment scales
/// across cores with: adverts and responses warm the shared registry
/// from any thread, and [`ThreadedGateway::submit`] classifies requests
/// on the worker owning the request type's shard, preserving per-type
/// ordering while disjoint types proceed in parallel. The deterministic
/// simulation keeps using [`crate::Indiss`] (the virtual-time event loop
/// is single-threaded by design); both share `classify_request` and
/// the [`ServiceRegistry`], so their warm-path semantics are identical
/// by construction.
///
/// `ThreadedGateway` is `Send + Sync`; clones of
/// [`ThreadedGateway::registry`] and [`ThreadedGateway::core`] may be
/// used concurrently with submissions.
#[derive(Debug)]
pub struct ThreadedGateway {
    core: GatewayCore,
    pool: WorkerPool,
}

impl ThreadedGateway {
    /// Creates a gateway over a fresh registry with `workers` threads.
    ///
    /// `config.shards` should be at least `workers` (ideally a small
    /// multiple) so every worker owns at least one lane; this is not
    /// enforced — fewer shards than workers merely idles the excess
    /// workers.
    pub fn new(config: RegistryConfig, workers: usize) -> ThreadedGateway {
        ThreadedGateway::with_tracer(config, workers, Tracer::disabled())
    }

    /// Creates a gateway whose pipeline records spans into `tracer`:
    /// worker jobs, classifications and whatever the request source
    /// stamps through [`GatewayCore::tracer`].
    pub fn with_tracer(config: RegistryConfig, workers: usize, tracer: Tracer) -> ThreadedGateway {
        ThreadedGateway {
            core: GatewayCore {
                registry: ServiceRegistry::new(config),
                counters: Arc::new(BridgeCounters::default()),
                enable_cache: true,
                suppress_window: Duration::from_millis(600),
                tracer: tracer.clone(),
            },
            pool: WorkerPool::with_tracer(workers, tracer),
        }
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
        ThreadedGateway {
            core: GatewayCore {
                registry: ServiceRegistry::new(config.registry_config()),
                counters: Arc::new(BridgeCounters::default()),
                enable_cache: config.enable_cache,
                suppress_window: config.suppress_window,
                tracer: tracer.clone(),
            },
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

    /// Classifies `request` inline on the calling thread (any thread).
    /// Useful when the caller already sits on the right worker, or for
    /// single-request paths that do not need queueing.
    pub fn classify_now(
        &self,
        origin: SdpProtocol,
        request: &EventStream,
        now: SimTime,
    ) -> WarmDecision {
        self.core.classify(origin, request, now)
    }

    /// The worker lane serving `canonical_type` — its registry shard.
    pub fn lane_of(&self, canonical_type: impl Into<crate::Symbol>) -> usize {
        self.core.registry.shard_of(canonical_type)
    }

    /// Enqueues `request` for classification on the worker owning its
    /// type's shard; `done` runs on that worker with the decision.
    /// Requests for one canonical type are classified in submission
    /// order; requests for types on different lanes run concurrently.
    pub fn submit(
        &self,
        origin: SdpProtocol,
        request: EventStream,
        now: SimTime,
        done: impl FnOnce(WarmDecision) + Send + 'static,
    ) {
        let lane = match request.service_type_symbol() {
            Some(t) => self.core.registry.shard_of(t),
            None => 0,
        };
        let core = self.core.clone();
        self.pool.submit(lane, move || {
            let decision = core.classify(origin, &request, now);
            done(decision);
        });
    }

    /// Enqueues an arbitrary job on `lane` (`lane % workers` picks the
    /// thread). This is the hook request *sources* use to move a
    /// per-request pipeline that may block — wire decode, parse,
    /// description fetch, deliver — onto the owning worker: the
    /// submitting thread pays only for the enqueue. Pair with
    /// [`ThreadedGateway::lane_of`] and a
    /// [`GatewayCore`] captured by the job.
    pub fn submit_on_lane(&self, lane: usize, job: impl FnOnce() + Send + 'static) {
        self.pool.submit(lane, job);
    }

    /// Blocks until every submitted request has been classified.
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
        assert_eq!(gw.classify_now(SdpProtocol::Slp, &request("clock"), t), WarmDecision::Bridge);
        // Inside the window: suppressed.
        assert_eq!(
            gw.classify_now(SdpProtocol::Slp, &request("clock"), t),
            WarmDecision::Suppressed
        );
        // Warm: cache hit wins even inside the window.
        gw.registry().warm("clock", response("clock"), t);
        assert!(matches!(
            gw.classify_now(SdpProtocol::Slp, &request("clock"), t),
            WarmDecision::CacheHit(_)
        ));
        // Negative memory answers absent types.
        gw.registry().warm_negative(SdpProtocol::Upnp, "ghost", t);
        assert_eq!(
            gw.classify_now(SdpProtocol::Upnp, &request("ghost"), t),
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
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            for ty in &types {
                let hits = Arc::clone(&hits);
                gw.submit(SdpProtocol::Slp, request(ty), t, move |decision| {
                    if matches!(decision, WarmDecision::CacheHit(_)) {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
        gw.join();
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
}
