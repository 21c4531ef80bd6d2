//! # indiss-core — the INDISS interoperability system
//!
//! The primary contribution of *Bromberg & Issarny, "INDISS: Interoperable
//! Discovery System for Networked Services" (Middleware 2005)*,
//! implemented in full:
//!
//! * [`Monitor`] — passive SDP **detection** from IANA group/port
//!   activity alone (§2.1);
//! * [`Event`] / [`EventStream`] — the semantic event vocabulary of
//!   Table 1, mandatory sets plus protocol-specific extensions (§2.3);
//! * [`Fsm`] — the DFA coordination engine with the paper's
//!   `AddTuple(state, trigger, guard, state', actions)` declaration style;
//! * [`SlpUnit`] / [`UpnpUnit`] / [`JiniUnit`] — parser+composer pairs
//!   that translate whole discovery *processes*, including the UPnP
//!   unit's recursive description fetch with parser switching (§2.4);
//!   each process is a sans-I/O state machine the runtime drives;
//! * the **open protocol API** (§3): the set of SDPs is not closed over
//!   the three built-ins. A [`ProtocolId`] registers any protocol's
//!   detection tag (port + multicast groups) process-wide and flows
//!   through every registry index, cache key and statistic as
//!   [`SdpProtocol::Dynamic`]; an [`SdpDescriptor`] defines a whole
//!   line-oriented SDP as data (parser table + composer templates) that
//!   [`DescriptorUnit`] interprets; the runtime instantiates *all* units
//!   through [`UnitSpec`], whose custom arm takes any object-safe
//!   [`UnitFactory`], so custom units plug in without touching the
//!   runtime; and
//!   [`IndissConfig::from_system_sdp`] parses the paper's own textual
//!   `System SDP = { … }` composition language — §3's example verbatim,
//!   plus descriptor blocks for brand-new protocols;
//! * [`ServiceRegistry`] — the single source of truth for discovered
//!   services: canonical [`ServiceRecord`]s indexed by type / origin /
//!   endpoint, a bounded LRU response cache (the §4.3 warm best case),
//!   the multi-bridge suppression window, and the units' bridge
//!   projections — all capacity-bounded, with deterministic
//!   virtual-time TTL expiry;
//! * [`Indiss`] — the deployable runtime: dynamic unit composition
//!   (Fig. 5), registry-backed response caching, and traffic-threshold
//!   self-adaptation between passive and active modes (§4.2, Fig. 6).
//!
//! Interoperability is transparent: native clients and services from
//! `indiss-slp`, `indiss-upnp` and `indiss-jini` are *unmodified* — they
//! simply start seeing services from other middleware.
//!
//! # Concurrency architecture
//!
//! The gateway scales across cores by sharding its state, not by
//! locking it globally:
//!
//! * **Shard ownership.** [`ServiceRegistry`] splits every store —
//!   records, response cache, negative cache (plus its by-type
//!   invalidation index), projections, suppression windows, expiry
//!   wheel and counters — into [`RegistryConfig::shards`] independently
//!   locked shards, routed by canonical-type hash. Everything keyed by
//!   one canonical type lives behind exactly one shard `Mutex`, so the
//!   warm path (cache hit → deliver) takes one lock and, for disjoint
//!   types, never contends. [`ThreadedGateway`]'s [`WorkerPool`] lanes
//!   serve channels that may block (`channel % workers`), keeping
//!   per-channel FIFO order.
//! * **Lock order.** At most one shard lock is ever held at a time.
//!   Cross-shard views (aggregate counts, full snapshots,
//!   [`ServiceRegistry::stats`]) lock shards one at a time in ascending
//!   index order and merge on read; per-shard [`RegistryStats`] blocks
//!   plus the atomic bridge counters ([`BridgeStats`] is their merged
//!   snapshot) mean no counter is ever shared between locks — and no
//!   update is ever lost. Nothing calls back into the registry while
//!   holding a shard lock, so the system is deadlock-free by
//!   construction.
//! * **`Send + Sync` surface.** [`ServiceRegistry`], [`EventStream`]
//!   (`Arc<[Event]>` buffers), [`Symbol`] (refcounted, GC'd interner),
//!   [`ProtocolId`], [`ServiceRecord`], [`GatewayCore`],
//!   [`ThreadedGateway`] and [`WorkerPool`] are all `Send + Sync`
//!   (compile-asserted in `tests/sharding.rs`). The simulated
//!   [`Indiss`] runtime deliberately is *not*: it is bound to the
//!   deterministic single-threaded [`indiss_net::World`] event loop,
//!   but it drives the same sharded registry and the same warm-path
//!   decision tree ([`WarmDecision`]) the threaded gateway runs, so the
//!   simulation tests pin the semantics the workers execute.
//!
//! ```
//! use indiss_core::{Indiss, IndissConfig};
//! use indiss_net::World;
//! use indiss_slp::{SlpConfig, UserAgent};
//! use indiss_upnp::{ClockDevice, UpnpConfig};
//! use std::time::Duration;
//!
//! let world = World::new(7);
//! let service_node = world.add_node("clock-host");
//! let client_node = world.add_node("slp-client");
//!
//! let _clock = ClockDevice::start(&service_node, UpnpConfig::default())?;
//! let _indiss = Indiss::deploy(&service_node, IndissConfig::slp_upnp())?;
//! let ua = UserAgent::start(&client_node, SlpConfig::default())?;
//!
//! let (_first, done) = ua.find_services(&world, "service:clock", "");
//! world.run_for(Duration::from_secs(2));
//! assert_eq!(done.take().unwrap().urls.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapt;
mod config;
mod config_lang;
mod error;
mod event;
mod fsm;
#[cfg(test)]
mod fuzz_tests;
mod gateway;
mod mesh;
mod monitor;
mod netfront;
mod obs;
mod pool;
mod protocol;
mod registry;
mod runtime;
mod scenario;
mod symbol;
mod tracker;
mod units;

pub use adapt::{AdaptationPolicy, DiscoveryMode};
pub use config::{IndissConfig, UnitSpec};
pub use error::{CoreError, CoreResult};
pub use event::{Event, EventKind, EventStream, EventStreamBuilder, ParserKind, SdpProtocol};
pub use fsm::{Action, Fsm, FsmBuilder, Guard, Trigger};
pub use gateway::{BridgeStats, GatewayCore, ThreadedGateway, WarmDecision};
pub use mesh::{MeshConfig, MeshNode, MeshStats};
pub use monitor::{DetectionRecord, Monitor};
pub use netfront::{
    DescriptionFetch, HttpDescriptionFetch, NetDriver, NetDriverBuilder, NetFrontStats,
    StaticDescriptions,
};
pub use obs::{
    bucket_floor, bucket_of, chrome_trace_json, render_interner_gauges, render_tracer,
    validate_chrome_trace, AtomicHistogram, Clock, LatencyHistogram, Phase, SimClock, SpanSnapshot,
    StatsServer, Tracer, WallClock, HIST_BUCKETS, PHASES,
};
pub use pool::WorkerPool;
pub use protocol::ProtocolId;
pub use registry::{
    AdvertDisposition, PeerId, Projection, RecordOrigin, RegistryConfig, RegistryStats,
    RemoteDisposition, ServiceRecord, ServiceRegistry, SweepReport,
};
pub use runtime::Indiss;
pub use scenario::{
    LinkCut, MemoryBudget, MemorySettlement, MobilityMove, MutationSource, ScenarioRng,
    WorldAsserts, WorldFault, WorldSpec,
};
pub use symbol::Symbol;
pub use units::{
    parse_slp_request, DescriptorClient, DescriptorService, DescriptorUnit, JiniUnit,
    JiniUnitConfig, ParsedMessage, SdpDescriptor, SdpDescriptorBuilder, SlpUnit, SlpUnitConfig,
    Unit, UnitContext, UnitFactory, UpnpUnit, UpnpUnitConfig,
};
