//! INDISS system configuration (paper §3).
//!
//! The paper specifies an instance as a set of units plus the monitor's
//! scan ports:
//!
//! ```text
//! System SDP = {
//!   Component Monitor = { ScanPort = { 1900; 4160; 427 } }
//!   Component Unit SLP(port=427);
//!   Component Unit UPnP(port=1900);
//!   Component Unit JINI(port=4160); }
//! ```
//!
//! [`IndissConfig`] is the Rust equivalent: declaring a unit implies
//! monitoring its IANA port. Composition happens dynamically at run time
//! (Fig. 5) — the config only says what *can* be instantiated.

use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use indiss_net::TransportKind;

use crate::adapt::AdaptationPolicy;
use crate::error::CoreResult;
use crate::event::SdpProtocol;
use crate::mesh::MeshConfig;
use crate::registry::RegistryConfig;
use crate::units::{
    DescriptorUnit, JiniUnit, JiniUnitConfig, SdpDescriptor, SlpUnit, SlpUnitConfig, Unit,
    UnitContext, UnitFactory, UpnpUnit, UpnpUnitConfig,
};

/// Specification of one unit to embed.
///
/// The set is open: beyond the three built-in kinds, a protocol enters
/// the system declaratively through [`UnitSpec::Descriptor`] or — for
/// hand-written units the workspace does not know about — through
/// [`UnitSpec::Custom`] with any [`UnitFactory`].
#[derive(Clone)]
#[non_exhaustive]
pub enum UnitSpec {
    /// An SLP unit.
    Slp(SlpUnitConfig),
    /// A UPnP unit.
    Upnp(UpnpUnitConfig),
    /// A Jini unit.
    Jini(JiniUnitConfig),
    /// A descriptor-driven unit: the protocol is defined by data
    /// (paper §3), not a `Unit` implementation.
    Descriptor(SdpDescriptor),
    /// An arbitrary unit factory supplied by the embedder.
    Custom(Rc<dyn UnitFactory>),
}

impl UnitSpec {
    /// The protocol this spec instantiates.
    pub fn protocol(&self) -> SdpProtocol {
        match self {
            UnitSpec::Slp(_) => SdpProtocol::Slp,
            UnitSpec::Upnp(_) => SdpProtocol::Upnp,
            UnitSpec::Jini(_) => SdpProtocol::Jini,
            UnitSpec::Descriptor(d) => d.protocol(),
            UnitSpec::Custom(f) => f.protocol(),
        }
    }

    /// Builds (and wires) the unit this spec names — the single
    /// dispatch point the runtime instantiates every unit through.
    pub(crate) fn build(&self, ctx: &UnitContext) -> CoreResult<Rc<dyn Unit>> {
        Ok(match self {
            UnitSpec::Slp(cfg) => Rc::new(SlpUnit::new(ctx.node(), cfg.clone())?),
            UnitSpec::Upnp(cfg) => {
                let unit = UpnpUnit::new(ctx.node(), cfg.clone())?;
                // Composed messages leave from fresh sockets; have each
                // report to the monitor's loop filter.
                let monitor = ctx.monitor().clone();
                unit.set_loop_filter(Rc::new(move |addr| monitor.ignore_source(addr)));
                Rc::new(unit)
            }
            UnitSpec::Jini(cfg) => Rc::new(JiniUnit::new(ctx.node(), cfg.clone())?),
            UnitSpec::Descriptor(d) => Rc::new(DescriptorUnit::new(ctx.node(), d.clone())?),
            UnitSpec::Custom(factory) => return factory.build(ctx),
        })
    }
}

impl fmt::Debug for UnitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitSpec::Slp(cfg) => f.debug_tuple("Slp").field(cfg).finish(),
            UnitSpec::Upnp(cfg) => f.debug_tuple("Upnp").field(cfg).finish(),
            UnitSpec::Jini(cfg) => f.debug_tuple("Jini").field(cfg).finish(),
            UnitSpec::Descriptor(d) => f.debug_tuple("Descriptor").field(d).finish(),
            UnitSpec::Custom(factory) => {
                f.debug_tuple("Custom").field(&factory.protocol()).finish()
            }
        }
    }
}

/// Configuration of an INDISS instance.
#[derive(Debug, Clone)]
pub struct IndissConfig {
    /// Units to embed (each implies monitoring its protocol).
    pub units: Vec<UnitSpec>,
    /// Whether bridged responses are cached. Caching yields the paper's
    /// §4.3 best case (a UPnP client answered in ~0.1 ms from knowledge
    /// INDISS already holds).
    pub enable_cache: bool,
    /// How long cached responses stay valid.
    pub cache_ttl: Duration,
    /// Traffic-threshold adaptation (§4.2, Fig. 6); `None` disables the
    /// active mode.
    pub adaptation: Option<AdaptationPolicy>,
    /// Whether units are instantiated only once the monitor detects their
    /// protocol (the paper's dynamic composition, Fig. 5) or eagerly at
    /// deploy time.
    pub lazy_units: bool,
    /// After bridging a request for a service type, further requests for
    /// the same type are ignored for this long (unless served from
    /// cache). This breaks translation ping-pong between multiple INDISS
    /// instances on one network: each instance refuses to re-bridge the
    /// storm of requests the others synthesize.
    pub suppress_window: Duration,
    /// Maximum number of service records the registry holds; the least
    /// recently updated record is evicted beyond this bound.
    pub registry_capacity: usize,
    /// Maximum number of cached responses (LRU-evicted beyond this).
    pub cache_capacity: usize,
    /// TTL applied to recorded adverts that carry no `SDP_RES_TTL` of
    /// their own; `None` keeps them until evicted by capacity.
    pub advert_ttl: Option<Duration>,
    /// How long a "nothing found" outcome is remembered per canonical
    /// type (the registry's negative cache): request storms for absent
    /// types are answered from this memory instead of fanning out to
    /// every unit. Kept short — arriving adverts also invalidate entries
    /// eagerly, so a freshly appeared service is visible at once.
    pub negative_ttl: Duration,
    /// Number of independently locked registry shards, routed by
    /// canonical-type hash. One shard (the default) preserves global LRU
    /// semantics exactly — what the deterministic simulation pins down;
    /// more shards let worker threads serve disjoint types in parallel.
    pub shards: usize,
    /// Worker threads a [`crate::ThreadedGateway`] built from this
    /// config runs. The simulated [`crate::Indiss`] runtime ignores it
    /// (the virtual-time event loop is single-threaded by design).
    pub workers: usize,
    /// Which transport a [`crate::NetDriver`] built from this config
    /// serves: the deterministic in-memory bus (the default) or real
    /// UDP sockets. The simulated [`crate::Indiss`] runtime ignores it
    /// (it runs on the virtual-time [`indiss_net::World`]).
    pub transport: TransportKind,
    /// Interface the UDP transport binds — loopback by default, so CI
    /// can run a live gateway without touching the LAN.
    pub bind: Ipv4Addr,
    /// Offset added to every protocol port by the UDP transport
    /// (SLP 427 → 427+offset, …): lets unprivileged processes bind the
    /// privileged discovery ports and parallel tests avoid colliding.
    /// Zero (the default) serves the real IANA ports.
    pub port_offset: u16,
    /// How long a bridged cold-path query waits for the first unit
    /// answer before the runtime retries the fan-out. Each retry
    /// doubles the wait (capped at 8× the initial timeout), with a
    /// small deterministic jitter so synchronized gateways do not
    /// retransmit in lockstep.
    pub query_timeout: Duration,
    /// How many times an unanswered fan-out is retried before the
    /// runtime degrades gracefully (a stale registry answer when one
    /// exists, a negative reply otherwise). Zero disables retries:
    /// the deadline then only bounds how long the requester waits.
    pub query_retries: u32,
    /// This gateway's own mesh peer port. `None` (the default) leaves
    /// the federated mesh plane off; `Some(port)` makes
    /// [`IndissConfig::mesh_config`] yield a [`MeshConfig`] a
    /// [`crate::MeshNode`] can be started from — and makes the config
    /// deployable only through `Indiss::deploy_mesh`, which does that
    /// wiring (plain `Indiss::deploy` refuses it rather than leaving
    /// the federation silently inert).
    pub peer_port: Option<u16>,
    /// Peer gateways (by their mesh peer ports) to gossip with.
    pub peers: Vec<u16>,
    /// Virtual time between mesh gossip rounds.
    pub gossip_interval: Duration,
    /// Most adverts held in store-and-forward custody per down peer.
    pub custody_capacity: usize,
    /// Whether the runtimes record pipeline trace spans and latency
    /// histograms ([`crate::Tracer`]). Off by default: a disabled
    /// tracer costs one branch per record site.
    pub trace: bool,
    /// Capacity of each per-lane span ring when tracing is on. The ring
    /// overwrites its oldest span (counted in `spans_dropped`) rather
    /// than growing or blocking.
    pub trace_capacity: usize,
    /// Port for the scrapeable plaintext stats endpoint
    /// ([`crate::StatsServer`], `GET /metrics` on loopback). `None`
    /// (the default) serves no endpoint; `Some(0)` binds an ephemeral
    /// port (tests read the real one from `NetDriver::stats_addr`).
    pub stats_port: Option<u16>,
}

impl IndissConfig {
    /// An empty configuration (add units and tune knobs with the fluent
    /// setters below).
    pub fn new() -> Self {
        IndissConfig {
            units: Vec::new(),
            enable_cache: true,
            cache_ttl: Duration::from_secs(60),
            adaptation: None,
            lazy_units: false,
            suppress_window: Duration::from_millis(600),
            registry_capacity: 4096,
            cache_capacity: 256,
            advert_ttl: Some(Duration::from_secs(1800)),
            negative_ttl: Duration::from_secs(2),
            shards: 1,
            workers: 1,
            transport: TransportKind::Sim,
            bind: Ipv4Addr::LOCALHOST,
            port_offset: 0,
            query_timeout: Duration::from_millis(500),
            query_retries: 2,
            peer_port: None,
            peers: Vec::new(),
            gossip_interval: MeshConfig::default().gossip_interval,
            custody_capacity: MeshConfig::default().custody_capacity,
            trace: false,
            trace_capacity: 4096,
            stats_port: None,
        }
    }

    /// Starts a fluent chain over an empty configuration — the §3
    /// composition surface:
    /// `IndissConfig::builder().slp().descriptor(dns_sd).lazy().build()`.
    /// The config is its own builder: every setter takes and returns it,
    /// so the named constructors chain the same way
    /// (`IndissConfig::slp_upnp().lazy()`).
    pub fn builder() -> Self {
        IndissConfig::new()
    }

    /// Ends a fluent chain. Structural validation (at least one unit, no
    /// duplicate protocols) happens at [`crate::Indiss::deploy`], which
    /// sees every config regardless of how it was built.
    pub fn build(self) -> Self {
        self
    }

    /// Parses the paper's textual `System SDP = { … }` configuration
    /// language (§3) into a config, descriptor units included. The §3
    /// example parses verbatim; a non-built-in unit takes a `= { Group =
    /// …; Query = "…"; Answer = "…"; … }` descriptor block.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::ConfigSyntax`] for malformed input,
    /// [`crate::CoreError::BadConfig`] for well-formed input that names
    /// an impossible system (e.g. a built-in unit on the wrong port).
    pub fn from_system_sdp(text: &str) -> CoreResult<IndissConfig> {
        crate::config_lang::parse_system_sdp(text)
    }

    /// Adds a unit from an explicit spec.
    pub fn unit(mut self, spec: UnitSpec) -> Self {
        self.units.push(spec);
        self
    }

    /// Adds an SLP unit with defaults.
    pub fn slp(self) -> Self {
        self.unit(UnitSpec::Slp(SlpUnitConfig::default()))
    }

    /// Adds a UPnP unit with defaults.
    pub fn upnp(self) -> Self {
        self.unit(UnitSpec::Upnp(UpnpUnitConfig::default()))
    }

    /// Adds a Jini unit with defaults.
    pub fn jini(self) -> Self {
        self.unit(UnitSpec::Jini(JiniUnitConfig::default()))
    }

    /// Adds a descriptor-driven unit.
    pub fn descriptor(self, descriptor: SdpDescriptor) -> Self {
        self.unit(UnitSpec::Descriptor(descriptor))
    }

    /// Adds a unit built by an arbitrary [`UnitFactory`].
    pub fn custom(self, factory: Rc<dyn UnitFactory>) -> Self {
        self.unit(UnitSpec::Custom(factory))
    }

    /// Instantiates units lazily, on first detection of their protocol
    /// (Fig. 5's dynamic composition).
    pub fn lazy(mut self) -> Self {
        self.lazy_units = true;
        self
    }

    /// Enables or disables the response cache.
    pub fn cache(mut self, enabled: bool) -> Self {
        self.enable_cache = enabled;
        self
    }

    /// Enables traffic-threshold adaptation.
    pub fn adaptation(mut self, policy: AdaptationPolicy) -> Self {
        self.adaptation = Some(policy);
        self
    }

    /// Sets the multi-bridge suppression window.
    pub fn suppress_window(mut self, window: Duration) -> Self {
        self.suppress_window = window;
        self
    }

    /// Bounds the registry's service-record store.
    pub fn registry_capacity(mut self, records: usize) -> Self {
        self.registry_capacity = records;
        self
    }

    /// Bounds the registry's response cache.
    pub fn cache_capacity(mut self, responses: usize) -> Self {
        self.cache_capacity = responses;
        self
    }

    /// Sets the cache entry TTL.
    pub fn cache_ttl(mut self, ttl: Duration) -> Self {
        self.cache_ttl = ttl;
        self
    }

    /// Sets the fallback TTL for adverts without their own `SDP_RES_TTL`.
    pub fn advert_ttl(mut self, ttl: Duration) -> Self {
        self.advert_ttl = Some(ttl);
        self
    }

    /// Sets the negative-cache ("nothing found") TTL.
    pub fn negative_ttl(mut self, ttl: Duration) -> Self {
        self.negative_ttl = ttl;
        self
    }

    /// Splits the registry into `shards` independently locked shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the worker-thread count for [`crate::ThreadedGateway`]s
    /// built from this config.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Selects the transport a [`crate::NetDriver`] serves.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the interface the UDP transport binds.
    pub fn bind(mut self, bind: Ipv4Addr) -> Self {
        self.bind = bind;
        self
    }

    /// Shifts every protocol port served by the UDP transport.
    pub fn port_offset(mut self, offset: u16) -> Self {
        self.port_offset = offset;
        self
    }

    /// Sets the cold-path query timeout (the per-attempt deadline the
    /// retry state machine arms).
    pub fn query_timeout(mut self, timeout: Duration) -> Self {
        self.query_timeout = timeout;
        self
    }

    /// Sets how many times an unanswered fan-out is retried before
    /// degrading.
    pub fn query_retries(mut self, retries: u32) -> Self {
        self.query_retries = retries;
        self
    }

    /// Joins the federated mesh: this gateway binds `port` as its peer
    /// identity and gossips with `peers`. Deploy the result through
    /// `Indiss::deploy_mesh` with the transport the gateways share.
    pub fn mesh(mut self, port: u16, peers: impl Into<Vec<u16>>) -> Self {
        self.peer_port = Some(port);
        self.peers = peers.into();
        self
    }

    /// Sets the virtual time between mesh gossip rounds.
    pub fn gossip_interval(mut self, interval: Duration) -> Self {
        self.gossip_interval = interval;
        self
    }

    /// Bounds the per-down-peer store-and-forward custody queue.
    pub fn custody_capacity(mut self, adverts: usize) -> Self {
        self.custody_capacity = adverts;
        self
    }

    /// Turns on pipeline trace spans and latency histograms.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Sets the per-lane span-ring capacity (implies nothing about
    /// enablement; pair with [`IndissConfig::trace()`]).
    pub fn trace_capacity(mut self, spans: usize) -> Self {
        self.trace_capacity = spans;
        self
    }

    /// Serves the plaintext stats endpoint on `127.0.0.1:port`
    /// (0 = ephemeral).
    pub fn stats_port(mut self, port: u16) -> Self {
        self.stats_port = Some(port);
        self
    }

    /// The mesh plane this configuration implies: `None` until
    /// [`IndissConfig::mesh`] (or a config-language `Peers` block) named
    /// a peer port.
    pub fn mesh_config(&self) -> Option<MeshConfig> {
        let port = self.peer_port?;
        Some(MeshConfig {
            port,
            peers: self.peers.clone(),
            gossip_interval: self.gossip_interval,
            custody_capacity: self.custody_capacity,
            ..MeshConfig::default()
        })
    }

    /// The registry bounds this configuration implies.
    pub fn registry_config(&self) -> RegistryConfig {
        RegistryConfig {
            advert_capacity: self.registry_capacity,
            cache_capacity: self.cache_capacity,
            cache_ttl: self.cache_ttl,
            default_advert_ttl: self.advert_ttl,
            negative_ttl: self.negative_ttl,
            shards: self.shards,
        }
    }

    /// The paper's prototype configuration: a UPnP unit and an SLP unit.
    pub fn slp_upnp() -> Self {
        IndissConfig::new().slp().upnp()
    }

    /// The Fig. 5 configuration: SLP + UPnP + Jini.
    pub fn slp_upnp_jini() -> Self {
        IndissConfig::slp_upnp().jini()
    }

    /// Alias for [`IndissConfig::slp_upnp_jini`], kept for the evaluation
    /// harness's vocabulary.
    pub fn all_protocols() -> Self {
        IndissConfig::slp_upnp_jini()
    }

    /// Protocols covered by the configured units.
    pub fn protocols(&self) -> Vec<SdpProtocol> {
        self.units.iter().map(UnitSpec::protocol).collect()
    }
}

impl Default for IndissConfig {
    /// Defaults to the paper's prototype (SLP + UPnP).
    fn default() -> Self {
        IndissConfig::slp_upnp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_units() {
        let cfg = IndissConfig::new().slp().upnp().jini();
        assert_eq!(cfg.protocols(), vec![SdpProtocol::Slp, SdpProtocol::Upnp, SdpProtocol::Jini]);
    }

    #[test]
    fn paper_prototype_is_slp_upnp() {
        let cfg = IndissConfig::default();
        assert_eq!(cfg.protocols(), vec![SdpProtocol::Slp, SdpProtocol::Upnp]);
        assert!(cfg.enable_cache);
        assert!(cfg.adaptation.is_none());
    }

    #[test]
    fn trace_knobs_default_off_and_flow_through_both_builders() {
        let cfg = IndissConfig::slp_upnp();
        assert!(!cfg.trace);
        assert_eq!(cfg.trace_capacity, 4096);
        assert!(cfg.stats_port.is_none());
        let on = IndissConfig::slp_upnp().trace(true).trace_capacity(64).stats_port(0);
        assert!(on.trace);
        assert_eq!(on.trace_capacity, 64);
        assert_eq!(on.stats_port, Some(0));
        let built =
            IndissConfig::builder().slp().trace(true).trace_capacity(128).stats_port(9900).build();
        assert!(built.trace);
        assert_eq!(built.trace_capacity, 128);
        assert_eq!(built.stats_port, Some(9900));
    }

    #[test]
    fn mesh_config_is_off_until_a_peer_port_is_named() {
        assert!(IndissConfig::slp_upnp().mesh_config().is_none());
        let cfg = IndissConfig::slp_upnp().mesh(7100, vec![7101, 7102]);
        let mesh = cfg.mesh_config().expect("mesh on");
        assert_eq!(mesh.port, 7100);
        assert_eq!(mesh.peers, vec![7101, 7102]);
        assert_eq!(mesh.gossip_interval, MeshConfig::default().gossip_interval);
        let tuned = IndissConfig::builder()
            .slp()
            .mesh(7100, vec![7101])
            .gossip_interval(Duration::from_millis(250))
            .custody_capacity(8)
            .build()
            .mesh_config()
            .expect("mesh on");
        assert_eq!(tuned.gossip_interval, Duration::from_millis(250));
        assert_eq!(tuned.custody_capacity, 8);
    }

    #[test]
    fn toggles_work() {
        let cfg =
            IndissConfig::slp_upnp().cache(false).adaptation(AdaptationPolicy::default()).lazy();
        assert!(!cfg.enable_cache);
        assert!(cfg.adaptation.is_some());
        assert!(cfg.lazy_units);
    }
}
