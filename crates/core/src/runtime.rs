//! The INDISS runtime: monitor + units + session routing (paper §2.2,
//! Fig. 2/3) plus dynamic composition (§3) and adaptation (§4.2).
//!
//! One [`Indiss`] instance deploys on a node — client, service or gateway
//! side, the mechanics are identical — and from then on:
//!
//! 1. the monitor detects SDPs and hands raw messages to the right unit's
//!    parser;
//! 2. request event streams are bridged: every *other* unit runs its
//!    native query process, the first successful response-event stream
//!    wins and the origin unit composes the native reply;
//! 3. advertisement streams are recorded in the [`ServiceRegistry`] (and
//!    re-advertised in the active mode);
//! 4. response streams warm the registry's bounded response cache, which
//!    yields the paper's §4.3 best case (~0.1 ms answers from
//!    already-held knowledge).
//!
//! All discovered-service state — records, the response cache, the
//! suppression window and the units' bridge projections — lives in the
//! shared [`ServiceRegistry`]; the runtime drives its TTL sweeps from
//! virtual-time timers so expiry stays deterministic.
//!
//! The runtime is also the one driver of the units' sans-I/O processes
//! (a foreign request's native query, an advert's enrichment) and of the
//! per-query [`QueryTracker`]: it routes datagrams, timer firings and
//! fetched documents into their steps and performs the effects those
//! emit on the simulated world, in the order emitted.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use indiss_net::{Datagram, Node, SimTime, Transport, UdpSocket, World};

use crate::adapt::DiscoveryMode;
use crate::config::{IndissConfig, UnitSpec};
use crate::error::{CoreError, CoreResult};
use crate::event::{EventStream, SdpProtocol};
use crate::gateway::{BridgeStats, GatewayCore, WarmDecision};
use crate::mesh::MeshNode;
use crate::monitor::Monitor;
use crate::obs::{Phase, SimClock, Tracer};
use crate::registry::{AdvertDisposition, ServiceRegistry};
use crate::tracker::{Deadline, QueryTracker};
use crate::units::{
    error_stream, Effect, NoProcesses, ParsedMessage, Processes, Sock, Unit, UnitContext,
};

/// Whose an in-flight unit process is.
enum Owner {
    /// A foreign unit's native query for bridged request `query`, fanned
    /// out in attempt `attempt`.
    Query { query: u64, attempt: u32 },
    /// An advert's enrichment, to be composed into these units.
    Enrich(Vec<Rc<dyn Unit>>),
}

/// One bridged request in flight.
struct Query {
    tracker: QueryTracker,
    origin: SdpProtocol,
    request: EventStream,
    /// The foreign units every attempt fans out to, in order.
    units: Rc<[Rc<dyn Unit>]>,
}

/// The driver's state: every process this runtime performs effects for.
#[derive(Default)]
struct Driver {
    next_id: u64,
    queries: HashMap<u64, Query>,
    owners: HashMap<u64, Owner>,
    /// Session sockets, by the process that opened them.
    sessions: HashMap<u64, UdpSocket>,
    /// The one effect scratch, lent to whichever step runs.
    fx: Vec<Effect>,
}

impl Driver {
    /// Names a new process (or bridged request) owned by `owner`.
    fn start(&mut self, owner: Option<Owner>) -> u64 {
        self.next_id += 1;
        if let Some(owner) = owner {
            self.owners.insert(self.next_id, owner);
        }
        self.next_id
    }
}

struct IndissInner {
    node: Node,
    config: IndissConfig,
    units: HashMap<SdpProtocol, Rc<dyn Unit>>,
    /// Registry, bridge counters, warm-path knobs and tracer — the half
    /// of the gateway this runtime shares with [`crate::NetDriver`].
    /// With [`field@IndissConfig::trace`] on, every span is recorded at
    /// explicit virtual times (`record_at`), so same-seed replays export
    /// byte-identical traces.
    core: GatewayCore,
    mode: DiscoveryMode,
    mode_log: Vec<(SimTime, DiscoveryMode)>,
    /// Virtual time the next registry sweep is armed for, if any.
    sweep_armed: Option<SimTime>,
    /// The federated mesh plane, when deployed via
    /// [`Indiss::deploy_mesh`]. Gossip rounds and custody expiry are
    /// driven by virtual-time timers (`schedule_mesh_tick`).
    mesh: Option<MeshNode>,
    /// Virtual time the next mesh tick is armed for, if any.
    mesh_tick_armed: Option<SimTime>,
    driver: Driver,
}

/// A deployed INDISS instance.
///
/// The handle is the codebase-wide `Arc<Mutex<…>>` shape (the registry
/// behind it is the fully `Send + Sync` sharded store); the instance
/// itself stays bound to its single-threaded simulation [`World`] — the
/// deterministic event loop is the point of the simulator — while the
/// warm-path semantics it exercises are exactly the ones
/// [`crate::ThreadedGateway`] runs across worker threads, via the shared
/// [`GatewayCore`].
///
/// See the crate-level docs for a full example; the one-liner is
/// `Indiss::deploy(&node, IndissConfig::slp_upnp())`.
#[derive(Clone)]
pub struct Indiss {
    inner: Arc<Mutex<IndissInner>>,
    monitor: Monitor,
}

impl Indiss {
    fn inner(&self) -> MutexGuard<'_, IndissInner> {
        self.inner.lock().expect("runtime lock poisoned")
    }

    /// Deploys INDISS on `node` with the given configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when no units are configured, when two
    /// units claim the same protocol (a silent first-wins would make the
    /// losing spec's configuration disappear without a trace), or when
    /// the config names mesh peers — a `Peers = { … }` block or
    /// [`IndissConfig::mesh`] deploys through
    /// [`Indiss::deploy_mesh`], so a configured federation can never be
    /// silently dropped; network errors when the monitor or unit sockets
    /// cannot bind.
    pub fn deploy(node: &Node, config: IndissConfig) -> CoreResult<Indiss> {
        if config.mesh_config().is_some() {
            return Err(CoreError::BadConfig(
                "the config names mesh peers; use Indiss::deploy_mesh with the \
                 transport the gateways share as their peer bus",
            ));
        }
        Indiss::deploy_inner(node, config)
    }

    /// Deploys INDISS *and* its federated mesh plane: everything
    /// [`Indiss::deploy`] does, plus a [`MeshNode`] built from the
    /// config's [`IndissConfig::mesh_config`] (a config-language
    /// `Peers = { … }` block or [`IndissConfig::mesh`]) is started
    /// on `peer_bus` — the transport every gateway of one mesh must
    /// share. Gossip rounds and custody expiry run on the node's
    /// virtual-time world, and locally recorded adverts are offered to
    /// the mesh for store-and-forward custody automatically.
    ///
    /// # Errors
    ///
    /// Everything [`Indiss::deploy`] rejects, plus
    /// [`CoreError::BadConfig`] when the config names no mesh peers (or
    /// shards the registry beyond what the digest wire carries) and
    /// [`CoreError::Net`] when the peer channel cannot bind.
    pub fn deploy_mesh(
        node: &Node,
        config: IndissConfig,
        peer_bus: Arc<dyn Transport>,
    ) -> CoreResult<Indiss> {
        let Some(mesh_config) = config.mesh_config() else {
            return Err(CoreError::BadConfig(
                "deploy_mesh needs mesh peers (a Peers block or IndissConfig::mesh)",
            ));
        };
        let instance = Indiss::deploy_inner(node, config)?;
        let mesh = MeshNode::new(instance.registry(), peer_bus, mesh_config);
        mesh.set_tracer(instance.tracer());
        mesh.start()?;
        instance.inner().mesh = Some(mesh);
        instance.schedule_mesh_tick(node.world());
        Ok(instance)
    }

    fn deploy_inner(node: &Node, config: IndissConfig) -> CoreResult<Indiss> {
        if config.units.is_empty() {
            return Err(CoreError::BadConfig("at least one unit is required"));
        }
        let mut claimed = HashSet::new();
        for spec in &config.units {
            if !claimed.insert(spec.protocol()) {
                return Err(CoreError::BadConfig(
                    "duplicate unit: each protocol may be configured at most once",
                ));
            }
        }
        let protocols = config.protocols();
        let monitor = Monitor::start(node, &protocols)?;
        let tracer = if config.trace {
            // One ring: the simulated runtime is single-threaded, so one
            // writer covers every lane, and one ring keeps the exported
            // span order exactly the (virtual-time) write order.
            let ports: Vec<u16> = protocols.iter().map(|p| p.port()).collect();
            Tracer::new(config.trace_capacity, 1, &ports, Arc::new(SimClock::new()))
        } else {
            Tracer::disabled()
        };
        // `IndissInner` is deliberately not `Send`: it holds the
        // simulation `Node` and `Rc<dyn Unit>`s bound to the
        // single-threaded virtual-time world. The handle is still
        // `Arc<Mutex<…>>` so the runtime shape matches the threaded
        // architecture it shares state with; the `Send + Sync` surface
        // proper is the registry,
        // counters and gateway (see `tests/sharding.rs`).
        #[allow(clippy::arc_with_non_send_sync)]
        let instance = Indiss {
            inner: Arc::new(Mutex::new(IndissInner {
                node: node.clone(),
                config: config.clone(),
                units: HashMap::new(),
                core: GatewayCore::new(&config, tracer),
                mode: DiscoveryMode::Passive,
                mode_log: vec![(node.world().now(), DiscoveryMode::Passive)],
                sweep_armed: None,
                mesh: None,
                mesh_tick_armed: None,
                driver: Driver::default(),
            })),
            monitor: monitor.clone(),
        };

        if config.lazy_units {
            // Dynamic composition (Fig. 5): instantiate a unit when its
            // protocol is first detected.
            let this = instance.clone();
            monitor.on_detect(move |_, protocol| {
                let _ = this.ensure_unit(protocol);
            });
        } else {
            for spec in &config.units {
                instance.instantiate(spec)?;
            }
        }

        // Wire the message path: monitor → parser → bridge.
        let this = instance.clone();
        monitor.on_message(move |world, protocol, dgram| this.handle(world, protocol, dgram));

        // Adaptation loop.
        if let Some(policy) = config.adaptation.clone() {
            let this = instance.clone();
            node.world().schedule_in(policy.check_interval, move |w| {
                this.adaptation_tick(w, policy.clone());
            });
        }
        Ok(instance)
    }

    /// The monitor (for detection queries).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The shared service registry behind this instance.
    pub fn registry(&self) -> ServiceRegistry {
        self.inner().core.registry()
    }

    /// The federated mesh plane, when this instance was deployed via
    /// [`Indiss::deploy_mesh`].
    pub fn mesh(&self) -> Option<MeshNode> {
        self.inner().mesh.clone()
    }

    /// The pipeline span recorder. Disabled (and free) unless the
    /// config set [`field@IndissConfig::trace`]; enabled, it holds the
    /// virtual-time spans a test or harness exports with
    /// [`crate::chrome_trace_json`].
    pub fn tracer(&self) -> Tracer {
        self.inner().core.tracer()
    }

    /// Bridge statistics so far (atomic bridge-path counters merged with
    /// the registry's per-shard cache and record counters).
    pub fn stats(&self) -> BridgeStats {
        // Cloned out: the runtime lock is released before the registry's
        // shard locks are taken.
        let core = self.inner().core.clone();
        core.stats()
    }

    /// Current interception mode.
    pub fn mode(&self) -> DiscoveryMode {
        self.inner().mode
    }

    /// Mode transitions with their timestamps (Fig. 6 evidence), as an
    /// owned snapshot. Convenience wrapper over
    /// [`Indiss::with_mode_log`]; prefer the borrow-based accessor
    /// anywhere called repeatedly.
    pub fn mode_log(&self) -> Vec<(SimTime, DiscoveryMode)> {
        self.with_mode_log(<[_]>::to_vec)
    }

    /// Runs `f` over the mode-transition log without cloning it.
    pub fn with_mode_log<R>(&self, f: impl FnOnce(&[(SimTime, DiscoveryMode)]) -> R) -> R {
        f(&self.inner().mode_log)
    }

    /// Protocols with an instantiated unit.
    pub fn active_units(&self) -> Vec<SdpProtocol> {
        let mut ps: Vec<SdpProtocol> = self.inner().units.keys().copied().collect();
        ps.sort_by_key(|p| p.port());
        ps
    }

    /// Pre-warms the response cache (used by the evaluation harness to
    /// reproduce the paper's warm best case explicitly).
    pub fn warm_cache(&self, canonical_type: &str, response: EventStream) {
        let (registry, world) = {
            let inner = self.inner();
            (inner.core.registry(), inner.node.world().clone())
        };
        registry.warm(canonical_type, response, world.now());
        self.schedule_sweep(&world);
    }

    fn ensure_unit(&self, protocol: SdpProtocol) -> CoreResult<()> {
        let spec = {
            let inner = self.inner();
            if inner.units.contains_key(&protocol) {
                return Ok(());
            }
            inner.config.units.iter().find(|s| s.protocol() == protocol).cloned()
        };
        match spec {
            Some(spec) => self.instantiate(&spec),
            None => Ok(()),
        }
    }

    /// Instantiates one unit through its [`UnitSpec`] — the
    /// runtime has no knowledge of unit kinds, so the protocol set stays
    /// open (built-ins, descriptor-driven units and custom factories all
    /// take the same path).
    fn instantiate(&self, spec: &UnitSpec) -> CoreResult<()> {
        let ctx = {
            let inner = self.inner();
            UnitContext {
                node: inner.node.clone(),
                registry: inner.core.registry(),
                monitor: self.monitor.clone(),
            }
        };
        let unit = spec.build(&ctx)?;
        unit.bind_registry(&ctx.registry);
        if let Some(socket) = unit.socket() {
            if let Ok(addr) = socket.local_addr() {
                self.monitor.ignore_source(addr);
            }
            let (this, unit) = (self.clone(), Rc::clone(&unit));
            socket.on_receive(move |w, dgram| this.unit_datagram(w, &unit, Sock::Unit, &dgram));
        }
        self.inner().units.insert(spec.protocol(), unit);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Message path
    // ------------------------------------------------------------------

    fn handle(&self, world: &World, protocol: SdpProtocol, dgram: &Datagram) {
        if self.inner().config.lazy_units {
            let _ = self.ensure_unit(protocol);
        }
        let Some((unit, core)) = ({
            let inner = self.inner();
            inner.units.get(&protocol).cloned().map(|u| (u, inner.core.clone()))
        }) else {
            return;
        };
        let parsed = unit.parse(world, dgram);
        if core.tracer.enabled() {
            // Virtual time does not advance inside a synchronous parse,
            // so the span is zero-width at the datagram's arrival time.
            let now = world.now();
            core.tracer.record_at(0, Phase::Parse, now, now);
        }
        self.dispatch(world, protocol, parsed);
    }

    /// Bridges a parsed request, records an advert, or warms the cache
    /// from an overheard response.
    fn dispatch(&self, world: &World, protocol: SdpProtocol, parsed: ParsedMessage) {
        match parsed {
            ParsedMessage::Request(stream) => self.bridge_request(world, protocol, stream),
            ParsedMessage::Advert(stream) => self.record_advert(world, protocol, stream),
            ParsedMessage::Response(stream) => {
                let core = self.inner().core.clone();
                if core.ingest_response(&stream, world.now()) {
                    self.schedule_sweep(world);
                }
            }
            ParsedMessage::Handled | ParsedMessage::NotRelevant => {}
        }
    }

    /// Bridges a request: registry cache first (positive, then negative),
    /// then fan out to all other units; the first successful response
    /// wins. The cache/negative/suppression decision is
    /// [`GatewayCore::classify`] — the same body the multi-threaded
    /// gateway runs on its workers.
    fn bridge_request(&self, world: &World, origin: SdpProtocol, request: EventStream) {
        let units = self.foreign_units(origin);
        let (core, timeout, retries) = {
            let inner = self.inner();
            (inner.core.clone(), inner.config.query_timeout, inner.config.query_retries)
        };
        let decision = core.classify(origin, &request, world.now());
        if let WarmDecision::CacheHit(response) = decision {
            self.deliver(world, origin, &request, &response);
            return;
        }
        if decision != WarmDecision::Bridge || units.is_empty() {
            // "Nothing found" is silence on the multicast protocols; a
            // unit whose client waits for an answer (the Jini registrar
            // path) composes an empty one — whichever short-circuit
            // fired.
            if let Some(unit) = self.unit(origin) {
                unit.compose_response(world, &request, &error_stream(origin, 404));
            }
            return;
        }
        // The fan-out — with its per-attempt deadline, bounded retries
        // and graceful degradation — is the QueryTracker's state machine;
        // `answer` is the query's single exit.
        let stype = request.service_type_symbol();
        let tracker = QueryTracker::new(origin, stype, units.len(), timeout, retries);
        let query = Query { tracker, origin, request, units: units.into() };
        let id = {
            let driver = &mut self.inner().driver;
            let id = driver.start(None);
            driver.queries.insert(id, query);
            id
        };
        self.fan_out(world, id, 0);
    }

    fn unit(&self, protocol: SdpProtocol) -> Option<Rc<dyn Unit>> {
        self.inner().units.get(&protocol).cloned()
    }

    /// Every unit but `origin`'s.
    fn foreign_units(&self, origin: SdpProtocol) -> Vec<Rc<dyn Unit>> {
        let inner = self.inner();
        inner.units.iter().filter(|(p, _)| **p != origin).map(|(_, u)| Rc::clone(u)).collect()
    }

    /// Attempt `index` of bridged request `query`: every foreign unit
    /// starts its native query process, then the attempt's deadline is
    /// armed.
    fn fan_out(&self, world: &World, query: u64, index: u32) {
        let Some((request, units, deadline)) = ({
            let mut inner = self.inner();
            inner
                .driver
                .queries
                .get_mut(&query)
                .map(|q| (q.request.clone(), Rc::clone(&q.units), q.tracker.attempt(index)))
        }) else {
            return;
        };
        for unit in units.iter() {
            let owner = Owner::Query { query, attempt: index };
            let id = self.inner().driver.start(Some(owner));
            self.drive(world, unit, |u, fx| u.start_query(id, &request, fx));
        }
        let this = self.clone();
        world.schedule_in(deadline, move |w| this.query_deadline(w, query, index));
    }

    /// Attempt `index`'s deadline fired: the tracker retries or degrades
    /// (answered queries have left the table already).
    fn query_deadline(&self, world: &World, query: u64, index: u32) {
        let Some((mut q, core)) = ({
            let mut inner = self.inner();
            let q = inner.driver.queries.remove(&query);
            q.map(|q| (q, inner.core.clone()))
        }) else {
            return;
        };
        match q.tracker.deadline(index, &core, world.now()) {
            Deadline::Retry(next) => {
                self.inner().driver.queries.insert(query, q);
                self.fan_out(world, query, next);
            }
            Deadline::Answer(response) => self.answer(world, q, response),
            Deadline::Idle => {}
        }
    }

    /// A bridged request's answer: remember it (or the miss) and deliver.
    fn answer(&self, world: &World, query: Query, response: EventStream) {
        let core = self.inner().core.clone();
        let stype = query.request.service_type_symbol();
        if core.enable_cache {
            if response.service_url().is_some() {
                if let Some(t) = response.service_type_symbol().or(stype) {
                    core.registry.warm(t, response.clone(), world.now());
                    self.schedule_sweep(world);
                }
            } else if let Some(t) = stype {
                // Every unit came back empty: remember the miss so a
                // request storm for this absent type stops fanning out
                // (short TTL; adverts invalidate eagerly).
                core.registry.warm_negative(query.origin, t, world.now());
                self.schedule_sweep(world);
            }
        }
        self.deliver(world, query.origin, &query.request, &response);
    }

    /// Delivers a response stream to the requester via the origin unit's
    /// composer.
    fn deliver(&self, world: &World, origin: SdpProtocol, req: &EventStream, resp: &EventStream) {
        let (tracer, unit) = {
            let inner = self.inner();
            if resp.service_url().is_some() {
                inner.core.counters.responses_composed.fetch_add(1, Ordering::Relaxed);
            }
            (inner.core.tracer(), inner.units.get(&origin).cloned())
        };
        if tracer.enabled() {
            let now = world.now();
            tracer.record_at(0, Phase::Deliver, now, now);
        }
        if let Some(unit) = unit {
            unit.compose_response(world, req, resp);
        }
    }

    // ------------------------------------------------------------------
    // The unit-process driver
    // ------------------------------------------------------------------

    /// Lends the effect scratch to one step of `unit`'s processes, then
    /// performs what the step emitted, in order. A step reached while
    /// the scratch is out (a fetch that fails at once) gets a fresh one.
    fn drive(
        &self,
        world: &World,
        unit: &Rc<dyn Unit>,
        step: impl FnOnce(&mut dyn Processes, &mut Vec<Effect>),
    ) {
        let mut fx = std::mem::take(&mut self.inner().driver.fx);
        match unit.processes() {
            Some(mut processes) => step(&mut *processes, &mut fx),
            None => step(&mut NoProcesses(unit.protocol()), &mut fx),
        }
        for effect in fx.drain(..) {
            self.perform(world, unit, effect);
        }
        self.inner().driver.fx = fx;
    }

    fn perform(&self, world: &World, unit: &Rc<dyn Unit>, effect: Effect) {
        match effect {
            Effect::Open(id) => {
                let node = self.inner().node.clone();
                let Ok(socket) = node.udp_bind_ephemeral() else {
                    return; // the process's deadline fails the query
                };
                if let Ok(addr) = socket.local_addr() {
                    self.monitor.ignore_source(addr);
                }
                let (this, unit) = (self.clone(), Rc::clone(unit));
                socket.on_receive(move |w, d| this.unit_datagram(w, &unit, Sock::Session(id), &d));
                self.inner().driver.sessions.insert(id, socket);
            }
            Effect::Send { from, to, bytes, delay } => {
                let socket = match from {
                    Sock::Unit => unit.socket(),
                    Sock::Session(id) => self.inner().driver.sessions.get(&id).cloned(),
                };
                let Some(socket) = socket else { return };
                if delay.is_zero() {
                    let _ = socket.send_to(&bytes, to);
                } else {
                    world.schedule_in(delay, move |_| {
                        let _ = socket.send_to(&bytes, to);
                    });
                }
            }
            Effect::Arm { timer, delay } => {
                let (this, unit) = (self.clone(), Rc::clone(unit));
                world.schedule_in(delay, move |w| {
                    this.drive(w, &unit, |u, fx| u.on_timer(timer, fx))
                });
            }
            Effect::Fetch { id, url } => {
                // The simulated HTTP client answers on a `Completion`: the
                // one place the cold path adapts one.
                let node = self.inner().node.clone();
                let (this, unit, world) = (self.clone(), Rc::clone(unit), world.clone());
                indiss_upnp::http_get(&node, &url).subscribe(move |response| {
                    let document = response.filter(|r| r.is_success()).map(|r| r.body);
                    this.drive(&world, &unit, |u, fx| u.on_fetched(id, document, fx));
                });
            }
            Effect::Close(id) => {
                let socket = self.inner().driver.sessions.remove(&id);
                socket.inspect(UdpSocket::close);
            }
            Effect::Complete { id, response } => self.completed(world, id, response),
        }
    }

    /// A datagram at one of `unit`'s process sockets. What the processes
    /// do not consume (the Jini registrar's lookups and registrations)
    /// is bridged or recorded like a monitor-parsed message.
    fn unit_datagram(&self, world: &World, unit: &Rc<dyn Unit>, from: Sock, dgram: &Datagram) {
        let mut parsed = ParsedMessage::NotRelevant;
        self.drive(world, unit, |u, fx| parsed = u.on_datagram(from, dgram, fx));
        self.dispatch(world, unit.protocol(), parsed);
    }

    /// Process `id` completed: a query's unit reports to its tracker, an
    /// enrichment composes its advert into the other units.
    fn completed(&self, world: &World, id: u64, response: EventStream) {
        let owner = self.inner().driver.owners.remove(&id);
        match owner {
            Some(Owner::Query { query, attempt }) => {
                let answered = {
                    let mut inner = self.inner();
                    let queries = &mut inner.driver.queries;
                    let answer = queries
                        .get_mut(&query)
                        .and_then(|q| q.tracker.unit_completed(attempt, response));
                    answer.and_then(|answer| Some((queries.remove(&query)?, answer)))
                };
                if let Some((query, answer)) = answered {
                    self.answer(world, query, answer);
                }
            }
            Some(Owner::Enrich(units)) => {
                for unit in units {
                    unit.compose_advert(world, &response);
                }
            }
            None => {}
        }
    }

    /// Ingests an advertisement through the core (record, count, warm);
    /// then what only this runtime does: offer it to the mesh, arm the
    /// timers, and in the active mode re-advertise it into the other
    /// SDPs.
    fn record_advert(&self, world: &World, origin: SdpProtocol, stream: EventStream) {
        let now = world.now();
        let (core, mesh, active) = {
            let inner = self.inner();
            (inner.core.clone(), inner.mesh.clone(), inner.mode == DiscoveryMode::Active)
        };
        if core.ingest_advert(origin, &stream, now) == AdvertDisposition::Ignored {
            return;
        }
        // Offer the advert to the mesh plane: up peers learn it from
        // the next digest via the version bump the record just caused,
        // down peers get it held in custody for replay on reconnect
        // (whose lapse deadline may move the next mesh tick earlier).
        if stream.is_alive() {
            if let Some(mesh) = mesh {
                mesh.publish(origin, &stream, now);
                self.schedule_mesh_tick(world);
            }
        }
        self.schedule_sweep(world);
        if active {
            self.translate_advert(world, origin, &stream);
        }
    }

    /// Re-composes one advert into every other SDP, enriching it through
    /// the origin unit first (a UPnP advert must have its description
    /// fetched before it carries an endpoint).
    fn translate_advert(&self, world: &World, origin: SdpProtocol, stream: &EventStream) {
        let units = self.foreign_units(origin);
        if units.is_empty() {
            return;
        }
        self.inner().core.counters.adverts_translated.fetch_add(1, Ordering::Relaxed);
        let Some(origin_unit) = self.unit(origin) else {
            for unit in units {
                unit.compose_advert(world, stream);
            }
            return;
        };
        let id = self.inner().driver.start(Some(Owner::Enrich(units)));
        self.drive(world, &origin_unit, |u, fx| u.start_enrich(id, stream, fx));
    }

    // ------------------------------------------------------------------
    // Registry expiry sweeps
    // ------------------------------------------------------------------

    /// Arms (or re-arms) the virtual-time sweep timer at the registry's
    /// earliest pending deadline. Reads expire lazily regardless; the
    /// timer is what reclaims memory deterministically.
    fn schedule_sweep(&self, world: &World) {
        let Some(deadline) = self.registry().next_deadline() else {
            return;
        };
        {
            let mut inner = self.inner();
            // An earlier (or equal) timer is already pending.
            if inner.sweep_armed.is_some_and(|armed| armed <= deadline) {
                return;
            }
            inner.sweep_armed = Some(deadline);
        }
        let this = self.clone();
        world.schedule_at(deadline, move |w| this.run_sweep(w));
    }

    fn run_sweep(&self, world: &World) {
        self.inner().sweep_armed = None;
        self.registry().sweep(world.now());
        self.schedule_sweep(world);
    }

    // ------------------------------------------------------------------
    // Mesh gossip ticks
    // ------------------------------------------------------------------

    /// Arms (or re-arms) the virtual-time mesh timer at the mesh plane's
    /// next deadline (gossip round or custody lapse). Mirrors
    /// [`Self::schedule_sweep`]: an earlier pending timer wins.
    fn schedule_mesh_tick(&self, world: &World) {
        let deadline = {
            let inner = self.inner();
            let Some(mesh) = inner.mesh.as_ref() else {
                return;
            };
            mesh.next_deadline()
        };
        let Some(deadline) = deadline else { return };
        {
            let mut inner = self.inner();
            if inner.mesh_tick_armed.is_some_and(|armed| armed <= deadline) {
                return;
            }
            inner.mesh_tick_armed = Some(deadline);
        }
        let this = self.clone();
        world.schedule_at(deadline, move |w| this.run_mesh_tick(w));
    }

    fn run_mesh_tick(&self, world: &World) {
        // Clone the mesh handle out so the runtime lock is released
        // before tick sends frames (a SimTransport peer may deliver
        // synchronously and call back into this runtime's registry).
        let mesh = {
            let mut inner = self.inner();
            inner.mesh_tick_armed = None;
            inner.mesh.clone()
        };
        if let Some(mesh) = mesh {
            mesh.tick(world.now());
        }
        self.schedule_mesh_tick(world);
    }

    // ------------------------------------------------------------------
    // Adaptation (§4.2)
    // ------------------------------------------------------------------

    fn adaptation_tick(&self, world: &World, policy: crate::adapt::AdaptationPolicy) {
        let now = world.now();
        let window_start = now.saturating_duration_since(SimTime::ZERO);
        let from = if window_start > policy.window {
            SimTime::from_nanos(
                (now.as_nanos())
                    .saturating_sub(u64::try_from(policy.window.as_nanos()).unwrap_or(u64::MAX)),
            )
        } else {
            SimTime::ZERO
        };
        let rate = world.meter_snapshot().rate_between(from, now);
        let new_mode = policy.decide(rate);
        let go_active = {
            let mut inner = self.inner();
            if new_mode != inner.mode {
                inner.mode = new_mode;
                inner.mode_log.push((now, new_mode));
            }
            new_mode == DiscoveryMode::Active
        };
        if go_active {
            // Re-advertise everything we know (periodic while active).
            for (origin, stream) in self.registry().adverts(now) {
                self.translate_advert(world, origin, &stream);
            }
        }
        let this = self.clone();
        world.schedule_in(policy.check_interval, move |w| {
            this.adaptation_tick(w, policy.clone());
        });
    }
}

impl std::fmt::Debug for Indiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        let inner = self.inner();
        f.debug_struct("Indiss")
            .field("node", &inner.node.name())
            .field("units", &inner.units.keys().collect::<Vec<_>>())
            .field("mode", &inner.mode)
            .field("stats", &stats)
            .field("registry", &inner.core.registry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::AdaptationPolicy;
    use indiss_slp::{SlpConfig, UserAgent};
    use indiss_upnp::{ClockDevice, UpnpConfig};
    use std::time::Duration;

    /// The paper's flagship scenario (§2.4 / Fig. 8a): an SLP client
    /// discovers a UPnP clock through INDISS on the service host.
    #[test]
    fn slp_client_discovers_upnp_clock_service_side() {
        let world = World::new(71);
        let service_node = world.add_node("clock-host");
        let client_node = world.add_node("slp-client");
        let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).unwrap();
        let indiss = Indiss::deploy(&service_node, IndissConfig::slp_upnp()).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();

        let (_first, done) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        let outcome = done.take().expect("round finished");
        assert_eq!(outcome.urls.len(), 1, "clock visible through INDISS");
        let url = &outcome.urls[0].url;
        assert!(url.starts_with("service:clock:soap://"), "Fig. 4 URL mapping, got {url}");
        assert!(url.ends_with("/service/timer/control"));
        let stats = indiss.stats();
        assert_eq!(stats.requests_bridged, 1);
        assert_eq!(stats.responses_composed, 1);
        assert!(outcome.response_time().unwrap() > Duration::from_millis(30));
    }

    #[test]
    fn client_side_deployment_works_too() {
        // Fig. 9a: INDISS co-located with the SLP client.
        let world = World::new(72);
        let service_node = world.add_node("clock-host");
        let client_node = world.add_node("slp-client");
        let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).unwrap();
        let _indiss = Indiss::deploy(&client_node, IndissConfig::slp_upnp()).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();
        let (_first, done) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        assert_eq!(done.take().unwrap().urls.len(), 1);
    }

    #[test]
    fn gateway_deployment_bridges_two_foreign_nodes() {
        let world = World::new(73);
        let service_node = world.add_node("clock-host");
        let client_node = world.add_node("slp-client");
        let gateway_node = world.add_node("gateway");
        let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).unwrap();
        let _indiss = Indiss::deploy(&gateway_node, IndissConfig::slp_upnp()).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();
        let (_first, done) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        assert_eq!(done.take().unwrap().urls.len(), 1);
    }

    #[test]
    fn cache_answers_second_request_fast() {
        let world = World::new(74);
        let service_node = world.add_node("clock-host");
        let client_node = world.add_node("slp-client");
        let _clock = ClockDevice::start(&service_node, UpnpConfig::default()).unwrap();
        let indiss = Indiss::deploy(&service_node, IndissConfig::slp_upnp()).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();

        let (_f1, d1) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        let cold = d1.take().unwrap().response_time().unwrap();

        let (_f2, d2) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        let warm = d2.take().unwrap().response_time().unwrap();

        assert_eq!(indiss.stats().cache_hits, 1);
        assert!(warm < cold / 10, "cached answer should be ≫ faster: cold={cold:?} warm={warm:?}");
    }

    #[test]
    fn no_answer_means_silence_not_error() {
        let world = World::new(75);
        let client_node = world.add_node("slp-client");
        let bridge_node = world.add_node("gateway");
        let _indiss = Indiss::deploy(&bridge_node, IndissConfig::slp_upnp()).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();
        let (first, done) = ua.find_services(&world, "service:toaster", "");
        world.run_for(Duration::from_secs(2));
        assert!(!first.is_complete());
        assert!(done.take().unwrap().urls.is_empty());
    }

    /// A storm of requests for an absent type fans out once; while the
    /// negative TTL holds, repeats are answered from the "nothing found"
    /// memory without bridging (and counted as negative hits).
    #[test]
    fn absent_type_storm_is_absorbed_by_the_negative_cache() {
        let world = World::new(80);
        let client_node = world.add_node("slp-client");
        let bridge_node = world.add_node("gateway");
        let indiss = Indiss::deploy(
            &bridge_node,
            IndissConfig::slp_upnp().negative_ttl(Duration::from_secs(30)),
        )
        .unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();

        // First request: fans out, fails everywhere, arms the negative
        // cache (run past the suppression window between requests).
        let (_f, d) = ua.find_services(&world, "service:toaster", "");
        world.run_for(Duration::from_secs(1));
        assert!(d.take().unwrap().urls.is_empty());
        assert_eq!(indiss.stats().requests_bridged, 1);

        // The storm: each repeat is a negative hit, not a new fan-out.
        for _ in 0..5 {
            let (_f, d) = ua.find_services(&world, "service:toaster", "");
            world.run_for(Duration::from_secs(1));
            assert!(d.take().unwrap().urls.is_empty());
        }
        let stats = indiss.stats();
        assert_eq!(stats.requests_bridged, 1, "no further fan-outs: {stats:?}");
        assert_eq!(stats.negative_hits, 5, "storm absorbed: {stats:?}");
    }

    /// A Jini client whose lookup cannot be bridged (no foreign units
    /// configured) still gets an answer — an empty reply, not a hang:
    /// every bridge short-circuit (cache-negative, suppressed, no units)
    /// hands the origin unit a 404 to compose.
    #[test]
    fn jini_lookup_with_no_foreign_units_gets_an_empty_reply() {
        let world = World::new(82);
        let gw = world.add_node("gateway");
        let client_node = world.add_node("jini-client");
        let _indiss = Indiss::deploy(&gw, IndissConfig::new().jini()).unwrap();
        let client =
            indiss_jini::JiniAgent::start(&client_node, indiss_jini::JiniConfig::default())
                .unwrap();
        let found = client.lookup("clock");
        world.run_for(Duration::from_secs(2));
        let items = found.take().expect("lookup answered, not left hanging");
        assert!(items.is_empty(), "nothing bridged, honest empty reply");
    }

    /// A service appearing right after a negative outcome is visible
    /// immediately: its advert invalidates the negative entry.
    #[test]
    fn advert_invalidates_negative_outcome() {
        let world = World::new(81);
        let client_node = world.add_node("slp-client");
        let host = world.add_node("clock-host");
        let indiss =
            Indiss::deploy(&host, IndissConfig::slp_upnp().negative_ttl(Duration::from_secs(120)))
                .unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();

        let (_f, d) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(1));
        assert!(d.take().unwrap().urls.is_empty(), "nothing there yet");
        assert!(indiss.registry().negative_len() >= 1, "negative outcome remembered");

        // The clock appears and announces itself; the NOTIFY clears the
        // negative memory, so the next request bridges again and wins.
        let _clock = ClockDevice::start(&host, UpnpConfig::default()).unwrap();
        world.run_for(Duration::from_secs(1));
        let (_f, d) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(2));
        assert_eq!(d.take().unwrap().urls.len(), 1, "visible immediately");
    }

    #[test]
    fn lazy_units_instantiate_on_detection() {
        let world = World::new(76);
        let gw = world.add_node("gateway");
        let client_node = world.add_node("client");
        let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp().lazy()).unwrap();
        assert!(indiss.active_units().is_empty(), "nothing instantiated yet");
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();
        ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(1));
        assert_eq!(indiss.active_units(), vec![SdpProtocol::Slp]);
    }

    #[test]
    fn adaptation_goes_active_when_quiet() {
        let world = World::new(77);
        let host = world.add_node("service-host");
        let indiss = Indiss::deploy(
            &host,
            IndissConfig::slp_upnp().adaptation(AdaptationPolicy {
                threshold_bytes_per_sec: 100.0,
                window: Duration::from_secs(1),
                check_interval: Duration::from_secs(1),
            }),
        )
        .unwrap();
        assert_eq!(indiss.mode(), DiscoveryMode::Passive);
        world.run_for(Duration::from_secs(5));
        assert_eq!(indiss.mode(), DiscoveryMode::Active, "quiet network → active");
        assert!(indiss.mode_log().len() >= 2);
    }

    #[test]
    fn deploy_requires_units() {
        let world = World::new(78);
        let node = world.add_node("x");
        assert!(matches!(Indiss::deploy(&node, IndissConfig::new()), Err(CoreError::BadConfig(_))));
    }

    /// Two specs for the same protocol must be rejected loudly: a silent
    /// first-wins would make the second spec's configuration vanish.
    #[test]
    fn deploy_rejects_duplicate_units_for_one_protocol() {
        let world = World::new(83);
        let node = world.add_node("x");
        let config = IndissConfig::new().slp().upnp().slp();
        let err = Indiss::deploy(&node, config).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(msg) if msg.contains("duplicate")), "{err}");
        // The builder path hits the same guard.
        let config = IndissConfig::builder()
            .descriptor(crate::SdpDescriptor::dns_sd())
            .descriptor(crate::SdpDescriptor::dns_sd())
            .build();
        let err = Indiss::deploy(&node, config).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(msg) if msg.contains("duplicate")), "{err}");
    }

    /// Fig. 5 with a descriptor unit: the monitor watches the
    /// descriptor's scan port from deploy time, the unit instantiates on
    /// the first native datagram, and `active_units` reports the dynamic
    /// protocol like any built-in.
    #[test]
    fn lazy_descriptor_unit_instantiates_on_first_traffic() {
        let descriptor = crate::SdpDescriptor::dns_sd();
        let protocol = descriptor.protocol();
        let world = World::new(84);
        let gw = world.add_node("gateway");
        let client_node = world.add_node("dnssd-client");
        let indiss = Indiss::deploy(
            &gw,
            IndissConfig::builder().slp().descriptor(descriptor.clone()).lazy().build(),
        )
        .unwrap();
        assert!(indiss.active_units().is_empty(), "nothing instantiated yet");

        let client = crate::DescriptorClient::start(&client_node, descriptor).unwrap();
        client.query(&world, "clock");
        world.run_for(Duration::from_secs(1));
        assert_eq!(indiss.monitor().detected(), vec![protocol], "scan port detected");
        assert_eq!(indiss.active_units(), vec![protocol], "unit composed dynamically");
    }

    /// Adverts heard from the environment land in the shared registry and
    /// expire deterministically when their TTL elapses.
    #[test]
    fn heard_adverts_land_in_registry_and_expire() {
        let world = World::new(79);
        let host = world.add_node("gateway");
        let dev = world.add_node("device");
        let indiss =
            Indiss::deploy(&host, IndissConfig::slp_upnp().advert_ttl(Duration::from_secs(120)))
                .unwrap();
        let _clock = ClockDevice::start(&dev, UpnpConfig::default()).unwrap();
        world.run_for(Duration::from_secs(1));

        let registry = indiss.registry();
        assert!(registry.contains_type("clock", world.now()), "NOTIFY recorded");
        assert!(indiss.stats().adverts_recorded >= 1);
        // The clock announces its device type and its timer service type:
        // two distinct USNs, two records.
        assert_eq!(registry.record_count_by_origin(SdpProtocol::Upnp, world.now()), 2);

        // The clock's announcements carry max-age 1800 s; after that (and
        // without re-announcements, which repeat every ~900 s by default,
        // so stop the device first) the record must be gone. ClockDevice
        // keeps announcing while alive, so instead check the sweep keeps
        // the store bounded rather than waiting out the TTL here — the
        // dedicated registry tests cover exact expiry timing.
        assert!(registry.record_count() <= registry.config().advert_capacity);
    }

    /// A mesh-bearing config must go through [`Indiss::deploy_mesh`] —
    /// plain `deploy` refuses it loudly rather than leaving the
    /// federation silently inert — and once deployed, virtual-time
    /// gossip ticks federate the gateways with no manual round driving.
    #[test]
    fn deployed_gateways_federate_over_the_peer_bus() {
        let world = World::new(85);
        let node_a = world.add_node("gw-a");
        let node_b = world.add_node("gw-b");
        let bus: Arc<dyn Transport> = Arc::new(indiss_net::SimTransport::new());

        let cfg_a = IndissConfig::slp_upnp().mesh(7100, vec![7101]);
        let cfg_b = IndissConfig::slp_upnp().mesh(7101, vec![7100]);

        let err = Indiss::deploy(&node_a, cfg_a.clone()).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(msg) if msg.contains("deploy_mesh")), "{err}");
        let err =
            Indiss::deploy_mesh(&node_a, IndissConfig::slp_upnp(), Arc::clone(&bus)).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(msg) if msg.contains("peers")), "{err}");

        let a = Indiss::deploy_mesh(&node_a, cfg_a, Arc::clone(&bus)).unwrap();
        let b = Indiss::deploy_mesh(&node_b, cfg_b, Arc::clone(&bus)).unwrap();

        // Feed the advert through the runtime path (so the mesh custody
        // hook runs), not through a simulated device — every sim node
        // shares one multicast segment, so a real device's NOTIFY would
        // reach gateway B natively and prove nothing about the mesh.
        let advert = EventStream::framed(vec![
            crate::Event::ServiceAlive,
            crate::Event::ServiceType("clock".into()),
            crate::Event::ResServUrl("slp://gw-a/clock".into()),
            crate::Event::ResTtl(600),
        ]);
        a.record_advert(&world, SdpProtocol::Slp, advert);

        // Four default gossip intervals: a digest → pull → records
        // round plus settling digest/ack rounds, all timer-driven.
        world.run_for(Duration::from_secs(2));

        let record = b
            .registry()
            .record(SdpProtocol::Slp, "slp://gw-a/clock", world.now())
            .expect("gossip landed the record at the peer");
        assert_eq!(record.provenance(), crate::RecordOrigin::Remote(crate::PeerId(7100)));
        assert!(
            b.registry().cached_response("clock", world.now()).is_some(),
            "the apply warmed the peer's cache for remote hits"
        );
        let stats = b.mesh().expect("mesh deployed").stats();
        assert!(stats.rounds_run >= 2, "virtual-time ticks drove gossip: {stats:?}");
        assert_eq!(stats.records_applied, 1, "{stats:?}");
        assert!(a.mesh().unwrap().stats().rounds_run >= 2, "both gateways tick independently");
    }

    /// A unit whose native query process never answers — the simulated
    /// stand-in for a hostile network that eats every query or reply.
    struct SilentUnit(std::cell::RefCell<Swallow>);

    struct Swallow;

    impl Processes for Swallow {
        fn start_query(&mut self, _id: u64, _request: &EventStream, _fx: &mut Vec<Effect>) {
            // The process never completes, exactly like a lost datagram.
        }
    }

    impl Unit for SilentUnit {
        fn protocol(&self) -> SdpProtocol {
            SdpProtocol::Upnp
        }
        fn parse(&self, _world: &World, _dgram: &Datagram) -> ParsedMessage {
            ParsedMessage::NotRelevant
        }
        fn processes(&self) -> Option<std::cell::RefMut<'_, dyn Processes>> {
            Some(self.0.borrow_mut())
        }
        fn compose_response(&self, _world: &World, _request: &EventStream, _resp: &EventStream) {}
        fn compose_advert(&self, _world: &World, _advert: &EventStream) {}
    }

    struct SilentFactory;

    impl crate::units::UnitFactory for SilentFactory {
        fn protocol(&self) -> SdpProtocol {
            SdpProtocol::Upnp
        }
        fn build(&self, _ctx: &crate::units::UnitContext) -> CoreResult<Rc<dyn Unit>> {
            Ok(Rc::new(SilentUnit(std::cell::RefCell::new(Swallow))))
        }
    }

    fn hostile_config(timeout: Duration, retries: u32) -> IndissConfig {
        IndissConfig::builder()
            .slp()
            .custom(Rc::new(SilentFactory))
            .query_timeout(timeout)
            .query_retries(retries)
            // One tracker per test request: keep SLP retransmissions of
            // the same round inside the suppression window.
            .suppress_window(Duration::from_secs(5))
            .build()
    }

    /// The QueryTracker's unhappy path end to end: a fan-out whose only
    /// foreign unit never answers is retried with backoff, exhausts its
    /// budget, and — with nothing stale to fall back on — terminates
    /// with a negative answer instead of hanging. Every stage counted.
    #[test]
    fn silent_fanout_is_retried_then_degrades_to_a_negative_answer() {
        let world = World::new(90);
        let gw = world.add_node("gateway");
        let client_node = world.add_node("slp-client");
        let indiss = Indiss::deploy(&gw, hostile_config(Duration::from_millis(50), 2)).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();

        let (_first, done) = ua.find_services(&world, "service:ghost", "");
        world.run_for(Duration::from_secs(3));
        assert!(done.take().expect("round terminated").urls.is_empty());
        let stats = indiss.stats();
        assert_eq!(stats.requests_bridged, 1, "{stats:?}");
        assert_eq!(stats.queries_retried, 2, "both retries spent: {stats:?}");
        assert_eq!(stats.queries_exhausted, 1, "{stats:?}");
        assert_eq!(stats.stale_served, 0, "nothing stale to serve: {stats:?}");
        // The degraded (negative) outcome still armed the negative
        // cache (swept later, once its TTL lapsed), so a storm during
        // the outage stops fanning out.
        assert!(indiss.registry().stats().negative_stored >= 1, "negative memory armed");
    }

    /// The deadline layering `tracker.rs` states: a foreign responder
    /// that stays mute ends the fan-out as a definitive negative at the
    /// descriptor unit's own window (20 ms + 5), long before the
    /// tracker's first 500 ms deadline — so nothing is retried or
    /// exhausted.
    #[test]
    fn muted_responder_is_a_definitive_negative_at_the_unit_window() {
        let dns_sd = crate::SdpDescriptor::dns_sd();
        let world = World::new(92);
        let gw = world.add_node("gateway");
        let responder = world.add_node("dnssd-service");
        let config = IndissConfig::builder().slp().descriptor(dns_sd.clone()).build();
        let indiss = Indiss::deploy(&gw, config).unwrap();
        let ua = UserAgent::start(&world.add_node("slp-client"), SlpConfig::default()).unwrap();
        // The service holds the type but is mute: it never announces it
        // and never answers a query for it.
        responder.set_up(false);
        crate::DescriptorService::start(&responder, dns_sd).unwrap().register("printer", "ipp://p");

        let (_first, done) = ua.find_services(&world, "service:printer", "");
        assert!(world.run_until_condition(|| indiss.stats().requests_bridged == 1));
        let bridged_at = world.now();
        assert!(world.run_until_condition(|| indiss.registry().negative_len() == 1));
        assert_eq!(world.now() - bridged_at, Duration::from_millis(25), "the descriptor window");
        world.run_for(Duration::from_secs(3));
        assert!(done.take().expect("round finished").urls.is_empty());
        let stats = indiss.stats();
        assert_eq!((stats.queries_retried, stats.queries_exhausted), (0, 0), "{stats:?}");
    }

    /// Graceful degradation with stale knowledge: when retries exhaust
    /// but an expired registry record for the type survives, the query
    /// is answered from it — and the answer re-warms the cache so the
    /// next request is a warm hit, not another retry ladder.
    #[test]
    fn exhausted_query_serves_a_stale_record() {
        let world = World::new(91);
        let gw = world.add_node("gateway");
        let client_node = world.add_node("slp-client");
        let indiss = Indiss::deploy(&gw, hostile_config(Duration::from_millis(50), 1)).unwrap();
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();

        // A clock was known once; its record's one-second TTL lapses
        // long before the request (no sweep runs, so the stale record
        // survives in the store).
        indiss.registry().record_advert(
            SdpProtocol::Upnp,
            &EventStream::framed(vec![
                crate::Event::ServiceAlive,
                crate::Event::ServiceType("clock".into()),
                crate::Event::ResServUrl("soap://10.0.0.2:4004/service/timer/control".into()),
                crate::Event::ResTtl(1),
            ]),
            world.now(),
        );
        world.run_for(Duration::from_secs(2));
        assert!(!indiss.registry().contains_type("clock", world.now()), "record is stale");

        let (_first, done) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(3));
        let outcome = done.take().expect("round terminated");
        assert_eq!(outcome.urls.len(), 1, "stale answer delivered");
        assert!(outcome.urls[0].url.ends_with("/service/timer/control"));
        let stats = indiss.stats();
        assert_eq!(stats.queries_exhausted, 1, "{stats:?}");
        assert_eq!(stats.stale_served, 1, "{stats:?}");
        assert_eq!(stats.responses_composed, 1, "{stats:?}");
        assert!(
            indiss.registry().cache_contains("clock", world.now()),
            "serve-stale re-warmed the cache"
        );
    }
}
