//! The scenario engine: compiles a declared [`WorldSpec`] into a
//! seeded deterministic run.
//!
//! A world is declared as a [`WorldSpec`] literal (see [`matrix`]),
//! checked by [`WorldSpec::validate`], and executed by [`run_world`]:
//!
//! - `gateways` mesh-federated [`MeshNode`]s over one shared
//!   [`SimTransport`] bus, each behind its own [`FaultTransport`]
//!   ingress wrapper carrying the world's shared fault rates plus that
//!   gateway's scheduled [`LinkCut`] windows (virtual-time partitions);
//! - churn driven per engine tick: seeded arrivals re-announce
//!   services at their home gateways, departures leave records to die
//!   by TTL;
//! - [`MobilityMove`] scripts re-home a service to a new gateway
//!   mid-run (the mobility axis — the handover must converge to one
//!   live record);
//! - an adversarial injector drawing malformed datagrams from the
//!   fuzzer's [`MutationSource`] strategy mix and firing them at the
//!   gateways' mesh ports;
//! - deterministic delivery probes with an exponential-backoff retry
//!   state machine (the tracker population is itself a bounded
//!   resource under assertion);
//! - an optional soak phase flooding short-lived records through the
//!   stores, with bounded-memory assertions settled through
//!   [`MemoryBudget`].
//!
//! Every step draws from SplitMix64 streams derived from the world's
//! seed and advances a virtual clock — no wall time, no global state —
//! so a same-seed rerun reproduces the run bit for bit, which
//! [`WorldOutcome::digest`] fingerprints and the
//! `every_world_replays_its_pinned_digest` test checks by running the
//! whole matrix twice against pinned digests.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

use indiss_core::{
    chrome_trace_json, Event, EventStream, LinkCut, MemoryBudget, MeshConfig, MeshNode,
    MobilityMove, MutationSource, RegistryConfig, ScenarioRng, SdpProtocol, ServiceRegistry,
    SimClock, Symbol, Tracer, WorldAsserts, WorldFault, WorldSpec,
};
use indiss_net::{
    Datagram, FaultStats, FaultTransport, SimTime, SimTransport, Transport, TransportSocket,
};

/// Extra delivery checks a probe gets after its first miss, spaced
/// `2^attempt` ticks apart.
const PROBE_RETRIES: u32 = 3;
/// Fresh probes issued per engine tick.
const PROBES_PER_TICK: usize = 8;
/// Soak-record lease length, seconds. Short on purpose: the flood must
/// churn *through* the stores, not accumulate in them.
const SOAK_TTL_SECS: u32 = 4;
/// Soak sweep/collect cadence, in records. At one advert per virtual
/// millisecond this sweeps a little slower than the soak TTL lapses,
/// so the live population stays near `rate × TTL`, far below the
/// flood's size.
const SOAK_SWEEP_EVERY: u64 = 4096;

/// A named world from the scenario matrix.
#[derive(Debug, Clone)]
pub struct NamedWorld {
    /// Stable row name, pinned with its digest by the tests.
    pub name: &'static str,
    /// The world's declarative shape.
    pub spec: WorldSpec,
}

/// Everything one world run produces. Deterministic fields feed
/// [`WorldOutcome::digest`]; the interner numbers do *not* (the
/// interner is process-global, so its absolute size depends on what
/// ran before — only the budget verdict is stable).
#[derive(Debug, Clone)]
pub struct WorldOutcome {
    /// The world's row name.
    pub name: String,
    /// Total node population (gateways + service hosts).
    pub nodes: u64,
    /// Mesh gateway count.
    pub gateways: u32,
    /// Service population.
    pub services: u32,
    /// Engine ticks the main phase ran.
    pub ticks: u64,
    /// Adverts recorded across the run (initial + churn + moves + soak).
    pub adverts_sent: u64,
    /// Churn departures (records left to die by TTL).
    pub departures: u64,
    /// Mobility moves applied.
    pub moves_applied: u64,
    /// Delivery probes issued.
    pub probes_issued: u64,
    /// Probes that found their service at the target gateway, on the
    /// first check or any retry.
    pub probes_delivered: u64,
    /// `probes_delivered / probes_issued`, percent.
    pub delivery_pct: f64,
    /// Settle rounds after the main phase until every gateway's
    /// content digest agreed.
    pub convergence_rounds: u64,
    /// Whether the digests agreed within the settle budget.
    pub converged: bool,
    /// Malformed datagrams injected from the mutation fuzzer.
    pub injected: u64,
    /// Mesh frames rejected across all gateways (bad magic, bad
    /// signature, bad body — the injector's traffic dies here).
    pub frames_rejected: u64,
    /// Fault-layer counters summed over every gateway's transport.
    pub faults: FaultStats,
    /// Highest single-gateway record count at any sampled point.
    pub peak_records: u64,
    /// Records still live (summed) after the final sweep.
    pub final_records: u64,
    /// Highest single custody buffer depth at any tick.
    pub peak_custody: u64,
    /// Highest in-flight probe-tracker population at any tick.
    pub peak_tracker: u64,
    /// Soak adverts pushed (0 unless the world declared a soak).
    pub soak_records: u64,
    /// Live interned bytes before the run (after a collect).
    pub interned_before: u64,
    /// Live interned bytes after teardown and a collect.
    pub interned_after: u64,
    /// Whether interner growth stayed within the declared budget
    /// (vacuously true when the world declared none).
    pub within_memory_budget: bool,
    /// FNV-1a fold over the run's deterministic trace: per-tick record
    /// counts, probe outcomes, final digests, mesh and fault counters.
    /// Two same-seed runs must agree on this exactly.
    pub digest: u64,
    /// Chrome/Perfetto trace of the run's gossip-round spans, exported
    /// from a virtual-time [`Tracer`] attached to every mesh node.
    /// Entirely a function of the spec: two same-seed runs must agree
    /// on this **byte for byte** (the replay gate alongside `digest`).
    pub trace_json: String,
}

/// One in-flight delivery probe: which service, where it is being
/// looked for, and the exponential-backoff retry state.
struct Probe {
    service: usize,
    target: usize,
    attempts: u32,
    next_check_tick: u64,
}

/// FNV-1a accumulator for the replay digest.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The live state of one world run.
struct Engine<'a> {
    spec: &'a WorldSpec,
    tick: Duration,
    ports: Vec<u16>,
    lanes: Vec<Arc<FaultTransport>>,
    nodes: Vec<(ServiceRegistry, MeshNode)>,
    injector: Arc<dyn TransportSocket>,
    mutations: MutationSource,
    rng: ScenarioRng,
    home: Vec<usize>,
    alive_until: Vec<SimTime>,
    pending: Vec<Probe>,
    digest: Digest,
    adverts_sent: u64,
    departures: u64,
    moves_applied: u64,
    injected: u64,
    probes_issued: u64,
    probes_delivered: u64,
    peak_records: u64,
    peak_custody: u64,
    peak_tracker: u64,
}

impl Engine<'_> {
    fn ty_name(&self, s: usize) -> String {
        format!("w{:08x}-s{s}", self.spec.seed)
    }

    fn advert(&self, s: usize) -> EventStream {
        EventStream::framed(vec![
            Event::ServiceAlive,
            Event::ServiceType(self.ty_name(s).into()),
            Event::ResServUrl(format!("slp://svc{s}/w{:08x}", self.spec.seed)),
            Event::ResTtl(self.spec.advert_ttl_secs),
        ])
    }

    /// Announces service `s` at its current home gateway and publishes
    /// the advert into the mesh (custody picks it up if a peer is down).
    fn announce(&mut self, s: usize, now: SimTime) {
        let stream = self.advert(s);
        let (reg, mesh) = &self.nodes[self.home[s]];
        reg.record_advert(SdpProtocol::Slp, &stream, now);
        mesh.publish(SdpProtocol::Slp, &stream, now);
        self.alive_until[s] =
            now.saturating_add(Duration::from_secs(u64::from(self.spec.advert_ttl_secs)));
        self.adverts_sent += 1;
    }

    /// A probe hits when the service is still alive (by the engine's
    /// own lease bookkeeping) and its record is queryable at the
    /// target gateway.
    fn probe_hit(&self, p: &Probe, now: SimTime) -> bool {
        self.alive_until[p.service] > now
            && self.nodes[p.target].0.contains_type(self.ty_name(p.service).as_str(), now)
    }

    /// One engine tick: mobility, churn, injection, a gossip round
    /// everywhere, TTL sweeps, probe retries, fresh probes, and the
    /// population watermarks folded into the replay digest. The settle
    /// phase runs the same loop with `churn` off.
    fn tick(&mut self, t: u64, now: SimTime, churn: bool) {
        for lane in &self.lanes {
            lane.set_now(now);
        }

        if churn {
            // Mobility scripts scheduled inside this tick's window.
            let tick_end = now.saturating_add(self.tick);
            for i in 0..self.spec.moves.len() {
                let mv = self.spec.moves[i];
                let at = SimTime::from_secs(u64::from(mv.at_secs));
                let s = mv.service as usize;
                if at >= now && at < tick_end && self.home[s] == mv.from_gateway as usize {
                    self.home[s] = mv.to_gateway as usize;
                    self.announce(s, now);
                    self.moves_applied += 1;
                }
            }

            // Churn: arrivals re-announce, departures go silent.
            for _ in 0..self.spec.churn_arrivals_per_tick {
                let s = self.rng.below(self.spec.services as usize);
                self.announce(s, now);
            }
            for _ in 0..self.spec.churn_departures_per_tick {
                let s = self.rng.below(self.spec.services as usize);
                if self.alive_until[s] > now {
                    self.alive_until[s] = now;
                    self.departures += 1;
                }
            }

            // Adversarial traffic at the mesh ports. The victim's own
            // ingress fault lane still applies to these datagrams.
            for _ in 0..self.spec.inject_per_tick {
                let payload = self.mutations.next_input();
                let port = self.ports[self.rng.below(self.ports.len())];
                let _ =
                    self.injector.send_to(&payload, SocketAddrV4::new(Ipv4Addr::LOCALHOST, port));
                self.injected += 1;
            }
        }

        // One gossip round everywhere, then TTL sweeps.
        for (_, mesh) in &self.nodes {
            mesh.run_round(now);
        }
        for (reg, _) in &self.nodes {
            reg.sweep(now);
        }

        // Probe retries due this tick.
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain_mut(|p| {
            if p.next_check_tick > t {
                return true;
            }
            if self.probe_hit(p, now) {
                self.probes_delivered += 1;
                return false;
            }
            if self.alive_until[p.service] <= now || p.attempts >= PROBE_RETRIES {
                return false; // failed, or the service legitimately left
            }
            p.attempts += 1;
            p.next_check_tick = t + (1 << p.attempts);
            true
        });
        self.pending = pending;

        // Fresh probes: a live service looked up at a foreign gateway.
        if churn {
            for _ in 0..PROBES_PER_TICK {
                let s = self.rng.below(self.spec.services as usize);
                let mut target = self.rng.below(self.nodes.len());
                if self.alive_until[s] <= now {
                    continue;
                }
                if target == self.home[s] {
                    target = (target + 1) % self.nodes.len();
                }
                self.probes_issued += 1;
                let probe = Probe { service: s, target, attempts: 0, next_check_tick: t };
                if self.probe_hit(&probe, now) {
                    self.probes_delivered += 1;
                } else {
                    self.pending.push(Probe { next_check_tick: t + 1, ..probe });
                }
            }
        }

        // Population and custody watermarks, folded into the digest.
        let mut tick_records = 0u64;
        for (g, (reg, mesh)) in self.nodes.iter().enumerate() {
            let count = reg.record_count() as u64;
            self.peak_records = self.peak_records.max(count);
            tick_records = tick_records.wrapping_add(count.wrapping_mul(g as u64 + 1));
            for &peer in &self.ports {
                if peer != self.ports[g] {
                    self.peak_custody = self.peak_custody.max(mesh.custody_len(peer) as u64);
                }
            }
        }
        self.peak_tracker = self.peak_tracker.max(self.pending.len() as u64);
        self.digest.fold(t);
        self.digest.fold(tick_records);
        self.digest.fold(self.probes_delivered);
    }
}

/// Runs one world to completion and checks its declared assertions.
///
/// # Panics
///
/// When `spec` fails [`WorldSpec::validate`], or when a declared
/// assertion fails — bounded memory, registry, custody, or tracker
/// population, or the delivery floor.
pub fn run_world(name: &str, spec: &WorldSpec) -> WorldOutcome {
    spec.validate().expect("a world must validate before it runs");
    let budget =
        MemoryBudget::capture(spec.asserts.max_interned_bytes.map_or(usize::MAX, |b| b as usize));

    // The sim is scoped inside run_world_sim: every registry, mesh
    // node and transport has dropped before the budget settles, so the
    // collect below reclaims everything only the run kept alive.
    let mut outcome = run_world_sim(name, spec);
    let settlement = budget.settle();
    outcome.interned_before = settlement.interned_before as u64;
    outcome.interned_after = settlement.interned_after as u64;
    outcome.within_memory_budget = settlement.within_budget();

    if spec.asserts.max_interned_bytes.is_some() {
        settlement.assert_within(name);
    }
    if let Some(max) = spec.asserts.max_registry_records {
        assert!(
            outcome.peak_records <= max,
            "{name}: peak registry records {} exceed the declared bound {max}",
            outcome.peak_records
        );
    }
    if let Some(max) = spec.asserts.max_custody {
        assert!(
            outcome.peak_custody <= max,
            "{name}: peak custody depth {} exceeds the declared bound {max}",
            outcome.peak_custody
        );
    }
    if let Some(max) = spec.asserts.max_tracker_entries {
        assert!(
            outcome.peak_tracker <= max,
            "{name}: peak tracker population {} exceeds the declared bound {max}",
            outcome.peak_tracker
        );
    }
    if let Some(min) = spec.asserts.min_delivery_pct {
        assert!(
            outcome.delivery_pct >= f64::from(min),
            "{name}: delivery {:.1}% below the declared {min}% floor",
            outcome.delivery_pct
        );
    }
    outcome
}

fn run_world_sim(name: &str, spec: &WorldSpec) -> WorldOutcome {
    let gateways = spec.gateways as usize;
    let services = spec.services as usize;
    let tick_ms = u64::from(spec.tick_millis);
    let ticks = spec.ticks();

    // One shared bus; each gateway binds through its own fault wrapper
    // carrying the shared rates plus that gateway's scheduled cuts.
    let bus: Arc<SimTransport> = Arc::new(SimTransport::new());
    let ports: Vec<u16> = (0..spec.gateways as u16).map(|i| 7400 + i).collect();
    let lanes: Vec<Arc<FaultTransport>> = (0..gateways)
        .map(|g| {
            let mut plan =
                spec.fault.plan(spec.seed ^ (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            plan.time_partitions =
                spec.cuts.iter().filter(|c| c.gateway as usize == g).map(|c| c.window()).collect();
            Arc::new(FaultTransport::wrap(Arc::clone(&bus) as Arc<dyn Transport>, plan))
        })
        .collect();
    // One tracer shared by every mesh node: gossip rounds land as
    // zero-width virtual-time spans (lane = mesh port), so the exported
    // trace is a pure function of the spec — the byte-identical replay
    // gate rides on the same property the digest does. One ring keeps
    // export order exactly the single-threaded sim's write order.
    let tracer = Tracer::new(8192, 1, &[], Arc::new(SimClock::new()));
    let nodes: Vec<(ServiceRegistry, MeshNode)> = (0..gateways)
        .map(|g| {
            let registry =
                ServiceRegistry::new(RegistryConfig { shards: 2, ..RegistryConfig::default() });
            let mesh = MeshNode::new(
                registry.clone(),
                Arc::clone(&lanes[g]) as Arc<dyn Transport>,
                MeshConfig { port: ports[g], peers: ports.clone(), ..MeshConfig::default() },
            );
            mesh.set_tracer(tracer.clone());
            mesh.start().expect("sim mesh always binds");
            (registry, mesh)
        })
        .collect();

    // The adversarial injector: a raw client on the bus firing the
    // fuzzer's strategy mix at the mesh ports. The corpus is real
    // foreign-protocol wire plus near-miss mesh bytes and soup —
    // cross-protocol confusion on the mesh port is exactly what a
    // hostile LAN serves up.
    let injector = bus.bind_client(Arc::new(|_d: Datagram| {})).expect("sim client always binds");
    let mut mesh_bait = 0x1D15_5000_0000_4EEDu64.to_be_bytes().to_vec();
    mesh_bait.extend_from_slice(b"\x01\x03not-a-real-mesh-frame");
    let mutations = MutationSource::new(
        spec.seed ^ 0x1D15_5F00_D5EE_D003,
        vec![
            indiss_slp::Message::new(
                indiss_slp::Header::new(indiss_slp::FunctionId::SrvRqst, 77, "en"),
                indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
                    prlist: String::new(),
                    service_type: "service:storm".into(),
                    scopes: "DEFAULT".into(),
                    predicate: String::new(),
                    spi: String::new(),
                }),
            )
            .encode()
            .expect("encodable"),
            b"NOTIFY * HTTP/1.1\r\nNT: urn:x:storm:1\r\nNTS: ssdp:alive\r\n\r\n".to_vec(),
            mesh_bait,
            vec![0x41; 512],
        ],
    );

    let mut engine = Engine {
        spec,
        tick: Duration::from_millis(tick_ms),
        ports,
        lanes,
        nodes,
        injector,
        mutations,
        rng: ScenarioRng::new(spec.seed),
        home: (0..services).map(|s| s % gateways).collect(),
        alive_until: vec![SimTime::default(); services],
        pending: Vec::new(),
        digest: Digest(0xCBF2_9CE4_8422_2325),
        adverts_sent: 0,
        departures: 0,
        moves_applied: 0,
        injected: 0,
        probes_issued: 0,
        probes_delivered: 0,
        peak_records: 0,
        peak_custody: 0,
        peak_tracker: 0,
    };

    // t=0: the initial population announces at its home gateways.
    let t0 = SimTime::from_millis(1);
    for s in 0..services {
        engine.announce(s, t0);
    }

    // Main phase: churn, moves, injection, probes.
    let at = |t: u64| t0.saturating_add(Duration::from_millis(tick_ms * (t + 1)));
    for t in 0..ticks {
        engine.tick(t, at(t), true);
    }

    // Settle phase: no new work; gossip drains, TTLs lapse, pending
    // probes get their retries. Convergence is content-digest
    // agreement across every gateway.
    let settle_budget = u64::from(spec.advert_ttl_secs) * 1000 / tick_ms + 8;
    let mut convergence_rounds = 0u64;
    let mut converged = false;
    for r in 1..=settle_budget {
        let t = ticks + r - 1;
        let now = at(t);
        engine.tick(t, now, false);
        if !converged {
            convergence_rounds = r;
            let d0 = engine.nodes[0].0.content_digest(now);
            if engine.nodes.iter().all(|(reg, _)| reg.content_digest(now) == d0) {
                converged = true;
            }
        }
        if converged && engine.pending.is_empty() {
            break;
        }
    }
    engine.pending.clear();

    // Soak phase: a flood of short-lived records through the
    // registries at one advert per virtual millisecond, swept and
    // symbol-collected on a cadence, so the stores and the interner
    // are exercised far past the live population without ever holding
    // more than a TTL's worth of it.
    let soak_base = at(ticks + settle_budget + 2);
    if spec.soak_records > 0 {
        for r in 0..spec.soak_records {
            let now = soak_base.saturating_add(Duration::from_millis(r));
            let g = (r % gateways as u64) as usize;
            let stream = EventStream::framed(vec![
                Event::ServiceAlive,
                Event::ServiceType(format!("w{:08x}-soak-{r}", spec.seed).into()),
                Event::ResServUrl(format!("slp://soak/{r}")),
                Event::ResTtl(SOAK_TTL_SECS),
            ]);
            engine.nodes[g].0.record_advert(SdpProtocol::Slp, &stream, now);
            engine.adverts_sent += 1;
            if r % SOAK_SWEEP_EVERY == SOAK_SWEEP_EVERY - 1 {
                let mut live = 0u64;
                for (reg, _) in &engine.nodes {
                    reg.sweep(now);
                    let count = reg.record_count() as u64;
                    engine.peak_records = engine.peak_records.max(count);
                    live += count;
                }
                Symbol::collect();
                engine.digest.fold(r);
                engine.digest.fold(live);
            }
        }
        // Let every soak lease lapse and sweep the stores clean.
        let drained = soak_base
            .saturating_add(Duration::from_millis(spec.soak_records))
            .saturating_add(Duration::from_secs(u64::from(SOAK_TTL_SECS) + 2));
        for (reg, _) in &engine.nodes {
            reg.sweep(drained);
        }
    }

    // Final sweep far past every lease, then fold the final state:
    // per-gateway content digests, mesh counters, fault counters.
    let final_at = soak_base.saturating_add(Duration::from_secs(86_400 * 30));
    for (reg, _) in &engine.nodes {
        reg.sweep(final_at);
    }
    let final_records: u64 = engine.nodes.iter().map(|(reg, _)| reg.record_count() as u64).sum();

    let mut frames_rejected = 0u64;
    let mut faults = FaultStats::default();
    for (g, (reg, mesh)) in engine.nodes.iter().enumerate() {
        engine.digest.fold(g as u64);
        engine.digest.fold(reg.content_digest(final_at));
        let stats = mesh.stats();
        frames_rejected += stats.frames_rejected;
        for v in [
            stats.rounds_run,
            stats.digests_sent,
            stats.digests_received,
            stats.digest_resyncs,
            stats.acks_sent,
            stats.acks_received,
            stats.pulls_sent,
            stats.pulls_received,
            stats.records_sent,
            stats.records_received,
            stats.records_applied,
            stats.records_stale,
            stats.frames_rejected,
            stats.custody_enqueued,
            stats.custody_replayed,
            stats.peers_down,
            stats.peers_reconnected,
        ] {
            engine.digest.fold(v);
        }
        let fs = engine.lanes[g].fault_stats();
        faults.merge(&fs);
        engine.digest.fold(fs.total());
    }
    for v in [
        engine.adverts_sent,
        engine.departures,
        engine.injected,
        engine.probes_issued,
        engine.probes_delivered,
        convergence_rounds,
    ] {
        engine.digest.fold(v);
    }

    WorldOutcome {
        name: name.to_owned(),
        nodes: spec.nodes(),
        gateways: spec.gateways,
        services: spec.services,
        ticks,
        adverts_sent: engine.adverts_sent,
        departures: engine.departures,
        moves_applied: engine.moves_applied,
        probes_issued: engine.probes_issued,
        probes_delivered: engine.probes_delivered,
        delivery_pct: engine.probes_delivered as f64 / engine.probes_issued.max(1) as f64 * 100.0,
        convergence_rounds,
        converged,
        injected: engine.injected,
        frames_rejected,
        faults,
        peak_records: engine.peak_records,
        final_records,
        peak_custody: engine.peak_custody,
        peak_tracker: engine.peak_tracker,
        soak_records: spec.soak_records,
        interned_before: 0, // settled by run_world, outside the sim scope
        interned_after: 0,
        within_memory_budget: true,
        digest: engine.digest.0,
        trace_json: chrome_trace_json(&tracer.snapshot()),
    }
}

/// Declares the scenario matrix. Durations, injection rates and the
/// soak are sized so the whole matrix runs twice inside `cargo test`,
/// while every world keeps its *shape*: the ≥ 1000-node churn world,
/// the mobility world under a link cut, adversarial injection, and a
/// soak that churns far more records through the stores than they ever
/// hold. Every world ticks every 500 ms with an 8 s advert TTL, the
/// [`WorldSpec::default`] values.
pub fn matrix() -> Vec<NamedWorld> {
    vec![
        NamedWorld {
            name: "baseline_quiet",
            spec: WorldSpec {
                seed: 11,
                gateways: 3,
                services: 24,
                duration_secs: 6,
                churn_arrivals_per_tick: 4,
                churn_departures_per_tick: 2,
                asserts: WorldAsserts {
                    min_delivery_pct: Some(90),
                    max_registry_records: Some(4096),
                    max_tracker_entries: Some(64),
                    ..WorldAsserts::default()
                },
                ..WorldSpec::default()
            },
        },
        NamedWorld {
            name: "churn_1204_nodes",
            spec: WorldSpec {
                seed: 22,
                gateways: 4,
                services: 1200,
                duration_secs: 8,
                churn_arrivals_per_tick: 40,
                churn_departures_per_tick: 30,
                fault: WorldFault { drop_pct: 5, reorder_pct: 5, ..WorldFault::default() },
                asserts: WorldAsserts {
                    min_delivery_pct: Some(80),
                    max_registry_records: Some(4096),
                    max_tracker_entries: Some(128),
                    ..WorldAsserts::default()
                },
                ..WorldSpec::default()
            },
        },
        NamedWorld {
            name: "mobility_cut",
            spec: WorldSpec {
                seed: 33,
                gateways: 3,
                services: 30,
                duration_secs: 12,
                churn_arrivals_per_tick: 6,
                churn_departures_per_tick: 1,
                cuts: vec![LinkCut { gateway: 1, from_secs: 2, to_secs: 5 }],
                moves: vec![
                    MobilityMove { service: 3, from_gateway: 0, to_gateway: 2, at_secs: 3 },
                    MobilityMove { service: 7, from_gateway: 1, to_gateway: 0, at_secs: 6 },
                ],
                asserts: WorldAsserts {
                    min_delivery_pct: Some(80),
                    max_custody: Some(64),
                    max_tracker_entries: Some(64),
                    ..WorldAsserts::default()
                },
                ..WorldSpec::default()
            },
        },
        NamedWorld {
            name: "adversarial_inject",
            spec: WorldSpec {
                seed: 44,
                gateways: 4,
                services: 40,
                duration_secs: 8,
                churn_arrivals_per_tick: 8,
                churn_departures_per_tick: 4,
                inject_per_tick: 20,
                fault: WorldFault {
                    drop_pct: 10,
                    corrupt_pct: 5,
                    delay_pct: 5,
                    reorder_pct: 5,
                    duplicate_pct: 3,
                },
                asserts: WorldAsserts {
                    max_interned_bytes: Some(262_144),
                    max_registry_records: Some(4096),
                    max_tracker_entries: Some(128),
                    ..WorldAsserts::default()
                },
                ..WorldSpec::default()
            },
        },
        NamedWorld {
            name: "soak_million",
            spec: WorldSpec {
                seed: 55,
                gateways: 2,
                services: 8,
                duration_secs: 4,
                soak_records: 20_000,
                asserts: WorldAsserts {
                    max_interned_bytes: Some(262_144),
                    max_registry_records: Some(4096),
                    max_custody: Some(64),
                    max_tracker_entries: Some(64),
                    ..WorldAsserts::default()
                },
                ..WorldSpec::default()
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_declares_the_required_worlds() {
        let worlds = matrix();
        assert!(worlds.len() >= 4, "the matrix carries at least four worlds");
        assert!(
            worlds.iter().any(|w| w.spec.nodes() >= 1000 && w.spec.churn_arrivals_per_tick > 0),
            "a >=1000-node churn world is present"
        );
        assert!(worlds.iter().any(|w| !w.spec.moves.is_empty()), "a mobility world is present");
        assert!(worlds.iter().any(|w| w.spec.soak_records >= 10_000), "a soak world is present");
        assert!(
            worlds.iter().any(|w| w.spec.inject_per_tick > 0),
            "an adversarial-injection world is present"
        );
        for w in &worlds {
            w.spec.validate().expect("every matrix world validates");
        }
    }

    /// The replay gate over the whole matrix: every world runs twice
    /// with its declared assertions (delivery floors included) enforced
    /// and must reproduce its pinned digest both times. A deliberate
    /// change to the engine, the mesh or the fault layer re-pins here.
    #[test]
    fn every_world_replays_its_pinned_digest() {
        const PINNED: [(&str, u64); 5] = [
            ("baseline_quiet", 0xA403_3E1A_E84A_735D),
            ("churn_1204_nodes", 0xCF1E_2F58_DBF5_5ED5),
            ("mobility_cut", 0xFB69_C31D_1995_2287),
            ("adversarial_inject", 0xAED4_F424_0C00_06A8),
            ("soak_million", 0x411F_870C_0B22_68FF),
        ];
        let worlds = matrix();
        assert_eq!(worlds.iter().map(|w| w.name).collect::<Vec<_>>(), PINNED.map(|(n, _)| n));
        for (w, (_, digest)) in worlds.iter().zip(PINNED) {
            let first = run_world(w.name, &w.spec);
            let replay = run_world(w.name, &w.spec);
            assert!(first.converged, "world '{}' failed to converge: {first:?}", w.name);
            assert_eq!(
                (first.digest, replay.digest),
                (digest, digest),
                "world '{}' digest moved or diverged on replay",
                w.name
            );
            assert_eq!(first.probes_delivered, replay.probes_delivered);
            assert_eq!(first.faults, replay.faults);
        }
    }

    #[test]
    fn baseline_world_replays_digest_identically() {
        let worlds = matrix();
        let baseline = worlds.iter().find(|w| w.name == "baseline_quiet").expect("baseline");
        let a = run_world(baseline.name, &baseline.spec);
        let b = run_world(baseline.name, &baseline.spec);
        assert_eq!(a.digest, b.digest, "same seed, same world, same digest");
        assert_eq!(a.probes_delivered, b.probes_delivered);
        assert_eq!(a.faults, b.faults);
        assert!(a.converged, "the quiet world converges: {a:?}");
        assert!(a.probes_issued > 0);
        assert!(a.delivery_pct >= 80.0, "quiet world delivers: {a:?}");
    }

    #[test]
    fn baseline_world_trace_export_is_replay_identical() {
        let worlds = matrix();
        let baseline = worlds.iter().find(|w| w.name == "baseline_quiet").expect("baseline");
        let a = run_world(baseline.name, &baseline.spec);
        let b = run_world(baseline.name, &baseline.spec);
        assert!(!a.trace_json.is_empty());
        assert_eq!(a.trace_json, b.trace_json, "same seed, byte-identical trace export");
        let events = indiss_core::validate_chrome_trace(&a.trace_json)
            .expect("exported trace parses as Chrome trace JSON");
        assert!(events > 0, "the mesh ran gossip rounds, so spans were recorded");
    }

    #[test]
    fn mobility_world_applies_its_moves() {
        let worlds = matrix();
        let mobility = worlds.iter().find(|w| w.name == "mobility_cut").expect("mobility");
        let outcome = run_world(mobility.name, &mobility.spec);
        assert_eq!(outcome.moves_applied, 2, "both Move scripts fired: {outcome:?}");
        assert!(outcome.converged, "handover converges after the cut: {outcome:?}");
        assert!(
            outcome.faults.time_partitioned > 0,
            "the Cut window actually severed traffic: {outcome:?}"
        );
    }
}
