//! `cold_bridge`: the paper's central function — translating a request
//! the gateway cannot answer from memory — on the deterministic
//! simulator, where it exists today.
//!
//! A simulated LAN holds 64 native services (24 UPnP devices, 20 SLP
//! service agents, 20 DNS-SD services), one INDISS gateway with caching
//! **off** (`IndissConfig::cache(false)`), and 16 native clients. INDISS
//! sits on the host of the UPnP devices — the paper's Fig. 8 deployment,
//! "INDISS located on the service side" — and is a third-party gateway
//! for the SLP and DNS-SD services, which have hosts of their own. Every
//! discovery asks for a service of a *foreign* SDP, so every request
//! runs the full fan-out — for SLP→UPnP that is SSDP `M-SEARCH` → HTTP
//! `GET` → XML description → native `SrvRply`. The loop is closed by
//! construction: the single-threaded `Indiss` runs on `World`'s virtual
//! clock, and a round's discoveries are issued only after the previous
//! round completed. The `ref` phase is one client at a time (SLP→UPnP,
//! the Fig. 8 measurement); the `hi` phase keeps all 16 clients in
//! flight in all six directions.
//!
//! Nothing here touches `netfront`, `pool`, `BatchedTransport` or the
//! epoch read path: a reactor change must not move this workload.
//!
//! Like the live gateways, the workload runs in a re-executed child
//! ([`run_in_child`]), so its CPU, allocations and peak memory are that
//! run's alone — whatever the parent ran before, and however often
//! `--repeat` runs it again.

use std::time::{Duration, Instant};

use indiss_core::{DescriptorClient, DescriptorService, Indiss, IndissConfig, SdpDescriptor};
use indiss_net::{Completion, SimTime, World};
use indiss_slp::{
    AttributeList, DiscoveryOutcome, Registration, ServiceAgent, SlpConfig, UserAgent,
};
use indiss_ssdp::SearchTarget;
use indiss_upnp::{ControlPoint, ControlPointConfig, KnownDevice, UpnpConfig, UpnpDevice};

use crate::calib::{kernel_ns, median_at_nominal, Slowdown};
use crate::inputs::{description, Native};
use crate::procfs;
use crate::rng::Rng;
use crate::stats::median;
use crate::sys::process_cpu_ns;
use crate::Plan;

/// Virtual time one round of discoveries is given. Longer than the SLP
/// convergence window (500 ms) and the gateway's suppression window
/// (600 ms), so a type may be asked for again in the next round.
const ROUND: Duration = Duration::from_secs(1);

/// One native service of the simulated LAN and the URLs the reference
/// model expects a bridged discovery of it to return.
pub struct Service {
    pub name: String,
    pub native: Native,
    /// What an SLP client must be told.
    pub slp_url: String,
    /// What a DNS-SD client must be told.
    pub dnssd_url: String,
    /// The description document (UPnP services only), for codec replay.
    pub description_xml: String,
}

enum Client {
    Slp(UserAgent),
    Upnp(ControlPoint),
    DnsSd(DescriptorClient),
}

impl Client {
    fn speaks(&self) -> Native {
        match self {
            Client::Slp(_) => Native::Slp,
            Client::Upnp(_) => Native::Upnp,
            Client::DnsSd(_) => Native::DnsSd,
        }
    }
}

/// An issued discovery, to be checked after the round ran.
pub enum Pending {
    Slp(Completion<DiscoveryOutcome>),
    Upnp(Completion<KnownDevice>, SimTime),
    DnsSd(Completion<String>),
}

/// The simulated LAN. Services and the gateway are held only to keep
/// them alive.
pub struct ColdWorld {
    pub world: World,
    pub services: Vec<Service>,
    clients: Vec<Client>,
    _gateway: Indiss,
    _keep: Vec<Box<dyn std::any::Any>>,
}

impl ColdWorld {
    /// Builds the world from `seed` and lets the initial announcements
    /// settle. This is the workload's set-up.
    pub fn build(seed: u64) -> Result<ColdWorld, String> {
        let fail = |e: &dyn std::fmt::Display| format!("cold_bridge world: {e}");
        let mut rng = Rng::new(seed ^ 0xC01D);
        let tag = format!("{:03x}", rng.next_u64() & 0xFFF);
        let world = World::new(seed);
        let dns_sd = SdpDescriptor::dns_sd();
        let upnp_host = world.add_node("upnp-host");
        let mut services = Vec::new();
        let mut keep: Vec<Box<dyn std::any::Any>> = Vec::new();
        for i in 0..64 {
            let native = match i {
                0..=23 => Native::Upnp,
                24..=43 => Native::Slp,
                _ => Native::DnsSd,
            };
            let name = format!("k{tag}-{i:x}");
            let node =
                if native == Native::Upnp { upnp_host.clone() } else { world.add_node(&name) };
            let ip = node.addr();
            let mut description_xml = String::new();
            let (slp_url, dnssd_url);
            match native {
                Native::Upnp => {
                    let desc = description(&name);
                    description_xml = desc.to_xml();
                    // One host, many devices: each serves its description
                    // and control URLs on a port of its own.
                    let port = 4004 + i as u16;
                    let config = UpnpConfig { description_port: port, ..UpnpConfig::default() };
                    let device = UpnpDevice::start(&node, desc, config).map_err(|e| fail(&e))?;
                    keep.push(Box::new(device));
                    dnssd_url = format!("soap://{ip}:{port}/service/ctl/control");
                    slp_url = format!("service:{name}:{dnssd_url}");
                }
                Native::Slp => {
                    let url = format!("service:{name}://{ip}:4005/svc");
                    let agent =
                        ServiceAgent::start(&node, SlpConfig::default()).map_err(|e| fail(&e))?;
                    let attrs =
                        AttributeList::parse("(friendlyName=Bench)").map_err(|e| fail(&e))?;
                    agent.register(Registration::new(&url, attrs).map_err(|e| fail(&e))?);
                    keep.push(Box::new(agent));
                    slp_url = url.clone();
                    dnssd_url = url;
                }
                Native::DnsSd => {
                    let url = format!("ipp://{ip}:631/{name}");
                    let service =
                        DescriptorService::start(&node, dns_sd.clone()).map_err(|e| fail(&e))?;
                    service.register(&name, &url);
                    keep.push(Box::new(service));
                    slp_url = format!("service:{name}:{url}");
                    dnssd_url = url;
                }
            }
            services.push(Service { name, native, slp_url, dnssd_url, description_xml });
        }
        let config =
            IndissConfig::builder().slp().upnp().descriptor(dns_sd.clone()).cache(false).build();
        let gateway = Indiss::deploy(&upnp_host, config).map_err(|e| fail(&e))?;
        let mut clients = Vec::new();
        for i in 0..16 {
            let node = world.add_node(&format!("client-{i}"));
            // Client 0 is the SLP client the `ref` phase measures.
            clients.push(match i % 3 {
                0 => Client::Slp(
                    UserAgent::start(&node, SlpConfig::default()).map_err(|e| fail(&e))?,
                ),
                1 => Client::Upnp(
                    ControlPoint::start(&node, ControlPointConfig::default())
                        .map_err(|e| fail(&e))?,
                ),
                _ => Client::DnsSd(
                    DescriptorClient::start(&node, dns_sd.clone()).map_err(|e| fail(&e))?,
                ),
            });
        }
        world.run_for(ROUND);
        Ok(ColdWorld { world, services, clients, _gateway: gateway, _keep: keep })
    }

    /// Has `client` ask for `service` in its own SDP.
    pub fn issue(&self, client: usize, service: usize) -> Pending {
        let name = &self.services[service].name;
        match &self.clients[client] {
            Client::Slp(ua) => {
                Pending::Slp(ua.find_services(&self.world, &format!("service:{name}"), "").1)
            }
            Client::Upnp(cp) => {
                let t0 = self.world.now();
                Pending::Upnp(cp.search(&self.world, SearchTarget::device_urn(name, 1)).0, t0)
            }
            Client::DnsSd(client) => Pending::DnsSd(client.query(&self.world, name).0),
        }
    }

    /// Checks a finished discovery against the reference model: the
    /// client must have been told the service's expected native URL.
    /// Returns the virtual response time where the client API reports it.
    pub fn check(&self, pending: Pending, service: usize) -> Result<Option<Duration>, String> {
        let svc = &self.services[service];
        match pending {
            Pending::Slp(done) => {
                let outcome = done.take().ok_or_else(|| format!("{}: no SLP round", svc.name))?;
                match outcome.urls.first() {
                    Some(entry) if entry.url == svc.slp_url => Ok(outcome.response_time()),
                    other => {
                        Err(format!("{}: wanted {}, SLP got {other:?}", svc.name, svc.slp_url))
                    }
                }
            }
            Pending::Upnp(first, t0) => {
                let device = first.take().ok_or_else(|| format!("{}: no SSDP answer", svc.name))?;
                // A bridged service is presented as a synthetic device
                // whose description the gateway hosts under the type.
                if device.location.contains(&format!("/bridged/{}/", svc.name)) {
                    Ok(Some(device.last_seen - t0))
                } else {
                    Err(format!("{}: UPnP got location {}", svc.name, device.location))
                }
            }
            Pending::DnsSd(first) => match first.take() {
                Some(url) if url == svc.dnssd_url => Ok(None),
                other => {
                    Err(format!("{}: wanted {}, DNS-SD got {other:?}", svc.name, svc.dnssd_url))
                }
            },
        }
    }

    /// One `ref`-phase round: the SLP client discovers UPnP service
    /// number `n` (round-robin), alone on the LAN.
    pub fn reference_round(&self, n: usize) -> (usize, Pending) {
        let service = n % 24;
        (service, self.issue(0, service))
    }

    /// One `hi`-phase round: every client asks for a distinct service of
    /// a foreign SDP (distinct, because the gateway suppresses a second
    /// request for a type it is already bridging).
    pub fn busy_round(&self, rng: &mut Rng) -> Vec<(usize, Pending)> {
        let mut order: Vec<usize> = (0..self.services.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut issued = Vec::with_capacity(self.clients.len());
        for (c, client) in self.clients.iter().enumerate() {
            let pick = order.iter().position(|s| self.services[*s].native != client.speaks());
            if let Some(pos) = pick {
                let service = order.swap_remove(pos);
                issued.push((service, self.issue(c, service)));
            }
        }
        issued
    }

    pub fn run_round(&self) {
        self.world.run_for(ROUND);
    }
}

/// What one phase of the closed loop measured, over all its slices.
#[derive(Default)]
pub struct ColdPhase {
    pub discoveries: u64,
    pub wrong: u64,
    /// Per slice, as measured: process CPU per discovery and the median
    /// wall-clock time of a round (`ref`: of a discovery), microseconds.
    slice_cpu_us: Vec<f64>,
    slice_round_us: Vec<f64>,
    slice_slowdown: Vec<Slowdown>,
    slice_alloc: Vec<f64>,
    pub rounds: usize,
    /// Virtual response times in milliseconds (where reported).
    pub virtual_rt_ms: Vec<f64>,
}

impl ColdPhase {
    fn at_nominal(&self, slices: &[f64]) -> f64 {
        median_at_nominal(slices, &self.slice_slowdown)
    }

    /// Process CPU per discovery: the median over slices, as measured
    /// and with every slice at nominal speed.
    pub fn raw_cpu_us_per_discovery(&self) -> f64 {
        median(&self.slice_cpu_us)
    }

    pub fn cpu_us_per_discovery(&self) -> f64 {
        self.at_nominal(&self.slice_cpu_us)
    }

    /// Wall-clock time of a round: the median of the slices' medians, as
    /// measured and with every slice at nominal speed.
    pub fn raw_round_us(&self) -> f64 {
        median(&self.slice_round_us)
    }

    pub fn round_us(&self) -> f64 {
        self.at_nominal(&self.slice_round_us)
    }

    pub fn slowdown(&self) -> f64 {
        median(&self.slice_slowdown.iter().map(|slow| slow.0).collect::<Vec<_>>())
    }

    /// Bytes requested from the allocator per discovery: the median.
    pub fn alloc_bytes_per_discovery(&self) -> f64 {
        median(&self.slice_alloc)
    }

    pub fn slices(&self) -> usize {
        self.slice_cpu_us.len()
    }
}

pub struct ColdRun {
    /// One world build per slice, in seconds as measured, and the host's
    /// speed around each build.
    pub setup_s: Vec<f64>,
    pub setup_slowdown: Vec<Slowdown>,
    pub reference: ColdPhase,
    pub hi: ColdPhase,
    /// The process's `VmHWM` once [`RSS_WORLDS`] worlds were built and run.
    pub peak_rss_mib: f64,
    pub problems: Vec<String>,
}

/// Runs the workload in a child process (this binary in its `cold`
/// role) and reads its report back.
pub fn run_in_child(seed: u64, plan: &Plan) -> Result<crate::report::Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = std::process::Command::new(exe)
        .arg("cold")
        .args([seed.to_string(), plan.seconds.to_string(), plan.warmup_s.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn cold_bridge child: {e}"))?;
    if !child.status.success() {
        return Err(format!("cold_bridge child exited with {}", child.status));
    }
    let lines = String::from_utf8_lossy(&child.stdout);
    crate::report::Report::from_lines(crate::inputs::Workload::ColdBridge, &lines)
        .ok_or_else(|| format!("cold_bridge child reported nonsense: {lines:?}"))
}

/// Nominal wall time of one slice, and the fixed number of rounds that
/// takes on the reference host in either phase. A slice is a fixed
/// amount of *work*, not of time: the simulated worlds are never freed
/// (their sockets and agents hold each other), so the work done decides
/// `peak_rss_mib`, and that must not depend on how fast the host is.
const SLICE_S: f64 = 0.25;
const REF_ROUNDS: usize = 1800;
const HI_ROUNDS: usize = 150;

/// `peak_rss_mib` is read when this many worlds have been built and run
/// (the default plan's warm-up: four `ref` slices, four `hi` slices), so
/// that it does not grow with `--seconds`.
const RSS_WORLDS: usize = 8;

/// One slice: `rounds` rounds in `cold`, every discovery checked; CPU
/// and allocation per discovery and the median round time recorded, with
/// the host's speed around the slice (`kernel_before` was timed right
/// before it).
fn slice(
    cold: &ColdWorld,
    rounds: usize,
    kernel_before: f64,
    out: &mut ColdPhase,
    problems: &mut Vec<String>,
    mut round: impl FnMut(usize) -> Vec<(usize, Pending)>,
) {
    let (cpu_before, alloc_before) = (process_cpu_ns(), crate::alloc::totals().0);
    let mut discoveries = 0u64;
    let mut round_wall_us = Vec::with_capacity(rounds);
    for n in 0..rounds {
        let t0 = Instant::now();
        let issued = round(n);
        cold.run_round();
        round_wall_us.push(t0.elapsed().as_secs_f64() * 1e6);
        for (service, pending) in issued {
            discoveries += 1;
            match cold.check(pending, service) {
                Ok(Some(rt)) => out.virtual_rt_ms.push(rt.as_secs_f64() * 1e3),
                Ok(None) => {}
                Err(e) => {
                    out.wrong += 1;
                    if problems.len() < 5 {
                        problems.push(e);
                    }
                }
            }
        }
    }
    let cpu_ns = process_cpu_ns() - cpu_before;
    let alloc = crate::alloc::totals().0 - alloc_before;
    out.slice_slowdown.push(Slowdown::around(kernel_before, kernel_ns()));
    out.slice_cpu_us.push(cpu_ns as f64 / 1e3 / discoveries.max(1) as f64);
    out.slice_round_us.push(median(&round_wall_us));
    out.slice_alloc.push(alloc as f64 / discoveries.max(1) as f64);
    out.rounds += rounds;
    out.discoveries += discoveries;
}

/// Virtual response times of the first `k` `ref` discoveries in a fresh
/// world — the same-seed determinism probe.
fn replay_virtual_rts(seed: u64, k: usize) -> Result<Vec<f64>, String> {
    let cold = ColdWorld::build(seed)?;
    let mut rts = Vec::new();
    for n in 0..k {
        let (service, pending) = cold.reference_round(n);
        cold.run_round();
        if let Some(rt) = cold.check(pending, service)? {
            rts.push(rt.as_secs_f64() * 1e3);
        }
    }
    Ok(rts)
}

/// Runs the workload: a discarded warm-up, then `ref` slices, then `hi`
/// slices. Every slice gets a freshly built world, which (a) makes the
/// set-up time a median of many builds, (b) keeps a slice's CPU and
/// allocation figures independent of how long the process has lived, and
/// (c) stays clear of the simulator's ephemeral-port wrap (a node that
/// opens more than ~16 000 TCP connections collides with its own bound
/// sockets and one discovery in ~10⁴ times out).
pub fn run(seed: u64, plan: &Plan) -> Result<ColdRun, String> {
    // Single-threaded: one CPU, always the same one, so run-to-run
    // differences are not cache and migration effects.
    crate::sys::pin_to(&crate::sys::CpuSplit::of_host().generator);
    let own_peak_mib =
        || procfs::peak_rss_mib(std::process::id()).map_err(|e| format!("read own VmHWM: {e}"));
    let (mut setup_s, mut setup_slowdown, mut peak_rss_mib) = (Vec::new(), Vec::new(), None);
    // A freshly built world, and the calibration kernel timed right
    // before the slice that runs in it.
    let mut fresh_world = || -> Result<(ColdWorld, f64), String> {
        // The worlds before this one have run their slices.
        if setup_s.len() == RSS_WORLDS {
            peak_rss_mib = Some(own_peak_mib()?);
        }
        let (kernel_before, started) = (kernel_ns(), Instant::now());
        let cold = ColdWorld::build(seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let kernel_after = kernel_ns();
        setup_slowdown.push(Slowdown::around(kernel_before, kernel_after));
        Ok((cold, kernel_after))
    };
    let mut problems = Vec::new();
    let mut rng = Rng::new(seed ^ 0xB0_5E);
    let slices = |seconds: f64| (seconds / SLICE_S).round().max(1.0) as usize;

    let (mut reference, mut hi) = (ColdPhase::default(), ColdPhase::default());
    let mut discard = (ColdPhase::default(), Vec::new());
    for i in 0..slices(plan.warmup_s) {
        let (cold, kernel) = fresh_world()?;
        if i % 2 == 0 {
            let round = |n| vec![cold.reference_round(n)];
            slice(&cold, REF_ROUNDS, kernel, &mut discard.0, &mut discard.1, round);
        } else {
            let round = |_| cold.busy_round(&mut rng);
            slice(&cold, HI_ROUNDS, kernel, &mut discard.0, &mut discard.1, round);
        }
    }
    for _ in 0..slices(plan.seconds / 2.0) {
        let (cold, kernel) = fresh_world()?;
        let round = |n| vec![cold.reference_round(n)];
        slice(&cold, REF_ROUNDS, kernel, &mut reference, &mut problems, round);
    }
    for _ in 0..slices(plan.seconds / 2.0) {
        let (cold, kernel) = fresh_world()?;
        slice(&cold, HI_ROUNDS, kernel, &mut hi, &mut problems, |_| cold.busy_round(&mut rng));
    }
    // A run too short to build `RSS_WORLDS` worlds reports what it has.
    let peak_rss_mib = match peak_rss_mib {
        Some(at_fixed_work) => at_fixed_work,
        None => own_peak_mib()?,
    };

    // Virtual time is a pure function of the seed and the op sequence:
    // two fresh worlds replaying the first discoveries must agree to the
    // nanosecond, with each other and with the measured slices.
    let probe = 8.min(reference.virtual_rt_ms.len());
    let (first, second) = (replay_virtual_rts(seed, probe)?, replay_virtual_rts(seed, probe)?);
    if first != second || first[..] != reference.virtual_rt_ms[..probe] {
        problems
            .push(format!("virtual_rt_ms differs across same-seed runs: {first:?} vs {second:?}"));
    }
    let rt = median(&reference.virtual_rt_ms);
    if (rt - 64.6).abs() > 1.0 {
        problems.push(format!("virtual_rt_ms {rt:.3} is not within 1 ms of fig8's 64.6 ms"));
    }
    Ok(ColdRun { setup_s, setup_slowdown, reference, hi, peak_rss_mib, problems })
}
