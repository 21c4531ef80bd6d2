//! The network front-end: the gateway's warm path on real (or
//! in-memory) sockets.
//!
//! [`NetDriver`] is the deployable counterpart of the simulated
//! [`crate::Indiss`] runtime for the traffic that dominates a gateway's
//! life: it opens one transport channel per configured protocol —
//! joining the multicast groups declared by the protocol's detection
//! tag, exactly as the monitor does in the simulation — and runs the
//! decode → classify → deliver warm path on the shared registry of a
//! [`ThreadedGateway`]:
//!
//! * **detection** (paper §2.1) is passive and port-based, through the
//!   transport seam: a [`DetectionRecord`] per protocol from data
//!   arrival alone, with Fig. 5's lazy composition honored — under
//!   `lazy_units`, a protocol's pipeline activates on its first
//!   datagram ([`NetDriver::active_units`]);
//! * **requests** are decoded by the parser tables the deployed units
//!   use, classified by the same [`GatewayCore`] decision tree, and
//!   answered from the response cache with a natively composed reply
//!   written back out the socket that heard them — the paper's §4.3
//!   best case, end to end on the wire. An SLP `SrvRqst` builds no
//!   request stream on the way: it is decoded as views borrowed from
//!   the datagram ([`indiss_slp::SrvRqstView`]), classified by its
//!   interned type ([`GatewayCore::classify_type`]), and a hit's
//!   `SrvRply` is written by the same composer the SLP unit uses;
//! * **advertisements** go through [`GatewayCore::ingest_advert`] —
//!   recorded in the shared [`crate::ServiceRegistry`], counted, and
//!   (with caching on) warming the response cache when they carry an
//!   endpoint; a UPnP `NOTIFY`, which only points at a description
//!   document, is enriched through a [`DescriptionFetch`] — a real HTTP
//!   GET over TCP in a live deployment ([`HttpDescriptionFetch`]), the
//!   §2.4 socket switch on actual sockets;
//! * **responses** observed on the wire warm the cache
//!   ([`GatewayCore::ingest_response`]), as in the simulation.
//!
//! What the front-end deliberately does *not* do is the cold-path
//! fan-out: a request the registry cannot answer is counted
//! ([`NetFrontStats::cold_misses`]) and its suppression window armed,
//! but driving a foreign protocol's multi-step native query process
//! remains the unit runtime's job.
//!
//! # Which thread runs what
//!
//! Datagrams arrive in *batches* through [`Transport::bind_batched`]
//! (one `Vec<Datagram>` per `recvmmsg` on
//! [`indiss_net::BatchedTransport`]; singleton batches on the sim bus),
//! on the transport's **delivery thread** — the one `indiss-reactor`
//! thread for real sockets, the sending thread on the sim bus.
//!
//! * A channel that **cannot block** — SLP, a descriptor protocol, UPnP
//!   without a fetcher — runs the batch to completion right there,
//!   replies included: no job box, queue node or futex wake, which at
//!   one datagram per wake-up cost more than the work they deferred. The
//!   kernel's socket buffer is this channel's queue: arrivals wait there
//!   while the thread works, the next `recvmmsg` takes them as one
//!   bigger batch, and what overflows it the kernel drops (offered −
//!   [`NetFrontStats::datagrams_received`]).
//! * A channel that **can block** — UPnP with a [`DescriptionFetch`],
//!   whose `NOTIFY` enrichment may sit in a TCP GET for its whole
//!   timeout — hands each admitted batch to its [`crate::WorkerPool`]
//!   lane as one job, so the delivery thread never waits on a peer.
//!
//! Either way one thread drains a channel, so per-channel FIFO holds,
//! and both callers run the same `process_batch`. Its replies are
//! written into send slots from a per-thread pool — the
//! [`crate::EventStreamBuilder`] scratch idiom: take a slot, refill its
//! buffer in place, give it back — and flushed in one
//! [`TransportSocket::send_batch`]; a warm SLP hit allocates nothing
//! beyond the transport's own copy of the datagram. A reply the socket
//! refuses is counted ([`NetFrontStats::replies_dropped`]).
//!
//! Backpressure bounds the one queue that can still grow, a worker lane
//! behind a blocking channel: each lane (`channel lane % workers`)
//! admits at most [`NetDriver::BACKPRESSURE`] undelivered datagrams;
//! beyond that the tail of the batch is dropped and every dropped
//! datagram counted exactly once
//! ([`NetFrontStats::dropped_backpressure`]) — the honest UDP behavior
//! under overload. The budget is per lane, not per channel, so two
//! queued channels sharing a worker cannot put 2× the backlog on it;
//! the delivery thread takes none: it has no queue of its own.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::SocketAddrV4;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use indiss_net::{
    BatchedTransport, BindSpec, Datagram, FaultStats, IoStats, SimTime, SimTransport, Transport,
    TransportKind, TransportSocket, RECV_BATCH,
};
use indiss_upnp::DeviceDescription;

use crate::config::{IndissConfig, UnitSpec};
use crate::error::{CoreError, CoreResult};
use crate::event::{EventStream, SdpProtocol, Symbol};
use crate::gateway::{BridgeStats, GatewayCore, ThreadedGateway, WarmDecision};
use crate::monitor::DetectionRecord;
use crate::obs::{render_interner_gauges, render_tracer, Phase, StatsServer, Tracer};
use crate::registry::{AdvertDisposition, ServiceRegistry};
use crate::units::descriptor::SdpDescriptor;
use crate::units::slp::SlpWire;
use crate::units::{slp, upnp, ParsedMessage};

// ---------------------------------------------------------------------
// Description fetching (the §2.4 socket switch, on real sockets)
// ---------------------------------------------------------------------

/// Resolves a UPnP `LOCATION:` URL to its description document, so a
/// `NOTIFY` advert can be enriched with the endpoint and attributes the
/// other SDPs need. Always runs on a worker lane (`indiss-worker-*`),
/// never on the transport's delivery thread; implementations should
/// still bound their blocking time, which stalls that lane.
pub trait DescriptionFetch: Send + Sync {
    /// Fetches the document at `url`, or `None` on any failure (the
    /// advert is then recorded unenriched, exactly like a failed fetch
    /// in the simulation).
    fn fetch(&self, url: &str) -> Option<String>;
}

/// The most a description response may carry, headers included. A
/// description is a few KB; a device that sends more is broken or
/// hostile, and the lane reading it must not buffer without bound.
const MAX_DESCRIPTION_RESPONSE: u64 = 64 * 1024;

/// A real HTTP GET over `std::net::TcpStream` — the live deployment's
/// [`DescriptionFetch`]. Timeout-bounded on connect, read and write, and
/// a response over 64 KiB is a failed fetch.
#[derive(Debug, Clone)]
pub struct HttpDescriptionFetch {
    timeout: Duration,
}

impl Default for HttpDescriptionFetch {
    fn default() -> Self {
        HttpDescriptionFetch { timeout: Duration::from_millis(500) }
    }
}

impl HttpDescriptionFetch {
    /// A fetcher with the given per-operation timeout.
    pub fn with_timeout(timeout: Duration) -> HttpDescriptionFetch {
        HttpDescriptionFetch { timeout }
    }
}

impl DescriptionFetch for HttpDescriptionFetch {
    fn fetch(&self, url: &str) -> Option<String> {
        use std::net::ToSocketAddrs;
        let rest = url.strip_prefix("http://")?;
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        // Hostnames and port-less authorities are both valid in a
        // LOCATION: header; resolve rather than parse, defaulting to
        // port 80.
        let addr = if host.contains(':') {
            host.to_socket_addrs().ok()?.next()?
        } else {
            (host, 80u16).to_socket_addrs().ok()?.next()?
        };
        let mut stream = std::net::TcpStream::connect_timeout(&addr, self.timeout).ok()?;
        stream.set_read_timeout(Some(self.timeout)).ok()?;
        stream.set_write_timeout(Some(self.timeout)).ok()?;
        let request = format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
        stream.write_all(request.as_bytes()).ok()?;
        let mut wire = Vec::new();
        stream.take(MAX_DESCRIPTION_RESPONSE + 1).read_to_end(&mut wire).ok()?;
        if wire.len() as u64 > MAX_DESCRIPTION_RESPONSE {
            return None;
        }
        let response = indiss_http::Response::parse(&wire).ok()?;
        if !response.is_success() {
            return None;
        }
        String::from_utf8(response.body).ok()
    }
}

/// A canned [`DescriptionFetch`] for deterministic tests: URL →
/// document, no sockets.
#[derive(Debug, Default)]
pub struct StaticDescriptions {
    map: Mutex<HashMap<String, String>>,
}

impl StaticDescriptions {
    /// An empty table.
    pub fn new() -> StaticDescriptions {
        StaticDescriptions::default()
    }

    /// Maps `url` to `document`.
    pub fn insert(&self, url: &str, document: &str) {
        self.map.lock().expect("descriptions poisoned").insert(url.to_owned(), document.to_owned());
    }
}

impl DescriptionFetch for StaticDescriptions {
    fn fetch(&self, url: &str) -> Option<String> {
        self.map.lock().expect("descriptions poisoned").get(url).cloned()
    }
}

// ---------------------------------------------------------------------
// Wire codecs: the stateless parser/composer tables per protocol
// ---------------------------------------------------------------------

/// Per-protocol dispatch into the stateless parse/compose functions the
/// deployed units share with the wire front-end.
enum WireCodec {
    Slp,
    Upnp,
    /// Boxed: a descriptor carries its compiled templates, which would
    /// otherwise dominate the enum's size.
    Descriptor(Box<SdpDescriptor>),
}

impl WireCodec {
    fn for_spec(spec: &UnitSpec) -> CoreResult<WireCodec> {
        match spec {
            UnitSpec::Slp(_) => Ok(WireCodec::Slp),
            UnitSpec::Upnp(_) => Ok(WireCodec::Upnp),
            UnitSpec::Descriptor(d) => Ok(WireCodec::Descriptor(Box::new(d.clone()))),
            // The Jini discovery plane is TCP-registrar-shaped; its unit
            // has no stateless datagram codec to share yet.
            UnitSpec::Jini(_) => Err(CoreError::BadConfig(
                "the Jini unit has no wire codec; configure SLP, UPnP or descriptor units \
                 for the network front-end",
            )),
            UnitSpec::Custom(_) => Err(CoreError::BadConfig(
                "custom unit factories are simulation-bound; the network front-end needs a \
                 built-in or descriptor protocol",
            )),
        }
    }

    fn decode<'a>(&self, payload: &'a [u8], src: SocketAddrV4, multicast: bool) -> Inbound<'a> {
        let parsed = match self {
            WireCodec::Slp => match slp::decode_slp(payload) {
                Some(SlpWire::Request(h, _, ty)) => {
                    return Inbound::Request(WireRequest::Slp(h, ty))
                }
                wire => slp::slp_wire_events(wire, src, multicast),
            },
            WireCodec::Upnp => upnp::decode_ssdp_wire(payload, src),
            WireCodec::Descriptor(d) => d.decode_wire(payload, src, multicast),
        };
        match parsed {
            ParsedMessage::Request(stream) => Inbound::Request(WireRequest::Stream(stream)),
            other => Inbound::Other(other),
        }
    }

    /// Writes the native reply answering `request` (heard from `src`)
    /// with `response` into `out`; returns the requester to send it to.
    /// UPnP requests return `None`: a native SSDP answer points at a
    /// synthetic description document, which only the unit runtime hosts.
    fn compose_reply(
        &self,
        registry: &ServiceRegistry,
        request: &WireRequest<'_>,
        response: &EventStream,
        src: SocketAddrV4,
        out: &mut Vec<u8>,
    ) -> Option<SocketAddrV4> {
        match (request, self) {
            (WireRequest::Slp(h, ty), _) => {
                slp::compose_srv_rply(registry, out, h.xid, h.lang, ty, response).map(|()| src)
            }
            (WireRequest::Stream(request), WireCodec::Descriptor(d)) => {
                d.compose_answer_into(request, response, out)
            }
            (WireRequest::Stream(_), _) => None,
        }
    }
}

/// One datagram as the pipeline sees it.
enum Inbound<'a> {
    Request(WireRequest<'a>),
    Other(ParsedMessage),
}

/// A request as the warm path needs it: an SLP `SrvRqst` stays its
/// borrowed header and interned type, any other request is its stream.
enum WireRequest<'a> {
    Slp(indiss_slp::HeaderView<'a>, Symbol),
    Stream(EventStream),
}

thread_local! {
    /// Send slots reused by this thread's batches (see the module docs):
    /// at most [`RECV_BATCH`] are kept, none with a buffer over 2 KiB.
    static SEND_SLOTS: RefCell<Vec<(Vec<u8>, SocketAddrV4)>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

indiss_net::counter_family! {
    /// A snapshot of the wire front-end's own counters, with the
    /// transport's reactor/batch-I/O counters beside them. Bridge-level
    /// accounting (cache hits, suppression, recorded adverts …) is shared
    /// with the gateway and read via [`NetDriver::stats`].
    pub struct NetFrontStats {
        /// Datagrams the transport delivered to the sinks.
        datagrams_received,
        /// Datagrams dropped because the worker lane a queued (blocking)
        /// channel feeds had its in-flight budget full (honest UDP overload
        /// behavior). Channels run on the delivery thread never count here.
        dropped_backpressure,
        /// Request streams decoded from the wire.
        requests_decoded,
        /// Native replies composed and written back out a socket.
        replies_sent,
        /// Native replies composed but refused by the socket.
        replies_dropped,
        /// Requests the warm path could not answer (a simulation runtime
        /// would fan these out to the foreign units).
        cold_misses,
        /// Advertisement streams decoded from the wire.
        adverts_seen,
        /// UPnP description documents fetched to enrich adverts.
        descriptions_fetched,
        /// Datagrams no parser table row matched.
        decode_rejected,
        /// Reactor wakeups (epoll returns with ≥1 ready channel, or recv
        /// returns on the fallback threads). Zero on the sim bus, which has
        /// no I/O engine — see [`Transport::io_stats`].
        reactor_wakeups: IoStats,
        /// Batched reply flushes (`sendmmsg` calls, or one per logical
        /// flush on the fallback path).
        batch_sends_flushed: IoStats,
        /// Reads that found the socket drained (`EAGAIN`) — the reactor's
        /// edge-triggered loop terminator.
        recv_eagain: IoStats,
        /// Datagrams longer than the transport's receive buffer, dropped at
        /// the socket instead of reaching a decoder clipped.
        recv_truncated: IoStats,
        /// Channels whose socket bound but could not join its protocol's
        /// multicast groups ([`TransportSocket::multicast_ready`] false):
        /// the channel still serves unicast, but passively detecting that
        /// protocol's multicast chatter will not work. Counted (and logged)
        /// once per channel at bind time.
        multicast_join_misses,
    }
    extra {
        /// Histogram of datagrams drained per recv batch: buckets
        /// `[≤1, 2–7, 8–31, 32+]`.
        pub recv_batch_hist: [u64; 4],
        /// Faults an [`indiss_net::FaultTransport`] in front of this driver
        /// injected (all-zero when no fault layer is armed).
        pub faults: FaultStats,
    }
    /// The front-end's own counters, bumped on whichever thread drains a
    /// channel.
    atomics struct FrontCounters;
}

impl NetFrontStats {
    /// The `indiss_netfront_*` block of the stats page followed by the
    /// `indiss_fault_*` block: the counters, then the batch-size buckets,
    /// then what a fault layer injected.
    fn render_page(&self, out: &mut String) {
        self.render(out, "indiss_netfront");
        for (i, count) in self.recv_batch_hist.iter().enumerate() {
            let _ = writeln!(out, "indiss_netfront_recv_batch_bucket_{i} {count}");
        }
        self.faults.render(out, "indiss_fault");
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

struct Channel {
    protocol: SdpProtocol,
    codec: WireCodec,
    lane: usize,
    /// Set on the UPnP channel when a fetcher is configured. `fetch` can
    /// block, so `Some` is also what makes a channel *queued* (batches
    /// go to its worker lane, not run on the delivery thread).
    fetcher: Option<Arc<dyn DescriptionFetch>>,
    /// The tracer lane this channel records on — the worker's ring
    /// (`lane % workers`) when queued, else a ring of its own
    /// (`workers + lane`) — so every span ring has one writing thread.
    span_lane: usize,
    socket: OnceLock<Arc<dyn TransportSocket>>,
    // Detection bookkeeping is per-channel atomics, not a shared map:
    // the sink runs on the transport's delivery thread, and a
    // process-wide lock there would serialize all channels at the front
    // door. (Backpressure budgets live per worker lane on the driver —
    // see `NetDriverInner::lane_in_flight`.)
    // `first_seen_nanos == 0` means "never" (driver time starts at 1 s).
    first_seen_nanos: AtomicU64,
    last_seen_nanos: AtomicU64,
    message_count: AtomicU64,
    /// Whether this protocol's pipeline is live (always for eager
    /// configs; flipped by first traffic under `lazy_units`, Fig. 5).
    active: std::sync::atomic::AtomicBool,
}

struct NetDriverInner {
    gateway: ThreadedGateway,
    core: GatewayCore,
    transport: Arc<dyn Transport>,
    channels: Vec<Arc<Channel>>,
    /// In-flight datagram budget per *worker lane* (index
    /// `channel.lane % len`), spent only by queued channels: the worker
    /// queues are what backpressure actually bounds, and two channels
    /// can share one worker.
    lane_in_flight: Box<[AtomicUsize]>,
    epoch: Instant,
    lazy: bool,
    counters: FrontCounters,
    /// The scrape endpoint, when [`field@IndissConfig::stats_port`] asked
    /// for one. Stopped on [`NetDriver::shutdown`] and on drop.
    stats_server: Mutex<Option<StatsServer>>,
}

impl NetDriverInner {
    fn lane_slot(&self, lane: usize) -> &AtomicUsize {
        &self.lane_in_flight[lane % self.lane_in_flight.len()]
    }
}

/// Configures and starts a [`NetDriver`]; obtained from
/// [`NetDriver::builder`].
pub struct NetDriverBuilder {
    config: IndissConfig,
    transport: Option<Arc<dyn Transport>>,
    fetcher: Option<Arc<dyn DescriptionFetch>>,
}

impl NetDriverBuilder {
    /// Runs the driver on an explicit transport (e.g. a [`SimTransport`]
    /// shared with scripted native peers, or a [`BatchedTransport`]
    /// wrapped in a fault plan). Without this, the transport comes from
    /// `config.transport` / `config.port_offset`.
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> NetDriverBuilder {
        self.transport = Some(transport);
        self
    }

    /// Sets the description fetcher UPnP advert enrichment uses. The
    /// default for a [`TransportKind::Udp`] driver is a real
    /// [`HttpDescriptionFetch`]; for [`TransportKind::Sim`] there is no
    /// default (supply [`StaticDescriptions`] for deterministic tests).
    pub fn describe(mut self, fetcher: Arc<dyn DescriptionFetch>) -> NetDriverBuilder {
        self.fetcher = Some(fetcher);
        self
    }

    /// Binds every channel and starts serving.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for configs the wire front cannot serve
    /// (no units, duplicate protocols, units without a wire codec);
    /// [`CoreError::Net`] for bind failures — a privileged port without
    /// the capability, a port already in use.
    pub fn start(self) -> CoreResult<NetDriver> {
        NetDriver::start_inner(self.config, self.transport, self.fetcher)
    }
}

/// Reserves up to `want` slots of a lane's in-flight budget, returning
/// how many were admitted (the rest is the caller's to drop and count).
/// Optimistic reserve-then-correct: one `fetch_add`, and a `fetch_sub`
/// refund only on the contended overflow path. Concurrent callers can
/// transiently observe the counter above `limit`, but admissions never
/// exceed it — the refund precedes the caller acting on the admission.
fn admit(in_flight: &AtomicUsize, limit: usize, want: usize) -> usize {
    let prev = in_flight.fetch_add(want, Ordering::AcqRel);
    let admitted = limit.saturating_sub(prev).min(want);
    if admitted < want {
        in_flight.fetch_sub(want - admitted, Ordering::AcqRel);
    }
    admitted
}

/// The wire front-end driver. See the module docs; constructed via
/// [`NetDriver::builder`] or [`NetDriver::start`].
///
/// Cheap to clone (all clones drive one gateway); [`NetDriver::shutdown`]
/// stops the transport's recv threads and drains the worker pool.
#[derive(Clone)]
pub struct NetDriver {
    inner: Arc<NetDriverInner>,
}

impl NetDriver {
    /// Per-*lane* bound on datagrams admitted into the worker pool and
    /// not yet processed; arrivals beyond it are dropped (tail of the
    /// offending batch first) and counted, exactly once per datagram.
    pub const BACKPRESSURE: usize = 1024;

    /// Starts a driver for `config` on the transport `config.transport`
    /// names.
    ///
    /// # Errors
    ///
    /// See [`NetDriverBuilder::start`].
    pub fn start(config: IndissConfig) -> CoreResult<NetDriver> {
        NetDriver::builder(config).start()
    }

    /// Starts configuring a driver.
    pub fn builder(config: IndissConfig) -> NetDriverBuilder {
        NetDriverBuilder { config, transport: None, fetcher: None }
    }

    fn start_inner(
        config: IndissConfig,
        transport: Option<Arc<dyn Transport>>,
        fetcher: Option<Arc<dyn DescriptionFetch>>,
    ) -> CoreResult<NetDriver> {
        if config.units.is_empty() {
            return Err(CoreError::BadConfig("at least one unit is required"));
        }
        let transport: Arc<dyn Transport> = match transport {
            Some(t) => t,
            None => match config.transport {
                TransportKind::Sim => Arc::new(SimTransport::new()),
                TransportKind::Udp => {
                    Arc::new(BatchedTransport::new(config.bind, config.port_offset))
                }
            },
        };
        let fetcher = fetcher.or_else(|| match transport.kind() {
            TransportKind::Udp => {
                Some(Arc::new(HttpDescriptionFetch::default()) as Arc<dyn DescriptionFetch>)
            }
            TransportKind::Sim => None,
        });

        let gateway = ThreadedGateway::from_config(&config);
        let core = gateway.core();
        let workers = gateway.workers();
        let mut channels = Vec::with_capacity(config.units.len());
        for (lane, spec) in config.units.iter().enumerate() {
            let protocol = spec.protocol();
            if channels.iter().any(|c: &Arc<Channel>| c.protocol == protocol) {
                return Err(CoreError::BadConfig(
                    "duplicate unit: each protocol may be configured at most once",
                ));
            }
            let codec = WireCodec::for_spec(spec)?;
            // Only a UPnP NOTIFY is ever enriched, so only that channel
            // gets the fetcher — and with it the worker-lane hand-off.
            let fetcher = if matches!(codec, WireCodec::Upnp) { fetcher.clone() } else { None };
            channels.push(Arc::new(Channel {
                protocol,
                codec,
                lane,
                span_lane: if fetcher.is_some() { lane % workers } else { workers + lane },
                fetcher,
                socket: OnceLock::new(),
                first_seen_nanos: AtomicU64::new(0),
                last_seen_nanos: AtomicU64::new(0),
                message_count: AtomicU64::new(0),
                active: std::sync::atomic::AtomicBool::new(!config.lazy_units),
            }));
        }
        let inner = Arc::new(NetDriverInner {
            gateway,
            core,
            transport: Arc::clone(&transport),
            channels,
            lane_in_flight: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            epoch: Instant::now(),
            lazy: config.lazy_units,
            counters: FrontCounters::default(),
            stats_server: Mutex::new(None),
        });

        for channel in &inner.channels {
            let spec = BindSpec {
                port: channel.protocol.port(),
                groups: channel.protocol.multicast_groups().to_vec(),
            };
            let weak: Weak<NetDriverInner> = Arc::downgrade(&inner);
            let chan = Arc::clone(channel);
            let socket = transport.bind_batched(
                &spec,
                Arc::new(move |batch: Vec<Datagram>| {
                    if let Some(inner) = weak.upgrade() {
                        NetDriver::sink_batch(&inner, &chan, batch);
                    }
                }),
            );
            let socket = match socket {
                Ok(s) => s,
                Err(e) => {
                    // A partial start must not strand recv threads (or
                    // keep earlier channels' ports bound): tear down
                    // what was already bound before reporting.
                    transport.shutdown();
                    return Err(e.into());
                }
            };
            if !spec.groups.is_empty() && !socket.multicast_ready() {
                // Once per channel, at bind time: the socket serves
                // unicast, but this protocol's multicast detection is
                // blind — worth a counter *and* a line in the log,
                // because the symptom (a silent channel) shows up far
                // from the cause (a host without multicast routes).
                inner.counters.multicast_join_misses.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "indiss-net-front: channel {:?} bound {} but joined no multicast group; \
                     passive detection of multicast traffic is disabled for it",
                    channel.protocol,
                    socket.local_addr(),
                );
            }
            channel.socket.set(socket).ok().expect("channel socket set once");
        }
        if let Some(port) = config.stats_port {
            let weak: Weak<NetDriverInner> = Arc::downgrade(&inner);
            let render: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || {
                let Some(inner) = weak.upgrade() else {
                    return String::new();
                };
                let driver = NetDriver { inner };
                let mut out = String::new();
                driver.stats().render(&mut out, "indiss_bridge");
                driver.front_stats().render_page(&mut out);
                driver.registry().stats().render(&mut out, "indiss_registry");
                render_interner_gauges(&mut out);
                render_tracer(&mut out, &driver.inner.core.tracer);
                out
            });
            let server = match StatsServer::start(port, render) {
                Ok(s) => s,
                Err(e) => {
                    // Same teardown discipline as a channel bind failure:
                    // no recv thread survives a partial start.
                    transport.shutdown();
                    return Err(e);
                }
            };
            *inner.stats_server.lock().expect("stats server lock") = Some(server);
        }
        Ok(NetDriver { inner })
    }

    /// The transport-seam entry point, on the transport's delivery
    /// thread (one call per `recvmmsg` on a batching transport):
    /// detection bookkeeping, then the batch runs to completion here or
    /// — on a channel that can block — goes, bounded, to its worker lane
    /// as one pool job.
    fn sink_batch(inner: &Arc<NetDriverInner>, channel: &Arc<Channel>, mut batch: Vec<Datagram>) {
        if batch.is_empty() {
            return;
        }
        let arrived = batch.len();
        inner.counters.datagrams_received.fetch_add(arrived as u64, Ordering::Relaxed);
        let now = inner.now();
        // Passive port-based detection (§2.1), through the seam: the
        // record exists because data arrived, not because anything was
        // parsed. Per-channel atomics — no lock on the recv path.
        let nanos = now.as_nanos().max(1);
        let _ = channel.first_seen_nanos.compare_exchange(
            0,
            nanos,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        channel.last_seen_nanos.store(nanos, Ordering::Relaxed);
        channel.message_count.fetch_add(arrived as u64, Ordering::Relaxed);
        if inner.lazy {
            // Fig. 5's lazy composition: first traffic activates the
            // protocol's pipeline (idempotent store).
            channel.active.store(true, Ordering::Relaxed);
        }
        if channel.fetcher.is_none() {
            NetDriver::process_batch(inner, channel, batch);
            return;
        }
        // Bounded backpressure into the pool, per worker lane: the
        // batch's admission is reserved here, released when the worker
        // finishes it. The unadmitted tail is dropped, each datagram
        // counted exactly once.
        let admitted = admit(inner.lane_slot(channel.lane), NetDriver::BACKPRESSURE, arrived);
        if admitted < arrived {
            inner
                .counters
                .dropped_backpressure
                .fetch_add((arrived - admitted) as u64, Ordering::Relaxed);
            batch.truncate(admitted);
        }
        if batch.is_empty() {
            return;
        }
        let inner2 = Arc::clone(inner);
        let channel2 = Arc::clone(channel);
        inner.gateway.submit_on_lane(channel.lane, move || {
            let release = batch.len();
            NetDriver::process_batch(&inner2, &channel2, batch);
            inner2.lane_slot(channel2.lane).fetch_sub(release, Ordering::AcqRel);
        });
    }

    /// The per-batch pipeline, on whichever single thread drains this
    /// channel (the delivery thread, or the worker lane of a queued
    /// channel): decode → parse → classify each datagram, collecting
    /// composed replies, then flush them in one
    /// [`TransportSocket::send_batch`] call.
    fn process_batch(inner: &NetDriverInner, channel: &Channel, batch: Vec<Datagram>) {
        let (mut slots, mut used) = (SEND_SLOTS.with(RefCell::take), 0);
        // Tracing is sampled one datagram per batch: the first datagram
        // gets per-phase spans plus the end-to-end histogram sample,
        // the rest pay only an untaken branch. The batch is the natural
        // stride — adaptive batching shrinks it to 1 under light load
        // (every datagram traced) and grows it under pressure, so the
        // sampling rate backs off exactly when clock reads would hurt
        // (the CI smoke gate pins the tracing-on overhead).
        for (i, dgram) in batch.into_iter().enumerate() {
            NetDriver::process(inner, channel, dgram, &mut slots, &mut used, i == 0);
        }
        if used > 0 {
            let socket = channel.socket.get().expect("bound before traffic");
            let reply_start = inner.core.tracer.stamp();
            let sent = socket.send_batch(&slots[..used]);
            inner.core.tracer.record(channel.span_lane, Phase::Reply, reply_start);
            inner.counters.replies_sent.fetch_add(sent as u64, Ordering::Relaxed);
            inner.counters.replies_dropped.fetch_add((used - sent) as u64, Ordering::Relaxed);
            inner.core.counters.responses_composed.fetch_add(sent as u64, Ordering::Relaxed);
        }
        slots.truncate(RECV_BATCH);
        slots.retain(|(buf, _)| buf.capacity() <= 2048);
        SEND_SLOTS.with(|pool| pool.replace(slots));
    }

    /// The per-datagram pipeline: decode → parse → classify → deliver.
    /// A composed reply is written into send slot `used` for the caller's
    /// batched flush (accounting happens there, after the send). When
    /// `trace_phases` is set (first datagram of a batch) each phase is
    /// stamped into the span ring and the datagram feeds the
    /// per-protocol end-to-end histogram; unsampled datagrams pay no
    /// clock reads at all.
    fn process(
        inner: &NetDriverInner,
        channel: &Channel,
        dgram: Datagram,
        slots: &mut Vec<(Vec<u8>, SocketAddrV4)>,
        used: &mut usize,
        trace_phases: bool,
    ) {
        let registry = inner.core.registry();
        let now = inner.now();
        // Span bookkeeping: `stamp()` is `SimTime::ZERO` and every
        // `record*` a single branch while tracing is off, so the hot
        // path pays nothing measurable (the CI smoke gate pins the
        // tracing-ON overhead too).
        let stamp = || if trace_phases { inner.core.tracer.stamp() } else { SimTime::ZERO };
        let span = |phase: Phase, start: SimTime| {
            if trace_phases {
                inner.core.tracer.record(channel.span_lane, phase, start);
            }
        };
        let e2e_start = stamp();
        let decoded = channel.codec.decode(&dgram.payload, dgram.src, dgram.is_multicast());
        span(Phase::Decode, e2e_start);
        match decoded {
            Inbound::Request(request) => {
                inner.counters.requests_decoded.fetch_add(1, Ordering::Relaxed);
                let classify_start = stamp();
                let service_type = match &request {
                    WireRequest::Slp(_, ty) => Some(ty.clone()),
                    WireRequest::Stream(stream) => stream.service_type_symbol(),
                };
                let decision = inner.core.classify_type(channel.protocol, service_type, now);
                span(Phase::Classify, classify_start);
                match decision {
                    WarmDecision::CacheHit(response) => {
                        let deliver_start = stamp();
                        if *used == slots.len() {
                            slots.push((Vec::new(), dgram.src));
                        }
                        let (buf, dst) = &mut slots[*used];
                        buf.clear();
                        let codec = &channel.codec;
                        if let Some(to) =
                            codec.compose_reply(&registry, &request, &response, dgram.src, buf)
                        {
                            (*dst, *used) = (to, *used + 1);
                        }
                        span(Phase::Deliver, deliver_start);
                    }
                    // "Nothing found" is silence on multicast SDPs; the
                    // negative/suppression accounting lives in the
                    // shared classify path.
                    WarmDecision::NegativeHit | WarmDecision::Suppressed => {}
                    WarmDecision::Bridge => {
                        inner.counters.cold_misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Inbound::Other(ParsedMessage::Advert(stream)) => {
                inner.counters.adverts_seen.fetch_add(1, Ordering::Relaxed);
                let stream = inner.maybe_enrich(channel, stream);
                if inner.core.ingest_advert(channel.protocol, &stream, now)
                    != AdvertDisposition::Ignored
                {
                    inner.opportunistic_sweep(&registry, now);
                }
            }
            Inbound::Other(ParsedMessage::Response(stream)) => {
                if inner.core.ingest_response(&stream, now) {
                    inner.opportunistic_sweep(&registry, now);
                }
            }
            Inbound::Other(ParsedMessage::NotRelevant) => {
                inner.counters.decode_rejected.fetch_add(1, Ordering::Relaxed);
            }
            Inbound::Other(_) => {} // handled
        }
        // End-to-end datagram latency, bucketed per protocol port on
        // this channel's ring (no cross-thread histogram contention).
        if trace_phases {
            let port = channel.protocol.port();
            let tracer = &inner.core.tracer;
            tracer.record_protocol(channel.span_lane, port, e2e_start, tracer.stamp());
        }
    }

    /// Wall-clock time mapped onto the registry's [`SimTime`] axis.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// The shared registry behind the gateway.
    pub fn registry(&self) -> ServiceRegistry {
        self.inner.core.registry()
    }

    /// Bridge statistics (shared accounting with the gateway: cache and
    /// negative hits, suppression, recorded adverts, composed replies).
    pub fn stats(&self) -> BridgeStats {
        self.inner.core.stats()
    }

    /// The front-end's own wire-level counters, merged with the
    /// transport's reactor/batch-I/O counters (zeros on the sim bus).
    pub fn front_stats(&self) -> NetFrontStats {
        let io = self.inner.transport.io_stats().unwrap_or_default();
        let mut stats = self.inner.counters.snapshot();
        stats.absorb(io.fields());
        stats.recv_batch_hist = io.recv_batch_hist;
        stats.faults = io.faults;
        stats
    }

    /// Protocols seen so far, in first-detection order — the monitor's
    /// §2.1 view, served by the transport seam.
    pub fn detected(&self) -> Vec<SdpProtocol> {
        let mut seen: Vec<(u64, SdpProtocol)> = self
            .inner
            .channels
            .iter()
            .filter_map(|c| {
                let first = c.first_seen_nanos.load(Ordering::Relaxed);
                (first != 0).then_some((first, c.protocol))
            })
            .collect();
        seen.sort();
        seen.into_iter().map(|(_, p)| p).collect()
    }

    /// Detection statistics for one protocol.
    pub fn detection(&self, protocol: SdpProtocol) -> Option<DetectionRecord> {
        let channel = self.inner.channels.iter().find(|c| c.protocol == protocol)?;
        let first = channel.first_seen_nanos.load(Ordering::Relaxed);
        if first == 0 {
            return None;
        }
        Some(DetectionRecord {
            first_seen: SimTime::from_nanos(first),
            last_seen: SimTime::from_nanos(channel.last_seen_nanos.load(Ordering::Relaxed)),
            message_count: channel.message_count.load(Ordering::Relaxed),
        })
    }

    /// Protocols with an active pipeline: everything configured when
    /// eager, first-traffic protocols when `lazy_units` (Fig. 5).
    pub fn active_units(&self) -> Vec<SdpProtocol> {
        let mut ps: Vec<SdpProtocol> = self
            .inner
            .channels
            .iter()
            .filter(|c| c.active.load(Ordering::Relaxed))
            .map(|c| c.protocol)
            .collect();
        ps.sort_by_key(|p| p.port());
        ps
    }

    /// The transport this driver serves (e.g. to bind scripted client
    /// channels on the same bus, or to map protocol ports).
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.inner.transport)
    }

    /// The channel socket bound for `protocol`, if configured (exposed
    /// so harnesses can address the gateway without re-deriving the
    /// mapped port).
    pub fn channel_addr(&self, protocol: SdpProtocol) -> Option<SocketAddrV4> {
        self.inner
            .channels
            .iter()
            .find(|c| c.protocol == protocol)
            .and_then(|c| c.socket.get())
            .map(|s| s.local_addr())
    }

    /// The gateway's pipeline span recorder — disabled (all no-ops)
    /// unless the config set [`field@IndissConfig::trace`].
    pub fn tracer(&self) -> Tracer {
        self.inner.core.tracer()
    }

    /// The scrape endpoint's bound address, when
    /// [`field@IndissConfig::stats_port`] asked for one (the real port even
    /// when configured with port 0).
    pub fn stats_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.stats_server.lock().expect("stats server lock").as_ref().map(StatsServer::addr)
    }

    /// Blocks until every datagram handed to a worker lane has been
    /// processed. Channels that run on the delivery thread are not
    /// covered — they have nothing queued here; wait on their effect
    /// (the reply, a counter) instead.
    pub fn join(&self) {
        self.inner.gateway.join();
    }

    /// Stops the transport's recv threads, drains the pool and stops
    /// the stats endpoint (when one was configured).
    pub fn shutdown(&self) {
        if let Some(mut server) = self.inner.stats_server.lock().expect("stats server lock").take()
        {
            server.stop();
        }
        self.inner.transport.shutdown();
        self.inner.gateway.join();
    }
}

impl NetDriverInner {
    fn now(&self) -> SimTime {
        // Offset by one virtual second so "time zero" artifacts (e.g. a
        // suppression window armed exactly at epoch) cannot occur.
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SimTime::from_nanos(nanos.saturating_add(1_000_000_000))
    }

    /// Enriches a UPnP advert that only points at a description (no
    /// endpoint) by fetching and parsing the document — the §2.4
    /// recursive process on the advert path.
    fn maybe_enrich(&self, channel: &Channel, stream: EventStream) -> EventStream {
        // No fetcher: not the UPnP channel, or nothing to fetch with —
        // and the delivery thread, which must not block, ends up here.
        let Some(fetcher) = &channel.fetcher else {
            return stream;
        };
        if !stream.is_alive() || stream.service_url().is_some() {
            return stream;
        }
        let location = stream.events().iter().find_map(|e| match e {
            crate::event::Event::UpnpDeviceUrlDesc(url) => Some(url.clone()),
            _ => None,
        });
        let Some(location) = location else {
            return stream;
        };
        let Some(desc) =
            fetcher.fetch(&location).and_then(|xml| DeviceDescription::from_xml(&xml).ok())
        else {
            return stream;
        };
        self.counters.descriptions_fetched.fetch_add(1, Ordering::Relaxed);
        upnp::enrich_advert_with_description(&stream, &desc, &location)
    }

    /// Runs a registry sweep when a TTL deadline has passed — the
    /// wall-clock analogue of the simulation's virtual-time sweep
    /// timers (reads expire lazily regardless; this reclaims memory).
    fn opportunistic_sweep(&self, registry: &ServiceRegistry, now: SimTime) {
        if registry.next_deadline().is_some_and(|d| d <= now) {
            registry.sweep(now);
        }
    }
}

impl std::fmt::Debug for NetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetDriver")
            .field("transport", &self.inner.transport.kind())
            .field("protocols", &self.inner.channels.iter().map(|c| c.protocol).collect::<Vec<_>>())
            .field("front_stats", &self.front_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndissConfig;
    use crate::event::Event;
    use std::sync::mpsc;
    use std::time::Duration;

    fn slp_request(service_type: &str, xid: u16) -> Vec<u8> {
        indiss_slp::Message::new(
            indiss_slp::Header::new(indiss_slp::FunctionId::SrvRqst, xid, "en"),
            indiss_slp::Body::SrvRqst(indiss_slp::SrvRqst {
                prlist: String::new(),
                service_type: service_type.to_owned(),
                scopes: "DEFAULT".into(),
                predicate: String::new(),
                spi: String::new(),
            }),
        )
        .encode()
        .expect("encodable")
    }

    fn client_on(
        transport: &Arc<dyn Transport>,
    ) -> (Arc<dyn TransportSocket>, mpsc::Receiver<Datagram>) {
        let (tx, rx) = mpsc::channel();
        let socket = transport
            .bind_client(Arc::new(move |d| {
                let _ = tx.send(d);
            }))
            .expect("client bind");
        (socket, rx)
    }

    /// A warm SLP request over the sim bus is answered with a composed
    /// SrvRply on the requester's socket — the §4.3 best case end to
    /// end through the transport seam.
    #[test]
    fn warm_slp_request_is_answered_on_the_wire() {
        let driver = NetDriver::builder(IndissConfig::slp_upnp()).start().expect("driver");
        let transport = driver.transport();
        driver.registry().warm(
            "clock",
            EventStream::framed(vec![
                Event::ServiceResponse,
                Event::ResOk,
                Event::ServiceType("clock".into()),
                Event::ResTtl(1800),
                Event::ResServUrl("soap://10.0.0.2:4004/service/timer/control".into()),
            ]),
            driver.now(),
        );
        let (client, replies) = client_on(&transport);
        let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp channel");
        client.send_to(&slp_request("service:clock", 0xBEEF), slp_addr).expect("send");
        driver.join();
        let reply = replies.recv_timeout(Duration::from_secs(2)).expect("reply on the wire");
        let msg = indiss_slp::Message::decode(&reply.payload).expect("valid SLP");
        assert_eq!(msg.header.xid, 0xBEEF);
        match msg.body {
            indiss_slp::Body::SrvRply(rply) => {
                assert_eq!(
                    rply.urls[0].url,
                    "service:clock:soap://10.0.0.2:4004/service/timer/control"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = driver.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.responses_composed, 1);
        assert_eq!(driver.front_stats().replies_sent, 1);
        driver.shutdown();
    }

    /// An SLP SrvReg advert heard on the wire lands in the registry,
    /// warms the cache, and the next request is answered — and a cold
    /// request is counted as a miss, not answered.
    #[test]
    fn adverts_warm_and_cold_requests_count() {
        let driver = NetDriver::builder(IndissConfig::slp_upnp()).start().expect("driver");
        let transport = driver.transport();
        let (client, replies) = client_on(&transport);
        let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp channel");

        // Cold: nothing known.
        client.send_to(&slp_request("service:printer", 1), slp_addr).expect("send");
        driver.join();
        assert_eq!(driver.front_stats().cold_misses, 1);
        assert!(replies.try_recv().is_err(), "cold request is silence");

        // Advert → record + warm.
        let reg = indiss_slp::Message::new(
            indiss_slp::Header::new(indiss_slp::FunctionId::SrvReg, 2, "en"),
            indiss_slp::Body::SrvReg(indiss_slp::SrvReg {
                entry: indiss_slp::UrlEntry::new("service:printer:lpr://10.0.3.1:515", 1800),
                service_type: "service:printer".into(),
                scopes: "DEFAULT".into(),
                attrs: "(location=office)".into(),
            }),
        )
        .encode()
        .expect("encodable");
        client.send_to(&reg, slp_addr).expect("send");
        driver.join();
        assert!(driver.registry().contains_type("printer", driver.now()));
        assert_eq!(driver.stats().adverts_recorded, 1);

        client.send_to(&slp_request("service:printer", 3), slp_addr).expect("send");
        driver.join();
        let reply = replies.recv_timeout(Duration::from_secs(2)).expect("warm reply");
        assert!(indiss_slp::Message::decode(&reply.payload).is_ok());
        driver.shutdown();
    }

    /// Passive port detection through the seam, with Fig. 5 lazy
    /// activation: nothing active until traffic arrives.
    #[test]
    fn detection_and_lazy_activation_through_the_seam() {
        let descriptor = SdpDescriptor::dns_sd();
        let config = IndissConfig::builder().slp().descriptor(descriptor.clone()).lazy().build();
        let driver = NetDriver::builder(config).start().expect("driver");
        let transport = driver.transport();
        assert!(driver.detected().is_empty());
        assert!(driver.active_units().is_empty(), "lazy: nothing active yet");

        let (client, _replies) = client_on(&transport);
        let dnssd_addr = driver.channel_addr(descriptor.protocol()).expect("channel");
        client.send_to(b"DNSSD Q PTR _clock._tcp.local", dnssd_addr).expect("send");
        driver.join();
        assert_eq!(driver.detected(), vec![descriptor.protocol()]);
        assert_eq!(driver.active_units(), vec![descriptor.protocol()]);
        assert_eq!(driver.detection(descriptor.protocol()).expect("record").message_count, 1);
        driver.shutdown();
    }

    /// A descriptor protocol's warm path composes its native answer
    /// line from the same template table the unit uses.
    #[test]
    fn descriptor_protocol_answers_natively() {
        let descriptor = SdpDescriptor::dns_sd();
        let config = IndissConfig::builder().descriptor(descriptor.clone()).build();
        let driver = NetDriver::builder(config).start().expect("driver");
        driver.registry().warm(
            "scanner",
            EventStream::framed(vec![
                Event::ServiceResponse,
                Event::ResOk,
                Event::ServiceType("scanner".into()),
                Event::ResTtl(120),
                Event::ResServUrl("scan://10.0.4.1:6566/sane".into()),
            ]),
            driver.now(),
        );
        let transport = driver.transport();
        let (client, replies) = client_on(&transport);
        let addr = driver.channel_addr(descriptor.protocol()).expect("channel");
        client.send_to(b"DNSSD Q PTR _scanner._tcp.local", addr).expect("send");
        driver.join();
        let reply = replies.recv_timeout(Duration::from_secs(2)).expect("native answer");
        assert_eq!(
            String::from_utf8(reply.payload).expect("utf8"),
            "DNSSD A PTR _scanner._tcp.local SRV scan://10.0.4.1:6566/sane TTL 120"
        );
        driver.shutdown();
    }

    /// A UPnP NOTIFY that only points at a description document is
    /// enriched through the DescriptionFetch seam and warms the cache
    /// with the real control endpoint.
    #[test]
    fn upnp_notify_enriched_via_description_fetch() {
        let descriptions = Arc::new(StaticDescriptions::new());
        let desc = DeviceDescription {
            device_type: "urn:schemas-upnp-org:device:clock:1".into(),
            friendly_name: "CyberGarage Clock Device".into(),
            manufacturer: "CyberGarage".into(),
            manufacturer_url: "http://www.cybergarage.org".into(),
            model_description: "CyberUPnP Clock Device".into(),
            model_name: "Clock".into(),
            model_number: "1.0".into(),
            model_url: "http://www.cybergarage.org".into(),
            udn: "uuid:ClockDevice".into(),
            services: vec![indiss_upnp::ServiceDescription::conventional("timer", 1)],
        };
        descriptions.insert("http://10.0.0.2:4004/description.xml", &desc.to_xml());

        let driver = NetDriver::builder(IndissConfig::slp_upnp())
            .describe(descriptions)
            .start()
            .expect("driver");
        let transport = driver.transport();
        let (client, replies) = client_on(&transport);
        let notify = indiss_ssdp::Notify {
            nt: indiss_ssdp::SearchTarget::device_urn("clock", 1),
            nts: indiss_ssdp::NotifySubType::Alive,
            usn: "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1".into(),
            location: Some("http://10.0.0.2:4004/description.xml".into()),
            server: "test/1.0".into(),
            max_age: 1800,
        };
        let upnp_addr = driver.channel_addr(SdpProtocol::Upnp).expect("upnp channel");
        client.send_to(&notify.to_bytes(), upnp_addr).expect("send");
        driver.join();
        assert_eq!(driver.front_stats().descriptions_fetched, 1);
        assert!(driver.registry().contains_type("clock", driver.now()));

        // The enriched advert warmed the cache: an SLP request is now a
        // warm hit answered with the *control* endpoint from the
        // description, not the description URL.
        let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp channel");
        client.send_to(&slp_request("service:clock", 7), slp_addr).expect("send");
        driver.join();
        let reply = replies.recv_timeout(Duration::from_secs(2)).expect("bridged reply");
        let msg = indiss_slp::Message::decode(&reply.payload).expect("valid SLP");
        match msg.body {
            indiss_slp::Body::SrvRply(rply) => {
                assert_eq!(
                    rply.urls[0].url,
                    "service:clock:soap://10.0.0.2:4004/service/timer/control"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        driver.shutdown();
    }

    #[test]
    fn jini_and_empty_configs_are_rejected() {
        assert!(matches!(NetDriver::start(IndissConfig::new()), Err(CoreError::BadConfig(_))));
        assert!(matches!(
            NetDriver::start(IndissConfig::new().jini()),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            NetDriver::start(IndissConfig::new().slp().slp()),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn admit_reserves_and_refunds_exactly() {
        let slot = AtomicUsize::new(0);
        // Under budget: everything admitted, counter tracks it.
        assert_eq!(admit(&slot, 10, 6), 6);
        assert_eq!(slot.load(Ordering::Relaxed), 6);
        // Partial overflow: only the remaining budget admitted, the
        // refused tail refunded (counter lands exactly on the limit).
        assert_eq!(admit(&slot, 10, 6), 4);
        assert_eq!(slot.load(Ordering::Relaxed), 10);
        // At the limit: nothing admitted, counter unchanged.
        assert_eq!(admit(&slot, 10, 3), 0);
        assert_eq!(slot.load(Ordering::Relaxed), 10);
        // Release makes room again.
        slot.fetch_sub(7, Ordering::Relaxed);
        assert_eq!(admit(&slot, 10, 9), 7);
        assert_eq!(slot.load(Ordering::Relaxed), 10);
    }

    /// The backpressure budget bounds the worker lane a *queued* channel
    /// feeds (UPnP with a fetcher): overflow under batch ingestion drops
    /// the batch tail with each dropped datagram counted exactly once —
    /// no double counts, no misses — while a channel that runs on the
    /// delivery thread neither spends the budget nor waits behind it.
    #[test]
    fn backpressure_bounds_the_lane_and_counts_drops_exactly_once() {
        // One worker ⇒ the UPnP channel (lane 1) queues on lane slot 0.
        let driver = NetDriver::builder(IndissConfig::slp_upnp())
            .describe(Arc::new(StaticDescriptions::new()))
            .start()
            .expect("driver");
        assert_eq!(driver.inner.lane_in_flight.len(), 1);
        let slp = Arc::clone(&driver.inner.channels[0]);
        let upnp = Arc::clone(&driver.inner.channels[1]);

        // Stall the only worker so admissions accumulate.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (stalled_tx, stalled_rx) = mpsc::channel::<()>();
        driver.inner.gateway.submit_on_lane(0, move || {
            stalled_tx.send(()).expect("test alive");
            release_rx.recv().expect("released");
        });
        stalled_rx.recv_timeout(Duration::from_secs(2)).expect("worker stalled");

        let batch = |n: usize| -> Vec<Datagram> {
            let addr = SocketAddrV4::new(std::net::Ipv4Addr::LOCALHOST, 9999);
            (0..n).map(|_| Datagram { src: addr, dst: addr, payload: b"junk".to_vec() }).collect()
        };
        // 600 on the UPnP channel: all admitted.
        NetDriver::sink_batch(&driver.inner, &upnp, batch(600));
        assert_eq!(driver.front_stats().dropped_backpressure, 0);
        // 600 more: the lane budget has only 424 slots left — the
        // 176-datagram tail drops, each counted once.
        NetDriver::sink_batch(&driver.inner, &upnp, batch(600));
        let stats = driver.front_stats();
        assert_eq!(stats.datagrams_received, 1200);
        assert_eq!(stats.dropped_backpressure, 176);
        assert_eq!(driver.inner.lane_in_flight[0].load(Ordering::Relaxed), NetDriver::BACKPRESSURE);
        assert_eq!(stats.decode_rejected, 0, "the stalled lane has processed nothing yet");

        // The SLP channel shares that worker's lane slot on paper, but
        // runs right here: served in full behind a full, stalled lane,
        // without touching its budget.
        NetDriver::sink_batch(&driver.inner, &slp, batch(100));
        let stats = driver.front_stats();
        assert_eq!(stats.decode_rejected, 100, "processed before sink_batch returned");
        assert_eq!(stats.dropped_backpressure, 176);
        assert_eq!(driver.inner.lane_in_flight[0].load(Ordering::Relaxed), NetDriver::BACKPRESSURE);

        // Release the worker; every admitted datagram processes and the
        // budget frees completely.
        release_tx.send(()).expect("worker alive");
        driver.join();
        assert_eq!(driver.inner.lane_in_flight[0].load(Ordering::Relaxed), 0);
        let stats = driver.front_stats();
        assert_eq!(stats.dropped_backpressure, 176, "drops are not re-counted");
        // The junk payloads decoded to nothing, once per admitted
        // datagram (plus the SLP channel's 100).
        assert_eq!(stats.decode_rejected, 1124);
        // With the budget free, a fresh batch is admitted in full.
        NetDriver::sink_batch(&driver.inner, &upnp, batch(100));
        driver.join();
        let stats = driver.front_stats();
        assert_eq!(stats.datagrams_received, 1400);
        assert_eq!(stats.dropped_backpressure, 176);
        assert_eq!(stats.decode_rejected, 1224);
        driver.shutdown();
    }

    /// Only the sim bus has no I/O engine; there the reactor counters
    /// read as zeros — present, not absent, so dashboards need no
    /// special case.
    #[test]
    fn sim_transport_reports_zero_reactor_stats() {
        let driver = NetDriver::builder(IndissConfig::slp_upnp()).start().expect("driver");
        let stats = driver.front_stats();
        assert_eq!(stats.reactor_wakeups, 0);
        assert_eq!(stats.recv_batch_hist, [0; 4]);
        assert_eq!(stats.batch_sends_flushed, 0);
        assert_eq!(stats.recv_eagain, 0);
        assert_eq!(stats.faults.total(), 0, "no fault layer armed");
        assert_eq!(stats.multicast_join_misses, 0, "sim sockets always join");
        driver.shutdown();
    }

    #[test]
    fn driver_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetDriver>();
        assert_send_sync::<NetFrontStats>();
        assert_send_sync::<StaticDescriptions>();
        assert_send_sync::<HttpDescriptionFetch>();
    }

    /// The table is the contract (walks the generated name table); the
    /// transport's four scalars reach the view by name.
    #[test]
    fn netfront_family_table_is_the_contract() {
        NetFrontStats::assert_family_contract("indiss_netfront");
        FrontCounters::assert_twin_contract();
        let io = IoStats { reactor_wakeups: 5, recv_truncated: 7, ..IoStats::default() };
        let mut view = NetFrontStats::default();
        view.absorb(io.fields());
        assert_eq!((view.reactor_wakeups, view.recv_truncated), (5, 7));
        assert_eq!(view.fields().filter(|(_, v)| *v != 0).count(), 2);
    }
}
