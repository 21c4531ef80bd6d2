//! The transport seam: one trait over "where datagrams come from".
//!
//! Everything above this module — the gateway's decode → parse →
//! classify → deliver warm path, the passive port-detection, the
//! composed replies — is transport-agnostic. A [`Transport`] hands out
//! [`TransportSocket`]s bound to a protocol's detection tag (UDP port +
//! multicast groups) and pushes every received datagram into the
//! caller's sink; the caller writes replies back through the same
//! socket. Two implementations exist:
//!
//! * [`SimTransport`] — a deterministic in-memory loopback bus. Sends
//!   are queued and delivered synchronously in FIFO order on the
//!   sending thread, so a scripted scenario produces the identical
//!   datagram sequence on every run. This is the transport the
//!   byte-for-byte seam tests pin the gateway's semantics with.
//! * [`crate::BatchedTransport`] — real `std::net::UdpSocket`s drained
//!   by one epoll reactor thread in `recvmmsg` batches (its portable
//!   fallback, a recv thread per channel, is the only thread-per-channel
//!   path). Loopback-confined by default (binds `127.0.0.1`) so CI can
//!   exercise it without touching the LAN; multicast group joins are
//!   attempted and reported, not required (runners that forbid
//!   multicast degrade to unicast loopback). A configurable port offset
//!   shifts every *protocol* port so tests can run unprivileged (SLP's
//!   427 needs root) and in parallel.
//!
//! Both deliver in batches: [`Transport::bind_batched`] and
//! [`Transport::bind_client_batched`] are the one required bind pair,
//! and the per-datagram [`Transport::bind`] / [`Transport::bind_client`]
//! are provided adapters over them. [`crate::FaultTransport`] decorates
//! either with a seeded fault plan.
//!
//! The simulated [`crate::World`] is deliberately *not* behind this
//! trait: its virtual-time event loop, latency model and meter are a
//! measurement instrument, not a transport. `SimTransport` is the
//! seam-level twin the real-socket path is compared against.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{NetError, NetResult};
use crate::udp::Datagram;

/// Which transport a gateway front-end should run on (a configuration
/// knob; see `IndissConfig::transport` in `indiss-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The deterministic in-memory bus ([`SimTransport`]).
    #[default]
    Sim,
    /// Real UDP sockets behind the reactor engine
    /// ([`crate::BatchedTransport`]).
    Udp,
}

/// Callback receiving every datagram a bound channel hears, one per
/// call — the sink of the provided [`Transport::bind`] adapter.
///
/// On real sockets the sink runs on the reactor thread (see
/// [`TransportBatchSink`]), which serves every channel: it may do the
/// datagram's work itself but must never block — anything that can wait
/// (a TCP fetch, a full queue) is handed to another thread.
pub type TransportSink = Arc<dyn Fn(Datagram) + Send + Sync + 'static>;

/// Callback receiving a *batch* of datagrams a bound channel heard in
/// one reactor wakeup. For [`crate::BatchedTransport`] a batch is up to
/// one `recvmmsg`'s worth (a singleton on its portable fallback);
/// [`SimTransport`] delivers singleton batches, one per posted
/// datagram.
pub type TransportBatchSink = Arc<dyn Fn(Vec<Datagram>) + Send + Sync + 'static>;

crate::counter_family! {
    /// Injected-fault counters, one per fault class a
    /// [`crate::FaultTransport`] plan can apply. All-zero on transports
    /// without an armed fault plan.
    pub struct FaultStats {
        /// Datagrams silently discarded by the drop probability.
        dropped,
        /// Extra copies delivered by the duplicate probability.
        duplicated,
        /// Datagrams held back one arrival (swap-with-next reordering).
        reordered,
        /// Datagrams delivered with injected byte corruption.
        corrupted,
        /// Datagrams held back behind later arrivals (injected delay).
        delayed,
        /// Datagrams discarded inside a scheduled partition window.
        partitioned,
        /// Datagrams discarded inside a scheduled *virtual-time* partition
        /// window (see `FaultPlan::time_partitions`).
        time_partitioned,
    }
    /// Atomic backing for [`FaultStats`], bumped by the fault lanes.
    atomics pub(crate) struct FaultCounters;
}

impl FaultStats {
    /// Total injected faults across every class.
    pub fn total(&self) -> u64 {
        self.fields().map(|(_, count)| count).sum()
    }
}

crate::counter_family! {
    /// Reactor/batch-I/O observability counters, snapshot by
    /// [`Transport::io_stats`]. Transports without a reactor report zeros
    /// (the [`Transport::io_stats`] default returns `None`).
    pub struct IoStats {
        /// Reactor wakeups that found at least one ready channel.
        reactor_wakeups,
        /// `sendmmsg` flushes issued (or logical flushes on the fallback).
        batch_sends_flushed,
        /// `EAGAIN` results that terminated an edge-drain loop.
        recv_eagain,
        /// Datagrams longer than the receive buffer: dropped at the socket
        /// instead of being handed to a decoder clipped.
        recv_truncated,
    }
    extra {
        /// Histogram of datagrams drained per `recvmmsg` batch:
        /// `[1, 2–7, 8–31, 32+]`.
        pub recv_batch_hist: [u64; 4],
        /// Faults injected by an armed [`crate::FaultTransport`] plan
        /// (all-zero when no fault plan wraps this transport).
        pub faults: FaultStats,
    }
    /// Shared atomic backing for [`IoStats`]; written by the reactor (or
    /// the fallback recv threads) and snapshot on demand.
    atomics pub(crate) struct IoCounters {
        pub(crate) recv_batch_hist: [AtomicU64; 4],
    }
}

impl IoStats {
    /// Total recv batches across all histogram buckets.
    pub fn recv_batches(&self) -> u64 {
        self.recv_batch_hist.iter().sum()
    }
}

impl IoCounters {
    /// Buckets a recv batch of `n` datagrams into the histogram.
    pub(crate) fn record_recv_batch(&self, n: u64) {
        let idx = match n {
            0..=1 => 0,
            2..=7 => 1,
            8..=31 => 2,
            _ => 3,
        };
        self.recv_batch_hist[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// [`IoCounters::snapshot`] plus the hand-kept batch histogram.
    pub(crate) fn io_stats(&self) -> IoStats {
        IoStats {
            recv_batch_hist: std::array::from_fn(|i| {
                self.recv_batch_hist[i].load(Ordering::Relaxed)
            }),
            ..self.snapshot()
        }
    }
}

/// What to bind: a protocol's detection tag.
#[derive(Debug, Clone)]
pub struct BindSpec {
    /// The protocol's registered UDP port (pre-offset; see
    /// [`Transport::map_port`]).
    pub port: u16,
    /// Multicast groups to join. Joining is best-effort on real
    /// sockets; [`TransportSocket::multicast_ready`] reports the
    /// outcome.
    pub groups: Vec<Ipv4Addr>,
}

/// A bound, sendable channel handed out by a [`Transport`].
///
/// `Send + Sync`: worker threads compose replies and write them back
/// through the socket that heard the request.
pub trait TransportSocket: Send + Sync {
    /// Sends `payload` to `dst`. Destinations taken from received
    /// datagrams (a requester's source address) are used verbatim;
    /// protocol-port destinations must be pre-mapped with
    /// [`Transport::map_port`].
    ///
    /// # Errors
    ///
    /// Transport-level send failures ([`NetError::Io`] for real
    /// sockets, unreachable/closed errors for the in-memory bus).
    fn send_to(&self, payload: &[u8], dst: SocketAddrV4) -> NetResult<usize>;

    /// The local address datagrams sent from this socket carry.
    fn local_addr(&self) -> SocketAddrV4;

    /// True when every requested multicast group was joined. The
    /// loopback-confined UDP transport may legitimately report `false`
    /// (unicast-only degradation); callers that need multicast should
    /// log the skip instead of failing.
    fn multicast_ready(&self) -> bool {
        true
    }

    /// Sends a batch of replies, returning how many went out. The
    /// default loops [`TransportSocket::send_to`]; the batched
    /// transport overrides it with one `sendmmsg` flush per call.
    fn send_batch(&self, batch: &[(Vec<u8>, SocketAddrV4)]) -> usize {
        batch.iter().filter(|(payload, dst)| self.send_to(payload, *dst).is_ok()).count()
    }
}

/// Unrolls each batch into per-datagram `sink` calls, in arrival order.
fn per_datagram(sink: TransportSink) -> TransportBatchSink {
    Arc::new(move |batch| {
        for dgram in batch {
            sink(dgram);
        }
    })
}

/// A source of bound channels — the seam between the gateway front-end
/// and the wire. See the module docs for the two implementations.
pub trait Transport: Send + Sync {
    /// Which kind of transport this is (for logs and bench metadata).
    fn kind(&self) -> TransportKind;

    /// Binds a channel on `spec`'s (mapped) port, joining its groups,
    /// and delivers received datagrams to `sink` in batches: everything
    /// drained in one reactor wakeup arrives in a single sink call, so
    /// the caller can amortize per-batch work (one worker-lane job per
    /// batch instead of per datagram).
    ///
    /// # Errors
    ///
    /// Bind failures — a port already bound on this transport, an OS
    /// error ([`NetError::Io`]) such as `EACCES` on a privileged port,
    /// or [`NetError::SocketClosed`] on a real-socket transport that
    /// was already shut down.
    fn bind_batched(
        &self,
        spec: &BindSpec,
        sink: TransportBatchSink,
    ) -> NetResult<Arc<dyn TransportSocket>>;

    /// Binds an ephemeral (client-side) channel: an OS-assigned port,
    /// no group joins, batched delivery as for
    /// [`Transport::bind_batched`]. Used by test harnesses and native
    /// peers sharing the gateway's transport.
    ///
    /// # Errors
    ///
    /// Bind failures, as for [`Transport::bind_batched`].
    fn bind_client_batched(&self, sink: TransportBatchSink) -> NetResult<Arc<dyn TransportSocket>>;

    /// Per-datagram adapter over [`Transport::bind_batched`]: `sink`
    /// sees each datagram of a batch in arrival order, one per call.
    ///
    /// # Errors
    ///
    /// Bind failures, as for [`Transport::bind_batched`].
    fn bind(&self, spec: &BindSpec, sink: TransportSink) -> NetResult<Arc<dyn TransportSocket>> {
        self.bind_batched(spec, per_datagram(sink))
    }

    /// Per-datagram adapter over [`Transport::bind_client_batched`].
    ///
    /// # Errors
    ///
    /// Bind failures, as for [`Transport::bind_batched`].
    fn bind_client(&self, sink: TransportSink) -> NetResult<Arc<dyn TransportSocket>> {
        self.bind_client_batched(per_datagram(sink))
    }

    /// Maps a protocol's registered port to the port this transport
    /// actually serves it on (identity except for
    /// [`crate::BatchedTransport`]'s port offset). Use for every
    /// protocol-port destination; never for source addresses taken from
    /// received datagrams.
    fn map_port(&self, port: u16) -> u16 {
        port
    }

    /// Snapshot of reactor/batch-I/O counters, when this transport has
    /// them. `None` for the sim bus, which has no I/O engine.
    fn io_stats(&self) -> Option<IoStats> {
        None
    }

    /// Stops the recv side and closes every channel. Idempotent.
    fn shutdown(&self);
}

// ---------------------------------------------------------------------
// SimTransport: the deterministic in-memory bus
// ---------------------------------------------------------------------

struct SimChannel {
    addr: SocketAddrV4,
    groups: Vec<Ipv4Addr>,
    sink: TransportBatchSink,
    open: bool,
}

struct SimBus {
    channels: Vec<SimChannel>,
    /// Pending datagrams, delivered FIFO by the draining thread.
    queue: VecDeque<Datagram>,
    /// Re-entrancy guard: a sink that sends enqueues instead of
    /// recursing, so causal order is preserved deterministically.
    draining: bool,
    next_ephemeral: u16,
}

/// The deterministic in-memory transport. See the module docs.
///
/// All channels share one bus; handing the same `SimTransport` to the
/// gateway and to scripted native peers puts them on one loopback
/// "network". Addresses are synthetic (`127.0.0.1:<port>`), matching
/// the loopback-confined [`crate::BatchedTransport`] so scripted
/// scenarios can run unchanged on either.
#[derive(Clone)]
pub struct SimTransport {
    bus: Arc<Mutex<SimBus>>,
}

impl Default for SimTransport {
    fn default() -> Self {
        SimTransport::new()
    }
}

impl SimTransport {
    /// A fresh, empty bus.
    pub fn new() -> SimTransport {
        SimTransport {
            bus: Arc::new(Mutex::new(SimBus {
                channels: Vec::new(),
                queue: VecDeque::new(),
                draining: false,
                next_ephemeral: 40_000,
            })),
        }
    }

    fn register(
        &self,
        addr: SocketAddrV4,
        groups: Vec<Ipv4Addr>,
        sink: TransportBatchSink,
    ) -> usize {
        let mut bus = self.bus.lock().expect("sim bus poisoned");
        bus.channels.push(SimChannel { addr, groups, sink, open: true });
        bus.channels.len() - 1
    }

    /// Enqueues `dgram` and, unless a delivery loop is already running
    /// further up the stack, drains the queue in FIFO order.
    fn post(&self, dgram: Datagram) {
        {
            let mut bus = self.bus.lock().expect("sim bus poisoned");
            bus.queue.push_back(dgram);
            if bus.draining {
                return;
            }
            bus.draining = true;
        }
        loop {
            // Pop one datagram and snapshot its receivers under the
            // lock; run the sinks outside it (they may send, which
            // re-enters `post` and lands in the queue).
            let (dgram, sinks) = {
                let mut bus = self.bus.lock().expect("sim bus poisoned");
                let Some(dgram) = bus.queue.pop_front() else {
                    bus.draining = false;
                    return;
                };
                let sinks: Vec<TransportBatchSink> = bus
                    .channels
                    .iter()
                    .filter(|c| c.open && c.receives(&dgram))
                    .map(|c| Arc::clone(&c.sink))
                    .collect();
                (dgram, sinks)
            };
            for sink in sinks {
                sink(vec![dgram.clone()]);
            }
        }
    }
}

impl SimChannel {
    fn receives(&self, dgram: &Datagram) -> bool {
        if dgram.dst.port() != self.addr.port() {
            return false;
        }
        if dgram.dst.ip().is_multicast() {
            return self.groups.contains(dgram.dst.ip());
        }
        *dgram.dst.ip() == *self.addr.ip()
    }
}

struct SimSocket {
    transport: SimTransport,
    index: usize,
    addr: SocketAddrV4,
}

impl TransportSocket for SimSocket {
    fn send_to(&self, payload: &[u8], dst: SocketAddrV4) -> NetResult<usize> {
        {
            let bus = self.transport.bus.lock().expect("sim bus poisoned");
            if !bus.channels[self.index].open {
                return Err(NetError::SocketClosed);
            }
        }
        self.transport.post(Datagram { src: self.addr, dst, payload: payload.to_vec() });
        Ok(payload.len())
    }

    fn local_addr(&self) -> SocketAddrV4 {
        self.addr
    }
}

impl Transport for SimTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn bind_batched(
        &self,
        spec: &BindSpec,
        sink: TransportBatchSink,
    ) -> NetResult<Arc<dyn TransportSocket>> {
        let addr = SocketAddrV4::new(Ipv4Addr::LOCALHOST, spec.port);
        {
            let bus = self.bus.lock().expect("sim bus poisoned");
            if bus.channels.iter().any(|c| c.open && c.addr == addr) {
                return Err(NetError::Io {
                    op: "bind",
                    message: format!("sim port {} already bound", spec.port),
                });
            }
        }
        let index = self.register(addr, spec.groups.clone(), sink);
        Ok(Arc::new(SimSocket { transport: self.clone(), index, addr }))
    }

    fn bind_client_batched(&self, sink: TransportBatchSink) -> NetResult<Arc<dyn TransportSocket>> {
        let port = {
            let mut bus = self.bus.lock().expect("sim bus poisoned");
            let port = bus.next_ephemeral;
            bus.next_ephemeral = bus.next_ephemeral.wrapping_add(1).max(40_000);
            port
        };
        let addr = SocketAddrV4::new(Ipv4Addr::LOCALHOST, port);
        let index = self.register(addr, Vec::new(), sink);
        Ok(Arc::new(SimSocket { transport: self.clone(), index, addr }))
    }

    fn shutdown(&self) {
        let mut bus = self.bus.lock().expect("sim bus poisoned");
        for channel in &mut bus.channels {
            channel.open = false;
        }
        bus.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn collecting_sink() -> (TransportSink, mpsc::Receiver<Datagram>) {
        let (tx, rx) = mpsc::channel();
        let sink: TransportSink = Arc::new(move |d| {
            let _ = tx.send(d);
        });
        (sink, rx)
    }

    #[test]
    fn sim_delivers_unicast_to_the_bound_port() {
        let bus = SimTransport::new();
        let (sink, rx) = collecting_sink();
        let server = bus.bind(&BindSpec { port: 4427, groups: vec![] }, sink).unwrap();
        let (client_sink, _client_rx) = collecting_sink();
        let client = bus.bind_client(client_sink).unwrap();
        client.send_to(b"hello", server.local_addr()).unwrap();
        let heard = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(heard.payload, b"hello");
        assert_eq!(heard.src, client.local_addr());
        assert!(!heard.is_multicast());
    }

    #[test]
    fn sim_multicast_reaches_joined_channels_only() {
        let bus = SimTransport::new();
        let group = Ipv4Addr::new(239, 255, 255, 250);
        let (joined_sink, joined_rx) = collecting_sink();
        bus.bind(&BindSpec { port: 5900, groups: vec![group] }, joined_sink).unwrap();
        let (lonely_sink, lonely_rx) = collecting_sink();
        bus.bind(&BindSpec { port: 5901, groups: vec![] }, lonely_sink).unwrap();
        let (client_sink, _r) = collecting_sink();
        let client = bus.bind_client(client_sink).unwrap();
        client.send_to(b"NOTIFY", SocketAddrV4::new(group, 5900)).unwrap();
        assert_eq!(joined_rx.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"NOTIFY");
        assert!(lonely_rx.try_recv().is_err(), "unjoined channel hears nothing");
    }

    /// A sink that replies from inside the delivery does not recurse:
    /// the reply is queued and delivered after the current datagram,
    /// preserving FIFO causal order.
    #[test]
    fn sim_reentrant_send_is_fifo_not_recursive() {
        let bus = SimTransport::new();
        let (client_sink, client_rx) = collecting_sink();
        let client = bus.bind_client(client_sink).unwrap();
        let bus2 = bus.clone();
        let replier: Arc<Mutex<Option<Arc<dyn TransportSocket>>>> = Arc::new(Mutex::new(None));
        let replier2 = Arc::clone(&replier);
        let server = bus2
            .bind(
                &BindSpec { port: 6100, groups: vec![] },
                Arc::new(move |d: Datagram| {
                    let socket = replier2.lock().unwrap().as_ref().cloned().unwrap();
                    socket.send_to(b"pong", d.src).unwrap();
                }),
            )
            .unwrap();
        *replier.lock().unwrap() = Some(Arc::clone(&server));
        client.send_to(b"ping", server.local_addr()).unwrap();
        assert_eq!(client_rx.recv_timeout(Duration::from_secs(1)).unwrap().payload, b"pong");
    }

    #[test]
    fn sim_rejects_double_bind_and_closed_sends() {
        let bus = SimTransport::new();
        let (a, _ra) = collecting_sink();
        let (b, _rb) = collecting_sink();
        let spec = BindSpec { port: 6200, groups: vec![] };
        let socket = bus.bind(&spec, a).unwrap();
        assert!(bus.bind(&spec, b).is_err(), "port already bound");
        bus.shutdown();
        assert!(socket.send_to(b"x", SocketAddrV4::new(Ipv4Addr::LOCALHOST, 1)).is_err());
    }

    #[test]
    fn transports_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimTransport>();
        assert_send_sync::<Arc<dyn Transport>>();
        assert_send_sync::<Arc<dyn TransportSocket>>();
    }

    /// A family's table is its contract: the checks walk the generated
    /// name table, so a counter added to the list is covered unnamed.
    #[test]
    fn fault_family_table_is_the_contract() {
        FaultStats::assert_family_contract("indiss_fault");
        FaultCounters::assert_twin_contract();
        let mut stats = FaultStats::default();
        for (i, name) in FaultStats::FIELDS.iter().enumerate() {
            *stats.field_mut(name).unwrap() = 1 << i;
        }
        assert_eq!(stats.total(), (1 << FaultStats::FIELDS.len()) - 1, "total sums every class");
    }

    #[test]
    fn io_family_table_is_the_contract() {
        IoStats::assert_family_contract("indiss_netfront");
        IoCounters::assert_twin_contract();
        // The hand-kept part: the histogram rides along in `io_stats`.
        let counters = IoCounters::default();
        [1, 2, 7, 8, 31, 32, 500].into_iter().for_each(|n| counters.record_recv_batch(n));
        counters.recv_eagain.fetch_add(3, Ordering::Relaxed);
        let stats = counters.io_stats();
        assert_eq!((stats.recv_batch_hist, stats.recv_eagain), ([1, 2, 2, 2], 3));
    }
}
