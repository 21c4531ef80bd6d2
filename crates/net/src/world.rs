//! The simulation world: virtual clock, event queue, nodes and transports.
//!
//! `World` is a cheaply-clonable handle (`Rc` internally); the simulator is
//! deliberately single-threaded and deterministic — identical seeds and
//! identical call sequences produce identical packet timings, which is what
//! lets the benchmark harness report reproducible medians (paper §4.3 runs
//! each measurement 30 times and reports the median).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::{NetError, NetResult};
use crate::latency::LinkConfig;
use crate::meter::{MeterRecord, MeterTransport, TrafficMeter};
use crate::node::{Node, NodeId};
use crate::tcp::{TcpListener, TcpListenerId, TcpStream, TcpStreamId};
use crate::time::SimTime;
use crate::udp::{Datagram, UdpSocket, UdpSocketId};

/// First port handed out by [`Node::udp_bind_ephemeral`] and TCP connects.
const EPHEMERAL_BASE: u16 = 40_000;

type UdpHandler = Box<dyn FnMut(&World, Datagram)>;
type AcceptHandler = Box<dyn FnMut(&World, TcpStream)>;
type RecvHandler = Box<dyn FnMut(&World, Vec<u8>)>;
type CloseHandler = Box<dyn FnMut(&World)>;
type ConnectCallback = Box<dyn FnOnce(&World, NetResult<TcpStream>)>;
type TimerCallback = Box<dyn FnOnce(&World)>;

/// Configuration for a new [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed; fixes all jitter and loss draws.
    pub seed: u64,
    /// Link used between distinct nodes unless overridden per pair.
    pub default_link: LinkConfig,
    /// Link used for same-node (loopback) traffic.
    pub loopback_link: LinkConfig,
}

impl WorldConfig {
    /// Configuration with the given seed and paper-testbed links.
    pub fn with_seed(seed: u64) -> Self {
        WorldConfig {
            seed,
            default_link: LinkConfig::lan_10mbps(),
            loopback_link: LinkConfig::loopback(),
        }
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::with_seed(0)
    }
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest event;
    // ties break by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum Action {
    Timer(TimerCallback),
    UdpDeliver { socket: UdpSocketId, datagram: Datagram },
    TcpSynArrive { client_stream: TcpStreamId, dst: SocketAddrV4 },
    TcpConnectResolve { client_stream: TcpStreamId, result: Result<(), NetError> },
    TcpDeliver { stream: TcpStreamId, bytes: Vec<u8> },
    TcpFinArrive { stream: TcpStreamId },
}

struct NodeData {
    name: String,
    addr: Ipv4Addr,
    up: bool,
    next_ephemeral: u16,
    /// Set once `next_ephemeral` has wrapped: only from then on can it
    /// reach a port an earlier lap handed out and the node still holds.
    ephemeral_wrapped: bool,
}

struct UdpData {
    node: NodeId,
    port: u16,
    /// SO_REUSEADDR-style sharing: multiple shared sockets may bind the
    /// same (node, port); multicast is delivered to every member, unicast
    /// to the earliest-bound socket.
    shared: bool,
    groups: HashSet<Ipv4Addr>,
    handler: Option<Rc<RefCell<UdpHandler>>>,
}

struct ListenerData {
    node: NodeId,
    port: u16,
    handler: Option<Rc<RefCell<AcceptHandler>>>,
}

struct StreamData {
    node: NodeId,
    local: SocketAddrV4,
    peer_addr: SocketAddrV4,
    peer: Option<TcpStreamId>,
    recv: Option<Rc<RefCell<RecvHandler>>>,
    close: Option<Rc<RefCell<CloseHandler>>>,
    connect_cb: Option<ConnectCallback>,
    /// In-order delivery floor for segments arriving at this endpoint.
    next_delivery: SimTime,
    open: bool,
}

struct WorldInner {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    nodes: Vec<NodeData>,
    addr_to_node: HashMap<Ipv4Addr, NodeId>,
    udp: Vec<Option<UdpData>>,
    listeners: Vec<Option<ListenerData>>,
    streams: Vec<Option<StreamData>>,
    default_link: LinkConfig,
    loopback_link: LinkConfig,
    link_overrides: HashMap<(NodeId, NodeId), LinkConfig>,
    rng: SmallRng,
    meter: TrafficMeter,
}

impl WorldInner {
    fn link_for(&self, a: NodeId, b: NodeId) -> LinkConfig {
        if a == b {
            return self.loopback_link;
        }
        self.link_overrides.get(&(a, b)).copied().unwrap_or(self.default_link)
    }

    /// True when `node` holds `port` in `transport`'s port space: a
    /// bound UDP socket, or a TCP listener or open stream.
    fn port_held(&self, node: NodeId, port: u16, transport: MeterTransport) -> bool {
        match transport {
            MeterTransport::Udp => {
                self.udp.iter().flatten().any(|s| s.node == node && s.port == port)
            }
            MeterTransport::Tcp => {
                World::tcp_port_in_use(self, node, port)
                    || self
                        .streams
                        .iter()
                        .flatten()
                        .any(|s| s.node == node && s.open && s.local.port() == port)
            }
        }
    }

    /// The node's next free ephemeral port for `transport`: the node's
    /// cursor counts up, wraps 65535 → 40000, and after a wrap passes
    /// over every port the node still holds, so it never lands on a
    /// long-lived socket. Before the first wrap the check — a scan of
    /// the world's sockets — is skipped: no earlier lap can hold a port
    /// ahead of the cursor. With the whole range held it returns the
    /// cursor's port anyway, and the bind reports [`NetError::AddrInUse`].
    fn alloc_ephemeral(&mut self, node: NodeId, transport: MeterTransport) -> u16 {
        let mut port = 0;
        for _ in EPHEMERAL_BASE..=u16::MAX {
            let nd = &mut self.nodes[node.index() as usize];
            let lapped = nd.ephemeral_wrapped;
            port = nd.next_ephemeral;
            nd.next_ephemeral = port.wrapping_add(1).max(EPHEMERAL_BASE);
            nd.ephemeral_wrapped |= port == u16::MAX;
            if !lapped || !self.port_held(node, port, transport) {
                break;
            }
        }
        port
    }

    fn push(&mut self, at: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, action });
    }

    fn meter_packet(
        &mut self,
        transport: MeterTransport,
        src: SocketAddrV4,
        dst: SocketAddrV4,
        len: usize,
        multicast: bool,
        at: SimTime,
    ) {
        self.meter.record(MeterRecord { at, transport, src, dst, len, multicast });
    }
}

/// Handle to a simulation world. Cloning is cheap and refers to the same
/// world.
///
/// # Examples
///
/// ```
/// use indiss_net::World;
/// use std::time::Duration;
///
/// let world = World::new(7);
/// let fired = indiss_net::Completion::new();
/// let fired2 = fired.clone();
/// world.schedule_in(Duration::from_millis(5), move |w| {
///     assert_eq!(w.now().as_millis(), 5);
///     fired2.complete(());
/// });
/// world.run_until_idle();
/// assert!(fired.is_complete());
/// ```
#[derive(Clone)]
pub struct World {
    inner: Rc<RefCell<WorldInner>>,
}

impl World {
    /// Creates a world with the paper-calibrated LAN links and this seed.
    pub fn new(seed: u64) -> Self {
        World::with_config(WorldConfig::with_seed(seed))
    }

    /// Creates a world from an explicit configuration.
    pub fn with_config(config: WorldConfig) -> Self {
        World {
            inner: Rc::new(RefCell::new(WorldInner {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                nodes: Vec::new(),
                addr_to_node: HashMap::new(),
                udp: Vec::new(),
                listeners: Vec::new(),
                streams: Vec::new(),
                default_link: config.default_link,
                loopback_link: config.loopback_link,
                link_overrides: HashMap::new(),
                rng: SmallRng::seed_from_u64(config.seed),
                meter: TrafficMeter::new(),
            })),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Adds a host named `name` with the next free `10.0.0.x` address.
    pub fn add_node(&self, name: &str) -> Node {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.nodes.len() as u32;
        let addr = Ipv4Addr::new(10, 0, 0, (idx + 1).min(254) as u8 + ((idx / 254) as u8));
        // For worlds larger than 254 nodes spread across 10.0.x.y.
        let addr = if idx < 254 {
            addr
        } else {
            Ipv4Addr::new(10, 0, (idx / 254) as u8, (idx % 254 + 1) as u8)
        };
        let id = NodeId::new(idx);
        inner.nodes.push(NodeData {
            name: name.to_owned(),
            addr,
            up: true,
            next_ephemeral: EPHEMERAL_BASE,
            ephemeral_wrapped: false,
        });
        inner.addr_to_node.insert(addr, id);
        drop(inner);
        Node::from_parts(self.clone(), id)
    }

    /// Returns a handle to an existing node.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if no node has this id.
    pub fn node(&self, id: NodeId) -> NetResult<Node> {
        if (id.index() as usize) < self.inner.borrow().nodes.len() {
            Ok(Node::from_parts(self.clone(), id))
        } else {
            Err(NetError::UnknownNode { node: id })
        }
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Sets a symmetric link configuration between two nodes.
    pub fn set_link(&self, a: NodeId, b: NodeId, link: LinkConfig) {
        let mut inner = self.inner.borrow_mut();
        inner.link_overrides.insert((a, b), link);
        inner.link_overrides.insert((b, a), link);
    }

    /// Replaces the default inter-node link.
    pub fn set_default_link(&self, link: LinkConfig) {
        self.inner.borrow_mut().default_link = link;
    }

    /// Schedules `f` to run after `delay` of virtual time.
    pub fn schedule_in<F>(&self, delay: Duration, f: F)
    where
        F: FnOnce(&World) + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        let at = inner.now + delay;
        inner.push(at, Action::Timer(Box::new(f)));
    }

    /// Schedules `f` at an absolute virtual time (clamped to now if past).
    pub fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&World) + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        inner.push(at, Action::Timer(Box::new(f)));
    }

    /// Draws a uniformly random duration in `[0, max]` from the world RNG
    /// (for protocol jitter such as SSDP's MX back-off).
    pub fn sample_jitter(&self, max: Duration) -> Duration {
        if max.is_zero() {
            return Duration::ZERO;
        }
        let mut inner = self.inner.borrow_mut();
        let nanos = inner.rng.random_range(0..=crate::time::duration_to_nanos(max));
        Duration::from_nanos(nanos)
    }

    /// Draws a random `u64` from the world RNG.
    pub fn random_u64(&self) -> u64 {
        self.inner.borrow_mut().rng.random()
    }

    /// Executes the next scheduled event, if any; returns whether one ran.
    pub fn step(&self) -> bool {
        let (action, world) = {
            let mut inner = self.inner.borrow_mut();
            match inner.queue.pop() {
                Some(ev) => {
                    debug_assert!(ev.at >= inner.now, "time went backwards");
                    inner.now = ev.at;
                    (ev.action, self.clone())
                }
                None => return false,
            }
        };
        self.dispatch(action, &world);
        true
    }

    /// Runs until no events remain; returns the number executed.
    ///
    /// Prefer [`World::run_for`] in scenarios with periodic timers (e.g.
    /// recurring SSDP announcements), which never drain.
    pub fn run_until_idle(&self) -> usize {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Runs events until virtual time would exceed `deadline`; the clock is
    /// left at `deadline` (or at the last event if the queue drained).
    pub fn run_until(&self, deadline: SimTime) -> usize {
        let mut n = 0;
        loop {
            let next_at = self.inner.borrow().queue.peek().map(|e| e.at);
            match next_at {
                Some(at) if at <= deadline => {
                    self.step();
                    n += 1;
                }
                _ => break,
            }
        }
        let mut inner = self.inner.borrow_mut();
        if inner.now < deadline {
            inner.now = deadline;
        }
        n
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&self, d: Duration) -> usize {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// Runs until `pred` returns true or the queue drains; returns whether
    /// the predicate was satisfied.
    pub fn run_until_condition<F: FnMut() -> bool>(&self, mut pred: F) -> bool {
        loop {
            if pred() {
                return true;
            }
            if !self.step() {
                return pred();
            }
        }
    }

    /// Snapshot of the traffic meter.
    pub fn meter_snapshot(&self) -> TrafficMeter {
        self.inner.borrow().meter.clone()
    }

    /// Clears the traffic meter.
    pub fn meter_reset(&self) {
        self.inner.borrow_mut().meter.reset();
    }

    // ------------------------------------------------------------------
    // Node plumbing (called by `Node` handles)
    // ------------------------------------------------------------------

    pub(crate) fn node_addr(&self, id: NodeId) -> Ipv4Addr {
        self.inner.borrow().nodes[id.index() as usize].addr
    }

    pub(crate) fn node_name(&self, id: NodeId) -> String {
        self.inner.borrow().nodes[id.index() as usize].name.clone()
    }

    pub(crate) fn node_is_up(&self, id: NodeId) -> bool {
        self.inner.borrow().nodes[id.index() as usize].up
    }

    pub(crate) fn set_node_up(&self, id: NodeId, up: bool) {
        self.inner.borrow_mut().nodes[id.index() as usize].up = up;
    }

    pub(crate) fn alloc_ephemeral_port(&self, id: NodeId) -> u16 {
        self.inner.borrow_mut().alloc_ephemeral(id, MeterTransport::Udp)
    }

    fn tcp_port_in_use(inner: &WorldInner, node: NodeId, port: u16) -> bool {
        inner.listeners.iter().flatten().any(|l| l.node == node && l.port == port)
    }

    // ------------------------------------------------------------------
    // UDP plumbing
    // ------------------------------------------------------------------

    pub(crate) fn udp_bind(&self, node: NodeId, port: u16) -> NetResult<UdpSocket> {
        self.udp_bind_inner(node, port, false)
    }

    pub(crate) fn udp_bind_shared(&self, node: NodeId, port: u16) -> NetResult<UdpSocket> {
        self.udp_bind_inner(node, port, true)
    }

    fn udp_bind_inner(&self, node: NodeId, port: u16, shared: bool) -> NetResult<UdpSocket> {
        if port == 0 {
            return Err(NetError::InvalidPort);
        }
        let mut inner = self.inner.borrow_mut();
        // A shared bind coexists with other shared binds on the same port
        // (SO_REUSEADDR); any exclusive bind conflicts.
        // UDP and TCP port namespaces are independent, as on a real host.
        let conflict = inner
            .udp
            .iter()
            .flatten()
            .any(|s| s.node == node && s.port == port && !(shared && s.shared));
        if conflict {
            return Err(NetError::AddrInUse { node, port });
        }
        let id = UdpSocketId(inner.udp.len());
        inner.udp.push(Some(UdpData { node, port, shared, groups: HashSet::new(), handler: None }));
        drop(inner);
        Ok(UdpSocket::from_parts(self.clone(), id))
    }

    pub(crate) fn udp_local_addr(&self, id: UdpSocketId) -> NetResult<SocketAddrV4> {
        let inner = self.inner.borrow();
        let data = inner.udp.get(id.0).and_then(Option::as_ref).ok_or(NetError::SocketClosed)?;
        Ok(SocketAddrV4::new(inner.nodes[data.node.index() as usize].addr, data.port))
    }

    pub(crate) fn udp_join(&self, id: UdpSocketId, group: Ipv4Addr) -> NetResult<()> {
        if !group.is_multicast() {
            return Err(NetError::NotMulticast { addr: group });
        }
        let mut inner = self.inner.borrow_mut();
        let data =
            inner.udp.get_mut(id.0).and_then(Option::as_mut).ok_or(NetError::SocketClosed)?;
        data.groups.insert(group);
        Ok(())
    }

    pub(crate) fn udp_leave(&self, id: UdpSocketId, group: Ipv4Addr) -> NetResult<()> {
        if !group.is_multicast() {
            return Err(NetError::NotMulticast { addr: group });
        }
        let mut inner = self.inner.borrow_mut();
        let data =
            inner.udp.get_mut(id.0).and_then(Option::as_mut).ok_or(NetError::SocketClosed)?;
        data.groups.remove(&group);
        Ok(())
    }

    pub(crate) fn udp_set_handler(&self, id: UdpSocketId, handler: UdpHandler) {
        let mut inner = self.inner.borrow_mut();
        if let Some(data) = inner.udp.get_mut(id.0).and_then(Option::as_mut) {
            data.handler = Some(Rc::new(RefCell::new(handler)));
        }
    }

    pub(crate) fn udp_close(&self, id: UdpSocketId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(slot) = inner.udp.get_mut(id.0) {
            *slot = None;
        }
    }

    pub(crate) fn udp_send_to(
        &self,
        id: UdpSocketId,
        payload: &[u8],
        dst: SocketAddrV4,
    ) -> NetResult<()> {
        let mut inner = self.inner.borrow_mut();
        let data = inner.udp.get(id.0).and_then(Option::as_ref).ok_or(NetError::SocketClosed)?;
        let src_node = data.node;
        let src_port = data.port;
        let src_addr = SocketAddrV4::new(inner.nodes[src_node.index() as usize].addr, src_port);
        if !inner.nodes[src_node.index() as usize].up {
            return Err(NetError::NodeDown { node: src_node });
        }

        if dst.ip().is_multicast() {
            // Collect members: any open socket on dst.port that joined the
            // group, on an up node, except the sending socket itself.
            let members: Vec<(UdpSocketId, NodeId)> = inner
                .udp
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|s| (UdpSocketId(i), s)))
                .filter(|(sid, s)| {
                    *sid != id
                        && s.port == dst.port()
                        && s.groups.contains(dst.ip())
                        && inner.nodes[s.node.index() as usize].up
                })
                .map(|(sid, s)| (sid, s.node))
                .collect();

            let now = inner.now;
            // One packet on the wire regardless of member count; meter it
            // once if it crosses the network at all.
            if members.iter().any(|(_, n)| *n != src_node) {
                inner.meter_packet(MeterTransport::Udp, src_addr, dst, payload.len(), true, now);
            }
            for (sid, member_node) in members {
                let link = inner.link_for(src_node, member_node);
                if link.sample_loss(&mut inner.rng) {
                    continue;
                }
                let delay = link.sample_delay(payload.len(), &mut inner.rng);
                let at = now + delay;
                inner.push(
                    at,
                    Action::UdpDeliver {
                        socket: sid,
                        datagram: Datagram { src: src_addr, dst, payload: payload.to_vec() },
                    },
                );
            }
            return Ok(());
        }

        // Unicast.
        let Some(&dst_node) = inner.addr_to_node.get(dst.ip()) else {
            return Ok(()); // UDP is fire-and-forget: unreachable hosts drop silently.
        };
        if !inner.nodes[dst_node.index() as usize].up {
            return Ok(());
        }
        // All sockets on the destination port. With SO_REUSEADDR-style
        // shared binds there may be several (e.g. a native stack and a
        // co-located INDISS monitor); the simulator delivers to each, so
        // a passive monitor sees unicast traffic without stealing it —
        // which is what the paper's §2.1 "listen to all their respective
        // ports" requires.
        let targets: Vec<UdpSocketId> = inner
            .udp
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (UdpSocketId(i), s)))
            .filter(|(sid, s)| *sid != id && s.node == dst_node && s.port == dst.port())
            .map(|(sid, _)| sid)
            .collect();
        if targets.is_empty() {
            return Ok(());
        }
        let link = inner.link_for(src_node, dst_node);
        if link.sample_loss(&mut inner.rng) {
            return Ok(());
        }
        let now = inner.now;
        if dst_node != src_node {
            inner.meter_packet(MeterTransport::Udp, src_addr, dst, payload.len(), false, now);
        }
        let delay = link.sample_delay(payload.len(), &mut inner.rng);
        let at = now + delay;
        for target in targets {
            inner.push(
                at,
                Action::UdpDeliver {
                    socket: target,
                    datagram: Datagram { src: src_addr, dst, payload: payload.to_vec() },
                },
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // TCP plumbing
    // ------------------------------------------------------------------

    pub(crate) fn tcp_listen(&self, node: NodeId, port: u16) -> NetResult<TcpListener> {
        if port == 0 {
            return Err(NetError::InvalidPort);
        }
        let mut inner = self.inner.borrow_mut();
        if Self::tcp_port_in_use(&inner, node, port) {
            return Err(NetError::AddrInUse { node, port });
        }
        let id = TcpListenerId(inner.listeners.len());
        inner.listeners.push(Some(ListenerData { node, port, handler: None }));
        drop(inner);
        Ok(TcpListener::from_parts(self.clone(), id))
    }

    pub(crate) fn tcp_listener_addr(&self, id: TcpListenerId) -> NetResult<SocketAddrV4> {
        let inner = self.inner.borrow();
        let data =
            inner.listeners.get(id.0).and_then(Option::as_ref).ok_or(NetError::SocketClosed)?;
        Ok(SocketAddrV4::new(inner.nodes[data.node.index() as usize].addr, data.port))
    }

    pub(crate) fn tcp_set_accept_handler(&self, id: TcpListenerId, handler: AcceptHandler) {
        let mut inner = self.inner.borrow_mut();
        if let Some(data) = inner.listeners.get_mut(id.0).and_then(Option::as_mut) {
            data.handler = Some(Rc::new(RefCell::new(handler)));
        }
    }

    pub(crate) fn tcp_listener_close(&self, id: TcpListenerId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(slot) = inner.listeners.get_mut(id.0) {
            *slot = None;
        }
    }

    pub(crate) fn tcp_connect(&self, node: NodeId, remote: SocketAddrV4, cb: ConnectCallback) {
        let mut inner = self.inner.borrow_mut();
        let local_port = inner.alloc_ephemeral(node, MeterTransport::Tcp);
        let local = SocketAddrV4::new(inner.nodes[node.index() as usize].addr, local_port);
        let id = TcpStreamId(inner.streams.len());
        inner.streams.push(Some(StreamData {
            node,
            local,
            peer_addr: remote,
            peer: None,
            recv: None,
            close: None,
            connect_cb: Some(cb),
            next_delivery: SimTime::ZERO,
            open: true,
        }));
        // Send the SYN: resolve the destination when it arrives.
        let dst_node = inner.addr_to_node.get(remote.ip()).copied();
        let now = inner.now;
        match dst_node {
            Some(dn) => {
                let link = inner.link_for(node, dn);
                let delay = link.sample_delay(40, &mut inner.rng);
                inner.push(now + delay, Action::TcpSynArrive { client_stream: id, dst: remote });
            }
            None => {
                // No such host: fail after one timeout-ish delay.
                let delay = inner.default_link.transfer_delay(40);
                inner.push(
                    now + delay,
                    Action::TcpConnectResolve {
                        client_stream: id,
                        result: Err(NetError::HostUnreachable { addr: remote }),
                    },
                );
            }
        }
    }

    pub(crate) fn tcp_stream_local(&self, id: TcpStreamId) -> NetResult<SocketAddrV4> {
        let inner = self.inner.borrow();
        let d = inner
            .streams
            .get(id.0)
            .and_then(Option::as_ref)
            .filter(|d| d.open)
            .ok_or(NetError::ConnectionClosed)?;
        Ok(d.local)
    }

    pub(crate) fn tcp_stream_peer(&self, id: TcpStreamId) -> NetResult<SocketAddrV4> {
        let inner = self.inner.borrow();
        let d = inner
            .streams
            .get(id.0)
            .and_then(Option::as_ref)
            .filter(|d| d.open)
            .ok_or(NetError::ConnectionClosed)?;
        Ok(d.peer_addr)
    }

    pub(crate) fn tcp_set_recv_handler(&self, id: TcpStreamId, handler: RecvHandler) {
        let mut inner = self.inner.borrow_mut();
        if let Some(d) = inner.streams.get_mut(id.0).and_then(Option::as_mut) {
            d.recv = Some(Rc::new(RefCell::new(handler)));
        }
    }

    pub(crate) fn tcp_set_close_handler(&self, id: TcpStreamId, handler: CloseHandler) {
        let mut inner = self.inner.borrow_mut();
        if let Some(d) = inner.streams.get_mut(id.0).and_then(Option::as_mut) {
            d.close = Some(Rc::new(RefCell::new(handler)));
        }
    }

    pub(crate) fn tcp_send(&self, id: TcpStreamId, bytes: &[u8]) -> NetResult<()> {
        let mut inner = self.inner.borrow_mut();
        let d = inner
            .streams
            .get(id.0)
            .and_then(Option::as_ref)
            .filter(|d| d.open)
            .ok_or(NetError::ConnectionClosed)?;
        let peer = d.peer.ok_or(NetError::ConnectionClosed)?;
        let (src_node, src_addr, dst_addr) = (d.node, d.local, d.peer_addr);
        let peer_node = inner
            .streams
            .get(peer.0)
            .and_then(Option::as_ref)
            .filter(|p| p.open)
            .ok_or(NetError::ConnectionClosed)?
            .node;
        if !inner.nodes[src_node.index() as usize].up {
            return Err(NetError::NodeDown { node: src_node });
        }
        if !inner.nodes[peer_node.index() as usize].up {
            return Err(NetError::NodeDown { node: peer_node });
        }
        let link = inner.link_for(src_node, peer_node);
        let now = inner.now;
        if peer_node != src_node {
            inner.meter_packet(MeterTransport::Tcp, src_addr, dst_addr, bytes.len(), false, now);
        }
        let delay = link.sample_delay(bytes.len(), &mut inner.rng);
        let mut at = now + delay;
        // Enforce in-order delivery at the peer.
        if let Some(p) = inner.streams.get_mut(peer.0).and_then(Option::as_mut) {
            if at < p.next_delivery {
                at = p.next_delivery;
            }
            p.next_delivery = at;
        }
        inner.push(at, Action::TcpDeliver { stream: peer, bytes: bytes.to_vec() });
        Ok(())
    }

    pub(crate) fn tcp_close(&self, id: TcpStreamId) {
        let mut inner = self.inner.borrow_mut();
        let Some(d) = inner.streams.get_mut(id.0).and_then(Option::as_mut) else {
            return;
        };
        if !d.open {
            return;
        }
        d.open = false;
        let peer = d.peer;
        let node = d.node;
        if let Some(peer) = peer {
            let peer_node = inner.streams.get(peer.0).and_then(Option::as_ref).map(|p| p.node);
            if let Some(pn) = peer_node {
                let link = inner.link_for(node, pn);
                let delay = link.sample_delay(40, &mut inner.rng);
                let mut at = inner.now + delay;
                // The FIN must not overtake in-flight data segments.
                if let Some(p) = inner.streams.get_mut(peer.0).and_then(Option::as_mut) {
                    if at < p.next_delivery {
                        at = p.next_delivery;
                    }
                    p.next_delivery = at;
                }
                inner.push(at, Action::TcpFinArrive { stream: peer });
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch(&self, action: Action, world: &World) {
        match action {
            Action::Timer(f) => f(world),
            Action::UdpDeliver { socket, datagram } => {
                let handler = {
                    let inner = self.inner.borrow();
                    inner.udp.get(socket.0).and_then(Option::as_ref).and_then(|s| {
                        if inner.nodes[s.node.index() as usize].up {
                            s.handler.clone()
                        } else {
                            None
                        }
                    })
                };
                if let Some(h) = handler {
                    (h.borrow_mut())(world, datagram);
                }
            }
            Action::TcpSynArrive { client_stream, dst } => {
                self.handle_syn(client_stream, dst, world);
            }
            Action::TcpConnectResolve { client_stream, result } => {
                let cb = {
                    let mut inner = self.inner.borrow_mut();
                    match inner.streams.get_mut(client_stream.0).and_then(Option::as_mut) {
                        Some(d) => {
                            if result.is_err() {
                                d.open = false;
                            }
                            d.connect_cb.take()
                        }
                        None => None,
                    }
                };
                if let Some(cb) = cb {
                    let outcome =
                        result.map(|()| TcpStream::from_parts(self.clone(), client_stream));
                    cb(world, outcome);
                }
            }
            Action::TcpDeliver { stream, bytes } => {
                let handler = {
                    let inner = self.inner.borrow();
                    inner
                        .streams
                        .get(stream.0)
                        .and_then(Option::as_ref)
                        .filter(|d| d.open && inner.nodes[d.node.index() as usize].up)
                        .and_then(|d| d.recv.clone())
                };
                if let Some(h) = handler {
                    (h.borrow_mut())(world, bytes);
                }
            }
            Action::TcpFinArrive { stream } => {
                let handler = {
                    let mut inner = self.inner.borrow_mut();
                    match inner.streams.get_mut(stream.0).and_then(Option::as_mut) {
                        Some(d) if d.open => {
                            d.open = false;
                            d.close.clone()
                        }
                        _ => None,
                    }
                };
                if let Some(h) = handler {
                    (h.borrow_mut())(world);
                }
            }
        }
    }

    fn handle_syn(&self, client_stream: TcpStreamId, dst: SocketAddrV4, world: &World) {
        let (result, accept) = {
            let mut inner = self.inner.borrow_mut();
            let client_node = match inner.streams.get(client_stream.0).and_then(Option::as_ref) {
                Some(d) => d.node,
                None => return, // client vanished
            };
            let client_local =
                inner.streams[client_stream.0].as_ref().expect("checked above").local;
            let dst_node = inner.addr_to_node.get(dst.ip()).copied();
            let listener = dst_node.and_then(|dn| {
                if !inner.nodes[dn.index() as usize].up {
                    return None;
                }
                inner
                    .listeners
                    .iter()
                    .flatten()
                    .find(|l| l.node == dn && l.port == dst.port())
                    .map(|l| (dn, l.handler.clone()))
            });
            match listener {
                Some((dn, handler)) => {
                    // Create the server endpoint, link the pair.
                    let server_id = TcpStreamId(inner.streams.len());
                    inner.streams.push(Some(StreamData {
                        node: dn,
                        local: dst,
                        peer_addr: client_local,
                        peer: Some(client_stream),
                        recv: None,
                        close: None,
                        connect_cb: None,
                        next_delivery: SimTime::ZERO,
                        open: true,
                    }));
                    if let Some(c) = inner.streams.get_mut(client_stream.0).and_then(Option::as_mut)
                    {
                        c.peer = Some(server_id);
                    }
                    // SYN-ACK travels back: resolve the client connect then.
                    let link = inner.link_for(dn, client_node);
                    let delay = link.sample_delay(40, &mut inner.rng);
                    let at = inner.now + delay;
                    inner.push(at, Action::TcpConnectResolve { client_stream, result: Ok(()) });
                    (Ok(server_id), handler)
                }
                None => {
                    let client_node_link = dst_node
                        .map(|dn| inner.link_for(dn, client_node))
                        .unwrap_or(inner.default_link);
                    let delay = client_node_link.transfer_delay(40);
                    let at = inner.now + delay;
                    inner.push(
                        at,
                        Action::TcpConnectResolve {
                            client_stream,
                            result: Err(NetError::ConnectionRefused { addr: dst }),
                        },
                    );
                    (Err(()), None)
                }
            }
        };
        if let (Ok(server_id), Some(handler)) = (result, accept) {
            let stream = TcpStream::from_parts(self.clone(), server_id);
            (handler.borrow_mut())(world, stream);
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("World")
            .field("now", &inner.now)
            .field("nodes", &inner.nodes.len())
            .field("pending_events", &inner.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Completion};

    /// Past a wrap, the ephemeral cursor passes over a port the node
    /// still holds instead of handing it out again.
    #[test]
    fn ephemeral_ports_skip_held_ports_after_a_wrap() {
        let world = World::new(0);
        let node = world.add_node("a");
        let held = node.udp_bind_ephemeral().unwrap();
        let held_port = held.local_addr().unwrap().port();
        world.inner.borrow_mut().nodes[node.id().index() as usize].next_ephemeral = u16::MAX;
        let _last = node.udp_bind_ephemeral().unwrap();
        let wrapped = node.udp_bind_ephemeral().expect("the wrap skips the held port");
        assert_ne!(wrapped.local_addr().unwrap().port(), held_port);
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let world = World::new(0);
        let order: Collector<u32> = Collector::new();
        for (delay_ms, tag) in [(5u64, 2u32), (1, 1), (5, 3)] {
            let order = order.clone();
            world.schedule_in(Duration::from_millis(delay_ms), move |_| order.push(tag));
        }
        world.run_until_idle();
        assert_eq!(order.snapshot(), vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_to_event_times() {
        let world = World::new(0);
        let seen: Completion<SimTime> = Completion::new();
        let seen2 = seen.clone();
        world.schedule_in(Duration::from_millis(7), move |w| seen2.complete(w.now()));
        world.run_until_idle();
        assert_eq!(seen.take(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn run_until_respects_deadline() {
        let world = World::new(0);
        let fired: Completion<()> = Completion::new();
        let fired2 = fired.clone();
        world.schedule_in(Duration::from_millis(10), move |_| fired2.complete(()));
        world.run_until(SimTime::from_millis(5));
        assert!(!fired.is_complete());
        assert_eq!(world.now(), SimTime::from_millis(5));
        world.run_until(SimTime::from_millis(20));
        assert!(fired.is_complete());
    }

    #[test]
    fn run_for_advances_clock_even_when_idle() {
        let world = World::new(0);
        world.run_for(Duration::from_millis(3));
        assert_eq!(world.now(), SimTime::from_millis(3));
    }

    #[test]
    fn nested_scheduling_works() {
        let world = World::new(0);
        let order: Collector<&'static str> = Collector::new();
        let order2 = order.clone();
        world.schedule_in(Duration::from_millis(1), move |w| {
            order2.push("outer");
            let order3 = order2.clone();
            w.schedule_in(Duration::from_millis(1), move |_| order3.push("inner"));
        });
        world.run_until_idle();
        assert_eq!(order.snapshot(), vec!["outer", "inner"]);
    }

    #[test]
    fn identical_seeds_give_identical_timings() {
        fn run(seed: u64) -> SimTime {
            let world = World::new(seed);
            let a = world.add_node("a");
            let b = world.add_node("b");
            let sa = a.udp_bind(1000).unwrap();
            let sb = b.udp_bind(1000).unwrap();
            let at: Completion<SimTime> = Completion::new();
            let at2 = at.clone();
            sb.on_receive(move |w, _| at2.complete(w.now()));
            sa.send_to(&[0u8; 100], SocketAddrV4::new(b.addr(), 1000)).unwrap();
            world.run_until_idle();
            at.take().unwrap()
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds give different jitter");
    }

    #[test]
    fn meter_counts_cross_node_but_not_loopback() {
        let world = World::new(0);
        let a = world.add_node("a");
        let b = world.add_node("b");
        let s1 = a.udp_bind(1000).unwrap();
        let _s2 = a.udp_bind(2000).unwrap();
        let _s3 = b.udp_bind(3000).unwrap();
        // loopback: a -> a
        s1.send_to(&[0u8; 10], SocketAddrV4::new(a.addr(), 2000)).unwrap();
        // cross: a -> b
        s1.send_to(&[0u8; 20], SocketAddrV4::new(b.addr(), 3000)).unwrap();
        world.run_until_idle();
        let m = world.meter_snapshot();
        assert_eq!(m.packet_count(), 1, "only the cross-node packet is metered");
        assert_eq!(m.total_bytes(), 20);
    }

    #[test]
    fn lossy_link_drops_packets() {
        let mut cfg = WorldConfig::with_seed(0);
        cfg.default_link = LinkConfig::lan_10mbps().with_loss(1.0);
        let world = World::with_config(cfg);
        let a = world.add_node("a");
        let b = world.add_node("b");
        let sa = a.udp_bind(1000).unwrap();
        let sb = b.udp_bind(1000).unwrap();
        let got: Completion<()> = Completion::new();
        let got2 = got.clone();
        sb.on_receive(move |_, _| got2.complete(()));
        sa.send_to(b"x", SocketAddrV4::new(b.addr(), 1000)).unwrap();
        world.run_until_idle();
        assert!(!got.is_complete());
    }

    #[test]
    fn run_until_condition_stops_early() {
        let world = World::new(0);
        let count: Collector<u32> = Collector::new();
        for i in 0..10 {
            let count = count.clone();
            world.schedule_in(Duration::from_millis(i), move |_| count.push(i as u32));
        }
        let count2 = count.clone();
        let satisfied = world.run_until_condition(move || count2.len() >= 3);
        assert!(satisfied);
        assert_eq!(count.len(), 3);
    }
}
