//! `BatchedTransport`: the real-socket transport — what
//! [`TransportKind::Udp`] means.
//!
//! Loopback-confined by default, with every protocol port shifted by a
//! configurable offset (see the [`crate::transport`] module docs).
//! Every channel registers its nonblocking socket with a single
//! [`crate::reactor`] thread that drains readiness in `recvmmsg`
//! batches, and replies flush through `sendmmsg`
//! ([`TransportSocket::send_batch`]). On non-Linux targets, or when the
//! `epoll` feature is disabled, the same type degrades to a portable
//! one-at-a-time fallback — a blocking recv thread per channel, the
//! crate's only thread-per-channel path — delivering singleton batches
//! and counting them into the same [`IoStats`], so callers observe one
//! behavior contract on every platform.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{NetError, NetResult};
use crate::transport::{
    BindSpec, IoCounters, IoStats, Transport, TransportBatchSink, TransportKind, TransportSocket,
};

#[cfg(all(target_os = "linux", feature = "epoll"))]
use crate::reactor::Reactor;
#[cfg(all(target_os = "linux", feature = "epoll"))]
use crate::sys;

/// Largest datagram a channel accepts, on either engine: SDP discovery
/// messages are far below an Ethernet MTU, but descriptor payloads can
/// approach it. Longer ones are dropped and counted
/// ([`IoStats::recv_truncated`]), never delivered clipped.
pub(crate) const RECV_BUF: usize = 2048;

/// Most datagrams one `recvmmsg` takes, and most replies one `sendmmsg` stages.
pub const RECV_BATCH: usize = 64;

/// How long a fallback recv thread blocks per `recv_from` before
/// re-checking the shutdown flag.
#[cfg(not(all(target_os = "linux", feature = "epoll")))]
const RECV_POLL: std::time::Duration = std::time::Duration::from_millis(25);

struct BatchedShared {
    /// Shared with the reactor (or every fallback recv thread) so
    /// dropping the last transport handle stops them even without an
    /// explicit `shutdown()` call.
    stop: Arc<AtomicBool>,
    counters: Arc<IoCounters>,
    #[cfg(all(target_os = "linux", feature = "epoll"))]
    reactor: Mutex<Option<Reactor>>,
    #[cfg(not(all(target_os = "linux", feature = "epoll")))]
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for BatchedShared {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // On the reactor path a full shutdown is safe here (the reactor
        // thread holds no Arc to this block) and prompt: the wake
        // eventfd kicks `epoll_wait` instead of waiting out its
        // timeout. Fallback recv threads only watch the flag.
        #[cfg(all(target_os = "linux", feature = "epoll"))]
        if let Ok(mut guard) = self.reactor.lock() {
            if let Some(reactor) = guard.take() {
                reactor.shutdown();
            }
        }
    }
}

/// The batched real-socket transport. See the module docs.
#[derive(Clone)]
pub struct BatchedTransport {
    bind_ip: Ipv4Addr,
    port_offset: u16,
    shared: Arc<BatchedShared>,
}

impl BatchedTransport {
    /// A loopback-confined batched transport with no port offset.
    pub fn loopback() -> BatchedTransport {
        BatchedTransport::with_offset(0)
    }

    /// A loopback-confined batched transport whose protocol ports are
    /// shifted by `offset` — lets unprivileged CI bind SLP
    /// (427 → 427+offset) and lets parallel tests avoid colliding on
    /// one port space.
    pub fn with_offset(offset: u16) -> BatchedTransport {
        BatchedTransport::new(Ipv4Addr::LOCALHOST, offset)
    }

    /// A batched transport bound to `bind_ip` with protocol ports
    /// shifted by `offset`. Binding a non-loopback interface takes the
    /// gateway onto the LAN — the deployment mode, not the CI mode.
    pub fn new(bind_ip: Ipv4Addr, offset: u16) -> BatchedTransport {
        BatchedTransport {
            bind_ip,
            port_offset: offset,
            shared: Arc::new(BatchedShared {
                stop: Arc::new(AtomicBool::new(false)),
                counters: Arc::new(IoCounters::default()),
                #[cfg(all(target_os = "linux", feature = "epoll"))]
                reactor: Mutex::new(None),
                #[cfg(not(all(target_os = "linux", feature = "epoll")))]
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Binds the std socket and joins groups. Joins are best-effort: a
    /// loopback-confined runner commonly refuses them, and unicast
    /// loopback is still a full test of the datagram path.
    fn bind_std(
        &self,
        port: u16,
        groups: &[Ipv4Addr],
    ) -> NetResult<(Arc<std::net::UdpSocket>, SocketAddrV4, bool)> {
        let io_err =
            |op: &'static str| move |e: std::io::Error| NetError::Io { op, message: e.to_string() };
        let socket = std::net::UdpSocket::bind((self.bind_ip, port)).map_err(io_err("bind"))?;
        let local = match socket.local_addr().map_err(io_err("local_addr"))? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(a) => SocketAddrV4::new(Ipv4Addr::LOCALHOST, a.port()),
        };
        let mut joined_all = true;
        for group in groups {
            if socket.join_multicast_v4(group, &self.bind_ip).is_err() {
                joined_all = false;
            }
        }
        Ok((Arc::new(socket), local, joined_all))
    }

    #[cfg(all(target_os = "linux", feature = "epoll"))]
    fn attach(
        &self,
        socket: Arc<std::net::UdpSocket>,
        local: SocketAddrV4,
        sink: TransportBatchSink,
        _label: &str,
    ) -> NetResult<()> {
        let io_err =
            |op: &'static str| move |e: std::io::Error| NetError::Io { op, message: e.to_string() };
        let mut guard = self.shared.reactor.lock().expect("reactor slot poisoned");
        // Checked under the slot lock `shutdown()` takes the reactor
        // through: a reactor spawned after it would exit on its first
        // stop check and leave this channel bound but deaf.
        if self.shared.stop.load(Ordering::Relaxed) {
            return Err(NetError::SocketClosed);
        }
        if guard.is_none() {
            *guard = Some(
                Reactor::spawn(Arc::clone(&self.shared.stop), Arc::clone(&self.shared.counters))
                    .map_err(io_err("reactor"))?,
            );
        }
        guard
            .as_ref()
            .expect("reactor just spawned")
            .register(socket, local, sink)
            .map_err(io_err("register"))
    }

    /// Portable fallback: one blocking recv thread per channel
    /// delivering singleton batches and counting them into the shared
    /// [`IoCounters`].
    #[cfg(not(all(target_os = "linux", feature = "epoll")))]
    fn attach(
        &self,
        socket: Arc<std::net::UdpSocket>,
        local: SocketAddrV4,
        sink: TransportBatchSink,
        label: &str,
    ) -> NetResult<()> {
        let io_err =
            |op: &'static str| move |e: std::io::Error| NetError::Io { op, message: e.to_string() };
        socket.set_read_timeout(Some(RECV_POLL)).map_err(io_err("set_read_timeout"))?;
        let mut threads = self.shared.threads.lock().expect("batched thread list poisoned");
        // Checked under the list lock `shutdown()` drains the threads
        // through: a thread spawned after it would exit on its first
        // stop check and leave this channel bound but deaf.
        if self.shared.stop.load(Ordering::Relaxed) {
            return Err(NetError::SocketClosed);
        }
        let stop = Arc::clone(&self.shared.stop);
        let counters = Arc::clone(&self.shared.counters);
        let handle = std::thread::Builder::new()
            .name(format!("indiss-batched-{label}"))
            .spawn(move || {
                // One byte over the limit: `recv_from` clips silently, so
                // a read that fills the spare byte was a longer datagram.
                let mut buf = vec![0u8; RECV_BUF + 1];
                while !stop.load(Ordering::Relaxed) {
                    match socket.recv_from(&mut buf) {
                        Ok((len, SocketAddr::V4(src))) => {
                            counters.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
                            counters.record_recv_batch(1);
                            if len > RECV_BUF {
                                counters.recv_truncated.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            sink(vec![crate::udp::Datagram {
                                src,
                                dst: local,
                                payload: buf[..len].to_vec(),
                            }]);
                        }
                        Ok((_, SocketAddr::V6(_))) => {} // v4-only seam
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock
                                    | std::io::ErrorKind::TimedOut
                                    | std::io::ErrorKind::Interrupted
                            ) => {}
                        Err(_) => break, // socket torn down
                    }
                }
            })
            .map_err(io_err("spawn"))?;
        threads.push(handle);
        Ok(())
    }

    fn bind_socket_batched(
        &self,
        port: u16,
        groups: &[Ipv4Addr],
        sink: TransportBatchSink,
        label: &str,
    ) -> NetResult<Arc<dyn TransportSocket>> {
        let (socket, local, joined_all) = self.bind_std(port, groups)?;
        self.attach(Arc::clone(&socket), local, sink, label)?;
        Ok(Arc::new(BatchedSocketHandle {
            socket,
            local,
            joined_all,
            counters: Arc::clone(&self.shared.counters),
        }))
    }
}

struct BatchedSocketHandle {
    socket: Arc<std::net::UdpSocket>,
    local: SocketAddrV4,
    joined_all: bool,
    counters: Arc<IoCounters>,
}

impl TransportSocket for BatchedSocketHandle {
    fn send_to(&self, payload: &[u8], dst: SocketAddrV4) -> NetResult<usize> {
        // The socket is nonblocking under the reactor; a full send
        // queue surfaces as WouldBlock, which for UDP means "dropped" —
        // report it as sent 0 bytes worth of error like any send fault.
        self.socket
            .send_to(payload, SocketAddr::V4(dst))
            .map_err(|e| NetError::Io { op: "send_to", message: e.to_string() })
    }

    fn local_addr(&self) -> SocketAddrV4 {
        self.local
    }

    fn multicast_ready(&self) -> bool {
        self.joined_all
    }

    /// One `sendmmsg` flush per call on the native path.
    #[cfg(all(target_os = "linux", feature = "epoll"))]
    fn send_batch(&self, batch: &[(Vec<u8>, SocketAddrV4)]) -> usize {
        use std::os::fd::AsRawFd;
        let mut sent = 0;
        let mut remaining = batch;
        while !remaining.is_empty() {
            self.counters.batch_sends_flushed.fetch_add(1, Ordering::Relaxed);
            match sys::send_batch(self.socket.as_raw_fd(), remaining) {
                Ok(0) => break,
                Ok(n) => {
                    sent += n;
                    remaining = &remaining[n..];
                }
                Err(e) if sys::is_would_block(&e) => {
                    // Kernel send queue full: yield once, then give the
                    // rest up — UDP replies are droppable by contract.
                    std::thread::yield_now();
                    if let Ok(n) = sys::send_batch(self.socket.as_raw_fd(), remaining) {
                        sent += n;
                    }
                    break;
                }
                // An unsendable head (a port-0 requester) must not silence the rest.
                Err(_) => remaining = &remaining[1..],
            }
        }
        sent
    }

    /// Fallback: a logical flush is one pass over the batch.
    #[cfg(not(all(target_os = "linux", feature = "epoll")))]
    fn send_batch(&self, batch: &[(Vec<u8>, SocketAddrV4)]) -> usize {
        self.counters.batch_sends_flushed.fetch_add(1, Ordering::Relaxed);
        batch.iter().filter(|(payload, dst)| self.send_to(payload, *dst).is_ok()).count()
    }
}

impl Transport for BatchedTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Udp
    }

    fn bind_batched(
        &self,
        spec: &BindSpec,
        sink: TransportBatchSink,
    ) -> NetResult<Arc<dyn TransportSocket>> {
        let port = self.map_port(spec.port);
        self.bind_socket_batched(port, &spec.groups, sink, &port.to_string())
    }

    fn bind_client_batched(&self, sink: TransportBatchSink) -> NetResult<Arc<dyn TransportSocket>> {
        self.bind_socket_batched(0, &[], sink, "client")
    }

    fn map_port(&self, port: u16) -> u16 {
        port.wrapping_add(self.port_offset)
    }

    fn io_stats(&self) -> Option<IoStats> {
        Some(self.shared.counters.io_stats())
    }

    fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        #[cfg(all(target_os = "linux", feature = "epoll"))]
        {
            if let Some(reactor) = self.shared.reactor.lock().expect("reactor slot poisoned").take()
            {
                reactor.shutdown();
            }
        }
        #[cfg(not(all(target_os = "linux", feature = "epoll")))]
        {
            let threads: Vec<_> = std::mem::take(
                &mut *self.shared.threads.lock().expect("batched thread list poisoned"),
            );
            for handle in threads {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::Datagram;
    use std::sync::mpsc;
    use std::time::Duration;

    fn batch_sink() -> (TransportBatchSink, mpsc::Receiver<Vec<Datagram>>) {
        let (tx, rx) = mpsc::channel();
        let sink: TransportBatchSink = Arc::new(move |batch| {
            let _ = tx.send(batch);
        });
        (sink, rx)
    }

    /// The batched transport round-trips datagrams over real loopback
    /// sockets and reports reactor activity in `io_stats`. Skipped (not
    /// failed) when the environment forbids binding.
    #[test]
    fn batched_round_trips_and_counts_batches() {
        let transport = BatchedTransport::with_offset(23_500);
        let (sink, rx) = batch_sink();
        let server = match transport.bind_batched(&BindSpec { port: 427, groups: vec![] }, sink) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping batched_round_trips_and_counts_batches: {e}");
                return;
            }
        };
        assert_eq!(server.local_addr().port(), 23_927, "offset applied");
        let (client_sink, client_rx) = batch_sink();
        let client = transport.bind_client_batched(client_sink).unwrap();

        let burst = 12usize;
        let msgs: Vec<(Vec<u8>, SocketAddrV4)> = (0..burst)
            .map(|i| (format!("SRVRQST {i}").into_bytes(), server.local_addr()))
            .collect();
        let sent = client.send_batch(&msgs);
        assert_eq!(sent, burst, "loopback accepts the whole burst");

        let mut heard = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while heard.len() < burst && std::time::Instant::now() < deadline {
            if let Ok(batch) = rx.recv_timeout(Duration::from_millis(200)) {
                heard.extend(batch);
            }
        }
        assert_eq!(heard.len(), burst, "server heard the full burst");
        assert!(heard.iter().all(|d| d.src == client.local_addr()));

        // Reply path back through send_batch.
        let replies: Vec<(Vec<u8>, SocketAddrV4)> =
            heard.iter().map(|d| (b"SRVRPLY".to_vec(), d.src)).collect();
        assert_eq!(server.send_batch(&replies), burst);
        let mut got = 0;
        while got < burst && std::time::Instant::now() < deadline {
            if let Ok(batch) = client_rx.recv_timeout(Duration::from_millis(200)) {
                got += batch.len();
            }
        }
        assert_eq!(got, burst, "client heard every reply");

        let stats = transport.io_stats().expect("batched transport reports io stats");
        assert!(stats.reactor_wakeups >= 1, "at least one wakeup: {stats:?}");
        let batched: u64 = stats.recv_batches();
        assert!(batched >= 1, "at least one recv batch recorded: {stats:?}");
        assert!(stats.batch_sends_flushed >= 2, "both send_batch calls flushed: {stats:?}");
        transport.shutdown();
    }

    /// A datagram longer than [`RECV_BUF`] is counted and dropped at the
    /// socket — a decoder never sees its clipped prefix — and the next,
    /// fitting one on the same socket is delivered whole. Same contract
    /// on the reactor and on the fallback engine.
    #[test]
    fn oversized_datagram_is_counted_not_delivered() {
        let transport = BatchedTransport::with_offset(23_900);
        let (sink, rx) = batch_sink();
        let Ok(server) = transport.bind_batched(&BindSpec { port: 427, groups: vec![] }, sink)
        else {
            eprintln!("skipping oversized_datagram_is_counted_not_delivered: no loopback bind");
            return;
        };
        let client = transport.bind_client_batched(Arc::new(|_| {})).unwrap();
        client.send_to(&vec![7u8; 3_000], server.local_addr()).unwrap();
        client.send_to(&vec![9u8; 1_400], server.local_addr()).unwrap();

        // One socket, FIFO: once the second datagram is here the first
        // has been through the engine.
        let batch = rx.recv_timeout(Duration::from_secs(3)).expect("the fitting datagram arrives");
        assert_eq!(batch.len(), 1, "only the fitting datagram is delivered");
        assert_eq!(batch[0].payload, vec![9u8; 1_400]);
        assert_eq!(transport.io_stats().expect("io stats").recv_truncated, 1);
        assert!(rx.try_recv().is_err(), "nothing else was delivered");
        transport.shutdown();
    }

    /// A reply that cannot be sent — to port 0, which any requester can
    /// write into its source address — is skipped: the replies behind it
    /// in the same flush still go out. Same contract on the reactor and
    /// on the fallback engine.
    #[test]
    fn unsendable_reply_does_not_silence_the_rest_of_its_flush() {
        let transport = BatchedTransport::loopback();
        let (sink, rx) = batch_sink();
        let Ok(good) = transport.bind_client_batched(sink) else {
            eprintln!("skipping unsendable_reply_does_not_silence_the_rest_of_its_flush: no bind");
            return;
        };
        let sender = transport.bind_client_batched(Arc::new(|_| {})).unwrap();
        let (good, bad) = (good.local_addr(), SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0));
        for (flush, dsts) in [[bad, good, good], [good, bad, good]].into_iter().enumerate() {
            let replies: Vec<(Vec<u8>, SocketAddrV4)> = dsts
                .iter()
                .enumerate()
                .map(|(i, dst)| (vec![flush as u8, i as u8], *dst))
                .collect();
            assert_eq!(sender.send_batch(&replies), 2, "flush {flush}: both good replies sent");
            let mut heard = Vec::new();
            while heard.len() < 2 {
                let batch = rx.recv_timeout(Duration::from_secs(3)).expect("good reply arrives");
                heard.extend(batch.into_iter().map(|d| d.payload));
            }
            heard.sort();
            let expected: Vec<Vec<u8>> =
                (0..3).filter(|&i| dsts[i] == good).map(|i| vec![flush as u8, i as u8]).collect();
            assert_eq!(heard, expected, "flush {flush}");
        }
        transport.shutdown();
    }

    /// Dropping without `shutdown()` must stop the reactor (or the
    /// fallback threads) and release the bound ports.
    #[test]
    fn batched_drop_without_shutdown_releases_ports() {
        let offset = 23_600;
        {
            let transport = BatchedTransport::with_offset(offset);
            if transport
                .bind_batched(&BindSpec { port: 600, groups: vec![] }, Arc::new(|_| {}))
                .is_err()
            {
                eprintln!(
                    "skipping batched_drop_without_shutdown_releases_ports: no loopback bind"
                );
                return;
            }
            // Dropped here with no shutdown() call.
        }
        let retry = BatchedTransport::with_offset(offset);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match retry.bind_batched(&BindSpec { port: 600, groups: vec![] }, Arc::new(|_| {})) {
                Ok(_) => break,
                Err(e) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "port never released after drop-without-shutdown: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
        retry.shutdown();
    }

    /// Shutdown must not wait out the reactor's poll timeout: the wake
    /// eventfd (or the fallback threads' short recv timeout) bounds the
    /// join far below the 500 ms `epoll_wait` tick.
    #[test]
    fn shutdown_joins_well_under_the_poll_tick() {
        let transport = BatchedTransport::with_offset(23_700);
        let (sink, rx) = batch_sink();
        let Ok(server) = transport.bind_batched(&BindSpec { port: 427, groups: vec![] }, sink)
        else {
            eprintln!("skipping shutdown_joins_well_under_the_poll_tick: no loopback bind");
            return;
        };
        // A datagram through the channel proves its receive loop runs.
        server.send_to(b"ping", server.local_addr()).unwrap();
        rx.recv_timeout(Duration::from_secs(3)).expect("the receive loop delivers");
        let started = std::time::Instant::now();
        transport.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "shutdown waited out the poll tick: {elapsed:?}"
        );
    }

    /// `shutdown()` is final: a later bind must fail loudly instead of
    /// returning a bound port whose reactor (or fallback recv thread)
    /// exits on its first stop check and never delivers.
    #[test]
    fn bind_after_shutdown_is_refused() {
        let transport = BatchedTransport::with_offset(23_800);
        let spec = BindSpec { port: 427, groups: vec![] };
        if transport.bind_batched(&spec, Arc::new(|_| {})).is_err() {
            eprintln!("skipping bind_after_shutdown_is_refused: no loopback bind");
            return;
        }
        transport.shutdown();
        let rebind = transport.bind_batched(&spec, Arc::new(|_| {}));
        assert!(matches!(rebind, Err(NetError::SocketClosed)), "bound a deaf channel");
        let client = transport.bind_client_batched(Arc::new(|_| {}));
        assert!(matches!(client, Err(NetError::SocketClosed)), "bound a deaf client channel");
    }

    #[test]
    fn batched_transport_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchedTransport>();
    }
}
