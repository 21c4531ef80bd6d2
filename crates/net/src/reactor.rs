//! The batched I/O reactor: one thread, one epoll fd, every channel.
//!
//! Replaces the thread-per-channel blocking-recv model for the real
//! wire: channels register their nonblocking socket with the reactor's
//! epoll instance (edge-triggered), and a single `indiss-reactor`
//! thread drains readiness with `recvmmsg` into a pooled buffer slab —
//! up to [`RECV_BATCH`] datagrams per syscall, looping until `EAGAIN`
//! — then hands each batch to the channel's sink in one call. The slab,
//! its `iovec`/`mmsghdr` arrays and the epoll event buffer are built
//! once when the thread starts; a wake-up allocates only the
//! `Vec<Datagram>` (and payload copies) the sink receives. The sink runs
//! on this thread and decides how far to take the batch here: the
//! gateway runs channels that cannot block to completion, replies
//! included. Replies never come back through the reactor — whoever
//! composed them flushes with `sendmmsg` directly on the socket
//! ([`crate::sys::send_batch`], nonblocking) — so the loop itself only
//! ever waits in `epoll_wait`.
//!
//! Shutdown is explicit: an [`sys::EventFd`] registered alongside the
//! sockets lets [`Reactor::shutdown`] (and channel registration) wake
//! `epoll_wait` immediately, so `drop` joins in microseconds instead
//! of waiting out a poll tick. The [`WAIT_POLL_MS`] timeout remains
//! only as a belt-and-braces re-check of the stop flag.

use std::collections::HashMap;
use std::net::SocketAddrV4;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::batched::{RECV_BATCH, RECV_BUF};
use crate::sys;
use crate::transport::{IoCounters, TransportBatchSink};
use crate::udp::Datagram;

/// `epoll_wait` timeout between stop-flag checks. Long, because the
/// wake eventfd — not this timeout — is what makes shutdown and
/// registration prompt; the timeout only bounds a lost wakeup.
const WAIT_POLL_MS: i32 = 500;
/// Reserved epoll token of the wake eventfd (no socket fd can be it).
const WAKE_TOKEN: u64 = u64::MAX;
/// Kernel queue size requested per socket: a loopback flood at 100k+
/// datagrams/s overruns the ~208 KiB default between wakeups.
pub(crate) const SOCKET_BUF: usize = 1 << 21;

struct ReactorChannel {
    socket: Arc<std::net::UdpSocket>,
    local: SocketAddrV4,
    sink: TransportBatchSink,
}

struct ReactorShared {
    stop: Arc<AtomicBool>,
    channels: Mutex<HashMap<u64, Arc<ReactorChannel>>>,
    /// Fds queued for registration; picked up at the top of each loop
    /// iteration so `epoll_ctl(ADD)` races nothing.
    pending: Mutex<Vec<RawFd>>,
    counters: Arc<IoCounters>,
    /// Wakes `epoll_wait` from any thread (shutdown, registration).
    wake: sys::EventFd,
}

/// Handle to the reactor thread. Registering a channel makes its
/// socket's readiness drive batch deliveries to the channel's sink.
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Spawns the reactor thread. `stop` is shared with the owning
    /// transport so its `Drop` can halt the thread without a handle.
    pub(crate) fn spawn(
        stop: Arc<AtomicBool>,
        counters: Arc<IoCounters>,
    ) -> std::io::Result<Reactor> {
        let wake = sys::EventFd::new()?;
        let epoll = sys::Epoll::new(64)?;
        epoll.add_edge_in(wake.raw(), WAKE_TOKEN)?;
        let shared = Arc::new(ReactorShared {
            stop,
            channels: Mutex::new(HashMap::new()),
            pending: Mutex::new(Vec::new()),
            counters,
            wake,
        });
        let run_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("indiss-reactor".into())
            .spawn(move || run(&run_shared, epoll))?;
        Ok(Reactor { shared, thread: Mutex::new(Some(thread)) })
    }

    /// Registers a nonblocking socket: batches of datagrams received on
    /// it are delivered to `sink` on the reactor thread.
    pub(crate) fn register(
        &self,
        socket: Arc<std::net::UdpSocket>,
        local: SocketAddrV4,
        sink: TransportBatchSink,
    ) -> std::io::Result<()> {
        socket.set_nonblocking(true)?;
        let _ = sys::set_buffer_sizes(socket.as_raw_fd(), SOCKET_BUF);
        let fd = socket.as_raw_fd();
        self.shared
            .channels
            .lock()
            .expect("reactor channels poisoned")
            .insert(fd as u64, Arc::new(ReactorChannel { socket, local, sink }));
        self.shared.pending.lock().expect("reactor pending poisoned").push(fd);
        // Wake the loop so the new channel is polled immediately
        // instead of after the current epoll_wait times out.
        self.shared.wake.signal();
        Ok(())
    }

    /// Raises the stop flag, wakes the loop and joins the reactor
    /// thread. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.wake.signal();
        if let Some(handle) = self.thread.lock().expect("reactor thread poisoned").take() {
            let _ = handle.join();
        }
        // Sockets close when the channel map (and its Arcs) drop.
        self.shared.channels.lock().expect("reactor channels poisoned").clear();
    }
}

/// The reactor loop: poll, then for each ready channel drain
/// `recvmmsg` batches until `EAGAIN`, delivering one sink call per
/// batch.
fn run(shared: &ReactorShared, mut epoll: sys::Epoll) {
    let mut slab = sys::BatchIo::new(RECV_BATCH, RECV_BUF);
    let counters = &shared.counters;
    while !shared.stop.load(Ordering::Relaxed) {
        for fd in shared.pending.lock().expect("reactor pending poisoned").drain(..) {
            let _ = epoll.add_edge_in(fd, fd as u64);
        }
        let tokens = match epoll.wait(WAIT_POLL_MS) {
            Ok(tokens) => tokens,
            Err(_) => break,
        };
        if tokens.is_empty() {
            continue; // timeout: re-check stop flag
        }
        if tokens.contains(&WAKE_TOKEN) {
            // Reset the counter so the next signal's edge fires; the
            // stop flag / pending list carry the actual message.
            shared.wake.drain();
        }
        if tokens.iter().all(|&t| t == WAKE_TOKEN) {
            continue; // pure wake: no socket readiness to drain
        }
        counters.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        for &token in tokens {
            if token == WAKE_TOKEN {
                continue;
            }
            let channel = {
                let map = shared.channels.lock().expect("reactor channels poisoned");
                match map.get(&token) {
                    Some(c) => Arc::clone(c),
                    None => continue,
                }
            };
            drain_channel(&channel, &mut slab, counters);
        }
    }
}

/// Edge-triggered drain: keep calling `recvmmsg` until the queue is
/// empty (`EAGAIN`) or a short batch signals it soon will be.
fn drain_channel(channel: &ReactorChannel, slab: &mut sys::BatchIo, counters: &IoCounters) {
    let fd = channel.socket.as_raw_fd();
    loop {
        match slab.recv(fd) {
            Ok(0) => break,
            Ok(n) => {
                let mut batch = Vec::with_capacity(n);
                for i in 0..n {
                    match slab.datagram(i) {
                        Some((src, payload)) => batch.push(Datagram {
                            src,
                            dst: channel.local,
                            payload: payload.to_vec(),
                        }),
                        None => {
                            counters.recv_truncated.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                counters.record_recv_batch(n as u64);
                if !batch.is_empty() {
                    (channel.sink)(batch);
                }
                if n < RECV_BATCH {
                    // Short batch: the queue is (nearly) drained; one
                    // more recvmmsg would most likely just cost EAGAIN.
                    break;
                }
            }
            Err(e) if sys::is_would_block(&e) => {
                counters.recv_eagain.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break, // socket torn down
        }
    }
}
