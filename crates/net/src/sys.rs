//! Raw Linux syscall layer for the batched I/O reactor.
//!
//! No crates.io access means no `libc`/`mio`/`tokio`: the reactor owns
//! its syscall surface with hand-written FFI declarations. This module
//! is the **only** place in the workspace where `unsafe` is permitted
//! (the crate is `#![deny(unsafe_code)]`; everything else forbids it),
//! and every raw call is wrapped in a safe type before it leaves:
//!
//! * [`Epoll`] — `epoll_create1`/`epoll_ctl`/`epoll_wait` with an owned
//!   event buffer, used edge-triggered by the reactor.
//! * [`BatchIo`] — pooled receive slab: buffers, `sockaddr` storage and
//!   the `iovec`/`mmsghdr` arrays pointing into them, all built once and
//!   kept for the slab's life, driving `recvmmsg`. A wake-up and a drain
//!   allocate nothing here.
//! * [`send_batch`] — a `sendmmsg` flush over caller-owned payloads,
//!   staged in fixed stack arrays.
//! * [`set_buffer_sizes`] — `SO_RCVBUF`/`SO_SNDBUF`, because a batched
//!   loopback flood overruns the default 208 KiB receive queue long
//!   before the reactor saturates.
//!
//! Struct layouts are the x86-64 Linux ABI (`epoll_event` is packed on
//! x86-64; `msghdr` uses `size_t` lengths). The whole module is gated
//! on `target_os = "linux"` + the `epoll` feature; other builds use the
//! portable fallback in [`crate::transport`] and never compile this.

#![allow(unsafe_code)]

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

use crate::batched::RECV_BATCH;

// -- constants (uapi/linux) -------------------------------------------

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Edge-triggered: one event per readiness transition, so the reactor
/// must drain to `EAGAIN` before the next `epoll_wait`.
pub const EPOLLET: u32 = 1 << 31;

const MSG_DONTWAIT: c_int = 0x40;
/// Set by the kernel in `msg_flags` when a datagram was longer than the
/// buffer it was received into.
const MSG_TRUNC: c_int = 0x20;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;
const AF_INET: u16 = 2;

// -- ABI structs ------------------------------------------------------

/// `struct epoll_event` — packed on x86-64 (the kernel ABI; a natural
/// layout would mis-align `data` against what `epoll_wait` writes).
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    iov_base: *mut c_void,
    iov_len: usize,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct MsgHdr {
    msg_name: *mut c_void,
    msg_namelen: u32,
    msg_iov: *mut IoVec,
    msg_iovlen: usize,
    msg_control: *mut c_void,
    msg_controllen: usize,
    msg_flags: c_int,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct MmsgHdr {
    msg_hdr: MsgHdr,
    msg_len: c_uint,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct SockAddrIn {
    sin_family: u16,
    /// Big-endian port.
    sin_port: u16,
    /// Big-endian address.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn recvmmsg(
        sockfd: c_int,
        msgvec: *mut MmsgHdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut c_void,
    ) -> c_int;
    fn sendmmsg(sockfd: c_int, msgvec: *mut MmsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
}

fn check(ret: c_int, _op: &'static str) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// True for the errno kinds that mean "nothing there, try later".
pub fn is_would_block(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
}

fn to_sockaddr(addr: SocketAddrV4) -> SockAddrIn {
    SockAddrIn {
        sin_family: AF_INET,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from(*addr.ip()).to_be(),
        sin_zero: [0; 8],
    }
}

fn from_sockaddr(raw: &SockAddrIn) -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::from(u32::from_be(raw.sin_addr)), u16::from_be(raw.sin_port))
}

// -- epoll ------------------------------------------------------------

/// An owned epoll instance. Tokens are caller-chosen `u64`s (the
/// reactor uses the registered socket's fd).
pub struct Epoll {
    fd: RawFd,
    /// What `epoll_wait` writes into; one entry per event a wait can
    /// return. Allocated once.
    raw: Vec<EpollEvent>,
    /// The tokens of the last [`Epoll::wait`], `raw.len()` reserved so
    /// refilling it never allocates.
    events: Vec<u64>,
}

impl Epoll {
    /// Creates the epoll fd (`EPOLL_CLOEXEC`) with room for `capacity`
    /// events per wait.
    pub fn new(capacity: usize) -> io::Result<Epoll> {
        let capacity = capacity.max(1);
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) }, "epoll_create1")?;
        Ok(Epoll {
            fd,
            raw: vec![EpollEvent { events: 0, data: 0 }; capacity],
            events: Vec::with_capacity(capacity),
        })
    }

    /// Registers `fd` for edge-triggered readability with `token`.
    pub fn add_edge_in(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLET, data: token };
        check(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) }, "epoll_ctl")?;
        Ok(())
    }

    /// Waits up to `timeout_ms` and returns the tokens of ready fds.
    /// An empty slice means the timeout elapsed.
    pub fn wait(&mut self, timeout_ms: i32) -> io::Result<&[u64]> {
        let n = loop {
            // SAFETY: `raw` is a live, exclusively borrowed buffer of
            // exactly `raw.len()` events, the count the kernel is told.
            let r = unsafe {
                epoll_wait(self.fd, self.raw.as_mut_ptr(), self.raw.len() as c_int, timeout_ms)
            };
            if r >= 0 {
                break r as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        self.events.clear();
        self.events.extend(self.raw[..n].iter().map(|ev| ev.data));
        Ok(&self.events)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// -- eventfd ----------------------------------------------------------

/// A kernel event counter the reactor registers alongside its sockets,
/// so a [`EventFd::signal`] from any thread wakes `epoll_wait`
/// immediately — shutdown and channel registration no longer wait out
/// the poll timeout.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// A nonblocking, close-on-exec eventfd with a zero counter.
    pub fn new() -> io::Result<EventFd> {
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }, "eventfd")?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, marking the fd readable. Best-effort:
    /// a full counter (u64::MAX-1 pending signals) still wakes.
    pub fn signal(&self) {
        let one: u64 = 1;
        let _ = unsafe { write(self.fd, (&one as *const u64).cast::<c_void>(), 8) };
    }

    /// Resets the counter so the edge can fire again. Best-effort.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        let _ = unsafe { read(self.fd, (&mut buf as *mut u64).cast::<c_void>(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// -- batched datagram I/O ---------------------------------------------

/// A one-message `mmsghdr` over `name` and `iov`.
fn mmsg_hdr(name: *mut SockAddrIn, iov: *mut IoVec) -> MmsgHdr {
    MmsgHdr {
        msg_hdr: MsgHdr {
            msg_name: name.cast::<c_void>(),
            msg_namelen: std::mem::size_of::<SockAddrIn>() as u32,
            msg_iov: iov,
            msg_iovlen: 1,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        },
        msg_len: 0,
    }
}

/// Pooled receive slab: `batch` fixed buffers, the `sockaddr` storage
/// `recvmmsg` scatters source addresses into, and the `iovec`/`mmsghdr`
/// arrays that point at both, all allocated once in [`BatchIo::new`]
/// and reused for every drain; payloads are copied out into `Vec`s at
/// the seam (the slab never leaves this module).
///
/// The headers hold raw pointers into the other vectors' heap blocks,
/// so no vector is resized after `new` (moving the `BatchIo` moves no
/// heap block) and the slab is `!Send`: the reactor builds its own.
pub struct BatchIo {
    slab: Vec<u8>,
    buf_size: usize,
    addrs: Vec<SockAddrIn>,
    /// Pointed at by `hdrs[i].msg_hdr.msg_iov`; read only by the kernel.
    _iovecs: Vec<IoVec>,
    hdrs: Vec<MmsgHdr>,
}

impl BatchIo {
    /// A slab of `batch` buffers of `buf_size` bytes each.
    pub fn new(batch: usize, buf_size: usize) -> BatchIo {
        let batch = batch.max(1);
        let buf_size = buf_size.max(64);
        let mut slab = vec![0u8; batch * buf_size];
        let mut addrs = vec![SockAddrIn::default(); batch];
        // Element pointers come from each vector's base pointer (in
        // bounds: `i < batch`), not through `&mut` element borrows that
        // the later safe reads would end.
        let slab_base = slab.as_mut_ptr();
        let mut iovecs: Vec<IoVec> = (0..batch)
            .map(|i| IoVec {
                iov_base: slab_base.wrapping_add(i * buf_size).cast::<c_void>(),
                iov_len: buf_size,
            })
            .collect();
        let (addr_base, iov_base) = (addrs.as_mut_ptr(), iovecs.as_mut_ptr());
        let hdrs = (0..batch)
            .map(|i| mmsg_hdr(addr_base.wrapping_add(i), iov_base.wrapping_add(i)))
            .collect();
        BatchIo { slab, buf_size, addrs, _iovecs: iovecs, hdrs }
    }

    /// One `recvmmsg` on nonblocking `fd`: up to the slab's batch size
    /// in a single syscall. Returns the number received; `WouldBlock`
    /// when the socket queue is empty (the edge-drain terminator).
    pub fn recv(&mut self, fd: RawFd) -> io::Result<usize> {
        // The kernel overwrites these three per message it delivers;
        // left alone they would report the last call's.
        for hdr in &mut self.hdrs {
            hdr.msg_hdr.msg_namelen = std::mem::size_of::<SockAddrIn>() as u32;
            hdr.msg_hdr.msg_flags = 0;
            hdr.msg_len = 0;
        }
        // SAFETY: `hdrs` holds `hdrs.len()` headers whose pointers were
        // taken in `new` from `addrs`, `_iovecs` and `slab`, heap blocks
        // this struct owns and never reallocates, so all are live and in
        // bounds (`iov_len` is the buffer's real size); `&mut self`
        // keeps any other access out for the duration of the call.
        let n = check(
            unsafe {
                recvmmsg(
                    fd,
                    self.hdrs.as_mut_ptr(),
                    self.hdrs.len() as c_uint,
                    MSG_DONTWAIT,
                    std::ptr::null_mut(),
                )
            },
            "recvmmsg",
        )?;
        Ok(n as usize)
    }

    /// The `i`-th received datagram of the last [`BatchIo::recv`]:
    /// source address and payload slice into the slab. `None` when the
    /// datagram was longer than its slab buffer (`MSG_TRUNC`): the bytes
    /// held are a clipped prefix no decoder should see as a message.
    pub fn datagram(&self, i: usize) -> Option<(SocketAddrV4, &[u8])> {
        let hdr = &self.hdrs[i];
        if hdr.msg_hdr.msg_flags & MSG_TRUNC != 0 {
            return None;
        }
        let start = i * self.buf_size;
        let len = (hdr.msg_len as usize).min(self.buf_size);
        Some((from_sockaddr(&self.addrs[i]), &self.slab[start..start + len]))
    }
}

/// One `sendmmsg` flush of the leading `msgs` (at most [`RECV_BATCH`]
/// per call, staged in stack arrays) on `fd`. Returns how many of them
/// the kernel accepted — `sendmmsg` sends a prefix, so callers loop on
/// the rest; `WouldBlock` when the send queue is full and nothing went
/// out.
pub fn send_batch(fd: RawFd, msgs: &[(Vec<u8>, SocketAddrV4)]) -> io::Result<usize> {
    let msgs = &msgs[..msgs.len().min(RECV_BATCH)];
    if msgs.is_empty() {
        return Ok(0);
    }
    let mut addrs = [SockAddrIn::default(); RECV_BATCH];
    let mut iovecs = [IoVec { iov_base: std::ptr::null_mut(), iov_len: 0 }; RECV_BATCH];
    for (i, (payload, dst)) in msgs.iter().enumerate() {
        addrs[i] = to_sockaddr(*dst);
        iovecs[i].iov_base = payload.as_ptr().cast_mut().cast::<c_void>();
        iovecs[i].iov_len = payload.len();
    }
    let (addr_base, iov_base) = (addrs.as_mut_ptr(), iovecs.as_mut_ptr());
    let mut hdrs: [MmsgHdr; RECV_BATCH] =
        std::array::from_fn(|i| mmsg_hdr(addr_base.wrapping_add(i), iov_base.wrapping_add(i)));
    // SAFETY: the first `msgs.len()` headers point at this frame's
    // `addrs`/`iovecs` entries and through them at the callers'
    // payloads, all of which outlive the call; the kernel only reads
    // the payloads (the `cast_mut` is the C signature's, not a write).
    let n = check(
        unsafe { sendmmsg(fd, hdrs.as_mut_ptr(), msgs.len() as c_uint, MSG_DONTWAIT) },
        "sendmmsg",
    )?;
    Ok(n as usize)
}

/// Grows the socket's kernel queues (`SO_RCVBUF`/`SO_SNDBUF`) to
/// `bytes`. Best-effort: the kernel clamps to `net.core.*mem_max`.
pub fn set_buffer_sizes(fd: RawFd, bytes: usize) -> io::Result<()> {
    let val = bytes.min(c_int::MAX as usize) as c_int;
    for opt in [SO_RCVBUF, SO_SNDBUF] {
        check(
            unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&val as *const c_int).cast::<c_void>(),
                    std::mem::size_of::<c_int>() as u32,
                )
            },
            "setsockopt",
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    /// The slab round-trips real datagrams through the kernel: bind two
    /// loopback sockets, sendmmsg a burst one way, epoll-wait on the
    /// receiver, recvmmsg the burst back, and compare payload + source.
    #[test]
    fn mmsg_round_trip_over_loopback() {
        let a = match std::net::UdpSocket::bind("127.0.0.1:0") {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping mmsg_round_trip_over_loopback: {e}");
                return;
            }
        };
        let b = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        b.set_nonblocking(true).unwrap();
        set_buffer_sizes(b.as_raw_fd(), 1 << 20).unwrap();
        let dst = match b.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            _ => unreachable!("bound v4"),
        };
        let src = match a.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            _ => unreachable!("bound v4"),
        };

        let msgs: Vec<(Vec<u8>, SocketAddrV4)> =
            (0..10u8).map(|i| (vec![i; (i as usize) + 1], dst)).collect();
        let sent = send_batch(a.as_raw_fd(), &msgs).unwrap();
        assert_eq!(sent, msgs.len(), "loopback accepts the whole burst");

        let mut epoll = Epoll::new(8).unwrap();
        epoll.add_edge_in(b.as_raw_fd(), 7).unwrap();
        let tokens = epoll.wait(2_000).unwrap();
        assert_eq!(tokens, &[7], "receiver readable");

        let mut slab = BatchIo::new(16, 2048);
        let mut got = Vec::new();
        loop {
            match slab.recv(b.as_raw_fd()) {
                Ok(n) => {
                    for i in 0..n {
                        let (from, payload) = slab.datagram(i).expect("fits the slab buffer");
                        assert_eq!(from, src);
                        got.push(payload.to_vec());
                    }
                    if got.len() >= msgs.len() {
                        break;
                    }
                }
                Err(e) if is_would_block(&e) => {
                    // Kernel may still be delivering; brief spin.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("recvmmsg failed: {e}"),
            }
        }
        let expected: Vec<Vec<u8>> = msgs.into_iter().map(|(p, _)| p).collect();
        assert_eq!(got, expected, "payloads arrive intact and in order");
    }

    fn loopback_pair() -> Option<(std::net::UdpSocket, std::net::UdpSocket, SocketAddrV4)> {
        let rx = std::net::UdpSocket::bind("127.0.0.1:0").ok()?;
        rx.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        let tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let std::net::SocketAddr::V4(dst) = rx.local_addr().unwrap() else {
            unreachable!("bound v4")
        };
        Some((rx, tx, dst))
    }

    /// Blocks until `rx` is readable, then drains it with one `recv`.
    fn recv_when_ready(slab: &mut BatchIo, rx: &std::net::UdpSocket, want: usize) {
        // Loopback delivery is synchronous with `send`, but `peek`
        // blocking on the read timeout keeps the test honest if not.
        let mut probe = [0u8; 1];
        rx.peek_from(&mut probe).expect("datagram arrives");
        assert_eq!(slab.recv(rx.as_raw_fd()).expect("recvmmsg"), want);
    }

    /// The header arrays live as long as the slab, so every `recv` must
    /// reset what the kernel wrote last time: a short datagram after a
    /// long one, from another socket, reports its own length and source.
    #[test]
    fn persistent_headers_are_reset_between_recvs() {
        let Some((rx, tx_a, dst)) = loopback_pair() else {
            eprintln!("skipping persistent_headers_are_reset_between_recvs: no loopback bind");
            return;
        };
        let tx_b = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let src = |s: &std::net::UdpSocket| match s.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            _ => unreachable!("bound v4"),
        };
        let mut slab = BatchIo::new(4, 2048);
        let long = vec![0xAB; 1400];
        for (socket, payload) in [(&tx_a, &long[..]), (&tx_b, &b"hi"[..]), (&tx_a, &b"again"[..])] {
            socket.send_to(payload, dst).unwrap();
            recv_when_ready(&mut slab, &rx, 1);
            let (from, got) = slab.datagram(0).expect("fits the slab buffer");
            assert_eq!(from, src(socket), "source of this datagram, not the last one");
            assert_eq!(got, payload, "length of this datagram, not the last one");
        }
    }

    /// A datagram longer than its slab buffer is flagged, not handed out
    /// clipped; the flag does not stick to the slot for the next one.
    #[test]
    fn oversized_datagram_is_reported_truncated() {
        let Some((rx, tx, dst)) = loopback_pair() else {
            eprintln!("skipping oversized_datagram_is_reported_truncated: no loopback bind");
            return;
        };
        let mut slab = BatchIo::new(4, 2048);
        tx.send_to(&vec![7u8; 3000], dst).unwrap();
        recv_when_ready(&mut slab, &rx, 1);
        assert!(slab.datagram(0).is_none(), "3000 B into a 2048 B buffer is truncated");
        tx.send_to(&vec![9u8; 1400], dst).unwrap();
        recv_when_ready(&mut slab, &rx, 1);
        let (_, payload) = slab.datagram(0).expect("1400 B fits");
        assert_eq!(payload, &vec![9u8; 1400][..]);
    }
}
