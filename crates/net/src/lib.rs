//! # indiss-net — deterministic network simulator
//!
//! The substrate every other `indiss` crate runs on: a single-threaded
//! discrete-event simulation of an IPv4 LAN with UDP (unicast + multicast)
//! and a simplified TCP, calibrated to the testbed of the INDISS paper
//! (Bromberg & Issarny, Middleware 2005) — two hosts on a 10 Mb/s LAN.
//!
//! Key properties:
//!
//! * **Virtual time** ([`SimTime`]): no wall clock anywhere; a scenario
//!   that simulates minutes of protocol chatter runs in microseconds.
//! * **Determinism**: all jitter and loss derive from a seeded RNG, so any
//!   measurement is exactly reproducible, and the paper's
//!   median-of-30-trials methodology maps to 30 seeds.
//! * **Multicast groups**: first-class, since every service discovery
//!   protocol in the paper (SSDP, SLP, Jini) is built on administratively
//!   scoped multicast, and INDISS's *monitor component* detects protocols
//!   purely from group/port activity.
//! * **Observability**: a [`TrafficMeter`] (for the paper's bandwidth
//!   arguments, §4.2).
//!
//! ## Example
//!
//! ```
//! use indiss_net::{World, Completion};
//! use std::net::{Ipv4Addr, SocketAddrV4};
//!
//! let world = World::new(42);
//! let service = world.add_node("clock-device");
//! let client = world.add_node("slp-client");
//!
//! let ssdp = service.udp_bind(1900)?;
//! ssdp.join_multicast(Ipv4Addr::new(239, 255, 255, 250))?;
//! let heard = Completion::new();
//! let heard2 = heard.clone();
//! ssdp.on_receive(move |_, dgram| heard2.complete(dgram.payload));
//!
//! let sender = client.udp_bind_ephemeral()?;
//! sender.send_to(
//!     b"M-SEARCH * HTTP/1.1\r\n\r\n",
//!     SocketAddrV4::new(Ipv4Addr::new(239, 255, 255, 250), 1900),
//! )?;
//! world.run_until_idle();
//! assert!(heard.is_complete());
//! # Ok::<(), indiss_net::NetError>(())
//! ```

// `deny`, not `forbid`: the hand-written syscall layer in `sys` (the
// reactor's epoll/recvmmsg/sendmmsg FFI — no crates.io, so no `libc`)
// is the single module allowed to opt back in with `allow(unsafe_code)`.
// Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batched;
mod completion;
pub mod counters;
mod error;
mod fault;
mod latency;
mod meter;
mod node;
mod peer;
#[cfg(all(target_os = "linux", feature = "epoll"))]
mod reactor;
#[cfg(all(target_os = "linux", feature = "epoll"))]
mod sys;
mod tcp;
mod time;
mod transport;
mod udp;
mod world;

pub use batched::{BatchedTransport, RECV_BATCH};
pub use completion::{Collector, Completion};
pub use error::{NetError, NetResult};
pub use fault::{FaultPlan, FaultTransport};
pub use latency::LinkConfig;
pub use meter::{MeterRecord, MeterTransport, TrafficMeter};
pub use node::{Node, NodeId};
pub use peer::PeerChannel;
pub use tcp::{TcpListener, TcpListenerId, TcpStream, TcpStreamId};
pub use time::SimTime;
pub use transport::{
    BindSpec, FaultStats, IoStats, SimTransport, Transport, TransportBatchSink, TransportKind,
    TransportSink, TransportSocket,
};
pub use udp::{Datagram, UdpSocket, UdpSocketId};
pub use world::{World, WorldConfig};
