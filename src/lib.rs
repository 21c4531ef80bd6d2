//! # indiss — Interoperable Discovery System for Networked Services
//!
//! A full reproduction, in Rust, of the system described in:
//!
//! > Y.-D. Bromberg and V. Issarny. *INDISS: Interoperable Discovery
//! > System for Networked Services.* ACM/IFIP/USENIX Middleware 2005.
//!
//! INDISS lets applications bound to one Service Discovery Protocol (SDP)
//! discover and be discovered by services speaking another, without any
//! change to the applications: a *monitor component* detects which SDPs
//! are active from IANA multicast group/port activity, and per-SDP
//! *units* — a coupled parser and composer coordinated by a finite state
//! machine — translate whole discovery *processes* (not just messages)
//! through a common semantic event vocabulary.
//!
//! This facade crate re-exports the entire workspace:
//!
//! * [`net`] — deterministic discrete-event network simulator (the
//!   paper's 10 Mb/s LAN testbed);
//! * [`xml`] / [`http`] — document and message substrates;
//! * [`slp`] — Service Location Protocol v2 (the OpenSLP role);
//! * [`ssdp`] / [`upnp`] — the UPnP stack (the Cyberlink role);
//! * [`jini`] — simplified Jini discovery (the third unit of Fig. 5);
//! * [`core`] — INDISS itself: events, FSMs, units, monitor, the
//!   service registry and the runtime.
//!
//! ## The open protocol API
//!
//! The protocol set is open (paper §3): beyond the compiled-in SLP,
//! UPnP and Jini units, a new SDP can be added **from data alone**. An
//! [`core::SdpDescriptor`] declares a line-oriented protocol — scan
//! port, multicast group, parser table and composer templates — and
//! [`core::DescriptorUnit`] bridges it; its [`core::ProtocolId`]
//! participates in the registry, the response/negative caches and the
//! statistics exactly like a built-in protocol. The paper's own textual
//! composition language works verbatim:
//! [`core::IndissConfig::from_system_sdp`] parses
//! `System SDP = { Component Unit SLP(port=427); … }` — including
//! descriptor blocks for protocols INDISS has never heard of (see
//! `examples/custom_sdp.rs` for a four-protocol gateway declared in
//! text). Hand-written units plug in through the object-safe
//! [`core::UnitFactory`] registry and
//! [`core::IndissConfig::builder`].
//!
//! ## The service registry
//!
//! Everything INDISS learns about the network lives in one place: the
//! [`core::ServiceRegistry`] behind each deployed instance. Heard
//! advertisements become canonical [`core::ServiceRecord`]s (indexed by
//! canonical type, origin protocol and endpoint), bridged responses warm
//! a bounded LRU cache that yields the paper's ~0.1 ms §4.3 best case,
//! and both stores enforce configurable capacity and TTL bounds with
//! deterministic virtual-time expiry — so a gateway under heavy service
//! churn holds bounded memory. Inspect it via `indiss.registry()`; tune
//! it via [`core::IndissConfig`]'s `registry_capacity`,
//! `cache_capacity`, `advert_ttl` and `cache_ttl` setters.
//!
//! ## Running live: the network front-end
//!
//! The simulation is the measurement instrument; the same gateway also
//! runs on real sockets. [`core::NetDriver`] serves the decode → parse
//! → classify → deliver warm path over a transport seam
//! ([`net::Transport`]): [`net::SimTransport`] is a deterministic
//! in-memory bus, [`net::BatchedTransport`] is real `std::net` UDP
//! drained by one epoll reactor in `recvmmsg` batches (per-channel recv
//! threads where epoll is unavailable), loopback-confined by default —
//! the engine `TransportKind::Udp` selects. Passive
//! port detection, Fig. 5 lazy unit activation, registry-backed warm
//! hits, bounded backpressure and real HTTP-over-TCP UPnP description
//! fetches all work on the wire; one scripted scenario produces
//! byte-identical composed messages on either transport (pinned by
//! `crates/core/tests/netfront.rs`). Try it:
//! `cargo run --example gateway -- --udp`. The architecture book at
//! `docs/ARCHITECTURE.md` walks every layer.
//!
//! ## Quickstart: the paper's §2.4 scenario
//!
//! An SLP client finds a UPnP clock through a transparently deployed
//! INDISS (see `examples/quickstart.rs` for the full program):
//!
//! ```
//! use indiss::net::World;
//! use indiss::upnp::{ClockDevice, UpnpConfig};
//! use indiss::slp::{SlpConfig, UserAgent};
//! use indiss::core::{Indiss, IndissConfig};
//!
//! let world = World::new(42);
//! let service_node = world.add_node("clock-device");
//! let client_node = world.add_node("slp-client");
//!
//! // A native UPnP clock device, knowing nothing of SLP…
//! let _clock = ClockDevice::start(&service_node, UpnpConfig::default())?;
//! // …an SLP client, knowing nothing of UPnP…
//! let ua = UserAgent::start(&client_node, SlpConfig::default())?;
//! // …and INDISS on the service host, bridging both.
//! let _indiss = Indiss::deploy(&service_node, IndissConfig::slp_upnp())?;
//!
//! let (_first, done) = ua.find_services(&world, "service:clock", "");
//! world.run_for(std::time::Duration::from_secs(2));
//! let outcome = done.take().expect("discovery round finished");
//! assert_eq!(outcome.urls.len(), 1, "the UPnP clock is visible to SLP");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use indiss_core as core;
pub use indiss_http as http;
pub use indiss_jini as jini;
pub use indiss_net as net;
pub use indiss_slp as slp;
pub use indiss_ssdp as ssdp;
pub use indiss_upnp as upnp;
pub use indiss_xml as xml;
