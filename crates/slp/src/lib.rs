//! # indiss-slp — Service Location Protocol v2
//!
//! A from-scratch SLPv2 (RFC 2608) implementation: the complete binary
//! wire codec (all eleven message types), service URLs (RFC 2609),
//! attribute lists, LDAPv3-subset predicate filters, and the three agent
//! roles (User, Service, Directory) running on the `indiss-net` simulator.
//!
//! This crate plays the role OpenSLP plays in the INDISS paper: the
//! *native* SLP stack that applications use directly, and that the INDISS
//! SLP unit parses and composes messages for.
//!
//! ## Example: native SLP discovery (the paper's Fig. 7 baseline)
//!
//! ```
//! use indiss_net::World;
//! use indiss_slp::{AttributeList, Registration, ServiceAgent, SlpConfig, UserAgent};
//!
//! let world = World::new(42);
//! let printer = world.add_node("printer");
//! let laptop = world.add_node("laptop");
//!
//! let sa = ServiceAgent::start(&printer, SlpConfig::default())?;
//! sa.register(Registration::new(
//!     "service:printer:lpr://10.0.0.1:515",
//!     AttributeList::parse("(ppm=12),(color)").unwrap(),
//! )?);
//!
//! let ua = UserAgent::start(&laptop, SlpConfig::default())?;
//! let (_first, done) = ua.find_services(&world, "service:printer", "(ppm>=10)");
//! world.run_until_idle();
//! let outcome = done.take().expect("discovery finished");
//! assert_eq!(outcome.urls.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Borrowed views
//!
//! Each structure has one byte parser and one writer. [`HeaderView`] and
//! [`SrvRqstView`] decode borrowed from the datagram ([`Header::decode`]
//! and the `SrvRqst` arm of [`Message::decode`] are `to_owned()` over
//! them); [`Message::encode_into`] appends to a caller's buffer, and
//! [`SrvRply::encode_one_into`] writes a one-entry reply from borrowed
//! parts through the same writers — request bytes to reply bytes in a
//! reused buffer, with nothing allocated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod attrs;
mod consts;
mod error;
mod filter;
mod messages;
mod url;
mod wire;

pub use agent::{
    DirectoryAgent, DiscoveryOutcome, Registration, ServiceAgent, SlpConfig, UserAgent,
};
pub use attrs::{Attribute, AttributeList};
pub use consts::{
    ErrorCode, FunctionId, DEFAULT_LANG, DEFAULT_LIFETIME, DEFAULT_SCOPE, FLAG_FRESH, FLAG_MCAST,
    FLAG_OVERFLOW, SLP_MULTICAST_GROUP, SLP_PORT, SLP_VERSION,
};
pub use error::{SlpError, SlpResult};
pub use filter::Filter;
pub use messages::{
    AttrRply, AttrRqst, Body, DaAdvert, Message, SaAdvert, SrvAck, SrvDeReg, SrvReg, SrvRply,
    SrvRqst, SrvRqstView, SrvTypeRply, SrvTypeRqst,
};
pub use url::{ServiceType, ServiceUrl, UrlEntry};
pub use wire::{ByteReader, ByteWriter, Header, HeaderView};
