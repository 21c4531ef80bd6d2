//! Seed-generated inputs of the three live workloads, and the reference
//! model their replies are checked against.
//!
//! A workload is a population of service types (each advertised through
//! exactly one SDP, at one URL), a pool of pre-encoded datagram templates
//! over that population, and an endless seeded stream of [`Op`]s — which
//! template to send next and what the gateway is expected to do with it.
//! The model is deliberately tiny: because a type has one URL for the
//! whole run, "what is currently advertised" reduces to *which URL a
//! reply for this type must carry* plus, per op, *whether a reply must,
//! may, or must not come back*. The only state the model tracks is the
//! recency window `advert_churn` needs for its must-answer probes.

use std::collections::VecDeque;

use indiss_slp::{Body, FunctionId, Header, Message, SrvDeReg, SrvReg, SrvRqst, UrlEntry};
use indiss_ssdp::{MSearch, Notify, NotifySubType, SearchTarget};
use indiss_upnp::{DeviceDescription, ServiceDescription};

use crate::rng::{Rng, Zipf};

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHit,
    AdvertChurn,
    MixedMiss,
    ColdBridge,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::WarmHit, Workload::AdvertChurn, Workload::MixedMiss, Workload::ColdBridge];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::AdvertChurn => "advert_churn",
            Workload::MixedMiss => "mixed_miss",
            Workload::ColdBridge => "cold_bridge",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Datagrams per second of the `ref` phase, evenly spaced: one reactor
    /// wake-up and one pool hand-off per datagram (batch ≈ 1).
    pub const REF_RATE: u32 = 10_000;

    /// Datagrams per burst of the `hi` phase: the reactor drains a burst
    /// in one `recvmmsg` (its batch is 32) and the worker gets one job.
    pub const HI_BURST: u32 = 32;

    /// Frozen mean rate of the `hi` phase (datagrams per second, offered
    /// in bursts of [`Workload::HI_BURST`]): the batching regime, at a third
    /// to a half of the one gateway core this class of host can give (calibration
    /// in `benchmark/README.md`). Zero for the closed-loop sim workload.
    pub fn hi_rate(self) -> u32 {
        match self {
            Workload::WarmHit => 40_000,
            Workload::AdvertChurn => 20_000,
            Workload::MixedMiss => 40_000,
            Workload::ColdBridge => 0,
        }
    }
}

/// Which gateway channel a datagram goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    Slp = 0,
    Ssdp = 1,
    DnsSd = 2,
}

/// What a template is on the wire (drives reply correlation, the
/// traced chain's dispatch, and the per-layer micro-benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    SlpRequest,
    SlpReg,
    SlpDeReg,
    Notify,
    NotifyBye,
    Announce,
    Goodbye,
    DnsQuery,
    MSearch,
    Junk,
}

/// One pre-encoded datagram. SLP requests carry XID 0 and are patched
/// per send (see [`patch_xid`]).
#[derive(Debug, Clone)]
pub struct Template {
    pub bytes: Vec<u8>,
    pub port: Port,
    pub wire: Wire,
    /// Index into [`LiveInput::types`] (`u32::MAX` for junk).
    pub ty: u32,
}

/// What the reference model expects the gateway to do with an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A reply carrying this type's URL must come back within the
    /// deadline.
    Answer(u32),
    /// A reply may come back (the response cache's LRU state is the
    /// gateway's business); if one does it must carry this type's URL.
    Maybe(u32),
    /// No reply may come back: absent type, `M-SEARCH`, junk.
    Silent,
    /// A well-formed advert: the gateway must record it (checked against
    /// the `/metrics` deltas at the phase boundary).
    Advert,
}

/// One scheduled datagram.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub tmpl: u32,
    pub expect: Expect,
}

/// The SDP a type is natively advertised in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Native {
    Slp,
    Upnp,
    DnsSd,
}

/// One service type of the population, with the URLs the model expects.
#[derive(Debug, Clone)]
pub struct ServiceType {
    pub name: String,
    pub native: Native,
    /// URL an SLP `SrvRply` for this type must carry.
    pub slp_url: String,
    /// URL a DNS-SD answer line for this type must carry.
    pub dnssd_url: String,
    /// Template ids: SLP request, DNS-SD query, alive advert, byebye.
    pub request: u32,
    pub query: u32,
    pub alive: u32,
    pub bye: u32,
}

/// Byte offset of the XID in an SLPv2 header (RFC 2608 §8).
const XID_OFFSET: usize = 10;

/// Writes `xid` into an encoded SLP message.
pub fn patch_xid(wire: &mut [u8], xid: u16) {
    wire[XID_OFFSET..XID_OFFSET + 2].copy_from_slice(&xid.to_be_bytes());
}

pub fn slp_request(service_type: &str) -> Vec<u8> {
    Message::new(
        Header::new(FunctionId::SrvRqst, 0, "en"),
        Body::SrvRqst(SrvRqst {
            prlist: String::new(),
            service_type: service_type.to_owned(),
            scopes: "DEFAULT".into(),
            predicate: String::new(),
            spi: String::new(),
        }),
    )
    .encode()
    .expect("a short SrvRqst always encodes")
}

/// The description document a UPnP type's `LOCATION:` points at.
pub fn description(name: &str) -> DeviceDescription {
    DeviceDescription {
        device_type: format!("urn:schemas-upnp-org:device:{name}:1"),
        friendly_name: format!("Bench {name}"),
        manufacturer: "indiss-benchmark".into(),
        manufacturer_url: "http://example.invalid".into(),
        model_description: "generated device".into(),
        model_name: name.to_owned(),
        model_number: "1.0".into(),
        model_url: "http://example.invalid/model".into(),
        udn: format!("uuid:{name}"),
        services: vec![ServiceDescription::conventional("ctl", 1)],
    }
}

/// Builds one type and appends its four templates.
fn make_type(
    name: String,
    native: Native,
    ttl: u16,
    rng: &mut Rng,
    templates: &mut Vec<Template>,
    descriptions: &mut Vec<(String, String)>,
    ty: u32,
) -> ServiceType {
    let host = format!("10.{}.{}.{}", rng.range(1, 250), rng.range(0, 250), rng.range(1, 250));
    let mut push = |bytes: Vec<u8>, port: Port, wire: Wire| {
        templates.push(Template { bytes, port, wire, ty });
        (templates.len() - 1) as u32
    };
    let request = push(slp_request(&format!("service:{name}")), Port::Slp, Wire::SlpRequest);
    let query =
        push(format!("DNSSD Q PTR _{name}._tcp.local").into_bytes(), Port::DnsSd, Wire::DnsQuery);
    let (slp_url, dnssd_url, alive, bye);
    match native {
        Native::Slp => {
            let url = format!("service:{name}:lpr://{host}:515/q");
            let reg = Message::new(
                Header::new(FunctionId::SrvReg, 0, "en"),
                Body::SrvReg(SrvReg {
                    entry: UrlEntry::new(url.clone(), ttl),
                    service_type: format!("service:{name}:lpr"),
                    scopes: "DEFAULT".into(),
                    attrs: "(location=lab)".into(),
                }),
            );
            let dereg = Message::new(
                Header::new(FunctionId::SrvDeReg, 0, "en"),
                Body::SrvDeReg(SrvDeReg {
                    scopes: "DEFAULT".into(),
                    entry: UrlEntry::new(url.clone(), 0),
                    tags: String::new(),
                }),
            );
            alive = push(reg.encode().expect("SrvReg encodes"), Port::Slp, Wire::SlpReg);
            bye = push(dereg.encode().expect("SrvDeReg encodes"), Port::Slp, Wire::SlpDeReg);
            // Already a native SLP URL: both composers pass it through.
            slp_url = url.clone();
            dnssd_url = url;
        }
        Native::Upnp => {
            let location = format!("http://{host}:4004/{name}.xml");
            let usn = format!("uuid:{name}::urn:schemas-upnp-org:device:{name}:1");
            let notify = |nts, location| Notify {
                nt: SearchTarget::device_urn(&name, 1),
                nts,
                usn: usn.clone(),
                location,
                server: "bench/1.0 UPnP/1.0".into(),
                max_age: u32::from(ttl),
            };
            alive = push(
                notify(NotifySubType::Alive, Some(location.clone())).to_bytes(),
                Port::Ssdp,
                Wire::Notify,
            );
            bye = push(notify(NotifySubType::ByeBye, None).to_bytes(), Port::Ssdp, Wire::NotifyBye);
            descriptions.push((location, description(&name).to_xml()));
            // Fig. 4: the control URL, made absolute, with the soap scheme.
            dnssd_url = format!("soap://{host}:4004/service/ctl/control");
            slp_url = format!("service:{name}:{dnssd_url}");
        }
        Native::DnsSd => {
            let url = format!("ipp://{host}:631/{name}");
            alive = push(
                format!("DNSSD ANNOUNCE _{name}._tcp.local SRV {url} TTL {ttl}").into_bytes(),
                Port::DnsSd,
                Wire::Announce,
            );
            bye = push(
                format!("DNSSD GOODBYE _{name}._tcp.local SRV {url}").into_bytes(),
                Port::DnsSd,
                Wire::Goodbye,
            );
            slp_url = format!("service:{name}:{url}");
            dnssd_url = url;
        }
    }
    ServiceType { name, native, slp_url, dnssd_url, request, query, alive, bye }
}

/// Per-workload state of the op stream.
enum Stream {
    WarmHit,
    AdvertChurn {
        /// SLP types whose latest advert is a `SrvReg`, oldest first.
        recent_regs: VecDeque<u32>,
    },
    MixedMiss {
        zipf: Zipf,
        /// Types `0..existing` are advertised; the rest never are.
        existing: usize,
        junk: Vec<u32>,
        msearch: Vec<u32>,
    },
}

/// Generated inputs of one live workload.
pub struct LiveInput {
    pub workload: Workload,
    pub types: Vec<ServiceType>,
    pub templates: Vec<Template>,
    /// `LOCATION:` URL → description document, handed to the gateway's
    /// `StaticDescriptions` in place of TCP description fetches.
    pub descriptions: Vec<(String, String)>,
    /// Priming adverts (template ids), sent before the warm-up.
    pub prime: Vec<u32>,
    rng: Rng,
    stream: Stream,
}

impl LiveInput {
    /// Generates the inputs of `workload` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when called for [`Workload::ColdBridge`], whose inputs are
    /// a simulated world (see `cold.rs`).
    pub fn generate(workload: Workload, seed: u64) -> LiveInput {
        let mut rng = Rng::new(seed ^ (workload as u64) << 56);
        // Names differ per seed, so shard routing and interner contents do too.
        let tag = format!("{:03x}", rng.next_u64() & 0xFFF);
        let mut templates = Vec::new();
        let mut descriptions = Vec::new();
        let mut types = Vec::new();
        let mut add = |prefix: &str, i: usize, native: Native, ttl: u16, rng: &mut Rng| {
            let ty = types.len() as u32;
            let name = format!("{prefix}{tag}-{i:x}");
            types.push(make_type(name, native, ttl, rng, &mut templates, &mut descriptions, ty));
        };
        let (prime, stream);
        match workload {
            Workload::WarmHit => {
                // 64 types announced through DNS-SD, asked for through
                // SLP: every request is a cross-SDP cache hit.
                for i in 0..64 {
                    add("w", i, Native::DnsSd, 3600, &mut rng);
                }
                prime = types.iter().map(|t| t.alive).collect();
                stream = Stream::WarmHit;
            }
            Workload::AdvertChurn => {
                // 16 384 types over three SDPs with 2–5 s TTLs against a
                // 4096-record registry: eviction, expiry, sweeps, epoch
                // republish and interner GC all run.
                for i in 0..16_384 {
                    let native = [Native::Slp, Native::Upnp, Native::DnsSd][i % 3];
                    let ttl = rng.range(2, 5) as u16;
                    add("c", i, native, ttl, &mut rng);
                }
                prime = (0..1024).map(|_| types[rng.below(types.len())].alive).collect();
                stream = Stream::AdvertChurn { recent_regs: VecDeque::new() };
            }
            Workload::MixedMiss => {
                // 1024 advertised types (4× the response cache) by Zipf
                // rank, then 256 that never exist.
                let existing = 1024;
                for i in 0..existing + 256 {
                    let native = if i % 2 == 0 { Native::DnsSd } else { Native::Slp };
                    add("m", i, native, 3600, &mut rng);
                }
                // Coldest first, so the cache starts out holding the head.
                prime = (0..existing).rev().map(|i| types[i].alive).collect();
                let mut push = |bytes: Vec<u8>, port: Port, wire: Wire, ty: u32| {
                    templates.push(Template { bytes, port, wire, ty });
                    (templates.len() - 1) as u32
                };
                let msearch = (0..types.len())
                    .map(|i| {
                        let st = SearchTarget::device_urn(&types[i].name, 1);
                        push(MSearch::new(st, 0).to_bytes(), Port::Ssdp, Wire::MSearch, i as u32)
                    })
                    .collect();
                let junk = (0..256)
                    .map(|i| {
                        let (bytes, port) = junk_frame(i, &types, &templates, &mut rng);
                        templates.push(Template { bytes, port, wire: Wire::Junk, ty: u32::MAX });
                        (templates.len() - 1) as u32
                    })
                    .collect();
                stream =
                    Stream::MixedMiss { zipf: Zipf::new(existing, 1.0), existing, junk, msearch };
            }
            Workload::ColdBridge => panic!("cold_bridge has no wire inputs"),
        }
        LiveInput { workload, types, templates, descriptions, prime, rng, stream }
    }

    /// The next `n` ops of the workload's seeded stream.
    pub fn ops(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> Op {
        let rng = &mut self.rng;
        let types = &self.types;
        match &mut self.stream {
            Stream::WarmHit => {
                let ty = rng.below(types.len());
                Op { tmpl: types[ty].request, expect: Expect::Answer(ty as u32) }
            }
            Stream::AdvertChurn { recent_regs } => {
                // 10 % probes. A probe asks for one of the last four types
                // registered *on the SLP channel itself*: same socket, same
                // lane, so FIFO order guarantees the gateway has processed
                // the registration, and so few adverts lie in between that
                // the 16-entry-per-shard LRU cannot have evicted it.
                if rng.unit() < 0.10 && !recent_regs.is_empty() {
                    let back = rng.below(recent_regs.len().min(4));
                    let ty = recent_regs[recent_regs.len() - 1 - back];
                    return Op { tmpl: types[ty as usize].request, expect: Expect::Answer(ty) };
                }
                let ty = rng.below(types.len());
                let alive = rng.unit() < 0.85;
                if types[ty].native == Native::Slp {
                    recent_regs.retain(|t| *t != ty as u32);
                    if alive {
                        recent_regs.push_back(ty as u32);
                        if recent_regs.len() > 8 {
                            recent_regs.pop_front();
                        }
                    }
                }
                let tmpl = if alive { types[ty].alive } else { types[ty].bye };
                Op { tmpl, expect: Expect::Advert }
            }
            Stream::MixedMiss { zipf, existing, junk, msearch } => {
                let absent = |rng: &mut Rng| *existing + rng.below(types.len() - *existing);
                let roll = rng.unit();
                if roll < 0.35 {
                    let ty = zipf.sample(rng);
                    Op { tmpl: types[ty].request, expect: Expect::Maybe(ty as u32) }
                } else if roll < 0.40 {
                    // Periodic re-announcement keeps the LRU turning over.
                    Op { tmpl: types[zipf.sample(rng)].alive, expect: Expect::Advert }
                } else if roll < 0.60 {
                    Op { tmpl: types[absent(rng)].request, expect: Expect::Silent }
                } else if roll < 0.80 {
                    let ty = if rng.unit() < 0.7 { zipf.sample(rng) } else { absent(rng) };
                    Op { tmpl: msearch[ty], expect: Expect::Silent }
                } else if roll < 0.90 {
                    let ty = zipf.sample(rng);
                    Op { tmpl: types[ty].query, expect: Expect::Maybe(ty as u32) }
                } else {
                    Op { tmpl: junk[rng.below(junk.len())], expect: Expect::Silent }
                }
            }
        }
    }
}

/// One junk frame: random bytes of 8–1400 B (first byte `0xFF`: not an
/// SLP version, not UTF-8), or a *request* cut short. Adverts are never
/// truncated — a cut `ANNOUNCE` can still parse, with a wrong URL.
fn junk_frame(
    i: usize,
    types: &[ServiceType],
    templates: &[Template],
    rng: &mut Rng,
) -> (Vec<u8>, Port) {
    if i.is_multiple_of(2) {
        let mut bytes = vec![0u8; rng.range(8, 1400)];
        rng.fill(&mut bytes);
        bytes[0] = 0xFF;
        (bytes, [Port::Slp, Port::Ssdp, Port::DnsSd][rng.below(3)])
    } else {
        let ty = &types[rng.below(types.len())];
        let whole = &templates[if i % 4 == 1 { ty.request } else { ty.query } as usize];
        let cut = rng.range(8, whole.bytes.len() - 1);
        (whole.bytes[..cut].to_vec(), whole.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::WarmHit, Workload::AdvertChurn, Workload::MixedMiss] {
            let (mut a, mut b) = (LiveInput::generate(w, 5), LiveInput::generate(w, 5));
            assert_eq!(a.types[3].slp_url, b.types[3].slp_url);
            let (x, y) = (a.ops(500), b.ops(500));
            assert!(x.iter().zip(&y).all(|(p, q)| p.tmpl == q.tmpl && p.expect == q.expect));
            let c = LiveInput::generate(w, 6);
            assert_ne!(a.types[3].name, c.types[3].name);
        }
    }

    #[test]
    fn request_templates_are_small_and_patchable() {
        let input = LiveInput::generate(Workload::WarmHit, 1);
        let mut wire = input.templates[input.types[0].request as usize].bytes.clone();
        assert!(wire.len() <= 64, "minimum-size request, got {} B", wire.len());
        patch_xid(&mut wire, 0xBEEF);
        assert_eq!(Message::decode(&wire).expect("still valid").header.xid, 0xBEEF);
    }
}
