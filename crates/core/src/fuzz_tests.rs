//! Decoder fuzz hardening: deterministic mutation fuzzing over every
//! wire decoder the gateway exposes to untrusted datagrams.
//!
//! A gateway on a hostile LAN parses whatever arrives on its SDP
//! ports; a decoder panic is a remote crash and an attacker-sized
//! allocation is a remote OOM. This module drives every stateless
//! datagram codec — [`crate::units::slp::slp_wire_events`],
//! [`crate::units::upnp::decode_ssdp_wire`],
//! [`SdpDescriptor::decode_wire`], plus the underlying protocol
//! parsers (`indiss_slp::Message::decode`,
//! `indiss_ssdp::SsdpMessage::parse`, `indiss_jini::JiniPacket::decode`)
//! — with seeded-random inputs: raw byte soup and structured mutations
//! (bit flips, truncations, splices, length-field abuse) of valid
//! encodings.
//!
//! Everything is deterministic: a SplitMix64 stream from a fixed seed,
//! so a failure reproduces by iteration number. `FUZZ_ITERS` scales
//! the run — default 10 000 (the CI smoke bar); the full local bar is
//! one run at 1 000 000.
//!
//! Inputs that once exposed a weakness (or pin a nasty edge) are
//! committed below in [`corpus`] as plain regression tests, so the
//! full fuzz run is not needed to keep the fixes honest.
//!
//! Beyond "never panic", every input is checked against one round-trip
//! law: the SLP view decode agrees with the owned decode.

use std::net::{Ipv4Addr, SocketAddrV4};

use crate::config::IndissConfig;
use crate::mesh::wire as mesh_wire;
use crate::scenario::MutationSource;
use crate::symbol::Symbol;
use crate::units::{slp, upnp, SdpDescriptor};

/// The mesh key the fuzz loop decodes with — matches the key the mesh
/// frame seeds below are signed with, so mutated frames reach the body
/// parsers through the signed path too.
const MESH_KEY: u64 = 0x1D15_5000_0000_4EED;

fn src() -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::new(10, 66, 0, 99), 41_000)
}

/// Valid encodings of every protocol the gateway decodes — the corpus
/// the mutators start from, so the fuzz walk spends its budget just
/// past the "well-formed" boundary where parser bugs live.
fn seeds() -> Vec<Vec<u8>> {
    use indiss_slp::{Body, FunctionId, Header, Message};
    let slp = |function: FunctionId, body: Body| {
        Message::new(Header::new(function, 0x0F00, "en"), body).encode().expect("encodable seed")
    };
    let mut out = vec![
        slp(
            FunctionId::SrvRqst,
            Body::SrvRqst(indiss_slp::SrvRqst {
                prlist: String::new(),
                service_type: "service:clock".into(),
                scopes: "DEFAULT".into(),
                predicate: "(room=42)".into(),
                spi: String::new(),
            }),
        ),
        slp(
            FunctionId::SrvRply,
            Body::SrvRply(indiss_slp::SrvRply {
                error: 0,
                urls: vec![indiss_slp::UrlEntry::new(
                    "service:clock:soap://10.0.0.2:4004/control",
                    1800,
                )],
            }),
        ),
        slp(
            FunctionId::SrvReg,
            Body::SrvReg(indiss_slp::SrvReg {
                entry: indiss_slp::UrlEntry::new("service:printer://10.0.0.3:515/lpr", 600),
                service_type: "service:printer".into(),
                scopes: "DEFAULT".into(),
                attrs: "(paper=a4),(duplex=true)".into(),
            }),
        ),
        slp(
            FunctionId::SrvTypeRqst,
            Body::SrvTypeRqst(indiss_slp::SrvTypeRqst {
                prlist: String::new(),
                naming_authority: Some("iana".into()),
                scopes: "DEFAULT".into(),
            }),
        ),
        indiss_ssdp::Notify {
            nt: indiss_ssdp::SearchTarget::device_urn("clock", 1),
            nts: indiss_ssdp::NotifySubType::Alive,
            usn: "uuid:FuzzClock::urn:schemas-upnp-org:device:clock:1".into(),
            location: Some("http://10.66.0.2:4004/description.xml".into()),
            server: "fuzz/1.0".into(),
            max_age: 1800,
        }
        .to_bytes(),
        b"M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nMAN: \"ssdp:discover\"\r\n\
          MX: 2\r\nST: urn:schemas-upnp-org:device:clock:1\r\n\r\n"
            .to_vec(),
        b"HTTP/1.1 200 OK\r\nST: urn:schemas-upnp-org:device:clock:1\r\nUSN: uuid:FuzzClock\r\n\
          LOCATION: http://10.66.0.2:4004/d.xml\r\nCACHE-CONTROL: max-age=1800\r\n\r\n"
            .to_vec(),
        b"DNSSD Q PTR _scanner._tcp.local".to_vec(),
        b"DNSSD A PTR _scanner._tcp.local SRV scan://10.0.4.1:6566/sane TTL 120".to_vec(),
        indiss_jini::JiniPacket::Announcement {
            host: "10.66.0.7".into(),
            port: 4160,
            groups: vec!["public".into()],
        }
        .encode(),
        indiss_jini::JiniPacket::Register {
            item: indiss_jini::ServiceItem {
                service_id: 0xF00D,
                service_type: "clock".into(),
                endpoint: "10.66.0.7:4161".into(),
                attributes: vec![("room".into(), "42".into())],
            },
            lease_secs: 300,
        }
        .encode(),
        indiss_jini::JiniPacket::Lookup { service_type: "clock".into() }.encode(),
        mesh_wire::encode_frame(
            &mesh_wire::Frame::Digest { from: 7100, round: 3, versions: vec![0, 4, 17, 9] },
            MESH_KEY,
        ),
        mesh_wire::encode_frame(
            &mesh_wire::Frame::Records {
                from: 7100,
                shard: 1,
                version: 4,
                records: vec![
                    mesh_wire::WireRecord {
                        origin: mesh_wire::WireOrigin::Builtin(crate::event::SdpProtocol::Upnp),
                        canonical_type: "clock".into(),
                        key: "uuid:FuzzClock::urn:clock".into(),
                        url: Some("soap://10.66.0.2:4004/ctl".into()),
                        ttl_secs: Some(1800),
                    },
                    mesh_wire::WireRecord {
                        origin: mesh_wire::WireOrigin::Dynamic {
                            name: "dns-sd".into(),
                            port: 5353,
                        },
                        canonical_type: "printer".into(),
                        key: "printer".into(),
                        url: None,
                        ttl_secs: None,
                    },
                ],
            },
            MESH_KEY,
        ),
        mesh_wire::encode_frame(
            &mesh_wire::Frame::Pull { from: 7101, round: 3, shards: vec![1, 2, 3] },
            MESH_KEY,
        ),
    ];
    // A maximal-ish datagram keeps the mutators honest about length
    // handling without slowing the loop.
    out.push(vec![0x41; 1472]);
    out
}

/// Valid `System SDP = { … }` texts — the corpus the config-language
/// fuzz walk mutates. Includes every block, numeric extremes at the
/// validation boundaries, and the paper's own example, so splices land
/// just past the "well-formed" edge where parser bugs live.
fn config_seeds() -> Vec<Vec<u8>> {
    [
        "System SDP = {\n\
         Component Monitor = { ScanPort = { 1900; 4160; 427 } }\n\
         Component Unit SLP(port=427);\n\
         Component Unit UPnP(port=1900);\n\
         Component Unit JINI(port=4160); }",
        "System SDP = {\n\
         Peers = { 7100; 7101; 7102 }\n\
         Trace = { Enabled = 1; Capacity = 4096; StatsPort = 9900 };\n\
         Component Unit SLP(port=427); }",
        "System SDP = {\n\
         Component Unit DNS-SD(port=5353) = {\n\
           Group  = 224.0.0.251;\n\
           Ttl    = 120;\n\
           Query  = \"DNSSD Q PTR _{type}._tcp.local\";\n\
           Answer = \"DNSSD A PTR _{type}._tcp.local SRV {url} TTL {ttl}\";\n\
         }; }",
        // Numbers parked on the validation boundaries — one bit flip or
        // splice away from every off-by-one.
        "System SDP = { Peers = { 65535; 0 }\n\
           Trace = { Enabled = 0; Capacity = 16777216; StatsPort = 65535 };\n\
           Component Unit X(port=65535) = { Group = 239.255.255.255; Ttl = 4294967295;\n\
             Query = \"X? {type}\"; Answer = \"X! {type} {url}\" }; }",
        "System SDP = { Trace = { Capacity = 1; StatsPort = 0 };\n\
           Component Unit Y(port=1) = { Group = 224.0.0.1; Ttl = 0;\n\
             Query = \"Y? {type}\"; Answer = \"Y! {type} {url}\" }; }",
    ]
    .iter()
    .map(|text| text.as_bytes().to_vec())
    .collect()
}

/// Every decoder sees every input — including each other's traffic
/// (cross-protocol confusion is exactly what a shared-port hostile LAN
/// serves up). Panics propagate and fail the test; all `Result`s and
/// `ParsedMessage`s are intentionally discarded.
fn decode_all(descriptor: &SdpDescriptor, payload: &[u8]) {
    let at = src();
    let _ = slp::slp_wire_events(slp::decode_slp(payload), at, true);
    let _ = slp::slp_wire_events(slp::decode_slp(payload), at, false);
    let _ = upnp::decode_ssdp_wire(payload, at);
    let _ = descriptor.decode_wire(payload, at, true);
    let _ = descriptor.decode_wire(payload, at, false);
    let _ = indiss_slp::Message::decode(payload);
    let _ = indiss_ssdp::SsdpMessage::parse(payload);
    let _ = indiss_jini::JiniPacket::decode(payload);
    // Mesh peer frames: the signed path (signature verification plus
    // body decode) and the unchecked body parsers, which mutated
    // signatures would otherwise shield from coverage.
    let _ = mesh_wire::decode_frame(payload, MESH_KEY);
    let _ = mesh_wire::decode_unchecked(payload);
    slp_views_agree_with_owned_decode(payload);
}

/// The SLP round-trip law the gateway's hit path rests on: decoding
/// through the borrowed views agrees with `Message::decode` — both fail,
/// or both succeed and the views' `to_owned()` is the owned message.
/// Every fuzz input and every corpus input goes through it.
fn slp_views_agree_with_owned_decode(payload: &[u8]) {
    use indiss_slp::{Body, FunctionId, HeaderView, Message, SrvRqstView};
    let viewed = HeaderView::decode(payload).and_then(|(header, body)| match header.function {
        FunctionId::SrvRqst => SrvRqstView::decode(body).map(|rqst| Message {
            header: header.to_owned(),
            body: Body::SrvRqst(rqst.to_owned()),
        }),
        _ => Message::decode_body(header, body),
    });
    assert_eq!(viewed.ok(), Message::decode(payload).ok(), "view decode disagrees: {payload:02X?}");
}

/// The fuzz loop. `FUZZ_ITERS` (default 10 000) scales the walk;
/// failures print the offending iteration and input so they can be
/// frozen into [`corpus`]. Inputs come from
/// [`crate::scenario::MutationSource`] — the same generator the
/// scenario engine's live adversarial injector draws from.
#[test]
fn fuzz_all_wire_decoders() {
    let iters: u64 =
        std::env::var("FUZZ_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let descriptor = SdpDescriptor::dns_sd();
    // Pre-fuzz live-symbol footprint, for the growth bound below.
    Symbol::collect();
    let baseline = Symbol::interned_bytes();

    let mut source = MutationSource::new(0x1D15_5F00_D5EE_D001, seeds());
    for i in 0..iters {
        let payload = source.next_input();
        let guard = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decode_all(&descriptor, &payload);
        }));
        if let Err(panic) = guard {
            eprintln!("fuzz crasher at iteration {i}: {payload:02X?}");
            std::panic::resume_unwind(panic);
        }
    }

    // Unbounded-allocation guard: hostile type names are interned
    // transiently, so after a collection the table must be back near
    // its pre-fuzz footprint — not scaled by the iteration count.
    // (Other tests intern concurrently, hence the slack.)
    Symbol::collect();
    let after = Symbol::interned_bytes();
    assert!(
        after < baseline + 64 * 1024,
        "interner retained fuzz garbage: {baseline} -> {after} bytes"
    );
}

/// The §3 config parser as a fuzz entry point: config soup, line
/// splices between valid system texts, and numeric-field abuse (the
/// boundary-value seeds above, mutated). The parser must reject or
/// accept — never panic.
#[test]
fn fuzz_config_language() {
    let iters: u64 = std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(4_000, |n: u64| (n / 2).max(1_000));
    Symbol::collect();
    let baseline = Symbol::interned_bytes();

    let mut source = MutationSource::new(0x1D15_5F00_D5EE_D002, config_seeds());
    for i in 0..iters {
        let payload = source.next_input();
        let text = String::from_utf8_lossy(&payload).into_owned();
        let guard = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = IndissConfig::from_system_sdp(&text);
        }));
        if let Err(panic) = guard {
            eprintln!("config fuzz crasher at iteration {i}: {text:?}");
            std::panic::resume_unwind(panic);
        }
    }

    Symbol::collect();
    let after = Symbol::interned_bytes();
    assert!(
        after < baseline + 64 * 1024,
        "config parsing retained interner garbage: {baseline} -> {after} bytes"
    );
}

/// The committed corpus: inputs that pin decoder hardening decisions.
/// Each runs through every decoder (panic = regression) and then
/// asserts the specific property the input was frozen for.
mod corpus {
    use super::*;

    /// Empty and sub-header datagrams: the first length check.
    #[test]
    fn sub_header_datagrams() {
        let descriptor = SdpDescriptor::dns_sd();
        for payload in [&b""[..], &[0x02][..], &[0x02, 0x01][..], &b"\r\n\r\n"[..]] {
            decode_all(&descriptor, payload);
        }
    }

    /// An SLP header whose declared length field exceeds the datagram:
    /// must reject as truncated, not read past the buffer or
    /// preallocate the declared size.
    #[test]
    fn slp_length_overrun_rejected() {
        let mut wire = indiss_slp::Header::new(indiss_slp::FunctionId::SrvRqst, 7, "en")
            .encode_with_body(&[0u8; 8])
            .expect("encodable");
        wire[2] = 0xFF;
        wire[3] = 0xFF;
        wire[4] = 0xFF; // declared length 16 MiB
        assert!(indiss_slp::Message::decode(&wire).is_err(), "overrun length must not decode");
        decode_all(&SdpDescriptor::dns_sd(), &wire);
    }

    /// A `SrvTypeRqst` declaring a 0xFFFE-byte naming authority in a
    /// tiny datagram: the decode must fail on truncation without
    /// allocating the declared 64 KiB up front (the preallocation is
    /// capped — this input is why).
    #[test]
    fn slp_naming_authority_length_abuse() {
        let mut body = Vec::new();
        body.extend_from_slice(&[0x00, 0x00]); // empty prlist
        body.extend_from_slice(&[0xFF, 0xFE]); // naming authority "length"
        body.extend_from_slice(b"ab"); // ...but only 2 bytes follow
        let wire = indiss_slp::Header::new(indiss_slp::FunctionId::SrvTypeRqst, 9, "en")
            .encode_with_body(&body)
            .expect("encodable");
        assert!(indiss_slp::Message::decode(&wire).is_err(), "truncated authority must fail");
        decode_all(&SdpDescriptor::dns_sd(), &wire);
    }

    /// A Jini `LookupReply` claiming 65 535 items with no bodies: the
    /// reader's capped preallocation plus truncation error, not a
    /// 65 535-element reserve.
    #[test]
    fn jini_item_count_abuse() {
        let mut wire = indiss_jini::JiniPacket::LookupReply { items: vec![] }.encode();
        let n = wire.len();
        wire[n - 2] = 0xFF;
        wire[n - 1] = 0xFF;
        assert!(indiss_jini::JiniPacket::decode(&wire).is_err(), "item-count lie must fail");
        decode_all(&SdpDescriptor::dns_sd(), &wire);
    }

    /// Non-UTF-8 bytes inside SSDP headers and descriptor lines: the
    /// text-shaped decoders must reject or ignore, never panic on a
    /// char boundary.
    #[test]
    fn non_utf8_text_frames() {
        let descriptor = SdpDescriptor::dns_sd();
        let mut ssdp = b"NOTIFY * HTTP/1.1\r\nNT: ".to_vec();
        ssdp.extend_from_slice(&[0xC3, 0x28, 0xFF, 0xFE]); // invalid UTF-8
        ssdp.extend_from_slice(b"\r\nNTS: ssdp:alive\r\n\r\n");
        decode_all(&descriptor, &ssdp);

        let mut dnssd = b"DNSSD Q PTR ".to_vec();
        dnssd.extend_from_slice(&[0xF0, 0x9F, 0x00, 0x80]);
        decode_all(&descriptor, &dnssd);
    }

    /// A descriptor line of maximal datagram size with no terminator,
    /// and one that is all newlines: line-splitting edge cases.
    #[test]
    fn descriptor_line_extremes() {
        let descriptor = SdpDescriptor::dns_sd();
        decode_all(&descriptor, &[b'A'; 1472]);
        decode_all(&descriptor, &[b'\n'; 64]);
        let mut long_query = b"DNSSD Q PTR ".to_vec();
        long_query.extend(std::iter::repeat_n(b'x', 1400));
        decode_all(&descriptor, &long_query);
    }

    /// A mesh Records frame claiming the maximum record count with no
    /// bytes behind it: the count floor must refuse before any
    /// preallocation, through both the signed and unchecked paths.
    #[test]
    fn mesh_record_count_abuse() {
        // Body: from(2) + shard(2) + version(8) + count(2) = 14 bytes,
        // count says 512 records follow; none do.
        let mut wire = b"IMSH".to_vec();
        wire.push(1); // wire version
        wire.push(3); // Records
        wire.extend_from_slice(&[0u8; 8]); // bogus signature
        wire.extend_from_slice(&7100u16.to_le_bytes());
        wire.extend_from_slice(&0u16.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&512u16.to_le_bytes());
        assert!(mesh_wire::decode_unchecked(&wire).is_err(), "count lie must not decode");
        decode_all(&SdpDescriptor::dns_sd(), &wire);
    }

    /// A signed mesh frame truncated at every length, and with every
    /// byte corrupted one at a time: decode must reject (the signature
    /// catches the flips) and never panic.
    #[test]
    fn mesh_frame_truncation_and_flips() {
        let descriptor = SdpDescriptor::dns_sd();
        let good = mesh_wire::encode_frame(
            &mesh_wire::Frame::Digest { from: 7100, round: 1, versions: vec![2, 2] },
            MESH_KEY,
        );
        for len in 0..good.len() {
            assert!(mesh_wire::decode_frame(&good[..len], MESH_KEY).is_err());
            decode_all(&descriptor, &good[..len]);
        }
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0xFF;
            assert!(mesh_wire::decode_frame(&bad, MESH_KEY).is_err());
            decode_all(&descriptor, &bad);
        }
    }

    /// Non-UTF-8 bytes inside a mesh record string: rejected as
    /// `BadString`, never sliced on a char boundary.
    #[test]
    fn mesh_non_utf8_record_strings() {
        // Relay body: from(2) + count(2) + one record whose type string
        // claims 4 bytes of invalid UTF-8.
        let mut wire = b"IMSH".to_vec();
        wire.push(1);
        wire.push(5); // Relay
        wire.extend_from_slice(&[0u8; 8]);
        wire.extend_from_slice(&7100u16.to_le_bytes());
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.push(0); // origin: SLP
        wire.extend_from_slice(&4u16.to_le_bytes());
        wire.extend_from_slice(&[0xC3, 0x28, 0xFF, 0xFE]);
        assert!(mesh_wire::decode_unchecked(&wire).is_err(), "invalid UTF-8 must not decode");
        decode_all(&SdpDescriptor::dns_sd(), &wire);
    }

    /// Config-language inputs the fuzz walk is prone to producing:
    /// each must come back as a clean `Err`, never a panic. The
    /// numeric-abuse lines pin the lexer's checked `u64` parse and the
    /// narrowing of each numeric key to its field's range.
    #[test]
    fn config_numeric_field_abuse() {
        for text in [
            // Lexer-level overflow: too many digits for u64.
            "System SDP = { Trace = { Capacity = 99999999999999999999999999 }; }",
            // Field-level overflow: fits u64, not the field.
            "System SDP = { Trace = { Capacity = 18446744073709551615 }; }",
            "System SDP = { Trace = { StatsPort = 65536 }; }",
            "System SDP = { Peers = { 4294967295 } }",
        ] {
            assert!(
                IndissConfig::from_system_sdp(text).is_err(),
                "numeric abuse must be rejected: {text}"
            );
        }
    }

    /// Structural config soup: splices, truncations and repetitions of
    /// valid blocks. Accept or reject — never panic.
    #[test]
    fn config_soup_and_splices() {
        for text in [
            // Blocks truncated mid-key, mid-number, mid-block.
            "System SDP = { Trace = { Capa",
            "System SDP = { Trace = { Capacity = 4",
            "System SDP = { Peers = { 7100; ",
            "System SDP = { Component Unit X(port=6400) = { Group = 239.",
            // The Monitor block spliced into a Trace block.
            "System SDP = { Trace = { ScanPort = { 1900; 427 } }; }",
            // A block keyword where a unit should be.
            "System SDP = { Component Unit Trace(port=1); }",
            // Two Trace blocks: last one wins, no panic.
            "System SDP = { Trace = { Capacity = 1 }; Trace = { Capacity = 2 }; \
             Component Unit SLP(port=427); }",
            // Unterminated string from a spliced descriptor.
            "System SDP = { Component Unit X(port=6400) = { Query = \"LP? {type}",
            // Deep brace nesting with no content.
            "System SDP = { Peers = { { { { { } } } } }; }",
            "System SDP = { Component Unit X(port=6400) = { { { { } } } }; }",
        ] {
            let _ = IndissConfig::from_system_sdp(text);
        }
        // The two-Trace splice specifically: last block wins.
        let config = IndissConfig::from_system_sdp(
            "System SDP = { Trace = { Capacity = 1 }; Trace = { Capacity = 2 }; \
             Component Unit SLP(port=427); }",
        )
        .expect("repeated Trace blocks parse");
        assert_eq!(config.trace_capacity, 2);
    }

    /// An SLP URL entry whose lifetime/URL-length fields lie about the
    /// remaining bytes (the classic SrvRply parse trap).
    #[test]
    fn slp_url_entry_length_lie() {
        let reply = indiss_slp::Message::new(
            indiss_slp::Header::new(indiss_slp::FunctionId::SrvRply, 11, "en"),
            indiss_slp::Body::SrvRply(indiss_slp::SrvRply {
                error: 0,
                urls: vec![indiss_slp::UrlEntry::new("service:clock://10.0.0.2:4004", 1800)],
            }),
        )
        .encode()
        .expect("encodable");
        // Flip every possible two-byte window to 0xFFFF, one at a time:
        // whatever field that hits (count, lifetime, URL length), decode
        // must return, not panic.
        for at in 0..reply.len() - 1 {
            let mut wire = reply.clone();
            wire[at] = 0xFF;
            wire[at + 1] = 0xFF;
            let _ = indiss_slp::Message::decode(&wire);
            decode_all(&SdpDescriptor::dns_sd(), &wire);
        }
    }
}
