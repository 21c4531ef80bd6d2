//! Round-trip laws of the SSDP codec: every valid message parses back to
//! itself, and serialize ∘ parse reaches a fixpoint after one step on
//! targets that parse into a normal form.

use proptest::prelude::*;

use indiss_ssdp::{MSearch, Notify, NotifySubType, SearchResponse, SearchTarget, SsdpMessage};

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9._/-]{0,16}"
}

/// A URN type name; `:` inside it is legal (the version follows the
/// last one).
fn urn_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9:._-]{0,12}"
}

fn arb_target() -> impl Strategy<Value = SearchTarget> {
    prop_oneof![
        Just(SearchTarget::All),
        Just(SearchTarget::RootDevice),
        token().prop_map(SearchTarget::Uuid),
        (urn_name(), any::<u32>())
            .prop_map(|(name, version)| SearchTarget::DeviceType { name, version }),
        (urn_name(), any::<u32>())
            .prop_map(|(name, version)| SearchTarget::ServiceType { name, version }),
        // A vendor target like the paper's `upnp:clock`; the trailing
        // digit keeps it clear of `upnp:rootdevice`.
        "upnp:[a-z]{0,8}[0-9]".prop_map(SearchTarget::Custom),
    ]
}

/// `Notify::server` and `SearchResponse::server`: empty (not sent) or
/// words separated by single spaces, as banners are.
fn banner() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        ("[a-zA-Z0-9/.]{1,10}", "[a-zA-Z0-9/.]{1,10}").prop_map(|(a, b)| format!("{a} {b}")),
    ]
}

fn url() -> impl Strategy<Value = String> {
    ("[0-9]{1,3}", any::<u16>(), "[a-z/]{0,12}")
        .prop_map(|(host, port, path)| format!("http://10.0.0.{host}:{port}/{path}"))
}

fn usn() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9:._-]{0,24}"
}

fn arb_message() -> impl Strategy<Value = SsdpMessage> {
    let nts = prop_oneof![
        Just(NotifySubType::Alive),
        Just(NotifySubType::ByeBye),
        Just(NotifySubType::Update)
    ];
    prop_oneof![
        (arb_target(), any::<u8>()).prop_map(|(st, mx)| SsdpMessage::MSearch(MSearch { st, mx })),
        (arb_target(), nts, usn(), proptest::option::of(url()), banner(), any::<u32>()).prop_map(
            |(nt, nts, usn, location, server, max_age)| {
                SsdpMessage::Notify(Notify { nt, nts, usn, location, server, max_age })
            }
        ),
        (arb_target(), usn(), url(), banner(), any::<u32>()).prop_map(
            |(st, usn, location, server, max_age)| {
                SsdpMessage::Response(SearchResponse { st, usn, location, server, max_age })
            }
        ),
    ]
}

fn to_bytes(message: &SsdpMessage) -> Vec<u8> {
    match message {
        SsdpMessage::MSearch(m) => m.to_bytes(),
        SsdpMessage::Notify(n) => n.to_bytes(),
        SsdpMessage::Response(r) => r.to_bytes(),
    }
}

/// Any string a peer may put in `ST:` or `NT:`: the reserved words in
/// any case, versioned and unversioned URNs, padding.
fn target_text() -> impl Strategy<Value = String> {
    let prefix = prop_oneof![
        Just(""),
        Just("uuid:"),
        Just("urn:schemas-upnp-org:device:"),
        Just("urn:schemas-upnp-org:service:"),
        Just("SSDP:ALL"),
        Just("upnp:RootDevice"),
    ];
    (" {0,2}", prefix, "[a-zA-Z0-9:. ]{0,10}", " {0,2}")
        .prop_map(|(lead, prefix, rest, trail)| format!("{lead}{prefix}{rest}{trail}"))
}

proptest! {
    /// Every valid message parses back to itself.
    #[test]
    fn messages_roundtrip(message in arb_message()) {
        prop_assert_eq!(SsdpMessage::parse(&to_bytes(&message)).unwrap(), message);
    }

    /// Serializing what was parsed is a fixpoint after one step: the
    /// bytes a gateway re-emits for any target text parse to the same
    /// message and serialize to the same bytes again.
    #[test]
    fn serialize_after_parse_is_a_fixpoint(text in target_text(), mx in any::<u8>()) {
        let wire = format!(
            "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nMAN: \"ssdp:discover\"\r\n\
             MX: {mx}\r\nST: {text}\r\n\r\n"
        );
        let Ok(first) = SsdpMessage::parse(wire.as_bytes()) else { continue };
        let bytes = to_bytes(&first);
        let second = SsdpMessage::parse(&bytes).unwrap();
        prop_assert_eq!(&second, &first, "{:?}", text);
        prop_assert_eq!(to_bytes(&second), bytes);
    }
}
