//! `DeviceDescription::from_xml` reads descriptions in one pass over
//! borrowed tokens; the DOM walk it replaced, kept here as the oracle,
//! must read every document the same way: the same fields and services,
//! or the same error kind at the same offset.

use proptest::prelude::*;
use proptest::TestRng;

use indiss_upnp::{DeviceDescription, ServiceDescription};
use indiss_xml::{Element, XmlError};

/// The DOM-based reader `from_xml` replaced, verbatim.
fn dom_from_xml(xml: &str) -> Result<DeviceDescription, XmlError> {
    let root = Element::parse(xml)?;
    let device = root.child("device").unwrap_or(&root);
    let text = |name: &str| device.child_text(name).unwrap_or_default().to_owned();
    let mut services = Vec::new();
    if let Some(list) = device.child("serviceList") {
        for s in list.children_named("service") {
            let stext = |name: &str| s.child_text(name).unwrap_or_default().to_owned();
            services.push(ServiceDescription {
                service_type: stext("serviceType"),
                service_id: stext("serviceId"),
                control_url: stext("controlURL"),
                event_sub_url: stext("eventSubURL"),
                scpd_url: stext("SCPDURL"),
            });
        }
    }
    Ok(DeviceDescription {
        device_type: text("deviceType"),
        friendly_name: text("friendlyName"),
        manufacturer: text("manufacturer"),
        manufacturer_url: text("manufacturerURL"),
        model_description: text("modelDescription"),
        model_name: text("modelName"),
        model_number: text("modelNumber"),
        model_url: text("modelURL"),
        udn: text("UDN"),
        services,
    })
}

fn assert_agree(doc: &str) -> Result<DeviceDescription, XmlError> {
    let read = DeviceDescription::from_xml(doc);
    assert_eq!(read, dom_from_xml(doc), "the readers disagree on {doc:?}");
    read
}

/// Field values: plain, padded, escaped and non-ASCII text, and every
/// content shape the "exactly one text run and no element" rule decides.
const VALUES: &[&str] = &[
    "Clock",
    "/ctl",
    " padded value ",
    "a &amp; b",
    "é日",
    "",
    "  \n  ",
    "&#32;",
    "x<![CDATA[y]]>",
    "<![CDATA[cd]]>",
    " a <!-- c --> ",
    "a<!-- c -->b",
    "a<b>c</b>",
    "<b/>",
    "<!-- only -->",
];

const DEVICE_FIELDS: &[&str] = &[
    "deviceType",
    "friendlyName",
    "u:friendlyName",
    "manufacturer",
    "manufacturerURL",
    "modelDescription",
    "modelName",
    "modelNumber",
    "modelURL",
    "UDN",
    "x:UDN",
];

const SERVICE_FIELDS: &[&str] =
    &["serviceType", "serviceId", "controlURL", "u:controlURL", "eventSubURL", "SCPDURL"];

/// One field element, now and then self-closing.
fn field(names: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..names.len(), 0..VALUES.len(), 0u8..8)
        .prop_map(move |(n, v, shape)| match shape {
            0 => format!("<{}/>", names[n]),
            _ => format!("<{0}>{1}</{0}>", names[n], VALUES[v]),
        })
        .boxed()
}

fn service_element() -> BoxedStrategy<String> {
    proptest::collection::vec(
        prop_oneof![field(SERVICE_FIELDS), Just("<other>x</other>".to_owned())],
        0..7,
    )
    .prop_map(|fields| format!("<service>{}</service>", fields.concat()))
    .boxed()
}

fn service_list() -> BoxedStrategy<String> {
    proptest::collection::vec(
        prop_oneof![service_element(), service_element(), Just("<other/>".to_owned())],
        0..3,
    )
    .prop_map(|services| format!("<serviceList>{}</serviceList>", services.concat()))
    .boxed()
}

/// A device element: fields (repeated and prefixed ones included),
/// service lists, whitespace, comments and — while `nesting` lasts — an
/// embedded `deviceList` whose fields must not leak out.
fn device(nesting: u32) -> BoxedStrategy<String> {
    let name = prop_oneof![Just("device"), Just("device"), Just("u:device")];
    let mut parts = vec![
        field(DEVICE_FIELDS),
        field(DEVICE_FIELDS),
        field(DEVICE_FIELDS),
        service_list(),
        Just("\n  <!-- c -->".to_owned()).boxed(),
    ];
    if nesting > 0 {
        parts.push(
            device(nesting - 1).prop_map(|d| format!("<deviceList>{d}</deviceList>")).boxed(),
        );
    }
    let part = proptest::Union { options: parts };
    (name, proptest::collection::vec(part, 0..10))
        .prop_map(|(name, parts)| format!("<{name}>{}</{name}>", parts.concat()))
        .boxed()
}

/// What the root holds: devices (none, one or several), and fields and
/// service lists of its own that count only when there is no device.
fn root_part() -> BoxedStrategy<String> {
    prop_oneof![
        device(1),
        device(1),
        field(DEVICE_FIELDS),
        service_list(),
        Just("<specVersion><major>1</major><minor>0</minor></specVersion>".to_owned()),
        Just("\n  ".to_owned()),
    ]
    .boxed()
}

const ROOTS: &[&str] = &["root", "root", "u:root", "device"];
const TAILS: &[&str] =
    &["", "", "", "", "", "", "\n", "<!-- c -->", "<junk/>", "</root>", "<!-- open", "&bad;"];

/// A document: a root holding generated content, a tail that is often
/// malformed, and now and then a cut.
fn document() -> impl Strategy<Value = String> {
    (
        0..ROOTS.len(),
        proptest::collection::vec(root_part(), 0..4),
        0..TAILS.len(),
        proptest::option::of(0usize..600),
        0u8..8,
    )
        .prop_map(|(root, kids, tail, cut, cut_odds)| {
            let root = ROOTS[root];
            let mut doc = format!(
                "<?xml version=\"1.0\"?>\n<{root} xmlns=\"urn:schemas-upnp-org:device-1-0\">{}</{root}>{}",
                kids.concat(),
                TAILS[tail]
            );
            if let Some(at) = cut.filter(|_| cut_odds == 0) {
                let mut at = at.min(doc.len());
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                doc.truncate(at);
            }
            doc
        })
}

/// Generated documents read alike, and the generator reaches what the
/// readers must agree on often enough for that to mean something:
/// rejected documents, read fields and read services.
#[test]
fn generated_descriptions_read_as_the_dom_does() {
    let mut rng = TestRng::from_name("generated_descriptions_read_as_the_dom_does");
    let strategy = document();
    let (mut rejected, mut named, mut served) = (0, 0, 0);
    for _ in 0..2048 {
        match assert_agree(&strategy.generate(&mut rng)) {
            Err(_) => rejected += 1,
            Ok(desc) => {
                named += usize::from(!desc.friendly_name.is_empty());
                served += usize::from(desc.services.iter().any(|s| !s.control_url.is_empty()));
            }
        }
    }
    assert!(
        rejected >= 400 && named >= 40 && served >= 25,
        "{rejected} rejected, {named} with a name, {served} with a control URL"
    );
}

/// The corner cases the DOM rules decide, spelled out.
#[test]
fn named_corner_cases_read_as_the_dom_does() {
    let cases = [
        // Mixed content: two text runs, or text and an element, read "".
        "<root><device><friendlyName>x<![CDATA[y]]></friendlyName></device></root>",
        "<root><device><friendlyName>a<b>c</b></friendlyName></device></root>",
        // A comment splits nothing when one side is whitespace.
        "<root><device><friendlyName> a <!-- c --> </friendlyName></device></root>",
        // An embedded device's fields and services do not leak out.
        "<root><device><deviceList><device><friendlyName>inner</friendlyName>\
         <serviceList><service><controlURL>/in</controlURL></service></serviceList>\
         </device></deviceList><UDN>outer</UDN></device></root>",
        // The first field wins, even when it reads "".
        "<root><device><modelName/><modelName>late</modelName></device></root>",
        "<root><device><u:modelName>p</u:modelName><modelName>q</modelName></device></root>",
        // No device: the root's own fields and services.
        "<root><friendlyName>top</friendlyName><serviceList><service>\
         <controlURL>/c</controlURL></service></serviceList></root>",
        // A device: the root's own fields are ignored.
        "<root><friendlyName>top</friendlyName><device/></root>",
        // Only the first serviceList counts; every service in it does.
        "<root><device><serviceList><service><serviceId>a</serviceId></service>\
         <service><serviceId>b</serviceId></service><other/></serviceList>\
         <serviceList><service><serviceId>c</serviceId></service></serviceList></device></root>",
        // A root named `device` is not its own device child.
        "<device><friendlyName>self</friendlyName><device><UDN>kid</UDN></device></device>",
        // Malformed after everything the reader needs.
        "<root><device><friendlyName>x</friendlyName></device></root><tail/>",
        "<root><device><friendlyName>x</friendlyName></device>",
    ];
    for doc in cases {
        let _ = assert_agree(doc);
    }
}

fn value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9é日&<>\"' ]{0,12}".prop_map(|v| v.trim().to_owned())
}

fn service() -> impl Strategy<Value = ServiceDescription> {
    (value(), value(), value(), value(), value()).prop_map(|(t, i, c, e, s)| ServiceDescription {
        service_type: t,
        service_id: i,
        control_url: c,
        event_sub_url: e,
        scpd_url: s,
    })
}

proptest! {
    /// A written description reads back as itself, through both readers.
    #[test]
    fn written_descriptions_read_back(
        names in (value(), value(), value(), value(), value()),
        more in (value(), value(), value(), value()),
        services in proptest::collection::vec(service(), 0..4),
    ) {
        let desc = DeviceDescription {
            device_type: names.0,
            friendly_name: names.1,
            manufacturer: names.2,
            manufacturer_url: names.3,
            model_description: names.4,
            model_name: more.0,
            model_number: more.1,
            model_url: more.2,
            udn: more.3,
            services,
        };
        prop_assert_eq!(assert_agree(&desc.to_xml()), Ok(desc));
    }
}
