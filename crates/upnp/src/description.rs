//! UPnP device and service descriptions (UPnP Device Architecture §2).
//!
//! The description document is the XML a control point GETs from the
//! `LOCATION:` URL of a discovery response. The INDISS paper's §2.4 walks
//! through exactly this: the UPnP unit fetches `description.xml`, switches
//! its parser to XML, and converts fields like `friendlyName` and
//! `modelDescription` into `SDP_RES_ATTR` events for the SLP composer.
//!
//! [`DeviceDescription::from_xml`] is that parser switch. It reads the
//! pull parser's borrowed tokens once, front to back, into the fields it
//! returns; no element tree is built, and the only strings it allocates
//! are the ones the result keeps. [`DeviceDescription::attributes`] lends
//! the attribute fields out, so they are copied once more only when they
//! become events. Writing a description ([`DeviceDescription::to_xml`])
//! still goes through the [`Element`] builder.

use std::borrow::Cow;

use indiss_xml::{Element, XmlPullParser, XmlToken};

/// Description of one service within a device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Service type URN, e.g. `urn:schemas-upnp-org:service:timer:1`.
    pub service_type: String,
    /// Service identifier, e.g. `urn:upnp-org:serviceId:timer`.
    pub service_id: String,
    /// SOAP control URL (path on the device's HTTP server).
    pub control_url: String,
    /// Eventing URL (unused here, kept for fidelity).
    pub event_sub_url: String,
    /// Service description (SCPD) URL.
    pub scpd_url: String,
}

impl ServiceDescription {
    /// Creates a service description with conventional URLs derived from
    /// the service name.
    pub fn conventional(name: &str, version: u32) -> Self {
        ServiceDescription {
            service_type: format!("urn:schemas-upnp-org:service:{name}:{version}"),
            service_id: format!("urn:upnp-org:serviceId:{name}"),
            control_url: format!("/service/{name}/control"),
            event_sub_url: format!("/service/{name}/event"),
            scpd_url: format!("/service/{name}/scpd.xml"),
        }
    }
}

/// A UPnP device description document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceDescription {
    /// Device type URN, e.g. `urn:schemas-upnp-org:device:clock:1`.
    pub device_type: String,
    /// Human-readable name (the paper's `CyberGarage Clock Device`).
    pub friendly_name: String,
    /// Manufacturer name.
    pub manufacturer: String,
    /// Manufacturer URL.
    pub manufacturer_url: String,
    /// Model description.
    pub model_description: String,
    /// Model name.
    pub model_name: String,
    /// Model number.
    pub model_number: String,
    /// Model URL.
    pub model_url: String,
    /// Unique device name, `uuid:…`.
    pub udn: String,
    /// Embedded services.
    pub services: Vec<ServiceDescription>,
}

impl DeviceDescription {
    /// Serializes to the standard description document.
    pub fn to_xml(&self) -> String {
        let mut service_list = Element::new("serviceList");
        for s in &self.services {
            service_list.push_child(
                Element::new("service")
                    .with_text_child("serviceType", &s.service_type)
                    .with_text_child("serviceId", &s.service_id)
                    .with_text_child("controlURL", &s.control_url)
                    .with_text_child("eventSubURL", &s.event_sub_url)
                    .with_text_child("SCPDURL", &s.scpd_url),
            );
        }
        let device = Element::new("device")
            .with_text_child("deviceType", &self.device_type)
            .with_text_child("friendlyName", &self.friendly_name)
            .with_text_child("manufacturer", &self.manufacturer)
            .with_text_child("manufacturerURL", &self.manufacturer_url)
            .with_text_child("modelDescription", &self.model_description)
            .with_text_child("modelName", &self.model_name)
            .with_text_child("modelNumber", &self.model_number)
            .with_text_child("modelURL", &self.model_url)
            .with_text_child("UDN", &self.udn)
            .with_child(service_list);
        let root = Element::new("root")
            .with_attr("xmlns", "urn:schemas-upnp-org:device-1-0")
            .with_child(
                Element::new("specVersion")
                    .with_text_child("major", "1")
                    .with_text_child("minor", "0"),
            )
            .with_child(device);
        root.to_document()
    }

    /// Parses a description document in one pass over its tokens,
    /// building no tree: the tokens borrow from `xml`, so the strings
    /// the result owns are the only copies taken.
    ///
    /// It reads what a DOM walk would:
    /// - the device is the root's first child whose local name is
    ///   `device`, or the root itself when there is none;
    /// - a field is the device's first child with that local name; its
    ///   value is its trimmed text when it holds exactly one text run
    ///   (whitespace-only runs do not count) and no element, `""`
    ///   otherwise;
    /// - the services are the `service` children of the device's first
    ///   `serviceList`, their fields read by the same rule.
    ///
    /// Elements deeper than that, such as an embedded `deviceList`, are
    /// only checked for well-formedness.
    ///
    /// # Errors
    ///
    /// [`indiss_xml::XmlError`] for malformed XML, anywhere in the
    /// document; missing fields default to empty strings (real-world
    /// documents are frequently sloppy, and INDISS must tolerate them).
    pub fn from_xml(xml: &str) -> Result<DeviceDescription, indiss_xml::XmlError> {
        let mut reader = Reader::default();
        let mut parser = XmlPullParser::new(xml);
        while let Some(token) = parser.next_token()? {
            match token {
                XmlToken::StartElement { name, self_closing, .. } => {
                    reader.start(local_name(name), self_closing);
                }
                XmlToken::EndElement { .. } => reader.end(),
                XmlToken::Text(text) => reader.text(text),
            }
        }
        let [root, device] = reader.candidates;
        Ok(if reader.device_seen { device.desc } else { root.desc })
    }

    /// The description fields a bridge exposes as attributes, in
    /// document order — the source of the paper's `SDP_RES_ATTR` events,
    /// borrowed until they become events.
    pub fn attributes(&self) -> [(&'static str, &str); 7] {
        [
            ("friendlyName", &self.friendly_name),
            ("manufacturer", &self.manufacturer),
            ("manufacturerURL", &self.manufacturer_url),
            ("modelDescription", &self.model_description),
            ("modelName", &self.model_name),
            ("modelNumber", &self.model_number),
            ("modelURL", &self.model_url),
        ]
    }

    /// The short device-type name from the URN, e.g. `clock` from
    /// `urn:schemas-upnp-org:device:clock:1`.
    pub fn short_type(&self) -> &str {
        let mut parts = self.device_type.split(':');
        // urn : schemas-upnp-org : device : NAME : version
        parts.nth(3).unwrap_or(&self.device_type)
    }

    /// [`DeviceDescription::attributes`] with owned values.
    pub fn attribute_pairs(&self) -> Vec<(&'static str, String)> {
        self.attributes().into_iter().map(|(tag, value)| (tag, value.to_owned())).collect()
    }
}

/// The element's local name: the part after any `:` prefix.
fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// A field's local name and where its value goes.
type Field<T> = (&'static str, fn(&mut T) -> &mut String);

/// The device fields [`DeviceDescription::from_xml`] reads.
const DEVICE_FIELDS: [Field<DeviceDescription>; 9] = [
    ("deviceType", |d| &mut d.device_type),
    ("friendlyName", |d| &mut d.friendly_name),
    ("manufacturer", |d| &mut d.manufacturer),
    ("manufacturerURL", |d| &mut d.manufacturer_url),
    ("modelDescription", |d| &mut d.model_description),
    ("modelName", |d| &mut d.model_name),
    ("modelNumber", |d| &mut d.model_number),
    ("modelURL", |d| &mut d.model_url),
    ("UDN", |d| &mut d.udn),
];

/// The service fields [`DeviceDescription::from_xml`] reads.
const SERVICE_FIELDS: [Field<ServiceDescription>; 5] = [
    ("serviceType", |s| &mut s.service_type),
    ("serviceId", |s| &mut s.service_id),
    ("controlURL", |s| &mut s.control_url),
    ("eventSubURL", |s| &mut s.event_sub_url),
    ("SCPDURL", |s| &mut s.scpd_url),
];

/// Which candidate device an element is read into: the root itself, or
/// the root's first `device` child. Both are read; the document's end
/// decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Root = 0,
    Device = 1,
}

/// What an open element is to the reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Role {
    /// Nothing a description is read from.
    #[default]
    Other,
    /// The document element.
    Root,
    /// The root's first child whose local name is `device`.
    Device,
    /// The first `serviceList` of a candidate.
    ServiceList(Scope),
    /// A `service` of that list: the candidate's last service.
    Service(Scope),
    /// The first child with a field's local name, of a candidate or of
    /// its last service, at `index` in the field table.
    Field { scope: Scope, service: bool, index: usize },
}

/// One candidate device, and which first children it has taken.
#[derive(Default)]
struct Candidate {
    desc: DeviceDescription,
    fields_seen: u16,
    list_seen: bool,
    service_fields_seen: u8,
}

/// Roles are kept for the depths a field's content can sit at: root,
/// device, `serviceList`, `service`, field, and the field's children.
const ROLE_DEPTH: usize = 6;

/// The state of [`DeviceDescription::from_xml`]'s one pass.
#[derive(Default)]
struct Reader<'a> {
    candidates: [Candidate; 2],
    device_seen: bool,
    /// Open elements; `roles[d]` is the role of the open element at
    /// depth `d` (the root is depth 1), when `d < ROLE_DEPTH`.
    depth: usize,
    roles: [Role; ROLE_DEPTH],
    /// The open field's direct content: its non-blank text runs, the
    /// first of them, and whether it has a child element.
    texts: usize,
    first_text: Cow<'a, str>,
    has_element: bool,
}

impl<'a> Reader<'a> {
    fn role_at(&self, depth: usize) -> Role {
        self.roles.get(depth).copied().unwrap_or_default()
    }

    fn start(&mut self, local: &str, self_closing: bool) {
        let role = match self.role_at(self.depth) {
            _ if self.depth == 0 => Role::Root,
            Role::Root if local == "device" && !self.device_seen => {
                self.device_seen = true;
                Role::Device
            }
            Role::Root => self.candidate_child(Scope::Root, local),
            Role::Device => self.candidate_child(Scope::Device, local),
            Role::ServiceList(scope) if local == "service" => {
                let candidate = &mut self.candidates[scope as usize];
                let services = &mut candidate.desc.services;
                // Grow from one slot: a description lists one or two
                // services, and the result keeps this allocation.
                if services.len() == services.capacity() {
                    services.reserve_exact(services.len().max(1));
                }
                services.push(ServiceDescription::default());
                candidate.service_fields_seen = 0;
                Role::Service(scope)
            }
            Role::Service(scope) => {
                let candidate = &mut self.candidates[scope as usize];
                match SERVICE_FIELDS.iter().position(|(name, _)| *name == local) {
                    Some(index) if candidate.service_fields_seen & 1 << index == 0 => {
                        candidate.service_fields_seen |= 1 << index;
                        Role::Field { scope, service: true, index }
                    }
                    _ => Role::Other,
                }
            }
            Role::Field { .. } => {
                self.has_element = true;
                Role::Other
            }
            Role::ServiceList(_) | Role::Other => Role::Other,
        };
        if matches!(role, Role::Field { .. }) {
            self.texts = 0;
            self.has_element = false;
        }
        if self_closing {
            self.close(role);
        } else {
            self.depth += 1;
            if let Some(slot) = self.roles.get_mut(self.depth) {
                *slot = role;
            }
        }
    }

    /// The role of a direct child of a candidate device.
    fn candidate_child(&mut self, scope: Scope, local: &str) -> Role {
        let candidate = &mut self.candidates[scope as usize];
        if local == "serviceList" {
            if candidate.list_seen {
                return Role::Other;
            }
            candidate.list_seen = true;
            return Role::ServiceList(scope);
        }
        match DEVICE_FIELDS.iter().position(|(name, _)| *name == local) {
            Some(index) if candidate.fields_seen & 1 << index == 0 => {
                candidate.fields_seen |= 1 << index;
                Role::Field { scope, service: false, index }
            }
            _ => Role::Other,
        }
    }

    fn end(&mut self) {
        let role = self.role_at(self.depth);
        self.close(role);
        self.depth -= 1;
    }

    fn text(&mut self, text: Cow<'a, str>) {
        // Whitespace-only runs are layout, not content.
        if text.trim().is_empty() || !matches!(self.role_at(self.depth), Role::Field { .. }) {
            return;
        }
        self.texts += 1;
        if self.texts == 1 {
            self.first_text = text;
        }
    }

    /// Stores a field's value as its element closes.
    fn close(&mut self, role: Role) {
        let Role::Field { scope, service, index } = role else {
            return;
        };
        let value = if self.texts == 1 && !self.has_element { self.first_text.trim() } else { "" };
        let desc = &mut self.candidates[scope as usize].desc;
        let slot = if service {
            let service = desc.services.last_mut().expect("a service field has its service");
            (SERVICE_FIELDS[index].1)(service)
        } else {
            (DEVICE_FIELDS[index].1)(desc)
        };
        *slot = value.to_owned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_description() -> DeviceDescription {
        DeviceDescription {
            device_type: "urn:schemas-upnp-org:device:clock:1".into(),
            friendly_name: "CyberGarage Clock Device".into(),
            manufacturer: "CyberGarage".into(),
            manufacturer_url: "http://www.cybergarage.org".into(),
            model_description: "CyberUPnP Clock Device".into(),
            model_name: "Clock".into(),
            model_number: "1.0".into(),
            model_url: "http://www.cybergarage.org".into(),
            udn: "uuid:ClockDevice".into(),
            services: vec![ServiceDescription::conventional("timer", 1)],
        }
    }

    #[test]
    fn xml_roundtrip() {
        let desc = clock_description();
        let xml = desc.to_xml();
        let back = DeviceDescription::from_xml(&xml).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn short_type_extraction() {
        assert_eq!(clock_description().short_type(), "clock");
    }

    #[test]
    fn conventional_service_urls() {
        let s = ServiceDescription::conventional("timer", 1);
        assert_eq!(s.control_url, "/service/timer/control");
        assert_eq!(s.service_type, "urn:schemas-upnp-org:service:timer:1");
    }

    #[test]
    fn sloppy_document_tolerated() {
        let desc = DeviceDescription::from_xml("<root><device></device></root>").unwrap();
        assert_eq!(desc.friendly_name, "");
        assert!(desc.services.is_empty());
    }

    fn friendly(content: &str) -> String {
        let xml = format!("<root><device><friendlyName>{content}</friendlyName></device></root>");
        DeviceDescription::from_xml(&xml).unwrap().friendly_name
    }

    #[test]
    fn a_field_reads_one_text_run_and_no_element() {
        assert_eq!(friendly(" Clock "), "Clock");
        assert_eq!(friendly("a &amp; b"), "a & b");
        assert_eq!(friendly(" a <!-- c --> "), "a", "a blank run is layout");
        assert_eq!(friendly("x<![CDATA[y]]>"), "", "two runs");
        assert_eq!(friendly("a<b>c</b>"), "", "an element");
        assert_eq!(friendly("<b/>"), "");
    }

    #[test]
    fn embedded_devices_do_not_leak() {
        let xml = "<root><device><deviceList><device><friendlyName>inner</friendlyName>\
                   <serviceList><service><controlURL>/in</controlURL></service></serviceList>\
                   </device></deviceList><UDN>outer</UDN></device></root>";
        let desc = DeviceDescription::from_xml(xml).unwrap();
        assert_eq!((desc.friendly_name.as_str(), desc.udn.as_str()), ("", "outer"));
        assert!(desc.services.is_empty());
    }

    #[test]
    fn without_a_device_the_root_is_read() {
        let xml = "<root><u:friendlyName>top</u:friendlyName><serviceList><service>\
                   <controlURL>/c</controlURL></service></serviceList></root>";
        let desc = DeviceDescription::from_xml(xml).unwrap();
        assert_eq!(desc.friendly_name, "top");
        assert_eq!(desc.services[0].control_url, "/c");
        let with_device = "<root><friendlyName>top</friendlyName><device/></root>";
        assert_eq!(DeviceDescription::from_xml(with_device).unwrap().friendly_name, "");
    }

    #[test]
    fn a_malformed_tail_fails_the_parse() {
        let xml = clock_description().to_xml() + "<tail/>";
        let err = DeviceDescription::from_xml(&xml).unwrap_err();
        assert_eq!(err.kind(), &indiss_xml::XmlErrorKind::TrailingContent);
    }

    #[test]
    fn attributes_borrow_the_description() {
        let desc = clock_description();
        let attrs = desc.attributes();
        assert_eq!(attrs[0], ("friendlyName", "CyberGarage Clock Device"));
        let owned: Vec<_> = attrs.iter().map(|(t, v)| (*t, (*v).to_owned())).collect();
        assert_eq!(desc.attribute_pairs(), owned);
    }

    #[test]
    fn attribute_pairs_match_paper_fields() {
        let pairs = clock_description().attribute_pairs();
        let keys: Vec<_> = pairs.iter().map(|(k, _)| *k).collect();
        // The paper's Fig. 4 SrvRply lists friendlyName, modelDescription,
        // manufacturerURL, modelName, modelNumber, modelURL.
        for expected in
            ["friendlyName", "modelDescription", "manufacturerURL", "modelName", "modelNumber"]
        {
            assert!(keys.contains(&expected), "{expected} missing");
        }
    }
}
