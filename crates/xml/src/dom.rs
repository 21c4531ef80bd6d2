//! DOM-lite: an owned element tree built from the pull parser.
//!
//! The tree serves SOAP envelopes and the document builders; it owns
//! every name and value, copied out of the borrowed tokens as they are
//! inserted. Protocol code navigates with [`Element::child`] /
//! [`Element::descendant_text`]. A reader that needs a few fields of a
//! large document consumes [`crate::XmlPullParser`] directly instead.

use std::fmt;

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::parser::{XmlPullParser, XmlToken};
use crate::writer::XmlWriter;

/// A node in the tree: element or text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(Element),
    /// A run of character data.
    Text(String),
}

/// An XML element with attributes and children.
///
/// # Examples
///
/// ```
/// use indiss_xml::Element;
///
/// let doc = Element::parse("<device><friendlyName>Clock</friendlyName></device>")?;
/// assert_eq!(doc.name(), "device");
/// assert_eq!(doc.child_text("friendlyName"), Some("Clock"));
/// # Ok::<(), indiss_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl Element {
    /// Creates an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Parses a complete document and returns its root element.
    ///
    /// # Errors
    ///
    /// Any [`XmlError`] for malformed input.
    pub fn parse(input: &str) -> XmlResult<Element> {
        let mut parser = XmlPullParser::new(input);
        let mut stack: Vec<Element> = Vec::new();
        let mut root: Option<Element> = None;
        while let Some(token) = parser.next_token()? {
            match token {
                XmlToken::StartElement { name, attributes, self_closing } => {
                    let attributes =
                        attributes.into_iter().map(|(n, v)| (n.to_owned(), v.into_owned()));
                    let elem = Element {
                        name: name.to_owned(),
                        attributes: attributes.collect(),
                        children: Vec::new(),
                    };
                    if self_closing {
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(XmlNode::Element(elem)),
                            None => root = Some(elem),
                        }
                    } else {
                        stack.push(elem);
                    }
                }
                XmlToken::EndElement { .. } => {
                    let elem = stack.pop().expect("parser guarantees balance");
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(XmlNode::Element(elem)),
                        None => root = Some(elem),
                    }
                }
                XmlToken::Text(text) => {
                    if let Some(parent) = stack.last_mut() {
                        // Whitespace-only runs between elements are layout,
                        // not data; drop them to simplify navigation.
                        if !text.trim().is_empty() {
                            parent.children.push(XmlNode::Text(text.into_owned()));
                        }
                    }
                }
            }
        }
        root.ok_or_else(|| XmlError::new(XmlErrorKind::NoRootElement, input.len()))
    }

    /// The element name (with any namespace prefix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element's *local* name: the part after any `:` prefix.
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// Attributes in document order.
    pub fn attributes(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, replacing an existing one of the same name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        match self.attributes.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.attributes.push((name, value)),
        }
        self
    }

    /// All child nodes.
    pub fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// Iterates over child *elements* only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// First child element whose local name matches.
    pub fn child(&self, local_name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.local_name() == local_name)
    }

    /// All child elements whose local name matches.
    pub fn children_named<'a>(
        &'a self,
        local_name: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.local_name() == local_name)
    }

    /// Concatenated text content of this element's direct text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let XmlNode::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Text of the first child element with this local name, trimmed.
    pub fn child_text(&self, local_name: &str) -> Option<&str> {
        self.child(local_name).and_then(|e| match e.children.as_slice() {
            [XmlNode::Text(t)] => Some(t.trim()),
            _ => None,
        })
    }

    /// Depth-first search for the first descendant element with this local
    /// name (not including `self`).
    pub fn descendant(&self, local_name: &str) -> Option<&Element> {
        for e in self.child_elements() {
            if e.local_name() == local_name {
                return Some(e);
            }
            if let Some(found) = e.descendant(local_name) {
                return Some(found);
            }
        }
        None
    }

    /// Trimmed text of the first descendant with this local name.
    pub fn descendant_text(&self, local_name: &str) -> Option<String> {
        self.descendant(local_name).map(|e| e.text().trim().to_owned())
    }

    /// Appends a child element, returning `self` for chaining.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Appends a text node, returning `self` for chaining.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Appends an element `<name>text</name>`, the common leaf shape of
    /// UPnP descriptions, returning `self` for chaining.
    pub fn with_text_child(self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.with_child(Element::new(name).with_text(text))
    }

    /// Appends an attribute, returning `self` for chaining.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Appends a child element (mutating form).
    pub fn push_child(&mut self, child: Element) {
        self.children.push(XmlNode::Element(child));
    }

    /// Serializes to a compact document string (no XML declaration).
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        w.write_element(self);
        w.finish()
    }

    /// Serializes with a leading `<?xml version="1.0"?>` declaration.
    pub fn to_document(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\"?>");
        out.push_str(&self.to_xml());
        out
    }
}

impl fmt::Display for Element {
    /// Renders the element as compact XML, identical to [`Element::to_xml`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESCRIPTION: &str = r#"<?xml version="1.0"?>
<root xmlns="urn:schemas-upnp-org:device-1-0">
  <specVersion><major>1</major><minor>0</minor></specVersion>
  <device>
    <deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>
    <friendlyName>CyberGarage Clock Device</friendlyName>
    <serviceList>
      <service><serviceId>timer</serviceId></service>
      <service><serviceId>alarm</serviceId></service>
    </serviceList>
  </device>
</root>"#;

    #[test]
    fn parse_and_navigate_description() {
        let root = Element::parse(DESCRIPTION).unwrap();
        assert_eq!(root.name(), "root");
        let device = root.child("device").unwrap();
        assert_eq!(device.child_text("friendlyName"), Some("CyberGarage Clock Device"));
        let services: Vec<_> = device
            .child("serviceList")
            .unwrap()
            .children_named("service")
            .filter_map(|s| s.child_text("serviceId"))
            .collect();
        assert_eq!(services, vec!["timer", "alarm"]);
    }

    #[test]
    fn descendant_search() {
        let root = Element::parse(DESCRIPTION).unwrap();
        assert_eq!(
            root.descendant_text("deviceType"),
            Some("urn:schemas-upnp-org:device:clock:1".into())
        );
        assert!(root.descendant("nonexistent").is_none());
    }

    #[test]
    fn builder_roundtrips_through_parser() {
        let doc = Element::new("device")
            .with_attr("id", "d1")
            .with_text_child("name", "Printer & Scanner")
            .with_child(Element::new("empty"));
        let xml = doc.to_xml();
        let back = Element::parse(&xml).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn local_name_strips_prefix() {
        let e =
            Element::parse(r#"<s:Envelope xmlns:s="x"><s:Body>b</s:Body></s:Envelope>"#).unwrap();
        assert_eq!(e.local_name(), "Envelope");
        assert_eq!(e.child("Body").unwrap().text(), "b");
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attr("k"), Some("2"));
        assert_eq!(e.attributes().len(), 1);
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let e = Element::parse("<a>\n  <b>x</b>\n</a>").unwrap();
        assert_eq!(e.children().len(), 1);
    }

    #[test]
    fn mixed_content_text_is_kept() {
        let e = Element::parse("<a>hello <b>world</b></a>").unwrap();
        assert_eq!(e.children().len(), 2);
        assert_eq!(e.text(), "hello ");
    }

    #[test]
    fn display_matches_to_xml() {
        let e = Element::new("x").with_text("y");
        assert_eq!(e.to_string(), e.to_xml());
    }

    #[test]
    fn to_document_has_declaration() {
        let e = Element::new("x");
        assert!(e.to_document().starts_with("<?xml"));
        assert!(Element::parse(&e.to_document()).is_ok());
    }
}
