//! Property-based tests of the XML subset: escaping, tree round-trips and
//! parser totality.

use proptest::prelude::*;

use indiss_xml::{escape_attr, escape_text, unescape, Element, XmlPullParser};

fn xml_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,12}"
}

/// Arbitrary text without control characters (the subset's documents are
/// protocol-generated, never binary).
fn xml_text() -> impl Strategy<Value = String> {
    "[ -~]{0,32}"
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (xml_name(), xml_text()).prop_map(|(name, text)| {
        let e = Element::new(name);
        if text.trim().is_empty() {
            e
        } else {
            e.with_text(text)
        }
    });
    leaf.prop_recursive(depth, 24, 4, move |inner| {
        (
            xml_name(),
            proptest::collection::vec((xml_name(), xml_text()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut e = Element::new(name);
                let mut seen = std::collections::HashSet::new();
                for (n, v) in attrs {
                    if seen.insert(n.clone()) {
                        e.set_attr(n, v);
                    }
                }
                for c in children {
                    e.push_child(c);
                }
                e
            })
    })
    .boxed()
}

proptest! {
    /// escape → unescape is the identity for text and attribute contexts.
    #[test]
    fn escaping_roundtrips(s in xml_text()) {
        let text_escaped = escape_text(&s).into_owned();
        let attr_escaped = escape_attr(&s).into_owned();
        prop_assert_eq!(unescape(&text_escaped, 0).unwrap(), s.clone());
        prop_assert_eq!(unescape(&attr_escaped, 0).unwrap(), s);
    }

    /// Any built tree serializes to XML that parses back to the same tree
    /// (modulo whitespace-only text nodes, which the DOM drops — the
    /// generator never produces them).
    #[test]
    fn trees_roundtrip(elem in arb_element(3)) {
        let xml = elem.to_xml();
        let back = Element::parse(&xml).unwrap();
        prop_assert_eq!(back, elem);
    }

    /// The pull parser is total on arbitrary printable input: errors, not
    /// panics or hangs.
    #[test]
    fn parser_is_total(s in "[ -~]{0,128}") {
        let _ = XmlPullParser::new(&s).tokens();
    }

    /// The parser is total on inputs biased towards XML-ish shapes.
    #[test]
    fn parser_is_total_on_xmlish(s in "[<>/a-z \"=&;!-]{0,64}") {
        let _ = XmlPullParser::new(&s).tokens();
    }

    /// The parser is total on non-ASCII input: it walks bytes, so a
    /// slice taken inside a multi-byte character would panic here.
    #[test]
    fn parser_is_total_on_non_ascii(s in "[ -~é日ß😀\u{a0}\u{3000}]{0,128}") {
        let _ = XmlPullParser::new(&s).tokens();
    }

    /// The parser is total on XML-ish shapes with non-ASCII names,
    /// values and text.
    #[test]
    fn parser_is_total_on_non_ascii_xmlish(s in "[<>/a-zé日😀 \"'=&#;!?:-]{0,64}") {
        let _ = XmlPullParser::new(&s).tokens();
    }

    /// Document round-trips preserve attribute lookup.
    #[test]
    fn attributes_survive_roundtrip(name in xml_name(), key in xml_name(), value in xml_text()) {
        let elem = Element::new(name).with_attr(key.clone(), value.clone());
        let back = Element::parse(&elem.to_xml()).unwrap();
        prop_assert_eq!(back.attr(&key), Some(value.as_str()));
    }
}
