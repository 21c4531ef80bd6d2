//! Pull parser: turns XML text into a stream of [`XmlToken`]s.
//!
//! Supports the subset of XML 1.0 that UPnP description documents and SOAP
//! envelopes use: elements, attributes, character data, CDATA sections,
//! comments, processing instructions / the XML declaration (skipped), and
//! the predefined + numeric entities. DTDs and namespaces-as-semantics are
//! out of scope (namespace prefixes are kept verbatim in names).
//!
//! Tokens borrow from the document: names are slices of it, and text and
//! attribute values are too unless an entity reference had to be
//! resolved. The scanner walks bytes; only a non-ASCII byte is decoded
//! as a `char`, so every slice it takes starts and ends on a character
//! boundary.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::escape::unescape;

/// One parsed XML token, borrowing from the document it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlToken<'a> {
    /// `<name attr="v" ...>` — `self_closing` is true for `<name ... />`.
    StartElement {
        /// Element name (namespace prefixes kept verbatim).
        name: &'a str,
        /// Attributes in document order, entity references resolved.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the element closed itself (`<br/>`).
        self_closing: bool,
    },
    /// `</name>`.
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data with entities resolved; whitespace-only runs between
    /// elements are preserved (callers decide whether to trim).
    Text(Cow<'a, str>),
}

/// Pull parser over an XML string.
///
/// # Examples
///
/// ```
/// use indiss_xml::{XmlPullParser, XmlToken};
///
/// let mut p = XmlPullParser::new("<a href=\"x\">hi</a>");
/// assert!(matches!(p.next_token()?, Some(XmlToken::StartElement { name: "a", .. })));
/// assert!(matches!(p.next_token()?, Some(XmlToken::Text(t)) if t == "hi"));
/// assert!(matches!(p.next_token()?, Some(XmlToken::EndElement { name: "a" })));
/// assert_eq!(p.next_token()?, None);
/// # Ok::<(), indiss_xml::XmlError>(())
/// ```
#[derive(Debug)]
pub struct XmlPullParser<'a> {
    input: &'a str,
    pos: usize,
    /// Open-element stack for well-formedness checking.
    stack: Vec<&'a str>,
    /// Set once the root element has fully closed.
    root_closed: bool,
    /// Set once any root element has been seen.
    seen_root: bool,
}

impl<'a> XmlPullParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        // Room for the five levels a UPnP description nests, and then
        // some, so reading one never regrows the stack.
        let stack = Vec::with_capacity(8);
        XmlPullParser { input, pos: 0, stack, root_closed: false, seen_root: false }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Returns the next token, or `None` at a well-formed end of document.
    ///
    /// # Errors
    ///
    /// Any [`XmlError`] for malformed input; the parser should not be used
    /// after an error.
    pub fn next_token(&mut self) -> XmlResult<Option<XmlToken<'a>>> {
        loop {
            let rest = &self.input[self.pos..];
            let Some(&first) = rest.as_bytes().first() else {
                if let Some(open) = self.stack.last() {
                    return Err(self.err(XmlErrorKind::UnclosedTag((*open).to_owned())));
                }
                if !self.seen_root {
                    return Err(self.err(XmlErrorKind::NoRootElement));
                }
                return Ok(None);
            };
            if first != b'<' {
                return self.parse_text().map(Some);
            }
            match rest.as_bytes().get(1) {
                Some(b'!') => {
                    if let Some(stripped) = rest.strip_prefix("<!--") {
                        let end = stripped
                            .find("-->")
                            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                        self.pos += 4 + end + 3;
                    } else if rest.starts_with("<![CDATA[") {
                        return self.parse_cdata().map(Some);
                    } else {
                        // DOCTYPE and friends: skip to the matching '>' (no
                        // nested internal subsets supported).
                        let end =
                            rest.find('>').ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                        self.pos += end + 1;
                    }
                }
                Some(b'?') => {
                    let end =
                        rest.find("?>").ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                    self.pos += end + 2;
                }
                Some(b'/') => return self.parse_end_tag().map(Some),
                _ => return self.parse_start_tag().map(Some),
            }
        }
    }

    /// Collects all remaining tokens.
    ///
    /// # Errors
    ///
    /// Propagates the first parse error.
    pub fn tokens(mut self) -> XmlResult<Vec<XmlToken<'a>>> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The character at the cursor, decoded — for non-ASCII bytes and
    /// error reports only.
    fn peek_char(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    /// The error for a character that cannot continue the construct.
    fn unexpected(&self) -> XmlError {
        self.err(match self.peek_char() {
            Some(c) => XmlErrorKind::UnexpectedChar(c),
            None => XmlErrorKind::UnexpectedEof,
        })
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii() {
                if !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')) {
                    break;
                }
                self.pos += 1;
            } else {
                match self.peek_char() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        if self.pos == start {
            return Err(self.unexpected());
        }
        Ok(&self.input[start..self.pos])
    }

    fn expect(&mut self, b: u8) -> XmlResult<()> {
        if self.peek() != Some(b) {
            return Err(self.unexpected());
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_start_tag(&mut self) -> XmlResult<XmlToken<'a>> {
        if self.root_closed {
            return Err(self.err(XmlErrorKind::TrailingContent));
        }
        self.pos += 1; // '<'
        let name = self.parse_name()?;
        let mut attributes: Vec<(&'a str, Cow<'a, str>)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    self.stack.push(name);
                    self.seen_root = true;
                    return Ok(XmlToken::StartElement { name, attributes, self_closing: false });
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    self.seen_root = true;
                    if self.stack.is_empty() {
                        self.root_closed = true;
                    }
                    return Ok(XmlToken::StartElement { name, attributes, self_closing: true });
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    if attributes.iter().any(|(n, _)| *n == attr_name) {
                        return Err(
                            self.err(XmlErrorKind::DuplicateAttribute(attr_name.to_owned()))
                        );
                    }
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.unexpected()),
                    };
                    self.pos += 1;
                    let input = self.input;
                    let vstart = self.pos;
                    let rel = input[vstart..]
                        .find(char::from(quote))
                        .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                    let value = unescape(&input[vstart..vstart + rel], vstart)?;
                    self.pos = vstart + rel + 1;
                    attributes.push((attr_name, value));
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_end_tag(&mut self) -> XmlResult<XmlToken<'a>> {
        self.pos += 2; // "</"
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect(b'>')?;
        match self.stack.pop() {
            Some(open) if open == name => {
                if self.stack.is_empty() {
                    self.root_closed = true;
                }
                Ok(XmlToken::EndElement { name })
            }
            Some(open) => Err(self.err(XmlErrorKind::MismatchedTag {
                expected: open.to_owned(),
                found: name.to_owned(),
            })),
            None => Err(self.err(XmlErrorKind::UnopenedTag(name.to_owned()))),
        }
    }

    fn parse_text(&mut self) -> XmlResult<XmlToken<'a>> {
        let input = self.input;
        let start = self.pos;
        let rel = input[start..].find('<').unwrap_or(input.len() - start);
        let raw = &input[start..start + rel];
        self.pos = start + rel;
        if self.stack.is_empty() && !raw.trim().is_empty() {
            return Err(XmlError::new(
                if self.root_closed || self.seen_root {
                    XmlErrorKind::TrailingContent
                } else {
                    XmlErrorKind::NoRootElement
                },
                start,
            ));
        }
        Ok(XmlToken::Text(unescape(raw, start)?))
    }

    fn parse_cdata(&mut self) -> XmlResult<XmlToken<'a>> {
        self.pos += "<![CDATA[".len();
        let input = self.input;
        let rel =
            input[self.pos..].find("]]>").ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let text = &input[self.pos..self.pos + rel];
        self.pos += rel + 3;
        Ok(XmlToken::Text(Cow::Borrowed(text)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> XmlResult<Vec<XmlToken<'_>>> {
        XmlPullParser::new(s).tokens()
    }

    #[test]
    fn simple_document() {
        let tokens = parse("<root><item/></root>").unwrap();
        assert_eq!(tokens.len(), 3);
        assert!(matches!(&tokens[1], XmlToken::StartElement { self_closing: true, .. }));
    }

    #[test]
    fn attributes_and_entities() {
        let tokens = parse(r#"<a x="1 &amp; 2" y='z'>t&lt;u</a>"#).unwrap();
        match &tokens[0] {
            XmlToken::StartElement { attributes, .. } => {
                assert_eq!(attributes[0], ("x", "1 & 2".into()));
                assert_eq!(attributes[1], ("y", "z".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(tokens[1], XmlToken::Text("t<u".into()));
    }

    #[test]
    fn xml_declaration_and_comments_are_skipped() {
        let tokens = parse("<?xml version=\"1.0\"?><!-- hi --><root><!-- in --->x</root>").unwrap();
        assert_eq!(
            tokens,
            vec![
                XmlToken::StartElement { name: "root", attributes: vec![], self_closing: false },
                XmlToken::Text("x".into()),
                XmlToken::EndElement { name: "root" },
            ]
        );
    }

    #[test]
    fn clean_comment_inside_element() {
        let tokens = parse("<root><!-- note -->x</root>").unwrap();
        assert_eq!(
            tokens,
            vec![
                XmlToken::StartElement { name: "root", attributes: vec![], self_closing: false },
                XmlToken::Text("x".into()),
                XmlToken::EndElement { name: "root" },
            ]
        );
    }

    #[test]
    fn cdata_is_verbatim() {
        let tokens = parse("<r><![CDATA[a < b & c]]></r>").unwrap();
        assert_eq!(tokens[1], XmlToken::Text("a < b & c".into()));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_root_errors() {
        let err = parse("<a><b></b>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnclosedTag(t) if t == "a"));
    }

    #[test]
    fn unopened_close_errors() {
        let err = parse("</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnopenedTag(t) if t == "a"));
    }

    #[test]
    fn empty_input_errors() {
        let err = parse("").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::NoRootElement));
    }

    #[test]
    fn trailing_element_errors() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::TrailingContent));
    }

    #[test]
    fn trailing_text_errors() {
        let err = parse("<a/>junk").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::TrailingContent));
    }

    #[test]
    fn duplicate_attribute_errors() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::DuplicateAttribute(a) if a == "x"));
    }

    #[test]
    fn namespace_prefixes_kept_verbatim() {
        let tokens = parse(r#"<s:Envelope xmlns:s="ns"><s:Body/></s:Envelope>"#).unwrap();
        assert!(matches!(&tokens[0], XmlToken::StartElement { name: "s:Envelope", .. }));
    }

    #[test]
    fn doctype_is_skipped() {
        let tokens = parse("<!DOCTYPE html><root/>").unwrap();
        assert_eq!(tokens.len(), 1);
    }

    #[test]
    fn tokens_borrow_unless_an_entity_was_resolved() {
        let doc = r#"<a k="v" e="&amp;">plain<b>x &lt; y</b><![CDATA[raw]]></a>"#;
        let tokens = parse(doc).unwrap();
        match &tokens[0] {
            XmlToken::StartElement { attributes, .. } => {
                assert!(matches!(attributes[0].1, Cow::Borrowed("v")));
                assert!(matches!(&attributes[1].1, Cow::Owned(v) if v == "&"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(tokens[1], XmlToken::Text(Cow::Borrowed("plain"))));
        assert!(matches!(&tokens[3], XmlToken::Text(Cow::Owned(t)) if t == "x < y"));
        assert!(matches!(tokens[5], XmlToken::Text(Cow::Borrowed("raw"))));
    }

    #[test]
    fn non_ascii_names_and_errors() {
        let tokens = parse("<日本 é='ü'>ß</日本>").unwrap();
        assert!(matches!(&tokens[0], XmlToken::StartElement { name: "日本", attributes, .. }
            if attributes[0] == ("é", Cow::Borrowed("ü"))));
        // A character that is not a name character is reported whole, at
        // its first byte.
        let err = parse("<a😀/>").unwrap_err();
        assert_eq!((err.kind(), err.offset()), (&XmlErrorKind::UnexpectedChar('😀'), 2));
        let err = parse("<é>x</ü>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { expected, found }
            if expected == "é" && found == "ü"));
    }

    #[test]
    fn whitespace_between_elements_is_text() {
        let tokens = parse("<a> <b/> </a>").unwrap();
        assert_eq!(tokens.len(), 5);
        assert_eq!(tokens[1], XmlToken::Text(" ".into()));
    }
}
