//! The owned-token pull parser this crate shipped before its tokens
//! borrowed from the document, kept verbatim below the error shim as the
//! oracle `tokenizer_differential.rs` checks the borrowing parser
//! against.
//!
//! `XmlError::new` is private to the crate, so the oracle reports its
//! errors through a local type with the same kind and offset.

#![allow(dead_code)]

use indiss_xml::{unescape, XmlErrorKind};

/// The oracle's error: the kind and byte offset an `indiss_xml::XmlError`
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub kind: XmlErrorKind,
    pub offset: usize,
}

impl XmlError {
    fn new(kind: XmlErrorKind, offset: usize) -> Self {
        XmlError { kind, offset }
    }
}

impl From<indiss_xml::XmlError> for XmlError {
    fn from(e: indiss_xml::XmlError) -> Self {
        XmlError::new(e.kind().clone(), e.offset())
    }
}

type XmlResult<T> = Result<T, XmlError>;

// ---- the parent tokenizer, verbatim from here on ----

/// One parsed XML token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlToken {
    /// `<name attr="v" ...>` — `self_closing` is true for `<name ... />`.
    StartElement {
        /// Element name (namespace prefixes kept verbatim).
        name: String,
        /// Attributes in document order, entity references resolved.
        attributes: Vec<(String, String)>,
        /// Whether the element closed itself (`<br/>`).
        self_closing: bool,
    },
    /// `</name>`.
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data with entities resolved; whitespace-only runs between
    /// elements are preserved (callers decide whether to trim).
    Text(String),
}

/// Pull parser over an XML string.
///
/// # Examples
///
/// ```
/// use indiss_xml::{XmlPullParser, XmlToken};
///
/// let mut p = XmlPullParser::new("<a href=\"x\">hi</a>");
/// assert!(matches!(p.next_token()?, Some(XmlToken::StartElement { name, .. }) if name == "a"));
/// assert!(matches!(p.next_token()?, Some(XmlToken::Text(t)) if t == "hi"));
/// assert!(matches!(p.next_token()?, Some(XmlToken::EndElement { name }) if name == "a"));
/// assert_eq!(p.next_token()?, None);
/// # Ok::<(), indiss_xml::XmlError>(())
/// ```
#[derive(Debug)]
pub struct XmlPullParser<'a> {
    input: &'a str,
    pos: usize,
    /// Open-element stack for well-formedness checking.
    stack: Vec<String>,
    /// Set once the root element has fully closed.
    root_closed: bool,
    /// Set once any root element has been seen.
    seen_root: bool,
}

impl<'a> XmlPullParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        XmlPullParser { input, pos: 0, stack: Vec::new(), root_closed: false, seen_root: false }
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
    pub fn next_token(&mut self) -> XmlResult<Option<XmlToken>> {
        loop {
            if self.pos >= self.input.len() {
                if let Some(open) = self.stack.last() {
                    return Err(self.err(XmlErrorKind::UnclosedTag(open.clone())));
                }
                if !self.seen_root {
                    return Err(self.err(XmlErrorKind::NoRootElement));
                }
                return Ok(None);
            }
            let rest = &self.input[self.pos..];
            if let Some(stripped) = rest.strip_prefix("<!--") {
                let end =
                    stripped.find("-->").ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                self.pos += 4 + end + 3;
                continue;
            }
            if rest.starts_with("<![CDATA[") {
                return self.parse_cdata().map(Some);
            }
            if rest.starts_with("<?") {
                let end = rest.find("?>").ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                self.pos += end + 2;
                continue;
            }
            if rest.starts_with("<!") {
                // DOCTYPE and friends: skip to the matching '>' (no nested
                // internal subsets supported).
                let end = rest.find('>').ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                self.pos += end + 1;
                continue;
            }
            if rest.starts_with("</") {
                return self.parse_end_tag().map(Some);
            }
            if rest.starts_with('<') {
                return self.parse_start_tag().map(Some);
            }
            return self.parse_text().map(Some);
        }
    }

    /// Collects all remaining tokens.
    ///
    /// # Errors
    ///
    /// Propagates the first parse error.
    pub fn tokens(mut self) -> XmlResult<Vec<XmlToken>> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.pos)
    }

    fn peek_char(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek_char() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn parse_name(&mut self) -> XmlResult<String> {
        let start = self.pos;
        while let Some(c) = self.peek_char() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            let c = self.peek_char().ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
            return Err(self.err(XmlErrorKind::UnexpectedChar(c)));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    fn expect(&mut self, c: char) -> XmlResult<()> {
        match self.peek_char() {
            Some(found) if found == c => {
                self.pos += c.len_utf8();
                Ok(())
            }
            Some(found) => Err(self.err(XmlErrorKind::UnexpectedChar(found))),
            None => Err(self.err(XmlErrorKind::UnexpectedEof)),
        }
    }

    fn parse_start_tag(&mut self) -> XmlResult<XmlToken> {
        if self.root_closed {
            return Err(self.err(XmlErrorKind::TrailingContent));
        }
        self.expect('<')?;
        let name = self.parse_name()?;
        let mut attributes: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek_char() {
                Some('>') => {
                    self.pos += 1;
                    self.stack.push(name.clone());
                    self.seen_root = true;
                    return Ok(XmlToken::StartElement { name, attributes, self_closing: false });
                }
                Some('/') => {
                    self.pos += 1;
                    self.expect('>')?;
                    self.seen_root = true;
                    if self.stack.is_empty() {
                        self.root_closed = true;
                    }
                    return Ok(XmlToken::StartElement { name, attributes, self_closing: true });
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    if attributes.iter().any(|(n, _)| *n == attr_name) {
                        return Err(self.err(XmlErrorKind::DuplicateAttribute(attr_name)));
                    }
                    self.skip_ws();
                    self.expect('=')?;
                    self.skip_ws();
                    let quote = match self.peek_char() {
                        Some(q @ ('"' | '\'')) => {
                            self.pos += 1;
                            q
                        }
                        Some(c) => return Err(self.err(XmlErrorKind::UnexpectedChar(c))),
                        None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                    };
                    let vstart = self.pos;
                    let rel = self.input[self.pos..]
                        .find(quote)
                        .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
                    let raw = &self.input[vstart..vstart + rel];
                    let value = unescape(raw, vstart)?.into_owned();
                    self.pos = vstart + rel + 1;
                    attributes.push((attr_name, value));
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_end_tag(&mut self) -> XmlResult<XmlToken> {
        self.pos += 2; // "</"
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect('>')?;
        match self.stack.pop() {
            Some(open) if open == name => {
                if self.stack.is_empty() {
                    self.root_closed = true;
                }
                Ok(XmlToken::EndElement { name })
            }
            Some(open) => {
                Err(self.err(XmlErrorKind::MismatchedTag { expected: open, found: name }))
            }
            None => Err(self.err(XmlErrorKind::UnopenedTag(name))),
        }
    }

    fn parse_text(&mut self) -> XmlResult<XmlToken> {
        let start = self.pos;
        let rel = self.input[self.pos..].find('<').unwrap_or(self.input.len() - self.pos);
        let raw = &self.input[start..start + rel];
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
        let text = unescape(raw, start)?.into_owned();
        Ok(XmlToken::Text(text))
    }

    fn parse_cdata(&mut self) -> XmlResult<XmlToken> {
        self.pos += "<![CDATA[".len();
        let rel = self.input[self.pos..]
            .find("]]>")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let text = self.input[self.pos..self.pos + rel].to_owned();
        self.pos += rel + 3;
        Ok(XmlToken::Text(text))
    }
}
