//! # indiss-xml — minimal XML for UPnP descriptions
//!
//! A from-scratch XML 1.0 subset sufficient for the documents the INDISS
//! paper's UPnP unit must handle: device/service description documents
//! fetched from `LOCATION:` URLs (paper §2.4) and SOAP-lite envelopes.
//!
//! Three layers:
//!
//! * [`XmlPullParser`] — streaming tokens that borrow from the document:
//!   names are slices of it, and so are text and attribute values unless
//!   an entity had to be resolved. This is what the INDISS UPnP unit's
//!   "XML parser" (the target of `SDP_C_PARSER_SWITCH`) consumes: the
//!   description reader takes its fields straight from the tokens in one
//!   pass, without building a tree.
//! * [`Element`] — an owned DOM-lite tree for navigation, built from the
//!   same tokens; SOAP envelopes and the document builders use it.
//! * [`XmlWriter`] — compact serialization with correct escaping.
//!
//! Out of scope, deliberately: DTD validation, namespace resolution
//! (prefixes are preserved verbatim; lookups use local names), and
//! streaming from readers (documents are a few KB).
//!
//! ```
//! use indiss_xml::Element;
//!
//! let doc = Element::parse(r#"<root><device><friendlyName>Clock</friendlyName></device></root>"#)?;
//! assert_eq!(doc.descendant_text("friendlyName").as_deref(), Some("Clock"));
//! # Ok::<(), indiss_xml::XmlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dom;
mod error;
mod escape;
mod parser;
mod writer;

pub use dom::{Element, XmlNode};
pub use error::{XmlError, XmlErrorKind, XmlResult};
pub use escape::{escape_attr, escape_text, unescape};
pub use parser::{XmlPullParser, XmlToken};
pub use writer::XmlWriter;
