//! Service URLs and service types (RFC 2608 §4, RFC 2609).
//!
//! A service URL names a service instance:
//! `service:printer:lpr://host:515/queue` — where `printer` is the abstract
//! type, `lpr` the concrete protocol, and the remainder the address spec.
//! The paper's Fig. 4 reply carries
//! `service:clock:soap://128.93.8.112:4005/service/timer/control`.

use std::fmt;

use crate::error::{SlpError, SlpResult};

/// A parsed SLP service type, e.g. `service:printer:lpr`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ServiceType {
    /// The abstract (or only) type name, lowercase by convention.
    pub abstract_type: String,
    /// Concrete protocol under an abstract type, if any.
    pub concrete: Option<String>,
}

impl ServiceType {
    /// Creates a simple (non-abstract) service type.
    pub fn simple(name: &str) -> Self {
        ServiceType { abstract_type: name.to_ascii_lowercase(), concrete: None }
    }

    /// Creates an abstract type with a concrete protocol.
    pub fn with_concrete(abstract_type: &str, concrete: &str) -> Self {
        ServiceType {
            abstract_type: abstract_type.to_ascii_lowercase(),
            concrete: Some(concrete.to_ascii_lowercase()),
        }
    }

    /// Parses the part after `service:`, e.g. `printer:lpr` or `clock`.
    pub fn parse(s: &str) -> SlpResult<ServiceType> {
        if s.is_empty() {
            return Err(SlpError::BadServiceUrl("empty service type".into()));
        }
        let mut parts = s.splitn(2, ':');
        let abstract_type = parts.next().expect("splitn yields at least one").to_owned();
        if abstract_type.is_empty() {
            return Err(SlpError::BadServiceUrl(format!("bad service type {s:?}")));
        }
        let concrete = parts.next().filter(|c| !c.is_empty()).map(str::to_owned);
        Ok(ServiceType {
            abstract_type: abstract_type.to_ascii_lowercase(),
            concrete: concrete.map(|c| c.to_ascii_lowercase()),
        })
    }

    /// True when a request for `self` matches an offered type `other`:
    /// equal abstract types, and if the request names a concrete type it
    /// must match too (a request for the abstract type matches all
    /// concrete instances, RFC 2608 §8.1).
    pub fn matches(&self, other: &ServiceType) -> bool {
        if self.abstract_type != other.abstract_type {
            return false;
        }
        match &self.concrete {
            None => true,
            Some(c) => other.concrete.as_deref() == Some(c.as_str()),
        }
    }
}

impl fmt::Display for ServiceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service:{}", self.abstract_type)?;
        if let Some(c) = &self.concrete {
            write!(f, ":{c}")?;
        }
        Ok(())
    }
}

/// A parsed service URL.
///
/// # Examples
///
/// ```
/// use indiss_slp::ServiceUrl;
///
/// let url = ServiceUrl::parse("service:clock:soap://10.0.0.2:4005/service/timer/control")?;
/// assert_eq!(url.service_type.abstract_type, "clock");
/// assert_eq!(url.service_type.concrete.as_deref(), Some("soap"));
/// assert_eq!(url.host, "10.0.0.2");
/// assert_eq!(url.port, Some(4005));
/// assert_eq!(url.path, "/service/timer/control");
/// # Ok::<(), indiss_slp::SlpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ServiceUrl {
    /// The service type.
    pub service_type: ServiceType,
    /// Host name or address.
    pub host: String,
    /// Optional port.
    pub port: Option<u16>,
    /// Path component, beginning with `/` when present, else empty.
    pub path: String,
}

impl ServiceUrl {
    /// Builds a service URL from parts.
    pub fn new(service_type: ServiceType, host: &str, port: Option<u16>, path: &str) -> Self {
        ServiceUrl { service_type, host: host.to_owned(), port, path: path.to_owned() }
    }

    /// Parses a `service:` URL.
    ///
    /// # Errors
    ///
    /// [`SlpError::BadServiceUrl`] when the scheme is missing, the
    /// authority separator is absent, or the port is not numeric.
    pub fn parse(s: &str) -> SlpResult<ServiceUrl> {
        let rest =
            s.strip_prefix("service:").ok_or_else(|| SlpError::BadServiceUrl(s.to_owned()))?;
        let sep = rest.find("://").ok_or_else(|| SlpError::BadServiceUrl(s.to_owned()))?;
        let service_type = ServiceType::parse(&rest[..sep])?;
        let after = &rest[sep + 3..];
        let (authority, path) = match after.find('/') {
            Some(i) => (&after[..i], &after[i..]),
            None => (after, ""),
        };
        if authority.is_empty() {
            return Err(SlpError::BadServiceUrl(s.to_owned()));
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| SlpError::BadServiceUrl(s.to_owned()))?;
                (h.to_owned(), Some(port))
            }
            None => (authority.to_owned(), None),
        };
        if host.is_empty() {
            return Err(SlpError::BadServiceUrl(s.to_owned()));
        }
        Ok(ServiceUrl { service_type, host, port, path: path.to_owned() })
    }
}

impl fmt::Display for ServiceUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.service_type, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)
    }
}

/// A URL entry as carried in replies and registrations (RFC 2608 §4.3):
/// a URL string plus its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlEntry {
    /// Remaining lifetime in seconds.
    pub lifetime: u16,
    /// The service URL text (kept as a string on the wire; parse with
    /// [`ServiceUrl::parse`] when structure is needed).
    pub url: String,
}

impl UrlEntry {
    /// Creates an entry.
    pub fn new(url: impl Into<String>, lifetime: u16) -> Self {
        UrlEntry { lifetime, url: url.into() }
    }

    /// Encodes per RFC 2608 §4.3 (reserved byte, lifetime, URL, 0 auth blocks).
    pub fn encode(&self, w: &mut crate::wire::ByteWriter) -> SlpResult<()> {
        UrlEntry::encode_parts(w, self.lifetime, &[&self.url])
    }

    /// Encodes an entry whose URL is the concatenation of `url` — the
    /// one URL-entry writer, for owned entries and borrowed parts alike.
    pub(crate) fn encode_parts(
        w: &mut crate::wire::ByteWriter,
        lifetime: u16,
        url: &[&str],
    ) -> SlpResult<()> {
        w.u8(0).u16(lifetime); // reserved, lifetime
        w.string_parts(url)?;
        w.u8(0); // number of auth blocks
        Ok(())
    }

    /// Decodes a URL entry.
    ///
    /// # Errors
    ///
    /// [`SlpError::Truncated`] or [`SlpError::BadString`] on malformed
    /// input. Auth blocks are not supported and must be 0.
    pub fn decode(r: &mut crate::wire::ByteReader<'_>) -> SlpResult<UrlEntry> {
        let _reserved = r.u8()?;
        let lifetime = r.u16()?;
        let url = r.string()?;
        let auth_blocks = r.u8()?;
        if auth_blocks != 0 {
            return Err(SlpError::BadServiceUrl("auth blocks unsupported".into()));
        }
        Ok(UrlEntry { lifetime, url })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ByteReader, ByteWriter};

    #[test]
    fn parse_simple_url() {
        let u = ServiceUrl::parse("service:printer://10.0.0.9:515").unwrap();
        assert_eq!(u.service_type, ServiceType::simple("printer"));
        assert_eq!(u.host, "10.0.0.9");
        assert_eq!(u.port, Some(515));
        assert_eq!(u.path, "");
    }

    #[test]
    fn parse_paper_clock_url() {
        let s = "service:clock:soap://128.93.8.112:4005/service/timer/control";
        let u = ServiceUrl::parse(s).unwrap();
        assert_eq!(u.to_string(), s);
    }

    #[test]
    fn parse_without_port() {
        let u = ServiceUrl::parse("service:tftp://files.example/path").unwrap();
        assert_eq!(u.port, None);
        assert_eq!(u.path, "/path");
    }

    #[test]
    fn display_roundtrips() {
        for s in ["service:printer://h", "service:printer:lpr://h:1/q", "service:a://h:65535"] {
            assert_eq!(ServiceUrl::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "http://x",
            "service:",
            "service:x",
            "service:x//missing-colon",
            "service:x://",
            "service:x://:5",
            "service:x://h:notaport",
        ] {
            assert!(ServiceUrl::parse(s).is_err(), "{s} should fail");
        }
    }

    #[test]
    fn type_matching_abstract_and_concrete() {
        let request_abstract = ServiceType::simple("printer");
        let request_concrete = ServiceType::with_concrete("printer", "lpr");
        let offer_lpr = ServiceType::with_concrete("printer", "lpr");
        let offer_ipp = ServiceType::with_concrete("printer", "ipp");
        assert!(request_abstract.matches(&offer_lpr));
        assert!(request_abstract.matches(&offer_ipp));
        assert!(request_concrete.matches(&offer_lpr));
        assert!(!request_concrete.matches(&offer_ipp));
        assert!(!ServiceType::simple("clock").matches(&offer_lpr));
    }

    #[test]
    fn type_parse_is_case_insensitive() {
        assert_eq!(
            ServiceType::parse("Printer:LPR").unwrap(),
            ServiceType::with_concrete("printer", "lpr")
        );
    }

    #[test]
    fn url_entry_roundtrip() {
        let e = UrlEntry::new("service:clock://10.0.0.2", 1800);
        let mut w = ByteWriter::new();
        e.encode(&mut w).unwrap();
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(UrlEntry::decode(&mut r).unwrap(), e);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn url_entry_rejects_auth_blocks() {
        let mut w = ByteWriter::new();
        w.u8(0);
        w.u16(60);
        w.string("service:x://h").unwrap();
        w.u8(1); // one auth block — unsupported
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "test");
        assert!(UrlEntry::decode(&mut r).is_err());
    }
}
