//! SLPv2 message bodies and the top-level codec (RFC 2608 §8–§11).

use crate::consts::{ErrorCode, FunctionId};
use crate::error::{SlpError, SlpResult};
use crate::url::UrlEntry;
use crate::wire::{ByteReader, ByteWriter, Header, HeaderView};

/// A complete SLP message: common header plus function-specific body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The common header.
    pub header: Header,
    /// The function-specific body.
    pub body: Body,
}

/// Function-specific message bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Service Request (§8.1).
    SrvRqst(SrvRqst),
    /// Service Reply (§8.2).
    SrvRply(SrvRply),
    /// Service Registration (§8.3).
    SrvReg(SrvReg),
    /// Service Deregistration (§10.6).
    SrvDeReg(SrvDeReg),
    /// Service Acknowledgement (§8.4).
    SrvAck(SrvAck),
    /// Attribute Request (§10.3).
    AttrRqst(AttrRqst),
    /// Attribute Reply (§10.4).
    AttrRply(AttrRply),
    /// DA Advertisement (§8.5).
    DaAdvert(DaAdvert),
    /// Service Type Request (§10.1).
    SrvTypeRqst(SrvTypeRqst),
    /// Service Type Reply (§10.2).
    SrvTypeRply(SrvTypeRply),
    /// SA Advertisement (§8.6).
    SaAdvert(SaAdvert),
}

impl Body {
    /// The function id corresponding to this body.
    pub fn function(&self) -> FunctionId {
        match self {
            Body::SrvRqst(_) => FunctionId::SrvRqst,
            Body::SrvRply(_) => FunctionId::SrvRply,
            Body::SrvReg(_) => FunctionId::SrvReg,
            Body::SrvDeReg(_) => FunctionId::SrvDeReg,
            Body::SrvAck(_) => FunctionId::SrvAck,
            Body::AttrRqst(_) => FunctionId::AttrRqst,
            Body::AttrRply(_) => FunctionId::AttrRply,
            Body::DaAdvert(_) => FunctionId::DaAdvert,
            Body::SrvTypeRqst(_) => FunctionId::SrvTypeRqst,
            Body::SrvTypeRply(_) => FunctionId::SrvTypeRply,
            Body::SaAdvert(_) => FunctionId::SaAdvert,
        }
    }
}

/// Service Request: "find services of this type, in these scopes,
/// matching this predicate".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SrvRqst {
    /// Previous-responder list: addresses that must not answer again
    /// (multicast convergence, §6.3).
    pub prlist: String,
    /// Requested service type, e.g. `service:clock`.
    pub service_type: String,
    /// Comma-separated scope list.
    pub scopes: String,
    /// LDAPv3 predicate ([`crate::Filter`] syntax); empty matches all.
    pub predicate: String,
    /// SLP SPI (security); empty in this implementation.
    pub spi: String,
}

/// A [`SrvRqst`] borrowed from the datagram it arrived in — the one
/// `SrvRqst` body parser. A gateway classifying a request reads its
/// service type from here without copying a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrvRqstView<'a> {
    /// Previous-responder list.
    pub prlist: &'a str,
    /// Requested service type.
    pub service_type: &'a str,
    /// Comma-separated scope list.
    pub scopes: &'a str,
    /// LDAPv3 predicate.
    pub predicate: &'a str,
    /// SLP SPI.
    pub spi: &'a str,
}

impl<'a> SrvRqstView<'a> {
    /// Decodes a `SrvRqst` body (what follows its [`crate::HeaderView`]),
    /// failing exactly as the `SrvRqst` arm of [`Message::decode`] does.
    pub fn decode(body: &'a [u8]) -> SlpResult<SrvRqstView<'a>> {
        let mut r = ByteReader::new(body, "body");
        let view = SrvRqstView::read(&mut r)?;
        r.finish()?;
        Ok(view)
    }

    fn read(r: &mut ByteReader<'a>) -> SlpResult<SrvRqstView<'a>> {
        Ok(SrvRqstView {
            prlist: r.str()?,
            service_type: r.str()?,
            scopes: r.str()?,
            predicate: r.str()?,
            spi: r.str()?,
        })
    }

    /// The owned request.
    pub fn to_owned(self) -> SrvRqst {
        SrvRqst {
            prlist: self.prlist.into(),
            service_type: self.service_type.into(),
            scopes: self.scopes.into(),
            predicate: self.predicate.into(),
            spi: self.spi.into(),
        }
    }
}

/// Service Reply: error code plus matched URL entries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SrvRply {
    /// Result code.
    pub error: u16,
    /// Matching URL entries.
    pub urls: Vec<UrlEntry>,
}

impl SrvRply {
    /// Appends a successful one-entry `SrvRply` to `out` from borrowed
    /// parts, through the header and URL-entry writers
    /// [`Message::encode_into`] uses: the bytes are those of the
    /// equivalent [`Message`]. The URL is `url` concatenated; it is
    /// returned, borrowed from `out`. On [`SlpError::FieldOverflow`] `out`
    /// is left as it was.
    pub fn encode_one_into<'o>(
        out: &'o mut Vec<u8>,
        xid: u16,
        lang: &str,
        url: &[&str],
        lifetime: u16,
    ) -> SlpResult<&'o str> {
        let header = HeaderView { function: FunctionId::SrvRply, flags: 0, xid, lang };
        header.encode_into(out, |w| {
            w.u16(0).u16(1); // error, URL count
            UrlEntry::encode_parts(w, lifetime, url)
        })?;
        let end = out.len() - 1; // before the auth-block count
        let url_len: usize = url.iter().map(|p| p.len()).sum();
        Ok(std::str::from_utf8(&out[end - url_len..end]).expect("written from str parts"))
    }
}

/// Service Registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrvReg {
    /// The URL being registered, with lifetime.
    pub entry: UrlEntry,
    /// Service type string.
    pub service_type: String,
    /// Scope list.
    pub scopes: String,
    /// Attribute list in textual form.
    pub attrs: String,
}

/// Service Deregistration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrvDeReg {
    /// Scopes to deregister from.
    pub scopes: String,
    /// The URL entry being removed.
    pub entry: UrlEntry,
    /// Attribute tags to remove (empty = the whole registration).
    pub tags: String,
}

/// Service Acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrvAck {
    /// Result code.
    pub error: u16,
}

/// Attribute Request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttrRqst {
    /// Previous-responder list.
    pub prlist: String,
    /// Service URL (or service type) whose attributes are requested.
    pub url: String,
    /// Scope list.
    pub scopes: String,
    /// Comma-separated tag list filter; empty = all attributes.
    pub tags: String,
    /// SLP SPI; empty here.
    pub spi: String,
}

/// Attribute Reply.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttrRply {
    /// Result code.
    pub error: u16,
    /// Attribute list in textual form.
    pub attrs: String,
}

/// Directory Agent Advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaAdvert {
    /// Result code (0 in unsolicited adverts).
    pub error: u16,
    /// DA stateless boot timestamp (0 = going down, §8.5).
    pub boot_timestamp: u32,
    /// The DA's `service:directory-agent://…` URL.
    pub url: String,
    /// Scopes the DA serves.
    pub scopes: String,
    /// DA attributes.
    pub attrs: String,
    /// SPI list; empty here.
    pub spi: String,
}

/// Service Type Request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SrvTypeRqst {
    /// Previous-responder list.
    pub prlist: String,
    /// Naming authority; `None` means "all" (wire 0xFFFF).
    pub naming_authority: Option<String>,
    /// Scope list.
    pub scopes: String,
}

/// Service Type Reply.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SrvTypeRply {
    /// Result code.
    pub error: u16,
    /// Comma-separated service type list.
    pub types: String,
}

/// Service Agent Advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaAdvert {
    /// The SA's `service:service-agent://…` URL.
    pub url: String,
    /// Scopes the SA serves.
    pub scopes: String,
    /// SA attributes.
    pub attrs: String,
}

impl Message {
    /// Creates a message; the header's function id is taken from the body.
    pub fn new(mut header: Header, body: Body) -> Self {
        header.function = body.function();
        Message { header, body }
    }

    /// The [`ErrorCode`] carried by reply bodies; `Ok` for requests.
    pub fn error_code(&self) -> ErrorCode {
        let raw = match &self.body {
            Body::SrvRply(b) => b.error,
            Body::SrvAck(b) => b.error,
            Body::AttrRply(b) => b.error,
            Body::DaAdvert(b) => b.error,
            Body::SrvTypeRply(b) => b.error,
            _ => 0,
        };
        ErrorCode::from_u16(raw)
    }

    /// Encodes the full message to wire bytes.
    ///
    /// # Errors
    ///
    /// [`SlpError::FieldOverflow`] when a string exceeds its field.
    pub fn encode(&self) -> SlpResult<Vec<u8>> {
        // Room for a typical discovery message: one allocation, no regrowth.
        let mut out = Vec::with_capacity(128);
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the full message to `out`: header and body in one buffer,
    /// the header's length field back-patched. On
    /// [`SlpError::FieldOverflow`] `out` is left as it was.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> SlpResult<()> {
        self.header.view().encode_into(out, |w| self.encode_body(w))
    }

    fn encode_body(&self, w: &mut ByteWriter) -> SlpResult<()> {
        match &self.body {
            Body::SrvRqst(b) => {
                w.string(&b.prlist)?;
                w.string(&b.service_type)?;
                w.string(&b.scopes)?;
                w.string(&b.predicate)?;
                w.string(&b.spi)?;
            }
            Body::SrvRply(b) => {
                w.u16(b.error);
                let count = u16::try_from(b.urls.len())
                    .map_err(|_| SlpError::FieldOverflow { context: "url count" })?;
                w.u16(count);
                for entry in &b.urls {
                    entry.encode(w)?;
                }
            }
            Body::SrvReg(b) => {
                b.entry.encode(w)?;
                w.string(&b.service_type)?;
                w.string(&b.scopes)?;
                w.string(&b.attrs)?;
                w.u8(0); // attr auth blocks
            }
            Body::SrvDeReg(b) => {
                w.string(&b.scopes)?;
                b.entry.encode(w)?;
                w.string(&b.tags)?;
            }
            Body::SrvAck(b) => {
                w.u16(b.error);
            }
            Body::AttrRqst(b) => {
                w.string(&b.prlist)?;
                w.string(&b.url)?;
                w.string(&b.scopes)?;
                w.string(&b.tags)?;
                w.string(&b.spi)?;
            }
            Body::AttrRply(b) => {
                w.u16(b.error);
                w.string(&b.attrs)?;
                w.u8(0); // attr auth blocks
            }
            Body::DaAdvert(b) => {
                w.u16(b.error);
                w.u32(b.boot_timestamp);
                w.string(&b.url)?;
                w.string(&b.scopes)?;
                w.string(&b.attrs)?;
                w.string(&b.spi)?;
                w.u8(0); // auth blocks
            }
            Body::SrvTypeRqst(b) => {
                w.string(&b.prlist)?;
                match &b.naming_authority {
                    None => {
                        w.u16(0xFFFF);
                    }
                    Some(na) => {
                        w.string(na)?;
                    }
                }
                w.string(&b.scopes)?;
            }
            Body::SrvTypeRply(b) => {
                w.u16(b.error);
                w.string(&b.types)?;
            }
            Body::SaAdvert(b) => {
                w.string(&b.url)?;
                w.string(&b.scopes)?;
                w.string(&b.attrs)?;
                w.u8(0); // auth blocks
            }
        }
        Ok(())
    }

    /// Decodes a full message from wire bytes.
    ///
    /// # Errors
    ///
    /// Any [`SlpError`] from the header or body codecs.
    pub fn decode(buf: &[u8]) -> SlpResult<Message> {
        let (header, body) = HeaderView::decode(buf)?;
        Message::decode_body(header, body)
    }

    /// Decodes the body of a message whose header is already parsed, so
    /// a caller that looked at the header first parses it once.
    pub fn decode_body(header: HeaderView<'_>, body_bytes: &[u8]) -> SlpResult<Message> {
        let mut r = ByteReader::new(body_bytes, "body");
        let body = match header.function {
            FunctionId::SrvRqst => Body::SrvRqst(SrvRqstView::read(&mut r)?.to_owned()),
            FunctionId::SrvRply => {
                let error = r.u16()?;
                let count = r.u16()? as usize;
                let mut urls = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    urls.push(UrlEntry::decode(&mut r)?);
                }
                Body::SrvRply(SrvRply { error, urls })
            }
            FunctionId::SrvReg => {
                let entry = UrlEntry::decode(&mut r)?;
                let service_type = r.string()?;
                let scopes = r.string()?;
                let attrs = r.string()?;
                let _auths = r.u8()?;
                Body::SrvReg(SrvReg { entry, service_type, scopes, attrs })
            }
            FunctionId::SrvDeReg => Body::SrvDeReg(SrvDeReg {
                scopes: r.string()?,
                entry: UrlEntry::decode(&mut r)?,
                tags: r.string()?,
            }),
            FunctionId::SrvAck => Body::SrvAck(SrvAck { error: r.u16()? }),
            FunctionId::AttrRqst => Body::AttrRqst(AttrRqst {
                prlist: r.string()?,
                url: r.string()?,
                scopes: r.string()?,
                tags: r.string()?,
                spi: r.string()?,
            }),
            FunctionId::AttrRply => {
                let error = r.u16()?;
                let attrs = r.string()?;
                let _auths = r.u8()?;
                Body::AttrRply(AttrRply { error, attrs })
            }
            FunctionId::DaAdvert => {
                let error = r.u16()?;
                let boot_timestamp = r.u32()?;
                let url = r.string()?;
                let scopes = r.string()?;
                let attrs = r.string()?;
                let spi = r.string()?;
                let _auths = r.u8()?;
                Body::DaAdvert(DaAdvert { error, boot_timestamp, url, scopes, attrs, spi })
            }
            FunctionId::SrvTypeRqst => {
                let prlist = r.string()?;
                // Peek the naming-authority length to detect 0xFFFF ("all").
                let len = r.u16()?;
                let naming_authority = if len == 0xFFFF {
                    None
                } else {
                    // Cap the preallocation: `len` is attacker-supplied
                    // and may exceed the actual datagram; the loop below
                    // still bails on truncation.
                    let mut bytes = Vec::with_capacity((len as usize).min(64));
                    for _ in 0..len {
                        bytes.push(r.u8()?);
                    }
                    Some(String::from_utf8(bytes).map_err(|_| SlpError::BadString)?)
                };
                let scopes = r.string()?;
                Body::SrvTypeRqst(SrvTypeRqst { prlist, naming_authority, scopes })
            }
            FunctionId::SrvTypeRply => {
                Body::SrvTypeRply(SrvTypeRply { error: r.u16()?, types: r.string()? })
            }
            FunctionId::SaAdvert => {
                let url = r.string()?;
                let scopes = r.string()?;
                let attrs = r.string()?;
                let _auths = r.u8()?;
                Body::SaAdvert(SaAdvert { url, scopes, attrs })
            }
        };
        r.finish()?;
        Ok(Message { header: header.to_owned(), body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{DEFAULT_LANG, FLAG_MCAST};

    fn hdr(xid: u16) -> Header {
        Header::new(FunctionId::SrvAck, xid, DEFAULT_LANG)
    }

    fn roundtrip(body: Body) {
        let msg = Message::new(hdr(7), body);
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn srv_rqst_roundtrip() {
        roundtrip(Body::SrvRqst(SrvRqst {
            prlist: "10.0.0.1".into(),
            service_type: "service:clock".into(),
            scopes: "DEFAULT".into(),
            predicate: "(location=paris)".into(),
            spi: String::new(),
        }));
    }

    #[test]
    fn srv_rply_roundtrip() {
        roundtrip(Body::SrvRply(SrvRply {
            error: 0,
            urls: vec![
                UrlEntry::new("service:clock:soap://10.0.0.2:4005/ctl", 1800),
                UrlEntry::new("service:clock://10.0.0.3", 60),
            ],
        }));
    }

    #[test]
    fn srv_reg_roundtrip() {
        roundtrip(Body::SrvReg(SrvReg {
            entry: UrlEntry::new("service:printer:lpr://10.0.0.4:515", 10800),
            service_type: "service:printer:lpr".into(),
            scopes: "DEFAULT,office".into(),
            attrs: "(ppm=12),(color)".into(),
        }));
    }

    #[test]
    fn srv_dereg_roundtrip() {
        roundtrip(Body::SrvDeReg(SrvDeReg {
            scopes: "DEFAULT".into(),
            entry: UrlEntry::new("service:printer://10.0.0.4", 0),
            tags: String::new(),
        }));
    }

    #[test]
    fn srv_ack_roundtrip() {
        roundtrip(Body::SrvAck(SrvAck { error: 4 }));
    }

    #[test]
    fn attr_rqst_rply_roundtrip() {
        roundtrip(Body::AttrRqst(AttrRqst {
            prlist: String::new(),
            url: "service:clock://10.0.0.2".into(),
            scopes: "DEFAULT".into(),
            tags: "friendlyName,model".into(),
            spi: String::new(),
        }));
        roundtrip(Body::AttrRply(AttrRply {
            error: 0,
            attrs: "(friendlyName=CyberGarage Clock Device)".into(),
        }));
    }

    #[test]
    fn da_advert_roundtrip() {
        roundtrip(Body::DaAdvert(DaAdvert {
            error: 0,
            boot_timestamp: 123456,
            url: "service:directory-agent://10.0.0.5".into(),
            scopes: "DEFAULT".into(),
            attrs: String::new(),
            spi: String::new(),
        }));
    }

    #[test]
    fn srv_type_rqst_all_and_named_authority() {
        roundtrip(Body::SrvTypeRqst(SrvTypeRqst {
            prlist: String::new(),
            naming_authority: None,
            scopes: "DEFAULT".into(),
        }));
        roundtrip(Body::SrvTypeRqst(SrvTypeRqst {
            prlist: String::new(),
            naming_authority: Some("iana".into()),
            scopes: "DEFAULT".into(),
        }));
        roundtrip(Body::SrvTypeRply(SrvTypeRply {
            error: 0,
            types: "service:clock,service:printer".into(),
        }));
    }

    #[test]
    fn sa_advert_roundtrip() {
        roundtrip(Body::SaAdvert(SaAdvert {
            url: "service:service-agent://10.0.0.2".into(),
            scopes: "DEFAULT".into(),
            attrs: "(service-type=service:clock)".into(),
        }));
    }

    #[test]
    fn flags_preserved() {
        let mut header = hdr(1);
        header.flags = FLAG_MCAST;
        let msg = Message::new(header, Body::SrvAck(SrvAck { error: 0 }));
        let back = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(back.header.flags, FLAG_MCAST);
    }

    #[test]
    fn error_code_accessor() {
        let msg = Message::new(hdr(1), Body::SrvAck(SrvAck { error: 4 }));
        assert_eq!(msg.error_code(), ErrorCode::ScopeNotSupported);
        let req = Message::new(hdr(1), Body::SrvRqst(SrvRqst::default()));
        assert_eq!(req.error_code(), ErrorCode::Ok);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let msg = Message::new(hdr(1), Body::SrvAck(SrvAck { error: 0 }));
        let mut wire = msg.encode().unwrap();
        // Grow the body and fix the declared length so only the body-level
        // check can catch it.
        wire.push(0xAB);
        let total = wire.len() as u32;
        wire[2..5].copy_from_slice(&total.to_be_bytes()[1..4]);
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn header_function_follows_body() {
        let msg = Message::new(hdr(9), Body::SrvRply(SrvRply::default()));
        assert_eq!(msg.header.function, FunctionId::SrvRply);
    }
}
