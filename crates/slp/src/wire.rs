//! Binary reader/writer primitives and the SLPv2 common header.
//!
//! All multi-byte integers are big-endian (network order). Strings are
//! UTF-8 with a `u16` length prefix, per RFC 2608 §5.

use crate::consts::{FunctionId, SLP_VERSION};
use crate::error::{SlpError, SlpResult};

/// Cursor-based reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string included in truncation errors.
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader; `context` names the structure for error messages.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader { buf, pos: 0, context }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> SlpResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SlpError::Truncated { context: self.context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> SlpResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> SlpResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian 24-bit unsigned value.
    pub fn u24(&mut self) -> SlpResult<u32> {
        let b = self.take(3)?;
        Ok(u32::from_be_bytes([0, b[0], b[1], b[2]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> SlpResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string, borrowed.
    pub fn str(&mut self) -> SlpResult<&'a str> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| SlpError::BadString)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> SlpResult<String> {
        self.str().map(str::to_owned)
    }

    /// Fails with [`SlpError::LengthMismatch`] unless every byte was read.
    pub(crate) fn finish(&self) -> SlpResult<()> {
        if self.remaining() != 0 {
            return Err(SlpError::LengthMismatch { declared: self.pos, actual: self.buf.len() });
        }
        Ok(())
    }
}

/// Append-only writer producing wire bytes.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian 24-bit value (the high byte of `v` must be 0).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `v < 2^24`; release builds truncate.
    pub fn u24(&mut self, v: u32) -> &mut Self {
        debug_assert!(v < 1 << 24, "u24 overflow");
        let b = v.to_be_bytes();
        self.buf.extend_from_slice(&b[1..4]);
        self
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SlpError::FieldOverflow`] if the string exceeds 65535 bytes.
    pub fn string(&mut self, s: &str) -> SlpResult<&mut Self> {
        self.string_parts(&[s])
    }

    /// Writes `parts` as one `u16`-length-prefixed string, without
    /// concatenating them first ([`SlpError::FieldOverflow`] past 65535).
    pub(crate) fn string_parts(&mut self, parts: &[&str]) -> SlpResult<&mut Self> {
        let len = u16::try_from(parts.iter().map(|p| p.len()).sum::<usize>())
            .map_err(|_| SlpError::FieldOverflow { context: "string" })?;
        self.u16(len);
        for part in parts {
            self.buf.extend_from_slice(part.as_bytes());
        }
        Ok(self)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Overwrites bytes at an absolute position (used to back-patch the
    /// header's length field after the body is known).
    pub fn patch(&mut self, pos: usize, bytes: &[u8]) {
        self.buf[pos..pos + bytes.len()].copy_from_slice(bytes);
    }
}

/// The SLPv2 common header (RFC 2608 §8).
///
/// ```text
/// | Version | Function-ID |          Length           |
/// | Flags (O,F,R + reserved)  | Next Extension Offset |
/// |  XID  | Lang Tag Length | Lang Tag ...            |
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Message function.
    pub function: FunctionId,
    /// Flags word (`FLAG_OVERFLOW` / `FLAG_FRESH` / `FLAG_MCAST`).
    pub flags: u16,
    /// Transaction id correlating requests and replies.
    pub xid: u16,
    /// RFC 1766 language tag.
    pub lang: String,
}

impl Header {
    /// Fixed part length: everything before the language tag bytes.
    pub const FIXED_LEN: usize = 14;

    /// Creates a header with empty flags.
    pub fn new(function: FunctionId, xid: u16, lang: &str) -> Self {
        Header { function, flags: 0, xid, lang: lang.to_owned() }
    }

    /// Total encoded header length, including the language tag.
    pub fn encoded_len(&self) -> usize {
        Self::FIXED_LEN + self.lang.len()
    }

    /// This header as a [`HeaderView`], the form the writer takes.
    pub(crate) fn view(&self) -> HeaderView<'_> {
        HeaderView { function: self.function, flags: self.flags, xid: self.xid, lang: &self.lang }
    }

    /// Encodes the header followed by `body`, patching the total length.
    ///
    /// # Errors
    ///
    /// [`SlpError::FieldOverflow`] if the language tag exceeds a `u16` or
    /// the total message exceeds 2^24 bytes.
    pub fn encode_with_body(&self, body: &[u8]) -> SlpResult<Vec<u8>> {
        let mut out = Vec::new();
        self.view().encode_into(&mut out, |w| {
            w.buf.extend_from_slice(body);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decodes a header; returns it plus the body slice.
    ///
    /// # Errors
    ///
    /// As [`HeaderView::decode`].
    pub fn decode(buf: &[u8]) -> SlpResult<(Header, &[u8])> {
        HeaderView::decode(buf).map(|(header, body)| (header.to_owned(), body))
    }
}

/// A [`Header`] borrowed from the datagram it arrived in: the one header
/// parser, and the one header writer. A gateway answering from cache
/// reads the `xid` and `lang` it echoes from here without copying them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderView<'a> {
    /// Message function.
    pub function: FunctionId,
    /// Flags word.
    pub flags: u16,
    /// Transaction id.
    pub xid: u16,
    /// RFC 1766 language tag.
    pub lang: &'a str,
}

impl<'a> HeaderView<'a> {
    /// Decodes a header; returns it plus the body slice.
    ///
    /// # Errors
    ///
    /// [`SlpError::BadVersion`], [`SlpError::UnknownFunction`],
    /// [`SlpError::LengthMismatch`] or [`SlpError::Truncated`].
    pub fn decode(buf: &'a [u8]) -> SlpResult<(HeaderView<'a>, &'a [u8])> {
        let mut r = ByteReader::new(buf, "header");
        let version = r.u8()?;
        if version != SLP_VERSION {
            return Err(SlpError::BadVersion(version));
        }
        let function_byte = r.u8()?;
        let function =
            FunctionId::from_u8(function_byte).ok_or(SlpError::UnknownFunction(function_byte))?;
        let length = r.u24()? as usize;
        if length != buf.len() {
            return Err(SlpError::LengthMismatch { declared: length, actual: buf.len() });
        }
        let flags = r.u16()?;
        let _next_ext = r.u24()?;
        let xid = r.u16()?;
        let lang = r.str()?;
        Ok((HeaderView { function, flags, xid, lang }, &buf[r.position()..]))
    }

    /// The owned header.
    pub fn to_owned(self) -> Header {
        Header { function: self.function, flags: self.flags, xid: self.xid, lang: self.lang.into() }
    }

    /// Appends one message to `out`: this header, then what `body`
    /// writes, then the header's length field back-patched. On error
    /// `out` is left as it was.
    pub(crate) fn encode_into(
        self,
        out: &mut Vec<u8>,
        body: impl FnOnce(&mut ByteWriter) -> SlpResult<()>,
    ) -> SlpResult<()> {
        let start = out.len();
        // Write through the caller's allocation: a warm buffer is reused.
        let mut w = ByteWriter { buf: std::mem::take(out) };
        let result = self.write(&mut w, body);
        *out = w.finish();
        if result.is_err() {
            out.truncate(start);
        }
        result
    }

    fn write(
        self,
        w: &mut ByteWriter,
        body: impl FnOnce(&mut ByteWriter) -> SlpResult<()>,
    ) -> SlpResult<()> {
        let start = w.len();
        w.u8(SLP_VERSION).u8(self.function as u8).u24(0).u16(self.flags);
        w.u24(0).u16(self.xid); // next extension offset: unused
        w.string(self.lang)?;
        body(w)?;
        let total = w.len() - start;
        if total >= 1 << 24 {
            return Err(SlpError::FieldOverflow { context: "message length" });
        }
        w.patch(start + 2, &(total as u32).to_be_bytes()[1..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{FLAG_FRESH, FLAG_MCAST};

    #[test]
    fn reader_primitives() {
        let data = [0x01, 0x00, 0x02, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04];
        let mut r = ByteReader::new(&data, "test");
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u24().unwrap(), 3);
        assert_eq!(r.u32().unwrap(), 4);
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
    }

    #[test]
    fn writer_reader_string_roundtrip() {
        let mut w = ByteWriter::new();
        w.string("service:printer").unwrap();
        w.string("").unwrap();
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.string().unwrap(), "service:printer");
        assert_eq!(r.string().unwrap(), "");
    }

    #[test]
    fn header_roundtrip() {
        let h = Header {
            function: FunctionId::SrvRqst,
            flags: FLAG_MCAST | FLAG_FRESH,
            xid: 0xBEEF,
            lang: "en".into(),
        };
        let wire = h.encode_with_body(b"BODY").unwrap();
        let (back, body) = Header::decode(&wire).unwrap();
        assert_eq!(back, h);
        assert_eq!(body, b"BODY");
    }

    #[test]
    fn header_rejects_wrong_version() {
        let h = Header::new(FunctionId::SrvAck, 1, "en");
        let mut wire = h.encode_with_body(&[]).unwrap();
        wire[0] = 1;
        assert_eq!(Header::decode(&wire), Err(SlpError::BadVersion(1)));
    }

    #[test]
    fn header_rejects_bad_length() {
        let h = Header::new(FunctionId::SrvAck, 1, "en");
        let mut wire = h.encode_with_body(&[]).unwrap();
        wire.push(0); // extra byte not covered by the declared length
        assert!(matches!(Header::decode(&wire), Err(SlpError::LengthMismatch { .. })));
    }

    #[test]
    fn header_rejects_unknown_function() {
        let h = Header::new(FunctionId::SrvAck, 1, "en");
        let mut wire = h.encode_with_body(&[]).unwrap();
        wire[1] = 200;
        assert_eq!(Header::decode(&wire), Err(SlpError::UnknownFunction(200)));
    }

    #[test]
    fn truncated_header_is_detected() {
        // Too short to even read the length field.
        assert!(matches!(Header::decode(&[2, 1]), Err(SlpError::Truncated { .. })));
        // Length field present but wrong for the buffer.
        assert!(matches!(Header::decode(&[2, 1, 0, 0, 99]), Err(SlpError::LengthMismatch { .. })));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut w = ByteWriter::new();
        w.u16(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.string(), Err(SlpError::BadString));
    }

    #[test]
    fn patch_overwrites_in_place() {
        let mut w = ByteWriter::new();
        w.u32(0);
        w.patch(0, &7u32.to_be_bytes());
        assert_eq!(w.finish(), 7u32.to_be_bytes());
    }
}
