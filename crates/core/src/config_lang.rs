//! The paper's textual configuration language (§3).
//!
//! An INDISS instance is *composed*, not compiled: §3 specifies it as
//!
//! ```text
//! System SDP = {
//!   Component Monitor = { ScanPort = { 1900; 4160; 427 } }
//!   Component Unit SLP(port=427);
//!   Component Unit UPnP(port=1900);
//!   Component Unit JINI(port=4160); }
//! ```
//!
//! [`parse_system_sdp`] accepts that text verbatim and yields the
//! equivalent [`IndissConfig`]. The grammar extends the paper's in one
//! direction only: a unit whose name is not a built-in SDP takes a
//! descriptor block, so a brand-new protocol is declared entirely in
//! text —
//!
//! ```text
//! Component Unit DNS-SD(port=5353) = {
//!   Group  = 224.0.0.251;
//!   Ttl    = 120;
//!   Query  = "DNSSD Q PTR _{type}._tcp.local";
//!   Answer = "DNSSD A PTR _{type}._tcp.local SRV {url} TTL {ttl}";
//!   Alive  = "DNSSD ANNOUNCE _{type}._tcp.local SRV {url} TTL {ttl}";
//!   ByeBye = "DNSSD GOODBYE _{type}._tcp.local SRV {url}";
//! }
//! ```
//!
//! — and becomes an [`crate::SdpDescriptor`]-driven unit.
//!
//! The `Component Monitor` section is cross-checked rather than obeyed:
//! declaring a unit already implies monitoring its port (the Rust
//! config's invariant), so a `ScanPort` that belongs to no declared unit
//! is an error, and omitted scan ports are filled in by the units.

use std::net::Ipv4Addr;

use crate::config::IndissConfig;
use crate::error::{CoreError, CoreResult};
use crate::event::SdpProtocol;
use crate::units::SdpDescriptor;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(u64),
    Ip(Ipv4Addr),
    Str(String),
    Punct(char),
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "'{s}'"),
            Token::Number(n) => write!(f, "'{n}'"),
            Token::Ip(ip) => write!(f, "'{ip}'"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::Punct(c) => write!(f, "'{c}'"),
        }
    }
}

fn lex(text: &str) -> CoreResult<Vec<(usize, Token)>> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut chars = text.char_indices().peekable();
    while let Some(&(at, c)) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' | '}' | '(' | ')' | '=' | ';' | ',' => {
                tokens.push((line, Token::Punct(c)));
                chars.next();
            }
            '"' => {
                chars.next();
                let start = at + 1;
                let mut end = None;
                for (i, c) in chars.by_ref() {
                    if c == '"' {
                        end = Some(i);
                        break;
                    }
                    if c == '\n' {
                        break;
                    }
                }
                let end = end.ok_or_else(|| {
                    CoreError::ConfigSyntax(format!("line {line}: unterminated string"))
                })?;
                tokens.push((line, Token::Str(text[start..end].to_owned())));
            }
            c if c.is_ascii_digit() => {
                let start = at;
                let mut end = at;
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                let word = &text[start..end];
                let token = if word.contains('.') {
                    Token::Ip(word.parse().map_err(|_| {
                        CoreError::ConfigSyntax(format!(
                            "line {line}: '{word}' is not an IPv4 address"
                        ))
                    })?)
                } else {
                    Token::Number(word.parse().map_err(|_| {
                        CoreError::ConfigSyntax(format!("line {line}: '{word}' is not a number"))
                    })?)
                };
                tokens.push((line, token));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = at;
                let mut end = at;
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push((line, Token::Ident(text[start..end].to_owned())));
            }
            other => {
                return Err(CoreError::ConfigSyntax(format!(
                    "line {line}: unexpected character '{other}'"
                )));
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    at: usize,
}

impl Parser {
    fn error(&self, msg: &str) -> CoreError {
        match self.tokens.get(self.at) {
            Some((line, token)) => {
                CoreError::ConfigSyntax(format!("line {line}: {msg}, found {token}"))
            }
            None => CoreError::ConfigSyntax(format!("unexpected end of input: {msg}")),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.at).map(|(_, t)| t)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Token::Punct(c)) {
            self.at += 1;
            return true;
        }
        false
    }

    fn expect_punct(&mut self, c: char) -> CoreResult<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{c}'")))
        }
    }

    fn expect_keyword(&mut self, word: &str) -> CoreResult<()> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(word) => {
                self.at += 1;
                Ok(())
            }
            _ => Err(self.error(&format!("expected '{word}'"))),
        }
    }

    fn peek_keyword(&self, word: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(word))
    }

    fn expect_ident(&mut self) -> CoreResult<String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.at += 1;
                Ok(s)
            }
            _ => Err(self.error("expected an identifier")),
        }
    }

    fn expect_number(&mut self) -> CoreResult<u64> {
        match self.peek() {
            Some(Token::Number(n)) => {
                let n = *n;
                self.at += 1;
                Ok(n)
            }
            _ => Err(self.error("expected a number")),
        }
    }

    fn expect_port(&mut self) -> CoreResult<u16> {
        let n = self.expect_number()?;
        u16::try_from(n)
            .map_err(|_| CoreError::ConfigSyntax(format!("'{n}' is not a valid UDP port")))
    }

    fn expect_ip(&mut self) -> CoreResult<Ipv4Addr> {
        match self.peek() {
            Some(Token::Ip(ip)) => {
                let ip = *ip;
                self.at += 1;
                Ok(ip)
            }
            _ => Err(self.error("expected an IPv4 address")),
        }
    }

    fn expect_string(&mut self) -> CoreResult<String> {
        match self.peek() {
            Some(Token::Str(s)) => {
                let s = s.clone();
                self.at += 1;
                Ok(s)
            }
            _ => Err(self.error("expected a quoted string")),
        }
    }
}

/// Parses the `Component Monitor = { ScanPort = { p; p; … } }` section,
/// returning the declared scan ports.
fn parse_monitor(p: &mut Parser) -> CoreResult<Vec<u16>> {
    p.expect_punct('=')?;
    p.expect_punct('{')?;
    p.expect_keyword("ScanPort")?;
    p.expect_punct('=')?;
    p.expect_punct('{')?;
    let mut ports = Vec::new();
    while !p.eat_punct('}') {
        ports.push(p.expect_port()?);
        if !p.eat_punct(';') && !p.eat_punct(',') {
            p.expect_punct('}')?;
            break;
        }
    }
    p.expect_punct('}')?;
    p.eat_punct(';');
    Ok(ports)
}

/// Parses the `Peers = { p; p; … }` federation block: the first port is
/// this gateway's own mesh identity, the rest are the peers it gossips
/// with. A config carrying this block deploys through
/// `Indiss::deploy_mesh` (which starts the mesh plane on the shared
/// peer bus); plain `Indiss::deploy` refuses it so a declared
/// federation can never end up silently inert.
fn parse_peers(p: &mut Parser) -> CoreResult<(u16, Vec<u16>)> {
    p.expect_punct('=')?;
    p.expect_punct('{')?;
    let mut ports = Vec::new();
    while !p.eat_punct('}') {
        ports.push(p.expect_port()?);
        if !p.eat_punct(';') && !p.eat_punct(',') {
            p.expect_punct('}')?;
            break;
        }
    }
    p.eat_punct(';');
    let mut ports = ports.into_iter();
    let own = ports.next().ok_or_else(|| {
        CoreError::ConfigSyntax(
            "a Peers block needs at least this gateway's own peer port".to_owned(),
        )
    })?;
    Ok((own, ports.collect()))
}

/// Parses the `Trace = { Enabled = 1; Capacity = 4096; StatsPort = 9900 }`
/// observability block. Every key is optional: `Enabled` (0/1) turns
/// span recording on, `Capacity` sizes each per-lane span ring, and
/// `StatsPort` serves the plaintext stats endpoint (0 = ephemeral).
fn parse_trace(p: &mut Parser, config: &mut IndissConfig) -> CoreResult<()> {
    p.expect_punct('=')?;
    p.expect_punct('{')?;
    while !p.eat_punct('}') {
        let key = p.expect_ident()?;
        p.expect_punct('=')?;
        match key.to_ascii_lowercase().as_str() {
            "enabled" => {
                let v = p.expect_number()?;
                if v > 1 {
                    return Err(CoreError::ConfigSyntax(format!(
                        "Trace Enabled must be 0 or 1, not {v}"
                    )));
                }
                config.trace = v == 1;
            }
            "capacity" => {
                let v = p.expect_number()?;
                let v = usize::try_from(v).ok().filter(|v| (1..=1 << 24).contains(v));
                config.trace_capacity = v.ok_or_else(|| {
                    CoreError::ConfigSyntax(
                        "Trace Capacity must be between 1 and 16777216 spans".to_owned(),
                    )
                })?;
            }
            "statsport" => config.stats_port = Some(p.expect_port()?),
            other => {
                return Err(CoreError::ConfigSyntax(format!(
                    "unknown Trace key '{other}' (Enabled, Capacity, StatsPort)"
                )));
            }
        }
        if !p.eat_punct(';') && !p.eat_punct(',') {
            p.expect_punct('}')?;
            break;
        }
    }
    p.eat_punct(';');
    Ok(())
}

/// Parses the `{ Key = value; … }` body of a descriptor unit.
fn parse_descriptor_block(p: &mut Parser, name: &str, port: u16) -> CoreResult<SdpDescriptor> {
    p.expect_punct('{')?;
    let mut group: Option<Ipv4Addr> = None;
    let mut builder_fields: Vec<(String, String)> = Vec::new();
    let mut ttl: Option<u64> = None;
    while !p.eat_punct('}') {
        let key = p.expect_ident()?;
        p.expect_punct('=')?;
        match key.to_ascii_lowercase().as_str() {
            "group" => group = Some(p.expect_ip()?),
            "ttl" => ttl = Some(p.expect_number()?),
            "query" | "answer" | "alive" | "byebye" => {
                builder_fields.push((key.to_ascii_lowercase(), p.expect_string()?));
            }
            other => {
                return Err(CoreError::ConfigSyntax(format!(
                    "unknown descriptor key '{other}' (Group, Ttl, Query, Answer, Alive, ByeBye)"
                )));
            }
        }
        if !p.eat_punct(';') {
            p.expect_punct('}')?;
            break;
        }
    }
    p.eat_punct(';');
    let group = group.ok_or_else(|| {
        CoreError::ConfigSyntax(format!("unit '{name}' needs a 'Group = <ip>' entry"))
    })?;
    let mut builder = SdpDescriptor::define(name, port, group);
    for (key, value) in &builder_fields {
        builder = match key.as_str() {
            "query" => builder.query(value),
            "answer" => builder.answer(value),
            "alive" => builder.alive(value),
            _ => builder.byebye(value),
        };
    }
    if let Some(ttl) = ttl {
        let ttl = u32::try_from(ttl)
            .map_err(|_| CoreError::ConfigSyntax(format!("Ttl {ttl} out of range")))?;
        builder = builder.ttl(ttl);
    }
    builder.build()
}

/// Parses one `Component Unit NAME(port=N)…` declaration into the config.
fn parse_unit(p: &mut Parser, config: IndissConfig) -> CoreResult<IndissConfig> {
    let name = p.expect_ident()?;
    p.expect_punct('(')?;
    p.expect_keyword("port")?;
    p.expect_punct('=')?;
    let port = p.expect_port()?;
    p.expect_punct(')')?;
    let builtin = match name.to_ascii_uppercase().as_str() {
        "SLP" => Some(SdpProtocol::Slp),
        "UPNP" => Some(SdpProtocol::Upnp),
        "JINI" => Some(SdpProtocol::Jini),
        _ => None,
    };
    if let Some(protocol) = builtin {
        if protocol.port() != port {
            return Err(CoreError::ConfigSyntax(format!(
                "unit '{name}' is the built-in {protocol} SDP, whose port is {}, not {port}",
                protocol.port()
            )));
        }
        p.expect_punct(';')?;
        return Ok(match protocol {
            SdpProtocol::Upnp => config.upnp(),
            SdpProtocol::Jini => config.jini(),
            _ => config.slp(),
        });
    }
    // Not a built-in: the unit must be described.
    if !p.eat_punct('=') {
        return Err(CoreError::ConfigSyntax(format!(
            "unit '{name}' is not a built-in SDP; it needs a '= {{ … }}' descriptor block"
        )));
    }
    let descriptor = parse_descriptor_block(p, &name, port)?;
    Ok(config.descriptor(descriptor))
}

/// Parses the paper's `System SDP = { … }` language into an
/// [`IndissConfig`]. See the module docs for the grammar.
///
/// # Errors
///
/// [`CoreError::ConfigSyntax`] for malformed input;
/// [`CoreError::BadConfig`] for valid syntax describing an impossible
/// system (descriptor template rules, protocol-registration conflicts).
pub(crate) fn parse_system_sdp(text: &str) -> CoreResult<IndissConfig> {
    let mut p = Parser { tokens: lex(text)?, at: 0 };
    p.expect_keyword("System")?;
    p.expect_keyword("SDP")?;
    p.expect_punct('=')?;
    p.expect_punct('{')?;
    let mut config = IndissConfig::new();
    let mut scan_ports: Vec<u16> = Vec::new();
    while !p.eat_punct('}') {
        if p.peek_keyword("Peers") {
            p.at += 1;
            let (own, peers) = parse_peers(&mut p)?;
            config = config.mesh(own, peers);
            continue;
        }
        if p.peek_keyword("Trace") {
            p.at += 1;
            parse_trace(&mut p, &mut config)?;
            continue;
        }
        p.expect_keyword("Component")?;
        if p.peek_keyword("Monitor") {
            p.at += 1;
            scan_ports.extend(parse_monitor(&mut p)?);
        } else {
            p.expect_keyword("Unit")?;
            config = parse_unit(&mut p, config)?;
        }
    }
    p.eat_punct(';');
    if let Some(token) = p.peek() {
        return Err(p.error(&format!("trailing input after the system block: {token}")));
    }
    // Cross-check: every declared scan port must belong to a unit
    // (declaring a unit implies monitoring, so extra ports are dangling).
    for port in scan_ports {
        if !config.units.iter().any(|u| u.protocol().port() == port) {
            return Err(CoreError::ConfigSyntax(format!(
                "ScanPort {port} does not belong to any declared unit"
            )));
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §3 example, byte for byte as the paper prints it.
    const PAPER_EXAMPLE: &str = "System SDP = {\n\
         Component Monitor = { ScanPort = { 1900; 4160; 427 } }\n\
         Component Unit SLP(port=427);\n\
         Component Unit UPnP(port=1900);\n\
         Component Unit JINI(port=4160); }";

    #[test]
    fn paper_example_parses_to_slp_upnp_jini() {
        let config = parse_system_sdp(PAPER_EXAMPLE).expect("the paper's own example parses");
        let reference = IndissConfig::slp_upnp_jini();
        assert_eq!(config.protocols(), reference.protocols());
        // Everything else — unit configs, cache knobs, TTLs — must be the
        // library defaults, i.e. the config is *equivalent*, not merely
        // protocol-compatible.
        assert_eq!(format!("{config:?}"), format!("{reference:?}"));
    }

    #[test]
    fn descriptor_units_parse_from_text() {
        let text = r#"
            System SDP = {
              Component Monitor = { ScanPort = { 427; 6400 } }
              Component Unit SLP(port=427);
              Component Unit LANG-PROTO(port=6400) = {
                Group  = 239.6.4.0;
                Ttl    = 45;
                Query  = "LP? {type}";
                Answer = "LP! {type} {url} {ttl}";
                Alive  = "LP+ {type} {url} {ttl}";
                ByeBye = "LP- {type} {url}";
              };
            }
        "#;
        let config = parse_system_sdp(text).expect("descriptor block parses");
        assert_eq!(config.units.len(), 2);
        let protocols = config.protocols();
        assert_eq!(protocols[0], SdpProtocol::Slp);
        let SdpProtocol::Dynamic(id) = protocols[1] else {
            panic!("second unit is dynamic, got {protocols:?}");
        };
        assert_eq!(id.name(), "LANG-PROTO");
        assert_eq!(id.port(), 6400);
        assert_eq!(id.multicast_groups(), &[Ipv4Addr::new(239, 6, 4, 0)]);
    }

    #[test]
    fn builtin_on_wrong_port_is_rejected() {
        let text = "System SDP = { Component Unit SLP(port=1900); }";
        let err = parse_system_sdp(text).unwrap_err();
        assert!(matches!(err, CoreError::ConfigSyntax(_)), "{err}");
        assert!(err.to_string().contains("427"), "{err}");
    }

    #[test]
    fn unknown_unit_without_descriptor_is_rejected() {
        let text = "System SDP = { Component Unit MYSTERY(port=6401); }";
        let err = parse_system_sdp(text).unwrap_err();
        assert!(err.to_string().contains("descriptor block"), "{err}");
    }

    #[test]
    fn dangling_scan_port_is_rejected() {
        let text = "System SDP = {\n\
             Component Monitor = { ScanPort = { 427; 9999 } }\n\
             Component Unit SLP(port=427); }";
        let err = parse_system_sdp(text).unwrap_err();
        assert!(err.to_string().contains("9999"), "{err}");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let text = "System SDP = {\nComponent Unit SLP port=427); }";
        let err = parse_system_sdp(text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(parse_system_sdp("").is_err());
        assert!(parse_system_sdp("System SDP = {").is_err(), "unclosed block");
        assert!(parse_system_sdp("System SDP = { } trailing").is_err(), "trailing input rejected");
        // Worlds are declared as `WorldSpec` values, not config text.
        let err = parse_system_sdp("System SDP = { World = { Seed = 1 }; }").unwrap_err();
        assert!(matches!(err, CoreError::ConfigSyntax(_)), "{err}");
        assert!(
            parse_system_sdp("System SDP = { Component Unit X(port=6402) = { Group = 1.2.3 } }")
                .is_err(),
            "bad IPv4"
        );
    }

    #[test]
    fn peers_block_joins_the_mesh() {
        let text = "System SDP = {\n\
             Peers = { 7100; 7101; 7102 }\n\
             Component Unit SLP(port=427); }";
        let config = parse_system_sdp(text).expect("peers block parses");
        let mesh = config.mesh_config().expect("mesh on");
        assert_eq!(mesh.port, 7100, "first port is this gateway's own identity");
        assert_eq!(mesh.peers, vec![7101, 7102]);
        // Without a Peers block the mesh plane stays off.
        let solo = parse_system_sdp("System SDP = { Component Unit SLP(port=427); }").unwrap();
        assert!(solo.mesh_config().is_none());
        // An empty block names no identity.
        let err = parse_system_sdp("System SDP = { Peers = { } Component Unit SLP(port=427); }")
            .unwrap_err();
        assert!(err.to_string().contains("own peer port"), "{err}");
    }

    #[test]
    fn trace_block_wires_the_observability_knobs() {
        let text = "System SDP = {\n\
             Trace = { Enabled = 1; Capacity = 512; StatsPort = 9900 }\n\
             Component Unit SLP(port=427); }";
        let config = parse_system_sdp(text).expect("trace block parses");
        assert!(config.trace);
        assert_eq!(config.trace_capacity, 512);
        assert_eq!(config.stats_port, Some(9900));
        // Defaults: no block leaves everything off.
        let solo = parse_system_sdp("System SDP = { Component Unit SLP(port=427); }").unwrap();
        assert!(!solo.trace);
        assert!(solo.stats_port.is_none());
        // Abuse is syntax, not silent clamping.
        for bad in [
            "System SDP = { Trace = { Enabled = 2 } Component Unit SLP(port=427); }",
            "System SDP = { Trace = { Capacity = 0 } Component Unit SLP(port=427); }",
            "System SDP = { Trace = { Capacity = 99999999999 } Component Unit SLP(port=427); }",
            "System SDP = { Trace = { StatsPort = 99999 } Component Unit SLP(port=427); }",
            "System SDP = { Trace = { Blorp = 1 } Component Unit SLP(port=427); }",
        ] {
            let err = parse_system_sdp(bad).unwrap_err();
            assert!(matches!(err, CoreError::ConfigSyntax(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn descriptor_template_errors_surface_from_text() {
        // A descriptor block whose Answer template misses {url} violates
        // the descriptor rules, not the grammar.
        let text = r#"System SDP = {
            Component Unit BAD-TPL(port=6403) = {
              Group = 239.6.4.3;
              Query = "B? {type}";
              Answer = "B! {type}";
            }
        }"#;
        let err = parse_system_sdp(text).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(_)), "{err}");
    }
}
