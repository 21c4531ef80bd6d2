//! Directory Agent: the optional SLP repository.
//!
//! The paper's §2 taxonomy distinguishes repository-based from
//! repository-less discovery; the DA is SLP's repository. It multicasts
//! unsolicited `DAAdvert`s (passive DA discovery), accepts unicast
//! registrations, and answers unicast requests from its store.

use std::cell::RefCell;
use std::net::SocketAddrV4;
use std::rc::Rc;
use std::time::Duration;

use indiss_net::{Datagram, NetResult, Node, UdpSocket, World};

use crate::agent::{scopes_intersect, SlpConfig};
use crate::attrs::AttributeList;
use crate::consts::{ErrorCode, FunctionId, DEFAULT_LANG, SLP_MULTICAST_GROUP, SLP_PORT};
use crate::filter::Filter;
use crate::messages::{AttrRply, Body, DaAdvert, Message, SrvAck, SrvRply, SrvRqst, SrvTypeRply};
use crate::url::{ServiceType, UrlEntry};
use crate::wire::Header;

/// A stored registration with its absolute expiry.
#[derive(Debug, Clone)]
struct StoredReg {
    url: String,
    service_type: ServiceType,
    scopes: String,
    attrs: AttributeList,
    lifetime: u16,
    expires_at: indiss_net::SimTime,
}

struct DaInner {
    node: Node,
    socket: UdpSocket,
    config: SlpConfig,
    store: Vec<StoredReg>,
    boot_timestamp: u32,
    next_xid: u16,
    advert_interval: Duration,
    running: bool,
}

/// A Directory Agent.
#[derive(Clone)]
pub struct DirectoryAgent {
    inner: Rc<RefCell<DaInner>>,
}

impl DirectoryAgent {
    /// Starts a DA on `node`, advertising every `advert_interval`.
    ///
    /// # Errors
    ///
    /// Network errors if UDP 427 is exclusively taken on this node.
    pub fn start(
        node: &Node,
        config: SlpConfig,
        advert_interval: Duration,
    ) -> NetResult<DirectoryAgent> {
        let socket = node.udp_bind_shared(SLP_PORT)?;
        socket.join_multicast(SLP_MULTICAST_GROUP)?;
        let da = DirectoryAgent {
            inner: Rc::new(RefCell::new(DaInner {
                node: node.clone(),
                socket: socket.clone(),
                config,
                store: Vec::new(),
                boot_timestamp: 1,
                next_xid: 1,
                advert_interval,
                running: true,
            })),
        };
        let handler = da.clone();
        socket.on_receive(move |world, dgram| handler.handle_datagram(world, dgram));
        // First unsolicited advert goes out immediately; then periodically.
        let this = da.clone();
        node.world().schedule_in(Duration::ZERO, move |w| this.advertise_and_reschedule(w));
        Ok(da)
    }

    /// Stops periodic advertising (the store stays queryable).
    pub fn stop_advertising(&self) {
        self.inner.borrow_mut().running = false;
    }

    /// Number of live registrations.
    pub fn registration_count(&self) -> usize {
        self.inner.borrow().store.len()
    }

    /// The DA's own service URL.
    pub fn url(&self) -> String {
        format!("service:directory-agent://{}", self.inner.borrow().node.addr())
    }

    fn advertise_and_reschedule(&self, world: &World) {
        let (running, interval) = {
            let inner = self.inner.borrow();
            (inner.running, inner.advert_interval)
        };
        if !running {
            return;
        }
        self.multicast_advert(0);
        let this = self.clone();
        world.schedule_in(interval, move |w| this.advertise_and_reschedule(w));
    }

    fn multicast_advert(&self, reply_xid: u16) {
        let msg = {
            let mut inner = self.inner.borrow_mut();
            let xid = if reply_xid != 0 { reply_xid } else { inner.bump_xid() };
            Message::new(
                Header::new(FunctionId::DaAdvert, xid, DEFAULT_LANG),
                Body::DaAdvert(DaAdvert {
                    error: 0,
                    boot_timestamp: inner.boot_timestamp,
                    url: format!("service:directory-agent://{}", inner.node.addr()),
                    scopes: inner.config.scopes.clone(),
                    attrs: String::new(),
                    spi: String::new(),
                }),
            )
        };
        self.send(&msg, SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT));
    }

    fn send(&self, msg: &Message, to: SocketAddrV4) {
        if let Ok(bytes) = msg.encode() {
            let socket = self.inner.borrow().socket.clone();
            let _ = socket.send_to(&bytes, to);
        }
    }

    fn handle_datagram(&self, world: &World, dgram: Datagram) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return;
        };
        self.purge_expired(world);
        match &msg.body {
            Body::SrvReg(reg) => {
                let error = {
                    let mut inner = self.inner.borrow_mut();
                    match (
                        ServiceType::parse(
                            reg.service_type.strip_prefix("service:").unwrap_or(&reg.service_type),
                        ),
                        AttributeList::parse(&reg.attrs),
                    ) {
                        (Ok(service_type), Ok(attrs)) => {
                            let expires_at =
                                world.now() + Duration::from_secs(u64::from(reg.entry.lifetime));
                            inner.store.retain(|s| s.url != reg.entry.url);
                            inner.store.push(StoredReg {
                                url: reg.entry.url.clone(),
                                service_type,
                                scopes: reg.scopes.clone(),
                                attrs,
                                lifetime: reg.entry.lifetime,
                                expires_at,
                            });
                            ErrorCode::Ok
                        }
                        _ => ErrorCode::InvalidRegistration,
                    }
                };
                let ack = Message::new(
                    Header::new(FunctionId::SrvAck, msg.header.xid, &msg.header.lang),
                    Body::SrvAck(SrvAck { error: error as u16 }),
                );
                self.reply_after_delay(world, ack, dgram.src);
            }
            Body::SrvDeReg(dereg) => {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.store.retain(|s| s.url != dereg.entry.url);
                }
                let ack = Message::new(
                    Header::new(FunctionId::SrvAck, msg.header.xid, &msg.header.lang),
                    Body::SrvAck(SrvAck { error: 0 }),
                );
                self.reply_after_delay(world, ack, dgram.src);
            }
            Body::SrvRqst(req) => {
                // Active DA discovery: answer directory-agent requests with
                // a DAAdvert (RFC 2608 §8.5).
                if req.service_type.contains("directory-agent") {
                    let advert = self.build_advert_reply(msg.header.xid);
                    self.reply_after_delay(world, advert, dgram.src);
                    return;
                }
                if let Some(reply) = self.build_srv_reply(&msg.header, req) {
                    self.reply_after_delay(world, reply, dgram.src);
                } else if !dgram.is_multicast() {
                    // Unicast requests always get an answer, even if empty.
                    let empty = Message::new(
                        Header::new(FunctionId::SrvRply, msg.header.xid, &msg.header.lang),
                        Body::SrvRply(SrvRply { error: 0, urls: Vec::new() }),
                    );
                    self.reply_after_delay(world, empty, dgram.src);
                }
            }
            Body::AttrRqst(req) => {
                let inner = self.inner.borrow();
                let attrs = inner
                    .store
                    .iter()
                    .find(|s| s.url == req.url && scopes_intersect(&req.scopes, &s.scopes))
                    .map(|s| s.attrs.to_string())
                    .unwrap_or_default();
                drop(inner);
                let reply = Message::new(
                    Header::new(FunctionId::AttrRply, msg.header.xid, &msg.header.lang),
                    Body::AttrRply(AttrRply { error: 0, attrs }),
                );
                self.reply_after_delay(world, reply, dgram.src);
            }
            Body::SrvTypeRqst(req) => {
                let inner = self.inner.borrow();
                let mut types: Vec<String> = inner
                    .store
                    .iter()
                    .filter(|s| scopes_intersect(&req.scopes, &s.scopes))
                    .map(|s| s.service_type.to_string())
                    .collect();
                drop(inner);
                types.sort();
                types.dedup();
                let reply = Message::new(
                    Header::new(FunctionId::SrvTypeRply, msg.header.xid, &msg.header.lang),
                    Body::SrvTypeRply(SrvTypeRply { error: 0, types: types.join(",") }),
                );
                self.reply_after_delay(world, reply, dgram.src);
            }
            _ => {}
        }
    }

    fn build_advert_reply(&self, xid: u16) -> Message {
        let inner = self.inner.borrow();
        Message::new(
            Header::new(FunctionId::DaAdvert, xid, DEFAULT_LANG),
            Body::DaAdvert(DaAdvert {
                error: 0,
                boot_timestamp: inner.boot_timestamp,
                url: format!("service:directory-agent://{}", inner.node.addr()),
                scopes: inner.config.scopes.clone(),
                attrs: String::new(),
                spi: String::new(),
            }),
        )
    }

    fn build_srv_reply(&self, header: &Header, req: &SrvRqst) -> Option<Message> {
        let inner = self.inner.borrow();
        let stripped = req.service_type.strip_prefix("service:").unwrap_or(&req.service_type);
        let wanted = ServiceType::parse(stripped).ok()?;
        let predicate = Filter::parse(&req.predicate).ok()?;
        let urls: Vec<UrlEntry> = inner
            .store
            .iter()
            .filter(|s| wanted.matches(&s.service_type))
            .filter(|s| scopes_intersect(&req.scopes, &s.scopes))
            .filter(|s| predicate.matches(&s.attrs))
            .map(|s| UrlEntry::new(s.url.clone(), s.lifetime))
            .collect();
        if urls.is_empty() {
            return None;
        }
        Some(Message::new(
            Header::new(FunctionId::SrvRply, header.xid, &header.lang),
            Body::SrvRply(SrvRply { error: 0, urls }),
        ))
    }

    fn reply_after_delay(&self, world: &World, reply: Message, to: SocketAddrV4) {
        let delay = self.inner.borrow().config.processing_delay;
        let this = self.clone();
        world.schedule_in(delay, move |_| this.send(&reply, to));
    }

    fn purge_expired(&self, world: &World) {
        let now = world.now();
        self.inner.borrow_mut().store.retain(|s| s.expires_at > now);
    }
}

impl DaInner {
    fn bump_xid(&mut self) -> u16 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Registration, ServiceAgent, UserAgent};

    fn world_with_da() -> (World, DirectoryAgent) {
        let world = World::new(7);
        let da_node = world.add_node("da");
        let da =
            DirectoryAgent::start(&da_node, SlpConfig::default(), Duration::from_secs(60)).unwrap();
        (world, da)
    }

    #[test]
    fn sa_registers_with_discovered_da() {
        let (world, da) = world_with_da();
        let sa_node = world.node(indiss_net::NodeId::new(0)).unwrap().world().add_node("sa");
        let sa = ServiceAgent::start(&sa_node, SlpConfig::default()).unwrap();
        sa.register(Registration::new("service:printer://10.0.0.9", AttributeList::new()).unwrap());
        // DA advert goes out at t=0; the SA hears it and forwards SrvReg.
        world.run_for(Duration::from_secs(1));
        assert!(sa.known_da().is_some());
        assert_eq!(da.registration_count(), 1);
    }

    #[test]
    fn ua_queries_da_unicast() {
        let (world, da) = world_with_da();
        let world2 = world.clone();
        let sa_node = world2.add_node("sa");
        let client_node = world2.add_node("client");
        let sa = ServiceAgent::start(&sa_node, SlpConfig::default()).unwrap();
        sa.register(Registration::new("service:clock://10.0.0.9", AttributeList::new()).unwrap());
        world.run_for(Duration::from_secs(1));
        assert_eq!(da.registration_count(), 1);

        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();
        let da_addr =
            SocketAddrV4::new(world.node(indiss_net::NodeId::new(0)).unwrap().addr(), SLP_PORT);
        ua.set_da(Some(da_addr));
        let (_, done) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(1));
        assert_eq!(done.take().unwrap().urls.len(), 1);
    }

    #[test]
    fn unicast_miss_still_gets_empty_reply() {
        let (world, _da) = world_with_da();
        let client_node = world.add_node("client");
        let ua = UserAgent::start(&client_node, SlpConfig::default()).unwrap();
        let da_addr =
            SocketAddrV4::new(world.node(indiss_net::NodeId::new(0)).unwrap().addr(), SLP_PORT);
        ua.set_da(Some(da_addr));
        let (first, done) = ua.find_services(&world, "service:nothing", "");
        world.run_for(Duration::from_secs(1));
        // An empty SrvRply is not a "first answer" for response-time
        // purposes, but the round still completes.
        assert!(done.take().unwrap().urls.is_empty());
        let _ = first;
    }

    #[test]
    fn registrations_expire() {
        let (world, da) = world_with_da();
        let sa_node = world.add_node("sa");
        let sa = ServiceAgent::start(&sa_node, SlpConfig::default()).unwrap();
        let mut reg = Registration::new("service:clock://10.0.0.9", AttributeList::new()).unwrap();
        reg.lifetime = 1; // one second
        sa.register(reg);
        world.run_for(Duration::from_millis(100));
        assert_eq!(da.registration_count(), 1);
        // Remove the SA's own copy so only the DA could answer, then let
        // the DA-side lifetime lapse; the next message triggers a purge.
        sa.deregister("service:clock://10.0.0.9");
        world.run_for(Duration::from_secs(2));
        let client = world.add_node("client");
        let ua = UserAgent::start(&client, SlpConfig::default()).unwrap();
        let (_, done) = ua.find_services(&world, "service:clock", "");
        world.run_for(Duration::from_secs(1));
        assert!(done.take().unwrap().urls.is_empty(), "expired registration not returned");
    }

    #[test]
    fn active_da_discovery() {
        // A client finds the DA by multicasting a directory-agent
        // request; the DA answers it unicast with a DAAdvert.
        let (world, _da) = world_with_da();
        let client = world.add_node("client");
        let socket = client.udp_bind_ephemeral().unwrap();
        let replies: indiss_net::Collector<Message> = indiss_net::Collector::new();
        let sink = replies.clone();
        socket.on_receive(move |_, dgram| {
            if let Ok(msg) = Message::decode(&dgram.payload) {
                sink.push(msg);
            }
        });
        let probe = Message::new(
            Header::new(FunctionId::SrvRqst, 9, DEFAULT_LANG),
            Body::SrvRqst(SrvRqst {
                prlist: String::new(),
                service_type: "service:directory-agent".into(),
                scopes: "DEFAULT".into(),
                predicate: String::new(),
                spi: String::new(),
            }),
        );
        let group = SocketAddrV4::new(SLP_MULTICAST_GROUP, SLP_PORT);
        socket.send_to(&probe.encode().unwrap(), group).unwrap();
        world.run_for(Duration::from_secs(1));
        let replies = replies.drain();
        assert!(
            replies.iter().any(|m| matches!(m.body, Body::DaAdvert(_))),
            "DA answered the active discovery probe: {replies:?}"
        );
    }
}
