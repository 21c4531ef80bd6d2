//! Gateway-to-gateway peer channels through the transport seam.
//!
//! The federated mesh (see `indiss-core`'s `mesh` module) exchanges
//! unicast frames between gateways. A [`PeerChannel`] is the thin
//! adapter it rides on: one bound channel per gateway, plus a send path
//! that resolves a peer's well-known port through
//! [`Transport::map_port`] so the same mesh code runs unchanged on the
//! deterministic [`SimTransport`](crate::transport::SimTransport) bus
//! and the loopback-confined [`BatchedTransport`](crate::BatchedTransport)
//! (where each gateway binds at a different port offset) — and composes
//! with [`FaultTransport`](crate::FaultTransport) for partition
//! injection.
//!
//! Peer channels are unicast-only: no multicast groups are joined, so
//! binding never degrades and mesh traffic stays invisible to the SDP
//! front-ends sharing the transport.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;

use crate::error::NetResult;
use crate::transport::{BindSpec, Transport, TransportSink, TransportSocket};

/// One gateway's bound mesh endpoint: receives peer frames on its own
/// well-known port and sends to peers by *their* well-known port.
pub struct PeerChannel {
    transport: Arc<dyn Transport>,
    socket: Arc<dyn TransportSocket>,
}

impl PeerChannel {
    /// Binds the gateway's peer endpoint on `port` (pre-offset; the
    /// transport maps it), delivering every received frame to `sink`.
    ///
    /// # Errors
    ///
    /// Bind failures from the underlying transport (port already bound,
    /// OS errors on real sockets).
    pub fn bind(
        transport: Arc<dyn Transport>,
        port: u16,
        sink: TransportSink,
    ) -> NetResult<PeerChannel> {
        let spec = BindSpec { port, groups: Vec::new() };
        let socket = transport.bind(&spec, sink)?;
        Ok(PeerChannel { transport, socket })
    }

    /// Sends `payload` to the peer bound at well-known `peer_port`,
    /// mapping the port through the transport's offset first.
    ///
    /// # Errors
    ///
    /// Transport-level send failures, as for
    /// [`TransportSocket::send_to`].
    pub fn send(&self, payload: &[u8], peer_port: u16) -> NetResult<usize> {
        let dst = SocketAddrV4::new(Ipv4Addr::LOCALHOST, self.transport.map_port(peer_port));
        self.socket.send_to(payload, dst)
    }

    /// The local address frames sent from this channel carry.
    pub fn local_addr(&self) -> SocketAddrV4 {
        self.socket.local_addr()
    }
}

impl std::fmt::Debug for PeerChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerChannel").field("local_addr", &self.local_addr()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;
    use std::sync::Mutex;

    #[test]
    fn peers_exchange_unicast_frames_on_the_sim_bus() {
        let transport: Arc<dyn Transport> = Arc::new(SimTransport::new());
        let heard_a: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let heard_b: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_a = {
            let heard = Arc::clone(&heard_a);
            Arc::new(move |d: crate::Datagram| heard.lock().unwrap().push(d.payload))
        };
        let sink_b = {
            let heard = Arc::clone(&heard_b);
            Arc::new(move |d: crate::Datagram| heard.lock().unwrap().push(d.payload))
        };
        let a = PeerChannel::bind(Arc::clone(&transport), 7100, sink_a).expect("bind a");
        let b = PeerChannel::bind(Arc::clone(&transport), 7101, sink_b).expect("bind b");
        assert_eq!(a.local_addr().port(), 7100);
        a.send(b"ping", 7101).expect("send");
        b.send(b"pong", 7100).expect("send");
        assert_eq!(heard_b.lock().unwrap().as_slice(), &[b"ping".to_vec()]);
        assert_eq!(heard_a.lock().unwrap().as_slice(), &[b"pong".to_vec()]);
    }

    #[test]
    fn send_maps_the_peer_port_through_the_transport_offset() {
        let transport: Arc<dyn Transport> = Arc::new(crate::BatchedTransport::with_offset(31_000));
        let heard: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let heard = Arc::clone(&heard);
            Arc::new(move |d: crate::Datagram| heard.lock().unwrap().push(d.payload))
        };
        let a = PeerChannel::bind(Arc::clone(&transport), 711, sink).expect("bind");
        assert_eq!(a.local_addr().port(), 31_711, "bound at the mapped port");
        // Self-send through the well-known (pre-offset) port round-trips.
        a.send(b"loop", 711).expect("send");
        for _ in 0..200 {
            if !heard.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        transport.shutdown();
        assert_eq!(heard.lock().unwrap().as_slice(), &[b"loop".to_vec()]);
    }
}
