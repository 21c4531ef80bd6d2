//! Integration tests for §4.2 / Fig. 6: the passive/passive deadlock and
//! its traffic-threshold resolution.

use indiss::core::{AdaptationPolicy, DiscoveryMode, Indiss, IndissConfig};
use indiss::net::{Completion, SimTime, World};
use indiss::slp::{Body, Message, SLP_MULTICAST_GROUP, SLP_PORT};
use indiss::upnp::{ClockDevice, UpnpConfig};
use std::net::SocketAddrV4;
use std::time::Duration;

fn policy() -> AdaptationPolicy {
    AdaptationPolicy {
        threshold_bytes_per_sec: 400.0,
        window: Duration::from_secs(2),
        check_interval: Duration::from_secs(2),
    }
}

/// A passive SLP listener and a passive (announce-only) UPnP service:
/// without adaptation the listener hears nothing, ever.
#[test]
fn passive_passive_is_deadlocked_without_adaptation() {
    let world = World::new(31);
    let service_host = world.add_node("upnp-device");
    let client_host = world.add_node("listener");
    let _clock = ClockDevice::start(&service_host, UpnpConfig::default()).unwrap();
    let _indiss = Indiss::deploy(&service_host, IndissConfig::slp_upnp()).unwrap();

    let listener = client_host.udp_bind(SLP_PORT).unwrap();
    listener.join_multicast(SLP_MULTICAST_GROUP).unwrap();
    let heard: Completion<()> = Completion::new();
    let heard2 = heard.clone();
    listener.on_receive(move |_, _| heard2.complete(()));
    world.run_for(Duration::from_secs(30));
    assert!(!heard.is_complete(), "no adaptation → the Fig. 6 blocked situation");
}

/// With the traffic threshold, INDISS on a quiet network becomes active
/// and the listener hears a translated SAAdvert carrying the clock.
#[test]
fn quiet_network_unblocks_via_active_mode() {
    let world = World::new(31);
    let service_host = world.add_node("upnp-device");
    let client_host = world.add_node("listener");
    let _clock = ClockDevice::start(&service_host, UpnpConfig::default()).unwrap();
    let indiss =
        Indiss::deploy(&service_host, IndissConfig::slp_upnp().adaptation(policy())).unwrap();

    let listener = client_host.udp_bind(SLP_PORT).unwrap();
    listener.join_multicast(SLP_MULTICAST_GROUP).unwrap();
    let heard = indiss::net::Collector::new();
    let heard2 = heard.clone();
    listener.on_receive(move |w, d| {
        if let Ok(msg) = Message::decode(&d.payload) {
            if let Body::SaAdvert(sa) = msg.body {
                heard2.push((w.now(), sa.attrs));
            }
        }
    });
    world.run_for(Duration::from_secs(30));
    let adverts = heard.snapshot();
    assert!(!adverts.is_empty(), "translated adverts heard");
    // The device advertises its device type (clock) and its service type
    // (timer); both are translated. The clock one must be among them.
    let (at, attrs) = adverts
        .iter()
        .find(|(_, a)| a.contains("service:clock:soap://"))
        .expect("clock advert among the sweeps");
    assert!(*at >= SimTime::from_secs(2), "after the first adaptation tick");
    assert!(attrs.contains("CyberGarage Clock Device"), "{attrs}");
    assert!(indiss.stats().adverts_translated >= 1);
}

/// On a busy network INDISS must stay passive (bandwidth preservation —
/// the paper's "interoperability degradation may occur").
#[test]
fn busy_network_stays_passive() {
    let world = World::new(31);
    let service_host = world.add_node("upnp-device");
    let _clock = ClockDevice::start(&service_host, UpnpConfig::default()).unwrap();
    let indiss =
        Indiss::deploy(&service_host, IndissConfig::slp_upnp().adaptation(policy())).unwrap();

    // Background chatter well above 400 B/s.
    let a = world.add_node("chatter-a");
    let b = world.add_node("chatter-b");
    let tx = a.udp_bind_ephemeral().unwrap();
    let _rx = b.udp_bind(9000).unwrap();
    let dst = SocketAddrV4::new(b.addr(), 9000);
    fn chatter(world: &World, tx: indiss::net::UdpSocket, dst: SocketAddrV4) {
        let _ = tx.send_to(&[0u8; 300], dst);
        world.schedule_in(Duration::from_millis(100), move |w| chatter(w, tx, dst));
    }
    chatter(&world, tx, dst);

    world.run_for(Duration::from_secs(20));
    assert_eq!(indiss.mode(), DiscoveryMode::Passive);
    assert_eq!(indiss.stats().adverts_translated, 0);
    indiss.with_mode_log(|log| {
        assert!(log.iter().all(|(_, m)| *m == DiscoveryMode::Passive), "never flapped: {log:?}");
    });
}

/// The active sweep repeats while the network stays quiet, and byebye
/// retractions propagate: a departed device stops being advertised.
#[test]
fn byebye_removes_service_from_active_sweeps() {
    let world = World::new(33);
    let service_host = world.add_node("upnp-device");
    let client_host = world.add_node("listener");
    let clock = ClockDevice::start(&service_host, UpnpConfig::default()).unwrap();
    let indiss =
        Indiss::deploy(&service_host, IndissConfig::slp_upnp().adaptation(policy())).unwrap();

    let listener = client_host.udp_bind(SLP_PORT).unwrap();
    listener.join_multicast(SLP_MULTICAST_GROUP).unwrap();
    let count = indiss::net::Collector::new();
    let count2 = count.clone();
    listener.on_receive(move |w, d| {
        if let Ok(msg) = Message::decode(&d.payload) {
            if matches!(msg.body, Body::SaAdvert(_)) {
                count2.push(w.now());
            }
        }
    });

    world.run_for(Duration::from_secs(10));
    let before_shutdown = count.len();
    assert!(before_shutdown >= 1, "sweeps happened while quiet");

    clock.shutdown();
    world.run_for(Duration::from_millis(100));
    let at_shutdown = count.len();
    world.run_for(Duration::from_secs(12));
    let after = count.len();
    assert_eq!(
        after,
        at_shutdown,
        "no further SAAdverts after byebye (stats: {:?})",
        indiss.stats()
    );
}
