//! Integration tests of SDP detection (§2.1) at the system level.

use indiss::core::{Indiss, IndissConfig, SdpProtocol};
use indiss::jini::{JiniAgent, JiniConfig, LookupService};
use indiss::net::World;
use indiss::slp::{SlpConfig, UserAgent};
use indiss::upnp::{ClockDevice, UpnpConfig};
use std::time::Duration;

/// Detection keys off the IANA identification tags, exactly the paper's
/// correspondence table.
#[test]
fn detection_uses_iana_identification_tags() {
    assert_eq!(SdpProtocol::Slp.port(), 427);
    assert_eq!(SdpProtocol::Upnp.port(), 1900);
    assert_eq!(SdpProtocol::Jini.port(), 4160);
    assert_eq!(
        SdpProtocol::Slp.multicast_groups(),
        vec!["239.255.255.253".parse::<std::net::Ipv4Addr>().unwrap()]
    );
    assert_eq!(
        SdpProtocol::Upnp.multicast_groups(),
        vec!["239.255.255.250".parse::<std::net::Ipv4Addr>().unwrap()]
    );
}

/// A gateway INDISS detects all three protocols as their traffic appears,
/// in arrival order, counting messages but never parsing for detection.
#[test]
fn gateway_detects_all_three_protocols_in_order() {
    let world = World::new(61);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::all_protocols()).unwrap();
    assert!(indiss.monitor().detected().is_empty());

    // SLP first…
    let slp_host = world.add_node("slp");
    let ua = UserAgent::start(&slp_host, SlpConfig::default()).unwrap();
    ua.find_services(&world, "service:x", "");
    world.run_for(Duration::from_millis(500));
    assert_eq!(indiss.monitor().detected(), vec![SdpProtocol::Slp]);

    // …then Jini…
    let reggie = world.add_node("reggie");
    let _ls = LookupService::start(&reggie, JiniConfig::default()).unwrap();
    world.run_for(Duration::from_millis(500));
    assert_eq!(indiss.monitor().detected(), vec![SdpProtocol::Slp, SdpProtocol::Jini]);

    // …then UPnP.
    let upnp_host = world.add_node("upnp");
    let _clock = ClockDevice::start(&upnp_host, UpnpConfig::default()).unwrap();
    world.run_for(Duration::from_millis(500));
    assert_eq!(
        indiss.monitor().detected(),
        vec![SdpProtocol::Slp, SdpProtocol::Jini, SdpProtocol::Upnp]
    );

    // Message counters advanced per protocol.
    for p in SdpProtocol::ALL {
        assert!(indiss.monitor().detection(p).unwrap().message_count >= 1, "{p}");
    }
}

/// Lazy composition (Fig. 5): units appear exactly when their protocol is
/// first heard, and only configured units ever appear.
#[test]
fn lazy_composition_tracks_detection() {
    let world = World::new(62);
    let gw = world.add_node("gateway");
    // Configure only SLP and UPnP; Jini traffic must not instantiate one.
    let indiss = Indiss::deploy(&gw, IndissConfig::slp_upnp().lazy()).unwrap();

    let reggie = world.add_node("reggie");
    let _ls = LookupService::start(&reggie, JiniConfig::default()).unwrap();
    world.run_for(Duration::from_millis(500));
    assert!(indiss.active_units().is_empty(), "jini is not configured");

    let upnp_host = world.add_node("upnp");
    let _clock = ClockDevice::start(&upnp_host, UpnpConfig::default()).unwrap();
    world.run_for(Duration::from_millis(500));
    assert_eq!(indiss.active_units(), vec![SdpProtocol::Upnp]);

    let slp_host = world.add_node("slp");
    let ua = UserAgent::start(&slp_host, SlpConfig::default()).unwrap();
    ua.find_services(&world, "service:x", "");
    world.run_for(Duration::from_millis(500));
    assert_eq!(indiss.active_units(), vec![SdpProtocol::Slp, SdpProtocol::Upnp]);
}

/// A Jini agent's multicast discovery request (a *client* probe) is
/// enough for detection — §2.1's point that either side's traffic works.
#[test]
fn client_probes_suffice_for_detection() {
    let world = World::new(63);
    let gw = world.add_node("gateway");
    let indiss = Indiss::deploy(&gw, IndissConfig::all_protocols()).unwrap();
    let host = world.add_node("jini-client");
    let agent = JiniAgent::start(&host, JiniConfig::default()).unwrap();
    agent.discover_registrar(); // no registrar exists; pure client traffic
    world.run_for(Duration::from_millis(500));
    assert_eq!(indiss.monitor().detected(), vec![SdpProtocol::Jini]);
}
