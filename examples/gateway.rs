//! Dynamic composition and self-adaptation (paper §3 + §4.2) — and,
//! with `--udp`, the same gateway live on real loopback sockets.
//!
//! **Default (simulated):** INDISS starts on a gateway with *lazy*
//! units: nothing is instantiated until the monitor detects a protocol
//! (Fig. 5's run-time composition). Devices then join over time, and
//! when the network goes quiet INDISS switches to the active model,
//! re-advertising known services so purely passive listeners still
//! learn about them (Fig. 6).
//!
//! **`--udp` (live):** a `NetDriver` gateway on real `std::net` UDP
//! sockets, loopback-confined. A UPnP "device" multicasts a real SSDP
//! `NOTIFY` whose `LOCATION:` points at a real HTTP/TCP description
//! server; the gateway fetches and parses the description (§2.4's
//! socket switch on actual sockets), warms its registry, and a real SLP
//! `SrvRqst` sent from another socket comes back as a composed
//! `SrvRply` on the requester's socket. Run with:
//! `cargo run --example gateway -- --udp`
//!
//! The live mode first tries the real IANA ports (427/1900, needs
//! `CAP_NET_BIND_SERVICE`); if refused it retries with a +20000 port
//! offset, and if loopback sockets are forbidden entirely it prints a
//! skip line and exits cleanly (CI-safe).

use indiss::core::{AdaptationPolicy, Indiss, IndissConfig};
use indiss::net::World;
use indiss::slp::{SlpConfig, UserAgent, SLP_MULTICAST_GROUP, SLP_PORT};
use indiss::upnp::{ClockDevice, UpnpConfig};
use std::time::Duration;

fn main() {
    if std::env::args().any(|a| a == "--udp") {
        live_udp_gateway();
        return;
    }
    simulated_gateway();
}

/// The live loopback gateway: real sockets end to end.
fn live_udp_gateway() {
    use indiss::core::{NetDriver, SdpProtocol};
    use indiss::net::TransportKind;
    use indiss::ssdp::{Notify, NotifySubType, SearchTarget};
    use indiss::upnp::{DeviceDescription, ServiceDescription};
    use std::io::{Read, Write};
    use std::sync::{mpsc, Arc};

    // Try the real IANA ports first, then an unprivileged offset.
    let mut driver = None;
    for offset in [0u16, 20_000] {
        let config = IndissConfig::slp_upnp().transport(TransportKind::Udp).port_offset(offset);
        match NetDriver::start(config) {
            Ok(d) => {
                println!(
                    "gateway up on loopback UDP (port offset {offset}): SLP on {:?}, UPnP on {:?}",
                    d.channel_addr(SdpProtocol::Slp),
                    d.channel_addr(SdpProtocol::Upnp),
                );
                driver = Some(d);
                break;
            }
            Err(e) => println!("bind with offset {offset} failed ({e}); trying next"),
        }
    }
    let Some(driver) = driver else {
        println!("SKIPPED: this environment forbids loopback UDP sockets entirely");
        return;
    };

    // A real HTTP/TCP server for the clock's description document —
    // the thing a UPnP LOCATION: header points at.
    let description = DeviceDescription {
        device_type: "urn:schemas-upnp-org:device:clock:1".into(),
        friendly_name: "CyberGarage Clock Device".into(),
        manufacturer: "CyberGarage".into(),
        manufacturer_url: "http://www.cybergarage.org".into(),
        model_description: "CyberUPnP Clock Device".into(),
        model_name: "Clock".into(),
        model_number: "1.0".into(),
        model_url: "http://www.cybergarage.org".into(),
        udn: "uuid:ClockDevice".into(),
        services: vec![ServiceDescription::conventional("timer", 1)],
    };
    let xml = description.to_xml();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("tcp bind");
    let http_addr = listener.local_addr().expect("tcp addr");
    let served_xml = xml.clone();
    std::thread::spawn(move || {
        // Serve description GETs until the process exits.
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf); // the GET line + headers
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{}",
                served_xml.len(),
                served_xml
            );
            let _ = stream.write_all(response.as_bytes());
        }
    });
    println!("clock description served over real TCP at http://{http_addr}/description.xml");

    // The "device" announces itself with a real SSDP NOTIFY.
    let transport = driver.transport();
    let (reply_tx, reply_rx) = mpsc::channel();
    let client = transport
        .bind_client(Arc::new(move |d: indiss::net::Datagram| {
            let _ = reply_tx.send(d);
        }))
        .expect("client socket");
    let notify = Notify {
        nt: SearchTarget::device_urn("clock", 1),
        nts: NotifySubType::Alive,
        usn: "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1".into(),
        location: Some(format!("http://{http_addr}/description.xml")),
        server: "example/1.0".into(),
        max_age: 1800,
    };
    let upnp_addr = driver.channel_addr(SdpProtocol::Upnp).expect("upnp channel");
    client.send_to(&notify.to_bytes(), upnp_addr).expect("send NOTIFY");

    // Wait until the gateway has fetched the description and warmed up.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while !driver.registry().contains_type("clock", driver.now()) {
        if std::time::Instant::now() > deadline {
            println!("gateway never recorded the clock (description fetch failed?)");
            driver.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "NOTIFY heard, description fetched over TCP, registry warm \
         (detected: {:?}, descriptions fetched: {})",
        driver.detected(),
        driver.front_stats().descriptions_fetched
    );

    // An "SLP client" asks for a clock — a real SrvRqst datagram.
    let request = indiss::slp::Message::new(
        indiss::slp::Header::new(indiss::slp::FunctionId::SrvRqst, 0x1234, "en"),
        indiss::slp::Body::SrvRqst(indiss::slp::SrvRqst {
            prlist: String::new(),
            service_type: "service:clock".into(),
            scopes: "DEFAULT".into(),
            predicate: String::new(),
            spi: String::new(),
        }),
    );
    let slp_addr = driver.channel_addr(SdpProtocol::Slp).expect("slp channel");
    client.send_to(&request.encode().expect("encodable"), slp_addr).expect("send SrvRqst");

    match reply_rx.recv_timeout(Duration::from_secs(3)) {
        Ok(reply) => {
            let msg = indiss::slp::Message::decode(&reply.payload).expect("valid SLP reply");
            match msg.body {
                indiss::slp::Body::SrvRply(rply) => println!(
                    "SLP client received a composed SrvRply on its socket: {}",
                    rply.urls[0].url
                ),
                other => println!("unexpected SLP reply: {other:?}"),
            }
        }
        Err(_) => println!("no reply arrived (unexpected)"),
    }
    // The reply can reach us before the reactor thread has booked it;
    // give its post-send accounting a bounded moment.
    let deadline = std::time::Instant::now() + Duration::from_millis(200);
    while driver.stats().responses_composed == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("\nbridge stats: {:?}", driver.stats());
    println!("wire stats:   {:?}", driver.front_stats());
    driver.shutdown();
}

/// The original deterministic simulation demo.
fn simulated_gateway() {
    let world = World::new(11);
    let gateway = world.add_node("gateway");
    let indiss = Indiss::deploy(
        &gateway,
        IndissConfig::slp_upnp().lazy().adaptation(AdaptationPolicy {
            threshold_bytes_per_sec: 300.0,
            window: Duration::from_secs(2),
            check_interval: Duration::from_secs(2),
        }),
    )
    .expect("indiss");
    println!("t={} units: {:?} (lazy: nothing yet)", world.now(), indiss.active_units());

    // t=0: a passive SLP listener is present from the start. It never
    // transmits, so INDISS cannot bridge on demand for it.
    let listener_host = world.add_node("passive-slp-listener");
    let listener = listener_host.udp_bind(SLP_PORT).expect("bind");
    listener.join_multicast(SLP_MULTICAST_GROUP).expect("join");
    let heard = indiss::net::Completion::new();
    let heard2 = heard.clone();
    listener.on_receive(move |w, d| {
        if let Ok(msg) = indiss::slp::Message::decode(&d.payload) {
            if let indiss::slp::Body::SaAdvert(sa) = &msg.body {
                heard2.complete((w.now(), sa.attrs.clone()));
            }
        }
    });

    // t=2s: a UPnP clock joins and advertises.
    world.run_for(Duration::from_secs(2));
    let clock_host = world.add_node("upnp-clock");
    let _clock = ClockDevice::start(&clock_host, UpnpConfig::default()).expect("clock");
    world.run_for(Duration::from_millis(100));
    println!(
        "t={} UPnP clock joined; units now: {:?}, detected: {:?}",
        world.now(),
        indiss.active_units(),
        indiss.monitor().detected()
    );

    // t=4s: an SLP client performs one active search, which instantiates
    // the SLP unit too.
    let client_host = world.add_node("slp-client");
    let ua = UserAgent::start(&client_host, SlpConfig::default()).expect("ua");
    let (_f, done) = ua.find_services(&world, "service:clock", "");
    world.run_for(Duration::from_secs(2));
    println!(
        "t={} active SLP search found {} service(s); units now: {:?}",
        world.now(),
        done.take().map(|o| o.urls.len()).unwrap_or(0),
        indiss.active_units()
    );

    // The network then goes quiet; the adaptation loop drops INDISS into
    // the active model and the passive listener finally hears the clock.
    world.run_for(Duration::from_secs(10));
    println!("t={} mode: {:?}", world.now(), indiss.mode());
    match heard.take() {
        Some((at, attrs)) => {
            println!("passive listener heard a translated advert at t={at}:");
            println!("  {attrs}");
        }
        None => println!("passive listener heard nothing (unexpected)"),
    }
    println!("\nmode log: {:?}", indiss.mode_log());
    println!("stats:    {:?}", indiss.stats());
}
