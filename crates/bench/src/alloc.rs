//! A counting global allocator for the bench crate's byte-accounting
//! test, `request_storm_hits_caches_and_pipeline_stays_lean`.
//!
//! Wraps the system allocator and keeps a running total of bytes
//! *requested* (gross allocation volume, reallocations counted by their
//! new size). The counter deliberately ignores frees: the metric of
//! interest is how much allocator traffic a code path generates, not its
//! resident footprint.
//!
//! The total is **per thread**: a probe is billed only for what its own
//! thread allocates, so sibling tests the harness runs in parallel
//! cannot leak into a measurement. Every measured scenario is a
//! single-threaded sim run, so there is no cross-thread aggregate.
//!
//! The allocator is installed crate-wide (`#[global_allocator]` in
//! `lib.rs`), so every bench binary and test linking `indiss-bench` gets
//! byte accounting for free; the per-operation cost is one
//! thread-local add.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and `Copy`: no lazy-init allocation (which
    // would re-enter the allocator) and no destructor to register.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Bills `bytes` to the calling thread. `try_with`, not `with`: an
/// allocation during thread teardown, after TLS is gone, goes uncounted
/// instead of panicking inside the allocator.
fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|cell| cell.set(cell.get() + bytes as u64));
}

/// The counting allocator; see the module docs.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a
// thread-local counter update, which allocates nothing and cannot
// unwind.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total bytes the calling thread has requested from the allocator so
/// far (monotonic).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns the bytes the calling thread allocated while it
/// ran.
pub fn allocated_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocated_bytes();
    let result = f();
    (result, allocated_bytes() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_allocations() {
        let (v, bytes) = allocated_during(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(bytes >= 4096, "a 4 KiB Vec must register: {bytes}");
    }

    #[test]
    fn allocation_free_code_registers_zero() {
        let buf = [0u64; 8];
        let (sum, bytes) = allocated_during(|| buf.iter().sum::<u64>());
        assert_eq!(sum, 0);
        assert_eq!(bytes, 0, "stack-only work must not count");
    }

    /// Another thread's traffic is not billed to the probe — what keeps
    /// the byte gates exact under the parallel test harness.
    #[test]
    fn other_threads_are_not_billed_to_the_probe() {
        const SIBLING: usize = 1 << 20;
        let (len, bytes) = allocated_during(|| {
            std::thread::spawn(|| vec![0u8; SIBLING].len()).join().expect("sibling thread")
        });
        assert_eq!(len, SIBLING);
        assert!(bytes < SIBLING as u64, "only the spawn bookkeeping is ours: {bytes}");
    }

    /// The wire engine's own allocation budget, read on the threads that
    /// spend it: a reactor wake-up that delivers one datagram allocates
    /// exactly what it hands over — the one-element `Vec<Datagram>` and
    /// the payload copy — and flushing one reply allocates nothing. The
    /// per-wake-up `iovec`/`mmsghdr`/event scratch (≈6 kB) this pins out
    /// was most of a warm hit's allocation bill.
    #[test]
    fn wire_engine_allocates_only_the_batch_it_delivers() {
        use indiss_net::{BatchedTransport, Datagram, Transport};
        use std::sync::{Arc, Mutex};

        const WAKEUPS: usize = 8;
        let payload = vec![0x5A; 48];
        let transport = BatchedTransport::loopback();
        // The sink runs on the delivery thread: note that thread's
        // running total at each entry. Room is reserved up front so
        // taking the note allocates nothing itself.
        let entries = Arc::new(Mutex::new(Vec::<u64>::with_capacity(WAKEUPS)));
        let sink_entries = Arc::clone(&entries);
        let server = match transport.bind_client_batched(Arc::new(move |batch: Vec<Datagram>| {
            assert_eq!(batch.len(), 1, "one datagram per wake-up");
            sink_entries.lock().expect("entries").push(allocated_bytes());
        })) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping wire_engine_allocates_only_the_batch_it_delivers: {e}");
                return;
            }
        };
        let client = transport.bind_client_batched(Arc::new(|_| {})).expect("client");

        let reply = [(payload.clone(), server.local_addr())];
        for delivered in 0..WAKEUPS {
            let (sent, bytes) = allocated_during(|| client.send_batch(&reply));
            assert_eq!(sent, 1);
            assert_eq!(bytes, 0, "flushing one reply must not allocate");
            // One in flight at a time, so every delivery is its own
            // wake-up.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
            while entries.lock().expect("entries").len() <= delivered {
                assert!(std::time::Instant::now() < deadline, "datagram {delivered} never arrived");
                std::thread::yield_now();
            }
        }
        transport.shutdown();

        // Between two sink entries the delivery thread dropped a batch,
        // went back to sleep, woke, received and built the next batch.
        // (The first entry also carries the thread's start-up.)
        let per_wakeup = (std::mem::size_of::<Datagram>() + payload.len()) as u64;
        let entries = entries.lock().expect("entries");
        for pair in entries.windows(2) {
            assert_eq!(pair[1] - pair[0], per_wakeup, "a wake-up allocated more than its batch");
        }
    }

    /// The §2.4 parser switch allocates what it keeps: reading the
    /// benchmark's description document (its `inputs::description`
    /// device, written with `to_xml`: 823 B) costs at most twice what a
    /// clone of the result does. A parse that builds a tree or copies
    /// tokens costs many times that.
    #[test]
    fn a_description_parse_allocates_what_it_keeps() {
        use indiss_upnp::{DeviceDescription, ServiceDescription};

        let name = "c5e1-a";
        let xml = DeviceDescription {
            device_type: format!("urn:schemas-upnp-org:device:{name}:1"),
            friendly_name: format!("Bench {name}"),
            manufacturer: "indiss-benchmark".into(),
            manufacturer_url: "http://example.invalid".into(),
            model_description: "generated device".into(),
            model_name: name.to_owned(),
            model_number: "1.0".into(),
            model_url: "http://example.invalid/model".into(),
            udn: format!("uuid:{name}"),
            services: vec![ServiceDescription::conventional("ctl", 1)],
        }
        .to_xml();
        assert_eq!(xml.len(), 823);

        let (parsed, parse) = allocated_during(|| DeviceDescription::from_xml(&xml));
        let desc = parsed.expect("well-formed");
        let (copy, kept) = allocated_during(|| desc.clone());
        assert_eq!(copy, desc);
        assert!(parse <= 2 * kept, "parsing allocates {parse} B; the result keeps {kept} B");
    }

    /// The gateway's own share of a warm SLP hit. On the sim bus a
    /// `NetDriver` answers each `SrvRqst` on the sending thread, so one
    /// round trip is billed here whole: the bus's copies of request and
    /// reply plus whatever the gateway adds. An echo peer on the same bus
    /// answers the same 48-B request with a pre-built reply of the
    /// gateway's length, which costs the bus's copies alone; the gateway
    /// may add at most 8 B per request to that.
    #[test]
    fn warm_slp_hit_allocates_what_an_echo_does() {
        use indiss_core::{IndissConfig, NetDriver, SdpDescriptor, SdpProtocol};
        use indiss_net::{Datagram, SimTransport, Transport, TransportSocket};
        use indiss_slp::{Body, FunctionId, Header, Message, SrvRqst};
        use std::net::SocketAddrV4;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, OnceLock};

        const WARM_UP: usize = 100;
        const REQUESTS: usize = 1_000;
        let dns_sd = SdpDescriptor::dns_sd();
        let transport: Arc<dyn Transport> = Arc::new(SimTransport::new());
        let config = IndissConfig::builder().slp().descriptor(dns_sd.clone()).build();
        let driver =
            NetDriver::builder(config).transport(Arc::clone(&transport)).start().expect("driver");
        let (heard, reply_len) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (count, len) = (Arc::clone(&heard), Arc::clone(&reply_len));
        let client = transport
            .bind_client_batched(Arc::new(move |batch: Vec<Datagram>| {
                len.store(batch[0].payload.len(), Ordering::Relaxed);
                count.fetch_add(batch.len(), Ordering::Relaxed);
            }))
            .expect("client");
        let announce = b"DNSSD ANNOUNCE _scanner._tcp.local SRV scan://10.0.4.1:6566/sane TTL 120";
        let dns_sd_addr = driver.channel_addr(dns_sd.protocol()).expect("DNS-SD channel");
        client.send_to(announce, dns_sd_addr).expect("announce");
        let request = Message::new(
            Header::new(FunctionId::SrvRqst, 7, "en"),
            Body::SrvRqst(SrvRqst {
                service_type: "service:scanner".into(),
                scopes: "DEFAULT".into(),
                ..SrvRqst::default()
            }),
        )
        .encode()
        .expect("encodable");
        assert_eq!(request.len(), 48);

        // Bytes per round trip to `dst`, after a warm-up; every request
        // must be answered.
        let bytes_per_round_trip = |dst: SocketAddrV4| {
            let before = heard.load(Ordering::Relaxed);
            for _ in 0..WARM_UP {
                client.send_to(&request, dst).expect("send");
            }
            let (_, bytes) = allocated_during(|| {
                for _ in 0..REQUESTS {
                    client.send_to(&request, dst).expect("send");
                }
            });
            assert_eq!(heard.load(Ordering::Relaxed) - before, WARM_UP + REQUESTS, "all answered");
            bytes / REQUESTS as u64
        };
        let gateway = bytes_per_round_trip(driver.channel_addr(SdpProtocol::Slp).expect("SLP"));

        let echo_socket: Arc<OnceLock<Arc<dyn TransportSocket>>> = Arc::new(OnceLock::new());
        let reply = [(vec![0x5A; reply_len.load(Ordering::Relaxed)], client.local_addr())];
        let socket = Arc::clone(&echo_socket);
        let echo = transport
            .bind_client_batched(Arc::new(move |_| {
                socket.get().expect("echo bound").send_batch(&reply);
            }))
            .expect("echo peer");
        let _ = echo_socket.set(Arc::clone(&echo));
        let echoed = bytes_per_round_trip(echo.local_addr());
        assert!(
            gateway <= echoed + 8,
            "a warm SLP hit allocates {gateway} B per round trip, an echo {echoed} B"
        );
        driver.shutdown();
    }
}
