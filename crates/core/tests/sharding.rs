//! Properties of the sharded registry and the multi-threaded runtime:
//!
//! * handles are `Send + Sync` (compile-time assertions — the contract
//!   the worker pool builds on);
//! * records always live on the shard their canonical type hashes to;
//! * TTL semantics (record expiry, cache expiry, negative expiry) are
//!   identical at `shards = 1` and `shards = 8` — sharding moves state
//!   between locks, never changes what the registry answers;
//! * concurrent register/lookup/expire from multiple OS threads loses no
//!   updates: the merged `RegistryStats` totals account for every
//!   operation.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use indiss_core::{
    Event, EventStream, GatewayCore, ProtocolId, RegistryConfig, RegistryStats, SdpProtocol,
    ServiceRecord, ServiceRegistry, Symbol, ThreadedGateway, WarmDecision, WorkerPool,
};
use indiss_net::SimTime;

/// The compile-time contract: everything the multi-threaded runtime
/// moves across threads really is `Send + Sync`.
#[test]
fn runtime_handles_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServiceRegistry>();
    assert_send_sync::<ServiceRecord>();
    assert_send_sync::<RegistryStats>();
    assert_send_sync::<EventStream>();
    assert_send_sync::<Event>();
    assert_send_sync::<Symbol>();
    assert_send_sync::<SdpProtocol>();
    assert_send_sync::<ProtocolId>();
    assert_send_sync::<ThreadedGateway>();
    assert_send_sync::<GatewayCore>();
    assert_send_sync::<WorkerPool>();
    assert_send_sync::<WarmDecision>();
}

fn alive(ty: &str, url: &str, ttl: Option<u32>) -> EventStream {
    let mut body =
        vec![Event::ServiceAlive, Event::ServiceType(ty.into()), Event::ResServUrl(url.into())];
    if let Some(t) = ttl {
        body.push(Event::ResTtl(t));
    }
    EventStream::framed(body)
}

fn response(ty: &str) -> EventStream {
    EventStream::framed(vec![
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType(ty.into()),
        Event::ResServUrl(format!("soap://host/{ty}")),
    ])
}

fn sharded(shards: usize) -> ServiceRegistry {
    ServiceRegistry::new(RegistryConfig {
        shards,
        negative_ttl: Duration::from_secs(2),
        cache_ttl: Duration::from_secs(30),
        // Large enough that the concurrent-churn test (8 threads × 64
        // types, each warming cache + negative entries) never triggers
        // LRU eviction: an eviction of a sibling thread's just-warmed
        // entry is legal registry behavior, but it would make the
        // exact-count assertions racy.
        cache_capacity: 4096,
        ..RegistryConfig::default()
    })
}

proptest! {
    /// (a) A record is always found on — and only on — the shard its
    /// canonical type hashes to, and the per-shard counts always sum to
    /// the aggregate.
    #[test]
    fn records_land_on_their_types_shard(
        types in proptest::collection::vec("[a-z][a-z0-9-]{0,14}", 1..40),
    ) {
        let reg = sharded(8);
        let t = SimTime::ZERO;
        for (i, ty) in types.iter().enumerate() {
            reg.record_advert(SdpProtocol::Slp, &alive(ty, &format!("u://{i}"), None), t);
        }
        for ty in &types {
            let home = reg.shard_of(ty.as_str());
            prop_assert!(home < reg.shard_count());
            prop_assert!(reg.contains_type(ty.as_str(), t));
            prop_assert!(
                reg.shard_record_count(home) >= 1,
                "type {ty} must be stored on shard {home}"
            );
            // The record is reachable through its type, and the shard
            // the router names really is where the count lives: remove
            // it and that shard (alone) shrinks.
            let before: Vec<usize> =
                (0..reg.shard_count()).map(|i| reg.shard_record_count(i)).collect();
            reg.record_advert(
                SdpProtocol::Slp,
                &EventStream::framed(vec![
                    Event::ServiceByeBye,
                    Event::ServiceType(ty.as_str().into()),
                    Event::ResServUrl(format!("u://{}", types.iter().position(|x| x == ty).unwrap())),
                ]),
                t,
            );
            let after: Vec<usize> =
                (0..reg.shard_count()).map(|i| reg.shard_record_count(i)).collect();
            for i in 0..reg.shard_count() {
                if i == home {
                    prop_assert!(after[i] <= before[i], "home shard shrank or stayed");
                } else {
                    prop_assert_eq!(after[i], before[i], "other shards untouched");
                }
            }
            // Re-insert so later iterations still find duplicate types.
            reg.record_advert(
                SdpProtocol::Slp,
                &alive(ty, &format!("u://{}", types.iter().position(|x| x == ty).unwrap()), None),
                t,
            );
        }
        let total: usize = (0..reg.shard_count()).map(|i| reg.shard_record_count(i)).sum();
        prop_assert_eq!(total, reg.record_count());
    }

    /// (b) Expiry, cache-TTL and negative-TTL semantics are identical at
    /// `shards = 1` and `shards = 8`: the same operation sequence gives
    /// the same answers at every probed instant.
    #[test]
    fn ttl_semantics_identical_across_shard_counts(
        types in proptest::collection::vec("[a-z][a-z0-9-]{0,10}", 1..16),
        ttl in 1u32..40,
        probe_s in 0u64..60,
    ) {
        let one = sharded(1);
        let eight = sharded(8);
        let t0 = SimTime::ZERO;
        for (i, ty) in types.iter().enumerate() {
            for reg in [&one, &eight] {
                reg.record_advert(
                    SdpProtocol::Slp,
                    &alive(ty, &format!("u://{i}"), Some(ttl)),
                    t0,
                );
                reg.warm(ty.as_str(), response(ty), t0);
                reg.warm_negative(SdpProtocol::Upnp, format!("absent-{ty}").as_str(), t0);
            }
        }
        let probe = SimTime::from_secs(probe_s);
        for ty in &types {
            prop_assert_eq!(
                one.contains_type(ty.as_str(), probe),
                eight.contains_type(ty.as_str(), probe),
                "record TTL visibility must not depend on shard count"
            );
            prop_assert_eq!(
                one.cache_contains(ty.as_str(), probe),
                eight.cache_contains(ty.as_str(), probe),
                "cache TTL visibility must not depend on shard count"
            );
            let absent = format!("absent-{ty}");
            prop_assert_eq!(
                one.cached_negative(SdpProtocol::Upnp, absent.as_str(), probe),
                eight.cached_negative(SdpProtocol::Upnp, absent.as_str(), probe),
                "negative TTL visibility must not depend on shard count"
            );
        }
        // Sweeping reclaims the same populations.
        let r1 = one.sweep(probe);
        let r8 = eight.sweep(probe);
        prop_assert_eq!(r1, r8, "sweep reports identical at 1 vs 8 shards");
        prop_assert_eq!(one.record_count(), eight.record_count());
        prop_assert_eq!(one.negative_len(), eight.negative_len());
    }
}

/// (c) Concurrent register/lookup/expire from multiple OS threads keeps
/// the merged `BridgeStats`-feeding totals consistent: every insert,
/// removal, hit and negative store is accounted for — no lost updates
/// behind the shard locks.
#[test]
fn concurrent_churn_loses_no_stat_updates() {
    const THREADS: usize = 8;
    const TYPES_PER_THREAD: usize = 64;
    let reg = Arc::new(sharded(8));
    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let reg = Arc::clone(&reg);
        handles.push(std::thread::spawn(move || {
            let t0 = SimTime::ZERO;
            // Below every TTL in play (negative entries expire at 2 s):
            // concurrent sweeps must interleave with inserts and reads
            // without reclaiming entries other threads still assert on —
            // a sweep past a TTL would legitimately race them away.
            let sweep_at = SimTime::from_secs(1);
            for i in 0..TYPES_PER_THREAD {
                let ty = format!("churn-{thread}-{i}");
                // Insert (counts records_inserted), refresh (records_refreshed),
                // warm + hit (cache_hits), negative store + hit, byebye
                // (records_removed).
                reg.record_advert(
                    SdpProtocol::Slp,
                    &alive(&ty, &format!("u://{thread}/{i}"), Some(3600)),
                    t0,
                );
                reg.record_advert(
                    SdpProtocol::Slp,
                    &alive(&ty, &format!("u://{thread}/{i}"), Some(3600)),
                    t0,
                );
                assert!(reg.contains_type(ty.as_str(), t0));
                reg.warm(ty.as_str(), response(&ty), t0);
                assert!(reg.cached_response(ty.as_str(), t0).is_some());
                let absent = format!("absent-{thread}-{i}");
                reg.warm_negative(SdpProtocol::Upnp, absent.as_str(), t0);
                assert!(reg.cached_negative(SdpProtocol::Upnp, absent.as_str(), t0));
                reg.record_advert(
                    SdpProtocol::Slp,
                    &EventStream::framed(vec![
                        Event::ServiceByeBye,
                        Event::ServiceType(ty.as_str().into()),
                        Event::ResServUrl(format!("u://{thread}/{i}")),
                    ]),
                    t0,
                );
                // Interleave sweeps from every thread (nothing is due
                // yet; the deterministic expiry pass happens after the
                // join).
                reg.sweep(sweep_at);
            }
        }));
    }
    for h in handles {
        h.join().expect("churn thread");
    }
    let total = (THREADS * TYPES_PER_THREAD) as u64;
    let stats = reg.stats();
    assert_eq!(stats.records_inserted, total, "every insert counted: {stats:?}");
    assert_eq!(stats.records_refreshed, total, "every refresh counted: {stats:?}");
    assert_eq!(stats.records_removed, total, "every byebye counted: {stats:?}");
    assert_eq!(stats.cache_hits, total, "every cache hit counted: {stats:?}");
    assert_eq!(stats.negative_stored, total, "every negative store counted: {stats:?}");
    assert_eq!(stats.negative_hits, total, "every negative hit counted: {stats:?}");
    assert_eq!(reg.record_count(), 0, "every record removed again");
    let per_shard: usize = (0..reg.shard_count()).map(|i| reg.shard_record_count(i)).sum();
    assert_eq!(per_shard, 0);
    // The deadlines every thread armed on its shard's wheel are intact:
    // one expiry sweep past the negative TTL reclaims exactly the
    // surviving negative entries.
    assert_eq!(reg.negative_len(), total as usize, "all negative entries still pending");
    let report = reg.sweep(SimTime::from_secs(10));
    assert_eq!(report.negative_expired, total, "every armed deadline fired once: {report:?}");
    assert_eq!(reg.negative_len(), 0);
}

/// The same sharded registry behind a `ThreadedGateway`: concurrent
/// classification from four threads answers every warm request and
/// counts every hit exactly once.
#[test]
fn threaded_gateway_counts_are_exact_under_concurrency() {
    use std::sync::atomic::{AtomicU64, Ordering};
    const THREADS: usize = 4;
    let gw = ThreadedGateway::new(
        RegistryConfig {
            shards: 8,
            cache_ttl: Duration::from_secs(3600),
            ..RegistryConfig::default()
        },
        1,
    );
    let now = SimTime::from_secs(1);
    let types: Vec<String> = (0..32).map(|i| format!("gwtype-{i}")).collect();
    for ty in &types {
        gw.registry().warm(ty.as_str(), response(ty), SimTime::ZERO);
    }
    let core = gw.core();
    let hits = AtomicU64::new(0);
    const ROUNDS: u64 = 25;
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let (core, hits, types) = (&core, &hits, &types);
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    for ty in types.iter().skip(thread).step_by(THREADS) {
                        let decision = core.classify(SdpProtocol::Slp, &request(ty), now);
                        if matches!(decision, WarmDecision::CacheHit(_)) {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let expected = ROUNDS * types.len() as u64;
    assert_eq!(hits.load(Ordering::Relaxed), expected);
    let stats = gw.stats();
    assert_eq!(stats.cache_hits, expected, "per-shard counters merged without loss: {stats:?}");
    assert_eq!(stats.requests_bridged, expected, "cache hits count as bridged requests");
}

fn versioned_response(ty: &str, version: u32) -> EventStream {
    EventStream::framed(vec![
        Event::ServiceResponse,
        Event::ResOk,
        Event::ServiceType(ty.into()),
        Event::ResServUrl(format!("soap://host/{ty}/v{version}")),
    ])
}

fn request(ty: &str) -> EventStream {
    EventStream::framed(vec![Event::ServiceRequest, Event::ServiceType(ty.into())])
}

/// Extracts the `v{n}` version a [`versioned_response`] carried, after
/// asserting the stream is well-formed for `ty` — a torn read would
/// surface here as a mismatched type or a mangled URL.
fn response_version(ty: &str, stream: &EventStream) -> u32 {
    let url = stream
        .events()
        .iter()
        .find_map(|e| match e {
            Event::ResServUrl(url) => Some(url.clone()),
            _ => None,
        })
        .expect("cache hit carries a service URL");
    let prefix = format!("soap://host/{ty}/v");
    let version = url
        .strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("URL {url} is not a version of type {ty}"));
    version.parse().unwrap_or_else(|_| panic!("URL {url} carries a malformed version"))
}

proptest! {
    /// (d) The warm path is linear with the writes: after every warm, a
    /// read through the warm path observes exactly the post-write state
    /// — the freshly written version, never a stale or torn one — and a
    /// 4-shard registry answers byte-identically to an unsharded one
    /// across the whole interleaving, with identical merged stats.
    #[test]
    fn warm_path_reads_observe_the_latest_write(
        ops in proptest::collection::vec((0usize..6, 1u32..50), 1..60),
    ) {
        let one = ThreadedGateway::new(
            RegistryConfig { shards: 1, cache_ttl: Duration::from_secs(3600), ..RegistryConfig::default() },
            1,
        );
        let four = ThreadedGateway::new(
            RegistryConfig { shards: 4, cache_ttl: Duration::from_secs(3600), ..RegistryConfig::default() },
            1,
        );
        let t = SimTime::from_secs(1);
        let mut latest: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        for (ty_idx, version) in ops {
            let ty = format!("latest-{ty_idx}");
            one.registry().warm(ty.as_str(), versioned_response(&ty, version), t);
            four.registry().warm(ty.as_str(), versioned_response(&ty, version), t);
            latest.insert(ty_idx, version);
            // Read back *every* warmed type, on both registries: the
            // just-written type and every unchanged one.
            for (idx, expect) in &latest {
                let ty = format!("latest-{idx}");
                for gw in [&one, &four] {
                    match gw.core().classify(SdpProtocol::Slp, &request(&ty), t) {
                        WarmDecision::CacheHit(stream) => {
                            prop_assert_eq!(response_version(&ty, &stream), *expect);
                        }
                        other => prop_assert!(false, "warm type must hit the cache, got {:?}", other),
                    }
                }
            }
        }
        // Sharding must not change the merged accounting.
        let s1 = one.stats();
        let s4 = four.stats();
        prop_assert_eq!(s1.cache_hits, s4.cache_hits);
        prop_assert_eq!(s1.requests_bridged, s4.requests_bridged);
        prop_assert_eq!(s1.cache_misses, s4.cache_misses);
    }
}

/// (e) Multi-thread churn over the warm path: two writers warm
/// versioned responses while three readers classify concurrently. Every
/// observed hit must be a *complete* written version (never torn),
/// versions must be monotonic per reader (a read never sees an older
/// write than the one before it), and the merged per-shard stats must
/// account for exactly the decisions the readers saw, the same
/// bookkeeping contract `shards = 1` has always pinned.
#[test]
fn concurrent_warm_churn_is_monotonic_with_exact_merged_stats() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const TYPES: usize = 8;
    const VERSIONS: u32 = 300;
    const READERS: usize = 3;
    let gw = Arc::new(ThreadedGateway::new(
        RegistryConfig {
            shards: 8,
            cache_ttl: Duration::from_secs(3600),
            ..RegistryConfig::default()
        },
        1,
    ));
    let t = SimTime::from_secs(1);
    let done = Arc::new(AtomicBool::new(false));

    let mut writers = Vec::new();
    for w in 0..2 {
        let gw = Arc::clone(&gw);
        writers.push(std::thread::spawn(move || {
            let reg = gw.registry();
            for version in 1..=VERSIONS {
                for ty_idx in (w..TYPES).step_by(2) {
                    let ty = format!("churn-warm-{ty_idx}");
                    reg.warm(ty.as_str(), versioned_response(&ty, version), t);
                }
            }
        }));
    }

    // Readers tally their own decisions so the merged stats can be
    // checked for exactness afterwards.
    #[derive(Default)]
    struct Seen {
        hits: u64,
        bridged: u64,
        suppressed: u64,
    }
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let gw = Arc::clone(&gw);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let core = gw.core();
            let mut seen = Seen::default();
            let mut floor = [0u32; TYPES];
            loop {
                let finished = done.load(Ordering::Acquire);
                for (ty_idx, floor) in floor.iter_mut().enumerate() {
                    let ty = format!("churn-warm-{ty_idx}");
                    match core.classify(SdpProtocol::Slp, &request(&ty), t) {
                        WarmDecision::CacheHit(stream) => {
                            let v = response_version(&ty, &stream);
                            assert!(v >= *floor, "read went backwards on {ty}: {v} after {floor}");
                            assert!(v <= VERSIONS, "unwritten version observed");
                            *floor = v;
                            seen.hits += 1;
                            seen.bridged += 1; // cache hits count as bridged
                        }
                        WarmDecision::Bridge => seen.bridged += 1,
                        WarmDecision::Suppressed => seen.suppressed += 1,
                        WarmDecision::NegativeHit => panic!("no negative entries in play"),
                    }
                }
                if finished {
                    // One full post-join pass ran: every type must now
                    // read at its final published version.
                    for (ty_idx, floor) in floor.iter().enumerate() {
                        assert_eq!(
                            *floor, VERSIONS,
                            "churn-warm-{ty_idx} must settle at the last write"
                        );
                    }
                    return seen;
                }
            }
        }));
    }

    for w in writers {
        w.join().expect("writer thread");
    }
    done.store(true, Ordering::Release);
    let mut hits = 0u64;
    let mut bridged = 0u64;
    let mut suppressed = 0u64;
    for r in readers {
        let seen = r.join().expect("reader thread");
        hits += seen.hits;
        bridged += seen.bridged;
        suppressed += seen.suppressed;
    }
    assert!(hits > 0, "readers observed warm traffic");
    let stats = gw.stats();
    assert_eq!(stats.cache_hits, hits, "every hit counted exactly once: {stats:?}");
    assert_eq!(stats.requests_bridged, bridged, "bridged accounting exact: {stats:?}");
    assert_eq!(stats.requests_suppressed, suppressed, "suppression accounting exact: {stats:?}");
}

/// Satellite audit for the UDP front-end: `Symbol::collect()` (and the
/// amortized watermark sweep) must be safe against recv threads
/// interning concurrently. The invariant under audit: an entry is only
/// reclaimed when the interner holds the last reference, and every
/// intern happens under its shard lock — so a symbol a thread holds (or
/// is in the middle of creating) can never be swept out from under it,
/// and canonical identity (equal contents ⇒ pointer-identical symbols)
/// holds at every instant. This test runs a recv-thread-shaped interner
/// workload against a `collect()` loop and checks the invariant the
/// whole way; a regression (sweeping by content instead of refcount,
/// interning outside the lock) deadlocks, panics or fails the identity
/// assertions here.
#[test]
fn interner_collect_races_with_recv_thread_interning() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for t in 0..3 {
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        threads.push(std::thread::spawn(move || {
            // A pinned symbol this thread keeps alive across sweeps.
            let pinned = Symbol::intern(&format!("race-pinned-{t}"));
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Network-derived churn: mostly-fresh strings, like USNs
                // under device churn on a real socket.
                let fresh = Symbol::intern(&format!("race-fresh-{t}-{round}"));
                assert_eq!(fresh, format!("race-fresh-{t}-{round}").as_str());
                // Canonical identity while a sweep may be running: a
                // re-intern of a live symbol is pointer-identical.
                let again = Symbol::intern(&format!("race-pinned-{t}"));
                assert_eq!(pinned, again, "identity broken during concurrent collect");
                assert!(
                    std::ptr::eq(pinned.as_str(), again.as_str()),
                    "two live symbols for equal contents must share one allocation"
                );
                round += 1;
                progress.fetch_add(1, Ordering::Relaxed);
            }
            round
        }));
    }
    // The sweeper: hammer explicit collections until the interning
    // threads have demonstrably raced them through many rounds (gating
    // on progress, not a fixed iteration count, keeps the test
    // meaningful — and not flaky — under arbitrary CI scheduling).
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while progress.load(Ordering::Relaxed) < 300 && std::time::Instant::now() < deadline {
        Symbol::collect();
    }
    stop.store(true, Ordering::Relaxed);
    let rounds: u64 = threads.into_iter().map(|t| t.join().expect("interner thread")).sum();
    assert!(rounds > 0, "interning threads made progress");
    // All churned symbols are dead now; whatever the watermark auto-GC
    // did not already reclaim, an explicit sweep can — and the table
    // stays coherent afterwards.
    Symbol::collect();
    let survivor = Symbol::intern("race-pinned-0");
    assert_eq!(survivor, "race-pinned-0");
}
