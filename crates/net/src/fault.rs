//! `FaultTransport`: deterministic, seed-driven fault injection at the
//! transport seam.
//!
//! INDISS is pitched for lossy, dynamic networks (paper §2.4, §4), yet
//! every other transport in this crate delivers datagrams intact, in
//! order, exactly once. This decorator wraps any [`Transport`] and
//! applies a [`FaultPlan`] to **ingress** traffic — drop, duplicate,
//! swap-with-next reordering, hold-back delay, single-byte corruption
//! and scheduled partition windows — before the wrapped sink sees it.
//! Egress is untouched: a reply's loss is modeled by the fault lane of
//! the channel that would have received it, so wrapping both the
//! gateway and its clients in one `FaultTransport` exercises loss in
//! both directions.
//!
//! ## Determinism contract
//!
//! Every decision derives from a SplitMix64 stream seeded per *lane*
//! (bound channels key by their pre-offset protocol port; client
//! channels key by bind order), and every arrival consumes a **fixed
//! number of draws** whether or not any fault fires. A decision is
//! therefore a pure function of `(plan seed, lane key, arrival index)`
//! — independent of wall-clock timing, thread interleaving and the
//! transport underneath. The same scripted traffic through a faulted
//! [`crate::SimTransport`] and a faulted [`crate::BatchedTransport`]
//! meets the identical hostile world, which is what lets the bench
//! crate's `hostile_world_delivers_and_replays_its_pinned_digest` test
//! replay a run bit-for-bit from its seed. Delay and reorder are
//! expressed in *arrivals*, not time, for the same reason: a held-back
//! datagram is released when enough later datagrams have arrived on
//! its lane, never by a timer.
//!
//! Injected-fault counts surface through [`Transport::io_stats`]
//! (the [`FaultStats`] block), merged over whatever the wrapped
//! transport reports.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::NetResult;
use crate::time::SimTime;
use crate::transport::{
    BindSpec, FaultCounters, FaultStats, IoStats, Transport, TransportBatchSink, TransportKind,
    TransportSocket,
};
use crate::udp::Datagram;

/// The seed-driven fault schedule a [`FaultTransport`] applies per
/// ingress lane. Probabilities are per-datagram in `[0, 1]`; see the
/// module docs for the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of every lane's SplitMix64 decision stream.
    pub seed: u64,
    /// Probability a datagram is silently discarded.
    pub drop: f64,
    /// Probability a datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a datagram is swapped with the lane's next arrival.
    pub reorder: f64,
    /// Probability one payload byte has one bit flipped.
    pub corrupt: f64,
    /// Probability a datagram is held back [`FaultPlan::delay_slots`]
    /// arrivals before delivery.
    pub delay: f64,
    /// How many later arrivals a delayed datagram waits behind.
    pub delay_slots: u64,
    /// Scheduled partition windows, as half-open `[start, end)` ranges
    /// of the per-lane arrival index: everything arriving inside a
    /// window is discarded, as if the network split.
    pub partitions: Vec<(u64, u64)>,
    /// Scheduled partition windows in *virtual time*, as half-open
    /// `[start, end)` instants: everything arriving while the
    /// transport's virtual clock sits inside a window is discarded.
    /// The clock only moves when the driving side calls
    /// [`FaultTransport::set_now`] — mobility scripts use this to cut a
    /// gateway for a scripted interval ("cut B from t=2s to t=5s"),
    /// and because the clock is virtual the outcome stays a pure
    /// function of `(seed, lane, window)`, never of wall-clock timing.
    /// The fixed per-arrival draw budget is consumed before the window
    /// check, so lanes stay aligned with an uncut replay.
    pub time_partitions: Vec<(SimTime, SimTime)>,
}

impl FaultPlan {
    /// A plan that injects nothing (probabilities all zero).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// The canonical hostile world of the bench crate's
    /// `hostile_world_delivers_and_replays_its_pinned_digest` test:
    /// 10 % drop and 10 % swap-with-next reordering on every lane, both
    /// directions.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan { seed, drop: 0.10, reorder: 0.10, ..FaultPlan::default() }
    }

    fn in_partition(&self, index: u64) -> bool {
        self.partitions.iter().any(|&(start, end)| index >= start && index < end)
    }

    fn in_time_partition(&self, now: SimTime) -> bool {
        self.time_partitions.iter().any(|&(start, end)| now >= start && now < end)
    }
}

/// Per-channel fault state: the decision stream plus the in-flight
/// reorder/delay holdings. One mutex per lane — lanes never contend
/// with each other, and within a lane the underlying transport already
/// serializes arrivals.
struct Lane {
    state: Mutex<LaneState>,
}

struct LaneState {
    rng: u64,
    index: u64,
    /// Datagram stashed by a reorder decision, delivered after the
    /// lane's next deliverable arrival.
    swap: Option<Datagram>,
    /// Delayed datagrams with the arrival index that releases them.
    held: VecDeque<(u64, Datagram)>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit draw onto `[0, 1)` and compares against `p`.
fn chance(draw: u64, p: f64) -> bool {
    p > 0.0 && ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

/// The fault-injecting transport decorator. See the module docs.
pub struct FaultTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    counters: Arc<FaultCounters>,
    /// Latest virtual time observed from the driving side (see
    /// [`FaultTransport::set_now`]); datagram handlers read it for the
    /// time-window partition check. Shared by every sink closure.
    now_nanos: Arc<AtomicU64>,
    /// Client lanes key by bind order so the key is identical across
    /// transports (ephemeral port numbers are not).
    client_seq: AtomicU64,
}

impl FaultTransport {
    /// Wraps `inner` so every channel bound through this handle runs
    /// under `plan`'s hostile world.
    pub fn wrap(inner: Arc<dyn Transport>, plan: FaultPlan) -> FaultTransport {
        FaultTransport {
            inner,
            plan,
            counters: Arc::new(FaultCounters::default()),
            now_nanos: Arc::new(AtomicU64::new(0)),
            client_seq: AtomicU64::new(0),
        }
    }

    /// Snapshot of the injected-fault counters (also available inside
    /// [`Transport::io_stats`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.counters.snapshot()
    }

    /// Advances the transport's virtual clock (monotonic — a stale
    /// caller never moves it backwards). Only
    /// [`FaultPlan::time_partitions`] reads the clock; a plan without
    /// time windows never needs this called. Drive it from the same
    /// virtual-time loop that schedules the traffic and the partition
    /// outcome is deterministic by construction.
    pub fn set_now(&self, now: SimTime) {
        self.now_nanos.fetch_max(now.as_nanos(), Ordering::Relaxed);
    }

    fn lane(&self, key: u64) -> Arc<Lane> {
        let mut seed = self.plan.seed ^ key;
        // Burn one mix so lanes with nearby keys decorrelate.
        let rng = splitmix(&mut seed);
        Arc::new(Lane {
            state: Mutex::new(LaneState { rng, index: 0, swap: None, held: VecDeque::new() }),
        })
    }

    /// Runs one ingress datagram through the lane's fault schedule,
    /// appending everything deliverable *now* to `out`. Exactly six
    /// draws are consumed per arrival regardless of outcome.
    fn admit(&self, lane: &Lane, dgram: Datagram, out: &mut Vec<Datagram>) {
        let plan = &self.plan;
        let counters = &self.counters;
        let mut state = lane.state.lock().expect("fault lane poisoned");
        let index = state.index;
        state.index += 1;
        // Release any delayed datagram whose wait has elapsed.
        while state.held.front().is_some_and(|&(release, _)| release <= index) {
            let (_, held) = state.held.pop_front().expect("front checked");
            out.push(held);
        }
        let d_drop = splitmix(&mut state.rng);
        let d_dup = splitmix(&mut state.rng);
        let d_reorder = splitmix(&mut state.rng);
        let d_corrupt = splitmix(&mut state.rng);
        let d_delay = splitmix(&mut state.rng);
        let d_byte = splitmix(&mut state.rng);
        if plan.in_partition(index) {
            counters.partitioned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !plan.time_partitions.is_empty() {
            let now = SimTime::from_nanos(self.now_nanos.load(Ordering::Relaxed));
            if plan.in_time_partition(now) {
                counters.time_partitioned.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if chance(d_drop, plan.drop) {
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut dgram = dgram;
        if chance(d_corrupt, plan.corrupt) && !dgram.payload.is_empty() {
            let pos = (d_byte as usize) % dgram.payload.len();
            dgram.payload[pos] ^= 1 << ((d_byte >> 32) % 8);
            counters.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        if chance(d_delay, plan.delay) && plan.delay_slots > 0 {
            let release = index + plan.delay_slots;
            state.held.push_back((release, dgram));
            counters.delayed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if chance(d_reorder, plan.reorder) && state.swap.is_none() {
            state.swap = Some(dgram);
            counters.reordered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if chance(d_dup, plan.duplicate) {
            out.push(dgram.clone());
            counters.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        out.push(dgram);
        if let Some(swapped) = state.swap.take() {
            out.push(swapped);
        }
    }

    fn faulted_batch_sink(&self, key: u64, sink: TransportBatchSink) -> TransportBatchSink {
        let lane = self.lane(key);
        let this = self.snapshot_handle();
        Arc::new(move |batch| {
            let mut out = Vec::with_capacity(batch.len());
            for dgram in batch {
                this.admit(&lane, dgram, &mut out);
            }
            if !out.is_empty() {
                sink(out);
            }
        })
    }

    /// A cheap clone carrying only what the sink closures need (the
    /// plan and counters — not another `Arc<dyn Transport>` cycle).
    fn snapshot_handle(&self) -> FaultTransport {
        FaultTransport {
            inner: Arc::clone(&self.inner),
            plan: self.plan.clone(),
            counters: Arc::clone(&self.counters),
            now_nanos: Arc::clone(&self.now_nanos),
            client_seq: AtomicU64::new(0),
        }
    }

    fn next_client_key(&self) -> u64 {
        // Client lanes live in a separate key space from protocol ports.
        (1 << 32) | self.client_seq.fetch_add(1, Ordering::Relaxed)
    }
}

impl Transport for FaultTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn bind_batched(
        &self,
        spec: &BindSpec,
        sink: TransportBatchSink,
    ) -> NetResult<Arc<dyn TransportSocket>> {
        self.inner.bind_batched(spec, self.faulted_batch_sink(u64::from(spec.port), sink))
    }

    fn bind_client_batched(&self, sink: TransportBatchSink) -> NetResult<Arc<dyn TransportSocket>> {
        self.inner.bind_client_batched(self.faulted_batch_sink(self.next_client_key(), sink))
    }

    fn map_port(&self, port: u16) -> u16 {
        self.inner.map_port(port)
    }

    fn io_stats(&self) -> Option<IoStats> {
        Some(IoStats {
            faults: self.counters.snapshot(),
            ..self.inner.io_stats().unwrap_or_default()
        })
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;
    use std::net::Ipv4Addr;

    fn run_stream(plan: FaultPlan, count: usize) -> (Vec<Vec<u8>>, FaultStats) {
        run_stream_via(plan, count, false)
    }

    /// Pushes `count` datagrams at a faulted server channel bound either
    /// through the per-datagram `bind` adapter or through `bind_batched`.
    fn run_stream_via(plan: FaultPlan, count: usize, batched: bool) -> (Vec<Vec<u8>>, FaultStats) {
        let faulty = FaultTransport::wrap(Arc::new(SimTransport::new()), plan);
        let heard = Arc::new(Mutex::new(Vec::new()));
        let heard2 = Arc::clone(&heard);
        let spec = BindSpec { port: 4427, groups: vec![] };
        let server = if batched {
            faulty.bind_batched(
                &spec,
                Arc::new(move |batch: Vec<Datagram>| {
                    heard2.lock().unwrap().extend(batch.into_iter().map(|d| d.payload));
                }),
            )
        } else {
            faulty.bind(&spec, Arc::new(move |d: Datagram| heard2.lock().unwrap().push(d.payload)))
        }
        .unwrap();
        let client = faulty.bind_client(Arc::new(|_| {})).unwrap();
        for i in 0..count {
            client.send_to(&[i as u8, (i >> 8) as u8], server.local_addr()).unwrap();
        }
        let stats = faulty.fault_stats();
        let heard = heard.lock().unwrap().clone();
        (heard, stats)
    }

    /// The provided per-datagram `bind` adapter and `bind_batched` meet
    /// the identical hostile world: same delivered payload sequence,
    /// same fault counters. One fault-admission closure serves both.
    #[test]
    fn per_datagram_and_batched_binds_meet_the_same_world() {
        let (per_datagram, per_datagram_stats) = run_stream_via(FaultPlan::hostile(42), 400, false);
        let (batched, batched_stats) = run_stream_via(FaultPlan::hostile(42), 400, true);
        assert_eq!(per_datagram, batched, "identical delivered sequence");
        assert_eq!(per_datagram_stats, batched_stats);
        assert!(batched_stats.dropped > 0 && batched_stats.reordered > 0, "{batched_stats:?}");
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (heard, stats) = run_stream(FaultPlan::quiet(7), 50);
        assert_eq!(heard.len(), 50);
        assert_eq!(stats, FaultStats::default());
        assert!(heard.iter().enumerate().all(|(i, p)| p[0] == i as u8), "order preserved");
    }

    #[test]
    fn same_seed_replays_identically() {
        let (a, stats_a) = run_stream(FaultPlan::hostile(42), 400);
        let (b, stats_b) = run_stream(FaultPlan::hostile(42), 400);
        assert_eq!(a, b, "identical hostile world for identical seed");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0, "10% drop over 400 datagrams fires: {stats_a:?}");
        assert!(stats_a.reordered > 0, "10% reorder over 400 datagrams fires: {stats_a:?}");
        let (c, _) = run_stream(FaultPlan::hostile(43), 400);
        assert_ne!(a, c, "different seed, different world");
    }

    #[test]
    fn drop_rate_lands_near_the_plan() {
        let plan = FaultPlan { seed: 9, drop: 0.10, ..FaultPlan::default() };
        let (heard, stats) = run_stream(plan, 2000);
        assert_eq!(heard.len() as u64 + stats.dropped, 2000);
        let rate = stats.dropped as f64 / 2000.0;
        assert!((0.05..=0.15).contains(&rate), "drop rate ~10%, got {rate}");
    }

    #[test]
    fn duplicates_and_corruption_are_counted() {
        let plan = FaultPlan { seed: 5, duplicate: 0.2, corrupt: 0.2, ..FaultPlan::default() };
        let (heard, stats) = run_stream(plan, 500);
        assert_eq!(heard.len() as u64, 500 + stats.duplicated);
        assert!(stats.duplicated > 0);
        assert!(stats.corrupted > 0);
    }

    #[test]
    fn reorder_swaps_with_next_arrival() {
        // Force a reorder on every datagram: each arrival is stashed,
        // and (with the swap slot busy) the next one flushes it.
        let plan = FaultPlan { seed: 1, reorder: 1.0, ..FaultPlan::default() };
        let (heard, stats) = run_stream(plan, 10);
        assert!(stats.reordered > 0);
        // Nothing lost except a possible trailing stash.
        assert!(heard.len() >= 9, "at most the trailing stash outstanding: {}", heard.len());
        assert_ne!(heard[0][0], 0, "first delivery is not the first arrival");
    }

    #[test]
    fn delay_holds_back_behind_later_arrivals() {
        let plan = FaultPlan { seed: 3, delay: 0.5, delay_slots: 3, ..FaultPlan::default() };
        let (heard, stats) = run_stream(plan, 200);
        assert!(stats.delayed > 0);
        // Everything not still held at the end arrived.
        assert!(heard.len() as u64 >= 200 - stats.delayed);
        let order: Vec<u16> =
            heard.iter().map(|p| u16::from(p[0]) | (u16::from(p[1]) << 8)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "delays must visibly reorder the stream");
    }

    #[test]
    fn partition_window_discards_by_arrival_index() {
        let plan = FaultPlan { seed: 2, partitions: vec![(10, 20)], ..FaultPlan::default() };
        let (heard, stats) = run_stream(plan, 30);
        assert_eq!(stats.partitioned, 10);
        assert_eq!(heard.len(), 20);
        assert!(heard.iter().all(|p| p[0] < 10 || p[0] >= 20));
    }

    #[test]
    fn time_partition_window_discards_by_virtual_clock() {
        let plan = FaultPlan {
            seed: 4,
            time_partitions: vec![(SimTime::from_secs(2), SimTime::from_secs(5))],
            ..FaultPlan::default()
        };
        let faulty = FaultTransport::wrap(Arc::new(SimTransport::new()), plan);
        let heard = Arc::new(Mutex::new(Vec::new()));
        let heard2 = Arc::clone(&heard);
        let server = faulty
            .bind(
                &BindSpec { port: 4427, groups: vec![] },
                Arc::new(move |d: Datagram| heard2.lock().unwrap().push(d.payload)),
            )
            .unwrap();
        let client = faulty.bind_client(Arc::new(|_| {})).unwrap();
        // One datagram per virtual second 0..10: seconds 2, 3 and 4 sit
        // inside the cut window.
        for sec in 0u64..10 {
            faulty.set_now(SimTime::from_secs(sec));
            client.send_to(&[sec as u8], server.local_addr()).unwrap();
        }
        let stats = faulty.fault_stats();
        assert_eq!(stats.time_partitioned, 3);
        assert_eq!(stats.partitioned, 0, "the index-window counter is separate");
        let heard = heard.lock().unwrap().clone();
        assert_eq!(heard.len(), 7);
        assert!(heard.iter().all(|p| p[0] < 2 || p[0] >= 5), "window cut exactly [2s, 5s)");
    }

    #[test]
    fn time_partition_replays_identically_and_keeps_lanes_aligned() {
        let run = |cut: bool| -> (Vec<Vec<u8>>, FaultStats) {
            let mut plan = FaultPlan::hostile(77);
            if cut {
                plan.time_partitions = vec![(SimTime::from_millis(100), SimTime::from_millis(200))];
            }
            let faulty = FaultTransport::wrap(Arc::new(SimTransport::new()), plan);
            let heard = Arc::new(Mutex::new(Vec::new()));
            let heard2 = Arc::clone(&heard);
            let server = faulty
                .bind(
                    &BindSpec { port: 4427, groups: vec![] },
                    Arc::new(move |d: Datagram| heard2.lock().unwrap().push(d.payload)),
                )
                .unwrap();
            let client = faulty.bind_client(Arc::new(|_| {})).unwrap();
            for i in 0u64..300 {
                faulty.set_now(SimTime::from_millis(i));
                client.send_to(&[i as u8, (i >> 8) as u8], server.local_addr()).unwrap();
            }
            let delivered = heard.lock().unwrap().clone();
            (delivered, faulty.fault_stats())
        };
        let (a, stats_a) = run(true);
        let (b, stats_b) = run(true);
        assert_eq!(a, b, "same seed + same window = same world");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.time_partitioned > 0, "the window discarded arrivals: {stats_a:?}");
        // The fixed draw budget is spent before the window check, so an
        // uncut run makes the same per-arrival decisions outside the
        // window — the cut is surgical, not a lane reshuffle.
        let (uncut, stats_uncut) = run(false);
        assert_eq!(stats_uncut.time_partitioned, 0);
        assert!(uncut.len() > a.len(), "lifting the cut can only add deliveries");
        let cut_set: std::collections::HashSet<&Vec<u8>> = a.iter().collect();
        let uncut_set: std::collections::HashSet<&Vec<u8>> = uncut.iter().collect();
        assert!(
            cut_set.is_subset(&uncut_set),
            "every payload surviving the cut also survives the uncut replay"
        );
    }

    #[test]
    fn io_stats_carries_the_fault_block() {
        let faulty = FaultTransport::wrap(
            Arc::new(SimTransport::new()),
            FaultPlan { seed: 11, drop: 1.0, ..FaultPlan::default() },
        );
        let server = faulty
            .bind(
                &BindSpec { port: 5000, groups: vec![Ipv4Addr::new(239, 1, 1, 1)] },
                Arc::new(|_| {}),
            )
            .unwrap();
        let client = faulty.bind_client(Arc::new(|_| {})).unwrap();
        client.send_to(b"x", server.local_addr()).unwrap();
        let io = faulty.io_stats().expect("fault transport always reports");
        assert_eq!(io.faults.dropped, 1);
        assert_eq!(io.reactor_wakeups, 0, "sim underneath has no reactor");
    }
}
