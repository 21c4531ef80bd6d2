//! Pipeline trace spans: a lock-free, fixed-capacity span ring per
//! worker lane, stamped from a pluggable [`Clock`].
//!
//! # Design
//!
//! * **Clock seam.** Every timestamp is a [`SimTime`] from a [`Clock`]:
//!   [`SimClock`] in simulation (the driver advances an atomic virtual
//!   clock, so two same-seed runs stamp identical times — the replay
//!   contract the determinism tests pin) and [`WallClock`] in the live
//!   runtimes (an [`Instant`] epoch mapped onto the same axis with the
//!   wire driver's +1 s offset, so "now" is never before `SimTime::ZERO`).
//! * **Zero allocation on the hot path.** Span names are the interned
//!   `&'static str`s of [`Phase`]; a recorded span is four relaxed
//!   atomic stores into a preallocated ring slot plus one histogram
//!   bump. A disabled tracer is a single branch.
//! * **Single writer per ring.** Rings are indexed `lane % rings`, and
//!   callers pick lanes so that each ring has exactly one writing
//!   thread: worker `i` of the [`crate::WorkerPool`] (and whatever runs
//!   on it) records at lane `i`; the wire front-end's delivery-thread
//!   channels record at `workers + channel`, rings
//!   [`crate::ThreadedGateway::from_config`] adds for them. Readers may
//!   scrape concurrently: every slot is a seqlock (odd generation =
//!   write in progress) and the exporter simply skips a slot it cannot
//!   read consistently.
//! * **Overwrite-oldest.** When a ring wraps, the oldest span is
//!   overwritten and `spans_dropped` increments — recording never
//!   blocks and never grows.
//!
//! The crate forbids `unsafe`, so the ring is built from plain
//! `AtomicU64`s rather than raw memory — the seqlock generation is what
//! makes torn reads detectable without it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use indiss_net::SimTime;

use super::hist::{AtomicHistogram, LatencyHistogram};

/// A pipeline phase: the span's interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Wire bytes → parsed message (codec decode).
    Decode = 0,
    /// Parsed message → event stream (unit parser).
    Parse = 1,
    /// Warm-path decision (`GatewayCore::classify`).
    Classify = 2,
    /// Composing the native reply / recording the advert.
    Deliver = 3,
    /// Flushing composed replies back out the socket.
    Reply = 4,
    /// One mesh anti-entropy gossip round.
    Gossip = 5,
    /// A query-tracker retry attempt firing.
    Retry = 6,
    /// One worker-pool job execution.
    Job = 7,
}

/// Number of [`Phase`] variants (per-phase histogram array width).
pub const PHASES: usize = 8;

impl Phase {
    /// The phase's interned span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Parse => "parse",
            Phase::Classify => "classify",
            Phase::Deliver => "deliver",
            Phase::Reply => "reply",
            Phase::Gossip => "gossip",
            Phase::Retry => "retry",
            Phase::Job => "job",
        }
    }

    /// Every phase, in numeric order (scrape/export iteration order).
    pub fn all() -> [Phase; PHASES] {
        [
            Phase::Decode,
            Phase::Parse,
            Phase::Classify,
            Phase::Deliver,
            Phase::Reply,
            Phase::Gossip,
            Phase::Retry,
            Phase::Job,
        ]
    }

    fn from_u8(v: u8) -> Option<Phase> {
        Some(match v {
            0 => Phase::Decode,
            1 => Phase::Parse,
            2 => Phase::Classify,
            3 => Phase::Deliver,
            4 => Phase::Reply,
            5 => Phase::Gossip,
            6 => Phase::Retry,
            7 => Phase::Job,
            _ => return None,
        })
    }
}

/// The time source spans are stamped from.
///
/// Implementations must be monotone (a later call never returns an
/// earlier time) — the export validator checks non-decreasing span
/// starts, and both provided clocks guarantee it.
pub trait Clock: Send + Sync {
    /// The current instant on the shared virtual-nanosecond axis.
    fn now(&self) -> SimTime;
}

/// Live-runtime clock: monotonic wall time from an [`Instant`] epoch,
/// offset by +1 s onto the [`SimTime`] axis (the same mapping the wire
/// driver uses for TTL bookkeeping, so stats and spans agree).
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is "now".
    pub fn new() -> WallClock {
        WallClock { epoch: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SimTime::from_nanos(nanos.saturating_add(1_000_000_000))
    }
}

/// Simulation clock: an atomic virtual instant the driving event loop
/// advances with [`SimClock::set`]. Reads never consult the wall clock,
/// so same-seed runs stamp byte-identical spans.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// A clock starting at `SimTime::ZERO`.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Advances the clock to `now` (monotone: earlier values are ignored).
    pub fn set(&self, now: SimTime) {
        self.nanos.fetch_max(now.as_nanos(), Ordering::Relaxed);
    }
}

impl Clock for SimClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// One read-out span: what the exporter and the tests see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Global sequence number within the span's ring (monotone per ring;
    /// survivors of a wrap keep their original numbers, so ordering is
    /// never disturbed by overwrites).
    pub seq: u64,
    /// Ring (≈ worker thread) the span was recorded on.
    pub ring: usize,
    /// The pipeline phase (also the span's name).
    pub phase: Phase,
    /// The lane the work ran on (Perfetto `tid`).
    pub lane: u16,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

/// Bits of slot meta: `seq << 24 | lane << 8 | phase`.
const META_PHASE_MASK: u64 = 0xFF;
const META_LANE_SHIFT: u32 = 8;
const META_SEQ_SHIFT: u32 = 24;

struct Slot {
    /// Seqlock generation: odd while a write is in progress.
    gen: AtomicU64,
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Next sequence number to write (== spans ever recorded here).
    head: AtomicU64,
    /// Spans overwritten by ring wrap, monotone.
    dropped: AtomicU64,
    /// Per-phase latency histograms for this ring, merged at scrape.
    phase_hists: [AtomicHistogram; PHASES],
    /// Per-protocol end-to-end histograms for this ring (parallel to
    /// `TracerInner::proto_ports`). Per ring — i.e. per writing thread —
    /// so the request hot path never bumps a cache line another worker
    /// is bumping; the scrape merges them.
    proto_hists: Box<[AtomicHistogram]>,
}

impl Ring {
    fn new(capacity: usize, protocols: usize) -> Ring {
        let slots = (0..capacity)
            .map(|_| Slot {
                gen: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            phase_hists: std::array::from_fn(|_| AtomicHistogram::new()),
            proto_hists: (0..protocols).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    fn push(&self, phase: Phase, lane: u16, start: SimTime, end: SimTime) {
        let cap = self.slots.len() as u64;
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq % cap) as usize];
        if seq >= cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let gen = slot.gen.load(Ordering::Relaxed);
        // Odd generation marks the write window; Release on the final
        // store publishes the payload before the even generation lands.
        slot.gen.store(gen.wrapping_add(1), Ordering::Release);
        let meta =
            (seq << META_SEQ_SHIFT) | (u64::from(lane) << META_LANE_SHIFT) | u64::from(phase as u8);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.start.store(start.as_nanos(), Ordering::Relaxed);
        slot.end.store(end.as_nanos(), Ordering::Relaxed);
        slot.gen.store(gen.wrapping_add(2), Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    fn snapshot_into(&self, ring_index: usize, out: &mut Vec<SpanSnapshot>) {
        let head = self.head.load(Ordering::Acquire);
        for slot in self.slots.iter() {
            // Seqlock read: retry a torn slot a few times, then skip it
            // (a slot being overwritten right now is, by definition, the
            // oldest span — losing it is the ring's contract anyway).
            let mut span = None;
            for _ in 0..4 {
                let g1 = slot.gen.load(Ordering::Acquire);
                if g1 == 0 || g1 & 1 == 1 {
                    if g1 == 0 {
                        break; // never written
                    }
                    continue;
                }
                let meta = slot.meta.load(Ordering::Relaxed);
                let start = slot.start.load(Ordering::Relaxed);
                let end = slot.end.load(Ordering::Relaxed);
                let g2 = slot.gen.load(Ordering::Acquire);
                if g1 == g2 {
                    span = Some((meta, start, end));
                    break;
                }
            }
            let Some((meta, start, end)) = span else { continue };
            let seq = meta >> META_SEQ_SHIFT;
            if seq >= head {
                continue; // torn against a concurrent wrap; skip
            }
            let Some(phase) = Phase::from_u8((meta & META_PHASE_MASK) as u8) else {
                continue;
            };
            out.push(SpanSnapshot {
                seq,
                ring: ring_index,
                phase,
                lane: ((meta >> META_LANE_SHIFT) & 0xFFFF) as u16,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(end),
            });
        }
    }
}

struct TracerInner {
    enabled: bool,
    rings: Vec<Ring>,
    clock: Arc<dyn Clock>,
    /// Declared native ports, sorted — the index into each ring's
    /// `proto_hists`.
    proto_ports: Box<[u16]>,
}

/// The span recorder: a cheap-clone handle shared by every instrumented
/// layer. See the module docs for the ring discipline.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled)
            .field("rings", &self.inner.rings.len())
            .field("capacity", &self.inner.rings.first().map_or(0, |r| r.slots.len()))
            .finish()
    }
}

impl Tracer {
    /// An enabled tracer: `rings` span rings of `capacity` slots each,
    /// stamped from `clock`, with one end-to-end histogram per port in
    /// `protocols`. `rings` and `capacity` are clamped to ≥ 1.
    pub fn new(capacity: usize, rings: usize, protocols: &[u16], clock: Arc<dyn Clock>) -> Tracer {
        let capacity = capacity.max(1);
        let mut proto_ports: Vec<u16> = protocols.to_vec();
        proto_ports.sort_unstable();
        proto_ports.dedup();
        let proto_ports = proto_ports.into_boxed_slice();
        let rings = (0..rings.max(1)).map(|_| Ring::new(capacity, proto_ports.len())).collect();
        Tracer { inner: Arc::new(TracerInner { enabled: true, rings, clock, proto_ports }) }
    }

    /// A disabled tracer: every record is a single branch, nothing is
    /// allocated per call, and snapshots are empty.
    pub fn disabled() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: false,
                rings: Vec::new(),
                clock: Arc::new(SimClock::new()),
                proto_ports: Box::new([]),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The current instant, or `SimTime::ZERO` when disabled — pair
    /// with [`Tracer::record`], which ignores the stamp when disabled.
    pub fn stamp(&self) -> SimTime {
        if self.inner.enabled {
            self.inner.clock.now()
        } else {
            SimTime::ZERO
        }
    }

    /// Records a span from `start` to "now" on `lane`.
    pub fn record(&self, lane: usize, phase: Phase, start: SimTime) {
        if !self.inner.enabled {
            return;
        }
        let end = self.inner.clock.now();
        self.record_at(lane, phase, start, end.max(start));
    }

    /// Records a span with explicit endpoints (virtual-time callers:
    /// gossip rounds and tracker retries stamp the event-loop's `now`).
    pub fn record_at(&self, lane: usize, phase: Phase, start: SimTime, end: SimTime) {
        if !self.inner.enabled {
            return;
        }
        let ring = &self.inner.rings[lane % self.inner.rings.len()];
        ring.phase_hists[phase as usize].record(end.as_nanos().saturating_sub(start.as_nanos()));
        ring.push(phase, (lane & 0xFFFF) as u16, start, end);
    }

    /// Records one end-to-end request latency for `port`'s protocol on
    /// `lane`'s ring, so concurrent workers never contend on one
    /// histogram's cache lines. Ports not declared at construction are
    /// ignored (never allocates).
    pub fn record_protocol(&self, lane: usize, port: u16, start: SimTime, end: SimTime) {
        if !self.inner.enabled {
            return;
        }
        if let Ok(i) = self.inner.proto_ports.binary_search(&port) {
            let ring = &self.inner.rings[lane % self.inner.rings.len()];
            ring.proto_hists[i].record(end.as_nanos().saturating_sub(start.as_nanos()));
        }
    }

    /// Total spans ever recorded (survivors + dropped), summed over rings.
    pub fn spans_recorded(&self) -> u64 {
        self.inner.rings.iter().map(|r| r.head.load(Ordering::Acquire)).sum()
    }

    /// Spans overwritten by ring wrap, monotone, summed over rings.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.rings.iter().map(|r| r.dropped.load(Ordering::Acquire)).sum()
    }

    /// Every surviving span, sorted by `(start, ring, seq)` — a total,
    /// deterministic order (same-seed sim runs yield identical vectors).
    pub fn snapshot(&self) -> Vec<SpanSnapshot> {
        let mut out = Vec::new();
        for (i, ring) in self.inner.rings.iter().enumerate() {
            ring.snapshot_into(i, &mut out);
        }
        out.sort_by_key(|s| (s.start, s.ring, s.seq));
        out
    }

    /// Per-phase latency histograms, merged across rings, in
    /// [`Phase::all`] order (empty phases included, so the shape is
    /// fixed).
    pub fn phase_histograms(&self) -> Vec<(&'static str, LatencyHistogram)> {
        Phase::all()
            .into_iter()
            .map(|phase| {
                let mut merged = LatencyHistogram::new();
                for ring in &self.inner.rings {
                    merged.merge(&ring.phase_hists[phase as usize].snapshot());
                }
                (phase.name(), merged)
            })
            .collect()
    }

    /// Per-protocol end-to-end histograms, merged across rings, in
    /// port order.
    pub fn protocol_histograms(&self) -> Vec<(u16, LatencyHistogram)> {
        self.inner
            .proto_ports
            .iter()
            .enumerate()
            .map(|(i, port)| {
                let mut merged = LatencyHistogram::new();
                for ring in &self.inner.rings {
                    merged.merge(&ring.proto_hists[i].snapshot());
                }
                (*port, merged)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.stamp(), SimTime::ZERO);
        t.record(3, Phase::Decode, SimTime::ZERO);
        t.record_at(0, Phase::Gossip, SimTime::ZERO, SimTime::from_secs(1));
        t.record_protocol(0, 427, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(t.spans_recorded(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn spans_come_back_in_start_order() {
        let clock = Arc::new(SimClock::new());
        let t = Tracer::new(16, 2, &[427], clock.clone());
        for i in 0..6u64 {
            let start = SimTime::from_micros(i * 10);
            let end = start + Duration::from_micros(5);
            t.record_at(i as usize, Phase::Classify, start, end);
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 6);
        for w in spans.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert_eq!(spans[0].lane, 0);
        assert_eq!(spans[0].phase, Phase::Classify);
        assert_eq!(t.spans_dropped(), 0);
        // The classify histogram saw all six 5 µs durations.
        let hists = t.phase_histograms();
        let (name, classify) = &hists[Phase::Classify as usize];
        assert_eq!(*name, "classify");
        assert_eq!(classify.count(), 6);
    }

    #[test]
    fn wall_clock_is_monotone_and_offset() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(a >= SimTime::from_secs(1), "live clock sits past the sim epoch");
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_never_moves_backwards() {
        let clock = SimClock::new();
        clock.set(SimTime::from_secs(5));
        clock.set(SimTime::from_secs(3));
        assert_eq!(clock.now(), SimTime::from_secs(5));
    }

    #[test]
    fn undeclared_protocol_port_is_ignored() {
        let t = Tracer::new(8, 2, &[427, 1900], Arc::new(SimClock::new()));
        t.record_protocol(0, 9999, SimTime::ZERO, SimTime::from_micros(1));
        t.record_protocol(0, 1900, SimTime::ZERO, SimTime::from_micros(1));
        // A second lane routes to the other ring; the scrape merges both.
        t.record_protocol(1, 1900, SimTime::ZERO, SimTime::from_micros(2));
        let hists = t.protocol_histograms();
        assert_eq!(hists.len(), 2);
        assert_eq!(hists[0].0, 427);
        assert_eq!(hists[0].1.count(), 0);
        assert_eq!(hists[1].0, 1900);
        assert_eq!(hists[1].1.count(), 2);
    }
}
