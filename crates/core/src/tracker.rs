//! The per-query retry/timeout/backoff state machine for the cold
//! path (the hostile-world robustness layer's bridge-side seam).
//!
//! A bridged request that reaches [`crate::WarmDecision::Bridge`] used
//! to be fire-and-forget: the runtime fanned the query out to every
//! foreign unit once and hoped a reply came back. Under loss (a
//! [`indiss_net::FaultTransport`], a congested LAN), a single dropped
//! native query or reply left the requester hanging forever — and a
//! custom replier (the Jini registrar path) never answered its client.
//!
//! [`QueryTracker`] replaces that with a small deterministic state
//! machine per query:
//!
//! * each fan-out **attempt** arms a virtual-time deadline
//!   ([`field@crate::IndissConfig::query_timeout`], doubling per attempt and
//!   capped at 8×, plus a deterministic jitter derived from the
//!   service type so co-located gateways do not retransmit in
//!   lockstep);
//! * a deadline that fires with no winner **retries** the fan-out, at
//!   most [`field@crate::IndissConfig::query_retries`] times
//!   ([`crate::BridgeStats::queries_retried`]);
//! * when the last deadline fires the query **degrades gracefully**
//!   ([`crate::BridgeStats::queries_exhausted`]): a stale registry
//!   answer if one survives
//!   ([`crate::ServiceRegistry::stale_response`], counted in
//!   [`crate::BridgeStats::stale_served`]), a negative `408` reply
//!   otherwise — either way the requester is answered.
//!
//! Determinism: everything here is virtual-time scheduling plus pure
//! arithmetic. The backoff jitter hashes the canonical type and the
//! attempt index (no RNG, no wall clock), so a seeded simulation —
//! including one behind a fault-injecting transport — replays the
//! exact retry schedule.
//!
//! Lock-order rule: the tracker holds **no** lock of its own and never
//! calls back into the runtime's `IndissInner` mutex; it captures the
//! cheap handles it needs (the [`GatewayCore`], unit `Rc`s) at
//! construction, so deadline callbacks can run from the world's event
//! loop regardless of what the runtime is doing.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::Duration;

use indiss_net::{Completion, World};

use crate::event::{Event, EventStream, SdpProtocol};
use crate::gateway::GatewayCore;
use crate::obs::Phase;
use crate::symbol::Symbol;
use crate::units::Unit;

/// Backoff growth stops at `initial × 2^3`: past that, a retry is
/// almost certainly racing the degradation deadline, not the network.
const BACKOFF_CAP_DOUBLINGS: u32 = 3;

/// One in-flight bridged query's retry state machine. Lives on the
/// simulation thread (`Rc`, like the [`Completion`]s it arbitrates);
/// the deterministic wall-clock analogue on the wire front-end is the
/// *requester's* retransmit loop — the gateway side is stateless there.
pub(crate) struct QueryTracker {
    /// Registry (stale answers, shard lanes), retry counters and the
    /// span recorder: each retry lands as a zero-width [`Phase::Retry`]
    /// span at the deadline's virtual time, lane = the type's registry
    /// shard (matching the classify span's lane).
    core: GatewayCore,
    origin: SdpProtocol,
    request: EventStream,
    stype: Option<Symbol>,
    units: Vec<(SdpProtocol, Rc<dyn Unit>)>,
    /// First response stream carrying a service URL wins; the
    /// degradation path completes it too, so every query terminates.
    winner: Completion<EventStream>,
    timeout: Duration,
    retries: u32,
}

impl QueryTracker {
    pub(crate) fn new(
        core: GatewayCore,
        origin: SdpProtocol,
        request: EventStream,
        units: Vec<(SdpProtocol, Rc<dyn Unit>)>,
        winner: Completion<EventStream>,
        timeout: Duration,
        retries: u32,
    ) -> Rc<QueryTracker> {
        let stype = request.service_type_symbol();
        Rc::new(QueryTracker { core, origin, request, stype, units, winner, timeout, retries })
    }

    /// Launches the first fan-out attempt and arms its deadline.
    pub(crate) fn start(self: &Rc<Self>, world: &World) {
        self.attempt(world, 0);
    }

    /// One fan-out attempt: query every foreign unit; the first reply
    /// with a service URL completes the winner, and an all-units-empty
    /// round completes it with the (negative) last reply — that is a
    /// definitive answer, not a timeout, so it is never retried.
    fn attempt(self: &Rc<Self>, world: &World, index: u32) {
        let expected = self.units.len();
        let failures = Rc::new(RefCell::new(0usize));
        for (_, unit) in &self.units {
            let reply: Completion<EventStream> = Completion::new();
            unit.execute_query(world, &self.request, reply.clone());
            let winner = self.winner.clone();
            let failures = Rc::clone(&failures);
            reply.subscribe(move |response| {
                if response.service_url().is_some() {
                    winner.complete(response);
                } else {
                    let mut f = failures.borrow_mut();
                    *f += 1;
                    if *f == expected {
                        winner.complete(response);
                    }
                }
            });
        }
        let tracker = Rc::clone(self);
        world.schedule_in(self.backoff(index), move |w| tracker.deadline(w, index));
    }

    /// A deadline fired. Completed queries make this a no-op (virtual
    /// timers cannot be cancelled); otherwise retry or degrade.
    fn deadline(self: &Rc<Self>, world: &World, index: u32) {
        if self.winner.is_complete() {
            return;
        }
        if index < self.retries {
            self.core.counters.queries_retried.fetch_add(1, Ordering::Relaxed);
            if self.core.tracer.enabled() {
                let lane = self.stype.clone().map_or(0, |t| self.core.registry.shard_of(t));
                let now = world.now();
                self.core.tracer.record_at(lane, Phase::Retry, now, now);
            }
            self.attempt(world, index + 1);
            return;
        }
        self.core.counters.queries_exhausted.fetch_add(1, Ordering::Relaxed);
        let stale = self.stype.clone().and_then(|t| self.core.registry.stale_response(t));
        match stale {
            Some(response) => {
                // Serve-stale-under-outage: the winner's subscriber
                // re-warms the cache with this answer, deliberately —
                // a request storm during the outage is then absorbed
                // by the warm path instead of retried per request.
                self.core.counters.stale_served.fetch_add(1, Ordering::Relaxed);
                self.winner.complete(response);
            }
            None => {
                self.winner.complete(EventStream::framed(vec![
                    Event::NetType(self.origin),
                    Event::ServiceResponse,
                    Event::ResErr(408),
                ]));
            }
        }
    }

    /// The deadline for attempt `index`: `timeout × 2^index` (capped at
    /// 8×) plus a deterministic jitter in `[0, base/8)` hashed from the
    /// canonical type and the attempt — no RNG, so seeded replays see
    /// the identical schedule, while gateways bridging different types
    /// spread their retransmits.
    fn backoff(&self, index: u32) -> Duration {
        let base = self
            .timeout
            .saturating_mul(1 << index.min(BACKOFF_CAP_DOUBLINGS))
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(index);
        if let Some(t) = &self.stype {
            for b in t.as_str().bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        let span = base / 8;
        let jitter = if span == 0 { 0 } else { h % span };
        Duration::from_nanos(base.saturating_add(jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(timeout_ms: u64, stype: Option<&str>) -> Rc<QueryTracker> {
        QueryTracker::new(
            GatewayCore::new(&crate::IndissConfig::new(), crate::Tracer::disabled()),
            SdpProtocol::Slp,
            EventStream::framed(stype.map(|t| Event::ServiceType(t.into())).into_iter().collect()),
            Vec::new(),
            Completion::new(),
            Duration::from_millis(timeout_ms),
            2,
        )
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let t = tracker(100, None);
        let steps: Vec<u128> = (0..6).map(|i| t.backoff(i).as_nanos() / 1_000_000).collect();
        // No type ⇒ jitter is a pure hash of the index; still bounded
        // by base/8, so the doubling shape (and the 8× cap) dominates.
        assert!(steps[0] >= 100 && steps[0] < 113, "attempt 0 ≈ timeout: {steps:?}");
        assert!(steps[1] >= 200 && steps[1] < 225, "attempt 1 ≈ 2×: {steps:?}");
        assert!(steps[3] >= 800 && steps[3] < 900, "attempt 3 ≈ 8×: {steps:?}");
        assert!(steps[5] >= 800 && steps[5] < 900, "capped past 8×: {steps:?}");
    }

    #[test]
    fn backoff_is_deterministic_and_type_spread() {
        let a = tracker(100, Some("clock"));
        let b = tracker(100, Some("clock"));
        let c = tracker(100, Some("printer"));
        assert_eq!(a.backoff(1), b.backoff(1), "same type, same schedule");
        assert_ne!(a.backoff(1), c.backoff(1), "different types spread");
    }
}
