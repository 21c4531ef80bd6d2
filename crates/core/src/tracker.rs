//! The per-query retry/timeout/backoff state machine for the cold
//! path (the hostile-world robustness layer's bridge-side seam).
//!
//! A bridged request that reaches [`crate::WarmDecision::Bridge`] used
//! to be fire-and-forget: the runtime fanned the query out to every
//! foreign unit once and hoped a reply came back. Under loss (a
//! [`indiss_net::FaultTransport`], a congested LAN), a single dropped
//! native query or reply left the requester hanging forever.
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
//! Determinism: everything here is pure arithmetic over the steps the
//! driver feeds in. The backoff jitter hashes the canonical type and the
//! attempt index (no RNG, no wall clock), so a seeded simulation —
//! including one behind a fault-injecting transport — replays the exact
//! retry schedule.
//!
//! [`QueryTracker`] is a plain value, like the unit processes it
//! arbitrates: no `Rc`, no `World`, no lock. The runtime's driver owns
//! it and feeds it three steps — start an attempt, a unit's process
//! completed, a deadline fired — and performs what they decide.
//!
//! Deadline layering: every built-in unit completes its own process
//! before the tracker's first deadline (500 ms by default) — SLP at its
//! 20 ms window, a descriptor unit at 25 ms, Jini at 60 ms and UPnP at
//! its 400 ms process deadline. A foreign responder that stays silent
//! therefore ends the fan-out as a *definitive* negative (every unit
//! came back empty), not a timeout: `queries_retried` and
//! `queries_exhausted` move only for a unit whose process never
//! completes at all.

use std::sync::atomic::Ordering;
use std::time::Duration;

use indiss_net::SimTime;

use crate::event::{Event, EventStream, SdpProtocol};
use crate::gateway::GatewayCore;
use crate::obs::Phase;
use crate::symbol::Symbol;

/// Backoff growth stops at `initial × 2^3`: past that, a retry is
/// almost certainly racing the degradation deadline, not the network.
const BACKOFF_CAP_DOUBLINGS: u32 = 3;

/// One in-flight bridged query's retry state machine.
pub(crate) struct QueryTracker {
    origin: SdpProtocol,
    stype: Option<Symbol>,
    /// Foreign units every attempt fans out to.
    fanout: usize,
    /// Per attempt: how many of its unit processes came back empty.
    failures: Vec<usize>,
    timeout: Duration,
    retries: u32,
    /// Set once the query has its answer; later steps are no-ops.
    answered: bool,
}

/// What a fired deadline decides.
#[derive(Debug, PartialEq)]
pub(crate) enum Deadline {
    /// Fan out again as attempt `index`.
    Retry(u32),
    /// Out of retries: answer with a stale registry answer, or a
    /// negative `408`.
    Answer(EventStream),
    /// The query was answered already (virtual timers are not
    /// cancelled).
    Idle,
}

impl QueryTracker {
    pub(crate) fn new(
        origin: SdpProtocol,
        stype: Option<Symbol>,
        fanout: usize,
        timeout: Duration,
        retries: u32,
    ) -> QueryTracker {
        let failures = Vec::with_capacity(1);
        QueryTracker { origin, stype, fanout, failures, timeout, retries, answered: false }
    }

    /// Starts attempt `index` — 0 first, then each [`Deadline::Retry`]'s
    /// — and returns the delay its deadline is to be armed for.
    pub(crate) fn attempt(&mut self, index: u32) -> Duration {
        self.failures.push(0);
        self.backoff(index)
    }

    /// A unit process of attempt `attempt` completed. Returns the
    /// query's answer when this decides it: the first response carrying
    /// a service URL, or the last of an attempt whose every unit came
    /// back empty — that is a definitive answer, not a timeout, so it is
    /// never retried.
    pub(crate) fn unit_completed(
        &mut self,
        attempt: u32,
        response: EventStream,
    ) -> Option<EventStream> {
        if self.answered {
            return None;
        }
        if response.service_url().is_none() {
            let failed = &mut self.failures[attempt as usize];
            *failed += 1;
            if *failed < self.fanout {
                return None;
            }
        }
        self.answered = true;
        Some(response)
    }

    /// Attempt `index`'s deadline fired at `now`: retry, degrade, or
    /// nothing when the query was answered already. Retries and
    /// exhaustion are counted on `core`; each retry lands as a
    /// zero-width [`Phase::Retry`] span, lane = the type's registry shard
    /// (matching the classify span's lane).
    pub(crate) fn deadline(&mut self, index: u32, core: &GatewayCore, now: SimTime) -> Deadline {
        if self.answered {
            return Deadline::Idle;
        }
        if index < self.retries {
            core.counters.queries_retried.fetch_add(1, Ordering::Relaxed);
            if core.tracer.enabled() {
                let lane = self.stype.clone().map_or(0, |t| core.registry.shard_of(t));
                core.tracer.record_at(lane, Phase::Retry, now, now);
            }
            return Deadline::Retry(index + 1);
        }
        self.answered = true;
        core.counters.queries_exhausted.fetch_add(1, Ordering::Relaxed);
        match self.stype.clone().and_then(|t| core.registry.stale_response(t)) {
            Some(response) => {
                // Serve-stale-under-outage: delivery re-warms the cache
                // with this answer, deliberately — a request storm during
                // the outage is then absorbed by the warm path instead of
                // retried per request.
                core.counters.stale_served.fetch_add(1, Ordering::Relaxed);
                Deadline::Answer(response)
            }
            None => Deadline::Answer(EventStream::framed(vec![
                Event::NetType(self.origin),
                Event::ServiceResponse,
                Event::ResErr(408),
            ])),
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

    fn tracker(timeout_ms: u64, stype: Option<&str>) -> QueryTracker {
        let stype = stype.map(Symbol::from);
        QueryTracker::new(SdpProtocol::Slp, stype, 1, Duration::from_millis(timeout_ms), 2)
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
