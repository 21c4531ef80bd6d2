//! Production observability: pipeline trace spans, latency histograms,
//! and the scrapeable stats endpoint.
//!
//! Three submodules, one story:
//!
//! * [`trace`](self) — [`Tracer`]: a lock-free per-lane span ring with
//!   nanosecond timestamps from a [`Clock`] seam ([`SimClock`] under
//!   simulation, [`WallClock`] live), zero allocation on the hot path;
//! * `hist` — [`AtomicHistogram`]/[`LatencyHistogram`]: fixed
//!   log₂-bucket latency histograms recorded per lane and merged at
//!   scrape time;
//! * `export` — the Chrome/Perfetto `trace.json` exporter with its
//!   dependency-free validator, the plaintext stats renderers, and
//!   [`StatsServer`], the `GET /metrics` endpoint built on
//!   `indiss-http`.
//!
//! Instrumented layers: the wire front-end (`netfront.rs`: decode /
//! classify / deliver / reply spans plus per-protocol end-to-end
//! latency), the worker pool (`pool.rs`: per-job spans), the simulation
//! runtime's unit parsers (`runtime.rs`), the query tracker's retries
//! (`tracker.rs`) and the mesh's gossip rounds (`mesh/mod.rs`). Knobs
//! ride [`crate::IndissConfig`] (`trace`, `trace_capacity`,
//! `stats_port`) and the §3 config language's `Trace = { … }` block.
//!
//! Everything is deterministic under [`SimClock`]: two same-seed
//! simulation runs export byte-identical `trace.json` documents, which
//! the bench crate's `baseline_world_trace_export_is_replay_identical`
//! test gates.

mod export;
mod hist;
mod trace;

pub use export::{
    chrome_trace_json, render_interner_gauges, render_tracer, validate_chrome_trace, StatsServer,
};
pub use hist::{bucket_floor, bucket_of, AtomicHistogram, LatencyHistogram, HIST_BUCKETS};
pub use trace::{Clock, Phase, SimClock, SpanSnapshot, Tracer, WallClock, PHASES};
