//! Request-storm benchmark: N clients hammering one gateway with mixed
//! hit/miss/absent-type queries across all four SDPs (SLP, UPnP, Jini
//! and the descriptor-driven DNS-SD protocol), the pure event-pipeline
//! allocation metric the zero-copy refactor is judged by, and the
//! multi-threaded warm-hit scaling curve the sharded registry is judged
//! by (1/2/4/8 workers over a 16-shard registry; ≥2× throughput at 4
//! workers vs 1 and ≥1.5× at 8 vs 4 are the gates).
//!
//! Emits `BENCH_storm.json` for the perf trajectory. Pass `--smoke` for
//! the small CI configuration, `--workers N` to cap the scaling curve's
//! largest point, and `--udp` to additionally measure the real-socket
//! row: the batched I/O engine's saturation storm over a loopback
//! `BatchedTransport` gateway (≥100k warm hits/s is the full-mode
//! gate). It skips with a log line when the environment forbids
//! binding. Pass
//! `--hostile` for the hostile-world row: a fault-injected sim gateway
//! (10% drop + 10% reorder both directions) gated on ≥80% warm-hit
//! delivery through the client's retransmit state machine and on a
//! bit-identical same-seed replay. Pass `--mesh` for the federated-mesh
//! row: a full gateway mesh gossiping over one sim bus, gated on
//! two-round digest convergence, on every foreign record being served
//! as a warm remote cache hit, and on an identical same-seed replay.
//! Pass `--worlds` for the scenario matrix: every declarative `World`
//! (churn at ≥1000 nodes, mobility under a scheduled link cut,
//! adversarial injection, million-record soak) runs twice and is gated
//! on a bit-identical replay digest; in full mode the worlds'
//! declared `Assert MinDeliveryPct` floors are enforced as well.
//! Pass `--trace` for the observability row: the warm-hit storm runs
//! with the span tracer off and on (interleaved, best-of-N), gated on
//! tracing-on throughput ≥95% of tracing-off; the traced run's
//! Chrome/Perfetto export is validated (well-formed, timestamps
//! non-decreasing) and written to `trace.json`, and a same-seed world
//! pair must export byte-identical traces.

use std::time::Duration;

use indiss_bench::scenarios::{
    hostile_world, mesh_convergence, request_storm, trace_overhead, udp_batched_storm,
    warm_hit_pipeline_bytes, warm_hit_scaling,
};
use indiss_bench::worlds;

/// Bytes of allocator traffic per warm-hit bridged request measured on
/// the event pipeline *before* the zero-copy refactor (deep-cloned
/// `Vec<Event>` streams, string-keyed registry, per-event FSM command
/// vectors), captured with the same `warm_hit_pipeline_bytes` probe at
/// 10k iterations. The acceptance bar is ≥ 5× fewer bytes than this.
const PRE_REFACTOR_PIPELINE_BYTES_PER_REQUEST: u64 = 3399;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let udp = args.iter().any(|a| a == "--udp");
    let hostile = args.iter().any(|a| a == "--hostile");
    let mesh = args.iter().any(|a| a == "--mesh");
    let run_worlds = args.iter().any(|a| a == "--worlds");
    let trace = args.iter().any(|a| a == "--trace");
    let max_workers: usize = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let (clients, rounds, pipeline_iters) = if smoke { (4, 6, 5_000) } else { (16, 20, 50_000) };
    let (scaling_requests, scaling_types, io_wait) = if smoke {
        (1_200u64, 32, Duration::from_micros(100))
    } else {
        (4_000u64, 64, Duration::from_micros(150))
    };

    let pipeline_bytes = warm_hit_pipeline_bytes(pipeline_iters);
    let outcome = request_storm(7, clients, rounds);

    // The payoff curve: the same warm-hit pipeline across worker counts
    // over the sharded registry (per-request io_wait models the
    // synchronous reply transmit; see `warm_hit_scaling`).
    let mut worker_points: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|w| *w <= max_workers).collect();
    if !worker_points.contains(&max_workers) {
        worker_points.push(max_workers);
    }
    // Best of N trials per point: one trial is one scheduler roll, and
    // on a small host a single unlucky preemption window can shave
    // 10-15% off a point — the curve gates capability, not luck.
    let scaling_trials = if smoke { 1 } else { 3 };
    let scaling: Vec<indiss_bench::scenarios::ScalingPoint> = worker_points
        .iter()
        .map(|&w| {
            (0..scaling_trials)
                .map(|_| warm_hit_scaling(w, scaling_requests, scaling_types, io_wait))
                .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
                .expect("at least one scaling trial")
        })
        .collect();
    for point in &scaling {
        assert_eq!(point.cache_hits, point.requests, "scaling storm must be all-warm");
    }
    let rps_at = |w: usize| scaling.iter().find(|p| p.workers == w).map(|p| p.throughput_rps);
    let speedup_4v1 = match (rps_at(1), rps_at(4)) {
        (Some(one), Some(four)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    let speedup_8v4 = match (rps_at(4), rps_at(8)) {
        (Some(four), Some(eight)) if four > 0.0 => Some(eight / four),
        _ => None,
    };
    let ratio = PRE_REFACTOR_PIPELINE_BYTES_PER_REQUEST as f64 / pipeline_bytes.max(1) as f64;
    let p50_us = outcome.warm_hit_p50.map(|d| d.as_secs_f64() * 1e6).unwrap_or(f64::NAN);
    let p99_us = outcome.warm_hit_p99.map(|d| d.as_secs_f64() * 1e6).unwrap_or(f64::NAN);

    println!("request_storm ({clients} clients x {rounds} rounds, all four SDPs)");
    println!("  requests sent                 {}", outcome.requests_sent);
    println!("  warm-hit p50 / p99            {p50_us:.1} us / {p99_us:.1} us");
    println!("  cache hits                    {}", outcome.cache_hits);
    println!("  negative hits                 {}", outcome.negative_hits);
    println!("  requests bridged (fan-outs)   {}", outcome.requests_bridged);
    println!("  requests suppressed           {}", outcome.requests_suppressed);
    println!("  storm bytes allocated         {}", outcome.storm_bytes_allocated);
    println!("  storm bytes / request         {}", outcome.storm_bytes_per_request);
    println!("pipeline (parse -> cache answer -> deliver, per warm-hit request)");
    println!("  baseline (pre-refactor)       {PRE_REFACTOR_PIPELINE_BYTES_PER_REQUEST} B");
    println!("  current                       {pipeline_bytes} B");
    println!("  reduction                     {ratio:.1}x");
    println!(
        "threaded warm-hit scaling ({scaling_requests} reqs x {scaling_types} types, \
         16 shards, {}us io-wait per request)",
        io_wait.as_micros()
    );
    for point in &scaling {
        let base = rps_at(1).unwrap_or(point.throughput_rps);
        println!(
            "  {:>2} workers                    {:>10.0} req/s  ({:.2}x, {:?})",
            point.workers,
            point.throughput_rps,
            point.throughput_rps / base,
            point.elapsed,
        );
    }

    // The batched I/O engine under saturation (loopback
    // BatchedTransport gateway: epoll reactor + recvmmsg/sendmmsg).
    let (batched_requests, batched_types) = if smoke { (2_000u64, 16) } else { (200_000u64, 64) };
    let batched_outcome =
        if udp { udp_batched_storm(batched_requests, batched_types, 26_500) } else { None };
    if udp {
        match &batched_outcome {
            Some(o) => {
                let batches = o.io.recv_batches().max(1);
                println!(
                    "batched-engine warm-hit storm ({} reqs x {} types, loopback, \
                     window 512 / burst 64)",
                    o.requests, batched_types
                );
                println!("  replies received              {}", o.replies);
                println!("  delivered throughput          {:.0} req/s", o.throughput_rps);
                println!(
                    "  reactor wakeups / batches     {} / {}  (hist {:?})",
                    o.io.reactor_wakeups, batches, o.io.recv_batch_hist
                );
                println!(
                    "  batch flushes / eagain        {} / {}",
                    o.io.batch_sends_flushed, o.io.recv_eagain
                );
                assert!(
                    o.replies * 100 >= o.requests * 80,
                    "batched storm lost too many replies: {}/{}",
                    o.replies,
                    o.requests
                );
                if !smoke {
                    assert!(
                        o.throughput_rps >= 100_000.0,
                        "batched-engine regression: {:.0} req/s delivered \
                         (gate: >= 100k warm hits/s on loopback)",
                        o.throughput_rps
                    );
                }
            }
            None => println!("batched-engine storm: SKIPPED (environment forbids loopback bind)"),
        }
    }

    // The hostile-world row: the robustness layer's payoff gate. A
    // fault-injected sim gateway (10% drop + 10% reorder, both
    // directions) must still deliver >= 80% of warm hits through the
    // client's retransmit state machine, and the same seed must replay
    // the identical fault stream bit for bit.
    let (hostile_requests, hostile_types) = if smoke { (48u64, 8) } else { (160u64, 8) };
    let hostile_outcome = if hostile {
        let first = hostile_world(1905, hostile_requests, hostile_types);
        let replay = hostile_world(1905, hostile_requests, hostile_types);
        println!(
            "hostile-world storm ({} reqs x {} types, 10% drop + 10% reorder both ways)",
            first.requests, hostile_types
        );
        println!(
            "  delivered                     {} / {}  ({:.1}%)",
            first.delivered,
            first.requests,
            first.delivery_rate * 100.0
        );
        println!("  retransmits issued            {}", first.retransmits);
        println!("  datagrams heard               {}", first.datagrams_heard);
        println!(
            "  faults injected               drop {} / reorder {}",
            first.faults.dropped, first.faults.reordered
        );
        println!("  replay digest                 {:#018X}", first.digest);
        assert!(
            first.delivery_rate >= 0.80,
            "hostile-world regression: {:.1}% warm-hit delivery under 10% loss + reorder \
             (gate: >= 80%)",
            first.delivery_rate * 100.0
        );
        assert_eq!(
            (first.digest, first.datagrams_heard, first.faults),
            (replay.digest, replay.datagrams_heard, replay.faults),
            "hostile-world replay diverged: the fault plan must be a pure function of its seed"
        );
        assert!(first.faults.dropped > 0, "hostile plan must actually drop: {:?}", first.faults);
        assert!(
            first.faults.reordered > 0,
            "hostile plan must actually reorder: {:?}",
            first.faults
        );
        Some(first)
    } else {
        None
    };

    // The mesh row: the federated-gateway convergence gate. A full
    // mesh over one sim bus must agree on a single registry digest
    // within two gossip rounds, serve every foreign record as a warm
    // *remote* cache hit (no re-fan-out), and replay identically from
    // the same seed.
    let (mesh_gateways, mesh_records) = if smoke { (5usize, 10u64) } else { (10usize, 40u64) };
    let mesh_outcome = if mesh {
        let first = mesh_convergence(1905, mesh_gateways, mesh_records);
        let replay = mesh_convergence(1905, mesh_gateways, mesh_records);
        println!(
            "mesh convergence ({} gateways full mesh, {} records round-robin)",
            first.gateways, first.records
        );
        println!("  rounds to converge            {}", first.rounds_to_converge);
        println!(
            "  remote hits                   {} / {}",
            first.remote_hits, first.expected_remote_hits
        );
        println!("  records applied mesh-wide     {}", first.records_applied);
        println!("  registry digest               {:#018X}", first.digest);
        assert!(first.converged, "mesh failed to converge within the round cap");
        assert!(
            first.rounds_to_converge <= 2,
            "mesh convergence regression: {} rounds to one digest (gate: <= 2 on a quiet bus)",
            first.rounds_to_converge
        );
        assert_eq!(
            first.remote_hits, first.expected_remote_hits,
            "every foreign record must be a warm remote hit"
        );
        assert_eq!(
            first.records_applied, first.expected_remote_hits,
            "each foreign record applies exactly once per gateway"
        );
        assert_eq!(
            first, replay,
            "mesh replay diverged: the scenario must be a pure function of its seed"
        );
        Some(first)
    } else {
        None
    };

    // The scenario matrix: every declarative hostile world, run twice.
    // The replay-digest gate is the whole point — a world is a pure
    // function of its seed, so the second run must reproduce the first
    // bit for bit. Delivery floors are declared in the worlds' own
    // `Assert` blocks and enforced in full mode only (smoke durations
    // are too short for the floors to be meaningful).
    let world_outcomes = if run_worlds {
        let matrix = worlds::matrix(smoke);
        let mut rows = Vec::with_capacity(matrix.len());
        println!("scenario matrix ({} worlds, each run twice)", matrix.len());
        for w in &matrix {
            let first = worlds::run_world(w.name, &w.spec, !smoke);
            let replay = worlds::run_world(w.name, &w.spec, !smoke);
            assert_eq!(
                first.digest, replay.digest,
                "world '{}' replay diverged: a world must be a pure function of its seed",
                w.name
            );
            assert_eq!(first.probes_delivered, replay.probes_delivered);
            assert_eq!(first.faults, replay.faults);
            println!(
                "  {:<20} {:>5} nodes  delivery {:>5.1}%  converged in {:>2} rounds  \
                 faults {:>5}  digest {:#018X}",
                first.name,
                first.nodes,
                first.delivery_pct,
                first.convergence_rounds,
                first.faults.total(),
                first.digest,
            );
            assert!(first.converged, "world '{}' failed to converge", w.name);
            rows.push(first);
        }
        rows
    } else {
        Vec::new()
    };

    // The observability row: tracing-on vs tracing-off warm-hit
    // throughput (the layer's zero-allocation claim, measured), plus
    // the exported trace validated and — via a same-seed world pair —
    // proven byte-identical on replay.
    let (trace_requests, trace_rounds) = if smoke { (30_000u64, 5) } else { (120_000u64, 3) };
    let trace_outcome = if trace {
        let o = trace_overhead(max_workers.min(4), trace_requests, trace_rounds);
        println!(
            "tracing overhead ({} reqs, {} workers, best of {} interleaved off/on pairs)",
            o.requests,
            max_workers.min(4),
            trace_rounds
        );
        println!("  tracing off                   {:>10.0} req/s", o.baseline_rps);
        println!("  tracing on                    {:>10.0} req/s", o.traced_rps);
        println!("  on/off ratio                  {:.3}  (gate: >= 0.95)", o.ratio);
        println!(
            "  spans recorded / dropped      {} / {}  ({} exported events)",
            o.spans_recorded, o.spans_dropped, o.trace_events
        );
        std::fs::write("trace.json", &o.trace_json).expect("write trace.json");
        println!("  wrote trace.json ({} bytes, validated)", o.trace_json.len());
        assert!(
            o.ratio >= 0.95,
            "observability regression: tracing-on warm-hit throughput is only {:.1}% of \
             tracing-off (gate: >= 95%)",
            o.ratio * 100.0
        );

        // Replay-identical export: the same seeded world must produce
        // the same trace.json byte for byte.
        let matrix = worlds::matrix(true);
        let baseline = matrix.iter().find(|w| w.name == "baseline_quiet").expect("baseline world");
        let first = worlds::run_world(baseline.name, &baseline.spec, false);
        let replay = worlds::run_world(baseline.name, &baseline.spec, false);
        assert_eq!(
            first.trace_json, replay.trace_json,
            "trace export diverged across same-seed world replays"
        );
        let world_events = indiss_core::validate_chrome_trace(&first.trace_json)
            .expect("world trace export validates");
        println!("  sim world export              {} events, byte-identical replay", world_events);
        Some(o)
    } else {
        None
    };

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{ \"workers\": {}, \"requests\": {}, \"elapsed_us\": {:.0}, ",
                    "\"throughput_rps\": {:.1} }}"
                ),
                p.workers,
                p.requests,
                p.elapsed.as_secs_f64() * 1e6,
                p.throughput_rps,
            )
        })
        .collect();
    // The real-socket row: an object when measured, `null` when the
    // mode was off or the environment forbade binding (so downstream
    // JSON consumers can distinguish "not run" without parse errors).
    let batched_json = match &batched_outcome {
        Some(o) => format!(
            concat!(
                "{{ \"requests\": {}, \"replies\": {}, \"elapsed_us\": {:.0}, ",
                "\"throughput_rps\": {:.1}, \"reactor_wakeups\": {}, ",
                "\"recv_batch_hist\": [{}, {}, {}, {}], ",
                "\"batch_sends_flushed\": {}, \"recv_eagain\": {} }}"
            ),
            o.requests,
            o.replies,
            o.elapsed.as_secs_f64() * 1e6,
            o.throughput_rps,
            o.io.reactor_wakeups,
            o.io.recv_batch_hist[0],
            o.io.recv_batch_hist[1],
            o.io.recv_batch_hist[2],
            o.io.recv_batch_hist[3],
            o.io.batch_sends_flushed,
            o.io.recv_eagain,
        ),
        None => "null".to_owned(),
    };
    let hostile_json = match &hostile_outcome {
        Some(o) => format!(
            concat!(
                "{{ \"requests\": {}, \"delivered\": {}, \"delivery_rate\": {:.4}, ",
                "\"retransmits\": {}, \"datagrams_heard\": {}, \"digest\": \"{:#018X}\", ",
                "\"faults_dropped\": {}, \"faults_reordered\": {} }}"
            ),
            o.requests,
            o.delivered,
            o.delivery_rate,
            o.retransmits,
            o.datagrams_heard,
            o.digest,
            o.faults.dropped,
            o.faults.reordered,
        ),
        None => "null".to_owned(),
    };
    let mesh_json = match &mesh_outcome {
        Some(o) => format!(
            concat!(
                "{{ \"gateways\": {}, \"records\": {}, \"rounds_to_converge\": {}, ",
                "\"remote_hits\": {}, \"expected_remote_hits\": {}, ",
                "\"records_applied\": {}, \"digest\": \"{:#018X}\" }}"
            ),
            o.gateways,
            o.records,
            o.rounds_to_converge,
            o.remote_hits,
            o.expected_remote_hits,
            o.records_applied,
            o.digest,
        ),
        None => "null".to_owned(),
    };
    let trace_json_row = match &trace_outcome {
        Some(o) => format!(
            concat!(
                "{{ \"requests\": {}, \"baseline_rps\": {:.1}, \"traced_rps\": {:.1}, ",
                "\"ratio\": {:.4}, \"spans_recorded\": {}, \"spans_dropped\": {}, ",
                "\"trace_events\": {} }}"
            ),
            o.requests,
            o.baseline_rps,
            o.traced_rps,
            o.ratio,
            o.spans_recorded,
            o.spans_dropped,
            o.trace_events,
        ),
        None => "null".to_owned(),
    };
    let worlds_json = if world_outcomes.is_empty() {
        "null".to_owned()
    } else {
        let rows: Vec<String> = world_outcomes
            .iter()
            .map(|o| {
                format!(
                    concat!(
                        "    {{ \"world\": \"{}\", \"nodes\": {}, \"gateways\": {}, ",
                        "\"services\": {}, \"ticks\": {}, \"adverts\": {}, ",
                        "\"probes_issued\": {}, \"probes_delivered\": {}, ",
                        "\"delivery_pct\": {:.2}, \"convergence_rounds\": {}, ",
                        "\"injected\": {}, \"frames_rejected\": {}, ",
                        "\"faults_total\": {}, \"faults_time_partitioned\": {}, ",
                        "\"peak_records\": {}, \"peak_custody\": {}, ",
                        "\"peak_tracker\": {}, \"soak_records\": {}, ",
                        "\"within_memory_budget\": {}, \"replay_digest\": \"{:#018X}\" }}"
                    ),
                    o.name,
                    o.nodes,
                    o.gateways,
                    o.services,
                    o.ticks,
                    o.adverts_sent,
                    o.probes_issued,
                    o.probes_delivered,
                    o.delivery_pct,
                    o.convergence_rounds,
                    o.injected,
                    o.frames_rejected,
                    o.faults.total(),
                    o.faults.time_partitioned,
                    o.peak_records,
                    o.peak_custody,
                    o.peak_tracker,
                    o.soak_records,
                    o.within_memory_budget,
                    o.digest,
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"request_storm\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"protocols\": 4,\n",
            "  \"clients\": {clients},\n",
            "  \"rounds\": {rounds},\n",
            "  \"requests_sent\": {requests_sent},\n",
            "  \"warm_hit_p50_us\": {p50_us:.2},\n",
            "  \"warm_hit_p99_us\": {p99_us:.2},\n",
            "  \"cache_hits\": {cache_hits},\n",
            "  \"negative_hits\": {negative_hits},\n",
            "  \"requests_bridged\": {requests_bridged},\n",
            "  \"requests_suppressed\": {requests_suppressed},\n",
            "  \"storm_bytes_allocated\": {storm_bytes},\n",
            "  \"storm_bytes_per_request\": {storm_bpr},\n",
            "  \"pipeline_bytes_per_request_baseline\": {baseline},\n",
            "  \"pipeline_bytes_per_request\": {pipeline},\n",
            "  \"pipeline_reduction_factor\": {ratio:.2},\n",
            "  \"scaling_io_wait_us\": {io_wait_us},\n",
            "  \"scaling_distinct_types\": {scaling_types},\n",
            "  \"scaling_registry_shards\": 16,\n",
            "  \"scaling\": [\n{scaling_points}\n  ],\n",
            "  \"throughput_speedup_4_workers_vs_1\": {speedup},\n",
            "  \"throughput_speedup_8_workers_vs_4\": {speedup8},\n",
            "  \"udp_batched\": {batched_row},\n",
            "  \"hostile_world\": {hostile_row},\n",
            "  \"mesh_convergence\": {mesh_row},\n",
            "  \"trace_overhead\": {trace_row},\n",
            "  \"scenario_matrix\": {worlds_rows}\n",
            "}}\n",
        ),
        smoke = smoke,
        clients = clients,
        rounds = rounds,
        requests_sent = outcome.requests_sent,
        p50_us = p50_us,
        p99_us = p99_us,
        cache_hits = outcome.cache_hits,
        negative_hits = outcome.negative_hits,
        requests_bridged = outcome.requests_bridged,
        requests_suppressed = outcome.requests_suppressed,
        storm_bytes = outcome.storm_bytes_allocated,
        storm_bpr = outcome.storm_bytes_per_request,
        baseline = PRE_REFACTOR_PIPELINE_BYTES_PER_REQUEST,
        pipeline = pipeline_bytes,
        ratio = ratio,
        io_wait_us = io_wait.as_micros(),
        scaling_types = scaling_types,
        scaling_points = scaling_json.join(",\n"),
        // `null`, not NaN: NaN is not a JSON token and would make the
        // uploaded artifact unparseable when the curve stops below 4.
        speedup = speedup_4v1.map_or("null".to_owned(), |s| format!("{s:.2}")),
        speedup8 = speedup_8v4.map_or("null".to_owned(), |s| format!("{s:.2}")),
        batched_row = batched_json,
        hostile_row = hostile_json,
        mesh_row = mesh_json,
        trace_row = trace_json_row,
        worlds_rows = worlds_json,
    );
    std::fs::write("BENCH_storm.json", &json).expect("write BENCH_storm.json");
    println!("\nwrote BENCH_storm.json");

    assert!(
        ratio >= 5.0,
        "pipeline regression: {pipeline_bytes} B/request is less than 5x below the \
         {PRE_REFACTOR_PIPELINE_BYTES_PER_REQUEST} B baseline"
    );
    if let Some(speedup) = speedup_4v1 {
        assert!(
            speedup >= 2.0,
            "scaling regression: 4 workers deliver only {speedup:.2}x the 1-worker \
             warm-hit throughput (gate: >= 2x)"
        );
    }
    if let Some(speedup) = speedup_8v4 {
        assert!(
            speedup >= 1.5,
            "scaling regression: 8 workers deliver only {speedup:.2}x the 4-worker \
             warm-hit throughput (gate: >= 1.5x)"
        );
    }
}
