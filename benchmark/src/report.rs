//! Turning a run's raw observations into named metrics, and printing
//! them: a table for people, one JSON line for the pipeline.

use std::collections::BTreeMap;

use crate::calib::median_at_nominal;
use crate::cold::ColdRun;
use crate::inputs::Workload;
use crate::live::LiveRun;
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::{median, percentile};

/// One workload's results.
pub struct Report {
    pub workload: Workload,
    /// End-to-end metrics, always from the untraced run.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics, filled only on a `--trace` run. One the run did
    /// not produce reads 0: the layer took no part in this workload.
    pub layers: BTreeMap<String, f64>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable context: sample counts, clocks, retries, failures.
    pub notes: Vec<String>,
}

fn ok_share(attempted: u64, failed: u64) -> f64 {
    1.0 - failed as f64 / attempted.max(1) as f64
}

impl Report {
    pub fn from_live(run: &LiveRun) -> Report {
        let (r, hi) = (&run.reference, &run.hi);
        let (raw_p50, windows) = r.raw_p50_us();
        let share = ok_share(run.attempted, run.failed);
        let e2e = BTreeMap::from([
            ("setup_s", median_at_nominal(&run.setup_s, &run.setup_slowdown)),
            ("p50_us", r.p50_us()),
            ("cpu_us_per_req", hi.cpu_us_per_req()),
            ("alloc_bytes_per_req", r.alloc_bytes_per_req()),
            ("ok_share", share),
            ("served_share_hi", hi.served_share()),
            ("peak_rss_mib", run.peak_rss_mib),
        ]);

        let per_k = |o: &crate::live::Observed, counter: &str| {
            o.delta(counter) as f64 * 1e3 / o.result.offered.max(1) as f64
        };
        let share_of = |o: &crate::live::Observed, counter: &str| {
            o.delta(counter) as f64 / o.result.offered.max(1) as f64
        };
        let both = |counter: &str| (r.delta(counter) + hi.delta(counter)) as f64;
        let batches: u64 =
            (0..4).map(|i| hi.delta(&format!("indiss_netfront_recv_batch_bucket_{i}"))).sum();
        let hits = r.delta("indiss_registry_cache_hits") as f64;
        let misses = r.delta("indiss_registry_cache_misses") as f64;
        let lat = r.result.latencies_us();
        let layers = BTreeMap::from(
            [
                ("net.wakeups_per_kreq", per_k(hi, "indiss_netfront_reactor_wakeups")),
                ("net.wakeups_per_kreq_ref", per_k(r, "indiss_netfront_reactor_wakeups")),
                ("net.flushes_per_kreq", per_k(hi, "indiss_netfront_batch_sends_flushed")),
                ("net.eagain_per_kreq", per_k(hi, "indiss_netfront_recv_eagain")),
                (
                    "netfront.batch_mean",
                    hi.delta("indiss_netfront_datagrams_received") as f64 / batches.max(1) as f64,
                ),
                (
                    "netfront.dropped_backpressure",
                    hi.delta("indiss_netfront_dropped_backpressure") as f64,
                ),
                ("netfront.decode_rejected_share", share_of(r, "indiss_netfront_decode_rejected")),
                ("netfront.cold_miss_share", share_of(r, "indiss_netfront_cold_misses")),
                ("registry.cache_hit_ratio", hits / (hits + misses).max(1.0)),
                ("registry.cache_evictions", both("indiss_registry_cache_evictions")),
                ("registry.records_expired", both("indiss_registry_records_expired")),
                ("registry.records_evicted", both("indiss_registry_records_evicted")),
                ("symbol.interned_bytes", run.interned_bytes as f64),
                ("e2e.p99_us", percentile(&lat, 0.99)),
                ("e2e.p999_us", percentile(&lat, 0.999)),
                ("hi.p50_us", hi.raw_p50_us().0),
                ("hi.alloc_bytes_per_req", hi.alloc_bytes_per_req()),
                ("ref.cpu_us_per_req", r.raw_cpu_us_per_req()),
                ("raw.setup_s", median(&run.setup_s)),
                ("raw.p50_us", raw_p50),
                ("raw.cpu_us_per_req", hi.raw_cpu_us_per_req()),
                ("host.slowdown", r.slowdown()),
                ("loadgen.max_late_ms", r.result.max_late_ns as f64 / 1e6),
                ("loadgen.late_share", r.result.late_share()),
                (
                    "host.steal_share",
                    r.result.gateway_steal_ms as f64
                        / 1e3
                        / r.result.elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
                ),
                (
                    "host.runq_wait_share",
                    r.cpu.wait_ns as f64 / (r.cpu.run_ns + r.cpu.wait_ns).max(1) as f64,
                ),
            ]
            .map(|(k, v)| (k.to_owned(), v)),
        );

        let mut notes = vec![
            format!(
                "open loop over host loopback; generator rcvbuf {} KiB; wall clock, timings at \
                 nominal host speed (host ran at {:.3}x the nominal kernel time in ref, {:.3}x in hi)",
                run.rcvbuf / 1024,
                r.slowdown(),
                hi.slowdown()
            ),
            format!(
                "ref {} dgram/s: offered {}, must-answer {}/{}, may-answer {}/{}, p50 over {} \
                 replies in {} slices, generator max late {:.3} ms",
                Workload::REF_RATE,
                r.result.offered,
                r.result.must_answered,
                r.result.must_total,
                r.result.maybe_answered,
                r.result.maybe_total,
                r.result.samples.len(),
                windows,
                r.result.max_late_ns as f64 / 1e6,
            ),
            format!(
                "hi {} dgram/s in bursts of 32: offered {}, gateway received {}, dropped {}, replies {}, \
                 stale replies ignored {}, generator max late {:.3} ms",
                run.input.workload.hi_rate(),
                hi.result.offered,
                hi.delta("indiss_netfront_datagrams_received"),
                hi.result.gateway_lost,
                hi.result.samples.len(),
                r.result.stale + hi.result.stale,
                hi.result.max_late_ns as f64 / 1e6,
            ),
            format!(
                "{} ref + {} hi slices of 0.25 s (latency and CPU per request: median over slices, \
                 allocation: 90th percentile); set-up is the median of {} spawn-and-prime \
                 cycles at nominal host speed ({:.6} s as measured)",
                r.slices(),
                hi.slices(),
                run.setup_s.len(),
                median(&run.setup_s)
            ),
        ];
        if r.retries > 0 {
            notes.push(format!(
                "{} ref slices re-run (host stalled the generator or the gateway)",
                r.retries
            ));
        }
        notes.extend(run.problems.iter().map(|p| format!("PROBLEM {p}")));
        Report {
            workload: run.input.workload,
            e2e,
            layers,
            // Contradicting the model fails the run outright. So does any
            // loss on `warm_hit`, whose every request is a certain cache
            // hit at a tenth of what the gateway serves; elsewhere losses
            // that survived the slice re-runs are tolerated up to
            // `ok_share`'s bound.
            correct: !run.contradicted
                && match run.input.workload {
                    Workload::WarmHit => run.failed == 0,
                    _ => 1.0 - share <= 0.005,
                },
            attempted: run.attempted,
            failed: run.failed,
            notes,
        }
    }

    pub fn from_cold(run: &ColdRun) -> Report {
        let (r, hi) = (&run.reference, &run.hi);
        let discoveries = r.discoveries + hi.discoveries;
        let failed = r.wrong + hi.wrong;
        let e2e = BTreeMap::from([
            ("setup_s", median_at_nominal(&run.setup_s, &run.setup_slowdown)),
            // Wall-clock service time of one cold discovery, alone on the LAN.
            ("p50_us", r.round_us()),
            ("cpu_us_per_req", hi.cpu_us_per_discovery()),
            ("alloc_bytes_per_req", r.alloc_bytes_per_discovery()),
            ("ok_share", ok_share(discoveries, failed)),
            ("served_share_hi", ok_share(hi.discoveries, hi.wrong)),
            ("peak_rss_mib", run.peak_rss_mib),
        ]);
        let layers = BTreeMap::from(
            [
                ("sim.virtual_rt_ms", median(&r.virtual_rt_ms)),
                ("ref.cpu_us_per_req", r.raw_cpu_us_per_discovery()),
                ("raw.setup_s", median(&run.setup_s)),
                ("raw.p50_us", r.raw_round_us()),
                ("raw.cpu_us_per_req", hi.raw_cpu_us_per_discovery()),
                ("host.slowdown", r.slowdown()),
            ]
            .map(|(k, v)| (k.to_owned(), v)),
        );
        let mut notes = vec![
            format!(
                "closed loop on the virtual-time simulator; CPU/latency in wall clock at nominal \
                 host speed (host ran at {:.3}x the nominal kernel time in ref, {:.3}x in hi), \
                 sim.virtual_rt_ms in virtual time",
                r.slowdown(),
                hi.slowdown()
            ),
            format!(
                "ref (1 client, SLP->UPnP): {} discoveries, virtual rt median {:.3} ms over {}",
                r.discoveries,
                median(&r.virtual_rt_ms),
                r.virtual_rt_ms.len()
            ),
            format!(
                "hi (16 clients, 6 directions): {} discoveries in {} rounds",
                hi.discoveries, hi.rounds
            ),
            format!(
                "a fresh world per fixed-work slice ({} ref + {} hi slices measured); timings \
                 are the median over slices, set-up over {} world builds ({:.6} s as measured)",
                r.slices(),
                hi.slices(),
                run.setup_s.len(),
                median(&run.setup_s)
            ),
        ];
        notes.extend(run.problems.iter().map(|p| format!("PROBLEM {p}")));
        Report {
            workload: Workload::ColdBridge,
            e2e,
            layers,
            correct: run.problems.is_empty(),
            attempted: discoveries,
            failed,
            notes,
        }
    }

    /// The report as lines, for a `cold` child to hand to its parent.
    pub fn to_lines(&self) -> String {
        let mut out = format!("result {} {} {}\n", self.correct, self.attempted, self.failed);
        for (name, value) in &self.e2e {
            out.push_str(&format!("e2e {name} {value}\n"));
        }
        for (name, value) in &self.layers {
            out.push_str(&format!("layer {name} {value}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("note {note}\n"));
        }
        out
    }

    /// Reads [`Report::to_lines`] back; `None` when a line is not one of
    /// those or an end-to-end metric is missing.
    pub fn from_lines(workload: Workload, text: &str) -> Option<Report> {
        let mut report = Report {
            workload,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            correct: false,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        };
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ')?;
            let mut words = rest.split(' ');
            match kind {
                "result" => {
                    report.correct = words.next()?.parse().ok()?;
                    report.attempted = words.next()?.parse().ok()?;
                    report.failed = words.next()?.parse().ok()?;
                }
                "e2e" => {
                    let name = words.next()?;
                    let metric = END_TO_END.iter().find(|m| m.name == name)?;
                    report.e2e.insert(metric.name, words.next()?.parse().ok()?);
                }
                "layer" => {
                    report.layers.insert(words.next()?.to_owned(), words.next()?.parse().ok()?);
                }
                "note" => report.notes.push(rest.to_owned()),
                _ => return None,
            }
        }
        (report.e2e.len() == END_TO_END.len()).then_some(report)
    }

    /// The table for people.
    pub fn print(&self, traced: bool) {
        println!("== {} ==", self.workload.name());
        for note in &self.notes {
            println!("   {note}");
        }
        for m in &END_TO_END {
            println!(
                "{:<14}{:<34}{:>16.4} {}",
                self.workload.name(),
                m.name,
                self.e2e[m.name],
                m.unit
            );
        }
        if traced {
            for (name, unit, _) in per_layer() {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                println!("{:<14}{:<34}{:>16.4} {}", self.workload.name(), name, v, unit);
            }
        }
    }

    /// The pipeline's result line: end-to-end metrics of an untraced
    /// run, per-layer metrics of a traced one.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            per_layer()
                .iter()
                .map(|(n, u, _)| metric_json(n, self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END.iter().map(|m| metric_json(m.name, self.e2e[m.name], m.unit)).collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // `{}` prints the shortest decimal that round-trips: every digit
    // measured, no rounding. A non-finite value would not be JSON.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}
