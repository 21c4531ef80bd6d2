//! The INDISS gateway benchmark.
//!
//! One command runs every workload, validates every output against a
//! reference model, and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! ```
//!
//! Three *live* workloads (`warm_hit`, `advert_churn`, `mixed_miss`)
//! re-execute this binary as a gateway child process and load it over
//! loopback UDP from a single-threaded open-loop generator; one *sim*
//! workload (`cold_bridge`) runs the cold-path translation on the
//! virtual-time simulator, in a child process of its own as well.
//! `--trace` adds the per-layer view: counters scraped from the gateway,
//! micro-benchmarks around each layer's public calls, and an in-process
//! traced replay of the workload's inputs.
//! See `benchmark/README.md` for the metric and workload tables.

mod alloc;
mod calib;
mod cold;
mod inputs;
mod layers;
mod live;
mod loadgen;
mod metrics;
mod procfs;
mod pubapi;
mod report;
mod rng;
mod selftest;
mod serve;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use inputs::Workload;
use report::Report;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How long and how often one workload run does things.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Measured seconds: half `ref` phase, half `hi` phase.
    pub seconds: f64,
    /// Discarded warm-up before the measured phases.
    pub warmup_s: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    plan: Plan,
    trace: bool,
    repeat: usize,
    curve: bool,
}

const USAGE: &str = "usage: indiss-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--repeat N] [--curve] [--selftest] [--print-manifest]
workloads: warm_hit advert_churn mixed_miss cold_bridge (default: all)";

enum Mode {
    Run(Args),
    Serve { offset_base: u16, cpus: Vec<usize> },
    Cold { seed: u64, plan: Plan },
    SelfTest,
    Manifest,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("serve") {
        // Internal role, spawned by `live::Gateway`: `serve --offset-base N --cpus a,b`.
        return match args.get(1..) {
            Some([base_flag, base, cpus_flag, cpus])
                if base_flag == "--offset-base" && cpus_flag == "--cpus" =>
            {
                let offset_base = base.parse().map_err(|e| format!("--offset-base: {e}"))?;
                let cpus = cpus.split(',').filter_map(|c| c.parse().ok()).collect();
                Ok(Mode::Serve { offset_base, cpus })
            }
            _ => Err("serve needs --offset-base N --cpus LIST".to_owned()),
        };
    }
    if args.first().map(String::as_str) == Some("cold") {
        // Internal role, spawned by `cold::run_in_child`: `cold SEED SECONDS WARMUP`.
        let number = |i: usize| args.get(i).and_then(|a| a.parse::<f64>().ok());
        return match (args.get(1).and_then(|a| a.parse().ok()), number(2), number(3)) {
            (Some(seed), Some(seconds), Some(warmup_s)) if args.len() == 4 => {
                Ok(Mode::Cold { seed, plan: Plan { seconds, warmup_s, setup_reps: 0 } })
            }
            _ => Err("cold needs SEED SECONDS WARMUP".to_owned()),
        };
    }
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        plan: Plan { seconds: f64::from(metrics::RUN_SECONDS), warmup_s: 2.0, setup_reps: 15 },
        trace: false,
        repeat: 1,
        curve: false,
    };
    let mut it = args.iter().peekable();
    let mut smoke = false;
    while let Some(arg) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
                out.workloads = vec![w];
            }
            "--seed" => {
                out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.plan.seconds = value("seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.2..=600.0).contains(s))
                    .ok_or("--seconds: a number from 0.2 to 600")?;
            }
            "--repeat" => {
                out.repeat = value("a count")?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat: a count from 1 to 100")?;
            }
            // `--trace` alone switches tracing on; the pipeline passes 0 or 1.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--curve" => out.curve = true,
            "--selftest" => return Ok(Mode::SelfTest),
            "--print-manifest" => return Ok(Mode::Manifest),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if smoke {
        // ≤ 15 s for all four workloads: 1 s phases, one set-up each.
        out.plan = Plan { seconds: 2.0, warmup_s: 0.3, setup_reps: 1 };
    }
    Ok(Mode::Run(out))
}

/// Runs one workload once: the untraced end-to-end run, then — on a
/// traced run — the per-layer passes over the same generated inputs.
fn run_workload(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
) -> Result<(Report, Option<trace::TracedRun>), String> {
    let mut report = match workload {
        Workload::ColdBridge => cold::run_in_child(seed, plan)?,
        live => Report::from_live(&live::run(live, seed, plan)?),
    };
    if !traced {
        return Ok((report, None));
    }
    report.layers.extend(layers::measure(workload, seed)?);
    let mut traced_run = trace::run(workload, seed, report.layers["ref.cpu_us_per_req"])?;
    report.layers.append(&mut traced_run.metrics);
    report.notes.append(&mut traced_run.notes);
    Ok((report, Some(traced_run)))
}

/// Where `trace.json` goes: into the benchmark's own directory when the
/// command runs from the repository root (as documented), else beside
/// the caller.
fn trace_path() -> &'static str {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/trace.json"
    } else {
        "trace.json"
    }
}

/// `--repeat N`: N sets of runs, then per metric and workload the
/// median, quartiles and (max − min)/median, judged against the bound.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut sets: Vec<Vec<Report>> = Vec::new();
    for set in 0..args.repeat {
        println!("--- set {} of {} (seed {}) ---", set + 1, args.repeat, args.seed + set as u64);
        let mut reports = Vec::new();
        for w in &args.workloads {
            let (report, _) = run_workload(*w, args.seed + set as u64, &args.plan, false)?;
            report.print(false);
            all_ok &= report.correct;
            reports.push(report);
        }
        sets.push(reports);
    }
    println!("--- spread over {} sets ---", args.repeat);
    println!(
        "{:<14}{:<22}{:>12}{:>12}{:>12}{:>10}{:>8}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (i, w) in args.workloads.iter().enumerate() {
        for m in &metrics::END_TO_END {
            let values: Vec<f64> = sets.iter().map(|s| s[i].e2e[m.name]).collect();
            let med = stats::median(&values);
            let (q1, q3) = if values.len() >= 2 { stats::quartiles(&values) } else { (med, med) };
            let (min, max) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let spread = (max - min) / med.abs().max(f64::MIN_POSITIVE);
            let within = spread <= m.bound;
            all_ok &= within;
            println!(
                "{:<14}{:<22}{:>12.4}{:>12.4}{:>12.4}{:>10.4}{:>8.3}{}",
                w.name(),
                m.name,
                med,
                q1,
                q3,
                spread,
                m.bound,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    Ok(all_ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.repeat > 1 {
        return repeat(args);
    }
    let mut all_ok = true;
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for w in &args.workloads {
        let (report, traced) = run_workload(*w, args.seed, &args.plan, args.trace)?;
        report.print(args.trace);
        all_ok &= report.correct;
        reports.push(report);
        traces.extend(traced);
    }
    if args.trace {
        let events = trace::write_trace_json(trace_path(), &traces)?;
        println!("wrote {} ({events} spans, Chrome trace format, validated)", trace_path());
    }
    if args.curve {
        live::curve(args.seed)?;
    }
    // Last line: the machine-readable result. One workload prints the
    // pipeline's object; several print one object per workload.
    match reports.as_slice() {
        [one] => println!("{}", one.json(args.trace)),
        many => {
            let parts: Vec<String> = many
                .iter()
                .map(|r| format!("\"{}\": {}", r.workload.name(), r.json(args.trace)))
                .collect();
            println!("{{{}}}", parts.join(", "));
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Mode::Serve { offset_base, cpus }) => {
            serve::run(offset_base, &cpus).map(|()| true).map_err(|e| e.to_string())
        }
        Ok(Mode::Cold { seed, plan }) => cold::run(seed, &plan).map(|run| {
            print!("{}", Report::from_cold(&run).to_lines());
            true
        }),
        Ok(Mode::SelfTest) => selftest::run(),
        Ok(Mode::Manifest) => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Ok(Mode::Run(args)) => run(&args),
        Err(usage) => Err(usage),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: validation failed (see PROBLEM lines above)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
