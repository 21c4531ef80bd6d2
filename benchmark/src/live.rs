//! The three live workloads: a gateway child process on loopback
//! sockets, primed and driven only through the wire, observed only from
//! outside (reply bytes, `GET /metrics` deltas, `/proc`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::calib::{median_at_nominal, KeepAwake, Slowdown, Speedometer};
use crate::inputs::{Expect, LiveInput, Op, Wire, Workload};
use crate::loadgen::{self, PhaseResult, Schedule};
use crate::procfs::{self, CpuSample, Scrape};
use crate::stats::median;
use crate::sys::CpuSplit;
use crate::Plan;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The gateway child process. Killed and reaped on drop, so no exit path
/// of the benchmark leaves it behind.
pub struct Gateway {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// SLP, SSDP and DNS-SD channel addresses, in [`crate::inputs::Port`]
    /// order.
    pub dest: [SocketAddr; 3],
    stats: SocketAddr,
}

impl Gateway {
    /// Re-executes this binary in the `serve` role, hands it the
    /// description documents, and waits until its channels are bound.
    pub fn spawn(input: &LiveInput, cpus: &[usize]) -> Res<Gateway> {
        let exe = std::env::current_exe().map_err(err("current_exe"))?;
        // Spread concurrent benchmark runs over the port space.
        let offset_base = 20_000 + (std::process::id() % 280) as u16 * 100;
        let mut child = Command::new(exe)
            .args(["serve", "--offset-base", &offset_base.to_string()])
            .args(["--cpus", &cpus.iter().map(usize::to_string).collect::<Vec<_>>().join(",")])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(err("spawn gateway"))?;
        let mut stdin = child.stdin.take().expect("piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut feed = Vec::new();
        for (url, xml) in &input.descriptions {
            feed.extend_from_slice(format!("DESC {url} {}\n", xml.len()).as_bytes());
            feed.extend_from_slice(xml.as_bytes());
        }
        feed.extend_from_slice(b"START\n");
        let mut ready = String::new();
        let handshake = stdin
            .write_all(&feed)
            .and_then(|()| stdin.flush())
            .and_then(|()| stdout.read_line(&mut ready));
        let ports: Vec<u16> = ready
            .strip_prefix("READY ")
            .map(|rest| rest.split_whitespace().filter_map(|p| p.parse().ok()).collect())
            .unwrap_or_default();
        if handshake.is_err() || ports.len() != 4 || ports.contains(&0) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("gateway did not come up (said {ready:?})"));
        }
        let at = |port: u16| SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        Ok(Gateway {
            child,
            stdin,
            stdout,
            dest: [at(ports[0]), at(ports[1]), at(ports[2])],
            stats: at(ports[3]),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn scrape(&self) -> Res<Scrape> {
        Scrape::fetch(self.stats).map_err(err("scrape /metrics"))
    }

    pub fn cpu(&self) -> Res<CpuSample> {
        procfs::cpu_of(self.pid()).map_err(err("read child schedstat"))
    }

    /// Everything read around a slice: counters, allocator bytes, CPU.
    fn vitals(&mut self) -> Res<(Scrape, u64, CpuSample)> {
        Ok((self.scrape()?, self.alloc_bytes()?, self.cpu()?))
    }

    /// The vitals once the gateway has worked off a slice of `offered`
    /// datagrams sent since `before` — or after 100 ms, when some were
    /// lost on the way. Without this a stalled gateway's last datagrams
    /// would be booked to the next slice, or to nobody.
    fn vitals_when_settled(
        &mut self,
        before: &Res<(Scrape, u64, CpuSample)>,
        offered: u64,
    ) -> Res<(Scrape, u64, CpuSample)> {
        const WORKED_OFF: [&str; 3] = [
            "indiss_netfront_requests_decoded",
            "indiss_netfront_adverts_seen",
            "indiss_netfront_decode_rejected",
        ];
        let deadline = Instant::now() + Duration::from_millis(100);
        loop {
            let now = self.vitals()?;
            let Ok((start, ..)) = before else { return Ok(now) };
            let done: u64 =
                WORKED_OFF.iter().map(|c| now.0.get(c).saturating_sub(start.get(c))).sum();
            if done >= offered || Instant::now() >= deadline {
                return Ok(now);
            }
        }
    }

    /// Bytes the gateway process has requested from its allocator so far.
    pub fn alloc_bytes(&mut self) -> Res<u64> {
        let mut line = String::new();
        self.stdin
            .write_all(b"ALLOC\n")
            .and_then(|()| self.stdin.flush())
            .and_then(|()| self.stdout.read_line(&mut line))
            .map_err(err("ask child for ALLOC"))?;
        line.strip_prefix("ALLOC ")
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("bad ALLOC reply {line:?}"))
    }

    /// Sends the priming adverts and waits until `/metrics` confirms the
    /// gateway recorded every one of them (re-sending once if a datagram
    /// was lost on the way).
    pub fn prime(&self, socket: &UdpSocket, input: &LiveInput) -> Res<()> {
        let want = input.prime.len() as u64;
        for attempt in 0..2 {
            let base = self.scrape()?.get("indiss_bridge_adverts_recorded");
            for (i, tmpl) in input.prime.iter().enumerate() {
                let tmpl = &input.templates[*tmpl as usize];
                // Paced in small bursts: priming is set-up, not load.
                if i % 64 == 63 {
                    std::thread::sleep(Duration::from_micros(500));
                }
                socket.send_to(&tmpl.bytes, self.dest[tmpl.port as usize]).map_err(err("prime"))?;
            }
            let deadline = Instant::now() + Duration::from_secs(2);
            while Instant::now() < deadline {
                // No sleep between polls: a scrape takes a fraction of a
                // millisecond, a sleep would quantise `setup_s`.
                if self.scrape()?.get("indiss_bridge_adverts_recorded") - base >= want {
                    return Ok(());
                }
            }
            println!("priming attempt {} incomplete; re-sending", attempt + 1);
        }
        Err("gateway never confirmed the priming adverts".into())
    }

    /// Asks the child to shut down and waits for it.
    pub fn stop(mut self) -> Res<()> {
        let _ = self.stdin.write_all(b"EXIT\n").and_then(|()| self.stdin.flush());
        let status = self.child.wait().map_err(err("wait for gateway"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("gateway exited with {status}"))
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // After `stop` the child is already reaped and both calls are
        // harmless errors.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One measured phase — a run of quarter-second slices — with the outside
/// observations around each slice.
///
/// Slicing buys three things on a noisy host. Every slice's timings are
/// corrected by how fast the host ran around *that* slice
/// ([`crate::calib`]); a phase's figure is the *median over slices*, so
/// a few slices a neighbour disturbed do not move it; and a slice the
/// host stalled is re-run alone, not the whole phase.
#[derive(Default)]
pub struct Observed {
    /// All accepted slices folded together.
    pub result: PhaseResult,
    /// `/metrics` deltas summed over the accepted slices.
    counters: HashMap<String, u64>,
    /// Gateway-process CPU summed over the accepted slices.
    pub cpu: CpuSample,
    /// Per slice, as measured: gateway CPU per datagram offered and the
    /// median reply latency (absent when no reply came), in microseconds.
    slice_cpu_us_per_req: Vec<f64>,
    slice_p50_us: Vec<Option<f64>>,
    slice_slowdown: Vec<Slowdown>,
    slice_alloc_per_req: Vec<f64>,
    slice_served_share: Vec<f64>,
    pub ops: Vec<Op>,
    pub retries: u32,
}

impl Observed {
    /// Gateway CPU (user + system, all threads) per datagram offered, as
    /// measured: the median over slices.
    pub fn raw_cpu_us_per_req(&self) -> f64 {
        median(&self.slice_cpu_us_per_req)
    }

    /// [`Observed::raw_cpu_us_per_req`] with every slice at nominal speed.
    pub fn cpu_us_per_req(&self) -> f64 {
        median_at_nominal(&self.slice_cpu_us_per_req, &self.slice_slowdown)
    }

    /// Median reply latency from the due time, as measured: the median
    /// of the slices' medians. Also returns the number of slices.
    pub fn raw_p50_us(&self) -> (f64, usize) {
        let medians: Vec<f64> = self.slice_p50_us.iter().flatten().copied().collect();
        (median(&medians), medians.len())
    }

    /// [`Observed::raw_p50_us`] with every slice at nominal speed.
    pub fn p50_us(&self) -> f64 {
        let at_nominal = self.slice_p50_us.iter().zip(&self.slice_slowdown);
        median(
            &at_nominal.filter_map(|(p50, slow)| Some(slow.normalise((*p50)?))).collect::<Vec<_>>(),
        )
    }

    /// How much slower than nominal the host ran: the median slice's.
    pub fn slowdown(&self) -> f64 {
        median(&self.slice_slowdown.iter().map(|slow| slow.0).collect::<Vec<_>>())
    }

    /// Bytes the gateway requested from its allocator per datagram
    /// offered: the 90th percentile over slices. The reactor's scratch
    /// buffers are allocated per `recvmmsg` call, so a slice in which the
    /// host stalled the gateway and datagrams piled up into batches reads
    /// *lower* (4.9 KB instead of 7.0 KB on `warm_hit`); that disturbance
    /// is one-sided, and the upper end of the slices is the phase's own
    /// regime.
    pub fn alloc_bytes_per_req(&self) -> f64 {
        crate::stats::percentile(&self.slice_alloc_per_req, 0.9)
    }

    /// Share of the offered datagrams the gateway served, in the median
    /// slice: a host stall empties one or two slices of a phase, a
    /// gateway that cannot keep up loses in every one.
    pub fn served_share(&self) -> f64 {
        median(&self.slice_served_share)
    }

    pub fn slices(&self) -> usize {
        self.slice_cpu_us_per_req.len()
    }

    pub fn delta(&self, counter: &str) -> u64 {
        self.counters.get(counter).copied().unwrap_or(0)
    }

    fn count(&self, input: &LiveInput, pred: impl Fn(Wire, Expect) -> bool) -> u64 {
        self.ops.iter().filter(|op| pred(input.templates[op.tmpl as usize].wire, op.expect)).count()
            as u64
    }
}

/// Everything one live run yields; `crate::report` turns it into
/// metrics.
pub struct LiveRun {
    pub input: LiveInput,
    /// Spawn-and-prime cycles, in seconds as measured, and the host's
    /// speed around each.
    pub setup_s: Vec<f64>,
    pub setup_slowdown: Vec<Slowdown>,
    pub rcvbuf: usize,
    pub reference: Observed,
    pub hi: Observed,
    pub peak_rss_mib: f64,
    pub interned_bytes: u64,
    /// Operations the reference model judged, and how many it failed.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The gateway contradicted the reference model: a wrong or
    /// unsolicited reply, junk accepted, a hit ratio outside its band.
    /// Lost datagrams are not that — they are counted in `failed` and
    /// tolerated up to `ok_share`'s bound.
    pub contradicted: bool,
}

/// Length of one slice of a phase.
const SLICE_S: f64 = 0.25;

/// Most datagrams one slice may offer: SLP requests of a slice take
/// consecutive 16-bit XIDs, and a reply counts as an earlier slice's
/// straggler when its XID lies in the half-range behind the slice's own.
const MAX_SLICE_OPS: f64 = 32_768.0;

/// Offered datagrams of a slice the gateway never served: not received
/// by its sockets (kernel buffer overflow), or dropped under back-pressure.
fn unserved(before: &Scrape, after: &Scrape, offered: u64) -> u64 {
    let delta = |counter| after.get(counter).saturating_sub(before.get(counter));
    offered.saturating_sub(delta("indiss_netfront_datagrams_received"))
        + delta("indiss_netfront_dropped_backpressure")
}

/// A gateway under load: the child process, the generator's socket,
/// the workload's op stream, the next SLP XID, and the calibration
/// thread on the gateway's CPUs.
struct Session {
    gateway: Gateway,
    socket: UdpSocket,
    input: LiveInput,
    xid: u16,
    /// CPUs the gateway is pinned to (whose steal time is watched).
    gateway_cpus: &'static [usize],
    speed: Speedometer,
}

impl Session {
    /// Offers `seconds` of the workload's op stream at `rate`, slice by
    /// slice, observing the gateway from outside around each slice.
    fn observe(
        &mut self,
        (rate, burst): (u32, u32),
        seconds: f64,
        grace: Duration,
        retry: impl Fn(&PhaseResult) -> Option<String>,
    ) -> Res<Observed> {
        let Session { gateway, socket, input, xid: xid_base, gateway_cpus, speed } = self;
        let mut out = Observed::default();
        let total = f64::from(rate) * seconds;
        let slices =
            (seconds / SLICE_S).round().max((total / MAX_SLICE_OPS).ceil()).max(1.0) as usize;
        let per_slice = (total / slices as f64) as usize;
        let slice_ns = (seconds / slices as f64 * 1e9) as u64;
        for slice in 0..slices {
            let mut state = None;
            let (result, retries) = loadgen::with_retries(
                || {
                    let ops = input.ops(per_slice);
                    let kernel_before = speed.kernel_ns();
                    let before = gateway.vitals();
                    let steal_before = procfs::steal_ms(gateway_cpus);
                    let mut result = loadgen::run_phase(
                        socket,
                        &gateway.dest,
                        input,
                        &ops,
                        Schedule { rate, burst, grace, xid_base: *xid_base },
                    );
                    result.gateway_steal_ms = procfs::steal_ms(gateway_cpus) - steal_before;
                    *xid_base = xid_base.wrapping_add(ops.len() as u16);
                    let after = gateway.vitals_when_settled(&before, result.offered);
                    if let (Ok((before, ..)), Ok((after, ..))) = (&before, &after) {
                        result.gateway_lost = unserved(before, after, result.offered);
                    }
                    let slowdown = Slowdown::around(kernel_before, speed.kernel_ns());
                    state = Some((ops, before, after, slowdown));
                    result
                },
                &retry,
            );
            let (ops, before, after, slowdown) = state.expect("slice ran at least once");
            let ((before, alloc_before, cpu_before), (after, alloc_after, cpu_after)) =
                (before?, after?);
            let cpu = cpu_after.since(cpu_before);
            let offered = result.offered.max(1) as f64;
            out.slice_served_share.push(1.0 - result.gateway_lost as f64 / offered);
            after.add_deltas(&before, &mut out.counters);
            out.slice_cpu_us_per_req.push(cpu.run_ns as f64 / 1e3 / offered);
            let latencies = result.latencies_us();
            out.slice_p50_us.push((!latencies.is_empty()).then(|| median(&latencies)));
            out.slice_slowdown.push(slowdown);
            out.slice_alloc_per_req.push(alloc_after.saturating_sub(alloc_before) as f64 / offered);
            out.cpu.run_ns += cpu.run_ns;
            out.cpu.wait_ns += cpu.wait_ns;
            out.result.absorb(result, slice as u64 * slice_ns);
            out.ops.extend(ops);
            out.retries += retries;
        }
        Ok(out)
    }
}

/// Runs one live workload end to end: set-up (repeated, for a steady
/// `setup_s`), warm-up, `ref` phase, `hi` phase, validation.
pub fn run(workload: Workload, seed: u64, plan: &Plan) -> Res<LiveRun> {
    let input = LiveInput::generate(workload, seed);
    let split = CpuSplit::of_host();
    crate::sys::pin_to(&split.generator);
    let (socket, rcvbuf) = loadgen::open_socket().map_err(err("open generator socket"))?;
    let _awake = KeepAwake::on(&split.gateway);
    let speed = Speedometer::start(&split.gateway);
    let (mut setup_s, mut setup_slowdown) = (Vec::new(), Vec::new());
    let mut gateway = None;
    for _ in 0..plan.setup_reps {
        // The previous set-up's gateway goes away first: its ports are
        // the next one's.
        if let Some(old) = gateway.take() {
            Gateway::stop(old)?;
        }
        let (kernel_before, started) = (speed.kernel_ns(), Instant::now());
        let fresh = Gateway::spawn(&input, &split.gateway)?;
        fresh.prime(&socket, &input)?;
        setup_s.push(started.elapsed().as_secs_f64());
        setup_slowdown.push(Slowdown::around(kernel_before, speed.kernel_ns()));
        gateway = Some(fresh);
    }
    let gateway = gateway.ok_or("no set-up repetitions planned")?;

    // Warm-up, discarded: fills the registry to its steady state and
    // lets every lazy path (thread-local snapshots, interner) settle.
    let (ref_rate, deadline) = ((Workload::REF_RATE, 1), loadgen::ANSWER_DEADLINE);
    let mut session =
        Session { gateway, socket, input, xid: 0, gateway_cpus: &split.gateway, speed };
    session.observe(ref_rate, plan.warmup_s, deadline, |_| None)?;

    let phase_s = plan.seconds / 2.0;
    let reference = session.observe(ref_rate, phase_s, deadline, loadgen::disturbed)?;
    // Under overload some replies never come: a slice waits for the
    // stragglers only briefly, and the loss is what `served_share_hi` says.
    let hi_rate = (workload.hi_rate(), Workload::HI_BURST);
    let hi_grace = Duration::from_millis(100);
    let hi = session.observe(hi_rate, phase_s, hi_grace, |_| None)?;
    let Session { gateway, input, .. } = session;
    let peak_rss_mib = procfs::peak_rss_mib(gateway.pid()).map_err(err("read child VmHWM"))?;
    let interned_bytes = gateway.scrape()?.get("indiss_interner_bytes");
    gateway.stop()?;

    let mut run = LiveRun {
        input,
        setup_s,
        setup_slowdown,
        rcvbuf,
        reference,
        hi,
        peak_rss_mib,
        interned_bytes,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        contradicted: false,
    };
    validate(&mut run);
    Ok(run)
}

/// Judges the `ref` phase against the reference model. The `hi` phase
/// is overload by design, so only the *content* of its replies is held
/// to the model (a wrong URL is wrong at any rate); what it failed to
/// serve is `served_share_hi`.
fn validate(run: &mut LiveRun) {
    let (r, hi, input) = (&run.reference, &run.hi, &run.input);
    let is_advert = |_: Wire, e: Expect| e == Expect::Advert;
    let adverts = r.count(input, is_advert);
    let recorded = r.delta("indiss_bridge_adverts_recorded").min(adverts);
    let notifies = r.count(input, |w, _| w == Wire::Notify);
    let fetched = r.delta("indiss_netfront_descriptions_fetched").min(notifies);
    let res = &r.result;
    let silent = res.offered - res.must_total - res.maybe_total - adverts;

    // Every judged operation once: requests that must be answered,
    // requests that must stay silent, adverts that must be recorded (and,
    // for a NOTIFY, enriched from its description), replies that came.
    run.attempted = res.must_total + silent + adverts + notifies + res.maybe_answered;
    run.failed = (res.must_total - res.must_answered)
        + res.wrong
        + res.unexpected
        + (adverts - recorded)
        + (notifies - fetched)
        + res.send_failed
        + hi.result.wrong
        + hi.result.unexpected;

    let mut problems = Vec::new();
    let mut contradicted = res.wrong + res.unexpected + hi.result.wrong + hi.result.unexpected > 0;
    for e in res.errors.iter().chain(&hi.result.errors) {
        problems.push(format!("reply validation: {e}"));
    }
    if res.must_answered < res.must_total {
        problems.push(format!(
            "ref: {} of {} must-answer requests unanswered within {} ms",
            res.must_total - res.must_answered,
            res.must_total,
            loadgen::ANSWER_DEADLINE.as_millis()
        ));
    }
    if recorded < adverts || fetched < notifies {
        problems.push(format!(
            "ref: gateway recorded {recorded} of {adverts} adverts, enriched {fetched} of \
             {notifies} NOTIFYs"
        ));
    }
    // Junk of random bytes must all be rejected by the decoders; cut-off
    // requests may or may not still parse.
    let sure_junk = r.count(input, |w, _| w == Wire::Junk) / 2;
    if run.input.workload == Workload::MixedMiss {
        let rejected = r.delta("indiss_netfront_decode_rejected");
        let hit_ratio = res.maybe_answered as f64 / res.maybe_total.max(1) as f64;
        if rejected < sure_junk * 9 / 10 {
            contradicted = true;
            problems.push(format!("ref: only {rejected} junk frames rejected, sent ≥ {sure_junk}"));
        }
        if !(0.2..=0.95).contains(&hit_ratio) {
            contradicted = true;
            problems.push(format!("ref: cache hit ratio {hit_ratio:.3} outside the 0.2–0.95 band"));
        }
    }
    run.problems = problems;
    run.contradicted = contradicted;
}

/// `--curve`: a non-gating geometric rate ladder (×1.25 from the `ref`
/// rate) on `warm_hit`, one second per step, printing latency and loss
/// per step and the knee — the highest rate served with ≤ 1 % loss. On a
/// host this small the knee measures the scheduler as much as the
/// gateway (the generator and the gateway share two cores), so it is
/// printed, never gated.
pub fn curve(seed: u64) -> Res<()> {
    let input = LiveInput::generate(Workload::WarmHit, seed);
    let split = CpuSplit::of_host();
    crate::sys::pin_to(&split.generator);
    let (socket, _) = loadgen::open_socket().map_err(err("open generator socket"))?;
    let _awake = KeepAwake::on(&split.gateway);
    let speed = Speedometer::start(&split.gateway);
    let gateway = Gateway::spawn(&input, &split.gateway)?;
    gateway.prime(&socket, &input)?;
    println!("== curve (warm_hit, open loop, 1 s per step) ==");
    println!("{:>10}{:>12}{:>12}{:>10}", "rate/s", "p50 us", "p99 us", "loss");
    let mut session =
        Session { gateway, socket, input, xid: 0, gateway_cpus: &split.gateway, speed };
    let (mut rate, mut knee) = (f64::from(Workload::REF_RATE), 0u32);
    loop {
        let grace = Duration::from_millis(100);
        let step = session.observe((rate as u32, 1), 1.0, grace, |_| None)?;
        let loss = step.result.gateway_lost as f64 / step.result.offered.max(1) as f64;
        let lat = step.result.latencies_us();
        println!(
            "{:>10}{:>12.1}{:>12.1}{:>10.4}",
            rate as u32,
            step.result.p50_us().0,
            crate::stats::percentile(&lat, 0.99),
            loss
        );
        if loss <= 0.01 {
            knee = rate as u32;
        }
        if loss > 0.05 || rate > 400_000.0 {
            break;
        }
        rate *= 1.25;
    }
    println!("knee_rps {knee} 1/s (highest step with loss <= 1%)");
    session.gateway.stop()
}
