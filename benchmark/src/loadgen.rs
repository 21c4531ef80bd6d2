//! The open-loop load generator: one thread, one non-blocking UDP
//! socket, busy-polling a fixed arrival schedule.
//!
//! Every datagram has a *due time* fixed before the phase starts
//! (`i / rate` after the phase's start). The generator sends each as soon
//! as its due time has passed — whether or not earlier requests have
//! been answered — and times every reply **from the due time**, not from
//! the send. A stall anywhere (in the gateway, or in this thread) thus
//! shows up in the latency of every request that was due during it:
//! there is no coordinated omission. How late the generator itself ran
//! is reported alongside ([`PhaseResult::max_late_ns`],
//! [`PhaseResult::late_sends`]), so a noisy run can be told from a slow
//! gateway.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use crate::inputs::{patch_xid, Expect, LiveInput, Op, Port, Wire};

/// A send counts as late when it leaves more than this after its due
/// time (one `ref`-phase arrival interval).
pub const LATE_THRESHOLD: Duration = Duration::from_micros(100);

/// A must-answer request unanswered for this long counts as failed.
pub const ANSWER_DEADLINE: Duration = Duration::from_secs(1);

/// A `ref` slice during which the generator itself stalled for longer
/// than this measured the host, not the gateway, and is re-run.
pub const MAX_REF_LATENESS: Duration = Duration::from_millis(20);

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Datagrams the schedule offered (all were handed to the kernel
    /// unless counted in `send_failed`).
    pub offered: u64,
    /// Sends the kernel refused (`EAGAIN` on a full socket buffer).
    pub send_failed: u64,
    pub must_total: u64,
    /// Must-answer requests answered correctly within the deadline.
    pub must_answered: u64,
    pub maybe_total: u64,
    pub maybe_answered: u64,
    /// Replies that failed validation: undecodable, an SLP error, or not
    /// the URL the reference model holds for the type.
    pub wrong: u64,
    /// Replies nothing was waiting for: to a silent op, to an advert, a
    /// duplicate, or with an unknown XID/type.
    pub unexpected: u64,
    /// Replies to an *earlier* slice that arrived after it had closed (a
    /// stalled gateway answers late); ignored, not failures.
    pub stale: u64,
    /// The first few validation failures, verbatim, for the report.
    pub errors: Vec<String>,
    /// `(due time, reply latency from the due time)` in nanoseconds from
    /// the phase start, one per validated reply.
    pub samples: Vec<(u64, u64)>,
    pub max_late_ns: u64,
    pub late_sends: u64,
    /// Milliseconds the hypervisor stole from the gateway's CPUs
    /// meanwhile (filled in by the caller, who knows which CPUs);
    /// reported as `host.steal_share`, a run-validity figure.
    pub gateway_steal_ms: u64,
    /// Offered datagrams the gateway's own counters never saw served:
    /// not received by its sockets, or dropped under back-pressure
    /// (filled in by the caller, who scrapes the counters).
    pub gateway_lost: u64,
    pub elapsed: Duration,
}

impl PhaseResult {
    /// Latencies in microseconds, unordered.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, lat)| *lat as f64 / 1e3).collect()
    }

    /// Median reply latency as the median of per-window medians (250 ms
    /// windows by due time): a few disturbed windows cannot move it.
    /// Returns the value and the number of windows.
    pub fn p50_us(&self) -> (f64, usize) {
        const WINDOW_NS: u64 = 250_000_000;
        let mut windows: HashMap<u64, Vec<f64>> = HashMap::new();
        for (due, lat) in &self.samples {
            windows.entry(due / WINDOW_NS).or_default().push(*lat as f64 / 1e3);
        }
        let medians: Vec<f64> = windows.values().map(|w| crate::stats::median(w)).collect();
        (crate::stats::median(&medians), medians.len())
    }

    /// Folds a later slice of the same phase into this result; the
    /// slice's due times are shifted by `offset_ns` so windows stay apart.
    pub fn absorb(&mut self, slice: PhaseResult, offset_ns: u64) {
        self.offered += slice.offered;
        self.send_failed += slice.send_failed;
        self.must_total += slice.must_total;
        self.must_answered += slice.must_answered;
        self.maybe_total += slice.maybe_total;
        self.maybe_answered += slice.maybe_answered;
        self.wrong += slice.wrong;
        self.unexpected += slice.unexpected;
        self.stale += slice.stale;
        self.errors.extend(slice.errors.into_iter().take(5usize.saturating_sub(self.errors.len())));
        self.samples.extend(slice.samples.into_iter().map(|(due, lat)| (due + offset_ns, lat)));
        self.max_late_ns = self.max_late_ns.max(slice.max_late_ns);
        self.late_sends += slice.late_sends;
        self.gateway_steal_ms += slice.gateway_steal_ms;
        self.gateway_lost += slice.gateway_lost;
        self.elapsed += slice.elapsed;
    }

    pub fn late_share(&self) -> f64 {
        self.late_sends as f64 / self.offered.max(1) as f64
    }

    fn fail(&mut self, wrong: bool, what: String) {
        if wrong {
            self.wrong += 1;
        } else {
            self.unexpected += 1;
        }
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// The generator's socket: non-blocking, with kernel buffers large
/// enough that a burst of replies is not dropped client-side.
pub fn open_socket() -> std::io::Result<(UdpSocket, usize)> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.set_nonblocking(true)?;
    let granted = crate::sys::size_socket_buffers(&socket, 4 << 20);
    Ok((socket, granted))
}

/// When and how a phase's datagrams are offered.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Mean datagrams per second.
    pub rate: u32,
    /// Datagrams due at the same instant; bursts are evenly spaced.
    pub burst: u32,
    /// How long to keep listening after the last send for must-answer
    /// requests still open.
    pub grace: Duration,
    /// XID of the first SLP request; the rest count up from it. Slices
    /// pass consecutive ranges, so a reply that belongs to an earlier
    /// slice is recognised as stale instead of matched to the wrong op.
    pub xid_base: u16,
}

/// Runs one open-loop phase: offers `ops` on `schedule` to the three
/// gateway channels `dest`, validates every reply against `input`'s
/// reference model, and keeps listening after the last send until every
/// must-answer request is answered or the grace period passed.
pub fn run_phase(
    socket: &UdpSocket,
    dest: &[SocketAddr; 3],
    input: &LiveInput,
    ops: &[Op],
    schedule: Schedule,
) -> PhaseResult {
    let Schedule { rate, burst, grace, xid_base } = schedule;
    let mut result = PhaseResult { offered: ops.len() as u64, ..PhaseResult::default() };
    let burst = burst.max(1) as usize;
    let interval_ns = 1e9 / f64::from(rate.max(1));
    let due_ns = |i: usize| ((i / burst * burst) as f64 * interval_ns) as u64;
    let by_name: HashMap<&str, u32> =
        input.types.iter().enumerate().map(|(i, t)| (t.name.as_str(), i as u32)).collect();
    // XID → op index + 1 of the latest SLP request sent with it.
    let mut xid_slot = vec![0u32; 1 << 16];
    // Type → DNS-SD queries not yet matched to an answer, oldest first.
    let mut dns_pending: HashMap<u32, VecDeque<u32>> = HashMap::new();
    let mut answered = vec![false; ops.len()];
    let mut scratch = Vec::with_capacity(2048);
    let mut recv_buf = vec![0u8; 4096];
    let mut next = 0usize;
    let mut must_outstanding = 0u64;
    let late_threshold_ns = LATE_THRESHOLD.as_nanos() as u64;
    let deadline_ns = ANSWER_DEADLINE.as_nanos() as u64;
    let last_due = due_ns(ops.len().saturating_sub(1));
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_nanos() as u64;
        // Send what is due; yield to the receive side every 32 sends so a
        // catch-up run cannot starve reply timestamps.
        let mut sent_now = 0;
        while next < ops.len() && due_ns(next) <= now && sent_now < 32 {
            let op = ops[next];
            let tmpl = &input.templates[op.tmpl as usize];
            let late = start.elapsed().as_nanos() as u64 - due_ns(next);
            result.max_late_ns = result.max_late_ns.max(late);
            result.late_sends += u64::from(late > late_threshold_ns);
            let wire: &[u8] = if tmpl.wire == Wire::SlpRequest {
                scratch.clear();
                scratch.extend_from_slice(&tmpl.bytes);
                let xid = xid_base.wrapping_add(next as u16);
                patch_xid(&mut scratch, xid);
                xid_slot[usize::from(xid)] = next as u32 + 1;
                &scratch
            } else {
                &tmpl.bytes
            };
            if tmpl.wire == Wire::DnsQuery {
                dns_pending.entry(tmpl.ty).or_default().push_back(next as u32);
            }
            match op.expect {
                Expect::Answer(_) => {
                    result.must_total += 1;
                    must_outstanding += 1;
                }
                Expect::Maybe(_) => result.maybe_total += 1,
                Expect::Silent | Expect::Advert => {}
            }
            if socket.send_to(wire, dest[tmpl.port as usize]).is_err() {
                result.send_failed += 1;
            }
            next += 1;
            sent_now += 1;
        }
        // Drain replies.
        for _ in 0..64 {
            let Ok((len, src)) = socket.recv_from(&mut recv_buf) else { break };
            let at = start.elapsed().as_nanos() as u64;
            let reply = &recv_buf[..len];
            let matched = if src.port() == dest[Port::Slp as usize].port() {
                match_slp(reply, &xid_slot, xid_base, ops, input, &mut result)
            } else {
                // Early in a slice an answer nobody waits for is most
                // likely the previous slice's.
                let early = at < 100_000_000;
                match_dnssd(reply, &by_name, &mut dns_pending, early, input, &mut result)
            };
            let Some(idx) = matched else { continue };
            if std::mem::replace(&mut answered[idx], true) {
                result.fail(false, format!("duplicate reply to op {idx}"));
                continue;
            }
            let latency = at.saturating_sub(due_ns(idx));
            match ops[idx].expect {
                Expect::Answer(_) => {
                    must_outstanding -= 1;
                    // Later than the deadline is as good as never.
                    result.must_answered += u64::from(latency <= deadline_ns);
                }
                Expect::Maybe(_) => result.maybe_answered += 1,
                Expect::Silent | Expect::Advert => unreachable!("matchers reject these"),
            }
            result.samples.push((due_ns(idx), latency));
        }
        if next == ops.len() {
            let waited = now.saturating_sub(last_due);
            let settle = Duration::from_millis(20).as_nanos() as u64;
            if waited >= grace.as_nanos() as u64 || (must_outstanding == 0 && waited >= settle) {
                break;
            }
        }
    }
    result.elapsed = start.elapsed();
    result
}

/// Correlates an SLP reply by XID and checks it against the model.
/// Returns the op it answers, or `None` after counting the failure.
fn match_slp(
    reply: &[u8],
    xid_slot: &[u32],
    xid_base: u16,
    ops: &[Op],
    input: &LiveInput,
    result: &mut PhaseResult,
) -> Option<usize> {
    let msg = match indiss_slp::Message::decode(reply) {
        Ok(msg) => msg,
        Err(e) => {
            result.fail(true, format!("undecodable SLP reply: {e}"));
            return None;
        }
    };
    let Some(idx) = xid_slot[usize::from(msg.header.xid)].checked_sub(1) else {
        // Behind this slice's XID range: an earlier slice's straggler.
        if msg.header.xid.wrapping_sub(xid_base) >= 0x8000 {
            result.stale += 1;
        } else {
            result.fail(false, format!("SLP reply with unknown XID {}", msg.header.xid));
        }
        return None;
    };
    let idx = idx as usize;
    let (Expect::Answer(ty) | Expect::Maybe(ty)) = ops[idx].expect else {
        result.fail(false, format!("reply to op {idx}, which expects silence"));
        return None;
    };
    let want = &input.types[ty as usize].slp_url;
    match &msg.body {
        indiss_slp::Body::SrvRply(rply)
            if rply.error == 0 && rply.urls.first().is_some_and(|u| u.url == *want) =>
        {
            Some(idx)
        }
        other => {
            result.fail(true, format!("op {idx}: wanted SrvRply {want}, got {other:?}"));
            None
        }
    }
}

/// Correlates a DNS-SD answer line by type (the protocol has no
/// transaction id) and checks its URL against the model. Of several
/// pending queries for the type the *latest* is taken: an answer usually
/// follows its query within tens of microseconds, while an older pending
/// query is most likely a cache miss that will never be answered.
fn match_dnssd(
    reply: &[u8],
    by_name: &HashMap<&str, u32>,
    pending: &mut HashMap<u32, VecDeque<u32>>,
    early: bool,
    input: &LiveInput,
    result: &mut PhaseResult,
) -> Option<usize> {
    let line = String::from_utf8_lossy(reply);
    let parsed = line
        .strip_prefix("DNSSD A PTR _")
        .and_then(|rest| rest.split_once("._tcp.local SRV "))
        .and_then(|(name, rest)| Some((name, rest.rsplit_once(" TTL ")?.0)));
    let Some((name, url)) = parsed else {
        result.fail(true, format!("undecodable DNS-SD reply {line:?}"));
        return None;
    };
    let Some(ty) = by_name.get(name).copied() else {
        result.fail(false, format!("DNS-SD answer for unknown type {name}"));
        return None;
    };
    let Some(idx) = pending.get_mut(&ty).and_then(VecDeque::pop_back) else {
        if early {
            result.stale += 1;
        } else {
            result.fail(false, format!("DNS-SD answer for {name} with no query pending"));
        }
        return None;
    };
    let want = &input.types[ty as usize].dnssd_url;
    if url != want {
        result.fail(true, format!("op {idx}: wanted DNS-SD answer {want}, got {url}"));
        return None;
    }
    Some(idx as usize)
}

/// Runs `phase` (one slice of a measured phase) and re-runs it (at most
/// twice) while `retry` says the result is unusable, printing each
/// retry. Returns the last result and the number of retries taken.
pub fn with_retries(
    mut phase: impl FnMut() -> PhaseResult,
    retry: &impl Fn(&PhaseResult) -> Option<String>,
) -> (PhaseResult, u32) {
    let mut retries = 0;
    loop {
        let result = phase();
        match retry(&result) {
            Some(why) if retries < 2 => {
                retries += 1;
                println!("retry {retries}/2: {why}");
            }
            _ => return (result, retries),
        }
    }
}

/// The `ref`-phase retry rule: the host stalled the generator (it ran
/// too late) or the gateway (datagrams overflowed its socket buffers — at
/// a tenth of what it serves, only a stall of tens of milliseconds does
/// that). A gateway that loses datagrams by itself loses them again in
/// the re-run, and the loss is counted.
pub fn disturbed(result: &PhaseResult) -> Option<String> {
    if result.max_late_ns > MAX_REF_LATENESS.as_nanos() as u64 {
        return Some(format!(
            "ref phase generator lateness {:.1} ms exceeds {} ms; re-running the slice",
            result.max_late_ns as f64 / 1e6,
            MAX_REF_LATENESS.as_millis()
        ));
    }
    (result.gateway_lost > 0).then(|| {
        format!(
            "ref phase: {} of {} datagrams never reached the gateway's workers; re-running \
             the slice",
            result.gateway_lost, result.offered
        )
    })
}
