//! Keeping the host out of the timings.
//!
//! The reference host is a small shared virtual machine. For minutes at
//! a time a neighbour slows it by a fifth to a half, and the hypervisor's
//! cost of halting and waking a virtual CPU changes with it: across such
//! spells the same gateway read a median reply latency of 28 µs and of
//! 45 µs, and 5.4 µs and 7.7 µs of CPU per request. No phase length
//! averages that out — the spells outlast whole runs. Two devices do:
//!
//! * [`kernel_ns`], a fixed piece of user-space work owned by the
//!   benchmark, is timed on the measured CPU right before and after
//!   every slice of a phase. How much longer it took than its
//!   [`NOMINAL_KERNEL_NS`] is how much slower the host was running just
//!   then, and the slice's timings are divided by that (see
//!   [`Slowdown`]). The time-based end-to-end metrics are therefore
//!   microseconds *at the nominal speed*; the readings as measured are
//!   the per-layer `raw.*` rows, the correction is `host.slowdown`.
//! * [`KeepAwake`] keeps the gateway's CPUs from halting between
//!   datagrams, so the hypervisor's wake-up path — tens of microseconds,
//!   and none of them the program's — is not part of a reply's latency.
//!
//! A product change cannot move either: nothing here calls the product.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use crate::sys;

/// What [`kernel_ns`] takes on the reference host, between the slices
/// of a measured workload, when nothing disturbs the host. Only a scale:
/// it keeps the normalised metrics in microseconds a reader recognises.
pub const NOMINAL_KERNEL_NS: f64 = 3_000_000.0;

/// Service URLs one pass of the kernel works through.
const KERNEL_URLS: usize = 12_000;

/// The kernel's working memory, kept from call to call: once it exists
/// the kernel asks the allocator for nothing, so what the rest of the
/// process did to the heap cannot show in its time. (A kernel that
/// allocated afresh read 2–3× slow late in a `cold_bridge` process
/// holding 500 MB of simulated worlds, while the measured work around it
/// read 1.4× slow.)
struct Scratch {
    urls: Vec<String>,
    order: Vec<u32>,
    seen: HashMap<u64, u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        urls: (0..KERNEL_URLS).map(|_| String::with_capacity(64)).collect(),
        order: Vec::with_capacity(KERNEL_URLS),
        seen: HashMap::with_capacity(KERNEL_URLS),
    });
}

/// One pass of the calibration kernel over `scratch`: formats, splits,
/// hashes and sorts the service URLs — string work like the gateway's own.
fn kernel_pass(scratch: &mut Scratch) {
    let Scratch { urls, order, seen } = scratch;
    order.clear();
    seen.clear();
    let mut fields = 0;
    for (i, url) in urls.iter_mut().enumerate() {
        url.clear();
        let _ = write!(
            url,
            "service:k{:03x}-{i:x}://10.0.{}.{}:4005/svc",
            i & 0xfff,
            i >> 8 & 255,
            i & 255
        );
        fields += url.split(':').count();
        let mut hasher = DefaultHasher::new();
        url.hash(&mut hasher);
        seen.insert(hasher.finish(), i as u32);
        order.push(i as u32);
    }
    order.sort_unstable_by(|a, b| urls[*a as usize].cmp(&urls[*b as usize]));
    std::hint::black_box((fields, seen.len(), order.first()));
}

/// Runs the calibration kernel and returns the CPU time the calling
/// thread spent on it. Two passes, the second one timed: the first
/// brings the kernel's memory back into the caches, so that how much of
/// it the measured work evicted meanwhile — a property of the program
/// under test — is not part of the time either.
pub fn kernel_ns() -> f64 {
    SCRATCH.with_borrow_mut(|scratch| {
        kernel_pass(scratch);
        let started = sys::thread_cpu_ns();
        kernel_pass(scratch);
        (sys::thread_cpu_ns() - started) as f64
    })
}

/// How much slower than nominal the host ran around one slice: the mean
/// of the kernel timed before and after it, over the nominal time.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown(pub f64);

impl Slowdown {
    pub fn around(before_ns: f64, after_ns: f64) -> Slowdown {
        Slowdown(((before_ns + after_ns) / 2.0 / NOMINAL_KERNEL_NS).max(f64::MIN_POSITIVE))
    }

    /// A timing of the slice, as it would have read at nominal speed.
    pub fn normalise(self, timing: f64) -> f64 {
        timing / self.0
    }
}

/// The median of `timings`, each as it would have read at nominal speed
/// (`slowdowns` are the host's around each of them).
pub fn median_at_nominal(timings: &[f64], slowdowns: &[Slowdown]) -> f64 {
    let at_nominal = timings.iter().zip(slowdowns).map(|(timing, slow)| slow.normalise(*timing));
    crate::stats::median(&at_nominal.collect::<Vec<_>>())
}

/// Runs the calibration kernel on other CPUs than the caller's: a thread
/// pinned to `cpus` (the gateway's) that times one kernel per request.
pub struct Speedometer {
    ask: Option<mpsc::Sender<()>>,
    answer: mpsc::Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Speedometer {
    pub fn start(cpus: &[usize]) -> Speedometer {
        let (ask, asked) = mpsc::channel::<()>();
        let (tell, answer) = mpsc::channel();
        let cpus = cpus.to_vec();
        let thread = std::thread::spawn(move || {
            sys::pin_to(&cpus);
            while asked.recv().is_ok() && tell.send(kernel_ns()).is_ok() {}
        });
        Speedometer { ask: Some(ask), answer, thread: Some(thread) }
    }

    /// One kernel's CPU time on the pinned CPUs, in nanoseconds.
    pub fn kernel_ns(&self) -> f64 {
        let asked = self.ask.as_ref().is_some_and(|ask| ask.send(()).is_ok());
        // The thread only ends when `self` is dropped.
        asked.then(|| self.answer.recv().ok()).flatten().unwrap_or(NOMINAL_KERNEL_NS)
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        self.ask.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One idle-priority spinner per CPU in `cpus`, until dropped. A CPU
/// with a runnable thread never halts, and a `SCHED_IDLE` thread yields
/// to anything that wakes up on its CPU, so the gateway's threads still
/// sleep and wake exactly as they do alone — only the virtual CPU under
/// them stays awake. The spinners are the benchmark's threads: none of
/// their CPU time is the gateway's.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn on(cpus: &[usize]) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Not idle-class, it would compete with the gateway:
                    // better no spinner than that.
                    if sys::pin_to(&[cpu]) && sys::run_only_when_idle() {
                        // No `spin_loop` hint: a hypervisor may take a run
                        // of PAUSE instructions as a cue to yield the
                        // virtual CPU (pause-loop exiting).
                        while !stop.load(Ordering::Relaxed) {}
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
