//! The system calls the benchmark needs that `std` does not offer:
//! sizing a UDP socket's kernel buffers, CPU affinity and scheduling
//! class, and the CPU-time clocks. Declared here against the C library
//! `std` already links, because the build has no `libc` crate.

use std::net::UdpSocket;

#[cfg(target_os = "linux")]
mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const SO_RCVBUF: c_int = 8;
    pub const SO_RCVBUFFORCE: c_int = 33;

    extern "C" {
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
    }
}

/// Asks for `bytes` of receive buffer (and the same send buffer) and
/// returns the receive buffer the kernel actually granted. Tries the
/// privileged `SO_RCVBUFFORCE` first, then the `rmem_max`-capped
/// `SO_RCVBUF`.
#[cfg(target_os = "linux")]
pub fn size_socket_buffers(socket: &UdpSocket, bytes: usize) -> usize {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    let fd = socket.as_raw_fd();
    let want = c_int::try_from(bytes).unwrap_or(c_int::MAX);
    let ptr = (&want as *const c_int).cast::<c_void>();
    let len = std::mem::size_of::<c_int>() as u32;
    // SAFETY: `fd` is a live socket owned by `socket`; `ptr`/`len`
    // describe one readable `c_int` that outlives each call.
    unsafe {
        if ffi::setsockopt(fd, ffi::SOL_SOCKET, ffi::SO_RCVBUFFORCE, ptr, len) != 0 {
            ffi::setsockopt(fd, ffi::SOL_SOCKET, ffi::SO_RCVBUF, ptr, len);
        }
        ffi::setsockopt(fd, ffi::SOL_SOCKET, ffi::SO_SNDBUF, ptr, len);
    }
    let mut got: c_int = 0;
    let mut got_len = len;
    // SAFETY: `got`/`got_len` are writable locals of the sizes passed.
    let rc = unsafe {
        ffi::getsockopt(
            fd,
            ffi::SOL_SOCKET,
            ffi::SO_RCVBUF,
            (&mut got as *mut c_int).cast::<c_void>(),
            &mut got_len,
        )
    };
    if rc == 0 {
        usize::try_from(got).unwrap_or(0)
    } else {
        0
    }
}

/// Other platforms keep the default buffers.
#[cfg(not(target_os = "linux"))]
pub fn size_socket_buffers(_socket: &UdpSocket, _bytes: usize) -> usize {
    0
}

/// CPUs the calling thread may run on, in ascending order (empty when
/// the platform cannot say).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 128-byte CPU set; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts the calling thread — and every thread or process it spawns
/// from here on — to `cpus`. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn pin_to(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for cpu in cpus.iter().filter(|cpu| **cpu < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable 128-byte CPU set; pid 0 is the caller.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpus: &[usize]) -> bool {
    false
}

/// How the host's CPUs are split between the load generator and the
/// gateway: the generator busy-polls, so it gets the last allowed CPU to
/// itself and the gateway process gets all the others. Left to the
/// scheduler, the two migrate and share cores from run to run, and reply
/// latency and CPU per request come out bimodal (measured on the 2-core
/// reference host: p50 21–53 µs unpinned, 42–44 µs pinned). With a single
/// CPU there is nothing to split and nothing is pinned.
pub struct CpuSplit {
    pub generator: Vec<usize>,
    pub gateway: Vec<usize>,
}

impl CpuSplit {
    /// The split of the CPUs this process was started with (computed
    /// once, before anything is pinned).
    pub fn of_host() -> &'static CpuSplit {
        static SPLIT: std::sync::OnceLock<CpuSplit> = std::sync::OnceLock::new();
        SPLIT.get_or_init(|| {
            let mut cpus = allowed_cpus();
            match cpus.pop() {
                Some(last) if !cpus.is_empty() => CpuSplit { generator: vec![last], gateway: cpus },
                _ => CpuSplit { generator: Vec::new(), gateway: Vec::new() },
            }
        })
    }
}

/// CPU time this process has consumed, all threads, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike `/proc/self/schedstat`, which
/// for a thread that never blocks only advances on scheduler ticks, this
/// clock reads the running total to the nanosecond.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has consumed, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(target_os = "linux")]
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // every 64-bit Linux ABI) that outlives the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn cpu_clock_ns(_clock: i32) -> u64 {
    0
}

/// Drops the calling thread to the `SCHED_IDLE` class: it then runs only
/// while nothing else wants its CPU, and anything that wakes up there
/// pre-empts it at once. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn run_only_when_idle() -> bool {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32;
    // SAFETY: `priority` is a readable `struct sched_param` (one `int`)
    // that outlives the call; pid 0 is the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn run_only_when_idle() -> bool {
    false
}
