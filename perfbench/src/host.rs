//! Host facilities the benchmark needs from Linux: process-wide
//! resource counters from `getrusage(RUSAGE_SELF)` (CPU time, voluntary
//! and involuntary context switches, peak resident memory; the kernel
//! sums them over every thread the process has run, including the
//! per-processor threads of runs that already ended), and pinning to
//! one CPU.

use std::os::raw::{c_int, c_long, c_ulong};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// `struct timeval` as Linux lays it out: two `long`s.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then fourteen
/// `long` counters.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

/// Bits per word of a CPU mask.
const WORD_BITS: usize = 8 * std::mem::size_of::<c_ulong>();

/// `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet {
    bits: [c_ulong; 1024 / WORD_BITS],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the first CPU it may run on. Returns that CPU, or `None` when the
/// affinity calls fail (the thread then keeps its mask).
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut set = CpuSet {
        bits: [0; 1024 / WORD_BITS],
    };
    // SAFETY: `set` is a writable cpu_set_t of `size` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| set.bits[c / WORD_BITS] >> (c % WORD_BITS) & 1 == 1)?;
    set.bits = [0; 1024 / WORD_BITS];
    set.bits[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
    // SAFETY: as above, with `set` only read.
    (unsafe { sched_setaffinity(0, size, &set) } == 0).then_some(cpu)
}

/// A snapshot of the process counters, or the difference of two.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (a thread parked: futex waits).
    pub vcsw: u64,
    /// Involuntary context switches (a thread was preempted).
    pub ivcsw: u64,
    /// Peak resident set size in KiB (a high-water mark: not
    /// meaningful as a difference).
    pub maxrss_kb: u64,
}

impl Usage {
    /// The process counters now.
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // Linux layout declared above, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&raw.utime) + secs(&raw.stime),
            vcsw: raw.nvcsw as u64,
            ivcsw: raw.nivcsw as u64,
            maxrss_kb: raw.maxrss as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            ivcsw: self.ivcsw.saturating_sub(earlier.ivcsw),
            maxrss_kb: self.maxrss_kb,
        }
    }
}

/// Round trips per [`switch_round_trip_ns`] sample.
const SWITCH_ROUND_TRIPS: u32 = 100;

/// The host's current cost of a thread context-switch round trip, in ns:
/// two threads hand a turn back and forth through a `Mutex`/`Condvar`
/// pair, [`SWITCH_ROUND_TRIPS`] times. It uses only `std`, so the
/// program under test cannot change it; the spawned thread inherits the
/// caller's CPU affinity. Simulator wall time is mostly such hand-offs,
/// and on a shared host their cost drifts over minutes, so each run
/// reports this alongside its own times.
pub fn switch_round_trip_ns() -> f64 {
    let turn = (Mutex::new(0u32), Condvar::new());
    // Each side advances the counter on its own parity and waits for the
    // other's; the counter ends at twice the round trips.
    let play = |turn: &(Mutex<u32>, Condvar), parity: u32| {
        let (count, cv) = turn;
        let mut n = count.lock().expect("probe lock is never poisoned");
        while *n < 2 * SWITCH_ROUND_TRIPS {
            if *n % 2 == parity {
                *n += 1;
                cv.notify_one();
            } else {
                n = cv.wait(n).expect("probe lock is never poisoned");
            }
        }
        cv.notify_one();
    };
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| play(&turn, 1));
        play(&turn, 0);
    });
    t.elapsed().as_nanos() as f64 / SWITCH_ROUND_TRIPS as f64
}
