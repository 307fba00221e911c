//! The calling thread's CPU-time clock.
//!
//! The benchmark's host is a virtual machine whose CPUs the hypervisor
//! sometimes lends elsewhere: while that happens the simulator's threads
//! make no progress, yet wall clocks keep running. Bursts of this *steal
//! time* took 29% of both CPUs over ten-second windows while the benchmark
//! was being written, and moved whole runs by a third. The kernel leaves
//! stolen time out of a thread's CPU time (paravirtual steal accounting),
//! so CPU-bound work is timed on this clock instead.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread.
#[must_use]
pub fn thread() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly laid out `Timespec`; the
    // clock id is the Linux constant for the calling thread's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below one second"),
    )
}

/// CPU seconds of the calling thread consumed by `f`, and its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = thread();
    let out = f();
    ((thread() - start).as_secs_f64(), out)
}
