//! Host clocks: wall time and process CPU time.

use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time consumed by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall-clock nanoseconds since the first call in this process.
pub fn host_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A host-time stopwatch over both clocks.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    wall_ns: u64,
    cpu_ns: u64,
}

impl HostMark {
    /// Read both clocks now.
    pub fn now() -> Self {
        HostMark {
            wall_ns: host_ns(),
            cpu_ns: process_cpu_ns(),
        }
    }

    /// Wall and CPU nanoseconds from `earlier` to `self`.
    pub fn since(&self, earlier: &HostMark) -> (u64, u64) {
        (
            self.wall_ns.saturating_sub(earlier.wall_ns),
            self.cpu_ns.saturating_sub(earlier.cpu_ns),
        )
    }

    /// Wall and CPU nanoseconds elapsed since `self`.
    pub fn elapsed(&self) -> (u64, u64) {
        HostMark::now().since(self)
    }
}
