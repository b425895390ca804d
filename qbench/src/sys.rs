//! Process-level readings: CPU time and resident memory.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout the call
    // expects, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kb / 1024.0
}

/// Returns freed heap pages to the kernel, resets the peak resident set
/// size to the current one, and returns that (`VmRSS`, in MiB). Peaks read
/// later with [`peak_rss_mb`] minus this baseline cover only what was
/// allocated after the call. `false` when the kernel refused the reset.
pub fn reset_peak_rss() -> (f64, bool) {
    // SAFETY: `malloc_trim` only releases free memory held by the allocator;
    // it takes no pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    (status_mb("VmRSS:"), reset)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}
