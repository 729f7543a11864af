//! Host clocks and process facts the benchmark reports: CPU time per
//! process and per thread, peak resident memory, and the run
//! environment (worker width, `nproc`, build profile, git revision).

/// The worker width every pool in the benchmark is pinned to.
pub const WORKERS: usize = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and
    // `clock` is one of the two CPU-time clock ids Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User+system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The pinned run environment recorded with every result.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// Worker width of every pool (always [`WORKERS`]).
    pub workers: usize,
    /// Host parallelism as `nproc` reports it.
    pub nproc: usize,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// Git revision of the checkout, or `unknown` outside a git tree.
    pub git_revision: String,
}

impl RunEnv {
    /// Pins the harness worker pools to [`WORKERS`] and captures the
    /// environment.
    pub fn pin() -> Self {
        poat_harness::runner::set_worker_override(Some(WORKERS));
        RunEnv {
            workers: poat_harness::runner::default_workers(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_revision: poat_telemetry::git_revision().unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}
