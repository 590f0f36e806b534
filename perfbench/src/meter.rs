//! Timing primitives: the timed phase of a repetition, per-layer spans
//! inside it, and the process figures read from the kernel.
//!
//! A repetition's timed phase is a sequence of *segments*. Each segment
//! adds its wall time and the process CPU time it consumed to the
//! repetition's totals; the benchmark's own output checks run between
//! segments, so they are never timed. With tracing on, *spans* wrap each
//! call the benchmark makes into a layer's public functions. Spans nest
//! inside segments; the part of a segment no top-level span covers is
//! reported as `unattributed_s`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Process CPU time (user + system, all threads) in seconds.
///
/// Read from `CLOCK_PROCESS_CPUTIME_ID`, which has nanosecond resolution;
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for segments of a
/// few milliseconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for),
    // and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Wall and CPU totals of one repetition's timed phase, plus the spans
/// recorded inside it when tracing is on.
#[derive(Default)]
pub struct Clock {
    tracing: bool,
    /// Wall seconds inside segments.
    pub wall_s: f64,
    /// Process CPU seconds inside segments.
    pub cpu_s: f64,
    /// Top-level span totals (their sum plus the unattributed rest is
    /// `wall_s`).
    pub spans: BTreeMap<&'static str, f64>,
    /// Spans nested inside a top-level one, or measured outside the timed
    /// phase (set-up, replays); excluded from the add-up.
    pub nested: BTreeMap<&'static str, f64>,
}

impl Clock {
    pub fn new(tracing: bool) -> Self {
        Self { tracing, ..Self::default() }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Run `f` as one timed segment.
    pub fn segment<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let out = f(self);
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += process_cpu_s() - cpu0;
        out
    }

    /// Run `f` as a top-level span named `name` (just `f` when not
    /// tracing).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let (out, secs) = timed(f);
        *self.spans.entry(name).or_default() += secs;
        out
    }

    /// Add `secs` to a nested or out-of-phase span.
    pub fn add_nested(&mut self, name: &'static str, secs: f64) {
        *self.nested.entry(name).or_default() += secs;
    }
}

/// Time `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
