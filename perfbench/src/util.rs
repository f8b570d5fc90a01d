//! Small measurement helpers shared by every workload: timing,
//! allocation counts, order statistics, peak RSS, returning freed memory
//! and a stable digest.

use std::time::{Duration, Instant};

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` with the allocation probe armed and returns the allocation
/// calls and requested bytes it made. The caller times the same work in
/// a separate call, so counting never slows a timed region.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    crate::alloc_probe::start();
    let out = f();
    let counts = crate::alloc_probe::stop().unwrap_or((0, 0));
    drop(out);
    counts
}

/// Hands the heap memory the benchmark has freed back to the kernel.
/// Call it after an untimed teardown, before the next timer starts: the
/// allocator otherwise keeps the pages of the previous repetition's
/// world and indexes resident, and `peak_rss_mb` would grow with the
/// number of repetitions instead of measuring one.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes the allocator's lock, only
        // returns free pages of its own arenas to the kernel and leaves
        // every live allocation in place.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1`; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a: a stable digest of rendered outputs, independent of
/// the standard library's randomly keyed hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds a string plus a terminator, so `"ab","c"` ≠ `"a","bc"`.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
