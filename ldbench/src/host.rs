//! Host-speed normalisation of the compute timings.
//!
//! On a shared host the speed of a core drifts by tens of percent over
//! tens of seconds, with other tenants' load: the same `table_a` call
//! took 0.41 s in one stretch and 0.60 s in the next. A median over one
//! run cannot cancel a drift that outlasts the run. So every timed call
//! is bracketed by two probes of a fixed reference loop, and its wall is
//! rescaled to what it would have taken on a host that runs the probe in
//! [`NOMINAL_PROBE_S`]. A call that got 2× slower because the host did
//! is rescaled back; a call that got 2× slower on its own is not.
//!
//! The probe is the benchmark's own code, so no change to the program
//! can speed it up or slow it down. It is AND+POPCNT sweeps, half over
//! two 32 KiB buffers (the core's speed, as the kernel's packed tiles
//! see it) and half over two 8 MiB buffers (the shared last-level
//! cache, where other tenants' load shows as well). Over six 12-second
//! runs each of `table_a` and `tri_narrow` on a 2-core share of a Xeon,
//! the cross-run spread of the median wall was 0.12 and 0.22 raw, 0.10
//! and 0.05 rescaled by the core half alone, 0.04 and 0.07 by a cache
//! probe alone (two 16 MiB buffers), and 0.07 and 0.04 by both. The
//! 8 MiB buffers add 16 MB to every workload's `peak_rss_mb`.

use std::time::Instant;

/// The probe's wall on the reference host, seconds. Only a scale: both
/// sides of a comparison use the same constant.
pub const NOMINAL_PROBE_S: f64 = 0.025;
/// 64-bit words per core-half buffer (32 KiB: L1-resident).
const CORE_WORDS: usize = 1 << 12;
/// Sweeps of the core-half buffers per probe (~12 ms on the Xeon above).
const CORE_SWEEPS: usize = 15_000;
/// 64-bit words per cache-half buffer (8 MiB: past L2, inside L3).
const CACHE_WORDS: usize = 1 << 20;
/// Sweeps of the cache-half buffers per probe (~12 ms).
const CACHE_SWEEPS: usize = 12;

/// Runs the reference loop and times calls against it.
pub struct HostClock {
    core: [Vec<u64>; 2],
    cache: [Vec<u64>; 2],
}

/// A timed call: its wall and its wall rescaled to the reference host.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl HostClock {
    /// Fills the probe buffers from a fixed xorshift stream.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut words = |n: usize| {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect::<Vec<u64>>()
        };
        Self {
            core: [words(CORE_WORDS), words(CORE_WORDS)],
            cache: [words(CACHE_WORDS), words(CACHE_WORDS)],
        }
    }

    /// Wall seconds of one probe.
    pub fn probe_s(&self) -> f64 {
        let [a, b] = std::hint::black_box(&self.core);
        let [c, d] = std::hint::black_box(&self.cache);
        let t0 = Instant::now();
        std::hint::black_box(sweeps(a, b, CORE_SWEEPS));
        std::hint::black_box(sweeps(c, d, CACHE_SWEEPS));
        t0.elapsed().as_secs_f64()
    }

    /// Runs `f` between two probes; returns its wall, raw and rescaled
    /// by [`NOMINAL_PROBE_S`] ÷ the mean of the two probes.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (Timed, T) {
        let before = self.probe_s();
        let t0 = Instant::now();
        let out = f();
        let raw_s = t0.elapsed().as_secs_f64();
        let after = self.probe_s();
        let scaled_s = scale(raw_s, before, after);
        (Timed { raw_s, scaled_s }, out)
    }
}

/// `raw_s` rescaled to the reference host, given the probes around it.
pub fn scale(raw_s: f64, before_s: f64, after_s: f64) -> f64 {
    raw_s * NOMINAL_PROBE_S / ((before_s + after_s) / 2.0)
}

/// The probe's work: `n` AND+POPCNT reductions of `a` against `b`,
/// shifted by a word per sweep so no sweep can be hoisted.
fn sweeps(a: &[u64], b: &[u64], n: usize) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512vpopcntdq") {
        // SAFETY: the features were just detected.
        return unsafe { sweeps_avx512(a, b, n) };
    }
    sweeps_generic(a, b, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn sweeps_avx512(a: &[u64], b: &[u64], n: usize) -> u64 {
    sweeps_generic(a, b, n)
}

#[inline(always)]
fn sweeps_generic(a: &[u64], b: &[u64], n: usize) -> u64 {
    let mut total = 0u64;
    for s in 0..n {
        let shift = s % 8;
        let acc: u64 = a[..a.len() - shift]
            .iter()
            .zip(&b[shift..])
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum();
        total = total.wrapping_add(acc);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_undoes_a_uniformly_slower_host() {
        // a host at half speed: probes and call both take twice as long
        let fast = scale(0.5, NOMINAL_PROBE_S, NOMINAL_PROBE_S);
        let slow = scale(1.0, 2.0 * NOMINAL_PROBE_S, 2.0 * NOMINAL_PROBE_S);
        assert!((fast - 0.5).abs() < 1e-12);
        assert!((slow - 0.5).abs() < 1e-12);
        // a slower call on an unchanged host stays slower
        assert!((scale(1.0, NOMINAL_PROBE_S, NOMINAL_PROBE_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_work_is_fixed() {
        let h = HostClock::new();
        let [a, b] = &h.core;
        assert_eq!(sweeps(a, b, 3), sweeps_generic(a, b, 3));
        let (t, v) = h.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.raw_s >= 0.0 && t.scaled_s >= 0.0);
    }
}
