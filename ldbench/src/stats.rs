//! Harness statistics: medians, the tail percentile a sample count can
//! support, open-loop due-time accounting, the `VmHWM` reader and the
//! metric-name grammar. Pure functions, unit-tested below.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Percentiles the tail report may choose from, highest first. The
/// ladder stops at p75. The one-shot lookups wait up to one 10 ms accept
/// poll, so their p90 sits at the poll's edge, where only host scheduling
/// stalls reach. On a shared 2-core host, p99 over 1,000 lookups moved
/// by 0.44 of its median across ten seeds, and p90 by 0.45 in a noisy
/// hour, while a bound may be at most 0.25. p75 still lies inside the
/// poll.
pub const TAIL_LADDER: [usize; 2] = [75, 50];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, with its nearest-rank value. With
/// fewer than 20 samples none has, and the median stands in: the maximum
/// of a few samples is set by a single host stall. `None` when empty.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // nearest rank, 1-based: the smallest k with k/n >= p/100
    let rank = |p: usize| (p * n).div_ceil(100).max(1);
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p)) >= MIN_BEYOND)
        .unwrap_or(50);
    (n > 0).then(|| (p as f64, v[rank(p) - 1]))
}

/// An open-loop schedule: request `k` is due at `start + k × interval`,
/// whether or not earlier requests have finished. Latency is timed from
/// the due time, so a stall is charged to every request it delayed.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    /// Due-to-done latency per request, ms.
    pub latency_ms: Vec<f64>,
    /// Due-to-send lateness of the generator per request, ms.
    pub late_ms: Vec<f64>,
}

impl OpenLoop {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Self {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.interval * k as u32
    }

    /// Records request `k`, sent at `sent` and answered at `done`.
    pub fn record(&mut self, k: usize, sent: Instant, done: Instant) {
        let due = self.due(k);
        self.latency_ms
            .push(ms(done.saturating_duration_since(due)));
        self.late_ms.push(ms(sent.saturating_duration_since(due)));
    }
}

/// Set-up repetitions spread over a measurement window: the first runs
/// before the window, and the `k`-th (0-based) is due once `k / total` of
/// `window_s` has been measured. So the set-up median samples the same
/// stretch of host time as the measured repetitions, not only the seconds
/// before them.
#[derive(Clone, Copy, Debug)]
pub struct SpreadSchedule {
    /// Set-ups in all, the one before the window included.
    total: usize,
    window_s: f64,
}

impl SpreadSchedule {
    /// `total` set-ups over `window_s` seconds of measurement.
    pub fn new(total: usize, window_s: f64) -> Self {
        Self { total, window_s }
    }

    /// Whether set-up number `done` (0-based) is due after `measured_s`.
    pub fn due(&self, done: usize, measured_s: f64) -> bool {
        done < self.total && measured_s >= self.window_s * done as f64 / self.total as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in MB (10^6 bytes).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = it.next()?.parse().ok()?;
    match it.next() {
        Some("kB") => Some(kib * 1024.0 / 1e6),
        _ => None,
    }
}

/// This process's peak resident set, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled order: the helpers must sort
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples 1..=1000: p75 is rank 750, the top of the ladder
        assert_eq!(tail(&ramp(1000)), Some((75.0, 750.0)));
        // 40 samples: p75 rank 30 leaves exactly 10 beyond
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 39 samples: p75 rank 30 leaves 9 beyond, so the median (rank 20)
        assert_eq!(tail(&ramp(39)), Some((50.0, 20.0)));
        // 20 samples: only the median (rank 10) has 10 beyond
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 19 samples: nothing qualifies, so the median stands in
        assert_eq!(tail(&ramp(19)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(1)), Some((50.0, 1.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_delayed_request() {
        let t0 = Instant::now();
        let mut ol = OpenLoop::new(t0, 50.0); // due every 20 ms
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(ol.due(3), at(60));
        // request 0 stalls for 70 ms; 1..=3 go out late, each answered
        // 1 ms after it was sent
        ol.record(0, at(0), at(70));
        ol.record(1, at(70), at(71));
        ol.record(2, at(71), at(72));
        ol.record(3, at(72), at(73));
        // request 4 is back on schedule
        ol.record(4, at(80), at(81));
        let lat: Vec<f64> = ol.latency_ms.iter().map(|x| x.round()).collect();
        assert_eq!(lat, vec![70.0, 51.0, 32.0, 13.0, 1.0]);
        let late: Vec<f64> = ol.late_ms.iter().map(|x| x.round()).collect();
        assert_eq!(late, vec![0.0, 50.0, 31.0, 12.0, 0.0]);
        // early sends (clock jitter) count as on time, never negative
        ol.record(5, at(99), at(101));
        assert_eq!(ol.late_ms[5], 0.0);
        assert!((ol.latency_ms[5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spread_schedule_spaces_set_ups_evenly_over_the_window() {
        let s = SpreadSchedule::new(4, 20.0); // due at 0, 5, 10 and 15 s
        assert!(s.due(0, 0.0));
        assert!(!s.due(1, 4.9));
        assert!(s.due(1, 5.0));
        assert!(!s.due(3, 14.0));
        assert!(s.due(3, 15.0));
        // never more than `total`, however long the window runs over
        assert!(!s.due(4, 100.0));
    }

    #[test]
    fn vm_hwm_parses_kib_lines_only() {
        let status = "Name:\tldbench\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(204800.0 * 1024.0 / 1e6));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
        let live = peak_rss_mb().expect("/proc/self/status has VmHWM on Linux");
        assert!(live > 0.1, "a running test binary holds >100 kB: {live}");
    }

    #[test]
    fn metric_name_and_unit_grammar() {
        for ok in ["setup_s", "io.read_chunk_s", "p50_ms", "9lives", "a-b.c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ü", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "%", "count", "1e6/s", "MB", "words/cycle"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a very long unit name", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
