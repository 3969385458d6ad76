//! The serve-side telemetry registry: outcome-labelled request
//! latencies, per-opcode service histograms, queue-wait tracking, and
//! the rolling windows behind the live p50/p99 gauges.
//!
//! `ld-serve` funnels every request — including ones shed at admission
//! or failed before a worker touched them — through [`record_served`].
//! Storage is the same static-atomics discipline as the counters: with
//! the `metrics` feature off every entry point is an inlined no-op; with
//! it on, a record is a handful of relaxed adds and never allocates.
//!
//! The legacy [`crate::record_request_latency`] histogram (health
//! endpoint p50/p99, `MetricsReport.request_latency`) is fed **only for
//! `Ok` outcomes** here, so shed/timeout/error latencies no longer
//! pollute the success quantiles; every outcome gets its own labelled
//! histogram instead.

use crate::histogram::HistogramSnapshot;
#[cfg(feature = "metrics")]
use crate::histogram::WINDOWS;

/// Wire opcodes the serve daemon dispatches, for per-opcode service-time
/// histograms. Mirrors `ld-serve`'s request enum (trace cannot depend on
/// serve; serve maps its types onto these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ServeOp {
    /// `health` — liveness/stats snapshot, answered inline.
    Health,
    /// `pair` — one r²/D/D′ value for a SNP pair.
    Pair,
    /// `region` — a dense LD block for a row range.
    Region,
    /// `metrics` — Prometheus exposition, answered inline.
    Metrics,
    /// `dump-trace` — live flight-recorder snapshot, answered inline.
    DumpTrace,
}

impl ServeOp {
    /// Number of opcodes (array sizing).
    pub const COUNT: usize = 5;

    /// All opcodes, in stable exposition order.
    pub const ALL: [ServeOp; ServeOp::COUNT] = [
        ServeOp::Health,
        ServeOp::Pair,
        ServeOp::Region,
        ServeOp::Metrics,
        ServeOp::DumpTrace,
    ];

    /// Stable label value (the `opcode="…"` exposition label).
    pub fn name(self) -> &'static str {
        match self {
            ServeOp::Health => "health",
            ServeOp::Pair => "pair",
            ServeOp::Region => "region",
            ServeOp::Metrics => "metrics",
            ServeOp::DumpTrace => "dump_trace",
        }
    }
}

/// Terminal outcome of a served request, for outcome-labelled latency
/// histograms. Mirrors the LDS1 status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ServeOutcome {
    /// Served successfully.
    Ok,
    /// Rejected by admission control (queue full, memory budget).
    Shed,
    /// Malformed or unanswerable request.
    BadRequest,
    /// Unknown panel or out-of-range indices.
    NotFound,
    /// Worker panic or internal failure.
    Internal,
    /// Queue deadline expired before a worker picked it up.
    Timeout,
    /// Refused because the daemon is draining.
    ShuttingDown,
}

impl ServeOutcome {
    /// Number of outcomes (array sizing).
    pub const COUNT: usize = 7;

    /// All outcomes, in stable exposition order.
    pub const ALL: [ServeOutcome; ServeOutcome::COUNT] = [
        ServeOutcome::Ok,
        ServeOutcome::Shed,
        ServeOutcome::BadRequest,
        ServeOutcome::NotFound,
        ServeOutcome::Internal,
        ServeOutcome::Timeout,
        ServeOutcome::ShuttingDown,
    ];

    /// Stable label value (the `outcome="…"` exposition label).
    pub fn name(self) -> &'static str {
        match self {
            ServeOutcome::Ok => "ok",
            ServeOutcome::Shed => "shed",
            ServeOutcome::BadRequest => "bad_request",
            ServeOutcome::NotFound => "not_found",
            ServeOutcome::Internal => "internal",
            ServeOutcome::Timeout => "timeout",
            ServeOutcome::ShuttingDown => "shutting_down",
        }
    }
}

#[cfg(feature = "metrics")]
mod imp {
    use super::{ServeOp, ServeOutcome};
    use crate::histogram::{Histogram, RollingHistogram};

    #[allow(clippy::declare_interior_mutable_const)] // array-init pattern
    const EMPTY: Histogram = Histogram::new();

    /// Service time (worker compute, or inline handling) per opcode.
    pub(super) static SERVICE_BY_OP: [Histogram; ServeOp::COUNT] = [EMPTY; ServeOp::COUNT];
    /// End-to-end latency (accept → response ready) per outcome.
    pub(super) static TOTAL_BY_OUTCOME: [Histogram; ServeOutcome::COUNT] =
        [EMPTY; ServeOutcome::COUNT];
    /// Queue wait (enqueue → worker pop; 0 for inline/shed requests).
    pub(super) static QUEUE_WAIT: Histogram = Histogram::new();
    /// Rolling end-to-end latency of successful requests (the live
    /// p50/p99 windows).
    pub(super) static OK_ROLLING: RollingHistogram = RollingHistogram::new();
    /// Rolling end-to-end latency of everything else (error/shed bursts).
    pub(super) static ERR_ROLLING: RollingHistogram = RollingHistogram::new();

    pub(super) fn reset() {
        for h in SERVICE_BY_OP.iter().chain(&TOTAL_BY_OUTCOME) {
            h.reset();
        }
        QUEUE_WAIT.reset();
        OK_ROLLING.reset();
        ERR_ROLLING.reset();
    }
}

/// Records one served request: opcode, terminal outcome, queue wait
/// (0 when the request never queued), service time (0 when no worker
/// ran it) and end-to-end latency, all in nanoseconds. `Ok` outcomes
/// also feed the legacy success-only histogram behind
/// [`crate::latency_snapshot`]. No-op without the `metrics` feature.
#[inline(always)]
pub fn record_served(
    op: ServeOp,
    outcome: ServeOutcome,
    queue_ns: u64,
    service_ns: u64,
    total_ns: u64,
) {
    #[cfg(feature = "metrics")]
    {
        imp::SERVICE_BY_OP[op as usize].record(service_ns);
        imp::TOTAL_BY_OUTCOME[outcome as usize].record(total_ns);
        imp::QUEUE_WAIT.record(queue_ns);
        if matches!(outcome, ServeOutcome::Ok) {
            imp::OK_ROLLING.record(total_ns);
            crate::record_request_latency(total_ns);
        } else {
            imp::ERR_ROLLING.record(total_ns);
        }
    }
    #[cfg(not(feature = "metrics"))]
    let _ = (op, outcome, queue_ns, service_ns, total_ns);
}

/// One rolling window's latency stats (conservative bucket quantiles).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStats {
    /// Window label (`"10s"`, `"1m"`, `"5m"`).
    pub window: &'static str,
    /// Successful requests inside the window.
    pub count: u64,
    /// Window p50 (ns), when any success landed in the window.
    pub p50_ns: Option<u64>,
    /// Window p99 (ns), when any success landed in the window.
    pub p99_ns: Option<u64>,
    /// Non-`Ok` requests inside the window.
    pub err_count: u64,
}

/// A point-in-time copy of the whole serve-telemetry registry, the input
/// the Prometheus encoder renders. Empty (all zero) when metrics are
/// disabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeTelemetry {
    /// `(opcode label, service-time histogram)` in [`ServeOp::ALL`] order.
    pub service_by_opcode: Vec<(&'static str, HistogramSnapshot)>,
    /// `(outcome label, end-to-end histogram)` in [`ServeOutcome::ALL`] order.
    pub total_by_outcome: Vec<(&'static str, HistogramSnapshot)>,
    /// Queue-wait histogram (enqueue → worker pop).
    pub queue_wait: HistogramSnapshot,
    /// Rolling-window success latency stats in
    /// [`crate::histogram::WINDOWS`] order.
    pub windows: Vec<WindowStats>,
}

/// Snapshots the registry (see [`ServeTelemetry`]).
pub fn serve_telemetry() -> ServeTelemetry {
    #[cfg(feature = "metrics")]
    {
        let now = crate::histogram::now_ns();
        ServeTelemetry {
            service_by_opcode: ServeOp::ALL
                .iter()
                .map(|op| (op.name(), imp::SERVICE_BY_OP[*op as usize].snapshot()))
                .collect(),
            total_by_outcome: ServeOutcome::ALL
                .iter()
                .map(|o| (o.name(), imp::TOTAL_BY_OUTCOME[*o as usize].snapshot()))
                .collect(),
            queue_wait: imp::QUEUE_WAIT.snapshot(),
            windows: WINDOWS
                .iter()
                .map(|&(label, secs)| {
                    let ok = imp::OK_ROLLING.window_at(now, secs);
                    let err = imp::ERR_ROLLING.window_at(now, secs);
                    WindowStats {
                        window: label,
                        count: ok.count,
                        p50_ns: ok.p50_ns(),
                        p99_ns: ok.p99_ns(),
                        err_count: err.count,
                    }
                })
                .collect(),
        }
    }
    #[cfg(not(feature = "metrics"))]
    ServeTelemetry::default()
}

/// Rolling-window success-latency stats only (the health endpoint's
/// live p50/p99). Equivalent to [`serve_telemetry`]`().windows` but
/// skips the histogram copies.
pub fn rolling_windows() -> Vec<WindowStats> {
    #[cfg(feature = "metrics")]
    {
        let now = crate::histogram::now_ns();
        WINDOWS
            .iter()
            .map(|&(label, secs)| {
                let ok = imp::OK_ROLLING.window_at(now, secs);
                let err = imp::ERR_ROLLING.window_at(now, secs);
                WindowStats {
                    window: label,
                    count: ok.count,
                    p50_ns: ok.p50_ns(),
                    p99_ns: ok.p99_ns(),
                    err_count: err.count,
                }
            })
            .collect()
    }
    #[cfg(not(feature = "metrics"))]
    Vec::new()
}

/// Zeroes the whole registry (called from [`crate::reset`]).
pub(crate) fn reset() {
    #[cfg(feature = "metrics")]
    imp::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_sets_are_stable_and_unique() {
        let ops: Vec<&str> = ServeOp::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(ops, ["health", "pair", "region", "metrics", "dump_trace"]);
        let outs: Vec<&str> = ServeOutcome::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            outs,
            [
                "ok",
                "shed",
                "bad_request",
                "not_found",
                "internal",
                "timeout",
                "shutting_down"
            ]
        );
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn outcomes_are_segregated() {
        let _g = crate::lock_global_state();
        crate::reset();
        record_served(ServeOp::Pair, ServeOutcome::Ok, 100, 400, 500);
        record_served(ServeOp::Pair, ServeOutcome::Shed, 0, 0, 9_000_000);
        record_served(ServeOp::Region, ServeOutcome::Timeout, 5_000, 0, 6_000);
        let t = serve_telemetry();
        let get = |label: &str| {
            t.total_by_outcome
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, h)| h.count)
                .unwrap_or(0)
        };
        assert_eq!(get("ok"), 1);
        assert_eq!(get("shed"), 1);
        assert_eq!(get("timeout"), 1);
        assert_eq!(get("internal"), 0);
        // the legacy success histogram saw only the Ok request
        assert_eq!(crate::LatencySummary::capture().count, 1);
        // queue-wait saw all three
        assert_eq!(t.queue_wait.count, 3);
        // rolling windows: 1 success, 2 errors
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[0].count, 1);
        assert_eq!(t.windows[0].err_count, 2);
        crate::reset();
        assert_eq!(serve_telemetry().queue_wait.count, 0);
    }
}
